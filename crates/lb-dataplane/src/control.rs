//! The control plane: everything that changes the weight vector — the
//! feedback controller, gossip merges, health epochs — and the one
//! place a changed vector is committed to the forwarding table.
//!
//! A commit is not a table build. The table is read only by packets
//! without a pin (a SYN, a fallback forward, every packet when
//! `affinity` is off) and by a health re-pin; pinned connections never
//! consult it, and the controller may commit on every `T_LB` sample. So
//! a commit only marks the [`LazyTable`] stale. The first lookup after it
//! resets the population for `LbNode::weights` — which *is* the
//! committed vector: [`lbcore::Weights`] moves only by a write that its
//! caller then commits (a controller or merge that returns `false` has
//! touched nothing) — and claims slots only up to the one it reads;
//! later lookups resume from there ([`lbcore::LazyMaglev`]). The
//! population order is a pure function of that vector, so every lookup
//! returns what an eager full build would have returned; the slots
//! nobody read, and the builds nobody looked at, are never made.

use lbcore::{HealthState, LazyMaglev, Weights};
use netsim::Time;
use telemetry::{JournalEvent, WeightCause};

use crate::node::LbNode;

/// The Maglev forwarding table, stale until read.
pub(crate) struct LazyTable {
    table: LazyMaglev,
    stale: bool,
    /// Populations restarted: one per commit that a lookup then read.
    #[cfg(test)]
    pub(crate) builds: u64,
}

impl LazyTable {
    pub(crate) fn new(weights: &[f64], size: usize) -> LazyTable {
        LazyTable {
            table: LazyMaglev::new(weights, size),
            stale: false,
            #[cfg(test)]
            builds: 0,
        }
    }

    /// The weights moved: the next lookup restarts the population before
    /// it answers.
    pub(crate) fn commit(&mut self) {
        self.stale = true;
    }

    /// The backend the table for `weights`, the committed vector, gives
    /// `hash`: the population is reset first if a commit happened since
    /// the last lookup, and resumed only as far as this slot.
    pub(crate) fn lookup(&mut self, weights: &Weights, hash: u64) -> usize {
        if self.stale {
            self.table.reset(weights.as_slice());
            self.stale = false;
            #[cfg(test)]
            {
                self.builds += 1;
            }
        }
        self.table.lookup(hash)
    }
}

/// How a backend in `state` is routed to: 0 = full weight
/// (Healthy/Suspect), 1 = probe trickle (Probation), 2 = zero (Ejected).
fn route_class(state: HealthState) -> u8 {
    match state {
        HealthState::Healthy | HealthState::Suspect => 0,
        HealthState::Probation => 1,
        HealthState::Ejected => 2,
    }
}

impl LbNode {
    /// The one place a changed weight vector reaches the forwarding
    /// table: mark the table stale, count the commit, move pins off
    /// backends a health epoch just ejected, then record the new vector.
    fn commit_weights(&mut self, now: Time, cause: WeightCause) {
        self.table.commit();
        self.stats.table_rebuilds += 1;
        if cause == WeightCause::Health {
            self.repin_ejected(now);
        }
        self.record_weights(now, cause);
    }

    /// Appends the current weights to `weight_series` and, when the
    /// journal is on, a `WeightUpdate` whose victim/moved-mass are derived
    /// against the previous point of each series.
    pub(crate) fn record_weights(&mut self, now: Time, cause: WeightCause) {
        let journal_on = self.journal.enabled();
        let mut victim = None;
        let mut victim_dec = 0.0;
        let mut moved = 0.0;
        for (b, s) in self.weight_series.iter_mut().enumerate() {
            let new_w = self.weights.get(b);
            if journal_on {
                if let Some(&(_, old_w)) = s.points().last() {
                    let dec = old_w - new_w;
                    if dec > 0.0 {
                        moved += dec;
                        if dec > victim_dec {
                            victim_dec = dec;
                            victim = Some(b);
                        }
                    }
                }
            }
            s.push(now.as_nanos(), new_w);
        }
        if journal_on {
            self.journal.push(JournalEvent::WeightUpdate {
                at: now.as_nanos(),
                cause,
                victim,
                moved,
                weights: self.weights.as_slice().to_vec(),
            });
        }
    }

    /// Lets the controller, if the steering has one, reshape the weights.
    pub(crate) fn run_controller(&mut self, now: Time) {
        if self.no_backend {
            return; // nothing to shape until a backend is readmitted
        }
        let Some(controller) = self.cfg.steering.controller() else {
            return; // observe-only or p2c: no table to reshape
        };
        if controller.maybe_update(now.as_nanos(), &self.estimator, &mut self.weights) {
            self.commit_weights(now, WeightCause::Controller);
        }
    }

    /// Applies one weight-gossip round (multi-LB tier): blends this LB's
    /// weights toward the element-wise mean of `peers` — each a peer LB's
    /// current weight vector — with strength `mix`. The weights carry the
    /// **local** ejection mask, so gossip never resurrects a backend this
    /// LB has ejected; they move, and are committed, only when the merge
    /// actually moved a share.
    ///
    /// Transport is the caller's problem: the experiment driver steps the
    /// simulation clock in gossip-period increments, snapshots every LB's
    /// weights, and calls this on each LB between steps — a deterministic
    /// all-to-all gossip round with no extra packets in the trace.
    ///
    /// Returns false (and changes nothing) under a steering without a
    /// controller (baseline/observer/p2c), while every backend is ejected,
    /// or when the merge is a no-op.
    pub fn apply_gossip(&mut self, peers: &[&[f64]], mix: f64, now: Time) -> bool {
        if self.cfg.steering.controller().is_none() || self.no_backend {
            return false;
        }
        if !lbcore::gossip::merge_weights(&mut self.weights, peers, mix) {
            return false;
        }
        self.stats.gossip_merges += 1;
        if self.journal.enabled() {
            // The merged vector is the `WeightUpdate` the commit records.
            self.journal.push(JournalEvent::GossipMerge {
                at: now.as_nanos(),
                mix,
            });
        }
        self.commit_weights(now, WeightCause::Gossip);
        true
    }

    /// One health epoch: feed the tracker the cumulative sample/forward
    /// counters, and when a backend's routing class changed (ejection,
    /// probation, readmission) commit the new weights and migrate pinned
    /// flows.
    pub(crate) fn health_epoch(&mut self, now: Time) {
        let Some(tracker) = self.health.as_mut() else {
            return;
        };
        let n = self.cfg.backends.len();
        let changed = tracker.on_epoch(now.as_nanos(), &self.live_samples, &self.fwd_per_backend);
        self.stats.ejections = tracker.ejections();
        self.stats.readmissions = tracker.readmissions();
        if self.journal.enabled() {
            for &(b, from, to, trigger) in tracker.last_transitions() {
                self.journal.push(JournalEvent::HealthTransition {
                    at: now.as_nanos(),
                    backend: b,
                    from: from.as_str(),
                    to: to.as_str(),
                    trigger: trigger.as_str(),
                });
            }
        }
        if !changed {
            return;
        }
        let class = |b| route_class(tracker.state(b));
        if (0..n).all(|b| class(b) == self.route_class[b]) {
            return; // Healthy↔Suspect churn: no routing consequence
        }
        let (floor, was) = (self.weights.floor(), &self.route_class);
        let reshaped = self.weights.eject(|b, w| match tracker.state(b) {
            HealthState::Ejected => None,
            // Probation earns only the floor: enough traffic to elicit
            // samples, little enough to contain a still-dead backend.
            HealthState::Probation => Some(floor),
            // A readmission restores the neutral share; margin-based
            // controllers would otherwise leave the recovered backend
            // parked at the probation floor indefinitely.
            _ if was[b] != 0 => Some(1.0 / n as f64),
            _ => Some(w.max(floor)),
        });
        for (b, slot) in self.route_class.iter_mut().enumerate() {
            *slot = class(b);
        }
        if !reshaped {
            // Every backend ejected: weights and their mask untouched,
            // table kept, the fast path drops with a counter until
            // probation reopens one.
            self.no_backend = true;
            if self.journal.enabled() {
                self.journal
                    .push(JournalEvent::NoBackend { at: now.as_nanos() });
            }
            self.record_weights(now, WeightCause::Health);
            return;
        }
        self.no_backend = false;
        self.commit_weights(now, WeightCause::Health);
    }

    /// Migrates pinned flows off ejected backends through the table for
    /// the weights just committed (populated only if there is a flow to
    /// move, and only as far as the moved flows read). The new backend
    /// will RST mid-stream connections, forcing a fast client reconnect —
    /// strictly better than silently blackholing into the dead pin.
    fn repin_ejected(&mut self, now: Time) {
        let now_ns = now.as_nanos();
        let (table, weights) = (&mut self.table, &self.weights);
        let ensembles = &mut self.ensembles;
        let journal = &mut self.journal;
        let mut moved = 0usize;
        for (b, &ejected) in weights.ejected().iter().enumerate() {
            if !ejected {
                continue;
            }
            moved += self.flows.repin_backend(b, |key, entry| {
                let nb = table.lookup(weights, key.stable_hash());
                if journal.enabled() {
                    journal.push(JournalEvent::FlowRepin {
                        at: now_ns,
                        src_ip: u32::from(key.src_ip),
                        src_port: key.src_port,
                        from: b,
                        to: nb,
                    });
                }
                entry.backend = nb;
                entry.timing = ensembles[nb].new_flow(now_ns);
            });
        }
        self.stats.flows_repinned += moved as u64;
    }
}
