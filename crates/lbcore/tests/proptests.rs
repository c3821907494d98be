//! Property-based tests for the paper's algorithms and their
//! infrastructure.

use std::net::Ipv4Addr;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use netpkt::FlowKey;

use lbcore::ensemble::{CliffRule, EnsembleConfig};
use lbcore::{
    AimdController, AlphaShift, BackendEstimator, Controller, EnsembleTimeout, FixedTimeout,
    FlowTable, FlowTiming, LazyMaglev, MaglevTable, ProportionalController, Weights,
};

/// A scripted flow-table operation (the proptest alphabet).
#[derive(Debug, Clone, Copy)]
enum FlowOp {
    /// Insert `port`'s flow pinned to `backend`.
    Insert { port: u16, backend: usize },
    /// Touch `port`'s flow (bump `last_seen`/`packets` if present).
    Touch { port: u16 },
    /// Remove `port`'s flow (FIN/RST path).
    Remove { port: u16 },
    /// Run the idle sweep.
    Sweep,
}

/// Weighted op mix (4:3:1:1 insert:touch:remove:sweep), expressed as a
/// `prop_map` over a selector because the vendored proptest stub has no
/// `prop_oneof!`.
fn flow_op() -> impl Strategy<Value = FlowOp> {
    (0u8..9, 1u16..64, 0usize..4).prop_map(|(sel, port, backend)| match sel {
        0..=3 => FlowOp::Insert { port, backend },
        4..=6 => FlowOp::Touch { port },
        7 => FlowOp::Remove { port },
        _ => FlowOp::Sweep,
    })
}

fn flow_key(port: u16) -> FlowKey {
    FlowKey::new(
        Ipv4Addr::new(10, 0, 0, 1),
        port,
        Ipv4Addr::new(10, 9, 9, 9),
        11211,
    )
}

fn fresh_timing() -> lbcore::EnsembleFlowState {
    EnsembleTimeout::new(EnsembleConfig::default()).new_flow(0)
}

/// Replays an op script against a fresh table; each op advances time by
/// one millisecond. Returns the table plus a shadow model of which port
/// is pinned to which backend.
fn replay_flow_ops(ops: &[FlowOp], capacity: usize) -> (FlowTable, Vec<Option<usize>>) {
    const MS: u64 = 1_000_000;
    let idle = 40 * MS;
    let mut t = FlowTable::with_capacity(idle, capacity);
    let mut model: Vec<Option<usize>> = vec![None; 64];
    let mut last_touch: Vec<u64> = vec![0; 64];
    let mut now = 0u64;
    for op in ops {
        now += MS;
        match *op {
            FlowOp::Insert { port, backend } => {
                // Re-insert of a live key keeps the original pin (tested
                // separately) but still counts as traffic on the flow.
                if model[port as usize].is_none() {
                    model[port as usize] = Some(backend);
                }
                last_touch[port as usize] = now;
                let e = t.insert(flow_key(port), backend, fresh_timing(), now);
                e.last_seen = now;
            }
            FlowOp::Touch { port } => {
                if let Some(e) = t.get_mut(&flow_key(port)) {
                    e.last_seen = now;
                    e.packets += 1;
                    last_touch[port as usize] = now;
                }
            }
            FlowOp::Remove { port } => {
                t.remove(&flow_key(port));
                model[port as usize] = None;
            }
            FlowOp::Sweep => {
                t.sweep(now);
                for p in 0..64 {
                    if model[p].is_some() && now.saturating_sub(last_touch[p]) > idle {
                        model[p] = None;
                    }
                }
            }
        }
    }
    (t, model)
}

/// Strictly increasing arrival times from positive gaps.
fn arrivals_from_gaps(gaps: &[u64]) -> Vec<u64> {
    let mut t = 0u64;
    let mut out = vec![0u64];
    for &g in gaps {
        t += g.max(1);
        out.push(t);
    }
    out
}

/// The reference Maglev population: the algorithm as it stood before
/// `MaglevTable::rebuild` — fresh vectors per build and the permutation
/// position computed as `(offset + next · skip) mod m` for every probe.
fn reference_maglev(weights: &[f64], size: usize) -> Vec<u32> {
    use netpkt::flow::splitmix64;
    let n = weights.len();
    let m = size as u64;
    let mut offset = Vec::with_capacity(n);
    let mut skip = Vec::with_capacity(n);
    let mut next = vec![0u64; n];
    for b in 0..n {
        let h1 = splitmix64(0x6d61_676c_6576_0001 ^ (b as u64).wrapping_mul(0x9e37_79b9));
        let h2 = splitmix64(0x6d61_676c_6576_0002 ^ (b as u64).wrapping_mul(0x7f4a_7c15));
        offset.push(h1 % m);
        skip.push(h2 % (m - 1) + 1);
    }
    let mut table = vec![u32::MAX; size];
    let mut filled = 0usize;
    let total: f64 = weights.iter().sum();
    let mean = total / n as f64;
    let mut credit = vec![0.0f64; n];
    while filled < size {
        for b in 0..n {
            credit[b] += weights[b] / mean;
            while credit[b] >= 1.0 && filled < size {
                credit[b] -= 1.0;
                loop {
                    let c = (offset[b] + next[b] * skip[b]) % m;
                    next[b] += 1;
                    if table[c as usize] == u32::MAX {
                        table[c as usize] = b as u32;
                        filled += 1;
                        break;
                    }
                }
            }
        }
    }
    table
}

/// A weight vector from `(class, value)` draws: exact zeros, floor-sized
/// shares, 1000:1 giants and ordinary values, with at least one positive.
fn maglev_weights(draws: &[(u8, f64)]) -> Vec<f64> {
    let mut w: Vec<f64> = draws
        .iter()
        .map(|&(class, x)| match class {
            0 => 0.0,
            1 => 0.02,
            2 => 1000.0,
            _ => x,
        })
        .collect();
    if w.iter().all(|&x| x == 0.0) {
        w[0] = 1.0;
    }
    w
}

/// Sort-on-read model of `BackendEstimator`'s control signal: every
/// sample kept, every read re-derives the window and sorts it.
struct EstimatorModel {
    samples: Vec<Vec<(u64, u64)>>,
    staleness: u64,
    quantile: f64,
    horizon: Option<u64>,
}

impl EstimatorModel {
    fn fresh_estimate(&self, b: usize, now: u64) -> Option<f64> {
        let s = &self.samples[b];
        let retained = match self.horizon {
            None => 16,    // DEFAULT_COUNT_WINDOW
            Some(_) => 64, // WINDOW_CAP
        };
        let mut w: Vec<u64> = s
            .iter()
            .rev()
            .take(retained)
            .take_while(|&&(t, _)| self.horizon.is_none_or(|h| now.saturating_sub(t) <= h))
            .map(|&(_, v)| v)
            .collect();
        w.sort_unstable();
        let &(last_at, _) = s.last()?;
        if w.is_empty() || now.saturating_sub(last_at) > self.staleness {
            return None;
        }
        let rank = ((self.quantile * w.len() as f64).ceil() as usize).clamp(1, w.len());
        Some(w[rank - 1] as f64)
    }

    fn worst(&self, now: u64) -> Option<(usize, f64)> {
        let fresh: Vec<(usize, f64)> = (0..self.samples.len())
            .filter_map(|b| self.fresh_estimate(b, now).map(|e| (b, e)))
            .collect();
        if fresh.len() < 2 {
            return None;
        }
        fresh.into_iter().max_by(|a, b| a.1.total_cmp(&b.1))
    }

    fn best_other(&self, excluding: usize, now: u64) -> Option<f64> {
        (0..self.samples.len())
            .filter(|&b| b != excluding)
            .filter_map(|b| self.fresh_estimate(b, now))
            .min_by(|a, b| a.total_cmp(b))
    }
}

/// Every ejection subset of `n` backends, the all-ejected one included.
fn ejection_masks(n: usize) -> impl Iterator<Item = Vec<bool>> {
    (0u32..1 << n).map(move |bits| (0..n).map(|b| bits & (1 << b) != 0).collect())
}

/// The invariants `Weights` holds by construction: ejected backends at
/// exactly 0.0, survivors at or above the floor, sum 1, mask as installed.
fn check_weights(w: &Weights, mask: &[bool], what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(w.ejected(), mask, "{}: mask moved", what);
    let sum: f64 = w.as_slice().iter().sum();
    prop_assert!(
        (sum - 1.0).abs() < 1e-9,
        "{}: sum {} for mask {:?}",
        what,
        sum,
        mask
    );
    for (b, &ejected) in mask.iter().enumerate() {
        if ejected {
            prop_assert_eq!(
                w.get(b).to_bits(),
                0.0f64.to_bits(),
                "{}: ejected backend {} holds {}",
                what,
                b,
                w.get(b)
            );
        } else {
            prop_assert!(
                w.get(b) >= w.floor() - 1e-9,
                "{}: survivor {} below floor: {}",
                what,
                b,
                w.get(b)
            );
        }
    }
    Ok(())
}

fn bits(w: &Weights) -> Vec<u64> {
    w.as_slice().iter().map(|x| x.to_bits()).collect()
}

proptest! {
    /// Algorithm 1 invariant: the samples of a flow tile time exactly —
    /// the sum of all T_LB samples equals the span from the first batch
    /// start to the last batch start.
    #[test]
    fn fixed_timeout_samples_tile_time(
        gaps in proptest::collection::vec(1u64..2_000_000, 1..200),
        delta in 1_000u64..1_000_000,
    ) {
        let arrivals = arrivals_from_gaps(&gaps);
        let alg = FixedTimeout::new(delta);
        let mut st = FlowTiming::first_packet(arrivals[0]);
        let mut total = 0u64;
        let mut last_batch_start = arrivals[0];
        for &t in &arrivals[1..] {
            if let Some(s) = alg.on_packet(&mut st, t) {
                total += s;
                last_batch_start = t;
            }
        }
        prop_assert_eq!(total, last_batch_start - arrivals[0]);
    }

    /// Samples are produced exactly at gaps strictly greater than δ.
    #[test]
    fn fixed_timeout_sample_iff_gap_exceeds_delta(
        gaps in proptest::collection::vec(1u64..500_000, 1..100),
        delta in 1u64..500_000,
    ) {
        let arrivals = arrivals_from_gaps(&gaps);
        let alg = FixedTimeout::new(delta);
        let mut st = FlowTiming::first_packet(arrivals[0]);
        for (i, &t) in arrivals[1..].iter().enumerate() {
            let gap = t - arrivals[i];
            let got = alg.on_packet(&mut st, t);
            prop_assert_eq!(got.is_some(), gap > delta, "gap {} delta {}", gap, delta);
        }
    }

    /// Algorithm 2 invariant: over any packet stream, the per-timeout
    /// sample counts are non-increasing in δ (a sample at δᵢ₊₁ implies a
    /// sample at δᵢ) — the monotonicity the sample cliff relies on.
    #[test]
    fn ensemble_counts_monotone(
        gaps in proptest::collection::vec(1u64..5_000_000, 10..300),
    ) {
        let arrivals = arrivals_from_gaps(&gaps);
        // Huge epoch so counts never reset mid-run.
        let cfg = EnsembleConfig { epoch: u64::MAX / 2, ..EnsembleConfig::default() };
        let mut ens = EnsembleTimeout::new(cfg);
        let mut flow = ens.new_flow(arrivals[0]);
        for &t in &arrivals[1..] {
            let _ = ens.on_packet(&mut flow, t);
        }
        let counts = ens.epoch_counts();
        for w in counts.windows(2) {
            prop_assert!(w[0] >= w[1], "counts not monotone: {:?}", counts);
        }
    }

    /// The ensemble's reported samples equal a standalone FIXEDTIMEOUT
    /// run with the currently chosen δ, as long as the choice is stable
    /// (single epoch).
    #[test]
    fn ensemble_matches_fixed_within_epoch(
        gaps in proptest::collection::vec(1u64..300_000, 5..150),
    ) {
        let arrivals = arrivals_from_gaps(&gaps);
        let cfg = EnsembleConfig { epoch: u64::MAX / 2, ..EnsembleConfig::default() };
        let delta0 = cfg.timeouts[0];
        let mut ens = EnsembleTimeout::new(cfg);
        let mut flow = ens.new_flow(arrivals[0]);
        let mut ens_samples = Vec::new();
        for &t in &arrivals[1..] {
            if let Some(s) = ens.on_packet(&mut flow, t) {
                ens_samples.push((t, s));
            }
        }
        let alg = FixedTimeout::new(delta0);
        let mut st = FlowTiming::first_packet(arrivals[0]);
        let mut fixed_samples = Vec::new();
        for &t in &arrivals[1..] {
            if let Some(s) = alg.on_packet(&mut st, t) {
                fixed_samples.push((t, s));
            }
        }
        prop_assert_eq!(ens_samples, fixed_samples);
    }

    /// Algorithm 2's epoch decision is the argmax cliff: under the
    /// paper's `ArgmaxRatio` rule, the chosen δₘ maximizes the
    /// (Laplace-smoothed) step ratio Nᵢ/Nᵢ₊₁ over the epoch's counts.
    /// The oracle counts are computed independently from the raw gaps —
    /// every instance shares `time_last_pkt`, so Nᵢ is just the number
    /// of consecutive gaps exceeding δᵢ.
    #[test]
    fn ensemble_decision_is_argmax_cliff(
        gaps in proptest::collection::vec(1u64..3_000_000, 20..200),
    ) {
        let arrivals = arrivals_from_gaps(&gaps);
        let cfg = EnsembleConfig::default();
        let timeouts = cfg.timeouts.clone();
        let k = timeouts.len();
        let counts: Vec<u64> = timeouts
            .iter()
            .map(|&d| arrivals.windows(2).filter(|w| w[1] - w[0] > d).count() as u64)
            .collect();
        let total: u64 = counts.iter().sum();
        if total < cfg.min_epoch_samples {
            // Not enough evidence for a decision (the stub proptest has
            // no prop_assume; skipping the case is equivalent here).
            return Ok(());
        }
        // Same smoothing and first-max tie-break as the implementation.
        let ratio = |i: usize| (counts[i] as f64 + 1.0) / (counts[i + 1] as f64 + 1.0);
        let mut expect = 0;
        for i in 1..k - 1 {
            if ratio(i) > ratio(expect) {
                expect = i;
            }
        }
        // One epoch containing every arrival, then a sentinel packet in
        // the next epoch to trigger the boundary decision.
        let epoch = arrivals.last().unwrap() + 1;
        let mut ens = EnsembleTimeout::new(EnsembleConfig {
            epoch,
            rule: CliffRule::ArgmaxRatio,
            ..cfg
        });
        let mut flow = ens.new_flow(arrivals[0]);
        for &t in &arrivals[1..] {
            let _ = ens.on_packet(&mut flow, t);
        }
        prop_assert_eq!(ens.epoch_counts(), &counts[..], "oracle count mismatch");
        let _ = ens.on_packet(&mut flow, epoch);
        let d = ens.decision().expect("boundary must decide");
        prop_assert_eq!(d.chosen, expect, "counts {:?}", &counts);
        prop_assert_eq!(d.delta, timeouts[expect]);
    }

    /// Maglev: shares track arbitrary weight vectors within 2 slots'
    /// resolution, and lookups stay in range.
    #[test]
    fn maglev_shares_track_weights(
        raw in proptest::collection::vec(1u32..1000, 2..8),
    ) {
        let weights: Vec<f64> = raw.iter().map(|&w| w as f64).collect();
        let total: f64 = weights.iter().sum();
        let table = MaglevTable::build(&weights, 4093);
        let shares = table.shares();
        for (w, s) in weights.iter().zip(&shares) {
            let expect = w / total;
            prop_assert!((s - expect).abs() < 0.03,
                "share {} for weight fraction {}", s, expect);
        }
        for h in 0..64u64 {
            prop_assert!(table.lookup(h.wrapping_mul(0x9e3779b97f4a7c15)) < weights.len());
        }
    }

    /// Maglev in place: a table repopulated by `rebuild` — over a
    /// sequence of weight vectors, backend counts included, on the one
    /// table — equals the reference population slot for slot, and so
    /// does a fresh `build`. Reused scratch must not leak between builds.
    #[test]
    fn maglev_rebuild_matches_reference_slot_for_slot(
        size_sel in 0usize..4,
        seq in proptest::collection::vec(
            proptest::collection::vec((0u8..7, 0.001f64..10.0), 1..11),
            1..6,
        ),
    ) {
        let size = [31usize, 251, 1021, 4093][size_sel];
        let mut reused: Option<MaglevTable> = None;
        for draws in &seq {
            let weights = maglev_weights(draws);
            let reference = reference_maglev(&weights, size);
            let built = MaglevTable::build(&weights, size);
            let table = match reused.as_mut() {
                Some(t) => {
                    t.rebuild(&weights);
                    t
                }
                None => reused.insert(built.clone()),
            };
            prop_assert_eq!(&*table, &built, "rebuild != build for {:?}", &weights);
            prop_assert_eq!(table.backends(), weights.len());
            for (slot, &b) in reference.iter().enumerate() {
                prop_assert_eq!(
                    table.lookup(slot as u64), b as usize,
                    "slot {} of {} for {:?}", slot, size, &weights
                );
            }
        }
    }

    /// Maglev on demand: a `LazyMaglev` read in random hash order,
    /// between resets to new weight vectors (backend counts included),
    /// answers every lookup with the reference population's slot; once
    /// every slot has been read it is the table `build` makes. Zero
    /// weights, one backend, and resets halfway through a population (or
    /// before any lookup) are all drawn.
    #[test]
    fn lazy_maglev_lookups_match_reference_in_any_order(
        size_sel in 0usize..4,
        seq in proptest::collection::vec(
            (
                proptest::collection::vec((0u8..7, 0.001f64..10.0), 1..11),
                0usize..3,
                any::<u64>(),
            ),
            1..6,
        ),
    ) {
        use netpkt::flow::splitmix64;
        let size = [31usize, 251, 1021, 4093][size_sel];
        let mut lazy: Option<LazyMaglev> = None;
        for (draws, reads, seed) in &seq {
            let weights = maglev_weights(draws);
            let reference = reference_maglev(&weights, size);
            let lazy = match lazy.as_mut() {
                Some(t) => {
                    t.reset(&weights);
                    t
                }
                None => lazy.insert(LazyMaglev::new(&weights, size)),
            };
            // 0: no lookup before the next reset; 1: a few random
            // hashes; 2: every slot, in an order set by a random stride
            // (the size is prime, so any stride visits them all), each
            // through a hash that is not the slot index itself.
            let lookups = match reads {
                0 => 0,
                1 => size / 8 + 1,
                _ => size,
            };
            let start = splitmix64(*seed) % size as u64;
            let stride = splitmix64(seed ^ 1) % (size as u64 - 1) + 1;
            for i in 0..lookups as u64 {
                let hash = if *reads == 1 {
                    splitmix64(seed.wrapping_add(i + 2))
                } else {
                    let slot = (start + i * stride) % size as u64;
                    slot + size as u64 * (splitmix64(seed ^ i) >> 40)
                };
                let slot = (hash % size as u64) as usize;
                prop_assert_eq!(
                    lazy.lookup(hash), reference[slot] as usize,
                    "slot {} of {} for {:?}", slot, size, &weights
                );
            }
            if *reads == 2 {
                prop_assert_eq!(lazy.filled(), size);
                let built = MaglevTable::build(&weights, size);
                prop_assert_eq!(lazy.complete(), Some(&built), "for {:?}", &weights);
            }
        }
    }

    /// The cached control signal equals the sort-on-read model after
    /// every sample of a random interleaved stream: latencies from a
    /// small set (ties, within and across backends), gaps that let
    /// estimates expire, both window modes, and the signal quantile
    /// changed after construction, mid-stream.
    #[test]
    fn estimator_cached_signal_matches_sort_on_read(
        n in 1usize..6,
        horizon_sel in 0u64..3,
        q_sel in (0usize..4, 0usize..4),
        switch_at in 0usize..120,
        stream in proptest::collection::vec((0usize..6, 1u64..6, 0u64..40), 1..120),
    ) {
        const MS: u64 = 1_000_000;
        let quantiles = [0.25, 0.5, 0.9, 1.0];
        let staleness = 20 * MS;
        let horizon = (horizon_sel > 0).then_some(horizon_sel * 8 * MS);
        let mut est = BackendEstimator::new(n, 0.2, staleness)
            .with_signal_quantile(quantiles[q_sel.0]);
        if let Some(h) = horizon {
            est = est.with_signal_horizon(h);
        }
        let mut model = EstimatorModel {
            samples: vec![Vec::new(); n],
            staleness,
            quantile: quantiles[q_sel.0],
            horizon,
        };
        let mut now = 0u64;
        for (i, &(b, lat, gap)) in stream.iter().enumerate() {
            if i == switch_at {
                est = est.with_signal_quantile(quantiles[q_sel.1]);
                model.quantile = quantiles[q_sel.1];
            }
            // Mostly sub-millisecond gaps, now and then a silence long
            // enough to expire horizons and freshness.
            now += if gap >= 38 { gap * MS } else { gap * 50_000 };
            let b = b % n;
            est.record(b, lat * 100_000, now);
            model.samples[b].push((now, lat * 100_000));
            for at in [now, now + 7 * MS, now + 19 * MS, now + 21 * MS] {
                for b in 0..n {
                    prop_assert_eq!(est.fresh_estimate(b, at), model.fresh_estimate(b, at));
                    prop_assert_eq!(est.best_other(b, at), model.best_other(b, at));
                }
                prop_assert_eq!(est.worst(at), model.worst(at));
            }
        }
    }

    /// Maglev consistency: growing one backend's weight by a small amount
    /// never remaps more than ~3x that fraction of slots.
    #[test]
    fn maglev_disruption_bounded(
        n in 2usize..6,
        bump_pct in 1u32..20,
    ) {
        let before = vec![1.0; n];
        let mut after = before.clone();
        after[0] *= 1.0 + bump_pct as f64 / 100.0;
        let a = MaglevTable::build(&before, 4093);
        let b = MaglevTable::build(&after, 4093);
        let moved = a.slots_changed(&b) as f64 / a.len() as f64;
        // The weight-share change of backend 0.
        let share_delta = after[0] / after.iter().sum::<f64>() - 1.0 / n as f64;
        prop_assert!(moved <= 3.0 * share_delta + 0.02,
            "moved {} for share delta {}", moved, share_delta);
    }

    /// Weights invariants under arbitrary operation sequences, under
    /// *every* ejection subset: the mask stays as installed, ejected
    /// shares stay at exactly 0.0, survivors ≥ floor, sum 1 — whatever
    /// `shift_from` / `scale` (factors above 1 included) / `remap` / `set`
    /// are asked for, ejected backends included. Installing the
    /// all-ejected mask refuses without touching shares or mask.
    #[test]
    fn weights_invariants_under_random_ops(
        n in 2usize..6,
        ops in proptest::collection::vec((0u8..4, 0usize..8, 0.0f64..0.5), 1..40),
    ) {
        for mask in ejection_masks(n) {
            let mut w = Weights::equal(n, 0.01);
            let installed = w.eject(|b, w| (!mask[b]).then_some(w));
            if mask.iter().all(|&e| e) {
                prop_assert!(!installed, "all-ejected mask was installed");
                prop_assert_eq!(&w, &Weights::equal(n, 0.01), "refused install mutated");
                continue;
            }
            prop_assert!(installed);
            check_weights(&w, &mask, "eject")?;
            for &(op, idx, x) in &ops {
                let i = idx % n;
                match op {
                    0 => { w.shift_from(i, x.min(0.49)); }
                    1 => w.scale(i, 8.0 * x),
                    2 => { w.remap(x / 10.0, |j, w| if j == i { w + x } else { w * w }); }
                    _ => {
                        let target: Vec<f64> = (0..n).map(|j| if j == i { 1.0 + x } else { 1.0 }).collect();
                        w.set(&target);
                    }
                }
                check_weights(&w, &mask, ["shift_from", "scale", "remap", "set"][op as usize])?;
            }
        }
    }

    /// "Returned `false`" means "shares untouched, bit for bit", for
    /// every controller: random estimates and call times (inside and
    /// outside the pacing interval, fresh and stale), from random
    /// starting shares, under an ejection mask or none.
    #[test]
    fn a_controller_that_returns_false_touched_nothing(
        n in 2usize..5,
        start in proptest::collection::vec(0.0f64..10.0, 5..6),
        mask_bits in 0u32..15,
        steps in proptest::collection::vec((0usize..5, 1u64..40, 0u64..30), 1..60),
    ) {
        const MS: u64 = 1_000_000;
        let controllers: Vec<Box<dyn Controller>> = vec![
            Box::new(AlphaShift::damped()),
            Box::new(AlphaShift::paper()),
            Box::new(AimdController::new()),
            Box::new(ProportionalController::new(1.0)),
        ];
        let mask: Vec<bool> = (0..n).map(|b| mask_bits & (1 << b) != 0).collect();
        for mut ctl in controllers {
            let mut w = Weights::equal(n, 0.02);
            if !w.eject(|b, _| (!mask[b]).then_some(start[b])) {
                w.set(&start[..n]);
            }
            let mask = w.ejected().to_vec();
            let mut est = BackendEstimator::new(n, 0.2, 20 * MS);
            let mut now = 0u64;
            for &(b, lat, gap) in &steps {
                now += gap * MS / 4;
                est.record(b % n, lat * 100_000, now);
                let before = bits(&w);
                if !ctl.maybe_update(now, &est, &mut w) {
                    prop_assert_eq!(bits(&w), before, "{} returned false but moved", ctl.name());
                }
                check_weights(&w, &mask, ctl.name())?;
            }
        }
    }

    /// Flow-table affinity invariant: under arbitrary insert/touch/
    /// remove/sweep sequences that never approach capacity, every flow
    /// the shadow model says is live is present and still pinned to the
    /// backend of its *first* insert (affinity never silently changes),
    /// and no removed/expired flow lingers.
    #[test]
    fn flow_table_affinity_under_random_ops(
        ops in proptest::collection::vec(flow_op(), 1..120),
    ) {
        // Capacity 128 > 64 possible ports: eviction can never fire, so
        // the shadow model is exact.
        let (mut t, model) = replay_flow_ops(&ops, 128);
        prop_assert_eq!(t.stats.evicted, 0);
        for port in 1u16..64 {
            match (model[port as usize], t.get_mut(&flow_key(port))) {
                (Some(backend), Some(e)) => prop_assert_eq!(
                    e.backend, backend,
                    "port {} affinity moved", port
                ),
                (None, None) => {}
                (Some(_), None) => prop_assert!(false, "live flow {} lost", port),
                (None, Some(_)) => prop_assert!(false, "dead flow {} lingers", port),
            }
        }
    }

    /// Determinism of the whole table (eviction included): replaying the
    /// identical op sequence — this time against a small capacity so the
    /// probe-window eviction path fires — yields identical tables.
    #[test]
    fn flow_table_state_is_a_pure_function_of_ops(
        ops in proptest::collection::vec(flow_op(), 1..120),
    ) {
        let (mut a, _) = replay_flow_ops(&ops, 8);
        let (mut b, _) = replay_flow_ops(&ops, 8);
        prop_assert_eq!(a.len(), b.len());
        prop_assert_eq!(a.stats.inserted, b.stats.inserted);
        prop_assert_eq!(a.stats.evicted, b.stats.evicted);
        prop_assert_eq!(a.stats.expired, b.stats.expired);
        for port in 1u16..64 {
            let ea = a.get_mut(&flow_key(port)).map(|e| (e.backend, e.last_seen, e.packets));
            let eb = b.get_mut(&flow_key(port)).map(|e| (e.backend, e.last_seen, e.packets));
            prop_assert_eq!(ea, eb, "tables diverged at port {}", port);
        }
    }

    /// Installing a mask with reshaped shares, for *every* ejection subset
    /// of arbitrary weight vectors: survivors sum to 1 and respect the
    /// floor, ejected backends get exactly 0.0, and the all-ejected case
    /// reports failure without touching shares or mask — never a panic or
    /// a division by zero.
    #[test]
    fn ejection_renormalization_for_every_subset(
        raw in proptest::collection::vec(0.0f64..10.0, 2..7),
    ) {
        let n = raw.len();
        for mask in ejection_masks(n) {
            let mut w = Weights::equal(n, 0.02);
            let ok = w.eject(|b, _| (!mask[b]).then_some(raw[b]));
            let survivors = mask.iter().filter(|&&e| !e).count();
            prop_assert_eq!(ok, survivors > 0, "wrong verdict for mask {:?}", mask);
            if ok {
                check_weights(&w, &mask, "eject")?;
            } else {
                prop_assert_eq!(&w, &Weights::equal(n, 0.02), "refused install mutated");
            }
        }
    }

    /// Gossip merge, for *every* ejection subset of arbitrary local and
    /// peer vectors: the merged weights stay normalized (sum 1), ejected
    /// backends stay at exactly 0.0, survivors respect the floor, and a
    /// merge that returns `false` leaves the shares bit-identical — the
    /// invariant the multi-LB tier relies on when shards exchange learned
    /// weights while disagreeing about backend health. (A vector with
    /// every backend ejected cannot exist: the install refuses.)
    #[test]
    fn gossip_merge_normalized_for_every_ejection_subset(
        local_raw in proptest::collection::vec(0.0f64..10.0, 2..6),
        peer_a in proptest::collection::vec(0.0f64..10.0, 2..6),
        peer_b in proptest::collection::vec(0.0f64..10.0, 2..6),
        mix_pct in 0u32..=100,
    ) {
        let n = local_raw.len();
        let mix = mix_pct as f64 / 100.0;
        for mask in ejection_masks(n) {
            let mut w = Weights::equal(n, 0.02);
            if !w.eject(|b, _| (!mask[b]).then_some(local_raw[b])) {
                continue;
            }
            let before = bits(&w);
            // Peers of the wrong length must be skipped, not merged.
            let peers: Vec<&[f64]> = vec![&peer_a, &peer_b];
            let changed = lbcore::merge_weights(&mut w, &peers, mix);
            let usable_peers = peers.iter().filter(|p| p.len() == n).count();
            if usable_peers == 0 || mix == 0.0 {
                prop_assert!(!changed, "merge claimed change for mask {:?}", mask);
            }
            if !changed {
                prop_assert_eq!(bits(&w), before, "merge returned false but moved");
            }
            check_weights(&w, &mask, "merge")?;
        }
    }

    /// The flat-head rule never selects a timeout with zero samples while
    /// a nonzero-count timeout exists below it.
    #[test]
    fn flathead_never_picks_dead_timeout(
        gaps in proptest::collection::vec(1u64..3_000_000, 50..400),
    ) {
        let arrivals = arrivals_from_gaps(&gaps);
        let cfg = EnsembleConfig {
            epoch: 10_000_000, // 10 ms epochs → several decisions
            rule: CliffRule::FlatHead { rho: 1.5 },
            ..EnsembleConfig::default()
        };
        let mut ens = EnsembleTimeout::new(cfg);
        let mut flow = ens.new_flow(arrivals[0]);
        for &t in &arrivals[1..] {
            let _ = ens.on_packet(&mut flow, t);
            // All decisions must point at one of the configured timeouts.
            if let Some(d) = ens.decision() {
                prop_assert!(d.chosen < ens.k());
            }
        }
    }
}
