//! Automatic scenario shrinking.
//!
//! When a seed violates an invariant, the raw scenario is rarely the
//! story: most of its faults, clients, and horizon are bystanders. The
//! minimizer repeatedly tries a fixed list of simplification candidates
//! — drop a fault, drop an injection, disable gossip, halve backends,
//! halve the tier, halve clients, turn churn off, shrink the horizon —
//! keeping a candidate only when the *original* violation still
//! reproduces, and stops at a fixpoint. Every accepted candidate
//! strictly decreases a bounded integer measure of the scenario, so
//! termination is structural, not a retry budget.
//!
//! The reproduction predicate is injected, which keeps the shrink logic
//! a pure, unit-testable function; [`minimize`] wires it to the live
//! runner.

use crate::runner::check;
use crate::scenario::Scenario;

/// Floor for the shrunken horizon: long enough for the health machinery
/// (300 ms detection + probation) to act at all.
const MIN_DURATION_MS: u32 = 600;

/// Shrinks `sc` while `repro` keeps returning true, to a fixpoint.
/// `repro` is never called on a structurally invalid scenario.
pub fn minimize_with<F>(sc: &Scenario, mut repro: F) -> Scenario
where
    F: FnMut(&Scenario) -> bool,
{
    let mut current = sc.clone();
    loop {
        let mut progressed = false;
        for candidate in candidates(&current) {
            debug_assert!(candidate.validate().is_ok());
            if repro(&candidate) {
                current = candidate;
                progressed = true;
                break;
            }
        }
        if !progressed {
            return current;
        }
    }
}

/// Minimizes a violating scenario against the live invariant suite: a
/// candidate counts as reproducing when it violates at least one of the
/// invariants the *original* scenario violated (not merely any
/// invariant — shrinking must not wander onto a different bug).
///
/// Returns `None` when `sc` does not violate anything to begin with.
pub fn minimize(sc: &Scenario) -> Option<(Scenario, Vec<&'static str>)> {
    let original = check(sc);
    let target = original.violated_invariants();
    if target.is_empty() {
        return None;
    }
    let minimized = minimize_with(sc, |candidate| {
        check(candidate)
            .violated_invariants()
            .iter()
            .any(|name| target.contains(name))
    });
    let final_names = check(&minimized).violated_invariants();
    Some((minimized, final_names))
}

/// The candidate list for one shrink step, in fixed priority order
/// (cheapest structural cuts first). Every candidate is valid and
/// strictly smaller than `sc` under the measure
/// `(faults, injections, gossip_on, backends, lbs, connections,
/// churn_on, pipeline, duration)`.
fn candidates(sc: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();

    // Drop one fault at a time.
    for i in 0..sc.faults.len() {
        let mut c = sc.clone();
        c.faults.remove(i);
        out.push(c);
    }
    // Drop one injection at a time.
    for i in 0..sc.injections.len() {
        let mut c = sc.clone();
        c.injections.remove(i);
        out.push(c);
    }
    // Disable gossip.
    if sc.gossip_period_ms > 0 {
        let mut c = sc.clone();
        c.gossip_period_ms = 0;
        c.gossip_mix_pct = 0;
        out.push(c);
    }
    // Halve the backend pool (keep at least two), dropping faults and
    // injections that referenced removed backends.
    if sc.backends.len() > 2 {
        let keep = (sc.backends.len() / 2).max(2);
        let mut c = sc.clone();
        c.backends.truncate(keep);
        retain_in_range(&mut c);
        out.push(c);
    }
    // Halve the LB tier (keep at least one), dropping faults on removed
    // LBs; a tier of one cannot gossip.
    if sc.lbs > 1 {
        let keep = (sc.lbs / 2).max(1);
        let mut c = sc.clone();
        c.lbs = keep;
        if keep == 1 {
            c.gossip_period_ms = 0;
            c.gossip_mix_pct = 0;
        }
        retain_in_range(&mut c);
        out.push(c);
    }
    // Halve the client load (keep at least two connections).
    if sc.connections > 2 {
        let mut c = sc.clone();
        c.connections = (sc.connections / 2).max(2);
        out.push(c);
    }
    // Turn connection churn off.
    if sc.requests_per_conn > 0 {
        let mut c = sc.clone();
        c.requests_per_conn = 0;
        out.push(c);
    }
    // Collapse pipelining.
    if sc.pipeline > 1 {
        let mut c = sc.clone();
        c.pipeline = 1;
        out.push(c);
    }
    // Halve the horizon (floored), dropping faults and injections that
    // could no longer fire.
    if sc.duration_ms / 2 >= MIN_DURATION_MS {
        let mut c = sc.clone();
        c.duration_ms = sc.duration_ms / 2;
        let horizon = c.duration_ms;
        c.faults.retain(|f| f.from_ms < horizon);
        c.injections.retain(|inj| inj.at_ms < horizon);
        out.push(c);
    }

    out
}

/// Drops faults and injections whose LB or backend index fell out of
/// range after a topology cut.
fn retain_in_range(sc: &mut Scenario) {
    let (lbs, backends) = (sc.lbs, sc.backends.len() as u32);
    sc.faults
        .retain(|f| f.backend < backends && f.mode.lb().into_iter().all(|lb| lb < lbs));
    sc.injections.retain(|inj| inj.backend < backends);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{FaultMode, FaultSpec, Injection};

    /// A busy scenario to shrink from.
    fn busy() -> Scenario {
        let mut sc = Scenario::generate(11);
        sc.lbs = 4;
        sc.backends = (0..5)
            .map(|i| crate::scenario::BackendSpec {
                median_us: 60 + 20 * i,
                sigma_pct: 30,
                workers: 4,
            })
            .collect();
        sc.connections = 24;
        sc.pipeline = 2;
        sc.requests_per_conn = 200;
        sc.duration_ms = 1600;
        sc.gossip_period_ms = 50;
        sc.gossip_mix_pct = 40;
        sc.faults = vec![
            FaultSpec {
                backend: 0,
                from_ms: 300,
                until_ms: 700,
                mode: FaultMode::Crash,
            },
            FaultSpec {
                backend: 4,
                from_ms: 400,
                until_ms: 600,
                mode: FaultMode::Flap { lb: 3 },
            },
        ];
        sc.injections = vec![Injection {
            backend: 1,
            at_ms: 500,
            extra_us: 1000,
        }];
        sc.validate().unwrap();
        sc
    }

    #[test]
    fn always_true_predicate_shrinks_to_the_structural_floor() {
        let min = minimize_with(&busy(), |_| true);
        assert!(min.faults.is_empty());
        assert!(min.injections.is_empty());
        assert_eq!(min.gossip_period_ms, 0);
        assert_eq!(min.backends.len(), 2);
        assert_eq!(min.lbs, 1);
        assert_eq!(min.connections, 2);
        assert_eq!(min.requests_per_conn, 0);
        assert_eq!(min.pipeline, 1);
        assert!(min.duration_ms >= MIN_DURATION_MS);
        assert!(min.duration_ms < 1200);
        min.validate().unwrap();
    }

    #[test]
    fn always_false_predicate_changes_nothing() {
        let sc = busy();
        assert_eq!(minimize_with(&sc, |_| false), sc);
    }

    #[test]
    fn predicate_pinning_the_crash_keeps_the_crash_and_sheds_the_rest() {
        let needs_crash = |c: &Scenario| {
            c.faults
                .iter()
                .any(|f| f.backend == 0 && matches!(f.mode, FaultMode::Crash))
        };
        let min = minimize_with(&busy(), needs_crash);
        assert!(needs_crash(&min), "minimizer lost the reproducing fault");
        assert_eq!(min.faults.len(), 1, "bystander faults survived");
        assert!(min.injections.is_empty());
        assert_eq!(min.lbs, 1);
        assert_eq!(min.backends.len(), 2);
        min.validate().unwrap();
    }

    #[test]
    fn predicate_needing_the_tier_keeps_multiple_lbs() {
        let min = minimize_with(&busy(), |c| c.lbs >= 2);
        assert_eq!(min.lbs, 2);
        min.validate().unwrap();
    }

    #[test]
    fn every_candidate_is_valid_everywhere_along_the_way() {
        // The predicate records and validates every candidate it sees.
        let mut seen = 0u32;
        let _ = minimize_with(&busy(), |c| {
            c.validate().unwrap();
            seen += 1;
            seen.is_multiple_of(3) // accept an arbitrary deterministic subset
        });
        assert!(seen > 10);
    }

    #[test]
    fn horizon_cut_drops_late_faults() {
        let mut sc = busy();
        sc.duration_ms = 1600;
        sc.faults.push(FaultSpec {
            backend: 1,
            from_ms: 1500,
            until_ms: 1900,
            mode: FaultMode::Crash,
        });
        sc.validate().unwrap();
        // Only accept horizon cuts (reject everything that still has a
        // late fault at full length), then confirm the late fault died
        // with the horizon.
        let min = minimize_with(&sc, |c| c.duration_ms <= 800);
        assert!(min.duration_ms <= 800);
        assert!(min.faults.iter().all(|f| f.from_ms < min.duration_ms));
        min.validate().unwrap();
    }
}
