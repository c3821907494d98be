//! Plug a custom feedback controller into the LB.
//!
//! The `lbcore::Controller` trait is the extension point the paper's §5(4)
//! asks the community to explore. This example implements a "two-level"
//! controller — an aggressive shift when the latency gap is large, a
//! gentle one otherwise — and runs it head-to-head against the paper's
//! fixed α = 10% shift on the Fig. 3 scenario.
//!
//! Run with: `cargo run --release --example custom_controller`

use experiments::fig3::Fig3Config;
use experiments::kv::{reaction, KvCluster, KvClusterConfig};
use experiments::topology::VIP;
use lb_dataplane::LbConfig;
use lbcore::{AlphaShift, BackendEstimator, Controller, Weights};
use netsim::Duration;
use telemetry::exact_percentile;

/// Shift 30% when the worst backend is ≥ 3x slower than the best other,
/// 5% when it is merely ≥ 1.2x slower.
struct TwoLevelShift {
    last_action: Option<u64>,
}

impl Controller for TwoLevelShift {
    fn maybe_update(&mut self, now: u64, est: &BackendEstimator, weights: &mut Weights) -> bool {
        // At most one action per millisecond.
        if let Some(last) = self.last_action {
            if now - last < 1_000_000 {
                return false;
            }
        }
        let Some((worst, worst_lat)) = est.worst(now) else {
            return false;
        };
        let Some(best) = est.best_other(worst, now) else {
            return false;
        };
        let alpha = if worst_lat >= 3.0 * best {
            0.30
        } else if worst_lat >= 1.2 * best {
            0.05
        } else {
            return false;
        };
        let moved = weights.shift_from(worst, alpha);
        if moved > 0.0 {
            self.last_action = Some(now);
            true
        } else {
            false
        }
    }

    fn name(&self) -> &'static str {
        "two-level"
    }
}

fn run(name: &str, make: impl Fn() -> Box<dyn Controller> + 'static) {
    // The Fig. 3 timeline, 1 ms injected at t = 4 s of 12 s, with every
    // LB built around a fresh controller from `make`.
    let cfg = Fig3Config {
        duration: Duration::from_secs(12),
        inject_at: Duration::from_secs(4),
        ..Fig3Config::default()
    };
    let mut cluster = KvCluster::build(KvClusterConfig {
        lb: Box::new(move |backends| LbConfig::latency_aware(VIP, backends, make())),
        ..cfg.cluster(true)
    });
    cluster.run(&cfg.timeline());

    let inject_ns = cfg.inject_at.as_nanos();
    let rec = &cluster.client_app(0).recorder;
    let after: Vec<u64> = rec
        .raw()
        .iter()
        .filter(|&&(t, _, g)| g && t >= inject_ns)
        .map(|&(_, l, _)| l)
        .collect();
    let lb = cluster.lb_node(0);
    let reaction = reaction(&[lb.weight_series(0)], inject_ns, 0.5)
        .map(|r| format!("{:.2} ms", (r.instant(inject_ns) - inject_ns) as f64 / 1e6))
        .unwrap_or_else(|| "never".into());
    println!(
        "  {name:<12}  post-injection p95 = {:>7.1} us   reaction = {reaction:<9}  rebuilds = {}",
        exact_percentile(&after, 0.95).unwrap_or(0) as f64 / 1e3,
        lb.stats().table_rebuilds,
    );
}

fn main() {
    println!("custom controller vs the paper's alpha-shift (1ms injected at t=4s):\n");
    run("alpha-shift", || Box::new(AlphaShift::damped()));
    run("two-level", || {
        Box::new(TwoLevelShift { last_action: None })
    });
}
