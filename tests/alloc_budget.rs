//! Tier-1 allocation budget: in steady state a request allocates nothing.
//!
//! The Fig. 3 cluster runs 100 ms to warm up (connections open, buffers
//! and the packet pool grow to their working size), then the next 200 ms
//! are counted: allocator calls ÷ requests completed must stay under 0.08.
//! Every 200th request closes its connection and opens a fresh one, and a
//! new connection is built over the buffers the closed one left (its
//! send and host queues, the client's tracker, the server's decoder), so
//! what is left at ≈ 0.054 is `BTreeMap` node churn in the per-connection
//! maps and first-use growth. Before connection state was recycled it was
//! ≈ 0.12; before the send queue, the KV codec and the pool stopped
//! allocating per segment, message and frame, it was ≈ 20.
//!
//! A binary of its own with a single test: the counting allocator is
//! process-wide, so nothing else may run beside the measured region.

use bench::alloc::{alloc_snapshot, CountingAlloc};
use experiments::topology::VIP;
use experiments::{KvCluster, KvClusterConfig};
use lb_dataplane::LbConfig;
use lbcore::AlphaShift;
use netsim::Duration;

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

const BUDGET_ALLOCS_PER_REQUEST: f64 = 0.08;

#[test]
fn a_steady_state_request_stays_inside_the_allocation_budget() {
    let mut cluster = KvCluster::build(KvClusterConfig::fig3_defaults(|backends| {
        LbConfig::latency_aware(VIP, backends, Box::new(AlphaShift::damped()))
    }));
    cluster.sim.run_for(Duration::from_millis(100));
    let (allocs_before, _) = alloc_snapshot();
    let completed_before = cluster.client_app(0).stats.completed;
    assert!(allocs_before > 0, "the counting allocator is not installed");

    cluster.sim.run_for(Duration::from_millis(200));
    let allocs = alloc_snapshot().0 - allocs_before;
    let requests = cluster.client_app(0).stats.completed - completed_before;

    assert!(requests > 10_000, "only {requests} requests in 200 ms");
    let per_request = allocs as f64 / requests as f64;
    assert!(
        per_request <= BUDGET_ALLOCS_PER_REQUEST,
        "{allocs} allocations for {requests} requests = {per_request:.3} per request \
         (budget {BUDGET_ALLOCS_PER_REQUEST})"
    );
}
