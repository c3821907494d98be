//! Build a topology from scratch with the low-level API — no scenario
//! helpers — to show how the pieces compose: simulator, hosts, router,
//! LB, servers, and apps.
//!
//! Topology (a 3-backend DSR cluster):
//!
//! ```text
//!   client ── router ──► LB ──► backend_j     (requests, via the LB)
//!      ▲         │
//!      └─────────┴◄──── backend_j             (responses, bypassing the LB)
//! ```
//!
//! Run with: `cargo run --release --example build_a_topology`

use std::net::Ipv4Addr;

use backend::{KvServerApp, KvServerConfig, ServiceDist};
use lb_dataplane::{LbConfig, LbNode};
use lbcore::AlphaShift;
use netpkt::MacAddr;
use netsim::router::Router;
use netsim::{Duration, LinkConfig, Simulation};
use nettcp::{Host, HostConfig};
use workload::{MemtierClient, MemtierConfig};

const VIP: Ipv4Addr = Ipv4Addr::new(10, 99, 0, 1);

fn main() {
    let mut sim = Simulation::new();
    let link = LinkConfig::new(10_000_000_000, Duration::from_micros(15), 1 << 20);

    // Reserve the router and LB so links can reference them.
    let router_id = sim.reserve_node("router");
    let lb_id = sim.reserve_node("lb");
    let mut router = Router::new();

    // The LB's arm: client→VIP traffic is routed here.
    let lb_arm = sim.add_link(router_id, lb_id, link);
    router.add_route(VIP, lb_arm);

    // Three backends, each with a forwarding link (LB→backend) and a
    // return link (backend→router) for Direct Server Return.
    let mut backend_ips = Vec::new();
    let mut fwd_links = Vec::new();
    for j in 0..3u8 {
        let ip = Ipv4Addr::new(10, 0, 2, 1 + j);
        let node = sim.reserve_node(format!("backend-{j}"));
        let fwd = sim.add_link(lb_id, node, link);
        let ret = sim.add_link(router_id, node, link);
        router.add_route(ip, ret);

        let mut host_cfg = HostConfig::new(ip, 100 + j as u64);
        host_cfg.extra_ips.push(VIP); // the VIP lives on every backend's loopback
        let server = KvServerApp::new(KvServerConfig {
            // Give each backend a different speed so the weights diverge.
            service: ServiceDist::Constant(40_000 * (1 + j as u64)),
            ..KvServerConfig::default()
        });
        sim.install_node(
            node,
            Box::new(Host::new(
                host_cfg,
                MacAddr::from_id(0xb0 + j as u32),
                ret,
                Box::new(server),
            )),
        );
        backend_ips.push(ip);
        fwd_links.push(fwd);
    }

    // The load balancer: latency-aware, paper's α-shift controller.
    let lb_cfg = LbConfig::latency_aware(VIP, backend_ips, Box::new(AlphaShift::damped()));
    sim.install_node(
        lb_id,
        Box::new(LbNode::new(lb_cfg, MacAddr::from_id(0xff), fwd_links)),
    );

    // One client host running 12 closed-loop connections.
    let client_ip = Ipv4Addr::new(10, 0, 0, 1);
    let client_id = sim.reserve_node("client");
    let access = sim.add_link(router_id, client_id, link);
    router.add_route(client_ip, access);
    let client = MemtierClient::new(MemtierConfig {
        vip: VIP,
        connections: 12,
        pipeline: 1,
        requests_per_conn: 100,
        ..MemtierConfig::default()
    });
    sim.install_node(
        client_id,
        Box::new(Host::new(
            HostConfig::new(client_ip, 7),
            MacAddr::from_id(0xc0),
            access,
            Box::new(client),
        )),
    );

    sim.install_node(router_id, Box::new(router));

    // Run 10 simulated seconds.
    sim.run_for(Duration::from_secs(10));

    // Harvest results.
    let lb = sim.node_ref::<LbNode>(lb_id).expect("lb node");
    println!("after 10s, the LB weighted the backends:");
    for (j, w) in lb.weights().as_slice().iter().enumerate() {
        let est = lb.estimator().backend(j);
        println!(
            "  backend {j}: weight {:.2}  measured latency (p95) {:.0} us  [{} samples]",
            w,
            est.windowed_quantile(0.95).unwrap_or(0.0) / 1e3,
            est.samples(),
        );
    }
    let client = sim
        .node_ref::<Host>(client_id)
        .unwrap()
        .app_ref::<MemtierClient>()
        .unwrap();
    println!(
        "client completed {} requests; GET p95 = {:.0} us",
        client.recorder.responses,
        client.recorder.get_series.merged().quantile(0.95) as f64 / 1e3,
    );
    println!("(faster backends should hold more weight)");
}
