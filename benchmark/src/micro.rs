//! Direct call-timing drivers for the layers the wrappers cannot reach:
//! `lbcore`, `netpkt` and `telemetry` are called from inside `LbNode` and
//! `Host`, so their cost is timed here in isolation, sized by the
//! workload's flow and backend counts (in the style of the repo's
//! `crates/bench/benches/fastpath.rs`).

use std::hint::black_box;
use std::net::Ipv4Addr;

use lbcore::{
    AlphaShift, BackendEstimator, Controller, EnsembleConfig, EnsembleTimeout, FlowTable,
    MaglevTable, Weights,
};
use netpkt::flow::splitmix64;
use netpkt::pool::BufferPool;
use netpkt::{Addresses, FlowKey, MacAddr, Packet, TcpFlags, TcpHeader};
use telemetry::span::{HopKind, HopRecord};
use telemetry::{Journal, JournalEvent, JournalMode, SpanLog, SpanMode};

use crate::host::now_ns;
use crate::stats::Quartiles;
use crate::topo::{Spec, KV_PORT, VIP};

/// Calls per timed batch; each driver reports the median of [`BATCHES`].
const CALLS: u64 = 200_000;
const BATCHES: usize = 5;

/// Median nanoseconds per call of `f` over [`BATCHES`] batches.
fn ns_per_call(calls: u64, mut f: impl FnMut(u64)) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = now_ns();
            for i in 0..calls {
                f(i);
            }
            (now_ns() - t0) as f64 / calls as f64
        })
        .collect();
    Quartiles::of(&batches).median
}

fn flow_key(i: u64) -> FlowKey {
    FlowKey::new(
        Ipv4Addr::new(10, 0, (i >> 16) as u8, (i >> 8) as u8),
        33_000 + (i % 256) as u16,
        VIP,
        KV_PORT,
    )
}

fn addresses() -> Addresses {
    Addresses {
        src_mac: MacAddr::from_id(1),
        dst_mac: MacAddr::from_id(2),
        src_ip: Ipv4Addr::new(10, 0, 0, 1),
        dst_ip: VIP,
    }
}

const REQUEST_HEADER: TcpHeader = TcpHeader {
    src_port: 33_000,
    dst_port: KV_PORT,
    seq: 1,
    ack: 2,
    flags: TcpFlags::ACK,
    window: 8192,
};

/// The micro-driver results, named as the per-layer metrics they feed.
#[derive(Debug, Clone, PartialEq)]
pub struct Micro {
    pub maglev_lookup_ns: f64,
    pub maglev_build_us: f64,
    pub flow_hit_ns: f64,
    pub flow_insert_ns: f64,
    pub ensemble_ns_per_pkt: f64,
    pub controller_ns_per_update: f64,
    pub parse_ns: f64,
    pub build_ns: f64,
    pub journal_ns_per_event: f64,
    pub span_ns_per_hop: f64,
}

pub fn run(spec: &Spec) -> Micro {
    let n = spec.backends;
    let flows = spec.conns() as u64;
    let table_size = lbcore::maglev::DEFAULT_TABLE_SIZE;
    let weights: Vec<f64> = (0..n).map(|b| 1.0 + b as f64 / n as f64).collect();

    let table = MaglevTable::build(&weights, table_size);
    let mut h = 0u64;
    let maglev_lookup_ns = ns_per_call(CALLS, |_| {
        h = splitmix64(h);
        black_box(table.lookup(black_box(h)));
    });
    let maglev_build_us = ns_per_call(50, |_| {
        black_box(MaglevTable::build(black_box(&weights), table_size));
    }) / 1e3;

    let ensemble = EnsembleTimeout::new(EnsembleConfig::robust());
    let mut flow_table = FlowTable::new(u64::MAX);
    for i in 0..flows {
        flow_table.insert(
            flow_key(i),
            (i % n as u64) as usize,
            ensemble.new_flow(0),
            0,
        );
    }
    let flow_hit_ns = ns_per_call(CALLS, |i| {
        black_box(
            flow_table
                .get_mut(black_box(&flow_key(i % flows)))
                .is_some(),
        );
    });
    // Insert into a table already holding the workload's flows, then take
    // the newcomer out again so the table stays at the workload's size.
    let flow_insert_ns = ns_per_call(CALLS, |i| {
        let key = flow_key(flows + i % 4096);
        flow_table.insert(key, 0, ensemble.new_flow(i), i);
        flow_table.remove(&key);
    });

    let mut ens = EnsembleTimeout::new(EnsembleConfig::robust());
    let mut state = ens.new_flow(0);
    let mut now = 0u64;
    let ensemble_ns_per_pkt = ns_per_call(CALLS, |_| {
        now += 300_000;
        black_box(ens.on_packet(&mut state, black_box(now)));
    });

    // One estimate and one controller decision per call; the slow backend
    // rotates so the controller keeps finding mass to move.
    let mut estimator = BackendEstimator::new(n, 0.2, u64::MAX);
    let mut controller = AlphaShift::paper();
    let mut w = Weights::equal(n, 0.02);
    let controller_ns_per_update = ns_per_call(CALLS, |i| {
        let b = (i % n as u64) as usize;
        let slow = (i / 64) % n as u64 == b as u64;
        estimator.record(b, if slow { 1_300_000 } else { 250_000 }, i * 1000);
        black_box(controller.maybe_update(i * 1000, &estimator, &mut w));
    });

    let pkt = Packet::build_tcp(addresses(), &REQUEST_HEADER, &[0u8; 64], 64, 7);
    let parse_ns = ns_per_call(CALLS, |_| {
        black_box(FlowKey::parse_with_flags(black_box(&pkt.data)).is_ok());
    });
    let mut pool = BufferPool::default();
    let build_ns = ns_per_call(CALLS, |i| {
        let built = Packet::build_tcp_pooled(
            addresses(),
            &REQUEST_HEADER,
            &[0u8; 64],
            64,
            i as u16,
            &mut pool,
        );
        pool.recycle(black_box(built));
    });

    let mut journal = Journal::new(JournalMode::Full(BATCHES * CALLS as usize));
    let journal_ns_per_event = ns_per_call(CALLS, |i| {
        journal.push(JournalEvent::Sample {
            at: i,
            backend: 0,
            src_ip: 0x0a00_0001,
            src_port: 33_000,
            delta: 64_000,
            t_lb: 250_000,
        });
    });
    black_box(journal.len());
    let mut span_log = SpanLog::new(SpanMode::Full(BATCHES * CALLS as usize));
    let span_ns_per_hop = ns_per_call(CALLS, |i| {
        span_log.record(HopRecord {
            at: i,
            trace: i | 1,
            kind: HopKind::LbForward,
            node: 1,
            a: 0,
            b: 118,
        });
    });
    black_box(span_log.len());

    Micro {
        maglev_lookup_ns,
        maglev_build_us,
        flow_hit_ns,
        flow_insert_ns,
        ensemble_ns_per_pkt,
        controller_ns_per_update,
        parse_ns,
        build_ns,
        journal_ns_per_event,
        span_ns_per_hop,
    }
}
