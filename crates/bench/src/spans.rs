//! `lbtrace` span analytics: per-request tree rendering, the aggregate
//! critical-path decomposition, and the T_LB estimator error budget.
//!
//! A span capture (see `telemetry::span`) is the ground-truth causal
//! record of every traced request: who issued it, how it crossed the LB,
//! where it queued, when the response reached the client. This module
//! turns a capture into the three `lbtrace` answers:
//!
//! * [`SpanCapture::render_span`] — one request's hop tree, indented by
//!   causal layer (client → LB → backend → transport/link detail).
//! * [`critical_path_table`] — the aggregate decomposition: for each of
//!   the six critical-path segments, count/mean plus p50/p95/p99 via the
//!   shared percentile machinery.
//! * [`error_budget`] / [`error_budget_table`] — join journaled T_LB
//!   samples against span ground truth per flow, attribute each sample
//!   to the request whose response triggered it, and decompose the
//!   estimator's error by segment.
//!
//! ## The error-budget join
//!
//! A journal `sample` event carries the flow key `(src_ip, src_port)`
//! and the instant `at` the LB took the measurement — which is when the
//! *next* causally-triggered client packet arrived, necessarily after
//! the measured response reached the client. The join therefore
//! attributes each sample to the flow's latest critical path with
//! `completed_at <= at`. The estimator's target is the LB-visible
//! response loop, whose span ground truth is
//! `lb_to_backend + backend_queue + backend_service + reverse_net`;
//! the signed residual `t_lb - truth` is the error being budgeted —
//! positive residual is time the estimator attributed to the backend
//! that was actually spent elsewhere (client think time, the next
//! request's forward leg, sampling δ quantization).

use telemetry::span::{assemble, critical_path, parse_ndjson, CriticalPath, HopKind, Span};
use telemetry::{exact_percentile, JournalEvent, Table};

/// A parsed span capture: the assembled per-request spans.
#[derive(Debug)]
pub struct SpanCapture {
    spans: Vec<Span>,
}

impl SpanCapture {
    /// Parses span NDJSON (fails on the first malformed line).
    pub fn parse(text: &str) -> Result<SpanCapture, String> {
        let records = parse_ndjson(text)?;
        Ok(SpanCapture {
            spans: assemble(&records),
        })
    }

    /// Reads and parses a span capture file.
    pub fn load(path: &str) -> Result<SpanCapture, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        SpanCapture::parse(&text)
    }

    /// All assembled spans, earliest first.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span with the given trace id, if captured.
    pub fn find(&self, trace: u64) -> Option<&Span> {
        self.spans.iter().find(|s| s.trace == trace)
    }

    /// Every completed request's critical path, in span order.
    pub fn critical_paths(&self) -> Vec<CriticalPath> {
        self.spans.iter().filter_map(critical_path).collect()
    }

    /// Renders one span as an indented hop tree: milestones at the
    /// causal depth of their layer, transport/link detail below, with
    /// offsets relative to the span's first record.
    pub fn render_span(&self, span: &Span) -> String {
        let t0 = span.records[0].at;
        let mut out = match critical_path(span) {
            Some(cp) => format!(
                "trace {} request {} ({}) flow {}:{} backend {} T_client = {} ns\n",
                span.trace,
                cp.request_id,
                if cp.is_get { "GET" } else { "SET" },
                std::net::Ipv4Addr::from(cp.client_ip),
                cp.client_port,
                cp.backend.map_or("-".into(), |b| b.to_string()),
                cp.t_client,
            ),
            None => format!("trace {} (incomplete: no issue/consume pair)\n", span.trace),
        };
        for r in &span.records {
            let depth = match r.kind {
                HopKind::ClientIssue | HopKind::ClientConsume => 0,
                HopKind::LbDeliver
                | HopKind::LbFlowTable
                | HopKind::LbPick
                | HopKind::LbForward => 1,
                HopKind::BackendEnqueue
                | HopKind::BackendServiceStart
                | HopKind::BackendRespond => 2,
                HopKind::TcpSend
                | HopKind::TcpAck
                | HopKind::TcpRto
                | HopKind::TcpReassembled
                | HopKind::LinkDeliver
                | HopKind::LinkDrop
                | HopKind::LinkImpair => 3,
            };
            out.push_str(&format!(
                "  {:>9} ns {}{:<21} node {:<3} a = {} b = {}\n",
                r.at - t0,
                "  ".repeat(depth),
                r.kind.as_str(),
                r.node,
                r.a,
                r.b
            ));
        }
        out
    }
}

/// Reads one segment off a critical path.
type Segment = fn(&CriticalPath) -> u64;

/// The six critical-path segments, in causal order, with accessors.
const SEGMENTS: [(&str, Segment); 6] = [
    ("client_to_lb", |c| c.client_to_lb),
    ("lb_proc", |c| c.lb_proc),
    ("lb_to_backend", |c| c.lb_to_backend),
    ("backend_queue", |c| c.backend_queue),
    ("backend_service", |c| c.backend_service),
    ("reverse_net", |c| c.reverse_net),
];

/// Renders the aggregate critical-path decomposition: one row per
/// segment (plus `t_client`), with mean and exact p50/p95/p99 in
/// microseconds over every completed request.
pub fn critical_path_table(paths: &[CriticalPath]) -> Table {
    let mut t = Table::new(
        format!(
            "Critical-path decomposition over {} completed request(s) (us)",
            paths.len()
        ),
        &["segment", "mean_us", "p50_us", "p95_us", "p99_us"],
    );
    let us = |ns: u64| format!("{:.1}", ns as f64 / 1e3);
    let mut emit = |name: &str, values: &mut Vec<u64>| {
        values.sort_unstable();
        let mean = if values.is_empty() {
            0.0
        } else {
            values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64
        };
        t.row(&[
            name.to_string(),
            format!("{:.1}", mean / 1e3),
            us(exact_percentile(values, 0.50).unwrap_or(0)),
            us(exact_percentile(values, 0.95).unwrap_or(0)),
            us(exact_percentile(values, 0.99).unwrap_or(0)),
        ]);
    };
    for (name, get) in SEGMENTS {
        emit(name, &mut paths.iter().map(get).collect());
    }
    emit("t_client", &mut paths.iter().map(|c| c.t_client).collect());
    t
}

/// One journaled T_LB sample joined to its span ground truth.
#[derive(Debug, Clone, Copy)]
pub struct JoinedSample {
    /// Sample instant (journal `at`).
    pub at: u64,
    /// Backend the LB attributed the sample to.
    pub backend: usize,
    /// The sampled T_LB estimate, ns.
    pub t_lb: u64,
    /// The critical path of the request whose response triggered the
    /// sample (the flow's latest completion at or before `at`).
    pub path: CriticalPath,
}

impl JoinedSample {
    /// The span ground truth for the LB-visible response loop:
    /// `lb_to_backend + backend_queue + backend_service + reverse_net`.
    pub fn truth(&self) -> u64 {
        self.path.lb_to_backend
            + self.path.backend_queue
            + self.path.backend_service
            + self.path.reverse_net
    }

    /// Signed estimator error: `t_lb - truth`.
    pub fn error(&self) -> i64 {
        self.t_lb as i64 - self.truth() as i64
    }
}

/// The estimator error budget: every journaled T_LB sample joined to
/// span ground truth, plus the samples that could not be joined (flow
/// never completed a traced request before the sample).
#[derive(Debug)]
pub struct ErrorBudget {
    /// Joined samples, in journal order.
    pub joined: Vec<JoinedSample>,
    /// Journal samples with no matching span critical path.
    pub unjoined: usize,
}

/// Joins journal `sample` events against span critical paths by flow
/// key, attributing each sample to the flow's latest completion at or
/// before the sample instant (see the module docs for why that is the
/// triggering request).
pub fn error_budget(paths: &[CriticalPath], events: &[JournalEvent]) -> ErrorBudget {
    let mut by_flow: std::collections::BTreeMap<(u32, u16), Vec<CriticalPath>> =
        std::collections::BTreeMap::new();
    for p in paths {
        by_flow
            .entry((p.client_ip, p.client_port))
            .or_default()
            .push(*p);
    }
    for flow in by_flow.values_mut() {
        flow.sort_by_key(|p| p.completed_at);
    }
    let mut joined = Vec::new();
    let mut unjoined = 0usize;
    for e in events {
        let JournalEvent::Sample {
            at,
            backend,
            src_ip,
            src_port,
            t_lb,
            ..
        } = e
        else {
            continue;
        };
        let hit = by_flow.get(&(*src_ip, *src_port)).and_then(|flow| {
            let i = flow.partition_point(|p| p.completed_at <= *at);
            i.checked_sub(1).map(|i| flow[i])
        });
        match hit {
            Some(path) => joined.push(JoinedSample {
                at: *at,
                backend: *backend,
                t_lb: *t_lb,
                path,
            }),
            None => unjoined += 1,
        }
    }
    ErrorBudget { joined, unjoined }
}

/// Renders the error budget: one row per backend plus an `all` row,
/// with sample counts, the estimate vs. ground truth, the signed error
/// percentiles, and the mean segment decomposition of the truth.
pub fn error_budget_table(budget: &ErrorBudget) -> Table {
    let mut t = Table::new(
        format!(
            "T_LB estimator error budget ({} joined, {} unjoined sample(s)) (us)",
            budget.joined.len(),
            budget.unjoined
        ),
        &[
            "backend",
            "n",
            "t_lb_p50_us",
            "truth_p50_us",
            "err_mean_us",
            "err_p50_us",
            "err_p95_us",
            "fwd_net_us",
            "b_queue_us",
            "b_service_us",
            "rev_net_us",
        ],
    );
    let backends: std::collections::BTreeSet<Option<usize>> = budget
        .joined
        .iter()
        .map(|j| Some(j.backend))
        .chain(std::iter::once(None))
        .collect();
    for key in backends {
        let rows: Vec<&JoinedSample> = budget
            .joined
            .iter()
            .filter(|j| key.is_none_or(|b| j.backend == b))
            .collect();
        if rows.is_empty() {
            continue;
        }
        let n = rows.len();
        let mut t_lbs: Vec<u64> = rows.iter().map(|j| j.t_lb).collect();
        let mut truths: Vec<u64> = rows.iter().map(|j| j.truth()).collect();
        t_lbs.sort_unstable();
        truths.sort_unstable();
        // Signed errors: percentiles over the shifted magnitudes so the
        // shared u64 percentile helper applies.
        let mut errs: Vec<i64> = rows.iter().map(|j| j.error()).collect();
        errs.sort_unstable();
        let err_p = |q: f64| -> i64 {
            let shifted: Vec<u64> = errs.iter().map(|&e| (e - errs[0]) as u64).collect();
            exact_percentile(&shifted, q).unwrap_or(0) as i64 + errs[0]
        };
        let err_mean = errs.iter().map(|&e| e as f64).sum::<f64>() / n as f64;
        let seg_mean = |get: fn(&CriticalPath) -> u64| -> f64 {
            rows.iter().map(|j| get(&j.path) as f64).sum::<f64>() / n as f64
        };
        let us = |ns: u64| format!("{:.1}", ns as f64 / 1e3);
        t.row(&[
            key.map_or("all".into(), |b| b.to_string()),
            n.to_string(),
            us(exact_percentile(&t_lbs, 0.50).unwrap_or(0)),
            us(exact_percentile(&truths, 0.50).unwrap_or(0)),
            format!("{:.1}", err_mean / 1e3),
            format!("{:.1}", err_p(0.50) as f64 / 1e3),
            format!("{:.1}", err_p(0.95) as f64 / 1e3),
            format!("{:.1}", seg_mean(|c| c.lb_to_backend) / 1e3),
            format!("{:.1}", seg_mean(|c| c.backend_queue) / 1e3),
            format!("{:.1}", seg_mean(|c| c.backend_service) / 1e3),
            format!("{:.1}", seg_mean(|c| c.reverse_net) / 1e3),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::span::{pack_addr, to_ndjson, HopRecord};

    fn rec(at: u64, trace: u64, kind: HopKind, node: u32, a: u64, b: u64) -> HopRecord {
        HopRecord {
            at,
            trace,
            kind,
            node,
            a,
            b,
        }
    }

    fn request(trace: u64, t0: u64, req_id: u64, ip: u32, port: u16) -> Vec<HopRecord> {
        let addr = pack_addr(ip, port);
        vec![
            rec(t0, trace, HopKind::ClientIssue, 1, addr, (1 << 63) | req_id),
            rec(t0 + 10, trace, HopKind::LbDeliver, 2, addr, 100),
            rec(t0 + 12, trace, HopKind::LbForward, 2, 0, 100),
            rec(t0 + 30, trace, HopKind::BackendEnqueue, 3, addr, req_id),
            rec(
                t0 + 45,
                trace,
                HopKind::BackendServiceStart,
                3,
                addr,
                req_id,
            ),
            rec(t0 + 95, trace, HopKind::BackendRespond, 3, addr, req_id),
            rec(t0 + 120, trace, HopKind::ClientConsume, 1, addr, req_id),
        ]
    }

    fn capture() -> SpanCapture {
        let mut records = request(9, 1_000, 1, 0x0a00_0001, 40_000);
        records.extend(request(7, 2_000, 2, 0x0a00_0001, 40_000));
        SpanCapture::parse(&to_ndjson(&records)).unwrap()
    }

    #[test]
    fn capture_parses_and_renders() {
        let c = capture();
        assert_eq!(c.spans().len(), 2);
        assert_eq!(c.critical_paths().len(), 2);
        let rendered = c.render_span(c.find(9).unwrap());
        assert!(rendered.contains("trace 9 request 1 (GET)"), "{rendered}");
        assert!(rendered.contains("backend_service_start"), "{rendered}");
        assert!(rendered.contains("T_client = 120 ns"), "{rendered}");
        // Incomplete spans render without a critical-path header.
        let open = to_ndjson(&request(5, 0, 3, 1, 2)[..3]);
        let c = SpanCapture::parse(&open).unwrap();
        assert!(c.render_span(&c.spans()[0]).contains("incomplete"));
    }

    #[test]
    fn critical_path_table_sums_segments() {
        let c = capture();
        let t = critical_path_table(&c.critical_paths());
        assert_eq!(t.len(), 7, "six segments plus t_client");
        let rendered = t.to_aligned();
        assert!(rendered.contains("backend_queue"), "{rendered}");
    }

    #[test]
    fn error_budget_joins_latest_completion() {
        let c = capture();
        let paths = c.critical_paths();
        // Requests complete at t=1120 and t=2120; samples at 1500 and
        // 2500 must join to the first and second respectively, and a
        // sample before any completion stays unjoined.
        let sample = |at: u64| JournalEvent::Sample {
            at,
            backend: 0,
            src_ip: 0x0a00_0001,
            src_port: 40_000,
            delta: 64_000,
            t_lb: 150,
        };
        let budget = error_budget(&paths, &[sample(500), sample(1_500), sample(2_500)]);
        assert_eq!(budget.unjoined, 1);
        assert_eq!(budget.joined.len(), 2);
        assert_eq!(budget.joined[0].path.trace, 9);
        assert_eq!(budget.joined[1].path.trace, 7);
        // truth = lb_to_backend(18) + queue(15) + service(50) + reverse(25)
        assert_eq!(budget.joined[0].truth(), 108);
        assert_eq!(budget.joined[0].error(), 150 - 108);
        let table = error_budget_table(&budget).to_aligned();
        assert!(table.contains("all"), "{table}");
    }
}
