//! Observability-layer integration tests: journal determinism, NDJSON
//! round-tripping, the flight-recorder/journal's non-interference with
//! the pinned packet schedule, and `lbtrace`'s conformance with the
//! live experiment's reaction metric.

use bench::lbtrace::Trace;
use bench::spans::{error_budget, SpanCapture};
use experiments::fig3::{run_fig3_aware, Fig3Config};
use experiments::KvCluster;
use netsim::{Duration, Time};
use telemetry::{journal::parse_ndjson, Journal, JournalEvent, JournalMode, SpanMode};

/// A short Fig. 3 run with the journal recording.
fn short_cfg(seed: u64) -> Fig3Config {
    Fig3Config {
        duration: Duration::from_secs(3),
        inject_at: Duration::from_secs(1),
        bin: Duration::from_millis(500),
        seed,
        journal: JournalMode::Full(1 << 20),
        ..Fig3Config::default()
    }
}

/// Same seed → byte-identical NDJSON; different seed → different bytes.
/// (Journal timestamps are sim time and float formatting is the shortest
/// round-trip form, so there is nothing run-dependent to leak in.)
#[test]
fn journal_is_a_pure_function_of_the_seed() {
    let journal = |seed| run_fig3_aware(&short_cfg(seed)).lbs.remove(0).journal;
    let a = journal(42);
    let b = journal(42);
    assert!(!a.is_empty(), "journal came back empty");
    assert_eq!(a, b, "same seed produced different journal bytes");

    assert_ne!(a, journal(43), "seed had no effect on the journal");
}

/// A journal that fills mid-run says so: the run reports what it
/// dropped, and the NDJSON holds exactly the events that fit.
#[test]
fn a_full_journal_reports_what_it_dropped() {
    let run = run_fig3_aware(&Fig3Config {
        journal: JournalMode::Full(100),
        ..short_cfg(42)
    });
    let lb = &run.lbs[0];
    assert_eq!(lb.journal.lines().count(), 100);
    // Every sample is journaled, so the capped journal saw at least as
    // many events as the LB counted samples.
    assert!(
        lb.journal_dropped + 100 >= lb.stats.samples,
        "{} dropped for {} samples",
        lb.journal_dropped,
        lb.stats.samples
    );
}

/// A real capture survives parse → re-serialize byte-identically.
#[test]
fn ndjson_round_trips_a_real_capture() {
    let text = run_fig3_aware(&short_cfg(42)).lbs.remove(0).journal;
    let events: Vec<JournalEvent> = parse_ndjson(&text).expect("capture must parse");
    assert!(
        events.len() > 100,
        "implausibly few events: {}",
        events.len()
    );
    // Timestamps are monotone non-decreasing (emission order).
    for w in events.windows(2) {
        assert!(w[0].at() <= w[1].at(), "journal out of order: {w:?}");
    }
    let mut j = Journal::new(JournalMode::Full(events.len() + 1));
    for e in &events {
        j.push(e.clone());
    }
    assert_eq!(j.to_ndjson(), text, "re-serialization changed bytes");
}

/// The acceptance check: with the journal on for a fig3 run, `lbtrace`
/// reproduces the experiment's reaction time exactly from the NDJSON
/// alone, and `explain` walks the decisive weight shift back to an
/// epoch-δ decision and the samples that drove it.
#[test]
fn lbtrace_reaction_and_explanation_match_the_experiment() {
    let mut cfg = Fig3Config::quick();
    cfg.journal = JournalMode::Full(1 << 22);
    let run = run_fig3_aware(&cfg);
    let inject_ns = (Time::ZERO + cfg.inject_at).as_nanos();
    assert!(
        run.first_reaction.is_some(),
        "quick fig3 run produced no reaction"
    );

    let trace = Trace::parse(&run.lbs[0].journal).expect("journal must parse");
    assert_eq!(
        trace.reaction_time(0, inject_ns),
        run.first_reaction,
        "journal-derived reaction diverged from the experiment's"
    );

    // The first post-injection shift is explainable end to end.
    let ex = trace
        .explain_shift(inject_ns)
        .expect("no weight shift after injection");
    assert!(ex.shift.at() >= inject_ns);
    assert!(
        ex.decision.is_some(),
        "no epoch decision found for the victim"
    );
    assert!(
        !ex.samples.is_empty(),
        "shift explained by zero samples — causal chain broken"
    );

    // The decisive shift (the one crossing the half-traffic threshold)
    // names the degraded backend as the victim.
    let at_reaction = trace
        .explain_shift(run.first_reaction.unwrap())
        .expect("no shift at the reaction time");
    assert_eq!(
        at_reaction.victim, 0,
        "reaction shift blamed the wrong backend"
    );
}

/// A finished simulation's packet-trace digest; a truncated trace fails.
fn digest(sim: &netsim::Simulation) -> (u64, usize) {
    let trace = sim.trace();
    assert_eq!(trace.truncated, 0, "trace buffer too small for the run");
    trace.digest()
}

/// Journaling ON must not move a single packet: the fig3 trace hash with
/// the journal recording equals the pinned hash from
/// `tests/determinism.rs` (captured with observability off).
#[test]
fn journal_on_leaves_the_pinned_packet_schedule_untouched() {
    let cluster = fig3_cluster(17, SpanMode::Off, JournalMode::Full(1 << 22));
    assert_eq!(
        digest(&cluster.sim),
        (0xa0af_927b_c332_dae6, 787_483),
        "journaling perturbed the packet schedule",
    );
    // And it actually recorded something.
    assert!(
        !cluster.lb_node(0).journal().is_empty(),
        "journal was enabled but empty"
    );
}

/// The pinned fig3 cluster (seed 17, 1 ms injected at t = 300 ms) used
/// by the trace-hash gates, with span tracing in the given mode.
fn pinned_cluster(span: SpanMode) -> KvCluster {
    fig3_cluster(17, span, JournalMode::Off)
}

/// The Fig. 3 cluster under `seed` with 1 ms injected at t = 300 ms, run
/// for 600 ms with the packet trace on and span tracing and the journal
/// in the given modes.
fn fig3_cluster(seed: u64, span: SpanMode, journal: JournalMode) -> KvCluster {
    let cfg = Fig3Config {
        duration: Duration::from_millis(600),
        inject_at: Duration::from_millis(300),
        seed,
        journal,
        span,
        ..Fig3Config::default()
    };
    let mut cluster = KvCluster::build(cfg.cluster(true));
    cluster.sim.enable_spans(span);
    cluster.sim.enable_trace(1 << 21);
    cluster.run(&cfg.timeline());
    cluster
}

/// Span tracing in Full mode must not move a single packet either: the
/// same pinned hash as the journal test above (captured with all
/// observability off), and the run-twice span digests are identical —
/// the span log is a pure function of the seed.
#[test]
fn span_tracing_full_leaves_the_pinned_packet_schedule_untouched() {
    let digest_of = || {
        let mut cluster = pinned_cluster(SpanMode::Full(1 << 22));
        assert_eq!(
            digest(&cluster.sim),
            (0xa0af_927b_c332_dae6, 787_483),
            "span tracing perturbed the packet schedule",
        );
        assert_eq!(cluster.sim.spans().dropped(), 0, "span log overflowed");
        let mut recs = cluster.sim.take_span_records();
        assert!(!recs.is_empty(), "tracing was on but recorded nothing");
        telemetry::span::sort_records(&mut recs);
        telemetry::span::digest(&recs)
    };
    assert_eq!(digest_of(), digest_of(), "span digest not reproducible");
    // Off mode is the pinned default: the schedule gate for it is the
    // determinism suite itself, which runs with no span log at all.
    let mut off = pinned_cluster(SpanMode::Off);
    assert_eq!(digest(&off.sim), (0xa0af_927b_c332_dae6, 787_483));
    assert!(off.sim.take_span_records().is_empty());
}

/// What a retained hop costs is a deterministic count, so it gates here
/// (peak RSS is a host reading and only trends in `lbbench`): the packed
/// log holds the Fig. 3 hop stream in at most 7 bytes a record, and
/// draining it returns exactly the records it counted. The in-memory
/// record sizes are pinned from above so that growing either is a
/// decision, not an accident.
#[test]
fn span_log_retains_a_hop_in_at_most_7_bytes() {
    let mut cluster = fig3_cluster(42, SpanMode::Full(1 << 22), JournalMode::Off);
    let spans = cluster.sim.spans();
    assert_eq!(spans.dropped(), 0, "span log overflowed");
    assert_eq!(spans.len(), 663_402, "hop count moved");
    assert!(
        spans.retained_bytes() <= 7 * spans.len(),
        "{} hops retained in {} bytes",
        spans.len(),
        spans.retained_bytes()
    );
    let len = spans.len();
    assert_eq!(cluster.sim.take_span_records().len(), len);
    assert!(std::mem::size_of::<telemetry::HopRecord>() <= 40);
    assert!(std::mem::size_of::<JournalEvent>() <= 72);
    // The log rides inside `Simulation` on every run, traced or not.
    assert!(std::mem::size_of::<telemetry::SpanLog>() <= 96);
}

/// The journal is the same packed log, gated the same way on the same
/// run: a retained event costs at most 16 bytes (samples, 99.8 % of the
/// stream, about 10), and decoding returns exactly the events counted.
#[test]
fn journal_retains_an_event_in_at_most_16_bytes() {
    let cluster = fig3_cluster(42, SpanMode::Off, JournalMode::Full(1 << 22));
    let journal = cluster.lb_node(0).journal();
    assert_eq!(journal.overflow(), 0, "journal overflowed");
    assert_eq!(journal.len(), 39_507, "event count moved");
    assert!(
        journal.retained_bytes() <= 16 * journal.len(),
        "{} events retained in {} bytes",
        journal.len(),
        journal.retained_bytes()
    );
    assert_eq!(journal.iter().count(), journal.len());
}

/// Span NDJSON is a pure function of the seed, and different seeds
/// diverge.
#[test]
fn spans_are_a_pure_function_of_the_seed() {
    let span_cfg = |seed| Fig3Config {
        span: SpanMode::Full(1 << 22),
        ..short_cfg(seed)
    };
    let a = run_fig3_aware(&span_cfg(42)).spans;
    let b = run_fig3_aware(&span_cfg(42)).spans;
    assert!(!a.is_empty(), "span capture came back empty");
    assert_eq!(a, b, "same seed produced different span bytes");
    let c = run_fig3_aware(&span_cfg(43)).spans;
    assert_ne!(a, c, "seed had no effect on the spans");
}

/// Ground-truth conformance: the span tree's T_client (consume minus
/// issue) is **bitwise** the latency the client recorder measured, for
/// every completed request — same instants, same latencies, same
/// GET/SET mix.
#[test]
fn span_derived_t_client_is_bitwise_the_client_recorder() {
    let mut cluster = pinned_cluster(SpanMode::Full(1 << 22));
    let mut recs = cluster.sim.take_span_records();
    telemetry::span::sort_records(&mut recs);
    let paths: Vec<_> = telemetry::span::assemble(&recs)
        .iter()
        .filter_map(telemetry::span::critical_path)
        .collect();
    assert!(paths.len() > 100, "implausibly few critical paths");
    let mut from_spans: Vec<(u64, u64, bool)> = paths
        .iter()
        .map(|p| (p.completed_at, p.t_client, p.is_get))
        .collect();
    let mut from_recorder: Vec<(u64, u64, bool)> = cluster.client_app(0).recorder.raw().to_vec();
    from_spans.sort_unstable();
    from_recorder.sort_unstable();
    assert_eq!(
        from_spans, from_recorder,
        "span-derived T_client diverged from the client recorder"
    );
    // Every critical path decomposes exactly: the six segments sum to
    // T_client with no residual.
    for p in &paths {
        let sum = p.client_to_lb
            + p.lb_proc
            + p.lb_to_backend
            + p.backend_queue
            + p.backend_service
            + p.reverse_net;
        assert_eq!(sum, p.t_client, "segments do not sum for {:#x}", p.trace);
    }
}

/// A multi-LB tier with per-shard journals: every shard records its own
/// capture, each parses independently, and the per-shard summary
/// (`lbtrace summary FILE FILE...`) reflects each shard's own sample
/// count — the shard-skew view a merged capture would hide.
#[test]
fn multilb_per_shard_journals_parse_and_summarize() {
    let run = run_fig3_aware(&Fig3Config {
        duration: Duration::from_secs(2),
        inject_at: Duration::from_secs(1),
        bin: Duration::from_millis(500),
        journal: JournalMode::Full(1 << 20),
        lbs: 4,
        ..Fig3Config::default()
    });
    assert_eq!(run.lbs.len(), 4, "one journal per shard");
    let shards: Vec<Trace> = run
        .lbs
        .iter()
        .map(|lb| Trace::parse(&lb.journal).expect("shard journal must parse"))
        .collect();
    for (i, shard) in shards.iter().enumerate() {
        assert!(
            shard.count_kind("sample") as u64 > 0,
            "shard {i} journaled no samples"
        );
        // The journal agrees with the experiment's own per-shard count.
        assert_eq!(
            shard.count_kind("sample") as u64,
            run.lbs[i].stats.samples,
            "shard {i} journal sample count diverged from the experiment"
        );
    }
    let summary = bench::lbtrace::summary_shards(&shards);
    for i in 0..4 {
        assert!(summary.contains(&format!("shard {i}:")), "{summary}");
    }
    assert!(summary.contains("tier:"), "{summary}");
}

/// The estimator error budget joins journaled T_LB samples against span
/// ground truth; every joined sample must reproduce a journal sample
/// exactly, and every journal sample must be accounted for (joined or
/// counted unjoined).
#[test]
fn error_budget_reproduces_the_journal_samples_it_joins() {
    let cfg = Fig3Config {
        span: SpanMode::Full(1 << 22),
        ..short_cfg(42)
    };
    let run = run_fig3_aware(&cfg);
    let capture = SpanCapture::parse(&run.spans).expect("span capture must parse");
    let journal = Trace::parse(&run.lbs[0].journal).expect("journal must parse");
    let budget = error_budget(&capture.critical_paths(), journal.events());

    let mut journal_samples: Vec<(u64, usize, u64)> = journal
        .events()
        .iter()
        .filter_map(|e| match e {
            JournalEvent::Sample {
                at, backend, t_lb, ..
            } => Some((*at, *backend, *t_lb)),
            _ => None,
        })
        .collect();
    assert!(!journal_samples.is_empty(), "run journaled no samples");
    assert!(!budget.joined.is_empty(), "error budget joined nothing");
    assert_eq!(
        budget.joined.len() + budget.unjoined,
        journal_samples.len(),
        "samples lost in the join"
    );
    // Each joined sample is one of the journal's, verbatim (multiset
    // inclusion: remove each joined tuple from the journal's pool).
    journal_samples.sort_unstable();
    for j in &budget.joined {
        let tuple = (j.at, j.backend, j.t_lb);
        let i = journal_samples
            .binary_search(&tuple)
            .unwrap_or_else(|_| panic!("joined sample {tuple:?} not in the journal"));
        journal_samples.remove(i);
        // The decomposition is internally consistent.
        assert_eq!(j.error(), j.t_lb as i64 - j.truth() as i64);
        // The join is causal: the path completed before the sample.
        assert!(j.path.completed_at <= j.at);
    }
}
