#!/usr/bin/env bash
# Tier-1 gate: everything CI runs, runnable locally with one command.
#
#   ./scripts/check.sh
#
# Order is cheapest-first so the common failure modes surface fast:
# formatting, then the simlint static pass (determinism, fast-path,
# concurrency-readiness, global-ordering, and journal-schema rules, see
# README.md "simlint"), then clippy on the gated crates, then build,
# then tests.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# Gates on deny-tier findings and on warn-tier findings not covered by
# the committed simlint.baseline. To accept a new warn finding:
#   cargo run -q -p simlint -- --workspace --update-baseline
echo "==> simlint --workspace"
cargo run -q -p simlint -- --workspace

# The analyzer's own test suite (lexer, item parser, rules, baseline,
# and the golden fixture corpus) is tier-1: a rule regression must not
# be able to slip through via a green workspace scan alone.
echo "==> simlint self-tests"
cargo test -q -p simlint

# Clippy gates the crates whose lint debt is paid (lbcore and
# lb-dataplane so far); workspace-wide gating waits on the rest
# (`telemetry` trips `manual_is_multiple_of`, which needs a newer MSRV
# than the declared 1.75).
echo "==> cargo clippy -p lbcore -p lb-dataplane"
cargo clippy --offline --no-deps -p lbcore -p lb-dataplane --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
cargo test -q --workspace

# The root-package integration suites (determinism, DSR invariants,
# health ejection under fault injection, multi-LB conformance and
# invariants, observability/journal/span conformance, the steady-state
# allocation budget) and the lbcore/netsim property tests are part of
# `--workspace` above; run them by name too so a filtered or partial
# test invocation can't silently skip the tier-1 suites.
echo "==> tier-1 integration suites (release)"
cargo test -q --release --test determinism --test dsr_invariants \
    --test health_ejection --test paper_claims \
    --test multilb_conformance --test multilb_invariants \
    --test observability --test fuzz_regressions --test alloc_budget
cargo test -q -p lbcore --test proptests
cargo test -q -p netsim --test ecmp_proptests
# The event queue's indexed heap against an ordered-map model (pop
# order, cancel results, slot <-> heap-position consistency after every
# operation): every simulated number rests on it.
cargo test -q -p netsim --test queue_proptests
# The span tracer's unit layer (hop schema, critical-path walk,
# NDJSON, ring/flight-recorder) and its analyzer (span capture,
# critical-path table, error-budget join) are tier-1 by name: the
# observability suite above consumes them end to end, but a unit
# regression should name the layer it broke.
cargo test -q --release -p telemetry --lib
# The span log's packed hop stream against a plain-vector model (the
# codec's only exhaustive test: varint and zigzag edges, drains, caps)
# and the journal's NDJSON round trip over arbitrary events.
cargo test -q -p telemetry --test proptests --test journal_proptests
cargo test -q --release -p bench --lib

# The benchmark is a package of its own (benchmark/, own workspace) that
# compiles against the crates' public API from outside; a PR that claims
# a gain may not edit it. Build and self-test it here so a refactor that
# breaks the surface listed in benchmark/README.md fails in tier-1, not
# only in the bench pipeline.
echo "==> lbbench builds against the crates (benchmark/)"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml

# Scenario-fuzz smoke campaign: every seed in the smoke range runs the
# full invariant suite (each seed twice, for the determinism check).
# Gating — a violation here is a real bug, and the failing seed can be
# shrunk locally with `scenariofuzz minimize --seed N`.
echo "==> scenariofuzz smoke campaign (seeds 0..25)"
cargo run -q --release -p bench --bin scenariofuzz -- run --seeds 0..25 \
    --out target/bench/fuzz_smoke.json

# Perf snapshot: quick variants of the pinned perfbench scenarios, plus
# the fig3_kv_journal and fig3_kv_spans overhead points (journal /
# span recording on), built with the counting allocator so the
# artifact's allocation columns are filled in. Non-gating — wall-clock
# numbers are host-dependent; the artifact is for trend tracking (see
# EXPERIMENTS.md "Performance"), not pass/fail.
echo "==> perfbench --quick --journal --spans (non-gating)"
cargo run -q --release -p bench --features bench-alloc --bin perfbench -- \
    --quick --journal --spans --out target/bench/BENCH_perf_quick.json \
    || echo "perfbench failed (non-gating); continuing"

echo "All checks passed."
