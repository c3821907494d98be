#!/usr/bin/env bash
# Tier-1 gate: everything CI runs, runnable locally with one command.
#
#   ./scripts/check.sh
#
# Order is cheapest-first so the common failure modes surface fast:
# formatting, then the static determinism gate — the stock lints over
# the whole workspace and simlint's two rules beside them (README.md
# "The determinism gate") — then clippy's full set on the crates that
# are clean of it, then build, then tests.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# The determinism gate, stock half: wall clocks, hash-ordered
# containers, ambient hashers, Rc/RefCell/Cell, thread_local!, unsafe,
# float equality, and panics on the fast path are rustc and clippy lints
# denied by name in the root Cargo.toml [workspace.lints] (entries in
# clippy.toml), over every crate. crates/lint-fixtures rides along: each
# banned construct there *expects* its lint, so a lint that stops firing
# fails this step too.
echo "==> cargo clippy --workspace (determinism gate)"
cargo clippy --offline --no-deps --workspace

# Ambient entropy (old rule D2) has no std API for a lint to name beyond
# RandomState/DefaultHasher in clippy.toml: it can only arrive as a crate.
echo "==> Cargo.lock carries no entropy crate"
if grep -nE '^name = "(rand|getrandom)"' Cargo.lock; then
    echo "an entropy crate entered Cargo.lock; seed a netsim::rng::SimRng instead" >&2
    exit 1
fi

# The determinism gate, simlint half: the two rules no stock lint
# expresses (G2 partial_cmp().unwrap() comparators, G3 sequence-number
# narrowing). Gates on deny-tier
# findings and on warn-tier findings not covered by the committed
# simlint.baseline. To accept a new warn finding:
#   cargo run -q -p simlint -- --workspace --update-baseline
echo "==> simlint --workspace"
cargo run -q -p simlint -- --workspace

# The analyzer's own test suite (lexer, item layer, config, baseline,
# and the golden fixtures) is tier-1: a rule regression must not be able
# to slip through via a green workspace scan alone.
echo "==> simlint self-tests"
cargo test -q -p simlint

# Clippy's whole default set, warnings denied, tests included, on the
# crates whose lint debt is paid (the hot-path crates netsim, nettcp,
# netpkt, workload and backend; lbcore, lb-dataplane, telemetry,
# experiments, scenariofuzz, bench and the root package inband-lb with
# its integration tests and examples).
paid_up="-p netsim -p nettcp -p netpkt -p workload -p backend -p lbcore -p lb-dataplane -p telemetry -p experiments -p scenariofuzz -p bench -p inband-lb"
echo "==> cargo clippy $paid_up --all-targets -- -D warnings"
# shellcheck disable=SC2086 # $paid_up is a list of flags
cargo clippy --offline --no-deps $paid_up --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
cargo test -q --workspace

# The root-package integration suites (determinism, DSR invariants,
# health ejection under fault injection, multi-LB invariants,
# observability/journal/span conformance, the steady-state allocation
# budget) and the lbcore/netsim property tests are part of
# `--workspace` above; run them by name too so a filtered or partial
# test invocation can't silently skip the tier-1 suites.
echo "==> tier-1 integration suites (release)"
cargo test -q --release --test determinism --test dsr_invariants \
    --test health_ejection --test paper_claims --test multilb_invariants \
    --test observability --test fuzz_regressions --test alloc_budget
cargo test -q -p lbcore --test proptests
cargo test -q -p netsim --test ecmp_proptests
# The event queue (timing wheel plus indexed heap) against an
# ordered-map model (pop order, cancel results, bucket lists, occupancy
# bitmap and slot <-> heap-position consistency after every operation):
# every simulated number rests on it.
cargo test -q -p netsim --test queue_proptests
# The telemetry unit layer (the packed record log, the journal and hop
# schemas, NDJSON, the critical-path walk) and the span analyzer (span
# capture, critical-path table, error-budget join) are tier-1 by name: the
# observability suite above consumes them end to end, but a unit
# regression should name the layer it broke.
cargo test -q --release -p telemetry --lib
# The packed record log against plain-vector models, for both record
# types: span_log_full_matches_the_vector_model (varint and zigzag
# edges, drains, caps) and packed_journal_matches_the_vector_model
# (every variant, -0.0 and NaN payloads bit for bit, caps, a drain
# resetting the predictor); and the journal's NDJSON round trip over
# arbitrary events.
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

echo "All checks passed."
