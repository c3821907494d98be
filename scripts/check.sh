#!/usr/bin/env bash
# Tier-1 gate: CI's one gating step, runnable locally with one command.
#
#   ./scripts/check.sh
#
# Order is cheapest-first so the common failure modes surface fast:
# formatting, then the static determinism gate — stock rustc and clippy
# lints over the whole workspace (README.md "The determinism gate") —
# then clippy's full set on every crate but the lint fixtures, then build,
# then tests.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# The determinism gate: wall clocks, hash-ordered containers, ambient
# hashers, Rc/RefCell/Cell, thread_local!, unsafe and float equality are
# rustc and clippy lints denied by name in the root Cargo.toml
# [workspace.lints] (entries in clippy.toml), over every crate. Panics on
# the fast path, and unwrap/expect anywhere in lbcore and telemetry (so
# no partial_cmp().unwrap() comparator, rule G2), are denied per crate
# or module; so are narrowing `as` casts (cast_possible_truncation, rule
# G3) on every target of netsim, nettcp and lb-dataplane, in their
# [lints] tables. crates/lint-fixtures rides along: each banned
# construct there *expects* its lint, so a lint that stops firing fails
# this step too.
echo "==> cargo clippy --workspace (determinism gate)"
cargo clippy --offline --no-deps --workspace

# Ambient entropy (old rule D2) has no std API for a lint to name beyond
# RandomState/DefaultHasher in clippy.toml: it can only arrive as a crate.
echo "==> Cargo.lock carries no entropy crate"
if grep -nE '^name = "(rand|getrandom)"' Cargo.lock; then
    echo "an entropy crate entered Cargo.lock; seed a netsim::rng::SimRng instead" >&2
    exit 1
fi

# Clippy's whole default set, warnings denied, tests included, on every
# workspace package (the root package inband-lb with its integration
# tests and examples among them) except lint-fixtures, whose banned
# constructs are the point; a new crate is covered without an edit here.
echo "==> cargo clippy --workspace --exclude lint-fixtures --all-targets -- -D warnings"
cargo clippy --offline --no-deps --workspace --exclude lint-fixtures --all-targets -- -D warnings

# Rustdoc warnings denied: a deleted or renamed public item must not
# leave an intra-doc link dangling. (Cargo notes that the scenariofuzz
# lib and the bench bin of that name share a doc path; that notice is
# not a rustdoc warning and does not fail the step.)
echo "==> cargo doc --workspace (rustdoc warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
cargo test -q --workspace

# The root-package integration suites (determinism, DSR invariants,
# health ejection under fault injection, multi-LB invariants,
# observability/journal/span conformance, the steady-state allocation
# budget: at most 0.01 allocator calls per Fig. 3 request; it measures 26
# calls over 14,157 requests, 19 of them B-tree nodes of the two
# flow-keyed maps (the LB's flow table, the hosts' demux) and 7 first-use
# growth) and the lbcore/netsim property tests are part of
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
# edges, drains, caps, field values reused from k records back: field
# dictionary hits after other values, direct-mapped collisions and
# evicting misses) and packed_journal_matches_the_vector_model (every
# variant, -0.0 and NaN payloads bit for bit, caps, events repeated from
# k back); in both, a drain resets the slots and dictionaries, so a
# refilled log is byte for byte a fresh one. And the journal's NDJSON
# round trip over arbitrary events.
cargo test -q -p telemetry --test proptests --test journal_proptests
cargo test -q --release -p bench --lib

# The benchmark is a package of its own (benchmark/, own workspace) that
# compiles against the crates' public API from outside; a PR that claims
# a gain may not edit it. Build and self-test it here so a refactor that
# breaks the surface listed in benchmark/README.md fails in tier-1, not
# only in the bench pipeline. `--locked`: a crate change that would make
# cargo rewrite benchmark/Cargo.lock fails here instead of editing it.
echo "==> lbbench builds against the crates (benchmark/)"
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
cargo test -q --release --offline --locked --manifest-path benchmark/Cargo.toml

# Scenario-fuzz smoke campaign: every seed in the smoke range runs the
# full invariant suite (each seed twice, for the determinism check).
# Gating — a violation here is a real bug, and the failing seed can be
# shrunk locally with `scenariofuzz minimize --seed N`.
echo "==> scenariofuzz smoke campaign (seeds 0..25)"
cargo run -q --release -p bench --bin scenariofuzz -- run --seeds 0..25 \
    --out target/bench/fuzz_smoke.json

echo "All checks passed."
