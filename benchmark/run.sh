#!/usr/bin/env bash
# Build lbbench, run all four workloads twice, and compare the two result
# files against each other under BENCHMARK.json's bounds. On an unchanged
# tree the comparison must print no "worse" row.
#
#   benchmark/run.sh [--seed N] [--trace 0|1]
#
# To judge a change, keep the result file of the parent commit and compare:
#   lbbench run --out parent.json      (on the parent)
#   lbbench run --out change.json      (on the change)
#   lbbench compare parent.json change.json
set -euo pipefail
cd "$(dirname "$0")/.."

lbbench() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}

out=benchmark/target/lbbench
lbbench run --out "$out/first.json" "$@"
lbbench run --out "$out/second.json" "$@"
lbbench compare "$out/first.json" "$out/second.json"
