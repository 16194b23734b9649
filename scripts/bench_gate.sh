#!/usr/bin/env sh
# Bench gate: runs every scenario in the registry
# (crates/bench/src/scenario.rs) in one process, writes each
# BENCH_<name>.json, and fails on any gate against its committed
# BENCH_<name>.baseline.json. Each scenario's floors, budget and baseline
# rationale live in its registry entry. Extra flags pass through to
# covbench (e.g. --repeats 3, or --scenario NAME for one).
set -eu

cd "$(dirname "$0")/.."

cargo run --release -q -p classfuzz-bench --bin covbench -- "$@"
