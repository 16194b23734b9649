#!/usr/bin/env sh
# The full local gate — the single entrypoint .github/workflows/ci.yml
# mirrors (see README, "CI contract"). Run from anywhere; works fully
# offline against the vendored crates/{rand,proptest,criterion} shims.
#
# The root manifest is both a package and the workspace root; its
# `default-members` lists the root and every member crate, so plain
# `cargo build`/`cargo test` already cover the whole workspace. The steps
# here still pass --workspace explicitly.
#
# Each step runs through `step NAME cmd...`, which times it and, on
# failure, names the broken gate before exiting — so a red CI log says
# "FAILED at step <name>" at the bottom instead of burying the culprit.
# A per-step timing summary prints on success.
set -u

cd "$(dirname "$0")/.."

TIMINGS=""

step() {
    step_name="$1"
    shift
    echo "==> ${step_name}: $*"
    step_start=$(date +%s)
    "$@"
    step_status=$?
    step_end=$(date +%s)
    if [ "${step_status}" -ne 0 ]; then
        echo "FAILED at step ${step_name} (exit ${step_status}, $((step_end - step_start))s)" >&2
        exit "${step_status}"
    fi
    TIMINGS="${TIMINGS}$(printf '  %-12s %4ss' "${step_name}" "$((step_end - step_start))")
"
}

# Formatting first: cheapest check, fails fastest.
step fmt cargo fmt --all --check
step build cargo build --release --workspace
step test cargo test -q --workspace
# The adversarial-input suite on its own line so a containment regression
# is visible as such, not buried in the workspace run.
step no_panic cargo test -q --test no_panic
step clippy cargo clippy --workspace --all-targets -- -D warnings
# No new panic sites in the hot-path crates (classfile/vm/core).
step panic_gate sh scripts/panic_gate.sh
# Bench smoke, all eight scenarios: the coverage hot-path microbenchmarks
# vs. BENCH_coverage.baseline.json (20% budget + 5x speedup floor), the
# end-to-end harness batch vs. BENCH_harness.baseline.json (20% budget +
# 2x shared-vs-cold and shared-vs-old-path floors), the mutate hot
# loop vs. BENCH_mutate.baseline.json (20% budget + 2x scratch-vs-cold
# floor + allocation-count ceiling), the --exec-diff observer vs.
# BENCH_exec.baseline.json (20% budget + 0.5 exec-vs-startup ratio
# floor), the prepare-once interpreter vs. BENCH_interp.baseline.json
# (20% budget + 2x prepared-vs-cold floor), the async engine's shard
# scaling + discrepancy cross-check
# vs. BENCH_scale.baseline.json (20% budget + 1.5x scaling floor where
# 2+ cores exist, a no-regression-vs-lockstep guard on one core, and an
# unconditional async-vs-lockstep key-set cross-check), and the
# deterministic seed-selection yield comparison vs.
# BENCH_yield.baseline.json (20% budget + 1.2x maxcover-vs-uniform
# distinct-discrepancy-key floor), and the analyze-once five-profile
# startup throughput vs. BENCH_startup.baseline.json (20% budget + 2x
# shared-vs-cold floor).
step bench_gate sh scripts/bench_gate.sh

echo "All gates passed. Step timings:"
printf '%s' "${TIMINGS}"
