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
# Bench gate: every scenario in crates/bench/src/scenario.rs against its
# committed BENCH_<name>.baseline.json; the floors live in the registry.
step bench_gate sh scripts/bench_gate.sh

echo "All gates passed. Step timings:"
printf '%s' "${TIMINGS}"
