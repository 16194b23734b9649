//! The shard-scaling benchmark behind `covbench --scenario scale`:
//! measures the free-running async engine's throughput against the
//! lockstep engine and across shard counts, runs the fixed-budget
//! async-vs-lockstep discrepancy cross-check, and renders/checks the
//! `BENCH_scale.json` report.
//!
//! Methodology (see DESIGN.md §14):
//!
//! * throughput is campaign iterations per second of a fixed-seed
//!   classfuzz`[stbr]` run, median over `repeats`;
//! * the scaling ratio compares the async engine at `shards` worker
//!   threads against itself at one — where cores exist it must clear the
//!   gate's floor (default ≥1.5× at 2+ shards);
//! * on a single-core machine (the CI container reports
//!   `available_parallelism() == 1`) no speedup is observable, so the
//!   gate instead asserts no-regression: one async shard must stay within
//!   the regression budget of one lockstep shard;
//! * the cross-check runs both schedules at one shard — the budget where
//!   discrepancy-set equality is well-defined, because each engine then
//!   replays the deterministic sequential campaign — and requires the
//!   `OutcomeVector::key` sets to be identical.

use std::collections::BTreeSet;

use classfuzz_core::diff::DifferentialHarness;
use classfuzz_core::engine::{
    run_campaign_parallel, Algorithm, CampaignConfig, CampaignResult, Schedule,
};
use classfuzz_core::seeds::SeedCorpus;
use classfuzz_coverage::UniquenessCriterion;

use crate::covbench::json_number;
use crate::median;

/// Seed-corpus size for the throughput campaigns.
const SCALE_SEEDS: usize = 12;
/// Iteration budget for the throughput campaigns.
const SCALE_ITERATIONS: usize = 2000;
/// Iteration budget for the discrepancy cross-check (the pinned budget
/// `tests/async_engine.rs` uses).
const CROSSCHECK_ITERATIONS: usize = 600;
/// Master RNG seed for both.
const SCALE_RNG_SEED: u64 = 21;

/// The `BENCH_scale.json` payload.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleBenchReport {
    /// Cores the machine reports (`available_parallelism`).
    pub cores: usize,
    /// Worker shards the multi-shard measurement used.
    pub shards: usize,
    /// Repeats each timing is the median of.
    pub repeats: usize,
    /// Campaign iterations per second: lockstep engine, one shard.
    pub lockstep_iters_per_sec: f64,
    /// Campaign iterations per second: async engine, one shard.
    pub async_iters_per_sec_1shard: f64,
    /// Campaign iterations per second: async engine, `shards` shards.
    pub async_iters_per_sec_multi: f64,
    /// `async_iters_per_sec_multi / async_iters_per_sec_1shard` — the
    /// shard-scaling ratio the multi-core gate floors.
    pub scaling_ratio: f64,
    /// `async_iters_per_sec_1shard / lockstep_iters_per_sec` — the
    /// single-core no-regression ratio.
    pub async_vs_lockstep_ratio: f64,
    /// Distinct discrepancy keys the one-shard cross-check found.
    pub crosscheck_keys: usize,
    /// 1.0 when the async and lockstep key sets are identical, else 0.0.
    pub crosscheck_pass: f64,
}

fn scale_config(iterations: usize, schedule: Schedule) -> CampaignConfig {
    CampaignConfig::new(
        Algorithm::Classfuzz(UniquenessCriterion::StBr),
        iterations,
        SCALE_RNG_SEED,
    )
    .with_schedule(schedule)
}

/// Median iterations/second of the configured campaign over `repeats`.
fn campaign_iters_per_sec(
    seeds: &[classfuzz_jimple::IrClass],
    config: &CampaignConfig,
    shards: usize,
    repeats: usize,
) -> f64 {
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let result = run_campaign_parallel(seeds, config, shards)
                .expect("benchmark campaign must not fail");
            config.iterations as f64 / result.elapsed.as_secs_f64().max(1e-9)
        })
        .collect();
    median(samples)
}

/// The set of startup-phase discrepancy keys a suite triggers.
fn discrepancy_keys(result: &CampaignResult) -> BTreeSet<String> {
    let harness = DifferentialHarness::paper_five();
    result
        .test_bytes()
        .iter()
        .map(|bytes| harness.run(bytes))
        .filter(|vector| vector.is_discrepancy())
        .map(|vector| vector.key())
        .collect()
}

/// Runs the shard-scaling benchmark and the discrepancy cross-check.
pub fn run_scale_bench(repeats: usize) -> ScaleBenchReport {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // 2+ shards where cores exist (capped: oversubscribing a laptop adds
    // noise, not signal); 2 even on one core so the free-running paths
    // are exercised, though the gate only floors the ratio where real
    // parallelism exists.
    let shards = cores.clamp(2, 4);
    let seeds = SeedCorpus::generate(SCALE_SEEDS, SCALE_RNG_SEED).into_classes();

    let lockstep_iters_per_sec = campaign_iters_per_sec(
        &seeds,
        &scale_config(SCALE_ITERATIONS, Schedule::Lockstep),
        1,
        repeats,
    );
    let async_iters_per_sec_1shard = campaign_iters_per_sec(
        &seeds,
        &scale_config(SCALE_ITERATIONS, Schedule::Async),
        1,
        repeats,
    );
    let async_iters_per_sec_multi = campaign_iters_per_sec(
        &seeds,
        &scale_config(SCALE_ITERATIONS, Schedule::Async),
        shards,
        repeats,
    );

    // Fixed-budget cross-check at one shard, where both schedules replay
    // the deterministic sequential campaign and set equality is exact.
    let lockstep = run_campaign_parallel(
        &seeds,
        &scale_config(CROSSCHECK_ITERATIONS, Schedule::Lockstep),
        1,
    )
    .expect("crosscheck campaign must not fail");
    let async_run = run_campaign_parallel(
        &seeds,
        &scale_config(CROSSCHECK_ITERATIONS, Schedule::Async),
        1,
    )
    .expect("crosscheck campaign must not fail");
    let lockstep_keys = discrepancy_keys(&lockstep);
    let async_keys = discrepancy_keys(&async_run);
    let crosscheck_pass = !lockstep_keys.is_empty() && lockstep_keys == async_keys;

    ScaleBenchReport {
        cores,
        shards,
        repeats,
        lockstep_iters_per_sec,
        async_iters_per_sec_1shard,
        async_iters_per_sec_multi,
        scaling_ratio: async_iters_per_sec_multi / async_iters_per_sec_1shard.max(1e-9),
        async_vs_lockstep_ratio: async_iters_per_sec_1shard / lockstep_iters_per_sec.max(1e-9),
        crosscheck_keys: lockstep_keys.len(),
        crosscheck_pass: if crosscheck_pass { 1.0 } else { 0.0 },
    }
}

impl ScaleBenchReport {
    /// Renders the report as the `BENCH_scale.json` payload.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"cores\": {},\n  \"shards\": {},\n  \"repeats\": {},\n  \
             \"lockstep_iters_per_sec\": {:.1},\n  \
             \"async_iters_per_sec_1shard\": {:.1},\n  \
             \"async_iters_per_sec_multi\": {:.1},\n  \
             \"scaling_ratio\": {:.2},\n  \
             \"async_vs_lockstep_ratio\": {:.2},\n  \
             \"crosscheck_keys\": {},\n  \
             \"crosscheck_pass\": {:.0}\n}}\n",
            self.cores,
            self.shards,
            self.repeats,
            self.lockstep_iters_per_sec,
            self.async_iters_per_sec_1shard,
            self.async_iters_per_sec_multi,
            self.scaling_ratio,
            self.async_vs_lockstep_ratio,
            self.crosscheck_keys,
            self.crosscheck_pass,
        )
    }
}

/// Compares a fresh report against the committed baseline. Returns the
/// gate failures — empty means the gate passes.
///
/// * the cross-check must pass unconditionally;
/// * with 2+ cores, `scaling_ratio` must clear `min_speedup` (the
///   acceptance criteria's ≥1.5× at 2+ shards);
/// * on a single core, the speedup floor is vacuous (every shard handoff
///   is a scheduler round-trip), so the gate instead requires one async
///   shard within `max_regression` of one lockstep shard;
/// * `async_iters_per_sec_1shard` is additionally held to the committed
///   (machine-dependent, hence pessimistic) baseline under
///   `max_regression`.
pub fn check_scale_report(
    report: &ScaleBenchReport,
    baseline_json: &str,
    max_regression: f64,
    min_speedup: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    if report.crosscheck_pass != 1.0 {
        failures.push(format!(
            "async vs lockstep fixed-budget discrepancy cross-check failed \
             ({} lockstep keys)",
            report.crosscheck_keys
        ));
    }
    if report.cores >= 2 {
        if report.scaling_ratio < min_speedup {
            failures.push(format!(
                "async scaling ratio {:.2}x at {} shards ({} cores) is below \
                 the {min_speedup:.1}x floor",
                report.scaling_ratio, report.shards, report.cores
            ));
        }
    } else if report.async_vs_lockstep_ratio < 1.0 / max_regression {
        failures.push(format!(
            "single-core guard: async at 1 shard runs {:.2}x of lockstep, \
             below the {:.2}x no-regression floor",
            report.async_vs_lockstep_ratio,
            1.0 / max_regression
        ));
    }
    match json_number(baseline_json, "async_iters_per_sec_1shard") {
        Some(base) if report.async_iters_per_sec_1shard < base / max_regression => {
            failures.push(format!(
                "async_iters_per_sec_1shard regressed: {:.1} vs baseline {base:.1} \
                 (budget {max_regression:.2}x)",
                report.async_iters_per_sec_1shard
            ));
        }
        Some(_) => {}
        None => failures.push("baseline is missing \"async_iters_per_sec_1shard\"".to_string()),
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ScaleBenchReport {
        ScaleBenchReport {
            cores: 4,
            shards: 4,
            repeats: 3,
            lockstep_iters_per_sec: 50_000.0,
            async_iters_per_sec_1shard: 52_000.0,
            async_iters_per_sec_multi: 130_000.0,
            scaling_ratio: 2.5,
            async_vs_lockstep_ratio: 1.04,
            crosscheck_keys: 7,
            crosscheck_pass: 1.0,
        }
    }

    #[test]
    fn json_roundtrip_and_gate() {
        let report = sample_report();
        let json = report.to_json();
        assert_eq!(json_number(&json, "scaling_ratio"), Some(2.5));
        assert_eq!(json_number(&json, "crosscheck_pass"), Some(1.0));
        assert!(check_scale_report(&report, &json, 1.2, 1.5).is_empty());

        // Cross-check failure always fails the gate.
        let mut bad = report.clone();
        bad.crosscheck_pass = 0.0;
        assert!(check_scale_report(&bad, &json, 1.2, 1.5)
            .iter()
            .any(|f| f.contains("cross-check")));

        // Multi-core: a scaling ratio below the floor fails.
        let mut flat = report.clone();
        flat.scaling_ratio = 1.1;
        assert!(check_scale_report(&flat, &json, 1.2, 1.5)
            .iter()
            .any(|f| f.contains("scaling ratio")));

        // A >20% throughput regression against the baseline fails.
        let mut slow = report.clone();
        slow.async_iters_per_sec_1shard = 40_000.0;
        assert!(check_scale_report(&slow, &json, 1.2, 1.5)
            .iter()
            .any(|f| f.contains("regressed")));
    }

    #[test]
    fn single_core_guard_swaps_the_floor() {
        let mut report = sample_report();
        report.cores = 1;
        report.shards = 2;
        // No observable scaling on one core — must not fail the floor...
        report.scaling_ratio = 0.9;
        let json = report.to_json();
        assert!(check_scale_report(&report, &json, 1.2, 1.5).is_empty());
        // ...but async dropping far below lockstep does fail the guard.
        report.async_vs_lockstep_ratio = 0.5;
        assert!(check_scale_report(&report, &json, 1.2, 1.5)
            .iter()
            .any(|f| f.contains("single-core guard")));
    }
}
