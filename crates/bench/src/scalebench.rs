//! The `scale` scenario's workload ([`crate::scenario`]): the
//! free-running async engine's throughput against the lockstep engine and
//! across shard counts, plus the fixed-budget async-vs-lockstep
//! discrepancy cross-check.
//!
//! Methodology (see DESIGN.md §14):
//!
//! * throughput is campaign iterations per second of a fixed-seed
//!   classfuzz`[stbr]` run, median over `repeats`;
//! * the scaling ratio compares the async engine at `shards` worker
//!   threads against itself at one, the two timed alternately within each
//!   repeat; it is the median of the per-repeat ratios;
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

use crate::scenario::Metric;
use crate::{interleaved, median};

/// Seed-corpus size for the throughput campaigns.
const SCALE_SEEDS: usize = 12;
/// Iteration budget for the throughput campaigns.
const SCALE_ITERATIONS: usize = 2000;
/// Iteration budget for the discrepancy cross-check (the pinned budget
/// `tests/async_engine.rs` uses).
const CROSSCHECK_ITERATIONS: usize = 600;
/// Master RNG seed for both.
const SCALE_RNG_SEED: u64 = 21;

fn scale_config(iterations: usize, schedule: Schedule) -> CampaignConfig {
    CampaignConfig::new(
        Algorithm::Classfuzz(UniquenessCriterion::StBr),
        iterations,
        SCALE_RNG_SEED,
    )
    .with_schedule(schedule)
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

/// Measures lockstep and async throughput at one shard, async throughput
/// at `min(max(cores, 2), 4)` shards, and runs the one-shard cross-check.
pub fn run(repeats: usize) -> Vec<Metric> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // 2+ shards where cores exist (capped: oversubscribing a laptop adds
    // noise, not signal); 2 even on one core so the free-running paths
    // are exercised, though the gate only floors the ratio where real
    // parallelism exists.
    let shards = cores.clamp(2, 4);
    let seeds = SeedCorpus::generate(SCALE_SEEDS, SCALE_RNG_SEED).into_classes();

    // Iterations/second of one campaign, by the campaign's clock.
    let iters_per_sec = |schedule: Schedule, shards: usize| {
        let config = scale_config(SCALE_ITERATIONS, schedule);
        let result = run_campaign_parallel(&seeds, &config, shards)
            .expect("benchmark campaign must not fail");
        config.iterations as f64 / result.elapsed.as_secs_f64().max(1e-9)
    };
    let lockstep_iters_per_sec = median(
        (0..repeats)
            .map(|_| iters_per_sec(Schedule::Lockstep, 1))
            .collect(),
    );
    // The scaling floor compares the two async arms timed alternately.
    let scaling = interleaved(
        repeats,
        || iters_per_sec(Schedule::Async, shards),
        || iters_per_sec(Schedule::Async, 1),
    );
    let (async_iters_per_sec_multi, async_iters_per_sec_1shard) = (scaling.first, scaling.second);

    // Fixed-budget cross-check at one shard, where both schedules replay
    // the deterministic sequential campaign and set equality is exact.
    let crosscheck = |schedule: Schedule| {
        let config = scale_config(CROSSCHECK_ITERATIONS, schedule);
        let result =
            run_campaign_parallel(&seeds, &config, 1).expect("crosscheck campaign must not fail");
        discrepancy_keys(&result)
    };
    let lockstep_keys = crosscheck(Schedule::Lockstep);
    let crosscheck_pass = !lockstep_keys.is_empty() && lockstep_keys == crosscheck(Schedule::Async);

    vec![
        Metric::count("cores", cores),
        Metric::count("shards", shards),
        Metric::count("repeats", repeats),
        Metric::new("lockstep_iters_per_sec", lockstep_iters_per_sec, 1),
        Metric::new("async_iters_per_sec_1shard", async_iters_per_sec_1shard, 1),
        Metric::new("async_iters_per_sec_multi", async_iters_per_sec_multi, 1),
        Metric::new("scaling_ratio", scaling.ratio, 2),
        Metric::new(
            "async_vs_lockstep_ratio",
            async_iters_per_sec_1shard / lockstep_iters_per_sec.max(1e-9),
            2,
        ),
        Metric::count("crosscheck_keys", lockstep_keys.len()),
        Metric::count("crosscheck_pass", usize::from(crosscheck_pass)),
    ]
}

#[cfg(test)]
mod tests {
    use crate::scenario::{check, Metric, SCENARIOS};

    #[test]
    fn single_core_guard_swaps_the_floor() {
        let scale = SCENARIOS.iter().find(|s| s.name == "scale").unwrap();
        let baseline = "{\n  \"async_iters_per_sec_1shard\": 4000.0\n}\n";
        let judge = |cores: usize, scaling: f64, vs_lockstep: f64| {
            let run = [
                Metric::count("cores", cores),
                Metric::new("async_iters_per_sec_1shard", 52_000.0, 1),
                Metric::new("scaling_ratio", scaling, 2),
                Metric::new("async_vs_lockstep_ratio", vs_lockstep, 2),
                Metric::count("crosscheck_pass", 1),
            ];
            check(&run, &(scale.gates)(&run), baseline)
                .into_iter()
                .all(|verdict| verdict.is_ok())
        };
        // No observable scaling on one core: the floor must not fail...
        assert!(judge(1, 0.9, 1.04));
        // ...but async dropping far below lockstep fails the guard.
        assert!(!judge(1, 0.9, 0.5));
        // With cores, the scaling floor applies and the guard does not.
        assert!(!judge(4, 1.1, 1.04));
        assert!(judge(4, 2.5, 0.5));
    }
}
