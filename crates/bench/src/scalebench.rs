//! The `scale` scenario's workload ([`crate::scenario`]): the
//! free-running async engine's throughput against the sequential engine
//! and across shard counts, plus the check that async at one shard
//! replays the sequential campaign.
//!
//! Methodology (see DESIGN.md §14):
//!
//! * throughput is campaign iterations per second of a fixed-seed
//!   classfuzz`[stbr]` run, by the campaign's own clock;
//! * each ratio compares two arms timed alternately within each repeat
//!   ([`interleaved`]) and is the median of the per-repeat ratios: async
//!   at `shards` worker threads against itself at one (scaling), and async
//!   at one shard against the sequential engine (the one-core guard);
//! * the cross-check runs both engines at one shard on a fixed budget and
//!   requires equal results — generated bytes, mutators and verdicts,
//!   `TestClasses`, mutator stats and acceptance telemetry — over a suite
//!   that triggers at least one discrepancy.

use std::collections::BTreeSet;

use classfuzz_core::diff::DifferentialHarness;
use classfuzz_core::engine::{
    run_campaign, run_campaign_parallel, Algorithm, CampaignConfig, CampaignResult,
};
use classfuzz_core::seeds::SeedCorpus;
use classfuzz_coverage::UniquenessCriterion;
use classfuzz_jimple::IrClass;

use crate::interleaved;
use crate::scenario::Metric;

/// Seed-corpus size for the throughput campaigns.
const SCALE_SEEDS: usize = 12;
/// Iteration budget for the throughput campaigns.
const SCALE_ITERATIONS: usize = 2000;
/// Iteration budget for the cross-check (the pinned budget
/// `tests/async_engine.rs` uses).
const CROSSCHECK_ITERATIONS: usize = 600;
/// Master RNG seed for both.
const SCALE_RNG_SEED: u64 = 21;

fn scale_config(iterations: usize) -> CampaignConfig {
    CampaignConfig::new(
        Algorithm::Classfuzz(UniquenessCriterion::StBr),
        iterations,
        SCALE_RNG_SEED,
    )
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

/// Whether two campaigns produced the same result, wall clock aside:
/// the generated stream (bytes, mutator, verdict), `TestClasses`, mutator
/// stats and acceptance telemetry.
fn same_campaign(a: &CampaignResult, b: &CampaignResult) -> bool {
    let stream = |r: &CampaignResult| -> Vec<_> {
        r.gen_classes
            .iter()
            .map(|g| (g.bytes.clone(), g.mutator_id, g.accepted))
            .collect()
    };
    stream(a) == stream(b)
        && a.test_classes == b.test_classes
        && a.mutator_stats == b.mutator_stats
        && a.acceptance == b.acceptance
}

/// Measures sequential and async throughput at one shard, async
/// throughput at `min(max(cores, 2), 4)` shards, and runs the one-shard
/// cross-check.
pub fn run(repeats: usize) -> Vec<Metric> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // 2+ shards where cores exist (capped: oversubscribing a laptop adds
    // noise, not signal); 2 even on one core so the free-running paths
    // are exercised, though the gate only floors the ratio where real
    // parallelism exists.
    let shards = cores.clamp(2, 4);
    let seeds = SeedCorpus::generate(SCALE_SEEDS, SCALE_RNG_SEED).into_classes();

    // Iterations/second of one campaign, by the campaign's clock.
    let iters_per_sec =
        |result: CampaignResult| SCALE_ITERATIONS as f64 / result.elapsed.as_secs_f64().max(1e-9);
    let config = scale_config(SCALE_ITERATIONS);
    let run_async = |shards: usize| {
        iters_per_sec(
            run_campaign_parallel(&seeds, &config, shards)
                .expect("benchmark campaign must not fail"),
        )
    };
    let versus_sequential = interleaved(
        repeats,
        || run_async(1),
        || iters_per_sec(run_campaign(&seeds, &config)),
    );
    let scaling = interleaved(repeats, || run_async(shards), || run_async(1));
    let (async_iters_per_sec_multi, async_iters_per_sec_1shard) = (scaling.first, scaling.second);

    let (crosscheck_keys, crosscheck_pass) = crosscheck(&seeds);

    vec![
        Metric::count("cores", cores),
        Metric::count("shards", shards),
        Metric::count("repeats", repeats),
        Metric::new("sequential_iters_per_sec", versus_sequential.second, 1),
        Metric::new("async_iters_per_sec_1shard", async_iters_per_sec_1shard, 1),
        Metric::new("async_iters_per_sec_multi", async_iters_per_sec_multi, 1),
        Metric::new("scaling_ratio", scaling.ratio, 2),
        Metric::new("async_vs_sequential_ratio", versus_sequential.ratio, 2),
        Metric::count("crosscheck_keys", crosscheck_keys),
        Metric::count("crosscheck_pass", usize::from(crosscheck_pass)),
    ]
}

/// The fixed-budget cross-check: async at one shard must replay the
/// sequential campaign, over a suite with a non-empty discrepancy key set.
/// Returns the key count and the verdict.
fn crosscheck(seeds: &[IrClass]) -> (usize, bool) {
    let config = scale_config(CROSSCHECK_ITERATIONS);
    let sequential = run_campaign(seeds, &config);
    let one_shard =
        run_campaign_parallel(seeds, &config, 1).expect("crosscheck campaign must not fail");
    let keys = discrepancy_keys(&sequential).len();
    (keys, keys > 0 && same_campaign(&sequential, &one_shard))
}

#[cfg(test)]
mod tests {
    use crate::scenario::{check, Metric, SCENARIOS};

    #[test]
    fn single_core_guard_swaps_the_floor() {
        let scale = SCENARIOS.iter().find(|s| s.name == "scale").unwrap();
        let baseline = "{\n  \"async_iters_per_sec_1shard\": 4000.0\n}\n";
        let judge = |cores: usize, scaling: f64, vs_sequential: f64| {
            let run = [
                Metric::count("cores", cores),
                Metric::new("async_iters_per_sec_1shard", 52_000.0, 1),
                Metric::new("scaling_ratio", scaling, 2),
                Metric::new("async_vs_sequential_ratio", vs_sequential, 2),
                Metric::count("crosscheck_pass", 1),
            ];
            check(&run, &(scale.gates)(&run), baseline)
                .into_iter()
                .all(|verdict| verdict.is_ok())
        };
        // No observable scaling on one core: the floor must not fail...
        assert!(judge(1, 0.9, 1.04));
        // ...but async dropping far below sequential fails the guard.
        assert!(!judge(1, 0.9, 0.5));
        // With cores, the scaling floor applies and the guard does not.
        assert!(!judge(4, 1.1, 1.04));
        assert!(judge(4, 2.5, 0.5));
    }
}
