//! Tests for the sharded campaign engine (see DESIGN.md, "Parallel
//! campaign architecture"): a one-shard parallel campaign replays the
//! sequential engine bit for bit, any shard count preserves the acceptance
//! invariants and the budget accounting of the algorithm it runs, and a
//! degenerate campaign returns the sequential engine's empty result.

use classfuzz::core::engine::{
    run_campaign, run_campaign_parallel, shard_rng_seed, Algorithm, CampaignConfig, CampaignResult,
};
use classfuzz::core::seeds::SeedCorpus;
use classfuzz::coverage::{SuiteIndex, TraceFile, UniquenessCriterion};
use classfuzz::jimple::lower::lower_class;
use classfuzz::vm::{Jvm, VmSpec};

fn small_seeds() -> Vec<classfuzz::jimple::IrClass> {
    SeedCorpus::generate(10, 93).into_classes()
}

/// Rebuilds the coverage-uniqueness index a campaign's accepted suite
/// induces, by re-running every test class on the reference VM. Comparing
/// these indices compares the *trace contents* behind the acceptance
/// decisions, not just the counts.
fn rebuild_index(result: &CampaignResult, criterion: UniquenessCriterion) -> SuiteIndex {
    let reference = Jvm::new(VmSpec::hotspot9());
    let mut index = SuiteIndex::new(criterion);
    for bytes in result.test_bytes() {
        let mut trace = TraceFile::new();
        reference.run_traced_into(&bytes, &mut trace);
        index.insert(&trace);
    }
    index
}

#[test]
fn one_shard_replays_sequential_for_every_algorithm() {
    let seeds = small_seeds();
    for algorithm in Algorithm::table4_lineup() {
        let config = CampaignConfig::new(algorithm, 60, 17);
        let sequential = run_campaign(&seeds, &config);
        let parallel = run_campaign_parallel(&seeds, &config, 1).expect("engine error");

        assert_eq!(sequential.iterations, parallel.iterations, "{algorithm}");
        assert_eq!(
            sequential.gen_classes.len(),
            parallel.gen_classes.len(),
            "{algorithm}: generated counts diverge"
        );
        assert_eq!(
            sequential.test_classes, parallel.test_classes,
            "{algorithm}: accepted indices diverge"
        );
        for (i, (s, p)) in sequential
            .gen_classes
            .iter()
            .zip(&parallel.gen_classes)
            .enumerate()
        {
            assert_eq!(s.bytes, p.bytes, "{algorithm}: class {i} bytes diverge");
            assert_eq!(s.mutator_id, p.mutator_id, "{algorithm}: class {i} mutator");
            assert_eq!(s.accepted, p.accepted, "{algorithm}: class {i} verdict");
        }
        assert_eq!(
            sequential.mutator_stats, parallel.mutator_stats,
            "{algorithm}"
        );
        assert_eq!(sequential.shard_stats, parallel.shard_stats, "{algorithm}");

        // The accepted suites induce identical trace indices.
        let criterion = match algorithm {
            Algorithm::Classfuzz(c) => c,
            _ => UniquenessCriterion::StBr,
        };
        assert_eq!(
            rebuild_index(&sequential, criterion),
            rebuild_index(&parallel, criterion),
            "{algorithm}: trace-index contents diverge"
        );
    }
}

#[test]
fn four_shards_accept_no_duplicate_traces_under_stbr() {
    let seeds = small_seeds();
    let config = CampaignConfig::new(Algorithm::Classfuzz(UniquenessCriterion::StBr), 120, 5);
    let result = run_campaign_parallel(&seeds, &config, 4).expect("engine error");
    assert!(!result.test_classes.is_empty(), "campaign accepted nothing");

    let reference = Jvm::new(VmSpec::hotspot9());
    // Seed traces participate in uniqueness too (Algorithm 1 line 1).
    let mut seen = std::collections::BTreeSet::new();
    for seed in &seeds {
        let bytes = lower_class(seed).to_bytes();
        let mut trace = TraceFile::new();
        reference.run_traced_into(&bytes, &mut trace);
        seen.insert((trace.stats().stmt, trace.stats().br));
    }
    for bytes in result.test_bytes() {
        let mut trace = TraceFile::new();
        reference.run_traced_into(&bytes, &mut trace);
        let key = (trace.stats().stmt, trace.stats().br);
        assert!(
            seen.insert(key),
            "accepted mutant duplicates the [stbr] statistic {key:?}"
        );
    }
}

#[test]
fn shard_accounting_adds_up() {
    let seeds = small_seeds();
    let config = CampaignConfig::new(Algorithm::Uniquefuzz, 101, 3);
    let result = run_campaign_parallel(&seeds, &config, 4).expect("engine error");
    assert_eq!(result.shard_stats.len(), 4);
    // Shards steal work from one shared counter, so the split varies run
    // to run; the total is the budget.
    let iterations: usize = result.shard_stats.iter().map(|s| s.iterations).sum();
    assert_eq!(iterations, 101);
    let generated: usize = result.shard_stats.iter().map(|s| s.generated).sum();
    let accepted: usize = result.shard_stats.iter().map(|s| s.accepted).sum();
    assert_eq!(generated, result.gen_classes.len());
    assert_eq!(accepted, result.test_classes.len());
    let selected: u64 = result.mutator_stats.iter().map(|s| s.selected).sum();
    assert_eq!(selected, 101);
    // The shards' ledgers merge shard-major, with each shard's accepted
    // indices re-based past the classes of the shards before it.
    assert!(
        result.test_classes.windows(2).all(|w| w[0] < w[1]),
        "test_classes must be strictly increasing: {:?}",
        result.test_classes
    );
    for &i in &result.test_classes {
        assert!(i < result.gen_classes.len(), "index {i} out of range");
        assert!(
            result.gen_classes[i].accepted,
            "index {i} names a rejected class"
        );
    }
    let flagged = result.gen_classes.iter().filter(|g| g.accepted).count();
    assert_eq!(flagged, result.test_classes.len());
}

#[test]
fn shard_seeds_decorrelate_but_shard_zero_matches_campaign_seed() {
    assert_eq!(shard_rng_seed(42, 0), 42);
    let seeds: Vec<u64> = (0..8).map(|s| shard_rng_seed(42, s)).collect();
    let distinct: std::collections::BTreeSet<&u64> = seeds.iter().collect();
    assert_eq!(distinct.len(), seeds.len(), "shard seeds must be distinct");
}

#[test]
fn degenerate_campaigns_return_empty_results() {
    let config = CampaignConfig::new(Algorithm::Randfuzz, 50, 1);
    // No seeds: nothing to mutate, and crucially no deadlocked shards.
    let empty = run_campaign_parallel(&[], &config, 4).expect("engine error");
    assert!(empty.gen_classes.is_empty());
    assert!(empty.test_classes.is_empty());
    assert_eq!(empty.secs_per_generated(), 0.0);
    assert_eq!(empty.secs_per_test(), 0.0);
    // Zero iterations.
    let none = run_campaign_parallel(
        &small_seeds(),
        &CampaignConfig::new(Algorithm::Randfuzz, 0, 1),
        4,
    )
    .expect("engine error");
    assert!(none.gen_classes.is_empty());
    assert_eq!(none.secs_per_test(), 0.0);

    // At one shard, both engines assemble the same empty result.
    let seeds = small_seeds();
    for algorithm in [
        Algorithm::Randfuzz,
        Algorithm::Classfuzz(UniquenessCriterion::Tr),
    ] {
        for (seeds, iterations) in [(&[][..], 50), (&seeds[..], 0)] {
            let config = CampaignConfig::new(algorithm, iterations, 1);
            let sequential = run_campaign(seeds, &config);
            let async_run = run_campaign_parallel(seeds, &config, 1).expect("async engine error");
            let case = format!(
                "{algorithm}, {} seeds, {iterations} iterations",
                seeds.len()
            );
            for (engine, result) in [("sequential", &sequential), ("async", &async_run)] {
                assert!(result.gen_classes.is_empty(), "{engine}: {case}");
                assert!(result.test_classes.is_empty(), "{engine}: {case}");
                assert!(result.crashes.is_empty(), "{engine}: {case}");
                assert!(result.exec_reports.is_empty(), "{engine}: {case}");
                assert_eq!(result.iterations, iterations, "{engine}: {case}");
                assert_eq!(result.seed_count, seeds.len(), "{engine}: {case}");
                assert_eq!(
                    result.shard_stats, sequential.shard_stats,
                    "{engine}: {case}"
                );
                assert_eq!(
                    result.mutator_stats, sequential.mutator_stats,
                    "{engine}: {case}"
                );
                assert_eq!(result.acceptance, sequential.acceptance, "{engine}: {case}");
            }
            assert_eq!(sequential.shard_stats.len(), 1, "{case}");
            assert_eq!(sequential.shard_stats[0].iterations, 0, "{case}");
            assert!(!sequential.mutator_stats.is_empty(), "{case}");
        }
    }
}

/// Wall-clock speedup needs real hardware parallelism; single-core CI
/// machines (where every shard handoff is a scheduler round-trip) make any
/// timing assertion meaningless, so this runs only on demand.
#[test]
#[ignore = "timing assertion; requires a multi-core machine"]
fn four_shards_beat_one_on_wall_clock() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        eprintln!("skipping: only {cores} core(s) available");
        return;
    }
    let seeds = SeedCorpus::generate(40, 7).into_classes();
    let config = CampaignConfig::new(Algorithm::Classfuzz(UniquenessCriterion::StBr), 2000, 7);
    let sequential = run_campaign_parallel(&seeds, &config, 1).expect("engine error");
    let parallel = run_campaign_parallel(&seeds, &config, 4).expect("engine error");
    assert!(
        parallel.elapsed < sequential.elapsed,
        "4 shards ({:?}) should beat 1 shard ({:?}) at equal iteration count",
        parallel.elapsed,
        sequential.elapsed
    );
}
