//! The parallel engine's contract (see DESIGN.md §14):
//!
//! * a one-shard parallel run replays the sequential campaign bit for bit
//!   (same RNG stream, same pool at every pick, same acceptance sequence);
//! * multi-shard runs are nondeterministic in *order* but sound in
//!   *acceptance*: decisions are serialized, so no duplicate trace enters
//!   the suite, and the runs keep finding the sequential campaign's
//!   discrepancies;
//! * a shard dying outside containment ends the campaign with a
//!   structured `EngineError` without wedging its free-running peers;
//! * any shard count runs, however far past the budget it asks.

use std::collections::BTreeSet;

use classfuzz::core::diff::DifferentialHarness;
use classfuzz::core::engine::{
    run_campaign, run_campaign_parallel, Algorithm, CampaignConfig, CampaignResult,
};
use classfuzz::core::seeds::SeedCorpus;
use classfuzz::coverage::{GlobalCoverage, TraceFile, UniquenessCriterion};
use classfuzz::jimple::lower::lower_class;
use classfuzz::vm::{Jvm, VmSpec};

fn small_seeds() -> Vec<classfuzz::jimple::IrClass> {
    SeedCorpus::generate(10, 93).into_classes()
}

/// The union reference-VM coverage of a campaign's accepted suite.
fn suite_coverage(result: &CampaignResult) -> GlobalCoverage {
    let reference = Jvm::new(VmSpec::hotspot9());
    let mut global = GlobalCoverage::new();
    for bytes in result.test_bytes() {
        let mut trace = TraceFile::new();
        reference.run_traced_into(&bytes, &mut trace);
        global.absorb(&trace);
    }
    global
}

/// The set of startup-phase discrepancy keys a campaign's suite triggers.
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

#[test]
fn one_shard_async_replays_sequential_for_every_algorithm() {
    let seeds = small_seeds();
    for algorithm in Algorithm::table4_lineup() {
        let config = CampaignConfig::new(algorithm, 60, 17);
        let sequential = run_campaign(&seeds, &config);
        let parallel = run_campaign_parallel(&seeds, &config, 1).expect("engine error");

        assert_eq!(
            sequential.test_classes, parallel.test_classes,
            "{algorithm}: accepted indices diverge"
        );
        assert_eq!(
            sequential
                .gen_classes
                .iter()
                .map(|g| (&g.bytes, g.mutator_id, g.accepted))
                .collect::<Vec<_>>(),
            parallel
                .gen_classes
                .iter()
                .map(|g| (&g.bytes, g.mutator_id, g.accepted))
                .collect::<Vec<_>>(),
            "{algorithm}: generated streams diverge"
        );
        assert_eq!(
            sequential.mutator_stats, parallel.mutator_stats,
            "{algorithm}"
        );
        assert_eq!(sequential.acceptance, parallel.acceptance, "{algorithm}");
        assert_eq!(sequential.crashes, parallel.crashes, "{algorithm}");
        // The ISSUE's floor is superset-of-or-equal coverage; bit-identical
        // replay gives exact equality.
        assert_eq!(
            suite_coverage(&sequential).stats(),
            suite_coverage(&parallel).stats(),
            "{algorithm}: accepted-suite coverage diverges"
        );
    }
}

#[test]
fn one_shard_async_replays_sequential_with_seed_intelligence_on() {
    // The §14 replay contract must survive the seed-intelligence layer
    // (DESIGN.md §15): with max-cover selection reordering the initial
    // pool and distillation evicting at iteration boundaries, a one-shard
    // async run still replays the sequential campaign bit for bit —
    // selection happens before the loop, and both engines distill the
    // identical pool at the identical boundaries.
    use classfuzz::core::engine::SeedSelect;
    let seeds = small_seeds();
    for algorithm in Algorithm::table4_lineup() {
        let config = CampaignConfig::new(algorithm, 90, 17)
            .with_seed_select(SeedSelect::MaxCover)
            .with_pool_cap(4);
        let sequential = run_campaign(&seeds, &config);
        let parallel = run_campaign_parallel(&seeds, &config, 1).expect("engine error");

        assert_eq!(
            sequential.test_classes, parallel.test_classes,
            "{algorithm}: accepted indices diverge under maxcover + distill"
        );
        assert_eq!(
            sequential
                .gen_classes
                .iter()
                .map(|g| (&g.bytes, g.mutator_id, g.accepted))
                .collect::<Vec<_>>(),
            parallel
                .gen_classes
                .iter()
                .map(|g| (&g.bytes, g.mutator_id, g.accepted))
                .collect::<Vec<_>>(),
            "{algorithm}: generated streams diverge under maxcover + distill"
        );
        assert_eq!(
            sequential.acceptance.distill_passes, parallel.acceptance.distill_passes,
            "{algorithm}: distillation pass counts diverge"
        );
        assert_eq!(
            sequential.acceptance.distill_evicted, parallel.acceptance.distill_evicted,
            "{algorithm}: distillation eviction counts diverge"
        );
    }
}

#[test]
fn async_discrepancy_key_set_matches_sequential_at_fixed_budget() {
    // The fixed-budget cross-check, run where discrepancy-set equality is
    // well-defined: at one shard the async engine replays the sequential
    // campaign, so it must surface *exactly* its discrepancy keys from the
    // same pinned corpus and budget. At two or more shards the accepted
    // set is interleaving-dependent and the key sets only overlap — that
    // weaker property is asserted separately below. See DESIGN.md §14.
    let seeds = SeedCorpus::generate(12, 21).into_classes();
    let config = CampaignConfig::new(Algorithm::Classfuzz(UniquenessCriterion::StBr), 600, 21);
    let sequential = run_campaign(&seeds, &config);
    let async_run = run_campaign_parallel(&seeds, &config, 1).expect("async engine error");
    let sequential_keys = discrepancy_keys(&sequential);
    let async_keys = discrepancy_keys(&async_run);
    assert!(
        !sequential_keys.is_empty(),
        "the pinned corpus must trigger discrepancies"
    );
    assert_eq!(
        sequential_keys, async_keys,
        "async and sequential must find the same discrepancy key set"
    );
}

#[test]
fn multi_shard_async_finds_overlapping_discrepancy_keys() {
    // At three free-running shards the candidate stream depends on thread
    // interleaving, so exact key-set equality is not a defined property;
    // what must hold is that the async engine keeps *finding* the corpus's
    // discrepancies — a non-empty key set sharing its core with the
    // sequential campaign's.
    let seeds = SeedCorpus::generate(12, 21).into_classes();
    let config = CampaignConfig::new(Algorithm::Classfuzz(UniquenessCriterion::StBr), 600, 21);
    let sequential = run_campaign(&seeds, &config);
    let async_run = run_campaign_parallel(&seeds, &config, 3).expect("async engine error");
    let sequential_keys = discrepancy_keys(&sequential);
    let async_keys = discrepancy_keys(&async_run);
    assert!(!async_keys.is_empty(), "async found no discrepancies");
    assert!(
        sequential_keys.intersection(&async_keys).next().is_some(),
        "async ({async_keys:?}) and sequential ({sequential_keys:?}) share no keys"
    );
}

#[test]
fn async_multi_shard_acceptance_rejects_duplicate_statistics() {
    // Soundness under concurrency: decisions are serialized under the
    // shared lock, so two shards can never both accept equal [stbr]
    // statistics.
    let seeds = small_seeds();
    let config = CampaignConfig::new(Algorithm::Classfuzz(UniquenessCriterion::StBr), 150, 5);
    let result = run_campaign_parallel(&seeds, &config, 4).expect("engine error");
    assert!(!result.test_classes.is_empty(), "campaign accepted nothing");

    let reference = Jvm::new(VmSpec::hotspot9());
    let mut seen = BTreeSet::new();
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
    // Every iteration of the shared budget was claimed by somebody.
    let iterations: usize = result.shard_stats.iter().map(|s| s.iterations).sum();
    assert_eq!(iterations, 150);
    let accepted: usize = result.shard_stats.iter().map(|s| s.accepted).sum();
    assert_eq!(accepted, result.test_classes.len());
}

/// The reference VM's startup trace of `bytes`, recorded afresh.
fn retrace(reference: &Jvm, bytes: &[u8]) -> TraceFile {
    let mut trace = TraceFile::new();
    reference.run_traced_into(bytes, &mut trace);
    trace
}

#[test]
fn multi_shard_tr_and_greedy_accept_no_duplicate_traces() {
    // Soundness at the engine level, for the two criteria that compare
    // whole traces: four free-running shards decide under one lock, so no
    // accepted trace may statically equal a seed's or an earlier accept's
    // (whichever shard made it), and under greedyfuzz every accepted trace
    // must cover a site the seeds do not. A decision split across two lock
    // holds — check, release, insert — lets two shards accept equal traces.
    let seeds = small_seeds();
    let reference = Jvm::new(VmSpec::hotspot9());
    let seed_traces: Vec<TraceFile> = seeds
        .iter()
        .map(|seed| retrace(&reference, &lower_class(seed).to_bytes()))
        .collect();
    let mut seed_union = GlobalCoverage::new();
    for trace in &seed_traces {
        seed_union.absorb(trace);
    }
    for algorithm in [
        Algorithm::Classfuzz(UniquenessCriterion::Tr),
        Algorithm::Greedyfuzz,
    ] {
        let config = CampaignConfig::new(algorithm, 300, 5);
        let result = run_campaign_parallel(&seeds, &config, 4).expect("engine error");
        assert!(
            !result.test_classes.is_empty(),
            "{algorithm}: campaign accepted nothing"
        );
        let mut suite = seed_traces.clone();
        for bytes in result.test_bytes() {
            let trace = retrace(&reference, &bytes);
            assert!(
                !suite.iter().any(|t| t.statically_equal(&trace)),
                "{algorithm}: an accepted trace equals a seed's or another accept's"
            );
            if algorithm == Algorithm::Greedyfuzz {
                assert!(
                    !seed_union.covers(&trace),
                    "{algorithm}: an accepted trace adds nothing to the seeds' coverage"
                );
            }
            suite.push(trace);
        }
    }
}

#[test]
fn async_shard_death_surfaces_structured_engine_error() {
    let seeds = small_seeds();
    let config = CampaignConfig::new(Algorithm::Classfuzz(UniquenessCriterion::StBr), 400, 7)
        .with_shard_death_injection(1);
    let err = run_campaign_parallel(&seeds, &config, 3)
        .expect_err("an injected shard death must fail the campaign");
    assert_eq!(err.shard_id, Some(1), "the dead shard must be named");
    assert_eq!(err.iterations, 0, "the shard died before its first report");
    assert!(
        err.message.contains("died outside containment"),
        "message: {}",
        err.message
    );
    assert!(
        err.message.contains("injected shard death"),
        "the panic detail must ride along: {}",
        err.message
    );
    // The surviving shards wound down through the stop flag rather than
    // wedging — reaching this line at all is the real assertion.
}

#[test]
fn a_million_shards_run_a_ten_iteration_campaign() {
    // Only as many shards as the budget has iterations are spawned, so a
    // shard count far past what the OS can start still runs to budget.
    let seeds = small_seeds();
    let config = CampaignConfig::new(Algorithm::Randfuzz, 10, 3);
    let result = run_campaign_parallel(&seeds, &config, 1_000_000).expect("engine error");
    assert_eq!(result.shard_stats.len(), 10);
    let iterations: usize = result.shard_stats.iter().map(|s| s.iterations).sum();
    assert_eq!(iterations, 10);
    // A mutation that does not apply consumes its iteration without
    // generating a class; randfuzz accepts every class it generates.
    let generated: usize = result.shard_stats.iter().map(|s| s.generated).sum();
    assert_eq!(generated, result.gen_classes.len());
    assert_eq!(result.test_classes.len(), result.gen_classes.len());
}

#[test]
fn async_degenerate_campaigns_return_empty_results() {
    let config = CampaignConfig::new(Algorithm::Randfuzz, 50, 1);
    let empty = run_campaign_parallel(&[], &config, 4).expect("engine error");
    assert!(empty.gen_classes.is_empty());
    assert!(empty.test_classes.is_empty());
    let none = run_campaign_parallel(
        &small_seeds(),
        &CampaignConfig::new(Algorithm::Randfuzz, 0, 1),
        4,
    )
    .expect("engine error");
    assert!(none.gen_classes.is_empty());
}
