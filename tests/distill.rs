//! The seed-intelligence layer's determinism contract (DESIGN.md §15):
//!
//! * max-cover selection is a pure function of the corpus (a fixed-seed
//!   campaign with `--seed-select maxcover` replays bit for bit);
//! * live distillation fires at fixed iteration boundaries, so a capped
//!   pool evolves identically across reruns, and in the async engine at
//!   one shard as in the sequential engine;
//! * distillation never evicts the class under mutation's ancestry out
//!   from under a deterministic replay — the eviction decision is made
//!   from the same pool state at the same boundary everywhere.

use classfuzz::core::engine::{
    run_campaign, run_campaign_parallel, Algorithm, CampaignConfig, CampaignResult, SeedSelect,
};
use classfuzz::core::seeds::{SeedCorpus, SeedShape};
use classfuzz::coverage::UniquenessCriterion;

fn corpus() -> Vec<classfuzz::jimple::IrClass> {
    SeedCorpus::generate(16, 41).into_classes()
}

fn capped_config(iterations: usize) -> CampaignConfig {
    CampaignConfig::new(
        Algorithm::Classfuzz(UniquenessCriterion::StBr),
        iterations,
        41,
    )
    .with_seed_select(SeedSelect::MaxCover)
    .with_pool_cap(5)
}

fn gen_stream(result: &CampaignResult) -> Vec<(Vec<u8>, usize, bool)> {
    result
        .gen_classes
        .iter()
        .map(|g| (g.bytes.as_ref().clone(), g.mutator_id, g.accepted))
        .collect()
}

#[test]
fn capped_campaign_is_bit_identical_across_reruns() {
    let seeds = corpus();
    let config = capped_config(200);
    let first = run_campaign(&seeds, &config);
    let second = run_campaign(&seeds, &config);
    assert_eq!(first.test_classes, second.test_classes);
    assert_eq!(gen_stream(&first), gen_stream(&second));
    assert_eq!(first.mutator_stats, second.mutator_stats);
    assert_eq!(
        first.acceptance.distill_passes,
        second.acceptance.distill_passes
    );
    assert_eq!(
        first.acceptance.distill_evicted,
        second.acceptance.distill_evicted
    );
    // 200 iterations over a 32-iteration boundary: the pass counter must
    // show distillation actually ran, or this test guards nothing.
    assert!(
        first.acceptance.distill_passes > 0,
        "no distillation passes in a capped 200-iteration campaign"
    );
}

#[test]
fn distillation_actually_evicts_on_a_redundant_corpus() {
    // The classic-template corpus is deliberately redundant (many seeds
    // share startup coverage), so a tight cap must evict — otherwise the
    // keep-mask is vacuous and `--pool-cap` is a no-op in disguise.
    let seeds = corpus();
    let result = run_campaign(&seeds, &capped_config(200));
    assert!(
        result.acceptance.distill_evicted > 0,
        "a pool capped at 5 over 16 redundant seeds never evicted"
    );
}

#[test]
fn maxcover_selection_reorders_but_replays_deterministically() {
    let seeds = corpus();
    let base = CampaignConfig::new(Algorithm::Classfuzz(UniquenessCriterion::StBr), 150, 41);
    let uniform = run_campaign(&seeds, &base);
    let maxcover = run_campaign(&seeds, &base.clone().with_seed_select(SeedSelect::MaxCover));
    let maxcover_again = run_campaign(&seeds, &base.clone().with_seed_select(SeedSelect::MaxCover));
    // Deterministic: two maxcover runs agree exactly.
    assert_eq!(gen_stream(&maxcover), gen_stream(&maxcover_again));
    assert_eq!(maxcover.test_classes, maxcover_again.test_classes);
    // And selection is not a silent no-op: reordering the pool changes
    // which parents the (identical) RNG stream picks, so the generated
    // byte streams must differ between uniform and maxcover.
    assert_ne!(
        gen_stream(&uniform),
        gen_stream(&maxcover),
        "maxcover selection produced the uniform candidate stream"
    );
}

#[test]
fn one_shard_async_matches_sequential_with_distillation_on() {
    let seeds = corpus();
    let config = capped_config(200);
    let sequential = run_campaign(&seeds, &config);
    let one_shard = run_campaign_parallel(&seeds, &config, 1).expect("engine error");
    assert_eq!(sequential.test_classes, one_shard.test_classes);
    assert_eq!(gen_stream(&sequential), gen_stream(&one_shard));
    assert_eq!(
        sequential.acceptance.distill_passes,
        one_shard.acceptance.distill_passes
    );
    assert_eq!(
        sequential.acceptance.distill_evicted,
        one_shard.acceptance.distill_evicted
    );
}

#[test]
fn pool_cap_composes_with_untraced_algorithms() {
    // randfuzz accepts everything and traces nothing, so its pool entries
    // carry no coverage; distillation must degrade to the pure cap pass
    // (evict smallest-first) instead of panicking or evicting nothing.
    let seeds = corpus();
    let config = CampaignConfig::new(Algorithm::Randfuzz, 200, 41).with_pool_cap(5);
    let first = run_campaign(&seeds, &config);
    let second = run_campaign(&seeds, &config);
    assert_eq!(gen_stream(&first), gen_stream(&second));
    assert!(
        first.acceptance.distill_passes > 0,
        "capped randfuzz never ran a distillation pass"
    );
    assert!(
        first.acceptance.distill_evicted > 0,
        "randfuzz grows the pool every iteration; a cap of 5 must evict"
    );
}

#[test]
fn zero_pool_cap_runs_every_engine_to_its_full_budget() {
    // `pool_cap` is a public field, so a cap of 0 can bypass the builder;
    // distillation must treat it as 1 rather than empty the pool out from
    // under the next pick.
    let seeds = SeedCorpus::generate(12, 41).into_classes();
    let mut config = CampaignConfig::new(Algorithm::Classfuzz(UniquenessCriterion::StBr), 200, 41);
    config.pool_cap = Some(0);
    let sequential = run_campaign(&seeds, &config);
    assert!(sequential.acceptance.distill_passes > 0);
    let runs = [
        ("sequential", sequential),
        (
            "async, 1 shard",
            run_campaign_parallel(&seeds, &config, 1).expect("async engine error"),
        ),
        (
            "async, 2 shards",
            run_campaign_parallel(&seeds, &config, 2).expect("async engine error"),
        ),
    ];
    for (engine, result) in &runs {
        let iterations: usize = result.shard_stats.iter().map(|s| s.iterations).sum();
        assert_eq!(iterations, 200, "{engine} stopped short of the budget");
    }
}

#[test]
fn shaped_corpora_replay_under_the_full_intelligence_stack() {
    // The targeted-generation knobs compose with selection + distillation:
    // a mixed-shape corpus through maxcover + cap is still deterministic.
    let seeds = SeedCorpus::generate_shaped(16, 41, SeedShape::Mixed).into_classes();
    let config = capped_config(150);
    let first = run_campaign(&seeds, &config);
    let second = run_campaign(&seeds, &config);
    assert_eq!(first.test_classes, second.test_classes);
    assert_eq!(gen_stream(&first), gen_stream(&second));
}
