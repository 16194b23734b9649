//! Fault-containment integration tests (see DESIGN.md, "Fault
//! containment"): a campaign with an always-panicking mutator in the
//! rotation must run to its full budget, record every injected panic as a
//! crash, persist reproducers to the crash corpus, and — at one shard —
//! replay the sequential engine bit for bit, crashes included — and a
//! shard dying outside containment must fail the campaign with a
//! structured `EngineError` instead of a hang.

use std::path::PathBuf;

use classfuzz::core::engine::{
    run_campaign, run_campaign_parallel, Algorithm, CampaignConfig, CrashSite,
};
use classfuzz::core::seeds::SeedCorpus;
use classfuzz::jimple::IrClass;

fn small_seeds() -> Vec<IrClass> {
    SeedCorpus::generate(10, 93).into_classes()
}

/// Uniquefuzz selects mutators uniformly, so the injected chaos mutator
/// (1 of 130) is actually drawn; MCMC's local walk rarely reaches the last
/// index in a short campaign. Seed 29 hits it within the one-shard
/// budgets below.
fn chaos_config(iterations: usize) -> CampaignConfig {
    CampaignConfig::new(Algorithm::Uniquefuzz, iterations, 29).with_panic_injection()
}

/// The budget of the multi-shard chaos campaigns. Their shards' streams
/// depend on thread interleaving, so no seed pins a hit; at this budget a
/// 1-in-130 draw misses every iteration with probability below 1e-6.
const MULTI_SHARD_CHAOS_ITERATIONS: usize = 2000;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("classfuzz_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn chaos_campaign_runs_to_budget_and_records_crashes() {
    let seeds = small_seeds();
    let config = chaos_config(MULTI_SHARD_CHAOS_ITERATIONS);
    let result = run_campaign_parallel(&seeds, &config, 4).expect("engine error");
    // Every iteration completed despite the panicking mutator.
    let iters: usize = result.shard_stats.iter().map(|s| s.iterations).sum();
    assert_eq!(iters, MULTI_SHARD_CHAOS_ITERATIONS);
    assert!(
        !result.crashes.is_empty(),
        "chaos mutator never selected in {iters} iterations"
    );
    for crash in &result.crashes {
        assert!(matches!(crash.site, CrashSite::Mutator { .. }));
        assert!(crash.shard_id < 4);
        assert!(
            crash.detail.contains("chaos mutator"),
            "detail: {}",
            crash.detail
        );
        assert!(
            !crash.bytes.is_empty(),
            "reproducer bytes must be preserved"
        );
    }
}

#[test]
fn one_shard_chaos_campaign_replays_sequential_crashes_exactly() {
    let seeds = small_seeds();
    let config = chaos_config(80);
    let sequential = run_campaign(&seeds, &config);
    let parallel = run_campaign_parallel(&seeds, &config, 1).expect("engine error");
    assert_eq!(sequential.crashes, parallel.crashes);
    assert_eq!(sequential.test_classes, parallel.test_classes);
    assert_eq!(
        sequential
            .gen_classes
            .iter()
            .map(|g| &g.bytes)
            .collect::<Vec<_>>(),
        parallel
            .gen_classes
            .iter()
            .map(|g| &g.bytes)
            .collect::<Vec<_>>()
    );
    assert_eq!(sequential.mutator_stats, parallel.mutator_stats);
}

#[test]
fn parallel_engine_writes_the_crash_corpus() {
    let dir = temp_dir("crashcorpus");
    let seeds = small_seeds();
    let config = chaos_config(MULTI_SHARD_CHAOS_ITERATIONS).with_crash_dir(dir.clone());
    let result = run_campaign_parallel(&seeds, &config, 4).expect("engine error");
    assert!(!result.crashes.is_empty());
    for (i, crash) in result.crashes.iter().enumerate() {
        let class = dir.join(format!("crash_{i:04}_{}.class", crash.site.label()));
        let bytes = std::fs::read(&class)
            .unwrap_or_else(|e| panic!("missing corpus entry {}: {e}", class.display()));
        assert_eq!(bytes, crash.bytes);
        let sidecar = std::fs::read_to_string(class.with_extension("txt")).expect("sidecar");
        assert!(sidecar.contains(&crash.detail));
        assert!(sidecar.contains(&format!("shard: {}", crash.shard_id)));
    }
    // Exactly one pair of files per crash — no stray or clobbered entries.
    let entries = std::fs::read_dir(&dir).expect("read corpus dir").count();
    assert_eq!(entries, result.crashes.len() * 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rerunning_into_a_populated_crash_dir_preserves_prior_reproducers() {
    let dir = temp_dir("crashrerun");
    let seeds = small_seeds();
    let config = chaos_config(120).with_crash_dir(dir.clone());
    // One shard, so the rerun replays the first run's crashes exactly.
    let first = run_campaign_parallel(&seeds, &config, 1).expect("engine error");
    assert!(!first.crashes.is_empty());
    let before: std::collections::BTreeMap<String, Vec<u8>> = std::fs::read_dir(&dir)
        .expect("read corpus dir")
        .map(|e| {
            let path = e.expect("dir entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name.clone(), std::fs::read(&path).expect("read entry"))
        })
        .collect();

    // Same campaign again, same directory: persist_crash must bump past
    // the first run's files instead of overwriting them.
    let second = run_campaign_parallel(&seeds, &config, 1).expect("engine error");
    assert_eq!(first.crashes, second.crashes, "chaos replay must match");
    for (name, bytes) in &before {
        assert_eq!(
            std::fs::read(dir.join(name)).ok().as_deref(),
            Some(bytes.as_slice()),
            "first-run reproducer {name} was clobbered by the rerun"
        );
    }
    let entries = std::fs::read_dir(&dir).expect("read corpus dir").count();
    assert_eq!(
        entries,
        (first.crashes.len() + second.crashes.len()) * 2,
        "every crash of both runs keeps its own classfile + sidecar pair"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lockstep_shard_death_surfaces_structured_engine_error() {
    let seeds = small_seeds();
    let config = CampaignConfig::new(Algorithm::Uniquefuzz, 50, 29).with_shard_death_injection(1);
    // Reaching the assertions at all is half the test: the surviving shard
    // must wind down through the stop flag, not run on or hang.
    let err = run_campaign_parallel(&seeds, &config, 2)
        .expect_err("an injected shard death must fail the campaign");
    assert_eq!(err.shard_id, Some(1), "the dead shard must be named");
    assert_eq!(err.iterations, 0, "the shard died before its first report");
    assert!(
        err.message.contains("died outside containment")
            && err.message.contains("injected shard death"),
        "message: {}",
        err.message
    );
}

#[test]
fn chaos_iterations_still_count_toward_selector_stats() {
    let seeds = small_seeds();
    let config = chaos_config(MULTI_SHARD_CHAOS_ITERATIONS);
    let result = run_campaign_parallel(&seeds, &config, 2).expect("engine error");
    let selected: u64 = result.mutator_stats.iter().map(|s| s.selected).sum();
    assert_eq!(
        selected, MULTI_SHARD_CHAOS_ITERATIONS as u64,
        "a crashed iteration is consumed, not retried"
    );
    // The chaos mutator sits one past the paper's 129 and never succeeds.
    let chaos = result.mutator_stats.last().expect("stats non-empty");
    assert!(chaos.selected > 0);
    assert_eq!(chaos.successes, 0);
}
