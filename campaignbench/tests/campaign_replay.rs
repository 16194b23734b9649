//! The traced replay must reproduce `run_campaign` bit for bit, or its
//! per-layer numbers would describe a different program.

use classfuzz_campaignbench::replay::replay_campaign;
use classfuzz_campaignbench::spans::{summarize, Recorder, Stage};
use classfuzz_campaignbench::triage::{campaign_digest, evaluate, evaluate_traced};
use classfuzz_campaignbench::workload::{Workload, DEFAULT_SEED};
use classfuzz_core::diff::DifferentialHarness;
use classfuzz_core::engine::run_campaign;

const SEEDS: usize = 60;
const ITERATIONS: usize = 2000;

#[test]
fn replay_reproduces_every_workload_engine() {
    let harness = DifferentialHarness::paper_five();
    for workload in Workload::ALL {
        for seed in [DEFAULT_SEED, 7] {
            let what = format!("{} seed {seed}", workload.name());
            let corpus = workload.corpus(seed, SEEDS);
            let config = workload.config(seed, ITERATIONS);
            let engine = workload
                .run(corpus.classes(), &config)
                .expect("the workload's engine runs");
            let sequential = run_campaign(corpus.classes(), &config);
            assert_eq!(
                campaign_digest(&engine),
                campaign_digest(&sequential),
                "{what}"
            );

            let mut rec = Recorder::with_capacity(0);
            let (replayed, counters) = replay_campaign(corpus.classes(), &config, &mut rec)
                .expect("workload configurations are replayable");
            assert_eq!(replayed.test_classes, engine.test_classes, "{what}");
            assert_eq!(
                campaign_digest(&replayed),
                campaign_digest(&engine),
                "{what}"
            );
            assert_eq!(counters.iterations, ITERATIONS as u64, "{what}");
            assert!(engine.crashes.is_empty(), "{what}: the workloads run clean");

            let untraced = evaluate(&harness, &engine);
            let traced = evaluate_traced(&harness, &replayed, &mut rec);
            assert_eq!(traced.digest, untraced.digest, "{what}");
            assert_eq!(traced.keys, untraced.keys, "{what}");

            let summary = summarize(rec.spans());
            let calls = |stage| summary.iter().find(|(s, _)| *s == stage).unwrap().1.calls;
            let generated = engine.gen_classes.len() as u64;
            assert_eq!(calls(Stage::Iteration), ITERATIONS as u64, "{what}");
            assert_eq!(calls(Stage::Lower), generated, "{what}");
            assert_eq!(calls(Stage::Triage), generated, "{what}");
            assert_eq!(calls(Stage::SeedPool), SEEDS as u64 + 1, "{what}");
        }
    }
}

#[test]
fn digest_sees_any_change_to_the_suite() {
    let workload = Workload::StbrPaper;
    let corpus = workload.corpus(DEFAULT_SEED, 20);
    let mut result = run_campaign(corpus.classes(), &workload.config(DEFAULT_SEED, 200));
    let before = campaign_digest(&result);
    result.gen_classes[0].accepted = !result.gen_classes[0].accepted;
    assert_ne!(campaign_digest(&result), before);
}

#[test]
fn replay_refuses_configurations_it_does_not_cover() {
    let corpus = Workload::StbrPaper.corpus(DEFAULT_SEED, 4);
    let config = Workload::StbrPaper
        .config(DEFAULT_SEED, 10)
        .with_exec_diff();
    let mut rec = Recorder::with_capacity(0);
    assert!(replay_campaign(corpus.classes(), &config, &mut rec).is_err());
}
