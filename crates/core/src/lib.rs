#![warn(missing_docs)]
//! classfuzz — the paper's primary contribution: coverage-directed
//! differential testing of JVM implementations (PLDI 2016).
//!
//! The pipeline (Figure 1 of the paper):
//!
//! 1. [`seeds`] generates a corpus of valid, varied classfiles (the JRE 7
//!    sample stand-in);
//! 2. [`engine`] iteratively mutates them — classfuzz selects mutators with
//!    MCMC sampling and accepts mutants by coverage uniqueness on the
//!    reference JVM; uniquefuzz/greedyfuzz/randfuzz are the §3.1.2
//!    baselines;
//! 3. [`diff`] runs accepted test classes on the five JVM profiles and
//!    encodes outcomes into phase sequences (Figure 3);
//! 4. [`analyze`] counts discrepancies and distinct discrepancies, and
//!    [`report`] renders the paper's tables and figure series.
//!
//! # Examples
//!
//! ```
//! use classfuzz_core::engine::{run_campaign, Algorithm, CampaignConfig};
//! use classfuzz_core::seeds::SeedCorpus;
//! use classfuzz_core::diff::DifferentialHarness;
//! use classfuzz_core::analyze::evaluate_suite;
//! use classfuzz_coverage::UniquenessCriterion;
//!
//! let seeds = SeedCorpus::generate(8, 42).into_classes();
//! let config = CampaignConfig::new(
//!     Algorithm::Classfuzz(UniquenessCriterion::StBr), 40, 7);
//! let result = run_campaign(&seeds, &config);
//!
//! let harness = DifferentialHarness::paper_five();
//! let eval = evaluate_suite(&harness, &result.test_bytes());
//! assert_eq!(eval.total, result.test_classes.len());
//! ```

pub mod analyze;
pub mod diff;
pub mod engine;
pub mod report;
pub mod seeds;

pub use analyze::{evaluate_suite, SuiteEvaluation};
pub use diff::{DifferentialHarness, ExecDiscrepancy, OutcomeVector};
pub use engine::{
    run_campaign, run_campaign_parallel, shard_rng_seed, write_corpus_entry, Algorithm,
    CampaignConfig, CampaignResult, CrashRecord, CrashSite, EngineError, ExecReport,
    GeneratedClass, Schedule, SeedSelect, ShardStats,
};
pub use seeds::{SeedCorpus, SeedShape};
