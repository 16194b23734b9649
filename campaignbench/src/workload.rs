//! The four benchmark workloads. Each is one closed-loop campaign (one
//! client; the next iteration starts when the previous one finishes)
//! followed by the five-profile evaluation of every class it generated.
//! `--seed` drives both the seed corpus and the campaign RNG.

use classfuzz_core::engine::{
    run_campaign, run_campaign_parallel, Algorithm, CampaignConfig, CampaignResult, Schedule,
};
use classfuzz_core::seeds::{SeedCorpus, SeedShape};
use classfuzz_coverage::UniquenessCriterion;

/// The seed the pinned outputs were recorded with.
pub const DEFAULT_SEED: u64 = 20160613;

/// Seed-corpus size: the paper's §3.1.1 corpus of 1,216 classes.
pub const SEEDS: usize = 1216;

/// Shards of the traced run that measures the async engine's scaling:
/// the 2 threads the benchmark may use.
pub const SCALING_SHARDS: usize = 2;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// classfuzz[stbr], sequential: the Table 4 headline loop.
    StbrPaper,
    /// randfuzz: no tracing and no acceptance, so mutation, lowering and
    /// evaluation dominate.
    RandfuzzTriage,
    /// classfuzz[tr] on mixed-shape seeds: about a tenth of candidates
    /// are accepted, so the accept path writes and the pool grows.
    TrMixed,
    /// The stbr-paper configuration on the free-running async engine at
    /// one shard, which replays the sequential campaign bit for bit.
    Async1Shard,
}

/// Outputs recorded at [`DEFAULT_SEED`] that every repeat must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pins {
    /// Generated classes.
    pub generated: u64,
    /// Accepted classes.
    pub accepted: u64,
    /// Distinct discrepancy keys over the generated classes.
    pub distinct_keys: u64,
    /// `triage::campaign_digest` of the campaign.
    pub digest: u64,
    /// `Evaluation::digest` of the evaluation.
    pub eval_digest: u64,
}

impl Pins {
    /// The pinned outputs by the names samples report them under.
    pub fn named(&self) -> [(&'static str, u64); 5] {
        [
            ("generated", self.generated),
            ("accepted", self.accepted),
            ("distinct_keys", self.distinct_keys),
            ("digest", self.digest),
            ("eval_digest", self.eval_digest),
        ]
    }
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::StbrPaper,
        Workload::RandfuzzTriage,
        Workload::TrMixed,
        Workload::Async1Shard,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StbrPaper => "stbr-paper",
            Workload::RandfuzzTriage => "randfuzz-triage",
            Workload::TrMixed => "tr-mixed",
            Workload::Async1Shard => "async-1shard",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Threads the campaign runs on: the async engine's shard plus the
    /// thread that collects its reports.
    pub fn threads(self) -> usize {
        match self {
            Workload::Async1Shard => 2,
            _ => 1,
        }
    }

    /// The campaign's iteration budget.
    pub fn iterations(self) -> usize {
        match self {
            Workload::StbrPaper | Workload::Async1Shard => 20_000,
            Workload::RandfuzzTriage => 30_000,
            Workload::TrMixed => 8_000,
        }
    }

    /// The seed corpus.
    pub fn corpus(self, seed: u64, count: usize) -> SeedCorpus {
        let shape = match self {
            Workload::TrMixed => SeedShape::Mixed,
            _ => SeedShape::Classic,
        };
        SeedCorpus::generate_shaped(count, seed, shape)
    }

    /// The campaign configuration for `iterations` iterations.
    pub fn config(self, seed: u64, iterations: usize) -> CampaignConfig {
        match self {
            Workload::StbrPaper => CampaignConfig::new(
                Algorithm::Classfuzz(UniquenessCriterion::StBr),
                iterations,
                seed,
            ),
            Workload::RandfuzzTriage => CampaignConfig::new(Algorithm::Randfuzz, iterations, seed),
            Workload::TrMixed => CampaignConfig::new(
                Algorithm::Classfuzz(UniquenessCriterion::Tr),
                iterations,
                seed,
            ),
            Workload::Async1Shard => Workload::StbrPaper
                .config(seed, iterations)
                .with_schedule(Schedule::Async),
        }
    }

    /// Runs the workload's campaign on its engine.
    pub fn run(
        self,
        seeds: &[classfuzz_jimple::IrClass],
        config: &CampaignConfig,
    ) -> Result<CampaignResult, String> {
        match self {
            Workload::Async1Shard => {
                run_campaign_parallel(seeds, config, 1).map_err(|e| e.to_string())
            }
            _ => Ok(run_campaign(seeds, config)),
        }
    }

    /// The outputs pinned at [`DEFAULT_SEED`]. The one-shard async engine
    /// must reproduce the sequential stbr-paper campaign exactly.
    pub fn pins(self) -> Pins {
        match self {
            Workload::StbrPaper | Workload::Async1Shard => Pins {
                generated: 18201,
                accepted: 344,
                distinct_keys: 37,
                digest: 1578148962666429659,
                eval_digest: 6192300941163408858,
            },
            Workload::RandfuzzTriage => Pins {
                generated: 25777,
                accepted: 25777,
                distinct_keys: 43,
                digest: 9948427484777509040,
                eval_digest: 9583184190753978030,
            },
            Workload::TrMixed => Pins {
                generated: 7381,
                accepted: 748,
                distinct_keys: 35,
                digest: 15783657232942658907,
                eval_digest: 14865895249892252791,
            },
        }
    }
}
