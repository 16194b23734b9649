//! The `yield` scenario's workload ([`crate::scenario`]): how many
//! *distinct* discrepancy keys a fixed iteration budget finds with uniform
//! seed weighting (the historical behavior) versus greedy max-cover
//! selection plus live corpus distillation.
//!
//! Methodology (see EXPERIMENTS.md "Yield benchmark"):
//!
//! * both arms run the same sequential classfuzz `[stbr]` campaigns over
//!   the same classic-shape corpora (the template mix with the most
//!   redundancy, hence where selection has the most to prune), so the
//!   comparison is deterministic — the arms differ only in
//!   `--seed-select` and `--pool-cap`;
//! * the budget is several short campaigns (distinct master RNG seeds)
//!   rather than one long one: distinct startup keys saturate with
//!   budget, and the gate must sit on the climbing part of the curve
//!   where selection quality is visible;
//! * yield is the number of distinct discrepancy keys across the arm's
//!   campaigns — startup keys plus execution-divergence keys, the same
//!   encodings the CLI reports;
//! * determinism makes repeats pointless (every rerun reproduces the
//!   same key sets bit for bit), so the scenario ignores `--repeats`.

use std::collections::BTreeSet;

use classfuzz_core::diff::DifferentialHarness;
use classfuzz_core::engine::{run_campaign, Algorithm, CampaignConfig, CampaignResult, SeedSelect};
use classfuzz_core::seeds::{SeedCorpus, SeedShape};
use classfuzz_coverage::UniquenessCriterion;

use crate::scenario::Metric;

/// Seed-corpus size per campaign.
const YIELD_SEEDS: usize = 48;
/// Iteration budget per campaign.
const YIELD_ITERATIONS: usize = 1000;
/// Pool cap for the maxcover+distill arm.
const YIELD_POOL_CAP: usize = 12;
/// Master RNG seeds — one fixed-budget campaign each, per arm. Spread
/// (not consecutive) so the three corpora are fully independent draws.
const YIELD_RNG_SEEDS: [u64; 3] = [31, 101, 555];

/// Every distinct discrepancy key a suite triggers: startup-phase keys,
/// plus `startup>exec` compound keys for representatives that only
/// diverge at execution (so execution-phase yield counts too).
fn discrepancy_keys(result: &CampaignResult, keys: &mut BTreeSet<String>) {
    let harness = DifferentialHarness::paper_five();
    for bytes in result.test_bytes() {
        let vector = harness.run(&bytes);
        if vector.is_discrepancy() {
            keys.insert(vector.key());
        }
        if vector.is_exec_discrepancy() {
            keys.insert(format!("{}>{}", vector.key(), vector.exec_key()));
        }
    }
}

fn yield_config(rng_seed: u64, select: SeedSelect, pool_cap: Option<usize>) -> CampaignConfig {
    let mut config = CampaignConfig::new(
        Algorithm::Classfuzz(UniquenessCriterion::StBr),
        YIELD_ITERATIONS,
        rng_seed,
    )
    .with_seed_select(select);
    if let Some(cap) = pool_cap {
        config = config.with_pool_cap(cap);
    }
    config
}

/// Runs one arm: a fixed-budget campaign per master seed, over that
/// seed's classic-shape corpus, unioning distinct discrepancy keys.
/// Returns the key count plus the arm's total distillation telemetry.
fn run_arm(select: SeedSelect, pool_cap: Option<usize>) -> (usize, u64, u64) {
    let mut keys = BTreeSet::new();
    let mut distill_passes = 0;
    let mut distill_evicted = 0;
    for rng_seed in YIELD_RNG_SEEDS {
        let corpus = SeedCorpus::generate_shaped(YIELD_SEEDS, rng_seed, SeedShape::Classic);
        let config = yield_config(rng_seed, select, pool_cap);
        let result = run_campaign(corpus.classes(), &config);
        distill_passes += result.acceptance.distill_passes;
        distill_evicted += result.acceptance.distill_evicted;
        discrepancy_keys(&result, &mut keys);
    }
    (keys.len(), distill_passes, distill_evicted)
}

/// Runs the fixed-budget yield comparison. `_repeats` is unused: both
/// arms are deterministic, so a rerun cannot change the result.
pub fn run(_repeats: usize) -> Vec<Metric> {
    let (uniform_keys, _, _) = run_arm(SeedSelect::Uniform, None);
    let (maxcover_keys, distill_passes, distill_evicted) =
        run_arm(SeedSelect::MaxCover, Some(YIELD_POOL_CAP));
    vec![
        Metric::count("seeds", YIELD_SEEDS),
        Metric::count("iterations", YIELD_ITERATIONS),
        Metric::count("campaigns", YIELD_RNG_SEEDS.len()),
        Metric::count("pool_cap", YIELD_POOL_CAP),
        Metric::count("uniform_keys", uniform_keys),
        Metric::count("maxcover_keys", maxcover_keys),
        Metric::new(
            "yield_ratio",
            maxcover_keys as f64 / (uniform_keys as f64).max(1e-9),
            2,
        ),
        Metric::count("distill_passes", distill_passes as usize),
        Metric::count("distill_evicted", distill_evicted as usize),
    ]
}
