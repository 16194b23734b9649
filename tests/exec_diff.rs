//! Execution-phase differential testing: property tests that
//! semantics-preserving body mutators never produce an execution
//! discrepancy, regression pins that execution diffing changes nothing
//! when disabled, and a fixed-seed campaign that deterministically finds a
//! divergence the startup-only matrix cannot see.

use classfuzz::core::diff::{DifferentialHarness, ExecDiscrepancy};
use classfuzz::core::engine::{run_campaign, run_campaign_parallel, Algorithm, CampaignConfig};
use classfuzz::core::seeds::SeedCorpus;
use classfuzz::coverage::UniquenessCriterion;
use classfuzz::jimple::{lower::lower_class, IrClass};
use classfuzz::mutation::{registry, MutationCtx, MutationError, Mutator};
use rand::SeedableRng;

fn apply_seeded(
    class: &mut IrClass,
    mutator: &Mutator,
    rng_seed: u64,
) -> Result<(), MutationError> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(rng_seed);
    let donors = vec![];
    let mut ctx = MutationCtx::new(&mut rng, &donors);
    mutator.apply(class, &mut ctx)
}

fn apply_named(
    class: &mut IrClass,
    name_fragment: &str,
    rng_seed: u64,
) -> Result<(), MutationError> {
    let all = registry::exec_mutators(0);
    let m = all
        .iter()
        .find(|m| m.name.contains(name_fragment))
        .unwrap_or_else(|| panic!("no exec mutator named *{name_fragment}*"));
    apply_seeded(class, m, rng_seed)
}

/// The acceptance-criterion mechanism: a static read off `sun/misc/Unsafe`
/// traps as `IllegalAccessError` under Java 9 encapsulation and as
/// `NoSuchFieldError` everywhere else — all at startup digit 4, so the
/// startup matrix sees a uniform "44444" while the execution verdicts
/// diverge.
#[test]
fn internal_static_read_is_invisible_to_startup_matrix() {
    let mut class = IrClass::with_hello_main("x/Probe", "Completed!");
    apply_named(&mut class, "internal class", 7).unwrap();
    let harness = DifferentialHarness::paper_five();
    let v = harness.run(&lower_class(&class).to_bytes());
    assert!(
        !v.is_discrepancy(),
        "startup key should be uniform: {}",
        v.key()
    );
    assert!(
        v.is_exec_discrepancy(),
        "exec key should diverge: {}",
        v.exec_key()
    );
    assert_eq!(v.classify_exec(), Some(ExecDiscrepancy::DivergentTrap));
    let key = v.exec_key();
    let tokens: Vec<&str> = key.split('|').collect();
    assert_eq!(tokens[2], "trap:IllegalAccessError", "{key}");
    assert_eq!(tokens[0], "trap:NoSuchFieldError", "{key}");
}

/// The preserving subset's contract: commuting commutative operands and
/// duplicating (shadowed) catch clauses must leave every profile's
/// execution verdict — and the startup key — bit-identical, over a whole
/// seed corpus and many mutation sites.
#[test]
fn preserving_mutators_never_change_execution_verdicts() {
    let harness = DifferentialHarness::paper_five();
    let corpus = SeedCorpus::generate(16, 11);
    let preserving = registry::exec_preserving_mutators(0);
    let mut applications = 0usize;
    for class in corpus.classes() {
        let baseline = harness.run(&lower_class(class).to_bytes());
        for mutator in &preserving {
            for rng_seed in 0..6u64 {
                let mut mutant = class.clone();
                match apply_seeded(&mut mutant, mutator, rng_seed) {
                    Err(MutationError::NotApplicable { .. }) => continue,
                    Ok(()) => {}
                }
                applications += 1;
                let v = harness.run(&lower_class(&mutant).to_bytes());
                assert_eq!(
                    v.key(),
                    baseline.key(),
                    "{}: startup key changed on {}",
                    mutator.name,
                    class.name
                );
                assert_eq!(
                    v.exec_key(),
                    baseline.exec_key(),
                    "{}: execution verdict changed on {}",
                    mutator.name,
                    class.name
                );
            }
        }
    }
    // The property must not pass vacuously.
    assert!(
        applications >= 30,
        "too few preserving-mutator applications: {applications}"
    );
}

// The PR 5 fixed-seed snapshot (see tests/coverage_equiv.rs): with
// execution diffing *disabled*, the campaign must stay bit-identical —
// same RNG stream, same acceptance decisions, and no execution runs.
const SNAP_SEEDS: usize = 12;
const SNAP_SEED_RNG: u64 = 21;
const SNAP_ITERATIONS: usize = 150;
const SNAP_CAMPAIGN_RNG: u64 = 20160613;

#[test]
fn exec_diff_off_preserves_the_startup_snapshot() {
    let seeds = SeedCorpus::generate(SNAP_SEEDS, SNAP_SEED_RNG).into_classes();
    let cfg = CampaignConfig::new(
        Algorithm::Classfuzz(UniquenessCriterion::StBr),
        SNAP_ITERATIONS,
        SNAP_CAMPAIGN_RNG,
    );
    assert!(!cfg.exec_diff, "execution diffing must default to off");
    let result = run_campaign(&seeds, &cfg);
    assert_eq!(
        (result.gen_classes.len(), result.test_classes.len()),
        (135, 30),
        "exec-diff-off campaign diverged from the PR 5 snapshot"
    );
    assert!(result.exec_reports.is_empty());
    assert_eq!(result.acceptance.exec_runs, 0);
    assert_eq!(result.acceptance.exec_discrepancies, 0);
}

// A fixed-seed campaign that deterministically finds execution-phase
// divergences. Uniform mutator selection (uniquefuzz) reaches the exec
// mutators far sooner than the MCMC chain, whose proposals take long to
// walk past the 129 startup mutators.
const EXEC_ITERATIONS: usize = 400;
const EXEC_CAMPAIGN_RNG: u64 = 2;

fn exec_campaign_config() -> CampaignConfig {
    CampaignConfig::new(Algorithm::Uniquefuzz, EXEC_ITERATIONS, EXEC_CAMPAIGN_RNG).with_exec_diff()
}

#[test]
fn fixed_seed_campaign_finds_pure_execution_discrepancies() {
    let seeds = SeedCorpus::generate(SNAP_SEEDS, SNAP_SEED_RNG).into_classes();
    let result = run_campaign(&seeds, &exec_campaign_config());
    // Every accepted test class was executed on all five profiles.
    assert_eq!(result.exec_reports.len(), result.test_classes.len());
    assert_eq!(
        result.acceptance.exec_runs,
        result.exec_reports.len() as u64
    );

    let pure: Vec<_> = result
        .exec_reports
        .iter()
        .filter(|r| r.is_exec_discrepancy())
        .collect();
    assert_eq!(
        pure.len(),
        4,
        "fixed-seed campaign must find its pinned divergences"
    );
    assert_eq!(result.acceptance.exec_discrepancies, 4);
    for report in &pure {
        // Each one is invisible to the startup matrix: a uniform startup
        // key (no '.'-separated digit differs) with divergent traps.
        assert_eq!(report.taxonomy, Some(ExecDiscrepancy::DivergentTrap));
        let digits: Vec<&str> = report.startup_key.split('.').collect();
        assert!(
            digits.windows(2).all(|w| w[0] == w[1]),
            "startup key not uniform: {}",
            report.startup_key
        );
        let tokens: Vec<&str> = report.exec_key.split('|').collect();
        assert!(
            tokens.iter().any(|t| *t != tokens[0]),
            "exec key not divergent: {}",
            report.exec_key
        );
    }
}

// The PR 9 snapshot: the prepare-once interpreter must leave the
// exec-diff campaign bit-identical — same accepted classes, same RNG
// stream, same divergence keys. Any probe added to or removed from the
// execution path shifts acceptance decisions and breaks these counts.
#[test]
fn exec_diff_campaign_snapshot_is_pinned() {
    let seeds = SeedCorpus::generate(SNAP_SEEDS, SNAP_SEED_RNG).into_classes();
    let result = run_campaign(&seeds, &exec_campaign_config());
    assert_eq!(
        (result.gen_classes.len(), result.test_classes.len()),
        (326, 73),
        "exec-diff campaign diverged from the PR 9 snapshot"
    );
    let mut keys: Vec<&str> = result
        .exec_reports
        .iter()
        .filter(|r| r.is_exec_discrepancy())
        .map(|r| r.exec_key.as_str())
        .collect();
    keys.sort_unstable();
    assert_eq!(keys.len(), 4, "pinned divergence count");
}

#[test]
fn one_shard_parallel_campaign_matches_sequential_exec_reports() {
    let seeds = SeedCorpus::generate(SNAP_SEEDS, SNAP_SEED_RNG).into_classes();
    let cfg = exec_campaign_config();
    let seq = run_campaign(&seeds, &cfg);
    let par = run_campaign_parallel(&seeds, &cfg, 1).expect("1-shard campaign runs");
    assert_eq!(seq.test_classes, par.test_classes);
    assert_eq!(seq.exec_reports, par.exec_reports);
    assert_eq!(
        seq.acceptance.exec_discrepancies,
        par.acceptance.exec_discrepancies
    );
}

#[test]
fn two_shard_exec_reports_name_their_test_classes() {
    // Above one shard each shard differences its own acceptances; the
    // merged reports must still line up with the merged `test_classes` and
    // carry the verdicts of the class they name.
    let seeds = SeedCorpus::generate(SNAP_SEEDS, SNAP_SEED_RNG).into_classes();
    let result = run_campaign_parallel(&seeds, &exec_campaign_config(), 2).expect("engine error");
    assert_eq!(result.shard_stats.len(), 2);
    assert!(!result.test_classes.is_empty(), "campaign accepted nothing");
    assert_eq!(result.exec_reports.len(), result.test_classes.len());
    let harness = DifferentialHarness::paper_five();
    for (report, &index) in result.exec_reports.iter().zip(&result.test_classes) {
        assert_eq!(report.gen_index, index);
        let vector = harness.run(&result.gen_classes[index].bytes);
        assert_eq!(report.startup_key, vector.key(), "class {index}");
        assert_eq!(report.exec_key, vector.exec_key(), "class {index}");
    }
}
