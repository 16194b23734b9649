//! Equivalence suite for the bitset coverage engine: the dense
//! representation in `classfuzz_coverage` must agree, verdict for verdict,
//! with the retained `BTreeSet` reference model
//! (`classfuzz_coverage::baseline`) — and the campaign engines built on
//! top of it must reproduce the pre-rewrite fixed-seed behavior exactly.

use std::collections::BTreeSet;

use classfuzz_core::diff::DifferentialHarness;
use classfuzz_core::engine::{run_campaign, run_campaign_parallel, Algorithm, CampaignConfig};
use classfuzz_core::seeds::SeedCorpus;
use classfuzz_coverage::{baseline, GlobalCoverage, SuiteIndex, TraceFile, UniquenessCriterion};
use proptest::prelude::*;

/// An abstract trace: the site sets both representations are built from.
#[derive(Debug, Clone)]
struct AbstractTrace {
    stmts: BTreeSet<u32>,
    branches: BTreeSet<(u32, bool)>,
}

impl AbstractTrace {
    fn bitset(&self) -> TraceFile {
        let mut t = TraceFile::new();
        for &s in &self.stmts {
            t.hit_stmt(s);
        }
        for &(s, d) in &self.branches {
            t.hit_branch(s, d);
        }
        t
    }

    fn reference(&self) -> baseline::TraceFile {
        let mut t = baseline::TraceFile::new();
        for &s in &self.stmts {
            t.hit_stmt(s);
        }
        for &(s, d) in &self.branches {
            t.hit_branch(s, d);
        }
        t
    }
}

fn abstract_trace() -> impl Strategy<Value = AbstractTrace> {
    (
        proptest::collection::btree_set(0u32..60, 0..20),
        proptest::collection::btree_set((0u32..25, any::<bool>()), 0..15),
    )
        .prop_map(|(stmts, branches)| AbstractTrace { stmts, branches })
}

const CRITERIA: [UniquenessCriterion; 3] = [
    UniquenessCriterion::St,
    UniquenessCriterion::StBr,
    UniquenessCriterion::Tr,
];

proptest! {
    /// stats, merge, and statically_equal agree between the two
    /// representations on arbitrary trace pairs.
    #[test]
    fn trace_algebra_agrees(a in abstract_trace(), b in abstract_trace()) {
        let (ba, bb) = (a.bitset(), b.bitset());
        let (ra, rb) = (a.reference(), b.reference());
        prop_assert_eq!(ba.stats(), ra.stats());
        prop_assert_eq!(bb.stats(), rb.stats());
        prop_assert_eq!(
            ba.statically_equal(&bb),
            ra.statically_equal(&rb),
            "statically_equal diverged"
        );
        let (bm, rm) = (ba.merge(&bb), ra.merge(&rb));
        prop_assert_eq!(bm.stats(), rm.stats(), "merge stats diverged");
        // The merged trace must relate to its inputs identically too.
        prop_assert_eq!(bm.statically_equal(&ba), rm.statically_equal(&ra));
        // Site sets survive the bitset round trip.
        prop_assert_eq!(ba.stmt_sites(), a.stmts);
        prop_assert_eq!(ba.branch_sites(), a.branches);
    }

    /// Equal traces fingerprint equally (the property the [tr] fast path
    /// is sound under): whenever the reference model calls two traces
    /// statically equal, the bitset fingerprints must match.
    #[test]
    fn fingerprint_is_sound_for_tr(a in abstract_trace(), b in abstract_trace()) {
        let (ba, bb) = (a.bitset(), b.bitset());
        if a.reference().statically_equal(&b.reference()) {
            prop_assert_eq!(ba.fingerprint(), bb.fingerprint());
        }
        // And a fingerprint mismatch must imply inequality.
        if ba.fingerprint() != bb.fingerprint() {
            prop_assert!(!ba.statically_equal(&bb));
        }
    }

    /// SuiteIndex verdicts (is_unique + insert_if_unique) agree with the
    /// reference model on arbitrary offer histories, per criterion.
    #[test]
    fn suite_index_verdicts_agree(
        history in proptest::collection::vec(abstract_trace(), 0..25),
    ) {
        for criterion in CRITERIA {
            let mut bit = SuiteIndex::new(criterion);
            let mut rf = baseline::SuiteIndex::new(criterion);
            for (i, t) in history.iter().enumerate() {
                let (bt, rt) = (t.bitset(), t.reference());
                prop_assert_eq!(
                    bit.is_unique(&bt),
                    rf.is_unique(&rt),
                    "{}: is_unique diverged at offer {}",
                    criterion,
                    i
                );
                prop_assert_eq!(
                    bit.insert_if_unique(&bt),
                    rf.insert_if_unique(&rt),
                    "{}: insert verdict diverged at offer {}",
                    criterion,
                    i
                );
                prop_assert_eq!(bit.len(), rf.len());
            }
        }
    }

    /// GlobalCoverage growth verdicts and totals agree with the reference
    /// model on arbitrary absorb histories.
    #[test]
    fn global_coverage_agrees(
        history in proptest::collection::vec(abstract_trace(), 0..20),
    ) {
        let mut bit = GlobalCoverage::new();
        let mut rf = baseline::GlobalCoverage::new();
        for (i, t) in history.iter().enumerate() {
            prop_assert_eq!(
                bit.absorb(&t.bitset()),
                rf.absorb(&t.reference()),
                "absorb verdict diverged at {}",
                i
            );
            prop_assert_eq!(bit.stats(), rf.stats());
        }
    }
}

// --- Fixed-seed campaign snapshot -------------------------------------------
//
// These constants were captured from the engine *before* the bitset
// rewrite (BTreeSet traces, no fingerprints, per-iteration allocation).
// The rewrite must not change a single acceptance decision: same seeds,
// same budget, same RNG seed ⇒ same generated/accepted counts in the
// sequential engine and the async engine at one shard, and the same
// discrepancy vector against the five-VM harness. At three shards the
// async engine's counts depend on thread interleaving, so there only the
// budget accounting is pinned.

const SNAP_SEEDS: usize = 12;
const SNAP_SEED_RNG: u64 = 21;
const SNAP_ITERATIONS: usize = 150;
const SNAP_CAMPAIGN_RNG: u64 = 20160613;

/// `(generated, accepted)` counts of one campaign configuration.
type Counts = (usize, usize);

/// (algorithm, sequential counts)
fn snapshot_table() -> Vec<(Algorithm, Counts)> {
    vec![
        (Algorithm::Classfuzz(UniquenessCriterion::StBr), (135, 30)),
        (Algorithm::Classfuzz(UniquenessCriterion::St), (139, 12)),
        (Algorithm::Classfuzz(UniquenessCriterion::Tr), (138, 32)),
        (Algorithm::Greedyfuzz, (125, 21)),
    ]
}

#[test]
fn campaign_snapshot_is_unchanged_by_the_bitset_engine() {
    let seeds = SeedCorpus::generate(SNAP_SEEDS, SNAP_SEED_RNG).into_classes();
    for (alg, counts) in snapshot_table() {
        let cfg = CampaignConfig::new(alg, SNAP_ITERATIONS, SNAP_CAMPAIGN_RNG);
        let seq = run_campaign(&seeds, &cfg);
        assert_eq!(
            (seq.gen_classes.len(), seq.test_classes.len()),
            counts,
            "{alg}: sequential campaign diverged from the pre-rewrite snapshot"
        );
        let one = run_campaign_parallel(&seeds, &cfg, 1).expect("parallel campaign must run");
        assert_eq!(
            (one.gen_classes.len(), one.test_classes.len()),
            counts,
            "{alg}: 1-shard campaign diverged from the pre-rewrite snapshot"
        );
        let par = run_campaign_parallel(&seeds, &cfg, 3).expect("parallel campaign must run");
        let iterations: usize = par.shard_stats.iter().map(|s| s.iterations).sum();
        assert_eq!(iterations, SNAP_ITERATIONS, "{alg}: 3-shard budget");
        assert!(
            par.test_classes.len() <= par.gen_classes.len()
                && par.gen_classes.len() <= SNAP_ITERATIONS,
            "{alg}: 3-shard counts out of range"
        );
    }
}

#[test]
fn discrepancy_vector_is_unchanged_by_the_bitset_engine() {
    let seeds = SeedCorpus::generate(SNAP_SEEDS, SNAP_SEED_RNG).into_classes();
    let cfg = CampaignConfig::new(
        Algorithm::Classfuzz(UniquenessCriterion::StBr),
        SNAP_ITERATIONS,
        SNAP_CAMPAIGN_RNG,
    );
    let result = run_campaign(&seeds, &cfg);
    let harness = DifferentialHarness::paper_five();
    let discrepancies: Vec<usize> = result
        .test_bytes()
        .iter()
        .enumerate()
        .filter(|(_, bytes)| harness.run(bytes).is_discrepancy())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(
        discrepancies,
        vec![0, 2, 6, 12, 13, 14, 23, 27],
        "classfuzz[stbr] TestClasses discrepancy vector diverged"
    );
}
