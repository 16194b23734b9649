//! The synthetic `[tr]` suite behind `benches/micro.rs`'s
//! `bench_coverage_bitset_vs_baseline` pair: the bitset engine's `[tr]`
//! acceptance hot path against the retained `BTreeSet` reference model.
//! (The `coverage` bench-gate scenario that also ran it is retired; its
//! stage is under 5% of every campaignbench workload.)
//!
//! Methodology (see EXPERIMENTS.md, "Coverage hot-path benchmarks"): the
//! suite is synthetic traces that all share one `(stmt, br)` statistic —
//! the adversarial-but-realistic shape for `[tr]`, whose entire point is
//! distinguishing traces the statistic criteria cannot (the reference
//! model degenerates to a full-bucket pairwise scan, exactly as it did on
//! the pre-rewrite campaign path).

use classfuzz_coverage::{baseline, TraceFile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How many distinct statement sites each synthetic trace hits.
const SYNTH_STMTS: usize = 120;
/// How many distinct branch `(site, direction)` pairs each trace hits.
const SYNTH_BRANCHES: usize = 40;
/// The statement-site id space traces sample from.
const SYNTH_STMT_SPACE: u32 = 400;
/// The branch-site id space.
const SYNTH_BRANCH_SPACE: u32 = 60;

/// A suite of synthetic traces in both representations, pairwise distinct
/// but all sharing one `(stmt, br)` statistic.
pub struct SynthSuite {
    /// Dense bitset traces.
    pub bitset: Vec<TraceFile>,
    /// The same traces in the reference model.
    pub reference: Vec<baseline::TraceFile>,
}

/// Generates `count` pairwise-distinct traces with identical statistics —
/// the bucket shape that makes `[tr]` acceptance expensive for the
/// reference model. Deterministic for a fixed `rng_seed`.
pub fn synth_suite(count: usize, rng_seed: u64) -> SynthSuite {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let mut bitset = Vec::with_capacity(count);
    let mut reference = Vec::with_capacity(count);
    while bitset.len() < count {
        let mut stmts = std::collections::BTreeSet::new();
        while stmts.len() < SYNTH_STMTS {
            stmts.insert(rng.gen_range(0..SYNTH_STMT_SPACE));
        }
        let mut branches = std::collections::BTreeSet::new();
        while branches.len() < SYNTH_BRANCHES {
            branches.insert((
                rng.gen_range(0..SYNTH_BRANCH_SPACE),
                rng.gen_range(0..2) == 1,
            ));
        }
        let mut bt = TraceFile::new();
        let mut rt = baseline::TraceFile::new();
        for &s in &stmts {
            bt.hit_stmt(s);
            rt.hit_stmt(s);
        }
        for &(s, d) in &branches {
            bt.hit_branch(s, d);
            rt.hit_branch(s, d);
        }
        // Rejection-sample duplicates so the suite is pairwise distinct.
        if bitset.contains(&bt) {
            continue;
        }
        bitset.push(bt);
        reference.push(rt);
    }
    SynthSuite { bitset, reference }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_suite_is_distinct_with_constant_stats() {
        let suite = synth_suite(30, 7);
        let stats = suite.bitset[0].stats();
        assert_eq!(stats.stmt, SYNTH_STMTS);
        assert_eq!(stats.br, SYNTH_BRANCHES);
        for (i, a) in suite.bitset.iter().enumerate() {
            assert_eq!(a.stats(), stats, "all traces share one statistic");
            assert_eq!(a.stmt_sites(), suite.reference[i].stmts().clone());
            for b in &suite.bitset[i + 1..] {
                assert!(!a.statically_equal(b), "suite must be pairwise distinct");
            }
        }
    }
}
