//! The `coverage` scenario's workload ([`crate::scenario`]): the bitset
//! engine's `[tr]` acceptance hot path against the retained `BTreeSet`
//! reference model, plus a real campaign's acceptance throughput.
//!
//! Methodology (see EXPERIMENTS.md, "Coverage micro-benchmarks"): the
//! suite is synthetic traces that all share one `(stmt, br)` statistic —
//! the adversarial-but-realistic shape for `[tr]`, whose entire point is
//! distinguishing traces the statistic criteria cannot (the reference
//! model degenerates to a full-bucket pairwise scan, exactly as it did on
//! the pre-rewrite campaign path).

use classfuzz_core::engine::{run_campaign, Algorithm, CampaignConfig};
use classfuzz_core::seeds::SeedCorpus;
use classfuzz_coverage::{baseline, SuiteIndex, TraceFile, UniquenessCriterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::scenario::Metric;
use crate::{median, per_sec};

/// How many distinct statement sites each synthetic trace hits.
const SYNTH_STMTS: usize = 120;
/// How many distinct branch `(site, direction)` pairs each trace hits.
const SYNTH_BRANCHES: usize = 40;
/// The statement-site id space traces sample from.
const SYNTH_STMT_SPACE: u32 = 400;
/// The branch-site id space.
const SYNTH_BRANCH_SPACE: u32 = 60;
/// Accepted-suite size the probes run against.
const SUITE_SIZE: usize = 1000;

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

/// Median ns per operation of `op`, which performs `ops` operations.
fn ns_per_op(repeats: usize, ops: usize, mut op: impl FnMut()) -> f64 {
    1e9 / per_sec(repeats, || {
        op();
        ops
    })
}

/// Measures `[tr]` `is_unique` and `⊕` merge on both representations over
/// a 1,000-trace suite, plus the accepted classes per second and the
/// fingerprint fast-path rate of a fixed-seed classfuzz`[tr]` campaign.
pub fn run(repeats: usize) -> Vec<Metric> {
    let suite = synth_suite(SUITE_SIZE, 0xC0DE);

    // Accepted-suite indices over the whole synthetic suite. The traces
    // are distinct by construction, so the reference model can be
    // force-inserted (probing while building would cost O(n²) scans and
    // measure construction, not the steady-state probe).
    let mut bit_index = SuiteIndex::new(UniquenessCriterion::Tr);
    for t in &suite.bitset {
        bit_index.insert(t);
    }
    let mut ref_index = baseline::SuiteIndex::new(UniquenessCriterion::Tr);
    for t in &suite.reference {
        ref_index.insert(t);
    }

    // Probe with duplicates of accepted traces: the steady-state rejection
    // path a mature campaign hits on almost every iteration. The bitset
    // side is cheap enough to need many ops per sample for resolution; the
    // reference side scans a 1k bucket per probe, so a few suffice.
    let bit_probes = suite.bitset.len().min(1000);
    let probe_bitset = ns_per_op(repeats, bit_probes * 16, || {
        for _ in 0..16 {
            for t in &suite.bitset[..bit_probes] {
                std::hint::black_box(bit_index.is_unique(std::hint::black_box(t)));
            }
        }
    });
    let ref_probes = suite.reference.len().min(40);
    let probe_reference = ns_per_op(repeats, ref_probes, || {
        for t in &suite.reference[..ref_probes] {
            std::hint::black_box(ref_index.is_unique(std::hint::black_box(t)));
        }
    });

    // ⊕ merge, pairing each trace with its successor.
    let pairs = suite.bitset.len() - 1;
    let merge_bitset = ns_per_op(repeats, pairs, || {
        for w in suite.bitset.windows(2) {
            std::hint::black_box(w[0].merge(&w[1]));
        }
    });
    let merge_reference = ns_per_op(repeats, pairs, || {
        for w in suite.reference.windows(2) {
            std::hint::black_box(w[0].merge(&w[1]));
        }
    });

    // End-to-end acceptance throughput: a fixed-seed classfuzz[tr]
    // campaign (the snapshot scale pinned by tests/coverage_equiv.rs),
    // timed by the campaign's own clock.
    let seeds = SeedCorpus::generate(12, 21).into_classes();
    let config = CampaignConfig::new(Algorithm::Classfuzz(UniquenessCriterion::Tr), 150, 20160613);
    let results: Vec<_> = (0..repeats)
        .map(|_| run_campaign(&seeds, &config))
        .collect();
    let accepted_per_sec = median(
        results
            .iter()
            .map(|r| r.test_classes.len() as f64 / r.elapsed.as_secs_f64().max(1e-9))
            .collect(),
    );
    let fast_path_rate = results[0].acceptance.fast_path_rate().unwrap_or(0.0);

    vec![
        Metric::count("suite_size", SUITE_SIZE),
        Metric::count("repeats", repeats),
        Metric::new("tr_is_unique_ns_bitset", probe_bitset, 1),
        Metric::new("tr_is_unique_ns_baseline", probe_reference, 1),
        Metric::new(
            "tr_is_unique_speedup",
            probe_reference / probe_bitset.max(1e-9),
            1,
        ),
        Metric::new("merge_ns_bitset", merge_bitset, 1),
        Metric::new("merge_ns_baseline", merge_reference, 1),
        Metric::new("accepted_per_sec", accepted_per_sec, 1),
        Metric::new("fingerprint_fast_path_rate", fast_path_rate, 4),
    ]
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
