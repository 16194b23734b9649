//! The coverage micro-benchmark driver behind `scripts/bench_gate.sh`:
//! measures the bitset engine's `[tr]` acceptance hot path against the
//! retained `BTreeSet` reference model and a real campaign's acceptance
//! throughput, and renders/checks the `BENCH_coverage.json` report.
//!
//! Methodology (see EXPERIMENTS.md, "Coverage micro-benchmarks"):
//!
//! * the suite is `suite_size` synthetic traces that all share one
//!   `(stmt, br)` statistic — the adversarial-but-realistic shape for
//!   `[tr]`, whose entire point is distinguishing traces the statistic
//!   criteria cannot (the reference model degenerates to a full-bucket
//!   pairwise scan, exactly as it did on the pre-rewrite campaign path);
//! * every timing is the median over `repeats` runs, so a single
//!   scheduler hiccup cannot fail the gate;
//! * the committed baseline is checked with a relative threshold
//!   (default 1.2× = 20% regression budget) plus one machine-independent
//!   floor: the bitset/baseline speedup itself.

use std::time::Instant;

use classfuzz_core::engine::{run_campaign, Algorithm, CampaignConfig};
use classfuzz_core::seeds::SeedCorpus;
use classfuzz_coverage::{baseline, SuiteIndex, TraceFile, UniquenessCriterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::median;

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

/// The `BENCH_coverage.json` payload: the `[tr]` hot-path numbers the
/// bench gate tracks.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageBenchReport {
    /// Accepted-suite size the probes run against.
    pub suite_size: usize,
    /// Repeats each timing is the median of.
    pub repeats: usize,
    /// `[tr]` `is_unique` ns/op against the bitset index.
    pub tr_is_unique_ns_bitset: f64,
    /// `[tr]` `is_unique` ns/op against the reference model.
    pub tr_is_unique_ns_baseline: f64,
    /// baseline / bitset — the speedup the acceptance criteria floor.
    pub tr_is_unique_speedup: f64,
    /// `TraceFile::merge` (⊕) ns/op, bitset.
    pub merge_ns_bitset: f64,
    /// `TraceFile::merge` ns/op, reference model.
    pub merge_ns_baseline: f64,
    /// Accepted classes per second of a fixed-seed classfuzz`[tr]`
    /// campaign (end-to-end: mutation + VM + acceptance).
    pub accepted_per_sec: f64,
    /// Fraction of that campaign's `[tr]` offers settled by the
    /// fingerprint fast path alone.
    pub fingerprint_fast_path_rate: f64,
}

/// Times `op()` (which performs `ops` operations) over `repeats` runs and
/// returns the median ns/op.
fn time_ns_per_op(repeats: usize, ops: usize, mut op: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let start = Instant::now();
            op();
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(samples)
}

/// Runs the full coverage micro-benchmark at the given suite size.
pub fn run_coverage_bench(suite_size: usize, repeats: usize) -> CoverageBenchReport {
    let suite = synth_suite(suite_size, 0xC0DE);

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
    let tr_is_unique_ns_bitset = time_ns_per_op(repeats, bit_probes * 16, || {
        for _ in 0..16 {
            for t in &suite.bitset[..bit_probes] {
                std::hint::black_box(bit_index.is_unique(std::hint::black_box(t)));
            }
        }
    });
    let ref_probes = suite.reference.len().min(40);
    let tr_is_unique_ns_baseline = time_ns_per_op(repeats, ref_probes, || {
        for t in &suite.reference[..ref_probes] {
            std::hint::black_box(ref_index.is_unique(std::hint::black_box(t)));
        }
    });

    // ⊕ merge, pairing each trace with its successor.
    let pairs = suite.bitset.len() - 1;
    let merge_ns_bitset = time_ns_per_op(repeats, pairs, || {
        for w in suite.bitset.windows(2) {
            std::hint::black_box(w[0].merge(&w[1]));
        }
    });
    let merge_ns_baseline = time_ns_per_op(repeats, pairs, || {
        for w in suite.reference.windows(2) {
            std::hint::black_box(w[0].merge(&w[1]));
        }
    });

    // End-to-end acceptance throughput: a fixed-seed classfuzz[tr]
    // campaign (the snapshot scale pinned by tests/coverage_equiv.rs).
    let seeds = SeedCorpus::generate(12, 21).into_classes();
    let config = CampaignConfig::new(Algorithm::Classfuzz(UniquenessCriterion::Tr), 150, 20160613);
    let (accepted_per_sec, fast_path_rate) = {
        let samples: Vec<(f64, f64)> = (0..repeats)
            .map(|_| {
                let result = run_campaign(&seeds, &config);
                let secs = result.elapsed.as_secs_f64().max(1e-9);
                (
                    result.test_classes.len() as f64 / secs,
                    result.acceptance.fast_path_rate().unwrap_or(0.0),
                )
            })
            .collect();
        (median(samples.iter().map(|s| s.0).collect()), samples[0].1)
    };

    CoverageBenchReport {
        suite_size,
        repeats,
        tr_is_unique_ns_bitset,
        tr_is_unique_ns_baseline,
        tr_is_unique_speedup: tr_is_unique_ns_baseline / tr_is_unique_ns_bitset.max(1e-9),
        merge_ns_bitset,
        merge_ns_baseline,
        accepted_per_sec,
        fingerprint_fast_path_rate: fast_path_rate,
    }
}

impl CoverageBenchReport {
    /// Renders the report as the `BENCH_coverage.json` payload.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"suite_size\": {},\n  \"repeats\": {},\n  \
             \"tr_is_unique_ns_bitset\": {:.1},\n  \
             \"tr_is_unique_ns_baseline\": {:.1},\n  \
             \"tr_is_unique_speedup\": {:.1},\n  \
             \"merge_ns_bitset\": {:.1},\n  \
             \"merge_ns_baseline\": {:.1},\n  \
             \"accepted_per_sec\": {:.1},\n  \
             \"fingerprint_fast_path_rate\": {:.4}\n}}\n",
            self.suite_size,
            self.repeats,
            self.tr_is_unique_ns_bitset,
            self.tr_is_unique_ns_baseline,
            self.tr_is_unique_speedup,
            self.merge_ns_bitset,
            self.merge_ns_baseline,
            self.accepted_per_sec,
            self.fingerprint_fast_path_rate,
        )
    }
}

/// Pulls one numeric field out of a flat JSON object (the only shape the
/// bench reports use — no external JSON crate in this workspace).
pub fn json_number(json: &str, key: &str) -> Option<f64> {
    let pattern = format!("\"{key}\":");
    let at = json.find(&pattern)? + pattern.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Compares a fresh report against a committed baseline JSON. Returns the
/// list of gate failures — empty means the gate passes.
///
/// * `max_regression` bounds the relative slowdown of each tracked metric
///   (1.2 = the 20% budget from the issue);
/// * `min_speedup` is the machine-independent floor on the bitset-vs-
///   baseline `[tr]` `is_unique` ratio (the acceptance criteria's ≥5×).
pub fn check_report(
    report: &CoverageBenchReport,
    baseline_json: &str,
    max_regression: f64,
    min_speedup: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    if report.tr_is_unique_speedup < min_speedup {
        failures.push(format!(
            "[tr] is_unique speedup {:.1}x is below the {min_speedup:.1}x floor",
            report.tr_is_unique_speedup
        ));
    }
    let mut slower_than = |key: &str, fresh: f64| match json_number(baseline_json, key) {
        Some(base) if fresh > base * max_regression => {
            failures.push(format!(
                "{key} regressed: {fresh:.1} vs baseline {base:.1} \
                 (budget {max_regression:.2}x)"
            ));
        }
        Some(_) => {}
        None => failures.push(format!("baseline is missing \"{key}\"")),
    };
    slower_than("tr_is_unique_ns_bitset", report.tr_is_unique_ns_bitset);
    slower_than("merge_ns_bitset", report.merge_ns_bitset);
    match json_number(baseline_json, "accepted_per_sec") {
        Some(base) if report.accepted_per_sec < base / max_regression => {
            failures.push(format!(
                "accepted_per_sec regressed: {:.1} vs baseline {base:.1} \
                 (budget {max_regression:.2}x)",
                report.accepted_per_sec
            ));
        }
        Some(_) => {}
        None => failures.push("baseline is missing \"accepted_per_sec\"".to_string()),
    }
    failures
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

    #[test]
    fn json_roundtrip_and_gate() {
        let report = CoverageBenchReport {
            suite_size: 1000,
            repeats: 3,
            tr_is_unique_ns_bitset: 100.0,
            tr_is_unique_ns_baseline: 5000.0,
            tr_is_unique_speedup: 50.0,
            merge_ns_bitset: 80.0,
            merge_ns_baseline: 900.0,
            accepted_per_sec: 40.0,
            fingerprint_fast_path_rate: 0.25,
        };
        let json = report.to_json();
        assert_eq!(json_number(&json, "tr_is_unique_ns_bitset"), Some(100.0));
        assert_eq!(json_number(&json, "accepted_per_sec"), Some(40.0));
        assert_eq!(json_number(&json, "missing"), None);
        // Same numbers as baseline: gate passes.
        assert!(check_report(&report, &json, 1.2, 5.0).is_empty());
        // A >20% slowdown on the probe fails.
        let mut slow = report.clone();
        slow.tr_is_unique_ns_bitset = 130.0;
        let failures = check_report(&slow, &json, 1.2, 5.0);
        assert!(failures
            .iter()
            .any(|f| f.contains("tr_is_unique_ns_bitset")));
        // A speedup below the floor fails even with a matching baseline.
        let mut no_speedup = report.clone();
        no_speedup.tr_is_unique_speedup = 3.0;
        let failures = check_report(&no_speedup, &json, 1.2, 5.0);
        assert!(failures.iter().any(|f| f.contains("floor")));
    }
}
