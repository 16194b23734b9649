//! The end-to-end harness benchmark behind `scripts/bench_gate.sh`'s
//! `harness` scenario: pushes a fixed-seed mutant batch through the
//! five-VM differential harness on the share-everything pipeline (cached
//! bootstrap worlds + parse-once) and on the pre-sharing path (cold world
//! rebuild and re-parse per profile), and renders/checks the
//! `BENCH_harness.json` report.
//!
//! Methodology (see EXPERIMENTS.md, "Harness end-to-end benchmark"):
//!
//! * the batch is every `GenClass` of the snapshot-pinned fixed-seed
//!   classfuzz`[tr]` campaign (tests/coverage_equiv.rs), so the workload
//!   is real mutants with the real accept/reject mix, not synthetic blobs;
//! * every timing is the median over `repeats` runs;
//! * the committed baseline is checked with a relative threshold plus two
//!   machine-independent floors: the in-run speedup of the shared path
//!   over the cold path, and the shared path's throughput against the
//!   committed *old-path* number (the ≥2× acceptance criterion).

use std::time::Instant;

use classfuzz_core::diff::DifferentialHarness;
use classfuzz_core::engine::{run_campaign, Algorithm, CampaignConfig};
use classfuzz_core::seeds::SeedCorpus;
use classfuzz_coverage::UniquenessCriterion;
use classfuzz_vm::{preparse, Jvm, VmSpec};

use crate::covbench::json_number;
use crate::median;

/// The fixed-seed mutant batch every scenario measures: the `GenClasses`
/// of the campaign configuration pinned bit-for-bit by
/// `tests/coverage_equiv.rs` (12 seeds, rng 21; classfuzz`[tr]`,
/// 150 iterations, rng 20160613).
pub fn snapshot_batch() -> Vec<Vec<u8>> {
    let seeds = SeedCorpus::generate(12, 21).into_classes();
    let config = CampaignConfig::new(Algorithm::Classfuzz(UniquenessCriterion::Tr), 150, 20160613);
    run_campaign(&seeds, &config).gen_bytes()
}

/// The `BENCH_harness.json` payload: end-to-end five-VM evaluation
/// throughput, shared pipeline vs the pre-sharing path.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessBenchReport {
    /// Mutant-batch size each throughput number is measured over.
    pub batch_size: usize,
    /// Repeats each timing is the median of.
    pub repeats: usize,
    /// Classes/sec through the shared pipeline: process-cached bootstrap
    /// worlds, one `preparse` per class shared by all five profiles.
    pub classes_per_sec_preparsed: f64,
    /// Classes/sec through the byte-level wrapper API (`harness.run`):
    /// must track `classes_per_sec_preparsed` closely, since the wrapper
    /// preparses once internally.
    pub classes_per_sec_bytes: f64,
    /// Classes/sec through the pre-sharing path: uncached JVMs rebuilding
    /// their bootstrap world and re-parsing the class on every one of the
    /// five runs — what every evaluation cost before this pipeline.
    pub classes_per_sec_cold: f64,
    /// preparsed / cold — the in-run, machine-independent speedup.
    pub harness_speedup: f64,
}

/// Times `op()` over `repeats` runs and returns the median classes/sec
/// for a batch of `classes` items.
fn classes_per_sec(repeats: usize, classes: usize, mut op: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let start = Instant::now();
            op();
            classes as f64 / start.elapsed().as_secs_f64().max(1e-9)
        })
        .collect();
    median(samples)
}

/// Runs the full end-to-end harness benchmark over the snapshot batch.
pub fn run_harness_bench(repeats: usize) -> HarnessBenchReport {
    let batch = snapshot_batch();
    report_for_batch(&batch, repeats)
}

/// Runs the benchmark over an explicit byte batch (exposed for tests).
pub fn report_for_batch(batch: &[Vec<u8>], repeats: usize) -> HarnessBenchReport {
    let harness = DifferentialHarness::paper_five();
    // The pre-sharing path: every profile rebuilds its bootstrap world per
    // run, and every run re-parses the candidate's bytes.
    let cold_jvms: Vec<Jvm> = VmSpec::all_five().into_iter().map(Jvm::uncached).collect();

    let classes_per_sec_preparsed = classes_per_sec(repeats, batch.len(), || {
        for bytes in batch {
            let parsed = preparse(bytes);
            std::hint::black_box(harness.run_parsed(std::hint::black_box(&parsed)));
        }
    });
    let classes_per_sec_bytes = classes_per_sec(repeats, batch.len(), || {
        for bytes in batch {
            std::hint::black_box(harness.run(std::hint::black_box(bytes)));
        }
    });
    let classes_per_sec_cold = classes_per_sec(repeats, batch.len(), || {
        for bytes in batch {
            for jvm in &cold_jvms {
                // One decode *per profile*: the cold path must not share
                // the parse, that is exactly the waste being measured.
                let parsed = preparse(std::hint::black_box(bytes));
                std::hint::black_box(jvm.run_parsed(&parsed));
            }
        }
    });

    HarnessBenchReport {
        batch_size: batch.len(),
        repeats,
        classes_per_sec_preparsed,
        classes_per_sec_bytes,
        classes_per_sec_cold,
        harness_speedup: classes_per_sec_preparsed / classes_per_sec_cold.max(1e-9),
    }
}

impl HarnessBenchReport {
    /// Renders the report as the `BENCH_harness.json` payload.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"batch_size\": {},\n  \"repeats\": {},\n  \
             \"classes_per_sec_preparsed\": {:.1},\n  \
             \"classes_per_sec_bytes\": {:.1},\n  \
             \"classes_per_sec_cold\": {:.1},\n  \
             \"harness_speedup\": {:.2}\n}}\n",
            self.batch_size,
            self.repeats,
            self.classes_per_sec_preparsed,
            self.classes_per_sec_bytes,
            self.classes_per_sec_cold,
            self.harness_speedup,
        )
    }
}

/// Compares a fresh report against the committed
/// `BENCH_harness.baseline.json`. Returns the list of gate failures —
/// empty means the gate passes.
///
/// * `max_regression` bounds the relative slowdown of the shared path
///   against the baseline's own `classes_per_sec_preparsed`;
/// * `min_speedup` is enforced twice: on the in-run preparsed/cold ratio,
///   and on the shared path against the committed `classes_per_sec_old_path`
///   (the acceptance criterion's "≥2× over the committed old-path
///   baseline").
pub fn check_harness_report(
    report: &HarnessBenchReport,
    baseline_json: &str,
    max_regression: f64,
    min_speedup: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    if report.harness_speedup < min_speedup {
        failures.push(format!(
            "harness speedup {:.2}x (preparsed vs cold) is below the \
             {min_speedup:.1}x floor",
            report.harness_speedup
        ));
    }
    match json_number(baseline_json, "classes_per_sec_old_path") {
        Some(old_path) if report.classes_per_sec_preparsed < old_path * min_speedup => {
            failures.push(format!(
                "classes_per_sec_preparsed {:.1} is below {min_speedup:.1}x \
                 the committed old-path baseline {old_path:.1}",
                report.classes_per_sec_preparsed
            ));
        }
        Some(_) => {}
        None => failures.push("baseline is missing \"classes_per_sec_old_path\"".to_string()),
    }
    match json_number(baseline_json, "classes_per_sec_preparsed") {
        Some(base) if report.classes_per_sec_preparsed < base / max_regression => {
            failures.push(format!(
                "classes_per_sec_preparsed regressed: {:.1} vs baseline \
                 {base:.1} (budget {max_regression:.2}x)",
                report.classes_per_sec_preparsed
            ));
        }
        Some(_) => {}
        None => failures.push("baseline is missing \"classes_per_sec_preparsed\"".to_string()),
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip_and_gate() {
        let report = HarnessBenchReport {
            batch_size: 138,
            repeats: 3,
            classes_per_sec_preparsed: 24000.0,
            classes_per_sec_bytes: 23000.0,
            classes_per_sec_cold: 8000.0,
            harness_speedup: 3.0,
        };
        let json = report.to_json();
        assert_eq!(
            json_number(&json, "classes_per_sec_preparsed"),
            Some(24000.0)
        );
        assert_eq!(json_number(&json, "harness_speedup"), Some(3.0));
        let baseline = "{\n  \"classes_per_sec_old_path\": 4000.0,\n  \
                        \"classes_per_sec_preparsed\": 20000.0\n}\n";
        assert!(check_harness_report(&report, baseline, 1.2, 2.0).is_empty());
        // In-run speedup below the floor fails.
        let mut slow = report.clone();
        slow.harness_speedup = 1.5;
        assert!(check_harness_report(&slow, baseline, 1.2, 2.0)
            .iter()
            .any(|f| f.contains("floor")));
        // Falling under 2x the committed old-path number fails.
        let mut unshared = report.clone();
        unshared.classes_per_sec_preparsed = 7000.0;
        assert!(check_harness_report(&unshared, baseline, 1.2, 2.0)
            .iter()
            .any(|f| f.contains("old-path")));
        // A >20% drop against the baseline's own preparsed number fails.
        let mut regressed = report.clone();
        regressed.classes_per_sec_preparsed = 16000.0;
        assert!(check_harness_report(&regressed, baseline, 1.2, 2.0)
            .iter()
            .any(|f| f.contains("regressed")));
        // A missing baseline field is a failure, not a silent pass.
        assert_eq!(check_harness_report(&report, "{}", 1.2, 2.0).len(), 2);
    }

    #[test]
    fn small_batch_report_is_consistent() {
        let batch: Vec<Vec<u8>> = SeedCorpus::generate(3, 9).to_bytes();
        let report = report_for_batch(&batch, 1);
        assert_eq!(report.batch_size, 3);
        assert!(report.classes_per_sec_preparsed > 0.0);
        assert!(report.classes_per_sec_bytes > 0.0);
        assert!(report.classes_per_sec_cold > 0.0);
        assert!(report.harness_speedup > 0.0);
    }
}
