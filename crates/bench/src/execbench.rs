//! The execution-differencing benchmark behind `scripts/bench_gate.sh`'s
//! `exec` scenario: measures what the `--exec-diff` observer adds on top
//! of a plain five-VM startup evaluation of the same fixed-seed mutant
//! batch, and renders/checks the `BENCH_exec.json` report.
//!
//! Methodology (see EXPERIMENTS.md, "Execution-differencing benchmark"):
//!
//! * the batch is the same snapshot-pinned `GenClasses` the harness
//!   scenario measures ([`crate::harnessbench::snapshot_batch`]), so the
//!   two reports are directly comparable;
//! * every timing is the median over `repeats` runs;
//! * the machine-independent floor is the *overhead ratio*: classes/sec
//!   with execution differencing (run + verdict normalization + taxonomy
//!   classification) over classes/sec startup-only. Both paths execute
//!   `main` — the invocation phase is part of startup — so the observer's
//!   extra cost is normalization only, and the ratio must stay ≥ the
//!   floor (0.5 by default: differencing may at most double the cost of
//!   an evaluation).

use std::time::Instant;

use classfuzz_core::diff::DifferentialHarness;
use classfuzz_vm::preparse;

use crate::covbench::json_number;
use crate::harnessbench::snapshot_batch;
use crate::median;

/// The `BENCH_exec.json` payload: five-VM evaluation throughput with and
/// without the execution-differencing observer.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecBenchReport {
    /// Mutant-batch size each throughput number is measured over.
    pub batch_size: usize,
    /// Repeats each timing is the median of.
    pub repeats: usize,
    /// Classes/sec through the startup-only path: shared preparse, five
    /// profile runs, phase-digit key.
    pub classes_per_sec_startup: f64,
    /// Classes/sec with execution differencing: the same runs plus
    /// verdict normalization, the `exec_key`, and taxonomy
    /// classification — the exact per-accepted-candidate work of
    /// `fuzz --exec-diff`.
    pub classes_per_sec_exec: f64,
    /// exec / startup — the observer's machine-independent overhead
    /// ratio (1.0 = free, 0.5 = doubles the evaluation cost).
    pub exec_overhead_ratio: f64,
}

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

/// Runs the execution-differencing benchmark over the snapshot batch.
pub fn run_exec_bench(repeats: usize) -> ExecBenchReport {
    let batch = snapshot_batch();
    exec_report_for_batch(&batch, repeats)
}

/// Runs the benchmark over an explicit byte batch (exposed for tests).
pub fn exec_report_for_batch(batch: &[Vec<u8>], repeats: usize) -> ExecBenchReport {
    let harness = DifferentialHarness::paper_five();

    let classes_per_sec_startup = classes_per_sec(repeats, batch.len(), || {
        for bytes in batch {
            let parsed = preparse(bytes);
            let vector = harness.run_parsed(std::hint::black_box(&parsed));
            std::hint::black_box(vector.key());
        }
    });
    let classes_per_sec_exec = classes_per_sec(repeats, batch.len(), || {
        for bytes in batch {
            let parsed = preparse(bytes);
            let vector = harness.run_parsed(std::hint::black_box(&parsed));
            std::hint::black_box(vector.key());
            std::hint::black_box(vector.exec_key());
            std::hint::black_box(vector.classify_exec());
        }
    });

    ExecBenchReport {
        batch_size: batch.len(),
        repeats,
        classes_per_sec_startup,
        classes_per_sec_exec,
        exec_overhead_ratio: classes_per_sec_exec / classes_per_sec_startup.max(1e-9),
    }
}

impl ExecBenchReport {
    /// Renders the report as the `BENCH_exec.json` payload.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"batch_size\": {},\n  \"repeats\": {},\n  \
             \"classes_per_sec_startup\": {:.1},\n  \
             \"classes_per_sec_exec\": {:.1},\n  \
             \"exec_overhead_ratio\": {:.2}\n}}\n",
            self.batch_size,
            self.repeats,
            self.classes_per_sec_startup,
            self.classes_per_sec_exec,
            self.exec_overhead_ratio,
        )
    }
}

/// Compares a fresh report against the committed
/// `BENCH_exec.baseline.json`. Returns the list of gate failures — empty
/// means the gate passes.
///
/// * `min_ratio` is the floor on the in-run exec/startup overhead ratio;
/// * `max_regression` bounds the relative slowdown of the differencing
///   path against the baseline's own `classes_per_sec_exec`.
pub fn check_exec_report(
    report: &ExecBenchReport,
    baseline_json: &str,
    max_regression: f64,
    min_ratio: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    if report.exec_overhead_ratio < min_ratio {
        failures.push(format!(
            "exec overhead ratio {:.2} (exec vs startup-only) is below the \
             {min_ratio:.1} floor",
            report.exec_overhead_ratio
        ));
    }
    match json_number(baseline_json, "classes_per_sec_exec") {
        Some(base) if report.classes_per_sec_exec < base / max_regression => {
            failures.push(format!(
                "classes_per_sec_exec regressed: {:.1} vs baseline {base:.1} \
                 (budget {max_regression:.2}x)",
                report.classes_per_sec_exec
            ));
        }
        Some(_) => {}
        None => failures.push("baseline is missing \"classes_per_sec_exec\"".to_string()),
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use classfuzz_core::seeds::SeedCorpus;

    #[test]
    fn json_roundtrip_and_gate() {
        let report = ExecBenchReport {
            batch_size: 138,
            repeats: 3,
            classes_per_sec_startup: 20000.0,
            classes_per_sec_exec: 18000.0,
            exec_overhead_ratio: 0.9,
        };
        let json = report.to_json();
        assert_eq!(json_number(&json, "classes_per_sec_exec"), Some(18000.0));
        assert_eq!(json_number(&json, "exec_overhead_ratio"), Some(0.9));
        let baseline = "{\n  \"classes_per_sec_exec\": 15000.0\n}\n";
        assert!(check_exec_report(&report, baseline, 1.2, 0.5).is_empty());
        // An overhead ratio below the floor fails.
        let mut heavy = report.clone();
        heavy.exec_overhead_ratio = 0.3;
        assert!(check_exec_report(&heavy, baseline, 1.2, 0.5)
            .iter()
            .any(|f| f.contains("floor")));
        // A >20% drop against the baseline's own exec number fails.
        let mut regressed = report.clone();
        regressed.classes_per_sec_exec = 10000.0;
        assert!(check_exec_report(&regressed, baseline, 1.2, 0.5)
            .iter()
            .any(|f| f.contains("regressed")));
        // A missing baseline field is a failure, not a silent pass.
        assert_eq!(check_exec_report(&report, "{}", 1.2, 0.5).len(), 1);
    }

    #[test]
    fn small_batch_report_is_consistent() {
        let batch: Vec<Vec<u8>> = SeedCorpus::generate(3, 9).to_bytes();
        let report = exec_report_for_batch(&batch, 1);
        assert_eq!(report.batch_size, 3);
        assert!(report.classes_per_sec_startup > 0.0);
        assert!(report.classes_per_sec_exec > 0.0);
        assert!(report.exec_overhead_ratio > 0.0);
    }
}
