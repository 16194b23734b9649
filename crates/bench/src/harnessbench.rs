//! The `harness` scenario's workload ([`crate::scenario`]): a fixed-seed
//! mutant batch through the five-VM differential harness on the
//! share-everything pipeline (cached bootstrap worlds + parse-once), on the
//! pre-sharing path (cold world rebuild and re-parse per profile), and with
//! the `--exec-diff` observer on top.
//!
//! Methodology (see EXPERIMENTS.md, "Harness end-to-end benchmark"): the
//! batch is every `GenClass` of the snapshot-pinned fixed-seed
//! classfuzz`[tr]` campaign (tests/coverage_equiv.rs), so the workload is
//! real mutants with the real accept/reject mix, not synthetic blobs.

use classfuzz_core::diff::DifferentialHarness;
use classfuzz_core::engine::{run_campaign, Algorithm, CampaignConfig};
use classfuzz_core::seeds::SeedCorpus;
use classfuzz_coverage::UniquenessCriterion;
use classfuzz_vm::{preparse, Jvm, VmSpec};

use crate::per_sec;
use crate::scenario::Metric;

/// The fixed-seed mutant batch every scenario measures: the `GenClasses`
/// of the campaign configuration pinned bit-for-bit by
/// `tests/coverage_equiv.rs` (12 seeds, rng 21; classfuzz`[tr]`,
/// 150 iterations, rng 20160613).
pub fn snapshot_batch() -> Vec<Vec<u8>> {
    let seeds = SeedCorpus::generate(12, 21).into_classes();
    let config = CampaignConfig::new(Algorithm::Classfuzz(UniquenessCriterion::Tr), 150, 20160613);
    run_campaign(&seeds, &config).gen_bytes()
}

/// Measures the snapshot batch; see [`measure`].
pub fn run(repeats: usize) -> Vec<Metric> {
    measure(&snapshot_batch(), repeats)
}

/// Classes/sec over `batch` on four paths:
///
/// * `preparsed`: the startup-only evaluation every campaign runs — one
///   `preparse` per class shared by all five profiles, process-cached
///   bootstrap worlds, phase-digit key. Also reported as
///   `classes_per_sec_startup`;
/// * `bytes`: the byte-level wrapper API, which preparses once internally
///   and must track `preparsed` closely;
/// * `cold`: uncached JVMs rebuilding their bootstrap world and re-parsing
///   the class on every one of the five runs — what every evaluation cost
///   before the shared pipeline;
/// * `exec`: `preparsed` plus verdict normalization, the `exec_key` and
///   taxonomy classification — the per-candidate work `fuzz --exec-diff`
///   adds.
pub(crate) fn measure(batch: &[Vec<u8>], repeats: usize) -> Vec<Metric> {
    let harness = DifferentialHarness::paper_five();
    let cold_jvms: Vec<Jvm> = VmSpec::all_five().into_iter().map(Jvm::uncached).collect();
    let classes = batch.len();

    let preparsed = per_sec(repeats, || {
        for bytes in batch {
            let parsed = preparse(bytes);
            let vector = harness.run_parsed(std::hint::black_box(&parsed));
            std::hint::black_box(vector.key());
        }
        classes
    });
    let wrapper = per_sec(repeats, || {
        for bytes in batch {
            std::hint::black_box(harness.run(std::hint::black_box(bytes)));
        }
        classes
    });
    let cold = per_sec(repeats, || {
        for bytes in batch {
            for jvm in &cold_jvms {
                // One decode *per profile*: the cold path must not share
                // the parse, that is exactly the waste being measured.
                let parsed = preparse(std::hint::black_box(bytes));
                std::hint::black_box(jvm.run_parsed(&parsed));
            }
        }
        classes
    });
    let exec = per_sec(repeats, || {
        for bytes in batch {
            let parsed = preparse(bytes);
            let vector = harness.run_parsed(std::hint::black_box(&parsed));
            std::hint::black_box(vector.key());
            std::hint::black_box(vector.exec_key());
            std::hint::black_box(vector.classify_exec());
        }
        classes
    });

    vec![
        Metric::count("batch_size", classes),
        Metric::count("repeats", repeats),
        Metric::new("classes_per_sec_preparsed", preparsed, 1),
        Metric::new("classes_per_sec_bytes", wrapper, 1),
        Metric::new("classes_per_sec_cold", cold, 1),
        Metric::new("harness_speedup", preparsed / cold.max(1e-9), 2),
        Metric::new("classes_per_sec_startup", preparsed, 1),
        Metric::new("classes_per_sec_exec", exec, 1),
        Metric::new("exec_overhead_ratio", exec / preparsed.max(1e-9), 2),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::value;

    #[test]
    fn small_batch_report_is_consistent() {
        let batch: Vec<Vec<u8>> = SeedCorpus::generate(3, 9).to_bytes();
        let metrics = measure(&batch, 1);
        assert_eq!(value(&metrics, "batch_size"), Some(3.0));
        for key in [
            "classes_per_sec_preparsed",
            "classes_per_sec_bytes",
            "classes_per_sec_cold",
            "harness_speedup",
            "classes_per_sec_exec",
            "exec_overhead_ratio",
        ] {
            assert!(value(&metrics, key).unwrap() > 0.0, "{key}");
        }
    }
}
