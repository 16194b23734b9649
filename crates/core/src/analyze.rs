//! Evaluation of a test suite against the five JVMs: discrepancy counting,
//! distinct-discrepancy classification, per-VM phase histograms — the raw
//! material of Tables 6 and 7 and the `diff` metric of §3.1.3.

use std::collections::BTreeMap;

use crate::diff::DifferentialHarness;

/// Aggregated differential-testing results for one set of classfiles.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SuiteEvaluation {
    /// Number of classfiles evaluated.
    pub total: usize,
    /// Classes every JVM normally invoked.
    pub all_invoked: usize,
    /// Classes every JVM rejected in the same phase.
    pub all_rejected_same_stage: usize,
    /// Classes triggering a discrepancy.
    pub discrepancies: usize,
    /// Distinct discrepancy categories (encoded key → occurrence count).
    pub distinct: BTreeMap<String, usize>,
    /// Per-VM phase histogram: `per_vm_phase[vm][phase]` (Table 7).
    pub per_vm_phase: Vec<[usize; 5]>,
}

impl SuiteEvaluation {
    /// `diff = |Discrepancies| / |Classes| × 100%` (§3.1.3).
    pub fn diff_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.discrepancies as f64 / self.total as f64
        }
    }

    /// `|Distinct_Discrepancies|`.
    pub fn distinct_count(&self) -> usize {
        self.distinct.len()
    }
}

/// Runs every classfile through the harness and aggregates the outcomes.
/// Each classfile is decoded exactly once; the parse is shared by all of
/// the harness's profiles.
pub fn evaluate_suite(harness: &DifferentialHarness, classes: &[Vec<u8>]) -> SuiteEvaluation {
    let vm_count = harness.jvms().len();
    let mut eval = SuiteEvaluation {
        per_vm_phase: vec![[0; 5]; vm_count],
        ..SuiteEvaluation::default()
    };
    for bytes in classes {
        let vector = harness.run(bytes);
        eval.total += 1;
        for (vm, phase) in vector.encoded().iter().enumerate() {
            eval.per_vm_phase[vm][*phase as usize] += 1;
        }
        if vector.all_invoked() {
            eval.all_invoked += 1;
        } else if vector.all_rejected_same_stage() {
            eval.all_rejected_same_stage += 1;
        }
        if vector.is_discrepancy() {
            eval.discrepancies += 1;
            *eval.distinct.entry(vector.key()).or_insert(0) += 1;
        }
    }
    eval
}

#[cfg(test)]
mod tests {
    use super::*;
    use classfuzz_classfile::MethodAccess;
    use classfuzz_jimple::{lower::lower_class, IrClass, IrMethod};

    #[test]
    fn counts_are_a_partition() {
        let harness = DifferentialHarness::paper_five();
        let ok = lower_class(&IrClass::with_hello_main("a/Ok", "x")).to_bytes();
        let mut broken = IrClass::new("a/NoSuper");
        broken.super_class = Some("missing/Nope".into());
        let broken = lower_class(&broken).to_bytes();
        let mut clinit = IrClass::with_hello_main("a/Clinit", "x");
        clinit.methods.push(IrMethod::abstract_method(
            MethodAccess::PUBLIC | MethodAccess::ABSTRACT,
            "<clinit>",
            vec![],
            None,
        ));
        let clinit = lower_class(&clinit).to_bytes();

        let eval = evaluate_suite(&harness, &[ok, broken, clinit]);
        assert_eq!(eval.total, 3);
        assert_eq!(eval.all_invoked, 1);
        assert_eq!(eval.all_rejected_same_stage, 1);
        assert_eq!(eval.discrepancies, 1);
        assert_eq!(
            eval.all_invoked + eval.all_rejected_same_stage + eval.discrepancies,
            eval.total
        );
        assert_eq!(eval.distinct_count(), 1);
        assert!((eval.diff_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn per_vm_histogram_sums_to_total() {
        let harness = DifferentialHarness::paper_five();
        let classes: Vec<Vec<u8>> = (0..4)
            .map(|i| lower_class(&IrClass::with_hello_main(format!("h/C{i}"), "x")).to_bytes())
            .collect();
        let eval = evaluate_suite(&harness, &classes);
        for vm in &eval.per_vm_phase {
            assert_eq!(vm.iter().sum::<usize>(), eval.total);
        }
    }

    #[test]
    fn empty_suite_is_empty() {
        let harness = DifferentialHarness::paper_five();
        let eval = evaluate_suite(&harness, &[]);
        assert_eq!(eval.total, 0);
        assert_eq!(eval.diff_rate(), 0.0);
        assert_eq!(eval.distinct_count(), 0);
    }
}
