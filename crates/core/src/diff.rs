//! The differential-testing harness (§2.3): run a classfile on the five
//! JVMs and encode the per-VM outcomes into the paper's phase sequence.

use std::fmt;

use classfuzz_vm::{preparse, ExecOutcome, Jvm, Outcome, PreparsedClass, VmSpec};

/// The taxonomy of execution-phase discrepancies (`fuzz --exec-diff`) — the
/// scenario classes layered on top of the startup phase matrix, in
/// classification precedence order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecDiscrepancy {
    /// The startup digits already differ; execution verdicts are compared
    /// between different phases and carry no extra signal. Counted by the
    /// existing phase matrix, not by execution differencing.
    StartupPhase,
    /// Uniform startup, but some (not all) profiles exhausted the step
    /// budget — divergent nontermination.
    DivergentTimeout,
    /// Every profile completed `main`, with different normalized stdout.
    WrongResult,
    /// Every profile threw an uncaught exception, of different classes.
    DivergentException,
    /// Profiles trapped with different runtime error kinds, or disagree on
    /// the verdict family (completed vs threw vs trapped).
    DivergentTrap,
}

impl ExecDiscrepancy {
    /// Short label used in discrepancy logs.
    pub fn label(self) -> &'static str {
        match self {
            ExecDiscrepancy::StartupPhase => "startup-phase",
            ExecDiscrepancy::DivergentTimeout => "divergent-timeout",
            ExecDiscrepancy::WrongResult => "wrong-result",
            ExecDiscrepancy::DivergentException => "divergent-exception",
            ExecDiscrepancy::DivergentTrap => "divergent-trap",
        }
    }
}

impl fmt::Display for ExecDiscrepancy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The encoded result of one classfile across all tested JVMs — Figure 3's
/// sequence of phase digits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutcomeVector {
    outcomes: Vec<Outcome>,
}

impl OutcomeVector {
    /// Wraps raw outcomes (one per JVM, in harness order).
    pub fn new(outcomes: Vec<Outcome>) -> OutcomeVector {
        OutcomeVector { outcomes }
    }

    /// Per-JVM outcomes.
    pub fn outcomes(&self) -> &[Outcome] {
        &self.outcomes
    }

    /// Phase digits, e.g. `[0, 0, 0, 1, 2]` (Figure 3).
    ///
    /// A contained VM crash encodes as [`Outcome::CRASH_CODE`] (digit 5)
    /// rather than the phase it reached, so "profile A crashed in linking"
    /// never collides with "profile B rejected cleanly in linking" — the
    /// vector stays a discrepancy (§3.3 treats VM crashes as bugs in their
    /// own right).
    pub fn encoded(&self) -> Vec<u8> {
        self.outcomes.iter().map(Outcome::code).collect()
    }

    /// The category key: two discrepancies with the same key are "one
    /// distinct discrepancy" in the paper's counting. Phase codes are
    /// single digits (0–5), so the key is one ASCII digit per column,
    /// built in a single pass.
    pub fn key(&self) -> String {
        self.outcomes
            .iter()
            .map(|o| (b'0' + o.code()) as char)
            .collect()
    }

    /// A discrepancy: the sequence is not all the same digit.
    pub fn is_discrepancy(&self) -> bool {
        let enc = self.encoded();
        enc.iter().any(|&p| p != enc[0])
    }

    /// All JVMs normally invoked the class.
    pub fn all_invoked(&self) -> bool {
        self.encoded().iter().all(|&p| p == 0)
    }

    /// All JVMs rejected the class in the same phase.
    pub fn all_rejected_same_stage(&self) -> bool {
        let enc = self.encoded();
        enc[0] != 0 && enc.iter().all(|&p| p == enc[0])
    }

    /// At least one JVM crashed internally (contained panic) on this
    /// class — reportable even when every profile crashed identically.
    pub fn has_crash(&self) -> bool {
        self.outcomes.iter().any(Outcome::is_crash)
    }

    /// Per-JVM execution verdicts (normalized; see [`ExecOutcome`]).
    pub fn exec_outcomes(&self) -> Vec<ExecOutcome> {
        self.outcomes.iter().map(ExecOutcome::of).collect()
    }

    /// The execution-phase category key: one [`ExecOutcome::token`] per
    /// column, `|`-joined (tokens contain dots in class names, never pipes)
    /// — the execution analogue of [`OutcomeVector::key`].
    pub fn exec_key(&self) -> String {
        self.outcomes
            .iter()
            .map(|o| ExecOutcome::of(o).token())
            .collect::<Vec<_>>()
            .join("|")
    }

    /// An *execution-phase* discrepancy: the startup digits all agree (the
    /// phase matrix sees nothing) yet the normalized execution verdicts
    /// differ — the class of bug this engine exists to find.
    pub fn is_exec_discrepancy(&self) -> bool {
        matches!(
            self.classify_exec(),
            Some(
                ExecDiscrepancy::DivergentTimeout
                    | ExecDiscrepancy::WrongResult
                    | ExecDiscrepancy::DivergentException
                    | ExecDiscrepancy::DivergentTrap
            )
        )
    }

    /// Classifies this vector under the execution-discrepancy taxonomy.
    /// `None` means the profiles agree everywhere (startup and execution).
    pub fn classify_exec(&self) -> Option<ExecDiscrepancy> {
        if self.is_discrepancy() {
            return Some(ExecDiscrepancy::StartupPhase);
        }
        let execs = self.exec_outcomes();
        if execs.iter().all(|e| e == &execs[0]) {
            return None;
        }
        Some(if execs.iter().any(|e| matches!(e, ExecOutcome::Timeout)) {
            ExecDiscrepancy::DivergentTimeout
        } else if execs
            .iter()
            .all(|e| matches!(e, ExecOutcome::Completed { .. }))
        {
            ExecDiscrepancy::WrongResult
        } else if execs.iter().all(|e| matches!(e, ExecOutcome::Threw { .. })) {
            ExecDiscrepancy::DivergentException
        } else {
            ExecDiscrepancy::DivergentTrap
        })
    }
}

impl fmt::Display for OutcomeVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.key())
    }
}

/// A set of JVMs that each run the same class, side by side.
///
/// # Examples
///
/// ```
/// use classfuzz_core::diff::DifferentialHarness;
/// use classfuzz_jimple::{lower::lower_class, IrClass};
///
/// let harness = DifferentialHarness::paper_five();
/// let bytes = lower_class(&IrClass::with_hello_main("d/T", "Completed!")).to_bytes();
/// let vector = harness.run(&bytes);
/// assert_eq!(vector.key(), "00000");
/// assert!(!vector.is_discrepancy());
/// ```
#[derive(Debug, Clone)]
pub struct DifferentialHarness {
    jvms: Vec<Jvm>,
}

impl DifferentialHarness {
    /// Builds a harness from explicit profiles.
    pub fn new(specs: Vec<VmSpec>) -> DifferentialHarness {
        DifferentialHarness {
            jvms: specs.into_iter().map(Jvm::new).collect(),
        }
    }

    /// The paper's Table 3 lineup: HotSpot 7/8/9, J9, GIJ.
    pub fn paper_five() -> DifferentialHarness {
        DifferentialHarness::new(VmSpec::all_five())
    }

    /// The JVMs, in column order.
    pub fn jvms(&self) -> &[Jvm] {
        &self.jvms
    }

    /// VM display names, in column order.
    pub fn names(&self) -> Vec<String> {
        self.jvms.iter().map(|j| j.spec().name.clone()).collect()
    }

    /// Runs one classfile on every JVM. Decodes the bytes once and shares
    /// the parse across all columns (see [`DifferentialHarness::run_parsed`]).
    pub fn run(&self, class_bytes: &[u8]) -> OutcomeVector {
        self.run_parsed(&preparse(class_bytes))
    }

    /// Runs one already-decoded classfile on every JVM — the hot path:
    /// parsing is profile-independent, so one decode serves all columns.
    pub fn run_parsed(&self, parsed: &PreparsedClass) -> OutcomeVector {
        OutcomeVector::new(
            self.jvms
                .iter()
                .map(|j| j.run_parsed(parsed).outcome)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use classfuzz_classfile::MethodAccess;
    use classfuzz_jimple::{lower::lower_class, IrClass, IrMethod};
    use classfuzz_vm::Phase;

    #[test]
    fn figure3_shape_from_clinit_mutant() {
        // Figure 2's class: HotSpot columns invoke (0), J9 rejects at
        // loading (1).
        let mut class = IrClass::with_hello_main("M1436188543", "Completed!");
        class.methods.push(IrMethod::abstract_method(
            MethodAccess::PUBLIC | MethodAccess::ABSTRACT,
            "<clinit>",
            vec![],
            None,
        ));
        let harness = DifferentialHarness::paper_five();
        let v = harness.run(&lower_class(&class).to_bytes());
        assert!(v.is_discrepancy());
        let enc = v.encoded();
        assert_eq!(&enc[0..3], &[0, 0, 0], "HotSpot releases invoke normally");
        assert_eq!(enc[3], 1, "J9 rejects at loading");
    }

    #[test]
    fn vector_classification() {
        let ok = OutcomeVector::new(vec![Outcome::Invoked { stdout: vec![] }; 5]);
        assert!(ok.all_invoked());
        assert!(!ok.is_discrepancy());
        assert!(!ok.all_rejected_same_stage());
        assert_eq!(ok.key(), "00000");

        let rejected = OutcomeVector::new(vec![
            Outcome::rejected(
                Phase::Linking,
                classfuzz_vm::JvmErrorKind::VerifyError,
                "x"
            );
            5
        ]);
        assert!(rejected.all_rejected_same_stage());
        assert!(!rejected.is_discrepancy());
        assert_eq!(rejected.key(), "22222");
    }

    #[test]
    fn crash_digit_never_collides_with_clean_rejection() {
        // Both columns stopped in linking, but one *crashed* there: the
        // vector must stay a discrepancy with the crash digit visible.
        let clean = Outcome::rejected(Phase::Linking, classfuzz_vm::JvmErrorKind::VerifyError, "x");
        let crashed = Outcome::crashed(Phase::Linking, "panicked at verifier.rs:1: boom");
        let v = OutcomeVector::new(vec![
            clean.clone(),
            crashed.clone(),
            clean.clone(),
            clean.clone(),
            clean,
        ]);
        assert!(v.has_crash());
        assert!(v.is_discrepancy());
        assert_eq!(v.key(), "25222");
        assert!(!v.all_rejected_same_stage());

        // Even a uniform all-crash vector is flagged via has_crash().
        let all = OutcomeVector::new(vec![crashed; 5]);
        assert!(all.has_crash());
        assert!(!all.is_discrepancy());
    }

    #[test]
    fn key_matches_the_per_digit_format() {
        // Pin the exact strings the old `u8::to_string` + `join("")`
        // implementation produced, across every phase/crash code 0..=5.
        let outcome_with_code = |code: u8| match code {
            0 => Outcome::Invoked { stdout: vec![] },
            5 => Outcome::crashed(Phase::Loading, "panicked at x.rs:1: boom"),
            c => {
                let phase = match c {
                    1 => Phase::Loading,
                    2 => Phase::Linking,
                    3 => Phase::Initializing,
                    _ => Phase::Runtime,
                };
                Outcome::rejected(phase, classfuzz_vm::JvmErrorKind::VerifyError, "x")
            }
        };
        for codes in [
            vec![0u8, 1, 2, 3, 4],
            vec![5, 5, 5, 5, 5],
            vec![0, 0, 0, 0, 0],
            vec![4, 3, 2, 1, 0],
            vec![2, 5, 0, 1, 3],
        ] {
            let v = OutcomeVector::new(codes.iter().map(|&c| outcome_with_code(c)).collect());
            let old_format: String = codes.iter().map(u8::to_string).collect::<Vec<_>>().join("");
            assert_eq!(v.key(), old_format);
            assert_eq!(v.encoded(), codes);
        }
    }

    #[test]
    fn run_parsed_matches_run() {
        let harness = DifferentialHarness::paper_five();
        let good = lower_class(&IrClass::with_hello_main("d/Eq", "Completed!")).to_bytes();
        for bytes in [&good[..], &[0xCA, 0xFE][..]] {
            let parsed = classfuzz_vm::preparse(bytes);
            assert_eq!(harness.run(bytes), harness.run_parsed(&parsed));
        }
    }

    #[test]
    fn exec_taxonomy_precedence() {
        use classfuzz_vm::JvmErrorKind;
        let completed = |line: &str| Outcome::Invoked {
            stdout: vec![line.into()],
        };
        let trap = |kind: JvmErrorKind| Outcome::rejected(Phase::Runtime, kind, "x");
        let threw = |class: &str| {
            Outcome::rejected(
                Phase::Runtime,
                JvmErrorKind::UncaughtException,
                format!("Exception in thread \"main\" {class}: boom"),
            )
        };
        let budget = trap(JvmErrorKind::ExecutionBudgetExceeded);

        // Uniform everywhere: no discrepancy of any kind.
        let ok = OutcomeVector::new(vec![completed("a"); 5]);
        assert_eq!(ok.classify_exec(), None);
        assert!(!ok.is_exec_discrepancy());

        // Startup digits differ: classified as StartupPhase, NOT an
        // execution discrepancy (the phase matrix already counts it).
        let startup = OutcomeVector::new(vec![
            completed("a"),
            completed("a"),
            completed("a"),
            completed("a"),
            Outcome::rejected(Phase::Linking, JvmErrorKind::VerifyError, "x"),
        ]);
        assert_eq!(startup.classify_exec(), Some(ExecDiscrepancy::StartupPhase));
        assert!(!startup.is_exec_discrepancy());

        // Uniform "00000" startup, different stdout: WrongResult.
        let wrong = OutcomeVector::new(vec![
            completed("a"),
            completed("a"),
            completed("b"),
            completed("a"),
            completed("a"),
        ]);
        assert!(!wrong.is_discrepancy());
        assert_eq!(wrong.classify_exec(), Some(ExecDiscrepancy::WrongResult));
        assert!(wrong.is_exec_discrepancy());

        // Uniform "44444" startup, different trap kinds: DivergentTrap —
        // invisible to the startup matrix.
        let traps = OutcomeVector::new(vec![
            trap(JvmErrorKind::NoSuchFieldError),
            trap(JvmErrorKind::NoSuchFieldError),
            trap(JvmErrorKind::IllegalAccessError),
            trap(JvmErrorKind::NoSuchFieldError),
            trap(JvmErrorKind::NoSuchFieldError),
        ]);
        assert!(!traps.is_discrepancy());
        assert_eq!(traps.classify_exec(), Some(ExecDiscrepancy::DivergentTrap));
        assert!(traps.is_exec_discrepancy());

        // Uniform "44444", different uncaught classes: DivergentException.
        let exceptions = OutcomeVector::new(vec![
            threw("java.lang.RuntimeException"),
            threw("java.lang.RuntimeException"),
            threw("java.lang.IllegalStateException"),
            threw("java.lang.RuntimeException"),
            threw("java.lang.RuntimeException"),
        ]);
        assert_eq!(
            exceptions.classify_exec(),
            Some(ExecDiscrepancy::DivergentException)
        );

        // Timeout on some but not all columns takes precedence.
        let timeout = OutcomeVector::new(vec![
            budget.clone(),
            budget.clone(),
            trap(JvmErrorKind::ArithmeticException),
            budget.clone(),
            budget.clone(),
        ]);
        assert!(!timeout.is_discrepancy());
        assert_eq!(
            timeout.classify_exec(),
            Some(ExecDiscrepancy::DivergentTimeout)
        );

        // All-timeout is uniform: nontermination contained identically is
        // not a discrepancy.
        let all_budget = OutcomeVector::new(vec![budget; 5]);
        assert_eq!(all_budget.classify_exec(), None);
    }

    #[test]
    fn exec_key_is_one_token_per_column() {
        let harness = DifferentialHarness::paper_five();
        let good = lower_class(&IrClass::with_hello_main("d/EK", "Completed!")).to_bytes();
        let v = harness.run(&good);
        let key = v.exec_key();
        let tokens: Vec<&str> = key.split('|').collect();
        assert_eq!(tokens.len(), 5);
        assert!(tokens.iter().all(|t| t.starts_with("ok:")), "{key}");
        assert!(tokens.iter().all(|t| *t == tokens[0]));
    }

    #[test]
    fn harness_names_follow_table3_order() {
        let harness = DifferentialHarness::paper_five();
        let names = harness.names();
        assert_eq!(names.len(), 5);
        assert!(names[0].contains("Java 7"));
        assert!(names[3].contains("J9"));
        assert!(names[4].contains("GIJ"));
    }
}
