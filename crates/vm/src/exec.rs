//! Execution-phase verdicts: the normalized result of running `main` to
//! completion, differenced across profiles by `fuzz --exec-diff`.
//!
//! The startup matrix (§2.3's five phase digits) stops at "normally
//! invoked"; an [`ExecOutcome`] is the second differencing component layered
//! on top, in the style of classming/CrossLangFuzzer. It is a pure
//! *normalization* of [`Outcome`] — no new execution happens here — so the
//! startup digits of existing snapshots stay bit-identical.
//!
//! Normalization rules (DESIGN.md §13):
//! - completed runs compare by stdout transcript, with heap identity tokens
//!   (`demo.A@7`, `[Array@3`) scrubbed to `@obj` — real VMs embed
//!   nondeterministic addresses there;
//! - uncaught user/library exceptions compare by exception *class* only
//!   (messages and backtraces are vendor prose);
//! - specified runtime traps compare by [`JvmErrorKind`];
//! - budget exhaustion is its own verdict ([`ExecOutcome::Timeout`]), made
//!   replay-stable by the deterministic step budget;
//! - anything rejected before the runtime phase is [`ExecOutcome::NotExecuted`]
//!   so execution differencing never double-counts a startup discrepancy.

use crate::outcome::{JvmErrorKind, Outcome, Phase};
use std::fmt::{self, Write as _};

/// The normalized execution-phase verdict of one run.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ExecOutcome {
    /// The run was rejected (or crashed) before `main` could produce an
    /// execution result; the startup digit already tells the story.
    NotExecuted,
    /// `main` ran to completion; carries the normalized stdout transcript.
    Completed {
        /// Printed lines with heap identity tokens scrubbed.
        stdout: Vec<String>,
    },
    /// A user or library exception propagated out of `main`; compared by
    /// exception class (dotted binary name) only.
    Threw {
        /// Dotted class name, e.g. `java.lang.RuntimeException`.
        class: String,
    },
    /// The interpreter trapped with a specified runtime error
    /// (`ArithmeticException`, linkage errors surfacing lazily, …).
    Trapped {
        /// The trap's error classification.
        kind: JvmErrorKind,
    },
    /// Execution exhausted the deterministic step budget — the contained
    /// form of nontermination, as `run_contained` is the contained form of
    /// a panic.
    Timeout,
    /// The VM implementation itself crashed while running `main`.
    VmCrashed,
}

impl ExecOutcome {
    /// Normalizes a startup [`Outcome`] into its execution verdict.
    pub fn of(outcome: &Outcome) -> ExecOutcome {
        match ExecView::of(outcome) {
            ExecView::NotExecuted => ExecOutcome::NotExecuted,
            ExecView::Completed(stdout) => ExecOutcome::Completed {
                stdout: stdout.iter().map(|l| scrub_heap_ids(l)).collect(),
            },
            ExecView::Threw(class) => ExecOutcome::Threw {
                class: class.to_string(),
            },
            ExecView::Trapped(kind) => ExecOutcome::Trapped { kind },
            ExecView::Timeout => ExecOutcome::Timeout,
            ExecView::VmCrashed => ExecOutcome::VmCrashed,
        }
    }

    /// A compact single token for encoded execution keys, the execution
    /// analogue of the startup phase digit: one of `-`, `ok:<hash>`,
    /// `throw:<class>`, `trap:<kind>`, `budget`, `crash`. Tokens never
    /// contain `|`, the key separator.
    pub fn token(&self) -> String {
        let mut token = String::new();
        self.view().write_token(&mut token);
        token
    }

    /// This verdict as a view. Its stdout is already scrubbed, and
    /// scrubbing is idempotent, so the view's token is this token.
    fn view(&self) -> ExecView<'_> {
        match self {
            ExecOutcome::NotExecuted => ExecView::NotExecuted,
            ExecOutcome::Completed { stdout } => ExecView::Completed(stdout),
            ExecOutcome::Threw { class } => ExecView::Threw(class),
            ExecOutcome::Trapped { kind } => ExecView::Trapped(*kind),
            ExecOutcome::Timeout => ExecView::Timeout,
            ExecOutcome::VmCrashed => ExecView::VmCrashed,
        }
    }
}

impl fmt::Display for ExecOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.token())
    }
}

/// An [`ExecOutcome`] read off an [`Outcome`] in place: the same verdict,
/// borrowing the raw stdout lines and the exception class instead of
/// normalizing copies of them. Equality and tokens scrub on the fly, so
/// classifying a vector allocates nothing.
#[derive(Debug, Clone, Copy)]
pub enum ExecView<'a> {
    /// See [`ExecOutcome::NotExecuted`].
    NotExecuted,
    /// See [`ExecOutcome::Completed`]; the lines are not yet scrubbed.
    Completed(&'a [String]),
    /// See [`ExecOutcome::Threw`].
    Threw(&'a str),
    /// See [`ExecOutcome::Trapped`].
    Trapped(JvmErrorKind),
    /// See [`ExecOutcome::Timeout`].
    Timeout,
    /// See [`ExecOutcome::VmCrashed`].
    VmCrashed,
}

impl<'a> ExecView<'a> {
    /// Reads the execution verdict of a startup [`Outcome`] (the rules of
    /// [`ExecOutcome::of`], which is built on this).
    pub fn of(outcome: &'a Outcome) -> ExecView<'a> {
        match outcome {
            Outcome::Invoked { stdout } => ExecView::Completed(stdout),
            Outcome::Crashed { phase, .. } => {
                if *phase == Phase::Runtime {
                    ExecView::VmCrashed
                } else {
                    ExecView::NotExecuted
                }
            }
            Outcome::Rejected { phase, error } => {
                if *phase != Phase::Runtime {
                    return ExecView::NotExecuted;
                }
                match error.kind {
                    JvmErrorKind::ExecutionBudgetExceeded => ExecView::Timeout,
                    JvmErrorKind::UncaughtException => {
                        ExecView::Threw(uncaught_class(&error.message))
                    }
                    kind => ExecView::Trapped(kind),
                }
            }
        }
    }

    /// Appends [`ExecOutcome::token`] of this verdict to `out`.
    pub fn write_token(&self, out: &mut String) {
        match self {
            ExecView::NotExecuted => out.push('-'),
            ExecView::Completed(stdout) => {
                let mut h = Fnv64::new();
                for line in stdout.iter() {
                    scrubbed(line).for_each(|b| h.write(&[b]));
                    h.write(b"\n");
                }
                // Writing into a `String` cannot fail.
                let _ = write!(out, "ok:{:08x}", h.finish() as u32);
            }
            ExecView::Threw(class) => {
                out.push_str("throw:");
                out.push_str(class);
            }
            ExecView::Trapped(kind) => {
                let _ = write!(out, "trap:{kind:?}");
            }
            ExecView::Timeout => out.push_str("budget"),
            ExecView::VmCrashed => out.push_str("crash"),
        }
    }
}

/// Equal exactly when the normalized [`ExecOutcome`]s are.
impl PartialEq for ExecView<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (ExecView::Completed(a), ExecView::Completed(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b.iter())
                        .all(|(x, y)| scrubbed(x).eq(scrubbed(y)))
            }
            (ExecView::Threw(a), ExecView::Threw(b)) => a == b,
            (ExecView::Trapped(a), ExecView::Trapped(b)) => a == b,
            (ExecView::NotExecuted, ExecView::NotExecuted)
            | (ExecView::Timeout, ExecView::Timeout)
            | (ExecView::VmCrashed, ExecView::VmCrashed) => true,
            _ => false,
        }
    }
}

/// Scrubs heap identity tokens from a rendered line: any `@` followed by a
/// digit run (the interpreter's `Class@7` / `[Array@3` renderings) becomes
/// `@obj`, the way real-JVM differencing must ignore object addresses.
fn scrub_heap_ids(line: &str) -> String {
    let bytes: Vec<u8> = scrubbed(line).collect();
    // Only ASCII `@` and digits are replaced, so the bytes stay UTF-8.
    String::from_utf8(bytes).unwrap_or_default()
}

/// The bytes of `line` as [`scrub_heap_ids`] renders them, produced
/// lazily. `@` and digits are ASCII and never occur inside a multi-byte
/// UTF-8 sequence, so a byte-wise scan is the same as a char-wise one.
fn scrubbed(line: &str) -> impl Iterator<Item = u8> + '_ {
    let bytes = line.as_bytes();
    let mut i = 0;
    let mut pending: &'static [u8] = &[];
    std::iter::from_fn(move || {
        if let Some((&b, rest)) = pending.split_first() {
            pending = rest;
            return Some(b);
        }
        let b = *bytes.get(i)?;
        i += 1;
        if b == b'@' && bytes.get(i).is_some_and(u8::is_ascii_digit) {
            while bytes.get(i).is_some_and(u8::is_ascii_digit) {
                i += 1;
            }
            pending = b"obj";
        }
        Some(b)
    })
}

/// Extracts the dotted exception class from the launcher's uncaught-handler
/// message, `Exception in thread "main" <class>: <message>`.
fn uncaught_class(message: &str) -> &str {
    let rest = message
        .strip_prefix("Exception in thread \"main\" ")
        .unwrap_or(message);
    let class = rest.split(':').next().unwrap_or(rest).trim();
    if class.is_empty() {
        "java.lang.Throwable"
    } else {
        class
    }
}

/// FNV-1a 64-bit, dependency-free; only used to condense stdout transcripts
/// into key tokens.
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completed_runs_scrub_heap_ids_but_keep_text() {
        let out = Outcome::Invoked {
            stdout: vec!["demo.A@7".into(), "[Array@13".into(), "x@y 1@2a".into()],
        };
        let exec = ExecOutcome::of(&out);
        assert_eq!(
            exec,
            ExecOutcome::Completed {
                stdout: vec![
                    "demo.A@obj".into(),
                    "[Array@obj".into(),
                    "x@y 1@obja".into()
                ],
            }
        );
        // Two runs differing only in heap ids normalize identically.
        let other = Outcome::Invoked {
            stdout: vec!["demo.A@8".into(), "[Array@2".into(), "x@y 1@9a".into()],
        };
        assert_eq!(exec.token(), ExecOutcome::of(&other).token());
    }

    #[test]
    fn uncaught_exceptions_compare_by_class_only() {
        let a = Outcome::rejected(
            Phase::Runtime,
            JvmErrorKind::UncaughtException,
            "Exception in thread \"main\" java.lang.RuntimeException: boom at 0x1",
        );
        let b = Outcome::rejected(
            Phase::Runtime,
            JvmErrorKind::UncaughtException,
            "Exception in thread \"main\" java.lang.RuntimeException: other text",
        );
        assert_eq!(ExecOutcome::of(&a), ExecOutcome::of(&b));
        assert_eq!(
            ExecOutcome::of(&a),
            ExecOutcome::Threw {
                class: "java.lang.RuntimeException".into()
            }
        );
        assert_eq!(
            ExecOutcome::of(&a).token(),
            "throw:java.lang.RuntimeException"
        );
    }

    #[test]
    fn traps_timeouts_and_crashes_have_distinct_tokens() {
        let trap = Outcome::rejected(
            Phase::Runtime,
            JvmErrorKind::ArithmeticException,
            "/ by zero",
        );
        let budget = Outcome::rejected(
            Phase::Runtime,
            JvmErrorKind::ExecutionBudgetExceeded,
            "main exceeded the step budget",
        );
        let crash = Outcome::crashed(Phase::Runtime, "boom");
        assert_eq!(ExecOutcome::of(&trap).token(), "trap:ArithmeticException");
        assert_eq!(ExecOutcome::of(&budget), ExecOutcome::Timeout);
        assert_eq!(ExecOutcome::of(&budget).token(), "budget");
        assert_eq!(ExecOutcome::of(&crash), ExecOutcome::VmCrashed);
    }

    #[test]
    fn pre_runtime_rejections_are_not_executed() {
        for phase in [Phase::Loading, Phase::Linking, Phase::Initializing] {
            let out = Outcome::rejected(phase, JvmErrorKind::VerifyError, "x");
            assert_eq!(ExecOutcome::of(&out), ExecOutcome::NotExecuted);
            assert_eq!(ExecOutcome::of(&out).token(), "-");
        }
        let early_crash = Outcome::crashed(Phase::Linking, "boom");
        assert_eq!(ExecOutcome::of(&early_crash), ExecOutcome::NotExecuted);
    }

    #[test]
    fn different_traps_get_different_tokens() {
        let a = Outcome::rejected(Phase::Runtime, JvmErrorKind::IllegalAccessError, "x");
        let b = Outcome::rejected(Phase::Runtime, JvmErrorKind::NoSuchFieldError, "x");
        assert_ne!(ExecOutcome::of(&a).token(), ExecOutcome::of(&b).token());
    }
}
