//! The JVM startup pipeline: loading → linking → initialization →
//! invocation (Table 1), producing one [`Outcome`] per run.
//!
//! Every run is fault-contained: a panic anywhere in the parser, linker,
//! verifier, or interpreter is caught (see [`crate::containment`]) and
//! reported as [`Outcome::Crashed`] carrying the startup phase the VM had
//! reached, instead of unwinding into — and killing — the campaign engine.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

use classfuzz_classfile::{ClassAccess, ClassFile, MethodAccess};
use classfuzz_coverage::TraceFile;

use crate::containment::run_contained;
use crate::cov::Cov;
use crate::interp::{ExecError, Machine, RtValue};
use crate::library::{bootstrap_library, shared_library, LibClass};
use crate::outcome::{JvmErrorKind, Outcome, Phase};
use crate::spec::VmSpec;
use crate::world::{MethodSummary, UserClass, World};
use crate::{linker, loader, probe, probe_branch, verifier};

/// The result of one startup run. A traced run's coverage lives in the
/// caller's buffer (see [`Jvm::run_traced_into`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionResult {
    /// The observable behavior `r = jvm(e, c, i)`.
    pub outcome: Outcome,
}

/// A classfile decoded exactly once and shared across every profile that
/// runs it: parsing (and the [`UserClass::summarize`] projection) is
/// profile-independent, so the reference trace run and all five harness
/// profiles can consume the same `PreparsedClass`. All profile-*dependent*
/// policy lives downstream, in the format check, linking, and verification.
///
/// A parse failure is part of the value: the deterministic
/// `ClassFormatError` message — or, for parser panics, the contained crash
/// detail — is captured once and replayed identically on every run.
#[derive(Debug, Clone)]
pub struct PreparsedClass {
    verdict: PreparseVerdict,
}

#[derive(Debug, Clone)]
enum PreparseVerdict {
    /// Parse + summary succeeded; shared by reference across runs.
    Parsed(Arc<UserClass>),
    /// Deterministic parse rejection: the `ClassFormatError` message.
    FormatError(String),
    /// The parser panicked; the contained, deterministic crash detail.
    Crashed(String),
}

impl PreparsedClass {
    /// The summarized class, when the bytes parsed successfully.
    pub fn class(&self) -> Option<&UserClass> {
        match &self.verdict {
            PreparseVerdict::Parsed(class) => Some(class),
            _ => None,
        }
    }

    /// Whether the bytes parsed cleanly.
    pub fn is_parsed(&self) -> bool {
        matches!(self.verdict, PreparseVerdict::Parsed(_))
    }
}

/// Decodes classfile bytes once, for use with [`Jvm::run_parsed`] and the
/// other `*_parsed` entry points. Parser panics are contained here and
/// replayed as crash verdicts, exactly as the per-run containment would
/// report them.
pub fn preparse(class_bytes: &[u8]) -> PreparsedClass {
    let verdict = match run_contained(|| match ClassFile::from_bytes(class_bytes) {
        Ok(cf) => Ok(Arc::new(UserClass::summarize(cf))),
        Err(e) => Err(e.to_string()),
    }) {
        Ok(Ok(class)) => PreparseVerdict::Parsed(class),
        Ok(Err(message)) => PreparseVerdict::FormatError(message),
        Err(detail) => PreparseVerdict::Crashed(detail),
    };
    PreparsedClass { verdict }
}

/// A JVM instance: one policy profile, ready to run classfiles.
///
/// Construction resolves the profile's bootstrap library from the
/// process-wide cache (see [`crate::library::shared_library`]), so each
/// run builds only the thin user-class overlay on top of a shared,
/// immutable base world.
///
/// # Examples
///
/// ```
/// use classfuzz_vm::{Jvm, VmSpec};
/// use classfuzz_jimple::{lower::lower_class, IrClass};
///
/// let class = IrClass::with_hello_main("demo/Hi", "Completed!");
/// let bytes = lower_class(&class).to_bytes();
/// let jvm = Jvm::new(VmSpec::hotspot8());
/// let result = jvm.run(&bytes);
/// assert_eq!(result.outcome.phase().code(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Jvm {
    spec: VmSpec,
    /// The cached bootstrap library; `None` forces a cold rebuild per run
    /// (the pre-sharing behavior, kept measurable for the bench gate).
    base: Option<Arc<BTreeMap<String, LibClass>>>,
    /// Decode each method afresh on every verify instead of reading the
    /// class's shared [`DecodedTable`](crate::decode::DecodedTable) — the
    /// pre-sharing verifier, kept constructible for the `startup` bench
    /// baseline.
    cold_verify: bool,
    /// Extra user classes overlaid beside every run's main class, decoded
    /// once at construction (see [`Jvm::with_classpath`]).
    classpath: Vec<Arc<UserClass>>,
}

impl Jvm {
    /// Creates a JVM with the given policy profile, sharing the
    /// process-wide bootstrap library for its JRE generation.
    pub fn new(spec: VmSpec) -> Jvm {
        let base = Some(shared_library(spec.jre));
        Jvm {
            spec,
            base,
            cold_verify: false,
            classpath: Vec::new(),
        }
    }

    /// Creates a JVM that rebuilds its bootstrap library on every run and
    /// re-decodes every method per verification — the old cold-world
    /// behavior. Only useful as the benchmark baseline; campaigns should
    /// use [`Jvm::new`].
    pub fn uncached(spec: VmSpec) -> Jvm {
        Jvm {
            spec,
            base: None,
            cold_verify: true,
            classpath: Vec::new(),
        }
    }

    /// Creates a JVM that shares the bootstrap library but decodes each
    /// method afresh on every verify — isolating the decode-once win from
    /// library caching, as the `startup` bench scenario's baseline arm.
    pub fn cold_verify(spec: VmSpec) -> Jvm {
        Jvm {
            cold_verify: true,
            ..Jvm::new(spec)
        }
    }

    /// Puts `extras` on this JVM's classpath. Like the bootstrap library,
    /// the classpath is part of the environment every run sees: each extra
    /// is decoded once, here, and every run overlays the ones that parse
    /// beside its main class. Extras that fail to decode are skipped.
    pub fn with_classpath(mut self, extras: &[Vec<u8>]) -> Jvm {
        self.classpath = extras
            .iter()
            .filter_map(|bytes| match preparse(bytes).verdict {
                PreparseVerdict::Parsed(class) => Some(class),
                _ => None,
            })
            .collect();
        self
    }

    /// The policy profile.
    pub fn spec(&self) -> &VmSpec {
        &self.spec
    }

    fn base_library(&self) -> Arc<BTreeMap<String, LibClass>> {
        match &self.base {
            Some(base) => Arc::clone(base),
            None => Arc::new(bootstrap_library(self.spec.jre)),
        }
    }

    /// Runs `java <class>` on the given classfile bytes, without coverage.
    pub fn run(&self, class_bytes: &[u8]) -> ExecutionResult {
        self.run_parsed(&preparse(class_bytes))
    }

    /// [`Jvm::run`] over an already-decoded classfile: the differential
    /// hot path, where one decode is shared by all profiles.
    pub fn run_parsed(&self, parsed: &PreparsedClass) -> ExecutionResult {
        self.contained_startup(parsed, &mut Cov::disabled())
    }

    /// Runs with coverage collection into a caller-owned reusable buffer —
    /// the reference-JVM mode (`--enable-native-coverage` in the paper's
    /// setup). `scratch` is cleared, records the run's probes, and keeps
    /// its word-array allocation across calls.
    pub fn run_traced_into(&self, class_bytes: &[u8], scratch: &mut TraceFile) -> ExecutionResult {
        self.run_traced_into_parsed(&preparse(class_bytes), scratch)
    }

    /// [`Jvm::run_traced_into`] over an already-decoded classfile: the
    /// campaign hot path.
    pub fn run_traced_into_parsed(
        &self,
        parsed: &PreparsedClass,
        scratch: &mut TraceFile,
    ) -> ExecutionResult {
        let mut cov = Cov::enabled_reusing(std::mem::take(scratch));
        let result = self.contained_startup(parsed, &mut cov);
        *scratch = cov.into_trace().unwrap_or_default();
        result
    }

    /// The one pipeline call behind every entry point, so the bytes path
    /// and the parsed path, traced or not, execute the identical pipeline
    /// and fire the identical coverage-probe pattern.
    ///
    /// Fault containment: `progress` tracks the deepest phase the pipeline
    /// entered, so a panic inside any stage becomes a deterministic crash
    /// verdict attributed to that phase. Coverage probes fired before the
    /// panic survive (the trace of a crashed run is its partial trace —
    /// itself deterministic).
    fn contained_startup(&self, parsed: &PreparsedClass, cov: &mut Cov) -> ExecutionResult {
        let progress = Cell::new(Phase::Loading);
        let outcome = match run_contained(|| self.startup(parsed, cov, &progress)) {
            Ok(outcome) => outcome,
            Err(detail) => Outcome::crashed(progress.get(), detail),
        };
        ExecutionResult { outcome }
    }

    fn startup(&self, parsed: &PreparsedClass, cov: &mut Cov, progress: &Cell<Phase>) -> Outcome {
        progress.set(Phase::Loading);
        probe!(cov);
        // --- Creation & loading: replay the (shared) parse verdict -----
        let main_class = match &parsed.verdict {
            PreparseVerdict::Parsed(class) => Arc::clone(class),
            PreparseVerdict::FormatError(message) => {
                probe!(cov);
                return Outcome::rejected(
                    Phase::Loading,
                    JvmErrorKind::ClassFormatError,
                    message.clone(),
                );
            }
            // A parser panic was contained at preparse time; replay it as
            // the loading-phase crash the per-run containment would have
            // reported (the entry probe above has fired, matching the
            // partial trace of the in-run panic).
            PreparseVerdict::Crashed(detail) => {
                return Outcome::crashed(Phase::Loading, detail.clone());
            }
        };
        // The main class goes first, so its name resolves to it; the
        // overlay shares the parse's `Arc` — no per-run classfile copy.
        let user_classes = std::iter::once(Arc::clone(&main_class));
        let world = World::with_library(
            self.base_library(),
            user_classes.chain(self.classpath.iter().cloned()).collect(),
        );
        let main_class: &UserClass = &main_class;
        let main_name = &main_class.name;

        // --- Creation & loading: format check --------------------------
        if let Err(outcome) = loader::format_check(main_class, &self.spec, cov) {
            return outcome;
        }

        // --- Linking: hierarchy, throws resolution ---------------------
        progress.set(Phase::Linking);
        if let Err(outcome) = linker::link_check(&world, main_class, &self.spec, cov) {
            return outcome;
        }

        // --- Linking: verification (eager VMs verify every method) -----
        if probe_branch!(cov, !self.spec.lazy_method_verification) {
            // Both arms run the same inner verifier (and fire the same
            // probes); `cold_verify` only selects whether the shared
            // decoded-method table is consulted.
            let verified = if self.cold_verify {
                verifier::verify_class_cold(&world, main_class, &self.spec, cov)
            } else {
                verifier::verify_class(&world, main_class, &self.spec, cov)
            };
            if let Err(outcome) = verified {
                return outcome;
            }
        }

        // --- Initialization: preparation + <clinit> --------------------
        progress.set(Phase::Initializing);
        let mut machine = Machine::new(&world, &self.spec);
        machine.prepare_statics(main_class);
        if let Some(clinit) = self.initializer_of(main_class) {
            probe!(cov);
            match machine.call_static(main_class, &clinit.name, &clinit.desc_text, vec![], cov) {
                Ok(_) => {}
                Err(ExecError::Linkage { kind, message }) => {
                    // Linkage errors surfacing from lazy verification or
                    // resolution inside <clinit> are linking-phase errors.
                    return Outcome::rejected(linkage_phase(kind), kind, message);
                }
                Err(ExecError::Uncaught(t)) => {
                    return Outcome::rejected(
                        Phase::Initializing,
                        JvmErrorKind::ExceptionInInitializerError,
                        format!(
                            "Caught {}: {}",
                            t.class.replace('/', "."),
                            t.message.unwrap_or_default()
                        ),
                    );
                }
                Err(ExecError::BudgetExceeded) => {
                    return Outcome::rejected(
                        Phase::Initializing,
                        JvmErrorKind::ExecutionBudgetExceeded,
                        "<clinit> exceeded the step budget",
                    );
                }
            }
        }

        // --- Invocation: find and run main ------------------------------
        progress.set(Phase::Runtime);
        let is_interface = main_class.cf.access.contains(ClassAccess::INTERFACE);
        if probe_branch!(cov, is_interface && !self.spec.interface_main_invocable) {
            return Outcome::rejected(
                Phase::Runtime,
                JvmErrorKind::MainMethodNotFound,
                format!("{main_name} is an interface"),
            );
        }
        let main = main_class.find_method("main", "([Ljava/lang/String;)V");
        if !main.is_some_and(|m| m.access.contains(MethodAccess::STATIC) && m.has_code) {
            probe!(cov);
            return Outcome::rejected(
                Phase::Runtime,
                JvmErrorKind::MainMethodNotFound,
                format!("Main method not found in class {main_name}"),
            );
        }
        let args = vec![RtValue::Ref(None)]; // String[] args — we pass null
        match machine.call_static(main_class, "main", "([Ljava/lang/String;)V", args, cov) {
            Ok(_) => Outcome::Invoked {
                stdout: machine.stdout,
            },
            Err(ExecError::Linkage { kind, message }) => {
                Outcome::rejected(linkage_phase(kind), kind, message)
            }
            Err(ExecError::Uncaught(t)) => {
                let kind = runtime_kind(&t.class);
                Outcome::rejected(
                    Phase::Runtime,
                    kind,
                    format!(
                        "Exception in thread \"main\" {}: {}",
                        t.class.replace('/', "."),
                        t.message.unwrap_or_default()
                    ),
                )
            }
            Err(ExecError::BudgetExceeded) => Outcome::rejected(
                Phase::Runtime,
                JvmErrorKind::ExecutionBudgetExceeded,
                "main exceeded the step budget",
            ),
        }
    }

    /// The *actual* class-initialization method under this VM's rules:
    /// `<clinit>`, no arguments, with the static flag (version ≥ 51).
    /// Non-static `<clinit>`s are "of no consequence" here; whether they
    /// were already rejected at load time is the loader's policy.
    fn initializer_of<'c>(&self, class: &'c UserClass) -> Option<&'c MethodSummary> {
        class.methods.iter().find(|m| {
            m.name == "<clinit>"
                && m.access.contains(MethodAccess::STATIC)
                && m.has_code
                && m.desc_text == "()V"
        })
    }
}

/// Which phase a linkage error surfacing during execution belongs to, under
/// the paper's five-way simplification (§2.3).
fn linkage_phase(kind: JvmErrorKind) -> Phase {
    if kind == JvmErrorKind::VerifyError {
        Phase::Linking
    } else {
        Phase::Runtime
    }
}

fn runtime_kind(class: &str) -> JvmErrorKind {
    match class {
        "java/lang/ArithmeticException" => JvmErrorKind::ArithmeticException,
        "java/lang/NullPointerException" => JvmErrorKind::NullPointerException,
        "java/lang/ClassCastException" => JvmErrorKind::ClassCastException,
        "java/lang/ArrayIndexOutOfBoundsException" => JvmErrorKind::ArrayIndexOutOfBoundsException,
        "java/lang/NegativeArraySizeException" => JvmErrorKind::NegativeArraySizeException,
        "java/lang/StackOverflowError" => JvmErrorKind::StackOverflowError,
        _ => JvmErrorKind::UncaughtException,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use classfuzz_jimple::{lower::lower_class, IrClass, IrMethod};

    fn run_on(class: &IrClass, spec: VmSpec) -> Outcome {
        Jvm::new(spec).run(&lower_class(class).to_bytes()).outcome
    }

    fn traced(jvm: &Jvm, bytes: &[u8]) -> (ExecutionResult, TraceFile) {
        let mut trace = TraceFile::new();
        (jvm.run_traced_into(bytes, &mut trace), trace)
    }

    #[test]
    fn hello_runs_on_all_five() {
        let class = IrClass::with_hello_main("ok/Hello", "Completed!");
        for spec in VmSpec::all_five() {
            let out = run_on(&class, spec.clone());
            match out {
                Outcome::Invoked { ref stdout } => {
                    assert_eq!(stdout, &vec!["Completed!".to_string()], "{}", spec.name)
                }
                other => panic!("{} rejected hello: {other}", spec.name),
            }
        }
    }

    #[test]
    fn figure2_clinit_discrepancy() {
        // HotSpot invokes normally (0); J9 reports ClassFormatError (1).
        let mut class = IrClass::with_hello_main("M1436188543", "Completed!");
        class.methods.push(IrMethod::abstract_method(
            classfuzz_classfile::MethodAccess::PUBLIC | classfuzz_classfile::MethodAccess::ABSTRACT,
            "<clinit>",
            vec![],
            None,
        ));
        assert_eq!(run_on(&class, VmSpec::hotspot8()).phase(), Phase::Invoked);
        let j9 = run_on(&class, VmSpec::j9());
        assert_eq!(j9.phase(), Phase::Loading);
        assert_eq!(j9.error().unwrap().kind, JvmErrorKind::ClassFormatError);
    }

    #[test]
    fn missing_main_is_runtime_rejection() {
        let class = IrClass::new("no/Main");
        let out = run_on(&class, VmSpec::hotspot9());
        assert_eq!(out.phase(), Phase::Runtime);
        assert_eq!(out.error().unwrap().kind, JvmErrorKind::MainMethodNotFound);
    }

    #[test]
    fn instance_main_is_runtime_rejection() {
        let mut class = IrClass::with_hello_main("inst/Main", "Completed!");
        let main = class.methods.iter_mut().find(|m| m.name == "main").unwrap();
        main.access = main.access.without(MethodAccess::STATIC);
        let out = run_on(&class, VmSpec::hotspot9());
        assert_eq!(out.phase(), Phase::Runtime);
        assert_eq!(out.error().unwrap().kind, JvmErrorKind::MainMethodNotFound);
    }

    #[test]
    fn only_verify_errors_surface_as_linking() {
        assert_eq!(linkage_phase(JvmErrorKind::VerifyError), Phase::Linking);
        for kind in [
            JvmErrorKind::NoClassDefFoundError,
            JvmErrorKind::ClassFormatError,
            JvmErrorKind::IllegalAccessError,
            JvmErrorKind::NoSuchMethodError,
            JvmErrorKind::ResolutionDepthExceeded,
        ] {
            assert_eq!(linkage_phase(kind), Phase::Runtime, "{kind:?}");
        }
    }

    #[test]
    fn unparseable_bytes_rejected_at_loading() {
        let jvm = Jvm::new(VmSpec::hotspot9());
        let out = jvm.run(&[0xCA, 0xFE, 0xBA]).outcome;
        assert_eq!(out.phase(), Phase::Loading);
    }

    #[test]
    fn preparse_classifies_bytes() {
        let class = IrClass::with_hello_main("pp/Ok", "x");
        let good = preparse(&lower_class(&class).to_bytes());
        assert!(good.is_parsed());
        assert_eq!(good.class().unwrap().name, "pp/Ok");
        let bad = preparse(&[0xCA, 0xFE, 0xBA]);
        assert!(!bad.is_parsed());
        assert!(bad.class().is_none());
    }

    #[test]
    fn parsed_path_matches_bytes_path_including_traces() {
        let class = IrClass::with_hello_main("pp/Same", "Completed!");
        let bytes = lower_class(&class).to_bytes();
        let inputs: [&[u8]; 3] = [&bytes, &[0xCA, 0xFE, 0xBA], &bytes[..bytes.len() / 2]];
        for spec in VmSpec::all_five() {
            let jvm = Jvm::new(spec);
            for input in inputs {
                let parsed = preparse(input);
                assert_eq!(jvm.run(input), jvm.run_parsed(&parsed));
                let mut trace = TraceFile::new();
                let from_parsed = (jvm.run_traced_into_parsed(&parsed, &mut trace), trace);
                assert_eq!(traced(&jvm, input), from_parsed);
            }
        }
    }

    #[test]
    fn uncached_jvm_matches_cached() {
        let class = IrClass::with_hello_main("pp/Cold", "Completed!");
        let bytes = lower_class(&class).to_bytes();
        for spec in VmSpec::all_five() {
            let cached = Jvm::new(spec.clone());
            let cold = Jvm::uncached(spec);
            assert_eq!(traced(&cached, &bytes), traced(&cold, &bytes));
        }
    }

    #[test]
    fn reference_vm_produces_coverage() {
        let class = IrClass::with_hello_main("cov/T", "x");
        let jvm = Jvm::new(VmSpec::hotspot9());
        let (_, trace) = traced(&jvm, &lower_class(&class).to_bytes());
        assert!(trace.stats().stmt > 10);
        assert!(trace.stats().br > 5);
    }

    #[test]
    fn different_classes_produce_different_coverage() {
        let a = IrClass::with_hello_main("cov/A", "x");
        let mut b = IrClass::with_hello_main("cov/B", "x");
        b.fields.push(classfuzz_jimple::IrField {
            access: classfuzz_classfile::FieldAccess::STATIC,
            name: "f".into(),
            ty: classfuzz_jimple::JType::Long,
            constant_value: None,
        });
        b.interfaces.push("java/lang/Runnable".into());
        let jvm = Jvm::new(VmSpec::hotspot9());
        let (_, ta) = traced(&jvm, &lower_class(&a).to_bytes());
        let (_, tb) = traced(&jvm, &lower_class(&b).to_bytes());
        assert_ne!(ta, tb);
    }

    #[test]
    fn clinit_exception_is_initialization_rejection() {
        use classfuzz_jimple::*;
        let mut class = IrClass::with_hello_main("init/Boom", "never");
        let mut body = Body::new();
        body.declare("e", JType::object("java/lang/RuntimeException"));
        body.stmts.push(Stmt::Assign {
            target: Target::Local("e".into()),
            value: Expr::New("java/lang/RuntimeException".into()),
        });
        body.stmts.push(Stmt::Invoke(InvokeExpr {
            kind: InvokeKind::Special,
            class: "java/lang/RuntimeException".into(),
            name: "<init>".into(),
            params: vec![],
            ret: None,
            receiver: Some(Value::local("e")),
            args: vec![],
        }));
        body.stmts.push(Stmt::Throw(Value::local("e")));
        class.methods.push(IrMethod {
            access: classfuzz_classfile::MethodAccess::STATIC,
            name: "<clinit>".into(),
            params: vec![],
            ret: None,
            exceptions: vec![],
            body: Some(body),
        });
        let out = run_on(&class, VmSpec::hotspot9());
        assert_eq!(out.phase(), Phase::Initializing);
        assert_eq!(
            out.error().unwrap().kind,
            JvmErrorKind::ExceptionInInitializerError
        );
    }

    #[test]
    fn lazy_verification_skips_broken_helper() {
        use classfuzz_jimple::*;
        // A broken helper method that is never invoked: eager VMs reject at
        // linking; lazy J9 runs the class normally (Problem 2).
        let mut class = IrClass::with_hello_main("lazy/H", "Completed!");
        let mut body = Body::new();
        body.declare("x", JType::string());
        body.stmts.push(Stmt::Assign {
            target: Target::Local("x".into()),
            value: Expr::Use(Value::int(1)), // istore into a String slot
        });
        body.stmts.push(Stmt::Assign {
            target: Target::Local("y".into()),
            value: Expr::Use(Value::local("x")), // aload of an Int slot
        });
        body.declare("y", JType::string());
        body.stmts.push(Stmt::Return(None));
        class.methods.push(IrMethod {
            access: classfuzz_classfile::MethodAccess::PUBLIC
                | classfuzz_classfile::MethodAccess::STATIC,
            name: "brokenHelper".into(),
            params: vec![],
            ret: None,
            exceptions: vec![],
            body: Some(body),
        });
        assert_eq!(run_on(&class, VmSpec::hotspot8()).phase(), Phase::Linking);
        assert_eq!(run_on(&class, VmSpec::j9()).phase(), Phase::Invoked);
    }

    #[test]
    fn gij_runs_interface_main_others_do_not() {
        use classfuzz_classfile::ClassAccess;
        let mut class = IrClass::with_hello_main("iface/Main", "Completed!");
        class.access = ClassAccess::PUBLIC | ClassAccess::INTERFACE | ClassAccess::ABSTRACT;
        // Interface with a static main: strict VMs reject the member flags
        // at loading; GIJ runs it (Problem 4).
        assert_eq!(run_on(&class, VmSpec::gij()).phase(), Phase::Invoked);
        let hs = run_on(&class, VmSpec::hotspot8());
        assert_ne!(hs.phase(), Phase::Invoked);
    }

    #[test]
    fn arithmetic_exception_at_runtime() {
        use classfuzz_jimple::*;
        let mut class = IrClass::new("rt/Div");
        let mut body = Body::new();
        body.declare("x", JType::Int);
        body.stmts.push(Stmt::Assign {
            target: Target::Local("x".into()),
            value: Expr::BinOp(BinOp::Div, JType::Int, Value::int(1), Value::int(0)),
        });
        body.stmts.push(Stmt::Return(None));
        class.methods.push(IrMethod {
            access: classfuzz_classfile::MethodAccess::PUBLIC
                | classfuzz_classfile::MethodAccess::STATIC,
            name: "main".into(),
            params: vec![JType::array(JType::string())],
            ret: None,
            exceptions: vec![],
            body: Some(body),
        });
        let out = run_on(&class, VmSpec::hotspot9());
        assert_eq!(out.phase(), Phase::Runtime);
        assert_eq!(out.error().unwrap().kind, JvmErrorKind::ArithmeticException);
    }
}
