//! The startup-throughput benchmark behind `scripts/bench_gate.sh`'s
//! `startup` scenario: measures the analyze-once verification layer
//! (PR 10) against the cold analyze-per-profile baseline and
//! renders/checks the `BENCH_startup.json` report.
//!
//! Methodology (see EXPERIMENTS.md, "Startup-throughput benchmark"):
//!
//! * the workload is one candidate classfile the way a differential
//!   harness consumes it — preparsed once, then started on all five
//!   profiles — with [`METHODS`] verification-heavy worker methods whose
//!   bodies are runs of `getstatic`/`pop` over fat array descriptors, so
//!   per-method *analysis* (constant-pool member resolution, descriptor
//!   parsing, type interning) dominates the per-profile dataflow pass;
//! * the shared arm uses [`Jvm::new`]: the first eager profile fills the
//!   class's [`AnalysisTable`] and the remaining profiles consume it. The
//!   cold arm uses [`Jvm::cold_verify`]: same shared bootstrap library,
//!   but every profile re-derives every method's analysis — exactly the
//!   pre-PR-10 behavior, with library caching deliberately left on so the
//!   gap isolates what analysis sharing alone buys;
//! * every throughput number is the median over `repeats` timings;
//! * the machine-independent floor is `shared_speedup` — shared over cold
//!   five-profile startups/sec — which the gate floors at 2.0 by default.
//!
//! [`AnalysisTable`]: classfuzz_vm::AnalysisTable

use std::time::Instant;

use classfuzz_classfile::{ClassFile, CodeAttribute, Instruction, MethodAccess, Opcode};
use classfuzz_vm::{preparse, Jvm, VmSpec};

use crate::covbench::json_number;
use crate::median;

/// Worker methods in the benchmark class: each is analyzed once on the
/// shared path and once *per eager profile* on the cold path.
pub const METHODS: usize = 24;

/// `getstatic`/`pop` pairs per worker method: the bulk of the per-method
/// analysis work (one member-ref resolution plus one fat-descriptor parse
/// per pair).
const PAIRS: usize = 40;

/// The fat field descriptors the workers cycle through — deep array types
/// so every `getstatic` analysis pays a multi-dimension descriptor parse
/// and an interner probe over a long key. The depth is pure analysis
/// cost: the dataflow pass only clones the interned `Arc` either way.
const DESCS: [&str; 4] = [
    "[[[[[[[[[[[[[[[[[[[[[[[[Ljava/lang/String;",
    "[[[[[[[[[[[[[[[[[[[[[[[[[Ljava/lang/Object;",
    "[[[[[[[[[[[[[[[[[[[[[[[[[[Ljava/lang/Integer;",
    "[[[[[[[[[[[[[[[[[[[[[[[[[[[Ljava/lang/StringBuilder;",
];

/// The `BENCH_startup.json` payload: five-profile startups/sec with the
/// shared analysis table against the cold analyze-per-profile baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct StartupBenchReport {
    /// Worker methods in the benchmark class.
    pub methods: usize,
    /// `getstatic`/`pop` pairs per worker method.
    pub pairs: usize,
    /// Five-profile startups per timing sample.
    pub starts: usize,
    /// Repeats each throughput number is the median of.
    pub repeats: usize,
    /// Startups/sec with cold per-profile analysis ([`Jvm::cold_verify`],
    /// the pre-PR-10 behavior).
    pub startups_per_sec_cold: f64,
    /// Startups/sec through the shared per-class analysis table
    /// ([`Jvm::new`], the production configuration).
    pub startups_per_sec_shared: f64,
    /// shared / cold — the machine-independent speedup the gate floors.
    pub shared_speedup: f64,
}

/// Assembles the benchmark class: a `main` that returns immediately plus
/// [`METHODS`] worker methods of [`PAIRS`] `getstatic`/`pop` pairs over
/// the fat descriptors — never executed, but verified by every eager
/// profile, so their analysis cost is the whole story.
pub fn bench_class() -> Vec<u8> {
    let mut builder = ClassFile::builder("bench/Startup").super_class("java/lang/Object");
    let refs: Vec<_> = {
        let cp = builder.constant_pool_mut();
        DESCS
            .iter()
            .enumerate()
            .map(|(j, desc)| cp.field_ref("bench/Startup", &format!("f{j}"), desc))
            .collect()
    };
    for i in 0..METHODS {
        let mut insns = Vec::with_capacity(2 * PAIRS + 1);
        for p in 0..PAIRS {
            insns.push(Instruction::Field(
                Opcode::Getstatic,
                refs[(i + p) % refs.len()],
            ));
            insns.push(Instruction::Simple(Opcode::Pop));
        }
        insns.push(Instruction::Simple(Opcode::Return));
        builder = builder.method(
            MethodAccess::PUBLIC | MethodAccess::STATIC,
            &format!("w{i}"),
            "()V",
            CodeAttribute {
                max_stack: 1,
                max_locals: 0,
                instructions: insns,
                exception_table: Vec::new(),
                attributes: Vec::new(),
            },
        );
    }
    builder
        .method(
            MethodAccess::PUBLIC | MethodAccess::STATIC,
            "main",
            "([Ljava/lang/String;)V",
            CodeAttribute {
                max_stack: 0,
                max_locals: 1,
                instructions: vec![Instruction::Simple(Opcode::Return)],
                exception_table: Vec::new(),
                attributes: Vec::new(),
            },
        )
        .build()
        .to_bytes()
}

/// One harness-shaped evaluation: preparse the candidate once, then start
/// it on all five profiles. The fresh preparse per call is deliberate —
/// campaign engines see each candidate's bytes exactly once, so the
/// shared arm's analysis win is per-candidate, not amortized across the
/// whole run.
fn run_once(bytes: &[u8], cold: bool) {
    let parsed = preparse(bytes);
    for spec in VmSpec::all_five() {
        let jvm = if cold {
            Jvm::cold_verify(spec)
        } else {
            Jvm::new(spec)
        };
        let result = jvm.run_parsed(&parsed);
        assert_eq!(
            result.outcome.phase().code(),
            0,
            "bench class must start cleanly"
        );
    }
}

fn startups_per_sec(bytes: &[u8], cold: bool, starts: usize, repeats: usize) -> f64 {
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..starts {
                run_once(std::hint::black_box(bytes), cold);
            }
            starts as f64 / start.elapsed().as_secs_f64().max(1e-9)
        })
        .collect();
    median(samples)
}

/// Runs the startup-throughput benchmark.
pub fn run_startup_bench(starts: usize, repeats: usize) -> StartupBenchReport {
    let bytes = bench_class();
    // One warmup evaluation per arm so neither pays one-time library
    // initialization inside the timed region.
    run_once(&bytes, true);
    run_once(&bytes, false);

    let startups_per_sec_cold = startups_per_sec(&bytes, true, starts, repeats);
    let startups_per_sec_shared = startups_per_sec(&bytes, false, starts, repeats);

    StartupBenchReport {
        methods: METHODS,
        pairs: PAIRS,
        starts,
        repeats,
        startups_per_sec_cold,
        startups_per_sec_shared,
        shared_speedup: startups_per_sec_shared / startups_per_sec_cold.max(1e-9),
    }
}

impl StartupBenchReport {
    /// Renders the report as the `BENCH_startup.json` payload.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"methods\": {},\n  \"pairs\": {},\n  \"starts\": {},\n  \
             \"repeats\": {},\n  \
             \"startups_per_sec_cold\": {:.1},\n  \
             \"startups_per_sec_shared\": {:.1},\n  \
             \"shared_speedup\": {:.2}\n}}\n",
            self.methods,
            self.pairs,
            self.starts,
            self.repeats,
            self.startups_per_sec_cold,
            self.startups_per_sec_shared,
            self.shared_speedup,
        )
    }
}

/// Compares a fresh report against the committed
/// `BENCH_startup.baseline.json`. Returns the list of gate failures —
/// empty means the gate passes.
///
/// * `min_speedup` is the floor on the in-run shared/cold speedup;
/// * `max_regression` bounds the relative slowdown of the shared path
///   against the baseline's own `startups_per_sec_shared`.
pub fn check_startup_report(
    report: &StartupBenchReport,
    baseline_json: &str,
    max_regression: f64,
    min_speedup: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    if report.shared_speedup < min_speedup {
        failures.push(format!(
            "shared/cold speedup {:.2} is below the {min_speedup:.1}x floor",
            report.shared_speedup
        ));
    }
    match json_number(baseline_json, "startups_per_sec_shared") {
        Some(base) if report.startups_per_sec_shared < base / max_regression => {
            failures.push(format!(
                "startups_per_sec_shared regressed: {:.1} vs baseline {base:.1} \
                 (budget {max_regression:.2}x)",
                report.startups_per_sec_shared
            ));
        }
        Some(_) => {}
        None => failures.push("baseline is missing \"startups_per_sec_shared\"".to_string()),
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use classfuzz_vm::{ExecOutcome, Outcome};

    #[test]
    fn bench_class_starts_cleanly_on_both_arms() {
        let bytes = bench_class();
        let parsed = preparse(&bytes);
        for spec in VmSpec::all_five() {
            let name = spec.name.clone();
            let shared = Jvm::new(spec.clone()).run_traced_parsed(&parsed);
            let cold = Jvm::cold_verify(spec).run_traced_parsed(&parsed);
            assert_eq!(
                ExecOutcome::of(&shared.outcome),
                ExecOutcome::Completed { stdout: vec![] },
                "bench class on {name}: {:?}",
                shared.outcome
            );
            assert_eq!(shared, cold, "shared vs cold diverged on {name}");
        }
    }

    #[test]
    fn json_roundtrip_and_gate() {
        let report = StartupBenchReport {
            methods: METHODS,
            pairs: PAIRS,
            starts: 50,
            repeats: 3,
            startups_per_sec_cold: 400.0,
            startups_per_sec_shared: 1200.0,
            shared_speedup: 3.0,
        };
        let json = report.to_json();
        assert_eq!(json_number(&json, "startups_per_sec_shared"), Some(1200.0));
        assert_eq!(json_number(&json, "shared_speedup"), Some(3.0));
        let baseline = "{\n  \"startups_per_sec_shared\": 1000.0\n}\n";
        assert!(check_startup_report(&report, baseline, 1.2, 2.0).is_empty());
        // A speedup below the floor fails.
        let mut slow = report.clone();
        slow.shared_speedup = 1.5;
        assert!(check_startup_report(&slow, baseline, 1.2, 2.0)
            .iter()
            .any(|f| f.contains("floor")));
        // A >20% drop against the baseline's own shared number fails.
        let mut regressed = report.clone();
        regressed.startups_per_sec_shared = 600.0;
        assert!(check_startup_report(&regressed, baseline, 1.2, 2.0)
            .iter()
            .any(|f| f.contains("regressed")));
        // A missing baseline field is a failure, not a silent pass.
        assert_eq!(check_startup_report(&report, "{}", 1.2, 2.0).len(), 1);
    }

    #[test]
    fn small_startup_report_is_consistent() {
        let report = run_startup_bench(3, 1);
        assert_eq!(report.methods, METHODS);
        assert!(report.startups_per_sec_cold > 0.0);
        assert!(report.startups_per_sec_shared > 0.0);
        assert!(report.shared_speedup > 0.0);
    }

    #[test]
    fn shared_table_fills_once_across_profiles() {
        let parsed = preparse(&bench_class());
        let class = parsed.class().expect("bench class parses");
        assert_eq!(class.analysis.len(), METHODS + 1);
        Jvm::new(VmSpec::hotspot9()).run_parsed(&parsed);
        let filled = format!("{}", class.analysis);
        assert!(
            filled.contains(&format!("{}/{}", METHODS + 1, METHODS + 1)),
            "one eager startup analyzes every method: {filled}"
        );
        // A second profile reuses the same table (same Arc'd slots).
        let again = Jvm::new(VmSpec::gij()).run_parsed(&parsed);
        assert!(matches!(again.outcome, Outcome::Invoked { .. }));
    }
}
