//! The interpreter-throughput benchmark behind `scripts/bench_gate.sh`'s
//! `interp` scenario: measures the prepare-once execution layer (PR 9)
//! against the cold prepare-per-call baseline and renders/checks the
//! `BENCH_interp.json` report.
//!
//! Methodology (see EXPERIMENTS.md, "Interpreter-throughput benchmark"):
//!
//! * the workload is a hand-assembled class whose `main` invokes a
//!   switch-heavy helper method [`CALLS`] times — every invoke re-prepares
//!   the helper on the cold path and hits the per-class prepared table on
//!   the warm path, so the gap isolates exactly what `PreparedCode`
//!   caching buys;
//! * both arms run a fresh [`Machine`] per execution against a shared
//!   [`World`], mirroring how campaign engines evaluate candidates; the
//!   prepared arm's table is warmed before timing, so it measures the
//!   steady state campaigns live in;
//! * every throughput number is the median over `repeats` timings;
//! * the machine-independent floor is `prepared_speedup` — prepared over
//!   cold executions/sec — which must stay ≥ the gate floor (2.0 by
//!   default: the prepared layer must at least halve execution cost).

use std::time::Instant;

use classfuzz_classfile::{
    ClassFile, CodeAttribute, Instruction, MethodAccess, Opcode, TableSwitch,
};
use classfuzz_vm::interp::{Machine, RtValue};
use classfuzz_vm::{Cov, UserClass, VmSpec, World};

use crate::covbench::json_number;
use crate::median;

/// Helper invocations per `main` execution: enough that per-invoke
/// preparation dominates the cold arm without nearing the step budget.
pub const CALLS: i8 = 32;

/// Switch arms in the helper: the bulk of the per-preparation work (one
/// flattened instruction plus one resolved target per arm).
const ARMS: usize = 64;

/// The `BENCH_interp.json` payload: interpreter executions/sec with
/// prepare-once caching against the cold prepare-per-call baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct InterpBenchReport {
    /// Helper invocations per measured `main` execution.
    pub calls: usize,
    /// `main` executions per timing sample.
    pub execs: usize,
    /// Repeats each throughput number is the median of.
    pub repeats: usize,
    /// Executions/sec with cold per-call preparation
    /// ([`Machine::uncached`], the pre-PR-9 behavior).
    pub execs_per_sec_cold: f64,
    /// Executions/sec through the shared prepared-method table
    /// ([`Machine::new`], the production configuration).
    pub execs_per_sec_prepared: f64,
    /// prepared / cold — the machine-independent speedup the gate floors.
    pub prepared_speedup: f64,
}

/// Rewrites branch/switch targets given as *instruction indices* into the
/// byte offsets the code array stores (same scheme as the conformance
/// tests' assembler).
fn resolve_targets(mut insns: Vec<Instruction>) -> Vec<Instruction> {
    let mut pcs = Vec::with_capacity(insns.len());
    let mut pc = 0u32;
    for insn in &insns {
        pcs.push(pc);
        pc += insn.encoded_len(pc);
    }
    for insn in &mut insns {
        match insn {
            Instruction::Branch(_, t) => *t = pcs[*t as usize],
            Instruction::TableSwitch(ts) => {
                ts.default = pcs[ts.default as usize];
                for t in &mut ts.targets {
                    *t = pcs[*t as usize];
                }
            }
            _ => {}
        }
    }
    insns
}

/// Assembles the benchmark class: `main` invokes `work(I)I` [`CALLS`]
/// times in an `iinc` loop; `work` is a [`ARMS`]-arm tableswitch whose
/// executed path is four instructions — maximal preparation cost, minimal
/// execution cost.
pub fn bench_class() -> Vec<u8> {
    let mut builder = ClassFile::builder("bench/Interp").super_class("java/lang/Object");
    let cp = builder.constant_pool_mut();
    let work = cp.method_ref("bench/Interp", "work", "(I)I");

    // work(I)I: iload_0 / tableswitch / per-key arm `bipush k; ireturn`.
    // Arm k sits at instruction index 2 + 2k.
    let mut work_insns = vec![
        Instruction::Local(Opcode::Iload, 0),
        Instruction::TableSwitch(TableSwitch {
            default: 2,
            low: 0,
            high: ARMS as i32 - 1,
            targets: (0..ARMS).map(|k| 2 + 2 * k as u32).collect(),
        }),
    ];
    for k in 0..ARMS {
        work_insns.push(Instruction::Bipush(k as i8));
        work_insns.push(Instruction::Simple(Opcode::Ireturn));
    }
    let work_insns = resolve_targets(work_insns);

    // main: for (i = 0; i < CALLS; i++) work(i);
    let main_insns = resolve_targets(vec![
        Instruction::Simple(Opcode::Iconst0),            // 0
        Instruction::Local(Opcode::Istore, 1),           // 1
        Instruction::Local(Opcode::Iload, 1),            // 2: loop head
        Instruction::Bipush(CALLS),                      // 3
        Instruction::Branch(Opcode::IfIcmpge, 10),       // 4: exit
        Instruction::Local(Opcode::Iload, 1),            // 5
        Instruction::Invoke(Opcode::Invokestatic, work), // 6
        Instruction::Simple(Opcode::Pop),                // 7
        Instruction::Iinc { index: 1, delta: 1 },        // 8
        Instruction::Branch(Opcode::Goto, 2),            // 9: backedge
        Instruction::Simple(Opcode::Return),             // 10
    ]);

    builder
        .method(
            MethodAccess::PUBLIC | MethodAccess::STATIC,
            "work",
            "(I)I",
            CodeAttribute {
                max_stack: 1,
                max_locals: 1,
                instructions: work_insns,
                exception_table: Vec::new(),
                attributes: Vec::new(),
            },
        )
        .method(
            MethodAccess::PUBLIC | MethodAccess::STATIC,
            "main",
            "([Ljava/lang/String;)V",
            CodeAttribute {
                max_stack: 2,
                max_locals: 2,
                instructions: main_insns,
                exception_table: Vec::new(),
                attributes: Vec::new(),
            },
        )
        .build()
        .to_bytes()
}

/// One `main` execution on a fresh machine against the shared world.
fn run_once(world: &World, spec: &VmSpec, class: &UserClass, cold: bool) {
    let mut machine = if cold {
        Machine::uncached(world, spec)
    } else {
        Machine::new(world, spec)
    };
    machine.prepare_statics(class);
    machine
        .call_static(
            class,
            "main",
            "([Ljava/lang/String;)V",
            vec![RtValue::Ref(None)],
            &mut Cov::disabled(),
        )
        .expect("bench class must execute cleanly");
}

fn execs_per_sec(
    world: &World,
    spec: &VmSpec,
    class: &UserClass,
    cold: bool,
    execs: usize,
    repeats: usize,
) -> f64 {
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..execs {
                run_once(
                    std::hint::black_box(world),
                    spec,
                    std::hint::black_box(class),
                    cold,
                );
            }
            execs as f64 / start.elapsed().as_secs_f64().max(1e-9)
        })
        .collect();
    median(samples)
}

/// Runs the interpreter-throughput benchmark.
pub fn run_interp_bench(execs: usize, repeats: usize) -> InterpBenchReport {
    let spec = VmSpec::hotspot9();
    let cf = ClassFile::from_bytes(&bench_class()).expect("bench class decodes");
    let class = UserClass::summarize(cf);
    let world = World::new(&spec, vec![class.clone()]);

    // Warm the shared prepared table so the prepared arm measures the
    // steady state (first-execution preparation is the cold arm's story).
    run_once(&world, &spec, &class, false);

    let execs_per_sec_cold = execs_per_sec(&world, &spec, &class, true, execs, repeats);
    let execs_per_sec_prepared = execs_per_sec(&world, &spec, &class, false, execs, repeats);

    InterpBenchReport {
        calls: CALLS as usize,
        execs,
        repeats,
        execs_per_sec_cold,
        execs_per_sec_prepared,
        prepared_speedup: execs_per_sec_prepared / execs_per_sec_cold.max(1e-9),
    }
}

impl InterpBenchReport {
    /// Renders the report as the `BENCH_interp.json` payload.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"calls\": {},\n  \"execs\": {},\n  \"repeats\": {},\n  \
             \"execs_per_sec_cold\": {:.1},\n  \
             \"execs_per_sec_prepared\": {:.1},\n  \
             \"prepared_speedup\": {:.2}\n}}\n",
            self.calls,
            self.execs,
            self.repeats,
            self.execs_per_sec_cold,
            self.execs_per_sec_prepared,
            self.prepared_speedup,
        )
    }
}

/// Compares a fresh report against the committed
/// `BENCH_interp.baseline.json`. Returns the list of gate failures —
/// empty means the gate passes.
///
/// * `min_speedup` is the floor on the in-run prepared/cold speedup;
/// * `max_regression` bounds the relative slowdown of the prepared path
///   against the baseline's own `execs_per_sec_prepared`.
pub fn check_interp_report(
    report: &InterpBenchReport,
    baseline_json: &str,
    max_regression: f64,
    min_speedup: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    if report.prepared_speedup < min_speedup {
        failures.push(format!(
            "prepared/cold speedup {:.2} is below the {min_speedup:.1}x floor",
            report.prepared_speedup
        ));
    }
    match json_number(baseline_json, "execs_per_sec_prepared") {
        Some(base) if report.execs_per_sec_prepared < base / max_regression => {
            failures.push(format!(
                "execs_per_sec_prepared regressed: {:.1} vs baseline {base:.1} \
                 (budget {max_regression:.2}x)",
                report.execs_per_sec_prepared
            ));
        }
        Some(_) => {}
        None => failures.push("baseline is missing \"execs_per_sec_prepared\"".to_string()),
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use classfuzz_vm::{ExecOutcome, Jvm};

    #[test]
    fn bench_class_completes_on_all_profiles() {
        let bytes = bench_class();
        for spec in VmSpec::all_five() {
            let name = spec.name.clone();
            let result = Jvm::new(spec).run(&bytes);
            assert_eq!(
                ExecOutcome::of(&result.outcome),
                ExecOutcome::Completed { stdout: vec![] },
                "bench class on {name}: {:?}",
                result.outcome
            );
        }
    }

    #[test]
    fn json_roundtrip_and_gate() {
        let report = InterpBenchReport {
            calls: 32,
            execs: 200,
            repeats: 3,
            execs_per_sec_cold: 5000.0,
            execs_per_sec_prepared: 20000.0,
            prepared_speedup: 4.0,
        };
        let json = report.to_json();
        assert_eq!(json_number(&json, "execs_per_sec_prepared"), Some(20000.0));
        assert_eq!(json_number(&json, "prepared_speedup"), Some(4.0));
        let baseline = "{\n  \"execs_per_sec_prepared\": 18000.0\n}\n";
        assert!(check_interp_report(&report, baseline, 1.2, 2.0).is_empty());
        // A speedup below the floor fails.
        let mut slow = report.clone();
        slow.prepared_speedup = 1.5;
        assert!(check_interp_report(&slow, baseline, 1.2, 2.0)
            .iter()
            .any(|f| f.contains("floor")));
        // A >20% drop against the baseline's own prepared number fails.
        let mut regressed = report.clone();
        regressed.execs_per_sec_prepared = 10000.0;
        assert!(check_interp_report(&regressed, baseline, 1.2, 2.0)
            .iter()
            .any(|f| f.contains("regressed")));
        // A missing baseline field is a failure, not a silent pass.
        assert_eq!(check_interp_report(&report, "{}", 1.2, 2.0).len(), 1);
    }

    #[test]
    fn small_interp_report_is_consistent() {
        let report = run_interp_bench(5, 1);
        assert_eq!(report.calls, CALLS as usize);
        assert!(report.execs_per_sec_cold > 0.0);
        assert!(report.execs_per_sec_prepared > 0.0);
        assert!(report.prepared_speedup > 0.0);
    }
}
