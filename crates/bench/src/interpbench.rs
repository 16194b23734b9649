//! The `interp` scenario's workload ([`crate::scenario`]): the
//! prepare-once execution layer against the cold prepare-per-call
//! baseline.
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
//!   steady state campaigns live in.

use classfuzz_classfile::{
    ClassFile, CodeAttribute, Instruction, MethodAccess, Opcode, TableSwitch,
};
use classfuzz_vm::interp::{Machine, RtValue};
use classfuzz_vm::{Cov, UserClass, VmSpec, World};

use crate::scenario::Metric;
use crate::{interleaved, rate};

/// Helper invocations per `main` execution: enough that per-invoke
/// preparation dominates the cold arm without nearing the step budget.
pub const CALLS: i8 = 32;

/// Switch arms in the helper: the bulk of the per-preparation work (one
/// flattened instruction plus one resolved target per arm).
const ARMS: usize = 64;

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

/// Measures the bench class at 200 executions per timed run, which keeps
/// a sample well above clock resolution while the scenario stays CI-sized.
pub fn run(repeats: usize) -> Vec<Metric> {
    measure(200, repeats)
}

/// Executions/sec of `main`, cold (`Machine::uncached`: per-call
/// preparation) vs prepared (`Machine::new`: the shared prepared-method
/// table), `execs` executions per timed run.
pub(crate) fn measure(execs: usize, repeats: usize) -> Vec<Metric> {
    let spec = VmSpec::hotspot9();
    let cf = ClassFile::from_bytes(&bench_class()).expect("bench class decodes");
    let class = UserClass::summarize(cf);
    let world = World::new(&spec, vec![class.clone()]);

    // Warm the shared prepared table so the prepared arm measures the
    // steady state (first-execution preparation is the cold arm's story).
    run_once(&world, &spec, &class, false);

    let execs_per_sec = |cold: bool| {
        rate(|| {
            for _ in 0..execs {
                run_once(
                    std::hint::black_box(&world),
                    &spec,
                    std::hint::black_box(&class),
                    cold,
                );
            }
            execs
        })
    };
    let timed = interleaved(repeats, || execs_per_sec(false), || execs_per_sec(true));
    let (prepared, cold) = (timed.first, timed.second);

    vec![
        Metric::count("calls", CALLS as usize),
        Metric::count("execs", execs),
        Metric::count("repeats", repeats),
        Metric::new("execs_per_sec_cold", cold, 1),
        Metric::new("execs_per_sec_prepared", prepared, 1),
        Metric::new("prepared_speedup", timed.ratio, 2),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::value;
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
    fn small_interp_report_is_consistent() {
        let metrics = measure(5, 1);
        assert_eq!(value(&metrics, "calls"), Some(CALLS as f64));
        for key in [
            "execs_per_sec_cold",
            "execs_per_sec_prepared",
            "prepared_speedup",
        ] {
            assert!(value(&metrics, key).unwrap() > 0.0, "{key}");
        }
    }
}
