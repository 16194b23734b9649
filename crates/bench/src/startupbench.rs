//! The `startup` scenario's workload ([`crate::scenario`]): verification
//! through the shared decoded-method table against the cold
//! decode-per-profile baseline.
//!
//! Methodology (see EXPERIMENTS.md, "Startup-throughput benchmark"):
//!
//! * the workload is one candidate classfile the way a differential
//!   harness consumes it — preparsed once, then started on all five
//!   profiles — with [`METHODS`] verification-heavy worker methods whose
//!   bodies are runs of `getstatic`/`pop` over fat array descriptors, so
//!   per-method *decoding* (constant-pool member resolution, descriptor
//!   parsing, type interning) dominates the per-profile dataflow pass;
//! * the shared arm uses [`Jvm::new`]: the first eager profile fills the
//!   class's [`DecodedTable`] and the remaining profiles read it. The
//!   cold arm uses [`Jvm::cold_verify`]: same shared bootstrap library,
//!   but every profile decodes every method afresh, with library caching
//!   deliberately left on so the gap isolates what sharing the decode
//!   alone buys. The cold decode also resolves the interpreter's facts
//!   (member names and descriptors), so it costs more per call than the
//!   verifier-only analysis it replaced.
//!
//! [`DecodedTable`]: classfuzz_vm::DecodedTable

use classfuzz_classfile::{ClassFile, CodeAttribute, Instruction, MethodAccess, Opcode};
use classfuzz_vm::{preparse, Jvm, VmSpec};

use crate::scenario::Metric;
use crate::{interleaved, rate};

/// Worker methods in the benchmark class: each is decoded once on the
/// shared path and once *per eager profile* on the cold path.
pub const METHODS: usize = 24;

/// `getstatic`/`pop` pairs per worker method: the bulk of the per-method
/// decoding work (one member-ref resolution plus one fat-descriptor
/// parse per pair).
const PAIRS: usize = 40;

/// The fat field descriptors the workers cycle through — deep array types
/// so every `getstatic` decode pays a multi-dimension descriptor parse
/// and an interner probe over a long key. The depth is pure decoding
/// cost: the dataflow pass only clones the interned `Arc` either way.
const DESCS: [&str; 4] = [
    "[[[[[[[[[[[[[[[[[[[[[[[[Ljava/lang/String;",
    "[[[[[[[[[[[[[[[[[[[[[[[[[Ljava/lang/Object;",
    "[[[[[[[[[[[[[[[[[[[[[[[[[[Ljava/lang/Integer;",
    "[[[[[[[[[[[[[[[[[[[[[[[[[[[Ljava/lang/StringBuilder;",
];

/// Assembles the benchmark class: a `main` that returns immediately plus
/// [`METHODS`] worker methods of [`PAIRS`] `getstatic`/`pop` pairs over
/// the fat descriptors — never executed, but verified by every eager
/// profile, so their decoding cost is the whole story.
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
/// shared arm's decoding win is per-candidate, not amortized across the
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

/// Measures the bench class at 60 five-profile startups per timed run,
/// which keeps a sample well above clock resolution while the scenario
/// stays CI-sized.
pub fn run(repeats: usize) -> Vec<Metric> {
    measure(60, repeats)
}

/// Five-profile startups/sec, cold (per-profile decoding) vs shared (one
/// decoded-method table for all five), `starts` startups per timed run.
pub(crate) fn measure(starts: usize, repeats: usize) -> Vec<Metric> {
    let bytes = bench_class();
    // One warmup evaluation per arm so neither pays one-time library
    // initialization inside the timed region.
    run_once(&bytes, true);
    run_once(&bytes, false);

    let startups_per_sec = |cold: bool| {
        rate(|| {
            for _ in 0..starts {
                run_once(std::hint::black_box(&bytes), cold);
            }
            starts
        })
    };
    let timed = interleaved(
        repeats,
        || startups_per_sec(false),
        || startups_per_sec(true),
    );
    let (shared, cold) = (timed.first, timed.second);

    vec![
        Metric::count("methods", METHODS),
        Metric::count("pairs", PAIRS),
        Metric::count("starts", starts),
        Metric::count("repeats", repeats),
        Metric::new("startups_per_sec_cold", cold, 1),
        Metric::new("startups_per_sec_shared", shared, 1),
        Metric::new("shared_speedup", timed.ratio, 2),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::value;
    use classfuzz_coverage::TraceFile;
    use classfuzz_vm::{ExecOutcome, Outcome};

    #[test]
    fn bench_class_starts_cleanly_on_both_arms() {
        let bytes = bench_class();
        let parsed = preparse(&bytes);
        for spec in VmSpec::all_five() {
            let name = spec.name.clone();
            let shared = Jvm::new(spec.clone());
            let traced = |jvm: &Jvm| {
                let mut trace = TraceFile::new();
                (jvm.run_traced_into_parsed(&parsed, &mut trace), trace)
            };
            let (on_shared, on_cold) = (traced(&shared), traced(&Jvm::cold_verify(spec)));
            let mut trace = TraceFile::new();
            let on_bytes = (shared.run_traced_into(&bytes, &mut trace), trace);
            assert_eq!(
                ExecOutcome::of(&on_shared.0.outcome),
                ExecOutcome::Completed { stdout: vec![] },
                "bench class on {name}: {:?}",
                on_shared.0.outcome
            );
            assert_eq!(on_shared, on_cold, "shared vs cold diverged on {name}");
            assert_eq!(on_shared, on_bytes, "bytes vs parsed diverged on {name}");
        }
    }

    #[test]
    fn small_startup_report_is_consistent() {
        let metrics = measure(3, 1);
        assert_eq!(value(&metrics, "methods"), Some(METHODS as f64));
        for key in [
            "startups_per_sec_cold",
            "startups_per_sec_shared",
            "shared_speedup",
        ] {
            assert!(value(&metrics, key).unwrap() > 0.0, "{key}");
        }
    }

    #[test]
    fn shared_table_fills_once_across_profiles() {
        let parsed = preparse(&bench_class());
        let class = parsed.class().expect("bench class parses");
        assert_eq!(class.decoded.len(), METHODS + 1);
        Jvm::new(VmSpec::hotspot9()).run_parsed(&parsed);
        let filled = format!("{}", class.decoded);
        assert!(
            filled.contains(&format!("{}/{}", METHODS + 1, METHODS + 1)),
            "one eager startup decodes every method: {filled}"
        );
        // A second profile reuses the same table (same Arc'd slots).
        let again = Jvm::new(VmSpec::gij()).run_parsed(&parsed);
        assert!(matches!(again.outcome, Outcome::Invoked { .. }));
    }
}
