//! Micro-benchmarks of every substrate: classfile codec, bytecode
//! verifier, VM startup per profile, mutator application, MCMC selection,
//! and coverage-uniqueness checking.

use classfuzz_classfile::ClassFile;
use classfuzz_core::diff::DifferentialHarness;
use classfuzz_core::seeds::SeedCorpus;
use classfuzz_coverage::{SuiteIndex, TraceFile, UniquenessCriterion};
use classfuzz_jimple::lower::{lower_class, lower_class_bytes, LowerScratch};
use classfuzz_jimple::{lift::lift_class, IrClass};
use classfuzz_mcmc::MutatorChain;
use classfuzz_mutation::{registry, MutationCtx};
use classfuzz_vm::{preparse, Jvm, UserClass, VmSpec, World};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn hello_bytes() -> Vec<u8> {
    lower_class(&IrClass::with_hello_main("bench/Hello", "Completed!")).to_bytes()
}

fn bench_classfile_codec(c: &mut Criterion) {
    let bytes = hello_bytes();
    let class = ClassFile::from_bytes(&bytes).unwrap();
    c.bench_function("classfile/parse", |b| {
        b.iter(|| ClassFile::from_bytes(std::hint::black_box(&bytes)).unwrap())
    });
    c.bench_function("classfile/write", |b| {
        b.iter(|| std::hint::black_box(&class).to_bytes())
    });
}

fn bench_jimple(c: &mut Criterion) {
    let ir = IrClass::with_hello_main("bench/Jimple", "x");
    let cf = lower_class(&ir);
    c.bench_function("jimple/lower", |b| {
        b.iter(|| lower_class(std::hint::black_box(&ir)))
    });
    c.bench_function("jimple/lift", |b| {
        b.iter(|| lift_class(std::hint::black_box(&cf)).unwrap())
    });
}

fn bench_lowering_paths(c: &mut Criterion) {
    // The allocation-lean pivot, part 1: class → bytes on the cold path
    // (fresh pool, fresh buffers) vs through one reused `LowerScratch` —
    // what every campaign iteration pays per candidate.
    let ir = IrClass::with_hello_main("bench/Lower", "Completed!");
    c.bench_function("lower/cold", |b| {
        b.iter(|| lower_class(std::hint::black_box(&ir)).to_bytes())
    });
    let mut scratch = LowerScratch::new();
    c.bench_function("lower/scratch", |b| {
        b.iter(|| lower_class_bytes(std::hint::black_box(&ir), &mut scratch))
    });
}

fn bench_irclass_clone(c: &mut Criterion) {
    // The allocation-lean pivot, part 2: the per-iteration clone of a
    // pool entry. Copy-on-write sharing makes it a refcount bump per
    // member; the deep clone is what it replaced.
    let ir = IrClass::with_hello_main("bench/Clone", "Completed!");
    c.bench_function("irclass/clone-deep", |b| {
        b.iter(|| std::hint::black_box(&ir).deep_clone())
    });
    c.bench_function("irclass/clone-cow", |b| {
        b.iter(|| IrClass::clone(std::hint::black_box(&ir)))
    });
}

fn bench_vm_startup(c: &mut Criterion) {
    let bytes = hello_bytes();
    let mut group = c.benchmark_group("vm/startup");
    for spec in VmSpec::all_five() {
        let name = spec.name.clone();
        let jvm = Jvm::new(spec);
        group.bench_function(name, |b| b.iter(|| jvm.run(std::hint::black_box(&bytes))));
    }
    group.finish();
    let reference = Jvm::new(VmSpec::hotspot9());
    let mut scratch = TraceFile::new();
    c.bench_function("vm/startup-traced (reference)", |b| {
        b.iter(|| reference.run_traced_into(std::hint::black_box(&bytes), &mut scratch))
    });
}

fn bench_world(c: &mut Criterion) {
    // The share-everything pivot in one pair of numbers: building a
    // bootstrap library from scratch (what every run paid before the
    // process-wide cache) vs constructing a World as an overlay over the
    // shared library (what a run pays now).
    use classfuzz_vm::library::bootstrap_library;
    use classfuzz_vm::{shared_library, JreGeneration};
    let user = std::sync::Arc::new(UserClass::summarize(
        ClassFile::from_bytes(&hello_bytes()).unwrap(),
    ));
    c.bench_function("world/full-library-build", |b| {
        b.iter(|| bootstrap_library(std::hint::black_box(JreGeneration::Jre9)))
    });
    c.bench_function("world/overlay", |b| {
        b.iter(|| {
            World::with_library(
                shared_library(JreGeneration::Jre9),
                vec![std::sync::Arc::clone(std::hint::black_box(&user))],
            )
        })
    });
}

fn bench_harness(c: &mut Criterion) {
    // Five-VM differential evaluation of one class: the byte-level API
    // (decodes internally, once) vs a hoisted `preparse` shared across
    // iterations — the amortization `evaluate_suite` and the campaign
    // engines now get per candidate.
    let bytes = hello_bytes();
    let harness = DifferentialHarness::paper_five();
    let parsed = preparse(&bytes);
    c.bench_function("harness/run-bytes", |b| {
        b.iter(|| harness.run(std::hint::black_box(&bytes)))
    });
    c.bench_function("harness/run-preparsed", |b| {
        b.iter(|| harness.run_parsed(std::hint::black_box(&parsed)))
    });
}

fn bench_interp(c: &mut Criterion) {
    // The decode-once pivot, execution side: one `main` execution of the
    // switch-heavy interp bench class, decoding every method per call
    // (`Machine::uncached`) vs through the warm per-class decoded-method
    // table (`Machine::new`).
    use classfuzz_bench::interpbench::bench_class;
    use classfuzz_vm::interp::{Machine, RtValue};
    use classfuzz_vm::Cov;
    let spec = VmSpec::hotspot9();
    let class = UserClass::summarize(ClassFile::from_bytes(&bench_class()).unwrap());
    let world = World::new(&spec, vec![class.clone()]);
    let run = |cold: bool| {
        let mut machine = if cold {
            Machine::uncached(&world, &spec)
        } else {
            Machine::new(&world, &spec)
        };
        machine.prepare_statics(&class);
        machine
            .call_static(
                &class,
                "main",
                "([Ljava/lang/String;)V",
                vec![RtValue::Ref(None)],
                &mut Cov::disabled(),
            )
            .unwrap()
    };
    run(false); // warm the shared decoded table
    c.bench_function("interp/execute-cold", |b| {
        b.iter(|| run(std::hint::black_box(true)))
    });
    c.bench_function("interp/execute-prepared", |b| {
        b.iter(|| run(std::hint::black_box(false)))
    });
}

fn bench_verify(c: &mut Criterion) {
    // The decode-once pivot, verification side: verifying the
    // decode-heavy startup bench class, decoding every method per call
    // (`verify_class_cold`) vs through the per-class `DecodedTable`
    // (`verify_class`, warmed).
    use classfuzz_vm::{verifier, Cov};
    let spec = VmSpec::hotspot9();
    let class = UserClass::summarize(
        ClassFile::from_bytes(&classfuzz_bench::startupbench::bench_class()).unwrap(),
    );
    let world = World::new(&spec, vec![class.clone()]);
    // Warm the shared table so `verify/analyzed` measures the steady state.
    verifier::verify_class(&world, &class, &spec, &mut Cov::disabled()).unwrap();
    c.bench_function("verify/cold", |b| {
        b.iter(|| {
            verifier::verify_class_cold(
                std::hint::black_box(&world),
                std::hint::black_box(&class),
                &spec,
                &mut Cov::disabled(),
            )
            .unwrap()
        })
    });
    c.bench_function("verify/analyzed", |b| {
        b.iter(|| {
            verifier::verify_class(
                std::hint::black_box(&world),
                std::hint::black_box(&class),
                &spec,
                &mut Cov::disabled(),
            )
            .unwrap()
        })
    });

    // The whole startup-bench iteration: preparse once, start all five
    // profiles — one decode shared across profiles vs a decode per
    // profile.
    let bytes = classfuzz_bench::startupbench::bench_class();
    c.bench_function("startup/five-profiles-cold", |b| {
        b.iter(|| {
            let parsed = preparse(std::hint::black_box(&bytes));
            for spec in VmSpec::all_five() {
                Jvm::cold_verify(spec).run_parsed(&parsed);
            }
        })
    });
    c.bench_function("startup/five-profiles-shared", |b| {
        b.iter(|| {
            let parsed = preparse(std::hint::black_box(&bytes));
            for spec in VmSpec::all_five() {
                Jvm::new(spec).run_parsed(&parsed);
            }
        })
    });
}

fn bench_mutation(c: &mut Criterion) {
    let mutators = registry::all_mutators();
    let donors = vec![IrClass::with_hello_main("bench/Donor", "d")];
    let seed = IrClass::with_hello_main("bench/Seed", "s");
    c.bench_function("mutation/apply-all-129", |b| {
        b.iter_batched(
            || (StdRng::seed_from_u64(1), seed.clone()),
            |(mut rng, mut class)| {
                let mut ctx = MutationCtx::new(&mut rng, &donors);
                for m in &mutators {
                    let _ = m.apply(&mut class, &mut ctx);
                }
                class
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_mcmc(c: &mut Criterion) {
    c.bench_function("mcmc/select-1000", |b| {
        b.iter_batched(
            || {
                (
                    MutatorChain::new(129, 3.0 / 129.0),
                    StdRng::seed_from_u64(2),
                )
            },
            |(mut chain, mut rng)| {
                for _ in 0..1000 {
                    let id = chain.select(&mut rng);
                    if id % 7 == 0 {
                        chain.record_success(id);
                    }
                }
                chain
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_coverage(c: &mut Criterion) {
    // Real traces from the reference VM over a small corpus.
    let reference = Jvm::new(VmSpec::hotspot9());
    let traces: Vec<_> = SeedCorpus::generate(20, 3)
        .to_bytes()
        .iter()
        .map(|b| {
            let mut trace = TraceFile::new();
            reference.run_traced_into(b, &mut trace);
            trace
        })
        .collect();
    for criterion in [
        UniquenessCriterion::St,
        UniquenessCriterion::StBr,
        UniquenessCriterion::Tr,
    ] {
        c.bench_function(format!("coverage/uniqueness-{criterion}"), |b| {
            b.iter_batched(
                || SuiteIndex::new(criterion),
                |mut index| {
                    for t in &traces {
                        index.insert_if_unique(t);
                    }
                    index.len()
                },
                BatchSize::SmallInput,
            )
        });
    }
}

fn bench_coverage_bitset_vs_baseline(c: &mut Criterion) {
    // The synthetic suite of crates/bench/src/covbench.rs: a 1k
    // accepted [tr] suite whose traces all share one statistic, probed
    // with duplicates — the steady-state rejection path. The baseline
    // index scans the whole bucket per probe; the bitset index answers
    // with one fingerprint lookup.
    let suite = classfuzz_bench::covbench::synth_suite(1000, 0xC0DE);
    let mut bit_index = SuiteIndex::new(UniquenessCriterion::Tr);
    for t in &suite.bitset {
        bit_index.insert(t);
    }
    let mut ref_index = classfuzz_coverage::baseline::SuiteIndex::new(UniquenessCriterion::Tr);
    for t in &suite.reference {
        ref_index.insert(t);
    }
    c.bench_function("coverage/tr-is_unique-1k/bitset", |b| {
        b.iter(|| {
            suite
                .bitset
                .iter()
                .filter(|t| bit_index.is_unique(std::hint::black_box(t)))
                .count()
        })
    });
    // Only 20 probes per iteration for the reference model: each probe
    // scans the whole 1k bucket pairwise.
    c.bench_function("coverage/tr-is_unique-1k/baseline", |b| {
        b.iter(|| {
            suite
                .reference
                .iter()
                .take(20)
                .filter(|t| ref_index.is_unique(std::hint::black_box(t)))
                .count()
        })
    });
    c.bench_function("coverage/merge/bitset", |b| {
        b.iter(|| std::hint::black_box(&suite.bitset[0]).merge(&suite.bitset[1]))
    });
    c.bench_function("coverage/merge/baseline", |b| {
        b.iter(|| std::hint::black_box(&suite.reference[0]).merge(&suite.reference[1]))
    });
}

criterion_group!(
    benches,
    bench_classfile_codec,
    bench_jimple,
    bench_lowering_paths,
    bench_irclass_clone,
    bench_vm_startup,
    bench_world,
    bench_harness,
    bench_interp,
    bench_verify,
    bench_mutation,
    bench_mcmc,
    bench_coverage,
    bench_coverage_bitset_vs_baseline
);
criterion_main!(benches);
