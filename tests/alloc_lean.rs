//! Property tests pinning the allocation-lean generation path to the
//! simple one it replaced:
//!
//! * scratch lowering (`lower_class_bytes` through a reused
//!   [`LowerScratch`]) is byte-for-byte the cold
//!   `lower_class(..).to_bytes()`, including across dirty reuse;
//! * a copy-on-write `IrClass::clone` followed by any of the 129 mutators
//!   produces exactly what a `deep_clone` would — and never writes through
//!   to the original, which is what the engine's pool relies on when every
//!   iteration clones a shared pool entry;
//! * the verifier's per-thread workspace, reused across runs, leaves
//!   nothing behind: a dirty workspace gives the outcome and the trace a
//!   fresh one does.

use classfuzz::core::seeds::SeedCorpus;
use classfuzz::coverage::TraceFile;
use classfuzz::jimple::lower::{lower_class, lower_class_bytes, LowerScratch};
use classfuzz::jimple::{Body, Expr, IrClass, IrMethod, JType, Stmt, Target, Value};
use classfuzz::mutation::{registry, MutationCtx};
use classfuzz::vm::{Jvm, JvmErrorKind, Outcome, Phase, VmSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A diverse batch of IR classes: a generated corpus pushed through a few
/// random mutations, so the lowerer sees mutated shapes (odd hierarchies,
/// swapped bodies, injected members), not just pristine seeds.
fn mutated_batch(corpus_seed: u64, rounds: usize) -> Vec<IrClass> {
    let mut classes = SeedCorpus::generate(6, corpus_seed).into_classes();
    let donors = classes.clone();
    let mutators = registry::all_mutators();
    let mut rng = StdRng::seed_from_u64(corpus_seed ^ 0x5eed);
    for _ in 0..rounds {
        let pick = rng.gen_range(0..classes.len());
        let id = rng.gen_range(0..mutators.len());
        let mut ctx = MutationCtx::new(&mut rng, &donors);
        // Not-applicable mutators simply leave the class unchanged.
        let _ = mutators[id].apply(&mut classes[pick], &mut ctx);
    }
    classes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One dirty [`LowerScratch`] carried across a whole random batch
    /// lowers every class to exactly the cold path's bytes.
    #[test]
    fn scratch_lowering_matches_cold(corpus_seed in any::<u64>()) {
        let classes = mutated_batch(corpus_seed, 24);
        let mut scratch = LowerScratch::new();
        for class in &classes {
            let cold = lower_class(class).to_bytes();
            let fast = lower_class_bytes(class, &mut scratch);
            prop_assert_eq!(&cold, &fast, "scratch lowering diverged for {}", class.name);
            // Reuse on the same class is stable, not merely first-call
            // correct.
            prop_assert_eq!(&cold, &lower_class_bytes(class, &mut scratch));
        }
    }

    /// For every mutator id: CoW clone + mutate ≡ deep clone + mutate
    /// under identical RNG streams, and the shared original survives
    /// untouched.
    #[test]
    fn cow_clone_mutate_matches_deep_clone(corpus_seed in any::<u64>(), draw_seed in any::<u64>()) {
        let classes = mutated_batch(corpus_seed, 8);
        let donors = classes.clone();
        let original = &classes[0];
        let pristine = original.deep_clone();
        for mutator in registry::all_mutators() {
            let mut cow = IrClass::clone(original);
            let mut deep = original.deep_clone();

            let mut rng_a = StdRng::seed_from_u64(draw_seed);
            let mut ctx_a = MutationCtx::new(&mut rng_a, &donors);
            let res_a = mutator.apply(&mut cow, &mut ctx_a);

            let mut rng_b = StdRng::seed_from_u64(draw_seed);
            let mut ctx_b = MutationCtx::new(&mut rng_b, &donors);
            let res_b = mutator.apply(&mut deep, &mut ctx_b);

            prop_assert_eq!(res_a.is_ok(), res_b.is_ok(), "mutator {} applicability diverged", mutator.id);
            prop_assert_eq!(&cow, &deep, "mutator {} result diverged on the CoW clone", mutator.id);
            // Arc aliasing safety: mutating the CoW clone never reaches
            // the shared original.
            prop_assert_eq!(original, &pristine, "mutator {} wrote through the CoW clone", mutator.id);
        }
    }
}

/// A class whose static method stores an int into a `String` local and
/// then loads it as a reference: every eagerly verifying profile rejects
/// it partway through the dataflow, with frames already filled.
fn verify_failing_class(name: &str) -> IrClass {
    let mut class = IrClass::with_hello_main(name, "Completed!");
    let mut body = Body::new();
    body.declare("x", JType::string());
    body.declare("y", JType::string());
    body.stmts.push(Stmt::Assign {
        target: Target::Local("x".into()),
        value: Expr::Use(Value::int(3)),
    });
    body.stmts.push(Stmt::Assign {
        target: Target::Local("y".into()),
        value: Expr::Use(Value::local("x")),
    });
    body.stmts.push(Stmt::Return(None));
    class.methods.push(IrMethod {
        access: classfuzz::classfile::MethodAccess::PUBLIC
            | classfuzz::classfile::MethodAccess::STATIC,
        name: "m".into(),
        params: vec![],
        ret: None,
        exceptions: vec![],
        body: Some(body),
    });
    class
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// This thread verifies a mutated batch in sequence, a rejected class
    /// among it, so its verifier workspace is dirty from every earlier
    /// run. Each outcome and each trace equals what `Jvm::cold_verify`
    /// gets on a fresh thread, whose workspace starts empty, on all five
    /// profiles.
    #[test]
    fn reused_verifier_workspace_leaves_no_state(corpus_seed in any::<u64>(), at in any::<usize>()) {
        let mut classes = mutated_batch(corpus_seed, 24);
        let at = at % (classes.len() + 1);
        classes.insert(at, verify_failing_class("alloc/Rejected"));
        let jvms: Vec<Jvm> = VmSpec::all_five().into_iter().map(Jvm::new).collect();
        let mut trace = TraceFile::new();
        let mut rejected = 0;
        for class in &classes {
            let bytes = lower_class(class).to_bytes();
            for jvm in &jvms {
                let dirty = jvm.run_traced_into(&bytes, &mut trace).outcome;
                let (fresh, fresh_trace) = std::thread::scope(|s| {
                    s.spawn(|| {
                        let mut fresh_trace = TraceFile::new();
                        let cold = Jvm::cold_verify(jvm.spec().clone());
                        (cold.run_traced_into(&bytes, &mut fresh_trace).outcome, fresh_trace)
                    })
                    .join()
                    .expect("the reference run never panics past containment")
                });
                prop_assert_eq!(&dirty, &fresh, "{} on {}", class.name, jvm.spec().name);
                prop_assert!(trace == fresh_trace, "trace of {} on {}", class.name, jvm.spec().name);
                if matches!(&dirty, Outcome::Rejected { phase: Phase::Linking, error }
                    if error.kind == JvmErrorKind::VerifyError)
                {
                    rejected += 1;
                }
            }
        }
        prop_assert!(rejected >= 1, "the batch must exercise a rejected dataflow");
    }
}
