//! Shared≡cold verifier conformance: every program here runs through both
//! the decode-once verifier (the shared `DecodedTable` on the class) and
//! the cold decode-per-call baseline, on all five profiles, asserting the
//! full traced results — outcome *and* coverage trace — are
//! bit-identical. A warm rerun over the now-filled table must agree again.
//! `tests/deferred_facts.rs` pins what each unresolvable operand raises.
//!
//! The goldens target the seams where the decoded method could plausibly
//! diverge from the old single-pass verifier: exception-handler range
//! edges, unreachable dead-code islands (never analyzed by the dataflow,
//! whatever garbage they hold), merge-point frame joins (where the policy
//! knobs split the profiles), unparseable-descriptor rejection (decided
//! before the dataflow starts), and deep branch chains (worklist
//! saturation). A closing proptest sweeps randomly mutated candidates so
//! the equivalence is pinned on fuzzer-shaped input, not just
//! hand-assembled programs.

use classfuzz::classfile::{
    CodeAttribute, ConstIndex, ConstantPool, ExceptionTableEntry, Instruction, MethodAccess, Opcode,
};
use classfuzz::core::seeds::SeedCorpus;
use classfuzz::coverage::TraceFile;
use classfuzz::jimple::lower::lower_class;
use classfuzz::jimple::IrClass;
use classfuzz::mutation::{registry, MutationCtx};
use classfuzz::vm::{preparse, ExecOutcome, ExecutionResult, Jvm, Phase, PreparsedClass, VmSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An exception-table entry expressed in instruction indices; the assembler
/// rewrites them to byte offsets. `end` may equal the instruction count
/// (exclusive end of code).
struct Handler {
    start: usize,
    end: usize,
    handler: usize,
    catch_type: ConstIndex,
}

/// Rewrites branch/switch targets given as *instruction indices* into the
/// absolute byte offsets the code array stores, returning the instruction
/// list plus the pc of each instruction (with one trailing sentinel: the
/// total code length).
fn resolve_targets(mut insns: Vec<Instruction>) -> (Vec<Instruction>, Vec<u32>) {
    let mut pcs = Vec::with_capacity(insns.len() + 1);
    let mut pc = 0u32;
    for insn in &insns {
        pcs.push(pc);
        pc += insn.encoded_len(pc);
    }
    pcs.push(pc);
    for insn in &mut insns {
        match insn {
            Instruction::Branch(_, t) => *t = pcs[*t as usize],
            Instruction::TableSwitch(ts) => {
                ts.default = pcs[ts.default as usize];
                for t in &mut ts.targets {
                    *t = pcs[*t as usize];
                }
            }
            Instruction::LookupSwitch(ls) => {
                ls.default = pcs[ls.default as usize];
                for (_, t) in &mut ls.pairs {
                    *t = pcs[*t as usize];
                }
            }
            _ => {}
        }
    }
    (insns, pcs)
}

/// Assembles a class whose static `main` runs the given instruction stream
/// (index-valued branch targets and handler ranges).
fn build_main(
    name: &str,
    max_stack: u16,
    max_locals: u16,
    build: impl FnOnce(&mut ConstantPool) -> (Vec<Instruction>, Vec<Handler>),
) -> Vec<u8> {
    let mut builder =
        classfuzz::classfile::ClassFile::builder(name).super_class("java/lang/Object");
    let (insns, handlers) = build(builder.constant_pool_mut());
    let (instructions, pcs) = resolve_targets(insns);
    let exception_table = handlers
        .iter()
        .map(|h| ExceptionTableEntry {
            start_pc: pcs[h.start] as u16,
            end_pc: pcs[h.end] as u16,
            handler_pc: pcs[h.handler] as u16,
            catch_type: h.catch_type,
        })
        .collect();
    builder
        .method(
            MethodAccess::PUBLIC | MethodAccess::STATIC,
            "main",
            "([Ljava/lang/String;)V",
            CodeAttribute {
                max_stack,
                max_locals,
                instructions,
                exception_table,
                attributes: Vec::new(),
            },
        )
        .build()
        .to_bytes()
}

/// One traced run over a shared decode: the outcome and its coverage.
fn traced(jvm: &Jvm, parsed: &PreparsedClass) -> (ExecutionResult, TraceFile) {
    let mut trace = TraceFile::new();
    (jvm.run_traced_into_parsed(parsed, &mut trace), trace)
}

/// [`traced`] from raw bytes, decoding inside the run.
fn traced_bytes(jvm: &Jvm, bytes: &[u8]) -> (ExecutionResult, TraceFile) {
    let mut trace = TraceFile::new();
    (jvm.run_traced_into(bytes, &mut trace), trace)
}

/// The conformance contract of the decode-once layer: for one decode of
/// `bytes`, the shared-table run, the cold per-call-decode run, and a
/// warm rerun over the filled table produce identical traced results on
/// every profile — outcome and coverage trace, bit for bit — and so does
/// a shared run that decodes the bytes itself.
fn assert_shared_matches_cold(bytes: &[u8], what: &str) {
    let parsed = preparse(bytes);
    for spec in VmSpec::all_five() {
        let name = spec.name.clone();
        let shared = Jvm::new(spec.clone());
        let cold = Jvm::cold_verify(spec);
        let s = traced(&shared, &parsed);
        let c = traced(&cold, &parsed);
        assert_eq!(s, c, "{what}: shared vs cold diverged on {name}");
        let warm = traced(&shared, &parsed);
        assert_eq!(s, warm, "{what}: warm rerun diverged on {name}");
        let from_bytes = traced_bytes(&shared, bytes);
        assert_eq!(s, from_bytes, "{what}: bytes vs parsed diverged on {name}");
    }
}

/// Convenience: the normalized verdict of a shared-table run on `spec`.
fn verdict(bytes: &[u8], spec: VmSpec) -> ExecOutcome {
    ExecOutcome::of(&Jvm::new(spec).run(bytes).outcome)
}

/// Convenience: the startup phase a shared-table run on `spec` reaches.
fn phase_of(bytes: &[u8], spec: VmSpec) -> Phase {
    Jvm::new(spec).run(bytes).outcome.phase()
}

#[test]
fn handler_range_edges_match_cold() {
    // A handler protecting exactly the idiv (half-open range), catching
    // the real ArithmeticException; a second entry with catch_type 0
    // (Throwable) covering the same range, dead at runtime. Exercises the
    // decoded handler table: byte-offset range matching, pre-resolved
    // handler indices, and catch-name interning.
    let bytes = build_main("vc/Handler", 2, 1, |cp| {
        let ae = cp.class("java/lang/ArithmeticException");
        let insns = vec![
            Instruction::Simple(Opcode::Iconst1), // 0
            Instruction::Simple(Opcode::Iconst0), // 1
            Instruction::Simple(Opcode::Idiv),    // 2: traps
            Instruction::Simple(Opcode::Pop),     // 3
            Instruction::Simple(Opcode::Return),  // 4
            Instruction::Simple(Opcode::Pop),     // 5: handler (pops throwable)
            Instruction::Simple(Opcode::Return),  // 6
        ];
        let handlers = vec![
            Handler {
                start: 0,
                end: 4,
                handler: 5,
                catch_type: ae,
            },
            Handler {
                start: 0,
                end: 4,
                handler: 5,
                catch_type: ConstIndex(0),
            },
        ];
        (insns, handlers)
    });
    assert_shared_matches_cold(&bytes, "handler-range edges");
    // And the program actually completes by catching the trap.
    assert_eq!(
        verdict(&bytes, VmSpec::hotspot9()),
        ExecOutcome::Completed { stdout: vec![] },
        "handler should catch the division trap"
    );
}

#[test]
fn dead_code_island_matches_cold() {
    // An unreachable island after an unconditional goto, holding code that
    // would never verify (pop on an empty stack, a branch into the middle
    // of nowhere). The dataflow never reaches it, so every profile accepts
    // — and decoding, which flattens the whole stream eagerly, must not
    // change that.
    let bytes = build_main("vc/DeadIsle", 1, 1, |_cp| {
        let insns = vec![
            Instruction::Branch(Opcode::Goto, 4), // 0: jump over the island
            Instruction::Simple(Opcode::Pop),     // 1: dead, would underflow
            Instruction::Simple(Opcode::Pop),     // 2: dead
            Instruction::Simple(Opcode::Athrow),  // 3: dead
            Instruction::Simple(Opcode::Return),  // 4: live target
        ];
        (insns, Vec::new())
    });
    assert_shared_matches_cold(&bytes, "dead-code island");
    assert_eq!(
        verdict(&bytes, VmSpec::j9()),
        ExecOutcome::Completed { stdout: vec![] },
        "dead islands are not verified"
    );
}

#[test]
fn merge_point_join_splits_profiles_identically() {
    // Null and Ref("java/lang/String") meet on the stack at a join point:
    // HotSpot/GIJ merge them to the reference type; J9's strict stack
    // shape merge rejects. The split itself is the paper's Problem 1 — the
    // conformance claim is that the shared and cold paths land on the
    // same side for every profile, traces included.
    let bytes = build_main("vc/Join", 2, 1, |cp| {
        let s = cp.string("joined");
        let insns = vec![
            Instruction::Simple(Opcode::Iconst0),    // 0
            Instruction::Branch(Opcode::Ifeq, 4),    // 1: to 4
            Instruction::Simple(Opcode::AconstNull), // 2
            Instruction::Branch(Opcode::Goto, 5),    // 3: to join
            Instruction::Ldc(s),                     // 4: pushes String
            Instruction::Simple(Opcode::Pop),        // 5: join point
            Instruction::Simple(Opcode::Return),     // 6
        ];
        (insns, Vec::new())
    });
    assert_shared_matches_cold(&bytes, "merge-point join");
    assert_eq!(
        verdict(&bytes, VmSpec::hotspot8()),
        ExecOutcome::Completed { stdout: vec![] },
        "HotSpot merges Null with a reference"
    );
    assert_eq!(
        phase_of(&bytes, VmSpec::j9()),
        Phase::Linking,
        "J9's strict stack-shape merge rejects the join"
    );
}

#[test]
fn unparseable_descriptor_matches_cold() {
    // A helper method whose descriptor is corrupted after building. The
    // loader's format check rejects it at Loading on every profile (the
    // verifier's "unparseable method descriptor" arm is the defensive
    // backstop behind it); the conformance claim is that the decode
    // layer does not perturb a pre-verification rejection — the table
    // simply stays empty on both paths.
    let mut cf = classfuzz::classfile::ClassFile::builder("vc/BadDesc")
        .super_class("java/lang/Object")
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
        .method(
            MethodAccess::PUBLIC | MethodAccess::STATIC,
            "helper",
            "()V",
            CodeAttribute {
                max_stack: 0,
                max_locals: 0,
                instructions: vec![Instruction::Simple(Opcode::Return)],
                exception_table: Vec::new(),
                attributes: Vec::new(),
            },
        )
        .build();
    let bad = cf.constant_pool.utf8("(((");
    cf.methods[1].descriptor = bad;
    let bytes = cf.to_bytes();
    assert_shared_matches_cold(&bytes, "unparseable descriptor");
    assert_eq!(
        phase_of(&bytes, VmSpec::hotspot9()),
        Phase::Loading,
        "format checking rejects the descriptor at loading"
    );
    assert_eq!(
        phase_of(&bytes, VmSpec::j9()),
        Phase::Loading,
        "loading is eager even under lazy method verification"
    );
}

#[test]
fn deep_branch_chain_matches_cold() {
    // Fifty conditional branches whose taken edge and fall-through edge
    // both land on the next instruction: every block is a join of two
    // identical frames, saturating the worklist's merge path and the
    // decoded branch-target table.
    let bytes = build_main("vc/Chain", 1, 1, |_cp| {
        let mut insns = Vec::new();
        for b in 0..50usize {
            insns.push(Instruction::Simple(Opcode::Iconst0)); // 2b
            insns.push(Instruction::Branch(Opcode::Ifeq, (2 * b + 2) as u32)); // 2b+1
        }
        insns.push(Instruction::Simple(Opcode::Return)); // 100
        (insns, Vec::new())
    });
    assert_shared_matches_cold(&bytes, "deep branch chain");
    assert_eq!(
        verdict(&bytes, VmSpec::gij()),
        ExecOutcome::Completed { stdout: vec![] },
        "the chain verifies and runs"
    );
}

#[test]
fn branch_to_non_instruction_matches_cold() {
    // A branch target landing between instruction boundaries: the decode
    // stores the unresolvable-target sentinel and the error (naming the
    // original byte offset) fires only when the dataflow follows the edge
    // — exactly the cold path's behavior and message.
    let cf = classfuzz::classfile::ClassFile::builder("vc/BadTarget")
        .super_class("java/lang/Object")
        .method(
            MethodAccess::PUBLIC | MethodAccess::STATIC,
            "main",
            "([Ljava/lang/String;)V",
            CodeAttribute {
                max_stack: 1,
                max_locals: 1,
                instructions: vec![
                    Instruction::Simple(Opcode::Iconst0),
                    // ifeq is 3 bytes at pc 1; target pc 2 is inside it.
                    Instruction::Branch(Opcode::Ifeq, 2),
                    Instruction::Simple(Opcode::Return),
                ],
                exception_table: Vec::new(),
                attributes: Vec::new(),
            },
        )
        .build();
    let bytes = cf.to_bytes();
    assert_shared_matches_cold(&bytes, "branch to non-instruction");
    assert_eq!(
        phase_of(&bytes, VmSpec::hotspot7()),
        Phase::Linking,
        "the bad branch target is a verify rejection"
    );
}

/// A diverse batch of IR classes: a generated corpus pushed through a few
/// random mutations, so the verifier sees fuzzer-shaped input (odd
/// hierarchies, swapped bodies, injected members), not just pristine
/// seeds.
fn mutated_batch(corpus_seed: u64, rounds: usize) -> Vec<IrClass> {
    let mut classes = SeedCorpus::generate(6, corpus_seed).into_classes();
    let donors = classes.clone();
    let mutators = registry::all_mutators();
    let mut rng = StdRng::seed_from_u64(corpus_seed ^ 0xa11a);
    for _ in 0..rounds {
        let pick = rng.gen_range(0..classes.len());
        let id = rng.gen_range(0..mutators.len());
        let mut ctx = MutationCtx::new(&mut rng, &donors);
        let _ = mutators[id].apply(&mut classes[pick], &mut ctx);
    }
    classes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Shared ≡ cold over randomly mutated candidates: for every class
    /// in a mutated batch and every profile, the shared-table traced run
    /// equals the cold-decode traced run, and a warm rerun agrees.
    #[test]
    fn mutated_candidates_verify_identically(corpus_seed in any::<u64>()) {
        let classes = mutated_batch(corpus_seed, 16);
        for class in &classes {
            let bytes = lower_class(class).to_bytes();
            let parsed = preparse(&bytes);
            for spec in VmSpec::all_five() {
                let name = spec.name.clone();
                let shared = Jvm::new(spec.clone());
                let cold = Jvm::cold_verify(spec);
                let s = traced(&shared, &parsed);
                let c = traced(&cold, &parsed);
                prop_assert_eq!(&s, &c, "shared vs cold diverged for {} on {}", class.name, &name);
                let warm = traced(&shared, &parsed);
                prop_assert_eq!(&s, &warm, "warm rerun diverged for {} on {}", class.name, &name);
                let from_bytes = traced_bytes(&shared, &bytes);
                prop_assert_eq!(&s, &from_bytes, "bytes vs parsed diverged for {} on {}", class.name, &name);
            }
        }
    }
}
