//! Conformance-grade golden tests for the interpreter: hand-assembled
//! classfiles exercising instruction-level corner semantics (wide
//! arithmetic wrap and divide-by-zero, `iinc` wrapping, switch edge keys,
//! array traps, handler dispatch order), each pinned to an expected
//! normalized [`ExecOutcome`] that must be identical on every profile.
//!
//! Lowered Jimple never emits `iinc` or `tableswitch` (the lowerer always
//! chooses `lookupswitch`), so these tests assemble instruction streams
//! directly with the classfile builder — the only way those interpreter
//! paths get conformance coverage.
//!
//! The file also pins the budget-determinism contract: a `goto`-only
//! infinite loop exhausts the step budget at *exactly* `step_budget + 1`
//! charged steps on every profile, in every thread, and under
//! `run_contained` — the invariant that makes `Timeout` verdicts
//! replay-stable (see the fuel comment at the interpreter loop head).

use classfuzz::classfile::{
    CodeAttribute, ConstIndex, ConstantPool, ExceptionTableEntry, FieldAccess, Instruction,
    LookupSwitch, MethodAccess, Opcode, TableSwitch,
};
use classfuzz::vm::interp::{ExecError, Machine, RtValue};
use classfuzz::vm::{
    run_contained, Cov, ExecOutcome, Jvm, JvmErrorKind, Outcome, Phase, UserClass, VmSpec, World,
};

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
        // Targets do not influence encoded length, so index-valued targets
        // are safe to measure.
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

/// Assembles a class whose static `main` runs the given instruction stream.
/// The build closure receives the constant pool and returns the
/// instructions (index-valued targets) plus exception handlers
/// (index-valued ranges).
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

/// Like [`build_main`], but the class also declares a `static int flag`
/// (zero-initialized by static preparation) and the build closure
/// receives its field-ref — the verifiable way to carry loop state, since
/// the dataflow verifier rejects reads of uninitialized locals.
fn build_flag_main(
    name: &str,
    build: impl FnOnce(&mut ConstantPool, ConstIndex) -> Vec<Instruction>,
) -> Vec<u8> {
    let mut builder = classfuzz::classfile::ClassFile::builder(name)
        .super_class("java/lang/Object")
        .field(FieldAccess::PUBLIC | FieldAccess::STATIC, "flag", "I");
    let flag = builder.constant_pool_mut().field_ref(name, "flag", "I");
    let (instructions, _) = resolve_targets(build(builder.constant_pool_mut(), flag));
    builder
        .method(
            MethodAccess::PUBLIC | MethodAccess::STATIC,
            "main",
            "([Ljava/lang/String;)V",
            CodeAttribute {
                max_stack: 2,
                max_locals: 1,
                instructions,
                exception_table: Vec::new(),
                attributes: Vec::new(),
            },
        )
        .build()
        .to_bytes()
}

/// The `getstatic System.out / <value producer> / println` tail.
fn println_int(cp: &mut ConstantPool, producer: Instruction) -> Vec<Instruction> {
    let out = cp.field_ref("java/lang/System", "out", "Ljava/io/PrintStream;");
    let println = cp.method_ref("java/io/PrintStream", "println", "(I)V");
    vec![
        Instruction::Field(Opcode::Getstatic, out),
        producer,
        Instruction::Invoke(Opcode::Invokevirtual, println),
    ]
}

/// Runs the class on every profile and asserts each normalized execution
/// verdict equals `expected` — the conformance contract: corner semantics
/// may not differ between vendor policies.
fn assert_uniform_verdict(bytes: &[u8], expected: &ExecOutcome, what: &str) {
    for spec in VmSpec::all_five() {
        let name = spec.name.clone();
        let result = Jvm::new(spec).run(bytes);
        let got = ExecOutcome::of(&result.outcome);
        assert_eq!(
            &got, expected,
            "{what} on {name}: outcome {:?}",
            result.outcome
        );
    }
}

#[test]
fn wide_division_overflow_wraps_and_zero_traps() {
    // Long.MIN_VALUE / -1 has no positive representation: the JVM wraps it
    // back to Long.MIN_VALUE, and the matching remainder is 0.
    let bytes = build_main("conf/LongDiv", 6, 4, |cp| {
        let min = cp.long(i64::MIN);
        let minus_one = cp.long(-1);
        let out = cp.field_ref("java/lang/System", "out", "Ljava/io/PrintStream;");
        let println_j = cp.method_ref("java/io/PrintStream", "println", "(J)V");
        let print_long = |insns: &mut Vec<Instruction>, op: Opcode| {
            insns.extend([
                Instruction::Ldc2W(min),
                Instruction::Ldc2W(minus_one),
                Instruction::Simple(op),
                Instruction::Local(Opcode::Lstore, 1),
                Instruction::Field(Opcode::Getstatic, out),
                Instruction::Local(Opcode::Lload, 1),
                Instruction::Invoke(Opcode::Invokevirtual, println_j),
            ]);
        };
        let mut insns = Vec::new();
        print_long(&mut insns, Opcode::Ldiv);
        print_long(&mut insns, Opcode::Lrem);
        insns.push(Instruction::Simple(Opcode::Return));
        (insns, Vec::new())
    });
    assert_uniform_verdict(
        &bytes,
        &ExecOutcome::Completed {
            stdout: vec!["-9223372036854775808".into(), "0".into()],
        },
        "Long.MIN_VALUE / -1",
    );
}

#[test]
fn wide_division_by_zero_traps_uniformly() {
    let bytes = build_main("conf/LongZero", 4, 4, |cp| {
        let one = cp.long(1);
        let zero = cp.long(0);
        (
            vec![
                Instruction::Ldc2W(one),
                Instruction::Ldc2W(zero),
                Instruction::Simple(Opcode::Ldiv),
                Instruction::Local(Opcode::Lstore, 1),
                Instruction::Simple(Opcode::Return),
            ],
            Vec::new(),
        )
    });
    assert_uniform_verdict(
        &bytes,
        &ExecOutcome::Trapped {
            kind: JvmErrorKind::ArithmeticException,
        },
        "1L / 0L",
    );
}

#[test]
fn iinc_wraps_at_int_max() {
    let bytes = build_main("conf/IincWrap", 2, 2, |cp| {
        let max = cp.integer(i32::MAX);
        let mut insns = vec![
            Instruction::Ldc(max),
            Instruction::Local(Opcode::Istore, 1),
            Instruction::Iinc { index: 1, delta: 1 },
        ];
        insns.extend(println_int(cp, Instruction::Local(Opcode::Iload, 1)));
        insns.push(Instruction::Simple(Opcode::Return));
        (insns, Vec::new())
    });
    assert_uniform_verdict(
        &bytes,
        &ExecOutcome::Completed {
            stdout: vec!["-2147483648".into()],
        },
        "iinc past Integer.MAX_VALUE",
    );
}

/// A three-way printing switch: `key` is pushed, the switch (built by
/// `make`) dispatches to arms printing 1 and 2 or a default printing 3.
/// Arms start at instruction indices 2, 6, and 10.
fn switch_class(
    name: &str,
    key: i32,
    make: impl FnOnce(usize, usize, usize) -> Instruction,
) -> Vec<u8> {
    build_main(name, 2, 2, |cp| {
        let k = cp.integer(key);
        let mut insns = vec![Instruction::Ldc(k), make(2, 6, 10)];
        for n in 1..=3i8 {
            insns.extend(println_int(cp, Instruction::Bipush(n)));
            insns.push(Instruction::Simple(Opcode::Return));
        }
        (insns, Vec::new())
    })
}

fn expect_printed(bytes: &[u8], line: &str, what: &str) {
    assert_uniform_verdict(
        bytes,
        &ExecOutcome::Completed {
            stdout: vec![line.into()],
        },
        what,
    );
}

#[test]
fn tableswitch_edge_keys() {
    // Keys at the very top of the int range: the in-range index
    // `key - low` must not overflow, and the high edge selects the last
    // table slot.
    let table = |a: usize, b: usize, d: usize| {
        Instruction::TableSwitch(TableSwitch {
            default: d as u32,
            low: i32::MAX - 1,
            high: i32::MAX,
            targets: vec![a as u32, b as u32],
        })
    };
    expect_printed(
        &switch_class("conf/TsLow", i32::MAX - 1, table),
        "1",
        "tableswitch low edge",
    );
    expect_printed(
        &switch_class("conf/TsHigh", i32::MAX, table),
        "2",
        "tableswitch high edge",
    );
    expect_printed(
        &switch_class("conf/TsUnder", i32::MIN, table),
        "3",
        "tableswitch key below low",
    );
}

#[test]
fn lookupswitch_edge_keys() {
    let lookup = |a: usize, b: usize, d: usize| {
        Instruction::LookupSwitch(LookupSwitch {
            default: d as u32,
            pairs: vec![(i32::MIN, a as u32), (i32::MAX, b as u32)],
        })
    };
    expect_printed(
        &switch_class("conf/LsMin", i32::MIN, lookup),
        "1",
        "lookupswitch Integer.MIN_VALUE key",
    );
    expect_printed(
        &switch_class("conf/LsMax", i32::MAX, lookup),
        "2",
        "lookupswitch Integer.MAX_VALUE key",
    );
    expect_printed(
        &switch_class("conf/LsMiss", 0, lookup),
        "3",
        "lookupswitch unmatched key",
    );
}

#[test]
fn negative_array_size_traps() {
    let bytes = build_main("conf/NegSize", 2, 2, |_cp| {
        (
            vec![
                Instruction::Bipush(-3),
                Instruction::NewArray(10), // T_INT
                Instruction::Simple(Opcode::Pop),
                Instruction::Simple(Opcode::Return),
            ],
            Vec::new(),
        )
    });
    assert_uniform_verdict(
        &bytes,
        &ExecOutcome::Trapped {
            kind: JvmErrorKind::NegativeArraySizeException,
        },
        "newarray with length -3",
    );
}

#[test]
fn array_load_out_of_bounds_traps() {
    let bytes = build_main("conf/Oob", 3, 3, |_cp| {
        (
            vec![
                Instruction::Simple(Opcode::Iconst2),
                Instruction::NewArray(10),
                Instruction::Local(Opcode::Astore, 1),
                Instruction::Local(Opcode::Aload, 1),
                Instruction::Simple(Opcode::Iconst5),
                Instruction::Simple(Opcode::Iaload),
                Instruction::Simple(Opcode::Pop),
                Instruction::Simple(Opcode::Return),
            ],
            Vec::new(),
        )
    });
    assert_uniform_verdict(
        &bytes,
        &ExecOutcome::Trapped {
            kind: JvmErrorKind::ArrayIndexOutOfBoundsException,
        },
        "iaload index 5 of new int[2]",
    );
}

/// Builds the handler-order class: `1 / 0` throws `ArithmeticException`
/// inside a range protected by two catch clauses given in table order.
/// Each handler arm prints its number. JVMS §2.10: the *first* matching
/// entry in table order wins, even when a later entry is more specific.
fn two_handler_class(name: &str, first: &str, second: &str) -> Vec<u8> {
    build_main(name, 2, 3, |cp| {
        let c1 = cp.class(first);
        let c2 = cp.class(second);
        // 0..=2: the protected divide; 3,4: fall-through (never reached);
        // 5..=9: handler one; 10..: handler two.
        let mut insns = vec![
            Instruction::Simple(Opcode::Iconst1), // 0
            Instruction::Simple(Opcode::Iconst0), // 1
            Instruction::Simple(Opcode::Idiv),    // 2 -- throws
            Instruction::Simple(Opcode::Pop),     // 3 (never reached)
            Instruction::Simple(Opcode::Return),  // 4
        ];
        for n in 1..=2i8 {
            insns.push(Instruction::Local(Opcode::Astore, 2)); // catch entry
            insns.extend(println_int(cp, Instruction::Bipush(n)));
            insns.push(Instruction::Simple(Opcode::Return));
        }
        let handlers = vec![
            Handler {
                start: 0,
                end: 3,
                handler: 5,
                catch_type: c1,
            },
            Handler {
                start: 0,
                end: 3,
                handler: 10,
                catch_type: c2,
            },
        ];
        (insns, handlers)
    })
}

#[test]
fn exception_handlers_dispatch_in_table_order() {
    // RuntimeException listed first catches the ArithmeticException even
    // though the second clause names it exactly...
    expect_printed(
        &two_handler_class(
            "conf/CatchWide",
            "java/lang/RuntimeException",
            "java/lang/ArithmeticException",
        ),
        "1",
        "supertype clause listed first",
    );
    // ...and swapping the table order flips the winning handler.
    expect_printed(
        &two_handler_class(
            "conf/CatchNarrow",
            "java/lang/ArithmeticException",
            "java/lang/RuntimeException",
        ),
        "1",
        "exact clause listed first",
    );
}

/// `main` that is just `goto`-to-self: the minimal nonterminating method.
fn forever_class() -> Vec<u8> {
    build_main("conf/Forever", 1, 1, |_cp| {
        (vec![Instruction::Branch(Opcode::Goto, 0)], Vec::new())
    })
}

#[test]
fn goto_loop_times_out_on_every_profile() {
    let bytes = forever_class();
    assert_uniform_verdict(&bytes, &ExecOutcome::Timeout, "goto-to-self loop");
    // The startup outcome is the specified budget rejection, not a hang or
    // a crash.
    for spec in VmSpec::all_five() {
        let result = Jvm::new(spec).run(&bytes);
        match &result.outcome {
            Outcome::Rejected { phase, error } => {
                assert_eq!(*phase, Phase::Runtime);
                assert_eq!(error.kind, JvmErrorKind::ExecutionBudgetExceeded);
            }
            other => panic!("expected budget rejection, got {other:?}"),
        }
    }
}

/// Runs the forever class on a bare [`Machine`] and returns the consumed
/// fuel after budget exhaustion.
fn steps_at_exhaustion(spec: &VmSpec) -> u64 {
    let cf = classfuzz::classfile::ClassFile::from_bytes(&forever_class()).expect("decodes");
    let class = UserClass::summarize(cf);
    let world = World::new(spec, vec![class.clone()]);
    let mut machine = Machine::new(&world, spec);
    machine.prepare_statics(&class);
    let err = machine
        .call_static(
            &class,
            "main",
            "([Ljava/lang/String;)V",
            vec![RtValue::Ref(None)],
            &mut Cov::disabled(),
        )
        .expect_err("the loop must exhaust the budget");
    assert!(
        matches!(err, ExecError::BudgetExceeded),
        "expected BudgetExceeded"
    );
    machine.steps()
}

#[test]
fn budget_exhaustion_charges_identical_fuel_everywhere() {
    // Every profile, same class, bare interpreter: the loop is cut off at
    // exactly `step_budget + 1` charged steps — the charge that trips the
    // limit — which is what makes `Timeout` verdicts deterministic.
    for spec in VmSpec::all_five() {
        assert_eq!(
            steps_at_exhaustion(&spec),
            spec.step_budget + 1,
            "fuel at exhaustion on {}",
            spec.name
        );
    }
    // The count is thread-independent (no global state feeds the budget)...
    let handles: Vec<_> = (0..2)
        .map(|_| std::thread::spawn(|| steps_at_exhaustion(&VmSpec::hotspot9())))
        .collect();
    for h in handles {
        assert_eq!(
            h.join().expect("thread"),
            VmSpec::hotspot9().step_budget + 1
        );
    }
    // ...and unchanged under the panic-containment wrapper the campaign
    // engines route every VM run through.
    let contained = run_contained(|| steps_at_exhaustion(&VmSpec::gij()));
    assert_eq!(contained, Ok(VmSpec::gij().step_budget + 1));
}

// --- Prepared ≡ cold equivalence ---------------------------------------
//
// Interpretation reads each method through the class's shared
// decoded-method table (`Machine::new`, the production configuration) or
// decodes it per call (`Machine::uncached`, the bench baseline). The two
// must be observably identical: same result value, same captured stdout,
// same consumed fuel — on every profile, for every decoding corner (switch targets at the first/last instruction, a backward
// `goto` landing on index 0, exception-handler ranges, recursion at the
// depth guard).

/// Runs `main` on a bare [`Machine`] in the requested mode and returns
/// everything observable: the call result, captured stdout, and fuel.
#[allow(clippy::type_complexity)]
fn run_bare(
    bytes: &[u8],
    spec: &VmSpec,
    cold: bool,
) -> (Result<Option<RtValue>, ExecError>, Vec<String>, u64) {
    let cf = classfuzz::classfile::ClassFile::from_bytes(bytes).expect("decodes");
    let class = UserClass::summarize(cf);
    let world = World::new(spec, vec![class.clone()]);
    let mut machine = if cold {
        Machine::uncached(&world, spec)
    } else {
        Machine::new(&world, spec)
    };
    machine.prepare_statics(&class);
    let result = machine.call_static(
        &class,
        "main",
        "([Ljava/lang/String;)V",
        vec![RtValue::Ref(None)],
        &mut Cov::disabled(),
    );
    let stdout = machine.stdout.clone();
    let steps = machine.steps();
    (result, stdout, steps)
}

/// The equivalence oracle: prepared and cold execution of `bytes` agree
/// on all five profiles, and a second prepared run (now hitting the
/// warm per-class cache) agrees again.
fn assert_prepared_matches_cold(bytes: &[u8], what: &str) {
    for spec in VmSpec::all_five() {
        let prepared = run_bare(bytes, &spec, false);
        let cold = run_bare(bytes, &spec, true);
        assert_eq!(prepared, cold, "{what}: prepared != cold on {}", spec.name);
        let rewarmed = run_bare(bytes, &spec, false);
        assert_eq!(
            prepared, rewarmed,
            "{what}: warm rerun drifted on {}",
            spec.name
        );
    }
}

#[test]
fn prepared_matches_cold_on_switch_boundary_targets() {
    // A tableswitch whose arm targets *instruction 0* (byte offset 0, the
    // smallest resolvable target) and whose default targets the *last*
    // instruction. A static flag makes the backward hop terminate: the
    // second visit to instruction 0 exits through the print.
    let ts_first = build_flag_main("conf/PrepTsFirst", |cp, flag| {
        let k = cp.integer(7);
        let mut insns = vec![
            Instruction::Field(Opcode::Getstatic, flag), // 0: switch target, byte 0
            Instruction::Branch(Opcode::Ifne, 6),        // 1: second visit -> exit
            Instruction::Simple(Opcode::Iconst1),        // 2
            Instruction::Field(Opcode::Putstatic, flag), // 3
            Instruction::Ldc(k),                         // 4
            Instruction::TableSwitch(TableSwitch {
                default: 9, // 5: default -> last instruction
                low: 7,
                high: 7,
                targets: vec![0],
            }),
        ];
        insns.extend(println_int(cp, Instruction::Bipush(1))); // 6..=8
        insns.push(Instruction::Simple(Opcode::Return)); // 9: default target + exit
        insns
    });
    assert_prepared_matches_cold(&ts_first, "tableswitch arm at instruction 0");
    expect_printed(&ts_first, "1", "tableswitch backward arm to byte 0");

    // A lookupswitch whose only pair targets the *last* instruction.
    let ls_last = build_main("conf/PrepLsLast", 2, 2, |cp| {
        let k = cp.integer(-1);
        let mut insns = vec![
            Instruction::Ldc(k),
            Instruction::LookupSwitch(LookupSwitch {
                default: 2,
                pairs: vec![(-1, 5)],
            }),
        ];
        insns.extend(println_int(cp, Instruction::Bipush(3))); // 2..=4: default arm
        insns.push(Instruction::Simple(Opcode::Return)); // 5: matched arm
        (insns, Vec::new())
    });
    assert_prepared_matches_cold(&ls_last, "lookupswitch target at last instruction");
}

#[test]
fn prepared_matches_cold_on_backward_goto_to_zero() {
    // A two-pass loop whose backedge is a `goto` to instruction index 0 —
    // byte offset 0, the smallest possible branch target.
    let bytes = build_flag_main("conf/PrepBack", |cp, flag| {
        let mut insns = vec![
            Instruction::Field(Opcode::Getstatic, flag), // 0: loop head, byte 0
            Instruction::Branch(Opcode::Ifne, 5),        // 1: second pass -> exit
            Instruction::Simple(Opcode::Iconst1),        // 2
            Instruction::Field(Opcode::Putstatic, flag), // 3
            Instruction::Branch(Opcode::Goto, 0),        // 4: backedge to 0
        ];
        insns.extend(println_int(cp, Instruction::Bipush(7))); // 5..=7
        insns.push(Instruction::Simple(Opcode::Return)); // 8
        insns
    });
    assert_prepared_matches_cold(&bytes, "backward goto to instruction 0");
    expect_printed(&bytes, "7", "loop exits after the backward hop");
}

#[test]
fn prepared_matches_cold_on_exception_handler_ranges() {
    // Handler-range semantics must survive preparation: the two-clause
    // table-order classes throw inside a protected range and recover.
    for (name, first, second) in [
        (
            "conf/PrepCatchA",
            "java/lang/RuntimeException",
            "java/lang/ArithmeticException",
        ),
        (
            "conf/PrepCatchB",
            "java/lang/ArithmeticException",
            "java/lang/RuntimeException",
        ),
    ] {
        let bytes = two_handler_class(name, first, second);
        assert_prepared_matches_cold(&bytes, "two-clause handler dispatch");
        expect_printed(&bytes, "1", "handler order after preparation");
    }
    // And an *uncaught* throw outside every protected range propagates
    // identically on both paths.
    let uncaught = build_main("conf/PrepUncaught", 2, 3, |cp| {
        let c = cp.class("java/lang/IllegalStateException");
        let insns = vec![
            Instruction::Simple(Opcode::Iconst1), // 0
            Instruction::Simple(Opcode::Iconst0), // 1
            Instruction::Simple(Opcode::Idiv),    // 2: throws outside 3..4
            Instruction::Simple(Opcode::Pop),     // 3
            Instruction::Simple(Opcode::Return),  // 4
        ];
        let handlers = vec![Handler {
            start: 3,
            end: 4,
            handler: 4,
            catch_type: c,
        }];
        (insns, handlers)
    });
    assert_prepared_matches_cold(&uncaught, "throw outside the protected range");
}

#[test]
fn prepared_matches_cold_at_the_recursion_guard() {
    // `main` calls itself unconditionally: the interpreter's depth guard
    // (depth > 24 -> StackOverflowError) must trip at the same depth with
    // the same verdict on both paths — the nested invokes all hit the
    // same prepared method through the per-class cache.
    let bytes = build_main("conf/PrepRecurse", 2, 1, |cp| {
        let me = cp.method_ref("conf/PrepRecurse", "main", "([Ljava/lang/String;)V");
        (
            vec![
                Instruction::Simple(Opcode::AconstNull),
                Instruction::Invoke(Opcode::Invokestatic, me),
                Instruction::Simple(Opcode::Return),
            ],
            Vec::new(),
        )
    });
    assert_prepared_matches_cold(&bytes, "unbounded recursion at the depth guard");
    assert_uniform_verdict(
        &bytes,
        &ExecOutcome::Trapped {
            kind: JvmErrorKind::StackOverflowError,
        },
        "self-recursive main",
    );
}

// --- Bounded superclass resolution -------------------------------------

/// An empty class `deep/C<i>` extending `sup`; the chain root also
/// carries a static `ping()V` so the probed method *exists* — just too
/// far up the chain for the bounded walk to reach.
fn chain_class(i: usize, sup: &str, with_ping: bool) -> Vec<u8> {
    let mut builder =
        classfuzz::classfile::ClassFile::builder(&format!("deep/C{i}")).super_class(sup);
    if with_ping {
        builder = builder.method(
            MethodAccess::PUBLIC | MethodAccess::STATIC,
            "ping",
            "()V",
            CodeAttribute {
                max_stack: 1,
                max_locals: 1,
                instructions: vec![Instruction::Simple(Opcode::Return)],
                exception_table: Vec::new(),
                attributes: Vec::new(),
            },
        );
    }
    builder.build().to_bytes()
}

/// `main` invoking `deep/C0.ping()` statically, with a `depth`-class
/// chain `C0 -> C1 -> ... -> C{depth-1} -> Object` on the classpath and
/// `ping` defined only on the chain root.
fn deep_chain_setup(depth: usize) -> (Vec<u8>, Vec<Vec<u8>>) {
    let main = build_main("deep/Main", 1, 1, |cp| {
        let ping = cp.method_ref("deep/C0", "ping", "()V");
        (
            vec![
                Instruction::Invoke(Opcode::Invokestatic, ping),
                Instruction::Simple(Opcode::Return),
            ],
            Vec::new(),
        )
    });
    let classpath: Vec<Vec<u8>> = (0..depth)
        .map(|i| {
            let sup = if i + 1 == depth {
                "java/lang/Object".to_string()
            } else {
                format!("deep/C{}", i + 1)
            };
            chain_class(i, &sup, i + 1 == depth)
        })
        .collect();
    (main, classpath)
}

#[test]
fn deep_inheritance_chain_raises_resolution_depth_exceeded() {
    // 40 hops needed, 32 allowed: every profile reports the dedicated
    // depth error instead of silently claiming the method doesn't exist.
    let (main, classpath) = deep_chain_setup(40);
    for spec in VmSpec::all_five() {
        let name = spec.name.clone();
        let result = Jvm::new(spec).with_classpath(&classpath).run(&main);
        match &result.outcome {
            Outcome::Rejected { phase, error } => {
                assert_eq!(*phase, Phase::Runtime, "phase on {name}");
                assert_eq!(
                    error.kind,
                    JvmErrorKind::ResolutionDepthExceeded,
                    "kind on {name}: {error:?}"
                );
            }
            other => panic!("expected depth rejection on {name}, got {other:?}"),
        }
    }

    // Control: the same shape within the hop budget resolves and runs.
    let (main, classpath) = deep_chain_setup(8);
    for spec in VmSpec::all_five() {
        let name = spec.name.clone();
        let result = Jvm::new(spec).with_classpath(&classpath).run(&main);
        assert_eq!(
            result.outcome.phase(),
            Phase::Invoked,
            "short chain on {name}: {:?}",
            result.outcome
        );
    }
}
