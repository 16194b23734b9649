//! Deferred operand facts, pinned on both readers of the decoded method.
//!
//! Decoding a method's `Code` attribute never fails: an operand that does
//! not resolve — a member, class, constant or descriptor, a catch type, a
//! branch, switch or handler target that falls between instructions — is
//! kept as a fact, and each reader raises its own error only when it
//! reaches the instruction. This file holds one hand-assembled class per
//! such fact and runs it on all five profiles in two ways:
//!
//! * as the main class, so the verifier meets the fact first (eagerly at
//!   link time, or lazily on J9 when `main` is first invoked);
//! * as an unverified classpath extra whose `main` a clean caller invokes,
//!   so on the four eager profiles the interpreter meets the fact.
//!
//! Each run's `(phase, kind, message)` verdict is pinned below.

use classfuzz::classfile::{
    ClassFile, CodeAttribute, ConstIndex, ConstantPool, ExceptionTableEntry, Instruction,
    LookupSwitch, MethodAccess, Opcode, TableSwitch,
};
use classfuzz::vm::{Jvm, Outcome, VmSpec};

const MAIN_DESC: &str = "([Ljava/lang/String;)V";

/// A branch or switch target: the start of an instruction, or the byte
/// just after its start (inside it, for any instruction longer than one
/// byte).
#[derive(Clone, Copy)]
enum At {
    Insn(usize),
    Inside(usize),
}

/// One fact's `main`: its instructions, with targets given as [`At`]
/// through [`target`], and its exception table.
struct Asm {
    insns: Vec<Instruction>,
    /// `(start, end, handler, catch_type)` in [`At`] terms.
    handlers: Vec<(At, At, At, ConstIndex)>,
    max_stack: u16,
}

/// Marks a target operand so [`lay_out`] can rewrite it; the high bit
/// flags [`At::Inside`].
fn target(at: At) -> u32 {
    match at {
        At::Insn(i) => i as u32,
        At::Inside(i) => i as u32 | 1 << 31,
    }
}

/// Rewrites [`target`]-marked operands into byte offsets.
fn lay_out(asm: Asm) -> CodeAttribute {
    let mut insns = asm.insns;
    let mut pcs = Vec::with_capacity(insns.len() + 1);
    let mut pc = 0u32;
    for insn in &insns {
        pcs.push(pc);
        pc += insn.encoded_len(pc);
    }
    pcs.push(pc);
    let at = |t: u32| {
        let inside = t >> 31;
        pcs[(t & !(1 << 31)) as usize] + inside
    };
    let byte = |a: At| at(target(a));
    for insn in &mut insns {
        match insn {
            Instruction::Branch(_, t) => *t = at(*t),
            Instruction::TableSwitch(ts) => {
                ts.default = at(ts.default);
                for t in &mut ts.targets {
                    *t = at(*t);
                }
            }
            Instruction::LookupSwitch(ls) => {
                ls.default = at(ls.default);
                for (_, t) in &mut ls.pairs {
                    *t = at(*t);
                }
            }
            _ => {}
        }
    }
    let exception_table = asm
        .handlers
        .iter()
        .map(|&(start, end, handler, catch_type)| ExceptionTableEntry {
            start_pc: byte(start) as u16,
            end_pc: byte(end) as u16,
            handler_pc: byte(handler) as u16,
            catch_type,
        })
        .collect();
    CodeAttribute {
        max_stack: asm.max_stack,
        max_locals: 1,
        instructions: insns,
        exception_table,
        attributes: Vec::new(),
    }
}

/// Builds a fact's `main` into a class's constant pool.
type Build = fn(&mut ConstantPool) -> Asm;

/// The class `vd/<name>` whose static `main` is built by `build`.
fn fact_class(name: &str, build: Build) -> Vec<u8> {
    let mut builder = ClassFile::builder(&format!("vd/{name}")).super_class("java/lang/Object");
    let asm = build(builder.constant_pool_mut());
    builder
        .method(
            MethodAccess::PUBLIC | MethodAccess::STATIC,
            "main",
            MAIN_DESC,
            lay_out(asm),
        )
        .build()
        .to_bytes()
}

/// A clean main class that passes `null` to `vd/<name>.main`.
fn caller(name: &str) -> Vec<u8> {
    let mut builder = ClassFile::builder("vd/Caller").super_class("java/lang/Object");
    let callee = builder
        .constant_pool_mut()
        .method_ref(&format!("vd/{name}"), "main", MAIN_DESC);
    builder
        .method(
            MethodAccess::PUBLIC | MethodAccess::STATIC,
            "main",
            MAIN_DESC,
            CodeAttribute {
                max_stack: 1,
                max_locals: 1,
                instructions: vec![
                    Instruction::Simple(Opcode::AconstNull),
                    Instruction::Invoke(Opcode::Invokestatic, callee),
                    Instruction::Simple(Opcode::Return),
                ],
                exception_table: Vec::new(),
                attributes: Vec::new(),
            },
        )
        .build()
        .to_bytes()
}

fn simple(ops: &[Opcode]) -> impl Iterator<Item = Instruction> + '_ {
    ops.iter().map(|&op| Instruction::Simple(op))
}

/// `getstatic System.out`, the receiver of a `println`.
fn out(cp: &mut ConstantPool) -> Instruction {
    let f = cp.field_ref("java/lang/System", "out", "Ljava/io/PrintStream;");
    Instruction::Field(Opcode::Getstatic, f)
}

fn println(cp: &mut ConstantPool, desc: &str) -> Instruction {
    let m = cp.method_ref("java/io/PrintStream", "println", desc);
    Instruction::Invoke(Opcode::Invokevirtual, m)
}

fn code(insns: Vec<Instruction>, max_stack: u16) -> Asm {
    Asm {
        insns,
        handlers: Vec::new(),
        max_stack,
    }
}

/// `println` of the constant an `ldc`-family instruction loads.
fn print_const(cp: &mut ConstantPool, load: Instruction, desc: &str) -> Asm {
    let insns = vec![
        out(cp),
        load,
        println(cp, desc),
        Instruction::Simple(Opcode::Return),
    ];
    code(insns, 3)
}

/// `println` of whether a one-element `anewarray` of `elem` is an
/// instance of `array`.
fn print_anewarray(cp: &mut ConstantPool, elem: ConstIndex, array: &str) -> Asm {
    let array = cp.class(array);
    let insns = vec![
        out(cp),
        Instruction::Simple(Opcode::Iconst1),
        Instruction::ANewArray(elem),
        Instruction::InstanceOf(array),
        println(cp, "(I)V"),
        Instruction::Simple(Opcode::Return),
    ];
    code(insns, 2)
}

/// Every deferred fact, by name, with the `main` that reaches it.
fn facts() -> Vec<(&'static str, Build)> {
    vec![
        ("FieldUnresolved", |cp| {
            let junk = cp.utf8("junk");
            let mut insns = vec![Instruction::Field(Opcode::Getstatic, junk)];
            insns.extend(simple(&[Opcode::Pop, Opcode::Return]));
            code(insns, 1)
        }),
        ("MethodUnresolved", |cp| {
            let junk = cp.utf8("junk");
            let insns = vec![
                Instruction::Invoke(Opcode::Invokestatic, junk),
                Instruction::Simple(Opcode::Return),
            ];
            code(insns, 1)
        }),
        ("FieldBadDesc", |cp| {
            let f = cp.field_ref("vd/FieldBadDesc", "x", "((");
            let mut insns = vec![Instruction::Field(Opcode::Getstatic, f)];
            insns.extend(simple(&[Opcode::Pop, Opcode::Return]));
            code(insns, 1)
        }),
        ("MethodBadDesc", |cp| {
            let m = cp.method_ref("vd/MethodBadDesc", "m", "(((");
            let insns = vec![
                Instruction::Invoke(Opcode::Invokestatic, m),
                Instruction::Simple(Opcode::Return),
            ];
            code(insns, 1)
        }),
        ("LdcLong", |cp| {
            let c = cp.long(7);
            print_const(cp, Instruction::Ldc(c), "(J)V")
        }),
        ("LdcDouble", |cp| {
            let c = cp.double(2.5);
            print_const(cp, Instruction::Ldc(c), "(D)V")
        }),
        ("LdcClass", |cp| {
            let c = cp.class("java/lang/Thread");
            let to_string = cp.method_ref("java/lang/Object", "toString", "()Ljava/lang/String;");
            let insns = vec![
                out(cp),
                Instruction::Ldc(c),
                Instruction::Invoke(Opcode::Invokevirtual, to_string),
                println(cp, "(Ljava/lang/String;)V"),
                Instruction::Simple(Opcode::Return),
            ];
            code(insns, 2)
        }),
        ("LdcUnusable", |cp| {
            let junk = cp.utf8("junk");
            let mut insns = vec![Instruction::Ldc(junk)];
            insns.extend(simple(&[Opcode::Pop, Opcode::Return]));
            code(insns, 1)
        }),
        ("Ldc2wInteger", |cp| {
            let c = cp.integer(42);
            print_const(cp, Instruction::Ldc2W(c), "(I)V")
        }),
        ("NewNonClass", |cp| {
            let junk = cp.utf8("junk");
            let mut insns = vec![Instruction::New(junk)];
            insns.extend(simple(&[Opcode::Pop, Opcode::Return]));
            code(insns, 1)
        }),
        ("ANewArrayNonClass", |cp| {
            let junk = cp.utf8("junk");
            print_anewarray(cp, junk, "[Ljava/lang/Object;")
        }),
        ("ANewArrayOfIntArray", |cp| {
            let int_array = cp.class("[I");
            print_anewarray(cp, int_array, "[[I")
        }),
        ("CheckCastNonClass", |cp| {
            let s = cp.string("s");
            let junk = cp.utf8("junk");
            let insns = vec![
                Instruction::Ldc(s),
                Instruction::CheckCast(junk),
                Instruction::Simple(Opcode::Pop),
                Instruction::Simple(Opcode::Return),
            ];
            code(insns, 1)
        }),
        ("InstanceOfNonClass", |cp| {
            let s = cp.string("s");
            let junk = cp.utf8("junk");
            let insns = vec![
                out(cp),
                Instruction::Ldc(s),
                Instruction::InstanceOf(junk),
                println(cp, "(I)V"),
                Instruction::Simple(Opcode::Return),
            ];
            code(insns, 2)
        }),
        ("CatchUnresolvable", |cp| {
            let junk = cp.utf8("junk");
            let insns = simple(&[
                Opcode::Iconst1, // 0
                Opcode::Iconst0, // 1
                Opcode::Idiv,    // 2: traps
                Opcode::Pop,     // 3
                Opcode::Return,  // 4
                Opcode::Pop,     // 5: handler
                Opcode::Return,  // 6
            ])
            .collect();
            Asm {
                insns,
                handlers: vec![(At::Insn(0), At::Insn(4), At::Insn(5), junk)],
                max_stack: 2,
            }
        }),
        ("HandlerInside", |cp| {
            let arith = cp.class("java/lang/ArithmeticException");
            let mut insns: Vec<_> =
                simple(&[Opcode::Iconst1, Opcode::Iconst0, Opcode::Idiv]).collect();
            insns.push(Instruction::Bipush(3)); // 3: the handler points inside
            insns.extend(simple(&[Opcode::Pop, Opcode::Pop, Opcode::Return]));
            Asm {
                insns,
                handlers: vec![(At::Insn(0), At::Insn(3), At::Inside(3), arith)],
                max_stack: 2,
            }
        }),
        ("BranchInside", |_| {
            let insns = vec![
                Instruction::Simple(Opcode::Iconst0),
                Instruction::Branch(Opcode::Ifeq, target(At::Inside(1))),
                Instruction::Simple(Opcode::Return),
            ];
            code(insns, 1)
        }),
        ("TableSwitchInside", |_| {
            let insns = vec![
                Instruction::Simple(Opcode::Iconst0),
                Instruction::TableSwitch(TableSwitch {
                    default: target(At::Insn(2)),
                    low: 0,
                    high: 0,
                    targets: vec![target(At::Inside(1))],
                }),
                Instruction::Simple(Opcode::Return),
            ];
            code(insns, 1)
        }),
        ("LookupSwitchInside", |_| {
            let insns = vec![
                Instruction::Simple(Opcode::Iconst0),
                Instruction::LookupSwitch(LookupSwitch {
                    default: target(At::Insn(2)),
                    pairs: vec![(0, target(At::Inside(1)))],
                }),
                Instruction::Simple(Opcode::Return),
            ];
            code(insns, 1)
        }),
    ]
}

/// A run's verdict as `phase kind: message`, or the printed lines. The
/// verifier's `(class: vd/<name>, method: main signature: …)` prefix is
/// shortened to `<main>`.
fn verdict(name: &str, outcome: &Outcome) -> String {
    let full = match outcome {
        Outcome::Invoked { stdout } => format!("Invoked {stdout:?}"),
        Outcome::Rejected { phase, error } => {
            format!("{phase:?} {:?}: {}", error.kind, error.message)
        }
        Outcome::Crashed { phase, error } => format!("Crashed in {phase:?}: {}", error.message),
    };
    full.replace(
        &format!("(class: vd/{name}, method: main signature: {MAIN_DESC})"),
        "<main>",
    )
}

/// The verdicts of `name` on the five profiles, as the main class and as
/// a classpath extra.
fn observe(name: &str, build: Build) -> (Vec<String>, Vec<String>) {
    let fact = fact_class(name, build);
    let main = caller(name);
    let mut as_main = Vec::new();
    let mut as_extra = Vec::new();
    for spec in VmSpec::all_five() {
        as_main.push(verdict(name, &Jvm::new(spec.clone()).run(&fact).outcome));
        let jvm = Jvm::new(spec).with_classpath(std::slice::from_ref(&fact));
        as_extra.push(verdict(name, &jvm.run(&main).outcome));
    }
    (as_main, as_extra)
}

/// Pinned verdicts, in `VmSpec::all_five` order: `(fact, as main class,
/// as classpath extra)`.
const PINS: &[(&str, [&str; 5], [&str; 5])] = &[
    (
        "FieldUnresolved",
        [
            "Linking VerifyError: <main> constant pool entry #5 is not a field reference",
            "Linking VerifyError: <main> constant pool entry #5 is not a field reference",
            "Linking VerifyError: <main> constant pool entry #5 is not a field reference",
            "Linking VerifyError: <main> constant pool entry #5 is not a field reference",
            "Linking VerifyError: <main> constant pool entry #5 is not a field reference",
        ],
        [
            "Runtime NoSuchFieldError: unresolvable field reference",
            "Runtime NoSuchFieldError: unresolvable field reference",
            "Runtime NoSuchFieldError: unresolvable field reference",
            "Linking VerifyError: <main> constant pool entry #5 is not a field reference",
            "Runtime NoSuchFieldError: unresolvable field reference",
        ],
    ),
    (
        "MethodUnresolved",
        [
            "Linking VerifyError: <main> constant pool entry #5 is not a method reference",
            "Linking VerifyError: <main> constant pool entry #5 is not a method reference",
            "Linking VerifyError: <main> constant pool entry #5 is not a method reference",
            "Linking VerifyError: <main> constant pool entry #5 is not a method reference",
            "Linking VerifyError: <main> constant pool entry #5 is not a method reference",
        ],
        [
            "Runtime NoSuchMethodError: unresolvable method reference",
            "Runtime NoSuchMethodError: unresolvable method reference",
            "Runtime NoSuchMethodError: unresolvable method reference",
            "Linking VerifyError: <main> constant pool entry #5 is not a method reference",
            "Runtime NoSuchMethodError: unresolvable method reference",
        ],
    ),
    (
        "FieldBadDesc",
        [
            "Linking VerifyError: <main> bad field descriptor \"((\"",
            "Linking VerifyError: <main> bad field descriptor \"((\"",
            "Linking VerifyError: <main> bad field descriptor \"((\"",
            "Linking VerifyError: <main> bad field descriptor \"((\"",
            "Linking VerifyError: <main> bad field descriptor \"((\"",
        ],
        [
            "Runtime NoSuchFieldError: vd/FieldBadDesc.x",
            "Runtime NoSuchFieldError: vd/FieldBadDesc.x",
            "Runtime NoSuchFieldError: vd/FieldBadDesc.x",
            "Linking VerifyError: <main> bad field descriptor \"((\"",
            "Runtime NoSuchFieldError: vd/FieldBadDesc.x",
        ],
    ),
    (
        "MethodBadDesc",
        [
            "Linking VerifyError: <main> bad method descriptor \"(((\"",
            "Linking VerifyError: <main> bad method descriptor \"(((\"",
            "Linking VerifyError: <main> bad method descriptor \"(((\"",
            "Linking VerifyError: <main> bad method descriptor \"(((\"",
            "Linking VerifyError: <main> bad method descriptor \"(((\"",
        ],
        [
            "Runtime NoSuchMethodError: bad descriptor (((",
            "Runtime NoSuchMethodError: bad descriptor (((",
            "Runtime NoSuchMethodError: bad descriptor (((",
            "Linking VerifyError: <main> bad method descriptor \"(((\"",
            "Runtime NoSuchMethodError: bad descriptor (((",
        ],
    ),
    (
        "LdcLong",
        [
            "Linking VerifyError: <main> ldc references an unloadable constant",
            "Linking VerifyError: <main> ldc references an unloadable constant",
            "Linking VerifyError: <main> ldc references an unloadable constant",
            "Linking VerifyError: <main> ldc references an unloadable constant",
            "Linking VerifyError: <main> ldc references an unloadable constant",
        ],
        [
            "Invoked [\"7\"]",
            "Invoked [\"7\"]",
            "Invoked [\"7\"]",
            "Linking VerifyError: <main> ldc references an unloadable constant",
            "Invoked [\"7\"]",
        ],
    ),
    (
        "LdcDouble",
        [
            "Linking VerifyError: <main> ldc references an unloadable constant",
            "Linking VerifyError: <main> ldc references an unloadable constant",
            "Linking VerifyError: <main> ldc references an unloadable constant",
            "Linking VerifyError: <main> ldc references an unloadable constant",
            "Linking VerifyError: <main> ldc references an unloadable constant",
        ],
        [
            "Invoked [\"2.5\"]",
            "Invoked [\"2.5\"]",
            "Invoked [\"2.5\"]",
            "Linking VerifyError: <main> ldc references an unloadable constant",
            "Invoked [\"2.5\"]",
        ],
    ),
    (
        "LdcClass",
        [
            "Invoked [\"<class>\"]",
            "Invoked [\"<class>\"]",
            "Invoked [\"<class>\"]",
            "Invoked [\"<class>\"]",
            "Invoked [\"<class>\"]",
        ],
        [
            "Invoked [\"<class>\"]",
            "Invoked [\"<class>\"]",
            "Invoked [\"<class>\"]",
            "Invoked [\"<class>\"]",
            "Invoked [\"<class>\"]",
        ],
    ),
    (
        "LdcUnusable",
        [
            "Linking VerifyError: <main> ldc references an unloadable constant",
            "Linking VerifyError: <main> ldc references an unloadable constant",
            "Linking VerifyError: <main> ldc references an unloadable constant",
            "Linking VerifyError: <main> ldc references an unloadable constant",
            "Linking VerifyError: <main> ldc references an unloadable constant",
        ],
        [
            "Runtime ClassFormatError: ldc of unusable constant",
            "Runtime ClassFormatError: ldc of unusable constant",
            "Runtime ClassFormatError: ldc of unusable constant",
            "Linking VerifyError: <main> ldc references an unloadable constant",
            "Runtime ClassFormatError: ldc of unusable constant",
        ],
    ),
    (
        "Ldc2wInteger",
        [
            "Linking VerifyError: <main> ldc2_w references a non-wide constant",
            "Linking VerifyError: <main> ldc2_w references a non-wide constant",
            "Linking VerifyError: <main> ldc2_w references a non-wide constant",
            "Linking VerifyError: <main> ldc2_w references a non-wide constant",
            "Linking VerifyError: <main> ldc2_w references a non-wide constant",
        ],
        [
            "Invoked [\"42\"]",
            "Invoked [\"42\"]",
            "Invoked [\"42\"]",
            "Linking VerifyError: <main> ldc2_w references a non-wide constant",
            "Invoked [\"42\"]",
        ],
    ),
    (
        "NewNonClass",
        [
            "Linking VerifyError: <main> constant pool entry #5 is not a class",
            "Linking VerifyError: <main> constant pool entry #5 is not a class",
            "Linking VerifyError: <main> constant pool entry #5 is not a class",
            "Linking VerifyError: <main> constant pool entry #5 is not a class",
            "Linking VerifyError: <main> constant pool entry #5 is not a class",
        ],
        [
            "Runtime NoClassDefFoundError: new of unresolvable class",
            "Runtime NoClassDefFoundError: new of unresolvable class",
            "Runtime NoClassDefFoundError: new of unresolvable class",
            "Linking VerifyError: <main> constant pool entry #5 is not a class",
            "Runtime NoClassDefFoundError: new of unresolvable class",
        ],
    ),
    (
        "ANewArrayNonClass",
        [
            "Linking VerifyError: <main> constant pool entry #5 is not a class",
            "Linking VerifyError: <main> constant pool entry #5 is not a class",
            "Linking VerifyError: <main> constant pool entry #5 is not a class",
            "Linking VerifyError: <main> constant pool entry #5 is not a class",
            "Linking VerifyError: <main> constant pool entry #5 is not a class",
        ],
        [
            "Invoked [\"1\"]",
            "Invoked [\"1\"]",
            "Invoked [\"1\"]",
            "Linking VerifyError: <main> constant pool entry #5 is not a class",
            "Invoked [\"1\"]",
        ],
    ),
    (
        "ANewArrayOfIntArray",
        [
            "Invoked [\"1\"]",
            "Invoked [\"1\"]",
            "Invoked [\"1\"]",
            "Invoked [\"1\"]",
            "Invoked [\"1\"]",
        ],
        [
            "Invoked [\"1\"]",
            "Invoked [\"1\"]",
            "Invoked [\"1\"]",
            "Invoked [\"1\"]",
            "Invoked [\"1\"]",
        ],
    ),
    (
        "CheckCastNonClass",
        [
            "Linking VerifyError: <main> constant pool entry #7 is not a class",
            "Linking VerifyError: <main> constant pool entry #7 is not a class",
            "Linking VerifyError: <main> constant pool entry #7 is not a class",
            "Linking VerifyError: <main> constant pool entry #7 is not a class",
            "Linking VerifyError: <main> constant pool entry #7 is not a class",
        ],
        [
            "Invoked []",
            "Invoked []",
            "Invoked []",
            "Linking VerifyError: <main> constant pool entry #7 is not a class",
            "Invoked []",
        ],
    ),
    (
        "InstanceOfNonClass",
        [
            "Linking VerifyError: <main> constant pool entry #7 is not a class",
            "Linking VerifyError: <main> constant pool entry #7 is not a class",
            "Linking VerifyError: <main> constant pool entry #7 is not a class",
            "Linking VerifyError: <main> constant pool entry #7 is not a class",
            "Linking VerifyError: <main> constant pool entry #7 is not a class",
        ],
        [
            "Invoked [\"0\"]",
            "Invoked [\"0\"]",
            "Invoked [\"0\"]",
            "Linking VerifyError: <main> constant pool entry #7 is not a class",
            "Invoked [\"0\"]",
        ],
    ),
    (
        "CatchUnresolvable",
        [
            "Runtime ArithmeticException: Exception in thread \"main\" java.lang.ArithmeticException: / by zero",
            "Runtime ArithmeticException: Exception in thread \"main\" java.lang.ArithmeticException: / by zero",
            "Runtime ArithmeticException: Exception in thread \"main\" java.lang.ArithmeticException: / by zero",
            "Runtime ArithmeticException: Exception in thread \"main\" java.lang.ArithmeticException: / by zero",
            "Runtime ArithmeticException: Exception in thread \"main\" java.lang.ArithmeticException: / by zero",
        ],
        [
            "Runtime ArithmeticException: Exception in thread \"main\" java.lang.ArithmeticException: / by zero",
            "Runtime ArithmeticException: Exception in thread \"main\" java.lang.ArithmeticException: / by zero",
            "Runtime ArithmeticException: Exception in thread \"main\" java.lang.ArithmeticException: / by zero",
            "Runtime ArithmeticException: Exception in thread \"main\" java.lang.ArithmeticException: / by zero",
            "Runtime ArithmeticException: Exception in thread \"main\" java.lang.ArithmeticException: / by zero",
        ],
    ),
    (
        "HandlerInside",
        [
            "Linking VerifyError: <main> exception handler target is not an instruction",
            "Linking VerifyError: <main> exception handler target is not an instruction",
            "Linking VerifyError: <main> exception handler target is not an instruction",
            "Linking VerifyError: <main> exception handler target is not an instruction",
            "Linking VerifyError: <main> exception handler target is not an instruction",
        ],
        [
            "Runtime ArithmeticException: Exception in thread \"main\" java.lang.ArithmeticException: / by zero",
            "Runtime ArithmeticException: Exception in thread \"main\" java.lang.ArithmeticException: / by zero",
            "Runtime ArithmeticException: Exception in thread \"main\" java.lang.ArithmeticException: / by zero",
            "Linking VerifyError: <main> exception handler target is not an instruction",
            "Runtime ArithmeticException: Exception in thread \"main\" java.lang.ArithmeticException: / by zero",
        ],
    ),
    (
        "BranchInside",
        [
            "Linking VerifyError: <main> branch target 2 is not an instruction",
            "Linking VerifyError: <main> branch target 2 is not an instruction",
            "Linking VerifyError: <main> branch target 2 is not an instruction",
            "Linking VerifyError: <main> branch target 2 is not an instruction",
            "Linking VerifyError: <main> branch target 2 is not an instruction",
        ],
        [
            "Linking VerifyError: branch to a non-instruction at runtime",
            "Linking VerifyError: branch to a non-instruction at runtime",
            "Linking VerifyError: branch to a non-instruction at runtime",
            "Linking VerifyError: <main> branch target 2 is not an instruction",
            "Linking VerifyError: branch to a non-instruction at runtime",
        ],
    ),
    (
        "TableSwitchInside",
        [
            "Linking VerifyError: <main> branch target 2 is not an instruction",
            "Linking VerifyError: <main> branch target 2 is not an instruction",
            "Linking VerifyError: <main> branch target 2 is not an instruction",
            "Linking VerifyError: <main> branch target 2 is not an instruction",
            "Linking VerifyError: <main> branch target 2 is not an instruction",
        ],
        [
            "Runtime InternalError: execution ran off the code array",
            "Runtime InternalError: execution ran off the code array",
            "Runtime InternalError: execution ran off the code array",
            "Linking VerifyError: <main> branch target 2 is not an instruction",
            "Runtime InternalError: execution ran off the code array",
        ],
    ),
    (
        "LookupSwitchInside",
        [
            "Linking VerifyError: <main> branch target 2 is not an instruction",
            "Linking VerifyError: <main> branch target 2 is not an instruction",
            "Linking VerifyError: <main> branch target 2 is not an instruction",
            "Linking VerifyError: <main> branch target 2 is not an instruction",
            "Linking VerifyError: <main> branch target 2 is not an instruction",
        ],
        [
            "Runtime InternalError: execution ran off the code array",
            "Runtime InternalError: execution ran off the code array",
            "Runtime InternalError: execution ran off the code array",
            "Linking VerifyError: <main> branch target 2 is not an instruction",
            "Runtime InternalError: execution ran off the code array",
        ],
    ),
];

#[test]
fn deferred_facts_surface_as_pinned() {
    let mut observed = Vec::new();
    let mut mismatches = Vec::new();
    for (name, build) in facts() {
        let (as_main, as_extra) = observe(name, build);
        match PINS.iter().find(|(n, ..)| *n == name) {
            Some((_, main_pin, extra_pin)) if *main_pin == *as_main && *extra_pin == *as_extra => {}
            _ => mismatches.push(name),
        }
        observed.push((name, as_main, as_extra));
    }
    if !mismatches.is_empty() {
        for (name, as_main, as_extra) in &observed {
            eprintln!("    ({name:?}, {as_main:?}, {as_extra:?}),");
        }
        panic!("verdicts differ from the pins for {mismatches:?}");
    }
    assert_eq!(PINS.len(), observed.len(), "every pin names a fact");
}
