//! Prepare-once execution: per-method [`PreparedCode`] with branch and
//! switch targets pre-resolved from byte offsets to instruction indices,
//! constant-pool references resolved to symbolic triples, and push
//! constants materialized — built once per `(class, method)` and shared
//! through the [`PreparedTable`] riding on every
//! [`UserClass`](crate::world::UserClass).
//!
//! This is the interpreter's version of the resolve-once/run-many move the
//! harness made for parsing (`preparse`) and the mutator made for lowering
//! (`LowerScratch`): the old execute loop cloned the whole `Code`
//! attribute and constant pool per call, rebuilt a `pc → index` BTreeMap,
//! and cloned every instruction per dispatched step. Preparation does all
//! of that exactly once; the loop then iterates `PInsn`s by reference.
//!
//! Two invariants make the cache safe to share across the five profiles
//! and the async engine:
//!
//! * preparation is a **pure function of the classfile** — it never
//!   consults the [`World`](crate::world::World) or the
//!   [`VmSpec`](crate::spec::VmSpec), so the same `PreparedCode` is
//!   correct under every profile's (different) library generation and
//!   policy knobs. Anything world- or spec-dependent (class existence,
//!   subtype tests, lazy verification, internal-access policy) stays in
//!   the execute loop;
//! * preparation contains **no coverage probes** — every probe the cold
//!   path fired per execution still fires per execution on the prepared
//!   path, so fixed-seed traces are bit-identical whether a method is
//!   prepared fresh or served from the table.
//!
//! Error semantics are deferred, not decided: an unresolvable branch
//! target, member reference, or `ldc` constant becomes a dedicated
//! `PInsn` variant (or a `u32::MAX` sentinel) that raises the exact same
//! error as the cold path — and only if the instruction actually executes
//! (a branch to a non-instruction is an error only when *taken*).

use std::fmt;
use std::sync::{Arc, OnceLock};

use classfuzz_classfile::{Constant, Instruction, MethodDescriptor, Opcode};

use crate::analysis::{index_at, Interner};
use crate::world::UserClass;

/// A member reference resolved to its symbolic `(class, name, descriptor)`
/// triple once, at preparation time. The names are interned per method,
/// so the interpreter keys its name table on them by refcount.
#[derive(Debug)]
pub struct MemberRef {
    /// Referenced class binary name.
    pub class: Arc<str>,
    /// Member name.
    pub name: Arc<str>,
    /// Member descriptor text.
    pub desc: Arc<str>,
}

/// Catch clause of a prepared exception-table entry.
#[derive(Debug)]
pub enum PCatch {
    /// `catch_type == 0`: catches everything.
    All,
    /// Catches subtypes of the named class.
    Class(Arc<str>),
    /// The catch type does not resolve to a class name: never catches.
    Unresolvable,
}

/// A prepared exception-table entry. The protected range stays in byte
/// offsets (matched against the faulting instruction's original pc); the
/// handler target is pre-resolved to an instruction index.
#[derive(Debug)]
pub struct PHandler {
    /// Start of the protected range (byte offset, inclusive).
    pub start_pc: u32,
    /// End of the protected range (byte offset, exclusive).
    pub end_pc: u32,
    /// Handler entry point as an instruction index; `None` when
    /// `handler_pc` lands between instructions (the throw then escapes,
    /// exactly as on the cold path).
    pub handler: Option<u32>,
    /// What the entry catches.
    pub catch: PCatch,
}

/// One prepared instruction. Branch targets are instruction indices
/// (`u32::MAX` = unresolvable, an error only when the branch is taken);
/// switch targets use `insns.len()` as the ran-off-the-code-array
/// sentinel, preserving the cold path's `InternalError` at the next loop
/// head.
#[derive(Debug)]
pub enum PInsn {
    /// An operand-free opcode, executed as before.
    Simple(Opcode),
    /// `bipush` / `sipush` / `ldc` of an `Integer`: push an int.
    PushI(i32),
    /// `ldc2_w` of a `Long`: push a long.
    PushL(i64),
    /// `ldc` of a `Float`: push a float.
    PushF(f32),
    /// `ldc2_w` of a `Double`: push a double.
    PushD(f64),
    /// `ldc` of a `String` (or `Class`, which pushes `"<class>"`): intern
    /// a fresh heap string per execution, exactly like the cold path.
    PushStr(Arc<str>),
    /// `ldc` of anything else: `ClassFormatError` when executed.
    LdcUnusable,
    /// Wide-format local load/store.
    Local(Opcode, u16),
    /// `iinc`.
    Iinc {
        /// Local slot.
        index: u16,
        /// Signed increment.
        delta: i16,
    },
    /// A branch with its target as an instruction index; `u32::MAX` marks
    /// a target that is not an instruction boundary (`VerifyError` only
    /// when taken).
    Branch(Opcode, u32),
    /// A field access with its member reference pre-resolved.
    Field(Opcode, Arc<MemberRef>),
    /// A field access whose constant-pool reference does not resolve:
    /// `NoSuchFieldError` when executed.
    FieldUnresolved,
    /// A method invocation with the reference pre-resolved and the
    /// argument count pre-counted from the parsed descriptor.
    Invoke {
        /// `invokestatic` pops no receiver.
        is_static: bool,
        /// Number of declared parameters to pop.
        nargs: usize,
        /// The symbolic method reference.
        mref: Arc<MemberRef>,
    },
    /// An invocation whose constant-pool reference does not resolve:
    /// `NoSuchMethodError` when executed (checked before the descriptor,
    /// matching cold-path error order).
    InvokeUnresolved,
    /// An invocation whose descriptor does not parse: `NoSuchMethodError`
    /// naming the descriptor when executed.
    InvokeBadDesc(Arc<str>),
    /// `invokedynamic`: unsupported, `UnsatisfiedLinkError` when executed.
    InvokeDynamic,
    /// `new` with the class name pre-resolved (existence and policy checks
    /// stay at runtime — they are world/spec-dependent).
    New(Arc<str>),
    /// `new` of an unresolvable class reference: `NoClassDefFoundError`
    /// when executed.
    NewUnresolved,
    /// `newarray` with its primitive type tag.
    NewArray(u8),
    /// `anewarray` with the element descriptor (`L<name>;`) pre-rendered.
    ANewArray(Arc<str>),
    /// `checkcast` with the target class name pre-resolved.
    CheckCast(Arc<str>),
    /// `instanceof` with the target class name pre-resolved.
    InstanceOf(Arc<str>),
    /// `multianewarray` with its dimension count.
    MultiANewArray(u8),
    /// `tableswitch` with all targets as instruction indices
    /// (`insns.len()` = ran-off sentinel).
    TableSwitch {
        /// Lowest key of the table range.
        low: i32,
        /// Highest key of the table range.
        high: i32,
        /// Per-key targets, as instruction indices.
        targets: Vec<u32>,
        /// Default target, as an instruction index.
        default: u32,
    },
    /// `lookupswitch` with all targets as instruction indices.
    LookupSwitch {
        /// `(key, target-index)` pairs in declaration order.
        pairs: Vec<(i32, u32)>,
        /// Default target, as an instruction index.
        default: u32,
    },
}

/// A method's `Code` attribute, prepared for repeated execution.
#[derive(Debug)]
pub struct PreparedCode {
    /// Operand-stack size to reserve.
    pub max_stack: u16,
    /// Local-variable count to allocate.
    pub max_locals: u16,
    /// The flattened instruction stream.
    pub insns: Vec<PInsn>,
    /// Original byte offset of each instruction (for exception-range
    /// matching against the prepared handler table).
    pub pcs: Vec<u32>,
    /// Prepared exception table, in declaration order.
    pub handlers: Vec<PHandler>,
}

/// Prepares method `method_index` of `class` for execution; `None` when
/// the method has no `Code` attribute (the caller raises the same
/// `AbstractMethodError` the cold path did).
///
/// Pure function of the classfile: no world, no spec, no coverage probes.
pub fn prepare_method(class: &UserClass, method_index: usize) -> Option<PreparedCode> {
    let code = class.cf.methods.get(method_index)?.code()?;
    let cp = &class.cf.constant_pool;
    let mut it = Interner::default();
    let mut member = |class: &str, name: &str, desc: &str| {
        Arc::new(MemberRef {
            class: it.get(class),
            name: it.get(name),
            desc: it.get(desc),
        })
    };

    // Instruction offsets for branch/switch/handler resolution — computed
    // once here instead of per execution.
    let mut pcs = Vec::with_capacity(code.instructions.len());
    let mut pc = 0u32;
    for insn in &code.instructions {
        pcs.push(pc);
        pc += insn.encoded_len(pc);
    }
    // Switch targets that are not instruction boundaries run off the code
    // array, exactly like the cold path's `unwrap_or(instructions.len())`.
    let miss = code.instructions.len() as u32;
    let switch_target = |t: &u32| index_at(&pcs, *t).unwrap_or(miss);

    let insns = code
        .instructions
        .iter()
        .map(|insn| match insn {
            Instruction::Simple(op) => PInsn::Simple(*op),
            Instruction::Bipush(v) => PInsn::PushI(*v as i32),
            Instruction::Sipush(v) => PInsn::PushI(*v as i32),
            Instruction::Ldc(cpi) | Instruction::LdcW(cpi) | Instruction::Ldc2W(cpi) => {
                match cp.entry(*cpi) {
                    Some(Constant::Integer(v)) => PInsn::PushI(*v),
                    Some(Constant::Long(v)) => PInsn::PushL(*v),
                    Some(Constant::Float(v)) => PInsn::PushF(*v),
                    Some(Constant::Double(v)) => PInsn::PushD(*v),
                    Some(Constant::String(s)) => {
                        PInsn::PushStr(cp.utf8_text(*s).unwrap_or_default().into())
                    }
                    Some(Constant::Class(_)) => PInsn::PushStr("<class>".into()),
                    _ => PInsn::LdcUnusable,
                }
            }
            Instruction::Local(op, slot) => PInsn::Local(*op, *slot),
            Instruction::Iinc { index, delta } => PInsn::Iinc {
                index: *index,
                delta: *delta,
            },
            Instruction::Branch(op, target) => {
                PInsn::Branch(*op, index_at(&pcs, *target).unwrap_or(u32::MAX))
            }
            Instruction::Field(op, cpi) => match cp.member_ref_parts_str(*cpi) {
                Some((class, name, desc)) => PInsn::Field(*op, member(class, name, desc)),
                None => PInsn::FieldUnresolved,
            },
            Instruction::Invoke(_, cpi) | Instruction::InvokeInterface { index: cpi, .. } => {
                let is_static = matches!(insn, Instruction::Invoke(Opcode::Invokestatic, _));
                match cp.member_ref_parts_str(*cpi) {
                    Some((class, name, desc)) => match MethodDescriptor::parse(desc) {
                        Ok(d) => PInsn::Invoke {
                            is_static,
                            nargs: d.params.len(),
                            mref: member(class, name, desc),
                        },
                        Err(_) => PInsn::InvokeBadDesc(desc.into()),
                    },
                    None => PInsn::InvokeUnresolved,
                }
            }
            Instruction::InvokeDynamic(_) => PInsn::InvokeDynamic,
            Instruction::New(cpi) => match cp.class_name_str(*cpi) {
                Some(name) => PInsn::New(name.into()),
                None => PInsn::NewUnresolved,
            },
            Instruction::NewArray(atype) => PInsn::NewArray(*atype),
            Instruction::ANewArray(cpi) => {
                let name = cp.class_name_str(*cpi).unwrap_or("java/lang/Object");
                PInsn::ANewArray(format!("L{name};").into())
            }
            Instruction::CheckCast(cpi) => {
                PInsn::CheckCast(cp.class_name_str(*cpi).unwrap_or_default().into())
            }
            Instruction::InstanceOf(cpi) => {
                PInsn::InstanceOf(cp.class_name_str(*cpi).unwrap_or_default().into())
            }
            Instruction::MultiANewArray { dims, .. } => PInsn::MultiANewArray(*dims),
            Instruction::TableSwitch(ts) => PInsn::TableSwitch {
                low: ts.low,
                high: ts.high,
                targets: ts.targets.iter().map(&switch_target).collect(),
                default: switch_target(&ts.default),
            },
            Instruction::LookupSwitch(ls) => PInsn::LookupSwitch {
                pairs: ls
                    .pairs
                    .iter()
                    .map(|(k, t)| (*k, switch_target(t)))
                    .collect(),
                default: switch_target(&ls.default),
            },
        })
        .collect();

    let handlers = code
        .exception_table
        .iter()
        .map(|e| PHandler {
            start_pc: e.start_pc as u32,
            end_pc: e.end_pc as u32,
            handler: index_at(&pcs, e.handler_pc as u32),
            catch: if e.catch_type.0 == 0 {
                PCatch::All
            } else {
                match cp.class_name_str(e.catch_type) {
                    Some(name) => PCatch::Class(name.into()),
                    None => PCatch::Unresolvable,
                }
            },
        })
        .collect();

    Some(PreparedCode {
        max_stack: code.max_stack,
        max_locals: code.max_locals,
        insns,
        pcs,
        handlers,
    })
}

/// The per-class prepared-method table: one lazily-filled slot per
/// classfile method, shared by `Arc` so every clone of a `UserClass`
/// (and every world overlay holding the same preparse handle) sees the
/// same slots. `OnceLock` makes first-preparation race-free under the
/// async engine; content is a pure function of the classfile, so sharing
/// across profiles is sound.
#[derive(Debug, Clone)]
pub struct PreparedTable {
    slots: Arc<Vec<OnceLock<Option<Arc<PreparedCode>>>>>,
}

impl PreparedTable {
    /// A table with one empty slot per classfile method.
    pub fn for_methods(count: usize) -> PreparedTable {
        PreparedTable {
            slots: Arc::new((0..count).map(|_| OnceLock::new()).collect()),
        }
    }

    /// The prepared code for `method_index`, building it on first use.
    /// `None` when the index is out of range or the method has no `Code`
    /// attribute.
    pub fn get_or_prepare(
        &self,
        class: &UserClass,
        method_index: usize,
    ) -> Option<Arc<PreparedCode>> {
        self.slots
            .get(method_index)?
            .get_or_init(|| prepare_method(class, method_index).map(Arc::new))
            .clone()
    }

    /// How many method slots the table has.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the table has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

impl fmt::Display for PreparedTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let filled = self.slots.iter().filter(|s| s.get().is_some()).count();
        write!(f, "PreparedTable({filled}/{} prepared)", self.slots.len())
    }
}
