//! Analyze-once verification: per-method [`MethodAnalysis`] with the
//! descriptor parsed, instructions flattened into a resolution-free
//! [`AInsn`] view (branch and handler targets as instruction indices,
//! constant-pool references resolved to verification facts), built once
//! per `(class, method)` and shared through the [`AnalysisTable`] riding
//! on every [`UserClass`](crate::world::UserClass).
//!
//! This is the verifier's version of the prepare-once move the
//! interpreter made with [`PreparedCode`](crate::prepared::PreparedCode):
//! the old dataflow loop re-laid instruction offsets, re-parsed field and
//! method descriptors, and re-resolved constant-pool entries per profile
//! — all of it profile-invariant. The analysis does that work exactly
//! once; the five profiles' verifiers then iterate `AInsn`s by reference
//! and apply only their `VmSpec`-specific policy judgments.
//!
//! Two invariants make the cache safe to share across the five profiles
//! and the async engine — the same contract `prepare_method` honors:
//!
//! * analysis is a **pure function of the classfile** — it never consults
//!   the [`World`](crate::world::World) or the
//!   [`VmSpec`](crate::spec::VmSpec), so the same `MethodAnalysis` is
//!   correct under every profile's library generation and policy knobs.
//!   Anything world- or spec-dependent (class existence, subtype tests,
//!   merge policy, param-cast strictness) stays in the dataflow loop;
//! * analysis contains **no coverage probes** — every probe the cold
//!   path fired per verification still fires per verification on the
//!   analyzed path, so fixed-seed traces are bit-identical whether a
//!   method is analyzed fresh or served from the table.
//!
//! Error semantics are deferred, not decided: an unresolvable branch
//! target, member reference, or descriptor becomes a dedicated fact
//! variant (or a `u32::MAX` sentinel) that raises the exact same
//! `VerifyError` as the cold path — and only if the dataflow actually
//! reaches the offending instruction (a branch to a non-instruction is
//! an error only when the branch is checked).

use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

use classfuzz_classfile::{ConstIndex, Constant, FieldType, Instruction, MethodDescriptor, Opcode};

use crate::world::UserClass;

/// A verification type (one stack/local slot).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VType {
    /// Unusable/unknown.
    Top,
    /// `int` and its sub-word kin.
    Int,
    /// `float`.
    Float,
    /// `long` (first slot; followed by [`VType::Hi`]).
    Long,
    /// `double` (first slot; followed by [`VType::Hi`]).
    Double,
    /// Second slot of a wide value.
    Hi,
    /// The `null` reference.
    Null,
    /// A reference of the given class (or array descriptor) name. Interned
    /// per analysis: cloning a slot bumps a refcount instead of copying
    /// the name.
    Ref(Arc<str>),
    /// A `new`-allocated object not yet initialized (keyed by allocation pc).
    Uninit(u32),
    /// `this` in an `<init>` before the superclass constructor call.
    UninitThis,
}

impl VType {
    pub(crate) fn is_reference(&self) -> bool {
        matches!(
            self,
            VType::Null | VType::Ref(_) | VType::Uninit(_) | VType::UninitThis
        )
    }

    pub(crate) fn is_uninitialized(&self) -> bool {
        matches!(self, VType::Uninit(_) | VType::UninitThis)
    }

    pub(crate) fn width(&self) -> usize {
        match self {
            VType::Long | VType::Double => 2,
            _ => 1,
        }
    }
}

/// The verification type of a parsed field type (runtime variant: names
/// are freshly allocated, not interned).
pub(crate) fn vtype_of(ft: &FieldType) -> VType {
    match ft {
        FieldType::Boolean
        | FieldType::Byte
        | FieldType::Char
        | FieldType::Short
        | FieldType::Int => VType::Int,
        FieldType::Float => VType::Float,
        FieldType::Long => VType::Long,
        FieldType::Double => VType::Double,
        FieldType::Object(n) => VType::Ref(n.as_str().into()),
        FieldType::Array(_) => VType::Ref(ft.to_descriptor().into()),
    }
}

/// Per-method name interner: repeated class names and descriptors in
/// one method body share a single `Arc<str>`. Lookups borrow the probe
/// text; only a first sighting allocates.
#[derive(Default)]
pub(crate) struct Interner(BTreeSet<Arc<str>>);

impl Interner {
    pub(crate) fn get(&mut self, s: &str) -> Arc<str> {
        if let Some(a) = self.0.get(s) {
            return a.clone();
        }
        let a: Arc<str> = Arc::from(s);
        self.0.insert(a.clone());
        a
    }
}

/// The index of the instruction starting at byte offset `pc`, if any.
/// `pcs` is strictly increasing (every instruction is at least one byte),
/// so a binary search replaces a per-method `pc → index` map.
pub(crate) fn index_at(pcs: &[u32], pc: u32) -> Option<u32> {
    pcs.binary_search(&pc).ok().map(|i| i as u32)
}

/// [`vtype_of`] with names routed through the interner.
fn vtype_of_in(ft: &FieldType, it: &mut Interner) -> VType {
    match ft {
        FieldType::Object(n) => VType::Ref(it.get(n)),
        FieldType::Array(_) => VType::Ref(it.get(&ft.to_descriptor())),
        _ => vtype_of(ft),
    }
}

/// A branch target pre-resolved to an instruction index. `idx ==
/// u32::MAX` marks a target that is not an instruction boundary — a
/// `VerifyError` (naming the original byte offset `pc`) only when the
/// dataflow follows the edge.
#[derive(Debug, Clone, Copy)]
pub struct ATarget {
    /// Target instruction index, or `u32::MAX` when unresolvable.
    pub idx: u32,
    /// The original byte-offset target (for the error message).
    pub pc: u32,
}

/// An analyzed exception-table entry. The protected range stays in byte
/// offsets (matched against each covered instruction's original pc); the
/// handler target is pre-resolved to an instruction index.
#[derive(Debug)]
pub struct AHandler {
    /// Start of the protected range (byte offset, inclusive).
    pub start_pc: u32,
    /// End of the protected range (byte offset, exclusive).
    pub end_pc: u32,
    /// Handler entry point as an instruction index; `None` when
    /// `handler_pc` lands between instructions (a `VerifyError` for every
    /// instruction the range covers, exactly as on the cold path).
    pub handler: Option<u32>,
    /// The caught type pushed on the handler's stack: `java/lang/Throwable`
    /// for `catch_type == 0` or an unresolvable entry, matching the cold
    /// path's fallback.
    pub catch: Arc<str>,
}

/// The method's own signature, pre-lowered to verification types.
#[derive(Debug)]
pub struct ASig {
    /// Parameter types in declaration order.
    pub param_vts: Vec<VType>,
    /// Return type; `None` for `void`.
    pub ret_vt: Option<VType>,
}

/// What an `ldc`/`ldc_w` constant pushes.
#[derive(Debug)]
pub enum ALdc {
    /// An `Integer` entry.
    Int,
    /// A `Float` entry.
    Float,
    /// A `String` or `Class` entry: push the named reference type.
    Ref(Arc<str>),
    /// Anything else: `VerifyError` when the instruction is reached.
    Unusable,
}

/// What an `ldc2_w` constant pushes.
#[derive(Debug)]
pub enum ALdc2 {
    /// A `Long` entry.
    Long,
    /// A `Double` entry.
    Double,
    /// Anything else: `VerifyError` when the instruction is reached.
    Unusable,
}

/// A field reference pre-resolved to its verification fact.
#[derive(Debug)]
pub enum AField {
    /// The declared field type, pre-lowered.
    Ok(VType),
    /// The constant-pool entry is not a member reference: `VerifyError`
    /// naming the entry when the instruction is reached.
    Unresolved(ConstIndex),
    /// The field descriptor does not parse: `VerifyError` naming the
    /// descriptor when the instruction is reached.
    BadDesc(Box<str>),
}

/// A resolved call-site fact for `invoke*`.
#[derive(Debug)]
pub struct ACall {
    /// Referenced class binary name.
    pub class: Arc<str>,
    /// Whether the referenced method is `<init>`.
    pub is_init: bool,
    /// Declared parameter types, pre-lowered, in declaration order.
    pub param_vts: Vec<VType>,
    /// Declared return type; `None` for `void`.
    pub ret_vt: Option<VType>,
}

/// A method reference pre-resolved to its verification fact.
#[derive(Debug)]
pub enum AInvoke {
    /// The resolved call site.
    Ok(Box<ACall>),
    /// The constant-pool entry is not a member reference: `VerifyError`
    /// naming the entry when the instruction is reached.
    Unresolved(ConstIndex),
    /// The method descriptor does not parse: `VerifyError` naming the
    /// descriptor when the instruction is reached.
    BadDesc(Box<str>),
}

/// A class reference pre-resolved to a name (or, for `anewarray`, the
/// pre-rendered array descriptor).
#[derive(Debug)]
pub enum AClass {
    /// The resolved name.
    Ok(Arc<str>),
    /// The constant-pool entry is not a class: `VerifyError` naming the
    /// entry when the instruction is reached.
    Unresolved(ConstIndex),
}

/// The shape of a method invocation, fixed by its opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvokeShape {
    /// `invokevirtual`.
    Virtual,
    /// `invokespecial`.
    Special,
    /// `invokestatic` (no receiver).
    Static,
    /// `invokeinterface`.
    Interface,
}

/// One analyzed instruction: the verifier's transfer function reads these
/// by reference instead of cloning [`Instruction`]s and re-resolving the
/// constant pool per profile.
#[derive(Debug)]
pub enum AInsn {
    /// An operand-free opcode, transferred as before (opcode validity is
    /// still judged in the dataflow, where the error probes live).
    Simple(Opcode),
    /// `bipush` / `sipush`: push an int.
    PushInt,
    /// `ldc` / `ldc_w` with the constant kind pre-resolved.
    Ldc(ALdc),
    /// `ldc2_w` with the constant kind pre-resolved.
    Ldc2(ALdc2),
    /// Wide-format local load/store.
    Local(Opcode, u16),
    /// `iinc` (the delta is irrelevant to verification).
    Iinc(u16),
    /// A branch with its target pre-resolved.
    Branch(Opcode, ATarget),
    /// A field access with its declared type pre-resolved.
    Field(Opcode, AField),
    /// A method invocation: shape from the opcode (`Err` holds a bad
    /// invoke opcode, judged in the dataflow), call fact from the pool.
    Invoke {
        /// The invocation shape, or the offending opcode.
        shape: Result<InvokeShape, Opcode>,
        /// The pre-resolved call-site fact.
        call: AInvoke,
    },
    /// `invokedynamic`: unsupported, `VerifyError` when reached.
    InvokeDynamic,
    /// `new` with the class name pre-resolved (interface-ness is a world
    /// question and stays in the dataflow).
    New(AClass),
    /// `newarray` with the array descriptor pre-rendered (the descriptor
    /// is only read after the dataflow's type-code range check passes).
    NewArray {
        /// The primitive type tag, range-checked in the dataflow.
        atype: u8,
        /// Pre-rendered array descriptor for valid tags.
        desc: Arc<str>,
    },
    /// `anewarray`: `Ok` holds the pre-rendered array descriptor.
    ANewArray(AClass),
    /// `checkcast` with the target class pre-resolved.
    CheckCast(AClass),
    /// `instanceof` with the target class pre-resolved.
    InstanceOf(AClass),
    /// `multianewarray` with its dimension count and result descriptor.
    MultiANewArray {
        /// Dimension count, zero-checked in the dataflow.
        dims: u8,
        /// The pushed result type (`[Ljava/lang/Object;`).
        vt: Arc<str>,
    },
    /// `tableswitch` with all targets pre-resolved.
    TableSwitch {
        /// Default target.
        default: ATarget,
        /// Per-key targets in table order.
        targets: Vec<ATarget>,
    },
    /// `lookupswitch` with all targets pre-resolved.
    LookupSwitch {
        /// Default target.
        default: ATarget,
        /// Pair targets in declaration order (keys are irrelevant to
        /// verification).
        targets: Vec<ATarget>,
    },
}

/// Everything profile-invariant about verifying one method: the facts all
/// five profiles' dataflow runs consume by reference.
#[derive(Debug)]
pub struct MethodAnalysis {
    /// The declaring class's binary name, interned once.
    pub class_name: Arc<str>,
    /// Declared operand-stack limit.
    pub max_stack: u16,
    /// Declared local-variable count.
    pub max_locals: u16,
    /// The flattened instruction stream.
    pub insns: Vec<AInsn>,
    /// Original byte offset of each instruction (for exception-range
    /// matching and `new`'s allocation-pc key).
    pub pcs: Vec<u32>,
    /// Analyzed exception table, in declaration order.
    pub handlers: Vec<AHandler>,
    /// The method's own signature; `None` when the descriptor does not
    /// parse (a `VerifyError` before the dataflow starts).
    pub sig: Option<ASig>,
}

/// Analyzes method `method_index` of `class` for verification; `None`
/// when the method has no `Code` attribute (nothing to verify).
///
/// Pure function of the classfile: no world, no spec, no coverage probes.
pub fn analyze_method(class: &UserClass, method_index: usize) -> Option<MethodAnalysis> {
    let info = class.cf.methods.get(method_index)?;
    let code = info.code()?;
    let cp = &class.cf.constant_pool;
    let mut it = Interner::default();
    let class_name = it.get(&class.name);

    // The method's own descriptor, parsed from the same utf8 text the
    // class summary reads — so `sig` is `Some` exactly when
    // `MethodSummary::desc` is.
    let desc_text = cp.utf8_text(info.descriptor).unwrap_or("");
    let sig = MethodDescriptor::parse(desc_text).ok().map(|d| ASig {
        param_vts: d.params.iter().map(|p| vtype_of_in(p, &mut it)).collect(),
        ret_vt: d.ret.as_ref().map(|r| vtype_of_in(r, &mut it)),
    });

    // Instruction offsets for branch/switch/handler resolution — computed
    // once here instead of once per profile.
    let mut pcs = Vec::with_capacity(code.instructions.len());
    let mut pc = 0u32;
    for insn in &code.instructions {
        pcs.push(pc);
        pc += insn.encoded_len(pc);
    }
    let target = |t: u32| ATarget {
        idx: index_at(&pcs, t).unwrap_or(u32::MAX),
        pc: t,
    };

    let mut insns = Vec::with_capacity(code.instructions.len());
    for insn in &code.instructions {
        insns.push(match insn {
            Instruction::Simple(op) => AInsn::Simple(*op),
            Instruction::Bipush(_) | Instruction::Sipush(_) => AInsn::PushInt,
            Instruction::Ldc(cpi) | Instruction::LdcW(cpi) => AInsn::Ldc(match cp.entry(*cpi) {
                Some(Constant::Integer(_)) => ALdc::Int,
                Some(Constant::Float(_)) => ALdc::Float,
                Some(Constant::String(_)) => ALdc::Ref(it.get("java/lang/String")),
                Some(Constant::Class(_)) => ALdc::Ref(it.get("java/lang/Class")),
                _ => ALdc::Unusable,
            }),
            Instruction::Ldc2W(cpi) => AInsn::Ldc2(match cp.entry(*cpi) {
                Some(Constant::Long(_)) => ALdc2::Long,
                Some(Constant::Double(_)) => ALdc2::Double,
                _ => ALdc2::Unusable,
            }),
            Instruction::Local(op, slot) => AInsn::Local(*op, *slot),
            Instruction::Iinc { index, .. } => AInsn::Iinc(*index),
            Instruction::Branch(op, t) => AInsn::Branch(*op, target(*t)),
            Instruction::Field(op, cpi) => AInsn::Field(
                *op,
                match cp.member_ref_parts_str(*cpi) {
                    Some((_, _, desc)) => match FieldType::parse(desc) {
                        Ok(ft) => AField::Ok(vtype_of_in(&ft, &mut it)),
                        Err(_) => AField::BadDesc(desc.into()),
                    },
                    None => AField::Unresolved(*cpi),
                },
            ),
            Instruction::Invoke(op, cpi) => AInsn::Invoke {
                shape: match op {
                    Opcode::Invokevirtual => Ok(InvokeShape::Virtual),
                    Opcode::Invokespecial => Ok(InvokeShape::Special),
                    Opcode::Invokestatic => Ok(InvokeShape::Static),
                    other => Err(*other),
                },
                call: resolve_call(class, *cpi, &mut it),
            },
            Instruction::InvokeInterface { index, .. } => AInsn::Invoke {
                shape: Ok(InvokeShape::Interface),
                call: resolve_call(class, *index, &mut it),
            },
            Instruction::InvokeDynamic(_) => AInsn::InvokeDynamic,
            Instruction::New(cpi) => AInsn::New(resolve_class(class, *cpi, &mut it)),
            Instruction::NewArray(atype) => AInsn::NewArray {
                atype: *atype,
                desc: it.get(match atype {
                    4 => "[Z",
                    5 => "[C",
                    6 => "[F",
                    7 => "[D",
                    8 => "[B",
                    9 => "[S",
                    10 => "[I",
                    _ => "[J",
                }),
            },
            Instruction::ANewArray(cpi) => AInsn::ANewArray(match cp.class_name_str(*cpi) {
                Some(name) => {
                    let desc = if name.starts_with('[') {
                        format!("[{name}")
                    } else {
                        format!("[L{name};")
                    };
                    AClass::Ok(it.get(&desc))
                }
                None => AClass::Unresolved(*cpi),
            }),
            Instruction::CheckCast(cpi) => AInsn::CheckCast(resolve_class(class, *cpi, &mut it)),
            Instruction::InstanceOf(cpi) => AInsn::InstanceOf(resolve_class(class, *cpi, &mut it)),
            Instruction::MultiANewArray { dims, .. } => AInsn::MultiANewArray {
                dims: *dims,
                vt: it.get("[Ljava/lang/Object;"),
            },
            Instruction::TableSwitch(ts) => AInsn::TableSwitch {
                default: target(ts.default),
                targets: ts.targets.iter().map(|&t| target(t)).collect(),
            },
            Instruction::LookupSwitch(ls) => AInsn::LookupSwitch {
                default: target(ls.default),
                targets: ls.pairs.iter().map(|&(_, t)| target(t)).collect(),
            },
        });
    }

    let handlers = code
        .exception_table
        .iter()
        .map(|e| AHandler {
            start_pc: e.start_pc as u32,
            end_pc: e.end_pc as u32,
            handler: index_at(&pcs, e.handler_pc as u32),
            catch: if e.catch_type.0 == 0 {
                it.get("java/lang/Throwable")
            } else {
                match cp.class_name_str(e.catch_type) {
                    Some(name) => it.get(name),
                    None => it.get("java/lang/Throwable"),
                }
            },
        })
        .collect();

    Some(MethodAnalysis {
        class_name,
        max_stack: code.max_stack,
        max_locals: code.max_locals,
        insns,
        pcs,
        handlers,
        sig,
    })
}

fn resolve_call(class: &UserClass, cpi: ConstIndex, it: &mut Interner) -> AInvoke {
    let cp = &class.cf.constant_pool;
    let Some((cname, name, desc_text)) = cp.member_ref_parts_str(cpi) else {
        return AInvoke::Unresolved(cpi);
    };
    let Ok(desc) = MethodDescriptor::parse(desc_text) else {
        return AInvoke::BadDesc(desc_text.into());
    };
    AInvoke::Ok(Box::new(ACall {
        class: it.get(cname),
        is_init: name == "<init>",
        param_vts: desc.params.iter().map(|p| vtype_of_in(p, it)).collect(),
        ret_vt: desc.ret.as_ref().map(|r| vtype_of_in(r, it)),
    }))
}

fn resolve_class(class: &UserClass, cpi: ConstIndex, it: &mut Interner) -> AClass {
    match class.cf.constant_pool.class_name_str(cpi) {
        Some(n) => AClass::Ok(it.get(n)),
        None => AClass::Unresolved(cpi),
    }
}

/// The per-class analysis table: one lazily-filled slot per classfile
/// method, shared by `Arc` so every clone of a `UserClass` (and every
/// world overlay holding the same preparse handle) sees the same slots.
/// `OnceLock` makes first-analysis race-free under the async engine;
/// content is a pure function of the classfile, so sharing across
/// profiles is sound.
#[derive(Debug, Clone)]
pub struct AnalysisTable {
    slots: Arc<Vec<OnceLock<Option<Arc<MethodAnalysis>>>>>,
}

impl AnalysisTable {
    /// A table with one empty slot per classfile method.
    pub fn for_methods(count: usize) -> AnalysisTable {
        AnalysisTable {
            slots: Arc::new((0..count).map(|_| OnceLock::new()).collect()),
        }
    }

    /// The analysis for `method_index`, building it on first use. `None`
    /// when the index is out of range or the method has no `Code`
    /// attribute.
    pub fn get_or_analyze(
        &self,
        class: &UserClass,
        method_index: usize,
    ) -> Option<Arc<MethodAnalysis>> {
        self.slots
            .get(method_index)?
            .get_or_init(|| analyze_method(class, method_index).map(Arc::new))
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

impl fmt::Display for AnalysisTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let filled = self.slots.iter().filter(|s| s.get().is_some()).count();
        write!(f, "AnalysisTable({filled}/{} analyzed)", self.slots.len())
    }
}
