//! Decode-once method bodies: one [`DecodedMethod`] per `(class, method)`,
//! read by both the verifier and the interpreter and shared through the
//! [`DecodedTable`] riding on every [`UserClass`].
//!
//! Decoding lays out the `Code` attribute exactly once: instruction pcs;
//! branch, switch and handler targets as instruction indices; constant-pool
//! operands resolved to interned names and constants; callee descriptors
//! parsed once and lowered to verification types (whose count is the
//! interpreter's argument count). The method's own signature is lowered
//! from the [`MethodSummary::desc`](crate::world::MethodSummary::desc) the
//! class summary already parsed. The five profiles' verifiers and
//! interpreters then read the [`Insn`] stream by reference and apply only
//! their profile's policy.
//!
//! Two invariants make the table safe to share across the five profiles
//! and every shard:
//!
//! * decoding is a **pure function of the classfile** — it never consults
//!   the class world or the profile, so the same `DecodedMethod` is correct
//!   under every profile's library generation and policy knobs. Anything
//!   world- or profile-dependent (class existence, subtype tests, merge
//!   policy, lazy verification, internal-access policy) stays with the
//!   readers;
//! * decoding fires **no coverage probes** — every probe a reader fires
//!   per verification or execution still fires per call, so fixed-seed
//!   traces are bit-identical whether a method is decoded fresh or served
//!   from the table. A unit test below reads this file and fails on any
//!   probe or profile reference outside it.
//!
//! Errors are deferred, not decided: an operand that does not resolve
//! becomes a fact (an `Unresolved` variant, a `None`, or the
//! [`Target::MISS`] sentinel), and each reader raises its own error only
//! when it reaches the instruction — the verifier when its dataflow checks
//! it, the interpreter when it executes it (a branch to a non-instruction
//! is an error only when taken). DESIGN.md §16 tabulates both readers'
//! errors per fact. Facts only the interpreter reads, and that would cost
//! an allocation on every verified-only method, stay constant-pool indices
//! (the `ldc` string's text).

use std::borrow::Cow;
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
    /// per decoded method: cloning a slot bumps a refcount instead of
    /// copying the name.
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

/// Per-method name interner: repeated class names and descriptors in
/// one method body share a single `Arc<str>`. Lookups borrow the probe
/// text; only a first sighting allocates.
#[derive(Default)]
struct Interner(BTreeSet<Arc<str>>);

impl Interner {
    fn get(&mut self, s: &str) -> Arc<str> {
        if let Some(a) = self.0.get(s) {
            return a.clone();
        }
        let a: Arc<str> = Arc::from(s);
        self.0.insert(a.clone());
        a
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

/// [`vtype_of`] with names routed through the interner.
fn vtype_of_in(ft: &FieldType, it: &mut Interner) -> VType {
    match ft {
        FieldType::Object(n) => VType::Ref(it.get(n)),
        FieldType::Array(_) => VType::Ref(it.get(&ft.to_descriptor())),
        _ => vtype_of(ft),
    }
}

/// A branch or switch target resolved to an instruction index.
#[derive(Debug, Clone, Copy)]
pub struct Target {
    /// Target instruction index, or [`Target::MISS`] when the target
    /// falls between instructions.
    pub idx: u32,
    /// The original byte-offset target (for the verifier's message).
    pub pc: u32,
}

impl Target {
    /// The index of a target that is not an instruction boundary. Past
    /// every instruction, so a switch to it runs off the code array.
    pub const MISS: u32 = u32::MAX;
}

/// What an exception-table entry catches at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Catch {
    /// `catch_type == 0`: catches everything.
    All,
    /// Catches subtypes of the entry's named class.
    Class,
    /// The catch type does not resolve to a class name: never catches.
    Unresolvable,
}

/// A decoded exception-table entry. The protected range stays in byte
/// offsets (matched against each instruction's original pc); the handler
/// target is resolved to an instruction index.
#[derive(Debug, Clone)]
pub struct Handler {
    /// Start of the protected range (byte offset, inclusive).
    pub start_pc: u32,
    /// End of the protected range (byte offset, exclusive).
    pub end_pc: u32,
    /// Handler entry point as an instruction index; `None` when
    /// `handler_pc` lands between instructions.
    pub handler: Option<u32>,
    /// The caught class name: `java/lang/Throwable` unless `catch` is
    /// [`Catch::Class`]. The verifier pushes it on the handler's stack.
    pub caught: Arc<str>,
    /// What the entry catches when the interpreter unwinds through it.
    pub catch: Catch,
}

/// The method's own signature, lowered to verification types.
#[derive(Debug, Clone)]
pub struct Sig {
    /// Parameter types in declaration order.
    pub param_vts: Vec<VType>,
    /// Return type; `None` for `void`.
    pub ret_vt: Option<VType>,
}

/// A member reference resolved to its interned `(class, name,
/// descriptor)` triple. The interpreter keys its name table on these by
/// refcount.
#[derive(Debug, Clone)]
pub struct MemberRef {
    /// Referenced class binary name.
    pub class: Arc<str>,
    /// Member name.
    pub name: Arc<str>,
    /// Member descriptor text.
    pub desc: Arc<str>,
}

/// A resolved field access.
#[derive(Debug, Clone)]
pub struct FieldAccess {
    /// The referenced field.
    pub member: MemberRef,
    /// The declared type, lowered; `None` when the descriptor does not
    /// parse.
    pub vt: Option<VType>,
}

/// A field reference of `get`/`put` `static`/`field`.
#[derive(Debug, Clone)]
pub enum FieldRef {
    /// The resolved access.
    Ok(Box<FieldAccess>),
    /// The constant-pool entry is not a member reference.
    Unresolved(ConstIndex),
}

/// A resolved call site.
#[derive(Debug, Clone)]
pub struct Call {
    /// The referenced method.
    pub member: MemberRef,
    /// Whether the referenced method is `<init>`.
    pub is_init: bool,
    /// Declared parameter types in declaration order; their count is the
    /// number of arguments the interpreter pops.
    pub param_vts: Vec<VType>,
    /// Declared return type; `None` for `void`.
    pub ret_vt: Option<VType>,
}

/// A method reference of an `invoke*`.
#[derive(Debug, Clone)]
pub enum CallRef {
    /// The resolved call site.
    Ok(Box<Call>),
    /// The constant-pool entry is not a member reference.
    Unresolved(ConstIndex),
    /// The method descriptor does not parse.
    BadDesc(Box<str>),
}

/// A class reference of `new`, `anewarray`, `checkcast` or `instanceof`.
#[derive(Debug, Clone)]
pub enum ClassRef {
    /// The resolved name (for `anewarray`, the array descriptor it
    /// creates).
    Ok(Arc<str>),
    /// The constant-pool entry is not a class.
    Unresolved(ConstIndex),
}

/// The constant an `ldc`, `ldc_w` or `ldc2_w` loads.
#[derive(Debug, Clone)]
pub enum Const {
    /// An `Integer` entry.
    Int(i32),
    /// A `Float` entry.
    Float(f32),
    /// A `Long` entry.
    Long(i64),
    /// A `Double` entry.
    Double(f64),
    /// A `String` entry: `ty` is `java/lang/String`, and the interpreter
    /// reads the text from pool entry `utf8` when it executes the load.
    Str {
        /// The pushed reference type.
        ty: Arc<str>,
        /// The entry holding the string's text.
        utf8: ConstIndex,
    },
    /// A `Class` entry: pushes a `java/lang/Class` (the interpreter
    /// models it as the string `"<class>"`).
    Class(Arc<str>),
    /// Any other entry.
    Unusable,
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

/// One decoded instruction.
#[derive(Debug, Clone)]
pub enum Insn {
    /// An operand-free opcode (opcode validity is judged by the readers).
    Simple(Opcode),
    /// `bipush` / `sipush`: push an int.
    PushInt(i32),
    /// `ldc` / `ldc_w`.
    Ldc(Const),
    /// `ldc2_w`.
    Ldc2(Const),
    /// Wide-format local load/store.
    Local(Opcode, u16),
    /// `iinc`.
    Iinc {
        /// Local slot.
        index: u16,
        /// Signed increment.
        delta: i16,
    },
    /// A branch.
    Branch(Opcode, Target),
    /// A field access.
    Field(Opcode, FieldRef),
    /// A method invocation: shape from the opcode (`Err` holds a bad
    /// invoke opcode), call site from the pool.
    Invoke {
        /// The invocation shape, or the offending opcode.
        shape: Result<InvokeShape, Opcode>,
        /// The call site.
        call: CallRef,
    },
    /// `invokedynamic`: unsupported.
    InvokeDynamic,
    /// `new`.
    New(ClassRef),
    /// `newarray`.
    NewArray {
        /// The primitive type tag, range-checked by the verifier.
        atype: u8,
        /// The array descriptor for a valid tag.
        desc: Arc<str>,
    },
    /// `anewarray`: `Ok` holds the created array's descriptor.
    ANewArray(ClassRef),
    /// `checkcast`.
    CheckCast(ClassRef),
    /// `instanceof`.
    InstanceOf(ClassRef),
    /// `multianewarray`.
    MultiANewArray {
        /// Dimension count.
        dims: u8,
        /// The pushed result type (`[Ljava/lang/Object;`).
        vt: Arc<str>,
    },
    /// `tableswitch`.
    TableSwitch {
        /// Lowest key of the table range.
        low: i32,
        /// Highest key of the table range.
        high: i32,
        /// Per-key targets in table order.
        targets: Vec<Target>,
        /// Default target.
        default: Target,
    },
    /// `lookupswitch`.
    LookupSwitch {
        /// Match keys in declaration order.
        keys: Vec<i32>,
        /// The target of each key, in the same order.
        targets: Vec<Target>,
        /// Default target.
        default: Target,
    },
}

/// A method's `Code` attribute, decoded once for verification and
/// execution alike.
#[derive(Debug, Clone)]
pub struct DecodedMethod {
    /// The declaring class's binary name, interned once.
    pub class_name: Arc<str>,
    /// Declared operand-stack limit.
    pub max_stack: u16,
    /// Declared local-variable count.
    pub max_locals: u16,
    /// The instruction stream.
    pub insns: Vec<Insn>,
    /// Original byte offset of each instruction (for exception-range
    /// matching and `new`'s allocation-pc key).
    pub pcs: Vec<u32>,
    /// Decoded exception table, in declaration order.
    pub handlers: Vec<Handler>,
    /// The method's own signature; `None` when its descriptor does not
    /// parse.
    pub sig: Option<Sig>,
}

/// Decodes method `method_index` of `class`; `None` when the method has
/// no `Code` attribute.
///
/// Pure function of the classfile: no class world, no profile, no coverage
/// probes.
pub fn decode_method(class: &UserClass, method_index: usize) -> Option<DecodedMethod> {
    let code = class.cf.methods.get(method_index)?.code()?;
    let cp = &class.cf.constant_pool;
    let mut it = Interner::default();
    let class_name = it.get(&class.name);
    let sig = class.methods[method_index].desc.as_ref().map(|d| Sig {
        param_vts: d.params.iter().map(|p| vtype_of_in(p, &mut it)).collect(),
        ret_vt: d.ret.as_ref().map(|r| vtype_of_in(r, &mut it)),
    });

    let mut pcs = Vec::with_capacity(code.instructions.len());
    let mut pc = 0u32;
    for insn in &code.instructions {
        pcs.push(pc);
        pc += insn.encoded_len(pc);
    }
    // `pcs` is strictly increasing (every instruction is at least one
    // byte), so a binary search replaces a `pc → index` map.
    let index_at = |pc: u32| pcs.binary_search(&pc).ok().map(|i| i as u32);
    let target = |pc: u32| Target {
        idx: index_at(pc).unwrap_or(Target::MISS),
        pc,
    };
    let constant = |cpi: ConstIndex, it: &mut Interner| match cp.entry(cpi) {
        Some(Constant::Integer(v)) => Const::Int(*v),
        Some(Constant::Float(v)) => Const::Float(*v),
        Some(Constant::Long(v)) => Const::Long(*v),
        Some(Constant::Double(v)) => Const::Double(*v),
        Some(Constant::String(utf8)) => Const::Str {
            ty: it.get("java/lang/String"),
            utf8: *utf8,
        },
        Some(Constant::Class(_)) => Const::Class(it.get("java/lang/Class")),
        _ => Const::Unusable,
    };
    let class_ref = |cpi: ConstIndex, it: &mut Interner| match cp.class_name_str(cpi) {
        Some(name) => ClassRef::Ok(it.get(name)),
        None => ClassRef::Unresolved(cpi),
    };
    let member = |(class, name, desc): (&str, &str, &str), it: &mut Interner| MemberRef {
        class: it.get(class),
        name: it.get(name),
        desc: it.get(desc),
    };
    let call = |cpi: ConstIndex, it: &mut Interner| {
        let Some(parts @ (_, name, desc)) = cp.member_ref_parts_str(cpi) else {
            return CallRef::Unresolved(cpi);
        };
        let Ok(d) = MethodDescriptor::parse(desc) else {
            return CallRef::BadDesc(desc.into());
        };
        CallRef::Ok(Box::new(Call {
            member: member(parts, it),
            is_init: name == "<init>",
            param_vts: d.params.iter().map(|p| vtype_of_in(p, it)).collect(),
            ret_vt: d.ret.as_ref().map(|r| vtype_of_in(r, it)),
        }))
    };

    let insns = code
        .instructions
        .iter()
        .map(|insn| match insn {
            Instruction::Simple(op) => Insn::Simple(*op),
            Instruction::Bipush(v) => Insn::PushInt(*v as i32),
            Instruction::Sipush(v) => Insn::PushInt(*v as i32),
            Instruction::Ldc(cpi) | Instruction::LdcW(cpi) => Insn::Ldc(constant(*cpi, &mut it)),
            Instruction::Ldc2W(cpi) => Insn::Ldc2(constant(*cpi, &mut it)),
            Instruction::Local(op, slot) => Insn::Local(*op, *slot),
            Instruction::Iinc { index, delta } => Insn::Iinc {
                index: *index,
                delta: *delta,
            },
            Instruction::Branch(op, t) => Insn::Branch(*op, target(*t)),
            Instruction::Field(op, cpi) => Insn::Field(
                *op,
                match cp.member_ref_parts_str(*cpi) {
                    Some(parts) => FieldRef::Ok(Box::new(FieldAccess {
                        vt: FieldType::parse(parts.2)
                            .ok()
                            .map(|ft| vtype_of_in(&ft, &mut it)),
                        member: member(parts, &mut it),
                    })),
                    None => FieldRef::Unresolved(*cpi),
                },
            ),
            Instruction::Invoke(op, cpi) => Insn::Invoke {
                shape: match op {
                    Opcode::Invokevirtual => Ok(InvokeShape::Virtual),
                    Opcode::Invokespecial => Ok(InvokeShape::Special),
                    Opcode::Invokestatic => Ok(InvokeShape::Static),
                    other => Err(*other),
                },
                call: call(*cpi, &mut it),
            },
            Instruction::InvokeInterface { index, .. } => Insn::Invoke {
                shape: Ok(InvokeShape::Interface),
                call: call(*index, &mut it),
            },
            Instruction::InvokeDynamic(_) => Insn::InvokeDynamic,
            Instruction::New(cpi) => Insn::New(class_ref(*cpi, &mut it)),
            Instruction::NewArray(atype) => Insn::NewArray {
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
            Instruction::ANewArray(cpi) => Insn::ANewArray(match cp.class_name_str(*cpi) {
                Some(name) if name.starts_with('[') => ClassRef::Ok(it.get(&format!("[{name}"))),
                Some(name) => ClassRef::Ok(it.get(&format!("[L{name};"))),
                None => ClassRef::Unresolved(*cpi),
            }),
            Instruction::CheckCast(cpi) => Insn::CheckCast(class_ref(*cpi, &mut it)),
            Instruction::InstanceOf(cpi) => Insn::InstanceOf(class_ref(*cpi, &mut it)),
            Instruction::MultiANewArray { dims, .. } => Insn::MultiANewArray {
                dims: *dims,
                vt: it.get("[Ljava/lang/Object;"),
            },
            Instruction::TableSwitch(ts) => Insn::TableSwitch {
                low: ts.low,
                high: ts.high,
                targets: ts.targets.iter().map(|&t| target(t)).collect(),
                default: target(ts.default),
            },
            Instruction::LookupSwitch(ls) => Insn::LookupSwitch {
                keys: ls.pairs.iter().map(|&(k, _)| k).collect(),
                targets: ls.pairs.iter().map(|&(_, t)| target(t)).collect(),
                default: target(ls.default),
            },
        })
        .collect();

    let handlers = code
        .exception_table
        .iter()
        .map(|e| {
            let named = match e.catch_type.0 {
                0 => None,
                _ => Some(cp.class_name_str(e.catch_type)),
            };
            let (catch, caught) = match named {
                None => (Catch::All, "java/lang/Throwable"),
                Some(Some(name)) => (Catch::Class, name),
                Some(None) => (Catch::Unresolvable, "java/lang/Throwable"),
            };
            Handler {
                start_pc: e.start_pc as u32,
                end_pc: e.end_pc as u32,
                handler: index_at(e.handler_pc as u32),
                caught: it.get(caught),
                catch,
            }
        })
        .collect();

    Some(DecodedMethod {
        class_name,
        max_stack: code.max_stack,
        max_locals: code.max_locals,
        insns,
        pcs,
        handlers,
        sig,
    })
}

/// Method `method_index` of `class`, decoded: borrowed from the class's
/// shared table, or — when `fresh`, the cold twins' path — decoded anew
/// for this call only. `None` when the method has no `Code` attribute.
pub(crate) fn decoded(
    class: &UserClass,
    method_index: usize,
    fresh: bool,
) -> Option<Cow<'_, DecodedMethod>> {
    if fresh {
        decode_method(class, method_index).map(Cow::Owned)
    } else {
        class
            .decoded
            .get_or_decode(class, method_index)
            .map(Cow::Borrowed)
    }
}

/// The per-class decoded-method table: one lazily filled slot per
/// classfile method, shared by `Arc` so every clone of a `UserClass` (and
/// every world overlay holding the same preparse handle) sees the same
/// slots. `OnceLock` makes the first decode race-free across shards;
/// content is a pure function of the classfile, so sharing across
/// profiles is sound.
#[derive(Debug, Clone)]
pub struct DecodedTable {
    slots: Arc<Vec<OnceLock<Option<DecodedMethod>>>>,
}

impl DecodedTable {
    /// A table with one empty slot per classfile method.
    pub fn for_methods(count: usize) -> DecodedTable {
        DecodedTable {
            slots: Arc::new((0..count).map(|_| OnceLock::new()).collect()),
        }
    }

    /// The decoded method `method_index`, decoding it on first use. `None`
    /// when the index is out of range or the method has no `Code`
    /// attribute.
    pub fn get_or_decode<'t>(
        &'t self,
        class: &UserClass,
        method_index: usize,
    ) -> Option<&'t DecodedMethod> {
        self.slots
            .get(method_index)?
            .get_or_init(|| decode_method(class, method_index))
            .as_ref()
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

impl fmt::Display for DecodedTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let filled = self.slots.iter().filter(|s| s.get().is_some()).count();
        write!(f, "DecodedTable({filled}/{} decoded)", self.slots.len())
    }
}

#[cfg(test)]
mod tests {
    /// The table is shared by every profile and shard only because
    /// decoding is a pure function of the classfile that fires no probe:
    /// no line of this module's code above its tests may invoke a probe or
    /// name a profile or a class world.
    #[test]
    fn decoding_fires_no_probe_and_reads_no_profile() {
        let source = include_str!("decode.rs");
        let code = source
            .lines()
            .take_while(|line| line.trim() != "#[cfg(test)]")
            .map(|line| line.split("//").next().unwrap_or(""));
        for (n, line) in code.enumerate() {
            for banned in ["probe!", "probe_branch!", "VmSpec", "World"] {
                assert!(
                    !line.contains(banned),
                    "decode.rs:{}: `{banned}` in the shared decode: {line}",
                    n + 1
                );
            }
        }
    }
}
