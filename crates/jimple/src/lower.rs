//! Lowering: assemble an [`IrClass`] into a real classfile.
//!
//! Lowering is **total**: every IR class produces bytes, including IR that a
//! JVM must reject. Opcode selection follows static types; when mutators have
//! made the types inconsistent, the produced bytecode is inconsistent in
//! exactly the same way Soot dumps inconsistent Jimple — which is the point.

use std::borrow::Cow;
use std::sync::LazyLock;

use classfuzz_classfile::attributes::{Attribute, CodeAttribute, ExceptionTableEntry};
use classfuzz_classfile::{
    ClassFile, ConstIndex, ConstantPool, FieldInfo, Instruction, MethodInfo, Opcode,
};
use rustc_hash::FxHashMap;

use crate::class::{Body, IrClass, IrMethod};
use crate::stmt::{BinOp, CondOp, Const, Expr, InvokeExpr, InvokeKind, Label, Stmt, Target, Value};
use crate::types::{write_method_descriptor, JType};

/// A memo of descriptor texts keyed by [`JType`], plus a reusable buffer
/// for method descriptors. Primitives resolve to static strings and never
/// touch the map; reference types are rendered once and reused, so the hot
/// lowering loop stops allocating a fresh `String` per descriptor mention.
#[derive(Debug, Default)]
pub struct DescriptorCache {
    memo: FxHashMap<JType, Box<str>>,
    buf: String,
}

impl DescriptorCache {
    /// Creates an empty cache.
    pub fn new() -> DescriptorCache {
        DescriptorCache::default()
    }

    /// The field-descriptor text of `ty`, cached after the first request.
    pub fn field(&mut self, ty: &JType) -> &str {
        if let Some(s) = ty.static_descriptor() {
            return s;
        }
        if !self.memo.contains_key(ty) {
            let mut s = String::new();
            ty.write_descriptor(&mut s);
            self.memo.insert(ty.clone(), s.into_boxed_str());
        }
        self.memo.get(ty).expect("just inserted")
    }

    /// A method-descriptor text built in the reusable buffer — valid until
    /// the next call.
    pub fn method(&mut self, params: &[JType], ret: Option<&JType>) -> &str {
        self.buf.clear();
        write_method_descriptor(params, ret, &mut self.buf);
        &self.buf
    }
}

/// Reusable buffers for repeated lowering: the constant pool (cleared, not
/// reallocated, between classes), the descriptor memo, and the serializer's
/// body buffer. One per campaign shard; threaded through
/// [`lower_class_bytes`] so the per-iteration lower+serialize step stops
/// paying allocator tax for state that is identical across iterations.
#[derive(Debug, Default)]
pub struct LowerScratch {
    pool: ConstantPool,
    descriptors: DescriptorCache,
    body_buf: Vec<u8>,
}

impl LowerScratch {
    /// Creates an empty scratch.
    pub fn new() -> LowerScratch {
        LowerScratch::default()
    }
}

/// Lowers a whole IR class to a classfile.
pub fn lower_class(class: &IrClass) -> ClassFile {
    lower_class_with(class, ConstantPool::new(), &mut DescriptorCache::new())
}

/// Lowers and serializes in one step, reusing `scratch`'s buffers between
/// calls. Byte-identical to `lower_class(class).to_bytes()`: both paths run
/// the same lowering implementation (so the pools intern the same entries
/// in the same order) and the same body emitter.
pub fn lower_class_bytes(class: &IrClass, scratch: &mut LowerScratch) -> Vec<u8> {
    scratch.pool.clear();
    let pool = std::mem::take(&mut scratch.pool);
    let mut cf = lower_class_with(class, pool, &mut scratch.descriptors);
    let bytes = cf.to_bytes_scratch(&mut scratch.body_buf);
    // Reclaim the pool's allocations for the next iteration.
    scratch.pool = cf.constant_pool;
    bytes
}

/// The single lowering implementation behind both the cold and scratch
/// entry points. `cp` must be empty; ownership keeps the scratch path from
/// cloning it into the returned classfile.
fn lower_class_with(
    class: &IrClass,
    mut cp: ConstantPool,
    descriptors: &mut DescriptorCache,
) -> ClassFile {
    let this_class = cp.class(&class.name);
    let super_class = match &class.super_class {
        Some(name) => cp.class(name),
        None => ConstIndex(0),
    };
    let interfaces: Vec<ConstIndex> = class.interfaces.iter().map(|i| cp.class(i)).collect();

    let mut fields = Vec::with_capacity(class.fields.len());
    for f in &class.fields {
        let name = cp.utf8(&f.name);
        let descriptor = cp.utf8(descriptors.field(&f.ty));
        let mut attributes = Vec::new();
        if let Some(cv) = &f.constant_value {
            if let Some(idx) = const_value_index(&mut cp, cv) {
                attributes.push(Attribute::ConstantValue(idx));
            }
        }
        fields.push(FieldInfo {
            access: f.access,
            name,
            descriptor,
            attributes,
        });
    }

    let mut methods = Vec::with_capacity(class.methods.len());
    for m in &class.methods {
        methods.push(lower_method(m, &mut cp, descriptors));
    }

    ClassFile {
        minor_version: 0,
        major_version: class.major_version,
        constant_pool: cp,
        access: class.access,
        this_class,
        super_class,
        interfaces,
        fields,
        methods,
        attributes: Vec::new(),
    }
}

fn const_value_index(cp: &mut ConstantPool, cv: &Const) -> Option<ConstIndex> {
    Some(match cv {
        Const::Int(v) => cp.integer(*v),
        Const::Long(v) => cp.long(*v),
        Const::Float(v) => cp.float(*v),
        Const::Double(v) => cp.double(*v),
        Const::Str(s) => cp.string(s),
        Const::Null | Const::Class(_) => return None,
    })
}

fn lower_method(
    method: &IrMethod,
    cp: &mut ConstantPool,
    descriptors: &mut DescriptorCache,
) -> MethodInfo {
    let name = cp.utf8(&method.name);
    let descriptor = cp.utf8(descriptors.method(&method.params, method.ret.as_ref()));
    let mut attributes = Vec::new();
    if !method.exceptions.is_empty() {
        let list = method.exceptions.iter().map(|e| cp.class(e)).collect();
        attributes.push(Attribute::Exceptions(list));
    }
    if let Some(body) = &method.body {
        attributes.push(Attribute::Code(lower_body(method, body, cp, descriptors)));
    }
    MethodInfo {
        access: method.access,
        name,
        descriptor,
        attributes,
    }
}

/// The static type of a pushed value. Types the IR spells out are
/// borrowed from the method being lowered (`'m`), and the reference types
/// lowering names on its own from the statics below; only primitives and
/// the types of `new` expressions are owned.
type Ty<'m> = Cow<'m, JType>;

static OBJECT: LazyLock<JType> = LazyLock::new(JType::jobject);
static STRING: LazyLock<JType> = LazyLock::new(JType::string);
static CLASS: LazyLock<JType> = LazyLock::new(|| JType::object("java/lang/Class"));
static THROWABLE: LazyLock<JType> = LazyLock::new(|| JType::object("java/lang/Throwable"));

/// Per-method assembler state. `'m` is the lowered [`IrMethod`]: the
/// assembler borrows its parameter and return types and its local names
/// and types instead of copying them.
struct Asm<'a, 'm> {
    cp: &'a mut ConstantPool,
    descriptors: &'a mut DescriptorCache,
    /// Emitted instructions; `Branch` targets and switch targets hold *label
    /// ids* until `finish` patches them to code offsets.
    insns: Vec<Instruction>,
    /// Label id → index into `insns` of the first instruction after it.
    label_at: FxHashMap<u32, usize>,
    slots: FxHashMap<&'m str, (u16, Ty<'m>)>,
    next_slot: u16,
    depth: i32,
    max_depth: i32,
    is_static: bool,
    params: &'m [JType],
    ret: Option<&'m JType>,
}

fn lower_body<'m>(
    method: &'m IrMethod,
    body: &'m Body,
    cp: &mut ConstantPool,
    descriptors: &mut DescriptorCache,
) -> CodeAttribute {
    let is_static = method
        .access
        .contains(classfuzz_classfile::MethodAccess::STATIC);
    let mut asm = Asm {
        cp,
        descriptors,
        // Most statements lower to one to three instructions.
        insns: Vec::with_capacity(body.stmts.len() * 2),
        label_at: FxHashMap::default(),
        slots: FxHashMap::with_capacity_and_hasher(body.locals.len(), Default::default()),
        next_slot: 0,
        depth: 0,
        max_depth: 0,
        is_static,
        params: &method.params,
        ret: method.ret.as_ref(),
    };
    if !is_static {
        asm.next_slot = 1; // slot 0 = this
    }
    for p in &method.params {
        asm.next_slot += p.slot_width();
    }
    for local in &body.locals {
        let slot = asm.next_slot;
        asm.next_slot += local.ty.slot_width();
        asm.slots
            .insert(&local.name, (slot, Cow::Borrowed(&local.ty)));
    }
    for stmt in &body.stmts {
        asm.stmt(stmt);
    }

    // Two-pass label resolution: compute offsets, then patch targets.
    let mut offsets = Vec::with_capacity(asm.insns.len() + 1);
    let mut pc = 0u32;
    for insn in &asm.insns {
        offsets.push(pc);
        pc += insn.encoded_len(pc);
    }
    offsets.push(pc); // offset just past the last instruction
    let label_pc = |label_id: u32, label_at: &FxHashMap<u32, usize>| -> u32 {
        match label_at.get(&label_id) {
            Some(&idx) => offsets[idx],
            None => 0, // dangling label (mutation artifact): branch to entry
        }
    };
    for insn in &mut asm.insns {
        match insn {
            Instruction::Branch(_, target) => *target = label_pc(*target, &asm.label_at),
            Instruction::TableSwitch(ts) => {
                ts.default = label_pc(ts.default, &asm.label_at);
                for t in &mut ts.targets {
                    *t = label_pc(*t, &asm.label_at);
                }
            }
            Instruction::LookupSwitch(ls) => {
                ls.default = label_pc(ls.default, &asm.label_at);
                for (_, t) in &mut ls.pairs {
                    *t = label_pc(*t, &asm.label_at);
                }
            }
            _ => {}
        }
    }

    let exception_table = body
        .catches
        .iter()
        .map(|c| ExceptionTableEntry {
            start_pc: label_pc(c.start.0, &asm.label_at) as u16,
            end_pc: label_pc(c.end.0, &asm.label_at) as u16,
            handler_pc: label_pc(c.handler.0, &asm.label_at) as u16,
            catch_type: match &c.exception {
                Some(name) => asm.cp.class(name),
                None => ConstIndex(0),
            },
        })
        .collect();

    CodeAttribute {
        max_stack: asm.max_depth.max(0) as u16,
        max_locals: asm.next_slot.max(if is_static { 0 } else { 1 }),
        instructions: asm.insns,
        exception_table,
        attributes: Vec::new(),
    }
}

impl<'m> Asm<'_, 'm> {
    fn emit(&mut self, insn: Instruction) {
        self.insns.push(insn);
    }

    fn push(&mut self, width: u16) {
        self.depth += width as i32;
        self.max_depth = self.max_depth.max(self.depth);
    }

    fn pop(&mut self, width: u16) {
        self.depth -= width as i32;
    }

    /// Slot and declared type of a local; unknown names (dangling after a
    /// mutation) get a fresh reference-typed slot so lowering stays total.
    fn local(&mut self, name: &'m str) -> (u16, Ty<'m>) {
        if let Some((slot, ty)) = self.slots.get(name) {
            return (*slot, ty.clone());
        }
        let slot = self.next_slot;
        self.next_slot += 1;
        self.slots.insert(name, (slot, Cow::Borrowed(&OBJECT)));
        (slot, Cow::Borrowed(&OBJECT))
    }

    fn param_slot(&self, n: u16) -> (u16, Ty<'m>) {
        let mut slot = if self.is_static { 0 } else { 1 };
        for (i, p) in self.params.iter().enumerate() {
            if i as u16 == n {
                return (slot, Cow::Borrowed(p));
            }
            slot += p.slot_width();
        }
        (slot, Cow::Borrowed(&OBJECT)) // out-of-range parameter reference
    }

    /// Pushes a value, returning its static type (`None` = null).
    fn value(&mut self, v: &'m Value) -> Option<Ty<'m>> {
        match v {
            Value::Local(name) => {
                let (slot, ty) = self.local(name);
                self.load_local(slot, &ty);
                Some(ty)
            }
            Value::Const(c) => self.constant(c),
        }
    }

    fn constant(&mut self, c: &Const) -> Option<Ty<'m>> {
        match c {
            Const::Int(v) => {
                let insn = match *v {
                    -1 => Instruction::Simple(Opcode::IconstM1),
                    0 => Instruction::Simple(Opcode::Iconst0),
                    1 => Instruction::Simple(Opcode::Iconst1),
                    2 => Instruction::Simple(Opcode::Iconst2),
                    3 => Instruction::Simple(Opcode::Iconst3),
                    4 => Instruction::Simple(Opcode::Iconst4),
                    5 => Instruction::Simple(Opcode::Iconst5),
                    v if (i8::MIN as i32..=i8::MAX as i32).contains(&v) => {
                        Instruction::Bipush(v as i8)
                    }
                    v if (i16::MIN as i32..=i16::MAX as i32).contains(&v) => {
                        Instruction::Sipush(v as i16)
                    }
                    v => {
                        let idx = self.cp.integer(v);
                        ldc_for(idx)
                    }
                };
                self.emit(insn);
                self.push(1);
                Some(Cow::Owned(JType::Int))
            }
            Const::Long(v) => {
                let insn = match *v {
                    0 => Instruction::Simple(Opcode::Lconst0),
                    1 => Instruction::Simple(Opcode::Lconst1),
                    v => {
                        let idx = self.cp.long(v);
                        Instruction::Ldc2W(idx)
                    }
                };
                self.emit(insn);
                self.push(2);
                Some(Cow::Owned(JType::Long))
            }
            Const::Float(v) => {
                let insn = if v.to_bits() == 0.0f32.to_bits() {
                    Instruction::Simple(Opcode::Fconst0)
                } else if *v == 1.0 {
                    Instruction::Simple(Opcode::Fconst1)
                } else if *v == 2.0 {
                    Instruction::Simple(Opcode::Fconst2)
                } else {
                    let idx = self.cp.float(*v);
                    ldc_for(idx)
                };
                self.emit(insn);
                self.push(1);
                Some(Cow::Owned(JType::Float))
            }
            Const::Double(v) => {
                let insn = if v.to_bits() == 0.0f64.to_bits() {
                    Instruction::Simple(Opcode::Dconst0)
                } else if *v == 1.0 {
                    Instruction::Simple(Opcode::Dconst1)
                } else {
                    let idx = self.cp.double(*v);
                    Instruction::Ldc2W(idx)
                };
                self.emit(insn);
                self.push(2);
                Some(Cow::Owned(JType::Double))
            }
            Const::Str(s) => {
                let idx = self.cp.string(s);
                self.emit(ldc_for(idx));
                self.push(1);
                Some(Cow::Borrowed(&STRING))
            }
            Const::Null => {
                self.emit(Instruction::Simple(Opcode::AconstNull));
                self.push(1);
                None
            }
            Const::Class(name) => {
                let idx = self.cp.class(name);
                self.emit(ldc_for(idx));
                self.push(1);
                Some(Cow::Borrowed(&CLASS))
            }
        }
    }

    fn load_local(&mut self, slot: u16, ty: &JType) {
        let op = match ty {
            t if t.is_int_like() => Opcode::Iload,
            JType::Long => Opcode::Lload,
            JType::Float => Opcode::Fload,
            JType::Double => Opcode::Dload,
            _ => Opcode::Aload,
        };
        self.emit(Instruction::Local(op, slot));
        self.push(ty.slot_width());
    }

    fn store_local(&mut self, slot: u16, ty: &JType) {
        let op = match ty {
            t if t.is_int_like() => Opcode::Istore,
            JType::Long => Opcode::Lstore,
            JType::Float => Opcode::Fstore,
            JType::Double => Opcode::Dstore,
            _ => Opcode::Astore,
        };
        self.emit(Instruction::Local(op, slot));
        self.pop(ty.slot_width());
    }

    /// Emits an expression, returning the static type of the pushed value
    /// (`None` for null; the *store* opcode follows this type).
    fn expr(&mut self, e: &'m Expr) -> Option<Ty<'m>> {
        match e {
            Expr::Use(v) => self.value(v),
            Expr::BinOp(op, ty, a, b) => {
                self.value(a);
                self.value(b);
                self.binop(*op, ty)
            }
            Expr::Neg(ty, v) => {
                self.value(v);
                let op = match ty {
                    JType::Long => Opcode::Lneg,
                    JType::Float => Opcode::Fneg,
                    JType::Double => Opcode::Dneg,
                    _ => Opcode::Ineg,
                };
                self.emit(Instruction::Simple(op));
                Some(Cow::Borrowed(ty))
            }
            Expr::Cast(ty, v) => {
                let from = self.value(v);
                self.cast(from.as_deref(), ty);
                Some(Cow::Borrowed(ty))
            }
            Expr::InstanceOf(class, v) => {
                self.value(v);
                let idx = self.cp.class(class);
                self.emit(Instruction::InstanceOf(idx));
                // pops a ref (1), pushes an int (1): net zero
                Some(Cow::Owned(JType::Int))
            }
            Expr::New(class) => {
                let idx = self.cp.class(class);
                self.emit(Instruction::New(idx));
                self.push(1);
                Some(Cow::Owned(JType::object(class.clone())))
            }
            Expr::NewArray(elem, len) => {
                self.value(len);
                match elem.newarray_code() {
                    Some(code) => self.emit(Instruction::NewArray(code)),
                    None => {
                        let idx = match elem {
                            JType::Object(n) => self.cp.class(n),
                            other => {
                                let name = self.descriptors.field(other);
                                self.cp.class(name)
                            }
                        };
                        self.emit(Instruction::ANewArray(idx));
                    }
                }
                Some(Cow::Owned(JType::array(elem.clone())))
            }
            Expr::ArrayLen(v) => {
                self.value(v);
                self.emit(Instruction::Simple(Opcode::Arraylength));
                Some(Cow::Owned(JType::Int))
            }
            Expr::ArrayLoad(elem, arr, idx) => {
                self.value(arr);
                self.value(idx);
                let op = array_load_op(elem);
                self.emit(Instruction::Simple(op));
                self.pop(2);
                self.push(elem.slot_width());
                Some(Cow::Borrowed(elem))
            }
            Expr::StaticField(class, name, ty) => {
                let desc = self.descriptors.field(ty);
                let idx = self.cp.field_ref(class, name, desc);
                self.emit(Instruction::Field(Opcode::Getstatic, idx));
                self.push(ty.slot_width());
                Some(Cow::Borrowed(ty))
            }
            Expr::InstanceField(recv, class, name, ty) => {
                self.value(recv);
                let desc = self.descriptors.field(ty);
                let idx = self.cp.field_ref(class, name, desc);
                self.emit(Instruction::Field(Opcode::Getfield, idx));
                self.pop(1);
                self.push(ty.slot_width());
                Some(Cow::Borrowed(ty))
            }
            Expr::Invoke(inv) => self.invoke(inv),
            Expr::Param(n) => {
                let (slot, ty) = self.param_slot(*n);
                self.load_local(slot, &ty);
                Some(ty)
            }
            Expr::This => {
                self.emit(Instruction::Local(Opcode::Aload, 0));
                self.push(1);
                Some(Cow::Borrowed(&OBJECT))
            }
            Expr::CaughtException => {
                // The exception object is already on the stack at handler
                // entry; account for it without emitting code.
                self.push(1);
                Some(Cow::Borrowed(&THROWABLE))
            }
        }
    }

    fn binop(&mut self, op: BinOp, ty: &JType) -> Option<Ty<'m>> {
        use BinOp::*;
        use Opcode::*;
        let (insn, result) = match (op, ty) {
            (Cmp, JType::Long) => (Lcmp, JType::Int),
            (Cmp, JType::Float) => (Fcmpl, JType::Int),
            (Cmp, JType::Double) => (Dcmpl, JType::Int),
            (Cmp, _) => (Isub, JType::Int),
            (Add, JType::Long) => (Ladd, JType::Long),
            (Add, JType::Float) => (Fadd, JType::Float),
            (Add, JType::Double) => (Dadd, JType::Double),
            (Add, _) => (Iadd, JType::Int),
            (Sub, JType::Long) => (Lsub, JType::Long),
            (Sub, JType::Float) => (Fsub, JType::Float),
            (Sub, JType::Double) => (Dsub, JType::Double),
            (Sub, _) => (Isub, JType::Int),
            (Mul, JType::Long) => (Lmul, JType::Long),
            (Mul, JType::Float) => (Fmul, JType::Float),
            (Mul, JType::Double) => (Dmul, JType::Double),
            (Mul, _) => (Imul, JType::Int),
            (Div, JType::Long) => (Ldiv, JType::Long),
            (Div, JType::Float) => (Fdiv, JType::Float),
            (Div, JType::Double) => (Ddiv, JType::Double),
            (Div, _) => (Idiv, JType::Int),
            (Rem, JType::Long) => (Lrem, JType::Long),
            (Rem, JType::Float) => (Frem, JType::Float),
            (Rem, JType::Double) => (Drem, JType::Double),
            (Rem, _) => (Irem, JType::Int),
            (And, JType::Long) => (Land, JType::Long),
            (And, _) => (Iand, JType::Int),
            (Or, JType::Long) => (Lor, JType::Long),
            (Or, _) => (Ior, JType::Int),
            (Xor, JType::Long) => (Lxor, JType::Long),
            (Xor, _) => (Ixor, JType::Int),
            (Shl, JType::Long) => (Lshl, JType::Long),
            (Shl, _) => (Ishl, JType::Int),
            (Shr, JType::Long) => (Lshr, JType::Long),
            (Shr, _) => (Ishr, JType::Int),
            (Ushr, JType::Long) => (Lushr, JType::Long),
            (Ushr, _) => (Iushr, JType::Int),
        };
        self.emit(Instruction::Simple(insn));
        // Operand widths were pushed by `value`; net effect: two operands
        // popped, one result pushed.
        self.pop(2 * ty.slot_width());
        self.push(result.slot_width());
        Some(Cow::Owned(result))
    }

    fn cast(&mut self, from: Option<&JType>, to: &JType) {
        if to.is_reference() {
            let idx = match to {
                JType::Object(n) => self.cp.class(n),
                other => {
                    let name = self.descriptors.field(other);
                    self.cp.class(name)
                }
            };
            self.emit(Instruction::CheckCast(idx));
            return;
        }
        let from = match from {
            Some(f) if !f.is_reference() => f.clone(),
            _ => return, // reference-to-primitive "cast": leave as-is
        };
        use Opcode::*;
        let seq: &[Opcode] = match (&from, to) {
            (f, t) if f == t => &[],
            (f, JType::Long) if f.is_int_like() => &[I2l],
            (f, JType::Float) if f.is_int_like() => &[I2f],
            (f, JType::Double) if f.is_int_like() => &[I2d],
            (f, JType::Byte) if f.is_int_like() => &[I2b],
            (f, JType::Char) if f.is_int_like() => &[I2c],
            (f, JType::Short) if f.is_int_like() => &[I2s],
            (f, JType::Int) if f.is_int_like() => &[],
            (f, JType::Boolean) if f.is_int_like() => &[],
            (JType::Long, JType::Int) => &[L2i],
            (JType::Long, JType::Float) => &[L2f],
            (JType::Long, JType::Double) => &[L2d],
            (JType::Long, t) if t.is_int_like() => &[L2i],
            (JType::Float, JType::Int) => &[F2i],
            (JType::Float, JType::Long) => &[F2l],
            (JType::Float, JType::Double) => &[F2d],
            (JType::Float, t) if t.is_int_like() => &[F2i],
            (JType::Double, JType::Int) => &[D2i],
            (JType::Double, JType::Long) => &[D2l],
            (JType::Double, JType::Float) => &[D2f],
            (JType::Double, t) if t.is_int_like() => &[D2i],
            _ => &[],
        };
        for &op in seq {
            self.emit(Instruction::Simple(op));
        }
        self.pop(from.slot_width());
        self.push(to.slot_width());
    }

    fn invoke(&mut self, inv: &'m InvokeExpr) -> Option<Ty<'m>> {
        if let Some(recv) = &inv.receiver {
            self.value(recv);
        }
        for arg in &inv.args {
            self.value(arg);
        }
        let desc = self.descriptors.method(&inv.params, inv.ret.as_ref());
        let arg_width: u16 = inv.params.iter().map(JType::slot_width).sum();
        let recv_width: u16 = if inv.receiver.is_some() { 1 } else { 0 };
        match inv.kind {
            InvokeKind::Virtual => {
                let idx = self.cp.method_ref(&inv.class, &inv.name, desc);
                self.emit(Instruction::Invoke(Opcode::Invokevirtual, idx));
            }
            InvokeKind::Special => {
                let idx = self.cp.method_ref(&inv.class, &inv.name, desc);
                self.emit(Instruction::Invoke(Opcode::Invokespecial, idx));
            }
            InvokeKind::Static => {
                let idx = self.cp.method_ref(&inv.class, &inv.name, desc);
                self.emit(Instruction::Invoke(Opcode::Invokestatic, idx));
            }
            InvokeKind::Interface => {
                let idx = self.cp.interface_method_ref(&inv.class, &inv.name, desc);
                let count = (1 + arg_width) as u8;
                self.emit(Instruction::InvokeInterface { index: idx, count });
            }
        }
        self.pop(arg_width + recv_width);
        if let Some(ret) = &inv.ret {
            self.push(ret.slot_width());
        }
        inv.ret.as_ref().map(Cow::Borrowed)
    }

    fn stmt(&mut self, stmt: &'m Stmt) {
        match stmt {
            Stmt::Assign { target, value } => self.assign(target, value),
            Stmt::Invoke(inv) => {
                let ret = self.invoke(inv);
                if let Some(ty) = ret {
                    let op = if ty.is_wide() {
                        Opcode::Pop2
                    } else {
                        Opcode::Pop
                    };
                    self.emit(Instruction::Simple(op));
                    self.pop(ty.slot_width());
                }
            }
            Stmt::Return(None) => {
                self.emit(Instruction::Simple(Opcode::Return));
            }
            Stmt::Return(Some(v)) => {
                let vty = self.value(v);
                let ty = self.ret.or(vty.as_deref());
                let op = match ty {
                    Some(t) if t.is_int_like() => Opcode::Ireturn,
                    Some(JType::Long) => Opcode::Lreturn,
                    Some(JType::Float) => Opcode::Freturn,
                    Some(JType::Double) => Opcode::Dreturn,
                    _ => Opcode::Areturn,
                };
                self.emit(Instruction::Simple(op));
                self.pop(ty.map_or(1, |t| t.slot_width()));
            }
            Stmt::If { op, a, b, target } => self.branch_if(*op, a, b.as_ref(), *target),
            Stmt::Goto(label) => {
                self.emit(Instruction::Branch(Opcode::Goto, label.0));
            }
            Stmt::Label(label) => {
                self.label_at.insert(label.0, self.insns.len());
            }
            Stmt::Throw(v) => {
                self.value(v);
                self.emit(Instruction::Simple(Opcode::Athrow));
                self.pop(1);
            }
            Stmt::Nop => self.emit(Instruction::Simple(Opcode::Nop)),
            Stmt::EnterMonitor(v) => {
                self.value(v);
                self.emit(Instruction::Simple(Opcode::Monitorenter));
                self.pop(1);
            }
            Stmt::ExitMonitor(v) => {
                self.value(v);
                self.emit(Instruction::Simple(Opcode::Monitorexit));
                self.pop(1);
            }
            Stmt::Switch {
                key,
                cases,
                default,
            } => {
                self.value(key);
                let mut pairs: Vec<(i32, u32)> = cases.iter().map(|(k, l)| (*k, l.0)).collect();
                pairs.sort_by_key(|(k, _)| *k);
                self.emit(Instruction::LookupSwitch(
                    classfuzz_classfile::LookupSwitch {
                        default: default.0,
                        pairs,
                    },
                ));
                self.pop(1);
            }
        }
    }

    fn assign(&mut self, target: &'m Target, value: &'m Expr) {
        match target {
            Target::Local(name) => {
                let ty = self.expr(value);
                // Stores follow the *assigned value's* type; a later load
                // follows the declared type. Type-mutated locals thus become
                // verifier bait, mirroring the paper's Table 2 example.
                let store_ty = ty.unwrap_or(Cow::Borrowed(&OBJECT));
                let (slot, _) = self.local(name);
                self.store_local(slot, &store_ty);
            }
            Target::StaticField(class, name, ty) => {
                let vty = self.expr(value);
                let desc = self.descriptors.field(ty);
                let idx = self.cp.field_ref(class, name, desc);
                self.emit(Instruction::Field(Opcode::Putstatic, idx));
                self.pop(vty.map_or(1, |t| t.slot_width()));
            }
            Target::InstanceField(recv, class, name, ty) => {
                self.value(recv);
                let vty = self.expr(value);
                let desc = self.descriptors.field(ty);
                let idx = self.cp.field_ref(class, name, desc);
                self.emit(Instruction::Field(Opcode::Putfield, idx));
                self.pop(1 + vty.map_or(1, |t| t.slot_width()));
            }
            Target::ArrayElem(elem, arr, idx) => {
                self.value(arr);
                self.value(idx);
                self.expr(value);
                let op = array_store_op(elem);
                self.emit(Instruction::Simple(op));
                self.pop(2 + elem.slot_width());
            }
        }
    }

    fn branch_if(&mut self, op: CondOp, a: &'m Value, b: Option<&'m Value>, target: Label) {
        let aty = self.value(a);
        let aty = aty.as_deref();
        let a_is_ref = aty.is_none_or(JType::is_reference);
        match b {
            None => {
                let insn = if a_is_ref {
                    match op {
                        CondOp::Ne => Opcode::Ifnonnull,
                        _ => Opcode::Ifnull,
                    }
                } else if aty.is_some_and(|t| t.is_wide() || *t == JType::Float) {
                    // Compare wide/float against zero: emit the cmp first.
                    match aty.unwrap_or(&JType::Long) {
                        JType::Long => {
                            self.constant(&Const::Long(0));
                            self.emit(Instruction::Simple(Opcode::Lcmp));
                            self.pop(4);
                            self.push(1);
                        }
                        JType::Float => {
                            self.constant(&Const::Float(0.0));
                            self.emit(Instruction::Simple(Opcode::Fcmpl));
                            self.pop(2);
                            self.push(1);
                        }
                        _ => {
                            self.constant(&Const::Double(0.0));
                            self.emit(Instruction::Simple(Opcode::Dcmpl));
                            self.pop(4);
                            self.push(1);
                        }
                    }
                    zero_if_op(op)
                } else {
                    zero_if_op(op)
                };
                self.emit(Instruction::Branch(insn, target.0));
                self.pop(1);
            }
            Some(b) => {
                let bty = self.value(b);
                let refs = a_is_ref && bty.as_deref().is_none_or(JType::is_reference);
                let wide = aty.is_some_and(|t| t.is_wide()) || matches!(aty, Some(JType::Float));
                if wide {
                    let cmp = match aty {
                        Some(JType::Long) => Opcode::Lcmp,
                        Some(JType::Float) => Opcode::Fcmpl,
                        _ => Opcode::Dcmpl,
                    };
                    let w = aty.map_or(2, |t| t.slot_width());
                    self.emit(Instruction::Simple(cmp));
                    self.pop(2 * w);
                    self.push(1);
                    self.emit(Instruction::Branch(zero_if_op(op), target.0));
                    self.pop(1);
                } else {
                    let insn = if refs {
                        match op {
                            CondOp::Ne => Opcode::IfAcmpne,
                            _ => Opcode::IfAcmpeq,
                        }
                    } else {
                        match op {
                            CondOp::Eq => Opcode::IfIcmpeq,
                            CondOp::Ne => Opcode::IfIcmpne,
                            CondOp::Lt => Opcode::IfIcmplt,
                            CondOp::Ge => Opcode::IfIcmpge,
                            CondOp::Gt => Opcode::IfIcmpgt,
                            CondOp::Le => Opcode::IfIcmple,
                        }
                    };
                    self.emit(Instruction::Branch(insn, target.0));
                    self.pop(2);
                }
            }
        }
    }
}

fn zero_if_op(op: CondOp) -> Opcode {
    match op {
        CondOp::Eq => Opcode::Ifeq,
        CondOp::Ne => Opcode::Ifne,
        CondOp::Lt => Opcode::Iflt,
        CondOp::Ge => Opcode::Ifge,
        CondOp::Gt => Opcode::Ifgt,
        CondOp::Le => Opcode::Ifle,
    }
}

fn ldc_for(idx: ConstIndex) -> Instruction {
    if idx.0 > 0xff {
        Instruction::LdcW(idx)
    } else {
        Instruction::Ldc(idx)
    }
}

fn array_load_op(elem: &JType) -> Opcode {
    match elem {
        JType::Boolean | JType::Byte => Opcode::Baload,
        JType::Char => Opcode::Caload,
        JType::Short => Opcode::Saload,
        JType::Int => Opcode::Iaload,
        JType::Long => Opcode::Laload,
        JType::Float => Opcode::Faload,
        JType::Double => Opcode::Daload,
        _ => Opcode::Aaload,
    }
}

fn array_store_op(elem: &JType) -> Opcode {
    match elem {
        JType::Boolean | JType::Byte => Opcode::Bastore,
        JType::Char => Opcode::Castore,
        JType::Short => Opcode::Sastore,
        JType::Int => Opcode::Iastore,
        JType::Long => Opcode::Lastore,
        JType::Float => Opcode::Fastore,
        JType::Double => Opcode::Dastore,
        _ => Opcode::Aastore,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::{IrField, LocalDecl};
    use classfuzz_classfile::{FieldAccess, MethodAccess};

    #[test]
    fn hello_main_lowering_matches_figure_2_shape() {
        let class = IrClass::with_hello_main("M1436188543", "Completed!");
        let cf = lower_class(&class);
        let m = cf.find_method("main", "([Ljava/lang/String;)V").unwrap();
        let code = m.code().unwrap();
        assert_eq!(code.max_stack, 2);
        // static main with one param + one declared local
        assert_eq!(code.max_locals, 2);
        let ops: Vec<Opcode> = code.instructions.iter().map(|i| i.opcode()).collect();
        assert_eq!(
            ops,
            vec![
                Opcode::Getstatic,
                Opcode::Astore,
                Opcode::Aload,
                Opcode::Ldc,
                Opcode::Invokevirtual,
                Opcode::Return
            ]
        );
    }

    #[test]
    fn labels_resolve_to_offsets() {
        let mut class = IrClass::new("Loop");
        let mut body = Body::new();
        body.declare("i", JType::Int);
        let top = Label(0);
        let done = Label(1);
        body.stmts.extend([
            Stmt::Assign {
                target: Target::Local("i".into()),
                value: Expr::Use(Value::int(0)),
            },
            Stmt::Label(top),
            Stmt::If {
                op: CondOp::Ge,
                a: Value::local("i"),
                b: Some(Value::int(10)),
                target: done,
            },
            Stmt::Assign {
                target: Target::Local("i".into()),
                value: Expr::BinOp(BinOp::Add, JType::Int, Value::local("i"), Value::int(1)),
            },
            Stmt::Goto(top),
            Stmt::Label(done),
            Stmt::Return(None),
        ]);
        class.methods.push(IrMethod {
            access: MethodAccess::PUBLIC | MethodAccess::STATIC,
            name: "run".into(),
            params: vec![],
            ret: None,
            exceptions: vec![],
            body: Some(body),
        });
        let cf = lower_class(&class);
        let code = cf.find_method("run", "()V").unwrap().code().unwrap();
        // Re-encode and re-decode to prove branch targets are valid offsets.
        let bytes = classfuzz_classfile::instruction::encode_code(&code.instructions);
        let decoded = classfuzz_classfile::instruction::decode_code(&bytes).unwrap();
        let starts: Vec<u32> = decoded.iter().map(|(pc, _)| *pc).collect();
        for (_, insn) in &decoded {
            if let Instruction::Branch(_, t) = insn {
                assert!(
                    starts.contains(t),
                    "branch target {t} not an instruction start"
                );
            }
        }
    }

    #[test]
    fn wide_constants_use_ldc2w() {
        let mut class = IrClass::new("Wide");
        let mut body = Body::new();
        body.declare("x", JType::Long);
        body.stmts.push(Stmt::Assign {
            target: Target::Local("x".into()),
            value: Expr::Use(Value::Const(Const::Long(1_000_000_007))),
        });
        body.stmts.push(Stmt::Return(None));
        class.methods.push(IrMethod {
            access: MethodAccess::STATIC,
            name: "go".into(),
            params: vec![],
            ret: None,
            exceptions: vec![],
            body: Some(body),
        });
        let cf = lower_class(&class);
        let code = cf.find_method("go", "()V").unwrap().code().unwrap();
        assert_eq!(code.instructions[0].opcode(), Opcode::Ldc2W);
        assert_eq!(code.max_stack, 2);
    }

    #[test]
    fn constant_value_attribute_for_static_final() {
        let mut class = IrClass::new("Consts");
        class.fields.push(IrField {
            access: FieldAccess::PUBLIC | FieldAccess::STATIC | FieldAccess::FINAL,
            name: "N".into(),
            ty: JType::Int,
            constant_value: Some(Const::Int(42)),
        });
        let cf = lower_class(&class);
        let f = cf.find_field("N").unwrap();
        assert!(f
            .attributes
            .iter()
            .any(|a| matches!(a, Attribute::ConstantValue(_))));
    }

    #[test]
    fn throws_clause_lowered_to_exceptions_attribute() {
        let mut class = IrClass::new("Thrower");
        class.methods.push(IrMethod {
            access: MethodAccess::PUBLIC,
            name: "m".into(),
            params: vec![],
            ret: None,
            exceptions: vec!["java/io/IOException".into()],
            body: None,
        });
        let cf = lower_class(&class);
        let m = cf.find_method("m", "()V").unwrap();
        assert_eq!(m.declared_exceptions().len(), 1);
        assert_eq!(
            cf.constant_pool
                .class_name(m.declared_exceptions()[0])
                .as_deref(),
            Some("java/io/IOException")
        );
    }

    #[test]
    fn bytes_roundtrip_through_reader() {
        let class = IrClass::with_hello_main("RT", "ok");
        let cf = lower_class(&class);
        let bytes = cf.to_bytes();
        let parsed = ClassFile::from_bytes(&bytes).unwrap();
        // Serialization interns attribute-name Utf8s, so compare re-encoded
        // bytes (a fixpoint) rather than the in-memory structures.
        assert_eq!(parsed.to_bytes(), bytes);
        assert_eq!(parsed.methods.len(), cf.methods.len());
        assert_eq!(parsed.this_class_name(), cf.this_class_name());
    }

    #[test]
    fn scratch_lowering_matches_cold_lowering_across_reuse() {
        // A dirty scratch (pool, memo, body buffer all populated by earlier
        // classes) must still produce bytes identical to the cold path.
        let mut scratch = LowerScratch::new();
        let mut consts = IrClass::new("s/Consts");
        consts.fields.push(IrField {
            access: FieldAccess::STATIC | FieldAccess::FINAL,
            name: "N".into(),
            ty: JType::array(JType::Double),
            constant_value: Some(Const::Long(7)),
        });
        let classes = [
            IrClass::with_hello_main("s/A", "Completed!"),
            IrClass::with_hello_main("s/B", "other text"),
            consts,
            IrClass::new("s/Empty"),
        ];
        for class in &classes {
            let cold = lower_class(class).to_bytes();
            assert_eq!(
                lower_class_bytes(class, &mut scratch),
                cold,
                "scratch vs cold mismatch for {}",
                class.name
            );
        }
        // And again, to exercise a fully warmed scratch.
        for class in &classes {
            assert_eq!(
                lower_class_bytes(class, &mut scratch),
                lower_class(class).to_bytes()
            );
        }
    }

    #[test]
    fn undeclared_local_gets_fresh_slot() {
        let mut class = IrClass::new("Dangling");
        let mut body = Body::new();
        body.locals.push(LocalDecl {
            name: "a".into(),
            ty: JType::Int,
        });
        body.stmts.push(Stmt::Assign {
            target: Target::Local("ghost".into()),
            value: Expr::Use(Value::int(1)),
        });
        body.stmts.push(Stmt::Return(None));
        class.methods.push(IrMethod {
            access: MethodAccess::STATIC,
            name: "go".into(),
            params: vec![],
            ret: None,
            exceptions: vec![],
            body: Some(body),
        });
        let cf = lower_class(&class);
        let code = cf.find_method("go", "()V").unwrap().code().unwrap();
        assert!(code.max_locals >= 2);
    }
}
