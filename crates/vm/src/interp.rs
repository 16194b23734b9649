//! A deterministic bytecode interpreter for the initialization and
//! invocation phases (Table 1, rows 3–4).
//!
//! The interpreter executes only code that has passed (eager or lazy)
//! verification, so it is defensive rather than paranoid: anything
//! inconsistent that slipped through policy-lenient verification surfaces as
//! a runtime rejection, never a Rust panic.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use classfuzz_classfile::{Constant, FieldAccess, FieldType, MethodAccess, Opcode};

use crate::cov::Cov;
use crate::decode::{
    decoded, CallRef, Catch, ClassRef, Const, DecodedMethod, FieldRef, Insn, InvokeShape,
    MemberRef, Target,
};
use crate::library::Behavior;
use crate::outcome::JvmErrorKind;
use crate::spec::VmSpec;
use crate::verifier;
use crate::world::{UserClass, World};
use crate::{probe, probe_branch};

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum RtValue {
    /// `int` and sub-word types.
    Int(i32),
    /// `long`.
    Long(i64),
    /// `float`.
    Float(f32),
    /// `double`.
    Double(f64),
    /// Reference; `None` is `null`.
    Ref(Option<usize>),
}

impl RtValue {
    fn default_of(ft: &FieldType) -> RtValue {
        match ft {
            FieldType::Long => RtValue::Long(0),
            FieldType::Float => RtValue::Float(0.0),
            FieldType::Double => RtValue::Double(0.0),
            FieldType::Object(_) | FieldType::Array(_) => RtValue::Ref(None),
            _ => RtValue::Int(0),
        }
    }

    fn width(&self) -> usize {
        match self {
            RtValue::Long(_) | RtValue::Double(_) => 2,
            _ => 1,
        }
    }
}

/// A heap object.
#[derive(Debug, Clone)]
pub enum Obj {
    /// An instance with per-field storage.
    Instance {
        /// Class binary name.
        class: String,
        /// Field values keyed by the machine's interned `(name,
        /// descriptor)` ids.
        fields: BTreeMap<(u32, u32), RtValue>,
        /// Message slot for Throwable-like objects.
        message: Option<String>,
    },
    /// An interned string.
    Str(String),
    /// A string builder.
    Builder(String),
    /// An array.
    Array {
        /// Element descriptor text.
        elem: String,
        /// Element storage.
        data: Vec<RtValue>,
    },
    /// The shared `System.out` print stream.
    PrintStream,
}

impl Obj {
    /// The object's runtime class name; borrowed except for arrays, whose
    /// names are formatted on demand.
    fn class_name(&self) -> Cow<'_, str> {
        match self {
            Obj::Instance { class, .. } => Cow::Borrowed(class),
            Obj::Str(_) => Cow::Borrowed("java/lang/String"),
            Obj::Builder(_) => Cow::Borrowed("java/lang/StringBuilder"),
            Obj::Array { elem, .. } => Cow::Owned(format!("[{elem}")),
            Obj::PrintStream => Cow::Borrowed("java/io/PrintStream"),
        }
    }
}

/// The heap id of the shared print stream every machine starts with.
const PRINT_STREAM: usize = 0;

/// Whether `class.name:desc` is `System.out` or `System.err`: both read as
/// the shared print stream until a `putstatic` stores over them.
fn is_print_stream_static(class: &str, name: &str, desc: &str) -> bool {
    class == "java/lang/System"
        && (name == "out" || name == "err")
        && desc == "Ljava/io/PrintStream;"
}

/// The per-machine string interner behind the integer-keyed tables.
/// Lookups borrow; a first sighting stores an `Arc<str>`, which for names
/// already interned by the [`DecodedMethod`] — member names and
/// descriptors, and the declaring class's name — is a refcount bump.
#[derive(Default)]
struct Names(BTreeMap<Arc<str>, u32>);

impl Names {
    /// The id of `s`, when it has been interned.
    fn get(&self, s: &str) -> Option<u32> {
        self.0.get(s).copied()
    }

    /// The id of `s`, interning a copy on first sighting.
    fn id(&mut self, s: &str) -> u32 {
        match self.get(s) {
            Some(id) => id,
            None => self.insert(Arc::from(s)),
        }
    }

    /// The id of a shared name, interning the handle on first sighting.
    fn id_shared(&mut self, s: &Arc<str>) -> u32 {
        match self.get(s) {
            Some(id) => id,
            None => self.insert(Arc::clone(s)),
        }
    }

    fn insert(&mut self, s: Arc<str>) -> u32 {
        let id = self.0.len() as u32;
        self.0.insert(s, id);
        id
    }
}

/// A thrown Java exception in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Thrown {
    /// Exception class binary name.
    pub class: String,
    /// Optional message.
    pub message: Option<String>,
}

/// Why execution stopped abnormally.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A Java exception escaped the call being executed.
    Uncaught(Thrown),
    /// A linkage error surfaced during execution (lazy verification,
    /// missing classes, missing members).
    Linkage {
        /// The error classification.
        kind: JvmErrorKind,
        /// Diagnostic text.
        message: String,
    },
    /// The deterministic step budget ran out.
    BudgetExceeded,
}

/// The machine: heap, statics, captured stdout.
pub struct Machine<'a> {
    world: &'a World,
    spec: &'a VmSpec,
    /// Heap storage; indices are [`RtValue::Ref`] payloads.
    pub heap: Vec<Obj>,
    /// Static fields keyed by interned `(class, field, descriptor)` ids.
    /// `System.out`/`err` are not stored: an unset lookup of either reads
    /// the shared print stream (see [`is_print_stream_static`]).
    statics: BTreeMap<(u32, u32, u32), RtValue>,
    /// Captured `System.out` lines.
    pub stdout: Vec<String>,
    steps: u64,
    /// Per-machine string interner backing the integer-keyed tables.
    names: Names,
    /// Methods verified so far (for lazy-verification VMs), by the
    /// interned name of their class and their index in it.
    verified: std::collections::BTreeSet<(u32, usize)>,
    /// Cold mode: decode every method afresh per call instead of reading
    /// the class's shared [`DecodedMethod`] table — the pre-table
    /// interpreter, kept constructible as the `interp` bench scenario's
    /// baseline.
    cold: bool,
}

impl<'a> Machine<'a> {
    /// Creates a machine over `world`.
    pub fn new(world: &'a World, spec: &'a VmSpec) -> Machine<'a> {
        Machine::with_mode(world, spec, false)
    }

    /// A machine that re-decodes every method per call instead of reading
    /// the shared decoded-method table — otherwise [`Machine::new`], kept
    /// constructible (mirroring [`Jvm::uncached`](crate::Jvm::uncached))
    /// as the baseline the `interp` bench scenario and the Criterion
    /// `interp/execute-cold` pair measure against.
    pub fn uncached(world: &'a World, spec: &'a VmSpec) -> Machine<'a> {
        Machine::with_mode(world, spec, true)
    }

    fn with_mode(world: &'a World, spec: &'a VmSpec, cold: bool) -> Machine<'a> {
        // The heap vector is the only allocation: every table starts
        // empty and `System.out`/`err` need no entries.
        Machine {
            world,
            spec,
            // Room for the first few objects a run allocates.
            heap: {
                let mut heap = Vec::with_capacity(8);
                heap.push(Obj::PrintStream);
                heap
            },
            statics: BTreeMap::new(),
            stdout: Vec::new(),
            steps: 0,
            names: Names::default(),
            verified: std::collections::BTreeSet::new(),
            cold,
        }
    }

    /// Fuel consumed so far: one unit per dispatched instruction,
    /// machine-global across `<clinit>`, `main`, and every nested invoke.
    /// After a [`ExecError::BudgetExceeded`] this is exactly
    /// `step_budget + 1` — the charge that tripped the limit — on every
    /// profile, which is what makes `Timeout` verdicts replay-stable.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    fn alloc(&mut self, obj: Obj) -> usize {
        self.heap.push(obj);
        self.heap.len() - 1
    }

    fn intern_str(&mut self, s: &str) -> RtValue {
        RtValue::Ref(Some(self.alloc(Obj::Str(s.to_string()))))
    }

    fn throw(&self, class: &str, message: impl Into<String>) -> ExecError {
        ExecError::Uncaught(Thrown {
            class: class.into(),
            message: Some(message.into()),
        })
    }

    /// Prepares static fields of `class` (zero values, then
    /// `ConstantValue`s) — the preparation step of linking.
    pub fn prepare_statics(&mut self, class: &UserClass) {
        for (field, info) in class.fields().zip(&class.cf.fields) {
            if !field.access.contains(FieldAccess::STATIC) {
                continue;
            }
            let Some(ty) = field.ty else { continue };
            let key = (
                self.names.id(&class.name),
                self.names.id(field.name),
                self.names.id(field.desc_text),
            );
            let mut value = RtValue::default_of(ty);
            // ConstantValue initialization.
            for attr in &info.attributes {
                if let classfuzz_classfile::Attribute::ConstantValue(cpi) = attr {
                    value = match class.cf.constant_pool.entry(*cpi) {
                        Some(Constant::Integer(v)) => RtValue::Int(*v),
                        Some(Constant::Long(v)) => RtValue::Long(*v),
                        Some(Constant::Float(v)) => RtValue::Float(*v),
                        Some(Constant::Double(v)) => RtValue::Double(*v),
                        Some(Constant::String(s)) => match class.cf.constant_pool.utf8_text(*s) {
                            Some(text) => self.intern_str(text),
                            None => RtValue::Ref(None),
                        },
                        _ => value,
                    };
                }
            }
            self.statics.insert(key, value);
        }
    }

    /// Invokes a static method of a user class by name/descriptor.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] for uncaught exceptions, linkage failures
    /// surfaced during execution, or budget exhaustion.
    pub fn call_static(
        &mut self,
        class: &UserClass,
        name: &str,
        desc: &str,
        args: Vec<RtValue>,
        cov: &mut Cov,
    ) -> Result<Option<RtValue>, ExecError> {
        probe!(cov);
        let m = class
            .find_method(name, desc)
            .ok_or_else(|| ExecError::Linkage {
                kind: JvmErrorKind::NoSuchMethodError,
                message: format!("{}.{name}{desc}", class.name),
            })?;
        self.ensure_verified(class, m, cov)?;
        self.execute(class, m.index, args, cov, 0)
    }

    /// Lazy verification (J9): verify a method the first time it is about
    /// to run.
    fn ensure_verified(
        &mut self,
        class: &UserClass,
        m: crate::world::Method<'_>,
        cov: &mut Cov,
    ) -> Result<(), ExecError> {
        if !self.spec.lazy_method_verification {
            return Ok(()); // already verified eagerly at link time
        }
        // Keyed on the method's identity: the decoded method's interned
        // class name (a refcount bump on first sighting, never a copy) and
        // its index. A method without code has nothing to verify and
        // nothing to remember.
        let key = decoded(class, m.index, self.cold)
            .map(|code| (self.names.id_shared(&code.class_name), m.index));
        if key.is_some_and(|key| self.verified.contains(&key)) {
            return Ok(());
        }
        probe!(cov);
        match verifier::verify_method(self.world, class, m, self.spec, cov, self.cold) {
            Ok(()) => {
                self.verified.extend(key);
                Ok(())
            }
            Err(outcome) => {
                let (kind, message) = match outcome.error() {
                    Some(e) => (e.kind, e.message.clone()),
                    None => (JvmErrorKind::VerifyError, "verification failed".into()),
                };
                Err(ExecError::Linkage { kind, message })
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn execute(
        &mut self,
        class: &UserClass,
        method_index: usize,
        args: Vec<RtValue>,
        cov: &mut Cov,
        depth: usize,
    ) -> Result<Option<RtValue>, ExecError> {
        probe!(cov);
        // The limit is conservative: interpreter frames are large, and the
        // VM must raise Java's StackOverflowError long before it risks the
        // host thread's stack (test threads default to 2 MiB).
        if probe_branch!(cov, depth > 24) {
            return Err(self.throw("java/lang/StackOverflowError", "recursion too deep"));
        }
        // The class's shared table: the first verification or execution
        // of a `(class, method)` decodes it, every later call — any
        // profile, any nesting depth, any exec-diff rerun over the same
        // preparse handle — is a lookup. Cold mode decodes per call.
        let Some(code) = decoded(class, method_index, self.cold) else {
            return Err(ExecError::Linkage {
                kind: JvmErrorKind::AbstractMethodError,
                message: format!("{} has no code", class.name),
            });
        };

        // Locals.
        let mut locals: Vec<RtValue> = vec![RtValue::Int(0); code.max_locals as usize + 4];
        let mut slot = 0usize;
        for a in args {
            let w = a.width();
            if slot < locals.len() {
                locals[slot] = a;
            }
            slot += w;
        }
        let mut stack: Vec<RtValue> = Vec::with_capacity(code.max_stack as usize + 4);

        let mut idx = 0usize;
        loop {
            // Fuel invariant: this loop head is the ONLY place fuel is
            // charged, and every control transfer — backward branches,
            // switch targets, exception-handler dispatch (`rt_throw!` and
            // the Uncaught arms below), and returns from nested `execute`
            // calls (which run this same loop on the shared machine-global
            // counter) — flows back through it before the next instruction
            // dispatches. One charge per dispatched instruction therefore
            // covers every backward branch and every invoke; no code path
            // can execute without paying. `tests/interp_conformance.rs`
            // pins this with a `goto`-only loop.
            self.steps += 1;
            if probe_branch!(cov, self.steps > self.spec.step_budget) {
                return Err(ExecError::BudgetExceeded);
            }
            if idx >= code.insns.len() {
                return Err(ExecError::Linkage {
                    kind: JvmErrorKind::InternalError,
                    message: "execution ran off the code array".into(),
                });
            }
            let cur_pc = code.pcs[idx];

            macro_rules! rt_throw {
                ($class:expr, $msg:expr) => {{
                    let thrown = Thrown {
                        class: $class.to_string(),
                        message: Some($msg.to_string()),
                    };
                    match self.find_handler(&code, cur_pc, &thrown) {
                        Some(handler_idx) => {
                            let exc_class = thrown.class.clone();
                            let obj = self.alloc(Obj::Instance {
                                class: exc_class,
                                fields: BTreeMap::new(),
                                message: thrown.message.clone(),
                            });
                            stack.clear();
                            stack.push(RtValue::Ref(Some(obj)));
                            idx = handler_idx;
                            continue;
                        }
                        None => return Err(ExecError::Uncaught(thrown)),
                    }
                }};
            }

            macro_rules! pop {
                () => {
                    match stack.pop() {
                        Some(v) => v,
                        None => {
                            return Err(ExecError::Linkage {
                                kind: JvmErrorKind::InternalError,
                                message: "runtime stack underflow".into(),
                            })
                        }
                    }
                };
            }
            macro_rules! pop_int {
                () => {
                    match pop!() {
                        RtValue::Int(v) => v,
                        other => coerce_int(other),
                    }
                };
            }

            let mut next = idx + 1;
            // No per-step clone: the match borrows the decoded instruction
            // in place (the code borrows the class, not the machine, so
            // the borrow never conflicts with `&mut self` calls).
            match &code.insns[idx] {
                Insn::Simple(op) => {
                    use Opcode::*;
                    match op {
                        Nop => {}
                        AconstNull => stack.push(RtValue::Ref(None)),
                        IconstM1 | Iconst0 | Iconst1 | Iconst2 | Iconst3 | Iconst4 | Iconst5 => {
                            stack.push(RtValue::Int(op.byte() as i32 - Iconst0.byte() as i32))
                        }
                        Lconst0 | Lconst1 => {
                            stack.push(RtValue::Long((op.byte() - Lconst0.byte()) as i64))
                        }
                        Fconst0 | Fconst1 | Fconst2 => {
                            stack.push(RtValue::Float((op.byte() - Fconst0.byte()) as f32))
                        }
                        Dconst0 | Dconst1 => {
                            stack.push(RtValue::Double((op.byte() - Dconst0.byte()) as f64))
                        }
                        Iload0 | Iload1 | Iload2 | Iload3 => {
                            stack.push(locals[(op.byte() - Iload0.byte()) as usize].clone())
                        }
                        Lload0 | Lload1 | Lload2 | Lload3 => {
                            stack.push(locals[(op.byte() - Lload0.byte()) as usize].clone())
                        }
                        Fload0 | Fload1 | Fload2 | Fload3 => {
                            stack.push(locals[(op.byte() - Fload0.byte()) as usize].clone())
                        }
                        Dload0 | Dload1 | Dload2 | Dload3 => {
                            stack.push(locals[(op.byte() - Dload0.byte()) as usize].clone())
                        }
                        Aload0 | Aload1 | Aload2 | Aload3 => {
                            stack.push(locals[(op.byte() - Aload0.byte()) as usize].clone())
                        }
                        Istore0 | Istore1 | Istore2 | Istore3 => {
                            locals[(op.byte() - Istore0.byte()) as usize] = pop!()
                        }
                        Lstore0 | Lstore1 | Lstore2 | Lstore3 => {
                            locals[(op.byte() - Lstore0.byte()) as usize] = pop!()
                        }
                        Fstore0 | Fstore1 | Fstore2 | Fstore3 => {
                            locals[(op.byte() - Fstore0.byte()) as usize] = pop!()
                        }
                        Dstore0 | Dstore1 | Dstore2 | Dstore3 => {
                            locals[(op.byte() - Dstore0.byte()) as usize] = pop!()
                        }
                        Astore0 | Astore1 | Astore2 | Astore3 => {
                            locals[(op.byte() - Astore0.byte()) as usize] = pop!()
                        }
                        Pop => {
                            pop!();
                        }
                        Pop2 => {
                            let v = pop!();
                            if v.width() == 1 {
                                pop!();
                            }
                        }
                        Dup => {
                            let v = pop!();
                            stack.push(v.clone());
                            stack.push(v);
                        }
                        DupX1 => {
                            let a = pop!();
                            let b = pop!();
                            stack.push(a.clone());
                            stack.push(b);
                            stack.push(a);
                        }
                        Dup2 => {
                            let a = pop!();
                            if a.width() == 2 {
                                stack.push(a.clone());
                                stack.push(a);
                            } else {
                                let b = pop!();
                                stack.push(b.clone());
                                stack.push(a.clone());
                                stack.push(b);
                                stack.push(a);
                            }
                        }
                        Swap => {
                            let a = pop!();
                            let b = pop!();
                            stack.push(a);
                            stack.push(b);
                        }
                        DupX2 => {
                            // Insert a category-1 value beneath two slots.
                            let a = pop!();
                            let b = pop!();
                            if b.width() == 2 {
                                stack.push(a.clone());
                                stack.push(b);
                                stack.push(a);
                            } else {
                                let c = pop!();
                                stack.push(a.clone());
                                stack.push(c);
                                stack.push(b);
                                stack.push(a);
                            }
                        }
                        Dup2X1 => {
                            // Duplicate two slots beneath one category-1 slot.
                            let a = pop!();
                            if a.width() == 2 {
                                let b = pop!();
                                stack.push(a.clone());
                                stack.push(b);
                                stack.push(a);
                            } else {
                                let b = pop!();
                                let c = pop!();
                                stack.push(b.clone());
                                stack.push(a.clone());
                                stack.push(c);
                                stack.push(b);
                                stack.push(a);
                            }
                        }
                        Dup2X2 => {
                            // Duplicate the top two slots beneath the next
                            // two slots, in all four JVMS §6.5 forms.
                            let mut top = vec![pop!()];
                            if top[0].width() == 1 {
                                top.insert(0, pop!());
                            }
                            let mut under = vec![pop!()];
                            if under[0].width() == 1 {
                                under.insert(0, pop!());
                            }
                            for v in &top {
                                stack.push(v.clone());
                            }
                            for v in &under {
                                stack.push(v.clone());
                            }
                            for v in &top {
                                stack.push(v.clone());
                            }
                        }
                        Iadd | Isub | Imul | Iand | Ior | Ixor | Ishl | Ishr | Iushr => {
                            let b = pop_int!();
                            let a = pop_int!();
                            stack.push(RtValue::Int(int_arith(*op, a, b)));
                        }
                        Idiv | Irem => {
                            let b = pop_int!();
                            let a = pop_int!();
                            if probe_branch!(cov, b == 0) {
                                rt_throw!("java/lang/ArithmeticException", "/ by zero");
                            }
                            stack.push(RtValue::Int(int_arith(*op, a, b)));
                        }
                        Ladd | Lsub | Lmul | Land | Lor | Lxor | Lshl | Lshr | Lushr => {
                            let b = coerce_long(pop!());
                            let a = coerce_long(pop!());
                            stack.push(RtValue::Long(long_arith(*op, a, b)));
                        }
                        Ldiv | Lrem => {
                            let b = coerce_long(pop!());
                            let a = coerce_long(pop!());
                            if probe_branch!(cov, b == 0) {
                                rt_throw!("java/lang/ArithmeticException", "/ by zero");
                            }
                            stack.push(RtValue::Long(long_arith(*op, a, b)));
                        }
                        Fadd | Fsub | Fmul | Fdiv | Frem => {
                            let b = coerce_float(pop!());
                            let a = coerce_float(pop!());
                            stack.push(RtValue::Float(float_arith(*op, a, b)));
                        }
                        Dadd | Dsub | Dmul | Ddiv | Drem => {
                            let b = coerce_double(pop!());
                            let a = coerce_double(pop!());
                            stack.push(RtValue::Double(double_arith(*op, a, b)));
                        }
                        Ineg => {
                            let a = pop_int!();
                            stack.push(RtValue::Int(a.wrapping_neg()));
                        }
                        Lneg => {
                            let a = coerce_long(pop!());
                            stack.push(RtValue::Long(a.wrapping_neg()));
                        }
                        Fneg => {
                            let a = coerce_float(pop!());
                            stack.push(RtValue::Float(-a));
                        }
                        Dneg => {
                            let a = coerce_double(pop!());
                            stack.push(RtValue::Double(-a));
                        }
                        I2l => {
                            let a = pop_int!();
                            stack.push(RtValue::Long(a as i64));
                        }
                        I2f => {
                            let a = pop_int!();
                            stack.push(RtValue::Float(a as f32));
                        }
                        I2d => {
                            let a = pop_int!();
                            stack.push(RtValue::Double(a as f64));
                        }
                        L2i => {
                            let a = coerce_long(pop!());
                            stack.push(RtValue::Int(a as i32));
                        }
                        L2f => {
                            let a = coerce_long(pop!());
                            stack.push(RtValue::Float(a as f32));
                        }
                        L2d => {
                            let a = coerce_long(pop!());
                            stack.push(RtValue::Double(a as f64));
                        }
                        F2i => {
                            let a = coerce_float(pop!());
                            stack.push(RtValue::Int(a as i32));
                        }
                        F2l => {
                            let a = coerce_float(pop!());
                            stack.push(RtValue::Long(a as i64));
                        }
                        F2d => {
                            let a = coerce_float(pop!());
                            stack.push(RtValue::Double(a as f64));
                        }
                        D2i => {
                            let a = coerce_double(pop!());
                            stack.push(RtValue::Int(a as i32));
                        }
                        D2l => {
                            let a = coerce_double(pop!());
                            stack.push(RtValue::Long(a as i64));
                        }
                        D2f => {
                            let a = coerce_double(pop!());
                            stack.push(RtValue::Float(a as f32));
                        }
                        I2b => {
                            let a = pop_int!();
                            stack.push(RtValue::Int(a as i8 as i32));
                        }
                        I2c => {
                            let a = pop_int!();
                            stack.push(RtValue::Int(a as u16 as i32));
                        }
                        I2s => {
                            let a = pop_int!();
                            stack.push(RtValue::Int(a as i16 as i32));
                        }
                        Lcmp => {
                            let b = coerce_long(pop!());
                            let a = coerce_long(pop!());
                            stack.push(RtValue::Int(match a.cmp(&b) {
                                std::cmp::Ordering::Less => -1,
                                std::cmp::Ordering::Equal => 0,
                                std::cmp::Ordering::Greater => 1,
                            }));
                        }
                        Fcmpl | Fcmpg => {
                            let b = coerce_float(pop!());
                            let a = coerce_float(pop!());
                            let nan = if *op == Fcmpg { 1 } else { -1 };
                            stack.push(RtValue::Int(cmp_float(a as f64, b as f64, nan)));
                        }
                        Dcmpl | Dcmpg => {
                            let b = coerce_double(pop!());
                            let a = coerce_double(pop!());
                            let nan = if *op == Dcmpg { 1 } else { -1 };
                            stack.push(RtValue::Int(cmp_float(a, b, nan)));
                        }
                        Ireturn | Lreturn | Freturn | Dreturn | Areturn => {
                            return Ok(Some(pop!()));
                        }
                        Return => return Ok(None),
                        Arraylength => {
                            let r = pop!();
                            match self.deref_array(&r) {
                                Some(len) => stack.push(RtValue::Int(len as i32)),
                                None => rt_throw!(
                                    "java/lang/NullPointerException",
                                    "arraylength on null"
                                ),
                            }
                        }
                        Iaload | Laload | Faload | Daload | Aaload | Baload | Caload | Saload => {
                            let i = pop_int!();
                            let arr = pop!();
                            match self.array_get(&arr, i) {
                                Ok(v) => stack.push(v),
                                Err(t) => rt_throw!(t.class, t.message.unwrap_or_default()),
                            }
                        }
                        Iastore | Lastore | Fastore | Dastore | Aastore | Bastore | Castore
                        | Sastore => {
                            let v = pop!();
                            let i = pop_int!();
                            let arr = pop!();
                            if let Err(t) = self.array_set(&arr, i, v) {
                                rt_throw!(t.class, t.message.unwrap_or_default());
                            }
                        }
                        Athrow => {
                            let r = pop!();
                            let thrown = self.thrown_from(&r);
                            match self.find_handler(&code, cur_pc, &thrown) {
                                Some(h) => {
                                    stack.clear();
                                    stack.push(r);
                                    idx = h;
                                    continue;
                                }
                                None => return Err(ExecError::Uncaught(thrown)),
                            }
                        }
                        Monitorenter | Monitorexit => {
                            let r = pop!();
                            if matches!(r, RtValue::Ref(None)) {
                                rt_throw!("java/lang/NullPointerException", "monitor on null");
                            }
                        }
                        other => {
                            return Err(ExecError::Linkage {
                                kind: JvmErrorKind::InternalError,
                                message: format!("interpreter cannot execute {other}"),
                            })
                        }
                    }
                }
                Insn::PushInt(v) => stack.push(RtValue::Int(*v)),
                Insn::Ldc(value) | Insn::Ldc2(value) => match value {
                    Const::Int(v) => stack.push(RtValue::Int(*v)),
                    Const::Long(v) => stack.push(RtValue::Long(*v)),
                    Const::Float(v) => stack.push(RtValue::Float(*v)),
                    Const::Double(v) => stack.push(RtValue::Double(*v)),
                    Const::Str { utf8, .. } => {
                        // Interned into the heap per execution (each run
                        // gets a fresh heap id), so the text is read from
                        // the pool here rather than copied at decode.
                        let text = class.cf.constant_pool.utf8_text(*utf8);
                        let v = self.intern_str(text.unwrap_or_default());
                        stack.push(v);
                    }
                    Const::Class(_) => {
                        let v = self.intern_str("<class>");
                        stack.push(v);
                    }
                    Const::Unusable => {
                        return Err(ExecError::Linkage {
                            kind: JvmErrorKind::ClassFormatError,
                            message: "ldc of unusable constant".into(),
                        })
                    }
                },
                Insn::Local(op, slot) => {
                    let slot = *slot as usize;
                    if slot >= locals.len() {
                        return Err(ExecError::Linkage {
                            kind: JvmErrorKind::InternalError,
                            message: "local slot out of range at runtime".into(),
                        });
                    }
                    match op {
                        Opcode::Iload
                        | Opcode::Lload
                        | Opcode::Fload
                        | Opcode::Dload
                        | Opcode::Aload => stack.push(locals[slot].clone()),
                        Opcode::Istore
                        | Opcode::Lstore
                        | Opcode::Fstore
                        | Opcode::Dstore
                        | Opcode::Astore => locals[slot] = pop!(),
                        other => {
                            return Err(ExecError::Linkage {
                                kind: JvmErrorKind::InternalError,
                                message: format!("unexpected local opcode {other}"),
                            })
                        }
                    }
                }
                Insn::Iinc { index, delta } => {
                    let slot = *index as usize;
                    if let Some(RtValue::Int(v)) = locals.get(slot) {
                        locals[slot] = RtValue::Int(v.wrapping_add(*delta as i32));
                    }
                }
                Insn::Branch(op, target) => {
                    use Opcode::*;
                    let jump = match op {
                        Goto | GotoW => true,
                        Ifeq => pop_int!() == 0,
                        Ifne => pop_int!() != 0,
                        Iflt => pop_int!() < 0,
                        Ifge => pop_int!() >= 0,
                        Ifgt => pop_int!() > 0,
                        Ifle => pop_int!() <= 0,
                        Ifnull => matches!(pop!(), RtValue::Ref(None)),
                        Ifnonnull => !matches!(pop!(), RtValue::Ref(None)),
                        IfIcmpeq | IfIcmpne | IfIcmplt | IfIcmpge | IfIcmpgt | IfIcmple => {
                            let b = pop_int!();
                            let a = pop_int!();
                            match op {
                                IfIcmpeq => a == b,
                                IfIcmpne => a != b,
                                IfIcmplt => a < b,
                                IfIcmpge => a >= b,
                                IfIcmpgt => a > b,
                                _ => a <= b,
                            }
                        }
                        IfAcmpeq | IfAcmpne => {
                            let b = pop!();
                            let a = pop!();
                            let eq = a == b;
                            if *op == IfAcmpeq {
                                eq
                            } else {
                                !eq
                            }
                        }
                        _ => {
                            return Err(ExecError::Linkage {
                                kind: JvmErrorKind::InternalError,
                                message: format!("unexpected branch opcode {op}"),
                            })
                        }
                    };
                    probe_branch!(cov, jump);
                    if jump {
                        // The unresolvable-target sentinel errors only
                        // when the branch is actually taken, as before.
                        if target.idx == Target::MISS {
                            return Err(ExecError::Linkage {
                                kind: JvmErrorKind::VerifyError,
                                message: "branch to a non-instruction at runtime".into(),
                            });
                        }
                        next = target.idx as usize;
                    }
                }
                Insn::Field(_, FieldRef::Unresolved(_)) => {
                    return Err(ExecError::Linkage {
                        kind: JvmErrorKind::NoSuchFieldError,
                        message: "unresolvable field reference".into(),
                    });
                }
                Insn::Field(op, FieldRef::Ok(access)) => {
                    let mref = &access.member;
                    match op {
                        Opcode::Getstatic => {
                            match self.resolve_static(&mref.class, &mref.name, &mref.desc, cov) {
                                Ok(v) => stack.push(v),
                                Err(e) => return Err(e),
                            }
                        }
                        Opcode::Putstatic => {
                            let v = pop!();
                            if !self.world.exists(&mref.class) {
                                return Err(ExecError::Linkage {
                                    kind: JvmErrorKind::NoClassDefFoundError,
                                    message: mref.class.to_string(),
                                });
                            }
                            let key = (
                                self.names.id_shared(&mref.class),
                                self.names.id_shared(&mref.name),
                                self.names.id_shared(&mref.desc),
                            );
                            self.statics.insert(key, v);
                        }
                        Opcode::Getfield => {
                            let r = pop!();
                            match &r {
                                RtValue::Ref(Some(id)) => {
                                    let v = self.instance_field(*id, &mref.name, &mref.desc);
                                    stack.push(v);
                                }
                                _ => rt_throw!(
                                    "java/lang/NullPointerException",
                                    format!("getfield {} on null", mref.name)
                                ),
                            }
                        }
                        Opcode::Putfield => {
                            let v = pop!();
                            let r = pop!();
                            match r {
                                RtValue::Ref(Some(id)) => {
                                    let key = (
                                        self.names.id_shared(&mref.name),
                                        self.names.id_shared(&mref.desc),
                                    );
                                    if let Obj::Instance { fields, .. } = &mut self.heap[id] {
                                        fields.insert(key, v);
                                    }
                                }
                                _ => rt_throw!(
                                    "java/lang/NullPointerException",
                                    format!("putfield {} on null", mref.name)
                                ),
                            }
                        }
                        _ => unreachable!("Field covers the four field opcodes"),
                    }
                }
                Insn::Invoke { shape, call } => {
                    let call = match call {
                        CallRef::Ok(call) => call,
                        CallRef::Unresolved(_) => {
                            return Err(ExecError::Linkage {
                                kind: JvmErrorKind::NoSuchMethodError,
                                message: "unresolvable method reference".into(),
                            });
                        }
                        CallRef::BadDesc(mdesc) => {
                            return Err(ExecError::Linkage {
                                kind: JvmErrorKind::NoSuchMethodError,
                                message: format!("bad descriptor {mdesc}"),
                            });
                        }
                    };
                    let mref = &call.member;
                    let mut call_args = Vec::new();
                    for _ in 0..call.param_vts.len() {
                        call_args.push(pop!());
                    }
                    call_args.reverse();
                    let is_static = *shape == Ok(InvokeShape::Static);
                    let receiver = if is_static { None } else { Some(pop!()) };
                    if let Some(RtValue::Ref(None)) = receiver {
                        rt_throw!(
                            "java/lang/NullPointerException",
                            format!("invoke {} on null", mref.name)
                        );
                    }
                    match self.dispatch(mref, receiver, call_args, cov, depth) {
                        Ok(Some(v)) => stack.push(v),
                        Ok(None) => {}
                        Err(ExecError::Uncaught(t)) => match self.find_handler(&code, cur_pc, &t) {
                            Some(h) => {
                                let obj = self.alloc(Obj::Instance {
                                    class: t.class.clone(),
                                    fields: BTreeMap::new(),
                                    message: t.message.clone(),
                                });
                                stack.clear();
                                stack.push(RtValue::Ref(Some(obj)));
                                idx = h;
                                continue;
                            }
                            None => return Err(ExecError::Uncaught(t)),
                        },
                        Err(e) => return Err(e),
                    }
                }
                Insn::InvokeDynamic => {
                    return Err(ExecError::Linkage {
                        kind: JvmErrorKind::UnsatisfiedLinkError,
                        message: "invokedynamic unsupported".into(),
                    })
                }
                Insn::New(ClassRef::Unresolved(_)) => {
                    return Err(ExecError::Linkage {
                        kind: JvmErrorKind::NoClassDefFoundError,
                        message: "new of unresolvable class".into(),
                    });
                }
                Insn::New(ClassRef::Ok(name)) => {
                    if !self.world.exists(name) {
                        return Err(ExecError::Linkage {
                            kind: JvmErrorKind::NoClassDefFoundError,
                            message: name.to_string(),
                        });
                    }
                    if self.spec.reject_internal_access && self.world.is_internal(name) {
                        return Err(ExecError::Linkage {
                            kind: JvmErrorKind::IllegalAccessError,
                            message: format!("tried to access internal class {name}"),
                        });
                    }
                    if self.world.is_interface(name) == Some(true) {
                        return Err(ExecError::Linkage {
                            kind: JvmErrorKind::InstantiationError,
                            message: name.to_string(),
                        });
                    }
                    let id = self.alloc(Obj::Instance {
                        class: name.to_string(),
                        fields: BTreeMap::new(),
                        message: None,
                    });
                    stack.push(RtValue::Ref(Some(id)));
                }
                Insn::NewArray { atype, .. } => {
                    let len = pop_int!();
                    if probe_branch!(cov, len < 0) {
                        rt_throw!("java/lang/NegativeArraySizeException", len.to_string());
                    }
                    let elem = match atype {
                        4 => "Z",
                        5 => "C",
                        6 => "F",
                        7 => "D",
                        8 => "B",
                        9 => "S",
                        10 => "I",
                        _ => "J",
                    };
                    let fill = match atype {
                        6 => RtValue::Float(0.0),
                        7 => RtValue::Double(0.0),
                        11 => RtValue::Long(0),
                        _ => RtValue::Int(0),
                    };
                    let id = self.alloc(Obj::Array {
                        elem: elem.to_string(),
                        data: vec![fill; (len as usize).min(1 << 20)],
                    });
                    stack.push(RtValue::Ref(Some(id)));
                }
                Insn::ANewArray(array) => {
                    let len = pop_int!();
                    if probe_branch!(cov, len < 0) {
                        rt_throw!("java/lang/NegativeArraySizeException", len.to_string());
                    }
                    let id = self.alloc(Obj::Array {
                        elem: anewarray_element(array),
                        data: vec![RtValue::Ref(None); (len as usize).min(1 << 20)],
                    });
                    stack.push(RtValue::Ref(Some(id)));
                }
                Insn::CheckCast(cls) => {
                    let name = class_or_empty(cls);
                    let r = pop!();
                    if let RtValue::Ref(Some(id)) = &r {
                        let actual = self.heap[*id].class_name();
                        let compatible = !self.world.exists(&actual)
                            || !self.world.exists(name)
                            || self.world.is_subtype(&actual, name);
                        if probe_branch!(cov, !compatible) {
                            rt_throw!(
                                "java/lang/ClassCastException",
                                format!("{actual} cannot be cast to {name}")
                            );
                        }
                    }
                    stack.push(r);
                }
                Insn::InstanceOf(cls) => {
                    let name = class_or_empty(cls);
                    let r = pop!();
                    let result = match &r {
                        RtValue::Ref(Some(id)) => {
                            self.world.is_subtype(&self.heap[*id].class_name(), name)
                        }
                        _ => false,
                    };
                    stack.push(RtValue::Int(result as i32));
                }
                Insn::MultiANewArray { dims, .. } => {
                    let mut len = 0;
                    for _ in 0..*dims {
                        len = pop_int!();
                    }
                    let id = self.alloc(Obj::Array {
                        elem: "Ljava/lang/Object;".into(),
                        data: vec![RtValue::Ref(None); (len.max(0) as usize).min(1 << 16)],
                    });
                    stack.push(RtValue::Ref(Some(id)));
                }
                // A switch target between instructions is `Target::MISS`,
                // past the code array: the next loop head reports running
                // off it.
                Insn::TableSwitch {
                    low,
                    high,
                    targets,
                    default,
                } => {
                    let key = pop_int!();
                    let target = if (*low..=*high).contains(&key) {
                        targets[(key - low) as usize]
                    } else {
                        *default
                    };
                    next = target.idx as usize;
                }
                Insn::LookupSwitch {
                    keys,
                    targets,
                    default,
                } => {
                    let key = pop_int!();
                    let target = keys
                        .iter()
                        .position(|k| *k == key)
                        .map_or(*default, |i| targets[i]);
                    next = target.idx as usize;
                }
            }
            idx = next;
        }
    }

    /// Walks the decoded handler table for the first entry covering `pc`
    /// that catches `thrown`. The walk commits to the *first* catching
    /// entry even when its handler offset did not land on an instruction
    /// boundary (in which case the exception propagates as uncaught).
    fn find_handler(&self, code: &DecodedMethod, pc: u32, thrown: &Thrown) -> Option<usize> {
        for h in &code.handlers {
            if (h.start_pc..h.end_pc).contains(&pc) {
                let catches = match h.catch {
                    Catch::All => true,
                    Catch::Class => self.world.is_subtype(&thrown.class, &h.caught),
                    Catch::Unresolvable => false,
                };
                if catches {
                    return h.handler.map(|i| i as usize);
                }
            }
        }
        None
    }

    fn thrown_from(&self, r: &RtValue) -> Thrown {
        match r {
            RtValue::Ref(Some(id)) => match &self.heap[*id] {
                Obj::Instance { class, message, .. } => Thrown {
                    class: class.clone(),
                    message: message.clone(),
                },
                _ => Thrown {
                    class: "java/lang/Throwable".into(),
                    message: None,
                },
            },
            _ => Thrown {
                class: "java/lang/NullPointerException".into(),
                message: Some("throw null".into()),
            },
        }
    }

    fn deref_array(&self, r: &RtValue) -> Option<usize> {
        match r {
            RtValue::Ref(Some(id)) => match &self.heap[*id] {
                Obj::Array { data, .. } => Some(data.len()),
                _ => Some(0),
            },
            _ => None,
        }
    }

    fn array_get(&self, arr: &RtValue, i: i32) -> Result<RtValue, Thrown> {
        match arr {
            RtValue::Ref(Some(id)) => match &self.heap[*id] {
                Obj::Array { data, .. } => {
                    if i < 0 || i as usize >= data.len() {
                        Err(Thrown {
                            class: "java/lang/ArrayIndexOutOfBoundsException".into(),
                            message: Some(i.to_string()),
                        })
                    } else {
                        Ok(data[i as usize].clone())
                    }
                }
                _ => Ok(RtValue::Int(0)),
            },
            _ => Err(Thrown {
                class: "java/lang/NullPointerException".into(),
                message: Some("array access on null".into()),
            }),
        }
    }

    fn array_set(&mut self, arr: &RtValue, i: i32, v: RtValue) -> Result<(), Thrown> {
        match arr {
            RtValue::Ref(Some(id)) => {
                if let Obj::Array { data, .. } = &mut self.heap[*id] {
                    if i < 0 || i as usize >= data.len() {
                        return Err(Thrown {
                            class: "java/lang/ArrayIndexOutOfBoundsException".into(),
                            message: Some(i.to_string()),
                        });
                    }
                    data[i as usize] = v;
                }
                Ok(())
            }
            _ => Err(Thrown {
                class: "java/lang/NullPointerException".into(),
                message: Some("array store on null".into()),
            }),
        }
    }

    fn instance_field(&self, id: usize, name: &str, desc: &str) -> RtValue {
        if let (Obj::Instance { fields, .. }, Some(n), Some(d)) =
            (&self.heap[id], self.names.get(name), self.names.get(desc))
        {
            if let Some(v) = fields.get(&(n, d)) {
                return v.clone();
            }
        }
        FieldType::parse(desc)
            .map(|t| RtValue::default_of(&t))
            .unwrap_or(RtValue::Int(0))
    }

    fn resolve_static(
        &self,
        class: &str,
        name: &str,
        desc: &str,
        cov: &mut Cov,
    ) -> Result<RtValue, ExecError> {
        probe!(cov);
        // A member name never interned was never stored.
        let member = self.names.get(name).zip(self.names.get(desc));
        // Walk the superclass chain like real field resolution.
        let mut cur = class;
        for _ in 0..32 {
            if let (Some((n, d)), Some(c)) = (member, self.names.get(cur)) {
                if let Some(v) = self.statics.get(&(c, n, d)) {
                    return Ok(v.clone());
                }
            }
            if is_print_stream_static(cur, name, desc) {
                return Ok(RtValue::Ref(Some(PRINT_STREAM)));
            }
            if let Some(lib) = self.world.lib(cur) {
                if lib
                    .static_fields
                    .iter()
                    .any(|f| f.name == name && f.desc == desc)
                {
                    // Unmodeled library static: default value.
                    let v = FieldType::parse(desc)
                        .map(|t| RtValue::default_of(&t))
                        .unwrap_or(RtValue::Int(0));
                    return Ok(v);
                }
            }
            match self.world.super_of(cur) {
                Some(s) => cur = s,
                None => break,
            }
        }
        if !self.world.exists(class) {
            return Err(ExecError::Linkage {
                kind: JvmErrorKind::NoClassDefFoundError,
                message: class.to_string(),
            });
        }
        if self.spec.reject_internal_access && self.world.is_internal(class) {
            return Err(ExecError::Linkage {
                kind: JvmErrorKind::IllegalAccessError,
                message: format!("tried to access internal class {class}"),
            });
        }
        Err(ExecError::Linkage {
            kind: JvmErrorKind::NoSuchFieldError,
            message: format!("{class}.{name}"),
        })
    }

    fn dispatch(
        &mut self,
        mref: &MemberRef,
        receiver: Option<RtValue>,
        args: Vec<RtValue>,
        cov: &mut Cov,
        depth: usize,
    ) -> Result<Option<RtValue>, ExecError> {
        probe!(cov);
        let (class, name, desc): (&str, &str, &str) = (&mref.class, &mref.name, &mref.desc);
        // Copy out the shared world reference so hierarchy lookups below
        // don't hold a borrow of `self` across the `&mut self` calls.
        let world = self.world;
        // Virtual dispatch: start from the receiver's dynamic class when
        // there is one, else the symbolic class. The name borrows the heap
        // object, so the walk copies nothing.
        let start = match &receiver {
            Some(RtValue::Ref(Some(id))) if name != "<init>" => self.heap[*id].class_name(),
            _ => Cow::Borrowed(class),
        };
        let mut cur: &str = &start;
        let mut chain_ended = false;
        for _ in 0..32 {
            if let Some(user) = world.user_class(cur) {
                if let Some(m) = user.find_method(name, desc) {
                    if probe_branch!(cov, m.access.contains(MethodAccess::ABSTRACT)) {
                        return Err(ExecError::Linkage {
                            kind: JvmErrorKind::AbstractMethodError,
                            message: format!("{cur}.{name}{desc}"),
                        });
                    }
                    if probe_branch!(cov, m.access.contains(MethodAccess::NATIVE)) {
                        return Err(ExecError::Linkage {
                            kind: JvmErrorKind::UnsatisfiedLinkError,
                            message: format!("{cur}.{name}{desc}"),
                        });
                    }
                    self.ensure_verified(user, m, cov)?;
                    let mut full_args = Vec::with_capacity(args.len() + 1);
                    if let Some(r) = receiver {
                        full_args.push(r);
                    }
                    full_args.extend(args);
                    return self.execute(user, m.index, full_args, cov, depth + 1);
                }
            }
            if let Some(lib) = world.lib(cur) {
                if let Some(m) = lib.find_method(name, desc) {
                    return self.builtin(m.behavior, receiver, args, cov);
                }
            }
            match world.super_of(cur) {
                Some(s) => cur = s,
                None => {
                    chain_ended = true;
                    break;
                }
            }
        }
        if !chain_ended {
            // The walk ran out of hops before reaching the chain's root:
            // surface the bounded resolution depth as its own stable
            // linkage error instead of the generic not-found fallthrough.
            return Err(ExecError::Linkage {
                kind: JvmErrorKind::ResolutionDepthExceeded,
                message: format!("resolving {class}.{name}{desc}: superclass chain deeper than 32"),
            });
        }
        if !self.world.exists(&start) && !self.world.exists(class) {
            return Err(ExecError::Linkage {
                kind: JvmErrorKind::NoClassDefFoundError,
                message: class.to_string(),
            });
        }
        if self.spec.reject_internal_access
            && (self.world.is_internal(class) || self.world.is_internal(&start))
        {
            return Err(ExecError::Linkage {
                kind: JvmErrorKind::IllegalAccessError,
                message: format!("tried to access internal class {class}"),
            });
        }
        Err(ExecError::Linkage {
            kind: JvmErrorKind::NoSuchMethodError,
            message: format!("{class}.{name}{desc}"),
        })
    }

    fn builtin(
        &mut self,
        behavior: Behavior,
        receiver: Option<RtValue>,
        args: Vec<RtValue>,
        cov: &mut Cov,
    ) -> Result<Option<RtValue>, ExecError> {
        probe!(cov);
        Ok(match behavior {
            Behavior::Default | Behavior::InitNop => None,
            Behavior::PrintlnStr => {
                let text = args.first().map(|a| self.render(a)).unwrap_or_default();
                self.stdout.push(text);
                None
            }
            Behavior::PrintlnValue => {
                let text = args.first().map(|a| self.render(a)).unwrap_or_default();
                self.stdout.push(text);
                None
            }
            Behavior::PrintlnEmpty => {
                self.stdout.push(String::new());
                None
            }
            Behavior::ThrowableInitMsg => {
                if let (Some(RtValue::Ref(Some(id))), Some(msg)) = (receiver.clone(), args.first())
                {
                    let text = self.render(msg);
                    if let Obj::Instance { message, .. } = &mut self.heap[id] {
                        *message = Some(text);
                    }
                }
                None
            }
            Behavior::ThrowableGetMessage => {
                let msg = match &receiver {
                    Some(RtValue::Ref(Some(id))) => match &self.heap[*id] {
                        Obj::Instance { message, .. } => message.clone(),
                        _ => None,
                    },
                    _ => None,
                };
                Some(match msg {
                    Some(m) => self.intern_str(&m),
                    None => RtValue::Ref(None),
                })
            }
            Behavior::StringLength => {
                let len = match &receiver {
                    Some(RtValue::Ref(Some(id))) => match &self.heap[*id] {
                        Obj::Str(s) => s.chars().count() as i32,
                        _ => 0,
                    },
                    _ => 0,
                };
                Some(RtValue::Int(len))
            }
            Behavior::StringConcat => {
                let a = receiver
                    .as_ref()
                    .map(|r| self.render(r))
                    .unwrap_or_default();
                let b = args.first().map(|r| self.render(r)).unwrap_or_default();
                Some(self.intern_str(&format!("{a}{b}")))
            }
            Behavior::StringEquals => {
                let a = receiver
                    .as_ref()
                    .map(|r| self.render(r))
                    .unwrap_or_default();
                let b = args.first().map(|r| self.render(r)).unwrap_or_default();
                Some(RtValue::Int((a == b) as i32))
            }
            Behavior::StringHashCode => {
                let a = receiver
                    .as_ref()
                    .map(|r| self.render(r))
                    .unwrap_or_default();
                let mut h: i32 = 0;
                for c in a.chars() {
                    h = h.wrapping_mul(31).wrapping_add(c as i32);
                }
                Some(RtValue::Int(h))
            }
            Behavior::SbAppend => {
                if let (Some(RtValue::Ref(Some(id))), Some(arg)) = (receiver.clone(), args.first())
                {
                    let rendered = self.render(arg);
                    // Appending to a plain Instance upgrades it to a builder.
                    match &mut self.heap[id] {
                        Obj::Builder(s) => s.push_str(&rendered),
                        obj @ Obj::Instance { .. } => *obj = Obj::Builder(rendered),
                        _ => {}
                    }
                }
                Some(receiver.unwrap_or(RtValue::Ref(None)))
            }
            Behavior::SbToString => {
                let text = match &receiver {
                    Some(RtValue::Ref(Some(id))) => match &self.heap[*id] {
                        Obj::Builder(s) => s.clone(),
                        _ => String::new(),
                    },
                    _ => String::new(),
                };
                Some(self.intern_str(&text))
            }
            Behavior::MathAbs => Some(RtValue::Int(
                args.first()
                    .map(|a| coerce_int(a.clone()).wrapping_abs())
                    .unwrap_or(0),
            )),
            Behavior::MathMax => {
                let a = args.first().map(|a| coerce_int(a.clone())).unwrap_or(0);
                let b = args.get(1).map(|a| coerce_int(a.clone())).unwrap_or(0);
                Some(RtValue::Int(a.max(b)))
            }
            Behavior::MathMin => {
                let a = args.first().map(|a| coerce_int(a.clone())).unwrap_or(0);
                let b = args.get(1).map(|a| coerce_int(a.clone())).unwrap_or(0);
                Some(RtValue::Int(a.min(b)))
            }
            Behavior::ParseInt => {
                let text = args.first().map(|a| self.render(a)).unwrap_or_default();
                match text.trim().parse::<i32>() {
                    Ok(v) => Some(RtValue::Int(v)),
                    Err(_) => {
                        return Err(self.throw(
                            "java/lang/IllegalArgumentException",
                            format!("For input string: {text:?}"),
                        ))
                    }
                }
            }
            Behavior::ObjHashCode => Some(RtValue::Int(match &receiver {
                Some(RtValue::Ref(Some(id))) => *id as i32,
                _ => 0,
            })),
            Behavior::ObjEquals => {
                let eq = receiver.as_ref() == args.first();
                Some(RtValue::Int(eq as i32))
            }
            Behavior::ObjToString => {
                let text = receiver
                    .as_ref()
                    .map(|r| self.render(r))
                    .unwrap_or_default();
                Some(self.intern_str(&text))
            }
        })
    }

    /// Renders a value for printing.
    pub fn render(&self, v: &RtValue) -> String {
        match v {
            RtValue::Int(x) => x.to_string(),
            RtValue::Long(x) => x.to_string(),
            RtValue::Float(x) => format!("{x:?}"),
            RtValue::Double(x) => format!("{x:?}"),
            RtValue::Ref(None) => "null".to_string(),
            RtValue::Ref(Some(id)) => match &self.heap[*id] {
                Obj::Str(s) => s.clone(),
                Obj::Builder(s) => s.clone(),
                Obj::Instance { class, .. } => format!("{}@{id}", class.replace('/', ".")),
                Obj::Array { .. } => format!("[Array@{id}"),
                Obj::PrintStream => "java.io.PrintStream".to_string(),
            },
        }
    }
}

/// The element descriptor an `anewarray` of the decoded array descriptor
/// stores: the component as it is (`[Ljava/lang/String;` stores
/// `Ljava/lang/String;`, `[[I` stores `[I`), and `java/lang/Object` when
/// the class reference does not resolve.
fn anewarray_element(array: &ClassRef) -> String {
    match array {
        ClassRef::Ok(desc) => desc[1..].to_string(),
        ClassRef::Unresolved(_) => "Ljava/lang/Object;".to_string(),
    }
}

/// The class a `checkcast` or `instanceof` tests against; the empty name,
/// which no class carries, when the reference does not resolve.
fn class_or_empty(cls: &ClassRef) -> &str {
    match cls {
        ClassRef::Ok(name) => name,
        ClassRef::Unresolved(_) => "",
    }
}

fn coerce_int(v: RtValue) -> i32 {
    match v {
        RtValue::Int(x) => x,
        RtValue::Long(x) => x as i32,
        RtValue::Float(x) => x as i32,
        RtValue::Double(x) => x as i32,
        RtValue::Ref(_) => 0,
    }
}

fn coerce_long(v: RtValue) -> i64 {
    match v {
        RtValue::Int(x) => x as i64,
        RtValue::Long(x) => x,
        RtValue::Float(x) => x as i64,
        RtValue::Double(x) => x as i64,
        RtValue::Ref(_) => 0,
    }
}

fn coerce_float(v: RtValue) -> f32 {
    match v {
        RtValue::Int(x) => x as f32,
        RtValue::Long(x) => x as f32,
        RtValue::Float(x) => x,
        RtValue::Double(x) => x as f32,
        RtValue::Ref(_) => 0.0,
    }
}

fn coerce_double(v: RtValue) -> f64 {
    match v {
        RtValue::Int(x) => x as f64,
        RtValue::Long(x) => x as f64,
        RtValue::Float(x) => x as f64,
        RtValue::Double(x) => x,
        RtValue::Ref(_) => 0.0,
    }
}

fn int_arith(op: Opcode, a: i32, b: i32) -> i32 {
    use Opcode::*;
    match op {
        Iadd => a.wrapping_add(b),
        Isub => a.wrapping_sub(b),
        Imul => a.wrapping_mul(b),
        Idiv => a.wrapping_div(b),
        Irem => a.wrapping_rem(b),
        Iand => a & b,
        Ior => a | b,
        Ixor => a ^ b,
        Ishl => a.wrapping_shl(b as u32 & 31),
        Ishr => a.wrapping_shr(b as u32 & 31),
        Iushr => ((a as u32).wrapping_shr(b as u32 & 31)) as i32,
        _ => 0,
    }
}

fn long_arith(op: Opcode, a: i64, b: i64) -> i64 {
    use Opcode::*;
    match op {
        Ladd => a.wrapping_add(b),
        Lsub => a.wrapping_sub(b),
        Lmul => a.wrapping_mul(b),
        Ldiv => a.wrapping_div(b),
        Lrem => a.wrapping_rem(b),
        Land => a & b,
        Lor => a | b,
        Lxor => a ^ b,
        Lshl => a.wrapping_shl(b as u32 & 63),
        Lshr => a.wrapping_shr(b as u32 & 63),
        Lushr => ((a as u64).wrapping_shr(b as u32 & 63)) as i64,
        _ => 0,
    }
}

fn float_arith(op: Opcode, a: f32, b: f32) -> f32 {
    use Opcode::*;
    match op {
        Fadd => a + b,
        Fsub => a - b,
        Fmul => a * b,
        Fdiv => a / b,
        Frem => a % b,
        _ => 0.0,
    }
}

fn double_arith(op: Opcode, a: f64, b: f64) -> f64 {
    use Opcode::*;
    match op {
        Dadd => a + b,
        Dsub => a - b,
        Dmul => a * b,
        Ddiv => a / b,
        Drem => a % b,
        _ => 0.0,
    }
}

fn cmp_float(a: f64, b: f64, nan: i32) -> i32 {
    if a.is_nan() || b.is_nan() {
        nan
    } else if a < b {
        -1
    } else if a > b {
        1
    } else {
        0
    }
}
