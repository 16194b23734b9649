//! Bytecode verification by type inference (JVMS §4.10.2), parameterised by
//! the policy knobs in which the paper's JVMs differ.
//!
//! The verifier runs a worklist dataflow over basic frames: each local slot
//! and stack slot carries a [`VType`]; instructions are abstract transfer
//! functions; frames merge at join points. Policy knobs:
//!
//! * `strict_stack_shape_merge` (J9) — merge demands *identical* stack
//!   shapes, reporting the "stack shape inconsistent" errors of §1;
//! * `check_uninit_merge` (GIJ) — merging initialized with uninitialized
//!   types is an error (HotSpot silently widens to `Top`);
//! * `check_param_cast` (GIJ) — reference arguments must be provably
//!   assignable (HotSpot assumes assignability for unloaded classes).
//!
//! Everything profile-invariant — instruction layout, branch/handler
//! target tables, descriptor parsing, constant-pool resolution — lives in
//! the [`DecodedMethod`] the interpreter also reads, decoded once per
//! method and shared across all five profiles through the `DecodedTable`
//! on [`UserClass`]; the dataflow here consumes those facts by reference
//! and applies only the [`VmSpec`]-specific policy. The `*_cold` entry
//! points decode afresh per call (the bench baseline); both paths run the
//! same inner functions, so they fire the exact same coverage probes and
//! produce bit-identical traces.

use std::cell::Cell;
use std::collections::VecDeque;
use std::mem;
use std::sync::Arc;

use classfuzz_classfile::{ConstIndex, FieldType, MethodAccess, Opcode};

use crate::cov::Cov;
use crate::decode::{
    decoded, vtype_of, CallRef, ClassRef, Const, DecodedMethod, FieldRef, Insn, Sig, Target,
};
pub use crate::decode::{InvokeShape, VType};
use crate::outcome::{JvmErrorKind, Outcome, Phase};
use crate::spec::VmSpec;
use crate::world::{MethodSummary, UserClass, World};
use crate::{probe, probe_branch};

/// A dataflow frame: the abstract state at one instruction.
#[derive(Debug, Default, PartialEq)]
struct Frame {
    locals: Vec<VType>,
    stack: Vec<VType>,
}

impl Clone for Frame {
    fn clone(&self) -> Frame {
        Frame {
            locals: self.locals.clone(),
            stack: self.stack.clone(),
        }
    }

    // The worklist loop re-materializes the in-frame into one scratch
    // frame per iteration, and first visits fill recycled frames;
    // delegating to `Vec::clone_from` reuses their buffers instead of
    // reallocating.
    fn clone_from(&mut self, source: &Frame) {
        self.locals.clone_from(&source.locals);
        self.stack.clone_from(&source.stack);
    }
}

/// The most a thread's [`Workspace`] keeps between runs, in slots
/// (one per retained `VType`, frame or worklist entry). A run that grows
/// past it — a declared `max_locals` of 65535, say — drops its workspace
/// instead of keeping it resident.
const WORKSPACE_SLOT_BUDGET: usize = 1 << 16;

/// The dataflow's per-instruction frames and worklist.
#[derive(Default)]
struct FrameStore {
    /// The in-frame of each instruction, `None` until first reached.
    in_frames: Vec<Option<Frame>>,
    /// Emptied frames from earlier runs, refilled on first visits.
    spare: Vec<Frame>,
    /// Instructions whose in-frame changed and must be (re)transferred.
    work: VecDeque<usize>,
    /// Scratch target of every merge, swapped in only when it differs.
    merged: Frame,
}

/// Everything one dataflow run needs besides the decoded method: kept per
/// thread and reused, so a warm run allocates no frame.
#[derive(Default)]
struct Workspace {
    frames: FrameStore,
    /// The frame being transferred.
    frame: Frame,
    /// The entry frame of an exception handler.
    hframe: Frame,
    /// Handler edges of the current instruction.
    edges: Vec<(usize, Arc<str>)>,
    /// Successors of the current instruction.
    succs: Vec<usize>,
}

impl Workspace {
    /// Empties the workspace for the next run, returning every in-frame
    /// to the spare list; returns the slots it keeps.
    fn recycle(&mut self) -> usize {
        let FrameStore {
            in_frames,
            spare,
            work,
            merged,
        } = &mut self.frames;
        spare.extend(in_frames.drain(..).flatten());
        work.clear();
        self.edges.clear();
        self.succs.clear();
        let mut slots =
            in_frames.capacity() + work.capacity() + self.edges.capacity() + self.succs.capacity();
        for f in spare
            .iter_mut()
            .chain([merged, &mut self.frame, &mut self.hframe])
        {
            f.locals.clear();
            f.stack.clear();
            slots += 1 + f.locals.capacity() + f.stack.capacity();
        }
        slots
    }
}

thread_local! {
    /// This thread's verifier workspace; empty while a run holds it.
    static WORKSPACE: Cell<Workspace> = Cell::new(Workspace::default());
}

/// An in-flight verification failure; converted to a linking-phase
/// outcome at the boundary. `Internal` marks verifier bookkeeping bugs
/// (e.g. a worklist index without an in-frame) and surfaces as
/// `InternalError` instead of blaming the candidate with a `VerifyError`.
#[derive(Debug, Clone)]
enum VerifyFail {
    Reject(String),
    Internal(String),
}

type VResult<T> = Result<T, VerifyFail>;

fn fail<T>(msg: impl Into<String>) -> VResult<T> {
    Err(VerifyFail::Reject(msg.into()))
}

fn internal<T>(msg: impl Into<String>) -> VResult<T> {
    Err(VerifyFail::Internal(msg.into()))
}

/// Verifies every method of `class` that carries code (eager linking),
/// reading the class's shared decoded-method table.
///
/// # Errors
///
/// Returns a linking-phase `VerifyError` outcome naming the first offending
/// method.
pub fn verify_class(
    world: &World,
    class: &UserClass,
    spec: &VmSpec,
    cov: &mut Cov,
) -> Result<(), Outcome> {
    verify_class_with(world, class, spec, cov, false)
}

/// [`verify_class`] with each method decoded afresh per call — the
/// pre-sharing baseline kept constructible for the bench gate. Same inner
/// code, same probes, bit-identical traces.
///
/// # Errors
///
/// Returns a linking-phase `VerifyError` outcome naming the first offending
/// method.
pub fn verify_class_cold(
    world: &World,
    class: &UserClass,
    spec: &VmSpec,
    cov: &mut Cov,
) -> Result<(), Outcome> {
    verify_class_with(world, class, spec, cov, true)
}

fn verify_class_with(
    world: &World,
    class: &UserClass,
    spec: &VmSpec,
    cov: &mut Cov,
    cold: bool,
) -> Result<(), Outcome> {
    probe!(cov);
    for m in &class.methods {
        if m.has_code {
            verify_method_with(world, class, m, spec, cov, cold)?;
        }
    }
    Ok(())
}

/// Verifies a single method (the unit J9 defers until first invocation),
/// reading the class's shared decoded-method table.
///
/// # Errors
///
/// Returns a linking-phase `VerifyError` outcome.
pub fn verify_method(
    world: &World,
    class: &UserClass,
    method: &MethodSummary,
    spec: &VmSpec,
    cov: &mut Cov,
) -> Result<(), Outcome> {
    verify_method_with(world, class, method, spec, cov, false)
}

/// [`verify_method`] with the method decoded afresh per call — the bench
/// baseline. Same inner code, same probes, bit-identical traces.
///
/// # Errors
///
/// Returns a linking-phase `VerifyError` outcome.
pub fn verify_method_cold(
    world: &World,
    class: &UserClass,
    method: &MethodSummary,
    spec: &VmSpec,
    cov: &mut Cov,
) -> Result<(), Outcome> {
    verify_method_with(world, class, method, spec, cov, true)
}

fn verify_method_with(
    world: &World,
    class: &UserClass,
    method: &MethodSummary,
    spec: &VmSpec,
    cov: &mut Cov,
    cold: bool,
) -> Result<(), Outcome> {
    probe!(cov);
    let code = match decoded(class, method.index, cold) {
        Some(code) => code,
        None => return Ok(()), // no Code attribute: nothing to verify
    };
    let sig = match &code.sig {
        Some(s) => s,
        None => {
            return Err(reject(
                class,
                method,
                VerifyFail::Reject("unparseable method descriptor".into()),
            ))
        }
    };
    let mut v = Verifier {
        world,
        spec,
        cov,
        code: &code,
        sig,
        method_static: method.access.contains(MethodAccess::STATIC),
        is_init: method.name == "<init>",
    };
    match v.run() {
        Ok(()) => Ok(()),
        Err(f) => Err(reject(class, method, f)),
    }
}

fn reject(class: &UserClass, method: &MethodSummary, f: VerifyFail) -> Outcome {
    let (kind, msg) = match f {
        VerifyFail::Reject(msg) => (JvmErrorKind::VerifyError, msg),
        VerifyFail::Internal(msg) => (JvmErrorKind::InternalError, msg),
    };
    Outcome::rejected(
        Phase::Linking,
        kind,
        format!(
            "(class: {}, method: {} signature: {}) {msg}",
            class.name, method.name, method.desc_text
        ),
    )
}

/// Records a decoded branch edge, failing when the target was not an
/// instruction boundary — only now, when the edge is actually checked.
fn take_target(succs: &mut Vec<usize>, t: &Target) -> VResult<()> {
    if t.idx == Target::MISS {
        return fail(format!("branch target {} is not an instruction", t.pc));
    }
    succs.push(t.idx as usize);
    Ok(())
}

struct Verifier<'a> {
    world: &'a World,
    spec: &'a VmSpec,
    cov: &'a mut Cov,
    code: &'a DecodedMethod,
    sig: &'a Sig,
    method_static: bool,
    is_init: bool,
}

impl Verifier<'_> {
    fn run(&mut self) -> VResult<()> {
        probe!(self.cov);
        if probe_branch!(self.cov, self.code.insns.is_empty()) {
            return fail("code array is empty");
        }
        // Taken, not borrowed: a panic inside the dataflow (contained by
        // the caller) drops the workspace rather than leaving it half
        // used, and the next run starts from an empty one.
        let mut ws = WORKSPACE.with(Cell::take);
        let result = self.dataflow(&mut ws);
        if ws.recycle() <= WORKSPACE_SLOT_BUDGET {
            WORKSPACE.with(|cell| cell.set(ws));
        }
        result
    }

    fn dataflow(&mut self, ws: &mut Workspace) -> VResult<()> {
        let code = self.code;
        let Workspace {
            frames,
            frame,
            hframe,
            edges,
            succs,
        } = ws;
        frames.in_frames.resize_with(code.insns.len(), || None);
        let mut entry = frames.spare.pop().unwrap_or_default();
        let filled = self.entry_frame(&mut entry);
        frames.in_frames[0] = Some(entry);
        filled?;
        frames.work.push_back(0);

        let mut steps = 0usize;
        while let Some(idx) = frames.work.pop_front() {
            steps += 1;
            if probe_branch!(self.cov, steps > 40_000) {
                return fail("verification did not converge");
            }
            match frames.in_frames.get(idx).and_then(Option::as_ref) {
                Some(in_frame) => frame.clone_from(in_frame),
                None => return internal(format!("worklist instruction {idx} has no in-frame")),
            }
            // Exception handlers covering this instruction observe its
            // locals with a one-element stack.
            let pc = code.pcs[idx];
            self.handler_edges(pc, edges)?;
            for (h, catch) in edges.drain(..) {
                hframe.locals.clone_from(&frame.locals);
                hframe.stack.clear();
                hframe.stack.push(VType::Ref(catch));
                self.merge_into(frames, h, hframe, true)?;
            }
            succs.clear();
            self.transfer(idx, frame, succs)?;
            // Every successor of one instruction receives the same
            // post-transfer frame, so recording indices and merging the
            // final scratch frame is equivalent to the old per-edge clones.
            for &s in succs.iter() {
                self.merge_into(frames, s, frame, false)?;
            }
        }
        Ok(())
    }

    /// Fills `f` with the method's entry state: `this` and the declared
    /// parameters in their slots, `Top` elsewhere, an empty stack.
    fn entry_frame(&mut self, f: &mut Frame) -> VResult<()> {
        probe!(self.cov);
        let code = self.code;
        let max_locals = code.max_locals as usize;
        let locals = &mut f.locals;
        locals.clear();
        locals.resize(max_locals, VType::Top);
        f.stack.clear();
        let mut slot = 0usize;
        if !self.method_static {
            if probe_branch!(self.cov, max_locals == 0) {
                return fail("instance method with max_locals 0");
            }
            locals[0] = if self.is_init && &*code.class_name != "java/lang/Object" {
                VType::UninitThis
            } else {
                VType::Ref(code.class_name.clone())
            };
            slot = 1;
        }
        for vt in &self.sig.param_vts {
            let w = vt.width();
            if probe_branch!(self.cov, slot + w > max_locals) {
                return fail("arguments can't fit into locals");
            }
            locals[slot] = vt.clone();
            if w == 2 {
                locals[slot + 1] = VType::Hi;
            }
            slot += w;
        }
        Ok(())
    }

    /// Stages the handler edges for the instruction at `pc` into `edges`:
    /// `(handler index, caught type)` per covering entry, all resolved
    /// before the caller merges any of them (matching the old all-edges-
    /// first evaluation order on the error path).
    fn handler_edges(&mut self, pc: u32, edges: &mut Vec<(usize, Arc<str>)>) -> VResult<()> {
        for h in &self.code.handlers {
            if (h.start_pc..h.end_pc).contains(&pc) {
                probe!(self.cov);
                let idx = match h.handler {
                    Some(i) => i as usize,
                    None => return fail("exception handler target is not an instruction"),
                };
                edges.push((idx, h.caught.clone()));
            }
        }
        Ok(())
    }

    fn merge_into(
        &mut self,
        frames: &mut FrameStore,
        idx: usize,
        frame: &Frame,
        is_handler: bool,
    ) -> VResult<()> {
        let slot = match frames.in_frames.get_mut(idx) {
            Some(s) => s,
            None => return internal(format!("merge target {idx} is out of bounds")),
        };
        match slot {
            None => {
                let mut first = frames.spare.pop().unwrap_or_default();
                first.clone_from(frame);
                *slot = Some(first);
                frames.work.push_back(idx);
            }
            Some(existing) => {
                self.merge_frames(existing, frame, is_handler, &mut frames.merged)?;
                if frames.merged != *existing {
                    mem::swap(existing, &mut frames.merged);
                    frames.work.push_back(idx);
                }
            }
        }
        Ok(())
    }

    /// Merges `a` with `b` into `out`, slot by slot.
    fn merge_frames(
        &mut self,
        a: &Frame,
        b: &Frame,
        is_handler: bool,
        out: &mut Frame,
    ) -> VResult<()> {
        probe!(self.cov);
        if probe_branch!(self.cov, a.stack.len() != b.stack.len()) {
            return fail("inconsistent stack height at merge point");
        }
        out.locals.clear();
        for (x, y) in a.locals.iter().zip(&b.locals) {
            out.locals.push(self.merge_types(x, y, false)?);
        }
        out.stack.clear();
        for (x, y) in a.stack.iter().zip(&b.stack) {
            out.stack.push(self.merge_types(x, y, !is_handler)?);
        }
        Ok(())
    }

    fn merge_types(&mut self, a: &VType, b: &VType, on_stack: bool) -> VResult<VType> {
        if a == b {
            return Ok(a.clone());
        }
        probe!(self.cov);
        // GIJ: merging initialized and uninitialized types is an error.
        if probe_branch!(
            self.cov,
            self.spec.check_uninit_merge
                && (a.is_uninitialized() != b.is_uninitialized())
                && a.is_reference()
                && b.is_reference()
        ) {
            return fail("merging initialized and uninitialized object types");
        }
        // J9: stack shapes must match exactly at merge points.
        if probe_branch!(self.cov, on_stack && self.spec.strict_stack_shape_merge) {
            return fail("stack shape inconsistent");
        }
        let merged = match (a, b) {
            (VType::Null, VType::Ref(n)) | (VType::Ref(n), VType::Null) => VType::Ref(n.clone()),
            (VType::Ref(x), VType::Ref(y)) => {
                // Reuse an input's name when the answer is one of them.
                let common = self.world.common_super(x, y);
                VType::Ref(if common == &**x {
                    x.clone()
                } else if common == &**y {
                    y.clone()
                } else {
                    common.into()
                })
            }
            _ => VType::Top,
        };
        if probe_branch!(self.cov, on_stack && merged == VType::Top) {
            return fail("mismatched stack types at merge point");
        }
        Ok(merged)
    }

    // ----- transfer -----------------------------------------------------

    /// Applies one instruction to `f` in place, recording successor
    /// indices in `succs`.
    fn transfer(&mut self, idx: usize, f: &mut Frame, succs: &mut Vec<usize>) -> VResult<()> {
        use Opcode::*;
        let code = self.code;
        let insn = &code.insns[idx];
        let pc = code.pcs[idx];
        let mut falls_through = true;

        match insn {
            Insn::Simple(op) => match op {
                Nop => {}
                AconstNull => self.push(f, VType::Null)?,
                IconstM1 | Iconst0 | Iconst1 | Iconst2 | Iconst3 | Iconst4 | Iconst5 => {
                    self.push(f, VType::Int)?
                }
                Lconst0 | Lconst1 => self.push_wide(f, VType::Long)?,
                Fconst0 | Fconst1 | Fconst2 => self.push(f, VType::Float)?,
                Dconst0 | Dconst1 => self.push_wide(f, VType::Double)?,
                Iload0 | Iload1 | Iload2 | Iload3 => {
                    self.load(f, (op.byte() - Iload0.byte()) as u16, VType::Int)?
                }
                Lload0 | Lload1 | Lload2 | Lload3 => {
                    self.load(f, (op.byte() - Lload0.byte()) as u16, VType::Long)?
                }
                Fload0 | Fload1 | Fload2 | Fload3 => {
                    self.load(f, (op.byte() - Fload0.byte()) as u16, VType::Float)?
                }
                Dload0 | Dload1 | Dload2 | Dload3 => {
                    self.load(f, (op.byte() - Dload0.byte()) as u16, VType::Double)?
                }
                Aload0 | Aload1 | Aload2 | Aload3 => {
                    self.load_ref(f, (op.byte() - Aload0.byte()) as u16)?
                }
                Istore0 | Istore1 | Istore2 | Istore3 => {
                    self.store(f, (op.byte() - Istore0.byte()) as u16, VType::Int)?
                }
                Lstore0 | Lstore1 | Lstore2 | Lstore3 => {
                    self.store(f, (op.byte() - Lstore0.byte()) as u16, VType::Long)?
                }
                Fstore0 | Fstore1 | Fstore2 | Fstore3 => {
                    self.store(f, (op.byte() - Fstore0.byte()) as u16, VType::Float)?
                }
                Dstore0 | Dstore1 | Dstore2 | Dstore3 => {
                    self.store(f, (op.byte() - Dstore0.byte()) as u16, VType::Double)?
                }
                Astore0 | Astore1 | Astore2 | Astore3 => {
                    self.store_ref(f, (op.byte() - Astore0.byte()) as u16)?
                }
                Iaload | Baload | Caload | Saload => {
                    self.expect(f, VType::Int)?;
                    self.expect_array(f)?;
                    self.push(f, VType::Int)?;
                }
                Laload => {
                    self.expect(f, VType::Int)?;
                    self.expect_array(f)?;
                    self.push_wide(f, VType::Long)?;
                }
                Faload => {
                    self.expect(f, VType::Int)?;
                    self.expect_array(f)?;
                    self.push(f, VType::Float)?;
                }
                Daload => {
                    self.expect(f, VType::Int)?;
                    self.expect_array(f)?;
                    self.push_wide(f, VType::Double)?;
                }
                Aaload => {
                    self.expect(f, VType::Int)?;
                    let arr = self.expect_array(f)?;
                    self.push(f, array_element(&arr))?;
                }
                Iastore | Bastore | Castore | Sastore => {
                    self.expect(f, VType::Int)?;
                    self.expect(f, VType::Int)?;
                    self.expect_array(f)?;
                }
                Lastore => {
                    self.expect_wide(f, VType::Long)?;
                    self.expect(f, VType::Int)?;
                    self.expect_array(f)?;
                }
                Fastore => {
                    self.expect(f, VType::Float)?;
                    self.expect(f, VType::Int)?;
                    self.expect_array(f)?;
                }
                Dastore => {
                    self.expect_wide(f, VType::Double)?;
                    self.expect(f, VType::Int)?;
                    self.expect_array(f)?;
                }
                Aastore => {
                    self.expect_ref(f, true)?;
                    self.expect(f, VType::Int)?;
                    self.expect_array(f)?;
                }
                Pop => {
                    let t = self.pop(f)?;
                    if probe_branch!(self.cov, t.width() == 2 || t == VType::Hi) {
                        return fail("pop on a category-2 value");
                    }
                }
                Pop2 => {
                    self.pop(f)?;
                    self.pop(f)?;
                }
                Dup => {
                    let t = self.pop(f)?;
                    if probe_branch!(self.cov, t == VType::Hi) {
                        return fail("dup splits a category-2 value");
                    }
                    self.push(f, t.clone())?;
                    self.push(f, t)?;
                }
                DupX1 => {
                    let a = self.pop1(f)?;
                    let b = self.pop1(f)?;
                    self.push(f, a.clone())?;
                    self.push(f, b)?;
                    self.push(f, a)?;
                }
                DupX2 => {
                    let a = self.pop1(f)?;
                    let b = self.pop(f)?;
                    let c = self.pop(f)?;
                    self.push(f, a.clone())?;
                    self.push(f, c)?;
                    self.push(f, b)?;
                    self.push(f, a)?;
                }
                Dup2 => {
                    let a = self.pop(f)?;
                    let b = self.pop(f)?;
                    self.push(f, b.clone())?;
                    self.push(f, a.clone())?;
                    self.push(f, b)?;
                    self.push(f, a)?;
                }
                Dup2X1 => {
                    let a = self.pop(f)?;
                    let b = self.pop(f)?;
                    let c = self.pop1(f)?;
                    self.push(f, b.clone())?;
                    self.push(f, a.clone())?;
                    self.push(f, c)?;
                    self.push(f, b)?;
                    self.push(f, a)?;
                }
                Dup2X2 => {
                    let a = self.pop(f)?;
                    let b = self.pop(f)?;
                    let c = self.pop(f)?;
                    let d = self.pop(f)?;
                    self.push(f, b.clone())?;
                    self.push(f, a.clone())?;
                    self.push(f, d)?;
                    self.push(f, c)?;
                    self.push(f, b)?;
                    self.push(f, a)?;
                }
                Swap => {
                    let a = self.pop1(f)?;
                    let b = self.pop1(f)?;
                    self.push(f, a)?;
                    self.push(f, b)?;
                }
                Iadd | Isub | Imul | Idiv | Irem | Ishl | Ishr | Iushr | Iand | Ior | Ixor => {
                    self.expect(f, VType::Int)?;
                    self.expect(f, VType::Int)?;
                    self.push(f, VType::Int)?;
                }
                Ladd | Lsub | Lmul | Ldiv | Lrem | Land | Lor | Lxor => {
                    self.expect_wide(f, VType::Long)?;
                    self.expect_wide(f, VType::Long)?;
                    self.push_wide(f, VType::Long)?;
                }
                Lshl | Lshr | Lushr => {
                    self.expect(f, VType::Int)?;
                    self.expect_wide(f, VType::Long)?;
                    self.push_wide(f, VType::Long)?;
                }
                Fadd | Fsub | Fmul | Fdiv | Frem => {
                    self.expect(f, VType::Float)?;
                    self.expect(f, VType::Float)?;
                    self.push(f, VType::Float)?;
                }
                Dadd | Dsub | Dmul | Ddiv | Drem => {
                    self.expect_wide(f, VType::Double)?;
                    self.expect_wide(f, VType::Double)?;
                    self.push_wide(f, VType::Double)?;
                }
                Ineg => {
                    self.expect(f, VType::Int)?;
                    self.push(f, VType::Int)?;
                }
                Lneg => {
                    self.expect_wide(f, VType::Long)?;
                    self.push_wide(f, VType::Long)?;
                }
                Fneg => {
                    self.expect(f, VType::Float)?;
                    self.push(f, VType::Float)?;
                }
                Dneg => {
                    self.expect_wide(f, VType::Double)?;
                    self.push_wide(f, VType::Double)?;
                }
                I2l => {
                    self.expect(f, VType::Int)?;
                    self.push_wide(f, VType::Long)?;
                }
                I2f => {
                    self.expect(f, VType::Int)?;
                    self.push(f, VType::Float)?;
                }
                I2d => {
                    self.expect(f, VType::Int)?;
                    self.push_wide(f, VType::Double)?;
                }
                L2i => {
                    self.expect_wide(f, VType::Long)?;
                    self.push(f, VType::Int)?;
                }
                L2f => {
                    self.expect_wide(f, VType::Long)?;
                    self.push(f, VType::Float)?;
                }
                L2d => {
                    self.expect_wide(f, VType::Long)?;
                    self.push_wide(f, VType::Double)?;
                }
                F2i => {
                    self.expect(f, VType::Float)?;
                    self.push(f, VType::Int)?;
                }
                F2l => {
                    self.expect(f, VType::Float)?;
                    self.push_wide(f, VType::Long)?;
                }
                F2d => {
                    self.expect(f, VType::Float)?;
                    self.push_wide(f, VType::Double)?;
                }
                D2i => {
                    self.expect_wide(f, VType::Double)?;
                    self.push(f, VType::Int)?;
                }
                D2l => {
                    self.expect_wide(f, VType::Double)?;
                    self.push_wide(f, VType::Long)?;
                }
                D2f => {
                    self.expect_wide(f, VType::Double)?;
                    self.push(f, VType::Float)?;
                }
                I2b | I2c | I2s => {
                    self.expect(f, VType::Int)?;
                    self.push(f, VType::Int)?;
                }
                Lcmp => {
                    self.expect_wide(f, VType::Long)?;
                    self.expect_wide(f, VType::Long)?;
                    self.push(f, VType::Int)?;
                }
                Fcmpl | Fcmpg => {
                    self.expect(f, VType::Float)?;
                    self.expect(f, VType::Float)?;
                    self.push(f, VType::Int)?;
                }
                Dcmpl | Dcmpg => {
                    self.expect_wide(f, VType::Double)?;
                    self.expect_wide(f, VType::Double)?;
                    self.push(f, VType::Int)?;
                }
                Ireturn => {
                    self.check_return(f, Some(VType::Int))?;
                    falls_through = false;
                }
                Lreturn => {
                    self.check_return(f, Some(VType::Long))?;
                    falls_through = false;
                }
                Freturn => {
                    self.check_return(f, Some(VType::Float))?;
                    falls_through = false;
                }
                Dreturn => {
                    self.check_return(f, Some(VType::Double))?;
                    falls_through = false;
                }
                Areturn => {
                    self.check_return(f, Some(VType::Null))?;
                    falls_through = false;
                }
                Return => {
                    self.check_return(f, None)?;
                    falls_through = false;
                }
                Arraylength => {
                    self.expect_array(f)?;
                    self.push(f, VType::Int)?;
                }
                Athrow => {
                    let t = self.expect_ref(f, false)?;
                    if probe_branch!(self.cov, t.is_uninitialized()) {
                        return fail("throwing an uninitialized object");
                    }
                    falls_through = false;
                }
                Monitorenter | Monitorexit => {
                    self.expect_ref(f, false)?;
                }
                other => {
                    probe!(self.cov);
                    return fail(format!("unexpected operand-free opcode {other}"));
                }
            },
            Insn::PushInt(_) => self.push(f, VType::Int)?,
            Insn::Ldc(value) => {
                probe!(self.cov);
                match value {
                    Const::Int(_) => self.push(f, VType::Int)?,
                    Const::Float(_) => self.push(f, VType::Float)?,
                    Const::Str { ty, .. } | Const::Class(ty) => {
                        self.push(f, VType::Ref(ty.clone()))?
                    }
                    Const::Long(_) | Const::Double(_) | Const::Unusable => {
                        return fail("ldc references an unloadable constant")
                    }
                }
            }
            Insn::Ldc2(value) => match value {
                Const::Long(_) => self.push_wide(f, VType::Long)?,
                Const::Double(_) => self.push_wide(f, VType::Double)?,
                _ => return fail("ldc2_w references a non-wide constant"),
            },
            Insn::Local(op, slot) => match op {
                Iload => self.load(f, *slot, VType::Int)?,
                Lload => self.load(f, *slot, VType::Long)?,
                Fload => self.load(f, *slot, VType::Float)?,
                Dload => self.load(f, *slot, VType::Double)?,
                Aload => self.load_ref(f, *slot)?,
                Istore => self.store(f, *slot, VType::Int)?,
                Lstore => self.store(f, *slot, VType::Long)?,
                Fstore => self.store(f, *slot, VType::Float)?,
                Dstore => self.store(f, *slot, VType::Double)?,
                Astore => self.store_ref(f, *slot)?,
                Ret => return fail("jsr/ret are not permitted in version 51 classfiles"),
                other => return fail(format!("bad local-variable opcode {other}")),
            },
            Insn::Iinc { index, .. } => {
                self.check_local(f, *index, &VType::Int)?;
            }
            Insn::Branch(op, t) => match op {
                Goto | GotoW => {
                    take_target(succs, t)?;
                    falls_through = false;
                }
                Jsr | JsrW => return fail("jsr/ret are not permitted in version 51 classfiles"),
                Ifeq | Ifne | Iflt | Ifge | Ifgt | Ifle => {
                    self.expect(f, VType::Int)?;
                    take_target(succs, t)?;
                }
                IfIcmpeq | IfIcmpne | IfIcmplt | IfIcmpge | IfIcmpgt | IfIcmple => {
                    self.expect(f, VType::Int)?;
                    self.expect(f, VType::Int)?;
                    take_target(succs, t)?;
                }
                IfAcmpeq | IfAcmpne => {
                    self.expect_ref(f, false)?;
                    self.expect_ref(f, false)?;
                    take_target(succs, t)?;
                }
                Ifnull | Ifnonnull => {
                    self.expect_ref(f, false)?;
                    take_target(succs, t)?;
                }
                other => return fail(format!("bad branch opcode {other}")),
            },
            Insn::Field(op, field) => {
                probe!(self.cov);
                let vt = match field {
                    FieldRef::Ok(access) => match &access.vt {
                        Some(vt) => vt,
                        None => {
                            let desc = &access.member.desc;
                            return fail(format!("bad field descriptor {desc:?}"));
                        }
                    },
                    FieldRef::Unresolved(cpi) => return Err(self.member_fail(*cpi, "field")),
                };
                match op {
                    Getstatic => self.push_any(f, vt.clone())?,
                    Putstatic => self.expect_assignable(f, vt)?,
                    Getfield => {
                        let recv = self.expect_ref(f, false)?;
                        if probe_branch!(self.cov, recv.is_uninitialized()) {
                            return fail("field access on uninitialized object");
                        }
                        self.push_any(f, vt.clone())?;
                    }
                    Putfield => {
                        self.expect_assignable(f, vt)?;
                        let recv = self.expect_ref(f, false)?;
                        // putfield on `this` before super() is legal only
                        // for fields of the current class; we allow it.
                        if probe_branch!(self.cov, matches!(recv, VType::Uninit(_))) {
                            return fail("putfield on uninitialized object");
                        }
                    }
                    other => return fail(format!("bad field opcode {other}")),
                }
            }
            Insn::Invoke { shape, call } => {
                let shape = match shape {
                    Ok(s) => *s,
                    Err(other) => return fail(format!("bad invoke opcode {other}")),
                };
                self.invoke(f, call, shape)?;
            }
            Insn::InvokeDynamic => {
                return fail("invokedynamic is not supported by this VM generation")
            }
            Insn::New(cls) => {
                let name = self.class_name_of(cls)?;
                if probe_branch!(self.cov, self.world.is_interface(&name) == Some(true)) {
                    return fail(format!("new of interface {name}"));
                }
                self.push(f, VType::Uninit(pc))?;
            }
            Insn::NewArray { atype, desc } => {
                if probe_branch!(self.cov, !(4..=11).contains(atype)) {
                    return fail(format!("newarray with bad type code {atype}"));
                }
                self.expect(f, VType::Int)?;
                self.push(f, VType::Ref(desc.clone()))?;
            }
            Insn::ANewArray(cls) => {
                // `Ok` carries the array descriptor; the resolution
                // failure fires before the stack is checked.
                let desc = self.class_name_of(cls)?;
                self.expect(f, VType::Int)?;
                self.push(f, VType::Ref(desc))?;
            }
            Insn::CheckCast(cls) => {
                let name = self.class_name_of(cls)?;
                let v = self.expect_ref(f, false)?;
                if probe_branch!(self.cov, v.is_uninitialized()) {
                    return fail("checkcast on uninitialized object");
                }
                self.push(f, VType::Ref(name))?;
            }
            Insn::InstanceOf(cls) => {
                let _ = self.class_name_of(cls)?;
                let v = self.expect_ref(f, false)?;
                if probe_branch!(self.cov, v.is_uninitialized()) {
                    return fail("instanceof on uninitialized object");
                }
                self.push(f, VType::Int)?;
            }
            Insn::MultiANewArray { dims, vt } => {
                if probe_branch!(self.cov, *dims == 0) {
                    return fail("multianewarray with zero dimensions");
                }
                for _ in 0..*dims {
                    self.expect(f, VType::Int)?;
                }
                self.push(f, VType::Ref(vt.clone()))?;
            }
            Insn::TableSwitch {
                default, targets, ..
            }
            | Insn::LookupSwitch {
                default, targets, ..
            } => {
                self.expect(f, VType::Int)?;
                take_target(succs, default)?;
                for t in targets {
                    take_target(succs, t)?;
                }
                falls_through = false;
            }
        }

        if falls_through {
            probe!(self.cov);
            if probe_branch!(self.cov, idx + 1 >= code.insns.len()) {
                return fail("execution falls off the end of the code");
            }
            succs.push(idx + 1);
        }
        Ok(())
    }

    // ----- stack/local helpers -------------------------------------------

    fn push(&mut self, f: &mut Frame, t: VType) -> VResult<()> {
        if probe_branch!(self.cov, f.stack.len() + 1 > self.code.max_stack as usize) {
            return fail("operand stack overflow (exceeds declared max_stack)");
        }
        f.stack.push(t);
        Ok(())
    }

    fn push_wide(&mut self, f: &mut Frame, t: VType) -> VResult<()> {
        if probe_branch!(self.cov, f.stack.len() + 2 > self.code.max_stack as usize) {
            return fail("operand stack overflow (exceeds declared max_stack)");
        }
        f.stack.push(t);
        f.stack.push(VType::Hi);
        Ok(())
    }

    fn push_any(&mut self, f: &mut Frame, t: VType) -> VResult<()> {
        if t.width() == 2 {
            self.push_wide(f, t)
        } else {
            self.push(f, t)
        }
    }

    fn pop(&mut self, f: &mut Frame) -> VResult<VType> {
        match f.stack.pop() {
            Some(t) => Ok(t),
            None => {
                probe!(self.cov);
                fail("operand stack underflow")
            }
        }
    }

    /// Pops a category-1 value.
    fn pop1(&mut self, f: &mut Frame) -> VResult<VType> {
        let t = self.pop(f)?;
        if probe_branch!(self.cov, t == VType::Hi || t.width() == 2) {
            return fail("expected a category-1 value");
        }
        Ok(t)
    }

    fn expect(&mut self, f: &mut Frame, want: VType) -> VResult<()> {
        let got = self.pop(f)?;
        if probe_branch!(self.cov, got != want) {
            return fail(format!("expected {want:?} on stack, found {got:?}"));
        }
        Ok(())
    }

    fn expect_wide(&mut self, f: &mut Frame, want: VType) -> VResult<()> {
        let hi = self.pop(f)?;
        if probe_branch!(self.cov, hi != VType::Hi) {
            return fail("expected the upper half of a category-2 value");
        }
        self.expect(f, want)
    }

    fn expect_ref(&mut self, f: &mut Frame, _allow_null_only: bool) -> VResult<VType> {
        let got = self.pop(f)?;
        if probe_branch!(self.cov, !got.is_reference()) {
            return fail(format!("expected a reference on stack, found {got:?}"));
        }
        Ok(got)
    }

    fn expect_array(&mut self, f: &mut Frame) -> VResult<VType> {
        let got = self.expect_ref(f, false)?;
        let ok = matches!(&got, VType::Null) || matches!(&got, VType::Ref(n) if n.starts_with('['));
        if probe_branch!(self.cov, !ok) {
            return fail(format!("expected an array reference, found {got:?}"));
        }
        Ok(got)
    }

    /// Pops a value that must be assignable to the declared type `want`.
    fn expect_assignable(&mut self, f: &mut Frame, want: &VType) -> VResult<()> {
        if want.width() == 2 {
            return self.expect_wide(f, want.clone());
        }
        let got = self.pop(f)?;
        self.check_assignable(&got, want)
    }

    fn check_assignable(&mut self, got: &VType, want: &VType) -> VResult<()> {
        probe!(self.cov);
        match (want, got) {
            (VType::Int, VType::Int)
            | (VType::Float, VType::Float)
            | (VType::Long, VType::Long)
            | (VType::Double, VType::Double) => Ok(()),
            (VType::Ref(_), VType::Null) => Ok(()),
            (VType::Ref(target), VType::Ref(src)) => {
                let both_known = self.world.exists(target) && self.world.exists(src);
                if probe_branch!(self.cov, both_known) {
                    if probe_branch!(self.cov, self.world.is_subtype(src, target)) {
                        Ok(())
                    } else if self.spec.check_param_cast {
                        // GIJ: provably incompatible reference types.
                        fail(format!(
                            "incompatible type: {src} is not assignable to {target}"
                        ))
                    } else if probe_branch!(self.cov, self.world.is_interface(target) == Some(true))
                    {
                        // Interfaces are checked at runtime, not by the
                        // verifier (JVMS: invokeinterface does the check).
                        Ok(())
                    } else if self.world.is_subtype(target, src) {
                        // Downcast-shaped flows are tolerated by the lenient
                        // inference verifier.
                        Ok(())
                    } else {
                        fail(format!("{src} is not assignable to {target}"))
                    }
                } else if probe_branch!(self.cov, self.spec.check_param_cast) {
                    // Strict mode: unknown classes are compatible only
                    // nominally.
                    if src == target || &**target == "java/lang/Object" {
                        Ok(())
                    } else {
                        fail(format!(
                            "cannot prove {src} assignable to {target} (unsafe type casting)"
                        ))
                    }
                } else {
                    Ok(()) // lenient: assume assignable, resolve at runtime
                }
            }
            (VType::Ref(_), v) if v.is_uninitialized() => {
                fail("using an uninitialized object where a value is required")
            }
            _ => fail(format!("expected {want:?}, found {got:?}")),
        }
    }

    fn check_local(&mut self, f: &mut Frame, slot: u16, want: &VType) -> VResult<()> {
        let slot = slot as usize;
        if probe_branch!(self.cov, slot >= f.locals.len()) {
            return fail("local variable index out of bounds");
        }
        if probe_branch!(self.cov, &f.locals[slot] != want) {
            return fail(format!(
                "local {slot} holds {:?}, expected {want:?}",
                f.locals[slot]
            ));
        }
        Ok(())
    }

    fn load(&mut self, f: &mut Frame, slot: u16, want: VType) -> VResult<()> {
        let wide = want.width() == 2;
        self.check_local(f, slot, &want)?;
        if wide {
            if probe_branch!(
                self.cov,
                f.locals.get(slot as usize + 1) != Some(&VType::Hi)
            ) {
                return fail("category-2 local is missing its upper half");
            }
            self.push_wide(f, want)
        } else {
            self.push(f, want)
        }
    }

    fn load_ref(&mut self, f: &mut Frame, slot: u16) -> VResult<()> {
        let slot_us = slot as usize;
        if probe_branch!(self.cov, slot_us >= f.locals.len()) {
            return fail("local variable index out of bounds");
        }
        let t = f.locals[slot_us].clone();
        if probe_branch!(self.cov, !t.is_reference()) {
            return fail(format!("aload of non-reference local {slot} ({t:?})"));
        }
        self.push(f, t)
    }

    fn store(&mut self, f: &mut Frame, slot: u16, want: VType) -> VResult<()> {
        let wide = want.width() == 2;
        if wide {
            self.expect_wide(f, want.clone())?;
        } else {
            self.expect(f, want.clone())?;
        }
        self.set_local(f, slot, want)
    }

    fn store_ref(&mut self, f: &mut Frame, slot: u16) -> VResult<()> {
        let t = self.expect_ref(f, false)?;
        self.set_local(f, slot, t)
    }

    fn set_local(&mut self, f: &mut Frame, slot: u16, t: VType) -> VResult<()> {
        let slot = slot as usize;
        let w = t.width();
        if probe_branch!(self.cov, slot + w > f.locals.len()) {
            return fail("local variable index out of bounds for store");
        }
        // Clobber the other half of any wide value we are overwriting.
        if slot > 0 && f.locals[slot] == VType::Hi {
            f.locals[slot - 1] = VType::Top;
        }
        if w == 2 {
            f.locals[slot] = t;
            f.locals[slot + 1] = VType::Hi;
        } else {
            if f.locals[slot].width() == 2 && slot + 1 < f.locals.len() {
                f.locals[slot + 1] = VType::Top;
            }
            f.locals[slot] = t;
        }
        Ok(())
    }

    fn check_return(&mut self, f: &mut Frame, kind: Option<VType>) -> VResult<()> {
        probe!(self.cov);
        let sig = self.sig;
        match (&sig.ret_vt, kind) {
            (None, None) => {}
            (Some(_), None) => return fail("return in a method expecting a value"),
            (None, Some(_)) => return fail("value return in a void method"),
            (Some(ret), Some(VType::Null)) => {
                // areturn: pop a reference assignable to the return type.
                let got = self.expect_ref(f, false)?;
                if probe_branch!(self.cov, got.is_uninitialized()) {
                    return fail("returning an uninitialized object");
                }
                let ret = ret.clone();
                if let (VType::Ref(_), VType::Ref(_)) = (&got, &ret) {
                    self.check_assignable(&got, &ret)?;
                } else if !matches!(ret, VType::Ref(_)) {
                    return fail("areturn in a method returning a primitive");
                }
            }
            (Some(ret), Some(want)) => {
                let ret_v = ret.clone();
                if probe_branch!(self.cov, ret_v != want) {
                    return fail(format!(
                        "return opcode for {want:?} in a method returning {ret_v:?}"
                    ));
                }
                if want.width() == 2 {
                    self.expect_wide(f, want)?;
                } else {
                    self.expect(f, want)?;
                }
            }
        }
        // In <init>, `this` must be initialized before any return.
        if probe_branch!(
            self.cov,
            self.is_init && f.locals.first() == Some(&VType::UninitThis)
        ) {
            return fail("constructor returns before calling super()");
        }
        Ok(())
    }

    // ----- decoded-fact helpers -------------------------------------------

    /// The single shared failure site for unresolvable class references
    /// (`new` / `anewarray` / `checkcast` / `instanceof`), matching the
    /// old `class_at` helper's one probe.
    fn class_name_of(&mut self, cls: &ClassRef) -> VResult<Arc<str>> {
        match cls {
            ClassRef::Ok(n) => Ok(n.clone()),
            ClassRef::Unresolved(cpi) => {
                probe!(self.cov);
                fail(format!("constant pool entry {cpi} is not a class"))
            }
        }
    }

    /// The single shared failure site for unresolvable member references
    /// (fields and methods), matching the old `member` helper's one probe.
    fn member_fail(&mut self, cpi: ConstIndex, what: &str) -> VerifyFail {
        probe!(self.cov);
        VerifyFail::Reject(format!(
            "constant pool entry {cpi} is not a {what} reference"
        ))
    }

    fn invoke(&mut self, f: &mut Frame, call: &CallRef, shape: InvokeShape) -> VResult<()> {
        probe!(self.cov);
        let call = match call {
            CallRef::Ok(c) => c,
            CallRef::Unresolved(cpi) => return Err(self.member_fail(*cpi, "method")),
            CallRef::BadDesc(desc) => return fail(format!("bad method descriptor {desc:?}")),
        };
        if probe_branch!(self.cov, call.is_init && shape != InvokeShape::Special) {
            return fail("<init> may only be invoked by invokespecial");
        }
        // Pop arguments right-to-left, checking assignability — the check
        // GIJ applies strictly (Problem 2's M1433982529 example).
        for p in call.param_vts.iter().rev() {
            self.expect_assignable(f, p)?;
        }
        // Receiver.
        if shape != InvokeShape::Static {
            let recv = self.expect_ref(f, false)?;
            if call.is_init {
                probe!(self.cov);
                match recv {
                    VType::Uninit(alloc_pc) => {
                        let class = call.member.class.clone();
                        replace_types(f, &VType::Uninit(alloc_pc), VType::Ref(class));
                    }
                    VType::UninitThis => {
                        let this = self.code.class_name.clone();
                        replace_types(f, &VType::UninitThis, VType::Ref(this));
                    }
                    _ => {
                        probe!(self.cov);
                        return fail("<init> called on an initialized object");
                    }
                }
            } else if probe_branch!(self.cov, recv.is_uninitialized()) {
                return fail("method invocation on uninitialized object");
            } else if let VType::Ref(recv_name) = &recv {
                // Receiver compatibility — lenient about unknown classes.
                let class = &call.member.class;
                let both_known = self.world.exists(recv_name) && self.world.exists(class);
                let iface_target = self.world.is_interface(class) == Some(true);
                if probe_branch!(
                    self.cov,
                    both_known
                        && !iface_target
                        && !class.starts_with('[')
                        && !recv_name.starts_with('[')
                        && !self.world.is_subtype(recv_name, class)
                        && !self.world.is_subtype(class, recv_name)
                ) {
                    return fail(format!("receiver {recv_name} is incompatible with {class}"));
                }
            }
        }
        if let Some(ret) = &call.ret_vt {
            self.push_any(f, ret.clone())?;
        }
        Ok(())
    }
}

fn replace_types(f: &mut Frame, from: &VType, to: VType) {
    for slot in f.locals.iter_mut().chain(f.stack.iter_mut()) {
        if slot == from {
            *slot = to.clone();
        }
    }
}

fn array_element(arr: &VType) -> VType {
    match arr {
        VType::Ref(n) if n.starts_with('[') => {
            let elem = &n[1..];
            match FieldType::parse(elem) {
                Ok(ft) => vtype_of(&ft),
                Err(_) => VType::Ref("java/lang/Object".into()),
            }
        }
        _ => VType::Ref("java/lang/Object".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use classfuzz_jimple::{lower::lower_class, IrClass};

    fn verify(class: &IrClass, spec: &VmSpec) -> Result<(), Outcome> {
        let user = UserClass::summarize(lower_class(class));
        let world = World::new(spec, vec![user]);
        let user = world.user_class(&class.name).unwrap();
        verify_class(&world, user, spec, &mut Cov::disabled())
    }

    /// The slots the thread's workspace keeps between runs.
    fn retained_slots() -> usize {
        WORKSPACE.with(|cell| {
            let mut ws = cell.take();
            let slots = ws.recycle();
            cell.set(ws);
            slots
        })
    }

    #[test]
    fn workspace_keeps_at_most_its_budget() {
        use classfuzz_classfile::attributes::CodeAttribute;
        use classfuzz_classfile::{Instruction, MethodAccess, Opcode};
        let spec = VmSpec::hotspot9();
        let hello = IrClass::with_hello_main("v/Small", "Completed!");
        assert!(verify(&hello, &spec).is_ok());
        let kept = retained_slots();
        assert!(kept > 0, "a small run keeps its workspace for the next");
        assert!(kept <= WORKSPACE_SLOT_BUDGET);

        // The largest declared `max_locals`: every frame carries 65535
        // slots, far past the budget.
        let cf = classfuzz_classfile::ClassFile::builder("v/Wide")
            .super_class("java/lang/Object")
            .method(
                MethodAccess::STATIC,
                "m",
                "()V",
                CodeAttribute {
                    max_stack: 0,
                    max_locals: u16::MAX,
                    instructions: vec![
                        Instruction::Simple(Opcode::Nop),
                        Instruction::Simple(Opcode::Nop),
                        Instruction::Simple(Opcode::Return),
                    ],
                    exception_table: vec![],
                    attributes: vec![],
                },
            )
            .build();
        let user = UserClass::summarize(cf);
        let world = World::new(&spec, vec![]);
        let m = user.methods[0].clone();
        assert!(verify_method(&world, &user, &m, &spec, &mut Cov::disabled()).is_ok());
        assert!(
            retained_slots() <= WORKSPACE_SLOT_BUDGET,
            "a run past the budget must not stay resident"
        );
        // The next run starts over and still verifies.
        assert!(verify(&hello, &spec).is_ok());
    }

    #[test]
    fn valid_hello_verifies_on_all() {
        let c = IrClass::with_hello_main("v/Hello", "Completed!");
        for spec in VmSpec::all_five() {
            assert!(
                verify(&c, &spec).is_ok(),
                "{} rejected valid code",
                spec.name
            );
        }
    }

    #[test]
    fn cold_verification_matches_shared_analysis() {
        let c = IrClass::with_hello_main("v/ColdEq", "Completed!");
        let user = UserClass::summarize(lower_class(&c));
        for spec in VmSpec::all_five() {
            let world = World::new(&spec, vec![user.clone()]);
            let user = world.user_class(&c.name).unwrap();
            let shared = verify_class(&world, user, &spec, &mut Cov::disabled());
            let cold = verify_class_cold(&world, user, &spec, &mut Cov::disabled());
            assert_eq!(shared.is_ok(), cold.is_ok(), "on {}", spec.name);
            // A rerun hits the warm decoded table and agrees again.
            let warm = verify_class(&world, user, &spec, &mut Cov::disabled());
            assert_eq!(shared.is_ok(), warm.is_ok(), "warm rerun on {}", spec.name);
        }
    }

    #[test]
    fn type_confused_local_fails_verification() {
        use classfuzz_jimple::*;
        // The paper's Table 2 local-variable mutation: declare the local as
        // String but store an int into it; the later aload sees an Int slot.
        let mut c = IrClass::new("v/Conf");
        let mut body = Body::new();
        body.declare("x", JType::string());
        body.stmts.push(Stmt::Assign {
            target: Target::Local("x".into()),
            value: Expr::Use(Value::int(3)),
        });
        body.stmts.push(Stmt::Assign {
            target: Target::Local("y".into()),
            value: Expr::Use(Value::local("x")), // aload of an Int slot
        });
        body.declare("y", JType::string());
        body.stmts.push(Stmt::Return(None));
        c.methods.push(IrMethod {
            access: classfuzz_classfile::MethodAccess::PUBLIC
                | classfuzz_classfile::MethodAccess::STATIC,
            name: "m".into(),
            params: vec![],
            ret: None,
            exceptions: vec![],
            body: Some(body),
        });
        let out = verify(&c, &VmSpec::hotspot9());
        assert!(matches!(
            out,
            Err(Outcome::Rejected { phase: Phase::Linking, ref error })
                if error.kind == JvmErrorKind::VerifyError
        ));
    }

    #[test]
    fn problem2_param_cast_gij_strict_hotspot_lenient() {
        use classfuzz_jimple::*;
        // M1433982529: pass a String where an unknown class declares Map.
        let mut c = IrClass::new("v/M1433982529");
        let mut body = Body::new();
        body.declare("s", JType::string());
        body.stmts.push(Stmt::Assign {
            target: Target::Local("s".into()),
            value: Expr::Use(Value::str("x")),
        });
        body.stmts.push(Stmt::Invoke(InvokeExpr {
            kind: InvokeKind::Static,
            class: "unknown/Helper".into(),
            name: "getBoolean".into(),
            params: vec![JType::object("java/util/Map")],
            ret: Some(JType::Boolean),
            receiver: None,
            args: vec![Value::local("s")],
        }));
        body.stmts.push(Stmt::Return(None));
        c.methods.push(IrMethod {
            access: classfuzz_classfile::MethodAccess::PUBLIC
                | classfuzz_classfile::MethodAccess::STATIC,
            name: "m".into(),
            params: vec![],
            ret: None,
            exceptions: vec![],
            body: Some(body),
        });
        assert!(
            verify(&c, &VmSpec::hotspot9()).is_ok(),
            "HotSpot misses the bad cast"
        );
        assert!(
            verify(&c, &VmSpec::gij()).is_err(),
            "GIJ catches the bad cast"
        );
    }

    #[test]
    fn stack_underflow_detected() {
        use classfuzz_classfile::attributes::CodeAttribute;
        use classfuzz_classfile::{Instruction, MethodAccess, Opcode};
        let cf = classfuzz_classfile::ClassFile::builder("v/Under")
            .super_class("java/lang/Object")
            .method(
                MethodAccess::STATIC,
                "m",
                "()V",
                CodeAttribute {
                    max_stack: 2,
                    max_locals: 0,
                    instructions: vec![
                        Instruction::Simple(Opcode::Pop),
                        Instruction::Simple(Opcode::Return),
                    ],
                    exception_table: vec![],
                    attributes: vec![],
                },
            )
            .build();
        let spec = VmSpec::hotspot9();
        let user = UserClass::summarize(cf);
        let world = World::new(&spec, vec![]);
        let m = user.methods[0].clone();
        assert!(verify_method(&world, &user, &m, &spec, &mut Cov::disabled()).is_err());
    }

    #[test]
    fn falling_off_end_detected() {
        use classfuzz_classfile::attributes::CodeAttribute;
        use classfuzz_classfile::{Instruction, MethodAccess, Opcode};
        let cf = classfuzz_classfile::ClassFile::builder("v/Fall")
            .super_class("java/lang/Object")
            .method(
                MethodAccess::STATIC,
                "m",
                "()V",
                CodeAttribute {
                    max_stack: 1,
                    max_locals: 0,
                    instructions: vec![Instruction::Simple(Opcode::Iconst0)],
                    exception_table: vec![],
                    attributes: vec![],
                },
            )
            .build();
        let spec = VmSpec::hotspot9();
        let user = UserClass::summarize(cf);
        let world = World::new(&spec, vec![]);
        let m = user.methods[0].clone();
        let err = verify_method(&world, &user, &m, &spec, &mut Cov::disabled());
        assert!(matches!(err, Err(Outcome::Rejected { .. })));
    }

    #[test]
    fn declared_max_stack_enforced() {
        use classfuzz_classfile::attributes::CodeAttribute;
        use classfuzz_classfile::{Instruction, MethodAccess, Opcode};
        let cf = classfuzz_classfile::ClassFile::builder("v/Deep")
            .super_class("java/lang/Object")
            .method(
                MethodAccess::STATIC,
                "m",
                "()V",
                CodeAttribute {
                    max_stack: 1,
                    max_locals: 0,
                    instructions: vec![
                        Instruction::Simple(Opcode::Iconst0),
                        Instruction::Simple(Opcode::Iconst1),
                        Instruction::Simple(Opcode::Pop),
                        Instruction::Simple(Opcode::Pop),
                        Instruction::Simple(Opcode::Return),
                    ],
                    exception_table: vec![],
                    attributes: vec![],
                },
            )
            .build();
        let spec = VmSpec::hotspot9();
        let user = UserClass::summarize(cf);
        let world = World::new(&spec, vec![]);
        let m = user.methods[0].clone();
        assert!(verify_method(&world, &user, &m, &spec, &mut Cov::disabled()).is_err());
    }

    #[test]
    fn uninitialized_object_use_rejected() {
        use classfuzz_jimple::*;
        // new without <init>, then invokevirtual on it.
        let mut c = IrClass::new("v/Uninit");
        let mut body = Body::new();
        body.declare("o", JType::object("java/lang/Thread"));
        body.stmts.push(Stmt::Assign {
            target: Target::Local("o".into()),
            value: Expr::New("java/lang/Thread".into()),
        });
        body.stmts.push(Stmt::Invoke(InvokeExpr {
            kind: InvokeKind::Virtual,
            class: "java/lang/Thread".into(),
            name: "start".into(),
            params: vec![],
            ret: None,
            receiver: Some(Value::local("o")),
            args: vec![],
        }));
        body.stmts.push(Stmt::Return(None));
        c.methods.push(IrMethod {
            access: classfuzz_classfile::MethodAccess::STATIC,
            name: "m".into(),
            params: vec![],
            ret: None,
            exceptions: vec![],
            body: Some(body),
        });
        assert!(verify(&c, &VmSpec::hotspot9()).is_err());
    }

    #[test]
    fn jsr_rejected_in_version_51() {
        use classfuzz_classfile::attributes::CodeAttribute;
        use classfuzz_classfile::{Instruction, MethodAccess, Opcode};
        let cf = classfuzz_classfile::ClassFile::builder("v/Jsr")
            .super_class("java/lang/Object")
            .method(
                MethodAccess::STATIC,
                "m",
                "()V",
                CodeAttribute {
                    max_stack: 1,
                    max_locals: 0,
                    instructions: vec![
                        Instruction::Branch(Opcode::Jsr, 3),
                        Instruction::Simple(Opcode::Return),
                    ],
                    exception_table: vec![],
                    attributes: vec![],
                },
            )
            .build();
        let spec = VmSpec::hotspot9();
        let user = UserClass::summarize(cf);
        let world = World::new(&spec, vec![]);
        let m = user.methods[0].clone();
        assert!(verify_method(&world, &user, &m, &spec, &mut Cov::disabled()).is_err());
    }
}
