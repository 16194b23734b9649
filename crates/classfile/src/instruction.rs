//! Decoded JVM instructions and the code-array codec (JVMS §4.7.3, §6.5).
//!
//! [`Instruction`] is a fully decoded instruction: constant-pool operands are
//! symbolic [`ConstIndex`] values, branch targets are *absolute* code offsets
//! (decoding converts the relative offsets the format stores), and `wide`
//! variants are folded into their base instruction with a widened operand.

use std::fmt;

use crate::constant_pool::ConstIndex;
use crate::error::ClassReadError;
use crate::opcode::{Opcode, OperandKind};

/// Decoded `tableswitch` operands with absolute jump targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSwitch {
    /// Absolute target when the key is out of range.
    pub default: u32,
    /// Lowest key covered by the jump table.
    pub low: i32,
    /// Highest key covered by the jump table.
    pub high: i32,
    /// Absolute targets for keys `low..=high`, in order.
    pub targets: Vec<u32>,
}

/// Decoded `lookupswitch` operands with absolute jump targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupSwitch {
    /// Absolute target when no pair matches.
    pub default: u32,
    /// `(match, absolute target)` pairs, sorted by match value in valid files.
    pub pairs: Vec<(i32, u32)>,
}

/// One decoded JVM instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instruction {
    /// Any opcode with no operands (`nop`, `iconst_0`, `iadd`, `return`, …).
    Simple(Opcode),
    /// `bipush` with its signed byte.
    Bipush(i8),
    /// `sipush` with its signed short.
    Sipush(i16),
    /// `ldc` (single-byte constant-pool index).
    Ldc(ConstIndex),
    /// `ldc_w`.
    LdcW(ConstIndex),
    /// `ldc2_w`.
    Ldc2W(ConstIndex),
    /// A local-variable instruction (`iload`, `astore`, `ret`, …) with its
    /// local index. Indexes above 255 are encoded with a `wide` prefix.
    Local(Opcode, u16),
    /// `iinc` (wide-aware).
    Iinc {
        /// Local-variable index.
        index: u16,
        /// Signed increment.
        delta: i16,
    },
    /// A branch with an **absolute** target offset into the code array.
    Branch(Opcode, u32),
    /// A field-access instruction (`getstatic`…`putfield`).
    Field(Opcode, ConstIndex),
    /// `invokevirtual`, `invokespecial`, or `invokestatic`.
    Invoke(Opcode, ConstIndex),
    /// `invokeinterface` with its historical count byte.
    InvokeInterface {
        /// Constant-pool index of the `InterfaceMethodref`.
        index: ConstIndex,
        /// Argument-slot count byte (including the receiver).
        count: u8,
    },
    /// `invokedynamic`.
    InvokeDynamic(ConstIndex),
    /// `new`.
    New(ConstIndex),
    /// `anewarray`.
    ANewArray(ConstIndex),
    /// `checkcast`.
    CheckCast(ConstIndex),
    /// `instanceof`.
    InstanceOf(ConstIndex),
    /// `newarray` with its primitive-type code (4 = boolean … 11 = long).
    NewArray(u8),
    /// `multianewarray`.
    MultiANewArray {
        /// Constant-pool index of the array class.
        index: ConstIndex,
        /// Number of dimensions to create.
        dims: u8,
    },
    /// `tableswitch`.
    TableSwitch(TableSwitch),
    /// `lookupswitch`.
    LookupSwitch(LookupSwitch),
}

impl Instruction {
    /// The opcode of this instruction.
    pub fn opcode(&self) -> Opcode {
        match self {
            Instruction::Simple(op)
            | Instruction::Local(op, _)
            | Instruction::Branch(op, _)
            | Instruction::Field(op, _)
            | Instruction::Invoke(op, _) => *op,
            Instruction::Bipush(_) => Opcode::Bipush,
            Instruction::Sipush(_) => Opcode::Sipush,
            Instruction::Ldc(_) => Opcode::Ldc,
            Instruction::LdcW(_) => Opcode::LdcW,
            Instruction::Ldc2W(_) => Opcode::Ldc2W,
            Instruction::Iinc { .. } => Opcode::Iinc,
            Instruction::InvokeInterface { .. } => Opcode::Invokeinterface,
            Instruction::InvokeDynamic(_) => Opcode::Invokedynamic,
            Instruction::New(_) => Opcode::New,
            Instruction::ANewArray(_) => Opcode::Anewarray,
            Instruction::CheckCast(_) => Opcode::Checkcast,
            Instruction::InstanceOf(_) => Opcode::Instanceof,
            Instruction::NewArray(_) => Opcode::Newarray,
            Instruction::MultiANewArray { .. } => Opcode::Multianewarray,
            Instruction::TableSwitch(_) => Opcode::Tableswitch,
            Instruction::LookupSwitch(_) => Opcode::Lookupswitch,
        }
    }

    /// Encoded size in bytes when the instruction starts at `pc`
    /// (switch padding depends on the start offset).
    pub fn encoded_len(&self, pc: u32) -> u32 {
        match self {
            Instruction::Simple(_) => 1,
            Instruction::Bipush(_) | Instruction::Ldc(_) | Instruction::NewArray(_) => 2,
            Instruction::Sipush(_)
            | Instruction::LdcW(_)
            | Instruction::Ldc2W(_)
            | Instruction::Field(..)
            | Instruction::Invoke(..)
            | Instruction::New(_)
            | Instruction::ANewArray(_)
            | Instruction::CheckCast(_)
            | Instruction::InstanceOf(_) => 3,
            Instruction::Local(_, index) => {
                if *index > 0xff {
                    4 // wide prefix
                } else {
                    2
                }
            }
            Instruction::Iinc { index, delta } => {
                if *index > 0xff || *delta > i8::MAX as i16 || *delta < i8::MIN as i16 {
                    6 // wide prefix
                } else {
                    3
                }
            }
            Instruction::Branch(op, _) => match op.operand_kind() {
                OperandKind::Branch4 => 5,
                _ => 3,
            },
            Instruction::InvokeInterface { .. } | Instruction::InvokeDynamic(_) => 5,
            Instruction::MultiANewArray { .. } => 4,
            Instruction::TableSwitch(ts) => {
                let pad = pad_after(pc);
                1 + pad + 12 + 4 * ts.targets.len() as u32
            }
            Instruction::LookupSwitch(ls) => {
                let pad = pad_after(pc);
                1 + pad + 8 + 8 * ls.pairs.len() as u32
            }
        }
    }

    /// Appends the encoded bytes to `out`, assuming the instruction starts at
    /// code offset `pc`.
    pub fn encode(&self, pc: u32, out: &mut Vec<u8>) {
        match self {
            Instruction::Simple(op) => out.push(op.byte()),
            Instruction::Bipush(v) => {
                out.push(Opcode::Bipush.byte());
                out.push(*v as u8);
            }
            Instruction::Sipush(v) => {
                out.push(Opcode::Sipush.byte());
                out.extend_from_slice(&v.to_be_bytes());
            }
            Instruction::Ldc(idx) => {
                out.push(Opcode::Ldc.byte());
                out.push(idx.0 as u8);
            }
            Instruction::LdcW(idx) => {
                out.push(Opcode::LdcW.byte());
                out.extend_from_slice(&idx.0.to_be_bytes());
            }
            Instruction::Ldc2W(idx) => {
                out.push(Opcode::Ldc2W.byte());
                out.extend_from_slice(&idx.0.to_be_bytes());
            }
            Instruction::Local(op, index) => {
                if *index > 0xff {
                    out.push(Opcode::Wide.byte());
                    out.push(op.byte());
                    out.extend_from_slice(&index.to_be_bytes());
                } else {
                    out.push(op.byte());
                    out.push(*index as u8);
                }
            }
            Instruction::Iinc { index, delta } => {
                if *index > 0xff || *delta > i8::MAX as i16 || *delta < i8::MIN as i16 {
                    out.push(Opcode::Wide.byte());
                    out.push(Opcode::Iinc.byte());
                    out.extend_from_slice(&index.to_be_bytes());
                    out.extend_from_slice(&delta.to_be_bytes());
                } else {
                    out.push(Opcode::Iinc.byte());
                    out.push(*index as u8);
                    out.push(*delta as i8 as u8);
                }
            }
            Instruction::Branch(op, target) => {
                let rel = *target as i64 - pc as i64;
                match op.operand_kind() {
                    OperandKind::Branch4 => {
                        out.push(op.byte());
                        out.extend_from_slice(&(rel as i32).to_be_bytes());
                    }
                    _ => {
                        out.push(op.byte());
                        out.extend_from_slice(&(rel as i16).to_be_bytes());
                    }
                }
            }
            Instruction::Field(op, idx) | Instruction::Invoke(op, idx) => {
                out.push(op.byte());
                out.extend_from_slice(&idx.0.to_be_bytes());
            }
            Instruction::InvokeInterface { index, count } => {
                out.push(Opcode::Invokeinterface.byte());
                out.extend_from_slice(&index.0.to_be_bytes());
                out.push(*count);
                out.push(0);
            }
            Instruction::InvokeDynamic(idx) => {
                out.push(Opcode::Invokedynamic.byte());
                out.extend_from_slice(&idx.0.to_be_bytes());
                out.push(0);
                out.push(0);
            }
            Instruction::New(idx) => encode_cp_u2(Opcode::New, *idx, out),
            Instruction::ANewArray(idx) => encode_cp_u2(Opcode::Anewarray, *idx, out),
            Instruction::CheckCast(idx) => encode_cp_u2(Opcode::Checkcast, *idx, out),
            Instruction::InstanceOf(idx) => encode_cp_u2(Opcode::Instanceof, *idx, out),
            Instruction::NewArray(atype) => {
                out.push(Opcode::Newarray.byte());
                out.push(*atype);
            }
            Instruction::MultiANewArray { index, dims } => {
                out.push(Opcode::Multianewarray.byte());
                out.extend_from_slice(&index.0.to_be_bytes());
                out.push(*dims);
            }
            Instruction::TableSwitch(ts) => {
                out.push(Opcode::Tableswitch.byte());
                for _ in 0..pad_after(pc) {
                    out.push(0);
                }
                out.extend_from_slice(&(ts.default as i64 - pc as i64).to_be_bytes()[4..]);
                out.extend_from_slice(&ts.low.to_be_bytes());
                out.extend_from_slice(&ts.high.to_be_bytes());
                for t in &ts.targets {
                    out.extend_from_slice(&(*t as i64 - pc as i64).to_be_bytes()[4..]);
                }
            }
            Instruction::LookupSwitch(ls) => {
                out.push(Opcode::Lookupswitch.byte());
                for _ in 0..pad_after(pc) {
                    out.push(0);
                }
                out.extend_from_slice(&(ls.default as i64 - pc as i64).to_be_bytes()[4..]);
                out.extend_from_slice(&(ls.pairs.len() as i32).to_be_bytes());
                for (k, t) in &ls.pairs {
                    out.extend_from_slice(&k.to_be_bytes());
                    out.extend_from_slice(&(*t as i64 - pc as i64).to_be_bytes()[4..]);
                }
            }
        }
    }
}

fn encode_cp_u2(op: Opcode, idx: ConstIndex, out: &mut Vec<u8>) {
    out.push(op.byte());
    out.extend_from_slice(&idx.0.to_be_bytes());
}

/// Number of padding bytes between a switch opcode at `pc` and its operands.
fn pad_after(pc: u32) -> u32 {
    (4 - (pc + 1) % 4) % 4
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = self.opcode();
        match self {
            Instruction::Simple(_) => write!(f, "{op}"),
            Instruction::Bipush(v) => write!(f, "{op} {v}"),
            Instruction::Sipush(v) => write!(f, "{op} {v}"),
            Instruction::Ldc(i) | Instruction::LdcW(i) | Instruction::Ldc2W(i) => {
                write!(f, "{op} {i}")
            }
            Instruction::Local(_, i) => write!(f, "{op} {i}"),
            Instruction::Iinc { index, delta } => write!(f, "{op} {index}, {delta}"),
            Instruction::Branch(_, t) => write!(f, "{op} {t}"),
            Instruction::Field(_, i) | Instruction::Invoke(_, i) => write!(f, "{op} {i}"),
            Instruction::InvokeInterface { index, count } => {
                write!(f, "{op} {index}, {count}")
            }
            Instruction::InvokeDynamic(i) => write!(f, "{op} {i}"),
            Instruction::New(i)
            | Instruction::ANewArray(i)
            | Instruction::CheckCast(i)
            | Instruction::InstanceOf(i) => write!(f, "{op} {i}"),
            Instruction::NewArray(t) => write!(f, "{op} {t}"),
            Instruction::MultiANewArray { index, dims } => {
                write!(f, "{op} {index}, {dims}")
            }
            Instruction::TableSwitch(ts) => {
                write!(
                    f,
                    "{op} [{}..{}] default -> {}",
                    ts.low, ts.high, ts.default
                )
            }
            Instruction::LookupSwitch(ls) => {
                write!(
                    f,
                    "{op} ({} pairs) default -> {}",
                    ls.pairs.len(),
                    ls.default
                )
            }
        }
    }
}

/// Decodes a whole code array into `(pc, instruction)` pairs.
///
/// Branch and switch targets are converted to absolute offsets; `wide`
/// prefixes are folded into their base instructions.
///
/// # Errors
///
/// Returns [`ClassReadError`] on unknown opcodes, truncated operands, or an
/// invalid `wide` target. Code that decodes cleanly may still be semantically
/// invalid (e.g. branches into the middle of an instruction) — detecting that
/// is the verifier's job.
pub fn decode_code(code: &[u8]) -> Result<Vec<(u32, Instruction)>, ClassReadError> {
    let mut out = Vec::new();
    decode_each(code, |pc, insn| out.push((pc, insn)))?;
    Ok(out)
}

/// Decodes a whole code array into its instructions alone — the reader's
/// form of [`decode_code`], with no `(pc, instruction)` pairs to strip.
pub(crate) fn decode_instructions(code: &[u8]) -> Result<Vec<Instruction>, ClassReadError> {
    // Instructions average about two bytes; presizing for that spares
    // most methods every regrowth step.
    let mut out = Vec::with_capacity(code.len() / 2 + 1);
    decode_each(code, |_, insn| out.push(insn))?;
    Ok(out)
}

/// The decode loop behind [`decode_code`] and [`decode_instructions`]:
/// hands each instruction, with the pc of its opcode, to `sink`.
fn decode_each(code: &[u8], mut sink: impl FnMut(u32, Instruction)) -> Result<(), ClassReadError> {
    let mut pc = 0usize;
    while pc < code.len() {
        let start = pc;
        let byte = code[pc];
        let op =
            Opcode::from_byte(byte).ok_or(ClassReadError::UnknownOpcode { opcode: byte, pc })?;
        pc += 1;
        let trunc = || ClassReadError::TruncatedInstruction { pc: start };
        let insn = match op.operand_kind() {
            OperandKind::None => Instruction::Simple(op),
            OperandKind::I1 => {
                let v = *code.get(pc).ok_or_else(trunc)? as i8;
                pc += 1;
                Instruction::Bipush(v)
            }
            OperandKind::I2 => {
                let v = read_i16(code, &mut pc).ok_or_else(trunc)?;
                Instruction::Sipush(v)
            }
            OperandKind::CpU1 => {
                let v = *code.get(pc).ok_or_else(trunc)?;
                pc += 1;
                Instruction::Ldc(ConstIndex(v as u16))
            }
            OperandKind::CpU2 => {
                let idx = ConstIndex(read_u16(code, &mut pc).ok_or_else(trunc)?);
                match op {
                    Opcode::LdcW => Instruction::LdcW(idx),
                    Opcode::Ldc2W => Instruction::Ldc2W(idx),
                    Opcode::Getstatic | Opcode::Putstatic | Opcode::Getfield | Opcode::Putfield => {
                        Instruction::Field(op, idx)
                    }
                    Opcode::Invokevirtual | Opcode::Invokespecial | Opcode::Invokestatic => {
                        Instruction::Invoke(op, idx)
                    }
                    Opcode::New => Instruction::New(idx),
                    Opcode::Anewarray => Instruction::ANewArray(idx),
                    Opcode::Checkcast => Instruction::CheckCast(idx),
                    Opcode::Instanceof => Instruction::InstanceOf(idx),
                    _ => unreachable!("CpU2 covers a fixed opcode set"),
                }
            }
            OperandKind::Local => {
                let v = *code.get(pc).ok_or_else(trunc)?;
                pc += 1;
                Instruction::Local(op, v as u16)
            }
            OperandKind::Iinc => {
                let index = *code.get(pc).ok_or_else(trunc)? as u16;
                let delta = *code.get(pc + 1).ok_or_else(trunc)? as i8 as i16;
                pc += 2;
                Instruction::Iinc { index, delta }
            }
            OperandKind::Branch2 => {
                let rel = read_i16(code, &mut pc).ok_or_else(trunc)? as i64;
                Instruction::Branch(op, abs_target(start, rel)?)
            }
            OperandKind::Branch4 => {
                let rel = read_i32(code, &mut pc).ok_or_else(trunc)? as i64;
                Instruction::Branch(op, abs_target(start, rel)?)
            }
            OperandKind::InvokeInterface => {
                let idx = ConstIndex(read_u16(code, &mut pc).ok_or_else(trunc)?);
                let count = *code.get(pc).ok_or_else(trunc)?;
                pc += 2; // count byte + zero byte
                if pc > code.len() {
                    return Err(trunc());
                }
                Instruction::InvokeInterface { index: idx, count }
            }
            OperandKind::InvokeDynamic => {
                let idx = ConstIndex(read_u16(code, &mut pc).ok_or_else(trunc)?);
                pc += 2; // two zero bytes
                if pc > code.len() {
                    return Err(trunc());
                }
                Instruction::InvokeDynamic(idx)
            }
            OperandKind::NewArrayType => {
                let t = *code.get(pc).ok_or_else(trunc)?;
                pc += 1;
                Instruction::NewArray(t)
            }
            OperandKind::MultiANewArray => {
                let idx = ConstIndex(read_u16(code, &mut pc).ok_or_else(trunc)?);
                let dims = *code.get(pc).ok_or_else(trunc)?;
                pc += 1;
                Instruction::MultiANewArray { index: idx, dims }
            }
            OperandKind::TableSwitch => {
                pc = start + 1 + pad_after(start as u32) as usize;
                let default = read_i32(code, &mut pc).ok_or_else(trunc)?;
                let low = read_i32(code, &mut pc).ok_or_else(trunc)?;
                let high = read_i32(code, &mut pc).ok_or_else(trunc)?;
                if high < low || (high as i64 - low as i64) > code.len() as i64 {
                    return Err(trunc());
                }
                let n = (high as i64 - low as i64 + 1) as usize;
                let mut targets = Vec::with_capacity(n);
                for _ in 0..n {
                    let rel = read_i32(code, &mut pc).ok_or_else(trunc)?;
                    targets.push(abs_target(start, rel as i64)?);
                }
                Instruction::TableSwitch(TableSwitch {
                    default: abs_target(start, default as i64)?,
                    low,
                    high,
                    targets,
                })
            }
            OperandKind::LookupSwitch => {
                pc = start + 1 + pad_after(start as u32) as usize;
                let default = read_i32(code, &mut pc).ok_or_else(trunc)?;
                let npairs = read_i32(code, &mut pc).ok_or_else(trunc)?;
                if npairs < 0 || npairs as i64 > code.len() as i64 {
                    return Err(trunc());
                }
                let mut pairs = Vec::with_capacity(npairs as usize);
                for _ in 0..npairs {
                    let k = read_i32(code, &mut pc).ok_or_else(trunc)?;
                    let rel = read_i32(code, &mut pc).ok_or_else(trunc)?;
                    pairs.push((k, abs_target(start, rel as i64)?));
                }
                Instruction::LookupSwitch(LookupSwitch {
                    default: abs_target(start, default as i64)?,
                    pairs,
                })
            }
            OperandKind::Wide => {
                let modified = *code.get(pc).ok_or_else(trunc)?;
                pc += 1;
                let inner =
                    Opcode::from_byte(modified).ok_or(ClassReadError::InvalidWideTarget {
                        opcode: modified,
                        pc: start,
                    })?;
                match inner.operand_kind() {
                    OperandKind::Local => {
                        let index = read_u16(code, &mut pc).ok_or_else(trunc)?;
                        Instruction::Local(inner, index)
                    }
                    OperandKind::Iinc => {
                        let index = read_u16(code, &mut pc).ok_or_else(trunc)?;
                        let delta = read_i16(code, &mut pc).ok_or_else(trunc)?;
                        Instruction::Iinc { index, delta }
                    }
                    _ => {
                        return Err(ClassReadError::InvalidWideTarget {
                            opcode: modified,
                            pc: start,
                        })
                    }
                }
            }
        };
        sink(start as u32, insn);
    }
    Ok(())
}

/// Encodes a list of instructions back into a code array.
///
/// Instructions are laid out consecutively; the caller is responsible for
/// branch targets landing on instruction boundaries (the lowerer guarantees
/// this via its two-pass label resolution).
pub fn encode_code(instructions: &[Instruction]) -> Vec<u8> {
    // Most opcodes take 1-3 bytes; 4 per instruction avoids regrowth.
    let mut out = Vec::with_capacity(instructions.len() * 4);
    for insn in instructions {
        insn.encode(out.len() as u32, &mut out);
    }
    out
}

/// Resolves a relative branch offset against its opcode's pc, rejecting
/// targets outside the `u32` code-offset space: a negative absolute target
/// must be a decode error, not a silent wrap to a huge address that later
/// aliases a real pc.
fn abs_target(start: usize, rel: i64) -> Result<u32, ClassReadError> {
    let target = start as i64 + rel;
    u32::try_from(target).map_err(|_| ClassReadError::BranchTargetOutOfRange { pc: start, target })
}

fn read_u16(code: &[u8], pc: &mut usize) -> Option<u16> {
    let v = u16::from_be_bytes([*code.get(*pc)?, *code.get(*pc + 1)?]);
    *pc += 2;
    Some(v)
}

fn read_i16(code: &[u8], pc: &mut usize) -> Option<i16> {
    read_u16(code, pc).map(|v| v as i16)
}

fn read_i32(code: &[u8], pc: &mut usize) -> Option<i32> {
    let v = i32::from_be_bytes([
        *code.get(*pc)?,
        *code.get(*pc + 1)?,
        *code.get(*pc + 2)?,
        *code.get(*pc + 3)?,
    ]);
    *pc += 4;
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(insns: Vec<Instruction>) {
        let bytes = encode_code(&insns);
        let decoded = decode_code(&bytes).expect("decode");
        let got: Vec<Instruction> = decoded.into_iter().map(|(_, i)| i).collect();
        assert_eq!(got, insns);
    }

    #[test]
    fn simple_roundtrip() {
        roundtrip(vec![
            Instruction::Simple(Opcode::Iconst0),
            Instruction::Simple(Opcode::Iconst1),
            Instruction::Simple(Opcode::Iadd),
            Instruction::Simple(Opcode::Ireturn),
        ]);
    }

    #[test]
    fn operand_roundtrip() {
        roundtrip(vec![
            Instruction::Bipush(-7),
            Instruction::Sipush(-30000),
            Instruction::Ldc(ConstIndex(4)),
            Instruction::LdcW(ConstIndex(300)),
            Instruction::Ldc2W(ConstIndex(5)),
            Instruction::Local(Opcode::Iload, 3),
            Instruction::Local(Opcode::Astore, 300), // forces wide
            Instruction::Iinc {
                index: 2,
                delta: -1,
            },
            Instruction::Iinc {
                index: 2,
                delta: 200,
            }, // forces wide
            Instruction::Field(Opcode::Getstatic, ConstIndex(12)),
            Instruction::Invoke(Opcode::Invokevirtual, ConstIndex(21)),
            Instruction::InvokeInterface {
                index: ConstIndex(9),
                count: 2,
            },
            Instruction::InvokeDynamic(ConstIndex(17)),
            Instruction::New(ConstIndex(3)),
            Instruction::NewArray(10),
            Instruction::ANewArray(ConstIndex(3)),
            Instruction::MultiANewArray {
                index: ConstIndex(3),
                dims: 2,
            },
            Instruction::CheckCast(ConstIndex(3)),
            Instruction::InstanceOf(ConstIndex(3)),
            Instruction::Simple(Opcode::Return),
        ]);
    }

    #[test]
    fn branch_targets_are_absolute() {
        // 0: goto 4 ; 3: nop ; 4: return
        let insns = vec![
            Instruction::Branch(Opcode::Goto, 4),
            Instruction::Simple(Opcode::Nop),
            Instruction::Simple(Opcode::Return),
        ];
        let bytes = encode_code(&insns);
        assert_eq!(bytes, vec![0xa7, 0x00, 0x04, 0x00, 0xb1]);
        let decoded = decode_code(&bytes).unwrap();
        assert_eq!(decoded[0].1, Instruction::Branch(Opcode::Goto, 4));
    }

    #[test]
    fn tableswitch_roundtrip_with_padding() {
        for leading_nops in 0..4 {
            let mut insns = Vec::new();
            for _ in 0..leading_nops {
                insns.push(Instruction::Simple(Opcode::Nop));
            }
            // Compute layout: targets must be valid absolute offsets; we point
            // everything at offset 0 which is always an instruction start.
            insns.push(Instruction::TableSwitch(TableSwitch {
                default: 0,
                low: -1,
                high: 1,
                targets: vec![0, 0, 0],
            }));
            roundtrip(insns);
        }
    }

    #[test]
    fn lookupswitch_roundtrip() {
        roundtrip(vec![
            Instruction::Simple(Opcode::Iconst0),
            Instruction::LookupSwitch(LookupSwitch {
                default: 0,
                pairs: vec![(-5, 0), (0, 1), (42, 0)],
            }),
        ]);
    }

    #[test]
    fn unknown_opcode_rejected() {
        let err = decode_code(&[0xcb]).unwrap_err();
        assert!(matches!(
            err,
            ClassReadError::UnknownOpcode {
                opcode: 0xcb,
                pc: 0
            }
        ));
    }

    #[test]
    fn truncated_operands_rejected() {
        let err = decode_code(&[Opcode::Sipush.byte(), 0x01]).unwrap_err();
        assert!(matches!(
            err,
            ClassReadError::TruncatedInstruction { pc: 0 }
        ));
    }

    #[test]
    fn wide_on_non_wideable_rejected() {
        let err = decode_code(&[Opcode::Wide.byte(), Opcode::Iadd.byte()]).unwrap_err();
        assert!(matches!(err, ClassReadError::InvalidWideTarget { .. }));
    }

    #[test]
    fn negative_branch_targets_rejected() {
        // goto -3 at pc 0: the absolute target is -3, not 4294967293.
        let err = decode_code(&[Opcode::Goto.byte(), 0xff, 0xfd]).unwrap_err();
        assert!(
            matches!(
                err,
                ClassReadError::BranchTargetOutOfRange { pc: 0, target: -3 }
            ),
            "got {err:?}"
        );
        // goto_w with i32::MIN at pc 0.
        let err = decode_code(&[Opcode::GotoW.byte(), 0x80, 0x00, 0x00, 0x00]).unwrap_err();
        assert!(matches!(
            err,
            ClassReadError::BranchTargetOutOfRange { pc: 0, target: t } if t == i32::MIN as i64
        ));
    }

    #[test]
    fn negative_switch_targets_rejected() {
        // tableswitch at pc 0 (3 pad bytes), default = -8, low = high = 0,
        // one target of 0.
        let mut bytes = vec![Opcode::Tableswitch.byte(), 0, 0, 0];
        bytes.extend_from_slice(&(-8i32).to_be_bytes()); // default
        bytes.extend_from_slice(&0i32.to_be_bytes()); // low
        bytes.extend_from_slice(&0i32.to_be_bytes()); // high
        bytes.extend_from_slice(&0i32.to_be_bytes()); // target[0]
        let err = decode_code(&bytes).unwrap_err();
        assert!(matches!(
            err,
            ClassReadError::BranchTargetOutOfRange { pc: 0, target: -8 }
        ));

        // lookupswitch at pc 0, default = 0, one pair whose target is -1.
        let mut bytes = vec![Opcode::Lookupswitch.byte(), 0, 0, 0];
        bytes.extend_from_slice(&0i32.to_be_bytes()); // default
        bytes.extend_from_slice(&1i32.to_be_bytes()); // npairs
        bytes.extend_from_slice(&7i32.to_be_bytes()); // key
        bytes.extend_from_slice(&(-1i32).to_be_bytes()); // target
        let err = decode_code(&bytes).unwrap_err();
        assert!(matches!(
            err,
            ClassReadError::BranchTargetOutOfRange { pc: 0, target: -1 }
        ));
    }

    #[test]
    fn goto_w_roundtrip() {
        roundtrip(vec![
            Instruction::Branch(Opcode::GotoW, 5),
            Instruction::Simple(Opcode::Return),
        ]);
    }
}
