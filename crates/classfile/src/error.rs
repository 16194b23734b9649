//! Error types for classfile parsing and descriptor handling.

use std::error::Error;
use std::fmt;

/// An error produced while decoding a classfile from raw bytes.
///
/// Reading is *structural*: it only fails when the byte stream cannot be
/// decoded at all (truncation, unknown constant tags, malformed UTF-8).
/// Semantic violations survive parsing so a JVM implementation can reject
/// them with its own policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClassReadError {
    /// The stream ended before a required field could be read.
    UnexpectedEof {
        /// Byte offset at which more input was required.
        offset: usize,
        /// What was being decoded.
        context: &'static str,
    },
    /// The first four bytes were not `0xCAFEBABE`.
    BadMagic(u32),
    /// A constant-pool entry used a tag this crate does not know.
    UnknownConstantTag {
        /// The unrecognized tag byte.
        tag: u8,
        /// Constant-pool slot of the offending entry.
        index: u16,
    },
    /// A `CONSTANT_Long` or `CONSTANT_Double` sat in the pool's last slot,
    /// so its second slot lies past `constant_pool_count` (JVMS §4.4.5).
    WideEntryPastPool {
        /// Constant-pool slot of the wide entry.
        index: u16,
        /// The classfile's `constant_pool_count`.
        count: u16,
    },
    /// A `CONSTANT_Utf8` entry contained invalid modified-UTF-8.
    InvalidUtf8 {
        /// Constant-pool slot of the offending entry.
        index: u16,
    },
    /// An opcode byte did not correspond to any JVM instruction.
    UnknownOpcode {
        /// The unrecognized opcode byte.
        opcode: u8,
        /// Offset of the opcode within the method's code array.
        pc: usize,
    },
    /// An instruction's operands ran past the end of the code array.
    TruncatedInstruction {
        /// Offset of the opcode within the method's code array.
        pc: usize,
    },
    /// A `wide` prefix modified an opcode that cannot be widened.
    InvalidWideTarget {
        /// The opcode that followed the `wide` prefix.
        opcode: u8,
        /// Offset of the `wide` prefix within the code array.
        pc: usize,
    },
    /// A branch or switch offset resolved to an address outside the `u32`
    /// code-offset space (e.g. a negative absolute target).
    BranchTargetOutOfRange {
        /// Offset of the branching opcode within the code array.
        pc: usize,
        /// The out-of-range absolute target the offset resolved to.
        target: i64,
    },
}

impl fmt::Display for ClassReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClassReadError::UnexpectedEof { offset, context } => {
                write!(
                    f,
                    "unexpected end of classfile at offset {offset} while reading {context}"
                )
            }
            ClassReadError::BadMagic(m) => {
                write!(f, "bad magic number {m:#010x}, expected 0xCAFEBABE")
            }
            ClassReadError::UnknownConstantTag { tag, index } => {
                write!(f, "unknown constant-pool tag {tag} at index {index}")
            }
            ClassReadError::WideEntryPastPool { index, count } => {
                write!(
                    f,
                    "wide constant-pool entry at index {index} needs slot {} but constant_pool_count is {count}",
                    *index as u32 + 1
                )
            }
            ClassReadError::InvalidUtf8 { index } => {
                write!(f, "invalid modified UTF-8 in constant-pool entry {index}")
            }
            ClassReadError::UnknownOpcode { opcode, pc } => {
                write!(f, "unknown opcode {opcode:#04x} at pc {pc}")
            }
            ClassReadError::TruncatedInstruction { pc } => {
                write!(f, "instruction operands truncated at pc {pc}")
            }
            ClassReadError::InvalidWideTarget { opcode, pc } => {
                write!(
                    f,
                    "opcode {opcode:#04x} at pc {pc} cannot follow a wide prefix"
                )
            }
            ClassReadError::BranchTargetOutOfRange { pc, target } => {
                write!(
                    f,
                    "branch at pc {pc} resolves to out-of-range target {target}"
                )
            }
        }
    }
}

impl Error for ClassReadError {}

/// An error produced while parsing a field or method descriptor string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DescriptorError {
    descriptor: String,
    position: usize,
}

impl DescriptorError {
    /// Creates a descriptor error for `descriptor`, failing at `position`.
    pub fn new(descriptor: impl Into<String>, position: usize) -> Self {
        DescriptorError {
            descriptor: descriptor.into(),
            position,
        }
    }

    /// The descriptor text that failed to parse.
    pub fn descriptor(&self) -> &str {
        &self.descriptor
    }

    /// Byte position within the descriptor at which parsing failed.
    pub fn position(&self) -> usize {
        self.position
    }
}

impl fmt::Display for DescriptorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid descriptor {:?} at position {}",
            self.descriptor, self.position
        )
    }
}

impl Error for DescriptorError {}
