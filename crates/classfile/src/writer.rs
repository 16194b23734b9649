//! Byte-level classfile serializer.
//!
//! Serialization is infallible: every representable [`ClassFile`] has an
//! encoding. Attribute names for decoded attributes are interned into a
//! working copy of the constant pool before the header is emitted (interning
//! never renumbers existing entries, so operand indices stay valid).
//!
//! The emitted `constant_pool_count` cannot wrap: [`ConstantPool`] refuses
//! entries past [`crate::constant_pool::MAX_POOL_SLOTS`], so `slots + 1`
//! always fits a `u16`. If attribute-name interning hits a full pool it
//! degrades to the null index `#0` — a dangling reference the VM under test
//! rejects — never an alias of an unrelated low slot.

use crate::attributes::{Attribute, CodeAttribute};
use crate::class::{ClassFile, FieldInfo, MethodInfo, MAGIC};
use crate::constant_pool::{Constant, ConstantPool};
use crate::mutf8;

pub(crate) fn write_class(class: &ClassFile) -> Vec<u8> {
    // Intern all attribute names first so the pool is final before we emit
    // it. The cold path works on a copy of the pool so `&self` callers keep
    // their class untouched.
    let mut cp = class.constant_pool.clone();
    let mut body = Vec::with_capacity(estimate_body_size(class));
    write_body(&mut body, class, &mut cp);
    assemble(class.minor_version, class.major_version, &cp, &body)
}

/// The scratch path behind [`ClassFile::to_bytes_scratch`]: the same byte
/// sequence as [`write_class`], but the body is built in the caller's
/// reusable buffer and attribute names are interned into the class's *own*
/// pool — no pool clone. Sound because the header and pool are emitted only
/// after the body is complete, and interning never renumbers existing
/// entries; byte-identical to the cold path because both intern the same
/// names in the same order into equal starting pools.
pub(crate) fn write_class_scratch(class: &mut ClassFile, body: &mut Vec<u8>) -> Vec<u8> {
    body.clear();
    body.reserve(estimate_body_size(class));
    let ClassFile {
        minor_version,
        major_version,
        constant_pool,
        access,
        this_class,
        super_class,
        interfaces,
        fields,
        methods,
        attributes,
    } = class;

    push_u2(body, access.bits());
    push_u2(body, this_class.0);
    push_u2(body, super_class.0);
    push_u2(body, interfaces.len() as u16);
    for i in interfaces.iter() {
        push_u2(body, i.0);
    }
    push_u2(body, fields.len() as u16);
    for f in fields.iter() {
        write_field(body, f, constant_pool);
    }
    push_u2(body, methods.len() as u16);
    for m in methods.iter() {
        write_method(body, m, constant_pool);
    }
    write_attributes(body, attributes, constant_pool);

    assemble(*minor_version, *major_version, constant_pool, body)
}

/// Emits everything after the superclass header fields — identical for the
/// cold and scratch paths.
fn write_body(body: &mut Vec<u8>, class: &ClassFile, cp: &mut ConstantPool) {
    push_u2(body, class.access.bits());
    push_u2(body, class.this_class.0);
    push_u2(body, class.super_class.0);
    push_u2(body, class.interfaces.len() as u16);
    for i in &class.interfaces {
        push_u2(body, i.0);
    }
    push_u2(body, class.fields.len() as u16);
    for f in &class.fields {
        write_field(body, f, cp);
    }
    push_u2(body, class.methods.len() as u16);
    for m in &class.methods {
        write_method(body, m, cp);
    }
    write_attributes(body, &class.attributes, cp);
}

/// Concatenates magic, versions, the finished pool, and the body into the
/// owned output, allocated once at (an estimate of) its final size.
fn assemble(minor: u16, major: u16, cp: &ConstantPool, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + estimate_pool_size(cp) + body.len());
    push_u4(&mut out, MAGIC);
    push_u2(&mut out, minor);
    push_u2(&mut out, major);
    write_constant_pool(&mut out, cp);
    out.extend_from_slice(body);
    out
}

/// A cheap upper-bound-ish estimate of the serialized size of everything
/// after the constant pool, so `body` starts at roughly its final capacity
/// instead of growing from empty.
fn estimate_body_size(class: &ClassFile) -> usize {
    fn attrs(list: &[Attribute]) -> usize {
        list.iter()
            .map(|a| {
                6 + match a {
                    Attribute::Code(c) => {
                        10 + c.instructions.len() * 4
                            + c.exception_table.len() * 8
                            + attrs(&c.attributes)
                    }
                    Attribute::Exceptions(e) => 2 + e.len() * 2,
                    Attribute::InnerClasses(e) => 2 + e.len() * 8,
                    Attribute::Unknown { data, .. } => data.len(),
                    _ => 2,
                }
            })
            .sum()
    }
    10 + class.interfaces.len() * 2
        + class
            .fields
            .iter()
            .map(|f| 8 + attrs(&f.attributes))
            .sum::<usize>()
        + class
            .methods
            .iter()
            .map(|m| 8 + attrs(&m.attributes))
            .sum::<usize>()
        + attrs(&class.attributes)
}

/// Estimated wire size of the pool (exact for ASCII Utf8 text).
fn estimate_pool_size(cp: &ConstantPool) -> usize {
    2 + cp
        .iter()
        .map(|(_, c)| match c {
            Constant::Utf8(span) => 3 + cp.span_text(*span).len(),
            Constant::Long(_) | Constant::Double(_) => 9,
            Constant::Unusable => 0,
            _ => 5,
        })
        .sum::<usize>()
}

fn write_constant_pool(out: &mut Vec<u8>, cp: &ConstantPool) {
    push_u2(out, cp.slot_count() + 1);
    for (_, entry) in cp.iter() {
        match entry {
            Constant::Utf8(span) => {
                out.push(1);
                // Length-backpatched so the (usually ASCII) text is encoded
                // straight into `out` with no intermediate allocation.
                let len_at = out.len();
                push_u2(out, 0);
                mutf8::encode_into(cp.span_text(*span), out);
                let n = (out.len() - len_at - 2) as u16;
                out[len_at..len_at + 2].copy_from_slice(&n.to_be_bytes());
            }
            Constant::Integer(v) => {
                out.push(3);
                push_u4(out, *v as u32);
            }
            Constant::Float(v) => {
                out.push(4);
                push_u4(out, v.to_bits());
            }
            Constant::Long(v) => {
                out.push(5);
                out.extend_from_slice(&v.to_be_bytes());
            }
            Constant::Double(v) => {
                out.push(6);
                out.extend_from_slice(&v.to_bits().to_be_bytes());
            }
            Constant::Class(i) => {
                out.push(7);
                push_u2(out, i.0);
            }
            Constant::String(i) => {
                out.push(8);
                push_u2(out, i.0);
            }
            Constant::FieldRef(c, nt) => {
                out.push(9);
                push_u2(out, c.0);
                push_u2(out, nt.0);
            }
            Constant::MethodRef(c, nt) => {
                out.push(10);
                push_u2(out, c.0);
                push_u2(out, nt.0);
            }
            Constant::InterfaceMethodRef(c, nt) => {
                out.push(11);
                push_u2(out, c.0);
                push_u2(out, nt.0);
            }
            Constant::NameAndType(n, d) => {
                out.push(12);
                push_u2(out, n.0);
                push_u2(out, d.0);
            }
            Constant::MethodHandle(kind, r) => {
                out.push(15);
                out.push(*kind);
                push_u2(out, r.0);
            }
            Constant::MethodType(d) => {
                out.push(16);
                push_u2(out, d.0);
            }
            Constant::InvokeDynamic(bsm, nt) => {
                out.push(18);
                push_u2(out, *bsm);
                push_u2(out, nt.0);
            }
            Constant::Unusable => {} // padding after Long/Double: no bytes
        }
    }
}

fn write_field(out: &mut Vec<u8>, field: &FieldInfo, cp: &mut ConstantPool) {
    push_u2(out, field.access.bits());
    push_u2(out, field.name.0);
    push_u2(out, field.descriptor.0);
    write_attributes(out, &field.attributes, cp);
}

fn write_method(out: &mut Vec<u8>, method: &MethodInfo, cp: &mut ConstantPool) {
    push_u2(out, method.access.bits());
    push_u2(out, method.name.0);
    push_u2(out, method.descriptor.0);
    write_attributes(out, &method.attributes, cp);
}

fn write_attributes(out: &mut Vec<u8>, attrs: &[Attribute], cp: &mut ConstantPool) {
    push_u2(out, attrs.len() as u16);
    for attr in attrs {
        // Name first (the pre-payload interning order the pool layout is
        // pinned to), then the payload straight into `out` behind a
        // backpatched u4 length — no per-attribute buffer.
        let name_idx = match attr {
            Attribute::Code(_) => cp.utf8("Code"),
            Attribute::Exceptions(_) => cp.utf8("Exceptions"),
            Attribute::ConstantValue(_) => cp.utf8("ConstantValue"),
            Attribute::SourceFile(_) => cp.utf8("SourceFile"),
            Attribute::Signature(_) => cp.utf8("Signature"),
            Attribute::InnerClasses(_) => cp.utf8("InnerClasses"),
            Attribute::Synthetic => cp.utf8("Synthetic"),
            Attribute::Deprecated => cp.utf8("Deprecated"),
            Attribute::Unknown { name, .. } => *name,
        };
        push_u2(out, name_idx.0);
        let len_at = out.len();
        push_u4(out, 0);
        match attr {
            Attribute::Code(code) => write_code_attr(out, code, cp),
            Attribute::Exceptions(list) => {
                push_u2(out, list.len() as u16);
                for e in list {
                    push_u2(out, e.0);
                }
            }
            Attribute::ConstantValue(i) | Attribute::SourceFile(i) | Attribute::Signature(i) => {
                push_u2(out, i.0)
            }
            Attribute::InnerClasses(entries) => {
                push_u2(out, entries.len() as u16);
                for e in entries {
                    push_u2(out, e.inner_class.0);
                    push_u2(out, e.outer_class.0);
                    push_u2(out, e.inner_name.0);
                    push_u2(out, e.inner_flags);
                }
            }
            Attribute::Synthetic | Attribute::Deprecated => {}
            Attribute::Unknown { data, .. } => out.extend_from_slice(data),
        }
        let n = (out.len() - len_at - 4) as u32;
        out[len_at..len_at + 4].copy_from_slice(&n.to_be_bytes());
    }
}

fn write_code_attr(out: &mut Vec<u8>, code: &CodeAttribute, cp: &mut ConstantPool) {
    push_u2(out, code.max_stack);
    push_u2(out, code.max_locals);
    // Bytecode is emitted in place too: each instruction's pc is its
    // offset from the code array's start, backpatched like the lengths.
    let len_at = out.len();
    push_u4(out, 0);
    let code_start = out.len();
    for insn in &code.instructions {
        insn.encode((out.len() - code_start) as u32, out);
    }
    let n = (out.len() - code_start) as u32;
    out[len_at..len_at + 4].copy_from_slice(&n.to_be_bytes());
    push_u2(out, code.exception_table.len() as u16);
    for e in &code.exception_table {
        push_u2(out, e.start_pc);
        push_u2(out, e.end_pc);
        push_u2(out, e.handler_pc);
        push_u2(out, e.catch_type.0);
    }
    write_attributes(out, &code.attributes, cp);
}

fn push_u2(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn push_u4(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}
