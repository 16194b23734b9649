//! Byte-level classfile parser (JVMS §4.1).

use crate::attributes::{Attribute, CodeAttribute, ExceptionTableEntry, InnerClassEntry};
use crate::class::{ClassFile, FieldInfo, MethodInfo, MAGIC};
use crate::constant_pool::{ConstIndex, Constant, ConstantPool};
use crate::error::ClassReadError;
use crate::flags::{ClassAccess, FieldAccess, MethodAccess};
use crate::instruction::decode_instructions;
use crate::mutf8;

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn eof(&self, context: &'static str) -> ClassReadError {
        ClassReadError::UnexpectedEof {
            offset: self.pos,
            context,
        }
    }

    fn u1(&mut self, ctx: &'static str) -> Result<u8, ClassReadError> {
        let b = *self.bytes.get(self.pos).ok_or_else(|| self.eof(ctx))?;
        self.pos += 1;
        Ok(b)
    }

    fn u2(&mut self, ctx: &'static str) -> Result<u16, ClassReadError> {
        Ok(u16::from_be_bytes([self.u1(ctx)?, self.u1(ctx)?]))
    }

    fn u4(&mut self, ctx: &'static str) -> Result<u32, ClassReadError> {
        Ok(u32::from_be_bytes([
            self.u1(ctx)?,
            self.u1(ctx)?,
            self.u1(ctx)?,
            self.u1(ctx)?,
        ]))
    }

    fn take(&mut self, len: usize, ctx: &'static str) -> Result<&'a [u8], ClassReadError> {
        if self.pos + len > self.bytes.len() {
            return Err(self.eof(ctx));
        }
        let s = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }
}

/// Parses a complete classfile.
pub(crate) fn read_class(bytes: &[u8]) -> Result<ClassFile, ClassReadError> {
    let mut c = Cursor::new(bytes);
    let magic = c.u4("magic")?;
    if magic != MAGIC {
        return Err(ClassReadError::BadMagic(magic));
    }
    let minor_version = c.u2("minor_version")?;
    let major_version = c.u2("major_version")?;
    let constant_pool = read_constant_pool(&mut c)?;
    let access = ClassAccess::from_bits(c.u2("access_flags")?);
    let this_class = ConstIndex(c.u2("this_class")?);
    let super_class = ConstIndex(c.u2("super_class")?);
    let interfaces_count = c.u2("interfaces_count")?;
    let mut interfaces = Vec::with_capacity(interfaces_count as usize);
    for _ in 0..interfaces_count {
        interfaces.push(ConstIndex(c.u2("interface")?));
    }
    let fields_count = c.u2("fields_count")?;
    let mut fields = Vec::with_capacity(fields_count as usize);
    for _ in 0..fields_count {
        fields.push(read_field(&mut c, &constant_pool)?);
    }
    let methods_count = c.u2("methods_count")?;
    let mut methods = Vec::with_capacity(methods_count as usize);
    for _ in 0..methods_count {
        methods.push(read_method(&mut c, &constant_pool)?);
    }
    let attributes = read_attributes(&mut c, &constant_pool)?;
    Ok(ClassFile {
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
    })
}

fn read_constant_pool(c: &mut Cursor<'_>) -> Result<ConstantPool, ClassReadError> {
    let count = c.u2("constant_pool_count")? as usize;
    // Every entry takes at least three bytes, so a forged count cannot
    // reserve more than the input could fill.
    let remaining = c.bytes.len().saturating_sub(c.pos);
    let mut entries = Vec::with_capacity(count.saturating_sub(1).min(remaining / 3));
    // Slots run 1..count with count <= u16::MAX, so every slot number fits
    // a u16 and the parsed pool never exceeds MAX_POOL_SLOTS.
    let mut index = 1usize;
    while index < count {
        let slot = index as u16;
        let tag = c.u1("constant tag")?;
        let entry = match tag {
            1 => {
                let len = c.u2("Utf8 length")? as usize;
                let raw = c.take(len, "Utf8 bytes")?;
                let text = mutf8::decode(raw).ok_or(ClassReadError::InvalidUtf8 { index: slot })?;
                Constant::Utf8(text)
            }
            3 => Constant::Integer(c.u4("Integer")? as i32),
            4 => Constant::Float(f32::from_bits(c.u4("Float")?)),
            5 => {
                let hi = c.u4("Long hi")? as u64;
                let lo = c.u4("Long lo")? as u64;
                Constant::Long(((hi << 32) | lo) as i64)
            }
            6 => {
                let hi = c.u4("Double hi")? as u64;
                let lo = c.u4("Double lo")? as u64;
                Constant::Double(f64::from_bits((hi << 32) | lo))
            }
            7 => Constant::Class(ConstIndex(c.u2("Class")?)),
            8 => Constant::String(ConstIndex(c.u2("String")?)),
            9 => Constant::FieldRef(
                ConstIndex(c.u2("Fieldref class")?),
                ConstIndex(c.u2("Fieldref nat")?),
            ),
            10 => Constant::MethodRef(
                ConstIndex(c.u2("Methodref class")?),
                ConstIndex(c.u2("Methodref nat")?),
            ),
            11 => Constant::InterfaceMethodRef(
                ConstIndex(c.u2("InterfaceMethodref class")?),
                ConstIndex(c.u2("InterfaceMethodref nat")?),
            ),
            12 => Constant::NameAndType(
                ConstIndex(c.u2("NameAndType name")?),
                ConstIndex(c.u2("NameAndType descriptor")?),
            ),
            15 => Constant::MethodHandle(
                c.u1("MethodHandle kind")?,
                ConstIndex(c.u2("MethodHandle ref")?),
            ),
            16 => Constant::MethodType(ConstIndex(c.u2("MethodType")?)),
            18 => Constant::InvokeDynamic(
                c.u2("InvokeDynamic bootstrap")?,
                ConstIndex(c.u2("InvokeDynamic nat")?),
            ),
            _ => return Err(ClassReadError::UnknownConstantTag { tag, index: slot }),
        };
        if entry.is_wide() {
            // JVMS §4.4.5: the slot after a Long or Double must exist too.
            if index + 1 >= count {
                return Err(ClassReadError::WideEntryPastPool {
                    index: slot,
                    count: count as u16,
                });
            }
            entries.push(entry);
            entries.push(Constant::Unusable);
            index += 2;
        } else {
            entries.push(entry);
            index += 1;
        }
    }
    Ok(ConstantPool::from_entries(entries))
}

fn read_field(c: &mut Cursor<'_>, cp: &ConstantPool) -> Result<FieldInfo, ClassReadError> {
    let access = FieldAccess::from_bits(c.u2("field access")?);
    let name = ConstIndex(c.u2("field name")?);
    let descriptor = ConstIndex(c.u2("field descriptor")?);
    let attributes = read_attributes(c, cp)?;
    Ok(FieldInfo {
        access,
        name,
        descriptor,
        attributes,
    })
}

fn read_method(c: &mut Cursor<'_>, cp: &ConstantPool) -> Result<MethodInfo, ClassReadError> {
    let access = MethodAccess::from_bits(c.u2("method access")?);
    let name = ConstIndex(c.u2("method name")?);
    let descriptor = ConstIndex(c.u2("method descriptor")?);
    let attributes = read_attributes(c, cp)?;
    Ok(MethodInfo {
        access,
        name,
        descriptor,
        attributes,
    })
}

fn read_attributes(
    c: &mut Cursor<'_>,
    cp: &ConstantPool,
) -> Result<Vec<Attribute>, ClassReadError> {
    let count = c.u2("attributes_count")?;
    let mut out = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let name_idx = ConstIndex(c.u2("attribute name")?);
        let len = c.u4("attribute length")? as usize;
        let data = c.take(len, "attribute payload")?;
        let name = cp.utf8_text(name_idx);
        let attr = match name {
            Some("Code") => read_code(data, cp)?,
            Some("Exceptions") => read_exceptions(data).unwrap_or(Attribute::Unknown {
                name: name_idx,
                data: data.to_vec(),
            }),
            Some("ConstantValue") if data.len() == 2 => {
                Attribute::ConstantValue(ConstIndex(u16::from_be_bytes([data[0], data[1]])))
            }
            Some("SourceFile") if data.len() == 2 => {
                Attribute::SourceFile(ConstIndex(u16::from_be_bytes([data[0], data[1]])))
            }
            Some("Signature") if data.len() == 2 => {
                Attribute::Signature(ConstIndex(u16::from_be_bytes([data[0], data[1]])))
            }
            Some("InnerClasses") => read_inner_classes(data).unwrap_or(Attribute::Unknown {
                name: name_idx,
                data: data.to_vec(),
            }),
            Some("Synthetic") if data.is_empty() => Attribute::Synthetic,
            Some("Deprecated") if data.is_empty() => Attribute::Deprecated,
            _ => Attribute::Unknown {
                name: name_idx,
                data: data.to_vec(),
            },
        };
        out.push(attr);
    }
    Ok(out)
}

fn read_code(data: &[u8], cp: &ConstantPool) -> Result<Attribute, ClassReadError> {
    let mut c = Cursor::new(data);
    let max_stack = c.u2("max_stack")?;
    let max_locals = c.u2("max_locals")?;
    let code_len = c.u4("code_length")? as usize;
    let code = c.take(code_len, "code")?;
    let instructions = decode_instructions(code)?;
    let handler_count = c.u2("exception_table_length")?;
    let mut exception_table = Vec::with_capacity(handler_count as usize);
    for _ in 0..handler_count {
        exception_table.push(ExceptionTableEntry {
            start_pc: c.u2("start_pc")?,
            end_pc: c.u2("end_pc")?,
            handler_pc: c.u2("handler_pc")?,
            catch_type: ConstIndex(c.u2("catch_type")?),
        });
    }
    let attributes = read_attributes(&mut c, cp)?;
    Ok(Attribute::Code(CodeAttribute {
        max_stack,
        max_locals,
        instructions,
        exception_table,
        attributes,
    }))
}

fn read_exceptions(data: &[u8]) -> Option<Attribute> {
    if data.len() < 2 {
        return None;
    }
    let count = u16::from_be_bytes([data[0], data[1]]) as usize;
    if data.len() != 2 + count * 2 {
        return None;
    }
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        out.push(ConstIndex(u16::from_be_bytes([
            data[2 + i * 2],
            data[3 + i * 2],
        ])));
    }
    Some(Attribute::Exceptions(out))
}

fn read_inner_classes(data: &[u8]) -> Option<Attribute> {
    if data.len() < 2 {
        return None;
    }
    let count = u16::from_be_bytes([data[0], data[1]]) as usize;
    if data.len() != 2 + count * 8 {
        return None;
    }
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let base = 2 + i * 8;
        out.push(InnerClassEntry {
            inner_class: ConstIndex(u16::from_be_bytes([data[base], data[base + 1]])),
            outer_class: ConstIndex(u16::from_be_bytes([data[base + 2], data[base + 3]])),
            inner_name: ConstIndex(u16::from_be_bytes([data[base + 4], data[base + 5]])),
            inner_flags: u16::from_be_bytes([data[base + 6], data[base + 7]]),
        });
    }
    Some(Attribute::InnerClasses(out))
}
