//! A javap-style pretty printer, producing output shaped like the decompiled
//! listing in Figure 2 of the paper.

use std::fmt::Write as _;

use crate::class::ClassFile;
use crate::constant_pool::Constant;
use crate::descriptor::{FieldType, MethodDescriptor};
use crate::instruction::{encode_code, Instruction};

/// Renders a classfile as human-readable text.
///
/// The output is for debugging and bug reports: dangling constant-pool
/// references are printed as raw indices rather than failing.
///
/// # Examples
///
/// ```
/// use classfuzz_classfile::{ClassFile, printer};
///
/// let class = ClassFile::builder("demo/A").super_class("java/lang/Object").build();
/// let text = printer::disassemble(&class);
/// assert!(text.contains("class demo.A"));
/// ```
pub fn disassemble(class: &ClassFile) -> String {
    let mut out = String::new();
    let cp = &class.constant_pool;
    let name = class
        .this_class_name()
        .unwrap_or_else(|| format!("<class {}>", class.this_class));
    let _ = writeln!(out, "class {}", name.replace('/', "."));
    let _ = writeln!(out, "  minor version: {}", class.minor_version);
    let _ = writeln!(out, "  major version: {}", class.major_version);
    let _ = writeln!(out, "  flags: {}", class.access);
    if let Some(sup) = class.super_class_name() {
        let _ = writeln!(out, "  extends {}", sup.replace('/', "."));
    }
    for i in class.interface_names() {
        let _ = writeln!(out, "  implements {}", i.replace('/', "."));
    }
    let _ = writeln!(out, "Constant pool:");
    for (idx, c) in cp.iter() {
        if matches!(c, Constant::Unusable) {
            continue;
        }
        let rendered = match c {
            Constant::Utf8(span) => cp.span_text(*span).to_string(),
            Constant::Integer(v) => v.to_string(),
            Constant::Float(v) => format!("{v}f"),
            Constant::Long(v) => format!("{v}l"),
            Constant::Double(v) => format!("{v}d"),
            Constant::Class(n) => format!("#{}", n.0),
            Constant::String(n) => format!("#{}", n.0),
            Constant::FieldRef(a, b)
            | Constant::MethodRef(a, b)
            | Constant::InterfaceMethodRef(a, b)
            | Constant::NameAndType(a, b) => format!("#{}.#{}", a.0, b.0),
            Constant::MethodHandle(k, r) => format!("{k}:#{}", r.0),
            Constant::MethodType(d) => format!("#{}", d.0),
            Constant::InvokeDynamic(bsm, nt) => format!("bsm#{bsm}.#{}", nt.0),
            Constant::Unusable => unreachable!("padding entries are skipped"),
        };
        let _ = writeln!(out, "  {idx} = {:<18} {}", c.kind_name(), rendered);
    }
    let _ = writeln!(out, "{{");
    for f in &class.fields {
        let fname = cp.utf8_text(f.name).unwrap_or("<bad name>");
        let fdesc = cp.utf8_text(f.descriptor).unwrap_or("<bad descriptor>");
        let ty = FieldType::parse(fdesc)
            .map(|t| t.to_java())
            .unwrap_or_else(|_| fdesc.to_string());
        let kws = f.access.keywords().join(" ");
        let sep = if kws.is_empty() { "" } else { " " };
        let _ = writeln!(out, "  {kws}{sep}{ty} {fname};");
        let _ = writeln!(out, "    flags: {}", f.access);
    }
    for m in &class.methods {
        let mname = cp.utf8_text(m.name).unwrap_or("<bad name>");
        let mdesc = cp.utf8_text(m.descriptor).unwrap_or("<bad descriptor>");
        let sig = match MethodDescriptor::parse(mdesc) {
            Ok(d) => {
                let ret = d
                    .ret
                    .as_ref()
                    .map(FieldType::to_java)
                    .unwrap_or_else(|| "void".into());
                let params: Vec<String> = d.params.iter().map(FieldType::to_java).collect();
                format!("{ret} {mname}({})", params.join(", "))
            }
            Err(_) => format!("{mname} {mdesc}"),
        };
        let kws = m.access.keywords().join(" ");
        let sep = if kws.is_empty() { "" } else { " " };
        let _ = writeln!(out, "  {kws}{sep}{sig};");
        let _ = writeln!(out, "    flags: {}", m.access);
        if let Some(code) = m.code() {
            let _ = writeln!(out, "    Code:");
            let _ = writeln!(
                out,
                "      stack={}, locals={}",
                code.max_stack, code.max_locals
            );
            for (pc, insn) in with_offsets(&code.instructions) {
                let detail = operand_detail(class, insn);
                let _ = writeln!(out, "      {pc:>4}: {insn}{detail}");
            }
            for e in &code.exception_table {
                let ty = cp
                    .class_name(e.catch_type)
                    .unwrap_or_else(|| "any".to_string());
                let _ = writeln!(
                    out,
                    "      try [{}, {}) handler {} catch {}",
                    e.start_pc, e.end_pc, e.handler_pc, ty
                );
            }
        }
        if !m.declared_exceptions().is_empty() {
            let names: Vec<String> = m
                .declared_exceptions()
                .iter()
                .map(|&e| cp.class_name(e).unwrap_or_else(|| format!("{e}")))
                .collect();
            let _ = writeln!(out, "    throws {}", names.join(", "));
        }
    }
    let _ = writeln!(out, "}}");
    out
}

fn with_offsets(insns: &[Instruction]) -> Vec<(u32, &Instruction)> {
    let mut pc = 0u32;
    let mut out = Vec::with_capacity(insns.len());
    for i in insns {
        out.push((pc, i));
        pc += i.encoded_len(pc);
    }
    out
}

fn operand_detail(class: &ClassFile, insn: &Instruction) -> String {
    let cp = &class.constant_pool;
    let idx = match insn {
        Instruction::Field(_, i)
        | Instruction::Invoke(_, i)
        | Instruction::InvokeInterface { index: i, .. } => *i,
        Instruction::New(i)
        | Instruction::ANewArray(i)
        | Instruction::CheckCast(i)
        | Instruction::InstanceOf(i) => {
            return cp
                .class_name(*i)
                .map(|n| format!(" // class {n}"))
                .unwrap_or_default();
        }
        Instruction::Ldc(i) | Instruction::LdcW(i) | Instruction::Ldc2W(i) => {
            return match cp.entry(*i) {
                Some(Constant::String(s)) => cp
                    .utf8_text(*s)
                    .map(|t| format!(" // String {t:?}"))
                    .unwrap_or_default(),
                Some(Constant::Integer(v)) => format!(" // int {v}"),
                Some(Constant::Long(v)) => format!(" // long {v}"),
                Some(Constant::Float(v)) => format!(" // float {v}"),
                Some(Constant::Double(v)) => format!(" // double {v}"),
                Some(Constant::Class(_)) => cp
                    .class_name(*i)
                    .map(|n| format!(" // class {n}"))
                    .unwrap_or_default(),
                _ => String::new(),
            };
        }
        _ => return String::new(),
    };
    match cp.member_ref_parts(idx) {
        Some((class_name, member, desc)) => {
            format!(" // {class_name}.{member}:{desc}")
        }
        None => String::new(),
    }
}

/// Returns the size in bytes of a method's encoded code array.
///
/// Useful for reporting and for the reducer's progress metric.
pub fn code_size(insns: &[Instruction]) -> usize {
    encode_code(insns).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::CodeAttribute;
    use crate::constant_pool::ConstIndex;
    use crate::flags::{ClassAccess, MethodAccess};
    use crate::opcode::Opcode;

    #[test]
    fn disassembly_mentions_members_and_flags() {
        let mut builder = ClassFile::builder("M1436188543")
            .flags(ClassAccess::SUPER)
            .super_class("java/lang/Object");
        let out_ref = builder.constant_pool_mut().field_ref(
            "java/lang/System",
            "out",
            "Ljava/io/PrintStream;",
        );
        let println_ref = builder.constant_pool_mut().method_ref(
            "java/io/PrintStream",
            "println",
            "(Ljava/lang/String;)V",
        );
        let msg = builder.constant_pool_mut().string("Completed!");
        let class = builder
            .method_without_code(
                MethodAccess::PUBLIC | MethodAccess::ABSTRACT,
                "<clinit>",
                "()V",
            )
            .method(
                MethodAccess::PUBLIC | MethodAccess::STATIC,
                "main",
                "([Ljava/lang/String;)V",
                CodeAttribute {
                    max_stack: 2,
                    max_locals: 1,
                    instructions: vec![
                        Instruction::Field(Opcode::Getstatic, out_ref),
                        Instruction::Ldc(ConstIndex(msg.0)),
                        Instruction::Invoke(Opcode::Invokevirtual, println_ref),
                        Instruction::Simple(Opcode::Return),
                    ],
                    exception_table: vec![],
                    attributes: vec![],
                },
            )
            .build();
        let text = disassemble(&class);
        assert!(text.contains("class M1436188543"));
        assert!(text.contains("major version: 51"));
        assert!(text.contains("ACC_PUBLIC ACC_ABSTRACT"));
        assert!(text.contains("void main(java.lang.String[])"));
        assert!(text.contains("java/lang/System.out:Ljava/io/PrintStream;"));
        assert!(text.contains("String \"Completed!\""));
    }

    #[test]
    fn code_size_matches_encoding() {
        let insns = vec![
            Instruction::Simple(Opcode::Iconst0),
            Instruction::Branch(Opcode::Goto, 0),
        ];
        assert_eq!(code_size(&insns), 4);
    }
}
