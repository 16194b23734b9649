//! Byte-level tests of the classfile codec: golden headers, edge-case
//! constant pools, property-based instruction round-trips, and interning
//! on parsed pools.

use classfuzz_classfile::attributes::{Attribute, CodeAttribute, ExceptionTableEntry};
use classfuzz_classfile::instruction::{decode_code, encode_code};
use classfuzz_classfile::{
    ClassAccess, ClassFile, ConstIndex, Constant, ConstantPool, FieldAccess, Instruction,
    LookupSwitch, MethodAccess, Opcode, TableSwitch, MAGIC,
};
use proptest::prelude::*;

#[test]
fn header_bytes_are_exact() {
    let class = ClassFile::builder("A").build();
    let bytes = class.to_bytes();
    assert_eq!(&bytes[0..4], &MAGIC.to_be_bytes());
    assert_eq!(&bytes[4..6], &[0, 0], "minor version");
    assert_eq!(&bytes[6..8], &[0, 51], "major version 51 (Java 7)");
}

#[test]
fn empty_input_and_truncations_fail_cleanly() {
    assert!(ClassFile::from_bytes(&[]).is_err());
    let full = ClassFile::builder("A")
        .super_class("java/lang/Object")
        .build()
        .to_bytes();
    for cut in 1..full.len() {
        assert!(
            ClassFile::from_bytes(&full[..cut]).is_err(),
            "truncation at {cut} must fail"
        );
    }
}

#[test]
fn bad_magic_reports_value() {
    let err = ClassFile::from_bytes(&[0xDE, 0xAD, 0xBE, 0xEF, 0, 0, 0, 51]).unwrap_err();
    assert!(err.to_string().contains("0xdeadbeef"));
}

#[test]
fn long_and_double_survive_roundtrip() {
    let mut builder = ClassFile::builder("Wide");
    builder.constant_pool_mut().long(i64::MIN);
    builder.constant_pool_mut().double(f64::MAX);
    builder.constant_pool_mut().long(-1);
    let class = builder.build();
    let parsed = ClassFile::from_bytes(&class.to_bytes()).unwrap();
    let longs: Vec<i64> = parsed
        .constant_pool
        .iter()
        .filter_map(|(_, c)| match c {
            Constant::Long(v) => Some(*v),
            _ => None,
        })
        .collect();
    assert_eq!(longs, vec![i64::MIN, -1]);
}

#[test]
fn unicode_class_names_roundtrip() {
    let class = ClassFile::builder("pkg/Класс日本").build();
    let parsed = ClassFile::from_bytes(&class.to_bytes()).unwrap();
    assert_eq!(parsed.this_class_name().as_deref(), Some("pkg/Класс日本"));
}

#[test]
fn exception_table_roundtrip() {
    let code = CodeAttribute {
        max_stack: 1,
        max_locals: 1,
        instructions: vec![
            Instruction::Simple(Opcode::Nop),
            Instruction::Simple(Opcode::Return),
        ],
        exception_table: vec![ExceptionTableEntry {
            start_pc: 0,
            end_pc: 1,
            handler_pc: 1,
            catch_type: ConstIndex(0),
        }],
        attributes: vec![],
    };
    let class = ClassFile::builder("Try")
        .super_class("java/lang/Object")
        .method(MethodAccess::STATIC, "m", "()V", code)
        .build();
    let parsed = ClassFile::from_bytes(&class.to_bytes()).unwrap();
    let table = &parsed
        .find_method("m", "()V")
        .unwrap()
        .code()
        .unwrap()
        .exception_table;
    assert_eq!(table.len(), 1);
    assert_eq!(table[0].end_pc, 1);
}

#[test]
fn unknown_attributes_are_preserved_verbatim() {
    let mut builder = ClassFile::builder("Attrs");
    let name = builder.constant_pool_mut().utf8("MadeUpAttribute");
    let mut class = builder.build();
    class.attributes.push(Attribute::Unknown {
        name,
        data: vec![1, 2, 3, 4],
    });
    let parsed = ClassFile::from_bytes(&class.to_bytes()).unwrap();
    assert!(matches!(
        &parsed.attributes[0],
        Attribute::Unknown { data, .. } if data == &vec![1, 2, 3, 4]
    ));
}

#[test]
fn flags_roundtrip_raw_including_reserved_bits() {
    let mut class = ClassFile::builder("F")
        .flags(ClassAccess::from_bits(0xFFFF))
        .field(FieldAccess::from_bits(0xABCD), "f", "I")
        .build();
    class.methods.push(classfuzz_classfile::MethodInfo {
        access: MethodAccess::from_bits(0x1234),
        name: class.constant_pool.utf8("m"),
        descriptor: class.constant_pool.utf8("()V"),
        attributes: vec![],
    });
    let parsed = ClassFile::from_bytes(&class.to_bytes()).unwrap();
    assert_eq!(parsed.access.bits(), 0xFFFF);
    assert_eq!(parsed.fields[0].access.bits(), 0xABCD);
    assert_eq!(parsed.methods[0].access.bits(), 0x1234);
}

fn instruction_strategy() -> impl Strategy<Value = Instruction> {
    prop_oneof![
        Just(Instruction::Simple(Opcode::Nop)),
        Just(Instruction::Simple(Opcode::Iadd)),
        Just(Instruction::Simple(Opcode::Dup2X2)),
        Just(Instruction::Simple(Opcode::Return)),
        any::<i8>().prop_map(Instruction::Bipush),
        any::<i16>().prop_map(Instruction::Sipush),
        (1u16..=255).prop_map(|i| Instruction::Ldc(ConstIndex(i))),
        (1u16..=9000).prop_map(|i| Instruction::LdcW(ConstIndex(i))),
        (0u16..=1000).prop_map(|i| Instruction::Local(Opcode::Iload, i)),
        (0u16..=1000).prop_map(|i| Instruction::Local(Opcode::Astore, i)),
        (0u16..400u16, -2000i16..2000)
            .prop_map(|(index, delta)| Instruction::Iinc { index, delta }),
        (1u16..2000).prop_map(|i| Instruction::Field(Opcode::Getstatic, ConstIndex(i))),
        (1u16..2000).prop_map(|i| Instruction::Invoke(Opcode::Invokevirtual, ConstIndex(i))),
        (1u16..2000, 1u8..20).prop_map(|(i, count)| Instruction::InvokeInterface {
            index: ConstIndex(i),
            count
        }),
        (1u16..2000).prop_map(|i| Instruction::New(ConstIndex(i))),
        (4u8..=11).prop_map(Instruction::NewArray),
        (1u16..2000, 1u8..5).prop_map(|(i, dims)| Instruction::MultiANewArray {
            index: ConstIndex(i),
            dims
        }),
    ]
}

proptest! {
    /// Any sequence of operand-bearing instructions encodes and decodes to
    /// itself, regardless of alignment shifts introduced by earlier items.
    #[test]
    fn instruction_stream_roundtrip(
        insns in proptest::collection::vec(instruction_strategy(), 0..60)
    ) {
        let bytes = encode_code(&insns);
        let decoded = decode_code(&bytes).expect("round-trip decode");
        let got: Vec<Instruction> = decoded.into_iter().map(|(_, i)| i).collect();
        prop_assert_eq!(got, insns);
    }

    /// Switch padding is correct at every alignment offset.
    #[test]
    fn switches_roundtrip_at_any_alignment(
        pad in 0usize..8,
        keys in proptest::collection::btree_set(-500i32..500, 1..8)
    ) {
        let mut insns: Vec<Instruction> =
            (0..pad).map(|_| Instruction::Simple(Opcode::Nop)).collect();
        insns.push(Instruction::LookupSwitch(LookupSwitch {
            default: 0,
            pairs: keys.iter().map(|&k| (k, 0)).collect(),
        }));
        insns.push(Instruction::TableSwitch(TableSwitch {
            default: 0,
            low: 3,
            high: 5,
            targets: vec![0, 0, 0],
        }));
        let bytes = encode_code(&insns);
        let decoded = decode_code(&bytes).expect("switch decode");
        let got: Vec<Instruction> = decoded.into_iter().map(|(_, i)| i).collect();
        prop_assert_eq!(got, insns);
    }

    /// Decoding arbitrary bytes never panics.
    #[test]
    fn decoder_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = decode_code(&bytes);
    }
}

/// A classfile header plus a raw constant pool: `count` as written, then
/// the given entry bytes, then an empty class body.
fn class_with_raw_pool(count: u16, entries: &[u8]) -> Vec<u8> {
    let mut bytes = MAGIC.to_be_bytes().to_vec();
    bytes.extend_from_slice(&[0, 0, 0, 51]);
    bytes.extend_from_slice(&count.to_be_bytes());
    bytes.extend_from_slice(entries);
    // access, this, super, and zero interfaces/fields/methods/attributes.
    bytes.extend_from_slice(&[0; 14]);
    bytes
}

const INTEGER_ZERO: [u8; 5] = [3, 0, 0, 0, 0];
const LONG_ONE: [u8; 9] = [5, 0, 0, 0, 0, 0, 0, 0, 1];

#[test]
fn wide_entry_in_the_last_slot_is_rejected() {
    // count 3: slots 1 and 2. A Long at slot 2 would need slot 3.
    let small = class_with_raw_pool(3, &[INTEGER_ZERO.as_slice(), &LONG_ONE].concat());
    let err = ClassFile::from_bytes(&small).unwrap_err();
    assert!(err.to_string().contains("index 2"), "{err}");

    // With one more slot the same pool is valid: the Long fills 2 and 3.
    let fits = class_with_raw_pool(4, &[INTEGER_ZERO.as_slice(), &LONG_ONE].concat());
    let parsed = ClassFile::from_bytes(&fits).unwrap();
    assert_eq!(parsed.constant_pool.slot_count(), 3);
    assert_eq!(
        parsed.constant_pool.entry(ConstIndex(3)),
        Some(&Constant::Unusable)
    );
}

#[test]
fn wide_entry_at_the_u16_ceiling_is_rejected_without_overflow() {
    // count 0xFFFF: slots 1..=65534. 65,533 Integers fill 1..=65533 and a
    // Long lands on 65534, whose second slot would be 65535.
    let mut entries = INTEGER_ZERO.repeat(65_533);
    entries.extend_from_slice(&LONG_ONE);
    let err = ClassFile::from_bytes(&class_with_raw_pool(0xFFFF, &entries)).unwrap_err();
    assert!(err.to_string().contains("index 65534"), "{err}");
}

/// One interning call, replayed identically on several pools.
#[derive(Debug, Clone)]
enum Intern {
    Utf8(String),
    Integer(i32),
    Float(u32),
    Long(i64),
    Double(u64),
    Class(String),
    Str(String),
    NameAndType(String, String),
    FieldRef(String, String, String),
    MethodRef(String, String, String),
    InterfaceMethodRef(String, String, String),
}

impl Intern {
    fn apply(&self, pool: &mut ConstantPool) -> ConstIndex {
        match self {
            Intern::Utf8(s) => pool.utf8(s),
            Intern::Integer(v) => pool.integer(*v),
            Intern::Float(bits) => pool.float(f32::from_bits(*bits)),
            Intern::Long(v) => pool.long(*v),
            Intern::Double(bits) => pool.double(f64::from_bits(*bits)),
            Intern::Class(s) => pool.class(s),
            Intern::Str(s) => pool.string(s),
            Intern::NameAndType(n, d) => pool.name_and_type(n, d),
            Intern::FieldRef(c, n, d) => pool.field_ref(c, n, d),
            Intern::MethodRef(c, n, d) => pool.method_ref(c, n, d),
            Intern::InterfaceMethodRef(c, n, d) => pool.interface_method_ref(c, n, d),
        }
    }

    /// Whether `index` in `pool` holds what this call interned.
    fn resolves(&self, pool: &ConstantPool, index: ConstIndex) -> bool {
        let entry = pool.entry(index);
        let member = |tag: u8, c: &str, n: &str, d: &str| {
            entry.and_then(Constant::tag) == Some(tag)
                && pool.member_ref_parts(index) == Some((c.into(), n.into(), d.into()))
        };
        match self {
            Intern::Utf8(s) => pool.utf8_text(index) == Some(s.as_str()),
            Intern::Integer(v) => entry == Some(&Constant::Integer(*v)),
            Intern::Float(bits) => {
                matches!(entry, Some(Constant::Float(f)) if f.to_bits() == *bits)
            }
            Intern::Long(v) => entry == Some(&Constant::Long(*v)),
            Intern::Double(bits) => {
                matches!(entry, Some(Constant::Double(f)) if f.to_bits() == *bits)
            }
            Intern::Class(s) => pool.class_name(index).as_deref() == Some(s.as_str()),
            Intern::Str(s) => {
                matches!(entry, Some(Constant::String(i)) if pool.utf8_text(*i) == Some(s.as_str()))
            }
            Intern::NameAndType(n, d) => {
                pool.name_and_type_parts(index) == Some((n.clone(), d.clone()))
            }
            Intern::FieldRef(c, n, d) => member(9, c, n, d),
            Intern::MethodRef(c, n, d) => member(10, c, n, d),
            Intern::InterfaceMethodRef(c, n, d) => member(11, c, n, d),
        }
    }
}

/// Float and double bit patterns whose interning must stay bit-exact:
/// both zeros, two distinct NaN payloads, and an ordinary value.
const FLOAT_BITS: [u32; 5] = [
    0x0000_0000,
    0x8000_0000,
    0x7fc0_0000,
    0x7fc0_0001,
    0x3f80_0000,
];
const DOUBLE_BITS: [u64; 5] = [
    0,
    0x8000_0000_0000_0000,
    0x7ff8_0000_0000_0000,
    0x7ff8_0000_0000_0001,
    0x3ff0_0000_0000_0000,
];

/// Short texts from a tiny alphabet, so duplicates are common.
fn text() -> &'static str {
    "[ab]{0,2}"
}

fn entry_strategy() -> impl Strategy<Value = Constant> {
    let index = || (0u16..6).prop_map(ConstIndex);
    prop_oneof![
        text().prop_map(Constant::Utf8),
        (-2i32..3).prop_map(Constant::Integer),
        (0usize..5).prop_map(|i| Constant::Float(f32::from_bits(FLOAT_BITS[i]))),
        (-2i64..3).prop_map(Constant::Long),
        (0usize..5).prop_map(|i| Constant::Double(f64::from_bits(DOUBLE_BITS[i]))),
        index().prop_map(Constant::Class),
        index().prop_map(Constant::String),
        (index(), index()).prop_map(|(a, b)| Constant::NameAndType(a, b)),
        (index(), index()).prop_map(|(a, b)| Constant::MethodRef(a, b)),
        (0u8..10, index()).prop_map(|(k, i)| Constant::MethodHandle(k, i)),
    ]
}

fn intern_strategy() -> impl Strategy<Value = Intern> {
    prop_oneof![
        text().prop_map(Intern::Utf8),
        (-2i32..3).prop_map(Intern::Integer),
        (0usize..5).prop_map(|i| Intern::Float(FLOAT_BITS[i])),
        (-2i64..3).prop_map(Intern::Long),
        (0usize..5).prop_map(|i| Intern::Double(DOUBLE_BITS[i])),
        text().prop_map(Intern::Class),
        text().prop_map(Intern::Str),
        (text(), text()).prop_map(|(n, d)| Intern::NameAndType(n, d)),
        (text(), text(), text()).prop_map(|(c, n, d)| Intern::FieldRef(c, n, d)),
        (text(), text(), text()).prop_map(|(c, n, d)| Intern::MethodRef(c, n, d)),
        (text(), text(), text()).prop_map(|(c, n, d)| Intern::InterfaceMethodRef(c, n, d)),
    ]
}

/// Entry identity as interning sees it: floats compare by bits.
fn same_entry(a: &Constant, b: &Constant) -> bool {
    match (a, b) {
        (Constant::Float(x), Constant::Float(y)) => x.to_bits() == y.to_bits(),
        (Constant::Double(x), Constant::Double(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Slot-by-slot [`same_entry`]: pool equality that holds across NaNs.
fn same_pool(a: &ConstantPool, b: &ConstantPool) -> bool {
    a.slot_count() == b.slot_count()
        && a.iter()
            .zip(b.iter())
            .all(|((_, x), (_, y))| same_entry(x, y))
}

proptest! {
    /// A parsed pool, which builds its interning index only on the first
    /// interning call, interns exactly like the pool it was written from
    /// and like a pool indexed as it grew: every call returns the same
    /// index, and that index is the lowest one holding the entry.
    #[test]
    fn parsed_and_pushed_pools_intern_alike(
        entries in proptest::collection::vec(entry_strategy(), 0..40),
        calls in proptest::collection::vec(intern_strategy(), 1..40)
    ) {
        let mut pushed = ConstantPool::new();
        // Interleave interning with the verbatim pushes, so this pool's
        // index is caught up piecemeal.
        let mut grown = ConstantPool::new();
        for (i, entry) in entries.iter().enumerate() {
            pushed.push(entry.clone());
            grown.push(entry.clone());
            if let Some(call) = calls.get(i % calls.len()).filter(|_| i % 3 == 0) {
                call.apply(&mut grown);
            }
        }
        let mut class = ClassFile::builder("P").build();
        class.constant_pool = pushed.clone();
        let mut parsed = ClassFile::from_bytes(&class.to_bytes())
            .expect("a written pool parses back")
            .constant_pool;
        prop_assert!(same_pool(&parsed, &pushed));

        for call in &calls {
            let from_parsed = call.apply(&mut parsed);
            let from_pushed = call.apply(&mut pushed);
            prop_assert_eq!(from_parsed, from_pushed, "{:?}", call);
            let entry = parsed.entry(from_parsed).expect("interning returns a live index");
            let lowest = parsed.iter().find(|(_, c)| same_entry(c, entry)).map(|(i, _)| i);
            prop_assert_eq!(lowest, Some(from_parsed), "{:?} is not the lowest match", call);
            prop_assert!(call.resolves(&parsed, from_parsed), "{:?}", call);
            let from_grown = call.apply(&mut grown);
            prop_assert!(call.resolves(&grown, from_grown), "{:?}", call);
            let grown_entry = grown.entry(from_grown).expect("interning returns a live index");
            let lowest = grown.iter().find(|(_, c)| same_entry(c, grown_entry)).map(|(i, _)| i);
            prop_assert_eq!(lowest, Some(from_grown), "{:?} is not the lowest match", call);
        }
        prop_assert!(same_pool(&parsed, &pushed));
    }
}
