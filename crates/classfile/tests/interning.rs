//! Constant-pool interning against a reference interner: whatever the
//! interning index hashes with, every call must return the index a plain
//! linear scan would (the lowest identical entry) and leave the same slot
//! layout.

use classfuzz_classfile::{ConstIndex, Constant, ConstantPool};
use proptest::prelude::*;

/// One pool operation. Float payloads travel as bits so the strategies can
/// aim at NaN payloads and `-0.0`.
#[derive(Debug, Clone)]
enum Op {
    Utf8(String),
    Integer(i32),
    Float(u32),
    Long(i64),
    Double(u64),
    Class(String),
    String(String),
    NameAndType(String, String),
    FieldRef(String, String, String),
    MethodRef(String, String, String),
    InterfaceMethodRef(String, String, String),
    /// A verbatim push around the interner, which plants duplicates so the
    /// lowest-index rule is exercised.
    Push(Constant),
    /// The same for a `Utf8` entry.
    PushUtf8(String),
    Clear,
}

/// A reference slot: a `Utf8` entry's text, or any other entry as is.
#[derive(Debug, Clone)]
enum Slot {
    Utf8(String),
    Other(Constant),
}

impl Slot {
    /// Slot `index` of `pool`, its `Utf8` text read through the pool.
    fn of(pool: &ConstantPool, index: ConstIndex, entry: &Constant) -> Slot {
        match entry {
            Constant::Utf8(_) => Slot::Utf8(pool.utf8_text(index).unwrap().to_string()),
            other => Slot::Other(other.clone()),
        }
    }
}

/// The reference: entries in slot layout, every lookup a scan from slot 1.
#[derive(Default)]
struct ScanPool {
    entries: Vec<Slot>,
}

/// Entry identity as interning defines it: text by text, floats by bits.
fn same(a: &Slot, b: &Slot) -> bool {
    match (a, b) {
        (Slot::Utf8(x), Slot::Utf8(y)) => x == y,
        (Slot::Other(Constant::Float(x)), Slot::Other(Constant::Float(y))) => {
            x.to_bits() == y.to_bits()
        }
        (Slot::Other(Constant::Double(x)), Slot::Other(Constant::Double(y))) => {
            x.to_bits() == y.to_bits()
        }
        (Slot::Other(x), Slot::Other(y)) => x == y,
        _ => false,
    }
}

impl ScanPool {
    fn push(&mut self, slot: Slot) -> ConstIndex {
        let wide = matches!(&slot, Slot::Other(c) if c.is_wide());
        self.entries.push(slot);
        let index = ConstIndex(self.entries.len() as u16);
        if wide {
            self.entries.push(Slot::Other(Constant::Unusable));
        }
        index
    }

    fn find_or_push_slot(&mut self, slot: Slot) -> ConstIndex {
        match self.entries.iter().position(|c| same(c, &slot)) {
            Some(i) => ConstIndex(i as u16 + 1),
            None => self.push(slot),
        }
    }

    fn find_or_push(&mut self, constant: Constant) -> ConstIndex {
        self.find_or_push_slot(Slot::Other(constant))
    }

    fn utf8(&mut self, text: &str) -> ConstIndex {
        self.find_or_push_slot(Slot::Utf8(text.to_string()))
    }

    fn class(&mut self, name: &str) -> ConstIndex {
        let n = self.utf8(name);
        self.find_or_push(Constant::Class(n))
    }

    fn name_and_type(&mut self, name: &str, descriptor: &str) -> ConstIndex {
        let n = self.utf8(name);
        let d = self.utf8(descriptor);
        self.find_or_push(Constant::NameAndType(n, d))
    }

    fn member(&mut self, class: &str, name: &str, descriptor: &str) -> (ConstIndex, ConstIndex) {
        (self.class(class), self.name_and_type(name, descriptor))
    }

    fn apply(&mut self, op: &Op) -> Option<ConstIndex> {
        Some(match op {
            Op::Utf8(s) => self.utf8(s),
            Op::Integer(v) => self.find_or_push(Constant::Integer(*v)),
            Op::Float(bits) => self.find_or_push(Constant::Float(f32::from_bits(*bits))),
            Op::Long(v) => self.find_or_push(Constant::Long(*v)),
            Op::Double(bits) => self.find_or_push(Constant::Double(f64::from_bits(*bits))),
            Op::Class(s) => self.class(s),
            Op::String(s) => {
                let i = self.utf8(s);
                self.find_or_push(Constant::String(i))
            }
            Op::NameAndType(n, d) => self.name_and_type(n, d),
            Op::FieldRef(c, n, d) => {
                let (c, nt) = self.member(c, n, d);
                self.find_or_push(Constant::FieldRef(c, nt))
            }
            Op::MethodRef(c, n, d) => {
                let (c, nt) = self.member(c, n, d);
                self.find_or_push(Constant::MethodRef(c, nt))
            }
            Op::InterfaceMethodRef(c, n, d) => {
                let (c, nt) = self.member(c, n, d);
                self.find_or_push(Constant::InterfaceMethodRef(c, nt))
            }
            Op::Push(c) => self.push(Slot::Other(c.clone())),
            Op::PushUtf8(s) => self.push(Slot::Utf8(s.clone())),
            Op::Clear => {
                self.entries.clear();
                return None;
            }
        })
    }
}

fn apply(pool: &mut ConstantPool, op: &Op) -> Option<ConstIndex> {
    Some(match op {
        Op::Utf8(s) => pool.utf8(s),
        Op::Integer(v) => pool.integer(*v),
        Op::Float(bits) => pool.float(f32::from_bits(*bits)),
        Op::Long(v) => pool.long(*v),
        Op::Double(bits) => pool.double(f64::from_bits(*bits)),
        Op::Class(s) => pool.class(s),
        Op::String(s) => pool.string(s),
        Op::NameAndType(n, d) => pool.name_and_type(n, d),
        Op::FieldRef(c, n, d) => pool.field_ref(c, n, d),
        Op::MethodRef(c, n, d) => pool.method_ref(c, n, d),
        Op::InterfaceMethodRef(c, n, d) => pool.interface_method_ref(c, n, d),
        Op::Push(c) => pool.push(c.clone()),
        Op::PushUtf8(s) => pool.push_utf8(s),
        Op::Clear => {
            pool.clear();
            return None;
        }
    })
}

/// Short texts over a tiny alphabet, empty and non-ASCII included, so
/// repeats are common.
fn text() -> BoxedStrategy<String> {
    "[ab/é€😀]{0,3}".boxed()
}

fn float_bits() -> BoxedStrategy<u32> {
    prop_oneof![
        Just(0u32),
        Just(0x8000_0000), // -0.0
        Just(0x7fc0_0000), // the canonical quiet NaN
        Just(0x7fc0_0001), // a NaN with a payload
        Just(0xffc0_0000), // a negative NaN
        Just(0x3f80_0000), // 1.0
        any::<u32>(),
    ]
    .boxed()
}

fn double_bits() -> BoxedStrategy<u64> {
    prop_oneof![
        Just(0u64),
        Just(0x8000_0000_0000_0000), // -0.0
        Just(0x7ff8_0000_0000_0000), // the canonical quiet NaN
        Just(0x7ff8_0000_0000_0001), // a NaN with a payload
        Just(0x7ff0_0000_0000_0001), // a signalling NaN
        Just(0x3ff0_0000_0000_0000), // 1.0
        any::<u64>(),
    ]
    .boxed()
}

fn op() -> BoxedStrategy<Op> {
    let member = || (text(), text(), text());
    prop_oneof![
        text().prop_map(Op::Utf8),
        text().prop_map(Op::Utf8),
        (-2i32..3).prop_map(Op::Integer),
        any::<i32>().prop_map(Op::Integer),
        float_bits().prop_map(Op::Float),
        (-2i64..3).prop_map(Op::Long),
        double_bits().prop_map(Op::Double),
        text().prop_map(Op::Class),
        text().prop_map(Op::String),
        (text(), text()).prop_map(|(n, d)| Op::NameAndType(n, d)),
        member().prop_map(|(c, n, d)| Op::FieldRef(c, n, d)),
        member().prop_map(|(c, n, d)| Op::MethodRef(c, n, d)),
        member().prop_map(|(c, n, d)| Op::InterfaceMethodRef(c, n, d)),
        text().prop_map(Op::PushUtf8),
        (-2i32..3).prop_map(|v| Op::Push(Constant::Integer(v))),
        double_bits().prop_map(|b| Op::Push(Constant::Double(f64::from_bits(b)))),
        (1u16..6).prop_map(|i| Op::Push(Constant::Class(ConstIndex(i)))),
        Just(Op::Clear),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn interning_matches_a_linear_scan(ops in proptest::collection::vec(op(), 1..60)) {
        let mut pool = ConstantPool::new();
        let mut reference = ScanPool::default();
        for (step, op) in ops.iter().enumerate() {
            prop_assert_eq!(apply(&mut pool, op), reference.apply(op), "step {} ({:?})", step, op);
        }
        let slots: Vec<Slot> = pool.iter().map(|(i, c)| Slot::of(&pool, i, c)).collect();
        prop_assert_eq!(slots.len(), reference.entries.len());
        for (i, (got, want)) in slots.iter().zip(&reference.entries).enumerate() {
            prop_assert!(same(got, want), "slot {}: {:?} != {:?}", i + 1, got, want);
        }
    }
}
