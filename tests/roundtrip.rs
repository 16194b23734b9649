//! Property-based tests on the classfile codec, the IR lowerer, and the
//! VM's robustness: arbitrary structures round-trip; arbitrary *bytes*
//! never panic any JVM profile.

use classfuzz::classfile::{ClassFile, FieldType, MethodDescriptor};
use classfuzz::core::seeds::SeedCorpus;
use classfuzz::coverage::TraceFile;
use classfuzz::jimple::lower::lower_class;
use classfuzz::vm::{Jvm, VmSpec};
use proptest::prelude::*;

fn field_type_strategy() -> impl Strategy<Value = FieldType> {
    let leaf = prop_oneof![
        Just(FieldType::Byte),
        Just(FieldType::Char),
        Just(FieldType::Double),
        Just(FieldType::Float),
        Just(FieldType::Int),
        Just(FieldType::Long),
        Just(FieldType::Short),
        Just(FieldType::Boolean),
        "[a-zA-Z][a-zA-Z0-9_/$]{0,20}".prop_map(FieldType::Object),
    ];
    leaf.prop_recursive(3, 8, 2, |inner| {
        inner.prop_map(|t| FieldType::Array(Box::new(t)))
    })
}

proptest! {
    /// Field descriptors round-trip: render → parse → identical.
    #[test]
    fn field_descriptor_roundtrip(ft in field_type_strategy()) {
        let text = ft.to_descriptor();
        let parsed = FieldType::parse(&text).expect("rendered descriptor parses");
        prop_assert_eq!(parsed, ft);
    }

    /// Method descriptors round-trip.
    #[test]
    fn method_descriptor_roundtrip(
        params in proptest::collection::vec(field_type_strategy(), 0..6),
        ret in proptest::option::of(field_type_strategy()),
    ) {
        let d = MethodDescriptor::new(params, ret);
        let text = d.to_descriptor();
        let parsed = MethodDescriptor::parse(&text).expect("rendered descriptor parses");
        prop_assert_eq!(parsed, d);
    }

    /// Parsing arbitrary bytes never panics — it errors or yields a
    /// classfile whose re-serialization parses again.
    #[test]
    fn classfile_parser_total(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        if let Ok(cf) = ClassFile::from_bytes(&bytes) {
            let out = cf.to_bytes();
            let again = ClassFile::from_bytes(&out).expect("re-serialized bytes parse");
            prop_assert_eq!(again.to_bytes(), out, "serialization is a fixpoint");
        }
    }

    /// Arbitrary bytes never panic *any* of the five JVM profiles; every
    /// run terminates in one of the five phases.
    #[test]
    fn vm_startup_is_total_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        for spec in VmSpec::all_five() {
            let result = Jvm::new(spec).run(&bytes);
            prop_assert!(result.outcome.phase().code() <= 4);
        }
    }

    /// Garbage classfiles that *start* valid (magic + version) still never
    /// panic the reference JVM's traced mode.
    #[test]
    fn traced_reference_vm_total(tail in proptest::collection::vec(any::<u8>(), 0..200)) {
        let mut bytes = vec![0xCA, 0xFE, 0xBA, 0xBE, 0x00, 0x00, 0x00, 0x33];
        bytes.extend(tail);
        let jvm = Jvm::new(VmSpec::hotspot9());
        let mut trace = TraceFile::new();
        jvm.run_traced_into(&bytes, &mut trace);
        prop_assert!(trace.stats().stmt > 0, "the entry probe always fires");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every seed corpus lowers, serializes, re-parses, and re-serializes
    /// to identical bytes, for arbitrary generator seeds.
    #[test]
    fn seed_corpus_bytes_are_stable(seed in any::<u64>()) {
        let corpus = SeedCorpus::generate(6, seed);
        for class in corpus.classes() {
            let bytes = lower_class(class).to_bytes();
            let parsed = ClassFile::from_bytes(&bytes).expect("seed classfiles parse");
            prop_assert_eq!(parsed.to_bytes(), bytes);
        }
    }

    /// Every seed classfile terminates on every profile (no panics, no
    /// hangs) for arbitrary generator seeds.
    #[test]
    fn seeds_terminate_everywhere(seed in any::<u64>()) {
        let corpus = SeedCorpus::generate(4, seed);
        for bytes in corpus.to_bytes() {
            for spec in VmSpec::all_five() {
                let _ = Jvm::new(spec).run(&bytes);
            }
        }
    }
}
