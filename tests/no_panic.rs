//! "Fuzz the fuzzer": adversarial classfile bytes must never panic the
//! pipeline. Random blobs, truncated prefixes of valid classfiles, and
//! bit-flipped valid classfiles all go through structural decoding and a
//! full five-profile startup; every profile must come back with a clean
//! verdict — in particular *not* a contained-crash verdict, which would
//! mean a panic fired inside our own VM (see DESIGN.md, "Fault
//! containment").

use classfuzz::classfile::ClassFile;
use classfuzz::core::seeds::SeedCorpus;
use classfuzz::coverage::TraceFile;
use classfuzz::vm::{preparse, Jvm, VmSpec};
use proptest::prelude::*;

/// Drives `bytes` through the whole front half of the pipeline: structural
/// decode (must return a `Result`, never unwind) and startup on all five
/// VM profiles (containment turns an internal panic into a crash verdict,
/// which this test treats as a bug: malformed input must be *rejected*,
/// not crash the VM).
///
/// Doubles as the parse-once equivalence oracle: on every profile, running
/// the raw bytes and running the shared [`preparse`] result must produce
/// the identical outcome — and, for the traced reference profile, the
/// identical coverage trace — over well-formed, truncated, and corrupted
/// inputs alike.
fn pipeline_survives(bytes: &[u8]) -> Result<(), String> {
    let _ = ClassFile::from_bytes(bytes);
    let parsed = preparse(bytes);
    for spec in VmSpec::all_five() {
        let name = spec.name.clone();
        let jvm = Jvm::new(spec);
        let from_bytes = jvm.run(bytes);
        let from_parsed = jvm.run_parsed(&parsed);
        prop_assert!(
            !from_bytes.outcome.is_crash(),
            "profile {name} crashed on {}-byte input: {}",
            bytes.len(),
            from_bytes.outcome
        );
        prop_assert_eq!(
            &from_bytes,
            &from_parsed,
            "profile {} diverged between the bytes path and the parsed path",
            &name
        );
    }
    // The reference profile also collects coverage: the trace must be
    // identical between the two paths, or campaign determinism breaks.
    let reference = Jvm::new(VmSpec::hotspot9());
    let (mut from_bytes, mut from_parsed) = (TraceFile::new(), TraceFile::new());
    let bytes_run = reference.run_traced_into(bytes, &mut from_bytes);
    let parsed_run = reference.run_traced_into_parsed(&parsed, &mut from_parsed);
    prop_assert_eq!(
        (bytes_run, from_bytes),
        (parsed_run, from_parsed),
        "reference trace diverged between the bytes path and the parsed path"
    );
    Ok(())
}

/// A small corpus of valid classfiles to truncate and corrupt.
fn valid_corpus() -> Vec<Vec<u8>> {
    SeedCorpus::generate(4, 0xF12E).to_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn random_blobs_never_crash_the_pipeline(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        pipeline_survives(&bytes)?;
    }

    #[test]
    fn truncated_classfiles_never_crash_the_pipeline(
        pick in 0usize..4,
        permille in 0usize..1000,
    ) {
        let corpus = valid_corpus();
        let bytes = &corpus[pick];
        let keep = bytes.len() * permille / 1000;
        pipeline_survives(&bytes[..keep])?;
    }

    #[test]
    fn bit_flipped_classfiles_never_crash_the_pipeline(
        pick in 0usize..4,
        flips in proptest::collection::vec((any::<usize>(), 0u8..8), 1..6),
    ) {
        let corpus = valid_corpus();
        let mut bytes = corpus[pick].clone();
        let len = bytes.len();
        for (pos, bit) in flips {
            bytes[pos % len] ^= 1 << bit;
        }
        pipeline_survives(&bytes)?;
    }
}
