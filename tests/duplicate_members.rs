//! Duplicate members, pinned on all five profiles.
//!
//! Whether a class repeats a field's or a method's (name, descriptor) text
//! depends only on its classfile, so the VM finds it once per class; each
//! profile's format check then reads that fact where it used to compare the
//! members pairwise, and only GIJ's `allow_duplicate_fields` decides what a
//! repeated field means. This file runs one class per case on every profile
//! with coverage on and pins each run's `(phase, kind, message)` verdict
//! and its trace: the statement and branch counts and the fingerprint of
//! the trace words.
//!
//! The whole file is one test, so a single thread hits the probes in a
//! fixed order and the slot layout behind the fingerprints is the same in
//! every run. A change that moves, adds or removes a probe on these paths
//! changes the fingerprints and must pin them again.

use classfuzz::classfile::{ConstIndex, FieldAccess, MethodAccess};
use classfuzz::coverage::TraceFile;
use classfuzz::jimple::{lower::lower_class, IrClass, IrField, IrMethod, JType};
use classfuzz::vm::{Jvm, Outcome, VmSpec};

fn field(name: &str) -> IrField {
    IrField {
        access: FieldAccess::PUBLIC,
        name: name.into(),
        ty: JType::Int,
        constant_value: None,
    }
}

fn abstract_method(name: &str, params: Vec<JType>) -> IrMethod {
    IrMethod::abstract_method(
        MethodAccess::PUBLIC | MethodAccess::ABSTRACT,
        name,
        params,
        None,
    )
}

/// An abstract class with `main`, so abstract members are legal on every
/// profile.
fn abstract_class(name: &str) -> IrClass {
    let mut class = IrClass::with_hello_main(name, "Completed!");
    class.access |= classfuzz::classfile::ClassAccess::ABSTRACT;
    class
}

/// Rewrites the text of the one one-byte `Utf8` entry reading `from` to
/// `to`: two members then carry *different* name entries with equal text.
fn retext(mut bytes: Vec<u8>, from: u8, to: u8) -> Vec<u8> {
    let pattern = [1, 0, 1, from];
    let at: Vec<usize> = bytes
        .windows(4)
        .enumerate()
        .filter(|(_, w)| *w == pattern)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(at.len(), 1, "one Utf8 entry reads {:?}", from as char);
    bytes[at[0] + 3] = to;
    bytes
}

/// The cases, by name, as classfile bytes.
fn cases() -> Vec<(&'static str, Vec<u8>)> {
    // Two fields whose names are distinct Utf8 entries, one renamed to
    // the other's text.
    let mut distinct = abstract_class("p/DistinctEntries");
    distinct.fields.extend([field("f"), field("g")]);
    let distinct = retext(lower_class(&distinct).to_bytes(), b'g', b'f');

    // Two fields and two methods whose names do not resolve, each pair
    // under one descriptor: both read as `$badname` and so repeat each
    // other, but the illegal-name check of the first one comes first.
    let mut unnamed = abstract_class("p/Unnamed");
    unnamed.fields.extend([field("f"), field("g")]);
    let mut unnamed_fields = lower_class(&unnamed);
    for f in &mut unnamed_fields.fields {
        f.name = ConstIndex(u16::MAX);
    }
    unnamed.fields.clear();
    unnamed
        .methods
        .extend([abstract_method("m", vec![]), abstract_method("n", vec![])]);
    let mut unnamed_methods = lower_class(&unnamed);
    let n = unnamed_methods.methods.len();
    unnamed_methods.methods[n - 2].name = ConstIndex(u16::MAX);
    // The other one points at a non-Utf8 entry.
    unnamed_methods.methods[n - 1].name = unnamed_methods.this_class;

    // The same field twice, one entry: GIJ alone accepts it.
    let mut twin_fields = abstract_class("p/TwinFields");
    twin_fields
        .fields
        .extend([field("a"), field("twin"), field("b"), field("twin")]);

    // The same method twice: every profile rejects it.
    let mut twin_methods = abstract_class("p/TwinMethods");
    twin_methods.methods.extend([
        abstract_method("twin", vec![JType::Int]),
        abstract_method("other", vec![]),
        abstract_method("twin", vec![JType::Int]),
    ]);

    // Overloads share a name, not a descriptor: no duplicate.
    let mut overloads = abstract_class("p/Overloads");
    overloads.fields.extend([field("x")]);
    overloads.methods.extend([
        abstract_method("m", vec![]),
        abstract_method("m", vec![JType::Int]),
    ]);

    vec![
        ("distinct entries, equal text", distinct),
        ("unresolvable field names", unnamed_fields.to_bytes()),
        ("unresolvable method names", unnamed_methods.to_bytes()),
        ("duplicate field", lower_class(&twin_fields).to_bytes()),
        ("duplicate method", lower_class(&twin_methods).to_bytes()),
        ("overloads", lower_class(&overloads).to_bytes()),
    ]
}

/// One run's verdict: `phase kind message`, or `Invoked`.
fn verdict(outcome: &Outcome) -> String {
    match outcome.error() {
        Some(error) => format!("{:?} {:?} {}", outcome.phase(), error.kind, error.message),
        None => format!("{:?}", outcome.phase()),
    }
}

/// Per case, one line per profile in `VmSpec::all_five` order: the
/// verdict, then the trace's statement and branch counts and its
/// fingerprint.
const PINNED: &str = "\
distinct entries, equal text
  HotSpot for Java 7: Loading ClassFormatError duplicate field name&signature: f | 6 12 ead71e0a4cdbc3f5
  HotSpot for Java 8: Loading ClassFormatError duplicate field name&signature: f | 6 12 ead71e0a4cdbc3f5
  HotSpot for Java 9: Loading ClassFormatError duplicate field name&signature: f | 6 12 ead71e0a4cdbc3f5
  J9 for IBM SDK8: Loading ClassFormatError duplicate field name&signature: f | 6 12 ead71e0a4cdbc3f5
  GIJ 5.1.0: Invoked | 27 46 dce21fe47596098f
unresolvable field names
  HotSpot for Java 7: Loading ClassFormatError illegal field name \"$badname\" | 6 6 4e25b3a995c9dff5
  HotSpot for Java 8: Loading ClassFormatError illegal field name \"$badname\" | 6 6 4e25b3a995c9dff5
  HotSpot for Java 9: Loading ClassFormatError illegal field name \"$badname\" | 6 6 4e25b3a995c9dff5
  J9 for IBM SDK8: Loading ClassFormatError illegal field name \"$badname\" | 6 6 4e25b3a995c9dff5
  GIJ 5.1.0: Loading ClassFormatError illegal field name \"$badname\" | 6 6 4e25b3a995c9dff5
unresolvable method names
  HotSpot for Java 7: Loading ClassFormatError illegal method name \"$badname\" | 8 16 0d07f763784b6a01
  HotSpot for Java 8: Loading ClassFormatError illegal method name \"$badname\" | 8 16 0d07f763784b6a01
  HotSpot for Java 9: Loading ClassFormatError illegal method name \"$badname\" | 8 16 0d07f763784b6a01
  J9 for IBM SDK8: Loading ClassFormatError illegal method name \"$badname\" | 8 16 0d07f763784b6a01
  GIJ 5.1.0: Loading ClassFormatError illegal method name \"$badname\" | 8 16 0d07f763784b6a01
duplicate field
  HotSpot for Java 7: Loading ClassFormatError duplicate field name&signature: twin | 6 12 ead71e0a4cdbc3f5
  HotSpot for Java 8: Loading ClassFormatError duplicate field name&signature: twin | 6 12 ead71e0a4cdbc3f5
  HotSpot for Java 9: Loading ClassFormatError duplicate field name&signature: twin | 6 12 ead71e0a4cdbc3f5
  J9 for IBM SDK8: Loading ClassFormatError duplicate field name&signature: twin | 6 12 ead71e0a4cdbc3f5
  GIJ 5.1.0: Invoked | 27 46 dce21fe47596098f
duplicate method
  HotSpot for Java 7: Loading ClassFormatError duplicate method name&signature: twin | 9 18 65189a9fc1599ad3
  HotSpot for Java 8: Loading ClassFormatError duplicate method name&signature: twin | 9 18 65189a9fc1599ad3
  HotSpot for Java 9: Loading ClassFormatError duplicate method name&signature: twin | 9 18 65189a9fc1599ad3
  J9 for IBM SDK8: Loading ClassFormatError duplicate method name&signature: twin | 9 18 65189a9fc1599ad3
  GIJ 5.1.0: Loading ClassFormatError duplicate method name&signature: twin | 9 18 65189a9fc1599ad3
overloads
  HotSpot for Java 7: Invoked | 29 48 48e86ef9d19880e1
  HotSpot for Java 8: Invoked | 29 48 48e86ef9d19880e1
  HotSpot for Java 9: Invoked | 29 48 48e86ef9d19880e1
  J9 for IBM SDK8: Invoked | 28 48 025e583ab17b1483
  GIJ 5.1.0: Invoked | 28 48 21802481aed7b74a
";

#[test]
fn duplicate_members_keep_their_verdicts_and_traces() {
    let jvms: Vec<Jvm> = VmSpec::all_five().into_iter().map(Jvm::new).collect();
    let mut trace = TraceFile::new();
    let mut seen = String::new();
    for (case, bytes) in cases() {
        seen.push_str(case);
        seen.push('\n');
        for jvm in &jvms {
            let outcome = jvm.run_traced_into(&bytes, &mut trace).outcome;
            let stats = trace.stats();
            seen.push_str(&format!(
                "  {}: {} | {} {} {:016x}\n",
                jvm.spec().name,
                verdict(&outcome),
                stats.stmt,
                stats.br,
                trace.fingerprint()
            ));
        }
    }
    assert_eq!(seen, PINNED);
}
