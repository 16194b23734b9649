//! Allocation budget of a warm profile run, of the first five-profile pass
//! over a fresh decode, of one classification and of one parse.
//!
//! The test binary counts every heap request its thread makes (a global
//! allocator with a thread-local counter, so the harness's own threads do
//! not disturb it). It runs one fixed seed class through each of the five
//! profiles, twice to warm the class's shared decoded-method table and the
//! thread's verifier workspace and once counted, then counts one
//! `OutcomeVector` classification. A second test counts the first pass
//! over a fresh decode, the one that fills the table, and a third one
//! `preparse` of the class's bytes. Each count must stay under the ceiling
//! pinned below.
//!
//! The ceilings hold the per-run allocation budget (DESIGN.md §16): the
//! verifier reuses its per-thread frames, hierarchy walks and name lookups
//! borrow, and the interpreter starts with only its heap vector. A change
//! that brings back a per-run copy trips the matching ceiling.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use classfuzz::core::diff::OutcomeVector;
use classfuzz::core::seeds::SeedCorpus;
use classfuzz::jimple::lower::lower_class;
use classfuzz::vm::{preparse, Jvm, VmSpec};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`], counting this thread's `alloc`/`realloc`/`alloc_zeroed`.
struct ThreadCounting;

fn count_one() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: defers every operation to `System`; the counter is a side effect
// with no aliasing or layout implications.
unsafe impl GlobalAlloc for ThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOC: ThreadCounting = ThreadCounting;

/// Allocations this thread makes while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Ceilings on allocations per warm `Jvm::run_parsed` of the seed class,
/// by profile, in `VmSpec::all_five` order. The class's `main` prints one
/// string constant; a warm run of it on hotspot9 makes 9 allocations:
///
/// * the world overlay's user-class vector and the machine's heap vector;
/// * `main`'s argument vector, locals and operand stack;
/// * the `ldc` string and the `println` argument vector;
/// * the printed line and the `stdout` vector that holds it.
///
/// The `println` dispatch walks the receiver's class chain on borrowed
/// names and allocates nothing. hotspot7, hotspot8 and gij make the same
/// 9. j9 verifies lazily and makes 11: it also records the verified method
/// in its set, keyed on the decoded method's interned class name and the
/// method's index, so the key copies no name; the name table's first node
/// and the set's first node are the two extra allocations. Each ceiling is
/// that count plus two.
const RUN_CEILINGS: [(&str, u64); 5] = [
    ("HotSpot for Java 7", 11),
    ("HotSpot for Java 8", 11),
    ("HotSpot for Java 9", 11),
    ("J9 for IBM SDK8", 13),
    ("GIJ 5.1.0", 11),
];

/// Ceiling on one classification: the startup key, the execution key and
/// both discrepancy tests, as a triage step reads them. The two keys are
/// one `String` each and the tests compare columns in place: 2
/// allocations, plus two.
const CLASSIFY_CEILING: u64 = 4;

/// Ceiling on the first five-profile pass over a fresh decode of the seed
/// class: the pass that fills its decoded-method table. The thread's
/// verifier workspace and the shared libraries are warmed first on another
/// decode of the same bytes, so the count is the five runs plus one decode
/// of each method: 87 allocations; when the verifier and the interpreter
/// each decoded the method for themselves it took 19 more. A change that
/// decodes a method twice again trips it. The ceiling is that count plus
/// two.
const FIRST_PASS_CEILING: u64 = 89;

/// Ceiling on one `preparse` of the seed class's bytes, which makes 23
/// allocations:
///
/// * 12 in `ClassFile::from_bytes`: the pool's entry vector and its one
///   text buffer, which holds all 18 Utf8 constants, and the methods',
///   the attributes' and the instructions' vectors;
/// * 10 in `UserClass::summarize`: the class's own name, the vector of
///   parsed method descriptors, the 5 allocations of the four descriptor
///   trees, the key buffer of the duplicate-member scan and the 2 of the
///   decoded-method table;
/// * the `Arc` the five profiles share.
///
/// Member names, descriptor texts and class references are read from the
/// constant pool, and the pool's text is one buffer. When the summary
/// copied the names, a parse took 48; when each Utf8 constant was its own
/// `String`, 39. A change that brings a copy back trips the ceiling, which
/// is the count plus two.
const PREPARSE_CEILING: u64 = 25;

#[test]
fn preparse_copies_no_pool_string() {
    let seed = SeedCorpus::generate(1, 20_160_613).into_classes().remove(0);
    let bytes = lower_class(&seed).to_bytes();
    // The first parse installs the process's panic hook.
    assert!(preparse(&bytes).is_parsed());
    let (parsed, count) = allocations(|| preparse(&bytes));
    assert!(parsed.is_parsed());
    eprintln!("preparse: {count} allocations (ceiling {PREPARSE_CEILING})");
    assert!(
        count <= PREPARSE_CEILING,
        "one preparse made {count} allocations, over the ceiling of {PREPARSE_CEILING}"
    );
}

#[test]
fn first_pass_decodes_each_method_once() {
    let seed = SeedCorpus::generate(1, 20_160_613).into_classes().remove(0);
    let bytes = lower_class(&seed).to_bytes();
    let jvms: Vec<Jvm> = VmSpec::all_five().into_iter().map(Jvm::new).collect();
    let warm = preparse(&bytes);
    for jvm in &jvms {
        jvm.run_parsed(&warm);
        jvm.run_parsed(&warm);
    }
    let parsed = preparse(&bytes);
    let (_, count) = allocations(|| {
        for jvm in &jvms {
            jvm.run_parsed(&parsed);
        }
    });
    eprintln!("first pass: {count} allocations (ceiling {FIRST_PASS_CEILING})");
    assert!(
        count <= FIRST_PASS_CEILING,
        "the first five-profile pass made {count} allocations, over the ceiling of \
         {FIRST_PASS_CEILING}"
    );
}

#[test]
fn warm_runs_and_classification_stay_within_budget() {
    let seed = SeedCorpus::generate(1, 20_160_613).into_classes().remove(0);
    let parsed = preparse(&lower_class(&seed).to_bytes());
    let mut outcomes = Vec::new();
    for (jvm, (name, ceiling)) in VmSpec::all_five()
        .into_iter()
        .map(Jvm::new)
        .zip(RUN_CEILINGS)
    {
        assert_eq!(jvm.spec().name, name);
        // The first run fills the class's shared tables; the second lets
        // the thread's recycled verifier frames grow to fit this class.
        let cold = jvm.run_parsed(&parsed).outcome;
        let _ = jvm.run_parsed(&parsed);
        let (warm, count) = allocations(|| jvm.run_parsed(&parsed).outcome);
        assert_eq!(warm, cold, "a warm run must repeat the first one on {name}");
        eprintln!("{name}: {count} allocations per warm run (ceiling {ceiling})");
        assert!(
            count <= ceiling,
            "{name}: {count} allocations per warm run, over the ceiling of {ceiling}"
        );
        outcomes.push(warm);
    }
    let vector = OutcomeVector::new(outcomes);
    let (_, count) = allocations(|| {
        (
            vector.key(),
            vector.exec_key(),
            vector.is_discrepancy(),
            vector.is_exec_discrepancy(),
        )
    });
    eprintln!("classify: {count} allocations (ceiling {CLASSIFY_CEILING})");
    assert!(
        count <= CLASSIFY_CEILING,
        "classification made {count} allocations, over the ceiling of {CLASSIFY_CEILING}"
    );
}
