//! Allocation budget of a warm profile run, of the first five-profile pass
//! over a fresh decode, and of one classification.
//!
//! The test binary counts every heap request its thread makes (a global
//! allocator with a thread-local counter, so the harness's own threads do
//! not disturb it). It runs one fixed seed class through each of the five
//! profiles, twice to warm the class's shared decoded-method table and the
//! thread's verifier workspace and once counted, then counts one
//! `OutcomeVector` classification. A second test counts the first pass
//! over a fresh decode, the one that fills the table. Each count must stay
//! under the ceiling pinned below.
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
/// string constant; a warm run of it on hotspot9 makes 12 allocations:
///
/// * the world overlay's user-class vector and the machine's heap vector;
/// * `main`'s argument vector, locals and operand stack;
/// * the `ldc` string and the `println` argument vector;
/// * the `println` dispatch: the receiver class's name-table entry, the
///   name table's and the dispatch cache's first nodes;
/// * the printed line and the `stdout` vector that holds it.
///
/// hotspot7, hotspot8 and gij make the same 12. j9 verifies lazily and
/// makes 13: it also records the verified method in its set, keyed on the
/// decoded method's interned class name and the method's index, so the
/// key copies no name. Each ceiling is that count plus two.
const RUN_CEILINGS: [(&str, u64); 5] = [
    ("HotSpot for Java 7", 14),
    ("HotSpot for Java 8", 14),
    ("HotSpot for Java 9", 14),
    ("J9 for IBM SDK8", 15),
    ("GIJ 5.1.0", 14),
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
/// of each method: 101 allocations, against 120 when the verifier and the
/// interpreter each decoded the method for themselves. A change that
/// decodes a method twice again trips it. The ceiling is that count plus
/// two.
const FIRST_PASS_CEILING: u64 = 103;

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
