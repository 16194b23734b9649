//! A counting global allocator for the allocation gates.
//!
//! [`CountingAllocator`] wraps [`System`] and bumps a process-wide relaxed
//! counter on every `alloc`/`realloc`/`alloc_zeroed`. [`GatedAllocator`]
//! routes through it only while a [`count_allocations`] scope is open, so
//! threads timed outside such a scope never write the shared counter's
//! cache line. `covbench` registers the gated allocator; library builds
//! and unit tests run on the plain system allocator and read the counter
//! as a constant zero.
//!
//! The counter is a raw event count (number of heap requests), not bytes:
//! the mutate gate compares the *same deterministic workload* on the cold
//! and scratch paths, so a per-class event count is exactly the
//! "allocations per candidate" number EXPERIMENTS.md reports.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

static ALLOCATION_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Open [`count_allocations`] scopes; [`GatedAllocator`] counts while it
/// is nonzero.
static OPEN_SCOPES: AtomicUsize = AtomicUsize::new(0);

/// Heap-request events observed since process start — zero unless the
/// running binary registered [`CountingAllocator`].
pub fn allocation_events() -> u64 {
    ALLOCATION_EVENTS.load(Ordering::Relaxed)
}

/// [`System`] plus a relaxed event counter. Register with
/// `#[global_allocator]` to make [`allocation_events`] live.
pub struct CountingAllocator;

// SAFETY: defers every operation to `System`; the counter is a side effect
// with no aliasing or layout implications.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATION_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATION_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATION_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

/// [`System`], counted through [`CountingAllocator`] only while a
/// [`count_allocations`] scope is open. Outside one, an allocation costs a
/// relaxed load more than the system allocator.
pub struct GatedAllocator;

fn counting() -> bool {
    OPEN_SCOPES.load(Ordering::Relaxed) > 0
}

// SAFETY: every call goes to `System`, directly or through
// `CountingAllocator`, which itself defers to `System`; memory allocated on
// one path and freed on the other is therefore always `System`'s.
unsafe impl GlobalAlloc for GatedAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            CountingAllocator.alloc(layout)
        } else {
            System.alloc(layout)
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            CountingAllocator.realloc(ptr, layout, new_size)
        } else {
            System.realloc(ptr, layout, new_size)
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counting() {
            CountingAllocator.alloc_zeroed(layout)
        } else {
            System.alloc_zeroed(layout)
        }
    }
}

/// Closes its scope on drop, so a panicking closure cannot leave the
/// counter live.
struct Scope;

impl Drop for Scope {
    fn drop(&mut self) {
        OPEN_SCOPES.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Runs `f` with the counter live and returns its result with the
/// allocation events observed meanwhile — zero unless the binary
/// registered [`GatedAllocator`] or [`CountingAllocator`]. The count is
/// process-wide, so run nothing else concurrently while a scope is open.
pub fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    OPEN_SCOPES.fetch_add(1, Ordering::SeqCst);
    let _scope = Scope;
    let before = allocation_events();
    let out = f();
    (out, allocation_events() - before)
}
