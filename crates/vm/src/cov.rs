//! Coverage collection plumbing: the GCOV analogue for the reference JVM.
//!
//! Every semantic decision point in this crate is instrumented with
//! [`probe!`](crate::probe) (a statement site) or
//! [`probe_branch!`](crate::probe_branch) (a branch site plus direction).
//! Site ids are computed at compile time from `(file, line, column)`, and
//! each probe expansion carries a `static` slot cache resolved against the
//! process-wide [`SiteUniverse`](classfuzz_coverage::SiteUniverse) on first
//! hit — so the steady-state cost of a probe is a relaxed atomic load plus
//! one bit-OR into the tracefile's word array, and nothing at all when
//! collection is disabled.

use std::sync::atomic::{AtomicU32, Ordering};

use classfuzz_coverage::{SiteId, SiteUniverse, TraceFile, UNRESOLVED_SLOT};

/// A coverage collector threaded through the startup pipeline.
#[derive(Debug, Default)]
pub struct Cov {
    trace: Option<TraceFile>,
}

impl Cov {
    /// A collector that records into `buf`, cleared first — the campaign
    /// engines' reusable per-shard trace buffer, which avoids reallocating
    /// the word arrays on every candidate execution.
    pub fn enabled_reusing(mut buf: TraceFile) -> Cov {
        buf.clear();
        Cov { trace: Some(buf) }
    }

    /// A collector that drops everything (non-reference VMs).
    pub fn disabled() -> Cov {
        Cov { trace: None }
    }

    /// Records a statement site through a per-probe-site slot cache (the
    /// `static` each [`probe!`](crate::probe) expansion carries): the
    /// universe is consulted once per site per process, after which the
    /// probe costs a relaxed load and a bit-OR.
    #[inline]
    pub fn stmt_cached(&mut self, site: SiteId, cache: &AtomicU32) {
        if let Some(t) = &mut self.trace {
            let mut slot = cache.load(Ordering::Relaxed);
            if slot == UNRESOLVED_SLOT {
                slot = SiteUniverse::global().stmt_slot(site);
                cache.store(slot, Ordering::Relaxed);
            }
            t.set_stmt_slot(slot);
        }
    }

    /// Records a branch direction through a per-site cache holding the
    /// branch's *base* slot (direction selects base or base + 1).
    #[inline]
    pub fn branch_cached(&mut self, site: SiteId, taken: bool, cache: &AtomicU32) {
        if let Some(t) = &mut self.trace {
            let mut base = cache.load(Ordering::Relaxed);
            if base == UNRESOLVED_SLOT {
                base = SiteUniverse::global().branch_base(site);
                cache.store(base, Ordering::Relaxed);
            }
            t.set_branch_slot(base + taken as u32);
        }
    }

    /// Consumes the collector, yielding the tracefile when enabled.
    pub fn into_trace(self) -> Option<TraceFile> {
        self.trace
    }
}

/// Records a statement probe at the macro's source location.
///
/// Each expansion carries a `static` cache of the site's dense bit slot,
/// resolved against the global `SiteUniverse` on first hit.
#[macro_export]
macro_rules! probe {
    ($cov:expr) => {{
        const SITE: ::classfuzz_coverage::SiteId =
            ::classfuzz_coverage::site_id(file!(), line!(), column!());
        static SLOT: ::std::sync::atomic::AtomicU32 =
            ::std::sync::atomic::AtomicU32::new(::classfuzz_coverage::UNRESOLVED_SLOT);
        $cov.stmt_cached(SITE, &SLOT);
    }};
}

/// Records a branch probe and evaluates to the condition's value, so it can
/// wrap `if` conditions transparently:
/// `if probe_branch!(cov, x > 0) { ... }`.
///
/// The per-expansion `static` caches the branch's base slot; the direction
/// picks base (not taken) or base + 1 (taken).
#[macro_export]
macro_rules! probe_branch {
    ($cov:expr, $cond:expr) => {{
        const SITE: ::classfuzz_coverage::SiteId =
            ::classfuzz_coverage::site_id(file!(), line!(), column!());
        static SLOT: ::std::sync::atomic::AtomicU32 =
            ::std::sync::atomic::AtomicU32::new(::classfuzz_coverage::UNRESOLVED_SLOT);
        let taken: bool = $cond;
        $cov.branch_cached(SITE, taken, &SLOT);
        taken
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_collects_disabled_drops() {
        let mut on = Cov::enabled_reusing(TraceFile::new());
        let mut off = Cov::disabled();
        probe!(on);
        probe!(off);
        let hit = probe_branch!(on, 1 + 1 == 2);
        assert!(hit);
        probe_branch!(off, false);
        let trace = on.into_trace().unwrap();
        assert_eq!(trace.stats().stmt, 1);
        assert_eq!(trace.stats().br, 1);
        assert!(off.into_trace().is_none());
    }

    #[test]
    fn distinct_locations_distinct_sites() {
        let mut cov = Cov::enabled_reusing(TraceFile::new());
        probe!(cov);
        probe!(cov); // different line ⇒ different site
        assert_eq!(cov.into_trace().unwrap().stats().stmt, 2);
    }

    #[test]
    fn reused_buffer_starts_clean() {
        let mut cov = Cov::enabled_reusing(TraceFile::new());
        probe!(cov);
        let buf = cov.into_trace().unwrap();
        assert_eq!(buf.stats().stmt, 1);
        let mut cov2 = Cov::enabled_reusing(buf);
        probe_branch!(cov2, true);
        let t = cov2.into_trace().unwrap();
        assert_eq!(t.stats().stmt, 0, "previous run's sites must be cleared");
        assert_eq!(t.stats().br, 1);
    }

    #[test]
    fn branch_directions_are_separate_sites() {
        let mut cov = Cov::enabled_reusing(TraceFile::new());
        for v in [true, false] {
            probe_branch!(cov, v);
        }
        assert_eq!(cov.into_trace().unwrap().stats().br, 2);
    }
}
