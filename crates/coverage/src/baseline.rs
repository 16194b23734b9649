//! The original `BTreeSet`-backed coverage implementation, retained
//! verbatim as the *executable reference model* for the bitset engine in
//! the crate root.
//!
//! Two things keep this module alive after the rewrite:
//!
//! * it is the equivalence oracle of `tests/coverage_equiv.rs` at the
//!   workspace root, whose proptests replay every operation against both
//!   implementations and assert the verdicts match bit for bit;
//! * it is one side of the Criterion pairs in `crates/bench/benches/micro.rs`
//!   (`coverage/tr-is_unique-1k` and `coverage/merge`), which time the
//!   bitset engine against it. No bench gate reads those timings.
//!
//! Nothing on the campaign hot path may import this module.

use std::collections::{BTreeMap, BTreeSet};

use crate::{CoverageStats, SiteId, UniquenessCriterion};

/// Reference-model tracefile: plain sorted sets of hit sites.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceFile {
    stmts: BTreeSet<SiteId>,
    branches: BTreeSet<(SiteId, bool)>,
}

impl TraceFile {
    /// Creates an empty tracefile.
    pub fn new() -> Self {
        TraceFile::default()
    }

    /// Records a statement site hit.
    pub fn hit_stmt(&mut self, site: SiteId) {
        self.stmts.insert(site);
    }

    /// Records a branch outcome at a site.
    pub fn hit_branch(&mut self, site: SiteId, taken: bool) {
        self.branches.insert((site, taken));
    }

    /// The statement-site set.
    pub fn stmts(&self) -> &BTreeSet<SiteId> {
        &self.stmts
    }

    /// The branch set.
    pub fn branches(&self) -> &BTreeSet<(SiteId, bool)> {
        &self.branches
    }

    /// The `(stmt, br)` coverage statistics.
    pub fn stats(&self) -> CoverageStats {
        CoverageStats {
            stmt: self.stmts.len(),
            br: self.branches.len(),
        }
    }

    /// The `⊕` operator: merges two tracefiles into one covering the union
    /// of their sites.
    pub fn merge(&self, other: &TraceFile) -> TraceFile {
        let mut out = self.clone();
        out.stmts.extend(other.stmts.iter().copied());
        out.branches.extend(other.branches.iter().copied());
        out
    }

    /// `[tr]`'s static-equality check, phrased as in the paper:
    /// `tr_a.stmt = tr_b.stmt = (tr_a ⊕ tr_b).stmt` and likewise for
    /// branches.
    pub fn statically_equal(&self, other: &TraceFile) -> bool {
        let merged = self.merge(other);
        self.stats() == other.stats()
            && other.stats() == merged.stats()
            && self.stmts == merged.stmts
            && self.branches == merged.branches
    }

    /// Returns `true` when no sites were recorded.
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty() && self.branches.is_empty()
    }
}

/// Reference-model suite index: the `[tr]` path stores whole trace clones
/// bucketed by statistics and compares sets pairwise — the O(suite × trace)
/// acceptance cost the bitset engine removes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuiteIndex {
    criterion: UniquenessCriterion,
    seen_stats: BTreeSet<(usize, usize)>,
    traces_by_stats: BTreeMap<(usize, usize), Vec<TraceFile>>,
    len: usize,
}

impl SuiteIndex {
    /// Creates an empty index using `criterion`.
    pub fn new(criterion: UniquenessCriterion) -> Self {
        SuiteIndex {
            criterion,
            seen_stats: BTreeSet::new(),
            traces_by_stats: BTreeMap::new(),
            len: 0,
        }
    }

    /// The criterion this index enforces.
    pub fn criterion(&self) -> UniquenessCriterion {
        self.criterion
    }

    /// Number of accepted traces.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no trace has been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn key(&self, stats: CoverageStats) -> (usize, usize) {
        match self.criterion {
            UniquenessCriterion::St => (stats.stmt, 0),
            UniquenessCriterion::StBr | UniquenessCriterion::Tr => (stats.stmt, stats.br),
        }
    }

    /// Is `trace` representative (coverage-unique) w.r.t. the accepted
    /// suite?
    pub fn is_unique(&self, trace: &TraceFile) -> bool {
        let key = self.key(trace.stats());
        match self.criterion {
            UniquenessCriterion::St | UniquenessCriterion::StBr => !self.seen_stats.contains(&key),
            UniquenessCriterion::Tr => match self.traces_by_stats.get(&key) {
                None => true,
                Some(bucket) => !bucket.iter().any(|t| t.statically_equal(trace)),
            },
        }
    }

    /// Records `trace` as accepted.
    pub fn insert(&mut self, trace: &TraceFile) {
        let key = self.key(trace.stats());
        self.seen_stats.insert(key);
        if self.criterion == UniquenessCriterion::Tr {
            self.traces_by_stats
                .entry(key)
                .or_default()
                .push(trace.clone());
        }
        self.len += 1;
    }

    /// Accepts `trace` iff it is unique; returns whether it was accepted.
    pub fn insert_if_unique(&mut self, trace: &TraceFile) -> bool {
        if self.is_unique(trace) {
            self.insert(trace);
            true
        } else {
            false
        }
    }
}

/// Reference-model accumulative coverage (greedyfuzz acceptance).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GlobalCoverage {
    stmts: BTreeSet<SiteId>,
    branches: BTreeSet<(SiteId, bool)>,
}

impl GlobalCoverage {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        GlobalCoverage::default()
    }

    /// Folds `trace` in; returns `true` when it contributed any new site.
    pub fn absorb(&mut self, trace: &TraceFile) -> bool {
        let before = self.stmts.len() + self.branches.len();
        self.stmts.extend(trace.stmts().iter().copied());
        self.branches.extend(trace.branches().iter().copied());
        self.stmts.len() + self.branches.len() > before
    }

    /// Total accumulated statistics.
    pub fn stats(&self) -> CoverageStats {
        CoverageStats {
            stmt: self.stmts.len(),
            br: self.branches.len(),
        }
    }
}
