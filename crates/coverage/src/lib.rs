#![warn(missing_docs)]
//! Tracefiles, coverage statistics, and the coverage-uniqueness criteria of
//! classfuzz (§2.2.3 of the paper), backed by a dense bitset engine.
//!
//! A [`TraceFile`] records which *statement sites* and *branch sites* of
//! the reference JVM an execution hit — the role GCOV/LCOV output plays in
//! the paper. The three acceptance criteria are implemented exactly as
//! defined:
//!
//! * **`[st]`** — unique statement-coverage statistic;
//! * **`[stbr]`** — unique (statement, branch) statistic pair;
//! * **`[tr]`** — statically distinct tracefile, checked via the `⊕` merge
//!   operator.
//!
//! # Representation
//!
//! Site identifiers are stable 32-bit hashes of source positions, but a
//! tracefile does not store them as sets: the process-wide [`SiteUniverse`]
//! interns every site into a dense *slot* (one bit per statement site, two
//! bits — one per direction — per branch site), and a [`TraceFile`] is a
//! pair of `Vec<u64>` word arrays indexed by slot. Recording a probe is a
//! bit-OR, `⊕` is a word-wise OR, `[tr]`'s static equality is a word-wise
//! compare, and the `(stmt, br)` statistics are popcounts. Each trace also
//! has a 64-bit [`TraceFile::fingerprint`] so a [`SuiteIndex`] answers the
//! `[tr]` uniqueness query with a single hash probe in the common case,
//! falling back to word comparison only on fingerprint collision.
//!
//! The original `BTreeSet` implementation survives in [`baseline`] as the
//! executable reference model; the workspace's equivalence proptests hold
//! the two implementations to identical verdicts.
//!
//! [`SuiteIndex`] is the incremental form used inside the fuzzing loop: it
//! answers "is this trace unique w.r.t. the accepted test suite?" in O(1)
//! for the statistic criteria and in O(1) expected for `[tr]`.
//!
//! # Examples
//!
//! ```
//! use classfuzz_coverage::{SuiteIndex, TraceFile, UniquenessCriterion};
//!
//! let mut index = SuiteIndex::new(UniquenessCriterion::StBr);
//! let mut a = TraceFile::new();
//! a.hit_stmt(1);
//! a.hit_branch(10, true);
//! assert!(index.insert_if_unique(&a));
//! assert!(!index.insert_if_unique(&a)); // identical coverage: rejected
//! ```

pub mod baseline;

use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

use rustc_hash::FxHashMap;

/// A statement-site or branch-site identifier.
///
/// Site ids are stable hashes of `(file, line, column)` in the reference
/// JVM's source — the analogue of GCOV line/arc identifiers.
pub type SiteId = u32;

/// Computes a stable site id from a source position.
///
/// Uses FNV-1a so ids are deterministic across runs and platforms.
pub const fn site_id(file: &str, line: u32, column: u32) -> SiteId {
    let mut hash: u32 = 0x811c_9dc5;
    let bytes = file.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        hash ^= bytes[i] as u32;
        hash = hash.wrapping_mul(0x0100_0193);
        i += 1;
    }
    hash ^= line;
    hash = hash.wrapping_mul(0x0100_0193);
    hash ^= column;
    hash.wrapping_mul(0x0100_0193)
}

/// Sentinel for a per-probe slot cache that has not consulted the
/// [`SiteUniverse`] yet (see the VM's `probe!` macros).
pub const UNRESOLVED_SLOT: u32 = u32::MAX;

// --- Site universe ----------------------------------------------------------

/// The process-wide registry mapping site ids to dense bit slots.
///
/// Probe site ids are known at compile time (`const`-computed from source
/// positions), but which sites can actually fire depends on what gets
/// linked and executed, so the universe interns sites on first hit instead
/// of carrying a static table. The mapping is append-only and shared by
/// every thread in the process: the reference VM's probes, all campaign
/// shards, and the acceptance index agree on one slot layout, which is
/// what makes word-wise trace comparison sound.
///
/// Slot assignment order depends on execution order and is therefore *not*
/// stable across runs — but every acceptance decision is invariant under
/// the site↔slot bijection (popcounts and set equality do not depend on
/// bit positions), so campaign results stay deterministic; see DESIGN.md,
/// "Coverage representation".
#[derive(Debug, Default)]
pub struct SiteUniverse {
    inner: RwLock<UniverseInner>,
}

#[derive(Debug, Default)]
struct UniverseInner {
    stmt_slots: FxHashMap<SiteId, u32>,
    /// Reverse map: slot → site.
    stmt_sites: Vec<SiteId>,
    branch_bases: FxHashMap<SiteId, u32>,
    /// Reverse map: base / 2 → site.
    branch_sites: Vec<SiteId>,
}

static GLOBAL_UNIVERSE: OnceLock<SiteUniverse> = OnceLock::new();

impl SiteUniverse {
    /// The process-wide universe every [`TraceFile`] indexes into.
    pub fn global() -> &'static SiteUniverse {
        GLOBAL_UNIVERSE.get_or_init(SiteUniverse::default)
    }

    /// Ignore lock poisoning: the universe is append-only and every write
    /// is a single map/vec push, so a panicking thread elsewhere can never
    /// leave it inconsistent — and a contained VM panic must not cascade
    /// into poisoning every later probe.
    fn read(&self) -> RwLockReadGuard<'_, UniverseInner> {
        self.inner
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, UniverseInner> {
        self.inner
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The dense bit slot of statement site `site`, interning it on first
    /// use.
    pub fn stmt_slot(&self, site: SiteId) -> u32 {
        if let Some(&slot) = self.read().stmt_slots.get(&site) {
            return slot;
        }
        let mut inner = self.write();
        if let Some(&slot) = inner.stmt_slots.get(&site) {
            return slot; // raced with another thread
        }
        let slot = inner.stmt_sites.len() as u32;
        inner.stmt_slots.insert(site, slot);
        inner.stmt_sites.push(site);
        slot
    }

    /// The base bit slot of branch site `site` (two consecutive bits:
    /// `base` for the not-taken direction, `base + 1` for taken),
    /// interning it on first use.
    pub fn branch_base(&self, site: SiteId) -> u32 {
        if let Some(&base) = self.read().branch_bases.get(&site) {
            return base;
        }
        let mut inner = self.write();
        if let Some(&base) = inner.branch_bases.get(&site) {
            return base;
        }
        let base = inner.branch_sites.len() as u32 * 2;
        inner.branch_bases.insert(site, base);
        inner.branch_sites.push(site);
        base
    }

    /// The bit slot of one `(site, direction)` branch outcome.
    pub fn branch_slot(&self, site: SiteId, taken: bool) -> u32 {
        self.branch_base(site) + taken as u32
    }

    /// Number of registered statement slots.
    pub fn stmt_slot_count(&self) -> usize {
        self.read().stmt_sites.len()
    }

    /// Number of registered branch slots (two per branch site).
    pub fn branch_slot_count(&self) -> usize {
        self.read().branch_sites.len() * 2
    }

    /// The statement site occupying `slot`, if registered.
    pub fn stmt_site_at(&self, slot: u32) -> Option<SiteId> {
        self.read().stmt_sites.get(slot as usize).copied()
    }

    /// The `(site, direction)` occupying branch `slot`, if registered.
    pub fn branch_at(&self, slot: u32) -> Option<(SiteId, bool)> {
        let site = *self.read().branch_sites.get((slot / 2) as usize)?;
        Some((site, slot % 2 == 1))
    }
}

// --- Word-array helpers -----------------------------------------------------

/// Trims trailing zero words, so logically-equal bitsets of different
/// capacity hash and compare identically.
fn trimmed(words: &[u64]) -> &[u64] {
    let used = words.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
    &words[..used]
}

/// Zero-extended word-array equality.
fn words_eq(a: &[u64], b: &[u64]) -> bool {
    trimmed(a) == trimmed(b)
}

fn popcount(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

fn set_bit(words: &mut Vec<u64>, slot: u32) {
    let word = (slot / 64) as usize;
    if words.len() <= word {
        words.resize(word + 1, 0);
    }
    words[word] |= 1u64 << (slot % 64);
}

/// Word-wise OR of `src` into `dst`; returns `true` when `src` contributed
/// at least one bit `dst` did not have.
fn or_into(dst: &mut Vec<u64>, src: &[u64]) -> bool {
    let src = trimmed(src);
    if dst.len() < src.len() {
        dst.resize(src.len(), 0);
    }
    let mut grew = false;
    for (d, &s) in dst.iter_mut().zip(src) {
        let merged = *d | s;
        grew |= merged != *d;
        *d = merged;
    }
    grew
}

/// Bits of `src` not covered by `acc`, as a popcount. Both arrays may be
/// untrimmed; missing `acc` capacity counts as zero words.
fn words_gain(acc: &[u64], src: &[u64]) -> usize {
    trimmed(src)
        .iter()
        .enumerate()
        .map(|(i, &s)| (s & !acc.get(i).copied().unwrap_or(0)).count_ones() as usize)
        .sum()
}

/// Is every bit of `src` covered by `a | b`? (Word-wise subset test against
/// the union of two accumulators, without materializing the union.)
fn words_covered_by_pair(src: &[u64], a: &[u64], b: &[u64]) -> bool {
    trimmed(src).iter().enumerate().all(|(i, &s)| {
        let cover = a.get(i).copied().unwrap_or(0) | b.get(i).copied().unwrap_or(0);
        s & !cover == 0
    })
}

/// The FxHash multiplier, used for trace fingerprints: not cryptographic,
/// but cheap and well-mixing over machine words.
const FX_K: u64 = 0x517c_c1b7_2722_0a95;

#[inline]
fn fx_add(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(FX_K)
}

fn fx_words(mut hash: u64, words: &[u64]) -> u64 {
    hash = fx_add(hash, words.len() as u64);
    for &w in words {
        hash = fx_add(hash, w);
    }
    hash
}

// --- Coverage statistics ----------------------------------------------------

/// Coverage statistics: the `(stmt, br)` pair the paper compares under
/// `[st]` and `[stbr]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct CoverageStats {
    /// Number of distinct statement sites hit.
    pub stmt: usize,
    /// Number of distinct branch (site, direction) pairs hit.
    pub br: usize,
}

impl fmt::Display for CoverageStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.stmt, self.br)
    }
}

// --- TraceFile --------------------------------------------------------------

/// An execution tracefile: the statement and branch sites hit by one run
/// of the reference JVM, stored as dense bitsets over the global
/// [`SiteUniverse`].
#[derive(Debug, Clone, Default)]
pub struct TraceFile {
    stmt_words: Vec<u64>,
    branch_words: Vec<u64>,
}

impl PartialEq for TraceFile {
    /// Zero-extended equality: trailing zero words (capacity left over
    /// from buffer reuse) do not distinguish traces.
    fn eq(&self, other: &TraceFile) -> bool {
        words_eq(&self.stmt_words, &other.stmt_words)
            && words_eq(&self.branch_words, &other.branch_words)
    }
}

impl Eq for TraceFile {}

impl TraceFile {
    /// Creates an empty tracefile.
    pub fn new() -> Self {
        TraceFile::default()
    }

    /// Records a statement site hit.
    pub fn hit_stmt(&mut self, site: SiteId) {
        let slot = SiteUniverse::global().stmt_slot(site);
        self.set_stmt_slot(slot);
    }

    /// Records a branch outcome at a site.
    pub fn hit_branch(&mut self, site: SiteId, taken: bool) {
        let slot = SiteUniverse::global().branch_slot(site, taken);
        self.set_branch_slot(slot);
    }

    /// Sets a pre-resolved statement slot — the probe hot path, fed by the
    /// per-site slot caches in the VM's `probe!` macro.
    #[inline]
    pub fn set_stmt_slot(&mut self, slot: u32) {
        set_bit(&mut self.stmt_words, slot);
    }

    /// Sets a pre-resolved branch slot (see [`SiteUniverse::branch_slot`]).
    #[inline]
    pub fn set_branch_slot(&mut self, slot: u32) {
        set_bit(&mut self.branch_words, slot);
    }

    /// The statement sites hit, resolved back through the universe.
    ///
    /// Diagnostic accessor (takes the universe lock per set bit); the
    /// acceptance path never materializes site sets.
    pub fn stmt_sites(&self) -> BTreeSet<SiteId> {
        iter_slots(&self.stmt_words)
            .filter_map(|slot| SiteUniverse::global().stmt_site_at(slot))
            .collect()
    }

    /// The branch `(site, direction)` pairs hit. Diagnostic accessor.
    pub fn branch_sites(&self) -> BTreeSet<(SiteId, bool)> {
        iter_slots(&self.branch_words)
            .filter_map(|slot| SiteUniverse::global().branch_at(slot))
            .collect()
    }

    /// The `(stmt, br)` coverage statistics (popcounts of the two maps).
    pub fn stats(&self) -> CoverageStats {
        CoverageStats {
            stmt: popcount(&self.stmt_words),
            br: popcount(&self.branch_words),
        }
    }

    /// The `⊕` operator: merges two tracefiles into one covering the union
    /// of their sites — a word-wise OR.
    pub fn merge(&self, other: &TraceFile) -> TraceFile {
        let mut out = self.clone();
        or_into(&mut out.stmt_words, &other.stmt_words);
        or_into(&mut out.branch_words, &other.branch_words);
        out
    }

    /// `[tr]`'s static-equality check. The paper phrases it through `⊕`
    /// (`tr_a.stmt = tr_b.stmt = (tr_a ⊕ tr_b).stmt`, likewise for
    /// branches), which reduces to set equality — here a word-wise
    /// compare. The equivalence proptests pin this reduction against the
    /// [`baseline`] model's literal transcription.
    pub fn statically_equal(&self, other: &TraceFile) -> bool {
        self == other
    }

    /// A 64-bit fingerprint of the trace contents (FxHash over the trimmed
    /// word arrays). Equal traces always fingerprint equally, so an
    /// unmatched fingerprint proves `[tr]`-uniqueness without touching the
    /// suite; collisions fall back to word comparison.
    ///
    /// Fingerprints are a *within-process* cache: slot layout (and hence
    /// the fingerprint of a given site set) varies across runs.
    pub fn fingerprint(&self) -> u64 {
        // Domain-separate the two maps so stmt content cannot alias branch
        // content.
        let h = fx_words(0x7472_6163_6566_696c, trimmed(&self.stmt_words));
        fx_words(h, trimmed(&self.branch_words))
    }

    /// Zeroes every recorded site, keeping the allocation — the per-shard
    /// reusable buffer the campaign engines record into.
    pub fn clear(&mut self) {
        self.stmt_words.fill(0);
        self.branch_words.fill(0);
    }

    /// A trimmed copy (trailing zero capacity dropped): what the campaign
    /// shards ship to the coordinator alongside the fingerprint.
    pub fn snapshot(&self) -> TraceFile {
        TraceFile {
            stmt_words: trimmed(&self.stmt_words).to_vec(),
            branch_words: trimmed(&self.branch_words).to_vec(),
        }
    }

    /// Returns `true` when no sites were recorded.
    pub fn is_empty(&self) -> bool {
        self.stats() == CoverageStats::default()
    }
}

fn iter_slots(words: &[u64]) -> impl Iterator<Item = u32> + '_ {
    words.iter().enumerate().flat_map(|(i, &w)| {
        (0..64)
            .filter(move |bit| w & (1u64 << bit) != 0)
            .map(move |bit| i as u32 * 64 + bit)
    })
}

// --- Uniqueness criteria ----------------------------------------------------

/// Which uniqueness discipline the fuzzer applies when accepting mutants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UniquenessCriterion {
    /// `[st]`: unique statement-coverage statistic.
    St,
    /// `[stbr]`: unique (statement, branch) statistic pair.
    StBr,
    /// `[tr]`: statically distinct tracefile (merge-based comparison).
    Tr,
}

impl UniquenessCriterion {
    /// The paper's bracketed label, e.g. `"[stbr]"`.
    pub fn label(self) -> &'static str {
        match self {
            UniquenessCriterion::St => "[st]",
            UniquenessCriterion::StBr => "[stbr]",
            UniquenessCriterion::Tr => "[tr]",
        }
    }
}

impl fmt::Display for UniquenessCriterion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

// --- SuiteIndex -------------------------------------------------------------

/// Telemetry from a [`SuiteIndex`]: how hard the acceptance hot path
/// worked. Counters accumulate in the `insert_if_unique*` family (the
/// campaign path); read-only probes do not count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexCounters {
    /// Traces offered through `insert_if_unique*`.
    pub offered: u64,
    /// Of those, how many were accepted.
    pub accepted: u64,
    /// `[tr]` offers resolved by the fingerprint hash probe alone.
    pub fingerprint_fast_path: u64,
    /// `[tr]` offers that needed at least one word-level trace comparison
    /// (duplicates and genuine fingerprint collisions both land here).
    pub word_compare_fallbacks: u64,
}

impl IndexCounters {
    /// Field-wise accumulation.
    pub fn merge(&mut self, other: &IndexCounters) {
        self.offered += other.offered;
        self.accepted += other.accepted;
        self.fingerprint_fast_path += other.fingerprint_fast_path;
        self.word_compare_fallbacks += other.word_compare_fallbacks;
    }
}

/// An incremental index over an accepted test suite's tracefiles,
/// answering coverage-uniqueness queries.
///
/// The `[tr]` representation stores each accepted trace exactly once, in
/// acceptance order, and keys the lookup structure by fingerprint: an
/// `is_unique` probe is one hash-map lookup unless the fingerprint
/// matches, in which case the (rare) candidates are compared word for
/// word.
#[derive(Debug, Clone)]
pub struct SuiteIndex {
    criterion: UniquenessCriterion,
    /// `[st]`: set of seen `(stmt, 0)` keys. `[stbr]`/`[tr]`: seen
    /// `(stmt, br)` pairs.
    seen_stats: BTreeSet<(usize, usize)>,
    /// `[tr]` only: accepted traces, stored once, in acceptance order.
    traces: Vec<TraceFile>,
    /// `[tr]` only: fingerprint → indices into `traces`.
    fp_buckets: FxHashMap<u64, Vec<u32>>,
    len: usize,
    counters: IndexCounters,
}

impl PartialEq for SuiteIndex {
    /// Semantic equality: criterion, accepted statistics, and accepted
    /// traces. Telemetry counters and the (derivable) fingerprint buckets
    /// are excluded.
    fn eq(&self, other: &SuiteIndex) -> bool {
        self.criterion == other.criterion
            && self.len == other.len
            && self.seen_stats == other.seen_stats
            && self.traces == other.traces
    }
}

impl Eq for SuiteIndex {}

impl SuiteIndex {
    /// Creates an empty index using `criterion`.
    pub fn new(criterion: UniquenessCriterion) -> Self {
        SuiteIndex {
            criterion,
            seen_stats: BTreeSet::new(),
            traces: Vec::new(),
            fp_buckets: FxHashMap::default(),
            len: 0,
            counters: IndexCounters::default(),
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

    /// Acceptance telemetry accumulated so far.
    pub fn counters(&self) -> IndexCounters {
        self.counters
    }

    fn key(&self, stats: CoverageStats) -> (usize, usize) {
        match self.criterion {
            // [st] collapses the branch dimension to 0 so traces that
            // differ only in branch coverage share a key.
            UniquenessCriterion::St => (stats.stmt, 0),
            UniquenessCriterion::StBr | UniquenessCriterion::Tr => (stats.stmt, stats.br),
        }
    }

    /// Is `trace` representative (coverage-unique) w.r.t. the accepted
    /// suite? Computes the `[tr]` fingerprint internally; the campaign
    /// engines precompute it shard-side and use
    /// [`SuiteIndex::insert_if_unique_with_fingerprint`] instead.
    pub fn is_unique(&self, trace: &TraceFile) -> bool {
        match self.criterion {
            UniquenessCriterion::St | UniquenessCriterion::StBr => {
                !self.seen_stats.contains(&self.key(trace.stats()))
            }
            UniquenessCriterion::Tr => self.is_unique_with_fingerprint(trace, trace.fingerprint()),
        }
    }

    /// Uniqueness with a caller-supplied fingerprint, which must equal
    /// `trace.fingerprint()` (it is ignored under the statistic criteria).
    pub fn is_unique_with_fingerprint(&self, trace: &TraceFile, fp: u64) -> bool {
        match self.criterion {
            UniquenessCriterion::St | UniquenessCriterion::StBr => {
                !self.seen_stats.contains(&self.key(trace.stats()))
            }
            UniquenessCriterion::Tr => match self.fp_buckets.get(&fp) {
                None => true,
                Some(bucket) => !bucket.iter().any(|&i| self.traces[i as usize] == *trace),
            },
        }
    }

    /// A read-only uniqueness probe with a caller-supplied fingerprint:
    /// returns `(is_unique, settled_by_fast_path)`, where the second
    /// component reports whether a `[tr]` query was answered by the
    /// fingerprint table alone (no word-level trace comparison). Under the
    /// statistic criteria the second component is always `false`.
    ///
    /// Unlike the `insert_if_unique*` family this touches no counters and
    /// never mutates, so concurrent engines can probe through a shared
    /// read lock and reserve the write lock for actual insertions (see
    /// DESIGN.md, "Free-running asynchronous campaigns").
    pub fn probe_with_fingerprint(&self, trace: &TraceFile, fp: u64) -> (bool, bool) {
        match self.criterion {
            UniquenessCriterion::St | UniquenessCriterion::StBr => {
                (!self.seen_stats.contains(&self.key(trace.stats())), false)
            }
            UniquenessCriterion::Tr => match self.fp_buckets.get(&fp) {
                None => (true, true),
                Some(bucket) => (
                    !bucket.iter().any(|&i| self.traces[i as usize] == *trace),
                    false,
                ),
            },
        }
    }

    /// Records `trace` as accepted (caller has already checked uniqueness
    /// or wants to force-seed the suite).
    pub fn insert(&mut self, trace: &TraceFile) {
        let fp = match self.criterion {
            UniquenessCriterion::Tr => trace.fingerprint(),
            _ => 0,
        };
        self.insert_with_fingerprint(trace, fp);
    }

    fn insert_with_fingerprint(&mut self, trace: &TraceFile, fp: u64) {
        self.seen_stats.insert(self.key(trace.stats()));
        if self.criterion == UniquenessCriterion::Tr {
            let index = self.traces.len() as u32;
            self.traces.push(trace.snapshot());
            self.fp_buckets.entry(fp).or_default().push(index);
        }
        self.len += 1;
    }

    /// Accepts `trace` iff it is unique; returns whether it was accepted.
    pub fn insert_if_unique(&mut self, trace: &TraceFile) -> bool {
        let fp = match self.criterion {
            UniquenessCriterion::Tr => trace.fingerprint(),
            _ => 0,
        };
        self.insert_if_unique_with_fingerprint(trace, fp)
    }

    /// [`SuiteIndex::insert_if_unique`] with a caller-supplied fingerprint
    /// — the campaign acceptance path, where shards fingerprint their own
    /// traces and the coordinator probes without rehashing.
    pub fn insert_if_unique_with_fingerprint(&mut self, trace: &TraceFile, fp: u64) -> bool {
        self.counters.offered += 1;
        if self.criterion == UniquenessCriterion::Tr {
            if self.fp_buckets.contains_key(&fp) {
                self.counters.word_compare_fallbacks += 1;
            } else {
                self.counters.fingerprint_fast_path += 1;
            }
        }
        if self.is_unique_with_fingerprint(trace, fp) {
            self.insert_with_fingerprint(trace, fp);
            self.counters.accepted += 1;
            true
        } else {
            false
        }
    }

    /// Folds `other` into `self`, as if every trace `other` accepted had
    /// been offered to `self` via [`SuiteIndex::insert_if_unique`], in
    /// `other`'s acceptance order (duplicates across the two indices are
    /// dropped). This is how a parallel campaign combines shard-local
    /// indices; for indices built purely with `insert_if_unique`,
    /// `merge(index(h1), index(h2)) == index(h1 ++ h2)` for every pair of
    /// histories — the property the coverage proptests pin down.
    ///
    /// # Panics
    ///
    /// Panics when the two indices use different criteria.
    pub fn merge(&mut self, other: &SuiteIndex) {
        assert_eq!(
            self.criterion, other.criterion,
            "cannot merge indices with different uniqueness criteria"
        );
        match self.criterion {
            UniquenessCriterion::St | UniquenessCriterion::StBr => {
                for &key in &other.seen_stats {
                    if self.seen_stats.insert(key) {
                        self.len += 1;
                    }
                }
            }
            UniquenessCriterion::Tr => {
                for trace in &other.traces {
                    self.insert_if_unique_with_fingerprint(trace, trace.fingerprint());
                }
            }
        }
    }
}

// --- GlobalCoverage ---------------------------------------------------------

/// Accumulative coverage across a whole campaign — the acceptance rule of
/// the *greedyfuzz* baseline (§3.1.2): accept a mutant only when it
/// increases total coverage. Word arrays over the same universe as
/// [`TraceFile`]; absorption is a word-wise OR with growth detection.
#[derive(Debug, Clone, Default)]
pub struct GlobalCoverage {
    stmt_words: Vec<u64>,
    branch_words: Vec<u64>,
}

impl PartialEq for GlobalCoverage {
    fn eq(&self, other: &GlobalCoverage) -> bool {
        words_eq(&self.stmt_words, &other.stmt_words)
            && words_eq(&self.branch_words, &other.branch_words)
    }
}

impl Eq for GlobalCoverage {}

impl GlobalCoverage {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        GlobalCoverage::default()
    }

    /// Folds `trace` in; returns `true` when it contributed any new site.
    pub fn absorb(&mut self, trace: &TraceFile) -> bool {
        let stmt_grew = or_into(&mut self.stmt_words, &trace.stmt_words);
        let branch_grew = or_into(&mut self.branch_words, &trace.branch_words);
        stmt_grew || branch_grew
    }

    /// Total accumulated statistics.
    pub fn stats(&self) -> CoverageStats {
        CoverageStats {
            stmt: popcount(&self.stmt_words),
            br: popcount(&self.branch_words),
        }
    }

    /// Folds another accumulator in (set union of both site maps); returns
    /// `true` when `other` contributed any site `self` had not seen.
    pub fn merge(&mut self, other: &GlobalCoverage) -> bool {
        let stmt_grew = or_into(&mut self.stmt_words, &other.stmt_words);
        let branch_grew = or_into(&mut self.branch_words, &other.branch_words);
        stmt_grew || branch_grew
    }

    /// Number of sites `trace` covers that this accumulator does not — the
    /// marginal-gain term of greedy max-cover, as a word-wise
    /// `popcount(src & !acc)` without materializing the difference.
    pub fn gain(&self, trace: &TraceFile) -> usize {
        words_gain(&self.stmt_words, &trace.stmt_words)
            + words_gain(&self.branch_words, &trace.branch_words)
    }

    /// Subsumption test: does this accumulator already cover every site of
    /// `trace`? (`trace ⊆ self`, word-wise.)
    pub fn covers(&self, trace: &TraceFile) -> bool {
        self.gain(trace) == 0
    }
}

// --- Seed selection and corpus distillation ---------------------------------

/// Greedy max-cover over a set of optional traces: repeatedly picks the
/// trace with the largest marginal coverage gain (ties broken toward the
/// lowest index), stopping when no remaining trace adds coverage or `cap`
/// picks were made. Returns the picked indices in pick order; `None`
/// entries (untraced) and zero-gain entries are never picked.
///
/// Purely word-wise (OR + popcount) and RNG-free, so the selection is a
/// deterministic function of the input traces.
pub fn greedy_max_cover_order(traces: &[Option<&TraceFile>], cap: usize) -> Vec<usize> {
    let mut union = GlobalCoverage::new();
    let mut picked = vec![false; traces.len()];
    let mut order = Vec::new();
    while order.len() < cap.min(traces.len()) {
        let mut best: Option<(usize, usize)> = None; // (gain, index)
        for (i, t) in traces.iter().enumerate() {
            if picked[i] {
                continue;
            }
            let Some(t) = t else { continue };
            let gain = union.gain(t);
            if gain > 0 && best.is_none_or(|(bg, _)| gain > bg) {
                best = Some((gain, i));
            }
        }
        let Some((_, i)) = best else { break };
        picked[i] = true;
        union.absorb(traces[i].expect("picked entries are Some"));
        order.push(i);
    }
    order
}

/// Corpus-distillation keep mask: entry `i` is evicted exactly when its
/// trace is subsumed by the union of everything already kept before it and
/// everything not yet processed after it. Untraced (`None`) entries are
/// always kept.
///
/// The single left-to-right pass preserves the invariant that the union of
/// (kept ∪ unprocessed) never shrinks, so the surviving entries cover
/// exactly the union the full input covered — distillation loses no sites.
/// Duplicates are handled correctly: of `k` identical traces the last one
/// survives. The pass is deterministic and idempotent (distilling a
/// distilled pool evicts nothing), which is what lets the campaign engines
/// run it at fixed iteration boundaries without perturbing replay.
pub fn distill_keep_mask(traces: &[Option<&TraceFile>]) -> Vec<bool> {
    let n = traces.len();
    // suffix[i] = union of traces[i..]; suffix[n] is empty.
    let mut suffix: Vec<GlobalCoverage> = Vec::with_capacity(n + 1);
    suffix.push(GlobalCoverage::new());
    for t in traces.iter().rev() {
        let mut u = suffix.last().expect("non-empty").clone();
        if let Some(t) = t {
            u.absorb(t);
        }
        suffix.push(u);
    }
    suffix.reverse();
    let mut kept = GlobalCoverage::new();
    let mut keep = vec![true; n];
    for (i, t) in traces.iter().enumerate() {
        let Some(t) = t else { continue };
        let after = &suffix[i + 1];
        let stmt_covered =
            words_covered_by_pair(&t.stmt_words, &kept.stmt_words, &after.stmt_words);
        let branch_covered =
            words_covered_by_pair(&t.branch_words, &kept.branch_words, &after.branch_words);
        if stmt_covered && branch_covered {
            keep[i] = false;
        } else {
            kept.absorb(t);
        }
    }
    keep
}

// --- AtomicCoverage ---------------------------------------------------------

/// A shared, thread-safe accumulated-coverage bitset: the atomic view of
/// the [`GlobalCoverage`] word layout, used by the free-running campaign
/// engine to publish accepted traces without a coordinator round barrier.
///
/// The word arrays are the exact `Vec<u64>` layout of [`TraceFile`] /
/// [`GlobalCoverage`], reinterpreted as `AtomicU64`s: publication is a
/// word-wise `fetch_or`, so concurrent absorptions commute (OR is
/// associative, commutative, and idempotent) and the final bitset equals
/// the sequential merge of the same traces in any order. Growth detection
/// is exact per *trace*: absorptions are serialized by one mutex, so of
/// several threads absorbing equal traces exactly one observes growth —
/// the property that makes the greedyfuzz acceptance rule sound. Per-bit
/// atomicity alone is not enough: a trace spans several words, and two
/// racing absorbers could each set a different new bit and both report
/// growth. [`AtomicCoverage::would_grow`] stays lock-free.
///
/// The `RwLock` around each array guards *capacity* only (the slot
/// universe grows as new probe sites fire): readers OR through a shared
/// read lock, and the write lock is taken only to extend the array with
/// zero words. Lock poisoning is ignored for the same reason as in
/// [`SiteUniverse`]: every critical section is a resize or a set of
/// atomic ORs, neither of which can be observed half-done.
#[derive(Debug, Default)]
pub struct AtomicCoverage {
    stmt_words: RwLock<Vec<AtomicU64>>,
    branch_words: RwLock<Vec<AtomicU64>>,
    absorbing: Mutex<()>,
}

fn atomic_read(lock: &RwLock<Vec<AtomicU64>>) -> RwLockReadGuard<'_, Vec<AtomicU64>> {
    lock.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Word-wise `fetch_or` of `src` into the shared array, growing it first
/// when `src` is longer; returns `true` when any bit of `src` was not
/// already set.
fn atomic_or_words(dst: &RwLock<Vec<AtomicU64>>, src: &[u64]) -> bool {
    let src = trimmed(src);
    if src.is_empty() {
        return false;
    }
    loop {
        {
            let words = atomic_read(dst);
            if words.len() >= src.len() {
                let mut grew = false;
                for (d, &s) in words.iter().zip(src) {
                    if s == 0 {
                        continue;
                    }
                    let prev = d.fetch_or(s, Ordering::Relaxed);
                    grew |= prev & s != s;
                }
                return grew;
            }
        }
        let mut words = dst.write().unwrap_or_else(|poisoned| poisoned.into_inner());
        if words.len() < src.len() {
            words.resize_with(src.len(), || AtomicU64::new(0));
        }
    }
}

/// Read-only variant: would `src` contribute any bit the shared array does
/// not have? Never grows the array (missing capacity means missing bits).
fn atomic_would_grow(dst: &RwLock<Vec<AtomicU64>>, src: &[u64]) -> bool {
    let src = trimmed(src);
    let words = atomic_read(dst);
    if src.len() > words.len() {
        return true;
    }
    words
        .iter()
        .zip(src)
        .any(|(d, &s)| d.load(Ordering::Relaxed) & s != s)
}

impl AtomicCoverage {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        AtomicCoverage::default()
    }

    /// Publishes `trace` into the shared bitset (word-wise `fetch_or`);
    /// returns `true` when it contributed at least one new site — the
    /// shared form of [`GlobalCoverage::absorb`].
    pub fn absorb(&self, trace: &TraceFile) -> bool {
        let _serial = self.absorbing.lock().unwrap_or_else(|p| p.into_inner());
        // `|` not `||`: both maps must be published even when the first
        // already grew.
        atomic_or_words(&self.stmt_words, &trace.stmt_words)
            | atomic_or_words(&self.branch_words, &trace.branch_words)
    }

    /// Read-only growth check: would [`AtomicCoverage::absorb`] report
    /// growth for `trace` right now? A `true` answer proves `trace` covers
    /// at least one site *no* previously published trace covered (bits are
    /// only ever set, never cleared), which the async engine uses as a
    /// lock-free `[tr]`-uniqueness fast path. A `false` answer proves
    /// nothing — publication by another thread may race this probe — so
    /// callers must fall back to an exact check.
    pub fn would_grow(&self, trace: &TraceFile) -> bool {
        atomic_would_grow(&self.stmt_words, &trace.stmt_words)
            || atomic_would_grow(&self.branch_words, &trace.branch_words)
    }

    /// Total accumulated statistics (popcounts over a point-in-time load
    /// of each word).
    pub fn stats(&self) -> CoverageStats {
        self.snapshot().stats()
    }

    /// A plain [`GlobalCoverage`] copy of the current contents.
    ///
    /// Taken under the capacity read lock, loading each word once: a
    /// *consistent-per-word* snapshot (bits are monotone, so the snapshot
    /// is the union of some prefix of the absorb history).
    pub fn snapshot(&self) -> GlobalCoverage {
        let load = |lock: &RwLock<Vec<AtomicU64>>| -> Vec<u64> {
            atomic_read(lock)
                .iter()
                .map(|w| w.load(Ordering::Relaxed))
                .collect()
        };
        GlobalCoverage {
            stmt_words: load(&self.stmt_words),
            branch_words: load(&self.branch_words),
        }
    }
}

impl From<&GlobalCoverage> for AtomicCoverage {
    /// Seeds an atomic accumulator from an existing merge result.
    fn from(global: &GlobalCoverage) -> AtomicCoverage {
        let lift = |words: &[u64]| -> RwLock<Vec<AtomicU64>> {
            RwLock::new(trimmed(words).iter().map(|&w| AtomicU64::new(w)).collect())
        };
        AtomicCoverage {
            stmt_words: lift(&global.stmt_words),
            branch_words: lift(&global.branch_words),
            absorbing: Mutex::new(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(stmts: &[u32], branches: &[(u32, bool)]) -> TraceFile {
        let mut t = TraceFile::new();
        for &s in stmts {
            t.hit_stmt(s);
        }
        for &(s, d) in branches {
            t.hit_branch(s, d);
        }
        t
    }

    #[test]
    fn site_ids_are_stable_and_distinct() {
        let a = site_id("loader.rs", 10, 4);
        let b = site_id("loader.rs", 10, 4);
        let c = site_id("loader.rs", 11, 4);
        let d = site_id("linker.rs", 10, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn universe_interning_is_idempotent() {
        let u = SiteUniverse::global();
        let a = u.stmt_slot(0xdead_beef);
        assert_eq!(u.stmt_slot(0xdead_beef), a);
        assert_eq!(u.stmt_site_at(a), Some(0xdead_beef));
        let base = u.branch_base(0xdead_beef);
        assert_eq!(base % 2, 0, "branch bases are 2-bit aligned");
        assert_eq!(u.branch_slot(0xdead_beef, false), base);
        assert_eq!(u.branch_slot(0xdead_beef, true), base + 1);
        assert_eq!(u.branch_at(base), Some((0xdead_beef, false)));
        assert_eq!(u.branch_at(base + 1), Some((0xdead_beef, true)));
        assert!(u.stmt_slot_count() >= 1);
        assert!(u.branch_slot_count() >= 2);
    }

    #[test]
    fn stats_count_distinct_sites() {
        let t = trace(&[1, 2, 2, 3], &[(9, true), (9, false), (9, true)]);
        assert_eq!(t.stats(), CoverageStats { stmt: 3, br: 2 });
        assert_eq!(t.stats().to_string(), "3/2");
    }

    #[test]
    fn merge_is_union() {
        let a = trace(&[1, 2], &[(9, true)]);
        let b = trace(&[2, 3], &[(9, false)]);
        let m = a.merge(&b);
        assert_eq!(m.stats(), CoverageStats { stmt: 3, br: 2 });
        // ⊕ is commutative and idempotent.
        assert_eq!(m, b.merge(&a));
        assert_eq!(m.merge(&m), m);
    }

    #[test]
    fn static_equality_distinguishes_same_stats() {
        // Same statistics (2 stmts, 1 branch) but different site sets —
        // the situation only [tr] can tell apart.
        let a = trace(&[1, 2], &[(9, true)]);
        let b = trace(&[1, 3], &[(9, true)]);
        assert_eq!(a.stats(), b.stats());
        assert!(!a.statically_equal(&b));
        assert!(a.statically_equal(&a.clone()));
    }

    #[test]
    fn equality_ignores_trailing_capacity() {
        let mut reused = TraceFile::new();
        // Force capacity by hitting many sites, then clear and re-record.
        for i in 0..200 {
            reused.hit_stmt(0x5000 + i);
        }
        reused.clear();
        reused.hit_stmt(1);
        let fresh = trace(&[1], &[]);
        assert_eq!(reused, fresh);
        assert_eq!(reused.fingerprint(), fresh.fingerprint());
        assert_eq!(reused.snapshot(), fresh);
    }

    #[test]
    fn fingerprint_tracks_equality() {
        let a = trace(&[1, 2], &[(9, true)]);
        let b = trace(&[2, 1], &[(9, true)]);
        let c = trace(&[1, 3], &[(9, true)]);
        assert_eq!(a.fingerprint(), b.fingerprint(), "equal sets, equal fps");
        assert_ne!(a.fingerprint(), c.fingerprint(), "distinct sets differ");
        // Stmt content must not alias branch content.
        let stmts_only = trace(&[7], &[]);
        let branches_only = trace(&[], &[(7, false)]);
        assert_ne!(stmts_only.fingerprint(), branches_only.fingerprint());
    }

    #[test]
    fn clear_keeps_nothing() {
        let mut t = trace(&[1, 2, 3], &[(4, true), (5, false)]);
        assert!(!t.is_empty());
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t, TraceFile::new());
    }

    #[test]
    fn sites_resolve_back_through_the_universe() {
        let t = trace(&[11, 12], &[(13, true), (14, false)]);
        assert_eq!(t.stmt_sites(), [11, 12].into_iter().collect());
        assert_eq!(
            t.branch_sites(),
            [(13, true), (14, false)].into_iter().collect()
        );
    }

    #[test]
    fn st_ignores_branch_dimension() {
        let mut idx = SuiteIndex::new(UniquenessCriterion::St);
        let a = trace(&[1, 2], &[(9, true)]);
        let b = trace(&[3, 4], &[(9, false), (10, true)]);
        assert!(idx.insert_if_unique(&a));
        // b has the same stmt count (2): rejected under [st]...
        assert!(!idx.insert_if_unique(&b));
        // ...but accepted under [stbr] (branch count differs).
        let mut idx2 = SuiteIndex::new(UniquenessCriterion::StBr);
        assert!(idx2.insert_if_unique(&a));
        assert!(idx2.insert_if_unique(&b));
    }

    #[test]
    fn st_key_collapses_branch_count_to_zero() {
        // Regression test for the [st] key: the branch dimension must be
        // collapsed to exactly 0, so a branch-free trace and a branch-heavy
        // trace with the same stmt count share one key — in both orders.
        let branch_free = trace(&[1, 2, 3], &[]);
        let branch_heavy = trace(&[4, 5, 6], &[(9, true), (9, false), (10, true)]);
        for pair in [[&branch_free, &branch_heavy], [&branch_heavy, &branch_free]] {
            let mut idx = SuiteIndex::new(UniquenessCriterion::St);
            assert!(idx.insert_if_unique(pair[0]));
            assert!(
                !idx.insert_if_unique(pair[1]),
                "same stmt count must collide under [st] regardless of branches"
            );
            assert_eq!(idx.len(), 1);
        }
    }

    #[test]
    fn tr_distinguishes_equal_stats_different_sets() {
        let mut idx = SuiteIndex::new(UniquenessCriterion::Tr);
        let a = trace(&[1, 2], &[(9, true)]);
        let b = trace(&[1, 3], &[(9, true)]);
        assert!(idx.insert_if_unique(&a));
        assert!(idx.insert_if_unique(&b)); // [tr] accepts; [stbr] would not
        assert!(!idx.insert_if_unique(&a.clone()));
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn tr_counters_track_fast_path_and_fallbacks() {
        let mut idx = SuiteIndex::new(UniquenessCriterion::Tr);
        let a = trace(&[1, 2], &[(9, true)]);
        let b = trace(&[1, 3], &[(9, true)]);
        assert!(idx.insert_if_unique(&a)); // fast path (empty index)
        assert!(idx.insert_if_unique(&b)); // fast path (new fingerprint)
        assert!(!idx.insert_if_unique(&a)); // duplicate: word-compare fallback
        let c = idx.counters();
        assert_eq!(c.offered, 3);
        assert_eq!(c.accepted, 2);
        assert_eq!(c.fingerprint_fast_path, 2);
        assert_eq!(c.word_compare_fallbacks, 1);
    }

    #[test]
    fn greedy_accumulation() {
        let mut g = GlobalCoverage::new();
        assert!(g.absorb(&trace(&[1, 2], &[])));
        assert!(!g.absorb(&trace(&[1], &[]))); // no new coverage
        assert!(g.absorb(&trace(&[1], &[(5, true)])));
        assert_eq!(g.stats(), CoverageStats { stmt: 2, br: 1 });
    }

    #[test]
    fn criterion_labels() {
        assert_eq!(UniquenessCriterion::St.label(), "[st]");
        assert_eq!(UniquenessCriterion::StBr.to_string(), "[stbr]");
        assert_eq!(UniquenessCriterion::Tr.label(), "[tr]");
    }

    #[test]
    fn index_merge_matches_sequential_insertion() {
        for criterion in [
            UniquenessCriterion::St,
            UniquenessCriterion::StBr,
            UniquenessCriterion::Tr,
        ] {
            let h1 = [trace(&[1, 2], &[(9, true)]), trace(&[1, 3], &[(9, true)])];
            let h2 = [trace(&[1, 2], &[(9, true)]), trace(&[4], &[])];
            let mut left = SuiteIndex::new(criterion);
            for t in &h1 {
                left.insert_if_unique(t);
            }
            let mut right = SuiteIndex::new(criterion);
            for t in &h2 {
                right.insert_if_unique(t);
            }
            let mut sequential = SuiteIndex::new(criterion);
            for t in h1.iter().chain(&h2) {
                sequential.insert_if_unique(t);
            }
            left.merge(&right);
            assert_eq!(left, sequential, "criterion {criterion}");
        }
    }

    #[test]
    #[should_panic(expected = "different uniqueness criteria")]
    fn index_merge_rejects_mixed_criteria() {
        let mut a = SuiteIndex::new(UniquenessCriterion::St);
        a.merge(&SuiteIndex::new(UniquenessCriterion::Tr));
    }

    #[test]
    fn global_merge_is_set_union() {
        let mut a = GlobalCoverage::new();
        a.absorb(&trace(&[1, 2], &[(5, true)]));
        let mut b = GlobalCoverage::new();
        b.absorb(&trace(&[2, 3], &[(5, false)]));
        assert!(a.merge(&b));
        assert_eq!(a.stats(), CoverageStats { stmt: 3, br: 2 });
        // Merging a subset contributes nothing.
        let mut sub = GlobalCoverage::new();
        sub.absorb(&trace(&[1], &[]));
        assert!(!a.merge(&sub));
    }

    #[test]
    fn empty_trace_is_empty() {
        let t = TraceFile::new();
        assert!(t.is_empty());
        assert_eq!(t.stats(), CoverageStats::default());
    }

    #[test]
    fn atomic_absorb_matches_global_coverage() {
        let traces = [
            trace(&[1, 2], &[(5, true)]),
            trace(&[2, 3], &[(5, false)]),
            trace(&[1], &[]),
        ];
        let atomic = AtomicCoverage::new();
        let mut global = GlobalCoverage::new();
        for t in &traces {
            assert_eq!(atomic.absorb(t), global.absorb(t), "growth verdicts agree");
        }
        assert_eq!(atomic.snapshot(), global);
        assert_eq!(atomic.stats(), global.stats());
        // Re-absorbing anything already covered reports no growth.
        assert!(!atomic.absorb(&traces[0]));
        assert!(!atomic.would_grow(&traces[1]));
        assert!(atomic.would_grow(&trace(&[99], &[])));
    }

    #[test]
    fn atomic_seeding_from_global() {
        let mut global = GlobalCoverage::new();
        global.absorb(&trace(&[1, 2], &[(5, true)]));
        let atomic = AtomicCoverage::from(&global);
        assert_eq!(atomic.snapshot(), global);
        assert!(!atomic.would_grow(&trace(&[1], &[])));
        assert!(atomic.would_grow(&trace(&[3], &[])));
    }

    #[test]
    fn concurrent_absorbs_equal_sequential_union() {
        // 4 threads × 64 traces; the final bitset must equal the
        // sequential merge regardless of interleaving, and each
        // single-site trace's growth must be observed by exactly one
        // absorbing thread.
        let shared = std::sync::Arc::new(AtomicCoverage::new());
        let site = |k: u32| trace(&[0x4000 + k], &[(0x200 + k / 2, k.is_multiple_of(2))]);
        let growths: Vec<usize> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    let shared = std::sync::Arc::clone(&shared);
                    scope.spawn(move || (0..64).filter(|&k| shared.absorb(&site(k))).count())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("absorber thread"))
                .collect()
        });
        let mut sequential = GlobalCoverage::new();
        for k in 0..64 {
            sequential.absorb(&site(k));
        }
        assert_eq!(shared.snapshot(), sequential);
        // Every trace here carries a site no *other* trace carries, so of
        // the 4 competing absorptions of trace k exactly one grew: the
        // total growth count equals the number of distinct traces.
        assert_eq!(growths.iter().sum::<usize>(), 64);
    }

    #[test]
    fn gain_and_covers_are_word_wise_set_difference() {
        let mut g = GlobalCoverage::new();
        g.absorb(&trace(&[1, 2], &[(5, true)]));
        assert_eq!(g.gain(&trace(&[1, 2], &[(5, true)])), 0);
        assert!(g.covers(&trace(&[1], &[])));
        assert_eq!(g.gain(&trace(&[1, 3], &[(5, false)])), 2);
        assert!(!g.covers(&trace(&[3], &[])));
        // An empty trace is covered by anything, including an empty union.
        assert!(GlobalCoverage::new().covers(&TraceFile::new()));
    }

    #[test]
    fn greedy_max_cover_picks_by_marginal_gain() {
        let a = trace(&[1, 2, 3], &[]); // 3 sites
        let b = trace(&[1, 2], &[]); // subset of a: gain 0 once a is in
        let c = trace(&[4], &[(9, true)]); // 2 fresh sites
        let d = trace(&[3], &[]); // subsumed
        let traces = [Some(&a), Some(&b), Some(&c), Some(&d), None];
        let order = greedy_max_cover_order(&traces, usize::MAX);
        assert_eq!(order, vec![0, 2], "zero-gain and untraced entries dropped");
        // Cap truncates the pick list.
        assert_eq!(greedy_max_cover_order(&traces, 1), vec![0]);
        // Ties break toward the lowest index.
        let x = trace(&[10], &[]);
        let y = trace(&[11], &[]);
        assert_eq!(greedy_max_cover_order(&[Some(&x), Some(&y)], 2), vec![0, 1]);
    }

    #[test]
    fn distill_keeps_exactly_the_non_subsumed() {
        let a = trace(&[1, 2], &[]);
        let b = trace(&[1], &[]); // ⊆ a: evicted
        let c = trace(&[3], &[(9, false)]); // unique sites: kept
        let keep = distill_keep_mask(&[Some(&a), Some(&b), Some(&c), None]);
        assert_eq!(keep, vec![true, false, true, true]);
        // Union is preserved: of k identical traces the last survives.
        let dup = trace(&[7], &[]);
        let keep = distill_keep_mask(&[Some(&dup), Some(&dup), Some(&dup)]);
        assert_eq!(keep, vec![false, false, true]);
        // Idempotent: a distilled set distills to itself.
        let keep = distill_keep_mask(&[Some(&a), Some(&c)]);
        assert_eq!(keep, vec![true, true]);
        // Empty traces carry no sites and are always subsumed.
        let empty = TraceFile::new();
        assert_eq!(distill_keep_mask(&[Some(&empty)]), vec![false]);
    }

    #[test]
    fn distill_preserves_total_coverage() {
        let traces = [
            trace(&[1, 2], &[(5, true)]),
            trace(&[2], &[(5, true)]),
            trace(&[2, 3], &[]),
            trace(&[1, 2, 3], &[(5, true)]), // subsumes everything above
            trace(&[9], &[]),
        ];
        let refs: Vec<Option<&TraceFile>> = traces.iter().map(Some).collect();
        let keep = distill_keep_mask(&refs);
        let mut full = GlobalCoverage::new();
        let mut kept = GlobalCoverage::new();
        for (t, &k) in traces.iter().zip(&keep) {
            full.absorb(t);
            if k {
                kept.absorb(t);
            }
        }
        assert_eq!(kept, full, "distillation must not lose sites");
        assert!(keep.iter().filter(|&&k| k).count() < traces.len());
    }

    #[test]
    fn probe_with_fingerprint_is_read_only_and_exact() {
        for criterion in [
            UniquenessCriterion::St,
            UniquenessCriterion::StBr,
            UniquenessCriterion::Tr,
        ] {
            let mut idx = SuiteIndex::new(criterion);
            let a = trace(&[1, 2], &[(9, true)]);
            let b = trace(&[1, 3], &[(9, true)]);
            idx.insert(&a);
            let before = idx.counters();
            let (a_unique, _) = idx.probe_with_fingerprint(&a, a.fingerprint());
            let (b_unique, b_fast) = idx.probe_with_fingerprint(&b, b.fingerprint());
            assert!(!a_unique, "{criterion}: duplicate must probe non-unique");
            assert_eq!(
                b_unique,
                idx.is_unique(&b),
                "{criterion}: probe agrees with is_unique"
            );
            if criterion == UniquenessCriterion::Tr {
                assert!(b_fast, "new fingerprint settles on the fast path");
            } else {
                assert!(!b_fast, "statistic criteria never report a fast path");
            }
            assert_eq!(idx.counters(), before, "probe must not touch counters");
            assert_eq!(idx.len(), 1, "probe must not insert");
        }
    }
}
