//! The shared state every campaign's shard loop runs over, the loop
//! itself, and the multi-threaded entry point [`run_campaign_parallel`].
//!
//! Shards run unsynchronized over shared acceptance state: accepted traces
//! are published into a global bitset by word-wise `AtomicU64::fetch_or`
//! ([`AtomicCoverage`]), the candidate pool is append-only behind an
//! `RwLock` that shards copy new entries from into their own replicas, and
//! the iteration budget is a single `fetch_add` counter — no round
//! barrier, so the slowest candidate in flight never gates its peers. Each
//! shard records into its own ledger on its own thread, exec-diff and
//! crash persistence included; the ledgers are merged in shard order once
//! every shard has finished.
//!
//! Determinism is deliberately scoped to one shard: with two or more
//! free-running shards the acceptance *order* depends on thread
//! interleaving, so the exact accepted set (for the uniqueness criteria)
//! and each shard's share of the budget may vary run to run. What is
//! invariant is soundness: every accepted candidate was unique (or
//! coverage-growing) relative to the accepted set at its acceptance point,
//! because the final verdict is always taken under the index write lock
//! (uniqueness) or through the atomic-OR publication itself (greedy),
//! where each bit's 0→1 transition is observed by exactly one thread. A
//! one-shard parallel run replays [`super::run_campaign`] bit for bit —
//! same RNG stream, same pool contents at every pick, same acceptance
//! sequence. A multi-shard finding is replayed from its persisted bytes,
//! not from the campaign. See DESIGN.md §14 for the full argument.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread;
use std::time::Instant;

use classfuzz_coverage::{AtomicCoverage, SuiteIndex, TraceFile, UniquenessCriterion};
use classfuzz_jimple::IrClass;
use classfuzz_mcmc::AcceptanceTelemetry;
use classfuzz_vm::run_contained;

use super::{
    campaign_budget, prepare_seed_pool, Algorithm, CampaignConfig, CampaignResult, EngineError,
    Ledger, PoolEntry, Produced, Shard, ShardOutcome,
};

fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    // A panicking shard already fails the campaign through its own
    // containment; its poison bit must not cascade into every peer (same
    // policy as SiteUniverse).
    lock.read().unwrap_or_else(|p| p.into_inner())
}

fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|p| p.into_inner())
}

/// Acceptance-path counters shared by all shards. They cannot be read out
/// of the `SuiteIndex` (shards also resolve offers on the read-lock probe
/// and the `[tr]` lock-free fast path, which the index counters never
/// see), so the shards tally their own.
#[derive(Debug, Default)]
struct AsyncCounters {
    offered: AtomicU64,
    accepted: AtomicU64,
    fingerprint_fast_path: AtomicU64,
    word_compare_fallbacks: AtomicU64,
}

impl AsyncCounters {
    fn telemetry(&self) -> AcceptanceTelemetry {
        AcceptanceTelemetry {
            offered: self.offered.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            fingerprint_fast_path: self.fingerprint_fast_path.load(Ordering::Relaxed),
            word_compare_fallbacks: self.word_compare_fallbacks.load(Ordering::Relaxed),
            ..AcceptanceTelemetry::default()
        }
    }
}

/// The shared acceptance state, callable from any shard without a
/// coordinator.
enum AsyncAcceptance {
    /// Uniqueness acceptance: the suite index behind an `RwLock`
    /// (double-checked — read-lock probe, write-lock re-check-and-insert),
    /// plus the accepted suite's union coverage published through
    /// atomic-OR. The published bitset powers the `[tr]` lock-free fast
    /// accept: a trace holding a site no accepted trace covers cannot
    /// equal any of them, so novelty in the bitset proves uniqueness
    /// before any lock is taken.
    Unique {
        criterion: UniquenessCriterion,
        index: RwLock<SuiteIndex>,
        published: AtomicCoverage,
    },
    /// Greedy acceptance needs no index lock: `AtomicCoverage::absorb`
    /// serializes absorptions, so of several shards absorbing equal
    /// traces exactly one is told its trace grew accumulated coverage.
    Greedy(AtomicCoverage),
    /// Randfuzz: accept everything.
    All,
}

impl AsyncAcceptance {
    fn new(algorithm: Algorithm) -> AsyncAcceptance {
        let unique = |criterion| AsyncAcceptance::Unique {
            criterion,
            index: RwLock::new(SuiteIndex::new(criterion)),
            published: AtomicCoverage::new(),
        };
        match algorithm {
            Algorithm::Classfuzz(criterion) => unique(criterion),
            Algorithm::Uniquefuzz => unique(UniquenessCriterion::StBr),
            Algorithm::Greedyfuzz => AsyncAcceptance::Greedy(AtomicCoverage::new()),
            Algorithm::Randfuzz => AsyncAcceptance::All,
        }
    }

    /// Algorithm 1 line 1 (TestClasses ← Seeds), against the shared state.
    /// Runs before any shard spawns, so plain sequential inserts suffice.
    /// Seed traces come from the pool cache — recorded once by
    /// [`prepare_seed_pool`], which always traces for the
    /// coverage-consulting algorithms this acts on.
    fn seed(&self, seed_pool: &[PoolEntry]) {
        match self {
            AsyncAcceptance::Unique {
                index, published, ..
            } => {
                let mut index = write_lock(index);
                for seed in seed_pool {
                    if let Some(trace) = &seed.trace {
                        index.insert(trace);
                        published.absorb(trace);
                    }
                }
            }
            AsyncAcceptance::Greedy(published) => {
                for seed in seed_pool {
                    if let Some(trace) = &seed.trace {
                        published.absorb(trace);
                    }
                }
            }
            AsyncAcceptance::All => {}
        }
    }

    /// The shard-side acceptance decision. Sound under concurrency: the
    /// verdict that admits a candidate is always taken while holding the
    /// index write lock (uniqueness) or through the atomic absorb itself
    /// (greedy), so two shards can never both accept equal traces.
    fn decide(&self, counters: &AsyncCounters, produced: &Produced) -> bool {
        let Produced::Candidate(cand) = produced else {
            return false;
        };
        let (criterion, index, published) = match self {
            AsyncAcceptance::All => return true,
            AsyncAcceptance::Greedy(published) => {
                return cand.trace.as_deref().is_some_and(|t| published.absorb(t));
            }
            AsyncAcceptance::Unique {
                criterion,
                index,
                published,
            } => (*criterion, index, published),
        };
        let Some(trace) = cand.trace.as_deref() else {
            return false;
        };
        counters.offered.fetch_add(1, Ordering::Relaxed);
        let fp = cand.trace_fp.unwrap_or_else(|| trace.fingerprint());
        // `[tr]` lock-free fast accept: a bit not yet in the published
        // union means no accepted trace covers it, so this trace equals
        // none of them — skip the read probe and go straight to the
        // insert. (The write-lock insert still re-checks; the bitset only
        // routes, it never decides.)
        if criterion == UniquenessCriterion::Tr && published.would_grow(trace) {
            counters
                .fingerprint_fast_path
                .fetch_add(1, Ordering::Relaxed);
            return self.insert(counters, index, published, trace, fp);
        }
        // Double-checked acceptance, step 1: a read-only probe under the
        // shared lock. "Not unique" is final (suite entries are never
        // removed); "unique" must be re-checked under the write lock,
        // because a peer may insert an equal trace between the two steps.
        let (unique, fast) = read_lock(index).probe_with_fingerprint(trace, fp);
        if criterion == UniquenessCriterion::Tr {
            let path = if fast {
                &counters.fingerprint_fast_path
            } else {
                &counters.word_compare_fallbacks
            };
            path.fetch_add(1, Ordering::Relaxed);
        }
        if !unique {
            return false;
        }
        self.insert(counters, index, published, trace, fp)
    }

    /// Step 2: re-check and insert under the write lock, then publish the
    /// accepted trace's bits for the fast path and the coverage report.
    fn insert(
        &self,
        counters: &AsyncCounters,
        index: &RwLock<SuiteIndex>,
        published: &AtomicCoverage,
        trace: &TraceFile,
        fp: u64,
    ) -> bool {
        let inserted = write_lock(index).insert_if_unique_with_fingerprint(trace, fp);
        if inserted {
            published.absorb(trace);
            counters.accepted.fetch_add(1, Ordering::Relaxed);
        }
        inserted
    }
}

/// The shared candidate pool: seeds plus every accepted mutant, minus
/// distilled evictions. Append-only within a generation, so a shard's
/// replica catches up by copying only the new tail; a distillation pass
/// that evicts anything starts a new generation, and a replica that sees
/// one copies the whole pool.
struct SharedPool {
    /// Bumped by every change — append or eviction.
    version: u64,
    /// Bumped by every evicting distillation pass.
    generation: u64,
    entries: Vec<PoolEntry>,
}

/// A shard's private copy of the shared pool, as of `version`.
#[derive(Default)]
struct Replica {
    version: u64,
    generation: u64,
    entries: Vec<PoolEntry>,
}

impl Replica {
    /// Catches up with `pool`: copies only the new tail within a
    /// generation, the whole pool after an evicting distillation pass.
    fn catch_up(&mut self, pool: &SharedPool) {
        if pool.generation == self.generation {
            self.entries
                .extend_from_slice(&pool.entries[self.entries.len()..]);
        } else {
            self.entries.clone_from(&pool.entries);
            self.generation = pool.generation;
        }
        self.version = pool.version;
    }
}

/// Everything the shards of one campaign share.
pub(super) struct AsyncShared<'a> {
    pub(super) config: &'a CampaignConfig,
    pub(super) seeds: &'a [IrClass],
    /// The campaign clock, started before the seed pool is prepared.
    pub(super) start: Instant,
    pool: RwLock<SharedPool>,
    /// `pool.version`, readable without the lock — shards poll this each
    /// iteration and only take the read lock when there is news.
    pool_version: AtomicU64,
    acceptance: AsyncAcceptance,
    counters: AsyncCounters,
    /// The campaign's iteration budget (see `campaign_budget`).
    budget: usize,
    /// The shared iteration counter: each shard claims iterations with
    /// `fetch_add(1)` until the budget is spent. Work-stealing by
    /// construction — a stalled shard's budget flows to its peers.
    next_iteration: AtomicUsize,
    /// The shared crash-corpus counter: each crash record claims the next
    /// index, so `crash_{i:04}` names are unique across shards.
    pub(super) next_crash: AtomicUsize,
    /// Raised by a dying shard (or a refused spawn) so free-running peers
    /// wind down promptly instead of spending the rest of the budget on a
    /// campaign that will error out anyway.
    stop: AtomicBool,
}

impl<'a> AsyncShared<'a> {
    /// Starts the campaign clock, prepares the seed pool and seeds the
    /// acceptance state with it (Algorithm 1 line 1).
    pub(super) fn new(seeds: &'a [IrClass], config: &'a CampaignConfig) -> AsyncShared<'a> {
        let start = Instant::now();
        let acceptance = AsyncAcceptance::new(config.algorithm);
        let seed_pool = prepare_seed_pool(seeds, config);
        acceptance.seed(&seed_pool);
        AsyncShared {
            config,
            seeds,
            start,
            pool: RwLock::new(SharedPool {
                version: 0,
                generation: 0,
                entries: seed_pool,
            }),
            pool_version: AtomicU64::new(0),
            acceptance,
            counters: AsyncCounters::default(),
            budget: campaign_budget(seeds, config),
            next_iteration: AtomicUsize::new(0),
            next_crash: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
        }
    }

    /// The index-side acceptance telemetry, read back from the shared
    /// atomic counters (all-zero for greedyfuzz/randfuzz, which consult no
    /// index).
    pub(super) fn telemetry(&self) -> AcceptanceTelemetry {
        match self.acceptance {
            AsyncAcceptance::Unique { .. } => self.counters.telemetry(),
            AsyncAcceptance::Greedy(_) | AsyncAcceptance::All => AcceptanceTelemetry::default(),
        }
    }

    /// Brings `replica` up to date, taking the read lock only when the
    /// pool changed since.
    fn sync(&self, replica: &mut Replica) {
        if self.pool_version.load(Ordering::Acquire) != replica.version {
            replica.catch_up(&read_lock(&self.pool));
        }
    }

    /// Appends an accepted candidate's entry to the shared pool (line 14)
    /// and, under the same lock, brings the accepting shard's replica up
    /// to date.
    fn publish(&self, entry: PoolEntry, replica: &mut Replica) {
        let mut pool = write_lock(&self.pool);
        pool.entries.push(entry);
        pool.version += 1;
        self.pool_version.store(pool.version, Ordering::Release);
        replica.catch_up(&pool);
    }

    /// One boundary distillation pass over the shared pool, in place; an
    /// eviction starts a new generation. The distilling shard's replica
    /// catches up under the same lock.
    fn distill(&self, shard: &mut Shard, replica: &mut Replica) {
        let mut pool = write_lock(&self.pool);
        if shard.distill(&mut pool.entries) > 0 {
            pool.generation += 1;
            pool.version += 1;
            self.pool_version.store(pool.version, Ordering::Release);
        }
        replica.catch_up(&pool);
    }
}

/// The campaign loop, one per shard: claim an iteration, sync the pool
/// replica, produce a candidate, decide acceptance against the shared
/// state, publish an accepted entry, record the iteration in the shard's
/// ledger, and distill at the boundaries. Never blocks on a peer: the only
/// lock held across a decision is the index write lock.
pub(super) fn shard_loop(shared: &AsyncShared<'_>, shard: &mut Shard, ledger: &mut Ledger<'_>) {
    let mut pool = Replica::default();
    pool.catch_up(&read_lock(&shared.pool));
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        let it = shared.next_iteration.fetch_add(1, Ordering::Relaxed);
        if it >= shared.budget {
            break;
        }
        shared.sync(&mut pool);
        let produced = shard.produce(&pool.entries, shared.seeds);
        let accepted = shared.acceptance.decide(&shared.counters, &produced);
        if let (true, Produced::Candidate(cand)) = (accepted, &produced) {
            shard.record_success();
            shared.publish(cand.pool_entry(), &mut pool);
        }
        ledger.record(produced, accepted);
        // Boundary distillation over the shared iteration count, so a
        // one-shard run prunes at exactly `run_campaign`'s boundaries.
        if shard.distill_due(it + 1, shared.budget) {
            shared.distill(shard, &mut pool);
        }
    }
}

/// A worker shard's thread body: builds the shard and runs its loop.
/// Mutation and VM startup contain their own panics; this outer
/// containment is the shard's last line of defence. The ledger lives
/// outside it, so an escaped panic still leaves what the shard recorded:
/// the shard raises the stop flag and returns its [`EngineError`].
fn run_shard<'a>(
    shared: &'a AsyncShared<'a>,
    shard_id: usize,
) -> Result<(Ledger<'a>, ShardOutcome), EngineError> {
    let mut ledger = Ledger::new(shared, shard_id);
    let ran = run_contained(|| {
        if shared.config.inject_shard_death == Some(shard_id) {
            panic!("injected shard death (containment self-test)");
        }
        let mut shard = Shard::new(shared.config, shard_id);
        shard_loop(shared, &mut shard, &mut ledger);
        shard.finish()
    });
    match ran {
        Ok(outcome) => Ok((ledger, outcome)),
        Err(detail) => {
            // Free-running peers poll this each iteration; a dead shard
            // must not leave them burning the rest of the budget on a
            // campaign that will error out.
            shared.stop.store(true, Ordering::Relaxed);
            Err(ledger.engine_error(format!("worker shard died outside containment: {detail}")))
        }
    }
}

/// Runs one campaign across `num_shards` free-running worker threads.
///
/// Each shard owns its own RNG (seeded by [`super::shard_rng_seed`]), its
/// own reference VM, selector, pool replica and ledger; acceptance is
/// decided shard-side against shared state (see the module docs and
/// DESIGN.md §14). Shards claim iterations from one shared counter, so a
/// stalled shard's budget flows to its peers. At most
/// `min(num_shards, budget)` shards are spawned (and at least one): a
/// shard beyond the budget could never claim an iteration.
///
/// * `num_shards == 1` (or 0, treated as 1) is **bit-identical** to
///   [`super::run_campaign`] apart from the wall-clock field;
/// * with more shards the result is sound — every accepted candidate was
///   unique (or coverage-growing) against the suite at its acceptance —
///   but the accepted set may vary run to run, and `gen_classes` is
///   shard-major: shard 0's classes in generation order, then shard 1's.
///
/// The per-shard breakdown lands in [`CampaignResult::shard_stats`];
/// `mutator_stats` is the elementwise sum over shards. Contained faults
/// (panicking mutators, crashing VM runs) are *recorded*, not fatal — see
/// [`CampaignResult::crashes`].
///
/// # Errors
///
/// [`EngineError`] when a worker shard dies outside the contained regions
/// or the OS refuses a worker thread. Either raises the stop flag so peers
/// wind down instead of running on; a dead shard's error names the shard,
/// its recorded iterations and its last candidate.
pub fn run_campaign_parallel(
    seeds: &[IrClass],
    config: &CampaignConfig,
    num_shards: usize,
) -> Result<CampaignResult, EngineError> {
    let shared = AsyncShared::new(seeds, config);
    let num_shards = num_shards.min(shared.budget).max(1);
    let (runs, refused) = thread::scope(|scope| {
        let shared = &shared;
        let mut handles = Vec::with_capacity(num_shards);
        let mut refused = None;
        for shard_id in 0..num_shards {
            let spawned =
                thread::Builder::new().spawn_scoped(scope, move || run_shard(shared, shard_id));
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    // The shards already running wind down through the
                    // stop flag and are joined below.
                    shared.stop.store(true, Ordering::Relaxed);
                    refused = Some(format!("cannot spawn worker shard {shard_id}: {e}"));
                    break;
                }
            }
        }
        let runs: Vec<_> = handles
            .into_iter()
            .enumerate()
            .map(|(shard_id, handle)| {
                handle.join().unwrap_or_else(|_| {
                    Err(EngineError {
                        shard_id: Some(shard_id),
                        iterations: 0,
                        last_candidate: None,
                        message: "worker shard panicked past its containment".to_string(),
                    })
                })
            })
            .collect();
        (runs, refused)
    });
    if let Some(message) = refused {
        let iterations = runs
            .iter()
            .flatten()
            .map(|(ledger, _)| ledger.shard_stats[0].iterations)
            .sum();
        return Err(EngineError {
            shard_id: None,
            iterations,
            last_candidate: None,
            message,
        });
    }
    let mut outcomes = Vec::with_capacity(runs.len());
    let mut merged: Option<Ledger<'_>> = None;
    for run in runs {
        let (ledger, outcome) = run?;
        outcomes.push(outcome);
        match &mut merged {
            Some(merged) => merged.merge(ledger),
            None => merged = Some(ledger),
        }
    }
    // Shard 0 was spawned, or the refusal above returned.
    Ok(merged
        .unwrap_or_else(|| Ledger::new(&shared, 0))
        .finish(outcomes))
}
