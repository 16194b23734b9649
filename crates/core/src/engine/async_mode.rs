//! The free-running asynchronous campaign engine: the one engine behind
//! [`run_campaign_parallel`], at any shard count.
//!
//! Shards run unsynchronized over shared acceptance state: accepted traces
//! are published into a global bitset by word-wise `AtomicU64::fetch_or`
//! ([`AtomicCoverage`]), the candidate pool lives behind an `RwLock` that
//! shards read opportunistically and append to under a short write lock,
//! and the iteration budget is a single `fetch_add` counter — no round
//! barrier, so the slowest candidate in flight never gates its peers.
//!
//! Determinism is deliberately scoped to one shard: with two or more
//! free-running shards the acceptance *order* depends on thread
//! interleaving, so `gen_classes` ordering and (for the uniqueness
//! criteria) the exact accepted set may vary run to run. What is invariant
//! is soundness: every accepted candidate was unique (or coverage-growing)
//! relative to the accepted set at its acceptance point, because the final
//! verdict is always taken under the index write lock (uniqueness) or
//! through the atomic-OR publication itself (greedy), where each bit's
//! 0→1 transition is observed by exactly one thread. A one-shard async run
//! replays the sequential campaign bit for bit — same RNG stream, same
//! pool contents at every pick, same acceptance sequence. A multi-shard
//! finding is replayed from its persisted bytes, not from the campaign.
//! See DESIGN.md §14 for the full argument.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread;

use classfuzz_coverage::{AtomicCoverage, SuiteIndex, TraceFile, UniquenessCriterion};
use classfuzz_jimple::IrClass;
use classfuzz_mcmc::AcceptanceTelemetry;
use classfuzz_vm::run_contained;

use super::{
    campaign_budget, prepare_seed_pool, Algorithm, CampaignConfig, CampaignResult, DistillCounters,
    EngineError, Ledger, PoolEntry, Produced, Shard, ShardOutcome,
};

fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    // A panicking shard is already contained as a last gasp; its poison bit
    // must not cascade into every peer (same policy as SiteUniverse).
    lock.read().unwrap_or_else(|p| p.into_inner())
}

fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|p| p.into_inner())
}

/// Acceptance-path counters shared by all shards. The async engine cannot
/// read them out of the `SuiteIndex` (shards also resolve offers on the
/// read-lock probe and the `[tr]` lock-free fast path, which the index
/// counters never see), so it tallies its own.
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

/// The shared acceptance state — the async counterpart of the private
/// `Acceptance` enum, callable from any shard without a coordinator.
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

    /// The index-side telemetry, read back from the shared atomic counters
    /// (all-zero for greedyfuzz/randfuzz, mirroring the sequential engine).
    fn telemetry(&self, counters: &AsyncCounters) -> AcceptanceTelemetry {
        match self {
            AsyncAcceptance::Unique { .. } => counters.telemetry(),
            AsyncAcceptance::Greedy(_) | AsyncAcceptance::All => AcceptanceTelemetry::default(),
        }
    }
}

/// The shared candidate pool as a versioned immutable snapshot. Writers
/// (accept appends and distillation passes) build a fresh `Arc<Vec<_>>`
/// under the write lock and bump `version`; readers clone the `Arc` and
/// work from the snapshot lock-free. Distillation can therefore *remove*
/// entries without breaking readers — the old prefix-sync replica scheme
/// assumed an append-only pool, which eviction violates.
struct PoolState {
    version: u64,
    entries: Arc<Vec<PoolEntry>>,
}

/// Everything the free-running shards share.
struct AsyncShared<'a> {
    seeds: &'a [IrClass],
    /// The global candidate pool: seeds plus every accepted mutant minus
    /// distilled evictions, published as a versioned snapshot.
    pool: RwLock<PoolState>,
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
    /// Raised by the collector on a last gasp so free-running peers wind
    /// down promptly instead of spending the rest of the budget on a
    /// campaign that will error out anyway.
    stop: AtomicBool,
}

impl AsyncShared<'_> {
    /// The latest published pool snapshot and its version.
    fn snapshot(&self) -> (Arc<Vec<PoolEntry>>, u64) {
        let state = read_lock(&self.pool);
        (Arc::clone(&state.entries), state.version)
    }

    /// Copy-on-write pool update: under the write lock, `edit` rewrites a
    /// copy of the current snapshot, and the copy is published as the next
    /// version when `edit` reports a change — readers holding the old `Arc`
    /// are unaffected. Returns the now-current snapshot, which the caller
    /// adopts as its replica.
    fn update_pool(
        &self,
        edit: impl FnOnce(&mut Vec<PoolEntry>) -> bool,
    ) -> (Arc<Vec<PoolEntry>>, u64) {
        let mut state = write_lock(&self.pool);
        let mut next = state.entries.as_ref().clone();
        if edit(&mut next) {
            state.entries = Arc::new(next);
            state.version += 1;
            self.pool_version.store(state.version, Ordering::Release);
        }
        (Arc::clone(&state.entries), state.version)
    }
}

/// How many iterations a shard reports to the collector at once. One
/// message per iteration would wake the collector once per iteration,
/// and on a busy core every wake is a context switch; batching keeps a
/// shard's own reports in order.
const REPORT_BATCH: usize = 32;

/// One shard's free-running loop: claim an iteration, opportunistically
/// sync the pool replica, produce (the same `Shard::produce` as the
/// sequential engine), decide acceptance against the shared state, publish
/// accepted entries, and queue the result in `batch` for the collector.
/// Never blocks on a peer: the only lock held across a decision is the
/// index write lock, and the mpsc send is unbounded.
fn shard_loop(
    shared: &AsyncShared<'_>,
    shard: &mut Shard,
    shard_id: usize,
    report_tx: &mpsc::Sender<Report>,
    batch: &mut Vec<(Produced, bool)>,
) {
    // The shard's replica is an `Arc` clone of the latest published
    // snapshot — distillation may shrink the shared pool, so replicas
    // track whole snapshots (cheap: one `Arc` clone), not prefixes.
    let (mut pool, mut pool_version) = shared.snapshot();
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        let it = shared.next_iteration.fetch_add(1, Ordering::Relaxed);
        if it >= shared.budget {
            break;
        }
        // Opportunistic snapshot sync: no lock unless a peer published.
        if shared.pool_version.load(Ordering::Acquire) != pool_version {
            (pool, pool_version) = shared.snapshot();
        }
        let produced = shard.produce(&pool, shared.seeds);
        let accepted = shared.acceptance.decide(&shared.counters, &produced);
        if let (true, Produced::Candidate(cand)) = (accepted, &produced) {
            shard.record_success();
            (pool, pool_version) = shared.update_pool(|next| {
                next.push(cand.pool_entry());
                true
            });
        }
        // Boundary distillation over the shared iteration count, with the
        // sequential engine's rule, so a one-shard async run prunes at
        // exactly its boundaries.
        if shard.distill_due(it + 1, shared.budget) {
            (pool, pool_version) = shared.update_pool(|next| shard.distill(next) > 0);
        }
        batch.push((produced, accepted));
        if batch.len() == REPORT_BATCH && !send_batch(report_tx, shard_id, batch) {
            break;
        }
    }
}

/// Sends the shard's queued reports, if any; `false` once the collector
/// has hung up.
fn send_batch(
    report_tx: &mpsc::Sender<Report>,
    shard_id: usize,
    batch: &mut Vec<(Produced, bool)>,
) -> bool {
    if batch.is_empty() {
        return true;
    }
    let work = Ok(std::mem::replace(batch, Vec::with_capacity(REPORT_BATCH)));
    report_tx.send(Report { shard_id, work }).is_ok()
}

/// A worker shard's message to the collector: a batch of iterations'
/// products, each with the verdict the shard already took, or — `Err` —
/// the shard's last gasp after dying outside the contained regions, so the
/// collector can abort with a diagnosable [`EngineError`].
struct Report {
    shard_id: usize,
    work: Result<Vec<(Produced, bool)>, String>,
}

/// A worker shard's thread body: builds the shard and runs its loop.
/// Mutation and VM startup contain their own panics; this outer
/// containment is the shard's last line of defence — an escaped panic
/// becomes a last-gasp report instead of a scope abort that loses the
/// whole campaign's progress. Returns `None` when the shard died.
fn run_shard(
    shared: &AsyncShared<'_>,
    config: &CampaignConfig,
    shard_id: usize,
    report_tx: &mpsc::Sender<Report>,
) -> Option<ShardOutcome> {
    let mut batch = Vec::with_capacity(REPORT_BATCH);
    let ran = run_contained(|| {
        if config.inject_shard_death == Some(shard_id) {
            panic!("injected shard death (containment self-test)");
        }
        let mut shard = Shard::new(config, shard_id);
        shard_loop(shared, &mut shard, shard_id, report_tx, &mut batch);
        shard.finish()
    });
    // What the shard queued before it finished or died reaches the ledger
    // ahead of any last gasp.
    send_batch(report_tx, shard_id, &mut batch);
    match ran {
        Ok(outcome) => Some(outcome),
        Err(detail) => {
            let _ = report_tx.send(Report {
                shard_id,
                work: Err(detail),
            });
            None
        }
    }
}

/// Joins every worker shard, collecting their outcomes (a default one for
/// a shard that died and already reported it). A shard that panicked past
/// even [`run_shard`]'s containment fails the campaign.
fn join_shards(
    handles: Vec<thread::ScopedJoinHandle<'_, Option<ShardOutcome>>>,
    ledger: &mut Ledger<'_>,
) -> Result<Vec<ShardOutcome>, EngineError> {
    let mut outcomes = Vec::with_capacity(handles.len());
    let mut error = None;
    for (shard_id, handle) in handles.into_iter().enumerate() {
        match handle.join() {
            Ok(outcome) => outcomes.push(outcome.unwrap_or_default()),
            Err(_) => {
                let message = "worker shard panicked past its containment".to_string();
                error.get_or_insert_with(|| ledger.engine_error(Some(shard_id), message));
            }
        }
    }
    error.map_or(Ok(outcomes), Err)
}

/// Runs one campaign across `num_shards` free-running worker threads.
///
/// Each shard owns its own RNG (seeded by [`super::shard_rng_seed`]), its
/// own reference VM, selector and pool replica; acceptance is decided
/// shard-side against shared state (see the module docs and DESIGN.md
/// §14). Shards claim iterations from one shared counter, so a stalled
/// shard's budget flows to its peers. At most `min(num_shards, budget)`
/// shards are spawned (and at least one): a shard beyond the budget could
/// never claim an iteration.
///
/// * `num_shards == 1` (or 0, treated as 1) is **bit-identical** to
///   [`super::run_campaign`] apart from the wall-clock field;
/// * with more shards the result is sound — every accepted candidate was
///   unique (or coverage-growing) against the suite at its acceptance —
///   but `gen_classes` lands in arrival order and the accepted set may
///   vary run to run.
///
/// The per-shard breakdown lands in [`CampaignResult::shard_stats`];
/// `mutator_stats` is the elementwise sum over shards. Contained faults
/// (panicking mutators, crashing VM runs) are *recorded*, not fatal — see
/// [`CampaignResult::crashes`].
///
/// The collector (the calling thread) drains the report channel as shards
/// stream results and records each through the same ledger as the
/// sequential engine, with the verdict its shard already decided.
///
/// # Errors
///
/// [`EngineError`] when a worker shard dies outside the contained regions
/// or the OS refuses a worker thread. A dying shard's last gasp raises the
/// stop flag so peers wind down instead of wedging; the error names the
/// shard, its recorded iterations and its last candidate.
pub fn run_campaign_parallel(
    seeds: &[IrClass],
    config: &CampaignConfig,
    num_shards: usize,
) -> Result<CampaignResult, EngineError> {
    let budget = campaign_budget(seeds, config);
    let num_shards = num_shards.min(budget).max(1);
    let mut ledger = Ledger::new(config, seeds.len(), num_shards);
    let acceptance = AsyncAcceptance::new(config.algorithm);
    let seed_pool = prepare_seed_pool(seeds, config);
    acceptance.seed(&seed_pool);
    let shared = AsyncShared {
        seeds,
        pool_version: AtomicU64::new(0),
        pool: RwLock::new(PoolState {
            version: 0,
            entries: Arc::new(seed_pool),
        }),
        acceptance,
        counters: AsyncCounters::default(),
        budget,
        next_iteration: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
    };

    let outcomes = thread::scope(|scope| {
        let (report_tx, report_rx) = mpsc::channel::<Report>();
        let shared = &shared;
        let mut engine_error = None;
        let mut handles = Vec::with_capacity(num_shards);
        for shard_id in 0..num_shards {
            let report_tx = report_tx.clone();
            let spawned = thread::Builder::new().spawn_scoped(scope, move || {
                run_shard(shared, config, shard_id, &report_tx)
            });
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    // The shards already running wind down through the
                    // stop flag; the collector below still drains them.
                    shared.stop.store(true, Ordering::Relaxed);
                    let message = format!("cannot spawn worker shard {shard_id}: {e}");
                    engine_error = Some(ledger.engine_error(None, message));
                    break;
                }
            }
        }
        drop(report_tx);

        // Collector: drain until every shard hangs up. Shards never wait
        // for the collector (sends are unbounded), so draining to
        // disconnect cannot wedge, even mid-failure.
        for Report { shard_id, work } in report_rx.iter() {
            match work {
                Ok(batch) => {
                    for (produced, accepted) in batch {
                        ledger.record(shard_id, produced, accepted);
                    }
                }
                Err(detail) => {
                    let message = format!("worker shard died outside containment: {detail}");
                    engine_error
                        .get_or_insert_with(|| ledger.engine_error(Some(shard_id), message));
                    // Free-running peers poll this each iteration; a dead
                    // shard must not leave them burning the rest of the
                    // budget on a campaign that will error out.
                    shared.stop.store(true, Ordering::Relaxed);
                }
            }
        }
        let joined = join_shards(handles, &mut ledger);
        engine_error.map_or(joined, Err)
    })?;

    // Each boundary is claimed by exactly one shard, so the campaign's
    // distillation telemetry is the sum over shards.
    let distill = outcomes
        .iter()
        .fold(DistillCounters::default(), |sum, o| DistillCounters {
            passes: sum.passes + o.distill.passes,
            evicted: sum.evicted + o.distill.evicted,
        });
    let telemetry = shared.acceptance.telemetry(&shared.counters);
    Ok(ledger.finish(telemetry, distill, outcomes))
}
