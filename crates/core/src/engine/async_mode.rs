//! The free-running asynchronous campaign engine (ROADMAP item 2).
//!
//! Shards run unsynchronized over shared acceptance state: accepted traces
//! are published into a global bitset by word-wise `AtomicU64::fetch_or`
//! ([`AtomicCoverage`]), the candidate pool lives behind an `RwLock` that
//! shards read opportunistically and append to under a short write lock,
//! and the iteration budget is a single `fetch_add` counter — no round
//! barrier, so the slowest candidate in flight never gates its peers.
//!
//! Determinism is deliberately scoped to the lockstep engine: with two or
//! more free-running shards the acceptance *order* depends on thread
//! interleaving, so `gen_classes` ordering and (for the uniqueness
//! criteria) the exact accepted set may vary run to run. What is invariant
//! is soundness: every accepted candidate was unique (or coverage-growing)
//! relative to the accepted set at its acceptance point, because the final
//! verdict is always taken under the index write lock (uniqueness) or
//! through the atomic-OR publication itself (greedy), where each bit's
//! 0→1 transition is observed by exactly one thread. A one-shard async run
//! replays the sequential campaign bit for bit — same RNG stream, same
//! pool contents at every pick, same acceptance sequence — which is what
//! the replay-with-lockstep workflow in the README leans on. See
//! DESIGN.md §14 for the full argument.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread;

use classfuzz_coverage::{AtomicCoverage, SuiteIndex, TraceFile, UniquenessCriterion};
use classfuzz_jimple::IrClass;
use classfuzz_mcmc::AcceptanceTelemetry;

use super::{
    campaign_budget, join_shards, prepare_seed_pool, run_shard, Algorithm, CampaignConfig,
    CampaignResult, DistillCounters, EngineError, Ledger, PoolEntry, Produced, Report, Shard,
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
    /// (all-zero for greedyfuzz/randfuzz, mirroring the lockstep engine).
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

/// One shard's free-running loop: claim an iteration, opportunistically
/// sync the pool replica, produce (the same `Shard::produce` as the other
/// engines), decide acceptance against the shared state, publish accepted
/// entries, and stream the result to the collector. Never blocks on a
/// peer: the only lock held across a decision is the index write lock,
/// and the mpsc send is unbounded.
fn shard_loop(
    shared: &AsyncShared<'_>,
    shard: &mut Shard,
    shard_id: usize,
    report_tx: &mpsc::Sender<Report<(Produced, bool)>>,
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
        // other engines' rule, so a one-shard async run prunes at exactly
        // the sequential engine's boundaries.
        if shard.distill_due(it + 1, shared.budget) {
            (pool, pool_version) = shared.update_pool(|next| shard.distill(next) > 0);
        }
        let work = Ok((produced, accepted));
        if report_tx.send(Report { shard_id, work }).is_err() {
            break;
        }
    }
}

/// Runs one campaign across `num_shards` free-running worker threads —
/// the [`super::Schedule::Async`] implementation behind
/// [`super::run_campaign_parallel`].
///
/// The collector (the calling thread) drains the report channel as shards
/// stream results and records each through the same ledger as the other
/// engines, with the verdict its shard already decided: `gen_classes`
/// lands in arrival order, and a dying shard's last gasp raises the stop flag
/// so peers wind down instead of wedging — then surfaces as a structured
/// [`EngineError`] naming the shard and its iteration count at death.
pub(super) fn run_campaign_async(
    seeds: &[IrClass],
    config: &CampaignConfig,
    num_shards: usize,
) -> Result<CampaignResult, EngineError> {
    let num_shards = num_shards.max(1);
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
        budget: campaign_budget(seeds, config),
        next_iteration: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
    };

    let outcomes = thread::scope(|scope| {
        let (report_tx, report_rx) = mpsc::channel::<Report<(Produced, bool)>>();
        let shared = &shared;
        let handles: Vec<_> = (0..num_shards)
            .map(|shard_id| {
                let report_tx = report_tx.clone();
                scope.spawn(move || {
                    run_shard(config, shard_id, &report_tx, |shard| {
                        shard_loop(shared, shard, shard_id, &report_tx);
                    })
                })
            })
            .collect();
        drop(report_tx);

        // Collector: drain until every shard hangs up. Shards never wait
        // for the collector (sends are unbounded), so draining to
        // disconnect cannot wedge, even mid-failure.
        let mut engine_error = None;
        for Report { shard_id, work } in report_rx.iter() {
            match work {
                Ok((produced, accepted)) => {
                    ledger.record(shard_id, produced, accepted);
                }
                Err(detail) => {
                    let round = ledger.shard_stats[shard_id].iterations;
                    let message = format!("worker shard died outside containment: {detail}");
                    engine_error
                        .get_or_insert_with(|| ledger.engine_error(Some(shard_id), round, message));
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
