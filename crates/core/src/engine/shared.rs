//! The shared state every campaign's shard loop runs over, the loop
//! itself, and the multi-threaded entry point [`run_campaign_parallel`].
//!
//! Everything the shards share that Algorithm 1 orders — the acceptance
//! state (suite index, accumulated coverage) and the candidate pool — sits
//! behind one `Mutex`. A shard takes it once per candidate: the decision,
//! the pool append and the shard's replica catch-up happen in one critical
//! section, so the accepted set is a serial history by construction. The
//! rest of an iteration (pick, mutate, lower, trace, record) runs
//! unlocked on the shard's own pool replica; the iteration budget is a
//! single `fetch_add` counter and the pool's version an atomic that
//! shards poll, so no round barrier lets the slowest candidate gate its
//! peers. Each shard records into its own ledger on its own thread,
//! exec-diff and crash persistence included; the ledgers are merged in
//! shard order once every shard has finished.
//!
//! Determinism is deliberately scoped to one shard: with two or more
//! free-running shards the acceptance *order* depends on thread
//! interleaving, so the exact accepted set (for the uniqueness criteria)
//! and each shard's share of the budget may vary run to run. What is
//! invariant is soundness: decisions are serialized, so every accepted
//! candidate was unique (or coverage-growing) relative to the accepted set
//! at its acceptance point. A one-shard parallel run replays
//! [`super::run_campaign`] bit for bit — same RNG stream, same pool
//! contents at every pick, same acceptance sequence. A multi-shard finding
//! is replayed from its persisted bytes, not from the campaign. See
//! DESIGN.md §14 for the full argument.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread;
use std::time::Instant;

use classfuzz_coverage::{GlobalCoverage, SuiteIndex, UniquenessCriterion};
use classfuzz_jimple::IrClass;
use classfuzz_mcmc::AcceptanceTelemetry;
use classfuzz_vm::run_contained;

use super::{
    campaign_budget, prepare_seed_pool, Algorithm, CampaignConfig, CampaignResult, Candidate,
    EngineError, Ledger, PoolEntry, Produced, Shard, ShardOutcome,
};

/// The acceptance state: the suite each candidate is judged against.
enum Acceptance {
    /// Uniqueness acceptance (classfuzz, uniquefuzz) against the accepted
    /// suite's index; its counters are the campaign's acceptance
    /// telemetry.
    Unique(SuiteIndex),
    /// Greedyfuzz: accept a trace that grows the suite's accumulated
    /// coverage.
    Greedy(GlobalCoverage),
    /// Randfuzz: accept everything.
    All,
}

impl Acceptance {
    fn new(algorithm: Algorithm) -> Acceptance {
        match algorithm {
            Algorithm::Classfuzz(criterion) => Acceptance::Unique(SuiteIndex::new(criterion)),
            Algorithm::Uniquefuzz => Acceptance::Unique(SuiteIndex::new(UniquenessCriterion::StBr)),
            Algorithm::Greedyfuzz => Acceptance::Greedy(GlobalCoverage::new()),
            Algorithm::Randfuzz => Acceptance::All,
        }
    }

    /// Algorithm 1 line 1 (TestClasses ← Seeds). Seed traces come from the
    /// pool cache — recorded once by [`prepare_seed_pool`], which always
    /// traces for the coverage-consulting algorithms this acts on.
    fn seed(&mut self, seed_pool: &[PoolEntry]) {
        for trace in seed_pool.iter().filter_map(|seed| seed.trace.as_deref()) {
            match self {
                Acceptance::Unique(index) => index.insert(trace),
                Acceptance::Greedy(global) => {
                    global.absorb(trace);
                }
                Acceptance::All => {}
            }
        }
    }

    /// Judges `cand` against the suite accepted so far, admitting it into
    /// the suite when it passes. `[tr]` probes with the fingerprint the
    /// shard computed, so the word arrays are not rehashed here.
    fn decide(&mut self, cand: &Candidate) -> bool {
        let trace = cand.trace.as_deref();
        match self {
            Acceptance::All => true,
            Acceptance::Greedy(global) => trace.is_some_and(|t| global.absorb(t)),
            Acceptance::Unique(index) => trace.is_some_and(|t| {
                let fp = cand.trace_fp.unwrap_or_else(|| t.fingerprint());
                index.insert_if_unique_with_fingerprint(t, fp)
            }),
        }
    }

    /// The index-side acceptance telemetry (all-zero for
    /// greedyfuzz/randfuzz, which consult no index).
    fn telemetry(&self) -> AcceptanceTelemetry {
        match self {
            Acceptance::Unique(index) => index.counters().into(),
            Acceptance::Greedy(_) | Acceptance::All => AcceptanceTelemetry::default(),
        }
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

/// What the one lock guards: the acceptance state and the pool it feeds.
struct State {
    acceptance: Acceptance,
    pool: SharedPool,
}

/// Everything the shards of one campaign share.
pub(super) struct Shared<'a> {
    pub(super) config: &'a CampaignConfig,
    pub(super) seeds: &'a [IrClass],
    /// The campaign clock, started before the seed pool is prepared.
    pub(super) start: Instant,
    state: Mutex<State>,
    /// `state.pool.version`, readable without the lock — shards poll this
    /// each iteration and only take the lock when there is news.
    pool_version: AtomicU64,
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

impl<'a> Shared<'a> {
    /// Starts the campaign clock, prepares the seed pool and seeds the
    /// acceptance state with it (Algorithm 1 line 1).
    pub(super) fn new(seeds: &'a [IrClass], config: &'a CampaignConfig) -> Shared<'a> {
        let start = Instant::now();
        let mut acceptance = Acceptance::new(config.algorithm);
        let seed_pool = prepare_seed_pool(seeds, config);
        acceptance.seed(&seed_pool);
        Shared {
            config,
            seeds,
            start,
            state: Mutex::new(State {
                acceptance,
                pool: SharedPool {
                    version: 0,
                    generation: 0,
                    entries: seed_pool,
                },
            }),
            pool_version: AtomicU64::new(0),
            budget: campaign_budget(seeds, config),
            next_iteration: AtomicUsize::new(0),
            next_crash: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // A panicking shard already fails the campaign through its own
        // containment; its poison bit must not cascade into every peer (same
        // policy as SiteUniverse).
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The acceptance telemetry, read back from the shared state.
    pub(super) fn telemetry(&self) -> AcceptanceTelemetry {
        self.lock().acceptance.telemetry()
    }

    /// Brings `replica` up to date, taking the lock only when the pool
    /// changed since.
    fn sync(&self, replica: &mut Replica) {
        if self.pool_version.load(Ordering::Acquire) != replica.version {
            replica.catch_up(&self.lock().pool);
        }
    }

    /// Bumps the pool version after a change, under the lock.
    fn bump_version(&self, pool: &mut SharedPool) {
        pool.version += 1;
        self.pool_version.store(pool.version, Ordering::Release);
    }

    /// Decides `produced` against the shared suite and, when it is
    /// accepted, appends its entry to the pool (line 14) and brings the
    /// accepting shard's replica up to date — all under one lock hold.
    fn accept(&self, produced: &Produced, replica: &mut Replica) -> bool {
        let Produced::Candidate(cand) = produced else {
            return false;
        };
        let mut state = self.lock();
        let state = &mut *state;
        if !state.acceptance.decide(cand) {
            return false;
        }
        state.pool.entries.push(cand.pool_entry());
        self.bump_version(&mut state.pool);
        replica.catch_up(&state.pool);
        true
    }

    /// One boundary distillation pass over the shared pool, in place; an
    /// eviction starts a new generation. The distilling shard's replica
    /// catches up under the same lock.
    fn distill(&self, shard: &mut Shard, replica: &mut Replica) {
        let mut state = self.lock();
        let pool = &mut state.pool;
        if shard.distill(&mut pool.entries) > 0 {
            pool.generation += 1;
            self.bump_version(pool);
        }
        replica.catch_up(pool);
    }
}

/// The campaign loop, one per shard: claim an iteration, sync the pool
/// replica, produce a candidate, decide it and publish an accepted entry
/// under the shared lock, record the iteration in the shard's ledger, and
/// distill at the boundaries. The lock is held only for the decision and
/// the pool update, never across `produce` or `record`.
pub(super) fn shard_loop(shared: &Shared<'_>, shard: &mut Shard, ledger: &mut Ledger<'_>) {
    let mut pool = Replica::default();
    pool.catch_up(&shared.lock().pool);
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
        let accepted = shared.accept(&produced, &mut pool);
        if accepted {
            shard.record_success();
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
    shared: &'a Shared<'a>,
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
    let shared = Shared::new(seeds, config);
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
