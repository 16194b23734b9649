//! The fuzzing campaigns: classfuzz (Algorithm 1) and the three comparison
//! algorithms of §3.1.2 — uniquefuzz, greedyfuzz, randfuzz.
//!
//! Every campaign runs one loop, the shard loop of Algorithm 1 (pick,
//! mutate, trace, accept, record), over acceptance and pool state shared
//! behind one lock, under which each decision and its pool update happen
//! together.
//! [`run_campaign`] runs one shard inline on the calling thread and is
//! deterministic; [`run_campaign_parallel`] runs one shard per worker
//! thread. A one-shard parallel run replays [`run_campaign`] bit for bit.
//! Multi-shard runs are sound but not replayable: their acceptance order
//! depends on thread interleaving — see DESIGN.md, "Parallel campaign
//! architecture".
//!
//! The loop is built from two private pieces: a `Shard` (mutator lineup,
//! RNG, selector, reference VM, scratch buffers) produces each iteration's
//! candidate, and the shard's own `Ledger` records it — crash records,
//! `GenClasses`, `TestClasses`, exec-diff. The shards' ledgers are merged
//! in shard order into the [`CampaignResult`].
//!
//! All campaigns are fault-contained (see DESIGN.md, "Fault containment"):
//! a panicking mutator becomes a recorded [`CrashRecord`] and the iteration
//! is skipped; a panicking VM run surfaces as a crash verdict on the
//! candidate (the VM layer contains its own panics); and a worker shard
//! dying outside those contained regions ends the campaign with a
//! diagnosable [`EngineError`] instead of a harness abort.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use classfuzz_coverage::{
    distill_keep_mask, greedy_max_cover_order, TraceFile, UniquenessCriterion,
};
use classfuzz_jimple::{
    lower::{lower_class_bytes, LowerScratch},
    IrClass,
};
use classfuzz_mcmc::{
    merge_stat_tables, AcceptanceTelemetry, MutatorChain, MutatorStats, UniformSelector,
};
use classfuzz_mutation::{registry, MutationCtx, Mutator};
use classfuzz_vm::{preparse, run_contained, Jvm, VmSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::diff::{DifferentialHarness, ExecDiscrepancy};

mod shared;

pub use shared::run_campaign_parallel;
use shared::{shard_loop, Shared};

/// How a parallel campaign schedules its worker shards. There is one
/// scheduler, the free-running async engine, so this selects nothing; it
/// stays only because the campaign benchmark names it, and goes with the
/// next change to that benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Free-running shards deciding acceptance under one shared lock —
    /// see [`run_campaign_parallel`].
    Async,
}

/// How the initial mutation pool is chosen from the generated seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeedSelect {
    /// Every seed enters the pool, uniformly weighted — the original
    /// behavior and the baseline every snapshot test pins.
    #[default]
    Uniform,
    /// Greedy max-cover over the seeds' startup-coverage bitsets: seeds are
    /// picked in order of marginal coverage gain (word-wise OR/popcount),
    /// zero-gain seeds are dropped, and the pick list is truncated to the
    /// pool cap when one is set. RNG-free, so selection is a deterministic
    /// function of the seed corpus.
    MaxCover,
}

impl fmt::Display for SeedSelect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SeedSelect::Uniform => "uniform",
            SeedSelect::MaxCover => "maxcover",
        })
    }
}

/// Which fuzzing algorithm a campaign runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Coverage-directed, MCMC mutator selection, uniqueness acceptance.
    Classfuzz(UniquenessCriterion),
    /// Uniqueness acceptance (always `[stbr]`, as in §3.1.2), uniform
    /// mutator selection.
    Uniquefuzz,
    /// Accept only mutants that increase accumulated coverage.
    Greedyfuzz,
    /// Accept everything; no coverage at all.
    Randfuzz,
}

impl Algorithm {
    /// Table-header label, e.g. `"classfuzz[stbr]"`.
    pub fn label(&self) -> String {
        match self {
            Algorithm::Classfuzz(c) => format!("classfuzz{c}"),
            Algorithm::Uniquefuzz => "uniquefuzz".to_string(),
            Algorithm::Greedyfuzz => "greedyfuzz".to_string(),
            Algorithm::Randfuzz => "randfuzz".to_string(),
        }
    }

    /// The six algorithm configurations evaluated in Table 4, in column
    /// order.
    pub fn table4_lineup() -> Vec<Algorithm> {
        vec![
            Algorithm::Classfuzz(UniquenessCriterion::StBr),
            Algorithm::Classfuzz(UniquenessCriterion::St),
            Algorithm::Classfuzz(UniquenessCriterion::Tr),
            Algorithm::Uniquefuzz,
            Algorithm::Greedyfuzz,
            Algorithm::Randfuzz,
        ]
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The algorithm to run.
    pub algorithm: Algorithm,
    /// Iteration budget (the paper used a 3-day wall clock; we use
    /// iterations for reproducibility).
    pub iterations: usize,
    /// Master RNG seed.
    pub rng_seed: u64,
    /// Geometric parameter for MCMC selection (ignored by the baselines).
    pub p: f64,
    /// Crash-corpus directory: when set, every [`CrashRecord`]'s offending
    /// classfile bytes (plus a `.txt` sidecar with the panic description)
    /// are persisted here as the campaign records them. Persistence is
    /// best-effort — I/O failures are reported to stderr, never fatal.
    pub crash_dir: Option<PathBuf>,
    /// Fault-injection self-test hook: append an always-panicking mutator
    /// (`Mutator::chaos_panic`) after the paper's 129. A campaign with this
    /// set must still run to its iteration budget, recording the injected
    /// panics as [`CrashRecord`]s.
    pub inject_panic_mutator: bool,
    /// Execution-phase differencing (`fuzz --exec-diff`): add the
    /// body-level execution mutators to the lineup and run every *accepted*
    /// candidate to completion on all five profiles, recording an
    /// [`ExecReport`] per acceptance. Off by default — the startup matrix
    /// and all its snapshots are bit-identical with this disabled.
    pub exec_diff: bool,
    /// Fault-injection self-test hook for [`run_campaign_parallel`]: the
    /// named worker shard panics *outside* the per-iteration containment
    /// before its setup, exercising the shard-death path without a mutator
    /// in the loop. [`run_campaign`], which runs its one shard inline with
    /// no containment wrapper, ignores it.
    pub inject_shard_death: Option<usize>,
    /// How the initial pool is chosen from the seeds (`--seed-select`).
    pub seed_select: SeedSelect,
    /// Live corpus-distillation cap (`--pool-cap`): when set, the pool is
    /// distilled at fixed iteration boundaries — entries whose coverage is
    /// subsumed by the union of the rest are evicted, then the
    /// smallest-coverage entries are dropped until the pool fits the cap.
    /// `None` (the default) restores the grow-only pool.
    pub pool_cap: Option<usize>,
}

impl CampaignConfig {
    /// A config with the paper's `p = 3/129` and the given budget.
    pub fn new(algorithm: Algorithm, iterations: usize, rng_seed: u64) -> CampaignConfig {
        CampaignConfig {
            algorithm,
            iterations,
            rng_seed,
            p: 3.0 / 129.0,
            crash_dir: None,
            inject_panic_mutator: false,
            exec_diff: false,
            inject_shard_death: None,
            seed_select: SeedSelect::default(),
            pool_cap: None,
        }
    }

    /// Kept for the campaign benchmark, which names it: [`Schedule`] has
    /// one variant, so this returns the config unchanged.
    pub fn with_schedule(self, _schedule: Schedule) -> CampaignConfig {
        self
    }

    /// Make the named shard die outside containment (parallel self-test).
    pub fn with_shard_death_injection(mut self, shard_id: usize) -> CampaignConfig {
        self.inject_shard_death = Some(shard_id);
        self
    }

    /// Persist crash-corpus entries under `dir`.
    pub fn with_crash_dir(mut self, dir: impl Into<PathBuf>) -> CampaignConfig {
        self.crash_dir = Some(dir.into());
        self
    }

    /// Enable the always-panicking chaos mutator (containment self-test).
    pub fn with_panic_injection(mut self) -> CampaignConfig {
        self.inject_panic_mutator = true;
        self
    }

    /// Enable execution-phase differencing of accepted candidates.
    pub fn with_exec_diff(mut self) -> CampaignConfig {
        self.exec_diff = true;
        self
    }

    /// Select the initial-pool strategy.
    pub fn with_seed_select(mut self, seed_select: SeedSelect) -> CampaignConfig {
        self.seed_select = seed_select;
        self
    }

    /// Enable live corpus distillation bounded by `cap` (distillation
    /// treats a cap of 0 as 1, so the pool can never distill to nothing).
    pub fn with_pool_cap(mut self, cap: usize) -> CampaignConfig {
        self.pool_cap = Some(cap);
        self
    }
}

/// One generated mutant.
///
/// The class and its bytes are `Arc`-shared with the mutation pool: an
/// accepted mutant enters the pool by reference count, not by clone, so
/// the accept path allocates nothing beyond the two `Arc` headers.
#[derive(Debug, Clone)]
pub struct GeneratedClass {
    /// The mutated IR class (after the `main` supplement).
    pub class: Arc<IrClass>,
    /// Its classfile bytes.
    pub bytes: Arc<Vec<u8>>,
    /// The mutator that produced it.
    pub mutator_id: usize,
    /// Whether it was accepted into `TestClasses`.
    pub accepted: bool,
}

/// One entry of the mutation pool: an IR class plus its lowered bytes,
/// cached so neither seeds nor accepted mutants are ever re-lowered on the
/// campaign hot path (the mutator-crash reproducer and the seed-acceptance
/// traces read the cache instead of recomputing `lower_class`).
#[derive(Debug, Clone)]
struct PoolEntry {
    class: Arc<IrClass>,
    bytes: Arc<Vec<u8>>,
    /// The entry's startup trace on the reference VM, recorded once —
    /// at seeding for seeds, at acceptance for mutants. `None` when the
    /// campaign never traces (randfuzz without a pool cap); distillation
    /// never evicts untraced entries.
    trace: Option<Arc<TraceFile>>,
}

impl PoolEntry {
    fn from_seed(seed: &IrClass, lower: &mut LowerScratch) -> PoolEntry {
        PoolEntry {
            class: Arc::new(seed.clone()),
            bytes: Arc::new(lower_class_bytes(seed, lower)),
            trace: None,
        }
    }
}

/// How often (in claimed iterations, counted across all shards) a capped
/// campaign distills its pool. Fixed so eviction points are a
/// deterministic function of the iteration count alone.
const DISTILL_INTERVAL: usize = 32;

/// Distills `pool` in place: evicts entries whose coverage is subsumed by
/// the union of the rest ([`distill_keep_mask`]), then — if still over
/// `cap` — drops the smallest-coverage entries (ties toward the oldest)
/// until the pool fits. Survivors keep their relative order, so a
/// one-shard parallel run distills the same pool to the same result as
/// [`run_campaign`]. Returns the eviction count.
fn distill_pool(pool: &mut Vec<PoolEntry>, cap: usize) -> usize {
    // `pool_cap` is a public field, so a cap of 0 can arrive here; the
    // pool must never distill to nothing, or the pick RNG has no range.
    let cap = cap.max(1);
    if pool.len() <= 1 {
        return 0;
    }
    let traces: Vec<Option<&TraceFile>> = pool.iter().map(|e| e.trace.as_deref()).collect();
    let mut keep = distill_keep_mask(&traces);
    if !keep.iter().any(|&k| k) {
        // All traces subsumed (e.g. every entry is empty-coverage): the
        // pool must never distill to nothing, or the pick RNG has no range.
        keep[0] = true;
    }
    let kept: Vec<usize> = (0..pool.len()).filter(|&i| keep[i]).collect();
    if kept.len() > cap {
        let mut by_size: Vec<(usize, usize)> = kept
            .iter()
            .map(|&i| {
                let size = pool[i].trace.as_ref().map_or(0, |t| {
                    let s = t.stats();
                    s.stmt + s.br
                });
                (size, i)
            })
            .collect();
        by_size.sort_unstable();
        for &(_, i) in by_size.iter().take(kept.len() - cap) {
            keep[i] = false;
        }
    }
    let before = pool.len();
    let mut flags = keep.iter();
    // The mask is one flag per entry by construction; a (impossible)
    // short mask degrades to keeping the tail rather than panicking.
    pool.retain(|_| flags.next().copied().unwrap_or(true));
    before - pool.len()
}

/// Distillation telemetry from one shard's boundary passes.
#[derive(Debug, Clone, Copy, Default)]
struct DistillCounters {
    passes: u64,
    evicted: u64,
}

/// Lowers each seed exactly once (through one shared scratch), optionally
/// tracing each seed's startup run, then applies the configured selection
/// strategy — producing the pool every shard starts from. Shards share
/// the entries by `Arc` handle instead of re-lowering per shard.
///
/// Traces are recorded whenever the algorithm consults coverage *or* the
/// seed-intelligence knobs need them (max-cover selection, distillation);
/// with every knob off and a non-tracing algorithm this is byte-identical
/// to the old untraced seeding.
fn prepare_seed_pool(seeds: &[IrClass], config: &CampaignConfig) -> Vec<PoolEntry> {
    let reference = Jvm::new(VmSpec::hotspot9());
    let mut scratch = TraceFile::new();
    let mut lower = LowerScratch::new();
    let want_traces = needs_trace(config.algorithm)
        || config.seed_select == SeedSelect::MaxCover
        || config.pool_cap.is_some();
    let mut entries: Vec<PoolEntry> = seeds
        .iter()
        .map(|s| {
            let mut entry = PoolEntry::from_seed(s, &mut lower);
            if want_traces {
                reference.run_traced_into(&entry.bytes, &mut scratch);
                entry.trace = Some(Arc::new(scratch.snapshot()));
            }
            entry
        })
        .collect();
    if config.seed_select == SeedSelect::MaxCover {
        let traces: Vec<Option<&TraceFile>> = entries.iter().map(|e| e.trace.as_deref()).collect();
        let order = greedy_max_cover_order(&traces, config.pool_cap.unwrap_or(usize::MAX));
        if !order.is_empty() {
            let mut taken: Vec<Option<PoolEntry>> = entries.into_iter().map(Some).collect();
            // Max-cover picks are unique, in-range indices by construction;
            // filter_map rather than index so a malformed order could only
            // shrink the pool, never panic a campaign.
            entries = order
                .iter()
                .filter_map(|&i| taken.get_mut(i)?.take())
                .collect();
        }
        // An empty pick list (every seed zero-coverage) falls back to the
        // full corpus rather than an unrunnable empty pool.
    }
    entries
}

/// Per-shard contribution to a campaign, reported in [`CampaignResult`].
///
/// [`run_campaign`] is a single shard 0; a parallel campaign has one entry
/// per worker shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// The shard's id (also its position in `CampaignResult::shard_stats`).
    pub shard_id: usize,
    /// Iterations this shard executed.
    pub iterations: usize,
    /// Classfiles this shard generated (iterations minus failed mutations).
    pub generated: usize,
    /// Of those, how many were accepted into `TestClasses`.
    pub accepted: usize,
}

/// Where in the pipeline a contained fault was caught.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSite {
    /// A mutator panicked while rewriting a class; the iteration was
    /// skipped and the mutation *input* preserved as the reproducer.
    Mutator {
        /// The panicking mutator's id.
        mutator_id: usize,
    },
    /// The reference VM panicked while tracing a candidate (the candidate
    /// itself carries the crash verdict and stays in `gen_classes`).
    ReferenceVm,
}

impl CrashSite {
    /// Short label used in crash-corpus filenames.
    pub fn label(&self) -> &'static str {
        match self {
            CrashSite::Mutator { .. } => "mutator",
            CrashSite::ReferenceVm => "vm",
        }
    }
}

/// One contained fault recorded during a campaign — the §3.3 "VM crashes
/// are bugs too" signal, applied to our own harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashRecord {
    /// The shard that hit the fault (0 for [`run_campaign`]).
    pub shard_id: usize,
    /// Which pipeline stage panicked.
    pub site: CrashSite,
    /// The offending classfile bytes: the mutation input for a mutator
    /// panic, the generated candidate for a reference-VM panic.
    pub bytes: Vec<u8>,
    /// The panic description (message + source location) — deterministic
    /// for a deterministic panic, so crash verdicts replay.
    pub detail: String,
}

/// An unrecoverable engine fault: a worker shard died *outside* the
/// contained regions (mutation and VM startup are panic-isolated), or the
/// OS refused a worker thread. Diagnosable, unlike the panic it replaces:
/// it names the shard, how far it got, and the last classfile that shard
/// generated.
#[derive(Debug, Clone)]
pub struct EngineError {
    /// The failing shard, when attributable.
    pub shard_id: Option<usize>,
    /// The iterations the failing shard's ledger had recorded (summed over
    /// the shards that finished when no shard is attributable).
    pub iterations: usize,
    /// Bytes of the last classfile the failing shard generated, if any —
    /// the prime suspect for reproducing the fault.
    pub last_candidate: Option<Vec<u8>>,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.shard_id {
            Some(id) => write!(f, "shard {id} failed")?,
            None => write!(f, "engine failed")?,
        }
        write!(f, " after {} iterations: {}", self.iterations, self.message)?;
        match &self.last_candidate {
            Some(bytes) => write!(f, " (last candidate: {} bytes)", bytes.len()),
            None => write!(f, " (no candidate generated yet)"),
        }
    }
}

impl std::error::Error for EngineError {}

/// One accepted candidate's execution-differencing record (`--exec-diff`):
/// the startup phase key, the execution-verdict key, and the discrepancy
/// classification when the verdicts disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecReport {
    /// Index of the candidate in [`CampaignResult::gen_classes`].
    pub gen_index: usize,
    /// The five startup phase digits, e.g. `"44444"`.
    pub startup_key: String,
    /// The `|`-joined execution verdict tokens
    /// (see `OutcomeVector::exec_key`).
    pub exec_key: String,
    /// The discrepancy class, `None` when every profile agrees.
    pub taxonomy: Option<ExecDiscrepancy>,
}

impl ExecReport {
    /// Whether this is a *pure* execution-phase discrepancy — one the
    /// startup matrix cannot distinguish (uniform digits, divergent
    /// verdicts).
    pub fn is_exec_discrepancy(&self) -> bool {
        !matches!(self.taxonomy, None | Some(ExecDiscrepancy::StartupPhase))
    }
}

/// The outcome of a whole campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The algorithm that ran.
    pub algorithm: Algorithm,
    /// Iterations consumed.
    pub iterations: usize,
    /// Every generated mutant (`GenClasses`): in generation order at one
    /// shard, shard-major above one shard (each shard's classes in its own
    /// generation order, shard 0 first).
    pub gen_classes: Vec<GeneratedClass>,
    /// Indices into `gen_classes` of accepted mutants (`TestClasses`,
    /// seeds already excluded per Algorithm 1 line 19), strictly
    /// increasing.
    pub test_classes: Vec<usize>,
    /// Per-mutator selection/success statistics (Figure 4 data), summed
    /// across shards.
    pub mutator_stats: Vec<MutatorStats>,
    /// Wall-clock duration of the campaign.
    pub elapsed: Duration,
    /// Number of seeds the campaign started from.
    pub seed_count: usize,
    /// Per-shard breakdown, in shard order (one entry for [`run_campaign`]).
    pub shard_stats: Vec<ShardStats>,
    /// Contained faults, in crash-corpus index order: `crashes[i]` is
    /// persisted as `crash_{i:04}` in a fresh crash directory. At one shard
    /// this is iteration order.
    pub crashes: Vec<CrashRecord>,
    /// Acceptance hot-path telemetry (offers, acceptances, `[tr]`
    /// fingerprint fast-path rate). All-zero for randfuzz and greedyfuzz,
    /// which never consult a uniqueness index.
    pub acceptance: AcceptanceTelemetry,
    /// Per-accepted-candidate execution differencing records, in
    /// `test_classes` order. Empty unless [`CampaignConfig::exec_diff`] is
    /// set.
    pub exec_reports: Vec<ExecReport>,
}

impl CampaignResult {
    /// `succ(X) = |TestClasses| / #iterations` (§3.1.3).
    pub fn success_rate(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.test_classes.len() as f64 / self.iterations as f64
        }
    }

    /// Bytes of every generated class.
    pub fn gen_bytes(&self) -> Vec<Vec<u8>> {
        self.gen_classes
            .iter()
            .map(|g| g.bytes.as_ref().clone())
            .collect()
    }

    /// Bytes of the accepted test classes.
    pub fn test_bytes(&self) -> Vec<Vec<u8>> {
        self.test_classes
            .iter()
            .map(|&i| self.gen_classes[i].bytes.as_ref().clone())
            .collect()
    }

    /// Average seconds spent per generated class (Table 4 row 5 analogue).
    pub fn secs_per_generated(&self) -> f64 {
        if self.gen_classes.is_empty() {
            0.0
        } else {
            self.elapsed.as_secs_f64() / self.gen_classes.len() as f64
        }
    }

    /// Average seconds spent per accepted test class (Table 4 row 6).
    pub fn secs_per_test(&self) -> f64 {
        if self.test_classes.is_empty() {
            0.0
        } else {
            self.elapsed.as_secs_f64() / self.test_classes.len() as f64
        }
    }
}

enum Selector {
    Chain(MutatorChain),
    Uniform(UniformSelector),
}

impl Selector {
    fn select(&mut self, rng: &mut StdRng) -> usize {
        match self {
            Selector::Chain(c) => c.select(rng),
            Selector::Uniform(u) => u.select(rng),
        }
    }

    fn record_success(&mut self, id: usize) {
        match self {
            Selector::Chain(c) => c.record_success(id),
            Selector::Uniform(u) => u.record_success(id),
        }
    }

    fn stats(&self) -> Vec<MutatorStats> {
        match self {
            Selector::Chain(c) => c.all_stats().to_vec(),
            Selector::Uniform(u) => u.all_stats().to_vec(),
        }
    }
}

/// The campaign's mutator lineup: the paper's 129, plus the execution-phase
/// body rewrites when `--exec-diff` is on, plus the chaos mutator when the
/// config injects panics. Ids are assigned in that order — the MCMC chain
/// and stats tables simply grow by the extra slots, and chaos (whose tests
/// assume it is last) stays last.
fn campaign_mutators(config: &CampaignConfig) -> Vec<Mutator> {
    let mut mutators = registry::all_mutators();
    if config.exec_diff {
        mutators.extend(registry::exec_mutators(mutators.len()));
    }
    if config.inject_panic_mutator {
        let id = mutators.len();
        mutators.push(Mutator::chaos_panic(id));
    }
    mutators
}

/// Collision-safe corpus write: claims `{prefix}_{NNNN}_{tag}.class` in
/// `dir` with `create_new`, starting at `index` and bumping past files left
/// by earlier runs, so re-running a campaign into a populated directory
/// appends instead of overwriting; in a fresh directory the claimed index
/// is `index` itself. Returns the path it claimed (on failure, the one it
/// last tried) and whether `bytes` landed there.
pub fn write_corpus_entry(
    dir: &Path,
    prefix: &str,
    index: usize,
    tag: &str,
    bytes: &[u8],
) -> (PathBuf, std::io::Result<()>) {
    use std::io::Write as _;
    let mut idx = index;
    loop {
        let file = dir.join(format!("{prefix}_{idx:04}_{tag}.class"));
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&file)
        {
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => idx += 1,
            opened => return (file, opened.and_then(|mut f| f.write_all(bytes))),
        }
    }
}

/// Best-effort crash-corpus write: `crash_NNNN_<site>.class` holds the
/// offending bytes ([`write_corpus_entry`]), the matching `.txt` the panic
/// description. Failures go to stderr — losing a corpus entry must never
/// lose the campaign.
fn persist_crash(dir: &Path, index: usize, record: &CrashRecord) {
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let (file, written) =
            write_corpus_entry(dir, "crash", index, record.site.label(), &record.bytes);
        written?;
        let sidecar = format!(
            "shard: {}\nsite: {}\ndetail: {}\n",
            record.shard_id,
            record.site.label(),
            record.detail
        );
        std::fs::write(file.with_extension("txt"), sidecar)
    };
    if let Err(e) = write() {
        eprintln!(
            "warning: cannot persist crash_{index:04}_{} to {}: {e}",
            record.site.label(),
            dir.display()
        );
    }
}

/// Differences one accepted candidate's execution verdicts across the five
/// profiles. Runs plain (no coverage, no tracing) and draws no RNG, so
/// enabling `--exec-diff` perturbs neither the candidate stream nor the
/// one-shard replay guarantee — it only appends to `exec_reports`. Runs on
/// the accepting shard's own thread.
fn diff_execution(harness: &DifferentialHarness, gen_index: usize, bytes: &[u8]) -> ExecReport {
    let vector = harness.run(bytes);
    ExecReport {
        gen_index,
        startup_key: vector.key(),
        exec_key: vector.exec_key(),
        taxonomy: vector.classify_exec(),
    }
}

/// One iteration's shard-local product: a lowered mutant plus (when the
/// algorithm consults coverage) its reference-VM trace. Class, bytes and
/// trace are `Arc`-shared, so one allocation serves `gen_classes` and the
/// published pool entry.
struct Candidate {
    class: Arc<IrClass>,
    bytes: Arc<Vec<u8>>,
    mutator_id: usize,
    trace: Option<Arc<TraceFile>>,
    /// `trace.fingerprint()`, computed shard-side so the `[tr]` acceptance
    /// probe never rehashes the word arrays.
    trace_fp: Option<u64>,
    /// The reference VM's panic description, when tracing this candidate
    /// crashed it (the trace is then the deterministic partial trace).
    vm_crash: Option<String>,
}

impl Candidate {
    /// The pool entry this candidate becomes once accepted (line 14).
    fn pool_entry(&self) -> PoolEntry {
        PoolEntry {
            class: Arc::clone(&self.class),
            bytes: Arc::clone(&self.bytes),
            trace: self.trace.clone(),
        }
    }
}

/// What one iteration's shard-local half produced — what the shard loop
/// records through [`Ledger::record`].
enum Produced {
    /// A lowered mutant, ready for the acceptance decision.
    Candidate(Candidate),
    /// The mutation was not applicable; the iteration is consumed but no
    /// classfile is generated (§3.2's "classfiles are not generated during
    /// some iterations").
    NotApplicable,
    /// The mutator panicked; the iteration is consumed, the half-mutated
    /// class discarded, and the *input* preserved as the reproducer.
    MutatorCrash {
        mutator_id: usize,
        input_bytes: Vec<u8>,
        detail: String,
    },
}

/// One shard's working set: everything the shard-local half of an
/// iteration reads or writes. [`run_campaign`] drives one inline; each
/// worker thread of [`run_campaign_parallel`] builds its own.
struct Shard {
    mutators: Vec<Mutator>,
    rng: StdRng,
    selector: Selector,
    /// The reference VM for the traced run; `None` for the algorithm that
    /// never consults coverage (randfuzz).
    reference: Option<Jvm>,
    /// Reusable trace and lowering buffers: one allocation each for the
    /// whole campaign, cleared before each use.
    scratch: TraceFile,
    lower: LowerScratch,
    /// The mutator the latest [`Shard::produce`] selected — the one
    /// [`Shard::record_success`] credits.
    last_mutator: usize,
    pool_cap: Option<usize>,
    distill: DistillCounters,
}

impl Shard {
    /// Shard `shard_id`'s working set, its RNG seeded by
    /// [`shard_rng_seed`] — shard 0 uses the campaign seed, which is what
    /// makes a one-shard parallel run replay [`run_campaign`]'s stream.
    fn new(config: &CampaignConfig, shard_id: usize) -> Shard {
        let mutators = campaign_mutators(config);
        let selector = match config.algorithm {
            Algorithm::Classfuzz(_) => Selector::Chain(MutatorChain::new(mutators.len(), config.p)),
            _ => Selector::Uniform(UniformSelector::new(mutators.len())),
        };
        Shard {
            mutators,
            rng: StdRng::seed_from_u64(shard_rng_seed(config.rng_seed, shard_id)),
            selector,
            reference: needs_trace(config.algorithm).then(|| Jvm::new(VmSpec::hotspot9())),
            scratch: TraceFile::new(),
            lower: LowerScratch::new(),
            last_mutator: 0,
            pool_cap: config.pool_cap,
            distill: DistillCounters::default(),
        }
    }

    /// Runs the shard-local half of one iteration: pool pick, mutator
    /// selection, mutation (panic-contained), `main` supplement, lowering,
    /// and (for the coverage-guided algorithms) the traced reference run —
    /// itself panic-contained inside the VM layer, so a crashing candidate
    /// comes back with a crash verdict rather than unwinding.
    ///
    /// The RNG call order here (pool pick, selection, mutation) is the
    /// campaign's replay contract; the one shard loop calls this one
    /// method, so a one-shard parallel run replays [`run_campaign`]'s
    /// stream exactly. A panicking mutator consumes exactly the RNG draws it made
    /// before dying — deterministic, because the panic point is a function
    /// of the inputs.
    fn produce(&mut self, pool: &[PoolEntry], seeds: &[IrClass]) -> Produced {
        let pick = self.rng.gen_range(0..pool.len());
        let mutator_id = self.selector.select(&mut self.rng);
        self.last_mutator = mutator_id;
        // Copy-on-write: members stay shared with the pool entry until the
        // mutator writes one, so this clone is a refcount bump per member.
        let mut mutant = IrClass::clone(&pool[pick].class);
        let applied = run_contained(|| {
            let mut ctx = MutationCtx::new(&mut self.rng, seeds);
            self.mutators[mutator_id].apply(&mut mutant, &mut ctx)
        });
        match applied {
            Err(detail) => {
                // The reproducer is the mutation *input*, whose lowered
                // bytes the pool already caches — no re-lowering on the
                // crash path.
                return Produced::MutatorCrash {
                    mutator_id,
                    input_bytes: pool[pick].bytes.as_ref().clone(),
                    detail,
                };
            }
            Ok(Err(_)) => return Produced::NotApplicable,
            Ok(Ok(())) => {}
        }
        // §2.2.1: supplement each mutant with a message-printing main.
        mutant.ensure_main("Completed!");
        // Scratch lowering: byte-identical to `lower_class(..).to_bytes()`,
        // but the pool, descriptor memo, and body buffer are reused across
        // this shard's iterations.
        let bytes = lower_class_bytes(&mutant, &mut self.lower);
        let (trace, trace_fp, vm_crash) = match &self.reference {
            Some(jvm) => {
                // The candidate's bytes are decoded exactly once here; the
                // traced run records into the reusable scratch bitmap — no
                // per-iteration trace allocation. The candidate ships a
                // trimmed snapshot plus its precomputed fingerprint.
                let parsed = preparse(&bytes);
                let result = jvm.run_traced_into_parsed(&parsed, &mut self.scratch);
                let crash = result.outcome.crash_detail().map(str::to_string);
                let snapshot = Arc::new(self.scratch.snapshot());
                (Some(snapshot), Some(self.scratch.fingerprint()), crash)
            }
            None => (None, None, None),
        };
        Produced::Candidate(Candidate {
            class: Arc::new(mutant),
            bytes: Arc::new(bytes),
            mutator_id,
            trace,
            trace_fp,
            vm_crash,
        })
    }

    /// Credits the mutator of this shard's latest candidate with an
    /// acceptance (the selector's success bookkeeping).
    fn record_success(&mut self) {
        self.selector.record_success(self.last_mutator);
    }

    /// Whether a capped campaign distills after `completed` of `budget`
    /// iterations: after every DISTILL_INTERVAL-th, skipping the no-op pass
    /// after the last. A function of the shared iteration count alone, so
    /// a one-shard parallel run distills at [`run_campaign`]'s points
    /// (between iterations, before the next pick).
    fn distill_due(&self, completed: usize, budget: usize) -> bool {
        self.pool_cap.is_some() && completed.is_multiple_of(DISTILL_INTERVAL) && completed < budget
    }

    /// One distillation pass over `pool`; returns the eviction count.
    fn distill(&mut self, pool: &mut Vec<PoolEntry>) -> usize {
        let evicted = distill_pool(pool, self.pool_cap.unwrap_or(usize::MAX));
        self.distill.passes += 1;
        self.distill.evicted += evicted as u64;
        evicted
    }

    fn finish(self) -> ShardOutcome {
        ShardOutcome {
            stats: self.selector.stats(),
            distill: self.distill,
        }
    }
}

/// What a shard hands back when its loop finishes: the selector's stats
/// table plus its distillation telemetry.
struct ShardOutcome {
    stats: Vec<MutatorStats>,
    distill: DistillCounters,
}

/// The recording half of one shard: everything its iterations add to the
/// result, in its own iteration order. The shard records into it as it
/// goes — crash persistence and exec-diff included — and the campaign
/// merges the shards' ledgers in shard order ([`Ledger::merge`]) before
/// assembling the [`CampaignResult`] ([`Ledger::finish`]).
struct Ledger<'a> {
    shared: &'a Shared<'a>,
    gen_classes: Vec<GeneratedClass>,
    test_classes: Vec<usize>,
    /// Crash records with their crash-corpus index, drawn from the shared
    /// counter so indices are unique across shards.
    crashes: Vec<(usize, CrashRecord)>,
    exec_reports: Vec<ExecReport>,
    /// This ledger's shard first, then the shards merged into it.
    shard_stats: Vec<ShardStats>,
    /// The shard's last generated classfile — attached to an EngineError
    /// as the prime suspect when the shard dies. An `Arc` handle: recording
    /// the suspect costs a refcount bump per candidate, not a byte copy.
    last_bytes: Option<Arc<Vec<u8>>>,
    exec_harness: Option<DifferentialHarness>,
}

impl<'a> Ledger<'a> {
    /// An empty ledger for shard `shard_id`.
    fn new(shared: &'a Shared<'a>, shard_id: usize) -> Ledger<'a> {
        Ledger {
            shared,
            gen_classes: Vec::new(),
            test_classes: Vec::new(),
            crashes: Vec::new(),
            exec_reports: Vec::new(),
            shard_stats: vec![ShardStats {
                shard_id,
                iterations: 0,
                generated: 0,
                accepted: 0,
            }],
            last_bytes: None,
            exec_harness: shared
                .config
                .exec_diff
                .then(DifferentialHarness::paper_five),
        }
    }

    /// Records one iteration, whose candidate (if any) was judged
    /// `accepted`: its crash records, then its `GenClasses` entry and, when
    /// accepted, its `TestClasses` index and exec-diff report.
    fn record(&mut self, produced: Produced, accepted: bool) {
        self.shard_stats[0].iterations += 1;
        let cand = match produced {
            Produced::NotApplicable => return,
            Produced::MutatorCrash {
                mutator_id,
                input_bytes,
                detail,
            } => {
                self.record_crash(CrashSite::Mutator { mutator_id }, input_bytes, detail);
                return;
            }
            Produced::Candidate(cand) => cand,
        };
        if let Some(detail) = cand.vm_crash {
            let bytes = cand.bytes.as_ref().clone();
            self.record_crash(CrashSite::ReferenceVm, bytes, detail);
        }
        let gen_index = self.gen_classes.len();
        self.shard_stats[0].generated += 1;
        if accepted {
            self.test_classes.push(gen_index);
            self.shard_stats[0].accepted += 1;
            if let Some(harness) = &self.exec_harness {
                self.exec_reports
                    .push(diff_execution(harness, gen_index, &cand.bytes));
            }
        }
        self.last_bytes = Some(Arc::clone(&cand.bytes));
        self.gen_classes.push(GeneratedClass {
            class: cand.class,
            bytes: cand.bytes,
            mutator_id: cand.mutator_id,
            accepted,
        });
    }

    /// Appends a crash record, persisting it to the crash corpus first
    /// under the next index of the campaign-wide crash counter.
    fn record_crash(&mut self, site: CrashSite, bytes: Vec<u8>, detail: String) {
        let record = CrashRecord {
            shard_id: self.shard_stats[0].shard_id,
            site,
            bytes,
            detail,
        };
        let index = self.shared.next_crash.fetch_add(1, Ordering::Relaxed);
        if let Some(dir) = &self.shared.config.crash_dir {
            persist_crash(dir, index, &record);
        }
        self.crashes.push((index, record));
    }

    /// Folds a later shard's ledger into this one. `other`'s classes go
    /// after this ledger's, so `gen_classes` comes out shard-major, and
    /// its `test_classes` and `ExecReport::gen_index` are re-based past
    /// them, so `test_classes` stays strictly increasing.
    fn merge(&mut self, other: Ledger<'a>) {
        let base = self.gen_classes.len();
        self.gen_classes.extend(other.gen_classes);
        self.test_classes
            .extend(other.test_classes.into_iter().map(|i| base + i));
        self.exec_reports
            .extend(other.exec_reports.into_iter().map(|report| ExecReport {
                gen_index: base + report.gen_index,
                ..report
            }));
        self.crashes.extend(other.crashes);
        self.shard_stats.extend(other.shard_stats);
    }

    /// The failure of this ledger's shard — carrying its recorded
    /// iteration count and its last generated classfile as the prime
    /// suspect.
    fn engine_error(self, message: String) -> EngineError {
        let stats = self.shard_stats[0];
        EngineError {
            shard_id: Some(stats.shard_id),
            iterations: stats.iterations,
            last_candidate: self.last_bytes.map(|b| b.as_ref().clone()),
            message,
        }
    }

    /// Assembles the campaign result from the merged ledger — the one
    /// place any campaign builds it, the degenerate (no seeds, no budget)
    /// campaign included. Crash records are put in corpus-index order, the
    /// shards' selector tables are summed elementwise, and distillation and
    /// exec-diff tallies are folded into the shared acceptance telemetry.
    fn finish(mut self, outcomes: Vec<ShardOutcome>) -> CampaignResult {
        let shared = self.shared;
        let mut telemetry = shared.telemetry();
        for outcome in &outcomes {
            // Each boundary is claimed by exactly one shard, so the
            // campaign's distillation telemetry is the sum over shards.
            telemetry.distill_passes += outcome.distill.passes;
            telemetry.distill_evicted += outcome.distill.evicted;
        }
        telemetry.exec_runs = self.exec_reports.len() as u64;
        telemetry.exec_discrepancies = self
            .exec_reports
            .iter()
            .filter(|r| r.is_exec_discrepancy())
            .count() as u64;
        self.crashes.sort_unstable_by_key(|&(index, _)| index);
        let tables: Vec<Vec<MutatorStats>> = outcomes.into_iter().map(|o| o.stats).collect();
        CampaignResult {
            algorithm: shared.config.algorithm,
            iterations: shared.config.iterations,
            gen_classes: self.gen_classes,
            test_classes: self.test_classes,
            mutator_stats: merge_stat_tables(&tables),
            elapsed: shared.start.elapsed(),
            seed_count: shared.seeds.len(),
            shard_stats: self.shard_stats,
            crashes: self.crashes.into_iter().map(|(_, record)| record).collect(),
            acceptance: telemetry,
            exec_reports: self.exec_reports,
        }
    }
}

/// Whether `algorithm` needs the traced reference run at all (randfuzz is
/// the one algorithm that never consults coverage).
fn needs_trace(algorithm: Algorithm) -> bool {
    !matches!(algorithm, Algorithm::Randfuzz)
}

/// The iterations a campaign actually runs: its budget, or none without
/// seeds — an empty pool has nothing to pick from, so the shard loop runs
/// empty instead of special-casing the degenerate campaign.
fn campaign_budget(seeds: &[IrClass], config: &CampaignConfig) -> usize {
    if seeds.is_empty() {
        0
    } else {
        config.iterations
    }
}

/// Runs one campaign over `seeds` — Algorithm 1 for classfuzz, the
/// §3.1.2 variants otherwise — as a single shard driven inline on the
/// calling thread: no worker thread, no containment wrapper.
///
/// Deterministic for a fixed `CampaignConfig` (wall-clock fields aside).
pub fn run_campaign(seeds: &[IrClass], config: &CampaignConfig) -> CampaignResult {
    let shared = Shared::new(seeds, config);
    let mut ledger = Ledger::new(&shared, 0);
    let mut shard = Shard::new(config, 0);
    shard_loop(&shared, &mut shard, &mut ledger);
    ledger.finish(vec![shard.finish()])
}

/// The RNG seed of worker shard `shard_id` in a parallel campaign.
///
/// Shard 0 uses the campaign seed unchanged, which is what makes a
/// one-shard parallel run bit-identical to [`run_campaign`]; later shards
/// decorrelate through the 64-bit golden-ratio increment (the SplitMix64
/// stream constant).
pub fn shard_rng_seed(rng_seed: u64, shard_id: usize) -> u64 {
    rng_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(shard_id as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeds::SeedCorpus;

    fn small_seeds() -> Vec<IrClass> {
        SeedCorpus::generate(12, 21).into_classes()
    }

    #[test]
    fn randfuzz_accepts_everything() {
        let seeds = small_seeds();
        let cfg = CampaignConfig::new(Algorithm::Randfuzz, 60, 1);
        let result = run_campaign(&seeds, &cfg);
        assert_eq!(result.test_classes.len(), result.gen_classes.len());
        assert!(
            result.success_rate() > 0.5,
            "most iterations should generate"
        );
    }

    #[test]
    fn classfuzz_rejects_coverage_duplicates() {
        let seeds = small_seeds();
        let cfg = CampaignConfig::new(Algorithm::Classfuzz(UniquenessCriterion::StBr), 120, 2);
        let result = run_campaign(&seeds, &cfg);
        assert!(
            result.test_classes.len() < result.gen_classes.len(),
            "uniqueness must reject some mutants"
        );
        assert!(
            !result.test_classes.is_empty(),
            "some mutants must be representative"
        );
    }

    #[test]
    fn greedy_accepts_fewest() {
        let seeds = small_seeds();
        let unique = run_campaign(&seeds, &CampaignConfig::new(Algorithm::Uniquefuzz, 150, 3));
        let greedy = run_campaign(&seeds, &CampaignConfig::new(Algorithm::Greedyfuzz, 150, 3));
        assert!(
            greedy.test_classes.len() < unique.test_classes.len(),
            "greedy ({}) should accept fewer than unique ({})",
            greedy.test_classes.len(),
            unique.test_classes.len()
        );
    }

    #[test]
    fn campaigns_are_deterministic_mod_timing() {
        let seeds = small_seeds();
        let cfg = CampaignConfig::new(Algorithm::Classfuzz(UniquenessCriterion::StBr), 80, 7);
        let a = run_campaign(&seeds, &cfg);
        let b = run_campaign(&seeds, &cfg);
        assert_eq!(a.test_classes, b.test_classes);
        assert_eq!(a.gen_classes.len(), b.gen_classes.len());
        assert_eq!(
            a.gen_classes.iter().map(|g| &g.bytes).collect::<Vec<_>>(),
            b.gen_classes.iter().map(|g| &g.bytes).collect::<Vec<_>>()
        );
    }

    #[test]
    fn mcmc_stats_track_successes() {
        let seeds = small_seeds();
        let cfg = CampaignConfig::new(Algorithm::Classfuzz(UniquenessCriterion::StBr), 100, 11);
        let result = run_campaign(&seeds, &cfg);
        let total_selected: u64 = result.mutator_stats.iter().map(|s| s.selected).sum();
        let total_successes: u64 = result.mutator_stats.iter().map(|s| s.successes).sum();
        assert_eq!(total_selected as usize, result.iterations);
        assert_eq!(total_successes as usize, result.test_classes.len());
    }

    #[test]
    fn acceptance_telemetry_reflects_campaign() {
        let seeds = small_seeds();
        let cfg = CampaignConfig::new(Algorithm::Classfuzz(UniquenessCriterion::Tr), 100, 13);
        let result = run_campaign(&seeds, &cfg);
        let tel = result.acceptance;
        // Seed insertion bypasses insert_if_unique, so offers count only
        // the generated candidates that had a trace.
        assert_eq!(tel.offered as usize, result.gen_classes.len());
        assert_eq!(tel.accepted as usize, result.test_classes.len());
        assert_eq!(
            tel.fingerprint_fast_path + tel.word_compare_fallbacks,
            tel.offered,
            "[tr] must consult the fingerprint table on every offer"
        );
        // Randfuzz never consults the index.
        let rand = run_campaign(&seeds, &CampaignConfig::new(Algorithm::Randfuzz, 40, 13));
        assert_eq!(rand.acceptance, AcceptanceTelemetry::default());
    }

    #[test]
    fn clean_campaigns_record_no_crashes() {
        let seeds = small_seeds();
        let cfg = CampaignConfig::new(Algorithm::Randfuzz, 40, 5);
        let result = run_campaign(&seeds, &cfg);
        assert!(result.crashes.is_empty());
    }

    #[test]
    fn chaos_mutator_crashes_are_contained_and_recorded() {
        let seeds = small_seeds();
        let cfg = CampaignConfig::new(Algorithm::Randfuzz, 60, 5).with_panic_injection();
        // The campaign must run to its full budget despite the panicking
        // mutator being in the rotation.
        let result = run_campaign(&seeds, &cfg);
        assert_eq!(result.iterations, 60);
        assert!(
            !result.crashes.is_empty(),
            "60 uniform draws over 130 mutators should hit the chaos mutator"
        );
        let chaos_id = campaign_mutators(&cfg).len() - 1;
        for crash in &result.crashes {
            assert_eq!(crash.shard_id, 0);
            assert_eq!(
                crash.site,
                CrashSite::Mutator {
                    mutator_id: chaos_id
                }
            );
            assert!(
                crash.detail.contains("chaos mutator"),
                "detail: {}",
                crash.detail
            );
            assert!(
                classfuzz_classfile::ClassFile::from_bytes(&crash.bytes).is_ok(),
                "the pre-mutation reproducer must be a decodable classfile"
            );
        }
        // Crashed iterations are consumed: selections still add up.
        let total_selected: u64 = result.mutator_stats.iter().map(|s| s.selected).sum();
        assert_eq!(total_selected as usize, result.iterations);
    }

    #[test]
    fn chaos_campaigns_are_deterministic() {
        let seeds = small_seeds();
        let cfg = CampaignConfig::new(Algorithm::Randfuzz, 50, 9).with_panic_injection();
        let a = run_campaign(&seeds, &cfg);
        let b = run_campaign(&seeds, &cfg);
        assert_eq!(a.crashes, b.crashes);
        assert_eq!(
            a.gen_classes.iter().map(|g| &g.bytes).collect::<Vec<_>>(),
            b.gen_classes.iter().map(|g| &g.bytes).collect::<Vec<_>>()
        );
    }

    #[test]
    fn crash_dir_receives_reproducers() {
        let dir = std::env::temp_dir().join(format!("classfuzz_crash_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp crash dir");
        let seeds = small_seeds();
        let cfg = CampaignConfig::new(Algorithm::Randfuzz, 60, 5)
            .with_panic_injection()
            .with_crash_dir(dir.clone());
        let result = run_campaign(&seeds, &cfg);
        assert!(!result.crashes.is_empty());
        for (i, crash) in result.crashes.iter().enumerate() {
            let class = dir.join(format!("crash_{i:04}_{}.class", crash.site.label()));
            let sidecar = class.with_extension("txt");
            assert_eq!(
                std::fs::read(&class).ok().as_deref(),
                Some(crash.bytes.as_slice())
            );
            let notes = std::fs::read_to_string(&sidecar).expect("sidecar written");
            assert!(notes.contains(&crash.detail));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corpus_writer_claims_the_next_free_index() {
        let dir = std::env::temp_dir().join(format!("classfuzz_corpus_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp corpus dir");
        let (first, written) = write_corpus_entry(&dir, "trigger", 1, "k", b"one");
        written.expect("first entry written");
        let (second, written) = write_corpus_entry(&dir, "trigger", 1, "k", b"two");
        written.expect("second entry written");
        assert_eq!(first, dir.join("trigger_0001_k.class"));
        assert_eq!(second, dir.join("trigger_0002_k.class"));
        assert_eq!(std::fs::read(&first).unwrap(), b"one");
        assert_eq!(std::fs::read(&second).unwrap(), b"two");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_error_renders_diagnosably() {
        let err = EngineError {
            shard_id: Some(2),
            iterations: 17,
            last_candidate: Some(vec![0xca, 0xfe]),
            message: "worker shard died outside containment: boom".to_string(),
        };
        let text = err.to_string();
        assert!(text.contains("shard 2"), "got: {text}");
        assert!(text.contains("after 17 iterations"), "got: {text}");
        assert!(text.contains("boom"), "got: {text}");
        let headless = EngineError {
            shard_id: None,
            iterations: 0,
            last_candidate: None,
            message: "cannot spawn worker shard 3: out of threads".to_string(),
        };
        assert!(headless.to_string().contains("cannot spawn"));
    }
}
