//! The traced outside-in replay of `run_campaign`.
//!
//! The replay rebuilds the sequential campaign loop from the crates'
//! public calls alone and marks a span after each one, so per-layer
//! numbers need no instrumentation inside the program. It must draw the
//! same RNG stream in the same order as the engine; the benchmark checks
//! that by comparing [`crate::triage::campaign_digest`] of the replay with
//! that of an untraced `run_campaign` of the same configuration.
//!
//! The replay covers the configurations the workloads use: uniform seed
//! selection, no pool cap, no execution differencing and no fault
//! injection. [`replay_campaign`] refuses any other.

use std::sync::Arc;
use std::time::Instant;

use classfuzz_core::engine::{
    Algorithm, CampaignConfig, CampaignResult, CrashRecord, CrashSite, GeneratedClass, SeedSelect,
    ShardStats,
};
use classfuzz_coverage::{GlobalCoverage, SuiteIndex, TraceFile, UniquenessCriterion};
use classfuzz_jimple::lower::{lower_class_bytes, LowerScratch};
use classfuzz_jimple::IrClass;
use classfuzz_mcmc::{AcceptanceTelemetry, MutatorChain, MutatorStats, UniformSelector};
use classfuzz_mutation::{registry, MutationCtx, Mutator};
use classfuzz_vm::{preparse, run_contained, Jvm, VmSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spans::{Recorder, Stage};

/// Layer counters the replay observes at its boundaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayCounters {
    /// Iterations executed.
    pub iterations: u64,
    /// Mutations that applied and produced a class.
    pub applied: u64,
}

struct PoolEntry {
    class: Arc<IrClass>,
    bytes: Arc<Vec<u8>>,
    trace: Option<Arc<TraceFile>>,
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

enum Acceptance {
    Unique(SuiteIndex),
    Greedy(GlobalCoverage),
    All,
}

impl Acceptance {
    fn decide(&mut self, trace: Option<&TraceFile>, fp: Option<u64>) -> bool {
        match self {
            Acceptance::All => true,
            Acceptance::Unique(index) => trace.is_some_and(|t| match fp {
                Some(fp) => index.insert_if_unique_with_fingerprint(t, fp),
                None => index.insert_if_unique(t),
            }),
            Acceptance::Greedy(global) => trace.is_some_and(|t| global.absorb(t)),
        }
    }
}

/// Lowers (and, when the algorithm consults coverage, traces) every seed,
/// then seeds the acceptance state with the traces.
fn seed_pool(
    seeds: &[IrClass],
    reference: Option<&Jvm>,
    acceptance: &mut Acceptance,
    rec: &mut Recorder,
) -> Vec<PoolEntry> {
    let mut scratch = TraceFile::new();
    let mut lower = LowerScratch::new();
    let entries: Vec<PoolEntry> = seeds
        .iter()
        .map(|seed| {
            let bytes = Arc::new(lower_class_bytes(seed, &mut lower));
            let trace = reference.map(|jvm| {
                jvm.run_traced_into(&bytes, &mut scratch);
                Arc::new(scratch.snapshot())
            });
            rec.mark(Stage::SeedPool);
            PoolEntry {
                class: Arc::new(seed.clone()),
                bytes,
                trace,
            }
        })
        .collect();
    for trace in entries.iter().filter_map(|e| e.trace.as_deref()) {
        match acceptance {
            Acceptance::Unique(index) => index.insert(trace),
            Acceptance::Greedy(global) => {
                global.absorb(trace);
            }
            Acceptance::All => {}
        }
    }
    rec.mark(Stage::SeedPool);
    entries
}

/// Replays `run_campaign(seeds, config)` with a span after every layer
/// call. Returns the campaign's result, bit-identical to the engine's
/// apart from `elapsed`, and the counters seen at the layer boundaries.
///
/// # Errors
///
/// A configuration outside the replay's scope (see the module docs).
pub fn replay_campaign(
    seeds: &[IrClass],
    config: &CampaignConfig,
    rec: &mut Recorder,
) -> Result<(CampaignResult, ReplayCounters), String> {
    if config.exec_diff
        || config.pool_cap.is_some()
        || config.seed_select != SeedSelect::Uniform
        || config.inject_panic_mutator
        || config.crash_dir.is_some()
    {
        return Err(format!(
            "the replay does not cover this configuration: {config:?}"
        ));
    }
    let start = Instant::now();
    let mutators: Vec<Mutator> = registry::all_mutators();
    let mut rng = StdRng::seed_from_u64(config.rng_seed);
    let reference = Jvm::new(VmSpec::hotspot9());
    let mut selector = match config.algorithm {
        Algorithm::Classfuzz(_) => Selector::Chain(MutatorChain::new(mutators.len(), config.p)),
        _ => Selector::Uniform(UniformSelector::new(mutators.len())),
    };
    let mut acceptance = match config.algorithm {
        Algorithm::Classfuzz(criterion) => Acceptance::Unique(SuiteIndex::new(criterion)),
        Algorithm::Uniquefuzz => Acceptance::Unique(SuiteIndex::new(UniquenessCriterion::StBr)),
        Algorithm::Greedyfuzz => Acceptance::Greedy(GlobalCoverage::new()),
        Algorithm::Randfuzz => Acceptance::All,
    };
    let tracing = (!matches!(config.algorithm, Algorithm::Randfuzz)).then_some(&reference);
    let mut scratch = TraceFile::new();
    let mut lower = LowerScratch::new();
    let mut pool = seed_pool(seeds, tracing, &mut acceptance, rec);

    let mut gen_classes: Vec<GeneratedClass> = Vec::new();
    let mut test_classes: Vec<usize> = Vec::new();
    let mut crashes: Vec<CrashRecord> = Vec::new();
    let mut counters = ReplayCounters::default();

    for _ in 0..config.iterations {
        if pool.is_empty() {
            break;
        }
        rec.open(Stage::Iteration);
        counters.iterations += 1;

        let pick = rng.gen_range(0..pool.len());
        let mutator_id = selector.select(&mut rng);
        rec.mark(Stage::Select);

        let mut mutant = IrClass::clone(&pool[pick].class);
        let applied = run_contained(|| {
            let mut ctx = MutationCtx::new(&mut rng, seeds);
            mutators[mutator_id].apply(&mut mutant, &mut ctx)
        });
        rec.mark(Stage::Mutate);
        match applied {
            Err(detail) => {
                crashes.push(CrashRecord {
                    shard_id: 0,
                    site: CrashSite::Mutator { mutator_id },
                    bytes: pool[pick].bytes.as_ref().clone(),
                    detail,
                });
                rec.mark(Stage::Record);
                rec.close();
                continue;
            }
            Ok(Err(_)) => {
                rec.close();
                continue;
            }
            Ok(Ok(())) => counters.applied += 1,
        }

        mutant.ensure_main("Completed!");
        let bytes = lower_class_bytes(&mutant, &mut lower);
        rec.mark(Stage::Lower);

        let (trace, trace_fp, vm_crash) = match tracing {
            Some(jvm) => {
                let parsed = preparse(&bytes);
                rec.mark(Stage::Preparse);
                let result = jvm.run_traced_into_parsed(&parsed, &mut scratch);
                let crash = result.outcome.crash_detail().map(str::to_string);
                let traced = (Some(scratch.snapshot()), Some(scratch.fingerprint()), crash);
                rec.mark(Stage::Trace);
                traced
            }
            None => (None, None, None),
        };

        let accepted = acceptance.decide(trace.as_ref(), trace_fp);
        rec.mark(Stage::Decide);

        if let Some(detail) = vm_crash {
            crashes.push(CrashRecord {
                shard_id: 0,
                site: CrashSite::ReferenceVm,
                bytes: bytes.clone(),
                detail,
            });
        }
        let class = Arc::new(mutant);
        let bytes = Arc::new(bytes);
        if accepted {
            test_classes.push(gen_classes.len());
            pool.push(PoolEntry {
                class: Arc::clone(&class),
                bytes: Arc::clone(&bytes),
                trace: trace.map(Arc::new),
            });
            selector.record_success(mutator_id);
        }
        gen_classes.push(GeneratedClass {
            class,
            bytes,
            mutator_id,
            accepted,
        });
        rec.mark(Stage::Record);
        rec.close();
    }

    let acceptance = match &acceptance {
        Acceptance::Unique(index) => AcceptanceTelemetry::from(index.counters()),
        Acceptance::Greedy(_) | Acceptance::All => AcceptanceTelemetry::default(),
    };
    let result = CampaignResult {
        algorithm: config.algorithm,
        iterations: config.iterations,
        shard_stats: vec![ShardStats {
            shard_id: 0,
            iterations: counters.iterations as usize,
            generated: gen_classes.len(),
            accepted: test_classes.len(),
        }],
        gen_classes,
        test_classes,
        mutator_stats: selector.stats(),
        elapsed: start.elapsed(),
        seed_count: seeds.len(),
        crashes,
        acceptance,
        exec_reports: Vec::new(),
    };
    Ok((result, counters))
}
