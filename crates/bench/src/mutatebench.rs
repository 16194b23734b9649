//! The `mutate` scenario's workload ([`crate::scenario`]): the engine's
//! clone → mutate → lower → serialize hot loop on the allocation-lean path
//! (copy-on-write `IrClass` clones + reusable [`LowerScratch`]) and on the
//! pre-optimization path (deep clone + cold lowering).
//!
//! Methodology (see EXPERIMENTS.md, "Mutate-throughput benchmark"):
//!
//! * the workload replays the engine's per-iteration RNG discipline (pool
//!   pick, mutator pick, mutation draws) over the snapshot-pinned seed
//!   corpus (12 seeds, rng 21) for 150 iterations at rng 20160613 — the
//!   same configuration `tests/coverage_equiv.rs` pins bit-for-bit — so
//!   both paths produce the *identical* mutant sequence and differ only in
//!   how they clone and lower it;
//! * heap traffic is measured as allocator *events* per produced candidate
//!   via [`crate::alloc_count`]; the counter is live only under the
//!   `covbench` binary, so library tests see zeros.

use classfuzz_core::seeds::SeedCorpus;
use classfuzz_jimple::lower::{lower_class, lower_class_bytes, LowerScratch};
use classfuzz_jimple::IrClass;
use classfuzz_mutation::{registry, MutationCtx, Mutator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::alloc_count::allocation_events;
use crate::per_sec;
use crate::scenario::Metric;

/// Iteration budget of one batch — the `tests/coverage_equiv.rs` campaign
/// length, so the accept/skip mix matches the pinned campaign.
pub const BATCH_ITERATIONS: usize = 150;

/// Master RNG seed of one batch (shared with the pinned campaign).
pub const BATCH_RNG_SEED: u64 = 20160613;

/// The fixed seed corpus both paths mutate (12 seeds, rng 21 — the
/// snapshot campaign's corpus).
pub fn batch_seeds() -> Vec<IrClass> {
    SeedCorpus::generate(12, 21).into_classes()
}

/// Runs one batch of the engine hot loop, parameterized over how a picked
/// class is cloned and how a finished mutant is lowered to bytes. The RNG
/// draw order (pool pick, mutator pick, mutation draws) is exactly the
/// campaign engine's (`Shard::produce`), so every parameterization replays
/// the identical mutant sequence. Returns the number of candidates produced.
fn run_batch(
    seeds: &[IrClass],
    mutators: &[Mutator],
    mut clone_class: impl FnMut(&IrClass) -> IrClass,
    mut lower_bytes: impl FnMut(&IrClass) -> Vec<u8>,
) -> usize {
    let mut rng = StdRng::seed_from_u64(BATCH_RNG_SEED);
    let mut produced = 0;
    for _ in 0..BATCH_ITERATIONS {
        let pick = rng.gen_range(0..seeds.len());
        let mutator_id = rng.gen_range(0..mutators.len());
        let mut mutant = clone_class(&seeds[pick]);
        let mut ctx = MutationCtx::new(&mut rng, seeds);
        if mutators[mutator_id].apply(&mut mutant, &mut ctx).is_err() {
            continue;
        }
        mutant.ensure_main("Completed!");
        std::hint::black_box(lower_bytes(&mutant));
        produced += 1;
    }
    produced
}

/// Measures candidates/sec on both paths and allocator events per
/// produced candidate.
pub fn run(repeats: usize) -> Vec<Metric> {
    let seeds = batch_seeds();
    let mutators = registry::all_mutators();

    let cold_batch = |seeds: &[IrClass], mutators: &[Mutator]| {
        run_batch(seeds, mutators, IrClass::deep_clone, |mutant| {
            lower_class(mutant).to_bytes()
        })
    };

    // One scratch per "shard", exactly as the engine holds one per worker.
    let mut scratch = LowerScratch::new();
    let mut scratch_batch = |seeds: &[IrClass], mutators: &[Mutator]| {
        run_batch(seeds, mutators, IrClass::clone, |mutant| {
            lower_class_bytes(mutant, &mut scratch)
        })
    };

    // Warm-up pass doubling as the allocation measurement: one counted
    // batch per path (counts are deterministic properties of the workload,
    // not timings, so one pass is exact). Also primes the scratch, so the
    // timed scratch passes measure steady-state reuse like the engine's.
    let before_cold = allocation_events();
    let produced = cold_batch(&seeds, &mutators);
    let cold_events = allocation_events() - before_cold;
    let before_scratch = allocation_events();
    let scratch_produced = scratch_batch(&seeds, &mutators);
    let scratch_events = allocation_events() - before_scratch;
    assert_eq!(
        produced, scratch_produced,
        "cold and scratch paths must replay the identical mutant sequence"
    );
    let per_class = |events: u64| events as f64 / produced.max(1) as f64;

    let cold_rate = per_sec(repeats, || cold_batch(&seeds, &mutators));
    let scratch_rate = per_sec(repeats, || scratch_batch(&seeds, &mutators));

    vec![
        Metric::count("iterations", BATCH_ITERATIONS),
        Metric::count("produced", produced),
        Metric::count("repeats", repeats),
        Metric::new("classes_per_sec_cold", cold_rate, 1),
        Metric::new("classes_per_sec_scratch", scratch_rate, 1),
        Metric::new("mutate_speedup", scratch_rate / cold_rate.max(1e-9), 2),
        Metric::new("allocs_per_class_cold", per_class(cold_events), 1),
        Metric::new("allocs_per_class_scratch", per_class(scratch_events), 1),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::value;

    #[test]
    fn bench_report_is_consistent_and_paths_agree() {
        let metrics = run(1);
        assert_eq!(value(&metrics, "iterations"), Some(BATCH_ITERATIONS as f64));
        let produced = value(&metrics, "produced").unwrap();
        assert!(produced > 0.0 && produced <= BATCH_ITERATIONS as f64);
        for key in [
            "classes_per_sec_cold",
            "classes_per_sec_scratch",
            "mutate_speedup",
        ] {
            assert!(value(&metrics, key).unwrap() > 0.0, "{key}");
        }
        // Library tests run without the counting allocator: counts are 0.
        assert_eq!(value(&metrics, "allocs_per_class_cold"), Some(0.0));

        // Byte-identity of the two paths over the real mutant stream.
        let seeds = batch_seeds();
        let mutators = registry::all_mutators();
        let mut cold_out = Vec::new();
        run_batch(&seeds, &mutators, IrClass::deep_clone, |mutant| {
            let bytes = lower_class(mutant).to_bytes();
            cold_out.push(bytes.clone());
            bytes
        });
        let mut scratch = LowerScratch::new();
        let mut scratch_out = Vec::new();
        run_batch(&seeds, &mutators, IrClass::clone, |mutant| {
            let bytes = lower_class_bytes(mutant, &mut scratch);
            scratch_out.push(bytes.clone());
            bytes
        });
        assert_eq!(cold_out, scratch_out);
    }
}
