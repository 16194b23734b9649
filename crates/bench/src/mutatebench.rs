//! The candidate-generation benchmark behind `scripts/bench_gate.sh`'s
//! `mutate` scenario: runs the engine's clone → mutate → lower → serialize
//! hot loop on the allocation-lean path (copy-on-write `IrClass` clones +
//! reusable [`LowerScratch`]) and on the pre-optimization path (deep clone
//! + cold lowering), and renders/checks the `BENCH_mutate.json` report.
//!
//! Methodology (see EXPERIMENTS.md, "Mutate-throughput benchmark"):
//!
//! * the workload replays the engine's per-iteration RNG discipline (pool
//!   pick, mutator pick, mutation draws) over the snapshot-pinned seed
//!   corpus (12 seeds, rng 21) for 150 iterations at rng 20160613 — the
//!   same configuration `tests/coverage_equiv.rs` pins bit-for-bit — so
//!   both paths produce the *identical* mutant sequence and differ only in
//!   how they clone and lower it;
//! * every timing is the median over `repeats` runs;
//! * heap traffic is measured as allocator *events* per produced candidate
//!   via [`crate::alloc_count`]; the counter is live only under the
//!   `covbench` binary, so library tests see zeros and skip the
//!   allocation checks;
//! * the committed baseline is checked with a relative threshold plus two
//!   machine-independent floors: the in-run speedup of the scratch path
//!   over the cold path, and the scratch path's throughput against the
//!   committed *cold-path* number (the ≥2× acceptance criterion).

use std::time::Instant;

use classfuzz_core::seeds::SeedCorpus;
use classfuzz_jimple::lower::{lower_class, lower_class_bytes, LowerScratch};
use classfuzz_jimple::IrClass;
use classfuzz_mutation::{registry, MutationCtx, Mutator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::alloc_count::allocation_events;
use crate::covbench::json_number;
use crate::median;

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

/// The `BENCH_mutate.json` payload: candidate-generation throughput and
/// heap traffic, allocation-lean path vs the pre-optimization path.
#[derive(Debug, Clone, PartialEq)]
pub struct MutateBenchReport {
    /// Iterations per batch (accepted + not-applicable).
    pub iterations: usize,
    /// Candidates actually produced per batch (mutator applicable).
    pub produced: usize,
    /// Repeats each timing is the median of.
    pub repeats: usize,
    /// Candidates/sec on the pre-optimization path: `deep_clone` of the
    /// picked class, cold `lower_class(..).to_bytes()` per candidate.
    pub classes_per_sec_cold: f64,
    /// Candidates/sec on the allocation-lean path: copy-on-write `clone`
    /// plus [`lower_class_bytes`] through one reused [`LowerScratch`].
    pub classes_per_sec_scratch: f64,
    /// scratch / cold — the in-run, machine-independent speedup.
    pub mutate_speedup: f64,
    /// Allocator events per produced candidate, cold path (0.0 when the
    /// counting allocator is not registered).
    pub allocs_per_class_cold: f64,
    /// Allocator events per produced candidate, scratch path (0.0 when
    /// the counting allocator is not registered).
    pub allocs_per_class_scratch: f64,
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

/// Runs the full mutate benchmark at the pinned batch configuration.
pub fn run_mutate_bench(repeats: usize) -> MutateBenchReport {
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
    let timed = |op: &mut dyn FnMut() -> usize| {
        let samples: Vec<f64> = (0..repeats)
            .map(|_| {
                let start = Instant::now();
                let n = op();
                n as f64 / start.elapsed().as_secs_f64().max(1e-9)
            })
            .collect();
        median(samples)
    };

    let classes_per_sec_cold = timed(&mut || cold_batch(&seeds, &mutators));
    let classes_per_sec_scratch = timed(&mut || scratch_batch(&seeds, &mutators));

    MutateBenchReport {
        iterations: BATCH_ITERATIONS,
        produced,
        repeats,
        classes_per_sec_cold,
        classes_per_sec_scratch,
        mutate_speedup: classes_per_sec_scratch / classes_per_sec_cold.max(1e-9),
        allocs_per_class_cold: per_class(cold_events),
        allocs_per_class_scratch: per_class(scratch_events),
    }
}

impl MutateBenchReport {
    /// Renders the report as the `BENCH_mutate.json` payload.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"iterations\": {},\n  \"produced\": {},\n  \
             \"repeats\": {},\n  \
             \"classes_per_sec_cold\": {:.1},\n  \
             \"classes_per_sec_scratch\": {:.1},\n  \
             \"mutate_speedup\": {:.2},\n  \
             \"allocs_per_class_cold\": {:.1},\n  \
             \"allocs_per_class_scratch\": {:.1}\n}}\n",
            self.iterations,
            self.produced,
            self.repeats,
            self.classes_per_sec_cold,
            self.classes_per_sec_scratch,
            self.mutate_speedup,
            self.allocs_per_class_cold,
            self.allocs_per_class_scratch,
        )
    }
}

/// Compares a fresh report against the committed
/// `BENCH_mutate.baseline.json`. Returns the list of gate failures —
/// empty means the gate passes.
///
/// * `min_speedup` is enforced twice: on the in-run scratch/cold ratio,
///   and on the scratch path against the committed `classes_per_sec_cold`
///   (the acceptance criterion's "≥2× over the committed cold-path
///   baseline");
/// * `max_regression` bounds the relative slowdown of the scratch path
///   against the baseline's own `classes_per_sec_scratch`, and the
///   relative growth of `allocs_per_class_scratch`;
/// * the allocation checks are live only when the report carries real
///   counts (`allocs_per_class_cold > 0`, i.e. the counting allocator was
///   registered) — then the scratch path must also allocate strictly less
///   than the cold path.
pub fn check_mutate_report(
    report: &MutateBenchReport,
    baseline_json: &str,
    max_regression: f64,
    min_speedup: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    if report.mutate_speedup < min_speedup {
        failures.push(format!(
            "mutate speedup {:.2}x (scratch vs cold) is below the \
             {min_speedup:.1}x floor",
            report.mutate_speedup
        ));
    }
    match json_number(baseline_json, "classes_per_sec_cold") {
        Some(cold) if report.classes_per_sec_scratch < cold * min_speedup => {
            failures.push(format!(
                "classes_per_sec_scratch {:.1} is below {min_speedup:.1}x \
                 the committed cold-path baseline {cold:.1}",
                report.classes_per_sec_scratch
            ));
        }
        Some(_) => {}
        None => failures.push("baseline is missing \"classes_per_sec_cold\"".to_string()),
    }
    match json_number(baseline_json, "classes_per_sec_scratch") {
        Some(base) if report.classes_per_sec_scratch < base / max_regression => {
            failures.push(format!(
                "classes_per_sec_scratch regressed: {:.1} vs baseline \
                 {base:.1} (budget {max_regression:.2}x)",
                report.classes_per_sec_scratch
            ));
        }
        Some(_) => {}
        None => failures.push("baseline is missing \"classes_per_sec_scratch\"".to_string()),
    }
    if report.allocs_per_class_cold > 0.0 {
        if report.allocs_per_class_scratch >= report.allocs_per_class_cold {
            failures.push(format!(
                "scratch path allocates {:.1}/class, not below the cold \
                 path's {:.1}/class",
                report.allocs_per_class_scratch, report.allocs_per_class_cold
            ));
        }
        match json_number(baseline_json, "allocs_per_class_scratch") {
            Some(base) if report.allocs_per_class_scratch > base * max_regression => {
                failures.push(format!(
                    "allocs_per_class_scratch regressed: {:.1} vs baseline \
                     {base:.1} (budget {max_regression:.2}x)",
                    report.allocs_per_class_scratch
                ));
            }
            Some(_) => {}
            None => failures.push("baseline is missing \"allocs_per_class_scratch\"".to_string()),
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip_and_gate() {
        let report = MutateBenchReport {
            iterations: 150,
            produced: 140,
            repeats: 3,
            classes_per_sec_cold: 10000.0,
            classes_per_sec_scratch: 30000.0,
            mutate_speedup: 3.0,
            allocs_per_class_cold: 200.0,
            allocs_per_class_scratch: 80.0,
        };
        let json = report.to_json();
        assert_eq!(json_number(&json, "classes_per_sec_scratch"), Some(30000.0));
        assert_eq!(json_number(&json, "mutate_speedup"), Some(3.0));
        assert_eq!(json_number(&json, "allocs_per_class_scratch"), Some(80.0));
        let baseline = "{\n  \"classes_per_sec_cold\": 9000.0,\n  \
                        \"classes_per_sec_scratch\": 25000.0,\n  \
                        \"allocs_per_class_scratch\": 100.0\n}\n";
        assert!(check_mutate_report(&report, baseline, 1.2, 2.0).is_empty());
        // In-run speedup below the floor fails.
        let mut slow = report.clone();
        slow.mutate_speedup = 1.5;
        assert!(check_mutate_report(&slow, baseline, 1.2, 2.0)
            .iter()
            .any(|f| f.contains("floor")));
        // Falling under 2x the committed cold-path number fails.
        let mut unshared = report.clone();
        unshared.classes_per_sec_scratch = 15000.0;
        assert!(check_mutate_report(&unshared, baseline, 1.2, 2.0)
            .iter()
            .any(|f| f.contains("cold-path")));
        // A >20% throughput drop against the baseline's own number fails.
        let mut regressed = report.clone();
        regressed.classes_per_sec_scratch = 20000.0;
        assert!(check_mutate_report(&regressed, baseline, 1.2, 2.0)
            .iter()
            .any(|f| f.contains("regressed")));
        // Scratch allocating at least as much as cold fails.
        let mut leaky = report.clone();
        leaky.allocs_per_class_scratch = 250.0;
        let failures = check_mutate_report(&leaky, baseline, 1.2, 2.0);
        assert!(failures.iter().any(|f| f.contains("not below")));
        assert!(failures
            .iter()
            .any(|f| f.contains("allocs_per_class_scratch regressed")));
        // Zero counts (no counting allocator) skip the allocation checks.
        let mut uncounted = report.clone();
        uncounted.allocs_per_class_cold = 0.0;
        uncounted.allocs_per_class_scratch = 0.0;
        assert!(check_mutate_report(
            &uncounted,
            "{\n  \"classes_per_sec_cold\": 9000.0,\n  \
                                                 \"classes_per_sec_scratch\": 25000.0\n}\n",
            1.2,
            2.0
        )
        .is_empty());
        // A missing baseline field is a failure, not a silent pass.
        assert_eq!(check_mutate_report(&report, "{}", 1.2, 2.0).len(), 3);
    }

    #[test]
    fn bench_report_is_consistent_and_paths_agree() {
        let report = run_mutate_bench(1);
        assert_eq!(report.iterations, BATCH_ITERATIONS);
        assert!(report.produced > 0 && report.produced <= BATCH_ITERATIONS);
        assert!(report.classes_per_sec_cold > 0.0);
        assert!(report.classes_per_sec_scratch > 0.0);
        assert!(report.mutate_speedup > 0.0);
        // Library tests run without the counting allocator: counts are 0.
        assert_eq!(report.allocs_per_class_cold, 0.0);

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
