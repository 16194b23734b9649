#![warn(missing_docs)]
//! Shared experiment drivers for the benchmark harness: each function
//! regenerates the data behind one of the paper's tables or figures, at a
//! configurable (laptop-sized) scale.
//!
//! The `repro` binary (this crate's `src/bin/repro.rs`) renders them as the
//! paper's tables; the Criterion benches reuse the same drivers for
//! performance tracking.

pub mod alloc_count;
pub mod covbench;
pub mod harnessbench;
pub mod interpbench;
pub mod mutatebench;
pub mod scalebench;
pub mod scenario;
pub mod startupbench;
pub mod yieldbench;

use std::time::Instant;

use classfuzz_core::analyze::{evaluate_suite, SuiteEvaluation};
use classfuzz_core::diff::DifferentialHarness;
use classfuzz_core::engine::{run_campaign_parallel, Algorithm, CampaignConfig, CampaignResult};
use classfuzz_core::report::Table6Row;
use classfuzz_core::seeds::SeedCorpus;
use classfuzz_coverage::UniquenessCriterion;

/// Experiment scale: how big the seed corpus and iteration budget are.
///
/// The paper ran each algorithm for three days on 1,216 seeds; the drivers
/// accept any scale and default to one that finishes in minutes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Seed-corpus size (paper: 1,216).
    pub seeds: usize,
    /// Iteration budget per campaign (paper: ≈ 2,000 for the directed
    /// algorithms, ≈ 46,000 for randfuzz over three days).
    pub iterations: usize,
    /// Master RNG seed.
    pub rng_seed: u64,
    /// Worker shards per campaign (1 = the sequential engine's behavior,
    /// reproduced bit for bit by the parallel engine).
    pub jobs: usize,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            seeds: 60,
            iterations: 1000,
            rng_seed: 20160613,
            jobs: 1,
        }
    }
}

impl Scale {
    /// A fast scale for smoke tests.
    pub fn small() -> Scale {
        Scale {
            seeds: 12,
            iterations: 80,
            rng_seed: 20160613,
            jobs: 1,
        }
    }

    /// The same scale with a different shard count.
    pub fn with_jobs(self, jobs: usize) -> Scale {
        Scale { jobs, ..self }
    }

    /// Randfuzz's budget: the paper's randfuzz executed ≈ 22× the
    /// iterations of the directed algorithms in the same wall-clock time
    /// (46,318 vs ≈ 2,000), because it never collects coverage.
    pub fn randfuzz_iterations(&self) -> usize {
        self.iterations * 22
    }
}

/// The median of a set of timing samples — the upper median
/// (`samples[len / 2]`) for an even count, which every gate's committed
/// baseline was measured with. Panics on an empty set.
pub fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// The throughput of one run of `op`, in items per second; `op` returns
/// how many items it processed.
pub fn rate(op: impl FnOnce() -> usize) -> f64 {
    let start = Instant::now();
    let items = op();
    items as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// The median throughput of `op` over `repeats` timed runs, in items per
/// second; each run of `op` returns how many items it processed.
pub fn per_sec(repeats: usize, mut op: impl FnMut() -> usize) -> f64 {
    median((0..repeats).map(|_| rate(&mut op)).collect())
}

/// Two arms of a scenario measured by [`interleaved`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArmPair {
    /// The first arm's median throughput.
    pub first: f64,
    /// The second arm's median throughput.
    pub second: f64,
    /// The median over repeats of `first / second` within one repeat.
    pub ratio: f64,
}

/// Measures two arms alternately: each repeat runs both, one right after
/// the other, and swaps which goes first. Each closure runs its arm once
/// and returns its throughput (usually via [`rate`]).
///
/// The in-run ratio floors gate [`ArmPair::ratio`], the median of the
/// per-repeat ratios. Both arms of a repeat run in the same host state,
/// so a host that flips between fast and slow moves both together, and
/// the flip cancels out of their ratio. Arms timed in separate blocks
/// would carry the flip into the ratio instead.
pub fn interleaved(
    repeats: usize,
    mut first: impl FnMut() -> f64,
    mut second: impl FnMut() -> f64,
) -> ArmPair {
    let (mut firsts, mut seconds, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for repeat in 0..repeats {
        let (a, b) = if repeat % 2 == 0 {
            let a = first();
            (a, second())
        } else {
            let b = second();
            (first(), b)
        };
        firsts.push(a);
        seconds.push(b);
        ratios.push(a / b.max(1e-9));
    }
    ArmPair {
        first: median(firsts),
        second: median(seconds),
        ratio: median(ratios),
    }
}

/// The seed corpus for a scale.
pub fn seed_corpus(scale: Scale) -> SeedCorpus {
    SeedCorpus::generate(scale.seeds, scale.rng_seed)
}

/// Table 4: runs all six algorithm configurations and returns their
/// campaign results, in the paper's column order.
pub fn table4_campaigns(scale: Scale) -> Vec<CampaignResult> {
    let seeds = seed_corpus(scale).into_classes();
    Algorithm::table4_lineup()
        .into_iter()
        .map(|alg| {
            let iterations = if alg == Algorithm::Randfuzz {
                scale.randfuzz_iterations()
            } else {
                scale.iterations
            };
            run_campaign_parallel(
                &seeds,
                &CampaignConfig::new(alg, iterations, scale.rng_seed),
                scale.jobs,
            )
            .expect("benchmark campaign must not fail")
        })
        .collect()
}

/// The classfuzz\[stbr\] campaign alone (Tables 5 and 7, Figure 4a/4b).
pub fn classfuzz_stbr_campaign(scale: Scale) -> CampaignResult {
    let seeds = seed_corpus(scale).into_classes();
    run_campaign_parallel(
        &seeds,
        &CampaignConfig::new(
            Algorithm::Classfuzz(UniquenessCriterion::StBr),
            scale.iterations,
            scale.rng_seed,
        ),
        scale.jobs,
    )
    .expect("benchmark campaign must not fail")
}

/// The uniquefuzz campaign alone (Figure 4c).
pub fn uniquefuzz_campaign(scale: Scale) -> CampaignResult {
    let seeds = seed_corpus(scale).into_classes();
    run_campaign_parallel(
        &seeds,
        &CampaignConfig::new(Algorithm::Uniquefuzz, scale.iterations, scale.rng_seed),
        scale.jobs,
    )
    .expect("benchmark campaign must not fail")
}

/// Table 6: evaluates seeds, plus GenClasses and TestClasses of every
/// campaign, against the five JVMs.
pub fn table6_rows(scale: Scale, campaigns: &[CampaignResult]) -> Vec<Table6Row> {
    let harness = DifferentialHarness::paper_five();
    let mut rows = Vec::new();
    let seeds = seed_corpus(scale);
    rows.push(Table6Row {
        label: "seeding classfiles".into(),
        eval: evaluate_suite(&harness, &seeds.to_bytes()),
    });
    for c in campaigns {
        rows.push(Table6Row {
            label: format!("{} GenClasses", c.algorithm.label()),
            eval: evaluate_suite(&harness, &c.gen_bytes()),
        });
        rows.push(Table6Row {
            label: format!("{} TestClasses", c.algorithm.label()),
            eval: evaluate_suite(&harness, &c.test_bytes()),
        });
    }
    rows
}

/// Table 7: the per-VM phase histogram of one suite of classfile bytes.
pub fn table7_eval(classes: &[Vec<u8>]) -> (SuiteEvaluation, Vec<String>) {
    let harness = DifferentialHarness::paper_five();
    (evaluate_suite(&harness, classes), harness.names())
}

/// The §1 preliminary study: the diff rate of the (synthetic) "JRE corpus"
/// itself — the paper's 1.7 % baseline.
pub fn baseline_eval(scale: Scale) -> SuiteEvaluation {
    let corpus = SeedCorpus::generate(scale.seeds.max(200), scale.rng_seed ^ 0x5eed);
    let harness = DifferentialHarness::paper_five();
    evaluate_suite(&harness, &corpus.to_bytes())
}

// --- Ablations and extensions ----------------------------------------------

use classfuzz_core::engine::run_campaign as run_campaign_raw;

/// Ablation: MCMC geometric parameter `p` vs. yield. Runs classfuzz\[stbr\]
/// with each `p` and reports |TestClasses| — quantifying how sensitive
/// Algorithm 1 is to the §2.2.2 estimate (3/129 ≈ 0.023).
pub fn ablation_p(scale: Scale, ps: &[f64]) -> Vec<(f64, usize)> {
    let seeds = seed_corpus(scale).into_classes();
    ps.iter()
        .map(|&p| {
            let config = CampaignConfig {
                p,
                ..CampaignConfig::new(
                    Algorithm::Classfuzz(UniquenessCriterion::StBr),
                    scale.iterations,
                    scale.rng_seed,
                )
            };
            (p, run_campaign_raw(&seeds, &config).test_classes.len())
        })
        .collect()
}

/// Ablation: which VM policy knob produces which discrepancy classes.
/// Runs the classfuzz\[stbr\] TestClasses against the standard lineup and
/// against a lineup with one J9/GIJ policy difference neutralized, and
/// reports how many discrepancy-triggering classes vanish.
pub fn ablation_knobs(scale: Scale) -> Vec<(String, usize)> {
    use classfuzz_vm::VmSpec;
    let campaign = classfuzz_stbr_campaign(scale);
    let bytes = campaign.test_bytes();

    let count = |specs: Vec<VmSpec>| -> usize {
        let harness = DifferentialHarness::new(specs);
        bytes
            .iter()
            .filter(|b| harness.run(b).is_discrepancy())
            .count()
    };

    let mut rows = Vec::new();
    rows.push((
        "full policy differences".to_string(),
        count(VmSpec::all_five()),
    ));

    let mut no_lazy = VmSpec::all_five();
    no_lazy[3].lazy_method_verification = false;
    rows.push(("J9 verifies eagerly".to_string(), count(no_lazy)));

    let mut no_clinit = VmSpec::all_five();
    no_clinit[3].clinit_requires_code = false;
    no_clinit[3].clinit_flags_exempt = true;
    rows.push((
        "J9 treats <clinit> like HotSpot".to_string(),
        count(no_clinit),
    ));

    let mut strict_gij = VmSpec::all_five();
    strict_gij[4].interface_must_extend_object = true;
    strict_gij[4].interface_members_must_be_public = true;
    strict_gij[4].interface_main_invocable = false;
    strict_gij[4].strict_init_signature = true;
    strict_gij[4].allow_duplicate_fields = false;
    rows.push((
        "GIJ made as strict as HotSpot".to_string(),
        count(strict_gij),
    ));

    let mut same_jre = VmSpec::all_five();
    for spec in &mut same_jre {
        spec.jre = classfuzz_vm::JreGeneration::Jre8;
    }
    rows.push((
        "all VMs share the JRE 8 library".to_string(),
        count(same_jre),
    ));

    rows
}

/// Extension (the paper's "beyond the scope" note in §3.1.1): sweep
/// classfile major versions and report per-VM phases for (a) a valid class
/// and (b) an interface missing its ACC_ABSTRACT flag — a dubious construct
/// HotSpot accepts at version 46 but rejects at 51.
pub fn version_sweep(versions: &[u16]) -> Vec<(u16, Vec<u8>, Vec<u8>)> {
    use classfuzz_classfile::ClassAccess;
    use classfuzz_jimple::{lower::lower_class, IrClass};
    let harness = DifferentialHarness::paper_five();
    versions
        .iter()
        .map(|&v| {
            let mut ok = IrClass::with_hello_main("sweep/Ok", "Completed!");
            ok.major_version = v;
            let ok_phases: Vec<u8> = harness.run(&lower_class(&ok).to_bytes()).encoded();

            let mut iface = IrClass::new("sweep/NoAbstract");
            iface.access = ClassAccess::PUBLIC | ClassAccess::INTERFACE; // no ABSTRACT
            iface.methods.clear();
            iface.major_version = v;
            let iface_phases: Vec<u8> = harness.run(&lower_class(&iface).to_bytes()).encoded();
            (v, ok_phases, iface_phases)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaved_gates_the_median_per_repeat_ratio() {
        // The host runs at full speed in some repeats and at half in
        // others; both arms of a repeat see the same speed.
        let host = [1.0, 0.5, 1.0, 0.5, 0.5];
        let order = std::cell::RefCell::new(Vec::new());
        let (mut a, mut b) = (0, 0);
        let pair = interleaved(
            host.len(),
            || {
                order.borrow_mut().push('a');
                a += 1;
                4.0 * host[a - 1]
            },
            || {
                order.borrow_mut().push('b');
                b += 1;
                2.0 * host[b - 1]
            },
        );
        // The flips cancel out of every per-repeat ratio.
        assert_eq!(pair.ratio, 2.0);
        assert_eq!((pair.first, pair.second), (2.0, 1.0));
        // Each repeat runs both arms, and the leading arm alternates.
        assert_eq!(order.into_inner().iter().collect::<String>(), "abbaabbaab");
    }

    #[test]
    fn small_scale_pipeline_end_to_end() {
        let scale = Scale::small();
        let campaigns = table4_campaigns(scale);
        assert_eq!(campaigns.len(), 6);
        // Finding 1 shape: randfuzz generates far more than any directed
        // algorithm; directed algorithms filter.
        let randfuzz = &campaigns[5];
        let stbr = &campaigns[0];
        assert!(randfuzz.gen_classes.len() > 3 * stbr.gen_classes.len());
        assert!(stbr.test_classes.len() <= stbr.gen_classes.len());

        let rows = table6_rows(scale, &campaigns[..1]);
        assert_eq!(rows.len(), 3);
        let (eval, names) = table7_eval(&stbr.test_bytes());
        assert_eq!(names.len(), 5);
        assert_eq!(eval.total, stbr.test_classes.len());
    }

    #[test]
    fn baseline_has_small_nonzero_diff() {
        let eval = baseline_eval(Scale::small());
        assert!(eval.total >= 200);
        assert!(eval.discrepancies > 0, "environment baseline must exist");
        assert!(
            eval.diff_rate() < 0.25,
            "baseline diff too high: {}",
            eval.diff_rate()
        );
    }
}
