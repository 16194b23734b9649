//! One sample: what a single child process measures for a workload.
//!
//! An untraced sample times set-up, the campaign and the evaluation and
//! checks their outputs; it gives the end-to-end metrics. A traced sample
//! runs the same campaign untraced for reference, then the traced replay,
//! checks that both produced the same outputs, and gives the per-layer
//! metrics. Samples travel to the parent process as lines of text.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use classfuzz_core::diff::DifferentialHarness;
use classfuzz_core::engine::{run_campaign, run_campaign_parallel, CampaignResult};
use classfuzz_core::seeds::SeedCorpus;

use crate::replay::replay_campaign;
use crate::spans::{summarize, Recorder, Stage};
use crate::stats;
use crate::triage::{campaign_digest, evaluate, evaluate_traced, Evaluation, Verdict};
use crate::workload::{Workload, SCALING_SHARDS, SEEDS};

/// The end-to-end metrics, with units and whether higher is better:
/// every untraced sample reports them.
pub const END_TO_END: [(&str, &str, bool); 6] = [
    ("iters_per_s", "iter/s", true),
    ("eval_classes_per_s", "class/s", true),
    ("eval_p50_us", "us", false),
    ("eval_p99_us", "us", false),
    ("setup_s", "s", false),
    ("peak_rss_mb", "MB", false),
];

/// Stages that run on every workload: these report latency percentiles
/// and allocations as well as calls and share.
fn full_stages() -> Vec<Stage> {
    let mut stages = vec![
        Stage::SeedPool,
        Stage::Select,
        Stage::Mutate,
        Stage::Lower,
        Stage::Preparse,
        Stage::Record,
    ];
    stages.extend((0..crate::spans::PROFILES.len()).map(Stage::Eval));
    stages.push(Stage::Classify);
    stages
}

/// Stages that are absent or below timer resolution on some workload:
/// calls and share only.
const PARTIAL_STAGES: [Stage; 2] = [Stage::Trace, Stage::Decide];

/// Whole-run per-layer metrics, with units.
const RUN_METRICS: [(&str, &str); 9] = [
    ("core.iter.p50_us", "us"),
    ("core.iter.p99_us", "us"),
    ("core.iter.max_us", "us"),
    ("core.iter.allocs_per_call", "count"),
    ("mutation.applied_ratio", "ratio"),
    ("vm.preparse.reject_ratio", "ratio"),
    ("coverage.accept_ratio", "ratio"),
    ("coverage.fast_path_rate", "ratio"),
    ("core.distinct_keys", "count"),
];

/// Tracing and scheduler metrics, with units.
const OVERHEAD_METRICS: [(&str, &str); 5] = [
    ("core.unaccounted_share", "ratio"),
    ("trace.overhead", "ratio"),
    ("scheduler.shard_imbalance", "ratio"),
    ("scheduler.scaling", "ratio"),
    ("scheduler.one_shard_overhead", "ratio"),
];

/// The per-layer metrics, with units: every traced sample reports them.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut metrics = Vec::new();
    for stage in full_stages() {
        let name = stage.name();
        metrics.push((format!("{name}.calls"), "count"));
        metrics.push((format!("{name}.share"), "ratio"));
        metrics.push((format!("{name}.p50_us"), "us"));
        metrics.push((format!("{name}.p99_us"), "us"));
        metrics.push((format!("{name}.allocs_per_call"), "count"));
    }
    for stage in PARTIAL_STAGES {
        let name = stage.name();
        metrics.push((format!("{name}.calls"), "count"));
        metrics.push((format!("{name}.share"), "ratio"));
    }
    for (name, unit) in RUN_METRICS.into_iter().chain(OVERHEAD_METRICS) {
        metrics.push((name.to_string(), unit));
    }
    metrics
}

/// While set, the benchmark binary's global allocator counts heap events
/// through `CountingAllocator`; untraced samples leave it clear so they
/// pay no shared-counter cost.
pub static COUNT_ALLOCATIONS: AtomicBool = AtomicBool::new(false);

/// One child process's results.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sample {
    /// Metric values, by name.
    pub metrics: Vec<(String, f64)>,
    /// Operations attempted: campaign iterations plus class evaluations.
    pub attempted: u64,
    /// Contained crashes recorded by the campaign.
    pub crashes: u64,
    /// Outputs every repeat must reproduce exactly, by name.
    pub outputs: Vec<(String, String)>,
    /// Failed output checks.
    pub failures: Vec<String>,
}

impl Sample {
    fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    fn output(&mut self, name: &str, value: impl ToString) {
        self.outputs.push((name.to_string(), value.to_string()));
    }

    fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(failure());
        }
    }

    /// The sample as lines of `kind name value`.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            let _ = writeln!(out, "metric {name} {value}");
        }
        for (name, value) in &self.outputs {
            let _ = writeln!(out, "output {name} {value}");
        }
        let _ = writeln!(out, "attempted {}", self.attempted);
        let _ = writeln!(out, "crashes {}", self.crashes);
        for failure in &self.failures {
            let _ = writeln!(out, "failure {}", failure.replace('\n', " "));
        }
        out
    }

    /// Parses [`Sample::to_lines`] output.
    pub fn parse(text: &str) -> Result<Sample, String> {
        let mut sample = Sample::default();
        for line in text.lines() {
            let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
            let (name, value) = rest.split_once(' ').unwrap_or((rest, ""));
            let number = |v: &str| v.parse::<f64>().map_err(|e| format!("{line:?}: {e}"));
            match kind {
                "metric" => sample.metrics.push((name.to_string(), number(value)?)),
                "output" => sample.outputs.push((name.to_string(), value.to_string())),
                "attempted" => sample.attempted = number(name)? as u64,
                "crashes" => sample.crashes = number(name)? as u64,
                "failure" => sample.failures.push(rest.to_string()),
                _ => return Err(format!("unexpected sample line {line:?}")),
            }
        }
        Ok(sample)
    }
}

/// Peak resident set size of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Seed corpus, harness, and a zero-iteration campaign (seed lowering,
/// tracing and acceptance seeding): the work before the first iteration.
fn set_up(workload: Workload, seed: u64) -> Result<(SeedCorpus, DifferentialHarness, f64), String> {
    let start = Instant::now();
    let corpus = workload.corpus(seed, SEEDS);
    let harness = DifferentialHarness::paper_five();
    workload.run(corpus.classes(), &workload.config(seed, 0))?;
    Ok((corpus, harness, start.elapsed().as_secs_f64()))
}

/// Checks every reported discrepancy key against a fresh five-profile run
/// of the first class that produced it.
fn check_keys_reproduce(
    sample: &mut Sample,
    harness: &DifferentialHarness,
    result: &CampaignResult,
    eval: &Evaluation,
) {
    for (key, &index) in &eval.keys {
        let verdict = Verdict::of(&harness.run(&result.gen_classes[index].bytes));
        sample.check(verdict.keys().any(|k| &k == key), || {
            format!("key {key} of class {index} did not reproduce")
        });
    }
}

/// Checks that apply to every campaign and evaluation; records the
/// outputs that every repeat must reproduce.
fn check_common(
    sample: &mut Sample,
    workload: Workload,
    harness: &DifferentialHarness,
    result: &CampaignResult,
    eval: &Evaluation,
) {
    let generated = result.gen_classes.len();
    sample.check(generated > 0, || "campaign generated no classes".into());
    sample.check(eval.classes == generated, || {
        format!("evaluated {} of {generated} classes", eval.classes)
    });
    let shard_iterations: usize = result.shard_stats.iter().map(|s| s.iterations).sum();
    sample.check(shard_iterations == workload.iterations(), || {
        format!(
            "shards ran {shard_iterations} iterations of a {} budget",
            workload.iterations()
        )
    });
    let shard_generated: usize = result.shard_stats.iter().map(|s| s.generated).sum();
    sample.check(shard_generated == generated, || {
        format!("shards report {shard_generated} generated classes, the suite holds {generated}")
    });
    check_keys_reproduce(sample, harness, result, eval);
    sample.crashes += result.crashes.len() as u64;
    sample.attempted += (workload.iterations() + eval.classes) as u64;
    sample.output("generated", generated);
    sample.output("accepted", result.test_classes.len());
    sample.output("distinct_keys", eval.keys.len());
    sample.output("digest", campaign_digest(result));
    sample.output("eval_digest", eval.digest);
}

/// An untraced sample: the end-to-end metrics.
pub fn measure(workload: Workload, seed: u64) -> Result<Sample, String> {
    let mut sample = Sample::default();
    let (corpus, harness, setup_s) = set_up(workload, seed)?;
    let config = workload.config(seed, workload.iterations());

    let start = Instant::now();
    let result = workload.run(corpus.classes(), &config)?;
    let campaign_s = start.elapsed().as_secs_f64();
    let eval = evaluate(&harness, &result);

    let mut latencies = eval.latencies_us.clone();
    latencies.sort_by(f64::total_cmp);
    let tail = stats::tail(&latencies);
    sample.check(tail.is_some_and(|t| t.percentile >= 99.0), || {
        format!("{} evaluations are too few for a p99", latencies.len())
    });
    sample.metric("iters_per_s", workload.iterations() as f64 / campaign_s);
    sample.metric("eval_classes_per_s", eval.classes as f64 / eval.wall_s);
    sample.metric("eval_p50_us", stats::percentile_sorted(&latencies, 50.0));
    sample.metric("eval_p99_us", stats::percentile_sorted(&latencies, 99.0));
    sample.metric("eval_samples", latencies.len() as f64);
    sample.metric("setup_s", setup_s);
    match peak_rss_mb() {
        Some(mb) => sample.metric("peak_rss_mb", mb),
        None => sample.failures.push("cannot read VmHWM".into()),
    }

    check_common(&mut sample, workload, &harness, &result, &eval);
    Ok(sample)
}

/// A traced sample: the per-layer metrics. `spans_csv` receives the spans.
pub fn measure_traced(workload: Workload, seed: u64, spans_csv: &Path) -> Result<Sample, String> {
    let mut sample = Sample::default();
    let (corpus, harness, _) = set_up(workload, seed)?;
    let config = workload.config(seed, workload.iterations());

    // The untraced reference is the sequential engine, which the async
    // engine replays bit for bit at one shard. It runs once before the
    // traced replay and once after: the first run gives the digests and
    // warms the process up, the second is timed for the tracing overhead,
    // so both timed runs start equally warm.
    let run_untraced = || {
        let start = Instant::now();
        let result = run_campaign(corpus.classes(), &config);
        let campaign_s = start.elapsed().as_secs_f64();
        let eval = evaluate(&harness, &result);
        (result, eval, campaign_s)
    };
    let (reference, eval, _) = run_untraced();
    let digest = campaign_digest(&reference);
    drop(reference);

    // The async workload also times its engine at one shard and at
    // SCALING_SHARDS shards, for the scheduler metrics.
    let mut async_runs = None;
    if workload == Workload::Async1Shard {
        let time = |shards| {
            let start = Instant::now();
            run_campaign_parallel(corpus.classes(), &config, shards)
                .map(|result| (start.elapsed().as_secs_f64(), result))
                .map_err(|e| e.to_string())
        };
        let (one_shard_s, _) = time(1)?;
        let (multi_s, multi) = time(SCALING_SHARDS)?;
        let iterations: Vec<f64> = multi
            .shard_stats
            .iter()
            .map(|s| s.iterations as f64)
            .collect();
        let mean = iterations.iter().sum::<f64>() / iterations.len() as f64;
        let spread = iterations.iter().copied().fold(f64::MIN, f64::max)
            - iterations.iter().copied().fold(f64::MAX, f64::min);
        async_runs = Some((one_shard_s, multi_s, spread / mean));
    }

    COUNT_ALLOCATIONS.store(true, Ordering::SeqCst);
    let capacity = SEEDS + 1 + workload.iterations() * 16;
    let mut rec = Recorder::with_capacity(capacity);
    let (replayed, counters) = replay_campaign(corpus.classes(), &config, &mut rec)?;
    let traced_eval = evaluate_traced(&harness, &replayed, &mut rec);
    COUNT_ALLOCATIONS.store(false, Ordering::SeqCst);

    let (_, timed_eval, campaign_s) = run_untraced();
    let untraced_s = campaign_s + timed_eval.wall_s;
    // Sequential workloads have one shard and no scheduler: identities.
    let (scaling, imbalance, one_shard_overhead) = match async_runs {
        Some((one_shard_s, multi_s, imbalance)) => {
            (one_shard_s / multi_s, imbalance, one_shard_s / campaign_s)
        }
        None => (1.0, 0.0, 1.0),
    };
    let wall_ns = rec.wall_ns();

    sample.check(campaign_digest(&replayed) == digest, || {
        "traced replay diverged from run_campaign".into()
    });
    sample.check(traced_eval.digest == eval.digest, || {
        "traced evaluation diverged from the untraced one".into()
    });
    check_common(&mut sample, workload, &harness, &replayed, &traced_eval);

    let summaries = summarize(rec.spans());
    let summary = |stage: Stage| {
        &summaries
            .iter()
            .find(|(s, _)| *s == stage)
            .expect("every stage has a summary")
            .1
    };
    for stage in full_stages() {
        let s = summary(stage);
        let name = stage.name();
        sample.metric(format!("{name}.calls"), s.calls as f64);
        sample.metric(format!("{name}.share"), s.share(wall_ns));
        sample.metric(format!("{name}.p50_us"), s.percentile_us(50.0));
        sample.metric(format!("{name}.p99_us"), s.percentile_us(99.0));
        sample.metric(format!("{name}.allocs_per_call"), s.allocs_per_call());
    }
    for stage in PARTIAL_STAGES {
        let s = summary(stage);
        sample.metric(format!("{}.calls", stage.name()), s.calls as f64);
        sample.metric(format!("{}.share", stage.name()), s.share(wall_ns));
    }
    let iter = summary(Stage::Iteration);
    let accounted: u64 = summaries.iter().map(|(_, s)| s.self_ns).sum();
    let generated = replayed.gen_classes.len() as f64;
    let telemetry = replayed.acceptance;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    sample.metric("core.iter.p50_us", iter.percentile_us(50.0));
    sample.metric("core.iter.p99_us", iter.percentile_us(99.0));
    sample.metric("core.iter.max_us", iter.max_us());
    sample.metric("core.iter.allocs_per_call", iter.allocs_per_call());
    sample.metric(
        "mutation.applied_ratio",
        ratio(counters.applied as f64, counters.iterations as f64),
    );
    sample.metric(
        "vm.preparse.reject_ratio",
        ratio(
            traced_eval.preparse_rejects as f64,
            traced_eval.classes as f64,
        ),
    );
    sample.metric(
        "coverage.accept_ratio",
        ratio(replayed.test_classes.len() as f64, generated),
    );
    sample.metric(
        "coverage.fast_path_rate",
        telemetry.fast_path_rate().unwrap_or(0.0),
    );
    sample.metric("core.distinct_keys", traced_eval.keys.len() as f64);
    sample.metric(
        "core.unaccounted_share",
        1.0 - accounted as f64 / wall_ns.max(1) as f64,
    );
    sample.metric("trace.overhead", wall_ns as f64 / 1e9 / untraced_s);
    sample.metric("scheduler.shard_imbalance", imbalance);
    sample.metric("scheduler.scaling", scaling);
    sample.metric("scheduler.one_shard_overhead", one_shard_overhead);

    if let Err(e) = rec.write_csv(spans_csv) {
        sample
            .failures
            .push(format!("cannot write {}: {e}", spans_csv.display()));
    }
    Ok(sample)
}
