//! The campaign benchmark's command.
//!
//! ```text
//! classfuzz-campaignbench [--workload NAME]... [--seed S] [--seconds N] [--repeats N] [--trace [0|1]]
//! ```
//!
//! Each workload runs as a closed loop in fresh child processes (this
//! binary re-executed with `--child`), one sample per process, until at
//! least `--repeats` samples exist and `--seconds` have passed. Without
//! `--trace` the run reports the end-to-end metrics, each as its best
//! sample; with it, the per-layer metrics of the traced replay, each as
//! its median sample. The report gives every metric with its unit,
//! quartiles and sample count; the last line of standard output is one
//! JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`. The command fails when any output check fails.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use classfuzz_bench::alloc_count::CountingAllocator;
use classfuzz_campaignbench::measure::{
    measure, measure_traced, per_layer, Sample, COUNT_ALLOCATIONS, END_TO_END,
};
use classfuzz_campaignbench::stats;
use classfuzz_campaignbench::workload::{Workload, DEFAULT_SEED};

/// The system allocator, counted by `CountingAllocator` only while
/// [`COUNT_ALLOCATIONS`] is set.
struct GatedAllocator;

// SAFETY: every call goes to `System`, directly or through
// `CountingAllocator`, which itself defers to `System`; memory allocated
// on one path and freed on the other is therefore always `System`'s.
unsafe impl GlobalAlloc for GatedAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNT_ALLOCATIONS.load(Ordering::Relaxed) {
            CountingAllocator.alloc(layout)
        } else {
            System.alloc(layout)
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNT_ALLOCATIONS.load(Ordering::Relaxed) {
            CountingAllocator.realloc(ptr, layout, new_size)
        } else {
            System.realloc(ptr, layout, new_size)
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNT_ALLOCATIONS.load(Ordering::Relaxed) {
            CountingAllocator.alloc_zeroed(layout)
        } else {
            System.alloc_zeroed(layout)
        }
    }
}

#[global_allocator]
static ALLOC: GatedAllocator = GatedAllocator;

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    repeats: usize,
    trace: bool,
    child: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 0.0,
        repeats: 5,
        trace: false,
        child: false,
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                let workload =
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?;
                options.workloads.push(workload);
            }
            "--seed" => options.seed = parse(&value("--seed")?, "--seed")?,
            "--seconds" => options.seconds = parse(&value("--seconds")?, "--seconds")?,
            "--repeats" => options.repeats = parse(&value("--repeats")?, "--repeats")?,
            "--trace" => {
                let level = args.next_if(|v| v == "0" || v == "1");
                options.trace = level.as_deref() != Some("0");
            }
            "--child" => options.child = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if options.workloads.is_empty() {
        options.workloads = Workload::ALL.to_vec();
    }
    if options.repeats == 0 || !(0.0..1e6).contains(&options.seconds) {
        return Err("--repeats must be at least 1 and --seconds in [0, 1e6)".into());
    }
    Ok(options)
}

fn parse<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    text.parse().map_err(|e| format!("{flag} {text}: {e}"))
}

/// Where the traced replay writes its spans: under the build directory,
/// which holds nothing the repository tracks.
fn spans_path(workload: Workload, seed: u64) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target)
        .join("bench")
        .join(format!("{}-{seed}.spans.csv", workload.name()))
}

/// Child mode: take one sample and print it.
fn run_child(options: &Options) -> ExitCode {
    let workload = options.workloads[0];
    let sample = if options.trace {
        measure_traced(workload, options.seed, &spans_path(workload, options.seed))
    } else {
        measure(workload, options.seed)
    };
    match sample {
        Ok(sample) => {
            print!("{}", sample.to_lines());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("campaignbench: {}: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}

/// Runs one sample in a fresh process of this binary.
fn spawn_sample(workload: Workload, options: &Options) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--child", "--workload", workload.name()])
        .args(["--seed", &options.seed.to_string()])
        .args(["--trace", if options.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a sample process: {e}"))?;
    if !output.status.success() {
        return Err(format!("sample process failed: {}", output.status));
    }
    Sample::parse(&String::from_utf8_lossy(&output.stdout))
}

/// One workload's aggregated result.
struct WorkloadResult {
    metrics: Vec<(String, &'static str, f64)>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

/// Samples `workload` until the time and repeat budgets are both spent,
/// prints its report, and aggregates the samples.
fn run_workload(workload: Workload, options: &Options) -> WorkloadResult {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(options.seconds);
    let mut samples: Vec<Sample> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    while samples.len() < options.repeats || start.elapsed() < budget {
        match spawn_sample(workload, options) {
            Ok(sample) => samples.push(sample),
            Err(e) => {
                failures.push(e);
                break;
            }
        }
    }

    let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for sample in &samples {
        for (name, value) in &sample.metrics {
            values.entry(name).or_default().push(*value);
        }
        failures.extend(sample.failures.iter().cloned());
    }
    if let Some(first) = samples.first() {
        for (i, sample) in samples.iter().enumerate().skip(1) {
            if sample.outputs != first.outputs {
                failures.push(format!("sample {i} outputs differ from sample 0"));
            }
        }
        if options.seed == DEFAULT_SEED {
            for (name, want) in workload.pins().named() {
                let got = first
                    .outputs
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| v);
                if got != Some(&want.to_string()) {
                    failures.push(format!("{name} is {got:?}, pinned {want}"));
                }
            }
        }
    }

    // Per-layer metrics report the median sample. End-to-end metrics
    // report the best sample: host interference only ever slows a sample
    // down, so the fastest one is the most repeatable estimate of what
    // the code itself costs (see BENCHMARK.md, "End-to-end metrics").
    let wanted: Vec<(String, &'static str, Option<bool>)> = if options.trace {
        per_layer().into_iter().map(|(n, u)| (n, u, None)).collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u, higher)| (n.to_string(), u, Some(higher)))
            .collect()
    };
    println!(
        "workload {} seed {} samples {} nproc {} threads {} mode {}",
        workload.name(),
        options.seed,
        samples.len(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        workload.threads(),
        if options.trace { "traced" } else { "untraced" },
    );
    let mut metrics = Vec::new();
    for (name, unit, higher_is_better) in wanted {
        match values.get(name.as_str()) {
            Some(v) if v.len() == samples.len() => {
                let [q1, median, q3] = stats::quartiles(v);
                let value = match higher_is_better {
                    None => stats::median(v),
                    Some(true) => v.iter().copied().fold(f64::MIN, f64::max),
                    Some(false) => v.iter().copied().fold(f64::MAX, f64::min),
                };
                println!(
                    "  {name:<38} {value:>14.4} {unit:<8} q1 {q1:.4} median {median:.4} q3 {q3:.4} n={}",
                    v.len()
                );
                metrics.push((name, unit, value));
            }
            _ => failures.push(format!("metric {name} missing from a sample")),
        }
    }
    if let Some(n) = values.get("eval_samples") {
        println!(
            "  eval latencies per sample: {} classes (median)",
            stats::median(n)
        );
    }
    let attempted: u64 = samples.iter().map(|s| s.attempted).sum();
    let crashes: u64 = samples.iter().map(|s| s.crashes).sum();
    for failure in &failures {
        println!("  FAILED: {failure}");
    }
    WorkloadResult {
        metrics,
        attempted: attempted.max(1),
        failed: crashes + failures.len() as u64,
        correct: failures.is_empty(),
    }
}

/// Renders the final result line. With one workload, metric names are
/// bare; with several, each is prefixed by its workload.
fn result_json(results: &[(Workload, WorkloadResult)]) -> String {
    let single = results.len() == 1;
    let mut metrics = Vec::new();
    for (workload, result) in results {
        for (name, unit, value) in &result.metrics {
            let key = if single {
                name.clone()
            } else {
                format!("{}.{name}", workload.name())
            };
            let value = if value.is_finite() { *value } else { 0.0 };
            metrics.push(format!(
                "\"{key}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        results.iter().all(|(_, r)| r.correct),
        results.iter().map(|(_, r)| r.attempted).sum::<u64>(),
        results.iter().map(|(_, r)| r.failed).sum::<u64>(),
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("campaignbench: {message}");
            return ExitCode::from(2);
        }
    };
    if options.child {
        return run_child(&options);
    }
    let results: Vec<(Workload, WorkloadResult)> = options
        .workloads
        .iter()
        .map(|&w| (w, run_workload(w, &options)))
        .collect();
    println!("{}", result_json(&results));
    if results.iter().all(|(_, r)| r.correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
