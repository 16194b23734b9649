//! Bench-gate binary: runs the gated scenarios of
//! `classfuzz_bench::scenario::SCENARIOS` — all of them in table order, or
//! one — writes each `BENCH_<name>.json` report, judges it against the
//! committed `BENCH_<name>.baseline.json`, and exits nonzero if any gate
//! fails. Driven by `scripts/bench_gate.sh` and the CI bench-gates matrix.
//!
//! ```text
//! covbench [--scenario NAME] [--repeats N]
//! ```

use std::process::ExitCode;

use classfuzz_bench::alloc_count::GatedAllocator;
use classfuzz_bench::scenario::{check, to_json, Scenario, SCENARIOS};

/// The allocation gates' counts come from here; registered only in this
/// binary so library tests stay on the plain system allocator. It counts
/// only inside `count_allocations`, so the timed arms — the `scale`
/// scenario's shard threads above all — never touch the shared counter.
#[global_allocator]
static ALLOC: GatedAllocator = GatedAllocator;

/// The selected scenarios and the timed runs per arm (default 5).
fn parse_args() -> Result<(Vec<&'static Scenario>, usize), String> {
    let mut selected: Vec<&Scenario> = SCENARIOS.iter().collect();
    let mut repeats = 5;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match (flag.as_str(), args.next()) {
            ("--scenario", Some(name)) => {
                selected = SCENARIOS.iter().filter(|s| s.name == name).collect();
                if selected.is_empty() {
                    let names: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
                    return Err(format!(
                        "unknown scenario {name} (one of {})",
                        names.join(", ")
                    ));
                }
            }
            ("--repeats", Some(n)) => {
                repeats = n.parse().map_err(|e| format!("--repeats: {e}"))?;
                if repeats == 0 {
                    return Err("--repeats must be >= 1".to_string());
                }
            }
            ("--scenario" | "--repeats", None) => return Err(format!("{flag} needs a value")),
            (other, _) => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((selected, repeats))
}

/// Runs one scenario, writes its report and judges it; returns whether
/// every gate held.
fn gate(scenario: &Scenario, repeats: usize) -> Result<bool, String> {
    let baseline_path = scenario.baseline_path();
    let baseline = std::fs::read_to_string(&baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    eprintln!("covbench: scenario={} repeats={repeats} ...", scenario.name);
    let run = (scenario.run)(repeats);
    let json = to_json(&run);
    print!("{json}");
    let report_path = scenario.report_path();
    std::fs::write(&report_path, &json).map_err(|e| format!("cannot write {report_path}: {e}"))?;
    let mut held = true;
    for verdict in check(&run, &(scenario.gates)(&run), &baseline) {
        match verdict {
            Ok(line) => eprintln!("covbench: {}: ok: {line}", scenario.name),
            Err(line) => {
                eprintln!("covbench: {}: GATE FAIL: {line}", scenario.name);
                held = false;
            }
        }
    }
    Ok(held)
}

fn main() -> ExitCode {
    let (selected, repeats) = match parse_args() {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("covbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for scenario in selected {
        match gate(scenario, repeats) {
            Ok(true) => {}
            Ok(false) => failed.push(scenario.name),
            Err(message) => {
                eprintln!("covbench: {message}");
                failed.push(scenario.name);
            }
        }
    }
    if failed.is_empty() {
        eprintln!("covbench: every gate passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("covbench: gates failed in {}", failed.join(", "));
        ExitCode::FAILURE
    }
}
