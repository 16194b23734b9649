//! The gated bench scenarios behind `covbench` and `scripts/bench_gate.sh`:
//! one registry ([`SCENARIOS`]) whose entries pair a workload's
//! measurement with the gates that hold it, one checker ([`check`]) and
//! one report renderer ([`to_json`]).
//!
//! A scenario's run writes `BENCH_<name>.json` and is judged against the
//! committed `BENCH_<name>.baseline.json`, which holds only the numbers its
//! gates read. Baseline numbers are machine-dependent and deliberately
//! pessimistic, so scheduler noise cannot fail the [`BUDGET`]; each
//! scenario's load-bearing check is a machine-independent in-run floor.
//! Adding a scenario is one more entry in [`SCENARIOS`].

use crate::{
    covbench, harnessbench, interpbench, mutatebench, scalebench, startupbench, yieldbench,
};

/// The regression budget: a [`Gate::Budget`] metric may be at most this
/// factor worse than its committed baseline (20%).
pub const BUDGET: f64 = 1.2;

/// One named number in a scenario report, rendered with `decimals`
/// places.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The report key.
    pub key: &'static str,
    /// The measured value.
    pub value: f64,
    /// Decimal places in the rendered report.
    pub decimals: usize,
}

impl Metric {
    /// A measured value with `decimals` rendered places.
    pub fn new(key: &'static str, value: f64, decimals: usize) -> Metric {
        Metric {
            key,
            value,
            decimals,
        }
    }

    /// An integer count.
    pub fn count(key: &'static str, n: usize) -> Metric {
        Metric::new(key, n as f64, 0)
    }
}

/// Which direction of a [`Gate::Budget`] metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Throughputs and yields.
    Higher,
    /// Latencies and allocation counts.
    Lower,
}

/// One pass/fail rule over a run's metrics and the committed baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// The run's metric must be at least this machine-independent floor.
    Floor(&'static str, f64),
    /// The run's metric must stay within [`BUDGET`] of the same key in the
    /// baseline.
    Budget(&'static str, Better),
    /// The run's `key` must be at least `times` the baseline's
    /// `committed` number (an old-path or cold-path throughput).
    OverCommitted {
        /// The run's metric.
        key: &'static str,
        /// The required multiple.
        times: f64,
        /// The baseline key holding the committed number.
        committed: &'static str,
    },
    /// The run's first metric must be strictly below its second.
    Below(&'static str, &'static str),
}

impl Gate {
    /// The baseline key this gate reads, if any.
    pub fn baseline_key(&self) -> Option<&'static str> {
        match *self {
            Gate::Budget(key, _) => Some(key),
            Gate::OverCommitted { committed, .. } => Some(committed),
            Gate::Floor(..) | Gate::Below(..) => None,
        }
    }

    /// One line saying what was compared: `Ok` when the gate holds, `Err`
    /// when it fails (a missing metric or baseline key fails).
    fn judge(&self, run: &[Metric], baseline_json: &str) -> Result<String, String> {
        let value = |key: &str| value(run, key).ok_or(format!("run is missing \"{key}\""));
        let committed = |key: &str| {
            json_number(baseline_json, key).ok_or(format!("baseline is missing \"{key}\""))
        };
        let (holds, line) = match *self {
            Gate::Floor(key, min) => {
                let v = value(key)?;
                (v >= min, format!("{key} {v:.2} vs floor {min:.2}"))
            }
            Gate::Budget(key, better) => {
                let (v, base) = (value(key)?, committed(key)?);
                let holds = match better {
                    Better::Higher => v >= base / BUDGET,
                    Better::Lower => v <= base * BUDGET,
                };
                let line = format!("{key} {v:.1} vs baseline {base:.1} (budget {BUDGET:.2}x)");
                (holds, line)
            }
            Gate::OverCommitted {
                key,
                times,
                committed: base_key,
            } => {
                let (v, base) = (value(key)?, committed(base_key)?);
                let line = format!("{key} {v:.1} vs {times:.1}x committed {base_key} {base:.1}");
                (v >= base * times, line)
            }
            Gate::Below(key, other) => {
                let (v, o) = (value(key)?, value(other)?);
                (v < o, format!("{key} {v:.1} must be below {other} {o:.1}"))
            }
        };
        if holds {
            Ok(line)
        } else {
            Err(line)
        }
    }
}

/// One gated scenario: its measurement and the gates that hold it.
///
/// Gate selection is a function of the run's metrics (scale swaps its
/// floor by core count) rather than part of the run, so the baseline keys
/// every entry reads can be checked without running it.
pub struct Scenario {
    /// The name `covbench --scenario` takes; the report and baseline files
    /// are named after it.
    pub name: &'static str,
    /// Measures the workload, `repeats` timed runs per arm; returns the
    /// report's metrics in order.
    pub run: fn(usize) -> Vec<Metric>,
    /// The gates that apply to a run's metrics.
    pub gates: fn(&[Metric]) -> Vec<Gate>,
}

impl Scenario {
    /// Where the fresh report goes: `BENCH_<name>.json`.
    pub fn report_path(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    /// The committed baseline: `BENCH_<name>.baseline.json`.
    pub fn baseline_path(&self) -> String {
        format!("BENCH_{}.baseline.json", self.name)
    }
}

/// Every gated scenario, in the order `covbench` runs them.
pub static SCENARIOS: [Scenario; 7] = [COVERAGE, HARNESS, MUTATE, INTERP, SCALE, YIELD, STARTUP];

/// The `[tr]` acceptance hot path (DESIGN.md §10): bitset index vs the
/// retained `BTreeSet` reference model on a same-statistic synthetic
/// suite, plus a fixed-seed classfuzz`[tr]` campaign's acceptance rate.
/// The baseline is pessimistic against a warm release run (bitset probe
/// ~48 ns, merge ~56 ns, ~3,700 accepted/s measured); the load-bearing
/// check is the ≥5× probe speedup over the reference model.
const COVERAGE: Scenario = Scenario {
    name: "coverage",
    run: covbench::run,
    gates: |_| {
        vec![
            Gate::Floor("tr_is_unique_speedup", 5.0),
            Gate::Budget("tr_is_unique_ns_bitset", Better::Lower),
            Gate::Budget("merge_ns_bitset", Better::Lower),
            Gate::Budget("accepted_per_sec", Better::Higher),
        ]
    },
};

/// The share-everything five-VM harness (DESIGN.md §11) and the
/// `--exec-diff` observer on top of it (§13), on the pinned 138-class
/// batch. The baseline pins the pre-sharing pipeline
/// (`classes_per_sec_old_path`, ~6,400/s measured warm), the shared
/// pipeline (~20,300/s) and the observer path (~21,000/s), all
/// pessimistic, plus the allocator events of one `preparse` per class
/// (47.2 measured, deterministic for the pinned batch). Load-bearing:
/// shared ≥2× cold in-run, shared ≥2× the committed old path, the
/// observer costs at most double (exec/preparsed ≥0.5; ~0.95–1.0
/// measured), and the parse's allocation budget.
const HARNESS: Scenario = Scenario {
    name: "harness",
    run: harnessbench::run,
    gates: |_| {
        vec![
            Gate::Floor("harness_speedup", 2.0),
            Gate::OverCommitted {
                key: "classes_per_sec_preparsed",
                times: 2.0,
                committed: "classes_per_sec_old_path",
            },
            Gate::Budget("classes_per_sec_preparsed", Better::Higher),
            Gate::Floor("exec_overhead_ratio", 0.5),
            Gate::Budget("classes_per_sec_exec", Better::Higher),
            Gate::Budget("allocs_per_class_preparse", Better::Lower),
        ]
    },
};

/// The clone → mutate → lower → serialize loop (DESIGN.md §12),
/// copy-on-write + scratch lowering vs deep clone + cold lowering. The
/// baseline pins the cold path (~35,000–55,000/s measured warm) and the
/// scratch path (~75,000–130,000/s), both pessimistic, plus the scratch
/// path's allocator events per candidate (33.9 measured, deterministic for
/// the pinned workload). Load-bearing: scratch ≥2× cold in-run, ≥2× the
/// committed cold path, and strictly fewer allocations than cold. The
/// counts come from the `covbench` binary's counting allocator; a run
/// without it reports zeros and fails the allocation gate.
const MUTATE: Scenario = Scenario {
    name: "mutate",
    run: mutatebench::run,
    gates: |_| {
        vec![
            Gate::Floor("mutate_speedup", 2.0),
            Gate::OverCommitted {
                key: "classes_per_sec_scratch",
                times: 2.0,
                committed: "classes_per_sec_cold",
            },
            Gate::Budget("classes_per_sec_scratch", Better::Higher),
            Gate::Budget("allocs_per_class_scratch", Better::Lower),
            Gate::Below("allocs_per_class_scratch", "allocs_per_class_cold"),
        ]
    },
};

/// The prepare-once interpreter (DESIGN.md §16) on a switch-heavy
/// hand-assembled class, prepared table vs per-call preparation. The
/// baseline is pessimistic against ~150,000 executions/s measured warm;
/// load-bearing: prepared ≥2× cold (~33–37× measured).
const INTERP: Scenario = Scenario {
    name: "interp",
    run: interpbench::run,
    gates: |_| {
        vec![
            Gate::Floor("prepared_speedup", 2.0),
            Gate::Budget("execs_per_sec_prepared", Better::Higher),
        ]
    },
};

/// The async engine's shard scaling and its one-shard async-vs-lockstep
/// discrepancy cross-check (DESIGN.md §14). The baseline is pessimistic
/// against ~35,000 iterations/s measured warm on one core. The cross-check
/// must pass unconditionally; where 2+ cores exist the scaling ratio must
/// clear ≥1.5×, and on one core, where no scaling is observable, one async
/// shard must instead stay within the budget of one lockstep shard.
const SCALE: Scenario = Scenario {
    name: "scale",
    run: scalebench::run,
    gates: |run| {
        let scaling = if value(run, "cores").unwrap_or(1.0) >= 2.0 {
            Gate::Floor("scaling_ratio", 1.5)
        } else {
            Gate::Floor("async_vs_lockstep_ratio", 1.0 / BUDGET)
        };
        vec![
            Gate::Floor("crosscheck_pass", 1.0),
            scaling,
            Gate::Budget("async_iters_per_sec_1shard", Better::Higher),
        ]
    },
};

/// Distinct discrepancy keys per fixed budget, uniform seeding vs
/// max-cover selection + distillation (DESIGN.md §15). Deterministic on
/// any machine; the baseline is set below the 21 keys measured so the
/// budget only fails on a real collapse. Load-bearing: maxcover ≥1.2×
/// uniform, and neither arm degenerate (uniform finds a key, the maxcover
/// arm distills).
const YIELD: Scenario = Scenario {
    name: "yield",
    run: yieldbench::run,
    gates: |_| {
        vec![
            Gate::Floor("yield_ratio", 1.2),
            Gate::Floor("uniform_keys", 1.0),
            Gate::Floor("distill_passes", 1.0),
            Gate::Budget("maxcover_keys", Better::Higher),
        ]
    },
};

/// Five-profile startup with the analyze-once verification table
/// (DESIGN.md §17) vs per-profile analysis, on a getstatic-heavy class.
/// The baseline is pessimistic against ~450 startups/s measured;
/// load-bearing: shared ≥2× cold (~3× measured).
const STARTUP: Scenario = Scenario {
    name: "startup",
    run: startupbench::run,
    gates: |_| {
        vec![
            Gate::Floor("shared_speedup", 2.0),
            Gate::Budget("startups_per_sec_shared", Better::Higher),
        ]
    },
};

/// The value of `key` in a run, if measured.
pub(crate) fn value(run: &[Metric], key: &str) -> Option<f64> {
    run.iter().find(|m| m.key == key).map(|m| m.value)
}

/// Judges every gate against a run and its baseline JSON: one line per
/// gate, `Err` for each that fails.
pub fn check(run: &[Metric], gates: &[Gate], baseline_json: &str) -> Vec<Result<String, String>> {
    gates.iter().map(|g| g.judge(run, baseline_json)).collect()
}

/// Renders a run as its `BENCH_<name>.json` report.
pub fn to_json(run: &[Metric]) -> String {
    let fields: Vec<String> = run
        .iter()
        .map(|m| format!("  \"{}\": {:.*}", m.key, m.decimals, m.value))
        .collect();
    format!("{{\n{}\n}}\n", fields.join(",\n"))
}

/// Pulls one numeric field out of a flat JSON object (the only shape the
/// bench reports use — no external JSON crate in this workspace).
pub fn json_number(json: &str, key: &str) -> Option<f64> {
    let pattern = format!("\"{key}\":");
    let at = json.find(&pattern)? + pattern.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_file(name: &str) -> String {
        let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
    }

    #[test]
    fn every_gate_shape_passes_and_fails() {
        let run = [
            Metric::count("batch", 138),
            Metric::new("fast", 10.0, 1),
            Metric::new("slow", 5.0, 1),
            Metric::new("ns", 100.0, 1),
            Metric::new("ratio", 0.25, 4),
        ];
        let json = to_json(&run);
        for m in &run {
            assert_eq!(json_number(&json, m.key), Some(m.value), "{json}");
        }
        assert_eq!(json_number(&json, "missing"), None);

        let baseline = "{\n  \"fast\": 11.0,\n  \"slow\": 7.0,\n  \"ns\": 80.0,\n  \
                        \"old\": 4.0\n}\n";
        let cases = [
            (Gate::Floor("fast", 10.0), true),
            (Gate::Floor("fast", 10.5), false),
            (Gate::Floor("absent", 0.0), false),
            // Higher is better: 10 >= 11 / 1.2, but 5 < 7 / 1.2.
            (Gate::Budget("fast", Better::Higher), true),
            (Gate::Budget("slow", Better::Higher), false),
            // Lower is better: 5 <= 7 * 1.2, but 100 > 80 * 1.2.
            (Gate::Budget("slow", Better::Lower), true),
            (Gate::Budget("ns", Better::Lower), false),
            (Gate::Budget("ratio", Better::Higher), false),
            (
                Gate::OverCommitted {
                    key: "fast",
                    times: 2.0,
                    committed: "old",
                },
                true,
            ),
            (
                Gate::OverCommitted {
                    key: "slow",
                    times: 2.0,
                    committed: "old",
                },
                false,
            ),
            (
                Gate::OverCommitted {
                    key: "fast",
                    times: 2.0,
                    committed: "gone",
                },
                false,
            ),
            (Gate::Below("slow", "fast"), true),
            (Gate::Below("fast", "slow"), false),
            (Gate::Below("fast", "fast"), false),
        ];
        for (gate, holds) in cases {
            let verdict = check(&run, &[gate], baseline).remove(0);
            assert_eq!(verdict.is_ok(), holds, "{gate:?}: {verdict:?}");
        }
        let missing = check(&run, &[Gate::Budget("ratio", Better::Higher)], baseline);
        assert_eq!(missing[0], Err("baseline is missing \"ratio\"".to_string()));
    }

    #[test]
    fn every_baseline_carries_the_keys_its_gates_read() {
        for scenario in &SCENARIOS {
            let baseline = repo_file(&scenario.baseline_path());
            for gate in (scenario.gates)(&[]) {
                if let Some(key) = gate.baseline_key() {
                    assert!(
                        json_number(&baseline, key).is_some(),
                        "{} lacks \"{key}\"",
                        scenario.baseline_path()
                    );
                }
            }
        }
    }

    #[test]
    fn ci_matrix_lists_every_scenario() {
        let ci = repo_file(".github/workflows/ci.yml");
        let line = ci
            .lines()
            .find_map(|l| l.trim().strip_prefix("scenario: ["))
            .expect("ci.yml has a `scenario: [..]` matrix");
        let matrix: Vec<&str> = line.trim_end_matches(']').split(", ").collect();
        let registry: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
        assert_eq!(matrix, registry);
    }
}
