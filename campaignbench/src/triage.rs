//! Five-profile evaluation of a campaign's generated classes (the paper's
//! Table 6 GenClasses row) and the digests that pin campaign and
//! evaluation outputs.

use std::collections::BTreeMap;
use std::time::Instant;

use classfuzz_core::diff::{DifferentialHarness, OutcomeVector};
use classfuzz_core::engine::CampaignResult;
use classfuzz_vm::preparse;

use crate::spans::{Recorder, Stage};

/// 64-bit FNV-1a, folded field by field.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes, length-prefixed so field boundaries count.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one integer.
    pub fn word(&mut self, value: u64) {
        for b in value.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Folds everything a campaign produced that must replay exactly: each
/// generated class's bytes, mutator and accept flag, the suite indices,
/// the execution reports, the crashes, the selector statistics and the
/// acceptance telemetry. Wall-clock fields are left out.
pub fn campaign_digest(result: &CampaignResult) -> u64 {
    let mut d = Digest::default();
    d.word(result.gen_classes.len() as u64);
    for g in &result.gen_classes {
        d.bytes(&g.bytes);
        d.word(g.mutator_id as u64);
        d.word(u64::from(g.accepted));
    }
    for &i in &result.test_classes {
        d.word(i as u64);
    }
    for r in &result.exec_reports {
        d.word(r.gen_index as u64);
        d.bytes(r.startup_key.as_bytes());
        d.bytes(r.exec_key.as_bytes());
        d.bytes(r.taxonomy.map_or("-", |t| t.label()).as_bytes());
    }
    for c in &result.crashes {
        d.bytes(&c.bytes);
        d.bytes(c.detail.as_bytes());
    }
    for s in &result.mutator_stats {
        d.word(s.selected);
        d.word(s.successes);
    }
    let t = &result.acceptance;
    for v in [
        t.offered,
        t.accepted,
        t.fingerprint_fast_path,
        t.word_compare_fallbacks,
        t.exec_runs,
        t.exec_discrepancies,
        t.distill_passes,
        t.distill_evicted,
    ] {
        d.word(v);
    }
    d.value()
}

/// One class's triage verdict: the startup phase key and the execution
/// key, plus which of them is a discrepancy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Five phase digits, e.g. `"00010"`.
    pub key: String,
    /// `|`-joined execution verdict tokens.
    pub exec_key: String,
    /// The startup digits differ.
    pub discrepancy: bool,
    /// Uniform startup, divergent execution.
    pub exec_discrepancy: bool,
}

impl Verdict {
    /// Reads the verdict off an outcome vector.
    pub fn of(vector: &OutcomeVector) -> Verdict {
        Verdict {
            key: vector.key(),
            exec_key: vector.exec_key(),
            discrepancy: vector.is_discrepancy(),
            exec_discrepancy: vector.is_exec_discrepancy(),
        }
    }

    /// The distinct-discrepancy keys this verdict contributes: the startup
    /// key when the phases differ, and the `startup>exec` compound key
    /// when only execution differs (the yield gate's encoding).
    pub fn keys(&self) -> impl Iterator<Item = String> + '_ {
        let startup = self.discrepancy.then(|| self.key.clone());
        let exec = self
            .exec_discrepancy
            .then(|| format!("{}>{}", self.key, self.exec_key));
        startup.into_iter().chain(exec)
    }
}

/// What evaluating a campaign's generated classes produced.
#[derive(Debug, Clone, Default)]
pub struct Evaluation {
    /// Classes evaluated.
    pub classes: usize,
    /// Per-class latency in µs (empty for the traced evaluation, whose
    /// timings are spans).
    pub latencies_us: Vec<f64>,
    /// Total time spent evaluating, in seconds.
    pub wall_s: f64,
    /// Every distinct discrepancy key, with the index of the first
    /// generated class that produced it.
    pub keys: BTreeMap<String, usize>,
    /// Digest of every class's startup and execution keys, in order.
    pub digest: u64,
    /// Classes whose bytes failed to parse (counted by the traced
    /// evaluation only).
    pub preparse_rejects: usize,
}

impl Evaluation {
    fn record(&mut self, index: usize, verdict: &Verdict, digest: &mut Digest) {
        digest.bytes(verdict.key.as_bytes());
        digest.bytes(verdict.exec_key.as_bytes());
        for key in verdict.keys() {
            self.keys.entry(key).or_insert(index);
        }
        self.classes += 1;
    }
}

/// Evaluates every generated class on the five profiles, timing each
/// class from its bytes to its verdict.
pub fn evaluate(harness: &DifferentialHarness, result: &CampaignResult) -> Evaluation {
    let mut eval = Evaluation {
        latencies_us: Vec::with_capacity(result.gen_classes.len()),
        ..Evaluation::default()
    };
    let mut digest = Digest::default();
    let mut busy = 0.0;
    for (index, generated) in result.gen_classes.iter().enumerate() {
        let start = Instant::now();
        let verdict = Verdict::of(&harness.run_parsed(&preparse(&generated.bytes)));
        let seconds = start.elapsed().as_secs_f64();
        busy += seconds;
        eval.latencies_us.push(seconds * 1e6);
        eval.record(index, &verdict, &mut digest);
    }
    eval.wall_s = busy;
    eval.digest = digest.value();
    eval
}

/// [`evaluate`] with a span per layer call: one decode, each profile's
/// startup on its own, then the outcome vector and its keys.
pub fn evaluate_traced(
    harness: &DifferentialHarness,
    result: &CampaignResult,
    rec: &mut Recorder,
) -> Evaluation {
    let mut eval = Evaluation::default();
    let mut digest = Digest::default();
    for (index, generated) in result.gen_classes.iter().enumerate() {
        rec.open(Stage::Triage);
        let parsed = preparse(&generated.bytes);
        rec.mark(Stage::Preparse);
        eval.preparse_rejects += usize::from(!parsed.is_parsed());
        let outcomes = harness
            .jvms()
            .iter()
            .enumerate()
            .map(|(profile, jvm)| {
                let outcome = jvm.run_parsed(&parsed).outcome;
                rec.mark(Stage::Eval(profile));
                outcome
            })
            .collect();
        let verdict = Verdict::of(&OutcomeVector::new(outcomes));
        rec.mark(Stage::Classify);
        rec.close();
        eval.record(index, &verdict, &mut digest);
        rec.skip();
    }
    eval.digest = digest.value();
    eval
}
