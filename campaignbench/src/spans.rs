//! Span recording for the traced replay.
//!
//! Spans are contiguous: each stage's span starts where the previous span
//! ended, so a run's stage spans tile its wall time and anything not
//! charged to a layer shows up as an explicit gap ([`Recorder::skip`]).
//! Every campaign iteration and every evaluated class is a parent span;
//! its index serves as the request id its stage spans point at. Spans live
//! in a preallocated vector and are written out once, after the run.

use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

use classfuzz_bench::alloc_count::allocation_events;

use crate::stats;

/// A layer boundary the replay times. Stage names follow the crate that
/// does the work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Parent span: one campaign iteration.
    Iteration,
    /// Parent span: one class's five-profile evaluation.
    Triage,
    /// Lowering and tracing one seed, or seeding the acceptance state.
    SeedPool,
    /// Pool pick plus mutator selection.
    Select,
    /// Copy-on-write clone plus the contained mutator application.
    Mutate,
    /// `main` supplement plus lowering to classfile bytes.
    Lower,
    /// Decoding classfile bytes once for every run that follows.
    Preparse,
    /// The traced hotspot9 reference startup, snapshot and fingerprint.
    Trace,
    /// The acceptance decision.
    Decide,
    /// Generated-class retention, pool push and selector bookkeeping.
    Record,
    /// One profile's startup run during evaluation, in harness order.
    Eval(usize),
    /// Assembling the outcome vector and its verdict keys.
    Classify,
}

/// The evaluation profiles' short names, in harness column order.
pub const PROFILES: [&str; 5] = ["hotspot7", "hotspot8", "hotspot9", "j9", "gij"];

impl Stage {
    /// Every stage, parents first.
    pub fn all() -> Vec<Stage> {
        let mut all = vec![
            Stage::Iteration,
            Stage::Triage,
            Stage::SeedPool,
            Stage::Select,
            Stage::Mutate,
            Stage::Lower,
            Stage::Preparse,
            Stage::Trace,
            Stage::Decide,
            Stage::Record,
        ];
        all.extend((0..PROFILES.len()).map(Stage::Eval));
        all.push(Stage::Classify);
        all
    }

    /// The stage's metric prefix, e.g. `"jimple.lower"`.
    pub fn name(self) -> String {
        match self {
            Stage::Iteration => "core.iter".into(),
            Stage::Triage => "core.triage".into(),
            Stage::SeedPool => "seed_pool".into(),
            Stage::Select => "mcmc.select".into(),
            Stage::Mutate => "mutation.apply".into(),
            Stage::Lower => "jimple.lower".into(),
            Stage::Preparse => "vm.preparse".into(),
            Stage::Trace => "vm.trace".into(),
            Stage::Decide => "coverage.decide".into(),
            Stage::Record => "core.record".into(),
            Stage::Eval(i) => format!("vm.eval.{}", PROFILES[i]),
            Stage::Classify => "core.classify".into(),
        }
    }
}

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What ran.
    pub stage: Stage,
    /// Index of the parent span, when inside a request.
    pub parent: Option<u32>,
    /// Start, in ns.
    pub start_ns: u64,
    /// End, in ns.
    pub end_ns: u64,
    /// Heap-allocation events during the span.
    pub allocs: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    last_ns: u64,
    last_allocs: u64,
    open: Option<u32>,
}

impl Recorder {
    /// A recorder whose clock starts now, with room for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Recorder {
        Recorder {
            spans: Vec::with_capacity(capacity),
            last_ns: 0,
            last_allocs: allocation_events(),
            open: None,
            origin: Instant::now(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a parent span starting where the previous span ended.
    pub fn open(&mut self, stage: Stage) {
        self.open = Some(self.spans.len() as u32);
        self.spans.push(Span {
            stage,
            parent: None,
            start_ns: self.last_ns,
            end_ns: self.last_ns,
            // The event count at the start until `close` turns it into
            // the span's own count.
            allocs: self.last_allocs,
        });
    }

    /// Closes the open parent span where its last child ended.
    pub fn close(&mut self) {
        if let Some(id) = self.open.take() {
            let span = &mut self.spans[id as usize];
            span.end_ns = self.last_ns;
            span.allocs = self.last_allocs - span.allocs;
        }
    }

    /// Ends `stage` now: records the span from the previous span's end to
    /// this instant, under the open parent.
    pub fn mark(&mut self, stage: Stage) {
        let now = self.now_ns();
        let allocs = allocation_events();
        self.spans.push(Span {
            stage,
            parent: self.open,
            start_ns: self.last_ns,
            end_ns: now,
            allocs: allocs - self.last_allocs,
        });
        self.last_ns = now;
        self.last_allocs = allocs;
    }

    /// Leaves a gap: the time since the previous span is charged to no
    /// layer (benchmark bookkeeping, such as output digests).
    pub fn skip(&mut self) {
        self.last_ns = self.now_ns();
        self.last_allocs = allocation_events();
    }

    /// Wall time covered so far: from the start to the last span's end.
    pub fn wall_ns(&self) -> u64 {
        self.last_ns
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as CSV (`id,parent,stage,start_ns,end_ns,allocs`).
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,stage,start_ns,end_ns,allocs")?;
        let mut line = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            line.clear();
            let parent = span.parent.map(|p| p.to_string()).unwrap_or_default();
            let _ = writeln!(
                line,
                "{id},{parent},{},{},{},{}",
                span.stage.name(),
                span.start_ns,
                span.end_ns,
                span.allocs
            );
            out.write_all(line.as_bytes())?;
        }
        out.flush()
    }
}

/// One stage's totals over a run.
#[derive(Debug, Clone, Default)]
pub struct StageSummary {
    /// Spans recorded.
    pub calls: u64,
    /// Sum of the spans' self times, in ns.
    pub self_ns: u64,
    /// Each span's duration, in µs. For a stage span this is its self
    /// time; for a parent it is the whole request.
    pub durations_us: Vec<f64>,
    /// Heap-allocation events across the spans.
    pub allocs: u64,
}

impl StageSummary {
    /// Self time as a share of `wall_ns`.
    pub fn share(&self, wall_ns: u64) -> f64 {
        self.self_ns as f64 / wall_ns.max(1) as f64
    }

    /// Nearest-rank percentile of the span durations, in µs.
    pub fn percentile_us(&self, p: f64) -> f64 {
        let mut sorted = self.durations_us.clone();
        sorted.sort_by(f64::total_cmp);
        stats::percentile_sorted(&sorted, p)
    }

    /// The longest span, in µs.
    pub fn max_us(&self) -> f64 {
        self.durations_us.iter().copied().fold(0.0, f64::max)
    }

    /// Allocation events per span.
    pub fn allocs_per_call(&self) -> f64 {
        self.allocs as f64 / self.calls.max(1) as f64
    }
}

/// Per-stage totals, in [`Stage::all`] order. A parent span's self time is
/// its duration minus what its stage spans cover.
pub fn summarize(spans: &[Span]) -> Vec<(Stage, StageSummary)> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent as usize].push((span.start_ns, span.end_ns));
        }
    }
    let mut summaries: Vec<(Stage, StageSummary)> = Stage::all()
        .into_iter()
        .map(|stage| (stage, StageSummary::default()))
        .collect();
    for (span, kids) in spans.iter().zip(&children) {
        let self_ns = stats::self_time(span.start_ns, span.end_ns, kids);
        if let Some((_, summary)) = summaries.iter_mut().find(|(s, _)| *s == span.stage) {
            summary.calls += 1;
            summary.self_ns += self_ns;
            summary
                .durations_us
                .push((span.end_ns - span.start_ns) as f64 / 1e3);
            summary.allocs += span.allocs;
        }
    }
    summaries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_tile_the_wall_and_parents_hold_no_self_time() {
        let mut rec = Recorder::with_capacity(16);
        for _ in 0..3 {
            rec.open(Stage::Iteration);
            rec.mark(Stage::Select);
            rec.mark(Stage::Mutate);
            rec.close();
        }
        rec.skip();
        rec.mark(Stage::Classify);
        let spans = rec.spans();
        assert_eq!(spans.len(), 10);
        let leaves: Vec<&Span> = spans
            .iter()
            .filter(|s| s.stage != Stage::Iteration)
            .collect();
        // Contiguous up to the skip, which leaves a gap before Classify.
        for pair in leaves[..6].windows(2) {
            assert_eq!(pair[1].start_ns, pair[0].end_ns);
        }
        assert_eq!(spans[0].start_ns, spans[1].start_ns);
        assert_eq!(spans[0].end_ns, spans[2].end_ns);
        assert_eq!(spans[4].parent, Some(3));
        let summary = summarize(spans);
        let get = |stage| &summary.iter().find(|(s, _)| *s == stage).unwrap().1;
        assert_eq!(get(Stage::Iteration).calls, 3);
        assert_eq!(get(Stage::Iteration).self_ns, 0);
        assert_eq!(get(Stage::Select).calls, 3);
        assert_eq!(get(Stage::Classify).calls, 1);
        let accounted: u64 = summary.iter().map(|(_, s)| s.self_ns).sum();
        assert!(accounted <= rec.wall_ns());
        assert_eq!(Stage::Eval(3).name(), "vm.eval.j9");
    }
}
