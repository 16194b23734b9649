#![warn(missing_docs)]
//! The classfuzz campaign benchmark: four end-to-end workloads over the
//! real fuzzing loop, and a traced outside-in replay of the same loop for
//! per-layer numbers. See `BENCHMARK.md` beside this package's manifest.

pub mod measure;
pub mod replay;
pub mod spans;
pub mod stats;
pub mod triage;
pub mod workload;
