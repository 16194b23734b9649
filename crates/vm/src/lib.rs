#![warn(missing_docs)]
//! A miniature, policy-parameterised JVM for differential testing — the
//! substrate playing the role of the five JVM binaries in Table 3 of
//! *Coverage-Directed Differential Testing of JVM Implementations*
//! (PLDI 2016), plus the coverage-instrumented reference implementation.
//!
//! One startup engine implements the real pipeline — creation & loading
//! (format checking), linking (hierarchy checks + a dataflow bytecode
//! verifier), initialization (`<clinit>` interpretation), and invocation
//! (`main` interpretation) — and a [`VmSpec`] selects the vendor policy:
//! which checks run, when methods are verified, and which bootstrap library
//! generation is visible. Every check site is instrumented with coverage
//! probes, so running the `hotspot9` profile with [`Jvm::run_traced_into`] yields
//! the tracefiles classfuzz's uniqueness criteria consume.
//!
//! # Examples
//!
//! ```
//! use classfuzz_jimple::{lower::lower_class, IrClass};
//! use classfuzz_vm::{Jvm, VmSpec};
//!
//! let bytes = lower_class(&IrClass::with_hello_main("demo/A", "Completed!")).to_bytes();
//! for spec in VmSpec::all_five() {
//!     let result = Jvm::new(spec).run(&bytes);
//!     assert_eq!(result.outcome.phase().code(), 0); // normally invoked
//! }
//! ```

pub mod containment;
pub mod cov;
pub mod decode;
pub mod exec;
pub mod interp;
pub mod library;
pub mod linker;
pub mod loader;
pub mod outcome;
pub mod spec;
pub mod startup;
pub mod verifier;
pub mod world;

pub use containment::run_contained;
pub use cov::Cov;
pub use decode::{DecodedMethod, DecodedTable};
pub use exec::{ExecOutcome, ExecView};
pub use library::shared_library;
pub use outcome::{JvmError, JvmErrorKind, Outcome, Phase};
pub use spec::{FinalSuperError, JreGeneration, Vendor, VmSpec};
pub use startup::{preparse, ExecutionResult, Jvm, PreparsedClass};
pub use world::{UserClass, World};
