//! # bench — experiment harness for the OnlineTune reproduction
//!
//! This crate contains the shared machinery that regenerates every table and figure of the
//! paper's evaluation section:
//!
//! * [`harness`] — [`run_session`], the one single-session loop (a tuner driving the
//!   simulated database over a workload generator for N intervals, each one a
//!   `fleet::interval::Interval`), which records per-iteration results and hands each
//!   to a hook;
//! * [`tuners`] — a factory that builds every baseline from the paper by name;
//! * [`report`] — table/series printing and JSON export used by the `fig*` binaries.
//!
//! The actual experiments live in `src/bin/`: one binary per figure/table, `profile`
//! (the seeded end-to-end fleet benchmark, a package of its own, see its README),
//! `scenario_fuzz` (the generated-timeline property sweep) and `telemetry_overhead` (the
//! enabled-sink cost and no-feedback gate).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod report;
pub mod tuners;

pub use harness::{run_session, IterationRecord, SessionOptions, SessionResult};
pub use tuners::{build_tuner, TunerKind};
