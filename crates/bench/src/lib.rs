//! # ldr-bench — experiment harness for the LDR reproduction
//!
//! Reruns the paper's evaluation (§4): scenario definitions, protocol
//! selection, the memoised/resumable [sweep engine](sweep), the
//! [registry of named grids](grids) (one per table/figure) that the
//! `sweepbench` binary drives, and the trace/prof forensics behind
//! `tracegrep`. See `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for recorded results.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type, clippy::allow_attributes_without_reason))]
#![cfg_attr(not(test), deny(clippy::allow_attributes))]

pub mod forensics;
pub mod grids;
pub mod profiling;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod sweep;
pub mod telemetry_export;
pub mod workpool;

pub use report::Summary;
pub use runner::{
    build_world, build_world_telemetry, run_once, run_once_faulted, trial_fault_plan,
};
pub use scenario::{Protocol, Scenario, SimFlavor};
