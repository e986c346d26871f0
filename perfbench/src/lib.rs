//! End-to-end and per-layer benchmark of the sbcrawl workspace.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload (see `README.md` in this directory): untraced, it
//! prints the end-to-end metrics; traced, it wraps every layer the crawl
//! takes as a trait object and prints the per-layer metrics. Either way
//! it checks the workload's outputs and fails when a check fails.

pub mod harness;
pub mod metrics;
pub mod stamp;
pub mod trace;
pub mod workloads;
pub mod wrap;
