//! The six workloads. Names are permanent: later changes state claims
//! against them.

pub mod cycle;
pub mod dse;
pub mod fast_gear;
pub mod serve;

use crate::run::{Outcome, RunArgs};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 6] = [
    "cycle_saturated",
    "cycle_platform",
    "fast_gear",
    "dse_search",
    "serve_hot",
    "serve_churn",
];

/// Runs one workload.
///
/// # Errors
///
/// Returns a message when the workload could not be measured at all (an
/// unknown name, a server that did not start); failed operations and
/// checks are counted in the [`Outcome`] instead.
pub fn run(name: &str, args: &RunArgs) -> Result<Outcome, String> {
    match name {
        "cycle_saturated" => cycle::run(cycle::Kind::Saturated, args),
        "cycle_platform" => cycle::run(cycle::Kind::Platform, args),
        "fast_gear" => fast_gear::run(args),
        "dse_search" => dse::run(args),
        "serve_hot" => serve::run(serve::Kind::Hot, args),
        "serve_churn" => serve::run(serve::Kind::Churn, args),
        other => Err(format!(
            "unknown workload '{other}' (expected one of {})",
            NAMES.join(", ")
        )),
    }
}
