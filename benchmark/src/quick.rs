//! `--quick` as a test: every workload at tiny sizes, untraced and traced,
//! with every output check on and no timing assertion. `cargo test` in
//! `benchmark/` runs it, so CI can adopt the benchmark's checks without
//! paying for its timings.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::RunArgs;
use crate::workloads;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Once;

/// Builds the release `simserved` of the root workspace once per test
/// process (a no-op when `run.sh` or an earlier run already did).
fn build_simserved() {
    static BUILT: Once = Once::new();
    BUILT.call_once(|| {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
        let status = Command::new(env!("CARGO"))
            .current_dir(&root)
            .args(["build", "--release", "--offline", "--quiet"])
            .args(["-p", "mpsoc-server", "--bin", "simserved"])
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building simserved failed");
    });
}

fn quick(workload: &str) {
    if workload.starts_with("serve") {
        build_simserved();
    }
    for trace in [false, true] {
        let args = RunArgs {
            seed: crate::expected::DEFAULT_SEED,
            seconds: 0.2,
            trace,
            quick: true,
            bench_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")),
        };
        let out = workloads::run(workload, &args).expect("measurable");
        assert!(
            out.correct(),
            "{workload} (trace {trace}): {} of {} failed: {:?}",
            out.failed,
            out.attempted,
            out.failures
        );
        assert!(out.attempted > 0);
        let rows = if trace {
            out.metrics.in_table(PER_LAYER, Some(0.0))
        } else {
            out.metrics.in_table(END_TO_END, None)
        }
        .expect("every metric of the table is reported");
        assert!(rows.iter().all(|(_, _, v)| v.is_finite()));
        if !trace {
            assert!(rows.iter().all(|(_, _, v)| *v > 0.0), "{rows:?}");
        } else {
            let path = args.out_dir().join(format!("trace-{workload}.jsonl"));
            let spans = std::fs::read_to_string(&path).expect("trace written");
            assert!(spans.lines().count() > 0);
            assert!(spans
                .lines()
                .all(|l| crate::json::parse(l).is_ok_and(|v| v.get("name").is_some())));
        }
    }
}

#[test]
fn quick_cycle_saturated() {
    quick("cycle_saturated");
}

#[test]
fn quick_cycle_platform() {
    quick("cycle_platform");
}

#[test]
fn quick_fast_gear() {
    quick("fast_gear");
}

#[test]
fn quick_dse_search() {
    quick("dse_search");
}

#[test]
fn quick_serve_hot() {
    quick("serve_hot");
}

#[test]
fn quick_serve_churn() {
    quick("serve_churn");
}
