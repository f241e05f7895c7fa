//! EXP-ROB — fault injection and graceful degradation.
//!
//! The paper's platform is engineered for the *fault-free* steady state;
//! this experiment measures how the communication, memory and I/O
//! subsystems degrade when that assumption is relaxed. A deterministic
//! fault schedule (see `mpsoc_kernel::fault`) is armed on the distributed
//! STBus/LMI reference platform and swept over fault intensity × retry
//! budget. Every injected fault must be accounted for: recovered by the
//! retry/replay machinery, or abandoned with an explicit error completion —
//! never silently dropped. The zero-rate row reproduces the fault-free
//! baseline bit-for-bit, which is what makes the degradation numbers
//! trustworthy.

use super::{parallel_map, Run};
use crate::platforms::{build_platform, MemorySystem, PlatformSpec, Topology};
use mpsoc_kernel::{FaultSchedule, SimResult};
use mpsoc_memory::LmiConfig;
use mpsoc_protocol::ProtocolKind;
use std::fmt;

/// One fault-intensity × retry-budget measurement.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct RobustnessRow {
    /// Per-probe fault rate in events per million.
    pub rate_per_million: u32,
    /// Retransmission budget per transaction.
    pub retry_budget: u32,
    /// Execution time in reference-clock cycles.
    pub exec_cycles: u64,
    /// Throughput relative to the fault-free baseline (1.0 = no slowdown).
    pub relative_throughput: f64,
    /// Faults injected by the schedule.
    pub faults_injected: u64,
    /// Faults absorbed by retry/replay/degradation machinery.
    pub recovered: u64,
    /// Transactions abandoned after exhausting the retry budget.
    pub lost: u64,
    /// Retransmissions performed.
    pub retries: u64,
    /// Error completions delivered to initiators (one per lost
    /// response-expecting transaction).
    pub error_completions: u64,
    /// Times an LMI controller entered degraded (prefetch-shedding) mode.
    pub degraded_entries: u64,
    /// Mean end-to-end latency over all generators, in nanoseconds.
    pub mean_latency_ns: f64,
}

/// Result table of the robustness experiment.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct Robustness {
    /// All measurements, ordered by (rate, retry budget).
    pub rows: Vec<RobustnessRow>,
}

impl Robustness {
    /// The measurement for a given fault rate and retry budget, if present.
    pub fn row(&self, rate_per_million: u32, retry_budget: u32) -> Option<&RobustnessRow> {
        self.rows
            .iter()
            .find(|r| r.rate_per_million == rate_per_million && r.retry_budget == retry_budget)
    }

    /// The fault-free baseline row.
    pub fn baseline(&self) -> Option<&RobustnessRow> {
        self.rows.iter().find(|r| r.rate_per_million == 0)
    }
}

impl fmt::Display for Robustness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "EXP-ROB fault injection, distributed STBus/LMI platform (degradation table)"
        )?;
        writeln!(
            f,
            "{:>7} {:>6} {:>12} {:>6} {:>7} {:>9} {:>5} {:>7} {:>6} {:>8} {:>10}",
            "rate/M",
            "budget",
            "exec cycles",
            "thru",
            "faults",
            "recovered",
            "lost",
            "retries",
            "errors",
            "degraded",
            "mean ns"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>7} {:>6} {:>12} {:>6.3} {:>7} {:>9} {:>5} {:>7} {:>6} {:>8} {:>10.1}",
                r.rate_per_million,
                r.retry_budget,
                r.exec_cycles,
                r.relative_throughput,
                r.faults_injected,
                r.recovered,
                r.lost,
                r.retries,
                r.error_completions,
                r.degraded_entries,
                r.mean_latency_ns
            )?;
        }
        Ok(())
    }
}

/// Runs the robustness sweep with up to `run.jobs` worker threads.
///
/// Every grid cell builds its own platform with its own fault engine, so
/// the result table is identical for any `jobs`.
///
/// # Errors
///
/// Fails if any platform instance stalls or a fault goes unaccounted
/// (conservation violation — a model bug).
pub fn robustness(run: Run) -> SimResult<Robustness> {
    // Fault intensity sweep: 0 (baseline) to 5 % of probes faulting. The
    // baseline is measured once — with no faults the retry budget is dead
    // configuration and would only duplicate the row.
    let rates: [u32; 4] = [0, 2_000, 10_000, 50_000];
    let budgets: [u32; 2] = [1, 3];
    let mut grid = Vec::new();
    for &rate in &rates {
        for &budget in &budgets {
            if rate == 0 && budget != FaultSchedule::none().retry_budget {
                continue;
            }
            grid.push((rate, budget));
        }
    }
    let mut rows = parallel_map(grid, run.jobs, |(rate, budget)| {
        let mut platform = build_platform(&PlatformSpec {
            topology: Topology::Distributed,
            protocol: ProtocolKind::StbusT3,
            memory: MemorySystem::Lmi(LmiConfig::default()),
            ..run.platform_spec()
        })?;
        platform.arm_faults(FaultSchedule::uniform(rate, run.seed).with_retry_budget(budget));
        let report = platform.run()?;
        let counts = platform.fault_counts();
        if counts.unresolved() != 0 {
            return Err(mpsoc_kernel::SimError::InvalidConfig {
                reason: format!(
                    "fault conservation violated at rate {rate}: {} injected, {} recovered, {} lost",
                    counts.injected(),
                    counts.recovered,
                    counts.lost
                ),
            });
        }
        let sum_suffix = |suffix: &str| -> u64 {
            report
                .counters
                .iter()
                .filter(|(k, _)| k.ends_with(suffix))
                .map(|(_, v)| *v)
                .sum()
        };
        let completed: f64 = report.generators.iter().map(|g| g.completed as f64).sum();
        let mean_latency_ns = if completed > 0.0 {
            report
                .generators
                .iter()
                .map(|g| g.mean_latency_ns * g.completed as f64)
                .sum::<f64>()
                / completed
        } else {
            0.0
        };
        Ok(RobustnessRow {
            rate_per_million: rate,
            retry_budget: budget,
            exec_cycles: report.exec_cycles,
            relative_throughput: 0.0, // filled against the baseline below
            faults_injected: counts.injected(),
            recovered: counts.recovered,
            lost: counts.lost,
            retries: counts.retries,
            error_completions: sum_suffix(".error_responses"),
            degraded_entries: sum_suffix(".degraded_entries"),
            mean_latency_ns,
        })
    })
    .into_iter()
    .collect::<SimResult<Vec<_>>>()?;
    let baseline_cycles = rows
        .iter()
        .find(|r| r.rate_per_million == 0)
        .map(|r| r.exec_cycles)
        .unwrap_or(1);
    for row in &mut rows {
        row.relative_throughput = baseline_cycles as f64 / row.exec_cycles.max(1) as f64;
    }
    Ok(Robustness { rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_reproduces_the_fault_free_baseline() {
        // An armed all-zero schedule must be behaviourally invisible: the
        // baseline row has to match an entirely un-armed run bit-for-bit.
        let result = robustness(Run::new(1, 11)).expect("runs");
        let baseline = result.baseline().expect("baseline measured");
        assert_eq!(baseline.faults_injected, 0);
        assert_eq!(baseline.lost, 0);
        assert!((baseline.relative_throughput - 1.0).abs() < 1e-12);

        let mut unarmed = build_platform(&PlatformSpec {
            topology: Topology::Distributed,
            protocol: ProtocolKind::StbusT3,
            memory: MemorySystem::Lmi(LmiConfig::default()),
            scale: 1,
            seed: 11,
            ..PlatformSpec::default()
        })
        .expect("builds");
        let report = unarmed.run().expect("drains");
        assert_eq!(baseline.exec_cycles, report.exec_cycles);
    }

    #[test]
    fn faults_degrade_throughput_but_conserve_transactions() {
        let result = robustness(Run::new(1, 11)).expect("runs");
        let stressed = result.row(50_000, 3).expect("measured");
        assert!(stressed.faults_injected > 0, "faults must fire at 5 %");
        assert_eq!(
            stressed.faults_injected,
            stressed.recovered + stressed.lost,
            "every fault accounted for"
        );
        assert!(
            stressed.relative_throughput <= 1.0 + 1e-12,
            "faults cannot speed the platform up: {}",
            stressed.relative_throughput
        );
    }

    #[test]
    fn jobs_do_not_change_the_table() {
        let seq = robustness(Run::new(1, 11)).expect("runs");
        let par = robustness(Run {
            jobs: 4,
            ..Run::new(1, 11)
        })
        .expect("runs");
        assert_eq!(seq.to_string(), par.to_string());
    }

    #[test]
    fn bigger_retry_budget_loses_no_more_transactions() {
        let result = robustness(Run::new(1, 11)).expect("runs");
        let tight = result.row(10_000, 1).expect("measured");
        let roomy = result.row(10_000, 3).expect("measured");
        assert!(
            roomy.lost <= tight.lost,
            "budget 3 lost {} vs budget 1 lost {}",
            roomy.lost,
            tight.lost
        );
    }
}
