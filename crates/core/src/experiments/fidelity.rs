//! EXT-TLM — the multi-abstraction trade-off, quantified.
//!
//! The paper's virtual platform supports multiple abstraction levels so the
//! analysis can trade simulation speed against timing accuracy. This
//! extension experiment runs the same reference workload at cycle-accurate
//! and at transaction-level fidelity and reports both the predicted
//! execution time (accuracy) and the host wall-clock time (speed).
//!
//! Against the reference (memory-bound) workload the TLM estimate lands
//! within a few percent of the cycle-accurate one — an experimental echo of
//! the paper's guideline 2: with a centralized slave bottleneck the
//! interconnect detail contributes little. The divergence grows exactly
//! where guideline 1 says it should: under many-to-many contention.

use super::Run;
use crate::platforms::{build_platform, Interconnect, PlatformSpec};
use mpsoc_kernel::SimResult;
use std::fmt;

/// One fidelity measurement.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct FidelityRow {
    /// Fidelity label.
    pub fidelity: String,
    /// Predicted platform execution time (central-node cycles).
    pub exec_cycles: u64,
    /// Host wall-clock microseconds spent simulating.
    pub wall_us: u128,
}

/// The EXT-TLM comparison.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct FidelityStudy {
    /// Cycle-accurate and transaction-level rows.
    pub rows: Vec<FidelityRow>,
    /// Timing estimation error of the TLM run versus cycle-accurate.
    pub timing_error: f64,
    /// Host-time speedup of the TLM run.
    pub speedup: f64,
}

impl fmt::Display for FidelityStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "EXT-TLM multi-abstraction speed/accuracy trade-off")?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<18} {:>10} cycles  {:>8} us host time",
                r.fidelity, r.exec_cycles, r.wall_us
            )?;
        }
        writeln!(
            f,
            "TLM timing error {:.1}%  /  host-time speedup {:.2}x",
            self.timing_error * 100.0,
            self.speedup
        )
    }
}

/// Runs EXT-TLM.
///
/// # Errors
///
/// Fails if a platform instance stalls.
pub fn fidelity_study(run: Run) -> SimResult<FidelityStudy> {
    let mut rows = Vec::new();
    let mut cycles = [0u64; 2];
    let mut wall = [0u128; 2];
    for (i, (label, interconnect)) in [
        ("cycle-accurate", Interconnect::CycleAccurate),
        ("transaction-level", Interconnect::TransactionLevel),
    ]
    .into_iter()
    .enumerate()
    {
        let spec = PlatformSpec {
            interconnect,
            ..run.platform_spec()
        };
        let mut platform = build_platform(&spec)?;
        let started = std::time::Instant::now();
        let report = platform.run()?;
        wall[i] = started.elapsed().as_micros();
        cycles[i] = report.exec_cycles;
        rows.push(FidelityRow {
            fidelity: label.to_owned(),
            exec_cycles: report.exec_cycles,
            wall_us: wall[i],
        });
    }
    let timing_error = (cycles[1] as f64 - cycles[0] as f64).abs() / cycles[0].max(1) as f64;
    let speedup = wall[0] as f64 / wall[1].max(1) as f64;
    Ok(FidelityStudy {
        rows,
        timing_error,
        speedup,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tlm_tracks_cycle_accurate_timing_when_memory_bound() {
        let study = fidelity_study(Run::new(2, 0x0dab)).expect("runs");
        assert_eq!(study.rows.len(), 2);
        // Under the reference workload the single memory is the bottleneck,
        // so the contention-free transport should land close to the
        // cycle-accurate estimate (the paper's guideline 2/4 in disguise:
        // interconnect detail matters little against a centralized slave).
        assert!(
            study.timing_error < 0.15,
            "TLM should track the memory-bound estimate, error {}",
            study.timing_error
        );
        assert!(study.rows.iter().all(|r| r.exec_cycles > 0));
    }
}
