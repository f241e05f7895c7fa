//! EXP-MO — Section 4.1.2: single-layer bus, many-to-one traffic.
//!
//! Twelve bursty initiators against one on-chip memory with 1 wait state.
//! The memory bounds the achievable response-channel efficiency at 50 %
//! (one transfer, one idle cycle); each protocol hides the handover
//! overhead by its own mechanism (early `HGRANTx`, same-cycle grant
//! propagation, burst overlapping), so the paper reports **no significant
//! performance differences** in this scenario.

use super::Run;
use crate::platforms::{build_single_layer, SingleLayerSpec};
use mpsoc_kernel::SimResult;
use mpsoc_protocol::ProtocolKind;
use std::fmt;

/// One protocol measurement.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct ManyToOneRow {
    /// Protocol under test.
    pub protocol: String,
    /// Execution time in bus cycles.
    pub exec_cycles: u64,
    /// Execution time normalised to the fastest protocol.
    pub normalized: f64,
    /// Response-channel efficiency (data cycles / busy cycles), where the
    /// model exposes it. ~0.5 against the 1-wait-state memory.
    pub response_efficiency: Option<f64>,
}

/// Result table of the many-to-one experiment.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct ManyToOne {
    /// Per-protocol rows.
    pub rows: Vec<ManyToOneRow>,
}

impl fmt::Display for ManyToOne {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "EXP-MO (§4.1.2) single-layer, 12 initiators x 1 memory (1 ws)"
        )?;
        writeln!(
            f,
            "{:<14} {:>12} {:>10} {:>12}",
            "protocol", "exec cycles", "normalized", "resp-eff"
        )?;
        for r in &self.rows {
            write!(
                f,
                "{:<14} {:>12} {:>10.3}",
                r.protocol, r.exec_cycles, r.normalized
            )?;
            match r.response_efficiency {
                Some(e) => writeln!(f, " {:>11.1}%", e * 100.0)?,
                None => writeln!(f, " {:>12}", "-")?,
            }
        }
        Ok(())
    }
}

/// Runs the many-to-one comparison.
///
/// # Errors
///
/// Fails if any platform instance stalls (model bug).
pub fn many_to_one(run: Run) -> SimResult<ManyToOne> {
    let mut rows = Vec::new();
    for protocol in [ProtocolKind::Ahb, ProtocolKind::StbusT2, ProtocolKind::Axi] {
        let mut platform = build_single_layer(&SingleLayerSpec {
            protocol,
            initiators: 12,
            targets: 1,
            ..run.single_layer_spec()
        })?;
        let report = platform.run()?;
        let bus = &report.buses[0];
        rows.push(ManyToOneRow {
            protocol: protocol.to_string(),
            exec_cycles: report.exec_cycles,
            normalized: 0.0,
            response_efficiency: bus.response_efficiency,
        });
    }
    let best = rows.iter().map(|r| r.exec_cycles).min().unwrap_or(1).max(1);
    for r in &mut rows {
        r.normalized = r.exec_cycles as f64 / best as f64;
    }
    Ok(ManyToOne { rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocols_perform_within_a_small_band() {
        let result = many_to_one(Run::new(2, 11)).expect("runs");
        let worst = result
            .rows
            .iter()
            .map(|r| r.normalized)
            .fold(0.0f64, f64::max);
        assert!(
            worst < 1.25,
            "many-to-one should not differentiate protocols much, worst {worst}"
        );
    }

    #[test]
    fn response_efficiency_is_near_half() {
        let result = many_to_one(Run::new(2, 11)).expect("runs");
        let stbus = result
            .rows
            .iter()
            .find(|r| r.protocol.contains("STBus"))
            .expect("stbus row");
        let eff = stbus.response_efficiency.expect("stbus exposes efficiency");
        assert!(
            (0.42..=0.60).contains(&eff),
            "1 ws memory caps efficiency near 50 %, got {eff}"
        );
    }
}
