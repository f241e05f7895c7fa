//! FIG-3 — performance of MPSoC platform instances (on-chip memory, simple
//! controller, 1 wait state).
//!
//! The paper's bars: the collapsed AXI and STBus instances are almost
//! identical (with bridges out of the picture the interconnects all hit the
//! same memory bound); the full multi-layer STBus matches the single-layer
//! STBus (outstanding-transaction support compensates the longer path);
//! the full AHB platform collapses because its non-split bridges serialise
//! every transaction; and the distributed AXI platform with lightweight
//! blocking bridges loses most of AXI's advantage.

use super::Run;
use crate::platforms::{build_platform, MemorySystem, PlatformSpec, Topology};
use mpsoc_kernel::SimResult;
use mpsoc_protocol::ProtocolKind;
use std::fmt;

/// One bar of Figure 3.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct Fig3Bar {
    /// Instance label, as in the paper.
    pub label: String,
    /// Execution time in central-node cycles.
    pub exec_cycles: u64,
    /// Normalised to the full STBus platform.
    pub normalized: f64,
}

/// The Figure 3 bar chart.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct Fig3 {
    /// Bars in the paper's order.
    pub bars: Vec<Fig3Bar>,
}

impl Fig3 {
    /// Normalised execution time of a labelled instance.
    pub fn normalized(&self, label: &str) -> Option<f64> {
        self.bars
            .iter()
            .find(|b| b.label == label)
            .map(|b| b.normalized)
    }
}

impl fmt::Display for Fig3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "FIG-3 platform instances, on-chip memory (1 ws), normalized exec time"
        )?;
        for b in &self.bars {
            let hashes = "#".repeat((b.normalized * 24.0).round() as usize);
            writeln!(
                f,
                "{:<22} {:>10} cycles  {:>6.3}  {}",
                b.label, b.exec_cycles, b.normalized, hashes
            )?;
        }
        Ok(())
    }
}

/// Runs Figure 3.
///
/// # Errors
///
/// Fails if any platform instance stalls (model bug).
pub fn fig3(run: Run) -> SimResult<Fig3> {
    // The paper's "collapsed" bars make "the role of the bridges ...
    // negligible", i.e. they are single-layer instances; its third bar is
    // the single-layer STBus, the very platform of the collapsed STBus bar,
    // so that platform is simulated once and drawn twice.
    let variants: [(&[&str], ProtocolKind, Topology); 5] = [
        (&["collapsed AXI"], ProtocolKind::Axi, Topology::SingleLayer),
        (
            &["collapsed STBus", "single-layer STBus"],
            ProtocolKind::StbusT3,
            Topology::SingleLayer,
        ),
        (
            &["full STBus"],
            ProtocolKind::StbusT3,
            Topology::Distributed,
        ),
        (&["full AHB"], ProtocolKind::Ahb, Topology::Distributed),
        (
            &["distributed AXI"],
            ProtocolKind::Axi,
            Topology::Distributed,
        ),
    ];
    let mut bars = Vec::new();
    for (labels, protocol, topology) in variants {
        let spec = PlatformSpec {
            protocol,
            topology,
            memory: MemorySystem::OnChip { wait_states: 1 },
            ..run.platform_spec()
        };
        let mut platform = build_platform(&spec)?;
        let report = platform.run()?;
        bars.extend(labels.iter().map(|&label| Fig3Bar {
            label: label.to_owned(),
            exec_cycles: report.exec_cycles,
            normalized: 0.0,
        }));
    }
    let baseline = bars
        .iter()
        .find(|b| b.label == "full STBus")
        .map(|b| b.exec_cycles)
        .unwrap_or(1)
        .max(1);
    for b in &mut bars {
        b.normalized = b.exec_cycles as f64 / baseline as f64;
    }
    Ok(Fig3 { bars })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_shape_matches_paper() {
        let fig = fig3(Run::new(2, 0x0dab)).expect("runs");
        let collapsed_axi = fig.normalized("collapsed AXI").unwrap();
        let collapsed_stbus = fig.normalized("collapsed STBus").unwrap();
        let full_stbus = fig.normalized("full STBus").unwrap();
        let full_ahb = fig.normalized("full AHB").unwrap();
        let dist_axi = fig.normalized("distributed AXI").unwrap();
        let single = fig.normalized("single-layer STBus").unwrap();

        // Collapsed AXI ~ collapsed STBus.
        assert!(
            (collapsed_axi / collapsed_stbus - 1.0).abs() < 0.12,
            "collapsed variants nearly equal: {collapsed_axi} vs {collapsed_stbus}"
        );
        // Single-layer STBus ~ full STBus.
        assert!(
            (single / full_stbus - 1.0).abs() < 0.12,
            "single-layer vs full STBus: {single} vs {full_stbus}"
        );
        // Full AHB is clearly the worst.
        assert!(full_ahb > 1.3, "full AHB should collapse, got {full_ahb}");
        // Distributed AXI loses its advantage (between STBus and AHB,
        // clearly above the STBus instances).
        assert!(
            dist_axi > 1.1 && dist_axi < full_ahb + 0.2,
            "distributed AXI degraded by blocking bridges, got {dist_axi}"
        );
    }
}
