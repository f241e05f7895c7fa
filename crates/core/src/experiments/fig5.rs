//! FIG-5 — platform instances with the LMI memory controller and off-chip
//! DDR SDRAM.
//!
//! The memory response latency is now high (11 cycles to the first read
//! data word) and the controller optimises queued transactions, so
//! interconnects are differentiated by how well they keep the LMI input
//! FIFO filled:
//!
//! * collapsed STBus needs no bridge and exploits multiple outstanding
//!   transactions — it approaches the distributed STBus platform;
//! * collapsed AXI reaches the LMI through a simple protocol converter
//!   that cannot issue split transactions, so the FIFO never holds more
//!   than one entry and every controller optimisation is lost;
//! * the distributed AHB platform is the worst, its non-split blocking
//!   bridges compounding with the higher memory latency.

use super::Run;
use crate::platforms::{build_platform, MemorySystem, PlatformSpec, Topology};
use mpsoc_kernel::SimResult;
use mpsoc_memory::LmiConfig;
use mpsoc_protocol::ProtocolKind;
use std::fmt;

/// One bar of Figure 5.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct Fig5Bar {
    /// Instance label.
    pub label: String,
    /// Execution time in central-node cycles.
    pub exec_cycles: u64,
    /// Normalised to the full STBus platform.
    pub normalized: f64,
    /// SDRAM accesses issued by the controller.
    pub lmi_accesses: u64,
    /// Transactions absorbed by opcode merging.
    pub lmi_merged: u64,
    /// Row-buffer hit fraction.
    pub row_hit_rate: f64,
}

/// The Figure 5 bar chart.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct Fig5 {
    /// Bars in the paper's order.
    pub bars: Vec<Fig5Bar>,
}

impl Fig5 {
    /// Normalised execution time of a labelled instance.
    pub fn normalized(&self, label: &str) -> Option<f64> {
        self.bars
            .iter()
            .find(|b| b.label == label)
            .map(|b| b.normalized)
    }

    /// A labelled bar.
    pub fn bar(&self, label: &str) -> Option<&Fig5Bar> {
        self.bars.iter().find(|b| b.label == label)
    }
}

impl fmt::Display for Fig5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "FIG-5 platform instances with LMI controller + DDR SDRAM"
        )?;
        for b in &self.bars {
            let hashes = "#".repeat((b.normalized * 12.0).round() as usize);
            writeln!(
                f,
                "{:<18} {:>10} cycles  {:>6.3}  merged {:>4}  row-hit {:>5.1}%  {}",
                b.label,
                b.exec_cycles,
                b.normalized,
                b.lmi_merged,
                b.row_hit_rate * 100.0,
                hashes
            )?;
        }
        Ok(())
    }
}

/// Runs Figure 5.
///
/// # Errors
///
/// Fails if any platform instance stalls (model bug).
pub fn fig5(run: Run) -> SimResult<Fig5> {
    let variants: [(&str, ProtocolKind, Topology); 4] = [
        (
            "collapsed STBus",
            ProtocolKind::StbusT3,
            Topology::SingleLayer,
        ),
        ("collapsed AXI", ProtocolKind::Axi, Topology::SingleLayer),
        ("full STBus", ProtocolKind::StbusT3, Topology::Distributed),
        ("full AHB", ProtocolKind::Ahb, Topology::Distributed),
    ];
    let mut bars = Vec::new();
    for (label, protocol, topology) in variants {
        let spec = PlatformSpec {
            protocol,
            topology,
            memory: MemorySystem::Lmi(LmiConfig::default()),
            ..run.platform_spec()
        };
        let mut platform = build_platform(&spec)?;
        let report = platform.run()?;
        let lmi = report.lmi.first();
        let (accesses, merged, hit_rate) = lmi.map_or((0, 0, 0.0), |l| {
            let total = (l.row_hits + l.row_misses).max(1);
            (l.accesses, l.merged_txns, l.row_hits as f64 / total as f64)
        });
        bars.push(Fig5Bar {
            label: label.to_owned(),
            exec_cycles: report.exec_cycles,
            normalized: 0.0,
            lmi_accesses: accesses,
            lmi_merged: merged,
            row_hit_rate: hit_rate,
        });
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
    Ok(Fig5 { bars })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_shape_matches_paper() {
        let fig = fig5(Run::new(2, 0x0dab)).expect("runs");
        let col_stbus = fig.normalized("collapsed STBus").unwrap();
        let col_axi = fig.normalized("collapsed AXI").unwrap();
        let full_ahb = fig.normalized("full AHB").unwrap();

        // Collapsed STBus approaches the distributed STBus platform.
        assert!(
            col_stbus < 1.25,
            "collapsed STBus should stay close, got {col_stbus}"
        );
        // Collapsed AXI is much worse than collapsed STBus.
        assert!(
            col_axi > col_stbus * 1.3,
            "split-less converter must hurt AXI: {col_axi} vs {col_stbus}"
        );
        // The AHB gap has grown with respect to Fig. 3.
        assert!(full_ahb > 2.0, "AHB gap grows with LMI, got {full_ahb}");
    }

    #[test]
    fn collapsed_axi_loses_controller_optimizations() {
        let fig = fig5(Run::new(2, 0x0dab)).expect("runs");
        let stbus = fig.bar("collapsed STBus").unwrap();
        let axi = fig.bar("collapsed AXI").unwrap();
        // The blocking converter starves the input FIFO: fewer merges.
        assert!(
            axi.lmi_merged < stbus.lmi_merged,
            "axi merged {} vs stbus merged {}",
            axi.lmi_merged,
            stbus.lmi_merged
        );
    }
}
