//! EXP-MM — Section 4.1.1: single-layer bus, many-to-many traffic.
//!
//! Eight bursty initiators over four independent on-chip memories, with the
//! offered load swept from relaxed to saturating by shrinking the think
//! time. The paper's finding: STBus and AXI mask memory wait states by
//! processing parallel flows and perform similarly up to ~80 % utilisation,
//! above which AXI's five physical channels and cycle-granular arbitration
//! win — unless STBus is given deeper target FIFOs.

use super::{parallel_map, Run};
use crate::platforms::{build_single_layer, SingleLayerSpec};
use mpsoc_kernel::SimResult;
use mpsoc_protocol::ProtocolKind;
use std::fmt;

/// One protocol × offered-load measurement.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct ManyToManyRow {
    /// Protocol under test.
    pub protocol: String,
    /// Target-FIFO depth used.
    pub prefetch_fifo: usize,
    /// Mean think-time parameter (cycles) controlling offered load.
    pub think_cycles: u64,
    /// Execution time in bus cycles.
    pub exec_cycles: u64,
    /// Request-path utilisation of the bus.
    pub request_utilization: f64,
    /// Response-path utilisation of the bus.
    pub response_utilization: f64,
}

/// Result table of the many-to-many experiment.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct ManyToMany {
    /// All measurements.
    pub rows: Vec<ManyToManyRow>,
}

impl ManyToMany {
    /// Execution time of a given configuration, if measured.
    pub fn exec_cycles(&self, protocol: &str, think: u64, fifo: usize) -> Option<u64> {
        self.rows
            .iter()
            .find(|r| r.protocol == protocol && r.think_cycles == think && r.prefetch_fifo == fifo)
            .map(|r| r.exec_cycles)
    }
}

impl fmt::Display for ManyToMany {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "EXP-MM (§4.1.1) single-layer, 8 initiators x 4 memories, bursty reads"
        )?;
        writeln!(
            f,
            "{:<14} {:>5} {:>7} {:>12} {:>8} {:>8}",
            "protocol", "fifo", "think", "exec cycles", "req%", "resp%"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<14} {:>5} {:>7} {:>12} {:>7.1}% {:>7.1}%",
                r.protocol,
                r.prefetch_fifo,
                r.think_cycles,
                r.exec_cycles,
                r.request_utilization * 100.0,
                r.response_utilization * 100.0
            )?;
        }
        Ok(())
    }
}

/// Runs the many-to-many sweep with up to `run.jobs` worker threads.
///
/// Every grid cell is an independent single-layer simulation, so the result
/// table is identical for any `jobs`.
///
/// # Errors
///
/// Fails if any platform instance stalls (model bug).
pub fn many_to_many(run: Run) -> SimResult<ManyToMany> {
    // Offered load: high think = relaxed, zero think = saturating.
    let loads: [(u64, u64); 3] = [(600, 1000), (12, 36), (0, 4)];
    let mut grid = Vec::new();
    for protocol in [ProtocolKind::Ahb, ProtocolKind::StbusT2, ProtocolKind::Axi] {
        for &(lo, hi) in &loads {
            for fifo in [1usize, 4] {
                // The deep-FIFO variant only matters for STBus (the paper's
                // buffering counter-measure); keep the grid small elsewhere.
                if fifo > 1 && !protocol.is_stbus() {
                    continue;
                }
                grid.push((protocol, lo, hi, fifo));
            }
        }
    }
    let rows = parallel_map(grid, run.jobs, |(protocol, lo, hi, fifo)| {
        let mut platform = build_single_layer(&SingleLayerSpec {
            protocol,
            prefetch_fifo: fifo,
            think_cycles: (lo, hi),
            ..run.single_layer_spec()
        })?;
        let report = platform.run()?;
        let bus = &report.buses[0];
        Ok(ManyToManyRow {
            protocol: protocol.to_string(),
            prefetch_fifo: fifo,
            think_cycles: (lo + hi) / 2,
            exec_cycles: report.exec_cycles,
            request_utilization: bus.request_utilization,
            response_utilization: bus.response_utilization,
        })
    })
    .into_iter()
    .collect::<SimResult<Vec<_>>>()?;
    Ok(ManyToMany { rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advanced_protocols_beat_ahb_under_saturation() {
        let result = many_to_many(Run::new(2, 7)).expect("runs");
        let ahb = result.exec_cycles("AMBA AHB", 2, 1).expect("measured");
        let stbus = result.exec_cycles("STBus Type 2", 2, 1).expect("measured");
        let axi = result.exec_cycles("AMBA AXI", 2, 1).expect("measured");
        // Split protocols mask wait states across parallel targets; the
        // non-split AHB cannot.
        assert!(
            stbus < ahb && axi < ahb,
            "stbus {stbus}, axi {axi}, ahb {ahb}"
        );
    }

    #[test]
    fn deeper_stbus_fifos_help_under_saturation() {
        let result = many_to_many(Run::new(2, 7)).expect("runs");
        let shallow = result.exec_cycles("STBus Type 2", 2, 1).expect("measured");
        let deep = result.exec_cycles("STBus Type 2", 2, 4).expect("measured");
        assert!(deep <= shallow, "deep {deep} vs shallow {shallow}");
    }

    #[test]
    fn relaxed_load_equalizes_protocols() {
        let result = many_to_many(Run::new(2, 7)).expect("runs");
        let ahb = result.exec_cycles("AMBA AHB", 800, 1).expect("measured");
        let axi = result.exec_cycles("AMBA AXI", 800, 1).expect("measured");
        let ratio = ahb as f64 / axi as f64;
        assert!(
            ratio < 1.15,
            "at low load the protocols should be close, ratio {ratio}"
        );
    }
}
