//! EXT-NOC — the guideline-5 outlook, quantified.
//!
//! The paper closes by asking whether it is "really worth increasing bridge
//! complexity, instead of keeping lightweight bridges for path segmentation
//! ... and pushing complexity at the system interconnect boundaries, which
//! is known as the network-on-chip solution". This extension experiment
//! (beyond the paper's own evaluation) runs the saturated many-to-many
//! workload of §4.1.1 on three transport fabrics of growing parallelism:
//! a shared STBus node, an STBus full crossbar, and a 4×3 mesh NoC.
//!
//! The three fabrics are design-space candidates built by the explorer's
//! own candidate builder, so they share its shell: 2-deep issue and target
//! FIFOs and 1-wait-state on-chip memories, and 4-deep router port FIFOs
//! on the mesh.

use crate::build::{build_mesh, build_shared};
use crate::space::{Candidate, FabricFamily};
use mpsoc_kernel::SimResult;
use mpsoc_platform::experiments::Run;
use mpsoc_platform::Platform;
use mpsoc_stbus::ChannelTopology;
use std::fmt;

/// One fabric measurement.
#[derive(Debug, Clone)]
pub struct NocOutlookRow {
    /// Fabric label.
    pub fabric: String,
    /// Execution time in fabric cycles (250 MHz reference).
    pub exec_cycles: u64,
    /// Normalised to the shared bus.
    pub normalized: f64,
}

/// The EXT-NOC comparison.
#[derive(Debug, Clone)]
pub struct NocOutlook {
    /// Rows in increasing-parallelism order.
    pub rows: Vec<NocOutlookRow>,
}

impl NocOutlook {
    /// Lookup by fabric label.
    pub fn normalized(&self, fabric: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.fabric == fabric)
            .map(|r| r.normalized)
    }
}

impl fmt::Display for NocOutlook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "EXT-NOC transport fabrics under saturated many-to-many traffic"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<16} {:>10} cycles  {:>6.3}",
                r.fabric, r.exec_cycles, r.normalized
            )?;
        }
        Ok(())
    }
}

/// The on-chip candidate of `family` whose FIFOs at the memories (or the
/// mesh routers) are `target_fifo` deep.
fn fabric(family: FabricFamily, target_fifo: usize) -> Candidate {
    Candidate {
        index: 0,
        family,
        split_bridge: false,
        issue_fifo: 2,
        target_fifo,
        wait_states: 1,
        lmi: false,
        lmi_lookahead: 0,
        lmi_merging: false,
    }
}

fn exec_cycles(platform: SimResult<Platform>) -> SimResult<u64> {
    Ok(platform?.run()?.exec_cycles)
}

/// Runs EXT-NOC.
///
/// # Errors
///
/// Fails if any fabric instance stalls.
pub fn noc_outlook(run: Run) -> SimResult<NocOutlook> {
    let Run {
        scale, seed, exec, ..
    } = run;
    let bus = fabric(FabricFamily::SharedStbus, 2);
    let shared = exec_cycles(build_shared(
        &bus,
        ChannelTopology::SharedBus,
        scale,
        seed,
        exec,
    ))?;
    let crossbar = exec_cycles(build_shared(
        &bus,
        ChannelTopology::FullCrossbar,
        scale,
        seed,
        exec,
    ))?;
    let mesh = exec_cycles(build_mesh(
        &fabric(FabricFamily::NocMesh, 4),
        scale,
        seed,
        exec,
    ))?;
    let rows = vec![
        NocOutlookRow {
            fabric: "STBus shared".into(),
            exec_cycles: shared,
            normalized: 1.0,
        },
        NocOutlookRow {
            fabric: "STBus crossbar".into(),
            exec_cycles: crossbar,
            normalized: crossbar as f64 / shared as f64,
        },
        NocOutlookRow {
            fabric: "3x4 mesh NoC".into(),
            exec_cycles: mesh,
            normalized: mesh as f64 / shared as f64,
        },
    ];
    Ok(NocOutlook { rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both parallel fabrics win, and every cell (shared / crossbar / mesh
    /// cycles) is pinned: a moved cell is a changed table.
    #[test]
    fn parallel_fabrics_beat_the_shared_bus() {
        for (scale, seed, cells) in [
            (1, 0x0dab, [3702, 1540, 1548]),
            (1, 7, [3545, 1466, 1483]),
            (2, 0x0dab, [7427, 2962, 2968]),
        ] {
            let outlook = noc_outlook(Run::new(scale, seed)).expect("runs");
            let crossbar = outlook.normalized("STBus crossbar").expect("row");
            let mesh = outlook.normalized("3x4 mesh NoC").expect("row");
            assert!(crossbar < 1.0, "crossbar must win: {crossbar}");
            assert!(mesh < 1.0, "the mesh must win: {mesh}");
            let measured: Vec<u64> = outlook.rows.iter().map(|r| r.exec_cycles).collect();
            assert_eq!(measured, cells, "scale {scale} seed {seed:#x}");
        }
    }
}
