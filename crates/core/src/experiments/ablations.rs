//! Ablation experiments for the design choices the paper calls out.

use super::Run;
use crate::platforms::{
    build_platform, build_single_layer, MemorySystem, PlatformSpec, SingleLayerSpec, Topology,
};
use mpsoc_bridge::{BridgeConfig, ReadPolicy};
use mpsoc_kernel::SimResult;
use mpsoc_memory::LmiConfig;
use mpsoc_protocol::{ArbitrationPolicy, ProtocolKind};
use std::fmt;

/// ABL-BUF — STBus target-FIFO depth sweep under many-to-many saturation.
///
/// The paper notes STBus "bridges the performance gap by adding more
/// buffering resources at the target interfaces"; this sweep quantifies
/// that knob against the AXI reference.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct BufferingAblation {
    /// `(fifo depth, exec cycles)` for STBus.
    pub stbus: Vec<(usize, u64)>,
    /// AXI reference execution time at minimum buffering.
    pub axi_reference: u64,
}

impl fmt::Display for BufferingAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ABL-BUF STBus target-FIFO depth vs AXI (saturated many-to-many)"
        )?;
        for (depth, cycles) in &self.stbus {
            let gap = *cycles as f64 / self.axi_reference as f64;
            writeln!(
                f,
                "STBus fifo={depth:<2} {cycles:>10} cycles  ({gap:.3}x AXI @ {})",
                self.axi_reference
            )?;
        }
        Ok(())
    }
}

/// Runs ABL-BUF.
///
/// # Errors
///
/// Fails if a platform instance stalls.
pub fn buffering_ablation(run: Run) -> SimResult<BufferingAblation> {
    // Saturating, write-heavy traffic: write data shares the STBus request
    // channel with read requests, which is where target-side buffering can
    // claw performance back.
    let base = SingleLayerSpec {
        think_cycles: (0, 4),
        read_fraction: 0.45,
        ..run.single_layer_spec()
    };
    let mut stbus = Vec::new();
    for depth in [1usize, 2, 4, 8] {
        let mut p = build_single_layer(&SingleLayerSpec {
            protocol: ProtocolKind::StbusT2,
            prefetch_fifo: depth,
            ..base.clone()
        })?;
        stbus.push((depth, p.run()?.exec_cycles));
    }
    let mut axi = build_single_layer(&SingleLayerSpec {
        protocol: ProtocolKind::Axi,
        ..base
    })?;
    Ok(BufferingAblation {
        stbus,
        axi_reference: axi.run()?.exec_cycles,
    })
}

/// ABL-BRG — bridge functionality in the distributed AXI platform.
///
/// Guideline 5 of the paper: protocol features are "vanished by the
/// deployment of lightweight bridges with basic functionality". This
/// ablation swaps the blocking bridges of the distributed AXI platform for
/// split-capable ones and measures the recovery.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct BridgeAblation {
    /// Execution time with blocking (lightweight) bridges.
    pub blocking_cycles: u64,
    /// Execution time with split-capable bridges.
    pub split_cycles: u64,
    /// Full STBus reference (proprietary GenConv bridges).
    pub stbus_reference: u64,
}

impl fmt::Display for BridgeAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ABL-BRG distributed AXI bridge functionality")?;
        writeln!(f, "blocking bridges   {:>10} cycles", self.blocking_cycles)?;
        writeln!(f, "split bridges      {:>10} cycles", self.split_cycles)?;
        writeln!(f, "full STBus (ref)   {:>10} cycles", self.stbus_reference)?;
        Ok(())
    }
}

/// Runs ABL-BRG.
///
/// # Errors
///
/// Fails if a platform instance stalls.
pub fn bridge_ablation(run: Run) -> SimResult<BridgeAblation> {
    let base = PlatformSpec {
        protocol: ProtocolKind::Axi,
        topology: Topology::Distributed,
        memory: MemorySystem::OnChip { wait_states: 1 },
        ..run.platform_spec()
    };
    let blocking_cycles = {
        let mut p = build_platform(&base)?;
        p.run()?.exec_cycles
    };
    let split_cycles = {
        let mut split = BridgeConfig::lightweight();
        split.read_policy = ReadPolicy::Split { max_outstanding: 8 };
        split.req_fifo_depth = 4;
        split.resp_fifo_depth = 4;
        let spec = PlatformSpec {
            cluster_bridge: Some(split),
            ..base.clone()
        };
        let mut p = build_platform(&spec)?;
        p.run()?.exec_cycles
    };
    let stbus_reference = {
        let spec = PlatformSpec {
            protocol: ProtocolKind::StbusT3,
            ..base
        };
        let mut p = build_platform(&spec)?;
        p.run()?.exec_cycles
    };
    Ok(BridgeAblation {
        blocking_cycles,
        split_cycles,
        stbus_reference,
    })
}

/// ABL-LMI — the controller's optimization engine under full-platform
/// traffic: lookahead depth × opcode merging.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct LmiAblation {
    /// `(lookahead, merging, exec cycles, row-hit rate, merged txns)`.
    pub rows: Vec<LmiAblationRow>,
}

/// One configuration of the LMI ablation.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct LmiAblationRow {
    /// Lookahead window depth.
    pub lookahead: usize,
    /// Whether opcode merging is enabled.
    pub merging: bool,
    /// Execution time in central-node cycles.
    pub exec_cycles: u64,
    /// Row-buffer hit fraction.
    pub row_hit_rate: f64,
    /// Transactions absorbed by merging.
    pub merged_txns: u64,
}

impl fmt::Display for LmiAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ABL-LMI lookahead x merging under full-platform traffic")?;
        writeln!(
            f,
            "{:>9} {:>8} {:>12} {:>9} {:>7}",
            "lookahead", "merging", "exec cycles", "row-hit", "merged"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>9} {:>8} {:>12} {:>8.1}% {:>7}",
                r.lookahead,
                r.merging,
                r.exec_cycles,
                r.row_hit_rate * 100.0,
                r.merged_txns
            )?;
        }
        Ok(())
    }
}

/// Runs ABL-LMI.
///
/// # Errors
///
/// Fails if a platform instance stalls.
pub fn lmi_ablation(run: Run) -> SimResult<LmiAblation> {
    let mut rows = Vec::new();
    for lookahead in [0usize, 2, 4, 8] {
        for merging in [false, true] {
            let cfg = LmiConfig {
                lookahead_depth: lookahead,
                opcode_merging: merging,
                ..LmiConfig::default()
            };
            let spec = PlatformSpec {
                protocol: ProtocolKind::StbusT3,
                topology: Topology::Distributed,
                memory: MemorySystem::Lmi(cfg),
                ..run.platform_spec()
            };
            let mut p = build_platform(&spec)?;
            let report = p.run()?;
            let lmi = report.lmi.first().expect("lmi present");
            let total = (lmi.row_hits + lmi.row_misses).max(1);
            rows.push(LmiAblationRow {
                lookahead,
                merging,
                exec_cycles: report.exec_cycles,
                row_hit_rate: lmi.row_hits as f64 / total as f64,
                merged_txns: lmi.merged_txns,
            });
        }
    }
    Ok(LmiAblation { rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffering_depth_monotonically_helps() {
        let abl = buffering_ablation(Run::new(2, 3)).expect("runs");
        let first = abl.stbus.first().expect("rows").1;
        let last = abl.stbus.last().expect("rows").1;
        assert!(
            last <= first,
            "deeper FIFOs must not hurt: {first} -> {last}"
        );
    }

    #[test]
    fn split_bridges_recover_axi_performance() {
        let abl = bridge_ablation(Run::new(2, 3)).expect("runs");
        assert!(
            abl.split_cycles < abl.blocking_cycles,
            "split {} vs blocking {}",
            abl.split_cycles,
            abl.blocking_cycles
        );
    }

    #[test]
    fn arbitration_policies_all_complete() {
        let study = arbitration_study(Run::new(1, 3)).expect("runs");
        assert_eq!(study.rows.len(), 3);
        for row in &study.rows {
            assert!(row.exec_cycles > 0);
            assert!(row.worst_max_latency_ns > 0);
        }
    }

    #[test]
    fn lmi_optimizations_pay_off() {
        let abl = lmi_ablation(Run::new(2, 3)).expect("runs");
        let worst = abl
            .rows
            .iter()
            .find(|r| r.lookahead == 0 && !r.merging)
            .expect("row");
        let best = abl
            .rows
            .iter()
            .find(|r| r.lookahead == 8 && r.merging)
            .expect("row");
        assert!(
            best.exec_cycles < worst.exec_cycles,
            "optimizations must help: {} vs {}",
            best.exec_cycles,
            worst.exec_cycles
        );
        assert!(best.merged_txns > 0);
    }
}

/// ABL-ARB — arbitration-policy study on the full platform.
///
/// The paper builds on earlier arbitration-policy analyses (its reference
/// \[13\]); this ablation quantifies how the node arbitration policy
/// trades aggregate execution time against worst-case initiator latency on
/// the reference platform.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct ArbitrationStudy {
    /// One row per policy.
    pub rows: Vec<ArbitrationStudyRow>,
}

/// One arbitration-policy measurement.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct ArbitrationStudyRow {
    /// Policy name.
    pub policy: String,
    /// Execution time in central-node cycles.
    pub exec_cycles: u64,
    /// Worst per-generator mean latency (ns) — the fairness casualty.
    pub worst_mean_latency_ns: f64,
    /// Worst per-generator maximum latency (ns).
    pub worst_max_latency_ns: u64,
}

impl fmt::Display for ArbitrationStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ABL-ARB arbitration policies on the full platform")?;
        writeln!(
            f,
            "{:<16} {:>12} {:>16} {:>15}",
            "policy", "exec cycles", "worst mean (ns)", "worst max (ns)"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<16} {:>12} {:>16.1} {:>15}",
                r.policy, r.exec_cycles, r.worst_mean_latency_ns, r.worst_max_latency_ns
            )?;
        }
        Ok(())
    }
}

/// Runs ABL-ARB.
///
/// # Errors
///
/// Fails if a platform instance stalls.
pub fn arbitration_study(run: Run) -> SimResult<ArbitrationStudy> {
    let mut rows = Vec::new();
    for policy in [
        ArbitrationPolicy::RoundRobin,
        ArbitrationPolicy::FixedPriority,
        ArbitrationPolicy::OldestFirst,
    ] {
        let spec = PlatformSpec {
            protocol: ProtocolKind::StbusT3,
            topology: Topology::Distributed,
            memory: MemorySystem::Lmi(LmiConfig::default()),
            arbitration: policy,
            ..run.platform_spec()
        };
        let mut p = build_platform(&spec)?;
        let report = p.run()?;
        let worst_mean = report
            .generators
            .iter()
            .map(|g| g.mean_latency_ns)
            .fold(0.0f64, f64::max);
        let worst_max = report
            .generators
            .iter()
            .map(|g| g.max_latency_ns)
            .max()
            .unwrap_or(0);
        rows.push(ArbitrationStudyRow {
            policy: policy.to_string(),
            exec_cycles: report.exec_cycles,
            worst_mean_latency_ns: worst_mean,
            worst_max_latency_ns: worst_max,
        });
    }
    Ok(ArbitrationStudy { rows })
}
