//! EXT-NOC — the guideline-5 outlook, quantified.
//!
//! The paper closes by asking whether it is "really worth increasing bridge
//! complexity, instead of keeping lightweight bridges for path segmentation
//! ... and pushing complexity at the system interconnect boundaries, which
//! is known as the network-on-chip solution". This extension experiment
//! (beyond the paper's own evaluation) runs the saturated many-to-many
//! workload of §4.1.1 on three transport fabrics of growing parallelism:
//! a shared STBus node, an STBus full crossbar, and a 3×3 mesh NoC.

use super::Run;
use crate::platforms::MEM_BASE;
use mpsoc_kernel::{ClockDomain, SimResult, Simulation, Time};
use mpsoc_memory::{OnChipMemory, OnChipMemoryConfig};
use mpsoc_noc::{Mesh, NocConfig};
use mpsoc_protocol::{AddressRange, DataWidth, Packet, ProtocolKind};
use mpsoc_stbus::{ChannelTopology, StbusNode, StbusNodeConfig};
use mpsoc_traffic::{AddressPattern, AgentConfig, IpTrafficGenerator, IptgConfig, TrafficSegment};
use std::fmt;

/// One fabric measurement.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
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
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
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

const INITIATORS: usize = 8;
const TARGETS: usize = 4;
const REGION: u64 = 16 << 20;

fn workload(i: usize, run: Run, width: DataWidth) -> IptgConfig {
    let t = i % TARGETS;
    let base = MEM_BASE + t as u64 * REGION;
    IptgConfig {
        initiator: mpsoc_protocol::InitiatorId::new(i as u16),
        width,
        seed: run.seed ^ (0x77 + i as u64),
        agents: vec![AgentConfig {
            name: "load".into(),
            pattern: AddressPattern::Random { base, len: REGION },
            read_fraction: 0.7,
            beats_choices: vec![4, 8],
            message_len: 1,
            max_outstanding: 4,
            posted_writes: true,
            blocking: false,
            priority: 0,
            segments: vec![TrafficSegment {
                transactions: 60 * run.scale,
                burst_len: (2, 6),
                think_cycles: (0, 4),
            }],
            start_after: None,
        }],
    }
}

/// An empty simulation for one fabric, executing in the run's mode: this
/// experiment wires its fabrics by hand, so it applies the mode itself.
fn fabric_sim(run: Run) -> Simulation<Packet> {
    let mut sim = Simulation::with_seed(run.seed);
    sim.set_exec(run.exec);
    sim
}

fn run_stbus(topology: ChannelTopology, run: Run) -> SimResult<u64> {
    let clk = ClockDomain::from_mhz(250);
    let width = DataWidth::BITS64;
    let mut sim = fabric_sim(run);
    let mut node = StbusNode::new(
        "fabric",
        StbusNodeConfig {
            protocol: ProtocolKind::StbusT3,
            topology,
            ..StbusNodeConfig::default()
        },
        clk,
    );
    for t in 0..TARGETS {
        let base = MEM_BASE + t as u64 * REGION;
        let req = sim
            .links_mut()
            .add_link(format!("m{t}.req"), 2, clk.period());
        let resp = sim
            .links_mut()
            .add_link(format!("m{t}.resp"), 2, clk.period());
        let port = node.add_target(req, resp);
        node.add_route(AddressRange::new(base, base + REGION), port)
            .map_err(|e| mpsoc_kernel::SimError::InvalidConfig {
                reason: e.to_string(),
            })?;
        sim.add_component(
            Box::new(OnChipMemory::new(
                format!("m{t}"),
                OnChipMemoryConfig { wait_states: 1 },
                clk,
                req,
                resp,
            )),
            clk,
        );
    }
    for i in 0..INITIATORS {
        let req = sim
            .links_mut()
            .add_link(format!("i{i}.req"), 2, clk.period());
        let resp = sim
            .links_mut()
            .add_link(format!("i{i}.resp"), 2, clk.period());
        node.add_initiator(req, resp);
        let gen = IpTrafficGenerator::new(format!("i{i}"), workload(i, run, width), req, resp)
            .map_err(|e| mpsoc_kernel::SimError::InvalidConfig {
                reason: e.to_string(),
            })?;
        sim.add_component(Box::new(gen), clk);
    }
    sim.add_component(Box::new(node), clk);
    let end = sim.run_to_quiescence_strict(Time::from_ms(60))?;
    Ok(end.as_ps() / clk.period().as_ps())
}

fn run_mesh(run: Run) -> SimResult<u64> {
    let clk = ClockDomain::from_mhz(250);
    let width = DataWidth::BITS64;
    let mut sim = fabric_sim(run);
    let mut mesh = Mesh::new(
        "noc",
        NocConfig {
            width,
            ..NocConfig::default()
        },
        clk,
        4,
        3,
    );
    // Targets in the middle row, initiators along the outer rows.
    let target_spots = [(0u32, 1u32), (1, 1), (2, 1), (3, 1)];
    for (t, (x, y)) in target_spots.iter().enumerate() {
        let base = MEM_BASE + t as u64 * REGION;
        let iface = mesh
            .attach_target(
                sim.links_mut(),
                *x,
                *y,
                AddressRange::new(base, base + REGION),
            )
            .map_err(|e| mpsoc_kernel::SimError::InvalidConfig {
                reason: e.to_string(),
            })?;
        sim.add_component(
            Box::new(OnChipMemory::new(
                format!("m{t}"),
                OnChipMemoryConfig { wait_states: 1 },
                clk,
                iface.req,
                iface.resp,
            )),
            clk,
        );
    }
    let initiator_spots = [
        (0u32, 0u32),
        (1, 0),
        (2, 0),
        (3, 0),
        (0, 2),
        (1, 2),
        (2, 2),
        (3, 2),
    ];
    for (i, (x, y)) in initiator_spots.iter().enumerate() {
        let (req, resp) = mesh
            .try_attach_initiator(sim.links_mut(), *x, *y)
            .map_err(|e| mpsoc_kernel::SimError::InvalidConfig {
                reason: e.to_string(),
            })?;
        let gen = IpTrafficGenerator::new(format!("i{i}"), workload(i, run, width), req, resp)
            .map_err(|e| mpsoc_kernel::SimError::InvalidConfig {
                reason: e.to_string(),
            })?;
        sim.add_component(Box::new(gen), clk);
    }
    for router in mesh.build(sim.links_mut()) {
        sim.add_component(router, clk);
    }
    let end = sim.run_to_quiescence_strict(Time::from_ms(60))?;
    Ok(end.as_ps() / clk.period().as_ps())
}

/// Runs EXT-NOC.
///
/// # Errors
///
/// Fails if any fabric instance stalls.
pub fn noc_outlook(run: Run) -> SimResult<NocOutlook> {
    let shared = run_stbus(ChannelTopology::SharedBus, run)?;
    let crossbar = run_stbus(ChannelTopology::FullCrossbar, run)?;
    let mesh = run_mesh(run)?;
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

    #[test]
    fn parallel_fabrics_beat_the_shared_bus() {
        let outlook = noc_outlook(Run::new(2, 0x0dab)).expect("runs");
        let crossbar = outlook.normalized("STBus crossbar").expect("row");
        let mesh = outlook.normalized("3x4 mesh NoC").expect("row");
        assert!(crossbar < 1.0, "crossbar must win: {crossbar}");
        assert!(mesh < 1.0, "the mesh must win: {mesh}");
    }
}
