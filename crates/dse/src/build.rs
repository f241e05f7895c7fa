//! Candidate → platform construction.
//!
//! Every candidate is instantiated against the same 8-initiator /
//! 4-memory workload shell used by the EXT-NOC experiment, so that
//! scores are comparable across fabric families. The bus families are
//! wired through [`PlatformBuilder`] (this search is deliberately a
//! stress-test of that API); the mesh is wired through the builder's
//! raw-simulation escape hatch because the mesh attaches through
//! network interfaces, not bus ports.

use crate::space::{Candidate, FabricFamily, INITIATORS, TARGETS};
use mpsoc_bridge::BridgeConfig;
use mpsoc_kernel::{ClockDomain, ExecMode, SimResult, Simulation};
use mpsoc_memory::{LmiConfig, OnChipMemory, OnChipMemoryConfig};
use mpsoc_noc::{Mesh, NocConfig};
use mpsoc_platform::{BusHandle, BusSpec, Platform, PlatformBuilder};
use mpsoc_protocol::{AddressRange, DataWidth, InitiatorId, Packet, ProtocolKind};
use mpsoc_stbus::{ChannelTopology, StbusNodeConfig};
use mpsoc_traffic::{
    AddressPattern, AgentConfig, IpTrafficGenerator, IptgConfig, TraceDrivenGenerator, TraceEntry,
    TrafficSegment,
};

/// Base address of the memory map (mirrors the platform convention).
pub const MEM_BASE: u64 = 0x8000_0000;
/// Per-target address region length.
pub const REGION: u64 = 16 << 20;

const BUS_MHZ: u64 = 250;
const LMI_MHZ: u64 = 200;

/// The traffic bound to every candidate during evaluation.
#[derive(Debug, Clone)]
pub enum DseWorkload {
    /// The saturated many-to-many random workload of EXT-NOC
    /// (`60 * scale` transactions per initiator).
    Saturated,
    /// Explicit per-initiator IPTG configurations, applied round-robin;
    /// the initiator id is overridden for platform uniqueness.
    Iptg(Vec<IptgConfig>),
    /// Trace-driven replay: per-initiator entry streams, applied
    /// round-robin.
    Trace(Vec<Vec<TraceEntry>>),
}

impl DseWorkload {
    /// Stable label for tables and ledger rows.
    pub fn label(&self) -> &'static str {
        match self {
            DseWorkload::Saturated => "saturated",
            DseWorkload::Iptg(_) => "iptg",
            DseWorkload::Trace(_) => "trace",
        }
    }
}

fn saturated_cfg(i: usize, scale: u64, seed: u64) -> IptgConfig {
    let t = i % TARGETS;
    let base = MEM_BASE + t as u64 * REGION;
    IptgConfig {
        initiator: InitiatorId::new(i as u16),
        width: DataWidth::BITS64,
        seed: seed ^ (0x77 + i as u64),
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
                transactions: 60 * scale,
                burst_len: (2, 6),
                think_cycles: (0, 4),
            }],
            start_after: None,
        }],
    }
}

/// Resolves the IPTG configuration of generator `i`, or `None` when the
/// workload is trace-driven.
fn iptg_cfg(workload: &DseWorkload, i: usize, scale: u64, seed: u64) -> Option<IptgConfig> {
    match workload {
        DseWorkload::Saturated => Some(saturated_cfg(i, scale, seed)),
        DseWorkload::Iptg(cfgs) => {
            let mut cfg = cfgs[i % cfgs.len()].clone();
            cfg.initiator = InitiatorId::new(i as u16);
            Some(cfg)
        }
        DseWorkload::Trace(_) => None,
    }
}

fn mem_range(t: usize) -> AddressRange {
    let base = MEM_BASE + t as u64 * REGION;
    AddressRange::new(base, base + REGION)
}

fn stbus_spec(topology: ChannelTopology) -> BusSpec {
    BusSpec::Stbus(StbusNodeConfig {
        protocol: ProtocolKind::StbusT3,
        topology,
        ..StbusNodeConfig::default()
    })
}

fn lmi_config(c: &Candidate) -> LmiConfig {
    LmiConfig {
        lookahead_depth: c.lmi_lookahead,
        opcode_merging: c.lmi_merging,
        ..LmiConfig::default()
    }
}

/// Attaches the four memories of the candidate to `bus`.
fn add_memories(b: &mut PlatformBuilder, bus: BusHandle, c: &Candidate) -> SimResult<()> {
    let bus_clk = b.bus_clock(bus);
    let lmi_clk = ClockDomain::from_mhz(LMI_MHZ);
    for t in 0..TARGETS {
        let name = format!("m{t}");
        if c.lmi {
            b.add_lmi(bus, &name, lmi_config(c), lmi_clk, mem_range(t))?;
        } else {
            // target_port (rather than add_on_chip_memory) so the
            // prefetch/response FIFO depth is a live knob.
            let iface = b.target_port(bus, &name, c.target_fifo, c.target_fifo, &[mem_range(t)])?;
            b.add_component(
                Box::new(OnChipMemory::new(
                    name,
                    OnChipMemoryConfig {
                        wait_states: c.wait_states,
                    },
                    bus_clk,
                    iface.req,
                    iface.resp,
                )),
                bus_clk,
            );
        }
    }
    Ok(())
}

/// Attaches generator `i` to `bus` under the candidate's issue FIFO.
fn add_generator(
    b: &mut PlatformBuilder,
    bus: BusHandle,
    c: &Candidate,
    workload: &DseWorkload,
    i: usize,
    scale: u64,
    seed: u64,
) -> SimResult<()> {
    let name = format!("g{i}");
    match iptg_cfg(workload, i, scale, seed) {
        Some(cfg) => b.add_iptg(bus, &name, cfg, c.issue_fifo),
        None => {
            let DseWorkload::Trace(traces) = workload else {
                unreachable!("iptg_cfg is None only for traces")
            };
            let clk = b.bus_clock(bus);
            let (req, resp) = b.initiator_port(bus, &name, c.issue_fifo);
            b.add_component(
                Box::new(TraceDrivenGenerator::new(
                    name,
                    InitiatorId::new(i as u16),
                    DataWidth::BITS64,
                    clk,
                    req,
                    resp,
                    traces[i % traces.len()].clone(),
                    4,
                )),
                clk,
            );
            Ok(())
        }
    }
}

fn build_shared(
    c: &Candidate,
    workload: &DseWorkload,
    scale: u64,
    seed: u64,
    exec: ExecMode,
) -> SimResult<Platform> {
    let clk = ClockDomain::from_mhz(BUS_MHZ);
    let mut b = PlatformBuilder::new(seed, exec);
    let bus = b.add_bus("fabric", stbus_spec(ChannelTopology::SharedBus), clk);
    add_memories(&mut b, bus, c)?;
    for i in 0..INITIATORS {
        add_generator(&mut b, bus, c, workload, i, scale, seed)?;
    }
    Ok(b.finish(clk))
}

fn build_partial_xbar(
    c: &Candidate,
    workload: &DseWorkload,
    scale: u64,
    seed: u64,
    exec: ExecMode,
) -> SimResult<Platform> {
    let clk = ClockDomain::from_mhz(BUS_MHZ);
    let mut b = PlatformBuilder::new(seed, exec);
    let xbar = b.add_bus("xbar", stbus_spec(ChannelTopology::FullCrossbar), clk);
    add_memories(&mut b, xbar, c)?;
    let whole = AddressRange::new(MEM_BASE, MEM_BASE + TARGETS as u64 * REGION);
    let bridge = if c.split_bridge {
        BridgeConfig::genconv()
    } else {
        BridgeConfig::lightweight()
    };
    for cluster in 0..2 {
        let cbus = b.add_bus(
            format!("cluster{cluster}"),
            stbus_spec(ChannelTopology::SharedBus),
            clk,
        );
        b.add_bridge(&format!("br{cluster}"), bridge, cbus, xbar, &[whole])?;
        for g in 0..INITIATORS / 2 {
            let i = cluster * (INITIATORS / 2) + g;
            add_generator(&mut b, cbus, c, workload, i, scale, seed)?;
        }
    }
    Ok(b.finish(clk))
}

fn build_mesh(
    c: &Candidate,
    workload: &DseWorkload,
    scale: u64,
    seed: u64,
    exec: ExecMode,
) -> SimResult<Platform> {
    let clk = ClockDomain::from_mhz(BUS_MHZ);
    let mut b = PlatformBuilder::new(seed, exec);
    let sim: &mut Simulation<Packet> = b.sim_mut();
    let mut mesh = Mesh::new(
        "noc",
        NocConfig {
            width: DataWidth::BITS64,
            port_fifo_depth: c.target_fifo,
            hop_cycles: 1,
        },
        clk,
        4,
        3,
    );
    let invalid = |e: mpsoc_noc::MeshError| mpsoc_kernel::SimError::InvalidConfig {
        reason: e.to_string(),
    };
    // Memories in the middle row, initiators along the outer rows — the
    // EXT-NOC floorplan.
    let lmi_clk = ClockDomain::from_mhz(LMI_MHZ);
    let target_spots = [(0u32, 1u32), (1, 1), (2, 1), (3, 1)];
    for (t, (x, y)) in target_spots.iter().enumerate() {
        let iface = mesh
            .attach_target(sim.links_mut(), *x, *y, mem_range(t))
            .map_err(invalid)?;
        if c.lmi {
            sim.add_component(
                Box::new(mpsoc_memory::LmiController::new(
                    format!("m{t}"),
                    lmi_config(c),
                    lmi_clk,
                    iface.req,
                    iface.resp,
                )),
                lmi_clk,
            );
        } else {
            sim.add_component(
                Box::new(OnChipMemory::new(
                    format!("m{t}"),
                    OnChipMemoryConfig {
                        wait_states: c.wait_states,
                    },
                    clk,
                    iface.req,
                    iface.resp,
                )),
                clk,
            );
        }
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
            .map_err(invalid)?;
        let name = format!("g{i}");
        match iptg_cfg(workload, i, scale, seed) {
            Some(cfg) => {
                let gen = IpTrafficGenerator::new(name, cfg, req, resp).map_err(|e| {
                    mpsoc_kernel::SimError::InvalidConfig {
                        reason: e.to_string(),
                    }
                })?;
                sim.add_component(Box::new(gen), clk);
            }
            None => {
                let DseWorkload::Trace(traces) = workload else {
                    unreachable!("iptg_cfg is None only for traces")
                };
                sim.add_component(
                    Box::new(TraceDrivenGenerator::new(
                        name,
                        InitiatorId::new(i as u16),
                        DataWidth::BITS64,
                        clk,
                        req,
                        resp,
                        traces[i % traces.len()].clone(),
                        4,
                    )),
                    clk,
                );
            }
        }
    }
    for router in mesh.build(sim.links_mut()) {
        sim.add_component(router, clk);
    }
    Ok(b.finish(clk))
}

/// Instantiates `candidate` against `workload` as a runnable platform.
///
/// The simulation seed, the generator streams and all structure are pure
/// functions of `(candidate, workload, scale, seed)`, so two builds of
/// the same tuple are byte-identical (checked by the platform's
/// structural fingerprint during search).
///
/// `exec` is how the built simulation executes; it changes no structure.
///
/// # Errors
///
/// Fails if the candidate wires an invalid configuration — which the
/// normalized space should never produce; such an error is a bug worth
/// surfacing, not skipping.
pub fn build_candidate(
    candidate: &Candidate,
    workload: &DseWorkload,
    scale: u64,
    seed: u64,
    exec: ExecMode,
) -> SimResult<Platform> {
    let build = match candidate.family {
        FabricFamily::SharedStbus => build_shared,
        FabricFamily::PartialCrossbar => build_partial_xbar,
        FabricFamily::NocMesh => build_mesh,
    };
    build(candidate, workload, scale, seed, exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::sample_generation;
    use mpsoc_kernel::Time;
    use mpsoc_protocol::Opcode;

    #[test]
    fn every_sampled_candidate_builds_and_runs() {
        for c in sample_generation(24, 0x5eed) {
            let mut p =
                build_candidate(&c, &DseWorkload::Saturated, 1, 0x0dab, ExecMode::default())
                    .unwrap_or_else(|e| panic!("{c} failed to build: {e}"));
            p.sim_mut().run_until(Time::from_us(2));
            assert!(p.sim().ticks_executed() > 0, "{c} never ticked");
        }
    }

    #[test]
    fn builds_are_structurally_reproducible() {
        for c in sample_generation(6, 9) {
            let a = build_candidate(&c, &DseWorkload::Saturated, 1, 1, ExecMode::default())
                .expect("builds");
            let b = build_candidate(&c, &DseWorkload::Saturated, 1, 1, ExecMode::default())
                .expect("builds");
            assert_eq!(
                a.structural_fingerprint(),
                b.structural_fingerprint(),
                "{c} not reproducible"
            );
        }
    }

    #[test]
    fn trace_workload_builds_on_every_family() {
        let trace: Vec<TraceEntry> = (0..40)
            .map(|k| TraceEntry {
                delay_cycles: k % 3,
                opcode: if k % 4 == 0 {
                    Opcode::Write
                } else {
                    Opcode::Read
                },
                addr: MEM_BASE + (k * 64) % (TARGETS as u64 * REGION),
                beats: 4,
                posted: k % 4 == 0,
            })
            .collect();
        let workload = DseWorkload::Trace(vec![trace]);
        for c in sample_generation(6, 2) {
            let mut p = build_candidate(&c, &workload, 1, 3, ExecMode::default())
                .unwrap_or_else(|e| panic!("{c} failed to build: {e}"));
            p.sim_mut().run_until(Time::from_us(2));
            let injected: u64 = (0..INITIATORS)
                .map(|i| p.sim().stats().counter_by_name(&format!("g{i}.injected")))
                .sum();
            assert!(injected > 0, "{c} replayed nothing");
        }
    }
}
