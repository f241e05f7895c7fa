//! Candidate → platform construction.
//!
//! Every candidate is instantiated against the same 8-initiator /
//! 4-memory shell under the saturated many-to-many traffic of §4.1.1, so
//! that scores are comparable across fabric families; the EXT-NOC
//! experiment ([`noc_outlook`](fn@crate::noc_outlook)) builds its three
//! fabrics here too. The bus families are wired through
//! [`PlatformBuilder`] (this search is deliberately a stress-test of that
//! API); the mesh is wired through the builder's raw-simulation escape
//! hatch because the mesh attaches through network interfaces, not bus
//! ports.

use crate::space::{Candidate, FabricFamily, INITIATORS, TARGETS};
use mpsoc_bridge::BridgeConfig;
use mpsoc_kernel::{ClockDomain, ExecMode, SimResult, Simulation};
use mpsoc_memory::{LmiConfig, OnChipMemory, OnChipMemoryConfig};
use mpsoc_noc::{Mesh, NocConfig};
use mpsoc_platform::{BusHandle, BusSpec, Platform, PlatformBuilder};
use mpsoc_protocol::{AddressRange, DataWidth, InitiatorId, Packet, ProtocolKind};
use mpsoc_stbus::{ChannelTopology, StbusNodeConfig};
use mpsoc_traffic::{AddressPattern, AgentConfig, IpTrafficGenerator, IptgConfig, TrafficSegment};

/// Base address of the memory map (mirrors the platform convention).
pub const MEM_BASE: u64 = 0x8000_0000;
/// Per-target address region length.
pub const REGION: u64 = 16 << 20;

const BUS_MHZ: u64 = 250;
const LMI_MHZ: u64 = 200;

/// The traffic of generator `i`: random reads and posted writes over the
/// region of memory `i % TARGETS`, `60 * scale` transactions.
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
    let lmi_clk = ClockDomain::from_mhz(LMI_MHZ);
    for t in 0..TARGETS {
        let name = format!("m{t}");
        if c.lmi {
            b.add_lmi(bus, &name, lmi_config(c), lmi_clk, mem_range(t))?;
        } else {
            let config = OnChipMemoryConfig {
                wait_states: c.wait_states,
            };
            b.add_on_chip_memory(bus, &name, config, c.target_fifo, mem_range(t))?;
        }
    }
    Ok(())
}

/// Attaches generator `i` to `bus` under the candidate's issue FIFO.
fn add_generator(
    b: &mut PlatformBuilder,
    bus: BusHandle,
    c: &Candidate,
    i: usize,
    scale: u64,
    seed: u64,
) -> SimResult<()> {
    let cfg = saturated_cfg(i, scale, seed);
    b.add_iptg(bus, &format!("g{i}"), cfg, c.issue_fifo)
}

/// One STBus node of `topology` carrying every initiator and memory: the
/// shared-bus family, and EXT-NOC's shared-bus and crossbar rows.
pub(crate) fn build_shared(
    c: &Candidate,
    topology: ChannelTopology,
    scale: u64,
    seed: u64,
    exec: ExecMode,
) -> SimResult<Platform> {
    let clk = ClockDomain::from_mhz(BUS_MHZ);
    let mut b = PlatformBuilder::new(seed, exec);
    let bus = b.add_bus("fabric", stbus_spec(topology), clk);
    add_memories(&mut b, bus, c)?;
    for i in 0..INITIATORS {
        add_generator(&mut b, bus, c, i, scale, seed)?;
    }
    Ok(b.finish(clk))
}

fn build_partial_xbar(c: &Candidate, scale: u64, seed: u64, exec: ExecMode) -> SimResult<Platform> {
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
            add_generator(&mut b, cbus, c, i, scale, seed)?;
        }
    }
    Ok(b.finish(clk))
}

/// The 4×3 mesh NoC, its router port FIFOs `target_fifo` deep: the mesh
/// family, and EXT-NOC's mesh row.
pub(crate) fn build_mesh(
    c: &Candidate,
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
        let gen =
            IpTrafficGenerator::new(format!("g{i}"), saturated_cfg(i, scale, seed), req, resp)
                .map_err(|e| mpsoc_kernel::SimError::InvalidConfig {
                    reason: e.to_string(),
                })?;
        sim.add_component(Box::new(gen), clk);
    }
    for router in mesh.build(sim.links_mut()) {
        sim.add_component(router, clk);
    }
    Ok(b.finish(clk))
}

/// Instantiates `candidate` as a runnable platform.
///
/// The simulation seed, the generator streams and all structure are pure
/// functions of `(candidate, scale, seed)`, so two builds of
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
    scale: u64,
    seed: u64,
    exec: ExecMode,
) -> SimResult<Platform> {
    match candidate.family {
        FabricFamily::SharedStbus => {
            build_shared(candidate, ChannelTopology::SharedBus, scale, seed, exec)
        }
        FabricFamily::PartialCrossbar => build_partial_xbar(candidate, scale, seed, exec),
        FabricFamily::NocMesh => build_mesh(candidate, scale, seed, exec),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::sample_generation;
    use mpsoc_kernel::Time;

    #[test]
    fn every_sampled_candidate_builds_and_runs() {
        for c in sample_generation(24, 0x5eed) {
            let mut p = build_candidate(&c, 1, 0x0dab, ExecMode::default())
                .unwrap_or_else(|e| panic!("{c} failed to build: {e}"));
            p.sim_mut().run_until(Time::from_us(2));
            assert!(p.sim().ticks_executed() > 0, "{c} never ticked");
        }
    }

    #[test]
    fn builds_are_structurally_reproducible() {
        for c in sample_generation(6, 9) {
            let a = build_candidate(&c, 1, 1, ExecMode::default()).expect("builds");
            let b = build_candidate(&c, 1, 1, ExecMode::default()).expect("builds");
            assert_eq!(
                a.structural_fingerprint(),
                b.structural_fingerprint(),
                "{c} not reproducible"
            );
        }
    }
}
