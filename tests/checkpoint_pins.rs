//! Pins the checkpoint bytes of one platform per component kind.
//!
//! Every blob a warm cache spilled, every DSE frontier on disk and every
//! fork a server serves must keep decoding after a change to how state is
//! declared, so the encoding of each component is a contract. Each row
//! below runs a platform to a fixed mid-run instant and pins the length and
//! the FNV-1a-64 hash of its checkpoint; together they cover the STBus
//! node, both bridge halves, the LMI with its SDRAM, the DSP core with its
//! caches, the IPTGs, the AXI interconnect, the AHB bus, the on-chip
//! memory, the NoC routers, the transaction-level bus and the trace-driven
//! generator. A pinned value changes only with a deliberate format change,
//! which also bumps `SNAPSHOT_VERSION`.

use mpsoc_dse::{build_candidate, sample_generation, FabricFamily};
use mpsoc_kernel::{fnv1a_64, ClockDomain, ExecMode, Simulation, SnapshotBlob, Time};
use mpsoc_memory::{LmiConfig, LmiController};
use mpsoc_platform::{
    build_platform, Interconnect, MemorySystem, PlatformSpec, Topology, Workload,
};
use mpsoc_protocol::{DataWidth, InitiatorId, Opcode, Packet};
use mpsoc_traffic::{TraceDrivenGenerator, TraceEntry};

/// The instant every pinned checkpoint is taken at.
const CUT: Time = Time::from_ns(1_500);

fn pin(blob: &SnapshotBlob) -> (usize, u64) {
    (blob.len(), fnv1a_64(blob.as_bytes()))
}

fn platform_at_cut(spec: PlatformSpec) -> (usize, u64) {
    let mut platform = build_platform(&spec).expect("platform builds");
    platform.sim_mut().run_until(CUT);
    pin(&platform.checkpoint())
}

/// A trace-driven generator replaying a fixed mixed trace into an LMI.
fn trace_replay_at_cut() -> (usize, u64) {
    let clk = ClockDomain::from_mhz(200);
    let trace: Vec<TraceEntry> = (0..48u64)
        .map(|i| TraceEntry {
            delay_cycles: i % 3,
            opcode: if i % 2 == 0 {
                Opcode::Write
            } else {
                Opcode::Read
            },
            addr: (i * 0x140) % (1 << 20),
            beats: 4,
            posted: i % 4 == 0,
        })
        .collect();
    let lmi = LmiConfig::default();
    let mut sim: Simulation<Packet> = Simulation::new();
    let req = sim.links_mut().add_link("req", 1, clk.period());
    let resp = sim
        .links_mut()
        .add_link("resp", lmi.output_fifo_depth, clk.period());
    sim.add_component(
        Box::new(TraceDrivenGenerator::new(
            "replay",
            InitiatorId::new(1),
            DataWidth::BITS64,
            clk,
            req,
            resp,
            trace,
            4,
        )),
        clk,
    );
    sim.add_component(
        Box::new(LmiController::new("lmi", lmi, clk, req, resp)),
        clk,
    );
    sim.run_until(CUT);
    pin(&sim.checkpoint())
}

fn noc_candidate_at_cut() -> (usize, u64) {
    let candidate = sample_generation(12, 0x5eed)
        .into_iter()
        .find(|c| c.family == FabricFamily::NocMesh)
        .expect("every generation spans all families");
    let mut platform =
        build_candidate(&candidate, 1, 0x0dab, ExecMode::default()).expect("candidate builds");
    platform.sim_mut().run_until(CUT);
    pin(&platform.checkpoint())
}

#[test]
fn checkpoints_at_a_fixed_instant_keep_their_bytes() {
    let base = PlatformSpec {
        scale: 1,
        seed: 0x0dab,
        ..PlatformSpec::default()
    };
    let got = [
        (
            "stbus t3, distributed, LMI, DSP",
            platform_at_cut(PlatformSpec {
                protocol: mpsoc_protocol::ProtocolKind::StbusT3,
                topology: Topology::Distributed,
                memory: MemorySystem::Lmi(LmiConfig::default()),
                workload: Workload::Standard,
                ..base.clone()
            }),
        ),
        (
            "axi, distributed, on-chip, DSP",
            platform_at_cut(PlatformSpec {
                protocol: mpsoc_protocol::ProtocolKind::Axi,
                topology: Topology::Distributed,
                memory: MemorySystem::OnChip { wait_states: 1 },
                workload: Workload::BurstyPosted,
                ..base.clone()
            }),
        ),
        (
            "ahb, collapsed, dual LMI, DSP",
            platform_at_cut(PlatformSpec {
                protocol: mpsoc_protocol::ProtocolKind::Ahb,
                topology: Topology::Collapsed,
                memory: MemorySystem::DualLmi(LmiConfig::default()),
                workload: Workload::TwoPhase,
                ..base.clone()
            }),
        ),
        (
            "transaction-level bus",
            platform_at_cut(PlatformSpec {
                interconnect: Interconnect::TransactionLevel,
                ..base.clone()
            }),
        ),
        ("noc mesh DSE candidate", noc_candidate_at_cut()),
        ("trace-driven generator into an LMI", trace_replay_at_cut()),
    ];
    let pinned: [(usize, u64); 6] = [
        (31_741, 0x1eab_8679_6b31_83fb),
        (25_375, 0xca2e_d2da_b8ee_6147),
        (27_604, 0x583f_c591_2388_89d0),
        (28_686, 0xb43e_5f37_e372_089a),
        (16_049, 0x5528_64f0_27c7_bd88),
        (1_382, 0xf4ea_16c2_85c2_584c),
    ];
    let table: Vec<String> = got
        .iter()
        .map(|(label, (len, hash))| format!("{label}: ({len}, {hash:#018x})"))
        .collect();
    for ((label, got), want) in got.iter().zip(pinned) {
        assert_eq!(*got, want, "{label}; all rows:\n{}", table.join("\n"));
    }
}
