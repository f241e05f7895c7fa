//! The paper's six design guidelines (Section 6), encoded as executable
//! assertions over the reproduced platform. Each test names the guideline
//! it checks and exercises the measurable claim behind it.

use mpsoc_memory::LmiConfig;
use mpsoc_platform::experiments::{self, Run};
use mpsoc_platform::{
    build_platform, build_single_layer, MemorySystem, PlatformSpec, SingleLayerSpec, Topology,
};
use mpsoc_protocol::ProtocolKind;

const SCALE: u64 = 2;
const SEED: u64 = 0x0dab;

/// Guideline 1: "For single-layer systems, a significant performance
/// differentiation between different communication protocols can be
/// observed only when they have to deal with a many-to-many traffic
/// pattern."
#[test]
fn g1_protocol_differentiation_needs_many_to_many() {
    let saturated = |protocol, targets| {
        let mut p = build_single_layer(&SingleLayerSpec {
            protocol,
            targets,
            think_cycles: (0, 4),
            scale: SCALE,
            seed: SEED,
            ..SingleLayerSpec::default()
        })
        .expect("builds");
        p.run().expect("drains").exec_cycles
    };
    // Many-to-many: AHB clearly differentiated from the split protocols.
    let spread_mm =
        saturated(ProtocolKind::Ahb, 4) as f64 / saturated(ProtocolKind::StbusT2, 4) as f64;
    // Many-to-one: differentiation collapses.
    let spread_mo =
        saturated(ProtocolKind::Ahb, 1) as f64 / saturated(ProtocolKind::StbusT2, 1) as f64;
    assert!(
        spread_mm > spread_mo + 0.1,
        "many-to-many must differentiate more: {spread_mm:.3} vs {spread_mo:.3}"
    );
    assert!(
        spread_mm > 1.3,
        "AHB must clearly lose many-to-many: {spread_mm:.3}"
    );
}

/// Guideline 2: "In single-layer systems with a centralized slave, the
/// performance of this latter and of its control logic bounds the maximum
/// performance that communication protocols can achieve."
#[test]
fn g2_centralized_slave_bounds_everyone() {
    let result = experiments::many_to_one(Run::new(SCALE, SEED)).expect("runs");
    // The split protocols sit on the memory bound (within 1 %), and even
    // the simplest interconnect is within ~25 % — "simple interconnect
    // fabrics may provide the same performance" once the required
    // efficiency is low.
    let worst = result
        .rows
        .iter()
        .map(|r| r.normalized)
        .fold(0.0f64, f64::max);
    assert!(
        worst < 1.3,
        "nobody escapes the memory bound, worst {worst:.3}"
    );
    let stbus = result
        .rows
        .iter()
        .find(|r| r.protocol.contains("STBus"))
        .expect("row");
    let eff = stbus.response_efficiency.expect("exposed");
    assert!(
        eff < 0.6,
        "efficiency capped by the slave at ~50 %, got {eff:.3}"
    );
}

/// Guideline 3: distributed multi-layer interconnects pay off only with
/// (i) multiple-outstanding initiators, (ii) split-capable bridges,
/// (iii) target response latency long enough against the multi-hop cost.
#[test]
fn g3_distribution_needs_split_bridges_and_latency() {
    // (ii): with blocking bridges the distributed AXI platform degrades;
    // split bridges recover it (bridge ablation).
    let abl = experiments::bridge_ablation(Run::new(SCALE, SEED)).expect("runs");
    assert!(
        abl.blocking_cycles as f64 > abl.split_cycles as f64 * 1.1,
        "blocking bridges must cost >10 %: {} vs {}",
        abl.blocking_cycles,
        abl.split_cycles
    );
    // (iii): with a fast memory the distributed organisation holds no
    // advantage over the collapsed one (Fig. 4 left end).
    let fig4 = experiments::fig4(Run::new(SCALE, SEED)).expect("runs");
    let first = &fig4.points[0];
    assert!(
        (first.ratio - 1.0).abs() < 0.05,
        "parity at 1 ws: {}",
        first.ratio
    );
    let last = fig4.points.last().expect("points");
    assert!(
        last.ratio >= 1.0,
        "slow memory favours distributed: {}",
        last.ratio
    );
}

/// Guideline 4: with a centralized target bottleneck, performance
/// differentiation of competent distributed protocols is marginal — the
/// leverage is memory-controller-friendly traffic, not interconnect
/// sophistication.
#[test]
fn g4_competent_protocols_converge_on_the_bottleneck() {
    let run = |protocol| {
        let mut p = build_platform(&PlatformSpec {
            protocol,
            topology: Topology::Distributed,
            memory: MemorySystem::Lmi(LmiConfig::default()),
            // Give AXI the same split-capable bridge class STBus enjoys.
            cluster_bridge: Some(mpsoc_bridge::BridgeConfig::genconv()),
            memory_bridge: Some(mpsoc_bridge::BridgeConfig::genconv()),
            scale: SCALE,
            seed: SEED,
            ..PlatformSpec::default()
        })
        .expect("builds");
        p.run().expect("drains").exec_cycles
    };
    let stbus = run(ProtocolKind::StbusT3);
    let axi = run(ProtocolKind::Axi);
    let ratio = axi as f64 / stbus as f64;
    assert!(
        (0.8..1.25).contains(&ratio),
        "with good bridges the protocols converge: {ratio:.3}"
    );
}

/// Guideline 5: "The introduction of new features in communication
/// protocols might be vanished by the deployment of lightweight bridges
/// with basic functionality."
#[test]
fn g5_lightweight_bridges_vanish_protocol_features() {
    let fig3 = experiments::fig3(Run::new(SCALE, SEED)).expect("runs");
    let collapsed_axi = fig3.normalized("collapsed AXI").expect("bar");
    let distributed_axi = fig3.normalized("distributed AXI").expect("bar");
    // The same protocol loses a clear margin purely through bridging.
    assert!(
        distributed_axi > collapsed_axi + 0.12,
        "bridges must cost AXI its edge: {distributed_axi:.3} vs {collapsed_axi:.3}"
    );
}

/// Guideline 6: the framework discriminates between a memory-controller
/// bottleneck and an interconnect bottleneck from the controller's
/// bus-interface statistics alone.
#[test]
fn g6_fifo_statistics_identify_the_bottleneck() {
    let fig6 = experiments::fig6(Run::new(SCALE, SEED)).expect("runs");
    let stbus = fig6.platform("full STBus").expect("measured");
    let ahb = fig6.platform("full AHB").expect("measured");
    // STBus: the controller is the bottleneck (FIFO meaningfully full).
    assert!(stbus.phases[0].full > 0.1);
    // AHB: the interconnect is the bottleneck (FIFO starved).
    assert!(ahb.phases[0].full < 0.02);
    assert!(ahb.phases[0].no_request > 0.9);
}
