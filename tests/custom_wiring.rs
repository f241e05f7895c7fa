//! Cross-crate integration through the low-level wiring APIs: hand-built
//! platforms mixing buses, bridges, memories and test components, with
//! transaction conservation checked end to end.

use mpsoc_kernel::{ClockDomain, Simulation, Time};
use mpsoc_memory::{LmiConfig, LmiController, OnChipMemory, OnChipMemoryConfig};
use mpsoc_protocol::testing::{FixedLatencyTarget, ScriptedInitiator};
use mpsoc_protocol::{
    AddressRange, DataWidth, InitiatorId, Interconnect, Packet, ProtocolKind, Transaction,
};
use mpsoc_stbus::{StbusNode, StbusNodeConfig};

fn reads(initiator: u16, n: u64, addr: u64, beats: u32) -> Vec<Transaction> {
    (0..n)
        .map(|s| {
            Transaction::builder(InitiatorId::new(initiator), s)
                .read(addr + s * 64)
                .beats(beats)
                .width(DataWidth::BITS64)
                .build()
        })
        .collect()
}

/// Two scripted initiators through an STBus node into an on-chip memory:
/// every request must be answered exactly once.
#[test]
fn stbus_memory_conservation() {
    let mut sim: Simulation<Packet> = Simulation::new();
    let clk = ClockDomain::from_mhz(250);
    let mk = |sim: &mut Simulation<Packet>, name: &str, cap: usize| {
        let req = sim
            .links_mut()
            .add_link(format!("{name}.req"), cap, clk.period());
        let resp = sim
            .links_mut()
            .add_link(format!("{name}.resp"), cap, clk.period());
        (req, resp)
    };
    let (i0_req, i0_resp) = mk(&mut sim, "i0", 2);
    let (i1_req, i1_resp) = mk(&mut sim, "i1", 2);
    let (m_req, m_resp) = mk(&mut sim, "mem", 1);

    let mut node = StbusNode::new("node", StbusNodeConfig::default(), clk);
    node.add_initiator(i0_req, i0_resp);
    node.add_initiator(i1_req, i1_resp);
    let t = node.add_target(m_req, m_resp);
    node.add_route(AddressRange::new(0, 1 << 30), t).unwrap();

    sim.add_component(
        Box::new(ScriptedInitiator::new(
            "i0",
            i0_req,
            i0_resp,
            reads(0, 20, 0x1000, 8),
            4,
        )),
        clk,
    );
    sim.add_component(
        Box::new(ScriptedInitiator::new(
            "i1",
            i1_req,
            i1_resp,
            reads(1, 20, 0x8000, 8),
            4,
        )),
        clk,
    );
    sim.add_component(Box::new(node), clk);
    sim.add_component(
        Box::new(OnChipMemory::new(
            "mem",
            OnChipMemoryConfig { wait_states: 1 },
            clk,
            m_req,
            m_resp,
        )),
        clk,
    );

    sim.run_to_quiescence_strict(Time::from_ms(10))
        .expect("drains");
    // 40 requests went through the memory, 40 responses came back.
    assert_eq!(sim.links().link(m_req).stats().pops, 40);
    assert_eq!(sim.links().link(i0_resp).stats().pops, 20);
    assert_eq!(sim.links().link(i1_resp).stats().pops, 20);
    assert_eq!(sim.stats().counter_by_name("node.granted"), 40);
    assert_eq!(sim.stats().counter_by_name("node.delivered"), 40);
}

/// A scripted initiator driving the LMI controller point-to-point (no bus):
/// the link convention makes targets and initiators freely composable.
#[test]
fn initiator_direct_to_lmi() {
    let mut sim: Simulation<Packet> = Simulation::new();
    let clk = ClockDomain::from_mhz(200);
    let cfg = LmiConfig::default();
    let req = sim.links_mut().add_link("lmi.req", 1, clk.period());
    let resp = sim
        .links_mut()
        .add_link("lmi.resp", cfg.output_fifo_depth, clk.period());
    sim.add_component(
        Box::new(ScriptedInitiator::new(
            "cpu",
            req,
            resp,
            reads(0, 30, 0, 8),
            4,
        )),
        clk,
    );
    sim.add_component(
        Box::new(LmiController::new("lmi", cfg, clk, req, resp)),
        clk,
    );
    sim.run_to_quiescence_strict(Time::from_ms(10))
        .expect("drains");
    assert_eq!(sim.links().link(resp).stats().pops, 30);
    // Sequential reads should merge and hit rows.
    assert!(sim.stats().counter_by_name("lmi.merged_txns") > 0);
    assert!(sim.stats().counter_by_name("lmi.row_hits") > 0);
}

/// Protocol capability matrix drives platform-level behaviour: a Type 1
/// STBus node (no posted writes at the generator) still conserves
/// transactions.
#[test]
fn stbus_type1_no_posting_still_drains() {
    use mpsoc_platform::{build_single_layer, SingleLayerSpec};
    let spec = SingleLayerSpec {
        protocol: ProtocolKind::StbusT1,
        read_fraction: 0.5,
        scale: 1,
        ..SingleLayerSpec::default()
    };
    let mut platform = build_single_layer(&spec).expect("builds");
    let report = platform.run().expect("drains");
    // Without posting, every write expects an ack: completed == injected.
    for gen in &report.generators {
        assert_eq!(gen.completed, gen.injected, "{}", gen.name);
    }
}

/// The same scripted traffic produces identical timing across two identical
/// simulations even with multiple interacting clock domains.
#[test]
fn multi_clock_determinism() {
    let build_and_run = || {
        let mut sim: Simulation<Packet> = Simulation::new();
        let fast = ClockDomain::from_mhz(400);
        let slow = ClockDomain::from_mhz(133);
        let req = sim.links_mut().add_link("req", 2, slow.period());
        let resp = sim.links_mut().add_link("resp", 2, slow.period());
        sim.add_component(
            Box::new(ScriptedInitiator::new(
                "gen",
                req,
                resp,
                reads(0, 25, 0, 4),
                2,
            )),
            fast,
        );
        sim.add_component(
            Box::new(FixedLatencyTarget::new("mem", slow, req, resp, 3)),
            slow,
        );
        sim.run_to_quiescence_strict(Time::from_ms(10))
            .expect("drains")
    };
    assert_eq!(build_and_run(), build_and_run());
}
