//! Property-based conservation tests: whatever random traffic flows through
//! a bus, a bridge chain or the memory controller, every response-expecting
//! transaction is answered exactly once and the platform drains.

use mpsoc_bridge::{Bridge, BridgeConfig};
use mpsoc_kernel::{ClockDomain, Simulation, Time};
use mpsoc_memory::{LmiConfig, LmiController, OnChipMemory, OnChipMemoryConfig};
use mpsoc_protocol::testing::ScriptedInitiator;
use mpsoc_protocol::{
    AddressRange, DataWidth, InitiatorId, Interconnect, Packet, ProtocolKind, Transaction,
};
use mpsoc_stbus::{StbusNode, StbusNodeConfig};
use proptest::prelude::*;

/// Parameters of one random initiator script.
#[derive(Debug, Clone)]
struct ScriptSpec {
    reads: Vec<(u64, u8)>, // (addr offset, beats-1)
    writes: Vec<(u64, u8, bool)>,
}

fn script_strategy() -> impl Strategy<Value = ScriptSpec> {
    (
        prop::collection::vec((0u64..(1 << 16), 0u8..16), 0..25),
        prop::collection::vec((0u64..(1 << 16), 0u8..16, any::<bool>()), 0..25),
    )
        .prop_map(|(reads, writes)| ScriptSpec { reads, writes })
}

fn build_script(initiator: u16, spec: &ScriptSpec, width: DataWidth) -> Vec<Transaction> {
    let mut script = Vec::new();
    let mut seq = 0;
    for (addr, beats) in &spec.reads {
        seq += 1;
        script.push(
            Transaction::builder(InitiatorId::new(initiator), seq)
                .read(0x1000 + addr * 4)
                .beats(u32::from(*beats) + 1)
                .width(width)
                .build(),
        );
    }
    for (addr, beats, posted) in &spec.writes {
        seq += 1;
        script.push(
            Transaction::builder(InitiatorId::new(initiator), seq)
                .write(0x1000 + addr * 4)
                .beats(u32::from(*beats) + 1)
                .width(width)
                .posted(*posted)
                .build(),
        );
    }
    script
}

fn expected_responses(script: &[Transaction]) -> u64 {
    script
        .iter()
        .filter(|t| !t.completes_on_acceptance())
        .count() as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random scripts from three initiators through an STBus node into an
    /// on-chip memory: the node grants every transaction and delivers every
    /// expected response.
    #[test]
    fn stbus_node_conserves_random_traffic(
        specs in prop::collection::vec(script_strategy(), 3),
        ws in 0u32..4,
        protocol_idx in 0usize..3,
    ) {
        let protocol = [ProtocolKind::StbusT1, ProtocolKind::StbusT2, ProtocolKind::StbusT3][protocol_idx];
        let width = DataWidth::BITS64;
        let clk = ClockDomain::from_mhz(250);
        let mut sim: Simulation<Packet> = Simulation::new();
        let mut node = StbusNode::new(
            "node",
            StbusNodeConfig { protocol, ..StbusNodeConfig::default() },
            clk,
        );
        let mut total_granted = 0u64;
        let mut total_delivered = 0u64;
        for (i, spec) in specs.iter().enumerate() {
            let req = sim.links_mut().add_link(format!("i{i}.req"), 2, clk.period());
            let resp = sim.links_mut().add_link(format!("i{i}.resp"), 2, clk.period());
            node.add_initiator(req, resp);
            let mut script = build_script(i as u16, spec, width);
            if !protocol.supports_posted_writes() {
                for t in &mut script {
                    t.posted = false;
                }
            }
            total_granted += script.len() as u64;
            total_delivered += expected_responses(&script);
            sim.add_component(
                Box::new(ScriptedInitiator::new(format!("i{i}"), req, resp, script, 3)),
                clk,
            );
        }
        let m_req = sim.links_mut().add_link("m.req", 1, clk.period());
        let m_resp = sim.links_mut().add_link("m.resp", 1, clk.period());
        let t = node.add_target(m_req, m_resp);
        node.add_route(AddressRange::new(0, 1 << 30), t).unwrap();
        sim.add_component(Box::new(node), clk);
        sim.add_component(
            Box::new(OnChipMemory::new(
                "mem",
                OnChipMemoryConfig { wait_states: ws },
                clk,
                m_req,
                m_resp,
            )),
            clk,
        );
        sim.run_to_quiescence_strict(Time::from_ms(50)).expect("drains");
        prop_assert_eq!(sim.stats().counter_by_name("node.granted"), total_granted);
        prop_assert_eq!(sim.stats().counter_by_name("node.delivered"), total_delivered);
    }

    /// A random script through a bridge chain into the LMI controller:
    /// everything drains regardless of bridge policy.
    #[test]
    fn bridge_chain_to_lmi_conserves(
        spec in script_strategy(),
        lightweight in any::<bool>(),
        lookahead in 0usize..6,
    ) {
        let width = DataWidth::BITS64;
        let src = ClockDomain::from_mhz(250);
        let dst = ClockDomain::from_mhz(200);
        let mut sim: Simulation<Packet> = Simulation::new();
        let a_req = sim.links_mut().add_link("a.req", 2, src.period());
        let a_resp = sim.links_mut().add_link("a.resp", 2, src.period());
        let cfg = LmiConfig { lookahead_depth: lookahead, ..LmiConfig::default() };
        let b_req = sim.links_mut().add_link("lmi.req", 1, dst.period());
        let b_resp = sim
            .links_mut()
            .add_link("lmi.resp", cfg.output_fifo_depth, dst.period());
        let bridge_cfg = if lightweight {
            BridgeConfig::lightweight()
        } else {
            BridgeConfig::genconv()
        };
        let halves = Bridge::build(
            "br",
            bridge_cfg,
            sim.links_mut(),
            src,
            dst,
            (a_req, a_resp),
            (b_req, b_resp),
        );
        let script = build_script(0, &spec, width);
        let n = script.len() as u64;
        let responses = expected_responses(&script);
        sim.add_component(
            Box::new(ScriptedInitiator::new("gen", a_req, a_resp, script, 4)),
            src,
        );
        sim.add_component(Box::new(halves.target_side), src);
        sim.add_component(Box::new(halves.initiator_side), dst);
        sim.add_component(Box::new(LmiController::new("lmi", cfg, dst, b_req, b_resp)), dst);
        sim.run_to_quiescence_strict(Time::from_ms(50)).expect("drains");
        prop_assert_eq!(sim.links().link(b_req).stats().pushes, n);
        prop_assert_eq!(sim.links().link(a_resp).stats().pushes, responses);
    }
}
