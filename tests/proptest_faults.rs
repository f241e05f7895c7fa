//! Property-based fault-injection tests: whatever random fault schedule is
//! armed, the recovery machinery accounts for every injected fault
//! (recovered or explicitly lost — never silently dropped) and every
//! response-expecting transaction still receives exactly one completion,
//! clean or error.

use mpsoc_bridge::{Bridge, BridgeConfig};
use mpsoc_kernel::{ClockDomain, FaultKind, FaultSchedule, Simulation, Time};
use mpsoc_memory::{LmiConfig, LmiController, OnChipMemory, OnChipMemoryConfig};
use mpsoc_protocol::testing::ScriptedInitiator;
use mpsoc_protocol::{
    AddressRange, DataWidth, InitiatorId, Interconnect, Packet, ProtocolKind, Transaction,
};
use mpsoc_stbus::{StbusNode, StbusNodeConfig};
use proptest::prelude::*;

/// Parameters of one random initiator script (mirrors
/// `proptest_conservation`).
#[derive(Debug, Clone)]
struct ScriptSpec {
    reads: Vec<(u64, u8)>,
    writes: Vec<(u64, u8, bool)>,
}

fn script_strategy() -> impl Strategy<Value = ScriptSpec> {
    (
        prop::collection::vec((0u64..(1 << 16), 0u8..16), 0..20),
        prop::collection::vec((0u64..(1 << 16), 0u8..16, any::<bool>()), 0..20),
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

/// A random but bounded fault schedule: every kind gets an independent
/// rate up to 10 %, recovery parameters stay small enough that retries
/// resolve well inside the drain horizon.
fn schedule_strategy() -> impl Strategy<Value = FaultSchedule> {
    (
        any::<u64>(),
        prop::collection::vec(0u32..100_000, 5),
        0u32..5,
        8u64..64,
    )
        .prop_map(|(seed, rates, budget, timeout)| {
            let mut schedule = FaultSchedule::uniform(0, seed)
                .with_retry_budget(budget)
                .with_timeout_cycles(timeout);
            for (kind, rate) in FaultKind::ALL.into_iter().zip(rates) {
                schedule = schedule.with_rate(kind, rate);
            }
            FaultSchedule {
                stall_cycles: 16,
                storm_refreshes: 4,
                glitch_cycles: 8,
                ..schedule
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random scripts through an STBus node into an on-chip memory while a
    /// random fault schedule drops grants: faults conserve (injected =
    /// recovered + lost) and every response-expecting transaction gets
    /// exactly one completion, clean or error.
    #[test]
    fn faulty_stbus_node_conserves_transactions(
        specs in prop::collection::vec(script_strategy(), 3),
        schedule in schedule_strategy(),
        protocol_idx in 0usize..3,
    ) {
        let protocol = [
            ProtocolKind::StbusT1,
            ProtocolKind::StbusT2,
            ProtocolKind::StbusT3,
        ][protocol_idx];
        let width = DataWidth::BITS64;
        let clk = ClockDomain::from_mhz(250);
        let mut sim: Simulation<Packet> = Simulation::new();
        let mut node = StbusNode::new(
            "node",
            StbusNodeConfig { protocol, ..StbusNodeConfig::default() },
            clk,
        );
        let mut resp_links = Vec::new();
        let mut total_responses = 0u64;
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
            total_responses += expected_responses(&script);
            resp_links.push(resp);
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
                OnChipMemoryConfig { wait_states: 1 },
                clk,
                m_req,
                m_resp,
            )),
            clk,
        );
        sim.arm_faults(schedule);
        sim.run_to_quiescence_strict(Time::from_ms(50)).expect("drains");

        let counts = sim.fault_counts();
        // Every injected fault must be recovered or explicitly lost.
        prop_assert_eq!(counts.injected(), counts.recovered + counts.lost);
        let completions: u64 = resp_links
            .iter()
            .map(|&l| sim.links().link(l).stats().pushes)
            .sum();
        // One completion (clean or error) per response-expecting transaction.
        prop_assert_eq!(completions, total_responses);
    }

    /// A random script through a bridge chain into the LMI controller under
    /// a random fault schedule: the bridge's retry/backoff and the LMI's
    /// stall/storm degradation still conserve faults and completions.
    #[test]
    fn faulty_bridge_chain_to_lmi_conserves(
        spec in script_strategy(),
        schedule in schedule_strategy(),
        lightweight in any::<bool>(),
    ) {
        let width = DataWidth::BITS64;
        let src = ClockDomain::from_mhz(250);
        let dst = ClockDomain::from_mhz(200);
        let mut sim: Simulation<Packet> = Simulation::new();
        let a_req = sim.links_mut().add_link("a.req", 2, src.period());
        let a_resp = sim.links_mut().add_link("a.resp", 2, src.period());
        let cfg = LmiConfig::default();
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
        let responses = expected_responses(&script);
        sim.add_component(
            Box::new(ScriptedInitiator::new("gen", a_req, a_resp, script, 4)),
            src,
        );
        sim.add_component(Box::new(halves.target_side), src);
        sim.add_component(Box::new(halves.initiator_side), dst);
        sim.add_component(Box::new(LmiController::new("lmi", cfg, dst, b_req, b_resp)), dst);
        sim.arm_faults(schedule);
        sim.run_to_quiescence_strict(Time::from_ms(50)).expect("drains");

        let counts = sim.fault_counts();
        // Every injected fault must be recovered or explicitly lost.
        prop_assert_eq!(counts.injected(), counts.recovered + counts.lost);
        // One completion (clean or error) per response-expecting transaction.
        prop_assert_eq!(sim.links().link(a_resp).stats().pushes, responses);
    }
}
