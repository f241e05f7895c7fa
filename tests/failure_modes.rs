//! Failure-injection tests: the framework must *diagnose* broken
//! configurations (deadlocks, wiring mistakes, starved workloads) rather
//! than hang or silently succeed.

use mpsoc_kernel::{ClockDomain, SimError, Simulation, Time};
use mpsoc_protocol::testing::ScriptedInitiator;
use mpsoc_protocol::{AddressRange, DataWidth, InitiatorId, Interconnect, Packet, Transaction};
use mpsoc_stbus::{StbusNode, StbusNodeConfig};

fn read(seq: u64, addr: u64) -> Transaction {
    Transaction::builder(InitiatorId::new(0), seq)
        .read(addr)
        .beats(4)
        .width(DataWidth::BITS64)
        .build()
}

/// A target that never answers: the run must end in a `Stalled` error that
/// names the busy components instead of spinning forever.
#[test]
fn unanswered_requests_are_diagnosed_as_a_stall() {
    let mut sim: Simulation<Packet> = Simulation::new();
    let clk = ClockDomain::from_mhz(250);
    let i_req = sim.links_mut().add_link("i.req", 2, clk.period());
    let i_resp = sim.links_mut().add_link("i.resp", 2, clk.period());
    let t_req = sim.links_mut().add_link("t.req", 4, clk.period());
    let t_resp = sim.links_mut().add_link("t.resp", 4, clk.period());
    let mut node = StbusNode::new("node", StbusNodeConfig::default(), clk);
    node.add_initiator(i_req, i_resp);
    let t = node.add_target(t_req, t_resp);
    node.add_route(AddressRange::new(0, 1 << 20), t).unwrap();
    sim.add_component(
        Box::new(ScriptedInitiator::new(
            "i",
            i_req,
            i_resp,
            vec![read(1, 0x100)],
            2,
        )),
        clk,
    );
    sim.add_component(Box::new(node), clk);
    // No target component: the request rots in t_req.
    let err = sim.run_to_quiescence_strict(Time::from_us(10)).unwrap_err();
    match err {
        SimError::Stalled { busy, at } => {
            assert!(at <= Time::from_us(10));
            assert!(
                busy.iter().any(|b| b == "node"),
                "the node holds in-flight state: {busy:?}"
            );
        }
        other => panic!("expected a stall, got {other:?}"),
    }
}

/// A request outside every mapped range is a wiring bug and must fail fast
/// with a message naming the address.
#[test]
#[should_panic(expected = "no route for address")]
fn unrouted_address_panics_with_the_address() {
    let mut sim: Simulation<Packet> = Simulation::new();
    let clk = ClockDomain::from_mhz(250);
    let i_req = sim.links_mut().add_link("i.req", 2, clk.period());
    let i_resp = sim.links_mut().add_link("i.resp", 2, clk.period());
    let t_req = sim.links_mut().add_link("t.req", 4, clk.period());
    let t_resp = sim.links_mut().add_link("t.resp", 4, clk.period());
    let mut node = StbusNode::new("node", StbusNodeConfig::default(), clk);
    node.add_initiator(i_req, i_resp);
    let t = node.add_target(t_req, t_resp);
    node.add_route(AddressRange::new(0, 0x1000), t).unwrap();
    sim.add_component(
        Box::new(ScriptedInitiator::new(
            "i",
            i_req,
            i_resp,
            vec![read(1, 0xdead_0000)],
            2,
        )),
        clk,
    );
    sim.add_component(Box::new(node), clk);
    sim.run_until(Time::from_us(1));
}

/// Overlapping routes are rejected at wiring time, before anything runs.
#[test]
fn overlapping_routes_rejected_at_build_time() {
    let clk = ClockDomain::from_mhz(250);
    let mut sim: Simulation<Packet> = Simulation::new();
    let t_req = sim.links_mut().add_link("t.req", 4, clk.period());
    let t_resp = sim.links_mut().add_link("t.resp", 4, clk.period());
    let mut node = StbusNode::new("node", StbusNodeConfig::default(), clk);
    let t = node.add_target(t_req, t_resp);
    node.add_route(AddressRange::new(0, 0x2000), t).unwrap();
    let err = node.add_route(AddressRange::new(0x1000, 0x3000), t);
    assert!(err.is_err());
    assert!(err.unwrap_err().to_string().contains("overlaps"));
}

/// The platform-level stall diagnosis surfaces through `Platform::run`.
#[test]
fn platform_horizon_produces_stalled_error() {
    use mpsoc_platform::{build_platform, PlatformSpec};
    let mut platform = build_platform(&PlatformSpec {
        scale: 4,
        ..PlatformSpec::default()
    })
    .expect("builds");
    // A horizon far too small for the workload: the error must say what is
    // still busy rather than pretending completion.
    let err = platform
        .run_with_horizon(Time::from_ns(500))
        .expect_err("cannot finish in 500 ns");
    assert!(matches!(err, SimError::Stalled { .. }));
    assert!(err.to_string().contains("stalled"));
}

/// Pushing into a full link is an explicit, typed error.
#[test]
fn link_overflow_is_a_typed_error() {
    let mut sim: Simulation<Packet> = Simulation::new();
    let clk = ClockDomain::from_mhz(100);
    let link = sim.links_mut().add_link("x", 1, clk.period());
    sim.links_mut()
        .push(link, Time::ZERO, Packet::Request(read(1, 0)))
        .unwrap();
    let err = sim
        .links_mut()
        .push(link, Time::ZERO, Packet::Request(read(2, 0)))
        .unwrap_err();
    assert!(matches!(err, SimError::LinkFull { .. }));
}
