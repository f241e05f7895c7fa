//! Idle-contract enforcement over the real platform models.
//!
//! The active-set scheduler skips a component's tick only when it is idle,
//! has no pending input on a watched link and no due `next_activity`
//! deadline. The contract that makes the skip sound: such a tick must be an
//! unobservable no-op. `Simulation::enable_skip_audit` turns every would-be
//! skip into an executed tick whose component state, RNG, stats, fault
//! engine and link queues are byte-compared around it — any difference
//! panics naming the violating component.
//!
//! The same audit covers the back-pressure half of the schedule: a tick
//! that is charged but *elided* because the component's `stall_hint` says
//! every due wake reason sits behind a shut gate (a full output wire, a
//! target mid-service) is dispatched under the audit too, and compared the
//! same way.
//!
//! One kind of elided tick has an effect: a component that is *waiting* —
//! the DSP stalled on a refill, an AHB bus held through its target's wait
//! states — declares the counter each waited cycle adds one to
//! (`StallHint::count_elided`), and the executor credits it by arithmetic.
//! The audit dispatches those ticks too and accepts exactly that one
//! increment, from the declared instant on, and nothing else.
//!
//! These tests run the audit over full platform builds (every component
//! crate: stbus, ahb, axi, bridge, memory, traffic, noc) across protocols,
//! topologies, memory systems, workloads and random seeds, and over the
//! saturated single-layer shapes where elision does most of its work.

use mpsoc_kernel::Time;
use mpsoc_memory::LmiConfig;
use mpsoc_platform::{
    build_platform, build_single_layer, MemorySystem, Platform, PlatformSpec, SingleLayerSpec,
    Topology, Workload,
};
use mpsoc_protocol::ProtocolKind;
use proptest::prelude::*;

/// How much simulated time each spec runs under audit. The audit
/// serializes the link table, stats registry and fault engine around every
/// would-be-skipped tick, which makes audited edges roughly two orders of
/// magnitude more expensive than plain ones — auditing a platform all the
/// way to quiescence takes minutes in a debug build. Contract violations
/// are not drain-time phenomena (components go idle and wake throughout
/// the run), so a bounded window per spec over many specs buys more
/// coverage per second than one exhaustive run.
const AUDIT_WINDOW: Time = Time::from_us(2);

/// Runs one spec under the skip audit; panics (failing the test) if any
/// component violates the idle contract inside the window.
fn audit(spec: &PlatformSpec) {
    let mut platform = build_platform(spec).unwrap_or_else(|e| {
        panic!(
            "platform must build for {:?}/{:?}: {e}",
            spec.protocol, spec.topology
        )
    });
    audit_window(&mut platform);
    assert!(
        platform.sim_mut().ticks_executed() > 0,
        "audited window must exercise {:?}/{:?}",
        spec.protocol,
        spec.topology
    );
}

fn audit_window(platform: &mut Platform) {
    platform.sim_mut().enable_skip_audit();
    platform.sim_mut().run_until(AUDIT_WINDOW);
}

/// Audits a back-pressured platform, after checking on an un-audited twin
/// that the window really contains elided ticks for the audit to dispatch.
fn audit_stalled(label: &str, build: impl Fn() -> Platform) {
    let mut plain = build();
    plain.sim_mut().run_until(AUDIT_WINDOW);
    assert!(
        plain.sim().ticks_elided() > 0,
        "{label}: no tick elided in the window — nothing for the audit to check"
    );
    audit_window(&mut build());
}

/// Ticks charged to the components `pick` names but never dispatched.
fn elided_by(platform: &Platform, pick: impl Fn(&str) -> bool) -> u64 {
    let sim = platform.sim();
    sim.component_ids()
        .filter(|&id| pick(sim.component_name(id)))
        .map(|id| sim.component_ticks(id) - sim.component_dispatches(id))
        .sum()
}

/// Audits a platform whose waiting components are elided by counted hints,
/// after checking on an un-audited twin that the ones each of `picks` names
/// really are elided inside the window.
fn audit_waiting(label: &str, picks: &[&dyn Fn(&str) -> bool], build: impl Fn() -> Platform) {
    let mut plain = build();
    plain.sim_mut().run_until(AUDIT_WINDOW);
    for (k, pick) in picks.iter().enumerate() {
        assert!(
            elided_by(&plain, pick) > 0,
            "{label}: pick {k} had no waiting tick elided in the window — nothing for the audit to check"
        );
    }
    audit_window(&mut build());
}

fn protocol(idx: usize) -> ProtocolKind {
    [ProtocolKind::StbusT3, ProtocolKind::Ahb, ProtocolKind::Axi][idx % 3]
}

fn topology(idx: usize) -> Topology {
    [
        Topology::SingleLayer,
        Topology::Collapsed,
        Topology::Distributed,
    ][idx % 3]
}

fn memory(idx: usize) -> MemorySystem {
    match idx % 3 {
        0 => MemorySystem::OnChip { wait_states: 1 },
        1 => MemorySystem::Lmi(LmiConfig::default()),
        _ => MemorySystem::DualLmi(LmiConfig::default()),
    }
}

fn workload(idx: usize) -> Workload {
    [
        Workload::Standard,
        Workload::TwoPhase,
        Workload::BurstyPosted,
    ][idx % 3]
}

/// The fixed regression matrix: the platform organisations the paper's
/// figures are built from, audited deterministically on every test run.
#[test]
fn paper_platforms_honour_the_idle_contract() {
    for (proto, topo, mem) in [
        (ProtocolKind::StbusT3, Topology::Distributed, memory(1)),
        (ProtocolKind::StbusT3, Topology::Collapsed, memory(0)),
        (ProtocolKind::Ahb, Topology::Distributed, memory(1)),
        (ProtocolKind::Axi, Topology::Distributed, memory(0)),
        (ProtocolKind::Axi, Topology::Collapsed, memory(2)),
        (ProtocolKind::StbusT3, Topology::SingleLayer, memory(0)),
    ] {
        audit(&PlatformSpec {
            protocol: proto,
            topology: topo,
            memory: mem,
            scale: 1,
            seed: 0x0dab,
            ..PlatformSpec::default()
        });
    }
}

/// The two-phase fig6 workload exercises the LMI residency settling path
/// (posted writes that drain store-and-consume in a single tick).
#[test]
fn two_phase_lmi_platform_honours_the_idle_contract() {
    audit(&PlatformSpec {
        protocol: ProtocolKind::StbusT3,
        topology: Topology::Distributed,
        memory: MemorySystem::Lmi(LmiConfig::default()),
        workload: Workload::TwoPhase,
        scale: 1,
        seed: 0x0dab,
        with_dsp: false,
        ..PlatformSpec::default()
    });
}

/// The benchmark's `cycle_saturated` shapes: generators that think for 0–2
/// cycles in front of single-slot memories, so request wires are full and
/// memories mid-service on most edges — the states the stall hints elide.
#[test]
fn saturated_single_layers_honour_the_idle_contract() {
    for (label, protocol, initiators, targets) in [
        ("stbus_t3_12x1", ProtocolKind::StbusT3, 12, 1),
        ("ahb_12x1", ProtocolKind::Ahb, 12, 1),
        ("axi_12x1", ProtocolKind::Axi, 12, 1),
        ("stbus_t2_8x4", ProtocolKind::StbusT2, 8, 4),
        ("axi_8x4", ProtocolKind::Axi, 8, 4),
    ] {
        audit_stalled(label, || {
            build_single_layer(&SingleLayerSpec {
                protocol,
                initiators,
                targets,
                think_cycles: (0, 2),
                scale: 1,
                seed: 0x0dab,
                ..SingleLayerSpec::default()
            })
            .expect("single layer must build")
        });
    }
}

/// The benchmark's `cycle_platform` shapes. All five hold the DSP, stalled
/// on cache refills most of its cycles; the AHB one also holds four buses
/// that sit through the memory's wait states — the two components whose
/// elided ticks count (`dsp.stall_cycles`, `<bus>.idle_waits`).
#[test]
fn waiting_components_honour_the_idle_contract() {
    use ProtocolKind::{Ahb, Axi, StbusT3};
    use Topology::{Collapsed, Distributed};
    let dsp = |name: &str| name == "dsp";
    let ahb_layer = |name: &str| ["n1", "n3", "n6", "n8"].contains(&name);
    for (label, protocol, topology, memory, workload) in [
        (
            "stbus_dist_lmi",
            StbusT3,
            Distributed,
            memory(1),
            workload(1),
        ),
        ("axi_dist_lmi", Axi, Distributed, memory(1), workload(1)),
        ("ahb_coll_lmi", Ahb, Collapsed, memory(1), workload(0)),
        (
            "stbus_coll_onchip",
            StbusT3,
            Collapsed,
            memory(0),
            workload(2),
        ),
        (
            "stbus_dist_onchip",
            StbusT3,
            Distributed,
            memory(0),
            workload(2),
        ),
    ] {
        let build = || {
            build_platform(&PlatformSpec {
                protocol,
                topology,
                memory: memory.clone(),
                workload,
                scale: 1,
                seed: 0x0dab,
                ..PlatformSpec::default()
            })
            .expect("platform must build")
        };
        if protocol == Ahb {
            audit_waiting(label, &[&dsp, &ahb_layer], build);
        } else {
            audit_waiting(label, &[&dsp], build);
        }
    }
    audit_waiting("ahb_12x1", &[&|name| name == "bus"], || {
        build_single_layer(&SingleLayerSpec {
            protocol: Ahb,
            initiators: 12,
            targets: 1,
            think_cycles: (0, 2),
            scale: 1,
            seed: 0x0dab,
            ..SingleLayerSpec::default()
        })
        .expect("single layer must build")
    });
}

/// A 32-wait-state on-chip memory behind the full platform (the slow end of
/// the FIG-4 sweep): every layer in front of the memory backs up, bridge
/// FIFOs included.
#[test]
fn slow_memory_platforms_honour_the_idle_contract() {
    for topology in [Topology::Collapsed, Topology::Distributed] {
        audit_stalled(&format!("{topology:?}/32ws"), || {
            build_platform(&PlatformSpec {
                topology,
                memory: MemorySystem::OnChip { wait_states: 32 },
                scale: 1,
                seed: 0x0dab,
                ..PlatformSpec::default()
            })
            .expect("platform must build")
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized sweep: any protocol x topology x memory x workload x
    /// seed combination must survive the skip audit. Ten cases per run
    /// keep the suite fast; the dimensions cycle so successive CI runs
    /// cover different corners.
    #[test]
    fn random_platforms_honour_the_idle_contract(
        proto_idx in 0usize..3,
        topo_idx in 0usize..3,
        mem_idx in 0usize..3,
        work_idx in 0usize..3,
        seed in 1u64..0xffff,
        with_dsp in any::<bool>(),
    ) {
        audit(&PlatformSpec {
            protocol: protocol(proto_idx),
            topology: topology(topo_idx),
            memory: memory(mem_idx),
            workload: workload(work_idx),
            scale: 1,
            seed,
            with_dsp,
            ..PlatformSpec::default()
        });
    }
}
