//! Pins what the sparse schedule *charges* and caps what it *dispatches*.
//!
//! A charged tick is an edge on which a component's deadline was due or a
//! watched delivery was pending; `Simulation::ticks_executed` counts those,
//! and the count is part of the repo's contract: `mpsoc_dse` reports it per
//! rung, the benchmark folds it into the `dse_search` digest, and the perf
//! ledger's `ticks`/`skipped` columns are compared across revisions. Stall
//! hints (`Component::stall_hint`) may only move ticks from *dispatched* to
//! *elided* — never change the total — on an edge of the cycle gear and
//! inside a window of the fast gear (`FastCtx::stall`) alike. The figures
//! below were measured at the commit before each mechanism existed; all
//! assertions are exact counts, so they hold on any host.

use mpsoc_kernel::Fidelity;
use mpsoc_memory::LmiConfig;
use mpsoc_platform::{
    build_platform, build_single_layer, MemorySystem, PlatformSpec, SingleLayerSpec, Topology,
    Workload,
};
use mpsoc_protocol::ProtocolKind;

/// The STBus/AXI shapes of the benchmark's `cycle_saturated` workload
/// (`think_cycles` 0–2: generators blocked on full request wires most of
/// the time) at scale 4, seed 12345, with the ticks the pre-hint kernel
/// charged — and dispatched — for each.
const SATURATED: [(&str, ProtocolKind, usize, usize, u64); 4] = [
    ("stbus_t3_12x1", ProtocolKind::StbusT3, 12, 1, 477_859),
    ("axi_12x1", ProtocolKind::Axi, 12, 1, 432_788),
    ("stbus_t2_8x4", ProtocolKind::StbusT2, 8, 4, 181_786),
    ("axi_8x4", ProtocolKind::Axi, 8, 4, 162_180),
];

#[test]
fn saturated_platforms_charge_the_pinned_ticks_and_dispatch_a_fifth() {
    for (label, protocol, initiators, targets, pinned) in SATURATED {
        let mut platform = build_single_layer(&SingleLayerSpec {
            protocol,
            initiators,
            targets,
            think_cycles: (0, 2),
            scale: 4,
            seed: 12345,
            ..SingleLayerSpec::default()
        })
        .expect("builds");
        platform.run().expect("drains");
        let sim = platform.sim();
        assert_eq!(
            sim.ticks_executed(),
            pinned,
            "{label}: charged ticks moved — an elided tick must still be charged"
        );
        let dispatched = sim.ticks_executed() - sim.ticks_elided();
        assert!(
            dispatched * 5 <= pinned,
            "{label}: {dispatched} of {pinned} charged ticks dispatched, ceiling is 20 %"
        );
    }
}

/// The shapes of the benchmark's `cycle_platform` workload (multi-clock
/// platforms with bridges, memory controller and the DSP) at scale 4, seed
/// 12345, with the ticks the kernel charged before the DSP and the AHB bus
/// published a counted stall hint — when the stalled DSP and every held AHB
/// layer were dispatched on each of their cycles (36 / 15 / 83 / 52 / 39 %
/// of the charged ticks dispatched).
fn platform_shapes() -> [(&'static str, PlatformSpec, u64); 5] {
    let lmi = || MemorySystem::Lmi(LmiConfig::default());
    let on_chip = || MemorySystem::OnChip { wait_states: 1 };
    use ProtocolKind::{Ahb, Axi, StbusT3};
    use Topology::{Collapsed, Distributed};
    [
        (
            "stbus_dist_lmi",
            StbusT3,
            Distributed,
            lmi(),
            Workload::TwoPhase,
            288_203,
        ),
        (
            "axi_dist_lmi",
            Axi,
            Distributed,
            lmi(),
            Workload::TwoPhase,
            909_815,
        ),
        (
            "ahb_coll_lmi",
            Ahb,
            Collapsed,
            lmi(),
            Workload::Standard,
            574_450,
        ),
        (
            "stbus_coll_onchip",
            StbusT3,
            Collapsed,
            on_chip(),
            Workload::BurstyPosted,
            86_700,
        ),
        (
            "stbus_dist_onchip",
            StbusT3,
            Distributed,
            on_chip(),
            Workload::BurstyPosted,
            128_999,
        ),
    ]
    .map(|(label, protocol, topology, memory, workload, pinned)| {
        let spec = PlatformSpec {
            protocol,
            topology,
            memory,
            workload,
            scale: 4,
            seed: 12345,
            ..PlatformSpec::default()
        };
        (label, spec, pinned)
    })
}

#[test]
fn full_platforms_charge_the_pinned_ticks_and_dispatch_a_quarter() {
    let mut dispatched_total = 0;
    for (label, spec, pinned) in platform_shapes() {
        let mut platform = build_platform(&spec).expect("builds");
        platform.run().expect("drains");
        let sim = platform.sim();
        assert_eq!(
            sim.ticks_executed(),
            pinned,
            "{label}: charged ticks moved — an elided tick must still be charged"
        );
        let dispatched = sim.ticks_executed() - sim.ticks_elided();
        assert!(
            dispatched * 4 <= pinned,
            "{label}: {dispatched} of {pinned} charged ticks dispatched, ceiling is 25 %"
        );
        dispatched_total += dispatched;
    }
    // 812 804 before the two counted hints.
    assert!(
        dispatched_total <= 250_000,
        "{dispatched_total} ticks dispatched over the five shapes"
    );
}

/// `DseResult` rung `sim_ticks` are `ticks_executed` deltas; the default
/// search charged 185 768 of them before stall hints.
#[test]
fn a_dse_search_charges_the_pinned_ticks() {
    let result = mpsoc_dse::explore(&mpsoc_dse::DseConfig::default()).expect("explores");
    let per_rung: Vec<u64> = result.rungs.iter().map(|r| r.sim_ticks).collect();
    assert_eq!(per_rung, [27_980, 39_762, 118_026]);
    assert_eq!(result.total_sim_ticks(), 185_768);
}

/// The twelve on-chip shapes of the benchmark's `fast_gear` workload (its
/// simulation seeds, scale 2, one wait state) with the ticks a straight run
/// to quiescence at quantum 64 charged while the `fast_forward` hooks still
/// polled every edge of a stall — when every one of them was a tick body.
const FAST_GEAR: [(ProtocolKind, Topology, Workload, u64, u64); 12] = {
    use ProtocolKind::{Ahb, Axi, StbusT3};
    use Topology::{Collapsed, Distributed};
    use Workload::{BurstyPosted, Standard};
    [
        (StbusT3, Collapsed, BurstyPosted, 0x6c80_6a92, 9_125),
        (StbusT3, Collapsed, Standard, 0x9cb4_86ff, 47_020),
        (StbusT3, Distributed, BurstyPosted, 0x834a_426d, 14_351),
        (StbusT3, Distributed, Standard, 0x572c_42f8, 53_273),
        (Ahb, Collapsed, BurstyPosted, 0x024b_f59c, 94_894),
        (Ahb, Collapsed, Standard, 0xa418_d67b, 470_905),
        (Ahb, Distributed, BurstyPosted, 0xc1aa_d349, 329_420),
        (Ahb, Distributed, Standard, 0xd927_6ee0, 774_454),
        (Axi, Collapsed, BurstyPosted, 0xd330_4f13, 20_702),
        (Axi, Collapsed, Standard, 0x1442_d52c, 174_258),
        (Axi, Distributed, BurstyPosted, 0x9d0a_09b5, 71_566),
        (Axi, Distributed, Standard, 0xe5dd_cd90, 299_841),
    ]
};

#[test]
fn fast_gear_windows_charge_the_pinned_ticks_and_run_a_fifth_of_them() {
    let (mut charged_total, mut bodies_total) = (0, 0);
    for (protocol, topology, workload, seed, pinned) in FAST_GEAR {
        let label = format!("{protocol:?}/{topology:?}/{workload:?}");
        let mut platform = build_platform(&PlatformSpec {
            protocol,
            topology,
            memory: MemorySystem::OnChip { wait_states: 1 },
            workload,
            scale: 2,
            seed,
            ..PlatformSpec::default()
        })
        .expect("builds");
        platform
            .sim_mut()
            .set_fidelity(Fidelity::Fast { quantum: 64 });
        platform.run().expect("drains");
        let sim = platform.sim();
        assert_eq!(
            sim.ticks_executed(),
            pinned,
            "{label}: charged ticks moved — a stalled edge of a window must still be charged"
        );
        let bodies: u64 = sim
            .component_ids()
            .map(|id| sim.component_dispatches(id))
            .sum();
        assert_eq!(bodies, sim.ticks_executed() - sim.ticks_elided(), "{label}");
        charged_total += pinned;
        bodies_total += bodies;
    }
    // 2 359 809 of 2 359 809 while the hooks polled; 253 492 now.
    assert!(
        bodies_total * 5 <= charged_total,
        "{bodies_total} tick bodies for {charged_total} charged ticks, ceiling is 20 %"
    );
}
