//! Pins what the sparse schedule *charges* and caps what it *dispatches*.
//!
//! A charged tick is an edge on which a component's deadline was due or a
//! watched delivery was pending; `Simulation::ticks_executed` counts those,
//! and the count is part of the repo's contract: `mpsoc_dse` reports it per
//! rung, the benchmark folds it into the `dse_search` digest, and the perf
//! ledger's `ticks`/`skipped` columns are compared across revisions. Stall
//! hints (`Component::stall_hint`) may only move ticks from *dispatched* to
//! *elided* — never change the total. The figures below were measured at
//! the commit before stall hints existed; both assertions are exact counts,
//! so they hold on any host.

use mpsoc_platform::{build_single_layer, SingleLayerSpec};
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

/// `DseResult` rung `sim_ticks` are `ticks_executed` deltas; the default
/// search charged 185 768 of them before stall hints.
#[test]
fn a_dse_search_charges_the_pinned_ticks() {
    let result = mpsoc_dse::explore(&mpsoc_dse::DseConfig::default()).expect("explores");
    let per_rung: Vec<u64> = result.rungs.iter().map(|r| r.sim_ticks).collect();
    assert_eq!(per_rung, [27_980, 39_762, 118_026]);
    assert_eq!(result.total_sim_ticks(), 185_768);
}
