//! Differential gear oracle: across randomized platform shapes and seeds,
//! the loosely-timed gear at `quantum = 1` must be **bit-identical** to the
//! cycle-accurate gear — the degenerate window visits every edge in order,
//! so temporal decoupling has nowhere to diverge — and a mid-run gear-shift
//! back to `Cycle` must land on a state that checkpoints and restores
//! bit-identically.
//!
//! The first property is the kernel's strongest regression guard for the
//! fast gear: any approximation that leaks into the degenerate window
//! (slack applied at `quantum = 1`, a reordered wake, a bulk-credited
//! counter created at the wrong instant) shows up as a byte diff in the
//! final checkpoint, not as a subtle table drift.
//!
//! Above quantum 1 the gear has no exact reference in another gear, but it
//! has one in itself: on the dense schedule a window dispatches every tick
//! it charges (`FastCtx::stall` is a no-op there and the hooks poll edge by
//! edge), so a **dense twin** must end at the same instant, in the same
//! report and the same checkpoint as the sparse run, at any quantum — and a
//! downshift to `Cycle` mid-run must leave both on the same road.

use mpsoc_dse::{build_candidate, sample_generation};
use mpsoc_kernel::{ExecMode, Fidelity, Time};
use mpsoc_memory::LmiConfig;
use mpsoc_platform::{build_platform, MemorySystem, Platform, PlatformSpec, Topology, Workload};
use mpsoc_protocol::ProtocolKind;
use proptest::prelude::*;

const HORIZON: Time = Time::from_ms(60);

fn spec_from(
    proto_idx: usize,
    topo_idx: usize,
    mem_idx: usize,
    workload_idx: usize,
    seed: u64,
) -> PlatformSpec {
    let protocol = [ProtocolKind::StbusT3, ProtocolKind::Ahb, ProtocolKind::Axi][proto_idx];
    let topology = [
        Topology::SingleLayer,
        Topology::Collapsed,
        Topology::Distributed,
    ][topo_idx];
    let memory = match mem_idx {
        0 => MemorySystem::OnChip { wait_states: 1 },
        1 => MemorySystem::OnChip { wait_states: 4 },
        _ => MemorySystem::Lmi(LmiConfig::default()),
    };
    let workload = [Workload::Standard, Workload::BurstyPosted][workload_idx];
    PlatformSpec {
        protocol,
        topology,
        memory,
        workload,
        scale: 1,
        seed,
        ..PlatformSpec::default()
    }
}

/// The quanta the dense twin is held to: the benchmark's error ladder.
const QUANTA: [u64; 3] = [4, 16, 64];

/// Sparse and dense twins of one platform, both in the fast gear.
fn twins(build: impl Fn() -> Platform, quantum: u64) -> [Platform; 2] {
    [false, true].map(|dense| {
        let mut platform = build();
        platform.sim_mut().set_dense(dense);
        platform.sim_mut().set_fidelity(Fidelity::Fast { quantum });
        platform
    })
}

/// Both twins to `cut` in the fast gear, then down to `Cycle` and on until
/// they drain (or to `end`): the same checkpoint at the seam and at the end.
fn assert_twins_downshift_alike(build: impl Fn() -> Platform, quantum: u64, cut: Time, end: Time) {
    let [sparse, dense] = twins(build, quantum).map(|mut twin| {
        twin.sim_mut().run_until(cut);
        twin.sim_mut().set_fidelity(Fidelity::Cycle);
        let seam = twin.checkpoint();
        twin.sim_mut().run_to_quiescence(end);
        [seam, twin.checkpoint()]
    });
    for (sparse, dense) in sparse.iter().zip(&dense) {
        assert!(
            sparse.as_bytes() == dense.as_bytes(),
            "twins differ after a downshift at {cut}, quantum {quantum}"
        );
    }
}

/// One candidate of each `mpsoc_dse` fabric family (shared STBus, partial
/// crossbar over bridges, NoC mesh) on either memory system: the twins
/// agree at the end of the search's fast rung and after its downshift.
#[test]
fn dense_twins_of_dse_candidates_agree() {
    let (cut, end) = (Time::from_us(12), Time::from_us(16));
    for candidate in sample_generation(6, 0x5eed) {
        let build = || build_candidate(&candidate, 1, 0x0dab, ExecMode::default()).expect("builds");
        for quantum in QUANTA {
            assert_twins_downshift_alike(build, quantum, cut, end);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The dense twin is the fast gear's oracle above quantum 1: same end
    /// instant, same report, same checkpoint.
    #[test]
    fn dense_twin_is_byte_identical_at_every_quantum(
        proto_idx in 0usize..3,
        topo_idx in 0usize..3,
        mem_idx in 0usize..3,
        workload_idx in 0usize..2,
        seed in 0u64..10_000,
    ) {
        let spec = spec_from(proto_idx, topo_idx, mem_idx, workload_idx, seed);
        for quantum in QUANTA {
            let [sparse, dense] = twins(|| build_platform(&spec).expect("builds"), quantum).map(
                |mut twin| {
                    let end = twin
                        .sim_mut()
                        .run_to_quiescence_strict(HORIZON)
                        .expect("fast run drains");
                    (end, format!("{:?}", twin.report_at(end)), twin.checkpoint())
                },
            );
            prop_assert!(sparse.0 == dense.0, "end instant, quantum {}", quantum);
            prop_assert!(sparse.1 == dense.1, "report, quantum {}", quantum);
            prop_assert!(
                sparse.2.as_bytes() == dense.2.as_bytes(),
                "checkpoint, quantum {}",
                quantum
            );
        }
    }

    /// Shifting down to `Cycle` mid-run from either twin leaves the same
    /// state at the seam and the same run after it.
    #[test]
    fn dense_twins_downshift_alike(
        proto_idx in 0usize..3,
        topo_idx in 0usize..3,
        mem_idx in 0usize..3,
        workload_idx in 0usize..2,
        seed in 0u64..10_000,
        quantum_idx in 0usize..3,
        cut_us in 1u64..40,
    ) {
        let spec = spec_from(proto_idx, topo_idx, mem_idx, workload_idx, seed);
        assert_twins_downshift_alike(
            || build_platform(&spec).expect("builds"),
            QUANTA[quantum_idx],
            Time::from_us(cut_us),
            HORIZON,
        );
    }

    /// `Fast { quantum: 1 }` is the identity gear: same end instant, same
    /// final checkpoint bytes, same rendered report as `Cycle`.
    #[test]
    fn quantum_one_is_byte_identical_to_cycle(
        proto_idx in 0usize..3,
        topo_idx in 0usize..3,
        mem_idx in 0usize..3,
        workload_idx in 0usize..2,
        seed in 0u64..10_000,
    ) {
        let spec = spec_from(proto_idx, topo_idx, mem_idx, workload_idx, seed);

        let mut cycle = build_platform(&spec).expect("platform builds");
        cycle.sim_mut().set_fidelity(Fidelity::Cycle);
        let end = cycle
            .sim_mut()
            .run_to_quiescence_strict(HORIZON)
            .expect("cycle run drains");
        let cycle_blob = cycle.checkpoint();
        let cycle_report = cycle.report_at(end).to_string();

        let mut fast = build_platform(&spec).expect("platform builds");
        fast.sim_mut().set_fidelity(Fidelity::Fast { quantum: 1 });
        let end_fast = fast
            .sim_mut()
            .run_to_quiescence_strict(HORIZON)
            .expect("fast run drains");

        prop_assert_eq!(end_fast, end);
        // The gear itself is runtime strategy, not state: shift back to
        // Cycle so the checkpoints compare the simulated state alone.
        fast.sim_mut().set_fidelity(Fidelity::Cycle);
        let fast_blob = fast.checkpoint();
        prop_assert_eq!(fast_blob.as_bytes(), cycle_blob.as_bytes());
        prop_assert_eq!(fast.report_at(end_fast).to_string(), cycle_report);
    }

    /// A mid-run downshift is a clean seam: run loosely-timed to some
    /// instant, shift to `Cycle`, checkpoint — restoring that blob into a
    /// fresh cycle-gear platform and finishing the run must reproduce the
    /// donor's own finish byte for byte.
    #[test]
    fn mid_run_gear_shift_restores_bit_identically(
        proto_idx in 0usize..3,
        topo_idx in 0usize..3,
        mem_idx in 0usize..3,
        workload_idx in 0usize..2,
        seed in 0u64..10_000,
        quantum in 1u64..128,
        cut_us in 1u64..40,
    ) {
        let spec = spec_from(proto_idx, topo_idx, mem_idx, workload_idx, seed);

        // Donor: loosely-timed prefix, downshift at the cut, checkpoint.
        let mut donor = build_platform(&spec).expect("platform builds");
        donor.sim_mut().set_fidelity(Fidelity::Fast { quantum });
        donor.sim_mut().run_until(Time::from_us(cut_us));
        donor.sim_mut().set_fidelity(Fidelity::Cycle);
        let seam = donor.checkpoint();
        let end = donor
            .sim_mut()
            .run_to_quiescence_strict(HORIZON)
            .expect("donor run drains");
        let donor_blob = donor.checkpoint();

        // Restored: fresh cycle-gear platform, fed the seam blob.
        let mut restored = build_platform(&spec).expect("platform builds");
        restored.restore(&seam).expect("restore accepts the blob");
        let end2 = restored
            .sim_mut()
            .run_to_quiescence_strict(HORIZON)
            .expect("restored run drains");

        prop_assert_eq!(end2, end);
        let restored_blob = restored.checkpoint();
        prop_assert_eq!(restored_blob.as_bytes(), donor_blob.as_bytes());
    }
}
