//! Differential snapshot oracle: across randomized platform shapes, seeds
//! and fault schedules, `checkpoint` → `restore` → run must be
//! **bit-identical** to never having snapshotted at all.
//!
//! Each case runs three passes over the same specification:
//!
//! 1. *reference* — build, run to quiescence, keep the end time, the final
//!    checkpoint bytes and the rendered run report;
//! 2. *prefix* — fresh build, run to half the reference end time, take a
//!    mid-flight checkpoint;
//! 3. *restored* — another fresh build, restore the mid-flight blob, run
//!    to quiescence.
//!
//! Pass 3 must reproduce pass 1 exactly: same end instant, byte-identical
//! final checkpoint (which transitively covers every component's state,
//! the RNG cursor, the fault engine, stats and link queues), and the same
//! rendered report. A trailing property checks that corrupted blobs are
//! rejected rather than silently half-applied.
//!
//! Restore is also a complete reset: restoring into a platform that has
//! already run must equal restoring into a fresh build, at once and in the
//! run that follows.

use mpsoc_kernel::{fnv1a_64, FaultSchedule, SimError, SnapshotBlob, SnapshotError, Time};
use mpsoc_memory::LmiConfig;
use mpsoc_platform::experiments::parallel_map;
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

fn build_armed(spec: &PlatformSpec, faults: &Option<FaultSchedule>) -> Platform {
    let mut platform = build_platform(spec).expect("platform builds");
    if let Some(schedule) = faults {
        platform.arm_faults(*schedule);
    }
    platform
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The restored tail of a run is indistinguishable from the uncut run.
    #[test]
    fn restore_then_run_is_bit_identical(
        proto_idx in 0usize..3,
        topo_idx in 0usize..3,
        mem_idx in 0usize..3,
        workload_idx in 0usize..2,
        seed in 0u64..10_000,
        fault_rate in 0u32..2_000,
        fault_seed in 0u64..1_000,
    ) {
        let spec = spec_from(proto_idx, topo_idx, mem_idx, workload_idx, seed);
        let faults = (fault_rate > 0).then(|| FaultSchedule::uniform(fault_rate, fault_seed));

        // Pass 1: the uninterrupted reference run.
        let mut reference = build_armed(&spec, &faults);
        let end = reference
            .sim_mut()
            .run_to_quiescence_strict(HORIZON)
            .expect("reference run drains");
        let final_blob = reference.checkpoint();
        let final_report = reference.report_at(end).to_string();

        // Pass 2: identical prefix, cut mid-flight.
        let mid = Time::from_ps(end.as_ps() / 2);
        let mut prefix = build_armed(&spec, &faults);
        prefix.sim_mut().run_until(mid);
        let mid_blob = prefix.checkpoint();

        // Pass 3: restore into a fresh build — faults deliberately NOT
        // re-armed, the snapshot must carry the engine — and run out.
        let mut restored = build_platform(&spec).expect("platform builds");
        restored.restore(&mid_blob).expect("restore accepts the blob");
        let end2 = restored
            .sim_mut()
            .run_to_quiescence_strict(HORIZON)
            .expect("restored run drains");

        // Same end instant, byte-identical final checkpoint, same report.
        prop_assert_eq!(end2, end);
        let restored_blob = restored.checkpoint();
        prop_assert_eq!(restored_blob.as_bytes(), final_blob.as_bytes());
        prop_assert_eq!(restored.report_at(end2).to_string(), final_report);
    }

    /// Restoring the mid-flight blob is repeatable: two fresh builds fed
    /// the same blob produce byte-identical checkpoints immediately.
    #[test]
    fn restore_is_idempotent(
        proto_idx in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let spec = spec_from(proto_idx, 2, 0, 0, seed);
        let mut donor = build_platform(&spec).expect("builds");
        donor.sim_mut().run_until(Time::from_us(2));
        let blob = donor.checkpoint();
        let mut a = build_platform(&spec).expect("builds");
        let mut b = build_platform(&spec).expect("builds");
        a.restore(&blob).expect("restores");
        b.restore(&blob).expect("restores");
        let (blob_a, blob_b) = (a.checkpoint(), b.checkpoint());
        prop_assert_eq!(blob_a.as_bytes(), blob_b.as_bytes());
    }

    /// A blob with any single corrupted byte is rejected up front — never
    /// half-applied.
    #[test]
    fn corrupted_blobs_are_rejected(
        seed in 0u64..10_000,
        victim in 0usize..1_000_000,
        flip in 1u32..256,
    ) {
        let spec = spec_from(0, 2, 0, 0, seed);
        let mut donor = build_platform(&spec).expect("builds");
        donor.sim_mut().run_until(Time::from_us(1));
        let blob = donor.checkpoint();
        let mut bytes = blob.as_bytes().to_vec();
        let victim = victim % bytes.len();
        bytes[victim] ^= flip as u8;
        let mut target = build_platform(&spec).expect("builds");
        let err = target
            .restore(&SnapshotBlob::from_bytes(bytes))
            .expect_err("corruption must be detected");
        prop_assert!(
            matches!(err, SimError::Snapshot { .. }),
            "expected a snapshot error, got {err}"
        );
    }
}

/// A mid-run checkpoint of a real platform.
fn platform_blob() -> SnapshotBlob {
    let mut donor = build_platform(&spec_from(0, 0, 0, 0, 7)).expect("builds");
    donor.sim_mut().run_until(Time::from_us(1));
    donor.checkpoint()
}

/// The checksum is exact for a single flipped byte, not probable: every
/// byte past the header, flipped, is a checksum mismatch.
#[test]
fn every_flipped_byte_of_a_platform_checkpoint_is_a_bad_checksum() {
    let blob = platform_blob();
    let mut bytes = blob.as_bytes().to_vec();
    for i in 0..bytes.len() {
        let flip = 1u8 << (i % 8);
        bytes[i] ^= flip;
        let got = SnapshotBlob::from_bytes(bytes.clone()).fingerprint();
        let want = match i {
            0..=3 => SnapshotError::BadMagic,
            4 | 5 => SnapshotError::BadVersion {
                found: u16::from_le_bytes([bytes[4], bytes[5]]),
            },
            _ => SnapshotError::BadChecksum,
        };
        assert_eq!(got, Err(want), "byte {i} of {}", bytes.len());
        bytes[i] ^= flip;
    }
    assert_eq!(blob.as_bytes(), &bytes[..]);
}

/// A blob of the previous format — a v2 spill or frontier file — is
/// refused by its version, before its checksum is looked at.
#[test]
fn a_v2_blob_is_refused_by_version() {
    let mut bytes = platform_blob().as_bytes().to_vec();
    bytes[4..6].copy_from_slice(&2u16.to_le_bytes());
    assert_eq!(
        SnapshotBlob::from_bytes(bytes).fingerprint(),
        Err(SnapshotError::BadVersion { found: 2 })
    );
}

/// Everything a run leaves to compare: the rendered report, the final
/// checkpoint (its length and hash, which keeps a failure readable), the
/// kernel's tick and edge counts, and every component's charged ticks and
/// dispatches.
#[derive(Debug, PartialEq)]
struct Outcome {
    end: Time,
    report: String,
    checkpoint: (usize, u64),
    ticks_executed: u64,
    ticks_elided: u64,
    edges: u64,
    per_component: Vec<(u64, u64)>,
}

/// Restores `blob` into `platform`, sets the tail's wait states where the
/// platform has an on-chip memory, and runs it out. Returns the checkpoint
/// bytes right after the restore and the run's outcome.
fn fork(platform: &mut Platform, blob: &SnapshotBlob, wait_states: u32) -> (Vec<u8>, Outcome) {
    platform.restore(blob).expect("restores");
    let restored = platform.checkpoint().as_bytes().to_vec();
    platform.set_memory_wait_states(wait_states);
    let end = platform
        .sim_mut()
        .run_to_quiescence_strict(HORIZON)
        .expect("tail drains");
    let sim = platform.sim();
    let outcome = Outcome {
        end,
        report: platform.report_at(end).to_string(),
        checkpoint: {
            let blob = platform.checkpoint();
            (blob.as_bytes().len(), fnv1a_64(blob.as_bytes()))
        },
        ticks_executed: sim.ticks_executed(),
        ticks_elided: sim.ticks_elided(),
        edges: sim.edges_processed(),
        per_component: sim
            .component_ids()
            .map(|id| (sim.component_ticks(id), sim.component_dispatches(id)))
            .collect(),
    };
    (restored, outcome)
}

/// Restore is a complete reset: for every protocol × topology × {on-chip
/// bursty, LMI two-phase, on-chip standard}, one platform serves the tails
/// of checkpoints taken at 0, 300, 1 000 and 3 000 ns one after the other —
/// its first use a whole run at other wait states, every later one the
/// previous tail at other wait states than the next — and each fork must
/// equal the same fork into a fresh build, in the checkpoint bytes at once
/// and in everything the tail leaves.
#[test]
fn restoring_into_a_used_platform_equals_restoring_into_a_fresh_one() {
    const CUTS_NS: [u64; 4] = [0, 300, 1_000, 3_000];
    const TAIL_WAIT_STATES: [u32; 4] = [4, 1, 9, 2];
    let mut shapes = Vec::new();
    for protocol in [
        ProtocolKind::StbusT1,
        ProtocolKind::StbusT2,
        ProtocolKind::StbusT3,
        ProtocolKind::Ahb,
        ProtocolKind::Axi,
    ] {
        for topology in [
            Topology::SingleLayer,
            Topology::Collapsed,
            Topology::Distributed,
        ] {
            for (memory, workload) in [
                (
                    MemorySystem::OnChip { wait_states: 1 },
                    Workload::BurstyPosted,
                ),
                (MemorySystem::Lmi(LmiConfig::default()), Workload::TwoPhase),
                (MemorySystem::OnChip { wait_states: 1 }, Workload::Standard),
            ] {
                shapes.push(PlatformSpec {
                    protocol,
                    topology,
                    memory,
                    workload,
                    scale: 1,
                    seed: 0x0dab,
                    ..PlatformSpec::default()
                });
            }
        }
    }
    assert_eq!(shapes.len(), 45);
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    parallel_map(shapes, jobs, |spec| {
        let shape = format!(
            "{:?}/{:?}/{:?}",
            spec.protocol, spec.topology, spec.workload
        );
        let lmi = matches!(spec.memory, MemorySystem::Lmi(_));
        let mut donor = build_platform(&spec).expect("builds");
        let blobs: Vec<SnapshotBlob> = CUTS_NS
            .iter()
            .map(|&ns| {
                donor.sim_mut().run_until(Time::from_ns(ns));
                donor.checkpoint()
            })
            .collect();

        let mut used = build_platform(&spec).expect("builds");
        used.set_memory_wait_states(16);
        used.sim_mut()
            .run_to_quiescence_strict(HORIZON)
            .expect("first use drains");
        for ((blob, ns), ws) in blobs.iter().zip(CUTS_NS).zip(TAIL_WAIT_STATES) {
            let (fresh_restored, fresh) =
                fork(&mut build_platform(&spec).expect("builds"), blob, ws);
            let (used_restored, reused) = fork(&mut used, blob, ws);
            assert!(
                used_restored == fresh_restored,
                "{shape} cut at {ns} ns: checkpoint bytes right after the restore differ"
            );
            assert_eq!(
                reused,
                fresh,
                "{shape} cut at {ns} ns, tail at {ws} wait states{}",
                if lmi { " (LMI: no wait states)" } else { "" }
            );
        }
    });
}
