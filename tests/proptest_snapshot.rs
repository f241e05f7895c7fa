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
//!
//! And restore fails closed past the checksum: a blob re-sealed after any
//! one integer of it was set to its maximum is refused, or decodes to
//! exactly what it says — never a hang, a panic, or a silently clamped or
//! defaulted field.

use mpsoc_kernel::{
    fnv1a_64, FaultSchedule, SimError, SnapshotBlob, SnapshotError, StateWriter, Time,
};
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

/// One tagged item of a snapshot payload, as the kernel's writer emits it.
#[derive(Debug, Clone, PartialEq)]
enum Item {
    Section(String),
    U8(u8),
    U16(u16),
    U32(u32),
    U64(u64),
    U128(u128),
    Bool(bool),
    Str(String),
    Bytes(Vec<u8>),
}

/// Splits a sealed blob's payload (past the 6-byte header, short of the
/// 8-byte checksum) into its tagged items.
fn parse_items(blob: &SnapshotBlob) -> Vec<Item> {
    fn take<'a>(rest: &mut &'a [u8], n: usize) -> &'a [u8] {
        let (head, tail) = rest.split_at(n);
        *rest = tail;
        head
    }
    fn word<const N: usize>(rest: &mut &[u8]) -> [u8; N] {
        take(rest, N).try_into().expect("N bytes")
    }
    let bytes = blob.as_bytes();
    let mut rest = &bytes[6..bytes.len() - 8];
    let mut items = Vec::new();
    while !rest.is_empty() {
        let tag = take(&mut rest, 1)[0];
        items.push(match tag {
            0x01 => Item::U8(take(&mut rest, 1)[0]),
            0x02 => Item::U16(u16::from_le_bytes(word(&mut rest))),
            0x03 => Item::U32(u32::from_le_bytes(word(&mut rest))),
            0x04 => Item::U64(u64::from_le_bytes(word(&mut rest))),
            0x05 => Item::U128(u128::from_le_bytes(word(&mut rest))),
            0x06 => Item::Bool(take(&mut rest, 1)[0] != 0),
            0x07..=0x09 => {
                let len = u32::from_le_bytes(word(&mut rest)) as usize;
                let raw = take(&mut rest, len).to_vec();
                match tag {
                    0x07 => Item::Str(String::from_utf8(raw).expect("utf-8")),
                    0x08 => Item::Section(String::from_utf8(raw).expect("utf-8")),
                    _ => Item::Bytes(raw),
                }
            }
            other => panic!("unknown stream tag {other:#04x}"),
        });
    }
    items
}

/// Writes `items` back through the public writer, whose `finish` seals
/// them: a re-sealed blob, as anyone able to write a spill file can make.
fn reseal(items: &[Item]) -> SnapshotBlob {
    let mut w = StateWriter::new();
    for item in items {
        match item {
            Item::Section(name) => w.section(name),
            Item::U8(v) => w.write_u8(*v),
            Item::U16(v) => w.write_u16(*v),
            Item::U32(v) => w.write_u32(*v),
            Item::U64(v) => w.write_u64(*v),
            Item::U128(v) => w.write_u128(*v),
            Item::Bool(v) => w.write_bool(*v),
            Item::Str(v) => w.write_str(v),
            Item::Bytes(v) => w.write_bytes(v),
        }
    }
    w.finish()
}

/// The item with its integer at the type's maximum, or `None` for an item
/// that holds no integer.
fn maxed(item: &Item) -> Option<Item> {
    Some(match item {
        Item::U8(_) => Item::U8(u8::MAX),
        Item::U16(_) => Item::U16(u16::MAX),
        Item::U32(_) => Item::U32(u32::MAX),
        Item::U64(_) => Item::U64(u64::MAX),
        Item::U128(_) => Item::U128(u128::MAX),
        _ => return None,
    })
}

/// How restoring one forged blob went.
#[derive(Debug, PartialEq)]
enum Verdict {
    /// The restore returned an error.
    Refused,
    /// The restore succeeded; whether the platform's checkpoint right
    /// after it is the forged blob, byte for byte.
    Restored { exact: bool },
    /// The restore panicked, with this message.
    Panicked(String),
}

/// A restore slower than this (debug build, loaded host) counts as a hang.
const RESTORE_BOUND: std::time::Duration = std::time::Duration::from_secs(20);

/// A re-sealed blob whose lengths, tags or indices cannot be what the
/// encoder wrote is refused; one whose integer merely holds another value
/// restores to exactly that value. For an AXI, an STBus and an AHB platform
/// — each with the DSP, LMI and bridges — checkpointed mid-run, every
/// integer in turn is set to its maximum and the blob re-sealed; each
/// restore must return within [`RESTORE_BOUND`] without panicking, and
/// either refuse the blob or take it verbatim (its checkpoint right after
/// is the forged blob). A length, tag or index that decoded would have to
/// re-encode as the maximum, which no bounded decode can hold, so each of
/// those is refused. Forged values are not run afterwards: `Time`
/// arithmetic is unchecked by design.
#[test]
fn resealed_blobs_with_a_maxed_integer_are_refused_or_taken_verbatim() {
    let shapes: Vec<PlatformSpec> = [ProtocolKind::Axi, ProtocolKind::StbusT3, ProtocolKind::Ahb]
        .into_iter()
        .map(|protocol| PlatformSpec {
            protocol,
            topology: Topology::Distributed,
            memory: MemorySystem::Lmi(LmiConfig::default()),
            workload: Workload::Standard,
            scale: 1,
            seed: 0x0dab,
            with_dsp: true,
            ..PlatformSpec::default()
        })
        .collect();
    let runs: Vec<_> = shapes
        .into_iter()
        .map(|spec| {
            let label = format!("{:?}", spec.protocol);
            let mut donor = build_platform(&spec).expect("builds");
            donor.sim_mut().run_until(Time::from_ns(1_500));
            let items = parse_items(&donor.checkpoint());
            assert_eq!(
                reseal(&items).as_bytes(),
                donor.checkpoint().as_bytes(),
                "{label}: the parser splits the stream losslessly"
            );
            let (tx, rx) = std::sync::mpsc::channel();
            let worker = {
                let items = items.clone();
                std::thread::spawn(move || {
                    let mut target = build_platform(&spec).expect("builds");
                    for (i, item) in items.iter().enumerate() {
                        let Some(forged_item) = maxed(item) else {
                            continue;
                        };
                        let mut forged = items.clone();
                        forged[i] = forged_item;
                        let blob = reseal(&forged);
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                target.restore(&blob).map(|()| target.checkpoint())
                            }));
                        let verdict = match outcome {
                            Ok(Err(_)) => Verdict::Refused,
                            Ok(Ok(taken)) => Verdict::Restored {
                                exact: taken.as_bytes() == blob.as_bytes(),
                            },
                            Err(panic) => Verdict::Panicked(
                                panic
                                    .downcast_ref::<String>()
                                    .cloned()
                                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                                    .unwrap_or_default(),
                            ),
                        };
                        let stop = matches!(verdict, Verdict::Panicked(_));
                        if verdict != (Verdict::Restored { exact: true }) {
                            // A refused restore leaves the platform unspecified.
                            target = build_platform(&spec).expect("builds");
                        }
                        if tx.send((i, verdict)).is_err() || stop {
                            return;
                        }
                    }
                })
            };
            (label, items, rx, worker)
        })
        .collect();
    for (label, items, rx, worker) in runs {
        let (mut refused, mut restored) = (0, 0);
        loop {
            match rx.recv_timeout(RESTORE_BOUND) {
                Ok((i, verdict)) => match verdict {
                    Verdict::Refused => refused += 1,
                    Verdict::Restored { exact: true } => restored += 1,
                    other => panic!("{label}: item {i} ({:?}) maxed: {other:?}", items[i]),
                },
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    panic!("{label}: a restore took longer than {RESTORE_BOUND:?}")
                }
            }
        }
        worker.join().expect("the worker reports every mutation");
        assert!(
            refused > 0 && restored > 0,
            "{label}: {refused} refused, {restored} restored"
        );
    }
}

/// A forged clock is refused, and promptly: a re-sealed STBus/LMI
/// checkpoint whose `time` lies past every bucket's next edge, or whose
/// bucket has its next edge off its clock's lattice. Either used to restore
/// and then run without end: the first from an instant no run reaches, the
/// second on edges the closed-form edge count assumes never happen.
#[test]
fn resealed_blobs_with_a_forged_clock_are_refused() {
    let spec = PlatformSpec {
        protocol: ProtocolKind::StbusT3,
        topology: Topology::Distributed,
        memory: MemorySystem::Lmi(LmiConfig::default()),
        workload: Workload::Standard,
        scale: 1,
        seed: 0x0dab,
        with_dsp: true,
        ..PlatformSpec::default()
    };
    let mut donor = build_platform(&spec).expect("builds");
    donor.sim_mut().run_until(Time::from_ns(1_500));
    let items = parse_items(&donor.checkpoint());
    let section = |name: &str| {
        items
            .iter()
            .position(|item| *item == Item::Section(name.to_owned()))
            .expect("the section is in the stream")
    };
    // meta: fingerprint, time, edges; buckets: count, then per bucket its
    // next edge and edge index.
    let time_at = section("meta") + 2;
    let time = donor.sim().time().as_ps();
    assert_eq!(items[time_at], Item::U64(time));
    let buckets_at = section("buckets") + 1;
    let next_edges: Vec<(usize, u64)> = (0..donor.sim().domain_count())
        .map(|b| {
            let at = buckets_at + 1 + 2 * b;
            match items[at] {
                Item::U64(next) => (at, next),
                ref other => panic!("bucket {b}: next edge is {other:?}"),
            }
        })
        .collect();
    let latest = next_edges
        .iter()
        .map(|&(_, next)| next)
        .max()
        .expect("buckets");
    let mut forgeries = vec![
        ("time u64::MAX - 1000".to_owned(), time_at, u64::MAX - 1000),
        (
            "time just past the latest next edge".to_owned(),
            time_at,
            latest + 1,
        ),
    ];
    for (b, &(at, next)) in next_edges.iter().enumerate() {
        forgeries.push((format!("bucket {b}: next edge 1 ps late"), at, next + 1));
    }
    let mut target = build_platform(&spec).expect("builds");
    for (what, at, value) in forgeries {
        let mut forged = items.clone();
        forged[at] = Item::U64(value);
        let started = std::time::Instant::now();
        let outcome = target.restore(&reseal(&forged));
        assert!(
            matches!(outcome, Err(SimError::Snapshot { .. })),
            "{what}: restored {outcome:?}"
        );
        assert!(started.elapsed() < RESTORE_BOUND, "{what}: took too long");
        target = build_platform(&spec).expect("builds");
    }
    // The genuine blob still restores.
    let blob = reseal(&items);
    target.restore(&blob).expect("the genuine blob restores");
    assert_eq!(target.checkpoint().as_bytes(), blob.as_bytes());
}
