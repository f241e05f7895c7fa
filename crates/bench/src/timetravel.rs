//! Time-travel debugging: periodic checkpoints, rewind, traced replay.
//!
//! `repro --exp <id> --checkpoint-every <ns> --rewind-to <ns>` drives this
//! module. A representative platform for the experiment runs forward while
//! the harness checkpoints it every N simulated nanoseconds; the harness
//! then *rewinds* — restores the last checkpoint taken before the
//! requested instant into a fresh platform — arms event tracing, and
//! deterministically re-executes the window up to the target. Because the
//! kernel replays bit-for-bit, the traced re-run shows exactly what the
//! original (untraced) pass did around the instant of interest; the
//! harness proves it by byte-comparing a checkpoint taken at the target
//! against one from the reference pass. Trace buffers are deliberately
//! outside the snapshot, so arming tracing cannot perturb the comparison.

use crate::Run;
use mpsoc_kernel::{SimError, SimResult, SnapshotBlob, SnapshotError, Time};
use mpsoc_memory::LmiConfig;
use mpsoc_platform::{
    build_platform, Interconnect, MemorySystem, PlatformSpec, Topology, Workload,
};
use mpsoc_protocol::ProtocolKind;
use std::fmt;

/// Trace-buffer capacity armed for the replay window.
const TRACE_CAPACITY: usize = 4096;

/// Trailing trace records included in the rendered report.
const TRACE_TAIL: usize = 20;

/// A platform specification exercising the subsystems the experiment `id`
/// is about — the stage on which the time-travel debugger operates.
///
/// The sweep-shaped experiments run many platform instances; rewinding
/// needs exactly one, so each id maps to a single representative point
/// (the `noc` mesh study gets the distributed STBus platform as its
/// platform-shaped proxy). Returns `None` for unknown ids.
pub fn representative_spec(id: &str, run: Run) -> Option<PlatformSpec> {
    let base = run.platform_spec();
    let spec = match id {
        "many-to-many" | "buffering" => PlatformSpec {
            topology: Topology::SingleLayer,
            ..base
        },
        "many-to-one" => PlatformSpec {
            topology: Topology::SingleLayer,
            protocol: ProtocolKind::Ahb,
            ..base
        },
        // The design-space explorer races many candidate fabrics; its
        // time-travel stage is the same full distributed platform the
        // fig3/noc studies use.
        "fig3" | "noc" | "dse" => base,
        // The fast-forward gear study sweeps the same fig4 platform, so it
        // shares fig4's representative point.
        "fig4" | "fidelity" => PlatformSpec {
            workload: Workload::BurstyPosted,
            memory: MemorySystem::OnChip { wait_states: 8 },
            ..base
        },
        "fig5" | "lmi" | "arbitration" | "robustness" => PlatformSpec {
            memory: MemorySystem::Lmi(LmiConfig::default()),
            ..base
        },
        "fig6" => PlatformSpec {
            workload: Workload::TwoPhase,
            memory: MemorySystem::Lmi(LmiConfig::default()),
            ..base
        },
        "bridges" => PlatformSpec {
            protocol: ProtocolKind::Axi,
            ..base
        },
        "tlm" => PlatformSpec {
            interconnect: Interconnect::TransactionLevel,
            ..base
        },
        "dual-channel" => PlatformSpec {
            memory: MemorySystem::DualLmi(LmiConfig::default()),
            ..base
        },
        _ => return None,
    };
    Some(spec)
}

/// The result of one rewind-and-replay session, printable as a report.
#[derive(Debug)]
pub struct TimeTravelReport {
    /// Experiment id the representative platform was derived from.
    pub id: String,
    /// Checkpoint cadence of the reference pass.
    pub every: Time,
    /// Number of checkpoints the reference pass retained.
    pub checkpoints: usize,
    /// Size of one checkpoint blob in bytes.
    pub blob_bytes: usize,
    /// Simulation time the reference pass reached (`<=` the target when
    /// the platform drains early).
    pub reference_end: Time,
    /// The requested rewind target.
    pub target: Time,
    /// Checkpoint instant the replay restored.
    pub origin: Time,
    /// Trace records captured during the replay window.
    pub trace_len: usize,
    /// Trace records evicted from the ring buffer during the window.
    pub trace_dropped: u64,
    /// The last few trace records of the replayed window, one per line.
    pub trace_tail: String,
}

impl fmt::Display for TimeTravelReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "TIME-TRAVEL {} (representative platform)", self.id)?;
        writeln!(
            f,
            "  checkpoints     : {} every {} ({} bytes each)",
            self.checkpoints, self.every, self.blob_bytes
        )?;
        writeln!(f, "  reference end   : {}", self.reference_end)?;
        writeln!(
            f,
            "  rewind          : target {}, restored checkpoint at {}",
            self.target, self.origin
        )?;
        writeln!(
            f,
            "  state at target : verified byte-identical to the reference pass"
        )?;
        writeln!(
            f,
            "  trace window    : {} events captured, {} dropped; last {}:",
            self.trace_len,
            self.trace_dropped,
            self.trace_tail.lines().count()
        )?;
        for line in self.trace_tail.lines() {
            writeln!(f, "    {line}")?;
        }
        Ok(())
    }
}

/// Runs the reference pass with periodic checkpoints, rewinds to the last
/// checkpoint before `rewind_ns`, replays the window with tracing armed,
/// and byte-verifies the replayed state against the reference.
///
/// # Errors
///
/// Fails for unknown experiment ids, on platform build/restore failures,
/// and — the self-check — if the replayed checkpoint at the target differs
/// from the reference pass in any byte.
pub fn time_travel(
    id: &str,
    run: Run,
    every_ns: u64,
    rewind_ns: u64,
) -> SimResult<TimeTravelReport> {
    let spec = representative_spec(id, run).ok_or_else(|| SimError::InvalidConfig {
        reason: format!(
            "unknown experiment '{id}'; expected one of {}",
            crate::experiment_ids().join(", ")
        ),
    })?;
    if every_ns == 0 {
        return Err(SimError::InvalidConfig {
            reason: "--checkpoint-every must be at least 1 ns".into(),
        });
    }
    let every = Time::from_ns(every_ns);
    let target = Time::from_ns(rewind_ns);

    // Reference pass: checkpoint every `every` up to the target, then one
    // reference checkpoint exactly at the target instant.
    let mut platform = build_platform(&spec)?;
    let mut checkpoints: Vec<(Time, SnapshotBlob)> = vec![(Time::ZERO, platform.checkpoint())];
    let mut t = Time::ZERO;
    while t + every < target {
        t += every;
        platform.sim_mut().run_until(t);
        checkpoints.push((t, platform.checkpoint()));
        if platform.sim().is_quiescent() {
            break;
        }
    }
    platform.sim_mut().run_until(target);
    let reference = platform.checkpoint();
    let reference_end = platform.sim().time();

    // Rewind: restore the newest checkpoint strictly before the target
    // into a *fresh* platform, arm tracing, replay the window.
    let (origin, blob) = checkpoints
        .iter()
        .rev()
        .find(|(at, _)| *at < target)
        .unwrap_or(&checkpoints[0]);
    let mut replay = build_platform(&spec)?;
    replay.restore(blob)?;
    replay.enable_tracing(TRACE_CAPACITY);
    replay.sim_mut().run_until(target);
    let replayed = replay.checkpoint();
    if replayed.as_bytes() != reference.as_bytes() {
        return Err(SimError::Snapshot {
            source: SnapshotError::StructureMismatch {
                detail: format!(
                    "time-travel self-check failed: replaying {} -> {} diverged from the \
                     reference pass",
                    origin, target
                ),
            },
        });
    }

    let trace = replay.sim().stats().trace();
    let tail: Vec<String> = trace
        .records()
        .rev()
        .take(TRACE_TAIL)
        .map(|r| r.to_string())
        .collect();
    let trace_tail = tail.into_iter().rev().collect::<Vec<_>>().join("\n");
    Ok(TimeTravelReport {
        id: id.to_string(),
        every,
        checkpoints: checkpoints.len(),
        blob_bytes: reference.len(),
        reference_end,
        target,
        origin: *origin,
        trace_len: trace.len(),
        trace_dropped: trace.dropped(),
        trace_tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_has_a_representative_spec() {
        for id in crate::experiment_ids() {
            assert!(
                representative_spec(id, Run::new(1, 1)).is_some(),
                "no representative platform for '{id}'"
            );
        }
        assert!(representative_spec("nope", Run::new(1, 1)).is_none());
    }

    #[test]
    fn rewind_verifies_against_the_reference_pass() {
        let report =
            time_travel("fig4", Run::new(1, 0x0dab), 500, 2_000).expect("time travel runs");
        assert!(report.checkpoints >= 2, "periodic checkpoints retained");
        assert_eq!(report.target, Time::from_ns(2_000));
        assert!(report.origin < report.target);
        assert!(report.trace_len > 0, "the replay window must be traced");
        let text = report.to_string();
        assert!(text.contains("verified byte-identical"));
    }

    #[test]
    fn unknown_id_is_rejected() {
        let err = time_travel("nope", Run::new(1, 1), 100, 1_000).unwrap_err();
        assert!(err.to_string().contains("unknown experiment"));
    }
}
