//! FIG-4 — distributed vs centralized communication architectures as a
//! function of memory speed.
//!
//! The paper sweeps the memory response latency and finds that a fast
//! memory penalises the multi-hop distributed architecture, while a slow
//! memory favours it: distributed buffering lets multiple-outstanding
//! initiator interfaces keep pushing transactions into the bus while the
//! collapsed instance's masters stall at their shallow issue FIFOs.
//!
//! The workload is the bursty, posted-write-heavy sweep mix
//! ([`Workload::BurstyPosted`](crate::Workload)) with the congested N5
//! cluster either attached locally (collapsed) or behind the two-hop
//! bridge path (distributed).

use super::{parallel_map, Run};
use crate::platforms::{build_platform, Platform, PlatformSpec, Topology, Workload};
use crate::service::{self, SweepRequest, WarmProfile};
use mpsoc_kernel::{Fidelity, SimResult, SnapshotBlob, Time};
use mpsoc_protocol::ProtocolKind;
use std::fmt;

/// Wait states of the shared warm-up phase every sweep point starts from.
/// The probe machinery (warm boundary, chunk sampling, horizon) is shared
/// with the sweep service in [`crate::service`] — fig4 *is* that sweep for
/// one fixed platform configuration.
const BASE_WS: u32 = service::BASE_WAIT_STATES;
/// The swept wait-state values. The first entry is [`BASE_WS`], the wait
/// states the shared warm prefix runs at.
const SWEEP: [u32; 6] = [1, 2, 4, 8, 16, 32];
/// Default run horizon, matching [`Platform::run`].
const HORIZON: Time = service::SERVICE_HORIZON;

/// One sweep point.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct Fig4Point {
    /// Memory wait states per beat.
    pub wait_states: u32,
    /// Collapsed execution time (central-node cycles).
    pub collapsed_cycles: u64,
    /// Distributed execution time.
    pub distributed_cycles: u64,
    /// `collapsed / distributed` — above 1 means distributed wins.
    pub ratio: f64,
}

/// The Figure 4 series.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct Fig4 {
    /// Sweep points in ascending wait-state order.
    pub points: Vec<Fig4Point>,
}

impl fmt::Display for Fig4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "FIG-4 distributed vs centralized as a function of memory speed"
        )?;
        writeln!(
            f,
            "{:>4} {:>14} {:>14} {:>16}",
            "ws", "collapsed", "distributed", "col/dist ratio"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "{:>4} {:>14} {:>14} {:>16.4}",
                p.wait_states, p.collapsed_cycles, p.distributed_cycles, p.ratio
            )?;
        }
        Ok(())
    }
}

/// The base point of one topology's sweep as a service request: fig4 *is*
/// the [`service`] sweep for this one platform configuration. A request has
/// room for one field of the run's mode — the tick jobs of its served tail.
fn point_request(run: Run, topology: Topology) -> SweepRequest {
    SweepRequest {
        protocol: ProtocolKind::StbusT3,
        topology,
        workload: Workload::BurstyPosted,
        scale: run.scale,
        seed: run.seed,
        base_wait_states: BASE_WS,
        tick_jobs: run.exec.tick_jobs,
        ..SweepRequest::default()
    }
}

/// The spec every sweep point starts from, executing in the run's mode:
/// memory at [`BASE_WS`]; the point's own wait states are applied at the
/// warm boundary.
fn point_spec(run: Run, topology: Topology) -> PlatformSpec {
    PlatformSpec {
        exec: run.exec,
        ..point_request(run, topology).base_spec()
    }
}

/// The shared prefix of one topology's sweep: the base-run result and the
/// instant at which the sweep points diverge from it (see
/// [`service::probe_warm`], which owns the sampling machinery).
type WarmPhase = WarmProfile;

/// Runs the probe (the `ws = BASE_WS` point) of both topologies in `gear`
/// and derives their warm boundaries. See [`service::probe_warm`] for the
/// gear caveats.
fn probe_both(run: Run, gear: Fidelity) -> SimResult<[WarmPhase; 2]> {
    Ok([
        service::probe_warm(&point_spec(run, Topology::Collapsed), gear)?,
        service::probe_warm(&point_spec(run, Topology::Distributed), gear)?,
    ])
}

/// Switches `platform` (already advanced to the warm boundary) to the
/// point's wait states and finishes the run.
fn finish_point(mut platform: Platform, wait_states: u32) -> SimResult<u64> {
    assert!(
        platform.set_memory_wait_states(wait_states),
        "fig4 platforms use on-chip memory"
    );
    let exec = platform.sim_mut().run_to_quiescence_strict(HORIZON)?;
    Ok(platform.report_at(exec).exec_cycles)
}

fn assemble(warm: &[WarmPhase; 2], tails: Vec<SimResult<[u64; 2]>>) -> SimResult<Fig4> {
    let mut points = vec![Fig4Point {
        wait_states: BASE_WS,
        collapsed_cycles: warm[0].base_cycles,
        distributed_cycles: warm[1].base_cycles,
        ratio: warm[0].base_cycles as f64 / warm[1].base_cycles.max(1) as f64,
    }];
    for (ws, tail) in SWEEP[1..].iter().zip(tails) {
        let cycles = tail?;
        points.push(Fig4Point {
            wait_states: *ws,
            collapsed_cycles: cycles[0],
            distributed_cycles: cycles[1],
            ratio: cycles[0] as f64 / cycles[1].max(1) as f64,
        });
    }
    Ok(Fig4 { points })
}

/// Runs the Figure 4 sweep with up to `run.jobs` worker threads.
///
/// Every point shares the same warm-up phase — the platform runs at
/// `BASE_WS` (1 ws) until the warm boundary, then switches to the point's wait
/// states — so the sweep isolates the memory-speed effect on an identical
/// in-flight state. Points are independent simulations built from the same
/// spec and seed, so the result is identical for any `jobs`; only wall-clock
/// time changes.
///
/// # Errors
///
/// Fails if any platform instance stalls (model bug).
pub fn fig4(run: Run) -> SimResult<Fig4> {
    let warm = probe_both(run, run.exec.fidelity)?;
    let tails = parallel_map(SWEEP[1..].to_vec(), run.jobs, |ws| -> SimResult<[u64; 2]> {
        let mut cycles = [0u64; 2];
        for (i, topology) in [Topology::Collapsed, Topology::Distributed]
            .into_iter()
            .enumerate()
        {
            let mut platform = build_platform(&point_spec(run, topology))?;
            platform.sim_mut().run_until(warm[i].warm_until);
            cycles[i] = finish_point(platform, ws)?;
        }
        Ok(cycles)
    });
    assemble(&warm, tails)
}

/// Runs the Figure 4 sweep via checkpoint/fork: each topology's warm phase
/// is simulated **once** — [`service::warm_state`] checkpoints the probe as
/// it crosses the warm boundary — and every sweep point restores the
/// (reference-counted) blob into a fresh platform instead of re-simulating
/// the prefix.
///
/// The result is bit-identical to [`fig4`] in an exact gear — snapshot
/// restore is exact — only wall-clock time changes.
///
/// The platforms are the [`service`]'s, built from a [`SweepRequest`]: of
/// `run.exec` only the tick jobs travel (to the served tails); the warm-up
/// is always sparse, serial and cycle-accurate.
///
/// # Errors
///
/// Fails if any platform instance stalls (model bug).
pub fn fig4_warm_fork(run: Run) -> SimResult<Fig4> {
    let reqs = [Topology::Collapsed, Topology::Distributed].map(|t| point_request(run, t));
    let states = [
        service::warm_state(&reqs[0])?,
        service::warm_state(&reqs[1])?,
    ];
    let tails = parallel_map(SWEEP[1..].to_vec(), run.jobs, |ws| -> SimResult<[u64; 2]> {
        let mut cycles = [0u64; 2];
        for (i, (req, state)) in reqs.iter().zip(&states).enumerate() {
            let point = SweepRequest {
                wait_states: ws,
                ..req.clone()
            };
            cycles[i] = service::serve_point(&point, state)?;
        }
        Ok(cycles)
    });
    assemble(&[states[0].profile, states[1].profile], tails)
}

/// The reusable warm phase of the sweep: per-topology base-point results
/// and warm-boundary checkpoints, produced by [`fig4_warm_state`] at a
/// chosen kernel gear and consumed by [`fig4_finish`].
pub struct Fig4WarmState {
    warm: [WarmPhase; 2],
    blobs: [SnapshotBlob; 2],
}

impl Fig4WarmState {
    /// The warm boundary of each topology (collapsed, distributed).
    pub fn warm_until(&self) -> [Time; 2] {
        [self.warm[0].warm_until, self.warm[1].warm_until]
    }
}

/// Runs fig4's warm phase — the base-point probe plus the shared warm
/// prefix up to its checkpoint — with the kernel in `gear`, whatever gear
/// `run.exec` names (its schedule and tick jobs apply).
///
/// The warm boundary is a quiescence-sampled chunk boundary, so in
/// `Fast { quantum }` gear it lands on the deterministic gear-shift
/// boundary: after `run_until` every clock domain's next edge is strictly
/// past it in either gear. The simulation is shifted back to
/// [`Fidelity::Cycle`] *before* the checkpoint is taken, so the blobs are
/// ordinary cycle-gear checkpoints (identical structural fingerprint) and
/// the sweep tails are always cycle-accurate continuations.
///
/// At `Fast { quantum: 1 }` the produced state is byte-identical to the
/// `Cycle` one — the kernel's degenerate-gear identity.
///
/// # Errors
///
/// Fails if a platform instance stalls (model bug).
pub fn fig4_warm_state(run: Run, gear: Fidelity) -> SimResult<Fig4WarmState> {
    let warm = probe_both(run, gear)?;
    let mut blobs = Vec::with_capacity(2);
    for (i, topology) in [Topology::Collapsed, Topology::Distributed]
        .into_iter()
        .enumerate()
    {
        let mut platform = build_platform(&point_spec(run, topology))?;
        platform.sim_mut().set_fidelity(gear);
        platform.sim_mut().run_until(warm[i].warm_until);
        // Deterministic gear-shift: land cycle-accurate on the boundary,
        // then settle briefly before the checkpoint. The settle lets the
        // run-ahead the fast gear's occupancy slack leaves behind
        // (over-filled wires beyond strict capacity) drain back to a state
        // cycle-accurate arbitration could have produced, so the tails
        // forked from the checkpoint do not inherit an illegal backlog.
        platform.sim_mut().set_fidelity(Fidelity::Cycle);
        platform.sim_mut().run_until(warm[i].warm_until);
        blobs.push(platform.checkpoint());
    }
    Ok(Fig4WarmState {
        warm,
        blobs: blobs.try_into().expect("two topologies"),
    })
}

/// Completes the sweep cycle-accurately from a warm state: every point —
/// including the `ws = BASE_WS` base point — restores the boundary
/// checkpoint into a fresh platform and runs its own wait states to
/// quiescence, exactly like [`fig4_warm_fork`]'s tails (and, like them,
/// in the cycle gear whatever `run.exec` names).
///
/// Deriving the base cell from a cycle-accurate tail (rather than from the
/// probe's own quiescence instant) keeps a loosely-timed warm phase's
/// timing error confined to the warm region: the drain — where stretched
/// read round-trips accumulate up to a quantum of error per hop — is
/// always simulated cycle-accurately.
///
/// # Errors
///
/// Fails if a platform instance stalls (model bug).
pub fn fig4_finish(state: &Fig4WarmState, run: Run) -> SimResult<Fig4> {
    let tails = parallel_map(SWEEP.to_vec(), run.jobs, |ws| -> SimResult<[u64; 2]> {
        let mut cycles = [0u64; 2];
        for (i, topology) in [Topology::Collapsed, Topology::Distributed]
            .into_iter()
            .enumerate()
        {
            let mut platform = build_platform(&point_spec(run, topology))?;
            platform.sim_mut().set_fidelity(Fidelity::Cycle);
            platform.restore(&state.blobs[i])?;
            cycles[i] = finish_point(platform, ws)?;
        }
        Ok(cycles)
    });
    let mut points = Vec::with_capacity(SWEEP.len());
    for (ws, tail) in SWEEP.iter().zip(tails) {
        let cycles = tail?;
        points.push(Fig4Point {
            wait_states: *ws,
            collapsed_cycles: cycles[0],
            distributed_cycles: cycles[1],
            ratio: cycles[0] as f64 / cycles[1].max(1) as f64,
        });
    }
    Ok(Fig4 { points })
}

/// Runs the Figure 4 sweep with its warm phase in the loosely-timed
/// `Fast { quantum }` gear: the probe and the shared warm prefix
/// fast-forward through multi-cycle windows, gear-shift to cycle-accurate
/// at the warm boundary, and every sweep point continues cycle-accurately
/// from the boundary checkpoint.
///
/// At `quantum = 1` the result is byte-identical to [`fig4_warm_fork`]; at
/// larger quanta the warm phase is approximate (per-hop error bounded by
/// roughly one quantum), which perturbs the table cells by a bounded amount
/// — the `fidelity` experiment publishes the measured speedup-vs-error
/// curve.
///
/// # Errors
///
/// Fails if a platform instance stalls (model bug).
pub fn fig4_fast_warm(run: Run, quantum: u64) -> SimResult<Fig4> {
    let state = fig4_warm_state(
        run,
        Fidelity::Fast {
            quantum: quantum.max(1),
        },
    )?;
    fig4_finish(&state, run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distributed_gains_as_memory_slows() {
        let fig = fig4(Run::new(2, 0x0dab)).expect("runs");
        let first = &fig.points[0];
        let last = fig.points.last().expect("non-empty");
        // Fast memory: the two organisations are on par (the multi-hop
        // penalty is compensated, paper Fig. 3 / Fig. 4 left end).
        assert!(
            (first.ratio - 1.0).abs() < 0.05,
            "near-parity at 1 ws, got {}",
            first.ratio
        );
        // Slow memory: distributed must not lose, and the absolute gap in
        // favour of distributed must have grown.
        assert!(
            last.ratio >= 1.0,
            "distributed must win with slow memory, ratio {}",
            last.ratio
        );
        let first_gap = first.collapsed_cycles as i64 - first.distributed_cycles as i64;
        let last_gap = last.collapsed_cycles as i64 - last.distributed_cycles as i64;
        assert!(
            last_gap > first_gap,
            "the distributed advantage should grow: {first_gap} -> {last_gap}"
        );
    }

    #[test]
    fn fast_warm_quantum_one_matches_the_cold_sweep() {
        let cold = fig4(Run::new(1, 0x0dab)).expect("runs").to_string();
        let fast = fig4_fast_warm(Run::new(1, 0x0dab), 1)
            .expect("runs")
            .to_string();
        assert_eq!(cold, fast, "Fast {{ quantum: 1 }} warm phase must be exact");
    }

    #[test]
    fn fast_warm_default_quantum_error_is_bounded() {
        // Loosely-timed warm-up is an approximation: a read round trip
        // crosses the component ring twice, so it stretches by up to two
        // quanta, and cores fall behind by the boundary; the remaining work
        // then costs roughly the point's wait states per miss in the tail.
        // The measured per-cell error at scale 1 grows from ~0.03 (q=4)
        // through ~0.9 (q=16) to ~1.4 (q=64, the default quantum) on the
        // slowest-memory cell; 2.0 is the regression tripwire. The sweep's
        // qualitative shape must survive: distributed still wins at the
        // slow-memory end.
        let cold = fig4(Run::new(1, 0x0dab)).expect("runs");
        let fast = fig4_fast_warm(Run::new(1, 0x0dab), Fidelity::DEFAULT_QUANTUM).expect("runs");
        for (c, f) in cold.points.iter().zip(&fast.points) {
            assert_eq!(c.wait_states, f.wait_states);
            for (a, b) in [
                (c.collapsed_cycles, f.collapsed_cycles),
                (c.distributed_cycles, f.distributed_cycles),
            ] {
                let err = a.abs_diff(b) as f64 / a.max(1) as f64;
                assert!(
                    err < 2.0,
                    "LT-warmed cell drifted {err:.3} (ws {}): {a} vs {b}",
                    c.wait_states
                );
            }
        }
        let last = fast.points.last().expect("non-empty");
        assert!(
            last.ratio >= 1.0,
            "fast warm-up must preserve the slow-memory trend, ratio {}",
            last.ratio
        );
    }

    #[test]
    fn execution_time_scales_with_wait_states() {
        let fig = fig4(Run::new(2, 0x0dab)).expect("runs");
        for w in fig.points.windows(2) {
            assert!(
                w[1].distributed_cycles > w[0].distributed_cycles,
                "slower memory means longer runs"
            );
        }
    }
}
