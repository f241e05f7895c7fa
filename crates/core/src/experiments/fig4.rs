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
use crate::platforms::{build_platform, PlatformSpec, Topology, Workload};
use crate::service::{self, SweepRequest, WarmState};
use mpsoc_kernel::SimResult;
use mpsoc_protocol::ProtocolKind;
use std::fmt;

/// The swept wait-state values. The first entry is
/// [`service::BASE_WAIT_STATES`], the wait states the shared warm prefix
/// runs at.
const SWEEP: [u32; 6] = [1, 2, 4, 8, 16, 32];

/// The two organisations compared, in column order.
pub(super) const TOPOLOGIES: [Topology; 2] = [Topology::Collapsed, Topology::Distributed];

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

/// One cell of the table as a service request: fig4 *is* the [`service`]
/// sweep for this one platform configuration.
fn point_request(run: Run, topology: Topology, wait_states: u32) -> SweepRequest {
    SweepRequest {
        protocol: ProtocolKind::StbusT3,
        topology,
        workload: Workload::BurstyPosted,
        scale: run.scale,
        seed: run.seed,
        wait_states,
        ..SweepRequest::default()
    }
}

/// The spec every cell of one topology is built from — the request's base
/// spec, memory at the base wait states — executing in the run's mode,
/// which a request has no room for and a platform keeps across a restore.
pub(super) fn point_spec(run: Run, topology: Topology) -> PlatformSpec {
    PlatformSpec {
        exec: run.exec,
        ..point_request(run, topology, service::BASE_WAIT_STATES).base_spec()
    }
}

/// Serves the whole table from one warm state per topology (in
/// [`TOPOLOGIES`] order) with up to `run.jobs` worker threads: every cell,
/// the base one included, restores its topology's boundary checkpoint into
/// a fresh [`point_spec`] platform, switches to its own wait states and runs
/// to quiescence ([`service::serve_point_on`]).
pub(super) fn serve_sweep(run: Run, warm: &[WarmState]) -> SimResult<Fig4> {
    let rows = parallel_map(SWEEP.to_vec(), run.jobs, |ws| -> SimResult<Fig4Point> {
        let mut cycles = [0u64; 2];
        for (i, topology) in TOPOLOGIES.into_iter().enumerate() {
            let mut platform = build_platform(&point_spec(run, topology))?;
            let cell = point_request(run, topology, ws);
            cycles[i] = service::serve_point_on(&mut platform, &cell, &warm[i])?;
        }
        Ok(Fig4Point {
            wait_states: ws,
            collapsed_cycles: cycles[0],
            distributed_cycles: cycles[1],
            ratio: cycles[0] as f64 / cycles[1].max(1) as f64,
        })
    });
    Ok(Fig4 {
        points: rows.into_iter().collect::<SimResult<_>>()?,
    })
}

/// Runs the Figure 4 sweep with up to `run.jobs` worker threads (the two
/// warm-ups side by side, then the cells).
///
/// Every point shares the same warm-up phase — the platform runs at 1 ws
/// until the warm boundary, then switches to the point's wait states — so
/// the sweep isolates the memory-speed effect on an identical in-flight
/// state. The prefix is simulated **once** per topology
/// ([`service::warm_state`]'s code, checkpointing as the base run crosses
/// the boundary) and every cell restores the reference-counted blob instead
/// of re-simulating it; snapshot restore is exact, so the table is the one
/// a prefix-replaying sweep prints, for any `jobs`.
///
/// `run.exec` reaches every simulation: the warm phase runs in its gear,
/// and so do the tails. Under a loosely-timed gear every cell is still a
/// tail forked from the boundary checkpoint — none is read off the probe.
///
/// # Errors
///
/// Fails if any platform instance stalls (model bug).
pub fn fig4(run: Run) -> SimResult<Fig4> {
    let warm = parallel_map(TOPOLOGIES.to_vec(), run.jobs, |t| {
        service::warm_state_of(&point_spec(run, t), run.exec.fidelity)
    });
    serve_sweep(run, &warm.into_iter().collect::<SimResult<Vec<_>>>()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc_kernel::{ExecMode, Fidelity};

    /// The sweep as it ran before its cells were forked from a checkpoint,
    /// kept as the reference: every cell re-simulates the warm prefix on a
    /// fresh platform, switches its wait states at the boundary and runs on.
    fn cold_fig4(run: Run) -> Fig4 {
        let specs = TOPOLOGIES.map(|t| point_spec(run, t));
        let warm_until = [0, 1].map(|i| {
            let warm = service::warm_state_of(&specs[i], run.exec.fidelity).expect("warms");
            warm.profile.warm_until
        });
        let points = SWEEP.iter().map(|&ws| {
            let cycles = [0, 1].map(|i| {
                let mut platform = build_platform(&specs[i]).expect("builds");
                platform.sim_mut().run_until(warm_until[i]);
                assert!(platform.set_memory_wait_states(ws));
                let horizon = service::SERVICE_HORIZON;
                let exec = platform.sim_mut().run_to_quiescence_strict(horizon);
                platform.report_at(exec.expect("runs")).exec_cycles
            });
            Fig4Point {
                wait_states: ws,
                collapsed_cycles: cycles[0],
                distributed_cycles: cycles[1],
                ratio: cycles[0] as f64 / cycles[1].max(1) as f64,
            }
        });
        Fig4 {
            points: points.collect(),
        }
    }

    /// The sweep with only its warm phase in `Fast { quantum }` and
    /// cycle-accurate tails, as EXT-FAST runs it.
    fn fast_warm(run: Run, quantum: u64) -> Fig4 {
        let gear = Fidelity::Fast { quantum };
        let warm =
            TOPOLOGIES.map(|t| service::warm_state_of(&point_spec(run, t), gear).expect("warms"));
        serve_sweep(run, &warm).expect("runs")
    }

    #[test]
    fn the_forked_sweep_equals_the_cold_reference() {
        // Restore is exact: forking every cell from the boundary checkpoint
        // prints what re-simulating the prefix per cell prints.
        let dense = ExecMode {
            dense: true,
            ..ExecMode::default()
        };
        for run in [
            Run::new(1, 0x0dab),
            Run::new(2, 7),
            Run {
                exec: dense,
                ..Run::new(1, 0x0dab)
            },
        ] {
            assert_eq!(
                fig4(run).expect("runs").to_string(),
                cold_fig4(run).to_string(),
                "{run:?}"
            );
        }
    }

    #[test]
    fn an_inexact_gear_serves_the_base_row_like_every_other() {
        // The base row used to be read off the chunk-clipped fast probe's
        // quiescence instant; it is a tail served from the blob.
        let exec = ExecMode {
            fidelity: Fidelity::Fast { quantum: 16 },
            ..ExecMode::default()
        };
        let run = Run {
            exec,
            ..Run::new(1, 0x0dab)
        };
        let fig = fig4(run).expect("runs");
        for (i, topology) in TOPOLOGIES.into_iter().enumerate() {
            let spec = point_spec(run, topology);
            let warm = service::warm_state_of(&spec, exec.fidelity).expect("warms");
            let base = point_request(run, topology, service::BASE_WAIT_STATES);
            let served =
                service::serve_point_on(&mut build_platform(&spec).expect("builds"), &base, &warm)
                    .expect("serves");
            let row = &fig.points[0];
            assert_eq!([row.collapsed_cycles, row.distributed_cycles][i], served);
            assert_ne!(
                served, warm.profile.base_cycles,
                "the probe's is not a cell"
            );
        }
    }

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
        let cold = cold_fig4(Run::new(1, 0x0dab)).to_string();
        let fast = fast_warm(Run::new(1, 0x0dab), 1).to_string();
        assert_eq!(cold, fast, "Fast {{ quantum: 1 }} warm phase must be exact");
    }

    #[test]
    fn fast_warm_default_quantum_error_is_bounded() {
        // Loosely-timed warm-up is an approximation: a read round trip
        // crosses the component ring twice, so it stretches by up to two
        // quanta, and cores fall behind by the boundary; the remaining work
        // then costs roughly the point's wait states per miss in the tail.
        // The worst per-cell error at scale 1 is 240 ‰ at q=4, 858 ‰ at
        // q=16 and 1 301 ‰ at q=64, the default quantum, on the
        // slowest-memory cell; the last is the regression tripwire. The
        // sweep's qualitative shape must survive: distributed still wins at
        // the slow-memory end.
        let cold = fig4(Run::new(1, 0x0dab)).expect("runs");
        let fast = fast_warm(Run::new(1, 0x0dab), Fidelity::DEFAULT_QUANTUM);
        let err = crate::experiments::gear::max_err_permille(&cold, &fast);
        assert!(
            err <= 1301,
            "LT-warmed sweep drifted {err} \u{2030}:\n{fast}"
        );
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
