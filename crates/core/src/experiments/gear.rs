//! EXT-FAST — the loosely-timed fast-forward gear, quantified.
//!
//! The kernel's `Fidelity::Fast { quantum }` gear advances components in
//! multi-cycle windows with approximate (occupancy-slack) contention
//! instead of per-edge arbitration. This experiment publishes the
//! speedup-versus-error curve of that gear on the workload it was built
//! for: fig4's shared warm-up phase, which every sweep point replays
//! before diverging.
//!
//! For each quantum the fig4 warm phase (probe + prefix + checkpoint) runs
//! once in `Fast { quantum }` and the sweep is served by cycle-accurate
//! tails forked from the warm checkpoint — the two building blocks of
//! [`fig4`](super::fig4) itself, with an explicit warm gear; the row
//! reports the warm-phase wall-clock speedup over the `Cycle` gear and the
//! worst per-cell error of the resulting table against the cycle-accurate
//! reference. The `quantum = 1` row must be byte-identical to the
//! reference — the kernel's degenerate-gear identity — and is flagged as
//! such.

use super::fig4::{point_spec, serve_sweep, Fig4, TOPOLOGIES};
use super::Run;
use crate::service::warm_state_two_pass;
use mpsoc_kernel::{ExecMode, Fidelity, SimResult};
use std::fmt;

/// The quanta swept by [`fast_forward_study`]: the identity gear, two
/// intermediate points and the kernel's default quantum.
pub const FAST_FORWARD_QUANTA: [u64; 4] = [1, 4, 16, Fidelity::DEFAULT_QUANTUM];

/// One quantum's measurement.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct FastForwardRow {
    /// The window length, in edges of each component's own clock.
    pub quantum: u64,
    /// Wall-clock seconds of the loosely-timed warm phase.
    pub warm_seconds: f64,
    /// Cycle-gear warm seconds over this row's warm seconds.
    pub speedup: f64,
    /// Worst per-cell relative error of the finished sweep against the
    /// cycle-accurate reference, in permille.
    pub max_err_permille: u64,
    /// Whether the finished table is byte-identical to the reference
    /// (required at `quantum = 1`).
    pub identical: bool,
}

/// The EXT-FAST speedup-versus-error curve.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct FastForwardStudy {
    /// Wall-clock seconds of the cycle-gear warm phase (the reference).
    pub cycle_warm_seconds: f64,
    /// One row per entry of [`FAST_FORWARD_QUANTA`].
    pub rows: Vec<FastForwardRow>,
}

impl FastForwardStudy {
    /// The row measured at the kernel's default quantum.
    pub fn default_quantum_row(&self) -> &FastForwardRow {
        self.rows
            .iter()
            .find(|r| r.quantum == Fidelity::DEFAULT_QUANTUM)
            .expect("the default quantum is part of the sweep")
    }

    /// The `quantum = 1` identity row.
    pub fn q1_row(&self) -> &FastForwardRow {
        self.rows
            .iter()
            .find(|r| r.quantum == 1)
            .expect("quantum 1 is part of the sweep")
    }
}

impl fmt::Display for FastForwardStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "EXT-FAST loosely-timed fast-forward: fig4 warm phase, speedup vs error"
        )?;
        writeln!(
            f,
            "{:>8} {:>10} {:>9} {:>14} {:>10}",
            "quantum", "warm ms", "speedup", "max err (\u{2030})", "table"
        )?;
        writeln!(
            f,
            "{:>8} {:>10.2} {:>8.2}x {:>14} {:>10}",
            "cycle",
            self.cycle_warm_seconds * 1e3,
            1.0,
            "-",
            "reference"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>8} {:>10.2} {:>8.2}x {:>14} {:>10}",
                r.quantum,
                r.warm_seconds * 1e3,
                r.speedup,
                r.max_err_permille,
                if r.identical { "identical" } else { "approx" }
            )?;
        }
        Ok(())
    }
}

/// Worst per-cell relative error of `fast` against `reference`, permille.
pub(super) fn max_err_permille(reference: &Fig4, fast: &Fig4) -> u64 {
    let mut worst = 0.0f64;
    for (c, f) in reference.points.iter().zip(&fast.points) {
        for (a, b) in [
            (c.collapsed_cycles, f.collapsed_cycles),
            (c.distributed_cycles, f.distributed_cycles),
        ] {
            worst = worst.max(a.abs_diff(b) as f64 / a.max(1) as f64);
        }
    }
    (worst * 1000.0).round() as u64
}

/// Runs EXT-FAST: the fig4 warm phase once per gear, each finished by
/// cycle-accurate tails (`run.jobs` worker threads).
///
/// Only the warm phases are timed — the tails are identical work in every
/// row, and the gear only ever runs the warm region. Every gear, the cycle
/// gear included, is timed under the same two-pass procedure (probe, then
/// the probe's chunk schedule replayed to the boundary and checkpointed),
/// so a row's speedup compares gears and nothing else; the blob is the
/// one-pass warm-up's, byte for byte, so every row's table is what the
/// service serves in that gear. The study sets the gear of
/// every row itself: of `run.exec` the schedule applies, the gear does
/// not.
///
/// # Errors
///
/// Fails if a platform instance stalls.
pub fn fast_forward_study(run: Run) -> SimResult<FastForwardStudy> {
    let run = Run {
        exec: ExecMode {
            fidelity: Fidelity::Cycle,
            ..run.exec
        },
        ..run
    };
    let specs = TOPOLOGIES.map(|t| point_spec(run, t));
    let warmed_in = |gear| -> SimResult<(f64, Fig4)> {
        let started = std::time::Instant::now();
        let warm = [
            warm_state_two_pass(&specs[0], gear)?,
            warm_state_two_pass(&specs[1], gear)?,
        ];
        let warm_seconds = started.elapsed().as_secs_f64().max(1e-9);
        Ok((warm_seconds, serve_sweep(run, &warm)?))
    };
    let (cycle_warm_seconds, reference) = warmed_in(Fidelity::Cycle)?;
    let reference_table = reference.to_string();

    let mut rows = Vec::with_capacity(FAST_FORWARD_QUANTA.len());
    for quantum in FAST_FORWARD_QUANTA {
        let (warm_seconds, fast) = warmed_in(Fidelity::Fast { quantum })?;
        rows.push(FastForwardRow {
            quantum,
            warm_seconds,
            speedup: cycle_warm_seconds / warm_seconds,
            max_err_permille: max_err_permille(&reference, &fast),
            identical: fast.to_string() == reference_table,
        });
    }
    Ok(FastForwardStudy {
        cycle_warm_seconds,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantum_one_is_identical_and_every_quantum_keeps_its_error_ceiling() {
        let study = fast_forward_study(Run::new(1, 0x0dab)).expect("runs");
        assert_eq!(study.rows.len(), FAST_FORWARD_QUANTA.len());
        let q1 = study.q1_row();
        assert!(q1.identical, "quantum 1 must reproduce the cycle table");
        // The worst-cell error each quantum measures at scale 1, in
        // permille: a change that makes the fast gear less accurate fails
        // here; one that makes it more accurate lowers the ceiling.
        let ceilings = [(1, 0), (4, 240), (16, 858), (64, 1301)];
        assert_eq!(ceilings.map(|(q, _)| q), FAST_FORWARD_QUANTA);
        for (row, (quantum, ceiling)) in study.rows.iter().zip(ceilings) {
            assert!(
                row.max_err_permille <= ceiling,
                "quantum {quantum}: worst cell {} \u{2030} is above its ceiling {ceiling} \u{2030}",
                row.max_err_permille
            );
        }
        assert!(
            !study.default_quantum_row().identical,
            "the default quantum is an approximation"
        );
    }
}
