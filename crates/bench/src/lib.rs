//! # mpsoc-bench
//!
//! The benchmark harness of the workspace: a `repro` binary that
//! regenerates **every table and figure** of the paper's evaluation
//! section and prints each experiment's wall time and kernel throughput,
//! and the `kernel_hotpath` scheduler microbench.
//!
//! Run the full reproduction:
//!
//! ```bash
//! cargo run --release -p mpsoc-bench --bin repro
//! cargo run --release -p mpsoc-bench --bin repro -- --exp fig5 --scale 8
//! ```
//!
//! The experiment implementations live in
//! [`mpsoc_platform::experiments`]; this crate only drives them.
//!
//! A run records its measurements in the [`ledger`] only when given a
//! path (`repro --bench-out`). The live recorders judge what they have
//! just measured against the ledger's floor rows: `repro --fast-warm` its
//! `"fast_forward"` section, `kernel_hotpath` its `"sparse"` section.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod ledger;
pub mod timetravel;

use mpsoc_kernel::{activity, SimError, SimResult};
use mpsoc_platform::experiments;
pub use mpsoc_platform::experiments::Run;
use serde::Serialize;
use std::time::Instant;

/// One entry of the experiment registry: the id the `repro` CLI accepts,
/// a one-line description for `--list`, whether it keeps its own gear, and
/// the function that runs it.
pub struct ExperimentDesc {
    /// CLI identifier (`repro --exp <id>`).
    pub id: &'static str,
    /// One-line description printed by `repro --list`.
    pub description: &'static str,
    /// Whether the runner sets the kernel gear itself (per rung, per row),
    /// so that `Run::exec.fidelity` — `repro --fast-gear` — does not reach
    /// it. The schedule reaches every experiment.
    pub own_gear: bool,
    /// Runs the experiment and renders its table.
    runner: fn(Run) -> SimResult<String>,
}

/// The single source of truth for every experiment the `repro` binary
/// understands. `--list`, `--help`, the unknown-id error message and the
/// all-experiments run all derive from this table, so adding an
/// experiment is one entry here — nothing else to keep in sync.
pub const EXPERIMENT_REGISTRY: &[ExperimentDesc] = &[
    ExperimentDesc {
        id: "many-to-many",
        description: "8 initiators x 4 targets offered-load sweep: min-buffer AXI vs STBus vs AHB",
        own_gear: false,
        runner: |run| Ok(experiments::many_to_many(run)?.to_string()),
    },
    ExperimentDesc {
        id: "many-to-one",
        description: "12 initiators x 1 on-chip memory: protocol comparison under convergent load",
        own_gear: false,
        runner: |run| Ok(experiments::many_to_one(run)?.to_string()),
    },
    ExperimentDesc {
        id: "fig3",
        description: "normalized exec time across six platform organisations (paper Fig. 3)",
        own_gear: false,
        runner: |run| Ok(experiments::fig3(run)?.to_string()),
    },
    ExperimentDesc {
        id: "fig4",
        description:
            "collapsed vs distributed topology over memory wait states 1..32 (paper Fig. 4)",
        own_gear: false,
        runner: |run| Ok(experiments::fig4(run)?.to_string()),
    },
    ExperimentDesc {
        id: "fig5",
        description: "LMI controller + DDR SDRAM across four platform organisations (paper Fig. 5)",
        own_gear: false,
        runner: |run| Ok(experiments::fig5(run)?.to_string()),
    },
    ExperimentDesc {
        id: "fig6",
        description: "LMI FIFO state residency under the two-phase workload (paper Fig. 6)",
        own_gear: false,
        runner: |run| Ok(experiments::fig6(run)?.to_string()),
    },
    ExperimentDesc {
        id: "buffering",
        description: "STBus target-FIFO depth sweep closing the gap to AXI",
        own_gear: false,
        runner: |run| Ok(experiments::buffering_ablation(run)?.to_string()),
    },
    ExperimentDesc {
        id: "bridges",
        description: "distributed AXI with blocking vs split-capable bridges",
        own_gear: false,
        runner: |run| Ok(experiments::bridge_ablation(run)?.to_string()),
    },
    ExperimentDesc {
        id: "lmi",
        description: "LMI lookahead depth x merging ablation under full-platform traffic",
        own_gear: false,
        runner: |run| Ok(experiments::lmi_ablation(run)?.to_string()),
    },
    ExperimentDesc {
        id: "arbitration",
        description: "round-robin / fixed-priority / oldest-first on the full LMI platform",
        own_gear: false,
        runner: |run| Ok(experiments::arbitration_study(run)?.to_string()),
    },
    ExperimentDesc {
        id: "noc",
        description: "shared STBus vs crossbar vs 3x4 mesh NoC under saturated traffic",
        own_gear: false,
        runner: |run| Ok(mpsoc_dse::noc_outlook(run)?.to_string()),
    },
    ExperimentDesc {
        id: "tlm",
        description: "cycle-accurate vs transaction-level fidelity: timing error and speedup",
        own_gear: false,
        runner: |run| Ok(experiments::fidelity_study(run)?.to_string()),
    },
    ExperimentDesc {
        id: "fidelity",
        description:
            "loosely-timed fast-forward gear: fig4 warm-phase speedup vs error per quantum",
        own_gear: true,
        runner: |run| Ok(experiments::fast_forward_study(run)?.to_string()),
    },
    ExperimentDesc {
        id: "dual-channel",
        description: "unified memory split across two LMI channels: exec time and FIFO pressure",
        own_gear: false,
        runner: |run| Ok(experiments::dual_channel_study(run)?.to_string()),
    },
    ExperimentDesc {
        id: "robustness",
        description: "fault rate x retry budget degradation table on the distributed LMI platform",
        own_gear: false,
        runner: |run| Ok(experiments::robustness(run)?.to_string()),
    },
    ExperimentDesc {
        id: "dse",
        description:
            "successive-halving design-space exploration: Pareto front over fabric/memory knobs",
        own_gear: true,
        runner: |run| Ok(run_dse(run, &DseOptions::default())?.0),
    },
];

/// All experiment identifiers, in registry (and `repro`) order.
pub fn experiment_ids() -> Vec<&'static str> {
    EXPERIMENT_REGISTRY.iter().map(|e| e.id).collect()
}

/// Looks an experiment up by id.
pub fn find_experiment(id: &str) -> Option<&'static ExperimentDesc> {
    EXPERIMENT_REGISTRY.iter().find(|e| e.id == id)
}

/// Runs one experiment by id and returns its printable report.
///
/// Only the fan-out-shaped experiments (`fig4`, `many-to-many`,
/// `robustness`, `dse`, ...) spread their independent simulation
/// instances over `run.jobs` threads; the rest run on the calling thread.
/// The produced table is identical for any `jobs` value.
///
/// # Errors
///
/// Returns an error for unknown ids (listing the valid ones) or if the
/// underlying platform stalls.
pub fn run_experiment(id: &str, run: Run) -> SimResult<String> {
    match find_experiment(id) {
        Some(desc) => (desc.runner)(run),
        None => Err(mpsoc_kernel::SimError::InvalidConfig {
            reason: format!(
                "unknown experiment '{id}'; expected one of {}",
                experiment_ids().join(", ")
            ),
        }),
    }
}

/// CLI-level options of the `dse` experiment that do not fit the uniform
/// runner signature: checkpointing and resume. The `repro` binary hands
/// them to [`run_dse`]; a plain [`run_experiment`] call gets the defaults
/// (no checkpointing).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DseOptions {
    /// Frontier checkpoint file (written every `checkpoint_every` rungs,
    /// read back by `resume`).
    pub checkpoint_path: Option<std::path::PathBuf>,
    /// Checkpoint cadence in completed rungs.
    pub checkpoint_every: Option<u32>,
    /// Stop cleanly after N rungs (saving the frontier first).
    pub stop_after: Option<u32>,
    /// Resume from `checkpoint_path` instead of seeding a fresh search.
    pub resume: bool,
}

/// One rung of the ladder as recorded in the ledger's `"dse"` section.
#[derive(Debug, Clone, Serialize)]
pub struct DseRungRecord {
    /// Simulated-time budget in picoseconds (0 = run to quiescence).
    pub budget_ps: u64,
    /// Candidates evaluated this rung.
    pub population: u64,
    /// Candidates promoted to the next rung.
    pub survivors: u64,
    /// Kernel component ticks the rung's evaluations executed.
    pub sim_ticks: u64,
}

/// The `repro --exp dse` measurement recorded in the ledger's `"dse"`
/// section: search shape, front quality and the evaluation fan-out
/// speedup. Produced by [`run_dse`].
#[derive(Debug, Clone, Serialize)]
pub struct DseRun {
    /// Workload scale the search ran at.
    pub scale: u64,
    /// Search seed.
    pub seed: u64,
    /// Evaluation fan-out the timed run used.
    pub jobs: u64,
    /// Hardware threads of the recording host (floors only arm when the
    /// host could actually run the fan-out).
    pub host_cores: u64,
    /// Candidates in the sampled generation.
    pub candidates: u64,
    /// Non-dominated points on the final front.
    pub front_size: u64,
    /// Distinct fabric families represented on the front.
    pub families: u64,
    /// Kernel component ticks across every rung.
    pub sim_ticks: u64,
    /// Wall-clock seconds of the timed (fanned-out) search.
    pub wall_seconds: f64,
    /// Fanned-out vs serial wall-time ratio (1.0 when `jobs` < 2 — no
    /// serial rerun is made then).
    pub fanout_speedup: f64,
    /// Per-rung accounting.
    pub rungs: Vec<DseRungRecord>,
}

/// Runs the `dse` experiment: explores the design space and returns the
/// rendered Pareto table with the ledger measurement (`None` for a search
/// `options.stop_after` interrupted mid-ladder: there is no front to
/// record). When the run fans out (`jobs` >= 2) the search is repeated
/// serially to measure the fan-out speedup — and the two tables are proven
/// byte-identical. The search shifts the gear itself, rung by rung: of
/// `run.exec` the schedule reaches the candidates, the gear does not.
///
/// # Errors
///
/// Fails if a candidate platform stalls, the frontier checkpoint cannot be
/// read or written, or the fanned-out table differs from the serial one.
pub fn run_dse(run: Run, options: &DseOptions) -> SimResult<(String, Option<DseRun>)> {
    let Run { scale, seed, .. } = run;
    let config = mpsoc_dse::DseConfig {
        scale,
        seed,
        jobs: run.jobs.max(1),
        exec: run.exec,
        checkpoint_path: options.checkpoint_path.clone(),
        checkpoint_every: options.checkpoint_every,
        stop_after: options.stop_after,
        resume: options.resume,
    };
    let started = Instant::now();
    let result = mpsoc_dse::explore(&config)?;
    let wall_seconds = started.elapsed().as_secs_f64().max(1e-9);
    let table = result.to_string();
    if result.stopped {
        return Ok((table, None));
    }
    let fanout_speedup = if config.jobs >= 2 && config.stop_after.is_none() && !config.resume {
        let started = Instant::now();
        let serial = mpsoc_dse::explore(&mpsoc_dse::DseConfig {
            jobs: 1,
            checkpoint_path: None,
            checkpoint_every: None,
            ..config
        })?;
        let serial_seconds = started.elapsed().as_secs_f64().max(1e-9);
        let serial_table = serial.to_string();
        if serial_table != table {
            return Err(SimError::InvalidConfig {
                reason: format!(
                    "dse self-check failed: the jobs={} table differs from the serial \
                     one\n--- serial ---\n{serial_table}\n--- jobs={} ---\n{table}",
                    config.jobs, config.jobs
                ),
            });
        }
        serial_seconds / wall_seconds
    } else {
        1.0
    };
    let run = DseRun {
        scale,
        seed,
        jobs: config.jobs as u64,
        host_cores: experiments::host_cores() as u64,
        candidates: result.candidates as u64,
        front_size: result.front.len() as u64,
        families: result.families_on_front as u64,
        sim_ticks: result.total_sim_ticks(),
        wall_seconds,
        fanout_speedup,
        rungs: result
            .rungs
            .iter()
            .map(|r| DseRungRecord {
                budget_ps: r.budget_ps,
                population: u64::from(r.population),
                survivors: u64::from(r.survivors),
                sim_ticks: r.sim_ticks,
            })
            .collect(),
    };
    Ok((table, Some(run)))
}

/// One experiment execution with its host-side throughput measurements.
///
/// Produced by [`measure_experiment`]; the counters are the kernel
/// [`activity`] measured around the run: every simulation the run drove,
/// on its own thread or on the worker threads it fanned out to, and
/// nothing that ran beside it.
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentRun {
    /// Experiment id (one of [`EXPERIMENT_REGISTRY`]).
    pub id: String,
    /// The rendered result table (what `repro` prints).
    #[serde(skip)]
    pub table: String,
    /// Host wall-clock time of the run in seconds.
    pub wall_seconds: f64,
    /// Clock edges the kernel scheduler processed during the run.
    pub edges: u64,
    /// Component ticks (simulated component-cycles) charged: dispatched
    /// plus `elided`.
    pub ticks: u64,
    /// Component ticks the sparse scheduler proved skippable (quiescent
    /// slots with no due deadline and no pending input). Zero when running
    /// dense.
    pub skipped: u64,
    /// The part of `ticks` retired without running the component: charged
    /// ticks a stall hint proved no-ops (an output wire still full, a
    /// target mid-service), in either gear. Zero when running dense.
    pub elided: u64,
    /// Fast-forward windows handed to components (zero outside the
    /// loosely-timed gear).
    pub ff_windows: u64,
    /// Component-cycles elided inside fast-forward windows (slept over by
    /// the components' own `sleep_until` declarations).
    pub ff_elided: u64,
    /// Host-side scheduler throughput: `edges / wall_seconds`.
    pub edges_per_sec: f64,
    /// Simulated component-cycles per host second: `ticks / wall_seconds`.
    pub sim_cycles_per_sec: f64,
}

impl ExperimentRun {
    /// Fraction of component-edge slots the sparse scheduler skipped, in
    /// `0.0..=1.0` (0 for a dense run or an empty measurement).
    pub fn skip_fraction(&self) -> f64 {
        let total = self.ticks + self.skipped;
        if total == 0 {
            0.0
        } else {
            self.skipped as f64 / total as f64
        }
    }

    /// Fraction of the charged ticks that were elided rather than
    /// dispatched, in `0.0..=1.0`.
    pub fn elided_fraction(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.elided as f64 / self.ticks as f64
        }
    }

    /// One-line human-readable performance summary.
    pub fn perf_line(&self) -> String {
        format!(
            "[{} done in {:.2}s — {} edges/s, {} sim cycles/s, {:.0}% ticks skipped, \
             {:.0}% of the rest elided]",
            self.id,
            self.wall_seconds,
            si(self.edges_per_sec),
            si(self.sim_cycles_per_sec),
            self.skip_fraction() * 100.0,
            self.elided_fraction() * 100.0,
        )
    }
}

/// Formats a rate with an SI suffix (`1.23M`, `456k`, ...).
fn si(rate: f64) -> String {
    if rate >= 1e9 {
        format!("{:.2}G", rate / 1e9)
    } else if rate >= 1e6 {
        format!("{:.2}M", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.1}k", rate / 1e3)
    } else {
        format!("{rate:.0}")
    }
}

/// Runs one experiment and measures its wall time and kernel throughput.
///
/// # Errors
///
/// Same as [`run_experiment`].
pub fn measure_experiment(id: &str, run: Run) -> SimResult<ExperimentRun> {
    measure(id, || run_experiment(id, run))
}

/// [`measure_experiment`] around any function that renders experiment
/// `id`'s table — how `repro` measures [`run_dse`] called with its flags.
///
/// # Errors
///
/// Whatever `runner` fails with.
pub fn measure(id: &str, runner: impl FnOnce() -> SimResult<String>) -> SimResult<ExperimentRun> {
    let started = Instant::now();
    let (table, delta) = activity::measure(runner);
    let wall_seconds = started.elapsed().as_secs_f64().max(1e-9);
    let table = table?;
    Ok(ExperimentRun {
        id: id.to_string(),
        table,
        wall_seconds,
        edges: delta.edges,
        ticks: delta.ticks,
        skipped: delta.skipped,
        elided: delta.elided,
        ff_windows: delta.ff_windows,
        ff_elided: delta.ff_elided,
        edges_per_sec: delta.edges as f64 / wall_seconds,
        sim_cycles_per_sec: delta.ticks as f64 / wall_seconds,
    })
}

/// The `repro --fast-warm` measurement: the fig4 warm phase run in the
/// `Cycle` gear and in `Fast` gear at every quantum of the
/// [`experiments::FAST_FORWARD_QUANTA`] sweep, each finished by
/// cycle-accurate tails.
///
/// Produced by [`measure_fast_forward`], which also *proves* the
/// `quantum = 1` table byte-identical to the cycle-gear one before
/// reporting any timing; the reported speedup and error are the default
/// quantum's.
#[derive(Debug, Clone, Serialize)]
pub struct FastForwardRun {
    /// Workload multiplier the sweep ran at.
    pub scale: u64,
    /// Simulation seed.
    pub seed: u64,
    /// Worker threads used by the cycle-accurate tails (the timed warm
    /// phases are always serial).
    pub jobs: u64,
    /// The quantum the headline speedup/error were measured at
    /// ([`mpsoc_kernel::Fidelity::DEFAULT_QUANTUM`]).
    pub quantum: u64,
    /// The rendered speedup-vs-error curve (what `repro` prints).
    #[serde(skip)]
    pub table: String,
    /// Wall-clock seconds of the cycle-gear warm phase.
    pub warm_cycle_seconds: f64,
    /// Wall-clock seconds of the `Fast { quantum }` warm phase.
    pub warm_fast_seconds: f64,
    /// `warm_cycle_seconds / warm_fast_seconds` at the default quantum.
    pub speedup: f64,
    /// Worst per-cell error of the default-quantum sweep, in permille.
    pub max_err_permille: u64,
    /// Whether the `quantum = 1` sweep was byte-identical to the
    /// cycle-gear one (always `true` — a mismatch is an error instead).
    pub q1_identical: bool,
    /// Fast-forward windows handed to components across the measurement.
    pub ff_windows: u64,
    /// Component-cycles elided inside those windows.
    pub ff_elided: u64,
}

impl FastForwardRun {
    /// One-line human-readable summary.
    pub fn perf_line(&self) -> String {
        format!(
            "[fast-forward q=1 identical: yes — warm cycle {:.2}s, fast(q={}) {:.2}s, \
             speedup {:.2}x, max err {}\u{2030}, {} windows / {} cycles elided]",
            self.warm_cycle_seconds,
            self.quantum,
            self.warm_fast_seconds,
            self.speedup,
            self.max_err_permille,
            self.ff_windows,
            self.ff_elided,
        )
    }
}

/// Runs the loosely-timed fast-forward study, verifies the `quantum = 1`
/// identity, and returns the default-quantum headline numbers. The study
/// sets the gear of every row itself ([`experiments::fast_forward_study`]),
/// and the headline it records is the sparse schedule's: `repro` refuses
/// `--fast-gear` and `--dense` beside `--fast-warm`.
///
/// # Errors
///
/// Fails if a sweep stalls, or — the self-check — if the `quantum = 1`
/// table differs from the cycle-gear one in any byte, which would mean the
/// degenerate gear is not an identity.
pub fn measure_fast_forward(run: Run) -> SimResult<FastForwardRun> {
    let (study, delta) = activity::measure(|| experiments::fast_forward_study(run));
    let study = study?;
    let q1 = study.q1_row();
    if !q1.identical {
        return Err(SimError::InvalidConfig {
            reason: format!(
                "fast-forward self-check failed: the Fast {{ quantum: 1 }} fig4 table \
                 differs from the cycle-gear one (max err {}\u{2030})",
                q1.max_err_permille
            ),
        });
    }
    let headline = study.default_quantum_row();
    Ok(FastForwardRun {
        scale: run.scale,
        seed: run.seed,
        jobs: run.jobs as u64,
        quantum: headline.quantum,
        warm_cycle_seconds: study.cycle_warm_seconds,
        warm_fast_seconds: headline.warm_seconds,
        speedup: headline.speedup,
        max_err_permille: headline.max_err_permille,
        q1_identical: q1.identical,
        ff_windows: delta.ff_windows,
        ff_elided: delta.ff_elided,
        table: study.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_is_reported() {
        let err = run_experiment("nope", Run::new(1, 1)).unwrap_err();
        assert!(err.to_string().contains("unknown experiment"));
        assert!(err.to_string().contains("fig3"));
    }

    #[test]
    fn smallest_scale_smoke() {
        let out = run_experiment("many-to-one", Run::new(1, 1)).expect("runs");
        assert!(out.contains("STBus"));
    }

    #[test]
    fn registry_ids_are_distinct_and_described() {
        let ids = experiment_ids();
        let distinct: std::collections::BTreeSet<_> = ids.iter().collect();
        assert_eq!(distinct.len(), ids.len(), "duplicate experiment id");
        for desc in EXPERIMENT_REGISTRY {
            assert!(!desc.description.is_empty());
            assert_eq!(find_experiment(desc.id).map(|d| d.id), Some(desc.id));
        }
        assert!(ids.contains(&"dse"), "the dse driver must be registered");
    }

    #[test]
    fn dse_runner_records_a_measurement() {
        let (table, run) = run_dse(Run::new(1, 0x0dab), &DseOptions::default()).expect("dse runs");
        assert!(table.contains("pareto front"));
        let run = run.expect("a completed run is recorded");
        assert!(run.front_size >= 3, "front too small: {}", run.front_size);
        assert!(run.families >= 2);
        assert_eq!(run.jobs, 1);
        assert!((run.fanout_speedup - 1.0).abs() < f64::EPSILON);
        assert!(run.sim_ticks > 0);
        assert_eq!(
            run.rungs.iter().map(|r| r.sim_ticks).sum::<u64>(),
            run.sim_ticks
        );
    }
}
