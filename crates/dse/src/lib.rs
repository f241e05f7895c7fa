//! # mpsoc-dse
//!
//! Automated design-space exploration over MPSoC communication
//! architectures — the search loop the paper's authors wished they had.
//! Under one workload — the saturated many-to-many traffic of eight
//! initiators over four memories — the explorer races a seeded
//! generation of candidate platforms — shared STBus vs partial crossbar
//! vs NoC mesh, bridge blockingness, buffer depths, wait states, LMI
//! settings — through a successive-halving budget ladder and reports
//! the Pareto front over throughput, mean latency and a static cost
//! model (links + buffer bits).
//!
//! The same candidate builder wires the EXT-NOC experiment
//! ([`noc_outlook()`]): a shared STBus node, an STBus full crossbar and a
//! 4×3 mesh NoC under that workload.
//!
//! The search leans on the rest of the workspace for speed: rung 0 runs
//! in the loosely-timed fast-forward gear, promotions resume from warm
//! per-candidate checkpoints instead of replaying from reset, and
//! evaluations fan out through the deterministic `parallel_map` runner.
//! Results are bit-reproducible for a given seed at any job count, and
//! the whole search frontier checkpoints to disk and resumes
//! mid-ladder with provably identical output.
//!
//! ```
//! use mpsoc_dse::{explore, DseConfig};
//!
//! let result = explore(&DseConfig { scale: 1, seed: 0x0dab, ..DseConfig::default() })?;
//! assert!(result.front.len() >= 2);
//! # Ok::<(), mpsoc_kernel::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
mod frontier;
mod noc_outlook;
mod pareto;
mod search;
mod space;

pub use build::build_candidate;
pub use frontier::{Frontier, FrontierEntry, RungStats, FRONTIER_VERSION};
pub use noc_outlook::{noc_outlook, NocOutlook, NocOutlookRow};
pub use pareto::{pareto_front, pareto_ranks, Score};
pub use search::{finalist_count, population_size};
pub use space::{sample_generation, Candidate, FabricFamily};

use frontier::WORKLOAD;
use mpsoc_kernel::{ExecMode, SimError, SimResult};
use std::fmt;
use std::path::PathBuf;

/// Configuration of one exploration run.
#[derive(Debug, Clone)]
pub struct DseConfig {
    /// Workload scale: grows both the generation size and the budgets.
    pub scale: u64,
    /// Search seed; every observable output is a pure function of
    /// `(scale, seed)`.
    pub seed: u64,
    /// Evaluation fan-out for `parallel_map` (1 = inline).
    pub jobs: usize,
    /// Schedule of every candidate simulation. The search
    /// shifts the gear itself, per rung (fast from reset, cycle-accurate
    /// after a promotion), so `exec.fidelity` is not consulted.
    pub exec: ExecMode,
    /// Where to write frontier checkpoints (and where `resume` reads
    /// from when set).
    pub checkpoint_path: Option<PathBuf>,
    /// Save the frontier every N completed rungs.
    pub checkpoint_every: Option<u32>,
    /// Stop cleanly once N rungs have completed (the searched is saved
    /// to `checkpoint_path` first); used to prove resume equality.
    pub stop_after: Option<u32>,
    /// Resume from the frontier previously saved at `checkpoint_path`
    /// instead of seeding a fresh generation.
    pub resume: bool,
}

impl Default for DseConfig {
    fn default() -> Self {
        DseConfig {
            scale: 1,
            seed: 0x0dab,
            jobs: 1,
            exec: ExecMode::default(),
            checkpoint_path: None,
            checkpoint_every: None,
            stop_after: None,
            resume: false,
        }
    }
}

/// One point of the final Pareto front.
#[derive(Debug, Clone, Copy)]
pub struct FrontPoint {
    /// The design point.
    pub candidate: Candidate,
    /// Its quiescence-rung score.
    pub score: Score,
}

/// The outcome of [`explore`].
#[derive(Debug, Clone)]
pub struct DseResult {
    /// Scale the search ran at.
    pub scale: u64,
    /// Search seed.
    pub seed: u64,
    /// Candidates in the generation.
    pub candidates: usize,
    /// Per-rung accounting (budget, population, survivors, sim ticks).
    pub rungs: Vec<RungStats>,
    /// The non-dominated finalists, throughput-descending.
    pub front: Vec<FrontPoint>,
    /// All finalists (front superset), throughput-descending.
    pub finalists: Vec<FrontPoint>,
    /// Distinct fabric families represented on the front.
    pub families_on_front: usize,
    /// `true` when `stop_after` interrupted the ladder (the front is
    /// empty; resume from the checkpoint to finish).
    pub stopped: bool,
}

impl DseResult {
    /// Total kernel ticks across all rungs.
    pub fn total_sim_ticks(&self) -> u64 {
        self.rungs.iter().map(|r| r.sim_ticks).sum()
    }
}

impl fmt::Display for DseResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "EXP-DSE design-space exploration  workload {WORKLOAD}  candidates {}  seed {:#x}",
            self.candidates, self.seed
        )?;
        for (k, r) in self.rungs.iter().enumerate() {
            let budget = if r.budget_ps == 0 {
                "quiescence".to_owned()
            } else {
                format!("{:>7} us", r.budget_ps / 1_000_000)
            };
            writeln!(
                f,
                "rung {k}  {budget:>12}  population {:>3}  survivors {:>3}  sim-ticks {}",
                r.population, r.survivors, r.sim_ticks
            )?;
        }
        if self.stopped {
            writeln!(f, "search interrupted mid-ladder (resume to finish)")?;
            return Ok(());
        }
        writeln!(f, "pareto front (throughput desc):")?;
        for p in &self.front {
            let latency = if p.score.latency_ns.is_finite() {
                format!("{:>8.1} ns", p.score.latency_ns)
            } else {
                " stalled".to_owned()
            };
            writeln!(
                f,
                "  #{:<3} {:<12} {:<22} {:>9.3} tx/us {latency}  p95 {:>6}  cost {:>6}",
                p.candidate.index,
                p.candidate.family.label(),
                p.candidate.summary(),
                p.score.throughput,
                p.score.p95_ns,
                p.score.cost,
            )?;
        }
        writeln!(
            f,
            "front: {} points, {} families",
            self.front.len(),
            self.families_on_front
        )
    }
}

fn result_from(frontier: &Frontier, stopped: bool) -> DseResult {
    let finalists: Vec<&FrontierEntry> = frontier
        .entries
        .iter()
        .filter(|e| e.alive && e.score.is_some())
        .collect();
    let (front, all, families) = if stopped {
        (Vec::new(), Vec::new(), 0)
    } else {
        let scores: Vec<Score> = finalists
            .iter()
            .map(|e| e.score.expect("filtered"))
            .collect();
        // Throughput-descending, index tie-break: a stable, job-count
        // independent presentation order.
        let by_throughput = |idx: &mut Vec<usize>| {
            idx.sort_by(|&a, &b| {
                scores[b].throughput.total_cmp(&scores[a].throughput).then(
                    finalists[a]
                        .candidate
                        .index
                        .cmp(&finalists[b].candidate.index),
                )
            });
        };
        let points = |idx: Vec<usize>| -> Vec<FrontPoint> {
            idx.into_iter()
                .map(|i| FrontPoint {
                    candidate: finalists[i].candidate,
                    score: scores[i],
                })
                .collect()
        };
        let mut front_idx = pareto_front(&scores);
        by_throughput(&mut front_idx);
        let mut all_idx: Vec<usize> = (0..finalists.len()).collect();
        by_throughput(&mut all_idx);
        let front = points(front_idx);
        let mut fams: Vec<u8> = front.iter().map(|p| p.candidate.family.tag()).collect();
        fams.sort_unstable();
        fams.dedup();
        (front, points(all_idx), fams.len())
    };
    DseResult {
        scale: frontier.scale,
        seed: frontier.seed,
        candidates: frontier.entries.len(),
        rungs: frontier.rungs.clone(),
        front,
        finalists: all,
        families_on_front: families,
        stopped,
    }
}

/// Runs (or resumes) a design-space exploration.
///
/// # Errors
///
/// Fails if a candidate platform cannot be built or restored, if a
/// checkpoint cannot be written, or if `resume` is set and the
/// checkpoint is missing, corrupt, or was recorded for a different
/// scale, seed or workload.
pub fn explore(config: &DseConfig) -> SimResult<DseResult> {
    let invalid = |reason: String| SimError::InvalidConfig { reason };
    let mut frontier = if config.resume {
        let path = config
            .checkpoint_path
            .as_deref()
            .ok_or_else(|| invalid("--dse-resume needs a checkpoint path".into()))?;
        let frontier = Frontier::load(path)
            .map_err(|e| invalid(format!("loading DSE checkpoint {}: {e}", path.display())))?;
        if frontier.seed != config.seed
            || frontier.scale != config.scale
            || frontier.workload != WORKLOAD
        {
            return Err(invalid(format!(
                "checkpoint was recorded for scale {} seed {:#x} workload {}, \
                 requested scale {} seed {:#x} workload {}",
                frontier.scale,
                frontier.seed,
                frontier.workload,
                config.scale,
                config.seed,
                WORKLOAD
            )));
        }
        frontier
    } else {
        search::seed_frontier(config.scale, config.seed)
    };
    let params = search::SearchParams {
        scale: config.scale,
        seed: config.seed,
        jobs: config.jobs.max(1),
        exec: config.exec,
        checkpoint_path: config.checkpoint_path.as_deref(),
        checkpoint_every: config.checkpoint_every,
        stop_after: config.stop_after,
    };
    let stopped = search::run_search(&mut frontier, &params)?;
    Ok(result_from(&frontier, stopped))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_front_is_non_degenerate() {
        let result = explore(&DseConfig::default()).expect("search runs");
        assert!(!result.stopped);
        assert!(result.front.len() >= 3, "front too small:\n{result}");
        assert!(
            result.families_on_front >= 2,
            "front spans too few families:\n{result}"
        );
    }

    #[test]
    fn table_is_reproducible_across_jobs() {
        let base = DseConfig::default();
        let a = explore(&base).expect("runs").to_string();
        let b = explore(&DseConfig { jobs: 4, ..base })
            .expect("runs")
            .to_string();
        assert_eq!(a, b, "jobs must not leak into the table");
    }

    #[test]
    fn resume_is_identical_to_uninterrupted() {
        let dir = std::env::temp_dir().join(format!("dse-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let ckpt = dir.join("frontier.bin");
        let base = DseConfig {
            checkpoint_path: Some(ckpt.clone()),
            ..DseConfig::default()
        };
        let full = explore(&DseConfig {
            checkpoint_path: None,
            ..base.clone()
        })
        .expect("full run");
        let stopped = explore(&DseConfig {
            stop_after: Some(1),
            ..base.clone()
        })
        .expect("interrupted run");
        assert!(stopped.stopped);
        let resumed = explore(&DseConfig {
            resume: true,
            ..base
        })
        .expect("resumed run");
        assert_eq!(full.to_string(), resumed.to_string());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_mismatched_parameters() {
        let dir = std::env::temp_dir().join(format!("dse-mismatch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let ckpt = dir.join("frontier.bin");
        explore(&DseConfig {
            checkpoint_path: Some(ckpt.clone()),
            stop_after: Some(1),
            ..DseConfig::default()
        })
        .expect("interrupted run");
        let err = explore(&DseConfig {
            checkpoint_path: Some(ckpt),
            resume: true,
            seed: 0xbad,
            ..DseConfig::default()
        })
        .expect_err("seed mismatch must fail");
        assert!(err.to_string().contains("checkpoint was recorded"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
