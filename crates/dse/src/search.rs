//! Seeded successive halving over the design space.
//!
//! A generation of candidates is raced at a small simulated-time budget
//! with the loosely-timed fast-forward gear, the top fraction (by Pareto
//! rank) is promoted to a doubled cycle-accurate budget, and the
//! finalists run to quiescence. Each evaluation ends in a warm
//! checkpoint, so a promotion resumes the candidate's simulation from
//! where the previous rung left it instead of replaying from reset —
//! the same warm-fork discipline the FIG-4 sweep uses, applied across
//! budget rungs.
//!
//! Everything observable (scores, cuts, rung accounting, the final
//! front) is a pure function of `(seed, scale)`: evaluations
//! fan out through `parallel_map`, which preserves input order, and all
//! frontier mutation happens after collection, so any `--jobs` value
//! produces byte-identical results.

use crate::build::build_candidate;
use crate::frontier::{Frontier, FrontierEntry, RungStats, WORKLOAD};
use crate::pareto::{promotion_order, Score};
use crate::space::{sample_generation, Candidate, INITIATORS};
use mpsoc_kernel::{ExecMode, Fidelity, RunOutcome, SimResult, Simulation, SnapshotBlob, Time};
use mpsoc_platform::experiments::parallel_map;
use mpsoc_protocol::Packet;
use std::path::Path;

/// Horizon of the final run-to-quiescence rung; a candidate that stalls
/// scores its (poor) progress at this point instead of erroring out.
const FINAL_HORIZON: Time = Time::from_ms(60);

/// Rung-0 budget per unit of scale, in nanoseconds (doubles every rung).
const BASE_BUDGET_NS: u64 = 4_000;

/// Generation size for a given scale.
pub fn population_size(scale: u64) -> usize {
    9 + 3 * scale.max(1) as usize
}

/// Number of finalists that run to quiescence.
pub fn finalist_count(scale: u64) -> usize {
    (population_size(scale) / 3).max(4)
}

/// Simulated-time budget of rung `k`, or `None` for the final
/// run-to-quiescence rung.
fn rung_budget(scale: u64, rung: u32, is_final: bool) -> Option<Time> {
    (!is_final).then(|| Time::from_ns((BASE_BUDGET_NS * scale.max(1)) << rung))
}

/// Everything `explore` hands the ladder.
pub(crate) struct SearchParams<'a> {
    pub scale: u64,
    pub seed: u64,
    pub jobs: usize,
    pub exec: ExecMode,
    /// Save the frontier to this path every `checkpoint_every` rungs.
    pub checkpoint_path: Option<&'a Path>,
    pub checkpoint_every: Option<u32>,
    /// Stop (cleanly, with the frontier saved if a path is set) once
    /// this many rungs have completed — the mid-search interruption the
    /// resume-equality proof uses.
    pub stop_after: Option<u32>,
}

/// What one rung's evaluation of one candidate produced.
struct EvalOutput {
    score: Score,
    warm: Option<SnapshotBlob>,
    ticks: u64,
}

fn score_of(sim: &Simulation<Packet>, elapsed: Time, cost: u64) -> Score {
    let stats = sim.stats();
    let mut completed = 0u64;
    let mut lat_weighted = 0.0f64;
    let mut lat_count = 0u64;
    let mut p95 = 0u64;
    for i in 0..INITIATORS {
        completed += stats.counter_by_name(&format!("g{i}.completed"));
        if let Some(h) = stats.histogram_by_name(&format!("g{i}.latency_ns")) {
            if h.count() > 0 {
                lat_weighted += h.mean() * h.count() as f64;
                lat_count += h.count();
                p95 = p95.max(h.percentile(0.95).unwrap_or(0));
            }
        }
    }
    let us = elapsed.as_ps() as f64 / 1e6;
    let throughput = if completed > 0 && us > 0.0 {
        completed as f64 / us
    } else {
        0.0
    };
    // A candidate that completed nothing must not look attractive on the
    // latency axis.
    let latency_ns = if completed == 0 {
        f64::INFINITY
    } else if lat_count > 0 {
        lat_weighted / lat_count as f64
    } else {
        0.0
    };
    Score {
        throughput,
        latency_ns,
        p95_ns: p95,
        completed,
        cost,
    }
}

/// Evaluates one candidate for one rung.
///
/// Rung 0 starts from reset in the fast gear (the race heuristic);
/// every later rung restores the candidate's warm checkpoint and
/// continues cycle-accurately. Non-final rungs end in a fresh warm
/// checkpoint for the next promotion.
fn eval_one(
    candidate: &Candidate,
    warm: Option<&SnapshotBlob>,
    scale: u64,
    seed: u64,
    exec: ExecMode,
    budget: Option<Time>,
) -> SimResult<EvalOutput> {
    let mut platform = build_candidate(candidate, scale, seed, exec)?;
    let sim = platform.sim_mut();
    match warm {
        Some(blob) => {
            sim.restore(blob)?;
            sim.set_fidelity(Fidelity::Cycle);
        }
        // The fast gear is only for the budgeted race from reset; a final
        // rung that somehow starts cold stays cycle-accurate.
        None if budget.is_some() => sim.set_fidelity(Fidelity::fast()),
        None => sim.set_fidelity(Fidelity::Cycle),
    }
    let begin_ticks = sim.ticks_executed();
    let elapsed = match budget {
        Some(horizon) => {
            sim.run_until(horizon);
            // Shift back to the cycle gear before checkpointing so the
            // next rung continues cycle-accurately from a settled state.
            sim.set_fidelity(Fidelity::Cycle);
            horizon.max(sim.time())
        }
        None => match sim.run_to_quiescence(FINAL_HORIZON) {
            RunOutcome::Quiescent { at } => at,
            RunOutcome::HorizonReached { at } => at,
        },
    };
    let ticks = sim.ticks_executed() - begin_ticks;
    let warm = budget.is_some().then(|| sim.checkpoint());
    let score = score_of(platform.sim(), elapsed, candidate.cost());
    Ok(EvalOutput { score, warm, ticks })
}

/// Seeds a fresh frontier for `(scale, seed)`.
pub(crate) fn seed_frontier(scale: u64, seed: u64) -> Frontier {
    let entries = sample_generation(population_size(scale), seed)
        .into_iter()
        .map(|candidate| FrontierEntry {
            candidate,
            alive: true,
            score: None,
            warm: None,
        })
        .collect();
    Frontier {
        seed,
        scale,
        workload: WORKLOAD.to_owned(),
        next_rung: 0,
        rungs: Vec::new(),
        entries,
    }
}

/// Runs the successive-halving ladder on `frontier` until the finalists
/// have run to quiescence (returns `false`) or `stop_after` interrupted
/// it mid-search (returns `true`).
///
/// # Errors
///
/// Propagates platform build/restore failures and checkpoint-file I/O
/// errors.
pub(crate) fn run_search(frontier: &mut Frontier, params: &SearchParams<'_>) -> SimResult<bool> {
    let finalists = finalist_count(params.scale);
    loop {
        let alive: Vec<usize> = (0..frontier.entries.len())
            .filter(|&i| frontier.entries[i].alive)
            .collect();
        let is_final = alive.len() <= finalists;
        if is_final && frontier.rungs.last().is_some_and(|r| r.budget_ps == 0) {
            return Ok(false); // the quiescence rung already ran
        }
        if let Some(limit) = params.stop_after {
            if frontier.next_rung >= limit {
                if let Some(path) = params.checkpoint_path {
                    save_frontier(frontier, path)?;
                }
                return Ok(true);
            }
        }
        let budget = rung_budget(params.scale, frontier.next_rung, is_final);

        let inputs: Vec<(usize, Candidate, Option<SnapshotBlob>)> = alive
            .iter()
            .map(|&i| {
                let e = &frontier.entries[i];
                (i, e.candidate, e.warm.clone())
            })
            .collect();
        let outputs = parallel_map(inputs, params.jobs, |(slot, candidate, warm)| {
            let out = eval_one(
                &candidate,
                warm.as_ref(),
                params.scale,
                params.seed,
                params.exec,
                budget,
            )?;
            Ok::<_, mpsoc_kernel::SimError>((slot, out))
        });

        let mut sim_ticks = 0u64;
        for result in outputs {
            let (slot, out) = result?;
            sim_ticks += out.ticks;
            let entry = &mut frontier.entries[slot];
            entry.score = Some(out.score);
            entry.warm = out.warm;
        }

        let survivors = if is_final {
            alive.len()
        } else {
            let scores: Vec<Score> = alive
                .iter()
                .map(|&i| frontier.entries[i].score.expect("just evaluated"))
                .collect();
            let ids: Vec<u32> = alive
                .iter()
                .map(|&i| frontier.entries[i].candidate.index)
                .collect();
            let keep = alive.len().div_ceil(2).max(finalists).min(alive.len());
            let order = promotion_order(&scores, &ids);
            // Diversity preservation: the best-ranked candidate of every
            // fabric family survives the cut, so the finalists (and the
            // front) always span the families still in the race; the
            // remaining slots go to the global promotion order.
            let mut promoted = vec![false; alive.len()];
            let mut taken = 0usize;
            let mut families_seen = [false; 3];
            for &pos in &order {
                let fam = frontier.entries[alive[pos]].candidate.family.tag() as usize;
                if taken < keep && !families_seen[fam] {
                    families_seen[fam] = true;
                    promoted[pos] = true;
                    taken += 1;
                }
            }
            for &pos in &order {
                if taken >= keep {
                    break;
                }
                if !promoted[pos] {
                    promoted[pos] = true;
                    taken += 1;
                }
            }
            for (pos, keep_it) in promoted.iter().enumerate() {
                if !keep_it {
                    let entry = &mut frontier.entries[alive[pos]];
                    entry.alive = false;
                    entry.warm = None; // eliminated candidates free their checkpoint
                }
            }
            keep
        };

        frontier.rungs.push(RungStats {
            budget_ps: budget.map_or(0, Time::as_ps),
            population: alive.len() as u32,
            survivors: survivors as u32,
            sim_ticks,
        });
        frontier.next_rung += 1;

        if let (Some(path), Some(every)) = (params.checkpoint_path, params.checkpoint_every) {
            if every > 0 && frontier.next_rung.is_multiple_of(every) {
                save_frontier(frontier, path)?;
            }
        }
        if is_final {
            return Ok(false);
        }
    }
}

fn save_frontier(frontier: &Frontier, path: &Path) -> SimResult<()> {
    frontier
        .save(path)
        .map_err(|e| mpsoc_kernel::SimError::InvalidConfig {
            reason: format!("writing DSE checkpoint {}: {e}", path.display()),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_shrinks_to_finalists_and_quiesces() {
        let mut frontier = seed_frontier(1, 0x0dab);
        let params = SearchParams {
            scale: 1,
            seed: 0x0dab,
            jobs: 1,
            exec: ExecMode::default(),
            checkpoint_path: None,
            checkpoint_every: None,
            stop_after: None,
        };
        let stopped = run_search(&mut frontier, &params).expect("search runs");
        assert!(!stopped);
        let last = frontier.rungs.last().expect("ran rungs");
        assert_eq!(last.budget_ps, 0, "last rung runs to quiescence");
        assert!(frontier.rungs.len() >= 3, "ladder has at least two cuts");
        let alive = frontier.entries.iter().filter(|e| e.alive).count();
        assert_eq!(alive, finalist_count(1));
        for e in frontier.entries.iter().filter(|e| e.alive) {
            let s = e.score.expect("finalists are scored");
            assert!(s.completed > 0, "{} completed nothing", e.candidate);
        }
    }

    #[test]
    fn budgets_double_per_rung() {
        assert_eq!(rung_budget(1, 0, false), Some(Time::from_ns(4_000)));
        assert_eq!(rung_budget(1, 1, false), Some(Time::from_ns(8_000)));
        assert_eq!(rung_budget(2, 2, false), Some(Time::from_ns(32_000)));
        assert_eq!(rung_budget(2, 5, true), None);
    }
}
