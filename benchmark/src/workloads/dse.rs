//! `dse_search`: wall time to a Pareto front.
//!
//! One operation is a whole `mpsoc_dse::explore` at `jobs` = host cores,
//! default workload, no checkpointing: `parallel_map` fan-out, snapshot
//! forks between rungs, the fast gear on rung 0 and one platform build per
//! candidate and rung, together — little server, little cycle-accurate
//! ticking.
//!
//! The search seeds are the same under every `--seed` (which orders the
//! searches within a pass): the cost of a search moves by 20 % (one
//! standard deviation, measured at scales 1, 2 and 4 alike) with the
//! generation its seed samples, and a pass long enough to average that out
//! would leave too few repeats of each search to reject host noise.

use crate::digest::Fnv;
use crate::expected::{check_digest, Content};
use crate::rng::{Rng, CANONICAL_SEED};
use crate::run::{report_inproc, timed_passes, timed_setup, OpOutput, Outcome, RunArgs};
use crate::stats::median;
use crate::trace::Tracer;
use mpsoc_dse::{explore, DseConfig, DseResult};
use std::time::Instant;

/// Host cores, the fan-out every timed search runs at.
pub fn host_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Searches per pass.
pub const SEARCHES: usize = 4;

/// The searches of one pass.
pub fn configs(quick: bool, jobs: usize) -> Vec<DseConfig> {
    let mut rng = Rng::new(CANONICAL_SEED, 0xd5e);
    (0..if quick { 2 } else { SEARCHES })
        .map(|_| DseConfig {
            scale: if quick { 1 } else { 4 },
            seed: rng.sim_seed(),
            jobs,
            ..DseConfig::default()
        })
        .collect()
}

/// Digest of the front and the finalists, every field of every point.
pub fn digest_of(result: &DseResult) -> u64 {
    let mut h = Fnv::default();
    for points in [&result.front, &result.finalists] {
        h.u64(points.len() as u64);
        for p in points {
            h.u64(u64::from(p.candidate.index));
            h.str(&format!("{:?}", p.candidate.key()));
            h.f64(p.score.throughput);
            h.f64(p.score.latency_ns);
            h.u64(p.score.p95_ns);
            h.u64(p.score.completed);
            h.u64(p.score.cost);
        }
    }
    h.u64(result.candidates as u64);
    h.u64(result.families_on_front as u64);
    h.finish()
}

fn search(config: &DseConfig, op_id: u64, t: &mut Tracer) -> Result<DseResult, String> {
    let open = t.begin("dse.explore", op_id);
    let result = explore(config);
    t.end(open);
    result.map_err(|e| format!("explore seed {:#x}: {e}", config.seed))
}

fn output_of(result: &DseResult) -> OpOutput {
    OpOutput {
        sim_cycles: result.total_sim_ticks(),
        digest: digest_of(result),
    }
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(Instant::now(), false);
    let jobs = host_jobs();

    // Set-up: the untimed pass at the timed fan-out, and the same searches
    // at jobs 1, which must find bit-identical fronts.
    let ((configs, results, serial_s), setup_s) = timed_setup(args, || {
        let mut off = Tracer::new(Instant::now(), false);
        let configs = configs(args.quick, jobs);
        let results = configs
            .iter()
            .map(|c| search(c, 0, &mut off))
            .collect::<Result<Vec<_>, _>>()?;
        let mut serial_s = Vec::new();
        for (config, fanned) in configs.iter().zip(&results) {
            let started = Instant::now();
            let serial = search(
                &DseConfig {
                    jobs: 1,
                    ..config.clone()
                },
                0,
                &mut off,
            )?;
            serial_s.push(started.elapsed().as_secs_f64());
            if digest_of(&serial) != digest_of(fanned) {
                return Err(format!(
                    "explore seed {:#x}: front at jobs 1 differs from jobs {jobs}",
                    config.seed
                ));
            }
        }
        Ok((configs, results, serial_s))
    })?;
    let reference: Vec<OpOutput> = results.iter().map(output_of).collect();

    let log = timed_passes(
        args,
        &mut out,
        &mut tracer,
        &reference,
        |index, op_id, tracer| search(&configs[index], op_id, tracer).map(|r| output_of(&r)),
    );
    check_digest(args, "dse_search", Content::Fixed, log.digest, &mut out);
    let candidates: usize = results.iter().map(|r| r.candidates).sum();
    let front: usize = results.iter().map(|r| r.front.len()).sum();
    out.note(format!(
        "{} passes of {} searches at jobs {jobs} (host cores {jobs}): {candidates} candidates, {front} front points, {} kernel ticks per pass",
        log.passes[0] + log.passes[1],
        log.ops,
        log.sim_cycles
    ));

    if args.trace {
        let m = &mut out.metrics;
        // One search, quiet-host, the median of the pass's searches.
        let explore_s = median(&tracer.quiet_s_by_case("dse.explore", configs.len()));
        m.set("dse.candidates", candidates as f64);
        m.set("dse.front_size", front as f64);
        m.set("dse.sim_ticks", log.sim_cycles as f64);
        m.set(
            "dse.ms_per_candidate",
            explore_s * 1e3 * configs.len() as f64 / candidates as f64,
        );
        m.set("dse.fanout_ratio", median(&serial_s) / explore_s);
    }
    report_inproc(args, "dse_search", &log, setup_s, &tracer, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_distinct_searches_at_the_asked_fan_out() {
        let seeds: Vec<(u64, u64, usize)> = configs(false, 2)
            .iter()
            .map(|c| (c.seed, c.scale, c.jobs))
            .collect();
        assert_eq!(seeds.len(), SEARCHES);
        assert!(seeds
            .iter()
            .all(|&(_, scale, jobs)| (scale, jobs) == (4, 2)));
        let distinct: std::collections::BTreeSet<u64> = seeds.iter().map(|s| s.0).collect();
        assert_eq!(distinct.len(), SEARCHES);
    }
}
