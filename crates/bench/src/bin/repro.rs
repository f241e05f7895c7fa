//! `repro` — regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```bash
//! repro                      # all experiments at the default scale
//! repro --exp fig5           # one experiment
//! repro --scale 8 --seed 42  # bigger workload, different seed
//! repro --jobs 4             # parallel sweep points inside fig4 / many-to-many
//! repro --tick-jobs 4        # intra-edge parallel tick execution (identical tables)
//! repro --list               # list experiment ids with descriptions
//! repro --exp fig4 --warm-fork          # checkpoint-forked sweep + speedup
//! repro --fast-warm                     # loosely-timed warm phase: speedup vs error
//! repro --exp fig3 --fast-gear 1        # run in the fast gear (q=1: identical tables)
//! repro --exp fig4 --checkpoint-every 500 --rewind-to 2000   # time travel
//! repro --exp dse                       # design-space exploration (Pareto front)
//! repro --exp dse --dse-checkpoint f.bin --dse-checkpoint-every 1   # resumable
//! repro --exp dse --dse-checkpoint f.bin --dse-resume               # resume it
//! repro --no-bench-out       # skip writing the perf ledger
//! repro --bench-out <path>   # refresh a committed ledger explicitly
//! repro --check-bench <path> # fail if throughput regressed >30% vs <path>
//! ```
//!
//! Experiments always run one at a time and print in a fixed order, so the
//! tables are byte-identical for any `--jobs` value; `--jobs` only fans the
//! independent simulation instances *inside* the sweep-shaped experiments
//! out to worker threads. `--tick-jobs` instead parallelizes *within* each
//! simulation — parallel-safe components are computed on worker threads
//! against a frozen view and their buffered effects replayed in
//! registration order — and the kernel guarantees the output stays
//! byte-identical to serial for any value. Each experiment is followed by a host-side
//! throughput line (scheduler edges/sec and simulated component-cycles/sec,
//! from the kernel's activity counters), and the measurements are recorded
//! in a machine-readable ledger. By default that ledger lands in the
//! gitignored `target/BENCH_kernel.json`; the committed copy at the repo
//! root is only touched when `--bench-out` names it explicitly.
//!
//! `--warm-fork` runs the fig4 sweep twice — cold and via checkpoint/fork —
//! proves the tables byte-identical, and records the wall-clock speedup in
//! the ledger's `"warm_fork"` section. `--fast-warm` runs the EXT-FAST
//! study instead: the fig4 warm phase once per fast-forward quantum, each
//! finished by cycle-accurate tails, reporting warm-phase speedup and
//! worst per-cell error per quantum and recording the default-quantum
//! headline in the ledger's `"fast_forward"` section (`--check-bench`
//! then enforces the speedup floor and the quantum-1 byte identity).
//! `--fast-gear QUANTUM` runs any experiment with every simulation in the
//! loosely-timed gear — tables are approximate for quantum > 1 and
//! byte-identical to cycle-accurate at quantum 1.
//! `--checkpoint-every`/`--rewind-to` run the time-travel debug harness on
//! a representative platform of the selected experiment instead of the
//! experiment itself.
//!
//! `--exp dse` runs the design-space explorer (see the `mpsoc-dse`
//! crate): a seeded successive-halving race over fabric topologies,
//! buffer depths and memory configurations that reports the Pareto front
//! over throughput, latency and a static cost model. Its table is
//! byte-identical for any `--jobs` and for a checkpoint-interrupted,
//! resumed search (`--dse-checkpoint` + `--dse-checkpoint-every` to save
//! the frontier, `--dse-stop-after` to interrupt, `--dse-resume` to
//! continue). A completed run records the ledger's `"dse"` section;
//! `--check-bench` then enforces the front-quality floors and — when the
//! recording run fanned out on a multi-core host — the fan-out speedup.

use mpsoc_bench::{
    experiment_ids, ledger, measure_experiment, measure_fast_forward, measure_fig4_scaling,
    measure_warm_fork, set_dse_options, take_dse_run, timetravel, DseOptions, ExperimentRun,
    Fig4ScalingPoint, EXPERIMENT_REGISTRY,
};
use mpsoc_platform::experiments::{DEFAULT_SCALE, DEFAULT_SEED};
use serde::Serialize;
use std::process::ExitCode;

struct Args {
    exp: Option<String>,
    scale: u64,
    seed: u64,
    jobs: usize,
    tick_jobs: usize,
    list: bool,
    warm_fork: bool,
    fast_warm: bool,
    fast_gear: Option<u64>,
    checkpoint_every_ns: Option<u64>,
    rewind_to_ns: Option<u64>,
    bench_out: bool,
    bench_out_path: Option<std::path::PathBuf>,
    check_bench: Option<std::path::PathBuf>,
    dense: bool,
    dse_checkpoint: Option<std::path::PathBuf>,
    dse_checkpoint_every: Option<u32>,
    dse_stop_after: Option<u32>,
    dse_resume: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        exp: None,
        scale: DEFAULT_SCALE,
        seed: DEFAULT_SEED,
        jobs: 1,
        tick_jobs: 1,
        list: false,
        warm_fork: false,
        fast_warm: false,
        fast_gear: None,
        checkpoint_every_ns: None,
        rewind_to_ns: None,
        bench_out: true,
        bench_out_path: None,
        check_bench: None,
        dense: false,
        dse_checkpoint: None,
        dse_checkpoint_every: None,
        dse_stop_after: None,
        dse_resume: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--exp" => {
                args.exp = Some(it.next().ok_or("--exp needs a value")?);
            }
            "--scale" => {
                args.scale = it
                    .next()
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|e| format!("bad scale: {e}"))?;
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "--jobs" => {
                args.jobs = it
                    .next()
                    .ok_or("--jobs needs a value")?
                    .parse()
                    .map_err(|e| format!("bad jobs: {e}"))?;
                if args.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--tick-jobs" => {
                args.tick_jobs = it
                    .next()
                    .ok_or("--tick-jobs needs a value")?
                    .parse()
                    .map_err(|e| format!("bad tick jobs: {e}"))?;
                if args.tick_jobs == 0 {
                    return Err("--tick-jobs must be at least 1".into());
                }
            }
            "--list" => args.list = true,
            "--warm-fork" => args.warm_fork = true,
            "--fast-warm" => args.fast_warm = true,
            "--fast-gear" => {
                let quantum: u64 = it
                    .next()
                    .ok_or("--fast-gear needs a quantum (edges per window)")?
                    .parse()
                    .map_err(|e| format!("bad quantum: {e}"))?;
                if quantum == 0 {
                    return Err("--fast-gear quantum must be at least 1".into());
                }
                args.fast_gear = Some(quantum);
            }
            "--checkpoint-every" => {
                args.checkpoint_every_ns = Some(
                    it.next()
                        .ok_or("--checkpoint-every needs a value (ns)")?
                        .parse()
                        .map_err(|e| format!("bad checkpoint cadence: {e}"))?,
                );
            }
            "--rewind-to" => {
                args.rewind_to_ns = Some(
                    it.next()
                        .ok_or("--rewind-to needs a value (ns)")?
                        .parse()
                        .map_err(|e| format!("bad rewind target: {e}"))?,
                );
            }
            "--dse-checkpoint" => {
                args.dse_checkpoint =
                    Some(it.next().ok_or("--dse-checkpoint needs a path")?.into());
            }
            "--dse-checkpoint-every" => {
                let every: u32 = it
                    .next()
                    .ok_or("--dse-checkpoint-every needs a value (rungs)")?
                    .parse()
                    .map_err(|e| format!("bad checkpoint cadence: {e}"))?;
                if every == 0 {
                    return Err("--dse-checkpoint-every must be at least 1".into());
                }
                args.dse_checkpoint_every = Some(every);
            }
            "--dse-stop-after" => {
                args.dse_stop_after = Some(
                    it.next()
                        .ok_or("--dse-stop-after needs a value (rungs)")?
                        .parse()
                        .map_err(|e| format!("bad rung count: {e}"))?,
                );
            }
            "--dse-resume" => args.dse_resume = true,
            "--dense" => args.dense = true,
            "--no-bench-out" => args.bench_out = false,
            "--bench-out" => {
                args.bench_out_path = Some(it.next().ok_or("--bench-out needs a path")?.into());
            }
            "--check-bench" => {
                args.check_bench = Some(it.next().ok_or("--check-bench needs a path")?.into());
            }
            "--help" | "-h" => {
                println!(
                    "repro [--exp <id>] [--scale N] [--seed N] [--jobs N] [--tick-jobs N] [--list] \
                     [--warm-fork] [--fast-warm] [--fast-gear QUANTUM] \
                     [--checkpoint-every NS --rewind-to NS] [--dense] \
                     [--dse-checkpoint <path>] [--dse-checkpoint-every RUNGS] \
                     [--dse-stop-after RUNGS] [--dse-resume] \
                     [--no-bench-out] [--bench-out <path>] [--check-bench <path>]\n\
                     experiments: {}",
                    experiment_ids().join(", ")
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.checkpoint_every_ns.is_some() != args.rewind_to_ns.is_some() {
        return Err("--checkpoint-every and --rewind-to must be given together".into());
    }
    let any_dse_flag = args.dse_checkpoint.is_some()
        || args.dse_checkpoint_every.is_some()
        || args.dse_stop_after.is_some()
        || args.dse_resume;
    if any_dse_flag && args.exp.as_deref() != Some("dse") {
        return Err("--dse-* flags only apply to `--exp dse`".into());
    }
    if (args.dse_checkpoint_every.is_some() || args.dse_stop_after.is_some() || args.dse_resume)
        && args.dse_checkpoint.is_none()
    {
        return Err(
            "--dse-checkpoint-every/--dse-stop-after/--dse-resume need --dse-checkpoint".into(),
        );
    }
    if args.rewind_to_ns.is_some() && args.exp.is_none() {
        return Err("time travel needs --exp <id> to pick the platform".into());
    }
    if args.warm_fork && args.fast_warm {
        return Err("--warm-fork and --fast-warm are separate measurements".into());
    }
    if args.warm_fork || args.fast_warm {
        let flag = if args.warm_fork {
            "--warm-fork"
        } else {
            "--fast-warm"
        };
        match args.exp.as_deref() {
            None => args.exp = Some("fig4".into()),
            Some("fig4") => {}
            Some(other) => {
                return Err(format!(
                    "{flag} only applies to the fig4 sweep, not '{other}'"
                ))
            }
        }
    }
    Ok(args)
}

/// The `"experiments"` section of `BENCH_kernel.json`. `fig4_scaling` is
/// the fig4 sweep timed over the tick-jobs ladder (kernel-v7); it stays
/// the last field so the per-run scanners, which key on `"id"`, never see
/// its objects.
#[derive(Serialize)]
struct ExperimentsSection {
    scale: u64,
    seed: u64,
    jobs: u64,
    tick_jobs: u64,
    host_cores: u64,
    dense: bool,
    total_wall_seconds: f64,
    total_edges: u64,
    total_ticks: u64,
    total_skipped: u64,
    runs: Vec<ExperimentRun>,
    fig4_scaling: Vec<Fig4ScalingPoint>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.list {
        // Annotate each experiment with the committed ledger's recorded
        // sparse-skip fraction, fast-forwarded (elided) cycles, and the
        // parallel-path counters (computed edge-ticks, retick fraction,
        // serial fallbacks), when a committed ledger exists.
        let activity = std::fs::read_to_string(ledger::committed_path())
            .map(|doc| ledger::experiment_activity(&doc))
            .unwrap_or_default();
        println!(
            "{:<14} {:>9} {:>6} {:>10} {:>9} {:>7} {:>8}  description",
            "experiment", "~scale-1", "skip%", "ff-cycles", "par-ticks", "retick%", "fallback"
        );
        for desc in EXPERIMENT_REGISTRY {
            let (skip, ff, par, retick, fallback) = match activity.iter().find(|a| a.id == desc.id)
            {
                Some(a) => (
                    format!("{:.0}%", a.skip_fraction() * 100.0),
                    si_u64(a.ff_elided),
                    si_u64(a.par_computed),
                    format!("{:.2}%", a.retick_fraction() * 100.0),
                    si_u64(a.par_fallback_audit + a.par_fallback_small),
                ),
                None => ("-".into(), "-".into(), "-".into(), "-".into(), "-".into()),
            };
            println!(
                "{:<14} {:>9} {skip:>6} {ff:>10} {par:>9} {retick:>7} {fallback:>8}  {}",
                desc.id, desc.runtime, desc.description
            );
        }
        return ExitCode::SUCCESS;
    }
    if args.dense {
        // Escape hatch: run every simulation with the dense (tick-
        // everything) scheduler, e.g. to cross-check the sparse tables.
        mpsoc_kernel::set_dense_default(true);
    }
    // Explicit worker counts beyond the host's cores are honoured (the
    // user may be chasing an oversubscription bug on purpose), but warned
    // about: the resulting timings measure scheduler thrash, not the code,
    // and the automatic scaling recorders clamp instead.
    let cores = host_cores();
    if (args.jobs as u64) > cores {
        eprintln!(
            "warning: --jobs {} exceeds this host's {cores} core(s); timings will \
             measure oversubscription, not scaling",
            args.jobs
        );
    }
    if (args.tick_jobs as u64) > cores {
        eprintln!(
            "warning: --tick-jobs {} exceeds this host's {cores} core(s); timings will \
             measure oversubscription, not scaling (tables stay byte-identical)",
            args.tick_jobs
        );
    }
    if args.tick_jobs > 1 {
        // Every simulation the experiments build (via PlatformBuilder)
        // picks this up at construction; tables stay byte-identical to a
        // serial run by the kernel's commit-phase determinism guarantee.
        mpsoc_kernel::set_tick_jobs_default(args.tick_jobs);
    }
    if let Some(quantum) = args.fast_gear {
        // Every simulation built from here on starts in the loosely-timed
        // gear. Tables become approximate for quantum > 1; quantum 1 is
        // byte-identical to cycle-accurate by the kernel's degenerate-gear
        // identity (ci.sh asserts it).
        mpsoc_kernel::set_fidelity_default(mpsoc_kernel::Fidelity::Fast { quantum });
    }
    if let (Some(every), Some(target)) = (args.checkpoint_every_ns, args.rewind_to_ns) {
        return time_travel(&args, every, target);
    }
    if args.warm_fork {
        return warm_fork(&args);
    }
    if args.fast_warm {
        return fast_warm(&args);
    }
    if args.exp.as_deref() == Some("dse") {
        set_dse_options(DseOptions {
            checkpoint_path: args.dse_checkpoint.clone(),
            checkpoint_every: args.dse_checkpoint_every,
            stop_after: args.dse_stop_after,
            resume: args.dse_resume,
        });
    }
    let ids: Vec<&str> = match &args.exp {
        Some(one) => vec![one.as_str()],
        None => experiment_ids(),
    };
    println!(
        "reproducing {} experiment(s), scale {}, seed {:#x}, jobs {}, tick-jobs {}{}\n",
        ids.len(),
        args.scale,
        args.seed,
        args.jobs,
        args.tick_jobs,
        match args.fast_gear {
            Some(quantum) => format!(", fast-gear quantum {quantum}"),
            None => String::new(),
        }
    );
    let mut runs: Vec<ExperimentRun> = Vec::with_capacity(ids.len());
    for id in ids {
        match measure_experiment(id, args.scale, args.seed, args.jobs) {
            Ok(run) => {
                println!("{}", run.table);
                println!("{}\n", run.perf_line());
                runs.push(run);
            }
            Err(e) => {
                eprintln!("experiment {id} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // A full-suite ledger refresh also times the fig4 sweep over the
    // tick-jobs ladder (the end-to-end face of the per-jobs scaling
    // curve); single-experiment runs skip it to stay fast.
    let fig4_scaling = if args.bench_out && args.exp.is_none() {
        match measure_fig4_scaling(args.scale, args.seed, args.tick_jobs) {
            Ok(run) => {
                let points: Vec<String> = run
                    .points
                    .iter()
                    .map(|p| format!("{}j {:.2}x", p.jobs, p.speedup))
                    .collect();
                println!(
                    "fig4 tick-jobs scaling (tables byte-identical): {}",
                    points.join(", ")
                );
                run.points
            }
            Err(e) => {
                eprintln!("fig4 scaling measurement failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        Vec::new()
    };

    let section = ExperimentsSection {
        scale: args.scale,
        seed: args.seed,
        jobs: args.jobs as u64,
        tick_jobs: args.tick_jobs as u64,
        host_cores: host_cores(),
        dense: args.dense,
        total_wall_seconds: runs.iter().map(|r| r.wall_seconds).sum(),
        total_edges: runs.iter().map(|r| r.edges).sum(),
        total_ticks: runs.iter().map(|r| r.ticks).sum(),
        total_skipped: runs.iter().map(|r| r.skipped).sum(),
        runs,
        fig4_scaling,
    };
    println!(
        "total: {} edges, {} sim cycles ({} skipped) in {:.2}s host time",
        section.total_edges, section.total_ticks, section.total_skipped, section.total_wall_seconds
    );
    let dse_run = take_dse_run();
    if args.bench_out {
        let path = args
            .bench_out_path
            .clone()
            .unwrap_or_else(ledger::default_path);
        match ledger::update_section(&path, "experiments", &section.to_json()) {
            Ok(()) => println!("perf ledger updated: {}", path.display()),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        // A completed dse run carries its own ledger section (an
        // interrupted --dse-stop-after run records nothing).
        if let Some(run) = &dse_run {
            if let Err(e) = ledger::update_section(&path, "dse", &run.to_json()) {
                eprintln!("failed to write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(baseline) = &args.check_bench {
        return check_bench(baseline, &section.runs, &args);
    }
    ExitCode::SUCCESS
}

/// Runs the `--warm-fork` measurement and records its ledger section.
fn warm_fork(args: &Args) -> ExitCode {
    println!(
        "fig4 warm-fork, scale {}, seed {:#x}, jobs {}\n",
        args.scale, args.seed, args.jobs
    );
    let run = match measure_warm_fork(args.scale, args.seed, args.jobs) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("warm-fork failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", run.table);
    println!("{}", run.perf_line());
    if args.bench_out {
        let path = args
            .bench_out_path
            .clone()
            .unwrap_or_else(ledger::default_path);
        match ledger::update_section(&path, "warm_fork", &run.to_json()) {
            Ok(()) => println!("perf ledger updated: {}", path.display()),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(baseline) = &args.check_bench {
        return check_warm_fork(baseline);
    }
    ExitCode::SUCCESS
}

/// Runs the `--fast-warm` measurement and records its ledger section.
fn fast_warm(args: &Args) -> ExitCode {
    println!(
        "fig4 fast-warm (loosely-timed warm phase), scale {}, seed {:#x}, jobs {}\n",
        args.scale, args.seed, args.jobs
    );
    let run = match measure_fast_forward(args.scale, args.seed, args.jobs) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("fast-warm failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", run.table);
    println!("{}", run.perf_line());
    if args.bench_out {
        let path = args
            .bench_out_path
            .clone()
            .unwrap_or_else(ledger::default_path);
        match ledger::update_section(&path, "fast_forward", &run.to_json()) {
            Ok(()) => println!("perf ledger updated: {}", path.display()),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(baseline) = &args.check_bench {
        return check_fast_forward(baseline);
    }
    ExitCode::SUCCESS
}

/// Runs the time-travel debug harness for one experiment.
fn time_travel(args: &Args, every_ns: u64, rewind_ns: u64) -> ExitCode {
    let id = args.exp.as_deref().expect("validated in parse_args");
    match timetravel::time_travel(id, args.scale, args.seed, every_ns, rewind_ns) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("time travel failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Maximum tolerated throughput drop against the baseline ledger before
/// [`check_bench`] fails the run: 30 %, generous enough to absorb host
/// noise while still catching real scheduler regressions.
const MAX_REGRESSION: f64 = 0.30;

/// Minimum cold/fork speedup the `"warm_fork"` ledger section must show
/// for [`check_warm_fork`] to pass: forking a warm checkpoint has to beat
/// re-simulating the warm-up prefix by a clear margin, or the snapshot
/// subsystem has regressed.
const MIN_WARM_FORK_SPEEDUP: f64 = 1.5;

/// Minimum sparse-vs-dense speedup the `"sparse"` ledger section (the
/// idle-heavy `kernel_hotpath` case) must show for [`check_bench`] to
/// pass: skipping quiescent components has to beat ticking them by a
/// clear margin where idleness dominates, or sparse scheduling has
/// regressed into bookkeeping overhead.
const MIN_SPARSE_SPEEDUP: f64 = 1.3;

/// Minimum serial-vs-parallel speedup the `"parallel"` ledger section (the
/// compute-heavy `kernel_hotpath` case at 4 worker threads) must show for
/// [`check_bench`] to pass — *when the recording host actually had the
/// cores to run the workers*. A ledger recorded on a box with fewer cores
/// than tick jobs only warns: the floor is a property of the scheduler,
/// not of an oversubscribed host.
const MIN_PARALLEL_SPEEDUP: f64 = 1.5;

/// Minimum speedup the jobs = 8 point of the `"parallel"` section's
/// scaling curve must show for [`check_bench`] to pass — the headline
/// number of the sharded-active-set scheduler on the compute-heavy
/// microbench. Core-gated on 8 recorded host cores: a curve recorded on a
/// smaller box only warns.
const MIN_PARALLEL_SPEEDUP_8: f64 = 3.0;

/// Minimum speedup the jobs = 8 point of the `"experiments"` section's
/// `fig4_scaling` curve must show for [`check_bench`] to pass: the
/// end-to-end paper sweep is lighter per edge than the microbench, so the
/// bar is only "parallel ticking must not lose to serial". Core-gated on
/// 8 recorded host cores.
const MIN_FIG4_SCALING_SPEEDUP: f64 = 1.01;

/// Maximum fraction of parallel-computed edge-ticks that may be thrown
/// away and re-run serially (stats-registration or RNG-divergence
/// aborts) before [`check_bench`] fails the live run: reticks are pure
/// waste, and pre-registered metrics plus speculative RNG substreams are
/// supposed to have eliminated them on the paper experiments.
const MAX_RETICK_FRACTION: f64 = 0.01;

/// Minimum p50 miss/hit latency ratio the `"server"` ledger section must
/// show for [`check_bench`] to pass — *when the recording host had more
/// than one core*. A warm-cache hit skips the warm-up simulation entirely,
/// so it has to be measurably faster than a miss; on a single-core host
/// the loadgen lanes and the server's warm-up contend for the same CPU and
/// the latency split is noise, so the floor downgrades to a warning there
/// (the hit-rate floor still applies — correctness of the cache is not a
/// core-count property).
const MIN_SERVER_HIT_SPEEDUP: f64 = 1.2;

/// Maximum ratio a restarted server's first-request latency may bear to
/// the steady-state p50 hit latency for [`check_bench`] to pass: the disk
/// spill exists precisely so a fresh process answers its first request
/// from a warm fork instead of re-warming, so the restart figure must sit
/// near a hit, not near a cold start. Downgraded to a warning when the
/// recording host had fewer than 2 cores (the restart leg's process churn
/// and the simulator contend for one CPU there).
const MAX_WARM_RESTART_RATIO: f64 = 2.0;

/// Minimum speedup the connections = 8 point of the `"server"` section's
/// `conn_scaling` curve must keep over the single-connection baseline:
/// the connection layer must not *lose* throughput as
/// closed-loop clients are added (perfect scaling is not expected — the
/// warm cache makes the workload latency-bound — but a collapse below
/// 0.9x means connection handling itself is serializing). Core-gated on
/// 8 recorded host cores.
const MIN_CONN_SCALING_8: f64 = 0.9;

/// Minimum Pareto-front size the `"dse"` ledger section must record for
/// [`check_bench`] to pass: a front that collapses below this many
/// non-dominated points means the explorer stopped surfacing real
/// throughput/latency/cost trade-offs. A correctness property — never
/// core-gated.
const MIN_DSE_FRONT: u64 = 3;

/// Minimum number of distinct fabric families the recorded Pareto front
/// must span: a single-family front means the search degenerated into a
/// parameter sweep of one topology. Also never core-gated.
const MIN_DSE_FAMILIES: u64 = 2;

/// Minimum serial-vs-fanned-out search speedup the `"dse"` ledger
/// section must show for [`check_bench`] to pass — *when the recording
/// run fanned out at all (`jobs` >= 2) and the host had a second core to
/// fan out onto*. The candidate evaluations are independent simulations,
/// so the fan-out has to buy real wall time or `parallel_map` has
/// regressed.
const MIN_DSE_FANOUT_SPEEDUP: f64 = 1.2;

/// Minimum cycle-vs-fast warm-phase speedup the `"fast_forward"` ledger
/// section must show for [`check_bench`] / [`check_fast_forward`] to
/// pass: at the default quantum the loosely-timed gear has to beat
/// cycle-accurate simulation of the same warm phase by a clear margin, or
/// temporal decoupling has regressed into window bookkeeping. The floor is
/// a single-threaded property (the warm phases are always timed serially).
const MIN_FAST_FORWARD_SPEEDUP: f64 = 3.0;

/// Formats a count with an SI suffix for the `--list` table.
fn si_u64(n: u64) -> String {
    if n >= 1_000_000_000 {
        format!("{:.1}G", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.1}k", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

/// The number of hardware threads available to this process.
fn host_cores() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// Re-measurements granted to an experiment whose first sample lands below
/// the regression floor before it is declared regressed. The smallest
/// experiments finish in single-digit milliseconds, where one scheduler
/// hiccup on the host halves the measured rate; a real regression fails
/// every sample, noise does not.
const CHECK_RETRIES: usize = 2;

/// Compares the measured edges/sec of `runs` against the ledger at
/// `baseline`. Experiments missing from the baseline (newly added ones)
/// are reported but never fail the check.
fn check_bench(baseline: &std::path::Path, runs: &[ExperimentRun], args: &Args) -> ExitCode {
    let doc = match std::fs::read_to_string(baseline) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("cannot read bench baseline {}: {e}", baseline.display());
            return ExitCode::FAILURE;
        }
    };
    let rates = ledger::experiment_rates(&doc);
    if rates.is_empty() {
        eprintln!(
            "bench baseline {} has no experiments section",
            baseline.display()
        );
        return ExitCode::FAILURE;
    }
    let mut regressed = false;
    for run in runs {
        let Some((_, base)) = rates.iter().find(|(id, _)| id == &run.id) else {
            println!("[check {:<14} no baseline — skipped]", run.id);
            continue;
        };
        let floor = base.max(1e-9) * (1.0 - MAX_REGRESSION);
        let mut rate = run.edges_per_sec;
        let mut retried = 0;
        while rate < floor && retried < CHECK_RETRIES {
            retried += 1;
            match measure_experiment(&run.id, args.scale, args.seed, args.jobs) {
                Ok(again) => rate = rate.max(again.edges_per_sec),
                Err(e) => {
                    eprintln!("re-measuring {} failed: {e}", run.id);
                    break;
                }
            }
        }
        let ok = rate >= floor;
        println!(
            "[check {:<14} {:>10.0} vs baseline {:>10.0} edges/s — {}{}]",
            run.id,
            rate,
            base,
            if ok { "ok" } else { "REGRESSED" },
            if retried > 0 {
                format!(" ({retried} retry)")
            } else {
                String::new()
            }
        );
        if !ok {
            regressed = true;
        }
    }
    match ledger::sparse_speedup(&doc) {
        Some(speedup) if speedup >= MIN_SPARSE_SPEEDUP => {
            println!("[check sparse speedup {speedup:.2}x >= {MIN_SPARSE_SPEEDUP}x — ok]");
        }
        Some(speedup) => {
            eprintln!(
                "sparse check failed: idle-heavy speedup {speedup:.2}x below the \
                 {MIN_SPARSE_SPEEDUP}x floor in {}",
                baseline.display()
            );
            regressed = true;
        }
        None => {
            eprintln!(
                "sparse check failed: {} has no sparse section (run \
                 `cargo bench -p mpsoc-bench --bench kernel_hotpath -- --committed`)",
                baseline.display()
            );
            regressed = true;
        }
    }
    match ledger::parallel_speedup(&doc) {
        Some(speedup) => {
            let cores = ledger::parallel_host_cores(&doc);
            let jobs = ledger::parallel_tick_jobs(&doc);
            match ledger::core_gated_floor(speedup, MIN_PARALLEL_SPEEDUP, cores, jobs) {
                ledger::FloorVerdict::Met => {
                    println!(
                        "[check parallel speedup {speedup:.2}x >= {MIN_PARALLEL_SPEEDUP}x — ok]"
                    );
                }
                ledger::FloorVerdict::Ungated => {
                    // The recording host could not physically run the
                    // workers side by side; the measurement is still
                    // byte-identity-checked, just not a speedup sample.
                    println!(
                        "[check parallel speedup {speedup:.2}x below {MIN_PARALLEL_SPEEDUP}x, \
                         but recorded host_cores {} < requested tick_jobs {} — \
                         warning only]",
                        cores.expect("ungated implies recorded"),
                        jobs.expect("ungated implies recorded"),
                    );
                }
                ledger::FloorVerdict::Missed => {
                    eprintln!(
                        "parallel check failed: speedup {speedup:.2}x below the \
                         {MIN_PARALLEL_SPEEDUP}x floor in {} (recorded host_cores {}, \
                         requested tick_jobs {})",
                        baseline.display(),
                        cores.map_or_else(|| "unknown".into(), |c| c.to_string()),
                        jobs.map_or_else(|| "unknown".into(), |j| j.to_string()),
                    );
                    regressed = true;
                }
            }
        }
        None => {
            eprintln!(
                "parallel check failed: {} has no parallel section (run \
                 `cargo bench -p mpsoc-bench --bench kernel_hotpath -- --committed`)",
                baseline.display()
            );
            regressed = true;
        }
    }
    if let (Some(jobs), cores) = (ledger::parallel_tick_jobs(&doc), host_cores()) {
        if cores < jobs {
            println!(
                "[note: this host has {cores} core(s), baseline parallel section used \
                 {jobs} jobs — live parallel re-measurement would not be meaningful]"
            );
        }
    }
    if !check_scaling_doc(&doc, baseline) {
        regressed = true;
    }
    if !check_retick_fraction(runs) {
        regressed = true;
    }
    if !check_fast_forward_doc(&doc, baseline, Some(args)) {
        regressed = true;
    }
    if !check_server_doc(&doc, baseline) {
        regressed = true;
    }
    if !check_dse_doc(&doc, baseline) {
        regressed = true;
    }
    if regressed {
        eprintln!(
            "bench check failed: throughput dropped more than {:.0}% vs {} \
             or a speedup floor was missed",
            MAX_REGRESSION * 100.0,
            baseline.display()
        );
        return ExitCode::FAILURE;
    }
    println!(
        "bench check passed (threshold {:.0}%)",
        MAX_REGRESSION * 100.0
    );
    ExitCode::SUCCESS
}

/// Enforces the kernel-v7 per-jobs scaling curves: the `"parallel"`
/// section's `scaling` array must carry a jobs = 8 point at or above
/// [`MIN_PARALLEL_SPEEDUP_8`], and the `"experiments"` section's
/// `fig4_scaling` array a jobs = 8 point at or above
/// [`MIN_FIG4_SCALING_SPEEDUP`]. Both floors are core-gated on 8 recorded
/// host cores (byte-identity across the ladder is asserted by the
/// recorders themselves, so an undersized host still proves correctness —
/// just not speed). Missing curves fail outright: a v7 ledger without
/// them was recorded by a stale toolchain. Returns whether both pass.
fn check_scaling_doc(doc: &str, baseline: &std::path::Path) -> bool {
    let mut ok = true;
    let curve = ledger::parallel_scaling(doc);
    match curve.iter().find(|p| p.jobs == 8) {
        Some(point) => {
            let cores = ledger::parallel_host_cores(doc);
            match ledger::core_gated_floor(point.speedup, MIN_PARALLEL_SPEEDUP_8, cores, Some(8)) {
                ledger::FloorVerdict::Met => {
                    println!(
                        "[check parallel scaling @8 jobs {:.2}x >= \
                         {MIN_PARALLEL_SPEEDUP_8}x — ok]",
                        point.speedup
                    );
                }
                ledger::FloorVerdict::Ungated => {
                    println!(
                        "[check parallel scaling @8 jobs {:.2}x below \
                         {MIN_PARALLEL_SPEEDUP_8}x, but recorded host_cores {} < 8 — \
                         warning only]",
                        point.speedup,
                        cores.expect("ungated implies recorded"),
                    );
                }
                ledger::FloorVerdict::Missed => {
                    eprintln!(
                        "scaling check failed: parallel speedup @8 jobs {:.2}x below the \
                         {MIN_PARALLEL_SPEEDUP_8}x floor in {} (recorded host_cores {})",
                        point.speedup,
                        baseline.display(),
                        cores.map_or_else(|| "unknown".into(), |c| c.to_string()),
                    );
                    ok = false;
                }
            }
        }
        None => {
            eprintln!(
                "scaling check failed: {} has no jobs=8 point in the parallel scaling \
                 curve (run `cargo bench -p mpsoc-bench --bench kernel_hotpath -- \
                 --committed`)",
                baseline.display()
            );
            ok = false;
        }
    }
    let fig4 = ledger::fig4_scaling(doc);
    match fig4.iter().find(|p| p.jobs == 8) {
        Some(point) => {
            let cores = ledger::experiments_host_cores(doc);
            match ledger::core_gated_floor(point.speedup, MIN_FIG4_SCALING_SPEEDUP, cores, Some(8))
            {
                ledger::FloorVerdict::Met => {
                    println!(
                        "[check fig4 scaling @8 jobs {:.2}x > 1x — ok]",
                        point.speedup
                    );
                }
                ledger::FloorVerdict::Ungated => {
                    println!(
                        "[check fig4 scaling @8 jobs {:.2}x below \
                         {MIN_FIG4_SCALING_SPEEDUP}x, but recorded host_cores {} < 8 — \
                         warning only]",
                        point.speedup,
                        cores.expect("ungated implies recorded"),
                    );
                }
                ledger::FloorVerdict::Missed => {
                    eprintln!(
                        "scaling check failed: fig4 speedup @8 jobs {:.2}x below the \
                         {MIN_FIG4_SCALING_SPEEDUP}x floor in {} (recorded host_cores {})",
                        point.speedup,
                        baseline.display(),
                        cores.map_or_else(|| "unknown".into(), |c| c.to_string()),
                    );
                    ok = false;
                }
            }
        }
        None => {
            eprintln!(
                "scaling check failed: {} has no jobs=8 point in the fig4 scaling curve \
                 (run `repro --bench-out <path>` for the full suite)",
                baseline.display()
            );
            ok = false;
        }
    }
    ok
}

/// Enforces [`MAX_RETICK_FRACTION`] on the *live* runs just measured: when
/// the suite took the parallel path at all, the fraction of computed
/// edge-ticks that had to be thrown away and re-run serially must stay
/// under 1 %. A serial run (`par_computed == 0` everywhere) passes
/// trivially. Returns whether the check passes.
fn check_retick_fraction(runs: &[ExperimentRun]) -> bool {
    let computed: u64 = runs.iter().map(|r| r.par_computed).sum();
    let reticked: u64 = runs.iter().map(|r| r.par_reticked).sum();
    if computed == 0 {
        return true;
    }
    let fraction = reticked as f64 / computed as f64;
    if fraction < MAX_RETICK_FRACTION {
        println!(
            "[check parallel reticks {reticked} / {computed} computed ({:.3}%) < \
             {:.0}% — ok]",
            fraction * 100.0,
            MAX_RETICK_FRACTION * 100.0
        );
        true
    } else {
        eprintln!(
            "retick check failed: {reticked} of {computed} parallel-computed edge-ticks \
             ({:.2}%) were thrown away and re-run serially (floor {:.0}%) — a component \
             is minting stats ids or drawing unannounced RNG inside parallel ticks",
            fraction * 100.0,
            MAX_RETICK_FRACTION * 100.0
        );
        false
    }
}

/// Enforces the `"server"` ledger section: it must exist (the sweep server
/// is part of the benchmarked surface), record a nonzero warm-cache hit
/// rate (a duplicate-heavy mix that never hits means the cache is broken),
/// and show at least [`MIN_SERVER_HIT_SPEEDUP`] between p50 miss and p50
/// hit latency — downgraded to a warning when the recording host had fewer
/// than 2 cores. Returns whether the section passes.
fn check_server_doc(doc: &str, baseline: &std::path::Path) -> bool {
    let Some(hit_rate) = ledger::server_hit_rate(doc) else {
        eprintln!(
            "server check failed: {} has no server section (start `simserved` and run \
             `loadgen --bench-out <path>`)",
            baseline.display()
        );
        return false;
    };
    if hit_rate <= 0.0 {
        eprintln!(
            "server check failed: {} records a zero warm-cache hit rate for the \
             duplicate-heavy loadgen mix — the checkpoint cache is not being reused",
            baseline.display()
        );
        return false;
    }
    let rps = ledger::server_requests_per_sec(doc).unwrap_or(0.0);
    let base_ok = match ledger::server_hit_speedup(doc) {
        Some(speedup) => {
            let cores = ledger::server_host_cores(doc);
            // A hit must beat a miss wherever client and server can
            // actually run side by side: the floor needs 2 cores.
            match ledger::core_gated_floor(speedup, MIN_SERVER_HIT_SPEEDUP, cores, Some(2)) {
                ledger::FloorVerdict::Met => {
                    println!(
                        "[check server hit rate {hit_rate:.2}, {rps:.1} req/s, hit speedup \
                         {speedup:.2}x >= {MIN_SERVER_HIT_SPEEDUP}x — ok]"
                    );
                    true
                }
                ledger::FloorVerdict::Ungated => {
                    println!(
                        "[check server hit rate {hit_rate:.2}, {rps:.1} req/s, hit speedup \
                         {speedup:.2}x below {MIN_SERVER_HIT_SPEEDUP}x, but recorded \
                         host_cores {} < 2 — warning only]",
                        cores.expect("ungated implies recorded"),
                    );
                    true
                }
                ledger::FloorVerdict::Missed => {
                    eprintln!(
                        "server check failed: hit speedup {speedup:.2}x below the \
                         {MIN_SERVER_HIT_SPEEDUP}x floor in {} (recorded host_cores {})",
                        baseline.display(),
                        cores.map_or_else(|| "unknown".into(), |c| c.to_string()),
                    );
                    false
                }
            }
        }
        None => {
            eprintln!(
                "server check failed: {} has a server section without a hit_speedup \
                 field",
                baseline.display()
            );
            false
        }
    };
    let v8_ok = check_server_v8_doc(doc, baseline);
    base_ok && v8_ok
}

/// Enforces the kernel-v8 server figures. Hard (never core-gated):
/// coalescing must have kept the recorded warm-up count within the mix's
/// distinct warm keys, and every v8 field must be present — a server
/// section without them was recorded by a stale toolchain. Core-gated:
/// the warm-restart first-request latency against
/// [`MAX_WARM_RESTART_RATIO`] x the steady-state p50 hit (needs 2 cores)
/// and the connections = 8 scaling point against [`MIN_CONN_SCALING_8`]
/// (needs 8). Returns whether the section passes.
fn check_server_v8_doc(doc: &str, baseline: &std::path::Path) -> bool {
    let mut ok = true;
    let cores = ledger::server_host_cores(doc);
    let (Some(warm_ups), Some(distinct_keys)) = (
        ledger::server_warm_ups(doc),
        ledger::server_distinct_keys(doc),
    ) else {
        eprintln!(
            "server check failed: {} has a server section without the kernel-v8 \
             coalescing fields (warm_ups/distinct_keys) — regenerate with \
             `loadgen --bench-out <path>`",
            baseline.display()
        );
        return false;
    };
    if warm_ups > distinct_keys {
        eprintln!(
            "server check failed: {warm_ups} warm-up(s) for {distinct_keys} distinct warm \
             key(s) in {} — request coalescing is not collapsing duplicate-key misses",
            baseline.display()
        );
        ok = false;
    } else {
        println!("[check server warm-ups {warm_ups} <= {distinct_keys} distinct warm keys — ok]");
    }
    match ledger::server_batch_speedup(doc) {
        // The batched/unbatched throughput split is recorded provenance,
        // not a floor: both runs are all-miss by construction, so on small
        // hosts the ratio is dominated by warm-up scheduling noise.
        Some(batch_speedup) => {
            println!("[check server batch speedup {batch_speedup:.2}x recorded — ok]");
        }
        None => {
            eprintln!(
                "server check failed: {} has a server section without a batch_speedup \
                 field",
                baseline.display()
            );
            ok = false;
        }
    }
    let cold = ledger::server_cold_start_first_micros(doc);
    match (
        ledger::server_warm_restart_first_micros(doc),
        ledger::server_p50_hit_micros(doc),
    ) {
        (Some(restart), Some(hit)) if hit > 0 => {
            let ratio = restart as f64 / hit as f64;
            let cold_note = cold.map_or_else(String::new, |c| format!(" (cold start {c}us)"));
            if ratio <= MAX_WARM_RESTART_RATIO {
                println!(
                    "[check server warm-restart first request {restart}us <= \
                     {MAX_WARM_RESTART_RATIO}x p50 hit {hit}us{cold_note} — ok]"
                );
            } else if cores.is_some_and(|c| c < 2) {
                println!(
                    "[check server warm-restart first request {restart}us above \
                     {MAX_WARM_RESTART_RATIO}x p50 hit {hit}us{cold_note}, but recorded \
                     host_cores {} < 2 — warning only]",
                    cores.expect("checked above"),
                );
            } else {
                eprintln!(
                    "server check failed: warm-restart first request {restart}us exceeds \
                     {MAX_WARM_RESTART_RATIO}x the p50 hit latency {hit}us in {} — the \
                     disk spill is not being served on restart",
                    baseline.display()
                );
                ok = false;
            }
        }
        _ => {
            eprintln!(
                "server check failed: {} has a server section without the \
                 warm_restart_first_micros/p50_hit_micros fields (run the loadgen \
                 restart leg: `loadgen --restart-leg --bench-out <path>`)",
                baseline.display()
            );
            ok = false;
        }
    }
    let curve = ledger::server_conn_scaling(doc);
    match curve.iter().find(|p| p.connections == 8) {
        Some(point) => {
            match ledger::core_gated_floor(point.speedup, MIN_CONN_SCALING_8, cores, Some(8)) {
                ledger::FloorVerdict::Met => {
                    println!(
                        "[check server conn scaling @8 connections {:.2}x >= \
                         {MIN_CONN_SCALING_8}x — ok]",
                        point.speedup
                    );
                }
                ledger::FloorVerdict::Ungated => {
                    println!(
                        "[check server conn scaling @8 connections {:.2}x below \
                         {MIN_CONN_SCALING_8}x, but recorded host_cores {} < 8 — \
                         warning only]",
                        point.speedup,
                        cores.expect("ungated implies recorded"),
                    );
                }
                ledger::FloorVerdict::Missed => {
                    eprintln!(
                        "server check failed: conn scaling @8 connections {:.2}x below \
                         the {MIN_CONN_SCALING_8}x floor in {} (recorded host_cores {}) — \
                         the connection layer is serializing under load",
                        point.speedup,
                        baseline.display(),
                        cores.map_or_else(|| "unknown".into(), |c| c.to_string()),
                    );
                    ok = false;
                }
            }
        }
        None => {
            eprintln!(
                "server check failed: {} has no connections=8 point in the conn_scaling \
                 curve (regenerate with `loadgen --bench-out <path>`)",
                baseline.display()
            );
            ok = false;
        }
    }
    ok
}

/// Enforces the `"dse"` ledger section: it must exist (the design-space
/// explorer is part of the benchmarked surface), record a non-degenerate
/// Pareto front (at least [`MIN_DSE_FRONT`] points spanning at least
/// [`MIN_DSE_FAMILIES`] fabric families — both correctness properties,
/// never core-gated), and show at least [`MIN_DSE_FANOUT_SPEEDUP`]
/// between the serial and fanned-out search — a floor that only arms
/// when the recording run actually fanned out (`jobs` >= 2) on a host
/// with at least 2 cores. Returns whether the section passes.
fn check_dse_doc(doc: &str, baseline: &std::path::Path) -> bool {
    let Some(front_size) = ledger::dse_front_size(doc) else {
        eprintln!(
            "dse check failed: {} has no dse section (run \
             `repro --exp dse --bench-out <path>`)",
            baseline.display()
        );
        return false;
    };
    let families = ledger::dse_families(doc).unwrap_or(0);
    if front_size < MIN_DSE_FRONT || families < MIN_DSE_FAMILIES {
        eprintln!(
            "dse check failed: {} records a degenerate Pareto front \
             ({front_size} point(s) over {families} fabric family(ies); need >= \
             {MIN_DSE_FRONT} over >= {MIN_DSE_FAMILIES}) — the search is no longer \
             finding real trade-offs",
            baseline.display()
        );
        return false;
    }
    let jobs = ledger::dse_jobs(doc).unwrap_or(1);
    let Some(speedup) = ledger::dse_fanout_speedup(doc) else {
        eprintln!(
            "dse check failed: {} has a dse section without a fanout_speedup field",
            baseline.display()
        );
        return false;
    };
    if jobs < 2 {
        // A serial recording never measured a fan-out; the front checks
        // above are the whole verdict.
        println!(
            "[check dse front {front_size} points / {families} families — ok \
             (serial recording, fan-out floor not armed)]"
        );
        return true;
    }
    let cores = ledger::dse_host_cores(doc);
    match ledger::core_gated_floor(speedup, MIN_DSE_FANOUT_SPEEDUP, cores, Some(2)) {
        ledger::FloorVerdict::Met => {
            println!(
                "[check dse front {front_size} points / {families} families, fanout \
                 speedup {speedup:.2}x >= {MIN_DSE_FANOUT_SPEEDUP}x — ok]"
            );
            true
        }
        ledger::FloorVerdict::Ungated => {
            println!(
                "[check dse front {front_size} points / {families} families, fanout \
                 speedup {speedup:.2}x below {MIN_DSE_FANOUT_SPEEDUP}x, but recorded \
                 host_cores {} < 2 — warning only]",
                cores.expect("ungated implies recorded"),
            );
            true
        }
        ledger::FloorVerdict::Missed => {
            eprintln!(
                "dse check failed: fanout speedup {speedup:.2}x below the \
                 {MIN_DSE_FANOUT_SPEEDUP}x floor in {} (recorded jobs {jobs}, \
                 host_cores {})",
                baseline.display(),
                cores.map_or_else(|| "unknown".into(), |c| c.to_string()),
            );
            false
        }
    }
}

/// Enforces the warm-fork speedup floor against the ledger at `baseline`:
/// its `"warm_fork"` section must exist and show at least
/// [`MIN_WARM_FORK_SPEEDUP`].
fn check_warm_fork(baseline: &std::path::Path) -> ExitCode {
    let doc = match std::fs::read_to_string(baseline) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("cannot read bench baseline {}: {e}", baseline.display());
            return ExitCode::FAILURE;
        }
    };
    match ledger::warm_fork_speedup(&doc) {
        Some(speedup) if speedup >= MIN_WARM_FORK_SPEEDUP => {
            println!("[check warm-fork speedup {speedup:.2}x >= {MIN_WARM_FORK_SPEEDUP}x — ok]");
            ExitCode::SUCCESS
        }
        Some(speedup) => {
            eprintln!(
                "warm-fork check failed: speedup {speedup:.2}x below the \
                 {MIN_WARM_FORK_SPEEDUP}x floor in {}",
                baseline.display()
            );
            ExitCode::FAILURE
        }
        None => {
            eprintln!(
                "warm-fork check failed: {} has no warm_fork section",
                baseline.display()
            );
            ExitCode::FAILURE
        }
    }
}

/// Enforces the fast-forward gear's floors against the ledger at
/// `baseline`: its `"fast_forward"` section must exist, record a
/// `quantum = 1` sweep byte-identical to cycle-accurate, and show at least
/// [`MIN_FAST_FORWARD_SPEEDUP`] at the default quantum.
fn check_fast_forward(baseline: &std::path::Path) -> ExitCode {
    let doc = match std::fs::read_to_string(baseline) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("cannot read bench baseline {}: {e}", baseline.display());
            return ExitCode::FAILURE;
        }
    };
    if check_fast_forward_doc(&doc, baseline, None) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Shared body of the fast-forward ledger checks; returns whether the
/// section passes. When `args` is given, a below-floor recorded speedup is
/// granted [`CHECK_RETRIES`] live re-measurements (the live sample must
/// clear the same floor) before the check fails — matching the noise
/// policy of the per-experiment throughput floors.
fn check_fast_forward_doc(doc: &str, baseline: &std::path::Path, args: Option<&Args>) -> bool {
    match ledger::fast_forward_q1_identical(doc) {
        Some(true) => {}
        Some(false) => {
            eprintln!(
                "fast-forward check failed: {} records a quantum-1 sweep that DIVERGED \
                 from cycle-accurate — a correctness regression, not a perf one",
                baseline.display()
            );
            return false;
        }
        None => {
            eprintln!(
                "fast-forward check failed: {} has no fast_forward section (run \
                 `repro --fast-warm --bench-out <path>`)",
                baseline.display()
            );
            return false;
        }
    }
    let quantum = ledger::fast_forward_quantum(doc).unwrap_or(0);
    match ledger::fast_forward_speedup(doc) {
        Some(speedup) if speedup >= MIN_FAST_FORWARD_SPEEDUP => {
            println!(
                "[check fast-forward q={quantum} speedup {speedup:.2}x >= \
                 {MIN_FAST_FORWARD_SPEEDUP}x, q=1 identical — ok]"
            );
            true
        }
        Some(speedup) => {
            let mut best = speedup;
            let mut retried = 0;
            if let Some(args) = args {
                while best < MIN_FAST_FORWARD_SPEEDUP && retried < CHECK_RETRIES {
                    retried += 1;
                    match measure_fast_forward(args.scale, args.seed, args.jobs) {
                        Ok(again) => best = best.max(again.speedup),
                        Err(e) => {
                            eprintln!("re-measuring fast-forward failed: {e}");
                            break;
                        }
                    }
                }
            }
            if best >= MIN_FAST_FORWARD_SPEEDUP {
                println!(
                    "[check fast-forward q={quantum} speedup {best:.2}x >= \
                     {MIN_FAST_FORWARD_SPEEDUP}x, q=1 identical — ok ({retried} retry)]"
                );
                true
            } else {
                eprintln!(
                    "fast-forward check failed: warm-phase speedup {best:.2}x below the \
                     {MIN_FAST_FORWARD_SPEEDUP}x floor in {}",
                    baseline.display()
                );
                false
            }
        }
        None => {
            eprintln!(
                "fast-forward check failed: {} has a fast_forward section without a \
                 speedup field",
                baseline.display()
            );
            false
        }
    }
}
