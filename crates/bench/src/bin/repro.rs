//! `repro` — regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```bash
//! repro                      # all experiments at the default scale
//! repro --exp fig5           # one experiment
//! repro --scale 8 --seed 42  # bigger workload, different seed
//! repro --jobs 4             # parallel sweep points inside fig4 / many-to-many
//! repro --list               # list experiment ids with descriptions
//! repro --fast-warm                     # loosely-timed warm phase: speedup vs error
//! repro --exp fig3 --fast-gear 1        # run in the fast gear (q=1: identical tables)
//! repro --exp fig4 --checkpoint-every 500 --rewind-to 2000   # time travel
//! repro --exp dse                       # design-space exploration (Pareto front)
//! repro --exp dse --dse-checkpoint f.bin --dse-checkpoint-every 1   # resumable
//! repro --exp dse --dse-checkpoint f.bin --dse-resume               # resume it
//! repro --bench-out <path>   # record the measurements in a perf ledger
//! ```
//!
//! Experiments always run one at a time and print in a fixed order, so the
//! tables are byte-identical for any `--jobs` value; `--jobs` only fans the
//! independent simulation instances *inside* the sweep-shaped experiments
//! out to worker threads; every simulation ticks its edges serially. Each
//! experiment is followed by a host-side throughput line (scheduler edges/sec and simulated component-cycles/sec,
//! from the kernel activity measured around it). `--bench-out` records the
//! measurements in a machine-readable ledger (the committed one is
//! `BENCH_kernel.json` at the repo root); without it a run writes no file.
//! The ledger's `"experiments"` section is the whole suite's, so only a
//! full-suite run writes it; `--exp <id> --bench-out` is refused for every
//! id but `dse`, which records its own section.
//!
//! `--fast-warm` runs the EXT-FAST study instead of the experiments: the
//! fig4 warm phase once per fast-forward quantum, each finished by
//! cycle-accurate tails, reporting warm-phase speedup and worst per-cell
//! error per quantum. Every run judges its default-quantum headline
//! against the ledger's `"fast_forward"` floor rows — the quantum-1 byte
//! identity and the speedup floor — re-measuring a miss up to twice and
//! exiting 1 if it persists; `--bench-out`
//! also records it as the ledger's `"fast_forward"` section.
//! `--fast-gear QUANTUM` runs the experiments with every simulation in the
//! loosely-timed gear — tables are approximate for quantum > 1 and
//! byte-identical to cycle-accurate at quantum 1. The runners that set
//! their own gear (`dse` per rung, `fidelity` / `--fast-warm` per row) are
//! not reached by it: asking for one of them alone with `--fast-gear` is
//! refused, and a full-suite run names them in its header.
//! `--dense` and `--fast-gear` together are the run's
//! [`mpsoc_kernel::ExecMode`], carried as a value to every platform built.
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
//! continue). A completed run given `--bench-out` records the ledger's
//! `"dse"` section, whose front-quality and fan-out floors the committed
//! ledger is held to by `cargo test`.

use mpsoc_bench::ledger::{FloorVerdict, Ledger};
use mpsoc_bench::{
    experiment_ids, find_experiment, ledger, measure, measure_experiment, measure_fast_forward,
    run_dse, timetravel, DseOptions, ExperimentRun, Run, EXPERIMENT_REGISTRY,
};
use mpsoc_kernel::Fidelity;
use mpsoc_platform::experiments::host_cores;
use serde::Serialize;
use std::process::ExitCode;

struct Args {
    exp: Option<String>,
    /// `--scale`, `--seed`, `--jobs`, and `--dense` / `--fast-gear` as the
    /// run's `ExecMode`.
    run: Run,
    list: bool,
    fast_warm: bool,
    checkpoint_every_ns: Option<u64>,
    rewind_to_ns: Option<u64>,
    /// The ledger `--bench-out` names; nothing is written without it.
    bench_out: Option<std::path::PathBuf>,
    /// The four `--dse-*` flags.
    dse: DseOptions,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        exp: None,
        run: Run::default(),
        list: false,
        fast_warm: false,
        checkpoint_every_ns: None,
        rewind_to_ns: None,
        bench_out: None,
        dse: DseOptions::default(),
    };
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--exp" => {
                args.exp = Some(it.next().ok_or("--exp needs a value")?);
            }
            "--scale" => {
                args.run.scale = it
                    .next()
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|e| format!("bad scale: {e}"))?;
            }
            "--seed" => {
                args.run.seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "--jobs" => {
                args.run.jobs = it
                    .next()
                    .ok_or("--jobs needs a value")?
                    .parse()
                    .map_err(|e| format!("bad jobs: {e}"))?;
                if args.run.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--list" => args.list = true,
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
                args.run.exec.fidelity = Fidelity::Fast { quantum };
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
                args.dse.checkpoint_path =
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
                args.dse.checkpoint_every = Some(every);
            }
            "--dse-stop-after" => {
                args.dse.stop_after = Some(
                    it.next()
                        .ok_or("--dse-stop-after needs a value (rungs)")?
                        .parse()
                        .map_err(|e| format!("bad rung count: {e}"))?,
                );
            }
            "--dse-resume" => args.dse.resume = true,
            "--dense" => args.run.exec.dense = true,
            "--bench-out" => {
                args.bench_out = Some(it.next().ok_or("--bench-out needs a path")?.into());
            }
            "--help" | "-h" => {
                println!(
                    "repro [--exp <id>] [--scale N] [--seed N] [--jobs N] [--list] \
                     [--fast-warm] [--fast-gear QUANTUM] \
                     [--checkpoint-every NS --rewind-to NS] [--dense] \
                     [--dse-checkpoint <path>] [--dse-checkpoint-every RUNGS] \
                     [--dse-stop-after RUNGS] [--dse-resume] [--bench-out <path>]\n\
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
    if args.dse != DseOptions::default() && args.exp.as_deref() != Some("dse") {
        return Err("--dse-* flags only apply to `--exp dse`".into());
    }
    if (args.dse.checkpoint_every.is_some() || args.dse.stop_after.is_some() || args.dse.resume)
        && args.dse.checkpoint_path.is_none()
    {
        return Err(
            "--dse-checkpoint-every/--dse-stop-after/--dse-resume need --dse-checkpoint".into(),
        );
    }
    if let (Some(_), Some(id), false) = (&args.bench_out, args.exp.as_deref(), args.fast_warm) {
        if id != "dse" {
            return Err(format!(
                "--bench-out records nothing for `--exp {id}`: the \"experiments\" section \
                 is written by a full-suite run only"
            ));
        }
    }
    if args.rewind_to_ns.is_some() && args.exp.is_none() {
        return Err("time travel needs --exp <id> to pick the platform".into());
    }
    if args.fast_warm {
        match args.exp.as_deref() {
            None => args.exp = Some("fig4".into()),
            Some("fig4") => {}
            Some(other) => {
                return Err(format!(
                    "--fast-warm only applies to the fig4 sweep, not '{other}'"
                ))
            }
        }
        if args.run.exec.dense {
            return Err(
                "--dense does not apply to --fast-warm: the figure it records in the ledger \
                 is the sparse schedule's"
                    .into(),
            );
        }
    }
    // A flag that would do nothing says so: these runners set the kernel
    // gear themselves (time travel replays a platform, not the runner).
    let own_gear = args
        .fast_warm
        .then(|| "--fast-warm".to_owned())
        .or_else(|| {
            let desc = find_experiment(args.exp.as_deref()?)?;
            (desc.own_gear && args.rewind_to_ns.is_none()).then(|| format!("--exp {}", desc.id))
        });
    if let (Some(target), Fidelity::Fast { .. }) = (own_gear, args.run.exec.fidelity) {
        return Err(format!(
            "--fast-gear does not reach {target}, which sets the kernel gear itself"
        ));
    }
    Ok(args)
}

/// The `"experiments"` section of `BENCH_kernel.json`.
#[derive(Serialize, Default)]
struct ExperimentsSection {
    scale: u64,
    seed: u64,
    jobs: u64,
    host_cores: u64,
    dense: bool,
    total_wall_seconds: f64,
    total_edges: u64,
    total_ticks: u64,
    total_skipped: u64,
    runs: Vec<ExperimentRun>,
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.list {
        // Annotate each experiment with the committed (scale-1) ledger's
        // recorded wall time, sparse-skip fraction and fast-forwarded
        // (elided) cycles, when a usable committed ledger exists.
        let activity = Ledger::read(&ledger::committed_path())
            .map(|ledger| ledger.experiment_activity())
            .unwrap_or_default();
        println!(
            "{:<14} {:>9} {:>6} {:>10}  description",
            "experiment", "scale-1 s", "skip%", "ff-cycles"
        );
        for desc in EXPERIMENT_REGISTRY {
            let (wall, skip, ff) = match activity.iter().find(|a| a.id == desc.id) {
                Some(a) => (
                    format!("{:.3}", a.wall_seconds),
                    format!("{:.0}%", a.skip_fraction() * 100.0),
                    si_u64(a.ff_elided),
                ),
                None => ("-".into(), "-".into(), "-".into()),
            };
            println!(
                "{:<14} {wall:>9} {skip:>6} {ff:>10}  {}",
                desc.id, desc.description
            );
        }
        return ExitCode::SUCCESS;
    }
    // Explicit worker counts beyond the host's cores are honoured (the
    // user may be chasing an oversubscription bug on purpose), but warned
    // about: the resulting timings measure scheduler thrash, not the code,
    // and the automatic scaling recorders clamp instead.
    let Run { jobs, exec, .. } = args.run;
    let cores = host_cores();
    if jobs > cores {
        eprintln!(
            "warning: --jobs {jobs} exceeds this host's {cores} core(s); timings will \
             measure oversubscription, not scaling"
        );
    }
    if let (Some(every), Some(target)) = (args.checkpoint_every_ns, args.rewind_to_ns) {
        return time_travel(&args, every, target);
    }
    if args.fast_warm {
        return fast_warm(&args);
    }
    let ids: Vec<&str> = match &args.exp {
        Some(one) => vec![one.as_str()],
        None => experiment_ids(),
    };
    println!(
        "reproducing {} experiment(s), scale {}, seed {:#x}, jobs {jobs}{}\n",
        ids.len(),
        args.run.scale,
        args.run.seed,
        match exec.fidelity {
            Fidelity::Fast { quantum } => {
                // Only a full-suite run gets here with an own-gear runner.
                let own: Vec<&str> = EXPERIMENT_REGISTRY
                    .iter()
                    .filter(|d| d.own_gear && ids.contains(&d.id))
                    .map(|d| d.id)
                    .collect();
                if own.is_empty() {
                    format!(", fast-gear quantum {quantum}")
                } else {
                    format!(
                        ", fast-gear quantum {quantum} ({} keep their own gear)",
                        own.join(", ")
                    )
                }
            }
            Fidelity::Cycle => String::new(),
        }
    );
    let mut runs: Vec<ExperimentRun> = Vec::with_capacity(ids.len());
    // A completed dse run carries its own ledger section (an interrupted
    // --dse-stop-after run records nothing).
    let mut dse_run = None;
    for id in ids {
        let measured = if id == "dse" {
            measure(id, || {
                let (table, record) = run_dse(args.run, &args.dse)?;
                dse_run = record;
                Ok(table)
            })
        } else {
            measure_experiment(id, args.run)
        };
        match measured {
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

    let section = ExperimentsSection {
        scale: args.run.scale,
        seed: args.run.seed,
        jobs: jobs as u64,
        host_cores: host_cores() as u64,
        dense: exec.dense,
        total_wall_seconds: runs.iter().map(|r| r.wall_seconds).sum(),
        total_edges: runs.iter().map(|r| r.edges).sum(),
        total_ticks: runs.iter().map(|r| r.ticks).sum(),
        total_skipped: runs.iter().map(|r| r.skipped).sum(),
        runs,
    };
    println!(
        "total: {} edges, {} sim cycles ({} skipped) in {:.2}s host time",
        section.total_edges, section.total_ticks, section.total_skipped, section.total_wall_seconds
    );
    let Some(path) = &args.bench_out else {
        return ExitCode::SUCCESS;
    };
    let sections = ledger_sections(&args, &section, dse_run.as_ref());
    if sections.is_empty() {
        println!("perf ledger left as it was: an interrupted search records nothing");
        return ExitCode::SUCCESS;
    }
    if record(path, &sections) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The ledger sections a run of `args` writes: `"experiments"` from a
/// full-suite run only (one experiment's figures would replace the whole
/// suite's table), `"dse"` from a completed search.
fn ledger_sections(
    args: &Args,
    experiments: &ExperimentsSection,
    dse_run: Option<&mpsoc_bench::DseRun>,
) -> Vec<(&'static str, String)> {
    let mut sections = Vec::new();
    if args.exp.is_none() {
        sections.push(("experiments", experiments.to_json()));
    }
    sections.extend(dse_run.map(|run| ("dse", run.to_json())));
    sections
}

/// Writes `sections` into the ledger at `path` and says where they went,
/// or why they could not be written. Returns whether they were.
fn record(path: &std::path::Path, sections: &[(&str, String)]) -> bool {
    let written = sections
        .iter()
        .try_for_each(|(name, json)| ledger::update_section(path, name, json));
    match &written {
        Ok(()) => println!("perf ledger updated: {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
    written.is_ok()
}

/// Runs the `--fast-warm` measurement, judges it against the
/// `"fast_forward"` floor rows (re-measuring a miss up to
/// [`CHECK_RETRIES`] times) and records it when `--bench-out` names a
/// ledger.
fn fast_warm(args: &Args) -> ExitCode {
    println!(
        "fig4 fast-warm (loosely-timed warm phase), scale {}, seed {:#x}, jobs {}\n",
        args.run.scale, args.run.seed, args.run.jobs
    );
    let mut retries = 0;
    let (run, checked) = loop {
        let run = match measure_fast_forward(args.run) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("fast-warm failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let checked = ledger::check_section("fast_forward", &run.to_json())
            .expect("the section repro records is one JSON value");
        let missed = checked.iter().any(|c| c.verdict == FloorVerdict::Missed);
        if !missed || retries == CHECK_RETRIES {
            break (run, checked);
        }
        retries += 1;
        eprintln!(
            "fast-forward (speedup {:.2}x, max err {}\u{2030}) missed a floor; re-measuring \
             ({retries} of {CHECK_RETRIES})",
            run.speedup, run.max_err_permille
        );
    };
    println!("{}", run.table);
    println!("{}", run.perf_line());
    let recorded = args
        .bench_out
        .as_ref()
        .is_none_or(|path| record(path, &[("fast_forward", run.to_json())]));
    if ledger::report(&checked) && recorded {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs the time-travel debug harness for one experiment.
fn time_travel(args: &Args, every_ns: u64, rewind_ns: u64) -> ExitCode {
    let id = args.exp.as_deref().expect("validated in parse_args");
    match timetravel::time_travel(id, args.run, every_ns, rewind_ns) {
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

/// Re-measurements granted to a live fast-forward speedup that lands below
/// its floor before it is declared regressed. The speedup is the ratio of
/// two millisecond-scale warm phases, where one scheduler hiccup on the
/// host moves it by a third (five runs on one 2-core host read 1.60 to
/// 3.03 against the 1.5 floor); a real regression fails every sample, noise
/// does not.
const CHECK_RETRIES: usize = 2;

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn the_mode_flags_are_one_value() {
        let args = parse("--scale 2 --jobs 3 --dense --fast-gear 16").expect("valid");
        assert_eq!(
            args.run,
            Run {
                jobs: 3,
                exec: mpsoc_kernel::ExecMode {
                    dense: true,
                    fidelity: Fidelity::Fast { quantum: 16 },
                },
                ..Run::new(2, Run::default().seed)
            }
        );
        assert_eq!(parse("").expect("valid").run, Run::default());
    }

    #[test]
    fn tick_jobs_is_an_unknown_flag() {
        let why = parse("--tick-jobs 2").err().expect("refused");
        assert_eq!(why, "unknown argument '--tick-jobs'");
    }

    #[test]
    fn the_four_dse_flags_are_the_options_handed_to_the_search() {
        let args = parse(
            "--exp dse --dse-checkpoint f.bin --dse-checkpoint-every 2 --dse-stop-after 1 \
             --dse-resume",
        )
        .expect("valid");
        assert_eq!(
            args.dse,
            DseOptions {
                checkpoint_path: Some("f.bin".into()),
                checkpoint_every: Some(2),
                stop_after: Some(1),
                resume: true,
            }
        );
        assert_eq!(
            parse("--exp dse").expect("valid").dse,
            DseOptions::default()
        );
        for line in ["--dse-resume", "--exp fig4 --dse-checkpoint f.bin"] {
            let why = parse(line).err().expect("refused");
            assert!(why.starts_with("--dse-* flags only apply"), "{line}: {why}");
        }
    }

    #[test]
    fn only_a_full_suite_run_writes_the_experiments_section() {
        let why = parse("--exp fig3 --scale 1 --bench-out f.json")
            .err()
            .expect("refused");
        assert!(
            why.starts_with("--bench-out records nothing for `--exp fig3`"),
            "{why}"
        );
        let search = mpsoc_bench::DseRun {
            scale: 1,
            seed: 1,
            jobs: 1,
            host_cores: 1,
            candidates: 12,
            front_size: 4,
            families: 3,
            sim_ticks: 1,
            wall_seconds: 1.0,
            fanout_speedup: 1.0,
            rungs: Vec::new(),
        };
        let written = |line: &str, dse_run| {
            let args = parse(line).expect("valid");
            ledger_sections(&args, &ExperimentsSection::default(), dse_run)
                .into_iter()
                .map(|(name, _)| name)
                .collect::<Vec<_>>()
        };
        assert_eq!(written("--bench-out f.json", None), ["experiments"]);
        assert_eq!(
            written("--bench-out f.json", Some(&search)),
            ["experiments", "dse"]
        );
        assert_eq!(
            written("--exp dse --bench-out f.json", Some(&search)),
            ["dse"]
        );
        assert!(written("--exp dse --bench-out f.json", None).is_empty());
        assert!(parse("--fast-warm --bench-out f.json").is_ok());
    }

    #[test]
    fn a_flag_that_would_do_nothing_is_refused() {
        for line in [
            "--exp dse --fast-gear 16",
            "--exp fidelity --fast-gear 16",
            "--fast-warm --fast-gear 16",
            "--exp fig4 --fast-warm --fast-gear 1",
        ] {
            let why = parse(line)
                .err()
                .unwrap_or_else(|| panic!("`{line}` accepted"));
            assert!(
                why.starts_with("--fast-gear does not reach"),
                "{line}: {why}"
            );
            assert!(!why.contains('\n'), "{line}: one line, got {why:?}");
        }
        let why = parse("--fast-warm --dense").err().expect("refused");
        assert!(why.starts_with("--dense does not apply to"), "{why}");
        assert!(!why.contains('\n'), "one line, got {why:?}");
    }

    #[test]
    fn the_same_flags_are_accepted_where_they_do_something() {
        for line in [
            // The full suite runs all 16; the header names the own-gear ones.
            "--fast-gear 16",
            "--dense --fast-gear 16",
            "--exp fig4 --fast-gear 16",
            // The schedule and the fan-out reach the own-gear runners.
            "--exp dse --dense",
            "--exp fidelity --dense --jobs 2",
            "--fast-warm --jobs 2",
            // Time travel replays a platform, not the runner.
            "--exp dse --fast-gear 16 --checkpoint-every 500 --rewind-to 2000",
        ] {
            assert!(
                parse(line).is_ok(),
                "`{line}` refused: {:?}",
                parse(line).err()
            );
        }
    }
}
