//! The repository's benchmark harness. See `benchmark/README.md`.
//!
//! Two ways in:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` measures one workload
//!   once and prints the result object as the last line of standard output
//!   (the form the benchmark driver calls);
//! * without `--trace`, it runs every workload (or the one named) as child
//!   processes of itself — so each has its own peak memory — prints the
//!   metrics, and with `--repeat K` compares K sets against the bounds of
//!   `BENCHMARK.json`.

mod client;
mod digest;
mod expected;
mod json;
mod metrics;
#[cfg(test)]
mod quick;
mod rng;
mod run;
mod server_proc;
mod stats;
mod trace;
mod workloads;

use json::Json;
use metrics::{END_TO_END, PER_LAYER};
use run::{Outcome, RunArgs};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
              [--traced] [--repeat K] [--quick]

  --workload W   one of cycle_saturated, cycle_platform, fast_gear, dse_search,
                 serve_hot, serve_churn (default: all six)
  --seed N       drives every simulation seed, shuffle and key stream (default 1)
  --seconds S    length of each timed window (default: run_seconds of BENCHMARK.json)
  --trace 0|1    measure one workload once and print the result object last:
                 0 = end-to-end metrics, 1 = traced run, per-layer metrics
  --traced       after each untraced run, also make the traced run
  --repeat K     run K full sets and compare them against the bounds
  --quick        tiny sizes, every output check on, timings not worth reading";

#[derive(Debug, Clone, PartialEq)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    traced: bool,
    repeat: usize,
    quick: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: expected::DEFAULT_SEED,
        seconds: None,
        trace: None,
        traced: false,
        repeat: 1,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload '{name}' (expected one of {})",
                        workloads::NAMES.join(", ")
                    ));
                }
                cli.workload = Some(name);
            }
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a non-negative integer".to_string())?;
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_string())?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err("--seconds needs a finite, non-negative number".into());
                }
                cli.seconds = Some(seconds);
            }
            "--trace" => {
                cli.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                });
            }
            "--traced" => cli.traced = true,
            "--repeat" => {
                cli.repeat = value("a count")?
                    .parse()
                    .ok()
                    .filter(|k| *k >= 1)
                    .ok_or_else(|| "--repeat needs a count of at least 1".to_string())?;
            }
            "--quick" => cli.quick = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if cli.trace.is_some() && cli.workload.is_none() {
        return Err("--trace measures one workload: name it with --workload".into());
    }
    Ok(cli)
}

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `BENCHMARK.json`, one directory above `benchmark/`.
fn benchmark_json(bench_dir: &Path) -> Result<Json, String> {
    let path = bench_dir.join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The result object of the driver contract.
fn result_line(out: &Outcome, rows: &[(&str, &str, f64)]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// Measures one workload once, prints its metrics and the result object.
fn single_run(workload: &str, trace: bool, cli: &Cli, seconds: f64) -> Result<bool, String> {
    let args = RunArgs {
        seed: cli.seed,
        seconds,
        trace,
        quick: cli.quick,
        bench_dir: bench_dir(),
    };
    println!(
        "== {workload}: seed {}, {} s window, {}{} ==",
        args.seed,
        args.seconds,
        if trace { "traced" } else { "untraced" },
        if args.quick { ", quick" } else { "" }
    );
    let out = workloads::run(workload, &args)?;
    let rows = if trace {
        out.metrics.in_table(PER_LAYER, Some(0.0))?
    } else {
        out.metrics.in_table(END_TO_END, None)?
    };
    if let Some((name, _, value)) = rows.iter().find(|(_, _, v)| !v.is_finite()) {
        return Err(format!("metric {name} is {value}"));
    }
    for note in &out.notes {
        println!("{note}");
    }
    for (name, unit, value) in &rows {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    println!(
        "  {:<34} {:>16.6} ratio   ({} failed of {} attempted)",
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for why in out.failures.iter().take(10) {
        println!("FAILED: {why}");
    }
    if out.failures.len() > 10 {
        println!("FAILED: ... and {} more", out.failures.len() - 10);
    }
    println!("{}", result_line(&out, &rows));
    Ok(out.correct())
}

/// The metrics a child run reported, and whether its outputs were correct.
struct ChildResult {
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

/// Runs one workload in a child process of this executable, passing its
/// output through, and decodes the result object it prints last.
fn child_run(workload: &str, trace: bool, cli: &Cli, seconds: f64) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if cli.quick {
        command.arg("--quick");
    }
    let output = command.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout
        .lines()
        .last()
        .filter(|l| l.starts_with('{'))
        .ok_or_else(|| format!("{workload}: no result object (exit {})", output.status))?;
    let doc = json::parse(last).map_err(|e| format!("{workload}: result object: {e}"))?;
    let metrics = match doc.get("metrics") {
        Some(Json::Obj(members)) => members
            .iter()
            .filter_map(|(k, v)| {
                v.get("value")
                    .and_then(Json::as_f64)
                    .map(|n| (k.clone(), n))
            })
            .collect(),
        _ => return Err(format!("{workload}: result object has no metrics")),
    };
    Ok(ChildResult {
        correct: doc.get("correct").and_then(Json::as_bool) == Some(true)
            && output.status.success(),
        metrics,
    })
}

/// Direction and bound of an end-to-end metric, from `BENCHMARK.json`.
struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn bounds(doc: &Json) -> Result<Vec<Bound>, String> {
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json: no end_to_end")?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

/// How much worse `second` reads than `first`, as a share of `first`
/// (negative when it reads better).
fn worsening(first: f64, second: f64, higher_is_better: bool) -> f64 {
    let diff = stats::rel_diff(first, second);
    if higher_is_better {
        -diff
    } else {
        diff
    }
}

/// Runs every selected workload `repeat` times over; with more than one
/// set, compares each set against the one before it.
fn orchestrate(cli: &Cli, seconds: f64, doc: &Json) -> Result<bool, String> {
    let selected: Vec<&str> = match &cli.workload {
        Some(name) => vec![name.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    let bounds = bounds(doc)?;
    let mut all_correct = true;
    let mut sets: Vec<BTreeMap<&str, BTreeMap<String, f64>>> = Vec::new();
    for set in 0..cli.repeat {
        if cli.repeat > 1 {
            println!("#### set {} of {} ####", set + 1, cli.repeat);
        }
        let mut results = BTreeMap::new();
        for &workload in &selected {
            let untraced = child_run(workload, false, cli, seconds)?;
            all_correct &= untraced.correct;
            if cli.traced {
                all_correct &= child_run(workload, true, cli, seconds)?.correct;
            }
            results.insert(workload, untraced.metrics);
        }
        sets.push(results);
    }
    let mut within_bounds = true;
    for (index, pair) in sets.windows(2).enumerate() {
        println!(
            "#### set {} against set {}: end-to-end metrics ####",
            index + 2,
            index + 1
        );
        println!(
            "{:<16} {:<18} {:>14} {:>14} {:>9} {:>7}",
            "workload", "metric", "first", "second", "worse by", "bound"
        );
        for &workload in &selected {
            for b in &bounds {
                let read = |set: &BTreeMap<&str, BTreeMap<String, f64>>| {
                    set[workload].get(&b.name).copied().ok_or_else(|| {
                        format!("{workload}: metric {} missing from a result", b.name)
                    })
                };
                let (first, second) = (read(&pair[0])?, read(&pair[1])?);
                let worse = worsening(first, second, b.higher_is_better);
                let over = worse > b.bound;
                within_bounds &= !over;
                println!(
                    "{workload:<16} {:<18} {first:>14.6} {second:>14.6} {:>8.2}% {:>6.0}%{}",
                    b.name,
                    worse * 100.0,
                    b.bound * 100.0,
                    if over { "  OVER BOUND" } else { "" }
                );
            }
        }
    }
    if !all_correct {
        println!("FAILED: an output check failed (see FAILED lines above)");
    }
    if !within_bounds && cli.quick {
        println!("(quick mode: timings are not asserted)");
    } else if !within_bounds {
        println!("FAILED: a metric worsened between two sets by more than its bound");
    }
    Ok(all_correct && (within_bounds || cli.quick))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(why) => {
            if !why.is_empty() {
                eprintln!("error: {why}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = || -> Result<bool, String> {
        let doc = benchmark_json(&bench_dir())?;
        let seconds = match cli.seconds {
            Some(seconds) => seconds,
            None if cli.quick => 0.2,
            None => doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
        };
        match (&cli.workload, cli.trace) {
            (Some(workload), Some(trace)) => single_run(workload, trace, &cli, seconds),
            _ => orchestrate(&cli, seconds, &doc),
        }
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("error: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_form_parses() {
        let c = cli(&[
            "--workload",
            "serve_hot",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert_eq!(c.workload.as_deref(), Some("serve_hot"));
        assert_eq!((c.seed, c.seconds, c.trace), (7, Some(10.0), Some(true)));
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "1"],
            &["--trace", "2", "--workload", "serve_hot"],
            &["--seed", "-1"],
            &["--seconds", "nan"],
            &["--repeat", "0"],
            &["--frobnicate"],
        ] {
            assert!(cli(bad).is_err(), "{bad:?} must be refused");
        }
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 110.0, false) - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, true) + 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, true) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn the_result_object_has_the_contract_keys() {
        let mut out = Outcome {
            attempted: 12,
            ..Outcome::default()
        };
        out.metrics.set("wall_s", 0.25);
        let line = result_line(&out, &[("wall_s", "s", 0.25)]);
        let doc = json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(12));
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
        let wall = doc
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("metric");
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(0.25));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
    }
}
