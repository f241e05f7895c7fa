//! What every workload shares: run arguments, the result record, host
//! memory readings, and the pass loop of the in-process workloads.

use crate::metrics::Metrics;
use crate::rng::Rng;
use crate::stats::{median, quantile_sorted, quiet, sorted};
use crate::trace::{render_self_times, self_times, Tracer};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Times the set-up is repeated; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Fewest timed passes an in-process workload reports a median over.
pub const MIN_PASSES: usize = 11;

/// Arguments of one measured run of one workload.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Tiny sizes, every check on, no timing worth reading.
    pub quick: bool,
    /// `benchmark/` — where `expected.json` lives and `out/` is written.
    pub bench_dir: PathBuf,
}

impl RunArgs {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    pub fn out_dir(&self) -> PathBuf {
        self.bench_dir.join("out")
    }

    /// Set-up repetitions (one in quick mode, which reads no timing).
    pub fn setup_repeats(&self) -> usize {
        if self.quick {
            1
        } else {
            SETUP_REPEATS
        }
    }

    pub fn min_passes(&self) -> usize {
        if self.quick {
            2
        } else {
            MIN_PASSES
        }
    }
}

/// The result of one run: operation counts, failed checks, metrics, and
/// lines for the human reader.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation or check (capped when printing).
    pub failures: Vec<String>,
    pub metrics: Metrics,
    /// Digests, sample counts and tables for the human reader.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Counts one attempted operation or check; `Err` is a failure.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.failures.push(why);
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB, from `/proc`.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// Repeats `setup` [`RunArgs::setup_repeats`] times, returning the last
/// product and the median set-up time in seconds. Earlier products are
/// dropped (servers stopped, temp dirs removed) before the next repeat.
pub fn timed_setup<T>(
    args: &RunArgs,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..args.setup_repeats() {
        drop(last.take());
        let started = Instant::now();
        last = Some(setup()?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one repeat"), median(&times)))
}

/// What one in-process operation returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpOutput {
    /// Simulated work the operation reports (cycles; ticks for the DSE).
    pub sim_cycles: u64,
    /// Digest of everything the operation returned.
    pub digest: u64,
}

/// Timings of the passes of an in-process workload.
#[derive(Debug, Default)]
pub struct PassLog {
    /// Operations per pass.
    pub ops: usize,
    /// Passes run, untraced and traced.
    pub passes: [usize; 2],
    /// Latency samples in nanoseconds of each operation, untraced passes
    /// in `[0]`, traced ones in `[1]`.
    pub op_ns: [Vec<Vec<f64>>; 2],
    /// Simulated work and output digest of one pass (equal in all).
    pub sim_cycles: u64,
    pub digest: u64,
}

impl PassLog {
    /// The quiet-host latency in seconds of each operation (see
    /// [`quiet`]), from the traced or the untraced passes.
    pub fn quiet_op_s(&self, traced: bool) -> Vec<f64> {
        self.op_ns[usize::from(traced)]
            .iter()
            .map(|samples| quiet(samples) / 1e9)
            .collect()
    }
}

/// Runs passes over `ops` operations until the window closes (and at least
/// the minimum number of passes ran). `reference` is the untimed set-up
/// pass: every later pass must reproduce its outputs exactly. In a traced
/// run every second pass records spans; the others time the same work with
/// the tracer off, so the run measures its own tracing overhead.
///
/// Each pass visits the operations in a fresh order drawn from `--seed`.
/// Operation ids are `pass * ops + index`, so a span's case is
/// `op_id % ops`.
pub fn timed_passes(
    args: &RunArgs,
    out: &mut Outcome,
    tracer: &mut Tracer,
    reference: &[OpOutput],
    mut op: impl FnMut(usize, u64, &mut Tracer) -> Result<OpOutput, String>,
) -> PassLog {
    let ops = reference.len();
    let mut order: Vec<usize> = (0..ops).collect();
    let mut rng = Rng::new(args.seed, 0x04de);
    let mut log = PassLog {
        ops,
        op_ns: [vec![Vec::new(); ops], vec![Vec::new(); ops]],
        sim_cycles: reference.iter().map(|o| o.sim_cycles).sum(),
        digest: fold_digests(reference),
        ..PassLog::default()
    };
    let deadline = Instant::now() + args.window();
    let mut pass = 0u64;
    while (pass as usize) < args.min_passes() || Instant::now() < deadline {
        let traced = args.trace && pass % 2 == 1;
        tracer.set_enabled(traced);
        rng.shuffle(&mut order);
        for &index in &order {
            let expected = &reference[index];
            let started = Instant::now();
            let result = op(index, pass * ops as u64 + index as u64, tracer);
            log.op_ns[usize::from(traced)][index].push(started.elapsed().as_nanos() as f64);
            out.check(result.and_then(|got| {
                (got == *expected).then_some(()).ok_or_else(|| {
                    format!(
                        "pass {pass} op {index}: outputs differ from the untimed pass \
                         (digest {:#018x} vs {:#018x})",
                        got.digest, expected.digest
                    )
                })
            }));
        }
        log.passes[usize::from(traced)] += 1;
        pass += 1;
    }
    tracer.set_enabled(false);
    log
}

/// Reports an in-process workload's passes: the end-to-end metrics of an
/// untraced run; the tracing overhead, trace file and self-time table of a
/// traced one (whose layer metrics the workload has set already).
pub fn report_inproc(
    args: &RunArgs,
    workload: &str,
    log: &PassLog,
    setup_s: f64,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    if args.trace {
        out.metrics
            .set("bench.trace_overhead_frac", trace_overhead(log));
        finish_trace(args, workload, tracer, out)
    } else {
        inproc_end_to_end(log, setup_s, &mut out.metrics)
    }
}

/// Ends a traced run: writes the spans to `out/trace-<workload>.jsonl`
/// and notes the self-time table.
pub fn finish_trace(
    args: &RunArgs,
    workload: &str,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let path = args.out_dir().join(format!("trace-{workload}.jsonl"));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    out.note(format!(
        "{} spans -> {}",
        tracer.spans().len(),
        path.display()
    ));
    out.note(render_self_times(&self_times(tracer.spans())));
    Ok(())
}

/// Order-sensitive fold of per-operation digests into one pass digest.
pub fn fold_digests(outputs: &[OpOutput]) -> u64 {
    let mut h = crate::digest::Fnv::default();
    for o in outputs {
        h.u64(o.sim_cycles);
        h.u64(o.digest);
    }
    h.finish()
}

/// The end-to-end metrics of an in-process workload. An operation is one
/// call of a case. Every timing is the quiet-host one: `wall_s` is one pass
/// over the cases, the rates follow from it, and the latency percentiles
/// range over the cases — the repeats of one deterministic call differ
/// only by host noise, which is not the program's tail.
fn inproc_end_to_end(log: &PassLog, setup_s: f64, metrics: &mut Metrics) -> Result<(), String> {
    let op_s = sorted(&log.quiet_op_s(false));
    let wall_s: f64 = op_s.iter().sum();
    metrics.set("setup_s", setup_s);
    metrics.set("wall_s", wall_s);
    metrics.set("sim_cycles_per_s", log.sim_cycles as f64 / wall_s);
    metrics.set("req_per_s", log.ops as f64 / wall_s);
    metrics.set("latency_p50_ms", quantile_sorted(&op_s, 0.50) * 1e3);
    metrics.set("latency_p95_ms", quantile_sorted(&op_s, 0.95) * 1e3);
    metrics.set("peak_rss_mb", peak_rss_mb(std::process::id())?);
    Ok(())
}

/// `bench.trace_overhead_frac`: a traced pass over an untraced one, minus 1.
fn trace_overhead(log: &PassLog) -> f64 {
    let plain: f64 = log.quiet_op_s(false).iter().sum();
    let traced: f64 = log.quiet_op_s(true).iter().sum();
    if log.passes[1] > 0 && plain > 0.0 {
        traced / plain - 1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(trace: bool) -> RunArgs {
        RunArgs {
            seed: 1,
            seconds: 0.0,
            trace,
            quick: true,
            bench_dir: PathBuf::from("."),
        }
    }

    #[test]
    fn own_peak_rss_is_readable_and_positive() {
        assert!(peak_rss_mb(std::process::id()).expect("readable") > 0.0);
    }

    #[test]
    fn a_pass_that_differs_from_the_reference_is_a_failed_operation() {
        let reference = [OpOutput {
            sim_cycles: 10,
            digest: 1,
        }];
        let mut out = Outcome::default();
        let mut tracer = Tracer::new(Instant::now(), false);
        let mut calls = 0;
        let log = timed_passes(
            &args(false),
            &mut out,
            &mut tracer,
            &reference,
            |_, _, _| {
                calls += 1;
                Ok(OpOutput {
                    sim_cycles: 10,
                    digest: if calls == 2 { 99 } else { 1 },
                })
            },
        );
        assert_eq!(log.passes, [2, 0]);
        assert_eq!((out.attempted, out.failed), (2, 1));
        assert!(!out.correct());
    }

    #[test]
    fn the_seed_orders_the_operations_of_each_pass() {
        let reference = [OpOutput {
            sim_cycles: 1,
            digest: 0,
        }; 8];
        let visit_order = |seed: u64| {
            let mut visited = Vec::new();
            let run = RunArgs {
                seed,
                ..args(false)
            };
            let mut out = Outcome::default();
            let mut tracer = Tracer::new(Instant::now(), false);
            timed_passes(&run, &mut out, &mut tracer, &reference, |index, _, _| {
                visited.push(index);
                Ok(reference[0])
            });
            visited
        };
        let a = visit_order(1);
        assert_eq!(a, visit_order(1), "same seed, same order");
        assert_ne!(a, visit_order(2), "other seed, other order");
        for pass in a.chunks(8) {
            let mut once = pass.to_vec();
            once.sort_unstable();
            assert_eq!(
                once,
                (0..8).collect::<Vec<_>>(),
                "every pass visits every operation"
            );
        }
    }

    #[test]
    fn traced_runs_alternate_and_keep_untraced_latencies_only() {
        let reference = [OpOutput {
            sim_cycles: 1,
            digest: 0,
        }; 3];
        let mut out = Outcome::default();
        let mut tracer = Tracer::new(Instant::now(), false);
        let log = timed_passes(
            &args(true),
            &mut out,
            &mut tracer,
            &reference,
            |_, op, t| {
                let open = t.begin("kernel.run", op);
                t.end(open);
                Ok(reference[0])
            },
        );
        assert_eq!(log.passes, [1, 1], "untraced first, then traced");
        assert!(log.op_ns.iter().flatten().all(|samples| samples.len() == 1));
        let mut ids: Vec<u64> = tracer.spans().iter().map(|s| s.op_id).collect();
        ids.sort_unstable();
        assert_eq!(
            ids,
            [3, 4, 5],
            "only the second pass records, ids = pass*ops+index"
        );
    }
}
