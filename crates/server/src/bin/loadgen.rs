//! `loadgen` — deterministic load generator for the sweep server.
//!
//! ```text
//! loadgen --addr HOST:PORT | --addr-file PATH
//!         [--requests N] [--connections C | --rate R]
//!         [--scale N] [--seed N] [--rng-seed N]
//!         [--table] [--require-hits] [--require-first-hit]
//!         [--restart-leg] [--shutdown] [--bench-out <path>]
//! ```
//!
//! Issues a seeded, duplicate-heavy FIG-4 request mix (every cell once,
//! then random duplicates), asserts that all responses for the same cell
//! agree byte-for-byte (the warm-cache determinism contract), and prints a
//! throughput/latency summary. `--table` additionally reconstructs the
//! FIG-4 table from the served cells on stdout, byte-comparable to the
//! one-shot `repro --exp fig4` output.
//!
//! `--bench-out <path>` records the ledger's `server` section there:
//! besides throughput/latency/hit figures it queries the server's warm-up
//! count (the cache must keep it within the mix's distinct warm keys).
//! Without it the run writes no file.
//!
//! `--restart-leg` is the persistence probe: run it against a *relaunched*
//! server whose `--cache-dir` already holds the spills of a previous run.
//! It measures the first-request latency (which must be served from disk —
//! pair it with `--require-first-hit`) and splices it into the existing
//! ledger `server` section as `warm_restart_first_micros` instead of
//! rewriting the section.

use mpsoc_bench::ledger;
use mpsoc_platform::experiments::host_cores;
use mpsoc_server::json::{self, Json};
use mpsoc_server::loadgen::{
    distinct_warm_keys, fig4_mix, run, Client, Pacing, RunConfig, RunReport,
};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: loadgen --addr HOST:PORT | --addr-file PATH\n\
         \n\
         --requests N         total requests (default 48; first 12 cover every FIG-4 cell)\n\
         --connections C      closed-loop lanes (default 4)\n\
         --rate R             open-loop mode: one connection paced at R requests/sec\n\
         --scale N            workload scale of every request (default 4)\n\
         --seed N             simulation seed of every request (default 0x0dab)\n\
         --rng-seed N         mix-shuffling seed (default 1)\n\
         --table              print the reconstructed FIG-4 table on stdout\n\
         --require-hits       fail unless the run saw at least one warm-cache hit\n\
         --require-first-hit  fail unless the very first response was served warm\n\
         --restart-leg        with --bench-out, record the first-request latency as\n\
         \x20                    the ledger's warm_restart_first_micros (run against a\n\
         \x20                    relaunched server with a populated --cache-dir)\n\
         --shutdown           send a shutdown request when done\n\
         --bench-out PATH     record the ledger's server section in PATH"
    );
    std::process::exit(2);
}

struct Args {
    config: RunConfig,
    addr_file: Option<String>,
    table: bool,
    require_hits: bool,
    require_first_hit: bool,
    restart_leg: bool,
    shutdown: bool,
    bench_out: Option<std::path::PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        config: RunConfig::default(),
        addr_file: None,
        table: false,
        require_hits: false,
        require_first_hit: false,
        restart_leg: false,
        shutdown: false,
        bench_out: None,
    };
    let mut it = std::env::args().skip(1);
    let next = |it: &mut dyn Iterator<Item = String>| it.next().unwrap_or_else(|| usage());
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => args.config.addr = next(&mut it),
            "--addr-file" => args.addr_file = Some(next(&mut it)),
            "--requests" => {
                args.config.requests = next(&mut it).parse().unwrap_or_else(|_| usage());
            }
            "--connections" => {
                args.config.pacing = Pacing::Closed {
                    connections: next(&mut it).parse().unwrap_or_else(|_| usage()),
                };
            }
            "--rate" => {
                args.config.pacing = Pacing::Open {
                    requests_per_sec: next(&mut it).parse().unwrap_or_else(|_| usage()),
                };
            }
            "--scale" => args.config.scale = next(&mut it).parse().unwrap_or_else(|_| usage()),
            "--seed" => args.config.seed = parse_u64(&next(&mut it)).unwrap_or_else(|| usage()),
            "--rng-seed" => {
                args.config.rng_seed = parse_u64(&next(&mut it)).unwrap_or_else(|| usage());
            }
            "--table" => args.table = true,
            "--require-hits" => args.require_hits = true,
            "--require-first-hit" => args.require_first_hit = true,
            "--restart-leg" => args.restart_leg = true,
            "--shutdown" => args.shutdown = true,
            "--bench-out" => args.bench_out = Some(next(&mut it).into()),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    args
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Asks the server for its lifetime warm-up count (`{"cmd":"stats"}`).
fn query_warm_ups(addr: &str) -> Result<u64, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let line = client
        .roundtrip("{\"cmd\":\"stats\"}")
        .map_err(|e| format!("io: {e}"))?;
    let v = json::parse(&line).map_err(|e| format!("unparseable stats: {e}"))?;
    v.get("stats")
        .and_then(|s| s.get("warm_ups"))
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("stats response without warm_ups: {line}"))
}

/// The `server` section of the main leg: `warm_ups` is the server's
/// lifetime count, read after the mix, and `distinct_keys` the number of
/// warm keys the mix asks for.
fn section_json(args: &Args, report: &RunReport, warm_ups: u64, distinct_keys: usize) -> String {
    let (mode, connections) = match args.config.pacing {
        Pacing::Closed { connections } => ("closed", connections as u64),
        Pacing::Open { .. } => ("open", 1),
    };
    format!(
        "{{\"mode\":\"{mode}\",\"connections\":{connections},\"scale\":{},\
         \"requests\":{},\"requests_per_sec\":{:.2},\
         \"p50_micros\":{},\"p99_micros\":{},\
         \"hits\":{},\"misses\":{},\"hit_rate\":{:.6},\
         \"p50_hit_micros\":{},\"p50_miss_micros\":{},\"hit_speedup\":{:.2},\
         \"warm_ups\":{},\"distinct_keys\":{},\
         \"cold_start_first_micros\":{},\
         \"host_cores\":{}}}",
        args.config.scale,
        report.responses,
        report.requests_per_sec(),
        RunReport::percentile(&report.latencies_micros, 50.0),
        RunReport::percentile(&report.latencies_micros, 99.0),
        report.hits,
        report.misses,
        report.hit_rate(),
        RunReport::percentile(&report.hit_latencies_micros, 50.0),
        RunReport::percentile(&report.miss_latencies_micros, 50.0),
        report.hit_speedup(),
        warm_ups,
        distinct_keys,
        report.first_latency_micros,
        host_cores(),
    )
}

/// Overwrites `"key":<u64>` inside a single-line JSON object, appending
/// the field before the closing brace when it is not yet present.
fn splice_u64_field(section: &str, key: &str, value: u64) -> String {
    let tag = format!("\"{key}\":");
    if let Some(pos) = section.find(&tag) {
        let start = pos + tag.len();
        let end = section[start..]
            .find([',', '}'])
            .map_or(section.len(), |e| start + e);
        format!("{}{value}{}", &section[..start], &section[end..])
    } else {
        let trimmed = section.trim_end();
        let body = trimmed.strip_suffix('}').unwrap_or(trimmed);
        format!("{body},\"{key}\":{value}}}")
    }
}

/// Records the restart leg: the first-request latency of this run is
/// spliced into the *existing* ledger `server` section (written by the
/// main leg) as `warm_restart_first_micros` — the rest of the section is
/// left untouched, because this run's cache-warm figures would otherwise
/// clobber the cold-start ones.
fn record_restart_leg(path: &std::path::Path, report: &RunReport) -> Result<(), String> {
    let doc = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read the ledger at {}: {e}", path.display()))?;
    let section = ledger::extract_section(&doc, "server").ok_or_else(|| {
        format!(
            "{} has no server section — run the main loadgen leg first",
            path.display()
        )
    })?;
    let spliced = splice_u64_field(
        &section,
        "warm_restart_first_micros",
        report.first_latency_micros,
    );
    ledger::update_section(path, "server", &spliced)
        .map_err(|e| format!("cannot write perf ledger: {e}"))
}

fn main() -> ExitCode {
    let mut args = parse_args();
    if let Some(path) = &args.addr_file {
        match std::fs::read_to_string(path) {
            Ok(text) => args.config.addr = text.trim().to_string(),
            Err(e) => {
                eprintln!("loadgen: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if args.config.addr.is_empty() {
        usage();
    }
    let report = match run(&args.config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("loadgen: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The human-readable summary goes to stderr so `--table` leaves stdout
    // byte-comparable against `repro --exp fig4`.
    eprintln!(
        "loadgen: {} responses in {:.2}s ({:.1} req/s), p50 {}us p99 {}us, \
         {} hits / {} misses (hit rate {:.2}), hit speedup {:.1}x, \
         first request {}us ({})",
        report.responses,
        report.wall_seconds,
        report.requests_per_sec(),
        RunReport::percentile(&report.latencies_micros, 50.0),
        RunReport::percentile(&report.latencies_micros, 99.0),
        report.hits,
        report.misses,
        report.hit_rate(),
        report.hit_speedup(),
        report.first_latency_micros,
        if report.first_hit { "hit" } else { "miss" },
    );
    if args.table {
        match report.fig4_table() {
            Some(table) => print!("{table}"),
            None => {
                eprintln!("loadgen: run did not cover every FIG-4 cell, no table");
                return ExitCode::FAILURE;
            }
        }
    }
    if args.require_hits && report.hits == 0 {
        eprintln!("loadgen: required warm-cache hits, saw none");
        return ExitCode::FAILURE;
    }
    if args.require_first_hit && !report.first_hit {
        eprintln!(
            "loadgen: required the first response to be served warm, it was a miss \
             (is the server running on a populated --cache-dir?)"
        );
        return ExitCode::FAILURE;
    }
    if let Some(path) = &args.bench_out {
        let written = if args.restart_leg {
            record_restart_leg(path, &report)
        } else {
            query_warm_ups(&args.config.addr).and_then(|warm_ups| {
                let mix = fig4_mix(args.config.requests, args.config.rng_seed);
                let distinct_keys = distinct_warm_keys(&mix);
                eprintln!(
                    "loadgen: {warm_ups} warm-up(s) for {distinct_keys} distinct warm key(s)"
                );
                let section = section_json(&args, &report, warm_ups, distinct_keys);
                ledger::update_section(path, "server", &section)
                    .map_err(|e| format!("cannot write perf ledger: {e}"))
            })
        };
        match written {
            Ok(()) => eprintln!("perf ledger updated: {}", path.display()),
            Err(e) => {
                eprintln!("loadgen: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if args.shutdown {
        let sent = Client::connect(&args.config.addr)
            .and_then(|mut c| c.roundtrip("{\"cmd\":\"shutdown\"}"));
        if let Err(e) = sent {
            eprintln!("loadgen: shutdown request failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::splice_u64_field;

    #[test]
    fn splice_appends_a_missing_field() {
        assert_eq!(
            splice_u64_field(r#"{"a":1,"b":2}"#, "warm_restart_first_micros", 42),
            r#"{"a":1,"b":2,"warm_restart_first_micros":42}"#
        );
    }

    #[test]
    fn splice_overwrites_an_existing_field() {
        assert_eq!(
            splice_u64_field(
                r#"{"a":1,"warm_restart_first_micros":7,"b":2}"#,
                "warm_restart_first_micros",
                42
            ),
            r#"{"a":1,"warm_restart_first_micros":42,"b":2}"#
        );
        assert_eq!(
            splice_u64_field(
                r#"{"a":1,"warm_restart_first_micros":7}"#,
                "warm_restart_first_micros",
                42
            ),
            r#"{"a":1,"warm_restart_first_micros":42}"#
        );
    }
}
