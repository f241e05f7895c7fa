//! Deterministic load generation against a running sweep server.
//!
//! The generator speaks the JSON-lines protocol over plain [`TcpStream`]s
//! and issues a **seeded, duplicate-heavy fig4 mix**: the first twelve
//! requests cover every cell of the FIG-4 sweep (two topologies × six
//! wait-state values) exactly once, and every further request re-draws a
//! random cell from a seeded xorshift generator. Duplicates land in the
//! server's warm cache, so a run with more requests than cells must see a
//! nonzero hit rate — and because the server's cache contract is
//! *hit == cold run, byte-identical*, every response for the same cell
//! must agree exactly. [`run`] checks that agreement and folds the agreed
//! cells back into the [`Fig4`] table, which CI diffs against the one-shot
//! `repro --exp fig4` output.
//!
//! Two pacing modes: **closed-loop** (N connections, each issuing its next
//! request as soon as the previous response lands — measures capacity) and
//! **open-loop** (one connection paced at a fixed request rate — measures
//! latency under a load the client does not adapt).

use crate::json::{self, Json};
use mpsoc_platform::experiments::{Fig4, Fig4Point};
use mpsoc_platform::service::{topology_wire_name, SweepRequest};
use mpsoc_platform::Topology;
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The FIG-4 wait-state axis, in sweep order.
pub const FIG4_SWEEP: [u32; 6] = [1, 2, 4, 8, 16, 32];

/// The two FIG-4 topologies, in table-column order.
pub const FIG4_TOPOLOGIES: [Topology; 2] = [Topology::Collapsed, Topology::Distributed];

/// A tiny deterministic RNG (xorshift64), so request mixes are replayable
/// from a seed.
#[derive(Debug, Clone)]
pub struct Xorshift64(u64);

impl Xorshift64 {
    /// Seeds the generator (0 is mapped to a fixed non-zero state).
    pub fn new(seed: u64) -> Self {
        Xorshift64(if seed == 0 { 0x9e3779b97f4a7c15 } else { seed })
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// A draw uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One cell of the FIG-4 sweep: a topology and a wait-state value.
pub type Cell = (Topology, u32);

/// Every FIG-4 cell, topology-major, in sweep order.
pub fn fig4_cells() -> Vec<Cell> {
    let mut cells = Vec::with_capacity(FIG4_TOPOLOGIES.len() * FIG4_SWEEP.len());
    for topology in FIG4_TOPOLOGIES {
        for ws in FIG4_SWEEP {
            cells.push((topology, ws));
        }
    }
    cells
}

/// The duplicate-heavy request mix: all cells once (coverage), then seeded
/// random re-draws (duplicates) up to `requests` total.
pub fn fig4_mix(requests: usize, rng_seed: u64) -> Vec<Cell> {
    let cells = fig4_cells();
    let mut rng = Xorshift64::new(rng_seed);
    let mut mix = Vec::with_capacity(requests.max(cells.len()));
    mix.extend(cells.iter().copied());
    while mix.len() < requests {
        mix.push(cells[rng.below(cells.len() as u64) as usize]);
    }
    mix
}

/// Serializes the request line for one FIG-4 cell at `scale`/`seed`.
pub fn request_line(id: u64, cell: Cell, scale: u64, seed: u64) -> String {
    format!(
        "{{\"id\":{id},\"cmd\":\"simulate\",\"topology\":\"{}\",\"scale\":{scale},\
         \"seed\":{seed},\"wait_states\":{}}}",
        topology_wire_name(cell.0),
        cell.1
    )
}

/// Distinct warm keys a mix touches: cells share a warm key exactly when
/// they share a topology (the warm identity excludes the wait-state axis),
/// so this is the number of distinct topologies in the mix.
pub fn distinct_warm_keys(mix: &[Cell]) -> usize {
    let mut seen: Vec<Topology> = Vec::new();
    for &(topology, _) in mix {
        if !seen.contains(&topology) {
            seen.push(topology);
        }
    }
    seen.len()
}

/// Sends one request line, newline appended, as a **single** write. Two
/// writes (line, then newline) stall a request for a delayed-ACK period
/// whenever Nagle's algorithm holds the second back, which is why every
/// client socket here also sets `TCP_NODELAY`.
fn send_line(out: &mut impl Write, line: &str) -> io::Result<()> {
    let mut bytes = Vec::with_capacity(line.len() + 1);
    bytes.extend_from_slice(line.as_bytes());
    bytes.push(b'\n');
    out.write_all(&bytes)
}

/// A blocking JSON-lines client connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request line (appending the newline).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        send_line(&mut self.writer, line)
    }

    /// Receives one response line.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; a closed connection is
    /// [`io::ErrorKind::UnexpectedEof`].
    pub fn recv(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// Sends a request and waits for its response.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn roundtrip(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.recv()
    }
}

/// How the generator paces its requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// `connections` closed loops, each back-to-back.
    Closed {
        /// Parallel connections.
        connections: usize,
    },
    /// One connection, sends paced at a fixed rate regardless of response
    /// progress.
    Open {
        /// Target request rate.
        requests_per_sec: f64,
    },
}

/// One load-generation run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Total requests to issue (at least the 12 coverage requests).
    pub requests: usize,
    /// Pacing mode.
    pub pacing: Pacing,
    /// Workload scale of every request.
    pub scale: u64,
    /// Simulation seed of every request.
    pub seed: u64,
    /// Mix-shuffling RNG seed.
    pub rng_seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        let defaults = SweepRequest::default();
        RunConfig {
            addr: String::new(),
            requests: 48,
            pacing: Pacing::Closed { connections: 4 },
            scale: defaults.scale,
            seed: defaults.seed,
            rng_seed: 1,
        }
    }
}

/// One response, decoded.
#[derive(Debug, Clone)]
struct Observation {
    cell: Cell,
    exec_cycles: u64,
    base_cycles: u64,
    hit: bool,
    latency_micros: u64,
}

/// Aggregated results of a [`run`].
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Responses received.
    pub responses: u64,
    /// Responses served from the warm cache.
    pub hits: u64,
    /// Responses that ran the warm-up themselves.
    pub misses: u64,
    /// Wall-clock duration of the whole run in seconds.
    pub wall_seconds: f64,
    /// All response latencies in microseconds, sorted ascending.
    pub latencies_micros: Vec<u64>,
    /// Latencies of cache-hit responses, sorted ascending.
    pub hit_latencies_micros: Vec<u64>,
    /// Latencies of cache-miss responses, sorted ascending.
    pub miss_latencies_micros: Vec<u64>,
    /// Latency of the run's very first response (request id 0) — the
    /// cold-start figure on a fresh server, the restart figure on a
    /// relaunched one.
    pub first_latency_micros: u64,
    /// Whether the first response was served warm. A server relaunched on
    /// a populated `--cache-dir` must answer its first request from the
    /// disk spill, i.e. as a hit.
    pub first_hit: bool,
    /// The agreed `exec_cycles` per cell.
    pub cells: BTreeMap<(String, u32), u64>,
}

impl RunReport {
    /// Requests per second over the whole run.
    pub fn requests_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.responses as f64 / self.wall_seconds
        }
    }

    /// `hits / responses`, 0 when nothing was served.
    pub fn hit_rate(&self) -> f64 {
        if self.responses == 0 {
            0.0
        } else {
            self.hits as f64 / self.responses as f64
        }
    }

    /// The `p` percentile (0..=100) of a sorted latency series.
    pub fn percentile(sorted: &[u64], p: f64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }

    /// p50 miss latency / p50 hit latency — how much faster forking a
    /// cached warm state is than running the warm-up. 0 when either side
    /// is unobserved.
    pub fn hit_speedup(&self) -> f64 {
        let hit = Self::percentile(&self.hit_latencies_micros, 50.0);
        let miss = Self::percentile(&self.miss_latencies_micros, 50.0);
        if hit == 0 || self.hit_latencies_micros.is_empty() || self.miss_latencies_micros.is_empty()
        {
            0.0
        } else {
            miss as f64 / hit as f64
        }
    }

    /// Folds the agreed cells back into the FIG-4 table. `None` until every
    /// cell of the sweep has been observed.
    pub fn fig4_table(&self) -> Option<Fig4> {
        let mut points = Vec::with_capacity(FIG4_SWEEP.len());
        for ws in FIG4_SWEEP {
            let collapsed = *self
                .cells
                .get(&(topology_wire_name(Topology::Collapsed).to_string(), ws))?;
            let distributed = *self
                .cells
                .get(&(topology_wire_name(Topology::Distributed).to_string(), ws))?;
            points.push(Fig4Point {
                wait_states: ws,
                collapsed_cycles: collapsed,
                distributed_cycles: distributed,
                ratio: collapsed as f64 / distributed.max(1) as f64,
            });
        }
        Some(Fig4 { points })
    }
}

fn decode_response(line: &str, cell: Cell, latency_micros: u64) -> Result<Observation, String> {
    let v = json::parse(line).map_err(|e| format!("unparseable response: {e}"))?;
    match v.get("status").and_then(Json::as_str) {
        Some("ok") => {}
        Some("error") => {
            let msg = v.get("error").and_then(Json::as_str).unwrap_or("unknown");
            return Err(format!("server error: {msg}"));
        }
        _ => return Err(format!("malformed response: {line}")),
    }
    let hit = match v.get("cache").and_then(Json::as_str) {
        Some("hit") => true,
        Some("miss") => false,
        _ => return Err(format!("response without cache outcome: {line}")),
    };
    let base_cycles = v
        .get("base_cycles")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("response without base_cycles: {line}"))?;
    let exec_cycles = v
        .get("points")
        .and_then(Json::as_array)
        .and_then(|pts| pts.first())
        .and_then(|p| p.get("exec_cycles"))
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("response without exec_cycles: {line}"))?;
    Ok(Observation {
        cell,
        exec_cycles,
        base_cycles,
        hit,
        latency_micros,
    })
}

fn fold(observations: Vec<Vec<Observation>>, wall_seconds: f64) -> Result<RunReport, String> {
    let mut report = RunReport {
        wall_seconds,
        ..RunReport::default()
    };
    // Lane 0's first observation is request id 0 in every pacing mode.
    if let Some(first) = observations.first().and_then(|lane| lane.first()) {
        report.first_latency_micros = first.latency_micros;
        report.first_hit = first.hit;
    }
    let mut bases: BTreeMap<(String, u32), u64> = BTreeMap::new();
    for obs in observations.into_iter().flatten() {
        report.responses += 1;
        if obs.hit {
            report.hits += 1;
            report.hit_latencies_micros.push(obs.latency_micros);
        } else {
            report.misses += 1;
            report.miss_latencies_micros.push(obs.latency_micros);
        }
        report.latencies_micros.push(obs.latency_micros);
        let key = (topology_wire_name(obs.cell.0).to_string(), obs.cell.1);
        // The determinism contract: every response for a cell — first
        // (cold) or duplicate (cache fork) — must agree exactly.
        if let Some(&seen) = report.cells.get(&key) {
            if seen != obs.exec_cycles {
                return Err(format!(
                    "cell {}/{} diverged: {seen} vs {} — cache fork is not byte-identical",
                    key.0, key.1, obs.exec_cycles
                ));
            }
        } else {
            report.cells.insert(key.clone(), obs.exec_cycles);
        }
        if let Some(&seen) = bases.get(&key) {
            if seen != obs.base_cycles {
                return Err(format!(
                    "cell {}/{} base diverged: {seen} vs {}",
                    key.0, key.1, obs.base_cycles
                ));
            }
        } else {
            bases.insert(key, obs.base_cycles);
        }
    }
    report.latencies_micros.sort_unstable();
    report.hit_latencies_micros.sort_unstable();
    report.miss_latencies_micros.sort_unstable();
    Ok(report)
}

/// Runs the configured mix against the server and folds the responses.
///
/// # Errors
///
/// Fails on socket errors, on any server-reported error, and — the whole
/// point — if two responses for the same cell disagree.
pub fn run(config: &RunConfig) -> Result<RunReport, String> {
    let mix = fig4_mix(config.requests, config.rng_seed);
    let started = Instant::now();
    let observations = match config.pacing {
        Pacing::Closed { connections } => run_closed(config, &mix, connections.max(1))?,
        Pacing::Open { requests_per_sec } => run_open(config, &mix, requests_per_sec)?,
    };
    fold(observations, started.elapsed().as_secs_f64())
}

fn run_closed(
    config: &RunConfig,
    mix: &[Cell],
    connections: usize,
) -> Result<Vec<Vec<Observation>>, String> {
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(connections);
        for lane in 0..connections {
            let slice: Vec<(usize, Cell)> = mix
                .iter()
                .copied()
                .enumerate()
                .skip(lane)
                .step_by(connections)
                .collect();
            handles.push(scope.spawn(move || -> Result<Vec<Observation>, String> {
                let mut client =
                    Client::connect(&config.addr).map_err(|e| format!("connect: {e}"))?;
                let mut observations = Vec::with_capacity(slice.len());
                for (id, cell) in slice {
                    let line = request_line(id as u64, cell, config.scale, config.seed);
                    let sent = Instant::now();
                    let response = client.roundtrip(&line).map_err(|e| format!("io: {e}"))?;
                    let latency = sent.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                    observations.push(decode_response(&response, cell, latency)?);
                }
                Ok(observations)
            }));
        }
        let mut all = Vec::with_capacity(handles.len());
        for h in handles {
            all.push(
                h.join()
                    .map_err(|_| "loadgen lane panicked".to_string())??,
            );
        }
        Ok(all)
    })
}

fn run_open(
    config: &RunConfig,
    mix: &[Cell],
    requests_per_sec: f64,
) -> Result<Vec<Vec<Observation>>, String> {
    if requests_per_sec <= 0.0 || !requests_per_sec.is_finite() {
        return Err("open-loop rate must be positive".into());
    }
    let interval = Duration::from_secs_f64(1.0 / requests_per_sec);
    let stream = TcpStream::connect(&config.addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let mut reader = BufReader::new(stream);
    std::thread::scope(|scope| {
        let (tx, rx) = std::sync::mpsc::channel::<(Cell, Instant)>();
        // The sender paces by the schedule alone — it never waits for
        // responses, which is what makes the loop open.
        let send_lane = scope.spawn(move || -> Result<(), String> {
            let start = Instant::now();
            for (id, cell) in mix.iter().copied().enumerate() {
                let due = start + interval * id as u32;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let line = request_line(id as u64, cell, config.scale, config.seed);
                send_line(&mut writer, &line).map_err(|e| format!("io: {e}"))?;
                // Latency is measured from the *intended* send instant, not
                // the actual write: when the writer itself falls behind the
                // schedule (server back-pressure), the queueing delay is part
                // of what a paced client experiences. Measuring from the
                // actual write would silently drop that delay — the classic
                // coordinated-omission bug.
                tx.send((cell, due)).map_err(|e| e.to_string())?;
            }
            Ok(())
        });
        let mut observations = Vec::with_capacity(mix.len());
        for (cell, due) in rx {
            let mut response = String::new();
            let n = reader
                .read_line(&mut response)
                .map_err(|e| format!("io: {e}"))?;
            if n == 0 {
                return Err("server closed the connection".into());
            }
            let latency = due.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            observations.push(decode_response(response.trim_end(), cell, latency)?);
        }
        send_lane
            .join()
            .map_err(|_| "open-loop sender panicked".to_string())??;
        Ok(vec![observations])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_covers_every_cell_then_duplicates() {
        let mix = fig4_mix(40, 7);
        assert_eq!(mix.len(), 40);
        let cells = fig4_cells();
        assert_eq!(&mix[..cells.len()], &cells[..], "prefix is full coverage");
        for cell in &mix[cells.len()..] {
            assert!(cells.contains(cell), "duplicates draw from the cell set");
        }
        assert_eq!(mix, fig4_mix(40, 7), "seeded mix is replayable");
        assert_ne!(mix, fig4_mix(40, 8), "different seed, different mix");
    }

    #[test]
    fn percentiles_pick_from_the_sorted_series() {
        let sorted = [10, 20, 30, 40, 100];
        assert_eq!(RunReport::percentile(&sorted, 50.0), 30);
        assert_eq!(RunReport::percentile(&sorted, 0.0), 10);
        assert_eq!(RunReport::percentile(&sorted, 99.0), 100);
        assert_eq!(RunReport::percentile(&[], 50.0), 0);
    }

    #[test]
    fn a_request_is_exactly_one_write() {
        struct Counting {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut out = Counting {
            writes: 0,
            bytes: Vec::new(),
        };
        let line = request_line(1, (Topology::Distributed, 8), 1, 0x0dab);
        send_line(&mut out, &line).expect("writes");
        assert_eq!(out.writes, 1, "line and newline must leave together");
        assert_eq!(out.bytes, format!("{line}\n").into_bytes());
    }

    #[test]
    fn request_lines_parse_back() {
        let line = request_line(3, (Topology::Collapsed, 16), 2, 0x0dab);
        let v = json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("topology").and_then(Json::as_str), Some("collapsed"));
        assert_eq!(v.get("wait_states").and_then(Json::as_u64), Some(16));
        assert_eq!(v.get("coalesce"), None);
        assert_eq!(v.get("tick_jobs"), None);
    }

    #[test]
    fn warm_keys_follow_topologies_not_cells() {
        assert_eq!(distinct_warm_keys(&fig4_mix(48, 1)), 2);
        assert_eq!(distinct_warm_keys(&[(Topology::Collapsed, 1)]), 1);
        assert_eq!(distinct_warm_keys(&[]), 0);
    }

    #[test]
    fn fold_records_the_first_response() {
        let first = Observation {
            cell: (Topology::Collapsed, 4),
            exec_cycles: 100,
            base_cycles: 90,
            hit: true,
            latency_micros: 42,
        };
        let report = fold(vec![vec![first]], 1.0).expect("folds");
        assert_eq!(report.first_latency_micros, 42);
        assert!(report.first_hit);
    }

    #[test]
    fn divergent_duplicate_responses_are_an_error() {
        let a = Observation {
            cell: (Topology::Collapsed, 4),
            exec_cycles: 100,
            base_cycles: 90,
            hit: false,
            latency_micros: 10,
        };
        let mut b = a.clone();
        b.exec_cycles = 101;
        b.hit = true;
        let err = fold(vec![vec![a, b]], 1.0).expect_err("must diverge");
        assert!(err.contains("diverged"), "{err}");
    }

    #[test]
    fn fig4_table_requires_full_coverage() {
        let mut report = RunReport::default();
        assert!(report.fig4_table().is_none());
        for (topology, ws) in fig4_cells() {
            report.cells.insert(
                (topology_wire_name(topology).to_string(), ws),
                1000 + u64::from(ws),
            );
        }
        let table = report.fig4_table().expect("covered");
        assert_eq!(table.points.len(), FIG4_SWEEP.len());
        assert_eq!(table.points[0].wait_states, 1);
    }
}
