//! `serve_hot` and `serve_churn`: a real `simserved` child driven over TCP
//! by closed-loop connections (a sweep script waits for each answer before
//! it asks again), one per host core.
//!
//! * `serve_hot` asks for the 12 FIG-4 cells at scale 1 from a cache filled
//!   in set-up: every timed request is a memory hit with a ~1 ms tail, so
//!   socket, poll loop, hand-off, JSON, cache lookup and restore dominate
//!   and the kernel does little.
//! * `serve_churn` runs with `--cache-dir`, asks for a whole six-point axis
//!   per request at scale 4, and asks every third time for a fresh key (a
//!   true warm-up and a spill store), otherwise for one of the last 36
//!   keys — 4.5 times the cache capacity of 8, so most revisits miss
//!   memory and load the spill. Warm-ups, tails, eviction and spill I/O
//!   dominate; per-request server overhead is under a tenth of latency, so
//!   a server-stack gain is predicted to show nothing here. The split
//!   keeps p50 inside the revisit mode and p95 inside the fresh mode.

use crate::client::Client;
use crate::json::{self, Json};
use crate::metrics::Metrics;
use crate::rng::Rng;
use crate::run::{finish_trace, peak_rss_mb, timed_setup, Outcome, RunArgs};
use crate::server_proc::{locate_simserved, ServerProc};
use crate::stats::{highest_percentile, median, quantile_sorted, quartiles, sorted};
use crate::trace::Tracer;
use crate::workloads::fast_gear::checkpoint_probe;
use mpsoc_platform::build_platform;
use mpsoc_platform::service::{
    cold_point, protocol_wire_name, serve_points, topology_wire_name, warm_state,
    workload_wire_name, SweepRequest, WarmState,
};
use mpsoc_platform::{Topology, Workload};
use mpsoc_protocol::ProtocolKind;
use mpsoc_server::protocol::{
    parse_command, simulate_response, CacheOutcome, Command, PointResult,
};
use mpsoc_server::{DiskCache, WarmCache};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Which of the two workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Churn,
}

/// The FIG-4 sweep axis.
pub const FIG4_SWEEP: [u32; 6] = [1, 2, 4, 8, 16, 32];

/// One `serve_churn` request in this many is checked against an
/// in-process reference, up to [`VERIFY_CAP`].
const VERIFY_ONE_IN: usize = 20;
const VERIFY_CAP: usize = 24;

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Hot => "serve_hot",
            Kind::Churn => "serve_churn",
        }
    }

    fn scale(self, quick: bool) -> u64 {
        match self {
            Kind::Hot => 1,
            Kind::Churn if quick => 1,
            Kind::Churn => 4,
        }
    }

    /// Requests of connection 0 replayed in-process by the traced run.
    fn replay_len(self, quick: bool) -> usize {
        match (self, quick) {
            (_, true) => 12,
            (Kind::Hot, false) => 1000,
            (Kind::Churn, false) => 120,
        }
    }
}

/// One request: the line sent, the sweep points it asks for, and whether
/// its warm key is new to the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub line: String,
    pub points: Vec<SweepRequest>,
    pub fresh: bool,
}

fn request(id: u64, base: &SweepRequest, axis: &[u32], fresh: bool) -> Request {
    let wait_states = match axis {
        [one] => one.to_string(),
        many => format!(
            "[{}],\"jobs\":2",
            many.iter()
                .map(u32::to_string)
                .collect::<Vec<_>>()
                .join(",")
        ),
    };
    Request {
        line: format!(
            "{{\"id\":{id},\"protocol\":\"{}\",\"topology\":\"{}\",\"workload\":\"{}\",\
             \"scale\":{},\"seed\":{},\"wait_states\":{wait_states}}}",
            protocol_wire_name(base.protocol),
            topology_wire_name(base.topology),
            workload_wire_name(base.workload),
            base.scale,
            base.seed,
        ),
        points: axis
            .iter()
            .map(|&ws| SweepRequest {
                wait_states: ws,
                ..base.clone()
            })
            .collect(),
        fresh,
    }
}

/// The platform shapes `serve_churn` draws its keys from.
const SHAPES: [(ProtocolKind, Topology); 6] = [
    (ProtocolKind::StbusT3, Topology::Collapsed),
    (ProtocolKind::StbusT3, Topology::Distributed),
    (ProtocolKind::Ahb, Topology::Collapsed),
    (ProtocolKind::Ahb, Topology::Distributed),
    (ProtocolKind::Axi, Topology::Collapsed),
    (ProtocolKind::Axi, Topology::Distributed),
];

/// Keys of each shape a connection revisits among: 18 keys a connection,
/// 36 over two connections — 4.5 times the server's cache capacity of 8.
const HISTORY_PER_SHAPE: usize = 3;

/// What one request of a pass asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// `serve_hot`: one FIG-4 cell.
    Cell(Topology, u32),
    /// `serve_churn`: a key of this shape the server has not seen.
    Fresh(usize),
    /// `serve_churn`: one of the last keys of this shape.
    Revisit(usize),
}

/// The seeded request stream of one connection: pass after pass of the
/// same slots in a freshly shuffled order, so every pass carries the same
/// mix of work and pass times compare.
#[derive(Debug, Clone)]
pub struct Stream {
    kind: Kind,
    rng: Rng,
    scale: u64,
    next_id: u64,
    /// The slots of the current pass not yet asked for.
    pass: Vec<Slot>,
    /// `serve_churn`: per shape, the keys this connection may revisit,
    /// oldest first.
    history: [VecDeque<SweepRequest>; SHAPES.len()],
}

impl Stream {
    pub fn new(kind: Kind, seed: u64, connection: u64, quick: bool) -> Stream {
        Stream {
            kind,
            rng: Rng::new(seed, 0x5e7e + connection),
            scale: kind.scale(quick),
            next_id: 1,
            pass: Vec::new(),
            history: Default::default(),
        }
    }

    /// Requests per pass: the 12 FIG-4 cells, or one fresh key and two
    /// revisits of each of the 6 shapes.
    pub fn pass_len(&self) -> usize {
        match self.kind {
            Kind::Hot => 2 * FIG4_SWEEP.len(),
            Kind::Churn => 3 * SHAPES.len(),
        }
    }

    fn next_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// `serve_churn` set-up: requests for `per_shape` fresh keys of every
    /// shape, which become this connection's revisit history, so the
    /// window starts in steady state instead of growing its working set.
    pub fn fill_history(&mut self, per_shape: usize) -> Vec<Request> {
        let mut fill = Vec::new();
        for _ in 0..per_shape {
            for shape in 0..SHAPES.len() {
                let key = self.fresh_key(shape);
                fill.push(request(self.next_id(), &key, &FIG4_SWEEP, true));
            }
        }
        fill
    }

    /// Draws a key the server has not seen and remembers it for revisits.
    fn fresh_key(&mut self, shape: usize) -> SweepRequest {
        let (protocol, topology) = SHAPES[shape];
        let key = SweepRequest {
            protocol,
            topology,
            workload: Workload::BurstyPosted,
            scale: self.scale,
            seed: self.rng.sim_seed(),
            ..SweepRequest::default()
        };
        let history = &mut self.history[shape];
        if history.len() == HISTORY_PER_SHAPE {
            history.pop_front();
        }
        history.push_back(key.clone());
        key
    }

    /// Draws the next request.
    pub fn next_request(&mut self) -> Request {
        if self.pass.is_empty() {
            match self.kind {
                Kind::Hot => {
                    for topology in [Topology::Collapsed, Topology::Distributed] {
                        self.pass
                            .extend(FIG4_SWEEP.iter().map(|&ws| Slot::Cell(topology, ws)));
                    }
                }
                Kind::Churn => {
                    for shape in 0..SHAPES.len() {
                        self.pass.extend([
                            Slot::Fresh(shape),
                            Slot::Revisit(shape),
                            Slot::Revisit(shape),
                        ]);
                    }
                }
            }
            self.rng.shuffle(&mut self.pass);
        }
        let id = self.next_id();
        match self.pass.pop().expect("refilled above") {
            Slot::Cell(topology, ws) => {
                // The repository's reference FIG-4 table under every
                // `--seed`, which only shuffles the order of asking: at
                // scale 1 the cost of the twelve tails differs 2x between
                // simulation seeds (6.4 to 15 ms, measured), which would
                // bury the server stack this workload is there to show.
                let base = SweepRequest {
                    topology,
                    scale: self.scale,
                    ..SweepRequest::default()
                };
                request(id, &base, &[ws], false)
            }
            Slot::Fresh(shape) => {
                let key = self.fresh_key(shape);
                request(id, &key, &FIG4_SWEEP, true)
            }
            // Before any key of the shape exists, a revisit has to be a
            // first visit.
            Slot::Revisit(shape) if self.history[shape].is_empty() => {
                let key = self.fresh_key(shape);
                request(id, &key, &FIG4_SWEEP, true)
            }
            Slot::Revisit(shape) => {
                let at = self.rng.below(self.history[shape].len());
                let key = self.history[shape][at].clone();
                request(id, &key, &FIG4_SWEEP, false)
            }
        }
    }
}

/// A decoded `simulate` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub micros: u64,
    pub exec_cycles: Vec<u64>,
}

/// Decodes a response line; anything but `"status":"ok"` with one
/// `exec_cycles` per point is an error.
pub fn decode_response(line: &str) -> Result<Response, String> {
    let doc = json::parse(line)?;
    if doc.get("status").and_then(Json::as_str) != Some("ok") {
        return Err(format!("server answered {line}"));
    }
    let micros = doc
        .get("micros")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("no micros in {line}"))?;
    let exec_cycles = doc
        .get("points")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("no points in {line}"))?
        .iter()
        .map(|p| p.get("exec_cycles").and_then(Json::as_u64))
        .collect::<Option<Vec<u64>>>()
        .ok_or_else(|| format!("a point without exec_cycles in {line}"))?;
    Ok(Response {
        micros,
        exec_cycles,
    })
}

/// The counters of the `stats` command.
pub type ServerStats = BTreeMap<String, f64>;

fn server_stats(client: &mut Client<std::net::TcpStream>) -> Result<ServerStats, String> {
    let line = client
        .roundtrip("{\"cmd\":\"stats\"}")
        .map_err(|e| format!("stats: {e}"))?;
    match json::parse(&line)?.get("stats") {
        Some(Json::Obj(members)) => Ok(members
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
            .collect()),
        _ => Err(format!("no stats in {line}")),
    }
}

/// One timed request as the client saw it.
#[derive(Debug, Clone)]
struct Sample {
    /// When the request was sent, from the start of the window.
    start_ns: u64,
    latency_ns: u64,
    micros: u64,
    fresh: bool,
    cycles: u64,
}

/// What one connection brings back from the timed window.
#[derive(Debug, Default)]
struct ConnectionLog {
    samples: Vec<Sample>,
    /// Each complete pass of [`Stream::pass_len`] requests: when it started (from
    /// the start of the window), how long it took, whether it was traced.
    passes: Vec<(u64, u64, bool)>,
    /// Requests kept for checking, with the cycles the server answered.
    kept: Vec<(Request, Vec<u64>)>,
    /// Requests that errored or were refused.
    failures: Vec<String>,
}

/// Drives one closed-loop connection until `deadline` (and at least
/// `min_requests`). Latency runs from just before the single write to the
/// parsed response.
fn drive(
    args: &RunArgs,
    connection: u64,
    addr: &str,
    mut stream: Stream,
    deadline: Instant,
    min_requests: usize,
    tracer: &mut Tracer,
) -> Result<ConnectionLog, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut log = ConnectionLog::default();
    let epoch = tracer.epoch();
    let mut keep = Rng::new(args.seed, 0xc4ec + connection);
    let mut pass = 0u64;
    'window: loop {
        let traced = args.trace && pass % 2 == 1;
        tracer.set_enabled(traced);
        let pass_started = Instant::now();
        for _ in 0..stream.pass_len() {
            if log.samples.len() >= min_requests && Instant::now() >= deadline {
                break 'window;
            }
            let req = stream.next_request();
            let op_id = (connection << 32) | log.samples.len() as u64;
            let open = tracer.begin("client.roundtrip", op_id);
            let started = Instant::now();
            let answer = client
                .roundtrip(&req.line)
                .map_err(|e| format!("connection {connection}: {e}"))?;
            let decoded = decode_response(&answer);
            let latency_ns = started.elapsed().as_nanos() as u64;
            tracer.end(open);
            match decoded {
                Ok(resp) if resp.exec_cycles.len() == req.points.len() => {
                    if let Some((start, end)) = tracer.interval(open) {
                        // The server's own time, centred in the round trip:
                        // what is left on either side is transport.
                        let handle_ns = (resp.micros * 1000).min(end - start);
                        let lead = (end - start - handle_ns) / 2;
                        tracer.synthesize(
                            "server.handle",
                            op_id,
                            open,
                            start + lead,
                            start + lead + handle_ns,
                        );
                    }
                    log.samples.push(Sample {
                        start_ns: started.duration_since(epoch).as_nanos() as u64,
                        latency_ns,
                        micros: resp.micros,
                        fresh: req.fresh,
                        cycles: resp.exec_cycles.iter().sum(),
                    });
                    let wanted = match stream.kind {
                        Kind::Hot => true,
                        Kind::Churn => {
                            keep.below(VERIFY_ONE_IN) == 0 && log.kept.len() < VERIFY_CAP
                        }
                    };
                    if wanted {
                        log.kept.push((req, resp.exec_cycles));
                    }
                }
                Ok(resp) => log.failures.push(format!(
                    "{}: {} points answered for {} asked",
                    req.line,
                    resp.exec_cycles.len(),
                    req.points.len()
                )),
                Err(why) => log.failures.push(why),
            }
        }
        log.passes.push((
            pass_started.duration_since(epoch).as_nanos() as u64,
            pass_started.elapsed().as_nanos() as u64,
            traced,
        ));
        pass += 1;
    }
    tracer.set_enabled(false);
    Ok(log)
}

/// The cycle-accurate in-process answer to `points` (one warm key): what
/// `service::cold_point` returns for each, with the warm-up shared.
fn reference_cycles(points: &[SweepRequest]) -> Result<Vec<u64>, String> {
    match points {
        [one] => Ok(vec![cold_point(one).map_err(|e| e.to_string())?]),
        many => {
            let warm = warm_state(&many[0]).map_err(|e| e.to_string())?;
            serve_points(many.to_vec(), &warm, 1)
                .into_iter()
                .map(|r| r.map_err(|e| e.to_string()))
                .collect()
        }
    }
}

/// A started server with its cache in the state the timed window expects.
struct Ready {
    server: ServerProc,
    /// The streams, advanced past the requests set-up already sent.
    streams: Vec<Stream>,
    first_request_ms: f64,
    /// Distinct warm keys set-up asked for: each cost the server one
    /// warm-up.
    fresh_keys_sent: u64,
}

/// Spawns the server, times its first (cold) request, and fills the cache:
/// `serve_hot` asks for all 12 cells once; `serve_churn` runs each stream
/// until its revisit history is full, so the window starts in steady state.
fn set_up(kind: Kind, args: &RunArgs, connections: usize) -> Result<Ready, String> {
    let binary = locate_simserved(&args.bench_dir)?;
    let scratch =
        std::env::var_os("MPSOC_BENCH_SCRATCH").map_or_else(|| args.out_dir(), Into::into);
    let server = ServerProc::spawn(&binary, &scratch, kind == Kind::Churn)?;
    let mut streams: Vec<Stream> = (0..connections as u64)
        .map(|c| Stream::new(kind, args.seed, c, args.quick))
        .collect();
    let mut client =
        Client::connect(server.addr()).map_err(|e| format!("connect {}: {e}", server.addr()))?;
    let mut first_request_ms = None;
    let mut keys_sent = std::collections::BTreeSet::new();
    for (index, stream) in streams.iter_mut().enumerate() {
        let fill: Vec<Request> = match kind {
            // `serve_hot` connections share their cells: one pass, asked
            // once, fills the cache for all of them. The stream itself is
            // left untouched, so the window opens on a whole pass.
            Kind::Hot if index == 0 => {
                let mut pass = stream.clone();
                (0..pass.pass_len()).map(|_| pass.next_request()).collect()
            }
            Kind::Hot => Vec::new(),
            Kind::Churn => stream.fill_history(if args.quick { 1 } else { HISTORY_PER_SHAPE }),
        };
        for req in fill {
            let started = Instant::now();
            let answer = client
                .roundtrip(&req.line)
                .map_err(|e| format!("set-up request: {e}"))?;
            first_request_ms.get_or_insert(started.elapsed().as_secs_f64() * 1e3);
            decode_response(&answer)?;
            keys_sent.insert(req.points[0].warm_key());
        }
    }
    Ok(Ready {
        server,
        streams,
        first_request_ms: first_request_ms.unwrap_or(0.0),
        fresh_keys_sent: keys_sent.len() as u64,
    })
}

/// What the timed window brought back.
struct Window {
    logs: Vec<ConnectionLog>,
    /// The connections' spans, merged.
    tracer: Tracer,
    elapsed_s: f64,
    /// The server's counters just before and just after the window.
    before: ServerStats,
    after: ServerStats,
    child_rss_mb: f64,
}

impl Window {
    fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.logs.iter().flat_map(|l| &l.samples)
    }

    /// Growth of a server counter over the window.
    fn delta(&self, counter: &str) -> f64 {
        let read = |stats: &ServerStats| stats.get(counter).copied().unwrap_or(0.0);
        read(&self.after) - read(&self.before)
    }
}

/// The timed window: one thread per connection, all joined before
/// anything is read.
fn timed_window(
    args: &RunArgs,
    server: &ServerProc,
    streams: Vec<Stream>,
) -> Result<Window, String> {
    let addr = server.addr();
    let mut control = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let before = server_stats(&mut control)?;
    let epoch = Instant::now();
    let deadline = epoch + args.window();
    let min_requests = streams[0].pass_len() * if args.quick { 1 } else { 4 };
    let results: Vec<Result<(ConnectionLog, Tracer), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(connection, stream)| {
                scope.spawn(move || {
                    let mut tracer = Tracer::new(epoch, false);
                    drive(
                        args,
                        connection as u64,
                        addr,
                        stream,
                        deadline,
                        min_requests,
                        &mut tracer,
                    )
                    .map(|log| (log, tracer))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("connection thread panicked".into()))
            })
            .collect()
    });
    let elapsed_s = epoch.elapsed().as_secs_f64();
    let after = server_stats(&mut control)?;
    let mut tracer = Tracer::new(epoch, false);
    let mut logs = Vec::new();
    for result in results {
        let (log, connection_tracer) = result?;
        tracer.absorb(connection_tracer);
        logs.push(log);
    }
    Ok(Window {
        logs,
        tracer,
        elapsed_s,
        before,
        after,
        child_rss_mb: peak_rss_mb(server.pid())?,
    })
}

/// Counts the window's operations: every request is one, the refused and
/// errored ones failed; then, outside the window, checks the kept answers
/// against in-process references.
fn verify(window: &Window, out: &mut Outcome) -> Result<(), String> {
    for log in &window.logs {
        out.attempted += log.samples.len() as u64;
        for why in &log.failures {
            out.check(Err(why.clone()));
        }
    }
    let mut references: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for (req, answered) in window.logs.iter().flat_map(|l| &l.kept) {
        let axis: Vec<u32> = req.points.iter().map(|p| p.wait_states).collect();
        let key = format!("{}/{axis:?}", req.points[0].warm_key());
        let expected = match references.get(&key) {
            Some(known) => known.clone(),
            None => {
                let computed = reference_cycles(&req.points)?;
                references.insert(key, computed.clone());
                computed
            }
        };
        out.check((*answered == expected).then_some(()).ok_or_else(|| {
            format!(
                "{}: served {answered:?}, in-process reference {expected:?}",
                req.line
            )
        }));
    }
    Ok(())
}

/// The per-layer metrics the wire and the server's own counters give, and
/// the checks that the workload exercised the layer it was chosen for.
fn wire_layer_metrics(
    kind: Kind,
    args: &RunArgs,
    window: &Window,
    first_request_ms: f64,
    fresh_keys_sent: u64,
    out: &mut Outcome,
) {
    let m = &mut out.metrics;
    let p50 = |values: Vec<f64>| {
        if values.is_empty() {
            0.0
        } else {
            median(&values)
        }
    };
    let latencies_ms = |keep: &dyn Fn(&Sample) -> bool| -> Vec<f64> {
        window
            .samples()
            .filter(|s| keep(s))
            .map(|s| s.latency_ns as f64 / 1e6)
            .collect()
    };
    m.set(
        "server.handle_p50_ms",
        p50(window.samples().map(|s| s.micros as f64 / 1e3).collect()),
    );
    m.set(
        "server.transport_p50_us",
        p50(window
            .samples()
            .map(|s| s.latency_ns as f64 / 1e3 - s.micros as f64)
            .collect()),
    );
    m.set("server.first_request_ms", first_request_ms);
    m.set("server.fresh_p50_ms", p50(latencies_ms(&|s| s.fresh)));
    m.set("server.revisit_p50_ms", p50(latencies_ms(&|s| !s.fresh)));
    m.set(
        "server.latency_p99_ms",
        quantile_sorted(&sorted(&latencies_ms(&|_| true)), 0.99),
    );
    for (metric, counter) in [
        ("server.warm_ups", "warm_ups"),
        ("server.mem_hits", "hits"),
        ("server.spill_loads", "spill_loads"),
        ("server.spill_stores", "spill_stores"),
        ("server.evictions", "evictions"),
        ("server.coalesced", "coalesced"),
        ("server.errors", "errors"),
    ] {
        m.set(metric, window.delta(counter));
    }
    let lookups = window.delta("hits") + window.delta("misses");
    if lookups > 0.0 {
        m.set("server.mem_hit_ratio", window.delta("hits") / lookups);
    }
    // Over the server's whole life: every fresh key sent, set-up included,
    // must have cost exactly one warm-up.
    let fresh_keys = fresh_keys_sent + window.samples().filter(|s| s.fresh).count() as u64;
    m.set(
        "server.warmups_per_fresh_key",
        window.after.get("warm_ups").copied().unwrap_or(0.0) / fresh_keys as f64,
    );
    let pass_walls = |traced: bool| -> Vec<f64> {
        window
            .logs
            .iter()
            .flat_map(|l| &l.passes)
            .filter(|(_, _, t)| *t == traced)
            .map(|(_, wall_ns, _)| *wall_ns as f64)
            .collect()
    };
    let (traced_walls, plain_walls) = (pass_walls(true), pass_walls(false));
    if !traced_walls.is_empty() && !plain_walls.is_empty() {
        m.set(
            "bench.trace_overhead_frac",
            median(&traced_walls) / median(&plain_walls) - 1.0,
        );
    }

    // Each workload must demonstrably exercise the layer it was chosen
    // for and bypass the other.
    let reading = |name: &str| m.get(name).unwrap_or(0.0);
    let layer_checks: Vec<(&str, bool)> = match kind {
        Kind::Hot => vec![
            ("spill_loads == 0", reading("server.spill_loads") == 0.0),
            ("spill_stores == 0", reading("server.spill_stores") == 0.0),
            ("evictions == 0", reading("server.evictions") == 0.0),
            ("mem_hit_ratio == 1", reading("server.mem_hit_ratio") == 1.0),
        ],
        Kind::Churn => vec![
            (
                "warmups_per_fresh_key == 1",
                reading("server.warmups_per_fresh_key") == 1.0,
            ),
            // Quick mode keeps fewer keys than the cache holds.
            (
                "spill_loads > 0",
                args.quick || reading("server.spill_loads") > 0.0,
            ),
        ],
    };
    for (what, holds) in layer_checks {
        out.check(
            holds
                .then_some(())
                .ok_or_else(|| format!("{}: expected server.{what}", kind.name())),
        );
    }
}

/// Runs the workload.
pub fn run(kind: Kind, args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let connections = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (ready, setup_s) = timed_setup(args, || set_up(kind, args, connections))?;
    let Ready {
        server,
        streams,
        first_request_ms,
        fresh_keys_sent,
    } = ready;
    let replayed = streams[0].clone();
    let mut window = timed_window(args, &server, streams)?;
    out.check(
        server
            .shutdown()
            .map_err(|e| format!("simserved shutdown: {e}")),
    );
    verify(&window, &mut out)?;

    let latencies = sorted(
        &window
            .samples()
            .map(|s| s.latency_ns as f64)
            .collect::<Vec<_>>(),
    );
    if latencies.is_empty() {
        return Err("no request completed in the timed window".into());
    }
    out.note(format!(
        "{} requests over {connections} closed-loop connections in {:.2} s ({} fresh keys, {} answers checked against in-process references)",
        latencies.len(),
        window.elapsed_s,
        window.samples().filter(|s| s.fresh).count(),
        window.logs.iter().map(|l| l.kept.len()).sum::<usize>(),
    ));
    let (q1, q2, q3) = quartiles(&latencies);
    out.note(format!(
        "latency over the whole window, host noise included: q1 {:.3} median {:.3} q3 {:.3} ms",
        q1 / 1e6,
        q2 / 1e6,
        q3 / 1e6
    ));
    if let Some(p) = highest_percentile(latencies.len()) {
        out.note(format!(
            "highest percentile with >= 10 samples beyond it: p{} = {:.3} ms",
            p * 100.0,
            quantile_sorted(&latencies, p) / 1e6
        ));
    }

    if args.trace {
        wire_layer_metrics(
            kind,
            args,
            &window,
            first_request_ms,
            fresh_keys_sent,
            &mut out,
        );
        // Attribute the wire latency downward: the same request lines
        // through the same public functions, one span per call.
        replay(
            kind,
            args,
            replayed,
            &window.logs[0],
            &mut window.tracer,
            &mut out,
        )?;
        finish_trace(args, kind.name(), &window.tracer, &mut out)?;
    } else {
        end_to_end(&window.logs, args.seconds, &mut out.metrics)?;
        out.metrics.set("setup_s", setup_s);
        out.metrics.set("peak_rss_mb", window.child_rss_mb);
    }
    Ok(out)
}

/// Passes a block should hold, so that its median pass time ranks it.
const PASSES_PER_BLOCK: usize = 8;

/// The end-to-end metrics of a serve workload, read in the quietest third
/// of the window.
///
/// The host slows by up to 1.7x for tens of seconds at a time (README,
/// "Steadiness"), and a percentile over the whole window then reads
/// whichever share of it was slow. So the window is cut into equal blocks
/// of about [`PASSES_PER_BLOCK`] passes (3 to 96 blocks) by the time a
/// request or pass started, the blocks are ranked by their median pass
/// time — passes carry the same mix of work — and every metric is read
/// over the requests of the fastest third of the blocks together. A change
/// to the server moves every block.
///
/// A connection's rate in a block is measured between the starts of its
/// first and last request there (a closed loop starts a request when the
/// one before it is answered), and the connections' rates add up.
fn end_to_end(logs: &[ConnectionLog], window_s: f64, m: &mut Metrics) -> Result<(), String> {
    let passes: usize = logs.iter().map(|l| l.passes.len()).sum();
    let blocks = (passes / PASSES_PER_BLOCK).clamp(3, 96);
    let block_ns = (window_s * 1e9 / blocks as f64).max(1.0);
    // Work past the deadline (a last request, quick mode's minimum) counts
    // toward the last block.
    let block_of = |start_ns: u64| ((start_ns as f64 / block_ns) as usize).min(blocks - 1);
    let walls_of = |block: usize| -> Vec<f64> {
        logs.iter()
            .flat_map(|l| &l.passes)
            .filter(|(start_ns, _, _)| block_of(*start_ns) == block)
            .map(|(_, wall_ns, _)| *wall_ns as f64 / 1e9)
            .collect()
    };
    let mut ranked: Vec<(f64, usize)> = (0..blocks)
        .filter_map(|block| {
            let walls = walls_of(block);
            (!walls.is_empty()).then(|| (median(&walls), block))
        })
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    let quiet: Vec<usize> = ranked.iter().take(blocks / 3).map(|r| r.1).collect();

    let mut latencies = Vec::new();
    let mut walls = Vec::new();
    let (mut requests, mut cycles, mut span_s) = (0.0, 0.0, 0.0);
    for &block in &quiet {
        walls.extend(walls_of(block));
        for log in logs {
            let mine: Vec<&Sample> = log
                .samples
                .iter()
                .filter(|s| block_of(s.start_ns) == block)
                .collect();
            latencies.extend(mine.iter().map(|s| s.latency_ns as f64));
            if let [first, between @ .., last] = mine.as_slice() {
                requests += (between.len() + 1) as f64;
                cycles += (first.cycles + between.iter().map(|s| s.cycles).sum::<u64>()) as f64;
                span_s += (last.start_ns - first.start_ns) as f64 / 1e9;
            }
        }
    }
    if walls.is_empty() || span_s <= 0.0 {
        return Err("too few requests in the timed window to read a rate".into());
    }
    // `span_s` adds up the connections' own spans, so the rate it gives is
    // the mean per connection.
    let connections = logs.len() as f64;
    let latencies = sorted(&latencies);
    m.set("wall_s", median(&walls));
    m.set("req_per_s", connections * requests / span_s);
    m.set("sim_cycles_per_s", connections * cycles / span_s);
    m.set("latency_p50_ms", quantile_sorted(&latencies, 0.50) / 1e6);
    m.set("latency_p95_ms", quantile_sorted(&latencies, 0.95) / 1e6);
    Ok(())
}

/// Replays the first requests of connection 0 in-process through
/// `parse_command → WarmCache → DiskCache | warm_state → serve_points →
/// simulate_response`, a span around each call, and derives the server's
/// per-layer micro-timings from those spans. Whatever of the wire latency
/// the replay does not account for is `server.transport`.
fn replay(
    kind: Kind,
    args: &RunArgs,
    mut stream: Stream,
    wire: &ConnectionLog,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let count = kind.replay_len(args.quick).min(wire.samples.len());
    let cache: WarmCache<WarmState> = WarmCache::new(8);
    let spill_dir = args
        .out_dir()
        .join(format!("replay-spill-{}", std::process::id()));
    let disk = match kind {
        Kind::Hot => None,
        Kind::Churn => {
            Some(DiskCache::open(&spill_dir).map_err(|e| format!("{}: {e}", spill_dir.display()))?)
        }
    };
    tracer.set_enabled(true);
    let mut replayed_cycles = Vec::with_capacity(count);
    let mut warmed: Option<(SweepRequest, Arc<WarmState>)> = None;
    for index in 0..count {
        let req = stream.next_request();
        let op_id = (1 << 40) | index as u64;
        let started = Instant::now();
        let whole = tracer.begin("server.replay", op_id);

        let open = tracer.begin("server.parse", op_id);
        let command = parse_command(&req.line);
        tracer.end(open);
        let Ok(Command::Simulate(sim)) = command else {
            tracer.end(whole);
            return Err(format!("replay: {} does not parse as simulate", req.line));
        };
        let points = sim.points();

        let open = tracer.begin("core.build", op_id);
        let platform = build_platform(&sim.req.base_spec());
        tracer.end(open);
        let fingerprint = platform
            .map_err(|e| e.to_string())?
            .structural_fingerprint();
        let key = sim.req.warm_key();

        let open = tracer.begin("server.cache_lookup", op_id);
        let mut warm = cache.peek(&key, fingerprint);
        tracer.end(open);
        let outcome = if warm.is_some() {
            CacheOutcome::Hit
        } else {
            CacheOutcome::Miss
        };
        if warm.is_none() {
            if let Some(disk) = &disk {
                let open = tracer.begin("server.persist_load", op_id);
                warm = disk.load(&key, fingerprint).map(Arc::new);
                tracer.end(open);
                if warm.is_none() {
                    tracer.rename(open, "server.persist_miss");
                }
            }
            let state = match warm {
                Some(state) => state,
                None => {
                    let open = tracer.begin("core.warm_state", op_id);
                    let state = warm_state(&sim.req);
                    tracer.end(open);
                    let state = Arc::new(state.map_err(|e| e.to_string())?);
                    if let Some(disk) = &disk {
                        let open = tracer.begin("server.persist_store", op_id);
                        disk.store(&key, &state);
                        tracer.end(open);
                    }
                    state
                }
            };
            let open = tracer.begin("server.cache_insert", op_id);
            cache.insert(&key, fingerprint, Arc::clone(&state));
            tracer.end(open);
            warm = Some(state);
        }
        let warm = warm.expect("resident by now");

        let open = tracer.begin("core.serve_points", op_id);
        let tails = serve_points(points.clone(), &warm, sim.jobs.min(2));
        tracer.end(open);
        let cycles = tails
            .into_iter()
            .map(|r| r.map_err(|e| e.to_string()))
            .collect::<Result<Vec<u64>, String>>()?;

        let results: Vec<PointResult> = points
            .iter()
            .zip(&cycles)
            .map(|(p, &exec_cycles)| PointResult {
                wait_states: p.wait_states,
                exec_cycles,
            })
            .collect();
        let open = tracer.begin("server.encode", op_id);
        let line = simulate_response(
            sim.id,
            outcome,
            warm.profile.base_cycles,
            &results,
            started.elapsed().as_micros(),
        );
        tracer.end(open);
        tracer.end(whole);
        std::hint::black_box(line);
        replayed_cycles.push(cycles.iter().sum::<u64>());
        warmed = Some((sim.req.clone(), warm));
    }
    tracer.set_enabled(false);
    drop(disk);
    let _ = std::fs::remove_dir_all(&spill_dir);

    // The replay saw the same lines, so it must have computed the same
    // answers the server sent.
    let wire_cycles: Vec<u64> = wire.samples[..count].iter().map(|s| s.cycles).collect();
    // (A failed request leaves a gap in the samples; it is already counted.)
    out.check(
        (replayed_cycles == wire_cycles || !wire.failures.is_empty())
            .then_some(())
            .ok_or_else(|| {
                "in-process replay computed different cycles than the server answered".to_string()
            }),
    );

    let m: &mut Metrics = &mut out.metrics;
    let med = |name: &str, per: f64| {
        let d = tracer.durations_ns(name);
        if d.is_empty() {
            0.0
        } else {
            median(&d) / per
        }
    };
    m.set("server.parse_us", med("server.parse", 1e3));
    m.set("server.encode_us", med("server.encode", 1e3));
    m.set("server.cache_lookup_us", med("server.cache_lookup", 1e3));
    m.set("server.cache_insert_us", med("server.cache_insert", 1e3));
    m.set("server.persist_store_ms", med("server.persist_store", 1e6));
    m.set("server.persist_load_ms", med("server.persist_load", 1e6));
    m.set("core.build_us", med("core.build", 1e3));
    m.set("core.warm_state_ms", med("core.warm_state", 1e6));
    // One request's tails: a single point on `serve_hot`, the six-point
    // axis fanned over two jobs on `serve_churn`.
    m.set("core.serve_point_ms", med("core.serve_points", 1e6));

    // Costs of the blob the last request forked: what every hit restores
    // and every spill encodes.
    if let Some((req, warm)) = warmed {
        let (checkpoint_us, restore_us, blob_bytes) = checkpoint_probe(&req, &warm)?;
        m.set("kernel.checkpoint_us", checkpoint_us);
        m.set("kernel.restore_us", restore_us);
        m.set("kernel.blob_bytes", blob_bytes);
        if kind == Kind::Churn {
            let key = req.warm_key();
            let (mut encode_us, mut decode_us) = (Vec::new(), Vec::new());
            for _ in 0..11 {
                let started = Instant::now();
                let spill = warm.to_spill_blob(&key);
                encode_us.push(started.elapsed().as_secs_f64() * 1e6);
                let started = Instant::now();
                let back = WarmState::from_spill_blob(&spill, &key, warm.fingerprint);
                decode_us.push(started.elapsed().as_secs_f64() * 1e6);
                back.map_err(|e| format!("spill round trip: {e}"))?;
            }
            m.set("core.spill_encode_us", median(&encode_us));
            m.set("core.spill_decode_us", median(&decode_us));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(kind: Kind, seed: u64, connection: u64, n: usize) -> Vec<Request> {
        let mut s = Stream::new(kind, seed, connection, false);
        (0..n).map(|_| s.next_request()).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream_same_shape() {
        for kind in [Kind::Hot, Kind::Churn] {
            let a = lines(kind, 1, 0, 60);
            assert_eq!(a, lines(kind, 1, 0, 60), "{kind:?}: replayable");
            let b = lines(kind, 2, 0, 60);
            assert_ne!(a, b, "{kind:?}: the seed drives the stream");
            let shape = |rs: &[Request]| {
                rs.iter()
                    .map(|r| (r.points.len(), r.points[0].scale))
                    .collect::<Vec<_>>()
            };
            assert_eq!(shape(&a), shape(&b), "{kind:?}: the shape does not move");
        }
    }

    #[test]
    fn hot_passes_cover_the_twelve_cells_on_two_warm_keys() {
        let reqs = lines(Kind::Hot, 5, 0, 24);
        for pass in reqs.chunks(12) {
            let cells: std::collections::BTreeSet<(String, u32)> = pass
                .iter()
                .map(|r| (r.points[0].warm_key(), r.points[0].wait_states))
                .collect();
            assert_eq!(cells.len(), 12, "each pass asks for every cell once");
        }
        let keys: std::collections::BTreeSet<String> =
            reqs.iter().map(|r| r.points[0].warm_key()).collect();
        assert_eq!(keys.len(), 2);
        assert!(reqs
            .iter()
            .all(|r| r.points[0].seed == SweepRequest::default().seed));
        let other = lines(Kind::Hot, 5, 1, 12);
        assert!(
            keys.contains(&other[0].points[0].warm_key()),
            "connections share the cells"
        );
    }

    #[test]
    fn churn_passes_carry_one_fresh_key_and_two_recent_ones_of_each_shape() {
        let mut stream = Stream::new(Kind::Churn, 9, 0, false);
        let filled = stream.fill_history(HISTORY_PER_SHAPE);
        assert_eq!(filled.len(), 18);
        assert!(filled.iter().all(|r| r.fresh));
        let shape_of = |r: &Request| (r.points[0].protocol, r.points[0].topology);
        let mut seen: Vec<Request> = filled;
        for _ in 0..100 {
            let pass: Vec<Request> = (0..stream.pass_len())
                .map(|_| stream.next_request())
                .collect();
            for shape in SHAPES {
                let of_shape: Vec<&Request> =
                    pass.iter().filter(|r| shape_of(r) == shape).collect();
                assert_eq!(of_shape.len(), 3);
                assert_eq!(of_shape.iter().filter(|r| r.fresh).count(), 1);
            }
            for r in pass {
                let key = r.points[0].warm_key();
                let recent: Vec<String> = seen
                    .iter()
                    .rev()
                    .filter(|s| s.fresh && shape_of(s) == shape_of(&r))
                    .take(HISTORY_PER_SHAPE)
                    .map(|s| s.points[0].warm_key())
                    .collect();
                if r.fresh {
                    assert!(
                        seen.iter().all(|s| s.points[0].warm_key() != key),
                        "a fresh key is new"
                    );
                } else {
                    assert!(
                        recent.contains(&key),
                        "a revisit is among the last 3 of its shape"
                    );
                }
                assert_eq!(r.points.len(), 6, "a whole axis per request");
                seen.push(r);
            }
        }
        let other = lines(Kind::Churn, 9, 1, 10);
        assert!(
            seen.iter()
                .all(|s| s.points[0].seed != other[0].points[0].seed),
            "connections do not share keys"
        );
    }

    #[test]
    fn request_lines_parse_back_to_their_points() {
        for kind in [Kind::Hot, Kind::Churn] {
            for req in lines(kind, 3, 0, 20) {
                let Ok(Command::Simulate(sim)) = parse_command(&req.line) else {
                    panic!("{} must parse", req.line);
                };
                assert_eq!(sim.points(), req.points);
            }
        }
    }

    #[test]
    fn end_to_end_reads_the_quietest_third_of_the_window() {
        // A closed loop of 25 ms requests over 12 s; the host slows the
        // first 8 s by 1.7x, the last 4 s are quiet.
        let mut log = ConnectionLog::default();
        let (mut now, mut pass_started) = (0u64, 0u64);
        while now < 12_000_000_000 {
            let slow = if now < 8_000_000_000 { 1.7 } else { 1.0 };
            let latency_ns = (25_000_000.0 * slow) as u64;
            log.samples.push(Sample {
                start_ns: now,
                latency_ns,
                micros: 1000,
                fresh: false,
                cycles: 100,
            });
            now += latency_ns;
            if log.samples.len() % 12 == 0 {
                log.passes.push((pass_started, now - pass_started, false));
                pass_started = now;
            }
        }
        let mut m = Metrics::default();
        end_to_end(&[log], 12.0, &mut m).expect("measured");
        assert_eq!(
            m.get("latency_p50_ms"),
            Some(25.0),
            "the quiet third's reading"
        );
        assert_eq!(m.get("latency_p95_ms"), Some(25.0));
        assert_eq!(m.get("wall_s"), Some(0.3));
        let rate = m.get("req_per_s").expect("rate");
        assert!((rate - 40.0).abs() < 1e-6, "{rate}");
        let cycles = m.get("sim_cycles_per_s").expect("rate");
        assert!((cycles - 4000.0).abs() < 1e-3, "{cycles}");
    }

    #[test]
    fn responses_decode_or_fail_closed() {
        let ok = decode_response(
            r#"{"id":1,"status":"ok","cache":"hit","base_cycles":5,"points":[{"wait_states":1,"exec_cycles":7},{"wait_states":2,"exec_cycles":9}],"micros":42}"#,
        )
        .expect("decodes");
        assert_eq!(
            ok,
            Response {
                micros: 42,
                exec_cycles: vec![7, 9]
            }
        );
        assert!(decode_response(r#"{"id":1,"status":"error","error":"boom"}"#).is_err());
        assert!(decode_response(r#"{"status":"ok","points":[{}],"micros":1}"#).is_err());
        assert!(decode_response("garbage").is_err());
    }
}
