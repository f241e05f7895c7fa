//! The TCP/JSON-lines sweep server.
//!
//! # Connection layer
//!
//! Every socket blocks; nothing polls and nothing sleeps. The acceptor
//! blocks in `accept` and gives each connection one small **reader
//! thread**, which does blocking line reads and hands one line at a time to
//! the **bounded handler pool** over its channel. The handler serves the
//! line, writes the response itself with a single `write_all`, and only
//! then signals the reader (returning its line buffer), so a connection
//! never has more than one line in flight and responses stay in request
//! order. Simulation work is bounded by the pool (twice the host's cores,
//! clamped to 4 ..= 32, unless the config names a size), not by connection
//! count; an idle connection costs one parked thread with a small stack.
//!
//! `dispatch` deliberately runs on a pool worker, never on the reader: a
//! thread woken by its socket peer is placed by the scheduler where the
//! client runs, and serving a sweep there measurably starves the client
//! (DESIGN.md records the numbers).
//!
//! Limits are constants: a request line longer than [`MAX_LINE_BYTES`] is
//! answered with one error and the connection closed, a connection idle
//! for [`IDLE_TIMEOUT`] is closed, and a response the client does not take
//! within [`WRITE_TIMEOUT`] closes the connection and frees its handler.
//!
//! A `shutdown` request is acknowledged, then the handler flips the
//! running flag and connects to the server's own port to release the
//! acceptor, which half-closes the read side of every live connection:
//! parked readers see end-of-file, in-flight lines finish and are answered,
//! and [`Server::run`] returns once every reader and worker has joined.
//!
//! # Serving path
//!
//! A `simulate` request probes the [`WarmCache`] under the structural
//! fingerprint of the platform it forks into, which a kept platform of its
//! warm key supplies (the [`PlatformPool`]; without one, a platform is
//! built, and on a hit kept for the request's first point). On a hit it
//! forks the blob and serves its point(s) directly. On a miss it goes
//! through the cache's
//! [`get_or_compute`](WarmCache::get_or_compute): the first request for a
//! warm key computes — loading the spilled checkpoint from the
//! [`DiskCache`] if one survives from an earlier process, else running the
//! warm-up and spilling it — while every concurrent request for the same
//! key waits on the cache's condvar and wakes as a hit. Each request then
//! serves its own points on its own handler, so N concurrent misses of one
//! key cost one warm-up and their tails run side by side.
//!
//! A point takes a kept platform of its key from the pool — or builds one
//! if none is free — restores the warm blob into it and runs its tail; a
//! single point gives the platform back, so a hit on a recently served key
//! builds nothing, and the workers of a multi-point axis carry theirs from
//! point to point and drop them when the axis is done
//! ([`service::serve_points_with`] says why). The pool holds as many
//! platforms as the handler pool has workers and evicts the least recently
//! used; `stats` reports `forks_kept` and `forks_built`, the points served
//! on a kept platform and the points that built one.
//!
//! Cache hits and disk loads are byte-identical to cold runs: the warm
//! state is a pure function of the request key, restore is bit-exact and a
//! complete reset (a kept platform answers like a fresh build), and
//! spill files are doubly checksummed and fingerprint-checked (fail
//! closed). CI drives this end to end with the `loadgen` binary and diffs
//! served tables against `repro`'s — including across a server restart.

use crate::cache::{CacheStats, Lookup, WarmCache};
use crate::persist::DiskCache;
use crate::protocol::{self, CacheOutcome, Command, PointResult, Simulate};
use mpsoc_platform::build_platform;
use mpsoc_platform::service::{self, PlatformPool, SweepRequest, WarmState};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum number of warm checkpoints kept alive (LRU beyond that).
    pub cache_capacity: usize,
    /// Directory warm checkpoints are spilled to and lazily re-loaded from
    /// (`None` disables persistence). The `simserved` binary wires
    /// `MPSOC_CACHE_DIR` here.
    pub cache_dir: Option<PathBuf>,
    /// Handler pool size; 0 sizes it from the host's cores.
    pub handlers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            cache_capacity: 8,
            cache_dir: None,
            handlers: 0,
        }
    }
}

/// The host's core count as the kernel sees it (1 when unknown).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn effective_handlers(configured: usize) -> usize {
    if configured > 0 {
        return configured;
    }
    (host_cores() * 2).clamp(4, 32)
}

/// Longest accepted request line, newline excluded.
pub const MAX_LINE_BYTES: usize = 64 * 1024;
/// How long a connection may sit without sending a byte before it is closed.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(300);
/// How long a response may wait for the client to take it.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(10);
/// Stack of a connection's reader thread: it parses nothing and simulates
/// nothing, and an idle connection should cost little beyond it.
const READER_STACK_BYTES: usize = 64 * 1024;

/// The connection limits in force; always [`Limits::DEFAULT`] outside this
/// module's tests, which shorten the timeouts.
#[derive(Debug, Clone, Copy)]
struct Limits {
    max_line: usize,
    idle: Duration,
    write: Duration,
}

impl Limits {
    const DEFAULT: Limits = Limits {
        max_line: MAX_LINE_BYTES,
        idle: IDLE_TIMEOUT,
        write: WRITE_TIMEOUT,
    };
}

struct Shared {
    cache: WarmCache<WarmState>,
    disk: Option<DiskCache>,
    /// The platforms that served a tail, kept for the next fork of their
    /// key; as many as the handler pool has workers.
    pool: PlatformPool,
    /// The bound address, which [`Shared::stop`] connects to.
    addr: SocketAddr,
    running: AtomicBool,
    requests: AtomicU64,
    points: AtomicU64,
    errors: AtomicU64,
    warm_ups: AtomicU64,
    host_cores: usize,
}

impl Shared {
    /// Stops the server: no further line is dispatched, and the acceptor,
    /// blocked in `accept`, is released by a connection to its own port.
    fn stop(&self) {
        self.running.store(false, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }

    /// Fan-out workers for a request's points: the wire-requested job
    /// count clamped to 1 ..= the host's cores, since workers past the
    /// cores only time-slice against each other and the other handlers.
    /// Results are identical for any value by the kernel's determinism
    /// guarantee.
    fn fan_out_jobs(&self, sim: &Simulate) -> usize {
        sim.jobs.clamp(1, self.host_cores)
    }

    fn stats_line(&self) -> String {
        let c = self.cache.stats();
        let d = self.disk.as_ref().map(DiskCache::stats).unwrap_or_default();
        format!(
            "{{\"id\":0,\"status\":\"ok\",\"stats\":{{\"requests\":{},\"points\":{},\"errors\":{},\
             \"warm_ups\":{},\"hits\":{},\"misses\":{},\"evictions\":{},\"stale_rejected\":{},\
             \"hit_rate\":{:.6},\"entries\":{},\"capacity\":{},\
             \"spill_loads\":{},\"spill_stores\":{},\"spill_rejected\":{},\
             \"forks_kept\":{},\"forks_built\":{}}}}}",
            self.requests.load(Ordering::Relaxed),
            self.points.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
            self.warm_ups.load(Ordering::Relaxed),
            c.hits,
            c.misses,
            c.evictions,
            c.stale_rejected,
            c.hit_rate(),
            self.cache.len(),
            self.cache.capacity(),
            d.loads,
            d.stores,
            d.rejected,
            self.pool.forks_kept(),
            self.pool.forks_built(),
        )
    }
}

/// A bound sweep server, ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    handlers: usize,
    limits: Limits,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates socket errors, and spill-directory creation errors when
    /// [`ServerConfig::cache_dir`] is set.
    pub fn bind(addr: &str, config: &ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let disk = match &config.cache_dir {
            Some(dir) => Some(DiskCache::open(dir)?),
            None => None,
        };
        let handlers = effective_handlers(config.handlers);
        Ok(Server {
            listener,
            handlers,
            limits: Limits::DEFAULT,
            shared: Arc::new(Shared {
                cache: WarmCache::new(config.cache_capacity),
                disk,
                pool: PlatformPool::new(handlers),
                addr,
                running: AtomicBool::new(true),
                requests: AtomicU64::new(0),
                points: AtomicU64::new(0),
                errors: AtomicU64::new(0),
                warm_ups: AtomicU64::new(0),
                host_cores: host_cores(),
            }),
        })
    }

    /// The bound address (the actual port when bound with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A snapshot of the cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Accepts connections until a `shutdown` request arrives, lets the
    /// in-flight handlers finish, and returns.
    ///
    /// # Errors
    ///
    /// Propagates accept errors.
    pub fn run(self) -> io::Result<()> {
        let shared = &*self.shared;
        let limits = self.limits;
        let pool = HandlerPool::spawn(self.handlers, Arc::clone(&self.shared));
        // Every live connection, so that shutdown can reach the readers
        // parked in a read. A reader removes its own entry when it ends.
        let live: Mutex<HashMap<u64, Arc<Conn>>> = Mutex::new(HashMap::new());
        let outcome = std::thread::scope(|scope| {
            let mut next_id = 0u64;
            let outcome = loop {
                let stream = match self.listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => break Err(e),
                };
                if !shared.running.load(Ordering::SeqCst) {
                    break Ok(());
                }
                if stream.set_nodelay(true).is_err()
                    || stream.set_read_timeout(Some(limits.idle)).is_err()
                    || stream.set_write_timeout(Some(limits.write)).is_err()
                {
                    continue;
                }
                let id = next_id;
                next_id += 1;
                let conn = Arc::new(Conn {
                    stream,
                    returned: Mutex::new(None),
                    ready: Condvar::new(),
                });
                live.lock()
                    .expect("live connections")
                    .insert(id, Arc::clone(&conn));
                let (pool, live) = (&pool, &live);
                let spawned = std::thread::Builder::new()
                    .stack_size(READER_STACK_BYTES)
                    .spawn_scoped(scope, move || {
                        read_requests(&conn, pool, shared, limits);
                        live.lock().expect("live connections").remove(&id);
                    });
                if spawned.is_err() {
                    // Out of threads: refuse this connection, keep serving.
                    live.lock().expect("live connections").remove(&id);
                }
            };
            shared.running.store(false, Ordering::SeqCst);
            for conn in live.lock().expect("live connections").values() {
                let _ = conn.stream.shutdown(Shutdown::Read);
            }
            // Leaving the scope joins every reader, and each of them first
            // waits for the response to its line in flight.
            outcome
        });
        pool.join();
        outcome
    }
}

/// One accepted connection, shared by its reader and by the handler serving
/// its line in flight.
struct Conn {
    stream: TcpStream,
    /// The reader's line buffer, handed back by the handler once the
    /// response is out: the signal that the next line may be dispatched.
    returned: Mutex<Option<String>>,
    ready: Condvar,
}

impl Conn {
    /// Sends one response line as a single blocking write, bounded by the
    /// connection's write timeout.
    fn respond(&self, mut line: String) -> io::Result<()> {
        line.push('\n');
        (&self.stream).write_all(line.as_bytes())
    }
}

/// Bytes read from the socket per `read` call.
const CHUNK: usize = 4096;

/// The blocking line reader of one connection. Bytes past the first
/// newline stay buffered, so several lines sent in one write are served one
/// after the other.
struct LineReader {
    buf: Vec<u8>,
    /// Prefix of `buf` already known to hold no newline.
    scanned: usize,
}

enum NextLine {
    /// A non-empty line is in the caller's buffer.
    Line,
    /// The peer closed its side; a partial last line is dropped.
    Eof,
    /// More than the limit arrived without a newline.
    TooLong,
}

impl LineReader {
    fn new() -> LineReader {
        LineReader {
            // Room for a chunk behind a partial line, without growing.
            buf: Vec::with_capacity(2 * CHUNK),
            scanned: 0,
        }
    }

    /// Reads until `line` holds the next non-empty request line, trimmed.
    fn next_line(
        &mut self,
        mut stream: &TcpStream,
        max_line: usize,
        line: &mut String,
    ) -> io::Result<NextLine> {
        loop {
            if let Some(at) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let end = self.scanned + at;
                line.clear();
                line.push_str(String::from_utf8_lossy(&self.buf[..end]).trim());
                self.buf.drain(..=end);
                self.scanned = 0;
                if line.is_empty() {
                    continue;
                }
                return Ok(NextLine::Line);
            }
            self.scanned = self.buf.len();
            if self.scanned > max_line {
                return Ok(NextLine::TooLong);
            }
            self.buf.resize(self.scanned + CHUNK, 0);
            let read = stream.read(&mut self.buf[self.scanned..]);
            self.buf
                .truncate(self.scanned + read.as_ref().map_or(0, |&n| n));
            match read {
                Ok(0) => return Ok(NextLine::Eof),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// A connection's reader thread: feeds the pool one line at a time until
/// the peer closes, a limit trips, or the server stops.
fn read_requests(conn: &Arc<Conn>, pool: &HandlerPool, shared: &Shared, limits: Limits) {
    let mut reader = LineReader::new();
    let mut line = String::new();
    while shared.running.load(Ordering::SeqCst) {
        match reader.next_line(&conn.stream, limits.max_line, &mut line) {
            Ok(NextLine::Line) => {
                pool.submit(Job {
                    conn: Arc::clone(conn),
                    line,
                });
                // The response goes out before the next line is dispatched
                // (request order); the handler hands the line buffer back.
                let mut returned = conn.returned.lock().expect("returned line");
                line = loop {
                    match returned.take() {
                        Some(line) => break line,
                        None => returned = conn.ready.wait(returned).expect("returned line"),
                    }
                };
            }
            Ok(NextLine::TooLong) => {
                shared.errors.fetch_add(1, Ordering::Relaxed);
                let message = format!("request line exceeds {} bytes", limits.max_line);
                let _ = conn.respond(protocol::error_response(0, &message));
                break;
            }
            // End of file, an idle timeout or a broken socket.
            Ok(NextLine::Eof) | Err(_) => break,
        }
    }
    let _ = conn.stream.shutdown(Shutdown::Both);
}

struct Job {
    conn: Arc<Conn>,
    line: String,
}

struct HandlerPool {
    jobs: Option<mpsc::Sender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl HandlerPool {
    fn spawn(count: usize, shared: Arc<Shared>) -> HandlerPool {
        // At most one line per connection is ever queued.
        let (jobs, feed) = mpsc::channel::<Job>();
        let feed = Arc::new(Mutex::new(feed));
        let workers = (0..count.max(1))
            .map(|_| {
                let feed = Arc::clone(&feed);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || loop {
                    let job = { feed.lock().expect("job feed").recv() };
                    let Ok(Job { conn, line }) = job else { break };
                    let (response, stop) = dispatch(&line, &shared);
                    if conn.respond(response).is_err() {
                        // A client that went away or stopped reading loses
                        // its connection, not a handler.
                        let _ = conn.stream.shutdown(Shutdown::Both);
                    }
                    if stop {
                        shared.stop();
                    }
                    *conn.returned.lock().expect("returned line") = Some(line);
                    conn.ready.notify_one();
                })
            })
            .collect();
        HandlerPool {
            jobs: Some(jobs),
            workers,
        }
    }

    fn submit(&self, job: Job) {
        let _ = self
            .jobs
            .as_ref()
            .expect("pool open until joined")
            .send(job);
    }

    fn join(mut self) {
        self.jobs = None;
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Serves one request line; returns the response line and whether the
/// server should stop.
fn dispatch(line: &str, shared: &Shared) -> (String, bool) {
    match protocol::parse_command(line) {
        Err(message) => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            (protocol::error_response(0, &message), false)
        }
        Ok(Command::Ping) => (protocol::ping_response(0), false),
        Ok(Command::Stats) => (shared.stats_line(), false),
        Ok(Command::Shutdown) => (
            "{\"id\":0,\"status\":\"ok\",\"shutdown\":true}".into(),
            true,
        ),
        Ok(Command::Simulate(sim)) => {
            shared.requests.fetch_add(1, Ordering::Relaxed);
            match serve_simulate(shared, &sim) {
                Ok(response) => (response, false),
                Err(message) => {
                    shared.errors.fetch_add(1, Ordering::Relaxed);
                    (protocol::error_response(sim.id, &message), false)
                }
            }
        }
    }
}

fn serve_simulate(shared: &Shared, sim: &Simulate) -> Result<String, String> {
    let started = Instant::now();
    let points = sim.points();
    let key = sim.req.warm_key();
    // The fingerprint the cached blob must match: the one of the platforms
    // this request forks into. A kept platform of the key answers; without
    // one, a platform is built (wiring only, no simulation).
    let (expected, built) = match shared.pool.fingerprint(&key) {
        Some(fingerprint) => (fingerprint, None),
        None => {
            let platform = build_platform(&sim.req.base_spec()).map_err(|e| e.to_string())?;
            (platform.structural_fingerprint(), Some(platform))
        }
    };

    let (warm, outcome) = match shared.cache.peek(&key, expected) {
        // Fast path: the warm state is already resident, and the request's
        // first point runs on the platform just built, if one was.
        Some(warm) => {
            if let Some(platform) = built {
                shared.pool.offer(key, platform);
            }
            (warm, CacheOutcome::Hit)
        }
        None => {
            // A miss now waits for a warm-up, its own or another request's;
            // a built platform held through that would only raise the
            // memory peak.
            drop(built);
            warm_up(shared, &sim.req, &key, expected)?
        }
    };
    let cells: Vec<u32> = points.iter().map(|p| p.wait_states).collect();
    let tails = service::serve_points_with(&shared.pool, points, &warm, shared.fan_out_jobs(sim));
    let mut out = Vec::with_capacity(tails.len());
    for (ws, tail) in cells.into_iter().zip(tails) {
        out.push(PointResult {
            wait_states: ws,
            exec_cycles: tail.map_err(|e| e.to_string())?,
        });
    }
    shared.points.fetch_add(out.len() as u64, Ordering::Relaxed);
    Ok(protocol::simulate_response(
        sim.id,
        outcome,
        warm.profile.base_cycles,
        &out,
        started.elapsed().as_micros(),
    ))
}

/// Obtains the warm state for a key: cache, then disk spill, then a fresh
/// warm-up (which is spilled for the next process). Concurrent callers for
/// the same key collapse onto one of these inside the cache.
fn warm_up(
    shared: &Shared,
    req: &SweepRequest,
    key: &str,
    expected: u64,
) -> Result<(Arc<WarmState>, CacheOutcome), String> {
    let from_disk = std::cell::Cell::new(false);
    let (warm, lookup) = shared
        .cache
        .get_or_compute(key, expected, || -> mpsoc_kernel::SimResult<WarmState> {
            if let Some(disk) = &shared.disk {
                if let Some(warm) = disk.load(key, expected) {
                    from_disk.set(true);
                    return Ok(warm);
                }
            }
            shared.warm_ups.fetch_add(1, Ordering::Relaxed);
            let warm = service::warm_state(req)?;
            if let Some(disk) = &shared.disk {
                disk.store(key, &warm);
            }
            Ok(warm)
        })
        .map_err(|e| e.to_string())?;
    // A disk load skips the warm-up, which is what "hit" means to clients
    // (and what the restart CI leg asserts); a fresh warm-up is the miss.
    let outcome = match lookup {
        Lookup::Hit => CacheOutcome::Hit,
        Lookup::Miss | Lookup::Stale if from_disk.get() => CacheOutcome::Hit,
        Lookup::Miss | Lookup::Stale => CacheOutcome::Miss,
    };
    Ok((warm, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    /// A server on an ephemeral port with the given limits and pool size.
    fn start(limits: Limits, handlers: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let config = ServerConfig {
            handlers,
            ..ServerConfig::default()
        };
        let mut server = Server::bind("127.0.0.1:0", &config).expect("binds");
        server.limits = limits;
        let addr = server.local_addr();
        (
            addr,
            std::thread::spawn(move || server.run().expect("serves")),
        )
    }

    fn send(mut stream: &TcpStream, request: &str) -> io::Result<()> {
        stream.write_all(format!("{request}\n").as_bytes())
    }

    fn roundtrip(addr: SocketAddr, request: &str) -> String {
        let stream = TcpStream::connect(addr).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("sets the deadline");
        send(&stream, request).expect("sends");
        let mut line = String::new();
        BufReader::new(stream)
            .read_line(&mut line)
            .expect("responds");
        line
    }

    #[test]
    fn an_idle_connection_is_closed_after_the_timeout() {
        let (addr, server) = start(
            Limits {
                idle: Duration::from_millis(100),
                ..Limits::DEFAULT
            },
            1,
        );
        let mut idle = TcpStream::connect(addr).expect("connects");
        idle.set_read_timeout(Some(Duration::from_secs(30)))
            .expect("sets the deadline");
        let mut byte = [0u8; 1];
        assert_eq!(
            idle.read(&mut byte).expect("closed, not timed out"),
            0,
            "the server must hang up on a silent connection"
        );
        assert!(roundtrip(addr, "{\"cmd\":\"shutdown\"}").contains("\"shutdown\":true"));
        server.join().expect("server exits cleanly");
    }

    #[test]
    fn a_client_that_never_reads_cannot_pin_a_handler() {
        // One handler: if the stalled response held it, nobody else would
        // ever be served.
        let (addr, server) = start(
            Limits {
                write: Duration::from_millis(100),
                ..Limits::DEFAULT
            },
            1,
        );
        // An unknown command is echoed in the error, so each 60 KB request
        // earns a 60 KB response; 400 of them overrun any socket buffering.
        let request = format!("{{\"cmd\":\"{}\"}}", "x".repeat(60_000));
        let deaf = TcpStream::connect(addr).expect("connects");
        deaf.set_nodelay(true).expect("sets nodelay");
        deaf.set_write_timeout(Some(Duration::from_millis(200)))
            .expect("sets the deadline");
        let sent = (0..400)
            .take_while(|_| send(&deaf, &request).is_ok())
            .count();
        assert!(
            sent < 400,
            "the unread responses must back up to the sender"
        );

        assert!(roundtrip(addr, "{\"cmd\":\"ping\"}").contains("\"pong\":true"));
        assert!(roundtrip(addr, "{\"cmd\":\"shutdown\"}").contains("\"shutdown\":true"));
        server.join().expect("server exits cleanly");
        drop(deaf);
    }
}
