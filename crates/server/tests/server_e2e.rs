//! End-to-end loopback tests: a real server on an ephemeral port, driven
//! through real sockets, plus the cache-vs-cold determinism property on
//! randomly drawn sweep requests.

use mpsoc_platform::experiments::Run;
use mpsoc_platform::service::{self, SweepRequest};
use mpsoc_platform::Topology;
use mpsoc_server::loadgen::{self, Client, Pacing, RunConfig};
use mpsoc_server::server::MAX_LINE_BYTES;
use mpsoc_server::{Server, ServerConfig};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Binds a server on an ephemeral loopback port and runs it on a
/// background thread. Returns the address and the join handle; tests must
/// send a shutdown request and join.
fn start_server(cache_capacity: usize) -> (String, std::thread::JoinHandle<()>) {
    let config = ServerConfig {
        cache_capacity,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", &config).expect("binds");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("serves"));
    (addr, handle)
}

/// Like [`start_server`], but with an explicit full config (a disk spill
/// directory).
fn start_server_with(config: ServerConfig) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", &config).expect("binds");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("serves"));
    (addr, handle)
}

fn shutdown(addr: &str) {
    let mut client = Client::connect(addr).expect("connects");
    let line = client
        .roundtrip("{\"cmd\":\"shutdown\"}")
        .expect("responds");
    assert!(line.contains("\"shutdown\":true"), "{line}");
}

fn field_u64(line: &str, field: &str) -> u64 {
    let tag = format!("\"{field}\":");
    let pos = line
        .find(&tag)
        .unwrap_or_else(|| panic!("{field} in {line}"));
    let rest = &line[pos + tag.len()..];
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    rest[..end]
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("{field} in {line}"))
}

#[test]
fn protocol_flow_over_a_real_socket() {
    let (addr, handle) = start_server(4);
    let mut client = Client::connect(&addr).expect("connects");

    // Liveness.
    let pong = client.roundtrip("{\"cmd\":\"ping\"}").expect("responds");
    assert!(pong.contains("\"pong\":true"), "{pong}");

    // Malformed requests produce error responses, not disconnects.
    for bad in ["not json", "{\"cmd\":\"reboot\"}", "{\"protocol\":\"pci\"}"] {
        let line = client.roundtrip(bad).expect("responds");
        assert!(line.contains("\"status\":\"error\""), "{bad} -> {line}");
    }

    // First simulate request: a cold miss.
    let req = "{\"id\":1,\"topology\":\"distributed\",\"scale\":1,\"wait_states\":8}";
    let first = client.roundtrip(req).expect("responds");
    assert!(first.contains("\"cache\":\"miss\""), "{first}");
    let cycles = field_u64(&first, "exec_cycles");

    // The duplicate is a hit and byte-identical in every result field.
    let second = client
        .roundtrip(req.replace("\"id\":1", "\"id\":2").as_str())
        .expect("responds");
    assert!(second.contains("\"cache\":\"hit\""), "{second}");
    assert_eq!(field_u64(&second, "exec_cycles"), cycles);
    assert_eq!(
        field_u64(&first, "base_cycles"),
        field_u64(&second, "base_cycles")
    );

    // The hit matches the service layer's cold reference exactly.
    let reference = service::cold_point(&SweepRequest {
        scale: 1,
        wait_states: 8,
        ..SweepRequest::default()
    })
    .expect("cold run");
    assert_eq!(cycles, reference, "served result must equal a cold run");

    // An array axis fans out in order and reuses the same warm state.
    let sweep = client
        .roundtrip(
            "{\"id\":3,\"topology\":\"distributed\",\"scale\":1,\"wait_states\":[1,8],\"jobs\":2}",
        )
        .expect("responds");
    assert!(sweep.contains("\"cache\":\"hit\""), "{sweep}");
    assert!(
        sweep.contains(&format!("{{\"wait_states\":8,\"exec_cycles\":{cycles}}}")),
        "sweep must contain the point's exact cell: {sweep}"
    );

    // Stats reflect the traffic.
    let stats = client.roundtrip("{\"cmd\":\"stats\"}").expect("responds");
    assert!(field_u64(&stats, "hits") >= 2, "{stats}");
    assert_eq!(field_u64(&stats, "misses"), 1, "{stats}");
    assert_eq!(field_u64(&stats, "entries"), 1, "{stats}");

    shutdown(&addr);
    handle.join().expect("server exits cleanly");
}

#[test]
fn concurrent_duplicates_share_one_warm_up() {
    let (addr, handle) = start_server(4);
    let addr = Arc::new(addr);
    let mut lanes = Vec::new();
    for id in 0..4 {
        let addr = Arc::clone(&addr);
        lanes.push(std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connects");
            let line = client
                .roundtrip(&format!(
                    "{{\"id\":{id},\"topology\":\"collapsed\",\"scale\":1,\"wait_states\":4}}"
                ))
                .expect("responds");
            assert!(line.contains("\"status\":\"ok\""), "{line}");
            field_u64(&line, "exec_cycles")
        }));
    }
    let results: Vec<u64> = lanes.into_iter().map(|l| l.join().expect("lane")).collect();
    assert!(results.windows(2).all(|w| w[0] == w[1]), "{results:?}");

    let mut client = Client::connect(&addr).expect("connects");
    let stats = client.roundtrip("{\"cmd\":\"stats\"}").expect("responds");
    assert_eq!(
        field_u64(&stats, "misses"),
        1,
        "concurrent misses must collapse onto one warm-up: {stats}"
    );
    assert_eq!(field_u64(&stats, "hits"), 3, "{stats}");

    shutdown(&addr);
    handle.join().expect("server exits cleanly");
}

#[test]
fn concurrent_distinct_cells_share_one_warm_up() {
    let (addr, handle) = start_server(4);
    let addr = Arc::new(addr);
    let cells = [1u32, 2, 4, 8, 16, 32];
    let mut lanes = Vec::new();
    for (id, &ws) in cells.iter().enumerate() {
        let addr = Arc::clone(&addr);
        lanes.push(std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connects");
            let line = client
                .roundtrip(&format!(
                    "{{\"id\":{id},\"topology\":\"distributed\",\"scale\":1,\"wait_states\":{ws}}}"
                ))
                .expect("responds");
            assert!(line.contains("\"status\":\"ok\""), "{line}");
            (ws, field_u64(&line, "exec_cycles"))
        }));
    }
    let results: Vec<(u32, u64)> = lanes.into_iter().map(|l| l.join().expect("lane")).collect();

    // Six concurrent requests for six *distinct* cells of one warm key:
    // one warm-up total. Whoever reaches the cache first computes; the
    // other five wait on it or find the entry, and count as hits either way.
    let mut client = Client::connect(&addr).expect("connects");
    let stats = client.roundtrip("{\"cmd\":\"stats\"}").expect("responds");
    assert_eq!(
        field_u64(&stats, "warm_ups"),
        1,
        "distinct cells must share one warm-up: {stats}"
    );
    assert_eq!(field_u64(&stats, "misses"), 1, "{stats}");
    assert_eq!(field_u64(&stats, "hits"), 5, "{stats}");

    // And every cell is byte-identical to its isolated cold run.
    for (ws, cycles) in results {
        let reference = service::cold_point(&SweepRequest {
            topology: Topology::Distributed,
            scale: 1,
            wait_states: ws,
            ..SweepRequest::default()
        })
        .expect("cold run");
        assert_eq!(cycles, reference, "cell ws={ws} must match cold");
    }
    shutdown(&addr);
    handle.join().expect("server exits cleanly");
}

/// Every `(wait_states, exec_cycles)` cell of a simulate response.
fn served_cells(line: &str) -> Vec<(u32, u64)> {
    line.split("{\"wait_states\":")
        .skip(1)
        .map(|cell| {
            let cell = &cell[..cell.find('}').unwrap_or(cell.len())];
            (
                field_u64(&format!("\"wait_states\":{cell}"), "wait_states") as u32,
                field_u64(cell, "exec_cycles"),
            )
        })
        .collect()
}

/// Kept platforms answer like fresh builds. One warm key is served at
/// interleaved wait states over more connections than the platform pool
/// holds (one platform per handler), single points and two-point axes
/// mixed: a single point gives its platform back for whichever connection
/// asks next, at other wait states, and an axis takes kept platforms
/// along. Every cell must equal its cold run, and some of them must have
/// run on a kept platform.
#[test]
fn kept_platforms_answer_interleaved_wait_states_like_cold_runs() {
    const CELLS: [u32; 4] = [1, 8, 3, 16];
    let (addr, handle) = start_server_with(ServerConfig {
        cache_capacity: 4,
        handlers: 2,
        ..ServerConfig::default()
    });
    let addr = Arc::new(addr);
    let lanes: Vec<_> = (0..4usize)
        .map(|lane| {
            let addr = Arc::clone(&addr);
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connects");
                let mut cells = Vec::new();
                for round in 0..6 {
                    let ws = CELLS[(lane + round) % CELLS.len()];
                    let axis = if round % 2 == 0 {
                        ws.to_string()
                    } else {
                        format!("[{ws},{}]", CELLS[(lane + round + 1) % CELLS.len()])
                    };
                    let line = client
                        .roundtrip(&format!(
                            "{{\"id\":{round},\"topology\":\"collapsed\",\"scale\":1,\
                             \"wait_states\":{axis},\"jobs\":2}}"
                        ))
                        .expect("responds");
                    assert!(line.contains("\"status\":\"ok\""), "{line}");
                    cells.extend(served_cells(&line));
                }
                cells
            })
        })
        .collect();
    let served: Vec<(u32, u64)> = lanes
        .into_iter()
        .flat_map(|lane| lane.join().expect("lane"))
        .collect();
    assert_eq!(served.len(), 4 * (3 + 3 * 2));

    for ws in CELLS {
        let reference = service::cold_point(&SweepRequest {
            topology: Topology::Collapsed,
            scale: 1,
            wait_states: ws,
            ..SweepRequest::default()
        })
        .expect("cold run");
        for &(_, cycles) in served.iter().filter(|(cell, _)| *cell == ws) {
            assert_eq!(cycles, reference, "cell ws={ws} must match its cold run");
        }
    }
    let mut client = Client::connect(&addr).expect("connects");
    let stats = client.roundtrip("{\"cmd\":\"stats\"}").expect("responds");
    assert!(field_u64(&stats, "forks_kept") > 0, "{stats}");
    assert_eq!(
        field_u64(&stats, "forks_kept") + field_u64(&stats, "forks_built"),
        field_u64(&stats, "points"),
        "{stats}"
    );
    assert_eq!(field_u64(&stats, "warm_ups"), 1, "{stats}");
    shutdown(&addr);
    handle.join().expect("server exits cleanly");
}

#[test]
fn restarted_server_answers_first_request_from_the_disk_spill() {
    let dir = std::env::temp_dir().join(format!("mpsn-restart-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig {
        cache_capacity: 4,
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let (addr, handle) = start_server_with(config.clone());
    let mut client = Client::connect(&addr).expect("connects");
    let req = "{\"id\":1,\"topology\":\"collapsed\",\"scale\":1,\"wait_states\":8}";
    let first = client.roundtrip(req).expect("responds");
    assert!(first.contains("\"cache\":\"miss\""), "{first}");
    let cycles = field_u64(&first, "exec_cycles");
    shutdown(&addr);
    handle.join().expect("server exits cleanly");

    // Relaunch on the same spill directory: the first request is answered
    // from the disk fork — a hit, byte-identical, zero warm-ups run.
    let (addr, handle) = start_server_with(config);
    let mut client = Client::connect(&addr).expect("connects");
    let warm = client.roundtrip(req).expect("responds");
    assert!(warm.contains("\"cache\":\"hit\""), "{warm}");
    assert_eq!(field_u64(&warm, "exec_cycles"), cycles);
    let stats = client.roundtrip("{\"cmd\":\"stats\"}").expect("responds");
    assert_eq!(field_u64(&stats, "warm_ups"), 0, "{stats}");
    assert_eq!(field_u64(&stats, "spill_loads"), 1, "{stats}");
    shutdown(&addr);
    handle.join().expect("server exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn loadgen_closed_loop_reconstructs_the_table_with_hits() {
    let (addr, handle) = start_server(4);
    let report = loadgen::run(&RunConfig {
        addr: addr.clone(),
        requests: 16,
        pacing: Pacing::Closed { connections: 2 },
        scale: 1,
        ..RunConfig::default()
    })
    .expect("run agrees");
    assert_eq!(report.responses, 16);
    assert!(report.hits > 0, "duplicate-heavy mix must hit the cache");
    assert_eq!(report.hits + report.misses, report.responses);
    let table = report.fig4_table().expect("full coverage");
    let reference = mpsoc_platform::experiments::fig4(Run::new(1, SweepRequest::default().seed))
        .expect("cold sweep")
        .to_string();
    assert_eq!(
        table.to_string(),
        reference,
        "served table must be byte-identical to the one-shot experiment"
    );
    shutdown(&addr);
    handle.join().expect("server exits cleanly");
}

/// The persistence contract at the scale of a whole mix: a server
/// relaunched on the spill directory of a finished run answers the same
/// duplicate-heavy mix without a single warm-up — its very first response
/// already from the disk fork — and serves the same table byte for byte.
#[test]
fn a_relaunched_server_replays_a_whole_mix_from_the_disk_spill() {
    let dir = std::env::temp_dir().join(format!("mpsn-restart-mix-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig {
        cache_capacity: 4,
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let mix = |addr: &str| {
        let report = loadgen::run(&RunConfig {
            addr: addr.to_string(),
            requests: 24,
            pacing: Pacing::Closed { connections: 2 },
            scale: 1,
            ..RunConfig::default()
        })
        .expect("run agrees");
        let table = report.fig4_table().expect("full coverage").to_string();
        (report, table)
    };

    let (addr, handle) = start_server_with(config.clone());
    let (_, first_table) = mix(&addr);
    shutdown(&addr);
    handle.join().expect("server exits cleanly");

    let (addr, handle) = start_server_with(config);
    let (report, table) = mix(&addr);
    assert!(report.first_hit, "the first request must be served warm");
    let mut client = Client::connect(&addr).expect("connects");
    let stats = client.roundtrip("{\"cmd\":\"stats\"}").expect("responds");
    assert_eq!(field_u64(&stats, "warm_ups"), 0, "{stats}");
    assert_eq!(
        table, first_table,
        "the relaunched server served another table"
    );
    shutdown(&addr);
    handle.join().expect("server exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn loadgen_open_loop_paces_and_agrees() {
    let (addr, handle) = start_server(4);
    let report = loadgen::run(&RunConfig {
        addr: addr.clone(),
        requests: 14,
        pacing: Pacing::Open {
            requests_per_sec: 200.0,
        },
        scale: 1,
        ..RunConfig::default()
    })
    .expect("run agrees");
    assert_eq!(report.responses, 14);
    assert!(report.hits > 0);
    shutdown(&addr);
    handle.join().expect("server exits cleanly");
}

/// A raw socket with a read deadline, for the tests that must control
/// exactly which bytes go out in which write.
fn raw_connection(addr: &str) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connects");
    stream.set_nodelay(true).expect("sets nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("sets the deadline");
    stream
}

#[test]
fn lines_sent_in_one_write_are_answered_in_order() {
    let (addr, handle) = start_server(4);
    let mut stream = raw_connection(&addr);
    stream
        .write_all(b"{\"cmd\":\"ping\"}\nnot json\n{\"cmd\":\"stats\"}\n")
        .expect("sends");
    let mut lines = BufReader::new(stream).lines();
    let mut next = || lines.next().expect("a response").expect("readable");
    let first = next();
    assert!(first.contains("\"pong\":true"), "{first}");
    let second = next();
    assert!(second.contains("\"status\":\"error\""), "{second}");
    let third = next();
    assert!(third.contains("\"stats\":"), "{third}");
    // The stats were taken after the bad line was counted: order held
    // inside the server too, not only on the wire.
    assert_eq!(field_u64(&third, "errors"), 1, "{third}");
    shutdown(&addr);
    handle.join().expect("server exits cleanly");
}

#[test]
fn a_partial_line_before_eof_is_dropped() {
    let (addr, handle) = start_server(4);
    let mut stream = raw_connection(&addr);
    stream.write_all(b"{\"cmd\":\"pi").expect("sends");
    stream.shutdown(Shutdown::Write).expect("half-closes");
    let mut answer = Vec::new();
    stream.read_to_end(&mut answer).expect("server hangs up");
    assert!(answer.is_empty(), "{:?}", String::from_utf8_lossy(&answer));
    // Nothing was served, nothing was counted, and the server lives.
    let mut client = Client::connect(&addr).expect("connects");
    let stats = client.roundtrip("{\"cmd\":\"stats\"}").expect("responds");
    assert_eq!(field_u64(&stats, "errors"), 0, "{stats}");
    shutdown(&addr);
    handle.join().expect("server exits cleanly");
}

#[test]
fn an_oversized_line_gets_one_error_and_a_closed_connection() {
    let (addr, handle) = start_server(4);

    // A line of exactly the limit is still a request like any other.
    let mut stream = raw_connection(&addr);
    let mut longest = b"{\"cmd\":\"ping\"}".to_vec();
    longest.resize(MAX_LINE_BYTES, b' ');
    longest.push(b'\n');
    stream.write_all(&longest).expect("sends");
    let mut pong = String::new();
    BufReader::new(&stream)
        .read_line(&mut pong)
        .expect("responds");
    assert!(pong.contains("\"pong\":true"), "{pong}");

    // One byte more, no newline in sight: one error line, then EOF.
    let mut stream = raw_connection(&addr);
    stream
        .write_all(&vec![b'x'; MAX_LINE_BYTES + 1])
        .expect("sends");
    let mut answer = String::new();
    stream.read_to_string(&mut answer).expect("server hangs up");
    assert_eq!(answer.matches('\n').count(), 1, "{answer}");
    assert!(answer.contains("\"status\":\"error\""), "{answer}");
    assert!(answer.contains("exceeds"), "{answer}");

    shutdown(&addr);
    handle.join().expect("server exits cleanly");
}

/// The parser recurses once per `[`; before it capped its depth, this one
/// line overflowed the handler's stack and aborted the whole process.
#[test]
fn a_deeply_nested_line_gets_an_error_and_the_server_keeps_serving() {
    let (addr, handle) = start_server(4);
    let mut stream = raw_connection(&addr);
    let mut line = vec![b'['; 60_000];
    line.push(b'\n');
    stream.write_all(&line).expect("sends");
    stream.write_all(b"{\"cmd\":\"ping\"}\n").expect("sends");
    let mut lines = BufReader::new(stream).lines();
    let refused = lines.next().expect("a response").expect("readable");
    assert!(refused.contains("\"status\":\"error\""), "{refused}");
    assert!(refused.contains("nesting too deep"), "{refused}");
    // The same connection is still served, and so is a new one.
    let pong = lines.next().expect("a response").expect("readable");
    assert!(pong.contains("\"pong\":true"), "{pong}");
    let mut client = Client::connect(&addr).expect("connects");
    let pong = client.roundtrip("{\"cmd\":\"ping\"}").expect("responds");
    assert!(pong.contains("\"pong\":true"), "{pong}");
    shutdown(&addr);
    handle.join().expect("server exits cleanly");
}

/// Regression test for the PR 7 join deadlock, now that every idle
/// connection is a reader blocked in `read`: shutdown has to reach them all.
#[test]
fn shutdown_returns_with_idle_connections_open() {
    let server = Server::bind("127.0.0.1:0", &ServerConfig::default()).expect("binds");
    let addr = server.local_addr().to_string();
    let (exited, exit) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        server.run().expect("serves");
        let _ = exited.send(());
    });
    let idle: Vec<TcpStream> = (0..64).map(|_| raw_connection(&addr)).collect();
    // A served request on the last one proves all 64 were accepted.
    let mut last = idle.last().expect("64 connections");
    last.write_all(b"{\"cmd\":\"ping\"}\n").expect("sends");
    let mut pong = String::new();
    BufReader::new(last).read_line(&mut pong).expect("responds");
    assert!(pong.contains("\"pong\":true"), "{pong}");

    shutdown(&addr);
    exit.recv_timeout(Duration::from_secs(20))
        .expect("Server::run must return while idle connections are open");
    handle.join().expect("server exits cleanly");
    drop(idle);
}

/// The old poll loop slept 500 us whenever it found nothing to do, so an
/// idle server answered nothing faster than that. Median only: a noisy host
/// lengthens the tail, not the typical round trip.
#[test]
fn idle_round_trip_beats_the_old_poll_period() {
    let (addr, handle) = start_server(4);
    let mut client = Client::connect(&addr).expect("connects");
    let mut median = Duration::MAX;
    // The other tests of this binary run beside this one; a round that
    // shared its cores with a simulation is retried, twice at most.
    for _ in 0..3 {
        let mut trips: Vec<Duration> = (0..200)
            .map(|_| {
                let sent = Instant::now();
                let pong = client.roundtrip("{\"cmd\":\"ping\"}").expect("responds");
                assert!(pong.contains("\"pong\":true"), "{pong}");
                sent.elapsed()
            })
            .collect();
        trips.sort_unstable();
        median = median.min(trips[trips.len() / 2]);
        if median < Duration::from_micros(500) {
            break;
        }
    }
    assert!(
        median < Duration::from_micros(500),
        "median ping round trip {median:?}"
    );
    shutdown(&addr);
    handle.join().expect("server exits cleanly");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Forking a cached warm state is byte-identical to a cold run for
    /// randomly drawn sweep requests — the cache can never change results,
    /// only wall-clock time.
    #[test]
    fn fork_from_cache_matches_cold_across_random_configs(
        topology_bit in 0u64..2,
        ws_exp in 0u64..6,
        seed in 0u64..3,
    ) {
        let req = SweepRequest {
            topology: if topology_bit == 0 {
                Topology::Collapsed
            } else {
                Topology::Distributed
            },
            wait_states: 1 << ws_exp,
            scale: 1,
            seed: 0x0dab + seed,
            ..SweepRequest::default()
        };
        let cold = service::cold_point(&req).expect("cold run");
        // One warm-up, two forks — exactly what the server's cache does.
        let warm = service::warm_state(&req).expect("warm state");
        let first = service::serve_point(&req, &warm).expect("fork");
        let second = service::serve_point(&req, &warm).expect("fork");
        prop_assert_eq!(first, cold);
        prop_assert_eq!(second, cold);
    }
}
