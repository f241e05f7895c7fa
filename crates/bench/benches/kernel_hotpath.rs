//! Kernel scheduler hot-path microbench: bucketed vs naive executor.
//!
//! Builds the same synthetic multi-clock platform twice — once on the
//! production clock-domain bucketed [`Simulation`], once on the
//! pre-bucketing full-scan [`NaiveSimulation`] oracle — runs both to the
//! same horizon, and reports host-side scheduler throughput (edges/sec).
//! The workload is scheduler-bound on purpose: many components spread over
//! several phase-shifted clock domains, each doing a trivial amount of
//! per-tick work. The naive executor pays a full component scan per edge
//! (`O(N)`); the bucketed one touches only the firing domain's members, so
//! the gap widens with component count and domain count.
//!
//! A second case follows — sparse vs dense ticking on an idle-heavy
//! platform — and the bench judges what it has just measured against the
//! `sparse` row of the ledger's floor table, exiting 1 on a miss.
//!
//! A third case runs a quiet platform on the paper's four clocks, whose
//! long waits form quiet stretches, at two wait lengths: a bounded run
//! retires each stretch in one step, so its edges/s grow with the wait,
//! and it must process exactly the instants single steps do.
//!
//! Run with:
//!
//! ```bash
//! cargo bench -p mpsoc-bench --bench kernel_hotpath                  # measure and judge
//! cargo bench -p mpsoc-bench --bench kernel_hotpath -- --committed   # also record
//! ```
//!
//! `--committed` writes the `"microbench"` and `"sparse"` sections of the
//! committed `BENCH_kernel.json`; without it the bench writes no file.

use mpsoc_bench::ledger;
use mpsoc_kernel::reference::NaiveSimulation;
use mpsoc_kernel::{activity, ClockDomain, Component, LinkId, Simulation, TickContext, Time};
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Components per run. Large enough that the naive per-edge scan dominates.
const COMPONENTS: usize = 384;
/// Simulated horizon per run.
const HORIZON_NS: u64 = 40_000;
/// Best-of-N sampling to shrug off scheduler noise on the host.
const SAMPLES: usize = 3;

/// Trivial synchronous model: counts its own ticks and stays idle.
struct Spinner {
    ticks: u64,
}

impl mpsoc_kernel::Snapshot for Spinner {}

impl Component<u64> for Spinner {
    fn name(&self) -> &str {
        "spinner"
    }
    fn tick(&mut self, _ctx: &mut TickContext<'_, u64>) {
        self.ticks = self.ticks.wrapping_add(1);
    }
}

/// The clock set: related frequencies crossed with phase shifts, mirroring
/// a platform where every IP block brings its own clock tree. Many small
/// domains is exactly the regime the bucketed scheduler targets: the naive
/// executor scans every component on every edge no matter how few fire.
fn clock_set() -> Vec<ClockDomain> {
    let mut clocks = Vec::new();
    for mhz in [400u64, 200, 133, 100, 66, 50, 33, 25] {
        for phase_ns in [0u64, 1, 3, 7, 13, 29] {
            clocks.push(ClockDomain::from_mhz(mhz).with_phase(Time::from_ns(phase_ns)));
        }
    }
    clocks
}

/// One measured run; returns (edges processed, wall seconds).
fn measure<F: FnOnce()>(run: F) -> (u64, f64) {
    let started = Instant::now();
    let ((), delta) = activity::measure(run);
    let wall = started.elapsed().as_secs_f64().max(1e-9);
    (delta.edges, wall)
}

fn bench_bucketed(horizon: Time) -> (u64, f64) {
    let clocks = clock_set();
    let mut sim: Simulation<u64> = Simulation::new();
    for i in 0..COMPONENTS {
        sim.add_component(Box::new(Spinner { ticks: 0 }), clocks[i % clocks.len()]);
    }
    measure(|| sim.run_until(horizon))
}

fn bench_naive(horizon: Time) -> (u64, f64) {
    let clocks = clock_set();
    let mut sim: NaiveSimulation<u64> = NaiveSimulation::new();
    for i in 0..COMPONENTS {
        sim.add_component(Box::new(Spinner { ticks: 0 }), clocks[i % clocks.len()]);
    }
    measure(|| sim.run_until(horizon))
}

/// Best-of-N edges/sec for a benchmark closure.
fn best_rate(runs: impl Fn() -> (u64, f64)) -> (u64, f64) {
    let mut best_edges = 0u64;
    let mut best_rate = 0.0f64;
    for _ in 0..SAMPLES {
        let (edges, wall) = runs();
        let rate = edges as f64 / wall;
        if rate > best_rate {
            best_rate = rate;
            best_edges = edges;
        }
    }
    (best_edges, best_rate)
}

// ---------------------------------------------------------------------------
// Idle-heavy case: sparse vs dense ticking.
//
// Many initiators stalled on slow memory is the regime the paper's fig3-fig6
// platforms spend most of their time in: every initiator issues one request,
// then sits idle for a long think window while the memory drains. The dense
// schedule still ticks all of them every edge; the sparse active-set schedule
// executes only the due ones. Both run on the *same* bucketed executor, so
// edges and delivered payloads must match exactly — only executed ticks and
// wall time may differ.
// ---------------------------------------------------------------------------

/// Initiators in the idle-heavy case.
const INITIATORS: usize = 256;
/// Memories the initiators round-robin onto.
const MEMORIES: usize = 4;
/// Cycles each initiator stalls between requests — the idleness knob.
const THINK_CYCLES: u64 = 200;
/// Simulated horizon for the idle-heavy case.
const IDLE_HORIZON_NS: u64 = 40_000;

/// A request generator stalled on memory: pushes one payload, then sleeps
/// `think` cycles of its own clock, advertising the wake instant through
/// `next_activity`. A full link leaves the deadline in the past, so it
/// retries every edge exactly like the dense schedule would.
struct IdleInitiator {
    out: LinkId,
    period: Time,
    think: u64,
    next_at: Time,
    sent: Arc<AtomicU64>,
}

mpsoc_kernel::snapshot_state! {
    impl Snapshot for IdleInitiator { next_at }
}

impl Component<u64> for IdleInitiator {
    fn name(&self) -> &str {
        "idle-initiator"
    }
    fn tick(&mut self, ctx: &mut TickContext<'_, u64>) {
        if ctx.time >= self.next_at && ctx.links.can_push(self.out) {
            ctx.links.push(self.out, ctx.time, 1).unwrap();
            self.sent.fetch_add(1, Ordering::Relaxed);
            self.next_at = ctx.time + self.period * self.think;
        }
    }
    fn watched_links(&self) -> Option<Vec<LinkId>> {
        Some(Vec::new()) // purely timer-driven
    }
    fn next_activity(&self) -> Option<Time> {
        Some(self.next_at)
    }
}

/// A memory port draining one request per tick from each attached link,
/// woken only by deliveries.
struct MemoryPort {
    inputs: Vec<LinkId>,
    served: Arc<AtomicU64>,
}

impl mpsoc_kernel::Snapshot for MemoryPort {}

impl Component<u64> for MemoryPort {
    fn name(&self) -> &str {
        "memory-port"
    }
    fn tick(&mut self, ctx: &mut TickContext<'_, u64>) {
        for &input in &self.inputs {
            if ctx.links.pop(input, ctx.time).is_some() {
                self.served.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    fn watched_links(&self) -> Option<Vec<LinkId>> {
        Some(self.inputs.clone())
    }
}

/// Counters observed from one idle-heavy run.
struct IdleRun {
    edges: u64,
    ticks: u64,
    skipped: u64,
    served: u64,
    wall: f64,
}

fn bench_idle_heavy(dense: bool) -> IdleRun {
    let clocks: Vec<ClockDomain> = [400u64, 200, 133, 100]
        .iter()
        .map(|&mhz| ClockDomain::from_mhz(mhz))
        .collect();
    let sent = Arc::new(AtomicU64::new(0));
    let served = Arc::new(AtomicU64::new(0));
    let mut sim: Simulation<u64> = Simulation::new();
    sim.set_dense(dense);
    let mut memory_inputs: Vec<Vec<LinkId>> = vec![Vec::new(); MEMORIES];
    for i in 0..INITIATORS {
        let clk = clocks[i % clocks.len()];
        let link = sim.links_mut().add_link(format!("req{i}"), 2, clk.period());
        memory_inputs[i % MEMORIES].push(link);
        sim.add_component(
            Box::new(IdleInitiator {
                out: link,
                period: clk.period(),
                think: THINK_CYCLES,
                next_at: Time::ZERO,
                sent: Arc::clone(&sent),
            }),
            clk,
        );
    }
    for inputs in memory_inputs {
        sim.add_component(
            Box::new(MemoryPort {
                inputs,
                served: Arc::clone(&served),
            }),
            clocks[0],
        );
    }
    let started = Instant::now();
    sim.run_until(Time::from_ns(IDLE_HORIZON_NS));
    let wall = started.elapsed().as_secs_f64().max(1e-9);
    let delta = sim.activity();
    IdleRun {
        edges: delta.edges,
        ticks: delta.ticks,
        skipped: delta.skipped,
        served: served.load(Ordering::Relaxed),
        wall,
    }
}

// ---------------------------------------------------------------------------
// Quiet multi-clock case: the paper's STBus (250 MHz), LMI (200 MHz),
// bridge (133 MHz) and DSP (400 MHz) clocks, a few initiators each waiting
// long on memory. Nearly every instant is quiet, so a bounded run retires
// the platform in stretches; single steps retire it one instant at a time
// and must land on the same instants, counts and checkpoint.
// ---------------------------------------------------------------------------

/// The quiet platform's clocks (MHz).
const QUIET_MHZ: [u64; 4] = [250, 200, 133, 400];
/// Initiators per clock in the quiet case.
const QUIET_PER_CLOCK: usize = 2;
/// The wait lengths (cycles) the quiet case runs at.
const QUIET_THINKS: [u64; 2] = [200, 2_000];
/// Simulated horizon for the quiet case.
const QUIET_HORIZON_NS: u64 = 400_000;

/// The quiet platform: initiators on every clock waiting `think` cycles
/// between requests, served by one memory port on the LMI clock.
fn quiet_platform(think: u64) -> (Simulation<u64>, Arc<AtomicU64>) {
    let clocks = QUIET_MHZ.map(ClockDomain::from_mhz);
    let (sent, served) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    let mut sim: Simulation<u64> = Simulation::new();
    let mut inputs = Vec::new();
    for i in 0..QUIET_MHZ.len() * QUIET_PER_CLOCK {
        let clk = clocks[i % clocks.len()];
        let link = sim.links_mut().add_link(format!("req{i}"), 2, clk.period());
        inputs.push(link);
        sim.add_component(
            Box::new(IdleInitiator {
                out: link,
                period: clk.period(),
                think,
                next_at: clk.period() * i as u64,
                sent: Arc::clone(&sent),
            }),
            clk,
        );
    }
    sim.add_component(
        Box::new(MemoryPort {
            inputs,
            served: Arc::clone(&served),
        }),
        clocks[1],
    );
    (sim, served)
}

/// One quiet run to the horizon, by a bounded run or by single steps:
/// edges, wall seconds, payloads served and the final checkpoint.
fn quiet_run(think: u64, stepped: bool) -> (u64, f64, u64, Vec<u8>) {
    let horizon = Time::from_ns(QUIET_HORIZON_NS);
    let (mut sim, served) = quiet_platform(think);
    let started = Instant::now();
    if stepped {
        while sim.next_edge().is_some_and(|next| next <= horizon) {
            sim.step();
        }
    } else {
        sim.run_until(horizon);
    }
    let wall = started.elapsed().as_secs_f64().max(1e-9);
    let checkpoint = sim.checkpoint().as_bytes().to_vec();
    (
        sim.edges_processed(),
        wall,
        served.load(Ordering::Relaxed),
        checkpoint,
    )
}

/// Runs the quiet case at every wait length, holding bounded runs to single
/// steps, and prints both rates.
fn bench_quiet() {
    println!(
        "\nquiet: {} initiators on {QUIET_MHZ:?} MHz, horizon {QUIET_HORIZON_NS} ns, best of {SAMPLES}",
        QUIET_MHZ.len() * QUIET_PER_CLOCK
    );
    for think in QUIET_THINKS {
        let best = |stepped: bool| {
            (0..SAMPLES)
                .map(|_| quiet_run(think, stepped))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("sampled")
        };
        let (edges, wall, served, checkpoint) = best(false);
        let (step_edges, step_wall, step_served, step_checkpoint) = best(true);
        assert_eq!(
            (edges, served),
            (step_edges, step_served),
            "think {think}: bounded runs and single steps must process the same instants"
        );
        assert!(
            checkpoint == step_checkpoint,
            "think {think}: bounded runs and single steps must end in the same state"
        );
        println!(
            "  think {think:>5}: {edges} edges, {served} served, bounded {:.3}M edges/s, steps {:.3}M edges/s",
            edges as f64 / wall / 1e6,
            step_edges as f64 / step_wall / 1e6
        );
    }
}

/// The `"sparse"` section of `BENCH_kernel.json`: the idle-heavy case's
/// sparse-vs-dense comparison.
#[derive(Serialize)]
struct SparseSection {
    initiators: u64,
    memories: u64,
    think_cycles: u64,
    horizon_ns: u64,
    samples: u64,
    edges_per_run: u64,
    dense_ticks: u64,
    sparse_ticks: u64,
    skip_fraction: f64,
    dense_edges_per_sec: f64,
    sparse_edges_per_sec: f64,
    speedup: f64,
}

/// The `"microbench"` section of `BENCH_kernel.json`.
#[derive(Serialize)]
struct MicrobenchSection {
    components: u64,
    clock_domains: u64,
    horizon_ns: u64,
    samples: u64,
    edges_per_run: u64,
    naive_edges_per_sec: f64,
    bucketed_edges_per_sec: f64,
    speedup: f64,
}

fn main() {
    let horizon = Time::from_ns(HORIZON_NS);
    let domains = {
        let clocks = clock_set();
        let mut sim: Simulation<u64> = Simulation::new();
        for i in 0..COMPONENTS {
            sim.add_component(Box::new(Spinner { ticks: 0 }), clocks[i % clocks.len()]);
        }
        sim.domain_count() as u64
    };

    println!(
        "kernel_hotpath: {COMPONENTS} components over {domains} clock domains, \
         horizon {HORIZON_NS} ns, best of {SAMPLES}"
    );

    let (naive_edges, naive_rate) = best_rate(|| bench_naive(horizon));
    println!(
        "  naive    : {naive_edges} edges, {:.3}M edges/s",
        naive_rate / 1e6
    );

    let (bucketed_edges, bucketed_rate) = best_rate(|| bench_bucketed(horizon));
    println!(
        "  bucketed : {bucketed_edges} edges, {:.3}M edges/s",
        bucketed_rate / 1e6
    );

    assert_eq!(
        naive_edges, bucketed_edges,
        "both executors must process the same edge sequence"
    );

    let speedup = bucketed_rate / naive_rate;
    println!("  speedup  : {speedup:.2}x");

    let section = MicrobenchSection {
        components: COMPONENTS as u64,
        clock_domains: domains,
        horizon_ns: HORIZON_NS,
        samples: SAMPLES as u64,
        edges_per_run: bucketed_edges,
        naive_edges_per_sec: naive_rate,
        bucketed_edges_per_sec: bucketed_rate,
        speedup,
    };

    println!(
        "\nidle-heavy: {INITIATORS} initiators x {MEMORIES} memories, \
         think {THINK_CYCLES} cycles, horizon {IDLE_HORIZON_NS} ns, best of {SAMPLES}"
    );

    let mut dense_best: Option<IdleRun> = None;
    let mut sparse_best: Option<IdleRun> = None;
    for _ in 0..SAMPLES {
        let dense = bench_idle_heavy(true);
        let sparse = bench_idle_heavy(false);
        // Same executor, same components, same horizon: the schedules must
        // agree on everything observable.
        assert_eq!(
            dense.edges, sparse.edges,
            "sparse and dense must process the same edge sequence"
        );
        assert_eq!(
            dense.served, sparse.served,
            "sparse and dense must deliver the same payloads"
        );
        assert_eq!(dense.skipped, 0, "the dense schedule never skips");
        if dense_best.as_ref().is_none_or(|b| dense.wall < b.wall) {
            dense_best = Some(dense);
        }
        if sparse_best.as_ref().is_none_or(|b| sparse.wall < b.wall) {
            sparse_best = Some(sparse);
        }
    }
    let dense = dense_best.expect("sampled");
    let sparse = sparse_best.expect("sampled");
    let dense_rate = dense.edges as f64 / dense.wall;
    let sparse_rate = sparse.edges as f64 / sparse.wall;
    let skip_fraction = sparse.skipped as f64 / (sparse.ticks + sparse.skipped).max(1) as f64;
    let sparse_speedup = sparse_rate / dense_rate;
    println!(
        "  dense    : {} edges, {} ticks, {:.3}M edges/s",
        dense.edges,
        dense.ticks,
        dense_rate / 1e6
    );
    println!(
        "  sparse   : {} edges, {} ticks ({:.0}% skipped), {:.3}M edges/s",
        sparse.edges,
        sparse.ticks,
        skip_fraction * 100.0,
        sparse_rate / 1e6
    );
    println!("  speedup  : {sparse_speedup:.2}x");

    bench_quiet();

    let sparse_section = SparseSection {
        initiators: INITIATORS as u64,
        memories: MEMORIES as u64,
        think_cycles: THINK_CYCLES,
        horizon_ns: IDLE_HORIZON_NS,
        samples: SAMPLES as u64,
        edges_per_run: sparse.edges,
        dense_ticks: dense.ticks,
        sparse_ticks: sparse.ticks,
        skip_fraction,
        dense_edges_per_sec: dense_rate,
        sparse_edges_per_sec: sparse_rate,
        speedup: sparse_speedup,
    };
    // `--committed` records the two sections in the committed
    // `BENCH_kernel.json` at the repo root. `cargo bench` forwards
    // everything after `--`; other flags (e.g. the harness's own `--bench`)
    // are ignored.
    if std::env::args().any(|arg| arg == "--committed") {
        let committed = ledger::committed_path();
        let microbench = ledger::update_section(&committed, "microbench", &section.to_json());
        let sparse_write = ledger::update_section(&committed, "sparse", &sparse_section.to_json());
        match microbench.and(sparse_write) {
            Ok(()) => println!("committed ledger updated: {}", committed.display()),
            Err(e) => eprintln!("failed to write {}: {e}", committed.display()),
        }
    }

    // The bench gates itself: the sparse section just measured is held to
    // its row of the floor table.
    let checked = ledger::check_section("sparse", &sparse_section.to_json())
        .expect("a section is one JSON value");
    if !ledger::report(&checked) {
        std::process::exit(1);
    }
}
