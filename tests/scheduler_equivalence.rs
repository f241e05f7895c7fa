//! Differential determinism harness for the kernel scheduler rework.
//!
//! The clock-domain bucketed executor ([`Simulation`]) must be
//! observationally identical to the pre-bucketing full-scan executor
//! ([`NaiveSimulation`]): same edge times, same `(time, component-index)`
//! tick sequence (i.e. same global registration-order interleaving at
//! every instant), and same quiescence behaviour. These tests drive both
//! executors over randomized clock/component sets and fixed regression
//! platforms and compare the full traces.

use mpsoc_kernel::reference::NaiveSimulation;
use mpsoc_kernel::{ClockDomain, Component, LinkId, RunOutcome, Simulation, TickContext, Time};
use mpsoc_protocol::Interconnect;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// Shared tick log: `(time in ps, component registration index)`.
type TickLog = Arc<Mutex<Vec<(u64, u32)>>>;

/// Records every one of its ticks into a shared log.
struct Recorder {
    idx: u32,
    log: TickLog,
}

impl mpsoc_kernel::Snapshot for Recorder {}

impl Component<u64> for Recorder {
    fn name(&self) -> &str {
        "recorder"
    }
    fn tick(&mut self, ctx: &mut TickContext<'_, u64>) {
        self.log.lock().unwrap().push((ctx.time.as_ps(), self.idx));
    }
}

/// The clock pool the random cases draw from: a mix of frequencies with
/// repeats (shared domains) and phase offsets (bucket merge paths).
fn clock_pool() -> Vec<ClockDomain> {
    let ns = Time::from_ns;
    vec![
        ClockDomain::from_period(ns(1)),
        ClockDomain::from_period(ns(2)),
        ClockDomain::from_period(ns(2)).with_phase(ns(1)),
        ClockDomain::from_period(ns(3)),
        ClockDomain::from_period(ns(5)).with_phase(ns(2)),
        ClockDomain::from_period(ns(7)),
        ClockDomain::from_period(ns(10)).with_phase(ns(3)),
        ClockDomain::from_period(ns(10)),
    ]
}

/// Builds the same recorder platform on one executor.
macro_rules! build_recorders {
    ($sim:expr, $clock_idxs:expr, $log:expr) => {{
        let pool = clock_pool();
        for (i, &c) in $clock_idxs.iter().enumerate() {
            $sim.add_component(
                Box::new(Recorder {
                    idx: i as u32,
                    log: Arc::clone(&$log),
                }),
                pool[c % pool.len()],
            );
        }
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The core differential property: for any random assignment of
    /// components to clock domains, both executors report the same edge
    /// times and produce bit-identical `(time, index)` tick sequences.
    #[test]
    fn bucketed_matches_naive_tick_sequence(
        clock_idxs in prop::collection::vec(0usize..8, 1..32),
        horizon_ns in 50u64..1500,
    ) {
        let horizon = Time::from_ns(horizon_ns);

        let naive_log: TickLog = Arc::new(Mutex::new(Vec::new()));
        let mut naive: NaiveSimulation<u64> = NaiveSimulation::new();
        build_recorders!(naive, clock_idxs, naive_log);

        let bucketed_log: TickLog = Arc::new(Mutex::new(Vec::new()));
        let mut bucketed: Simulation<u64> = Simulation::new();
        build_recorders!(bucketed, clock_idxs, bucketed_log);

        // Lock-step: the pending edge must agree before every step.
        loop {
            let n = naive.next_edge();
            let b = bucketed.next_edge();
            prop_assert_eq!(n, b);
            match n {
                Some(t) if t <= horizon => {
                    prop_assert_eq!(naive.step(), bucketed.step());
                }
                _ => break,
            }
        }
        prop_assert_eq!(naive.time(), bucketed.time());
        prop_assert_eq!(
            naive_log.lock().unwrap().clone(),
            bucketed_log.lock().unwrap().clone()
        );
    }

    /// `run_until` (the batched driver) agrees with the naive executor on
    /// final time and per-component tick counts.
    #[test]
    fn run_until_matches_naive(
        clock_idxs in prop::collection::vec(0usize..8, 1..24),
        horizon_ns in 50u64..1200,
    ) {
        let horizon = Time::from_ns(horizon_ns);

        let naive_log: TickLog = Arc::new(Mutex::new(Vec::new()));
        let mut naive: NaiveSimulation<u64> = NaiveSimulation::new();
        build_recorders!(naive, clock_idxs, naive_log);

        let bucketed_log: TickLog = Arc::new(Mutex::new(Vec::new()));
        let mut bucketed: Simulation<u64> = Simulation::new();
        build_recorders!(bucketed, clock_idxs, bucketed_log);

        naive.run_until(horizon);
        bucketed.run_until(horizon);

        prop_assert_eq!(naive.time(), bucketed.time());
        prop_assert_eq!(
            naive_log.lock().unwrap().clone(),
            bucketed_log.lock().unwrap().clone()
        );
    }
}

/// Emits `budget` numbered payloads, one per tick, respecting back-pressure.
struct Producer {
    out: LinkId,
    budget: u64,
    sent: u64,
}

impl mpsoc_kernel::Snapshot for Producer {}

impl Component<u64> for Producer {
    fn name(&self) -> &str {
        "producer"
    }
    fn tick(&mut self, ctx: &mut TickContext<'_, u64>) {
        if self.sent < self.budget && ctx.links.can_push(self.out) {
            ctx.links.push(self.out, ctx.time, self.sent).unwrap();
            self.sent += 1;
        }
    }
    fn is_idle(&self) -> bool {
        self.sent == self.budget
    }
}

/// Pops one payload per tick.
struct Consumer {
    input: LinkId,
    received: u64,
}

impl mpsoc_kernel::Snapshot for Consumer {}

impl Component<u64> for Consumer {
    fn name(&self) -> &str {
        "consumer"
    }
    fn tick(&mut self, ctx: &mut TickContext<'_, u64>) {
        if ctx.links.pop(self.input, ctx.time).is_some() {
            self.received += 1;
        }
    }
}

/// Quiescent time reported by one executor on the producer/consumer
/// platform with the given clocks.
fn quiescent_time_bucketed(prod_clk: ClockDomain, cons_clk: ClockDomain) -> Time {
    let mut sim: Simulation<u64> = Simulation::new();
    let link = sim.links_mut().add_link("pc", 2, prod_clk.period());
    sim.add_component(
        Box::new(Producer {
            out: link,
            budget: 25,
            sent: 0,
        }),
        prod_clk,
    );
    sim.add_component(
        Box::new(Consumer {
            input: link,
            received: 0,
        }),
        cons_clk,
    );
    match sim.run_to_quiescence(Time::from_us(100)) {
        RunOutcome::Quiescent { at } => at,
        RunOutcome::HorizonReached { at } => panic!("bucketed stalled at {at:?}"),
    }
}

/// Same platform on the naive executor.
fn quiescent_time_naive(prod_clk: ClockDomain, cons_clk: ClockDomain) -> Time {
    let mut sim: NaiveSimulation<u64> = NaiveSimulation::new();
    let link = sim.links_mut().add_link("pc", 2, prod_clk.period());
    sim.add_component(
        Box::new(Producer {
            out: link,
            budget: 25,
            sent: 0,
        }),
        prod_clk,
    );
    sim.add_component(
        Box::new(Consumer {
            input: link,
            received: 0,
        }),
        cons_clk,
    );
    match sim.run_to_quiescence(Time::from_us(100)) {
        RunOutcome::Quiescent { at } => at,
        RunOutcome::HorizonReached { at } => panic!("naive stalled at {at:?}"),
    }
}

/// Regression: the O(1) incremental quiescence check stops the bucketed
/// executor at exactly the instant the naive full-scan check stops, on the
/// canonical single-clock producer/consumer platform.
#[test]
fn quiescence_time_matches_on_producer_consumer() {
    let clk = ClockDomain::from_mhz(100);
    let naive = quiescent_time_naive(clk, clk);
    let bucketed = quiescent_time_bucketed(clk, clk);
    assert_eq!(naive, bucketed);
    assert!(bucketed > Time::ZERO);
}

/// Regression: same property across clock domains (fast producer, slow
/// phase-shifted consumer), where quiescence is reached on a consumer edge
/// that is not a producer edge.
#[test]
fn quiescence_time_matches_across_clock_domains() {
    let prod = ClockDomain::from_mhz(200);
    let cons = ClockDomain::from_mhz(66).with_phase(Time::from_ns(3));
    let naive = quiescent_time_naive(prod, cons);
    let bucketed = quiescent_time_bucketed(prod, cons);
    assert_eq!(naive, bucketed);
    assert!(bucketed > Time::ZERO);
}

/// Components registered while the simulation is mid-run join the timeline
/// identically on both executors.
#[test]
fn mid_run_registration_is_equivalent() {
    let pool = clock_pool();
    let naive_log: TickLog = Arc::new(Mutex::new(Vec::new()));
    let mut naive: NaiveSimulation<u64> = NaiveSimulation::new();
    let bucketed_log: TickLog = Arc::new(Mutex::new(Vec::new()));
    let mut bucketed: Simulation<u64> = Simulation::new();

    for (i, clk) in [pool[0], pool[3]].into_iter().enumerate() {
        naive.add_component(
            Box::new(Recorder {
                idx: i as u32,
                log: Arc::clone(&naive_log),
            }),
            clk,
        );
        bucketed.add_component(
            Box::new(Recorder {
                idx: i as u32,
                log: Arc::clone(&bucketed_log),
            }),
            clk,
        );
    }
    naive.run_until(Time::from_ns(10));
    bucketed.run_until(Time::from_ns(10));

    // A latecomer on an already-populated domain and one on a fresh domain.
    for (i, clk) in [pool[0], pool[6]].into_iter().enumerate() {
        let idx = (2 + i) as u32;
        naive.add_component(
            Box::new(Recorder {
                idx,
                log: Arc::clone(&naive_log),
            }),
            clk,
        );
        bucketed.add_component(
            Box::new(Recorder {
                idx,
                log: Arc::clone(&bucketed_log),
            }),
            clk,
        );
    }
    naive.run_until(Time::from_ns(40));
    bucketed.run_until(Time::from_ns(40));

    assert_eq!(naive.time(), bucketed.time());
    assert_eq!(*naive_log.lock().unwrap(), *bucketed_log.lock().unwrap());
}

/// Observation log for the sparse differential tests:
/// `(time in ps, consumer index, payload)`.
type ObsLog = Arc<Mutex<Vec<(u64, u32, u64)>>>;

/// A sparse-opted-in producer: pushes one payload then sleeps `gap` of its
/// own cycles, advertising the next issue instant through `next_activity`.
/// When the link is full at the deadline the deadline stays in the past, so
/// the producer retries every edge exactly like the dense schedule.
struct PacedProducer {
    out: LinkId,
    period: Time,
    gap: u64,
    budget: u64,
    sent: u64,
    next_at: Time,
}

mpsoc_kernel::snapshot_state! {
    impl Snapshot for PacedProducer { sent, next_at }
}

impl Component<u64> for PacedProducer {
    fn name(&self) -> &str {
        "paced-producer"
    }
    fn tick(&mut self, ctx: &mut TickContext<'_, u64>) {
        if self.sent < self.budget && ctx.time >= self.next_at && ctx.links.can_push(self.out) {
            ctx.links.push(self.out, ctx.time, self.sent).unwrap();
            self.sent += 1;
            self.next_at = ctx.time + self.period * self.gap;
        }
    }
    fn is_idle(&self) -> bool {
        self.sent == self.budget
    }
    fn watched_links(&self) -> Option<Vec<LinkId>> {
        Some(Vec::new()) // pops nothing; purely timer-driven
    }
    fn next_activity(&self) -> Option<Time> {
        (self.sent < self.budget).then_some(self.next_at)
    }
}

/// A sparse-opted-in consumer: wakes only when its watched link delivers,
/// logging every `(time, index, payload)` it pops.
struct WatchingConsumer {
    input: LinkId,
    idx: u32,
    received: u64,
    log: ObsLog,
}

mpsoc_kernel::snapshot_state! {
    impl Snapshot for WatchingConsumer { received }
}

impl Component<u64> for WatchingConsumer {
    fn name(&self) -> &str {
        "watching-consumer"
    }
    fn tick(&mut self, ctx: &mut TickContext<'_, u64>) {
        if let Some(v) = ctx.links.pop(self.input, ctx.time) {
            self.received += 1;
            self.log
                .lock()
                .unwrap()
                .push((ctx.time.as_ps(), self.idx, v));
        }
    }
    fn watched_links(&self) -> Option<Vec<LinkId>> {
        Some(vec![self.input])
    }
}

/// Builds the paced producer/consumer pairs on one executor (works for
/// both `Simulation` and `NaiveSimulation`, which share the API shape).
macro_rules! build_paced {
    ($sim:expr, $pairs:expr, $log:expr) => {{
        let pool = clock_pool();
        for (i, &(pc, cc, gap, budget, cap)) in $pairs.iter().enumerate() {
            let prod_clk = pool[pc % pool.len()];
            let cons_clk = pool[cc % pool.len()];
            let link = $sim
                .links_mut()
                .add_link(&format!("pair{i}"), cap, prod_clk.period());
            $sim.add_component(
                Box::new(PacedProducer {
                    out: link,
                    period: prod_clk.period(),
                    gap,
                    budget,
                    sent: 0,
                    next_at: Time::ZERO,
                }),
                prod_clk,
            );
            $sim.add_component(
                Box::new(WatchingConsumer {
                    input: link,
                    idx: i as u32,
                    received: 0,
                    log: Arc::clone(&$log),
                }),
                cons_clk,
            );
        }
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sparse ticking differential: for random paced producer/consumer
    /// platforms with components opted into the active-set scheduler, the
    /// sparse executor produces the same observation log and final time as
    /// the always-tick naive oracle AND the dense bucketed executor, never
    /// executes more ticks than dense, and checkpoints to byte-identical
    /// blobs (the snapshot format excludes schedule-derived state).
    #[test]
    fn sparse_matches_naive_and_dense_on_paced_pairs(
        pairs in prop::collection::vec(
            (0usize..8, 0usize..8, 0u64..40, 1u64..25, 1usize..4),
            1..5,
        ),
        horizon_ns in 100u64..2000,
    ) {
        let horizon = Time::from_ns(horizon_ns);

        let naive_log: ObsLog = Arc::new(Mutex::new(Vec::new()));
        let mut naive: NaiveSimulation<u64> = NaiveSimulation::new();
        build_paced!(naive, pairs, naive_log);

        let sparse_log: ObsLog = Arc::new(Mutex::new(Vec::new()));
        let mut sparse: Simulation<u64> = Simulation::new();
        sparse.set_dense(false);
        build_paced!(sparse, pairs, sparse_log);

        let dense_log: ObsLog = Arc::new(Mutex::new(Vec::new()));
        let mut dense: Simulation<u64> = Simulation::new();
        dense.set_dense(true);
        build_paced!(dense, pairs, dense_log);

        naive.run_until(horizon);
        sparse.run_until(horizon);
        dense.run_until(horizon);

        prop_assert_eq!(naive.time(), sparse.time());
        prop_assert_eq!(dense.time(), sparse.time());
        prop_assert_eq!(naive_log.lock().unwrap().clone(), sparse_log.lock().unwrap().clone());
        prop_assert_eq!(dense_log.lock().unwrap().clone(), sparse_log.lock().unwrap().clone());
        prop_assert!(sparse.ticks_executed() <= dense.ticks_executed());
        let sparse_blob = sparse.checkpoint();
        let dense_blob = dense.checkpoint();
        prop_assert_eq!(sparse_blob.as_bytes(), dense_blob.as_bytes());
    }
}

/// Regression pinning the actual saving: with a long think gap the sparse
/// executor must do strictly less work than dense while producing the same
/// observations and an identical checkpoint.
#[test]
fn sparse_skips_most_ticks_on_long_gaps() {
    let pairs = [(0usize, 7usize, 50u64, 10u64, 2usize)];

    let sparse_log: ObsLog = Arc::new(Mutex::new(Vec::new()));
    let mut sparse: Simulation<u64> = Simulation::new();
    sparse.set_dense(false);
    build_paced!(sparse, pairs, sparse_log);

    let dense_log: ObsLog = Arc::new(Mutex::new(Vec::new()));
    let mut dense: Simulation<u64> = Simulation::new();
    dense.set_dense(true);
    build_paced!(dense, pairs, dense_log);

    let horizon = Time::from_us(2);
    sparse.run_until(horizon);
    dense.run_until(horizon);

    assert_eq!(*sparse_log.lock().unwrap(), *dense_log.lock().unwrap());
    assert_eq!(
        sparse_log.lock().unwrap().len(),
        10,
        "all payloads delivered"
    );
    let sparse_blob = sparse.checkpoint();
    let dense_blob = dense.checkpoint();
    assert_eq!(sparse_blob.as_bytes(), dense_blob.as_bytes());
    assert!(
        sparse.ticks_executed() * 4 < dense.ticks_executed(),
        "long gaps must be slept through: sparse {} vs dense {}",
        sparse.ticks_executed(),
        dense.ticks_executed()
    );
}

// ---------------------------------------------------------------------------
// Counting, tracing and fault-probing chains
// ---------------------------------------------------------------------------
//
// Forwarding chains whose hops register metrics, emit trace records and
// probe the fault injector: the bucketed executor must read the naive
// oracle's statistics and fault counts, and the sparse schedule composed
// with faults and a mid-run gear shift must be byte-identical to the dense
// one — same final time, same stats tables, same trace, same checkpoint
// bytes.

use mpsoc_kernel::stats::CounterId;
use mpsoc_kernel::{FaultKind, FaultSchedule, Fidelity, StatsRegistry, TraceKind};

/// A forwarder: pops its input, pushes `payload + 1`, counts forwards and
/// emits a trace record.
struct Hop {
    name: String,
    rx: LinkId,
    tx: LinkId,
    forwarded: u64,
    counter: CounterId,
}

mpsoc_kernel::snapshot_state! {
    impl Snapshot for Hop { forwarded }
}

impl Component<u64> for Hop {
    fn name(&self) -> &str {
        &self.name
    }
    fn register_metrics(&mut self, stats: &mut StatsRegistry) {
        self.counter = stats.counter(&format!("{}.forwarded", self.name));
    }
    fn tick(&mut self, ctx: &mut TickContext<'_, u64>) {
        if ctx.links.can_push(self.tx) {
            if let Some(v) = ctx.links.pop(self.rx, ctx.time) {
                ctx.links.push(self.tx, ctx.time, v + 1).unwrap();
                ctx.stats.inc(self.counter, 1);
                let name = &self.name;
                ctx.stats
                    .emit_trace(ctx.time, name, TraceKind::Forward, || format!("fwd {v}"));
                self.forwarded += 1;
            }
        }
    }
    fn is_idle(&self) -> bool {
        true // drains on demand; quiescence comes from empty links
    }
}

/// A fault-probing hop: probes the injector for every popped payload,
/// dropping hits (recorded lost) and forwarding the rest.
struct FaultyHop {
    name: String,
    rx: LinkId,
    tx: LinkId,
    forwarded: u64,
    dropped: u64,
    counters: HopCounters,
}

mpsoc_kernel::metric_ids! {
    struct HopCounters {
        forwarded: counter,
        dropped: counter,
    }
}

mpsoc_kernel::snapshot_state! {
    impl Snapshot for FaultyHop { forwarded, dropped }
}

impl Component<u64> for FaultyHop {
    fn name(&self) -> &str {
        &self.name
    }
    fn register_metrics(&mut self, stats: &mut StatsRegistry) {
        self.counters = HopCounters::register(&self.name, stats);
    }
    fn tick(&mut self, ctx: &mut TickContext<'_, u64>) {
        if ctx.links.can_push(self.tx) {
            if let Some(v) = ctx.links.pop(self.rx, ctx.time) {
                if ctx.faults.probe(FaultKind::LinkDrop) {
                    ctx.faults.record_lost(1);
                    ctx.stats.inc(self.counters.dropped, 1);
                    self.dropped += 1;
                } else {
                    ctx.links.push(self.tx, ctx.time, v + 1).unwrap();
                    ctx.stats.inc(self.counters.forwarded, 1);
                    self.forwarded += 1;
                }
            }
        }
    }
    fn is_idle(&self) -> bool {
        true
    }
}

/// Builds producer → faulty-hop → faulty-hop → consumer chains on one
/// executor (works for both `Simulation` and `NaiveSimulation`).
macro_rules! build_faulty_chains {
    ($sim:expr, $chains:expr) => {{
        let pool = clock_pool();
        for (i, &(pc, hc, budget, cap)) in $chains.iter().enumerate() {
            let prod_clk = pool[pc % pool.len()];
            let hop_clk = pool[hc % pool.len()];
            let a = $sim
                .links_mut()
                .add_link(&format!("fch{i}.a"), cap, prod_clk.period());
            let b = $sim
                .links_mut()
                .add_link(&format!("fch{i}.b"), cap, hop_clk.period());
            let c = $sim
                .links_mut()
                .add_link(&format!("fch{i}.c"), cap, hop_clk.period());
            $sim.add_component(
                Box::new(Producer {
                    out: a,
                    budget,
                    sent: 0,
                }),
                prod_clk,
            );
            $sim.add_component(
                Box::new(FaultyHop {
                    name: format!("fch{i}.h0"),
                    rx: a,
                    tx: b,
                    forwarded: 0,
                    dropped: 0,
                    counters: HopCounters::default(),
                }),
                hop_clk,
            );
            $sim.add_component(
                Box::new(FaultyHop {
                    name: format!("fch{i}.h1"),
                    rx: b,
                    tx: c,
                    forwarded: 0,
                    dropped: 0,
                    counters: HopCounters::default(),
                }),
                hop_clk,
            );
            $sim.add_component(
                Box::new(Consumer {
                    input: c,
                    received: 0,
                }),
                hop_clk,
            );
        }
    }};
}

/// Builds producer → hop → hop → consumer chains on one executor.
macro_rules! build_hop_chains {
    ($sim:expr, $chains:expr) => {{
        let pool = clock_pool();
        for (i, &(pc, hc, budget, cap)) in $chains.iter().enumerate() {
            let prod_clk = pool[pc % pool.len()];
            let hop_clk = pool[hc % pool.len()];
            let a = $sim
                .links_mut()
                .add_link(&format!("ch{i}.a"), cap, prod_clk.period());
            let b = $sim
                .links_mut()
                .add_link(&format!("ch{i}.b"), cap, hop_clk.period());
            let c = $sim
                .links_mut()
                .add_link(&format!("ch{i}.c"), cap, hop_clk.period());
            $sim.add_component(
                Box::new(Producer {
                    out: a,
                    budget,
                    sent: 0,
                }),
                prod_clk,
            );
            $sim.add_component(
                Box::new(Hop {
                    name: format!("ch{i}.h0"),
                    rx: a,
                    tx: b,
                    forwarded: 0,
                    counter: CounterId::default(),
                }),
                hop_clk,
            );
            $sim.add_component(
                Box::new(Hop {
                    name: format!("ch{i}.h1"),
                    rx: b,
                    tx: c,
                    forwarded: 0,
                    counter: CounterId::default(),
                }),
                hop_clk,
            );
            $sim.add_component(
                Box::new(Consumer {
                    input: c,
                    received: 0,
                }),
                hop_clk,
            );
        }
    }};
}

/// Runs one bucketed executor and fingerprints everything the paper
/// pipeline consumes: final time, checkpoint bytes, rendered stats table and
/// trace dump. With a quantum the gear shifts mid-run: the first third
/// cycle-accurate, the middle third fast-forwarded at that quantum, then
/// cycle accuracy again for the rest. All executors in one comparison get
/// the same gear schedule, so the fingerprint must match regardless of
/// sparse/dense scheduling.
fn compound_fingerprint(
    sim: &mut Simulation<u64>,
    horizon_ns: u64,
    quantum: Option<u64>,
) -> (Time, Vec<u8>, String, String) {
    sim.stats_mut().trace_mut().enable(512);
    match quantum {
        None => {
            sim.run_until(Time::from_ns(horizon_ns));
        }
        Some(q) => {
            sim.run_until(Time::from_ns(horizon_ns / 3));
            sim.set_fidelity(Fidelity::Fast { quantum: q });
            sim.run_until(Time::from_ns(2 * horizon_ns / 3));
            sim.set_fidelity(Fidelity::Cycle);
            sim.run_until(Time::from_ns(horizon_ns));
        }
    }
    let at = sim.time();
    let report = sim.stats().report(at).to_string();
    let trace = sim.stats().trace().dump();
    (at, sim.checkpoint().as_bytes().to_vec(), report, trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For random counting, tracing chains, the bucketed executor agrees
    /// with the naive full-scan oracle.
    #[test]
    fn parallel_matches_serial_and_naive_at_all_job_counts(
        chains in prop::collection::vec((0usize..8, 0usize..8, 1u64..25, 1usize..4), 1..5),
        horizon_ns in 100u64..1500,
    ) {
        let horizon = Time::from_ns(horizon_ns);

        let mut naive: NaiveSimulation<u64> = NaiveSimulation::new();
        build_hop_chains!(naive, chains);
        naive.run_until(horizon);
        let naive_report = naive.stats().report(naive.time()).to_string();

        let mut serial: Simulation<u64> = Simulation::new();
        build_hop_chains!(serial, chains);
        serial.run_until(horizon);

        prop_assert_eq!(naive.time(), serial.time());
        prop_assert_eq!(naive_report, serial.stats().report(serial.time()).to_string());
    }

    /// Under armed fault injection — every component drawing from its own
    /// probe stream — the bucketed executor reads the naive oracle's
    /// statistics and fault counts.
    #[test]
    fn armed_fault_runs_match_serial_and_naive_at_any_job_count(
        chains in prop::collection::vec((0usize..8, 0usize..8, 1u64..20, 1usize..4), 1..4),
        seed in any::<u64>(),
        rate in 0u32..5000,
        horizon_ns in 100u64..1200,
    ) {
        let horizon = Time::from_ns(horizon_ns);
        let schedule = FaultSchedule::uniform(rate, seed);

        let mut naive: NaiveSimulation<u64> = NaiveSimulation::new();
        build_faulty_chains!(naive, chains);
        naive.faults_mut().arm(schedule);
        naive.run_until(horizon);
        let naive_report = naive.stats().report(naive.time()).to_string();
        let naive_counts = naive.faults_mut().counts();

        let mut serial: Simulation<u64> = Simulation::new();
        build_faulty_chains!(serial, chains);
        serial.faults_mut().arm(schedule);
        serial.run_until(horizon);

        prop_assert_eq!(naive.time(), serial.time());
        prop_assert_eq!(naive_report, serial.stats().report(serial.time()).to_string());
        prop_assert_eq!(naive_counts, serial.faults().counts());
    }

    /// Compound differential: sparse scheduling, armed faults and an
    /// optional mid-run gear shift all composed at once must stay
    /// byte-identical to the dense run, and (when no gear shift is
    /// involved) agree with the naive oracle.
    #[test]
    fn sparse_parallel_composition_matches_dense_serial(
        pairs in prop::collection::vec(
            (0usize..8, 0usize..8, 0u64..40, 1u64..25, 1usize..4),
            1..4,
        ),
        chains in prop::collection::vec((0usize..8, 0usize..8, 1u64..20, 1usize..4), 1..4),
        seed in any::<u64>(),
        rate in 0u32..5000,
        quantum in prop::option::of(2u64..6),
        horizon_ns in 300u64..1500,
    ) {
        let schedule = FaultSchedule::uniform(rate, seed);

        let dense_log: ObsLog = Arc::new(Mutex::new(Vec::new()));
        let mut dense: Simulation<u64> = Simulation::new();
        dense.set_dense(true);
        build_paced!(dense, pairs, dense_log);
        build_faulty_chains!(dense, chains);
        dense.faults_mut().arm(schedule);
        let (dense_at, dense_blob, dense_report, dense_trace) =
            compound_fingerprint(&mut dense, horizon_ns, quantum);

        if quantum.is_none() {
            // The naive oracle has no gear box, so it is compared only on
            // pure cycle-accurate runs.
            let naive_log: ObsLog = Arc::new(Mutex::new(Vec::new()));
            let mut naive: NaiveSimulation<u64> = NaiveSimulation::new();
            build_paced!(naive, pairs, naive_log);
            build_faulty_chains!(naive, chains);
            naive.faults_mut().arm(schedule);
            naive.run_until(Time::from_ns(horizon_ns));
            prop_assert_eq!(naive.time(), dense_at);
            prop_assert_eq!(
                &naive.stats().report(naive.time()).to_string(),
                &dense_report
            );
            prop_assert_eq!(
                naive_log.lock().unwrap().clone(),
                dense_log.lock().unwrap().clone()
            );
        }

        let log: ObsLog = Arc::new(Mutex::new(Vec::new()));
        let mut sparse: Simulation<u64> = Simulation::new();
        build_paced!(sparse, pairs, log);
        build_faulty_chains!(sparse, chains);
        sparse.faults_mut().arm(schedule);
        let (at, blob, report, trace) = compound_fingerprint(&mut sparse, horizon_ns, quantum);
        prop_assert_eq!(dense_at, at);
        prop_assert_eq!(&dense_report, &report);
        prop_assert_eq!(&dense_trace, &trace);
        prop_assert_eq!(&dense_blob, &blob);
        prop_assert_eq!(
            dense_log.lock().unwrap().clone(),
            log.lock().unwrap().clone()
        );
    }
}

// ---------------------------------------------------------------------------
// Back-pressure: the real component models on saturated platforms.
//
// The toy components above publish no stall hints. The platforms below are
// where `Component::stall_hint` does its work — generators blocked on full
// request wires, single-slot memories mid-service, buses waiting out busy
// channels — so they are where "an elided tick is an unobservable no-op"
// has to be shown against the oracles.
// ---------------------------------------------------------------------------

use mpsoc_platform::{
    build_platform, build_single_layer, MemorySystem, Platform, PlatformSpec, RunReport,
    SingleLayerSpec, Topology,
};
use mpsoc_protocol::ProtocolKind;

/// The five `cycle_saturated` shapes of the benchmark (think time 0–2
/// cycles) and a 32-wait-state on-chip memory behind the collapsed and the
/// distributed full platform.
fn stalled_platforms() -> Vec<(String, Box<dyn Fn() -> Platform>)> {
    let mut out: Vec<(String, Box<dyn Fn() -> Platform>)> = Vec::new();
    for (label, protocol, initiators, targets) in [
        ("stbus_t3_12x1", ProtocolKind::StbusT3, 12, 1),
        ("ahb_12x1", ProtocolKind::Ahb, 12, 1),
        ("axi_12x1", ProtocolKind::Axi, 12, 1),
        ("stbus_t2_8x4", ProtocolKind::StbusT2, 8, 4),
        ("axi_8x4", ProtocolKind::Axi, 8, 4),
    ] {
        out.push((
            label.to_owned(),
            Box::new(move || {
                build_single_layer(&SingleLayerSpec {
                    protocol,
                    initiators,
                    targets,
                    think_cycles: (0, 2),
                    scale: 1,
                    seed: 0x0dab,
                    ..SingleLayerSpec::default()
                })
                .expect("single layer builds")
            }),
        ));
    }
    for topology in [Topology::Collapsed, Topology::Distributed] {
        out.push((
            format!("{topology:?}/32ws"),
            Box::new(move || {
                build_platform(&PlatformSpec {
                    topology,
                    memory: MemorySystem::OnChip { wait_states: 32 },
                    scale: 1,
                    seed: 0x0dab,
                    ..PlatformSpec::default()
                })
                .expect("platform builds")
            }),
        ));
    }
    out
}

/// A `RunReport` as bytes: every field, floats at full precision.
fn report_bytes(report: &RunReport) -> String {
    format!("{report:?}")
}

/// Runs `platform` to completion and returns everything compared below:
/// the report, the checkpoint and the elided tick count.
fn outcome(platform: &mut Platform) -> (String, Vec<u8>, u64) {
    let report = platform.run().expect("drains");
    (
        report_bytes(&report),
        platform.checkpoint().as_bytes().to_vec(),
        platform.sim().ticks_elided(),
    )
}

/// Sparse (the default, with elision) against `--dense`: byte-identical
/// `RunReport`s and checkpoints.
#[test]
fn stalled_platforms_match_dense_and_every_job_count() {
    for (label, build) in stalled_platforms() {
        let (report, blob, elided) = outcome(&mut build());
        assert!(
            elided > 0,
            "{label}: nothing elided — not a stalled platform"
        );

        let mut dense = build();
        dense.sim_mut().set_dense(true);
        let (dense_report, dense_blob, dense_elided) = outcome(&mut dense);
        assert_eq!(dense_report, report, "{label}: dense");
        assert_eq!(dense_blob, blob, "{label}: dense");
        assert_eq!(dense_elided, 0, "{label}: dense elides nothing");
    }
}

/// A checkpoint taken while generators sit on full wires restores into a
/// fresh platform that carries on exactly as the straight-through run: same
/// blob at a later instant, same final report. Stall hints are derived
/// state — nothing of them is in the blob, the restored platform re-reads
/// them.
#[test]
fn a_checkpoint_taken_while_stalled_resumes_like_the_straight_run() {
    let (mid, later) = (Time::from_us(3), Time::from_us(6));
    for (label, build) in stalled_platforms() {
        let mut straight = build();
        straight.sim_mut().run_until(mid);
        assert!(
            straight.sim().ticks_elided() > 0,
            "{label}: nothing stalled before the checkpoint"
        );
        let blob = straight.checkpoint();
        straight.sim_mut().run_until(later);
        let blob_later = straight.checkpoint();
        let report = report_bytes(&straight.run().expect("drains"));

        let mut resumed = build();
        resumed.restore(&blob).expect("restores into a twin");
        assert_eq!(
            resumed.checkpoint().as_bytes(),
            blob.as_bytes(),
            "{label}: restore"
        );
        resumed.sim_mut().run_until(later);
        assert_eq!(
            resumed.checkpoint().as_bytes(),
            blob_later.as_bytes(),
            "{label}: at {later}"
        );
        assert_eq!(
            report_bytes(&resumed.run().expect("drains")),
            report,
            "{label}: final report"
        );
    }
}

/// Wires `$initiators` saturating IPTGs through one bus of `$protocol` into
/// `$targets` single-slot on-chip memories on any executor (`Simulation`
/// and `NaiveSimulation` share the API shape) — the `build_single_layer`
/// organisation, by hand, because the platform builder only targets
/// `Simulation`.
macro_rules! wire_saturated {
    ($sim:expr, $protocol:expr, $initiators:expr, $targets:expr) => {{
        use mpsoc_protocol::{AddressRange, DataWidth, InitiatorId};
        use mpsoc_traffic::{
            AddressPattern, AgentConfig, IpTrafficGenerator, IptgConfig, TrafficSegment,
        };
        let protocol: ProtocolKind = $protocol;
        let clk = ClockDomain::from_mhz(250);
        let width = DataWidth::BITS64;
        let region: u64 = 16 << 20;
        let mut wire = |name: String, cap: usize| {
            let links = $sim.links_mut();
            (
                links.add_link(format!("{name}.req"), cap, clk.period()),
                links.add_link(format!("{name}.resp"), cap, clk.period()),
            )
        };
        let mem_wires: Vec<_> = (0..$targets).map(|t| wire(format!("mem{t}"), 1)).collect();
        let ip_wires: Vec<_> = (0..$initiators)
            .map(|i| wire(format!("ip{i}"), 2))
            .collect();

        // The three buses share the port API through one trait.
        let mut bus: Box<dyn Interconnect> = match protocol {
            ProtocolKind::Ahb => Box::new(mpsoc_ahb::AhbBus::new(
                "bus",
                mpsoc_ahb::AhbBusConfig {
                    width,
                    ..Default::default()
                },
                clk,
            )),
            ProtocolKind::Axi => Box::new(mpsoc_axi::AxiInterconnect::new(
                "bus",
                mpsoc_axi::AxiInterconnectConfig::default(),
                clk,
            )),
            stbus => Box::new(mpsoc_stbus::StbusNode::new(
                "bus",
                mpsoc_stbus::StbusNodeConfig {
                    protocol: stbus,
                    ..Default::default()
                },
                clk,
            )),
        };
        for &(req, resp) in &ip_wires {
            bus.add_initiator(req, resp);
        }
        for (t, &(req, resp)) in mem_wires.iter().enumerate() {
            let base = 0x8000_0000 + t as u64 * region;
            let range = AddressRange::new(base, base + region);
            let port = bus.add_target(req, resp);
            bus.add_route(range, port).expect("disjoint routes");
            $sim.add_component(
                Box::new(mpsoc_memory::OnChipMemory::new(
                    format!("mem{t}"),
                    mpsoc_memory::OnChipMemoryConfig { wait_states: 1 },
                    clk,
                    req,
                    resp,
                )),
                clk,
            );
        }
        for (i, &(req, resp)) in ip_wires.iter().enumerate() {
            let base = 0x8000_0000 + (i % $targets) as u64 * region;
            let config = IptgConfig {
                initiator: InitiatorId::new(i as u16),
                width,
                seed: 0x0dab ^ (0x9e37 + i as u64),
                agents: vec![AgentConfig {
                    read_fraction: 0.8,
                    beats_choices: vec![4, 8],
                    max_outstanding: protocol.clamp_outstanding(4),
                    posted_writes: protocol.supports_posted_writes(),
                    segments: vec![TrafficSegment {
                        transactions: 40,
                        burst_len: (2, 6),
                        think_cycles: (0, 2),
                    }],
                    ..AgentConfig::simple("load", AddressPattern::Random { base, len: region }, 0)
                }],
            };
            let gen = IpTrafficGenerator::new(format!("ip{i}"), config, req, resp)
                .expect("valid IPTG config");
            $sim.add_component(Box::new(gen), clk);
        }
        $sim.add_component(bus, clk);
    }};
}

/// The always-tick naive oracle against the sparse schedule (with elision)
/// and the dense one, on hand-wired saturated platforms of every bus type:
/// same drain time, same rendered stats table, and — sparse against dense —
/// the same checkpoint bytes.
#[test]
fn stalled_platforms_match_the_naive_oracle() {
    for (protocol, initiators, targets) in [
        (ProtocolKind::StbusT3, 12usize, 1usize),
        (ProtocolKind::Ahb, 12, 1),
        (ProtocolKind::Axi, 12, 1),
        (ProtocolKind::StbusT2, 8, 4),
        (ProtocolKind::Axi, 8, 4),
    ] {
        let label = format!("{protocol} {initiators}x{targets}");
        let horizon = Time::from_ms(10);

        let mut naive: NaiveSimulation<mpsoc_protocol::Packet> = NaiveSimulation::with_seed(7);
        wire_saturated!(naive, protocol, initiators, targets);
        let RunOutcome::Quiescent { at } = naive.run_to_quiescence(horizon) else {
            panic!("{label}: the naive run must drain");
        };
        let naive_report = naive.stats().report(at).to_string();

        let mut sparse: Simulation<mpsoc_protocol::Packet> = Simulation::with_seed(7);
        wire_saturated!(sparse, protocol, initiators, targets);
        assert_eq!(
            sparse.run_to_quiescence(horizon),
            RunOutcome::Quiescent { at },
            "{label}: sparse drain time"
        );
        assert_eq!(
            sparse.stats().report(at).to_string(),
            naive_report,
            "{label}: sparse stats"
        );
        assert!(sparse.ticks_elided() > 0, "{label}: nothing elided");

        let mut dense: Simulation<mpsoc_protocol::Packet> = Simulation::with_seed(7);
        dense.set_dense(true);
        wire_saturated!(dense, protocol, initiators, targets);
        assert_eq!(
            dense.run_to_quiescence(horizon),
            RunOutcome::Quiescent { at },
            "{label}: dense drain time"
        );
        assert_eq!(
            dense.stats().report(at).to_string(),
            naive_report,
            "{label}: dense stats"
        );
        assert_eq!(
            sparse.checkpoint().as_bytes(),
            dense.checkpoint().as_bytes(),
            "{label}: sparse and dense checkpoints"
        );
    }
}

/// Wires the two components whose elided ticks *count* — the DSP (stalled
/// on refills, `dsp.stall_cycles`) and an AHB bus (held through its
/// target's wait states, `bus.idle_waits`) — with a competing generator in
/// front of one slow memory, on any executor.
macro_rules! wire_waiting {
    ($sim:expr) => {{
        use mpsoc_protocol::{AddressRange, DataWidth, InitiatorId};
        use mpsoc_traffic::{
            AddressPattern, AgentConfig, DspConfig, DspCore, IpTrafficGenerator, IptgConfig,
            TrafficSegment,
        };
        let clk = ClockDomain::from_mhz(200);
        let width = DataWidth::BITS32;
        let mut wire = |name: &str, cap: usize| {
            let links = $sim.links_mut();
            (
                links.add_link(format!("{name}.req"), cap, clk.period()),
                links.add_link(format!("{name}.resp"), cap, clk.period()),
            )
        };
        let (mem, dsp, ip) = (wire("mem", 1), wire("dsp", 2), wire("ip", 2));
        let mut bus = mpsoc_ahb::AhbBus::new(
            "bus",
            mpsoc_ahb::AhbBusConfig {
                width,
                ..Default::default()
            },
            clk,
        );
        bus.add_initiator(dsp.0, dsp.1);
        bus.add_initiator(ip.0, ip.1);
        let port = bus.add_target(mem.0, mem.1);
        bus.add_route(AddressRange::new(0, 1 << 28), port)
            .expect("one route");
        $sim.add_component(
            Box::new(mpsoc_memory::OnChipMemory::new(
                "mem",
                mpsoc_memory::OnChipMemoryConfig { wait_states: 6 },
                clk,
                mem.0,
                mem.1,
            )),
            clk,
        );
        let core = DspConfig {
            initiator: InitiatorId::new(0),
            instructions: 1_500,
            ..DspConfig::default()
        };
        $sim.add_component(
            Box::new(DspCore::new("dsp", core, dsp.0, dsp.1)),
            ClockDomain::from_mhz(400),
        );
        let config = IptgConfig {
            initiator: InitiatorId::new(1),
            width,
            seed: 0x0dab,
            agents: vec![AgentConfig {
                read_fraction: 0.7,
                beats_choices: vec![4, 8],
                max_outstanding: 1,
                posted_writes: false,
                segments: vec![TrafficSegment {
                    transactions: 60,
                    burst_len: (1, 3),
                    think_cycles: (4, 40),
                }],
                ..AgentConfig::simple(
                    "load",
                    AddressPattern::Random {
                        base: 0x0400_0000,
                        len: 1 << 20,
                    },
                    0,
                )
            }],
        };
        let gen = IpTrafficGenerator::new("ip", config, ip.0, ip.1).expect("valid IPTG config");
        $sim.add_component(Box::new(gen), clk);
        $sim.add_component(Box::new(bus), clk);
    }};
}

/// A checkpoint cut on an edge the DSP sleeps through stalled *and* the AHB
/// bus sleeps through held — both owing credit to their counters — is the
/// same blob on the sparse schedule and on the dense one, reads the naive
/// oracle's statistics, and resumes to the straight run's.
#[test]
fn a_checkpoint_cut_while_the_dsp_is_stalled_and_the_bus_is_held_is_exact() {
    type Sim = Simulation<mpsoc_protocol::Packet>;
    let horizon = Time::from_ms(10);
    let build = || {
        let mut sim: Sim = Simulation::with_seed(7);
        wire_waiting!(sim);
        sim
    };
    let waiting = |sim: &Sim| {
        sim.component_ids()
            .filter(|&id| ["dsp", "bus"].contains(&sim.component_name(id)))
            .map(|id| sim.component_ticks(id) - sim.component_dispatches(id))
            .collect::<Vec<u64>>()
    };

    // Scout for the cut: the first edge past 2 us that neither of the two
    // is dispatched on although it is charged to both.
    let mut scout = build();
    scout.run_until(Time::from_us(2));
    let cut = loop {
        let before = waiting(&scout);
        let edge = scout.step().expect("components exist");
        assert!(edge < horizon, "the two never wait on the same edge");
        if waiting(&scout)
            .iter()
            .zip(&before)
            .all(|(now, then)| now > then)
        {
            break edge;
        }
    };

    let mut naive: NaiveSimulation<mpsoc_protocol::Packet> = NaiveSimulation::with_seed(7);
    wire_waiting!(naive);
    naive.run_until(cut);
    let naive_cut = naive.stats().report(cut).to_string();
    let RunOutcome::Quiescent { at: end } = naive.run_to_quiescence(horizon) else {
        panic!("the naive run must drain");
    };
    let naive_end = naive.stats().report(end).to_string();
    assert!(naive.stats().counter_by_name("dsp.stall_cycles") > 1_000);
    assert!(naive.stats().counter_by_name("bus.idle_waits") > 1_000);

    let mut sparse = build();
    sparse.run_until(cut);
    let blob = sparse.checkpoint();
    assert_eq!(sparse.stats().report(cut).to_string(), naive_cut);
    let mut dense = build();
    dense.set_dense(true);
    dense.run_until(cut);
    assert!(
        dense.checkpoint().as_bytes() == blob.as_bytes(),
        "dense: checkpoint at the cut"
    );
    // ... and the dense schedule carries the sparse blob on to the same end.
    let mut resumed_dense = build();
    resumed_dense.set_dense(true);
    resumed_dense.restore(&blob).expect("restores into a twin");
    assert_eq!(
        resumed_dense.run_to_quiescence(horizon),
        RunOutcome::Quiescent { at: end },
        "dense: resumed drain time"
    );
    assert_eq!(
        resumed_dense.stats().report(end).to_string(),
        naive_end,
        "dense: resumed"
    );

    let mut resumed = build();
    resumed.restore(&blob).expect("restores into a twin");
    assert_eq!(resumed.stats().report(cut).to_string(), naive_cut);
    assert_eq!(
        sparse.run_to_quiescence(horizon),
        RunOutcome::Quiescent { at: end }
    );
    assert_eq!(
        resumed.run_to_quiescence(horizon),
        RunOutcome::Quiescent { at: end }
    );
    assert_eq!(sparse.stats().report(end).to_string(), naive_end);
    assert_eq!(resumed.stats().report(end).to_string(), naive_end);
    assert!(
        resumed.checkpoint().as_bytes() == sparse.checkpoint().as_bytes(),
        "resumed and straight runs end in the same state"
    );
    assert!(waiting(&resumed).iter().all(|&elided| elided > 0));
}
