//! Tests of the two halves that finish the event-driven schedule: accounted
//! elision ([`StallHint::count_elided`]) and the wake keys that replace
//! per-edge polling — and, at the end, of the same verdict taken inside a
//! fast-gear window ([`FastCtx::stall`]). The reference in every one of them
//! is a twin on a schedule that dispatches everything — `set_dense`, or the
//! same platform without hints — which charges and counts the same by
//! construction.

use super::tests::{
    add_stalled_pair, component_tick_counts, poll_or_stall, stalled_pairs, stalled_pairs_on,
};
use super::*;
use crate::stats::CounterId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What a [`Waiter`]'s tick does to the counter its hint declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Counts {
    Honestly,
    Never,
    Twice,
    AndASecondCounter,
}

/// A master blocked on a response, counting the cycles it waits: the shape
/// of a core stalled on a refill or a bus held through wait states. It
/// counts one wait per cycle from `count_from` on until the response
/// arrives; payloads on `nudge` are consumed and change nothing, so a
/// delivery there only forces a dispatch — and a re-read of the hint —
/// in the middle of the wait.
struct Waiter {
    name: String,
    resp: LinkId,
    nudge: LinkId,
    count_from: Time,
    counts: Counts,
    waiting: bool,
    waits: CounterId,
    other: CounterId,
    /// Tick bodies actually run (observation channel, not state).
    dispatched: Arc<AtomicU64>,
}

impl crate::snapshot::Snapshot for Waiter {
    fn save(&self, w: &mut crate::snapshot::StateWriter) {
        w.write_bool(self.waiting);
    }
    fn restore(&mut self, r: &mut crate::snapshot::StateReader<'_>) {
        self.waiting = r.read_bool();
    }
}

impl Component<u64> for Waiter {
    fn name(&self) -> &str {
        &self.name
    }
    fn register_metrics(&mut self, stats: &mut StatsRegistry) {
        self.waits = stats.counter(&format!("{}.waits", self.name));
        self.other = stats.counter(&format!("{}.other", self.name));
    }
    fn tick(&mut self, ctx: &mut TickContext<'_, u64>) {
        self.dispatched.fetch_add(1, Ordering::Relaxed);
        let waits = self.waits;
        ctx.links.pop(self.nudge, ctx.time);
        if ctx.links.pop(self.resp, ctx.time).is_some() {
            self.waiting = false;
        } else if self.waiting && ctx.time >= self.count_from {
            match self.counts {
                Counts::Honestly => ctx.stats.inc(waits, 1),
                Counts::Never => {}
                Counts::Twice => ctx.stats.inc(waits, 2),
                Counts::AndASecondCounter => {
                    ctx.stats.inc(waits, 1);
                    ctx.stats.inc(self.other, 1);
                }
            }
        }
    }
    fn is_idle(&self) -> bool {
        !self.waiting
    }
    fn watched_links(&self) -> Option<Vec<LinkId>> {
        Some(vec![self.resp, self.nudge])
    }
    fn next_activity(&self) -> Option<Time> {
        self.waiting.then_some(Time::ZERO)
    }
    fn stall_hint(&self, hint: &mut StallHint) {
        if self.waiting {
            hint.gate_deadline(crate::Gate::CLOSED);
            hint.count_elided(self.waits, self.count_from);
        }
    }
    fn fast_forward(&mut self, ctx: &mut crate::FastCtx<'_, u64>) {
        poll_or_stall(self, ctx);
    }
}

/// Pushes payload `k` onto wire `sends[k].0` at `sends[k].1`, with
/// `sends[k].2` of extra transfer time. `sends` is sorted by instant.
struct Sender {
    sends: Vec<(LinkId, Time, Time)>,
    sent: usize,
    dispatched: Arc<AtomicU64>,
}

impl crate::snapshot::Snapshot for Sender {
    fn save(&self, w: &mut crate::snapshot::StateWriter) {
        w.write_usize(self.sent);
    }
    fn restore(&mut self, r: &mut crate::snapshot::StateReader<'_>) {
        self.sent = r.read_usize();
    }
}

impl Component<u64> for Sender {
    fn name(&self) -> &str {
        "sender"
    }
    fn tick(&mut self, ctx: &mut TickContext<'_, u64>) {
        self.dispatched.fetch_add(1, Ordering::Relaxed);
        while let Some(&(wire, at, extra)) = self.sends.get(self.sent) {
            if ctx.time < at {
                break;
            }
            ctx.links
                .push_after(wire, ctx.time, extra, self.sent as u64)
                .unwrap();
            self.sent += 1;
        }
    }
    fn is_idle(&self) -> bool {
        self.sent == self.sends.len()
    }
    fn watched_links(&self) -> Option<Vec<LinkId>> {
        Some(Vec::new())
    }
    fn next_activity(&self) -> Option<Time> {
        self.sends.get(self.sent).map(|&(_, at, _)| at)
    }
}

/// `n` waiters on a 100 MHz clock (edges every 10 ns), waiter `k` nudged at
/// 100 ns and answered at `200 + 30 k` ns (both one 10 ns hop later), each
/// counting from `count_from`.
fn waiters(n: usize, count_from: Time, counts: Counts) -> (Simulation<u64>, Arc<AtomicU64>) {
    let mut sim: Simulation<u64> = Simulation::with_seed(9);
    let clk = ClockDomain::from_mhz(100);
    let dispatched = Arc::new(AtomicU64::new(0));
    let mut sends = Vec::new();
    for k in 0..n {
        let resp = sim
            .links_mut()
            .add_link(format!("resp{k}"), 1, clk.period());
        let nudge = sim
            .links_mut()
            .add_link(format!("nudge{k}"), 1, clk.period());
        sends.push((nudge, Time::from_ns(100), Time::ZERO));
        sends.push((resp, Time::from_ns(200 + 30 * k as u64), Time::ZERO));
        sim.add_component(
            Box::new(Waiter {
                name: format!("w{k}"),
                resp,
                nudge,
                count_from,
                counts,
                waiting: true,
                waits: CounterId::default(),
                other: CounterId::default(),
                dispatched: Arc::clone(&dispatched),
            }),
            clk,
        );
    }
    sends.sort_by_key(|&(_, at, _)| at);
    let responder = Sender {
        sends,
        sent: 0,
        dispatched: Arc::clone(&dispatched),
    };
    sim.add_component(Box::new(responder), clk);
    (sim, dispatched)
}

fn waits(sim: &Simulation<u64>, k: usize) -> u64 {
    sim.stats().counter_by_name(&format!("w{k}.waits"))
}

/// Every tick is charged to exactly one component, dispatched or not.
fn assert_accounts_add_up(sim: &Simulation<u64>) {
    let charged: u64 = component_tick_counts(sim).iter().sum();
    let dispatched: u64 = sim
        .component_ids()
        .map(|id| sim.component_dispatches(id))
        .sum();
    assert_eq!(charged, sim.ticks_executed());
    assert_eq!(dispatched, sim.ticks_executed() - sim.ticks_elided());
}

/// Byte-identical checkpoints (without printing them when they are not).
fn assert_same_state(a: &Simulation<u64>, b: &Simulation<u64>) {
    assert!(
        a.checkpoint().as_bytes() == b.checkpoint().as_bytes(),
        "checkpoints differ at {} / {}",
        a.time(),
        b.time()
    );
}

const HORIZON: Time = Time::from_us(2);

#[test]
fn credit_counts_from_the_declared_instant() {
    // The response pushed at 200 ns is popped on the 210 ns edge, so the
    // waiter waits on the 21 edges 0, 10, .. 200 ns. Its hint is read at
    // 0 ns and again at 110 ns (the nudge's dispatch), where every `from`
    // up to 100 ns already lies in the past.
    for (from_ns, expect) in [
        (0, 21),   // from the first edge
        (50, 16),  // an edge exactly at `from`: 50 .. 200
        (55, 15),  // `from` between edges: 60 .. 200
        (110, 10), // exactly the edge that re-reads the hint: 110 .. 200
        (195, 1),  // the last waiting edge only
        (205, 0),  // the wait is over before `from`
    ] {
        let from = Time::from_ns(from_ns);
        let (mut sparse, dispatched) = waiters(1, from, Counts::Honestly);
        let (mut dense, _) = waiters(1, from, Counts::Honestly);
        dense.set_dense(true);
        let end = dense.run_to_quiescence_strict(HORIZON).unwrap();
        assert_eq!(sparse.run_to_quiescence_strict(HORIZON).unwrap(), end);
        assert_eq!(waits(&dense, 0), expect, "dense, from {from_ns} ns");
        assert_eq!(waits(&sparse, 0), expect, "sparse, from {from_ns} ns");
        assert_same_state(&sparse, &dense);
        // The waiter ran three bodies: its first tick, the nudge, the
        // response; the rest of its wait was elided and credited. The
        // responder ran its first tick and one per push.
        assert_eq!(sparse.component_dispatches(ComponentId(0)), 3);
        assert_eq!(sparse.component_ticks(ComponentId(0)), 22);
        assert_eq!(dispatched.load(Ordering::Relaxed), 3 + 3);
        assert_accounts_add_up(&sparse);
    }
}

#[test]
fn the_counter_reads_exact_after_every_public_call() {
    let from = Time::from_ns(35);
    let (mut whole, _) = waiters(3, from, Counts::Honestly);
    whole.run_to_quiescence_strict(HORIZON).unwrap();

    // One edge at a time, against a dense twin in lockstep: the registry —
    // and the whole checkpoint — is the dense one's after every step.
    let (mut stepped, _) = waiters(3, from, Counts::Honestly);
    let (mut dense, _) = waiters(3, from, Counts::Honestly);
    dense.set_dense(true);
    while !(stepped.time() > Time::ZERO && stepped.is_quiescent()) {
        assert!(stepped.time() < HORIZON, "never drained");
        assert_eq!(stepped.step(), dense.step());
        for k in 0..3 {
            assert_eq!(
                waits(&stepped, k),
                waits(&dense, k),
                "at {}",
                stepped.time()
            );
        }
        assert_same_state(&stepped, &dense);
        assert_accounts_add_up(&stepped);
    }
    assert!(stepped.ticks_elided() > 0);
    assert_same_state(&stepped, &whole);

    // Bounded runs whose horizons fall between edges.
    let (mut chunked, _) = waiters(3, from, Counts::Honestly);
    let (mut dense, _) = waiters(3, from, Counts::Honestly);
    dense.set_dense(true);
    let mut horizon = Time::ZERO;
    while !(chunked.time() > Time::ZERO && chunked.is_quiescent()) {
        assert!(horizon < HORIZON, "never drained");
        horizon += Time::from_ns(37);
        chunked.run_until(horizon);
        dense.run_until(horizon);
        for k in 0..3 {
            assert_eq!(waits(&chunked, k), waits(&dense, k), "at {horizon}");
        }
    }
    let (mut once, _) = waiters(3, from, Counts::Honestly);
    once.run_until(horizon);
    assert_same_state(&chunked, &once);
    assert_same_state(&chunked, &dense);
    assert_eq!(chunked.ticks_executed(), once.ticks_executed());
    assert_eq!(chunked.ticks_elided(), once.ticks_elided());
}

#[test]
fn restore_mid_stall_resumes_the_count() {
    let from = Time::from_ns(20);
    let (mut straight, _) = waiters(2, from, Counts::Honestly);
    // 155 ns: both waiters stalled, nudges behind them, responses ahead.
    straight.run_until(Time::from_ns(155));
    let mid = straight.checkpoint();
    assert_eq!(waits(&straight, 0), 14, "edges 20 .. 150 ns");
    let elided_before = straight.ticks_elided();
    assert!(elided_before > 0);
    let end = straight.run_to_quiescence_strict(HORIZON).unwrap();

    // Dense cuts the same blob: no credit is pending in either.
    let (mut dense, _) = waiters(2, from, Counts::Honestly);
    dense.set_dense(true);
    dense.run_until(Time::from_ns(155));
    assert!(dense.checkpoint().as_bytes() == mid.as_bytes());

    let (mut resumed, _) = waiters(2, from, Counts::Honestly);
    resumed.restore(&mid).expect("restore onto twin");
    assert_eq!(waits(&resumed, 0), 14);
    assert!(resumed.checkpoint().as_bytes() == mid.as_bytes());
    // The twin has never ticked, so its waiters have yet to resolve their
    // counter: they poll one edge, then sleep and are credited again.
    resumed.run_until(Time::from_ns(185));
    assert_eq!(waits(&resumed, 0), 17, "edges 20 .. 180 ns");
    assert!(resumed.ticks_elided() > 0);
    assert_eq!(resumed.run_to_quiescence_strict(HORIZON).unwrap(), end);
    assert_same_state(&resumed, &straight);
    assert_accounts_add_up(&resumed);
}

#[test]
fn the_audit_accepts_exactly_the_declared_one() {
    // `from` between edges and mid-wait: the audit must see +0 before it
    // and +1 from it on.
    let from = Time::from_ns(55);
    let (mut plain, _) = waiters(2, from, Counts::Honestly);
    let (mut audited, dispatched) = waiters(2, from, Counts::Honestly);
    audited.enable_skip_audit();
    let end = plain.run_to_quiescence_strict(HORIZON).unwrap();
    assert_eq!(audited.run_to_quiescence_strict(HORIZON).unwrap(), end);
    assert_same_state(&audited, &plain);
    assert!(plain.ticks_elided() > 0);
    assert_eq!(audited.ticks_elided(), 0);
    assert_eq!(dispatched.load(Ordering::Relaxed), audited.ticks_executed());
}

fn audit_a_liar(counts: Counts) {
    let (mut sim, _) = waiters(1, Time::from_ns(30), counts);
    sim.enable_skip_audit();
    sim.run_until(Time::from_ns(90));
}

#[test]
#[should_panic(expected = "must add exactly one to the counter its stall hint declared")]
fn the_audit_catches_a_declared_counter_the_tick_does_not_bump() {
    audit_a_liar(Counts::Never);
}

#[test]
#[should_panic(expected = "must add exactly one to the counter its stall hint declared")]
fn the_audit_catches_a_declared_counter_bumped_by_two() {
    audit_a_liar(Counts::Twice);
}

#[test]
#[should_panic(expected = "wrote stats during a tick sparse scheduling would not have dispatched")]
fn the_audit_catches_a_second_counter() {
    audit_a_liar(Counts::AndASecondCounter);
}

#[test]
fn a_gear_shift_mid_stall_takes_the_waiters_over() {
    let from = Time::from_ns(20);
    let (mut straight, _) = waiters(3, from, Counts::Honestly);
    let end = straight.run_to_quiescence_strict(HORIZON).unwrap();
    for quantum in [1, 4] {
        // Cycle gear until every waiter's verdict stands, then windows.
        let (mut shifted, _) = waiters(3, from, Counts::Honestly);
        let (mut dense, _) = waiters(3, from, Counts::Honestly);
        dense.set_dense(true);
        for sim in [&mut shifted, &mut dense] {
            sim.run_until(Time::from_ns(155));
            sim.set_fidelity(Fidelity::Fast { quantum });
            sim.run_to_quiescence_strict(HORIZON).unwrap();
        }
        assert_same_state(&shifted, &dense);
        assert_accounts_add_up(&shifted);
        if quantum == 1 {
            assert_eq!(shifted.time(), end);
            assert_same_state(&shifted, &straight);
        }
    }
}

/// Runs `sim` to 205 ns — every producer on a full wire, every consumer
/// mid-service with a head queued — applies `flip`, and runs it out.
/// Returns what the second leg charged, elided and dispatched.
fn second_leg(
    (mut sim, dispatched): (Simulation<u64>, Arc<AtomicU64>),
    flip: impl FnOnce(&mut Simulation<u64>),
) -> (Vec<u8>, [u64; 3], Vec<u64>) {
    sim.run_until(Time::from_ns(205));
    let before = [
        sim.ticks_executed(),
        sim.ticks_elided(),
        dispatched.load(Ordering::Relaxed),
    ];
    let charged_before = component_tick_counts(&sim);
    flip(&mut sim);
    sim.run_to_quiescence_strict(Time::from_us(20)).unwrap();
    assert_accounts_add_up(&sim);
    let after = [
        sim.ticks_executed(),
        sim.ticks_elided(),
        dispatched.load(Ordering::Relaxed),
    ];
    let charged: Vec<u64> = component_tick_counts(&sim)
        .iter()
        .zip(charged_before)
        .map(|(after, before)| after - before)
        .collect();
    (
        sim.checkpoint().as_bytes().to_vec(),
        [0, 1, 2].map(|k| after[k] - before[k]),
        charged,
    )
}

#[test]
fn a_schedule_flipped_mid_run_counts_like_one_that_started_that_way() {
    type Flip = fn(&mut Simulation<u64>);
    let flips: [(&str, Flip); 3] = [
        ("dense", |sim| sim.set_dense(true)),
        ("audit", |sim| sim.enable_skip_audit()),
        ("fast gear, quantum 1", |sim| {
            sim.set_fidelity(Fidelity::Fast { quantum: 1 })
        }),
    ];
    for (label, flip) in flips {
        // Started that way: the flip comes before the first edge.
        let mut from_start = stalled_pairs(4, true, false);
        flip(&mut from_start.0);
        let from_start = second_leg(from_start, |_| {});
        // Flipped with verdicts standing.
        let flipped = second_leg(stalled_pairs(4, true, false), flip);
        assert_eq!(flipped, from_start, "{label}");
    }
    // And back: a dense first leg leaves the sparse second one nothing odd.
    let sparse = second_leg(stalled_pairs(4, true, false), |_| {});
    let mut dense_first = stalled_pairs(4, true, false);
    dense_first.0.set_dense(true);
    assert_eq!(second_leg(dense_first, |sim| sim.set_dense(false)), sparse);
}

#[test]
fn a_component_added_mid_run_is_keyed_like_the_rest() {
    let clk = ClockDomain::from_mhz(100);
    let run = |hints: bool| {
        let (mut sim, dispatched) = stalled_pairs(2, hints, false);
        sim.run_until(Time::from_ns(205));
        // One pair joins the stalled ones' bucket, one opens a new bucket.
        add_stalled_pair(&mut sim, "late", hints, false, (clk, clk), &dispatched);
        let odd = clk.with_phase(Time::from_ns(3));
        add_stalled_pair(&mut sim, "odd", hints, true, (odd, odd), &dispatched);
        sim.run_to_quiescence_strict(Time::from_us(20)).unwrap();
        assert_accounts_add_up(&sim);
        sim
    };
    let (hinted, polling) = (run(true), run(false));
    assert_same_state(&hinted, &polling);
    assert_eq!(hinted.ticks_executed(), polling.ticks_executed());
    assert_eq!(
        component_tick_counts(&hinted),
        component_tick_counts(&polling)
    );
    assert!(hinted.ticks_elided() > 0 && polling.ticks_elided() == 0);
}

#[test]
fn component_ticks_read_between_steps_are_the_polled_ones() {
    let (mut hinted, _) = stalled_pairs(3, true, false);
    let (mut polling, _) = stalled_pairs(3, false, false);
    while !(hinted.time() > Time::ZERO && hinted.is_quiescent()) {
        assert!(hinted.time() < Time::from_us(20), "never drained");
        assert_eq!(hinted.step(), polling.step());
        assert_eq!(
            component_tick_counts(&hinted),
            component_tick_counts(&polling),
            "at {}",
            hinted.time()
        );
        assert_eq!(hinted.ticks_executed(), polling.ticks_executed());
        assert_accounts_add_up(&hinted);
    }
    assert!(hinted.ticks_elided() > 0);
}

#[test]
fn wake_on_space_keeps_the_dense_order_across_clock_domains() {
    // Producer and consumer in one bucket, in buckets that coincide on
    // every other producer edge (100 / 50 MHz), and in buckets that never
    // coincide (the consumer's clock 3 ns out of phase) — each with the
    // consumer registered before and after its producer.
    let mhz100 = ClockDomain::from_mhz(100);
    for consumer_clk in [
        mhz100,
        ClockDomain::from_mhz(50),
        mhz100.with_phase(Time::from_ns(3)),
    ] {
        for consumer_first in [false, true] {
            let build = |hints| stalled_pairs_on(2, hints, consumer_first, mhz100, consumer_clk);
            let (mut hinted, dispatched) = build(true);
            let (mut polling, _) = build(false);
            let (mut dense, _) = build(true);
            dense.set_dense(true);
            let horizon = Time::from_us(20);
            let end = dense.run_to_quiescence_strict(horizon).unwrap();
            assert_eq!(hinted.run_to_quiescence_strict(horizon).unwrap(), end);
            assert_eq!(polling.run_to_quiescence_strict(horizon).unwrap(), end);
            let label = format!("{consumer_clk:?}, consumer first: {consumer_first}");
            assert_same_state(&hinted, &dense);
            assert_eq!(hinted.ticks_executed(), polling.ticks_executed(), "{label}");
            assert_eq!(
                component_tick_counts(&hinted),
                component_tick_counts(&polling),
                "{label}"
            );
            assert_eq!(
                dispatched.load(Ordering::Relaxed),
                hinted.ticks_executed() - hinted.ticks_elided()
            );
            assert!(
                hinted.ticks_elided() * 2 > hinted.ticks_executed(),
                "{label}"
            );
            assert_accounts_add_up(&hinted);
        }
    }
}

/// Serves whatever heads its input once `not_before` has passed, recording
/// when; until then a queued head is moot and the hint says so.
struct LateOpener {
    input: LinkId,
    not_before: Time,
    served: Vec<(u64, u64)>,
    dispatched: Arc<AtomicU64>,
}

impl crate::snapshot::Snapshot for LateOpener {
    fn save(&self, w: &mut crate::snapshot::StateWriter) {
        w.write_usize(self.served.len());
        for (t, v) in &self.served {
            w.write_u64(*t);
            w.write_u64(*v);
        }
    }
}

impl Component<u64> for LateOpener {
    fn name(&self) -> &str {
        "opener"
    }
    fn tick(&mut self, ctx: &mut TickContext<'_, u64>) {
        self.dispatched.fetch_add(1, Ordering::Relaxed);
        if ctx.time >= self.not_before {
            if let Some(v) = ctx.links.pop(self.input, ctx.time) {
                self.served.push((ctx.time.as_ps(), v));
            }
        }
    }
    fn watched_links(&self) -> Option<Vec<LinkId>> {
        Some(vec![self.input])
    }
    fn stall_hint(&self, hint: &mut StallHint) {
        hint.gate_input(0, crate::Gate::until(self.not_before));
    }
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[test]
fn a_push_overtaking_the_queued_head_re_arms_a_stalled_watcher() {
    let build = |dense: bool| {
        let mut sim: Simulation<u64> = Simulation::with_seed(2);
        sim.set_dense(dense);
        let clk = ClockDomain::from_mhz(100);
        let wire = sim.links_mut().add_link("wire", 4, clk.period());
        let dispatched = Arc::new(AtomicU64::new(0));
        sim.add_component(
            Box::new(LateOpener {
                input: wire,
                not_before: Time::from_ns(100),
                served: Vec::new(),
                dispatched: Arc::clone(&dispatched),
            }),
            clk,
        );
        // Payload 0 crosses slowly (lands at 10 + 390 ns). The opener is
        // woken by it and stalls keyed to 400 ns; payload 1, pushed at
        // 200 ns, lands at 210 ns in front of it and must be served then.
        sim.add_component(
            Box::new(Sender {
                sends: vec![
                    (wire, Time::ZERO, Time::from_ns(390)),
                    (wire, Time::from_ns(200), Time::ZERO),
                ],
                sent: 0,
                dispatched: Arc::clone(&dispatched),
            }),
            clk,
        );
        (sim, dispatched)
    };
    let served = |sim: &mut Simulation<u64>| {
        sim.component_any_mut("opener")
            .unwrap()
            .downcast_mut::<LateOpener>()
            .unwrap()
            .served
            .clone()
    };
    let (mut sparse, dispatched) = build(false);
    let (mut dense, _) = build(true);
    let end = dense.run_to_quiescence_strict(HORIZON).unwrap();
    assert_eq!(sparse.run_to_quiescence_strict(HORIZON).unwrap(), end);
    assert_eq!(served(&mut sparse), vec![(210_000, 1), (400_000, 0)]);
    assert_eq!(served(&mut sparse), served(&mut dense));
    assert_same_state(&sparse, &dense);
    // The opener ran at registration and for its two payloads; the sender
    // for its two pushes.
    assert_eq!(sparse.component_dispatches(ComponentId(0)), 3);
    assert_eq!(dispatched.load(Ordering::Relaxed), 5);
    assert_eq!(sparse.ticks_executed() - sparse.ticks_elided(), 5);
}

/// Looks at `requests` only once a payload has arrived on `release` — a
/// held bus ignoring its request wires until the response comes.
struct Held {
    requests: LinkId,
    release: LinkId,
    released: bool,
    granted: Vec<u64>,
}

impl crate::snapshot::Snapshot for Held {
    fn save(&self, w: &mut crate::snapshot::StateWriter) {
        w.write_bool(self.released);
        w.write_usize(self.granted.len());
        for t in &self.granted {
            w.write_u64(*t);
        }
    }
}

impl Component<u64> for Held {
    fn name(&self) -> &str {
        "held"
    }
    fn tick(&mut self, ctx: &mut TickContext<'_, u64>) {
        if ctx.links.pop(self.release, ctx.time).is_some() {
            self.released = true;
        }
        if self.released && ctx.links.pop(self.requests, ctx.time).is_some() {
            self.granted.push(ctx.time.as_ps());
        }
    }
    fn watched_links(&self) -> Option<Vec<LinkId>> {
        Some(vec![self.requests, self.release])
    }
    fn stall_hint(&self, hint: &mut StallHint) {
        if !self.released {
            hint.gate_input(0, crate::Gate::CLOSED);
        }
    }
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[test]
fn a_delivery_behind_the_earliest_head_still_lowers_the_key() {
    // A request queued from 10 ns keeps the held component's wake due and
    // its key at "never" (the gate is closed). The release lands at 110 ns:
    // later than the wake, so only the key can bring the component up.
    let build = |dense: bool| {
        let mut sim: Simulation<u64> = Simulation::with_seed(2);
        sim.set_dense(dense);
        let clk = ClockDomain::from_mhz(100);
        let requests = sim.links_mut().add_link("requests", 1, clk.period());
        let release = sim.links_mut().add_link("release", 1, clk.period());
        sim.add_component(
            Box::new(Held {
                requests,
                release,
                released: false,
                granted: Vec::new(),
            }),
            clk,
        );
        let sends = vec![
            (requests, Time::ZERO, Time::ZERO),
            (release, Time::from_ns(100), Time::ZERO),
        ];
        sim.add_component(
            Box::new(Sender {
                sends,
                sent: 0,
                dispatched: Arc::default(),
            }),
            clk,
        );
        sim
    };
    let (mut sparse, mut dense) = (build(false), build(true));
    let end = dense.run_to_quiescence_strict(HORIZON).unwrap();
    assert_eq!(sparse.run_to_quiescence_strict(HORIZON).unwrap(), end);
    assert_eq!(end, Time::from_ns(110));
    assert_same_state(&sparse, &dense);
    // First tick, then the release; the ten edges between are elided.
    assert_eq!(sparse.component_dispatches(ComponentId(0)), 2);
    assert_eq!(sparse.component_ticks(ComponentId(0)), 12);
}

// ---------------------------------------------------------------------
// The charged sleep of a fast-gear window, `FastCtx::stall`. The test
// components' hook polls every edge of a window unless `stall` retires it
// (`poll_or_stall`), so the dense twin — where `stall` is a no-op — runs
// the window edge by edge: the oracle.
// ---------------------------------------------------------------------

/// Windows of eight 10 ns edges: 0–70, 80–150, 160–230, 240–310 ns.
const OCTETS: Fidelity = Fidelity::Fast { quantum: 8 };

/// A waiter and its responder in `gear`, sparse and dense, run out. The
/// twins must agree on everything a checkpoint holds.
fn fast_twins(
    gear: Fidelity,
    from: Time,
    counts: Counts,
) -> (Simulation<u64>, Simulation<u64>, Arc<AtomicU64>) {
    let (mut sparse, dispatched) = waiters(1, from, counts);
    let (mut dense, _) = waiters(1, from, counts);
    dense.set_dense(true);
    for sim in [&mut sparse, &mut dense] {
        sim.set_fidelity(gear);
        sim.run_to_quiescence_strict(HORIZON).unwrap();
    }
    (sparse, dense, dispatched)
}

#[test]
fn a_window_credits_from_the_declared_instant() {
    // The waiter's windows run ahead of the responder's, so it sees the
    // nudge (pushed at 100 ns) in the window at 160 ns and the response
    // (200 ns) in the one at 240 ns: it waits on the 24 edges 0 .. 230 ns,
    // ticking the first edge of each window and stalling through the rest.
    for (from_ns, expect) in [
        (0, 24),  // from the first edge
        (40, 20), // before the second and third windows: all of theirs
        (50, 19), // a stalled edge exactly at `from`: 50 .. 230
        (55, 18), // `from` between stalled edges: 60 .. 230
        (80, 16), // exactly a window's first — dispatched — edge
        (85, 15), // just past it: 90 .. 230
        (230, 1), // the last waiting edge only
        (235, 0), // the wait is over before `from`
        (900, 0), // past the run
    ] {
        let (sparse, dense, dispatched) =
            fast_twins(OCTETS, Time::from_ns(from_ns), Counts::Honestly);
        assert_eq!(sparse.time(), dense.time());
        assert_eq!(sparse.time(), Time::from_ns(310));
        assert_eq!(waits(&dense, 0), expect, "dense, from {from_ns} ns");
        assert_eq!(waits(&sparse, 0), expect, "sparse, from {from_ns} ns");
        assert_same_state(&sparse, &dense);
        // One body per window for the waiter, every other edge of its four
        // windows charged to it all the same. The responder has no hook, so
        // the default body ticks all 24 edges of its first three windows;
        // the fourth is skipped whole, nothing being left to send.
        assert_eq!(sparse.component_dispatches(ComponentId(0)), 4);
        assert_eq!(sparse.component_ticks(ComponentId(0)), 32);
        assert_eq!(
            sparse.component_ticks(ComponentId(0)),
            dense.component_ticks(ComponentId(0))
        );
        assert_eq!(dispatched.load(Ordering::Relaxed), 4 + 24);
        assert_eq!(sparse.ticks_elided(), 28);
        assert_accounts_add_up(&sparse);
    }
}

#[test]
fn a_window_ending_mid_stall_hands_the_count_to_the_next() {
    // Windows of four edges cut the 240 ns wait six times; whatever the cut,
    // the registry — and the whole checkpoint — is the dense twin's after
    // every batch, and no snapshot holds pending credit.
    let gear = Fidelity::Fast { quantum: 4 };
    let from = Time::from_ns(25);
    let (mut sparse, _) = waiters(2, from, Counts::Honestly);
    let (mut dense, _) = waiters(2, from, Counts::Honestly);
    dense.set_dense(true);
    sparse.set_fidelity(gear);
    dense.set_fidelity(gear);
    let mut seen = Vec::new();
    while !(sparse.time() > Time::ZERO && sparse.is_quiescent()) {
        assert!(sparse.time() < HORIZON, "never drained");
        assert_eq!(sparse.step(), dense.step());
        assert_same_state(&sparse, &dense);
        assert_accounts_add_up(&sparse);
        seen.push(waits(&sparse, 0));
    }
    // Edges 30 (first window), 40 .. 70, 80 .. 110, ...: one, then four a
    // window while the wait lasts.
    assert_eq!(seen[..4], [1, 5, 9, 13]);
    assert!(sparse.ticks_elided() > 0 && dense.ticks_elided() == 0);
}

#[test]
fn a_gate_shut_for_room_stays_shut_for_the_window() {
    // One eager producer into a wire of capacity 1 (+ 7 of fast-gear slack),
    // one consumer serving a payload per 70 ns, both on `poll_or_stall`.
    let run = |dense: bool, until: Time| {
        let (mut sim, dispatched) = stalled_pairs(1, true, false);
        sim.set_dense(dense);
        sim.set_fidelity(OCTETS);
        sim.run_until(until);
        (sim, dispatched)
    };
    let (producer, consumer) = (ComponentId(0), ComponentId(1));

    // First window: the producer fills the wire, one push an edge — its
    // gate has room until the eighth. The consumer's head lands on its
    // second edge: a reason already due, so no sleep before it; then it is
    // mid-service to the end of the window.
    let (first, _) = run(false, Time::from_ns(75));
    assert_eq!(first.component_dispatches(producer), 8);
    assert_eq!(first.component_dispatches(consumer), 2);
    assert_eq!(first.component_ticks(consumer), 8);

    // Second window: one more push and the wire is full. Nobody else runs
    // in the window, so the gate stays shut to its end: seven edges charged,
    // none polled. The consumer serves at 80 and at 150 ns and sleeps the
    // six edges between.
    let (second, _) = run(false, Time::from_ns(155));
    assert_eq!(second.component_dispatches(producer), 9);
    assert_eq!(second.component_ticks(producer), 16);
    assert_eq!(second.component_dispatches(consumer), 4);
    assert_eq!(second.component_ticks(consumer), 16);
    let (second_dense, polled) = run(true, Time::from_ns(155));
    assert_same_state(&second, &second_dense);
    assert_eq!(second.ticks_executed(), second_dense.ticks_executed());
    assert_eq!(polled.load(Ordering::Relaxed), 32);

    // To the end: same run, most of it not worth a dispatch.
    let (sparse, dispatched) = run(false, Time::from_us(20));
    let (dense, _) = run(true, Time::from_us(20));
    assert!(sparse.is_quiescent());
    assert_same_state(&sparse, &dense);
    assert_eq!(
        dispatched.load(Ordering::Relaxed),
        sparse.ticks_executed() - sparse.ticks_elided()
    );
    assert!(sparse.ticks_elided() * 2 > sparse.ticks_executed());
    assert_accounts_add_up(&sparse);
}

#[test]
fn one_edge_windows_and_the_dense_schedule_never_stall() {
    let from = Time::from_ns(35);
    // Quantum 1 is the identity gear: the cycle run, byte for byte and
    // charge for charge — with every charged tick a dispatch, since no
    // window has a second edge to retire.
    let (mut cycle, _) = waiters(2, from, Counts::Honestly);
    cycle.run_to_quiescence_strict(HORIZON).unwrap();
    let (mut identity, dispatched) = waiters(2, from, Counts::Honestly);
    identity.set_fidelity(Fidelity::Fast { quantum: 1 });
    identity.run_to_quiescence_strict(HORIZON).unwrap();
    assert_same_state(&identity, &cycle);
    assert_eq!(identity.ticks_executed(), cycle.ticks_executed());
    assert_eq!(
        component_tick_counts(&identity),
        component_tick_counts(&cycle)
    );
    assert_eq!(identity.ticks_elided(), 0);
    assert_eq!(
        dispatched.load(Ordering::Relaxed),
        identity.ticks_executed()
    );

    // `--dense`: every edge of every window is a body.
    let (sparse, dense, _) = fast_twins(OCTETS, from, Counts::Honestly);
    assert!(sparse.ticks_elided() > 0);
    assert_eq!(dense.ticks_elided(), 0);
    assert_eq!(dense.component_dispatches(ComponentId(0)), 32);
    assert_accounts_add_up(&dense);
}

#[test]
fn the_dense_twin_catches_a_lying_hint_inside_a_window() {
    // A declared counter the tick does not bump, bumps by two, or bumps
    // along with a second one: the stalled edges are credited by the
    // declaration, the polled ones by the tick.
    for counts in [Counts::Never, Counts::Twice, Counts::AndASecondCounter] {
        let (sparse, dense, _) = fast_twins(OCTETS, Time::from_ns(30), counts);
        assert!(
            sparse.checkpoint().as_bytes() != dense.checkpoint().as_bytes(),
            "{counts:?} went unnoticed"
        );
    }

    /// Claims its deadline is moot forever, yet counts every tick.
    struct Liar {
        n: u64,
    }
    impl crate::snapshot::Snapshot for Liar {
        fn save(&self, w: &mut crate::snapshot::StateWriter) {
            w.write_u64(self.n);
        }
    }
    impl Component<u64> for Liar {
        fn name(&self) -> &str {
            "liar"
        }
        fn tick(&mut self, _ctx: &mut TickContext<'_, u64>) {
            self.n += 1;
        }
        fn watched_links(&self) -> Option<Vec<LinkId>> {
            Some(Vec::new())
        }
        fn next_activity(&self) -> Option<Time> {
            Some(Time::ZERO)
        }
        fn stall_hint(&self, hint: &mut StallHint) {
            hint.gate_deadline(crate::Gate::CLOSED);
        }
        fn fast_forward(&mut self, ctx: &mut crate::FastCtx<'_, u64>) {
            poll_or_stall(self, ctx);
        }
    }
    let run = |dense: bool| {
        let mut sim: Simulation<u64> = Simulation::new();
        sim.add_component(Box::new(Liar { n: 0 }), ClockDomain::from_mhz(100));
        sim.set_dense(dense);
        sim.set_fidelity(OCTETS);
        sim.run_until(Time::from_ns(155));
        sim.checkpoint()
    };
    assert!(run(false).as_bytes() != run(true).as_bytes());
}

// ---------------------------------------------------------------------
// Quiet stretches: a bounded run retires every instant on which no bucket
// has a key due in one step. The reference is a twin driven by `step`,
// which retires exactly one instant per call.
// ---------------------------------------------------------------------

/// Where the waiter pair of [`add_late_waiter`] joins the run.
const ADD_AT: Time = Time::from_ns(100);

/// Adds a waiter named `name` on `clk`, nudged at `nudge_at` and answered at
/// `resp_at` (one waiter period later each) by a sender of its own on
/// `sender_clk`, counting its waits from `count_from`.
fn add_waiter(
    sim: &mut Simulation<u64>,
    name: &str,
    (clk, sender_clk): (ClockDomain, ClockDomain),
    (nudge_at, resp_at, count_from): (Time, Time, Time),
) {
    let resp = sim
        .links_mut()
        .add_link(format!("{name}.resp"), 1, clk.period());
    let nudge = sim
        .links_mut()
        .add_link(format!("{name}.nudge"), 1, clk.period());
    sim.add_component(
        Box::new(Waiter {
            name: name.to_owned(),
            resp,
            nudge,
            count_from,
            counts: Counts::Honestly,
            waiting: true,
            waits: CounterId::default(),
            other: CounterId::default(),
            dispatched: Arc::default(),
        }),
        clk,
    );
    let sender = Sender {
        sends: vec![(nudge, nudge_at, Time::ZERO), (resp, resp_at, Time::ZERO)],
        sent: 0,
        dispatched: Arc::default(),
    };
    sim.add_component(Box::new(sender), sender_clk);
}

/// Clocks of 2 500, 4 000, 5 000 and 7 518 ps (400, 250, 200 and 133 MHz),
/// the last one 1 ns out of phase. Two waiters — stalled members with a
/// counted hint — on the 400 and 133 MHz clocks, their senders on 250 MHz,
/// and a member asleep for good on 200 MHz.
fn quiet_platform() -> Simulation<u64> {
    let mut sim: Simulation<u64> = Simulation::with_seed(4);
    let [c400, c250, c200, c133] = [400, 250, 200, 133].map(ClockDomain::from_mhz);
    let shifted = c133.with_phase(Time::from_ns(1));
    let ns = Time::from_ns;
    add_waiter(&mut sim, "w0", (c400, c250), (ns(150), ns(900), ns(30)));
    add_waiter(&mut sim, "w1", (shifted, c250), (ns(250), ns(400), ns(0)));
    let sleeper = Sender {
        sends: Vec::new(),
        sent: 0,
        dispatched: Arc::default(),
    };
    sim.add_component(Box::new(sleeper), c200);
    sim
}

/// A third waiter on a bucket of its own (250 MHz, 1.5 ns out of phase),
/// added at [`ADD_AT`].
fn add_late_waiter(sim: &mut Simulation<u64>) {
    let clk = ClockDomain::from_mhz(250).with_phase(Time::from_ps(1_500));
    let ns = Time::from_ns;
    add_waiter(sim, "w2", (clk, clk), (ns(350), ns(600), ns(120)));
}

/// Steps `sim` one instant at a time through `horizon` — stopping at
/// quiescence too when `quiescent` — the way the bounded runs would.
fn step_through(sim: &mut Simulation<u64>, horizon: Time, quiescent: bool) {
    while sim.next_edge().is_some_and(|next| next <= horizon)
        && !(quiescent && sim.time() > Time::ZERO && sim.is_quiescent())
    {
        sim.step();
    }
}

/// The same run, retired in stretches and one instant at a time.
fn assert_twins(jumped: &Simulation<u64>, stepped: &Simulation<u64>, label: &str) {
    assert_eq!(jumped.time(), stepped.time(), "{label}: time");
    assert_eq!(
        jumped.next_edge(),
        stepped.next_edge(),
        "{label}: next edge"
    );
    assert_eq!(
        jumped.edges_processed(),
        stepped.edges_processed(),
        "{label}: edges"
    );
    assert_eq!(
        [jumped.ticks_executed(), jumped.ticks_elided()],
        [stepped.ticks_executed(), stepped.ticks_elided()],
        "{label}: charged and elided"
    );
    assert_eq!(
        component_tick_counts(jumped),
        component_tick_counts(stepped),
        "{label}: per-component ticks"
    );
    let dispatches = |sim: &Simulation<u64>| {
        sim.component_ids()
            .map(|id| sim.component_dispatches(id))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        dispatches(jumped),
        dispatches(stepped),
        "{label}: per-component dispatches"
    );
    assert_eq!(
        jumped.activity.total(),
        stepped.activity.total(),
        "{label}: activity"
    );
    assert!(
        jumped.checkpoint().as_bytes() == stepped.checkpoint().as_bytes(),
        "{label}: checkpoints differ"
    );
    assert_accounts_add_up(jumped);
}

/// The quiet platform run to [`ADD_AT`] — by a bounded run and by steps —
/// with the late waiter added to both.
fn twins_past_the_add() -> (Simulation<u64>, Simulation<u64>) {
    let (mut jumped, mut stepped) = (quiet_platform(), quiet_platform());
    jumped.run_until(ADD_AT);
    step_through(&mut stepped, ADD_AT, false);
    assert_twins(&jumped, &stepped, "at the add");
    add_late_waiter(&mut jumped);
    add_late_waiter(&mut stepped);
    (jumped, stepped)
}

/// Runs the twins past the add to quiescence, the jumping one a batch at a
/// time (what `run_to_quiescence` does between its checks), the other in
/// steps, and compares them after every batch. Returns every stretch a
/// batch retired in one step, if more than one instant long: the instant
/// before it, its first and last instants, and the first instant after it —
/// where a key can be due.
fn stretches() -> Vec<[Time; 4]> {
    let (mut jumped, mut stepped) = twins_past_the_add();
    let mut stretches = Vec::new();
    let mut instants = 0;
    let mut batches = 0;
    while !(jumped.time() > Time::ZERO && jumped.is_quiescent()) {
        assert!(jumped.time() < HORIZON, "never drained");
        let (before, edges) = (jumped.time(), jumped.edges_processed());
        let first = jumped.step_cycle(Some(HORIZON)).expect("an edge");
        jumped.finish_call();
        batches += 1;
        instants += jumped.edges_processed() - edges;
        if jumped.edges_processed() - edges > 1 {
            let due = jumped.next_edge().expect("an edge");
            stretches.push([before, first, jumped.time(), due]);
        }
        step_through(&mut stepped, jumped.time(), false);
        assert_twins(&jumped, &stepped, &format!("batch at {first}"));
    }
    // The waits are long quiet stretches: most instants went in a jump.
    assert!(
        batches * 4 < instants,
        "{batches} batches for {instants} instants"
    );
    stretches
}

#[test]
fn a_quiet_stretch_is_retired_in_one_step_exactly() {
    let stretches = stretches();
    assert!(stretches.len() >= 3, "{stretches:?}");
    // A stretch runs up to the next instant a key is due, not past it.
    for [before, first, last, due] in &stretches {
        assert!(before < first && first < last && last < due);
    }
}

#[test]
fn a_horizon_anywhere_around_a_stretch_ends_the_run_where_steps_do() {
    for [before, first, last, due] in stretches() {
        let inside = Time::from_ps((first.as_ps() + last.as_ps()) / 2);
        for (what, horizon) in [
            ("before the stretch", before),
            ("inside it", inside),
            ("on its last instant", last),
            ("on the first due instant", due),
        ] {
            for quiescent in [false, true] {
                let label = format!("{what} ({horizon}), quiescent {quiescent}");
                let (mut jumped, mut stepped) = twins_past_the_add();
                if quiescent {
                    jumped.run_to_quiescence(horizon);
                } else {
                    jumped.run_until(horizon);
                }
                step_through(&mut stepped, horizon, quiescent);
                assert_twins(&jumped, &stepped, &label);
                // And on from there, to the end of the run.
                jumped.run_to_quiescence_strict(HORIZON).unwrap();
                step_through(&mut stepped, HORIZON, true);
                assert_twins(&jumped, &stepped, &format!("{label}, run out"));
            }
        }
    }
}
