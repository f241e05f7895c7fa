//! The edge count in closed form, held to a twin that retires one instant
//! per [`Simulation::step`] — the reference for anything per-instant — on
//! random multi-clock platforms: 1 to 6 clocks of 1 to 40 ns at random
//! phases, producers that sleep through long waits, consumers woken by
//! delivery, a stalled producer–consumer pair, and a bucket added mid-run.

use super::tests::{add_stalled_pair, component_tick_counts};
use super::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Sends `budget` payloads, sleeping `think` cycles of its clock after each.
struct Pulser {
    out: LinkId,
    period: Time,
    think: u64,
    budget: u64,
    sent: u64,
    next_at: Time,
}

crate::snapshot_state! {
    impl Snapshot for Pulser { sent, next_at }
}

impl Component<u64> for Pulser {
    fn name(&self) -> &str {
        "pulser"
    }
    fn tick(&mut self, ctx: &mut TickContext<'_, u64>) {
        if self.sent < self.budget && ctx.time >= self.next_at && ctx.links.can_push(self.out) {
            ctx.links.push(self.out, ctx.time, self.sent).unwrap();
            self.sent += 1;
            self.next_at = ctx.time + self.period * self.think;
        }
    }
    fn is_idle(&self) -> bool {
        self.sent == self.budget
    }
    fn watched_links(&self) -> Option<Vec<LinkId>> {
        Some(Vec::new())
    }
    fn next_activity(&self) -> Option<Time> {
        (self.sent < self.budget).then_some(self.next_at)
    }
}

/// Takes one payload per tick, asleep until a delivery.
struct Sink {
    input: LinkId,
    served: Vec<(u64, u64)>,
}

crate::snapshot_state! {
    impl Snapshot for Sink { served }
}

impl Component<u64> for Sink {
    fn name(&self) -> &str {
        "sink"
    }
    fn tick(&mut self, ctx: &mut TickContext<'_, u64>) {
        if let Some(v) = ctx.links.pop(self.input, ctx.time) {
            self.served.push((ctx.time.as_ps(), v));
        }
    }
    fn watched_links(&self) -> Option<Vec<LinkId>> {
        Some(vec![self.input])
    }
}

/// A pulser on `from` sending to a sink on `to` over a wire whose latency
/// is `hops` periods of `to`.
fn add_pulse(
    sim: &mut Simulation<u64>,
    (from, to): (ClockDomain, ClockDomain),
    think: u64,
    hops: u64,
) {
    let name = format!("wire{}", sim.links().len());
    let wire = sim.links_mut().add_link(name, 2, to.period() * hops);
    sim.add_component(
        Box::new(Pulser {
            out: wire,
            period: from.period(),
            think,
            budget: 4,
            sent: 0,
            next_at: Time::ZERO,
        }),
        from,
    );
    sim.add_component(
        Box::new(Sink {
            input: wire,
            served: Vec::new(),
        }),
        to,
    );
}

/// One random platform: per clock `(period ps, phase ps, think cycles,
/// hops)`, the clock pair the stalled pair runs on, and the clock — at a
/// phase of its own — of the pulse added mid-run.
#[derive(Debug, Clone)]
struct Shape {
    clocks: Vec<(u64, u64, u64, u64)>,
    stalled_on: (usize, usize),
    late: (usize, u64),
}

impl Shape {
    fn clock(&self, i: usize) -> ClockDomain {
        let (period, phase, _, _) = self.clocks[i % self.clocks.len()];
        ClockDomain::from_period(Time::from_ps(period)).with_phase(Time::from_ps(phase))
    }

    fn build(&self) -> Simulation<u64> {
        let mut sim = Simulation::with_seed(11);
        for (i, &(_, _, think, hops)) in self.clocks.iter().enumerate() {
            add_pulse(&mut sim, (self.clock(i), self.clock(i + 1)), think, hops);
        }
        let (a, b) = self.stalled_on;
        let clocks = (self.clock(a), self.clock(b));
        add_stalled_pair(&mut sim, "stalled", true, false, clocks, &Arc::default());
        sim
    }

    fn add_late(&self, sim: &mut Simulation<u64>) {
        let (i, phase) = self.late;
        let clock = self.clock(i).with_phase(Time::from_ps(phase));
        add_pulse(sim, (clock, self.clock(i + 1)), 25, 1);
    }
}

/// Steps `sim` one instant at a time through `horizon`, stopping at
/// quiescence too when `quiescent` — where the bounded runs stop. Returns
/// the number of steps: the instants retired, counted one by one.
fn step_through(sim: &mut Simulation<u64>, horizon: Time, quiescent: bool) -> u64 {
    let mut steps = 0;
    while sim.next_edge().is_some_and(|next| next <= horizon)
        && !(quiescent && sim.time() > Time::ZERO && sim.is_quiescent())
    {
        sim.step();
        steps += 1;
    }
    steps
}

/// The same run, retired in stretches and one instant at a time — `steps`
/// of them so far: time, next edge, edge count, activity, per-component
/// ticks and checkpoint.
fn check_twins(
    jumped: &Simulation<u64>,
    stepped: &Simulation<u64>,
    steps: u64,
    at: &str,
) -> Result<(), TestCaseError> {
    prop_assert!(
        stepped.edges_processed() == steps,
        "{at}: {} edges in {steps} steps",
        stepped.edges_processed()
    );
    let view = |sim: &Simulation<u64>| {
        (
            sim.time(),
            sim.next_edge(),
            sim.edges_processed(),
            sim.activity(),
            component_tick_counts(sim),
        )
    };
    let (j, s) = (view(jumped), view(stepped));
    prop_assert!(j == s, "{at}: {j:?} != {s:?}");
    prop_assert!(
        jumped.checkpoint().as_bytes() == stepped.checkpoint().as_bytes(),
        "{at}: checkpoints differ"
    );
    Ok(())
}

const HORIZON: Time = Time::from_us(40);

/// Runs `shape`'s twins — the bounded one by `run_until` and
/// `run_to_quiescence` in `chunks` (ns) up to the add, then one batch at a
/// time to quiescence — and checks them at every boundary.
fn run_twins(shape: &Shape, chunks: &[u64]) -> Result<(), TestCaseError> {
    let (mut jumped, mut stepped) = (shape.build(), shape.build());
    let (mut horizon, mut steps) = (Time::ZERO, 0);
    for (k, chunk) in chunks.iter().enumerate() {
        horizon += Time::from_ns(*chunk);
        let quiescent = k % 2 == 1;
        if quiescent {
            jumped.run_to_quiescence(horizon);
        } else {
            jumped.run_until(horizon);
        }
        steps += step_through(&mut stepped, horizon, quiescent);
        check_twins(&jumped, &stepped, steps, &format!("{shape:?} at {horizon}"))?;
    }
    shape.add_late(&mut jumped);
    shape.add_late(&mut stepped);
    check_twins(&jumped, &stepped, steps, "after the add")?;
    let (mut batches, mut stretches) = (0, 0);
    while !(jumped.time() > Time::ZERO && jumped.is_quiescent()) {
        prop_assert!(jumped.time() < HORIZON, "never drained");
        let edges = jumped.edges_processed();
        let first = jumped.step_bounded(None, Some(HORIZON)).expect("an edge");
        jumped.finish_call();
        batches += 1;
        stretches += u32::from(jumped.edges_processed() - edges > 1);
        steps += step_through(&mut stepped, jumped.time(), false);
        let at = format!("{shape:?}, batch at {first}");
        check_twins(&jumped, &stepped, steps, &at)?;
    }
    // The late pulser's waits are quiet stretches.
    prop_assert!(
        batches > 0 && stretches > 0,
        "{batches} batches, no stretch"
    );
    prop_assert_eq!(
        jumped.run_to_quiescence(HORIZON),
        stepped.run_to_quiescence(HORIZON)
    );
    check_twins(&jumped, &stepped, steps, "at quiescence")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bounded_runs_and_single_steps_count_the_same_instants(
        clocks in prop::collection::vec((1_000u64..40_001, 0u64..40_000, 3u64..80, 1u64..4), 1..7),
        chunks in prop::collection::vec(1u64..2_000, 1..6),
        stalled_on in (0usize..6, 0usize..6),
        late in (0usize..6, 0u64..40_000),
    ) {
        let clocks = clocks.into_iter().map(|(p, ph, t, h)| (p, ph % p, t, h)).collect();
        run_twins(&Shape { clocks, stalled_on, late }, &chunks)?;
    }
}

/// Eleven clocks of 1 to 11 ns, all in phase: every set of them meets, so
/// the set is past the closed form's cap and counts as it goes.
#[test]
fn a_bucket_set_past_the_cap_counts_the_same_instants() {
    let clocks = (1..=11).map(|ns| (ns * 1_000, 0, 40, 1)).collect();
    let shape = Shape {
        clocks,
        stalled_on: (2, 5),
        late: (3, 1_500),
    };
    let build = shape.build();
    assert!(build.instants.capped());
    run_twins(&shape, &[300, 200, 900]).unwrap();
}
