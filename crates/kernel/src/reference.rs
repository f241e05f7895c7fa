//! The naive reference scheduler, kept as a differential-testing oracle.
//!
//! [`NaiveSimulation`] is a faithful copy of the executor this crate
//! shipped before the clock-domain bucketed scheduler: `next_edge()`
//! re-scans every component slot for the minimum pending edge, `step()`
//! scans every slot to find the ones firing, and `is_quiescent()` walks
//! every component and link. It is **O(components) per edge** and exists
//! for two purposes only:
//!
//! 1. **Differential determinism tests** — the property suite drives
//!    random clock/component sets through both executors and asserts the
//!    `(time, component index)` tick sequences are identical, which is the
//!    proof that the bucketed scheduler preserves cycle-level traces
//!    bit-for-bit.
//! 2. **The `kernel_hotpath` microbench** — measuring the bucketed
//!    scheduler's speedup against this baseline on the same machine.
//!
//! Production code should always use [`Simulation`](crate::Simulation).

use crate::clock::ClockDomain;
use crate::component::{Component, ComponentId, TickContext};
use crate::error::{SimError, SimResult};
use crate::fault::FaultEngine;
use crate::link::LinkPool;
use crate::rng::SplitMix64;
use crate::sim::RunOutcome;
use crate::stats::StatsRegistry;
use crate::time::{Cycles, Time};

struct Slot<T> {
    component: Box<dyn Component<T>>,
    clock: ClockDomain,
    next_tick: Time,
    ticks: u64,
}

/// The pre-bucketing executor: full per-edge scans, full quiescence scans.
///
/// API-compatible with the subset of [`Simulation`](crate::Simulation) the
/// tests and benches need; see the [module docs](self) for why it exists.
pub struct NaiveSimulation<T> {
    time: Time,
    slots: Vec<Slot<T>>,
    links: LinkPool<T>,
    stats: StatsRegistry,
    rng: SplitMix64,
    faults: FaultEngine,
}

impl<T> NaiveSimulation<T> {
    /// Creates an empty simulation with the default seed (0).
    pub fn new() -> Self {
        NaiveSimulation::with_seed(0)
    }

    /// Creates an empty simulation whose RNG is seeded with `seed`.
    pub fn with_seed(seed: u64) -> Self {
        NaiveSimulation {
            time: Time::ZERO,
            slots: Vec::new(),
            links: LinkPool::new(),
            stats: StatsRegistry::new(),
            rng: SplitMix64::new(seed),
            faults: FaultEngine::new(),
        }
    }

    /// Registers a component on a clock domain.
    pub fn add_component(
        &mut self,
        mut component: Box<dyn Component<T>>,
        clock: ClockDomain,
    ) -> ComponentId {
        let id = ComponentId(u32::try_from(self.slots.len()).expect("too many components"));
        // Same pre-registration as `Simulation::add_component`: metric
        // creation order is observable (report rows, checkpoint bytes), so
        // both executors must create build-time metrics at the same point.
        component.register_metrics(&mut self.stats);
        let next_tick = clock.next_edge_at_or_after(self.time);
        self.slots.push(Slot {
            component,
            clock,
            next_tick,
            ticks: 0,
        });
        id
    }

    /// Current simulation time (last processed edge).
    pub fn time(&self) -> Time {
        self.time
    }

    /// Total ticks executed by a component so far.
    pub fn component_ticks(&self, id: ComponentId) -> u64 {
        self.slots[id.index()].ticks
    }

    /// The shared link pool.
    pub fn links(&self) -> &LinkPool<T> {
        &self.links
    }

    /// Mutable access to the link pool (wiring phase).
    pub fn links_mut(&mut self) -> &mut LinkPool<T> {
        &mut self.links
    }

    /// The metric registry.
    pub fn stats(&self) -> &StatsRegistry {
        &self.stats
    }

    /// Mutable access to the fault engine (to arm schedules), so
    /// differential tests can drive the oracle under the same fault
    /// schedule as the real executor.
    pub fn faults_mut(&mut self) -> &mut FaultEngine {
        &mut self.faults
    }

    /// The time of the next pending edge (full scan).
    pub fn next_edge(&self) -> Option<Time> {
        self.slots.iter().map(|s| s.next_tick).min()
    }

    /// Advances to the next edge, scanning and ticking every component
    /// scheduled there.
    pub fn step(&mut self) -> Option<Time> {
        let edge = self.next_edge()?;
        self.time = edge;
        let mut ticked = 0u64;
        for (index, slot) in self.slots.iter_mut().enumerate() {
            if slot.next_tick == edge {
                let cycle = Cycles::new(slot.ticks);
                self.faults.set_origin(index as u32);
                let mut ctx = TickContext::new(
                    edge,
                    cycle,
                    &mut self.links,
                    &mut self.stats,
                    &mut self.rng,
                    &mut self.faults,
                );
                slot.component.tick(&mut ctx);
                slot.ticks += 1;
                slot.next_tick = edge + slot.clock.period();
                ticked += 1;
            }
        }
        crate::activity::record_edge(ticked, 0);
        Some(edge)
    }

    /// Runs all edges up to and including `horizon`.
    pub fn run_until(&mut self, horizon: Time) {
        while let Some(next) = self.next_edge() {
            if next > horizon {
                break;
            }
            self.step();
        }
    }

    /// Whether every component is idle and every link is drained (full
    /// scan over components and links).
    pub fn is_quiescent(&self) -> bool {
        self.links.scan_queued() == 0 && self.slots.iter().all(|s| s.component.is_idle())
    }

    /// Runs until quiescence or until `horizon` passes, scanning the whole
    /// platform at every edge.
    pub fn run_to_quiescence(&mut self, horizon: Time) -> RunOutcome {
        loop {
            if self.is_quiescent() && self.time > Time::ZERO {
                return RunOutcome::Quiescent { at: self.time };
            }
            match self.next_edge() {
                Some(next) if next <= horizon => {
                    self.step();
                }
                _ => return RunOutcome::HorizonReached { at: self.time },
            }
        }
    }

    /// Like [`NaiveSimulation::run_to_quiescence`], but hitting the horizon
    /// while work is pending is reported as a stall.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stalled`] naming the still-busy components.
    pub fn run_to_quiescence_strict(&mut self, horizon: Time) -> SimResult<Time> {
        match self.run_to_quiescence(horizon) {
            RunOutcome::Quiescent { at } => Ok(at),
            RunOutcome::HorizonReached { at } => Err(SimError::Stalled {
                at,
                busy: self
                    .slots
                    .iter()
                    .filter(|s| !s.component.is_idle())
                    .map(|s| s.component.name().to_owned())
                    .collect(),
            }),
        }
    }
}

impl<T> Default for NaiveSimulation<T> {
    fn default() -> Self {
        NaiveSimulation::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Noop;
    impl crate::snapshot::Snapshot for Noop {}
    impl Component<u64> for Noop {
        fn name(&self) -> &str {
            "noop"
        }
        fn tick(&mut self, _ctx: &mut TickContext<'_, u64>) {}
    }

    #[test]
    fn naive_matches_documented_edge_grid() {
        let mut sim: NaiveSimulation<u64> = NaiveSimulation::new();
        let id = sim.add_component(Box::new(Noop), ClockDomain::from_mhz(100));
        sim.run_until(Time::from_ns(25));
        assert_eq!(sim.component_ticks(id), 3);
        assert_eq!(sim.time(), Time::from_ns(20));
    }

    #[test]
    fn naive_quiescence_on_empty_platform() {
        let mut sim: NaiveSimulation<u64> = NaiveSimulation::new();
        assert!(matches!(
            sim.run_to_quiescence(Time::from_ns(10)),
            RunOutcome::HorizonReached { .. }
        ));
    }
}
