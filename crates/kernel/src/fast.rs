//! The loosely-timed fast-forward window context.
//!
//! In `Fidelity::Fast { quantum }` gear the executor hands each component a
//! *window* of up to `quantum` consecutive edges of its own clock domain and
//! lets it advance through the whole window in one call — classic TLM2-style
//! temporal decoupling. [`FastCtx`] is the component's cursor over that
//! window: [`FastCtx::next_edge`] yields an exact per-edge
//! [`TickContext`] (same time, cycle and resource handles a cycle-accurate
//! tick would have received), [`FastCtx::sleep_until`] lets the component
//! skip ahead over edges it certifies to be no-ops, and [`FastCtx::stall`]
//! retires — charged, but without running them — the edges the component's
//! own [`stall_hint`](crate::Component::stall_hint) proves to be no-ops.
//!
//! # Soundness within a window
//!
//! No other component runs while one component owns its window, so link
//! occupancy and the deliverable set can only change through the component's
//! own pushes and pops. A deadline declared via `sleep_until` is therefore
//! exact *within* the window; the approximation of the fast gear is entirely
//! cross-component — another component's push or pop becomes visible only at
//! the next window boundary, bounding the per-hop timing error by roughly
//! one quantum of the producer's clock.

use crate::component::{Component, StallHint, TickContext};
use crate::fault::FaultEngine;
use crate::link::{LinkId, LinkPool};
use crate::rng::SplitMix64;
use crate::stats::StatsRegistry;
use crate::time::{Cycles, Time};

/// A component's cursor over one fast-forward window (see the module
/// docs above for the soundness argument).
///
/// Obtained only from the executor, which passes it to
/// [`Component::fast_forward`](crate::Component::fast_forward). The window
/// covers up to a quantum of consecutive edges of the component's clock
/// domain; the cursor starts before the first edge and is advanced by
/// [`next_edge`](Self::next_edge) (one edge at a time),
/// [`sleep_until`](Self::sleep_until) (skipping certified no-op edges) and
/// [`stall`](Self::stall) (charging them).
///
/// # Which sleep
///
/// A hook that would otherwise `continue` — tick the next edge only to find
/// the same wire full, the same response missing — calls
/// [`stall`](Self::stall): the polled edges were executed ticks, and a
/// stalled edge is counted exactly like one. The uncharged
/// [`sleep_until`](Self::sleep_until) is for the edges the hook *decides*
/// not to look at (a busy-until instant, a think timer, a wire that can only
/// free across windows): those sleeps are the loosely-timed model itself,
/// and changing one changes what the fast gear computes.
pub struct FastCtx<'a, T> {
    /// Time of the window's first edge, in ps.
    start_ps: u64,
    /// The component's clock period, in ps.
    period_ps: u64,
    /// Own-domain cycle index of the window's first edge.
    base_cycle: u64,
    /// Number of edges in the window.
    len: u64,
    /// Index (0-based, within the window) of the next edge to yield.
    k: u64,
    /// Edges actually yielded (= tick bodies the component ran).
    executed: u64,
    /// Edges retired by [`stall`](Self::stall): charged, never yielded.
    stalled: u64,
    /// The component's watched links (sparse-ticking declaration), used as
    /// the new-input wake set by `sleep_until`.
    watched: Option<&'a [LinkId]>,
    /// Scratch for the hint [`stall`](Self::stall) reads; `None` on the
    /// dense schedule, where every charged tick is dispatched.
    hint: Option<&'a mut StallHint>,
    links: &'a mut LinkPool<T>,
    stats: &'a mut StatsRegistry,
    rng: &'a mut SplitMix64,
    faults: &'a mut FaultEngine,
}

impl<'a, T> FastCtx<'a, T> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        start: Time,
        period: Time,
        base_cycle: Cycles,
        len: u64,
        watched: Option<&'a [LinkId]>,
        hint: Option<&'a mut StallHint>,
        links: &'a mut LinkPool<T>,
        stats: &'a mut StatsRegistry,
        rng: &'a mut SplitMix64,
        faults: &'a mut FaultEngine,
    ) -> Self {
        FastCtx {
            start_ps: start.as_ps(),
            period_ps: period.as_ps(),
            base_cycle: base_cycle.count(),
            len,
            k: 0,
            executed: 0,
            stalled: 0,
            watched,
            hint,
            links,
            stats,
            rng,
            faults,
        }
    }

    /// Time of the most recently yielded edge (the window start before the
    /// first [`next_edge`](Self::next_edge)).
    fn now(&self) -> Time {
        Time::from_ps(self.start_ps + self.k.saturating_sub(1) * self.period_ps)
    }

    /// Whether `link` has push capacity, evaluated at the cursor. Within a
    /// window only the component's own pushes change this.
    pub fn can_push(&self, id: LinkId) -> bool {
        self.links.can_push(id)
    }

    /// Whether `link` has a payload deliverable at the last yielded edge.
    pub fn has_deliverable(&self, id: LinkId) -> bool {
        self.links.has_deliverable(id, self.now())
    }

    /// Earliest delivery instant queued on `link` (backlog included), or
    /// `None` for an empty queue. Lets components without watched links
    /// (dense forwarders) bound their own sleeps: within a window only the
    /// component's own pushes and pops change this.
    pub fn next_delivery(&self, id: LinkId) -> Option<Time> {
        let ps = self.links.earliest_head(std::slice::from_ref(&id));
        (ps != u64::MAX).then(|| Time::from_ps(ps))
    }

    /// Yields the next edge of the window as an exact per-edge tick context,
    /// or `None` when the window is exhausted. The component must call
    /// [`Component::tick`](crate::Component::tick)-equivalent logic for
    /// every yielded edge: the executor counts yielded edges as executed
    /// ticks.
    pub fn next_edge(&mut self) -> Option<TickContext<'_, T>> {
        if self.k >= self.len {
            return None;
        }
        let k = self.k;
        self.k += 1;
        self.executed += 1;
        Some(TickContext::new(
            Time::from_ps(self.start_ps + k * self.period_ps),
            Cycles::new(self.base_cycle + k),
            &mut *self.links,
            &mut *self.stats,
            &mut *self.rng,
            &mut *self.faults,
        ))
    }

    /// Declares that, absent *new* input on the component's watched links,
    /// every tick before `deadline` would be a no-op: the cursor skips ahead
    /// to the first edge at which the deadline is due or a watched payload
    /// with a delivery instant strictly after the current edge lands —
    /// whichever comes first — or ends the window. `None` means "purely
    /// reactive: only new input can rouse me".
    ///
    /// Payloads already deliverable at the current edge do **not** count as
    /// new input — the component just observed them and chose to sleep (e.g.
    /// a bus head-of-line request waiting for a busy channel). Like
    /// [`Component::next_activity`](crate::Component::next_activity),
    /// deadlines may be conservative-early but never late; in a one-edge
    /// window (quantum 1) the call is a no-op, which is what makes
    /// `Fast { quantum: 1 }` byte-identical to `Cycle` by construction.
    ///
    /// Returns the number of edges elided — the edges strictly between the
    /// current edge and the wake edge that will now never be yielded.
    /// Components whose elided ticks would each have had a uniform,
    /// state-independent effect (e.g. a stalled core incrementing its stall
    /// counter) can apply that effect in bulk via
    /// [`stats_mut`](Self::stats_mut); in a one-edge window the return is
    /// always 0, preserving quantum-1 identity.
    pub fn sleep_until(&mut self, deadline: Option<Time>) -> u64 {
        if self.k == 0 {
            return 0;
        }
        let before = self.k;
        let cur_ps = self.start_ps + (self.k - 1) * self.period_ps;
        let mut wake = deadline.map_or(u64::MAX, Time::as_ps);
        if let Some(watched) = self.watched {
            wake = wake.min(self.links.earliest_head_after(watched, cur_ps));
        }
        if wake == u64::MAX {
            self.k = self.len;
        } else if wake > cur_ps + self.period_ps {
            self.k = self
                .k
                .max((wake - self.start_ps).div_ceil(self.period_ps))
                .min(self.len);
        }
        self.k - before
    }

    /// The charged sleep: retires the edges ahead on which `component`'s
    /// tick is provably a no-op, as ticks of the component that were not
    /// dispatched. Call it right after a tick, passing the component itself
    /// (`ctx.stall(&*self)`), wherever the hook would otherwise tick the
    /// next edge just to look again.
    ///
    /// The proof is the component's own: its
    /// [`next_activity`](Component::next_activity) and
    /// [`stall_hint`](Component::stall_hint) are read as the executor reads
    /// them after a cycle-gear tick, and every wake reason is weighed against
    /// the window's link state with the arithmetic the cycle gear's verdict
    /// uses. The cursor moves to the first edge at which a reason is due
    /// behind an open gate, or ends the window; a gate shut for lack of room
    /// stays shut for the rest of the window, because nobody else runs in
    /// it. The hint's [`count_elided`](StallHint::count_elided) counter is
    /// credited for the retired edges at or after its instant.
    ///
    /// The retired edges count as the component's ticks
    /// ([`Simulation::ticks_executed`](crate::Simulation::ticks_executed),
    /// [`component_ticks`](crate::Simulation::component_ticks)) exactly as
    /// if the hook had polled them, but not as dispatches
    /// ([`ticks_elided`](crate::Simulation::ticks_elided),
    /// [`component_dispatches`](crate::Simulation::component_dispatches)).
    /// A no-op before the first edge, in a one-edge window (so
    /// `Fast { quantum: 1 }` stays the identity gear), for a component
    /// without watched links, and on the dense schedule
    /// ([`Simulation::set_dense`](crate::Simulation::set_dense)), which
    /// dispatches every charged tick inside a window as outside one: the
    /// hook then polls, and the dense twin is the oracle for this call.
    pub fn stall(&mut self, component: &dyn Component<T>) {
        let (Some(hint), Some(watched)) = (self.hint.as_deref_mut(), self.watched) else {
            return;
        };
        // Before the first edge no tick has spoken yet; after the last there
        // is nothing left to retire.
        if self.k == 0 || self.k >= self.len {
            return;
        }
        let next_ps = self.start_ps + self.k * self.period_ps;
        let timer = component.next_activity().map_or(u64::MAX, Time::as_ps);
        hint.reset();
        component.stall_hint(hint);
        let due = hint.first_due(timer, watched, self.links, next_ps, None);
        // Index of the first edge of the window at or after an instant.
        let edge_at = |ps: u64| ps.saturating_sub(self.start_ps).div_ceil(self.period_ps);
        let wake = edge_at(due).min(self.len);
        if wake <= self.k {
            return;
        }
        if let Some((counter, from)) = hint.counted() {
            let owed = wake.saturating_sub(self.k.max(edge_at(from.as_ps())));
            if owed > 0 {
                self.stats.inc(counter, owed);
            }
        }
        self.stalled += wake - self.k;
        self.k = wake;
    }

    /// Mutable access to the stats registry, for bulk-crediting counters
    /// over edges elided by [`sleep_until`](Self::sleep_until).
    pub fn stats_mut(&mut self) -> &mut StatsRegistry {
        &mut *self.stats
    }

    /// Tick bodies the component actually ran in this window.
    pub(crate) fn executed(&self) -> u64 {
        self.executed
    }

    /// Edges of this window retired by [`stall`](Self::stall).
    pub(crate) fn stalled(&self) -> u64 {
        self.stalled
    }
}

impl<T> std::fmt::Debug for FastCtx<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FastCtx")
            .field("start_ps", &self.start_ps)
            .field("period_ps", &self.period_ps)
            .field("len", &self.len)
            .field("k", &self.k)
            .field("executed", &self.executed)
            .field("stalled", &self.stalled)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harness() -> (LinkPool<u8>, StatsRegistry, SplitMix64, FaultEngine) {
        (
            LinkPool::new(),
            StatsRegistry::new(),
            SplitMix64::new(0),
            FaultEngine::new(),
        )
    }

    #[test]
    fn yields_exact_per_edge_contexts() {
        let (mut links, mut stats, mut rng, mut faults) = harness();
        let mut ctx = FastCtx::new(
            Time::from_ns(10),
            Time::from_ns(4),
            Cycles::new(7),
            3,
            None,
            None,
            &mut links,
            &mut stats,
            &mut rng,
            &mut faults,
        );
        let mut seen = Vec::new();
        while let Some(tc) = ctx.next_edge() {
            seen.push((tc.time.as_ps(), tc.cycle.count()));
        }
        assert_eq!(
            seen,
            vec![(10_000, 7), (14_000, 8), (18_000, 9)],
            "window edges must replicate the cycle-accurate schedule"
        );
        assert_eq!(ctx.executed(), 3);
    }

    #[test]
    fn sleep_skips_to_deadline_edge() {
        let (mut links, mut stats, mut rng, mut faults) = harness();
        let mut ctx = FastCtx::new(
            Time::ZERO,
            Time::from_ns(10),
            Cycles::new(0),
            8,
            None,
            None,
            &mut links,
            &mut stats,
            &mut rng,
            &mut faults,
        );
        assert!(ctx.next_edge().is_some()); // edge 0 at t=0
        ctx.sleep_until(Some(Time::from_ns(25)));
        let tc = ctx.next_edge().expect("deadline edge inside window");
        assert_eq!(tc.time, Time::from_ns(30), "first edge at or after 25 ns");
        assert_eq!(ctx.executed(), 2);
    }

    #[test]
    fn sleep_none_without_watched_input_ends_window() {
        let (mut links, mut stats, mut rng, mut faults) = harness();
        let mut ctx = FastCtx::new(
            Time::ZERO,
            Time::from_ns(10),
            Cycles::new(0),
            8,
            None,
            None,
            &mut links,
            &mut stats,
            &mut rng,
            &mut faults,
        );
        assert!(ctx.next_edge().is_some());
        ctx.sleep_until(None);
        assert!(ctx.next_edge().is_none());
        assert_eq!(ctx.executed(), 1);
    }

    #[test]
    fn new_watched_delivery_bounds_a_sleep() {
        let (mut links, mut stats, mut rng, mut faults) = harness();
        let input = links.add_link("in", 4, Time::from_ns(5));
        // Head delivered at t=5: visible backlog by the t=10 edge, so a
        // sleep there must ignore it. The second payload landing at t=45 is
        // new input and must bound the sleep.
        links.push(input, Time::ZERO, 1u8).unwrap();
        links
            .push_after(input, Time::ZERO, Time::from_ns(40), 2u8)
            .unwrap();
        let watched = [input];
        let mut ctx = FastCtx::new(
            Time::ZERO,
            Time::from_ns(10),
            Cycles::new(0),
            8,
            Some(&watched),
            None,
            &mut links,
            &mut stats,
            &mut rng,
            &mut faults,
        );
        assert!(ctx.next_edge().is_some()); // t=0
        assert_eq!(ctx.next_edge().expect("t=10").time, Time::from_ns(10));
        assert!(ctx.has_deliverable(input), "head is backlog at t=10");
        ctx.sleep_until(None);
        let tc = ctx.next_edge().expect("woken by the t=45 delivery");
        assert_eq!(tc.time, Time::from_ns(50), "first edge at or after 45 ns");
    }

    /// Forever due, forever moot: every tick it is not given counts one.
    struct Stuck(crate::stats::CounterId);
    impl crate::snapshot::Snapshot for Stuck {}
    impl Component<u8> for Stuck {
        fn name(&self) -> &str {
            "stuck"
        }
        fn tick(&mut self, _ctx: &mut TickContext<'_, u8>) {}
        fn next_activity(&self) -> Option<Time> {
            Some(Time::ZERO)
        }
        fn stall_hint(&self, hint: &mut StallHint) {
            hint.gate_deadline(crate::Gate::CLOSED);
            hint.count_elided(self.0, Time::from_ns(25));
        }
    }

    #[test]
    fn stall_charges_the_rest_of_the_window_once_a_tick_has_spoken() {
        let (mut links, mut stats, mut rng, mut faults) = harness();
        let stuck = Stuck(stats.counter("stuck.waits"));
        for (hinted, edges, stalled, waits) in [(true, 1, 7, 5), (false, 8, 0, 5)] {
            let mut hint = StallHint::default();
            let mut ctx = FastCtx::new(
                Time::ZERO,
                Time::from_ns(10),
                Cycles::new(0),
                8,
                Some(&[]),
                hinted.then_some(&mut hint),
                &mut links,
                &mut stats,
                &mut rng,
                &mut faults,
            );
            ctx.stall(&stuck); // before the first edge: ignored
            let mut seen = 0;
            while ctx.next_edge().is_some() {
                seen += 1;
                ctx.stall(&stuck);
            }
            // Hinted: edge 0 runs, edges 1 .. 7 are retired and those from
            // 30 ns on credited. Without a hint to read (the dense
            // schedule) every edge runs and nothing more is credited.
            assert_eq!(
                (seen, ctx.executed(), ctx.stalled()),
                (edges, edges, stalled)
            );
            assert_eq!(stats.counter_value(stuck.0), waits);
        }
    }

    #[test]
    fn sleep_in_one_edge_window_is_a_no_op() {
        let (mut links, mut stats, mut rng, mut faults) = harness();
        let mut ctx = FastCtx::new(
            Time::ZERO,
            Time::from_ns(10),
            Cycles::new(0),
            1,
            None,
            None,
            &mut links,
            &mut stats,
            &mut rng,
            &mut faults,
        );
        ctx.sleep_until(Some(Time::from_ns(1_000))); // before any edge: ignored
        assert!(ctx.next_edge().is_some());
        ctx.sleep_until(Some(Time::from_ns(1_000)));
        assert!(ctx.next_edge().is_none());
        assert_eq!(ctx.executed(), 1);
    }
}
