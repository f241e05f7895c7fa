//! The component trait and per-tick context.

use crate::fault::{FaultAccess, FaultEngine};
use crate::link::{LinkAccess, LinkId, LinkPool};
use crate::rng::SplitMix64;
use crate::stats::{CounterId, StatsAccess, StatsRegistry};
use crate::time::{Cycles, Time};
use std::fmt;

/// Identifier of a component within a [`Simulation`](crate::Simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub(crate) u32);

impl ComponentId {
    /// Raw index (registration order).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "component#{}", self.0)
    }
}

/// Everything a component may touch during one clock tick.
///
/// The context borrows the shared [`LinkPool`] (for communication), the
/// [`StatsRegistry`] (for metrics), the fault engine and the deterministic
/// per-simulation RNG. The first three come wrapped in handles
/// ([`LinkAccess`], [`StatsAccess`], [`FaultAccess`]) that forward to the
/// shared state but offer a tick only what a tick may do: no new links, no
/// tracing switches, no arming.
pub struct TickContext<'a, T> {
    /// Current simulation time (the instant of this rising edge).
    pub time: Time,
    /// Index of this edge in the component's own clock domain.
    pub cycle: Cycles,
    /// Shared communication links.
    pub links: LinkAccess<'a, T>,
    /// Shared metric registry.
    pub stats: StatsAccess<'a>,
    /// Deterministic pseudo-random source (seeded once per simulation).
    pub rng: &'a mut SplitMix64,
    /// Fault-injection engine (disarmed — and free to probe — by default).
    pub faults: FaultAccess<'a>,
}

impl<'a, T> TickContext<'a, T> {
    /// Builds the context of one tick over the shared simulation state.
    pub fn new(
        time: Time,
        cycle: Cycles,
        links: &'a mut LinkPool<T>,
        stats: &'a mut StatsRegistry,
        rng: &'a mut SplitMix64,
        faults: &'a mut FaultEngine,
    ) -> Self {
        TickContext {
            time,
            cycle,
            links: LinkAccess::new(links),
            stats: StatsAccess::new(stats),
            rng,
            faults: FaultAccess::new(faults),
        }
    }
}

impl<T> fmt::Debug for TickContext<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TickContext")
            .field("time", &self.time)
            .field("cycle", &self.cycle)
            .finish_non_exhaustive()
    }
}

/// A condition that must hold before one wake reason of a component is worth
/// a dispatch — the unit a [`StallHint`] is built from.
///
/// A gate is *open* at an edge when the edge is not before its instant and
/// its output link (if any) can take a push. [`Gate::OPEN`] always is,
/// [`Gate::CLOSED`] never.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gate {
    not_before: Time,
    needs_space: Option<LinkId>,
}

impl Gate {
    /// No condition: the wake reason always counts.
    pub const OPEN: Gate = Gate {
        not_before: Time::ZERO,
        needs_space: None,
    };

    /// The wake reason never counts while this hint stands (e.g. a
    /// single-slot target that does not look at its request wire while a
    /// transaction is in service).
    pub const CLOSED: Gate = Gate {
        not_before: Time::MAX,
        needs_space: None,
    };

    /// Open once `link` has room for a push: the second half of a blocking
    /// FIFO, a producer suspended until its consumer reads.
    pub fn space(link: LinkId) -> Gate {
        Gate {
            not_before: Time::ZERO,
            needs_space: Some(link),
        }
    }

    /// Open from `instant` on (a channel's busy-until time).
    pub fn until(instant: Time) -> Gate {
        Gate {
            not_before: instant,
            needs_space: None,
        }
    }

    /// This gate, additionally requiring room on `link`.
    pub fn with_space(self, link: LinkId) -> Gate {
        Gate {
            needs_space: Some(link),
            ..self
        }
    }

    /// The time half of the gate, in ps (`u64::MAX` for [`Gate::CLOSED`]).
    #[inline]
    pub(crate) fn not_before_ps(self) -> u64 {
        self.not_before.as_ps()
    }

    /// The space half of the gate: the wire that must have room.
    #[inline]
    pub(crate) fn needs_space(self) -> Option<LinkId> {
        self.needs_space
    }
}

/// A component's statement of which of its wake reasons are currently
/// *moot* — see [`Component::stall_hint`].
///
/// One [`Gate`] guards the [`next_activity`](Component::next_activity)
/// deadline and one guards each watched link, indexed by the link's position
/// in [`watched_links`](Component::watched_links). The executor hands the
/// component a hint with every gate open; the component shuts the ones it
/// can vouch for, and may declare the one effect its undispatched ticks
/// have ([`count_elided`](StallHint::count_elided)).
#[derive(Debug, Clone)]
pub struct StallHint {
    deadline: Gate,
    /// Gates of the first `inputs.len()` watched links; the others have
    /// `other_inputs`.
    inputs: Vec<Gate>,
    other_inputs: Gate,
    /// The counter every undispatched tick at or after the instant would
    /// have bumped by one.
    counted: Option<(CounterId, Time)>,
}

impl Default for StallHint {
    fn default() -> Self {
        StallHint {
            deadline: Gate::OPEN,
            inputs: Vec::new(),
            other_inputs: Gate::OPEN,
            counted: None,
        }
    }
}

impl StallHint {
    /// Guards the `next_activity` deadline: a due deadline is moot while
    /// `gate` is shut.
    pub fn gate_deadline(&mut self, gate: Gate) {
        self.deadline = gate;
    }

    /// Guards every watched link with the same `gate` (a bus that is held
    /// looks at none of its request wires). Call it before any
    /// [`gate_input`](Self::gate_input), which then overrides it per link.
    pub fn gate_inputs(&mut self, gate: Gate) {
        debug_assert!(self.inputs.is_empty(), "gate_inputs comes first");
        self.other_inputs = gate;
    }

    /// Guards the `index`-th watched link: a deliverable head queued on it
    /// is moot while `gate` is shut.
    pub fn gate_input(&mut self, index: usize, gate: Gate) {
        if self.inputs.len() <= index {
            self.inputs.resize(index + 1, self.other_inputs);
        }
        self.inputs[index] = gate;
    }

    /// Declares the one effect this component's undispatched ticks have
    /// while the hint stands: each of them, on an edge at or after `from`,
    /// would have added exactly one to `counter` — a stall-cycle or
    /// wait-state count — and done nothing else. The executor adds those
    /// ones itself, by edge arithmetic (see [`Component::stall_hint`]). One
    /// counter per hint; a later call replaces an earlier one.
    pub fn count_elided(&mut self, counter: CounterId, from: Time) {
        self.counted = Some((counter, from));
    }

    /// Back to "every gate open, nothing counted", keeping the allocation.
    pub(crate) fn reset(&mut self) {
        self.deadline = Gate::OPEN;
        self.inputs.clear();
        self.other_inputs = Gate::OPEN;
        self.counted = None;
    }

    /// The declared counter and the instant it counts from, if any.
    #[inline]
    pub(crate) fn counted(&self) -> Option<(CounterId, Time)> {
        self.counted
    }

    /// Whether any gate was set (an untouched hint can never stall).
    #[inline]
    pub(crate) fn is_set(&self) -> bool {
        self.deadline != Gate::OPEN || !self.inputs.is_empty() || self.other_inputs != Gate::OPEN
    }

    #[inline]
    pub(crate) fn input(&self, index: usize) -> Gate {
        self.inputs.get(index).copied().unwrap_or(self.other_inputs)
    }

    /// The gate arithmetic, shared by the cycle gear's verdict and a
    /// fast-gear window's charged sleep: the earliest instant (ps) at which
    /// a wake reason of a component — its deadline `timer`, the head of each
    /// of its `watched` links — counts. A reason counts from the later of
    /// its own instant and its gate's, and only while the gate's wire has
    /// room. Returns the first instant found at or before `now_ps` (a
    /// reason is due: dispatch), otherwise the earliest later one (how long
    /// the stall can stand), `u64::MAX` for none. A reason shut for lack of
    /// room registers `waiter`, if any, on the wire (wake-on-space).
    pub(crate) fn first_due<T>(
        &self,
        timer: u64,
        watched: &[LinkId],
        links: &mut LinkPool<T>,
        now_ps: u64,
        waiter: Option<u32>,
    ) -> u64 {
        let mut until = u64::MAX;
        for reason in 0..=watched.len() {
            let (ready, gate) = match reason.checked_sub(1) {
                None => (timer, self.deadline),
                Some(k) => (links.head_at(watched[k]), self.input(k)),
            };
            let at = ready.max(gate.not_before_ps());
            if at == u64::MAX {
                // No deadline, an empty wire or a closed gate: nothing but a
                // delivery brings this one up.
                continue;
            }
            match gate.needs_space() {
                Some(wire) if !links.can_push(wire) => {
                    if let Some(slot) = waiter {
                        links.await_space(wire, slot);
                    }
                }
                _ if at <= now_ps => return at,
                _ => until = until.min(at),
            }
        }
        until
    }
}

/// A synchronous hardware model ticked on every rising edge of its clock.
///
/// Implementations must be *deterministic*: all state lives in `self`, the
/// links and the registry, and any randomness must come from the context's
/// seeded RNG.
///
/// The payload type `T` is the kind of message carried on links — the
/// platform crates instantiate it with their bus packet type.
///
/// Every component also implements [`Snapshot`](crate::Snapshot) so the
/// kernel can checkpoint and restore complete simulations; stateless
/// components can rely on the trait's no-op defaults
/// (`impl Snapshot for MyComponent {}`).
///
/// Components are `Send` so a whole simulation can move to a worker thread:
/// independent simulations — sweep points, design candidates, served
/// requests — run side by side, one per thread, and a platform built on one
/// thread may be run on another.
pub trait Component<T>: crate::snapshot::Snapshot + Send {
    /// Diagnostic name (unique within a simulation by convention).
    fn name(&self) -> &str;

    /// Advances the model by one clock cycle.
    fn tick(&mut self, ctx: &mut TickContext<'_, T>);

    /// Whether the component has no internal work pending.
    ///
    /// A simulation is *quiescent* when every component is idle and every
    /// link is empty; [`Simulation::run_to_quiescence`] uses this to detect
    /// workload completion. Components that are purely reactive can keep the
    /// default `true`.
    ///
    /// # Contract
    ///
    /// The answer may only change **during the component's own
    /// [`tick`](Component::tick)**: the executor caches it between ticks to
    /// keep quiescence checks O(1), so an `is_idle` that flips because of
    /// state mutated elsewhere (e.g. shared interior mutability written by
    /// another component) would be observed late. Deterministic components
    /// whose state lives in `self` satisfy this automatically.
    ///
    /// [`Simulation::run_to_quiescence`]: crate::Simulation::run_to_quiescence
    fn is_idle(&self) -> bool {
        true
    }

    /// Links whose deliveries should wake this component (sparse-ticking
    /// opt-in).
    ///
    /// Returning `Some(links)` enrols the component in the executor's
    /// *active-set* schedule: on edges where the component has no deliverable
    /// payload on any listed link and no due [`next_activity`] deadline, its
    /// [`tick`](Component::tick) is skipped entirely. Returning `None` (the
    /// default) keeps the classic dense behaviour — the component is ticked
    /// on every edge of its clock domain.
    ///
    /// # Contract
    ///
    /// The list must cover **every** link the component pops or peeks during
    /// `tick`. A payload arriving on an unlisted link would not wake the
    /// component, and a skipped tick must be unobservable (see the idle
    /// contract verified by `Simulation::enable_skip_audit`). The answer is
    /// read once at registration and must not change afterwards.
    ///
    /// [`next_activity`]: Component::next_activity
    fn watched_links(&self) -> Option<Vec<LinkId>> {
        None
    }

    /// Earliest future instant at which the component may act *without* any
    /// new deliverable input on its [`watched_links`](Component::watched_links).
    ///
    /// Sparse-ticking components use this to declare internal timers: DRAM
    /// refresh deadlines, inter-arrival think timers, retry/backoff
    /// deadlines, pipeline completion times. `Some(Time::ZERO)` (or any
    /// past instant) means "tick me every edge"; `None` means "purely
    /// reactive — wake me only on link delivery".
    ///
    /// # Contract
    ///
    /// Deadlines may be **conservative-early but never late**: waking a
    /// component before it has anything to do costs a harmless no-op tick,
    /// while a late deadline would diverge from the dense schedule. Like
    /// [`is_idle`](Component::is_idle), the answer may only change during
    /// the component's own tick; the executor re-reads it after every
    /// executed tick (and once after a snapshot restore).
    fn next_activity(&self) -> Option<Time> {
        None
    }

    /// Which wake reasons are currently *moot*: the back-pressure half of
    /// the sparse schedule (opt-in; the default shuts no gate).
    ///
    /// [`watched_links`](Component::watched_links) and
    /// [`next_activity`](Component::next_activity) decide whether an edge is
    /// a *charged* tick of this component — counted by
    /// [`Simulation::ticks_executed`](crate::Simulation::ticks_executed)
    /// exactly as before. The hint only decides whether a charged tick is
    /// *dispatched*: when the deadline is due but its [`Gate`] is shut, and
    /// every watched link with a deliverable head has its gate shut too, the
    /// executor retires the tick without calling [`tick`](Component::tick)
    /// (counted by
    /// [`Simulation::ticks_elided`](crate::Simulation::ticks_elided)). The
    /// executor takes that verdict once, keys the slot with the earliest
    /// instant it could change — a gate's instant, a queued head's delivery —
    /// and looks again only then, or when a delivery onto a watched link or
    /// a pop from a wire a gate waits on makes the key due earlier. The
    /// verdict itself is always taken against the live link state at the
    /// component's turn, so a producer registered after the consumer that
    /// frees its wire sees the room on the same edge, and one registered
    /// before sees it on the next — the dense schedule's order.
    ///
    /// # Contract
    ///
    /// Shutting a gate is a promise: while it is shut, the wake reason it
    /// guards cannot make `tick` do anything observable — an elided tick,
    /// like a skipped one, must be a no-op (machine-checked by
    /// [`Simulation::enable_skip_audit`](crate::Simulation::enable_skip_audit),
    /// which dispatches elided ticks anyway and byte-compares around them).
    /// Leaving a gate open is always safe: it costs a no-op tick, never
    /// correctness. Like `next_activity`, the answer may depend only on
    /// `self` and may only change during the component's own tick; the
    /// executor re-reads it wherever it re-reads `next_activity` (except at
    /// the end of a fast-gear window, where it is cleared and re-read after
    /// the next cycle-gear tick; inside the window
    /// [`FastCtx::stall`](crate::FastCtx::stall) reads it into a scratch of
    /// its own). It is derived state and never part of a snapshot.
    ///
    /// # The one-counter exception
    ///
    /// A component that is *waiting* usually still counts the wait — a
    /// core's stall cycles, a held bus's idle wait states — which would make
    /// it the one component dispatched on every edge. Such a tick may be
    /// elided all the same if the hint declares its effect with
    /// [`StallHint::count_elided`]: *while the hint stands, on every edge of
    /// the component's clock at or after `from` on which its tick is not
    /// dispatched, the tick — had it run — would have added exactly one to
    /// `counter` and done nothing else; the executor adds those ones
    /// itself.* Keep `next_activity` as it is, so those edges stay charged,
    /// and shut the deadline gate. Clocks are strictly periodic, so the
    /// credit is edge arithmetic, and it is materialised (i) immediately
    /// before the component's next dispatched or audited tick, (ii) before
    /// [`step`](crate::Simulation::step),
    /// [`run_until`](crate::Simulation::run_until) and
    /// [`run_to_quiescence`](crate::Simulation::run_to_quiescence) return,
    /// and (iii) when a fast-gear window takes the component over — so every
    /// reader of the registry between calls, a checkpoint included, sees
    /// exact counters and no snapshot ever holds pending credit. The audit
    /// runs such a tick anyway and accepts exactly `+1` on the declared
    /// counter on an edge at or after `from` (`+0` before it) and
    /// byte-identity everywhere else.
    fn stall_hint(&self, hint: &mut StallHint) {
        let _ = hint;
    }

    /// Advances the component through one fast-forward window (loosely-timed
    /// gear) in place of per-edge [`tick`](Component::tick)s. The default
    /// body ticks every edge of the window, so a component without a hook is
    /// never wrong, merely not faster; a hook skips certified no-op stretches
    /// with [`FastCtx::sleep_until`](crate::FastCtx::sleep_until) (busy-until
    /// instants, think timers, service completion times) — the source of the
    /// loosely-timed speedup — and must equal one `tick` in a one-edge window
    /// (quantum 1), where both of `FastCtx`'s sleeps are no-ops.
    ///
    /// # Two sleeps
    ///
    /// `sleep_until` is *uncharged*: the edges it skips are not ticks of the
    /// component at all, so where a hook calls it — and with which deadline
    /// — is part of what the loosely-timed gear computes. Use it for what
    /// the component decides not to look at within a window. Wherever the
    /// hook would instead tick on just to look again (`continue`) — a held
    /// bus counting wait states, a head behind a full FIFO, a deadline that
    /// is due but moot — call [`FastCtx::stall`](crate::FastCtx::stall)
    /// right after the tick: it takes the verdict the cycle gear takes from
    /// [`next_activity`](Component::next_activity) and
    /// [`stall_hint`](Component::stall_hint) and retires the provably no-op
    /// edges as charged, undispatched ticks, so tick counts stay what
    /// polling made them. Never write a second copy of the hint into the
    /// hook. The charged sleep is what the dense schedule
    /// ([`Simulation::set_dense`](crate::Simulation::set_dense)) switches
    /// off: there the hook polls, which makes a dense twin the reference
    /// for every `stall` call.
    fn fast_forward(&mut self, ctx: &mut crate::FastCtx<'_, T>) {
        while let Some(mut tc) = ctx.next_edge() {
            self.tick(&mut tc);
        }
    }

    /// Pre-registers every metric name the component may create during
    /// ticking. Called once at registration, before the first edge.
    ///
    /// The order in which metrics are created is observable: metric ids
    /// index report rows and checkpoint bytes. Registering here fixes that
    /// order at build time, in component registration order, instead of
    /// leaving it to whichever tick first meets a name. The default is a
    /// no-op — lazy registration on first use is deterministic too, but the
    /// platforms' report rows and checkpoints are built on the registered
    /// order, so a component that registers today must keep doing so.
    ///
    /// # Contract
    ///
    /// Implementations must register names in a fixed deterministic order.
    /// Pre-registered metrics appear in reports even when never incremented
    /// (as zero rows), so register exactly the names
    /// [`tick`](Component::tick) can create.
    fn register_metrics(&self, stats: &mut StatsRegistry) {
        let _ = stats;
    }

    /// Optional downcasting hook for post-build reconfiguration.
    ///
    /// Components that expose runtime-tunable knobs (e.g. memory wait
    /// states for warm-fork sweeps) override this to return `Some(self)`;
    /// [`Simulation::component_any_mut`](crate::Simulation::component_any_mut)
    /// then lets callers downcast to the concrete type by name.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl crate::snapshot::Snapshot for Nop {}
    impl Component<u8> for Nop {
        fn name(&self) -> &str {
            "nop"
        }
        fn tick(&mut self, _ctx: &mut TickContext<'_, u8>) {}
    }

    #[test]
    fn default_idle_is_true() {
        assert!(Nop.is_idle());
    }

    #[test]
    fn default_sparse_hints_keep_dense_behaviour() {
        assert!(Nop.watched_links().is_none());
        assert!(Nop.next_activity().is_none());
        let mut hint = StallHint::default();
        Nop.stall_hint(&mut hint);
        assert!(!hint.is_set());
    }

    #[test]
    fn gates_have_a_time_half_and_a_space_half() {
        let mut links: LinkPool<u8> = LinkPool::new();
        let wire = links.add_link("wire", 1, Time::from_ns(1));
        let halves = |g: Gate| (g.not_before_ps(), g.needs_space());
        assert_eq!(halves(Gate::OPEN), (0, None));
        assert_eq!(halves(Gate::CLOSED), (u64::MAX, None));
        assert_eq!(halves(Gate::until(Time::from_ns(5))), (5_000, None));
        assert_eq!(halves(Gate::space(wire)), (0, Some(wire)));
        assert_eq!(
            halves(Gate::until(Time::from_ns(5)).with_space(wire)),
            (5_000, Some(wire))
        );
    }

    #[test]
    fn unset_hint_gates_are_open() {
        let mut hint = StallHint::default();
        hint.gate_input(2, Gate::CLOSED);
        assert!(hint.is_set());
        assert_eq!(hint.input(0), Gate::OPEN);
        assert_eq!(hint.input(2), Gate::CLOSED);
        assert_eq!(hint.input(7), Gate::OPEN);
        assert_eq!(hint.deadline, Gate::OPEN);
        hint.reset();
        assert!(!hint.is_set());
        // One gate for every link, overridden for one.
        hint.gate_inputs(Gate::CLOSED);
        hint.gate_input(1, Gate::OPEN);
        assert!(hint.is_set());
        assert_eq!(
            [hint.input(0), hint.input(1), hint.input(9)],
            [Gate::CLOSED, Gate::OPEN, Gate::CLOSED]
        );
        hint.reset();
        assert_eq!(hint.input(0), Gate::OPEN);
        // The declared counter is per hint, not a gate, and goes on reset.
        let mut stats = StatsRegistry::new();
        let waits = stats.counter("waits");
        hint.count_elided(waits, Time::from_ns(3));
        assert!(!hint.is_set());
        assert_eq!(hint.counted(), Some((waits, Time::from_ns(3))));
        hint.reset();
        assert_eq!(hint.counted(), None);
    }

    #[test]
    fn ids_order_by_registration() {
        assert!(ComponentId(0) < ComponentId(1));
        assert_eq!(ComponentId(3).index(), 3);
        assert_eq!(ComponentId(3).to_string(), "component#3");
    }
}
