//! The simulation executor.
//!
//! # Scheduler
//!
//! Components registered under identical [`ClockDomain`]s share a *domain
//! bucket*; a flat table of per-bucket next-edge times is scanned once per
//! step (`O(D)`, `D` = number of distinct domains — a handful of contiguous
//! words) for the next instant and the buckets firing on it, and only those
//! buckets are touched. Components of concurrently firing buckets are merged
//! by registration index, so the observable tick order — and therefore every
//! cycle-level trace — is bit-identical to a naive per-component scan (see
//! [`crate::reference::NaiveSimulation`], kept as the differential-testing
//! oracle).
//!
//! Quiescence is tracked incrementally: the [`LinkPool`] maintains a live
//! queued-payload counter and the executor maintains a busy-component
//! counter updated on tick transitions, so
//! [`Simulation::run_to_quiescence`] performs an `O(1)` check per edge
//! instead of scanning every component and link.
//!
//! # Sparse ticking
//!
//! Components that declare their wake conditions — watched links via
//! [`Component::watched_links`] plus internal deadlines via
//! [`Component::next_activity`] — join the *active-set* schedule: on edges
//! where a component has no deliverable payload pending on any watched link
//! and no due deadline, its tick is skipped entirely. Edges themselves are
//! never skipped, which keeps [`Simulation::next_edge`],
//! [`Simulation::time`] and quiescence semantics identical to the dense
//! schedule; skipped ticks must be unobservable no-ops (the contract is
//! machine-checked by [`Simulation::enable_skip_audit`]). The dense schedule
//! remains available via [`Simulation::set_dense`] (or an [`ExecMode`] with
//! `dense` set).
//!
//! A payload a component cannot act on yet — its output wire is full, it is
//! mid-service — stays queued and keeps the wake due, and a producer blocked
//! on a full wire keeps its deadline due: those edges are *charged* ticks.
//! Whether a charged tick is *dispatched* is decided by the component's
//! [`Component::stall_hint`]: when every due wake reason sits behind a shut
//! [`Gate`](crate::Gate), the tick is counted
//! ([`Simulation::ticks_executed`]) but its body is not called
//! ([`Simulation::ticks_elided`]) — the wake-on-space half of a blocking
//! FIFO, held to the same no-op contract and the same audit. A tick whose
//! only effect is `+1` on one counter may be elided too, the executor
//! crediting the counter by edge arithmetic (the one-counter exception of
//! [`Component::stall_hint`]). Inside a fast-gear window a component's
//! [`fast_forward`](Component::fast_forward) hook takes the same verdict,
//! with the same arithmetic, through [`FastCtx::stall`].
//!
//! # Wake keys
//!
//! None of this is polled. Every slot carries one *wake key* in the
//! [`LinkPool`]: the earliest instant at which its verdict — asleep, stalled
//! — could change. The executor writes the key when it takes the verdict
//! (against the live link state, at the slot's turn in tick order, so
//! same-edge ordering is the dense schedule's); afterwards only link traffic
//! moves it, and only down: [`LinkPool::push_after`] lowers every watcher's
//! key to the delivery instant (wake-on-delivery) and [`LinkPool::pop`]
//! makes the keys of the slots stalled for room on that wire due
//! (wake-on-space). A member whose key is not due costs one compare per
//! edge; a per-bucket lower bound on its members' keys retires an instant
//! on which no fired bucket has anything due without walking the members at
//! all. Charged, elided and skipped totals come from a per-bucket count of
//! stalled members and edge-index differences, not from per-slot per-edge
//! increments.
//!
//! # Quiet stretches
//!
//! An instant on which no fired bucket has anything due — a *quiet* one —
//! is rarely alone: a master waiting on slow memory leaves every bucket's
//! bound ahead for many edges. A bounded run ([`Simulation::run_until`],
//! [`Simulation::run_to_quiescence`]) that reaches a quiet instant
//! therefore retires it and the whole stretch behind it in one step: every
//! instant before the earliest of the horizon and each bucket's first edge
//! at or after its bound. Nothing in the stretch can lower a bound, since
//! only a dispatched tick makes link traffic. Edge indices, next edges and
//! the charged, elided and skipped totals advance by arithmetic; the edge
//! count gains the distinct instants of the stretch (coincident edges of
//! different buckets are one instant). [`Simulation::step`] never does
//! this: it retires exactly one instant.

use crate::clock::ClockDomain;
use crate::component::{Component, ComponentId, StallHint, TickContext};
use crate::error::{SimError, SimResult};
use crate::fast::FastCtx;
use crate::fault::{FaultCounts, FaultEngine, FaultSchedule};
use crate::link::{LinkId, LinkPool};
use crate::rng::SplitMix64;
use crate::stats::{MetricExtent, StatsRegistry};
use crate::time::{Cycles, Time};

/// Execution fidelity of a [`Simulation`]: the gear it runs in.
///
/// `Cycle` is the classic cycle-accurate schedule. `Fast { quantum }` is the
/// loosely-timed gear: each scheduling batch hands every fired component a
/// *window* of up to `quantum` consecutive edges of its clock domain and
/// advances it through the whole window at once (see
/// [`FastCtx`](crate::FastCtx)). Windows are aligned to absolute edge-index
/// multiples of the quantum and clamped to the run horizon, so window
/// boundaries — and therefore gear-shift points — are deterministic and
/// land on checkpointable edges regardless of how a run was chunked,
/// restored or resumed.
///
/// The gear is an execution *strategy*, not simulation state: it is not part
/// of snapshots (like the dense/sparse choice, the other field of an
/// [`ExecMode`]), and `Fast { quantum: 1 }` is byte-identical to `Cycle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fidelity {
    /// Cycle-accurate: one edge per scheduling step, per-edge arbitration.
    #[default]
    Cycle,
    /// Loosely-timed: windows of up to `quantum` edges with window-granular
    /// cross-component visibility (temporal decoupling). Per-hop timing
    /// error is bounded by roughly one quantum of the producer's clock;
    /// `quantum` 0 is treated as 1.
    Fast {
        /// Window length in edges of each component's own clock domain.
        quantum: u64,
    },
}

impl Fidelity {
    /// Default window length of the fast gear — the published
    /// speedup-vs-error trade-off point.
    pub const DEFAULT_QUANTUM: u64 = 64;

    /// The fast gear at the default quantum.
    pub fn fast() -> Self {
        Fidelity::Fast {
            quantum: Self::DEFAULT_QUANTUM,
        }
    }

    /// The effective window length (1 for `Cycle`).
    pub fn quantum(self) -> u64 {
        match self {
            Fidelity::Cycle => 1,
            Fidelity::Fast { quantum } => quantum.max(1),
        }
    }
}

/// How a [`Simulation`] executes: the schedule and the gear, as one value a
/// caller hands to whatever builds the simulation ([`Simulation::set_exec`]).
///
/// A mode is *strategy*, not state: any two modes whose gear is exact
/// (`Cycle` or `Fast { quantum: 1 }`) produce bit-identical results, and
/// neither field enters a snapshot, the
/// [`structural_fingerprint`](Simulation::structural_fingerprint) or anything
/// derived from them. The default is the sparse schedule and the
/// cycle-accurate gear.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecMode {
    /// `true` forces the dense schedule ([`Simulation::set_dense`]).
    pub dense: bool,
    /// The gear ([`Simulation::set_fidelity`]).
    pub fidelity: Fidelity,
}

struct Slot<T> {
    /// The component itself.
    component: Box<dyn Component<T>>,
    /// Ticks charged and settled: the dispatched ones plus the elided edges
    /// of stalls that are over (not serialized; resets to 0 on restore). The
    /// edges of a standing stall are added when it ends — see
    /// [`Simulation::component_ticks`].
    ticks: u64,
    /// Tick bodies actually run (not serialized; resets to 0 on restore).
    dispatches: u64,
    /// Cached `is_idle()` as of the component's last tick (or registration).
    /// Valid because idle status may only change during the component's own
    /// tick — see the [`Component::is_idle`] contract.
    idle: bool,
    /// The slot's side of the sparse active-set schedule; `None` keeps the
    /// component outside it, ticked on every edge. Behind a box because the
    /// two are read on different occasions: a tick reads the slot, a turn
    /// that takes a verdict reads this, and a member whose wake key is not
    /// due reads neither.
    sparse: Option<Box<Sparse>>,
    /// The bucket this slot belongs to.
    bucket: u32,
    /// The bucket's `edge_index` at registration; `edge_index - edge_base`
    /// is the component's own-domain cycle count (what a dense schedule's
    /// executed-tick count would be).
    edge_base: u64,
}

/// What the sparse schedule knows of a component that opted into it.
struct Sparse {
    /// The links whose deliveries wake the component (read once from
    /// [`Component::watched_links`] at registration).
    watched: Vec<LinkId>,
    /// Cached [`Component::next_activity`] deadline in ps (`u64::MAX` =
    /// none), re-read after every executed tick. Starts at 0 so the first
    /// edge always ticks (covers lazy per-component setup).
    timer: u64,
    /// Cached [`Component::stall_hint`], re-read wherever `timer` is. Starts
    /// unset (every gate open), so the first tick is always dispatched.
    stall: StallHint,
    /// `Some(e)` while the slot is *stalled*: charged but not dispatched on
    /// every edge of its bucket from index `e` on, until its next dispatch.
    stalled_since: Option<u64>,
    /// Index of the first edge of its bucket whose
    /// [`count_elided`](StallHint::count_elided) credit is still owed.
    credit_from: u64,
}

/// What the sparse schedule does with a slot whose wake key is due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// [`Component::tick`] runs.
    Dispatch,
    /// Nothing to run before `until` (ps) unless link traffic lowers the
    /// key first. `charged`: the edge is a tick of the component all the
    /// same — its deadline is due or a watched delivery is pending, but
    /// every such reason sits behind a shut gate (an *elided* tick); not
    /// charged, the component is simply asleep (a *skipped* tick).
    Sleep { until: u64, charged: bool },
}

/// Where `step` borrowed the edge's tick order from, so it can be returned
/// without copying after the pass (the allocation-reuse fast path).
enum OrderSrc {
    /// A single bucket fired: the order *is* its member list.
    Bucket(usize),
    /// A coincident multi-bucket edge: the order is a merge-cache entry.
    Cache(usize),
}

/// Components sharing one clock domain *and* one next-edge time.
///
/// Almost always one bucket per distinct `ClockDomain`; a component added
/// mid-run whose first edge differs from its domain's current next edge
/// gets a bucket of its own (the merged tick order keeps determinism either
/// way).
struct DomainBucket {
    clock: ClockDomain,
    /// Edges this bucket has fired so far (drives `TickContext::cycle`
    /// independently of how many ticks sparse scheduling actually executed).
    /// Edge `k` fires at `next_edges[bucket] - (edge_index - k) * period`:
    /// clocks are strictly periodic.
    edge_index: u64,
    /// Members currently stalled (see `Sparse::stalled_since`): each is one
    /// charged, elided tick on every edge the bucket fires.
    stalled: u64,
    /// Members outside the sparse schedule (no
    /// [`Component::watched_links`]): dispatched on every edge, they have no
    /// wake key to keep, and a bucket holding one never has a quiet edge.
    unkeyed: u32,
    /// Registration indices, ascending (members are appended in
    /// registration order and never reordered).
    members: Vec<u32>,
    /// Scratch: window length (edges) of the current fast-gear batch.
    /// Recomputed per batch; never serialized.
    fast_win: u64,
}

/// Why a bounded run returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// All components reported idle and all links drained.
    Quiescent {
        /// The edge at which quiescence was observed.
        at: Time,
    },
    /// The time horizon was reached first.
    HorizonReached {
        /// The last edge processed.
        at: Time,
    },
}

impl RunOutcome {
    /// The time the run ended, regardless of the reason.
    pub fn at(self) -> Time {
        match self {
            RunOutcome::Quiescent { at } | RunOutcome::HorizonReached { at } => at,
        }
    }
}

/// A deterministic multi-clock simulation: components, links, metrics and a
/// seeded RNG.
///
/// Components are ticked on every rising edge of their clock domain; when
/// several domains share an edge instant, components tick in registration
/// order. All runs with the same construction sequence and seed produce
/// bit-identical results.
///
/// See the [crate-level documentation](crate) for a complete example.
pub struct Simulation<T> {
    time: Time,
    slots: Vec<Slot<T>>,
    buckets: Vec<DomainBucket>,
    /// `next_edges[bucket]` = the bucket's pending edge: the flat table
    /// [`select`](Self::select) scans.
    next_edges: Vec<Time>,
    /// The earliest pending edge, selected after every step, registration
    /// and restore.
    pending: Option<Time>,
    /// The buckets firing on `pending`, ascending.
    fired: Vec<u32>,
    /// Cache of merged member orders keyed by the fired-bucket set (which is
    /// deterministic: `select` lists equal-time buckets in index order).
    /// Invalidated on component registration. Linear scan — coincident-edge
    /// patterns are few per platform.
    merge_cache: Vec<(Vec<u32>, Vec<u32>)>,
    /// Scratch for [`retire_quiet_stretch`](Self::retire_quiet_stretch):
    /// the edges of every bucket firing in the stretch.
    stretch: Vec<StretchEdges>,
    /// Number of components whose cached idle flag is `false`.
    busy: usize,
    /// Edges processed so far.
    edges: u64,
    /// Component ticks executed so far (across all components; not
    /// serialized, resets to 0 on restore).
    total_ticks: u64,
    /// The part of `total_ticks` retired without calling the component (see
    /// [`Simulation::ticks_elided`]).
    total_elided: u64,
    /// Slots whose standing hint declares a counter
    /// ([`StallHint::count_elided`]): the ones a returning public call has
    /// to credit. A handful at most.
    crediting: Vec<u32>,
    /// Scratch for the hints [`FastCtx::stall`] reads inside fast-gear
    /// windows. A window's hint speaks for that window only — it must not
    /// vouch for a wire as of an instant the batch has not reached — so it
    /// never becomes a slot's standing hint.
    window_hint: StallHint,
    /// Edge counts not yet added to the process-wide
    /// [`activity`](crate::activity) counters; flushed when a public run
    /// call returns.
    activity: crate::activity::Pending,
    /// `true` disables sparse ticking for this simulation.
    dense: bool,
    /// Execution gear: cycle-accurate or loosely-timed windows. See
    /// [`Simulation::set_fidelity`].
    fidelity: Fidelity,
    /// When set (see [`Simulation::enable_skip_audit`]), would-be-skipped
    /// ticks are executed anyway and byte-compared against the idle
    /// contract. Stored as a function pointer so the `SnapshotPayload`
    /// bound it needs is captured at enable time.
    audit: Option<fn(&mut Simulation<T>, usize, Time)>,
    links: LinkPool<T>,
    /// Memo of [`structural_fingerprint`](Self::structural_fingerprint),
    /// dropped whenever a component or a link may have been added
    /// ([`add_component`](Self::add_component),
    /// [`links_mut`](Self::links_mut)).
    fingerprint: std::sync::OnceLock<u64>,
    stats: StatsRegistry,
    /// The metrics that existed when the last
    /// [`add_component`](Self::add_component) returned: the registry
    /// prefix whose ids components keep, and the fingerprint covers.
    registered: MetricExtent,
    rng: SplitMix64,
    faults: FaultEngine,
}

impl<T> Simulation<T> {
    /// Creates an empty simulation with the default seed (0).
    pub fn new() -> Self {
        Simulation::with_seed(0)
    }

    /// Creates an empty simulation whose RNG is seeded with `seed`.
    pub fn with_seed(seed: u64) -> Self {
        Simulation {
            time: Time::ZERO,
            slots: Vec::new(),
            buckets: Vec::new(),
            next_edges: Vec::new(),
            pending: None,
            fired: Vec::new(),
            merge_cache: Vec::new(),
            stretch: Vec::new(),
            busy: 0,
            edges: 0,
            total_ticks: 0,
            total_elided: 0,
            crediting: Vec::new(),
            window_hint: StallHint::default(),
            activity: crate::activity::Pending::default(),
            dense: false,
            fidelity: Fidelity::Cycle,
            audit: None,
            links: LinkPool::new(),
            fingerprint: std::sync::OnceLock::new(),
            stats: StatsRegistry::new(),
            registered: MetricExtent::default(),
            rng: SplitMix64::new(seed),
            faults: FaultEngine::new(),
        }
    }

    /// Arms the fault engine with `schedule` for this simulation's run.
    /// Without this call the engine stays disarmed and every
    /// [`FaultEngine::probe`] on the tick path is a single cold branch.
    pub fn arm_faults(&mut self, schedule: FaultSchedule) {
        self.faults.arm(schedule);
    }

    /// The fault engine (for reading accounting after a run).
    pub fn faults(&self) -> &FaultEngine {
        &self.faults
    }

    /// Mutable access to the fault engine.
    pub fn faults_mut(&mut self) -> &mut FaultEngine {
        &mut self.faults
    }

    /// The fault engine's cumulative accounting.
    pub fn fault_counts(&self) -> FaultCounts {
        self.faults.counts()
    }

    /// Registers a component on a clock domain. The first tick fires at the
    /// clock's phase offset (time zero for unshifted clocks).
    pub fn add_component(
        &mut self,
        mut component: Box<dyn Component<T>>,
        clock: ClockDomain,
    ) -> ComponentId {
        let index = u32::try_from(self.slots.len()).expect("too many components");
        let id = ComponentId(index);
        // Metrics are created in component registration order, before the
        // first edge: report rows and checkpoint bytes follow that order,
        // and the component keeps the ids.
        component.register_metrics(&mut self.stats);
        self.registered = self.stats.extent();
        let next_tick = clock.next_edge_at_or_after(self.time);
        let idle = component.is_idle();
        if !idle {
            self.busy += 1;
        }
        let watched = component.watched_links();
        // Join the bucket with the same domain and the same pending edge;
        // otherwise open a new one (with its own next-edge entry).
        let bucket;
        let edge_base;
        if let Some(b) = (0..self.buckets.len())
            .find(|&b| self.buckets[b].clock == clock && self.next_edges[b] == next_tick)
        {
            self.buckets[b].members.push(index);
            self.buckets[b].unkeyed += u32::from(watched.is_none());
            bucket = b as u32;
            edge_base = self.buckets[b].edge_index;
        } else {
            bucket = u32::try_from(self.buckets.len()).expect("too many clock domains");
            edge_base = 0;
            self.buckets.push(DomainBucket {
                clock,
                edge_index: 0,
                stalled: 0,
                unkeyed: u32::from(watched.is_none()),
                members: vec![index],
                fast_win: 0,
            });
            self.next_edges.push(next_tick);
        }
        self.links.enrol(index, bucket);
        for &l in watched.iter().flatten() {
            self.links.watch(l, index);
        }
        self.slots.push(Slot {
            component,
            ticks: 0,
            dispatches: 0,
            idle,
            sparse: watched.map(|watched| {
                Box::new(Sparse {
                    watched,
                    // Force the first tick regardless of hints: it covers
                    // lazy per-component setup (channel sizing) and
                    // establishes the initial wake/timer state.
                    timer: 0,
                    stall: StallHint::default(),
                    stalled_since: None,
                    credit_from: 0,
                })
            }),
            bucket,
            edge_base,
        });
        self.merge_cache.clear();
        self.fingerprint = std::sync::OnceLock::new();
        self.select();
        id
    }

    /// Current simulation time (last processed edge).
    pub fn time(&self) -> Time {
        self.time
    }

    /// Number of registered components.
    pub fn component_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of distinct scheduling buckets (normally the number of
    /// distinct clock domains).
    pub fn domain_count(&self) -> usize {
        self.buckets.len()
    }

    /// The registered components, in registration (tick) order.
    pub fn component_ids(&self) -> impl Iterator<Item = ComponentId> {
        (0..self.slots.len() as u32).map(ComponentId)
    }

    /// Name of a component.
    pub fn component_name(&self, id: ComponentId) -> &str {
        self.slots[id.index()].component.name()
    }

    /// Ticks charged to a component since construction (or since the last
    /// [`restore`](Simulation::restore) — tick counts are schedule-dependent
    /// and not part of snapshots): every edge on which its deadline was due
    /// or a watched delivery was pending, whether the tick was dispatched or
    /// elided (see [`ticks_elided`](Simulation::ticks_elided)). Under sparse
    /// ticking this can be far below the component's cycle count.
    pub fn component_ticks(&self, id: ComponentId) -> u64 {
        let slot = &self.slots[id.index()];
        // A standing stall has charged one tick per edge since it began.
        let stalled_since = slot.sparse.as_ref().and_then(|s| s.stalled_since);
        slot.ticks
            + stalled_since.map_or(0, |since| {
                self.buckets[slot.bucket as usize].edge_index - since
            })
    }

    /// Tick bodies actually run for a component — the dispatched part of
    /// [`component_ticks`](Simulation::component_ticks). A component whose
    /// dispatches stay close to its charged ticks is one no stall hint
    /// covers: the census `examples/bottleneck_analysis.rs` prints. Means
    /// the same in either gear: inside a fast-gear window the edges
    /// [`FastCtx::stall`] retires are charged, not dispatched.
    pub fn component_dispatches(&self, id: ComponentId) -> u64 {
        self.slots[id.index()].dispatches
    }

    /// Edges a component's clock domain has fired since it was registered:
    /// what a dense schedule would have ticked it.
    pub fn component_cycles(&self, id: ComponentId) -> u64 {
        self.cycle_of(id.index())
    }

    /// Total edges processed so far (each [`Simulation::step`] is one edge).
    pub fn edges_processed(&self) -> u64 {
        self.edges
    }

    /// Total component ticks charged across all components since
    /// construction (or since the last [`restore`](Simulation::restore)):
    /// dispatched ticks plus [elided](Simulation::ticks_elided) ones, so the
    /// count does not depend on which components publish stall hints.
    pub fn ticks_executed(&self) -> u64 {
        self.total_ticks
    }

    /// The part of [`ticks_executed`](Simulation::ticks_executed) that was
    /// retired without calling [`Component::tick`]: charged ticks whose
    /// [`Component::stall_hint`] proved them no-ops (an output wire still
    /// full, a target mid-service). `ticks_executed() - ticks_elided()` is
    /// the number of tick bodies actually run. Includes the edges a
    /// fast-gear window retired through [`FastCtx::stall`]. Always 0 on the
    /// dense schedule and under the skip audit, which dispatch everything.
    pub fn ticks_elided(&self) -> u64 {
        self.total_elided
    }

    /// The shared link pool (for wiring before the run and inspection after).
    pub fn links(&self) -> &LinkPool<T> {
        &self.links
    }

    /// Mutable access to the link pool (wiring phase). A link added through
    /// it changes the [`structural_fingerprint`](Simulation::structural_fingerprint),
    /// so the call drops the memo.
    pub fn links_mut(&mut self) -> &mut LinkPool<T> {
        self.fingerprint = std::sync::OnceLock::new();
        &mut self.links
    }

    /// The metric registry.
    pub fn stats(&self) -> &StatsRegistry {
        &self.stats
    }

    /// Mutable access to the metric registry.
    pub fn stats_mut(&mut self) -> &mut StatsRegistry {
        &mut self.stats
    }

    /// The time of the next pending edge, if any component is registered.
    pub fn next_edge(&self) -> Option<Time> {
        self.pending
    }

    /// Forces the classic dense schedule for this simulation (`true`), or
    /// re-enables sparse ticking (`false`). Both schedules are
    /// observationally bit-identical; dense is kept as an escape hatch and
    /// as the baseline for speedup measurements. The `dense` field of an
    /// [`ExecMode`].
    pub fn set_dense(&mut self, dense: bool) {
        if dense {
            self.rouse_all();
        }
        self.dense = dense;
    }

    /// Whether this simulation runs the dense schedule.
    pub fn is_dense(&self) -> bool {
        self.dense
    }

    /// Selects the execution gear: [`Fidelity::Cycle`] (the default) or the
    /// loosely-timed [`Fidelity::Fast`] windows. The `fidelity` field of an
    /// [`ExecMode`].
    ///
    /// The gear may be shifted at any scheduling boundary — in particular,
    /// after a bounded run ([`run_until`](Simulation::run_until) /
    /// [`run_to_quiescence`](Simulation::run_to_quiescence)) every clock
    /// domain's next edge lies strictly past the horizon exactly as it would
    /// under `Cycle`, so a fast-forwarded prefix lands on a checkpointable
    /// boundary with an unchanged
    /// [`structural_fingerprint`](Simulation::structural_fingerprint), and
    /// shifting down to `Cycle` there is deterministic.
    ///
    /// `Fast { quantum: 1 }` is byte-identical to `Cycle` (windows degenerate
    /// to single edges and both sleeps of [`FastCtx`] become no-ops).
    /// Composition: skip-audit mode forces the cycle-accurate path
    /// (its byte-comparisons are per-edge by definition).
    pub fn set_fidelity(&mut self, fidelity: Fidelity) {
        self.fidelity = match fidelity {
            Fidelity::Fast { quantum } => Fidelity::Fast {
                quantum: quantum.max(1),
            },
            Fidelity::Cycle => Fidelity::Cycle,
        };
        // Bandwidth-based approximate contention: while fast-forwarding,
        // every link admits `quantum − 1` payloads beyond its physical
        // capacity — the number a one-per-cycle consumer could have drained
        // concurrently during the window it cannot run in. Without the
        // slack, cross-window back-pressure throttles every producer to
        // `capacity` payloads per window and the loosely-timed run's
        // simulated length inflates instead of its wall-clock shrinking.
        // Zero at `quantum = 1`, so the byte-identity contract is untouched.
        self.links.set_slack(match self.fidelity {
            Fidelity::Fast { quantum } => usize::try_from(quantum - 1).unwrap_or(usize::MAX),
            Fidelity::Cycle => 0,
        });
    }

    /// The current execution gear.
    pub fn fidelity(&self) -> Fidelity {
        self.fidelity
    }

    /// Applies an [`ExecMode`]: [`set_dense`](Simulation::set_dense) and
    /// [`set_fidelity`](Simulation::set_fidelity) in one call — what a
    /// builder does with the mode it was handed, once, on the simulation it
    /// has just constructed.
    pub fn set_exec(&mut self, mode: ExecMode) {
        self.set_dense(mode.dense);
        self.set_fidelity(mode.fidelity);
    }

    /// Takes the verdict of a slot on an edge at `now_ps`, against the live
    /// link state — so within an edge a slot sees exactly the room that
    /// earlier-registered consumers have already made, as in the dense
    /// schedule. The sparse rule decides whether the tick is *charged*:
    /// opted-in components sleep unless a watched link has a pending
    /// delivery at or before the edge, or their declared deadline is due.
    /// The slot's stall hint then decides whether a charged tick is
    /// *dispatched*: each wake reason — the deadline, the head of each
    /// watched link — counts from the later of its own instant and its
    /// gate's, and only while the gate's wire has room. A reason shut for
    /// lack of room registers the slot on that wire ([`LinkPool::pop`] makes
    /// its key due); the others bound how long the verdict can stand.
    fn decide(&mut self, index: usize, now_ps: u64) -> Verdict {
        let Simulation { slots, links, .. } = self;
        let Some(slot) = &slots[index].sparse else {
            return Verdict::Dispatch;
        };
        let wake = links.wake_of(index as u32);
        if slot.timer > now_ps && wake > now_ps {
            return Verdict::Sleep {
                until: slot.timer.min(wake),
                charged: false,
            };
        }
        if !slot.stall.is_set() {
            return Verdict::Dispatch;
        }
        // A delivery lowers the key, so a reason with nothing queued — or
        // behind a closed gate — needs no instant of its own.
        let waiter = Some(index as u32);
        match slot
            .stall
            .first_due(slot.timer, &slot.watched, links, now_ps, waiter)
        {
            at if at <= now_ps => Verdict::Dispatch,
            until => Verdict::Sleep {
                until,
                charged: true,
            },
        }
    }

    /// Ends whatever the slot's verdict left standing, ahead of a tick (or
    /// a fast-gear window, or a switch to a schedule that dispatches
    /// everything): the elided edges of its stall are charged to it, and
    /// the credit its hint declared is paid up.
    fn rouse(&mut self, index: usize) {
        let slot = &mut self.slots[index];
        let Some(sparse) = &mut slot.sparse else {
            return;
        };
        if let Some(since) = sparse.stalled_since.take() {
            let bucket = &mut self.buckets[slot.bucket as usize];
            slot.ticks += bucket.edge_index - since;
            bucket.stalled -= 1;
            self.links.lower_due(index as u32, 0);
        }
        if sparse.stall.counted().is_some() {
            self.credit(index);
        }
    }

    fn rouse_all(&mut self) {
        for index in 0..self.slots.len() {
            self.rouse(index);
        }
    }

    /// Pays the slot's [`count_elided`](StallHint::count_elided) credit up
    /// to the last edge its bucket has decided: one for every edge from
    /// `credit_from` on that fired at or after the declared instant. None of
    /// them was dispatched — a dispatch re-reads the hint and moves
    /// `credit_from` past itself.
    fn credit(&mut self, index: usize) {
        let slot = &mut self.slots[index];
        let Some(sparse) = &mut slot.sparse else {
            return;
        };
        let Some((counter, from)) = sparse.stall.counted() else {
            return;
        };
        let b = slot.bucket as usize;
        let (decided, period) = (self.buckets[b].edge_index, self.buckets[b].clock.period());
        // Edge `k` fires at `next_edge - (decided - k) * period`.
        let first = match self.next_edges[b].as_ps().checked_sub(from.as_ps()) {
            Some(lead) => decided.saturating_sub(lead / period.as_ps()),
            None => decided,
        };
        let owed = decided.saturating_sub(sparse.credit_from.max(first));
        sparse.credit_from = decided;
        if owed > 0 {
            self.stats.inc(counter, owed);
        }
    }

    /// What every public run call does before it returns: pays all standing
    /// credit, so the registry reads exact between calls, and reports the
    /// call's edges to the process-wide activity counters.
    fn finish_call(&mut self) {
        for k in 0..self.crediting.len() {
            self.credit(self.crediting[k] as usize);
        }
        self.activity.flush();
    }

    /// Advances to the next edge and ticks every component scheduled there
    /// (every *runnable* component under sparse ticking; edges themselves
    /// are never skipped). In the cycle gear that is exactly one edge
    /// instant, quiet or not. In [`Fidelity::Fast`] gear one step processes
    /// a whole quantum-aligned *window* of edges per fired clock domain.
    ///
    /// Returns the (first) edge time, or `None` when no components exist.
    pub fn step(&mut self) -> Option<Time> {
        let edge = self.step_bounded(None, None);
        self.finish_call();
        edge
    }

    /// One scheduling batch, with fast-gear windows clamped so no edge past
    /// `limit` is processed (the bounded-run entry point; `None` leaves
    /// windows at their quantum alignment). In the cycle gear a quiet
    /// instant is retired with the quiet stretch it begins, up to
    /// `quiet_until` at most (see
    /// [`retire_quiet_stretch`](Self::retire_quiet_stretch); `None` retires
    /// exactly one instant). Skip-audit mode forces the cycle-accurate path
    /// — its byte-comparisons are per-edge by definition.
    fn step_bounded(&mut self, limit: Option<Time>, quiet_until: Option<Time>) -> Option<Time> {
        match self.fidelity {
            Fidelity::Fast { quantum } if self.audit.is_none() => {
                self.step_fast(limit, quantum.max(1))
            }
            _ => self.step_cycle(quiet_until),
        }
    }

    /// Selects the earliest pending edge and the buckets firing on it, in
    /// index order: one scan of the flat next-edge table.
    fn select(&mut self) {
        let mut at = Time::MAX;
        self.fired.clear();
        for (b, &next) in self.next_edges.iter().enumerate() {
            if next < at {
                at = next;
                self.fired.clear();
            }
            if next == at {
                self.fired.push(b as u32);
            }
        }
        self.pending = (!self.fired.is_empty()).then_some(at);
    }

    /// Borrows the fired edge's tick order by value (returned via
    /// [`return_order`](Self::return_order)) so the tick pass — cycle or
    /// fast — can take `&mut self` freely. No copies: a
    /// single-bucket edge lends its member list, a coincident edge lends the
    /// cached merged order.
    fn borrow_order(&mut self) -> (Vec<u32>, OrderSrc) {
        if self.fired.len() == 1 {
            // Hot path: a single domain fires; its member list is already
            // in registration order.
            let b = self.fired[0] as usize;
            (
                std::mem::take(&mut self.buckets[b].members),
                OrderSrc::Bucket(b),
            )
        } else {
            // Several domains share this instant: merge their (sorted)
            // member lists so ticks happen in global registration order,
            // exactly as the naive full scan would produce. The merged
            // order is cached per fired-bucket set.
            let pos = match self
                .merge_cache
                .iter()
                .position(|(key, _)| *key == self.fired)
            {
                Some(pos) => pos,
                None => {
                    let mut merged = Vec::with_capacity(
                        self.fired
                            .iter()
                            .map(|&b| self.buckets[b as usize].members.len())
                            .sum(),
                    );
                    for f in 0..self.fired.len() {
                        let b = self.fired[f] as usize;
                        merged.extend_from_slice(&self.buckets[b].members);
                    }
                    merged.sort_unstable();
                    self.merge_cache.push((self.fired.clone(), merged));
                    self.merge_cache.len() - 1
                }
            };
            (
                std::mem::take(&mut self.merge_cache[pos].1),
                OrderSrc::Cache(pos),
            )
        }
    }

    fn return_order(&mut self, order: Vec<u32>, src: OrderSrc) {
        match src {
            OrderSrc::Bucket(b) => self.buckets[b].members = order,
            OrderSrc::Cache(pos) => self.merge_cache[pos].1 = order,
        }
    }

    /// The cycle-accurate scheduling step: one edge instant, or — when that
    /// instant is quiet and `quiet_until` is given — the quiet stretch it
    /// begins.
    fn step_cycle(&mut self, quiet_until: Option<Time>) -> Option<Time> {
        let edge = self.pending?;
        let now_ps = edge.as_ps();
        // The wake keys drive the edge unless the schedule dispatches every
        // member anyway: the dense one, and the audit.
        let keyed = !self.dense && self.audit.is_none();
        let quiet = keyed
            && self
                .fired
                .iter()
                .all(|&b| self.links.bucket_due(b) > now_ps);
        if let Some(horizon) = quiet_until.filter(|_| quiet) {
            self.retire_quiet_stretch(horizon);
            return Some(edge);
        }
        self.time = edge;
        let dispatched = if quiet {
            // No fired bucket has a key due: nothing to dispatch, nothing to
            // decide, and the members need not be walked.
            0
        } else {
            if keyed {
                // The pass visits every member of the fired buckets and
                // folds each key it keeps back into its bucket's bound —
                // which stays due where a member has no key.
                for f in 0..self.fired.len() {
                    let b = self.fired[f];
                    let bound = match self.buckets[b as usize].unkeyed {
                        0 => u64::MAX,
                        _ => 0,
                    };
                    self.links.set_bucket_due(b, bound);
                }
            }
            let (order, src) = self.borrow_order();
            let dispatched = self.serial_pass(&order, edge);
            self.return_order(order, src);
            dispatched
        };
        // Every member of a fired bucket was dispatched, is stalled (one
        // charged, elided tick) or slept through the edge.
        let mut members = 0u64;
        let mut elided = 0u64;
        for f in 0..self.fired.len() {
            let b = self.fired[f] as usize;
            let bucket = &mut self.buckets[b];
            members += bucket.members.len() as u64;
            elided += bucket.stalled;
            bucket.edge_index += 1;
            self.next_edges[b] = edge + bucket.clock.period();
        }
        let ticked = dispatched + elided;
        self.edges += 1;
        self.total_ticks += ticked;
        self.total_elided += elided;
        self.activity
            .record_edge(1, ticked, members - ticked, elided);
        self.select();
        Some(edge)
    }

    /// Retires the pending instant, which is quiet, and every instant after
    /// it up to the stretch end `T` in one step: `T` is the earliest of
    /// `horizon + 1 ps` and, for every bucket, its first edge at or after
    /// its bound ([`LinkPool::bucket_due`]). No instant before `T` can
    /// dispatch: each bucket firing there has its bound above the instant,
    /// and only a dispatched tick lowers a bound. Such an instant is what
    /// [`step_cycle`](Self::step_cycle) would make of it — every stalled
    /// member charged one elided tick, every other member skipped — so the
    /// stretch is counted by arithmetic: a merge over the `stretch` scratch
    /// counts each bucket's edges and the distinct instants among them
    /// (coincident edges of different buckets are one instant).
    // Out of line: inlined into `step_cycle` it cost the every-edge path of
    // dense components 7 % (`kernel_hotpath`'s `bucketed` case).
    #[inline(never)]
    fn retire_quiet_stretch(&mut self, horizon: Time) {
        // Past the pending instant: a fired bucket's bound is above it, and
        // every other bucket's next edge is.
        let mut end = horizon.as_ps().saturating_add(1);
        for (b, next) in self.next_edges.iter().enumerate() {
            let (next, due) = (next.as_ps(), self.links.bucket_due(b as u32));
            if due < end {
                let first = if due <= next {
                    next
                } else {
                    let period = self.buckets[b].clock.period().as_ps();
                    next + (due - next).div_ceil(period) * period
                };
                end = end.min(first);
            }
        }
        self.stretch.clear();
        for (b, next) in self.next_edges.iter().enumerate() {
            if next.as_ps() < end {
                self.stretch.push(StretchEdges {
                    bucket: b,
                    next: next.as_ps(),
                    period: self.buckets[b].clock.period().as_ps(),
                    edges: 0,
                });
            }
        }
        let (instants, last) = distinct_instants(&mut self.stretch, end);
        let (mut elided, mut skipped) = (0u64, 0u64);
        for s in &self.stretch {
            let bucket = &mut self.buckets[s.bucket];
            bucket.edge_index += s.edges;
            self.next_edges[s.bucket] = Time::from_ps(s.next);
            elided += bucket.stalled * s.edges;
            skipped += (bucket.members.len() as u64 - bucket.stalled) * s.edges;
        }
        self.time = Time::from_ps(last);
        self.edges += instants;
        self.total_ticks += elided;
        self.total_elided += elided;
        self.activity.record_edge(instants, elided, skipped, elided);
        self.select();
    }

    /// The loosely-timed scheduling step: every fired bucket processes a
    /// *window* of consecutive edges instead of one.
    ///
    /// Window lengths are `quantum - (edge_index % quantum)` — i.e. windows
    /// end on absolute edge-index multiples of the quantum, so boundaries do
    /// not depend on where a run was chunked, checkpointed or gear-shifted —
    /// additionally clamped so the window never crosses `limit`. After the
    /// batch every bucket's `next_edge`/`edge_index` are exactly what a
    /// cycle run would hold after the same edges, which is what makes any
    /// bounded-run horizon a deterministic gear-shift point.
    fn step_fast(&mut self, limit: Option<Time>, quantum: u64) -> Option<Time> {
        let edge = self.pending?;
        self.time = edge;
        let mut batch_edges = 0u64;
        let mut last_ps = edge.as_ps();
        for f in 0..self.fired.len() {
            let b = self.fired[f] as usize;
            let bucket = &mut self.buckets[b];
            let mut n = quantum - (bucket.edge_index % quantum);
            if let Some(h) = limit {
                // Edges at edge, edge+P, ..., up to and including `h`:
                // caller guarantees edge <= h.
                let span = (h.as_ps() - edge.as_ps()) / bucket.clock.period().as_ps();
                n = n.min(span + 1);
            }
            bucket.fast_win = n;
            batch_edges = batch_edges.max(n);
            last_ps = last_ps.max(edge.as_ps() + bucket.clock.period().as_ps() * (n - 1));
        }
        let (order, src) = self.borrow_order();
        self.fast_pass(&order, edge);
        self.return_order(order, src);
        for f in 0..self.fired.len() {
            let b = self.fired[f] as usize;
            let bucket = &mut self.buckets[b];
            let n = bucket.fast_win;
            self.next_edges[b] = Time::from_ps(edge.as_ps() + bucket.clock.period().as_ps() * n);
            bucket.edge_index += n;
        }
        // Batches of different buckets may interleave in time (windows of a
        // slower clock outlast the next edge of a faster one) — inherent to
        // temporal decoupling. `time` reports the last edge processed so
        // quiescence observed mid-batch is stamped where it was drained.
        self.time = Time::from_ps(last_ps);
        self.edges += batch_edges;
        self.select();
        Some(edge)
    }

    /// Advances every component of `order` through its bucket's window, in
    /// order, and counts the batch: charged ticks and the part of them
    /// [`FastCtx::stall`] retired without a dispatch, window-cycles skipped
    /// whole by the sparse wake check, windows processed, and in-window
    /// cycles the hooks slept over uncharged ([`FastCtx::sleep_until`]).
    ///
    /// The fast gear reads deadlines and wakes, not wake keys. A member a
    /// cycle-gear edge left stalled is charged, so it is never skipped
    /// whole: its window takes it over ([`rouse`](Self::rouse)) and clears
    /// its hint. A member skipped whole keeps its hint; credit that hint
    /// declares is edge arithmetic and covers the window's edges whenever
    /// it is next paid.
    fn fast_pass(&mut self, order: &[u32], edge: Time) {
        let start_ps = edge.as_ps();
        let dense = self.dense;
        let mut ticked = 0u64;
        let mut skipped = 0u64;
        let mut windows = 0u64;
        let mut slept = 0u64;
        let mut stalled = 0u64;
        for &raw in order {
            let i = raw as usize;
            let b = self.slots[i].bucket as usize;
            let n = self.buckets[b].fast_win;
            let end_ps = start_ps + self.buckets[b].clock.period().as_ps() * (n - 1);
            let slot = &self.slots[i];
            // Whole-window sparse skip: no due deadline and no watched
            // delivery anywhere in the window. At quantum 1 this is exactly
            // the cycle gear's uncharged edge.
            if !dense
                && slot.sparse.as_ref().is_some_and(|s| s.timer > end_ps)
                && self.links.wake_of(raw) > end_ps
            {
                skipped += n;
                continue;
            }
            let (dispatched, retired) = self.fast_slot(i, edge, n);
            ticked += dispatched + retired;
            windows += 1;
            slept += n - dispatched - retired;
            stalled += retired;
        }
        self.total_ticks += ticked;
        self.total_elided += stalled;
        self.activity.record_edge(1, ticked, skipped, stalled);
        self.activity.record_fast(windows, slept);
    }

    /// Runs one component's fast-forward window of `n` edges starting at
    /// `start` through its [`Component::fast_forward`] hook (whose default
    /// body ticks every edge of the window). Returns the tick bodies run and
    /// the edges the hook's [`FastCtx::stall`] charged without running them.
    fn fast_slot(&mut self, index: usize, start: Time, n: u64) -> (u64, u64) {
        self.rouse(index);
        let cycle = self.cycle_of(index);
        let period = self.buckets[self.slots[index].bucket as usize]
            .clock
            .period();
        let dense = self.dense;
        let Simulation {
            slots,
            links,
            stats,
            rng,
            faults,
            window_hint,
            ..
        } = self;
        faults.set_origin(index as u32);
        let slot = &mut slots[index];
        let watched = slot.sparse.as_ref().map(|s| s.watched.as_slice());
        // `--dense` means every charged tick is dispatched, in a window as
        // on an edge: without a hint to read, `FastCtx::stall` is a no-op.
        let hint = (!dense).then_some(window_hint);
        let mut ctx = FastCtx::new(
            start,
            period,
            Cycles::new(cycle),
            n,
            watched,
            hint,
            links,
            stats,
            rng,
            faults,
        );
        slot.component.fast_forward(&mut ctx);
        let (executed, stalled) = (ctx.executed(), ctx.stalled());
        if executed > 0 {
            // A window runs its component alone, against link state the
            // rest of the batch has yet to catch up with; a stall hint read
            // here could vouch for a wire as of the wrong instant. Left
            // unset, the first cycle-gear tick after a downshift is
            // dispatched and re-reads it.
            self.after_ticks(index, executed, stalled, false);
        }
        (executed, stalled)
    }

    /// Ticks every member of `order` the schedule dispatches on this edge,
    /// in order. Returns the number of ticks dispatched.
    fn serial_pass(&mut self, order: &[u32], edge: Time) -> u64 {
        let now_ps = edge.as_ps();
        // Every member ticks on the dense schedule — and on an edge whose
        // buckets hold no member of the sparse one, which then costs what
        // the dense schedule does: no key is read, no verdict taken.
        let unkeyed: usize = self
            .fired
            .iter()
            .map(|&b| self.buckets[b as usize].unkeyed as usize)
            .sum();
        if self.dense || unkeyed == order.len() {
            for &raw in order {
                self.tick_slot(raw as usize, edge);
            }
            return order.len() as u64;
        }
        if let Some(audit) = self.audit {
            // Under the audit a tick the schedule would not dispatch —
            // skipped or elided alike — runs anyway and is byte-compared, so
            // no verdict ever stands: each is taken afresh.
            for &raw in order {
                let i = raw as usize;
                match self.decide(i, now_ps) {
                    Verdict::Dispatch => self.tick_slot(i, edge),
                    Verdict::Sleep { .. } => audit(self, i, edge),
                }
            }
            return order.len() as u64;
        }
        let mut dispatched = 0u64;
        for &raw in order {
            dispatched += u64::from(self.turn(raw, edge));
        }
        dispatched
    }

    /// One member's turn on a keyed edge. A key that is not due is folded
    /// back into its bucket's bound and that is all — the member's slot is
    /// not touched. A due one has its verdict taken: the member is
    /// dispatched, or keyed with how long the verdict stands (either way
    /// the key is written, bound included). Returns whether a tick body ran.
    #[inline]
    fn turn(&mut self, raw: u32, edge: Time) -> bool {
        if self.links.due_of(raw) > edge.as_ps() {
            self.links.keep_due(raw);
            return false;
        }
        let index = raw as usize;
        if self.slots[index].sparse.is_none() {
            // Outside the sparse schedule: no verdict to take, no key.
            self.tick_slot(index, edge);
            return true;
        }
        match self.decide(index, edge.as_ps()) {
            Verdict::Dispatch => {
                self.rouse(index);
                self.tick_slot(index, edge);
                true
            }
            Verdict::Sleep { until, charged } => {
                self.links.set_due(raw, until);
                let slot = &mut self.slots[index];
                let sparse = slot.sparse.as_mut().expect("only a sparse slot sleeps");
                // Once charged a slot stays charged until it is dispatched:
                // its deadline does not move and wakes only come down.
                debug_assert!(charged || sparse.stalled_since.is_none());
                if charged && sparse.stalled_since.is_none() {
                    let bucket = &mut self.buckets[slot.bucket as usize];
                    sparse.stalled_since = Some(bucket.edge_index);
                    bucket.stalled += 1;
                }
                false
            }
        }
    }

    /// The component's own-domain cycle count: how many edges its bucket
    /// fired since it joined. Equals a dense schedule's executed-tick
    /// count, so cycle-driven behaviour (DRAM refresh, round-robin
    /// rotation) is independent of how many ticks were skipped.
    #[inline]
    fn cycle_of(&self, index: usize) -> u64 {
        let slot = &self.slots[index];
        self.buckets[slot.bucket as usize].edge_index - slot.edge_base
    }

    /// Runs one tick body. Whatever verdict the slot's last turn left
    /// standing is over by now: the sparse turn that dispatches a slot
    /// [`rouse`](Self::rouse)s it first, and the schedules that dispatch
    /// everything rouse every slot when they are switched on.
    #[inline]
    fn tick_slot(&mut self, index: usize, edge: Time) {
        let cycle = self.cycle_of(index);
        // Fault probes draw from the component's own per-origin stream, so
        // a tick's draws are independent of how the edge interleaves other
        // components' probes.
        self.faults.set_origin(index as u32);
        let slot = &mut self.slots[index];
        let mut ctx = TickContext::new(
            edge,
            Cycles::new(cycle),
            &mut self.links,
            &mut self.stats,
            &mut self.rng,
            &mut self.faults,
        );
        slot.component.tick(&mut ctx);
        self.after_ticks(index, 1, 0, true);
    }

    /// Bookkeeping after `dispatched` ticks of a component took effect —
    /// and, in a fast-gear window, `stalled` more were charged to it without
    /// a dispatch: tick counters, the cached idle flag and the busy count,
    /// and the slot's sparse wake conditions — the tick may have consumed
    /// watched input, moved its internal deadlines and opened or shut its
    /// stall gates. `hinted` re-reads the stall hint; a fast-gear window
    /// clears it.
    #[inline]
    fn after_ticks(&mut self, index: usize, dispatched: u64, stalled: u64, hinted: bool) {
        let slot = &mut self.slots[index];
        slot.ticks += dispatched + stalled;
        slot.dispatches += dispatched;
        let idle = slot.component.is_idle();
        if idle != slot.idle {
            slot.idle = idle;
            if idle {
                self.busy -= 1;
            } else {
                self.busy += 1;
            }
        }
        if slot.sparse.is_some() {
            // The hint is read on the edge being fired: the first edge it
            // can owe credit for is the next one.
            self.refresh_wake(index, hinted, 1);
        }
    }

    /// Re-derives the slot's sparse wake conditions after its component's
    /// state may have changed: the deadline, the stall gates (cleared
    /// unless `hinted`), the wake of its watched links and — asleep until
    /// its next turn says otherwise — its wake key. The fresh hint speaks
    /// for the edges of its bucket from `ahead` past the current edge index
    /// on. Nothing to do for a slot outside the sparse schedule.
    fn refresh_wake(&mut self, index: usize, hinted: bool, ahead: u64) {
        let Simulation {
            slots,
            buckets,
            links,
            crediting,
            ..
        } = self;
        let slot = &mut slots[index];
        let Some(sparse) = &mut slot.sparse else {
            return;
        };
        let comp = &slot.component;
        sparse.timer = comp.next_activity().map_or(u64::MAX, Time::as_ps);
        let counted = sparse.stall.counted().is_some();
        sparse.stall.reset();
        if hinted {
            comp.stall_hint(&mut sparse.stall);
        }
        sparse.credit_from = buckets[slot.bucket as usize].edge_index + ahead;
        if sparse.stall.counted().is_some() != counted {
            if counted {
                crediting.retain(|&s| s != index as u32);
            } else {
                crediting.push(index as u32);
            }
        }
        links.recompute_wake(index as u32, &sparse.watched, sparse.timer);
    }

    /// Runs all edges up to and including `horizon`.
    ///
    /// In [`Fidelity::Fast`] gear windows are clamped at the horizon, so the
    /// run ends with every clock domain's schedule (next edge, edge index)
    /// exactly where a cycle-accurate run would leave it — `horizon` is a
    /// deterministic gear-shift and checkpoint boundary.
    pub fn run_until(&mut self, horizon: Time) {
        while let Some(next) = self.next_edge() {
            if next > horizon {
                break;
            }
            self.step_bounded(Some(horizon), Some(horizon));
        }
        self.finish_call();
    }

    /// Whether every component is idle and every link is drained.
    ///
    /// `O(1)`: both facts are tracked incrementally (a queued-payload
    /// counter in the [`LinkPool`], a busy-component counter updated on
    /// tick transitions).
    pub fn is_quiescent(&self) -> bool {
        self.busy == 0 && self.links.total_queued() == 0
    }

    /// Runs until the platform drains (all components idle, all links empty)
    /// or until `horizon` passes.
    ///
    /// The quiescent time is the edge at which quiescence was first observed,
    /// i.e. the platform's *execution time* for a finite workload.
    ///
    /// # Errors
    ///
    /// This method never fails; see [`Simulation::run_to_quiescence_strict`]
    /// for a variant that treats hitting the horizon as an error.
    pub fn run_to_quiescence(&mut self, horizon: Time) -> RunOutcome {
        let outcome = loop {
            if self.time > Time::ZERO && self.is_quiescent() {
                break RunOutcome::Quiescent { at: self.time };
            }
            match self.next_edge() {
                Some(next) if next <= horizon => {
                    // A quiet instant changes nothing, so a platform that is
                    // not quiescent now is not at the end of the stretch
                    // either; one that is (at time zero) stops at the next
                    // instant, with no stretch to retire.
                    let quiet_until = (!self.is_quiescent()).then_some(horizon);
                    self.step_bounded(Some(horizon), quiet_until);
                }
                _ => break RunOutcome::HorizonReached { at: self.time },
            }
        };
        self.finish_call();
        outcome
    }

    /// Like [`Simulation::run_to_quiescence`], but hitting the horizon while
    /// work is still pending is reported as a stall.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stalled`] naming the still-busy components if the
    /// workload has not drained by `horizon`.
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

    /// Looks up a component by name and returns its
    /// [`as_any_mut`](Component::as_any_mut) hook, for post-build
    /// reconfiguration of runtime-tunable knobs.
    ///
    /// Returns `None` if no component has that name or the component does
    /// not opt into downcasting.
    pub fn component_any_mut(&mut self, name: &str) -> Option<&mut dyn std::any::Any> {
        self.slots
            .iter_mut()
            .find(|s| s.component.name() == name)
            .and_then(|s| s.component.as_any_mut())
    }
}

impl<T: crate::snapshot::SnapshotPayload> Simulation<T> {
    /// Hash of everything a snapshot does *not* carry: component roster,
    /// clock-domain buckets, link wiring, and the metrics registration
    /// created — kind, name and residency states of every metric that
    /// existed when the last [`add_component`](Self::add_component)
    /// returned, in creation order (nothing created later). Restore refuses
    /// blobs whose fingerprint differs, since component `restore`
    /// implementations assume the saving and restoring platforms are built
    /// identically, and components keep the metric ids
    /// [`Component::register_metrics`] returned: restored from a registry
    /// built by other code, they would count the wrong rows.
    ///
    /// Computed once per structure: the value is memoized until the next
    /// [`add_component`](Self::add_component) or
    /// [`links_mut`](Self::links_mut).
    pub fn structural_fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| self.hash_structure())
    }

    fn hash_structure(&self) -> u64 {
        let mut h = crate::snapshot::Fnv64::new();
        h.write_u64(self.slots.len() as u64);
        for slot in &self.slots {
            h.write_str(slot.component.name());
        }
        h.write_u64(self.buckets.len() as u64);
        for bucket in &self.buckets {
            h.write_u64(bucket.clock.period().as_ps());
            h.write_u64(bucket.clock.phase().as_ps());
            h.write_u64(bucket.members.len() as u64);
            for &m in &bucket.members {
                h.write_u64(u64::from(m));
            }
        }
        h.write_u64(self.links.len() as u64);
        for (_, link) in self.links.iter() {
            h.write_str(link.name());
            h.write_u64(link.capacity() as u64);
            h.write_u64(link.latency().as_ps());
        }
        self.stats.hash_structure(self.registered, &mut h);
        h.finish()
    }

    /// Captures the complete dynamic state of the simulation — timeline,
    /// bucket schedule, link queues, stats, RNG, fault engine and every
    /// component — as a versioned, checksummed [`SnapshotBlob`](crate::snapshot::SnapshotBlob).
    ///
    /// Cloning the returned blob is a reference-count bump, so one warm
    /// checkpoint can be forked across many parallel sweep workers.
    /// The blob deliberately excludes executed-tick counts and every other
    /// schedule-derived value (wakes, wake keys, timers), so sparse and dense
    /// runs of the same workload checkpoint to byte-identical blobs.
    pub fn checkpoint(&self) -> crate::snapshot::SnapshotBlob {
        let mut w = crate::snapshot::StateWriter::new();
        w.section("meta");
        w.write_u64(self.structural_fingerprint());
        w.write_time(self.time);
        w.write_u64(self.edges);
        w.section("rng");
        w.write_u64(self.rng.state());
        w.section("faults");
        self.faults.save_state(&mut w);
        w.section("stats");
        self.stats.save_state(&mut w);
        w.section("links");
        self.links.save_state(&mut w);
        w.section("buckets");
        w.write_usize(self.buckets.len());
        for (bucket, next_edge) in self.buckets.iter().zip(&self.next_edges) {
            w.write_time(*next_edge);
            w.write_u64(bucket.edge_index);
        }
        w.section("components");
        w.write_usize(self.slots.len());
        for slot in &self.slots {
            w.write_u64(slot.edge_base);
            w.write_bool(slot.idle);
            slot.component.save(&mut w);
        }
        w.finish()
    }

    /// Restores state captured by [`checkpoint`](Self::checkpoint) onto
    /// this simulation.
    ///
    /// The target must be *structurally identical* to the simulation that
    /// produced the blob: same components registered in the same order on
    /// the same clocks, same links — i.e. a platform rebuilt from the same
    /// specification. Dynamic state (time, queues, stats, RNG position,
    /// component internals) is overwritten wholesale; derived scheduler
    /// state (the pending edge, the wake keys and their bucket bounds, the
    /// wake-on-space waiters, the stall hints and their credit, the busy
    /// and queued counters) is rebuilt the way registration builds it.
    ///
    /// Because the kernel is deterministic, a restored simulation replays
    /// the exact tick sequence the original would have produced.
    ///
    /// # Restore is a complete reset
    ///
    /// The target may have run before — on any blob, at any parameters.
    /// After `restore(blob)` it is indistinguishable from a fresh build
    /// restored from the same blob: the same checkpoint bytes at once, and
    /// the same run afterwards — report, checkpoint bytes,
    /// [`ticks_executed`](Self::ticks_executed),
    /// [`ticks_elided`](Self::ticks_elided),
    /// [`edges_processed`](Self::edges_processed) and per-component ticks
    /// and dispatches. Every [`Snapshot::restore`](crate::Snapshot::restore)
    /// therefore resets each field its `save` does not write (notes for
    /// stall hints) to what construction leaves there; metric ids are
    /// structure, kept from registration and covered by the fingerprint,
    /// so there is nothing of theirs to reset. The
    /// execution mode ([`set_exec`](Self::set_exec)) is not state and is
    /// kept. `tests/proptest_snapshot.rs` holds the contract.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Snapshot`] if the blob fails validation
    /// (magic/version/checksum/field tags) or was taken from a structurally
    /// different simulation. On error the simulation state is unspecified
    /// and the caller should rebuild it.
    pub fn restore(&mut self, blob: &crate::snapshot::SnapshotBlob) -> SimResult<()> {
        use crate::snapshot::{SnapshotError, StateReader};
        let mut r = StateReader::new(blob)?;
        r.expect_section("meta");
        let fingerprint = r.read_u64();
        let own = self.structural_fingerprint();
        if fingerprint != own {
            return Err(SnapshotError::StructureMismatch {
                detail: format!("blob fingerprint {fingerprint:#018x}, target {own:#018x}"),
            }
            .into());
        }
        self.time = r.read_time();
        self.edges = r.read_u64();
        r.expect_section("rng");
        self.rng = SplitMix64::new(r.read_u64());
        r.expect_section("faults");
        self.faults.restore_state(&mut r);
        r.expect_section("stats");
        self.stats.restore_state(&mut r);
        r.expect_section("links");
        self.links.restore_state(&mut r);
        r.expect_section("buckets");
        let bucket_count = r.read_usize();
        if bucket_count != self.buckets.len() {
            return Err(SnapshotError::StructureMismatch {
                detail: format!(
                    "blob has {bucket_count} buckets, target has {}",
                    self.buckets.len()
                ),
            }
            .into());
        }
        for (bucket, next_edge) in self.buckets.iter_mut().zip(&mut self.next_edges) {
            *next_edge = r.read_time();
            bucket.edge_index = r.read_u64();
            bucket.stalled = 0;
        }
        r.expect_section("components");
        let slot_count = r.read_usize();
        if slot_count != self.slots.len() {
            return Err(SnapshotError::StructureMismatch {
                detail: format!(
                    "blob has {slot_count} components, target has {}",
                    self.slots.len()
                ),
            }
            .into());
        }
        for slot in self.slots.iter_mut() {
            slot.edge_base = r.read_u64();
            slot.idle = r.read_bool();
            slot.component.restore(&mut r);
        }
        r.finish()?;
        // Rebuild derived scheduler state: the pending edge, the busy count
        // and every slot's wake conditions, starting from what registration
        // leaves — every key and bucket bound due, no waiter, no standing
        // hint or credit — so a used simulation restores like a fresh one
        // (hints are re-read like deadlines; the blob holds no pending
        // credit, so they speak from the next edge on). Executed-tick
        // counters are not part of the blob (they differ between sparse and
        // dense runs); they restart from zero.
        self.select();
        self.busy = self.slots.iter().filter(|s| !s.idle).count();
        self.total_ticks = 0;
        self.total_elided = 0;
        self.links.reset_wake_keys();
        self.crediting.clear();
        for i in 0..self.slots.len() {
            let slot = &mut self.slots[i];
            slot.ticks = 0;
            slot.dispatches = 0;
            if let Some(sparse) = &mut slot.sparse {
                sparse.stalled_since = None;
                sparse.stall = StallHint::default();
            }
            self.refresh_wake(i, true, 0);
        }
        Ok(())
    }

    /// Turns every tick the sparse schedule would not dispatch — skipped
    /// because the component sleeps, or elided because its
    /// [`stall_hint`](Component::stall_hint) says so — into an *audited*
    /// tick: the tick is executed anyway and the component's serialized
    /// state, the RNG, the stats registry, the fault engine and the link
    /// queues are byte-compared around it. A difference means the component
    /// violated the idle contract (such a tick must be an unobservable
    /// no-op) and panics with the offending component's name — this is the
    /// kernel-level machinery behind the idle-contract proptest.
    pub fn enable_skip_audit(&mut self) {
        self.rouse_all();
        self.audit = Some(Self::audit_skipped_tick);
    }

    fn audit_skipped_tick(&mut self, index: usize, edge: Time) {
        fn bytes<F: FnOnce(&mut crate::snapshot::StateWriter)>(f: F) -> Vec<u8> {
            let mut w = crate::snapshot::StateWriter::new();
            f(&mut w);
            w.finish().as_bytes().to_vec()
        }
        // The one effect such a tick may have: exactly one on the counter
        // its hint declared, from the declared instant on.
        let counted = self.slots[index]
            .sparse
            .as_ref()
            .and_then(|s| s.stall.counted())
            .filter(|&(_, from)| edge >= from)
            .map(|(counter, _)| (counter, self.stats.counter_value(counter)));
        let before_comp = bytes(|w| self.slots[index].component.save(w));
        let before_rng = self.rng.state();
        let before_stats = bytes(|w| self.stats.save_state(w));
        let before_faults = bytes(|w| self.faults.save_state(w));
        let before_links = bytes(|w| self.links.save_state(w));
        self.tick_slot(index, edge);
        let name = self.slots[index].component.name().to_owned();
        let after_comp = bytes(|w| self.slots[index].component.save(w));
        assert_eq!(
            before_comp, after_comp,
            "idle contract violated: `{name}` mutated its own state during a tick sparse scheduling would not have dispatched (edge {edge})"
        );
        assert_eq!(
            before_rng,
            self.rng.state(),
            "idle contract violated: `{name}` drew from the RNG during a tick sparse scheduling would not have dispatched (edge {edge})"
        );
        if let Some((counter, before)) = counted {
            assert_eq!(
                self.stats.counter_value(counter),
                before + 1,
                "idle contract violated: `{name}` must add exactly one to the counter its stall hint declared during a tick sparse scheduling would not have dispatched (edge {edge})"
            );
            // Set the declared one aside to compare the rest.
            self.stats.retract(counter, 1);
        }
        assert_eq!(
            before_stats,
            bytes(|w| self.stats.save_state(w)),
            "idle contract violated: `{name}` wrote stats during a tick sparse scheduling would not have dispatched (edge {edge})"
        );
        if let Some((counter, _)) = counted {
            self.stats.inc(counter, 1);
        }
        assert_eq!(
            before_faults,
            bytes(|w| self.faults.save_state(w)),
            "idle contract violated: `{name}` advanced the fault engine during a tick sparse scheduling would not have dispatched (edge {edge})"
        );
        assert_eq!(
            before_links,
            bytes(|w| self.links.save_state(w)),
            "idle contract violated: `{name}` touched link queues during a tick sparse scheduling would not have dispatched (edge {edge})"
        );
    }
}

/// One bucket's edges in a quiet stretch, in ps: the scratch entry of
/// [`Simulation::retire_quiet_stretch`].
struct StretchEdges {
    bucket: usize,
    /// The bucket's next edge; left at its first edge past the stretch.
    next: u64,
    period: u64,
    /// Edges the bucket fires in the stretch.
    edges: u64,
}

/// The number of distinct instants before `end` among the edges of
/// `buckets` — each with its next edge before `end` — and the last of them.
/// Walks the instants in order, advancing and counting every bucket edge
/// that fires on one.
fn distinct_instants(buckets: &mut [StretchEdges], end: u64) -> (u64, u64) {
    if let [only] = buckets {
        only.edges = (end - 1 - only.next) / only.period + 1;
        only.next += only.edges * only.period;
        return (only.edges, only.next - only.period);
    }
    let (mut count, mut last) = (0, 0);
    let mut at = buckets.iter().map(|s| s.next).min().unwrap_or(end);
    while at < end {
        count += 1;
        last = at;
        let mut following = u64::MAX;
        for s in buckets.iter_mut() {
            if s.next == at {
                s.next += s.period;
                s.edges += 1;
            }
            following = following.min(s.next);
        }
        at = following;
    }
    (count, last)
}

impl<T> Default for Simulation<T> {
    fn default() -> Self {
        Simulation::new()
    }
}

impl<T> std::fmt::Debug for Simulation<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("time", &self.time)
            .field("components", &self.slots.len())
            .field("domains", &self.buckets.len())
            .field("links", &self.links.len())
            .finish()
    }
}

#[cfg(test)]
mod wake_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkId;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Emits `budget` numbered payloads, one per tick.
    struct Producer {
        out: LinkId,
        budget: u64,
        sent: u64,
    }
    impl crate::snapshot::Snapshot for Producer {
        fn save(&self, w: &mut crate::snapshot::StateWriter) {
            w.write_u64(self.sent);
        }
        fn restore(&mut self, r: &mut crate::snapshot::StateReader<'_>) {
            self.sent = r.read_u64();
        }
    }
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

    /// Consumes payloads, checking order.
    struct Consumer {
        input: LinkId,
        received: Vec<u64>,
    }
    impl crate::snapshot::Snapshot for Consumer {
        fn save(&self, w: &mut crate::snapshot::StateWriter) {
            w.write_usize(self.received.len());
            for v in &self.received {
                w.write_u64(*v);
            }
        }
        fn restore(&mut self, r: &mut crate::snapshot::StateReader<'_>) {
            self.received = (0..r.read_usize()).map(|_| r.read_u64()).collect();
        }
    }
    impl Component<u64> for Consumer {
        fn name(&self) -> &str {
            "consumer"
        }
        fn tick(&mut self, ctx: &mut TickContext<'_, u64>) {
            if let Some(v) = ctx.links.pop(self.input, ctx.time) {
                self.received.push(v);
            }
        }
    }

    #[test]
    fn producer_consumer_drains_to_quiescence() {
        let mut sim: Simulation<u64> = Simulation::new();
        let clk = ClockDomain::from_mhz(100);
        let link = sim.links_mut().add_link("pc", 2, clk.period());
        sim.add_component(
            Box::new(Producer {
                out: link,
                budget: 10,
                sent: 0,
            }),
            clk,
        );
        sim.add_component(
            Box::new(Consumer {
                input: link,
                received: Vec::new(),
            }),
            clk,
        );
        let t = sim
            .run_to_quiescence_strict(Time::from_us(100))
            .expect("must drain");
        assert!(t > Time::ZERO);
        assert_eq!(sim.links().link(link).stats().pops, 10);
    }

    #[test]
    fn stall_reports_busy_components() {
        let mut sim: Simulation<u64> = Simulation::new();
        let clk = ClockDomain::from_mhz(100);
        // A producer whose link has no consumer: capacity 1 fills and the
        // producer stays busy forever.
        let link = sim.links_mut().add_link("dead", 1, clk.period());
        sim.add_component(
            Box::new(Producer {
                out: link,
                budget: 5,
                sent: 0,
            }),
            clk,
        );
        let err = sim
            .run_to_quiescence_strict(Time::from_ns(200))
            .unwrap_err();
        match err {
            SimError::Stalled { busy, .. } => assert_eq!(busy, vec!["producer".to_owned()]),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn multi_clock_interleaving_is_deterministic() {
        struct Tracer {
            label: char,
            log: std::sync::Arc<std::sync::Mutex<Vec<(u64, char)>>>,
        }
        impl crate::snapshot::Snapshot for Tracer {}
        impl Component<u64> for Tracer {
            fn name(&self) -> &str {
                "tracer"
            }
            fn tick(&mut self, ctx: &mut TickContext<'_, u64>) {
                self.log
                    .lock()
                    .unwrap()
                    .push((ctx.time.as_ps(), self.label));
            }
        }
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut sim: Simulation<u64> = Simulation::new();
        sim.add_component(
            Box::new(Tracer {
                label: 'a',
                log: log.clone(),
            }),
            ClockDomain::from_mhz(100), // 10 ns
        );
        sim.add_component(
            Box::new(Tracer {
                label: 'b',
                log: log.clone(),
            }),
            ClockDomain::from_mhz(200), // 5 ns
        );
        sim.run_until(Time::from_ns(10));
        // Edges: t=0 (a then b, registration order), t=5ns (b), t=10ns (a, b).
        assert_eq!(
            *log.lock().unwrap(),
            vec![
                (0, 'a'),
                (0, 'b'),
                (5_000, 'b'),
                (10_000, 'a'),
                (10_000, 'b'),
            ]
        );
    }

    #[test]
    fn component_metadata_accessors() {
        let mut sim: Simulation<u64> = Simulation::new();
        let clk = ClockDomain::from_mhz(100);
        let link = sim.links_mut().add_link("x", 1, clk.period());
        let id = sim.add_component(
            Box::new(Consumer {
                input: link,
                received: Vec::new(),
            }),
            clk,
        );
        assert_eq!(sim.component_count(), 1);
        assert_eq!(sim.domain_count(), 1);
        assert_eq!(sim.component_name(id), "consumer");
        sim.run_until(Time::from_ns(25));
        assert_eq!(sim.component_ticks(id), 3); // edges at 0, 10, 20 ns
        assert_eq!(sim.edges_processed(), 3);
        assert_eq!(sim.ticks_executed(), 3);
    }

    #[test]
    fn empty_simulation_has_no_edges() {
        let mut sim: Simulation<u64> = Simulation::new();
        assert_eq!(sim.next_edge(), None);
        assert_eq!(sim.step(), None);
        assert!(matches!(
            sim.run_to_quiescence(Time::from_ns(10)),
            RunOutcome::HorizonReached { .. }
        ));
    }

    #[test]
    fn same_domain_components_share_a_bucket() {
        let mut sim: Simulation<u64> = Simulation::new();
        let clk = ClockDomain::from_mhz(250);
        let link = sim.links_mut().add_link("x", 1, clk.period());
        for _ in 0..5 {
            sim.add_component(
                Box::new(Consumer {
                    input: link,
                    received: Vec::new(),
                }),
                clk,
            );
        }
        sim.add_component(
            Box::new(Consumer {
                input: link,
                received: Vec::new(),
            }),
            ClockDomain::from_mhz(133),
        );
        assert_eq!(sim.component_count(), 6);
        assert_eq!(sim.domain_count(), 2);
    }

    #[test]
    fn phase_shifted_clone_gets_its_own_bucket() {
        let mut sim: Simulation<u64> = Simulation::new();
        let clk = ClockDomain::from_mhz(100);
        let link = sim.links_mut().add_link("x", 1, clk.period());
        let mk = || {
            Box::new(Consumer {
                input: link,
                received: Vec::new(),
            })
        };
        sim.add_component(mk(), clk);
        sim.add_component(mk(), clk.with_phase(Time::from_ns(3)));
        assert_eq!(sim.domain_count(), 2);
        // Edges: 0 (a), 3 (b), 10 (a), 13 (b), 20 (a).
        let mut edges = Vec::new();
        while let Some(t) = sim.next_edge() {
            if t > Time::from_ns(20) {
                break;
            }
            sim.step();
            edges.push(t.as_ps());
        }
        assert_eq!(edges, vec![0, 3_000, 10_000, 13_000, 20_000]);
    }

    fn producer_consumer_sim(seed: u64) -> (Simulation<u64>, LinkId) {
        let mut sim: Simulation<u64> = Simulation::with_seed(seed);
        let clk_a = ClockDomain::from_mhz(100);
        let clk_b = ClockDomain::from_mhz(133);
        let link = sim.links_mut().add_link("pc", 2, clk_a.period());
        sim.add_component(
            Box::new(Producer {
                out: link,
                budget: 40,
                sent: 0,
            }),
            clk_a,
        );
        sim.add_component(
            Box::new(Consumer {
                input: link,
                received: Vec::new(),
            }),
            clk_b,
        );
        (sim, link)
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        // Reference: run straight through.
        let (mut straight, link) = producer_consumer_sim(7);
        straight.arm_faults(FaultSchedule::uniform(0, 3));
        let t_end = straight
            .run_to_quiescence_strict(Time::from_us(100))
            .expect("drains");
        let final_blob = straight.checkpoint();

        // Candidate: run halfway, checkpoint, restore onto a fresh build,
        // finish there.
        let (mut first_half, _) = producer_consumer_sim(7);
        first_half.arm_faults(FaultSchedule::uniform(0, 3));
        first_half.run_until(Time::from_ns(150));
        let mid = first_half.checkpoint();

        let (mut resumed, _) = producer_consumer_sim(7);
        resumed.restore(&mid).expect("restore onto twin");
        assert_eq!(resumed.time(), first_half.time());
        let t_resumed = resumed
            .run_to_quiescence_strict(Time::from_us(100))
            .expect("drains");

        assert_eq!(t_resumed, t_end);
        assert_eq!(resumed.edges_processed(), straight.edges_processed());
        assert_eq!(
            resumed.links().link(link).stats(),
            straight.links().link(link).stats()
        );
        assert_eq!(
            resumed.checkpoint().as_bytes(),
            final_blob.as_bytes(),
            "final state must be byte-identical"
        );
    }

    #[test]
    fn restore_rejects_structural_mismatch() {
        let (sim, _) = producer_consumer_sim(1);
        let blob = sim.checkpoint();
        let mut other: Simulation<u64> = Simulation::new();
        let clk = ClockDomain::from_mhz(100);
        let link = other.links_mut().add_link("pc", 2, clk.period());
        other.add_component(
            Box::new(Consumer {
                input: link,
                received: Vec::new(),
            }),
            clk,
        );
        let err = other.restore(&blob).expect_err("must reject");
        assert!(matches!(err, SimError::Snapshot { .. }), "{err}");
    }

    /// Registers the metrics it is given, then does nothing.
    struct Registrant {
        counters: &'static [&'static str],
        states: &'static [&'static str],
    }
    impl crate::snapshot::Snapshot for Registrant {}
    impl Component<u64> for Registrant {
        fn name(&self) -> &str {
            "registrant"
        }
        fn tick(&mut self, _ctx: &mut TickContext<'_, u64>) {}
        fn register_metrics(&mut self, stats: &mut StatsRegistry) {
            for name in self.counters {
                stats.counter(name);
            }
            stats.residency("registrant.state", self.states);
        }
    }

    #[test]
    fn the_fingerprint_covers_the_registered_metrics() {
        let build = |counters, states| {
            let mut sim: Simulation<u64> = Simulation::new();
            let clk = ClockDomain::from_mhz(100);
            sim.links_mut().add_link("wire", 1, clk.period());
            sim.add_component(Box::new(Registrant { counters, states }), clk);
            sim
        };
        let base = build(&["r.granted", "r.busy_ps"], &["idle", "busy"]);
        // Same names, clocks and links; only what registration created
        // differs: the counters' order, a residency's state list.
        for mut other in [
            build(&["r.busy_ps", "r.granted"], &["idle", "busy"]),
            build(&["r.granted", "r.busy_ps"], &["idle", "full"]),
            build(&["r.granted"], &["idle", "busy"]),
        ] {
            assert_ne!(
                base.structural_fingerprint(),
                other.structural_fingerprint()
            );
            let err = other.restore(&base.checkpoint()).expect_err("must reject");
            assert!(
                matches!(
                    err,
                    SimError::Snapshot {
                        source: crate::snapshot::SnapshotError::StructureMismatch { .. }
                    }
                ),
                "{err}"
            );
        }
        // A metric created after the last registration is not structure.
        let mut late = build(&["r.granted", "r.busy_ps"], &["idle", "busy"]);
        late.stats_mut().counter("late");
        assert_eq!(base.structural_fingerprint(), late.structural_fingerprint());
        late.restore(&base.checkpoint()).expect("same structure");
    }

    #[test]
    fn restore_rejects_corrupt_blob() {
        let (sim, _) = producer_consumer_sim(1);
        let blob = sim.checkpoint();
        let mut bytes = blob.as_bytes().to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        let bad = crate::snapshot::SnapshotBlob::from_bytes(bytes);
        let (mut target, _) = producer_consumer_sim(1);
        assert!(target.restore(&bad).is_err());
    }

    /// Sparse-ticking opt-in producer: emits `budget` payloads spaced `gap`
    /// apart, declaring each issue instant via `next_activity`.
    struct SparseProducer {
        out: LinkId,
        budget: u64,
        sent: u64,
        gap: Time,
        next_at: Time,
    }
    impl crate::snapshot::Snapshot for SparseProducer {
        fn save(&self, w: &mut crate::snapshot::StateWriter) {
            w.write_u64(self.sent);
            w.write_time(self.next_at);
        }
        fn restore(&mut self, r: &mut crate::snapshot::StateReader<'_>) {
            self.sent = r.read_u64();
            self.next_at = r.read_time();
        }
    }
    impl Component<u64> for SparseProducer {
        fn name(&self) -> &str {
            "sproducer"
        }
        fn tick(&mut self, ctx: &mut TickContext<'_, u64>) {
            if self.sent < self.budget && ctx.time >= self.next_at && ctx.links.can_push(self.out) {
                ctx.links.push(self.out, ctx.time, self.sent).unwrap();
                self.sent += 1;
                self.next_at = ctx.time + self.gap;
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

    /// Sparse-ticking opt-in consumer: purely reactive, wakes on delivery.
    struct SparseConsumer {
        input: LinkId,
        received: Vec<(u64, u64)>,
    }
    impl crate::snapshot::Snapshot for SparseConsumer {
        fn save(&self, w: &mut crate::snapshot::StateWriter) {
            w.write_usize(self.received.len());
            for (t, v) in &self.received {
                w.write_u64(*t);
                w.write_u64(*v);
            }
        }
        fn restore(&mut self, r: &mut crate::snapshot::StateReader<'_>) {
            self.received = (0..r.read_usize())
                .map(|_| (r.read_u64(), r.read_u64()))
                .collect();
        }
    }
    impl Component<u64> for SparseConsumer {
        fn name(&self) -> &str {
            "sconsumer"
        }
        fn tick(&mut self, ctx: &mut TickContext<'_, u64>) {
            while let Some(v) = ctx.links.pop(self.input, ctx.time) {
                self.received.push((ctx.time.as_ps(), v));
            }
        }
        fn watched_links(&self) -> Option<Vec<LinkId>> {
            Some(vec![self.input])
        }
        fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
            Some(self)
        }
    }

    fn sparse_pair_sim(dense: bool) -> (Simulation<u64>, LinkId) {
        let mut sim: Simulation<u64> = Simulation::with_seed(3);
        sim.set_dense(dense);
        let clk = ClockDomain::from_mhz(100);
        let link = sim.links_mut().add_link("sp", 16, clk.period());
        sim.add_component(
            Box::new(SparseProducer {
                out: link,
                budget: 8,
                sent: 0,
                gap: Time::from_ns(30),
                next_at: Time::ZERO,
            }),
            clk,
        );
        sim.add_component(
            Box::new(SparseConsumer {
                input: link,
                received: Vec::new(),
            }),
            clk,
        );
        (sim, link)
    }

    fn received_log(sim: &mut Simulation<u64>) -> Vec<(u64, u64)> {
        sim.component_any_mut("sconsumer")
            .unwrap()
            .downcast_mut::<SparseConsumer>()
            .unwrap()
            .received
            .clone()
    }

    #[test]
    fn sleeping_component_skips_idle_edges() {
        let mut sim: Simulation<u64> = Simulation::new();
        let clk = ClockDomain::from_mhz(100);
        let link = sim.links_mut().add_link("quiet", 4, clk.period());
        let id = sim.add_component(
            Box::new(SparseConsumer {
                input: link,
                received: Vec::new(),
            }),
            clk,
        );
        sim.run_until(Time::from_us(1));
        assert_eq!(sim.edges_processed(), 101);
        // Only the forced registration tick executed; every later edge was
        // skipped because nothing was pending and no deadline was declared.
        assert_eq!(sim.component_ticks(id), 1);
    }

    #[test]
    fn sparse_matches_dense_bit_for_bit() {
        let (mut sparse, link_s) = sparse_pair_sim(false);
        let (mut dense, link_d) = sparse_pair_sim(true);
        let horizon = Time::from_us(10);
        let ts = sparse.run_to_quiescence_strict(horizon).unwrap();
        let td = dense.run_to_quiescence_strict(horizon).unwrap();
        assert_eq!(ts, td);
        assert_eq!(sparse.edges_processed(), dense.edges_processed());
        assert!(
            sparse.ticks_executed() < dense.ticks_executed(),
            "sparse must actually skip ticks ({} vs {})",
            sparse.ticks_executed(),
            dense.ticks_executed()
        );
        assert_eq!(
            sparse.links().link(link_s).stats(),
            dense.links().link(link_d).stats()
        );
        assert_eq!(received_log(&mut sparse), received_log(&mut dense));
        assert_eq!(
            sparse.checkpoint().as_bytes(),
            dense.checkpoint().as_bytes(),
            "sparse and dense checkpoints must be byte-identical"
        );
    }

    #[test]
    fn wake_on_delivery_ticks_the_sleeper_exactly_on_time() {
        let (mut sim, _) = sparse_pair_sim(false);
        sim.run_to_quiescence_strict(Time::from_us(10)).unwrap();
        // Issues every 30 ns from t=0, one link latency (10 ns) to deliver.
        let expect: Vec<(u64, u64)> = (0..8).map(|i| ((10 + 30 * i) * 1_000, i)).collect();
        assert_eq!(received_log(&mut sim), expect);
        // Producer ticks once per issue; consumer ticks once at registration
        // plus once per delivery.
        assert_eq!(sim.component_ticks(ComponentId(0)), 8);
        assert_eq!(sim.component_ticks(ComponentId(1)), 9);
    }

    #[test]
    fn sparse_checkpoint_restores_wake_state() {
        let (mut straight, _) = sparse_pair_sim(false);
        let t_end = straight
            .run_to_quiescence_strict(Time::from_us(10))
            .unwrap();
        let final_blob = straight.checkpoint();

        // Checkpoint with a payload still in flight (issued at 90 ns,
        // deliverable at 100 ns) so restore must re-derive the wake.
        let (mut half, _) = sparse_pair_sim(false);
        half.run_until(Time::from_ns(95));
        let mid = half.checkpoint();
        let (mut resumed, _) = sparse_pair_sim(false);
        resumed.restore(&mid).expect("restore onto twin");
        let t_res = resumed.run_to_quiescence_strict(Time::from_us(10)).unwrap();
        assert_eq!(t_res, t_end);
        assert_eq!(resumed.checkpoint().as_bytes(), final_blob.as_bytes());
    }

    #[test]
    fn skip_audit_executes_and_passes_on_contract_keepers() {
        let (mut sim, link) = sparse_pair_sim(false);
        sim.enable_skip_audit();
        let (mut dense, _) = sparse_pair_sim(true);
        let t = sim.run_to_quiescence_strict(Time::from_us(10)).unwrap();
        let td = dense.run_to_quiescence_strict(Time::from_us(10)).unwrap();
        assert_eq!(t, td);
        // Audit mode executes every tick (it is the dense schedule plus
        // no-op verification).
        assert_eq!(sim.ticks_executed(), dense.ticks_executed());
        assert_eq!(sim.links().link(link).stats().pops, 8);
    }

    /// The fast-forward hook of the test components: every edge of the
    /// window is polled, unless [`FastCtx::stall`] retires it. No uncharged
    /// sleep, so a window charges each of them every one of its edges.
    pub(super) fn poll_or_stall<C: Component<u64>>(component: &mut C, ctx: &mut FastCtx<'_, u64>) {
        while let Some(mut tc) = ctx.next_edge() {
            component.tick(&mut tc);
            ctx.stall(&*component);
        }
    }

    /// A producer that always has something to send: its deadline is
    /// permanently due, so without a stall hint it polls a full wire on
    /// every edge.
    struct EagerProducer {
        out: LinkId,
        budget: u64,
        sent: u64,
        hints: bool,
        /// Tick bodies actually run (observation channel, not state).
        dispatched: Arc<AtomicU64>,
    }
    impl crate::snapshot::Snapshot for EagerProducer {
        fn save(&self, w: &mut crate::snapshot::StateWriter) {
            w.write_u64(self.sent);
        }
        fn restore(&mut self, r: &mut crate::snapshot::StateReader<'_>) {
            self.sent = r.read_u64();
        }
    }
    impl Component<u64> for EagerProducer {
        fn name(&self) -> &str {
            "eager"
        }
        fn tick(&mut self, ctx: &mut TickContext<'_, u64>) {
            self.dispatched.fetch_add(1, Ordering::Relaxed);
            if self.sent < self.budget && ctx.links.can_push(self.out) {
                ctx.links.push(self.out, ctx.time, self.sent).unwrap();
                self.sent += 1;
            }
        }
        fn is_idle(&self) -> bool {
            self.sent == self.budget
        }
        fn watched_links(&self) -> Option<Vec<LinkId>> {
            Some(Vec::new())
        }
        fn next_activity(&self) -> Option<Time> {
            (self.sent < self.budget).then_some(Time::ZERO)
        }
        fn stall_hint(&self, hint: &mut StallHint) {
            if self.hints {
                hint.gate_deadline(crate::Gate::space(self.out));
            }
        }
        fn fast_forward(&mut self, ctx: &mut crate::FastCtx<'_, u64>) {
            poll_or_stall(self, ctx);
        }
    }

    /// A single-slot consumer: takes one payload, then does not look at its
    /// input for `service`. A head queued meanwhile keeps its wake due.
    struct SingleSlot {
        input: LinkId,
        service: Time,
        busy_until: Time,
        served: Vec<(u64, u64)>,
        hints: bool,
        dispatched: Arc<AtomicU64>,
    }
    impl crate::snapshot::Snapshot for SingleSlot {
        fn save(&self, w: &mut crate::snapshot::StateWriter) {
            w.write_time(self.busy_until);
            w.write_usize(self.served.len());
            for (t, v) in &self.served {
                w.write_u64(*t);
                w.write_u64(*v);
            }
        }
        fn restore(&mut self, r: &mut crate::snapshot::StateReader<'_>) {
            self.busy_until = r.read_time();
            self.served = (0..r.read_usize())
                .map(|_| (r.read_u64(), r.read_u64()))
                .collect();
        }
    }
    impl Component<u64> for SingleSlot {
        fn name(&self) -> &str {
            "slot"
        }
        fn tick(&mut self, ctx: &mut TickContext<'_, u64>) {
            self.dispatched.fetch_add(1, Ordering::Relaxed);
            if ctx.time >= self.busy_until {
                if let Some(v) = ctx.links.pop(self.input, ctx.time) {
                    self.served.push((ctx.time.as_ps(), v));
                    self.busy_until = ctx.time + self.service;
                }
            }
        }
        fn watched_links(&self) -> Option<Vec<LinkId>> {
            Some(vec![self.input])
        }
        fn stall_hint(&self, hint: &mut StallHint) {
            if self.hints {
                hint.gate_input(0, crate::Gate::until(self.busy_until));
            }
        }
        fn fast_forward(&mut self, ctx: &mut crate::FastCtx<'_, u64>) {
            poll_or_stall(self, ctx);
        }
    }

    /// One eager producer behind a capacity-1 wire into a single-slot
    /// consumer that serves one payload per 70 ns; the producer registers
    /// before its consumer unless `consumer_first`.
    pub(super) fn add_stalled_pair(
        sim: &mut Simulation<u64>,
        wire: &str,
        hints: bool,
        consumer_first: bool,
        clocks: (ClockDomain, ClockDomain),
        dispatched: &Arc<AtomicU64>,
    ) {
        let (producer_clk, consumer_clk) = clocks;
        let wire = sim.links_mut().add_link(wire, 1, producer_clk.period());
        let producer = Box::new(EagerProducer {
            out: wire,
            budget: 12,
            sent: 0,
            hints,
            dispatched: Arc::clone(dispatched),
        });
        let consumer = Box::new(SingleSlot {
            input: wire,
            service: Time::from_ns(70),
            busy_until: Time::ZERO,
            served: Vec::new(),
            hints,
            dispatched: Arc::clone(dispatched),
        });
        if consumer_first {
            sim.add_component(consumer, consumer_clk);
            sim.add_component(producer, producer_clk);
        } else {
            sim.add_component(producer, producer_clk);
            sim.add_component(consumer, consumer_clk);
        }
    }

    /// `pairs` stalled pairs, producers and consumers on the given clocks.
    pub(super) fn stalled_pairs_on(
        pairs: usize,
        hints: bool,
        consumer_first: bool,
        producer_clk: ClockDomain,
        consumer_clk: ClockDomain,
    ) -> (Simulation<u64>, Arc<AtomicU64>) {
        let mut sim: Simulation<u64> = Simulation::with_seed(5);
        let dispatched = Arc::new(AtomicU64::new(0));
        for p in 0..pairs {
            add_stalled_pair(
                &mut sim,
                &format!("wire{p}"),
                hints,
                consumer_first,
                (producer_clk, consumer_clk),
                &dispatched,
            );
        }
        (sim, dispatched)
    }

    /// `pairs` stalled pairs on one 100 MHz clock.
    pub(super) fn stalled_pairs(
        pairs: usize,
        hints: bool,
        consumer_first: bool,
    ) -> (Simulation<u64>, Arc<AtomicU64>) {
        let clk = ClockDomain::from_mhz(100);
        stalled_pairs_on(pairs, hints, consumer_first, clk, clk)
    }

    pub(super) fn component_tick_counts(sim: &Simulation<u64>) -> Vec<u64> {
        sim.component_ids()
            .map(|id| sim.component_ticks(id))
            .collect()
    }

    #[test]
    fn elided_ticks_are_charged_but_not_dispatched() {
        for consumer_first in [false, true] {
            let (mut polling, polled) = stalled_pairs(1, false, consumer_first);
            let (mut hinted, dispatched) = stalled_pairs(1, true, consumer_first);
            let (mut dense, _) = stalled_pairs(1, true, consumer_first);
            dense.set_dense(true);
            let horizon = Time::from_us(20);
            let end = polling.run_to_quiescence_strict(horizon).unwrap();
            assert_eq!(hinted.run_to_quiescence_strict(horizon).unwrap(), end);
            assert_eq!(dense.run_to_quiescence_strict(horizon).unwrap(), end);
            // Same observable run: the hints only retire no-op ticks, and the
            // same-edge order (a producer after its consumer sees the freed
            // slot at once, one before it on the next edge) is the dense one.
            assert_eq!(
                hinted.checkpoint().as_bytes(),
                polling.checkpoint().as_bytes()
            );
            assert_eq!(
                hinted.checkpoint().as_bytes(),
                dense.checkpoint().as_bytes()
            );
            // Same accounting: an elided tick is still a charged tick.
            assert_eq!(hinted.ticks_executed(), polling.ticks_executed());
            assert_eq!(
                component_tick_counts(&hinted),
                component_tick_counts(&polling)
            );
            assert_eq!(polling.ticks_elided(), 0);
            assert_eq!(dense.ticks_elided(), 0);
            assert_eq!(polled.load(Ordering::Relaxed), polling.ticks_executed());
            // ... and most of them were not worth a dispatch: 12 payloads
            // at one per 70 ns against a producer polling every 10 ns.
            assert_eq!(
                dispatched.load(Ordering::Relaxed),
                hinted.ticks_executed() - hinted.ticks_elided()
            );
            assert!(
                hinted.ticks_elided() * 2 > hinted.ticks_executed(),
                "{} of {} ticks elided",
                hinted.ticks_elided(),
                hinted.ticks_executed()
            );
        }
    }

    #[test]
    fn skip_audit_dispatches_and_checks_elided_ticks() {
        let (mut audited, dispatched) = stalled_pairs(2, true, false);
        audited.enable_skip_audit();
        let (mut plain, _) = stalled_pairs(2, true, false);
        let horizon = Time::from_us(20);
        let end = audited.run_to_quiescence_strict(horizon).unwrap();
        assert_eq!(plain.run_to_quiescence_strict(horizon).unwrap(), end);
        assert_eq!(
            audited.checkpoint().as_bytes(),
            plain.checkpoint().as_bytes()
        );
        // Every charged tick ran its body (and passed the byte-comparison).
        assert_eq!(audited.ticks_elided(), 0);
        assert_eq!(dispatched.load(Ordering::Relaxed), audited.ticks_executed());
        assert!(plain.ticks_elided() > 0);
    }

    #[test]
    #[should_panic(expected = "idle contract violated")]
    fn skip_audit_catches_a_gate_shut_on_real_work() {
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
        }
        let mut sim: Simulation<u64> = Simulation::new();
        sim.add_component(Box::new(Liar { n: 0 }), ClockDomain::from_mhz(100));
        sim.enable_skip_audit();
        sim.run_until(Time::from_ns(50));
    }

    #[test]
    fn restore_while_stalled_rederives_the_hints() {
        let horizon = Time::from_us(20);
        let (mut straight, _) = stalled_pairs(2, true, false);
        // 205 ns: both producers sit on a full wire, both consumers are
        // mid-service with a head queued.
        straight.run_until(Time::from_ns(205));
        let mid = straight.checkpoint();
        let elided_before = straight.ticks_elided();
        assert!(elided_before > 0);
        let end = straight.run_to_quiescence_strict(horizon).unwrap();

        let (mut resumed, dispatched) = stalled_pairs(2, true, false);
        resumed.restore(&mid).expect("restore onto twin");
        assert_eq!(resumed.checkpoint().as_bytes(), mid.as_bytes());
        assert_eq!(resumed.run_to_quiescence_strict(horizon).unwrap(), end);
        assert_eq!(
            resumed.checkpoint().as_bytes(),
            straight.checkpoint().as_bytes()
        );
        // Counters restart at the restore; the resumed leg is charged and
        // elides exactly what the straight run did after that instant.
        assert_eq!(
            resumed.ticks_elided(),
            straight.ticks_elided() - elided_before
        );
        assert_eq!(
            dispatched.load(Ordering::Relaxed),
            resumed.ticks_executed() - resumed.ticks_elided()
        );
    }

    #[test]
    fn merge_cache_invalidated_by_mid_run_registration() {
        struct Tracer {
            label: char,
            log: std::sync::Arc<std::sync::Mutex<Vec<(u64, char)>>>,
        }
        impl crate::snapshot::Snapshot for Tracer {}
        impl Component<u64> for Tracer {
            fn name(&self) -> &str {
                "tracer"
            }
            fn tick(&mut self, ctx: &mut TickContext<'_, u64>) {
                self.log
                    .lock()
                    .unwrap()
                    .push((ctx.time.as_ps(), self.label));
            }
        }
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mk = |label| {
            Box::new(Tracer {
                label,
                log: log.clone(),
            })
        };
        let mut sim: Simulation<u64> = Simulation::new();
        sim.add_component(mk('a'), ClockDomain::from_mhz(100)); // 10 ns
        sim.add_component(mk('b'), ClockDomain::from_mhz(50)); // 20 ns
                                                               // The shared edge at t=0 populates the merged-order cache for the
                                                               // fired set {a's bucket, b's bucket}.
        sim.run_until(Time::from_ns(15));
        // The newcomer joins b's bucket (next 50 MHz edge, 20 ns); the
        // cached merged order must be invalidated or 'c' would never tick
        // on shared edges.
        sim.add_component(mk('c'), ClockDomain::from_mhz(50));
        sim.run_until(Time::from_ns(20));
        assert_eq!(
            *log.lock().unwrap(),
            vec![
                (0, 'a'),
                (0, 'b'),
                (10_000, 'a'),
                (20_000, 'a'),
                (20_000, 'b'),
                (20_000, 'c'),
            ]
        );
    }

    #[test]
    fn component_added_mid_run_joins_the_timeline() {
        let mut sim: Simulation<u64> = Simulation::new();
        let clk = ClockDomain::from_mhz(100); // 10 ns
        let link = sim.links_mut().add_link("x", 4, clk.period());
        sim.add_component(
            Box::new(Consumer {
                input: link,
                received: Vec::new(),
            }),
            clk,
        );
        sim.run_until(Time::from_ns(15)); // edges at 0, 10 processed
        let id = sim.add_component(
            Box::new(Consumer {
                input: link,
                received: Vec::new(),
            }),
            clk,
        );
        // Seed semantics, preserved: the add happened with `time()` sitting
        // exactly on the domain's just-fired 10 ns edge, so the newcomer's
        // first tick is a re-visit of that instant (then 20, 30, 40 ns).
        sim.run_until(Time::from_ns(40));
        assert_eq!(sim.component_ticks(id), 4);
    }

    /// Fast-forward hook echo: pops one payload per cycle and answers on
    /// its output; sleeps windows via its think deadline when drained.
    struct FfEcho {
        input: LinkId,
        out: LinkId,
        echoed: u64,
    }
    impl crate::snapshot::Snapshot for FfEcho {
        fn save(&self, w: &mut crate::snapshot::StateWriter) {
            w.write_u64(self.echoed);
        }
        fn restore(&mut self, r: &mut crate::snapshot::StateReader<'_>) {
            self.echoed = r.read_u64();
        }
    }
    impl Component<u64> for FfEcho {
        fn name(&self) -> &str {
            "ffecho"
        }
        fn tick(&mut self, ctx: &mut TickContext<'_, u64>) {
            if ctx.links.can_push(self.out) {
                if let Some(v) = ctx.links.pop(self.input, ctx.time) {
                    ctx.links.push(self.out, ctx.time, v).unwrap();
                    self.echoed += 1;
                }
            }
        }
        fn watched_links(&self) -> Option<Vec<LinkId>> {
            Some(vec![self.input])
        }
        fn fast_forward(&mut self, ctx: &mut crate::FastCtx<'_, u64>) {
            while let Some(mut tc) = ctx.next_edge() {
                self.tick(&mut tc);
                if !ctx.has_deliverable(self.input) || !ctx.can_push(self.out) {
                    // Drained (or output-blocked): only new input — or a
                    // cross-window capacity release — can make the next
                    // tick do work.
                    ctx.sleep_until(None);
                }
            }
        }
    }

    fn gear_pipeline_sim(fidelity: Fidelity) -> Simulation<u64> {
        let mut sim: Simulation<u64> = Simulation::with_seed(11);
        sim.set_fidelity(fidelity);
        let clk_a = ClockDomain::from_mhz(100);
        let clk_b = ClockDomain::from_mhz(133);
        let ab = sim.links_mut().add_link("ab", 16, clk_a.period());
        let bc = sim.links_mut().add_link("bc", 16, clk_b.period());
        sim.add_component(
            Box::new(SparseProducer {
                out: ab,
                budget: 16,
                sent: 0,
                gap: Time::from_ns(35),
                next_at: Time::ZERO,
            }),
            clk_a,
        );
        sim.add_component(
            Box::new(FfEcho {
                input: ab,
                out: bc,
                echoed: 0,
            }),
            clk_b,
        );
        sim.add_component(
            Box::new(SparseConsumer {
                input: bc,
                received: Vec::new(),
            }),
            clk_a,
        );
        sim
    }

    #[test]
    fn fast_quantum_one_is_byte_identical_to_cycle() {
        let mut cycle = gear_pipeline_sim(Fidelity::Cycle);
        let mut fast = gear_pipeline_sim(Fidelity::Fast { quantum: 1 });
        let horizon = Time::from_us(10);
        let tc = cycle.run_to_quiescence_strict(horizon).unwrap();
        let tf = fast.run_to_quiescence_strict(horizon).unwrap();
        assert_eq!(tc, tf);
        assert_eq!(cycle.edges_processed(), fast.edges_processed());
        assert_eq!(received_log(&mut cycle), received_log(&mut fast));
        assert_eq!(
            cycle.checkpoint().as_bytes(),
            fast.checkpoint().as_bytes(),
            "quantum 1 must be byte-identical to the cycle gear"
        );
    }

    #[test]
    fn fast_gear_drains_the_pipeline_and_elides_ticks() {
        let mut fast = gear_pipeline_sim(Fidelity::fast());
        fast.run_to_quiescence_strict(Time::from_us(10))
            .expect("fast gear must preserve drainage");
        // The simulation's own counts: the process-wide ones are fed by
        // every test that simulates concurrently.
        let own = fast.activity.total();
        let mut cycle = gear_pipeline_sim(Fidelity::Cycle);
        cycle.run_to_quiescence_strict(Time::from_us(10)).unwrap();
        // Same payloads in the same order; delivery instants may be
        // window-quantized.
        let got: Vec<u64> = received_log(&mut fast).iter().map(|(_, v)| *v).collect();
        let want: Vec<u64> = received_log(&mut cycle).iter().map(|(_, v)| *v).collect();
        assert_eq!(got, want);
        assert!(own.ff_windows > 0, "windows must have been processed");
        assert!(own.ff_elided > 0, "sleeps must elide in-window cycles");
    }

    #[test]
    fn fast_windows_clamp_at_the_horizon() {
        let mut fast = gear_pipeline_sim(Fidelity::Fast { quantum: 64 });
        let mut cycle = gear_pipeline_sim(Fidelity::Cycle);
        let horizon = Time::from_ns(333);
        fast.run_until(horizon);
        cycle.run_until(horizon);
        assert!(fast.time() <= horizon, "no edge past the horizon");
        // The *schedule* (which is state-independent) must land exactly
        // where the cycle gear leaves it: same pending edge per domain,
        // same last processed edge. (`edges_processed` counts scheduling
        // batches covering windows, so it is smaller at quantum > 1.)
        assert_eq!(fast.next_edge(), cycle.next_edge());
        assert_eq!(fast.time(), cycle.time());
        assert!(fast.edges_processed() <= cycle.edges_processed());
    }

    #[test]
    fn gear_shift_restores_to_a_bit_identical_checkpoint() {
        // A fast warm prefix checkpointed at the horizon, restored onto a
        // fresh cycle-gear twin, must resume deterministically: doing it
        // twice yields byte-identical final checkpoints.
        let run = || {
            let mut warm = gear_pipeline_sim(Fidelity::Fast { quantum: 32 });
            warm.run_until(Time::from_ns(250));
            warm.set_fidelity(Fidelity::Cycle);
            let blob = warm.checkpoint();
            let mut tail = gear_pipeline_sim(Fidelity::Cycle);
            tail.restore(&blob).expect("structural twin");
            assert_eq!(
                tail.checkpoint().as_bytes(),
                blob.as_bytes(),
                "restore must reproduce the gear-shift checkpoint bit-identically"
            );
            tail.run_to_quiescence_strict(Time::from_us(10)).unwrap();
            tail.checkpoint()
        };
        assert_eq!(run().as_bytes(), run().as_bytes());
    }
}
