//! Deterministic, seeded fault injection with conservation accounting.
//!
//! The paper's platform analyses assume a fault-free interconnect; this
//! module adds the *unhappy* path while keeping every run bit-for-bit
//! reproducible. A [`FaultSchedule`] names per-kind injection rates and the
//! recovery budget; the [`FaultEngine`] owned by the simulation answers
//! *probes* from component models ("does a fault hit this transfer?")
//! from private per-component hash streams, so arming a schedule never
//! perturbs the kernel RNG that drives traffic generation — a schedule with
//! all rates at zero reproduces the fault-free run exactly. Each component's
//! stream position advances only during its own ticks, so whether a fault
//! hits one component does not depend on how many probes the others drew.
//!
//! Mirroring how [`trace`](crate::trace) gates emission, probing is a
//! single branch when no schedule is armed: [`FaultEngine::probe`] is
//! `#[inline]` and returns immediately, so the hook on the tick path is
//! zero-cost for every experiment that never arms faults.
//!
//! ## Accounting contract
//!
//! Every probe that fires counts as one *injected* fault, and the component
//! that absorbed it must eventually report it either *recovered* (the
//! affected work completed despite the fault) or *lost* (the work was
//! abandoned after exhausting the retry budget, with the initiator released
//! through a synthesized error response). After a platform drains,
//! `injected == recovered + lost` — nothing is ever silently dropped. The
//! property suite (`tests/proptest_faults.rs`) enforces this over random
//! schedules.

use std::fmt;

/// The kinds of runtime fault the engine can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A payload is dropped in transit on a link crossing (detected only by
    /// timeout at the sender).
    LinkDrop,
    /// A payload is corrupted in transit (detected immediately by the
    /// receiver's checksum, so recovery starts without a timeout wait).
    LinkCorrupt,
    /// A target's service engine stalls for a configured number of cycles.
    TargetStall,
    /// A burst of back-to-back memory refreshes steals memory bandwidth.
    RefreshStorm,
    /// A clock-domain-crossing glitch delays a bridge transfer by a
    /// configured number of cycles.
    ClockGlitch,
}

impl FaultKind {
    /// All kinds, in declaration order (index order of the per-kind
    /// counters).
    pub const ALL: [FaultKind; 5] = [
        FaultKind::LinkDrop,
        FaultKind::LinkCorrupt,
        FaultKind::TargetStall,
        FaultKind::RefreshStorm,
        FaultKind::ClockGlitch,
    ];

    #[inline]
    fn index(self) -> usize {
        match self {
            FaultKind::LinkDrop => 0,
            FaultKind::LinkCorrupt => 1,
            FaultKind::TargetStall => 2,
            FaultKind::RefreshStorm => 3,
            FaultKind::ClockGlitch => 4,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = match self {
            FaultKind::LinkDrop => "link-drop",
            FaultKind::LinkCorrupt => "link-corrupt",
            FaultKind::TargetStall => "target-stall",
            FaultKind::RefreshStorm => "refresh-storm",
            FaultKind::ClockGlitch => "clock-glitch",
        };
        write!(f, "{label}")
    }
}

/// A complete fault scenario: per-kind injection rates (probability per
/// probe, expressed in events per million probes) plus the parameters of
/// the faults themselves and of the recovery machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Seed of the engine's private hash stream.
    pub seed: u64,
    /// Injection rate per kind, in faults per million probes (indexed in
    /// [`FaultKind::ALL`] order).
    pub rate_per_million: [u32; 5],
    /// Cycles a [`FaultKind::TargetStall`] freezes the target's engine.
    pub stall_cycles: u64,
    /// Back-to-back refreshes in a [`FaultKind::RefreshStorm`].
    pub storm_refreshes: u32,
    /// Extra crossing cycles a [`FaultKind::ClockGlitch`] adds.
    pub glitch_cycles: u64,
    /// Base detection timeout (cycles of the detecting component's clock)
    /// before a dropped transfer is retransmitted; doubles per attempt
    /// (exponential backoff).
    pub timeout_cycles: u64,
    /// Retransmission attempts before a transfer is abandoned and accounted
    /// as lost.
    pub retry_budget: u32,
}

impl FaultSchedule {
    /// A schedule that injects nothing (but still exercises the armed code
    /// paths — useful for verifying that arming alone changes nothing).
    pub fn none() -> Self {
        FaultSchedule {
            seed: 0,
            rate_per_million: [0; 5],
            stall_cycles: 64,
            storm_refreshes: 8,
            glitch_cycles: 16,
            timeout_cycles: 256,
            retry_budget: 3,
        }
    }

    /// A schedule injecting every kind at `rate` faults per million probes.
    pub fn uniform(rate: u32, seed: u64) -> Self {
        FaultSchedule {
            seed,
            rate_per_million: [rate; 5],
            ..FaultSchedule::none()
        }
    }

    /// Sets the rate of one kind.
    pub fn with_rate(mut self, kind: FaultKind, rate: u32) -> Self {
        self.rate_per_million[kind.index()] = rate;
        self
    }

    /// Sets the retry budget.
    pub fn with_retry_budget(mut self, budget: u32) -> Self {
        self.retry_budget = budget;
        self
    }

    /// Sets the base detection timeout.
    pub fn with_timeout_cycles(mut self, cycles: u64) -> Self {
        self.timeout_cycles = cycles;
        self
    }

    /// The rate of one kind.
    pub fn rate(&self, kind: FaultKind) -> u32 {
        self.rate_per_million[kind.index()]
    }

    /// Whether any kind has a non-zero rate.
    pub fn is_active(&self) -> bool {
        self.rate_per_million.iter().any(|&r| r > 0)
    }
}

impl Default for FaultSchedule {
    fn default() -> Self {
        FaultSchedule::none()
    }
}

/// Cumulative fault accounting, split by kind for injections.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Faults injected, per kind (indexed in [`FaultKind::ALL`] order).
    pub injected_by_kind: [u64; 5],
    /// Faults whose affected work eventually completed.
    pub recovered: u64,
    /// Faults whose affected work was abandoned after the retry budget.
    pub lost: u64,
    /// Retransmissions performed by recovery machinery.
    pub retries: u64,
}

impl FaultCounts {
    /// Total faults injected across all kinds.
    pub fn injected(&self) -> u64 {
        self.injected_by_kind.iter().sum()
    }

    /// Injected faults not yet resolved as recovered or lost. Zero after a
    /// clean drain — the conservation invariant.
    pub fn unresolved(&self) -> u64 {
        self.injected() - self.recovered - self.lost
    }
}

/// Per-tick handle to the fault engine (the `faults` field of
/// [`TickContext`](crate::TickContext)): probes and recovery accounting,
/// without the harness's arming and the executor's origin selection.
#[derive(Debug)]
pub struct FaultAccess<'a> {
    engine: &'a mut FaultEngine,
}

impl<'a> FaultAccess<'a> {
    pub(crate) fn new(engine: &'a mut FaultEngine) -> Self {
        FaultAccess { engine }
    }

    /// See [`FaultEngine::probe`].
    #[inline]
    pub fn probe(&mut self, kind: FaultKind) -> bool {
        self.engine.probe(kind)
    }

    /// See [`FaultEngine::is_armed`].
    #[inline]
    pub fn is_armed(&self) -> bool {
        self.engine.is_armed()
    }

    /// See [`FaultEngine::schedule`].
    pub fn schedule(&self) -> &FaultSchedule {
        self.engine.schedule()
    }

    /// See [`FaultEngine::record_recovered`].
    pub fn record_recovered(&mut self, n: u64) {
        self.engine.record_recovered(n)
    }

    /// See [`FaultEngine::record_lost`].
    pub fn record_lost(&mut self, n: u64) {
        self.engine.record_lost(n)
    }

    /// See [`FaultEngine::record_retry`].
    pub fn record_retry(&mut self, n: u64) {
        self.engine.record_retry(n)
    }

    /// See [`FaultEngine::counts`].
    pub fn counts(&self) -> FaultCounts {
        self.engine.counts()
    }
}

/// The probe stream: a SplitMix64 finalizer over `(seed, origin, position)`.
/// A pure function independent of the kernel RNG, and independent *between
/// origins* — each component draws from its own substream, so no other
/// component can move a component's position. Origin 0 reproduces the
/// historical single-stream engine bit-for-bit.
#[inline]
fn probe_hash(seed: u64, origin: u32, position: u64) -> u64 {
    let mut z = (seed ^ u64::from(origin).wrapping_mul(0xd1b5_4a32_d192_ed03))
        .wrapping_add(position.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    z
}

/// The deterministic fault-injection engine: answers per-tick probes from
/// seeded per-origin hash streams according to a [`FaultSchedule`], and
/// tracks recovery accounting. Disarmed by default (probes always answer
/// "no fault").
///
/// Components reach it through
/// [`TickContext::faults`](crate::TickContext::faults) and call
/// [`probe`](FaultEngine::probe) at the points where a fault of a given
/// kind is physically meaningful (a link crossing, an engine start, ...).
///
/// An *origin* is the probing component's registration index; the executor
/// sets it (via [`set_origin`](FaultEngine::set_origin)) before every tick.
/// Every component has its own stream position, which only its own ticks
/// advance, so which faults hit it does not depend on the others' probes.
#[derive(Debug, Clone, Default)]
pub struct FaultEngine {
    armed: bool,
    schedule: FaultSchedule,
    /// Current probe origin (the ticking component's registration index).
    /// Transient scheduling state, not serialized — the executor sets it
    /// before every tick.
    origin: u32,
    /// Per-origin stream positions, grown on first armed probe of an origin.
    /// Growth is schedule-independent across executors: skipped ticks are
    /// certified no-ops that never probe.
    probes: Vec<u64>,
    counts: FaultCounts,
}

impl FaultEngine {
    /// Creates a disarmed engine.
    pub fn new() -> Self {
        FaultEngine::default()
    }

    /// Arms the engine with a schedule. Probes start answering from the
    /// beginning of the schedule's hash streams.
    pub fn arm(&mut self, schedule: FaultSchedule) {
        self.armed = true;
        self.schedule = schedule;
        self.probes.clear();
        self.counts = FaultCounts::default();
    }

    /// Disarms the engine (accounting is kept).
    pub fn disarm(&mut self) {
        self.armed = false;
    }

    /// Whether a schedule is armed.
    #[inline]
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// The armed schedule (the disarmed default otherwise).
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }

    /// Selects the probe origin — the registration index of the component
    /// about to tick. Called by the executor before every tick; harness code
    /// driving the engine directly can leave it at the default origin 0.
    #[inline]
    pub fn set_origin(&mut self, origin: u32) {
        self.origin = origin;
    }

    /// Asks whether a fault of `kind` hits the transfer/operation the
    /// caller is about to perform. Free when disarmed; when armed, consumes
    /// one position of the current origin's hash stream and — if the answer
    /// is yes — records one injected fault the caller must later resolve
    /// via [`record_recovered`](FaultEngine::record_recovered) or
    /// [`record_lost`](FaultEngine::record_lost).
    #[inline]
    pub fn probe(&mut self, kind: FaultKind) -> bool {
        if !self.armed {
            return false;
        }
        self.probe_armed(kind)
    }

    fn probe_armed(&mut self, kind: FaultKind) -> bool {
        let rate = self.schedule.rate(kind);
        let o = self.origin as usize;
        if self.probes.len() <= o {
            self.probes.resize(o + 1, 0);
        }
        self.probes[o] += 1;
        if rate == 0 {
            return false;
        }
        let z = probe_hash(self.schedule.seed, self.origin, self.probes[o]);
        let hit = z % 1_000_000 < u64::from(rate);
        if hit {
            self.counts.injected_by_kind[kind.index()] += 1;
        }
        hit
    }

    /// Resolves `n` injected faults as recovered.
    pub fn record_recovered(&mut self, n: u64) {
        self.counts.recovered += n;
    }

    /// Resolves `n` injected faults as lost.
    pub fn record_lost(&mut self, n: u64) {
        self.counts.lost += n;
    }

    /// Records `n` retransmission attempts.
    pub fn record_retry(&mut self, n: u64) {
        self.counts.retries += n;
    }

    /// The cumulative accounting.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    /// Probes answered since arming, across every origin.
    pub fn probes(&self) -> u64 {
        self.probes.iter().sum()
    }

    /// The stream position of one origin (0 if it never probed).
    #[cfg(test)]
    fn probes_of(&self, origin: u32) -> u64 {
        self.probes.get(origin as usize).copied().unwrap_or(0)
    }
}

crate::snapshot_state! {
    impl Persist for FaultSchedule {
        seed, rate_per_million, stall_cycles, storm_refreshes, glitch_cycles, timeout_cycles,
        retry_budget,
    }
}

crate::snapshot_state! {
    impl Persist for FaultCounts { injected_by_kind, recovered, lost, retries }
}

// The complete engine state for a checkpoint: armed flag, schedule,
// per-origin stream positions and accounting. Restoring does not go through
// `arm`, which resets the probe cursors and accounting: a restored engine
// resumes mid-stream. The transient probe origin is scheduling state, not
// simulation state.
crate::snapshot_state! {
    impl Snapshot for FaultEngine { armed, schedule, probes, counts }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_probe_is_always_clean() {
        let mut engine = FaultEngine::new();
        for _ in 0..1000 {
            assert!(!engine.probe(FaultKind::LinkDrop));
        }
        assert_eq!(engine.probes(), 0, "disarmed probes leave no trace");
        assert_eq!(engine.counts().injected(), 0);
    }

    #[test]
    fn zero_rate_schedule_injects_nothing() {
        let mut engine = FaultEngine::new();
        engine.arm(FaultSchedule::none());
        for kind in FaultKind::ALL {
            for _ in 0..500 {
                assert!(!engine.probe(kind));
            }
        }
        assert_eq!(engine.counts().injected(), 0);
        assert!(engine.probes() > 0, "armed probes advance the stream");
    }

    #[test]
    fn injection_rate_is_roughly_honoured() {
        let mut engine = FaultEngine::new();
        engine.arm(FaultSchedule::uniform(100_000, 42)); // 10 %
        let mut hits = 0;
        for _ in 0..10_000 {
            if engine.probe(FaultKind::LinkDrop) {
                hits += 1;
            }
        }
        assert!((800..1200).contains(&hits), "~10% of 10k, got {hits}");
        assert_eq!(engine.counts().injected(), hits);
    }

    #[test]
    fn same_schedule_same_stream() {
        let run = || {
            let mut engine = FaultEngine::new();
            engine.arm(FaultSchedule::uniform(50_000, 7));
            (0..256)
                .map(|i| engine.probe(FaultKind::ALL[i % 5]))
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn seeds_change_the_stream() {
        let run = |seed| {
            let mut engine = FaultEngine::new();
            engine.arm(FaultSchedule::uniform(200_000, seed));
            (0..256)
                .map(|_| engine.probe(FaultKind::LinkDrop))
                .collect::<Vec<bool>>()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn per_kind_rates_are_independent() {
        let mut engine = FaultEngine::new();
        let schedule = FaultSchedule::none().with_rate(FaultKind::RefreshStorm, 1_000_000);
        engine.arm(schedule);
        assert!(engine.probe(FaultKind::RefreshStorm));
        assert!(!engine.probe(FaultKind::LinkDrop));
        assert_eq!(
            engine.counts().injected_by_kind[FaultKind::RefreshStorm.index()],
            1
        );
        assert_eq!(
            engine.counts().injected_by_kind[FaultKind::LinkDrop.index()],
            0
        );
    }

    #[test]
    fn conservation_accounting_balances() {
        let mut engine = FaultEngine::new();
        engine.arm(FaultSchedule::uniform(1_000_000, 3));
        for _ in 0..10 {
            assert!(engine.probe(FaultKind::LinkCorrupt));
        }
        engine.record_recovered(7);
        engine.record_lost(3);
        engine.record_retry(9);
        let counts = engine.counts();
        assert_eq!(counts.injected(), 10);
        assert_eq!(counts.unresolved(), 0);
        assert_eq!(counts.retries, 9);
    }

    #[test]
    fn schedule_builders_compose() {
        let s = FaultSchedule::uniform(10, 1)
            .with_rate(FaultKind::LinkDrop, 99)
            .with_retry_budget(5)
            .with_timeout_cycles(128);
        assert_eq!(s.rate(FaultKind::LinkDrop), 99);
        assert_eq!(s.rate(FaultKind::ClockGlitch), 10);
        assert_eq!(s.retry_budget, 5);
        assert_eq!(s.timeout_cycles, 128);
        assert!(s.is_active());
        assert!(!FaultSchedule::none().is_active());
    }

    #[test]
    fn origins_have_independent_streams() {
        let stream = |origin: u32| {
            let mut engine = FaultEngine::new();
            engine.arm(FaultSchedule::uniform(200_000, 11));
            engine.set_origin(origin);
            (0..256)
                .map(|_| engine.probe(FaultKind::LinkDrop))
                .collect::<Vec<bool>>()
        };
        assert_ne!(stream(0), stream(1));
        assert_eq!(stream(3), stream(3));
    }

    #[test]
    fn one_origins_draws_leave_other_origins_unmoved() {
        let mut engine = FaultEngine::new();
        engine.arm(FaultSchedule::uniform(100_000, 5));
        engine.set_origin(2);
        for _ in 0..10 {
            engine.probe(FaultKind::TargetStall);
        }
        assert_eq!(engine.probes_of(2), 10);
        assert_eq!(engine.probes_of(0), 0);
        assert_eq!(engine.probes_of(7), 0);
        assert_eq!(engine.probes(), 10);
    }

    #[test]
    fn engine_state_round_trips_through_snapshot() {
        let mut engine = FaultEngine::new();
        engine.arm(FaultSchedule::uniform(250_000, 17));
        for origin in [0u32, 3, 1] {
            engine.set_origin(origin);
            for _ in 0..=origin {
                engine.probe(FaultKind::RefreshStorm);
            }
        }
        engine.record_recovered(1);
        let mut w = crate::snapshot::StateWriter::new();
        crate::Snapshot::save(&engine, &mut w);
        let blob = w.finish();
        let mut restored = FaultEngine::new();
        crate::Snapshot::restore(
            &mut restored,
            &mut crate::snapshot::StateReader::new(&blob).unwrap(),
        );
        assert_eq!(restored.probes_of(0), engine.probes_of(0));
        assert_eq!(restored.probes_of(1), engine.probes_of(1));
        assert_eq!(restored.probes_of(3), engine.probes_of(3));
        assert_eq!(restored.counts(), engine.counts());
        // The restored engine resumes every origin's stream mid-position.
        restored.set_origin(3);
        engine.set_origin(3);
        for _ in 0..64 {
            assert_eq!(
                restored.probe(FaultKind::RefreshStorm),
                engine.probe(FaultKind::RefreshStorm)
            );
        }
    }

    #[test]
    fn kinds_display_and_index() {
        for (i, kind) in FaultKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
            assert!(!kind.to_string().is_empty());
        }
    }
}
