//! Metric collection: counters, histograms and time-weighted state residency.
//!
//! The paper's Section 5 ("fine-grain platform performance analysis") rests
//! on a statistics collection system able to report, e.g., for which fraction
//! of time the memory-controller bus-interface FIFO was *full*, *storing new
//! requests*, *idle with no incoming requests* or *empty*. [`StateResidency`]
//! timers provide exactly that; counters and histograms cover throughput and
//! latency reporting.

use crate::snapshot::{Persist, StateReader, StateWriter};
use crate::time::Time;
use crate::trace::{TraceBuffer, TraceKind};
use std::collections::HashMap;
use std::fmt;

/// Handle to a monotonically increasing counter.
///
/// Ids are structure, like link ids: a component gets them when it
/// registers its metrics and keeps them. The [`Default`] id names no
/// metric — an update through it panics on the registry's bounds check —
/// so a component that stores ids before registration fails loudly, never
/// on somebody else's counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterId(usize);

/// Handle to a latency/value histogram (see [`CounterId`] for [`Default`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HistogramId(usize);

/// Handle to a time-weighted state-residency timer (see [`CounterId`] for
/// [`Default`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResidencyId(usize);

macro_rules! unregistered_default {
    ($($id:ident),*) => {$(
        impl Default for $id {
            /// An id that names no metric.
            fn default() -> Self {
                $id(usize::MAX)
            }
        }
    )*};
}
unregistered_default!(CounterId, HistogramId, ResidencyId);

/// Declares a component's metric ids as a struct whose field names are the
/// metric names. `register(prefix, stats)` creates `{prefix}.{field}` for
/// every field, in declaration order — counters, histograms and
/// residencies, each kind in its own row order — and the struct's
/// [`Default`] names no metric (see [`CounterId`]). The usual body of
/// [`Component::register_metrics`](crate::Component::register_metrics) is
/// then `self.ids = Ids::register(&self.name, stats)`.
///
/// # Examples
///
/// ```
/// use mpsoc_kernel::{metric_ids, StatsRegistry, Time};
///
/// metric_ids! {
///     /// A bus's metrics.
///     struct BusMetrics {
///         granted: counter,
///         latency_ns: histogram,
///         state: residency["idle", "busy"],
///     }
/// }
///
/// let mut stats = StatsRegistry::new();
/// let ids = BusMetrics::register("bus", &mut stats);
/// stats.inc(ids.granted, 2);
/// stats.record(ids.latency_ns, 40);
/// stats.set_state(ids.state, 1, Time::from_ns(5));
/// assert_eq!(stats.counter_by_name("bus.granted"), 2);
/// assert_eq!(stats.histogram_by_name("bus.latency_ns").unwrap().count(), 1);
/// assert_eq!(stats.residency_by_name("bus.state").unwrap().current(), 1);
/// ```
#[macro_export]
macro_rules! metric_ids {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($field:ident: $kind:ident $([$($state:literal),+ $(,)?])?),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default, Clone, Copy)]
        $vis struct $name {
            $($field: $crate::metric_ids!(@id $kind)),+
        }

        impl $name {
            /// Creates every metric, named `{prefix}.{field}`, in
            /// declaration order.
            $vis fn register(prefix: &str, stats: &mut $crate::StatsRegistry) -> Self {
                $name {
                    $($field: stats.$kind(
                        &format!("{}.{}", prefix, stringify!($field))
                        $(, &[$($state),+])?
                    )),+
                }
            }
        }
    };
    (@id counter) => { $crate::stats::CounterId };
    (@id histogram) => { $crate::stats::HistogramId };
    (@id residency) => { $crate::stats::ResidencyId };
}

/// A histogram over `u64` samples with power-of-two buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// bucket `i` counts samples in `[2^(i-1), 2^i)`, bucket 0 counts zeros
    /// and ones.
    buckets: [u64; 64],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn record(&mut self, v: u64) {
        let b = (64 - v.leading_zeros()).saturating_sub(1) as usize;
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Approximate p-th percentile (0.0–1.0) using bucket upper bounds.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((self.count as f64) * p.clamp(0.0, 1.0)).ceil() as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target.max(1) {
                return Some(if i == 0 { 1 } else { 1u64 << i });
            }
        }
        Some(self.max)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Time-weighted residency over a small set of named states.
///
/// The timer starts in state 0 at time zero; every [`set_state`] call
/// attributes elapsed time to the previous state.
///
/// [`set_state`]: StatsRegistry::set_state
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateResidency {
    states: Vec<String>,
    acc: Vec<Time>,
    current: usize,
    since: Time,
}

impl StateResidency {
    fn new(states: Vec<String>) -> Self {
        let n = states.len();
        StateResidency {
            states,
            acc: vec![Time::ZERO; n],
            current: 0,
            since: Time::ZERO,
        }
    }

    fn set(&mut self, state: usize, now: Time) {
        assert!(state < self.states.len(), "unknown residency state");
        // Re-asserting the current state is a no-op: the elapsed span stays
        // attributed to it either way, and leaving `since`/`acc` untouched
        // makes the write idempotent — required so components re-asserting a
        // quiet state every dense tick serialize identically whether or not
        // sparse scheduling skipped those ticks.
        if state == self.current {
            return;
        }
        self.acc[self.current] += now.saturating_sub(self.since);
        self.since = self.since.max(now);
        self.current = state;
    }

    /// State names in index order.
    pub fn state_names(&self) -> &[String] {
        &self.states
    }

    /// Currently active state index.
    pub fn current(&self) -> usize {
        self.current
    }

    /// Residency totals up to `now`, including time in the current state.
    pub fn totals(&self, now: Time) -> Vec<Time> {
        let mut acc = self.acc.clone();
        acc[self.current] += now.saturating_sub(self.since);
        acc
    }

    /// Residency totals as fractions of the elapsed time covered.
    pub fn fractions(&self, now: Time) -> Vec<f64> {
        let totals = self.totals(now);
        let sum: u64 = totals.iter().map(|t| t.as_ps()).sum();
        if sum == 0 {
            return vec![0.0; totals.len()];
        }
        totals
            .iter()
            .map(|t| t.as_ps() as f64 / sum as f64)
            .collect()
    }
}

/// How many counters, histograms and residencies a registry holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct MetricExtent {
    counters: usize,
    histograms: usize,
    residencies: usize,
}

/// Named snapshot of every metric, produced by [`StatsRegistry::report`].
#[derive(Debug, Clone, Default)]
pub struct StatsReport {
    /// Counter values by name.
    pub counters: HashMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: HashMap<String, Histogram>,
    /// Residency fractions (per state name) by timer name.
    pub residencies: HashMap<String, Vec<(String, f64)>>,
}

impl fmt::Display for StatsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: Vec<_> = self.counters.keys().collect();
        names.sort();
        for n in names {
            writeln!(f, "{n}: {}", self.counters[n])?;
        }
        let mut names: Vec<_> = self.histograms.keys().collect();
        names.sort();
        for n in names {
            let h = &self.histograms[n];
            writeln!(
                f,
                "{n}: n={} mean={:.1} min={:?} max={:?}",
                h.count(),
                h.mean(),
                h.min(),
                h.max()
            )?;
        }
        let mut names: Vec<_> = self.residencies.keys().collect();
        names.sort();
        for n in names {
            write!(f, "{n}:")?;
            for (state, frac) in &self.residencies[n] {
                write!(f, " {state}={:.1}%", frac * 100.0)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Central, string-keyed metric registry shared by all components.
///
/// Metrics are created by name: the first call with a given name creates
/// the metric, later calls return the same handle. Components create theirs
/// once, in [`Component::register_metrics`](crate::Component::register_metrics),
/// and keep the ids; a tick only updates through them ([`StatsAccess`]).
///
/// # Examples
///
/// ```
/// use mpsoc_kernel::{StatsRegistry, Time};
///
/// let mut stats = StatsRegistry::new();
/// let c = stats.counter("bus.requests");
/// stats.inc(c, 3);
/// assert_eq!(stats.counter_value(c), 3);
///
/// let r = stats.residency("fifo.state", &["empty", "busy", "full"]);
/// stats.set_state(r, 2, Time::from_ns(10)); // empty for 10 ns, then full
/// let totals = stats.residency_totals(r, Time::from_ns(15));
/// assert_eq!(totals[0], Time::from_ns(10));
/// assert_eq!(totals[2], Time::from_ns(5));
/// ```
#[derive(Debug, Default)]
pub struct StatsRegistry {
    counter_names: HashMap<String, CounterId>,
    counters: Vec<(String, u64)>,
    histogram_names: HashMap<String, HistogramId>,
    histograms: Vec<(String, Histogram)>,
    residency_names: HashMap<String, ResidencyId>,
    residencies: Vec<(String, StateResidency)>,
    trace: TraceBuffer,
}

/// Per-tick handle to the metric registry (the `stats` field of
/// [`TickContext`](crate::TickContext)): updates and reads through the ids a
/// component registered, without the harness's side of the registry
/// (reports, tracing switches). It can neither create a metric nor look one
/// up by name: every metric exists from
/// [`Component::register_metrics`](crate::Component::register_metrics) on.
#[derive(Debug)]
pub struct StatsAccess<'a> {
    registry: &'a mut StatsRegistry,
}

impl<'a> StatsAccess<'a> {
    pub(crate) fn new(registry: &'a mut StatsRegistry) -> Self {
        StatsAccess { registry }
    }

    /// See [`StatsRegistry::inc`].
    pub fn inc(&mut self, id: CounterId, by: u64) {
        self.registry.inc(id, by)
    }

    /// See [`StatsRegistry::record`].
    pub fn record(&mut self, id: HistogramId, value: u64) {
        self.registry.record(id, value)
    }

    /// See [`StatsRegistry::set_state`].
    pub fn set_state(&mut self, id: ResidencyId, state: usize, now: Time) {
        self.registry.set_state(id, state, now)
    }

    /// See [`StatsRegistry::emit_trace`].
    pub fn emit_trace<F: FnOnce() -> String>(
        &mut self,
        time: Time,
        source: &str,
        kind: TraceKind,
        detail: F,
    ) {
        self.registry.emit_trace(time, source, kind, detail)
    }
}

impl StatsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        StatsRegistry::default()
    }

    /// Returns (creating on first use) the counter with this name.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(&id) = self.counter_names.get(name) {
            return id;
        }
        let id = CounterId(self.counters.len());
        self.counters.push((name.to_owned(), 0));
        self.counter_names.insert(name.to_owned(), id);
        id
    }

    /// Adds `by` to a counter.
    pub fn inc(&mut self, id: CounterId, by: u64) {
        self.counters[id.0].1 += by;
    }

    /// Takes `by` back off a counter. Only the skip audit does this: it sets
    /// aside the one increment an elided tick may declare
    /// ([`StallHint::count_elided`](crate::StallHint::count_elided)) so the
    /// rest of the registry can be byte-compared around the tick.
    pub(crate) fn retract(&mut self, id: CounterId, by: u64) {
        self.counters[id.0].1 -= by;
    }

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].1
    }

    /// The id of an existing counter (`None` if never created) — a lookup
    /// that, unlike [`counter`](Self::counter), creates nothing.
    pub fn find_counter(&self, name: &str) -> Option<CounterId> {
        self.counter_names.get(name).copied()
    }

    /// Looks up a counter's value by name (0 if never created).
    pub fn counter_by_name(&self, name: &str) -> u64 {
        self.counter_names
            .get(name)
            .map_or(0, |id| self.counters[id.0].1)
    }

    /// Returns (creating on first use) the histogram with this name.
    pub fn histogram(&mut self, name: &str) -> HistogramId {
        if let Some(&id) = self.histogram_names.get(name) {
            return id;
        }
        let id = HistogramId(self.histograms.len());
        self.histograms.push((name.to_owned(), Histogram::new()));
        self.histogram_names.insert(name.to_owned(), id);
        id
    }

    /// Records a sample into a histogram.
    pub fn record(&mut self, id: HistogramId, value: u64) {
        self.histograms[id.0].1.record(value);
    }

    /// Read access to a histogram.
    pub fn histogram_data(&self, id: HistogramId) -> &Histogram {
        &self.histograms[id.0].1
    }

    /// Looks up a histogram by name.
    pub fn histogram_by_name(&self, name: &str) -> Option<&Histogram> {
        self.histogram_names
            .get(name)
            .map(|id| &self.histograms[id.0].1)
    }

    /// Returns (creating on first use) a residency timer with the given
    /// states. The timer starts in state 0 at time zero.
    ///
    /// # Panics
    ///
    /// Panics if the timer exists with a different state list, or if
    /// `states` is empty.
    pub fn residency(&mut self, name: &str, states: &[&str]) -> ResidencyId {
        assert!(!states.is_empty(), "residency needs at least one state");
        if let Some(&id) = self.residency_names.get(name) {
            assert_eq!(
                self.residencies[id.0].1.states.len(),
                states.len(),
                "residency {name} re-registered with different states"
            );
            return id;
        }
        let id = ResidencyId(self.residencies.len());
        self.residencies.push((
            name.to_owned(),
            StateResidency::new(states.iter().map(|s| (*s).to_owned()).collect()),
        ));
        self.residency_names.insert(name.to_owned(), id);
        id
    }

    /// Switches a residency timer to `state` at time `now`.
    pub fn set_state(&mut self, id: ResidencyId, state: usize, now: Time) {
        self.residencies[id.0].1.set(state, now);
    }

    /// Residency totals up to `now`.
    pub fn residency_totals(&self, id: ResidencyId, now: Time) -> Vec<Time> {
        self.residencies[id.0].1.totals(now)
    }

    /// Residency data by name.
    pub fn residency_by_name(&self, name: &str) -> Option<&StateResidency> {
        self.residency_names
            .get(name)
            .map(|id| &self.residencies[id.0].1)
    }

    /// Produces a complete named snapshot at time `now`.
    pub fn report(&self, now: Time) -> StatsReport {
        StatsReport {
            counters: self.counters.iter().map(|(n, v)| (n.clone(), *v)).collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(n, h)| (n.clone(), h.clone()))
                .collect(),
            residencies: self
                .residencies
                .iter()
                .map(|(n, r)| {
                    (
                        n.clone(),
                        r.state_names()
                            .iter()
                            .cloned()
                            .zip(r.fractions(now))
                            .collect(),
                    )
                })
                .collect(),
        }
    }

    /// How many metrics of each kind exist: the extent of the prefix that
    /// [`hash_structure`](Self::hash_structure) covers.
    pub(crate) fn extent(&self) -> MetricExtent {
        MetricExtent {
            counters: self.counters.len(),
            histograms: self.histograms.len(),
            residencies: self.residencies.len(),
        }
    }

    /// Hashes kind, name and (for residencies) state list of every metric
    /// within `extent`, in creation order — the registry's part of a
    /// simulation's structural fingerprint.
    pub(crate) fn hash_structure(&self, extent: MetricExtent, h: &mut crate::snapshot::Fnv64) {
        h.write_u64(extent.counters as u64);
        for (name, _) in self.counters.iter().take(extent.counters) {
            h.write_str(name);
        }
        h.write_u64(extent.histograms as u64);
        for (name, _) in self.histograms.iter().take(extent.histograms) {
            h.write_str(name);
        }
        h.write_u64(extent.residencies as u64);
        for (name, res) in self.residencies.iter().take(extent.residencies) {
            h.write_str(name);
            h.write_u64(res.states.len() as u64);
            for state in &res.states {
                h.write_str(state);
            }
        }
    }

    /// Names of all counters, in creation order.
    pub fn counter_names(&self) -> impl Iterator<Item = &str> {
        self.counters.iter().map(|(n, _)| n.as_str())
    }

    /// The event-trace buffer (disabled by default; see
    /// [`TraceBuffer::enable`]).
    pub fn trace(&self) -> &TraceBuffer {
        &self.trace
    }

    /// Mutable access to the event-trace buffer (to enable/disable it).
    pub fn trace_mut(&mut self) -> &mut TraceBuffer {
        &mut self.trace
    }

    /// Records a trace event; free when tracing is disabled.
    #[inline]
    pub fn emit_trace<F: FnOnce() -> String>(
        &mut self,
        time: Time,
        source: &str,
        kind: TraceKind,
        detail: F,
    ) {
        self.trace.emit(time, source, kind, detail);
    }

    /// Serializes every metric (names and values, in creation order) for a
    /// simulation checkpoint.
    ///
    /// The [`TraceBuffer`] is deliberately excluded: it is a bounded
    /// diagnostic ring whose contents never feed back into simulation
    /// behaviour, and a restored run may want tracing armed differently
    /// (the whole point of time-travel debugging).
    pub(crate) fn save_state(&self, w: &mut StateWriter) {
        self.counters.save(w);
        self.histograms.save(w);
        self.residencies.save(w);
    }

    /// Restores every metric's value from a checkpoint. The metrics within
    /// `registered` are structure — the ids components kept from
    /// registration index them, and the structural fingerprint covers
    /// them — so the blob must list exactly those first, with the same
    /// names (and residency states), or the reader is refused. Metrics
    /// created after registration are dropped and replaced by the blob's.
    pub(crate) fn restore_state(&mut self, r: &mut StateReader<'_>, registered: MetricExtent) {
        restore_metrics(
            r,
            &mut self.counters,
            &mut self.counter_names,
            registered.counters,
            CounterId,
            |_, _| true,
        );
        restore_metrics(
            r,
            &mut self.histograms,
            &mut self.histogram_names,
            registered.histograms,
            HistogramId,
            |_, _| true,
        );
        restore_metrics(
            r,
            &mut self.residencies,
            &mut self.residency_names,
            registered.residencies,
            ResidencyId,
            |kept, decoded| kept.states == decoded.states,
        );
    }
}

/// Its state names, one accumulated time per state (the names give the
/// count), the current state and since when.
impl Persist for StateResidency {
    fn save(&self, w: &mut StateWriter) {
        self.states.save(w);
        for acc in &self.acc {
            acc.save(w);
        }
        self.current.save(w);
        self.since.save(w);
    }

    fn load(r: &mut StateReader<'_>) -> Self {
        let mut res = StateResidency::new(Persist::load(r));
        for acc in res.acc.iter_mut() {
            *acc = Persist::load(r);
        }
        // A timer without states still sits in state 0.
        res.current = r.read_index(res.states.len().max(1));
        res.since = Persist::load(r);
        res
    }
}

crate::snapshot_state! {
    impl Persist for Histogram { buckets, count, sum, min, max }
}

/// Restores one kind of metric: `(name, value)` entries, the first
/// `registered` of which must name the metrics already there (and agree
/// with them by `same`); the rest replace whatever was created after
/// registration.
fn restore_metrics<V: Persist, Id>(
    r: &mut StateReader<'_>,
    metrics: &mut Vec<(String, V)>,
    names: &mut HashMap<String, Id>,
    registered: usize,
    id: impl Fn(usize) -> Id,
    same: impl Fn(&V, &V) -> bool,
) {
    let n = r.read_len(<(String, ()) as Persist>::MIN_BYTES);
    if n < registered {
        r.refuse(format!(
            "blob has {n} metrics of a kind, {registered} are registered"
        ));
        return;
    }
    for (name, _) in metrics.drain(registered..) {
        names.remove(&name);
    }
    for i in 0..n {
        let name = String::load(r);
        let value = V::load(r);
        if let Some((kept, slot)) = metrics.get_mut(i) {
            if *kept != name || !same(slot, &value) {
                r.refuse(format!("metric {i} is {name:?}, registered as {kept:?}"));
                return;
            }
            *slot = value;
        } else if names.contains_key(&name) {
            r.refuse(format!("metric {name:?} appears twice"));
            return;
        } else {
            names.insert(name.clone(), id(i));
            metrics.push((name, value));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_dedupe_by_name() {
        let mut s = StatsRegistry::new();
        let a = s.counter("x");
        let b = s.counter("x");
        assert_eq!(a, b);
        s.inc(a, 2);
        s.inc(b, 3);
        assert_eq!(s.counter_value(a), 5);
        assert_eq!(s.counter_by_name("x"), 5);
        assert_eq!(s.counter_by_name("missing"), 0);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn a_default_id_names_no_metric() {
        let mut s = StatsRegistry::new();
        s.counter("x");
        s.inc(CounterId::default(), 1);
    }

    crate::metric_ids! {
        struct Ids {
            granted: counter,
            lat: histogram,
            busy_ps: counter,
            state: residency["idle", "busy"],
        }
    }

    #[test]
    fn metric_ids_register_in_declaration_order() {
        let mut s = StatsRegistry::new();
        let unregistered = Ids::default();
        assert_eq!(unregistered.busy_ps, CounterId::default());
        let ids = Ids::register("bus", &mut s);
        assert_eq!((ids.granted, ids.busy_ps), (CounterId(0), CounterId(1)));
        let names: Vec<_> = s.counter_names().collect();
        assert_eq!(names, ["bus.granted", "bus.busy_ps"]);
        assert_eq!(ids.lat, s.histogram("bus.lat"));
        s.set_state(ids.state, 1, Time::from_ns(1));
        let state = s.residency_by_name("bus.state").expect("registered");
        assert_eq!(
            (state.state_names(), state.current()),
            (&["idle".to_owned(), "busy".to_owned()][..], 1)
        );
    }

    #[test]
    fn histogram_statistics() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 4, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(1000));
        assert!((h.mean() - 203.0).abs() < 1e-9);
        assert!(h.percentile(0.5).unwrap() <= 8);
        assert!(h.percentile(1.0).unwrap() >= 512);
        assert_eq!(Histogram::new().percentile(0.5), None);
    }

    #[test]
    fn residency_attributes_time_correctly() {
        let mut r = StateResidency::new(vec!["a".into(), "b".into()]);
        r.set(1, Time::from_ns(4));
        r.set(0, Time::from_ns(10));
        let totals = r.totals(Time::from_ns(12));
        assert_eq!(totals[0], Time::from_ns(6)); // 0–4 and 10–12
        assert_eq!(totals[1], Time::from_ns(6)); // 4–10
        let fr = r.fractions(Time::from_ns(12));
        assert!((fr[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn residency_same_state_is_a_no_op_transition() {
        let mut r = StateResidency::new(vec!["a".into(), "b".into()]);
        r.set(1, Time::from_ns(5));
        r.set(1, Time::from_ns(9));
        let totals = r.totals(Time::from_ns(10));
        assert_eq!(totals[1], Time::from_ns(5));
    }

    #[test]
    #[should_panic(expected = "different states")]
    fn residency_reregistration_with_mismatched_states_panics() {
        let mut s = StatsRegistry::new();
        s.residency("r", &["a", "b"]);
        s.residency("r", &["a"]);
    }

    #[test]
    fn report_contains_everything() {
        let mut s = StatsRegistry::new();
        let c = s.counter("count");
        s.inc(c, 7);
        let h = s.histogram("lat");
        s.record(h, 5);
        let r = s.residency("state", &["idle", "busy"]);
        s.set_state(r, 1, Time::from_ns(5));
        let rep = s.report(Time::from_ns(10));
        assert_eq!(rep.counters["count"], 7);
        assert_eq!(rep.histograms["lat"].count(), 1);
        let st = &rep.residencies["state"];
        assert_eq!(st[0].0, "idle");
        assert!((st[0].1 - 0.5).abs() < 1e-9);
        let shown = rep.to_string();
        assert!(shown.contains("count: 7"));
        assert!(shown.contains("busy"));
    }
}
