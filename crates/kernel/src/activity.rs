//! Kernel activity: the work a simulation did, and the work a caller
//! measures.
//!
//! Every [`Simulation`](crate::Simulation) keeps one [`Activity`] — the
//! edges it processed, the component ticks it charged (and how many of those
//! it elided, see [`Component::stall_hint`](crate::Component::stall_hint)),
//! the ones it skipped (sparse ticking) and its fast-gear windows — counted
//! since it was built or last restored and read with
//! [`Simulation::activity`](crate::Simulation::activity). Harness code (the
//! `repro` binary, microbenches) that wants the activity of a whole workload
//! without threading handles through every experiment's plumbing wraps it
//! in [`measure`].
//!
//! A measurement sees every simulation call — `step`, `run_until`,
//! `run_to_quiescence` and their [`reference`](crate::reference)
//! counterparts — that returned **on its thread** while it ran: each such
//! call [`report`]s what it added when it returns. Nothing is process-wide,
//! so simulations running beside a measurement on other threads never leak
//! into it. Work a measured thread hands to other threads counts only if
//! the code that spawned them reports it back; the crate that fans
//! simulations out over worker threads runs each worker inside `measure`
//! and reports the sum on the caller's thread. Measurements nest: a call
//! counts in every measurement around it.
//!
//! Outside any measurement a report costs one thread-local read. A
//! simulation counts its edges in a block of its own and reports only when
//! the public call returns; cycle-gear instants reach the block in closed
//! form when the call returns (or before a fast-gear batch), not one by one.
//!
//! # Examples
//!
//! ```
//! use mpsoc_kernel::{activity, ClockDomain, Component, Simulation, Snapshot, TickContext, Time};
//!
//! struct Spin;
//! impl Snapshot for Spin {}
//! impl Component<()> for Spin {
//!     fn name(&self) -> &str {
//!         "spin"
//!     }
//!     fn tick(&mut self, _ctx: &mut TickContext<'_, ()>) {}
//! }
//!
//! let mut sim: Simulation<()> = Simulation::new();
//! sim.add_component(Box::new(Spin), ClockDomain::from_mhz(100));
//! let ((), measured) = activity::measure(|| sim.run_until(Time::from_ns(95)));
//! assert_eq!(measured, sim.activity());
//! assert_eq!((measured.edges, measured.ticks), (10, 10));
//! ```

use std::cell::Cell;
use std::iter::Sum;
use std::ops::Add;

/// Counts of kernel work: one simulation's, or a measurement's sum.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Activity {
    /// Edges processed: distinct cycle-gear instants plus the edges of each
    /// fast-gear batch's longest window.
    pub edges: u64,
    /// Component ticks charged: dispatched plus `elided`.
    pub ticks: u64,
    /// Component ticks *skipped* by the sparse active-set schedule
    /// (components asleep on an edge their clock domain fired).
    pub skipped: u64,
    /// The part of `ticks` retired without running the component: charged
    /// ticks that a stall hint proved no-ops (back-pressure, mid-service),
    /// on an edge of the cycle gear or — retired by `FastCtx::stall` —
    /// inside a window of the fast one.
    pub elided: u64,
    /// Fast-forward windows processed in the loosely-timed gear (one per
    /// component per scheduling batch that was not skipped whole).
    pub ff_windows: u64,
    /// Component cycles covered by fast-forward windows but *not* charged:
    /// slept over by a hook's `FastCtx::sleep_until`. The loosely-timed
    /// gear's saving, in ticks.
    pub ff_elided: u64,
}

impl Activity {
    /// Applies `op` field by field.
    fn zip(self, other: Activity, op: fn(u64, u64) -> u64) -> Activity {
        Activity {
            edges: op(self.edges, other.edges),
            ticks: op(self.ticks, other.ticks),
            skipped: op(self.skipped, other.skipped),
            elided: op(self.elided, other.elided),
            ff_windows: op(self.ff_windows, other.ff_windows),
            ff_elided: op(self.ff_elided, other.ff_elided),
        }
    }

    /// The activity that happened between `earlier` and `self`.
    pub fn since(self, earlier: Activity) -> Activity {
        self.zip(earlier, u64::wrapping_sub)
    }
}

impl Add for Activity {
    type Output = Activity;

    fn add(self, other: Activity) -> Activity {
        self.zip(other, u64::wrapping_add)
    }
}

impl Sum for Activity {
    fn sum<I: Iterator<Item = Activity>>(iter: I) -> Activity {
        iter.fold(Activity::default(), Add::add)
    }
}

thread_local! {
    /// The activity reported on this thread since the innermost running
    /// [`measure`] began; `None` outside every measurement.
    static MEASURED: Cell<Option<Activity>> = const { Cell::new(None) };
}

/// Runs `f` and returns, beside its result, the activity of every
/// simulation call that returned on this thread while it ran. The result
/// also counts in every measurement around this one. If `f` unwinds, the
/// measurements around this one lose what they had counted.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Activity) {
    let outer = MEASURED.replace(Some(Activity::default()));
    let result = f();
    let measured = MEASURED.replace(outer).unwrap_or_default();
    report(measured);
    (result, measured)
}

/// Adds `activity` to the measurement running on this thread, if there is
/// one. Simulations report each public call; code that runs simulations
/// on threads of its own reports what it measured there.
pub fn report(activity: Activity) {
    if let Some(sum) = MEASURED.get() {
        MEASURED.set(Some(sum + activity));
    }
}

/// One simulation's activity since it was built or last restored, and the
/// part of it already reported.
#[derive(Debug, Default)]
pub(crate) struct Pending {
    total: Activity,
    reported: Activity,
}

impl Pending {
    /// Counts `edges` processed edges: cycle-gear instants, counted where
    /// the simulation settles its edge count, or the edges of one fast-gear
    /// batch.
    #[inline]
    pub(crate) fn record_edges(&mut self, edges: u64) {
        self.total.edges += edges;
    }

    /// Counts `ticks` charged component ticks — of which `elided` were
    /// retired without dispatch — and `skipped` sleeping ones.
    #[inline]
    pub(crate) fn record_ticks(&mut self, ticks: u64, skipped: u64, elided: u64) {
        self.total.ticks += ticks;
        self.total.skipped += skipped;
        self.total.elided += elided;
    }

    /// Counts one fast-gear scheduling batch: `windows` component windows
    /// processed, of which `elided` covered cycles were slept or seeked
    /// over instead of executed.
    #[inline]
    pub(crate) fn record_fast(&mut self, windows: u64, elided: u64) {
        self.total.ff_windows += windows;
        self.total.ff_elided += elided;
    }

    /// Everything counted, reported or not.
    pub(crate) fn total(&self) -> Activity {
        self.total
    }

    /// Reports everything counted since the last flush.
    pub(crate) fn flush(&mut self) {
        report(self.total.since(self.reported));
        self.reported = self.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges(edges: u64) -> Activity {
        Activity {
            edges,
            ..Activity::default()
        }
    }

    #[test]
    fn a_measurement_sums_the_reports_made_while_it_runs() {
        report(edges(100));
        let ((), measured) = measure(|| {
            report(edges(3));
            report(Activity {
                ticks: 5,
                ff_elided: 7,
                ..edges(2)
            });
        });
        report(edges(100));
        assert_eq!(
            measured,
            Activity {
                ticks: 5,
                ff_elided: 7,
                ..edges(5)
            }
        );
    }

    #[test]
    fn a_nested_measurement_counts_in_both() {
        let (inner, outer) = measure(|| {
            report(edges(1));
            let ((), inner) = measure(|| report(edges(10)));
            report(edges(100));
            inner
        });
        assert_eq!((inner, outer), (edges(10), edges(111)));
    }

    #[test]
    fn pending_counts_are_reported_on_flush_once() {
        let mut pending = Pending::default();
        pending.record_edges(1);
        pending.record_ticks(3, 1, 2);
        pending.record_fast(2, 7);
        let ((), measured) = measure(|| {
            pending.flush();
            pending.flush();
        });
        let want = Activity {
            edges: 1,
            ticks: 3,
            skipped: 1,
            elided: 2,
            ff_windows: 2,
            ff_elided: 7,
        };
        assert_eq!(measured, want);
        // The simulation's own totals survive the flush.
        assert_eq!(pending.total(), want);
    }
}
