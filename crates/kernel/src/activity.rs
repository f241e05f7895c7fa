//! Process-wide kernel activity counters.
//!
//! Every [`Simulation::step`](crate::Simulation::step) (and its
//! [`reference`](crate::reference) counterpart) records the edge, the number
//! of component ticks it charged (and how many of those it elided, see
//! [`Component::stall_hint`](crate::Component::stall_hint)) and the number
//! it skipped (sparse ticking) into relaxed atomics. Harness code (the `repro` binary, microbenches)
//! snapshots them around a workload to report host-side throughput —
//! `edges/sec` and simulated ticks/sec — and the ticked/skipped split,
//! without threading handles through every experiment's plumbing.
//!
//! The counters are global and monotonically increasing; meaningful rates
//! come from **differences between snapshots**, which are valid even when
//! several simulations run concurrently on different threads (the deltas
//! then aggregate all of them).
//!
//! A simulation counts its edges — cycle-gear and fast-gear alike — in a
//! private block and adds it to the globals when the public
//! call that ran them (`step`, `run_until`, `run_to_quiescence`) returns,
//! so a snapshot sees every call that has returned and nothing of one still
//! running. Cycle-gear instants reach the block in closed form when the
//! call returns (or before a fast-gear batch), not one by one. Bumping the shared atomics on every edge cost a single run 12 %
//! and, with the cache line bouncing between two cores, two concurrent runs
//! in one process 50 % each. The block also keeps the simulation's own
//! lifetime totals, which is what a test asserting "this simulation did
//! *not* do X" must read: a zero delta on the globals is only true while no
//! sibling thread is simulating.
//!
//! # Examples
//!
//! ```
//! use mpsoc_kernel::activity;
//!
//! let before = activity::snapshot();
//! // ... run simulations ...
//! let delta = activity::snapshot().since(before);
//! println!("{} edges, {} ticks, {} skipped", delta.edges, delta.ticks, delta.skipped);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

static EDGES: AtomicU64 = AtomicU64::new(0);
static TICKS: AtomicU64 = AtomicU64::new(0);
static SKIPPED: AtomicU64 = AtomicU64::new(0);
static ELIDED: AtomicU64 = AtomicU64::new(0);
static FF_WINDOWS: AtomicU64 = AtomicU64::new(0);
static FF_ELIDED: AtomicU64 = AtomicU64::new(0);

/// A point-in-time reading of the global activity counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ActivitySnapshot {
    /// Total edges processed by all simulations in this process so far.
    pub edges: u64,
    /// Total component ticks executed by all simulations so far.
    pub ticks: u64,
    /// Total component ticks *skipped* by the sparse active-set schedule
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

impl ActivitySnapshot {
    /// The activity that happened between `earlier` and `self`.
    pub fn since(self, earlier: ActivitySnapshot) -> ActivitySnapshot {
        ActivitySnapshot {
            edges: self.edges.wrapping_sub(earlier.edges),
            ticks: self.ticks.wrapping_sub(earlier.ticks),
            skipped: self.skipped.wrapping_sub(earlier.skipped),
            elided: self.elided.wrapping_sub(earlier.elided),
            ff_windows: self.ff_windows.wrapping_sub(earlier.ff_windows),
            ff_elided: self.ff_elided.wrapping_sub(earlier.ff_elided),
        }
    }
}

/// Reads the current counter values.
pub fn snapshot() -> ActivitySnapshot {
    ActivitySnapshot {
        edges: EDGES.load(Ordering::Relaxed),
        ticks: TICKS.load(Ordering::Relaxed),
        skipped: SKIPPED.load(Ordering::Relaxed),
        elided: ELIDED.load(Ordering::Relaxed),
        ff_windows: FF_WINDOWS.load(Ordering::Relaxed),
        ff_elided: FF_ELIDED.load(Ordering::Relaxed),
    }
}

/// Records one processed edge that executed `ticks` component ticks and
/// skipped `skipped` sleeping ones.
#[inline]
pub(crate) fn record_edge(ticks: u64, skipped: u64) {
    EDGES.fetch_add(1, Ordering::Relaxed);
    TICKS.fetch_add(ticks, Ordering::Relaxed);
    if skipped != 0 {
        SKIPPED.fetch_add(skipped, Ordering::Relaxed);
    }
}

/// One simulation's activity: everything it has counted since it was
/// built, and how much of that has reached the process-wide counters.
#[derive(Debug, Default)]
pub(crate) struct Pending {
    total: ActivitySnapshot,
    reported: ActivitySnapshot,
}

impl Pending {
    /// Counts `edges` processed edges: cycle-gear instants, counted where
    /// the simulation settles its edge count, or one fast-gear batch.
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

    /// This simulation's own counts since it was built, flushed or not.
    #[cfg(test)]
    pub(crate) fn total(&self) -> ActivitySnapshot {
        self.total
    }

    /// Adds everything counted since the last flush to the process-wide
    /// counters.
    pub(crate) fn flush(&mut self) {
        let pending = self.total.since(self.reported);
        self.reported = self.total;
        for (counter, count) in [
            (&EDGES, pending.edges),
            (&TICKS, pending.ticks),
            (&SKIPPED, pending.skipped),
            (&ELIDED, pending.elided),
            (&FF_WINDOWS, pending.ff_windows),
            (&FF_ELIDED, pending.ff_elided),
        ] {
            if count != 0 {
                counter.fetch_add(count, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_accumulate() {
        let before = snapshot();
        record_edge(3, 1);
        record_edge(2, 0);
        let delta = snapshot().since(before);
        // Other tests may run concurrently, so >=, not ==.
        assert!(delta.edges >= 2);
        assert!(delta.ticks >= 5);
        assert!(delta.skipped >= 1);
    }

    #[test]
    fn pending_counts_reach_the_globals_on_flush_once() {
        let before = snapshot();
        let mut pending = Pending::default();
        pending.record_edges(1);
        pending.record_ticks(3, 1, 2);
        pending.record_fast(2, 7);
        pending.flush();
        pending.flush();
        let delta = snapshot().since(before);
        assert!(delta.edges >= 1 && delta.ticks >= 3 && delta.skipped >= 1);
        assert!(delta.elided >= 2);
        assert!(delta.ff_windows >= 2 && delta.ff_elided >= 7);
        // The simulation's own totals survive the flush and are exact.
        let own = pending.total();
        assert_eq!((own.edges, own.ticks, own.ff_windows), (1, 3, 2));
    }
}
