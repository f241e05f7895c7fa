//! Deterministic fan-out for embarrassingly parallel experiment sweeps.
//!
//! Several experiments (the FIG-4 wait-state sweep, the many-to-many
//! protocol grid) are collections of *independent* simulations: each point
//! builds its own platform from a fixed spec and seed, so the points can run
//! on worker threads without changing any result. This module provides the
//! one primitive they need: an order-preserving parallel map built on
//! `std::thread::scope` — no external dependencies, no unsafe code.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use mpsoc_kernel::{activity, Activity};

/// The host's core count as the standard library sees it (1 when unknown):
/// the `jobs` a fan-out across the whole host asks for.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Applies `f` to every input on up to `jobs` threads — the caller's own
/// and `jobs - 1` spawned ones — and returns the outputs **in input order**.
///
/// Determinism: each input is claimed by exactly one worker via an atomic
/// index dispenser and its output is written back to the slot with the same
/// index, so the returned `Vec` is byte-for-byte the same as the sequential
/// `inputs.into_iter().map(f).collect()` for any pure `f` — only wall-clock
/// time changes with `jobs`.
///
/// With `jobs <= 1` (or a single input) no threads are spawned at all and
/// the map runs inline on the caller's thread.
///
/// The kernel [`activity`] of the spawned workers' simulations counts in
/// the caller's [`activity::measure`]ment, as the caller's own share does:
/// a measurement around the map reads the same at any `jobs`.
///
/// # Examples
///
/// ```
/// use mpsoc_platform::experiments::parallel_map;
///
/// let squares = parallel_map(vec![1u64, 2, 3, 4], 4, |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map<I, O, F>(inputs: Vec<I>, jobs: usize, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    parallel_map_with(inputs, jobs, |(): &mut (), input| f(input))
}

/// [`parallel_map`] with a state per worker: every worker starts from
/// `S::default()`, hands it to `f` with each input it claims, and drops it
/// on its own thread when no input is left — what a worker carries from
/// one input to its next (a platform to restore into, say) never outlives
/// the call nor crosses to another thread. Outputs are in input order; for
/// an `f` whose output does not depend on the state, they are
/// [`parallel_map`]'s.
pub fn parallel_map_with<I, O, S, F>(inputs: Vec<I>, jobs: usize, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    S: Default,
    F: Fn(&mut S, I) -> O + Sync,
{
    let n = inputs.len();
    let jobs = jobs.clamp(1, n.max(1));
    if jobs == 1 {
        let mut state = S::default();
        return inputs
            .into_iter()
            .map(|input| f(&mut state, input))
            .collect();
    }

    // Work items and result slots live behind per-slot mutexes so the whole
    // thing stays safe-Rust; each slot is locked exactly twice (claim, then
    // write-back), so contention is negligible next to a simulation run.
    let tasks: Vec<Mutex<Option<I>>> = inputs.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let slots: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    let work = || {
        let mut state = S::default();
        loop {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            if idx >= n {
                break;
            }
            let input = tasks[idx]
                .lock()
                .expect("task mutex poisoned")
                .take()
                .expect("each index is dispensed once");
            let output = f(&mut state, input);
            *slots[idx].lock().expect("slot mutex poisoned") = Some(output);
        }
    };
    // The caller takes a share instead of sleeping through the scope: one
    // thread fewer to start per call, and one fewer whose allocator arena
    // a whole simulation's memory ends up parked in. Its share reports to
    // its own activity measurement; each spawned worker's is measured on
    // that worker and reported here.
    let spawned: Activity = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..jobs)
            .map(|_| scope.spawn(move || activity::measure(work).1))
            .collect();
        work();
        helpers
            .into_iter()
            .map(|helper| helper.join().expect("a worker panicked"))
            .sum()
    });
    activity::report(spawned);

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot mutex poisoned")
                .expect("every slot is filled before the scope ends")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let out = parallel_map((0..64u64).collect(), 8, |x| x * 2);
        assert_eq!(out, (0..64u64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn inline_when_single_job() {
        let out = parallel_map(vec![5u32, 6], 1, |x| x + 1);
        assert_eq!(out, vec![6, 7]);
    }

    #[test]
    fn handles_empty_input() {
        let out: Vec<u8> = parallel_map(Vec::<u8>::new(), 4, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_jobs_than_items() {
        let out = parallel_map(vec![1u8, 2], 16, |x| x);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn a_worker_carries_its_state_from_input_to_input() {
        // Serially, one worker sees every input: its state is a running sum.
        let sums = parallel_map_with((1..=5u64).collect(), 1, |sum: &mut u64, x| {
            *sum += x;
            *sum
        });
        assert_eq!(sums, vec![1, 3, 6, 10, 15]);
        // Fanned out, every input still lands in its slot, and the workers'
        // states between them saw each input once.
        let seen = parallel_map_with((0..64u64).collect(), 4, |count: &mut u64, x| {
            *count += 1;
            (x * 2, *count)
        });
        assert_eq!(
            seen.iter().map(|&(x, _)| x).collect::<Vec<_>>(),
            (0..64u64).map(|x| x * 2).collect::<Vec<_>>()
        );
        assert!(seen.iter().all(|&(_, count)| (1..=64).contains(&count)));
    }

    /// Runs three components on three clocks up to `ns`; returns the
    /// simulation's activity.
    fn spin_until(ns: u64) -> Activity {
        use mpsoc_kernel::{ClockDomain, Component, Simulation, Snapshot, TickContext, Time};
        struct Spin;
        impl Snapshot for Spin {}
        impl Component<()> for Spin {
            fn name(&self) -> &str {
                "spin"
            }
            fn tick(&mut self, _ctx: &mut TickContext<'_, ()>) {}
        }
        let mut sim: Simulation<()> = Simulation::new();
        for mhz in [100, 133, 250] {
            sim.add_component(Box::new(Spin), ClockDomain::from_mhz(mhz));
        }
        sim.run_until(Time::from_ns(ns));
        sim.activity()
    }

    #[test]
    fn a_measurement_around_the_map_counts_every_worker() {
        let inputs: Vec<u64> = (1..=24).map(|i| i * 37).collect();
        let at = |jobs| activity::measure(|| parallel_map(inputs.clone(), jobs, spin_until));
        let (each, serial) = at(1);
        assert_eq!(serial, each.iter().copied().sum());
        for jobs in [2, 4] {
            assert_eq!(at(jobs), (each.clone(), serial), "jobs {jobs}");
        }
    }

    #[test]
    fn matches_sequential_for_stateless_work() {
        let seq = parallel_map((0..33u64).collect(), 1, |x| x.wrapping_mul(0x9e37));
        let par = parallel_map((0..33u64).collect(), 4, |x| x.wrapping_mul(0x9e37));
        assert_eq!(seq, par);
    }
}
