//! # mpsoc-kernel
//!
//! A deterministic, multi-clock-domain, cycle-accurate discrete-event
//! simulation kernel for modelling on-chip communication architectures.
//!
//! This crate is the substrate on which the rest of the workspace builds the
//! virtual platform of Medardoni et al., *"Capturing the interaction of the
//! communication, memory and I/O subsystems in memory-centric industrial
//! MPSoC platforms"* (DATE 2007). It plays the role SystemC played in the
//! paper: an ordered, clock-accurate evaluation engine for synchronous
//! hardware component models.
//!
//! ## Model
//!
//! * Time is a [`Time`] in **picoseconds** on a global `u64` timeline.
//! * Every [`Component`] belongs to a [`ClockDomain`] and is *ticked* once per
//!   rising edge of its clock, in deterministic registration order.
//! * Components communicate exclusively through [`Link`]s: bounded, timed
//!   FIFOs owned by a central [`LinkPool`]. A payload pushed at time *t*
//!   becomes visible to the consumer at *t + latency*; capacity is reserved at
//!   push time so back-pressure is cycle-accurate.
//! * Metrics are recorded into a [`StatsRegistry`] (counters, histograms and
//!   time-weighted state-residency timers).
//!
//! ## Example
//!
//! ```
//! use mpsoc_kernel::{Simulation, Component, TickContext, ClockDomain, Time};
//!
//! struct Counter { ticks: u64 }
//! // The dynamic state, declared once: checkpoint and restore follow.
//! mpsoc_kernel::snapshot_state! { impl Snapshot for Counter { ticks } }
//! impl Component<()> for Counter {
//!     fn name(&self) -> &str { "counter" }
//!     fn tick(&mut self, _ctx: &mut TickContext<'_, ()>) { self.ticks += 1; }
//!     fn is_idle(&self) -> bool { true }
//! }
//!
//! let mut sim: Simulation<()> = Simulation::new();
//! let clk = ClockDomain::from_mhz(100); // 10 ns period
//! sim.add_component(Box::new(Counter { ticks: 0 }), clk);
//! sim.run_until(Time::from_ns(95));
//! // Edges at 0, 10, ..., 90 ns have fired; the kernel stops at the last
//! // edge not exceeding the bound.
//! assert_eq!(sim.time(), Time::from_ns(90));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
mod clock;
mod component;
mod error;
mod fast;
pub mod fault;
mod link;
pub mod reference;
mod rng;
mod sim;
pub mod snapshot;
pub mod stats;
mod time;
pub mod trace;
pub mod vcd;

pub use activity::Activity;
pub use clock::ClockDomain;
pub use component::{Component, ComponentId, Gate, StallHint, TickContext};
pub use error::{SimError, SimResult};
pub use fast::FastCtx;
pub use fault::{FaultAccess, FaultCounts, FaultEngine, FaultKind, FaultSchedule};
pub use link::{Link, LinkAccess, LinkId, LinkPool};
pub use rng::SplitMix64;
pub use sim::{ExecMode, Fidelity, RunOutcome, Simulation};
pub use snapshot::{
    fnv1a_64, load_blob, spill_blob, Persist, Snapshot, SnapshotBlob, SnapshotError, StateReader,
    StateWriter,
};
pub use stats::{StatsAccess, StatsRegistry};
pub use time::{Cycles, Time};
pub use trace::{TraceBuffer, TraceKind, TraceRecord};
