//! # mpsoc-platform
//!
//! The virtual platform itself: this crate assembles the substrate crates
//! (kernel, protocols, buses, bridges, memories, traffic) into complete,
//! runnable MPSoC platform instances and reproduces every experiment of
//! Medardoni et al., *"Capturing the interaction of the communication,
//! memory and I/O subsystems in memory-centric industrial MPSoC platforms"*
//! (DATE 2007).
//!
//! ## Layers
//!
//! * [`PlatformBuilder`] — low-level wiring API: add buses (STBus, AHB,
//!   AXI), memories (on-chip or LMI + DDR SDRAM), bridges, traffic
//!   generators and DSP cores; the builder owns link creation and
//!   capacity conventions.
//! * [`PlatformSpec`] / [`build_platform`] — the reference
//!   consumer-electronics platform (Fig. 1 of the paper) and its
//!   architectural variants: *collapsed* (every actor on the central node)
//!   versus *distributed* (clustered, multi-layer with bridges), each
//!   instantiable over STBus, AHB or AXI and over either memory system.
//! * [`Platform::run`] — executes a workload to completion and produces a
//!   [`RunReport`] with execution time, bus utilisation, memory-interface
//!   statistics and per-IP latency figures.
//! * [`experiments`] — one entry point per table/figure of the paper,
//!   returning structured, printable results (see `DESIGN.md` for the
//!   experiment index).
//!
//! ## Quickstart
//!
//! ```
//! use mpsoc_platform::{build_platform, PlatformSpec, Topology, MemorySystem};
//! use mpsoc_protocol::ProtocolKind;
//!
//! let spec = PlatformSpec {
//!     protocol: ProtocolKind::StbusT3,
//!     topology: Topology::Collapsed,
//!     memory: MemorySystem::OnChip { wait_states: 1 },
//!     scale: 1,
//!     ..PlatformSpec::default()
//! };
//! let mut platform = build_platform(&spec)?;
//! let report = platform.run()?;
//! assert!(report.exec_time().as_ns() > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
pub mod experiments;
mod platforms;
mod report;
pub mod service;

pub use builder::{BusHandle, BusSpec, PlatformBuilder};
pub use platforms::{
    build_platform, build_platform_with_ips, build_single_layer, CustomIp, Interconnect,
    MemorySystem, Platform, PlatformSpec, SingleLayerSpec, Topology, Workload,
};
pub use report::{BusUtilization, LmiInterfaceReport, RunReport};
