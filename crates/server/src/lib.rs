//! # mpsoc-server
//!
//! Simulation-as-a-service for the mpsoc-platform workspace: a
//! long-running, std-only TCP/JSON-lines server that accepts sweep
//! requests (platform configuration + workload + seed + sweep-axis value +
//! fidelity knobs), schedules them across cores, and streams structured
//! results back.
//!
//! The centerpiece is a bounded **LRU cache of warm-prefix checkpoints**
//! keyed by the request's warm identity and guarded by the kernel's
//! structural fingerprint: the first request for a platform runs the warm
//! prefix once and checkpoints at the traffic-anchored warm boundary;
//! every subsequent request for the same platform forks the shared blob
//! (an `Arc` bump, not a copy) and simulates only its own tail. Because
//! snapshot restore is bit-exact and the warm state is a pure function of
//! the request, **a cache hit returns byte-identical results to a cold
//! run** — the `loadgen` client asserts this on every duplicate response
//! and CI diffs served tables against the one-shot `repro` output.
//!
//! ## Pieces
//!
//! * [`json`] — the workspace's one JSON reader, re-exported from
//!   `mpsoc-bench` (where the perf-ledger reader also uses it); it caps
//!   nesting depth, so no request line can overflow a handler's stack;
//! * [`protocol`] — the request/response line format;
//! * [`cache`] — the fingerprint-checked, deterministically-LRU warm
//!   cache with concurrent-miss collapsing;
//! * [`persist`] — the disk spill layer that makes warm checkpoints
//!   survive a server restart (fail-closed, doubly checksummed);
//! * [`server`] — blocking per-connection readers feeding a bounded handler
//!   pool, and the serving path behind them;
//! * [`loadgen`] — the deterministic load generator and its run report.
//!
//! ## Binaries
//!
//! * `simserved` — bind a port (0 for ephemeral) and serve until a
//!   `shutdown` request;
//! * `loadgen` — drive a seeded duplicate-heavy request mix against a
//!   server, check response agreement, reconstruct the FIG-4 table, and
//!   optionally record throughput/latency/hit-rate into the performance
//!   ledger.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod loadgen;
pub mod persist;
pub mod protocol;
pub mod server;

pub use cache::{CacheStats, Lookup, WarmCache};
pub use mpsoc_bench::json;
pub use persist::{DiskCache, DiskStats};
pub use server::{Server, ServerConfig};
