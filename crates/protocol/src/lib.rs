//! # mpsoc-protocol
//!
//! Protocol-agnostic vocabulary shared by every bus, bridge, memory and
//! traffic model in the workspace: transactions, request/response packets,
//! address decoding, data-width algebra and protocol capability descriptors.
//!
//! The reference platform (Medardoni et al., DATE 2007) mixes three on-chip
//! communication protocols — STBus Types 1/2/3, AMBA AHB and AMBA AXI — over
//! heterogeneous data widths and clock frequencies. This crate captures what
//! those protocols have in common so that initiators (traffic generators,
//! the DSP model), targets (memories, the LMI controller) and bridges can be
//! wired to any interconnect without modification:
//!
//! * [`Transaction`] — a timing-accurate read or write burst with message
//!   grouping (STBus message-based arbitration operates on these groups).
//! * [`Packet`] — the payload type carried on kernel links: a request or a
//!   response.
//! * [`AddressMap`] — validated, non-overlapping address decoding.
//! * [`Ports`], [`Interconnect`] and [`SplitLedger`] — the port and route
//!   table every bus is wired through, and the bookkeeping of split
//!   transactions.
//! * [`DataWidth`] — bus width algebra (beat counts across conversions).
//! * [`ProtocolKind`] — per-protocol capability matrix (split transactions,
//!   posted writes, out-of-order responses, outstanding limits).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod address;
mod arbitration;
mod ids;
mod packet;
pub mod persist;
mod ports;
mod protocol_kind;
pub mod testing;
mod tlm;
mod transaction;
mod width;

pub use address::{AddressMap, AddressMapError, AddressRange};
pub use arbitration::{ArbitrationPolicy, Contender};
pub use ids::{InitiatorId, MessageId, TransactionId};
pub use packet::{Packet, Response};
pub use ports::{InitiatorPort, Interconnect, Ports, SplitLedger, TargetPort};
pub use protocol_kind::ProtocolKind;
pub use tlm::{TlmBus, TlmBusConfig};
pub use transaction::{Opcode, Transaction, TransactionBuilder};
pub use width::DataWidth;
