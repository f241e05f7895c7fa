//! The snapshot codec ([`Persist`]) for protocol vocabulary types.
//!
//! Every component crate that carries [`Transaction`]s or [`Response`]s in
//! its private state (FIFOs, in-flight tables, retry queues) declares those
//! fields with [`snapshot_state!`](mpsoc_kernel::snapshot_state), and the
//! kernel serializes link queues through the impl for [`Packet`].
//!
//! Identifiers are written as their raw packed representations, which
//! round-trip exactly. A decoded value a type cannot hold — a data width
//! that is not a power of two up to 64 bytes — refuses the blob.

use crate::ids::{InitiatorId, MessageId, TransactionId};
use crate::packet::{Packet, Response};
use crate::transaction::{Opcode, Transaction};
use crate::width::DataWidth;
use mpsoc_kernel::{Persist, StateReader, StateWriter};

impl Persist for TransactionId {
    const MIN_BYTES: usize = 9;

    fn save(&self, w: &mut StateWriter) {
        w.write_u64(self.raw());
    }

    fn load(r: &mut StateReader<'_>) -> Self {
        let raw = r.read_u64();
        TransactionId::new(InitiatorId::new((raw >> 48) as u16), raw & 0xffff_ffff_ffff)
    }
}

impl Persist for InitiatorId {
    const MIN_BYTES: usize = 3;

    fn save(&self, w: &mut StateWriter) {
        w.write_u16(self.raw());
    }

    fn load(r: &mut StateReader<'_>) -> Self {
        InitiatorId::new(r.read_u16())
    }
}

impl Persist for MessageId {
    const MIN_BYTES: usize = 9;

    fn save(&self, w: &mut StateWriter) {
        w.write_u64(self.raw());
    }

    fn load(r: &mut StateReader<'_>) -> Self {
        MessageId::new(r.read_u64())
    }
}

/// As `is_write`.
impl Persist for Opcode {
    const MIN_BYTES: usize = 2;

    fn save(&self, w: &mut StateWriter) {
        w.write_bool(self.is_write());
    }

    fn load(r: &mut StateReader<'_>) -> Self {
        if r.read_bool() {
            Opcode::Write
        } else {
            Opcode::Read
        }
    }
}

/// As its byte count.
impl Persist for DataWidth {
    const MIN_BYTES: usize = 5;

    fn save(&self, w: &mut StateWriter) {
        w.write_u32(self.bytes());
    }

    fn load(r: &mut StateReader<'_>) -> Self {
        let bytes = r.read_u32();
        if bytes.is_power_of_two() && bytes <= 64 {
            DataWidth::from_bytes(bytes)
        } else {
            r.refuse(format!("data width of {bytes} bytes"));
            DataWidth::BITS32
        }
    }
}

mpsoc_kernel::snapshot_state! {
    impl Persist for Transaction {
        id, initiator, opcode, addr, beats, width, priority, posted, message, last_in_message,
        created_at,
    }
}

mpsoc_kernel::snapshot_state! {
    impl Persist for Response { txn, gap_per_beat, serviced_at, error }
}

/// A `bool` (`true` for a response), then the request or the response.
impl Persist for Packet {
    fn save(&self, w: &mut StateWriter) {
        match self {
            Packet::Request(txn) => {
                w.write_bool(false);
                txn.save(w);
            }
            Packet::Response(resp) => {
                w.write_bool(true);
                resp.save(w);
            }
        }
    }

    fn load(r: &mut StateReader<'_>) -> Self {
        if r.read_bool() {
            Packet::Response(Persist::load(r))
        } else {
            Packet::Request(Persist::load(r))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc_kernel::Time;

    fn sample_txn() -> Transaction {
        Transaction::builder(InitiatorId::new(9), 0x1234)
            .write(0xdead_0000)
            .beats(7)
            .width(DataWidth::BITS64)
            .priority(3)
            .posted(true)
            .message(MessageId::new(55), false)
            .created_at(Time::from_ns(120))
            .build()
    }

    /// The derived encoding is the field list the hand-written one was.
    #[test]
    fn txn_round_trips_exactly_in_its_field_order() {
        let txn = sample_txn();
        let mut w = StateWriter::new();
        txn.save(&mut w);
        let blob = w.finish();
        let by_hand = {
            let mut w = StateWriter::new();
            w.write_u64(txn.id.raw());
            w.write_u16(9);
            w.write_bool(true);
            w.write_u64(0xdead_0000);
            w.write_u32(7);
            w.write_u32(8);
            w.write_u8(3);
            w.write_bool(true);
            w.write_u64(55);
            w.write_bool(false);
            w.write_u64(120_000);
            w.finish()
        };
        assert_eq!(blob.as_bytes(), by_hand.as_bytes());
        let mut r = StateReader::new(&blob).unwrap();
        assert_eq!(Transaction::load(&mut r), txn);
        r.finish().unwrap();
    }

    #[test]
    fn packet_variants_and_options_round_trip() {
        let req = Packet::Request(sample_txn());
        let resp = Packet::Response(Response::new(sample_txn(), Time::from_ns(300)).with_gap(2));
        let err = Packet::Response(Response::error(sample_txn(), Time::from_ns(5)));
        let mut w = StateWriter::new();
        for p in [&req, &resp, &err] {
            p.save(&mut w);
        }
        Some(sample_txn()).save(&mut w);
        None::<Response>.save(&mut w);
        let blob = w.finish();
        let mut r = StateReader::new(&blob).unwrap();
        assert_eq!(Packet::load(&mut r), req);
        assert_eq!(Packet::load(&mut r), resp);
        assert_eq!(Packet::load(&mut r), err);
        assert_eq!(Option::<Transaction>::load(&mut r), Some(sample_txn()));
        assert_eq!(Option::<Response>::load(&mut r), None);
        r.finish().unwrap();
    }

    #[test]
    fn a_width_no_bus_has_refuses_the_blob() {
        let mut w = StateWriter::new();
        w.write_u32(24);
        let blob = w.finish();
        let mut r = StateReader::new(&blob).unwrap();
        DataWidth::load(&mut r);
        assert!(r.finish().is_err());
    }
}
