//! What every interconnect shares: its port and route table, and — on a
//! split-transaction bus — the bookkeeping of the transactions it forwarded.
//! A bus is its ports as data plus its own timing.

use crate::{
    AddressMap, AddressMapError, AddressRange, InitiatorId, Packet, Transaction, TransactionId,
};
use mpsoc_kernel::{Component, LinkId};
use std::collections::{HashMap, VecDeque};

/// The wires of an attached initiator.
#[derive(Debug, Clone, Copy)]
pub struct InitiatorPort {
    /// Requests flowing into the bus.
    pub req_in: LinkId,
    /// Responses flowing back out.
    pub resp_out: LinkId,
}

/// The wires of an attached target.
#[derive(Debug, Clone, Copy)]
pub struct TargetPort {
    /// Requests flowing out to the target.
    pub req_out: LinkId,
    /// Responses flowing back in.
    pub resp_in: LinkId,
}

/// An interconnect's initiator and target ports and its address map from
/// addresses to target ports.
#[derive(Debug, Default)]
pub struct Ports {
    initiators: Vec<InitiatorPort>,
    targets: Vec<TargetPort>,
    map: AddressMap<usize>,
}

impl Ports {
    // Attaching goes through `Interconnect`, which sizes a bus's ledger
    // with its initiator ports.
    pub(crate) fn add_initiator(&mut self, req_in: LinkId, resp_out: LinkId) -> usize {
        self.initiators.push(InitiatorPort { req_in, resp_out });
        self.initiators.len() - 1
    }

    pub(crate) fn add_target(&mut self, req_out: LinkId, resp_in: LinkId) -> usize {
        self.targets.push(TargetPort { req_out, resp_in });
        self.targets.len() - 1
    }

    pub(crate) fn add_route(
        &mut self,
        range: AddressRange,
        target: usize,
    ) -> Result<(), AddressMapError> {
        assert!(
            target < self.targets.len(),
            "route to unknown target port {target}"
        );
        self.map.add(range, target)
    }

    /// The initiator ports, by index.
    #[inline]
    pub fn initiators(&self) -> &[InitiatorPort] {
        &self.initiators
    }

    /// The target ports, by index.
    #[inline]
    pub fn targets(&self) -> &[TargetPort] {
        &self.targets
    }

    /// Initiator port `p`.
    #[inline]
    pub fn initiator(&self, p: usize) -> &InitiatorPort {
        &self.initiators[p]
    }

    /// Target port `t`.
    #[inline]
    pub fn target(&self, t: usize) -> &TargetPort {
        &self.targets[t]
    }

    /// The target port `addr` decodes to, if any.
    #[inline]
    pub fn route(&self, addr: u64) -> Option<usize> {
        self.map.route(addr)
    }

    /// The target port `addr` decodes to; panics, naming the bus, if none
    /// does (a request nothing decodes is a platform wiring bug).
    #[inline]
    pub fn expect_route(&self, addr: u64, bus: &str) -> usize {
        self.route(addr)
            .unwrap_or_else(|| panic!("{bus}: no route for address {addr:#x}"))
    }

    /// The wires whose deliveries wake the bus: every initiator's request
    /// wire, then every target's response wire. A stall hint's input
    /// indices follow this order.
    pub fn watched_links(&self) -> Vec<LinkId> {
        self.initiators
            .iter()
            .map(|p| p.req_in)
            .chain(self.targets.iter().map(|t| t.resp_in))
            .collect()
    }
}

/// A bus as a platform wires it: a component whose wiring is a [`Ports`]
/// table (and, on a split-transaction bus, a [`SplitLedger`] sized with it).
/// Every bus crate's example wires one through this trait.
pub trait Interconnect: Component<Packet> {
    /// The port table.
    fn ports_mut(&mut self) -> &mut Ports;

    /// The split-transaction ledger, on a bus that keeps one.
    fn ledger_mut(&mut self) -> Option<&mut SplitLedger> {
        None
    }

    /// Attaches an initiator port; returns its index.
    fn add_initiator(&mut self, req_in: LinkId, resp_out: LinkId) -> usize {
        if let Some(ledger) = self.ledger_mut() {
            ledger.outstanding.push(0);
        }
        self.ports_mut().add_initiator(req_in, resp_out)
    }

    /// Attaches a target port; returns its index.
    fn add_target(&mut self, req_out: LinkId, resp_in: LinkId) -> usize {
        self.ports_mut().add_target(req_out, resp_in)
    }

    /// Routes an address range to a target port.
    ///
    /// # Errors
    ///
    /// Returns an error if the range overlaps an existing route.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not a valid target-port index.
    fn add_route(&mut self, range: AddressRange, target: usize) -> Result<(), AddressMapError> {
        self.ports_mut().add_route(range, target)
    }
}

/// What a split-transaction bus remembers of the response-expecting
/// transactions it forwarded. Issue order is kept per source (the original
/// initiator id), not per port, which would deadlock behind bridges that
/// multiplex several sources. Fields are public for `snapshot_state!`.
#[derive(Debug, Default)]
pub struct SplitLedger {
    /// Response-expecting transactions in flight per initiator port.
    pub outstanding: Vec<usize>,
    /// The initiator port each in-flight transaction entered by.
    pub in_flight: HashMap<TransactionId, usize>,
    /// Issue order of the in-flight transactions per source.
    pub expected_by_source: HashMap<InitiatorId, VecDeque<TransactionId>>,
}

impl SplitLedger {
    /// Records `txn`, granted from initiator `port`, if it expects a
    /// response; an acceptance-completing write is done once forwarded.
    pub fn issue(&mut self, port: usize, txn: &Transaction) {
        if txn.completes_on_acceptance() {
            return;
        }
        self.outstanding[port] += 1;
        self.expected_by_source
            .entry(txn.initiator)
            .or_default()
            .push_back(txn.id);
        self.in_flight.insert(txn.id, port);
    }

    /// The initiator port an in-flight transaction entered by.
    #[inline]
    pub fn port_of(&self, id: TransactionId) -> Option<usize> {
        self.in_flight.get(&id).copied()
    }

    /// Whether an older transaction of `txn`'s source is still in flight,
    /// so that an in-order bus must hold `txn`'s response back.
    #[inline]
    pub fn behind_head(&self, txn: &Transaction) -> bool {
        self.expected_by_source
            .get(&txn.initiator)
            .and_then(|q| q.front())
            .is_some_and(|&head| head != txn.id)
    }

    /// Forgets a completed or abandoned transaction, frees its port's slot
    /// and returns the port. `in_order` pops its source's head (checked by
    /// [`behind_head`](Self::behind_head)); otherwise it is taken out
    /// wherever it stands.
    pub fn retire(&mut self, txn: &Transaction, in_order: bool) -> Option<usize> {
        let port = self.in_flight.remove(&txn.id);
        if let Some(q) = self.expected_by_source.get_mut(&txn.initiator) {
            if in_order {
                q.pop_front();
            } else {
                q.retain(|&id| id != txn.id);
            }
            if q.is_empty() {
                self.expected_by_source.remove(&txn.initiator);
            }
        }
        if let Some(p) = port {
            self.outstanding[p] = self.outstanding[p].saturating_sub(1);
        }
        port
    }

    /// Moves a re-issued transaction to the back of its source's order: the
    /// target now sees it after everything granted before it.
    pub fn reissue(&mut self, txn: &Transaction) {
        if txn.completes_on_acceptance() {
            return;
        }
        if let Some(q) = self.expected_by_source.get_mut(&txn.initiator) {
            q.retain(|&id| id != txn.id);
            q.push_back(txn.id);
        }
    }

    /// Restore's fit check: one count per port, and every in-flight
    /// transaction entered by a port that exists.
    pub fn fits(&self, ports: usize) -> bool {
        self.outstanding.len() == ports && self.in_flight.values().all(|&port| port < ports)
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.in_flight.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AddressMapError, DataWidth};
    use mpsoc_kernel::{LinkPool, Time};

    /// A table with `initiators` and `targets` ports on fresh wires.
    fn ports(initiators: usize, targets: usize) -> (Ports, Vec<LinkId>) {
        let mut pool: LinkPool<Packet> = LinkPool::new();
        let mut wires = Vec::new();
        let mut wire = |name: String| {
            let id = pool.add_link(name, 1, Time::from_ns(4));
            wires.push(id);
            id
        };
        let mut ports = Ports::default();
        for i in 0..initiators {
            ports.add_initiator(wire(format!("i{i}.req")), wire(format!("i{i}.resp")));
        }
        for t in 0..targets {
            ports.add_target(wire(format!("t{t}.req")), wire(format!("t{t}.resp")));
        }
        (ports, wires)
    }

    fn txn(source: u16, seq: u64) -> Transaction {
        Transaction::builder(InitiatorId::new(source), seq)
            .read(0x100)
            .beats(1)
            .width(DataWidth::BITS32)
            .build()
    }

    #[test]
    fn overlapping_routes_are_rejected() {
        let (mut ports, _) = ports(1, 2);
        ports.add_route(AddressRange::new(0, 0x1000), 0).unwrap();
        let err = ports
            .add_route(AddressRange::new(0x800, 0x2000), 1)
            .unwrap_err();
        assert!(matches!(err, AddressMapError::Overlap { .. }));
        ports
            .add_route(AddressRange::new(0x1000, 0x2000), 1)
            .unwrap();
        assert_eq!(ports.route(0xfff), Some(0));
        assert_eq!(ports.expect_route(0x1000, "bus"), 1);
        assert_eq!(ports.route(0x2000), None);
    }

    #[test]
    #[should_panic(expected = "route to unknown target port 2")]
    fn a_route_to_an_unknown_target_panics() {
        let (mut ports, _) = ports(1, 2);
        let _ = ports.add_route(AddressRange::new(0, 0x1000), 2);
    }

    #[test]
    #[should_panic(expected = "n1: no route for address 0x2000")]
    fn an_unrouted_address_panics_naming_the_bus() {
        let (mut ports, _) = ports(1, 1);
        ports.add_route(AddressRange::new(0, 0x1000), 0).unwrap();
        ports.expect_route(0x2000, "n1");
    }

    #[test]
    fn watched_links_are_initiator_requests_then_target_responses() {
        let (ports, w) = ports(2, 2);
        // Wires in creation order: i0.req i0.resp i1.req i1.resp t0.req
        // t0.resp t1.req t1.resp.
        assert_eq!(ports.watched_links(), vec![w[0], w[2], w[5], w[7]]);
        assert_eq!(ports.initiator(1).resp_out, w[3]);
        assert_eq!(ports.target(0).req_out, w[4]);
    }

    #[test]
    fn issue_and_retire_round_trip() {
        let mut ledger = SplitLedger {
            outstanding: vec![0, 0],
            ..SplitLedger::default()
        };
        let (a, b) = (txn(0, 1), txn(1, 1));
        ledger.issue(0, &a);
        ledger.issue(1, &b);
        let posted = Transaction::builder(InitiatorId::new(0), 2)
            .write(0x100)
            .posted(true)
            .build();
        ledger.issue(0, &posted);
        assert_eq!(ledger.outstanding, vec![1, 1]);
        assert_eq!(ledger.port_of(b.id), Some(1));
        assert_eq!(ledger.port_of(posted.id), None);
        assert!(ledger.expected_by_source.contains_key(&InitiatorId::new(1)));

        assert_eq!(ledger.retire(&b, false), Some(1));
        assert_eq!(ledger.retire(&a, true), Some(0));
        assert_eq!(ledger.retire(&a, true), None);
        assert_eq!(ledger.outstanding, vec![0, 0]);
        assert!(ledger.is_empty() && ledger.expected_by_source.is_empty());
    }

    #[test]
    fn in_order_delivery_waits_for_the_source_head() {
        let mut ledger = SplitLedger {
            outstanding: vec![0],
            ..SplitLedger::default()
        };
        let (first, second, other) = (txn(0, 1), txn(0, 2), txn(1, 1));
        for t in [&first, &second, &other] {
            ledger.issue(0, t);
        }
        assert!(ledger.behind_head(&second));
        assert!(!ledger.behind_head(&first) && !ledger.behind_head(&other));
        // A re-issued head goes to the back of its source's order.
        ledger.reissue(&first);
        assert!(ledger.behind_head(&first) && !ledger.behind_head(&second));
        ledger.retire(&second, true);
        assert!(!ledger.behind_head(&first));
        assert_eq!(ledger.outstanding, vec![2]);
    }

    #[test]
    fn the_fit_check_refuses_a_port_past_the_count() {
        let mut ledger = SplitLedger {
            outstanding: vec![0, 0],
            ..SplitLedger::default()
        };
        ledger.issue(1, &txn(0, 1));
        assert!(ledger.fits(2));
        assert!(!ledger.fits(3), "one count per port");
        ledger.outstanding.push(0);
        ledger.in_flight.insert(txn(0, 2).id, 3);
        assert!(!ledger.fits(3), "in-flight entry on port 3 of 3");
    }
}
