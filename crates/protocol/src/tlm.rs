//! A transaction-level (TLM) interconnect: the fast, approximate end of the
//! multi-abstraction spectrum.
//!
//! The paper's virtual platform is explicitly *multi-abstraction*: IPTGs can
//! "generate bus transactions at different abstraction levels
//! (transaction-level, bus cycle-accurate) according to what is specified".
//! [`TlmBus`] is the transaction-level transport: it routes requests and
//! responses with a fixed latency and **no arbitration, channel occupancy or
//! back-pressure modelling** beyond link capacities. Runs are much faster
//! and still functionally correct, at the cost of contention accuracy —
//! useful for warm-up, software bring-up and first-order exploration before
//! switching the same platform to the cycle-accurate buses.
//!
//! It lives in `mpsoc-protocol` because it is protocol-agnostic by
//! construction.

use crate::packet::Packet;
use crate::{Interconnect, Ports, TransactionId};
use mpsoc_kernel::{ClockDomain, Component, TickContext};
use std::collections::HashMap;

/// Configuration of a [`TlmBus`].
#[derive(Debug, Clone, Copy)]
pub struct TlmBusConfig {
    /// Fixed forwarding latency, in bus cycles, applied in each direction.
    pub latency_cycles: u64,
    /// How many packets may be forwarded per direction per cycle (models an
    /// aggregate bandwidth ceiling without per-channel detail; `usize::MAX`
    /// for a pure functional transport).
    pub packets_per_cycle: usize,
}

impl Default for TlmBusConfig {
    fn default() -> Self {
        TlmBusConfig {
            latency_cycles: 2,
            packets_per_cycle: usize::MAX,
        }
    }
}

/// A transaction-level interconnect with fixed latency and no contention
/// modelling.
///
/// Wiring is identical to the cycle-accurate buses, so platforms can swap
/// fidelity without touching endpoints.
///
/// # Examples
///
/// ```
/// use mpsoc_kernel::{Simulation, ClockDomain};
/// use mpsoc_protocol::{AddressRange, Interconnect, Packet, TlmBus, TlmBusConfig};
///
/// let mut sim: Simulation<Packet> = Simulation::new();
/// let clk = ClockDomain::from_mhz(250);
/// let i_req = sim.links_mut().add_link("i.req", 4, clk.period());
/// let i_resp = sim.links_mut().add_link("i.resp", 4, clk.period());
/// let t_req = sim.links_mut().add_link("t.req", 4, clk.period());
/// let t_resp = sim.links_mut().add_link("t.resp", 4, clk.period());
/// let mut bus = TlmBus::new("tlm", TlmBusConfig::default(), clk);
/// bus.add_initiator(i_req, i_resp);
/// let t = bus.add_target(t_req, t_resp);
/// bus.add_route(AddressRange::new(0, 0x1000_0000), t)?;
/// sim.add_component(Box::new(bus), clk);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct TlmBus {
    name: String,
    config: TlmBusConfig,
    clock: ClockDomain,
    ports: Ports,
    in_flight: HashMap<TransactionId, usize>,
}

impl TlmBus {
    /// Creates a TLM bus with no ports.
    pub fn new(name: impl Into<String>, config: TlmBusConfig, clock: ClockDomain) -> Self {
        TlmBus {
            name: name.into(),
            config,
            clock,
            ports: Ports::default(),
            in_flight: HashMap::new(),
        }
    }

    /// Restore's check hook: every in-flight transaction entered through a
    /// port this bus has.
    fn after_restore(&mut self, r: &mut mpsoc_kernel::StateReader<'_>) {
        let ports = self.ports.initiators().len();
        if self.in_flight.values().any(|&port| port >= ports) {
            r.refuse(format!("in-flight transaction on a port beyond {ports}"));
        }
    }
}

impl Interconnect for TlmBus {
    fn ports_mut(&mut self) -> &mut Ports {
        &mut self.ports
    }
}

mpsoc_kernel::snapshot_state! {
    impl Snapshot for TlmBus { in_flight } then after_restore
}

impl Component<Packet> for TlmBus {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut TickContext<'_, Packet>) {
        let now = ctx.time;
        let extra = self.clock.period() * self.config.latency_cycles.saturating_sub(1);
        // Responses: every target port, up to the bandwidth budget.
        let mut budget = self.config.packets_per_cycle;
        for target in self.ports.targets() {
            while budget > 0 {
                let Some(Packet::Response(resp)) = ctx.links.peek(target.resp_in, now) else {
                    break;
                };
                let Some(&port) = self.in_flight.get(&resp.txn.id) else {
                    panic!(
                        "{}: response for unknown transaction {}",
                        self.name, resp.txn.id
                    );
                };
                let resp_out = self.ports.initiator(port).resp_out;
                if !ctx.links.can_push(resp_out) {
                    break;
                }
                let pkt = ctx.links.pop(target.resp_in, now).expect("peeked");
                if let Packet::Response(r) = &pkt {
                    self.in_flight.remove(&r.txn.id);
                }
                ctx.links
                    .push_after(resp_out, now, extra, pkt)
                    .expect("can_push checked");
                budget -= 1;
            }
        }
        // Requests: every initiator port, up to the bandwidth budget.
        let mut budget = self.config.packets_per_cycle;
        for (i, port) in self.ports.initiators().iter().enumerate() {
            while budget > 0 {
                let Some(Packet::Request(txn)) = ctx.links.peek(port.req_in, now) else {
                    break;
                };
                let req_out = self
                    .ports
                    .target(self.ports.expect_route(txn.addr, &self.name))
                    .req_out;
                if !ctx.links.can_push(req_out) {
                    break;
                }
                let pkt = ctx.links.pop(port.req_in, now).expect("peeked");
                if let Packet::Request(t) = &pkt {
                    if !t.completes_on_acceptance() {
                        self.in_flight.insert(t.id, i);
                    }
                }
                ctx.links
                    .push_after(req_out, now, extra, pkt)
                    .expect("can_push checked");
                budget -= 1;
            }
        }
    }

    fn is_idle(&self) -> bool {
        self.in_flight.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{FixedLatencyTarget, ScriptedInitiator};
    use crate::{AddressRange, DataWidth, InitiatorId, Transaction};
    use mpsoc_kernel::{Simulation, Time};

    fn reads(init: u16, n: u64) -> Vec<Transaction> {
        (0..n)
            .map(|s| {
                Transaction::builder(InitiatorId::new(init), s)
                    .read(0x100 + s * 64)
                    .beats(8)
                    .width(DataWidth::BITS64)
                    .build()
            })
            .collect()
    }

    fn rig(n_initiators: usize, config: TlmBusConfig) -> Time {
        let mut sim: Simulation<Packet> = Simulation::new();
        let clk = ClockDomain::from_mhz(250);
        let mut bus = TlmBus::new("tlm", config, clk);
        for i in 0..n_initiators {
            let req = sim
                .links_mut()
                .add_link(format!("i{i}.req"), 4, clk.period());
            let resp = sim
                .links_mut()
                .add_link(format!("i{i}.resp"), 4, clk.period());
            bus.add_initiator(req, resp);
            sim.add_component(
                Box::new(ScriptedInitiator::new(
                    format!("i{i}"),
                    req,
                    resp,
                    reads(i as u16, 20),
                    4,
                )),
                clk,
            );
        }
        let t_req = sim.links_mut().add_link("t.req", 8, clk.period());
        let t_resp = sim.links_mut().add_link("t.resp", 8, clk.period());
        let t = bus.add_target(t_req, t_resp);
        bus.add_route(AddressRange::new(0, 1 << 20), t).unwrap();
        sim.add_component(Box::new(bus), clk);
        sim.add_component(
            Box::new(FixedLatencyTarget::new("t", clk, t_req, t_resp, 1)),
            clk,
        );
        sim.run_to_quiescence_strict(Time::from_ms(10))
            .expect("drains")
    }

    #[test]
    fn tlm_round_trip_conserves_transactions() {
        let end = rig(3, TlmBusConfig::default());
        assert!(end > Time::ZERO);
    }

    #[test]
    fn latency_knob_is_honoured() {
        let fast = rig(
            1,
            TlmBusConfig {
                latency_cycles: 1,
                ..TlmBusConfig::default()
            },
        );
        let slow = rig(
            1,
            TlmBusConfig {
                latency_cycles: 20,
                ..TlmBusConfig::default()
            },
        );
        assert!(slow > fast, "latency must matter: {slow} vs {fast}");
    }

    #[test]
    fn bandwidth_ceiling_throttles() {
        let unconstrained = rig(4, TlmBusConfig::default());
        let throttled = rig(
            4,
            TlmBusConfig {
                packets_per_cycle: 1,
                ..TlmBusConfig::default()
            },
        );
        assert!(throttled >= unconstrained);
    }
}
