//! On-chip shared memory with configurable wait states.

use mpsoc_kernel::Time;
use mpsoc_kernel::{ClockDomain, Component, Gate, LinkId, StallHint, TickContext};
use mpsoc_protocol::{Packet, Response};

/// Configuration of an [`OnChipMemory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OnChipMemoryConfig {
    /// Wait states inserted before every data beat. The paper's baseline
    /// memory uses 1 wait state, yielding the 50 % response-channel
    /// efficiency ceiling of Section 4.1.2; Figure 4 sweeps this parameter
    /// to model progressively slower memories.
    pub wait_states: u32,
}

impl Default for OnChipMemoryConfig {
    fn default() -> Self {
        OnChipMemoryConfig { wait_states: 1 }
    }
}

/// A single-slot on-chip memory target.
///
/// Behaviour (per the paper's "simple controller"):
///
/// * One transaction is serviced at a time; the slot frees only when
///   streaming has finished **and** the response has been handed to the bus.
///   Together with a capacity-1 request link this gives the "single-slot
///   buffering ⇒ each transaction is blocking" semantics the Fig. 3
///   analysis relies on.
/// * Each data beat costs `1 + wait_states` cycles. The response is emitted
///   when the first beat is ready, carrying `gap_per_beat = wait_states` so
///   the draining bus charges its response channel with the real streaming
///   window (1 transfer, `wait_states` idle, ...).
/// * Posted writes produce no response: the initiator already completed on
///   acceptance.
///
/// # Examples
///
/// ```
/// use mpsoc_kernel::{Simulation, ClockDomain};
/// use mpsoc_memory::{OnChipMemory, OnChipMemoryConfig};
/// use mpsoc_protocol::Packet;
///
/// let mut sim: Simulation<Packet> = Simulation::new();
/// let clk = ClockDomain::from_mhz(250);
/// let req = sim.links_mut().add_link("mem.req", 1, clk.period());
/// let resp = sim.links_mut().add_link("mem.resp", 1, clk.period());
/// sim.add_component(
///     Box::new(OnChipMemory::new("mem", OnChipMemoryConfig::default(), clk, req, resp)),
///     clk,
/// );
/// ```
#[derive(Debug)]
pub struct OnChipMemory {
    name: String,
    config: OnChipMemoryConfig,
    clock: ClockDomain,
    req_in: LinkId,
    resp_out: LinkId,
    in_service: Option<InService>,
    served_reads: u64,
    served_writes: u64,
}

#[derive(Debug)]
struct InService {
    /// Response still waiting to be handed to the bus (`None` once pushed,
    /// or from the start for posted writes).
    response: Option<Response>,
    /// When the first beat is ready (response may be emitted).
    first_ready: Time,
    /// When streaming finishes (slot may free).
    done: Time,
}

impl OnChipMemory {
    /// Creates a memory clocked by `clock`, serving requests from `req_in`
    /// and answering on `resp_out`. Register it on the same `clock`.
    pub fn new(
        name: impl Into<String>,
        config: OnChipMemoryConfig,
        clock: ClockDomain,
        req_in: LinkId,
        resp_out: LinkId,
    ) -> Self {
        OnChipMemory {
            name: name.into(),
            config,
            clock,
            req_in,
            resp_out,
            in_service: None,
            served_reads: 0,
            served_writes: 0,
        }
    }

    /// Reads serviced so far.
    pub fn served_reads(&self) -> u64 {
        self.served_reads
    }

    /// Writes serviced so far.
    pub fn served_writes(&self) -> u64 {
        self.served_writes
    }

    /// Changes the per-beat wait states at runtime. Affects only
    /// transactions accepted after the call; used by warm-fork sweeps to
    /// re-parameterise a restored simulation without rebuilding it.
    pub fn set_wait_states(&mut self, wait_states: u32) {
        self.config.wait_states = wait_states;
    }
}

// `config.wait_states` is part of the snapshot because `set_wait_states`
// makes it mutable at runtime.
mpsoc_kernel::snapshot_state! {
    impl Snapshot for OnChipMemory { config.wait_states, in_service, served_reads, served_writes }
}

mpsoc_kernel::snapshot_state! {
    impl Persist for InService { response, first_ready, done }
}

impl Component<Packet> for OnChipMemory {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut TickContext<'_, Packet>) {
        let period = self.clock.period();

        if let Some(svc) = &mut self.in_service {
            // Emit the response once its first beat is ready and the wire
            // has room; otherwise retry next cycle.
            if svc.first_ready <= ctx.time {
                if let Some(resp) = svc.response.take() {
                    if ctx.links.can_push(self.resp_out) {
                        ctx.links
                            .push(self.resp_out, ctx.time, Packet::Response(resp))
                            .expect("capacity checked");
                    } else {
                        svc.response = Some(resp);
                    }
                }
            }
            if svc.done <= ctx.time && svc.response.is_none() {
                self.in_service = None;
            }
        }

        if self.in_service.is_none() {
            if let Some(pkt) = ctx.links.pop(self.req_in, ctx.time) {
                let txn = pkt.expect_request();
                let beat_cost = 1 + self.config.wait_states as u64;
                let service_cycles = txn.beats as u64 * beat_cost;
                let first_ready = ctx.time + period * beat_cost;
                let done = ctx.time + period * service_cycles;
                match txn.opcode {
                    mpsoc_protocol::Opcode::Read => self.served_reads += 1,
                    mpsoc_protocol::Opcode::Write => self.served_writes += 1,
                }
                let response = (!txn.completes_on_acceptance())
                    .then(|| Response::new(txn, done).with_gap(self.config.wait_states));
                self.in_service = Some(InService {
                    response,
                    first_ready,
                    done,
                });
            }
        }
    }

    fn is_idle(&self) -> bool {
        self.in_service.is_none()
    }

    fn watched_links(&self) -> Option<Vec<LinkId>> {
        Some(vec![self.req_in])
    }

    fn next_activity(&self) -> Option<Time> {
        // The in-service transaction advances at exactly two instants: the
        // first beat becoming ready (response emission) and streaming
        // completion (slot free). A response blocked on a full wire keeps
        // `first_ready` in the past; `stall_hint` holds the retries until
        // the wire has room. Idle memories are woken by `req_in`.
        self.in_service.as_ref().map(|svc| {
            if svc.response.is_some() {
                svc.first_ready
            } else {
                svc.done
            }
        })
    }

    fn stall_hint(&self, hint: &mut StallHint) {
        if let Some(svc) = &self.in_service {
            // Single slot: the request wire is not looked at until the slot
            // frees, which happens on a deadline (`done`, or the response
            // finally leaving), never on a delivery.
            hint.gate_input(0, Gate::CLOSED);
            if svc.response.is_some() {
                hint.gate_deadline(Gate::space(self.resp_out));
            }
        }
    }

    fn fast_forward(&mut self, ctx: &mut mpsoc_kernel::FastCtx<'_, Packet>) {
        while let Some(mut tc) = ctx.next_edge() {
            let now = tc.time;
            self.tick(&mut tc);
            let hint = match &self.in_service {
                None => {
                    if ctx.has_deliverable(self.req_in) {
                        // The slot just freed with a request already on the
                        // wire: accept it next cycle.
                        continue;
                    }
                    // Idle: only a new request can start work.
                    None
                }
                Some(svc) => {
                    if svc.response.is_some()
                        && svc.first_ready <= now
                        && !ctx.can_push(self.resp_out)
                    {
                        // Response blocked on a full wire. Capacity frees
                        // only across windows, so retrying every edge (the
                        // cycle gear's behaviour) is pure polling here.
                        None
                    } else {
                        self.next_activity()
                    }
                }
            };
            ctx.sleep_until(hint);
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc_kernel::Simulation;
    use mpsoc_protocol::{InitiatorId, Opcode, Transaction};

    fn setup(ws: u32) -> (Simulation<Packet>, LinkId, LinkId) {
        let mut sim: Simulation<Packet> = Simulation::new();
        let clk = ClockDomain::from_mhz(250); // 4 ns
        let req = sim.links_mut().add_link("req", 1, clk.period());
        let resp = sim.links_mut().add_link("resp", 4, clk.period());
        sim.add_component(
            Box::new(OnChipMemory::new(
                "mem",
                OnChipMemoryConfig { wait_states: ws },
                clk,
                req,
                resp,
            )),
            clk,
        );
        (sim, req, resp)
    }

    fn read(seq: u64, beats: u32) -> Transaction {
        Transaction::builder(InitiatorId::new(0), seq)
            .read(0x1000)
            .beats(beats)
            .build()
    }

    #[test]
    fn read_latency_matches_wait_states() {
        let (mut sim, req, resp) = setup(1);
        sim.links_mut()
            .push(req, Time::ZERO, Packet::Request(read(1, 4)))
            .unwrap();
        let mut got = None;
        for _ in 0..200 {
            sim.step();
            let now = sim.time();
            if let Some(p) = sim.links_mut().pop(resp, now) {
                got = Some((sim.time(), p.expect_response()));
                break;
            }
        }
        let (at, r) = got.expect("response must arrive");
        // Request visible at 4 ns (wire), accepted at the 4 ns edge; first
        // beat ready after (1+1) cycles = 12 ns; +1 wire cycle = 16 ns.
        assert_eq!(at, Time::from_ns(16));
        assert_eq!(r.gap_per_beat, 1);
        // 4 beats with gap 1 = 7 channel cycles.
        assert_eq!(r.channel_cycles(), 7);
    }

    #[test]
    fn single_slot_blocks_second_request() {
        let (mut sim, req, resp) = setup(1);
        sim.links_mut()
            .push(req, Time::ZERO, Packet::Request(read(1, 8)))
            .unwrap();
        // First request is consumed at 4 ns; wire has room again.
        sim.run_until(Time::from_ns(4));
        let now = sim.time();
        sim.links_mut()
            .push(req, now, Packet::Request(read(2, 8)))
            .unwrap();
        // While the first is in service the second stays on the wire.
        sim.run_until(Time::from_ns(30));
        assert_eq!(sim.links().link(req).len(), 1);
        // Both are eventually serviced.
        let mut n = 0;
        for _ in 0..500 {
            sim.step();
            if sim.links_mut().pop(resp, Time::MAX).is_some() {
                n += 1;
                if n == 2 {
                    break;
                }
            }
        }
        assert_eq!(n, 2);
    }

    #[test]
    fn posted_write_produces_no_response() {
        let (mut sim, req, resp) = setup(1);
        let txn = Transaction::builder(InitiatorId::new(0), 1)
            .write(0x2000)
            .beats(4)
            .posted(true)
            .build();
        sim.links_mut()
            .push(req, Time::ZERO, Packet::Request(txn))
            .unwrap();
        sim.run_until(Time::from_us(1));
        assert!(sim.links().link(resp).is_empty());
        assert!(sim.is_quiescent());
    }

    #[test]
    fn non_posted_write_gets_single_cycle_ack() {
        let (mut sim, req, resp) = setup(2);
        let txn = Transaction::builder(InitiatorId::new(0), 1)
            .write(0x2000)
            .beats(4)
            .build();
        sim.links_mut()
            .push(req, Time::ZERO, Packet::Request(txn))
            .unwrap();
        let mut got = None;
        for _ in 0..500 {
            sim.step();
            if let Some(p) = sim.links_mut().pop(resp, Time::MAX) {
                got = Some(p.expect_response());
                break;
            }
        }
        let r = got.expect("ack expected");
        assert_eq!(r.txn.opcode, Opcode::Write);
        assert_eq!(r.channel_cycles(), 1);
    }

    #[test]
    fn fast_gear_matches_cycle_gear_results() {
        use mpsoc_kernel::Fidelity;
        for quantum in [1u64, 16] {
            let mut drained: Vec<Vec<(u64, Time)>> = Vec::new();
            let mut blobs = Vec::new();
            for fidelity in [Fidelity::Cycle, Fidelity::Fast { quantum }] {
                let (mut sim, req, resp) = setup(1);
                sim.set_fidelity(fidelity);
                sim.links_mut()
                    .push(req, Time::ZERO, Packet::Request(read(1, 4)))
                    .unwrap();
                // The req wire has capacity 1: stage the second request once
                // the first has been accepted (4 ns edge in both gears).
                sim.run_until(Time::from_ns(4));
                sim.links_mut()
                    .push(req, Time::from_ns(4), Packet::Request(read(2, 8)))
                    .unwrap();
                sim.run_to_quiescence(Time::from_us(1));
                blobs.push(sim.checkpoint().as_bytes().to_vec());
                let mut got = Vec::new();
                while let Some(p) = sim.links_mut().pop(resp, Time::MAX) {
                    let r = p.expect_response();
                    got.push((r.txn.id.sequence(), r.serviced_at));
                }
                drained.push(got);
            }
            assert_eq!(
                drained[0], drained[1],
                "responses must match at quantum {quantum}"
            );
            if quantum == 1 {
                assert_eq!(blobs[0], blobs[1], "quantum 1 must be byte-identical");
            }
        }
    }

    #[test]
    fn blocked_response_wire_stalls_slot() {
        // Response link of capacity 1 that nobody drains: after the first
        // response is pushed, the memory must finish but the second request
        // must wait until we drain manually.
        let mut sim: Simulation<Packet> = Simulation::new();
        let clk = ClockDomain::from_mhz(250);
        let req = sim.links_mut().add_link("req", 2, clk.period());
        let resp = sim.links_mut().add_link("resp", 1, clk.period());
        sim.add_component(
            Box::new(OnChipMemory::new(
                "mem",
                OnChipMemoryConfig { wait_states: 0 },
                clk,
                req,
                resp,
            )),
            clk,
        );
        sim.links_mut()
            .push(req, Time::ZERO, Packet::Request(read(1, 1)))
            .unwrap();
        sim.links_mut()
            .push(req, Time::ZERO, Packet::Request(read(2, 1)))
            .unwrap();
        sim.run_until(Time::from_ns(100));
        // First response occupies the wire; second one can also be serviced
        // only after we drain the first.
        assert_eq!(sim.links().link(resp).len(), 1);
        let first = sim.links_mut().pop(resp, Time::MAX).unwrap();
        assert_eq!(first.expect_response().txn.id.sequence(), 1);
        sim.run_until(Time::from_ns(200));
        let second = sim.links_mut().pop(resp, Time::MAX).unwrap();
        assert_eq!(second.expect_response().txn.id.sequence(), 2);
    }
}
