//! Reusable test components: a scripted initiator and a fixed-latency
//! target.
//!
//! Every bus and bridge crate in the workspace exercises its models against
//! the same two counterparts, so they live here rather than being duplicated
//! per crate. They are also useful for downstream experimentation with
//! custom interconnects.

use crate::packet::{Packet, Response};
use crate::transaction::Transaction;
use mpsoc_kernel::{ClockDomain, Component, LinkId, TickContext, Time};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// A shared, ordered record of completions, for tests that need to observe
/// response ordering across boxed components.
pub type CompletionLog = Arc<Mutex<Vec<(Time, Transaction)>>>;

/// An initiator that issues a fixed script of transactions as fast as
/// back-pressure allows, and records every completion.
///
/// * Posted writes complete at injection (no response expected).
/// * Reads and non-posted writes complete when their response arrives.
/// * `max_outstanding` bounds in-flight response-expecting transactions.
#[derive(Debug)]
pub struct ScriptedInitiator {
    name: String,
    req_out: LinkId,
    resp_in: LinkId,
    script: VecDeque<Transaction>,
    max_outstanding: usize,
    outstanding: usize,
    completions: Vec<(Time, Transaction)>,
    shared_log: Option<CompletionLog>,
    injected: u64,
}

impl ScriptedInitiator {
    /// Creates an initiator that will issue `script` in order on `req_out`
    /// and consume responses from `resp_in`.
    pub fn new(
        name: impl Into<String>,
        req_out: LinkId,
        resp_in: LinkId,
        script: Vec<Transaction>,
        max_outstanding: usize,
    ) -> Self {
        ScriptedInitiator {
            name: name.into(),
            req_out,
            resp_in,
            script: script.into(),
            max_outstanding: max_outstanding.max(1),
            outstanding: 0,
            completions: Vec::new(),
            shared_log: None,
            injected: 0,
        }
    }

    /// Mirrors every completion into `log` (in addition to the internal
    /// record), so tests can observe ordering after the component is boxed.
    pub fn with_shared_log(mut self, log: CompletionLog) -> Self {
        self.shared_log = Some(log);
        self
    }

    /// Completions observed so far, in arrival order.
    pub fn completions(&self) -> &[(Time, Transaction)] {
        &self.completions
    }

    /// Transactions injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }
}

// `shared_log` is a test-side observation channel, not simulation state;
// it stays whatever the restoring harness wired up.
mpsoc_kernel::snapshot_state! {
    impl Snapshot for ScriptedInitiator { script, outstanding, completions, injected }
}

impl Component<Packet> for ScriptedInitiator {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut TickContext<'_, Packet>) {
        // Consume one response per cycle.
        if let Some(pkt) = ctx.links.pop(self.resp_in, ctx.time) {
            let resp = pkt.expect_response();
            self.outstanding -= 1;
            if let Some(log) = &self.shared_log {
                log.lock().unwrap().push((ctx.time, resp.txn.clone()));
            }
            self.completions.push((ctx.time, resp.txn));
        }
        // Issue the next scripted transaction if allowed.
        if let Some(head) = self.script.front() {
            let needs_slot = !head.completes_on_acceptance();
            if (!needs_slot || self.outstanding < self.max_outstanding)
                && ctx.links.can_push(self.req_out)
            {
                let mut txn = self.script.pop_front().expect("front checked");
                txn.created_at = ctx.time;
                if needs_slot {
                    self.outstanding += 1;
                } else {
                    // Posted write: completes at injection.
                    if let Some(log) = &self.shared_log {
                        log.lock().unwrap().push((ctx.time, txn.clone()));
                    }
                    self.completions.push((ctx.time, txn.clone()));
                }
                self.injected += 1;
                ctx.links
                    .push(self.req_out, ctx.time, Packet::Request(txn))
                    .expect("can_push checked");
            }
        }
    }

    fn is_idle(&self) -> bool {
        self.script.is_empty() && self.outstanding == 0
    }
}

/// A single-slot target that answers every request after a fixed latency.
///
/// `wait_states` behaves like the on-chip memory of the paper's Section 4:
/// each beat costs `1 + wait_states` cycles and responses stream with
/// `gap_per_beat = wait_states`.
#[derive(Debug)]
pub struct FixedLatencyTarget {
    name: String,
    clock: ClockDomain,
    req_in: LinkId,
    resp_out: LinkId,
    wait_states: u32,
    busy_until: Time,
    pending: Option<(Time, Response)>,
    served: u64,
}

impl FixedLatencyTarget {
    /// Creates a target with the given per-beat wait states.
    pub fn new(
        name: impl Into<String>,
        clock: ClockDomain,
        req_in: LinkId,
        resp_out: LinkId,
        wait_states: u32,
    ) -> Self {
        FixedLatencyTarget {
            name: name.into(),
            clock,
            req_in,
            resp_out,
            wait_states,
            busy_until: Time::ZERO,
            pending: None,
            served: 0,
        }
    }

    /// Requests serviced so far.
    pub fn served(&self) -> u64 {
        self.served
    }
}

mpsoc_kernel::snapshot_state! {
    impl Snapshot for FixedLatencyTarget { busy_until, pending, served }
}

impl Component<Packet> for FixedLatencyTarget {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut TickContext<'_, Packet>) {
        if let Some((ready, _)) = &self.pending {
            if *ready <= ctx.time && ctx.links.can_push(self.resp_out) {
                let (_, resp) = self.pending.take().expect("checked");
                ctx.links
                    .push(self.resp_out, ctx.time, Packet::Response(resp))
                    .expect("can_push checked");
            }
        }
        if self.pending.is_none() && self.busy_until <= ctx.time {
            if let Some(pkt) = ctx.links.pop(self.req_in, ctx.time) {
                let txn = pkt.expect_request();
                let beat_cost = 1 + self.wait_states as u64;
                let first = ctx.time + self.clock.period() * beat_cost;
                let done = ctx.time + self.clock.period() * (txn.beats as u64 * beat_cost);
                self.busy_until = done;
                self.served += 1;
                if !txn.completes_on_acceptance() {
                    let resp = Response::new(txn, done).with_gap(self.wait_states);
                    self.pending = Some((first, resp));
                }
            }
        }
    }

    fn is_idle(&self) -> bool {
        self.pending.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::InitiatorId;
    use mpsoc_kernel::Simulation;

    fn read(seq: u64, beats: u32) -> Transaction {
        Transaction::builder(InitiatorId::new(0), seq)
            .read(0x100)
            .beats(beats)
            .build()
    }

    #[test]
    fn initiator_and_target_close_the_loop() {
        let mut sim: Simulation<Packet> = Simulation::new();
        let clk = ClockDomain::from_mhz(100);
        let req = sim.links_mut().add_link("req", 2, clk.period());
        let resp = sim.links_mut().add_link("resp", 2, clk.period());
        sim.add_component(
            Box::new(ScriptedInitiator::new(
                "init",
                req,
                resp,
                vec![read(1, 4), read(2, 4)],
                1,
            )),
            clk,
        );
        sim.add_component(
            Box::new(FixedLatencyTarget::new("tgt", clk, req, resp, 1)),
            clk,
        );
        let end = sim
            .run_to_quiescence_strict(Time::from_us(100))
            .expect("drains");
        assert!(end > Time::ZERO);
    }

    #[test]
    fn max_outstanding_limits_inflight() {
        let mut sim: Simulation<Packet> = Simulation::new();
        let clk = ClockDomain::from_mhz(100);
        // Roomy links, no target: the initiator should stop at its limit.
        let req = sim.links_mut().add_link("req", 16, clk.period());
        let resp = sim.links_mut().add_link("resp", 16, clk.period());
        let script: Vec<Transaction> = (0..8).map(|i| read(i, 1)).collect();
        sim.add_component(
            Box::new(ScriptedInitiator::new("init", req, resp, script, 3)),
            clk,
        );
        sim.run_until(Time::from_us(1));
        assert_eq!(sim.links().link(req).stats().pushes, 3);
    }

    #[test]
    fn posted_writes_do_not_consume_slots() {
        let mut sim: Simulation<Packet> = Simulation::new();
        let clk = ClockDomain::from_mhz(100);
        let req = sim.links_mut().add_link("req", 16, clk.period());
        let resp = sim.links_mut().add_link("resp", 16, clk.period());
        let script: Vec<Transaction> = (0..5)
            .map(|i| {
                Transaction::builder(InitiatorId::new(0), i)
                    .write(0x40 * i)
                    .beats(2)
                    .posted(true)
                    .build()
            })
            .collect();
        sim.add_component(
            Box::new(ScriptedInitiator::new("init", req, resp, script, 1)),
            clk,
        );
        sim.run_until(Time::from_us(1));
        // All five go out despite max_outstanding = 1, and all count as
        // completed without any response.
        assert_eq!(sim.links().link(req).stats().pushes, 5);
    }
}
