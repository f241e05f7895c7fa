//! The hybrid bridge: target side, initiator side, async FIFOs.

use mpsoc_kernel::{
    ClockDomain, Component, FaultKind, Gate, LinkId, LinkPool, StallHint, TickContext, Time,
    TraceKind,
};
use mpsoc_protocol::{DataWidth, Packet, Response, Transaction, TransactionId};
use std::collections::{HashMap, HashSet, VecDeque};

/// How the bridge's target side handles response-expecting transactions
/// (reads and non-posted writes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPolicy {
    /// The target side blocks after accepting one response-expecting
    /// transaction until its response has returned to the source bus. This
    /// is the lightweight implementation of the paper's hand-written
    /// bridges: "they have a blocking target side in presence of read
    /// transactions".
    Blocking,
    /// Split/non-blocking: up to `max_outstanding` response-expecting
    /// transactions may be in flight; control information is stored and
    /// re-associated with response data (the expensive bridge the paper
    /// says turns bridges into true IP blocks).
    Split {
        /// In-flight bound.
        max_outstanding: usize,
    },
}

/// Configuration of a [`Bridge`].
#[derive(Debug, Clone, Copy)]
pub struct BridgeConfig {
    /// Read handling policy.
    pub read_policy: ReadPolicy,
    /// Data width on the destination side; `None` keeps the source width.
    /// When set, beat counts are converted on the way out and restored on
    /// the way back.
    pub out_width: Option<DataWidth>,
    /// When true, posted writes are forwarded as non-posted and the bridge
    /// consumes the downstream acknowledgement itself (protocol-type
    /// conversion towards non-posted protocols).
    pub strip_posted: bool,
    /// Extra pipeline cycles (of the destination clock) added to the
    /// request path, and (of the source clock) to the response path —
    /// the paper's "tunable latency".
    pub extra_latency: u64,
    /// Depth of the request FIFO between the two sides.
    pub req_fifo_depth: usize,
    /// Depth of the response FIFO between the two sides.
    pub resp_fifo_depth: usize,
}

impl BridgeConfig {
    /// The lightweight bridge used for the AHB/AXI platform variants.
    pub fn lightweight() -> Self {
        BridgeConfig {
            read_policy: ReadPolicy::Blocking,
            out_width: None,
            strip_posted: false,
            extra_latency: 3,
            req_fifo_depth: 1,
            resp_fifo_depth: 1,
        }
    }

    /// The proprietary STBus Generic Converter: split-capable, buffered,
    /// low-latency.
    pub fn genconv() -> Self {
        BridgeConfig {
            read_policy: ReadPolicy::Split { max_outstanding: 8 },
            out_width: None,
            strip_posted: false,
            extra_latency: 0,
            req_fifo_depth: 8,
            resp_fifo_depth: 8,
        }
    }

    /// Sets the destination data width (datawidth conversion).
    pub fn with_out_width(mut self, width: DataWidth) -> Self {
        self.out_width = Some(width);
        self
    }

    /// Enables posted-write stripping (protocol conversion towards
    /// non-posted destinations).
    pub fn with_strip_posted(mut self) -> Self {
        self.strip_posted = true;
        self
    }

    /// Sets the extra pipeline latency.
    pub fn with_extra_latency(mut self, cycles: u64) -> Self {
        self.extra_latency = cycles;
        self
    }
}

impl Default for BridgeConfig {
    fn default() -> Self {
        BridgeConfig::lightweight()
    }
}

/// The two kernel components a bridge consists of, plus the links that the
/// neighbouring buses attach to.
///
/// Register `target_side` on the source-bus clock and `initiator_side` on
/// the destination-bus clock.
#[derive(Debug)]
pub struct BridgeHalves {
    /// Component facing the source bus (register on the source clock).
    pub target_side: BridgeTargetSide,
    /// Component facing the destination bus (register on the destination
    /// clock).
    pub initiator_side: BridgeInitiatorSide,
}

/// Builder for a bridge between two interconnect layers.
///
/// # Examples
///
/// ```
/// use mpsoc_kernel::{Simulation, ClockDomain};
/// use mpsoc_protocol::Packet;
/// use mpsoc_bridge::{Bridge, BridgeConfig};
///
/// let mut sim: Simulation<Packet> = Simulation::new();
/// let src_clk = ClockDomain::from_mhz(200);
/// let dst_clk = ClockDomain::from_mhz(250);
/// // Links towards the source bus (the bridge is that bus's target) ...
/// let a_req = sim.links_mut().add_link("br.a.req", 2, src_clk.period());
/// let a_resp = sim.links_mut().add_link("br.a.resp", 2, src_clk.period());
/// // ... and towards the destination bus (the bridge is its initiator).
/// let b_req = sim.links_mut().add_link("br.b.req", 2, dst_clk.period());
/// let b_resp = sim.links_mut().add_link("br.b.resp", 2, dst_clk.period());
///
/// let halves = Bridge::build(
///     "n5-to-n8",
///     BridgeConfig::genconv(),
///     sim.links_mut(),
///     src_clk,
///     dst_clk,
///     (a_req, a_resp),
///     (b_req, b_resp),
/// );
/// sim.add_component(Box::new(halves.target_side), src_clk);
/// sim.add_component(Box::new(halves.initiator_side), dst_clk);
/// ```
#[derive(Debug)]
pub struct Bridge;

impl Bridge {
    /// Creates the two bridge halves and their internal FIFOs.
    ///
    /// `a` is the `(request-in, response-out)` link pair on the source-bus
    /// side; `b` is the `(request-out, response-in)` pair on the
    /// destination-bus side.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        name: impl Into<String>,
        config: BridgeConfig,
        links: &mut LinkPool<Packet>,
        src_clock: ClockDomain,
        dst_clock: ClockDomain,
        a: (LinkId, LinkId),
        b: (LinkId, LinkId),
    ) -> BridgeHalves {
        let name = name.into();
        // Clock-domain crossing costs two destination (resp. source) cycles
        // of synchronisation, plus the configured pipeline latency.
        let req_latency = dst_clock.period() * (2 + config.extra_latency);
        let resp_latency = src_clock.period() * (2 + config.extra_latency);
        let req_fifo = links.add_link(
            format!("{name}.fifo.req"),
            config.req_fifo_depth,
            req_latency,
        );
        let resp_fifo = links.add_link(
            format!("{name}.fifo.resp"),
            config.resp_fifo_depth,
            resp_latency,
        );
        BridgeHalves {
            target_side: BridgeTargetSide {
                name: format!("{name}.target_side"),
                config,
                req_in: a.0,
                resp_out: a.1,
                req_fifo,
                resp_fifo,
                in_flight: HashMap::new(),
                consume_ack: HashSet::new(),
                src_width: None,
                src_period: src_clock.period(),
                dst_period: dst_clock.period(),
                retries: VecDeque::new(),
                dead_letters: VecDeque::new(),
                counters: FaultCounters::default(),
            },
            initiator_side: BridgeInitiatorSide {
                name: format!("{name}.initiator_side"),
                req_fifo,
                resp_fifo,
                req_out: b.0,
                resp_in: b.1,
            },
        }
    }
}

/// The bridge half that appears as a *target* on the source bus.
///
/// Created by [`Bridge::build`].
#[derive(Debug)]
pub struct BridgeTargetSide {
    name: String,
    config: BridgeConfig,
    req_in: LinkId,
    resp_out: LinkId,
    req_fifo: LinkId,
    resp_fifo: LinkId,
    /// Response-expecting transactions currently beyond this bridge, with
    /// the source-side width to restore on the way back.
    in_flight: HashMap<TransactionId, DataWidth>,
    /// Acks the bridge must swallow (stripped posted writes).
    consume_ack: HashSet<TransactionId>,
    /// Width observed on the first accepted transaction (sanity checking).
    src_width: Option<DataWidth>,
    /// Period of the source-bus clock (detection timeouts count in it).
    src_period: Time,
    /// Period of the destination-bus clock (glitch delays count in it).
    dst_period: Time,
    /// Transfers awaiting retransmission after an injected crossing fault,
    /// ordered by enqueue time. Empty in every fault-free run.
    retries: VecDeque<RetryEntry>,
    /// Error completions for abandoned transactions, waiting for space on
    /// the source-bus response channel.
    dead_letters: VecDeque<Response>,
    counters: FaultCounters,
}

mpsoc_kernel::metric_ids! {
    /// The crossing's fault counters, kept from `register_metrics`.
    struct FaultCounters {
        fault_glitches: counter,
        fault_recovered: counter,
        fault_lost: counter,
        fault_retries: counter,
    }
}

/// A transfer the crossing lost or corrupted, queued for retransmission.
#[derive(Debug)]
struct RetryEntry {
    txn: Transaction,
    expects_response: bool,
    /// Retransmissions performed so far.
    attempt: u32,
    /// Earliest time the retransmission may go out (detection timeout with
    /// exponential backoff for drops, next cycle for corruptions).
    deadline: Time,
    /// Injected faults accumulated by this transfer (a retransmission can
    /// be hit again), resolved in one batch when it finally crosses or is
    /// abandoned.
    faults: u64,
}

impl BridgeTargetSide {
    fn accept_allowed(&self, response_expected: bool) -> bool {
        match self.config.read_policy {
            ReadPolicy::Blocking => {
                if self.in_flight.is_empty() {
                    true
                } else {
                    // Blocked on an outstanding response: nothing passes,
                    // not even writes — the source layer sees a busy target.
                    false
                }
            }
            ReadPolicy::Split { max_outstanding } => {
                !response_expected || self.in_flight.len() < max_outstanding
            }
        }
    }

    /// Sends `entry` across the clock-domain crossing, probing the fault
    /// engine at the one point where crossing faults are physically
    /// meaningful. The caller has already checked `can_push(req_fifo)`.
    fn dispatch(&mut self, mut entry: RetryEntry, ctx: &mut TickContext<'_, Packet>) {
        let now = ctx.time;
        if ctx.faults.probe(FaultKind::LinkDrop) {
            // Lost in transit; detected only when the retransmission timer
            // expires (exponential backoff per attempt).
            entry.faults += 1;
            let backoff = ctx.faults.schedule().timeout_cycles << entry.attempt.min(16);
            self.requeue_or_abandon(entry, self.src_period * backoff, ctx);
        } else if ctx.faults.probe(FaultKind::LinkCorrupt) {
            // Corrupted in transit; the receiver's checksum catches it
            // immediately, so the retransmission goes out next cycle.
            entry.faults += 1;
            self.requeue_or_abandon(entry, self.src_period, ctx);
        } else if ctx.faults.probe(FaultKind::ClockGlitch) {
            // Metastability glitch: the transfer survives but the crossing
            // takes extra synchroniser cycles. Delivered late = recovered.
            let glitch = self.dst_period * ctx.faults.schedule().glitch_cycles;
            ctx.faults.record_recovered(entry.faults + 1);
            ctx.stats.inc(self.counters.fault_glitches, 1);
            ctx.links
                .push_after(self.req_fifo, now, glitch, Packet::Request(entry.txn))
                .expect("can_push checked");
        } else {
            if entry.faults > 0 {
                ctx.faults.record_recovered(entry.faults);
                ctx.stats.inc(self.counters.fault_recovered, entry.faults);
            }
            ctx.links
                .push(self.req_fifo, now, Packet::Request(entry.txn))
                .expect("can_push checked");
        }
    }

    /// A transmission of `entry` was hit: schedule the retransmission after
    /// `detect_delay`, or — with the retry budget exhausted — abandon the
    /// transfer, releasing every upstream waiter with an error completion.
    fn requeue_or_abandon(
        &mut self,
        mut entry: RetryEntry,
        detect_delay: Time,
        ctx: &mut TickContext<'_, Packet>,
    ) {
        let now = ctx.time;
        if entry.attempt < ctx.faults.schedule().retry_budget {
            entry.deadline = now + detect_delay;
            self.retries.push_back(entry);
            return;
        }
        ctx.faults.record_lost(entry.faults);
        ctx.stats.inc(self.counters.fault_lost, 1);
        self.consume_ack.remove(&entry.txn.id);
        let mut txn = entry.txn;
        if let Some(width) = self.in_flight.remove(&txn.id) {
            txn = txn.with_width(width);
        }
        ctx.stats.emit_trace(now, &self.name, TraceKind::State, || {
            format!("{txn} abandoned after {} attempts", entry.attempt + 1)
        });
        if entry.expects_response {
            self.dead_letters.push_back(Response::error(txn, now));
        }
    }
}

impl mpsoc_kernel::Snapshot for BridgeTargetSide {
    fn save(&self, w: &mut mpsoc_kernel::StateWriter) {
        use mpsoc_protocol::persist;
        let mut in_flight: Vec<_> = self.in_flight.iter().collect();
        in_flight.sort_by_key(|(id, _)| **id);
        w.write_usize(in_flight.len());
        for (id, width) in in_flight {
            persist::save_txn_id(*id, w);
            persist::save_width(*width, w);
        }
        let mut acks: Vec<_> = self.consume_ack.iter().copied().collect();
        acks.sort();
        w.write_usize(acks.len());
        for id in acks {
            persist::save_txn_id(id, w);
        }
        w.write_bool(self.src_width.is_some());
        if let Some(width) = self.src_width {
            persist::save_width(width, w);
        }
        w.write_usize(self.retries.len());
        for entry in &self.retries {
            persist::save_txn(&entry.txn, w);
            w.write_bool(entry.expects_response);
            w.write_u32(entry.attempt);
            w.write_time(entry.deadline);
            w.write_u64(entry.faults);
        }
        w.write_usize(self.dead_letters.len());
        for resp in &self.dead_letters {
            persist::save_response(resp, w);
        }
    }

    fn restore(&mut self, r: &mut mpsoc_kernel::StateReader<'_>) {
        use mpsoc_protocol::persist;
        self.in_flight.clear();
        for _ in 0..r.read_usize() {
            let id = persist::load_txn_id(r);
            let width = persist::load_width(r);
            self.in_flight.insert(id, width);
        }
        self.consume_ack.clear();
        for _ in 0..r.read_usize() {
            self.consume_ack.insert(persist::load_txn_id(r));
        }
        self.src_width = r.read_bool().then(|| persist::load_width(r));
        self.retries = (0..r.read_usize())
            .map(|_| RetryEntry {
                txn: persist::load_txn(r),
                expects_response: r.read_bool(),
                attempt: r.read_u32(),
                deadline: r.read_time(),
                faults: r.read_u64(),
            })
            .collect();
        self.dead_letters = (0..r.read_usize())
            .map(|_| persist::load_response(r))
            .collect();
    }
}

impl Component<Packet> for BridgeTargetSide {
    fn name(&self) -> &str {
        &self.name
    }

    fn register_metrics(&mut self, stats: &mut mpsoc_kernel::StatsRegistry) {
        self.counters = FaultCounters::register(&self.name, stats);
    }

    fn tick(&mut self, ctx: &mut TickContext<'_, Packet>) {
        let now = ctx.time;
        // Release initiators of abandoned transfers (error completions wait
        // for response-channel space like any other response).
        if !self.dead_letters.is_empty() && ctx.links.can_push(self.resp_out) {
            let dead = self.dead_letters.pop_front().expect("checked non-empty");
            ctx.links
                .push(self.resp_out, now, Packet::Response(dead))
                .expect("can_push checked");
        }
        // Return a response towards the source bus.
        if let Some(Packet::Response(resp)) = ctx.links.peek(self.resp_fifo, now) {
            let id = resp.txn.id;
            if self.consume_ack.contains(&id) {
                ctx.links.pop(self.resp_fifo, now);
                self.consume_ack.remove(&id);
            } else if ctx.links.can_push(self.resp_out) {
                let pkt = ctx.links.pop(self.resp_fifo, now).expect("peeked");
                let mut resp = pkt.expect_response();
                if let Some(width) = self.in_flight.remove(&id) {
                    resp.txn = resp.txn.with_width(width);
                }
                // The response data sits buffered in the bridge FIFO, so the
                // source-side re-stream runs gapless even if the original
                // target streamed with wait states.
                resp.gap_per_beat = 0;
                ctx.links
                    .push(self.resp_out, now, Packet::Response(resp))
                    .expect("can_push checked");
            }
        }
        // Retransmit a due retry, with priority over new accepts (one
        // request crosses per cycle either way).
        let due = self.retries.iter().position(|entry| entry.deadline <= now);
        if let Some(pos) = due {
            if ctx.links.can_push(self.req_fifo) {
                let mut entry = self.retries.remove(pos).expect("position found");
                entry.attempt += 1;
                ctx.faults.record_retry(1);
                ctx.stats.inc(self.counters.fault_retries, 1);
                ctx.stats
                    .emit_trace(now, &self.name, TraceKind::Forward, || {
                        format!("{} retransmission #{}", entry.txn, entry.attempt)
                    });
                self.dispatch(entry, ctx);
            }
            return;
        }
        // Accept a request from the source bus (store-and-forward: the
        // source bus delivers writes only once their data has fully
        // transferred, so the arrival time already reflects the store).
        let response_expected = ctx
            .links
            .peek(self.req_in, now)
            .and_then(Packet::as_request)
            .map(|t| !t.completes_on_acceptance());
        if let Some(response_expected) = response_expected {
            if self.accept_allowed(response_expected) && ctx.links.can_push(self.req_fifo) {
                let pkt = ctx.links.pop(self.req_in, now).expect("peeked");
                let mut txn = pkt.expect_request();
                self.src_width.get_or_insert(txn.width);
                if let Some(w) = self.config.out_width {
                    txn = txn.with_width(w);
                }
                let mut expects_response = response_expected;
                if self.config.strip_posted && txn.posted {
                    txn.posted = false;
                    // The downstream ack terminates here.
                    self.consume_ack.insert(txn.id);
                    expects_response = false;
                }
                if expects_response {
                    self.in_flight
                        .insert(txn.id, self.src_width.unwrap_or(txn.width));
                }
                ctx.stats
                    .emit_trace(now, &self.name, TraceKind::Forward, || {
                        format!("{txn} crosses ({} in flight)", self.in_flight.len())
                    });
                self.dispatch(
                    RetryEntry {
                        txn,
                        expects_response,
                        attempt: 0,
                        deadline: now,
                        faults: 0,
                    },
                    ctx,
                );
            }
        }
    }

    fn is_idle(&self) -> bool {
        self.in_flight.is_empty()
            && self.consume_ack.is_empty()
            && self.retries.is_empty()
            && self.dead_letters.is_empty()
    }

    fn watched_links(&self) -> Option<Vec<LinkId>> {
        Some(vec![self.req_in, self.resp_fifo])
    }

    fn next_activity(&self) -> Option<Time> {
        // Dead letters wait only on response-channel space, so they must be
        // retried every edge; retry entries sleep until their backoff
        // deadline. Everything else (accepts, response returns) is woken by
        // deliveries on req_in / resp_fifo.
        if !self.dead_letters.is_empty() {
            return Some(Time::ZERO);
        }
        self.retries.iter().map(|entry| entry.deadline).min()
    }

    fn stall_hint(&self, hint: &mut StallHint) {
        if !self.retries.is_empty() || !self.dead_letters.is_empty() {
            // Fault recovery in progress: keep polling as before.
            return;
        }
        // Watched link 0, `req_in`: a request only ever moves on into the
        // request FIFO, and under the blocking policy nothing is accepted
        // while a response is owed (the return of that response re-reads
        // this hint).
        let blocked =
            matches!(self.config.read_policy, ReadPolicy::Blocking) && !self.in_flight.is_empty();
        hint.gate_input(
            0,
            if blocked {
                Gate::CLOSED
            } else {
                Gate::space(self.req_fifo)
            },
        );
        // Watched link 1, `resp_fifo`: a response moves on to the source
        // bus, unless it is an ack the bridge swallows — which head that is
        // cannot be told from here, so any pending ack leaves the gate open.
        if self.consume_ack.is_empty() {
            hint.gate_input(1, Gate::space(self.resp_out));
        }
    }

    fn fast_forward(&mut self, ctx: &mut mpsoc_kernel::FastCtx<'_, Packet>) {
        while let Some(mut tc) = ctx.next_edge() {
            self.tick(&mut tc);
            if !self.dead_letters.is_empty()
                || ctx.has_deliverable(self.req_in)
                || ctx.has_deliverable(self.resp_fifo)
            {
                // Dead letters and backlog: polled unless `stall_hint` bars it.
                ctx.stall(&*self);
                continue;
            }
            let wake = self
                .retries
                .iter()
                .map(|entry| entry.deadline.as_ps())
                .min();
            ctx.sleep_until(wake.map(Time::from_ps));
        }
    }
}

/// The bridge half that appears as an *initiator* on the destination bus.
///
/// Created by [`Bridge::build`].
#[derive(Debug)]
pub struct BridgeInitiatorSide {
    name: String,
    req_fifo: LinkId,
    resp_fifo: LinkId,
    req_out: LinkId,
    resp_in: LinkId,
}

// The FIFO contents live in the kernel's link pool; this half keeps no
// private state of its own.
impl mpsoc_kernel::Snapshot for BridgeInitiatorSide {}

impl Component<Packet> for BridgeInitiatorSide {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut TickContext<'_, Packet>) {
        let now = ctx.time;
        // Responses from the destination bus into the response FIFO.
        if ctx.links.has_deliverable(self.resp_in, now) && ctx.links.can_push(self.resp_fifo) {
            let pkt = ctx.links.pop(self.resp_in, now).expect("deliverable");
            ctx.links
                .push(self.resp_fifo, now, pkt)
                .expect("can_push checked");
        }
        // Requests from the request FIFO onto the destination bus.
        if ctx.links.has_deliverable(self.req_fifo, now) && ctx.links.can_push(self.req_out) {
            let pkt = ctx.links.pop(self.req_fifo, now).expect("deliverable");
            ctx.links
                .push(self.req_out, now, pkt)
                .expect("can_push checked");
        }
    }

    fn watched_links(&self) -> Option<Vec<LinkId>> {
        Some(vec![self.req_fifo, self.resp_in])
    }
    // Purely reactive FIFO shuttling, so `next_activity` stays `None`: a
    // payload blocked by a full destination stays queued on the watched
    // link, which keeps the tick charged, and the stall hint below keeps it
    // from being dispatched until the destination has room.

    fn stall_hint(&self, hint: &mut StallHint) {
        // In `watched_links` order: each direction's head is only worth a
        // tick if its own destination can take it.
        hint.gate_input(0, Gate::space(self.req_out));
        hint.gate_input(1, Gate::space(self.resp_fifo));
    }

    fn fast_forward(&mut self, ctx: &mut mpsoc_kernel::FastCtx<'_, Packet>) {
        while let Some(mut tc) = ctx.next_edge() {
            self.tick(&mut tc);
            if ctx.has_deliverable(self.req_fifo) || ctx.has_deliverable(self.resp_in) {
                // One payload shuttles per direction per cycle; a head
                // whose destination is full waits for the next window.
                ctx.stall(&*self);
                continue;
            }
            ctx.sleep_until(None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc_kernel::Simulation;
    use mpsoc_protocol::testing::{FixedLatencyTarget, ScriptedInitiator};
    use mpsoc_protocol::{InitiatorId, Transaction};

    fn read(seq: u64, addr: u64, beats: u32) -> Transaction {
        Transaction::builder(InitiatorId::new(0), seq)
            .read(addr)
            .beats(beats)
            .width(DataWidth::BITS32)
            .build()
    }

    /// initiator -> bridge -> target, point to point.
    fn rig(
        config: BridgeConfig,
        script: Vec<Transaction>,
        target_ws: u32,
    ) -> (Simulation<Packet>, LinkId, LinkId) {
        let mut sim: Simulation<Packet> = Simulation::new();
        let src = ClockDomain::from_mhz(200);
        let dst = ClockDomain::from_mhz(250);
        let a_req = sim.links_mut().add_link("a.req", 2, src.period());
        let a_resp = sim.links_mut().add_link("a.resp", 2, src.period());
        let b_req = sim.links_mut().add_link("b.req", 2, dst.period());
        let b_resp = sim.links_mut().add_link("b.resp", 2, dst.period());
        let halves = Bridge::build(
            "br",
            config,
            sim.links_mut(),
            src,
            dst,
            (a_req, a_resp),
            (b_req, b_resp),
        );
        sim.add_component(
            Box::new(ScriptedInitiator::new("i0", a_req, a_resp, script, 8)),
            src,
        );
        sim.add_component(Box::new(halves.target_side), src);
        sim.add_component(Box::new(halves.initiator_side), dst);
        sim.add_component(
            Box::new(FixedLatencyTarget::new("t0", dst, b_req, b_resp, target_ws)),
            dst,
        );
        (sim, b_req, a_resp)
    }

    #[test]
    fn read_crosses_clock_domains_and_returns() {
        let (mut sim, _, a_resp) = rig(BridgeConfig::lightweight(), vec![read(1, 0x100, 4)], 1);
        sim.run_to_quiescence_strict(Time::from_us(100))
            .expect("drains");
        assert_eq!(sim.links().link(a_resp).stats().pushes, 1);
    }

    #[test]
    fn blocking_bridge_serialises_reads() {
        let script: Vec<Transaction> = (0..4).map(|s| read(s, 0x100, 4)).collect();
        let (mut sim, b_req, _) = rig(BridgeConfig::lightweight(), script.clone(), 10);
        // While the first read is outstanding (first response appears only
        // after ~44 ns of target service plus the return path) the second
        // must not reach the destination side.
        sim.run_until(Time::from_ns(40));
        assert_eq!(sim.links().link(b_req).stats().pushes, 1);
        let blocking_end = sim
            .run_to_quiescence_strict(Time::from_ms(10))
            .expect("drains");

        let (mut sim2, b_req2, _) = rig(BridgeConfig::genconv(), script, 10);
        sim2.run_until(Time::from_ns(300));
        assert!(
            sim2.links().link(b_req2).stats().pushes >= 2,
            "split bridge pipelines reads"
        );
        let split_end = sim2
            .run_to_quiescence_strict(Time::from_ms(10))
            .expect("drains");
        assert!(
            split_end < blocking_end,
            "split ({split_end}) must beat blocking ({blocking_end})"
        );
    }

    #[test]
    fn width_conversion_and_restoration() {
        let cfg = BridgeConfig::genconv().with_out_width(DataWidth::BITS64);
        let (mut sim, b_req, a_resp) = rig(cfg, vec![read(1, 0x100, 8)], 0);
        // Observe the converted request on the destination side.
        let mut seen_beats = None;
        for _ in 0..2000 {
            sim.step();
            if let Some(Packet::Request(t)) = sim.links().peek(b_req, Time::MAX) {
                seen_beats = Some((t.beats, t.width));
                break;
            }
        }
        assert_eq!(seen_beats, Some((4, DataWidth::BITS64)));
        sim.run_to_quiescence_strict(Time::from_ms(1))
            .expect("drains");
        // The response returned to the initiator restored to 32-bit beats.
        // (The link has already been drained by the initiator; check the
        // push count instead and rely on the conversion unit tests for the
        // width restore.)
        assert_eq!(sim.links().link(a_resp).stats().pushes, 1);
    }

    #[test]
    fn strip_posted_consumes_downstream_ack() {
        let cfg = BridgeConfig::genconv().with_strip_posted();
        let script = vec![Transaction::builder(InitiatorId::new(0), 1)
            .write(0x200)
            .beats(4)
            .width(DataWidth::BITS32)
            .posted(true)
            .build()];
        let (mut sim, _, a_resp) = rig(cfg, script, 1);
        sim.run_to_quiescence_strict(Time::from_ms(1))
            .expect("drains");
        // No response ever reaches the source side.
        assert_eq!(sim.links().link(a_resp).stats().pushes, 0);
    }

    #[test]
    fn posted_writes_flow_through_without_blocking() {
        let cfg = BridgeConfig::lightweight();
        let script: Vec<Transaction> = (0..5)
            .map(|s| {
                Transaction::builder(InitiatorId::new(0), s)
                    .write(0x100 + s * 64)
                    .beats(2)
                    .width(DataWidth::BITS32)
                    .posted(true)
                    .build()
            })
            .collect();
        let (mut sim, b_req, _) = rig(cfg, script, 1);
        sim.run_to_quiescence_strict(Time::from_ms(1))
            .expect("drains");
        assert_eq!(sim.links().link(b_req).stats().pushes, 5);
    }

    #[test]
    fn extra_latency_slows_the_path() {
        let fast = {
            let (mut sim, _, _) = rig(
                BridgeConfig::genconv().with_extra_latency(0),
                vec![read(1, 0x100, 4)],
                1,
            );
            sim.run_to_quiescence_strict(Time::from_ms(1))
                .expect("drains")
        };
        let slow = {
            let (mut sim, _, _) = rig(
                BridgeConfig::genconv().with_extra_latency(8),
                vec![read(1, 0x100, 4)],
                1,
            );
            sim.run_to_quiescence_strict(Time::from_ms(1))
                .expect("drains")
        };
        assert!(slow > fast, "latency knob must matter: {slow} vs {fast}");
    }
}
