//! The AXI interconnect component.

use mpsoc_kernel::{ClockDomain, Component, Gate, LinkId, StallHint, TickContext, Time, TraceKind};
use mpsoc_protocol::{
    AddressMap, AddressMapError, AddressRange, ArbitrationPolicy, Contender, DataWidth, Opcode,
    Packet, TransactionId,
};
use std::collections::{HashMap, VecDeque};

/// Configuration of an [`AxiInterconnect`].
#[derive(Debug, Clone, Copy)]
pub struct AxiInterconnectConfig {
    /// Data-path width.
    pub width: DataWidth,
    /// Arbitration policy, applied independently per channel and per cycle
    /// (AXI's fine-granularity arbitration).
    pub arbitration: ArbitrationPolicy,
    /// Maximum response-expecting transactions per initiator port.
    pub max_outstanding: usize,
    /// When true, responses to each initiator are delivered in issue order
    /// (single-ID behaviour); when false, out-of-order completion is
    /// allowed (distinct transaction IDs).
    pub in_order: bool,
}

impl Default for AxiInterconnectConfig {
    fn default() -> Self {
        AxiInterconnectConfig {
            width: DataWidth::BITS64,
            arbitration: ArbitrationPolicy::RoundRobin,
            max_outstanding: 4,
            in_order: false,
        }
    }
}

#[derive(Debug)]
struct InitiatorPort {
    req_in: LinkId,
    resp_out: LinkId,
    outstanding: usize,
}

#[derive(Debug)]
struct TargetPort {
    req_out: LinkId,
    resp_in: LinkId,
}

mpsoc_kernel::metric_ids! {
    /// The interconnect's counters, kept from `register_metrics`.
    struct Counters {
        r_busy_ps: counter,
        delivered: counter,
        reads_granted: counter,
        writes_granted: counter,
        w_busy_ps: counter,
    }
}

/// A cycle-accurate AMBA AXI interconnect with five independent channels.
///
/// # Examples
///
/// ```
/// use mpsoc_kernel::{Simulation, ClockDomain};
/// use mpsoc_protocol::{AddressRange, Packet};
/// use mpsoc_axi::{AxiInterconnect, AxiInterconnectConfig};
///
/// let mut sim: Simulation<Packet> = Simulation::new();
/// let clk = ClockDomain::from_mhz(250);
/// let i_req = sim.links_mut().add_link("i.req", 2, clk.period());
/// let i_resp = sim.links_mut().add_link("i.resp", 2, clk.period());
/// let t_req = sim.links_mut().add_link("t.req", 2, clk.period());
/// let t_resp = sim.links_mut().add_link("t.resp", 2, clk.period());
///
/// let mut axi = AxiInterconnect::new("axi", AxiInterconnectConfig::default(), clk);
/// axi.add_initiator(i_req, i_resp);
/// let t = axi.add_target(t_req, t_resp);
/// axi.add_route(AddressRange::new(0, 0x1000_0000), t)?;
/// sim.add_component(Box::new(axi), clk);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct AxiInterconnect {
    name: String,
    config: AxiInterconnectConfig,
    clock: ClockDomain,
    initiators: Vec<InitiatorPort>,
    targets: Vec<TargetPort>,
    map: AddressMap<usize>,
    ar_busy: Time,
    aw_busy: Time,
    w_busy: Time,
    r_busy: Time,
    b_busy: Time,
    last_ar_winner: usize,
    last_aw_winner: usize,
    resp_rr: usize,
    in_flight: HashMap<TransactionId, usize>,
    /// Issue order per original initiator id (single-ID in-order mode);
    /// ordering per physical port would deadlock behind bridges that
    /// multiplex several sources.
    expected_by_source: HashMap<mpsoc_protocol::InitiatorId, VecDeque<TransactionId>>,
    counters: Counters,
    /// Scratch for [`arbitrate_requests`](Self::arbitrate_requests): the
    /// contenders of the channel being arbitrated. Cleared per use, never
    /// state.
    contenders: Vec<Contender>,
    /// What the last tick left at the head of each initiator's request
    /// wire, for [`Component::stall_hint`]. A deliverable head stays the
    /// head until this interconnect pops it (anything pushed later is
    /// delivered later), so a note holds until the next tick rewrites it.
    /// Derived, never serialized: a restore forgets the notes, which only
    /// leaves gates open.
    req_heads: Vec<Option<RequestNote>>,
    /// The same for each target's response wire.
    resp_heads: Vec<Option<ResponseNote>>,
}

/// The part of a queued request that decides what it waits for.
#[derive(Debug, Clone, Copy)]
struct RequestNote {
    opcode: Opcode,
    target: usize,
    /// Response-expecting: needs one of the port's outstanding slots.
    needs_slot: bool,
}

/// The part of a queued response that decides what it waits for.
#[derive(Debug, Clone, Copy)]
struct ResponseNote {
    opcode: Opcode,
    /// The initiator port it returns to.
    port: usize,
}

impl AxiInterconnect {
    /// Creates an interconnect with no ports.
    pub fn new(name: impl Into<String>, config: AxiInterconnectConfig, clock: ClockDomain) -> Self {
        AxiInterconnect {
            name: name.into(),
            config,
            clock,
            initiators: Vec::new(),
            targets: Vec::new(),
            map: AddressMap::new(),
            ar_busy: Time::ZERO,
            aw_busy: Time::ZERO,
            w_busy: Time::ZERO,
            r_busy: Time::ZERO,
            b_busy: Time::ZERO,
            last_ar_winner: 0,
            last_aw_winner: 0,
            resp_rr: 0,
            in_flight: HashMap::new(),
            expected_by_source: HashMap::new(),
            counters: Counters::default(),
            contenders: Vec::new(),
            req_heads: Vec::new(),
            resp_heads: Vec::new(),
        }
    }

    /// Attaches an initiator port; returns its index.
    pub fn add_initiator(&mut self, req_in: LinkId, resp_out: LinkId) -> usize {
        self.initiators.push(InitiatorPort {
            req_in,
            resp_out,
            outstanding: 0,
        });
        self.initiators.len() - 1
    }

    /// Attaches a target port; returns its index.
    pub fn add_target(&mut self, req_out: LinkId, resp_in: LinkId) -> usize {
        self.targets.push(TargetPort { req_out, resp_in });
        self.targets.len() - 1
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
    pub fn add_route(&mut self, range: AddressRange, target: usize) -> Result<(), AddressMapError> {
        assert!(
            target < self.targets.len(),
            "route to unknown target port {target}"
        );
        self.map.add(range, target)
    }

    /// Number of initiator ports.
    pub fn initiator_count(&self) -> usize {
        self.initiators.len()
    }

    /// Number of target ports.
    pub fn target_count(&self) -> usize {
        self.targets.len()
    }

    /// Delivers at most one response on the R channel (reads) and one on
    /// the B channel (write acks) per cycle.
    fn deliver_responses(&mut self, ctx: &mut TickContext<'_, Packet>) {
        let now = ctx.time;
        let period = self.clock.period();
        let n_targets = self.targets.len();
        if n_targets == 0 {
            return;
        }
        let mut r_done = self.r_busy > now;
        let mut b_done = self.b_busy > now;
        for k in 0..n_targets {
            if r_done && b_done {
                break;
            }
            let t = (self.resp_rr + k) % n_targets;
            let Some(Packet::Response(resp)) = ctx.links.peek(self.targets[t].resp_in, now) else {
                continue;
            };
            let is_read = resp.txn.opcode == Opcode::Read;
            if (is_read && r_done) || (!is_read && b_done) {
                continue;
            }
            let Some(&init_port) = self.in_flight.get(&resp.txn.id) else {
                panic!(
                    "{}: response for unknown transaction {}",
                    self.name, resp.txn.id
                );
            };
            if self.config.in_order
                && self
                    .expected_by_source
                    .get(&resp.txn.initiator)
                    .and_then(|q| q.front())
                    .is_some_and(|&head| head != resp.txn.id)
            {
                continue;
            }
            if !ctx.links.can_push(self.initiators[init_port].resp_out) {
                continue;
            }
            let pkt = ctx
                .links
                .pop(self.targets[t].resp_in, now)
                .expect("peeked above");
            let resp = pkt.expect_response();
            let cycles = resp.channel_cycles();
            if is_read {
                self.r_busy = now + period * cycles;
                r_done = true;
                ctx.stats
                    .inc(self.counters.r_busy_ps, (period * cycles).as_ps());
            } else {
                self.b_busy = now + period * cycles;
                b_done = true;
            }
            self.in_flight.remove(&resp.txn.id);
            if let Some(q) = self.expected_by_source.get_mut(&resp.txn.initiator) {
                if self.config.in_order {
                    q.pop_front();
                } else {
                    q.retain(|&id| id != resp.txn.id);
                }
                if q.is_empty() {
                    self.expected_by_source.remove(&resp.txn.initiator);
                }
            }
            let port = &mut self.initiators[init_port];
            port.outstanding = port.outstanding.saturating_sub(1);
            let resp_out = port.resp_out;
            ctx.links
                .push_after(
                    resp_out,
                    now,
                    period * cycles.saturating_sub(1),
                    Packet::Response(resp),
                )
                .expect("can_push checked");
            ctx.stats
                .emit_trace(now, &self.name, TraceKind::Deliver, || {
                    format!(
                        "{} channel -> port {init_port}",
                        if is_read { "R" } else { "B" }
                    )
                });
            ctx.stats.inc(self.counters.delivered, 1);
            self.resp_rr = (t + 1) % n_targets;
        }
    }

    /// Collects the grantable contenders of one address channel into `found`
    /// (emptied first).
    fn contenders(
        &self,
        ctx: &mut TickContext<'_, Packet>,
        want: Opcode,
        found: &mut Vec<Contender>,
    ) {
        let now = ctx.time;
        let max_outstanding = self.config.max_outstanding.max(1);
        found.clear();
        for (p, port) in self.initiators.iter().enumerate() {
            let Some(Packet::Request(txn)) = ctx.links.peek(port.req_in, now) else {
                continue;
            };
            if txn.opcode != want {
                continue;
            }
            let (addr, priority, created_at) = (txn.addr, txn.priority, txn.created_at);
            let needs_slot = !txn.completes_on_acceptance();
            let Some(target) = self.map.route(addr) else {
                panic!("{}: no route for address {addr:#x}", self.name);
            };
            if !ctx.links.can_push(self.targets[target].req_out) {
                continue;
            }
            if needs_slot && port.outstanding >= max_outstanding {
                continue;
            }
            found.push(Contender {
                port: p,
                priority,
                created_at,
            });
        }
    }

    fn grant(&mut self, ctx: &mut TickContext<'_, Packet>, winner: Contender) {
        let now = ctx.time;
        let period = self.clock.period();
        let pkt = ctx
            .links
            .pop(self.initiators[winner.port].req_in, now)
            .expect("contender head present");
        let txn = pkt.expect_request();
        debug_assert_eq!(
            txn.width, self.config.width,
            "{}: transaction width mismatch (missing converter?)",
            self.name
        );
        let target = self.map.route(txn.addr).expect("routed in contenders");
        ctx.stats.emit_trace(now, &self.name, TraceKind::Grant, || {
            format!("{txn} port {} -> target {target}", winner.port)
        });
        match txn.opcode {
            Opcode::Read => {
                // AR: a single address cell; the read can arrive at the
                // target on the next cycle.
                self.ar_busy = now + period;
                self.last_ar_winner = winner.port;
                ctx.stats.inc(self.counters.reads_granted, 1);
            }
            Opcode::Write => {
                // AW + W: the address goes out now, data occupies W for the
                // burst length; the write lands when its last beat does.
                self.aw_busy = now + period;
                self.w_busy = now + period * txn.beats as u64;
                self.last_aw_winner = winner.port;
                ctx.stats.inc(self.counters.writes_granted, 1);
                ctx.stats
                    .inc(self.counters.w_busy_ps, (period * txn.beats as u64).as_ps());
            }
        }
        let extra = match txn.opcode {
            Opcode::Read => Time::ZERO,
            Opcode::Write => period * (txn.beats as u64 - 1),
        };
        if !txn.completes_on_acceptance() {
            let port = &mut self.initiators[winner.port];
            port.outstanding += 1;
            self.expected_by_source
                .entry(txn.initiator)
                .or_default()
                .push_back(txn.id);
            self.in_flight.insert(txn.id, winner.port);
        }
        ctx.links
            .push_after(
                self.targets[target].req_out,
                now,
                extra,
                Packet::Request(txn),
            )
            .expect("can_push checked");
    }

    fn arbitrate_requests(&mut self, ctx: &mut TickContext<'_, Packet>) {
        let now = ctx.time;
        let mut contenders = std::mem::take(&mut self.contenders);
        // AR channel.
        if self.ar_busy <= now {
            self.contenders(ctx, Opcode::Read, &mut contenders);
            if let Some(w) = self.config.arbitration.pick(
                &contenders,
                self.last_ar_winner,
                self.initiators.len(),
            ) {
                self.grant(ctx, w);
            }
        }
        // AW/W channels.
        if self.aw_busy <= now && self.w_busy <= now {
            self.contenders(ctx, Opcode::Write, &mut contenders);
            if let Some(w) = self.config.arbitration.pick(
                &contenders,
                self.last_aw_winner,
                self.initiators.len(),
            ) {
                self.grant(ctx, w);
            }
        }
        self.contenders = contenders;
    }

    /// Records what this tick leaves queued at the head of every watched
    /// wire (see [`req_heads`](Self::req_heads)).
    fn note_heads(&mut self, ctx: &mut TickContext<'_, Packet>) {
        let now = ctx.time;
        self.req_heads.clear();
        for port in &self.initiators {
            let note = match ctx.links.peek(port.req_in, now) {
                Some(Packet::Request(txn)) => self.map.route(txn.addr).map(|target| RequestNote {
                    opcode: txn.opcode,
                    target,
                    needs_slot: !txn.completes_on_acceptance(),
                }),
                _ => None,
            };
            self.req_heads.push(note);
        }
        self.resp_heads.clear();
        for target in &self.targets {
            let note = match ctx.links.peek(target.resp_in, now) {
                Some(Packet::Response(resp)) => {
                    self.in_flight.get(&resp.txn.id).map(|&port| ResponseNote {
                        opcode: resp.txn.opcode,
                        port,
                    })
                }
                _ => None,
            };
            self.resp_heads.push(note);
        }
    }
}

impl mpsoc_kernel::Snapshot for AxiInterconnect {
    fn save(&self, w: &mut mpsoc_kernel::StateWriter) {
        use mpsoc_protocol::persist;
        w.write_usize(self.initiators.len());
        for port in &self.initiators {
            w.write_usize(port.outstanding);
        }
        for t in [
            self.ar_busy,
            self.aw_busy,
            self.w_busy,
            self.r_busy,
            self.b_busy,
        ] {
            w.write_time(t);
        }
        w.write_usize(self.last_ar_winner);
        w.write_usize(self.last_aw_winner);
        w.write_usize(self.resp_rr);
        let mut in_flight: Vec<_> = self.in_flight.iter().collect();
        in_flight.sort();
        w.write_usize(in_flight.len());
        for (id, port) in in_flight {
            persist::save_txn_id(*id, w);
            w.write_usize(*port);
        }
        let mut by_source: Vec<_> = self.expected_by_source.iter().collect();
        by_source.sort_by_key(|(src, _)| src.raw());
        w.write_usize(by_source.len());
        for (src, queue) in by_source {
            w.write_u16(src.raw());
            w.write_usize(queue.len());
            for id in queue {
                persist::save_txn_id(*id, w);
            }
        }
    }

    fn restore(&mut self, r: &mut mpsoc_kernel::StateReader<'_>) {
        use mpsoc_protocol::persist;
        let ports = r.read_usize();
        for i in 0..ports {
            let outstanding = r.read_usize();
            if let Some(port) = self.initiators.get_mut(i) {
                port.outstanding = outstanding;
            }
        }
        self.ar_busy = r.read_time();
        self.aw_busy = r.read_time();
        self.w_busy = r.read_time();
        self.r_busy = r.read_time();
        self.b_busy = r.read_time();
        self.last_ar_winner = r.read_usize();
        self.last_aw_winner = r.read_usize();
        self.resp_rr = r.read_usize();
        self.in_flight.clear();
        for _ in 0..r.read_usize() {
            let id = persist::load_txn_id(r);
            let port = r.read_usize();
            self.in_flight.insert(id, port);
        }
        self.expected_by_source.clear();
        for _ in 0..r.read_usize() {
            let src = mpsoc_protocol::InitiatorId::new(r.read_u16());
            let queue = (0..r.read_usize())
                .map(|_| persist::load_txn_id(r))
                .collect();
            self.expected_by_source.insert(src, queue);
        }
        self.req_heads.clear();
        self.resp_heads.clear();
    }
}

impl Component<Packet> for AxiInterconnect {
    fn name(&self) -> &str {
        &self.name
    }

    fn register_metrics(&mut self, stats: &mut mpsoc_kernel::StatsRegistry) {
        self.counters = Counters::register(&self.name, stats);
    }

    fn tick(&mut self, ctx: &mut TickContext<'_, Packet>) {
        self.deliver_responses(ctx);
        self.arbitrate_requests(ctx);
        self.note_heads(ctx);
    }

    fn is_idle(&self) -> bool {
        self.in_flight.is_empty()
    }

    fn watched_links(&self) -> Option<Vec<LinkId>> {
        Some(
            self.initiators
                .iter()
                .map(|p| p.req_in)
                .chain(self.targets.iter().map(|t| t.resp_in))
                .collect(),
        )
    }
    // Purely reactive: every grant and delivery requires a deliverable
    // packet on a watched link. Channel-busy windows need no timer — a
    // packet waiting out a busy channel stays queued, which keeps the tick
    // charged, and the stall hint below names the busy-until instants so it
    // is not dispatched before a channel frees. `next_activity` stays
    // `None`.

    fn stall_hint(&self, hint: &mut StallHint) {
        // In `watched_links` order: initiator request wires, then target
        // response wires.
        let write_free = self.aw_busy.max(self.w_busy);
        let max_outstanding = self.config.max_outstanding.max(1);
        for (p, port) in self.initiators.iter().enumerate() {
            let gate = match self.req_heads.get(p).copied().flatten() {
                // The head this interconnect left queued: granted no earlier
                // than its address channel frees and its target's wire has
                // room, and not at all while the port is at its outstanding
                // cap (a slot frees on a response delivery, which re-reads
                // this hint).
                Some(head) if head.needs_slot && port.outstanding >= max_outstanding => {
                    Gate::CLOSED
                }
                Some(head) => Gate::until(match head.opcode {
                    Opcode::Read => self.ar_busy,
                    Opcode::Write => write_free,
                })
                .with_space(self.targets[head.target].req_out),
                // A head not seen yet: held until the earlier of AR and
                // AW/W frees.
                None => Gate::until(self.ar_busy.min(write_free)),
            };
            hint.gate_input(p, gate);
        }
        let ports = self.initiators.len();
        for t in 0..self.targets.len() {
            let gate = match self.resp_heads.get(t).copied().flatten() {
                // The head left queued: delivered no earlier than its
                // channel frees and its master's wire has room.
                Some(head) => Gate::until(match head.opcode {
                    Opcode::Read => self.r_busy,
                    Opcode::Write => self.b_busy,
                })
                .with_space(self.initiators[head.port].resp_out),
                // A head not seen yet: held until the earlier of R and B
                // frees.
                None => Gate::until(self.r_busy.min(self.b_busy)),
            };
            hint.gate_input(ports + t, gate);
        }
    }

    fn fast_forward(&mut self, ctx: &mut mpsoc_kernel::FastCtx<'_, Packet>) {
        while let Some(mut tc) = ctx.next_edge() {
            let now = tc.time;
            self.tick(&mut tc);
            // Inside a window a queued packet sees no *new* delivery, so the
            // sleep must be bounded by the earliest channel-busy expiry;
            // full output wires free only across windows.
            let mut wake = u64::MAX;
            for busy in [
                self.ar_busy,
                self.aw_busy,
                self.w_busy,
                self.r_busy,
                self.b_busy,
            ] {
                if busy > now {
                    wake = wake.min(busy.as_ps());
                }
            }
            ctx.sleep_until((wake != u64::MAX).then(|| Time::from_ps(wake)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc_kernel::Simulation;
    use mpsoc_protocol::testing::{FixedLatencyTarget, ScriptedInitiator};
    use mpsoc_protocol::{InitiatorId, Transaction};

    const CLK_MHZ: u64 = 250;

    fn read(init: u16, seq: u64, addr: u64, beats: u32) -> Transaction {
        Transaction::builder(InitiatorId::new(init), seq)
            .read(addr)
            .beats(beats)
            .width(DataWidth::BITS64)
            .build()
    }

    fn write(init: u16, seq: u64, addr: u64, beats: u32, posted: bool) -> Transaction {
        Transaction::builder(InitiatorId::new(init), seq)
            .write(addr)
            .beats(beats)
            .width(DataWidth::BITS64)
            .posted(posted)
            .build()
    }

    struct Rig {
        sim: Simulation<Packet>,
        clk: ClockDomain,
        axi: Option<AxiInterconnect>,
    }

    impl Rig {
        fn new(config: AxiInterconnectConfig) -> Self {
            let clk = ClockDomain::from_mhz(CLK_MHZ);
            Rig {
                sim: Simulation::new(),
                clk,
                axi: Some(AxiInterconnect::new("axi", config, clk)),
            }
        }

        fn attach_initiator(
            &mut self,
            name: &str,
            script: Vec<Transaction>,
            max_outstanding: usize,
        ) -> (LinkId, LinkId) {
            let req = self
                .sim
                .links_mut()
                .add_link(format!("{name}.req"), 2, self.clk.period());
            let resp = self
                .sim
                .links_mut()
                .add_link(format!("{name}.resp"), 2, self.clk.period());
            self.axi.as_mut().unwrap().add_initiator(req, resp);
            self.sim.add_component(
                Box::new(ScriptedInitiator::new(
                    name,
                    req,
                    resp,
                    script,
                    max_outstanding,
                )),
                self.clk,
            );
            (req, resp)
        }

        fn attach_target(&mut self, name: &str, range: AddressRange, ws: u32) -> (LinkId, LinkId) {
            let req = self
                .sim
                .links_mut()
                .add_link(format!("{name}.req"), 4, self.clk.period());
            let resp = self
                .sim
                .links_mut()
                .add_link(format!("{name}.resp"), 4, self.clk.period());
            let t = self.axi.as_mut().unwrap().add_target(req, resp);
            self.axi.as_mut().unwrap().add_route(range, t).unwrap();
            self.sim.add_component(
                Box::new(FixedLatencyTarget::new(name, self.clk, req, resp, ws)),
                self.clk,
            );
            (req, resp)
        }

        fn finish(&mut self) {
            let axi = self.axi.take().expect("finish called once");
            self.sim.add_component(Box::new(axi), self.clk);
        }

        fn run(&mut self) -> Time {
            self.sim
                .run_to_quiescence_strict(Time::from_ms(10))
                .expect("drains")
        }
    }

    #[test]
    fn read_round_trip() {
        let mut rig = Rig::new(AxiInterconnectConfig::default());
        rig.attach_initiator("i0", vec![read(0, 1, 0x100, 4)], 4);
        rig.attach_target("t0", AddressRange::new(0, 1 << 20), 1);
        rig.finish();
        rig.run();
        assert_eq!(rig.sim.stats().counter_by_name("axi.reads_granted"), 1);
        assert_eq!(rig.sim.stats().counter_by_name("axi.delivered"), 1);
    }

    /// Reads and posted writes flow on disjoint channels: mixing them costs
    /// barely more than the slower stream alone.
    #[test]
    fn read_and_write_channels_are_independent() {
        let reads: Vec<Transaction> = (0..10).map(|s| read(0, s, 0x100, 8)).collect();
        let writes: Vec<Transaction> = (0..10)
            .map(|s| write(1, s, 0x10_0000 + s * 64, 8, true))
            .collect();

        let time_reads = {
            let mut rig = Rig::new(AxiInterconnectConfig::default());
            rig.attach_initiator("i0", reads.clone(), 4);
            rig.attach_target("t0", AddressRange::new(0, 1 << 20), 1);
            rig.attach_target("t1", AddressRange::new(1 << 20, 1 << 21), 1);
            rig.finish();
            rig.run()
        };
        let time_both = {
            let mut rig = Rig::new(AxiInterconnectConfig::default());
            rig.attach_initiator("i0", reads.clone(), 4);
            rig.attach_initiator("i1", writes.clone(), 4);
            rig.attach_target("t0", AddressRange::new(0, 1 << 20), 1);
            rig.attach_target("t1", AddressRange::new(1 << 20, 1 << 21), 1);
            rig.finish();
            rig.run()
        };
        let ratio = time_both.as_ps() as f64 / time_reads.as_ps() as f64;
        assert!(
            ratio < 1.35,
            "write traffic should ride its own channels, ratio {ratio}"
        );
    }

    /// Burst overlapping: with several outstanding reads the R channel runs
    /// at its streaming ceiling rather than one-burst-per-round-trip.
    #[test]
    fn burst_overlap_fills_r_channel() {
        let beats = 8u32;
        let n = 20u64;
        let run = |outstanding: usize| -> Time {
            let mut rig = Rig::new(AxiInterconnectConfig::default());
            rig.attach_initiator(
                "i0",
                (0..n).map(|s| read(0, s, 0x100, beats)).collect(),
                outstanding,
            );
            rig.attach_target("t0", AddressRange::new(0, 1 << 20), 1);
            rig.finish();
            rig.run()
        };
        let pipelined = run(4);
        let serial = run(1);
        assert!(
            pipelined.as_ps() as f64 <= serial.as_ps() as f64,
            "outstanding reads should not slow things down"
        );
    }

    /// Outstanding limit is enforced per initiator port.
    #[test]
    fn outstanding_limit_enforced() {
        let cfg = AxiInterconnectConfig {
            max_outstanding: 2,
            ..AxiInterconnectConfig::default()
        };
        let mut rig = Rig::new(cfg);
        rig.attach_initiator("i0", (0..6).map(|s| read(0, s, 0x100, 4)).collect(), 8);
        rig.attach_target("t0", AddressRange::new(0, 1 << 20), 200);
        rig.finish();
        rig.sim.run_until(Time::from_ns(600));
        assert_eq!(rig.sim.stats().counter_by_name("axi.reads_granted"), 2);
    }

    /// Write acknowledgements ride the B channel and do not consume R
    /// channel bandwidth: a read stream is unaffected by concurrent
    /// non-posted writes.
    #[test]
    fn b_channel_does_not_steal_r_bandwidth() {
        let reads_only = {
            let mut rig = Rig::new(AxiInterconnectConfig::default());
            rig.attach_initiator("i0", (0..15).map(|s| read(0, s, 0x100, 8)).collect(), 4);
            rig.attach_target("t0", AddressRange::new(0, 1 << 20), 1);
            rig.attach_target("t1", AddressRange::new(1 << 20, 1 << 21), 1);
            rig.finish();
            rig.run()
        };
        let with_acked_writes = {
            let mut rig = Rig::new(AxiInterconnectConfig::default());
            rig.attach_initiator("i0", (0..15).map(|s| read(0, s, 0x100, 8)).collect(), 4);
            rig.attach_initiator(
                "i1",
                (0..15)
                    .map(|s| write(1, s, (1 << 20) + s * 64, 1, false))
                    .collect(),
                4,
            );
            rig.attach_target("t0", AddressRange::new(0, 1 << 20), 1);
            rig.attach_target("t1", AddressRange::new(1 << 20, 1 << 21), 1);
            rig.finish();
            rig.run()
        };
        let ratio = with_acked_writes.as_ps() as f64 / reads_only.as_ps() as f64;
        assert!(ratio < 1.3, "acks must ride the B channel, ratio {ratio}");
    }

    /// The W channel is occupied for every data beat: long write bursts
    /// throttle the write stream even though AW is free.
    #[test]
    fn w_channel_occupancy_paces_writes() {
        let run = |beats: u32| {
            let mut rig = Rig::new(AxiInterconnectConfig::default());
            // Same total bytes, different burst shapes.
            let n = 64 / beats as u64;
            rig.attach_initiator(
                "i0",
                (0..n).map(|s| write(0, s, s * 1024, beats, true)).collect(),
                4,
            );
            rig.attach_target("t0", AddressRange::new(0, 1 << 20), 0);
            rig.finish();
            (rig.run(), rig.sim.stats().counter_by_name("axi.w_busy_ps"))
        };
        let (_, busy_long) = run(16);
        let (_, busy_short) = run(4);
        // Equal payload => equal W-channel busy time, independent of shape.
        assert_eq!(busy_long, busy_short);
    }

    /// Out-of-order completion by default, in-order when configured.
    #[test]
    fn ordering_mode_controls_overtaking() {
        use mpsoc_protocol::testing::CompletionLog;
        use std::sync::{Arc, Mutex};
        let run = |in_order: bool| -> Vec<u64> {
            let cfg = AxiInterconnectConfig {
                in_order,
                ..AxiInterconnectConfig::default()
            };
            let clk = ClockDomain::from_mhz(CLK_MHZ);
            let mut sim: Simulation<Packet> = Simulation::new();
            let mut axi = AxiInterconnect::new("axi", cfg, clk);
            let i_req = sim.links_mut().add_link("i.req", 4, clk.period());
            let i_resp = sim.links_mut().add_link("i.resp", 4, clk.period());
            axi.add_initiator(i_req, i_resp);
            let s_req = sim.links_mut().add_link("s.req", 2, clk.period());
            let s_resp = sim.links_mut().add_link("s.resp", 2, clk.period());
            let f_req = sim.links_mut().add_link("f.req", 2, clk.period());
            let f_resp = sim.links_mut().add_link("f.resp", 2, clk.period());
            let ts = axi.add_target(s_req, s_resp);
            let tf = axi.add_target(f_req, f_resp);
            axi.add_route(AddressRange::new(0, 0x1000), ts).unwrap();
            axi.add_route(AddressRange::new(0x1000, 0x2000), tf)
                .unwrap();
            sim.add_component(Box::new(axi), clk);
            let log: CompletionLog = Arc::new(Mutex::new(Vec::new()));
            let script = vec![read(0, 1, 0x100, 4), read(0, 2, 0x1100, 4)];
            sim.add_component(
                Box::new(
                    ScriptedInitiator::new("i0", i_req, i_resp, script, 4)
                        .with_shared_log(log.clone()),
                ),
                clk,
            );
            sim.add_component(
                Box::new(FixedLatencyTarget::new("slow", clk, s_req, s_resp, 30)),
                clk,
            );
            sim.add_component(
                Box::new(FixedLatencyTarget::new("fast", clk, f_req, f_resp, 0)),
                clk,
            );
            sim.run_to_quiescence_strict(Time::from_ms(10))
                .expect("drains");
            let order: Vec<u64> = log
                .lock()
                .unwrap()
                .iter()
                .map(|(_, t)| t.id.sequence())
                .collect();
            order
        };
        assert_eq!(run(false), vec![2, 1], "OOO lets the fast read overtake");
        assert_eq!(run(true), vec![1, 2], "in-order holds the fast read back");
    }
}
