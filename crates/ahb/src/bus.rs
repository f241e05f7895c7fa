//! The AHB shared-bus component.

use mpsoc_kernel::{ClockDomain, Component, Gate, LinkId, StallHint, TickContext, Time, TraceKind};
use mpsoc_protocol::{
    AddressMap, AddressMapError, AddressRange, ArbitrationPolicy, Contender, DataWidth, Packet,
    TransactionId,
};

/// How many cycles before the current transaction completes the arbiter may
/// hand out the next grant (early `HGRANTx` switching at the penultimate
/// beat). This is what hides the handover overhead in the many-to-one
/// scenario.
const EARLY_GRANT_CYCLES: u64 = 2;

/// Configuration of an [`AhbBus`].
#[derive(Debug, Clone, Copy)]
pub struct AhbBusConfig {
    /// Data-path width.
    pub width: DataWidth,
    /// Arbitration policy (AHB arbiters are typically fixed-priority, but
    /// all workspace policies are available).
    pub arbitration: ArbitrationPolicy,
}

impl Default for AhbBusConfig {
    fn default() -> Self {
        AhbBusConfig {
            width: DataWidth::BITS32,
            arbitration: ArbitrationPolicy::FixedPriority,
        }
    }
}

#[derive(Debug)]
struct InitiatorPort {
    req_in: LinkId,
    resp_out: LinkId,
}

#[derive(Debug)]
struct TargetPort {
    req_out: LinkId,
    resp_in: LinkId,
}

#[derive(Debug)]
struct Active {
    txn_id: TransactionId,
    initiator_port: usize,
    target_port: usize,
    granted_at: Time,
    /// Whether the completion is forwarded to the initiator. Posted writes
    /// are bus-terminated: the master already completed at injection, but
    /// the bus still holds until the target acknowledges (AHB writes are
    /// implicitly non-posted on the wire).
    forward_response: bool,
}

mpsoc_kernel::metric_ids! {
    /// The bus's counters, kept from `register_metrics`.
    struct Counters {
        busy_ps: counter,
        granted: counter,
        idle_waits: counter,
    }
}

/// A cycle-accurate AMBA AHB shared bus.
///
/// One transaction owns the bus at a time, from grant to the final response
/// beat — wait states of the target are bus idle cycles, the defining
/// non-split behaviour. Wiring follows the workspace link convention (see
/// [`StbusNode`] for the pattern); initiator and target components are
/// interchangeable across the bus crates.
///
/// [`StbusNode`]: https://docs.rs/mpsoc-stbus
///
/// # Examples
///
/// ```
/// use mpsoc_kernel::{Simulation, ClockDomain};
/// use mpsoc_protocol::{AddressRange, Packet};
/// use mpsoc_ahb::{AhbBus, AhbBusConfig};
///
/// let mut sim: Simulation<Packet> = Simulation::new();
/// let clk = ClockDomain::from_mhz(200);
/// let i_req = sim.links_mut().add_link("i.req", 2, clk.period());
/// let i_resp = sim.links_mut().add_link("i.resp", 2, clk.period());
/// let t_req = sim.links_mut().add_link("t.req", 2, clk.period());
/// let t_resp = sim.links_mut().add_link("t.resp", 2, clk.period());
///
/// let mut bus = AhbBus::new("ahb", AhbBusConfig::default(), clk);
/// bus.add_initiator(i_req, i_resp);
/// let t = bus.add_target(t_req, t_resp);
/// bus.add_route(AddressRange::new(0, 0x1000_0000), t)?;
/// sim.add_component(Box::new(bus), clk);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct AhbBus {
    name: String,
    config: AhbBusConfig,
    clock: ClockDomain,
    initiators: Vec<InitiatorPort>,
    targets: Vec<TargetPort>,
    map: AddressMap<usize>,
    active: Option<Active>,
    busy_until: Time,
    /// High-water mark of busy time already charged to the utilisation
    /// counter (early grants overlap transactions; intervals must not be
    /// double-counted).
    charged_until: Time,
    last_winner: usize,
    counters: Counters,
    /// Scratch for [`arbitrate`](Self::arbitrate), reused across ticks.
    contenders: Vec<Contender>,
}

impl AhbBus {
    /// Creates a bus with no ports.
    pub fn new(name: impl Into<String>, config: AhbBusConfig, clock: ClockDomain) -> Self {
        AhbBus {
            name: name.into(),
            config,
            clock,
            initiators: Vec::new(),
            targets: Vec::new(),
            map: AddressMap::new(),
            active: None,
            busy_until: Time::ZERO,
            charged_until: Time::ZERO,
            last_winner: 0,
            counters: Counters::default(),
            contenders: Vec::new(),
        }
    }

    /// Attaches an initiator port; returns its index.
    pub fn add_initiator(&mut self, req_in: LinkId, resp_out: LinkId) -> usize {
        self.initiators.push(InitiatorPort { req_in, resp_out });
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

    fn complete_active(&mut self, ctx: &mut TickContext<'_, Packet>) {
        let now = ctx.time;
        if now < self.busy_until {
            return;
        }
        let Some(active) = &self.active else { return };
        let resp_in = self.targets[active.target_port].resp_in;
        let Some(Packet::Response(resp)) = ctx.links.peek(resp_in, now) else {
            return;
        };
        assert_eq!(
            resp.txn.id, active.txn_id,
            "{}: response id mismatch on a single-outstanding bus",
            self.name
        );
        if active.forward_response
            && !ctx
                .links
                .can_push(self.initiators[active.initiator_port].resp_out)
        {
            return;
        }
        let pkt = ctx.links.pop(resp_in, now).expect("peeked above");
        let resp = pkt.expect_response();
        let cycles = resp.channel_cycles();
        let period = self.clock.period();
        self.busy_until = now + period * cycles;
        let active = self.active.take().expect("checked above");
        if active.forward_response {
            ctx.links
                .push_after(
                    self.initiators[active.initiator_port].resp_out,
                    now,
                    period * cycles.saturating_sub(1),
                    Packet::Response(resp),
                )
                .expect("can_push checked");
        }
        ctx.stats
            .emit_trace(now, &self.name, TraceKind::Deliver, || {
                format!("txn {} -> port {}", active.txn_id, active.initiator_port)
            });
        let charge_from = active.granted_at.max(self.charged_until);
        ctx.stats.inc(
            self.counters.busy_ps,
            self.busy_until.saturating_sub(charge_from).as_ps(),
        );
        self.charged_until = self.charged_until.max(self.busy_until);
    }

    fn arbitrate(&mut self, ctx: &mut TickContext<'_, Packet>) {
        let now = ctx.time;
        let period = self.clock.period();
        if self.active.is_some() {
            return;
        }
        // Early grant: the next master may be granted while the previous
        // transaction's final beats are still draining.
        let early = self.busy_until.saturating_sub(period * EARLY_GRANT_CYCLES);
        if now < early {
            return;
        }
        let mut contenders = std::mem::take(&mut self.contenders);
        contenders.clear();
        for (p, port) in self.initiators.iter().enumerate() {
            let Some(Packet::Request(txn)) = ctx.links.peek(port.req_in, now) else {
                continue;
            };
            let (addr, priority, created_at) = (txn.addr, txn.priority, txn.created_at);
            let Some(target) = self.map.route(addr) else {
                panic!("{}: no route for address {addr:#x}", self.name);
            };
            if !ctx.links.can_push(self.targets[target].req_out) {
                continue;
            }
            contenders.push(Contender {
                port: p,
                priority,
                created_at,
            });
        }
        let winner =
            self.config
                .arbitration
                .pick(&contenders, self.last_winner, self.initiators.len());
        self.contenders = contenders;
        let Some(winner) = winner else {
            return;
        };
        let pkt = ctx
            .links
            .pop(self.initiators[winner.port].req_in, now)
            .expect("contender head present");
        let mut txn = pkt.expect_request();
        debug_assert_eq!(
            txn.width, self.config.width,
            "{}: transaction width mismatch (missing converter?)",
            self.name
        );
        let target = self.map.route(txn.addr).expect("routed above");
        // AHB writes are non-posted on the wire: the bus always collects the
        // target's acknowledgement, but only forwards it if the master
        // expects one.
        let forward_response = !txn.completes_on_acceptance();
        txn.posted = false;
        let req_cycles = txn.request_cycles();
        // The address phase may overlap the previous data phase (pipelining)
        // but the request must not reach the target before the bus is free.
        let natural_arrival = now + period * req_cycles;
        let arrival = natural_arrival.max(self.busy_until);
        let extra = arrival - now - period;
        self.last_winner = winner.port;
        let txn_id = txn.id;
        ctx.links
            .push_after(
                self.targets[target].req_out,
                now,
                extra,
                Packet::Request(txn),
            )
            .expect("can_push checked");
        self.active = Some(Active {
            txn_id,
            initiator_port: winner.port,
            target_port: target,
            granted_at: now,
            forward_response,
        });
        self.busy_until = self.busy_until.max(arrival);
        ctx.stats.emit_trace(now, &self.name, TraceKind::Grant, || {
            format!("txn {txn_id} port {} -> target {target}", winner.port)
        });
        ctx.stats.inc(self.counters.granted, 1);
    }
}

impl mpsoc_kernel::Snapshot for AhbBus {
    fn save(&self, w: &mut mpsoc_kernel::StateWriter) {
        use mpsoc_protocol::persist;
        w.write_bool(self.active.is_some());
        if let Some(active) = &self.active {
            persist::save_txn_id(active.txn_id, w);
            w.write_usize(active.initiator_port);
            w.write_usize(active.target_port);
            w.write_time(active.granted_at);
            w.write_bool(active.forward_response);
        }
        w.write_time(self.busy_until);
        w.write_time(self.charged_until);
        w.write_usize(self.last_winner);
    }

    fn restore(&mut self, r: &mut mpsoc_kernel::StateReader<'_>) {
        use mpsoc_protocol::persist;
        self.active = r.read_bool().then(|| Active {
            txn_id: persist::load_txn_id(r),
            initiator_port: r.read_usize(),
            target_port: r.read_usize(),
            granted_at: r.read_time(),
            forward_response: r.read_bool(),
        });
        self.busy_until = r.read_time();
        self.charged_until = r.read_time();
        self.last_winner = r.read_usize();
    }
}

impl Component<Packet> for AhbBus {
    fn name(&self) -> &str {
        &self.name
    }

    fn register_metrics(&mut self, stats: &mut mpsoc_kernel::StatsRegistry) {
        self.counters = Counters::register(&self.name, stats);
    }

    fn tick(&mut self, ctx: &mut TickContext<'_, Packet>) {
        self.complete_active(ctx);
        if self.active.is_some() && ctx.time >= self.busy_until {
            // Bus held, waiting on the target: idle wait cycles (the paper's
            // "memory wait states translate into idle cycles for AMBA AHB").
            ctx.stats.inc(self.counters.idle_waits, 1);
        }
        self.arbitrate(ctx);
    }

    fn is_idle(&self) -> bool {
        self.active.is_none()
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

    fn next_activity(&self) -> Option<Time> {
        // While a transaction is held the bus has its own deadline: the
        // data-phase end (`busy_until`), after which every further cycle
        // spent waiting on the target counts as an idle wait — `busy_until`
        // stays in the past then, so each of those edges is a charged tick
        // exactly as on the dense schedule (the stall hint says which of
        // them are worth a dispatch). An un-held bus is purely reactive
        // (grants need a deliverable request, which wakes it).
        self.active.is_some().then_some(self.busy_until)
    }

    fn stall_hint(&self, hint: &mut StallHint) {
        // In `watched_links` order: initiator request wires, then target
        // response wires.
        let ports = self.initiators.len();
        match &self.active {
            Some(active) => {
                // Bus held: no arbitration, and the only response looked at
                // is the active target's, once the data phase is over and —
                // if it is forwarded — the master's wire has room.
                hint.gate_inputs(Gate::CLOSED);
                let mut completion = Gate::until(self.busy_until);
                if active.forward_response {
                    completion =
                        completion.with_space(self.initiators[active.initiator_port].resp_out);
                }
                hint.gate_input(ports + active.target_port, completion);
                // Until then every cycle past the data phase counts one
                // idle wait and does nothing else.
                hint.gate_deadline(Gate::CLOSED);
                hint.count_elided(self.counters.idle_waits, self.busy_until);
            }
            None => {
                // Free bus: the next grant comes no earlier than the early
                // grant point of the draining transaction, and with a single
                // target it needs room on that target's request wire.
                let early = self
                    .busy_until
                    .saturating_sub(self.clock.period() * EARLY_GRANT_CYCLES);
                let mut request = Gate::until(early);
                if let [only] = self.targets.as_slice() {
                    request = request.with_space(only.req_out);
                }
                hint.gate_inputs(request);
                // No response is expected; one that shows up is looked at.
                for t in 0..self.targets.len() {
                    hint.gate_input(ports + t, Gate::OPEN);
                }
            }
        }
    }

    fn fast_forward(&mut self, ctx: &mut mpsoc_kernel::FastCtx<'_, Packet>) {
        while let Some(mut tc) = ctx.next_edge() {
            let now = tc.time;
            self.tick(&mut tc);
            if self.active.is_some() {
                if now < self.busy_until {
                    ctx.sleep_until(Some(self.busy_until));
                } else {
                    // Held past the data phase: every cycle until the
                    // response completes only counts an idle wait.
                    ctx.stall(&*self);
                }
            } else {
                // Un-held bus: a grant needs a new request (watched) or
                // target wire space (frees only across windows).
                ctx.sleep_until(None);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc_kernel::Simulation;
    use mpsoc_protocol::testing::{FixedLatencyTarget, ScriptedInitiator};
    use mpsoc_protocol::{InitiatorId, Transaction};

    const CLK_MHZ: u64 = 200;

    fn read(init: u16, seq: u64, addr: u64, beats: u32) -> Transaction {
        Transaction::builder(InitiatorId::new(init), seq)
            .read(addr)
            .beats(beats)
            .width(DataWidth::BITS32)
            .build()
    }

    struct Rig {
        sim: Simulation<Packet>,
        clk: ClockDomain,
        bus: Option<AhbBus>,
    }

    impl Rig {
        fn new() -> Self {
            let clk = ClockDomain::from_mhz(CLK_MHZ);
            Rig {
                sim: Simulation::new(),
                clk,
                bus: Some(AhbBus::new("ahb", AhbBusConfig::default(), clk)),
            }
        }

        fn attach_initiator(&mut self, name: &str, script: Vec<Transaction>) -> (LinkId, LinkId) {
            let req = self
                .sim
                .links_mut()
                .add_link(format!("{name}.req"), 2, self.clk.period());
            let resp = self
                .sim
                .links_mut()
                .add_link(format!("{name}.resp"), 2, self.clk.period());
            self.bus.as_mut().unwrap().add_initiator(req, resp);
            self.sim.add_component(
                Box::new(ScriptedInitiator::new(name, req, resp, script, 4)),
                self.clk,
            );
            (req, resp)
        }

        fn attach_target(&mut self, name: &str, range: AddressRange, ws: u32) -> (LinkId, LinkId) {
            let req = self
                .sim
                .links_mut()
                .add_link(format!("{name}.req"), 2, self.clk.period());
            let resp = self
                .sim
                .links_mut()
                .add_link(format!("{name}.resp"), 2, self.clk.period());
            let t = self.bus.as_mut().unwrap().add_target(req, resp);
            self.bus.as_mut().unwrap().add_route(range, t).unwrap();
            self.sim.add_component(
                Box::new(FixedLatencyTarget::new(name, self.clk, req, resp, ws)),
                self.clk,
            );
            (req, resp)
        }

        fn finish(&mut self) {
            let bus = self.bus.take().expect("finish called once");
            self.sim.add_component(Box::new(bus), self.clk);
        }
    }

    #[test]
    fn single_read_completes() {
        let mut rig = Rig::new();
        rig.attach_initiator("i0", vec![read(0, 1, 0x100, 4)]);
        rig.attach_target("t0", AddressRange::new(0, 1 << 20), 1);
        rig.finish();
        rig.sim
            .run_to_quiescence_strict(Time::from_us(100))
            .expect("drains");
        assert_eq!(rig.sim.stats().counter_by_name("ahb.granted"), 1);
    }

    /// Non-split behaviour: with two slow targets, AHB cannot overlap the
    /// two initiators' transactions — unlike a split bus, adding a second
    /// target does not help.
    #[test]
    fn non_split_bus_cannot_overlap_targets() {
        let run = |two_targets: bool| -> Time {
            let mut rig = Rig::new();
            rig.attach_initiator("i0", (0..5).map(|s| read(0, s, 0x100, 4)).collect());
            rig.attach_initiator(
                "i1",
                (0..5)
                    .map(|s| read(1, s, if two_targets { 0x10_0100 } else { 0x100 }, 4))
                    .collect(),
            );
            rig.attach_target("t0", AddressRange::new(0, 1 << 20), 6);
            rig.attach_target("t1", AddressRange::new(1 << 20, 1 << 21), 6);
            rig.finish();
            rig.sim
                .run_to_quiescence_strict(Time::from_ms(10))
                .expect("drains")
        };
        let one = run(false);
        let two = run(true);
        // The second target absorbs no contention: execution time barely
        // moves (only the target-side service pipelining differs slightly).
        let ratio = two.as_ps() as f64 / one.as_ps() as f64;
        assert!(
            ratio > 0.9,
            "non-split bus should not gain from a second target, ratio {ratio}"
        );
    }

    /// The bus is held during target wait states (idle waits accumulate).
    #[test]
    fn wait_states_hold_the_bus() {
        let mut rig = Rig::new();
        rig.attach_initiator("i0", vec![read(0, 1, 0x100, 2)]);
        rig.attach_target("t0", AddressRange::new(0, 1 << 20), 20);
        rig.finish();
        rig.sim
            .run_to_quiescence_strict(Time::from_ms(1))
            .expect("drains");
        assert!(rig.sim.stats().counter_by_name("ahb.idle_waits") > 10);
    }

    /// Posted writes are bus-terminated: the target ack is consumed by the
    /// bus and the master sees no response, yet the bus was held for the
    /// full write duration.
    #[test]
    fn posted_writes_are_bus_terminated() {
        let mut rig = Rig::new();
        let script = vec![Transaction::builder(InitiatorId::new(0), 1)
            .write(0x100)
            .beats(4)
            .width(DataWidth::BITS32)
            .posted(true)
            .build()];
        let (_, i_resp) = rig.attach_initiator("i0", script);
        rig.attach_target("t0", AddressRange::new(0, 1 << 20), 1);
        rig.finish();
        rig.sim
            .run_to_quiescence_strict(Time::from_us(100))
            .expect("drains");
        assert_eq!(rig.sim.links().link(i_resp).stats().pushes, 0);
        assert_eq!(rig.sim.stats().counter_by_name("ahb.granted"), 1);
    }

    /// Bus utilisation accounting: grant-to-completion time is charged.
    #[test]
    fn busy_time_accounts_grant_to_completion() {
        let mut rig = Rig::new();
        rig.attach_initiator("i0", vec![read(0, 1, 0x100, 4)]);
        rig.attach_target("t0", AddressRange::new(0, 1 << 20), 1);
        rig.finish();
        let end = rig
            .sim
            .run_to_quiescence_strict(Time::from_us(100))
            .expect("drains");
        let busy = rig.sim.stats().counter_by_name("ahb.busy_ps");
        assert!(busy > 0);
        assert!(busy <= end.as_ps());
    }

    /// Fixed-priority arbitration favours the higher-priority master.
    #[test]
    fn priority_arbitration() {
        let mut rig = Rig::new();
        let low: Vec<Transaction> = (0..4).map(|s| read(0, s, 0x100, 4)).collect();
        let high: Vec<Transaction> = (0..4)
            .map(|s| {
                let mut t = read(1, s, 0x200, 4);
                t.priority = 7;
                t
            })
            .collect();
        rig.attach_initiator("low", low);
        rig.attach_initiator("high", high);
        rig.attach_target("t0", AddressRange::new(0, 1 << 20), 4);
        rig.finish();
        // After a settling cycle both have pending heads; the high-priority
        // master should win the majority of early grants. Run to completion
        // and compare first-completion times via the response links.
        rig.sim
            .run_to_quiescence_strict(Time::from_ms(1))
            .expect("drains");
        assert_eq!(rig.sim.stats().counter_by_name("ahb.granted"), 8);
    }

    /// Back-to-back transactions on an idle target: early grant keeps the
    /// response channel at its efficiency ceiling (no handover bubbles).
    #[test]
    fn no_handover_bubble_between_bursts() {
        let mut rig = Rig::new();
        let n = 10u64;
        let beats = 4u32;
        rig.attach_initiator("i0", (0..n).map(|s| read(0, s, 0x100, beats)).collect());
        rig.attach_target("t0", AddressRange::new(0, 1 << 20), 1);
        rig.finish();
        let end = rig
            .sim
            .run_to_quiescence_strict(Time::from_ms(1))
            .expect("drains");
        let period = rig.clk.period();
        let cycles = end.as_ps() / period.as_ps();
        // Per transaction: ~beats*(1+ws) service cycles + small constant
        // pipeline overhead; with early grant the steady-state cost per
        // transaction must stay close to the service time.
        let per_txn = cycles as f64 / n as f64;
        assert!(
            per_txn < 14.0,
            "expected < 14 cycles per 4-beat transaction, got {per_txn}"
        );
    }
}
