//! The IP traffic generator (IPTG).

use crate::trace::IssueRecorder;
use mpsoc_kernel::{
    Component, Gate, LinkId, Persist, SplitMix64, StallHint, StateReader, StateWriter, TickContext,
    Time,
};
use mpsoc_protocol::{DataWidth, InitiatorId, MessageId, Packet, Transaction};
use std::collections::HashMap;
use std::fmt;

/// How an agent generates burst start addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddressPattern {
    /// Consecutive bursts walk a region sequentially (streaming DMA-style),
    /// wrapping at the end. Friendly to SDRAM row buffers and opcode
    /// merging.
    Sequential {
        /// First byte of the region.
        base: u64,
        /// Region length in bytes.
        len: u64,
    },
    /// Uniformly random burst addresses inside a region (cache-miss-like).
    Random {
        /// First byte of the region.
        base: u64,
        /// Region length in bytes.
        len: u64,
    },
    /// Fixed-stride walking (image-processing style: column accesses).
    Strided {
        /// First byte of the region.
        base: u64,
        /// Region length in bytes.
        len: u64,
        /// Bytes between consecutive burst starts.
        stride: u64,
    },
}

impl AddressPattern {
    fn next(&self, cursor: &mut u64, align: u64, rng: &mut SplitMix64) -> u64 {
        match *self {
            AddressPattern::Sequential { base, len } => {
                let addr = base + (*cursor % len.max(align));
                *cursor += align;
                addr / align * align
            }
            AddressPattern::Random { base, len } => {
                let slots = (len / align).max(1);
                base + rng.range(0, slots) * align
            }
            AddressPattern::Strided { base, len, stride } => {
                let addr = base + (*cursor % len.max(stride));
                *cursor += stride;
                addr / align * align
            }
        }
    }
}

/// One workload segment of an agent: a transaction budget with its own
/// burstiness and think-time parameters. Agents run their segments in
/// order; platform-level workload *phases* (e.g. the two working regimes of
/// the paper's Figure 6) are built from per-agent segment boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficSegment {
    /// Number of transactions to issue in this segment.
    pub transactions: u64,
    /// Burst length range `[min, max]` (transactions issued back-to-back).
    pub burst_len: (u32, u32),
    /// Think-time range `[min, max]` in generator cycles between bursts.
    pub think_cycles: (u64, u64),
}

/// Configuration of one IPTG agent (internal sub-process of an IP).
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// Diagnostic name.
    pub name: String,
    /// Address generation.
    pub pattern: AddressPattern,
    /// Probability that a transaction is a read (vs write).
    pub read_fraction: f64,
    /// Choices for the number of beats per transaction (picked uniformly).
    pub beats_choices: Vec<u32>,
    /// Transactions per message (STBus message grouping); bursts are cut
    /// into messages of this size.
    pub message_len: u32,
    /// Maximum in-flight response-expecting transactions for this agent.
    pub max_outstanding: usize,
    /// Whether writes are posted (subject to the platform protocol's
    /// capability — strip before configuring if unsupported).
    pub posted_writes: bool,
    /// Whether the agent must drain all outstanding responses before
    /// starting its think time (a dependent-processing stage), or may
    /// pipeline thinking with outstanding traffic.
    pub blocking: bool,
    /// STBus priority label for this agent's transactions.
    pub priority: u8,
    /// Workload segments, executed in order.
    pub segments: Vec<TrafficSegment>,
    /// Optional start dependency: `(agent index, fraction)` — this agent
    /// stays quiet until the referenced agent has completed the given
    /// fraction of its total budget (an IPTG synchronisation point).
    pub start_after: Option<(usize, f64)>,
}

impl AgentConfig {
    /// A simple single-segment agent used as a starting point.
    pub fn simple(name: impl Into<String>, pattern: AddressPattern, transactions: u64) -> Self {
        AgentConfig {
            name: name.into(),
            pattern,
            read_fraction: 1.0,
            beats_choices: vec![8],
            message_len: 1,
            max_outstanding: 2,
            posted_writes: true,
            blocking: false,
            priority: 0,
            segments: vec![TrafficSegment {
                transactions,
                burst_len: (1, 4),
                think_cycles: (0, 8),
            }],
            start_after: None,
        }
    }

    /// Total transaction budget across segments.
    pub fn total_transactions(&self) -> u64 {
        self.segments.iter().map(|s| s.transactions).sum()
    }
}

/// Configuration of an [`IpTrafficGenerator`].
#[derive(Debug, Clone)]
pub struct IptgConfig {
    /// The generator's initiator id (must be platform-unique).
    pub initiator: InitiatorId,
    /// Bus-interface data width transactions are expressed in.
    pub width: DataWidth,
    /// The agents of this IP.
    pub agents: Vec<AgentConfig>,
    /// Seed for this generator's private random stream.
    pub seed: u64,
}

impl IptgConfig {
    /// Validates agent dependencies.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid `start_after` reference
    /// (out of range or self-referencing).
    pub fn validate(&self) -> Result<(), String> {
        for (i, a) in self.agents.iter().enumerate() {
            if let Some((dep, frac)) = a.start_after {
                if dep >= self.agents.len() {
                    return Err(format!("agent {i} depends on missing agent {dep}"));
                }
                if dep == i {
                    return Err(format!("agent {i} depends on itself"));
                }
                if !(0.0..=1.0).contains(&frac) {
                    return Err(format!("agent {i} dependency fraction {frac} out of range"));
                }
            }
            if a.beats_choices.is_empty() {
                return Err(format!("agent {i} has no beats choices"));
            }
        }
        Ok(())
    }

    /// Total transaction budget across agents.
    pub fn total_transactions(&self) -> u64 {
        self.agents.iter().map(|a| a.total_transactions()).sum()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AgentState {
    /// Waiting for a start dependency.
    Pending,
    /// In think time until the given instant.
    Thinking(Time),
    /// Issuing a burst with this many transactions left in it.
    Bursting(u32),
    /// Budget exhausted.
    Done,
}

/// What an agent is: structure, fixed at construction.
#[derive(Debug)]
struct Agent {
    config: AgentConfig,
    /// `config.total_transactions()`, summed once.
    budget: u64,
}

/// Where an agent is: its dynamic state.
#[derive(Debug)]
struct AgentRun {
    state: AgentState,
    segment: usize,
    issued_in_segment: u64,
    issued_total: u64,
    completed: u64,
    outstanding: usize,
    cursor: u64,
    msg_remaining: u32,
    current_msg: Option<MessageId>,
    rng: SplitMix64,
}

impl AgentRun {
    fn done_fraction(&self, budget: u64) -> f64 {
        if budget == 0 {
            1.0
        } else {
            self.completed as f64 / budget as f64
        }
    }

    /// Budget exhausted and every response back: nothing left to do.
    fn finished(&self) -> bool {
        self.state == AgentState::Done && self.outstanding == 0
    }
}

/// A `u8` tag (pending, thinking, bursting, done), the think deadline after
/// tag 1 and the burst remainder after tag 2.
impl Persist for AgentState {
    fn save(&self, w: &mut StateWriter) {
        match *self {
            AgentState::Pending => w.write_u8(0),
            AgentState::Thinking(until) => {
                w.write_u8(1);
                until.save(w);
            }
            AgentState::Bursting(left) => {
                w.write_u8(2);
                w.write_u32(left);
            }
            AgentState::Done => w.write_u8(3),
        }
    }

    fn load(r: &mut StateReader<'_>) -> Self {
        match r.read_u8() {
            0 => AgentState::Pending,
            1 => AgentState::Thinking(Persist::load(r)),
            2 => AgentState::Bursting(r.read_u32()),
            3 => AgentState::Done,
            tag => r.unknown_tag(tag, AgentState::Done),
        }
    }
}

mpsoc_kernel::snapshot_state! {
    impl Persist for AgentRun {
        state, segment, issued_in_segment, issued_total, completed, outstanding, cursor,
        msg_remaining, current_msg, rng,
    }
}

mpsoc_kernel::metric_ids! {
    /// The generator's metrics, kept from `register_metrics`.
    struct Metrics {
        completed: counter,
        error_responses: counter,
        done_at_ns: counter,
        injected: counter,
        latency_ns: histogram,
    }
}

/// The IPTG component: one bus initiator interface multiplexing the traffic
/// of several agents.
///
/// # Examples
///
/// ```
/// use mpsoc_kernel::{Simulation, ClockDomain};
/// use mpsoc_protocol::{InitiatorId, DataWidth, Packet};
/// use mpsoc_traffic::{IpTrafficGenerator, IptgConfig, AgentConfig, AddressPattern};
///
/// let mut sim: Simulation<Packet> = Simulation::new();
/// let clk = ClockDomain::from_mhz(200);
/// let req = sim.links_mut().add_link("ip.req", 2, clk.period());
/// let resp = sim.links_mut().add_link("ip.resp", 2, clk.period());
/// let config = IptgConfig {
///     initiator: InitiatorId::new(1),
///     width: DataWidth::BITS64,
///     agents: vec![AgentConfig::simple(
///         "fetch",
///         AddressPattern::Sequential { base: 0x8000_0000, len: 1 << 20 },
///         100,
///     )],
///     seed: 42,
/// };
/// let gen = IpTrafficGenerator::new("video", config, req, resp).expect("valid config");
/// sim.add_component(Box::new(gen), clk);
/// ```
#[derive(Debug)]
pub struct IpTrafficGenerator {
    name: String,
    initiator: InitiatorId,
    width: DataWidth,
    req_out: LinkId,
    resp_in: LinkId,
    agents: Vec<Agent>,
    /// One run per agent, in the same order.
    runs: Vec<AgentRun>,
    /// Runs not yet [`finished`](AgentRun::finished). Derived from `runs`
    /// (recounted on restore), kept so `is_idle` is not a scan per tick.
    unfinished: usize,
    txn_agent: HashMap<u64, usize>,
    seq: u64,
    msg_seq: u64,
    rr: usize,
    metrics: Metrics,
    done_recorded: bool,
    issue_recorder: Option<IssueRecorder>,
}

/// Error constructing an [`IpTrafficGenerator`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidIptgConfig(String);

impl fmt::Display for InvalidIptgConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid IPTG configuration: {}", self.0)
    }
}

impl std::error::Error for InvalidIptgConfig {}

impl IpTrafficGenerator {
    /// Creates a generator.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidIptgConfig`] if the configuration fails
    /// [`IptgConfig::validate`].
    pub fn new(
        name: impl Into<String>,
        config: IptgConfig,
        req_out: LinkId,
        resp_in: LinkId,
    ) -> Result<Self, InvalidIptgConfig> {
        config.validate().map_err(InvalidIptgConfig)?;
        let mut seed_rng = SplitMix64::new(config.seed);
        let runs: Vec<AgentRun> = config
            .agents
            .iter()
            .map(|a| AgentRun {
                state: if a.start_after.is_some() {
                    AgentState::Pending
                } else {
                    AgentState::Thinking(Time::ZERO)
                },
                segment: 0,
                issued_in_segment: 0,
                issued_total: 0,
                completed: 0,
                outstanding: 0,
                cursor: 0,
                msg_remaining: 0,
                current_msg: None,
                rng: seed_rng.fork(),
            })
            .collect();
        let agents: Vec<Agent> = config
            .agents
            .into_iter()
            .map(|a| Agent {
                budget: a.total_transactions(),
                config: a,
            })
            .collect();
        Ok(IpTrafficGenerator {
            name: name.into(),
            initiator: config.initiator,
            width: config.width,
            req_out,
            resp_in,
            unfinished: agents.len(),
            agents,
            runs,
            txn_agent: HashMap::new(),
            seq: 0,
            msg_seq: 0,
            rr: 0,
            metrics: Metrics::default(),
            done_recorded: false,
            issue_recorder: None,
        })
    }

    /// Mirrors every issued transaction into `recorder`, so the session can
    /// later be replayed bit-exactly with a
    /// [`TraceDrivenGenerator`](crate::TraceDrivenGenerator).
    /// The recorder captures in whatever gear the run uses; replayable order
    /// is the cycle gear's (a fast-gear window issues ahead of neighbours).
    pub fn with_issue_recorder(mut self, recorder: IssueRecorder) -> Self {
        self.issue_recorder = Some(recorder);
        self
    }

    /// The generator's initiator id.
    pub fn initiator(&self) -> InitiatorId {
        self.initiator
    }

    /// Transactions injected so far.
    pub fn injected(&self) -> u64 {
        self.runs.iter().map(|a| a.issued_total).sum()
    }

    /// Transactions completed so far.
    pub fn completed(&self) -> u64 {
        self.runs.iter().map(|a| a.completed).sum()
    }

    /// Restore's check hook: one run per agent, each inside its agent's
    /// segments, and every in-flight transaction and the round-robin
    /// pointer naming an agent this generator has. `unfinished` is derived
    /// from the runs and recounted.
    fn after_restore(&mut self, r: &mut StateReader<'_>) {
        let agents = self.agents.len();
        let fits = self.runs.len() == agents
            && self.agents.iter().zip(&self.runs).all(|(agent, run)| {
                let segments = agent.config.segments.len();
                run.segment < segments || (run.segment == segments && run.state == AgentState::Done)
            })
            && self.txn_agent.values().all(|&i| i < agents)
            && self.rr <= agents;
        if !fits {
            r.refuse(format!("{}: state does not fit {agents} agents", self.name));
        }
        self.unfinished = self.runs.iter().filter(|a| !a.finished()).count();
    }

    /// Advances agent states that depend on time or dependencies; returns
    /// the index of an agent ready to issue this cycle, if any.
    fn pick_issuer(&mut self, now: Time) -> Option<usize> {
        let n = self.agents.len();
        for k in 0..n {
            let i = (self.rr + k) % n;
            loop {
                match self.runs[i].state {
                    AgentState::Done => break,
                    AgentState::Pending => {
                        // Completion counts do not move inside this
                        // function, so reading the one fraction on demand
                        // sees what a table built up front would.
                        if !self.dependency_met(i) {
                            break;
                        }
                        self.runs[i].state = AgentState::Thinking(now);
                    }
                    AgentState::Thinking(until) => {
                        if now < until {
                            break;
                        }
                        let (agent, run) = (&self.agents[i], &mut self.runs[i]);
                        // A blocking agent models a dependent processing
                        // stage: it will not open a new burst while
                        // responses are still outstanding.
                        if agent.config.blocking && run.outstanding > 0 {
                            break;
                        }
                        // Start a burst.
                        let seg = agent.config.segments[run.segment];
                        let remaining = seg.transactions - run.issued_in_segment;
                        let (lo, hi) = seg.burst_len;
                        let len = run.rng.range(lo as u64, hi as u64 + 1) as u32;
                        let len = (len as u64).min(remaining) as u32;
                        run.state = AgentState::Bursting(len.max(1));
                    }
                    AgentState::Bursting(_) => {
                        if self.runs[i].outstanding >= self.agents[i].config.max_outstanding {
                            break;
                        }
                        return Some(i);
                    }
                }
            }
        }
        None
    }

    /// Whether the start dependency of pending agent `i` has completed its
    /// required fraction.
    fn dependency_met(&self, i: usize) -> bool {
        let (dep, frac) = self.agents[i]
            .config
            .start_after
            .expect("pending implies dep");
        self.runs[dep].done_fraction(self.agents[dep].budget) >= frac
    }

    /// Earliest instant at which some agent may act without a new response.
    /// With `skip_response_blocked`, blocking agents still owed a response
    /// are left out: their think deadline is moot until it arrives.
    fn earliest_deadline(&self, skip_response_blocked: bool) -> Option<Time> {
        let mut earliest: Option<Time> = None;
        let mut merge = |t: Time| earliest = Some(earliest.map_or(t, |e| e.min(t)));
        for (i, (agent, run)) in self.agents.iter().zip(&self.runs).enumerate() {
            match run.state {
                AgentState::Done => {}
                AgentState::Pending => {
                    // Completion fractions only advance when this generator
                    // ticks (responses are drained here), so an unmet
                    // dependency needs no deadline — the hint is re-read
                    // after every executed tick. A met one is due at once:
                    // the transition itself waits only on request-link
                    // space, which `stall_hint` gates on.
                    if self.dependency_met(i) {
                        merge(Time::ZERO);
                    }
                }
                AgentState::Thinking(until) => {
                    if !(skip_response_blocked && agent.config.blocking && run.outstanding > 0) {
                        merge(until);
                    }
                }
                AgentState::Bursting(_) => {
                    if run.outstanding < agent.config.max_outstanding {
                        merge(Time::ZERO);
                    }
                    // At the outstanding cap the agent resumes on a
                    // response, which arrives on the watched link.
                }
            }
        }
        earliest
    }

    fn after_issue(&mut self, i: usize, now: Time, clock_period: Time) {
        let (agent, run) = (&self.agents[i], &mut self.runs[i]);
        run.issued_in_segment += 1;
        run.issued_total += 1;
        let AgentState::Bursting(left) = run.state else {
            unreachable!("issuer must be bursting");
        };
        let seg = agent.config.segments[run.segment];
        let segment_done = run.issued_in_segment >= seg.transactions;
        if segment_done {
            run.segment += 1;
            run.issued_in_segment = 0;
        }
        if run.segment >= agent.config.segments.len() {
            run.state = AgentState::Done;
            if run.finished() {
                self.unfinished -= 1;
            }
            return;
        }
        if left <= 1 || segment_done {
            // Burst over: think.
            let seg = agent.config.segments[run.segment];
            let (lo, hi) = seg.think_cycles;
            let think = run.rng.range(lo, hi + 1);
            run.state = AgentState::Thinking(now + clock_period * think);
            run.current_msg = None;
            run.msg_remaining = 0;
        } else {
            run.state = AgentState::Bursting(left - 1);
        }
    }
}

// The issue recorder is a test-side observation channel; it stays whatever
// the restoring harness wired up.
mpsoc_kernel::snapshot_state! {
    impl Snapshot for IpTrafficGenerator {
        runs, txn_agent, seq, msg_seq, rr, done_recorded,
    } then after_restore
}

impl Component<Packet> for IpTrafficGenerator {
    fn name(&self) -> &str {
        &self.name
    }

    fn register_metrics(&mut self, stats: &mut mpsoc_kernel::StatsRegistry) {
        self.metrics = Metrics::register(&self.name, stats);
    }

    fn tick(&mut self, ctx: &mut TickContext<'_, Packet>) {
        let now = ctx.time;
        // Drain one response per cycle.
        if let Some(pkt) = ctx.links.pop(self.resp_in, now) {
            let resp = pkt.expect_response();
            let agent_idx = self
                .txn_agent
                .remove(&resp.txn.id.raw())
                .expect("response for a transaction this generator issued");
            let run = &mut self.runs[agent_idx];
            run.outstanding -= 1;
            run.completed += 1;
            if run.finished() {
                self.unfinished -= 1;
            }
            ctx.stats.inc(self.metrics.completed, 1);
            if resp.error {
                // An error completion: the fabric abandoned this transaction
                // after exhausting its retry budget. The agent moves on, but
                // the loss is observable per generator.
                ctx.stats.inc(self.metrics.error_responses, 1);
            }
            ctx.stats.record(
                self.metrics.latency_ns,
                (now.saturating_sub(resp.txn.created_at)).as_ns(),
            );
        }

        if !self.done_recorded && self.is_idle() {
            self.done_recorded = true;
            ctx.stats.inc(self.metrics.done_at_ns, ctx.time.as_ns());
        }
        if !ctx.links.can_push(self.req_out) {
            return;
        }
        // The period of this generator's clock: infer from the request
        // link's latency, which the platform wires to one generator cycle.
        let period = ctx.links.link(self.req_out).latency();
        let Some(i) = self.pick_issuer(now) else {
            return;
        };
        self.rr = i + 1;
        // Build the transaction.
        let (agent, run) = (&self.agents[i], &mut self.runs[i]);
        let align = self.width.bytes() as u64;
        let beats_idx = run.rng.range(0, agent.config.beats_choices.len() as u64) as usize;
        let beats = agent.config.beats_choices[beats_idx];
        let addr = agent
            .config
            .pattern
            .next(&mut run.cursor, align * beats as u64, &mut run.rng);
        let is_read = run.rng.chance(agent.config.read_fraction);
        if run.msg_remaining == 0 {
            self.msg_seq += 1;
            run.current_msg = Some(MessageId::new(
                ((self.initiator.raw() as u64) << 40) | self.msg_seq,
            ));
            run.msg_remaining = agent.config.message_len.max(1);
        }
        run.msg_remaining -= 1;
        let message = run.current_msg.expect("set above");
        let last_in_message = run.msg_remaining == 0;
        self.seq += 1;
        let mut builder = Transaction::builder(self.initiator, self.seq);
        builder = if is_read {
            builder.read(addr)
        } else {
            builder.write(addr)
        };
        let txn = builder
            .beats(beats)
            .width(self.width)
            .priority(agent.config.priority)
            .posted(!is_read && agent.config.posted_writes)
            .message(message, last_in_message)
            .created_at(now)
            .build();
        if !txn.completes_on_acceptance() {
            run.outstanding += 1;
            self.txn_agent.insert(txn.id.raw(), i);
        } else {
            run.completed += 1;
        }
        if let Some(recorder) = &self.issue_recorder {
            recorder.record(now, txn.opcode, txn.addr, txn.beats, txn.posted);
        }
        ctx.links
            .push(self.req_out, now, Packet::Request(txn))
            .expect("can_push checked");
        ctx.stats.inc(self.metrics.injected, 1);
        self.after_issue(i, now, period);
    }

    fn is_idle(&self) -> bool {
        debug_assert_eq!(
            self.unfinished,
            self.runs.iter().filter(|a| !a.finished()).count()
        );
        self.unfinished == 0
    }

    fn watched_links(&self) -> Option<Vec<LinkId>> {
        Some(vec![self.resp_in])
    }

    fn next_activity(&self) -> Option<Time> {
        if self.is_idle() {
            // One more tick records the done timestamp, then the generator
            // sleeps for good.
            return (!self.done_recorded).then_some(Time::ZERO);
        }
        self.earliest_deadline(false)
    }

    fn stall_hint(&self, hint: &mut StallHint) {
        if self.is_idle() {
            // Recording `done_at_ns` needs no request slot.
            return;
        }
        // Everything a deadline can start ends in a push onto the request
        // wire (`tick` returns at `!can_push(req_out)` before looking at any
        // agent), and a blocking agent whose think time is over still waits
        // for its last response. Responses are drained whatever the gate
        // says: they arrive on the watched link, which is not gated.
        let due = self.earliest_deadline(true).unwrap_or(Time::MAX);
        hint.gate_deadline(Gate::until(due).with_space(self.req_out));
    }

    fn fast_forward(&mut self, ctx: &mut mpsoc_kernel::FastCtx<'_, Packet>) {
        while let Some(mut tc) = ctx.next_edge() {
            self.tick(&mut tc);
            if ctx.has_deliverable(self.resp_in) {
                // Responses drain one per cycle: backlog keeps the
                // generator ticking.
                continue;
            }
            // A full request wire frees only across windows: blocked on one,
            // only a new response bounds the sleep.
            let room = ctx.can_push(self.req_out);
            if ctx.sleep_until(room.then(|| self.next_activity()).flatten()) == 0 {
                // Due — but maybe a blocking agent's, still owed a response.
                ctx.stall(&*self);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc_kernel::{ClockDomain, Simulation};
    use mpsoc_protocol::testing::FixedLatencyTarget;

    fn base_agent(transactions: u64) -> AgentConfig {
        AgentConfig::simple(
            "a",
            AddressPattern::Sequential {
                base: 0x1000,
                len: 1 << 16,
            },
            transactions,
        )
    }

    fn rig(config: IptgConfig) -> (Simulation<Packet>, LinkId, LinkId) {
        let mut sim: Simulation<Packet> = Simulation::new();
        let clk = ClockDomain::from_mhz(200);
        let req = sim.links_mut().add_link("req", 2, clk.period());
        let resp = sim.links_mut().add_link("resp", 2, clk.period());
        let gen = IpTrafficGenerator::new("ip", config, req, resp).expect("valid");
        sim.add_component(Box::new(gen), clk);
        sim.add_component(
            Box::new(FixedLatencyTarget::new("t", clk, req, resp, 1)),
            clk,
        );
        (sim, req, resp)
    }

    fn config(agents: Vec<AgentConfig>) -> IptgConfig {
        IptgConfig {
            initiator: InitiatorId::new(3),
            width: DataWidth::BITS64,
            agents,
            seed: 7,
        }
    }

    #[test]
    fn issues_exactly_the_configured_budget() {
        let (mut sim, req, _) = rig(config(vec![base_agent(25)]));
        sim.run_to_quiescence_strict(Time::from_ms(10))
            .expect("drains");
        assert_eq!(sim.stats().counter_by_name("ip.injected"), 25);
        assert_eq!(sim.links().link(req).stats().pushes, 25);
    }

    #[test]
    fn read_only_budget_fully_completes() {
        let mut a = base_agent(30);
        a.read_fraction = 1.0;
        let (mut sim, _, _) = rig(config(vec![a]));
        sim.run_to_quiescence_strict(Time::from_ms(10))
            .expect("drains");
        assert_eq!(sim.stats().counter_by_name("ip.completed"), 30);
    }

    #[test]
    fn mixed_traffic_conserves_transactions() {
        let mut a = base_agent(50);
        a.read_fraction = 0.5;
        a.posted_writes = true;
        let (mut sim, _, _) = rig(config(vec![a]));
        sim.run_to_quiescence_strict(Time::from_ms(10))
            .expect("drains");
        assert_eq!(sim.stats().counter_by_name("ip.injected"), 50);
    }

    #[test]
    fn determinism_same_seed_same_schedule() {
        let run = || {
            let mut a = base_agent(40);
            a.read_fraction = 0.7;
            let (mut sim, req, _) = rig(config(vec![a]));
            let end = sim
                .run_to_quiescence_strict(Time::from_ms(10))
                .expect("drains");
            (end, sim.links().link(req).stats().pushes)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed: u64| {
            let mut cfg = config(vec![{
                let mut a = base_agent(40);
                a.read_fraction = 0.5;
                a.segments[0].think_cycles = (0, 20);
                a
            }]);
            cfg.seed = seed;
            let (mut sim, _, _) = rig(cfg);
            sim.run_to_quiescence_strict(Time::from_ms(10))
                .expect("drains")
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn start_dependency_delays_agent() {
        let mut producer = base_agent(20);
        producer.name = "producer".into();
        let mut consumer = base_agent(20);
        consumer.name = "consumer".into();
        consumer.start_after = Some((0, 0.5));
        // Use distinct address regions so we could tell them apart if
        // needed; the key observable is that everything still drains.
        let (mut sim, _, _) = rig(config(vec![producer, consumer]));
        sim.run_to_quiescence_strict(Time::from_ms(10))
            .expect("drains");
        assert_eq!(sim.stats().counter_by_name("ip.injected"), 40);
    }

    #[test]
    fn invalid_dependencies_rejected() {
        let mut a = base_agent(5);
        a.start_after = Some((3, 0.5));
        let cfg = config(vec![a]);
        assert!(cfg.validate().is_err());

        let mut b = base_agent(5);
        b.start_after = Some((0, 0.5));
        let cfg = config(vec![b]);
        assert!(cfg.validate().is_err(), "self dependency");
    }

    #[test]
    fn segments_run_in_order() {
        let mut a = base_agent(0);
        a.segments = vec![
            TrafficSegment {
                transactions: 10,
                burst_len: (2, 4),
                think_cycles: (0, 2),
            },
            TrafficSegment {
                transactions: 5,
                burst_len: (1, 1),
                think_cycles: (50, 60),
            },
        ];
        let (mut sim, _, _) = rig(config(vec![a]));
        sim.run_to_quiescence_strict(Time::from_ms(10))
            .expect("drains");
        assert_eq!(sim.stats().counter_by_name("ip.injected"), 15);
    }

    #[test]
    fn outstanding_budget_respected() {
        // No target: requests pile onto the link until outstanding cap.
        let mut sim: Simulation<Packet> = Simulation::new();
        let clk = ClockDomain::from_mhz(200);
        let req = sim.links_mut().add_link("req", 16, clk.period());
        let resp = sim.links_mut().add_link("resp", 16, clk.period());
        let mut a = base_agent(10);
        a.max_outstanding = 3;
        a.segments[0].burst_len = (10, 10);
        a.segments[0].think_cycles = (0, 0);
        let gen = IpTrafficGenerator::new("ip", config(vec![a]), req, resp).expect("valid");
        sim.add_component(Box::new(gen), clk);
        sim.run_until(Time::from_us(2));
        assert_eq!(sim.links().link(req).stats().pushes, 3);
    }

    #[test]
    fn strided_pattern_walks_stride() {
        let mut cursor = 0;
        let mut rng = SplitMix64::new(1);
        let p = AddressPattern::Strided {
            base: 0x1000,
            len: 0x1000,
            stride: 0x100,
        };
        let a1 = p.next(&mut cursor, 32, &mut rng);
        let a2 = p.next(&mut cursor, 32, &mut rng);
        assert_eq!(a2 - a1, 0x100);
    }
}
