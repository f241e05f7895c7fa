//! The LMI off-chip memory controller model.
//!
//! The paper derives this block by reverse engineering RTL waveforms: a bus
//! interface with input/output FIFOs, an *optimization engine* performing
//! opcode merging and variable-depth lookahead over queued transactions, and
//! an SDRAM command generator meeting the device timing. Latencies are
//! back-annotated so the timing at the **bus interface** matches the real
//! controller (11 cycles from request sampling to first read data in the
//! platform configuration).

use crate::sdram::{SdramDevice, SdramGeometry, SdramTiming};
use mpsoc_kernel::{
    ClockDomain, Component, FaultKind, Gate, LinkId, StallHint, TickContext, Time, TraceKind,
};
use mpsoc_protocol::{Packet, Response, Transaction};
use std::collections::VecDeque;

/// Bus-interface FIFO state, as reported in the paper's Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LmiInterfaceState {
    /// No incoming request this cycle (request = 0, grant = 1).
    NoRequest,
    /// A new request was stored this cycle.
    Storing,
    /// The input FIFO is full; incoming requests are stalled.
    Full,
}

/// Configuration of the [`LmiController`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LmiConfig {
    /// Input (request) FIFO depth. The multi-slot FIFO is what lets split-
    /// capable interconnects queue work for the optimization engine; with a
    /// non-split path it never holds more than one entry and all
    /// optimizations are lost (the collapsed-AXI effect of Fig. 5).
    pub input_fifo_depth: usize,
    /// Output (response) FIFO depth; materialised as the capacity of the
    /// response link at wiring time and bounded here for engine pacing.
    pub output_fifo_depth: usize,
    /// Lookahead window of the optimization engine: how many queued
    /// transactions are inspected for an open-row hit. `0` disables
    /// reordering (strict FIFO service).
    pub lookahead_depth: usize,
    /// Whether contiguous same-opcode transactions are merged into a single
    /// SDRAM access (opcode merging).
    pub opcode_merging: bool,
    /// Upper bound on the beats of a merged access.
    pub merge_limit_beats: u32,
    /// Back-annotated pipeline latency (controller cycles) added between
    /// SDRAM data availability and the response appearing at the bus
    /// interface. Tuned so the platform sees the paper's 11-cycle first-word
    /// read latency.
    pub extra_latency_cycles: u64,
    /// SDRAM timing profile.
    pub timing: SdramTiming,
    /// SDRAM geometry.
    pub geometry: SdramGeometry,
}

impl Default for LmiConfig {
    fn default() -> Self {
        LmiConfig {
            input_fifo_depth: 8,
            output_fifo_depth: 8,
            lookahead_depth: 4,
            opcode_merging: true,
            merge_limit_beats: 32,
            extra_latency_cycles: 4,
            timing: SdramTiming::ddr_typical(),
            geometry: SdramGeometry::default(),
        }
    }
}

impl LmiConfig {
    /// A deliberately degraded profile with no lookahead and no merging
    /// (used by the ablation experiments).
    pub fn unoptimized() -> Self {
        LmiConfig {
            lookahead_depth: 0,
            opcode_merging: false,
            ..LmiConfig::default()
        }
    }
}

/// A response scheduled to appear at the bus interface.
#[derive(Debug)]
struct PendingResponse {
    ready: Time,
    response: Response,
}

/// The LMI memory controller component.
///
/// Wire its `req_in` link with capacity 1 (the bus-side sampling register)
/// and its `resp_out` link with capacity `output_fifo_depth`; register the
/// component on the controller clock.
///
/// # Examples
///
/// ```
/// use mpsoc_kernel::{Simulation, ClockDomain};
/// use mpsoc_memory::{LmiController, LmiConfig};
/// use mpsoc_protocol::Packet;
///
/// let mut sim: Simulation<Packet> = Simulation::new();
/// let clk = ClockDomain::from_mhz(133);
/// let cfg = LmiConfig::default();
/// let req = sim.links_mut().add_link("lmi.req", 1, clk.period());
/// let resp = sim.links_mut().add_link("lmi.resp", cfg.output_fifo_depth, clk.period());
/// sim.add_component(Box::new(LmiController::new("lmi", cfg, clk, req, resp)), clk);
/// ```
#[derive(Debug)]
pub struct LmiController {
    name: String,
    config: LmiConfig,
    clock: ClockDomain,
    req_in: LinkId,
    resp_out: LinkId,
    in_fifo: VecDeque<Transaction>,
    pending: Vec<PendingResponse>,
    engine_busy_until: Time,
    sdram: SdramDevice,
    next_refresh_cycle: u64,
    /// The ids of the controller's metrics, kept from `register_metrics`.
    ids: MetricIds,
    /// Degraded mode: after repeated injected engine stalls the controller
    /// sheds its optimizations (no lookahead, no merging) to keep servicing
    /// requests predictably, at reduced bandwidth. Cleared after a run of
    /// clean accesses.
    degraded: bool,
    /// Injected stalls since the controller last left degraded mode (or
    /// since construction).
    recent_stalls: u32,
    /// Consecutive clean (un-stalled) engine starts, for recovery.
    clean_accesses: u32,
    /// Whether the bus-interface residencies have reached their rest state
    /// (`no_request` / `empty`). The tick that drains the last transaction
    /// leaves them one cycle stale — e.g. a posted write that is stored
    /// and consumed in the same tick parks the interface in `storing` — so
    /// the controller stays awake for one more tick to write the rest
    /// state before [`Component::next_activity`] lets it sleep.
    settled: bool,
    /// What the last tick wrote to the three residencies, for
    /// [`Component::stall_hint`]: a tick that would write the same again
    /// changes nothing there. Derived, never serialized — unknown after a
    /// restore, which only leaves the controller polling until it ticks.
    shown: Option<Shown>,
}

mpsoc_kernel::metric_ids! {
    /// The ids of every metric the controller writes, in registration order.
    struct MetricIds {
        iface: residency["no_request", "storing", "full"],
        empty: residency["empty", "nonempty"],
        mode: residency["normal", "degraded"],
        fault_storms: counter,
        refreshes: counter,
        fault_stalls: counter,
        degraded_entries: counter,
        row_hits: counter,
        row_misses: counter,
        merged_txns: counter,
        accesses: counter,
    }
}

/// The residency states a tick asserted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shown {
    iface: LmiInterfaceState,
    nonempty: bool,
    degraded: bool,
}

/// Clean engine starts required to leave degraded mode.
const DEGRADED_RECOVERY_ACCESSES: u32 = 16;
/// Injected stalls that trip the controller into degraded mode.
const DEGRADED_ENTRY_STALLS: u32 = 2;

impl LmiController {
    /// Creates a controller clocked by `clock`, fed by `req_in`, answering
    /// on `resp_out`.
    pub fn new(
        name: impl Into<String>,
        config: LmiConfig,
        clock: ClockDomain,
        req_in: LinkId,
        resp_out: LinkId,
    ) -> Self {
        let sdram = SdramDevice::new(config.timing, config.geometry);
        let next_refresh_cycle = config.timing.t_refi;
        LmiController {
            name: name.into(),
            config,
            clock,
            req_in,
            resp_out,
            in_fifo: VecDeque::new(),
            pending: Vec::new(),
            engine_busy_until: Time::ZERO,
            sdram,
            next_refresh_cycle,
            ids: MetricIds::default(),
            degraded: false,
            recent_stalls: 0,
            clean_accesses: 0,
            settled: false,
            shown: None,
        }
    }

    /// Restore's hook: what the interface last showed is a note for the
    /// stall hint, derived and forgotten on restore.
    fn after_restore(&mut self, _r: &mut mpsoc_kernel::StateReader<'_>) {
        self.shown = None;
    }

    /// Whether the controller is currently in degraded mode (optimizations
    /// shed after repeated injected stalls).
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// The SDRAM device model (row-hit statistics etc.).
    pub fn sdram(&self) -> &SdramDevice {
        &self.sdram
    }

    /// Current input-FIFO occupancy.
    pub fn input_fifo_len(&self) -> usize {
        self.in_fifo.len()
    }

    fn cycle_to_time(&self, cycle: u64) -> Time {
        self.clock.period() * cycle
    }

    /// Picks the next transaction index to service: the first lookahead-
    /// window entry hitting an open row, unless an older entry from the same
    /// initiator would be overtaken (per-source ordering is preserved).
    fn select_index(&self) -> usize {
        if self.config.lookahead_depth == 0 || self.degraded {
            return 0;
        }
        let window = self.config.lookahead_depth.min(self.in_fifo.len());
        for i in 0..window {
            let candidate = &self.in_fifo[i];
            if !self.sdram.would_hit(candidate.addr) {
                continue;
            }
            let overtakes_same_source = self
                .in_fifo
                .iter()
                .take(i)
                .any(|earlier| earlier.initiator == candidate.initiator);
            if !overtakes_same_source {
                return i;
            }
        }
        0
    }

    /// Removes the batch to service: the selected entry plus, when merging
    /// is on, any contiguous same-opcode successors within the window (again
    /// without breaking per-source ordering).
    fn take_batch(&mut self, first_idx: usize) -> Vec<Transaction> {
        let first = self.in_fifo.remove(first_idx).expect("index in range");
        let mut batch = vec![first];
        if !self.config.opcode_merging || self.degraded {
            return batch;
        }
        let window = self.config.lookahead_depth.max(1);
        let mut total_beats = batch[0].beats;
        loop {
            let end_addr = batch.last().expect("non-empty").end_addr();
            let opcode = batch[0].opcode;
            let scan = window.min(self.in_fifo.len());
            let found = (0..scan).find(|&j| {
                let cand = &self.in_fifo[j];
                cand.opcode == opcode
                    && cand.addr == end_addr
                    && total_beats + cand.beats <= self.config.merge_limit_beats
                    && !self
                        .in_fifo
                        .iter()
                        .take(j)
                        .any(|earlier| earlier.initiator == cand.initiator)
            });
            match found {
                Some(j) => {
                    let txn = self.in_fifo.remove(j).expect("index in range");
                    total_beats += txn.beats;
                    batch.push(txn);
                }
                None => break,
            }
        }
        batch
    }
}

mpsoc_kernel::snapshot_state! {
    impl Snapshot for LmiController {
        in_fifo, pending, engine_busy_until, #[snapshot] sdram, next_refresh_cycle, degraded,
        recent_stalls, clean_accesses, settled,
    } then after_restore
}

mpsoc_kernel::snapshot_state! {
    impl Persist for PendingResponse { ready, response }
}

impl Component<Packet> for LmiController {
    fn name(&self) -> &str {
        &self.name
    }

    fn register_metrics(&mut self, stats: &mut mpsoc_kernel::StatsRegistry) {
        self.ids = MetricIds::register(&self.name, stats);
    }

    fn tick(&mut self, ctx: &mut TickContext<'_, Packet>) {
        let now = ctx.time;
        let now_cycle = ctx.cycle.count();
        let ids = self.ids;
        let degraded_shown = self.degraded;
        ctx.stats
            .set_state(ids.mode, usize::from(degraded_shown), now);

        // 1. Drain scheduled responses to the bus interface, oldest-ready
        //    first, as the output FIFO has room.
        self.pending.sort_by_key(|p| p.ready);
        while let Some(pos) = self.pending.iter().position(|p| p.ready <= now) {
            if !ctx.links.can_push(self.resp_out) {
                break;
            }
            let p = self.pending.remove(pos);
            ctx.links
                .push(self.resp_out, now, Packet::Response(p.response))
                .expect("capacity checked");
        }

        // 2. Accept a new request into the input FIFO (bus-interface
        //    "storing" state) unless the FIFO is full.
        let fifo_full = self.in_fifo.len() >= self.config.input_fifo_depth;
        let mut state = LmiInterfaceState::NoRequest;
        if fifo_full {
            state = LmiInterfaceState::Full;
        } else if let Some(pkt) = ctx.links.pop(self.req_in, now) {
            let txn = pkt.expect_request();
            ctx.stats
                .emit_trace(now, &self.name, TraceKind::Accept, || {
                    format!(
                        "{txn} queued (fifo {}/{})",
                        self.in_fifo.len() + 1,
                        self.config.input_fifo_depth
                    )
                });
            self.in_fifo.push_back(txn);
            state = LmiInterfaceState::Storing;
        }
        ctx.stats.set_state(
            ids.iface,
            match state {
                LmiInterfaceState::NoRequest => 0,
                LmiInterfaceState::Storing => 1,
                LmiInterfaceState::Full => 2,
            },
            now,
        );
        ctx.stats
            .set_state(ids.empty, usize::from(!self.in_fifo.is_empty()), now);
        self.shown = Some(Shown {
            iface: state,
            nonempty: !self.in_fifo.is_empty(),
            degraded: degraded_shown,
        });
        // The interface is at rest once this tick observed no request and
        // nothing queued or in flight; steps 3/4 below cannot disturb that
        // (the engine only starts with a non-empty FIFO).
        self.settled = state == LmiInterfaceState::NoRequest
            && self.in_fifo.is_empty()
            && self.pending.is_empty();

        // 3. Refresh management: when due and the engine is free. An
        //    injected refresh storm chains extra back-to-back refreshes,
        //    stealing memory bandwidth (recovered by definition: every
        //    queued access is merely delayed).
        if now_cycle >= self.next_refresh_cycle && self.engine_busy_until <= now {
            let mut done = self.sdram.refresh(now_cycle);
            let mut burst = 1u64;
            if ctx.faults.probe(FaultKind::RefreshStorm) {
                let extra = u64::from(ctx.faults.schedule().storm_refreshes.max(1)) - 1;
                for _ in 0..extra {
                    done = self.sdram.refresh(done);
                }
                burst += extra;
                ctx.faults.record_recovered(1);
                ctx.stats.inc(ids.fault_storms, 1);
            }
            ctx.stats.emit_trace(now, &self.name, TraceKind::State, || {
                format!("auto-refresh x{burst} until cycle {done}")
            });
            self.engine_busy_until = self.cycle_to_time(done);
            self.next_refresh_cycle += self.config.timing.t_refi;
            ctx.stats.inc(ids.refreshes, burst);
            return;
        }

        // 4. Optimization engine: start the next (possibly merged) access.
        if self.engine_busy_until <= now
            && !self.in_fifo.is_empty()
            && self.pending.len() < self.config.output_fifo_depth
        {
            // Stall detection with graceful degradation: an injected engine
            // stall freezes the controller for the scheduled cycles; after
            // repeated stalls the controller sheds its optimizations
            // (prefetch lookahead, opcode merging) and reports degraded
            // bandwidth until a run of clean accesses earns them back.
            if ctx.faults.probe(FaultKind::TargetStall) {
                let stall = ctx.faults.schedule().stall_cycles.max(1);
                self.engine_busy_until = now + self.clock.period() * stall;
                self.recent_stalls += 1;
                self.clean_accesses = 0;
                ctx.faults.record_recovered(1);
                ctx.stats.inc(ids.fault_stalls, 1);
                if !self.degraded && self.recent_stalls >= DEGRADED_ENTRY_STALLS {
                    self.degraded = true;
                    ctx.stats.inc(ids.degraded_entries, 1);
                    ctx.stats.emit_trace(now, &self.name, TraceKind::State, || {
                        format!("degraded mode entered after {} stalls", self.recent_stalls)
                    });
                } else {
                    ctx.stats.emit_trace(now, &self.name, TraceKind::State, || {
                        format!("engine stalled for {stall} cycles")
                    });
                }
                return;
            }
            if self.degraded {
                self.clean_accesses += 1;
                if self.clean_accesses >= DEGRADED_RECOVERY_ACCESSES {
                    self.degraded = false;
                    self.recent_stalls = 0;
                    self.clean_accesses = 0;
                    ctx.stats.emit_trace(now, &self.name, TraceKind::State, || {
                        "degraded mode left (clean access run)".to_string()
                    });
                }
            }
            let idx = self.select_index();
            let batch = self.take_batch(idx);
            let opcode = batch[0].opcode;
            let addr = batch[0].addr;
            let total_beats: u32 = batch.iter().map(|t| t.beats).sum();
            let plan = self.sdram.plan_access(opcode, addr, total_beats, now_cycle);
            ctx.stats.emit_trace(now, &self.name, TraceKind::State, || {
                format!(
                    "{opcode} @{addr:#x} x{total_beats} ({} txns merged, row {})",
                    batch.len(),
                    if plan.row_hit { "hit" } else { "miss" }
                )
            });
            self.engine_busy_until = self.cycle_to_time(plan.done);

            let row = if plan.row_hit {
                ids.row_hits
            } else {
                ids.row_misses
            };
            ctx.stats.inc(row, 1);
            if batch.len() > 1 {
                ctx.stats.inc(ids.merged_txns, batch.len() as u64 - 1);
            }
            ctx.stats.inc(ids.accesses, 1);

            // Schedule the per-transaction responses as their data streams.
            let mut data_cursor = plan.first_data;
            for txn in batch {
                let txn_cycles = self.config.timing.data_cycles(txn.beats as u64).max(1);
                let ready_cycle = data_cursor + self.config.extra_latency_cycles;
                data_cursor += txn_cycles;
                if txn.completes_on_acceptance() {
                    continue;
                }
                let ready = self.cycle_to_time(ready_cycle);
                let serviced_at = self.cycle_to_time(plan.done);
                self.pending.push(PendingResponse {
                    ready,
                    response: Response::new(txn, serviced_at),
                });
            }
        }
    }

    fn is_idle(&self) -> bool {
        self.in_fifo.is_empty() && self.pending.is_empty()
    }

    fn watched_links(&self) -> Option<Vec<LinkId>> {
        Some(vec![self.req_in])
    }

    fn next_activity(&self) -> Option<Time> {
        if !self.in_fifo.is_empty() || !self.pending.is_empty() || !self.settled {
            // Conservative: a controller with queued or in-flight work ticks
            // every edge (drain ordering, engine pacing and fault probes all
            // key off the per-edge cycle count), and a freshly drained one
            // takes one more tick to settle its interface residencies.
            return Some(Time::ZERO);
        }
        // Idle controller: only the periodic auto-refresh is due. The
        // deadline is conservative-early — if the engine is still busy at
        // that edge the tick is a no-op and the timer stays in the past
        // until the refresh actually fires, matching the dense schedule.
        Some(self.cycle_to_time(self.next_refresh_cycle))
    }

    fn stall_hint(&self, hint: &mut StallHint) {
        // A busy controller keeps its deadline at `Time::ZERO`, yet most of
        // its edges only wait: for SDRAM data, for the engine, for a
        // refresh slot. Such a tick still re-asserts the three residencies
        // and re-sorts `pending`, so it is a no-op only if those are at
        // their fixed point — what a tick finding no request to store would
        // write is what the last tick wrote.
        let Some(shown) = self.shown else { return };
        let full = self.in_fifo.len() >= self.config.input_fifo_depth;
        let iface = if full {
            LmiInterfaceState::Full
        } else {
            LmiInterfaceState::NoRequest
        };
        let at_rest = shown
            == (Shown {
                iface,
                nonempty: !self.in_fifo.is_empty(),
                degraded: self.degraded,
            })
            && self.settled == (!full && self.in_fifo.is_empty() && self.pending.is_empty())
            && self.pending.is_sorted_by_key(|p| p.ready);
        if !at_rest {
            return;
        }
        // Nothing moves before the earliest of: a scheduled response coming
        // due (whether the output FIFO then has room is polled, as before),
        // the engine freeing with work queued and a response slot to
        // schedule into, and a due refresh finding the engine free.
        let mut next = self
            .cycle_to_time(self.next_refresh_cycle)
            .max(self.engine_busy_until);
        if let Some(ready) = self.pending.first().map(|p| p.ready) {
            next = next.min(ready);
        }
        if !self.in_fifo.is_empty() && self.pending.len() < self.config.output_fifo_depth {
            next = next.min(self.engine_busy_until);
        }
        hint.gate_deadline(Gate::until(next));
        if full {
            // A full input FIFO does not look at the request wire.
            hint.gate_input(0, Gate::CLOSED);
        }
    }

    fn fast_forward(&mut self, ctx: &mut mpsoc_kernel::FastCtx<'_, Packet>) {
        while let Some(mut tc) = ctx.next_edge() {
            self.tick(&mut tc);
            if !self.settled || !self.in_fifo.is_empty() || !self.pending.is_empty() {
                // A busy controller is due on every edge, but most only
                // wait: `stall_hint` names the next one that moves.
                ctx.stall(&*self);
                continue;
            }
            // Idle: wake for the periodic auto-refresh (conservative-early,
            // like `next_activity`); a new request is a watched delivery.
            ctx.sleep_until(Some(self.cycle_to_time(self.next_refresh_cycle)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc_kernel::Simulation;
    use mpsoc_protocol::{InitiatorId, Opcode};

    const MHZ: u64 = 200; // 5 ns period

    fn setup(cfg: LmiConfig) -> (Simulation<Packet>, LinkId, LinkId) {
        let mut sim: Simulation<Packet> = Simulation::new();
        let clk = ClockDomain::from_mhz(MHZ);
        let req = sim.links_mut().add_link("req", 1, clk.period());
        let resp = sim
            .links_mut()
            .add_link("resp", cfg.output_fifo_depth, clk.period());
        sim.add_component(
            Box::new(LmiController::new("lmi", cfg, clk, req, resp)),
            clk,
        );
        (sim, req, resp)
    }

    fn read(init: u16, seq: u64, addr: u64, beats: u32) -> Transaction {
        Transaction::builder(InitiatorId::new(init), seq)
            .read(addr)
            .beats(beats)
            .build()
    }

    fn push_req(sim: &mut Simulation<Packet>, link: LinkId, txn: Transaction) {
        let now = sim.time();
        sim.links_mut()
            .push(link, now, Packet::Request(txn))
            .unwrap();
    }

    fn drain(sim: &mut Simulation<Packet>, resp: LinkId, n: usize, horizon: Time) -> Vec<Response> {
        let mut got = Vec::new();
        while got.len() < n && sim.time() < horizon {
            sim.step();
            let now = sim.time();
            while let Some(p) = sim.links_mut().pop(resp, now) {
                got.push(p.expect_response());
            }
        }
        got
    }

    #[test]
    fn first_word_latency_is_eleven_cycles() {
        // Paper: "11 cycles to get the first read data word since the
        // request was sampled". Request pushed at t=0 is sampled at cycle 1
        // (wire latency); the response must be poppable at cycle 12.
        let (mut sim, req, resp) = setup(LmiConfig::default());
        sim.links_mut()
            .push(req, Time::ZERO, Packet::Request(read(0, 1, 0, 8)))
            .unwrap();
        let got = drain(&mut sim, resp, 1, Time::from_us(10));
        assert_eq!(got.len(), 1);
        // The response becomes poppable one wire cycle after the controller
        // emits it; subtract the sampling instant (cycle 1).
        let period = ClockDomain::from_mhz(MHZ).period();
        let sampled = period; // cycle 1
        let latency = sim.time() - sampled;
        let cycles = latency.as_ps() / period.as_ps();
        assert_eq!(cycles, 11, "first-word latency should be 11 bus cycles");
    }

    #[test]
    fn merging_coalesces_contiguous_reads() {
        let (mut sim, req, resp) = setup(LmiConfig::default());
        // A first access keeps the engine busy while two contiguous 8-beat
        // reads (from different initiators) queue up behind it; the engine
        // should coalesce the queued pair into one SDRAM access.
        let width_bytes = 4u64; // default 32-bit width
        let elsewhere = 2 * 2048; // a different bank
        sim.links_mut()
            .push(req, Time::ZERO, Packet::Request(read(9, 1, elsewhere, 8)))
            .unwrap();
        sim.run_until(Time::from_ns(5));
        push_req(&mut sim, req, read(0, 1, 0, 8));
        sim.run_until(Time::from_ns(10));
        push_req(&mut sim, req, read(1, 1, 8 * width_bytes, 8));
        let got = drain(&mut sim, resp, 3, Time::from_us(10));
        assert_eq!(got.len(), 3);
        assert_eq!(sim.stats().counter_by_name("lmi.merged_txns"), 1);
        assert_eq!(sim.stats().counter_by_name("lmi.accesses"), 2);
    }

    #[test]
    fn merging_disabled_issues_separate_accesses() {
        let (mut sim, req, resp) = setup(LmiConfig::unoptimized());
        sim.links_mut()
            .push(req, Time::ZERO, Packet::Request(read(0, 1, 0, 8)))
            .unwrap();
        sim.run_until(Time::from_ns(5));
        push_req(&mut sim, req, read(1, 1, 32, 8));
        let got = drain(&mut sim, resp, 2, Time::from_us(10));
        assert_eq!(got.len(), 2);
        assert_eq!(sim.stats().counter_by_name("lmi.merged_txns"), 0);
        assert_eq!(sim.stats().counter_by_name("lmi.accesses"), 2);
    }

    #[test]
    fn lookahead_prefers_open_row() {
        let cfg = LmiConfig {
            opcode_merging: false,
            ..LmiConfig::default()
        };
        let (mut sim, req, resp) = setup(cfg);
        // Prime row 0 of bank 0.
        sim.links_mut()
            .push(req, Time::ZERO, Packet::Request(read(0, 1, 0, 4)))
            .unwrap();
        // Then a conflicting row in the same bank (initiator 1), then a
        // row-0 hit (initiator 2). With lookahead the hit is served first.
        sim.run_until(Time::from_ns(5));
        let conflict = 4 * 2048; // bank 0, row 1
        push_req(&mut sim, req, read(1, 1, conflict, 4));
        sim.run_until(Time::from_ns(10));
        push_req(&mut sim, req, read(2, 1, 64, 4));
        let got = drain(&mut sim, resp, 3, Time::from_us(10));
        assert_eq!(got.len(), 3);
        let order: Vec<u16> = got.iter().map(|r| r.txn.initiator.raw()).collect();
        assert_eq!(order, vec![0, 2, 1], "row hit overtakes the conflict");
        assert!(sim.stats().counter_by_name("lmi.row_hits") >= 1);
    }

    #[test]
    fn per_source_order_never_violated() {
        let cfg = LmiConfig {
            opcode_merging: false,
            ..LmiConfig::default()
        };
        let (mut sim, req, resp) = setup(cfg);
        // Same initiator: conflict first, then a would-be row hit. The hit
        // must NOT overtake.
        sim.links_mut()
            .push(req, Time::ZERO, Packet::Request(read(0, 1, 0, 4)))
            .unwrap();
        sim.run_until(Time::from_ns(5));
        let conflict = 4 * 2048;
        push_req(&mut sim, req, read(7, 1, conflict, 4));
        sim.run_until(Time::from_ns(10));
        push_req(&mut sim, req, read(7, 2, 64, 4));
        let got = drain(&mut sim, resp, 3, Time::from_us(10));
        let seqs: Vec<(u16, u64)> = got
            .iter()
            .map(|r| (r.txn.initiator.raw(), r.txn.id.sequence()))
            .collect();
        let i7: Vec<u64> = seqs
            .iter()
            .filter(|(i, _)| *i == 7)
            .map(|(_, s)| *s)
            .collect();
        assert_eq!(i7, vec![1, 2]);
    }

    #[test]
    fn fifo_full_backpressures_and_is_observable() {
        let mut cfg = LmiConfig {
            input_fifo_depth: 2,
            ..LmiConfig::default()
        };
        // Slow the engine down to force queue buildup.
        cfg.timing.t_cas = 10;
        cfg.timing.t_rcd = 10;
        cfg.timing.t_rc = 40;
        cfg.timing.t_ras = 20;
        cfg.timing.t_rp = 10;
        let (mut sim, req, resp) = setup(cfg);
        let mut pushed = 0;
        let mut seq = 0;
        // Keep the wire saturated for a while.
        for _ in 0..400 {
            if sim.links().can_push(req) {
                seq += 1;
                // Alternate banks/rows so nothing merges away.
                let addr = (seq % 7) * 4 * 2048 * 3;
                push_req(&mut sim, req, read(0, seq, addr, 4));
                pushed += 1;
            }
            sim.step();
        }
        assert!(pushed > 4);
        let totals = sim
            .stats()
            .residency_by_name("lmi.iface")
            .expect("residency registered")
            .totals(sim.time());
        // The "full" state (index 2) must have accumulated real time.
        assert!(totals[2] > Time::ZERO, "expected FIFO-full residency");
        // Let everything drain.
        let _ = drain(&mut sim, resp, pushed as usize, Time::from_ms(2));
        assert!(sim.is_quiescent());
    }

    #[test]
    fn refreshes_happen_periodically() {
        let (mut sim, _req, _resp) = setup(LmiConfig::default());
        // ~3 refresh intervals of idle time.
        let period = ClockDomain::from_mhz(MHZ).period();
        sim.run_until(period * (3 * SdramTiming::ddr_typical().t_refi + 10));
        assert!(sim.stats().counter_by_name("lmi.refreshes") >= 3);
    }

    #[test]
    fn posted_writes_complete_without_response() {
        let (mut sim, req, resp) = setup(LmiConfig::default());
        let txn = Transaction::builder(InitiatorId::new(0), 1)
            .write(0x100)
            .beats(8)
            .posted(true)
            .build();
        sim.links_mut()
            .push(req, Time::ZERO, Packet::Request(txn))
            .unwrap();
        sim.run_until(Time::from_us(2));
        assert!(sim.links().link(resp).is_empty());
        assert_eq!(sim.stats().counter_by_name("lmi.accesses"), 1);
    }

    #[test]
    fn write_then_read_both_serviced() {
        let (mut sim, req, resp) = setup(LmiConfig::default());
        let w = Transaction::builder(InitiatorId::new(0), 1)
            .write(0x100)
            .beats(4)
            .build();
        sim.links_mut()
            .push(req, Time::ZERO, Packet::Request(w))
            .unwrap();
        sim.run_until(Time::from_ns(5));
        push_req(&mut sim, req, read(0, 2, 0x200, 4));
        let got = drain(&mut sim, resp, 2, Time::from_us(10));
        assert_eq!(got.len(), 2);
        assert!(got.iter().any(|r| r.txn.opcode == Opcode::Write));
        assert!(got.iter().any(|r| r.txn.opcode == Opcode::Read));
    }
}
