//! The ST220-style DSP core model.

use mpsoc_kernel::{Component, Gate, LinkId, SplitMix64, StallHint, TickContext, Time};
use mpsoc_protocol::{DataWidth, InitiatorId, Packet, Transaction};
use std::collections::HashMap;

/// Configuration of a [`DspCore`].
///
/// The defaults approximate the paper's ST220: a 32-bit VLIW DSP at
/// 400 MHz with instruction and data caches, running a synthetic benchmark
/// "tuned to generate a significant amount of cache misses".
#[derive(Debug, Clone)]
pub struct DspConfig {
    /// The core's initiator id (platform-unique).
    pub initiator: InitiatorId,
    /// Bus-interface width of the core itself (32-bit for the ST220; the
    /// upsize converter towards the 64-bit interconnect is a bridge).
    pub width: DataWidth,
    /// Cache line size in bytes (refill burst size).
    pub line_bytes: u32,
    /// Number of instruction-cache lines.
    pub icache_lines: usize,
    /// Instruction-cache associativity (1 = direct mapped).
    pub icache_ways: usize,
    /// Number of data-cache lines.
    pub dcache_lines: usize,
    /// Data-cache associativity (1 = direct mapped).
    pub dcache_ways: usize,
    /// Base address of the code region the synthetic benchmark walks.
    pub code_base: u64,
    /// Size of the code region (loops wrap around it; regions much larger
    /// than the i-cache generate steady instruction-miss traffic).
    pub code_len: u64,
    /// Base address of the data working set.
    pub data_base: u64,
    /// Size of the data working set.
    pub data_len: u64,
    /// Probability that a data access continues sequentially from the
    /// previous one (vs jumping randomly inside the working set).
    pub locality: f64,
    /// One data access is made every `mem_every` instructions.
    pub mem_every: u32,
    /// Fraction of data accesses that are stores (dirty lines write back on
    /// eviction).
    pub store_fraction: f64,
    /// Whether write-backs are posted.
    pub posted_writebacks: bool,
    /// Number of instructions the synthetic benchmark executes.
    pub instructions: u64,
    /// Seed for the core's private random stream.
    pub seed: u64,
}

impl Default for DspConfig {
    fn default() -> Self {
        DspConfig {
            initiator: InitiatorId::new(0),
            width: DataWidth::BITS32,
            line_bytes: 32,
            icache_lines: 512, // 16 KiB
            icache_ways: 1,
            dcache_lines: 1024, // 32 KiB
            dcache_ways: 1,
            code_base: 0x0010_0000,
            code_len: 64 << 10, // 4x the i-cache: steady miss stream
            data_base: 0x0080_0000,
            data_len: 512 << 10, // far beyond the d-cache
            locality: 0.85,
            mem_every: 3,
            store_fraction: 0.3,
            posted_writebacks: true,
            instructions: 20_000,
            seed: 0xd59,
        }
    }
}

/// A set-associative, write-back cache model with LRU replacement,
/// tracking tags and dirty bits (no data).
#[derive(Debug)]
struct CacheModel {
    /// `sets × ways` entries `(tag, dirty)`: set `s` holds its
    /// `fill[s]` valid entries at the front of
    /// `entries[s * ways..(s + 1) * ways]`, most recently used last.
    entries: Vec<(u64, bool)>,
    /// Valid entries per set.
    fill: Vec<usize>,
    ways: usize,
    line_bytes: u64,
    hits: u64,
    misses: u64,
}

impl CacheModel {
    fn new(lines: usize, ways: usize, line_bytes: u32) -> Self {
        let ways = ways.max(1).min(lines.max(1));
        let sets = (lines.max(1) / ways).max(1);
        CacheModel {
            entries: vec![(0, false); sets * ways],
            fill: vec![0; sets],
            ways,
            line_bytes: line_bytes as u64,
            hits: 0,
            misses: 0,
        }
    }

    /// Performs an access; returns `(miss, evicted_dirty_line_addr)`.
    fn access(&mut self, addr: u64, is_store: bool) -> (bool, Option<u64>) {
        let line = addr / self.line_bytes;
        let n_sets = self.fill.len() as u64;
        let index = (line % n_sets) as usize;
        let tag = line / n_sets;
        let ways = self.ways;
        let len = self.fill[index];
        let set = &mut self.entries[index * ways..(index + 1) * ways];
        if let Some(pos) = set[..len].iter().position(|(t, _)| *t == tag) {
            self.hits += 1;
            set[pos..len].rotate_left(1);
            set[len - 1].1 |= is_store;
            return (false, None);
        }
        self.misses += 1;
        if len < ways {
            set[len] = (tag, is_store);
            self.fill[index] += 1;
            return (true, None);
        }
        let (old_tag, dirty) = set[0]; // LRU victim
        set.rotate_left(1);
        set[ways - 1] = (tag, is_store);
        let evicted = dirty.then(|| (old_tag * n_sets + index as u64) * self.line_bytes);
        (true, evicted)
    }
}

#[derive(Debug)]
enum CoreState {
    Running,
    /// Stalled on a cache refill with this transaction sequence number.
    Stalled(u64),
    Finished,
}

/// A latency-sensitive processor model: executes one instruction per cycle,
/// stalls on instruction- and data-cache misses until the refill returns,
/// and emits write-back traffic for dirty evictions.
///
/// This is the platform's "interference" master: its performance is a
/// direct function of memory round-trip latency, unlike the bandwidth-
/// oriented IPTGs.
#[derive(Debug)]
pub struct DspCore {
    name: String,
    config: DspConfig,
    req_out: LinkId,
    resp_in: LinkId,
    icache: CacheModel,
    dcache: CacheModel,
    state: CoreState,
    executed: u64,
    pc: u64,
    last_data_addr: u64,
    seq: u64,
    rng: SplitMix64,
    pending_writeback: Option<u64>,
    outstanding_posted: HashMap<u64, ()>,
    counters: Counters,
    done_recorded: bool,
}

mpsoc_kernel::metric_ids! {
    /// The core's counters, kept from `register_metrics`.
    struct Counters {
        stall_cycles: counter,
        instructions: counter,
        done_at_ns: counter,
        icache_misses: counter,
        dcache_misses: counter,
    }
}

impl DspCore {
    /// Creates a DSP core issuing refills on `req_out` and receiving them on
    /// `resp_in`.
    pub fn new(
        name: impl Into<String>,
        config: DspConfig,
        req_out: LinkId,
        resp_in: LinkId,
    ) -> Self {
        let icache = CacheModel::new(config.icache_lines, config.icache_ways, config.line_bytes);
        let dcache = CacheModel::new(config.dcache_lines, config.dcache_ways, config.line_bytes);
        let rng = SplitMix64::new(config.seed);
        let data_base = config.data_base;
        DspCore {
            name: name.into(),
            config,
            req_out,
            resp_in,
            icache,
            dcache,
            state: CoreState::Running,
            executed: 0,
            pc: 0,
            last_data_addr: data_base,
            seq: 0,
            rng,
            pending_writeback: None,
            outstanding_posted: HashMap::new(),
            counters: Counters::default(),
            done_recorded: false,
        }
    }

    /// Instructions executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Instruction-cache miss count.
    pub fn icache_misses(&self) -> u64 {
        self.icache.misses
    }

    /// Data-cache miss count.
    pub fn dcache_misses(&self) -> u64 {
        self.dcache.misses
    }

    fn refill_beats(&self) -> u32 {
        self.config
            .width
            .beats_for_bytes(self.config.line_bytes as u64)
    }

    fn issue_read(&mut self, ctx: &mut TickContext<'_, Packet>, addr: u64) -> u64 {
        self.seq += 1;
        let txn = Transaction::builder(self.config.initiator, self.seq)
            .read(addr)
            .beats(self.refill_beats())
            .width(self.config.width)
            .created_at(ctx.time)
            .build();
        ctx.links
            .push(self.req_out, ctx.time, Packet::Request(txn))
            .expect("caller checked can_push");
        self.seq
    }

    fn issue_writeback(&mut self, ctx: &mut TickContext<'_, Packet>, addr: u64) {
        self.seq += 1;
        let txn = Transaction::builder(self.config.initiator, self.seq)
            .write(addr)
            .beats(self.refill_beats())
            .width(self.config.width)
            .posted(self.config.posted_writebacks)
            .created_at(ctx.time)
            .build();
        if !txn.completes_on_acceptance() {
            self.outstanding_posted.insert(self.seq, ());
        }
        ctx.links
            .push(self.req_out, ctx.time, Packet::Request(txn))
            .expect("caller checked can_push");
    }
}

impl CacheModel {
    fn save_state(&self, w: &mut mpsoc_kernel::StateWriter) {
        w.write_usize(self.fill.len());
        for (set, &len) in self.entries.chunks_exact(self.ways).zip(&self.fill) {
            w.write_usize(len);
            for (tag, dirty) in &set[..len] {
                w.write_u64(*tag);
                w.write_bool(*dirty);
            }
        }
        w.write_u64(self.hits);
        w.write_u64(self.misses);
    }

    fn restore_state(&mut self, r: &mut mpsoc_kernel::StateReader<'_>) {
        let ways = self.ways;
        let n = r.read_usize().min(self.fill.len());
        for (set, fill) in self
            .entries
            .chunks_exact_mut(ways)
            .zip(&mut self.fill)
            .take(n)
        {
            // A blob of this geometry never holds more than `ways` per set.
            let len = r.read_usize().min(ways);
            for slot in &mut set[..len] {
                *slot = (r.read_u64(), r.read_bool());
            }
            *fill = len;
        }
        self.hits = r.read_u64();
        self.misses = r.read_u64();
    }
}

impl mpsoc_kernel::Snapshot for DspCore {
    fn save(&self, w: &mut mpsoc_kernel::StateWriter) {
        self.icache.save_state(w);
        self.dcache.save_state(w);
        match self.state {
            CoreState::Running => w.write_u8(0),
            CoreState::Stalled(seq) => {
                w.write_u8(1);
                w.write_u64(seq);
            }
            CoreState::Finished => w.write_u8(2),
        }
        w.write_u64(self.executed);
        w.write_u64(self.pc);
        w.write_u64(self.last_data_addr);
        w.write_u64(self.seq);
        w.write_u64(self.rng.state());
        w.write_opt_u64(self.pending_writeback);
        let mut posted: Vec<u64> = self.outstanding_posted.keys().copied().collect();
        posted.sort_unstable();
        w.write_usize(posted.len());
        for seq in posted {
            w.write_u64(seq);
        }
        w.write_bool(self.done_recorded);
    }

    fn restore(&mut self, r: &mut mpsoc_kernel::StateReader<'_>) {
        self.icache.restore_state(r);
        self.dcache.restore_state(r);
        self.state = match r.read_u8() {
            0 => CoreState::Running,
            1 => CoreState::Stalled(r.read_u64()),
            _ => CoreState::Finished,
        };
        self.executed = r.read_u64();
        self.pc = r.read_u64();
        self.last_data_addr = r.read_u64();
        self.seq = r.read_u64();
        self.rng = SplitMix64::new(r.read_u64());
        self.pending_writeback = r.read_opt_u64();
        self.outstanding_posted.clear();
        for _ in 0..r.read_usize() {
            self.outstanding_posted.insert(r.read_u64(), ());
        }
        self.done_recorded = r.read_bool();
    }
}

impl Component<Packet> for DspCore {
    fn name(&self) -> &str {
        &self.name
    }

    fn register_metrics(&mut self, stats: &mut mpsoc_kernel::StatsRegistry) {
        self.counters = Counters::register(&self.name, stats);
    }

    fn tick(&mut self, ctx: &mut TickContext<'_, Packet>) {
        // Collect responses.
        if let Some(pkt) = ctx.links.pop(self.resp_in, ctx.time) {
            let resp = pkt.expect_response();
            let seq = resp.txn.id.sequence();
            if self.outstanding_posted.remove(&seq).is_some() {
                // A non-posted write-back acknowledgement: nothing to do.
            } else if let CoreState::Stalled(waiting) = self.state {
                if waiting == seq {
                    self.state = CoreState::Running;
                }
            }
        }

        // Flush a deferred write-back before anything else.
        if let Some(addr) = self.pending_writeback {
            if !ctx.links.can_push(self.req_out) {
                return;
            }
            self.issue_writeback(ctx, addr);
            self.pending_writeback = None;
        }

        match self.state {
            CoreState::Finished => {}
            CoreState::Stalled(_) => ctx.stats.inc(self.counters.stall_cycles, 1),
            CoreState::Running => {
                // Instruction fetch.
                let iaddr = self.config.code_base + (self.pc % self.config.code_len);
                self.pc += 4;
                let (imiss, _) = self.icache.access(iaddr, false);
                if imiss {
                    if !ctx.links.can_push(self.req_out) {
                        self.pc -= 4; // retry the fetch next cycle
                        return;
                    }
                    let seq = self.issue_read(ctx, iaddr);
                    self.state = CoreState::Stalled(seq);
                    return;
                }
                // Data access every `mem_every` instructions.
                if self.executed.is_multiple_of(self.config.mem_every as u64) {
                    let addr = if self.rng.chance(self.config.locality) {
                        self.config.data_base
                            + ((self.last_data_addr - self.config.data_base + 4)
                                % self.config.data_len)
                    } else {
                        self.config.data_base + self.rng.range(0, self.config.data_len)
                    };
                    self.last_data_addr = addr;
                    let is_store = self.rng.chance(self.config.store_fraction);
                    let (dmiss, evicted) = self.dcache.access(addr, is_store);
                    if let Some(dirty_addr) = evicted {
                        self.pending_writeback = Some(dirty_addr);
                    }
                    if dmiss {
                        if !ctx.links.can_push(self.req_out) {
                            // Retry whole access next cycle; the cache state
                            // is already updated, so just stall one cycle.
                            return;
                        }
                        let seq = self.issue_read(ctx, addr);
                        self.state = CoreState::Stalled(seq);
                        return;
                    }
                }
                self.executed += 1;
                ctx.stats.inc(self.counters.instructions, 1);
                if self.executed >= self.config.instructions {
                    self.state = CoreState::Finished;
                    if !self.done_recorded {
                        self.done_recorded = true;
                        ctx.stats.inc(self.counters.done_at_ns, ctx.time.as_ns());
                        ctx.stats
                            .inc(self.counters.icache_misses, self.icache.misses);
                        ctx.stats
                            .inc(self.counters.dcache_misses, self.dcache.misses);
                    }
                }
            }
        }
    }

    fn is_idle(&self) -> bool {
        matches!(self.state, CoreState::Finished)
            && self.pending_writeback.is_none()
            && self.outstanding_posted.is_empty()
    }

    fn watched_links(&self) -> Option<Vec<LinkId>> {
        Some(vec![self.resp_in])
    }

    fn next_activity(&self) -> Option<Time> {
        // A running core executes (and a stalled one counts stall cycles)
        // every edge; only a finished core with nothing in flight sleeps.
        if matches!(self.state, CoreState::Finished)
            && self.pending_writeback.is_none()
            && self.outstanding_posted.is_empty()
        {
            None
        } else {
            Some(Time::ZERO)
        }
    }

    fn stall_hint(&self, hint: &mut StallHint) {
        // Stalled on a refill with nothing to flush: until something lands
        // on `resp_in` — the refill, or the acknowledgement of an earlier
        // write-back — every cycle counts one stall and does nothing else.
        // (A blocked write-back flush returns before the count: it polls.)
        if let (CoreState::Stalled(_), None) = (&self.state, self.pending_writeback) {
            hint.gate_deadline(Gate::CLOSED);
            hint.count_elided(self.counters.stall_cycles, Time::ZERO);
        }
    }

    fn fast_forward(&mut self, ctx: &mut mpsoc_kernel::FastCtx<'_, Packet>) {
        while let Some(mut tc) = ctx.next_edge() {
            self.tick(&mut tc);
            match self.state {
                // A running core executes every edge: nothing to elide.
                CoreState::Running => {}
                CoreState::Stalled(_) => {
                    // Execution halts until the matching response arrives on
                    // the watched link (or, for a blocked write-back flush,
                    // until wire space frees — which only happens across
                    // windows). Elide the wait, bulk-crediting the stall
                    // counter for the edges a stalled tick would have
                    // counted; a blocked flush returns before the stall
                    // count, so it credits nothing. Backlog already
                    // deliverable drains one pop per edge, as in cycle gear.
                    if ctx.has_deliverable(self.resp_in) {
                        continue;
                    }
                    let credit = self.pending_writeback.is_none();
                    let elided = ctx.sleep_until(None);
                    if credit && elided > 0 {
                        ctx.stats_mut().inc(self.counters.stall_cycles, elided);
                    }
                }
                CoreState::Finished => {
                    if self.pending_writeback.is_some() && ctx.can_push(self.req_out) {
                        // Dirty line evicted by the finishing access: flush
                        // it next edge.
                        continue;
                    }
                    // Waiting on write acks (watched) or wire space
                    // (frees only across windows).
                    ctx.sleep_until(None);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc_kernel::{ClockDomain, Simulation};
    use mpsoc_protocol::testing::FixedLatencyTarget;

    fn rig(config: DspConfig, target_ws: u32) -> (Simulation<Packet>, LinkId) {
        let mut sim: Simulation<Packet> = Simulation::new();
        let clk = ClockDomain::from_mhz(400);
        let req = sim.links_mut().add_link("req", 2, clk.period());
        let resp = sim.links_mut().add_link("resp", 2, clk.period());
        sim.add_component(Box::new(DspCore::new("dsp", config, req, resp)), clk);
        sim.add_component(
            Box::new(FixedLatencyTarget::new("mem", clk, req, resp, target_ws)),
            clk,
        );
        (sim, req)
    }

    fn small_config() -> DspConfig {
        DspConfig {
            instructions: 2_000,
            ..DspConfig::default()
        }
    }

    #[test]
    fn benchmark_runs_to_completion() {
        let (mut sim, req) = rig(small_config(), 1);
        sim.run_to_quiescence_strict(Time::from_ms(50))
            .expect("drains");
        assert_eq!(sim.stats().counter_by_name("dsp.instructions"), 2_000);
        assert!(
            sim.links().link(req).stats().pushes > 0,
            "must miss sometimes"
        );
    }

    #[test]
    fn slower_memory_slows_the_core() {
        let fast = {
            let (mut sim, _) = rig(small_config(), 1);
            sim.run_to_quiescence_strict(Time::from_ms(50))
                .expect("drains")
        };
        let slow = {
            let (mut sim, _) = rig(small_config(), 8);
            sim.run_to_quiescence_strict(Time::from_ms(50))
                .expect("drains")
        };
        assert!(
            slow > fast,
            "memory latency must throttle the DSP: {slow} vs {fast}"
        );
    }

    #[test]
    fn stall_cycles_accumulate_with_latency() {
        let (mut sim, _) = rig(small_config(), 8);
        sim.run_to_quiescence_strict(Time::from_ms(50))
            .expect("drains");
        let stalls = sim.stats().counter_by_name("dsp.stall_cycles");
        assert!(stalls > 1_000, "expected heavy stalling, got {stalls}");
    }

    #[test]
    fn a_core_restored_mid_stall_elides_its_first_edge() {
        // Twenty wait states: the first fetch misses, and the refill is
        // still far from deliverable a few stall cycles in.
        let (mut sim, _) = rig(small_config(), 20);
        let dsp = sim.component_ids().next().expect("the core");
        while sim.stats().counter_by_name("dsp.stall_cycles") < 3 {
            sim.step();
        }
        let stalls = sim.stats().counter_by_name("dsp.stall_cycles");
        let blob = sim.checkpoint();
        let (mut fresh, _) = rig(small_config(), 20);
        fresh.restore(&blob).expect("same build");
        sim.step();
        fresh.step();
        // The hint names the counter from the restore on: the first edge is
        // charged, elided and credited, never dispatched.
        assert_eq!(
            (fresh.component_ticks(dsp), fresh.component_dispatches(dsp)),
            (1, 0)
        );
        assert_eq!(
            fresh.stats().counter_by_name("dsp.stall_cycles"),
            stalls + 1
        );
        assert_eq!(fresh.checkpoint().as_bytes(), sim.checkpoint().as_bytes());
    }

    #[test]
    fn cache_model_hits_and_misses() {
        let mut c = CacheModel::new(4, 1, 32);
        // Cold miss, then hit.
        assert_eq!(c.access(0x100, false), (true, None));
        assert_eq!(c.access(0x104, false), (false, None));
        // Conflicting line (same index): 4 lines * 32 B = 128 B apart.
        let (miss, evicted) = c.access(0x100 + 128, false);
        assert!(miss);
        assert_eq!(evicted, None, "clean eviction produces no write-back");
        // Dirty eviction produces a write-back of the old line address.
        assert_eq!(c.access(0x200, true), (true, None));
        let (miss, evicted) = c.access(0x200 + 128, false);
        assert!(miss);
        assert_eq!(evicted, Some(0x200));
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 4);
    }

    #[test]
    fn associativity_absorbs_conflicts() {
        // Two lines mapping to the same set ping-pong in a direct-mapped
        // cache but coexist in a 2-way one.
        let mut direct = CacheModel::new(4, 1, 32);
        let mut two_way = CacheModel::new(4, 2, 32);
        for _ in 0..10 {
            // 4 sets * 32 B = 128 B apart in the direct-mapped cache;
            // 2 sets * 32 B = 64 B apart in the 2-way — use an address pair
            // that conflicts in both geometries: 0x0 and 0x200 (512 B).
            direct.access(0x0, false);
            direct.access(0x200, false);
            two_way.access(0x0, false);
            two_way.access(0x200, false);
        }
        assert_eq!(direct.misses, 20, "direct-mapped thrashes");
        assert_eq!(two_way.misses, 2, "2-way keeps both lines");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = CacheModel::new(4, 2, 32); // 2 sets, 2 ways
                                               // Fill one set with A and B, touch A, then insert C: B must go.
        let set_stride = 2 * 32; // n_sets * line
        let a = 0x0;
        let b = a + set_stride;
        let c_addr = b + set_stride;
        c.access(a, true);
        c.access(b, false);
        c.access(a, false); // A now most recent
        let (miss, evicted) = c.access(c_addr, false);
        assert!(miss);
        assert_eq!(evicted, None, "B was clean");
        // A must still hit (it was protected by recency).
        let (miss, _) = c.access(a, false);
        assert!(!miss, "LRU must have kept A");
    }

    #[test]
    fn dirty_evictions_emit_writebacks() {
        let mut cfg = small_config();
        cfg.store_fraction = 1.0;
        cfg.locality = 0.0; // thrash the cache
        cfg.dcache_lines = 16;
        let (mut sim, req) = rig(cfg, 0);
        sim.run_to_quiescence_strict(Time::from_ms(50))
            .expect("drains");
        // Write-backs are posted writes; count write requests on the link.
        let pushes = sim.links().link(req).stats().pushes;
        assert!(pushes > 100, "thrashing stores must emit write-backs");
    }

    #[test]
    fn associative_dcache_reduces_misses() {
        let run = |ways: usize| {
            let mut cfg = small_config();
            cfg.dcache_ways = ways;
            cfg.locality = 0.6; // make conflicts matter
            let (mut sim, req) = rig(cfg, 1);
            sim.run_to_quiescence_strict(Time::from_ms(50))
                .expect("drains");
            sim.links().link(req).stats().pushes
        };
        let direct = run(1);
        let four_way = run(4);
        assert!(
            four_way <= direct,
            "associativity must not increase refills: {four_way} vs {direct}"
        );
    }

    #[test]
    fn a_warm_core_saves_restores_and_saves_the_same_bytes() {
        for ways in [1, 4] {
            let cfg = DspConfig {
                dcache_ways: ways,
                icache_ways: ways,
                ..small_config()
            };
            let (mut warm, _) = rig(cfg.clone(), 2);
            warm.run_until(Time::from_us(5));
            let blob = warm.checkpoint();
            let (mut fresh, _) = rig(cfg, 2);
            fresh.restore(&blob).expect("restores");
            assert!(
                fresh.checkpoint().as_bytes() == blob.as_bytes(),
                "{ways}-way: restore must rebuild the saved cache exactly"
            );
        }
    }

    #[test]
    fn determinism() {
        let run = || {
            let (mut sim, req) = rig(small_config(), 2);
            let end = sim
                .run_to_quiescence_strict(Time::from_ms(50))
                .expect("drains");
            (end, sim.links().link(req).stats().pushes)
        };
        assert_eq!(run(), run());
    }
}
