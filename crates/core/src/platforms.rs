//! The reference MPSoC platform and its architectural variants.
//!
//! The paper's Fig. 1 platform is an STMicroelectronics consumer-electronics
//! MPSoC: IP cores grouped into functional clusters (video decrypt/decode,
//! image resizing, generic DMA, audio), an ST220 VLIW DSP behind an
//! upsize/frequency converter, a central 64-bit node, and a unified memory
//! architecture with a single off-chip DDR SDRAM behind the LMI memory
//! controller. This module rebuilds that platform and the variants the
//! paper explores:
//!
//! * **Topology**: [`Topology::Distributed`] (the multi-layer platform with
//!   cluster nodes and bridges) versus [`Topology::Collapsed`] (every actor
//!   attached to the central node — the paper's collapsed/single-layer
//!   comparison point).
//! * **Protocol**: STBus Types 1–3, AMBA AHB or AMBA AXI for every layer
//!   (bridges adapt automatically; the LMI keeps its native STBus interface
//!   and non-STBus platforms reach it through a protocol-conversion
//!   bridge).
//! * **Memory**: a 1-wait-state-class on-chip memory with a blocking
//!   single-slot interface, or the LMI controller with DDR SDRAM.

use crate::builder::{BusHandle, BusSpec, PlatformBuilder};
use crate::report::RunReport;
use mpsoc_ahb::AhbBusConfig;
use mpsoc_axi::AxiInterconnectConfig;
use mpsoc_bridge::BridgeConfig;
use mpsoc_kernel::stats::CounterId;
use mpsoc_kernel::vcd::VcdWriter;
use mpsoc_kernel::{ClockDomain, ExecMode, SimResult, Simulation, Time};
use mpsoc_memory::{LmiConfig, OnChipMemoryConfig};
use mpsoc_protocol::{
    AddressRange, ArbitrationPolicy, DataWidth, Packet, ProtocolKind, TlmBusConfig,
};
use mpsoc_stbus::{ChannelTopology, StbusNodeConfig};
use mpsoc_traffic::workloads::{self, MemoryWindow};
use mpsoc_traffic::{DspConfig, IptgConfig};

/// Base address of the unified memory region all traffic targets.
pub const MEM_BASE: u64 = 0x8000_0000;
/// Size of the unified memory region.
pub const MEM_LEN: u64 = 64 << 20;

/// Communication architecture organisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Every communication actor on the central node (no bridges except
    /// the DSP's width converter): the pure single-layer comparison point.
    SingleLayer,
    /// The paper's *collapsed* variant: the most heavily congested cluster
    /// (N5, the DMA/imaging cluster) is removed and its actors attached
    /// directly to the central node, while the other clusters stay behind
    /// their bridges.
    Collapsed,
    /// The full multi-layer platform: three IP clusters behind bridges
    /// plus the DSP converter, all meeting at the central node that hosts
    /// the memory interface.
    Distributed,
}

/// The memory subsystem variant.
#[derive(Debug, Clone)]
pub enum MemorySystem {
    /// On-chip shared memory with a blocking single-slot interface.
    OnChip {
        /// Wait states per data beat (1 in the paper's baseline; Fig. 4
        /// sweeps this).
        wait_states: u32,
    },
    /// The LMI controller driving off-chip DDR SDRAM.
    Lmi(LmiConfig),
    /// Two LMI controllers, each owning half of the unified memory region —
    /// the I/O-architecture optimisation the paper's guideline 4 calls for
    /// ("optimizations of the I/O architecture to remove the system
    /// bottleneck").
    DualLmi(LmiConfig),
}

/// How the interconnect layers are modelled — the platform is
/// *multi-abstraction*, like the paper's. Structure, unlike the kernel gear
/// of [`PlatformSpec::exec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Interconnect {
    /// Cycle-accurate bus models (arbitration, channel occupancy,
    /// back-pressure). The default, used by every paper experiment.
    #[default]
    CycleAccurate,
    /// Transaction-level transports: fixed latency, no contention. Orders
    /// of magnitude cheaper to simulate; timing is approximate.
    TransactionLevel,
}

/// Which traffic mix drives the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The consumer-electronics mix: video decode, decrypt, DMA, image
    /// resize, audio.
    Standard,
    /// Every IP runs the two-phase profile of the paper's Figure 6
    /// (intense steady regime, then lower-rate bursty regime).
    TwoPhase,
    /// The bursty posted-write mix of the paper's Figure 4 memory-speed
    /// sweep: the N5 cluster carries heavy bursts, the other clusters
    /// light probes, and aggregate demand stays below memory saturation so
    /// latency and buffering effects are visible.
    BurstyPosted,
}

/// Complete description of a platform instance.
#[derive(Debug, Clone)]
pub struct PlatformSpec {
    /// Interconnect protocol used by every bus layer.
    pub protocol: ProtocolKind,
    /// Collapsed or distributed organisation.
    pub topology: Topology,
    /// Memory subsystem.
    pub memory: MemorySystem,
    /// Traffic mix.
    pub workload: Workload,
    /// Workload size multiplier.
    pub scale: u64,
    /// Simulation seed (also diversifies generator streams).
    pub seed: u64,
    /// Whether the DSP core is instantiated.
    pub with_dsp: bool,
    /// Bridge used between cluster nodes and the central node; `None`
    /// selects GenConv (split) for STBus platforms and the lightweight
    /// blocking bridge for AHB/AXI — the paper's arrangement.
    pub cluster_bridge: Option<BridgeConfig>,
    /// Bridge in front of the LMI for non-STBus platforms; `None` selects
    /// the lightweight blocking protocol converter.
    pub memory_bridge: Option<BridgeConfig>,
    /// Outstanding-transaction budget for initiator interfaces (clamped by
    /// the protocol's capability).
    pub max_outstanding: usize,
    /// Arbitration policy for every node.
    pub arbitration: ArbitrationPolicy,
    /// How the interconnect layers are modelled.
    pub interconnect: Interconnect,
    /// How the built simulation executes (schedule and kernel gear).
    /// Strategy, not structure: it never changes the platform's
    /// [`structural_fingerprint`](Platform::structural_fingerprint).
    pub exec: ExecMode,
}

impl Default for PlatformSpec {
    fn default() -> Self {
        PlatformSpec {
            protocol: ProtocolKind::StbusT3,
            topology: Topology::Distributed,
            memory: MemorySystem::OnChip { wait_states: 1 },
            workload: Workload::Standard,
            scale: 1,
            seed: 0x1a7f0,
            with_dsp: true,
            cluster_bridge: None,
            memory_bridge: None,
            max_outstanding: 4,
            arbitration: ArbitrationPolicy::RoundRobin,
            interconnect: Interconnect::CycleAccurate,
            exec: ExecMode::default(),
        }
    }
}

impl PlatformSpec {
    fn effective_cluster_bridge(&self) -> BridgeConfig {
        self.cluster_bridge.unwrap_or_else(|| {
            if self.protocol.is_stbus() {
                BridgeConfig::genconv()
            } else {
                BridgeConfig::lightweight()
            }
        })
    }

    fn effective_memory_bridge(&self) -> BridgeConfig {
        self.memory_bridge.unwrap_or_else(BridgeConfig::lightweight)
    }
}

/// A fully wired, runnable platform instance.
pub struct Platform {
    sim: Simulation<Packet>,
    reference_clock: ClockDomain,
    bus_names: Vec<String>,
    generator_names: Vec<String>,
    lmi_names: Vec<String>,
    expected_transactions: u64,
    /// The `{generator}.injected` counters, resolved once at build. Every
    /// generator registers its counters when it is added, so their ids lie
    /// in the registry prefix that the structural fingerprint covers: a
    /// blob [`Platform::restore`] accepts has the same metrics at the same
    /// ids, and they stay valid.
    injected_ids: Vec<CounterId>,
}

impl Platform {
    pub(crate) fn from_parts(
        sim: Simulation<Packet>,
        reference_clock: ClockDomain,
        bus_names: Vec<String>,
        generator_names: Vec<String>,
        lmi_names: Vec<String>,
        expected_transactions: u64,
    ) -> Platform {
        // A generator without the counter (the DSP core) injects nothing
        // it counts.
        let injected_ids = generator_names
            .iter()
            .filter_map(|name| sim.stats().find_counter(&format!("{name}.injected")))
            .collect();
        Platform {
            sim,
            reference_clock,
            bus_names,
            generator_names,
            lmi_names,
            expected_transactions,
            injected_ids,
        }
    }

    /// The underlying simulation (fine-grain experiments step it manually).
    pub fn sim(&self) -> &Simulation<Packet> {
        &self.sim
    }

    /// Mutable access to the underlying simulation.
    pub fn sim_mut(&mut self) -> &mut Simulation<Packet> {
        &mut self.sim
    }

    /// Total transactions the configured workload will inject.
    pub fn expected_transactions(&self) -> u64 {
        self.expected_transactions
    }

    /// Transactions injected so far, summed over every traffic generator.
    /// Cheap enough to sample mid-run; stepping experiments use it to
    /// locate traffic-anchored phase boundaries.
    pub fn injected_so_far(&self) -> u64 {
        let stats = self.sim.stats();
        self.injected_ids
            .iter()
            .map(|&id| stats.counter_value(id))
            .sum()
    }

    /// Produces a human-readable snapshot of what is in flight right now:
    /// non-empty links with their occupancy and the components still
    /// reporting activity. The first tool to reach for when a run stalls.
    pub fn diagnose(&self) -> String {
        let mut out = String::new();
        let now = self.sim.time();
        out.push_str(&format!("diagnosis at {now}\n"));
        let mut any = false;
        for (_, link) in self.sim.links().iter() {
            if !link.is_empty() {
                any = true;
                out.push_str(&format!(
                    "  link {:<28} {}/{} occupied\n",
                    link.name(),
                    link.len(),
                    link.capacity()
                ));
            }
        }
        if !any {
            out.push_str("  all links drained\n");
        }
        if self.sim.is_quiescent() {
            out.push_str("  platform quiescent\n");
        }
        out
    }

    /// Arms deterministic fault injection: every component on the tick path
    /// starts probing `schedule` from a fresh stream. Arming with an
    /// all-zero-rate schedule is behaviourally identical to not arming.
    pub fn arm_faults(&mut self, schedule: mpsoc_kernel::FaultSchedule) {
        self.sim.arm_faults(schedule);
    }

    /// Fault-injection bookkeeping accumulated so far (all zeros when no
    /// schedule was armed).
    pub fn fault_counts(&self) -> mpsoc_kernel::FaultCounts {
        self.sim.fault_counts()
    }

    /// Arms the fine-grain event trace with space for `capacity` records
    /// (grants, channel transfers, FIFO transitions). Retrieve them after
    /// the run through `self.sim().stats().trace()`.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.sim.stats_mut().trace_mut().enable(capacity);
    }

    /// Runs the workload while sampling a waveform: the occupancy of every
    /// link (issue FIFOs, prefetch FIFOs, bridge FIFOs) plus the LMI
    /// interface state, sampled every `sample_period`. Returns the run
    /// report and the rendered VCD document (viewable in GTKWave).
    ///
    /// # Errors
    ///
    /// Fails like [`Platform::run_with_horizon`] if the platform stalls.
    pub fn run_with_waveform(
        &mut self,
        sample_period: Time,
        horizon: Time,
    ) -> SimResult<(RunReport, String)> {
        let mut vcd = VcdWriter::new("platform");
        let link_signals: Vec<_> = self
            .sim
            .links()
            .iter()
            .map(|(id, link)| {
                let name: String = link
                    .name()
                    .chars()
                    .map(|c| if c.is_whitespace() { '_' } else { c })
                    .collect();
                (id, vcd.add_signal(name, 16))
            })
            .collect();
        let lmi_signals: Vec<_> = self
            .lmi_names
            .iter()
            .map(|name| {
                (
                    format!("{name}.iface"),
                    vcd.add_signal(format!("{name}_state"), 2),
                )
            })
            .collect();
        let mut next_sample = Time::ZERO;
        let exec = loop {
            if self.sim.is_quiescent() && self.sim.time() > Time::ZERO {
                break self.sim.time();
            }
            match self.sim.next_edge() {
                Some(edge) if edge <= horizon => {
                    self.sim.step();
                }
                _ => {
                    return Err(mpsoc_kernel::SimError::Stalled {
                        at: self.sim.time(),
                        busy: vec!["waveform run hit the horizon".into()],
                    })
                }
            }
            let now = self.sim.time();
            if now >= next_sample {
                next_sample = now + sample_period;
                let mut values = Vec::with_capacity(link_signals.len() + lmi_signals.len());
                for (link, sig) in &link_signals {
                    values.push((*sig, self.sim.links().link(*link).len() as u64));
                }
                for (residency, sig) in &lmi_signals {
                    let state = self
                        .sim
                        .stats()
                        .residency_by_name(residency)
                        .map_or(0, |r| r.current() as u64);
                    values.push((*sig, state));
                }
                vcd.sample(now, &values);
            }
        };
        Ok((self.report_at(exec), vcd.render()))
    }

    /// Hash of the platform's structure (component roster, clock-domain
    /// buckets, link wiring) — everything a checkpoint does *not* carry.
    /// Two platforms built from the same spec share a fingerprint; restore
    /// refuses blobs whose recorded fingerprint differs. The warm-cache
    /// server keys its checkpoint cache on this.
    pub fn structural_fingerprint(&self) -> u64 {
        self.sim.structural_fingerprint()
    }

    /// Serializes the platform's complete dynamic state (timeline, link
    /// contents, every component, RNG, fault cursor, statistics) into a
    /// versioned, checksummed blob. Restore it into a *structurally
    /// identical* platform — same spec — with [`Platform::restore`].
    pub fn checkpoint(&self) -> mpsoc_kernel::SnapshotBlob {
        self.sim.checkpoint()
    }

    /// Restores state captured by [`Platform::checkpoint`]. The platform
    /// must have been built from the same spec as the checkpointed one.
    ///
    /// Restore is a complete reset ([`Simulation::restore`]): a platform
    /// that has already run — any blob, any wait states — is afterwards
    /// indistinguishable from a fresh build restored from the same blob, in
    /// its checkpoint bytes and in every run that follows (report, tick and
    /// edge counts). A sweep server may therefore fork the next request
    /// into a platform that served the last one instead of building anew.
    ///
    /// # Errors
    ///
    /// Fails on corrupt blobs or a structural mismatch (different spec).
    pub fn restore(&mut self, blob: &mpsoc_kernel::SnapshotBlob) -> SimResult<()> {
        self.sim.restore(blob)
    }

    /// Re-parameterises the on-chip memory's wait states at runtime, so a
    /// restored warm fork can explore a different sweep point without
    /// rebuilding. Returns `false` when the platform has no on-chip memory
    /// (e.g. an LMI memory system).
    pub fn set_memory_wait_states(&mut self, wait_states: u32) -> bool {
        match self
            .sim
            .component_any_mut("mem")
            .and_then(|c| c.downcast_mut::<mpsoc_memory::OnChipMemory>())
        {
            Some(mem) => {
                mem.set_wait_states(wait_states);
                true
            }
            None => false,
        }
    }

    /// Runs the workload to completion with a generous default horizon.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stalled`](mpsoc_kernel::SimError::Stalled) if
    /// the platform deadlocks or the horizon is reached first.
    pub fn run(&mut self) -> SimResult<RunReport> {
        self.run_with_horizon(Time::from_ms(60))
    }

    /// Runs the workload to completion with an explicit horizon.
    ///
    /// # Errors
    ///
    /// See [`Platform::run`].
    pub fn run_with_horizon(&mut self, horizon: Time) -> SimResult<RunReport> {
        let exec = self.sim.run_to_quiescence_strict(horizon)?;
        Ok(self.report_at(exec))
    }

    /// The [`exec_cycles`](RunReport::exec_cycles) of
    /// [`report_at(exec)`](Platform::report_at), without building the rest
    /// of the report: what a served sweep point returns.
    pub fn exec_cycles_at(&self, exec: Time) -> u64 {
        crate::report::exec_cycles(exec, self.reference_clock.period())
    }

    /// Builds a report for the current simulation state (used by stepping
    /// experiments).
    pub fn report_at(&self, exec: Time) -> RunReport {
        let stats = self.sim.stats().report(exec);
        RunReport::from_stats(
            exec,
            self.reference_clock.period(),
            &stats,
            &self.bus_names,
            &self.generator_names,
            &self.lmi_names,
        )
    }
}

impl std::fmt::Debug for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Platform")
            .field("buses", &self.bus_names)
            .field("generators", &self.generator_names)
            .field("expected_transactions", &self.expected_transactions)
            .finish()
    }
}

fn bus_spec(spec: &PlatformSpec, width: DataWidth) -> BusSpec {
    if spec.interconnect == Interconnect::TransactionLevel {
        return BusSpec::Tlm(TlmBusConfig::default(), width);
    }
    match spec.protocol {
        p if p.is_stbus() => BusSpec::Stbus(StbusNodeConfig {
            protocol: p,
            width,
            arbitration: spec.arbitration,
            message_arbitration: true,
            max_outstanding: spec.max_outstanding,
            topology: ChannelTopology::SharedBus,
        }),
        ProtocolKind::Ahb => BusSpec::Ahb(AhbBusConfig {
            width,
            arbitration: spec.arbitration,
        }),
        ProtocolKind::Axi => BusSpec::Axi(AxiInterconnectConfig {
            width,
            arbitration: spec.arbitration,
            max_outstanding: spec.max_outstanding,
            in_order: false,
        }),
        _ => unreachable!("is_stbus covered above"),
    }
}

/// Adapts a generator configuration to a protocol's capabilities: clamps
/// outstanding budgets and strips posted writes where unsupported.
fn adapt_to_protocol(mut cfg: IptgConfig, protocol: ProtocolKind) -> IptgConfig {
    for agent in &mut cfg.agents {
        agent.max_outstanding = protocol.clamp_outstanding(agent.max_outstanding);
        if !protocol.supports_posted_writes() {
            agent.posted_writes = false;
        }
    }
    cfg
}

/// The IP roster: `(name, cluster index, workload constructor)`.
type IpFactory = fn(mpsoc_protocol::InitiatorId, DataWidth, MemoryWindow, u64) -> IptgConfig;

fn ip_roster(workload: Workload) -> Vec<(&'static str, usize, IpFactory)> {
    match workload {
        Workload::Standard => vec![
            ("video_dec", 0, workloads::video_decoder as IpFactory),
            ("decrypt", 0, workloads::decryptor as IpFactory),
            ("dma0", 1, workloads::dma_engine as IpFactory),
            ("dma1", 1, workloads::dma_engine as IpFactory),
            ("resizer", 1, workloads::image_resizer as IpFactory),
            ("audio", 2, workloads::audio_interface as IpFactory),
            ("ts_input", 2, workloads::two_phase_stream as IpFactory),
        ],
        Workload::TwoPhase => vec![
            ("stream0", 0, workloads::two_phase_stream as IpFactory),
            ("stream1", 0, workloads::two_phase_stream as IpFactory),
            ("stream2", 1, workloads::two_phase_stream as IpFactory),
            ("stream3", 1, workloads::two_phase_stream as IpFactory),
            ("stream4", 2, workloads::two_phase_stream as IpFactory),
            ("stream5", 2, workloads::two_phase_stream as IpFactory),
        ],
        Workload::BurstyPosted => vec![
            ("probe_n1", 0, heavy_probe_light as IpFactory),
            ("burst0", 1, heavy_probe_heavy as IpFactory),
            ("burst1", 1, heavy_probe_heavy as IpFactory),
            ("burst2", 1, heavy_probe_heavy as IpFactory),
            ("probe_n3", 2, heavy_probe_light as IpFactory),
        ],
    }
}

fn heavy_probe_heavy(
    initiator: mpsoc_protocol::InitiatorId,
    width: DataWidth,
    window: MemoryWindow,
    scale: u64,
) -> IptgConfig {
    workloads::memory_speed_probe(initiator, width, window, scale, true)
}

fn heavy_probe_light(
    initiator: mpsoc_protocol::InitiatorId,
    width: DataWidth,
    window: MemoryWindow,
    scale: u64,
) -> IptgConfig {
    workloads::memory_speed_probe(initiator, width, window, scale, false)
}

/// A user-supplied IP for [`build_platform_with_ips`]: its diagnostic
/// name, the cluster that hosts it (0 = N1 video, 1 = N5 media, 2 = N3
/// audio/IO) and its full traffic configuration.
#[derive(Debug, Clone)]
pub struct CustomIp {
    /// Diagnostic name (unique per platform).
    pub name: String,
    /// Hosting cluster index (0..=2).
    pub cluster: usize,
    /// Traffic configuration; the initiator id is overwritten with a
    /// platform-unique one at build time.
    pub config: IptgConfig,
}

/// Builds the reference topology but with a caller-supplied IP roster
/// instead of the standard consumer-electronics mix — the entry point for
/// studying *your* SoC's traffic on the paper's platform variants.
///
/// # Errors
///
/// Fails on inconsistent configuration (cluster index out of range,
/// invalid traffic profiles, overlapping routes).
pub fn build_platform_with_ips(spec: &PlatformSpec, ips: &[CustomIp]) -> SimResult<Platform> {
    for ip in ips {
        if ip.cluster > 2 {
            return Err(mpsoc_kernel::SimError::InvalidConfig {
                reason: format!(
                    "IP '{}' names cluster {} (0..=2 exist)",
                    ip.name, ip.cluster
                ),
            });
        }
    }
    build_platform_inner(spec, Some(ips))
}

/// Builds a platform instance from a spec.
///
/// # Errors
///
/// Fails on inconsistent configuration (overlapping routes, invalid
/// traffic profiles).
pub fn build_platform(spec: &PlatformSpec) -> SimResult<Platform> {
    build_platform_inner(spec, None)
}

fn build_platform_inner(spec: &PlatformSpec, custom: Option<&[CustomIp]>) -> SimResult<Platform> {
    let central_clk = ClockDomain::from_mhz(250);
    let cluster_clks = [
        ClockDomain::from_mhz(200),
        ClockDomain::from_mhz(200),
        ClockDomain::from_mhz(133),
    ];
    let lmi_clk = ClockDomain::from_mhz(200);
    let dsp_clk = ClockDomain::from_mhz(400);
    let width = DataWidth::BITS64;
    let mem_range = AddressRange::new(MEM_BASE, MEM_BASE + MEM_LEN);
    let window = MemoryWindow {
        base: MEM_BASE,
        len: MEM_LEN,
    };

    let mut b = PlatformBuilder::new(spec.seed, spec.exec);
    let central = b.add_bus("n8", bus_spec(spec, width), central_clk);

    // Memory subsystem.
    match &spec.memory {
        MemorySystem::OnChip { wait_states } => {
            b.add_on_chip_memory(
                central,
                "mem",
                OnChipMemoryConfig {
                    wait_states: *wait_states,
                },
                mem_range,
            )?;
        }
        MemorySystem::Lmi(cfg) => {
            if spec.protocol.is_stbus() {
                b.add_lmi(central, "lmi", cfg.clone(), lmi_clk, mem_range)?;
            } else {
                b.add_lmi_behind_bridge(
                    central,
                    "lmi",
                    cfg.clone(),
                    lmi_clk,
                    spec.effective_memory_bridge(),
                    mem_range,
                )?;
            }
        }
        MemorySystem::DualLmi(cfg) => {
            let half = MEM_LEN / 2;
            for (idx, base) in [(0u32, MEM_BASE), (1, MEM_BASE + half)] {
                let range = AddressRange::new(base, base + half);
                let name = format!("lmi{idx}");
                if spec.protocol.is_stbus() {
                    b.add_lmi(central, &name, cfg.clone(), lmi_clk, range)?;
                } else {
                    b.add_lmi_behind_bridge(
                        central,
                        &name,
                        cfg.clone(),
                        lmi_clk,
                        spec.effective_memory_bridge(),
                        range,
                    )?;
                }
            }
        }
    }

    // Cluster nodes. The reference platform is genuinely multi-layer: the
    // N1 (video) and N5 (DMA/imaging) clusters reach the central node
    // through a shared backbone node N6, while the slower N3 cluster
    // attaches to the central node directly. The paper's *collapsed*
    // variant removes only the congested N5 cluster, attaching its actors
    // straight to the central node; the rest of the hierarchy is kept.
    let roster = ip_roster(spec.workload);
    let cluster_names = ["n1", "n5", "n3"];
    let instantiate_cluster = |idx: usize, topology: Topology| match topology {
        Topology::SingleLayer => false,
        Topology::Collapsed => idx != 1,
        Topology::Distributed => true,
    };
    let backbone = if (0..2).any(|i| instantiate_cluster(i, spec.topology)) {
        let n6 = b.add_bus("n6", bus_spec(spec, width), central_clk);
        b.add_bridge(
            "br_n6",
            spec.effective_cluster_bridge(),
            n6,
            central,
            &[mem_range],
        )?;
        Some(n6)
    } else {
        None
    };
    let mut clusters: Vec<Option<BusHandle>> = Vec::new();
    for i in 0..3 {
        if instantiate_cluster(i, spec.topology) {
            let h = b.add_bus(cluster_names[i], bus_spec(spec, width), cluster_clks[i]);
            // N1/N5 go through the backbone; N3 attaches directly.
            let uplink = if i < 2 {
                backbone.expect("backbone exists when n1/n5 do")
            } else {
                central
            };
            b.add_bridge(
                &format!("br_{}", cluster_names[i]),
                spec.effective_cluster_bridge(),
                h,
                uplink,
                &[mem_range],
            )?;
            clusters.push(Some(h));
        } else {
            clusters.push(None);
        }
    }

    // Traffic generators: the standard roster, or the caller's custom one.
    match custom {
        None => {
            for (i, (name, cluster_idx, factory)) in roster.iter().enumerate() {
                let initiator = b.alloc_initiator();
                let slice = window.slice(i as u64, 16);
                let cfg = factory(initiator, width, slice, spec.scale);
                let mut cfg = adapt_to_protocol(cfg, spec.protocol);
                cfg.seed ^= spec.seed;
                let bus = clusters[*cluster_idx].unwrap_or(central);
                b.add_iptg(bus, name, cfg, 2)?;
            }
        }
        Some(ips) => {
            for ip in ips {
                let mut cfg = adapt_to_protocol(ip.config.clone(), spec.protocol);
                cfg.initiator = b.alloc_initiator();
                cfg.seed ^= spec.seed;
                let bus = clusters[ip.cluster].unwrap_or(central);
                b.add_iptg(bus, &ip.name, cfg, 2)?;
            }
        }
    }

    // The DSP, behind its upsize/frequency converter.
    if spec.with_dsp {
        let initiator = b.alloc_initiator();
        let code = window.slice(14, 16);
        let data = window.slice(15, 16);
        let dsp_cfg = DspConfig {
            initiator,
            width: DataWidth::BITS32,
            code_base: code.base,
            code_len: 12 << 10,
            data_base: data.base,
            data_len: 512 << 10,
            locality: 0.9,
            mem_every: 4,
            instructions: 600 * spec.scale,
            posted_writebacks: spec.protocol.supports_posted_writes(),
            seed: 0xd5b ^ spec.seed,
            ..DspConfig::default()
        };
        let converter = if spec.protocol.is_stbus() {
            BridgeConfig::genconv()
        } else {
            BridgeConfig::lightweight()
        };
        b.add_dsp_with_converter(central, "dsp", dsp_cfg, dsp_clk, converter);
    }

    Ok(b.finish(central_clk))
}

/// Parameters of the single-layer experimental platform of Section 4.1.
#[derive(Debug, Clone)]
pub struct SingleLayerSpec {
    /// Interconnect protocol.
    pub protocol: ProtocolKind,
    /// Number of uniform bursty initiators.
    pub initiators: usize,
    /// Number of on-chip memory targets.
    pub targets: usize,
    /// Memory wait states per beat.
    pub wait_states: u32,
    /// Target-side prefetch-FIFO depth.
    pub prefetch_fifo: usize,
    /// Think-time range in cycles (controls offered load).
    pub think_cycles: (u64, u64),
    /// Probability a transaction is a read.
    pub read_fraction: f64,
    /// Transaction budget multiplier.
    pub scale: u64,
    /// Simulation seed.
    pub seed: u64,
    /// How the built simulation executes (see [`PlatformSpec::exec`]).
    pub exec: ExecMode,
}

impl Default for SingleLayerSpec {
    fn default() -> Self {
        SingleLayerSpec {
            protocol: ProtocolKind::StbusT2,
            initiators: 8,
            targets: 4,
            wait_states: 1,
            prefetch_fifo: 1,
            think_cycles: (4, 16),
            read_fraction: 0.8,
            scale: 1,
            seed: 0x51,
            exec: ExecMode::default(),
        }
    }
}

/// Builds the single-layer experimental platform of Section 4.1: uniform
/// bursty initiators on one bus over one or more on-chip memories.
///
/// Used by the many-to-many and many-to-one experiments and the buffering
/// ablation.
///
/// # Errors
///
/// Fails on inconsistent configuration.
pub fn build_single_layer(spec: &SingleLayerSpec) -> SimResult<Platform> {
    let clk = ClockDomain::from_mhz(250);
    let width = DataWidth::BITS64;
    let pspec = PlatformSpec {
        protocol: spec.protocol,
        max_outstanding: 4,
        ..PlatformSpec::default()
    };
    let mut b = PlatformBuilder::new(spec.seed, spec.exec);
    let bus = b.add_bus("bus", bus_spec(&pspec, width), clk);

    let region = 16 << 20;
    for t in 0..spec.targets {
        let base = MEM_BASE + t as u64 * region;
        let range = AddressRange::new(base, base + region);
        let name = format!("mem{t}");
        let clock = b.bus_clock(bus);
        let iface = b.target_port(
            bus,
            &name,
            spec.prefetch_fifo,
            spec.prefetch_fifo.max(1),
            &[range],
        )?;
        b.add_component(
            Box::new(mpsoc_memory::OnChipMemory::new(
                name,
                OnChipMemoryConfig {
                    wait_states: spec.wait_states,
                },
                clock,
                iface.req,
                iface.resp,
            )),
            clock,
        );
    }

    for i in 0..spec.initiators {
        let initiator = b.alloc_initiator();
        // Spread initiators across targets round-robin so the many-to-many
        // pattern exercises parallel flows.
        let t = i % spec.targets;
        let base = MEM_BASE + t as u64 * region;
        let mut cfg = IptgConfig {
            initiator,
            width,
            seed: spec.seed ^ (0x9e37 + i as u64),
            agents: vec![mpsoc_traffic::AgentConfig {
                name: "load".into(),
                pattern: mpsoc_traffic::AddressPattern::Random { base, len: region },
                read_fraction: spec.read_fraction,
                beats_choices: vec![4, 8],
                message_len: 1,
                max_outstanding: 4,
                posted_writes: true,
                blocking: false,
                priority: 0,
                segments: vec![mpsoc_traffic::TrafficSegment {
                    transactions: 60 * spec.scale,
                    burst_len: (2, 6),
                    think_cycles: spec.think_cycles,
                }],
                start_after: None,
            }],
        };
        cfg = adapt_to_protocol(cfg, spec.protocol);
        b.add_iptg(bus, &format!("ip{i}"), cfg, 2)?;
    }
    Ok(b.finish(clk))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> PlatformSpec {
        PlatformSpec {
            scale: 1,
            ..PlatformSpec::default()
        }
    }

    #[test]
    fn collapsed_stbus_on_chip_runs() {
        let spec = PlatformSpec {
            topology: Topology::Collapsed,
            ..quick_spec()
        };
        let mut p = build_platform(&spec).expect("builds");
        let report = p.run().expect("drains");
        assert!(report.exec_time_ps > 0);
        assert!(report.injected > 100);
    }

    #[test]
    fn distributed_stbus_on_chip_runs() {
        let mut p = build_platform(&quick_spec()).expect("builds");
        let report = p.run().expect("drains");
        assert!(report.injected > 100);
    }

    #[test]
    fn ahb_platforms_run() {
        for topology in [Topology::Collapsed, Topology::Distributed] {
            let spec = PlatformSpec {
                protocol: ProtocolKind::Ahb,
                topology,
                ..quick_spec()
            };
            let mut p = build_platform(&spec).expect("builds");
            let report = p.run().expect("drains");
            assert!(report.injected > 100, "{topology:?}");
        }
    }

    #[test]
    fn axi_platforms_run() {
        for topology in [Topology::Collapsed, Topology::Distributed] {
            let spec = PlatformSpec {
                protocol: ProtocolKind::Axi,
                topology,
                ..quick_spec()
            };
            let mut p = build_platform(&spec).expect("builds");
            let report = p.run().expect("drains");
            assert!(report.injected > 100, "{topology:?}");
        }
    }

    #[test]
    fn lmi_platforms_run() {
        for protocol in [ProtocolKind::StbusT3, ProtocolKind::Axi, ProtocolKind::Ahb] {
            let spec = PlatformSpec {
                protocol,
                topology: Topology::Collapsed,
                memory: MemorySystem::Lmi(LmiConfig::default()),
                ..quick_spec()
            };
            let mut p = build_platform(&spec).expect("builds");
            let report = p.run().expect("drains");
            assert_eq!(report.lmi.len(), 1, "{protocol}");
            assert!(report.lmi[0].accesses > 0, "{protocol}");
        }
    }

    #[test]
    fn determinism_across_identical_builds() {
        let run = || {
            let mut p = build_platform(&quick_spec()).expect("builds");
            p.run().expect("drains").exec_time_ps
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn seeds_change_schedules() {
        let run = |seed: u64| {
            let spec = PlatformSpec {
                seed,
                ..quick_spec()
            };
            let mut p = build_platform(&spec).expect("builds");
            p.run().expect("drains").exec_time_ps
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn diagnose_names_occupied_links() {
        let mut p = build_platform(&quick_spec()).expect("builds");
        // Mid-run: something must be in flight.
        p.sim_mut().run_until(Time::from_us(4));
        let report = p.diagnose();
        assert!(report.contains("occupied"), "mid-run diagnosis: {report}");
        p.run().expect("drains");
        let report = p.diagnose();
        assert!(report.contains("all links drained"), "{report}");
        assert!(report.contains("quiescent"));
    }

    #[test]
    fn custom_ip_roster_builds_and_runs() {
        use mpsoc_traffic::workloads::{self, MemoryWindow};
        let window = MemoryWindow {
            base: MEM_BASE,
            len: MEM_LEN,
        };
        let ips = vec![
            CustomIp {
                name: "blitter".into(),
                cluster: 1,
                config: workloads::graphics_blitter(
                    mpsoc_protocol::InitiatorId::new(0),
                    DataWidth::BITS64,
                    window.slice(0, 4),
                    1,
                ),
            },
            CustomIp {
                name: "mac".into(),
                cluster: 2,
                config: workloads::network_mac(
                    mpsoc_protocol::InitiatorId::new(0),
                    DataWidth::BITS64,
                    window.slice(1, 4),
                    1,
                ),
            },
        ];
        let mut p = build_platform_with_ips(&quick_spec(), &ips).expect("builds");
        let report = p.run().expect("drains");
        assert!(report.generators.iter().any(|g| g.name == "blitter"));
        assert!(report.generators.iter().any(|g| g.name == "mac"));
        assert!(report.injected > 0);

        let bad = vec![CustomIp {
            name: "x".into(),
            cluster: 9,
            config: workloads::network_mac(
                mpsoc_protocol::InitiatorId::new(0),
                DataWidth::BITS64,
                window,
                1,
            ),
        }];
        assert!(build_platform_with_ips(&quick_spec(), &bad).is_err());
    }

    #[test]
    fn tracing_records_fine_grain_events() {
        use mpsoc_kernel::TraceKind;
        let mut p = build_platform(&quick_spec()).expect("builds");
        p.enable_tracing(4096);
        p.run().expect("drains");
        let trace = p.sim().stats().trace();
        assert!(!trace.is_empty(), "events must be recorded");
        let kinds: std::collections::HashSet<_> = trace.records().map(|r| r.kind).collect();
        assert!(kinds.contains(&TraceKind::Grant));
        assert!(kinds.contains(&TraceKind::Deliver));
        assert!(kinds.contains(&TraceKind::Forward));
        // A dump line mentions the central node.
        assert!(trace.dump().contains("n8"));
    }

    #[test]
    fn waveform_capture_produces_vcd() {
        let spec = PlatformSpec {
            memory: MemorySystem::Lmi(LmiConfig::default()),
            topology: Topology::SingleLayer,
            ..quick_spec()
        };
        let mut p = build_platform(&spec).expect("builds");
        let (report, vcd) = p
            .run_with_waveform(Time::from_ns(100), Time::from_ms(60))
            .expect("drains");
        assert!(report.injected > 0);
        assert!(vcd.contains("$enddefinitions"));
        assert!(vcd.contains("lmi_state"));
        assert!(vcd.contains("lmi.req"), "link signals present");
        // There must be actual value changes beyond the header.
        assert!(vcd.matches('#').count() > 10, "samples recorded");
    }

    #[test]
    fn single_layer_platform_runs() {
        let spec = SingleLayerSpec {
            prefetch_fifo: 2,
            think_cycles: (0, 8),
            seed: 7,
            ..SingleLayerSpec::default()
        };
        let mut p = build_single_layer(&spec).expect("builds");
        let report = p.run().expect("drains");
        assert_eq!(report.injected, 8 * 60);
    }
}
