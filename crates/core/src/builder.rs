//! Low-level platform wiring.

use mpsoc_ahb::{AhbBus, AhbBusConfig};
use mpsoc_axi::{AxiInterconnect, AxiInterconnectConfig};
use mpsoc_bridge::{Bridge, BridgeConfig};
use mpsoc_kernel::{ClockDomain, Component, ExecMode, LinkId, SimError, SimResult, Simulation};
use mpsoc_memory::{LmiConfig, LmiController, OnChipMemory, OnChipMemoryConfig};
use mpsoc_protocol::{
    AddressRange, DataWidth, InitiatorId, Interconnect, Packet, ProtocolKind, TlmBus, TlmBusConfig,
};
use mpsoc_stbus::{StbusNode, StbusNodeConfig};
use mpsoc_traffic::{DspConfig, DspCore, IpTrafficGenerator, IptgConfig};

/// Which interconnect model a bus is built from.
#[derive(Debug, Clone, Copy)]
pub enum BusSpec {
    /// An STBus node.
    Stbus(StbusNodeConfig),
    /// An AMBA AHB shared bus.
    Ahb(AhbBusConfig),
    /// An AMBA AXI interconnect.
    Axi(AxiInterconnectConfig),
    /// A transaction-level transport (fast, contention-free); the
    /// [`DataWidth`] is carried alongside because the TLM bus itself is
    /// width-agnostic.
    Tlm(TlmBusConfig, DataWidth),
}

impl BusSpec {
    /// The bus data width.
    pub fn width(&self) -> DataWidth {
        match self {
            BusSpec::Stbus(c) => c.width,
            BusSpec::Ahb(c) => c.width,
            BusSpec::Axi(c) => c.width,
            BusSpec::Tlm(_, width) => *width,
        }
    }

    /// The protocol this spec models.
    pub fn protocol(&self) -> ProtocolKind {
        match self {
            BusSpec::Stbus(c) => c.protocol,
            BusSpec::Ahb(_) => ProtocolKind::Ahb,
            BusSpec::Axi(_) => ProtocolKind::Axi,
            // The TLM transport behaves like an idealised split protocol.
            BusSpec::Tlm(..) => ProtocolKind::StbusT3,
        }
    }
}

/// Handle to a bus registered with the builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusHandle(usize);

struct BusSlot {
    bus: Box<dyn Interconnect>,
    clock: ClockDomain,
    width: DataWidth,
    name: String,
}

/// Incremental constructor for a complete platform simulation.
///
/// The builder owns the link-capacity conventions of the workspace:
///
/// * initiator request links (the master's posting/issue FIFO) default to a
///   capacity of 2;
/// * target request links model the target-side *prefetch FIFO*; their
///   depth is a per-target argument (1 = the blocking single-slot interface
///   of the paper's simple memory);
/// * bridge-internal FIFO depths come from the [`BridgeConfig`].
///
/// See [`build_platform`](crate::build_platform) for the pre-assembled
/// reference platform.
pub struct PlatformBuilder {
    sim: Simulation<Packet>,
    buses: Vec<BusSlot>,
    next_initiator: u16,
    generator_names: Vec<String>,
    lmi_names: Vec<String>,
    expected_transactions: u64,
}

impl PlatformBuilder {
    /// Creates a builder whose simulation RNG is seeded with `seed` and
    /// which executes in `exec` — the one place a platform's [`ExecMode`]
    /// is applied ([`Simulation::set_exec`]).
    pub fn new(seed: u64, exec: ExecMode) -> Self {
        let mut sim = Simulation::with_seed(seed);
        sim.set_exec(exec);
        PlatformBuilder {
            sim,
            buses: Vec::new(),
            next_initiator: 0,
            generator_names: Vec::new(),
            lmi_names: Vec::new(),
            expected_transactions: 0,
        }
    }

    /// Allocates a platform-unique initiator id.
    pub fn alloc_initiator(&mut self) -> InitiatorId {
        let id = InitiatorId::new(self.next_initiator);
        self.next_initiator += 1;
        id
    }

    /// Registers a bus.
    pub fn add_bus(
        &mut self,
        name: impl Into<String>,
        spec: BusSpec,
        clock: ClockDomain,
    ) -> BusHandle {
        let name = name.into();
        let bus: Box<dyn Interconnect> = match spec {
            BusSpec::Stbus(cfg) => Box::new(StbusNode::new(name.clone(), cfg, clock)),
            BusSpec::Ahb(cfg) => Box::new(AhbBus::new(name.clone(), cfg, clock)),
            BusSpec::Axi(cfg) => Box::new(AxiInterconnect::new(name.clone(), cfg, clock)),
            BusSpec::Tlm(cfg, _) => Box::new(TlmBus::new(name.clone(), cfg, clock)),
        };
        self.buses.push(BusSlot {
            bus,
            clock,
            width: spec.width(),
            name,
        });
        BusHandle(self.buses.len() - 1)
    }

    /// The clock of a bus.
    pub fn bus_clock(&self, bus: BusHandle) -> ClockDomain {
        self.buses[bus.0].clock
    }

    /// Creates the `{name}.req` / `{name}.resp` links on `clock`, `(req,
    /// resp)` deep.
    fn wire_pair(
        &mut self,
        name: &str,
        (req, resp): (usize, usize),
        clock: ClockDomain,
    ) -> (LinkId, LinkId) {
        let links = self.sim.links_mut();
        (
            links.add_link(format!("{name}.req"), req, clock.period()),
            links.add_link(format!("{name}.resp"), resp, clock.period()),
        )
    }

    /// Creates the link pair for attaching an initiator to `bus` and
    /// registers the port. Returns `(req, resp)` for the initiator
    /// component to use.
    pub fn initiator_port(
        &mut self,
        bus: BusHandle,
        name: &str,
        issue_fifo: usize,
    ) -> (LinkId, LinkId) {
        let depth = issue_fifo.max(1);
        let (req, resp) = self.wire_pair(name, (depth, depth), self.buses[bus.0].clock);
        self.buses[bus.0].bus.add_initiator(req, resp);
        (req, resp)
    }

    /// Creates the link pair for attaching a target to `bus`, registers the
    /// port and routes `ranges` to it. Returns `(req, resp)` for the target
    /// component to use.
    ///
    /// `prefetch_fifo` is the target-side request FIFO depth; `resp_fifo`
    /// the response-side depth.
    ///
    /// # Errors
    ///
    /// Fails if a route overlaps an existing one.
    pub fn target_port(
        &mut self,
        bus: BusHandle,
        name: &str,
        prefetch_fifo: usize,
        resp_fifo: usize,
        ranges: &[AddressRange],
    ) -> SimResult<(LinkId, LinkId)> {
        let depths = (prefetch_fifo.max(1), resp_fifo.max(1));
        let (req, resp) = self.wire_pair(name, depths, self.buses[bus.0].clock);
        let slot = &mut self.buses[bus.0].bus;
        let idx = slot.add_target(req, resp);
        for range in ranges {
            slot.add_route(*range, idx)
                .map_err(|e| SimError::InvalidConfig {
                    reason: e.to_string(),
                })?;
        }
        Ok((req, resp))
    }

    /// Attaches an on-chip memory on the bus's clock, its request (prefetch)
    /// and response wires `fifo` deep each; depth 1 is a single-slot
    /// (blocking) interface.
    ///
    /// # Errors
    ///
    /// Fails on route overlap.
    pub fn add_on_chip_memory(
        &mut self,
        bus: BusHandle,
        name: &str,
        config: OnChipMemoryConfig,
        fifo: usize,
        range: AddressRange,
    ) -> SimResult<()> {
        let clock = self.buses[bus.0].clock;
        let (req, resp) = self.target_port(bus, name, fifo, fifo, &[range])?;
        self.sim.add_component(
            Box::new(OnChipMemory::new(name, config, clock, req, resp)),
            clock,
        );
        Ok(())
    }

    /// Attaches an LMI controller + DDR SDRAM.
    ///
    /// The LMI runs on its own `clock`; its request wire is capacity 1 (the
    /// interface sampling register — queueing happens in the controller's
    /// own input FIFO) and its response wire is the output FIFO.
    ///
    /// # Errors
    ///
    /// Fails on route overlap.
    pub fn add_lmi(
        &mut self,
        bus: BusHandle,
        name: &str,
        config: LmiConfig,
        clock: ClockDomain,
        range: AddressRange,
    ) -> SimResult<()> {
        let out_fifo = config.output_fifo_depth;
        let (req, resp) = self.target_port(bus, name, 1, out_fifo, &[range])?;
        self.sim.add_component(
            Box::new(LmiController::new(name, config, clock, req, resp)),
            clock,
        );
        self.lmi_names.push(name.to_owned());
        Ok(())
    }

    /// Attaches an LMI controller behind a protocol-conversion bridge — the
    /// arrangement every non-STBus platform needs, since the LMI natively
    /// exposes an STBus interface. A blocking `bridge` here is exactly the
    /// "simple protocol converter unable to perform split transactions"
    /// that cripples the collapsed AXI platform in the paper's Figure 5.
    ///
    /// # Errors
    ///
    /// Fails on route overlap.
    pub fn add_lmi_behind_bridge(
        &mut self,
        bus: BusHandle,
        name: &str,
        config: LmiConfig,
        lmi_clock: ClockDomain,
        bridge: BridgeConfig,
        range: AddressRange,
    ) -> SimResult<()> {
        let bus_clock = self.buses[bus.0].clock;
        let out_fifo = config.output_fifo_depth;
        let (lmi_req, lmi_resp) = self.wire_pair(name, (1, out_fifo), lmi_clock);
        self.sim.add_component(
            Box::new(LmiController::new(
                name, config, lmi_clock, lmi_req, lmi_resp,
            )),
            lmi_clock,
        );
        let a = self.target_port(bus, &format!("{name}.conv.a"), 2, 2, &[range])?;
        self.add_bridge_halves(
            &format!("{name}.conv"),
            bridge,
            (bus_clock, lmi_clock),
            a,
            (lmi_req, lmi_resp),
        );
        self.lmi_names.push(name.to_owned());
        Ok(())
    }

    /// Attaches an IPTG to a bus.
    ///
    /// # Errors
    ///
    /// Fails if the IPTG configuration is invalid.
    pub fn add_iptg(
        &mut self,
        bus: BusHandle,
        name: &str,
        config: IptgConfig,
        issue_fifo: usize,
    ) -> SimResult<()> {
        let clock = self.buses[bus.0].clock;
        self.expected_transactions += config.total_transactions();
        let (req, resp) = self.initiator_port(bus, name, issue_fifo);
        let gen = IpTrafficGenerator::new(name, config, req, resp).map_err(|e| {
            SimError::InvalidConfig {
                reason: e.to_string(),
            }
        })?;
        self.sim.add_component(Box::new(gen), clock);
        self.generator_names.push(name.to_owned());
        Ok(())
    }

    /// Attaches a DSP core running on its own clock, connected through a
    /// converter bridge (frequency and width adaptation) to `bus` — the
    /// ST220 arrangement of the reference platform.
    pub fn add_dsp_with_converter(
        &mut self,
        bus: BusHandle,
        name: &str,
        config: DspConfig,
        dsp_clock: ClockDomain,
        converter: BridgeConfig,
    ) {
        let bus_clock = self.buses[bus.0].clock;
        let bus_width = self.buses[bus.0].width;
        // DSP-side links (its private layer).
        let (d_req, d_resp) = self.wire_pair(name, (2, 2), dsp_clock);
        // Bus-side initiator port.
        let b = self.initiator_port(bus, &format!("{name}.conv"), 2);
        self.add_bridge_halves(
            &format!("{name}.conv"),
            converter.with_out_width(bus_width),
            (dsp_clock, bus_clock),
            (d_req, d_resp),
            b,
        );
        self.sim.add_component(
            Box::new(DspCore::new(name, config, d_req, d_resp)),
            dsp_clock,
        );
        self.generator_names.push(name.to_owned());
    }

    /// Connects `from` to `to` through a bridge: the bridge appears as a
    /// target on `from` (serving `ranges`) and as an initiator on `to`.
    ///
    /// # Errors
    ///
    /// Fails on route overlap.
    pub fn add_bridge(
        &mut self,
        name: &str,
        config: BridgeConfig,
        from: BusHandle,
        to: BusHandle,
        ranges: &[AddressRange],
    ) -> SimResult<()> {
        let src_clock = self.buses[from.0].clock;
        let dst_clock = self.buses[to.0].clock;
        let dst_width = self.buses[to.0].width;
        let src_width = self.buses[from.0].width;
        // The bridge's source-side interface FIFOs scale with its internal
        // buffering: a split-capable GenConv offers deep distributed
        // buffering, a lightweight bridge only a couple of slots.
        let a_depth = config.req_fifo_depth.max(2);
        let a = self.target_port(from, &format!("{name}.a"), a_depth, a_depth, ranges)?;
        let b = self.initiator_port(to, &format!("{name}.b"), 2);
        let config = if src_width != dst_width {
            config.with_out_width(dst_width)
        } else {
            config
        };
        self.add_bridge_halves(name, config, (src_clock, dst_clock), a, b);
        Ok(())
    }

    /// Builds a bridge between a source-side `(req, resp)` pair and a
    /// destination-side one, and registers its target half on the source
    /// clock, then its initiator half on the destination clock.
    fn add_bridge_halves(
        &mut self,
        name: &str,
        config: BridgeConfig,
        (src_clock, dst_clock): (ClockDomain, ClockDomain),
        src: (LinkId, LinkId),
        dst: (LinkId, LinkId),
    ) {
        let halves = Bridge::build(
            name,
            config,
            self.sim.links_mut(),
            src_clock,
            dst_clock,
            src,
            dst,
        );
        self.sim
            .add_component(Box::new(halves.target_side), src_clock);
        self.sim
            .add_component(Box::new(halves.initiator_side), dst_clock);
    }

    /// Adds an arbitrary component (custom initiators/targets).
    pub fn add_component(&mut self, component: Box<dyn Component<Packet>>, clock: ClockDomain) {
        self.sim.add_component(component, clock);
    }

    /// Direct access to the simulation during wiring (links, stats).
    pub fn sim_mut(&mut self) -> &mut Simulation<Packet> {
        &mut self.sim
    }

    /// Finalises the platform: boxes the buses into the simulation.
    pub fn finish(mut self, reference_clock: ClockDomain) -> crate::platforms::Platform {
        let bus_names: Vec<String> = self.buses.iter().map(|s| s.name.clone()).collect();
        for slot in self.buses.drain(..) {
            self.sim.add_component(slot.bus, slot.clock);
        }
        crate::platforms::Platform::from_parts(
            self.sim,
            reference_clock,
            bus_names,
            self.generator_names,
            self.lmi_names,
            self.expected_transactions,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc_kernel::Time;
    use mpsoc_memory::OnChipMemoryConfig;
    use mpsoc_stbus::StbusNodeConfig;
    use mpsoc_traffic::{AddressPattern, AgentConfig, IptgConfig};

    fn stbus_spec() -> BusSpec {
        BusSpec::Stbus(StbusNodeConfig::default())
    }

    #[test]
    fn initiator_ids_are_unique() {
        let mut b = PlatformBuilder::new(0, ExecMode::default());
        let a = b.alloc_initiator();
        let c = b.alloc_initiator();
        assert_ne!(a, c);
    }

    #[test]
    fn bus_spec_exposes_protocol_and_width() {
        let spec = stbus_spec();
        assert!(spec.protocol().is_stbus());
        assert_eq!(spec.width(), DataWidth::BITS64);
        let ahb = BusSpec::Ahb(mpsoc_ahb::AhbBusConfig::default());
        assert_eq!(ahb.protocol(), ProtocolKind::Ahb);
        let axi = BusSpec::Axi(mpsoc_axi::AxiInterconnectConfig::default());
        assert_eq!(axi.protocol(), ProtocolKind::Axi);
    }

    #[test]
    fn overlapping_memory_ranges_are_rejected() {
        let clk = ClockDomain::from_mhz(250);
        let mut b = PlatformBuilder::new(0, ExecMode::default());
        let bus = b.add_bus("n", stbus_spec(), clk);
        b.add_on_chip_memory(
            bus,
            "m0",
            OnChipMemoryConfig::default(),
            1,
            AddressRange::new(0, 0x1000),
        )
        .expect("first range fits");
        let err = b
            .add_on_chip_memory(
                bus,
                "m1",
                OnChipMemoryConfig::default(),
                1,
                AddressRange::new(0x800, 0x2000),
            )
            .expect_err("overlap must fail");
        assert!(err.to_string().contains("overlaps"));
    }

    #[test]
    fn invalid_iptg_config_is_rejected() {
        let clk = ClockDomain::from_mhz(250);
        let mut b = PlatformBuilder::new(0, ExecMode::default());
        let bus = b.add_bus("n", stbus_spec(), clk);
        let initiator = b.alloc_initiator();
        let mut agent =
            AgentConfig::simple("a", AddressPattern::Sequential { base: 0, len: 4096 }, 5);
        agent.start_after = Some((7, 0.5)); // dangling dependency
        let cfg = IptgConfig {
            initiator,
            width: DataWidth::BITS64,
            agents: vec![agent],
            seed: 1,
        };
        let err = b.add_iptg(bus, "bad", cfg, 2).expect_err("must fail");
        assert!(err.to_string().contains("depends on missing agent"));
    }

    #[test]
    fn minimal_hand_built_platform_runs() {
        let clk = ClockDomain::from_mhz(250);
        let mut b = PlatformBuilder::new(3, ExecMode::default());
        let bus = b.add_bus("n", stbus_spec(), clk);
        assert_eq!(b.bus_clock(bus), clk);
        b.add_on_chip_memory(
            bus,
            "mem",
            OnChipMemoryConfig::default(),
            1,
            AddressRange::new(0, 1 << 20),
        )
        .expect("wires");
        let initiator = b.alloc_initiator();
        let cfg = IptgConfig {
            initiator,
            width: DataWidth::BITS64,
            agents: vec![AgentConfig::simple(
                "a",
                AddressPattern::Sequential {
                    base: 0,
                    len: 1 << 16,
                },
                20,
            )],
            seed: 5,
        };
        b.add_iptg(bus, "ip", cfg, 2).expect("wires");
        let mut platform = b.finish(clk);
        assert_eq!(platform.expected_transactions(), 20);
        let report = platform
            .run_with_horizon(Time::from_ms(10))
            .expect("drains");
        assert_eq!(report.injected, 20);
        assert_eq!(report.buses.len(), 1);
        assert_eq!(report.buses[0].name, "n");
    }
}
