//! The mesh router.

use mpsoc_kernel::{ClockDomain, Component, LinkId, TickContext, Time};
use mpsoc_protocol::{AddressMap, DataWidth, Packet, TransactionId};
use std::collections::HashMap;

/// Configuration shared by every router of a mesh.
#[derive(Debug, Clone, Copy)]
pub struct NocConfig {
    /// Data-path width of the links.
    pub width: DataWidth,
    /// Capacity of each router input FIFO (the inter-router link).
    pub port_fifo_depth: usize,
    /// Pipeline latency of one hop, in router cycles.
    pub hop_cycles: u64,
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig {
            width: DataWidth::BITS64,
            port_fifo_depth: 4,
            hop_cycles: 1,
        }
    }
}

/// Port directions of a mesh router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dir {
    Local = 0,
    North = 1,
    East = 2,
    South = 3,
    West = 4,
}

pub(crate) const ALL_DIRS: [Dir; 5] = [Dir::Local, Dir::North, Dir::East, Dir::South, Dir::West];

mpsoc_kernel::metric_ids! {
    /// The router's counters, kept from `register_metrics`.
    struct Counters {
        forwarded: counter,
    }
}

/// A mesh router with dimension-ordered (XY) routing.
///
/// Requests are routed by address towards the node hosting the target;
/// each router drops a breadcrumb (transaction id → arrival direction) so
/// the response retraces the path without any global initiator table.
/// Posted writes leave no breadcrumbs (no response will come).
///
/// Built by [`Mesh::build`](crate::Mesh::build) — not constructed directly.
#[derive(Debug)]
pub struct Router {
    name: String,
    config: NocConfig,
    clock: ClockDomain,
    coords: (u32, u32),
    /// Input links by direction (`None` at mesh edges / unattached local).
    inputs: [Option<LinkId>; 5],
    /// Output links by direction.
    outputs: [Option<LinkId>; 5],
    /// Address → destination node.
    routes: AddressMap<(u32, u32)>,
    /// Response breadcrumbs: where the request entered this router.
    breadcrumbs: HashMap<TransactionId, Dir>,
    /// Per-output channel occupancy.
    busy: [Time; 5],
    counters: Counters,
}

impl Router {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        name: String,
        config: NocConfig,
        clock: ClockDomain,
        coords: (u32, u32),
        inputs: [Option<LinkId>; 5],
        outputs: [Option<LinkId>; 5],
        routes: AddressMap<(u32, u32)>,
    ) -> Self {
        Router {
            name,
            config,
            clock,
            coords,
            inputs,
            outputs,
            routes,
            breadcrumbs: HashMap::new(),
            busy: [Time::ZERO; 5],
            counters: Counters::default(),
        }
    }

    /// The router's grid coordinates.
    pub fn coords(&self) -> (u32, u32) {
        self.coords
    }

    /// Dimension-ordered routing: X first, then Y, then local.
    fn xy_route(&self, dest: (u32, u32)) -> Dir {
        if dest.0 > self.coords.0 {
            Dir::East
        } else if dest.0 < self.coords.0 {
            Dir::West
        } else if dest.1 > self.coords.1 {
            Dir::North
        } else if dest.1 < self.coords.1 {
            Dir::South
        } else {
            Dir::Local
        }
    }

    fn packet_cycles(packet: &Packet) -> u64 {
        match packet {
            Packet::Request(txn) => txn.request_cycles(),
            Packet::Response(resp) => resp.channel_cycles(),
        }
    }
}

impl mpsoc_kernel::Snapshot for Router {
    fn save(&self, w: &mut mpsoc_kernel::StateWriter) {
        use mpsoc_protocol::persist;
        let mut crumbs: Vec<_> = self.breadcrumbs.iter().collect();
        crumbs.sort_by_key(|(id, _)| **id);
        w.write_usize(crumbs.len());
        for (id, dir) in crumbs {
            persist::save_txn_id(*id, w);
            w.write_u8(*dir as u8);
        }
        for t in self.busy {
            w.write_time(t);
        }
    }

    fn restore(&mut self, r: &mut mpsoc_kernel::StateReader<'_>) {
        use mpsoc_protocol::persist;
        self.breadcrumbs.clear();
        for _ in 0..r.read_usize() {
            let id = persist::load_txn_id(r);
            let dir = ALL_DIRS[(r.read_u8() as usize).min(4)];
            self.breadcrumbs.insert(id, dir);
        }
        for t in self.busy.iter_mut() {
            *t = r.read_time();
        }
    }
}

impl Component<Packet> for Router {
    fn name(&self) -> &str {
        &self.name
    }

    fn register_metrics(&mut self, stats: &mut mpsoc_kernel::StatsRegistry) {
        self.counters = Counters::register(&self.name, stats);
    }

    fn tick(&mut self, ctx: &mut TickContext<'_, Packet>) {
        let now = ctx.time;
        let period = self.clock.period();
        let n = ALL_DIRS.len();
        // Rotating arbitration priority, derived from the router's own
        // cycle count so it advances with wall-clock cycles rather than
        // executed ticks — a sleeping router (sparse ticking) resumes with
        // exactly the priority a dense schedule would have reached.
        let rr = ctx.cycle.count() as usize % n;
        // One forwarding decision per input per cycle; outputs are channel
        // resources that can each accept one packet per cycle.
        let mut granted_outputs = [false; 5];
        for k in 0..n {
            let in_dir = ALL_DIRS[(rr + k) % n];
            let Some(input) = self.inputs[in_dir as usize] else {
                continue;
            };
            let Some(packet) = ctx.links.peek(input, now) else {
                continue;
            };
            let out_dir = match packet {
                Packet::Request(txn) => {
                    let Some(dest) = self.routes.route(txn.addr) else {
                        panic!("{}: no route for address {:#x}", self.name, txn.addr);
                    };
                    self.xy_route(dest)
                }
                Packet::Response(resp) => {
                    *self.breadcrumbs.get(&resp.txn.id).unwrap_or_else(|| {
                        panic!(
                            "{}: response {} without a breadcrumb",
                            self.name, resp.txn.id
                        )
                    })
                }
            };
            let oi = out_dir as usize;
            if granted_outputs[oi] || self.busy[oi] > now {
                continue;
            }
            let Some(output) = self.outputs[oi] else {
                panic!("{}: routing towards a missing {out_dir:?} port", self.name);
            };
            if !ctx.links.can_push(output) {
                continue;
            }
            let packet = ctx.links.pop(input, now).expect("peeked above");
            // Breadcrumb bookkeeping.
            match &packet {
                Packet::Request(txn) => {
                    if !txn.completes_on_acceptance() {
                        self.breadcrumbs.insert(txn.id, in_dir);
                    }
                }
                Packet::Response(resp) => {
                    self.breadcrumbs.remove(&resp.txn.id);
                }
            }
            let cycles = Self::packet_cycles(&packet);
            self.busy[oi] = now + period * cycles;
            granted_outputs[oi] = true;
            let extra = period * (cycles - 1 + self.config.hop_cycles.saturating_sub(1));
            ctx.links
                .push_after(output, now, extra, packet)
                .expect("can_push checked");
            ctx.stats.inc(self.counters.forwarded, 1);
        }
    }

    fn is_idle(&self) -> bool {
        self.breadcrumbs.is_empty()
    }

    fn watched_links(&self) -> Option<Vec<LinkId>> {
        Some(self.inputs.iter().flatten().copied().collect())
    }
    // Purely reactive: a router only acts on deliverable input packets, so
    // wake-on-delivery is the complete wake condition (an input blocked on a
    // busy or full output keeps its payload queued, which keeps the wake
    // due). `next_activity` stays `None`.

    fn fast_forward(&mut self, ctx: &mut mpsoc_kernel::FastCtx<'_, Packet>) {
        while let Some(mut tc) = ctx.next_edge() {
            let now = tc.time;
            self.tick(&mut tc);
            // Queued input packets see no *new* delivery inside the window:
            // bound the sleep by the earliest output-channel busy expiry.
            // Full downstream wires free only across windows.
            let mut wake = u64::MAX;
            for &busy in &self.busy {
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

    #[test]
    fn xy_routing_order() {
        let routes = AddressMap::new();
        let r = Router::new(
            "r".into(),
            NocConfig::default(),
            ClockDomain::from_mhz(500),
            (1, 1),
            [None; 5],
            [None; 5],
            routes,
        );
        assert_eq!(r.xy_route((2, 0)), Dir::East, "X resolves before Y");
        assert_eq!(r.xy_route((0, 2)), Dir::West);
        assert_eq!(r.xy_route((1, 2)), Dir::North);
        assert_eq!(r.xy_route((1, 0)), Dir::South);
        assert_eq!(r.xy_route((1, 1)), Dir::Local);
    }
}
