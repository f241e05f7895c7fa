//! `cycle_saturated` and `cycle_platform`: cycle-accurate, serial,
//! in-process — the same kernel used in two opposite ways.
//!
//! * Saturated single-layer platforms keep nearly every component busy on
//!   nearly every edge, so component `tick` bodies and link delivery do the
//!   work and the sparse scheduler has little to skip.
//! * The full multi-clock platforms are idle-heavy (most slots skipped), so
//!   edge selection, the active set and wake-on-delivery dominate, with
//!   bridges, the LMI and the DSP present.
//!
//! A scheduler gain that costs the busy path, or the reverse, shows as a
//! gain on one and a loss on the other.

use crate::digest::{self, Fnv};
use crate::expected::{check_digest, Content};
use crate::metrics::Metrics;
use crate::rng::Rng;
use crate::run::{report_inproc, timed_passes, timed_setup, OpOutput, Outcome, RunArgs};
use crate::stats::median;
use crate::trace::Tracer;
use mpsoc_memory::LmiConfig;
use mpsoc_platform::{
    build_platform, build_single_layer, MemorySystem, Platform, PlatformSpec, RunReport,
    SingleLayerSpec, Topology, Workload,
};
use mpsoc_protocol::ProtocolKind;
use std::time::Instant;

/// Which of the two workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Saturated,
    Platform,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Saturated => "cycle_saturated",
            Kind::Platform => "cycle_platform",
        }
    }
}

/// One platform to build and run to completion.
#[derive(Debug, Clone)]
pub enum Spec {
    Single(SingleLayerSpec),
    Full(Box<PlatformSpec>),
}

/// A named case.
#[derive(Debug, Clone)]
pub struct Case {
    pub label: &'static str,
    pub spec: Spec,
}

impl Case {
    fn build(&self) -> Result<Platform, String> {
        match &self.spec {
            Spec::Single(spec) => build_single_layer(spec),
            Spec::Full(spec) => build_platform(spec),
        }
        .map_err(|e| format!("{}: build: {e}", self.label))
    }
}

/// The cases of a workload for a seed: the shape is fixed, every
/// simulation seed is drawn from `--seed`.
pub fn cases(kind: Kind, seed: u64, quick: bool) -> Vec<Case> {
    let mut rng = Rng::new(seed, kind as u64);
    match kind {
        Kind::Saturated => {
            let scale = if quick { 1 } else { 4 };
            [
                ("stbus_t3_12x1", ProtocolKind::StbusT3, 12, 1),
                ("ahb_12x1", ProtocolKind::Ahb, 12, 1),
                ("axi_12x1", ProtocolKind::Axi, 12, 1),
                ("stbus_t2_8x4", ProtocolKind::StbusT2, 8, 4),
                ("axi_8x4", ProtocolKind::Axi, 8, 4),
            ]
            .into_iter()
            .map(|(label, protocol, initiators, targets)| Case {
                label,
                spec: Spec::Single(SingleLayerSpec {
                    protocol,
                    initiators,
                    targets,
                    think_cycles: (0, 2),
                    scale,
                    seed: rng.sim_seed(),
                    ..SingleLayerSpec::default()
                }),
            })
            .collect()
        }
        Kind::Platform => {
            let scale = if quick { 1 } else { 4 };
            let lmi = || MemorySystem::Lmi(LmiConfig::default());
            let on_chip = || MemorySystem::OnChip { wait_states: 1 };
            use ProtocolKind::{Ahb, Axi, StbusT3};
            use Topology::{Collapsed, Distributed};
            [
                (
                    "stbus_dist_lmi",
                    StbusT3,
                    Distributed,
                    lmi(),
                    Workload::TwoPhase,
                ),
                ("axi_dist_lmi", Axi, Distributed, lmi(), Workload::TwoPhase),
                ("ahb_coll_lmi", Ahb, Collapsed, lmi(), Workload::Standard),
                (
                    "stbus_coll_onchip",
                    StbusT3,
                    Collapsed,
                    on_chip(),
                    Workload::BurstyPosted,
                ),
                (
                    "stbus_dist_onchip",
                    StbusT3,
                    Distributed,
                    on_chip(),
                    Workload::BurstyPosted,
                ),
            ]
            .into_iter()
            .map(|(label, protocol, topology, memory, workload)| Case {
                label,
                spec: Spec::Full(Box::new(PlatformSpec {
                    protocol,
                    topology,
                    memory,
                    workload,
                    scale,
                    seed: rng.sim_seed(),
                    ..PlatformSpec::default()
                })),
            })
            .collect()
        }
    }
}

/// Builds and runs one case, spans around both calls.
fn run_case(case: &Case, op_id: u64, tracer: &mut Tracer) -> Result<RunReport, String> {
    let open = tracer.begin("core.build", op_id);
    let platform = case.build();
    tracer.end(open);
    let mut platform = platform?;
    let open = tracer.begin("kernel.run", op_id);
    let report = platform.run();
    tracer.end(open);
    report.map_err(|e| format!("{}: run: {e}", case.label))
}

fn output_of(report: &RunReport) -> OpOutput {
    let mut h = Fnv::default();
    digest::run_report(&mut h, report);
    OpOutput {
        sim_cycles: report.exec_cycles,
        digest: h.finish(),
    }
}

/// Runs the workload.
pub fn run(kind: Kind, args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(Instant::now(), false);

    // Set-up: generate the specs and run the untimed pass whose reports
    // every timed pass must reproduce.
    let ((cases, reports), setup_s) = timed_setup(args, || {
        let cases = cases(kind, args.seed, args.quick);
        let reports = cases
            .iter()
            .map(|case| run_case(case, 0, &mut Tracer::new(Instant::now(), false)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((cases, reports))
    })?;
    let reference: Vec<OpOutput> = reports.iter().map(output_of).collect();

    let log = timed_passes(
        args,
        &mut out,
        &mut tracer,
        &reference,
        |index, op_id, tracer| run_case(&cases[index], op_id, tracer).map(|r| output_of(&r)),
    );
    check_digest(
        args,
        kind.name(),
        Content::FollowsSeed,
        log.digest,
        &mut out,
    );
    out.note(format!(
        "{} passes of {} cases, {} simulated cycles per pass",
        log.passes[0] + log.passes[1],
        log.ops,
        log.sim_cycles
    ));

    if args.trace {
        layer_metrics(kind, &cases, &reports, &tracer, &mut out.metrics);
    }
    report_inproc(args, kind.name(), &log, setup_s, &tracer, &mut out)?;
    Ok(out)
}

fn layer_metrics(
    kind: Kind,
    cases: &[Case],
    reports: &[RunReport],
    tracer: &Tracer,
    m: &mut Metrics,
) {
    let run_s = tracer.quiet_s_by_case("kernel.run", cases.len());
    let build_s = tracer.quiet_s_by_case("core.build", cases.len());
    // Simulated cycles per host second inside `Platform::run`, over the
    // cases whose label passes `pick`.
    let rate = |pick: &dyn Fn(&str) -> bool| {
        let (cycles, secs) = cases
            .iter()
            .zip(reports)
            .zip(&run_s)
            .filter(|((case, _), _)| pick(case.label))
            .fold((0u64, 0.0), |(c, s), ((_, report), run)| {
                (c + report.exec_cycles, s + run)
            });
        if secs > 0.0 {
            cycles as f64 / secs
        } else {
            0.0
        }
    };
    m.set("kernel.run_s", run_s.iter().sum());
    m.set("core.build_us", median(&build_s) * 1e6);
    m.set(
        "sim.exec_cycles_total",
        reports.iter().map(|r| r.exec_cycles).sum::<u64>() as f64,
    );
    m.set(
        "sim.transactions_total",
        reports.iter().map(|r| r.injected).sum::<u64>() as f64,
    );
    match kind {
        Kind::Saturated => {
            m.set("stbus.sim_cycles_per_s", rate(&|l| l.starts_with("stbus")));
            m.set("ahb.sim_cycles_per_s", rate(&|l| l.starts_with("ahb")));
            m.set("axi.sim_cycles_per_s", rate(&|l| l.starts_with("axi")));
        }
        Kind::Platform => {
            m.set(
                "memory.lmi_sim_cycles_per_s",
                rate(&|l| l.ends_with("_lmi")),
            );
            let host = |label: &str| {
                cases
                    .iter()
                    .position(|c| c.label == label)
                    .map_or(0.0, |i| run_s[i])
            };
            let coll = host("stbus_coll_onchip");
            if coll > 0.0 {
                m.set(
                    "bridge.dist_over_coll_host_ratio",
                    host("stbus_dist_onchip") / coll,
                );
            }
            modelled_statistics(cases, reports, m);
        }
    }
}

/// Statistics of the modelled hardware (simulated, not host time): they
/// repeat exactly and must not move under a simulator-only change.
fn modelled_statistics(cases: &[Case], reports: &[RunReport], m: &mut Metrics) {
    let lmi: Vec<_> = reports.iter().flat_map(|r| &r.lmi).collect();
    let (hits, misses) = lmi
        .iter()
        .fold((0u64, 0u64), |(h, x), l| (h + l.row_hits, x + l.row_misses));
    if hits + misses > 0 {
        m.set(
            "memory.lmi_row_hit_ratio",
            hits as f64 / (hits + misses) as f64,
        );
    }
    if !lmi.is_empty() {
        m.set(
            "memory.lmi_fifo_full_frac",
            lmi.iter().map(|l| l.full).sum::<f64>() / lmi.len() as f64,
        );
    }
    // Request-channel utilisation over every node of the STBus cases.
    let stbus: Vec<f64> = cases
        .iter()
        .zip(reports)
        .filter(|(case, _)| case.label.starts_with("stbus"))
        .flat_map(|(_, r)| &r.buses)
        .map(|b| b.request_utilization)
        .collect();
    if !stbus.is_empty() {
        m.set(
            "stbus.req_utilization",
            stbus.iter().sum::<f64>() / stbus.len() as f64,
        );
    }
    let (weighted, completed) = reports
        .iter()
        .flat_map(|r| &r.generators)
        .fold((0.0, 0u64), |(w, c), g| {
            (w + g.mean_latency_ns * g.completed as f64, c + g.completed)
        });
    if completed > 0 {
        m.set("traffic.mean_latency_ns", weighted / completed as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeds(cases: &[Case]) -> Vec<u64> {
        cases
            .iter()
            .map(|c| match &c.spec {
                Spec::Single(s) => s.seed,
                Spec::Full(s) => s.seed,
            })
            .collect()
    }

    #[test]
    fn seed_drives_the_specs_but_not_the_shape() {
        for kind in [Kind::Saturated, Kind::Platform] {
            let a = cases(kind, 1, false);
            let b = cases(kind, 1, false);
            let c = cases(kind, 2, false);
            assert_eq!(seeds(&a), seeds(&b), "same seed, same specs");
            assert_ne!(seeds(&a), seeds(&c), "other seed, other specs");
            let labels = |cs: &[Case]| cs.iter().map(|c| c.label).collect::<Vec<_>>();
            assert_eq!(labels(&a), labels(&c), "same shape under any seed");
        }
    }
}
