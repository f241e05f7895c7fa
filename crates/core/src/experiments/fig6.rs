//! FIG-6 — fine-grain statistics at the LMI bus interface.
//!
//! The paper samples the state of the LMI input FIFO over two working
//! regimes of the application: an intense steady phase (FIFO full 47 % of
//! the time, storing 24 %, no incoming requests 29 %, almost never empty)
//! and a burstier, lower-intensity phase (full time unchanged, but the
//! FIFO is empty much more often). Repeating the measurement on the full
//! AHB platform shows the FIFO **never** full and no incoming requests
//! ~98 % of the time — proof that the interconnect, not the controller, is
//! the bottleneck there.

use super::Run;
use crate::platforms::{build_platform, MemorySystem, PlatformSpec, Topology, Workload};
use mpsoc_kernel::{SimError, SimResult, Time};
use mpsoc_memory::LmiConfig;
use mpsoc_protocol::ProtocolKind;
use std::fmt;

/// FIFO-state residency over one phase.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct Fig6Phase {
    /// Phase label.
    pub label: String,
    /// Fraction of the phase the FIFO was full.
    pub full: f64,
    /// Fraction spent storing a new request.
    pub storing: f64,
    /// Fraction with no incoming request.
    pub no_request: f64,
    /// Fraction the FIFO was completely empty.
    pub empty: f64,
}

/// The Figure 6 measurement for one platform.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct Fig6Platform {
    /// Platform label (full STBus / full AHB).
    pub label: String,
    /// Per-phase residencies.
    pub phases: Vec<Fig6Phase>,
}

/// The complete Figure 6 result.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct Fig6 {
    /// STBus and AHB measurements.
    pub platforms: Vec<Fig6Platform>,
}

impl Fig6 {
    /// Lookup by platform label.
    pub fn platform(&self, label: &str) -> Option<&Fig6Platform> {
        self.platforms.iter().find(|p| p.label == label)
    }
}

impl fmt::Display for Fig6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "FIG-6 LMI bus-interface statistics (two working regimes)"
        )?;
        for p in &self.platforms {
            writeln!(f, "{}:", p.label)?;
            writeln!(
                f,
                "  {:<10} {:>7} {:>9} {:>8} {:>7}",
                "phase", "full", "storing", "no-req", "empty"
            )?;
            for ph in &p.phases {
                writeln!(
                    f,
                    "  {:<10} {:>6.1}% {:>8.1}% {:>7.1}% {:>6.1}%",
                    ph.label,
                    ph.full * 100.0,
                    ph.storing * 100.0,
                    ph.no_request * 100.0,
                    ph.empty * 100.0
                )?;
            }
        }
        Ok(())
    }
}

fn frac(deltas: &[Time], idx: usize) -> f64 {
    let total: u64 = deltas.iter().map(|t| t.as_ps()).sum();
    if total == 0 {
        0.0
    } else {
        deltas[idx].as_ps() as f64 / total as f64
    }
}

fn measure(protocol: ProtocolKind, run: Run) -> SimResult<Fig6Platform> {
    let spec = PlatformSpec {
        protocol,
        topology: Topology::Distributed,
        memory: MemorySystem::Lmi(LmiConfig::default()),
        workload: Workload::TwoPhase,
        with_dsp: false,
        ..run.platform_spec()
    };
    let mut platform = build_platform(&spec)?;
    // Phase 1 of the two-phase profile has 90·scale transactions per
    // generator, phase 2 has 20·scale; six generators total.
    let phase1_budget = 6 * 90 * run.scale;
    let injected_ids: Vec<_> = (0..6)
        .filter_map(|i| {
            let stats = platform.sim().stats();
            stats.find_counter(&format!("stream{i}.injected"))
        })
        .collect();

    // Step until the aggregate injection count crosses the phase boundary.
    let horizon = Time::from_ms(60);
    loop {
        let stats = platform.sim().stats();
        let injected: u64 = injected_ids.iter().map(|&id| stats.counter_value(id)).sum();
        if injected >= phase1_budget {
            break;
        }
        if platform.sim_mut().step().is_none() || platform.sim().time() > horizon {
            return Err(SimError::Stalled {
                at: platform.sim().time(),
                busy: vec!["fig6 phase-1 boundary never reached".into()],
            });
        }
    }
    let t1 = platform.sim().time();
    let stats = platform.sim().stats();
    let iface1 = stats
        .residency_by_name("lmi.iface")
        .expect("lmi registered")
        .totals(t1);
    let empty1 = stats
        .residency_by_name("lmi.empty")
        .expect("lmi registered")
        .totals(t1);

    // Run the remaining (bursty) phase to completion.
    let end = platform.sim_mut().run_to_quiescence_strict(horizon)?;
    let stats = platform.sim().stats();
    let iface2 = stats
        .residency_by_name("lmi.iface")
        .expect("lmi registered")
        .totals(end);
    let empty2 = stats
        .residency_by_name("lmi.empty")
        .expect("lmi registered")
        .totals(end);

    let diff = |a: &[Time], b: &[Time]| -> Vec<Time> {
        b.iter().zip(a).map(|(x, y)| x.saturating_sub(*y)).collect()
    };
    let iface_d = diff(&iface1, &iface2);
    let empty_d = diff(&empty1, &empty2);

    // State order in the LMI residency: no_request, storing, full.
    let phase = |label: &str, iface: &[Time], empty: &[Time]| Fig6Phase {
        label: label.to_owned(),
        no_request: frac(iface, 0),
        storing: frac(iface, 1),
        full: frac(iface, 2),
        empty: frac(empty, 0),
    };
    Ok(Fig6Platform {
        label: format!("full {}", if protocol.is_stbus() { "STBus" } else { "AHB" }),
        phases: vec![
            phase("intense", &iface1, &empty1),
            phase("bursty", &iface_d, &empty_d),
        ],
    })
}

/// Runs Figure 6 for the full STBus and full AHB platforms.
///
/// # Errors
///
/// Fails if a platform stalls or the phase boundary is never reached.
pub fn fig6(run: Run) -> SimResult<Fig6> {
    Ok(Fig6 {
        platforms: vec![
            measure(ProtocolKind::StbusT3, run)?,
            measure(ProtocolKind::Ahb, run)?,
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stbus_phases_show_the_papers_signature() {
        let fig = fig6(Run::new(2, 0x0dab)).expect("runs");
        let stbus = fig.platform("full STBus").expect("measured");
        let intense = &stbus.phases[0];
        let bursty = &stbus.phases[1];
        // The intense phase keeps the FIFO meaningfully full and rarely
        // empty; the bursty phase is empty far more often.
        assert!(
            intense.full > 0.10,
            "intense phase should fill the FIFO, full={}",
            intense.full
        );
        assert!(
            bursty.empty > intense.empty + 0.02 && bursty.empty > 3.0 * intense.empty,
            "bursty phase must be empty much more: {} vs {}",
            bursty.empty,
            intense.empty
        );
    }

    #[test]
    fn ahb_interconnect_is_the_bottleneck() {
        let fig = fig6(Run::new(2, 0x0dab)).expect("runs");
        let ahb = fig.platform("full AHB").expect("measured");
        for phase in &ahb.phases {
            assert!(
                phase.full < 0.02,
                "AHB can never fill the FIFO, full={}",
                phase.full
            );
        }
        let intense = &ahb.phases[0];
        assert!(
            intense.no_request > 0.8,
            "AHB starves the controller, no_request={}",
            intense.no_request
        );
    }
}
