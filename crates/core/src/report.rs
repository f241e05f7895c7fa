//! Run reports: the measurements a platform run produces.

use mpsoc_kernel::stats::StatsReport;
use mpsoc_kernel::Time;
use std::collections::BTreeMap;
use std::fmt;

/// Utilisation of one bus, derived from its busy-time counters.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct BusUtilization {
    /// Bus name.
    pub name: String,
    /// Fraction of the run the request path was busy (STBus request
    /// channel, AXI AW+AR+W aggregate, AHB whole-bus hold time).
    pub request_utilization: f64,
    /// Fraction of the run the response path was busy (0 for AHB, whose
    /// single channel is captured by `request_utilization`).
    pub response_utilization: f64,
    /// Data cycles over busy cycles on the response path — the *efficiency*
    /// of Section 4.1.2 (≈ 0.5 against a 1-wait-state memory). `None` when
    /// the bus does not expose the breakdown.
    pub response_efficiency: Option<f64>,
}

/// Bus-interface statistics of one LMI controller (the paper's Figure 6).
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct LmiInterfaceReport {
    /// Controller name.
    pub name: String,
    /// Fraction of time the input FIFO was full.
    pub full: f64,
    /// Fraction of time a new request was being stored.
    pub storing: f64,
    /// Fraction of time no request was incoming (request = 0, grant = 1).
    pub no_request: f64,
    /// Fraction of time the input FIFO was completely empty.
    pub empty: f64,
    /// Row-buffer hits of the SDRAM behind the controller.
    pub row_hits: u64,
    /// Row-buffer misses.
    pub row_misses: u64,
    /// Transactions absorbed by opcode merging.
    pub merged_txns: u64,
    /// SDRAM accesses issued.
    pub accesses: u64,
    /// Auto-refreshes performed.
    pub refreshes: u64,
}

/// Per-generator latency summary.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct GeneratorLatency {
    /// Generator name.
    pub name: String,
    /// Transactions injected.
    pub injected: u64,
    /// Transactions completed (posted writes complete at injection and are
    /// counted there, not here).
    pub completed: u64,
    /// Mean end-to-end latency in nanoseconds.
    pub mean_latency_ns: f64,
    /// Approximate 95th-percentile latency in nanoseconds.
    pub p95_latency_ns: u64,
    /// Maximum end-to-end latency in nanoseconds.
    pub max_latency_ns: u64,
}

/// Everything measured by one platform run.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct RunReport {
    /// Execution time (workload injection to full drain) in picoseconds.
    pub exec_time_ps: u64,
    /// Execution time in cycles of the platform's reference clock.
    pub exec_cycles: u64,
    /// Total transactions injected by all traffic generators.
    pub injected: u64,
    /// Per-bus utilisation.
    pub buses: Vec<BusUtilization>,
    /// Per-LMI interface statistics (empty for on-chip-memory platforms).
    pub lmi: Vec<LmiInterfaceReport>,
    /// Per-generator latency summaries.
    pub generators: Vec<GeneratorLatency>,
    /// Raw counter dump for ad-hoc analysis.
    pub counters: BTreeMap<String, u64>,
}

/// An execution time in cycles of a reference clock of period `ref_period`:
/// [`RunReport::exec_cycles`].
pub(crate) fn exec_cycles(exec_time: Time, ref_period: Time) -> u64 {
    exec_time.as_ps() / ref_period.as_ps().max(1)
}

impl RunReport {
    /// Execution time as kernel [`Time`].
    pub fn exec_time(&self) -> Time {
        Time::from_ps(self.exec_time_ps)
    }

    /// Execution time normalised against a baseline report.
    pub fn normalized_to(&self, baseline: &RunReport) -> f64 {
        self.exec_time_ps as f64 / baseline.exec_time_ps as f64
    }

    /// Builds a report from the final statistics snapshot.
    pub(crate) fn from_stats(
        exec_time: Time,
        ref_period: Time,
        stats: &StatsReport,
        bus_names: &[String],
        generator_names: &[String],
        lmi_names: &[String],
    ) -> RunReport {
        let elapsed = exec_time.as_ps().max(1) as f64;
        let counter = |name: &str| stats.counters.get(name).copied().unwrap_or(0);

        let buses = bus_names
            .iter()
            .map(|name| {
                // STBus counters, AXI counters or the AHB aggregate — take
                // whichever exist.
                let req_ps = counter(&format!("{name}.req_busy_ps"))
                    + counter(&format!("{name}.busy_ps"))
                    + counter(&format!("{name}.w_busy_ps"));
                let resp_busy = counter(&format!("{name}.resp_busy_ps"))
                    + counter(&format!("{name}.r_busy_ps"));
                let resp_data = counter(&format!("{name}.resp_data_ps"));
                BusUtilization {
                    name: name.clone(),
                    request_utilization: req_ps as f64 / elapsed,
                    response_utilization: resp_busy as f64 / elapsed,
                    response_efficiency: (resp_data > 0 && resp_busy > 0)
                        .then(|| resp_data as f64 / resp_busy as f64),
                }
            })
            .collect();

        let lmi = lmi_names
            .iter()
            .map(|name| {
                let res = stats
                    .residencies
                    .get(&format!("{name}.iface"))
                    .cloned()
                    .unwrap_or_default();
                let frac = |state: &str| {
                    res.iter()
                        .find(|(s, _)| s == state)
                        .map_or(0.0, |(_, f)| *f)
                };
                let empty = stats
                    .residencies
                    .get(&format!("{name}.empty"))
                    .and_then(|r| r.iter().find(|(s, _)| s == "empty").map(|(_, f)| *f))
                    .unwrap_or(0.0);
                LmiInterfaceReport {
                    name: name.clone(),
                    full: frac("full"),
                    storing: frac("storing"),
                    no_request: frac("no_request"),
                    empty,
                    row_hits: counter(&format!("{name}.row_hits")),
                    row_misses: counter(&format!("{name}.row_misses")),
                    merged_txns: counter(&format!("{name}.merged_txns")),
                    accesses: counter(&format!("{name}.accesses")),
                    refreshes: counter(&format!("{name}.refreshes")),
                }
            })
            .collect();

        let generators = generator_names
            .iter()
            .map(|name| {
                let hist = stats.histograms.get(&format!("{name}.latency_ns"));
                GeneratorLatency {
                    name: name.clone(),
                    injected: counter(&format!("{name}.injected")),
                    completed: counter(&format!("{name}.completed")),
                    mean_latency_ns: hist.map_or(0.0, |h| h.mean()),
                    p95_latency_ns: hist.and_then(|h| h.percentile(0.95)).unwrap_or(0),
                    max_latency_ns: hist.and_then(|h| h.max()).unwrap_or(0),
                }
            })
            .collect();

        let injected = generator_names
            .iter()
            .map(|name| counter(&format!("{name}.injected")))
            .sum();

        RunReport {
            exec_time_ps: exec_time.as_ps(),
            exec_cycles: exec_cycles(exec_time, ref_period),
            injected,
            buses,
            lmi,
            generators,
            counters: stats
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
        }
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "execution time: {} ({} ref cycles), {} transactions",
            Time::from_ps(self.exec_time_ps),
            self.exec_cycles,
            self.injected
        )?;
        for b in &self.buses {
            write!(
                f,
                "  bus {:<12} req {:>5.1}%  resp {:>5.1}%",
                b.name,
                b.request_utilization * 100.0,
                b.response_utilization * 100.0
            )?;
            if let Some(e) = b.response_efficiency {
                write!(f, "  efficiency {:>5.1}%", e * 100.0)?;
            }
            writeln!(f)?;
        }
        for l in &self.lmi {
            writeln!(
                f,
                "  lmi {:<12} full {:>5.1}%  storing {:>5.1}%  no-req {:>5.1}%  empty {:>5.1}%  \
                 hits/misses {}/{}  merged {}  accesses {}",
                l.name,
                l.full * 100.0,
                l.storing * 100.0,
                l.no_request * 100.0,
                l.empty * 100.0,
                l.row_hits,
                l.row_misses,
                l.merged_txns,
                l.accesses
            )?;
        }
        for g in &self.generators {
            writeln!(
                f,
                "  gen {:<12} injected {:>6}  completed {:>6}  latency mean {:>8.1} ns  p95 {:>6} ns  max {:>6} ns",
                g.name, g.injected, g.completed, g.mean_latency_ns, g.p95_latency_ns, g.max_latency_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_is_a_ratio() {
        let mk = |ps: u64| RunReport {
            exec_time_ps: ps,
            exec_cycles: 0,
            injected: 0,
            buses: vec![],
            lmi: vec![],
            generators: vec![],
            counters: BTreeMap::new(),
        };
        let a = mk(2_000);
        let b = mk(1_000);
        assert!((a.normalized_to(&b) - 2.0).abs() < 1e-12);
        assert!((b.normalized_to(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn report_builds_from_empty_stats() {
        let stats = StatsReport::default();
        let r = RunReport::from_stats(
            Time::from_us(1),
            Time::from_ns(4),
            &stats,
            &["n8".into()],
            &["video".into()],
            &[],
        );
        assert_eq!(r.exec_cycles, 250);
        assert_eq!(r.buses.len(), 1);
        assert_eq!(r.generators.len(), 1);
        assert_eq!(r.injected, 0);
        let shown = r.to_string();
        assert!(shown.contains("n8"));
    }
}
