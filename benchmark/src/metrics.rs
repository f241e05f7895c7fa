//! The metric names and units — the same tables `BENCHMARK.json` declares
//! (a unit test keeps the two in step).

use std::collections::BTreeMap;

/// End-to-end metrics: every workload reports every one, tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_cycles_per_s", "1/s"),
    ("req_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by the traced run. A workload that does not
/// exercise a layer reports 0 for that layer's metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kernel.run_s", "s"),
    ("kernel.checkpoint_us", "us"),
    ("kernel.restore_us", "us"),
    ("kernel.blob_bytes", "bytes"),
    ("kernel.par_tick_ratio", "ratio"),
    ("stbus.sim_cycles_per_s", "1/s"),
    ("ahb.sim_cycles_per_s", "1/s"),
    ("axi.sim_cycles_per_s", "1/s"),
    ("memory.lmi_sim_cycles_per_s", "1/s"),
    ("bridge.dist_over_coll_host_ratio", "ratio"),
    ("sim.exec_cycles_total", "count"),
    ("sim.transactions_total", "count"),
    ("memory.lmi_row_hit_ratio", "ratio"),
    ("memory.lmi_fifo_full_frac", "ratio"),
    ("stbus.req_utilization", "ratio"),
    ("traffic.mean_latency_ns", "ns"),
    ("core.build_us", "us"),
    ("core.warm_state_ms", "ms"),
    ("core.serve_point_ms", "ms"),
    ("core.cold_point_ms", "ms"),
    ("core.spill_encode_us", "us"),
    ("core.spill_decode_us", "us"),
    ("core.fast_warm_ms", "ms"),
    ("core.fast_warm_ratio", "ratio"),
    ("core.fast_err_permille_q4", "permille"),
    ("core.fast_err_permille_q16", "permille"),
    ("core.fast_err_permille_q64", "permille"),
    ("core.fast_err_permille_max", "permille"),
    ("dse.candidates", "count"),
    ("dse.front_size", "count"),
    ("dse.sim_ticks", "count"),
    ("dse.ms_per_candidate", "ms"),
    ("dse.fanout_ratio", "ratio"),
    ("server.parse_us", "us"),
    ("server.encode_us", "us"),
    ("server.cache_lookup_us", "us"),
    ("server.cache_insert_us", "us"),
    ("server.persist_store_ms", "ms"),
    ("server.persist_load_ms", "ms"),
    ("server.handle_p50_ms", "ms"),
    ("server.transport_p50_us", "us"),
    ("server.first_request_ms", "ms"),
    ("server.fresh_p50_ms", "ms"),
    ("server.revisit_p50_ms", "ms"),
    ("server.latency_p99_ms", "ms"),
    ("server.warm_ups", "count"),
    ("server.mem_hits", "count"),
    ("server.spill_loads", "count"),
    ("server.spill_stores", "count"),
    ("server.evictions", "count"),
    ("server.coalesced", "count"),
    ("server.errors", "count"),
    ("server.mem_hit_ratio", "ratio"),
    ("server.warmups_per_fresh_key", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// Metric values by name. Setting an undeclared name is a bug in the
/// harness, caught at once.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        let (declared, _) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in metrics.rs"));
        self.0.insert(declared, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The values of `table` in table order; `default` fills a metric the
    /// run did not set, `None` makes that an error.
    pub fn in_table(
        &self,
        table: &'static [(&'static str, &'static str)],
        default: Option<f64>,
    ) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
        table
            .iter()
            .map(|&(name, unit)| {
                self.get(name)
                    .or(default)
                    .map(|value| (name, unit, value))
                    .ok_or_else(|| format!("metric {name} was not measured"))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} declared twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key} of BENCHMARK.json vs metrics.rs");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn setting_an_undeclared_metric_panics() {
        Metrics::default().set("made.up", 1.0);
    }
}
