//! FNV-1a-64 digests of simulation outputs, so "the statistics are
//! byte-identical" is one number to compare and to commit.

use mpsoc_platform::RunReport;

/// An incremental FNV-1a-64 hasher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Floats are hashed by bit pattern: equal digests mean bit-identical
    /// statistics, not merely close ones.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Length-prefixed, so adjacent strings cannot run together.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Folds every field of a [`RunReport`] into `h`: execution time, injected
/// count, every bus, LMI and generator row and the raw counter dump.
pub fn run_report(h: &mut Fnv, r: &RunReport) {
    h.u64(r.exec_time_ps);
    h.u64(r.exec_cycles);
    h.u64(r.injected);
    h.u64(r.buses.len() as u64);
    for b in &r.buses {
        h.str(&b.name);
        h.f64(b.request_utilization);
        h.f64(b.response_utilization);
        match b.response_efficiency {
            Some(e) => {
                h.u64(1);
                h.f64(e);
            }
            None => h.u64(0),
        }
    }
    h.u64(r.lmi.len() as u64);
    for l in &r.lmi {
        h.str(&l.name);
        for f in [l.full, l.storing, l.no_request, l.empty] {
            h.f64(f);
        }
        for c in [
            l.row_hits,
            l.row_misses,
            l.merged_txns,
            l.accesses,
            l.refreshes,
        ] {
            h.u64(c);
        }
    }
    h.u64(r.generators.len() as u64);
    for g in &r.generators {
        h.str(&g.name);
        h.u64(g.injected);
        h.u64(g.completed);
        h.f64(g.mean_latency_ns);
        h.u64(g.p95_latency_ns);
        h.u64(g.max_latency_ns);
    }
    h.u64(r.counters.len() as u64);
    for (name, value) in &r.counters {
        h.str(name);
        h.u64(*value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc_platform::{build_single_layer, SingleLayerSpec};

    #[test]
    fn fnv_matches_the_published_test_vectors() {
        let of = |s: &str| {
            let mut h = Fnv::default();
            h.bytes(s.as_bytes());
            h.finish()
        };
        assert_eq!(of(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(of("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(of("foobar"), 0x8594_4171_f739_67e8);
    }

    fn report(seed: u64) -> RunReport {
        let spec = SingleLayerSpec {
            initiators: 2,
            targets: 1,
            seed,
            ..SingleLayerSpec::default()
        };
        build_single_layer(&spec)
            .expect("builds")
            .run()
            .expect("runs")
    }

    fn digest_of(r: &RunReport) -> u64 {
        let mut h = Fnv::default();
        run_report(&mut h, r);
        h.finish()
    }

    #[test]
    fn digest_repeats_for_a_spec_and_moves_with_any_field() {
        let a = report(5);
        assert_eq!(digest_of(&a), digest_of(&report(5)));
        assert_ne!(digest_of(&a), digest_of(&report(6)));

        let mut cycles = a.clone();
        cycles.exec_cycles += 1;
        assert_ne!(digest_of(&a), digest_of(&cycles));

        let mut counter = a.clone();
        *counter.counters.values_mut().next().expect("a counter") += 1;
        assert_ne!(digest_of(&a), digest_of(&counter));

        let mut latency = a.clone();
        latency.generators[0].mean_latency_ns += 1e-9;
        assert_ne!(digest_of(&a), digest_of(&latency));

        let mut bus = a.clone();
        bus.buses[0].request_utilization += 1e-12;
        assert_ne!(digest_of(&a), digest_of(&bus));
    }
}
