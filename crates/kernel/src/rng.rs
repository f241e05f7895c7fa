//! Deterministic pseudo-random number generation.
//!
//! The kernel ships its own tiny generator rather than pulling a full RNG
//! crate into every component model: simulation results must be reproducible
//! bit-for-bit across runs and across dependency upgrades, and SplitMix64 is
//! a well-known, fully specified generator with excellent statistical
//! behaviour for non-cryptographic workloads such as traffic generation.

/// A [SplitMix64](https://prng.di.unimi.it/splitmix64.c) pseudo-random
/// number generator.
///
/// # Examples
///
/// ```
/// use mpsoc_kernel::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// let x = a.range(10, 20);
/// assert!((10..20).contains(&x));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derives an independent child generator; useful for giving each
    /// traffic agent its own stream while keeping global determinism.
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64() ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// Current internal state, for checkpointing.
    ///
    /// `SplitMix64::new(rng.state())` reconstructs a generator that
    /// continues the stream exactly where this one left off.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// Geometric-like number of extra items with continuation probability
    /// `p`, capped at `max`; used for bursty arrival modelling.
    pub fn geometric(&mut self, p: f64, max: u64) -> u64 {
        let mut n = 0;
        while n < max && self.chance(p) {
            n += 1;
        }
        n
    }

    /// Picks a uniformly random index into a slice of weights, with
    /// probability proportional to the weight.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted_index(&mut self, weights: &[u64]) -> usize {
        let total: u64 = weights.iter().sum();
        assert!(total > 0, "weights must not all be zero");
        let mut pick = self.range(0, total);
        for (i, w) in weights.iter().enumerate() {
            if pick < *w {
                return i;
            }
            pick -= w;
        }
        unreachable!("pick < total by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_stream_values() {
        // Reference values from the canonical splitmix64.c with seed 0.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::new(123);
        let mut b = SplitMix64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_independent_but_deterministic() {
        let mut parent1 = SplitMix64::new(9);
        let mut parent2 = SplitMix64::new(9);
        let mut c1 = parent1.fork();
        let mut c2 = parent2.fork();
        assert_eq!(c1.next_u64(), c2.next_u64());
        assert_ne!(SplitMix64::new(9).next_u64(), c1.next_u64());
    }

    #[test]
    fn range_stays_in_bounds() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..1000 {
            let v = rng.range(5, 8);
            assert!((5..8).contains(&v));
        }
    }

    #[test]
    fn unit_stays_in_unit_interval() {
        let mut rng = SplitMix64::new(11);
        for _ in 0..1000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SplitMix64::new(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn geometric_capped() {
        let mut rng = SplitMix64::new(5);
        for _ in 0..100 {
            assert!(rng.geometric(0.9, 4) <= 4);
            assert_eq!(rng.geometric(0.0, 10), 0);
        }
    }

    #[test]
    fn weighted_index_respects_zero_weights() {
        let mut rng = SplitMix64::new(17);
        for _ in 0..200 {
            let i = rng.weighted_index(&[0, 3, 0, 2]);
            assert!(i == 1 || i == 3);
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        SplitMix64::new(0).range(4, 4);
    }

    #[test]
    fn state_round_trips_mid_stream() {
        let mut a = SplitMix64::new(0x5eed);
        for _ in 0..13 {
            a.next_u64();
        }
        let mut b = SplitMix64::new(a.state());
        for _ in 0..50 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
