//! The harness's own seeded stream (SplitMix64): every simulation seed,
//! shuffle and key draw derives from `--seed` through it, so the program
//! under test only ever sees generated inputs.

/// Root of the simulation seeds of the workloads whose simulated content is
/// the same under every `--seed`: the repository's own default seed
/// (`mpsoc_platform::experiments::DEFAULT_SEED`, the FIG-4 reference).
pub const CANONICAL_SEED: u64 = 0x0dab;

/// A SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, lane)`; distinct lanes of one seed are
    /// independent streams (one per connection, one per workload).
    pub fn new(seed: u64, lane: u64) -> Rng {
        let mut rng = Rng(seed ^ lane.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw in `0..n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A simulation seed: 32 bits, so it survives the wire protocol's
    /// integer fields and reads well in warm keys.
    pub fn sim_seed(&mut self) -> u64 {
        self.next_u64() >> 32
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let draw = |seed, lane| {
            let mut r = Rng::new(seed, lane);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 0), draw(7, 0));
        assert_ne!(draw(7, 0), draw(8, 0));
        assert_ne!(draw(7, 0), draw(7, 1));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let shuffled = |seed| {
            let mut v: Vec<u32> = (0..12).collect();
            Rng::new(seed, 0).shuffle(&mut v);
            v
        };
        let a = shuffled(3);
        assert_eq!(a, shuffled(3));
        assert_ne!(a, shuffled(4));
        let mut back = a.clone();
        back.sort_unstable();
        assert_eq!(back, (0..12).collect::<Vec<_>>());
    }
}
