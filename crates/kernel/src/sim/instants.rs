//! The distinct edge instants the cycle gear retired since the edge count
//! was last settled, counted in closed form where quiet stretches retired
//! them.
//!
//! Instants walked one at a time are counted as they go, one each. A quiet
//! stretch is not: it advances each bucket's next edge by arithmetic. So at
//! the first stretch after a settle the buckets' next edges are kept as an
//! *anchor*, and when the count is read the instants since the anchor are
//! counted from the next edges alone. A bucket's edges lie on its clock's
//! lattice `phase + k·period`; those it fired since the anchor are the
//! progression from its next edge then up to, not including, its next edge
//! now. Coincident edges of different buckets are one instant, so the
//! instants since the anchor are the union of those progressions. Its size
//! is the inclusion–exclusion sum over every set of buckets whose lattices
//! meet: by the Chinese remainder theorem they meet in one lattice, whose
//! period is the lcm of theirs, and its points inside the range every member
//! of the set has fired are counted by division.
//!
//! The terms depend on the clocks only, so they are built once per bucket
//! set, on the first stretch that needs them. A set with more than
//! [`TERM_CAP`] terms counts its stretches as they go too: by a merge of
//! their buckets' edges.

use crate::clock::ClockDomain;
use crate::time::Time;
use std::sync::OnceLock;

/// The most inclusion–exclusion terms a bucket set is counted with; past
/// it, a stretch's instants are merged when it is retired.
pub(super) const TERM_CAP: usize = 1 << 10;

/// The deepest term under the cap: every subset of a term's set is a term
/// too, so a set of `d` buckets brings `2^d − 1` of them.
const MAX_DEPTH: usize = (TERM_CAP + 1).ilog2() as usize;

/// The instants a simulation's buckets have fired since its edge count was
/// last settled.
#[derive(Default)]
pub(super) struct Instants {
    /// Per bucket: its clock.
    clocks: Vec<ClockDomain>,
    /// The inclusion–exclusion terms of the bucket set, depth first, built
    /// on the first stretch after a bucket joins; `None` past [`TERM_CAP`].
    terms: OnceLock<Option<Vec<Term>>>,
    /// The instants retired since the settle, counted as they went: one per
    /// instant walked and, past the cap, a stretch's by a merge.
    retired: u64,
    /// Once a stretch under the cap was retired since the settle: `retired`
    /// as it began. The closed form counts every instant after it.
    anchored_at: Option<u64>,
    /// Per bucket: its next edge (ps) when that stretch began.
    anchor: Vec<u64>,
    /// Scratch for [`retire_stretch`](Self::retire_stretch) past the cap:
    /// per bucket firing in the stretch, its next edge not yet merged and
    /// its period.
    runs: Vec<(u64, u64)>,
}

/// One set of buckets whose lattices meet, as a node of the depth-first
/// walk over such sets in index order: its parent is the set without its
/// last bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Term {
    /// The set's last bucket.
    bucket: u32,
    /// The number of buckets in the set.
    depth: u32,
    /// The index of the first term past this one's supersets.
    skip: u32,
    /// The set's earliest common instant (ps).
    residue: u64,
    /// The period (ps) of its common instants; `None` when it does not fit
    /// a `u64`, which leaves `residue` the only common instant.
    period: Option<u64>,
}

impl Term {
    /// The common instants of the set in `lo..=hi`.
    fn points_in(&self, (lo, hi): (u64, u64)) -> u64 {
        let first = match self.period {
            _ if lo <= self.residue => self.residue,
            Some(period) => {
                let gap = (lo - self.residue).div_ceil(period);
                match gap
                    .checked_mul(period)
                    .and_then(|g| g.checked_add(self.residue))
                {
                    Some(first) => first,
                    None => return 0,
                }
            }
            None => return 0,
        };
        if first > hi {
            return 0;
        }
        self.period.map_or(1, |period| (hi - first) / period + 1)
    }
}

impl Instants {
    /// A bucket on `clock` joins.
    pub(super) fn add_bucket(&mut self, clock: ClockDomain) {
        self.clocks.push(clock);
        self.anchor.push(0);
        self.terms = OnceLock::new();
    }

    /// Whether the bucket set is past [`TERM_CAP`].
    pub(super) fn capped(&self) -> bool {
        self.terms().is_none()
    }

    fn terms(&self) -> Option<&[Term]> {
        self.terms.get_or_init(|| terms_of(&self.clocks)).as_deref()
    }

    /// `n` instants walked.
    #[inline]
    pub(super) fn walked(&mut self, n: u64) {
        self.retired += n;
    }

    /// A quiet stretch ending at `end` (ps, exclusive) is about to be
    /// retired from `next_edges`: every bucket whose next edge is before
    /// `end` fires in it. Under the cap, the first stretch since the settle
    /// anchors the closed form; past it, the stretch's distinct instants
    /// are merged now.
    pub(super) fn retire_stretch(&mut self, next_edges: &[Time], end: u64) {
        if !self.capped() {
            if self.anchored_at.is_none() {
                self.anchored_at = Some(self.retired);
                for (anchor, next) in self.anchor.iter_mut().zip(next_edges) {
                    *anchor = next.as_ps();
                }
            }
            return;
        }
        self.runs.clear();
        for (clock, next) in self.clocks.iter().zip(next_edges) {
            if next.as_ps() < end {
                self.runs.push((next.as_ps(), clock.period().as_ps()));
            }
        }
        let mut at = self.runs.iter().map(|&(next, _)| next).min();
        while let Some(now) = at {
            self.retired += 1;
            at = None;
            for (next, period) in &mut self.runs {
                if *next == now {
                    *next += *period;
                }
                if *next < end {
                    at = Some(at.map_or(*next, |at: u64| at.min(*next)));
                }
            }
        }
    }

    /// The distinct instants retired since the settle, `next_edges` holding
    /// each bucket's next edge now.
    pub(super) fn count(&self, next_edges: &[Time]) -> u64 {
        let Some(before) = self.anchored_at else {
            return self.retired;
        };
        let terms = self.terms().unwrap_or_default();
        before.wrapping_add(self.sum(terms, next_edges))
    }

    /// Settles: the count starts again from zero.
    pub(super) fn settle(&mut self) {
        self.retired = 0;
        self.anchored_at = None;
    }

    /// The inclusion–exclusion sum. A set whose members share no instant
    /// in range is skipped with all its supersets.
    fn sum(&self, terms: &[Term], next_edges: &[Time]) -> u64 {
        // The range every member of the walk's current set, at each depth,
        // has fired: from the latest first edge to the earliest last one.
        let mut shared = [(0u64, u64::MAX); MAX_DEPTH + 1];
        let mut total = 0u64;
        let mut i = 0;
        while let Some(term) = terms.get(i) {
            let (b, depth) = (term.bucket as usize, term.depth as usize);
            let (first, next) = (self.anchor[b], next_edges[b].as_ps());
            let instants = if next > first {
                let (lo, hi) = shared[depth - 1];
                let last = next - self.clocks[b].period().as_ps();
                shared[depth] = (lo.max(first), hi.min(last));
                term.points_in(shared[depth])
            } else {
                0
            };
            if instants == 0 {
                i = term.skip as usize;
                continue;
            }
            total = if depth % 2 == 1 {
                total.wrapping_add(instants)
            } else {
                total.wrapping_sub(instants)
            };
            i += 1;
        }
        total
    }
}

/// The terms of a bucket set, depth first, or `None` past [`TERM_CAP`].
fn terms_of(clocks: &[ClockDomain]) -> Option<Vec<Term>> {
    let mut terms = Vec::new();
    extend(&mut terms, clocks, 0, None).then_some(terms)
}

/// Appends, depth first, a term for every bucket from `from` on whose
/// lattice meets `parent`'s — the depth, earliest common instant and period
/// of the set it extends; every bucket meets the empty set at the root —
/// each followed by the terms of its supersets. `false` once the cap is
/// passed.
fn extend(
    terms: &mut Vec<Term>,
    clocks: &[ClockDomain],
    from: usize,
    parent: Option<(u32, u64, Option<u64>)>,
) -> bool {
    for (b, clock) in clocks.iter().enumerate().skip(from) {
        let lattice = (clock.phase().as_ps(), clock.period().as_ps());
        let (depth, common) = match parent {
            None => (1, Some((lattice.0, Some(lattice.1)))),
            Some((depth, residue, period)) => (depth + 1, meet((residue, period), lattice)),
        };
        let Some((residue, period)) = common else {
            continue;
        };
        if terms.len() == TERM_CAP {
            return false;
        }
        let at = terms.len();
        terms.push(Term {
            bucket: b as u32,
            depth,
            skip: 0,
            residue,
            period,
        });
        if !extend(terms, clocks, b + 1, Some((depth, residue, period))) {
            return false;
        }
        terms[at].skip = terms.len() as u32;
    }
    true
}

/// The instants `x ≡ r1 (mod p1)` — just `r1` when `p1` is `None` — that
/// also lie on the lattice `x ≡ r2 (mod p2)`, `r2 < p2`: their earliest one
/// and period, or `None` when no `u64` instant is on both.
fn meet((r1, p1): (u64, Option<u64>), (r2, p2): (u64, u64)) -> Option<(u64, Option<u64>)> {
    let Some(p1) = p1 else {
        return (r1 % p2 == r2).then_some((r1, None));
    };
    let (r1, p1, r2, p2) = (
        u128::from(r1),
        u128::from(p1),
        u128::from(r2),
        u128::from(p2),
    );
    let g = gcd(p1, p2);
    // `r1 + p1·k` is on both for `p1·k ≡ r2 − r1 (mod p2)`.
    let diff = (r2 + p2 - r1 % p2) % p2;
    if diff % g != 0 {
        return None;
    }
    let m = p2 / g;
    let k = diff / g * inverse(p1 / g % m, m) % m;
    let earliest = u64::try_from(r1 + p1 * k).ok()?;
    Some((earliest, u64::try_from(p1 * m).ok()))
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The inverse of `a` modulo `m`, the two coprime (0 for `m = 1`).
fn inverse(a: u128, m: u128) -> u128 {
    let (mut r0, mut r1) = (a as i128, m as i128);
    let (mut s0, mut s1) = (1i128, 0i128);
    while r1 != 0 {
        let q = r0 / r1;
        (r0, r1) = (r1, r0 - q * r1);
        (s0, s1) = (s1, s0 - q * s1);
    }
    s0.rem_euclid(m as i128) as u128
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Buckets on `clocks`, and their next edges: the first at or after
    /// `at`.
    fn instants_of(clocks: &[ClockDomain], at: Time) -> (Instants, Vec<u64>) {
        let mut instants = Instants::default();
        for clock in clocks {
            instants.add_bucket(*clock);
        }
        let next = clocks
            .iter()
            .map(|clock| clock.next_edge_at_or_after(at).as_ps())
            .collect();
        (instants, next)
    }

    fn times(ps: &[u64]) -> Vec<Time> {
        ps.iter().map(|&ps| Time::from_ps(ps)).collect()
    }

    /// Fires `count[b]` edges of each bucket from `next` after a stretch
    /// began there, and returns the next edges after them, with the
    /// distinct instants a brute-force set sees.
    fn fire(instants: &mut Instants, next: &[u64], count: &[u64]) -> (Vec<Time>, u64) {
        instants.retire_stretch(&times(next), u64::MAX);
        let mut seen = BTreeSet::new();
        let after: Vec<u64> = (0..next.len())
            .map(|b| {
                let period = instants.clocks[b].period().as_ps();
                for k in 0..count[b] {
                    seen.insert(next[b] + k * period);
                }
                next[b] + count[b] * period
            })
            .collect();
        (times(&after), seen.len() as u64)
    }

    /// Random clocks, anchors and edge counts: the closed form and a set of
    /// the instants agree.
    #[test]
    fn the_count_matches_a_brute_force_set() {
        let mut rng = crate::rng::SplitMix64::new(42);
        for case in 0..400 {
            let domains = 1 + rng.range(0, 6) as usize;
            let clocks: Vec<ClockDomain> = (0..domains)
                .map(|_| {
                    let period = Time::from_ps(1_000 * (1 + rng.range(0, 12)));
                    ClockDomain::from_period(period)
                        .with_phase(Time::from_ps(500 * rng.range(0, 8)))
                })
                .collect();
            let (mut instants, next) = instants_of(&clocks, Time::from_ps(rng.range(0, 40_000)));
            assert!(!instants.capped(), "case {case}: capped");
            let count: Vec<u64> = (0..domains).map(|_| rng.range(0, 30)).collect();
            let (after, expected) = fire(&mut instants, &next, &count);
            assert_eq!(instants.count(&after), expected, "case {case}: {clocks:?}");
            instants.settle();
            assert_eq!(instants.count(&after), 0, "case {case}: settled");
        }
    }

    /// Coprime periods whose lcm passes `u64`: a set whose common instants
    /// have no period keeps its single one.
    #[test]
    fn a_common_lattice_past_u64_keeps_its_one_instant() {
        let primes = [4_294_967_291u64, 4_294_967_279, 4_294_967_231];
        let clocks: Vec<ClockDomain> = primes
            .iter()
            .map(|&p| ClockDomain::from_period(Time::from_ps(p)))
            .collect();
        let terms = terms_of(&clocks).expect("under the cap");
        // Every set meets at 0; the pairs have a u64 period, the triple not.
        assert_eq!(terms.len(), 7);
        assert!(terms.iter().all(|t| t.residue == 0));
        assert_eq!(terms.iter().filter(|t| t.period.is_none()).count(), 1);
        let (mut instants, next) = instants_of(&clocks, Time::ZERO);
        let (after, expected) = fire(&mut instants, &next, &[3, 2, 2]);
        assert_eq!(expected, 5);
        assert_eq!(instants.count(&after), expected);
    }

    /// Instants walked before the first stretch are counted as they went,
    /// the rest from the anchor the stretch set.
    #[test]
    fn walked_instants_before_a_stretch_add_to_its_count() {
        let clocks = [ClockDomain::from_mhz(250), ClockDomain::from_mhz(200)];
        let (mut instants, next) = instants_of(&clocks, Time::ZERO);
        for _ in 0..3 {
            instants.walked(1);
        }
        assert_eq!(instants.count(&times(&next)), 3);
        let (after, expected) = fire(&mut instants, &next, &[5, 4]);
        assert_eq!(instants.count(&after), 3 + expected);
    }

    /// The 45 phase-shifted clocks of `kernel_hotpath` pass the cap: their
    /// instants are counted as they are retired — walked one by one, or a
    /// stretch merged — and match a set of them.
    #[test]
    fn a_set_past_the_cap_counts_as_it_retires() {
        let mut clocks = Vec::new();
        for mhz in [400u64, 200, 133, 100, 66, 50, 33, 25] {
            for phase_ns in [0u64, 1, 3, 7, 13, 29] {
                let clock = ClockDomain::from_mhz(mhz).with_phase(Time::from_ns(phase_ns));
                if !clocks.contains(&clock) {
                    clocks.push(clock);
                }
            }
        }
        assert_eq!(clocks.len(), 45);
        let (mut instants, mut next) = instants_of(&clocks, Time::from_ns(3));
        assert!(instants.capped());
        let period = |b: usize| clocks[b].period().as_ps();
        let mut seen = BTreeSet::new();
        for _ in 0..20 {
            for _ in 0..50 {
                let now = *next.iter().min().expect("buckets");
                seen.insert(now);
                for (b, next) in next.iter_mut().enumerate() {
                    if *next == now {
                        *next += period(b);
                    }
                }
                instants.walked(1);
            }
            let end = next.iter().min().expect("buckets") + 20_000;
            instants.retire_stretch(&times(&next), end);
            for (b, next) in next.iter_mut().enumerate() {
                while *next < end {
                    seen.insert(*next);
                    *next += period(b);
                }
            }
        }
        assert_eq!(instants.count(&times(&next)), seen.len() as u64);
        // Under the cap, the closed form counts the first ten clocks.
        let (mut few, next) = instants_of(&clocks[..10], Time::from_ns(3));
        assert!(!few.capped());
        let count: Vec<u64> = (0..10).map(|b| 5 + b % 7).collect();
        let (after, expected) = fire(&mut few, &next, &count);
        assert_eq!(few.count(&after), expected);
    }

    #[test]
    fn walked_instants_alone_build_no_terms() {
        let clocks = [ClockDomain::from_mhz(250), ClockDomain::from_mhz(200)];
        let (mut instants, next) = instants_of(&clocks, Time::ZERO);
        instants.walked(1);
        assert_eq!(instants.count(&times(&next)), 1);
        assert!(instants.terms.get().is_none());
    }
}
