//! The search frontier and its checkpoint encoding.
//!
//! The frontier is everything the successive-halving loop needs to
//! continue: the population with scores and aliveness, the warm
//! per-candidate simulation checkpoints, per-rung accounting and the
//! next rung to run. It serialises through the kernel's tagged
//! [`StateWriter`]/[`StateReader`] machinery, so a frontier file gets
//! the same magic/version/checksum armour as a simulation snapshot —
//! a truncated or corrupted file fails closed on load.

use crate::pareto::Score;
use crate::space::{Candidate, FabricFamily};
use mpsoc_kernel::{Persist, SnapshotBlob, SnapshotError, StateReader, StateWriter};

/// Frontier encoding version (bumped on layout changes).
pub const FRONTIER_VERSION: u32 = 1;

/// The workload label every frontier carries: the search scores every
/// candidate under the one saturated many-to-many workload.
pub(crate) const WORKLOAD: &str = "saturated";

/// Accounting for one completed rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RungStats {
    /// Simulated-time budget of the rung in picoseconds (0 marks the
    /// final run-to-quiescence rung).
    pub budget_ps: u64,
    /// Candidates raced in the rung.
    pub population: u32,
    /// Candidates promoted out of the rung.
    pub survivors: u32,
    /// Kernel ticks executed across the rung's evaluations.
    pub sim_ticks: u64,
}

/// One population slot of the frontier.
#[derive(Debug, Clone)]
pub struct FrontierEntry {
    /// The design point.
    pub candidate: Candidate,
    /// Still racing (not yet eliminated by a promotion cut).
    pub alive: bool,
    /// Last measured score, if the entry has run at least one rung.
    pub score: Option<Score>,
    /// Warm simulation checkpoint at the end of the entry's last rung;
    /// promotions resume from here instead of replaying from reset.
    pub warm: Option<SnapshotBlob>,
}

/// The resumable state of a successive-halving search.
#[derive(Debug, Clone)]
pub struct Frontier {
    /// Search seed (must match on resume).
    pub seed: u64,
    /// Workload scale (must match on resume).
    pub scale: u64,
    /// Workload label (`"saturated"`; must match on resume).
    pub workload: String,
    /// Next rung index to execute.
    pub next_rung: u32,
    /// Accounting of the rungs already completed.
    pub rungs: Vec<RungStats>,
    /// The population, in sampling order.
    pub entries: Vec<FrontierEntry>,
}

mpsoc_kernel::snapshot_state! {
    impl Persist for RungStats { budget_ps, population, survivors, sim_ticks }
}

mpsoc_kernel::snapshot_state! {
    impl Persist for Score { throughput, latency_ns, p95_ns, completed, cost }
}

/// As its [`tag`](FabricFamily::tag); an unknown tag refuses the blob.
impl Persist for FabricFamily {
    const MIN_BYTES: usize = 2;

    fn save(&self, w: &mut StateWriter) {
        w.write_u8(self.tag());
    }

    fn load(r: &mut StateReader<'_>) -> Self {
        let tag = r.read_u8();
        match FabricFamily::from_tag(tag) {
            Some(family) => family,
            None => r.unknown_tag(tag, FabricFamily::SharedStbus),
        }
    }
}

mpsoc_kernel::snapshot_state! {
    impl Persist for Candidate {
        index, family, split_bridge, issue_fifo, target_fifo, wait_states, lmi, lmi_lookahead,
        lmi_merging,
    }
}

/// The candidate, `alive` and the score as fields; the warm checkpoint as
/// a presence flag, its byte length, then its bytes packed little-endian
/// into `u64` words (the last one zero-padded).
impl Persist for FrontierEntry {
    fn save(&self, w: &mut StateWriter) {
        self.candidate.save(w);
        self.alive.save(w);
        self.score.save(w);
        w.write_bool(self.warm.is_some());
        if let Some(blob) = &self.warm {
            let bytes = blob.as_bytes();
            w.write_usize(bytes.len());
            for chunk in bytes.chunks(8) {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                w.write_u64(u64::from_le_bytes(word));
            }
        }
    }

    fn load(r: &mut StateReader<'_>) -> Self {
        let candidate = Persist::load(r);
        let alive = Persist::load(r);
        let score = Persist::load(r);
        let warm = r.read_bool().then(|| {
            // Every byte takes more than one byte of the stream (a tagged
            // word per eight), so the remaining bytes bound the length.
            let len = r.read_len(1);
            let mut bytes = Vec::with_capacity(len.next_multiple_of(8));
            for _ in 0..len.div_ceil(8) {
                bytes.extend_from_slice(&r.read_u64().to_le_bytes());
            }
            bytes.truncate(len);
            SnapshotBlob::from_bytes(bytes)
        });
        FrontierEntry {
            candidate,
            alive,
            score,
            warm,
        }
    }
}

impl Frontier {
    /// Serialises the frontier into a checksummed blob.
    pub fn to_blob(&self) -> SnapshotBlob {
        let mut w = StateWriter::new();
        w.section("dse-frontier");
        w.write_u32(FRONTIER_VERSION);
        w.write_u64(self.seed);
        w.write_u64(self.scale);
        w.write_str(&self.workload);
        w.write_u32(self.next_rung);
        w.section("rungs");
        self.rungs.save(&mut w);
        w.section("entries");
        self.entries.save(&mut w);
        w.finish()
    }

    /// Decodes a frontier blob.
    ///
    /// # Errors
    ///
    /// Fails on a corrupted blob, a wrong encoding version, trailing
    /// bytes, or a re-sealed blob whose lengths or tags cannot be what the
    /// encoder wrote.
    pub fn from_blob(blob: &SnapshotBlob) -> Result<Frontier, SnapshotError> {
        let mut r = StateReader::new(blob)?;
        r.expect_section("dse-frontier");
        let version = r.read_u32();
        if version != FRONTIER_VERSION {
            return Err(SnapshotError::Corrupt {
                at: 0,
                detail: format!("frontier version {version}, expected {FRONTIER_VERSION}"),
            });
        }
        let seed = r.read_u64();
        let scale = r.read_u64();
        let workload = r.read_str();
        let next_rung = r.read_u32();
        r.expect_section("rungs");
        let rungs = Persist::load(&mut r);
        r.expect_section("entries");
        let entries = Persist::load(&mut r);
        r.finish()?;
        Ok(Frontier {
            seed,
            scale,
            workload,
            next_rung,
            rungs,
            entries,
        })
    }

    /// Writes the frontier to `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_blob().as_bytes())
    }

    /// Reads a frontier back from `path`.
    ///
    /// # Errors
    ///
    /// Fails on file-system errors or a corrupted/mismatched blob.
    pub fn load(path: &std::path::Path) -> std::io::Result<Frontier> {
        let bytes = std::fs::read(path)?;
        Frontier::from_blob(&SnapshotBlob::from_bytes(bytes))
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::sample_generation;

    fn sample_frontier() -> Frontier {
        let entries = sample_generation(6, 3)
            .into_iter()
            .enumerate()
            .map(|(i, candidate)| FrontierEntry {
                candidate,
                alive: i % 2 == 0,
                score: (i > 1).then(|| Score {
                    throughput: 1.25 * i as f64,
                    latency_ns: 300.0 - i as f64,
                    p95_ns: 900 + i as u64,
                    completed: 40 * i as u64,
                    cost: 1000 + i as u64,
                }),
                warm: (i == 2).then(|| SnapshotBlob::from_bytes(vec![7u8; 13])),
            })
            .collect();
        Frontier {
            seed: 0x0dab,
            scale: 2,
            workload: WORKLOAD.into(),
            next_rung: 1,
            rungs: vec![RungStats {
                budget_ps: 4_000_000,
                population: 6,
                survivors: 4,
                sim_ticks: 12345,
            }],
            entries,
        }
    }

    #[test]
    fn frontier_round_trips() {
        let f = sample_frontier();
        let blob = f.to_blob();
        let g = Frontier::from_blob(&blob).expect("decodes");
        assert_eq!(g.seed, f.seed);
        assert_eq!(g.scale, f.scale);
        assert_eq!(g.workload, f.workload);
        assert_eq!(g.next_rung, f.next_rung);
        assert_eq!(g.rungs, f.rungs);
        assert_eq!(g.entries.len(), f.entries.len());
        for (a, b) in f.entries.iter().zip(&g.entries) {
            assert_eq!(a.candidate, b.candidate);
            assert_eq!(a.alive, b.alive);
            assert_eq!(a.score.is_some(), b.score.is_some());
            if let (Some(x), Some(y)) = (&a.score, &b.score) {
                assert_eq!(x.throughput.to_bits(), y.throughput.to_bits());
                assert_eq!(x.latency_ns.to_bits(), y.latency_ns.to_bits());
                assert_eq!(
                    (x.p95_ns, x.completed, x.cost),
                    (y.p95_ns, y.completed, y.cost)
                );
            }
            match (&a.warm, &b.warm) {
                (Some(x), Some(y)) => assert_eq!(x.as_bytes(), y.as_bytes()),
                (None, None) => {}
                _ => panic!("warm blob presence diverged"),
            }
        }
        // Re-encoding is byte-stable.
        assert_eq!(g.to_blob().as_bytes(), blob.as_bytes());
    }

    /// Which field [`by_hand`] forges.
    #[derive(Clone, Copy, PartialEq)]
    enum Forge {
        Nothing,
        RungCount,
        EntryCount,
        WarmLength,
        FamilyTag,
    }

    /// The frontier encoding written out field by field, as a reference
    /// for the derived codec, with one field optionally forged and the
    /// whole re-sealed the way anyone able to write the file could.
    fn by_hand(f: &Frontier, forge: Forge) -> SnapshotBlob {
        let forged = |w: &mut StateWriter, what: Forge, len: usize| {
            w.write_usize(if forge == what { usize::MAX } else { len });
        };
        let mut w = StateWriter::new();
        w.section("dse-frontier");
        w.write_u32(FRONTIER_VERSION);
        w.write_u64(f.seed);
        w.write_u64(f.scale);
        w.write_str(&f.workload);
        w.write_u32(f.next_rung);
        w.section("rungs");
        forged(&mut w, Forge::RungCount, f.rungs.len());
        for r in &f.rungs {
            w.write_u64(r.budget_ps);
            w.write_u32(r.population);
            w.write_u32(r.survivors);
            w.write_u64(r.sim_ticks);
        }
        w.section("entries");
        forged(&mut w, Forge::EntryCount, f.entries.len());
        for e in &f.entries {
            let c = &e.candidate;
            w.write_u32(c.index);
            w.write_u8(if forge == Forge::FamilyTag {
                7
            } else {
                c.family.tag()
            });
            w.write_bool(c.split_bridge);
            w.write_usize(c.issue_fifo);
            w.write_usize(c.target_fifo);
            w.write_u32(c.wait_states);
            w.write_bool(c.lmi);
            w.write_usize(c.lmi_lookahead);
            w.write_bool(c.lmi_merging);
            w.write_bool(e.alive);
            w.write_bool(e.score.is_some());
            if let Some(s) = &e.score {
                w.write_u64(s.throughput.to_bits());
                w.write_u64(s.latency_ns.to_bits());
                w.write_u64(s.p95_ns);
                w.write_u64(s.completed);
                w.write_u64(s.cost);
            }
            w.write_bool(e.warm.is_some());
            if let Some(blob) = &e.warm {
                forged(&mut w, Forge::WarmLength, blob.len());
                for chunk in blob.as_bytes().chunks(8) {
                    let mut word = [0u8; 8];
                    word[..chunk.len()].copy_from_slice(chunk);
                    w.write_u64(u64::from_le_bytes(word));
                }
            }
        }
        w.finish()
    }

    #[test]
    fn the_derived_codec_writes_the_field_by_field_bytes() {
        let f = sample_frontier();
        assert_eq!(
            f.to_blob().as_bytes(),
            by_hand(&f, Forge::Nothing).as_bytes()
        );
    }

    /// A re-sealed frontier passes the checksum, so the decoder itself
    /// must refuse a length no blob of its size can hold (it would
    /// otherwise size an allocation or a loop by it) and a family tag no
    /// family has.
    #[test]
    fn a_resealed_frontier_with_a_forged_length_or_tag_is_refused() {
        let f = sample_frontier();
        for forge in [
            Forge::RungCount,
            Forge::EntryCount,
            Forge::WarmLength,
            Forge::FamilyTag,
        ] {
            let err = Frontier::from_blob(&by_hand(&f, forge)).expect_err("forged field");
            assert!(matches!(err, SnapshotError::Corrupt { .. }), "{err}");
        }
    }

    #[test]
    fn corruption_fails_closed() {
        let mut bytes = sample_frontier().to_blob().as_bytes().to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        assert!(Frontier::from_blob(&SnapshotBlob::from_bytes(bytes)).is_err());
    }

    #[test]
    fn truncation_fails_closed() {
        let bytes = sample_frontier().to_blob().as_bytes().to_vec();
        let cut = bytes[..bytes.len() - 5].to_vec();
        assert!(Frontier::from_blob(&SnapshotBlob::from_bytes(cut)).is_err());
    }
}
