//! Versioned, checksummed state serialization for deterministic
//! checkpoint/restore.
//!
//! The snapshot subsystem captures the complete dynamic state of a
//! [`Simulation`](crate::Simulation) — timeline, clock-domain buckets, link
//! queues, stats counters, RNG stream, fault-engine cursor and every
//! component's private state — into a [`SnapshotBlob`]. Restoring the blob
//! onto a *structurally identical* freshly-built simulation yields a machine
//! that is bit-for-bit indistinguishable from the original: because the
//! kernel is deterministic by construction, restore-then-run produces the
//! same tick sequence, the same stats and the same tables as running
//! straight through.
//!
//! # Format
//!
//! A blob is a flat byte stream:
//!
//! ```text
//! magic "MPSN" | version u16 | payload ... | checksum u64
//! ```
//!
//! The checksum covers header and payload. Since format v3 it runs over
//! little-endian 8-byte words in four independent lanes, every step
//! bijective in the word it takes, so any single flipped byte is always
//! detected.
//!
//! Every primitive in the payload is preceded by a one-byte type tag so that
//! writer/reader desynchronisation is detected at the first misaligned field
//! rather than producing silently-garbled state. Named section markers
//! delimit the major regions (meta, rng, faults, stats, links, buckets,
//! components) for the same reason.
//!
//! # Error model
//!
//! [`StateWriter`] is infallible. [`StateReader`] uses a poisoned-flag
//! model: a mismatched tag or truncated stream poisons the reader, further
//! reads return defaults, and [`StateReader::finish`] reports the failure.
//! This keeps component `restore` implementations free of `Result`
//! plumbing while still guaranteeing corrupt blobs are rejected.

use std::error::Error;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Leading magic bytes of every snapshot blob.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"MPSN";
/// Current snapshot format version.
///
/// v2 (sparse-ticking): executed-tick counts left the blob (they are
/// schedule-derived), bucket sections gained an edge index and component
/// sections an edge base, so sparse and dense runs checkpoint identically.
///
/// v3: the trailing checksum runs over 8-byte words in independent lanes
/// instead of byte-serial FNV-1a; the payload encoding is unchanged. A v2
/// blob is refused with [`SnapshotError::BadVersion`].
pub const SNAPSHOT_VERSION: u16 = 3;

const TAG_U8: u8 = 0x01;
const TAG_U16: u8 = 0x02;
const TAG_U32: u8 = 0x03;
const TAG_U64: u8 = 0x04;
const TAG_U128: u8 = 0x05;
const TAG_BOOL: u8 = 0x06;
const TAG_STR: u8 = 0x07;
const TAG_SECTION: u8 = 0x08;
const TAG_BYTES: u8 = 0x09;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a-64 over a byte slice — the same hash the structural fingerprint
/// uses.
///
/// Exposed so layers above the kernel (e.g. the serving cache's disk-spill
/// file naming) can derive stable, collision-resistant-enough identifiers
/// without inventing a second hash function.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    fnv1a64(bytes)
}

const LANE_P1: u64 = 0x9e37_79b1_85eb_ca87;
const LANE_P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const LANE_P3: u64 = 0x1656_67b1_9e37_79f9;

/// One lane step: bijective in `word` for any `acc`, and in `acc` for any
/// `word` (an add, a rotation and multiplications by odd constants).
#[inline]
fn lane(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(LANE_P2))
        .rotate_left(31)
        .wrapping_mul(LANE_P1)
}

/// The blob checksum (format v3): the bytes as little-endian 8-byte words,
/// dealt round-robin to four independent lanes per 32-byte stripe; the
/// lanes and the length folded together; the words past the last whole
/// stripe (the final one zero-padded) stepped into the fold; then a final
/// avalanche.
///
/// Every step is bijective in the state it is handed, so a change confined
/// to one word — any single flipped byte among them — changes its lane,
/// the fold and the result: such a change is always detected, not just with
/// high probability. Word-wide independent lanes also keep the loop off
/// the one-byte-at-a-time dependency chain of FNV-1a.
fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = [
        LANE_P1.wrapping_add(LANE_P2),
        LANE_P2,
        0,
        LANE_P1.wrapping_neg(),
    ];
    let mut stripes = bytes.chunks_exact(32);
    for stripe in &mut stripes {
        for (acc, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *acc = lane(
                *acc,
                u64::from_le_bytes(word.try_into().expect("8-byte word")),
            );
        }
    }
    let mut h = lanes[0]
        .rotate_left(1)
        .wrapping_add(lanes[1].rotate_left(7))
        .wrapping_add(lanes[2].rotate_left(12))
        .wrapping_add(lanes[3].rotate_left(18))
        .wrapping_add(bytes.len() as u64);
    for word in stripes.remainder().chunks(8) {
        let mut padded = [0u8; 8];
        padded[..word.len()].copy_from_slice(word);
        h = lane(h, u64::from_le_bytes(padded));
    }
    h ^= h >> 33;
    h = h.wrapping_mul(LANE_P2);
    h ^= h >> 29;
    h = h.wrapping_mul(LANE_P3);
    h ^ (h >> 32)
}

/// Incremental FNV-1a-64, used for the structural fingerprint that guards
/// restores against mismatched platforms.
#[derive(Debug)]
pub(crate) struct Fnv64 {
    hash: u64,
}

impl Fnv64 {
    pub(crate) fn new() -> Self {
        Fnv64 { hash: FNV_OFFSET }
    }

    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    pub(crate) fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    pub(crate) fn finish(&self) -> u64 {
        self.hash
    }
}

/// Errors surfaced while decoding a snapshot blob.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The blob does not start with the snapshot magic bytes.
    BadMagic,
    /// The blob was written by an unsupported format version.
    BadVersion {
        /// Version found in the header.
        found: u16,
    },
    /// The trailing checksum does not match the payload.
    BadChecksum,
    /// A field tag or length did not match what the reader expected.
    Corrupt {
        /// Byte offset at which the mismatch was detected.
        at: usize,
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// The blob decoded cleanly but does not fit the target simulation.
    StructureMismatch {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// The reader finished with bytes left over.
    TrailingBytes {
        /// Number of unread payload bytes.
        remaining: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "snapshot blob has wrong magic bytes"),
            SnapshotError::BadVersion { found } => {
                write!(
                    f,
                    "snapshot version {found} unsupported (expected {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::BadChecksum => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Corrupt { at, detail } => {
                write!(f, "snapshot corrupt at byte {at}: {detail}")
            }
            SnapshotError::StructureMismatch { detail } => {
                write!(f, "snapshot does not match target simulation: {detail}")
            }
            SnapshotError::TrailingBytes { remaining } => {
                write!(f, "snapshot has {remaining} unread trailing bytes")
            }
        }
    }
}

impl Error for SnapshotError {}

/// An immutable, cheaply-cloneable snapshot of simulation state.
///
/// The bytes live behind an [`Arc`], so cloning a blob — the "copy-on-write
/// fork" used by warm-state sweeps — is a reference-count bump, and the same
/// blob can be shared across parallel sweep workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotBlob {
    bytes: Arc<Vec<u8>>,
}

impl SnapshotBlob {
    /// Wraps raw bytes (e.g. read back from disk) as a blob.
    ///
    /// Validation happens when a [`StateReader`] is opened on the blob.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        SnapshotBlob {
            bytes: Arc::new(bytes),
        }
    }

    /// The serialized bytes, including header and checksum.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Total size of the blob in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the blob is empty (never true for a well-formed blob).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The structural fingerprint the producing simulation stamped into the
    /// blob's leading `meta` section (see
    /// `Simulation::structural_fingerprint`).
    ///
    /// This validates the whole blob (magic, version, checksum) but decodes
    /// only the fingerprint field, so a warm-checkpoint cache can match a
    /// stored blob against a target platform *before* attempting a restore
    /// — a mismatch means the blob was taken from a structurally different
    /// platform and must never be served.
    ///
    /// # Errors
    ///
    /// Returns the same validation errors a restore would: bad magic,
    /// unsupported version, checksum mismatch, or a corrupt leading section.
    pub fn fingerprint(&self) -> Result<u64, SnapshotError> {
        let mut r = StateReader::new(self)?;
        r.expect_section("meta");
        let fingerprint = r.read_u64();
        if let Some(err) = r.poisoned {
            return Err(err);
        }
        Ok(fingerprint)
    }
}

/// Append-only writer producing the snapshot byte format.
///
/// Each `write_*` call emits a one-byte type tag followed by the
/// little-endian encoding of the value; [`StateWriter::finish`] appends the
/// checksum and seals the blob.
#[derive(Debug)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// Starts a new snapshot, emitting the magic/version header.
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        StateWriter { buf }
    }

    fn tagged(&mut self, tag: u8, bytes: &[u8]) {
        self.buf.push(tag);
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a named section marker delimiting a region of the blob.
    pub fn section(&mut self, name: &str) {
        self.buf.push(TAG_SECTION);
        self.raw_str(name);
    }

    fn raw_str(&mut self, s: &str) {
        let bytes = s.as_bytes();
        self.buf
            .extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a `u8`.
    pub fn write_u8(&mut self, v: u8) {
        self.tagged(TAG_U8, &[v]);
    }

    /// Writes a `u16`.
    pub fn write_u16(&mut self, v: u16) {
        self.tagged(TAG_U16, &v.to_le_bytes());
    }

    /// Writes a `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.tagged(TAG_U32, &v.to_le_bytes());
    }

    /// Writes a `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.tagged(TAG_U64, &v.to_le_bytes());
    }

    /// Writes a `u128`.
    pub fn write_u128(&mut self, v: u128) {
        self.tagged(TAG_U128, &v.to_le_bytes());
    }

    /// Writes a `usize` (encoded as `u64`).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Writes a `bool`.
    pub fn write_bool(&mut self, v: bool) {
        self.tagged(TAG_BOOL, &[u8::from(v)]);
    }

    /// Writes a string.
    pub fn write_str(&mut self, s: &str) {
        self.buf.push(TAG_STR);
        self.raw_str(s);
    }

    /// Writes a length-prefixed byte array.
    ///
    /// Used to nest one sealed blob inside another (e.g. a disk-spilled warm
    /// checkpoint wraps the inner simulation blob in an outer armoured
    /// container), so both layers carry their own checksum.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.buf.push(TAG_BYTES);
        self.buf
            .extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a simulation [`Time`](crate::Time) as its picosecond count.
    pub fn write_time(&mut self, t: crate::Time) {
        self.write_u64(t.as_ps());
    }

    /// Writes an `Option<u64>` as a presence flag plus value.
    pub fn write_opt_u64(&mut self, v: Option<u64>) {
        self.write_bool(v.is_some());
        if let Some(v) = v {
            self.write_u64(v);
        }
    }

    /// Seals the payload with the trailing checksum and returns the blob.
    pub fn finish(mut self) -> SnapshotBlob {
        let sum = checksum(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        SnapshotBlob {
            bytes: Arc::new(self.buf),
        }
    }
}

impl Default for StateWriter {
    fn default() -> Self {
        StateWriter::new()
    }
}

/// Cursor decoding the snapshot byte format.
///
/// Mismatched tags or a truncated stream poison the reader: subsequent
/// reads return zero/default values and [`StateReader::finish`] returns the
/// first error encountered.
#[derive(Debug)]
pub struct StateReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    end: usize,
    poisoned: Option<SnapshotError>,
}

impl<'a> StateReader<'a> {
    /// Opens a reader on a blob, validating magic, version and checksum.
    pub fn new(blob: &'a SnapshotBlob) -> Result<Self, SnapshotError> {
        let bytes = blob.as_bytes();
        if bytes.len() < 4 + 2 + 8 {
            return Err(SnapshotError::BadMagic);
        }
        if bytes[..4] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::BadVersion { found: version });
        }
        let end = bytes.len() - 8;
        let stored = u64::from_le_bytes(bytes[end..].try_into().expect("checksum slice"));
        if checksum(&bytes[..end]) != stored {
            return Err(SnapshotError::BadChecksum);
        }
        Ok(StateReader {
            bytes,
            pos: 6,
            end,
            poisoned: None,
        })
    }

    fn poison(&mut self, detail: String) {
        if self.poisoned.is_none() {
            self.poisoned = Some(SnapshotError::Corrupt {
                at: self.pos,
                detail,
            });
        }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.poisoned.is_some() || self.pos + n > self.end {
            if self.poisoned.is_none() {
                self.poison(format!("truncated: wanted {n} bytes"));
            }
            return None;
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Some(slice)
    }

    fn expect_tag(&mut self, tag: u8, what: &str) -> bool {
        match self.take(1) {
            Some([found]) if *found == tag => true,
            Some([found]) => {
                let found = *found;
                self.pos -= 1;
                self.poison(format!(
                    "expected {what} tag {tag:#04x}, found {found:#04x}"
                ));
                false
            }
            _ => false,
        }
    }

    /// Reads a named section marker, poisoning the reader on mismatch.
    pub fn expect_section(&mut self, name: &str) {
        if !self.expect_tag(TAG_SECTION, "section") {
            return;
        }
        let found = self.raw_str();
        if found != name {
            self.poison(format!("expected section {name:?}, found {found:?}"));
        }
    }

    fn raw_str(&mut self) -> String {
        let len = match self.take(4) {
            Some(b) => u32::from_le_bytes(b.try_into().expect("len slice")) as usize,
            None => return String::new(),
        };
        match self.take(len) {
            Some(b) => String::from_utf8_lossy(b).into_owned(),
            None => String::new(),
        }
    }

    /// Reads a `u8` (0 when poisoned).
    pub fn read_u8(&mut self) -> u8 {
        if !self.expect_tag(TAG_U8, "u8") {
            return 0;
        }
        self.take(1).map_or(0, |b| b[0])
    }

    /// Reads a `u16` (0 when poisoned).
    pub fn read_u16(&mut self) -> u16 {
        if !self.expect_tag(TAG_U16, "u16") {
            return 0;
        }
        self.take(2)
            .map_or(0, |b| u16::from_le_bytes(b.try_into().expect("u16")))
    }

    /// Reads a `u32` (0 when poisoned).
    pub fn read_u32(&mut self) -> u32 {
        if !self.expect_tag(TAG_U32, "u32") {
            return 0;
        }
        self.take(4)
            .map_or(0, |b| u32::from_le_bytes(b.try_into().expect("u32")))
    }

    /// Reads a `u64` (0 when poisoned).
    pub fn read_u64(&mut self) -> u64 {
        if !self.expect_tag(TAG_U64, "u64") {
            return 0;
        }
        self.take(8)
            .map_or(0, |b| u64::from_le_bytes(b.try_into().expect("u64")))
    }

    /// Reads a `u128` (0 when poisoned).
    pub fn read_u128(&mut self) -> u128 {
        if !self.expect_tag(TAG_U128, "u128") {
            return 0;
        }
        self.take(16)
            .map_or(0, |b| u128::from_le_bytes(b.try_into().expect("u128")))
    }

    /// Reads a `usize` (encoded as `u64`; 0 when poisoned).
    pub fn read_usize(&mut self) -> usize {
        self.read_u64() as usize
    }

    /// Reads a `bool` (false when poisoned).
    pub fn read_bool(&mut self) -> bool {
        if !self.expect_tag(TAG_BOOL, "bool") {
            return false;
        }
        self.take(1).is_some_and(|b| b[0] != 0)
    }

    /// Reads a string (empty when poisoned).
    pub fn read_str(&mut self) -> String {
        if !self.expect_tag(TAG_STR, "str") {
            return String::new();
        }
        self.raw_str()
    }

    /// Reads a byte array written by [`StateWriter::write_bytes`] (empty
    /// when poisoned).
    pub fn read_bytes(&mut self) -> Vec<u8> {
        if !self.expect_tag(TAG_BYTES, "bytes") {
            return Vec::new();
        }
        let len = match self.take(4) {
            Some(b) => u32::from_le_bytes(b.try_into().expect("len slice")) as usize,
            None => return Vec::new(),
        };
        self.take(len).map_or_else(Vec::new, <[u8]>::to_vec)
    }

    /// Reads a simulation [`Time`](crate::Time).
    pub fn read_time(&mut self) -> crate::Time {
        crate::Time::from_ps(self.read_u64())
    }

    /// Reads an `Option<u64>` written by [`StateWriter::write_opt_u64`].
    pub fn read_opt_u64(&mut self) -> Option<u64> {
        if self.read_bool() {
            Some(self.read_u64())
        } else {
            None
        }
    }

    /// Validates that the payload decoded cleanly and completely.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if let Some(err) = self.poisoned {
            return Err(err);
        }
        if self.pos != self.end {
            return Err(SnapshotError::TrailingBytes {
                remaining: self.end - self.pos,
            });
        }
        Ok(())
    }
}

/// Writes a blob to `path` atomically (write to a sibling temp file, then
/// rename), so a crash mid-write never leaves a torn spill file where a
/// reader could find it.
///
/// The rename is atomic on POSIX filesystems; readers either see the old
/// file, no file, or the complete new file — never a prefix.
///
/// # Errors
///
/// Propagates any I/O error from creating, writing or renaming the file.
pub fn spill_blob(path: &Path, blob: &SnapshotBlob) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, blob.as_bytes())?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(err) => {
            let _ = std::fs::remove_file(&tmp);
            Err(err)
        }
    }
}

/// Reads a blob back from `path`, validating magic, version and checksum
/// before returning it.
///
/// Validation failures are reported as [`io::ErrorKind::InvalidData`] with
/// the underlying [`SnapshotError`] as source, so callers that fail closed
/// on *any* error (the disk-persistent warm cache) need a single match arm:
/// a truncated, corrupted or version-skewed spill file is indistinguishable
/// from an unreadable one, and neither is ever served.
///
/// # Errors
///
/// Any I/O error reading the file, or `InvalidData` when the bytes do not
/// form a valid sealed snapshot blob.
pub fn load_blob(path: &Path) -> io::Result<SnapshotBlob> {
    let bytes = std::fs::read(path)?;
    let blob = SnapshotBlob::from_bytes(bytes);
    if let Err(err) = StateReader::new(&blob) {
        return Err(io::Error::new(io::ErrorKind::InvalidData, err));
    }
    Ok(blob)
}

/// State capture/restore hooks for stateful simulation objects.
///
/// Every [`Component`](crate::Component) implements this (stateless
/// components inherit the no-op defaults). `save` and `restore` must be
/// exact mirrors: every field written by `save` is read back, in order, by
/// `restore`. Structural configuration that is reconstructed by rebuilding
/// the platform (names, wiring, clock domains) should *not* be serialized —
/// only state that evolves during simulation.
///
/// `restore` is a complete reset (see [`Simulation::restore`](crate::Simulation::restore)):
/// the object may have run before, so every field `save` does not write —
/// a cached metric id, a note kept for a stall hint — goes back to what
/// construction leaves there.
pub trait Snapshot {
    /// Serializes dynamic state into the writer.
    fn save(&self, _w: &mut StateWriter) {}

    /// Restores dynamic state from the reader, mirroring `save` exactly,
    /// and resets every field `save` does not write to its constructed
    /// value.
    fn restore(&mut self, _r: &mut StateReader<'_>) {}
}

/// Serialization hooks for link payload types.
///
/// The kernel serializes link queues generically; payload types provide
/// their own byte encoding via this trait.
pub trait SnapshotPayload: Sized {
    /// Serializes one payload value.
    fn save_payload(&self, w: &mut StateWriter);

    /// Decodes one payload value written by `save_payload`.
    fn restore_payload(r: &mut StateReader<'_>) -> Self;
}

impl SnapshotPayload for () {
    fn save_payload(&self, _w: &mut StateWriter) {}

    fn restore_payload(_r: &mut StateReader<'_>) -> Self {}
}

impl SnapshotPayload for u8 {
    fn save_payload(&self, w: &mut StateWriter) {
        w.write_u8(*self);
    }

    fn restore_payload(r: &mut StateReader<'_>) -> Self {
        r.read_u8()
    }
}

impl SnapshotPayload for u64 {
    fn save_payload(&self, w: &mut StateWriter) {
        w.write_u64(*self);
    }

    fn restore_payload(r: &mut StateReader<'_>) -> Self {
        r.read_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Time;

    #[test]
    fn primitives_round_trip() {
        let mut w = StateWriter::new();
        w.section("meta");
        w.write_u8(0xab);
        w.write_u16(0xbeef);
        w.write_u32(0xdead_beef);
        w.write_u64(u64::MAX - 7);
        w.write_u128(u128::MAX / 3);
        w.write_bool(true);
        w.write_bool(false);
        w.write_str("hello snapshot");
        w.write_time(Time::from_ns(125));
        w.write_opt_u64(Some(42));
        w.write_opt_u64(None);
        let blob = w.finish();

        let mut r = StateReader::new(&blob).expect("open");
        r.expect_section("meta");
        assert_eq!(r.read_u8(), 0xab);
        assert_eq!(r.read_u16(), 0xbeef);
        assert_eq!(r.read_u32(), 0xdead_beef);
        assert_eq!(r.read_u64(), u64::MAX - 7);
        assert_eq!(r.read_u128(), u128::MAX / 3);
        assert!(r.read_bool());
        assert!(!r.read_bool());
        assert_eq!(r.read_str(), "hello snapshot");
        assert_eq!(r.read_time(), Time::from_ns(125));
        assert_eq!(r.read_opt_u64(), Some(42));
        assert_eq!(r.read_opt_u64(), None);
        r.finish().expect("clean finish");
    }

    #[test]
    fn tag_mismatch_poisons_reader() {
        let mut w = StateWriter::new();
        w.write_u32(7);
        let blob = w.finish();

        let mut r = StateReader::new(&blob).expect("open");
        assert_eq!(r.read_u64(), 0, "mismatched read yields default");
        let err = r.finish().expect_err("poisoned");
        assert!(matches!(err, SnapshotError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn truncation_and_checksum_are_detected() {
        let mut w = StateWriter::new();
        w.write_u64(99);
        let blob = w.finish();

        let mut flipped = blob.as_bytes().to_vec();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        let bad = SnapshotBlob::from_bytes(flipped);
        assert!(matches!(
            StateReader::new(&bad),
            Err(SnapshotError::BadChecksum) | Err(SnapshotError::BadVersion { .. })
        ));

        let empty = SnapshotBlob::from_bytes(vec![1, 2, 3]);
        assert!(matches!(
            StateReader::new(&empty),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut w = StateWriter::new();
        w.write_u8(1);
        w.write_u8(2);
        let blob = w.finish();
        let mut r = StateReader::new(&blob).expect("open");
        assert_eq!(r.read_u8(), 1);
        let err = r.finish().expect_err("leftover byte");
        assert!(matches!(err, SnapshotError::TrailingBytes { remaining } if remaining > 0));
    }

    #[test]
    fn wrong_section_name_poisons() {
        let mut w = StateWriter::new();
        w.section("links");
        let blob = w.finish();
        let mut r = StateReader::new(&blob).expect("open");
        r.expect_section("stats");
        assert!(r.finish().is_err());
    }

    #[test]
    fn bytes_round_trip_and_nest_a_sealed_blob() {
        let mut inner = StateWriter::new();
        inner.section("meta");
        inner.write_u64(0xfeed_f00d);
        let inner_blob = inner.finish();

        let mut w = StateWriter::new();
        w.section("warm-spill");
        w.write_bytes(inner_blob.as_bytes());
        w.write_bytes(&[]);
        let blob = w.finish();

        let mut r = StateReader::new(&blob).expect("open");
        r.expect_section("warm-spill");
        let nested = SnapshotBlob::from_bytes(r.read_bytes());
        assert!(r.read_bytes().is_empty());
        r.finish().expect("clean finish");
        assert_eq!(nested, inner_blob);
        assert_eq!(nested.fingerprint().expect("nested meta"), 0xfeed_f00d);
    }

    #[test]
    fn bytes_tag_mismatch_poisons() {
        let mut w = StateWriter::new();
        w.write_u32(9);
        let blob = w.finish();
        let mut r = StateReader::new(&blob).expect("open");
        assert!(r.read_bytes().is_empty());
        assert!(r.finish().is_err());
    }

    #[test]
    fn spill_and_load_round_trip_on_disk() {
        let dir = std::env::temp_dir().join(format!("mpsn-spill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("roundtrip.mpsn");

        let mut w = StateWriter::new();
        w.section("meta");
        w.write_u64(77);
        let blob = w.finish();

        spill_blob(&path, &blob).expect("spill");
        let loaded = load_blob(&path).expect("load");
        assert_eq!(loaded.as_bytes(), blob.as_bytes());

        // Truncation and bit-flips are both refused with InvalidData.
        let full = blob.as_bytes().to_vec();
        std::fs::write(&path, &full[..full.len() / 2]).expect("truncate");
        let err = load_blob(&path).expect_err("truncated");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let mut flipped = full.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        std::fs::write(&path, &flipped).expect("flip");
        let err = load_blob(&path).expect_err("corrupt");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn blob_clone_is_shallow() {
        let mut w = StateWriter::new();
        w.write_u64(5);
        let blob = w.finish();
        let copy = blob.clone();
        assert_eq!(blob.as_bytes().as_ptr(), copy.as_bytes().as_ptr());
        assert_eq!(blob, copy);
    }
}
