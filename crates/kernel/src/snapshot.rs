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
//!
//! The checksum catches accidents, not intent: anyone who can write a spill
//! file can also re-seal one. So decoding fails closed past the checksum as
//! well. Every count goes through [`StateReader::read_len`], which refuses
//! a count the remaining bytes cannot hold; every index through
//! [`StateReader::read_index`] or a range check against structure; and an
//! unknown enum tag through [`StateReader::unknown_tag`]. Each poisons the
//! reader, so a re-sealed blob is an error, never a hang, a panic or a
//! silently defaulted field.
//!
//! # One codec
//!
//! A value crosses the boundary through [`Persist`], implemented once per
//! type: the primitives, [`Time`](crate::Time), `Option`, sequences, fixed
//! arrays, tuples and maps (written in key order). A stateful object — a
//! component, a device inside one — implements [`Snapshot`] by declaring
//! its dynamic fields once with [`snapshot_state!`](crate::snapshot_state),
//! which generates `save` and a `restore` that assigns every declared
//! field and then runs the object's check hook.

use std::collections::{HashMap, HashSet, VecDeque};
use std::error::Error;
use std::fmt;
use std::hash::Hash;
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
        self.poison_at(self.pos, detail);
    }

    fn poison_at(&mut self, at: usize, detail: String) {
        if self.poisoned.is_none() {
            self.poisoned = Some(SnapshotError::Corrupt { at, detail });
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

    /// Reads a sequence length written as a `usize`, bounded by the bytes
    /// left: a sequence of `n` items, each at least `min_item_bytes` long,
    /// fits only if `n * min_item_bytes` bytes remain. A longer count
    /// poisons the reader and reads as 0, so no decode loop runs, and no
    /// allocation is sized, past what the blob can actually hold.
    pub fn read_len(&mut self, min_item_bytes: usize) -> usize {
        let at = self.pos;
        let n = self.read_u64();
        let room = (self.end - self.pos) / min_item_bytes.max(1);
        if n > room as u64 {
            self.poison_at(
                at,
                format!("length {n} exceeds the {room} items the remaining bytes can hold"),
            );
            return 0;
        }
        n as usize
    }

    /// Reads an index written as a `usize` into something of `len` items;
    /// an index out of range poisons the reader and reads as 0.
    pub fn read_index(&mut self, len: usize) -> usize {
        let at = self.pos;
        let index = self.read_usize();
        if index >= len {
            self.poison_at(at, format!("index {index} out of range for {len} items"));
            return 0;
        }
        index
    }

    /// Refuses the blob: poisons the reader with `detail` unless it is
    /// poisoned already. The check hook of
    /// [`snapshot_state!`](crate::snapshot_state) calls this when decoded
    /// state does not fit the object's structure.
    pub fn refuse(&mut self, detail: impl fmt::Display) {
        self.poison(detail.to_string());
    }

    /// Refuses an enum tag no variant has, and hands back `placeholder` so
    /// the decode can finish its expression; the poisoned reader fails the
    /// restore, so the placeholder is never observed.
    pub fn unknown_tag<T>(&mut self, tag: u8, placeholder: T) -> T {
        self.poison(format!("unknown enum tag {tag}"));
        placeholder
    }

    /// The first error the reader has met, if any: lets a decoder that
    /// stops early report what went wrong before its own structural check.
    pub(crate) fn check(&self) -> Result<(), SnapshotError> {
        match &self.poisoned {
            Some(err) => Err(err.clone()),
            None => Ok(()),
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
/// components inherit the no-op defaults). Structural configuration that is
/// reconstructed by rebuilding the platform (names, wiring, clock domains)
/// is *not* serialized — only state that evolves during simulation.
///
/// Declare that state with [`snapshot_state!`](crate::snapshot_state)
/// rather than writing `save` and `restore` by hand: the macro writes
/// each declared field through [`Persist`] and reads it back in the same
/// order, so the two cannot drift apart, and a restore assigns every
/// declared field. What is not declared — notes kept for a stall hint,
/// counts derived from the declared state — is rebuilt by the object's
/// check hook, which also range-checks decoded indices against structure
/// and refuses the blob ([`StateReader::refuse`]) when one does not fit.
///
/// `restore` is a complete reset (see [`Simulation::restore`](crate::Simulation::restore)):
/// the object may have run before, and afterwards it must be
/// indistinguishable from a fresh build restored from the same blob.
/// Metric ids are structure, kept from
/// [`Component::register_metrics`](crate::Component::register_metrics) and
/// covered by the structural fingerprint, so `restore` leaves them.
pub trait Snapshot {
    /// Serializes dynamic state into the writer.
    fn save(&self, _w: &mut StateWriter) {}

    /// Restores dynamic state from the reader.
    fn restore(&mut self, _r: &mut StateReader<'_>) {}
}

/// The one codec for values that cross the snapshot boundary: link
/// payloads, component fields, the DSE frontier.
///
/// `save` writes the value; `load` reads back what `save` wrote. The
/// encodings compose: an `Option` is a presence `bool` then the value, a
/// sequence (`Vec`, `VecDeque`) is a `usize` length then its items, a map or
/// set is a sequence of its entries in ascending key order, a fixed array
/// and a tuple are their items with no length. A decode fails closed: a
/// length is bounded by [`StateReader::read_len`], map keys out of order
/// (duplicates included) poison the reader, and a type with its own
/// invariants (a tag, a range) refuses a value that breaks them.
///
/// A struct whose encoding is its field list derives the impl with
/// [`snapshot_state!`](crate::snapshot_state)`{ impl Persist for .. }`;
/// anything else (an enum, a packed representation) implements it by hand
/// on the same reader.
pub trait Persist: Sized {
    /// The fewest stream bytes one encoded value takes, tags included: the
    /// unit a decoded count of these values is bounded in.
    const MIN_BYTES: usize = 1;

    /// Serializes the value.
    fn save(&self, w: &mut StateWriter);

    /// Decodes a value written by [`save`](Self::save).
    fn load(r: &mut StateReader<'_>) -> Self;
}

macro_rules! persist_primitive {
    ($($ty:ty: $bytes:literal, $write:ident, $read:ident;)+) => {
        $(impl Persist for $ty {
            const MIN_BYTES: usize = $bytes;

            fn save(&self, w: &mut StateWriter) {
                w.$write(*self);
            }

            fn load(r: &mut StateReader<'_>) -> Self {
                r.$read()
            }
        })+
    };
}

persist_primitive! {
    u8: 2, write_u8, read_u8;
    u16: 3, write_u16, read_u16;
    u32: 5, write_u32, read_u32;
    u64: 9, write_u64, read_u64;
    u128: 17, write_u128, read_u128;
    usize: 9, write_usize, read_usize;
    bool: 2, write_bool, read_bool;
}

impl Persist for () {
    const MIN_BYTES: usize = 0;

    fn save(&self, _w: &mut StateWriter) {}

    fn load(_r: &mut StateReader<'_>) -> Self {}
}

/// As its IEEE-754 bit pattern, so every value round-trips exactly.
impl Persist for f64 {
    const MIN_BYTES: usize = 9;

    fn save(&self, w: &mut StateWriter) {
        w.write_u64(self.to_bits());
    }

    fn load(r: &mut StateReader<'_>) -> Self {
        f64::from_bits(r.read_u64())
    }
}

impl Persist for String {
    const MIN_BYTES: usize = 5;

    fn save(&self, w: &mut StateWriter) {
        w.write_str(self);
    }

    fn load(r: &mut StateReader<'_>) -> Self {
        r.read_str()
    }
}

/// As its picosecond count.
impl Persist for crate::Time {
    const MIN_BYTES: usize = 9;

    fn save(&self, w: &mut StateWriter) {
        w.write_u64(self.as_ps());
    }

    fn load(r: &mut StateReader<'_>) -> Self {
        crate::Time::from_ps(r.read_u64())
    }
}

/// As its stream position.
impl Persist for crate::SplitMix64 {
    const MIN_BYTES: usize = 9;

    fn save(&self, w: &mut StateWriter) {
        w.write_u64(self.state());
    }

    fn load(r: &mut StateReader<'_>) -> Self {
        crate::SplitMix64::new(r.read_u64())
    }
}

impl<T: Persist> Persist for Option<T> {
    const MIN_BYTES: usize = 2;

    fn save(&self, w: &mut StateWriter) {
        w.write_bool(self.is_some());
        if let Some(v) = self {
            v.save(w);
        }
    }

    fn load(r: &mut StateReader<'_>) -> Self {
        r.read_bool().then(|| T::load(r))
    }
}

impl<T: Persist> Persist for Vec<T> {
    const MIN_BYTES: usize = 9;

    fn save(&self, w: &mut StateWriter) {
        w.write_usize(self.len());
        for item in self {
            item.save(w);
        }
    }

    fn load(r: &mut StateReader<'_>) -> Self {
        let n = r.read_len(T::MIN_BYTES);
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::load(r));
        }
        items
    }
}

impl<T: Persist> Persist for VecDeque<T> {
    const MIN_BYTES: usize = 9;

    fn save(&self, w: &mut StateWriter) {
        w.write_usize(self.len());
        for item in self {
            item.save(w);
        }
    }

    fn load(r: &mut StateReader<'_>) -> Self {
        let n = r.read_len(T::MIN_BYTES);
        let mut items = VecDeque::with_capacity(n);
        for _ in 0..n {
            items.push_back(T::load(r));
        }
        items
    }
}

/// Its items, with no length: the length is part of the type.
impl<T: Persist, const N: usize> Persist for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;

    fn save(&self, w: &mut StateWriter) {
        for item in self {
            item.save(w);
        }
    }

    fn load(r: &mut StateReader<'_>) -> Self {
        std::array::from_fn(|_| T::load(r))
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;

    fn save(&self, w: &mut StateWriter) {
        self.0.save(w);
        self.1.save(w);
    }

    fn load(r: &mut StateReader<'_>) -> Self {
        let a = A::load(r);
        (a, B::load(r))
    }
}

/// Refuses `key` unless it follows the previous key of its map strictly:
/// an encoded map is in ascending key order, so a repeated or reordered key
/// is a forged blob, not a map.
fn check_ascending<K: Ord + Clone>(r: &mut StateReader<'_>, last: &mut Option<K>, key: &K) {
    if last.as_ref().is_some_and(|last| last >= key) {
        r.refuse("map keys out of order");
    }
    *last = Some(key.clone());
}

/// Its `(key, value)` entries in ascending key order.
impl<K: Persist + Ord + Hash + Clone, V: Persist> Persist for HashMap<K, V> {
    const MIN_BYTES: usize = 9;

    fn save(&self, w: &mut StateWriter) {
        let mut entries: Vec<_> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        w.write_usize(entries.len());
        for (key, value) in entries {
            key.save(w);
            value.save(w);
        }
    }

    fn load(r: &mut StateReader<'_>) -> Self {
        let n = r.read_len(K::MIN_BYTES + V::MIN_BYTES);
        let mut map = HashMap::with_capacity(n);
        let mut last = None;
        for _ in 0..n {
            let key = K::load(r);
            check_ascending(r, &mut last, &key);
            map.insert(key, V::load(r));
        }
        map
    }
}

/// Its keys in ascending order.
impl<K: Persist + Ord + Hash + Clone> Persist for HashSet<K> {
    const MIN_BYTES: usize = 9;

    fn save(&self, w: &mut StateWriter) {
        let mut keys: Vec<_> = self.iter().collect();
        keys.sort_unstable();
        w.write_usize(keys.len());
        for key in keys {
            key.save(w);
        }
    }

    fn load(r: &mut StateReader<'_>) -> Self {
        let n = r.read_len(K::MIN_BYTES);
        let mut set = HashSet::with_capacity(n);
        let mut last = None;
        for _ in 0..n {
            let key = K::load(r);
            check_ascending(r, &mut last, &key);
            set.insert(key);
        }
        set
    }
}

/// Declares the dynamic state of a type once and derives its snapshot
/// codec from the declaration.
///
/// Two forms. For a stateful object — a component, or a device inside one
/// — list its dynamic fields in write order, optionally followed by
/// `then` and the name of an inherent check hook
/// `fn(&mut self, &mut StateReader<'_>)`:
///
/// ```ignore
/// mpsoc_kernel::snapshot_state! {
///     impl Snapshot for StbusNode {
///         outstanding, req_busy, resp_busy, sticky, in_flight,
///     } then rederive
/// }
/// ```
///
/// This generates [`Snapshot`]: `save` writes every field through
/// [`Persist`]; `restore` assigns every field from the reader, then calls
/// the hook, which rebuilds what is derived from the fields and
/// range-checks decoded indices against structure
/// ([`StateReader::refuse`] when one does not fit). A field may be a path
/// (`config.wait_states`), and a field marked `#[snapshot]` is an object
/// restored in place through its own [`Snapshot`] impl (a cache whose
/// geometry is structure).
///
/// For a plain value whose encoding is its field list, name every field:
///
/// ```ignore
/// mpsoc_kernel::snapshot_state! {
///     impl Persist for ReplayEntry { txn, target, attempt, deadline, faults }
/// }
/// ```
///
/// which generates [`Persist`], loading the struct literal in the listed
/// order.
#[macro_export]
macro_rules! snapshot_state {
    (
        impl Snapshot for $ty:ty {
            $($(#[$kind:ident])? $($field:ident).+),+ $(,)?
        } $(then $hook:ident)?
    ) => {
        impl $crate::Snapshot for $ty {
            fn save(&self, w: &mut $crate::StateWriter) {
                $($crate::snapshot_state!(@save [$($kind)?] self.$($field).+, w);)+
            }

            fn restore(&mut self, r: &mut $crate::StateReader<'_>) {
                $($crate::snapshot_state!(@restore [$($kind)?] self.$($field).+, r);)+
                $(self.$hook(r);)?
            }
        }
    };
    (
        impl Persist for $ty:ident { $($field:ident),+ $(,)? }
    ) => {
        impl $crate::Persist for $ty {
            fn save(&self, w: &mut $crate::StateWriter) {
                $($crate::Persist::save(&self.$field, w);)+
            }

            fn load(r: &mut $crate::StateReader<'_>) -> Self {
                $ty { $($field: $crate::Persist::load(r)),+ }
            }
        }
    };
    (@save [] $place:expr, $w:ident) => {
        $crate::Persist::save(&$place, $w)
    };
    (@save [snapshot] $place:expr, $w:ident) => {
        $crate::Snapshot::save(&$place, $w)
    };
    (@restore [] $place:expr, $r:ident) => {
        $place = $crate::Persist::load($r)
    };
    (@restore [snapshot] $place:expr, $r:ident) => {
        $crate::Snapshot::restore(&mut $place, $r)
    };
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
        Time::from_ns(125).save(&mut w);
        Some(42u64).save(&mut w);
        None::<u64>.save(&mut w);
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
        assert_eq!(Time::load(&mut r), Time::from_ns(125));
        assert_eq!(Option::<u64>::load(&mut r), Some(42));
        assert_eq!(Option::<u64>::load(&mut r), None);
        r.finish().expect("clean finish");
    }

    /// The generic encodings are the ones the hand-written codecs used: an
    /// option is a flag then the value, a sequence a `usize` length then
    /// its items, a map its entries in key order, an array and a tuple
    /// their items alone.
    #[test]
    fn composite_encodings_are_flags_lengths_and_items() {
        let by_hand = {
            let mut w = StateWriter::new();
            w.write_bool(true);
            w.write_u32(7);
            w.write_usize(2);
            w.write_u64(1);
            w.write_u64(2);
            w.write_usize(2);
            w.write_u16(3);
            w.write_bool(false);
            w.write_u16(9);
            w.write_bool(true);
            w.write_u8(4);
            w.write_u8(5);
            w.finish()
        };
        let mut w = StateWriter::new();
        Some(7u32).save(&mut w);
        vec![1u64, 2].save(&mut w);
        HashMap::from([(9u16, true), (3u16, false)]).save(&mut w);
        (4u8, 5u8).save(&mut w);
        let derived = w.finish();
        assert_eq!(derived.as_bytes(), by_hand.as_bytes());

        let mut r = StateReader::new(&derived).expect("open");
        assert_eq!(Option::<u32>::load(&mut r), Some(7));
        assert_eq!(VecDeque::<u64>::load(&mut r), VecDeque::from([1, 2]));
        assert_eq!(
            HashMap::<u16, bool>::load(&mut r),
            HashMap::from([(3, false), (9, true)])
        );
        assert_eq!(<[u8; 2]>::load(&mut r), [4, 5]);
        r.finish().expect("clean finish");
    }

    fn reader_on(write: impl FnOnce(&mut StateWriter)) -> SnapshotBlob {
        let mut w = StateWriter::new();
        write(&mut w);
        w.finish()
    }

    #[test]
    fn a_length_the_remaining_bytes_cannot_hold_poisons() {
        for forged in [u64::MAX, 3] {
            let blob = reader_on(|w| {
                w.write_u64(forged);
                w.write_u64(1);
                w.write_u64(2);
            });
            let mut r = StateReader::new(&blob).expect("open");
            assert!(Vec::<u64>::load(&mut r).is_empty());
            let err = r.finish().expect_err("forged length");
            assert!(
                matches!(&err, SnapshotError::Corrupt { at: 6, detail } if detail.contains("length")),
                "{err}"
            );
        }
        let blob = reader_on(|w| vec![1u64, 2].save(w));
        let mut r = StateReader::new(&blob).expect("open");
        assert_eq!(Vec::<u64>::load(&mut r), [1, 2]);
        r.finish().expect("an honest length fits");
    }

    #[test]
    fn an_out_of_range_index_or_unknown_tag_poisons() {
        let blob = reader_on(|w| {
            w.write_usize(2);
            w.write_usize(3);
        });
        let mut r = StateReader::new(&blob).expect("open");
        assert_eq!(r.read_index(3), 2);
        assert_eq!(r.read_index(3), 0);
        assert!(r.finish().is_err());

        let blob = reader_on(|w| w.write_u8(9));
        let mut r = StateReader::new(&blob).expect("open");
        let tag = r.read_u8();
        assert_eq!(r.unknown_tag(tag, "placeholder"), "placeholder");
        assert!(r.finish().is_err());
    }

    #[test]
    fn map_keys_out_of_order_or_repeated_poison() {
        for keys in [[2u64, 1], [5, 5]] {
            let blob = reader_on(|w| {
                w.write_usize(2);
                for key in keys {
                    w.write_u64(key);
                    w.write_bool(true);
                }
            });
            let mut r = StateReader::new(&blob).expect("open");
            HashMap::<u64, bool>::load(&mut r);
            assert!(r.finish().is_err(), "keys {keys:?}");
            let blob = reader_on(|w| {
                w.write_usize(2);
                for key in keys {
                    w.write_u64(key);
                }
            });
            let mut r = StateReader::new(&blob).expect("open");
            HashSet::<u64>::load(&mut r);
            assert!(r.finish().is_err(), "set keys {keys:?}");
        }
    }

    #[derive(Debug, PartialEq)]
    struct Entry {
        at: Time,
        tries: u32,
        tags: Vec<u8>,
    }

    crate::snapshot_state! {
        impl Persist for Entry { at, tries, tags }
    }

    #[derive(Debug, Default)]
    struct Device {
        ports: usize,
        held: Vec<Option<u64>>,
        count: u64,
        derived: u64,
    }

    impl Device {
        fn rederive(&mut self, r: &mut StateReader<'_>) {
            if self.held.len() != self.ports {
                r.refuse("one entry per port");
            }
            self.derived = self.count * 2;
        }
    }

    crate::snapshot_state! {
        impl Snapshot for Device { held, count } then rederive
    }

    #[test]
    fn the_declaration_writes_fields_in_order_and_restores_through_the_hook() {
        let entry = Entry {
            at: Time::from_ns(3),
            tries: 2,
            tags: vec![1, 2],
        };
        let device = Device {
            ports: 2,
            held: vec![Some(4), None],
            count: 5,
            derived: 0,
        };
        let blob = reader_on(|w| {
            entry.save(w);
            Snapshot::save(&device, w);
        });
        let by_hand = reader_on(|w| {
            w.write_u64(3_000);
            w.write_u32(2);
            w.write_usize(2);
            w.write_u8(1);
            w.write_u8(2);
            w.write_usize(2);
            w.write_bool(true);
            w.write_u64(4);
            w.write_bool(false);
            w.write_u64(5);
        });
        assert_eq!(blob.as_bytes(), by_hand.as_bytes());

        let mut r = StateReader::new(&blob).expect("open");
        assert_eq!(Entry::load(&mut r), entry);
        let mut restored = Device {
            ports: 2,
            ..Device::default()
        };
        restored.restore(&mut r);
        r.finish().expect("fits");
        assert_eq!(restored.held, device.held);
        assert_eq!((restored.count, restored.derived), (5, 10));

        let mut r = StateReader::new(&blob).expect("open");
        Entry::load(&mut r);
        let mut narrower = Device {
            ports: 3,
            ..Device::default()
        };
        narrower.restore(&mut r);
        assert!(r.finish().is_err(), "the hook refuses a misfit");
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
