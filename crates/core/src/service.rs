//! Simulation-as-a-service building blocks: decoding a sweep request into
//! a platform spec and producing/consuming warm-prefix checkpoints.
//!
//! The sweep server (`crates/server`) accepts requests of the shape
//! *platform configuration + workload + seed + sweep-axis value* and serves
//! each one by forking a **warm checkpoint**: the platform is simulated
//! once at the base memory speed, checkpointed at a traffic-anchored warm
//! boundary on the way, and every request for the same platform restores
//! that blob and runs only its own tail (its wait states, its fidelity
//! knobs). This module owns the pieces both sides need:
//!
//! * [`SweepRequest`] — the decoded request and its [`PlatformSpec`]
//!   mapping, plus the canonical wire names of every enum knob;
//! * [`warm_state`] / [`serve_point`] — produce a warm checkpoint and
//!   serve one sweep point from it. The fig4 experiment
//!   ([`crate::experiments::fig4`]) is exactly this sweep for one fixed
//!   configuration: every cell of its table is [`serve_point_on`] from a
//!   warm state made by [`warm_state`]'s body, on platforms built from a
//!   spec that also carries the run's execution mode;
//! * [`PlatformPool`] — the platforms that served a tail, kept for the next
//!   fork of the same warm key: [`Platform::restore`] is a complete reset,
//!   so a served point restores into one of them instead of building.
//!
//! # One simulation per warm-up
//!
//! The boundary is defined by the base run's *total* injection count, which
//! only a run to quiescence measures — but the builder knows the total in
//! advance ([`Platform::expected_transactions`]). [`warm_state`] therefore
//! checkpoints the probe itself at the chunk boundary where the predicted
//! threshold is crossed and lets the same platform run on for
//! `base_cycles`, instead of simulating the prefix a second time — in every
//! gear. The prediction is verified on every call: the boundary is still
//! derived from the samples and the drained total, and a capture taken at
//! any other instant is discarded and the probe's chunk schedule replayed
//! to the boundary, which reproduces the capture byte for byte.
//!
//! # Determinism contract
//!
//! Everything here is a pure function of the request: the warm boundary is
//! sampled on fixed [`CHUNK`] boundaries, checkpoints are byte-identical
//! across runs of the same spec, and [`serve_point`] continues the exact
//! tick sequence the cold run would have executed (snapshot restore is
//! bit-exact, proven by the snapshot proptests). A cache hit therefore
//! returns byte-identical results to a cold run — the server asserts this
//! and CI gates it end to end.

use crate::experiments::parallel_map_with;
use crate::platforms::{build_platform, MemorySystem, Platform, PlatformSpec, Topology, Workload};
use mpsoc_kernel::{
    Fidelity, Persist, RunOutcome, SimError, SimResult, SnapshotBlob, SnapshotError, StateReader,
    StateWriter, Time,
};
use mpsoc_protocol::ProtocolKind;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Wait states of the shared warm-up phase every sweep point starts from.
pub const BASE_WAIT_STATES: u32 = 1;

/// Fraction (permille) of the base run's **injected transactions** covered
/// by the shared warm prefix before a point switches to its own wait
/// states. Anchoring the boundary to traffic rather than execution time
/// keeps it meaningful at every scale: large runs end with a long
/// low-traffic drain tail, so a time fraction would land past all the
/// memory activity and flatten the sweep.
pub const WARM_PERMILLE: u64 = 980;

/// Granularity at which the probe samples injection progress. The warm
/// boundary is always a multiple of this, which keeps it a deterministic
/// function of the spec alone.
pub const CHUNK: Time = Time::from_us(1);

/// Run horizon for probes and served tails, matching
/// [`Platform::run`](crate::Platform::run).
pub const SERVICE_HORIZON: Time = Time::from_ms(60);

/// One decoded sweep request: the platform the warm phase is built for
/// plus the point's own knobs (wait states, warm-phase gear).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepRequest {
    /// Interconnect protocol of every bus layer.
    pub protocol: ProtocolKind,
    /// Collapsed or distributed organisation.
    pub topology: Topology,
    /// Traffic mix.
    pub workload: Workload,
    /// Workload size multiplier.
    pub scale: u64,
    /// Simulation seed.
    pub seed: u64,
    /// Memory wait states the shared warm prefix runs at.
    pub base_wait_states: u32,
    /// The sweep-axis value: wait states applied at the warm boundary.
    pub wait_states: u32,
    /// Loosely-timed warm phase quantum (`None` = cycle-accurate warm-up).
    /// Results are approximate for quanta above 1, exactly like
    /// `repro --fast-warm`; the tail past the boundary is always
    /// cycle-accurate.
    pub fast_gear: Option<u64>,
    /// Ignored: every tail ticks serially. Intra-edge parallel ticking
    /// was removed; the field stays so that code which still sets it — the
    /// benchmark harness does — keeps compiling. Independent points fan
    /// out over threads instead (the server's `jobs`).
    pub tick_jobs: usize,
}

impl Default for SweepRequest {
    fn default() -> Self {
        SweepRequest {
            protocol: ProtocolKind::StbusT3,
            topology: Topology::Distributed,
            workload: Workload::BurstyPosted,
            scale: crate::experiments::DEFAULT_SCALE,
            seed: crate::experiments::DEFAULT_SEED,
            base_wait_states: BASE_WAIT_STATES,
            wait_states: BASE_WAIT_STATES,
            fast_gear: None,
            tick_jobs: 1,
        }
    }
}

/// Parses a protocol wire name (`stbus-t1`, `stbus-t2`, `stbus-t3`,
/// `ahb`, `axi`).
///
/// # Errors
///
/// Returns the list of valid names for anything else.
pub fn parse_protocol(s: &str) -> Result<ProtocolKind, String> {
    match s {
        "stbus-t1" => Ok(ProtocolKind::StbusT1),
        "stbus-t2" => Ok(ProtocolKind::StbusT2),
        "stbus-t3" => Ok(ProtocolKind::StbusT3),
        "ahb" => Ok(ProtocolKind::Ahb),
        "axi" => Ok(ProtocolKind::Axi),
        other => Err(format!(
            "unknown protocol '{other}' (expected stbus-t1, stbus-t2, stbus-t3, ahb or axi)"
        )),
    }
}

/// The canonical wire name [`parse_protocol`] accepts.
pub fn protocol_wire_name(p: ProtocolKind) -> &'static str {
    match p {
        ProtocolKind::StbusT1 => "stbus-t1",
        ProtocolKind::StbusT2 => "stbus-t2",
        ProtocolKind::StbusT3 => "stbus-t3",
        ProtocolKind::Ahb => "ahb",
        ProtocolKind::Axi => "axi",
    }
}

/// Parses a topology wire name (`single-layer`, `collapsed`,
/// `distributed`).
///
/// # Errors
///
/// Returns the list of valid names for anything else.
pub fn parse_topology(s: &str) -> Result<Topology, String> {
    match s {
        "single-layer" => Ok(Topology::SingleLayer),
        "collapsed" => Ok(Topology::Collapsed),
        "distributed" => Ok(Topology::Distributed),
        other => Err(format!(
            "unknown topology '{other}' (expected single-layer, collapsed or distributed)"
        )),
    }
}

/// The canonical wire name [`parse_topology`] accepts.
pub fn topology_wire_name(t: Topology) -> &'static str {
    match t {
        Topology::SingleLayer => "single-layer",
        Topology::Collapsed => "collapsed",
        Topology::Distributed => "distributed",
    }
}

/// Parses a workload wire name (`standard`, `two-phase`, `bursty-posted`).
///
/// # Errors
///
/// Returns the list of valid names for anything else.
pub fn parse_workload(s: &str) -> Result<Workload, String> {
    match s {
        "standard" => Ok(Workload::Standard),
        "two-phase" => Ok(Workload::TwoPhase),
        "bursty-posted" => Ok(Workload::BurstyPosted),
        other => Err(format!(
            "unknown workload '{other}' (expected standard, two-phase or bursty-posted)"
        )),
    }
}

/// The canonical wire name [`parse_workload`] accepts.
pub fn workload_wire_name(w: Workload) -> &'static str {
    match w {
        Workload::Standard => "standard",
        Workload::TwoPhase => "two-phase",
        Workload::BurstyPosted => "bursty-posted",
    }
}

impl SweepRequest {
    /// The spec of the shared warm phase: the platform at
    /// [`SweepRequest::base_wait_states`]. Every request that maps to the
    /// same base spec shares one warm checkpoint.
    pub fn base_spec(&self) -> PlatformSpec {
        PlatformSpec {
            protocol: self.protocol,
            topology: self.topology,
            memory: MemorySystem::OnChip {
                wait_states: self.base_wait_states,
            },
            workload: self.workload,
            scale: self.scale,
            seed: self.seed,
            ..PlatformSpec::default()
        }
    }

    /// The canonical warm-identity key: every request field that changes
    /// the warm checkpoint, in a stable textual form. Requests with equal
    /// keys share a warm blob; the sweep-axis value and the tail knob
    /// `wait_states` are deliberately excluded.
    ///
    /// The gear ends the key: `/g0` for a cycle-accurate warm-up, `/q{N}`
    /// for `Fast { quantum: N }` — never the `/g{N}` under which an older
    /// fast-gear warm-up procedure spilled its (different) states.
    pub fn warm_key(&self) -> String {
        let gear = match self.warm_fidelity() {
            Fidelity::Cycle => "g0".to_owned(),
            Fidelity::Fast { quantum } => format!("q{quantum}"),
        };
        format!(
            "{}/{}/{}/s{}/x{:#x}/b{}/{gear}",
            protocol_wire_name(self.protocol),
            topology_wire_name(self.topology),
            workload_wire_name(self.workload),
            self.scale,
            self.seed,
            self.base_wait_states,
        )
    }

    /// The warm-phase gear this request asks for.
    pub fn warm_fidelity(&self) -> Fidelity {
        match self.fast_gear {
            None => Fidelity::Cycle,
            Some(quantum) => Fidelity::Fast {
                quantum: quantum.max(1),
            },
        }
    }
}

/// The deterministic warm profile of one platform spec: the base-run
/// result and the instant at which sweep points diverge from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmProfile {
    /// Execution cycles of the straight base run (the base sweep point).
    pub base_cycles: u64,
    /// Simulation time up to which every point runs at the base wait
    /// states.
    pub warm_until: Time,
}

/// The probe: runs `platform` (fresh from the builder, in the gear it was
/// set to) to quiescence and derives the warm profile.
///
/// The base run is stepped in [`CHUNK`]-sized slices, sampling the injected
/// transaction count at every boundary; stepping a run this way is
/// bit-identical to running it uninterrupted. The warm boundary is the
/// earliest chunk boundary at which at least [`WARM_PERMILLE`] of the run's
/// total injections have happened — a deterministic instant every sweep
/// point can replay before diverging.
///
/// In a loosely-timed gear the probe's injection timeline (and with it the
/// sampled warm boundary and the quiescence instant) is approximate: its
/// `base_cycles` is the chunk-clipped fast run's, not a cell of any table —
/// every cell, the base one included, is a tail served from the blob. At
/// `Fast { quantum: 1 }` the trace is byte-identical to the cycle-gear one.
///
/// With `predicted_total` given, the loop also checkpoints the platform at
/// the first chunk boundary whose injection count reaches
/// [`WARM_PERMILLE`] of that prediction — where the boundary will be if
/// the prediction is the run's real total. The blob is returned only when
/// that instant turns out to be the derived `warm_until`: a prediction is
/// checked on every call, never trusted, and a wrong one (or a threshold
/// first met inside the final chunk, where the boundary falls back to the
/// last sample) yields `None` and costs the caller a replay, not a wrong
/// checkpoint.
///
/// # Errors
///
/// Fails if the platform stalls before the horizon (model bug).
fn warm_pass(
    mut platform: Platform,
    predicted_total: Option<u64>,
) -> SimResult<(WarmProfile, Option<SnapshotBlob>)> {
    let capture_from = predicted_total.map(|total| total * WARM_PERMILLE / 1000);
    let mut captured: Option<(Time, SnapshotBlob)> = None;
    let mut samples: Vec<(Time, u64)> = Vec::new();
    let mut horizon = Time::ZERO;
    let exec = loop {
        horizon += CHUNK;
        match platform.sim_mut().run_to_quiescence(horizon) {
            RunOutcome::Quiescent { at } => break Some(at),
            RunOutcome::HorizonReached { .. } if horizon >= SERVICE_HORIZON => {
                return platform
                    .sim_mut()
                    .run_to_quiescence_strict(SERVICE_HORIZON)
                    .map(|_| unreachable!("probe already hit the horizon"));
            }
            RunOutcome::HorizonReached { .. } => {
                let injected = platform.injected_so_far();
                samples.push((horizon, injected));
                if captured.is_none() && capture_from.is_some_and(|from| injected >= from) {
                    captured = Some((horizon, platform.checkpoint()));
                }
            }
        }
    };
    let total = platform.injected_so_far();
    let threshold = total * WARM_PERMILLE / 1000;
    let warm_until = samples
        .iter()
        .find(|(_, injected)| *injected >= threshold)
        .or(samples.last())
        .map_or(Time::ZERO, |(at, _)| *at);
    let profile = WarmProfile {
        base_cycles: exec.map_or(0, |at| platform.exec_cycles_at(at)),
        warm_until,
    };
    let blob = captured
        .filter(|(at, _)| *at == warm_until)
        .map(|(_, blob)| blob);
    Ok((profile, blob))
}

/// A reusable warm checkpoint: the probe's profile, the blob taken at the
/// warm boundary, and the structural fingerprint of the platform that
/// produced it. This is what the server's LRU cache stores and forks.
#[derive(Debug, Clone)]
pub struct WarmState {
    /// The probe's warm profile.
    pub profile: WarmProfile,
    /// The checkpoint taken at [`WarmProfile::warm_until`]. Cloning is a
    /// reference-count bump, so one blob serves many concurrent forks.
    pub blob: SnapshotBlob,
    /// Structural fingerprint of the producing platform. A consumer must
    /// only fork this state into a platform with an equal fingerprint.
    pub fingerprint: u64,
}

/// Section name of the disk-spill container around a warm state.
const SPILL_SECTION: &str = "warm-spill";

impl WarmState {
    /// Packs the warm state into a sealed spill blob for disk persistence.
    ///
    /// The container is an ordinary armoured snapshot blob (magic, version,
    /// checksum) carrying the warm key, the structural fingerprint, the
    /// probe profile and the inner checkpoint bytes — the inner blob keeps
    /// its own seal, so a loader validates two independent checksums before
    /// anything is served.
    pub fn to_spill_blob(&self, warm_key: &str) -> SnapshotBlob {
        let mut w = StateWriter::new();
        w.section(SPILL_SECTION);
        w.write_str(warm_key);
        w.write_u64(self.fingerprint);
        w.write_u64(self.profile.base_cycles);
        self.profile.warm_until.save(&mut w);
        w.write_bytes(self.blob.as_bytes());
        w.finish()
    }

    /// Unpacks a spill blob written by [`WarmState::to_spill_blob`],
    /// failing closed on every mismatch.
    ///
    /// # Errors
    ///
    /// Rejects (without constructing a state) any of: outer armour damage
    /// ([`SnapshotError::BadMagic`] / `BadVersion` / `BadChecksum` /
    /// `Corrupt` / `TrailingBytes`), a warm key that is not `warm_key`, a
    /// recorded fingerprint different from `expected_fingerprint`, or an
    /// inner blob whose own seal or stamped fingerprint disagrees. A
    /// corrupted or stale spill file therefore can never reach
    /// [`serve_point`].
    pub fn from_spill_blob(
        spill: &SnapshotBlob,
        warm_key: &str,
        expected_fingerprint: u64,
    ) -> Result<WarmState, SnapshotError> {
        let mut r = StateReader::new(spill)?;
        r.expect_section(SPILL_SECTION);
        let stored_key = r.read_str();
        let fingerprint = r.read_u64();
        let base_cycles = r.read_u64();
        let warm_until = Time::load(&mut r);
        let blob = SnapshotBlob::from_bytes(r.read_bytes());
        r.finish()?;
        if stored_key != warm_key {
            return Err(SnapshotError::StructureMismatch {
                detail: format!("spill holds warm key {stored_key:?}, wanted {warm_key:?}"),
            });
        }
        if fingerprint != expected_fingerprint {
            return Err(SnapshotError::StructureMismatch {
                detail: format!(
                    "spill fingerprint {fingerprint:#018x} does not match \
                     expected {expected_fingerprint:#018x}"
                ),
            });
        }
        if blob.fingerprint()? != fingerprint {
            return Err(SnapshotError::StructureMismatch {
                detail: "inner checkpoint fingerprint disagrees with spill header".into(),
            });
        }
        Ok(WarmState {
            profile: WarmProfile {
                base_cycles,
                warm_until,
            },
            blob,
            fingerprint,
        })
    }
}

/// Produces the warm state of a request: the probe's profile and the
/// checkpoint at its warm boundary.
///
/// A warm-up is **one simulation**, in every gear. The run's total
/// injection count is known before it starts
/// ([`Platform::expected_transactions`]), so the probe recognises the warm
/// boundary as it crosses it, checkpoints there and runs on to quiescence
/// for `base_cycles`. The boundary is still derived afterwards from the
/// samples and the drained total; the captured blob is used only if it was
/// taken at exactly that instant, and otherwise a fresh platform replays
/// the probe's [`CHUNK`] schedule to the boundary and rebuilds it byte for
/// byte — the prediction saves time when right and changes nothing when
/// wrong.
///
/// In a loosely-timed warm gear ([`SweepRequest::fast_gear`]) the prefix
/// is the probe's: its fast-forward windows are clipped at every [`CHUNK`]
/// boundary, where every component is synchronised. The blob carries no
/// gear, so it is an ordinary checkpoint (identical structural
/// fingerprint) and every served tail runs cycle-accurately from it.
///
/// Deterministic: the same request always produces a byte-identical blob.
///
/// # Errors
///
/// Fails if the platform stalls (model bug).
pub fn warm_state(req: &SweepRequest) -> SimResult<WarmState> {
    warm_state_of(&req.base_spec(), req.warm_fidelity())
}

/// [`warm_state`] for any platform spec: the warm phase runs in `gear`,
/// under the schedule of `spec.exec`. What the fig4 experiment
/// calls, with the run's execution mode in the spec.
pub(crate) fn warm_state_of(spec: &PlatformSpec, gear: Fidelity) -> SimResult<WarmState> {
    warm_state_predicting(spec, gear, Some(|expected| expected)).map(|(state, _)| state)
}

/// [`warm_state_of`] without the one-pass capture: probe, then
/// [`replay_to_boundary`], in every gear. The same state, byte for byte;
/// the EXT-FAST study times this so that every gear pays the same two
/// passes.
pub(crate) fn warm_state_two_pass(spec: &PlatformSpec, gear: Fidelity) -> SimResult<WarmState> {
    warm_state_predicting(spec, gear, None).map(|(state, _)| state)
}

/// The body of [`warm_state_of`] and [`warm_state_two_pass`]. A probe
/// given a `predict` captures at the boundary it predicts from the
/// builder's injection total (tests mispredict on purpose to drive the
/// verification branch); without one the prefix is replayed. Also reports
/// whether the blob came from the capture.
fn warm_state_predicting(
    spec: &PlatformSpec,
    gear: Fidelity,
    predict: Option<fn(u64) -> u64>,
) -> SimResult<(WarmState, bool)> {
    let mut platform = build_platform(spec)?;
    let fingerprint = platform.structural_fingerprint();
    platform.sim_mut().set_fidelity(gear);
    let predicted_total = predict.map(|predict| predict(platform.expected_transactions()));
    let (profile, captured) = warm_pass(platform, predicted_total)?;
    let one_pass = captured.is_some();
    let blob = match captured {
        Some(blob) => blob,
        None => replay_to_boundary(spec, gear, profile.warm_until)?,
    };
    Ok((
        WarmState {
            profile,
            blob,
            fingerprint,
        },
        one_pass,
    ))
}

/// Replays the probe's [`CHUNK`] schedule on a fresh platform of `spec`, in
/// `gear`, up to `warm_until` (a chunk boundary) and checkpoints it there:
/// the second pass of [`warm_state_two_pass`] and the fallback of a
/// capture that missed the boundary. Every chunk is the probe's own
/// bounded run, so the blob is the one the probe passes through at
/// `warm_until`, byte for byte, in every gear; in the cycle gear it is also
/// a straight `run_until(warm_until)`'s.
fn replay_to_boundary(
    spec: &PlatformSpec,
    gear: Fidelity,
    warm_until: Time,
) -> SimResult<SnapshotBlob> {
    let mut platform = build_platform(spec)?;
    platform.sim_mut().set_fidelity(gear);
    let mut horizon = Time::ZERO;
    while horizon < warm_until {
        horizon += CHUNK;
        platform.sim_mut().run_to_quiescence(horizon);
    }
    Ok(platform.checkpoint())
}

/// Serves one sweep point from a warm state: builds a fresh platform from
/// the request's base spec, forks the blob into it, applies the point's
/// wait states, and runs the tail to quiescence.
///
/// Returns the tail's execution time in reference-clock cycles — for the
/// base point (`wait_states == base_wait_states`) this equals the probe's
/// `base_cycles`, because the fork continues the exact tick sequence the
/// uninterrupted run executed.
///
/// # Errors
///
/// Fails if the blob's fingerprint does not match the freshly built
/// platform (never served from a correct cache), on a corrupt blob, or if
/// the tail stalls.
pub fn serve_point(req: &SweepRequest, warm: &WarmState) -> SimResult<u64> {
    serve_point_on(&mut build_platform(&req.base_spec())?, req, warm)
}

/// [`serve_point`] on a platform the caller holds, built from
/// `req.base_spec()` — fresh, or one that has served tails before: restore
/// is a complete reset, so both give the same answer.
///
/// # Errors
///
/// Same as [`serve_point`].
pub fn serve_point_on(
    platform: &mut Platform,
    req: &SweepRequest,
    warm: &WarmState,
) -> SimResult<u64> {
    let own = platform.structural_fingerprint();
    if own != warm.fingerprint {
        return Err(SimError::Snapshot {
            source: mpsoc_kernel::SnapshotError::StructureMismatch {
                detail: format!(
                    "warm state fingerprint {:#018x} does not match request platform {own:#018x}",
                    warm.fingerprint
                ),
            },
        });
    }
    platform.restore(&warm.blob)?;
    if !platform.set_memory_wait_states(req.wait_states) {
        return Err(SimError::InvalidConfig {
            reason: "sweep requests target on-chip memory platforms".into(),
        });
    }
    let exec = platform
        .sim_mut()
        .run_to_quiescence_strict(SERVICE_HORIZON)?;
    Ok(platform.exec_cycles_at(exec))
}

/// Idle platforms kept for reuse, keyed by [`SweepRequest::warm_key`].
///
/// A served point takes a kept platform of its key — or builds one when
/// none is free — restores its warm blob into it, runs the tail and gives
/// the platform back. [`Platform::restore`] is a complete reset, so the
/// answer is the one a fresh build gives; what the pool saves is the
/// build. At most `capacity` platforms are kept; one more evicts the least
/// recently used.
///
/// A platform enters the pool only after a cycle-gear tail ran on it, or
/// unrun, through [`PlatformPool::offer`]; one whose restore or tail failed
/// is dropped.
#[derive(Debug)]
pub struct PlatformPool {
    capacity: usize,
    /// Least recently kept first.
    idle: Mutex<VecDeque<Idle>>,
    kept: AtomicU64,
    built: AtomicU64,
}

#[derive(Debug)]
struct Idle {
    key: String,
    platform: Platform,
    /// Whether a tail has run on it; an unrun platform was built for the
    /// point that takes it.
    served: bool,
}

impl PlatformPool {
    /// An empty pool keeping at most `capacity` idle platforms (0 keeps
    /// none: every point builds).
    pub fn new(capacity: usize) -> PlatformPool {
        PlatformPool {
            capacity,
            idle: Mutex::new(VecDeque::with_capacity(capacity)),
            kept: AtomicU64::new(0),
            built: AtomicU64::new(0),
        }
    }

    /// The structural fingerprint of a kept platform of `key` — what a
    /// cached warm state of the key must match — or `None` if none is
    /// kept.
    pub fn fingerprint(&self, key: &str) -> Option<u64> {
        let idle = self.idle.lock().expect("platform pool");
        idle.iter()
            .rev()
            .find(|kept| kept.key == key)
            .map(|kept| kept.platform.structural_fingerprint())
    }

    /// Keeps `platform`, freshly built for a request of `key` and not yet
    /// run, for that request's first point, which counts it as a build.
    pub fn offer(&self, key: String, platform: Platform) {
        self.keep(key, platform, false);
    }

    /// Points served on a kept platform so far.
    pub fn forks_kept(&self) -> u64 {
        self.kept.load(Ordering::Relaxed)
    }

    /// Points that built their platform so far.
    pub fn forks_built(&self) -> u64 {
        self.built.load(Ordering::Relaxed)
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.idle.lock().expect("platform pool").len()
    }

    fn keep(&self, key: String, platform: Platform, served: bool) {
        if self.capacity == 0 {
            return;
        }
        let mut idle = self.idle.lock().expect("platform pool");
        if idle.len() == self.capacity {
            idle.pop_front();
        }
        idle.push_back(Idle {
            key,
            platform,
            served,
        });
    }

    /// The most recently kept platform of `req`'s key, or one built for
    /// it; counts the fork.
    fn checkout(&self, req: &SweepRequest) -> SimResult<Platform> {
        let key = req.warm_key();
        let taken = {
            let mut idle = self.idle.lock().expect("platform pool");
            idle.iter()
                .rposition(|kept| kept.key == key)
                .and_then(|at| idle.remove(at))
        };
        match taken {
            Some(Idle {
                platform, served, ..
            }) => {
                let count = if served { &self.kept } else { &self.built };
                count.fetch_add(1, Ordering::Relaxed);
                Ok(platform)
            }
            None => {
                self.built.fetch_add(1, Ordering::Relaxed);
                build_platform(&req.base_spec())
            }
        }
    }

    /// Serves one point on a [`checkout`](Self::checkout) and keeps the
    /// platform if the tail ran.
    fn serve(&self, req: &SweepRequest, warm: &WarmState) -> SimResult<u64> {
        let mut platform = self.checkout(req)?;
        let cycles = serve_point_on(&mut platform, req, warm)?;
        if platform.sim().fidelity() == Fidelity::Cycle {
            self.keep(req.warm_key(), platform, true);
        }
        Ok(cycles)
    }
}

/// Serves many sweep points of one warm key as a single fan-out: every
/// request forks the same warm blob and the forks run under one
/// [`parallel_map_with`] with `jobs` workers.
///
/// This is the multi-cell primitive behind the server's array requests: a
/// whole `wait_states` axis of one platform costs one warm-up plus one
/// sweep, instead of N sweeps. Results come back in input order and each
/// is byte-identical to the [`serve_point`] the request would have run in
/// isolation — the fan-out changes wall-clock time, never values. Each
/// worker runs all its points on one platform, so the call builds at most
/// `jobs` platforms.
///
/// Per-point errors stay per-point: one stalling tail does not take down
/// the rest of the batch.
pub fn serve_points(reqs: Vec<SweepRequest>, warm: &WarmState, jobs: usize) -> Vec<SimResult<u64>> {
    serve_points_with(&PlatformPool::new(0), reqs, warm, jobs)
}

/// [`serve_points`] on a caller's [`PlatformPool`]. A single point takes a
/// kept platform of its key, or builds one, and gives it back to `pool`
/// once its tail has run, for the caller's next request of the key.
///
/// Several points fan out over workers that each take a kept platform of
/// the key, or build one, for their first point, run every later point on
/// the same platform, and drop it on their own thread when the call
/// returns ([`parallel_map_with`]). Kept in `pool` past the call — or
/// dropped by another thread once the fan-out is over — those platforms
/// raised `simserved`'s peak RSS on six-point axes at scale 4 by 9-28 %,
/// about five times their live bytes, while dropped on their own worker
/// thread they cost nothing measurable (DESIGN.md, "Kept platforms"). The
/// build they would save is a few percent of a multi-point request,
/// against a fifth of a single-point hit.
pub fn serve_points_with(
    pool: &PlatformPool,
    reqs: Vec<SweepRequest>,
    warm: &WarmState,
    jobs: usize,
) -> Vec<SimResult<u64>> {
    if let [req] = &reqs[..] {
        return vec![pool.serve(req, warm)];
    }
    parallel_map_with(reqs, jobs, |mine: &mut Option<Platform>, req| {
        let mut platform = match mine.take() {
            Some(platform) => {
                pool.kept.fetch_add(1, Ordering::Relaxed);
                platform
            }
            None => pool.checkout(&req)?,
        };
        let cycles = serve_point_on(&mut platform, &req, warm)?;
        *mine = Some(platform);
        Ok(cycles)
    })
}

/// Serves one sweep point cold: computes the warm state from scratch and
/// forks it once. The reference the server's cache-hit path is asserted
/// against — a cache hit must return exactly this value.
///
/// # Errors
///
/// Same as [`warm_state`] and [`serve_point`].
pub fn cold_point(req: &SweepRequest) -> SimResult<u64> {
    let warm = warm_state(req)?;
    serve_point(req, &warm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::parallel_map;

    fn quick_request() -> SweepRequest {
        SweepRequest {
            scale: 1,
            seed: 0x0dab,
            ..SweepRequest::default()
        }
    }

    /// The reference the capture is proven against: a probe without a
    /// prediction for the profile, then a fresh platform in the request's
    /// gear run chunk by chunk to the boundary and checkpointed. In the
    /// cycle gear that blob is also a straight run's.
    fn chunk_replayed_warm_state(req: &SweepRequest) -> WarmState {
        let spec = req.base_spec();
        let gear = req.warm_fidelity();
        let mut probe = build_platform(&spec).expect("builds");
        probe.sim_mut().set_fidelity(gear);
        let (profile, _) = warm_pass(probe, None).expect("probe");
        let mut platform = build_platform(&spec).expect("builds");
        platform.sim_mut().set_fidelity(gear);
        let mut horizon = Time::ZERO;
        while horizon < profile.warm_until {
            horizon += CHUNK;
            platform.sim_mut().run_until(horizon);
        }
        let blob = platform.checkpoint();
        if gear == Fidelity::Cycle {
            let mut straight = build_platform(&spec).expect("builds");
            straight.sim_mut().run_until(profile.warm_until);
            assert!(
                straight.checkpoint().as_bytes() == blob.as_bytes(),
                "{}: a chunked cycle-gear run must be a straight one",
                req.warm_key()
            );
        }
        WarmState {
            profile,
            blob,
            fingerprint: platform.structural_fingerprint(),
        }
    }

    fn predicting(req: &SweepRequest, predict: fn(u64) -> u64) -> (WarmState, bool) {
        warm_state_predicting(&req.base_spec(), req.warm_fidelity(), Some(predict))
            .expect("warm state")
    }

    fn assert_same_state(got: &WarmState, want: &WarmState, key: &str) {
        assert_eq!(got.profile, want.profile, "{key}: profile");
        assert_eq!(got.fingerprint, want.fingerprint, "{key}: fingerprint");
        assert!(
            got.blob.as_bytes() == want.blob.as_bytes(),
            "{key}: checkpoint bytes differ"
        );
    }

    #[test]
    fn one_pass_warm_state_equals_the_two_pass_reference() {
        let mut reqs = Vec::new();
        for protocol in [
            ProtocolKind::StbusT1,
            ProtocolKind::StbusT3,
            ProtocolKind::Ahb,
            ProtocolKind::Axi,
        ] {
            for topology in [
                Topology::SingleLayer,
                Topology::Collapsed,
                Topology::Distributed,
            ] {
                for workload in [
                    Workload::Standard,
                    Workload::TwoPhase,
                    Workload::BurstyPosted,
                ] {
                    for fast_gear in [None, Some(1), Some(4), Some(64)] {
                        for (scale, seed) in [(1, 0x0dab), (2, 7)] {
                            reqs.push(SweepRequest {
                                protocol,
                                topology,
                                workload,
                                scale,
                                seed,
                                fast_gear,
                                ..SweepRequest::default()
                            });
                        }
                    }
                }
            }
        }
        assert_eq!(reqs.len(), 288);
        parallel_map(reqs, crate::experiments::host_cores(), |req| {
            let key = req.warm_key();
            let (state, one_pass) = predicting(&req, |expected| expected);
            assert!(one_pass, "{key}: every gear must capture in one pass");
            assert_same_state(&state, &chunk_replayed_warm_state(&req), &key);
        });
    }

    #[test]
    fn a_mispredicted_capture_costs_time_never_correctness() {
        for fast_gear in [None, Some(64)] {
            for topology in [Topology::Collapsed, Topology::Distributed] {
                let req = SweepRequest {
                    topology,
                    fast_gear,
                    ..quick_request()
                };
                let key = req.warm_key();
                let (want, one_pass) = predicting(&req, |expected| expected);
                assert!(one_pass, "{key}");
                // Twice the real total: the capture threshold is never
                // reached.
                let (never, one_pass) = predicting(&req, |expected| expected * 2);
                assert!(!one_pass, "{key}");
                assert_same_state(&never, &want, &format!("{key} prediction x2"));
                // Half of it: a blob is captured well before the boundary
                // and must be thrown away.
                let (early, one_pass) = predicting(&req, |expected| expected / 2);
                assert!(!one_pass, "{key}");
                assert_same_state(&early, &want, &format!("{key} prediction /2"));
                // No prediction at all is the two-pass route by name.
                let two_pass =
                    warm_state_two_pass(&req.base_spec(), req.warm_fidelity()).expect("warm state");
                assert_same_state(&two_pass, &want, &format!("{key} two passes"));
            }
        }
    }

    #[test]
    fn wire_names_round_trip() {
        for p in [
            ProtocolKind::StbusT1,
            ProtocolKind::StbusT2,
            ProtocolKind::StbusT3,
            ProtocolKind::Ahb,
            ProtocolKind::Axi,
        ] {
            assert_eq!(parse_protocol(protocol_wire_name(p)), Ok(p));
        }
        for t in [
            Topology::SingleLayer,
            Topology::Collapsed,
            Topology::Distributed,
        ] {
            assert_eq!(parse_topology(topology_wire_name(t)), Ok(t));
        }
        for w in [
            Workload::Standard,
            Workload::TwoPhase,
            Workload::BurstyPosted,
        ] {
            assert_eq!(parse_workload(workload_wire_name(w)), Ok(w));
        }
        assert!(parse_protocol("pci").is_err());
        assert!(parse_topology("ring").is_err());
        assert!(parse_workload("idle").is_err());
    }

    #[test]
    fn warm_key_excludes_tail_knobs() {
        let a = quick_request();
        let b = SweepRequest {
            wait_states: 16,
            ..quick_request()
        };
        assert_eq!(a.warm_key(), b.warm_key());
        let c = SweepRequest {
            seed: 1,
            ..quick_request()
        };
        assert_ne!(a.warm_key(), c.warm_key());
        let d = SweepRequest {
            fast_gear: Some(16),
            ..quick_request()
        };
        assert_ne!(a.warm_key(), d.warm_key());
    }

    #[test]
    fn warm_states_are_byte_identical_across_runs() {
        let req = quick_request();
        let a = warm_state(&req).expect("warm state");
        let b = warm_state(&req).expect("warm state");
        assert_eq!(a.blob.as_bytes(), b.blob.as_bytes());
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.profile, b.profile);
        assert_eq!(a.blob.fingerprint(), Ok(a.fingerprint));
    }

    #[test]
    fn base_point_fork_matches_the_probe() {
        let req = quick_request();
        let warm = warm_state(&req).expect("warm state");
        let served = serve_point(&req, &warm).expect("serves");
        assert_eq!(
            served, warm.profile.base_cycles,
            "forking the base point must continue the probe's exact run"
        );
    }

    #[test]
    fn a_served_point_reads_the_reports_exec_cycles() {
        let req = SweepRequest {
            wait_states: 8,
            ..quick_request()
        };
        let warm = warm_state(&req).expect("warm state");
        let mut platform = build_platform(&req.base_spec()).expect("builds");
        platform.restore(&warm.blob).expect("restores");
        assert!(platform.set_memory_wait_states(req.wait_states));
        let exec = platform
            .sim_mut()
            .run_to_quiescence_strict(SERVICE_HORIZON)
            .expect("drains");
        let cycles = platform.exec_cycles_at(exec);
        assert_eq!(cycles, platform.report_at(exec).exec_cycles);
        assert_eq!(serve_point(&req, &warm).expect("serves"), cycles);
    }

    #[test]
    fn mismatched_warm_state_is_refused() {
        let req = quick_request();
        let other = SweepRequest {
            topology: Topology::Collapsed,
            ..quick_request()
        };
        let warm = warm_state(&other).expect("warm state");
        let err = serve_point(&req, &warm).unwrap_err();
        assert!(
            err.to_string().contains("fingerprint"),
            "stale blob must be refused by fingerprint: {err}"
        );
    }

    #[test]
    fn serve_points_matches_isolated_serves() {
        let warm = warm_state(&quick_request()).expect("warm state");
        let cells: Vec<SweepRequest> = [1u32, 4, 16]
            .iter()
            .map(|&ws| SweepRequest {
                wait_states: ws,
                ..quick_request()
            })
            .collect();
        let isolated: Vec<u64> = cells
            .iter()
            .map(|req| serve_point(req, &warm).expect("serves"))
            .collect();
        let batched: Vec<u64> = serve_points(cells.clone(), &warm, 2)
            .into_iter()
            .map(|r| r.expect("serves"))
            .collect();
        assert_eq!(batched, isolated);
        // Points served on kept platforms — one a single point left in the
        // pool, and ones a worker carries from its last point at other wait
        // states — change nothing either, serially or fanned out.
        for jobs in [1, 2] {
            let pool = PlatformPool::new(4);
            for round in 0..cells.len() {
                let single = serve_points_with(&pool, vec![cells[round].clone()], &warm, jobs);
                assert_eq!(single.len(), 1);
                assert_eq!(single[0].as_ref().ok(), Some(&isolated[round]));
                assert_eq!(pool.len(), 1, "a single point keeps its platform");
                let mut axis = cells.clone();
                axis.rotate_left(round);
                let mut want = isolated.clone();
                want.rotate_left(round);
                let served: Vec<u64> = serve_points_with(&pool, axis, &warm, jobs)
                    .into_iter()
                    .map(|r| r.expect("serves"))
                    .collect();
                assert_eq!(served, want, "jobs {jobs}, round {round}");
                assert_eq!(pool.len(), 0, "an axis takes the kept platform along");
            }
            assert_eq!(pool.forks_kept() + pool.forks_built(), 12);
            assert!(
                pool.forks_built() <= 3 * jobs as u64,
                "a single point and each further worker build, nothing else: {}",
                pool.forks_built()
            );
        }
    }

    #[test]
    fn the_pool_keeps_the_most_recent_platforms_of_each_key() {
        let req = quick_request();
        let other = SweepRequest {
            topology: Topology::Collapsed,
            ..quick_request()
        };
        let pool = PlatformPool::new(2);
        let key = req.warm_key();
        assert_eq!(pool.fingerprint(&key), None);
        // An unrun platform offered for a request is kept, answers for the
        // key's fingerprint, and the point that takes it counts as a build.
        let built = build_platform(&req.base_spec()).expect("builds");
        let fingerprint = built.structural_fingerprint();
        pool.offer(key.clone(), built);
        let warm = warm_state(&req).expect("warm state");
        assert_eq!(fingerprint, warm.fingerprint);
        assert_eq!(pool.fingerprint(&key), Some(fingerprint));
        assert_eq!(pool.len(), 1);
        let want = serve_point(&req, &warm).expect("serves");
        assert_eq!(pool.serve(&req, &warm).expect("serves"), want);
        assert_eq!((pool.forks_kept(), pool.forks_built()), (0, 1));
        assert_eq!(pool.serve(&req, &warm).expect("serves"), want);
        assert_eq!((pool.forks_kept(), pool.forks_built()), (1, 1));
        // Two other keys evict the least recently kept platform.
        let third = SweepRequest {
            seed: 1,
            ..quick_request()
        };
        for req in [&other, &third] {
            let warm = warm_state(req).expect("warm state");
            assert_eq!(pool.serve(req, &warm), serve_point(req, &warm));
        }
        assert_eq!(pool.len(), 2);
        assert_eq!((pool.forks_kept(), pool.forks_built()), (1, 3));
        assert_eq!(pool.serve(&req, &warm).expect("serves"), want);
        assert_eq!((pool.forks_kept(), pool.forks_built()), (1, 4));
        // A tail that fails drops its platform.
        let other_warm = warm_state(&other).expect("warm state");
        let refused = pool.serve(&req, &other_warm);
        assert!(refused.is_err());
        assert_eq!(pool.len(), 1);
        assert_eq!((pool.forks_kept(), pool.forks_built()), (2, 4));
        // A pool of capacity 0 keeps nothing.
        let none = PlatformPool::new(0);
        assert_eq!(none.serve(&req, &warm).expect("serves"), want);
        assert_eq!(none.len(), 0);
    }

    #[test]
    fn spill_blob_round_trips_the_warm_state() {
        let req = quick_request();
        let warm = warm_state(&req).expect("warm state");
        let key = req.warm_key();
        let spill = warm.to_spill_blob(&key);
        let loaded =
            WarmState::from_spill_blob(&spill, &key, warm.fingerprint).expect("loads back");
        assert_eq!(loaded.blob.as_bytes(), warm.blob.as_bytes());
        assert_eq!(loaded.profile, warm.profile);
        assert_eq!(loaded.fingerprint, warm.fingerprint);
    }

    #[test]
    fn spill_blob_fails_closed() {
        let req = quick_request();
        let warm = warm_state(&req).expect("warm state");
        let key = req.warm_key();
        let spill = warm.to_spill_blob(&key);

        let err = WarmState::from_spill_blob(&spill, "other/key", warm.fingerprint).unwrap_err();
        assert!(
            matches!(err, SnapshotError::StructureMismatch { .. }),
            "{err}"
        );

        let err = WarmState::from_spill_blob(&spill, &key, warm.fingerprint ^ 1).unwrap_err();
        assert!(
            matches!(err, SnapshotError::StructureMismatch { .. }),
            "{err}"
        );

        let mut torn = spill.as_bytes().to_vec();
        torn.truncate(torn.len() / 2);
        let err =
            WarmState::from_spill_blob(&SnapshotBlob::from_bytes(torn), &key, warm.fingerprint)
                .unwrap_err();
        assert!(
            !matches!(err, SnapshotError::StructureMismatch { .. }),
            "truncation must be caught by the armour itself: {err}"
        );

        let mut flipped = spill.as_bytes().to_vec();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x04;
        let err =
            WarmState::from_spill_blob(&SnapshotBlob::from_bytes(flipped), &key, warm.fingerprint)
                .unwrap_err();
        assert_eq!(err, SnapshotError::BadChecksum);
    }

    #[test]
    fn tick_jobs_are_ignored() {
        let warm = warm_state(&quick_request()).expect("warm state");
        let serve = |tick_jobs| {
            let req = SweepRequest {
                wait_states: 8,
                tick_jobs,
                ..quick_request()
            };
            serve_point(&req, &warm).expect("serves")
        };
        assert_eq!(serve(4), serve(1));
    }
}
