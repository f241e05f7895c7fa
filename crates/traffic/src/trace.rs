//! Trace-driven traffic generation (IPTG "specified sequence" mode).
//!
//! Besides its statistical mode, the paper's IPTG "can also issue a
//! transaction according to a specified sequence" — the mode used to replay
//! captured IP behaviour. [`TraceDrivenGenerator`] plays a list of
//! [`TraceEntry`] records with exact inter-transaction delays, and
//! [`parse_trace`] reads the workspace's simple text format:
//!
//! ```text
//! # delay  op  address     beats  [posted]
//! +0       R   0x80000000  8
//! +12      W   0x80001000  4      posted
//! +3       R   0x80000040  8
//! ```
//!
//! `+N` is the delay in generator cycles since the *previous* entry became
//! issuable.

use mpsoc_kernel::{ClockDomain, Component, LinkId, TickContext, Time};
use mpsoc_protocol::{DataWidth, InitiatorId, Opcode, Packet, Transaction};
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// One record of a transaction trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Generator cycles to wait after the previous entry was issued.
    pub delay_cycles: u64,
    /// Read or write.
    pub opcode: Opcode,
    /// Byte address.
    pub addr: u64,
    /// Data beats.
    pub beats: u32,
    /// Posted write (ignored for reads).
    pub posted: bool,
}

/// Error parsing a trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.reason)
    }
}

impl Error for ParseTraceError {}

/// Parses the text trace format (see the example at the top of this
/// file's documentation, re-exported from the crate root).
///
/// # Errors
///
/// Returns a [`ParseTraceError`] naming the offending line.
pub fn parse_trace(text: &str) -> Result<Vec<TraceEntry>, ParseTraceError> {
    let mut entries = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let code = raw.split('#').next().unwrap_or("").trim();
        if code.is_empty() {
            continue;
        }
        let err = |reason: &str| ParseTraceError {
            line,
            reason: reason.to_owned(),
        };
        let mut fields = code.split_whitespace();
        let delay = fields.next().ok_or_else(|| err("missing delay field"))?;
        let delay_cycles = delay
            .strip_prefix('+')
            .ok_or_else(|| err("delay must start with '+'"))?
            .parse::<u64>()
            .map_err(|_| err("delay is not a number"))?;
        let op = fields.next().ok_or_else(|| err("missing op field"))?;
        let opcode = match op {
            "R" | "r" => Opcode::Read,
            "W" | "w" => Opcode::Write,
            other => return Err(err(&format!("unknown op '{other}' (expected R or W)"))),
        };
        let addr_text = fields.next().ok_or_else(|| err("missing address field"))?;
        let addr = if let Some(hex) = addr_text.strip_prefix("0x") {
            u64::from_str_radix(hex, 16).map_err(|_| err("bad hex address"))?
        } else {
            addr_text.parse().map_err(|_| err("bad address"))?
        };
        let beats = fields
            .next()
            .ok_or_else(|| err("missing beats field"))?
            .parse::<u32>()
            .map_err(|_| err("beats is not a number"))?;
        if beats == 0 {
            return Err(err("beats must be at least 1"));
        }
        let posted = match fields.next() {
            None => false,
            Some("posted") => {
                if opcode == Opcode::Read {
                    return Err(err("reads cannot be posted"));
                }
                true
            }
            Some(other) => return Err(err(&format!("unexpected trailing field '{other}'"))),
        };
        if let Some(extra) = fields.next() {
            return Err(err(&format!("unexpected trailing field '{extra}'")));
        }
        entries.push(TraceEntry {
            delay_cycles,
            opcode,
            addr,
            beats,
            posted,
        });
    }
    Ok(entries)
}

/// A shared recorder capturing the transactions an
/// [`IpTrafficGenerator`](crate::IpTrafficGenerator) actually issued, for
/// later replay through a [`TraceDrivenGenerator`] — the capture half of
/// the IPTG's record/replay story.
#[derive(Debug, Clone, Default)]
pub struct IssueRecorder {
    inner: std::sync::Arc<std::sync::Mutex<Vec<(Time, TraceEntry)>>>,
}

impl IssueRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        IssueRecorder::default()
    }

    /// Records one issue at `time` (called by the generator).
    pub fn record(&self, time: Time, opcode: Opcode, addr: u64, beats: u32, posted: bool) {
        self.inner.lock().unwrap().push((
            time,
            TraceEntry {
                delay_cycles: 0, // filled in by `into_trace`
                opcode,
                addr,
                beats,
                posted,
            },
        ));
    }

    /// Number of recorded issues.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().unwrap().is_empty()
    }

    /// Converts the recording into a replayable trace, expressing the
    /// inter-issue delays in cycles of `clock`.
    pub fn into_trace(self, clock: ClockDomain) -> Vec<TraceEntry> {
        let records = self.inner.lock().unwrap();
        let mut out = Vec::with_capacity(records.len());
        let mut prev = Time::ZERO;
        for (time, entry) in records.iter() {
            let delay = clock.cycles_between(prev, *time).count();
            prev = *time;
            out.push(TraceEntry {
                delay_cycles: delay,
                ..*entry
            });
        }
        out
    }

    /// Renders the recording in the text trace format accepted by
    /// [`parse_trace`].
    pub fn render(&self, clock: ClockDomain) -> String {
        let mut out = String::from("# recorded by IssueRecorder\n");
        let mut prev = Time::ZERO;
        for (time, entry) in self.inner.lock().unwrap().iter() {
            let delay = clock.cycles_between(prev, *time).count();
            prev = *time;
            let op = if entry.opcode == Opcode::Read {
                "R"
            } else {
                "W"
            };
            let posted = if entry.posted { " posted" } else { "" };
            out.push_str(&format!(
                "+{delay} {op} {:#x} {}{posted}\n",
                entry.addr, entry.beats
            ));
        }
        out
    }
}

mpsoc_kernel::metric_ids! {
    /// The generator's counters, kept from `register_metrics`.
    struct Counters {
        completed: counter,
        injected: counter,
    }
}

/// A generator that replays a [`TraceEntry`] sequence with exact timing.
///
/// Delays are honoured relative to the previous issue; back-pressure or the
/// outstanding bound may push an issue later than scheduled, in which case
/// the next delay counts from the actual issue time (the usual
/// trace-replay convention).
#[derive(Debug)]
pub struct TraceDrivenGenerator {
    name: String,
    initiator: InitiatorId,
    width: DataWidth,
    clock: ClockDomain,
    req_out: LinkId,
    resp_in: LinkId,
    trace: VecDeque<TraceEntry>,
    max_outstanding: usize,
    outstanding: usize,
    next_issue_at: Time,
    seq: u64,
    counters: Counters,
}

impl TraceDrivenGenerator {
    /// Creates a generator replaying `trace` on `req_out`/`resp_in`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        initiator: InitiatorId,
        width: DataWidth,
        clock: ClockDomain,
        req_out: LinkId,
        resp_in: LinkId,
        trace: Vec<TraceEntry>,
        max_outstanding: usize,
    ) -> Self {
        let first_delay = trace.first().map_or(0, |e| e.delay_cycles);
        TraceDrivenGenerator {
            name: name.into(),
            initiator,
            width,
            clock,
            req_out,
            resp_in,
            trace: trace.into(),
            max_outstanding: max_outstanding.max(1),
            outstanding: 0,
            next_issue_at: clock.period() * first_delay,
            seq: 0,
            counters: Counters::default(),
        }
    }

    /// Entries still to replay.
    pub fn remaining(&self) -> usize {
        self.trace.len()
    }
}

impl mpsoc_kernel::Snapshot for TraceDrivenGenerator {
    fn save(&self, w: &mut mpsoc_kernel::StateWriter) {
        w.write_usize(self.trace.len());
        for entry in &self.trace {
            w.write_u64(entry.delay_cycles);
            w.write_bool(entry.opcode == Opcode::Write);
            w.write_u64(entry.addr);
            w.write_u32(entry.beats);
            w.write_bool(entry.posted);
        }
        w.write_usize(self.outstanding);
        w.write_time(self.next_issue_at);
        w.write_u64(self.seq);
    }

    fn restore(&mut self, r: &mut mpsoc_kernel::StateReader<'_>) {
        self.trace = (0..r.read_usize())
            .map(|_| TraceEntry {
                delay_cycles: r.read_u64(),
                opcode: if r.read_bool() {
                    Opcode::Write
                } else {
                    Opcode::Read
                },
                addr: r.read_u64(),
                beats: r.read_u32(),
                posted: r.read_bool(),
            })
            .collect();
        self.outstanding = r.read_usize();
        self.next_issue_at = r.read_time();
        self.seq = r.read_u64();
    }
}

impl Component<Packet> for TraceDrivenGenerator {
    fn name(&self) -> &str {
        &self.name
    }

    fn register_metrics(&mut self, stats: &mut mpsoc_kernel::StatsRegistry) {
        self.counters = Counters::register(&self.name, stats);
    }

    fn tick(&mut self, ctx: &mut TickContext<'_, Packet>) {
        if ctx.links.pop(self.resp_in, ctx.time).is_some() {
            self.outstanding -= 1;
            ctx.stats.inc(self.counters.completed, 1);
        }
        let Some(entry) = self.trace.front().copied() else {
            return;
        };
        if ctx.time < self.next_issue_at || !ctx.links.can_push(self.req_out) {
            return;
        }
        let posted = entry.posted && entry.opcode == Opcode::Write;
        if !posted && self.outstanding >= self.max_outstanding {
            return;
        }
        self.trace.pop_front();
        self.seq += 1;
        let mut builder = Transaction::builder(self.initiator, self.seq);
        builder = match entry.opcode {
            Opcode::Read => builder.read(entry.addr),
            Opcode::Write => builder.write(entry.addr),
        };
        let txn = builder
            .beats(entry.beats)
            .width(self.width)
            .posted(posted)
            .created_at(ctx.time)
            .build();
        if !txn.completes_on_acceptance() {
            self.outstanding += 1;
        }
        ctx.links
            .push(self.req_out, ctx.time, Packet::Request(txn))
            .expect("can_push checked");
        ctx.stats.inc(self.counters.injected, 1);
        if let Some(next) = self.trace.front() {
            self.next_issue_at = ctx.time + self.clock.period() * next.delay_cycles;
        }
    }

    fn is_idle(&self) -> bool {
        self.trace.is_empty() && self.outstanding == 0
    }

    fn watched_links(&self) -> Option<Vec<LinkId>> {
        Some(vec![self.resp_in])
    }

    fn next_activity(&self) -> Option<Time> {
        // With the trace drained the generator only reacts to responses.
        // Otherwise the next entry is due at `next_issue_at`; if that edge
        // cannot issue (back-pressure or the outstanding bound) the deadline
        // stays in the past and the generator retries every edge, exactly
        // like the dense schedule.
        if self.trace.is_empty() {
            None
        } else {
            Some(self.next_issue_at)
        }
    }

    fn fast_forward(&mut self, ctx: &mut mpsoc_kernel::FastCtx<'_, Packet>) {
        while let Some(mut tc) = ctx.next_edge() {
            let now = tc.time;
            self.tick(&mut tc);
            if ctx.has_deliverable(self.resp_in) {
                // One response drains per cycle: backlog keeps ticking.
                continue;
            }
            let hint = match self.trace.front() {
                None => None, // drained: only responses matter (watched)
                Some(_) if self.next_issue_at > now => Some(self.next_issue_at),
                // Due but blocked: wire space frees only across windows and
                // the outstanding bound frees on a (watched) response.
                Some(_) => None,
            };
            ctx.sleep_until(hint);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc_kernel::Simulation;
    use mpsoc_protocol::testing::FixedLatencyTarget;

    const TRACE: &str = "
# boot sequence
+0   R 0x1000 8
+10  W 0x2000 4 posted
+5   R 0x1040 8
+0   W 0x3000 2
";

    #[test]
    fn parses_the_reference_trace() {
        let entries = parse_trace(TRACE).expect("parses");
        assert_eq!(entries.len(), 4);
        assert_eq!(
            entries[0],
            TraceEntry {
                delay_cycles: 0,
                opcode: Opcode::Read,
                addr: 0x1000,
                beats: 8,
                posted: false,
            }
        );
        assert!(entries[1].posted);
        assert_eq!(entries[3].opcode, Opcode::Write);
        assert!(!entries[3].posted);
    }

    #[test]
    fn parse_errors_name_the_line() {
        for (text, needle) in [
            ("+x R 0x0 1", "delay is not a number"),
            ("5 R 0x0 1", "delay must start with '+'"),
            ("+1 Q 0x0 1", "unknown op"),
            ("+1 R zz 1", "bad address"),
            ("+1 R 0x0 0", "beats must be at least 1"),
            ("+1 R 0x0 1 posted", "reads cannot be posted"),
            ("+1 R 0x0 1 bogus", "unexpected trailing"),
        ] {
            let err = parse_trace(text).unwrap_err();
            assert!(
                err.reason.contains(needle),
                "{text}: expected '{needle}', got '{}'",
                err.reason
            );
            assert_eq!(err.line, 1);
        }
    }

    #[test]
    fn decimal_addresses_accepted() {
        let entries = parse_trace("+1 W 4096 2").expect("parses");
        assert_eq!(entries[0].addr, 4096);
    }

    fn rig(trace: Vec<TraceEntry>) -> (Simulation<Packet>, LinkId) {
        let mut sim: Simulation<Packet> = Simulation::new();
        let clk = ClockDomain::from_mhz(100);
        let req = sim.links_mut().add_link("req", 2, clk.period());
        let resp = sim.links_mut().add_link("resp", 2, clk.period());
        sim.add_component(
            Box::new(TraceDrivenGenerator::new(
                "replay",
                InitiatorId::new(1),
                DataWidth::BITS64,
                clk,
                req,
                resp,
                trace,
                4,
            )),
            clk,
        );
        sim.add_component(
            Box::new(FixedLatencyTarget::new("mem", clk, req, resp, 1)),
            clk,
        );
        (sim, req)
    }

    #[test]
    fn replays_everything_and_drains() {
        let entries = parse_trace(TRACE).expect("parses");
        let n = entries.len() as u64;
        let (mut sim, req) = rig(entries);
        sim.run_to_quiescence_strict(Time::from_ms(1))
            .expect("drains");
        assert_eq!(sim.links().link(req).stats().pushes, n);
        assert_eq!(sim.stats().counter_by_name("replay.injected"), n);
        // One posted write produces no response: completed = injected - 1.
        assert_eq!(sim.stats().counter_by_name("replay.completed"), n - 1);
    }

    #[test]
    fn record_replay_round_trip() {
        use crate::iptg::{AddressPattern, AgentConfig, IpTrafficGenerator, IptgConfig};
        let clk = ClockDomain::from_mhz(200);
        let recorder = IssueRecorder::new();
        // 1. Record a statistical IPTG session.
        let recording = {
            let mut sim: Simulation<Packet> = Simulation::new();
            let req = sim.links_mut().add_link("req", 2, clk.period());
            let resp = sim.links_mut().add_link("resp", 2, clk.period());
            let config = IptgConfig {
                initiator: InitiatorId::new(4),
                width: DataWidth::BITS64,
                seed: 99,
                agents: vec![AgentConfig {
                    read_fraction: 0.6,
                    ..AgentConfig::simple(
                        "a",
                        AddressPattern::Sequential {
                            base: 0x2000,
                            len: 1 << 14,
                        },
                        24,
                    )
                }],
            };
            let gen = IpTrafficGenerator::new("rec", config, req, resp)
                .expect("valid")
                .with_issue_recorder(recorder.clone());
            sim.add_component(Box::new(gen), clk);
            sim.add_component(
                Box::new(FixedLatencyTarget::new("mem", clk, req, resp, 1)),
                clk,
            );
            sim.run_to_quiescence_strict(Time::from_ms(10))
                .expect("drains");
            assert_eq!(recorder.len(), 24);
            recorder.clone().into_trace(clk)
        };
        // The text rendering parses back to the same entries.
        let text = recorder.render(clk);
        assert_eq!(parse_trace(&text).expect("round-trips"), recording);
        // 2. Replay it and compare the injected address stream.
        let (mut sim, req) = rig(recording.clone());
        sim.run_to_quiescence_strict(Time::from_ms(10))
            .expect("drains");
        assert_eq!(sim.links().link(req).stats().pushes, recording.len() as u64);
        assert_eq!(
            sim.stats().counter_by_name("replay.injected"),
            recording.len() as u64
        );
    }

    #[test]
    fn delays_are_honoured() {
        // Two reads, 20 cycles apart: the second push must be >= 20 cycles
        // after the first.
        let entries = parse_trace("+0 R 0x0 1\n+20 R 0x40 1").expect("parses");
        let (mut sim, req) = rig(entries);
        let mut push_times = Vec::new();
        let mut last = 0;
        while sim.step().is_some() {
            let pushes = sim.links().link(req).stats().pushes;
            if pushes > last {
                last = pushes;
                push_times.push(sim.time());
            }
            if sim.is_quiescent() {
                break;
            }
        }
        assert_eq!(push_times.len(), 2);
        let gap = push_times[1] - push_times[0];
        assert!(gap >= ClockDomain::from_mhz(100).period() * 20, "gap {gap}");
    }
}
