//! In-memory span recording at the layer boundaries, from outside the
//! program: the harness wraps each call it makes into a public function.
//!
//! Spans are kept in memory and written to
//! `benchmark/out/trace-<workload>.jsonl` when the run ends. A disabled
//! tracer records nothing, so the untraced run pays one branch per call.

use crate::stats::quiet;
use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span. `parent` indexes the span that caused this one;
/// spans of one operation (one case run, one request) share `op_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

/// A span recorder. One per thread; [`Tracer::absorb`] merges them.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, enabled: bool) -> Tracer {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Switches recording on or off (between spans only).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op_id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            op_id,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        assert_eq!(self.stack.pop(), Some(index), "spans must nest");
        self.spans[index as usize].end_ns = self.now_ns();
    }

    /// Renames a span once the call it wraps has told what it was (a spill
    /// lookup that found no file is not a spill load).
    pub fn rename(&mut self, open: Open, name: &'static str) {
        if let Some(index) = open.0 {
            self.spans[index as usize].name = name;
        }
    }

    /// Records a span whose interval was measured elsewhere (a response's
    /// own `micros`), as a child of `parent`.
    pub fn synthesize(
        &mut self,
        name: &'static str,
        op_id: u64,
        parent: Open,
        start_ns: u64,
        end_ns: u64,
    ) {
        if let Some(parent) = parent.0 {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: Some(parent),
                op_id,
            });
        }
    }

    /// The interval of a recorded span.
    pub fn interval(&self, open: Open) -> Option<(u64, u64)> {
        open.0.map(|i| {
            let s = &self.spans[i as usize];
            (s.start_ns, s.end_ns)
        })
    }

    /// Appends another recorder's spans (of another thread), keeping its
    /// parent links valid.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Quiet-host duration in seconds (see [`quiet`]) of the spans called
    /// `name`, per case: a span belongs to case `op_id % cases`. A case
    /// without such a span reads 0.
    pub fn quiet_s_by_case(&self, name: &str, cases: usize) -> Vec<f64> {
        let mut by_case = vec![Vec::new(); cases];
        for s in self.spans.iter().filter(|s| s.name == name) {
            by_case[(s.op_id % cases as u64) as usize].push(s.duration_ns() as f64);
        }
        by_case
            .iter()
            .map(|d| if d.is_empty() { 0.0 } else { quiet(d) / 1e9 })
            .collect()
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// Propagates file errors.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (index, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op_id
            )?;
        }
        out.flush()
    }
}

/// One row of the self-time table.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part of each span's interval its children cover.
    pub self_ns: u64,
}

/// Aggregates spans by name into total and self time, largest self time
/// first. A child is clipped to its parent's interval (a synthesized
/// server span can overhang the client span that carries it).
pub fn self_times(spans: &[Span]) -> Vec<SelfTime> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            covered[p as usize] += end.saturating_sub(start);
        }
    }
    let mut rows: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(covered) {
        let row = rows.entry(s.name).or_insert(SelfTime {
            name: s.name,
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.count += 1;
        row.total_ns += s.duration_ns();
        row.self_ns += s.duration_ns().saturating_sub(covered);
    }
    let mut rows: Vec<SelfTime> = rows.into_values().collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
    rows
}

/// Renders the self-time table.
pub fn render_self_times(rows: &[SelfTime]) -> String {
    let all_self: u64 = rows.iter().map(|r| r.self_ns).sum();
    let mut out = format!(
        "{:<22} {:>8} {:>12} {:>12} {:>7}\n",
        "span", "count", "total ms", "self ms", "self %"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<22} {:>8} {:>12.3} {:>12.3} {:>6.1}%\n",
            r.name,
            r.count,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6,
            100.0 * r.self_ns as f64 / all_self.max(1) as f64
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("client.roundtrip", 0, 100, None),
            span("server.handle", 20, 80, Some(0)),
            span("core.serve_point", 30, 70, Some(1)),
        ];
        let rows = self_times(&spans);
        let by_name = |n: &str| rows.iter().find(|r| r.name == n).expect("row").self_ns;
        assert_eq!(by_name("client.roundtrip"), 40);
        assert_eq!(by_name("server.handle"), 20);
        assert_eq!(by_name("core.serve_point"), 40);
        assert_eq!(rows[0].self_ns, 40, "largest self time first");
    }

    #[test]
    fn overhanging_child_is_clipped_to_its_parent() {
        let spans = [
            span("client.roundtrip", 10, 50, None),
            span("server.handle", 0, 60, Some(0)),
        ];
        let rows = self_times(&spans);
        let parent = rows
            .iter()
            .find(|r| r.name == "client.roundtrip")
            .expect("row");
        assert_eq!(parent.self_ns, 0);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_nesting_links_parents() {
        let mut off = Tracer::new(Instant::now(), false);
        let open = off.begin("kernel.run", 1);
        off.end(open);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(Instant::now(), true);
        let outer = on.begin("core.cold_point", 7);
        let inner = on.begin("kernel.run", 7);
        on.end(inner);
        on.end(outer);
        assert_eq!(on.spans()[1].parent, Some(0));
        assert_eq!(on.spans()[0].parent, None);
        assert!(on.spans()[0].end_ns >= on.spans()[1].end_ns);

        let mut merged = Tracer::new(on.epoch(), true);
        let first = merged.begin("dse.explore", 0);
        merged.end(first);
        merged.absorb(on);
        assert_eq!(merged.spans()[2].parent, Some(1), "links shift on merge");
    }
}
