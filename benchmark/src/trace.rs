//! Spans recorded by the benchmark around the calls it makes into each
//! layer's public API.  Spans live in memory and are written out when the
//! run ends; a span's self time is its duration minus the part of that
//! interval its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// "No parent": the span is the root of its operation.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    /// `<layer>.<call>`, e.g. `core.runtime.execute`.
    pub name: &'static str,
    /// The operation the span belongs to: spans of one op share it.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One client's span recorder.  Disabled tracers cost one branch per call,
/// which is how the untraced run shares the workload code.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    client: u32,
    op: u64,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant, client: u32) -> Self {
        Tracer {
            enabled,
            epoch,
            client,
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A tracer that records nothing, for work outside the measured windows.
    pub fn off() -> Self {
        Tracer::new(false, Instant::now(), 0)
    }

    /// Sets the operation id stamped on the spans that follow; ids are
    /// unique across clients.
    pub fn set_op(&mut self, index: u64) {
        self.op = (u64::from(self.client) << 48) | index;
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            name,
            op: self.op,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(id);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.stack.pop().expect("end() without begin()");
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "unclosed span");
        self.spans
    }
}

/// Concatenates per-client span lists, renumbering ids so they stay unique.
pub fn merge(clients: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for spans in clients {
        let base = all.len() as u32;
        all.extend(spans.into_iter().map(|mut s| {
            s.id += base;
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }
    all
}

/// Per-span self time: duration minus the union of the children's
/// intervals (clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// One row of the self-time ledger: every span of one name.
#[derive(Debug, PartialEq)]
pub struct LedgerRow {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Aggregates spans by name, ordered by name.
pub fn ledger(spans: &[Span]) -> Vec<LedgerRow> {
    let selfs = self_times(spans);
    let mut rows: BTreeMap<&'static str, LedgerRow> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let row = rows.entry(s.name).or_insert(LedgerRow {
            name: s.name,
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.count += 1;
        row.total_ns += s.end_ns - s.start_ns;
        row.self_ns += self_ns;
    }
    rows.into_values().collect()
}

/// Most spans written to one trace file; the ledger always covers all of
/// them, the file keeps the head so it stays readable.
const MAX_SPANS_WRITTEN: usize = 50_000;

/// Writes the spans as one JSON document.
pub fn write_json(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let written = spans.len().min(MAX_SPANS_WRITTEN);
    writeln!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans_recorded\": {}, \"spans_written\": {written}, \"spans\": [",
        spans.len()
    )?;
    for (i, s) in spans[..written].iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"op\": {}, \"start_ns\": {}, \"end_ns\": {}}}{}",
            s.id,
            s.name,
            s.op,
            s.start_ns,
            s.end_ns,
            if i + 1 == written { "" } else { "," }
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span(0, NO_PARENT, "op", 0, 100),
            span(1, 0, "a", 10, 40),
            // Overlaps `a`: the union covers 10..60, not 30 + 40.
            span(2, 0, "b", 20, 60),
            span(3, 2, "c", 25, 35),
            // Sticks out of the parent: only 90..100 counts.
            span(4, 0, "d", 90, 120),
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 30, 10, 30]);
        let rows = ledger(&spans);
        let op = rows.iter().find(|r| r.name == "op").unwrap();
        assert_eq!((op.count, op.total_ns, op.self_ns), (1, 100, 40));
    }

    #[test]
    fn tracer_nests_and_merge_renumbers() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch, 1);
        t.set_op(7);
        t.begin("op");
        t.begin("inner");
        t.end();
        t.end();
        let a = t.into_spans();
        assert_eq!(a[1].parent, 0);
        assert_eq!(a[0].parent, NO_PARENT);
        assert_eq!(a[0].op, (1 << 48) | 7);
        assert!(a[0].start_ns <= a[1].start_ns && a[1].end_ns <= a[0].end_ns);

        let merged = merge(vec![a.clone(), a]);
        assert_eq!(merged[3].id, 3);
        assert_eq!(merged[3].parent, 2);
        assert_eq!(merged[2].parent, NO_PARENT);

        let mut off = Tracer::new(false, epoch, 0);
        off.begin("op");
        off.end();
        assert!(off.into_spans().is_empty());
    }
}
