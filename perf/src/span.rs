//! Host-time spans around calls into the crates' public functions.
//!
//! The benchmark measures layers only from outside: a span is opened by
//! the benchmark's own code around one call (`Simulator::run`,
//! `MinSumDecoder::decode`, `Conn::send`, ...). Spans live in memory and
//! are written as JSON lines when the run ends. A disabled recorder
//! costs one branch per call site.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// `{name, start_ns, end_ns, parent, req}`; `parent` is 0 for a root and
/// otherwise the 1-based id (line number in the span file) of the span
/// that caused this one. `req` is a wire tag or a request/cell index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u64,
}

/// Per-name totals: calls, summed duration, and summed self time (the
/// duration minus the part of it child spans cover).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The in-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Open nested spans (ids), innermost last.
    stack: Vec<u32>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The instant span times count from, so a caller's own clock can
    /// share it.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a nested span under the innermost open one; 0 when disabled.
    pub fn begin(&mut self, name: &'static str, req: u64) -> u32 {
        if !self.enabled {
            return 0;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied().unwrap_or(0),
            req,
        });
        let id = self.spans.len() as u32;
        self.stack.push(id);
        id
    }

    /// Closes the span `begin` returned. Spans close innermost first.
    pub fn end(&mut self, id: u32) {
        if id == 0 {
            return;
        }
        let now = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize - 1].end_ns = now;
    }

    /// Runs `f` inside a nested span.
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, req);
        let out = f();
        self.end(id);
        out
    }

    /// Records a finished span with explicit times, for work that
    /// overlaps other work (a request in flight). `parent` is a span id
    /// from [`Spans::begin`], or 0.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        req: u64,
    ) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: end_ns.max(start_ns),
                parent,
                req,
            });
        }
    }

    /// The innermost open span's id (0 if none), to parent `record`ed
    /// spans under it.
    pub fn current(&self) -> u32 {
        self.stack.last().copied().unwrap_or(0)
    }

    /// Totals per span name, self time included.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        totals(&self.spans)
    }

    /// Writes one JSON object per span, in id order.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.parent, s.req
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the length of the union
/// of its children's intervals clipped to it. Children may overlap each
/// other (requests in flight under one phase), so their durations cannot
/// simply be summed.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != 0 {
            let p = &spans[s.parent as usize - 1];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if hi > lo {
                children[s.parent as usize - 1].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("phase", 0, 100, 0),
            // Two overlapping requests cover [10, 50) together.
            span("request", 10, 40, 1),
            span("request", 30, 50, 1),
            // A disjoint one covers [60, 70); one sticks out past the
            // parent and is clipped to [90, 100).
            span("request", 60, 70, 1),
            span("request", 90, 130, 1),
            // A grandchild only reduces its own parent.
            span("send", 12, 15, 2),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - (40 + 10 + 10));
        assert_eq!(own[1], 30 - 3);
        assert_eq!(own[2], 20);
        assert_eq!(own[5], 3);
        let t = totals(&spans);
        assert_eq!(t["request"].count, 4);
        assert_eq!(t["request"].total_ns, 30 + 20 + 10 + 40);
        assert_eq!(t["request"].self_ns, 27 + 20 + 10 + 40);
        assert_eq!(t["phase"].self_ns, 40);
    }

    #[test]
    fn nested_spans_take_their_parent_from_the_stack() {
        let mut s = Spans::new(true);
        let outer = s.begin("outer", 1);
        let inner = s.time("inner", 2, s_id_probe);
        assert_eq!(inner, 7);
        s.record("async", 5, 9, s.current(), 3);
        s.end(outer);
        assert_eq!(s.len(), 3);
        assert_eq!(s.spans[0].parent, 0);
        assert_eq!(s.spans[1].parent, outer);
        assert_eq!(s.spans[2].parent, outer);
        assert!(s.spans[0].end_ns >= s.spans[1].end_ns);
    }

    fn s_id_probe() -> u32 {
        7
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        let id = s.begin("x", 0);
        assert_eq!(id, 0);
        s.end(id);
        s.record("y", 0, 1, 0, 0);
        assert_eq!(s.time("z", 0, || 5), 5);
        assert!(s.is_empty());
    }
}
