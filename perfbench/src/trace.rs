//! In-memory span recorder for the traced runs.
//!
//! A span is one call into a layer, recorded from the benchmark's own
//! code around the public call: name, start, end, the span that caused
//! it, and the id of the request (mutant index or `req_id`) it served.
//! Spans stay in memory while the workload runs and are written out as
//! JSON lines when it ends.

use crate::stats::self_time;
use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified call name, e.g. `minic.parser`.
    pub name: &'static str,
    /// The request this call served.
    pub id: u64,
    /// Index of the causing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder's epoch.
    pub start: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end: u64,
}

/// The recorder: a clock and the spans taken against it.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose clock starts now, with room for `capacity` spans.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished span and return its index.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: u64,
        end: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            id,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Set the end of a span recorded open (with `end == start`).
    pub fn close(&mut self, span: usize, end: u64) {
        self.spans[span].end = end;
    }

    /// Time `f` as a span and return its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, id, parent, start, end);
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut totals = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&children) {
            *totals.entry(s.name).or_insert(0) += self_time(s.start, s.end, kids);
        }
        totals
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.start, s.end
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_per_name() {
        let mut t = Tracer::new(4);
        let root = t.record("mutant", 0, None, 0, 100);
        t.record("pp", 0, Some(root), 10, 30);
        t.record("parse", 0, Some(root), 30, 70);
        let totals = t.self_times();
        assert_eq!(totals["mutant"], 40);
        assert_eq!(totals["pp"], 20);
        assert_eq!(totals["parse"], 40);
    }
}
