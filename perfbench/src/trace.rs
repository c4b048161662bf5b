//! The benchmark's own span recorder.
//!
//! The traced replay wraps each call into a layer's public function in a
//! span (name, start, end, parent, operation id). Spans stay in memory
//! and are written out when the run ends. A span's self time is its
//! duration minus the durations of its children. A disabled tracer runs
//! the same closures without recording, which is the untraced replay the
//! tracing overhead is measured against.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`rewrite.perfectref`, `quonto.closure`, ...).
    pub name: &'static str,
    /// Operation the call belongs to (index into the replayed sequence).
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled = false` gives the untraced replay.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for operation `op`.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time (ns) of every span, index-aligned with [`Self::spans`].
    pub fn self_ns(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] = out[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        out
    }

    /// Per-operation self time (µs) of one layer: one sample per
    /// operation in which a span of that name ran.
    pub fn per_op_self_us(&self, name: &str) -> Vec<f64> {
        let self_ns = self.self_ns();
        let mut per_op: BTreeMap<u64, u64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self_ns) {
            if s.name == name {
                *per_op.entry(s.op).or_default() += ns;
            }
        }
        per_op.values().map(|&ns| ns as f64 / 1e3).collect()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        tr.span("root", 0, |tr| {
            tr.span("child", 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let own = tr.self_ns();
        assert!(own[0] < spans[1].end_ns - spans[1].start_ns);
        assert_eq!(tr.per_op_self_us("child").len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("root", 0, |tr| tr.span("child", 0, |_| 7)), 7);
        assert!(tr.spans().is_empty());
    }
}
