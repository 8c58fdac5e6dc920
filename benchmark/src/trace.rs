//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer's public function, timed from the
//! benchmark's own code: name, start, end, parent and run id. Spans
//! nest through [`Tracer::span`]'s closure, so a parent's *self time*
//! is its duration minus the time its children cover. Names follow
//! `<layer>.<stage>` (`lp.solve`, `store.wal`, ...); the per-op
//! wrapper span is plain `op` and belongs to no layer.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans of one traced run.
pub struct Tracer {
    epoch: Instant,
    run: String,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(run: String) -> Self {
        Tracer { epoch: Instant::now(), run, spans: Vec::new(), stack: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` as span `name`, nested under the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Self time per span name, in milliseconds: each span's duration
    /// minus the durations of its direct children.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) += (s.dur_ns() - c) as f64 / 1e6;
        }
        out
    }

    /// Inclusive time of every span called `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        let ns: u64 = self.spans.iter().filter(|s| s.name == name).map(Span::dur_ns).sum();
        ns as f64 / 1e6
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"run\":\"{}\",\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                self.run, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
