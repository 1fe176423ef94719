//! In-memory span recorder for the traced run.
//!
//! A span is one public call the benchmark makes into a layer: its
//! name, start, end, and the span that was open when it began. Spans
//! stay in memory while the run measures and are written out as JSON
//! lines when it ends. A disabled recorder runs the wrapped calls and
//! records nothing, so untraced runs share the same code.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `sim.run_observed`.
    pub name: &'static str,
    /// Free-form detail, e.g. the kernel variant; may be empty.
    pub detail: String,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Seconds since the recorder was created.
    pub start: f64,
    /// Seconds since the recorder was created.
    pub end: f64,
}

impl Span {
    /// Wall time of the call.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans that share one trace id (one workload run).
pub struct Tracer {
    id: String,
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recording tracer whose spans carry `id`.
    pub fn new(id: String) -> Self {
        Tracer {
            id,
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new(String::new())
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.span_detail(name, String::new(), f)
    }

    /// Runs `f` inside a span called `name` that carries `detail`.
    pub fn span_detail<T>(
        &mut self,
        name: &'static str,
        detail: String,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            detail,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Summed wall time of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.named(name).map(Span::duration).sum()
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Self time of every span: its duration minus the part its
    /// children cover. Children never overlap (the recorder is
    /// single-threaded), so the covered part is their summed duration.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] -= span.duration();
            }
        }
        own
    }

    /// Per-name count, total and self time, in first-seen order.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let own = self.self_times();
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (span, own) in self.spans.iter().zip(own) {
            match rows.iter_mut().find(|r| r.0 == span.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += span.duration();
                    row.3 += own;
                }
                None => rows.push((span.name, 1, span.duration(), own)),
            }
        }
        rows
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let own = self.self_times();
        let mut out = String::new();
        for (index, (span, own)) in self.spans.iter().zip(own).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"trace\":\"{}\",\"id\":{index},\"parent\":{parent},\"name\":\"{}\",\
                 \"detail\":\"{}\",\"start_s\":{},\"end_s\":{},\"self_s\":{}}}",
                self.id, span.name, span.detail, span.start, span.end, own
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::new("t".to_string());
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner", |_| ());
        });
        assert_eq!(t.count("inner"), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        let own = t.self_times();
        assert!(own[0] >= 0.0 && own[0] < t.total("outer"));
        assert!(t.total("inner") >= 0.002);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        assert_eq!(t.span("x", |_| 7), 7);
        assert_eq!(t.count("x"), 0);
    }
}
