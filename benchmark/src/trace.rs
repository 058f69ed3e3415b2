//! In-memory spans for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer (spans inside the program are a later change). They
//! stay in a `Vec` while the pass runs and are written to
//! `trace-<workload>.jsonl` when it ends. A span's name is
//! `<layer>.<call>`; the part before the dot is the layer its self
//! time is charged to.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Request (or write batch) the span belongs to.
    pub req: u32,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer the span is charged to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span recorder. Single-threaded by design: the traced pass runs on
/// one thread, so child spans never overlap. [`Tracer::off`] records
/// nothing, so the untraced passes run the same code without tracing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn on() -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::on()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index; close it with [`Tracer::end`].
    pub fn start(&mut self, req: u32, name: &'static str, parent: Option<usize>) -> usize {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            req,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Records `f` as one span.
    pub fn span<R>(
        &mut self,
        req: u32,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.start(req, name, parent);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span:
    /// `{"id":…,"req":…,"name":"…","parent":…|null,"start_ns":…,"end_ns":…}`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"req\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per span: its duration minus the part of that interval
/// its direct children cover (children are clipped to the parent and
/// assumed not to overlap each other — true on one thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            covered[p] += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Durations (µs) of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            req: 0,
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_clipped_to_the_parent() {
        let spans = vec![
            span("server.refresh_with", None, 100, 1100),
            span("algo.refreeze", Some(0), 200, 900),
            span("algo.inner", Some(1), 300, 400),
            // A child that leaks past its parent is clipped to it.
            span("server.late", Some(0), 1000, 1500),
        ];
        assert_eq!(
            self_times(&spans),
            vec![1000 - 700 - 100, 700 - 100, 100, 500]
        );
        assert_eq!(spans[0].layer(), "server");
        assert_eq!(spans[1].layer(), "algo");
    }

    #[test]
    fn tracer_nests_and_orders_spans() {
        let mut off = Tracer::off();
        let id = off.start(1, "request", None);
        off.end(id);
        assert!(off.spans().is_empty());

        let mut t = Tracer::on();
        let root = t.start(7, "request", None);
        let got = t.span(7, "query.parse", Some(root), || 41 + 1);
        t.end(root);
        assert_eq!(got, 42);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(durations_us(s, "query.parse").len(), 1);
    }
}
