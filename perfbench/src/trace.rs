//! Outside-in spans: one around each call the benchmark makes into a
//! layer's public functions.  Spans stay in memory and are written out when
//! the run ends; a disabled tracer records nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call.
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
    request: u64,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// The span recorder of one process.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Open a span named `name` for request `request` (a batch or mutation
    /// number; 0 for whole-run work), nested in the innermost open span.
    pub fn open(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.stack.last().copied(),
            request,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close a span opened by [`Tracer::open`]; spans close innermost first.
    pub fn close(&mut self, open: Open) {
        if let Some(id) = open.0 {
            assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
            self.spans[id].end = self.origin.elapsed().as_secs_f64();
        }
    }

    /// Run `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let open = self.open(name, request);
        let out = f();
        self.close(open);
        out
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Durations of every span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Share of the spans named `root` that no child span covers.  Children
    /// of one span never overlap (they nest on one stack), so their summed
    /// durations are the covered time.
    pub fn unattributed_ratio(&self, root: &str) -> f64 {
        let mut whole = 0.0;
        let mut covered = 0.0;
        for (id, span) in self.spans.iter().enumerate() {
            if span.name != root {
                continue;
            }
            whole += span.end - span.start;
            covered += self
                .spans
                .iter()
                .filter(|c| c.parent == Some(id))
                .map(|c| c.end - c.start)
                .sum::<f64>();
        }
        if whole > 0.0 {
            ((whole - covered) / whole).max(0.0)
        } else {
            0.0
        }
    }

    /// Self time per layer (the span name up to its first `.`): each span's
    /// duration minus the part its children cover.
    pub fn layer_self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_time = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_time[p] += span.end - span.start;
            }
        }
        let mut layers = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_time) {
            let layer = span.name.split('.').next().unwrap_or(span.name);
            *layers.entry(layer).or_insert(0.0) += span.end - span.start - children;
        }
        layers
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            )?;
        }
        out.flush()
    }
}
