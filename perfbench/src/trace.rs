//! In-memory spans recorded by the benchmark around its calls into each
//! layer, with per-layer total and self time.
//!
//! A span's name is `layer.operation`. Spans are kept in memory while the
//! workload runs and written out as JSON lines when it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span.
pub type SpanId = usize;

/// One timed interval, in seconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<SpanId>,
    pub request: Option<u64>,
}

impl Span {
    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// Records spans when enabled; every call is a no-op when disabled.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a finished span and returns its id (`None` when disabled).
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        spans.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent,
            request,
        });
        Some(spans.len() - 1)
    }

    /// Reserves a span that opens now; [`Tracer::close`] sets its end.
    /// Children may name the returned id as their parent meanwhile.
    pub fn open(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, now, now, parent, request)
    }

    /// Sets the end of a span reserved by [`Tracer::open`] to now.
    pub fn close(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.origin.elapsed().as_secs_f64();
            self.spans.lock().expect("tracer lock poisoned")[id].end = end;
        }
    }

    /// Times `f` as a span named `name`.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        let id = self.open(name, parent, None);
        let out = f(id);
        self.close(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock poisoned").clone()
    }

    /// Writes the spans as JSON lines to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans().iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_s\":{:.9},\"end_s\":{:.9},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start,
                s.end,
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.request.map_or("null".into(), |r| r.to_string()),
            )?;
        }
        out.flush()
    }
}

/// Seconds of `[start, end]` covered by the union of `intervals`.
fn covered(start: f64, end: f64, intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration() - covered(s.start, s.end, kids))
        .collect()
}

/// Total and self seconds per layer. A layer's total sums the spans whose
/// parent lies in another layer (or that have none), so nested spans of one
/// layer are not counted twice.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, (f64, f64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    for (s, self_s) in spans.iter().zip(selfs) {
        let entry = out.entry(s.layer()).or_default();
        let nested = s.parent.is_some_and(|p| spans[p].layer() == s.layer());
        if !nested {
            entry.0 += s.duration();
        }
        entry.1 += self_s;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("bench.job", 0.0, 10.0, None),
            span("graph.open", 0.0, 1.0, Some(0)),
            // Two overlapping children count their union once.
            span("engine.execute", 2.0, 6.0, Some(0)),
            span("engine.execute", 5.0, 7.0, Some(0)),
            // A child sticking out of its parent counts only the inside.
            span("serve.post", 9.0, 12.0, Some(0)),
            span("engine.inner", 2.5, 3.0, Some(2)),
        ];
        let selfs = self_times(&spans);
        let want = [10.0 - 1.0 - 5.0 - 1.0, 1.0, 3.5, 2.0, 3.0, 0.5];
        for (got, want) in selfs.iter().zip(want) {
            assert!((got - want).abs() < 1e-12, "{selfs:?}");
        }
        let layers = layer_times(&spans);
        assert_eq!(layers["bench"], (10.0, 3.0));
        assert_eq!(layers["graph"], (1.0, 1.0));
        // engine.inner nests in an engine span: counted in self, not total.
        assert_eq!(layers["engine"], (6.0, 6.0));
        assert_eq!(layers["serve"], (3.0, 3.0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let id = t.span("graph.open", None, |id| id);
        assert_eq!(id, None);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_through_open_and_close() {
        let t = Tracer::new(true);
        t.span("bench.job", None, |job| {
            t.span("graph.open", job, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end >= spans[1].end);
    }
}
