//! In-memory span recorder for the traced runs.
//!
//! The benchmark times its own calls into each layer's public functions:
//! every call becomes a [`Span`] with a name, start, end, parent span and
//! round id. Spans stay in memory until the run ends and are then written
//! out as JSON lines. A span's *self time* is its duration minus the part
//! of it that its child spans cover.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `dse.step1`.
    pub name: &'static str,
    /// Round (frame sequence or sweep index) the call belongs to.
    pub round: u64,
    /// Index of the parent span, `None` for a round's root.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Duration in milliseconds.
    pub fn dur_ms(&self) -> f64 {
        self.dur_ns() as f64 / 1e6
    }
}

/// Thread-safe span sink.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index; close it with [`Tracer::end`].
    pub fn begin(&self, name: &'static str, round: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().unwrap();
        spans.push(Span {
            name,
            round,
            parent,
            start_ns,
            end_ns: 0,
        });
        spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&self, id: usize) {
        let end_ns = self.now_ns();
        self.spans.lock().unwrap()[id].end_ns = end_ns;
    }

    /// Times `f` as a closed span under `parent`.
    pub fn time<T>(
        &self,
        name: &'static str,
        round: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.lock().unwrap().push(Span {
            name,
            round,
            parent,
            start_ns,
            end_ns,
        });
        out
    }

    /// Records a closed span that started at `start` and ends now (for
    /// calls whose round is only known once they return).
    pub fn time_from(&self, name: &'static str, round: u64, parent: Option<usize>, start: Instant) {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let end_ns = self.now_ns();
        self.spans.lock().unwrap().push(Span {
            name,
            round,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Takes the recorded spans, leaving the tracer empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().unwrap())
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    covered
}

/// Self time of `spans[id]`: its duration minus the union of its direct
/// children's intervals (children may run in parallel on pool threads).
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let s = &spans[id];
    let children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|c| c.parent == Some(id))
        .map(|c| (c.start_ns, c.end_ns))
        .collect();
    s.dur_ns() - covered_ns(children, s.start_ns, s.end_ns)
}

/// Writes `spans` as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"round\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.round, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            round: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("round", None, 0, 100),
            span("a", Some(0), 10, 30),
            // Two overlapping parallel children count once.
            span("b", Some(0), 40, 70),
            span("b", Some(0), 50, 80),
            // A grandchild is covered by its parent, not by the root.
            span("c", Some(2), 45, 60),
            // A child sticking out of the parent is clipped.
            span("d", Some(0), 95, 120),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - (20 + 40 + 5));
        assert_eq!(self_ns(&spans, 2), 30 - 15);
        assert_eq!(self_ns(&spans, 1), 20);
    }

    #[test]
    fn tracer_records_nested_spans() {
        let t = Tracer::new();
        let root = t.begin("round", 7, None);
        let x = t.time("leaf", 7, Some(root), || 41 + 1);
        t.end(root);
        assert_eq!(x, 42);
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(self_ns(&spans, 0) <= spans[0].dur_ns());
        assert!(t.take().is_empty());
    }
}
