//! In-memory spans recorded by the benchmark around its calls into each
//! layer (the program itself is not instrumented). A traced run keeps
//! every span until the end, derives the per-layer numbers from them,
//! and dumps them as JSONL.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<crate>.<module>.<what>` of the public entry point called.
    pub name: &'static str,
    /// The request (or event, or scenario) this call served; spans of
    /// one request share it.
    pub req: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty store; span times count from now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        (self.spans.len() - 1) as u32
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.push(name, req, parent, start, end);
        (out, self.spans[id as usize].secs())
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations (seconds) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Self time of span `id` in seconds: its duration minus the part
    /// of that interval its direct children cover.
    pub fn self_secs(&self, id: u32) -> f64 {
        let parent = &self.spans[id as usize];
        let children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        let covered = covered_ns((parent.start_ns, parent.end_ns), children);
        (parent.end_ns - parent.start_ns - covered) as f64 * 1e-9
    }

    /// Writes one JSON object per span.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"req\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `children`, clipped to `parent`. Children may
/// overlap each other (calls made from two threads) or stick out of the
/// parent by clock granularity; neither is counted twice.
fn covered_ns(parent: (u64, u64), mut children: Vec<(u64, u64)>) -> u64 {
    children.sort_unstable();
    let (mut covered, mut cursor) = (0, parent.0);
    for (start, end) in children {
        let (start, end) = (start.max(cursor), end.min(parent.1));
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_time_unions_overlaps_and_clips_to_the_parent() {
        // Two disjoint children: 10 + 20.
        assert_eq!(covered_ns((0, 100), vec![(10, 20), (50, 70)]), 30);
        // Overlapping children count once: [10, 40) is 30, not 20 + 25.
        assert_eq!(covered_ns((0, 100), vec![(10, 30), (15, 40)]), 30);
        // A child sticking out on both sides covers only the parent.
        assert_eq!(covered_ns((10, 20), vec![(0, 50)]), 10);
        // A child entirely outside covers nothing.
        assert_eq!(covered_ns((10, 20), vec![(30, 40)]), 0);
    }

    #[test]
    fn self_time_is_duration_minus_direct_children_only() {
        let mut t = Tracer::new();
        let o = t.origin;
        let at = |us: u64| o + std::time::Duration::from_micros(us);
        let root = t.push("root", 1, None, at(0), at(100));
        let child = t.push("child", 1, Some(root), at(10), at(60));
        t.push("grandchild", 1, Some(child), at(20), at(30));
        t.push("child", 1, Some(root), at(70), at(80));
        assert!((t.self_secs(root) - 40e-6).abs() < 1e-12);
        assert!((t.self_secs(child) - 40e-6).abs() < 1e-12);
        assert_eq!(t.durations("child").len(), 2);
    }
}
