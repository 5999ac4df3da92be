//! Harness-side tracing: spans recorded in memory around every call the
//! harness makes into a layer, the self-time arithmetic over a span
//! tree, and the JSONL file written when a traced run ends.

use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

/// One span: a named interval, the span that caused it (`parent`, 0 for
/// a root) and the request or step it belongs to (`trace`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, the layer being a crate name or `client`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// This span's id (non-zero, unique in the file).
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// Identifier shared by all spans of one request or step.
    pub trace: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span sink. Untraced runs construct it disabled and every
/// call is a branch on one bool.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a finished span and return its id (0 when disabled). Ids
    /// count up from 1 in recording order.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        trace: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            id,
            parent,
            trace,
        });
        id
    }

    /// Run `work` inside a span.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        trace: u64,
        work: impl FnOnce() -> T,
    ) -> T {
        let start = self.now_ns();
        let out = work();
        let end = self.now_ns();
        self.record(name, parent, trace, start, end);
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append spans produced elsewhere (the engine's flight recorder,
    /// converted); they keep the 64-bit ids the engine minted.
    pub fn adopt(&mut self, foreign: Vec<Span>) {
        if self.enabled {
            self.spans.extend(foreign);
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children clipped to the parent, overlaps
/// among children counted once). Returned in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.dur_ns();
            };
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(lo, hi) in kids.iter() {
                let (lo, hi) = (lo.max(reach), hi.min(s.end_ns));
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Total self time per span name, in nanoseconds, sorted by name.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64, usize)> {
    let mut totals: HashMap<&'static str, (u64, usize)> = HashMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = totals.entry(s.name).or_default();
        e.0 += own;
        e.1 += 1;
    }
    let mut out: Vec<_> = totals.into_iter().map(|(n, (t, c))| (n, t, c)).collect();
    out.sort_unstable();
    out
}

/// Write one JSON object per span:
/// `{"name":…,"start_ns":…,"end_ns":…,"id":…,"parent":…,"trace":…}`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"trace\":\"{:016x}\"}}",
            s.name, s.start_ns, s.end_ns, s.id, s.parent, s.trace
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            id,
            parent,
            trace: 1,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span("root", 1, 0, 0, 100),
            // Two overlapping children cover [10, 50) between them.
            span("a", 2, 1, 10, 40),
            span("b", 3, 1, 30, 50),
            // A child that runs past its parent is clipped at 100.
            span("c", 4, 1, 90, 130),
            // A grandchild only reduces its own parent.
            span("a1", 5, 2, 15, 25),
            // A child wholly outside the parent covers nothing.
            span("late", 6, 1, 200, 300),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 40, 10, 100]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name[0], ("a", 20, 1));
        assert_eq!(by_name.iter().map(|r| r.1).sum::<u64>(), 240);
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.record("x", 0, 0, 1, 2), 0);
        assert_eq!(t.scope("y", 0, 0, || 7), 7);
        t.adopt(vec![span("z", 9, 0, 0, 1)]);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_numbers_spans_and_nests_scopes() {
        let mut t = Tracer::new(true);
        let parent = t.record("p", 0, 5, 0, 10);
        assert_eq!(parent, 1);
        t.scope("child", parent, 5, || std::hint::black_box(1 + 1));
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, 1);
        assert!(t.spans()[1].end_ns >= t.spans()[1].start_ns);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        // Inside the package's ignored out/ directory, one per process.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-spans-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        write_jsonl(&path, &[span("a.b", 1, 0, 5, 9), span("c", 2, 1, 6, 7)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"name\":\"a.b\",\"start_ns\":5,\"end_ns\":9,\"id\":1,\"parent\":0,\"trace\":\"0000000000000001\"}"
        );
    }
}
