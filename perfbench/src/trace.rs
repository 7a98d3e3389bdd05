//! Outside-in span recording: the benchmark wraps each call into a layer
//! in a span (name, start, end, parent), keeps the spans in memory, and
//! derives per-layer self times from them when the run ends. The program
//! under test carries no instrumentation for this.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer boundary name, e.g. `lp.solve`.
    pub name: &'static str,
    /// Nanoseconds since the trace origin.
    pub start_ns: u64,
    /// Nanoseconds since the trace origin.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// An in-memory span list with an open-span stack.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Trace {
    fn default() -> Trace {
        Trace::new()
    }
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans closed out of order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Summed duration of the top-level spans: the traced wall time.
    pub fn root_secs(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::secs)
            .sum()
    }

    /// Self time per span name, in seconds: each span's duration minus
    /// the durations of its direct children (children of one span never
    /// overlap: they are opened and closed in sequence on one thread).
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        self_times(&self.spans)
    }
}

/// Self time per span name over `spans` (see [`Trace::self_times`]).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::secs).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.secs();
        }
    }
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(own) {
        *out.entry(s.name).or_insert(0.0) += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // trial [0, 100): route [10, 60) holding lp [20, 50), then
        // decode [70, 90).
        let spans = [
            span("trial", 0, 100, None),
            span("route", 10, 60, Some(0)),
            span("lp", 20, 50, Some(1)),
            span("decode", 70, 90, Some(0)),
        ];
        let t = self_times(&spans);
        let ns = |name: &str| (t[name] * 1e9).round() as i64;
        assert_eq!(ns("trial"), 30);
        assert_eq!(ns("route"), 20);
        assert_eq!(ns("lp"), 30);
        assert_eq!(ns("decode"), 20);
        // Self times partition the root's duration.
        assert!((t.values().sum::<f64>() - 100e-9).abs() < 1e-18);
    }

    #[test]
    fn self_time_sums_repeated_names() {
        let spans = [
            span("trial", 0, 40, None),
            span("lp", 0, 10, Some(0)),
            span("lp", 20, 35, Some(0)),
            span("trial", 50, 60, None),
        ];
        let t = self_times(&spans);
        assert!((t["lp"] - 25e-9).abs() < 1e-18);
        assert!((t["trial"] - 25e-9).abs() < 1e-18);
    }

    #[test]
    fn recorder_nests_and_checks_order() {
        let mut trace = Trace::new();
        let root = trace.begin("trial");
        let x = trace.time("lp", || 41 + 1);
        trace.end(root);
        assert_eq!(x, 42);
        let spans = trace.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(trace.durations("lp").len(), 1);
        assert!((trace.root_secs() - spans[0].secs()).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn closing_outer_span_first_panics() {
        let mut trace = Trace::new();
        let outer = trace.begin("a");
        let _inner = trace.begin("b");
        trace.end(outer);
    }
}
