//! In-memory span recorder for the traced run.
//!
//! A span wraps one call the benchmark makes into a layer of the solver
//! stack: name, start and end (seconds since the recorder was created),
//! the enclosing span, and the id of the operation (one setup pass or one
//! solve) it belongs to. Spans stay in memory until the run ends and are
//! then written out in one piece, so recording costs two clock reads and
//! a vector push. A disabled recorder records nothing.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub run: u64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Switch recording on or off between operations (never inside a span).
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracer toggled inside a span");
        self.enabled = on;
    }

    /// Start a new operation: spans recorded from now on share a fresh id.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    /// Run `f` inside a span called `name`. Spans opened by `f` through the
    /// tracer it receives become children of this one.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Durations of every span called `name`, in recording order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration)
        .collect()
}

/// Self time per span name, summed over all spans of that name: each
/// span's duration minus the part of it its children cover. Children run
/// one after another on the recording thread, so their union is the sum
/// of their durations.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_time = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p] += s.duration();
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_time) {
        *out.entry(s.name).or_insert(0.0) += s.duration() - c;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            run: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("setup", 0.0, 10.0, None),
            span("assemble", 1.0, 4.0, Some(0)),
            span("order", 4.0, 6.0, Some(0)),
            span("solve", 10.0, 12.0, None),
        ];
        let st = self_times(&spans);
        assert_eq!(st["setup"], 5.0);
        assert_eq!(st["assemble"], 3.0);
        assert_eq!(st["order"], 2.0);
        assert_eq!(st["solve"], 2.0);
    }

    #[test]
    fn recorder_nests_and_tags_runs() {
        let mut t = Tracer::new(true);
        t.next_run();
        t.span("outer", |t| t.span("inner", |_| ()));
        t.next_run();
        t.span("outer", |_| ());
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, None);
        assert_eq!((s[0].run, s[1].run, s[2].run), (1, 1, 2));
        assert!(s.iter().all(|s| s.end >= s.start));
        assert_eq!(durations(s, "outer").len(), 2);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
