//! In-memory spans for the traced replay: one span per public call the
//! replay makes, kept in a pre-sized vector and reduced to per-layer
//! self time after the run.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call. `parent` indexes the enclosing span in the same
/// recorder (`None` for a request's root span).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. When disabled, [`Recorder::time`] runs the closure
/// with no clock reads and records nothing (the untraced replay).
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u32,
}

impl Recorder {
    /// A recorder with room for `capacity` spans, so recording never
    /// reallocates in the middle of a request.
    pub fn new(enabled: bool, capacity: usize) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            stack: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(idx);
        Some(idx)
    }

    pub fn close(&mut self, idx: Option<usize>) {
        if let Some(idx) = idx {
            self.spans[idx].end_ns = self.now_ns();
            self.stack.pop();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.open(name);
        let out = f();
        self.close(idx);
        out
    }

    /// Starts request `id`: later spans carry it.
    pub fn begin_request(&mut self, id: u32) {
        self.request = id;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-layer totals of a span tree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Breakdown {
    /// Self time (duration minus direct children) per span name, ns.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Total duration per span name, ns.
    pub total_ns: BTreeMap<&'static str, u64>,
    /// Calls per span name.
    pub calls: BTreeMap<&'static str, u64>,
    /// Summed duration of root spans, ns.
    pub root_ns: u64,
    /// Per root span, the share of its time its direct children cover.
    pub coverage: Vec<f64>,
}

/// Computes self time per layer, and how much of each root span its
/// direct children cover, over the spans of requests `from_request` on.
pub fn breakdown(spans: &[Span], from_request: u32) -> Breakdown {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut b = Breakdown::default();
    for (i, s) in spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.request >= from_request)
    {
        let d = s.dur_ns();
        *b.self_ns.entry(s.name).or_default() += d.saturating_sub(child_ns[i]);
        *b.total_ns.entry(s.name).or_default() += d;
        *b.calls.entry(s.name).or_default() += 1;
        if s.parent.is_none() {
            b.root_ns += d;
            if d > 0 {
                b.coverage.push(child_ns[i] as f64 / d as f64);
            }
        }
    }
    b
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
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // request [0,100) > race [10,80) > decode [20,50); parse [0,10).
        let spans = vec![
            span("request", 0, 100, None),
            span("parse", 0, 10, Some(0)),
            span("race", 10, 80, Some(0)),
            span("decode", 20, 50, Some(2)),
            Span {
                request: 1,
                ..span("request", 100, 120, None)
            },
            Span {
                request: 1,
                ..span("parse", 100, 120, Some(4))
            },
        ];
        let b = breakdown(&spans, 0);
        assert_eq!(b.self_ns["request"], 20);
        assert_eq!(b.self_ns["parse"], 30);
        assert_eq!(b.self_ns["race"], 40);
        assert_eq!(b.self_ns["decode"], 30);
        assert_eq!(b.total_ns["race"], 70);
        assert_eq!(b.calls["parse"], 2);
        assert_eq!(b.root_ns, 120);
        // Self times add up to the root time.
        assert_eq!(b.self_ns.values().sum::<u64>(), b.root_ns);
        assert_eq!(b.coverage, vec![0.8, 1.0]);
        // Only request 1 on: the second root and its child.
        let later = breakdown(&spans, 1);
        assert_eq!(later.root_ns, 20);
        assert_eq!(later.self_ns["parse"], 20);
        assert!(!later.self_ns.contains_key("race"));
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let mut r = Recorder::new(true, 8);
        r.begin_request(3);
        let root = r.open("request");
        let v = r.time("parse", || 41 + 1);
        r.close(root);
        assert_eq!(v, 42);
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(r.spans()[1].request, 3);
        let mut off = Recorder::new(false, 8);
        let idx = off.open("request");
        off.time("parse", || ());
        off.close(idx);
        assert!(off.spans().is_empty());
    }
}
