//! The harness-local tracer: spans around every call the harness makes into a
//! layer's public functions, kept in memory and written as Chrome-trace JSON
//! when the workload ends. Spans *inside* the program are a later issue
//! (ROADMAP item 2); this file deliberately reads none of the engine's own
//! trace or stats channels.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within a run: the recording thread's lane in the high half.
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    /// The workload operation (batch, request, query…) this span belongs to.
    pub op_id: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span recorder. Each harness thread owns its own, so recording
/// takes no lock; the lanes are merged after the threads join.
pub struct Tracer {
    on: bool,
    lane: u64,
    t0: Instant,
    op: Cell<u64>,
    stack: RefCell<Vec<u64>>,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    /// A recorder that records nothing: the untraced pass runs the same code
    /// with one predictable branch per call site.
    pub fn off() -> Tracer {
        Tracer::new(false, 0, Instant::now())
    }

    /// A recorder for one thread (`lane`) of a pass that may or may not be
    /// traced. `t0` is shared by all lanes so their timestamps line up.
    pub fn new(on: bool, lane: u64, t0: Instant) -> Tracer {
        Tracer {
            on,
            lane,
            t0,
            op: Cell::new(0),
            stack: RefCell::new(Vec::new()),
            spans: RefCell::new(Vec::new()),
        }
    }

    /// Label the spans that follow with the operation they serve.
    pub fn set_op(&self, op_id: u64) {
        self.op.set(op_id);
    }

    /// Run `f` inside a span; nested calls become children.
    pub fn scope<R>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let idx = self.spans.borrow().len();
        let id = (self.lane << 32) | (idx as u64 + 1);
        let parent = self.stack.borrow().last().copied().unwrap_or(0);
        self.spans.borrow_mut().push(Span {
            id,
            parent,
            op_id: self.op.get(),
            layer,
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.borrow_mut().push(id);
        let r = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.t0.elapsed().as_nanos() as u64;
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Self time per span: its duration minus the part of that interval its
/// direct children cover (children clipped to the parent, overlaps counted
/// once). Returned in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
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
            let mut covered = 0u64;
            let mut frontier = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(frontier);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    frontier = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Total self time by layer, in nanoseconds.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_layer = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        *by_layer.entry(s.layer).or_insert(0) += self_ns;
    }
    by_layer
}

/// Chrome-trace "complete" events (`chrome://tracing`, Perfetto): one row per
/// harness thread, `cat` is the layer, `args` carry the span tree.
pub fn chrome_events(spans: &[Span], pid: u64) -> Vec<Json> {
    spans
        .iter()
        .map(|s| {
            Json::obj()
                .with("name", s.name)
                .with("cat", s.layer)
                .with("ph", "X")
                .with("ts", s.start_ns as f64 / 1e3)
                .with("dur", s.dur_ns() as f64 / 1e3)
                .with("pid", pid)
                .with("tid", s.id >> 32)
                .with(
                    "args",
                    Json::obj()
                        .with("id", s.id)
                        .with("parent", s.parent)
                        .with("op_id", s.op_id),
                )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op_id: 0,
            layer,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = vec![
            span(1, 0, "harness", 0, 100),
            span(2, 1, "algorithms", 10, 40),
            // overlaps the first child and runs past the parent's end
            span(3, 1, "algorithms", 30, 120),
            span(4, 2, "core", 15, 20),
            span(5, 0, "harness", 200, 250),
        ];
        assert_eq!(self_times(&spans), vec![10, 25, 90, 5, 50]);
        let by_layer = layer_self_ns(&spans);
        assert_eq!(by_layer["harness"], 60);
        assert_eq!(by_layer["algorithms"], 115);
        assert_eq!(by_layer["core"], 5);
    }

    #[test]
    fn scopes_nest_and_off_records_nothing() {
        let t = Tracer::new(true, 3, Instant::now());
        t.set_op(7);
        let r = t.scope("harness", "op", || t.scope("core", "inner", || 5));
        assert_eq!(r, 5);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, 0);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[1].op_id, 7);
        assert_eq!(spans[0].id >> 32, 3);
        assert!(spans[0].end_ns >= spans[1].end_ns && spans[1].start_ns >= spans[0].start_ns);

        let off = Tracer::off();
        assert_eq!(off.scope("core", "x", || 1), 1);
        assert!(off.into_spans().is_empty());
    }
}
