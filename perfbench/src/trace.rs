//! Benchmark-side tracing: spans recorded around calls into each
//! layer's public functions, plus store decorators that open a span per
//! store call.
//!
//! Spans stay in memory ([`TraceLog`]) and are written out once, when
//! the run ends. A disabled [`Tracer`] records nothing, so the same
//! benchmark code serves the untraced and the traced runs.

use smartsage_graph::NodeId;
use smartsage_store::{FeatureStore, StoreError, StoreStats, TopologyStore};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `gnn.plan`.
    pub name: &'static str,
    /// Start, in nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the log's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// The batch or request the span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The spans of one thread, in start order.
#[derive(Debug)]
pub struct TraceLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl TraceLog {
    fn new() -> TraceLog {
        TraceLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Records spans into a shared per-thread log, or nothing when disabled.
#[derive(Debug, Clone, Default)]
pub struct Tracer(Option<Rc<RefCell<TraceLog>>>);

impl Tracer {
    /// A tracer that records.
    pub fn enabled() -> Tracer {
        Tracer(Some(Rc::new(RefCell::new(TraceLog::new()))))
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer(None)
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Opens a span that closes when the guard drops. Its parent is the
    /// innermost span still open.
    pub fn span(&self, name: &'static str, op: u64) -> SpanGuard {
        let index = self.0.as_ref().map(|log| {
            let mut log = log.borrow_mut();
            let start_ns = log.now_ns();
            let parent = log.open.last().copied();
            let index = log.spans.len();
            log.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                op,
            });
            log.open.push(index);
            index
        });
        SpanGuard {
            tracer: self.clone(),
            index,
        }
    }

    /// The op id of the innermost open span (0 when none or disabled).
    fn current_op(&self) -> u64 {
        self.0.as_ref().map_or(0, |log| {
            let log = log.borrow();
            log.open.last().map_or(0, |&i| log.spans[i].op)
        })
    }

    /// Takes the recorded spans, leaving the log empty.
    pub fn take(&self) -> Vec<Span> {
        self.0
            .as_ref()
            .map_or_else(Vec::new, |log| std::mem::take(&mut log.borrow_mut().spans))
    }
}

/// Closes its span on drop.
pub struct SpanGuard {
    tracer: Tracer,
    index: Option<usize>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let (Some(log), Some(index)) = (self.tracer.0.as_ref(), self.index) {
            let mut log = log.borrow_mut();
            let end_ns = log.now_ns();
            log.spans[index].end_ns = end_ns;
            if log.open.last() == Some(&index) {
                log.open.pop();
            }
        }
    }
}

/// Per-name totals over a set of spans: count, total time, and self
/// time (total minus the time covered by direct children).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
}

/// Aggregates `spans` (one log, parents by index) by name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.ns();
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += span.ns();
        entry.self_ns += span.ns().saturating_sub(children);
    }
    out
}

/// Writes spans as JSON lines: `{"name", "start_ns", "end_ns",
/// "parent", "op", "thread"}`. `parent` indexes the same thread's spans.
pub fn write_spans(path: &Path, logs: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, spans) in logs.iter().enumerate() {
        for s in spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"thread\":{thread}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
    }
    out.flush()
}

/// A topology store that opens a span around every call.
#[derive(Debug)]
pub struct TracedTopology<'a> {
    /// The decorated store.
    pub inner: &'a mut dyn TopologyStore,
    /// Where the spans go.
    pub tracer: Tracer,
}

impl TopologyStore for TracedTopology<'_> {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn num_edges(&self) -> u64 {
        self.inner.num_edges()
    }

    fn degrees_into(&mut self, nodes: &[NodeId], out: &mut [u64]) -> Result<(), StoreError> {
        let _span = self
            .tracer
            .span("store.topology.degrees", self.tracer.current_op());
        self.inner.degrees_into(nodes, out)
    }

    fn pick_neighbors_into(
        &mut self,
        picks: &[(NodeId, u64)],
        out: &mut [NodeId],
    ) -> Result<(), StoreError> {
        let _span = self
            .tracer
            .span("store.topology.picks", self.tracer.current_op());
        self.inner.pick_neighbors_into(picks, out)
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }
}

/// A feature store that opens a span around every gather.
#[derive(Debug)]
pub struct TracedFeatures<'a> {
    /// The decorated store.
    pub inner: &'a mut dyn FeatureStore,
    /// Where the spans go.
    pub tracer: Tracer,
}

impl FeatureStore for TracedFeatures<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn label(&self, node: NodeId) -> usize {
        self.inner.label(node)
    }

    fn gather_into(&mut self, nodes: &[NodeId], out: &mut [f32]) -> Result<(), StoreError> {
        let _span = self
            .tracer
            .span("store.feature.gather", self.tracer.current_op());
        self.inner.gather_into(nodes, out)
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let spans = vec![
            Span {
                name: "batch",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                op: 7,
            },
            Span {
                name: "plan",
                start_ns: 10,
                end_ns: 60,
                parent: Some(0),
                op: 7,
            },
            Span {
                name: "io",
                start_ns: 20,
                end_ns: 50,
                parent: Some(1),
                op: 7,
            },
        ];
        let t = totals(&spans);
        assert_eq!(t["batch"].self_ns, 50);
        assert_eq!(t["plan"].self_ns, 20);
        assert_eq!(t["io"].self_ns, 30);
        assert_eq!(t["plan"].total_ns, 50);
    }

    #[test]
    fn spans_nest_and_inherit_the_op() {
        let tracer = Tracer::enabled();
        {
            let _batch = tracer.span("batch", 3);
            let _inner = tracer.span("inner", tracer.current_op());
        }
        let spans = tracer.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 3);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(Tracer::disabled().take().is_empty());
    }
}
