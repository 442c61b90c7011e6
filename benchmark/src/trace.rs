//! Spans recorded from the benchmark's own files around the calls into
//! each layer. They are kept in memory during the run and written out at
//! exit; a span's self time is its duration minus the part of it that its
//! child spans cover.

use std::time::Instant;

use serde::Value;

use crate::json::{num, object, text};

/// Index of a span within its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sql.parse` or `core.exec.get`.
    pub name: &'static str,
    /// Identifier shared by the spans of one op.
    pub op: u64,
    /// Op class of the op this span belongs to.
    pub class: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One generator thread's span buffer. All tracers of a run share `epoch`,
/// so their timestamps are comparable after [`Tracer::absorb`].
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer { epoch, spans: Vec::new() }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        class: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
    ) -> SpanId {
        self.spans.push(Span { name, op, class, start_ns, end_ns, parent });
        self.spans.len() - 1
    }

    /// Opens a span whose end is not known yet; close it with [`Self::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        op: u64,
        class: &'static str,
        parent: Option<SpanId>,
    ) -> SpanId {
        let now = self.now_ns();
        self.record(name, op, class, now, now, parent)
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as a child span.
    pub fn within<T>(
        &mut self,
        name: &'static str,
        op: u64,
        class: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, op, class, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Length of the union of `intervals`, each clipped to `lo..hi`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for (start, end) in intervals {
        let (start, end) = (start.max(cursor), end.min(hi));
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// Per span, the part of its interval its direct children cover.
fn child_cover(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| covered_ns(kids, span.start_ns, span.end_ns))
        .collect()
}

/// Self time of every span: its duration minus what its children cover
/// (overlapping or overhanging children are not counted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let cover = child_cover(spans);
    spans.iter().zip(cover).map(|(s, c)| s.duration_ns() - c).collect()
}

/// Per root span (one per traced op), the share of its wall time that its
/// child spans account for.
pub fn coverage_shares(spans: &[Span]) -> Vec<f64> {
    let cover = child_cover(spans);
    spans
        .iter()
        .zip(cover)
        .filter(|(s, _)| s.parent.is_none() && s.duration_ns() > 0)
        .map(|(s, c)| c as f64 / s.duration_ns() as f64)
        .collect()
}

/// Total self time per span name, largest first — the layer budget.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        match totals.iter_mut().find(|(name, _)| *name == span.name) {
            Some((_, total)) => *total += own,
            None => totals.push((span.name, own)),
        }
    }
    totals.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    totals
}

/// The spans as a JSON array of `{id, name, op, class, start_ns, end_ns,
/// parent}` objects.
pub fn spans_json(spans: &[Span]) -> Value {
    let int = |x: u64| num(x as f64);
    Value::Array(
        spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                object(vec![
                    ("id", int(id as u64)),
                    ("name", text(s.name)),
                    ("op", int(s.op)),
                    ("class", text(s.class)),
                    ("start_ns", int(s.start_ns)),
                    ("end_ns", int(s.end_ns)),
                    ("parent", s.parent.map_or(Value::Null, |p| int(p as u64))),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span { name, op: 1, class: "c", start_ns: start, end_ns: end, parent }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = vec![
            span("op", 0, 100, None),        // 0
            span("parse", 5, 15, Some(0)),   // 1
            span("run", 20, 90, Some(0)),    // 2
            span("get", 20, 60, Some(2)),    // 3
            span("label", 70, 85, Some(2)),  // 4
            span("decode", 30, 50, Some(3)), // 5
        ];
        assert_eq!(self_times(&spans), vec![20, 10, 15, 20, 15, 20]);
        // The whole tree's self times add up to the root's wall time.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        assert_eq!(coverage_shares(&spans), vec![0.8]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = vec![
            span("op", 10, 110, None),
            span("a", 0, 40, Some(0)),    // starts before the parent
            span("b", 30, 60, Some(0)),   // overlaps a
            span("c", 100, 150, Some(0)), // ends after the parent
        ];
        // Covered: 10..60 and 100..110 = 60 of 100.
        assert_eq!(self_times(&spans)[0], 40);
        assert_eq!(coverage_shares(&spans), vec![0.6]);
    }

    #[test]
    fn self_time_totals_group_by_name() {
        let spans = vec![
            span("op", 0, 10, None),
            span("get", 0, 6, Some(0)),
            span("op", 20, 40, None),
            span("get", 20, 30, Some(2)),
        ];
        assert_eq!(self_time_by_name(&spans), vec![("get", 16), ("op", 14)]);
    }

    #[test]
    fn absorb_rebases_parent_links() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let root = a.begin("op", 1, "x", None);
        a.end(root);
        let mut b = Tracer::new(epoch);
        let root_b = b.begin("op", 2, "y", None);
        b.within("child", 2, "y", Some(root_b), || ());
        b.end(root_b);
        a.absorb(b);
        assert_eq!(a.spans().len(), 3);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[1].parent, None);
        assert!(a.spans()[1].end_ns >= a.spans()[2].end_ns);
    }
}
