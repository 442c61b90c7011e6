//! The observability spine: a span-based query tracer and a lock-light
//! per-query metrics registry.
//!
//! ## Tracer
//!
//! A [`TraceTree`] is the per-query counterpart of the paper's Figure 4
//! breakdown: one [`TraceSpan`] per executed operator (resolve → plan →
//! `get(c)`/`get(b)` scans → join/pivot → transform → label), each carrying
//! wall time, output rows and — for engine scans — rows scanned, morsel
//! count and the degree of parallelism the pool actually granted. The tracer
//! is **runtime-opt-in**: spans are only built when the caller asks for them
//! ([`AssessRunner::run_traced`](crate::exec::AssessRunner::run_traced)),
//! so untraced executions pay nothing and no feature flag is involved.
//!
//! ## Registry
//!
//! [`QueryMetrics`] aggregates across queries: totals, failures, fallback
//! attempts, per-strategy successes, a fixed-bucket latency histogram and
//! cumulative per-stage time. Counters are registered statically (the
//! [`query_metrics`] global) and snapshot into a stable struct. Recording
//! happens **once per query** — never inside scan loops (engine-side scan
//! counters follow the same rule; see `olap_engine::metrics`).
//!
//! ## Exposition
//!
//! [`Exposition`] renders snapshots as Prometheus-style text; every
//! snapshot also converts to a [`Value`] tree for the JSON forms served by
//! `assess-serve`'s `metrics` verb.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use olap_engine::Grouping;
use serde::Value;

use crate::exec::{ExecutionReport, StageTimings};
use crate::plan::Strategy;

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Upper bounds (milliseconds, inclusive) of the latency histogram buckets;
/// one implicit `+Inf` bucket follows.
pub const LATENCY_BOUNDS_MS: [f64; 12] =
    [1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0];

/// Number of buckets including the `+Inf` overflow bucket.
pub const LATENCY_BUCKETS: usize = LATENCY_BOUNDS_MS.len() + 1;

/// A fixed-bucket latency histogram: one atomic per bucket plus a running
/// sum, so `observe` is a couple of relaxed adds and never locks.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) observation counts; the last entry is
    /// the `+Inf` overflow bucket.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed durations, in microseconds.
    pub sum_micros: u64,
}

impl Histogram {
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    pub fn observe(&self, elapsed: Duration) {
        let ms = elapsed.as_secs_f64() * 1000.0;
        let idx =
            LATENCY_BOUNDS_MS.iter().position(|&b| ms <= b).unwrap_or(LATENCY_BOUNDS_MS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(elapsed.as_micros() as u64, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum_micros: self.sum_micros.load(Ordering::Relaxed),
        }
    }
}

impl HistogramSnapshot {
    /// JSON form: bucket bounds, per-bucket counts, count and mean.
    pub fn to_json(&self) -> Value {
        let mean_ms =
            if self.count == 0 { 0.0 } else { self.sum_micros as f64 / 1000.0 / self.count as f64 };
        Value::Object(vec![
            (
                "bounds_ms".to_string(),
                Value::Array(LATENCY_BOUNDS_MS.iter().map(|&b| Value::Number(b)).collect()),
            ),
            (
                "buckets".to_string(),
                Value::Array(self.buckets.iter().map(|&c| Value::Number(c as f64)).collect()),
            ),
            ("count".to_string(), Value::Number(self.count as f64)),
            ("mean_ms".to_string(), Value::Number(mean_ms)),
        ])
    }
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

/// A signed gauge (e.g. queries currently in flight).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn set(&self, n: i64) {
        self.0.store(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------------

/// Scan statistics attached to spans that drove an engine scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanScan {
    /// Fact/view rows charged by the scan.
    pub rows_scanned: u64,
    /// Morsels the scan was split into.
    pub morsels: u64,
    /// Threads that actually worked the scan.
    pub parallelism: u64,
    /// How the engine resolved group keys to aggregation slots.
    pub grouping: Grouping,
    /// Groups the scan aggregated into.
    pub groups: u64,
}

/// One node of a query trace: an executed operator (or phase) with its wall
/// time, output cardinality and children in execution order.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Operator name: `resolve`, `plan`, `execute`, `get(c)`, `get(b)`,
    /// `get(c+b)`, `get+pivot`, `join`, `pivot`, `transform`, `regress`,
    /// `const`, `label`, `drop_nulls`, `cache_hit`, `attempt(..)`, `parse`.
    pub name: String,
    /// Wall-clock time spent in this span (children included).
    pub wall: Duration,
    /// Rows in the span's output cube (0 where not meaningful).
    pub rows_out: u64,
    /// Present on spans that ran an engine scan.
    pub scan: Option<SpanScan>,
    /// Free-form annotation (view name, function name, error text…).
    pub detail: Option<String>,
    pub children: Vec<TraceSpan>,
}

impl TraceSpan {
    pub fn new(name: impl Into<String>, wall: Duration) -> Self {
        TraceSpan {
            name: name.into(),
            wall,
            rows_out: 0,
            scan: None,
            detail: None,
            children: Vec::new(),
        }
    }

    pub fn with_rows(mut self, rows_out: u64) -> Self {
        self.rows_out = rows_out;
        self
    }

    pub fn with_scan(
        mut self,
        rows_scanned: u64,
        morsels: u64,
        parallelism: u64,
        grouping: Grouping,
        groups: u64,
    ) -> Self {
        self.scan = Some(SpanScan { rows_scanned, morsels, parallelism, grouping, groups });
        self
    }

    pub fn with_detail(mut self, detail: impl Into<String>) -> Self {
        self.detail = Some(detail.into());
        self
    }

    pub fn with_children(mut self, children: Vec<TraceSpan>) -> Self {
        self.children = children;
        self
    }

    /// Whether this span (ignoring children) represents an engine scan.
    pub fn is_scan(&self) -> bool {
        self.scan.is_some()
    }

    fn to_json(&self) -> Value {
        let mut fields: Vec<(String, Value)> = vec![
            ("name".to_string(), Value::String(self.name.clone())),
            ("wall_ms".to_string(), Value::Number(self.wall.as_secs_f64() * 1000.0)),
            ("rows_out".to_string(), Value::Number(self.rows_out as f64)),
        ];
        if let Some(scan) = &self.scan {
            fields.push(("rows_scanned".to_string(), Value::Number(scan.rows_scanned as f64)));
            fields.push(("morsels".to_string(), Value::Number(scan.morsels as f64)));
            fields.push(("parallelism".to_string(), Value::Number(scan.parallelism as f64)));
            let grouping = scan.grouping.as_str().to_string();
            fields.push(("grouping".to_string(), Value::String(grouping)));
            fields.push(("groups".to_string(), Value::Number(scan.groups as f64)));
        }
        if let Some(detail) = &self.detail {
            fields.push(("detail".to_string(), Value::String(detail.clone())));
        }
        if !self.children.is_empty() {
            fields.push((
                "children".to_string(),
                Value::Array(self.children.iter().map(TraceSpan::to_json).collect()),
            ));
        }
        Value::Object(fields)
    }

    fn render_into(&self, out: &mut String, prefix: &str, last: bool, mask_times: bool) {
        out.push_str(prefix);
        out.push_str(if last { "└─ " } else { "├─ " });
        out.push_str(&self.name);
        if mask_times {
            out.push_str("  time=<t>");
        } else {
            out.push_str(&format!("  time={:.3}ms", self.wall.as_secs_f64() * 1000.0));
        }
        out.push_str(&format!(" rows_out={}", self.rows_out));
        if let Some(scan) = &self.scan {
            out.push_str(&format!(
                " scanned={} morsels={} dop={} grouping={} groups={}",
                scan.rows_scanned,
                scan.morsels,
                scan.parallelism,
                scan.grouping.as_str(),
                scan.groups
            ));
        }
        if let Some(detail) = &self.detail {
            out.push_str(&format!("  ({detail})"));
        }
        out.push('\n');
        let child_prefix = format!("{prefix}{}", if last { "   " } else { "│  " });
        for (i, child) in self.children.iter().enumerate() {
            child.render_into(out, &child_prefix, i + 1 == self.children.len(), mask_times);
        }
    }

    fn sum_scanned(&self) -> u64 {
        self.scan.map_or(0, |s| s.rows_scanned)
            + self.children.iter().map(TraceSpan::sum_scanned).sum::<u64>()
    }

    fn count_scans(&self) -> usize {
        usize::from(self.is_scan())
            + self.children.iter().map(TraceSpan::count_scans).sum::<usize>()
    }

    fn max_dop(&self) -> u64 {
        self.scan
            .map_or(0, |s| s.parallelism)
            .max(self.children.iter().map(TraceSpan::max_dop).max().unwrap_or(0))
    }
}

/// A full per-query trace: the strategy that produced the result (absent on
/// cache hits and pure failures) plus the top-level spans in execution
/// order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceTree {
    /// Strategy of the successful attempt.
    pub strategy: Option<Strategy>,
    /// Whether the result came from a shared result cache (the serving
    /// layer sets this; such trees have zero scan spans).
    pub cache_hit: bool,
    pub spans: Vec<TraceSpan>,
}

impl TraceTree {
    /// Total rows scanned across every scan span of the tree.
    pub fn rows_scanned(&self) -> u64 {
        self.spans.iter().map(TraceSpan::sum_scanned).sum()
    }

    /// Number of scan spans in the tree.
    pub fn scan_spans(&self) -> usize {
        self.spans.iter().map(TraceSpan::count_scans).sum()
    }

    /// The largest degree of parallelism any scan span reached.
    pub fn max_parallelism(&self) -> u64 {
        self.spans.iter().map(TraceSpan::max_dop).max().unwrap_or(0)
    }

    /// ASCII rendering; `mask_times` replaces every wall time with `<t>` so
    /// golden tests pin the tree shape without pinning timings.
    pub fn render(&self, mask_times: bool) -> String {
        let mut out = String::from("trace");
        if let Some(s) = self.strategy {
            out.push_str(&format!("  strategy={}", s.acronym()));
        }
        if self.cache_hit {
            out.push_str("  (cache hit)");
        }
        out.push('\n');
        for (i, span) in self.spans.iter().enumerate() {
            span.render_into(&mut out, "", i + 1 == self.spans.len(), mask_times);
        }
        out
    }

    /// JSON form, served on `run` responses when the client opts in.
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            (
                "strategy".to_string(),
                match self.strategy {
                    Some(s) => Value::String(s.acronym().to_string()),
                    None => Value::Null,
                },
            ),
            ("cache_hit".to_string(), Value::Bool(self.cache_hit)),
            ("rows_scanned".to_string(), Value::Number(self.rows_scanned() as f64)),
            (
                "spans".to_string(),
                Value::Array(self.spans.iter().map(TraceSpan::to_json).collect()),
            ),
        ])
    }
}

// ---------------------------------------------------------------------------
// Query metrics registry
// ---------------------------------------------------------------------------

/// Stage names in [`StageTimings`] order, shared by the snapshot and the
/// exposition.
pub const STAGE_NAMES: [&str; 7] =
    ["get_c", "get_b", "get_cb", "transform", "join", "comparison", "label"];

/// Cross-query counters the execution path records into once per query.
#[derive(Debug, Default)]
pub struct QueryMetrics {
    queries: AtomicU64,
    failures: AtomicU64,
    fallback_attempts: AtomicU64,
    by_strategy: [AtomicU64; 3],
    rows_scanned: AtomicU64,
    stage_micros: [AtomicU64; 7],
    latency: Histogram,
    in_flight: Gauge,
}

/// A point-in-time copy of a [`QueryMetrics`] registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryMetricsSnapshot {
    /// Queries executed (successes and failures).
    pub queries: u64,
    /// Queries whose whole fallback ladder failed.
    pub failures: u64,
    /// Failed attempts the ladder recovered from.
    pub fallback_attempts: u64,
    /// Successful executions per strategy, in `NP, JOP, POP` order.
    pub by_strategy: [u64; 3],
    /// Rows scanned by successful executions.
    pub rows_scanned: u64,
    /// Cumulative per-stage time (microseconds), in [`STAGE_NAMES`] order.
    pub stage_micros: [u64; 7],
    /// Query wall-time histogram.
    pub latency: HistogramSnapshot,
    /// Queries currently executing.
    pub in_flight: i64,
}

impl QueryMetrics {
    pub fn new() -> Self {
        QueryMetrics::default()
    }

    /// Gauge of queries currently executing (the runner brackets every
    /// execution with `add(1)` / `add(-1)`).
    pub fn in_flight(&self) -> &Gauge {
        &self.in_flight
    }

    /// Records a finished successful query.
    pub fn observe_success(&self, report: &ExecutionReport, wall: Duration) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let slot = match report.strategy {
            Strategy::Naive => 0,
            Strategy::JoinOptimized => 1,
            Strategy::PivotOptimized => 2,
        };
        self.by_strategy[slot].fetch_add(1, Ordering::Relaxed);
        // Attempts include the successful one; anything before it was a
        // recovered failure.
        let recovered = report.attempts.len().saturating_sub(1) as u64;
        self.fallback_attempts.fetch_add(recovered, Ordering::Relaxed);
        self.rows_scanned.fetch_add(report.rows_scanned as u64, Ordering::Relaxed);
        self.observe_stages(&report.timings);
        self.latency.observe(wall);
    }

    /// Records a query whose every attempt failed.
    pub fn observe_failure(&self, attempts: u64, wall: Duration) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.failures.fetch_add(1, Ordering::Relaxed);
        self.fallback_attempts.fetch_add(attempts.saturating_sub(1), Ordering::Relaxed);
        self.latency.observe(wall);
    }

    fn observe_stages(&self, timings: &StageTimings) {
        let stages = [
            timings.get_c,
            timings.get_b,
            timings.get_cb,
            timings.transform,
            timings.join,
            timings.comparison,
            timings.label,
        ];
        for (slot, d) in self.stage_micros.iter().zip(stages) {
            slot.fetch_add(d.as_micros() as u64, Ordering::Relaxed);
        }
    }

    pub fn snapshot(&self) -> QueryMetricsSnapshot {
        QueryMetricsSnapshot {
            queries: self.queries.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            fallback_attempts: self.fallback_attempts.load(Ordering::Relaxed),
            by_strategy: [
                self.by_strategy[0].load(Ordering::Relaxed),
                self.by_strategy[1].load(Ordering::Relaxed),
                self.by_strategy[2].load(Ordering::Relaxed),
            ],
            rows_scanned: self.rows_scanned.load(Ordering::Relaxed),
            stage_micros: {
                let mut out = [0u64; 7];
                for (o, s) in out.iter_mut().zip(&self.stage_micros) {
                    *o = s.load(Ordering::Relaxed);
                }
                out
            },
            latency: self.latency.snapshot(),
            in_flight: self.in_flight.get(),
        }
    }
}

impl QueryMetricsSnapshot {
    /// JSON form (mirrors the Prometheus exposition).
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            ("queries".to_string(), Value::Number(self.queries as f64)),
            ("failures".to_string(), Value::Number(self.failures as f64)),
            ("fallback_attempts".to_string(), Value::Number(self.fallback_attempts as f64)),
            (
                "by_strategy".to_string(),
                Value::Object(
                    ["np", "jop", "pop"]
                        .iter()
                        .zip(self.by_strategy)
                        .map(|(name, v)| (name.to_string(), Value::Number(v as f64)))
                        .collect(),
                ),
            ),
            ("rows_scanned".to_string(), Value::Number(self.rows_scanned as f64)),
            (
                "stage_micros".to_string(),
                Value::Object(
                    STAGE_NAMES
                        .iter()
                        .zip(self.stage_micros)
                        .map(|(name, v)| (name.to_string(), Value::Number(v as f64)))
                        .collect(),
                ),
            ),
            ("latency".to_string(), self.latency.to_json()),
            ("in_flight".to_string(), Value::Number(self.in_flight as f64)),
        ])
    }
}

/// The process-wide query-metrics registry the runner records into.
pub fn query_metrics() -> &'static QueryMetrics {
    static GLOBAL: OnceLock<QueryMetrics> = OnceLock::new();
    GLOBAL.get_or_init(QueryMetrics::new)
}

// ---------------------------------------------------------------------------
// Prometheus-style text exposition
// ---------------------------------------------------------------------------

/// Incremental builder for Prometheus-style text exposition. The serving
/// layer feeds it the core and engine snapshots plus its own counters.
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
}

impl Exposition {
    pub fn new() -> Self {
        Exposition::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        self.out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
    }

    /// A monotonically increasing counter.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "counter");
        self.out.push_str(&format!("{name} {value}\n"));
    }

    /// Escapes a label value per the exposition format (`\`, `"`, newline).
    fn escape_label(value: &str) -> String {
        let mut out = String::with_capacity(value.len());
        for c in value.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                other => out.push(other),
            }
        }
        out
    }

    /// A labeled counter family: one `name{label="value"} sample` line per
    /// entry under a single HELP/TYPE header.
    pub fn counter_vec(&mut self, name: &str, help: &str, label: &str, samples: &[(&str, u64)]) {
        if samples.is_empty() {
            return;
        }
        self.header(name, help, "counter");
        for (value, sample) in samples {
            let escaped = Self::escape_label(value);
            self.out.push_str(&format!("{name}{{{label}=\"{escaped}\"}} {sample}\n"));
        }
    }

    /// A point-in-time gauge.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.header(name, help, "gauge");
        self.out.push_str(&format!("{name} {value}\n"));
    }

    /// A fixed-bucket histogram in the standard cumulative-`le` encoding
    /// (bucket bounds are milliseconds, matching [`LATENCY_BOUNDS_MS`]).
    pub fn histogram(&mut self, name: &str, help: &str, snap: &HistogramSnapshot) {
        self.header(name, help, "histogram");
        let mut cumulative = 0u64;
        for (bound, count) in LATENCY_BOUNDS_MS.iter().zip(&snap.buckets) {
            cumulative += count;
            self.out.push_str(&format!("{name}_bucket{{le=\"{bound}\"}} {cumulative}\n"));
        }
        self.out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", snap.count));
        self.out.push_str(&format!("{name}_sum {}\n", snap.sum_micros as f64 / 1000.0));
        self.out.push_str(&format!("{name}_count {}\n", snap.count));
    }

    /// A labeled histogram family: each entry's buckets carry the extra
    /// label alongside the cumulative `le` bound.
    pub fn histogram_vec(
        &mut self,
        name: &str,
        help: &str,
        label: &str,
        samples: &[(&str, &HistogramSnapshot)],
    ) {
        if samples.is_empty() {
            return;
        }
        self.header(name, help, "histogram");
        for (value, snap) in samples {
            let escaped = Self::escape_label(value);
            let mut cumulative = 0u64;
            for (bound, count) in LATENCY_BOUNDS_MS.iter().zip(&snap.buckets) {
                cumulative += count;
                self.out.push_str(&format!(
                    "{name}_bucket{{{label}=\"{escaped}\",le=\"{bound}\"}} {cumulative}\n"
                ));
            }
            self.out.push_str(&format!(
                "{name}_bucket{{{label}=\"{escaped}\",le=\"+Inf\"}} {}\n",
                snap.count
            ));
            self.out.push_str(&format!(
                "{name}_sum{{{label}=\"{escaped}\"}} {}\n",
                snap.sum_micros as f64 / 1000.0
            ));
            self.out.push_str(&format!("{name}_count{{{label}=\"{escaped}\"}} {}\n", snap.count));
        }
    }

    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_span() -> TraceSpan {
        TraceSpan::new("get(c)", Duration::from_millis(3)).with_rows(4).with_scan(
            20,
            1,
            1,
            Grouping::Direct,
            4,
        )
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let h = Histogram::new();
        h.observe(Duration::from_micros(500)); // <= 1ms bucket
        h.observe(Duration::from_millis(30)); // <= 50ms bucket
        h.observe(Duration::from_secs(60)); // +Inf bucket
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[5], 1);
        assert_eq!(s.buckets[LATENCY_BUCKETS - 1], 1);
        assert_eq!(s.sum_micros, 500 + 30_000 + 60_000_000);
    }

    #[test]
    fn trace_tree_aggregates() {
        let tree = TraceTree {
            strategy: Some(Strategy::Naive),
            cache_hit: false,
            spans: vec![
                TraceSpan::new("resolve", Duration::ZERO),
                TraceSpan::new("execute", Duration::from_millis(5)).with_children(vec![
                    scan_span(),
                    TraceSpan::new("get(b)", Duration::from_millis(1)).with_rows(2).with_scan(
                        10,
                        2,
                        4,
                        Grouping::Hashed,
                        3,
                    ),
                    TraceSpan::new("label", Duration::ZERO).with_rows(4),
                ]),
            ],
        };
        assert_eq!(tree.rows_scanned(), 30);
        assert_eq!(tree.scan_spans(), 2);
        assert_eq!(tree.max_parallelism(), 4);
    }

    #[test]
    fn render_masks_times_and_indents() {
        let tree = TraceTree {
            strategy: Some(Strategy::PivotOptimized),
            cache_hit: false,
            spans: vec![TraceSpan::new("execute", Duration::from_millis(2))
                .with_rows(4)
                .with_children(vec![scan_span()])],
        };
        let text = tree.render(true);
        assert!(text.starts_with("trace  strategy=POP\n"), "{text}");
        assert!(text.contains("└─ execute  time=<t> rows_out=4"), "{text}");
        assert!(text.contains(
            "   └─ get(c)  time=<t> rows_out=4 scanned=20 morsels=1 dop=1 grouping=direct groups=4"
        ));
        assert!(!text.contains("ms"), "masked render must not leak timings: {text}");
    }

    #[test]
    fn trace_json_shape() {
        let tree = TraceTree { strategy: None, cache_hit: true, spans: vec![scan_span()] };
        let json = tree.to_json();
        assert_eq!(json.get("cache_hit").and_then(Value::as_bool), Some(true));
        assert_eq!(json.get("rows_scanned").and_then(Value::as_f64), Some(20.0));
        let spans = json.get("spans").and_then(Value::as_array).unwrap();
        assert_eq!(spans[0].get("name").and_then(Value::as_str), Some("get(c)"));
        assert_eq!(spans[0].get("morsels").and_then(Value::as_f64), Some(1.0));
        assert_eq!(spans[0].get("grouping").and_then(Value::as_str), Some("direct"));
        assert_eq!(spans[0].get("groups").and_then(Value::as_f64), Some(4.0));
    }

    #[test]
    fn exposition_renders_all_kinds() {
        let h = Histogram::new();
        h.observe(Duration::from_millis(3));
        let mut exp = Exposition::new();
        exp.counter("assess_queries_total", "Queries executed.", 7);
        exp.gauge("assess_in_flight", "Queries executing now.", 2.0);
        exp.histogram("assess_query_latency_ms", "Query wall time.", &h.snapshot());
        let text = exp.finish();
        assert!(text.contains("# TYPE assess_queries_total counter"));
        assert!(text.contains("assess_queries_total 7"));
        assert!(text.contains("assess_in_flight 2"));
        assert!(text.contains("assess_query_latency_ms_bucket{le=\"5\"} 1"));
        assert!(text.contains("assess_query_latency_ms_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("assess_query_latency_ms_count 1"));
    }

    #[test]
    fn exposition_renders_labeled_families() {
        let h = Histogram::new();
        h.observe(Duration::from_millis(3));
        let snap = h.snapshot();
        let mut exp = Exposition::new();
        exp.counter_vec(
            "assess_tenant_runs_total",
            "Runs per tenant.",
            "tenant",
            &[("anonymous", 4), ("quo\"ted", 1)],
        );
        exp.histogram_vec(
            "assess_tenant_latency_ms",
            "Run wall time per tenant.",
            "tenant",
            &[("anonymous", &snap)],
        );
        // Empty families emit nothing, not a dangling header.
        exp.counter_vec("assess_tenant_empty_total", "Nothing.", "tenant", &[]);
        let text = exp.finish();
        assert!(text.contains("# TYPE assess_tenant_runs_total counter"));
        assert!(text.contains("assess_tenant_runs_total{tenant=\"anonymous\"} 4"));
        assert!(text.contains("assess_tenant_runs_total{tenant=\"quo\\\"ted\"} 1"));
        assert!(text.contains("assess_tenant_latency_ms_bucket{tenant=\"anonymous\",le=\"5\"} 1"));
        assert!(text.contains("assess_tenant_latency_ms_count{tenant=\"anonymous\"} 1"));
        assert!(!text.contains("assess_tenant_empty_total"));
    }

    #[test]
    fn registry_records_success_and_failure() {
        let m = QueryMetrics::new();
        let report = ExecutionReport {
            strategy: Strategy::JoinOptimized,
            timings: StageTimings { get_c: Duration::from_micros(10), ..Default::default() },
            plan: String::new(),
            used_views: Vec::new(),
            rows_scanned: 123,
            parallelism: Default::default(),
            shards: Vec::new(),
            attempts: vec![
                crate::exec::AttemptRecord {
                    strategy: Strategy::PivotOptimized,
                    elapsed: Duration::ZERO,
                    error: None,
                },
                crate::exec::AttemptRecord {
                    strategy: Strategy::JoinOptimized,
                    elapsed: Duration::ZERO,
                    error: None,
                },
            ],
        };
        m.observe_success(&report, Duration::from_millis(4));
        m.observe_failure(3, Duration::from_millis(1));
        let s = m.snapshot();
        assert_eq!(s.queries, 2);
        assert_eq!(s.failures, 1);
        assert_eq!(s.fallback_attempts, 1 + 2);
        assert_eq!(s.by_strategy, [0, 1, 0]);
        assert_eq!(s.rows_scanned, 123);
        assert_eq!(s.stage_micros[0], 10);
        assert_eq!(s.latency.count, 2);
    }
}
