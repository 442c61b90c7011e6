// Robustness gate: production code in this crate must handle its
// errors — `unwrap` is reserved for tests (CI runs clippy with -D warnings).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # assess-core
//!
//! The **assess operator** of *"Assess Queries for Interactive Analysis of
//! Data Cubes"* (EDBT 2021) — the paper's primary contribution.
//!
//! An assess statement (Section 4.1)
//!
//! ```text
//! with C0 [ for P ] by G
//! assess|assess* m [ against <benchmark> ]
//! [ using <function> ] labels λ
//! ```
//!
//! judges each cell of a *target cube* (the result of the cube query
//! `(C0, G, P, {m})`) against a *benchmark* — a constant, an external cube,
//! a sibling slice, or a forecast from past slices — by running a
//! composition of comparison/transformation functions and labeling the
//! outcome.
//!
//! The crate is layered exactly as the paper is:
//!
//! * [`ast`] — the statement abstract syntax (Section 4.1) plus the
//!   byte-span shadow tree the parser emits alongside it;
//! * [`diag`] — coded diagnostics ([`diag::Diagnostic`]), the collect-all
//!   [`diag::Sink`], the caret renderer and the JSON form;
//! * [`analyze`] — the statement binder: one collect-all walk behind
//!   `assess-check`, `\check`, pre-execution validation and resolution;
//! * [`functions`] — the comparison/transformation function library
//!   (Section 3.2);
//! * [`labeling`] — range-based and distribution-based labeling functions
//!   (Section 3.3);
//! * [`logical`] — the logical operators `get`, `⋈`, `⊟`, `⊡`, `⊞`
//!   (Section 4.2);
//! * [`semantics`] — the bound statement and its mapping to logical plans
//!   (Section 4.3);
//! * [`rewrite`] — the algebraic properties P1/P2/P3 (Section 5.1);
//! * [`plan`] — the physical strategies NP, JOP and POP (Section 5.2);
//! * [`memops`] — the client-side ("in main memory") implementations of
//!   join/pivot/transform used by plans that do not push an operator to the
//!   engine;
//! * [`exec`] — plan execution with the per-stage timing breakdown of the
//!   paper's Figure 4, plus the cost-ordered fallback ladder of
//!   [`exec::AssessRunner::run_auto`];
//! * [`obs`] — the observability spine: the per-query span tracer behind
//!   `explain analyze`, the cross-query metrics registry and the
//!   Prometheus-style text exposition;
//! * [`policy`] — resource limits (wall clock, rows scanned, output cells)
//!   compiled into an engine-level governor per execution;
//! * [`stmt`] — source-level statement utilities (comment-aware splitting,
//!   termination detection, cache-key normalization) shared by the batch
//!   linter, the REPL and the `assess-serve` network service;
//! * [`codegen`] — the formulation-effort instrument (Table 1): renders
//!   the SQL (Listings 1, 4, 5) and the Python of a statement's least
//!   complex plan — the engine itself renders no SQL;
//! * [`cost`] — the cost-based strategy chooser (a future-work extension);
//! * [`suggest`] — ranked completion of partial statements (a future-work
//!   extension);
//! * [`workload`] — canonical subplan fingerprints and the cross-statement
//!   sharing/subsumption analysis behind `assess-check --workload` and the
//!   serve `batch` op (a multi-query-optimization extension).

pub mod analyze;
pub mod ast;
pub mod codegen;
pub mod cost;
pub mod diag;
pub mod error;
pub mod exec;
pub mod explain;
pub mod functions;
pub mod labeling;
pub mod logical;
pub mod memops;
pub mod obs;
pub mod plan;
pub mod policy;
pub mod result;
pub mod rewrite;
pub mod semantics;
pub mod stmt;
pub mod suggest;
pub mod workload;

pub use analyze::{Analyzer, Binding};
pub use ast::{
    AssessStatement, BenchmarkSpec, Bound, FuncExpr, FuncSpans, LabelingSpec, PredicateSpans,
    PredicateSpec, RangeRule, StatementSpans,
};
pub use diag::{DiagCode, Diagnostic, Severity, Sink, Span};
pub use error::AssessError;
pub use exec::{
    AssessRunner, AttemptRecord, BatchOutcome, ExecutionReport, ParStat, SharedScanReport,
    StageParallelism, StageTimings,
};
pub use obs::{
    query_metrics, Exposition, Histogram, HistogramSnapshot, QueryMetrics, QueryMetricsSnapshot,
    SpanScan, TraceSpan, TraceTree,
};
pub use plan::Strategy;
pub use policy::ExecutionPolicy;
pub use result::{AssessedCube, CellDiff};
pub use semantics::{ResolvedAssess, SchemaProvider};
pub use workload::{Fingerprint, SharingReport, WorkloadAnalyzer, WorkloadStatement};
