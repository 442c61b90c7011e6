//! Plan execution with the per-stage timing breakdown of Figure 4, plus
//! the resilience machinery: every execution runs under the runner's
//! [`ExecutionPolicy`], and [`AssessRunner::run_auto`] falls back along the
//! cost model's ranking (cheapest plan first) when an attempt fails.
//!
//! Every entry point is an adapter over [`AssessRunner::run_with`]; the
//! traced ones (`run_traced`, `run_auto_traced`) additionally build a per-query
//! [`TraceTree`]: one span per executed operator, carrying wall time, output
//! rows and — for engine scans — rows scanned, morsel count and the degree
//! of parallelism the pool granted. Tracing is runtime-opt-in: the untraced
//! paths never construct spans. Cross-query aggregates land in the
//! [`query_metrics`](crate::obs::query_metrics) registry once per query.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use olap_engine::{
    merge_shard_scans, AttachSpec, Engine, EngineError, GetOutcome, Keep, ResourceGovernor,
    Rewrite, ShardScan,
};
use olap_model::{CubeQuery, CubeSchema, DerivedCube};

use crate::analyze::{Analyzer, Binding};
use crate::ast::{AssessStatement, StatementSpans};
use crate::diag::Diagnostic;
use crate::error::AssessError;
use crate::logical::LogicalOp;
use crate::memops;
use crate::obs::{TraceSpan, TraceTree};
use crate::plan::{self, PhysicalPlan, Strategy};
use crate::policy::ExecutionPolicy;
use crate::result::AssessedCube;
use crate::semantics::ResolvedAssess;

/// Wall-clock time spent in each execution stage — the categories of the
/// paper's Figure 4 breakdown.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Getting the target cube `C` (engine time).
    pub get_c: Duration,
    /// Getting the benchmark `B` (engine time).
    pub get_b: Duration,
    /// Getting `C + B` at once (fused join/pivot pushed to the engine).
    pub get_cb: Duration,
    /// Pivot + regression transformations.
    pub transform: Duration,
    /// In-memory join of materialized cubes (NP only).
    pub join: Duration,
    /// The `using` comparison chain.
    pub comparison: Duration,
    /// Labeling.
    pub label: Duration,
}

impl StageTimings {
    /// Total execution time.
    pub fn total(&self) -> Duration {
        self.get_c
            + self.get_b
            + self.get_cb
            + self.transform
            + self.join
            + self.comparison
            + self.label
    }

    /// `(name, seconds)` pairs in the paper's category order.
    pub fn as_rows(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("Get C", self.get_c.as_secs_f64()),
            ("Get B", self.get_b.as_secs_f64()),
            ("Get C+B", self.get_cb.as_secs_f64()),
            ("Trans.", self.transform.as_secs_f64()),
            ("Join", self.join.as_secs_f64()),
            ("Comp.", self.comparison.as_secs_f64()),
            ("Label", self.label.as_secs_f64()),
        ]
    }
}

/// Scan parallelism actually achieved by one stage's engine calls (the
/// engine reports per `get`; fused calls report the max of their sides).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParStat {
    /// Largest number of threads that concurrently worked any one scan of
    /// this stage (0 = the stage never ran an engine scan).
    pub parallelism: usize,
    /// Total morsels the stage's scans were split into.
    pub morsels: usize,
}

impl ParStat {
    fn absorb(&mut self, parallelism: usize, morsels: usize) {
        self.parallelism = self.parallelism.max(parallelism);
        self.morsels += morsels;
    }
}

/// Per-stage scan parallelism, mirroring the engine-time categories of
/// [`StageTimings`] (client-side stages never scan, so they have no entry).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageParallelism {
    /// Scans while getting the target cube `C`.
    pub get_c: ParStat,
    /// Scans while getting the benchmark `B`.
    pub get_b: ParStat,
    /// Scans of fused `C + B` engine calls.
    pub get_cb: ParStat,
}

impl StageParallelism {
    /// The largest degree of parallelism any scan of the execution reached.
    pub fn max_parallelism(&self) -> usize {
        self.get_c.parallelism.max(self.get_b.parallelism).max(self.get_cb.parallelism)
    }

    /// Total morsels claimed across all scans of the execution.
    pub fn total_morsels(&self) -> usize {
        self.get_c.morsels + self.get_b.morsels + self.get_cb.morsels
    }
}

/// One attempt of the strategy-fallback ladder: which strategy ran, for
/// how long, and (when it failed) why.
#[derive(Debug, Clone)]
pub struct AttemptRecord {
    pub strategy: Strategy,
    pub elapsed: Duration,
    /// `None` for the successful attempt, the failure otherwise.
    pub error: Option<AssessError>,
}

/// Everything an execution reports besides the assessed cube.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    pub strategy: Strategy,
    pub timings: StageTimings,
    /// Rendered logical plan (after rewrites).
    pub plan: String,
    /// Materialized views the engine used, if any.
    pub used_views: Vec<String>,
    /// Total rows scanned from fact tables / views.
    pub rows_scanned: usize,
    /// Degree of parallelism and morsel counts per engine stage.
    pub parallelism: StageParallelism,
    /// Per-shard scan totals when the engine executed scatter-gather over
    /// a [`olap_engine::ShardSet`] (empty for unsharded engines). Entries
    /// are merged by shard index across all engine calls of the execution;
    /// their `rows_scanned` sum to [`Self::rows_scanned`].
    pub shards: Vec<ShardScan>,
    /// The full fallback chain that led to this result, in attempt order.
    /// The last record is the attempt that produced the cube; earlier ones
    /// are failed attempts the ladder recovered from.
    pub attempts: Vec<AttemptRecord>,
}

/// One statement's run: the assessed cube, its report and, when traced,
/// its trace tree.
pub type RunOutcome = (AssessedCube, ExecutionReport, Option<TraceTree>);

/// Executes assess statements against an [`Engine`].
pub struct AssessRunner {
    engine: Engine,
    policy: ExecutionPolicy,
}

struct ExecState<'a> {
    engine: &'a Engine,
    /// Governor of the attempt's engine, for client-side (memops) work.
    governor: Option<Arc<ResourceGovernor>>,
    timings: StageTimings,
    used_views: Vec<String>,
    rows_scanned: usize,
    parallelism: StageParallelism,
    /// Per-shard scan totals, merged by shard index across engine calls.
    shards: Vec<ShardScan>,
    /// Fuse `get ⋈ get` / `get + pivot` prefixes into engine calls.
    fuse: bool,
    /// Build a [`TraceSpan`] per evaluated operator. Off for untraced
    /// executions, which then allocate nothing observability-related.
    tracing: bool,
    /// Pre-executed shared scans of a `batch`, keyed by the canonical
    /// fingerprint of the `get`'s cube query. `None` outside batches.
    shared: Option<&'a HashMap<u64, GetOutcome>>,
}

impl ExecState<'_> {
    /// Cooperative cancellation / deadline check at operator boundaries.
    fn check(&self) -> Result<(), AssessError> {
        match &self.governor {
            Some(g) => g.check().map_err(AssessError::from),
            None => Ok(()),
        }
    }
}

impl AssessRunner {
    pub fn new(engine: Engine) -> Self {
        AssessRunner { engine, policy: ExecutionPolicy::default() }
    }

    /// Replaces the runner's execution policy (resource limits, cancellation).
    pub fn with_policy(mut self, policy: ExecutionPolicy) -> Self {
        self.policy = policy;
        self
    }

    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    pub fn policy(&self) -> &ExecutionPolicy {
        &self.policy
    }

    /// Resolves a statement against the engine's catalog.
    pub fn resolve(&self, statement: &AssessStatement) -> Result<ResolvedAssess, AssessError> {
        ResolvedAssess::resolve(statement, self.engine.catalog().as_ref())
    }

    /// Binds a statement against the engine's catalog with the cost lints
    /// attached: the resolution and every diagnostic from one walk.
    pub fn bind(&self, statement: &AssessStatement, spans: Option<&StatementSpans>) -> Binding {
        Analyzer::new(self.engine.catalog().as_ref())
            .with_engine(&self.engine)
            .bind(statement, spans)
    }

    /// Runs the static analyzer (with engine-backed cost lints) over a
    /// statement; diagnostics carry dummy spans.
    pub fn check(&self, statement: &AssessStatement) -> Vec<Diagnostic> {
        self.check_spanned(statement, None)
    }

    /// Like [`check`](Self::check), but anchors diagnostics to the source
    /// spans produced by `assess_sql::parse_spanned`.
    pub fn check_spanned(
        &self,
        statement: &AssessStatement,
        spans: Option<&StatementSpans>,
    ) -> Vec<Diagnostic> {
        self.bind(statement, spans).diagnostics
    }

    /// Resolves, plans and executes a statement under a strategy.
    pub fn run(
        &self,
        statement: &AssessStatement,
        strategy: Strategy,
    ) -> Result<(AssessedCube, ExecutionReport), AssessError> {
        self.run_with(&self.resolve(statement)?, Some(strategy), false)
            .map(|(cube, report, _)| (cube, report))
    }

    /// Like [`run`](Self::run), but additionally builds the per-operator
    /// [`TraceTree`] — the machinery behind `explain analyze`. The assessed
    /// cube is byte-identical to the untraced run; tracing only observes.
    pub fn run_traced(
        &self,
        statement: &AssessStatement,
        strategy: Strategy,
    ) -> Result<(AssessedCube, ExecutionReport, TraceTree), AssessError> {
        self.run_with(&self.resolve(statement)?, Some(strategy), true)
            .map(|(cube, report, tree)| (cube, report, tree.unwrap_or_default()))
    }

    /// Resolves a statement and executes it under the strategy the
    /// cost-based chooser picks (the "just run it" entry point).
    ///
    /// If an attempt fails, the runner tries the next plan of the cost
    /// model's ranking ([`crate::cost::estimate_all`]), cheapest first, until
    /// one succeeds. All attempts share one absolute deadline; the ladder
    /// stops early on cancellation or deadline expiry (retrying cannot
    /// help there). The successful report carries the whole attempt chain.
    pub fn run_auto(
        &self,
        statement: &AssessStatement,
    ) -> Result<(AssessedCube, ExecutionReport), AssessError> {
        self.run_with(&self.resolve(statement)?, None, false)
            .map(|(cube, report, _)| (cube, report))
    }

    /// Like [`run_auto`](Self::run_auto), but additionally builds the
    /// per-operator [`TraceTree`]. Failed ladder attempts the runner
    /// recovered from appear as `attempt(<strategy>)` leaf spans carrying
    /// the failure in their detail.
    pub fn run_auto_traced(
        &self,
        statement: &AssessStatement,
    ) -> Result<(AssessedCube, ExecutionReport, TraceTree), AssessError> {
        self.run_with(&self.resolve(statement)?, None, true)
            .map(|(cube, report, tree)| (cube, report, tree.unwrap_or_default()))
    }

    /// The one road from a bound statement to an assessed cube; every other
    /// entry point is an adapter over it. `pinned` fixes the strategy (a
    /// one-plan ladder); `None` walks the cost model's ranking. With
    /// `tracing` the tree leads with the `resolve` span (planning and
    /// ranking the bound statement). Every ladder that runs is recorded in
    /// the query metrics exactly once, whichever way it ends and whether or
    /// not it was traced; so is a pinned strategy that cannot be planned.
    pub fn run_with(
        &self,
        resolved: &ResolvedAssess,
        pinned: Option<Strategy>,
        tracing: bool,
    ) -> Result<RunOutcome, AssessError> {
        let wall = Instant::now();
        let plans = match pinned {
            Some(strategy) => vec![plan::plan(resolved, strategy)
                .inspect_err(|_| record_failure(1, wall.elapsed()))?],
            None => self.rank(resolved)?,
        };
        self.ladder(resolved, &plans, None, tracing, wall.elapsed())
    }

    /// Plans and executes a resolved statement under a strategy (a single
    /// attempt — no fallback — but still under the policy's limits).
    pub fn execute(
        &self,
        resolved: &ResolvedAssess,
        strategy: Strategy,
    ) -> Result<(AssessedCube, ExecutionReport), AssessError> {
        self.run_with(resolved, Some(strategy), false).map(|(cube, report, _)| (cube, report))
    }

    /// The plans an unpinned run tries, in the cost model's order.
    fn rank(&self, resolved: &ResolvedAssess) -> Result<Vec<PhysicalPlan>, AssessError> {
        let ranked = crate::cost::estimate_all(resolved, &self.engine)?;
        Ok(ranked.into_iter().map(|(physical, _)| physical).collect())
    }

    /// Tries `plans` in order until one succeeds (see
    /// [`run_auto`](Self::run_auto)). Each attempt runs on an engine with a
    /// fresh governor sharing the ladder's absolute deadline; `get`s found
    /// in `shared` absorb a batch's stored scan. `ranking` is the time spent
    /// planning before the ladder: it is the trace's `resolve` span and part
    /// of the wall time recorded in the query metrics on both exits.
    fn ladder(
        &self,
        resolved: &ResolvedAssess,
        plans: &[PhysicalPlan],
        shared: Option<&HashMap<u64, GetOutcome>>,
        tracing: bool,
        ranking: Duration,
    ) -> Result<RunOutcome, AssessError> {
        let _in_flight = InFlightGuard::enter();
        let start = Instant::now();
        let deadline_at = self.policy.deadline_at();
        let mut attempts: Vec<AttemptRecord> = Vec::new();
        let mut spans: Vec<TraceSpan> = Vec::new();
        if tracing {
            spans.push(TraceSpan::new("resolve", ranking));
        }
        let mut last_err: Option<AssessError> = None;
        for physical in plans {
            let (strategy, t) = (physical.strategy, Instant::now());
            let engine = self.governed_engine(deadline_at);
            match execute_plan_on(&engine, resolved, physical, tracing, shared) {
                Ok((cube, mut report, tree)) => {
                    attempts.push(AttemptRecord { strategy, elapsed: t.elapsed(), error: None });
                    report.attempts = attempts;
                    record_success(&report, ranking + start.elapsed());
                    let tree = tree.map(|mut tr| {
                        // Planning happened up front; the span names the
                        // plan this attempt ran.
                        spans.push(
                            TraceSpan::new("plan", Duration::ZERO).with_detail(strategy.acronym()),
                        );
                        spans.append(&mut tr.spans);
                        tr.spans = spans;
                        tr
                    });
                    return Ok((cube, report, tree));
                }
                Err(err) => {
                    let fatal = matches!(err, AssessError::Cancelled)
                        || deadline_at.is_some_and(|at| Instant::now() >= at);
                    if tracing {
                        spans.push(
                            TraceSpan::new(format!("attempt({})", strategy.acronym()), t.elapsed())
                                .with_detail(err.to_string()),
                        );
                    }
                    attempts.push(AttemptRecord {
                        strategy,
                        elapsed: t.elapsed(),
                        error: Some(err.clone()),
                    });
                    last_err = Some(err);
                    if fatal {
                        break;
                    }
                }
            }
        }
        record_failure(attempts.len() as u64, ranking + start.elapsed());
        Err(last_err.expect("a ladder has at least one plan"))
    }

    /// The engine one execution runs on: the runner's own when the policy
    /// sets neither a limit, a cancel token nor a thread cap, else a clone
    /// carrying a fresh governor (budgets reset per call; the deadline is
    /// the caller's absolute instant) and the cap.
    fn governed_engine(&self, deadline_at: Option<Instant>) -> Cow<'_, Engine> {
        let needs_governor = self.policy.needs_governor();
        if !needs_governor && self.policy.max_threads.is_none() {
            return Cow::Borrowed(&self.engine);
        }
        let mut engine = self.engine.clone();
        if needs_governor {
            engine = engine.with_governor(self.policy.governor(deadline_at));
        }
        if let Some(n) = self.policy.max_threads {
            engine = engine.with_thread_cap(n);
        }
        Cow::Owned(engine)
    }

    /// Executes an already-built physical plan on the runner's engine.
    pub fn execute_plan(
        &self,
        resolved: &ResolvedAssess,
        physical: &PhysicalPlan,
    ) -> Result<(AssessedCube, ExecutionReport), AssessError> {
        execute_plan_on(&self.engine, resolved, physical, false, None)
            .map(|(cube, report, _)| (cube, report))
    }

    /// Executes a group of resolved statements as one *batch* with
    /// shared-scan scheduling (the multi-query-optimization path behind the
    /// serve `batch` op, which hands over the resolutions its binding made).
    ///
    /// Every statement is ranked exactly as [`run_auto`](Self::run_auto)
    /// ranks it, then the standalone `get`s of each statement's cheapest
    /// plan are fingerprinted with [`crate::workload::fingerprint_query`].
    /// A fingerprint two or more plans request is executed **once** up front
    /// and the consuming plans absorb the stored result — including its
    /// scan metadata — so every per-statement cube and report is
    /// byte-identical to a serial execution while the engine's scan
    /// counters record a single scan. Gets fused into engine-side
    /// join/pivot calls never share: the fused call scans both sides at
    /// once and has no standalone result to store. Each statement then runs
    /// through the same ladder as `run_auto`, with its own per-attempt
    /// budgets and deadline.
    pub fn run_batch(&self, statements: &[ResolvedAssess], tracing: bool) -> BatchOutcome {
        // Rank every statement first: sharing decisions need all plans.
        let ranked: Vec<(Result<Vec<PhysicalPlan>, AssessError>, Duration)> = statements
            .iter()
            .map(|resolved| {
                let t = Instant::now();
                (self.rank(resolved), t.elapsed())
            })
            .collect();

        // Count how many plans want each standalone get (insertion order,
        // so shared-scan reports are deterministic across runs).
        let mut wanted: Vec<(u64, CubeQuery, usize)> = Vec::new();
        for physical in ranked.iter().filter_map(|(r, _)| r.as_ref().ok()?.first()) {
            let fuse = physical.strategy != Strategy::Naive;
            for query in crate::workload::standalone_gets(&physical.root, fuse) {
                let fp = crate::workload::fingerprint_query(query).0;
                match wanted.iter_mut().find(|(f, _, _)| *f == fp) {
                    Some((_, _, n)) => *n += 1,
                    None => wanted.push((fp, query.clone(), 1)),
                }
            }
        }

        // Pre-execute every scan with at least two consumers, each under
        // the per-attempt limits one of its consumers would have.
        let deadline_at = self.policy.deadline_at();
        let mut shared: HashMap<u64, GetOutcome> = HashMap::new();
        let mut reports: Vec<SharedScanReport> = Vec::new();
        let mut shared_spans: Vec<TraceSpan> = Vec::new();
        for (fp, query, consumers) in &wanted {
            if *consumers < 2 {
                continue;
            }
            let t = Instant::now();
            // A failing shared scan is not fatal here: consumers simply
            // scan for themselves and surface the error per statement.
            let Ok(outcome) = self.governed_engine(deadline_at).get(query) else { continue };
            if tracing {
                shared_spans.push(
                    TraceSpan::new("shared_scan", t.elapsed())
                        .with_rows(outcome.cube.len() as u64)
                        .with_scan(
                            outcome.rows_scanned as u64,
                            outcome.morsels as u64,
                            outcome.parallelism as u64,
                            outcome.grouping,
                            outcome.groups as u64,
                        )
                        .with_detail(format!(
                            "fp={} consumers={consumers}",
                            crate::workload::Fingerprint(*fp)
                        )),
                );
            }
            reports.push(SharedScanReport {
                fingerprint: crate::workload::Fingerprint(*fp),
                consumers: *consumers,
                rows_scanned: outcome.rows_scanned,
                query: LogicalOp::Get { query: query.clone(), alias: None }.describe(),
            });
            shared.insert(*fp, outcome);
        }

        // Run every statement down its ladder, feeding consumers from the
        // shared store.
        let items = statements
            .iter()
            .zip(ranked)
            .map(|(resolved, (plans, ranking))| {
                self.ladder(resolved, &plans?, Some(&shared), tracing, ranking)
            })
            .collect();
        BatchOutcome { items, shared: reports, shared_spans }
    }
}

/// One shared scan of a batch, for the response's sharing summary.
#[derive(Debug, Clone)]
pub struct SharedScanReport {
    /// Canonical fingerprint of the shared `get`.
    pub fingerprint: crate::workload::Fingerprint,
    /// How many statements consumed the stored result.
    pub consumers: usize,
    /// Rows the single scan read.
    pub rows_scanned: usize,
    /// Human-readable description of the shared get.
    pub query: String,
}

/// Everything [`AssessRunner::run_batch`] reports.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-statement results, in submission order, as
    /// [`AssessRunner::run_with`] returns them (the trace is present when
    /// the batch ran traced).
    pub items: Vec<Result<RunOutcome, AssessError>>,
    /// The scans that executed once and fanned out.
    pub shared: Vec<SharedScanReport>,
    /// `shared_scan` spans (one per shared scan) when the batch ran traced.
    pub shared_spans: Vec<TraceSpan>,
}

/// RAII bracket for the queries-in-flight gauge.
struct InFlightGuard;

impl InFlightGuard {
    fn enter() -> Self {
        crate::obs::query_metrics().in_flight().add(1);
        InFlightGuard
    }
}

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        crate::obs::query_metrics().in_flight().add(-1);
    }
}

/// Records a finished successful query into the global registry — one call
/// per query, never inside operator or scan loops.
fn record_success(report: &ExecutionReport, wall: Duration) {
    crate::obs::query_metrics().observe_success(report, wall);
}

/// Records a query whose every attempt failed.
fn record_failure(attempts: u64, wall: Duration) {
    crate::obs::query_metrics().observe_failure(attempts, wall);
}

// Send/Sync audit: the serving layer (`assess-serve`) shares one runner and
// engine across its worker threads and passes results between them, so these
// types must stay thread-safe. A field losing `Send`/`Sync` (an `Rc`, a
// `RefCell`, a raw pointer) fails compilation here, not at the first
// cross-thread use site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AssessRunner>();
    assert_send_sync::<Engine>();
    assert_send_sync::<ExecutionPolicy>();
    assert_send_sync::<ResourceGovernor>();
    assert_send_sync::<AssessedCube>();
    assert_send_sync::<ExecutionReport>();
    assert_send_sync::<AssessError>();
};

/// Executes a physical plan on `engine`, picking up whatever governor the
/// engine carries for client-side (memops) work too. With `tracing` the
/// returned tree holds one `execute` span whose children are the evaluated
/// operators in execution order. `get` nodes whose canonical fingerprint
/// hits `shared` absorb the stored outcome instead of re-scanning (the
/// `batch` op's sharing path).
fn execute_plan_on(
    engine: &Engine,
    resolved: &ResolvedAssess,
    physical: &PhysicalPlan,
    tracing: bool,
    shared: Option<&HashMap<u64, GetOutcome>>,
) -> Result<RunOutcome, AssessError> {
    let mut state = ExecState {
        engine,
        governor: engine.governor().cloned(),
        timings: StageTimings::default(),
        used_views: Vec::new(),
        rows_scanned: 0,
        parallelism: StageParallelism::default(),
        shards: Vec::new(),
        fuse: physical.strategy != Strategy::Naive,
        tracing,
        shared,
    };
    let t_exec = Instant::now();
    let (mut cube, root_span) = eval(&physical.root, &mut state)?;
    // `assess` (non-starred) returns only target cells with a benchmark
    // match; `assess*` keeps the rest with nulls (Section 4.1).
    let mut drop_span = None;
    if !resolved.starred {
        let t = Instant::now();
        cube =
            memops::drop_null_rows(cube, &resolved.benchmark_column(), state.governor.as_deref())?;
        state.timings.join += t.elapsed();
        drop_span = state
            .tracing
            .then(|| TraceSpan::new("drop_nulls", t.elapsed()).with_rows(cube.len() as u64));
    }
    let tree = tracing.then(|| {
        let mut children = Vec::with_capacity(2);
        children.extend(root_span);
        children.extend(drop_span);
        TraceTree {
            strategy: Some(physical.strategy),
            cache_hit: false,
            spans: vec![TraceSpan::new("execute", t_exec.elapsed())
                .with_rows(cube.len() as u64)
                .with_children(children)],
        }
    });
    let report = ExecutionReport {
        strategy: physical.strategy,
        timings: state.timings,
        plan: physical.root.to_string(),
        used_views: state.used_views,
        rows_scanned: state.rows_scanned,
        parallelism: state.parallelism,
        shards: state.shards,
        attempts: Vec::new(),
    };
    Ok((AssessedCube::new(cube, resolved), report, tree))
}

/// Which engine-time stage an absorbed outcome belongs to.
#[derive(Clone, Copy)]
enum ScanStage {
    GetC,
    GetB,
    GetCb,
}

/// Builds the trace span for an engine scan (when tracing), then folds the
/// outcome's bookkeeping into the state and returns the cube.
fn absorb(
    state: &mut ExecState<'_>,
    outcome: GetOutcome,
    stage: ScanStage,
    name: &str,
    elapsed: Duration,
) -> (DerivedCube, Option<TraceSpan>) {
    let span = state.tracing.then(|| {
        let mut span = TraceSpan::new(name, elapsed).with_rows(outcome.cube.len() as u64);
        if outcome.per_shard.is_empty() {
            span = span.with_scan(
                outcome.rows_scanned as u64,
                outcome.morsels as u64,
                outcome.parallelism as u64,
                outcome.grouping,
                outcome.groups as u64,
            );
        } else {
            // Scatter-gather: one child span per shard carries that
            // shard's scan stats. The parent deliberately has no scan of
            // its own — `TraceTree::rows_scanned` sums recursively, so
            // stats must land exactly once.
            span = span.with_children(
                outcome
                    .per_shard
                    .iter()
                    .map(|s| {
                        TraceSpan::new(format!("shard({})", s.shard), Duration::ZERO).with_scan(
                            s.rows_scanned as u64,
                            s.morsels as u64,
                            s.parallelism as u64,
                            outcome.grouping,
                            s.groups as u64,
                        )
                    })
                    .collect(),
            );
        }
        if let Some(v) = &outcome.used_view {
            span = span.with_detail(format!("view {v}"));
        }
        span
    });
    if let Some(v) = outcome.used_view {
        if !state.used_views.contains(&v) {
            state.used_views.push(v);
        }
    }
    state.rows_scanned += outcome.rows_scanned;
    if !outcome.per_shard.is_empty() {
        state.shards = merge_shard_scans(&state.shards, &outcome.per_shard);
    }
    let slot = match stage {
        ScanStage::GetC => &mut state.parallelism.get_c,
        ScanStage::GetB => &mut state.parallelism.get_b,
        ScanStage::GetCb => &mut state.parallelism.get_cb,
    };
    slot.absorb(outcome.parallelism, outcome.morsels);
    (outcome.cube, span)
}

/// Builds the span for a client-side operator over one input cube (when
/// tracing); wall time covers the whole subtree including the input.
fn op_span(
    state: &ExecState<'_>,
    name: &str,
    wall: Duration,
    cube: &DerivedCube,
    child: Option<TraceSpan>,
) -> Option<TraceSpan> {
    state.tracing.then(|| {
        TraceSpan::new(name, wall)
            .with_rows(cube.len() as u64)
            .with_children(child.into_iter().collect())
    })
}

type Evaluated = (DerivedCube, Option<TraceSpan>);

/// Lowers a join or pivot node to the engine's one attach operator:
/// natural join = probe the cell's own coordinate; partial join and pivot =
/// one fixed member per output column; roll-up join = the member's
/// ancestor. `schema` is the target cube's (it owns the roll-up map).
fn lower<'a>(op: &'a LogicalOp, schema: &CubeSchema) -> Result<AttachSpec<'a>, AssessError> {
    Ok(match op {
        LogicalOp::NaturalJoin { kind, measure, rename, .. } => AttachSpec {
            on: None,
            rewrites: vec![Rewrite::Same],
            keep: (*kind).into(),
            measure,
            names: std::slice::from_ref(rename),
        },
        LogicalOp::RollupJoin {
            kind,
            hierarchy,
            fine_level,
            coarse_level,
            measure,
            rename,
            ..
        } => {
            let h = schema
                .hierarchy(*hierarchy)
                .ok_or_else(|| AssessError::Statement("roll-up hierarchy out of range".into()))?;
            AttachSpec {
                on: Some(*hierarchy),
                rewrites: vec![Rewrite::Roll(h.composed_map(*fine_level, *coarse_level)?)],
                keep: (*kind).into(),
                measure,
                names: std::slice::from_ref(rename),
            }
        }
        LogicalOp::SlicedJoin { kind, hierarchy, members, measure, names, .. } => AttachSpec {
            on: Some(*hierarchy),
            rewrites: Rewrite::members(members),
            keep: (*kind).into(),
            measure,
            names,
        },
        LogicalOp::Pivot { hierarchy, reference, neighbors, measure, names, .. } => AttachSpec {
            on: Some(*hierarchy),
            rewrites: Rewrite::members(neighbors),
            keep: Keep::Slice(*reference),
            measure,
            names,
        },
        other => unreachable!("`{}` is neither a join nor a pivot", other.describe()),
    })
}

/// Evaluates a join or pivot node. The strategy decides only *where* the
/// one operator runs: fused into the engine, on the partial aggregates of
/// `get` leaves (JOP/POP), or on the client over the materialized inputs
/// (NP, and any node whose inputs are not plain gets).
fn eval_attach(op: &LogicalOp, state: &mut ExecState<'_>) -> Result<Evaluated, AssessError> {
    let inputs = op.children();
    let (target, bench) = (inputs[0], inputs.get(1).copied());
    let pivot = bench.is_none();
    if let (true, Some((target_q, bench_q))) = (state.fuse, op.fusable_gets()) {
        let t = Instant::now();
        let binding = state.engine.catalog().binding(&target_q.cube).map_err(EngineError::from)?;
        let outcome = state.engine.get_attach(target_q, bench_q, &lower(op, binding.schema())?)?;
        let elapsed = t.elapsed();
        state.timings.get_cb += elapsed;
        let name = if pivot { "get+pivot" } else { "get(c+b)" };
        return Ok(absorb(state, outcome, ScanStage::GetCb, name, elapsed));
    }
    let t0 = Instant::now();
    let (target, target_span) = eval(target, state)?;
    let (bench, bench_span) = match bench {
        Some(bench) => {
            let (cube, span) = eval(bench, state)?;
            (Some(cube), span)
        }
        None => (None, None),
    };
    let t = Instant::now();
    let spec = lower(op, target.schema())?;
    let out = memops::attach(&target, bench.as_ref(), &spec, state.governor.as_deref())?;
    // The NP cost model counts the in-memory pivot as transformation
    // (Section 6.2), the in-memory joins as join.
    let stage = if pivot { &mut state.timings.transform } else { &mut state.timings.join };
    *stage += t.elapsed();
    let span = state.tracing.then(|| {
        let span = TraceSpan::new(if pivot { "pivot" } else { "join" }, t0.elapsed())
            .with_rows(out.len() as u64)
            .with_children(target_span.into_iter().chain(bench_span).collect());
        match op {
            LogicalOp::RollupJoin { .. } => span.with_detail("rollup"),
            LogicalOp::SlicedJoin { .. } => span.with_detail("sliced"),
            _ => span,
        }
    });
    Ok((out, span))
}

fn eval(op: &LogicalOp, state: &mut ExecState<'_>) -> Result<Evaluated, AssessError> {
    // Cooperative cancellation: every operator boundary re-checks the
    // governor, so a cancel or deadline expiry surfaces between operators
    // even when each individual operator is fast.
    state.check()?;
    match op {
        LogicalOp::Get { query, alias } => {
            let t = Instant::now();
            let hit =
                state.shared.and_then(|m| m.get(&crate::workload::fingerprint_query(query).0));
            let (outcome, from_shared) = match hit {
                // Consumers absorb the stored scan's metadata, so the
                // per-statement report matches a serial execution exactly;
                // only the engine's scan counters show the single scan.
                Some(stored) => (stored.clone(), true),
                None => (state.engine.get(query)?, false),
            };
            let elapsed = t.elapsed();
            let (stage, name) = if alias.as_deref() == Some("benchmark") {
                state.timings.get_b += elapsed;
                (ScanStage::GetB, "get(b)")
            } else {
                state.timings.get_c += elapsed;
                (ScanStage::GetC, "get(c)")
            };
            let (cube, span) = absorb(state, outcome, stage, name, elapsed);
            let span = if from_shared { span.map(|s| s.with_detail("shared scan")) } else { span };
            Ok((cube, span))
        }
        LogicalOp::NaturalJoin { .. }
        | LogicalOp::RollupJoin { .. }
        | LogicalOp::SlicedJoin { .. }
        | LogicalOp::Pivot { .. } => eval_attach(op, state),
        LogicalOp::Transform { input, step } => {
            let t0 = Instant::now();
            let (mut cube, child) = eval(input, state)?;
            let t = Instant::now();
            memops::apply_transform(&mut cube, step)?;
            state.timings.comparison += t.elapsed();
            let span = op_span(state, "transform", t0.elapsed(), &cube, child);
            Ok((cube, span))
        }
        LogicalOp::Regression { input, history, output } => {
            let t0 = Instant::now();
            let (mut cube, child) = eval(input, state)?;
            let t = Instant::now();
            memops::apply_regression(&mut cube, history, output)?;
            state.timings.transform += t.elapsed();
            let span = op_span(state, "regress", t0.elapsed(), &cube, child);
            Ok((cube, span))
        }
        LogicalOp::ConstColumn { input, name, value } => {
            let t0 = Instant::now();
            let (mut cube, child) = eval(input, state)?;
            let t = Instant::now();
            memops::add_const_column(&mut cube, name, *value)?;
            state.timings.get_b += t.elapsed();
            let span = op_span(state, "const", t0.elapsed(), &cube, child)
                .map(|s| s.with_detail(format!("{name}={value}")));
            Ok((cube, span))
        }
        LogicalOp::Label { input, labeling, input_column } => {
            let t0 = Instant::now();
            let (mut cube, child) = eval(input, state)?;
            let t = Instant::now();
            memops::apply_label(&mut cube, labeling, input_column)?;
            state.timings.label += t.elapsed();
            let span = op_span(state, "label", t0.elapsed(), &cube, child);
            Ok((cube, span))
        }
    }
}
