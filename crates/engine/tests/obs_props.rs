//! Metrics-consistency properties for the observability spine: the trace
//! tree, the governor's resource accounting, the engine's metrics registry
//! and the execution report are four independent observers of one scan
//! pipeline, and they must never disagree. On top of that, observability
//! must be *inert*: tracing cannot change a single result byte, and every
//! deterministic counter must be a pure function of the workload —
//! identical at 1, 2 and 8 threads, because row and morsel counts funnel
//! through the pool's deterministic merge point rather than being sampled
//! in the inner loop.

use std::sync::Arc;
use std::time::Duration;

use assess_core::ast::AssessStatement;
use assess_core::exec::AssessRunner;
use assess_core::plan::Strategy;
use assess_core::AssessError;
use olap_engine::{
    Engine, EngineConfig, EngineError, EngineMetrics, ResourceGovernor, ShardBudget, ShardPartial,
    ShardSet, ShardTransport, WorkerPool,
};
use olap_model::{AggOp, CubeQuery, CubeSchema, HierarchyBuilder, MeasureDef};
use olap_storage::{binding::DimInfo, Catalog, Column, CubeBinding, ShardScheme, Table};
use proptest::prelude::*;

/// Tiny morsels so even this fixture spans many of them.
const MORSEL: usize = 7;

/// The SALES cube of the core tests padded with LCG-generated rows (the
/// same fixture `parallel_props` uses, so scans genuinely split).
fn catalog(seed: u64, extra: usize) -> Arc<Catalog> {
    let mut product = HierarchyBuilder::new("Product", ["product", "type"]);
    product.add_member_chain(&["Apple", "Fresh Fruit"]).unwrap();
    product.add_member_chain(&["Pear", "Fresh Fruit"]).unwrap();
    product.add_member_chain(&["Milk", "Dairy"]).unwrap();
    let mut store = HierarchyBuilder::new("Store", ["store", "country"]);
    store.add_member_chain(&["S1", "Italy"]).unwrap();
    store.add_member_chain(&["S2", "France"]).unwrap();
    let mut date = HierarchyBuilder::new("Date", ["month"]);
    for i in 0..6 {
        date.add_member_chain(&[format!("m{i}")]).unwrap();
    }
    let schema = Arc::new(CubeSchema::new(
        "SALES",
        vec![product.build().unwrap(), store.build().unwrap(), date.build().unwrap()],
        vec![MeasureDef::new("quantity", AggOp::Sum)],
    ));

    let mut rows: Vec<(i64, i64, i64, f64)> = Vec::new();
    for i in 0..6i64 {
        rows.push((0, 0, i, 10.0 * (i as f64 + 1.0)));
        rows.push((1, 0, i, 7.0));
        rows.push((0, 1, i, 20.0 + i as f64));
    }
    rows.push((2, 0, 5, 4.0));
    rows.push((1, 1, 0, 3.0));
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    for _ in 0..extra {
        let p = (next() % 3) as i64;
        let s = (next() % 2) as i64;
        let m = (next() % 6) as i64;
        let q = (next() % 500) as f64 / 4.0;
        rows.push((p, s, m, q));
    }

    let fact = Table::new(
        "sales",
        vec![
            Column::i64("pkey", rows.iter().map(|r| r.0).collect()),
            Column::i64("skey", rows.iter().map(|r| r.1).collect()),
            Column::i64("mkey", rows.iter().map(|r| r.2).collect()),
            Column::f64("quantity", rows.iter().map(|r| r.3).collect()),
        ],
    )
    .unwrap();
    let binding = CubeBinding::new(
        schema,
        &fact,
        vec!["pkey".into(), "skey".into(), "mkey".into()],
        vec!["quantity".into()],
        vec![
            DimInfo {
                table: "product".into(),
                pk: "pkey".into(),
                level_columns: vec!["pkey".into(), "type".into()],
            },
            DimInfo {
                table: "store".into(),
                pk: "skey".into(),
                level_columns: vec!["skey".into(), "country".into()],
            },
            DimInfo {
                table: "dates".into(),
                pk: "mkey".into(),
                level_columns: vec!["month".into()],
            },
        ],
    )
    .unwrap();
    let cat = Arc::new(Catalog::new());
    cat.register_table(fact);
    cat.register_binding("SALES", binding);
    cat
}

/// One statement per benchmark type of Section 4.1.
fn intentions() -> Vec<(&'static str, AssessStatement)> {
    vec![
        (
            "constant",
            AssessStatement::on("SALES")
                .by(["country"])
                .assess("quantity")
                .against_constant(200.0)
                .labels_named("quartiles")
                .build(),
        ),
        (
            "external",
            AssessStatement::on("SALES")
                .by(["country"])
                .assess("quantity")
                .against_external("SALES", "quantity")
                .labels_named("quartiles")
                .build(),
        ),
        (
            "sibling",
            AssessStatement::on("SALES")
                .slice("country", "Italy")
                .by(["product", "country"])
                .assess("quantity")
                .against_sibling("country", "France")
                .labels_named("quartiles")
                .build(),
        ),
        (
            "past",
            AssessStatement::on("SALES")
                .slice("month", "m5")
                .by(["month", "country"])
                .assess("quantity")
                .against_past(3)
                .labels_named("quartiles")
                .build(),
        ),
    ]
}

/// One fully-instrumented runner: a private metrics registry and an
/// unlimited governor, both observable from the outside after the run.
struct Instrumented {
    runner: AssessRunner,
    metrics: Arc<EngineMetrics>,
    governor: Arc<ResourceGovernor>,
}

fn instrumented(cat: &Arc<Catalog>, pool: &Arc<WorkerPool>, threads: usize) -> Instrumented {
    let config = EngineConfig {
        morsel_rows: MORSEL,
        max_threads: threads,
        parallel_threshold: 1,
        ..EngineConfig::default()
    };
    let metrics = Arc::new(EngineMetrics::new());
    let governor = Arc::new(ResourceGovernor::unlimited());
    let engine = Engine::with_config(cat.clone(), config)
        .with_worker_pool(pool.clone())
        .with_metrics(metrics.clone())
        .with_governor(governor.clone());
    Instrumented { runner: AssessRunner::new(engine), metrics, governor }
}

/// A shard node in-process: the coordinator reaches the shard's engine
/// only through the [`ShardTransport`] contract, as it reaches a remote
/// node.
struct InProcessShard(Engine);

impl ShardTransport for InProcessShard {
    fn label(&self) -> String {
        "in-process".to_string()
    }

    fn partial(&self, q: &CubeQuery, budget: ShardBudget) -> Result<ShardPartial, EngineError> {
        let mut governor = ResourceGovernor::unlimited();
        if let Some(max) = budget.max_rows {
            governor = governor.with_max_rows_scanned(max);
        }
        if let Some(ms) = budget.deadline_ms {
            governor = governor.with_timeout(Duration::from_millis(ms));
        }
        self.0.clone().with_governor(Arc::new(governor)).get_partial(q)
    }

    fn append(&self, cube: &str, batch: &[Column]) -> Result<usize, EngineError> {
        Ok(self.0.append(cube, batch)?.appended())
    }

    fn rows(&self, table: &str) -> Result<usize, EngineError> {
        Ok(self.0.catalog().table(table)?.n_rows())
    }
}

/// The same instrumented runner, but scatter-gathering over `shards`
/// in-process range shards of the SALES fact (cut by `mkey`, domain 6).
/// The shard engines record into the coordinator's registry, and the
/// coordinator charges its governor the rows each shard reports, so the
/// four observers must still see one consistent total.
fn instrumented_sharded(
    cat: &Arc<Catalog>,
    pool: &Arc<WorkerPool>,
    threads: usize,
    shards: usize,
) -> Instrumented {
    let fact = cat.table("sales").expect("sales fact");
    let binding = cat.binding("SALES").expect("SALES binding");
    let config = EngineConfig {
        morsel_rows: MORSEL,
        max_threads: threads,
        parallel_threshold: 1,
        ..EngineConfig::default()
    };
    let metrics = Arc::new(EngineMetrics::new());
    let scheme = ShardScheme::range("mkey", 6, shards);
    let parts = scheme.partition(fact.as_ref()).expect("fact partitions");
    let mut transports: Vec<Arc<dyn ShardTransport>> = Vec::with_capacity(parts.len());
    for part in parts {
        let shard = Arc::new(Catalog::new());
        shard.register_table(part);
        shard.register_binding("SALES", binding.as_ref().clone());
        let engine = Engine::with_config(shard, config.clone())
            .with_worker_pool(pool.clone())
            .with_metrics(metrics.clone());
        transports.push(Arc::new(InProcessShard(engine)));
    }
    let coordinator = Arc::new(Catalog::new());
    coordinator.register_table(fact.take_rows(&[]));
    coordinator.register_binding("SALES", binding.as_ref().clone());
    let set = ShardSet::new(scheme, transports).expect("shard set builds");

    let governor = Arc::new(ResourceGovernor::unlimited());
    let engine = Engine::with_config(coordinator, config)
        .with_worker_pool(pool.clone())
        .with_metrics(metrics.clone())
        .with_governor(governor.clone())
        .with_shards(Arc::new(set));
    Instrumented { runner: AssessRunner::new(engine), metrics, governor }
}

/// Collects every `shard(i)` span in the tree as `(shard index, rows)`.
fn shard_spans(spans: &[assess_core::obs::TraceSpan]) -> Vec<(usize, u64)> {
    let mut found = Vec::new();
    for span in spans {
        if let Some(index) = span.name.strip_prefix("shard(").and_then(|r| r.strip_suffix(')')) {
            let scan = span.scan.expect("shard spans carry scan stats");
            found.push((index.parse().expect("shard index"), scan.rows_scanned));
        }
        found.extend(shard_spans(&span.children));
    }
    found
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Four observers, one truth: for every benchmark type, feasible
    /// strategy and thread count, the trace tree's scan totals equal the
    /// governor's row accounting, the registry's delta, and the execution
    /// report.
    #[test]
    fn trace_governor_registry_and_report_agree(
        seed in any::<u64>(),
        extra in 64usize..512,
    ) {
        let cat = catalog(seed, extra);
        let pool = Arc::new(WorkerPool::new(7));
        for (name, stmt) in intentions() {
            for strategy in
                [Strategy::Naive, Strategy::JoinOptimized, Strategy::PivotOptimized]
            {
                for threads in [1usize, 2, 8] {
                    let ctx = instrumented(&cat, &pool, threads);
                    let before = ctx.metrics.snapshot();
                    let (_, report, tree) = match ctx.runner.run_traced(&stmt, strategy) {
                        Ok(ok) => ok,
                        Err(AssessError::InfeasibleStrategy { .. }) => continue,
                        Err(e) => return Err(TestCaseError::fail(
                            format!("{name}/{strategy}@{threads}: {e}"),
                        )),
                    };
                    let scanned = tree.rows_scanned();
                    prop_assert_eq!(
                        scanned, report.rows_scanned as u64,
                        "{}/{}@{}: trace vs report", name, strategy, threads
                    );
                    prop_assert_eq!(
                        scanned, ctx.governor.rows_scanned(),
                        "{}/{}@{}: trace vs governor", name, strategy, threads
                    );
                    let delta = ctx.metrics.snapshot().delta(&before);
                    prop_assert_eq!(
                        scanned, delta.rows_scanned,
                        "{}/{}@{}: trace vs registry", name, strategy, threads
                    );
                    prop_assert!(delta.scans > 0, "{}: no scan recorded", name);
                }
            }
        }
    }

    /// The four-way equality extends to scatter-gather: a traced sharded
    /// run emits one `shard(i)` span per shard per engine scan, every scan
    /// span in the tree IS a shard span, and their rows sum to the trace
    /// total — which must equal the report, the governor's charge, the
    /// registry delta, and the report's per-shard stage.
    #[test]
    fn sharded_trace_spans_account_for_every_row(
        seed in any::<u64>(),
        extra in 64usize..512,
        shards in 2usize..5,
    ) {
        let cat = catalog(seed, extra);
        let pool = Arc::new(WorkerPool::new(7));
        for (name, stmt) in intentions() {
            for strategy in
                [Strategy::Naive, Strategy::JoinOptimized, Strategy::PivotOptimized]
            {
                for threads in [1usize, 2, 8] {
                    let ctx = instrumented_sharded(&cat, &pool, threads, shards);
                    let before = ctx.metrics.snapshot();
                    let (_, report, tree) = match ctx.runner.run_traced(&stmt, strategy) {
                        Ok(ok) => ok,
                        Err(AssessError::InfeasibleStrategy { .. }) => continue,
                        Err(e) => return Err(TestCaseError::fail(
                            format!("{name}/{strategy}@{threads}x{shards}: {e}"),
                        )),
                    };
                    let per_span = shard_spans(&tree.spans);
                    // Every engine scan fans out: scan spans and shard
                    // spans are the same set, and each fan-out covers each
                    // shard exactly once.
                    prop_assert_eq!(
                        per_span.len(), tree.scan_spans(),
                        "{}/{}: non-shard scan spans in a sharded run", name, strategy
                    );
                    prop_assert!(
                        per_span.len().is_multiple_of(shards) && !per_span.is_empty(),
                        "{}/{}: {} shard spans is not a whole fan-out of {}",
                        name, strategy, per_span.len(), shards
                    );
                    for want in 0..shards {
                        prop_assert_eq!(
                            per_span.iter().filter(|(i, _)| *i == want).count(),
                            per_span.len() / shards,
                            "{}/{}: shard {} missing from a fan-out", name, strategy, want
                        );
                    }

                    let span_rows: u64 = per_span.iter().map(|(_, r)| r).sum();
                    prop_assert_eq!(
                        span_rows, tree.rows_scanned(),
                        "{}/{}: shard spans vs trace total", name, strategy
                    );
                    prop_assert_eq!(
                        span_rows, report.rows_scanned as u64,
                        "{}/{}: shard spans vs report", name, strategy
                    );
                    prop_assert_eq!(
                        span_rows, ctx.governor.rows_scanned(),
                        "{}/{}: shard spans vs governor", name, strategy
                    );
                    prop_assert_eq!(
                        span_rows, ctx.metrics.snapshot().delta(&before).rows_scanned,
                        "{}/{}: shard spans vs registry", name, strategy
                    );

                    // The report's shard stage is the merged view of the
                    // same fan-outs: same indices, same row total.
                    prop_assert_eq!(report.shards.len(), shards, "{}: report stage", name);
                    let stage_rows: u64 =
                        report.shards.iter().map(|s| s.rows_scanned as u64).sum();
                    prop_assert_eq!(
                        stage_rows, span_rows,
                        "{}/{}: report shard stage vs spans", name, strategy
                    );
                    for (i, scan) in report.shards.iter().enumerate() {
                        prop_assert_eq!(scan.shard, i, "{}: stage order", name);
                    }
                }
            }
        }
    }

    /// Observability is inert: opting into tracing cannot change a single
    /// byte of the result.
    #[test]
    fn tracing_never_changes_the_result(seed in any::<u64>(), extra in 64usize..512) {
        let cat = catalog(seed, extra);
        let pool = Arc::new(WorkerPool::new(7));
        for (name, stmt) in intentions() {
            let plain = instrumented(&cat, &pool, 8)
                .runner
                .run_auto(&stmt)
                .unwrap_or_else(|e| panic!("{name}: untraced run failed: {e}"));
            let traced = instrumented(&cat, &pool, 8)
                .runner
                .run_auto_traced(&stmt)
                .unwrap_or_else(|e| panic!("{name}: traced run failed: {e}"));
            prop_assert_eq!(
                plain.0.to_csv(), traced.0.to_csv(),
                "{}: tracing changed the result bytes", name
            );
            prop_assert_eq!(
                plain.1.strategy, traced.1.strategy,
                "{}: tracing changed the chosen strategy", name
            );
        }
    }

    /// Every registry counter except `parallel_scans` is a pure function
    /// of the workload: the per-run delta is identical at 1, 2 and 8
    /// threads (helper grants depend on pool load, so the parallel-scan
    /// tally is the one legitimate exception).
    #[test]
    fn deterministic_counters_are_thread_count_invariant(
        seed in any::<u64>(),
        extra in 64usize..512,
    ) {
        let cat = catalog(seed, extra);
        let pool = Arc::new(WorkerPool::new(7));
        for (name, stmt) in intentions() {
            let delta_at = |threads: usize| {
                let ctx = instrumented(&cat, &pool, threads);
                let before = ctx.metrics.snapshot();
                ctx.runner
                    .run_auto(&stmt)
                    .unwrap_or_else(|e| panic!("{name}@{threads}: {e}"));
                ctx.metrics.snapshot().delta(&before)
            };
            let serial = delta_at(1);
            prop_assert!(serial.scans > 0, "{}: serial run recorded no scans", name);
            for threads in [2usize, 8] {
                let mut parallel = delta_at(threads);
                // Mask the one counter that may legitimately differ.
                parallel.parallel_scans = serial.parallel_scans;
                prop_assert_eq!(
                    serial, parallel,
                    "{}: deterministic counters diverged at {} threads", name, threads
                );
            }
        }
    }
}
