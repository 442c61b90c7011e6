//! Equivalence suite for incremental maintenance: growing a cube through
//! [`Engine::append`] must be indistinguishable from rebuilding the world
//! from scratch. Measures are integer-valued throughout, so merged view
//! sums are *exactly* equal to rebuilt ones (f64 addition over integers is
//! associative in the exercised range) and every comparison can demand
//! byte identity.

use std::sync::Arc;

use assess_core::ast::AssessStatement;
use assess_core::exec::AssessRunner;
use assess_core::plan::Strategy;
use assess_core::AssessError;
use olap_engine::{Engine, EngineConfig, WorkerPool};
use olap_model::{AggOp, CubeQuery, CubeSchema, GroupBySet, HierarchyBuilder, MeasureDef};
use olap_storage::{binding::DimInfo, Catalog, Column, CubeBinding, MaterializedAggregate, Table};
use proptest::prelude::*;

const MORSEL: usize = 7;

/// One generated fact row: (pkey, skey, mkey, quantity, price).
type Row = (i64, i64, i64, f64, f64);

/// Deterministic LCG rows over the SALES dimensions (3 products ×
/// 2 stores × 6 months) with whole-number measures.
fn gen_rows(seed: u64, n: usize) -> Vec<Row> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    (0..n)
        .map(|_| {
            (
                (next() % 3) as i64,
                (next() % 2) as i64,
                (next() % 6) as i64,
                (next() % 500) as f64,
                (next() % 90) as f64 + 10.0,
            )
        })
        .collect()
}

fn fact_columns(rows: &[Row]) -> Vec<Column> {
    vec![
        Column::i64("pkey", rows.iter().map(|r| r.0).collect()),
        Column::i64("skey", rows.iter().map(|r| r.1).collect()),
        Column::i64("mkey", rows.iter().map(|r| r.2).collect()),
        Column::f64("quantity", rows.iter().map(|r| r.3).collect()),
        Column::f64("price", rows.iter().map(|r| r.4).collect()),
    ]
}

/// The SALES cube of the parallel suite, plus a non-distributive `price`
/// (Avg) measure so maintenance exercises the rebuild path alongside the
/// delta-merge path.
fn catalog_with(rows: &[Row]) -> (Arc<Catalog>, Arc<CubeSchema>) {
    let measures =
        vec![MeasureDef::new("quantity", AggOp::Sum), MeasureDef::new("price", AggOp::Avg)];
    sales_catalog(rows, measures, &["quantity", "price"])
}

/// The SALES cube over `rows` with `measures`, measure `i` aggregating the
/// fact column `columns[i]`.
fn sales_catalog(
    rows: &[Row],
    measures: Vec<MeasureDef>,
    columns: &[&str],
) -> (Arc<Catalog>, Arc<CubeSchema>) {
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
        measures,
    ));
    let fact = Table::new("sales", fact_columns(rows)).unwrap();
    let binding = CubeBinding::new(
        schema.clone(),
        &fact,
        vec!["pkey".into(), "skey".into(), "mkey".into()],
        columns.iter().map(|c| c.to_string()).collect(),
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
    (cat, schema)
}

/// The seeded views: two delta-mergeable sums and one Avg view that must
/// rebuild on every append.
const VIEW_SPECS: &[(&str, &[&str], &[&str])] = &[
    ("mv_product_month", &["product", "month"], &["quantity"]),
    ("mv_type_country", &["type", "country"], &["quantity"]),
    ("mv_country_price", &["country"], &["quantity", "price"]),
];

/// Materializes one aggregate from the current fact table, the same
/// recipe the SSB dataset uses for its default views.
fn build_view(
    catalog: &Arc<Catalog>,
    schema: &Arc<CubeSchema>,
    name: &str,
    levels: &[&str],
    measures: &[&str],
) -> MaterializedAggregate {
    let group_by = GroupBySet::from_level_names(schema, levels).unwrap();
    let measures: Vec<String> = measures.iter().map(|m| m.to_string()).collect();
    let q = CubeQuery::new("SALES", group_by, vec![], measures);
    Engine::new(catalog.clone()).materialize_view(name, &q).expect("view builds")
}

fn register_views(catalog: &Arc<Catalog>, schema: &Arc<CubeSchema>) {
    for (name, levels, measures) in VIEW_SPECS {
        catalog.register_view(build_view(catalog, schema, name, levels, measures));
    }
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

fn runner_with(cat: &Arc<Catalog>, pool: &Arc<WorkerPool>, threads: usize) -> AssessRunner {
    let config = EngineConfig {
        morsel_rows: MORSEL,
        max_threads: threads,
        parallel_threshold: 1,
        ..EngineConfig::default()
    };
    AssessRunner::new(Engine::with_config(cat.clone(), config).with_worker_pool(pool.clone()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Append-then-query ≡ rebuild-then-query: a catalog grown through
    /// `Engine::append` (views maintained incrementally) answers every
    /// intention identically to a catalog constructed from the full data
    /// with views built from scratch — for every feasible strategy, at 1,
    /// 2 and 8 threads, byte-for-byte.
    #[test]
    fn append_then_query_equals_rebuild_then_query(
        seed in any::<u64>(),
        base in 40usize..160,
        appended in 1usize..40,
    ) {
        let base_rows = gen_rows(seed, base);
        let extra_rows = gen_rows(seed ^ 0xA99E, appended);

        let (grown, schema) = catalog_with(&base_rows);
        register_views(&grown, &schema);
        let outcome = Engine::new(grown.clone())
            .append("SALES", &fact_columns(&extra_rows))
            .expect("append commits");
        prop_assert_eq!(outcome.views_merged, 2);
        prop_assert_eq!(outcome.views_rebuilt, 1);
        prop_assert_eq!(outcome.appended(), appended);

        let all_rows: Vec<Row> = base_rows.iter().chain(&extra_rows).copied().collect();
        let (rebuilt, schema) = catalog_with(&all_rows);
        register_views(&rebuilt, &schema);

        let pool = Arc::new(WorkerPool::new(7));
        for (name, stmt) in intentions() {
            for strategy in [Strategy::Naive, Strategy::JoinOptimized, Strategy::PivotOptimized] {
                for threads in [1usize, 2, 8] {
                    let on = |cat: &Arc<Catalog>| match runner_with(cat, &pool, threads)
                        .run(&stmt, strategy)
                    {
                        Ok((cube, _)) => Ok(Some(cube.to_csv())),
                        Err(AssessError::InfeasibleStrategy { .. }) => Ok(None),
                        Err(e) => Err(TestCaseError::fail(format!(
                            "{name}/{strategy}@{threads}: {e}"
                        ))),
                    };
                    prop_assert_eq!(
                        on(&grown)?,
                        on(&rebuilt)?,
                        "{}/{} diverged at {} threads (seed {})",
                        name, strategy, threads, seed
                    );
                }
            }
        }
    }

    /// Incremental maintenance ≡ full rebuild, for every seeded view and
    /// across a chain of appends: after each commit the stored aggregates
    /// (merged or rebuilt) are exactly the aggregates a from-scratch
    /// materialization of the grown fact table produces.
    #[test]
    fn maintained_views_equal_from_scratch_rebuilds(
        seed in any::<u64>(),
        base in 40usize..120,
        batches in prop::collection::vec(1usize..24, 1..4),
    ) {
        let (cat, schema) = catalog_with(&gen_rows(seed, base));
        register_views(&cat, &schema);
        let engine = Engine::new(cat.clone());
        for (i, n) in batches.iter().enumerate() {
            let batch = fact_columns(&gen_rows(seed ^ (i as u64 + 1), *n));
            let outcome = engine.append("SALES", &batch).expect("append commits");
            prop_assert_eq!(outcome.views_merged + outcome.views_rebuilt, VIEW_SPECS.len());
            prop_assert!(outcome.views_dropped.is_empty());

            for (name, levels, measures) in VIEW_SPECS {
                let stored = cat
                    .views()
                    .into_iter()
                    .find(|v| v.name() == *name)
                    .expect("seeded view still registered");
                let fresh = build_view(&cat, &schema, name, levels, measures);
                prop_assert_eq!(
                    stored.keys(),
                    fresh.keys(),
                    "{} coordinates drifted after append {}",
                    name, i
                );
                for m in *measures {
                    prop_assert_eq!(
                        stored.measure(m).expect("stored measure"),
                        fresh.measure(m).expect("fresh measure"),
                        "{}.{} drifted after append {} (seed {})",
                        name, m, i, seed
                    );
                }
            }
        }
    }
}

/// Every distributive operator over `quantity`.
const EXTREMES: &[&str] = &["quantity", "least", "most", "rows"];

/// The SALES cube with a Sum, a Min, a Max and a Count measure.
fn extremes_catalog(rows: &[Row]) -> (Arc<Catalog>, Arc<CubeSchema>) {
    let measures = vec![
        MeasureDef::new("quantity", AggOp::Sum),
        MeasureDef::new("least", AggOp::Min),
        MeasureDef::new("most", AggOp::Max),
        MeasureDef::new("rows", AggOp::Count),
    ];
    sales_catalog(rows, measures, &["quantity"; 4])
}

/// A view delta-merge is one walk over the view's keys and the delta's in
/// key order. Whether the delta hits the view's first key, its last key,
/// only new keys or only existing ones, the merged Sum, Min, Max and Count
/// view is the view a from-scratch rebuild of the grown table yields, bit
/// for bit.
#[test]
fn view_merge_walk_equals_rebuild_at_every_edge() {
    // Base cells (product, month): (0, 1) first, (1, 2), (1, 4), (2, 3) last.
    let base: Vec<Row> = [(0, 1, 5.0), (1, 2, 7.0), (1, 4, 2.0), (2, 3, 9.0), (0, 1, 3.0)]
        .iter()
        .map(|&(p, m, q)| (p, 0, m, q, 10.0))
        .collect();
    let deltas: [(&str, &[(i64, i64)]); 4] = [
        ("first key", &[(0, 1)]),
        ("last key", &[(2, 3), (2, 3)]),
        ("only new keys", &[(0, 0), (1, 3), (2, 5)]),
        ("only existing keys", &[(1, 4), (0, 1), (2, 3), (1, 2)]),
    ];
    let levels = ["product", "month"];
    for (case, cells) in deltas {
        let (cat, schema) = extremes_catalog(&base);
        cat.register_view(build_view(&cat, &schema, "mv", &levels, EXTREMES));
        let batch: Vec<Row> = (0..)
            .zip(cells.iter())
            .map(|(i, &(p, m))| (p, 1, m, f64::from(i) * 4.0 - 3.0, 10.0))
            .collect();
        let outcome =
            Engine::new(cat.clone()).append("SALES", &fact_columns(&batch)).expect("commits");
        assert_eq!((outcome.views_merged, outcome.views_rebuilt), (1, 0), "{case}");

        let stored = cat.views().into_iter().find(|v| v.name() == "mv").expect("kept");
        let fresh = build_view(&cat, &schema, "mv", &levels, EXTREMES);
        assert_eq!(stored.keys(), fresh.keys(), "{case}");
        for m in EXTREMES {
            let bits = |v: &MaterializedAggregate| {
                v.measure(m).expect("measure").iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(bits(&stored), bits(&fresh), "{m}: {case}");
        }
    }
}
