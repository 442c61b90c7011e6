//! Engine integration tests over a small hand-checked star schema.

use std::sync::Arc;

use olap_engine::{
    CancelToken, Engine, EngineConfig, EngineError, EngineMetrics, JoinKind, ResourceGovernor,
    ResourceKind,
};
use olap_model::{
    AggOp, CubeQuery, CubeSchema, GroupBySet, HierarchyBuilder, MeasureDef, Predicate,
};
use olap_storage::{binding::DimInfo, Catalog, Column, CubeBinding, MaterializedAggregate, Table};

/// Products: Apple(0)/Pear(1)/Lemon(2) = Fresh Fruit, Milk(3) = Dairy.
/// Stores: S1(0)/S2(1) = Italy, S3(2) = France.
/// Months: m0..m3.
fn schema() -> Arc<CubeSchema> {
    let mut product = HierarchyBuilder::new("Product", ["product", "type"]);
    product.add_member_chain(&["Apple", "Fresh Fruit"]).unwrap();
    product.add_member_chain(&["Pear", "Fresh Fruit"]).unwrap();
    product.add_member_chain(&["Lemon", "Fresh Fruit"]).unwrap();
    product.add_member_chain(&["Milk", "Dairy"]).unwrap();
    let mut store = HierarchyBuilder::new("Store", ["store", "country"]);
    store.add_member_chain(&["S1", "Italy"]).unwrap();
    store.add_member_chain(&["S2", "Italy"]).unwrap();
    store.add_member_chain(&["S3", "France"]).unwrap();
    let mut date = HierarchyBuilder::new("Date", ["month"]);
    for m in ["m0", "m1", "m2", "m3"] {
        date.add_member_chain(&[m]).unwrap();
    }
    Arc::new(CubeSchema::new(
        "SALES",
        vec![product.build().unwrap(), store.build().unwrap(), date.build().unwrap()],
        vec![MeasureDef::new("quantity", AggOp::Sum), MeasureDef::new("maxq", AggOp::Max)],
    ))
}

/// Fact rows: (pkey, skey, mkey, quantity).
const FACT: &[(i64, i64, i64, f64)] = &[
    (0, 0, 0, 10.0), // Apple S1(IT) m0
    (0, 2, 0, 15.0), // Apple S3(FR) m0
    (1, 0, 0, 20.0), // Pear  S1(IT) m0
    (1, 2, 0, 8.0),  // Pear  S3(FR) m0
    (2, 1, 0, 5.0),  // Lemon S2(IT) m0
    (3, 0, 0, 7.0),  // Milk  S1(IT) m0
    (0, 0, 1, 12.0), // Apple S1(IT) m1
    (2, 2, 1, 9.0),  // Lemon S3(FR) m1
    (3, 2, 2, 4.0),  // Milk  S3(FR) m2
    (1, 1, 3, 11.0), // Pear  S2(IT) m3
];

fn build_catalog() -> (Arc<Catalog>, Arc<CubeSchema>) {
    let schema = schema();
    let catalog = Arc::new(Catalog::new());
    let fact = Table::new(
        "sales",
        vec![
            Column::i64("pkey", FACT.iter().map(|r| r.0).collect()),
            Column::i64("skey", FACT.iter().map(|r| r.1).collect()),
            Column::i64("mkey", FACT.iter().map(|r| r.2).collect()),
            Column::f64("quantity", FACT.iter().map(|r| r.3).collect()),
        ],
    )
    .unwrap();
    let binding = CubeBinding::new(
        schema.clone(),
        &fact,
        vec!["pkey".into(), "skey".into(), "mkey".into()],
        vec!["quantity".into(), "quantity".into()],
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
    catalog.register_table(fact);
    catalog.register_binding("SALES", binding);
    (catalog, schema)
}

fn engine() -> (Engine, Arc<CubeSchema>) {
    let (catalog, schema) = build_catalog();
    (Engine::new(catalog), schema)
}

fn rows_of(cube: &olap_model::DerivedCube, measure: &str) -> Vec<(Vec<String>, Option<f64>)> {
    let col = cube.numeric_column(measure).unwrap();
    (0..cube.len())
        .map(|row| {
            let names = cube
                .coordinate(row)
                .names(cube.schema(), cube.group_by())
                .unwrap()
                .into_iter()
                .map(str::to_string)
                .collect();
            (names, col.get(row))
        })
        .collect()
}

#[test]
fn get_with_predicates_matches_hand_computation() {
    let (engine, schema) = engine();
    let g = GroupBySet::from_level_names(&schema, &["product", "country"]).unwrap();
    let q = CubeQuery::new(
        "SALES",
        g,
        vec![
            Predicate::eq(&schema, "type", "Fresh Fruit").unwrap(),
            Predicate::eq(&schema, "country", "Italy").unwrap(),
        ],
        vec!["quantity".into()],
    );
    let out = engine.get(&q).unwrap();
    assert_eq!(out.used_view, None);
    assert_eq!(out.rows_scanned, FACT.len());
    let rows = rows_of(&out.cube, "quantity");
    assert_eq!(
        rows,
        vec![
            (vec!["Apple".to_string(), "Italy".to_string()], Some(22.0)),
            (vec!["Pear".to_string(), "Italy".to_string()], Some(31.0)),
            (vec!["Lemon".to_string(), "Italy".to_string()], Some(5.0)),
        ]
    );
}

#[test]
fn get_with_complete_aggregation_on_other_hierarchies() {
    let (engine, schema) = engine();
    let g = GroupBySet::from_level_names(&schema, &["country"]).unwrap();
    let q = CubeQuery::new("SALES", g, vec![], vec!["quantity".into()]);
    let out = engine.get(&q).unwrap();
    let rows = rows_of(&out.cube, "quantity");
    assert_eq!(
        rows,
        vec![(vec!["Italy".to_string()], Some(65.0)), (vec!["France".to_string()], Some(36.0)),]
    );
}

#[test]
fn max_aggregation_operator() {
    let (engine, schema) = engine();
    let g = GroupBySet::from_level_names(&schema, &["country"]).unwrap();
    let q = CubeQuery::new("SALES", g, vec![], vec!["maxq".into()]);
    let out = engine.get(&q).unwrap();
    let rows = rows_of(&out.cube, "maxq");
    assert_eq!(
        rows,
        vec![(vec!["Italy".to_string()], Some(20.0)), (vec!["France".to_string()], Some(15.0)),]
    );
}

#[test]
fn sparsity_cells_without_facts_are_absent() {
    let (engine, schema) = engine();
    let g = GroupBySet::from_level_names(&schema, &["product", "month"]).unwrap();
    let q = CubeQuery::new("SALES", g, vec![], vec!["quantity".into()]);
    let out = engine.get(&q).unwrap();
    // 4 products × 4 months = 16 possible, but only 8 (product, month)
    // combinations have facts.
    assert_eq!(out.cube.len(), 8);
}

#[test]
fn parallel_scan_equals_sequential() {
    let (catalog, schema) = build_catalog();
    let seq = Engine::new(catalog.clone());
    let pool = std::sync::Arc::new(olap_engine::WorkerPool::new(3));
    let par = Engine::with_config(
        catalog,
        EngineConfig {
            morsel_rows: 2,
            max_threads: 4,
            parallel_threshold: 1,
            ..EngineConfig::default()
        },
    )
    .with_worker_pool(pool);
    let g = GroupBySet::from_level_names(&schema, &["product", "country"]).unwrap();
    let q = CubeQuery::new("SALES", g, vec![], vec!["quantity".into()]);
    let a = seq.get(&q).unwrap();
    let b = par.get(&q).unwrap();
    assert_eq!(rows_of(&a.cube, "quantity"), rows_of(&b.cube, "quantity"));
    assert!(b.morsels > 1, "tiny morsels should split the scan");
}

#[test]
fn view_path_matches_fact_path() {
    let (catalog, schema) = build_catalog();
    let engine = Engine::new(catalog.clone());
    // Materialize the (product, country) aggregate from the fact path.
    let g_fine = GroupBySet::from_level_names(&schema, &["product", "country"]).unwrap();
    let base = engine
        .get(&CubeQuery::new("SALES", g_fine.clone(), vec![], vec!["quantity".into()]))
        .unwrap();
    let view = MaterializedAggregate::new(
        "mv_product_country",
        g_fine,
        base.cube.coord_cols().to_vec(),
        vec!["quantity".into()],
        vec![base.cube.numeric_column("quantity").unwrap().data.clone()],
    )
    .unwrap();
    catalog.register_view(view);

    // A coarser query with a type-level predicate must now use the view.
    let g = GroupBySet::from_level_names(&schema, &["type", "country"]).unwrap();
    let q = CubeQuery::new(
        "SALES",
        g,
        vec![Predicate::eq(&schema, "country", "Italy").unwrap()],
        vec!["quantity".into()],
    );
    let via_view = engine.get(&q).unwrap();
    assert_eq!(via_view.used_view.as_deref(), Some("mv_product_country"));
    assert!(via_view.rows_scanned < FACT.len());

    let no_views =
        Engine::with_config(catalog, EngineConfig { use_views: false, ..EngineConfig::default() });
    let via_fact = no_views.get(&q).unwrap();
    assert_eq!(via_fact.used_view, None);
    assert_eq!(rows_of(&via_view.cube, "quantity"), rows_of(&via_fact.cube, "quantity"));
    assert_eq!(
        rows_of(&via_fact.cube, "quantity"),
        vec![
            (vec!["Fresh Fruit".to_string(), "Italy".to_string()], Some(58.0)),
            (vec!["Dairy".to_string(), "Italy".to_string()], Some(7.0)),
        ]
    );
}

#[test]
fn fused_join_computes_sibling_benchmark() {
    let (engine, schema) = engine();
    let g = GroupBySet::from_level_names(&schema, &["product", "country"]).unwrap();
    let left = CubeQuery::new(
        "SALES",
        g.clone(),
        vec![
            Predicate::eq(&schema, "type", "Fresh Fruit").unwrap(),
            Predicate::eq(&schema, "country", "Italy").unwrap(),
        ],
        vec!["quantity".into()],
    );
    let right = CubeQuery::new(
        "SALES",
        g,
        vec![
            Predicate::eq(&schema, "type", "Fresh Fruit").unwrap(),
            Predicate::eq(&schema, "country", "France").unwrap(),
        ],
        vec!["quantity".into()],
    );
    // Partial join on everything but the Store hierarchy (index 1),
    // benchmark sliced on country = France.
    let france = schema.hierarchy(1).unwrap().level(1).unwrap().member_id("France").unwrap();
    let out = engine
        .get_join_sliced(
            &left,
            &right,
            1,
            &[france],
            "quantity",
            &["benchmark.quantity".to_string()],
            JoinKind::Inner,
        )
        .unwrap();
    assert_eq!(rows_of(&out.cube, "quantity").len(), 3);
    assert_eq!(
        rows_of(&out.cube, "benchmark.quantity"),
        vec![
            (vec!["Apple".to_string(), "Italy".to_string()], Some(15.0)),
            (vec!["Pear".to_string(), "Italy".to_string()], Some(8.0)),
            (vec!["Lemon".to_string(), "Italy".to_string()], Some(9.0)),
        ]
    );
}

#[test]
fn left_outer_join_completes_with_nulls() {
    let (engine, schema) = engine();
    let g = GroupBySet::from_level_names(&schema, &["product", "country"]).unwrap();
    let left = CubeQuery::new(
        "SALES",
        g.clone(),
        vec![Predicate::eq(&schema, "country", "Italy").unwrap()],
        vec!["quantity".into()],
    );
    // Benchmark restricted to Fresh Fruit in France: Milk has no match.
    let right = CubeQuery::new(
        "SALES",
        g,
        vec![
            Predicate::eq(&schema, "type", "Fresh Fruit").unwrap(),
            Predicate::eq(&schema, "country", "France").unwrap(),
        ],
        vec!["quantity".into()],
    );
    let france = schema.hierarchy(1).unwrap().level(1).unwrap().member_id("France").unwrap();
    let inner = engine
        .get_join_sliced(
            &left,
            &right,
            1,
            &[france],
            "quantity",
            &["b".to_string()],
            JoinKind::Inner,
        )
        .unwrap();
    let outer = engine
        .get_join_sliced(
            &left,
            &right,
            1,
            &[france],
            "quantity",
            &["b".to_string()],
            JoinKind::LeftOuter,
        )
        .unwrap();
    assert_eq!(inner.cube.len(), 3);
    assert_eq!(outer.cube.len(), 4);
    let milk_row =
        rows_of(&outer.cube, "b").into_iter().find(|(names, _)| names[0] == "Milk").unwrap();
    assert_eq!(milk_row.1, None);
}

#[test]
fn natural_join_pairs_by_coordinate_equality() {
    let (engine, schema) = engine();
    let g = GroupBySet::from_level_names(&schema, &["product", "country"]).unwrap();
    let left = CubeQuery::new(
        "SALES",
        g.clone(),
        vec![Predicate::eq(&schema, "country", "Italy").unwrap()],
        vec!["quantity".into()],
    );
    // "External benchmark" over the same cube: the maxq measure at the same
    // coordinates, restricted to Fresh Fruit.
    let right = CubeQuery::new(
        "SALES",
        g,
        vec![
            Predicate::eq(&schema, "type", "Fresh Fruit").unwrap(),
            Predicate::eq(&schema, "country", "Italy").unwrap(),
        ],
        vec!["maxq".into()],
    );
    let inner = engine.get_join(&left, &right, JoinKind::Inner, &["b".to_string()]).unwrap();
    assert_eq!(inner.cube.len(), 3); // Milk drops
    let outer = engine.get_join(&left, &right, JoinKind::LeftOuter, &["b".to_string()]).unwrap();
    assert_eq!(outer.cube.len(), 4);
    let milk = rows_of(&outer.cube, "b").into_iter().find(|(n, _)| n[0] == "Milk").unwrap();
    assert_eq!(milk.1, None);
}

#[test]
fn sliced_join_attaches_one_column_per_past_slice() {
    // The Past intention under JOP: target = Italy m3, benchmark = the three
    // preceding months joined on everything but the month.
    let (engine, schema) = engine();
    let g = GroupBySet::from_level_names(&schema, &["month", "country"]).unwrap();
    let left = CubeQuery::new(
        "SALES",
        g.clone(),
        vec![
            Predicate::eq(&schema, "country", "Italy").unwrap(),
            Predicate::eq(&schema, "month", "m3").unwrap(),
        ],
        vec!["quantity".into()],
    );
    let right = CubeQuery::new(
        "SALES",
        g,
        vec![
            Predicate::eq(&schema, "country", "Italy").unwrap(),
            Predicate::is_in(&schema, "month", &["m0", "m1", "m2"]).unwrap(),
        ],
        vec!["quantity".into()],
    );
    let month = schema.hierarchy(2).unwrap().level(0).unwrap();
    let ids: Vec<_> = ["m0", "m1", "m2"].iter().map(|m| month.member_id(m).unwrap()).collect();
    let out = engine
        .get_join_sliced(
            &left,
            &right,
            2,
            &ids,
            "quantity",
            &["past0".to_string(), "past1".to_string(), "past2".to_string()],
            JoinKind::Inner,
        )
        .unwrap();
    // Italy: m0 = 42, m1 = 12, m2 missing, m3 (target) = 11. Two fact scans.
    assert_eq!(out.cube.len(), 1);
    assert_eq!(out.rows_scanned, 2 * FACT.len());
    assert_eq!(rows_of(&out.cube, "quantity")[0].1, Some(11.0));
    assert_eq!(rows_of(&out.cube, "past0")[0].1, Some(42.0));
    assert_eq!(rows_of(&out.cube, "past1")[0].1, Some(12.0));
    assert_eq!(rows_of(&out.cube, "past2")[0].1, None);
}

#[test]
fn fused_pivot_equals_fused_join_on_sibling() {
    let (engine, schema) = engine();
    let g = GroupBySet::from_level_names(&schema, &["product", "country"]).unwrap();
    let q_all = CubeQuery::new(
        "SALES",
        g,
        vec![
            Predicate::eq(&schema, "type", "Fresh Fruit").unwrap(),
            Predicate::is_in(&schema, "country", &["Italy", "France"]).unwrap(),
        ],
        vec!["quantity".into()],
    );
    let country = schema.hierarchy(1).unwrap().level(1).unwrap();
    let italy = country.member_id("Italy").unwrap();
    let france = country.member_id("France").unwrap();
    let out = engine
        .get_pivot(&q_all, 1, italy, &[france], "quantity", &["benchmark.quantity".to_string()])
        .unwrap();
    assert_eq!(
        rows_of(&out.cube, "benchmark.quantity"),
        vec![
            (vec!["Apple".to_string(), "Italy".to_string()], Some(15.0)),
            (vec!["Pear".to_string(), "Italy".to_string()], Some(8.0)),
            (vec!["Lemon".to_string(), "Italy".to_string()], Some(9.0)),
        ]
    );
    // Only one fact scan for POP.
    assert_eq!(out.rows_scanned, FACT.len());
}

#[test]
fn pivot_with_missing_neighbor_slices_yields_nulls() {
    let (engine, schema) = engine();
    let g = GroupBySet::from_level_names(&schema, &["month", "country"]).unwrap();
    let q_all = CubeQuery::new(
        "SALES",
        g,
        vec![
            Predicate::eq(&schema, "country", "Italy").unwrap(),
            Predicate::is_in(&schema, "month", &["m0", "m1", "m2", "m3"]).unwrap(),
        ],
        vec!["quantity".into()],
    );
    let month = schema.hierarchy(2).unwrap().level(0).unwrap();
    let ids: Vec<_> =
        ["m0", "m1", "m2", "m3"].iter().map(|m| month.member_id(m).unwrap()).collect();
    let out = engine
        .get_pivot(
            &q_all,
            2,
            ids[3],
            &ids[0..3],
            "quantity",
            &["past0".to_string(), "past1".to_string(), "past2".to_string()],
        )
        .unwrap();
    // Italy totals: m0 = 42, m1 = 12, m2 absent, m3 (reference) = 11.
    assert_eq!(out.cube.len(), 1);
    assert_eq!(rows_of(&out.cube, "quantity")[0].1, Some(11.0));
    assert_eq!(rows_of(&out.cube, "past0")[0].1, Some(42.0));
    assert_eq!(rows_of(&out.cube, "past1")[0].1, Some(12.0));
    assert_eq!(rows_of(&out.cube, "past2")[0].1, None);
}

#[test]
fn pivot_rejects_bad_configurations() {
    let (engine, schema) = engine();
    let g = GroupBySet::from_level_names(&schema, &["product"]).unwrap();
    let q = CubeQuery::new("SALES", g, vec![], vec!["quantity".into()]);
    let country = schema.hierarchy(1).unwrap().level(1).unwrap();
    let italy = country.member_id("Italy").unwrap();
    // Pivot hierarchy not in group-by.
    assert!(engine.get_pivot(&q, 1, italy, &[italy], "quantity", &["b".to_string()]).is_err());
    // Empty neighbor list.
    let g2 = GroupBySet::from_level_names(&schema, &["product", "country"]).unwrap();
    let q2 = CubeQuery::new("SALES", g2, vec![], vec!["quantity".into()]);
    assert!(engine.get_pivot(&q2, 1, italy, &[], "quantity", &[]).is_err());
    // Unknown measure.
    assert!(engine.get_pivot(&q2, 1, italy, &[italy], "ghost", &["b".to_string()]).is_err());
}

#[test]
fn unknown_cube_or_measure_errors_cleanly() {
    let (engine, schema) = engine();
    let g = GroupBySet::from_level_names(&schema, &["product"]).unwrap();
    assert!(engine
        .get(&CubeQuery::new("NOPE", g.clone(), vec![], vec!["quantity".into()]))
        .is_err());
    assert!(engine.get(&CubeQuery::new("SALES", g, vec![], vec!["ghost".into()])).is_err());
}

#[test]
fn sql_generation_shapes() {
    let (catalog, schema) = build_catalog();
    let binding = catalog.binding("SALES").unwrap();
    let g = GroupBySet::from_level_names(&schema, &["product", "country"]).unwrap();
    let q = CubeQuery::new(
        "SALES",
        g.clone(),
        vec![
            Predicate::eq(&schema, "type", "Fresh Fruit").unwrap(),
            Predicate::eq(&schema, "country", "Italy").unwrap(),
        ],
        vec!["quantity".into()],
    );
    let sql = olap_engine::sqlgen::select_sql(&binding, &q);
    assert!(sql.contains("select f.pkey, store.country, sum(f.quantity) as quantity"));
    assert!(sql.contains("join product on product.pkey = f.pkey"));
    assert!(sql.contains("where type = 'Fresh Fruit' and country = 'Italy'"));
    assert!(sql.contains("group by f.pkey, store.country"));

    let mut right = q.clone();
    right.predicates[1] = Predicate::eq(&schema, "country", "France").unwrap();
    let join = olap_engine::sqlgen::join_sql(
        &binding,
        &q,
        &right,
        &["pkey".to_string()],
        &["bc_quantity".to_string()],
    );
    assert!(join.contains("t1.pkey = t2.pkey"));
    assert!(join.contains("t2.quantity as bc_quantity"));

    let mut q_all = q.clone();
    q_all.predicates[1] = Predicate::is_in(&schema, "country", &["Italy", "France"]).unwrap();
    let pivot = olap_engine::sqlgen::pivot_sql(
        &binding,
        &q_all,
        1,
        1,
        "Italy",
        &[("France".to_string(), "bc_quantity".to_string())],
        "quantity",
    );
    assert!(pivot.contains("pivot ("));
    assert!(pivot.contains("'France' as bc_quantity"));
    assert!(pivot.contains("bc_quantity is not null"));
}

#[test]
fn index_fast_path_matches_full_scan() {
    let (catalog, schema) = build_catalog();
    let indexed = Engine::with_config(
        catalog.clone(),
        EngineConfig { use_indexes: true, index_selectivity: 0.5, ..EngineConfig::default() },
    );
    let scanning = Engine::with_config(
        catalog,
        EngineConfig { use_indexes: false, ..EngineConfig::default() },
    );
    let g = GroupBySet::from_level_names(&schema, &["product", "month"]).unwrap();
    // Point predicate on the finest store level: 1 of 3 members.
    let q = CubeQuery::new(
        "SALES",
        g,
        vec![Predicate::eq(&schema, "store", "S1").unwrap()],
        vec!["quantity".into()],
    );
    let a = indexed.get(&q).unwrap();
    let b = scanning.get(&q).unwrap();
    // The index touches only S1's 4 fact rows instead of all 10.
    assert!(a.rows_scanned < b.rows_scanned, "{} vs {}", a.rows_scanned, b.rows_scanned);
    assert_eq!(a.rows_scanned, 4);
    assert_eq!(rows_of(&a.cube, "quantity"), rows_of(&b.cube, "quantity"));
}

#[test]
fn index_path_declines_unselective_predicates() {
    let (catalog, schema) = build_catalog();
    let engine = Engine::with_config(
        catalog,
        EngineConfig { use_indexes: true, index_selectivity: 0.01, ..EngineConfig::default() },
    );
    let g = GroupBySet::from_level_names(&schema, &["product"]).unwrap();
    let q = CubeQuery::new(
        "SALES",
        g,
        vec![Predicate::eq(&schema, "store", "S1").unwrap()],
        vec!["quantity".into()],
    );
    // 1/3 of the store domain exceeds the 1% threshold: full scan.
    let out = engine.get(&q).unwrap();
    assert_eq!(out.rows_scanned, FACT.len());
}

#[test]
fn estimate_get_predicts_access_path_and_size() {
    let (catalog, schema) = build_catalog();
    let engine = Engine::new(catalog.clone());
    let g = GroupBySet::from_level_names(&schema, &["product", "country"]).unwrap();
    let q = CubeQuery::new(
        "SALES",
        g.clone(),
        vec![Predicate::eq(&schema, "country", "Italy").unwrap()],
        vec!["quantity".into()],
    );
    let est = engine.estimate_get(&q).unwrap();
    assert!(!est.from_view);
    assert_eq!(est.rows_scanned, FACT.len());
    // Italy holds 2 of 3 stores.
    assert!((est.selectivity - 2.0 / 3.0).abs() < 1e-9);
    assert!(est.cells >= 1.0 && est.cells <= FACT.len() as f64);

    // With a matching view, the estimate switches to the view's size.
    let base =
        engine.get(&CubeQuery::new("SALES", g.clone(), vec![], vec!["quantity".into()])).unwrap();
    catalog.register_view(
        MaterializedAggregate::new(
            "mv",
            g,
            base.cube.coord_cols().to_vec(),
            vec!["quantity".into()],
            vec![base.cube.numeric_column("quantity").unwrap().data.clone()],
        )
        .unwrap(),
    );
    let est = engine.estimate_get(&q).unwrap();
    assert!(est.from_view);
    assert_eq!(est.rows_scanned, base.cube.len());
}

#[test]
fn wide_group_by_keys_fall_back_to_boxed_scan() {
    // Five hierarchies of 8192 members each need 5 × 13 = 65 bits: one past
    // the packed-key limit, forcing the wide path.
    let mut hierarchies = Vec::new();
    let mut fk_cols = Vec::new();
    let mut dims = Vec::new();
    const CARD: usize = 8192;
    for h in 0..5 {
        let mut b = HierarchyBuilder::new(format!("H{h}"), [format!("l{h}")]);
        for m in 0..CARD {
            b.add_member_chain(&[format!("h{h}m{m}")]).unwrap();
        }
        hierarchies.push(b.build().unwrap());
        fk_cols.push(format!("fk{h}"));
        dims.push(DimInfo {
            table: format!("d{h}"),
            pk: format!("fk{h}"),
            level_columns: vec![format!("l{h}")],
        });
    }
    let schema =
        Arc::new(CubeSchema::new("WIDE", hierarchies, vec![MeasureDef::new("m", AggOp::Sum)]));
    // A handful of facts, two of them sharing every coordinate.
    let rows: Vec<[i64; 5]> =
        vec![[1, 2, 3, 4, 5], [1, 2, 3, 4, 5], [6, 7, 8, 9, 10], [8191, 0, 8191, 0, 8191]];
    let mut columns: Vec<Column> = (0..5)
        .map(|c| Column::i64(format!("fk{c}"), rows.iter().map(|r| r[c]).collect()))
        .collect();
    columns.push(Column::f64("m", vec![1.0, 2.0, 4.0, 8.0]));
    let fact = Table::new("wide_fact", columns).unwrap();
    let binding = CubeBinding::new(schema.clone(), &fact, fk_cols, vec!["m".into()], dims).unwrap();
    let catalog = Arc::new(Catalog::new());
    catalog.register_table(fact);
    catalog.register_binding("WIDE", binding);
    let engine = Engine::new(catalog);

    let g = GroupBySet::top(&schema);
    let q = CubeQuery::new("WIDE", g, vec![], vec!["m".into()]);
    let out = engine.get(&q).unwrap();
    assert_eq!(out.cube.len(), 3, "duplicate coordinates aggregate");
    let col = out.cube.numeric_column("m").unwrap();
    let mut sums: Vec<f64> = (0..3).map(|r| col.get(r).unwrap()).collect();
    sums.sort_by(|a, b| a.partial_cmp(b).unwrap());
    assert_eq!(sums, vec![3.0, 4.0, 8.0]);
    // Fused paths still refuse wide keys.
    let err = engine
        .get_pivot(&q, 0, olap_model::MemberId(1), &[olap_model::MemberId(6)], "m", &["b".into()])
        .unwrap_err();
    assert_eq!(err, olap_engine::EngineError::WideKey { bits: 65 });
    assert_eq!(
        err.to_string(),
        "unsupported operation: group-by key needs 65 bits; wide keys are not supported by the \
         fused engine paths"
    );
}

/// The 65-bit schema of `wide_group_by_keys_fall_back_to_boxed_scan` (five
/// flat hierarchies of 8192 members) over its four facts, and the wide
/// query grouping by all five.
fn wide_catalog() -> (Arc<Catalog>, CubeQuery) {
    const CARD: usize = 8192;
    let mut hierarchies = Vec::new();
    let mut fk_cols = Vec::new();
    let mut dims = Vec::new();
    for h in 0..5 {
        let mut b = HierarchyBuilder::new(format!("H{h}"), [format!("l{h}")]);
        for m in 0..CARD {
            b.add_member_chain(&[format!("h{h}m{m}")]).unwrap();
        }
        hierarchies.push(b.build().unwrap());
        fk_cols.push(format!("fk{h}"));
        dims.push(DimInfo {
            table: format!("d{h}"),
            pk: format!("fk{h}"),
            level_columns: vec![format!("l{h}")],
        });
    }
    let schema =
        Arc::new(CubeSchema::new("WIDE", hierarchies, vec![MeasureDef::new("m", AggOp::Sum)]));
    let rows: Vec<[i64; 5]> =
        vec![[1, 2, 3, 4, 5], [1, 2, 3, 4, 5], [6, 7, 8, 9, 10], [8191, 0, 8191, 0, 8191]];
    let mut columns: Vec<Column> = (0..5)
        .map(|c| Column::i64(format!("fk{c}"), rows.iter().map(|r| r[c]).collect()))
        .collect();
    columns.push(Column::f64("m", vec![1.0, 2.0, 4.0, 8.0]));
    let fact = Table::new("wide_fact", columns).unwrap();
    let binding = CubeBinding::new(schema.clone(), &fact, fk_cols, vec!["m".into()], dims).unwrap();
    let catalog = Arc::new(Catalog::new());
    catalog.register_table(fact);
    catalog.register_binding("WIDE", binding);
    let q = CubeQuery::new("WIDE", GroupBySet::top(&schema), vec![], vec!["m".into()]);
    (catalog, q)
}

#[test]
fn wide_gets_are_charged_to_the_row_budget() {
    let (catalog, q) = wide_catalog();
    // A tenant's row ceiling binds a wide get exactly as it binds a packed
    // one: the four fact rows are pre-charged and refused.
    let capped = Arc::new(ResourceGovernor::unlimited().with_max_rows_scanned(1));
    let err = Engine::new(catalog.clone()).with_governor(capped).get(&q).unwrap_err();
    assert_eq!(
        err,
        EngineError::BudgetExceeded { resource: ResourceKind::RowsScanned, limit: 1, used: 4 }
    );

    // Within budget the rows are counted against it and the scan still
    // lands in the wide path's metrics.
    let roomy = Arc::new(ResourceGovernor::unlimited().with_max_rows_scanned(4));
    let metrics = Arc::new(EngineMetrics::new());
    let engine = Engine::new(catalog).with_governor(roomy.clone()).with_metrics(metrics.clone());
    let out = engine.get(&q).unwrap();
    assert_eq!((out.cube.len(), out.rows_scanned), (3, 4));
    assert_eq!(roomy.rows_scanned(), 4);
    #[cfg(feature = "obs")]
    {
        let s = metrics.snapshot();
        assert_eq!((s.wide_scans, s.fact_scans, s.rows_scanned), (1, 0, 4));
    }
}

#[test]
fn wide_gets_honour_cancellation() {
    let (catalog, q) = wide_catalog();
    let token = CancelToken::new();
    token.cancel();
    let governor = Arc::new(ResourceGovernor::unlimited().with_cancel_token(token));
    let err = Engine::new(catalog).with_governor(governor).get(&q).unwrap_err();
    assert_eq!(err, EngineError::Cancelled);
}

/// Two cubes of one shape over two fact tables: a view sourced from the
/// first answers the first only. The second cube's gets scan its own fact
/// table and its estimates say so.
#[test]
fn views_answer_only_the_cube_they_aggregate() {
    let (catalog, schema) = build_catalog();
    let returns = Arc::new(CubeSchema::new(
        "RETURNS",
        schema.hierarchies().to_vec(),
        schema.measures().to_vec(),
    ));
    let fact = Table::new(
        "returns",
        vec![
            Column::i64("pkey", vec![0, 1, 3, 0]),
            Column::i64("skey", vec![0, 2, 1, 2]),
            Column::i64("mkey", vec![0, 1, 2, 3]),
            Column::f64("quantity", vec![1.0, 2.0, 4.0, 8.0]),
        ],
    )
    .unwrap();
    let dims = [("product", "pkey", "type"), ("store", "skey", "country")]
        .into_iter()
        .map(|(table, pk, upper)| DimInfo {
            table: table.into(),
            pk: pk.into(),
            level_columns: vec![pk.into(), upper.into()],
        })
        .chain([DimInfo {
            table: "dates".into(),
            pk: "mkey".into(),
            level_columns: vec!["month".into()],
        }])
        .collect();
    let binding = CubeBinding::new(
        returns,
        &fact,
        vec!["pkey".into(), "skey".into(), "mkey".into()],
        vec!["quantity".into(), "quantity".into()],
        dims,
    )
    .unwrap();
    catalog.register_table(fact);
    catalog.register_binding("RETURNS", binding);

    let engine = Engine::new(catalog.clone());
    let g = GroupBySet::from_level_names(&schema, &["product", "country"]).unwrap();
    let query = |cube: &str| CubeQuery::new(cube, g.clone(), vec![], vec!["quantity".into()]);
    let base = engine.get(&query("SALES")).unwrap();
    catalog.register_view(
        MaterializedAggregate::new(
            "mv_sales",
            g.clone(),
            base.cube.coord_cols().to_vec(),
            vec!["quantity".into()],
            vec![base.cube.numeric_column("quantity").unwrap().data.clone()],
        )
        .unwrap()
        .with_source("SALES"),
    );
    assert_eq!(engine.get(&query("SALES")).unwrap().used_view.as_deref(), Some("mv_sales"));
    assert!(engine.estimate_get(&query("SALES")).unwrap().from_view);

    let out = engine.get(&query("RETURNS")).unwrap();
    assert_eq!(out.used_view, None);
    let fact_scan =
        Engine::with_config(catalog, EngineConfig { use_views: false, ..EngineConfig::default() })
            .get(&query("RETURNS"))
            .unwrap();
    assert_eq!(rows_of(&out.cube, "quantity"), rows_of(&fact_scan.cube, "quantity"));
    assert_eq!(out.rows_scanned, 4);
    assert!(!engine.estimate_get(&query("RETURNS")).unwrap().from_view);
}
