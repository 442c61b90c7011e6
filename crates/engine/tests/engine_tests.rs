//! Engine integration tests over a small hand-checked star schema.

use std::sync::Arc;

use olap_engine::{
    AttachSpec, CancelToken, Engine, EngineConfig, EngineError, EngineMetrics, JoinKind, Keep,
    ResourceGovernor, Rewrite, ShardBudget, ShardPartial, ShardSet, ShardTransport,
};
use olap_model::{
    AggOp, CubeQuery, CubeSchema, GroupBySet, HierarchyBuilder, MeasureDef, Predicate,
};
use olap_storage::{binding::DimInfo, Catalog, Column, CubeBinding, ShardScheme, Table};

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
    let def = CubeQuery::new("SALES", g_fine, vec![], vec!["quantity".into()]);
    catalog.register_view(engine.materialize_view("mv_product_country", &def).unwrap());

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
        .get_attach(
            &left,
            Some(&right),
            &AttachSpec {
                on: Some(1),
                rewrites: Rewrite::members(&[france]),
                keep: JoinKind::Inner.into(),
                measure: "quantity",
                names: &["benchmark.quantity".to_string()],
            },
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
        .get_attach(
            &left,
            Some(&right),
            &AttachSpec {
                on: Some(1),
                rewrites: Rewrite::members(&[france]),
                keep: JoinKind::Inner.into(),
                measure: "quantity",
                names: &["b".to_string()],
            },
        )
        .unwrap();
    let outer = engine
        .get_attach(
            &left,
            Some(&right),
            &AttachSpec {
                on: Some(1),
                rewrites: Rewrite::members(&[france]),
                keep: JoinKind::LeftOuter.into(),
                measure: "quantity",
                names: &["b".to_string()],
            },
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
    let names = ["b".to_string()];
    let natural = |kind: JoinKind| AttachSpec {
        on: None,
        rewrites: vec![Rewrite::Same],
        keep: kind.into(),
        measure: "maxq",
        names: &names,
    };
    let inner = engine.get_attach(&left, Some(&right), &natural(JoinKind::Inner)).unwrap();
    assert_eq!(inner.cube.len(), 3); // Milk drops
    let outer = engine.get_attach(&left, Some(&right), &natural(JoinKind::LeftOuter)).unwrap();
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
        .get_attach(
            &left,
            Some(&right),
            &AttachSpec {
                on: Some(2),
                rewrites: Rewrite::members(&ids),
                keep: JoinKind::Inner.into(),
                measure: "quantity",
                names: &["past0".to_string(), "past1".to_string(), "past2".to_string()],
            },
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
    let spec = AttachSpec {
        on: Some(1),
        rewrites: Rewrite::members(&[france]),
        keep: Keep::Slice(italy),
        measure: "quantity",
        names: &["benchmark.quantity".to_string()],
    };
    let out = engine.get_attach(&q_all, None, &spec).unwrap();
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
    let spec = AttachSpec {
        on: Some(2),
        rewrites: Rewrite::members(&ids[0..3]),
        keep: Keep::Slice(ids[3]),
        measure: "quantity",
        names: &["past0".to_string(), "past1".to_string(), "past2".to_string()],
    };
    let out = engine.get_attach(&q_all, None, &spec).unwrap();
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
    let b = ["b".to_string()];
    let pivot = |neighbors: &[_], measure, names| AttachSpec {
        on: Some(1),
        rewrites: Rewrite::members(neighbors),
        keep: Keep::Slice(italy),
        measure,
        names,
    };
    // Pivot hierarchy not in group-by.
    assert!(engine.get_attach(&q, None, &pivot(&[italy], "quantity", &b)).is_err());
    // Empty neighbor list.
    let g2 = GroupBySet::from_level_names(&schema, &["product", "country"]).unwrap();
    let q2 = CubeQuery::new("SALES", g2, vec![], vec!["quantity".into()]);
    assert!(engine.get_attach(&q2, None, &pivot(&[], "quantity", &[])).is_err());
    // Unknown measure.
    assert!(engine.get_attach(&q2, None, &pivot(&[italy], "ghost", &b)).is_err());
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
    let def = CubeQuery::new("SALES", g, vec![], vec!["quantity".into()]);
    let base = engine.get(&def).unwrap();
    catalog.register_view(engine.materialize_view("mv", &def).unwrap());
    let est = engine.estimate_get(&q).unwrap();
    assert!(est.from_view);
    assert_eq!(est.rows_scanned, base.cube.len());
}

/// Five flat hierarchies of 8192 members, whose packed key needs
/// 5 × 13 = 65 bits (one past a machine word), over four facts, and the
/// wide query grouping by all five.
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
fn wide_group_by_keys_are_refused_before_any_row_is_charged() {
    let (catalog, q) = wide_catalog();
    let governor = Arc::new(ResourceGovernor::unlimited());
    let metrics = Arc::new(EngineMetrics::new());
    let engine = Engine::new(catalog).with_governor(governor.clone()).with_metrics(metrics.clone());
    let wide = Some(EngineError::WideKey { bits: 65 });
    assert_eq!(engine.get(&q).err(), wide);
    assert_eq!(engine.get_partial(&q).err(), wide);
    let (m1, m6) = (olap_model::MemberId(1), olap_model::MemberId(6));
    let spec = AttachSpec {
        on: Some(0),
        rewrites: Rewrite::members(&[m6]),
        keep: Keep::Slice(m1),
        measure: "m",
        names: &["b".into()],
    };
    assert_eq!(engine.get_attach(&q, None, &spec).err(), wide);
    assert_eq!(governor.rows_scanned(), 0);
    assert_eq!(metrics.snapshot().scans, 0);
}

/// A plain `get` grouping by a key wider than a machine word answers
/// with a refusal that names the bits the key would need.
#[test]
fn wide_group_by_keys_are_refused_with_their_bit_count() {
    let (catalog, q) = wide_catalog();
    let err = Engine::new(catalog).get(&q).unwrap_err();
    assert_eq!(err, EngineError::WideKey { bits: 65 });
    assert_eq!(
        err.to_string(),
        "unsupported operation: group-by key needs 65 bits; keys wider than 64 bits are not \
         supported"
    );
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
    catalog.register_view(engine.materialize_view("mv_sales", &query("SALES")).unwrap());
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

/// A view registered twice under one name is one view, so the append that
/// maintains it leaves no stale copy behind for a query to pick.
#[test]
fn a_view_registered_twice_serves_appended_cells() {
    let (catalog, schema) = build_catalog();
    let engine = Engine::new(catalog.clone());
    let g = GroupBySet::from_level_names(&schema, &["product", "month"]).unwrap();
    let def = CubeQuery::new("SALES", g.clone(), vec![], vec!["quantity".into()]);
    for _ in 0..2 {
        catalog.register_view(engine.materialize_view("mv", &def).unwrap());
    }
    // Milk in m1: a ⟨product, month⟩ cell the view does not hold yet.
    let batch = vec![
        Column::i64("pkey", vec![3]),
        Column::i64("skey", vec![0]),
        Column::i64("mkey", vec![1]),
        Column::f64("quantity", vec![6.0]),
    ];
    engine.append("SALES", &batch).unwrap();
    let m1 = Predicate::eq(&schema, "month", "m1").unwrap();
    let q = CubeQuery::new("SALES", g, vec![m1], vec!["quantity".into()]);
    let via_view = engine.get(&q).unwrap();
    assert_eq!(via_view.used_view.as_deref(), Some("mv"));
    let fact_scan =
        Engine::with_config(catalog, EngineConfig { use_views: false, ..EngineConfig::default() })
            .get(&q)
            .unwrap();
    assert_eq!(fact_scan.cube.len(), 3);
    assert_eq!(rows_of(&via_view.cube, "quantity"), rows_of(&fact_scan.cube, "quantity"));
}

/// A shard that is never called.
struct Unreached;

impl ShardTransport for Unreached {
    fn label(&self) -> String {
        "unreached".into()
    }
    fn partial(&self, _: &CubeQuery, _: ShardBudget) -> Result<ShardPartial, EngineError> {
        unreachable!("the coordinator refuses first")
    }
    fn append(&self, _: &str, _: &[Column]) -> Result<usize, EngineError> {
        unreachable!("the coordinator refuses first")
    }
    fn rows(&self, _: &str) -> Result<usize, EngineError> {
        unreachable!("the coordinator refuses first")
    }
}

/// A view is the answer of a predicate-free get whose keys fit a machine
/// word, scanned from fact rows the engine holds: a predicated query, a
/// group-by wider than 64 bits and a coordinator (whose fact tables are
/// empty shells) are refused.
#[test]
fn materialize_view_refuses_what_no_view_can_store() {
    let (engine, schema) = engine();
    let g = GroupBySet::from_level_names(&schema, &["product"]).unwrap();
    let italy = Predicate::eq(&schema, "country", "Italy").unwrap();
    let sliced = CubeQuery::new("SALES", g.clone(), vec![italy], vec!["quantity".into()]);
    assert!(matches!(engine.materialize_view("mv", &sliced), Err(EngineError::Unsupported(_))));

    let (wide, q) = wide_catalog();
    let err = Engine::new(wide).materialize_view("mv", &q).unwrap_err();
    assert_eq!(err, EngineError::WideKey { bits: 65 });

    let shards: Vec<Arc<dyn ShardTransport>> = vec![Arc::new(Unreached)];
    let set = ShardSet::new(ShardScheme::range("pkey", 4, 1), shards).unwrap();
    let coordinator = engine.with_shards(Arc::new(set));
    let def = CubeQuery::new("SALES", g, vec![], vec!["quantity".into()]);
    let err = coordinator.materialize_view("mv", &def).unwrap_err();
    assert!(matches!(err, EngineError::Unsupported(_)));
    assert!(coordinator.catalog().views().is_empty());
}

/// The fact table of cube `ITEMS` over rows `(item, store, quantity)`.
fn items_fact(rows: &[(i64, i64, f64)]) -> Table {
    Table::new(
        "items",
        vec![
            Column::i64("ikey", rows.iter().map(|r| r.0).collect()),
            Column::i64("skey", rows.iter().map(|r| r.1).collect()),
            Column::f64("quantity", rows.iter().map(|r| r.2).collect()),
        ],
    )
    .unwrap()
}

/// Cube `ITEMS`: 100 items (i0..i99, two parities) × two stores (s0, s1)
/// over [`items_fact`]`(rows)`.
fn items_catalog(rows: &[(i64, i64, f64)]) -> (Arc<Catalog>, Arc<CubeSchema>) {
    let mut item = HierarchyBuilder::new("Item", ["item", "parity"]);
    for i in 0..100 {
        item.add_member_chain(&[format!("i{i}"), ["even", "odd"][i % 2].to_string()]).unwrap();
    }
    let mut store = HierarchyBuilder::new("Store", ["store"]);
    for s in ["s0", "s1"] {
        store.add_member_chain(&[s]).unwrap();
    }
    let schema = Arc::new(CubeSchema::new(
        "ITEMS",
        vec![item.build().unwrap(), store.build().unwrap()],
        vec![MeasureDef::new("quantity", AggOp::Sum)],
    ));
    let fact = items_fact(rows);
    let dims = vec![
        DimInfo {
            table: "item".into(),
            pk: "ikey".into(),
            level_columns: vec!["ikey".into(), "parity".into()],
        },
        DimInfo { table: "store".into(), pk: "skey".into(), level_columns: vec!["skey".into()] },
    ];
    let fks = vec!["ikey".into(), "skey".into()];
    let binding =
        CubeBinding::new(schema.clone(), &fact, fks, vec!["quantity".into()], dims).unwrap();
    let catalog = Arc::new(Catalog::new());
    catalog.register_table(fact);
    catalog.register_binding("ITEMS", binding);
    (catalog, schema)
}

/// A point predicate selecting one member of a 100-member finest level
/// reads the table the catalog holds now: after `register_table` replaces
/// the fact table, the same get answers as a fresh catalog over the new
/// rows, with no row ids remembered from the old table.
#[test]
fn point_predicate_gets_read_a_replaced_table() {
    let before = [(7, 0, 1.0), (7, 1, 2.0), (1, 0, 4.0), (2, 1, 8.0)];
    let after = [(1, 0, 1.0), (2, 1, 2.0), (7, 0, 4.0), (7, 1, 8.0)];
    let (catalog, schema) = items_catalog(&before);
    let g = GroupBySet::from_level_names(&schema, &["store"]).unwrap();
    let q = CubeQuery::new(
        "ITEMS",
        g,
        vec![Predicate::eq(&schema, "item", "i7").unwrap()],
        vec!["quantity".into()],
    );
    let engine = Engine::new(catalog.clone());
    let cell = |store: &str, q: f64| (vec![store.to_string()], Some(q));
    assert_eq!(
        rows_of(&engine.get(&q).unwrap().cube, "quantity"),
        [cell("s0", 1.0), cell("s1", 2.0)]
    );

    catalog.register_table(items_fact(&after));
    let got = rows_of(&engine.get(&q).unwrap().cube, "quantity");
    let (fresh, _) = items_catalog(&after);
    assert_eq!(got, rows_of(&Engine::new(fresh).get(&q).unwrap().cube, "quantity"));
    assert_eq!(got, [cell("s0", 4.0), cell("s1", 8.0)]);
}
