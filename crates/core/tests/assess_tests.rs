//! End-to-end tests of the assess operator: every benchmark type, every
//! strategy, result equivalence, and failure handling.

use std::sync::Arc;

use assess_core::ast::{AssessStatement, FuncExpr};
use assess_core::exec::AssessRunner;
use assess_core::labeling;
use assess_core::plan::Strategy;
use assess_core::AssessError;
use olap_engine::Engine;
use olap_model::{AggOp, CubeSchema, HierarchyBuilder, MeasureDef};
use olap_storage::{binding::DimInfo, Catalog, Column, CubeBinding, Table};

/// Months m0..m5; stores S1 (Italy) / S2 (France); products Apple/Pear
/// (Fresh Fruit) and Milk (Dairy).
///
/// Quantities are arranged so that every benchmark type has a hand-checkable
/// outcome; see the individual tests.
fn fixture() -> AssessRunner {
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
        rows.push((0, 0, i, 10.0 * (i as f64 + 1.0))); // Apple S1: 10..60
        rows.push((1, 0, i, 7.0)); // Pear S1: constant 7
        rows.push((0, 1, i, 20.0 + i as f64)); // Apple S2: 20..25
    }
    rows.push((2, 0, 5, 4.0)); // Milk S1 only in m5
    rows.push((1, 1, 0, 3.0)); // Pear S2 only in m0

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
    let catalog = Arc::new(Catalog::new());
    catalog.register_table(fact);
    catalog.register_binding("SALES", binding);
    AssessRunner::new(Engine::new(catalog))
}

fn good_bad_ranges() -> Vec<assess_core::RangeRule> {
    labeling::ranges(&[
        (0.0, true, 0.9, false, "bad"),
        (0.9, true, 1.1, true, "fine"),
        (1.1, false, f64::INFINITY, true, "good"),
    ])
}

#[test]
fn constant_benchmark_example_1_1_style() {
    let runner = fixture();
    // Totals per country: Italy 256 (210 + 42 + 4), France 138 (135 + 3).
    let stmt = AssessStatement::on("SALES")
        .by(["country"])
        .assess("quantity")
        .against_constant(200.0)
        .using(FuncExpr::call(
            "ratio",
            vec![FuncExpr::measure("quantity"), FuncExpr::number(200.0)],
        ))
        .labels_ranges(good_bad_ranges())
        .build();
    let (result, report) = runner.run(&stmt, Strategy::Naive).unwrap();
    assert_eq!(result.len(), 2);
    let cells = result.cells();
    assert_eq!(cells[0].coordinate, vec!["Italy"]);
    assert_eq!(cells[0].value, Some(256.0));
    assert_eq!(cells[0].benchmark, Some(200.0));
    assert!((cells[0].comparison.unwrap() - 1.28).abs() < 1e-12);
    assert_eq!(cells[0].label.as_deref(), Some("good"));
    assert_eq!(cells[1].coordinate, vec!["France"]);
    assert_eq!(cells[1].label.as_deref(), Some("bad"));
    assert!(report.timings.get_c > std::time::Duration::ZERO);
    assert_eq!(report.timings.get_cb, std::time::Duration::ZERO);
}

#[test]
fn sibling_benchmark_with_perc_of_total() {
    let runner = fixture();
    // Italy totals: Apple 210, Pear 42, Milk 4; France: Apple 135, Pear 3.
    let stmt = AssessStatement::on("SALES")
        .slice("country", "Italy")
        .by(["product", "country"])
        .assess("quantity")
        .against_sibling("country", "France")
        .using(FuncExpr::call(
            "percOfTotal",
            vec![FuncExpr::call(
                "difference",
                vec![FuncExpr::measure("quantity"), FuncExpr::benchmark("quantity")],
            )],
        ))
        .labels_ranges(labeling::ranges(&[
            (f64::NEG_INFINITY, true, -0.2, false, "bad"),
            (-0.2, true, 0.2, true, "ok"),
            (0.2, false, f64::INFINITY, true, "good"),
        ]))
        .build();
    let (result, _) = runner.run(&stmt, Strategy::Naive).unwrap();
    // Milk has no France sibling → dropped by the inner semantics.
    assert_eq!(result.len(), 2);
    let apple = &result.cells()[0];
    assert_eq!(apple.coordinate, vec!["Apple", "Italy"]);
    assert_eq!(apple.benchmark, Some(135.0));
    // Total of quantity over the two matched cells: 210 + 42 = 252.
    assert!((apple.comparison.unwrap() - 75.0 / 252.0).abs() < 1e-12);
    assert_eq!(apple.label.as_deref(), Some("good"));
    let pear = &result.cells()[1];
    assert!((pear.comparison.unwrap() - 39.0 / 252.0).abs() < 1e-12);
}

#[test]
fn sibling_strategies_are_equivalent() {
    let runner = fixture();
    let stmt = AssessStatement::on("SALES")
        .slice("country", "Italy")
        .by(["product", "country"])
        .assess("quantity")
        .against_sibling("country", "France")
        .using(FuncExpr::call(
            "ratio",
            vec![FuncExpr::measure("quantity"), FuncExpr::benchmark("quantity")],
        ))
        .labels_ranges(good_bad_ranges())
        .build();
    let (np, np_report) = runner.run(&stmt, Strategy::Naive).unwrap();
    let (jop, jop_report) = runner.run(&stmt, Strategy::JoinOptimized).unwrap();
    let (pop, pop_report) = runner.run(&stmt, Strategy::PivotOptimized).unwrap();
    assert_eq!(np.cells(), jop.cells());
    assert_eq!(np.cells(), pop.cells());
    // NP runs two separate gets and joins in memory; JOP/POP fuse.
    assert!(np_report.timings.get_b > std::time::Duration::ZERO);
    assert_eq!(np_report.timings.get_cb, std::time::Duration::ZERO);
    assert!(jop_report.timings.get_cb > std::time::Duration::ZERO);
    assert!(pop_report.timings.get_cb > std::time::Duration::ZERO);
    // POP scans the fact table once, NP and JOP twice.
    assert!(pop_report.rows_scanned < np_report.rows_scanned);
    assert_eq!(jop_report.rows_scanned, np_report.rows_scanned);
}

#[test]
fn starred_sibling_keeps_unmatched_cells_with_nulls() {
    let runner = fixture();
    let stmt = AssessStatement::on("SALES")
        .slice("country", "Italy")
        .by(["product", "country"])
        .assess("quantity")
        .starred()
        .against_sibling("country", "France")
        .labels_named("quartiles")
        .build();
    for strategy in [Strategy::Naive, Strategy::JoinOptimized, Strategy::PivotOptimized] {
        let (result, _) = runner.run(&stmt, strategy).unwrap();
        assert_eq!(result.len(), 3, "{strategy} must keep Milk");
        let milk =
            result.cells().into_iter().find(|c| c.coordinate[0] == "Milk").expect("Milk present");
        assert_eq!(milk.benchmark, None);
        assert_eq!(milk.comparison, None);
        assert_eq!(milk.label, None);
    }
}

#[test]
fn past_benchmark_forecasts_with_regression() {
    let runner = fixture();
    // Italy per month: m1 = 27, m2 = 37, m3 = 47, m4 = 57 → forecast 67.
    // Actual m5 = 60 + 7 + 4 = 71; ratio 71/67 ≈ 1.0597 → "fine".
    let stmt = AssessStatement::on("SALES")
        .slice("month", "m5")
        .slice("country", "Italy")
        .by(["month", "country"])
        .assess("quantity")
        .against_past(4)
        .using(FuncExpr::call(
            "ratio",
            vec![FuncExpr::measure("quantity"), FuncExpr::benchmark("quantity")],
        ))
        .labels_ranges(good_bad_ranges())
        .build();
    let (result, report) = runner.run(&stmt, Strategy::Naive).unwrap();
    assert_eq!(result.len(), 1);
    let cell = &result.cells()[0];
    // Coordinates render in schema hierarchy order (Store before Date).
    assert_eq!(cell.coordinate, vec!["Italy", "m5"]);
    assert_eq!(cell.value, Some(71.0));
    assert!((cell.benchmark.unwrap() - 67.0).abs() < 1e-9);
    assert!((cell.comparison.unwrap() - 71.0 / 67.0).abs() < 1e-9);
    assert_eq!(cell.label.as_deref(), Some("fine"));
    assert!(report.timings.transform > std::time::Duration::ZERO);
}

#[test]
fn past_strategies_are_equivalent_on_dense_history() {
    let runner = fixture();
    let stmt = AssessStatement::on("SALES")
        .slice("month", "m5")
        .by(["month", "country"])
        .assess("quantity")
        .against_past(3)
        .labels_named("quartiles")
        .build();
    let (np, _) = runner.run(&stmt, Strategy::Naive).unwrap();
    let (jop, _) = runner.run(&stmt, Strategy::JoinOptimized).unwrap();
    let (pop, pop_report) = runner.run(&stmt, Strategy::PivotOptimized).unwrap();
    assert_eq!(np.cells(), jop.cells());
    assert_eq!(np.cells(), pop.cells());
    assert_eq!(np.len(), 2); // Italy and France both exist in m5
                             // POP fuses everything into a single scan.
    assert!(pop_report.rows_scanned < 2 * 20);
}

#[test]
fn infeasible_strategies_are_rejected() {
    let runner = fixture();
    let constant = AssessStatement::on("SALES")
        .by(["country"])
        .assess("quantity")
        .against_constant(10.0)
        .labels_named("quartiles")
        .build();
    assert!(matches!(
        runner.run(&constant, Strategy::JoinOptimized),
        Err(AssessError::InfeasibleStrategy { strategy: "JOP", .. })
    ));
    assert!(matches!(
        runner.run(&constant, Strategy::PivotOptimized),
        Err(AssessError::InfeasibleStrategy { strategy: "POP", .. })
    ));
}

#[test]
fn insufficient_history_is_reported() {
    let runner = fixture();
    let stmt = AssessStatement::on("SALES")
        .slice("month", "m2")
        .by(["month", "country"])
        .assess("quantity")
        .against_past(5)
        .labels_named("quartiles")
        .build();
    let err = runner.run(&stmt, Strategy::Naive).unwrap_err();
    assert!(matches!(err, AssessError::InsufficientHistory { requested: 5, available: 2, .. }));
}

#[test]
fn statement_validation_errors() {
    let runner = fixture();
    // Sibling without the slicing predicate.
    let no_slice = AssessStatement::on("SALES")
        .by(["product", "country"])
        .assess("quantity")
        .against_sibling("country", "France")
        .labels_named("quartiles")
        .build();
    assert!(matches!(
        runner.run(&no_slice, Strategy::Naive),
        Err(AssessError::InvalidBenchmark(_))
    ));
    // Sibling level missing from the by clause.
    let not_in_by = AssessStatement::on("SALES")
        .slice("country", "Italy")
        .by(["product"])
        .assess("quantity")
        .against_sibling("country", "France")
        .labels_named("quartiles")
        .build();
    assert!(matches!(
        runner.run(&not_in_by, Strategy::Naive),
        Err(AssessError::InvalidBenchmark(_))
    ));
    // Sibling member equal to the target's own slice.
    let self_sibling = AssessStatement::on("SALES")
        .slice("country", "Italy")
        .by(["product", "country"])
        .assess("quantity")
        .against_sibling("country", "Italy")
        .labels_named("quartiles")
        .build();
    assert!(matches!(
        runner.run(&self_sibling, Strategy::Naive),
        Err(AssessError::InvalidBenchmark(_))
    ));
    // Unknown bits and pieces.
    let unknown_cube = AssessStatement::on("NOPE")
        .by(["country"])
        .assess("quantity")
        .labels_named("quartiles")
        .build();
    assert!(matches!(runner.run(&unknown_cube, Strategy::Naive), Err(AssessError::UnknownCube(_))));
    let unknown_measure = AssessStatement::on("SALES")
        .by(["country"])
        .assess("profit")
        .labels_named("quartiles")
        .build();
    assert!(matches!(runner.run(&unknown_measure, Strategy::Naive), Err(AssessError::Model(_))));
    let unknown_function = AssessStatement::on("SALES")
        .by(["country"])
        .assess("quantity")
        .using(FuncExpr::call("frobnicate", vec![FuncExpr::measure("quantity")]))
        .labels_named("quartiles")
        .build();
    assert!(matches!(
        runner.run(&unknown_function, Strategy::Naive),
        Err(AssessError::UnknownFunction(_))
    ));
    let unknown_labeling = AssessStatement::on("SALES")
        .by(["country"])
        .assess("quantity")
        .labels_named("septiles")
        .build();
    assert!(matches!(
        runner.run(&unknown_labeling, Strategy::Naive),
        Err(AssessError::UnknownLabeling(_))
    ));
    // Empty by clause.
    let no_by = AssessStatement::on("SALES").assess("quantity").labels_named("quartiles").build();
    assert!(matches!(runner.run(&no_by, Strategy::Naive), Err(AssessError::Statement(_))));
    // benchmark.x referencing a measure that is not the benchmark's.
    let wrong_ref = AssessStatement::on("SALES")
        .slice("country", "Italy")
        .by(["product", "country"])
        .assess("quantity")
        .against_sibling("country", "France")
        .using(FuncExpr::call(
            "difference",
            vec![FuncExpr::measure("quantity"), FuncExpr::benchmark("storeSales")],
        ))
        .labels_named("quartiles")
        .build();
    assert!(matches!(runner.run(&wrong_ref, Strategy::Naive), Err(AssessError::Statement(_))));
}

#[test]
fn omitted_against_assesses_the_measure_itself() {
    let runner = fixture();
    let stmt = AssessStatement::on("SALES")
        .by(["product"])
        .assess("quantity")
        .labels_named("terciles")
        .build();
    let (result, _) = runner.run(&stmt, Strategy::Naive).unwrap();
    assert_eq!(result.len(), 3);
    // Zero benchmark + difference comparison = the measure value itself.
    for cell in result.cells() {
        assert_eq!(cell.benchmark, Some(0.0));
        assert_eq!(cell.comparison, cell.value);
    }
    // Apple (345) top-1, Pear (45) and Milk (4) below.
    let hist = result.label_histogram();
    assert_eq!(hist.get("top-1"), Some(&1));
}

#[test]
fn quartile_labeling_follows_value_distribution() {
    let runner = fixture();
    let stmt = AssessStatement::on("SALES")
        .by(["month", "country"])
        .assess("quantity")
        .labels_named("quartiles")
        .build();
    let (result, _) = runner.run(&stmt, Strategy::Naive).unwrap();
    assert_eq!(result.len(), 12); // 6 months × 2 countries (m1..m5 France exists? yes: Apple S2 all months)
    let hist = result.label_histogram();
    let total: usize = hist.values().sum();
    assert_eq!(total, 12);
    assert!(hist.keys().all(|k| k.starts_with("top-")));
}

#[test]
fn plan_rendering_shows_strategy_differences() {
    let runner = fixture();
    let stmt = AssessStatement::on("SALES")
        .slice("country", "Italy")
        .by(["product", "country"])
        .assess("quantity")
        .against_sibling("country", "France")
        .labels_named("quartiles")
        .build();
    let resolved = runner.resolve(&stmt).unwrap();
    let np = assess_core::plan::plan(&resolved, Strategy::Naive).unwrap();
    let pop = assess_core::plan::plan(&resolved, Strategy::PivotOptimized).unwrap();
    assert!(np.root.to_string().contains("⋈ partial"));
    assert!(pop.root.to_string().contains("⊞ pivot"));
    assert!(!pop.root.to_string().contains("⋈"));
    assert_eq!(np.root.get_count(), 2);
    assert_eq!(pop.root.get_count(), 1);
}

#[test]
fn codegen_emits_sql_and_python() {
    let runner = fixture();
    let stmt = AssessStatement::on("SALES")
        .slice("country", "Italy")
        .by(["product", "country"])
        .assess("quantity")
        .against_sibling("country", "France")
        .using(FuncExpr::call(
            "percOfTotal",
            vec![FuncExpr::call(
                "difference",
                vec![FuncExpr::measure("quantity"), FuncExpr::benchmark("quantity")],
            )],
        ))
        .labels_ranges(labeling::ranges(&[
            (f64::NEG_INFINITY, true, -0.2, false, "bad"),
            (-0.2, true, 0.2, true, "ok"),
            (0.2, false, f64::INFINITY, true, "good"),
        ]))
        .build();
    let resolved = runner.resolve(&stmt).unwrap();
    let code = assess_core::codegen::generate(&resolved, runner.engine().catalog()).unwrap();
    assert!(code.sql.contains("pivot ("));
    assert!(code.python.contains("def percoftotal"));
    assert!(code.python.contains("pd.cut"));
    // The whole point of Table 1: the statement is much shorter.
    let stmt_chars = stmt.to_string().chars().count();
    assert!(
        code.total_chars() > 3 * stmt_chars,
        "generated code ({}) should dwarf the statement ({stmt_chars})",
        code.total_chars()
    );
}

#[test]
fn result_rendering_is_presentable() {
    let runner = fixture();
    let stmt = AssessStatement::on("SALES")
        .by(["country"])
        .assess("quantity")
        .against_constant(200.0)
        .labels_named("quartiles")
        .build();
    let (result, report) = runner.run(&stmt, Strategy::Naive).unwrap();
    let table = result.render(10);
    assert!(table.contains("country"));
    assert!(table.contains("benchmark.quantity"));
    assert!(table.contains("Italy"));
    assert!(report.plan.contains("get[SALES"));
    let rows = report.timings.as_rows();
    assert_eq!(rows.len(), 7);
    assert!(report.timings.total() > std::time::Duration::ZERO);
}

#[test]
fn ancestor_benchmark_compares_cells_to_their_rollup() {
    let runner = fixture();
    // Each product against its type total. Fresh Fruit = Apple 345 + Pear 45
    // = 390; Dairy = Milk 4.
    let stmt = AssessStatement::on("SALES")
        .by(["product"])
        .assess("quantity")
        .against_ancestor("type")
        .using(FuncExpr::call(
            "ratio",
            vec![FuncExpr::measure("quantity"), FuncExpr::benchmark("quantity")],
        ))
        .labels_ranges(labeling::ranges(&[
            (0.0, true, 0.5, false, "minor"),
            (0.5, true, 1.0, true, "major"),
        ]))
        .build();
    let (np, np_report) = runner.run(&stmt, Strategy::Naive).unwrap();
    assert_eq!(np.len(), 3);
    let cells = np.cells();
    assert_eq!(cells[0].coordinate, vec!["Apple"]);
    assert_eq!(cells[0].benchmark, Some(390.0));
    assert!((cells[0].comparison.unwrap() - 345.0 / 390.0).abs() < 1e-12);
    assert_eq!(cells[0].label.as_deref(), Some("major"));
    assert_eq!(cells[1].label.as_deref(), Some("minor"));
    // Milk is 100% of Dairy.
    assert_eq!(cells[2].benchmark, Some(4.0));
    assert_eq!(cells[2].label.as_deref(), Some("major"));

    // JOP is feasible and equivalent; POP is not feasible.
    let (jop, jop_report) = runner.run(&stmt, Strategy::JoinOptimized).unwrap();
    assert_eq!(np.cells(), jop.cells());
    assert!(np_report.timings.get_b > std::time::Duration::ZERO);
    assert!(jop_report.timings.get_cb > std::time::Duration::ZERO);
    assert!(matches!(
        runner.run(&stmt, Strategy::PivotOptimized),
        Err(AssessError::InfeasibleStrategy { strategy: "POP", .. })
    ));
}

#[test]
fn ancestor_drops_finer_predicates_on_its_hierarchy() {
    let runner = fixture();
    // Slicing on product = Apple still benchmarks against the whole type.
    let stmt = AssessStatement::on("SALES")
        .slice("product", "Apple")
        .by(["product"])
        .assess("quantity")
        .against_ancestor("type")
        .using(FuncExpr::call(
            "percentage",
            vec![FuncExpr::measure("quantity"), FuncExpr::benchmark("quantity")],
        ))
        .labels_ranges(labeling::ranges(&[(0.0, true, 100.0, true, "share")]))
        .build();
    let (result, _) = runner.run(&stmt, Strategy::JoinOptimized).unwrap();
    assert_eq!(result.len(), 1);
    let cell = &result.cells()[0];
    assert_eq!(cell.benchmark, Some(390.0));
    assert!((cell.comparison.unwrap() - 100.0 * 345.0 / 390.0).abs() < 1e-9);
}

#[test]
fn ancestor_validation_errors() {
    let runner = fixture();
    // Ancestor level not coarser than the group-by level of its hierarchy.
    let same = AssessStatement::on("SALES")
        .by(["type"])
        .assess("quantity")
        .against_ancestor("type")
        .labels_named("quartiles")
        .build();
    assert!(matches!(runner.run(&same, Strategy::Naive), Err(AssessError::InvalidBenchmark(_))));
    // Hierarchy of the ancestor not in the by clause at all.
    let absent = AssessStatement::on("SALES")
        .by(["country"])
        .assess("quantity")
        .against_ancestor("type")
        .labels_named("quartiles")
        .build();
    assert!(matches!(runner.run(&absent, Strategy::Naive), Err(AssessError::InvalidBenchmark(_))));
}

#[test]
fn ancestor_statement_round_trips_through_parser() {
    let stmt = AssessStatement::on("SALES")
        .by(["product"])
        .assess("quantity")
        .against_ancestor("type")
        .labels_named("quartiles")
        .build();
    let text = stmt.to_string();
    assert!(text.contains("against ancestor type"));
    // Parsed back through the separate parser crate in the workspace tests;
    // here check the AST renders deterministically.
    assert_eq!(text, stmt.clone().to_string());
}

#[test]
fn cost_based_chooser_picks_the_papers_winners() {
    let runner = fixture();
    let engine = runner.engine();

    let constant = AssessStatement::on("SALES")
        .by(["country"])
        .assess("quantity")
        .against_constant(10.0)
        .labels_named("quartiles")
        .build();
    let resolved = runner.resolve(&constant).unwrap();
    assert_eq!(assess_core::cost::choose(&resolved, engine).unwrap(), Strategy::Naive);

    let sibling = AssessStatement::on("SALES")
        .slice("country", "Italy")
        .by(["product", "country"])
        .assess("quantity")
        .against_sibling("country", "France")
        .labels_named("quartiles")
        .build();
    let resolved = runner.resolve(&sibling).unwrap();
    let choice = assess_core::cost::choose(&resolved, engine).unwrap();
    assert_eq!(choice, Strategy::PivotOptimized);
    let costs = assess_core::cost::estimate_all(&resolved, engine).unwrap();
    assert_eq!(costs.len(), 3);
    // POP scans half the rows of NP/JOP.
    let (_, np) = costs.iter().find(|(_, c)| c.strategy == Strategy::Naive).unwrap();
    let (_, pop) = costs.iter().find(|(_, c)| c.strategy == Strategy::PivotOptimized).unwrap();
    assert!(pop.rows_scanned < np.rows_scanned);
    assert!(np.client_work > pop.client_work);

    let past = AssessStatement::on("SALES")
        .slice("month", "m5")
        .by(["month", "country"])
        .assess("quantity")
        .against_past(3)
        .labels_named("quartiles")
        .build();
    let resolved = runner.resolve(&past).unwrap();
    assert_eq!(assess_core::cost::choose(&resolved, engine).unwrap(), Strategy::PivotOptimized);
}

#[test]
fn suggestions_complete_a_partial_statement() {
    let runner = fixture();
    // No against clause: the suggester must propose siblings of Italy, past
    // windows on m5... but here we slice on country only.
    let partial = AssessStatement::on("SALES")
        .slice("country", "Italy")
        .by(["product", "country"])
        .assess("quantity")
        .labels_named("quartiles")
        .build();
    let suggestions = assess_core::suggest::suggest_benchmarks(&runner, &partial, 10).unwrap();
    assert!(!suggestions.is_empty());
    let rendered: Vec<&str> = suggestions.iter().map(|s| s.against.as_str()).collect();
    assert!(rendered.contains(&"country = 'France'"), "siblings proposed: {rendered:?}");
    assert!(rendered.iter().any(|r| r.starts_with("ancestor")), "ancestors proposed: {rendered:?}");
    // Scores are sorted descending and bounded.
    for w in suggestions.windows(2) {
        assert!(w[0].interest >= w[1].interest);
    }
    for s in &suggestions {
        assert!((0.0..=1.0).contains(&s.interest), "{s:?}");
        assert!(s.cells > 0);
    }
}

#[test]
fn suggestions_include_past_windows_on_temporal_slices() {
    let runner = fixture();
    let partial = AssessStatement::on("SALES")
        .slice("month", "m5")
        .by(["month", "country"])
        .assess("quantity")
        .labels_named("quartiles")
        .build();
    let suggestions = assess_core::suggest::suggest_benchmarks(&runner, &partial, 20).unwrap();
    let rendered: Vec<&str> = suggestions.iter().map(|s| s.against.as_str()).collect();
    assert!(rendered.contains(&"past 3"), "{rendered:?}");
    // m5 has only 5 predecessors, so past 6 must NOT be proposed.
    assert!(!rendered.contains(&"past 6"), "{rendered:?}");
    // Sibling months are proposed too.
    assert!(rendered.iter().any(|r| r.starts_with("month = ")), "{rendered:?}");
}

#[test]
fn suggesting_on_a_complete_statement_is_an_error() {
    let runner = fixture();
    let complete = AssessStatement::on("SALES")
        .by(["country"])
        .assess("quantity")
        .against_constant(1.0)
        .labels_named("quartiles")
        .build();
    assert!(matches!(
        assess_core::suggest::suggest_benchmarks(&runner, &complete, 5),
        Err(AssessError::Statement(_))
    ));
}

/// The fixture plus a `population` property on the country level
/// (Italy 57M, France 58M).
fn fixture_with_population() -> AssessRunner {
    let mut product = HierarchyBuilder::new("Product", ["product", "type"]);
    product.add_member_chain(&["Apple", "Fresh Fruit"]).unwrap();
    let mut store = HierarchyBuilder::new("Store", ["store", "country"]);
    store.add_member_chain(&["S1", "Italy"]).unwrap();
    store.add_member_chain(&["S2", "France"]).unwrap();
    let mut store_h = store.build().unwrap();
    store_h.level_mut(1).unwrap().set_property("population", vec![57.0, 58.0]).unwrap();
    let schema = Arc::new(CubeSchema::new(
        "SALES",
        vec![product.build().unwrap(), store_h],
        vec![MeasureDef::new("quantity", AggOp::Sum)],
    ));
    let fact = Table::new(
        "sales",
        vec![
            Column::i64("pkey", vec![0, 0, 0]),
            Column::i64("skey", vec![0, 1, 1]),
            Column::f64("quantity", vec![114.0, 58.0, 58.0]),
        ],
    )
    .unwrap();
    let binding = CubeBinding::new(
        schema,
        &fact,
        vec!["pkey".into(), "skey".into()],
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
        ],
    )
    .unwrap();
    let catalog = Arc::new(Catalog::new());
    catalog.register_table(fact);
    catalog.register_binding("SALES", binding);
    AssessRunner::new(Engine::new(catalog))
}

#[test]
fn property_references_enable_per_capita_assessment() {
    let runner = fixture_with_population();
    // Italy: 114 quantity / 57M = 2 per capita; France: 116 / 58 = 2.
    let stmt = AssessStatement::on("SALES")
        .by(["country"])
        .assess("quantity")
        .using(FuncExpr::call(
            "ratio",
            vec![FuncExpr::measure("quantity"), FuncExpr::property("country", "population")],
        ))
        .labels_ranges(labeling::ranges(&[
            (0.0, true, 1.5, false, "light"),
            (1.5, true, f64::INFINITY, true, "heavy"),
        ]))
        .build();
    let (result, _) = runner.run(&stmt, Strategy::Naive).unwrap();
    assert_eq!(result.len(), 2);
    for cell in result.cells() {
        assert!((cell.comparison.unwrap() - 2.0).abs() < 1e-9, "{cell:?}");
        assert_eq!(cell.label.as_deref(), Some("heavy"));
    }
}

#[test]
fn property_rolls_up_from_finer_group_by_levels() {
    let runner = fixture_with_population();
    // Group by store (finer than country): the property still resolves by
    // rolling each store up to its country.
    let stmt = AssessStatement::on("SALES")
        .by(["store"])
        .assess("quantity")
        .using(FuncExpr::call(
            "ratio",
            vec![FuncExpr::measure("quantity"), FuncExpr::property("country", "population")],
        ))
        .labels_named("quartiles")
        .build();
    let (result, _) = runner.run(&stmt, Strategy::Naive).unwrap();
    let cells = result.cells();
    assert_eq!(cells.len(), 2);
    assert!((cells[0].comparison.unwrap() - 114.0 / 57.0).abs() < 1e-9);
    assert!((cells[1].comparison.unwrap() - 116.0 / 58.0).abs() < 1e-9);
}

#[test]
fn unknown_property_is_a_clear_error() {
    let runner = fixture_with_population();
    let stmt = AssessStatement::on("SALES")
        .by(["country"])
        .assess("quantity")
        .using(FuncExpr::call(
            "ratio",
            vec![FuncExpr::measure("quantity"), FuncExpr::property("country", "gdp")],
        ))
        .labels_named("quartiles")
        .build();
    let err = runner.run(&stmt, Strategy::Naive).unwrap_err();
    assert!(matches!(err, AssessError::Statement(_)), "{err}");
    // Property on a hierarchy not in the by clause.
    let absent = AssessStatement::on("SALES")
        .by(["product"])
        .assess("quantity")
        .using(FuncExpr::call(
            "ratio",
            vec![FuncExpr::measure("quantity"), FuncExpr::property("country", "population")],
        ))
        .labels_named("quartiles")
        .build();
    assert!(runner.run(&absent, Strategy::Naive).is_err());
}

#[test]
fn derived_measures_combine_multiple_target_measures() {
    // profit-style derived measure: the using chain references a second
    // target measure (maxq), which resolution must add to the target query.
    let runner = fixture();
    let stmt = AssessStatement::on("SALES")
        .by(["country"])
        .assess("quantity")
        .against_constant(100.0)
        .using(FuncExpr::call(
            "difference",
            vec![FuncExpr::measure("quantity"), FuncExpr::measure("quantity")],
        ))
        .labels_ranges(labeling::ranges(&[(f64::NEG_INFINITY, true, f64::INFINITY, true, "all")]))
        .build();
    let (result, _) = runner.run(&stmt, Strategy::Naive).unwrap();
    for cell in result.cells() {
        assert_eq!(cell.comparison, Some(0.0));
        assert_eq!(cell.label.as_deref(), Some("all"));
    }
}

#[test]
fn zscore_labeling_end_to_end() {
    let runner = fixture();
    let stmt = AssessStatement::on("SALES")
        .by(["month", "country"])
        .assess("quantity")
        .labels_named("zscore")
        .build();
    let (result, _) = runner.run(&stmt, Strategy::Naive).unwrap();
    let hist = result.label_histogram();
    assert!(hist.keys().all(|k| k.starts_with('z')), "{hist:?}");
    // The bulk of a distribution sits near its mean.
    assert!(hist.get("z+0").copied().unwrap_or(0) >= hist.values().copied().max().unwrap() / 2);
}

#[test]
fn explain_summarizes_strategies_plan_and_sql() {
    let runner = fixture();
    let stmt = AssessStatement::on("SALES")
        .slice("country", "Italy")
        .by(["product", "country"])
        .assess("quantity")
        .against_sibling("country", "France")
        .labels_named("quartiles")
        .build();
    let resolved = runner.resolve(&stmt).unwrap();
    let text = assess_core::explain::explain(&runner, &resolved).unwrap();
    assert!(text.contains("benchmark type: Sibling"));
    assert!(text.contains("NP"));
    assert!(text.contains("JOP"));
    assert!(text.contains("POP"));
    assert!(text.contains("chosen plan"));
    assert!(text.contains("pivot ("), "SQL for the least complex plan: {text}");
    let np_only = assess_core::explain::explain_strategy(&resolved, Strategy::Naive).unwrap();
    assert!(np_only.contains("⋈ partial"));
}

#[test]
fn results_export_to_csv_and_json() {
    let runner = fixture();
    let stmt = AssessStatement::on("SALES")
        .by(["country"])
        .assess("quantity")
        .against_constant(200.0)
        .labels_named("quartiles")
        .build();
    let (result, _) = runner.run(&stmt, Strategy::Naive).unwrap();
    let csv = result.to_csv();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 1 + result.len());
    assert_eq!(lines[0], "country,quantity,benchmark.quantity,delta,label");
    assert!(lines[1].starts_with("Italy,256,200,56,"));
    let json = serde_json::to_string_pretty(&result.cells()).unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(parsed.as_array().unwrap().len(), result.len());
    assert_eq!(parsed[0]["coordinate"][0], "Italy");
    assert_eq!(parsed[0]["value"], 256.0);
}

#[test]
fn run_auto_picks_a_strategy_and_executes() {
    let runner = fixture();
    let stmt = AssessStatement::on("SALES")
        .slice("country", "Italy")
        .by(["product", "country"])
        .assess("quantity")
        .against_sibling("country", "France")
        .labels_named("quartiles")
        .build();
    let (auto_result, auto_report) = runner.run_auto(&stmt).unwrap();
    // The chooser picks POP for siblings; the result equals an explicit run.
    assert_eq!(auto_report.strategy, Strategy::PivotOptimized);
    let (explicit, _) = runner.run(&stmt, Strategy::PivotOptimized).unwrap();
    assert_eq!(auto_result.cells(), explicit.cells());
}

#[test]
fn starred_results_filter_and_render_with_labels_attached() {
    // Exercises label-column preservation through row filtering: a starred
    // run keeps unmatched rows, then `filter_rows` (inside drop_null_rows
    // on a second non-starred run) must carry labels consistently.
    let runner = fixture();
    let starred = AssessStatement::on("SALES")
        .slice("country", "Italy")
        .by(["product", "country"])
        .assess("quantity")
        .starred()
        .against_sibling("country", "France")
        .labels_named("terciles")
        .build();
    let (result, _) = runner.run(&starred, Strategy::Naive).unwrap();
    let labeled = result.cells().iter().filter(|c| c.label.is_some()).count();
    let matched = result.cells().iter().filter(|c| c.benchmark.is_some()).count();
    assert_eq!(labeled, matched, "exactly the matched cells are labeled");
    // The rendered table keeps null labels visible.
    assert!(result.render(10).contains("null"));
}
