//! Edge cases of the one join/pivot operator on which the fused and the
//! client-side implementations used to disagree. Each hand-tampered plan
//! runs under the Naive strategy (operator on materialized cubes) and under
//! the fused strategy (operator inside the engine) and must answer alike.

use std::sync::Arc;

use assess_core::ast::AssessStatement;
use assess_core::exec::AssessRunner;
use assess_core::logical::LogicalOp;
use assess_core::plan::{self, PhysicalPlan, Strategy};
use assess_core::result::AssessedCell;
use assess_core::{AssessError, ResolvedAssess};
use olap_engine::{Engine, EngineError, JoinKind};
use olap_model::{AggOp, CubeSchema, HierarchyBuilder, MeasureDef};
use olap_storage::{binding::DimInfo, Catalog, Column, CubeBinding, Table};

/// Apple/Pear × Italy/France, with two measures over one fact column:
/// `quantity` (sum) and `maxq` (max). Italy: Apple 10 + 12, Pear 20.
fn runner() -> AssessRunner {
    let mut product = HierarchyBuilder::new("Product", ["product"]);
    product.add_member_chain(&["Apple"]).unwrap();
    product.add_member_chain(&["Pear"]).unwrap();
    let mut store = HierarchyBuilder::new("Store", ["country"]);
    store.add_member_chain(&["Italy"]).unwrap();
    store.add_member_chain(&["France"]).unwrap();
    let schema = Arc::new(CubeSchema::new(
        "SALES",
        vec![product.build().unwrap(), store.build().unwrap()],
        vec![MeasureDef::new("quantity", AggOp::Sum), MeasureDef::new("maxq", AggOp::Max)],
    ));
    let rows: [(i64, i64, f64); 5] =
        [(0, 0, 10.0), (0, 0, 12.0), (1, 0, 20.0), (0, 1, 15.0), (1, 1, 8.0)];
    let fact = Table::new(
        "sales",
        vec![
            Column::i64("pkey", rows.iter().map(|r| r.0).collect()),
            Column::i64("skey", rows.iter().map(|r| r.1).collect()),
            Column::f64("quantity", rows.iter().map(|r| r.2).collect()),
        ],
    )
    .unwrap();
    let dim = |table: &str, pk: &str| DimInfo {
        table: table.into(),
        pk: pk.into(),
        level_columns: vec![pk.into()],
    };
    let binding = CubeBinding::new(
        schema,
        &fact,
        vec!["pkey".into(), "skey".into()],
        vec!["quantity".into(), "quantity".into()],
        vec![dim("product", "pkey"), dim("store", "skey")],
    )
    .unwrap();
    let catalog = Arc::new(Catalog::new());
    catalog.register_table(fact);
    catalog.register_binding("SALES", binding);
    AssessRunner::new(Engine::new(catalog))
}

fn sibling(runner: &AssessRunner) -> ResolvedAssess {
    let statement = AssessStatement::on("SALES")
        .slice("country", "Italy")
        .by(["product", "country"])
        .assess("quantity")
        .against_sibling("country", "France")
        .labels_named("quartiles")
        .build();
    runner.resolve(&statement).unwrap()
}

/// Rebuilds `op` with its join or pivot node replaced by `tamper(node)`.
fn tampered(op: LogicalOp, tamper: &dyn Fn(LogicalOp) -> LogicalOp) -> LogicalOp {
    match op {
        LogicalOp::Label { input, labeling, input_column } => {
            LogicalOp::Label { input: Box::new(tampered(*input, tamper)), labeling, input_column }
        }
        LogicalOp::Transform { input, step } => {
            LogicalOp::Transform { input: Box::new(tampered(*input, tamper)), step }
        }
        node => tamper(node),
    }
}

/// Runs `strategy`'s plan of the sibling statement with its join/pivot
/// node tampered, once client-side (NP) and once under `strategy` itself.
fn run_both(
    strategy: Strategy,
    tamper: &dyn Fn(LogicalOp) -> LogicalOp,
) -> [Result<Vec<AssessedCell>, AssessError>; 2] {
    let runner = runner();
    let resolved = sibling(&runner);
    let root = tampered(plan::plan(&resolved, strategy).unwrap().root, tamper);
    [Strategy::Naive, strategy].map(|strategy| {
        let physical = PhysicalPlan { strategy, root: root.clone() };
        runner.execute_plan(&resolved, &physical).map(|(cube, _)| cube.cells())
    })
}

#[test]
fn a_partial_join_over_no_slices_is_refused_on_both_tiers() {
    let outcomes = run_both(Strategy::JoinOptimized, &|node| match node {
        LogicalOp::SlicedJoin { left, right, kind, hierarchy, measure, .. } => {
            LogicalOp::SlicedJoin {
                left,
                right,
                kind,
                hierarchy,
                members: vec![],
                measure,
                names: vec![],
            }
        }
        other => panic!("expected a partial join, got {other:?}"),
    });
    for outcome in outcomes {
        assert!(
            matches!(outcome, Err(AssessError::Engine(EngineError::NotJoinable(_)))),
            "{outcome:?}"
        );
    }
}

#[test]
fn a_pivot_over_no_neighbours_is_refused_on_both_tiers() {
    let outcomes = run_both(Strategy::PivotOptimized, &|node| match node {
        LogicalOp::Pivot { input, hierarchy, reference, measure, .. } => LogicalOp::Pivot {
            input,
            hierarchy,
            reference,
            neighbors: vec![],
            measure,
            names: vec![],
        },
        other => panic!("expected a pivot, got {other:?}"),
    });
    for outcome in outcomes {
        assert!(
            matches!(outcome, Err(AssessError::Engine(EngineError::InvalidPivot(_)))),
            "{outcome:?}"
        );
    }
}

#[test]
fn a_natural_join_selects_the_benchmark_measure_by_name_on_both_tiers() {
    // The benchmark get carries two measures; the plan asks for the second.
    let outcomes = run_both(Strategy::JoinOptimized, &|node| match node {
        LogicalOp::SlicedJoin { left, names, .. } => {
            let LogicalOp::Get { query, .. } = left.as_ref() else {
                panic!("expected the target get, got {left:?}");
            };
            let mut bench = query.clone();
            bench.measures = vec!["quantity".into(), "maxq".into()];
            LogicalOp::NaturalJoin {
                left,
                right: Box::new(LogicalOp::Get { query: bench, alias: Some("benchmark".into()) }),
                kind: JoinKind::Inner,
                measure: "maxq".into(),
                rename: names[0].clone(),
            }
        }
        other => panic!("expected a partial join, got {other:?}"),
    });
    let [client, fused] = outcomes.map(|outcome| outcome.unwrap());
    assert_eq!(client, fused);
    let benchmarks: Vec<_> =
        fused.iter().map(|c| (c.coordinate[0].as_str(), c.benchmark)).collect();
    assert_eq!(benchmarks, vec![("Apple", Some(12.0)), ("Pear", Some(20.0))]);
}
