//! Dedicated coverage for the DESIGN §6 failure-injection list: every
//! malformed input surfaces as its *specific* [`AssessError`] variant (not
//! just any `Err`), so callers can branch on the taxonomy.

use assess_core::ast::{AssessStatement, FuncExpr};
use assess_core::exec::AssessRunner;
use assess_core::plan::Strategy;
use assess_core::{labeling, AssessError};
use olap_engine::Engine;

mod common;

fn runner() -> AssessRunner {
    let cat = common::catalog();
    common::register_unreconciled_budget(&cat);
    AssessRunner::new(Engine::new(cat))
}

/// Malformed statements: unknown cube, measure, group-by level, slice
/// member — each pinned to its variant.
#[test]
fn malformed_statements_are_typed() {
    let runner = runner();
    let unknown_cube = AssessStatement::on("NOPE")
        .by(["country"])
        .assess("quantity")
        .against_constant(1.0)
        .labels_named("quartiles")
        .build();
    assert!(matches!(
        runner.run(&unknown_cube, Strategy::Naive),
        Err(AssessError::UnknownCube(c)) if c == "NOPE"
    ));

    let unknown_measure = AssessStatement::on("SALES")
        .by(["country"])
        .assess("profit")
        .against_constant(1.0)
        .labels_named("quartiles")
        .build();
    assert!(matches!(
        runner.run(&unknown_measure, Strategy::Naive),
        Err(AssessError::Model(olap_model::ModelError::UnknownMeasure(_)))
    ));

    let unknown_level = AssessStatement::on("SALES")
        .by(["continent"])
        .assess("quantity")
        .against_constant(1.0)
        .labels_named("quartiles")
        .build();
    assert!(matches!(
        runner.run(&unknown_level, Strategy::Naive),
        Err(AssessError::Model(olap_model::ModelError::UnknownLevel(_)))
    ));

    let unknown_member = AssessStatement::on("SALES")
        .slice("country", "Atlantis")
        .by(["product", "country"])
        .assess("quantity")
        .against_constant(1.0)
        .labels_named("quartiles")
        .build();
    assert!(matches!(
        runner.run(&unknown_member, Strategy::Naive),
        Err(AssessError::Model(olap_model::ModelError::UnknownMember { .. }))
    ));
}

/// Unknown functions and wrong arity in the `using` clause.
#[test]
fn bad_using_clause_is_typed() {
    let runner = runner();
    let unknown_fn = AssessStatement::on("SALES")
        .by(["country"])
        .assess("quantity")
        .against_constant(1.0)
        .using(FuncExpr::call("frobnicate", vec![FuncExpr::measure("quantity")]))
        .labels_named("quartiles")
        .build();
    assert!(matches!(
        runner.run(&unknown_fn, Strategy::Naive),
        Err(AssessError::UnknownFunction(name)) if name == "frobnicate"
    ));

    let wrong_arity = AssessStatement::on("SALES")
        .by(["country"])
        .assess("quantity")
        .against_constant(1.0)
        .using(FuncExpr::call("ratio", vec![FuncExpr::measure("quantity")]))
        .labels_named("quartiles")
        .build();
    assert!(matches!(
        runner.run(&wrong_arity, Strategy::Naive),
        Err(AssessError::Arity { got: 1, .. })
    ));
}

/// Non-joinable cubes: an external benchmark whose schema cannot be
/// reconciled with the target's group-by (Section 3.1's H = H′ condition).
#[test]
fn non_joinable_external_cube_is_typed() {
    let runner = runner();
    let unreconciled = AssessStatement::on("SALES")
        .by(["country"])
        .assess("quantity")
        .against_external("BUDGET", "amount")
        .labels_named("quartiles")
        .build();
    assert!(matches!(
        runner.run(&unreconciled, Strategy::Naive),
        Err(AssessError::InvalidBenchmark(msg)) if msg.contains("BUDGET")
    ));

    let missing_cube = AssessStatement::on("SALES")
        .by(["country"])
        .assess("quantity")
        .against_external("MISSING", "amount")
        .labels_named("quartiles")
        .build();
    assert!(matches!(
        runner.run(&missing_cube, Strategy::Naive),
        Err(AssessError::UnknownCube(c)) if c == "MISSING"
    ));

    let missing_measure = AssessStatement::on("SALES")
        .by(["country"])
        .assess("quantity")
        .against_external("BUDGET", "revenue")
        .labels_named("quartiles")
        .build();
    assert!(matches!(
        runner.run(&missing_measure, Strategy::Naive),
        Err(AssessError::InvalidBenchmark(msg)) if msg.contains("revenue")
    ));
}

/// Overlapping or inverted label ranges are rejected as `InvalidLabeling`.
#[test]
fn bad_label_ranges_are_typed() {
    let runner = runner();
    let overlapping = AssessStatement::on("SALES")
        .by(["country"])
        .assess("quantity")
        .against_constant(1.0)
        .labels_ranges(labeling::ranges(&[
            (0.0, true, 10.0, true, "low"),
            (5.0, true, 20.0, true, "high"), // overlaps [5, 10]
        ]))
        .build();
    assert!(matches!(
        runner.run(&overlapping, Strategy::Naive),
        Err(AssessError::InvalidLabeling(_))
    ));

    let inverted = AssessStatement::on("SALES")
        .by(["country"])
        .assess("quantity")
        .against_constant(1.0)
        .labels_ranges(labeling::ranges(&[(10.0, true, 0.0, true, "backwards")]))
        .build();
    assert!(matches!(runner.run(&inverted, Strategy::Naive), Err(AssessError::InvalidLabeling(_))));

    let empty = AssessStatement::on("SALES")
        .by(["country"])
        .assess("quantity")
        .against_constant(1.0)
        .labels_ranges(vec![])
        .build();
    assert!(matches!(runner.run(&empty, Strategy::Naive), Err(AssessError::InvalidLabeling(_))));

    let unknown_named = AssessStatement::on("SALES")
        .by(["country"])
        .assess("quantity")
        .against_constant(1.0)
        .labels_named("deciles-of-doom")
        .build();
    assert!(matches!(
        runner.run(&unknown_named, Strategy::Naive),
        Err(AssessError::UnknownLabeling(_))
    ));
}

/// An empty target slice is *not* an error: the assess statement is valid,
/// the result simply has no cells (and `assess*` keeps it empty too).
#[test]
fn empty_target_slice_yields_empty_result() {
    let runner = runner();
    // Milk sells only in Italy; the France slice of Dairy is empty.
    let stmt = AssessStatement::on("SALES")
        .slice("type", "Dairy")
        .slice("country", "France")
        .by(["product", "country"])
        .assess("quantity")
        .against_constant(100.0)
        .labels_named("quartiles")
        .build();
    let strategy = Strategy::Naive;
    let (result, report) = runner.run(&stmt, strategy).unwrap();
    assert_eq!(result.len(), 0, "{strategy}: empty slice must yield no cells");
    assert!(report.attempts.last().unwrap().error.is_none());
    let (auto, _) = runner.run_auto(&stmt).unwrap();
    assert_eq!(auto.len(), 0);
}

/// `past k` with too little history reports exactly what was available.
#[test]
fn too_little_history_is_typed() {
    let runner = runner();
    let stmt = AssessStatement::on("SALES")
        .slice("month", "m1")
        .by(["month", "country"])
        .assess("quantity")
        .against_past(4)
        .labels_named("quartiles")
        .build();
    match runner.run(&stmt, Strategy::Naive) {
        Err(AssessError::InsufficientHistory { requested: 4, available: 1, level, member }) => {
            assert_eq!(level, "month");
            assert_eq!(member, "m1");
        }
        other => panic!("expected InsufficientHistory, got {other:?}"),
    }
    // The fallback ladder does not mask statement-level failures: run_auto
    // returns the same typed error instead of retrying forever.
    assert!(matches!(runner.run_auto(&stmt), Err(AssessError::InsufficientHistory { .. })));
}

/// One binder: `resolve` rejects what `check` rejects. An unknown measure
/// or a property on an unknown level inside `using` fails at resolution,
/// typed, before the engine scans anything (it used to scan the target and
/// then fail on the missing column).
#[test]
fn unbound_using_references_fail_before_any_scan() {
    let metrics = std::sync::Arc::new(olap_engine::EngineMetrics::new());
    let runner = AssessRunner::new(Engine::new(common::catalog()).with_metrics(metrics.clone()));
    let with_using = |using: FuncExpr| {
        AssessStatement::on("SALES")
            .by(["country"])
            .assess("quantity")
            .against_constant(1.0)
            .using(using)
            .labels_named("quartiles")
            .build()
    };
    let before = metrics.snapshot();

    let unknown_measure = with_using(FuncExpr::call(
        "ratio",
        vec![FuncExpr::measure("quantity"), FuncExpr::measure("nosuch")],
    ));
    match runner.run_auto(&unknown_measure) {
        Err(AssessError::Model(olap_model::ModelError::UnknownMeasure(m))) => {
            assert_eq!(m, "nosuch")
        }
        other => panic!("expected UnknownMeasure, got {other:?}"),
    }

    let unknown_level = with_using(FuncExpr::call(
        "ratio",
        vec![FuncExpr::measure("quantity"), FuncExpr::property("nosuch", "population")],
    ));
    assert!(matches!(
        runner.run_auto(&unknown_level),
        Err(AssessError::Model(olap_model::ModelError::UnknownLevel(_)))
    ));

    assert_eq!(metrics.snapshot().delta(&before).scans, 0, "a statement that does not bind scans");
}
