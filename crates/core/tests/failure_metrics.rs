//! A failed query is counted once in the process-wide registry whether or
//! not the caller asked for a trace. This is the only test in the binary,
//! so the registry deltas are exact.

use assess_core::ast::AssessStatement;
use assess_core::exec::AssessRunner;
use assess_core::obs::query_metrics;
use assess_core::plan::Strategy;
use assess_core::AssessError;
use olap_engine::Engine;

mod common;

#[test]
fn traced_and_untraced_pinned_failures_count_alike() {
    let runner = AssessRunner::new(Engine::new(common::catalog()));
    // JOP has no benchmark get to join against a constant: the pinned
    // attempt fails at planning, after the statement resolved.
    let constant = AssessStatement::on("SALES")
        .by(["country"])
        .assess("quantity")
        .against_constant(100.0)
        .labels_named("quartiles")
        .build();
    let failures = || query_metrics().snapshot().failures;

    let before = failures();
    let untraced = runner.run(&constant, Strategy::JoinOptimized);
    assert!(matches!(untraced, Err(AssessError::InfeasibleStrategy { .. })), "{untraced:?}");
    assert_eq!(failures() - before, 1, "an untraced pinned failure is one failed query");

    let before = failures();
    let traced = runner.run_traced(&constant, Strategy::JoinOptimized);
    assert!(matches!(traced, Err(AssessError::InfeasibleStrategy { .. })));
    assert_eq!(failures() - before, 1, "a traced pinned failure is one failed query too");
}
