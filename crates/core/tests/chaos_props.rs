//! Chaos tests for the resilience machinery: under any deterministic fault
//! schedule, `run_auto` either returns a clean typed error or falls back to
//! a result cell-for-cell identical to the fault-free run — never a panic,
//! never a corrupted cube.

use std::sync::Arc;
use std::time::Duration;

use assess_core::ast::AssessStatement;
use assess_core::cost::estimate_all;
use assess_core::exec::AssessRunner;
use assess_core::plan::Strategy;
use assess_core::{AssessError, ExecutionPolicy};
use olap_engine::{Engine, EngineConfig, EngineError, FaultInjector, FaultSite, ResourceKind};
use olap_storage::Catalog;
use proptest::prelude::*;

mod common;
use common::catalog;

/// One canonical statement per benchmark intention (Section 4.1).
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

fn runner_with(cat: &Arc<Catalog>, faults: Option<Arc<FaultInjector>>) -> AssessRunner {
    let mut engine = Engine::new(cat.clone());
    if let Some(f) = faults {
        engine = engine.with_fault_injector(f);
    }
    AssessRunner::new(engine)
}

/// Like [`runner_with`] but with every scan forced onto the worker pool:
/// tiny morsels, no parallel threshold, up to eight threads.
fn parallel_runner_with(cat: &Arc<Catalog>, faults: Option<Arc<FaultInjector>>) -> AssessRunner {
    let config = EngineConfig {
        morsel_rows: 3,
        max_threads: 8,
        parallel_threshold: 1,
        ..EngineConfig::default()
    };
    let mut engine = Engine::with_config(cat.clone(), config)
        .with_worker_pool(Arc::new(olap_engine::WorkerPool::new(7)));
    if let Some(f) = faults {
        engine = engine.with_fault_injector(f);
    }
    AssessRunner::new(engine)
}

/// A failed chaos run must surface as the injected fault (possibly after
/// exhausting the ladder), never as a panic or a mangled error.
fn is_clean_fault(err: &AssessError) -> bool {
    matches!(err, AssessError::Engine(EngineError::FaultInjected { .. }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For every intention and any seeded fault schedule, `run_auto`
    /// either matches the fault-free result exactly or fails with the
    /// injected-fault error.
    #[test]
    fn chaos_fallback_is_sound_or_typed(seed in any::<u64>()) {
        let cat = catalog();
        // Vary the failure probability with the seed too: from "almost
        // reliable" (fallback usually succeeds) to "hopeless" (every
        // attempt dies and the error must come back clean).
        let rate = 0.02 + (seed % 32) as f64 / 32.0 * 0.7;
        for (name, stmt) in intentions() {
            let baseline = runner_with(&cat, None)
                .run_auto(&stmt)
                .unwrap_or_else(|e| panic!("fault-free {name} run failed: {e}"));
            let injector = Arc::new(FaultInjector::with_rate(seed, rate));
            let runner = runner_with(&cat, Some(injector.clone()));
            match runner.run_auto(&stmt) {
                Ok((result, report)) => {
                    prop_assert_eq!(
                        result.cells(),
                        baseline.0.cells(),
                        "{} diverged under seed {} rate {}",
                        name,
                        seed,
                        rate
                    );
                    prop_assert!(!report.attempts.is_empty());
                    prop_assert!(report.attempts.last().unwrap().error.is_none());
                }
                Err(err) => {
                    prop_assert!(
                        is_clean_fault(&err),
                        "{} returned non-fault error under chaos: {:?}",
                        name,
                        err
                    );
                }
            }
            // Determinism: two runs with fresh injectors built from the
            // same seed and rate must reproduce the exact same outcome
            // (same cells or the same error).
            let a = runner_with(&cat, Some(Arc::new(FaultInjector::with_rate(seed, rate))))
                .run_auto(&stmt);
            let b = runner_with(&cat, Some(Arc::new(FaultInjector::with_rate(seed, rate))))
                .run_auto(&stmt);
            match (a, b) {
                (Ok((ra, _)), Ok((rb, _))) => prop_assert_eq!(ra.cells(), rb.cells()),
                (Err(ea), Err(eb)) => prop_assert_eq!(format!("{ea}"), format!("{eb}")),
                (a, b) => prop_assert!(
                    false,
                    "{} is nondeterministic under seed {}: {:?} vs {:?}",
                    name,
                    seed,
                    a.is_ok(),
                    b.is_ok()
                ),
            }
        }
    }

    /// Worker-task faults cross the pool boundary exactly like serial ones:
    /// a chaos run on the eight-thread engine either matches the fault-free
    /// serial result cell-for-cell or fails with the same typed
    /// injected-fault error a serial engine would surface — never a panic
    /// escaping the pool, never a foreign variant. And the outcome is a
    /// pure function of the seed, morsel scheduling notwithstanding.
    #[test]
    fn parallel_chaos_is_sound_and_deterministic(seed in any::<u64>()) {
        let cat = catalog();
        let rate = 0.02 + (seed % 32) as f64 / 32.0 * 0.7;
        for (name, stmt) in intentions() {
            let baseline = runner_with(&cat, None)
                .run_auto(&stmt)
                .unwrap_or_else(|e| panic!("fault-free {name} run failed: {e}"));
            let chaos = || {
                parallel_runner_with(&cat, Some(Arc::new(FaultInjector::with_rate(seed, rate))))
                    .run_auto(&stmt)
            };
            match chaos() {
                Ok((result, report)) => {
                    prop_assert_eq!(
                        result.cells(),
                        baseline.0.cells(),
                        "{} diverged in parallel under seed {}",
                        name,
                        seed
                    );
                    prop_assert!(report.attempts.last().unwrap().error.is_none());
                }
                Err(err) => prop_assert!(
                    is_clean_fault(&err),
                    "{} surfaced a non-fault error across the pool: {:?}",
                    name,
                    err
                ),
            }
            // Same seed, fresh pool, fresh injector: same outcome.
            match (chaos(), chaos()) {
                (Ok((ra, _)), Ok((rb, _))) => prop_assert_eq!(ra.cells(), rb.cells()),
                (Err(ea), Err(eb)) => prop_assert_eq!(format!("{ea}"), format!("{eb}")),
                (a, b) => prop_assert!(
                    false,
                    "{} parallel chaos is nondeterministic under seed {}: {:?} vs {:?}",
                    name,
                    seed,
                    a.is_ok(),
                    b.is_ok()
                ),
            }
        }
    }
}

/// A zero deadline deterministically yields a budget/cancellation error —
/// never a hang, never a panic — for every intention.
#[test]
fn zero_deadline_trips_immediately() {
    let cat = catalog();
    for (name, stmt) in intentions() {
        let runner = runner_with(&cat, None)
            .with_policy(ExecutionPolicy::new().with_deadline(Duration::ZERO));
        match runner.run_auto(&stmt) {
            Err(AssessError::BudgetExceeded { resource: ResourceKind::WallClock, .. })
            | Err(AssessError::Cancelled) => {}
            other => panic!("{name}: zero deadline must trip, got {other:?}"),
        }
        // The single-strategy path honors the deadline too.
        match runner.run(&stmt, Strategy::Naive) {
            Err(AssessError::BudgetExceeded { resource: ResourceKind::WallClock, .. })
            | Err(AssessError::Cancelled) => {}
            other => panic!("{name}: zero deadline must trip run(), got {other:?}"),
        }
    }
}

/// A targeted first-scan fault makes the chosen strategy fail; the ladder
/// recovers on a cheaper strategy with an identical result, and the report
/// records the whole attempt chain.
#[test]
fn targeted_fault_falls_back_with_identical_result() {
    let cat = catalog();
    let stmt = intentions().remove(2).1; // sibling → chooser picks POP
    let (baseline, clean_report) = runner_with(&cat, None).run_auto(&stmt).unwrap();
    assert_eq!(clean_report.strategy, Strategy::PivotOptimized);
    assert_eq!(clean_report.attempts.len(), 1);

    // Kill the first probe of every access path so the POP attempt dies
    // whichever one it takes; later attempts see later ordinals and pass.
    let injector = Arc::new(FaultInjector::targeted().fail_nth(FaultSite::Scan, 0));
    let runner = runner_with(&cat, Some(injector.clone()));
    let (result, report) = runner.run_auto(&stmt).expect("ladder must recover");
    assert_eq!(result.cells(), baseline.cells());
    assert!(injector.trip_count() >= 1, "the fault must actually have fired");
    assert!(report.attempts.len() >= 2, "fallback must be recorded");
    assert_eq!(report.attempts[0].strategy, Strategy::PivotOptimized);
    assert!(report.attempts[0].error.is_some());
    let last = report.attempts.last().unwrap();
    assert!(last.error.is_none());
    assert_eq!(last.strategy, report.strategy);
    assert_ne!(report.strategy, Strategy::PivotOptimized);
}

/// A pinned strategy is a one-plan ladder: the injected fault surfaces
/// directly instead of falling back.
#[test]
fn pinned_strategy_surfaces_the_fault() {
    let cat = catalog();
    let stmt = intentions().remove(2).1;
    let injector = Arc::new(FaultInjector::targeted().fail_nth(FaultSite::Scan, 0));
    let runner = runner_with(&cat, Some(injector));
    let err = runner.run(&stmt, Strategy::PivotOptimized).unwrap_err();
    assert!(is_clean_fault(&err), "expected the injected fault, got {err:?}");
}

/// A `batch` statement walks the same ladder as `run_auto`: a fault on its
/// first plan's scan falls back to the fault-free cells.
#[test]
fn batch_statement_falls_back_like_run_auto() {
    let cat = catalog();
    let stmt = intentions().remove(2).1;
    let (baseline, _) = runner_with(&cat, None).run_auto(&stmt).unwrap();
    let injector = Arc::new(FaultInjector::targeted().fail_nth(FaultSite::Scan, 0));
    let runner = runner_with(&cat, Some(injector.clone()));
    let resolved = runner.resolve(&stmt).unwrap();
    let mut outcome = runner.run_batch(&[resolved], false);
    let (cube, report, _) = outcome.items.remove(0).expect("the batch ladder must recover");
    assert_eq!(cube.cells(), baseline.cells());
    assert!(injector.trip_count() >= 1, "the fault must actually have fired");
    assert!(report.attempts.len() >= 2, "fallback must be recorded");
}

/// Fallback follows the cost ranking on both roads: under a first-scan
/// fault, the strategies a `run_auto` or a one-statement `batch` tried are
/// a prefix of `estimate_all`'s order, and every intention with a second
/// feasible plan recovers.
#[test]
fn fallback_follows_the_cost_ranking() {
    let cat = catalog();
    let faulty = || {
        let injector = Arc::new(FaultInjector::targeted().fail_nth(FaultSite::Scan, 0));
        runner_with(&cat, Some(injector))
    };
    for (name, stmt) in intentions() {
        let clean = runner_with(&cat, None);
        let resolved = clean.resolve(&stmt).unwrap();
        let ranked: Vec<Strategy> = estimate_all(&resolved, clean.engine())
            .unwrap()
            .iter()
            .map(|(physical, _)| physical.strategy)
            .collect();
        let auto = faulty().run_auto(&stmt).map(|(_, report)| report);
        let batch = faulty().run_batch(&[resolved], false).items.remove(0).map(|(_, r, _)| r);
        for (road, outcome) in [("run_auto", auto), ("batch", batch)] {
            match outcome {
                Ok(report) => {
                    let tried: Vec<Strategy> = report.attempts.iter().map(|a| a.strategy).collect();
                    assert!(tried.len() >= 2, "{name} {road}: the first plan must have failed");
                    assert_eq!(tried, ranked[..tried.len()], "{name} {road}: out of cost order");
                }
                Err(err) => {
                    assert_eq!(
                        ranked.len(),
                        1,
                        "{name} {road}: {ranked:?} had a plan left: {err:?}"
                    );
                    assert!(is_clean_fault(&err), "{name} {road}: not the injected fault: {err:?}");
                }
            }
        }
    }
}

/// Row budgets are enforced per attempt: a budget too small for any
/// strategy exhausts the ladder and reports the overrun.
#[test]
fn row_budget_exhausts_the_ladder() {
    let cat = catalog();
    let stmt = intentions().remove(2).1;
    let runner =
        runner_with(&cat, None).with_policy(ExecutionPolicy::new().with_max_rows_scanned(1));
    match runner.run_auto(&stmt) {
        Err(AssessError::BudgetExceeded {
            resource: ResourceKind::RowsScanned, limit: 1, ..
        }) => {}
        other => panic!("expected a rows-scanned overrun, got {other:?}"),
    }
    // A generous budget changes nothing about the result.
    let generous = runner_with(&cat, None)
        .with_policy(ExecutionPolicy::new().with_max_rows_scanned(1_000_000));
    let (limited, _) = generous.run_auto(&stmt).unwrap();
    let (free, _) = runner_with(&cat, None).run_auto(&stmt).unwrap();
    assert_eq!(limited.cells(), free.cells());
}

/// Output-cell budgets trip on materialization, with the ladder exhausted.
#[test]
fn cell_budget_is_enforced() {
    let cat = catalog();
    let stmt = intentions().remove(0).1; // constant: 2 result cells
    let strict =
        runner_with(&cat, None).with_policy(ExecutionPolicy::new().with_max_output_cells(1));
    match strict.run_auto(&stmt) {
        Err(AssessError::BudgetExceeded {
            resource: ResourceKind::OutputCells, limit: 1, ..
        }) => {}
        other => panic!("expected an output-cell overrun, got {other:?}"),
    }
    let loose =
        runner_with(&cat, None).with_policy(ExecutionPolicy::new().with_max_output_cells(100));
    let (capped, report) = loose.run_auto(&stmt).unwrap();
    assert_eq!(capped.len(), 2);
    assert_eq!(report.attempts.len(), 1);
}
