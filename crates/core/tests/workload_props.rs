//! Property tests for the workload-analysis layer: canonical fingerprints
//! must be invariant under every output-neutral rewrite of a statement
//! (predicate order, `in` member order and duplicates), fingerprint-equal
//! statements must produce byte-identical cubes, canonicalization must be
//! idempotent, and [`AssessRunner::run_batch`] must match serial execution
//! exactly at every thread count.

mod common;

use assess_core::exec::AssessRunner;
use assess_core::workload::{self, WorkloadAnalyzer, WorkloadStatement};
use assess_core::{ExecutionPolicy, ResolvedAssess};
use olap_engine::Engine;
use proptest::prelude::*;

/// Renders a statement over the SALES fixture with its `for` predicates in
/// the order given. Each predicate is `(level, members)`; one member means
/// `=`, several mean `in (…)`.
fn render(preds: &[(&str, Vec<&str>)]) -> String {
    let rendered: Vec<String> = preds
        .iter()
        .map(|(level, members)| match members.as_slice() {
            [one] => format!("{level} = '{one}'"),
            many => {
                let list: Vec<String> = many.iter().map(|m| format!("'{m}'")).collect();
                format!("{level} in ({})", list.join(", "))
            }
        })
        .collect();
    format!(
        "with SALES for {} by product assess quantity against 200 \
         using ratio(quantity, 200) labels {{[0, 1): low, [1, inf]: high}}",
        rendered.join(", ")
    )
}

/// Deterministic Fisher–Yates driven by a choice stream (the shim has no
/// shuffle strategy; a byte stream is just as good and shrinks nicely).
fn shuffle<T>(items: &mut [T], choices: &[u8]) {
    for i in (1..items.len()).rev() {
        let j = usize::from(choices.get(i).copied().unwrap_or(0)) % (i + 1);
        items.swap(i, j);
    }
}

fn resolved(catalog: &olap_storage::Catalog, text: &str) -> ResolvedAssess {
    let statement = assess_sql::parse(text).expect("statement parses");
    ResolvedAssess::resolve(&statement, catalog).expect("statement resolves")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Shuffling `for` predicate order, shuffling `in` member order, and
    /// duplicating `in` members are all output-neutral for a `get`: the
    /// canonical fingerprint is unchanged and the executed cubes are
    /// byte-identical.
    #[test]
    fn fingerprint_equal_statements_return_identical_bytes(
        order in proptest::collection::vec(0u8..8, 4),
        member_order in proptest::collection::vec(0u8..8, 4),
        dup in 0usize..4,
    ) {
        let months = {
            let mut ms = vec!["m0", "m1", "m2", "m3"];
            shuffle(&mut ms, &member_order);
            // Repeating a member is a no-op under `in`'s set semantics.
            let repeated = ms[dup % ms.len()];
            ms.push(repeated);
            ms
        };
        let mut preds: Vec<(&str, Vec<&str>)> = vec![
            ("country", vec!["Italy"]),
            ("type", vec!["Fresh Fruit", "Dairy"]),
            ("month", months),
        ];
        shuffle(&mut preds, &order);
        let mutated = render(&preds);
        let canon = render(&[
            ("country", vec!["Italy"]),
            ("type", vec!["Fresh Fruit", "Dairy"]),
            ("month", vec!["m0", "m1", "m2", "m3"]),
        ]);

        let catalog = common::catalog();
        let a = resolved(&catalog, &canon);
        let b = resolved(&catalog, &mutated);
        prop_assert_eq!(
            workload::fingerprint_query(&a.target_query),
            workload::fingerprint_query(&b.target_query),
            "output-neutral rewrite changed the target fingerprint:\n{}",
            mutated
        );
        // The whole naive plan agrees too: the rewrite touches only the
        // target get, and every node above it hashes its children.
        prop_assert_eq!(
            workload::fingerprint(&a.naive_plan()),
            workload::fingerprint(&b.naive_plan())
        );

        let runner = AssessRunner::new(Engine::new(catalog));
        let run = |text: &str| {
            let statement = assess_sql::parse(text).expect("parses");
            runner.run_auto(&statement).expect("runs").0.to_csv()
        };
        prop_assert_eq!(run(&canon), run(&mutated), "fingerprint-equal statements diverged");
    }

    /// Canonicalization is idempotent: a second pass is a no-op, both
    /// structurally and under the fingerprint.
    #[test]
    fn canonicalization_is_idempotent(
        order in proptest::collection::vec(0u8..8, 4),
        member_order in proptest::collection::vec(0u8..8, 4),
    ) {
        let mut months = vec!["m3", "m1", "m2"];
        shuffle(&mut months, &member_order);
        let mut preds: Vec<(&str, Vec<&str>)> =
            vec![("country", vec!["France", "Italy"]), ("month", months)];
        shuffle(&mut preds, &order);

        let catalog = common::catalog();
        let plan = resolved(&catalog, &render(&preds)).naive_plan();
        let once = workload::canonicalize(&plan);
        let twice = workload::canonicalize(&once);
        prop_assert_eq!(
            format!("{once:?}"),
            format!("{twice:?}"),
            "canonicalization is not a fixed point after one pass"
        );
        prop_assert_eq!(workload::fingerprint(&plan), workload::fingerprint(&once));
    }
}

// -------------------------------------------------------- batch vs serial

/// A workload where three constant-benchmark statements share one target
/// `get` and two more statements (sibling, internal) do not.
fn batch_workload() -> Vec<&'static str> {
    vec![
        "with SALES by country assess quantity against 200 \
         using ratio(quantity, 200) \
         labels {[0, 0.9): bad, [0.9, 1.1]: fine, (1.1, inf]: good}",
        "with SALES by country assess quantity against 300 \
         using ratio(quantity, 300) \
         labels {[0, 0.9): bad, [0.9, 1.1]: fine, (1.1, inf]: good}",
        "with SALES for country = 'Italy' by product, country \
         assess quantity against country = 'France' \
         using ratio(quantity, benchmark.quantity) labels quartiles",
        "with SALES by country assess quantity against 400 \
         using ratio(quantity, 400) \
         labels {[0, 0.9): bad, [0.9, 1.1]: fine, (1.1, inf]: good}",
        "with SALES by product assess quantity \
         using percOfTotal(quantity) labels quartiles",
    ]
}

/// `run_batch` returns byte-identical cubes to serial `run_auto` at 1, 2
/// and 8 threads, shares exactly one scan across the three constant
/// statements, and keeps per-statement row accounting identical to serial.
#[test]
fn batch_matches_serial_execution_at_every_thread_count() {
    let catalog = common::catalog();
    let statements: Vec<_> = batch_workload()
        .iter()
        .map(|text| assess_sql::parse(text).expect("workload statement parses"))
        .collect();

    let serial_runner = AssessRunner::new(Engine::new(catalog.clone()));
    let serial: Vec<(String, usize)> = statements
        .iter()
        .map(|s| {
            let (cube, report) = serial_runner.run_auto(s).expect("serial run succeeds");
            (cube.to_csv(), report.rows_scanned)
        })
        .collect();

    for threads in [1usize, 2, 8] {
        let runner = AssessRunner::new(Engine::new(catalog.clone()))
            .with_policy(ExecutionPolicy::default().with_max_threads(threads));
        let resolved: Vec<_> =
            statements.iter().map(|s| runner.resolve(s).expect("statement resolves")).collect();
        let outcome = runner.run_batch(&resolved, false);
        assert_eq!(outcome.items.len(), statements.len());
        let shared: Vec<_> = outcome.shared.iter().filter(|s| s.consumers >= 2).collect();
        assert_eq!(shared.len(), 1, "one shared group expected at {threads} threads");
        assert_eq!(shared[0].consumers, 3, "three constant statements share the get");
        for (i, item) in outcome.items.iter().enumerate() {
            let (cube, report, _) = item.as_ref().expect("batch item succeeds");
            assert_eq!(
                cube.to_csv(),
                serial[i].0,
                "statement {i} diverged from serial at {threads} threads"
            );
            assert_eq!(
                report.rows_scanned, serial[i].1,
                "statement {i} row accounting diverged at {threads} threads"
            );
        }
    }
}

/// Row budgets are per statement in a batch, as in serial runs: two
/// statements with distinct gets, each within `max_rows_scanned` but over
/// it together, both succeed with their `run_auto` cubes.
#[test]
fn batch_budgets_are_per_statement() {
    let catalog = common::catalog();
    let statements: Vec<_> = [
        "with SALES by country assess quantity against 200 \
         using ratio(quantity, 200) labels {[0, 1): low, [1, inf]: high}",
        "with SALES by product assess quantity against 200 \
         using ratio(quantity, 200) labels {[0, 1): low, [1, inf]: high}",
    ]
    .iter()
    .map(|text| assess_sql::parse(text).expect("statement parses"))
    .collect();
    let free = AssessRunner::new(Engine::new(catalog.clone()));
    let serial: Vec<_> = statements.iter().map(|s| free.run_auto(s).expect("runs")).collect();
    let budget = serial.iter().map(|(_, r)| r.rows_scanned).max().unwrap_or(0);
    let total: usize = serial.iter().map(|(_, r)| r.rows_scanned).sum();
    assert!(total > budget, "the two statements together must exceed the budget");

    let runner = AssessRunner::new(Engine::new(catalog))
        .with_policy(ExecutionPolicy::default().with_max_rows_scanned(budget as u64));
    let resolved: Vec<_> =
        statements.iter().map(|s| runner.resolve(s).expect("statement resolves")).collect();
    let outcome = runner.run_batch(&resolved, false);
    assert!(outcome.shared.is_empty(), "the two gets are distinct");
    for (i, (item, (cube, _))) in outcome.items.iter().zip(&serial).enumerate() {
        let (batched, _, _) = item.as_ref().expect("each statement is within its own budget");
        assert_eq!(batched.to_csv(), cube.to_csv(), "statement {i} diverged from run_auto");
    }
}

/// The analyzer's sharing report agrees with what `run_batch` actually
/// shares: the fingerprint of the W107 get group is the one the batch
/// executes once.
#[test]
fn analyzer_report_agrees_with_batch_sharing() {
    let catalog = common::catalog();
    let texts = batch_workload();
    let workload: Vec<WorkloadStatement> = texts
        .iter()
        .enumerate()
        .map(|(i, text)| WorkloadStatement {
            text: (*text).to_string(),
            statement: assess_sql::parse(text).expect("parses"),
            spans: None,
            offset: i,
        })
        .collect();
    let report = WorkloadAnalyzer::new(catalog.as_ref()).analyze(&workload);
    let get_groups: Vec<_> = report.groups.iter().filter(|g| g.is_get).collect();
    assert!(
        get_groups.iter().any(|g| g.statements == vec![0, 1, 3]),
        "W107 should group the three constant statements: {get_groups:?}"
    );

    let statements: Vec<_> = texts.iter().map(|t| assess_sql::parse(t).expect("parses")).collect();
    let runner = AssessRunner::new(Engine::new(catalog));
    let resolved: Vec<_> =
        statements.iter().map(|s| runner.resolve(s).expect("statement resolves")).collect();
    let outcome = runner.run_batch(&resolved, false);
    let executed: Vec<_> = outcome.shared.iter().map(|s| s.fingerprint).collect();
    assert!(
        get_groups.iter().any(|g| executed.contains(&g.fingerprint)),
        "the batch executed none of the analyzer's shared get groups: \
         analyzer {get_groups:?} vs batch {executed:?}"
    );
}
