//! Human-readable explanation of how a statement will execute: the feasible
//! strategies with their estimated costs, the chosen plan tree, and the SQL
//! that the fused prefixes stand for. [`explain_analyze`] goes further and
//! actually runs the statement, rendering the measured trace tree.

use crate::ast::AssessStatement;
use crate::error::AssessError;
use crate::exec::{AssessRunner, ExecutionReport};
use crate::obs::TraceTree;
use crate::plan::{self, Strategy};
use crate::semantics::ResolvedAssess;
use crate::{codegen, cost, workload};

/// Renders a full explanation of a resolved statement.
pub fn explain(runner: &AssessRunner, resolved: &ResolvedAssess) -> Result<String, AssessError> {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "statement:\n{}\n", resolved.statement);
    let _ = writeln!(out, "benchmark type: {}", resolved.benchmark.kind());
    let _ = writeln!(out, "benchmark column: {}", resolved.benchmark_column());
    let _ = writeln!(
        out,
        "comparison chain: {} step(s), labeling {:?}\n",
        resolved.transforms.len(),
        match &resolved.labeling {
            crate::labeling::ResolvedLabeling::Ranges(r) => format!("{} range(s)", r.len()),
            crate::labeling::ResolvedLabeling::Quantiles { k, .. } => format!("{k} quantiles"),
            crate::labeling::ResolvedLabeling::EquiWidth { k, .. } =>
                format!("{k} equi-width bins"),
            crate::labeling::ResolvedLabeling::ZScoreRound { clamp } =>
                format!("rounded z-score (±{clamp})"),
        }
    );

    let ranked = cost::estimate_all(resolved, runner.engine())?;
    let _ = writeln!(out, "strategies (cheapest first, cost in row-scan units):");
    for (_, c) in &ranked {
        let _ = writeln!(
            out,
            "  {:<4} total {:>12.0}  (scan {:>12.0}, engine {:>10.0}, client {:>10.0})",
            c.strategy.acronym(),
            c.total,
            c.rows_scanned,
            c.engine_work,
            c.client_work
        );
    }
    let (physical, _) = &ranked[0];
    let _ = writeln!(out, "\nchosen plan ({}):\n{}", physical.strategy, physical.root);

    // Canonical subplan fingerprints: stable within a release, so two
    // statements printing the same fingerprint will share that subplan in
    // a serve `batch` (gets) or trip the workload linter (any node).
    let _ = writeln!(out, "\nsubplan fingerprints (canonical):");
    for sub in workload::subplan_fingerprints(&physical.root) {
        let _ = writeln!(
            out,
            "  {}{}  {}{}",
            "  ".repeat(sub.depth),
            sub.fingerprint,
            sub.describe,
            if sub.is_get { "  [shareable]" } else { "" }
        );
    }

    // Scan parallelism: the ceiling the engine (and any policy clamp)
    // grants; small inputs still run serially under it.
    let engine_cap = runner.engine().parallelism_cap();
    let dop = runner.policy().max_threads.map_or(engine_cap, |n| n.min(engine_cap));
    let _ = writeln!(
        out,
        "\nscan parallelism: up to {dop} thread(s), morsels of {} rows",
        runner.engine().config().morsel_rows
    );

    if let Ok(code) = codegen::generate(resolved, runner.engine().catalog()) {
        let _ = writeln!(out, "\nequivalent SQL (least complex plan):\n{}", code.sql);
    }
    Ok(out)
}

/// Explains one specific strategy instead of the chosen one.
pub fn explain_strategy(
    resolved: &ResolvedAssess,
    strategy: Strategy,
) -> Result<String, AssessError> {
    let physical = plan::plan(resolved, strategy)?;
    Ok(format!("plan ({strategy}):\n{}", physical.root))
}

/// `explain analyze`: executes the statement through the ladder (discarding
/// the result cube) and renders the measured trace tree plus the Figure-4
/// stage breakdown. Returns the rendered text with the report and trace for
/// callers that want the structured forms too.
pub fn explain_analyze(
    runner: &AssessRunner,
    statement: &AssessStatement,
) -> Result<(String, ExecutionReport, TraceTree), AssessError> {
    let (_cube, report, tree) = runner.run_auto_traced(statement)?;
    Ok((render_analyze(&report, &tree), report, tree))
}

/// Renders an `explain analyze` report: the trace tree followed by the
/// per-stage timing table and the scan totals.
pub fn render_analyze(report: &ExecutionReport, tree: &TraceTree) -> String {
    use std::fmt::Write as _;
    let mut out = tree.render(false);
    let _ = writeln!(out, "\nstage breakdown:");
    for (name, secs) in report.timings.as_rows() {
        let _ = writeln!(out, "  {name:<8} {:>10.3}ms", secs * 1000.0);
    }
    let _ = writeln!(
        out,
        "\nrows scanned: {}  max dop: {}  morsels: {}  attempts: {}",
        report.rows_scanned,
        report.parallelism.max_parallelism(),
        report.parallelism.total_morsels(),
        report.attempts.len()
    );
    out
}

#[cfg(test)]
mod tests {
    // Exercised end-to-end in the crate integration tests (needs a catalog).
}
