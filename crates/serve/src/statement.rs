//! The statement pipeline: the one road from a client's statement text to
//! an assessed cube or a structured refusal, walked by every op that takes
//! a statement. The stages, in order, and who consumes them:
//!
//! 1. [`parse`] — strip comments, parse with spans, `E001` on failure
//!    (`check` and `explain` enter here; everything below starts at 2);
//! 2. [`prepare`] — parse plus the static analyzer; errors refuse with
//!    `check_failed`, warnings ride along (`run`, `batch`, [`evaluate`]);
//! 3. [`runner_for`] — the effective limits of one execution: server ∧
//!    tenant ∧ session ceiling, with the job's cancel token (`run`, `batch`,
//!    `partial`, [`evaluate`]);
//! 4. [`execute`] — the runner's ladder; failures become a [`Refusal`]
//!    through the one error → wire-code table (`run`, [`evaluate`]; `batch`
//!    executes through `run_batch` and classifies per statement with
//!    [`Refusal::of`]);
//! 5. [`cube_fields`] / [`Refusal::response`] / [`Refusal::result_object`] —
//!    the wire encodings of either outcome.
//!
//! [`evaluate`] is stages 2–4 back to back, for `subscribe` and the
//! re-evaluation after an append. Refused and executed statements are
//! counted here (`runs.*` of `stats`), so no op can forget to.

use std::sync::atomic::Ordering;

use assess_core::diag::{Diagnostic, Span};
use assess_core::exec::{AssessRunner, ExecutionReport};
use assess_core::obs::TraceTree;
use assess_core::{stmt, AssessError, AssessedCube, Strategy};
use assess_sql::SpannedStatement;
use olap_engine::{CancelToken, EngineError};
use serde::Value;

use crate::admission;
use crate::protocol::{self, s, RunFormat};
use crate::server::{RunCounters, Shared};
use crate::session::Session;
use crate::shard;
use crate::tenant::TenantId;

/// Why a statement was not answered with a cube: the wire code, the
/// message and the diagnostics, rendered either as a top-level error
/// response or as a per-statement object inside a batch.
pub(crate) struct Refusal {
    pub(crate) code: &'static str,
    message: String,
    diagnostics: Vec<Diagnostic>,
}

impl Refusal {
    /// Classifies an execution failure — the only error → wire-code table
    /// of the crate, sharing [`shard::engine_error_fields`] with the shard
    /// codec so the two cannot disagree — and counts it.
    pub(crate) fn of(runs: &RunCounters, error: &AssessError, span: Span) -> Refusal {
        let engine_code = |e: &EngineError| shard::engine_error_fields(e).0;
        let code = match error {
            AssessError::Cancelled => engine_code(&EngineError::Cancelled),
            AssessError::BudgetExceeded { resource, limit, used } => {
                engine_code(&EngineError::BudgetExceeded {
                    resource: *resource,
                    limit: *limit,
                    used: *used,
                })
            }
            AssessError::Engine(e) => engine_code(e),
            _ => "execution_error",
        };
        runs.refused(code);
        Refusal {
            code,
            message: error.to_string(),
            diagnostics: vec![Diagnostic::from_error(error, span)],
        }
    }

    /// The top-level error response; `source` is the client's text, for
    /// the rendered carets.
    pub(crate) fn response(&self, id: Option<u64>, source: &str) -> Value {
        protocol::error_with_diagnostics(
            id,
            self.code,
            &self.message,
            &self.diagnostics,
            Some(source),
        )
    }

    /// The per-statement failure object inside a batch `results` array.
    pub(crate) fn result_object(&self, source: &str) -> Value {
        protocol::obj(vec![
            ("ok", Value::Bool(false)),
            (
                "error",
                protocol::obj(vec![("code", s(self.code)), ("message", s(self.message.as_str()))]),
            ),
            ("diagnostics", protocol::diagnostics_json(&self.diagnostics, Some(source))),
        ])
    }
}

/// Stage 1. `--` comments are blanked before parsing; the stripping is
/// length preserving, so spans still index into the client's text.
pub(crate) fn parse(text: &str) -> Result<SpannedStatement, Refusal> {
    assess_sql::parse_spanned(&stmt::strip_comments(text)).map_err(|e| Refusal {
        code: "parse_error",
        message: e.to_string(),
        diagnostics: vec![e.diagnostic()],
    })
}

/// A statement that parsed and passed the analyzer without errors.
pub(crate) struct Prepared {
    pub(crate) spanned: SpannedStatement,
    pub(crate) warnings: Vec<Diagnostic>,
}

/// Stage 2. A refusal here counts as a failed run.
pub(crate) fn prepare(shared: &Shared, text: &str) -> Result<Prepared, Refusal> {
    let checked = parse(text).and_then(|spanned| {
        let diagnostics = shared.runner.check_spanned(&spanned.statement, Some(&spanned.spans));
        if diagnostics.iter().any(Diagnostic::is_error) {
            let message = "static analysis reported errors".to_string();
            return Err(Refusal { code: "check_failed", message, diagnostics });
        }
        Ok(Prepared { spanned, warnings: diagnostics })
    });
    checked.inspect_err(|refusal| shared.runs.refused(refusal.code))
}

/// Stage 3 — the only place limits are derived: the session's preferences
/// clamped by the tenant's and the server's ceilings (minimum wins), with
/// `token` attached so `cancel` and a dropped connection reach the run.
pub(crate) fn runner_for(
    shared: &Shared,
    session: &Session,
    tenant: TenantId,
    token: CancelToken,
) -> AssessRunner {
    let tenant_ceiling = &shared.admission.directory().spec(tenant).ceiling;
    let policy =
        admission::derive_policy(&shared.config.ceiling, tenant_ceiling, &session.policy(), token);
    AssessRunner::new(shared.engine.clone()).with_policy(policy)
}

/// Stage 4: the ladder (or the one pinned rung), counted either way.
pub(crate) fn execute(
    shared: &Shared,
    runner: &AssessRunner,
    prepared: &Prepared,
    pinned: Option<Strategy>,
    tracing: bool,
) -> Result<(AssessedCube, ExecutionReport, Option<TraceTree>), Refusal> {
    let done = runner
        .run_with(&prepared.spanned.statement, pinned, tracing)
        .map_err(|e| Refusal::of(&shared.runs, &e, prepared.spanned.spans.span))?;
    shared.runs.executed.fetch_add(1, Ordering::Relaxed);
    Ok(done)
}

/// Stages 2–4 for the ops that run a statement as written, untraced and
/// uncached: the `subscribe` baseline and every re-evaluation.
pub(crate) fn evaluate(
    shared: &Shared,
    session: &Session,
    tenant: TenantId,
    token: CancelToken,
    text: &str,
) -> Result<(AssessedCube, ExecutionReport), Refusal> {
    let prepared = prepare(shared, text)?;
    let runner = runner_for(shared, session, tenant, token);
    execute(shared, &runner, &prepared, None, false).map(|(cube, report, _)| (cube, report))
}

/// Stage 5: the cells of a result in the requested format — the whole
/// cube as one CSV string, or the first `limit` cells plus `truncated`.
pub(crate) fn cube_fields(
    cube: &AssessedCube,
    format: RunFormat,
    limit: usize,
) -> Vec<(&'static str, Value)> {
    match format {
        RunFormat::Csv => vec![("csv", s(cube.to_csv()))],
        RunFormat::Cells => {
            let rows = cube.cells().iter().take(limit).map(serde::Serialize::to_value).collect();
            vec![("rows", Value::Array(rows)), ("truncated", Value::Bool(cube.len() > limit))]
        }
    }
}
