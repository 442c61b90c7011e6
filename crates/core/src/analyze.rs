//! The statement binder: one collect-all walk that gives an assess
//! statement its meaning.
//!
//! [`Analyzer::bind`] walks the §4.1 clauses once, in the order cube → by →
//! assess → for → against → using → labels, against the provider's
//! schemas. At every failure site it records both faces of the problem: the
//! span-carrying [`Diagnostic`] that `check` reports (anchored to the
//! clause's source span when the statement came from
//! [`assess_sql::parse_spanned`], to a dummy span otherwise), and the typed
//! [`AssessError`] that the fail-fast API returns — the first one in clause
//! order. The [`ResolvedAssess`] (the canonical plan's input, §4.3) is built
//! only when no binding error occurred, so
//! [`ResolvedAssess::resolve`](crate::semantics::ResolvedAssess::resolve)
//! and [`Analyzer::check`] are two views of one [`Binding`].
//!
//! Not every diagnostic is a binding error. `E018` (contradictory `for`
//! predicates) makes `check` fail, but the statement binds — it provably
//! selects an empty cube, which is a well-defined answer. The lints about
//! label gaps, unused benchmarks, degenerate divisions and thin history
//! (`W101`–`W104`, and `W106` when no engine is attached) ride the same
//! walk. When an engine is attached and nothing is in error, the cost lints
//! (`W105` naive-only plans over large targets, `W106` with the cost model's
//! pivot estimate) read the bound statement.
//!
//! The binder never panics and never stops early: a statement with an
//! unknown cube still gets its `using` chain and labeling checked.

use crate::ast::{
    AssessStatement, BenchmarkSpec, FuncExpr, FuncSpans, LabelingSpec, PredicateSpec,
    StatementSpans,
};
use crate::diag::{DiagCode, Diagnostic, Sink, Span};
use crate::functions::{self, Function, TransformStep};
use crate::labeling::{self, RangeIssue, ResolvedLabeling};
use crate::plan::Strategy;
use crate::semantics::{ResolvedAssess, ResolvedBenchmark, SchemaProvider};
use crate::{cost, error::AssessError};
use olap_model::{
    CubeQuery, CubeSchema, GroupBySet, Level, MemberId, ModelError, Predicate, PredicateOp,
};
use std::sync::Arc;

/// Canonical statement-syntax names of every built-in `using` function,
/// used for "did you mean" suggestions on `E006`.
const FUNCTION_NAMES: [&str; 11] = [
    "difference",
    "absDifference",
    "normDifference",
    "ratio",
    "percentage",
    "identity",
    "percOfTotal",
    "minMaxNorm",
    "zscore",
    "rank",
    "percentRank",
];

/// `W105` fires when only the naive strategy is feasible and the cost
/// model estimates more scanned rows than this.
const W105_ROW_THRESHOLD: f64 = 10_000.0;

/// `W106` fires for `against past k` with `k` beyond this: the pivoted
/// benchmark matrix grows one column per past slice.
const W106_PAST_LIMIT: u32 = 12;

/// Span-aware, collect-mode binder for [`AssessStatement`]s.
///
/// ```
/// use assess_core::{Analyzer, AssessStatement};
/// # use assess_core::semantics::SchemaProvider;
/// # use olap_model::CubeSchema;
/// # use std::sync::Arc;
/// # struct Empty;
/// # impl SchemaProvider for Empty {
/// #     fn schema_of(&self, _: &str) -> Option<Arc<CubeSchema>> { None }
/// # }
/// let statement = AssessStatement::on("NOWHERE")
///     .by(["region"])
///     .assess("sales")
///     .using(assess_core::FuncExpr::call("nope", vec![]))
///     .labels_named("quartiles")
///     .build();
/// let diags = Analyzer::new(&Empty).check(&statement, None);
/// // One pass reports both the unknown cube and the unknown function.
/// assert!(diags.iter().any(|d| d.code == assess_core::DiagCode::E002));
/// assert!(diags.iter().any(|d| d.code == assess_core::DiagCode::E006));
/// ```
pub struct Analyzer<'a> {
    provider: &'a dyn SchemaProvider,
    engine: Option<&'a olap_engine::Engine>,
}

/// Both faces of one binding walk.
#[derive(Debug)]
pub struct Binding {
    /// The bound statement, or the first binding error in clause order.
    pub resolved: Result<ResolvedAssess, AssessError>,
    /// Every diagnostic found, sorted by source position.
    pub diagnostics: Vec<Diagnostic>,
}

impl<'a> Analyzer<'a> {
    /// An analyzer over the provider's schemas, without engine lints.
    pub fn new(provider: &'a dyn SchemaProvider) -> Self {
        Analyzer { provider, engine: None }
    }

    /// Attaches an engine so cost-model lints (`W105`, `W106`) can run.
    pub fn with_engine(mut self, engine: &'a olap_engine::Engine) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Checks a statement, returning every diagnostic found, sorted by
    /// source position. `spans` should come from
    /// `assess_sql::parse_spanned`; pass `None` for programmatically built
    /// statements (diagnostics then carry dummy spans).
    pub fn check(
        &self,
        statement: &AssessStatement,
        spans: Option<&StatementSpans>,
    ) -> Vec<Diagnostic> {
        self.bind(statement, spans).diagnostics
    }

    /// Binds a statement: one walk over its clauses yields the resolved
    /// statement (or its first binding error) and every diagnostic.
    pub fn bind(&self, statement: &AssessStatement, spans: Option<&StatementSpans>) -> Binding {
        // A statement built in code has no spans: every lookup below falls
        // back to the dummy span.
        let spanless = StatementSpans::default();
        let spans = spans.unwrap_or(&spanless);
        let mut binder = Binder {
            statement,
            spans,
            provider: self.provider,
            engine_attached: self.engine.is_some(),
            sink: Sink::new(),
            error: None,
        };
        let bound = binder.walk();
        let Binder { mut sink, error, .. } = binder;
        let resolved = match error {
            Some(e) => Err(e),
            None => {
                bound.ok_or_else(|| AssessError::Statement("the statement did not bind".into()))
            }
        };
        if let (Ok(resolved), Some(engine)) = (&resolved, self.engine) {
            if !sink.has_errors() {
                cost_lints(resolved, engine, spans.against.unwrap_or(spans.span), &mut sink);
            }
        }
        Binding { resolved, diagnostics: sink.finish() }
    }
}

/// The engine-backed lints over a bound statement. The cost model runs only
/// inside the branch that reads it; when it fails the lint stays silent.
fn cost_lints(
    resolved: &ResolvedAssess,
    engine: &olap_engine::Engine,
    span: Span,
    sink: &mut Sink,
) {
    let feasible = Strategy::all().into_iter().filter(|s| s.feasible_for(&resolved.benchmark));
    if feasible.eq([Strategy::Naive]) {
        let Ok(costs) = cost::estimate_all(resolved, engine) else { return };
        if let Some((_, np)) = costs.iter().find(|(_, c)| c.strategy == Strategy::Naive) {
            if np.rows_scanned > W105_ROW_THRESHOLD {
                sink.push(
                    Diagnostic::new(
                        DiagCode::W105,
                        span,
                        format!(
                            "only the naive strategy can run this benchmark, and it scans ~{:.0} rows",
                            np.rows_scanned
                        ),
                    )
                    .with_note(format!(
                        "{} benchmarks cannot use join- or pivot-optimized plans (estimated total cost {:.0})",
                        resolved.benchmark.kind().to_ascii_lowercase(),
                        np.total
                    ))
                    .with_suggestion(
                        "an external, sibling or past benchmark unlocks the optimized strategies",
                    ),
                );
            }
        }
    }
    if let ResolvedBenchmark::Past { past, .. } = &resolved.benchmark {
        let k = past.len() as u32;
        if k > W106_PAST_LIMIT {
            let Ok(costs) = cost::estimate_all(resolved, engine) else { return };
            let note = costs.iter().find(|(_, c)| c.strategy == Strategy::PivotOptimized).map(|(_, pop)| {
                format!(
                    "the cost model estimates {:.0} units of client pivot work for the pivot-optimized plan",
                    pop.client_work
                )
            });
            sink.push(wide_pivot(k, span, note));
        }
    }
}

/// `W106`: the pivoted benchmark matrix of `against past k` grows one
/// column per past slice.
fn wide_pivot(k: u32, span: Span, cost_note: Option<String>) -> Diagnostic {
    let mut diag = Diagnostic::new(
        DiagCode::W106,
        span,
        format!("`past {k}` pivots {k} history columns per group; the pivoted benchmark matrix may explode"),
    );
    if let Some(note) = cost_note {
        diag = diag.with_note(note);
    }
    diag.with_suggestion("shorten the history window or pre-aggregate the past slices")
}

/// Borrowed context and accumulated state of one [`Analyzer::bind`] walk.
struct Binder<'a> {
    statement: &'a AssessStatement,
    spans: &'a StatementSpans,
    provider: &'a dyn SchemaProvider,
    /// When an engine is attached the pivot-width lint defers to the cost
    /// lints, which can attach cost-model numbers.
    engine_attached: bool,
    sink: Sink,
    /// The first binding error in clause order: the fail-fast face.
    error: Option<AssessError>,
}

impl<'a> Binder<'a> {
    /// Records a binding error: its diagnostic always, its typed error when
    /// it is the first.
    fn fail(&mut self, diag: Diagnostic, error: impl Into<AssessError>) {
        self.sink.push(diag);
        self.error.get_or_insert(error.into());
    }

    /// Keeps the typed outcome of a clause whose fail-fast helper
    /// (`compile_using`, `labeling::resolve`) is the API's own; the clause's
    /// diagnostics were pushed at the failure sites.
    fn keep<T>(&mut self, result: Result<T, AssessError>) -> Option<T> {
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.error.get_or_insert(e);
                None
            }
        }
    }

    /// `E003` with its typed `UnknownLevel` when `level` is not in `schema`.
    fn locate(&mut self, schema: &CubeSchema, level: &str, span: Span) -> Option<(usize, usize)> {
        match schema.locate_level(level) {
            Ok(loc) => Some(loc),
            Err(e) => {
                self.fail(unknown_level(schema, level, span), e);
                None
            }
        }
    }

    /// `E005` with its typed `UnknownMember` when `member` is not in `level`.
    fn member(
        &mut self,
        level: Option<&Level>,
        level_name: &str,
        member: &str,
        span: Span,
    ) -> Option<MemberId> {
        let id = level.and_then(|l| l.member_id(member));
        if id.is_none() {
            let mut diag = Diagnostic::new(
                DiagCode::E005,
                span,
                format!("level `{level_name}` has no member `{member}`"),
            );
            if let Some(near) = level.and_then(|l| nearest(member, l.members().map(|(_, n)| n))) {
                diag = diag.with_suggestion(format!("did you mean `{near}`?"));
            }
            let error =
                ModelError::UnknownMember { level: level_name.into(), member: member.into() };
            self.fail(diag, error);
        }
        id
    }

    /// `E004` with its typed `UnknownMeasure` when `measure` is not in
    /// `schema`.
    fn measure_known(&mut self, schema: &CubeSchema, measure: &str, span: Span) -> bool {
        match schema.require_measure(measure) {
            Ok(_) => true,
            Err(e) => {
                self.fail(unknown_measure(schema, measure, span), e);
                false
            }
        }
    }

    /// The walk, clause by clause. Returns the bound statement when every
    /// clause bound; [`Binder::error`] then is `None`.
    fn walk(&mut self) -> Option<ResolvedAssess> {
        let st = self.statement;
        let schema = self.cube();
        let group_by = self.group_by(schema.as_deref());
        if let Some(schema) = schema.as_deref() {
            self.measure_known(schema, &st.measure, self.spans.measure);
        }
        let predicates = self.predicates(schema.as_deref());
        self.contradictions(schema.as_deref(), predicates.as_deref());
        let benchmark = self.benchmark(schema.as_deref(), group_by.as_ref(), predicates.as_deref());
        let (target_measures, transforms) = self.using(schema.as_deref());
        let labeling = self.labels();
        self.benchmark_usage();

        let target_query = CubeQuery::new(st.cube.clone(), group_by?, predicates?, target_measures);
        Some(ResolvedAssess {
            statement: st.clone(),
            schema: schema?,
            measure: st.measure.clone(),
            starred: st.starred,
            target_query,
            benchmark: benchmark?,
            transforms: transforms?,
            labeling: labeling?,
        })
    }

    // ---- with ----------------------------------------------------------

    fn cube(&mut self) -> Option<Arc<CubeSchema>> {
        let st = self.statement;
        let cube = &st.cube;
        let schema = self.provider.schema_of(cube);
        if schema.is_none() {
            let error = AssessError::UnknownCube(cube.clone());
            let diag = Diagnostic::from_error(&error, self.spans.cube).with_note(
                "the cube must be registered with the catalog before it can be assessed",
            );
            self.fail(diag, error);
        }
        schema
    }

    // ---- by ------------------------------------------------------------

    fn group_by(&mut self, schema: Option<&CubeSchema>) -> Option<GroupBySet> {
        let st = self.statement;
        if st.by.is_empty() {
            let message = "the by clause is empty";
            let diag = Diagnostic::new(DiagCode::E016, self.spans.span, message)
                .with_suggestion("group by at least one level, e.g. `by month`");
            self.fail(diag, AssessError::Statement(message.into()));
            return None;
        }
        let schema = schema?;
        let mut slots = vec![None; schema.hierarchies().len()];
        let mut used: Vec<(usize, &str)> = Vec::new(); // (hierarchy, first level naming it)
        let mut clean = true;
        for (i, level) in st.by.iter().enumerate() {
            let span = self.spans.by.get(i).copied().unwrap_or_default();
            let Some((h, li)) = self.locate(schema, level, span) else {
                clean = false;
                continue;
            };
            if let Some(&(_, first)) = used.iter().find(|&&(uh, _)| uh == h) {
                clean = false;
                let hname = schema.hierarchy(h).map(|x| x.name()).unwrap_or_default();
                let diag = Diagnostic::new(
                    DiagCode::E016,
                    span,
                    format!("levels `{first}` and `{level}` both belong to hierarchy `{hname}`"),
                )
                .with_note("a group-by set holds at most one level per hierarchy");
                let error = ModelError::Invariant(format!(
                    "group-by set names two levels of hierarchy `{hname}`"
                ));
                self.fail(diag, error);
            } else {
                used.push((h, level));
                if let Some(slot) = slots.get_mut(h) {
                    *slot = Some(li);
                }
            }
        }
        clean.then(|| GroupBySet::from_slots(slots))
    }

    // ---- for -----------------------------------------------------------

    /// Binds every predicate; returns the list only when *all* bound,
    /// since the benchmark reasons over the full set.
    fn predicates(&mut self, schema: Option<&CubeSchema>) -> Option<Vec<Predicate>> {
        let schema = schema?;
        let (st, spans) = (self.statement, self.spans);
        let mut bound = Vec::new();
        let mut clean = true;
        for (i, pred) in st.for_preds.iter().enumerate() {
            let pspans = spans.for_preds.get(i);
            let level_span = pspans.map_or(Span::dummy(), |p| p.level);
            let Some((h, li)) = self.locate(schema, &pred.level, level_span) else {
                clean = false;
                continue;
            };
            let level = schema.hierarchy(h).and_then(|x| x.level(li));
            let mut ids = Vec::new();
            for (j, member) in pred.members.iter().enumerate() {
                let span = pspans.and_then(|p| p.members.get(j)).copied().unwrap_or_default();
                match self.member(level, &pred.level, member, span) {
                    Some(id) => ids.push(id),
                    None => clean = false,
                }
            }
            let op = match ids.as_slice() {
                [one] => PredicateOp::Eq(*one),
                _ => PredicateOp::In(ids),
            };
            bound.push(Predicate { hierarchy: h, level: li, op });
        }
        clean.then_some(bound)
    }

    /// `E018`: the conjunction of `for` predicates on one level selects no
    /// member — the target cube is provably empty before any scan runs.
    /// Runs only when every predicate bound (index-aligned with
    /// `for_preds`), so spans can point at the contradicting clause.
    fn contradictions(&mut self, schema: Option<&CubeSchema>, predicates: Option<&[Predicate]>) {
        let (Some(schema), Some(preds)) = (schema, predicates) else { return };
        // Group predicate indices by (hierarchy, level), preserving order.
        let mut groups: Vec<(usize, usize, Vec<usize>)> = Vec::new();
        for (i, p) in preds.iter().enumerate() {
            match groups.iter_mut().find(|(h, l, _)| *h == p.hierarchy && *l == p.level) {
                Some((_, _, idxs)) => idxs.push(i),
                None => groups.push((p.hierarchy, p.level, vec![i])),
            }
        }
        for (h, l, idxs) in groups {
            let (Some(&first), true) = (idxs.first(), idxs.len() >= 2) else { continue };
            let mut surviving = preds.get(first).map(|p| p.members().to_vec()).unwrap_or_default();
            for &i in idxs.iter().skip(1) {
                let members = preds.get(i).map(Predicate::members).unwrap_or_default();
                surviving.retain(|m| members.contains(m));
            }
            if !surviving.is_empty() {
                continue;
            }
            let level_name = schema
                .hierarchy(h)
                .and_then(|x| x.level(l))
                .map(|lvl| lvl.name().to_owned())
                .unwrap_or_default();
            let last = idxs.last().copied().unwrap_or(first);
            let span = self
                .spans
                .for_preds
                .get(last)
                .map(|s| s.span)
                .filter(|s| !s.is_dummy())
                .unwrap_or(self.spans.span);
            self.sink.push(
                Diagnostic::new(
                    DiagCode::E018,
                    span,
                    format!(
                        "the for clause slices `{level_name}` {} times with no member in common",
                        idxs.len()
                    ),
                )
                .with_note("predicates are conjunctive: a cell must satisfy all of them, so the target cube is provably empty")
                .with_suggestion(format!(
                    "keep a single `{level_name}` predicate, or list the wanted members in one `in (…)`"
                )),
            );
        }
    }

    // ---- against -------------------------------------------------------

    fn benchmark(
        &mut self,
        schema: Option<&CubeSchema>,
        group_by: Option<&GroupBySet>,
        predicates: Option<&[Predicate]>,
    ) -> Option<ResolvedBenchmark> {
        let span = self.spans.against.unwrap_or(self.spans.span);
        match &self.statement.against {
            None => Some(ResolvedBenchmark::Constant { value: 0.0 }),
            Some(BenchmarkSpec::Constant(v)) => Some(ResolvedBenchmark::Constant { value: *v }),
            Some(BenchmarkSpec::External { cube, measure }) => {
                self.external(cube, measure, span, schema, group_by, predicates)
            }
            Some(BenchmarkSpec::Sibling { level, member }) => {
                self.sibling(level, member, span, schema?, group_by, predicates)
            }
            Some(BenchmarkSpec::Past(k)) => self.past(*k, span, schema, group_by, predicates),
            Some(BenchmarkSpec::Ancestor { level }) => {
                self.ancestor(level, span, schema?, group_by, predicates)
            }
        }
    }

    /// The benchmark's own cube query over the target's cube and measure.
    fn own_query(&self, group_by: GroupBySet, predicates: Vec<Predicate>) -> CubeQuery {
        let st = self.statement;
        CubeQuery::new(st.cube.clone(), group_by, predicates, vec![st.measure.clone()])
    }

    fn external(
        &mut self,
        cube: &str,
        measure: &str,
        span: Span,
        schema: Option<&CubeSchema>,
        group_by: Option<&GroupBySet>,
        predicates: Option<&[Predicate]>,
    ) -> Option<ResolvedBenchmark> {
        let st = self.statement;
        let Some(ext) = self.provider.schema_of(cube) else {
            let error = AssessError::UnknownCube(cube.to_owned());
            let diag = Diagnostic::from_error(&error, span)
                .with_note("the external benchmark cube must be registered with the catalog");
            self.fail(diag, error);
            return None;
        };
        if ext.measure_index(measure).is_none() {
            let (mut diag, error) =
                invalid(span, DiagCode::E012, format!("cube `{cube}` has no measure `{measure}`"));
            if let Some(near) = nearest(measure, ext.measures().iter().map(|m| m.name())) {
                diag = diag.with_suggestion(format!("did you mean `{near}`?"));
            }
            self.fail(diag, error);
        }
        let schema = schema?;
        // Reconciliation (H = H′, §3.1): the same group-by and predicates
        // must bind against the external schema.
        let ext_group_by = match GroupBySet::from_level_names(&ext, &st.by) {
            Ok(g) => Some(g),
            Err(e) => {
                let message = format!("external cube `{cube}` is not reconciled with the target");
                let diag = Diagnostic::new(DiagCode::E012, span, message.as_str()).with_note(
                    "every group-by level must exist in both cubes with the same members",
                );
                self.fail(diag, AssessError::InvalidBenchmark(format!("{message}: {e}")));
                None
            }
        };
        let message =
            format!("the for-clause predicates cannot be applied to external cube `{cube}`");
        let missing = st
            .for_preds
            .iter()
            .find(|p| schema.locate_level(&p.level).is_ok() && ext.locate_level(&p.level).is_err());
        if let Some(pred) = missing {
            let (diag, error) = invalid(span, DiagCode::E012, message);
            self.fail(diag.with_note(format!("`{cube}` has no level `{}`", pred.level)), error);
            return None;
        }
        let ext_group_by = ext_group_by?;
        if group_by? != &ext_group_by {
            let error = AssessError::InvalidBenchmark(format!(
                "external cube `{cube}` places the group-by levels on different hierarchies"
            ));
            self.fail(Diagnostic::from_error(&error, span), error);
            return None;
        }
        // Past the level checks, a predicate that binds on the target fails
        // on the external cube only through a missing member.
        predicates?;
        let Ok(ext_preds) = resolve_predicates(&ext, &st.for_preds) else {
            let error = AssessError::InvalidBenchmark(message);
            self.fail(Diagnostic::from_error(&error, span), error);
            return None;
        };
        let query = CubeQuery::new(cube.to_owned(), ext_group_by, ext_preds, vec![measure.into()]);
        Some(ResolvedBenchmark::External { query, measure: measure.to_owned() })
    }

    fn sibling(
        &mut self,
        level: &str,
        member: &str,
        span: Span,
        schema: &CubeSchema,
        group_by: Option<&GroupBySet>,
        predicates: Option<&[Predicate]>,
    ) -> Option<ResolvedBenchmark> {
        let (h, li) = self.locate(schema, level, span)?;
        if group_by.is_some_and(|gb| gb.slots().get(h).copied() != Some(Some(li))) {
            let message = format!("sibling level `{level}` must appear in the by clause");
            let (diag, error) = invalid(span, DiagCode::E012, message);
            self.fail(diag.with_suggestion(format!("add `{level}` to the by clause")), error);
        }
        let lvl = schema.hierarchy(h).and_then(|x| x.level(li));
        let sibling = self.member(lvl, level, member, span);
        let preds = predicates?;
        let target = preds.iter().enumerate().find_map(|(i, p)| match p.op {
            PredicateOp::Eq(id) if p.hierarchy == h && p.level == li => Some((i, id)),
            _ => None,
        });
        let Some((pos, target)) = target else {
            let message =
                format!("a sibling benchmark needs a `for {level} = …` slice on the target");
            let (diag, error) = invalid(span, DiagCode::E012, message);
            let help = format!("add `for {level} = '<member>'` to pick the target slice");
            self.fail(diag.with_suggestion(help), error);
            return None;
        };
        let sibling = sibling?;
        if target == sibling {
            let message = format!("the sibling member `{member}` is the target's own slice");
            let (diag, error) = invalid(span, DiagCode::E013, message);
            let diag = diag
                .with_note(
                    "comparing a slice against itself labels every cell with the neutral range",
                )
                .with_suggestion(format!("compare against a different member of `{level}`"));
            self.fail(diag, error);
            return None;
        }
        let mut bench_preds = preds.to_vec();
        if let Some(p) = bench_preds.get_mut(pos) {
            p.op = PredicateOp::Eq(sibling);
        }
        let query = self.own_query(group_by?.clone(), bench_preds);
        Some(ResolvedBenchmark::Sibling { query, hierarchy: h, level: li, sibling })
    }

    fn past(
        &mut self,
        k: u32,
        span: Span,
        schema: Option<&CubeSchema>,
        group_by: Option<&GroupBySet>,
        predicates: Option<&[Predicate]>,
    ) -> Option<ResolvedBenchmark> {
        if k == 0 {
            let (diag, error) = invalid(span, DiagCode::E012, "`against past 0` is empty".into());
            self.fail(
                diag.with_suggestion("use at least one past slice, e.g. `against past 3`"),
                error,
            );
            return None;
        }
        let (schema, gb, preds) = (schema?, group_by?, predicates?);
        // Static pivot-width lint; with an engine attached the cost lints
        // fire it instead, with the cost model's numbers.
        if k > W106_PAST_LIMIT && !self.engine_attached {
            self.sink.push(wide_pivot(k, span, None));
        }
        let pos = match find_temporal_slice(schema, gb, preds) {
            Ok(pos) => pos,
            Err(e) => {
                let diag = Diagnostic::from_error(&e, span).with_suggestion(
                    "slice exactly one group-by level, e.g. `for month = '1998-06' by supplier, month`",
                );
                self.fail(diag, e);
                return None;
            }
        };
        let p = preds.get(pos)?;
        let PredicateOp::Eq(target) = p.op else { return None };
        let lvl = schema.hierarchy(p.hierarchy).and_then(|x| x.level(p.level))?;
        let member = lvl.member_name(target).unwrap_or_default().to_owned();
        let available = target.0;
        if available < k {
            let error = AssessError::InsufficientHistory {
                level: lvl.name().to_owned(),
                member,
                requested: k,
                available,
            };
            let diag = Diagnostic::from_error(&error, span)
                .with_note("slices are ordered chronologically; early slices have little history")
                .with_suggestion(format!(
                    "reduce the window to `past {available}` or pick a later slice"
                ));
            self.fail(diag, error);
            return None;
        }
        if available == k || k == 1 {
            let message = if k == 1 {
                "`past 1` forecasts from a single slice: the \"forecast\" is just that slice's value".to_owned()
            } else {
                format!(
                    "`against past {k}` uses `{member}`'s entire history: there is no slack if slices are missing"
                )
            };
            self.sink.push(
                Diagnostic::new(DiagCode::W104, span, message)
                    .with_note(format!("`{member}` has exactly {available} predecessors")),
            );
        }
        // Temporal levels are loaded chronologically, so the predecessors
        // are the k preceding member ids.
        let past: Vec<MemberId> = (available - k..available).map(MemberId).collect();
        let mut bench_preds = preds.to_vec();
        if let Some(slot) = bench_preds.get_mut(pos) {
            slot.op = PredicateOp::In(past.clone());
        }
        let (hierarchy, level) = (p.hierarchy, p.level);
        let query = self.own_query(gb.clone(), bench_preds);
        Some(ResolvedBenchmark::Past { query, hierarchy, level, target_member: target, past })
    }

    fn ancestor(
        &mut self,
        level: &str,
        span: Span,
        schema: &CubeSchema,
        group_by: Option<&GroupBySet>,
        predicates: Option<&[Predicate]>,
    ) -> Option<ResolvedBenchmark> {
        let (h, coarse_level) = self.locate(schema, level, span)?;
        let group_by = group_by?;
        // Levels are ordered finest-first, so the ancestor must sit at a
        // strictly larger index than the group-by level.
        let fine_level = match group_by.slots().get(h).copied().flatten() {
            Some(fine) if fine < coarse_level => fine,
            Some(_) => {
                let message = format!("ancestor level `{level}` must be strictly coarser than the group-by level of its hierarchy");
                let (diag, error) = invalid(span, DiagCode::E012, message);
                self.fail(diag.with_note("each cell is judged against its ancestor, so the ancestor must aggregate several cells"), error);
                return None;
            }
            None => {
                let message = format!(
                    "an ancestor benchmark needs the hierarchy of `{level}` in the by clause"
                );
                let (diag, error) = invalid(span, DiagCode::E012, message);
                let help = "group by a level of that hierarchy, finer than the ancestor";
                self.fail(diag.with_suggestion(help), error);
                return None;
            }
        };
        // The benchmark aggregates the *whole* ancestor: predicates on this
        // hierarchy finer than the ancestor level are dropped (keeping them
        // would compare a slice to itself).
        let bench_preds: Vec<Predicate> = predicates?
            .iter()
            .filter(|p| !(p.hierarchy == h && p.level < coarse_level))
            .cloned()
            .collect();
        let mut slots = group_by.slots().to_vec();
        if let Some(slot) = slots.get_mut(h) {
            *slot = Some(coarse_level);
        }
        let query = self.own_query(GroupBySet::from_slots(slots), bench_preds);
        Some(ResolvedBenchmark::Ancestor { query, hierarchy: h, fine_level, coarse_level })
    }

    // ---- using ---------------------------------------------------------

    /// Binds the `using` chain (the omitted one is `difference(m,
    /// benchmark.m)`). Returns the target measures — the assessed one plus
    /// every other measure the chain reads (derived-measure support) — and
    /// the compiled chain.
    fn using(&mut self, schema: Option<&CubeSchema>) -> (Vec<String>, Option<Vec<TransformStep>>) {
        let st = self.statement;
        let benchmark_measure = benchmark_measure_name(st);
        let mut measures = vec![st.measure.clone()];
        let compiled = match &st.using {
            None => {
                let chain = FuncExpr::call(
                    "difference",
                    vec![FuncExpr::measure(&st.measure), FuncExpr::benchmark(&benchmark_measure)],
                );
                functions::compile_using(&chain, &st.measure)
            }
            Some(using) => {
                let spans = self.spans.using.as_ref();
                self.expr(using, spans, schema, &benchmark_measure, &mut measures);
                self.degenerate_division(using, spans);
                functions::compile_using(using, &st.measure)
            }
        };
        let transforms = self.keep(compiled);
        (measures, transforms)
    }

    fn expr(
        &mut self,
        expr: &FuncExpr,
        spans: Option<&FuncSpans>,
        schema: Option<&CubeSchema>,
        benchmark_measure: &str,
        measures: &mut Vec<String>,
    ) {
        let span = spans.map_or(Span::dummy(), |s| s.span);
        match expr {
            FuncExpr::Call { name, args } => {
                match Function::lookup(name) {
                    None => {
                        let error = AssessError::UnknownFunction(name.clone());
                        let mut diag =
                            Diagnostic::from_error(&error, spans.map_or(Span::dummy(), |s| s.name));
                        if let Some(near) = nearest(name, FUNCTION_NAMES.iter().copied()) {
                            diag = diag.with_suggestion(format!("did you mean `{near}`?"));
                        } else {
                            diag = diag.with_note(format!(
                                "available functions: {}",
                                FUNCTION_NAMES.join(", ")
                            ));
                        }
                        self.sink.push(diag);
                    }
                    Some(f) => {
                        let (min, max) = f.arity();
                        if args.len() < min || args.len() > max {
                            let expected =
                                if min == max { min.to_string() } else { format!("{min}..{max}") };
                            let error = AssessError::Arity {
                                function: f.name().to_owned(),
                                expected,
                                got: args.len(),
                            };
                            self.sink.push(
                                Diagnostic::from_error(&error, span)
                                    .with_note(format!("`{name}` is spelled `{}`", signature(f))),
                            );
                        }
                    }
                }
                for (i, arg) in args.iter().enumerate() {
                    let arg_spans = spans.and_then(|s| s.args.get(i));
                    self.expr(arg, arg_spans, schema, benchmark_measure, measures);
                }
            }
            FuncExpr::Measure(m) => {
                if let Some(schema) = schema {
                    if self.measure_known(schema, m, span) && !measures.contains(m) {
                        measures.push(m.clone());
                    }
                }
            }
            FuncExpr::BenchmarkMeasure(m) => {
                if m != benchmark_measure {
                    let message = format!(
                        "using references benchmark.{m}, but the benchmark measure is `{benchmark_measure}`"
                    );
                    let diag = Diagnostic::new(DiagCode::E015, span, message.as_str())
                        .with_suggestion(format!("write `benchmark.{benchmark_measure}`"));
                    self.fail(diag, AssessError::Statement(message));
                }
            }
            FuncExpr::Property { level, .. } => {
                if let Some(schema) = schema {
                    self.locate(schema, level, span);
                }
            }
            FuncExpr::Number(_) => {}
        }
    }

    /// `W103`: `ratio`/`percentage`/`normDifference` whose divisor is the
    /// literal 0 or a benchmark that is constantly 0 — the whole delta
    /// column comes out null and no cell ever gets a label.
    fn degenerate_division(&mut self, expr: &FuncExpr, spans: Option<&FuncSpans>) {
        let constant_benchmark = match &self.statement.against {
            None => Some(0.0),
            Some(BenchmarkSpec::Constant(v)) => Some(*v),
            Some(_) => None,
        };
        let mut stack = vec![(expr, spans)];
        while let Some((e, s)) = stack.pop() {
            let span = s.map_or(Span::dummy(), |s| s.span);
            if let FuncExpr::Call { name, args } = e {
                let divides = matches!(
                    Function::lookup(name),
                    Some(Function::Ratio | Function::Percentage | Function::NormDifference)
                );
                if divides {
                    match args.get(1) {
                        Some(FuncExpr::Number(v)) if *v == 0.0 => {
                            self.sink.push(
                                Diagnostic::new(
                                    DiagCode::W103,
                                    span,
                                    format!("`{name}` divides by the literal 0"),
                                )
                                .with_note(
                                    "every cell's comparison is null, so no cell gets a label",
                                ),
                            );
                        }
                        Some(FuncExpr::BenchmarkMeasure(_)) if constant_benchmark == Some(0.0) => {
                            let what = if self.statement.against.is_none() {
                                "the omitted benchmark defaults to the constant 0"
                            } else {
                                "the benchmark is the constant 0"
                            };
                            self.sink.push(
                                Diagnostic::new(
                                    DiagCode::W103,
                                    span,
                                    format!("`{name}` divides by the benchmark, but {what}"),
                                )
                                .with_note("every cell's comparison is null, so no cell gets a label")
                                .with_suggestion("use `difference` against a zero benchmark, or pick a non-zero constant"),
                            );
                        }
                        _ => {}
                    }
                }
                for (i, arg) in args.iter().enumerate() {
                    stack.push((arg, s.and_then(|s| s.args.get(i))));
                }
            }
        }
    }

    /// `W102`: the statement fetches a benchmark (or inlines one) that the
    /// `using` chain never reads, or the chain reads no data at all.
    fn benchmark_usage(&mut self) {
        let st = self.statement;
        let Some(using) = &st.using else { return };
        let span = self.spans.using.as_ref().map(|u| u.span).unwrap_or(self.spans.span);
        let mut reads_measure = false;
        let mut reads_benchmark = false;
        let mut literals: Vec<f64> = Vec::new();
        walk(using, &mut |e| match e {
            FuncExpr::Measure(_) | FuncExpr::Property { .. } => reads_measure = true,
            FuncExpr::BenchmarkMeasure(_) => reads_benchmark = true,
            FuncExpr::Number(v) => literals.push(*v),
            FuncExpr::Call { .. } => {}
        });

        if !reads_measure && !reads_benchmark {
            self.sink.push(
                Diagnostic::new(
                    DiagCode::W102,
                    span,
                    "the using chain reads no measure: the comparison is the same constant for every cell",
                )
                .with_suggestion("reference the assessed measure or `benchmark.<measure>`"),
            );
            return;
        }
        if reads_benchmark {
            return;
        }
        match &st.against {
            None => {}
            // The paper's own idiom inlines the constant into the chain
            // (`ratio(revenue, 45000000) … against 45000000`), so only
            // warn when the constant appears nowhere in the chain.
            Some(BenchmarkSpec::Constant(v)) if !literals.iter().any(|l| l == v) => {
                self.sink.push(
                    Diagnostic::new(
                        DiagCode::W102,
                        span,
                        format!("the constant benchmark {v} is never used by the using chain"),
                    )
                    .with_suggestion(format!(
                        "reference `benchmark.{}` or inline {v} into the chain",
                        st.measure
                    )),
                );
            }
            Some(BenchmarkSpec::Constant(_)) => {}
            Some(_) => {
                self.sink.push(
                    Diagnostic::new(
                        DiagCode::W102,
                        span,
                        "the benchmark is fetched but the using chain never references it",
                    )
                    .with_note(
                        "the engine pays for the benchmark query, then the comparison ignores it",
                    )
                    .with_suggestion(format!(
                        "reference `benchmark.{}` in the chain, or drop the against clause",
                        benchmark_measure_name(st)
                    )),
                );
            }
        }
    }

    // ---- labels --------------------------------------------------------

    /// Binds the labeling. The typed error is `labeling::resolve`'s, which
    /// names every offending range at once.
    fn labels(&mut self) -> Option<ResolvedLabeling> {
        let (st, spans) = (self.statement, self.spans);
        let labels_span = spans.labels;
        let resolved = labeling::resolve(&st.labels);
        match &st.labels {
            LabelingSpec::Named(name) if resolved.is_err() => {
                let error = AssessError::UnknownLabeling(name.clone());
                let mut diag = Diagnostic::from_error(&error, labels_span);
                if let Some(near) = nearest(name, labeling::known_labelings().iter().copied()) {
                    diag = diag.with_suggestion(format!("did you mean `{near}`?"));
                } else {
                    diag = diag.with_note(format!(
                        "known labelings: {}",
                        labeling::known_labelings().join(", ")
                    ));
                }
                self.sink.push(diag);
            }
            LabelingSpec::Named(_) => {}
            LabelingSpec::Ranges(rules) if rules.is_empty() => {
                self.sink.push(
                    Diagnostic::new(DiagCode::E009, labels_span, "the labeling declares no rules")
                        .with_suggestion("declare at least one range, e.g. `{[0, inf]: ok}`"),
                );
            }
            LabelingSpec::Ranges(rules) => {
                let rule_span = |i: usize| spans.label_rules.get(i).copied().unwrap_or(labels_span);
                let rule_text = |i: usize| rules.get(i).map(|r| r.to_string()).unwrap_or_default();
                for issue in labeling::validate_ranges(rules) {
                    let diag = match issue {
                        RangeIssue::Empty { rule } => {
                            let inverted =
                                rules.get(rule).map(|r| r.lo.value > r.hi.value).unwrap_or(false);
                            let why = if inverted {
                                "its bounds are inverted"
                            } else {
                                "its bounds touch but at least one endpoint is open"
                            };
                            Diagnostic::new(
                                DiagCode::E010,
                                rule_span(rule),
                                format!("range `{}` is empty: {why}", rule_text(rule)),
                            )
                            .with_suggestion("no value can ever receive this label")
                        }
                        RangeIssue::Overlap { first, second } => Diagnostic::new(
                            DiagCode::E011,
                            rule_span(second),
                            format!(
                                "ranges `{}` and `{}` overlap",
                                rule_text(first),
                                rule_text(second)
                            ),
                        )
                        .with_note("a value falling in both ranges would get two labels")
                        .with_suggestion("make the shared endpoint open on one side"),
                        RangeIssue::Gap { before, after } => Diagnostic::new(
                            DiagCode::W101,
                            rule_span(after),
                            format!(
                                "ranges `{}` and `{}` leave a gap",
                                rule_text(before),
                                rule_text(after)
                            ),
                        )
                        .with_note("values falling in the gap get a null label")
                        .with_suggestion("close the gap or keep it deliberately (assess* keeps null-labelled cells)"),
                    };
                    self.sink.push(diag);
                }
            }
        }
        self.keep(resolved)
    }
}

/// An `InvalidBenchmark` binding error: one message for both faces.
fn invalid(span: Span, code: DiagCode, message: String) -> (Diagnostic, AssessError) {
    (Diagnostic::new(code, span, message.as_str()), AssessError::InvalidBenchmark(message))
}

/// Binds predicates against another cube's schema (the external
/// benchmark's reconciliation), failing at the first that does not bind.
fn resolve_predicates(
    schema: &CubeSchema,
    specs: &[PredicateSpec],
) -> Result<Vec<Predicate>, ModelError> {
    specs
        .iter()
        .map(|p| match p.members.as_slice() {
            [one] => Predicate::eq(schema, &p.level, one),
            members => Predicate::is_in(schema, &p.level, members),
        })
        .collect()
}

/// Finds the temporal slice of a past benchmark: the index of the `Eq`
/// predicate whose level is in the group-by set (preferring a hierarchy
/// whose name mentions "date" when several qualify).
fn find_temporal_slice(
    schema: &CubeSchema,
    group_by: &GroupBySet,
    predicates: &[Predicate],
) -> Result<usize, AssessError> {
    let mut candidates: Vec<usize> = predicates
        .iter()
        .enumerate()
        .filter(|(_, p)| {
            group_by.slots().get(p.hierarchy).copied() == Some(Some(p.level))
                && matches!(p.op, PredicateOp::Eq(_))
        })
        .map(|(i, _)| i)
        .collect();
    if candidates.len() > 1 {
        candidates.retain(|&i| {
            predicates
                .get(i)
                .and_then(|p| schema.hierarchy(p.hierarchy))
                .map(|h| h.name().to_ascii_lowercase().contains("date"))
                .unwrap_or(false)
        });
    }
    match candidates.as_slice() {
        [one] => Ok(*one),
        [] => Err(AssessError::InvalidBenchmark(
            "a past benchmark needs a `for <temporal level> = …` slice whose level is in the by clause".into(),
        )),
        _ => Err(AssessError::InvalidBenchmark(
            "ambiguous temporal slice: several group-by levels are sliced".into(),
        )),
    }
}

/// The `benchmark.<x>` column name the statement's benchmark exposes.
fn benchmark_measure_name(statement: &AssessStatement) -> String {
    match &statement.against {
        Some(BenchmarkSpec::External { measure, .. }) => measure.clone(),
        _ => statement.measure.clone(),
    }
}

/// Depth-first walk over a `using` chain.
fn walk(expr: &FuncExpr, f: &mut impl FnMut(&FuncExpr)) {
    f(expr);
    if let FuncExpr::Call { args, .. } = expr {
        for arg in args {
            walk(arg, f);
        }
    }
}

/// A human-readable signature for an arity note.
fn signature(f: Function) -> String {
    let (min, max) = f.arity();
    let args: Vec<String> = (0..max)
        .map(|i| if i < min { format!("arg{}", i + 1) } else { format!("[arg{}]", i + 1) })
        .collect();
    format!("{}({})", f.name(), args.join(", "))
}

/// `E003` with a did-you-mean suggestion over every level of the schema.
fn unknown_level(schema: &CubeSchema, level: &str, span: Span) -> Diagnostic {
    let mut diag = Diagnostic::new(
        DiagCode::E003,
        span,
        format!("cube `{}` has no level `{level}`", schema.name()),
    );
    let candidates = schema.hierarchies().iter().flat_map(|h| h.levels().iter().map(|l| l.name()));
    if let Some(near) = nearest(level, candidates) {
        diag = diag.with_suggestion(format!("did you mean `{near}`?"));
    } else {
        let all: Vec<&str> =
            schema.hierarchies().iter().flat_map(|h| h.levels().iter().map(|l| l.name())).collect();
        diag = diag.with_note(format!("available levels: {}", all.join(", ")));
    }
    diag
}

/// `E004` with a did-you-mean suggestion over the schema's measures.
fn unknown_measure(schema: &CubeSchema, measure: &str, span: Span) -> Diagnostic {
    let mut diag = Diagnostic::new(
        DiagCode::E004,
        span,
        format!("cube `{}` has no measure `{measure}`", schema.name()),
    );
    if let Some(near) = nearest(measure, schema.measures().iter().map(|m| m.name())) {
        diag = diag.with_suggestion(format!("did you mean `{near}`?"));
    } else {
        let all: Vec<&str> = schema.measures().iter().map(|m| m.name()).collect();
        diag = diag.with_note(format!("available measures: {}", all.join(", ")));
    }
    diag
}

/// Closest candidate by case-insensitive edit distance, if close enough to
/// plausibly be a typo (distance ≤ max(2, len/3)).
fn nearest<'x>(name: &str, candidates: impl Iterator<Item = &'x str>) -> Option<String> {
    let budget = (name.chars().count() / 3).max(2);
    candidates
        .map(|c| (edit_distance(&name.to_ascii_lowercase(), &c.to_ascii_lowercase()), c))
        .filter(|&(d, _)| d <= budget)
        .min_by_key(|&(d, _)| d)
        .map(|(_, c)| c.to_owned())
}

/// Levenshtein distance over chars (two-row dynamic program).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        if let Some(slot) = cur.first_mut() {
            *slot = i + 1;
        }
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev.get(j).copied().unwrap_or(0) + usize::from(ca != cb);
            let del = prev.get(j + 1).copied().unwrap_or(0) + 1;
            let ins = cur.get(j).copied().unwrap_or(0) + 1;
            if let Some(slot) = cur.get_mut(j + 1) {
                *slot = sub.min(del).min(ins);
            }
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev.last().copied().unwrap_or(0)
}
