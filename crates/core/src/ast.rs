//! Abstract syntax of assess statements (Section 4.1).
//!
//! ```text
//! with C0 [ for p1, …, pk ] by G
//! assess|assess* m [ against <benchmark> ]
//! [ using <function> ] labels λ
//! ```
//!
//! [`std::fmt::Display`] renders statements back into the paper's concrete
//! syntax; `assess-sql` parses that syntax into these types, and the
//! formulation-effort experiment (Table 1) counts characters of the rendered
//! form.

use std::fmt;

use crate::diag::Span;

/// One `for` clause predicate: `level = 'member'` or `level in ('a', 'b')`.
#[derive(Debug, Clone, PartialEq)]
pub struct PredicateSpec {
    pub level: String,
    /// One member for equality, several for membership.
    pub members: Vec<String>,
}

impl PredicateSpec {
    pub fn eq(level: impl Into<String>, member: impl Into<String>) -> Self {
        PredicateSpec { level: level.into(), members: vec![member.into()] }
    }

    pub fn is_in<S: Into<String>>(
        level: impl Into<String>,
        members: impl IntoIterator<Item = S>,
    ) -> Self {
        PredicateSpec {
            level: level.into(),
            members: members.into_iter().map(Into::into).collect(),
        }
    }
}

/// The `against` clause: one of the four benchmark types of Section 3.1.
#[derive(Debug, Clone, PartialEq)]
pub enum BenchmarkSpec {
    /// `against 1000` — a constant (KPI) benchmark.
    Constant(f64),
    /// `against EXPECTED.expected_revenue` — an external cube's measure.
    External { cube: String, measure: String },
    /// `against country = 'France'` — a sibling slice of the target cube.
    Sibling { level: String, member: String },
    /// `against past 4` — a forecast from the `k` preceding time slices.
    Past(u32),
    /// `against ancestor type` — each cell is judged against its own
    /// ancestor at a coarser level of the same hierarchy (an extension from
    /// the paper's future-work list: "let the sales of milk be assessed
    /// against those of drinks").
    Ancestor { level: String },
}

/// The `using` clause: a nestable composition of library functions over
/// measures, the benchmark's measures (`benchmark.m`) and literals.
#[derive(Debug, Clone, PartialEq)]
pub enum FuncExpr {
    Call {
        name: String,
        args: Vec<FuncExpr>,
    },
    /// A measure of the target cube.
    Measure(String),
    /// `benchmark.m` — the benchmark's measure for the matched cell.
    BenchmarkMeasure(String),
    /// `property(country, 'population')` — a descriptive property of a
    /// level, looked up on each cell's coordinate (future-work extension
    /// enabling per-capita comparisons).
    Property {
        level: String,
        name: String,
    },
    Number(f64),
}

impl FuncExpr {
    pub fn call<S: Into<String>>(name: S, args: Vec<FuncExpr>) -> Self {
        FuncExpr::Call { name: name.into(), args }
    }

    pub fn measure(name: impl Into<String>) -> Self {
        FuncExpr::Measure(name.into())
    }

    pub fn benchmark(name: impl Into<String>) -> Self {
        FuncExpr::BenchmarkMeasure(name.into())
    }

    pub fn number(v: f64) -> Self {
        FuncExpr::Number(v)
    }

    pub fn property(level: impl Into<String>, name: impl Into<String>) -> Self {
        FuncExpr::Property { level: level.into(), name: name.into() }
    }
}

/// One endpoint of a labeling range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// The endpoint value; `±f64::INFINITY` spells `inf`/`-inf`.
    pub value: f64,
    pub inclusive: bool,
}

impl Bound {
    pub fn closed(value: f64) -> Self {
        Bound { value, inclusive: true }
    }

    pub fn open(value: f64) -> Self {
        Bound { value, inclusive: false }
    }

    pub fn neg_inf() -> Self {
        Bound { value: f64::NEG_INFINITY, inclusive: true }
    }

    pub fn pos_inf() -> Self {
        Bound { value: f64::INFINITY, inclusive: true }
    }
}

/// One rule of a range-based labeling: `[lo, hi): label`.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeRule {
    pub lo: Bound,
    pub hi: Bound,
    pub label: String,
}

impl RangeRule {
    pub fn new(lo: Bound, hi: Bound, label: impl Into<String>) -> Self {
        RangeRule { lo, hi, label: label.into() }
    }

    /// Whether `x` falls in this range.
    pub fn contains(&self, x: f64) -> bool {
        let above = if self.lo.inclusive { x >= self.lo.value } else { x > self.lo.value };
        let below = if self.hi.inclusive { x <= self.hi.value } else { x < self.hi.value };
        above && below
    }
}

/// The `labels` clause: a named library labeling (`quartiles`, a
/// user-predeclared range function…) or an inline range set.
#[derive(Debug, Clone, PartialEq)]
pub enum LabelingSpec {
    Named(String),
    Ranges(Vec<RangeRule>),
}

/// A complete assess statement.
#[derive(Debug, Clone, PartialEq)]
pub struct AssessStatement {
    /// The detailed cube name (`with` clause).
    pub cube: String,
    /// The `for` clause predicates (possibly empty).
    pub for_preds: Vec<PredicateSpec>,
    /// The `by` clause group-by levels.
    pub by: Vec<String>,
    /// The assessed measure.
    pub measure: String,
    /// `assess*` (keep non-matching cells with null labels) vs `assess`.
    pub starred: bool,
    /// The `against` clause; `None` means the zero dummy benchmark.
    pub against: Option<BenchmarkSpec>,
    /// The `using` clause; `None` defaults to `difference(m, benchmark.m)`.
    pub using: Option<FuncExpr>,
    pub labels: LabelingSpec,
}

impl AssessStatement {
    /// Starts a fluent builder: `AssessStatement::on("SALES")`.
    pub fn on(cube: impl Into<String>) -> AssessStatementBuilder {
        AssessStatementBuilder {
            statement: AssessStatement {
                cube: cube.into(),
                for_preds: Vec::new(),
                by: Vec::new(),
                measure: String::new(),
                starred: false,
                against: None,
                using: None,
                labels: LabelingSpec::Named("quartiles".into()),
            },
        }
    }
}

/// Fluent builder for [`AssessStatement`].
#[derive(Debug, Clone)]
pub struct AssessStatementBuilder {
    statement: AssessStatement,
}

impl AssessStatementBuilder {
    /// Adds a `for level = 'member'` predicate.
    pub fn slice(mut self, level: impl Into<String>, member: impl Into<String>) -> Self {
        self.statement.for_preds.push(PredicateSpec::eq(level, member));
        self
    }

    /// Adds a `for level in (…)` predicate.
    pub fn slice_in<S: Into<String>>(
        mut self,
        level: impl Into<String>,
        members: impl IntoIterator<Item = S>,
    ) -> Self {
        self.statement.for_preds.push(PredicateSpec::is_in(level, members));
        self
    }

    /// Sets the `by` group-by levels.
    pub fn by<S: Into<String>>(mut self, levels: impl IntoIterator<Item = S>) -> Self {
        self.statement.by = levels.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the assessed measure.
    pub fn assess(mut self, measure: impl Into<String>) -> Self {
        self.statement.measure = measure.into();
        self
    }

    /// Switches to the `assess*` variant.
    pub fn starred(mut self) -> Self {
        self.statement.starred = true;
        self
    }

    pub fn against(mut self, benchmark: BenchmarkSpec) -> Self {
        self.statement.against = Some(benchmark);
        self
    }

    pub fn against_constant(self, v: f64) -> Self {
        self.against(BenchmarkSpec::Constant(v))
    }

    pub fn against_external(self, cube: impl Into<String>, measure: impl Into<String>) -> Self {
        self.against(BenchmarkSpec::External { cube: cube.into(), measure: measure.into() })
    }

    pub fn against_sibling(self, level: impl Into<String>, member: impl Into<String>) -> Self {
        self.against(BenchmarkSpec::Sibling { level: level.into(), member: member.into() })
    }

    pub fn against_past(self, k: u32) -> Self {
        self.against(BenchmarkSpec::Past(k))
    }

    pub fn against_ancestor(self, level: impl Into<String>) -> Self {
        self.against(BenchmarkSpec::Ancestor { level: level.into() })
    }

    pub fn using(mut self, expr: FuncExpr) -> Self {
        self.statement.using = Some(expr);
        self
    }

    pub fn labels_named(mut self, name: impl Into<String>) -> Self {
        self.statement.labels = LabelingSpec::Named(name.into());
        self
    }

    pub fn labels_ranges(mut self, rules: Vec<RangeRule>) -> Self {
        self.statement.labels = LabelingSpec::Ranges(rules);
        self
    }

    pub fn build(self) -> AssessStatement {
        self.statement
    }
}

/// Byte spans for one `for` predicate: the whole predicate, its level
/// identifier, and each member string literal.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PredicateSpans {
    pub span: Span,
    pub level: Span,
    pub members: Vec<Span>,
}

/// Byte spans for a `using` expression, mirroring the [`FuncExpr`] tree.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FuncSpans {
    /// The whole expression.
    pub span: Span,
    /// The function-name identifier of a `Call`; dummy for leaf nodes.
    pub name: Span,
    /// One entry per `Call` argument; empty for leaf nodes.
    pub args: Vec<FuncSpans>,
}

impl FuncSpans {
    pub fn leaf(span: Span) -> Self {
        FuncSpans { span, name: Span::dummy(), args: Vec::new() }
    }
}

/// Byte spans for one parsed [`AssessStatement`] — a *shadow tree* kept
/// separate from the AST so structural equality (and with it the
/// render→parse round-trip property) is untouched by source locations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatementSpans {
    /// The whole statement.
    pub span: Span,
    /// The cube identifier after `with`.
    pub cube: Span,
    pub for_preds: Vec<PredicateSpans>,
    /// One span per `by` level identifier.
    pub by: Vec<Span>,
    /// The measure identifier after `assess`.
    pub measure: Span,
    /// The whole benchmark expression after `against`.
    pub against: Option<Span>,
    pub using: Option<FuncSpans>,
    /// The `labels` clause argument (name or the whole `{…}` block).
    pub labels: Span,
    /// One span per inline range rule (empty for named labelings).
    pub label_rules: Vec<Span>,
}

/// Quotes a member name as a statement string literal (`'` escapes to `''`).
fn quote(member: &str) -> String {
    format!("'{}'", member.replace('\'', "''"))
}

fn fmt_number(v: f64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if v == f64::INFINITY {
        write!(f, "inf")
    } else if v == f64::NEG_INFINITY {
        write!(f, "-inf")
    } else if v == v.trunc() && v.abs() < 1e15 {
        write!(f, "{}", v as i64)
    } else {
        write!(f, "{v}")
    }
}

impl fmt::Display for FuncExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuncExpr::Call { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            FuncExpr::Measure(m) => write!(f, "{m}"),
            FuncExpr::BenchmarkMeasure(m) => write!(f, "benchmark.{m}"),
            FuncExpr::Property { level, name } => {
                write!(f, "property({level}, {})", quote(name))
            }
            FuncExpr::Number(v) => fmt_number(*v, f),
        }
    }
}

impl fmt::Display for RangeRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", if self.lo.inclusive { '[' } else { '(' })?;
        fmt_number(self.lo.value, f)?;
        write!(f, ", ")?;
        fmt_number(self.hi.value, f)?;
        write!(f, "{}: {}", if self.hi.inclusive { ']' } else { ')' }, self.label)
    }
}

impl fmt::Display for LabelingSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabelingSpec::Named(name) => write!(f, "{name}"),
            LabelingSpec::Ranges(rules) => {
                write!(f, "{{")?;
                for (i, r) in rules.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{r}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl fmt::Display for PredicateSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.members.len() == 1 {
            write!(f, "{} = {}", self.level, quote(&self.members[0]))
        } else {
            let list: Vec<String> = self.members.iter().map(|m| quote(m)).collect();
            write!(f, "{} in ({})", self.level, list.join(", "))
        }
    }
}

impl fmt::Display for BenchmarkSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchmarkSpec::Constant(v) => fmt_number(*v, f),
            BenchmarkSpec::External { cube, measure } => write!(f, "{cube}.{measure}"),
            BenchmarkSpec::Sibling { level, member } => {
                write!(f, "{level} = {}", quote(member))
            }
            BenchmarkSpec::Past(k) => write!(f, "past {k}"),
            BenchmarkSpec::Ancestor { level } => write!(f, "ancestor {level}"),
        }
    }
}

impl fmt::Display for AssessStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "with {}", self.cube)?;
        if !self.for_preds.is_empty() {
            let preds: Vec<String> = self.for_preds.iter().map(|p| p.to_string()).collect();
            write!(f, "\nfor {}", preds.join(", "))?;
        }
        write!(f, "\nby {}", self.by.join(", "))?;
        write!(f, "\nassess{} {}", if self.starred { "*" } else { "" }, self.measure)?;
        if let Some(b) = &self.against {
            write!(f, " against {b}")?;
        }
        if let Some(u) = &self.using {
            write!(f, "\nusing {u}")?;
        }
        write!(f, "\nlabels {}", self.labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sibling_statement() -> AssessStatement {
        AssessStatement::on("SALES")
            .slice("type", "Fresh Fruit")
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
            .labels_ranges(vec![
                RangeRule::new(Bound::neg_inf(), Bound::open(-0.2), "bad"),
                RangeRule::new(Bound::closed(-0.2), Bound::closed(0.2), "ok"),
                RangeRule::new(Bound::open(0.2), Bound::pos_inf(), "good"),
            ])
            .build()
    }

    #[test]
    fn renders_the_papers_sibling_statement() {
        let text = sibling_statement().to_string();
        assert_eq!(
            text,
            "with SALES\n\
             for type = 'Fresh Fruit', country = 'Italy'\n\
             by product, country\n\
             assess quantity against country = 'France'\n\
             using percOfTotal(difference(quantity, benchmark.quantity))\n\
             labels {[-inf, -0.2): bad, [-0.2, 0.2]: ok, (0.2, inf]: good}"
        );
    }

    #[test]
    fn renders_example_1_1() {
        let stmt = AssessStatement::on("SALES")
            .slice("year", "2019")
            .slice("product", "milk")
            .by(["year", "product"])
            .assess("quantity")
            .against_constant(1000.0)
            .using(FuncExpr::call(
                "ratio",
                vec![FuncExpr::measure("quantity"), FuncExpr::number(1000.0)],
            ))
            .labels_ranges(vec![
                RangeRule::new(Bound::closed(0.0), Bound::open(0.9), "bad"),
                RangeRule::new(Bound::closed(0.9), Bound::closed(1.1), "acceptable"),
                RangeRule::new(Bound::open(1.1), Bound::pos_inf(), "good"),
            ])
            .build();
        let text = stmt.to_string();
        assert!(text.contains("assess quantity against 1000"));
        assert!(text.contains("using ratio(quantity, 1000)"));
        assert!(text.contains("labels {[0, 0.9): bad, [0.9, 1.1]: acceptable, (1.1, inf]: good}"));
    }

    #[test]
    fn renders_past_and_starred_variants() {
        let stmt = AssessStatement::on("SALES")
            .slice("month", "1997-07")
            .slice("store", "SmartMart")
            .by(["month", "store"])
            .assess("storeSales")
            .starred()
            .against_past(4)
            .labels_named("quartiles")
            .build();
        let text = stmt.to_string();
        assert!(text.contains("assess* storeSales against past 4"));
        assert!(text.contains("labels quartiles"));
        assert!(!text.contains("using"));
    }

    #[test]
    fn renders_in_predicates_and_external() {
        let stmt = AssessStatement::on("SSB")
            .slice_in("month", ["1997-01", "1997-02"])
            .by(["customer", "year"])
            .assess("revenue")
            .against_external("SSB_EXPECTED", "expected_revenue")
            .labels_named("quintiles")
            .build();
        let text = stmt.to_string();
        assert!(text.contains("for month in ('1997-01', '1997-02')"));
        assert!(text.contains("against SSB_EXPECTED.expected_revenue"));
    }

    #[test]
    fn range_rule_containment_respects_bounds() {
        let r = RangeRule::new(Bound::closed(0.0), Bound::open(1.0), "x");
        assert!(r.contains(0.0));
        assert!(r.contains(0.999));
        assert!(!r.contains(1.0));
        assert!(!r.contains(-0.001));
        let inf = RangeRule::new(Bound::open(1.1), Bound::pos_inf(), "y");
        assert!(inf.contains(f64::INFINITY));
        assert!(inf.contains(2.0));
        assert!(!inf.contains(1.1));
    }

    #[test]
    fn omitted_against_renders_without_clause() {
        let stmt = AssessStatement::on("SALES")
            .by(["month"])
            .assess("storeSales")
            .labels_named("quartiles")
            .build();
        assert_eq!(stmt.to_string(), "with SALES\nby month\nassess storeSales\nlabels quartiles");
    }
}
