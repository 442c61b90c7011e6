//! Recursive-descent parser for assess statements.
//!
//! [`parse`] yields the bare AST; [`parse_spanned`] additionally returns a
//! [`StatementSpans`] shadow tree mapping every clause back to its byte
//! range in the source, which the static analyzer uses for caret
//! diagnostics.

use std::fmt;

use assess_core::ast::{
    AssessStatement, BenchmarkSpec, Bound, FuncExpr, FuncSpans, LabelingSpec, PredicateSpans,
    PredicateSpec, RangeRule, StatementSpans,
};
use assess_core::diag::{DiagCode, Diagnostic, Span};

use crate::lexer::{tokenize_spanned, LexError, SpannedToken, Token};

/// A parse error with the offending position (token index), its byte span
/// in the source, and a message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub position: usize,
    pub span: Span,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at token {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

impl ParseError {
    /// The error as the analyzer's `E001` diagnostic, anchored at the
    /// offending token — how every front end (server, REPL, linter) reports
    /// unparsable text.
    pub fn diagnostic(&self) -> Diagnostic {
        Diagnostic::new(DiagCode::E001, self.span, self.message.clone())
    }
}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        // The offset is always a char boundary; an empty span still points
        // the caret at the right column.
        ParseError { position: 0, span: Span::new(e.offset, e.offset), message: e.to_string() }
    }
}

/// A parsed statement plus the byte spans of its clauses.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedStatement {
    pub statement: AssessStatement,
    pub spans: StatementSpans,
}

/// Parses a complete assess statement.
pub fn parse(input: &str) -> Result<AssessStatement, ParseError> {
    Ok(parse_spanned(input)?.statement)
}

/// Parses a complete assess statement, also returning the span shadow tree.
pub fn parse_spanned(input: &str) -> Result<SpannedStatement, ParseError> {
    let tokens = tokenize_spanned(input)?;
    let mut p = Parser { tokens, pos: 0, src_len: input.len() };
    let (statement, spans) = p.statement()?;
    if p.pos != p.tokens.len() {
        let t = p.token_text(p.pos);
        return Err(p.err(format!("trailing input starting with `{t}`")));
    }
    Ok(SpannedStatement { statement, spans })
}

struct Parser {
    tokens: Vec<SpannedToken>,
    pos: usize,
    src_len: usize,
}

impl Parser {
    /// The span of the token at `idx`, or an end-of-input point span.
    fn span_at(&self, idx: usize) -> Span {
        match self.tokens.get(idx) {
            Some(t) => t.span,
            None => Span::new(self.src_len, self.src_len),
        }
    }

    fn token_text(&self, idx: usize) -> String {
        match self.tokens.get(idx) {
            Some(t) => t.token.to_string(),
            None => "end of input".to_string(),
        }
    }

    fn err_at(&self, idx: usize, message: impl Into<String>) -> ParseError {
        ParseError { position: idx, span: self.span_at(idx), message: message.into() }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        self.err_at(self.pos, message)
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|t| &t.token)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|t| t.token.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Consumes a keyword (case-insensitive identifier), returning its span.
    fn keyword(&mut self, kw: &str) -> Result<Span, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw) => Ok(self.span_at(self.pos - 1)),
            Some(t) => {
                Err(self.err_at(self.pos - 1, format!("expected keyword `{kw}`, found `{t}`")))
            }
            None => Err(self.err(format!("expected keyword `{kw}`, found end of input"))),
        }
    }

    /// Whether the next token is the given keyword (without consuming).
    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn ident(&mut self, what: &str) -> Result<(String, Span), ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok((s, self.span_at(self.pos - 1))),
            Some(t) => Err(self.err_at(self.pos - 1, format!("expected {what}, found `{t}`"))),
            None => Err(self.err(format!("expected {what}, found end of input"))),
        }
    }

    fn string(&mut self, what: &str) -> Result<(String, Span), ParseError> {
        match self.next() {
            Some(Token::Str(s)) => Ok((s, self.span_at(self.pos - 1))),
            Some(t) => Err(self
                .err_at(self.pos - 1, format!("expected {what} (a quoted string), found `{t}`"))),
            None => Err(self.err(format!("expected {what}, found end of input"))),
        }
    }

    fn expect(&mut self, token: Token) -> Result<Span, ParseError> {
        match self.next() {
            Some(t) if t == token => Ok(self.span_at(self.pos - 1)),
            Some(t) => Err(self.err_at(self.pos - 1, format!("expected `{token}`, found `{t}`"))),
            None => Err(self.err(format!("expected `{token}`, found end of input"))),
        }
    }

    fn eat(&mut self, token: &Token) -> bool {
        self.eat_span(token).is_some()
    }

    /// Like [`Parser::eat`], but returns the consumed token's span.
    fn eat_span(&mut self, token: &Token) -> Option<Span> {
        if self.peek() == Some(token) {
            self.pos += 1;
            Some(self.span_at(self.pos - 1))
        } else {
            None
        }
    }

    /// A (possibly negated) numeric value; `inf`/`-inf` allowed when
    /// `allow_inf`. The span covers the sign and the literal.
    fn number(&mut self, allow_inf: bool) -> Result<(f64, Span), ParseError> {
        let minus_span = self.eat_span(&Token::Minus);
        let v = match self.next() {
            Some(Token::Number(v)) => v,
            Some(Token::Ident(s)) if allow_inf && s.eq_ignore_ascii_case("inf") => f64::INFINITY,
            Some(t) => {
                return Err(self.err_at(self.pos - 1, format!("expected a number, found `{t}`")))
            }
            None => return Err(self.err("expected a number, found end of input")),
        };
        let mut span = self.span_at(self.pos - 1);
        if let Some(m) = minus_span {
            span = m.join(span);
        }
        Ok((if minus_span.is_some() { -v } else { v }, span))
    }

    fn statement(&mut self) -> Result<(AssessStatement, StatementSpans), ParseError> {
        let with_span = self.keyword("with")?;
        let (cube, cube_span) = self.ident("a cube name")?;

        let mut for_preds = Vec::new();
        let mut for_pred_spans = Vec::new();
        if self.at_keyword("for") {
            self.pos += 1;
            loop {
                let (pred, spans) = self.predicate()?;
                for_preds.push(pred);
                for_pred_spans.push(spans);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }

        self.keyword("by")?;
        let mut by = Vec::new();
        let mut by_spans = Vec::new();
        let (first, first_span) = self.ident("a group-by level")?;
        by.push(first);
        by_spans.push(first_span);
        while self.eat(&Token::Comma) {
            let (level, span) = self.ident("a group-by level")?;
            by.push(level);
            by_spans.push(span);
        }

        self.keyword("assess")?;
        let starred = self.eat(&Token::Star);
        let (measure, measure_span) = self.ident("a measure name")?;

        let mut against = None;
        let mut against_span = None;
        if self.at_keyword("against") {
            self.pos += 1;
            let (benchmark, span) = self.benchmark()?;
            against = Some(benchmark);
            against_span = Some(span);
        }

        let mut using = None;
        let mut using_spans = None;
        if self.at_keyword("using") {
            self.pos += 1;
            let (expr, spans) = self.func_expr()?;
            using = Some(expr);
            using_spans = Some(spans);
        }

        self.keyword("labels")?;
        let (labels, labels_span, label_rules) = self.labeling()?;

        let statement =
            AssessStatement { cube, for_preds, by, measure, starred, against, using, labels };
        let spans = StatementSpans {
            span: with_span.join(labels_span),
            cube: cube_span,
            for_preds: for_pred_spans,
            by: by_spans,
            measure: measure_span,
            against: against_span,
            using: using_spans,
            labels: labels_span,
            label_rules,
        };
        Ok((statement, spans))
    }

    fn predicate(&mut self) -> Result<(PredicateSpec, PredicateSpans), ParseError> {
        let (level, level_span) = self.ident("a level name")?;
        if self.at_keyword("in") {
            self.pos += 1;
            self.expect(Token::LParen)?;
            let mut members = Vec::new();
            let mut member_spans = Vec::new();
            let (first, first_span) = self.string("a member")?;
            members.push(first);
            member_spans.push(first_span);
            while self.eat(&Token::Comma) {
                let (member, span) = self.string("a member")?;
                members.push(member);
                member_spans.push(span);
            }
            let close = self.expect(Token::RParen)?;
            let spans = PredicateSpans {
                span: level_span.join(close),
                level: level_span,
                members: member_spans,
            };
            Ok((PredicateSpec { level, members }, spans))
        } else {
            self.expect(Token::Eq)?;
            let (member, member_span) = self.string("a member")?;
            let spans = PredicateSpans {
                span: level_span.join(member_span),
                level: level_span,
                members: vec![member_span],
            };
            Ok((PredicateSpec::eq(level, member), spans))
        }
    }

    fn benchmark(&mut self) -> Result<(BenchmarkSpec, Span), ParseError> {
        match self.peek() {
            Some(Token::Number(_)) | Some(Token::Minus) => {
                let (v, span) = self.number(false)?;
                Ok((BenchmarkSpec::Constant(v), span))
            }
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("past") => {
                let kw_span = self.span_at(self.pos);
                self.pos += 1;
                let (k, k_span) = self.number(false)?;
                if k < 1.0 || k.fract() != 0.0 {
                    return Err(ParseError {
                        position: self.pos,
                        span: k_span,
                        message: format!("`against past {k}` needs a positive integer"),
                    });
                }
                Ok((BenchmarkSpec::Past(k as u32), kw_span.join(k_span)))
            }
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("ancestor") => {
                let kw_span = self.span_at(self.pos);
                self.pos += 1;
                let (level, level_span) = self.ident("an ancestor level name")?;
                Ok((BenchmarkSpec::Ancestor { level }, kw_span.join(level_span)))
            }
            Some(Token::Ident(_)) => {
                let (name, name_span) = self.ident("a level or cube name")?;
                if self.eat(&Token::Dot) {
                    let (measure, measure_span) = self.ident("a measure name")?;
                    Ok((
                        BenchmarkSpec::External { cube: name, measure },
                        name_span.join(measure_span),
                    ))
                } else {
                    self.expect(Token::Eq)?;
                    let (member, member_span) = self.string("a member")?;
                    Ok((
                        BenchmarkSpec::Sibling { level: name, member },
                        name_span.join(member_span),
                    ))
                }
            }
            Some(t) => Err(self.err(format!("expected a benchmark specification, found `{t}`"))),
            None => Err(self.err("expected a benchmark specification, found end of input")),
        }
    }

    fn func_expr(&mut self) -> Result<(FuncExpr, FuncSpans), ParseError> {
        match self.peek() {
            Some(Token::Number(_)) | Some(Token::Minus) => {
                let (v, span) = self.number(true)?;
                Ok((FuncExpr::Number(v), FuncSpans::leaf(span)))
            }
            Some(Token::Ident(_)) => {
                let (name, name_span) = self.ident("a function or measure name")?;
                if name.eq_ignore_ascii_case("benchmark") && self.eat(&Token::Dot) {
                    let (measure, measure_span) = self.ident("a measure name")?;
                    return Ok((
                        FuncExpr::BenchmarkMeasure(measure),
                        FuncSpans::leaf(name_span.join(measure_span)),
                    ));
                }
                if name.eq_ignore_ascii_case("property") && self.peek() == Some(&Token::LParen) {
                    self.pos += 1;
                    let (level, _) = self.ident("a level name")?;
                    self.expect(Token::Comma)?;
                    let (prop, _) = self.string("a property name")?;
                    let close = self.expect(Token::RParen)?;
                    return Ok((
                        FuncExpr::Property { level, name: prop },
                        FuncSpans::leaf(name_span.join(close)),
                    ));
                }
                if self.eat(&Token::LParen) {
                    let mut args = Vec::new();
                    let mut arg_spans = Vec::new();
                    let (first, first_spans) = self.func_expr()?;
                    args.push(first);
                    arg_spans.push(first_spans);
                    while self.eat(&Token::Comma) {
                        let (arg, spans) = self.func_expr()?;
                        args.push(arg);
                        arg_spans.push(spans);
                    }
                    let close = self.expect(Token::RParen)?;
                    let spans =
                        FuncSpans { span: name_span.join(close), name: name_span, args: arg_spans };
                    Ok((FuncExpr::Call { name, args }, spans))
                } else {
                    Ok((FuncExpr::Measure(name), FuncSpans::leaf(name_span)))
                }
            }
            Some(t) => Err(self.err(format!("expected an expression, found `{t}`"))),
            None => Err(self.err("expected an expression, found end of input")),
        }
    }

    fn labeling(&mut self) -> Result<(LabelingSpec, Span, Vec<Span>), ParseError> {
        if let Some(open) = self.eat_span(&Token::LBrace) {
            let mut rules = Vec::new();
            let mut rule_spans = Vec::new();
            let (first, first_span) = self.range_rule()?;
            rules.push(first);
            rule_spans.push(first_span);
            while self.eat(&Token::Comma) {
                let (rule, span) = self.range_rule()?;
                rules.push(rule);
                rule_spans.push(span);
            }
            let close = self.expect(Token::RBrace)?;
            Ok((LabelingSpec::Ranges(rules), open.join(close), rule_spans))
        } else {
            let (name, span) = self.ident("a labeling name")?;
            Ok((LabelingSpec::Named(name), span, Vec::new()))
        }
    }

    fn range_rule(&mut self) -> Result<(RangeRule, Span), ParseError> {
        let (lo_inclusive, open_span) = if let Some(s) = self.eat_span(&Token::LBracket) {
            (true, s)
        } else if let Some(s) = self.eat_span(&Token::LParen) {
            (false, s)
        } else {
            return Err(self.err("expected `[` or `(` to open a range"));
        };
        let (lo, _) = self.number(true)?;
        self.expect(Token::Comma)?;
        let (hi, _) = self.number(true)?;
        let hi_inclusive = if self.eat(&Token::RBracket) {
            true
        } else if self.eat(&Token::RParen) {
            false
        } else {
            return Err(self.err("expected `]` or `)` to close a range"));
        };
        self.expect(Token::Colon)?;
        let label = match self.next() {
            Some(Token::Ident(s)) => s,
            Some(Token::Str(s)) => s,
            Some(t) => {
                return Err(self.err_at(self.pos - 1, format!("expected a label, found `{t}`")))
            }
            None => return Err(self.err("expected a label, found end of input")),
        };
        let label_span = self.span_at(self.pos - 1);
        let rule = RangeRule {
            lo: Bound { value: lo, inclusive: lo_inclusive },
            hi: Bound { value: hi, inclusive: hi_inclusive },
            label,
        };
        Ok((rule, open_span.join(label_span)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_example_1_1() {
        let stmt = parse(
            "with SALES\n\
             for year = '2019', product = 'milk'\n\
             by year, product\n\
             assess quantity against 1000\n\
             using ratio(quantity, 1000)\n\
             labels {[0, 0.9): bad, [0.9, 1.1]: acceptable, (1.1, inf]: good}",
        )
        .unwrap();
        assert_eq!(stmt.cube, "SALES");
        assert_eq!(stmt.for_preds.len(), 2);
        assert_eq!(stmt.by, vec!["year", "product"]);
        assert_eq!(stmt.measure, "quantity");
        assert!(!stmt.starred);
        assert_eq!(stmt.against, Some(BenchmarkSpec::Constant(1000.0)));
        match &stmt.labels {
            LabelingSpec::Ranges(rules) => {
                assert_eq!(rules.len(), 3);
                assert_eq!(rules[0].label, "bad");
                assert!(!rules[0].hi.inclusive);
                assert_eq!(rules[2].hi.value, f64::INFINITY);
            }
            other => panic!("expected ranges, got {other:?}"),
        }
    }

    #[test]
    fn parses_the_sibling_statement() {
        let stmt = parse(
            "with SALES \
             for type = 'Fresh Fruit', country = 'Italy' \
             by product, country \
             assess quantity against country = 'France' \
             using percOfTotal(difference(quantity, benchmark.quantity)) \
             labels {[-inf, -0.2): bad, [-0.2, 0.2]: ok, (0.2, inf]: good}",
        )
        .unwrap();
        assert_eq!(
            stmt.against,
            Some(BenchmarkSpec::Sibling { level: "country".into(), member: "France".into() })
        );
        match &stmt.using {
            Some(FuncExpr::Call { name, args }) => {
                assert_eq!(name, "percOfTotal");
                match &args[0] {
                    FuncExpr::Call { name, args } => {
                        assert_eq!(name, "difference");
                        assert_eq!(args[1], FuncExpr::BenchmarkMeasure("quantity".into()));
                    }
                    other => panic!("unexpected arg {other:?}"),
                }
            }
            other => panic!("unexpected using {other:?}"),
        }
    }

    #[test]
    fn parses_past_and_starred() {
        let stmt = parse(
            "with SALES for month = '1997-07', store = 'SmartMart' by month, store \
             assess* storeSales against past 4 \
             using ratio(storeSales, benchmark.storeSales) \
             labels {[0, 0.9): worse, [0.9, 1.1]: fine, (1.1, inf]: better}",
        )
        .unwrap();
        assert!(stmt.starred);
        assert_eq!(stmt.against, Some(BenchmarkSpec::Past(4)));
    }

    #[test]
    fn parses_external_and_named_labels() {
        let stmt = parse(
            "with SSB by customer, year assess revenue \
             against SSB_EXPECTED.expected_revenue labels quintiles",
        )
        .unwrap();
        assert_eq!(
            stmt.against,
            Some(BenchmarkSpec::External {
                cube: "SSB_EXPECTED".into(),
                measure: "expected_revenue".into()
            })
        );
        assert_eq!(stmt.labels, LabelingSpec::Named("quintiles".into()));
    }

    #[test]
    fn parses_minimal_statement_and_in_predicates() {
        let stmt = parse(
            "with SALES for month in ('m0', 'm1') by month assess storeSales labels quartiles",
        )
        .unwrap();
        assert_eq!(stmt.against, None);
        assert_eq!(stmt.using, None);
        assert_eq!(stmt.for_preds[0].members, vec!["m0", "m1"]);
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let stmt =
            parse("WITH SALES BY month ASSESS storeSales AGAINST 10 LABELS quartiles").unwrap();
        assert_eq!(stmt.against, Some(BenchmarkSpec::Constant(10.0)));
    }

    #[test]
    fn negative_constants_and_bounds() {
        let stmt = parse(
            "with S by l assess m against -5 using difference(m, -5) \
             labels {[-inf, -1): low, [-1, inf]: high}",
        )
        .unwrap();
        assert_eq!(stmt.against, Some(BenchmarkSpec::Constant(-5.0)));
        match &stmt.using {
            Some(FuncExpr::Call { args, .. }) => assert_eq!(args[1], FuncExpr::Number(-5.0)),
            other => panic!("unexpected using {other:?}"),
        }
    }

    #[test]
    fn quoted_labels_allow_stars() {
        let stmt = parse("with S by l assess m labels {[0, 0.5]: '*', (0.5, 1]: '*****'}").unwrap();
        match &stmt.labels {
            LabelingSpec::Ranges(rules) => assert_eq!(rules[1].label, "*****"),
            other => panic!("unexpected labels {other:?}"),
        }
    }

    #[test]
    fn error_messages_point_at_the_problem() {
        let err = parse("with SALES by month assess").unwrap_err();
        assert!(err.message.contains("measure"));
        let err = parse("with SALES by month assess m against labels q").unwrap_err();
        assert!(err.message.contains("benchmark") || err.message.contains("expected"));
        let err = parse("with SALES by month assess m labels {0, 1]: x}").unwrap_err();
        assert!(err.message.contains('['));
        let err = parse("with SALES by month assess m labels quartiles extra").unwrap_err();
        assert!(err.message.contains("trailing"));
        let err = parse("with SALES by month assess m against past 0 labels q").unwrap_err();
        assert!(err.message.contains("positive integer"));
    }

    #[test]
    fn errors_carry_source_spans() {
        let src = "with SALES by month assess m labels quartiles extra";
        let err = parse(src).unwrap_err();
        assert_eq!(&src[err.span.start..err.span.end], "extra");

        let src = "with SALES by month assess m against past 0 labels q";
        let err = parse(src).unwrap_err();
        assert_eq!(&src[err.span.start..err.span.end], "0");

        // End-of-input errors point just past the source.
        let src = "with SALES by month assess";
        let err = parse(src).unwrap_err();
        assert_eq!(err.span.start, src.len());
    }

    #[test]
    fn spans_cover_every_clause() {
        let src = "with SALES for type = 'Fresh Fruit' by product, country \
                   assess quantity against country = 'France' \
                   using percOfTotal(difference(quantity, benchmark.quantity)) \
                   labels {[-inf, -0.2): bad, [-0.2, inf]: ok}";
        let spanned = parse_spanned(src).unwrap();
        let s = &spanned.spans;
        let slice = |span: Span| &src[span.start..span.end];
        assert_eq!(slice(s.cube), "SALES");
        assert_eq!(slice(s.for_preds[0].level), "type");
        assert_eq!(slice(s.for_preds[0].members[0]), "'Fresh Fruit'");
        assert_eq!(slice(s.by[0]), "product");
        assert_eq!(slice(s.by[1]), "country");
        assert_eq!(slice(s.measure), "quantity");
        assert_eq!(slice(s.against.unwrap()), "country = 'France'");
        let using = s.using.as_ref().unwrap();
        assert_eq!(slice(using.name), "percOfTotal");
        assert_eq!(slice(using.args[0].name), "difference");
        assert_eq!(slice(using.args[0].args[1].span), "benchmark.quantity");
        assert_eq!(slice(s.labels), "{[-inf, -0.2): bad, [-0.2, inf]: ok}");
        assert_eq!(slice(s.label_rules[0]), "[-inf, -0.2): bad");
        assert_eq!(s.span, Span::new(0, src.len()));
        // Re-parsing the bare statement still round-trips.
        assert_eq!(parse(&spanned.statement.to_string()).unwrap(), spanned.statement);
    }

    #[test]
    fn parses_ancestor_and_property_extensions() {
        let stmt = parse(
            "with SSB by c_nation assess revenue against ancestor c_region \
             using ratio(revenue, property(c_nation, 'population')) \
             labels quartiles",
        )
        .unwrap();
        assert_eq!(stmt.against, Some(BenchmarkSpec::Ancestor { level: "c_region".into() }));
        match &stmt.using {
            Some(FuncExpr::Call { args, .. }) => {
                assert_eq!(
                    args[1],
                    FuncExpr::Property { level: "c_nation".into(), name: "population".into() }
                );
            }
            other => panic!("unexpected using {other:?}"),
        }
        // Round-trip.
        assert_eq!(parse(&stmt.to_string()).unwrap(), stmt);
    }

    #[test]
    fn round_trips_through_display() {
        let sources = [
            "with SALES\nby month\nassess storeSales\nlabels quartiles",
            "with SALES\nfor type = 'Fresh Fruit', country = 'Italy'\nby product, country\n\
             assess quantity against country = 'France'\n\
             using percOfTotal(difference(quantity, benchmark.quantity))\n\
             labels {[-inf, -0.2): bad, [-0.2, 0.2]: ok, (0.2, inf]: good}",
            "with SALES\nfor month = '1997-07', store = 'SmartMart'\nby month, store\n\
             assess* storeSales against past 4\n\
             using ratio(storeSales, benchmark.storeSales)\n\
             labels {[0, 0.9): worse, [0.9, 1.1]: fine, (1.1, inf]: better}",
            "with SSB\nby customer, year\nassess revenue against SSB_EXPECTED.expected_revenue\n\
             labels quintiles",
        ];
        for src in sources {
            let stmt = parse(src).unwrap();
            let rendered = stmt.to_string();
            assert_eq!(rendered, src, "statement must render back to its source");
            assert_eq!(parse(&rendered).unwrap(), stmt, "round-trip must be stable");
        }
    }
}
