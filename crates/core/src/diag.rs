//! Diagnostics for the assess statement front end.
//!
//! The static analyzer ([`crate::analyze`]) and the parser report problems
//! as [`Diagnostic`]s: a stable machine-readable code (`E0xx` hard errors,
//! `W1xx` lints), a severity, a byte-offset [`Span`] into the statement
//! source, a human message, and optional notes plus a suggested fix. A
//! [`Sink`] collects every diagnostic of a pass instead of failing on the
//! first, [`render`] draws the rustc-style caret snippet for terminals, and
//! [`Diagnostic::to_json`] is the machine form consumed by
//! `assess-check --format json`.

use std::fmt;

use serde::Value;

use crate::error::AssessError;
use olap_model::ModelError;

/// A half-open byte range `[start, end)` into the statement source.
///
/// Spans are a *side table*: AST nodes stay span-free (so structural
/// equality and the render→parse round-trip are untouched) and the parser
/// returns a parallel span tree pointing back into the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    pub start: usize,
    pub end: usize,
}

impl Span {
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end: end.max(start) }
    }

    /// The `0..0` span used when no source location is known (e.g. a
    /// statement built programmatically rather than parsed).
    pub fn dummy() -> Self {
        Span { start: 0, end: 0 }
    }

    pub fn is_dummy(&self) -> bool {
        self.start == 0 && self.end == 0
    }

    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The smallest span covering both operands. A dummy operand is
    /// ignored so joins over partially-located trees stay tight.
    pub fn join(self, other: Span) -> Span {
        if self.is_dummy() {
            return other;
        }
        if other.is_dummy() {
            return self;
        }
        Span { start: self.start.min(other.start), end: self.end.max(other.end) }
    }

    /// Shifts the span right by `offset` bytes (used when a statement is
    /// embedded in a larger file).
    pub fn offset(self, offset: usize) -> Span {
        if self.is_dummy() {
            self
        } else {
            Span { start: self.start + offset, end: self.end + offset }
        }
    }

    pub fn contains(&self, offset: usize) -> bool {
        offset >= self.start && offset < self.end
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// Diagnostic severity. Errors make a statement unrunnable; warnings flag
/// statements that will run but are probably not what the analyst meant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    Warning,
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// Stable diagnostic codes. `E0xx` are hard errors (the statement cannot
/// execute), `W1xx` are lints (the statement executes but is suspicious).
///
/// Codes are append-only: renumbering would break scripts that grep
/// `assess-check` output, so retired codes are never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DiagCode {
    /// Statement does not lex/parse.
    E001,
    /// `with` names an unknown cube.
    E002,
    /// A clause names an unknown level.
    E003,
    /// A clause names an unknown measure.
    E004,
    /// A predicate names an unknown member of a known level.
    E005,
    /// `using` calls an unknown function.
    E006,
    /// `using` calls a known function with the wrong number of arguments.
    E007,
    /// `labels` names an unknown labeling function.
    E008,
    /// `labels {}` has no rules (or a named labeling resolved to none).
    E009,
    /// A labeling range is empty (inverted or zero-width exclusive bounds).
    E010,
    /// Two labeling ranges overlap.
    E011,
    /// The `against` clause is structurally invalid for this statement.
    E012,
    /// A sibling benchmark selects the target's own slice.
    E013,
    /// `against past k` asks for more history than the cube holds.
    E014,
    /// `using` references `benchmark.m` but the benchmark carries another
    /// measure.
    E015,
    /// The `by` clause is empty or names two levels of one hierarchy.
    E016,
    /// Any other statement-level inconsistency.
    E017,
    /// Self-contradictory predicates: the conjunction selects no member of
    /// some level, so the target cube is provably empty.
    E018,
    /// The labeling ranges leave gaps: some delta values get no label.
    W101,
    /// The benchmark is fetched but `using` never references it.
    W102,
    /// `ratio`/`percentage`/`normDifference` against a constant-zero
    /// benchmark divides by zero everywhere.
    W103,
    /// `past k` history exists but is borderline (exactly k, or k = 1).
    W104,
    /// Only the naive strategy is feasible and the target is large.
    W105,
    /// A pivot-optimized plan would build a very wide pivot.
    W106,
    /// Two statements of a workload share a fingerprint-equal subplan.
    W107,
    /// A statement's `get` target is statically subsumed by another
    /// statement's target (containment per the cube algebra).
    W108,
    /// One statement dominates the workload's estimated execution cost.
    W109,
}

impl DiagCode {
    /// Every code, in catalog order (used by docs and the golden tests).
    pub const ALL: [DiagCode; 27] = [
        DiagCode::E001,
        DiagCode::E002,
        DiagCode::E003,
        DiagCode::E004,
        DiagCode::E005,
        DiagCode::E006,
        DiagCode::E007,
        DiagCode::E008,
        DiagCode::E009,
        DiagCode::E010,
        DiagCode::E011,
        DiagCode::E012,
        DiagCode::E013,
        DiagCode::E014,
        DiagCode::E015,
        DiagCode::E016,
        DiagCode::E017,
        DiagCode::E018,
        DiagCode::W101,
        DiagCode::W102,
        DiagCode::W103,
        DiagCode::W104,
        DiagCode::W105,
        DiagCode::W106,
        DiagCode::W107,
        DiagCode::W108,
        DiagCode::W109,
    ];

    pub fn as_str(&self) -> &'static str {
        match self {
            DiagCode::E001 => "E001",
            DiagCode::E002 => "E002",
            DiagCode::E003 => "E003",
            DiagCode::E004 => "E004",
            DiagCode::E005 => "E005",
            DiagCode::E006 => "E006",
            DiagCode::E007 => "E007",
            DiagCode::E008 => "E008",
            DiagCode::E009 => "E009",
            DiagCode::E010 => "E010",
            DiagCode::E011 => "E011",
            DiagCode::E012 => "E012",
            DiagCode::E013 => "E013",
            DiagCode::E014 => "E014",
            DiagCode::E015 => "E015",
            DiagCode::E016 => "E016",
            DiagCode::E017 => "E017",
            DiagCode::E018 => "E018",
            DiagCode::W101 => "W101",
            DiagCode::W102 => "W102",
            DiagCode::W103 => "W103",
            DiagCode::W104 => "W104",
            DiagCode::W105 => "W105",
            DiagCode::W106 => "W106",
            DiagCode::W107 => "W107",
            DiagCode::W108 => "W108",
            DiagCode::W109 => "W109",
        }
    }

    pub fn severity(&self) -> Severity {
        match self {
            DiagCode::W101
            | DiagCode::W102
            | DiagCode::W103
            | DiagCode::W104
            | DiagCode::W105
            | DiagCode::W106
            | DiagCode::W107
            | DiagCode::W108
            | DiagCode::W109 => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One analyzer finding: a coded, located, explained problem.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    pub code: DiagCode,
    pub severity: Severity,
    pub span: Span,
    pub message: String,
    pub notes: Vec<String>,
    pub suggestion: Option<String>,
}

impl Diagnostic {
    pub fn new(code: DiagCode, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            span,
            message: message.into(),
            notes: Vec::new(),
            suggestion: None,
        }
    }

    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    pub fn with_suggestion(mut self, suggestion: impl Into<String>) -> Self {
        self.suggestion = Some(suggestion.into());
        self
    }

    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }

    /// Maps a fail-fast [`AssessError`] onto the diagnostic catalog. The
    /// stringly-typed variants (`InvalidLabeling`, `InvalidBenchmark`,
    /// `Statement`) are classified by their message shape; anything
    /// unrecognized lands on the catch-all `E017`.
    pub fn from_error(error: &AssessError, span: Span) -> Self {
        let message = error.to_string();
        let code = match error {
            AssessError::UnknownCube(_) => DiagCode::E002,
            AssessError::UnknownFunction(_) => DiagCode::E006,
            AssessError::Arity { .. } => DiagCode::E007,
            AssessError::UnknownLabeling(_) => DiagCode::E008,
            AssessError::InvalidLabeling(msg) => {
                if msg.contains("overlap") {
                    DiagCode::E011
                } else if msg.contains("empty") || msg.contains("no rules") {
                    DiagCode::E010
                } else {
                    DiagCode::E009
                }
            }
            AssessError::InvalidBenchmark(msg) => {
                if msg.contains("own slice") {
                    DiagCode::E013
                } else {
                    DiagCode::E012
                }
            }
            AssessError::InsufficientHistory { .. } => DiagCode::E014,
            AssessError::Statement(msg) => {
                if msg.contains("but the benchmark measure is") {
                    DiagCode::E015
                } else if msg.contains("by clause is empty") {
                    DiagCode::E016
                } else {
                    DiagCode::E017
                }
            }
            AssessError::Model(model) => match model {
                ModelError::UnknownLevel { .. } | ModelError::UnknownHierarchy { .. } => {
                    DiagCode::E003
                }
                ModelError::UnknownMeasure { .. } => DiagCode::E004,
                ModelError::UnknownMember { .. } => DiagCode::E005,
                ModelError::Invariant(msg) if msg.contains("group-by") => DiagCode::E016,
                _ => DiagCode::E017,
            },
            _ => DiagCode::E017,
        };
        Diagnostic::new(code, span, message)
    }

    /// The machine-readable form: an object with the code, severity, byte
    /// span, 1-based line/column (when `source` is given), message, notes
    /// and suggestion.
    pub fn to_json(&self, source: Option<&str>) -> Value {
        let mut fields = vec![
            ("code".to_string(), Value::String(self.code.as_str().to_string())),
            ("severity".to_string(), Value::String(self.severity.to_string())),
            ("message".to_string(), Value::String(self.message.clone())),
            ("start".to_string(), Value::Number(self.span.start as f64)),
            ("end".to_string(), Value::Number(self.span.end as f64)),
        ];
        if let Some(src) = source {
            if !self.span.is_dummy() {
                let (line, column) = line_col(src, self.span.start);
                fields.push(("line".to_string(), Value::Number(line as f64)));
                fields.push(("column".to_string(), Value::Number(column as f64)));
            }
        }
        fields.push((
            "notes".to_string(),
            Value::Array(self.notes.iter().map(|n| Value::String(n.clone())).collect()),
        ));
        fields.push((
            "suggestion".to_string(),
            match &self.suggestion {
                Some(s) => Value::String(s.clone()),
                None => Value::Null,
            },
        ));
        Value::Object(fields)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)
    }
}

/// Collects every diagnostic of an analysis pass (collect-mode, not
/// fail-fast). `finish` returns them sorted by source position.
#[derive(Debug, Default)]
pub struct Sink {
    diags: Vec<Diagnostic>,
}

impl Sink {
    pub fn new() -> Self {
        Sink::default()
    }

    pub fn push(&mut self, diag: Diagnostic) {
        self.diags.push(diag);
    }

    pub fn extend(&mut self, diags: impl IntoIterator<Item = Diagnostic>) {
        self.diags.extend(diags);
    }

    pub fn has_errors(&self) -> bool {
        self.diags.iter().any(Diagnostic::is_error)
    }

    pub fn is_empty(&self) -> bool {
        self.diags.is_empty()
    }

    pub fn len(&self) -> usize {
        self.diags.len()
    }

    /// `(errors, warnings)` counts.
    pub fn counts(&self) -> (usize, usize) {
        let errors = self.diags.iter().filter(|d| d.is_error()).count();
        (errors, self.diags.len() - errors)
    }

    /// Sorted by span start, then code — so diagnostics read in source
    /// order and duplicates at one location are deterministic.
    pub fn finish(mut self) -> Vec<Diagnostic> {
        self.diags.sort_by(|a, b| {
            (a.span.start, a.span.end, a.code).cmp(&(b.span.start, b.span.end, b.code))
        });
        self.diags
    }
}

/// Clamps `offset` down to the nearest char boundary (spans from the parser
/// are always on boundaries, but diagnostics may carry arbitrary offsets
/// and rendering must never panic).
fn floor_char_boundary(source: &str, offset: usize) -> usize {
    let mut i = offset.min(source.len());
    while i > 0 && !source.is_char_boundary(i) {
        i -= 1;
    }
    i
}

/// 1-based `(line, column)` of a byte offset; the column counts characters.
pub fn line_col(source: &str, offset: usize) -> (usize, usize) {
    let offset = floor_char_boundary(source, offset);
    let before = &source[..offset];
    let line = before.bytes().filter(|&b| b == b'\n').count() + 1;
    let line_start = before.rfind('\n').map(|i| i + 1).unwrap_or(0);
    let column = before[line_start..].chars().count() + 1;
    (line, column)
}

/// Renders one diagnostic rustc-style: a `severity[code]: message` header,
/// the source line with a caret underline (when `source` is available and
/// the span is real), then `= note:` / `= help:` trailers.
pub fn render(diag: &Diagnostic, source: Option<&str>) -> String {
    let mut out = format!("{}[{}]: {}\n", diag.severity, diag.code, diag.message);
    if let Some(src) = source {
        if !diag.span.is_dummy() && diag.span.start <= src.len() {
            let span_start = floor_char_boundary(src, diag.span.start);
            let (line, column) = line_col(src, span_start);
            let line_start = src[..span_start].rfind('\n').map(|i| i + 1).unwrap_or(0);
            let line_end =
                src[line_start..].find('\n').map(|i| line_start + i).unwrap_or(src.len());
            let line_text = &src[line_start..line_end];
            let gutter = line.to_string();
            let pad = " ".repeat(gutter.len());
            out.push_str(&format!("{pad}--> {line}:{column}\n"));
            out.push_str(&format!("{pad} |\n"));
            out.push_str(&format!("{gutter} | {line_text}\n"));
            // Underline the span, clipped to this line; always >= 1 caret.
            let span_end = diag.span.end.clamp(span_start, line_end);
            let lead =
                line_text.char_indices().take_while(|(i, _)| line_start + i < span_start).count();
            let carets = line_text
                .char_indices()
                .filter(|(i, _)| line_start + i >= span_start && line_start + i < span_end)
                .count()
                .max(1);
            out.push_str(&format!("{pad} | {}{}\n", " ".repeat(lead), "^".repeat(carets)));
        }
    }
    for note in &diag.notes {
        out.push_str(&format!("  = note: {note}\n"));
    }
    if let Some(s) = &diag.suggestion {
        out.push_str(&format!("  = help: {s}\n"));
    }
    out
}

/// Renders a batch of diagnostics separated by blank lines, followed by a
/// one-line summary when anything was reported.
pub fn render_all(diags: &[Diagnostic], source: Option<&str>) -> String {
    let mut out = String::new();
    for diag in diags {
        out.push_str(&render(diag, source));
        out.push('\n');
    }
    let errors = diags.iter().filter(|d| d.is_error()).count();
    let warnings = diags.len() - errors;
    if !diags.is_empty() {
        out.push_str(&summary_line(errors, warnings));
        out.push('\n');
    }
    out
}

/// `"2 errors, 1 warning"`-style summary.
pub fn summary_line(errors: usize, warnings: usize) -> String {
    let plural = |n: usize, word: &str| {
        if n == 1 {
            format!("1 {word}")
        } else {
            format!("{n} {word}s")
        }
    };
    match (errors, warnings) {
        (0, 0) => "no diagnostics".to_string(),
        (e, 0) => plural(e, "error"),
        (0, w) => plural(w, "warning"),
        (e, w) => format!("{}, {}", plural(e, "error"), plural(w, "warning")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_join_ignores_dummies() {
        let a = Span::new(4, 9);
        assert_eq!(a.join(Span::dummy()), a);
        assert_eq!(Span::dummy().join(a), a);
        assert_eq!(a.join(Span::new(1, 6)), Span::new(1, 9));
    }

    #[test]
    fn codes_severity_split() {
        for code in DiagCode::ALL {
            let s = code.as_str();
            match code.severity() {
                Severity::Error => assert!(s.starts_with('E'), "{s}"),
                Severity::Warning => assert!(s.starts_with('W'), "{s}"),
            }
        }
    }

    #[test]
    fn line_col_is_one_based_and_char_counted() {
        let src = "abc\ndéf ghi";
        assert_eq!(line_col(src, 0), (1, 1));
        assert_eq!(line_col(src, 4), (2, 1));
        // 'é' is two bytes; byte 8 is the space after "déf" => column 4,
        // and byte 9 is the 'g' at (char) column 5.
        assert_eq!(line_col(src, 8), (2, 4));
        assert_eq!(line_col(src, 9), (2, 5));
    }

    #[test]
    fn render_draws_carets_under_the_span() {
        let src = "with SALES by month assess nope labels quartiles";
        let d = Diagnostic::new(DiagCode::E004, Span::new(27, 31), "unknown measure `nope`")
            .with_suggestion("did you mean `storeSales`?");
        let text = render(&d, Some(src));
        assert!(text.contains("error[E004]: unknown measure `nope`"));
        assert!(text.contains("--> 1:28"));
        assert!(text.contains("^^^^"));
        assert!(text.contains("= help: did you mean `storeSales`?"));
    }

    #[test]
    fn render_skips_snippet_for_dummy_spans() {
        let d = Diagnostic::new(DiagCode::E002, Span::dummy(), "unknown cube `X`");
        let text = render(&d, Some("with X by l assess m labels quartiles"));
        assert!(!text.contains("-->"));
    }

    #[test]
    fn sink_counts_and_sorts() {
        let mut sink = Sink::new();
        sink.push(Diagnostic::new(DiagCode::W101, Span::new(9, 12), "gap"));
        sink.push(Diagnostic::new(DiagCode::E004, Span::new(2, 5), "bad"));
        assert!(sink.has_errors());
        assert_eq!(sink.counts(), (1, 1));
        let out = sink.finish();
        assert_eq!(out[0].code, DiagCode::E004);
        assert_eq!(out[1].code, DiagCode::W101);
    }

    #[test]
    fn json_shape_is_stable() {
        let src = "with SALES by month assess nope labels quartiles";
        let d = Diagnostic::new(DiagCode::E004, Span::new(27, 31), "unknown measure")
            .with_note("measures: storeSales");
        let v = d.to_json(Some(src));
        assert_eq!(v["code"], "E004");
        assert_eq!(v["severity"], "error");
        assert_eq!(v["start"], 27.0);
        assert_eq!(v["line"], 1.0);
        assert_eq!(v["column"], 28.0);
        assert_eq!(v["notes"][0], "measures: storeSales");
        assert!(v["suggestion"].is_null());
    }

    #[test]
    fn summary_line_pluralizes() {
        assert_eq!(summary_line(1, 0), "1 error");
        assert_eq!(summary_line(2, 1), "2 errors, 1 warning");
        assert_eq!(summary_line(0, 0), "no diagnostics");
    }
}
