//! Workload-level static plan analysis: canonical subplan fingerprints and
//! the sharing / subsumption / cost-dominance lints behind
//! `assess-check --workload` and the serve `batch` op.
//!
//! A single statement is analyzed by [`crate::analyze::Analyzer`]; real
//! dashboards fire *sets* of assess statements that often share the same
//! `get[q]` target or benchmark cube. This module reasons over that set:
//!
//! * [`canonicalize`] rewrites a logical plan into a canonical form —
//!   predicates sorted by (hierarchy, level), single-member `in` desugared
//!   to `=`, `in` member sets sorted, inner natural-join children ordered
//!   by fingerprint — and [`fingerprint`] hashes that form into a stable
//!   64-bit structural [`Fingerprint`] per subplan node.
//! * [`WorkloadAnalyzer`] takes N parsed statements and emits a
//!   [`SharingReport`]: fingerprint-equal subplans across statements
//!   (`W107`), statically subsumed get targets per the cube-algebra
//!   containment order (`W108`), and cost-dominant statements (`W109`).
//! * [`standalone_gets`] lists the scans a physical plan runs as plain
//!   engine `get`s — the unit the serve `batch` op deduplicates so a
//!   fingerprint-equal scan executes once and fans out to every consumer.
//!
//! **Stability contract.** Fingerprints are pure functions of the canonical
//! plan structure: the same statement yields the same fingerprint in every
//! process, on every thread count, in every session of the same release.
//! They are *not* stable across releases (the encoding may evolve), and
//! they never leave the fingerprint domain: executed plans are not
//! canonicalized, because `in` predicate order is semantically meaningful
//! for past benchmarks (temporal slice order). Canonicalization always
//! works on a copy.
//!
//! **Sharing soundness.** Only `get` nodes are ever *executed* once and
//! fanned out; for those, every normalization is provably output-neutral
//! (predicate conjunction is commutative, `in` matching has set semantics,
//! `in [m]` ≡ `= m`), so fingerprint-equal gets return byte-identical
//! cubes. Composite-node fingerprints (joins, transforms, labelings) are
//! structural-sharing *hints* for the lints and the matrix.

use std::collections::HashMap;
use std::fmt;

use olap_model::{CubeQuery, Predicate, PredicateOp};
use serde::Value;

use crate::ast::{AssessStatement, StatementSpans};
use crate::cost;
use crate::diag::{DiagCode, Diagnostic, Sink, Span};
use crate::logical::LogicalOp;
use crate::semantics::{ResolvedAssess, SchemaProvider};

/// A stable 64-bit structural fingerprint of a canonical subplan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// FNV-1a, 64-bit — dependency-free, deterministic across processes and
/// platforms (no per-process seed, unlike `DefaultHasher`).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Length-prefixed so `("ab","c")` and `("a","bc")` hash differently.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn finish(self) -> u64 {
        self.0
    }
}

// ---------------------------------------------------------- canonical form

/// Canonical form of a cube query, for fingerprinting only: predicates
/// sorted by (hierarchy, level, members), single-member `in` desugared to
/// `=`, and `in` member lists sorted and deduplicated (selection has set
/// semantics, so none of this changes what a `get` returns). Group-by and
/// measure order are preserved — they determine output column order.
pub fn canonical_query(query: &CubeQuery) -> CubeQuery {
    let mut predicates: Vec<Predicate> = query
        .predicates
        .iter()
        .map(|p| {
            let op = match &p.op {
                PredicateOp::In(ms) if ms.len() == 1 => match ms.first() {
                    Some(m) => PredicateOp::Eq(*m),
                    None => PredicateOp::In(ms.clone()),
                },
                PredicateOp::In(ms) => {
                    let mut ms = ms.clone();
                    ms.sort_by_key(|m| m.0);
                    ms.dedup();
                    PredicateOp::In(ms)
                }
                PredicateOp::Eq(m) => PredicateOp::Eq(*m),
            };
            Predicate { hierarchy: p.hierarchy, level: p.level, op }
        })
        .collect();
    predicates.sort_by(|a, b| {
        (a.hierarchy, a.level, a.members()).cmp(&(b.hierarchy, b.level, b.members()))
    });
    CubeQuery::new(&query.cube, query.group_by.clone(), predicates, query.measures.clone())
}

/// Canonical form of a whole plan — every `get` query canonicalized and
/// inner natural-join children ordered by fingerprint (commutative-join
/// normalization). The result lives in the fingerprint domain only and is
/// never executed: see the module docs for why.
pub fn canonicalize(op: &LogicalOp) -> LogicalOp {
    match op {
        LogicalOp::Get { query, alias } => {
            LogicalOp::Get { query: canonical_query(query), alias: alias.clone() }
        }
        LogicalOp::NaturalJoin { left, right, kind, measure, rename } => {
            let mut left = Box::new(canonicalize(left));
            let mut right = Box::new(canonicalize(right));
            // ⋈ is commutative; order the operands of an inner join
            // canonically so `A ⋈ B` and `B ⋈ A` share a fingerprint.
            if *kind == olap_engine::JoinKind::Inner && fingerprint(&left).0 > fingerprint(&right).0
            {
                std::mem::swap(&mut left, &mut right);
            }
            LogicalOp::NaturalJoin {
                left,
                right,
                kind: *kind,
                measure: measure.clone(),
                rename: rename.clone(),
            }
        }
        LogicalOp::RollupJoin {
            left,
            right,
            kind,
            hierarchy,
            fine_level,
            coarse_level,
            measure,
            rename,
        } => LogicalOp::RollupJoin {
            left: Box::new(canonicalize(left)),
            right: Box::new(canonicalize(right)),
            kind: *kind,
            hierarchy: *hierarchy,
            fine_level: *fine_level,
            coarse_level: *coarse_level,
            measure: measure.clone(),
            rename: rename.clone(),
        },
        LogicalOp::SlicedJoin { left, right, kind, hierarchy, members, measure, names } => {
            // Slice member order names the output columns; keep it.
            LogicalOp::SlicedJoin {
                left: Box::new(canonicalize(left)),
                right: Box::new(canonicalize(right)),
                kind: *kind,
                hierarchy: *hierarchy,
                members: members.clone(),
                measure: measure.clone(),
                names: names.clone(),
            }
        }
        LogicalOp::Pivot { input, hierarchy, reference, neighbors, measure, names } => {
            LogicalOp::Pivot {
                input: Box::new(canonicalize(input)),
                hierarchy: *hierarchy,
                reference: *reference,
                neighbors: neighbors.clone(),
                measure: measure.clone(),
                names: names.clone(),
            }
        }
        LogicalOp::Transform { input, step } => {
            LogicalOp::Transform { input: Box::new(canonicalize(input)), step: step.clone() }
        }
        LogicalOp::Regression { input, history, output } => LogicalOp::Regression {
            input: Box::new(canonicalize(input)),
            history: history.clone(),
            output: output.clone(),
        },
        LogicalOp::ConstColumn { input, name, value } => LogicalOp::ConstColumn {
            input: Box::new(canonicalize(input)),
            name: name.clone(),
            value: *value,
        },
        LogicalOp::Label { input, labeling, input_column } => LogicalOp::Label {
            input: Box::new(canonicalize(input)),
            labeling: labeling.clone(),
            input_column: input_column.clone(),
        },
    }
}

// ------------------------------------------------------------ fingerprints

/// The structural fingerprint of a subplan (computed over its canonical
/// form; the input itself is left untouched).
pub fn fingerprint(op: &LogicalOp) -> Fingerprint {
    let mut h = Fnv::new();
    encode(op, &mut h);
    Fingerprint(h.finish())
}

/// Fingerprint of a bare cube query — what a `get[q]` node hashes to,
/// independent of its alias (the alias marks the benchmark *role*, not the
/// bytes the scan returns).
pub fn fingerprint_query(query: &CubeQuery) -> Fingerprint {
    let mut h = Fnv::new();
    encode_query(query, &mut h);
    Fingerprint(h.finish())
}

fn encode_query(query: &CubeQuery, h: &mut Fnv) {
    let q = canonical_query(query);
    h.bytes(&[0x01]);
    h.str(&q.cube);
    let slots = q.group_by.slots();
    h.u64(slots.len() as u64);
    for slot in slots {
        h.u64(slot.map(|l| l as u64 + 1).unwrap_or(0));
    }
    h.u64(q.predicates.len() as u64);
    for p in &q.predicates {
        h.u64(p.hierarchy as u64);
        h.u64(p.level as u64);
        match &p.op {
            PredicateOp::Eq(m) => {
                h.bytes(&[0x10]);
                h.u64(u64::from(m.0));
            }
            PredicateOp::In(ms) => {
                h.bytes(&[0x11]);
                h.u64(ms.len() as u64);
                for m in ms {
                    h.u64(u64::from(m.0));
                }
            }
        }
    }
    h.u64(q.measures.len() as u64);
    for m in &q.measures {
        h.str(m);
    }
}

fn encode(op: &LogicalOp, h: &mut Fnv) {
    match op {
        LogicalOp::Get { query, .. } => encode_query(query, h),
        LogicalOp::NaturalJoin { left, right, kind, measure, rename } => {
            h.bytes(&[0x02]);
            h.str(&format!("{kind:?}"));
            h.str(measure);
            h.str(rename);
            // Commutative normalization: inner-join operand fingerprints
            // are combined in sorted order.
            let (mut fl, mut fr) = (fingerprint(left).0, fingerprint(right).0);
            if *kind == olap_engine::JoinKind::Inner && fl > fr {
                std::mem::swap(&mut fl, &mut fr);
            }
            h.u64(fl);
            h.u64(fr);
        }
        LogicalOp::RollupJoin {
            left,
            right,
            kind,
            hierarchy,
            fine_level,
            coarse_level,
            measure,
            rename,
        } => {
            h.bytes(&[0x03]);
            h.str(&format!("{kind:?}"));
            h.u64(*hierarchy as u64);
            h.u64(*fine_level as u64);
            h.u64(*coarse_level as u64);
            h.str(measure);
            h.str(rename);
            encode(left, h);
            encode(right, h);
        }
        LogicalOp::SlicedJoin { left, right, kind, hierarchy, members, measure, names } => {
            h.bytes(&[0x04]);
            h.str(&format!("{kind:?}"));
            h.u64(*hierarchy as u64);
            h.u64(members.len() as u64);
            for m in members {
                h.u64(u64::from(m.0));
            }
            h.str(measure);
            for n in names {
                h.str(n);
            }
            encode(left, h);
            encode(right, h);
        }
        LogicalOp::Pivot { input, hierarchy, reference, neighbors, measure, names } => {
            h.bytes(&[0x05]);
            h.u64(*hierarchy as u64);
            h.u64(u64::from(reference.0));
            h.u64(neighbors.len() as u64);
            for m in neighbors {
                h.u64(u64::from(m.0));
            }
            h.str(measure);
            for n in names {
                h.str(n);
            }
            encode(input, h);
        }
        LogicalOp::Transform { input, step } => {
            h.bytes(&[0x06]);
            // TransformStep is a small closed struct; its derived Debug
            // form is a deterministic structural encoding.
            h.str(&format!("{step:?}"));
            encode(input, h);
        }
        LogicalOp::Regression { input, history, output } => {
            h.bytes(&[0x07]);
            h.u64(history.len() as u64);
            for s in history {
                h.str(s);
            }
            h.str(output);
            encode(input, h);
        }
        LogicalOp::ConstColumn { input, name, value } => {
            h.bytes(&[0x08]);
            h.str(name);
            h.u64(value.to_bits());
            encode(input, h);
        }
        LogicalOp::Label { input, labeling, input_column } => {
            h.bytes(&[0x09]);
            h.str(&format!("{labeling:?}"));
            h.str(input_column);
            encode(input, h);
        }
    }
}

/// One subplan node with its fingerprint, in pre-order.
#[derive(Debug, Clone)]
pub struct SubplanFingerprint {
    /// Depth in the plan tree (0 = root).
    pub depth: usize,
    /// The node's one-line description ([`LogicalOp::describe`]).
    pub describe: String,
    pub fingerprint: Fingerprint,
    /// Whether the node is a `get` leaf (the shareable scan unit).
    pub is_get: bool,
}

/// Every subplan of `op` in pre-order with its structural fingerprint —
/// what `explain` prints and the workload lints compare.
pub fn subplan_fingerprints(op: &LogicalOp) -> Vec<SubplanFingerprint> {
    let mut out = Vec::new();
    collect_fingerprints(op, 0, &mut out);
    out
}

fn collect_fingerprints(op: &LogicalOp, depth: usize, out: &mut Vec<SubplanFingerprint>) {
    out.push(SubplanFingerprint {
        depth,
        describe: op.describe(),
        fingerprint: fingerprint(op),
        is_get: matches!(op, LogicalOp::Get { .. }),
    });
    for child in op.children() {
        collect_fingerprints(child, depth + 1, out);
    }
}

/// The `get` leaves the executor runs as standalone engine scans under the
/// plan's fusion setting (`fuse` = the strategy is not naive). Gets fused
/// into engine-side join/pivot calls are excluded: the engine executes
/// those as one fused scan, so there is no standalone result to share.
pub fn standalone_gets(root: &LogicalOp, fuse: bool) -> Vec<&CubeQuery> {
    let mut out = Vec::new();
    collect_standalone(root, fuse, &mut out);
    out
}

fn collect_standalone<'p>(op: &'p LogicalOp, fuse: bool, out: &mut Vec<&'p CubeQuery>) {
    match op {
        LogicalOp::Get { query, .. } => out.push(query),
        fused if fuse && fused.fusable_gets().is_some() => {}
        other => {
            for child in other.children() {
                collect_standalone(child, fuse, out);
            }
        }
    }
}

// ------------------------------------------------------- workload analysis

/// W109 fires when one statement's estimated cost exceeds this share of
/// the whole workload's.
const W109_DOMINANCE_SHARE: f64 = 0.5;

/// W109 needs at least this many statements: in a two-statement workload
/// one side exceeds half the cost almost by definition, so "dominant"
/// only carries information from three statements up.
const W109_MIN_STATEMENTS: usize = 3;

/// One statement of a workload, as handed to [`WorkloadAnalyzer`].
pub struct WorkloadStatement {
    /// The statement source text (one statement, already split).
    pub text: String,
    pub statement: AssessStatement,
    /// Spans from `parse_spanned`, when the statement came from source.
    pub spans: Option<StatementSpans>,
    /// Byte offset of the statement inside the workload file, so
    /// diagnostics point into the whole file.
    pub offset: usize,
}

/// Per-statement entry of a [`SharingReport`].
#[derive(Debug, Clone)]
pub struct WorkloadEntry {
    /// 0-based statement index (messages use 1-based `#k`).
    pub index: usize,
    /// Fingerprint of the whole naive plan (`None` if resolution failed).
    pub root: Option<Fingerprint>,
    /// Fingerprint of the target `get[q]`.
    pub target: Option<Fingerprint>,
    /// Cheapest feasible estimated total cost (needs an engine).
    pub cost: Option<f64>,
    /// Resolution error, when the statement could not be analyzed.
    pub error: Option<String>,
}

/// A subplan shared by two or more statements.
#[derive(Debug, Clone)]
pub struct ShareGroup {
    pub fingerprint: Fingerprint,
    pub describe: String,
    /// 0-based indices of the statements containing the subplan, ascending.
    pub statements: Vec<usize>,
    /// Whether the shared node is a `get` (batch execution can share it).
    pub is_get: bool,
}

/// What [`WorkloadAnalyzer::analyze`] returns: the sharing structure plus
/// the workload-level diagnostics (`W107`–`W109`).
#[derive(Debug, Clone, Default)]
pub struct SharingReport {
    pub entries: Vec<WorkloadEntry>,
    pub groups: Vec<ShareGroup>,
    /// `matrix[i][j]` = number of distinct subplan fingerprints statements
    /// `i` and `j` share (diagonal = 0 by convention).
    pub matrix: Vec<Vec<usize>>,
    pub diagnostics: Vec<Diagnostic>,
}

impl SharingReport {
    /// The machine form behind `assess-check --workload --format json`.
    pub fn to_json(&self) -> Value {
        let entries: Vec<Value> = self
            .entries
            .iter()
            .map(|e| {
                let mut fields = vec![
                    ("index".to_string(), Value::Number(e.index as f64)),
                    (
                        "root".to_string(),
                        e.root.map(|f| Value::String(f.to_string())).unwrap_or(Value::Null),
                    ),
                    (
                        "target".to_string(),
                        e.target.map(|f| Value::String(f.to_string())).unwrap_or(Value::Null),
                    ),
                    ("cost".to_string(), e.cost.map(Value::Number).unwrap_or(Value::Null)),
                ];
                if let Some(err) = &e.error {
                    fields.push(("error".to_string(), Value::String(err.clone())));
                }
                Value::Object(fields)
            })
            .collect();
        let groups: Vec<Value> = self
            .groups
            .iter()
            .map(|g| {
                Value::Object(vec![
                    ("fingerprint".to_string(), Value::String(g.fingerprint.to_string())),
                    ("subplan".to_string(), Value::String(g.describe.clone())),
                    (
                        "statements".to_string(),
                        Value::Array(
                            g.statements.iter().map(|&i| Value::Number(i as f64)).collect(),
                        ),
                    ),
                    ("shareable_scan".to_string(), Value::Bool(g.is_get)),
                ])
            })
            .collect();
        let matrix: Vec<Value> = self
            .matrix
            .iter()
            .map(|row| Value::Array(row.iter().map(|&n| Value::Number(n as f64)).collect()))
            .collect();
        Value::Object(vec![
            ("statements".to_string(), Value::Array(entries)),
            ("shared".to_string(), Value::Array(groups)),
            ("matrix".to_string(), Value::Array(matrix)),
        ])
    }

    /// Text rendering of the sharing matrix and the shared-subplan list
    /// (the companion of the rendered diagnostics, not a replacement).
    pub fn render_matrix(&self) -> String {
        let n = self.entries.len();
        let mut out = String::new();
        out.push_str("sharing matrix (fingerprint-equal subplans per statement pair):\n");
        let width = format!("#{n}").len().max(2);
        out.push_str(&" ".repeat(width + 3));
        for j in 0..n {
            out.push_str(&format!("{:>width$} ", format!("#{}", j + 1)));
        }
        out.push('\n');
        for i in 0..n {
            out.push_str(&format!("  {:>width$} ", format!("#{}", i + 1)));
            for j in 0..n {
                let cell = if i == j {
                    "·".to_string()
                } else {
                    self.matrix.get(i).and_then(|r| r.get(j)).copied().unwrap_or(0).to_string()
                };
                out.push_str(&format!("{cell:>width$} "));
            }
            out.push('\n');
        }
        if !self.groups.is_empty() {
            out.push_str("shared subplans:\n");
            for g in &self.groups {
                let stmts: Vec<String> =
                    g.statements.iter().map(|&i| format!("#{}", i + 1)).collect();
                out.push_str(&format!(
                    "  {}  {}  {}\n",
                    g.fingerprint,
                    g.describe,
                    stmts.join(" ")
                ));
            }
        }
        out
    }
}

/// Cross-statement static analyzer: duplicate subplans, subsumed targets,
/// cost dominance. Mirrors [`crate::analyze::Analyzer`]'s shape — schema
/// provider plus an optional engine for the cost-model lints.
pub struct WorkloadAnalyzer<'a> {
    provider: &'a dyn SchemaProvider,
    engine: Option<&'a olap_engine::Engine>,
}

impl<'a> WorkloadAnalyzer<'a> {
    pub fn new(provider: &'a dyn SchemaProvider) -> Self {
        WorkloadAnalyzer { provider, engine: None }
    }

    /// Attaches an engine so `W109` (cost dominance) can run.
    pub fn with_engine(mut self, engine: &'a olap_engine::Engine) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Analyzes a workload of parsed statements. Statements that fail to
    /// resolve are carried in the report with their error and excluded
    /// from the sharing structure; per-statement diagnostics remain the
    /// job of [`crate::analyze::Analyzer`].
    pub fn analyze(&self, statements: &[WorkloadStatement]) -> SharingReport {
        let n = statements.len();
        let mut sink = Sink::new();
        let mut entries = Vec::with_capacity(n);
        // Per statement: (resolved, naive plan, subplan fingerprints).
        let mut resolved: Vec<Option<(ResolvedAssess, Vec<SubplanFingerprint>)>> =
            Vec::with_capacity(n);
        for (i, ws) in statements.iter().enumerate() {
            match ResolvedAssess::resolve(&ws.statement, self.provider) {
                Ok(r) => {
                    let plan = r.naive_plan();
                    let fps = subplan_fingerprints(&plan);
                    let cost = self.engine.and_then(|e| {
                        cost::estimate_all(&r, e)
                            .ok()
                            .and_then(|costs| costs.first().map(|c| c.total))
                    });
                    entries.push(WorkloadEntry {
                        index: i,
                        root: fps.first().map(|f| f.fingerprint),
                        target: Some(fingerprint_query(&r.target_query)),
                        cost,
                        error: None,
                    });
                    resolved.push(Some((r, fps)));
                }
                Err(e) => {
                    entries.push(WorkloadEntry {
                        index: i,
                        root: None,
                        target: None,
                        cost: None,
                        error: Some(e.to_string()),
                    });
                    resolved.push(None);
                }
            }
        }

        // ---- shared-subplan groups and the matrix (W107) ----------------
        // Map fingerprint -> (description, is_get, statements containing it).
        let mut by_fp: HashMap<u64, (String, bool, Vec<usize>)> = HashMap::new();
        for (i, r) in resolved.iter().enumerate() {
            let Some((_, fps)) = r else { continue };
            let mut seen_here: Vec<u64> = Vec::new();
            for f in fps {
                if seen_here.contains(&f.fingerprint.0) {
                    continue;
                }
                seen_here.push(f.fingerprint.0);
                let entry = by_fp
                    .entry(f.fingerprint.0)
                    .or_insert_with(|| (f.describe.clone(), f.is_get, Vec::new()));
                entry.2.push(i);
            }
        }
        let mut groups: Vec<ShareGroup> = by_fp
            .into_iter()
            .filter(|(_, (_, _, stmts))| stmts.len() >= 2)
            .map(|(fp, (describe, is_get, statements))| ShareGroup {
                fingerprint: Fingerprint(fp),
                describe,
                statements,
                is_get,
            })
            .collect();
        // Deterministic order: first statement, then subplan size (gets
        // last — they are the leaves), then fingerprint.
        groups.sort_by(|a, b| {
            (a.statements.first(), &a.describe, a.fingerprint).cmp(&(
                b.statements.first(),
                &b.describe,
                b.fingerprint,
            ))
        });
        let mut matrix = vec![vec![0usize; n]; n];
        for g in &groups {
            for (k, &i) in g.statements.iter().enumerate() {
                for &j in g.statements.iter().skip(k + 1) {
                    if let Some(cell) = matrix.get_mut(i).and_then(|r| r.get_mut(j)) {
                        *cell += 1;
                    }
                    if let Some(cell) = matrix.get_mut(j).and_then(|r| r.get_mut(i)) {
                        *cell += 1;
                    }
                }
            }
        }
        for g in &groups {
            let (Some(&first), Some(&second)) = (g.statements.first(), g.statements.get(1)) else {
                continue;
            };
            let stmts: Vec<String> = g.statements.iter().map(|&i| format!("#{}", i + 1)).collect();
            let mut diag = Diagnostic::new(
                DiagCode::W107,
                statement_span(statements, second),
                format!(
                    "statement #{} repeats a subplan of statement #{}: {}",
                    second + 1,
                    first + 1,
                    g.describe
                ),
            )
            .with_note(format!(
                "fingerprint {} appears in statements {}",
                g.fingerprint,
                stmts.join(", ")
            ));
            if g.is_get {
                diag = diag.with_suggestion(
                    "submit these statements as one serve `batch` so the shared scan runs once",
                );
            }
            sink.push(diag);
        }

        // ---- static subsumption of get targets (W108) -------------------
        for (i, ri) in resolved.iter().enumerate() {
            let Some((a, _)) = ri else { continue };
            for (j, rj) in resolved.iter().enumerate() {
                if i == j {
                    continue;
                }
                let Some((b, _)) = rj else { continue };
                let (fa, fb) =
                    (fingerprint_query(&a.target_query), fingerprint_query(&b.target_query));
                if fa == fb {
                    continue; // identical targets are W107's business
                }
                if subsumes(&b.target_query, &a.target_query) {
                    sink.push(
                        Diagnostic::new(
                            DiagCode::W108,
                            statement_span(statements, i),
                            format!(
                                "statement #{}'s get target is contained in statement #{}'s target",
                                i + 1,
                                j + 1
                            ),
                        )
                        .with_note(
                            "per the cube containment order, the wider cube answers both \
                             queries: every cell of this target is a cell of the wider one",
                        )
                        .with_suggestion(format!(
                            "slice statement #{}'s result instead of re-scanning",
                            j + 1
                        )),
                    );
                    break; // one subsumption report per statement
                }
            }
        }

        // ---- cost dominance (W109) --------------------------------------
        if n >= W109_MIN_STATEMENTS {
            let total: f64 = entries.iter().filter_map(|e| e.cost).sum();
            if total > 0.0 {
                for e in &entries {
                    let Some(cost) = e.cost else { continue };
                    let share = cost / total;
                    if share > W109_DOMINANCE_SHARE {
                        sink.push(
                            Diagnostic::new(
                                DiagCode::W109,
                                statement_span(statements, e.index),
                                format!(
                                    "statement #{} accounts for {:.0}% of the workload's estimated cost",
                                    e.index + 1,
                                    share * 100.0
                                ),
                            )
                            .with_note(format!(
                                "estimated cost {:.0} of {:.0} total across {} statements",
                                cost, total, n
                            ))
                            .with_suggestion(
                                "run it last (or under a stricter policy) so the rest of the \
                                 dashboard stays interactive",
                            ),
                        );
                    }
                }
            }
        }

        SharingReport { entries, groups, matrix, diagnostics: sink.finish() }
    }
}

/// The whole-file span of statement `i` (its parse span shifted by its
/// offset), or a dummy span for programmatic statements.
fn statement_span(statements: &[WorkloadStatement], i: usize) -> Span {
    statements
        .get(i)
        .map(|ws| ws.spans.as_ref().map(|s| s.span.offset(ws.offset)).unwrap_or_else(Span::dummy))
        .unwrap_or_else(Span::dummy)
}

/// Static containment per the cube algebra: `narrow ⊑ wide` — the wide
/// query's result contains every cell of the narrow one's, so the narrow
/// cube is derivable from the wide result by selection. Requires the same
/// cube, the same measures, the same group-by set, and every wide
/// predicate to be implied by a narrow predicate on the same level
/// (narrow members ⊆ wide members); the narrow query may add predicates.
pub fn subsumes(wide: &CubeQuery, narrow: &CubeQuery) -> bool {
    if wide.cube != narrow.cube
        || wide.group_by != narrow.group_by
        || wide.measures != narrow.measures
    {
        return false;
    }
    wide.predicates.iter().all(|wp| {
        narrow.predicates.iter().any(|np| {
            np.hierarchy == wp.hierarchy
                && np.level == wp.level
                && np.members().iter().all(|m| wp.members().contains(m))
        })
    })
}
