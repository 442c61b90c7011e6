//! The logical operators of Section 4.2 and plans built from them.
//!
//! Operators respect the closure property: each takes cubes and produces a
//! cube. A plan is a tree of [`LogicalOp`]s; Section 4.3's semantics builds
//! the canonical (naive) tree for each benchmark type, Section 5's rewrites
//! (`crate::rewrite`) transform it, and the executor walks it.

use olap_engine::JoinKind;
use olap_model::{CubeQuery, MemberId};

use crate::functions::TransformStep;
use crate::labeling::ResolvedLabeling;

/// A node of a logical plan.
#[derive(Debug, Clone)]
pub enum LogicalOp {
    /// `[q]` — obtain the result of a cube query, optionally renamed
    /// (`→ benchmark`).
    Get { query: CubeQuery, alias: Option<String> },
    /// `C ⋈ B` — natural (drill-across) join on full coordinates; the right
    /// cube's `measure` is appended as column `rename`.
    NaturalJoin {
        left: Box<LogicalOp>,
        right: Box<LogicalOp>,
        kind: JoinKind,
        measure: String,
        rename: String,
    },
    /// Roll-up join: pairs every left cell with the right cell whose
    /// `hierarchy` component is the left member's **ancestor** at the
    /// right cube's (coarser) level; the ancestor's `measure` is appended
    /// as column `rename` (ancestor-benchmark extension).
    RollupJoin {
        left: Box<LogicalOp>,
        right: Box<LogicalOp>,
        kind: JoinKind,
        hierarchy: usize,
        fine_level: usize,
        coarse_level: usize,
        measure: String,
        rename: String,
    },
    /// `C ⋈_{G\l} B` — partial join: the right cube holds slices of level
    /// `l` (of hierarchy `hierarchy`); each member of `members` contributes
    /// its value of `measure` as one output column of `names`.
    SlicedJoin {
        left: Box<LogicalOp>,
        right: Box<LogicalOp>,
        kind: JoinKind,
        hierarchy: usize,
        members: Vec<MemberId>,
        measure: String,
        names: Vec<String>,
    },
    /// `⊞` — keep the `reference` slice of `hierarchy`, appending the value
    /// of `measure` in each `neighbors` slice as the correspondingly named
    /// extra column.
    Pivot {
        input: Box<LogicalOp>,
        hierarchy: usize,
        reference: MemberId,
        neighbors: Vec<MemberId>,
        measure: String,
        names: Vec<String>,
    },
    /// `⊟`/`⊡` — a cell or holistic transformation (which one is decided by
    /// `step.function.is_holistic()`).
    Transform { input: Box<LogicalOp>, step: TransformStep },
    /// `⊟ regression` — the time-series prediction transform of past
    /// benchmarks: fits each cell's `history` columns (chronological) and
    /// writes the one-step-ahead forecast into `output`.
    Regression { input: Box<LogicalOp>, history: Vec<String>, output: String },
    /// Attaches the constant benchmark measure `m_const` (a degenerate
    /// benchmark cube whose every cell holds `value`).
    ConstColumn { input: Box<LogicalOp>, name: String, value: f64 },
    /// `⊡ λ` — applies the labeling function to `input_column`, producing
    /// the `label` column.
    Label { input: Box<LogicalOp>, labeling: ResolvedLabeling, input_column: String },
}

impl LogicalOp {
    /// The direct children of this node.
    pub fn children(&self) -> Vec<&LogicalOp> {
        match self {
            LogicalOp::Get { .. } => vec![],
            LogicalOp::NaturalJoin { left, right, .. }
            | LogicalOp::RollupJoin { left, right, .. }
            | LogicalOp::SlicedJoin { left, right, .. } => vec![left, right],
            LogicalOp::Pivot { input, .. }
            | LogicalOp::Transform { input, .. }
            | LogicalOp::Regression { input, .. }
            | LogicalOp::ConstColumn { input, .. }
            | LogicalOp::Label { input, .. } => vec![input],
        }
    }

    /// For a join or pivot whose inputs are plain `get`s: their queries,
    /// target first — the prefix a fusing strategy (JOP/POP) hands to the
    /// engine in one call. The pivot has no benchmark get: it probes the
    /// widened target.
    pub fn fusable_gets(&self) -> Option<(&CubeQuery, Option<&CubeQuery>)> {
        fn query(op: &LogicalOp) -> Option<&CubeQuery> {
            match op {
                LogicalOp::Get { query, .. } => Some(query),
                _ => None,
            }
        }
        match self {
            LogicalOp::NaturalJoin { left, right, .. }
            | LogicalOp::RollupJoin { left, right, .. }
            | LogicalOp::SlicedJoin { left, right, .. } => {
                Some((query(left)?, Some(query(right)?)))
            }
            LogicalOp::Pivot { input, .. } => Some((query(input)?, None)),
            _ => None,
        }
    }

    /// Number of nodes in the subtree.
    pub fn size(&self) -> usize {
        1 + self.children().iter().map(|c| c.size()).sum::<usize>()
    }

    /// Number of `get` leaves (≈ round-trips to the engine under NP).
    pub fn get_count(&self) -> usize {
        match self {
            LogicalOp::Get { .. } => 1,
            other => other.children().iter().map(|c| c.get_count()).sum(),
        }
    }

    /// One-line operator name with its key parameters.
    pub fn describe(&self) -> String {
        match self {
            LogicalOp::Get { query, alias } => {
                let alias = alias.as_deref().map(|a| format!(" → {a}")).unwrap_or_default();
                format!(
                    "get[{}; group-by arity {}; {} predicate(s)]{}",
                    query.cube,
                    query.group_by.arity(),
                    query.predicates.len(),
                    alias
                )
            }
            LogicalOp::NaturalJoin { kind, rename, .. } => {
                format!("⋈ natural ({kind:?}) appending {rename}")
            }
            LogicalOp::RollupJoin { kind, rename, .. } => {
                format!("⋈ roll-up ({kind:?}) appending {rename}")
            }
            LogicalOp::SlicedJoin { kind, members, names, .. } => {
                format!(
                    "⋈ partial ({kind:?}) over {} slice(s) → {}",
                    members.len(),
                    names.join(", ")
                )
            }
            LogicalOp::Pivot { neighbors, names, .. } => {
                format!(
                    "⊞ pivot keeping reference, {} neighbor(s) → {}",
                    neighbors.len(),
                    names.join(", ")
                )
            }
            LogicalOp::Transform { step, .. } => {
                let symbol = if step.function.is_holistic() { "⊡" } else { "⊟" };
                format!("{symbol} {} → {}", step.function.name(), step.output)
            }
            LogicalOp::Regression { history, output, .. } => {
                format!("⊟ regression over {} slices → {output}", history.len())
            }
            LogicalOp::ConstColumn { name, value, .. } => {
                format!("const benchmark {name} = {value}")
            }
            LogicalOp::Label { input_column, .. } => format!("⊡ label({input_column})"),
        }
    }

    fn render(&self, depth: usize, out: &mut String) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&self.describe());
        out.push('\n');
        for c in self.children() {
            c.render(depth + 1, out);
        }
    }
}

impl std::fmt::Display for LogicalOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.render(0, &mut out);
        f.write_str(out.trim_end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::{ColRef, Function};
    use olap_model::GroupBySet;

    fn get(cube: &str, alias: Option<&str>) -> LogicalOp {
        LogicalOp::Get {
            query: CubeQuery::new(
                cube,
                GroupBySet::from_slots(vec![Some(0)]),
                vec![],
                vec!["m".into()],
            ),
            alias: alias.map(str::to_string),
        }
    }

    fn sibling_plan() -> LogicalOp {
        LogicalOp::Label {
            input: Box::new(LogicalOp::Transform {
                input: Box::new(LogicalOp::SlicedJoin {
                    left: Box::new(get("SALES", None)),
                    right: Box::new(get("SALES", Some("benchmark"))),
                    kind: JoinKind::Inner,
                    hierarchy: 0,
                    members: vec![MemberId(1)],
                    measure: "m".into(),
                    names: vec!["benchmark.m".into()],
                }),
                step: TransformStep {
                    function: Function::Difference,
                    inputs: vec![ColRef::Column("m".into()), ColRef::Column("benchmark.m".into())],
                    output: "delta".into(),
                },
            }),
            labeling: ResolvedLabeling::Quantiles {
                k: 4,
                labels: vec!["top-1".into(), "top-2".into(), "top-3".into(), "top-4".into()],
            },
            input_column: "delta".into(),
        }
    }

    #[test]
    fn tree_navigation() {
        let plan = sibling_plan();
        assert_eq!(plan.size(), 5);
        assert_eq!(plan.get_count(), 2);
        assert_eq!(plan.children().len(), 1);
    }

    #[test]
    fn display_renders_indented_operators() {
        let text = sibling_plan().to_string();
        assert!(text.starts_with("⊡ label(delta)"));
        assert!(text.contains("⊟ difference → delta"));
        assert!(text.contains("⋈ partial (Inner) over 1 slice(s) → benchmark.m"));
        assert!(text.contains("get[SALES; group-by arity 1; 0 predicate(s)] → benchmark"));
        // Children are indented deeper than parents.
        let label_line = text.lines().next().unwrap();
        let get_line = text.lines().last().unwrap();
        assert!(get_line.starts_with("      "));
        assert!(!label_line.starts_with(' '));
    }
}
