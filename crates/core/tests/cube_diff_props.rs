//! Differential property of `AssessedCube::diff`, the column-wise diff of
//! two evaluations of one statement: on random pairs of cubes it must name
//! exactly the cells the string-keyed diff it replaced names — that diff,
//! kept here verbatim as the oracle, indexes decoded cells by member names
//! and compares whole cells. The changed cells must match in order (the
//! next evaluation's row order), the removed coordinates as a set.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use assess_core::result::AssessedCell;
use assess_core::AssessedCube;
use olap_model::{
    AggOp, CubeColumn, CubeSchema, DerivedCube, GroupBySet, HierarchyBuilder, LabelColumn,
    MeasureDef, MemberId, NumericColumn,
};
use proptest::prelude::*;

// ------------------------------------------------------------------ oracle

/// A cube snapshot keyed by cell coordinate, the shape diffs are computed
/// over. Coordinates are the full group-by member tuples, so they identify
/// a cell across re-evaluations.
pub type CellIndex = BTreeMap<Vec<String>, AssessedCell>;

/// Indexes a result's cells by coordinate.
pub fn index_cells(cells: &[AssessedCell]) -> CellIndex {
    cells.iter().map(|c| (c.coordinate.clone(), c.clone())).collect()
}

/// The difference between two evaluations of one statement.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffFrame {
    /// Cells that are new or whose value/benchmark/comparison/label
    /// changed. On a `full` frame this is the entire result.
    pub changed: Vec<AssessedCell>,
    /// Coordinates present before but absent now. Empty on `full` frames.
    pub removed: Vec<Vec<String>>,
    /// Whether the frame is a full re-send (first frame after a lag, or a
    /// shed-level degradation) rather than an incremental diff.
    pub full: bool,
}

/// Diffs a new evaluation against the indexed previous one.
pub fn diff_cells(prev: &CellIndex, next: &[AssessedCell]) -> DiffFrame {
    let mut changed = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for cell in next {
        seen.insert(&cell.coordinate);
        if prev.get(&cell.coordinate) != Some(cell) {
            changed.push(cell.clone());
        }
    }
    let removed = prev.keys().filter(|coord| !seen.contains(coord)).cloned().collect::<Vec<_>>();
    DiffFrame { changed, removed, full: false }
}

// --------------------------------------------------------------- the cubes

const LEVELS: [&str; 3] = ["x", "y", "z"];

/// Member names in id order, which is not their name order.
const MEMBERS: [&str; 4] = ["m2", "m0", "m3", "m1"];

const LABELS: [&str; 4] = ["low", "mid", "high", "spare"];

/// A cell's value, benchmark, comparison and label (into `LABELS`).
type Content = (Option<f64>, Option<f64>, Option<f64>, Option<usize>);

/// How one evaluation lays its cells out.
#[derive(Debug, Clone)]
struct Shape {
    /// Rows in coordinate order, as cells leave `get`, or as generated.
    sorted: bool,
    /// `None`: no label column. Otherwise the label table is `LABELS`
    /// rotated by the first number, then the label the second number
    /// picks once more; odd rows name that label by its second code.
    labels: Option<(usize, usize)>,
}

/// A pair of evaluations over one group-by of `arity` levels.
#[derive(Debug, Clone)]
struct Pair {
    arity: usize,
    prev: (Vec<[u32; 3]>, Vec<Content>, Shape),
    next: (Vec<[u32; 3]>, Vec<Content>, Shape),
}

fn schema() -> Arc<CubeSchema> {
    let hierarchies = LEVELS
        .iter()
        .map(|level| {
            let mut hierarchy = HierarchyBuilder::new(level.to_uppercase(), [*level]);
            for member in MEMBERS {
                hierarchy.add_member_chain(&[member]).unwrap();
            }
            hierarchy.build().unwrap()
        })
        .collect();
    Arc::new(CubeSchema::new("DIFF", hierarchies, vec![MeasureDef::new("m", AggOp::Sum)]))
}

fn cube(arity: usize, coords: &[[u32; 3]], contents: &[Content], shape: &Shape) -> AssessedCube {
    let schema = schema();
    let group_by = GroupBySet::from_level_names(&schema, &LEVELS[..arity]).unwrap();
    let mut rows: Vec<usize> = (0..coords.len()).collect();
    if shape.sorted {
        rows.sort_by_key(|&r| coords[r]);
    }
    let coord_cols = (0..arity).map(|l| rows.iter().map(|&r| MemberId(coords[r][l])).collect());
    let numeric = |name: &str, pick: fn(&Content) -> Option<f64>| {
        let values = rows.iter().map(|&r| pick(&contents[r])).collect();
        CubeColumn::Numeric(NumericColumn::nullable(name, values))
    };
    let mut columns =
        vec![numeric("m", |c| c.0), numeric("benchmark.m", |c| c.1), numeric("delta", |c| c.2)];
    if let Some((rotation, repeated)) = shape.labels {
        let mut table: Vec<String> = LABELS.iter().map(|l| l.to_string()).collect();
        table.rotate_left(rotation);
        table.push(LABELS[repeated].to_string());
        let codes = rows
            .iter()
            .enumerate()
            .map(|(k, &r)| {
                contents[r].3.map(|label| {
                    let first = table.iter().position(|t| t == LABELS[label]).unwrap();
                    let code =
                        if label == repeated && k % 2 == 1 { table.len() - 1 } else { first };
                    code as u32
                })
            })
            .collect();
        columns.push(CubeColumn::Label(LabelColumn::from_codes("label", table, codes)));
    }
    let cube = DerivedCube::from_parts(schema, group_by, coord_cols.collect(), columns).unwrap();
    AssessedCube::from_parts(cube, "m", "benchmark.m")
}

/// Nulls, NaN, both zeros and two ordinary numbers.
fn number() -> impl Strategy<Value = Option<f64>> {
    prop_oneof![
        Just(None),
        Just(Some(f64::NAN)),
        Just(Some(0.0)),
        Just(Some(-0.0)),
        Just(Some(1.0)),
        Just(Some(-2.5)),
    ]
}

fn content() -> impl Strategy<Value = Content> {
    (number(), number(), number(), option::weighted(0.8, 0usize..3))
}

fn shape() -> impl Strategy<Value = Shape> {
    (any::<bool>(), option::weighted(0.8, (0usize..4, 0usize..3)))
        .prop_map(|(sorted, labels)| Shape { sorted, labels })
}

/// Coordinates over at most four members per level, so the two
/// evaluations overlap: a coordinate is in one, the other or both, and a
/// shared cell keeps its content or, one time in three, is edited.
fn pair() -> impl Strategy<Value = Pair> {
    let slot = ((0u32..4, 0u32..4, 0u32..4), 1u8..4, content(), option::weighted(0.35, content()));
    (1usize..=3, collection::vec(slot, 0..40), shape(), shape()).prop_map(
        |(arity, slots, prev_shape, next_shape)| {
            let mut seen = BTreeSet::new();
            let (mut prev, mut next) = ((Vec::new(), Vec::new()), (Vec::new(), Vec::new()));
            for ((x, y, z), presence, content, edit) in slots {
                let mut coord = [x, y, z];
                coord[arity..].fill(0);
                if !seen.insert(coord) {
                    continue;
                }
                if presence & 1 != 0 {
                    prev.0.push(coord);
                    prev.1.push(content);
                }
                if presence & 2 != 0 {
                    next.0.push(coord);
                    next.1.push(edit.unwrap_or(content));
                }
            }
            Pair { arity, prev: (prev.0, prev.1, prev_shape), next: (next.0, next.1, next_shape) }
        },
    )
}

/// Cells rendered with `{:?}`, so NaN equals NaN and −0.0 differs from
/// 0.0: the decoded cells must be the oracle's bit for bit.
fn debug(cells: &[AssessedCell]) -> Vec<String> {
    cells.iter().map(|c| format!("{c:?}")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn diff_names_the_cells_the_string_diff_names(pair in pair()) {
        let Pair { arity, prev, next } = pair;
        let prev = cube(arity, &prev.0, &prev.1, &prev.2);
        let next = cube(arity, &next.0, &next.1, &next.2);
        let oracle = diff_cells(&index_cells(&prev.cells()), &next.cells());
        prop_assert!(!oracle.full);

        let diff = prev.diff(&next).expect("one group-by on both sides");
        prop_assert!(diff.changed.windows(2).all(|w| w[0] < w[1]), "{:?}", diff.changed);
        prop_assert!(diff.removed.windows(2).all(|w| w[0] < w[1]), "{:?}", diff.removed);

        let changed: Vec<AssessedCell> = diff.changed.iter().map(|&row| next.cell(row)).collect();
        prop_assert_eq!(debug(&changed), debug(&oracle.changed));
        let removed: BTreeSet<Vec<String>> =
            diff.removed.iter().map(|&row| prev.cell(row).coordinate).collect();
        prop_assert_eq!(removed.len(), diff.removed.len());
        prop_assert_eq!(removed, oracle.removed.into_iter().collect::<BTreeSet<_>>());
    }
}
