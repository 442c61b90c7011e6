//! The result of an assess statement.
//!
//! Per Section 4.1, each result cell carries (i) its coordinate, (ii) the
//! assessed measure value, (iii) the benchmark measure value, (iv) the
//! comparison value, and (v) the label.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use olap_model::{DerivedCube, LabelColumn, NumericColumn};
use serde::Serialize;

use crate::functions::DELTA_COLUMN;
use crate::semantics::ResolvedAssess;

/// One assessed cell, decoded for presentation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AssessedCell {
    /// Member names of the coordinate, in group-by order.
    pub coordinate: Vec<String>,
    /// The assessed measure value `m`.
    pub value: Option<f64>,
    /// The benchmark measure value `m_B`.
    pub benchmark: Option<f64>,
    /// The comparison value `m_Δ`.
    pub comparison: Option<f64>,
    /// The label `m_λ` (null for `assess*` cells without a match, or when a
    /// range labeling does not cover the comparison value).
    pub label: Option<String>,
}

/// The rows in which two evaluations of one statement differ, as
/// [`AssessedCube::diff`] finds them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellDiff {
    /// Rows of the next evaluation whose cell is new or whose value,
    /// benchmark, comparison or label changed, ascending.
    pub changed: Vec<usize>,
    /// Rows of the previous evaluation whose coordinate is absent from the
    /// next one, ascending.
    pub removed: Vec<usize>,
}

/// The assessed cube: the target cube extended with the benchmark,
/// comparison and label columns.
#[derive(Debug, Clone)]
pub struct AssessedCube {
    cube: DerivedCube,
    measure: String,
    benchmark_column: String,
}

impl AssessedCube {
    pub(crate) fn new(cube: DerivedCube, resolved: &ResolvedAssess) -> Self {
        AssessedCube::from_parts(cube, resolved.measure.clone(), resolved.benchmark_column())
    }

    /// An assessed cube over `cube`, reading the assessed measure from the
    /// column `measure`, the benchmark from `benchmark_column`, the
    /// comparison from `delta` and the label from `label`.
    pub fn from_parts(
        cube: DerivedCube,
        measure: impl Into<String>,
        benchmark_column: impl Into<String>,
    ) -> Self {
        AssessedCube { cube, measure: measure.into(), benchmark_column: benchmark_column.into() }
    }

    /// The underlying derived cube (all columns, including intermediate
    /// transform outputs).
    pub fn cube(&self) -> &DerivedCube {
        &self.cube
    }

    /// `|C|`: number of assessed cells.
    pub fn len(&self) -> usize {
        self.cube.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cube.is_empty()
    }

    /// The assessed measure name.
    pub fn measure(&self) -> &str {
        &self.measure
    }

    /// The benchmark column name (`benchmark.<m>`).
    pub fn benchmark_column(&self) -> &str {
        &self.benchmark_column
    }

    /// Decodes one cell.
    pub fn cell(&self, row: usize) -> AssessedCell {
        let coordinate = self
            .cube
            .coordinate(row)
            .names(self.cube.schema(), self.cube.group_by())
            .map(|names| names.into_iter().map(str::to_string).collect())
            .unwrap_or_default();
        AssessedCell {
            coordinate,
            value: self.cube.numeric_column(&self.measure).and_then(|c| c.get(row)),
            benchmark: self.cube.numeric_column(&self.benchmark_column).and_then(|c| c.get(row)),
            comparison: self.cube.numeric_column(DELTA_COLUMN).and_then(|c| c.get(row)),
            label: self.cube.label_column("label").and_then(|c| c.get(row)).map(str::to_string),
        }
    }

    /// Decodes every cell.
    pub fn cells(&self) -> Vec<AssessedCell> {
        (0..self.len()).map(|row| self.cell(row)).collect()
    }

    /// The cells of `next`, a later evaluation of the same statement, that
    /// differ from this one's, found without decoding a cell: two rows are
    /// the same cell when their packed keys are (under one layout equal
    /// keys are equal member ids, and names are interned per level, so
    /// equal ids are equal names), and differ when a numeric column differs
    /// as `Option<f64>` (NaN never equals, −0.0 equals 0.0) or the label
    /// does as a string. Both sides are walked in key order — their row
    /// order unless a side is not already sorted — and merged. `None` when
    /// the group-by sets or the key layouts differ.
    pub fn diff(&self, next: &AssessedCube) -> Option<CellDiff> {
        if self.cube.group_by() != next.cube.group_by() || self.cube.layout() != next.cube.layout()
        {
            return None;
        }
        let mut labels = Vec::new();
        let (prev, next) = (DiffSide::new(self, &mut labels), DiffSide::new(next, &mut labels));
        let same = |a: usize, b: usize| {
            let mut numeric = prev.numeric.iter().zip(&next.numeric);
            numeric.all(|(p, n)| p.and_then(|c| c.get(a)) == n.and_then(|c| c.get(b)))
                && prev.label(a) == next.label(b)
        };
        let mut diff = CellDiff::default();
        let (mut i, mut j) = (0, 0);
        while i < prev.order.len() && j < next.order.len() {
            let (a, b) = (prev.order[i], next.order[j]);
            match prev.keys[a].cmp(&next.keys[b]) {
                Ordering::Less => {
                    diff.removed.push(a);
                    i += 1;
                }
                Ordering::Greater => {
                    diff.changed.push(b);
                    j += 1;
                }
                Ordering::Equal => {
                    if !same(a, b) {
                        diff.changed.push(b);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        diff.removed.extend(&prev.order[i..]);
        diff.changed.extend(&next.order[j..]);
        // Already ascending when neither side needed sorting.
        diff.removed.sort_unstable();
        diff.changed.sort_unstable();
        Some(diff)
    }

    /// Label frequencies (null cells counted under `"<unlabeled>"`). Codes
    /// are counted first; entries of the label table that name the same
    /// label fold into one count.
    pub fn label_histogram(&self) -> BTreeMap<String, usize> {
        let mut hist = BTreeMap::new();
        let Some(col) = self.cube.label_column("label") else {
            if !self.is_empty() {
                hist.insert("<unlabeled>".to_string(), self.len());
            }
            return hist;
        };
        let mut counts = vec![0usize; col.distinct().len()];
        let mut unlabeled = 0;
        for code in col.codes() {
            match code {
                Some(c) => counts[*c as usize] += 1,
                None => unlabeled += 1,
            }
        }
        for (label, n) in col.distinct().iter().zip(counts) {
            if n > 0 {
                *hist.entry(label.clone()).or_insert(0) += n;
            }
        }
        if unlabeled > 0 {
            *hist.entry("<unlabeled>".to_string()).or_insert(0) += unlabeled;
        }
        hist
    }

    /// Renders the result as a text table with the five Section 4.1 columns.
    pub fn render(&self, max_rows: usize) -> String {
        use std::fmt::Write as _;
        let level_names: Vec<String> = self
            .cube
            .group_by()
            .level_names(self.cube.schema())
            .into_iter()
            .map(str::to_string)
            .collect();
        let mut header = level_names;
        header.extend([
            self.measure.clone(),
            self.benchmark_column.clone(),
            DELTA_COLUMN.to_string(),
            "label".to_string(),
        ]);
        let fmt_opt = |v: Option<f64>| match v {
            Some(x) => format!("{x:.4}"),
            None => "null".to_string(),
        };
        let rows: Vec<Vec<String>> = (0..self.len().min(max_rows))
            .map(|row| {
                let cell = self.cell(row);
                let mut cols = cell.coordinate;
                cols.push(fmt_opt(cell.value));
                cols.push(fmt_opt(cell.benchmark));
                cols.push(fmt_opt(cell.comparison));
                cols.push(cell.label.unwrap_or_else(|| "null".to_string()));
                cols
            })
            .collect();
        let mut widths: Vec<usize> = header.iter().map(String::len).collect();
        for row in &rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "| {:<w$} ", c, w = widths[i]);
            }
            out.push_str("|\n");
        };
        render_row(&header, &mut out);
        for w in &widths {
            let _ = write!(out, "|{:-<w$}", "", w = w + 2);
        }
        out.push_str("|\n");
        for row in &rows {
            render_row(row, &mut out);
        }
        if self.len() > max_rows {
            let _ = writeln!(out, "… {} more cells", self.len() - max_rows);
        }
        out
    }
}

/// One evaluation as [`AssessedCube::diff`] reads it.
struct DiffSide<'a> {
    keys: &'a [u64],
    /// The value, benchmark and comparison columns.
    numeric: [Option<&'a NumericColumn>; 3],
    /// The label codes; empty when the cube has no label column.
    codes: &'a [Option<u32>],
    /// Code → index into the label list both sides share.
    label_ids: Vec<u32>,
    /// The rows in key order.
    order: Vec<usize>,
}

impl<'a> DiffSide<'a> {
    /// Reads `assessed`, adding the labels of its table that `labels` lacks.
    fn new(assessed: &'a AssessedCube, labels: &mut Vec<&'a str>) -> Self {
        let cube = &assessed.cube;
        let keys = cube.keys();
        let mut order: Vec<usize> = (0..cube.len()).collect();
        if !keys.is_sorted() {
            order.sort_unstable_by_key(|&row| keys[row]);
        }
        let numeric = [assessed.measure.as_str(), &assessed.benchmark_column, DELTA_COLUMN];
        let labeled = cube.label_column("label");
        let table = labeled.map_or(&[][..], LabelColumn::distinct);
        let label_ids = table.iter().map(|label| {
            let id = labels.iter().position(|l| l == label);
            id.unwrap_or_else(|| {
                labels.push(label);
                labels.len() - 1
            }) as u32
        });
        DiffSide {
            keys,
            numeric: numeric.map(|name| cube.numeric_column(name)),
            codes: labeled.map_or(&[][..], LabelColumn::codes),
            label_ids: label_ids.collect(),
            order,
        }
    }

    /// The label of `row` as an index into the shared label list.
    fn label(&self, row: usize) -> Option<u32> {
        self.codes.get(row).copied().flatten().map(|code| self.label_ids[code as usize])
    }
}

impl AssessedCube {
    /// Serializes the result as CSV: coordinate levels, then the five
    /// Section 4.1 columns. Fields are quoted when they contain commas or
    /// quotes. Member names are read from the schema and labels from the
    /// label table, straight into the output.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        fn field(out: &mut String, s: &str) {
            if s.contains([',', '"', '\n']) {
                out.push('"');
                out.push_str(&s.replace('"', "\"\""));
                out.push('"');
            } else {
                out.push_str(s);
            }
        }
        let cube = &self.cube;
        let mut out = String::new();
        let level_names = cube.group_by().level_names(cube.schema());
        let columns = [self.measure.as_str(), &self.benchmark_column, DELTA_COLUMN, "label"];
        for (i, name) in level_names.into_iter().chain(columns).enumerate() {
            if i > 0 {
                out.push(',');
            }
            field(&mut out, name);
        }
        out.push('\n');
        let levels: Vec<_> = cube
            .group_by()
            .included_hierarchies()
            .filter_map(|(h, l)| cube.schema().hierarchy(h)?.level(l))
            .collect();
        let layout = cube.layout();
        let numeric = [self.measure.as_str(), &self.benchmark_column, DELTA_COLUMN]
            .map(|name| cube.numeric_column(name));
        let labels = cube.label_column("label").map(|col| {
            let table: Vec<String> = col
                .distinct()
                .iter()
                .map(|label| {
                    let mut quoted = String::new();
                    field(&mut quoted, label);
                    quoted
                })
                .collect();
            (table, col.codes())
        });
        for (row, &key) in cube.keys().iter().enumerate() {
            // Every member is in its level's domain: the cube refuses others.
            for (c, level) in levels.iter().enumerate() {
                field(&mut out, level.member_name(layout.unpack_component(key, c)).unwrap_or(""));
                out.push(',');
            }
            for col in numeric {
                if let Some(x) = col.and_then(|c| c.get(row)) {
                    let _ = write!(out, "{x}");
                }
                out.push(',');
            }
            if let Some((table, codes)) = &labels {
                if let Some(code) = codes[row] {
                    out.push_str(&table[code as usize]);
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olap_model::{
        AggOp, CubeColumn, CubeSchema, GroupBySet, HierarchyBuilder, LabelColumn, MeasureDef,
        MemberId, NumericColumn,
    };
    use std::sync::Arc;

    /// Four cities, one with a comma and one with quotes in its name.
    fn schema() -> Arc<CubeSchema> {
        let mut city = HierarchyBuilder::new("City", ["city"]);
        for name in ["Bolzano, BZ", "say \"hi\"", "Plain", "Trento"] {
            city.add_member_chain(&[name]).unwrap();
        }
        Arc::new(CubeSchema::new(
            "SALES",
            vec![city.build().unwrap()],
            vec![MeasureDef::new("quantity", AggOp::Sum)],
        ))
    }

    /// One cell per city.
    fn assessed(table: &[&str], codes: Vec<Option<u32>>) -> AssessedCube {
        let schema = schema();
        let g = GroupBySet::from_level_names(&schema, &["city"]).unwrap();
        let numeric = |name: &str, values: Vec<Option<f64>>| {
            CubeColumn::Numeric(NumericColumn::nullable(name, values))
        };
        let cube = DerivedCube::from_parts(
            schema,
            g,
            vec![(0..4).map(MemberId).collect()],
            vec![
                numeric("quantity", vec![Some(1.0), None, Some(0.5), Some(3.0)]),
                numeric("benchmark.quantity", vec![Some(2.0); 4]),
                numeric(DELTA_COLUMN, vec![Some(-1.0), None, Some(-1.5), Some(1.0)]),
                CubeColumn::Label(LabelColumn::from_codes(
                    "label",
                    table.iter().map(|l| l.to_string()).collect(),
                    codes,
                )),
            ],
        )
        .unwrap();
        AssessedCube {
            cube,
            measure: "quantity".into(),
            benchmark_column: "benchmark.quantity".into(),
        }
    }

    #[test]
    fn csv_quotes_names_and_labels_and_refuses_unknown_members() {
        let cube = assessed(&["ok, fine", "bad"], vec![Some(0), None, Some(1), Some(1)]);
        assert_eq!(
            cube.to_csv(),
            "city,quantity,benchmark.quantity,delta,label\n\
             \"Bolzano, BZ\",1,2,-1,\"ok, fine\"\n\
             \"say \"\"hi\"\"\",,2,,\n\
             Plain,0.5,2,-1.5,bad\n\
             Trento,3,2,1,bad\n"
        );
        // A member outside the level's domain never reaches a result.
        let schema = schema();
        let g = GroupBySet::from_level_names(&schema, &["city"]).unwrap();
        let unknown = DerivedCube::from_parts(schema, g, vec![vec![MemberId(7)]], Vec::new());
        assert!(unknown.is_err());
    }

    #[test]
    fn histogram_folds_a_label_shared_by_two_codes() {
        let cube =
            assessed(&["edge", "par", "edge", "unused"], vec![Some(0), Some(2), Some(1), None]);
        let hist: Vec<(String, usize)> = cube.label_histogram().into_iter().collect();
        assert_eq!(hist, [("<unlabeled>".into(), 1), ("edge".into(), 2), ("par".into(), 1)]);
    }

    #[test]
    fn diff_compares_labels_by_string_across_label_tables() {
        let prev = assessed(&["ok, fine", "bad"], vec![Some(0), None, Some(1), Some(1)]);
        // Another table, where `bad` has two codes: the same labels.
        let next = assessed(&["bad", "ok, fine", "bad"], vec![Some(1), None, Some(2), Some(0)]);
        assert_eq!(prev.diff(&next), Some(CellDiff::default()));
        let next = assessed(&["bad", "ok, fine"], vec![Some(0), Some(1), Some(0), Some(0)]);
        assert_eq!(prev.diff(&next), Some(CellDiff { changed: vec![0, 1], removed: vec![] }));
    }

    #[test]
    fn diff_needs_equal_group_bys() {
        let prev = assessed(&[], vec![None; 4]);
        let schema = prev.cube().schema().clone();
        let total = DerivedCube::from_parts(
            schema.clone(),
            GroupBySet::all(&schema),
            Vec::new(),
            vec![CubeColumn::Numeric(NumericColumn::dense("quantity", vec![6.5]))],
        )
        .unwrap();
        let next = AssessedCube::from_parts(total, "quantity", "benchmark.quantity");
        assert_eq!(prev.diff(&next), None);
        assert_eq!(next.diff(&next), Some(CellDiff::default()));
    }
}
