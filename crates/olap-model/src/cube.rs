//! Derived cubes: sparse, columnar results of cube queries.
//!
//! A [`DerivedCube`] realizes the paper's partial function from coordinates
//! to measure tuples (Definitions 2.4/2.6). Storage is columnar: one
//! [`MemberId`] column per hierarchy included in the group-by set, plus a set
//! of value columns. Value columns are either numeric (measures, derived
//! measures produced by `⊟`/`⊡` transforms) or label columns (produced by the
//! labeling step, as codes into a label table). Numeric columns carry a
//! validity bitmap so that the `assess*` variant can represent cells
//! "completed with null values" (Section 4.2, left-outer join).

use std::sync::Arc;

use crate::coordinate::Coordinate;
use crate::error::ModelError;
use crate::groupby::GroupBySet;
use crate::level::MemberId;
use crate::schema::CubeSchema;

/// A numeric value column with per-row validity (nullable `f64`).
#[derive(Debug, Clone)]
pub struct NumericColumn {
    pub name: String,
    pub data: Vec<f64>,
    pub validity: Vec<bool>,
}

impl NumericColumn {
    /// A column where every value is valid.
    pub fn dense(name: impl Into<String>, data: Vec<f64>) -> Self {
        let validity = vec![true; data.len()];
        NumericColumn { name: name.into(), data, validity }
    }

    /// A column from nullable values.
    pub fn nullable(name: impl Into<String>, values: Vec<Option<f64>>) -> Self {
        let mut data = Vec::with_capacity(values.len());
        let mut validity = Vec::with_capacity(values.len());
        for v in values {
            match v {
                Some(x) => {
                    data.push(x);
                    validity.push(true);
                }
                None => {
                    data.push(f64::NAN);
                    validity.push(false);
                }
            }
        }
        NumericColumn { name: name.into(), data, validity }
    }

    /// The value at `row`, or `None` when null.
    #[inline]
    pub fn get(&self, row: usize) -> Option<f64> {
        if self.validity[row] {
            Some(self.data[row])
        } else {
            None
        }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Iterator over the valid values only.
    pub fn valid_values(&self) -> impl Iterator<Item = f64> + '_ {
        self.data.iter().zip(self.validity.iter()).filter(|(_, v)| **v).map(|(x, _)| *x)
    }
}

/// A label column: a table of the labels a labeling can assign (at most
/// its `k` groups or ranges) and one nullable code per row indexing it.
/// Strings are only read back when a result is rendered.
#[derive(Debug, Clone)]
pub struct LabelColumn {
    pub name: String,
    table: Vec<String>,
    codes: Vec<Option<u32>>,
}

impl LabelColumn {
    pub fn new(name: impl Into<String>) -> Self {
        LabelColumn::from_codes(name, Vec::new(), Vec::new())
    }

    /// A column from its label table and one code (an index into `table`,
    /// or null) per row. The table may hold labels no row uses, and the
    /// same label twice.
    pub fn from_codes(
        name: impl Into<String>,
        table: Vec<String>,
        codes: Vec<Option<u32>>,
    ) -> Self {
        debug_assert!(codes.iter().flatten().all(|&c| (c as usize) < table.len()));
        LabelColumn { name: name.into(), table, codes }
    }

    /// Appends a label (or null), adding it to the table when new.
    pub fn push(&mut self, label: Option<&str>) {
        let code = label.map(|l| match self.table.iter().position(|t| t == l) {
            Some(c) => c as u32,
            None => {
                self.table.push(l.to_string());
                (self.table.len() - 1) as u32
            }
        });
        self.codes.push(code);
    }

    /// The rows at `rows`, in that order, over the same table.
    pub fn gather(&self, rows: &[u32]) -> LabelColumn {
        let codes = rows.iter().map(|&r| self.codes[r as usize]).collect();
        LabelColumn::from_codes(self.name.clone(), self.table.clone(), codes)
    }

    /// The label at `row`, or `None` when null.
    pub fn get(&self, row: usize) -> Option<&str> {
        self.codes[row].map(|c| self.table[c as usize].as_str())
    }

    /// One code per row: an index into [`distinct`](Self::distinct), or null.
    pub fn codes(&self) -> &[Option<u32>] {
        &self.codes
    }

    pub fn len(&self) -> usize {
        self.codes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The label table the codes index.
    pub fn distinct(&self) -> &[String] {
        &self.table
    }
}

/// A value column of a derived cube.
#[derive(Debug, Clone)]
pub enum CubeColumn {
    Numeric(NumericColumn),
    Label(LabelColumn),
}

impl CubeColumn {
    pub fn name(&self) -> &str {
        match self {
            CubeColumn::Numeric(c) => &c.name,
            CubeColumn::Label(c) => &c.name,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            CubeColumn::Numeric(c) => c.len(),
            CubeColumn::Label(c) => c.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn as_numeric(&self) -> Option<&NumericColumn> {
        match self {
            CubeColumn::Numeric(c) => Some(c),
            CubeColumn::Label(_) => None,
        }
    }

    pub fn as_label(&self) -> Option<&LabelColumn> {
        match self {
            CubeColumn::Label(c) => Some(c),
            CubeColumn::Numeric(_) => None,
        }
    }
}

/// A borrowed view of one cell of a derived cube.
#[derive(Debug, Clone, Copy)]
pub struct CellRef<'a> {
    pub cube: &'a DerivedCube,
    pub row: usize,
}

impl<'a> CellRef<'a> {
    /// The coordinate of this cell.
    pub fn coordinate(&self) -> Coordinate {
        self.cube.coordinate(self.row)
    }

    /// A numeric value of this cell by column name.
    pub fn numeric(&self, column: &str) -> Option<f64> {
        self.cube.numeric_column(column).and_then(|c| c.get(self.row))
    }

    /// A label value of this cell by column name.
    pub fn label(&self, column: &str) -> Option<&'a str> {
        self.cube.label_column(column).and_then(|c| c.get(self.row))
    }
}

/// A sparse derived cube (Definition 2.6) over a shared [`CubeSchema`].
#[derive(Debug, Clone)]
pub struct DerivedCube {
    schema: Arc<CubeSchema>,
    group_by: GroupBySet,
    /// One member-id column per included hierarchy (group-by order).
    coord_cols: Vec<Vec<MemberId>>,
    columns: Vec<CubeColumn>,
}

impl DerivedCube {
    /// Creates an empty cube with the given coordinate layout.
    pub fn new(schema: Arc<CubeSchema>, group_by: GroupBySet) -> Self {
        let coord_cols = (0..group_by.arity()).map(|_| Vec::new()).collect();
        DerivedCube { schema, group_by, coord_cols, columns: Vec::new() }
    }

    /// Creates a cube from parallel coordinate columns and value columns.
    pub fn from_parts(
        schema: Arc<CubeSchema>,
        group_by: GroupBySet,
        coord_cols: Vec<Vec<MemberId>>,
        columns: Vec<CubeColumn>,
    ) -> Result<Self, ModelError> {
        if coord_cols.len() != group_by.arity() {
            return Err(ModelError::CoordinateArity {
                expected: group_by.arity(),
                got: coord_cols.len(),
            });
        }
        let n = coord_cols
            .first()
            .map(|c| c.len())
            .unwrap_or_else(|| columns.first().map(|c| c.len()).unwrap_or(0));
        for c in &coord_cols {
            if c.len() != n {
                return Err(ModelError::RaggedColumns {
                    expected: n,
                    got: c.len(),
                    column: "<coordinate>".into(),
                });
            }
        }
        for c in &columns {
            if c.len() != n {
                return Err(ModelError::RaggedColumns {
                    expected: n,
                    got: c.len(),
                    column: c.name().to_string(),
                });
            }
        }
        let mut seen = std::collections::HashSet::new();
        for c in &columns {
            if !seen.insert(c.name().to_string()) {
                return Err(ModelError::DuplicateColumn(c.name().to_string()));
            }
        }
        Ok(DerivedCube { schema, group_by, coord_cols, columns })
    }

    pub fn schema(&self) -> &Arc<CubeSchema> {
        &self.schema
    }

    pub fn group_by(&self) -> &GroupBySet {
        &self.group_by
    }

    /// `|C|`: the number of coordinates (cells) of the cube.
    pub fn len(&self) -> usize {
        self.coord_cols
            .first()
            .map(|c| c.len())
            .unwrap_or_else(|| self.columns.first().map(|c| c.len()).unwrap_or(0))
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The coordinate columns (one per included hierarchy, group-by order).
    pub fn coord_cols(&self) -> &[Vec<MemberId>] {
        &self.coord_cols
    }

    /// All value columns.
    pub fn columns(&self) -> &[CubeColumn] {
        &self.columns
    }

    /// The coordinate of row `row`.
    pub fn coordinate(&self, row: usize) -> Coordinate {
        Coordinate::new(self.coord_cols.iter().map(|c| c[row]).collect())
    }

    /// Iterates over the cells.
    pub fn cells(&self) -> impl Iterator<Item = CellRef<'_>> {
        (0..self.len()).map(move |row| CellRef { cube: self, row })
    }

    /// Looks up a value column by name.
    pub fn column(&self, name: &str) -> Option<&CubeColumn> {
        self.columns.iter().find(|c| c.name() == name)
    }

    /// Looks up a numeric column by name.
    pub fn numeric_column(&self, name: &str) -> Option<&NumericColumn> {
        self.column(name).and_then(CubeColumn::as_numeric)
    }

    /// Looks up a label column by name.
    pub fn label_column(&self, name: &str) -> Option<&LabelColumn> {
        self.column(name).and_then(CubeColumn::as_label)
    }

    /// Looks up a numeric column, erroring when absent.
    pub fn require_numeric(&self, name: &str) -> Result<&NumericColumn, ModelError> {
        self.numeric_column(name).ok_or_else(|| ModelError::UnknownColumn(name.to_string()))
    }

    /// Value column names, in order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name()).collect()
    }

    /// Appends a value column; the operators' closure property means cubes
    /// only ever *gain* measures, so this is the only mutation besides rows.
    pub fn add_column(&mut self, column: CubeColumn) -> Result<(), ModelError> {
        if column.len() != self.len() {
            return Err(ModelError::RaggedColumns {
                expected: self.len(),
                got: column.len(),
                column: column.name().to_string(),
            });
        }
        if self.column(column.name()).is_some() {
            return Err(ModelError::DuplicateColumn(column.name().to_string()));
        }
        self.columns.push(column);
        Ok(())
    }

    /// Sorts rows by coordinate (lexicographically on member ids) for
    /// deterministic output; reorders every column consistently.
    pub fn sort_by_coordinates(&mut self) {
        let mut perm: Vec<u32> = (0..self.len() as u32).collect();
        let coord_cols = &self.coord_cols;
        perm.sort_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            for col in coord_cols {
                match col[a].cmp(&col[b]) {
                    std::cmp::Ordering::Equal => continue,
                    other => return other,
                }
            }
            std::cmp::Ordering::Equal
        });
        *self = self.take_rows(&perm);
    }

    /// The cells at `rows`, in that order: coordinates, numeric data and
    /// validity, and label codes are gathered as they are.
    pub fn take_rows(&self, rows: &[u32]) -> DerivedCube {
        let gather = |col: &Vec<MemberId>| rows.iter().map(|&r| col[r as usize]).collect();
        let columns = self
            .columns
            .iter()
            .map(|c| match c {
                CubeColumn::Numeric(nc) => CubeColumn::Numeric(NumericColumn {
                    name: nc.name.clone(),
                    data: rows.iter().map(|&r| nc.data[r as usize]).collect(),
                    validity: rows.iter().map(|&r| nc.validity[r as usize]).collect(),
                }),
                CubeColumn::Label(lc) => CubeColumn::Label(lc.gather(rows)),
            })
            .collect();
        DerivedCube {
            schema: self.schema.clone(),
            group_by: self.group_by.clone(),
            coord_cols: self.coord_cols.iter().map(gather).collect(),
            columns,
        }
    }

    /// Renders the cube as a plain-text table for examples and debugging.
    pub fn render_table(&self, max_rows: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let level_names = self.group_by.level_names(&self.schema);
        let mut header: Vec<String> = level_names.iter().map(|s| s.to_string()).collect();
        header.extend(self.columns.iter().map(|c| c.name().to_string()));
        let mut rows: Vec<Vec<String>> = Vec::new();
        for row in 0..self.len().min(max_rows) {
            let coord = self.coordinate(row);
            let mut cells: Vec<String> = match coord.names(&self.schema, &self.group_by) {
                Ok(names) => names.into_iter().map(|s| s.to_string()).collect(),
                Err(_) => coord.members().iter().map(|m| m.to_string()).collect(),
            };
            for c in &self.columns {
                let rendered = match c {
                    CubeColumn::Numeric(nc) => match nc.get(row) {
                        Some(v) => format!("{v:.4}"),
                        None => "null".to_string(),
                    },
                    CubeColumn::Label(lc) => lc.get(row).unwrap_or("null").to_string(),
                };
                cells.push(rendered);
            }
            rows.push(cells);
        }
        let mut widths: Vec<usize> = header.iter().map(String::len).collect();
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let render_row = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(out, "| {:<width$} ", cell, width = widths[i]);
            }
            out.push_str("|\n");
        };
        render_row(&header, &mut out);
        for (i, w) in widths.iter().enumerate() {
            let _ = write!(&mut out, "|{:-<width$}", "", width = w + 2);
            if i + 1 == widths.len() {
                out.push_str("|\n");
            }
        }
        for row in &rows {
            render_row(row, &mut out);
        }
        if self.len() > max_rows {
            let _ = writeln!(&mut out, "… {} more rows", self.len() - max_rows);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::HierarchyBuilder;
    use crate::schema::{AggOp, MeasureDef};

    fn schema() -> Arc<CubeSchema> {
        let mut product = HierarchyBuilder::new("Product", ["product", "type"]);
        product.add_member_chain(&["Apple", "Fresh Fruit"]).unwrap();
        product.add_member_chain(&["Pear", "Fresh Fruit"]).unwrap();
        product.add_member_chain(&["Lemon", "Fresh Fruit"]).unwrap();
        let mut store = HierarchyBuilder::new("Store", ["country"]);
        store.add_member_chain(&["Italy"]).unwrap();
        store.add_member_chain(&["France"]).unwrap();
        Arc::new(CubeSchema::new(
            "SALES",
            vec![product.build().unwrap(), store.build().unwrap()],
            vec![MeasureDef::new("quantity", AggOp::Sum)],
        ))
    }

    fn figure_1_target(schema: &Arc<CubeSchema>) -> DerivedCube {
        // Figure 1, cube C: Italy slice with quantities 100/90/30.
        let g = GroupBySet::from_level_names(schema, &["product", "country"]).unwrap();
        let italy = MemberId(0);
        DerivedCube::from_parts(
            schema.clone(),
            g,
            vec![vec![MemberId(0), MemberId(1), MemberId(2)], vec![italy; 3]],
            vec![CubeColumn::Numeric(NumericColumn::dense("quantity", vec![100.0, 90.0, 30.0]))],
        )
        .unwrap()
    }

    #[test]
    fn from_parts_validates_lengths() {
        let s = schema();
        let g = GroupBySet::from_level_names(&s, &["product"]).unwrap();
        let bad = DerivedCube::from_parts(
            s.clone(),
            g,
            vec![vec![MemberId(0), MemberId(1)]],
            vec![CubeColumn::Numeric(NumericColumn::dense("quantity", vec![1.0]))],
        );
        assert!(matches!(bad, Err(ModelError::RaggedColumns { .. })));
    }

    #[test]
    fn cells_expose_coordinates_and_measures() {
        let s = schema();
        let cube = figure_1_target(&s);
        assert_eq!(cube.len(), 3);
        let cell = cube.cells().next().unwrap();
        assert_eq!(cell.numeric("quantity"), Some(100.0));
        assert_eq!(cell.coordinate().names(&s, cube.group_by()).unwrap(), vec!["Apple", "Italy"]);
    }

    #[test]
    fn add_column_rejects_duplicates_and_ragged() {
        let s = schema();
        let mut cube = figure_1_target(&s);
        assert!(matches!(
            cube.add_column(CubeColumn::Numeric(NumericColumn::dense("quantity", vec![0.0; 3]))),
            Err(ModelError::DuplicateColumn(_))
        ));
        assert!(matches!(
            cube.add_column(CubeColumn::Numeric(NumericColumn::dense("diff", vec![0.0; 2]))),
            Err(ModelError::RaggedColumns { .. })
        ));
        cube.add_column(CubeColumn::Numeric(NumericColumn::dense("diff", vec![0.0; 3]))).unwrap();
        assert_eq!(cube.column_names(), vec!["quantity", "diff"]);
    }

    #[test]
    fn nullable_columns_round_trip() {
        let col = NumericColumn::nullable("x", vec![Some(1.0), None, Some(3.0)]);
        assert_eq!(col.get(0), Some(1.0));
        assert_eq!(col.get(1), None);
        assert_eq!(col.valid_values().collect::<Vec<_>>(), vec![1.0, 3.0]);
    }

    #[test]
    fn label_column_dictionary_encodes() {
        let mut col = LabelColumn::new("label");
        for l in ["good", "bad", "good", "good"] {
            col.push(Some(l));
        }
        col.push(None);
        assert_eq!(col.distinct().len(), 2);
        assert_eq!(col.get(0), Some("good"));
        assert_eq!(col.get(4), None);
        assert_eq!(col.len(), 5);
    }

    #[test]
    fn sort_by_coordinates_reorders_all_columns() {
        let s = schema();
        let g = GroupBySet::from_level_names(&s, &["product"]).unwrap();
        let labels = LabelColumn::from_codes(
            "label",
            vec!["bad".into(), "ok".into()],
            vec![Some(0), None, Some(1)],
        );
        let mut cube = DerivedCube::from_parts(
            s,
            g,
            vec![vec![MemberId(2), MemberId(0), MemberId(1)]],
            vec![
                CubeColumn::Numeric(NumericColumn::dense("q", vec![30.0, 100.0, 90.0])),
                CubeColumn::Label(labels),
            ],
        )
        .unwrap();
        cube.sort_by_coordinates();
        assert_eq!(cube.coord_cols()[0], vec![MemberId(0), MemberId(1), MemberId(2)]);
        assert_eq!(cube.numeric_column("q").unwrap().data, vec![100.0, 90.0, 30.0]);
        let labels = cube.label_column("label").unwrap();
        assert_eq!(
            (0..3).map(|r| labels.get(r)).collect::<Vec<_>>(),
            [None, Some("ok"), Some("bad")]
        );
        assert_eq!(labels.distinct(), ["bad", "ok"]);
    }

    #[test]
    fn render_table_is_well_formed() {
        let s = schema();
        let cube = figure_1_target(&s);
        let table = cube.render_table(2);
        assert!(table.contains("product"));
        assert!(table.contains("Apple"));
        assert!(table.contains("… 1 more rows"));
    }
}
