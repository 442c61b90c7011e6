//! Derived cubes: sparse, columnar results of cube queries.
//!
//! A [`DerivedCube`] realizes the paper's partial function from coordinates
//! to measure tuples (Definitions 2.4/2.6). Storage is columnar: one column
//! of coordinates, each packed into a `u64` by the group-by set's
//! [`KeyLayout`] — the form a `get` computes cells in, so it hands its keys
//! over as they are, ascending — plus a set of value columns. Value columns
//! are either numeric (measures, derived measures produced by `⊟`/`⊡`
//! transforms) or label columns (produced by the labeling step, as codes
//! into a label table). Numeric columns carry a validity bitmap so that the
//! `assess*` variant can represent cells "completed with null values"
//! (Section 4.2, left-outer join).

use std::sync::Arc;

use crate::coordinate::Coordinate;
use crate::error::ModelError;
use crate::groupby::GroupBySet;
use crate::key::KeyLayout;
use crate::level::{Level, MemberId};
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

/// A sparse derived cube (Definition 2.6) over a shared [`CubeSchema`].
#[derive(Debug, Clone)]
pub struct DerivedCube {
    schema: Arc<CubeSchema>,
    group_by: GroupBySet,
    /// `KeyLayout::for_group_by(schema, group_by)`: the layout every `get`
    /// and view of this group-by set packs its cells with.
    layout: KeyLayout,
    /// One packed coordinate per cell.
    keys: Vec<u64>,
    columns: Vec<CubeColumn>,
}

/// The level of every component of `group_by`'s coordinates, and the
/// layout they pack with; a layout wider than a machine word is refused.
fn components<'s>(
    schema: &'s CubeSchema,
    group_by: &GroupBySet,
) -> Result<(Vec<&'s Level>, KeyLayout), ModelError> {
    let levels = group_by
        .included_hierarchies()
        .map(|(hi, li)| {
            schema
                .hierarchy(hi)
                .and_then(|h| h.level(li))
                .ok_or_else(|| ModelError::Invariant("group-by set out of schema range".into()))
        })
        .collect::<Result<_, _>>()?;
    let layout = KeyLayout::for_group_by(schema, group_by);
    if !layout.fits_u64() {
        return Err(ModelError::Invariant(format!(
            "a coordinate of this group-by set needs {} key bits, more than 64",
            layout.total_bits()
        )));
    }
    Ok((levels, layout))
}

/// Refuses `member`, the largest of a component, when it lies outside the
/// domain of the component's `level`.
fn in_domain(level: &Level, member: Option<u32>) -> Result<(), ModelError> {
    match member {
        Some(m) if m as usize >= level.cardinality() => Err(ModelError::UnknownMember {
            level: level.name().to_string(),
            member: MemberId(m).to_string(),
        }),
        _ => Ok(()),
    }
}

impl DerivedCube {
    /// Creates a cube from one packed coordinate per cell — packed with the
    /// group-by set's [`KeyLayout`] — and value columns as long as `keys`.
    /// A group-by set wider than 64 key bits and a key outside the layout
    /// or with a member outside its level's domain are refused: keys may
    /// come from a remote shard's partial, and every consumer decodes a
    /// member by indexing its level.
    pub fn from_keys(
        schema: Arc<CubeSchema>,
        group_by: GroupBySet,
        keys: Vec<u64>,
        columns: Vec<CubeColumn>,
    ) -> Result<Self, ModelError> {
        let (levels, layout) = components(&schema, &group_by)?;
        if let Some(&key) = keys.iter().max().filter(|&&key| !layout.contains(key)) {
            return Err(ModelError::Invariant(format!("key {key:#x} is outside its layout")));
        }
        for (c, level) in levels.into_iter().enumerate() {
            in_domain(level, layout.codes(&keys, c).max())?;
        }
        let mut seen = std::collections::HashSet::new();
        for c in &columns {
            if c.len() != keys.len() {
                return Err(ModelError::RaggedColumns {
                    expected: keys.len(),
                    got: c.len(),
                    column: c.name().to_string(),
                });
            }
            if !seen.insert(c.name()) {
                return Err(ModelError::DuplicateColumn(c.name().to_string()));
            }
        }
        Ok(DerivedCube { schema, group_by, layout, keys, columns })
    }

    /// Creates a cube from parallel coordinate columns — one per included
    /// hierarchy, packed here — and value columns. A member outside its
    /// level's domain is refused: its bits would spill into the
    /// neighbouring component.
    pub fn from_parts(
        schema: Arc<CubeSchema>,
        group_by: GroupBySet,
        coords: Vec<Vec<MemberId>>,
        columns: Vec<CubeColumn>,
    ) -> Result<Self, ModelError> {
        if coords.len() != group_by.arity() {
            return Err(ModelError::CoordinateArity {
                expected: group_by.arity(),
                got: coords.len(),
            });
        }
        let n = coords.first().map_or_else(|| columns.first().map_or(0, CubeColumn::len), Vec::len);
        let (levels, layout) = components(&schema, &group_by)?;
        let mut keys = vec![0; n];
        for ((c, col), level) in coords.iter().enumerate().zip(levels) {
            if col.len() != n {
                return Err(ModelError::RaggedColumns {
                    expected: n,
                    got: col.len(),
                    column: "<coordinate>".into(),
                });
            }
            in_domain(level, col.iter().max().map(|m| m.0))?;
            for (key, &member) in keys.iter_mut().zip(col) {
                layout.pack_component(key, c, member);
            }
        }
        DerivedCube::from_keys(schema, group_by, keys, columns)
    }

    pub fn schema(&self) -> &Arc<CubeSchema> {
        &self.schema
    }

    pub fn group_by(&self) -> &GroupBySet {
        &self.group_by
    }

    /// The layout the coordinates are packed with.
    pub fn layout(&self) -> &KeyLayout {
        &self.layout
    }

    /// One packed coordinate per cell, in row order — ascending, and so in
    /// coordinate order, for a cube a `get` produced.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// `|C|`: the number of coordinates (cells) of the cube.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The coordinates decoded into one member-id column per included
    /// hierarchy (group-by order).
    pub fn coord_cols(&self) -> Vec<Vec<MemberId>> {
        let decode = |c| self.layout.codes(&self.keys, c).map(MemberId).collect();
        (0..self.layout.arity()).map(decode).collect()
    }

    /// All value columns.
    pub fn columns(&self) -> &[CubeColumn] {
        &self.columns
    }

    /// The coordinate of row `row`.
    pub fn coordinate(&self, row: usize) -> Coordinate {
        Coordinate::new(self.layout.unpack(self.keys[row]))
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
    /// deterministic output; reorders every column consistently. Compares
    /// decoded coordinates, not keys: it is the reference key order is
    /// checked against.
    pub fn sort_by_coordinates(&mut self) {
        let mut perm: Vec<u32> = (0..self.len() as u32).collect();
        let coord_cols = self.coord_cols();
        perm.sort_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            for col in &coord_cols {
                match col[a].cmp(&col[b]) {
                    std::cmp::Ordering::Equal => continue,
                    other => return other,
                }
            }
            std::cmp::Ordering::Equal
        });
        *self = self.take_rows(&perm);
    }

    /// The cells at `rows`, in that order: keys, numeric data and validity,
    /// and label codes are gathered as they are.
    pub fn take_rows(&self, rows: &[u32]) -> DerivedCube {
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
            layout: self.layout.clone(),
            keys: rows.iter().map(|&r| self.keys[r as usize]).collect(),
            columns,
        }
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
        let mut time = HierarchyBuilder::new("Time", ["year"]);
        for year in ["1994", "1995", "1996", "1997", "1998"] {
            time.add_member_chain(&[year]).unwrap();
        }
        Arc::new(CubeSchema::new(
            "SALES",
            vec![product.build().unwrap(), store.build().unwrap(), time.build().unwrap()],
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
    fn from_parts_refuses_members_outside_their_domain() {
        let s = schema();
        let g = GroupBySet::from_level_names(&s, &["product", "country"]).unwrap();
        // product: 3 members, 2 bits; country: 2 members, 1 bit. Packed
        // unmasked, (Apple, #2) would be the key of (Pear, Italy).
        let bleeding = DerivedCube::from_parts(
            s.clone(),
            g.clone(),
            vec![vec![MemberId(0)], vec![MemberId(2)]],
            Vec::new(),
        );
        assert!(matches!(bleeding, Err(ModelError::UnknownMember { .. })));
        // Product #3, and a bit above the layout's three.
        let key = DerivedCube::from_keys(s.clone(), g.clone(), vec![0b110], Vec::new());
        assert!(matches!(key, Err(ModelError::UnknownMember { .. })));
        let outside = DerivedCube::from_keys(s, g, vec![0b1000], Vec::new());
        assert!(matches!(outside, Err(ModelError::Invariant(_))));
        // 65 two-member hierarchies need 65 key bits.
        let flags: Vec<_> = (0..65)
            .map(|i| {
                let mut h = HierarchyBuilder::new(format!("H{i}"), [format!("l{i}")]);
                h.add_member_chain(&["no"]).unwrap();
                h.add_member_chain(&["yes"]).unwrap();
                h.build().unwrap()
            })
            .collect();
        let wide = Arc::new(CubeSchema::new("FLAGS", flags, Vec::new()));
        let top = GroupBySet::top(&wide);
        let refused = DerivedCube::from_parts(wide, top, vec![Vec::new(); 65], Vec::new());
        assert!(matches!(refused, Err(ModelError::Invariant(_))));
    }

    #[test]
    fn key_column_round_trips_coordinates_in_order() {
        let s = schema();
        // Every coordinate of (product, country, year), in a scrambled order.
        let mut coords: Vec<[u32; 3]> = Vec::new();
        for p in 0..3 {
            for c in 0..2 {
                for y in 0..5 {
                    coords.push([p, c, y]);
                }
            }
        }
        coords.sort_by_key(|[p, c, y]| (y * 7 + p * 3 + c) % 11);
        let n = coords.len();
        for levels in [&[][..], &["year"], &["product", "country", "year"]] {
            let g = GroupBySet::from_level_names(&s, levels).unwrap();
            // The group-by's components are the last `arity` of each triple.
            let members = |c: usize| coords.iter().map(|t| MemberId(t[c])).collect();
            let cols: Vec<Vec<MemberId>> = (3 - levels.len()..3).map(members).collect();
            let q = NumericColumn::dense("q", (0..n).map(|i| i as f64).collect());
            let cube =
                DerivedCube::from_parts(s.clone(), g, cols.clone(), vec![CubeColumn::Numeric(q)])
                    .unwrap();
            assert_eq!(cube.len(), n);
            assert_eq!(cube.coord_cols(), cols);
            let coordinate = |r: usize| Coordinate::new(cols.iter().map(|c| c[r]).collect());
            for a in 0..n {
                assert_eq!(cube.coordinate(a), coordinate(a));
                for b in 0..n {
                    assert_eq!(cube.keys()[a] < cube.keys()[b], coordinate(a) < coordinate(b));
                }
            }
            let picked = [n - 1, 0, n - 1, n / 2].map(|r| r as u32);
            let taken = cube.take_rows(&picked);
            for (r, &p) in picked.iter().enumerate() {
                assert_eq!(taken.coordinate(r), coordinate(p as usize));
            }
            assert_eq!(taken.numeric_column("q").unwrap().data, picked.map(f64::from));
        }
        // Figure 1's first cell decodes back to its member names.
        let cube = figure_1_target(&s);
        let names = cube.coordinate(0).names(&s, cube.group_by()).unwrap();
        assert_eq!(names, vec!["Apple", "Italy"]);
    }
}
