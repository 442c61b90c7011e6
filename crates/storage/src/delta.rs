//! Append deltas: the description of what one fact-batch append changed.
//!
//! The catalog's seqlock version says *that* something changed; a [`Delta`]
//! says *what*: which table grew, which row range is new, and which members
//! of each key column the new rows touch. Downstream layers use it to act
//! incrementally instead of invalidating wholesale — materialized views
//! merge partial aggregates over just the delta rows, and a result cache
//! keeps an entry when every query it ran reads another table or is
//! `Disjoint` from the delta's [selection](Delta::selection) under the cube
//! algebra's containment relation ([`CubeQuery::relate`]).

use std::collections::{BTreeMap, BTreeSet};

use olap_model::{CubeQuery, GroupBySet, MemberId, Predicate, PredicateOp};

use crate::binding::CubeBinding;
use crate::column::Column;

/// Descriptor of one committed append: the appended row range of a table
/// plus the distinct values of every `i64` (key) column in the batch.
///
/// A delta is *stamped* with the settled (even) catalog version its commit
/// produced: a reader holding results computed at the version just before
/// it can decide, query by query, whether those results are still exact.
#[derive(Debug, Clone)]
pub struct Delta {
    table: String,
    start_row: usize,
    rows: usize,
    /// Distinct appended values per `i64` column — for fact tables these
    /// are the finest-level dimension members the delta touches.
    touched: BTreeMap<String, BTreeSet<i64>>,
    /// Settled catalog version after the commit (0 until stamped).
    version: u64,
}

impl Delta {
    /// Describes a batch about to be appended to `table` at `start_row`.
    /// The version is stamped later, by the catalog commit.
    pub fn describe(table: impl Into<String>, start_row: usize, batch: &[Column]) -> Delta {
        let mut touched = BTreeMap::new();
        let mut rows = batch.first().map(Column::len).unwrap_or(0);
        for col in batch {
            rows = rows.max(col.len());
            // Key-like covers both physical layouts: plain `i64` batches
            // and batches carrying already-encoded key columns get the
            // same touched-member sets.
            if let Some(values) = col.i64_iter() {
                touched.insert(col.name.clone(), values.collect());
            }
        }
        Delta { table: table.into(), start_row, rows, touched, version: 0 }
    }

    /// Stamps the settled catalog version the committing mutation produced.
    /// Normally called by [`Catalog::commit_append`](crate::Catalog::
    /// commit_append); public so delta consumers can build stamped
    /// descriptors in tests.
    pub fn stamped(mut self, version: u64) -> Delta {
        self.version = version;
        self
    }

    /// The appended table's name.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// First appended row index (= the table's row count before the append).
    pub fn start_row(&self) -> usize {
        self.start_row
    }

    /// Number of appended rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The settled catalog version of the commit (0 before commit).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The appended rows as a selection over `cube`, bound by `binding`:
    /// one level-0 `in` predicate per hierarchy whose foreign key the batch
    /// carries, listing the members it touches. A hierarchy whose key is
    /// absent, or holds a value that is no member id, is left unrestricted,
    /// so a query the selection is `Disjoint` from provably reads none of
    /// the appended rows.
    pub fn selection(&self, cube: &str, binding: &CubeBinding) -> CubeQuery {
        let schema = binding.schema();
        let predicates = (0..schema.hierarchies().len())
            .filter_map(|hierarchy| {
                let touched = self.touched.get(binding.fk_column(hierarchy))?;
                let members = touched
                    .iter()
                    .map(|&v| u32::try_from(v).ok().map(MemberId))
                    .collect::<Option<Vec<_>>>()?;
                Some(Predicate { hierarchy, level: 0, op: PredicateOp::In(members) })
            })
            .collect();
        CubeQuery::new(cube, GroupBySet::all(schema), predicates, Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use olap_model::{AggOp, CubeSchema, HierarchyBuilder, MeasureDef, Relation};

    use crate::binding::DimInfo;
    use crate::table::Table;

    fn batch() -> Vec<Column> {
        vec![
            Column::i64("ckey", vec![2, 5, 2]),
            Column::f64("revenue", vec![1.0, 2.0, 3.0]),
            Column::i64("skey", vec![0, 0, 1]),
        ]
    }

    /// Cube `LO` over `lineorder`: customers c0–c3 in EAST and c4–c7 in
    /// WEST, suppliers s0–s1 and dates d0–d1, each under one member above.
    fn binding() -> CubeBinding {
        let h = |name: &str, key: &str, members: usize, parent: fn(usize) -> &'static str| {
            let mut b = HierarchyBuilder::new(name, [name.to_string(), format!("{name}_up")]);
            for m in 0..members {
                b.add_member_chain(&[format!("{key}{m}"), parent(m).to_string()]).unwrap();
            }
            b.build().unwrap()
        };
        let hierarchies = vec![
            h("customer", "c", 8, |m| if m < 4 { "EAST" } else { "WEST" }),
            h("supplier", "s", 2, |_| "ALL"),
            h("date", "d", 2, |_| "1997"),
        ];
        let schema =
            CubeSchema::new("LO", hierarchies, vec![MeasureDef::new("revenue", AggOp::Sum)]);
        let keys = ["ckey", "skey", "dkey"];
        let mut columns: Vec<Column> = keys.iter().map(|k| Column::i64(*k, vec![0])).collect();
        columns.push(Column::f64("revenue", vec![1.0]));
        let fact = Table::new("lineorder", columns).unwrap();
        let dims = keys
            .iter()
            .map(|k| DimInfo {
                table: k.to_string(),
                pk: k.to_string(),
                level_columns: vec![k.to_string(), "up".into()],
            })
            .collect();
        let fks = keys.iter().map(|k| k.to_string()).collect();
        CubeBinding::new(Arc::new(schema), &fact, fks, vec!["revenue".into()], dims).unwrap()
    }

    /// `LO` restricted by one predicate, grouped by nothing.
    fn sliced(b: &CubeBinding, hierarchy: usize, level: usize, members: &[u32]) -> CubeQuery {
        let op = PredicateOp::In(members.iter().map(|&m| MemberId(m)).collect());
        let g = GroupBySet::all(b.schema());
        CubeQuery::new("LO", g, vec![Predicate { hierarchy, level, op }], vec!["revenue".into()])
    }

    #[test]
    fn describe_collects_touched_members_per_key_column() {
        let d = Delta::describe("lineorder", 100, &batch());
        assert_eq!(d.table(), "lineorder");
        assert_eq!(d.start_row(), 100);
        assert_eq!(d.rows(), 3);
        assert_eq!(d.version(), 0);
        let ckeys: Vec<i64> = d.touched["ckey"].iter().copied().collect();
        assert_eq!(ckeys, vec![2, 5]);
        let skeys: Vec<i64> = d.touched["skey"].iter().copied().collect();
        assert_eq!(skeys, vec![0, 1]);
        assert!(!d.touched.contains_key("revenue"), "measure columns carry no member sets");
        assert_eq!(d.touched.keys().collect::<Vec<_>>(), vec!["ckey", "skey"]);
    }

    #[test]
    fn selection_is_one_level_0_in_per_touched_key() {
        let b = binding();
        let selection = Delta::describe("lineorder", 0, &batch()).selection("LO", &b);
        assert_eq!(selection.cube, "LO");
        assert_eq!(selection.group_by, GroupBySet::all(b.schema()));
        let restricted: Vec<(usize, usize, &[MemberId])> =
            selection.predicates.iter().map(|p| (p.hierarchy, p.level, p.members())).collect();
        let (customers, suppliers) = ([MemberId(2), MemberId(5)], [MemberId(0), MemberId(1)]);
        assert_eq!(restricted, vec![(0, 0, &customers[..]), (1, 0, &suppliers[..])]);
    }

    #[test]
    fn overlap_test_is_exact_for_known_columns() {
        let b = binding();
        let selection = Delta::describe("lineorder", 0, &batch()).selection("LO", &b);
        let relate = |q: CubeQuery| q.relate(&selection, b.schema());
        // ckey touches {2, 5}: a slice excluding both is disjoint.
        assert_eq!(relate(sliced(&b, 0, 0, &[0, 1, 3, 4, 6, 7])), Relation::Disjoint);
        assert_ne!(relate(sliced(&b, 0, 0, &[0, 5])), Relation::Disjoint);
        // Rolled up: c2 is in EAST and c5 in WEST, so either region overlaps.
        assert_ne!(relate(sliced(&b, 0, 1, &[0])), Relation::Disjoint);
        let east_only = Delta::describe("lineorder", 0, &[Column::i64("ckey", vec![1, 3])]);
        let west = sliced(&b, 0, 1, &[1]);
        assert_eq!(west.relate(&east_only.selection("LO", &b), b.schema()), Relation::Disjoint);
    }

    #[test]
    fn overlap_test_is_conservative_for_the_unknown() {
        let b = binding();
        let selection = Delta::describe("lineorder", 0, &batch()).selection("LO", &b);
        // The batch carries no date key: a date slice must assume overlap.
        assert_eq!(sliced(&b, 2, 0, &[1]).relate(&selection, b.schema()), Relation::Overlaps);
        // A value outside the customer domain cannot be rolled up to a region.
        let stray = Delta::describe("lineorder", 0, &[Column::i64("ckey", vec![9])]);
        let region = sliced(&b, 0, 1, &[1]);
        assert_eq!(region.relate(&stray.selection("LO", &b), b.schema()), Relation::Overlaps);
        // A value that is no member id leaves its hierarchy unrestricted.
        let negative = Delta::describe("lineorder", 0, &[Column::i64("ckey", vec![-1])]);
        assert!(negative.selection("LO", &b).predicates.is_empty());
    }

    #[test]
    fn encoded_batch_columns_report_the_same_touched_sets() {
        let plain = Delta::describe("lineorder", 0, &batch());
        let mut encoded_batch = batch();
        encoded_batch[0] = encoded_batch[0].encode_key(8).unwrap();
        encoded_batch[2] = encoded_batch[2].encode_key(2).unwrap();
        let encoded = Delta::describe("lineorder", 0, &encoded_batch);
        assert_eq!(encoded.touched, plain.touched);
        assert_eq!(encoded.touched.len(), 2);
    }

    #[test]
    fn empty_batch_is_an_empty_delta() {
        let d = Delta::describe("lineorder", 42, &[]);
        assert_eq!(d.rows(), 0);
        assert!(d.touched.is_empty());
    }
}
