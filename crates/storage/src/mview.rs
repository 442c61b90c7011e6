//! Materialized aggregate views and roll-up view matching.
//!
//! The paper's experimental setup creates materialized views "to improve
//! performances". A [`MaterializedAggregate`] is the stored answer of its
//! defining `get`: a predicate-free [`CubeQuery`] over its source cube,
//! kept as the engine produces every scan result — the packed group-by keys
//! in ascending order, one finalized value column per measure. For the
//! distributive operators a finalized value is its own partial state, so
//! an append folds into the view key by key. Whether a cube query can be
//! answered from the view by further roll-up instead of scanning the fact
//! table is decided on the defining query by the cube algebra's one
//! containment relation, [`CubeQuery::relate`]: the view answers a query it
//! is `Equal` to or `Usable` for (see `Catalog::best_view`).
//!
//! The keys are packed by the engine's key layout of the query's group-by
//! set; this crate only checks that they ascend.

use olap_model::CubeQuery;

use crate::error::StorageError;

/// A pre-aggregated view: the keys and finalized measure values of its
/// defining query's cells, in ascending key order.
#[derive(Debug, Clone)]
pub struct MaterializedAggregate {
    name: String,
    query: CubeQuery,
    keys: Vec<u64>,
    values: Vec<Vec<f64>>,
}

impl MaterializedAggregate {
    /// Assembles a view from its defining `query` (predicate-free) and the
    /// query's cells: `keys` strictly ascending, one column of `values` per
    /// measure of the query, each as long as `keys`.
    pub fn new(
        name: impl Into<String>,
        query: CubeQuery,
        keys: Vec<u64>,
        values: Vec<Vec<f64>>,
    ) -> Result<Self, StorageError> {
        let name = name.into();
        if !query.predicates.is_empty() {
            return Err(StorageError::InvalidBinding(format!(
                "view `{name}` is defined by a predicated query"
            )));
        }
        if !keys.is_sorted_by(|a, b| a < b) {
            return Err(StorageError::InvalidBinding(format!(
                "view `{name}` has keys out of ascending order or repeated"
            )));
        }
        if values.len() != query.measures.len() {
            return Err(StorageError::InvalidBinding(format!(
                "view `{name}` names {} measures but stores {}",
                query.measures.len(),
                values.len()
            )));
        }
        for (measure, col) in query.measures.iter().zip(&values) {
            if col.len() != keys.len() {
                return Err(StorageError::RaggedColumns {
                    table: name,
                    expected: keys.len(),
                    got: col.len(),
                    column: measure.clone(),
                });
            }
        }
        Ok(MaterializedAggregate { name, query, keys, values })
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// The defining query: `query.cube` is the view's source.
    pub fn query(&self) -> &CubeQuery {
        &self.query
    }

    /// The packed keys of the view's cells, strictly ascending.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The finalized values of a measure, if materialized.
    pub fn measure(&self, name: &str) -> Option<&[f64]> {
        self.query.measures.iter().position(|m| m == name).map(|i| self.values[i].as_slice())
    }

    /// The finalized values of every measure, in the query's measure order.
    pub fn values(&self) -> &[Vec<f64>] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olap_model::{
        AggOp, CubeSchema, GroupBySet, HierarchyBuilder, MeasureDef, MemberId, Predicate,
        PredicateOp, Relation,
    };

    /// View matching as `Catalog::best_view` decides it: the defining query
    /// is `Equal` to or `Usable` for `q`.
    trait Answers {
        fn answers(&self, q: &CubeQuery) -> bool;
    }

    impl Answers for MaterializedAggregate {
        fn answers(&self, q: &CubeQuery) -> bool {
            // `SALES`: two hierarchies of three levels, one member each.
            let h = |name: &str| {
                let mut b = HierarchyBuilder::new(name, [0, 1, 2].map(|l| format!("{name}{l}")));
                b.add_member_chain(&["a", "b", "c"]).unwrap();
                b.build().unwrap()
            };
            let measures = ["quantity", "storeSales"].map(|m| MeasureDef::new(m, AggOp::Sum));
            let schema = CubeSchema::new("SALES", vec![h("h0"), h("h1")], measures.to_vec());
            matches!(self.query().relate(q, &schema), Relation::Equal | Relation::Usable { .. })
        }
    }

    fn gb(slots: Vec<Option<usize>>) -> GroupBySet {
        GroupBySet::from_slots(slots)
    }

    fn query(slots: Vec<Option<usize>>, measure: &str) -> CubeQuery {
        CubeQuery::new("SALES", gb(slots), vec![], vec![measure.to_string()])
    }

    /// A predicate on level `level` of hierarchy `hierarchy`.
    fn on(hierarchy: usize, level: usize) -> Predicate {
        Predicate { hierarchy, level, op: PredicateOp::Eq(MemberId(0)) }
    }

    fn view() -> MaterializedAggregate {
        // View at ⟨month (level 1 of h0), product (level 0 of h1)⟩.
        let q = query(vec![Some(1), Some(0)], "quantity");
        MaterializedAggregate::new("mv_month_product", q, vec![0, 1], vec![vec![10.0, 20.0]])
            .unwrap()
    }

    #[test]
    fn matches_coarser_query() {
        let v = view();
        // Query at ⟨year (level 2), category (level 2)⟩ with no predicates.
        assert!(v.answers(&query(vec![Some(2), Some(2)], "quantity")));
        // Same group-by works too.
        assert!(v.answers(&query(vec![Some(1), Some(0)], "quantity")));
        // Another cube's query does not.
        let other =
            CubeQuery { cube: "RETURNS".into(), ..query(vec![Some(2), Some(2)], "quantity") };
        assert!(!v.answers(&other));
    }

    #[test]
    fn rejects_finer_query() {
        let v = view();
        // Query wants date (level 0) but view only has month (level 1).
        assert!(!v.answers(&query(vec![Some(0), Some(0)], "quantity")));
    }

    #[test]
    fn predicate_level_must_be_reachable() {
        let v = view();
        let sliced = |p: Predicate| CubeQuery {
            predicates: vec![p],
            ..query(vec![Some(2), None], "quantity")
        };
        // Predicate on (h0, level 1) — view has h0 at level 1: ok.
        assert!(v.answers(&sliced(on(0, 1))));
        // Predicate on (h0, level 0) — finer than the view: not answerable.
        assert!(!v.answers(&sliced(on(0, 0))));
        // Predicate on a hierarchy the view aggregated away entirely.
        let v2 = MaterializedAggregate::new(
            "mv_h0_only",
            query(vec![Some(1), None], "quantity"),
            vec![0],
            vec![vec![10.0]],
        )
        .unwrap();
        assert!(!v2.answers(&sliced(on(1, 1))));
    }

    #[test]
    fn missing_measure_rejected() {
        let v = view();
        assert!(!v.answers(&query(vec![Some(2), Some(2)], "storeSales")));
    }

    #[test]
    fn shape_validation() {
        let q = || query(vec![Some(0)], "m");
        let new = |keys: Vec<u64>, values: Vec<Vec<f64>>| {
            MaterializedAggregate::new("bad", q(), keys, values)
        };
        assert!(new(vec![0, 1], vec![vec![1.0, 2.0]]).is_ok());
        // Keys out of order, or repeated.
        assert!(new(vec![1, 0], vec![vec![1.0, 2.0]]).is_err());
        assert!(new(vec![1, 1], vec![vec![1.0, 2.0]]).is_err());
        // A value column of the wrong length, or a missing one.
        assert!(new(vec![0], vec![vec![1.0, 2.0]]).is_err());
        assert!(new(vec![0], vec![]).is_err());
        // A predicated defining query.
        let predicated = CubeQuery { predicates: vec![on(0, 0)], ..q() };
        assert!(MaterializedAggregate::new("bad", predicated, vec![0], vec![vec![1.0]]).is_err());
    }

    #[test]
    fn measure_access() {
        let v = view();
        assert_eq!(v.measure("quantity"), Some(&[10.0, 20.0][..]));
        assert_eq!(v.measure("nope"), None);
        assert_eq!(v.len(), 2);
        assert_eq!(v.keys(), &[0, 1]);
        assert_eq!(v.query().cube, "SALES");
    }
}
