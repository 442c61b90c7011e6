//! Property tests for the storage layer: persistence round-trips on
//! arbitrary tables and the view-matching rule's soundness.

use std::sync::Arc;

use olap_model::{
    AggOp, CubeQuery, CubeSchema, GroupBySet, HierarchyBuilder, MeasureDef, MemberId, Predicate,
    PredicateOp, Relation,
};
use olap_storage::{persist, Column, MaterializedAggregate, Table};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum ColSpec {
    I64(Vec<i64>),
    F64(Vec<f64>),
    Str(Vec<String>),
}

fn column_spec(rows: usize) -> impl Strategy<Value = ColSpec> {
    prop_oneof![
        proptest::collection::vec(any::<i64>(), rows..=rows).prop_map(ColSpec::I64),
        proptest::collection::vec(
            prop_oneof![
                any::<f64>().prop_filter("finite", |v| v.is_finite()),
                Just(f64::MAX),
                Just(f64::MIN_POSITIVE),
                Just(-0.0),
            ],
            rows..=rows
        )
        .prop_map(ColSpec::F64),
        proptest::collection::vec("[a-zA-Z0-9 _#'-]{0,12}", rows..=rows).prop_map(ColSpec::Str),
    ]
}

fn table() -> impl Strategy<Value = Table> {
    (0usize..40, 1usize..6).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(column_spec(rows), cols..=cols).prop_map(|specs| {
            let columns: Vec<Column> = specs
                .into_iter()
                .enumerate()
                .map(|(i, spec)| match spec {
                    ColSpec::I64(v) => Column::i64(format!("c{i}"), v),
                    ColSpec::F64(v) => Column::f64(format!("c{i}"), v),
                    ColSpec::Str(v) => Column::from_strings(format!("c{i}"), v),
                })
                .collect();
            Table::new("t", columns).expect("generated tables are well-formed")
        })
    })
}

/// Cube `c`: two hierarchies of three levels, measure `m`.
fn schema() -> CubeSchema {
    let h = |name: &str| {
        let mut b = HierarchyBuilder::new(name, [0, 1, 2].map(|l| format!("{name}{l}")));
        b.add_member_chain(&["a", "b", "c"]).unwrap();
        b.build().unwrap()
    };
    CubeSchema::new("c", vec![h("x"), h("y")], vec![MeasureDef::new("m", AggOp::Sum)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any table survives a serialize/deserialize round trip bit-for-bit.
    #[test]
    fn persistence_round_trips(t in table()) {
        let back = persist::read_table(persist::write_table(&t)).unwrap();
        prop_assert_eq!(t.name(), back.name());
        prop_assert_eq!(t.n_rows(), back.n_rows());
        prop_assert_eq!(t.columns().len(), back.columns().len());
        for (a, b) in t.columns().iter().zip(back.columns().iter()) {
            prop_assert_eq!(&a.name, &b.name);
            match (a.as_i64(), b.as_i64()) {
                (Some(x), Some(y)) => prop_assert_eq!(x, y),
                (None, None) => {}
                _ => prop_assert!(false, "type changed for {}", a.name),
            }
            if let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) {
                prop_assert_eq!(x.len(), y.len());
                for (u, v) in x.iter().zip(y) {
                    prop_assert!(u.to_bits() == v.to_bits());
                }
            }
            for row in 0..t.n_rows() {
                prop_assert_eq!(a.string_at(row), b.string_at(row));
            }
        }
    }

    /// Truncating a serialized table anywhere never panics — it either
    /// errors or (for suffix-only cuts of the payload) parses a prefix.
    #[test]
    fn truncated_payloads_never_panic(t in table(), cut_frac in 0.0f64..1.0) {
        let bytes = persist::write_table(&t);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let _ = persist::read_table(&bytes[..cut]);
    }

    /// View matching is sound: whenever the view's defining query is
    /// `Equal` to or `Usable` for the query, the view's
    /// group-by really does roll up to the query's and every predicate level
    /// is reachable from the view's carried level.
    #[test]
    fn view_matching_is_sound(
        view_slots in proptest::collection::vec(proptest::option::of(0usize..3), 2..=2),
        query_slots in proptest::collection::vec(proptest::option::of(0usize..3), 2..=2),
        pred in proptest::option::of((0usize..2, 0usize..3)),
    ) {
        let view_g = GroupBySet::from_slots(view_slots);
        let query_g = GroupBySet::from_slots(query_slots);
        let rows = view_g.arity().max(1) as u64;
        let view = MaterializedAggregate::new(
            "v",
            CubeQuery::new("c", view_g.clone(), vec![], vec!["m".into()]),
            (0..rows).collect(),
            vec![vec![0.0; rows as usize]],
        )
        .unwrap();
        let preds: Vec<(usize, usize)> = pred.into_iter().collect();
        let predicates = preds
            .iter()
            .map(|&(hierarchy, level)| Predicate { hierarchy, level, op: PredicateOp::Eq(MemberId(0)) })
            .collect();
        let q = CubeQuery::new("c", query_g.clone(), predicates, vec!["m".into()]);
        if matches!(view.query().relate(&q, &schema()), Relation::Equal | Relation::Usable { .. }) {
            prop_assert!(view_g.rolls_up_to(&query_g));
            for (hi, li) in &preds {
                let carried = view_g.slots()[*hi];
                prop_assert!(matches!(carried, Some(lv) if lv <= *li));
            }
        }
    }
}

/// Arc-shared dictionaries survive the round trip as value-equal copies.
#[test]
fn shared_dictionaries_round_trip() {
    let c1 = Column::from_strings("a", ["x", "y", "x"]);
    let (codes, dict) = c1.as_dict().unwrap();
    let c2 = Column::dict("b", codes.to_vec(), Arc::clone(dict));
    let t = Table::new("t", vec![c1, c2]).unwrap();
    let back = persist::read_table(persist::write_table(&t)).unwrap();
    assert_eq!(back.column("b").unwrap().string_at(2), Some("x"));
}
