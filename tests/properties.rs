//! Workspace-level property tests: the engine against a brute-force oracle,
//! roll-up consistency, and strategy equivalence on randomized cubes.

use std::collections::HashMap;
use std::sync::Arc;

use assess_olap::assess::ast::AssessStatement;
use assess_olap::assess::exec::AssessRunner;
use assess_olap::assess::memops;
use assess_olap::assess::plan::Strategy as ExecStrategy;
use assess_olap::engine::{AttachSpec, Engine, Keep, Rewrite};
use assess_olap::model::{
    AggOp, CubeQuery, CubeSchema, GroupBySet, HierarchyBuilder, MeasureDef, Predicate,
};
use assess_olap::storage::{binding::DimInfo, Catalog, Column, CubeBinding, Table};
use proptest::prelude::*;

/// A randomized fact table over a fixed 2-hierarchy schema:
/// `Product(product ⪰ type)` with 6 products in 2 types, and
/// `Store(store ⪰ country)` with 4 stores in 2 countries.
#[derive(Debug, Clone)]
struct MiniCube {
    rows: Vec<(i64, i64, f64)>,
}

const N_PRODUCTS: i64 = 6;
const N_STORES: i64 = 4;

fn mini_cube() -> impl Strategy<Value = MiniCube> {
    proptest::collection::vec((0..N_PRODUCTS, 0..N_STORES, -100i32..100), 1..200).prop_map(|rows| {
        MiniCube { rows: rows.into_iter().map(|(p, s, q)| (p, s, q as f64)).collect() }
    })
}

fn build(mini: &MiniCube) -> (Arc<Catalog>, Arc<CubeSchema>) {
    let mut product = HierarchyBuilder::new("Product", ["product", "type"]);
    for p in 0..N_PRODUCTS {
        let ty = if p < N_PRODUCTS / 2 { "alpha" } else { "beta" };
        product.add_member_chain(&[format!("p{p}"), ty.to_string()]).unwrap();
    }
    let mut store = HierarchyBuilder::new("Store", ["store", "country"]);
    for s in 0..N_STORES {
        let country = if s < N_STORES / 2 { "Italy" } else { "France" };
        store.add_member_chain(&[format!("s{s}"), country.to_string()]).unwrap();
    }
    let schema = Arc::new(CubeSchema::new(
        "MINI",
        vec![product.build().unwrap(), store.build().unwrap()],
        vec![MeasureDef::new("quantity", AggOp::Sum)],
    ));
    let fact = Table::new(
        "fact",
        vec![
            Column::i64("pkey", mini.rows.iter().map(|r| r.0).collect()),
            Column::i64("skey", mini.rows.iter().map(|r| r.1).collect()),
            Column::f64("quantity", mini.rows.iter().map(|r| r.2).collect()),
        ],
    )
    .unwrap();
    let binding = CubeBinding::new(
        schema.clone(),
        &fact,
        vec!["pkey".into(), "skey".into()],
        vec!["quantity".into()],
        vec![
            DimInfo {
                table: "product".into(),
                pk: "pkey".into(),
                level_columns: vec!["pkey".into(), "type".into()],
            },
            DimInfo {
                table: "store".into(),
                pk: "skey".into(),
                level_columns: vec!["skey".into(), "country".into()],
            },
        ],
    )
    .unwrap();
    let catalog = Arc::new(Catalog::new());
    catalog.register_table(fact);
    catalog.register_binding("MINI", binding);
    (catalog, schema)
}

/// Brute-force reference: group-by + sum in plain HashMaps.
fn oracle(
    mini: &MiniCube,
    schema: &CubeSchema,
    levels: &[&str],
    pred: Option<(&str, &str)>,
) -> HashMap<Vec<String>, f64> {
    let resolve = |hi: usize, li: usize, key: i64| -> String {
        let h = schema.hierarchy(hi).unwrap();
        let m = h.roll_member(0, li, assess_olap::model::MemberId(key as u32)).unwrap();
        h.level(li).unwrap().member_name(m).unwrap().to_string()
    };
    let mut out: HashMap<Vec<String>, f64> = HashMap::new();
    for (p, s, q) in &mini.rows {
        if let Some((level, member)) = pred {
            let (hi, li) = schema.locate_level(level).unwrap();
            let key = if hi == 0 { *p } else { *s };
            if resolve(hi, li, key) != member {
                continue;
            }
        }
        let mut coord = Vec::new();
        for level in levels {
            let (hi, li) = schema.locate_level(level).unwrap();
            let key = if hi == 0 { *p } else { *s };
            coord.push(resolve(hi, li, key));
        }
        *out.entry(coord).or_insert(0.0) += q;
    }
    out
}

fn engine_result(
    catalog: &Arc<Catalog>,
    schema: &CubeSchema,
    levels: &[&str],
    pred: Option<(&str, &str)>,
) -> HashMap<Vec<String>, f64> {
    let engine = Engine::new(catalog.clone());
    let g = GroupBySet::from_level_names(schema, levels).unwrap();
    let preds = pred.map(|(l, m)| vec![Predicate::eq(schema, l, m).unwrap()]).unwrap_or_default();
    let q = CubeQuery::new("MINI", g, preds, vec!["quantity".into()]);
    let cube = engine.get(&q).unwrap().cube;
    let col = cube.numeric_column("quantity").unwrap();
    (0..cube.len())
        .map(|row| {
            let names = cube
                .coordinate(row)
                .names(cube.schema(), cube.group_by())
                .unwrap()
                .into_iter()
                .map(str::to_string)
                .collect();
            (names, col.get(row).unwrap())
        })
        .collect()
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine's aggregation equals the brute-force oracle at every
    /// group-by granularity, with and without predicates.
    #[test]
    fn engine_matches_oracle(mini in mini_cube()) {
        let (catalog, schema) = build(&mini);
        for levels in [
            vec!["product", "store"],
            vec!["product", "country"],
            vec!["type", "country"],
            vec!["type"],
            vec!["country"],
        ] {
            let expect = oracle(&mini, &schema, &levels, None);
            let got = engine_result(&catalog, &schema, &levels, None);
            prop_assert_eq!(expect.len(), got.len(), "cardinality at {:?}", levels);
            for (coord, v) in &expect {
                let g = got.get(coord).copied().unwrap_or(f64::NAN);
                prop_assert!(close(*v, g), "{:?}: {} != {}", coord, v, g);
            }
        }
        let expect = oracle(&mini, &schema, &["product", "country"], Some(("country", "Italy")));
        let got = engine_result(&catalog, &schema, &["product", "country"], Some(("country", "Italy")));
        prop_assert_eq!(expect, got);
    }

    /// Roll-up consistency: aggregating a fine derived cube up to a coarse
    /// group-by set equals querying the coarse group-by directly.
    #[test]
    fn rollup_consistency(mini in mini_cube()) {
        let (catalog, schema) = build(&mini);
        let engine = Engine::new(catalog.clone());
        let fine_g = GroupBySet::from_level_names(&schema, &["product", "store"]).unwrap();
        let coarse_g = GroupBySet::from_level_names(&schema, &["type", "country"]).unwrap();
        let fine = engine
            .get(&CubeQuery::new("MINI", fine_g.clone(), vec![], vec!["quantity".into()]))
            .unwrap()
            .cube;
        let coarse = engine
            .get(&CubeQuery::new("MINI", coarse_g.clone(), vec![], vec!["quantity".into()]))
            .unwrap()
            .cube;
        // Roll the fine cube up by hand.
        let mut rolled: HashMap<assess_olap::model::Coordinate, f64> = HashMap::new();
        let col = fine.numeric_column("quantity").unwrap();
        for row in 0..fine.len() {
            let coord = fine.coordinate(row).roll_up(&schema, &fine_g, &coarse_g).unwrap();
            *rolled.entry(coord).or_insert(0.0) += col.get(row).unwrap();
        }
        prop_assert_eq!(rolled.len(), coarse.len());
        let ccol = coarse.numeric_column("quantity").unwrap();
        for row in 0..coarse.len() {
            let v = ccol.get(row).unwrap();
            let r = rolled.get(&coarse.coordinate(row)).copied().unwrap_or(f64::NAN);
            prop_assert!(close(v, r), "{} != {}", v, r);
        }
    }

    /// NP, JOP and POP produce identical assessed cubes for sibling
    /// statements on arbitrary data (Section 5's rewrites are sound).
    #[test]
    fn sibling_strategy_equivalence(mini in mini_cube()) {
        let (catalog, _schema) = build(&mini);
        let runner = AssessRunner::new(Engine::new(catalog));
        let stmt = AssessStatement::on("MINI")
            .slice("country", "Italy")
            .by(["product", "country"])
            .assess("quantity")
            .against_sibling("country", "France")
            .labels_named("quartiles")
            .build();
        let resolved = runner.resolve(&stmt).unwrap();
        let results: Vec<_> = ExecStrategy::all()
            .into_iter()
            .filter(|s| s.feasible_for(&resolved.benchmark))
            .map(|s| runner.execute(&resolved, s).unwrap().0.cells())
            .collect();
        for window in results.windows(2) {
            prop_assert_eq!(&window[0], &window[1]);
        }
    }

    /// The engine's fused joins and pivot agree with the client-side ones on
    /// the same inputs (the "pushed to SQL" path computes the same operator):
    /// partial join, natural join, roll-up join and pivot, inner and outer.
    #[test]
    fn fused_join_matches_memory_join(mini in mini_cube()) {
        let (catalog, schema) = build(&mini);
        let engine = Engine::new(catalog);
        let by_product = GroupBySet::from_level_names(&schema, &["product", "country"]).unwrap();
        let by_type = GroupBySet::from_level_names(&schema, &["type", "country"]).unwrap();
        let slice = |g: &GroupBySet, preds: &[(&str, &str)]| {
            let preds = preds.iter().map(|(l, m)| Predicate::eq(&schema, l, m).unwrap()).collect();
            CubeQuery::new("MINI", g.clone(), preds, vec!["quantity".into()])
        };
        let italy_q = slice(&by_product, &[("country", "Italy")]);
        let france_q = slice(&by_product, &[("country", "France")]);
        let alpha_q = slice(&by_product, &[("country", "Italy"), ("type", "alpha")]);
        let types_q = slice(&by_type, &[("country", "Italy"), ("type", "beta")]);
        let all_q = slice(&by_product, &[]);
        let country = schema.hierarchy(1).unwrap().level(1).unwrap();
        let (italy, france) =
            (country.member_id("Italy").unwrap(), country.member_id("France").unwrap());
        let to_type = schema.hierarchy(0).unwrap().composed_map(0, 1).unwrap();
        let names = vec!["b".to_string()];
        let spec = |on, rewrite, keep| AttachSpec {
            on,
            rewrites: vec![rewrite],
            keep,
            measure: "quantity",
            names: &names,
        };
        let cases = [
            (&italy_q, Some(&france_q), spec(Some(1), Rewrite::Member(france), Keep::Matched)),
            (&italy_q, Some(&france_q), spec(Some(1), Rewrite::Member(france), Keep::All)),
            (&italy_q, Some(&alpha_q), spec(None, Rewrite::Same, Keep::Matched)),
            (&italy_q, Some(&alpha_q), spec(None, Rewrite::Same, Keep::All)),
            (&italy_q, Some(&types_q), spec(Some(0), Rewrite::Roll(to_type.clone()), Keep::Matched)),
            (&italy_q, Some(&types_q), spec(Some(0), Rewrite::Roll(to_type), Keep::All)),
            (&all_q, None, spec(Some(1), Rewrite::Member(france), Keep::Slice(italy))),
        ];
        for (target_q, bench_q, spec) in &cases {
            let fused = engine.get_attach(target_q, *bench_q, spec).unwrap().cube;
            let target = engine.get(target_q).unwrap().cube;
            let bench = bench_q.map(|q| engine.get(q).unwrap().cube);
            let mem = memops::attach(&target, bench.as_ref(), spec, None).unwrap();
            prop_assert_eq!(fused.len(), mem.len());
            let fcol = fused.numeric_column("b").unwrap();
            let mcol = mem.numeric_column("b").unwrap();
            for row in 0..fused.len() {
                prop_assert_eq!(fused.coordinate(row), mem.coordinate(row));
                prop_assert_eq!(fcol.get(row), mcol.get(row));
            }
        }
    }
}
