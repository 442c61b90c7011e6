//! Encoded ≡ plain equivalence over real SSB data.
//!
//! The compressed fact layout (bit-packed / RLE key columns) must be a pure
//! physical optimization: every engine path — plain `get` (NP), the fused
//! join (JOP), the fused pivot (POP) — must produce **byte-identical**
//! derived cubes whether the catalog stores foreign keys as plain `i64` or
//! as encoded key columns, at every thread count. Appends onto encoded
//! columns (including code-width growth) must equal a from-scratch rebuild.

use std::sync::Arc;

use olap_engine::{AttachSpec, Engine, EngineConfig, JoinKind, Keep, Rewrite, WorkerPool};
use olap_model::{
    AggOp, CubeColumn, CubeQuery, CubeSchema, DerivedCube, GroupBySet, HierarchyBuilder,
    MeasureDef, MemberId, Predicate,
};
use olap_storage::{binding::DimInfo, Catalog, Column, CubeBinding, Table};
use proptest::prelude::*;
use ssb_data::generate::{generate, SsbConfig, SsbDataset, EXTERNAL_CUBE, SSB_CUBE};

/// One SSB dataset per physical layout, same `(scale, seed)`. The generator
/// always encodes fact keys; the plain layout re-registers both fact tables
/// (`lineorder` and the external cube's) with their keys decoded to `i64`.
fn dataset(encode_facts: bool) -> SsbDataset {
    let ds = generate(SsbConfig::with_scale(0.002));
    if !encode_facts {
        for cube in [SSB_CUBE, EXTERNAL_CUBE] {
            let fact = ds.catalog.binding(cube).unwrap().fact_table().to_string();
            ds.catalog.register_table(ds.catalog.table(&fact).unwrap().decode_keys());
        }
    }
    ds
}

/// An engine forced through the morsel pipeline at `threads` (threshold 1
/// parallelizes even tiny scans; a private pool isolates the helper count).
/// Small morsels split even this tiny dataset into dozens of chunks, so
/// the run-length morsel-skipping pre-filter genuinely engages (and both
/// layouts use the same morsel size, keeping accumulation order — and so
/// f64 bit patterns — comparable).
fn engine(ds: &SsbDataset, threads: usize, pool: &Arc<WorkerPool>) -> Engine {
    Engine::with_config(
        ds.catalog.clone(),
        EngineConfig {
            use_views: false,
            max_threads: threads,
            parallel_threshold: 1,
            morsel_rows: 512,
        },
    )
    .with_worker_pool(pool.clone())
}

/// Byte-identical cube comparison: coordinates, column names, f64 bit
/// patterns and validity masks.
fn assert_identical(a: &DerivedCube, b: &DerivedCube, what: &str) {
    assert_eq!(a.coord_cols(), b.coord_cols(), "{what}: coordinates differ");
    assert_eq!(a.column_names(), b.column_names(), "{what}: column sets differ");
    for (ca, cb) in a.columns().iter().zip(b.columns()) {
        match (ca, cb) {
            (CubeColumn::Numeric(na), CubeColumn::Numeric(nb)) => {
                assert_eq!(na.validity, nb.validity, "{what}: validity of `{}`", na.name);
                let bits_a: Vec<u64> = na.data.iter().map(|v| v.to_bits()).collect();
                let bits_b: Vec<u64> = nb.data.iter().map(|v| v.to_bits()).collect();
                assert_eq!(bits_a, bits_b, "{what}: values of `{}`", na.name);
            }
            _ => panic!("{what}: unexpected label column in an engine cube"),
        }
    }
}

#[test]
fn encoded_and_plain_catalogs_answer_identically_at_every_thread_count() {
    let plain = dataset(false);
    let encoded = dataset(true);
    // Sanity: the two catalogs really do differ physically.
    let pe = plain.catalog.table("lineorder").unwrap();
    let ee = encoded.catalog.table("lineorder").unwrap();
    assert!(pe.column("ckey").unwrap().as_i64().is_some(), "plain layout holds i64 keys");
    assert!(ee.column("ckey").unwrap().as_key().is_some(), "encoded layout holds key columns");
    assert!(ee.byte_size() < pe.byte_size(), "encoding must shrink the fact table");

    let pool = Arc::new(WorkerPool::new(3));
    let np = CubeQuery::new(
        SSB_CUBE,
        GroupBySet::from_level_names(&plain.schema, &["c_nation", "year"]).unwrap(),
        vec![Predicate::eq(&plain.schema, "c_region", "ASIA").unwrap()],
        vec!["revenue".into(), "quantity".into()],
    );
    let bench = CubeQuery::new(
        EXTERNAL_CUBE,
        GroupBySet::from_level_names(&plain.schema, &["c_nation", "year"]).unwrap(),
        vec![Predicate::eq(&plain.schema, "c_region", "ASIA").unwrap()],
        vec!["expected_revenue".into()],
    );
    // POP: slice the date hierarchy (index 3) at `year`, reference 1995
    // against neighbor 1994 — the widened query selects both.
    let y95 = plain.schema.hierarchy(3).unwrap().level(2).unwrap().member_id("1995").unwrap();
    let y94 = plain.schema.hierarchy(3).unwrap().level(2).unwrap().member_id("1994").unwrap();
    let pop_q = CubeQuery::new(
        SSB_CUBE,
        GroupBySet::from_level_names(&plain.schema, &["s_nation", "year"]).unwrap(),
        vec![Predicate::is_in(&plain.schema, "year", &["1995", "1994"]).unwrap()],
        vec!["revenue".into()],
    );

    // Time-sliced NP: the year mask over the date-clustered (run-length)
    // `dkey` column drives the morsel-skipping pre-filter on the encoded
    // layout — results must still match the plain full scan exactly.
    let sliced = CubeQuery::new(
        SSB_CUBE,
        GroupBySet::from_level_names(&plain.schema, &["c_nation"]).unwrap(),
        vec![Predicate::eq(&plain.schema, "year", "1994").unwrap()],
        vec!["revenue".into(), "quantity".into()],
    );

    let mut serial_np: Option<DerivedCube> = None;
    for threads in [1usize, 2, 8] {
        let ep = engine(&plain, threads, &pool);
        let ee = engine(&encoded, threads, &pool);

        let np_p = ep.get(&np).unwrap().cube;
        let np_e = ee.get(&np).unwrap().cube;
        assert_identical(&np_p, &np_e, &format!("NP @ {threads} threads"));

        let sliced_p = ep.get(&sliced).unwrap().cube;
        let sliced_e = ee.get(&sliced).unwrap().cube;
        assert_identical(&sliced_p, &sliced_e, &format!("time-sliced NP @ {threads} threads"));
        // ...and identical across thread counts (merge-order determinism).
        if let Some(base) = &serial_np {
            assert_identical(base, &np_e, &format!("NP serial vs {threads} threads"));
        } else {
            serial_np = Some(np_e);
        }

        let renames = vec!["expected_revenue".to_string()];
        let jop = AttachSpec {
            on: None,
            rewrites: vec![Rewrite::Same],
            keep: JoinKind::LeftOuter.into(),
            measure: "expected_revenue",
            names: &renames,
        };
        let jop_p = ep.get_attach(&np, Some(&bench), &jop).unwrap().cube;
        let jop_e = ee.get_attach(&np, Some(&bench), &jop).unwrap().cube;
        assert_identical(&jop_p, &jop_e, &format!("JOP @ {threads} threads"));

        let names = vec!["revenue_1994".to_string()];
        let pop = AttachSpec {
            on: Some(3),
            rewrites: Rewrite::members(&[y94]),
            keep: Keep::Slice(y95),
            measure: "revenue",
            names: &names,
        };
        let pop_p = ep.get_attach(&pop_q, None, &pop).unwrap().cube;
        let pop_e = ee.get_attach(&pop_q, None, &pop).unwrap().cube;
        assert_identical(&pop_p, &pop_e, &format!("POP @ {threads} threads"));
    }
}

#[test]
fn point_predicates_read_encoded_columns_identically() {
    // A point predicate on the finest customer level runs through the
    // morsel scan: its mask skips whole morsels where a run-length column
    // proves no row can match, and filters the decoded lanes elsewhere. It
    // too must match the plain layout exactly.
    let plain = dataset(false);
    let encoded = dataset(true);
    let q = CubeQuery::new(
        SSB_CUBE,
        GroupBySet::from_level_names(&plain.schema, &["customer", "year"]).unwrap(),
        vec![Predicate::eq(&plain.schema, "customer", "Customer#000000007").unwrap()],
        vec!["revenue".into()],
    );
    let ep = Engine::new(plain.catalog.clone());
    let ee = Engine::new(encoded.catalog.clone());
    let a = ep.get(&q).unwrap().cube;
    let b = ee.get(&q).unwrap().cube;
    assert_identical(&a, &b, "point predicate");
}

// ---------------------------------------------------------------------------
// Append onto encoded columns ≡ rebuild from scratch.
// ---------------------------------------------------------------------------

/// A one-hierarchy star over a domain of 32 keys whose seed table only uses
/// keys 0..4 — encoded at 2 bits, so batches drawing from the full domain
/// force the bit-packed column through code-width growth on append.
fn tiny_star(seed_keys: &[i64], seed_vals: &[f64]) -> (Arc<Catalog>, Arc<CubeSchema>) {
    let mut h = HierarchyBuilder::new("K", ["k", "parity"]);
    for k in 0..32 {
        let parity = if k % 2 == 0 { "even" } else { "odd" };
        h.add_member_chain(&[format!("k{k}"), parity.to_string()]).unwrap();
    }
    let schema = Arc::new(CubeSchema::new(
        "TINY",
        vec![h.build().unwrap()],
        vec![MeasureDef::new("v", AggOp::Sum)],
    ));
    let fact = Table::new(
        "facts",
        vec![Column::i64("k", seed_keys.to_vec()), Column::f64("v", seed_vals.to_vec())],
    )
    .unwrap()
    .encode_keys(&[("k", 4)])
    .unwrap();
    assert!(fact.column("k").unwrap().as_key().is_some());
    let binding = CubeBinding::new(
        schema.clone(),
        &fact,
        vec!["k".into()],
        vec!["v".into()],
        vec![DimInfo {
            table: "dim".into(),
            pk: "k".into(),
            level_columns: vec!["k".into(), "parity".into()],
        }],
    )
    .unwrap();
    let catalog = Arc::new(Catalog::new());
    catalog.register_table(fact);
    catalog.register_binding("TINY", binding);
    (catalog, schema)
}

fn query_tiny(catalog: &Arc<Catalog>, schema: &Arc<CubeSchema>, level: &str) -> DerivedCube {
    let engine = Engine::new(catalog.clone());
    let q = CubeQuery::new(
        "TINY",
        GroupBySet::from_level_names(schema, &[level]).unwrap(),
        vec![],
        vec!["v".into()],
    );
    engine.get(&q).unwrap().cube
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Appending a batch onto an encoded fact table answers every query
    /// exactly like a table rebuilt from the concatenated rows — including
    /// batches whose keys exceed the seeded code width (2 bits → 5 bits).
    #[test]
    fn append_onto_encoded_equals_rebuild(
        batch_keys in proptest::collection::vec(0i64..32, 1..64),
        batch_vals in proptest::collection::vec(-100.0f64..100.0, 64..=64),
    ) {
        let seed_keys: Vec<i64> = vec![0, 1, 2, 3, 1, 0];
        let seed_vals: Vec<f64> = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let batch_vals = &batch_vals[..batch_keys.len()];

        // Path A: append the batch onto the encoded table.
        let (grown, schema) = tiny_star(&seed_keys, &seed_vals);
        let engine = Engine::new(grown.clone());
        let batch = vec![
            Column::i64("k", batch_keys.clone()),
            Column::f64("v", batch_vals.to_vec()),
        ];
        engine.append("TINY", &batch).unwrap();
        let t = grown.table("facts").unwrap();
        prop_assert!(t.column("k").unwrap().as_key().is_some(), "append keeps the encoding");

        // Path B: rebuild from the concatenated rows.
        let mut all_keys = seed_keys.clone();
        all_keys.extend_from_slice(&batch_keys);
        let mut all_vals = seed_vals.clone();
        all_vals.extend_from_slice(batch_vals);
        let (rebuilt, _) = tiny_star(&all_keys, &all_vals);

        for level in ["k", "parity"] {
            let a = query_tiny(&grown, &schema, level);
            let b = query_tiny(&rebuilt, &schema, level);
            prop_assert_eq!(a.coord_cols(), b.coord_cols(), "{} coordinates", level);
            let (CubeColumn::Numeric(na), CubeColumn::Numeric(nb)) =
                (&a.columns()[0], &b.columns()[0]) else { panic!("numeric cube") };
            prop_assert_eq!(&na.data, &nb.data, "{} values", level);
        }

        // And the appended rows decode back to exactly the batch.
        let decoded: Vec<i64> =
            grown.table("facts").unwrap().column("k").unwrap().i64_iter().unwrap().collect();
        prop_assert_eq!(&decoded[..seed_keys.len()], &seed_keys[..]);
        prop_assert_eq!(&decoded[seed_keys.len()..], &batch_keys[..]);
    }
}

/// `MemberId` round-trip sanity for the pivot member lookups used above.
#[test]
fn member_lookup_matches_predicate_semantics() {
    let ds = dataset(true);
    let year = ds.schema.hierarchy(3).unwrap().level(2).unwrap();
    for (i, name) in ["1992", "1993", "1994", "1995"].iter().enumerate() {
        assert_eq!(year.member_id(name), Some(MemberId(i as u32)));
    }
}
