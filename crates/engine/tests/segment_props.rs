//! Segmented fact tables: a table grown by [`Table::append_batch`] is a list
//! of `Arc`-shared segments, but every reader must see exactly the table
//! built from the same rows in one [`Table::new`] — the same morsels, the
//! same lanes, the same whole columns and, through the engine, bit-identical
//! cubes at every morsel size and thread count. An append must also keep
//! every sealed segment by pointer: that is the O(batch) guarantee, stated
//! structurally instead of as a timing.

use std::sync::Arc;

use olap_engine::{Engine, EngineConfig, WorkerPool};
use olap_model::{
    AggOp, CubeColumn, CubeQuery, CubeSchema, DerivedCube, GroupBySet, HierarchyBuilder,
    MeasureDef, Predicate,
};
use olap_storage::{binding::DimInfo, persist, Catalog, Column, CubeBinding, Table, TAIL_ROWS};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Members of the clustered key `k` and of the plain key `j`.
const K_DOMAIN: u32 = 40;
const J_DOMAIN: i64 = 5;

/// Columns of `n` random rows starting at row `start`: `k` is clustered
/// (so the seed table encodes it run-length), `j` stays plain `i64`, `v` is
/// a fractional `f64` (so fold order shows in the bits), `w` an `i64`
/// measure and `tag` a string column whose values keep appearing.
fn rows(rng: &mut SmallRng, start: usize, n: usize) -> Vec<Column> {
    let k: Vec<i64> = (start..start + n)
        .map(|r| ((r / 997) as i64 + (rng.gen_range(0..100) == 0) as i64) % K_DOMAIN as i64)
        .collect();
    let j: Vec<i64> = (0..n).map(|_| rng.gen_range(0..J_DOMAIN)).collect();
    let v: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0) * 1e3).collect();
    let w: Vec<i64> = (0..n).map(|_| rng.gen_range(-50..50)).collect();
    let tag = (start..start + n).map(|r| format!("t{}", r / 20_000));
    vec![
        Column::i64("k", k),
        Column::i64("j", j),
        Column::f64("v", v),
        Column::i64("w", w),
        Column::from_strings("tag", tag),
    ]
}

/// The column-wise concatenation of `parts`, through the string values of
/// dictionary columns (each batch brings its own dictionary).
fn concat(parts: &[Vec<Column>]) -> Vec<Column> {
    (0..parts[0].len())
        .map(|c| {
            let name = parts[0][c].name.clone();
            if parts[0][c].as_dict().is_some() {
                let values: Vec<&str> = parts
                    .iter()
                    .flat_map(|p| (0..p[c].len()).map(move |r| p[c].string_at(r).unwrap()))
                    .collect();
                Column::from_strings(name, values)
            } else {
                Column::concat(&parts.iter().map(|p| &p[c]).collect::<Vec<_>>())
            }
        })
        .collect()
}

/// The seed table as registered: `k` encoded at the full domain.
fn seed(columns: Vec<Column>) -> Table {
    Table::new("facts", columns).unwrap().encode_keys(&[("k", K_DOMAIN)]).unwrap()
}

/// `(appended, built)`: a seed of `base` rows grown by `batches` appends,
/// and the same rows in one `Table::new`. Checks after every append that
/// all segments but the last are the parent's, by pointer.
fn grow(seed_rng: u64, base: usize, batches: &[usize]) -> (Table, Table) {
    let mut rng = SmallRng::seed_from_u64(seed_rng);
    let mut parts = vec![rows(&mut rng, 0, base)];
    let mut table = seed(parts[0].clone());
    for &n in batches {
        let batch = rows(&mut rng, table.n_rows(), n);
        let grown = table.append_batch(&batch).unwrap();
        let (old, new) = (table.segments(), grown.segments());
        assert!(new.len() >= old.len(), "an append never merges segments");
        let sealed = if new.len() == old.len() { old.len() - 1 } else { old.len() };
        for (i, (a, b)) in old[..sealed].iter().zip(new).enumerate() {
            assert!(Arc::ptr_eq(a, b), "segment {i} was copied by a {n}-row append");
        }
        assert!(new.last().unwrap().n_rows() <= TAIL_ROWS.max(n), "the tail stays bounded");
        parts.push(batch);
        table = grown;
    }
    (table, seed(concat(&parts)))
}

/// Morsels of `k` rows cover `t` once, in order: global `k`-row ranges,
/// cut again only where a segment ends.
fn check_morsels(t: &Table, k: usize) {
    let starts: Vec<usize> = t
        .segments()
        .iter()
        .scan(0, |start, s| {
            *start += s.n_rows();
            Some(*start - s.n_rows())
        })
        .collect();
    let mut next = 0;
    for chunk in t.morsels(k) {
        let (offset, len) = (chunk.offset(), chunk.len());
        assert_eq!(offset, next, "morsels of {k} rows skip or repeat a row");
        assert!(len > 0 && len <= k, "a chunk of {len} rows from morsels of {k}");
        assert!(offset % k == 0 || starts.contains(&offset), "a chunk starts at row {offset}");
        next += len;
    }
    assert_eq!(next, t.n_rows(), "morsels of {k} rows miss the end");
}

/// Every row's lanes read through the morsels of `t`.
fn lanes(t: &Table, k: usize) -> (Vec<Vec<u32>>, Vec<Vec<u64>>) {
    let mut keys = vec![Vec::new(); 2];
    let mut vals = vec![Vec::new(); 2];
    let (mut ks, mut vs) = (Vec::new(), Vec::new());
    for chunk in t.morsels(k) {
        for (out, col) in keys.iter_mut().zip(["k", "j"]) {
            let idx = t.column_index(col).unwrap();
            out.extend_from_slice(chunk.key_lane(idx, &mut ks).unwrap());
        }
        for (out, col) in vals.iter_mut().zip(["v", "w"]) {
            let idx = t.column_index(col).unwrap();
            out.extend(chunk.f64_lane(idx, &mut vs).unwrap().iter().map(|x| x.to_bits()));
        }
    }
    (keys, vals)
}

fn batch_size() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..100, Just(TAIL_ROWS), TAIL_ROWS - 40..TAIL_ROWS + 40, 1_000usize..30_000,]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whatever the batch sizes, the appended table reads like the built
    /// one: morsels, lanes, whole columns, storage totals, persistence.
    #[test]
    fn appended_reads_like_built(
        seed_rng in 0u64..1_000,
        base in prop_oneof![0usize..50, TAIL_ROWS - 30..TAIL_ROWS + 30],
        batches in proptest::collection::vec(batch_size(), 1..5),
    ) {
        let (appended, built) = grow(seed_rng, base, &batches);
        prop_assert_eq!(appended.n_rows(), built.n_rows());
        for k in [1, 2, 3, 7, 65_536] {
            check_morsels(&appended, k);
            check_morsels(&built, k);
        }
        for k in [3, 65_536] {
            prop_assert_eq!(lanes(&appended, k), lanes(&built, k), "lanes of {}-row morsels", k);
        }
        // Whole-column readers see every segment.
        for name in ["k", "j", "w"] {
            let a: Vec<i64> = appended.column(name).unwrap().i64_iter().unwrap().collect();
            let b: Vec<i64> = built.column(name).unwrap().i64_iter().unwrap().collect();
            prop_assert_eq!(a, b, "column {}", name);
        }
        let (a, b) = (appended.column("tag").unwrap(), built.column("tag").unwrap());
        for r in 0..appended.n_rows() {
            prop_assert_eq!(a.string_at(r), b.string_at(r), "tag of row {}", r);
        }
        prop_assert!(appended.column("k").unwrap().as_key().is_some(), "keys stay encoded");
        // Storage statistics sum every segment (a dictionary is counted
        // once per segment that holds it).
        let stats = appended.column_stats();
        prop_assert_eq!(stats.iter().map(|c| c.bytes).sum::<usize>(), appended.byte_size());
        for (a, b) in stats.iter().zip(built.column_stats()) {
            if a.name != "tag" {
                prop_assert_eq!(a.plain_bytes, b.plain_bytes, "plain bytes of {}", &a.name);
            }
        }
        // Persistence writes the table whole: the appended table round-trips
        // to exactly the bytes of the built one.
        prop_assert_eq!(persist::write_table(&appended), persist::write_table(&built));
    }
}

// ---------------------------------------------------------------------------
// Engine: bit-identical cubes over the segmented and the built table.
// ---------------------------------------------------------------------------

fn schema() -> Arc<CubeSchema> {
    let mut k = HierarchyBuilder::new("K", ["k", "parity"]);
    for m in 0..K_DOMAIN {
        let parity = if m % 2 == 0 { "even" } else { "odd" };
        k.add_member_chain(&[format!("k{m}"), parity.to_string()]).unwrap();
    }
    let mut j = HierarchyBuilder::new("J", ["j"]);
    for m in 0..J_DOMAIN {
        j.add_member_chain(&[format!("j{m}")]).unwrap();
    }
    Arc::new(CubeSchema::new(
        "SEG",
        vec![k.build().unwrap(), j.build().unwrap()],
        vec![MeasureDef::new("v", AggOp::Sum), MeasureDef::new("w", AggOp::Avg)],
    ))
}

fn catalog(schema: &Arc<CubeSchema>, fact: Table) -> Arc<Catalog> {
    let dim = |table: &str, pk: &str, levels: &[&str]| DimInfo {
        table: table.into(),
        pk: pk.into(),
        level_columns: levels.iter().map(|l| l.to_string()).collect(),
    };
    let binding = CubeBinding::new(
        schema.clone(),
        &fact,
        vec!["k".into(), "j".into()],
        vec!["v".into(), "w".into()],
        vec![dim("kdim", "k", &["k", "parity"]), dim("jdim", "j", &["j"])],
    )
    .unwrap();
    let catalog = Arc::new(Catalog::new());
    catalog.register_table(fact);
    catalog.register_binding("SEG", binding);
    catalog
}

fn assert_identical(a: &DerivedCube, b: &DerivedCube, what: &str) {
    assert_eq!(a.coord_cols(), b.coord_cols(), "{what}: coordinates differ");
    assert_eq!(a.column_names(), b.column_names(), "{what}: column sets differ");
    for (ca, cb) in a.columns().iter().zip(b.columns()) {
        let (CubeColumn::Numeric(na), CubeColumn::Numeric(nb)) = (ca, cb) else {
            panic!("{what}: unexpected label column in an engine cube");
        };
        assert_eq!(na.validity, nb.validity, "{what}: validity of `{}`", na.name);
        let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&na.data), bits(&nb.data), "{what}: values of `{}`", na.name);
    }
}

/// Segment ends at odd offsets, a batch of exactly the tail cap and one
/// beyond it: morsels of 2, 3 and 7 rows straddle every kind of segment
/// end, and the clustered key's run-length pruning runs per piece.
#[test]
fn engine_cubes_are_bit_identical_across_segments() {
    let (appended, built) = grow(7, TAIL_ROWS - 6, &[3, 9, 5, TAIL_ROWS, 2, 11]);
    assert!(appended.segments().len() >= 3, "the growth must seal segments");
    let schema = schema();
    let (a_cat, b_cat) = (catalog(&schema, appended), catalog(&schema, built));
    let q = |levels: &[&str], predicates: Vec<Predicate>| {
        CubeQuery::new(
            "SEG",
            GroupBySet::from_level_names(&schema, levels).unwrap(),
            predicates,
            vec!["v".into(), "w".into()],
        )
    };
    let queries = [
        ("k × j", q(&["k", "j"], vec![])),
        ("parity | j = j3", q(&["parity"], vec![Predicate::eq(&schema, "j", "j3").unwrap()])),
        ("j | k = k17", q(&["j"], vec![Predicate::eq(&schema, "k", "k17").unwrap()])),
        ("j | k = k39", q(&["j"], vec![Predicate::eq(&schema, "k", "k39").unwrap()])),
    ];
    let pool = Arc::new(WorkerPool::new(1));
    for morsel_rows in [EngineConfig::default().morsel_rows, 2, 3, 7] {
        for threads in [1, 2] {
            let engine = |catalog: &Arc<Catalog>| {
                Engine::with_config(
                    catalog.clone(),
                    EngineConfig {
                        use_views: false,
                        max_threads: threads,
                        parallel_threshold: 1,
                        morsel_rows,
                    },
                )
                .with_worker_pool(pool.clone())
            };
            let (ea, eb) = (engine(&a_cat), engine(&b_cat));
            for (what, query) in &queries {
                let a = ea.get(query).unwrap().cube;
                let b = eb.get(query).unwrap().cube;
                assert_identical(&a, &b, &format!("{what} at {morsel_rows} rows × {threads}"));
            }
        }
    }
}
