//! View reads: a get that groups as its view does reads the view's cells
//! instead of folding them. Over random small cubes with whole-number
//! measures (so every sum is exact and views-on equals views-off bit for
//! bit), one predicate-free view per case answers gets with the view's own
//! group-by — with no predicate, or with predicates at the same or a
//! coarser level of grouped hierarchies — at two morsel sizes and three
//! thread counts. Each read must equal the fact scan, scan every view row,
//! cut the view into the driver's morsels and count as one view scan.

use std::sync::Arc;

use olap_engine::{Engine, EngineConfig, EngineMetrics, GetOutcome, WorkerPool};
use olap_model::{
    AggOp, CubeColumn, CubeQuery, CubeSchema, GroupBySet, HierarchyBuilder, MeasureDef, MemberId,
    Predicate, PredicateOp,
};
use olap_storage::{binding::DimInfo, Catalog, Column, CubeBinding, Table};
use proptest::prelude::*;

/// A seeded LCG.
struct Lcg(u64);

impl Lcg {
    /// A draw in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n as u64) as usize
    }
}

/// A two-level hierarchy `leaf ⪰ parent` of 1–6 leaves over 1–3 parents,
/// each leaf under a random parent.
fn two_level(rng: &mut Lcg, name: &str, levels: [&str; 2]) -> HierarchyBuilder {
    let mut b = HierarchyBuilder::new(name, levels);
    let parents = 1 + rng.below(3);
    for leaf in 0..1 + rng.below(6) {
        let parent = format!("{}{}", levels[1], rng.below(parents));
        b.add_member_chain(&[format!("{}{leaf}", levels[0]), parent]).unwrap();
    }
    b
}

/// The SALES cube — `product ⪰ type`, `store ⪰ country` and a flat
/// `month` of random sizes — over 0–199 fact rows with whole-number sums
/// `quantity` and `price`.
fn catalog(rng: &mut Lcg) -> (Arc<Catalog>, Arc<CubeSchema>) {
    let product = two_level(rng, "Product", ["product", "type"]).build().unwrap();
    let store = two_level(rng, "Store", ["store", "country"]).build().unwrap();
    let mut date = HierarchyBuilder::new("Date", ["month"]);
    for i in 0..1 + rng.below(6) {
        date.add_member_chain(&[format!("m{i}")]).unwrap();
    }
    let date = date.build().unwrap();
    let leaves = [&product, &store, &date].map(|h| h.level(0).unwrap().cardinality());
    let rows = rng.below(200);
    let mut fk = |n: usize| (0..rows).map(|_| rng.below(n) as i64).collect::<Vec<_>>();
    let (pkey, skey, mkey) = (fk(leaves[0]), fk(leaves[1]), fk(leaves[2]));
    let mut whole = |n: usize| (0..rows).map(|_| rng.below(n) as f64).collect::<Vec<_>>();
    let (quantity, price) = (whole(500), whole(90));
    let fact = Table::new(
        "sales",
        vec![
            Column::i64("pkey", pkey),
            Column::i64("skey", skey),
            Column::i64("mkey", mkey),
            Column::f64("quantity", quantity),
            Column::f64("price", price),
        ],
    )
    .unwrap();
    let measures =
        vec![MeasureDef::new("quantity", AggOp::Sum), MeasureDef::new("price", AggOp::Sum)];
    let schema = Arc::new(CubeSchema::new("SALES", vec![product, store, date], measures));
    let dim = |table: &str, pk: &str, upper: Option<&str>| DimInfo {
        table: table.into(),
        pk: pk.into(),
        level_columns: std::iter::once(pk).chain(upper).map(String::from).collect(),
    };
    let binding = CubeBinding::new(
        schema.clone(),
        &fact,
        vec!["pkey".into(), "skey".into(), "mkey".into()],
        vec!["quantity".into(), "price".into()],
        vec![
            dim("product", "pkey", Some("type")),
            dim("store", "skey", Some("country")),
            dim("dates", "mkey", None),
        ],
    )
    .unwrap();
    let cat = Arc::new(Catalog::new());
    cat.register_table(fact);
    cat.register_binding("SALES", binding);
    (cat, schema)
}

/// A random group-by: each hierarchy aggregated away or kept at one of its
/// levels.
fn group_by(rng: &mut Lcg, schema: &CubeSchema) -> GroupBySet {
    let slots = schema.hierarchies().iter().map(|h| {
        let pick = rng.below(h.levels().len() + 1);
        (pick < h.levels().len()).then_some(pick)
    });
    GroupBySet::from_slots(slots.collect())
}

/// A random non-empty subset of the view's measures, in either order.
fn measures(rng: &mut Lcg) -> Vec<String> {
    let picks: [&[&str]; 4] =
        [&["quantity"], &["price"], &["quantity", "price"], &["price", "quantity"]];
    picks[rng.below(4)].iter().map(|m| m.to_string()).collect()
}

/// Per grouped hierarchy, with even odds, a predicate at the grouped level
/// or a coarser one selecting a random non-empty member set.
fn predicates(rng: &mut Lcg, schema: &CubeSchema, by: &GroupBySet) -> Vec<Predicate> {
    let mut out = Vec::new();
    for (hierarchy, grouped) in by.included_hierarchies() {
        let h = schema.hierarchy(hierarchy).unwrap();
        if rng.below(2) == 0 {
            continue;
        }
        let level = grouped + rng.below(h.levels().len() - grouped);
        let n = h.level(level).unwrap().cardinality();
        let mut members: Vec<MemberId> =
            (0..n as u32).filter(|_| rng.below(2) == 0).map(MemberId).collect();
        if members.is_empty() {
            members.push(MemberId(rng.below(n) as u32));
        }
        out.push(Predicate { hierarchy, level, op: PredicateOp::In(members) });
    }
    out
}

/// Coordinates and every numeric column's name, validity and value bits.
type Bits = (Vec<Vec<MemberId>>, Vec<(String, Vec<bool>, Vec<u64>)>);

fn bits(outcome: &GetOutcome) -> Bits {
    let cube = &outcome.cube;
    let columns = cube.columns().iter().map(|c| match c {
        CubeColumn::Numeric(n) => {
            (n.name.clone(), n.validity.clone(), n.data.iter().map(|x| x.to_bits()).collect())
        }
        CubeColumn::Label(l) => panic!("a get has no label column `{}`", l.name),
    });
    (cube.coord_cols().to_vec(), columns.collect())
}

/// An engine with views on or off, every scan eligible for parallelism
/// (threshold 1) up to `threads`, and a private metrics registry.
fn engine(
    cat: &Arc<Catalog>,
    pool: &Arc<WorkerPool>,
    views: bool,
    morsel: usize,
    threads: usize,
) -> Engine {
    let config = EngineConfig {
        use_views: views,
        morsel_rows: morsel,
        max_threads: threads,
        parallel_threshold: 1,
    };
    Engine::with_config(cat.clone(), config)
        .with_worker_pool(pool.clone())
        .with_metrics(Arc::new(EngineMetrics::new()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_view_read_equals_the_fact_scan(seed in any::<u64>()) {
        let mut rng = Lcg(seed | 1);
        let (cat, schema) = catalog(&mut rng);
        let by = group_by(&mut rng, &schema);
        let defining =
            CubeQuery::new("SALES", by.clone(), vec![], vec!["quantity".into(), "price".into()]);
        let view = Engine::new(cat.clone()).materialize_view("mv", &defining).unwrap();
        let view_rows = view.len();
        cat.register_view(view);
        let pool = Arc::new(WorkerPool::new(7));
        for _ in 0..4 {
            let preds = predicates(&mut rng, &schema, &by);
            let q = CubeQuery::new("SALES", by.clone(), preds, measures(&mut rng));
            for morsel in [3, EngineConfig::default().morsel_rows] {
                for threads in [1, 2, 8] {
                    let on = engine(&cat, &pool, true, morsel, threads);
                    let before = on.metrics().snapshot();
                    let read = on.get(&q).unwrap();
                    let scans = on.metrics().snapshot().delta(&before).view_scans;
                    let scan = engine(&cat, &pool, false, morsel, threads).get(&q).unwrap();
                    let at = format!("{q:?} at morsel {morsel}, {threads} threads");
                    prop_assert_eq!(read.used_view.as_deref(), Some("mv"), "{}", at);
                    prop_assert_eq!(bits(&read), bits(&scan), "{}", at);
                    prop_assert_eq!(read.rows_scanned, view_rows, "{}", at);
                    prop_assert_eq!(read.morsels, view_rows.div_ceil(morsel), "{}", at);
                    prop_assert_eq!(scans, 1, "{}", at);
                }
            }
        }
    }
}
