//! Scatter-gather ≡ unsharded execution over randomized assess workloads.
//!
//! The sharded engine must be a pure physical deployment choice: for any
//! statement of any benchmark type (constant / external / sibling / past)
//! under every feasible strategy (NP / JOP / POP), the coordinator's
//! ascending-shard merge must reproduce the unsharded engine's CSV **byte
//! for byte** at 1/2/4/8 shards and 1/2/8 threads. This works because SSB
//! measures are integer-valued (see `ssb::fact`): integer `f64` sums are
//! exact, so re-associating the additions across shard and morsel
//! boundaries cannot perturb a single bit.
//!
//! A second property covers maintenance: appending a batch through the
//! sharded engine (routed row-by-row to shard deltas) answers queries
//! exactly like an unsharded engine that received the same batch.
//!
//! The coordinator reaches every shard through a [`ShardTransport`] — here
//! an in-process one over a shard engine — so these proofs cover the one
//! scatter-gather arm deployments run. Plain tests pin that arm's budget
//! and accounting contract.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use proptest::prelude::*;

use assess_olap::assess::exec::AssessRunner;
use assess_olap::assess::plan::Strategy;
use assess_olap::engine::{
    metrics, Engine, EngineConfig, EngineError, EngineMetrics, ResourceGovernor, ResourceKind,
    ShardBudget, ShardPartial, ShardSet, ShardTransport, WorkerPool,
};
use assess_olap::model::{CubeQuery, GroupBySet};
use assess_olap::ssb::generate::{generate, SsbDataset};
use assess_olap::ssb::shard::{shard_dataset, ShardedSsb};
use assess_olap::ssb::{views, SsbConfig};
use assess_olap::storage::Column;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
const GROUPS: [&str; 4] = ["customer, year", "c_nation, year", "supplier, month", "part, c_region"];

/// One shared dataset for the read-only identity property (appends use
/// private datasets — see below).
fn dataset() -> &'static SsbDataset {
    static DS: OnceLock<SsbDataset> = OnceLock::new();
    DS.get_or_init(|| {
        let ds = generate(SsbConfig::with_scale(0.004));
        views::register_default_views(&ds.catalog, &ds.schema).unwrap();
        ds
    })
}

/// One deployment per shard count, partitioned once and reused across
/// proptest cases (read-only).
fn deployments() -> &'static [ShardedSsb] {
    static DEPLOYMENTS: OnceLock<Vec<ShardedSsb>> = OnceLock::new();
    DEPLOYMENTS.get_or_init(|| {
        SHARD_COUNTS.iter().map(|&n| shard_dataset(dataset(), n).unwrap()).collect()
    })
}

fn pool() -> Arc<WorkerPool> {
    static POOL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
    POOL.get_or_init(|| Arc::new(WorkerPool::new(3))).clone()
}

/// Forces the morsel pipeline at `threads` even on this small dataset, so
/// parallel merge order genuinely varies between configurations — the
/// identity below is non-trivial.
fn config(threads: usize) -> EngineConfig {
    EngineConfig {
        max_threads: threads,
        parallel_threshold: 1,
        morsel_rows: 512,
        ..EngineConfig::default()
    }
}

fn unsharded_runner(threads: usize) -> AssessRunner {
    let engine =
        Engine::with_config(dataset().catalog.clone(), config(threads)).with_worker_pool(pool());
    AssessRunner::new(engine)
}

/// A shard node in-process: the coordinator reaches the shard's engine
/// only through the [`ShardTransport`] contract, as it reaches a remote
/// node.
struct InProcessShard(Engine);

impl ShardTransport for InProcessShard {
    fn label(&self) -> String {
        "in-process".to_string()
    }

    fn partial(&self, q: &CubeQuery, budget: ShardBudget) -> Result<ShardPartial, EngineError> {
        let mut governor = ResourceGovernor::unlimited();
        if let Some(max) = budget.max_rows {
            governor = governor.with_max_rows_scanned(max);
        }
        if let Some(ms) = budget.deadline_ms {
            governor = governor.with_timeout(Duration::from_millis(ms));
        }
        self.0.clone().with_governor(Arc::new(governor)).get_partial(q)
    }

    fn append(&self, cube: &str, batch: &[Column]) -> Result<usize, EngineError> {
        Ok(self.0.append(cube, batch)?.appended())
    }

    fn rows(&self, table: &str) -> Result<usize, EngineError> {
        Ok(self.0.catalog().table(table)?.n_rows())
    }
}

/// A coordinator over `deployment` whose shard engines run `config` on
/// the suite's pool and record into `shard_metrics`.
fn coordinator(
    deployment: &ShardedSsb,
    config: EngineConfig,
    shard_metrics: &Arc<EngineMetrics>,
) -> Engine {
    let shards = deployment
        .shard_catalogs
        .iter()
        .map(|catalog| {
            let engine = Engine::with_config(catalog.clone(), config.clone())
                .with_worker_pool(pool())
                .with_metrics(shard_metrics.clone());
            Arc::new(InProcessShard(engine)) as Arc<dyn ShardTransport>
        })
        .collect();
    let set = ShardSet::new(deployment.scheme.clone(), shards).expect("shard set builds");
    Engine::with_config(deployment.coordinator.clone(), config)
        .with_worker_pool(pool())
        .with_shards(Arc::new(set))
}

fn sharded_runner(deployment: &ShardedSsb, threads: usize) -> AssessRunner {
    AssessRunner::new(coordinator(deployment, config(threads), metrics::global()))
}

/// Renders one of the four benchmark-type templates with randomized
/// parameters. `kind`: 0 = constant, 1 = external, 2 = sibling, 3 = past.
fn statement(
    kind: usize,
    region: &str,
    sibling: &str,
    group: &str,
    month: &str,
    past_k: usize,
    constant: u32,
) -> String {
    match kind {
        0 => format!(
            "with SSB by {group} assess revenue against {constant} \
             using ratio(revenue, {constant}) \
             labels {{[0, 0.5): low, [0.5, 1.5]: par, (1.5, inf]: high}}"
        ),
        1 => format!(
            "with SSB for c_region = '{region}' by customer, year \
             assess revenue against SSB_EXPECTED.expected_revenue \
             using ratio(revenue, benchmark.expected_revenue) \
             labels {{[0, 0.9): below, [0.9, 1.1]: expected, (1.1, inf]: above}}"
        ),
        2 => format!(
            "with SSB for c_region = '{region}' by part, c_region \
             assess revenue against c_region = '{sibling}' \
             using percOfTotal(difference(revenue, benchmark.revenue)) \
             labels quartiles"
        ),
        _ => format!(
            "with SSB for month = '{month}' by supplier, month \
             assess revenue against past {past_k} \
             using ratio(revenue, benchmark.revenue) \
             labels {{[0, 0.9): worse, [0.9, 1.1]: fine, (1.1, inf]: better}}"
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// NP/JOP/POP × all four benchmark types × 1/2/4/8 shards × 1/2/8
    /// threads: every configuration emits the serial unsharded CSV, byte
    /// for byte.
    #[test]
    fn sharded_workloads_are_byte_identical(
        kind in 0usize..4,
        region_ix in 0usize..5,
        sibling_off in 1usize..5,
        group_ix in 0usize..4,
        month_ix in 0usize..12,
        past_k in 2usize..7,
        constant_k in 100u32..4_000,
    ) {
        let region = REGIONS[region_ix];
        let sibling = REGIONS[(region_ix + sibling_off) % REGIONS.len()];
        // Months late in the calendar so `past k` always has k predecessors.
        let (year, month) =
            if month_ix < 6 { (1997, month_ix + 7) } else { (1998, month_ix - 5) };
        let month = format!("{year:04}-{month:02}");
        let text = statement(
            kind, region, sibling, GROUPS[group_ix], &month, past_k, constant_k * 1_000,
        );
        let stmt = assess_olap::sql::parse(&text).expect("template parses");

        let reference = unsharded_runner(1);
        let resolved = reference.resolve(&stmt).expect("template resolves");
        for strategy in Strategy::all() {
            if !strategy.feasible_for(&resolved.benchmark) {
                continue;
            }
            let (result, _) = reference.run(&stmt, strategy).expect("reference run");
            let want = result.to_csv();

            for &threads in &THREAD_COUNTS {
                // Unsharded parallel runs pin the baseline: thread count
                // alone must not move a byte.
                let (got, _) = unsharded_runner(threads).run(&stmt, strategy).unwrap();
                prop_assert_eq!(
                    got.to_csv(), want.clone(),
                    "{} unsharded @ {} threads", strategy, threads
                );

                for (deployment, &shards) in deployments().iter().zip(&SHARD_COUNTS) {
                    let runner = sharded_runner(deployment, threads);
                    let (got, report) = runner.run(&stmt, strategy).unwrap();
                    prop_assert_eq!(
                        got.to_csv(), want.clone(),
                        "{} @ {} shards / {} threads", strategy, shards, threads
                    );
                    prop_assert!(report.timings.total().as_nanos() > 0);
                }
            }
        }
    }
}

/// Builds an append batch in fact-column order; all measures integer-valued
/// like the generator's, so sums stay exact under any merge order.
fn batch(dkeys: &[i64], raw: &[i64], ds: &SsbDataset) -> Vec<Column> {
    let n = dkeys.len();
    let key = |i: usize, m: usize, salt: i64| {
        (raw[i % raw.len()].wrapping_add(salt)).rem_euclid(m as i64)
    };
    let ckeys: Vec<i64> = (0..n).map(|i| key(i, ds.counts.customers, 1)).collect();
    let skeys: Vec<i64> = (0..n).map(|i| key(i, ds.counts.suppliers, 2)).collect();
    let pkeys: Vec<i64> = (0..n).map(|i| key(i, ds.counts.parts, 3)).collect();
    let quantity: Vec<f64> = (0..n).map(|i| (key(i, 50, 4) + 1) as f64).collect();
    let discount: Vec<f64> = (0..n).map(|i| key(i, 11, 5) as f64).collect();
    let extendedprice: Vec<f64> =
        (0..n).map(|i| (900 + key(i, 2_000, 6)) as f64 * quantity[i]).collect();
    let revenue: Vec<f64> =
        (0..n).map(|i| (extendedprice[i] * (100.0 - discount[i]) / 100.0).round()).collect();
    let supplycost: Vec<f64> = (0..n).map(|i| (540 + key(i, 120, 7)) as f64).collect();
    vec![
        Column::i64("ckey", ckeys),
        Column::i64("skey", skeys),
        Column::i64("pkey", pkeys),
        Column::i64("dkey", dkeys.to_vec()),
        Column::f64("quantity", quantity),
        Column::f64("discount", discount),
        Column::f64("extendedprice", extendedprice),
        Column::f64("revenue", revenue),
        Column::f64("supplycost", supplycost),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Appending through the sharded engine (rows routed to shard deltas,
    /// per-shard views maintained incrementally) answers queries exactly
    /// like an unsharded engine that absorbed the same batch.
    #[test]
    fn sharded_append_then_query_equals_unsharded(
        raw_dkeys in proptest::collection::vec(0i64..10_000, 1..40),
        raw_keys in proptest::collection::vec(0i64..1_000_000, 40..=40),
        shards_ix in 0usize..3,
    ) {
        let shards = [2usize, 4, 8][shards_ix];
        // Private datasets: appends mutate catalogs, so the shared cached
        // dataset above must stay untouched.
        let ds = generate(SsbConfig::with_scale(0.002));
        views::register_default_views(&ds.catalog, &ds.schema).unwrap();
        let deployment = shard_dataset(&ds, shards).unwrap();
        let sharded = coordinator(&deployment, config(2), metrics::global());
        let unsharded = Engine::new(ds.catalog.clone());

        let dkeys: Vec<i64> =
            raw_dkeys.iter().map(|k| k.rem_euclid(ds.counts.dates as i64)).collect();
        let rows = batch(&dkeys, &raw_keys, &ds);
        sharded.append("SSB", &rows).unwrap();
        unsharded.append("SSB", &rows).unwrap();

        // Row accounting: the routed deltas must cover the batch exactly.
        let total = sharded.shards().expect("sharded engine").total_rows("lineorder").unwrap();
        prop_assert_eq!(total, ds.catalog.table("lineorder").unwrap().n_rows());

        let sharded = AssessRunner::new(sharded);
        let unsharded = AssessRunner::new(unsharded);
        for text in [
            "with SSB by c_nation, year assess revenue against 1300000 \
             using ratio(revenue, 1300000) labels {[0, 1): low, [1, inf]: high}",
            "with SSB for c_region = 'ASIA' by part, c_region \
             assess revenue against c_region = 'AMERICA' \
             using percOfTotal(difference(revenue, benchmark.revenue)) \
             labels quartiles",
        ] {
            let stmt = assess_olap::sql::parse(text).unwrap();
            let resolved = unsharded.resolve(&stmt).unwrap();
            for strategy in Strategy::all() {
                if !strategy.feasible_for(&resolved.benchmark) {
                    continue;
                }
                let (want, _) = unsharded.run(&stmt, strategy).unwrap();
                let (got, _) = sharded.run(&stmt, strategy).unwrap();
                prop_assert_eq!(
                    got.to_csv(), want.to_csv(),
                    "{} after append @ {} shards", strategy, shards
                );
            }
        }
    }
}

/// A `get` every shard answers from its fact slice or a view; any shape
/// does, the budget tests only need each shard to scan some rows.
fn nation_year_query() -> CubeQuery {
    let schema = &dataset().schema;
    let group_by = GroupBySet::from_level_names(schema, &["c_nation", "year"]).unwrap();
    CubeQuery::new("SSB", group_by, Vec::new(), vec!["revenue".into()])
}

/// The coordinator of the 2-shard deployment under `governor`.
fn governed_coordinator(governor: &Arc<ResourceGovernor>) -> Engine {
    coordinator(&deployments()[1], config(2), &Arc::new(EngineMetrics::new()))
        .with_governor(governor.clone())
}

/// The remaining row budget travels with the request: a budget below the
/// first shard's scan is refused by that shard, as the same budget would
/// be refused by an unsharded engine.
#[test]
fn forwarded_budget_below_one_shard_scan_is_refused() {
    let q = nation_year_query();
    let unlimited = governed_coordinator(&Arc::new(ResourceGovernor::unlimited())).get(&q).unwrap();
    let first = unlimited.per_shard[0].rows_scanned as u64;
    assert!(first > 0, "shard 0 scanned nothing");

    let governor = Arc::new(ResourceGovernor::unlimited().with_max_rows_scanned(first - 1));
    let err = governed_coordinator(&governor).get(&q).unwrap_err();
    assert!(
        matches!(err, EngineError::BudgetExceeded { resource: ResourceKind::RowsScanned, .. }),
        "{err:?}"
    );
}

/// A budget equal to the fan-out's total scan succeeds, and the
/// coordinator charges every shard's rows exactly once, on receipt.
#[test]
fn shard_rows_are_charged_once_on_receipt() {
    let q = nation_year_query();
    let unlimited = governed_coordinator(&Arc::new(ResourceGovernor::unlimited())).get(&q).unwrap();
    let total = unlimited.rows_scanned as u64;

    let governor = Arc::new(ResourceGovernor::unlimited().with_max_rows_scanned(total));
    let report = governed_coordinator(&governor).get(&q).unwrap();
    assert_eq!(report.rows_scanned as u64, total);
    assert_eq!(governor.rows_scanned(), report.rows_scanned as u64);
}

/// A sharded append is one append in the coordinator's registry; view
/// maintenance happens on the shards and is counted in theirs.
#[test]
fn sharded_append_is_counted_once_by_the_coordinator() {
    let ds = generate(SsbConfig::with_scale(0.002));
    let deployment = shard_dataset(&ds, 2).unwrap();
    let own = Arc::new(EngineMetrics::new());
    let shard_metrics = Arc::new(EngineMetrics::new());
    let sharded = coordinator(&deployment, config(2), &shard_metrics).with_metrics(own.clone());

    let dkeys = [0, ds.counts.dates as i64 - 1];
    let outcome = sharded.append("SSB", &batch(&dkeys, &[7, 11], &ds)).unwrap();
    assert_eq!(outcome.appended(), 2);
    assert_eq!(outcome.views_merged, 0);
    let s = own.snapshot();
    assert_eq!((s.appends, s.mview_delta_merges), (1, 0));
    let shards = shard_metrics.snapshot();
    assert_eq!(shards.appends, 2, "one append per shard that received a row");
    assert!(shards.mview_delta_merges > 0, "shards maintain their own views");
}
