//! Incremental maintenance: the append path of the engine.
//!
//! [`append`] grows a cube's fact table by a batch of rows and keeps every
//! dependent materialized view consistent: the new table and the views
//! commit under **one** catalog version bump, and the returned [`Delta`] is
//! stamped with it, so a cache can patch what the delta cannot change
//! instead of invalidating wholesale.
//!
//! ## View maintenance policy
//!
//! A view is the stored answer of its defining `get`
//! ([`MaterializedAggregate::query`]: predicate-free, over its source
//! cube), built by `Engine::materialize_view` as the scan's key-ordered
//! keys and finalized values. Maintenance plans that query with the
//! planner every fact scan uses (`ScanCtx::over_fact`) against the grown,
//! not-yet-committed table. For every view in the catalog:
//!
//! * its source resolves to a binding over the appended fact table and the
//!   query plans → the view is maintained: **merged** — the query runs over
//!   the appended rows only and folds into the stored answer by the
//!   distributive rule — when every measure aggregates distributively
//!   (sum/count/min/max), **rebuilt** — the query runs over the whole
//!   table — otherwise;
//! * its source resolves to a binding over a *different* fact table → the
//!   view is untouched;
//! * its defining query does not plan (unknown source cube, columns that
//!   no longer line up, or a group-by whose packed key needs more than 64
//!   bits, which `get` refuses too) → the view is **dropped**: a view that
//!   cannot be re-derived must not keep serving stale aggregates after its
//!   underlying data may have grown.
//!
//! Maintenance scans are neither charged to the engine's governor nor
//! fault-injected: an append is not a tenant's query.
//!
//! ## Determinism
//!
//! The defining query runs through the engine's one morsel driver
//! (`Engine::run_scan`), morsels counted from the start of the scanned row
//! range, so partial aggregates merge in morsel order and maintenance is
//! byte-identical at every thread count. The scan's [`Partial`] comes out in
//! ascending key order, as every scan's does, and it is packed by the same
//! layout as the view's keys. So a delta merge is one walk over the view's
//! keys and the delta's together, folding a key on both sides by the
//! operator's distributive rule — nothing is lifted, re-packed or sorted —
//! and a merged view is bit-comparable to one rebuilt from scratch; merged
//! sums equal rebuilt sums exactly whenever measure values are
//! integer-valued (exact f64 addition), which the bundled datasets
//! guarantee.
//!
//! ## Concurrency
//!
//! The new table and all maintained views are computed *outside* the
//! catalog lock, then committed with
//! [`commit_append`](olap_storage::Catalog::commit_append), which verifies
//! the base table is still current. A lost race surfaces as
//! [`StorageError::ConcurrentMutation`] and the append is retried from the
//! fresh table, a bounded number of times.

use std::sync::Arc;

use olap_storage::{Column, CubeBinding, Delta, MaterializedAggregate, StorageError, Table};

use crate::aggregate::{Partial, StateOp};
use crate::engine::{query_shape, Engine, ScanCtx};
use crate::error::EngineError;

/// Attempts before a repeatedly lost commit race is surfaced to the caller.
const MAX_COMMIT_ATTEMPTS: usize = 4;

/// The result of one committed append.
#[derive(Debug)]
pub struct MaintainOutcome {
    /// The committed delta, stamped with the catalog version the append
    /// settled at.
    pub delta: Arc<Delta>,
    /// Views maintained by merging the delta's partial aggregates.
    pub views_merged: usize,
    /// Views maintained by a full rebuild from the grown fact table.
    pub views_rebuilt: usize,
    /// Views dropped because their provenance could not be resolved.
    pub views_dropped: Vec<String>,
}

impl MaintainOutcome {
    /// Rows the append added to the fact table.
    pub fn appended(&self) -> usize {
        self.delta.rows()
    }

    /// The catalog version the append settled at.
    pub fn version(&self) -> u64 {
        self.delta.version()
    }
}

/// Appends `batch` to `cube`'s fact table, maintaining every dependent
/// materialized view, and commits table + views + delta atomically.
pub fn append(
    engine: &Engine,
    cube: &str,
    batch: &[Column],
) -> Result<MaintainOutcome, EngineError> {
    let binding = engine.catalog().binding(cube)?;
    validate_batch(&binding, batch)?;
    let mut attempt = 0;
    loop {
        let base = engine.catalog().table(binding.fact_table())?;
        let appended = Arc::new(base.append_batch(batch)?);
        let delta = Delta::describe(binding.fact_table(), base.n_rows(), batch);
        let plan = maintain_views(engine, cube, &binding, &appended, &delta)?;
        match engine.catalog().commit_append(&base, appended, plan.maintained, &plan.dropped, delta)
        {
            Ok(delta) => {
                engine.metrics().record_append(plan.merged as u64, plan.rebuilt as u64);
                return Ok(MaintainOutcome {
                    delta,
                    views_merged: plan.merged,
                    views_rebuilt: plan.rebuilt,
                    views_dropped: plan.dropped,
                });
            }
            Err(StorageError::ConcurrentMutation(_)) if attempt + 1 < MAX_COMMIT_ATTEMPTS => {
                attempt += 1;
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// Referential integrity of the batch: every foreign-key value must be a
/// member id of its hierarchy's finest level, mirroring the check
/// [`CubeBinding::new`] runs on the seed table. Rejecting here keeps the
/// binding's invariant without re-validating the whole grown table.
pub(crate) fn validate_batch(binding: &CubeBinding, batch: &[Column]) -> Result<(), EngineError> {
    let schema = binding.schema();
    for (hi, h) in schema.hierarchies().iter().enumerate() {
        let fk = binding.fk_column(hi);
        let Some(col) = batch.iter().find(|c| c.name == fk) else {
            continue; // a missing column fails structurally in append_batch
        };
        let Some(keys) = col.i64_iter() else {
            continue; // a mistyped column fails structurally in append_batch
        };
        let domain = h.level(0).map(|l| l.cardinality() as i64).unwrap_or(0);
        if let Some(bad) = keys.into_iter().find(|&k| k < 0 || k >= domain) {
            return Err(EngineError::Storage(StorageError::InvalidBinding(format!(
                "appended foreign key `{fk}` holds value {bad} outside the domain of level `{}` (0..{domain})",
                h.level(0).map(|l| l.name()).unwrap_or("?"),
            ))));
        }
    }
    Ok(())
}

/// The maintenance work computed for one append, ready to commit.
struct MaintenancePlan {
    maintained: Vec<MaterializedAggregate>,
    dropped: Vec<String>,
    merged: usize,
    rebuilt: usize,
}

/// Walks the catalog's views and maintains, skips or drops each per the
/// module-level policy. `table` is the already-grown fact table.
fn maintain_views(
    engine: &Engine,
    cube: &str,
    binding: &Arc<CubeBinding>,
    table: &Arc<Table>,
    delta: &Delta,
) -> Result<MaintenancePlan, EngineError> {
    let mut plan =
        MaintenancePlan { maintained: Vec::new(), dropped: Vec::new(), merged: 0, rebuilt: 0 };
    for view in engine.catalog().views() {
        let source = &view.query().cube;
        let vb = if source == cube {
            binding.clone()
        } else {
            match engine.catalog().binding(source) {
                Ok(b) => b,
                Err(_) => {
                    plan.dropped.push(view.name().to_string());
                    continue;
                }
            }
        };
        if vb.fact_table() != table.name() {
            continue; // aggregates a different fact table: unaffected
        }
        match maintain_one(engine, &vb, &view, table, delta)? {
            Some((maintained, merged)) => {
                plan.maintained.push(maintained);
                if merged {
                    plan.merged += 1;
                } else {
                    plan.rebuilt += 1;
                }
            }
            None => plan.dropped.push(view.name().to_string()),
        }
    }
    Ok(plan)
}

/// Maintains one view by running its defining query over the grown
/// `table`: over the delta's rows and merged when possible, over every row
/// otherwise. Returns the new view and whether it was merged (vs rebuilt);
/// `None` means the query does not plan (the view's columns or levels no
/// longer line up), so the view cannot be re-derived and must drop.
fn maintain_one(
    engine: &Engine,
    binding: &CubeBinding,
    view: &MaterializedAggregate,
    table: &Arc<Table>,
    delta: &Delta,
) -> Result<Option<(MaterializedAggregate, bool)>, EngineError> {
    let q = view.query();
    let Ok((ops, layout)) = query_shape(binding.schema(), q) else {
        return Ok(None);
    };
    if !layout.fits_u64() {
        return Ok(None);
    }
    // Mergeable: every operator distributive (a finalized value *is* the
    // state).
    let merged = ops.iter().all(|op| op.is_distributive());
    let rows = if merged {
        delta.start_row()..delta.start_row() + delta.rows()
    } else {
        0..table.n_rows()
    };
    let Ok(ctx) = ScanCtx::over_fact(binding, table, rows, q, &ops, &layout) else {
        return Ok(None);
    };
    let partial = engine.run_scan(ctx, false)?.table;
    let (keys, values) = if merged { merge(view, &partial) } else { partial.finish() };
    let maintained = MaterializedAggregate::new(view.name(), q.clone(), keys, values)?;
    Ok(Some((maintained, merged)))
}

/// Merges a delta partial aggregate into the view in one walk over key
/// order: the delta's partial is in ascending key order (every scan's is)
/// and so are the view's keys, packed by the same layout. Runs of view
/// cells the delta misses are copied as they stand; a key on both sides
/// folds to `f(view, delta)`, a new key to `f(identity, delta)` — for the
/// distributive operators a finalized value *is* the state, so these are
/// the values a merge of the two as partials yields.
fn merge(view: &MaterializedAggregate, delta: &Partial) -> (Vec<u64>, Vec<Vec<f64>>) {
    let (keys, values) = (view.keys(), view.values());
    let state_ops: Vec<StateOp> = StateOp::columns(delta.ops()).collect();
    let deltas = delta.states();

    let cap = keys.len() + delta.len();
    let mut out_keys: Vec<u64> = Vec::with_capacity(cap);
    let mut out_values: Vec<Vec<f64>> = values.iter().map(|_| Vec::with_capacity(cap)).collect();
    let copy_cells = |cells: std::ops::Range<usize>, ok: &mut Vec<u64>, ov: &mut Vec<Vec<f64>>| {
        ok.extend_from_slice(&keys[cells.clone()]);
        ov.iter_mut().zip(values).for_each(|(out, col)| out.extend_from_slice(&col[cells.clone()]));
    };
    let mut at = 0;
    for (d, &key) in delta.keys().iter().enumerate() {
        let run_end = at + keys[at..].partition_point(|&k| k < key);
        copy_cells(at..run_end, &mut out_keys, &mut out_values);
        at = run_end;
        let hit = keys.get(at) == Some(&key);
        out_keys.push(key);
        for (m, (out, op)) in out_values.iter_mut().zip(&state_ops).enumerate() {
            let state = if hit { values[m][at] } else { f64::from_bits(op.identity()) };
            out.push(op.apply(state, deltas[m][d]));
        }
        at += usize::from(hit);
    }
    copy_cells(at..keys.len(), &mut out_keys, &mut out_values);
    (out_keys, out_values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use olap_model::{AggOp, CubeQuery, CubeSchema, GroupBySet, HierarchyBuilder, MeasureDef};
    use olap_storage::binding::DimInfo;
    use olap_storage::{Catalog, CubeBinding};

    fn schema() -> Arc<CubeSchema> {
        let mut product = HierarchyBuilder::new("Product", ["product", "type"]);
        product.add_member_chain(&["Apple", "Fresh Fruit"]).unwrap();
        product.add_member_chain(&["Milk", "Dairy"]).unwrap();
        product.add_member_chain(&["Bread", "Bakery"]).unwrap();
        Arc::new(CubeSchema::new(
            "SALES",
            vec![product.build().unwrap()],
            vec![MeasureDef::new("quantity", AggOp::Sum), MeasureDef::new("mean_qty", AggOp::Avg)],
        ))
    }

    fn seed() -> (Arc<Catalog>, Arc<CubeSchema>) {
        let catalog = Arc::new(Catalog::new());
        let schema = schema();
        let fact = Table::new(
            "sales",
            vec![
                Column::i64("pkey", vec![0, 1, 0, 2]),
                Column::f64("quantity", vec![5.0, 2.0, 1.0, 4.0]),
            ],
        )
        .unwrap();
        let binding = CubeBinding::new(
            schema.clone(),
            &fact,
            vec!["pkey".into()],
            vec!["quantity".into(), "quantity".into()],
            vec![DimInfo {
                table: "product".into(),
                pk: "pkey".into(),
                level_columns: vec!["pkey".into(), "type".into()],
            }],
        )
        .unwrap();
        catalog.register_table(fact);
        catalog.register_binding("SALES", binding);
        (catalog, schema)
    }

    fn batch() -> Vec<Column> {
        vec![Column::i64("pkey", vec![2, 1, 1]), Column::f64("quantity", vec![7.0, 3.0, 9.0])]
    }

    /// Builds a view of `measure` at `level` through the engine and
    /// registers it — the way production views are seeded.
    fn seed_view(
        catalog: &Arc<Catalog>,
        schema: &Arc<CubeSchema>,
        name: &str,
        level: &str,
        measure: &str,
    ) {
        let group_by = GroupBySet::from_level_names(schema, &[level]).unwrap();
        let q = CubeQuery::new("SALES", group_by, vec![], vec![measure.into()]);
        catalog.register_view(Engine::new(catalog.clone()).materialize_view(name, &q).unwrap());
    }

    #[test]
    fn append_grows_the_fact_and_serves_new_rows() {
        let (catalog, schema) = seed();
        let engine = Engine::new(catalog.clone());
        let out = engine.append("SALES", &batch()).unwrap();
        assert_eq!(out.appended(), 3);
        assert_eq!(out.version(), catalog.version());
        assert_eq!(catalog.table("sales").unwrap().n_rows(), 7);
        // Aggregate at `type` over the grown table: Fresh Fruit 6, Dairy 14,
        // Bakery 11.
        let g = GroupBySet::from_level_names(&schema, &["type"]).unwrap();
        let q = CubeQuery::new("SALES", g, vec![], vec!["quantity".into()]);
        let cube = engine.get(&q).unwrap().cube;
        let col = &cube.numeric_column("quantity").unwrap().data;
        assert_eq!(col.iter().sum::<f64>(), 31.0);
    }

    #[test]
    fn merged_views_match_a_from_scratch_rebuild() {
        // The third size is smaller than the seed table, so the delta range
        // starts mid-morsel (row 4 of morsels 3..6, 6..9): its scan must
        // count morsels from the range's start, not the table's.
        for morsel_rows in [EngineConfig::default().morsel_rows, 2, 3] {
            let (catalog, schema) = seed();
            seed_view(&catalog, &schema, "mv_type", "type", "quantity");
            seed_view(&catalog, &schema, "mv_product", "product", "quantity");
            let config = EngineConfig { morsel_rows, ..EngineConfig::default() };
            let engine = Engine::with_config(catalog.clone(), config);
            let out = engine.append("SALES", &batch()).unwrap();
            assert_eq!(out.views_merged, 2);
            assert_eq!(out.views_rebuilt, 0);
            assert!(out.views_dropped.is_empty());

            // Rebuild both views from scratch over the grown data.
            let (fresh, _) = seed();
            let fresh_engine = Engine::new(fresh.clone());
            fresh_engine.append("SALES", &batch()).unwrap();
            seed_view(&fresh, &schema, "mv_type", "type", "quantity");
            seed_view(&fresh, &schema, "mv_product", "product", "quantity");

            for name in ["mv_type", "mv_product"] {
                let merged = catalog.views().into_iter().find(|v| v.name() == name).unwrap();
                let rebuilt = fresh.views().into_iter().find(|v| v.name() == name).unwrap();
                assert_eq!(merged.keys(), rebuilt.keys(), "{name} keys");
                assert_eq!(
                    merged.measure("quantity").unwrap(),
                    rebuilt.measure("quantity").unwrap(),
                    "{name} values at morsel_rows = {morsel_rows}"
                );
                assert_eq!(merged.query().cube, "SALES", "{name} keeps provenance");
            }
        }
    }

    /// The fact columns of `rows` (five foreign keys each) with measure
    /// `m` = the row's ordinal, counted from `first`.
    fn wide_rows(rows: &[[i64; 5]], first: usize) -> Vec<Column> {
        let mut columns: Vec<Column> = (0..5)
            .map(|c| Column::i64(format!("fk{c}"), rows.iter().map(|r| r[c]).collect()))
            .collect();
        columns.push(Column::f64("m", (first..first + rows.len()).map(|i| i as f64).collect()));
        columns
    }

    /// Cube `WIDE` over `rows`: five flat hierarchies of 8192 members need
    /// 5 × 13 = 65 key bits, one past the packed-key limit.
    fn wide_catalog(rows: &[[i64; 5]]) -> (Arc<Catalog>, Arc<CubeSchema>) {
        let mut hierarchies = Vec::new();
        let mut dims = Vec::new();
        for h in 0..5 {
            let mut b = HierarchyBuilder::new(format!("H{h}"), [format!("l{h}")]);
            for m in 0..8192 {
                b.add_member_chain(&[format!("h{h}m{m}")]).unwrap();
            }
            hierarchies.push(b.build().unwrap());
            dims.push(DimInfo {
                table: format!("d{h}"),
                pk: format!("fk{h}"),
                level_columns: vec![format!("l{h}")],
            });
        }
        let schema =
            Arc::new(CubeSchema::new("WIDE", hierarchies, vec![MeasureDef::new("m", AggOp::Sum)]));
        let fact = Table::new("wide_fact", wide_rows(rows, 0)).unwrap();
        let fks = (0..5).map(|h| format!("fk{h}")).collect();
        let binding = CubeBinding::new(schema.clone(), &fact, fks, vec!["m".into()], dims).unwrap();
        let catalog = Arc::new(Catalog::new());
        catalog.register_table(fact);
        catalog.register_binding("WIDE", binding);
        (catalog, schema)
    }

    #[test]
    fn wide_views_are_dropped_at_the_first_append() {
        let seed_rows = [[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]];
        let (catalog, schema) = wide_catalog(&seed_rows);
        // A 65-bit view has no packed-key plan, so it cannot be re-derived
        // (nor built: it is assembled by hand).
        let q = CubeQuery::new("WIDE", GroupBySet::top(&schema), vec![], vec!["m".into()]);
        let view = MaterializedAggregate::new("mv_wide", q, vec![0, 1], vec![vec![0.0, 1.0]]);
        catalog.register_view(view.unwrap());
        let engine = Engine::new(catalog.clone());
        let out = engine.append("WIDE", &wide_rows(&[[1, 2, 3, 4, 5]], seed_rows.len())).unwrap();
        assert_eq!(out.views_dropped, vec!["mv_wide".to_string()]);
        assert_eq!((out.views_merged, out.views_rebuilt), (0, 0));
        assert!(catalog.views().is_empty());
        assert_eq!(catalog.table("wide_fact").unwrap().n_rows(), 3, "the rows still land");
    }

    #[test]
    fn avg_views_take_the_rebuild_path() {
        let (catalog, schema) = seed();
        seed_view(&catalog, &schema, "mv_avg", "type", "mean_qty");
        let engine = Engine::new(catalog.clone());
        let out = engine.append("SALES", &batch()).unwrap();
        assert_eq!((out.views_merged, out.views_rebuilt), (0, 1));
        let v = catalog.views().into_iter().find(|v| v.name() == "mv_avg").unwrap();
        // Grown rows per type: Fresh Fruit {5,1}, Dairy {2,3,9}, Bakery {4,7}.
        assert_eq!(v.measure("mean_qty").unwrap(), &[3.0, 14.0 / 3.0, 5.5]);
    }

    #[test]
    fn unresolvable_views_are_dropped() {
        let (catalog, schema) = seed();
        let group_by = GroupBySet::from_level_names(&schema, &["type"]).unwrap();
        let q = CubeQuery::new("NO_SUCH_CUBE", group_by, vec![], vec!["quantity".into()]);
        let stranger = MaterializedAggregate::new("mv_stranger", q, vec![0], vec![vec![6.0]]);
        catalog.register_view(stranger.unwrap());
        let engine = Engine::new(catalog.clone());
        let out = engine.append("SALES", &batch()).unwrap();
        assert_eq!(out.views_dropped, vec!["mv_stranger".to_string()]);
        assert!(catalog.views().is_empty());
    }

    #[test]
    fn out_of_domain_foreign_keys_are_rejected_before_commit() {
        let (catalog, _) = seed();
        let engine = Engine::new(catalog.clone());
        let before = catalog.version();
        let bad = vec![Column::i64("pkey", vec![99]), Column::f64("quantity", vec![1.0])];
        let err = engine.append("SALES", &bad).unwrap_err();
        assert!(matches!(err, EngineError::Storage(StorageError::InvalidBinding(_))));
        assert_eq!(catalog.version(), before, "failed appends leave no trace");
        assert_eq!(catalog.table("sales").unwrap().n_rows(), 4);
    }

    #[test]
    fn appends_record_maintenance_metrics() {
        let (catalog, schema) = seed();
        seed_view(&catalog, &schema, "mv_type", "type", "quantity");
        let metrics = Arc::new(crate::metrics::EngineMetrics::new());
        let engine = Engine::new(catalog).with_metrics(metrics.clone());
        engine.append("SALES", &batch()).unwrap();
        let s = metrics.snapshot();
        assert_eq!((s.appends, s.mview_delta_merges, s.mview_rebuilds), (1, 1, 0));
    }
}
