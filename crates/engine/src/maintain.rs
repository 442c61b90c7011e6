//! Incremental maintenance: the append path of the engine.
//!
//! [`append`] grows a cube's fact table by a batch of rows and keeps every
//! dependent materialized view consistent, committing the new table, the
//! maintained views and a [`Delta`] descriptor under **one** catalog
//! version bump. Downstream caches can therefore follow the catalog's
//! delta chain instead of invalidating wholesale.
//!
//! ## View maintenance policy
//!
//! A view is the stored answer of its defining `get`: the predicate-free
//! [`CubeQuery`] over its recorded [`source`](MaterializedAggregate::source)
//! cube, grouped by its group-by set, of its measures. Maintenance plans
//! that query with the planner every fact scan uses
//! (`ScanCtx::over_fact`) against the grown, not-yet-committed table.
//! For every view in the catalog:
//!
//! * its source resolves to a binding over the appended fact table and the
//!   query plans → the view is maintained: **merged** — the query runs over
//!   the appended rows only and folds into the stored answer by the
//!   distributive rule — when every measure aggregates distributively
//!   (sum/count/min/max) and the group-by key packs into a machine word,
//!   **rebuilt** — the query runs over the whole table — otherwise;
//! * its source resolves to a binding over a *different* fact table → the
//!   view is untouched;
//! * it has no defining query that plans (no source recorded, unknown
//!   source cube, or columns that no longer line up) → the view is
//!   **dropped**: a view that cannot be re-derived must not keep serving
//!   stale aggregates after its underlying data may have grown.
//!
//! Packed maintenance scans are neither charged to the engine's governor
//! nor fault-injected; a wide-key rebuild goes through `wide::get_wide` and
//! is governed like the wide `get` it is.
//!
//! ## Determinism
//!
//! The defining query runs through the engine's one morsel driver
//! (`Engine::run_scan`), morsels counted from the start of the scanned row
//! range, so partial aggregates merge in morsel order and maintenance is
//! byte-identical at every thread count. A delta merge lifts the view's
//! rows into a [`Partial`] and folds the delta's partial in with the same
//! [`Partial::merge`] morsel and shard partials use. Maintained views are
//! emitted in **key order** — coordinate order, the order `Engine::get`
//! materializes — so a merged view is
//! bit-comparable to one rebuilt from scratch; merged sums equal rebuilt
//! sums exactly whenever measure values are integer-valued (exact f64
//! addition), which the bundled datasets guarantee.
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

use olap_model::{AggOp, CubeQuery, MemberId};
use olap_storage::{Column, CubeBinding, Delta, MaterializedAggregate, StorageError, Table};

use crate::aggregate::{Accumulator, Grouper, Partial};
use crate::engine::{query_shape, Engine, ScanCtx};
use crate::error::EngineError;
use crate::key::KeyLayout;

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
        let vb = match view.source() {
            Some(src) if src == cube => binding.clone(),
            Some(src) => match engine.catalog().binding(src) {
                Ok(b) => b,
                Err(_) => {
                    plan.dropped.push(view.name().to_string());
                    continue;
                }
            },
            None => {
                plan.dropped.push(view.name().to_string());
                continue;
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
    let Some(source) = view.source() else {
        return Ok(None);
    };
    let measures = view.measure_names().to_vec();
    let q = CubeQuery::new(source, view.group_by().clone(), vec![], measures);
    let Ok((ops, layout)) = query_shape(binding.schema(), &q) else {
        return Ok(None);
    };
    // Mergeable: every operator distributive (a finalized value *is* the
    // state), packed keys.
    let merged = layout.fits_u64()
        && ops.iter().all(|op| matches!(op, AggOp::Sum | AggOp::Count | AggOp::Min | AggOp::Max));
    let rows = if merged {
        delta.start_row()..delta.start_row() + delta.rows()
    } else {
        0..table.n_rows()
    };
    let Ok(ctx) = ScanCtx::over_fact(binding, table, rows, &q, &ops, &layout) else {
        return Ok(None);
    };
    let maintained = if !layout.fits_u64() {
        let cube = crate::wide::get_wide(engine, &ctx, binding.schema(), &q)?.cube;
        let measures =
            cube.columns().iter().filter_map(|c| c.as_numeric()).map(|c| c.data.clone()).collect();
        assemble_view(view, cube.coord_cols().to_vec(), measures)?
    } else {
        let partial = engine.run_scan(ctx, false)?.table;
        if merged {
            merge(view, &partial, &layout, &ops)?
        } else {
            keyed_view(view, &layout, partial)?
        }
    };
    Ok(Some((maintained, merged)))
}

/// Merges a delta partial aggregate into the existing view: the view's
/// rows become a [`Partial`] (for the distributive operators a finalized
/// value *is* the state), the delta merges in by the common rule, and the
/// result is emitted in key order.
fn merge(
    view: &MaterializedAggregate,
    delta: &Partial,
    layout: &KeyLayout,
    ops: &[AggOp],
) -> Result<MaterializedAggregate, EngineError> {
    let coords = view.coord_cols();
    let keys: Vec<u64> = (0..view.len())
        .map(|row| {
            let mut key = 0u64;
            for (comp, col) in coords.iter().enumerate() {
                layout.pack_component(&mut key, comp, col[row]);
            }
            key
        })
        .collect();
    let accs: Vec<Accumulator> = ops
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let col = view.measure_at(i).expect("measure count checked at construction").to_vec();
            match op {
                AggOp::Sum => Accumulator::Sum(col),
                AggOp::Count => Accumulator::Count(col),
                AggOp::Min => Accumulator::Min(col),
                AggOp::Max => Accumulator::Max(col),
                AggOp::Avg => unreachable!("avg views take the rebuild path"),
            }
        })
        .collect();
    let mut merged = Partial::from_parts(keys, accs).expect("view columns are row-aligned");
    let mut grouper = Grouper::over(layout, merged.keys());
    merged.merge(&mut grouper, delta);
    keyed_view(view, layout, merged)
}

/// Assembles the maintained view from a partial over `layout`, in
/// ascending key order — lexicographic coordinate order.
fn keyed_view(
    view: &MaterializedAggregate,
    layout: &KeyLayout,
    partial: Partial,
) -> Result<MaterializedAggregate, EngineError> {
    let order = partial.key_order();
    let (coords, measures) = partial.emit(layout, &order);
    assemble_view(view, coords, measures)
}

/// The maintained successor of `view` over already-ordered rows, keeping
/// its name, group-by set, measure names and provenance.
fn assemble_view(
    view: &MaterializedAggregate,
    coords: Vec<Vec<MemberId>>,
    measures: Vec<Vec<f64>>,
) -> Result<MaterializedAggregate, EngineError> {
    let rebuilt = MaterializedAggregate::new(
        view.name(),
        view.group_by().clone(),
        coords,
        view.measure_names().to_vec(),
        measures,
    )
    .map_err(EngineError::Storage)?;
    Ok(match view.source() {
        Some(src) => rebuilt.with_source(src),
        None => rebuilt,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use olap_model::{CubeQuery, CubeSchema, GroupBySet, HierarchyBuilder, MeasureDef};
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

    /// Builds a sum view over `levels` via the engine and registers it
    /// with source provenance — the way production views are seeded.
    fn seed_view(catalog: &Arc<Catalog>, schema: &Arc<CubeSchema>, name: &str, level: &str) {
        let engine = Engine::with_config(
            catalog.clone(),
            EngineConfig { use_views: false, ..EngineConfig::default() },
        );
        let group_by = GroupBySet::from_level_names(schema, &[level]).unwrap();
        let out = engine
            .get(&CubeQuery::new("SALES", group_by.clone(), vec![], vec!["quantity".into()]))
            .unwrap();
        let col = out.cube.numeric_column("quantity").unwrap().data.clone();
        let view = MaterializedAggregate::new(
            name,
            group_by,
            out.cube.coord_cols().to_vec(),
            vec!["quantity".into()],
            vec![col],
        )
        .unwrap()
        .with_source("SALES");
        catalog.register_view(view);
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
            seed_view(&catalog, &schema, "mv_type", "type");
            seed_view(&catalog, &schema, "mv_product", "product");
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
            seed_view(&fresh, &schema, "mv_type", "type");
            seed_view(&fresh, &schema, "mv_product", "product");

            for name in ["mv_type", "mv_product"] {
                let merged = catalog.views().into_iter().find(|v| v.name() == name).unwrap();
                let rebuilt = fresh.views().into_iter().find(|v| v.name() == name).unwrap();
                assert_eq!(merged.coord_cols(), rebuilt.coord_cols(), "{name} coordinates");
                assert_eq!(
                    merged.measure("quantity").unwrap(),
                    rebuilt.measure("quantity").unwrap(),
                    "{name} values at morsel_rows = {morsel_rows}"
                );
                assert_eq!(merged.source(), Some("SALES"), "{name} keeps provenance");
            }
        }
    }

    #[test]
    fn wide_views_are_rebuilt_as_their_defining_get() {
        use crate::wide::tests::{wide_catalog, wide_rows};
        let seed_rows = [[1, 2, 3, 4, 5], [6, 7, 8, 9, 10], [1, 2, 3, 4, 5]];
        let (catalog, schema) = wide_catalog(&seed_rows);
        let q = CubeQuery::new("WIDE", GroupBySet::top(&schema), vec![], vec!["m".into()]);
        // Registered stale (one cell, wrong value): a rebuild recomputes it.
        let stale = MaterializedAggregate::new(
            "mv_wide",
            q.group_by.clone(),
            vec![vec![MemberId(0)]; 5],
            vec!["m".into()],
            vec![vec![-1.0]],
        )
        .unwrap()
        .with_source("WIDE");
        catalog.register_view(stale);
        // Two morsels per scan once the table has grown.
        let config = EngineConfig { morsel_rows: 4, ..EngineConfig::default() };
        let engine = Engine::with_config(catalog.clone(), config);
        let batches = [
            vec![[6, 7, 8, 9, 10], [8191, 0, 8191, 0, 8191]],
            vec![[0, 0, 0, 0, 0], [1, 2, 3, 4, 5], [8191, 0, 8191, 0, 8191]],
        ];
        let mut first = seed_rows.len();
        for rows in &batches {
            let out = engine.append("WIDE", &wide_rows(rows, first)).unwrap();
            first += rows.len();
            assert_eq!((out.views_merged, out.views_rebuilt), (0, 1));
            assert!(out.views_dropped.is_empty());
            let view = catalog.views().into_iter().find(|v| v.name() == "mv_wide").unwrap();
            let cube = engine.get(&q).unwrap().cube;
            assert_eq!(view.coord_cols(), cube.coord_cols());
            assert_eq!(view.measure("m").unwrap(), &cube.numeric_column("m").unwrap().data[..]);
            assert_eq!(view.source(), Some("WIDE"));
        }
        // Rows 0..8 carry m = 0..8; the cell [1,2,3,4,5] holds rows 0, 2, 6.
        let view = catalog.views().into_iter().find(|v| v.name() == "mv_wide").unwrap();
        assert_eq!(view.len(), 4);
        assert_eq!(view.measure("m").unwrap(), &[5.0, 8.0, 4.0, 11.0]);
    }

    #[test]
    fn avg_views_take_the_rebuild_path() {
        let (catalog, schema) = seed();
        // Hand-built avg view at `type`: coordinate order doesn't matter,
        // maintenance recomputes it entirely.
        let group_by = GroupBySet::from_level_names(&schema, &["type"]).unwrap();
        let view = MaterializedAggregate::new(
            "mv_avg",
            group_by,
            vec![vec![MemberId(0), MemberId(1), MemberId(2)]],
            vec!["mean_qty".into()],
            vec![vec![3.0, 2.0, 4.0]],
        )
        .unwrap()
        .with_source("SALES");
        catalog.register_view(view);
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
        let orphan = MaterializedAggregate::new(
            "mv_orphan",
            group_by.clone(),
            vec![vec![MemberId(0)]],
            vec!["quantity".into()],
            vec![vec![6.0]],
        )
        .unwrap();
        catalog.register_view(orphan.clone());
        let stranger = orphan.with_source("NO_SUCH_CUBE");
        catalog.register_view(
            MaterializedAggregate::new(
                "mv_stranger",
                group_by,
                vec![vec![MemberId(0)]],
                vec!["quantity".into()],
                vec![vec![6.0]],
            )
            .unwrap()
            .with_source("NO_SUCH_CUBE"),
        );
        drop(stranger);
        let engine = Engine::new(catalog.clone());
        let out = engine.append("SALES", &batch()).unwrap();
        assert_eq!(out.views_dropped, vec!["mv_orphan".to_string(), "mv_stranger".to_string()]);
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
    #[cfg(feature = "obs")]
    fn appends_record_maintenance_metrics() {
        let (catalog, schema) = seed();
        seed_view(&catalog, &schema, "mv_type", "type");
        let metrics = Arc::new(crate::metrics::EngineMetrics::new());
        let engine = Engine::new(catalog).with_metrics(metrics.clone());
        engine.append("SALES", &batch()).unwrap();
        let s = metrics.snapshot();
        assert_eq!((s.appends, s.mview_delta_merges, s.mview_rebuilds), (1, 1, 0));
    }
}
