//! A thread-safe catalog of tables, cube bindings and views.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use olap_model::{CubeQuery, Relation};

use crate::binding::CubeBinding;
use crate::delta::Delta;
use crate::error::StorageError;
use crate::mview::MaterializedAggregate;
use crate::table::Table;

#[derive(Default)]
struct CatalogInner {
    tables: HashMap<String, Arc<Table>>,
    bindings: HashMap<String, Arc<CubeBinding>>,
    views: Vec<Arc<MaterializedAggregate>>,
}

/// Write guard that completes the seqlock protocol: the second version bump
/// on drop marks the mutation finished (back to an even value).
struct VersionedWriteGuard<'a> {
    guard: RwLockWriteGuard<'a, CatalogInner>,
    version: &'a AtomicU64,
    /// The even version this mutation settles at when the guard drops.
    settled: u64,
}

impl std::ops::Deref for VersionedWriteGuard<'_> {
    type Target = CatalogInner;
    fn deref(&self) -> &CatalogInner {
        &self.guard
    }
}

impl std::ops::DerefMut for VersionedWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut CatalogInner {
        &mut self.guard
    }
}

impl Drop for VersionedWriteGuard<'_> {
    fn drop(&mut self) {
        self.version.fetch_add(1, Ordering::Release);
    }
}

/// The database catalog. All accessors hand out `Arc`s so query execution
/// never holds the lock.
#[derive(Default)]
pub struct Catalog {
    inner: RwLock<CatalogInner>,
    /// Monotonic mutation counter. Every registration/removal bumps it, so
    /// caches keyed on query results (e.g. `assess-serve`'s shared result
    /// cache) can detect that the catalog changed under them and invalidate
    /// without subscribing to individual mutations.
    version: AtomicU64,
}

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Read access. A poisoned lock is recovered rather than propagated:
    /// the catalog only holds `Arc`s and plain maps, so a writer that
    /// panicked mid-insert leaves at worst a missing entry, never a torn
    /// one.
    fn read(&self) -> RwLockReadGuard<'_, CatalogInner> {
        self.inner.read().unwrap_or_else(|poison| poison.into_inner())
    }

    /// The bare write lock, with the same poison-recovery policy as
    /// [`Self::read`]. Holding it is not yet a mutation: a writer that may
    /// back out checks its precondition first, then calls
    /// [`Self::versioned`].
    fn lock(&self) -> RwLockWriteGuard<'_, CatalogInner> {
        self.inner.write().unwrap_or_else(|poison| poison.into_inner())
    }

    /// Write access. Every writer is a mutation; the returned guard bumps
    /// the version on acquisition and again on release (seqlock style), so
    /// the version is odd exactly while a mutation is in flight and any
    /// work overlapping a mutation observes two different version readings.
    fn write(&self) -> VersionedWriteGuard<'_> {
        self.versioned(self.lock())
    }

    /// Wraps an already-acquired write lock in the seqlock protocol:
    /// bumps the version to odd now, remembers the even value it will
    /// settle at, and bumps again when the guard drops.
    fn versioned<'a>(
        &'a self,
        guard: RwLockWriteGuard<'a, CatalogInner>,
    ) -> VersionedWriteGuard<'a> {
        let settled = self.version.fetch_add(1, Ordering::Release) + 2;
        VersionedWriteGuard { guard, version: &self.version, settled }
    }

    /// The current mutation-counter value. Two equal **even** readings
    /// bracketing a computation guarantee the catalog's semantic contents
    /// did not change while it ran; any registration (table, binding,
    /// view), removal or append commit changes the value, and an odd value
    /// means a mutation is in flight right now. Result caches key entries
    /// on this.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Registers (or replaces) a table.
    pub fn register_table(&self, table: Table) -> Arc<Table> {
        let table = Arc::new(table);
        self.write().tables.insert(table.name().to_string(), table.clone());
        table
    }

    /// Fetches a table by name.
    pub fn table(&self, name: &str) -> Result<Arc<Table>, StorageError> {
        self.read()
            .tables
            .get(name)
            .cloned()
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// Registers a cube binding under the cube's name.
    pub fn register_binding(
        &self,
        name: impl Into<String>,
        binding: CubeBinding,
    ) -> Arc<CubeBinding> {
        let binding = Arc::new(binding);
        self.write().bindings.insert(name.into(), binding.clone());
        binding
    }

    /// Fetches a cube binding by cube name.
    pub fn binding(&self, name: &str) -> Result<Arc<CubeBinding>, StorageError> {
        self.read()
            .bindings
            .get(name)
            .cloned()
            .ok_or_else(|| StorageError::UnknownBinding(name.to_string()))
    }

    /// Registers a materialized aggregate view, replacing a view of the
    /// same name — views are named uniquely, as `commit_append` assumes
    /// when it replaces maintained views by name.
    pub fn register_view(&self, view: MaterializedAggregate) -> Arc<MaterializedAggregate> {
        let view = Arc::new(view);
        let mut guard = self.write();
        match guard.views.iter_mut().find(|v| v.name() == view.name()) {
            Some(slot) => *slot = view.clone(),
            None => guard.views.push(view.clone()),
        }
        view
    }

    /// All registered views (cloned handles; the lock is not held).
    pub fn views(&self) -> Vec<Arc<MaterializedAggregate>> {
        self.read().views.clone()
    }

    /// Atomically commits a prepared append: swaps `table` in (verifying
    /// the commit was prepared against the *current* snapshot `base`),
    /// replaces each maintained view by name (new names are added),
    /// drops the views named in `drop_views` (those that could not be
    /// maintained), and returns `delta` stamped with the commit's settled
    /// version. The delta explains that version step completely, so a
    /// delta-aware cache can patch its entries instead of invalidating them.
    ///
    /// When another writer swapped the table since `base` was read, the
    /// commit fails with [`StorageError::ConcurrentMutation`] *without*
    /// bumping the version; the caller rebuilds against the new snapshot
    /// and retries.
    pub fn commit_append(
        &self,
        base: &Arc<Table>,
        table: Arc<Table>,
        views: Vec<MaterializedAggregate>,
        drop_views: &[String],
        delta: Delta,
    ) -> Result<Arc<Delta>, StorageError> {
        let name = table.name().to_string();
        let plain = self.lock();
        match plain.tables.get(&name) {
            Some(current) if Arc::ptr_eq(current, base) => {}
            _ => return Err(StorageError::ConcurrentMutation(name)),
        }
        let mut guard = self.versioned(plain);
        let settled = guard.settled;
        guard.tables.insert(name, table);
        for view in views {
            let view = Arc::new(view);
            match guard.views.iter_mut().find(|v| v.name() == view.name()) {
                Some(slot) => *slot = view,
                None => guard.views.push(view),
            }
        }
        if !drop_views.is_empty() {
            guard.views.retain(|v| !drop_views.iter().any(|d| d == v.name()));
        }
        Ok(Arc::new(delta.stamped(settled)))
    }

    /// Steps the version for an append *without* swapping any table — the
    /// coordinator side of a sharded append, where the fact rows landed in
    /// the shards' own catalogs but delta-aware caches watching the
    /// coordinator's version still need the step explained. Returns the
    /// delta stamped with the step's settled version.
    pub fn commit_delta_only(&self, delta: Delta) -> Arc<Delta> {
        Arc::new(delta.stamped(self.write().settled))
    }

    /// Finds the smallest registered view whose defining query is `Equal`
    /// to or `Usable` for `q` ([`CubeQuery::relate`] under `q`'s cube
    /// schema); `None` when the fact table must be scanned.
    pub fn best_view(&self, q: &CubeQuery) -> Option<Arc<MaterializedAggregate>> {
        let inner = self.read();
        let schema = inner.bindings.get(&q.cube)?.schema();
        inner
            .views
            .iter()
            .filter(|v| {
                matches!(v.query().relate(q, schema), Relation::Equal | Relation::Usable { .. })
            })
            .min_by_key(|v| v.len())
            .cloned()
    }

    /// Names of all registered tables (sorted, for stable diagnostics).
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.read().tables.keys().cloned().collect();
        names.sort();
        names
    }

    /// Total approximate footprint of all tables, in bytes.
    pub fn total_bytes(&self) -> usize {
        self.read().tables.values().map(|t| t.byte_size()).sum()
    }

    /// Per-table physical storage statistics: rows, true footprint, the
    /// plain-layout footprint, and the per-column breakdown — the numbers
    /// behind the `stats` endpoint's compression ratios.
    pub fn storage_stats(&self) -> Vec<TableStorageStats> {
        let mut stats: Vec<TableStorageStats> = self
            .read()
            .tables
            .values()
            .map(|t| {
                let columns = t.column_stats();
                TableStorageStats {
                    table: t.name().to_string(),
                    rows: t.n_rows(),
                    bytes: columns.iter().map(|c| c.bytes).sum(),
                    plain_bytes: columns.iter().map(|c| c.plain_bytes).sum(),
                    columns,
                }
            })
            .collect();
        stats.sort_by(|a, b| a.table.cmp(&b.table));
        stats
    }
}

/// Physical storage statistics of one table; see [`Catalog::storage_stats`].
#[derive(Debug, Clone)]
pub struct TableStorageStats {
    pub table: String,
    pub rows: usize,
    /// True footprint of the physical representation.
    pub bytes: usize,
    /// Footprint of the same data stored plain (`bytes / plain_bytes` is
    /// the table's compression ratio).
    pub plain_bytes: usize,
    pub columns: Vec<crate::table::ColumnStat>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::DimInfo;
    use crate::column::Column;
    use olap_model::{AggOp, CubeSchema, GroupBySet, HierarchyBuilder, MeasureDef};

    #[test]
    fn table_registration_and_lookup() {
        let cat = Catalog::new();
        assert!(matches!(cat.table("t"), Err(StorageError::UnknownTable(_))));
        cat.register_table(Table::new("t", vec![Column::i64("k", vec![1])]).unwrap());
        assert_eq!(cat.table("t").unwrap().n_rows(), 1);
        assert_eq!(cat.table_names(), vec!["t"]);
    }

    #[test]
    fn storage_stats_report_encodings_and_ratios() {
        let cat = Catalog::new();
        let plain = Table::new(
            "fact",
            vec![
                Column::i64("ckey", (0..1000).map(|i| i % 25).collect()),
                Column::f64("rev", vec![1.0; 1000]),
            ],
        )
        .unwrap();
        cat.register_table(plain.encode_keys(&[("ckey", 25)]).unwrap());
        let stats = cat.storage_stats();
        assert_eq!(stats.len(), 1);
        let t = &stats[0];
        assert_eq!((t.table.as_str(), t.rows), ("fact", 1000));
        assert_eq!(t.bytes, cat.total_bytes(), "stats agree with total_bytes");
        assert!(t.bytes < t.plain_bytes, "encoded table beats plain footprint");
        assert_eq!(t.columns[0].encoding, "key-bitpack");
        assert!(t.columns[0].bytes * 10 < t.columns[0].plain_bytes, "5/64 bits per row");
    }

    /// A sum view of measure `m` over cube `c` at `slots`, with `rows` cells.
    fn view(name: &str, rows: u64, slots: Vec<Option<usize>>) -> MaterializedAggregate {
        let q = CubeQuery::new("c", GroupBySet::from_slots(slots), vec![], vec!["m".into()]);
        MaterializedAggregate::new(name, q, (0..rows).collect(), vec![vec![1.0; rows as usize]])
            .unwrap()
    }

    /// Binds cube `c` — one hierarchy `l0 ⪰ l1`, measure `m` — over a
    /// one-row fact table.
    fn bind_c(cat: &Catalog) {
        let mut h = HierarchyBuilder::new("h", ["l0", "l1"]);
        h.add_member_chain(&["a", "b"]).unwrap();
        let schema =
            CubeSchema::new("c", vec![h.build().unwrap()], vec![MeasureDef::new("m", AggOp::Sum)]);
        let fact =
            Table::new("f", vec![Column::i64("k", vec![0]), Column::f64("m", vec![1.0])]).unwrap();
        let dim = DimInfo {
            table: "h".into(),
            pk: "k".into(),
            level_columns: vec!["k".into(), "l1".into()],
        };
        let binding = CubeBinding::new(
            Arc::new(schema),
            &fact,
            vec!["k".into()],
            vec!["m".into()],
            vec![dim],
        );
        cat.register_binding("c", binding.unwrap());
    }

    #[test]
    fn best_view_picks_smallest_match() {
        let cat = Catalog::new();
        bind_c(&cat);
        let query = |cube: &str, slots: Vec<Option<usize>>, m: &str| {
            CubeQuery::new(cube, GroupBySet::from_slots(slots), vec![], vec![m.to_string()])
        };
        cat.register_view(view("big", 100, vec![Some(0)]));
        cat.register_view(view("small", 10, vec![Some(0)]));
        let best = cat.best_view(&query("c", vec![Some(1)], "m")).unwrap();
        assert_eq!(best.name(), "small");
        assert!(cat.best_view(&query("c", vec![Some(0)], "other")).is_none());
        assert!(cat.best_view(&query("d", vec![Some(1)], "m")).is_none());
    }

    /// Registering a view under a taken name replaces it, so a query and
    /// an append both see the one view of that name.
    #[test]
    fn register_view_replaces_a_same_named_view() {
        let cat = Catalog::new();
        cat.register_view(view("mv", 100, vec![Some(0)]));
        cat.register_view(view("mv", 10, vec![Some(0)]));
        let views = cat.views();
        assert_eq!(views.len(), 1);
        assert_eq!(views[0].len(), 10);
    }

    #[test]
    fn version_counts_mutations_and_settles_even() {
        let cat = Catalog::new();
        let v0 = cat.version();
        assert_eq!(v0 % 2, 0);
        cat.register_table(Table::new("t", vec![Column::i64("k", vec![1])]).unwrap());
        let v1 = cat.version();
        assert!(v1 > v0);
        assert_eq!(v1 % 2, 0, "no mutation in flight → even version");
        // Reads do not bump the version.
        cat.table("t").unwrap();
        cat.table_names();
        assert_eq!(cat.version(), v1);
        cat.register_view(view("mv", 1, vec![Some(0)]));
        assert!(cat.version() > v1);
    }

    #[test]
    fn commit_append_swaps_table_and_carries_delta() {
        let cat = Catalog::new();
        let base = cat.register_table(Table::new("t", vec![Column::i64("k", vec![0, 1])]).unwrap());
        let v0 = cat.version();
        let batch = vec![Column::i64("k", vec![2])];
        let appended = base.append_batch(&batch).unwrap();
        let delta = Delta::describe("t", base.n_rows(), &batch);
        let committed = cat.commit_append(&base, Arc::new(appended), vec![], &[], delta).unwrap();
        let v1 = cat.version();
        assert_eq!(v1, v0 + 2, "one commit, one settled step");
        assert_eq!(committed.version(), v1);
        assert_eq!(cat.table("t").unwrap().n_rows(), 3);
    }

    #[test]
    fn commit_append_detects_lost_races() {
        let cat = Catalog::new();
        let base = cat.register_table(Table::new("t", vec![Column::i64("k", vec![0])]).unwrap());
        // Another writer swaps the table before our commit lands.
        cat.register_table(Table::new("t", vec![Column::i64("k", vec![0, 7])]).unwrap());
        let v = cat.version();
        let batch = vec![Column::i64("k", vec![1])];
        let appended = base.append_batch(&batch).unwrap();
        let delta = Delta::describe("t", base.n_rows(), &batch);
        let err = cat.commit_append(&base, Arc::new(appended), vec![], &[], delta).unwrap_err();
        assert!(matches!(err, StorageError::ConcurrentMutation(_)));
        assert_eq!(cat.version(), v, "a failed commit does not bump the version");
        assert_eq!(cat.table("t").unwrap().n_rows(), 2, "the racing write survives");
    }

    #[test]
    fn commit_append_replaces_and_drops_views() {
        let cat = Catalog::new();
        let base = cat.register_table(Table::new("t", vec![Column::i64("k", vec![0, 0])]).unwrap());
        let mk = |name: &str, total: f64| {
            let q = CubeQuery::new(
                "c",
                GroupBySet::from_slots(vec![Some(0)]),
                vec![],
                vec!["m".into()],
            );
            MaterializedAggregate::new(name, q, vec![0], vec![vec![total]]).unwrap()
        };
        cat.register_view(mk("kept", 1.0));
        cat.register_view(mk("doomed", 2.0));
        let batch = vec![Column::i64("k", vec![0])];
        let appended = base.append_batch(&batch).unwrap();
        let delta = Delta::describe("t", base.n_rows(), &batch);
        cat.commit_append(
            &base,
            Arc::new(appended),
            vec![mk("kept", 3.0)],
            &["doomed".into()],
            delta,
        )
        .unwrap();
        let views = cat.views();
        assert_eq!(views.len(), 1);
        assert_eq!(views[0].name(), "kept");
        assert_eq!(views[0].measure("m"), Some(&[3.0][..]));
    }

    #[test]
    fn concurrent_readers() {
        let cat = Arc::new(Catalog::new());
        cat.register_table(Table::new("t", vec![Column::i64("k", (0..1000).collect())]).unwrap());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cat = cat.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        assert_eq!(cat.table("t").unwrap().n_rows(), 1000);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
