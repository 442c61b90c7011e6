//! The engine proper: `get`, and `get` fused with the one join/pivot
//! operator ([`mod@crate::attach`]) — JOP's `get ⋈ get` and POP's `get + pivot`.

use std::ops::Range;
use std::sync::Arc;

use olap_model::{
    AggOp, CubeColumn, CubeQuery, CubeSchema, DerivedCube, GroupBySet, MemberId, NumericColumn,
};
use olap_storage::{Catalog, CubeBinding, MaterializedAggregate, NumericSlice, Table};

use crate::aggregate::{accumulate_chunk, Grouper, Grouping, Partial};
use crate::attach::{attach, AttachSpec, Keep, Rewrite, Side};
use crate::error::EngineError;
use crate::fault::{FaultInjector, FaultSite};
use crate::governor::{ResourceGovernor, CHECK_INTERVAL};
use crate::key::KeyLayout;
use crate::metrics::{self, EngineMetrics, ScanPath};
use crate::pool::{run_morsels, MorselScan, MorselScratch, ScanRun, WorkerPool};
use crate::predicate::{select_into, CompiledFilter};
use crate::shard::{
    at_shard, merge_shard_scans, Shard, ShardBudget, ShardPartial, ShardScan, ShardSet,
};

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Answer queries from materialized views when possible (the paper's
    /// setup always has them; the ablation bench turns this off).
    pub use_views: bool,
    /// Use foreign-key hash indexes for selective point predicates on
    /// finest levels (the paper's B-tree-indexed keys).
    pub use_indexes: bool,
    /// Maximum fraction of a level's domain a predicate may select and
    /// still take the index path.
    pub index_selectivity: f64,
    /// Rows per morsel — the unit of parallel work distribution *and* of
    /// the deterministic partial-aggregate merge. The default matches the
    /// governor's [`CHECK_INTERVAL`], preserving the serial engine's
    /// budget-check cadence.
    pub morsel_rows: usize,
    /// Cap on threads per scan; `0` = auto (attached pool size + 1, or the
    /// hardware). Clamped further by `ASSESS_MAX_THREADS` at query time.
    pub max_threads: usize,
    /// Minimum row count before a scan uses more than one thread.
    pub parallel_threshold: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            use_views: true,
            use_indexes: true,
            index_selectivity: 0.01,
            morsel_rows: CHECK_INTERVAL,
            max_threads: 0,
            parallel_threshold: 1 << 16,
        }
    }
}

/// The `ASSESS_MAX_THREADS` environment clamp on per-scan parallelism
/// (read fresh per query so tests can flip it); unset/invalid = no clamp.
fn env_thread_cap() -> usize {
    std::env::var("ASSESS_MAX_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(usize::MAX)
}

/// Join semantics: `assess` maps to an inner join, `assess*` to a
/// left-outer join completed with nulls (Section 4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    LeftOuter,
}

/// A `get` cost estimate (see [`Engine::estimate_get`]).
#[derive(Debug, Clone, Copy)]
pub struct GetEstimate {
    /// Rows the access path will scan (view or fact table).
    pub rows_scanned: usize,
    /// Whether a materialized view answers the query.
    pub from_view: bool,
    /// Estimated fraction of scanned rows satisfying the predicates.
    pub selectivity: f64,
    /// Estimated result cardinality `|C|`.
    pub cells: f64,
}

/// The result of a `get`, with access-path diagnostics.
#[derive(Debug, Clone)]
pub struct GetOutcome {
    pub cube: DerivedCube,
    /// Name of the materialized view answering the query, if one was used.
    pub used_view: Option<String>,
    /// Rows scanned from the fact table or the view.
    pub rows_scanned: usize,
    /// Threads that actually worked the scan (1 = serial; fused operators
    /// report the maximum of their two sides).
    pub parallelism: usize,
    /// Morsels the scan was split into (fused operators report the sum).
    pub morsels: usize,
    /// How the scan resolved group keys to aggregation slots.
    pub grouping: Grouping,
    /// Groups the scan aggregated into, before any fused join or pivot
    /// dropped cells (fused operators report the sum of their sides).
    pub groups: usize,
    /// Per-shard scan statistics when the engine coordinates a
    /// [`ShardSet`]; empty for unsharded execution. The entries sum to
    /// `rows_scanned`/`morsels` (fused operators merge both sides per
    /// shard index).
    pub per_shard: Vec<ShardScan>,
}

/// Access-path diagnostics of one executed get, or of the two sides of a
/// fused operator combined.
struct ScanStats {
    used_view: Option<String>,
    rows_scanned: usize,
    parallelism: usize,
    morsels: usize,
    groups: usize,
    per_shard: Vec<ShardScan>,
}

impl ScanStats {
    /// Stats of one unsharded scan ([`GetInternal::new`] fills `groups`).
    fn of_scan(
        used_view: Option<String>,
        rows_scanned: usize,
        parallelism: usize,
        morsels: usize,
    ) -> Self {
        ScanStats {
            used_view,
            rows_scanned,
            parallelism,
            morsels,
            groups: 0,
            per_shard: Vec::new(),
        }
    }

    /// Both sides of a fused operator: counts add, parallelism takes the
    /// maximum, the left (target) side names the view.
    fn fused(self, right: &ScanStats) -> ScanStats {
        ScanStats {
            used_view: self.used_view,
            rows_scanned: self.rows_scanned + right.rows_scanned,
            parallelism: self.parallelism.max(right.parallelism),
            morsels: self.morsels + right.morsels,
            groups: self.groups + right.groups,
            per_shard: merge_shard_scans(&self.per_shard, &right.per_shard),
        }
    }
}

/// An executed get kept in the engine's internal packed representation, so
/// fused operators can join/pivot without materializing coordinates.
struct GetInternal {
    schema: Arc<CubeSchema>,
    group_by: GroupBySet,
    layout: KeyLayout,
    table: Partial,
    measures: Vec<String>,
    stats: ScanStats,
}

impl GetInternal {
    fn new(
        q: &CubeQuery,
        schema: &Arc<CubeSchema>,
        layout: &KeyLayout,
        table: Partial,
        stats: ScanStats,
    ) -> Self {
        GetInternal {
            schema: schema.clone(),
            group_by: q.group_by.clone(),
            layout: layout.clone(),
            stats: ScanStats { groups: table.len(), ..stats },
            table,
            measures: q.measures.clone(),
        }
    }

    /// This get as one side of an [`attach()`] over `keys` of its table.
    fn side<'a>(&'a self, keys: &'a [u64]) -> Side<'a> {
        Side { group_by: &self.group_by, layout: &self.layout, keys }
    }

    /// Materializes the cells in `slots` (slots of `table`, in output
    /// order — callers pass ascending key order, which is the canonical
    /// coordinate order) with the `extra` nullable columns appended;
    /// `right` is the other side of a fused operator, if any.
    fn into_outcome(
        self,
        slots: &[u32],
        extra: Vec<(String, Vec<Option<f64>>)>,
        right: Option<&ScanStats>,
    ) -> Result<GetOutcome, EngineError> {
        let stats = match right {
            Some(right) => self.stats.fused(right),
            None => self.stats,
        };
        let grouping = Grouping::of(&self.layout);
        let (coord_cols, cols) = self.table.emit(&self.layout, slots);
        let dense =
            self.measures.into_iter().zip(cols).map(|(n, col)| NumericColumn::dense(n, col));
        let nullable = extra.into_iter().map(|(n, col)| NumericColumn::nullable(n, col));
        let columns = dense.chain(nullable).map(CubeColumn::Numeric).collect();
        let cube = DerivedCube::from_parts(self.schema, self.group_by, coord_cols, columns)?;
        Ok(GetOutcome {
            cube,
            used_view: stats.used_view,
            rows_scanned: stats.rows_scanned,
            parallelism: stats.parallelism,
            morsels: stats.morsels,
            grouping,
            groups: stats.groups,
            per_shard: stats.per_shard,
        })
    }
}

/// Which storage object a scan reads.
pub(crate) enum ScanSource {
    /// The given rows of a fact table: all of them for a query or a view
    /// rebuild, the appended tail for a view's delta merge.
    Fact(Arc<Table>, Range<usize>),
    View(Arc<MaterializedAggregate>),
}

/// The one plan for "these rows of this source → groups": the source,
/// compiled predicate masks, roll-up maps and resolved column indexes.
/// Column *existence and types* are validated when the plan is built. It
/// has three consumers: the morsel driver ([`MorselScan::process`]), the
/// index fast path over sparse rows ([`ScanCtx::aggregate_rows`]) and the
/// serial wide-key fold ([`crate::wide`]).
///
/// Per morsel, workers first decode every distinct id column into a flat
/// `u32` lane of the scratch (`DataChunk::key_lane` unpacks bit-packed and
/// RLE key columns; views copy coordinate components) and convert measures
/// to `f64` lanes, then run the branch-free select + accumulate kernels
/// over those lanes — the inner loops never branch on the physical
/// encoding.
pub(crate) struct ScanCtx {
    pub(crate) source: ScanSource,
    /// Distinct id columns the kernels read (fact: fk column index; view:
    /// coordinate component), each decoded into one scratch lane per morsel.
    /// Masks and keys refer to these by slot, so a column shared by a
    /// predicate and a group-by component decodes once.
    pub(crate) lane_cols: Vec<usize>,
    /// Per predicate: the lane slot of its id column and the allowed-member
    /// mask over its domain.
    masks: Vec<(usize, Arc<[bool]>)>,
    /// Per group-by component: the lane slot and the roll-up map (member
    /// ids as raw codes) from the carried level to the queried level.
    pub(crate) keys: Vec<(usize, Vec<u32>)>,
    /// Measure columns (fact: table column index; view: measure index).
    pub(crate) measures: Vec<usize>,
    pub(crate) layout: KeyLayout,
    pub(crate) ops: Vec<AggOp>,
}

/// The scratch-lane slot for id column `col`, reusing an existing slot when
/// the column is already scheduled for decode.
fn lane_slot(lane_cols: &mut Vec<usize>, col: usize) -> usize {
    lane_cols.iter().position(|&c| c == col).unwrap_or_else(|| {
        lane_cols.push(col);
        lane_cols.len() - 1
    })
}

/// What every plan of `q` starts from: the query validated against
/// `schema`, each measure's aggregation operator, and the packed key layout
/// of its group-by set (which may exceed a machine word — see
/// [`KeyLayout::fits_u64`]).
pub(crate) fn query_shape(
    schema: &CubeSchema,
    q: &CubeQuery,
) -> Result<(Vec<AggOp>, KeyLayout), EngineError> {
    q.validate(schema)?;
    let ops = q
        .measures
        .iter()
        .map(|m| schema.require_measure(m).map(|d| d.agg()))
        .collect::<Result<_, _>>()?;
    Ok((ops, KeyLayout::for_group_by(schema, &q.group_by)))
}

impl ScanCtx {
    /// Plans `q` (of shape `ops` / `layout`, see [`query_shape`]) over rows
    /// `rows` of `fact`: resolves and type-checks every column up front
    /// (borrowing, never copying measure columns per query), so consumers
    /// can index into chunks infallibly. Foreign keys may be plain `i64` or
    /// encoded key columns — both decode into the same flat lanes. `fact`
    /// and `rows` are explicit because view maintenance plans against a
    /// grown table the catalog does not hold yet; neither the governor nor
    /// the fault injector is consulted.
    pub(crate) fn over_fact(
        binding: &CubeBinding,
        fact: &Arc<Table>,
        rows: Range<usize>,
        q: &CubeQuery,
        ops: &[AggOp],
        layout: &KeyLayout,
    ) -> Result<ScanCtx, EngineError> {
        let schema = binding.schema();
        let carrier: Vec<Option<usize>> = vec![Some(0); schema.hierarchies().len()];
        let filter = CompiledFilter::compile(schema, &q.predicates, &carrier)?;
        let mut lane_cols: Vec<usize> = Vec::new();
        let mut masks: Vec<(usize, Arc<[bool]>)> = Vec::new();
        for m in filter.masks() {
            let idx = fact.require_key_like(binding.fk_column(m.hierarchy))?;
            masks.push((lane_slot(&mut lane_cols, idx), m.mask.clone()));
        }
        let mut keys: Vec<(usize, Vec<u32>)> = Vec::new();
        for (hi, li) in q.group_by.included_hierarchies() {
            let idx = fact.require_key_like(binding.fk_column(hi))?;
            let h = schema.hierarchy(hi).expect("hierarchy in range");
            let roll: Vec<u32> = h.composed_map(0, li)?.iter().map(|m| m.0).collect();
            keys.push((lane_slot(&mut lane_cols, idx), roll));
        }
        let mut measures: Vec<usize> = Vec::new();
        for m in &q.measures {
            let col_name = binding.measure_column_by_name(m).ok_or_else(|| {
                EngineError::Model(olap_model::ModelError::UnknownMeasure(m.clone()))
            })?;
            fact.numeric_slice(col_name).map_err(|_| {
                EngineError::Unsupported(format!("measure column `{col_name}` is not numeric"))
            })?;
            measures.push(fact.column_index(col_name).expect("numeric_slice checked existence"));
        }
        Ok(ScanCtx {
            source: ScanSource::Fact(fact.clone(), rows),
            lane_cols,
            masks,
            keys,
            measures,
            layout: layout.clone(),
            ops: ops.to_vec(),
        })
    }

    /// Decodes rows `lo..lo + len` of `fact` for the kernels: every distinct
    /// id column into its lane of `lanes`, and each measure as one `f64`
    /// slice (borrowed, or converted into `vals`). `None` skips the morsel:
    /// a masked run-length column whose overlapping runs all fail its mask
    /// proves no row survives the predicate conjunction, so the decode and
    /// the kernels can be skipped outright. On date-clustered facts this
    /// prunes most of the table for time-sliced queries; bit-packed columns
    /// answer "maybe" and take the normal path.
    pub(crate) fn decode_fact<'a>(
        &'a self,
        fact: &'a Table,
        lo: usize,
        len: usize,
        lanes: &mut [Vec<u32>],
        vals: &'a mut [Vec<f64>],
    ) -> Option<impl Iterator<Item = &'a [f64]>> {
        let cant_match = |(slot, m): &(usize, Arc<[bool]>)| {
            matches!(
                &fact.columns()[self.lane_cols[*slot]].data,
                olap_storage::ColumnData::Key(k)
                    if !k.codes.may_match(lo, lo + len, |c| {
                        m.get(c as usize).copied().unwrap_or(false)
                    })
            )
        };
        if self.masks.iter().any(cant_match) {
            return None;
        }
        let chunk = fact.chunk(lo, len);
        for (col, buf) in self.lane_cols.iter().zip(lanes.iter_mut()) {
            chunk.key_lane(*col, buf).expect("validated key column");
        }
        Some(
            self.measures.iter().zip(vals.iter_mut()).map(move |(idx, buf)| {
                chunk.f64_lane(*idx, buf).expect("validated measure column")
            }),
        )
    }

    /// The predicate kernel over one morsel's decoded lanes: `sel` becomes
    /// the morsel-local ids of the rows that pass every mask.
    pub(crate) fn select(&self, sel: &mut Vec<u32>, lanes: &[Vec<u32>], len: usize) {
        let masks = self.masks.iter().map(|(slot, m)| (lanes[*slot].as_slice(), &**m));
        select_into(sel, len, masks);
    }

    /// Runs the select + accumulate kernels over one morsel's decoded lanes.
    fn run_kernels<'a>(
        &'a self,
        sel: &mut Vec<u32>,
        lanes: &'a [Vec<u32>],
        grouper: &mut Grouper,
        out: &mut Partial,
        len: usize,
        measures: impl IntoIterator<Item = &'a [f64]>,
    ) {
        let selection = if self.masks.is_empty() {
            None
        } else {
            self.select(sel, lanes, len);
            Some(sel.as_slice())
        };
        let keys = self.keys.iter().map(|(slot, roll)| (lanes[*slot].as_slice(), roll.as_slice()));
        accumulate_chunk(out, grouper, &self.layout, len, selection, keys, measures);
    }

    /// The index fast path: aggregates the sparse, ascending `rows` of
    /// `fact`. The row set is sparse, so whole-column decode would be
    /// waste: codes and values are gathered through point accessors into
    /// the scratch lanes, one governor-check interval at a time, and the
    /// same kernels fold each gathered chunk into one partial. Serial.
    fn aggregate_rows(
        &self,
        fact: &Table,
        rows: &[u32],
        check: impl Fn() -> Result<(), EngineError>,
    ) -> Result<Partial, EngineError> {
        let cols = fact.columns();
        let mut scratch = MorselScratch::new(&self.layout, &self.ops);
        scratch.ensure_slots(self.lane_cols.len(), self.measures.len());
        for chunk in rows.chunks(CHECK_INTERVAL) {
            check()?;
            let MorselScratch { sel, lanes, vals, grouper, partial } = &mut scratch;
            for (col, lane) in self.lane_cols.iter().zip(lanes.iter_mut()) {
                let codes = cols[*col].key_access().expect("validated key column");
                lane.clear();
                lane.extend(chunk.iter().map(|&row| codes.get(row as usize) as u32));
            }
            for (col, lane) in self.measures.iter().zip(vals.iter_mut()) {
                let values = NumericSlice::from_column(&cols[*col]).expect("validated measure");
                lane.clear();
                lane.extend(chunk.iter().map(|&row| values.get(row as usize)));
            }
            let measures = vals.iter().map(|lane| &lane[..]);
            self.run_kernels(sel, lanes, grouper, partial, chunk.len(), measures);
        }
        Ok(scratch.partial)
    }
}

impl MorselScan for ScanCtx {
    fn n_rows(&self) -> usize {
        match &self.source {
            ScanSource::Fact(_, rows) => rows.len(),
            ScanSource::View(v) => v.len(),
        }
    }

    fn layout(&self) -> &KeyLayout {
        &self.layout
    }

    fn ops(&self) -> &[AggOp] {
        &self.ops
    }

    /// `lo..hi` is morsel-local: a fact scan adds the start of its row
    /// range, so morsel *k* of a ranged scan covers
    /// `start + k·morsel_rows ..` of the table.
    fn process(
        &self,
        lo: usize,
        hi: usize,
        scratch: &mut MorselScratch,
    ) -> Result<(), EngineError> {
        let len = hi - lo;
        scratch.ensure_slots(self.lane_cols.len(), self.measures.len());
        let MorselScratch { sel, lanes, vals, grouper, partial } = scratch;
        match &self.source {
            ScanSource::Fact(t, rows) => {
                if let Some(measures) = self.decode_fact(t, rows.start + lo, len, lanes, vals) {
                    self.run_kernels(sel, lanes, grouper, partial, len, measures);
                }
            }
            ScanSource::View(v) => {
                for (comp, buf) in self.lane_cols.iter().zip(lanes.iter_mut()) {
                    buf.clear();
                    buf.extend(v.coord_cols()[*comp][lo..hi].iter().map(|m| m.0));
                }
                let measures = self
                    .measures
                    .iter()
                    .map(|idx| &v.measure_at(*idx).expect("validated view measure")[lo..hi]);
                self.run_kernels(sel, lanes, grouper, partial, len, measures);
            }
        }
        Ok(())
    }
}

/// The physical execution engine over a [`Catalog`].
///
/// Cloning is cheap (the catalog is shared); the assess runtime clones the
/// engine per execution attempt to attach a fresh [`ResourceGovernor`].
#[derive(Clone)]
pub struct Engine {
    catalog: Arc<Catalog>,
    config: EngineConfig,
    /// Resource limits this engine's executions run under; `None` = no
    /// limits and no cooperative cancellation.
    governor: Option<Arc<ResourceGovernor>>,
    /// Deterministic fault injection for resilience tests; `None` (the
    /// default) injects nothing.
    faults: Option<Arc<FaultInjector>>,
    /// Worker pool for parallel scans; `None` falls back to the
    /// process-wide [`WorkerPool::global`] when a scan wants helpers.
    pool: Option<Arc<WorkerPool>>,
    /// Scan-metrics registry; defaults to the process-wide
    /// [`metrics::global`] registry.
    metrics: Arc<EngineMetrics>,
    /// Shard topology this engine coordinates over; `None` (the default)
    /// executes against its own catalog directly.
    shards: Option<Arc<ShardSet>>,
}

impl Engine {
    pub fn new(catalog: Arc<Catalog>) -> Self {
        Engine::with_config(catalog, EngineConfig::default())
    }

    pub fn with_config(catalog: Arc<Catalog>, config: EngineConfig) -> Self {
        Engine {
            catalog,
            config,
            governor: None,
            faults: None,
            pool: None,
            metrics: metrics::global().clone(),
            shards: None,
        }
    }

    /// Attaches a resource governor; all subsequent queries check it at
    /// operator boundaries and once per claimed morsel inside scans.
    pub fn with_governor(mut self, governor: Arc<ResourceGovernor>) -> Self {
        self.governor = Some(governor);
        self
    }

    /// Attaches a fault injector (resilience tests only).
    pub fn with_fault_injector(mut self, faults: Arc<FaultInjector>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Attaches a shared worker pool for parallel scans (the serve layer
    /// builds one per process so concurrent queries share the cores).
    pub fn with_worker_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Attaches a private scan-metrics registry, replacing the process-wide
    /// default — tests use this so concurrent test threads cannot perturb
    /// each other's counter deltas.
    pub fn with_metrics(mut self, metrics: Arc<EngineMetrics>) -> Self {
        self.metrics = metrics;
        self
    }

    /// The scan-metrics registry this engine records into.
    pub fn metrics(&self) -> &Arc<EngineMetrics> {
        &self.metrics
    }

    /// Attaches a shard topology: this engine becomes a scatter-gather
    /// coordinator. Its own catalog keeps the dimension tables, bindings
    /// (over empty-but-typed fact tables) and delta history; scans and
    /// appends fan out to the shards. See [`crate::shard`].
    pub fn with_shards(mut self, shards: Arc<ShardSet>) -> Self {
        self.shards = Some(shards);
        self
    }

    /// The shard topology this engine coordinates, if any.
    pub fn shards(&self) -> Option<&Arc<ShardSet>> {
        self.shards.as_ref()
    }

    /// The sub-engine executing one local shard: same configuration,
    /// governor (budgets are global across the fan-out), fault injector,
    /// worker pool and metrics registry — but the shard's own catalog and
    /// no shard set (recursion-safe).
    pub(crate) fn for_shard(&self, catalog: Arc<Catalog>) -> Engine {
        Engine {
            catalog,
            config: self.config.clone(),
            governor: self.governor.clone(),
            faults: self.faults.clone(),
            pool: self.pool.clone(),
            metrics: self.metrics.clone(),
            shards: None,
        }
    }

    /// Tightens the per-scan thread cap: the effective cap becomes the
    /// minimum of the current configuration and `n` (`0` is ignored).
    /// Used by the assess runtime to apply `ExecutionPolicy::max_threads`.
    pub fn with_thread_cap(mut self, n: usize) -> Self {
        if n > 0 {
            self.config.max_threads =
                if self.config.max_threads == 0 { n } else { self.config.max_threads.min(n) };
        }
        self
    }

    /// The degree-of-parallelism ceiling scans run under: the configured
    /// cap (or the pool/hardware when auto), clamped by the
    /// `ASSESS_MAX_THREADS` environment override. Data-size gating
    /// ([`EngineConfig::parallel_threshold`]) applies on top per scan.
    pub fn parallelism_cap(&self) -> usize {
        let cap = if self.config.max_threads == 0 {
            match &self.pool {
                Some(p) => p.threads() + 1,
                None => std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1),
            }
        } else {
            self.config.max_threads
        };
        cap.min(env_thread_cap()).max(1)
    }

    pub fn worker_pool(&self) -> Option<&Arc<WorkerPool>> {
        self.pool.as_ref()
    }

    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    pub fn governor(&self) -> Option<&Arc<ResourceGovernor>> {
        self.governor.as_ref()
    }

    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.faults.as_ref()
    }

    /// Fault-injection trigger point (no-op without an injector).
    fn fault(&self, site: FaultSite) -> Result<(), EngineError> {
        match &self.faults {
            Some(f) => f.check(site),
            None => Ok(()),
        }
    }

    /// Cooperative deadline/cancellation checkpoint.
    pub(crate) fn gov_check(&self) -> Result<(), EngineError> {
        match &self.governor {
            Some(g) => g.check(),
            None => Ok(()),
        }
    }

    /// Charges scanned rows against the budget (pre-charged, so over-budget
    /// scans fail before doing the work).
    pub(crate) fn gov_charge_rows(&self, n: usize) -> Result<(), EngineError> {
        match &self.governor {
            Some(g) => g.charge_rows_scanned(n as u64),
            None => Ok(()),
        }
    }

    /// Charges materialized result cells against the budget.
    fn gov_charge_cells(&self, n: usize) -> Result<(), EngineError> {
        match &self.governor {
            Some(g) => g.charge_output_cells(n as u64),
            None => Ok(()),
        }
    }

    /// Drives a morsel scan: resolves the effective degree of parallelism
    /// (size gating, config/env caps), picks the pool, and hands off to
    /// [`run_morsels`]. Small inputs run serially on the caller's thread
    /// through the same code path, so results are byte-identical at every
    /// thread count. Queries run `governed` — every claimed morsel checks
    /// the governor and the fault injector; view maintenance does not (an
    /// append is not a tenant's query, and a committed table needs its
    /// views).
    pub(crate) fn run_scan(&self, ctx: ScanCtx, governed: bool) -> Result<ScanRun, EngineError> {
        let n_rows = MorselScan::n_rows(&ctx);
        let morsel_rows = self.config.morsel_rows.max(1);
        let dop = if n_rows < self.config.parallel_threshold { 1 } else { self.parallelism_cap() };
        let pool = (dop > 1).then(|| self.pool.clone().unwrap_or_else(WorkerPool::global));
        let (governor, faults) =
            if governed { (self.governor.clone(), self.faults.clone()) } else { (None, None) };
        run_morsels(pool.as_ref(), dop, morsel_rows, Arc::new(ctx), governor, faults)
    }

    /// Appends a batch of fact rows to `cube`'s fact table, incrementally
    /// maintaining every dependent materialized view, and commits table,
    /// views and the change's [`olap_storage::Delta`] under one catalog
    /// version bump. See [`crate::maintain`] for the full contract.
    pub fn append(
        &self,
        cube: &str,
        batch: &[olap_storage::Column],
    ) -> Result<crate::maintain::MaintainOutcome, EngineError> {
        if let Some(set) = &self.shards {
            let set = set.clone();
            return crate::shard::append_sharded(self, &set, cube, batch);
        }
        crate::maintain::append(self, cube, batch)
    }

    /// Executes a cube query (the `get` logical operator, Definition 2.6),
    /// producing a sorted, materialized derived cube.
    ///
    /// Group-by sets whose packed key does not fit a machine word fall back
    /// to a wide-key scan (`crate::wide`); fused join/pivot paths keep
    /// requiring packed keys.
    pub fn get(&self, q: &CubeQuery) -> Result<GetOutcome, EngineError> {
        let outcome = match self.run_get(q) {
            Ok(internal) => materialize(internal)?,
            // The wide fallback reads the coordinator's own fact table,
            // which is empty by design when sharded — propagate instead.
            Err(EngineError::WideKey { .. }) if self.shards.is_none() => {
                let binding = self.catalog.binding(&q.cube)?;
                let fact = self.catalog.table(binding.fact_table())?;
                let (ops, layout) = query_shape(binding.schema(), q)?;
                let rows = 0..fact.n_rows();
                let ctx = ScanCtx::over_fact(&binding, &fact, rows, q, &ops, &layout)?;
                let o = crate::wide::get_wide(self, &ctx, binding.schema(), q)?;
                self.metrics.record_scan(
                    ScanPath::Wide,
                    o.rows_scanned as u64,
                    o.morsels as u64,
                    o.parallelism as u64,
                    o.grouping,
                );
                o
            }
            Err(e) => return Err(e),
        };
        self.gov_charge_cells(outcome.cube.len())?;
        Ok(outcome)
    }

    /// Executes the target query and the benchmark query and attaches the
    /// benchmark's cells to the target's **inside the engine**, on the two
    /// partial aggregates, before anything is materialized — the fused half
    /// of the Join-Optimized Plan (Listing 4) and, with no `bench_q`, of
    /// the Pivot-Optimized Plan (Listing 5), whose benchmark is the widened
    /// target get itself. `spec` says which cells pair up (see
    /// [`mod@crate::attach`]); `spec.measure` is selected from the benchmark by
    /// name and lands in one nullable column per `spec.names` entry.
    pub fn get_attach(
        &self,
        target_q: &CubeQuery,
        bench_q: Option<&CubeQuery>,
        spec: &AttachSpec<'_>,
    ) -> Result<GetOutcome, EngineError> {
        let target = self.run_get(target_q)?;
        let bench = bench_q.map(|q| self.run_get(q)).transpose()?;
        let probed = bench.as_ref().unwrap_or(&target);
        let midx = probed.measures.iter().position(|m| m == spec.measure).ok_or_else(|| {
            spec.refuse(format!("measure `{}` not in the benchmark query", spec.measure))
        })?;
        let order = target.table.key_order();
        let keys: Vec<u64> = order.iter().map(|&s| target.table.keys()[s as usize]).collect();
        let found = attach(
            target.side(&keys),
            probed.side(probed.table.keys()),
            spec,
            self.governor.as_deref(),
        )?;
        let values = probed.table.measure(midx);
        let extra = found.columns(spec.names, |row| values[row as usize]).collect();
        let slots: Vec<u32> = found.kept.iter().map(|&i| order[i as usize]).collect();
        let outcome = target.into_outcome(&slots, extra, bench.as_ref().map(|b| &b.stats))?;
        self.gov_charge_cells(outcome.cube.len())?;
        Ok(outcome)
    }

    /// [`Engine::get_attach`] as a natural join `C ⋈ B` (Definition 3.1:
    /// cells pair by coordinate equality): the benchmark query's first
    /// measure lands in the column `right_renames` names.
    pub fn get_join(
        &self,
        left_q: &CubeQuery,
        right_q: &CubeQuery,
        kind: JoinKind,
        right_renames: &[String],
    ) -> Result<GetOutcome, EngineError> {
        let measure = right_q.measures.first().map_or("", String::as_str);
        let rewrites = vec![Rewrite::Same];
        let spec =
            AttachSpec { on: None, rewrites, keep: kind.into(), measure, names: right_renames };
        self.get_attach(left_q, Some(right_q), &spec)
    }

    /// [`Engine::get_attach`] as the partial join `C ⋈_{G\l} B` (Section
    /// 4.2): the benchmark holds slices of `slice_hierarchy`'s level, and
    /// every member of `slice_members` contributes the column of
    /// `column_names` holding that slice's `measure`.
    #[allow(clippy::too_many_arguments)]
    pub fn get_join_sliced(
        &self,
        left_q: &CubeQuery,
        right_q: &CubeQuery,
        slice_hierarchy: usize,
        slice_members: &[MemberId],
        measure: &str,
        column_names: &[String],
        kind: JoinKind,
    ) -> Result<GetOutcome, EngineError> {
        let rewrites = Rewrite::members(slice_members);
        let (on, keep) = (Some(slice_hierarchy), kind.into());
        let spec = AttachSpec { on, rewrites, keep, measure, names: column_names };
        self.get_attach(left_q, Some(right_q), &spec)
    }

    /// [`Engine::get_attach`] as `get + pivot` (Listing 5): `q_all` selects
    /// the `reference` slice of `pivot_hierarchy` and every slice in
    /// `neighbors`; the result keeps the reference slice, with one column
    /// of `neighbor_names` per neighbor holding its `measure` (null where
    /// the neighbor cell does not exist — cube sparsity).
    pub fn get_pivot(
        &self,
        q_all: &CubeQuery,
        pivot_hierarchy: usize,
        reference: MemberId,
        neighbors: &[MemberId],
        measure: &str,
        neighbor_names: &[String],
    ) -> Result<GetOutcome, EngineError> {
        let rewrites = Rewrite::members(neighbors);
        let (on, keep) = (Some(pivot_hierarchy), Keep::Slice(reference));
        let spec = AttachSpec { on, rewrites, keep, measure, names: neighbor_names };
        self.get_attach(q_all, None, &spec)
    }

    /// Estimates the cost of a `get` without running it: the rows the chosen
    /// access path will scan, the filter selectivity, and the expected
    /// result cardinality. Used by the cost-based strategy chooser.
    pub fn estimate_get(&self, q: &CubeQuery) -> Result<GetEstimate, EngineError> {
        let binding = self.catalog.binding(&q.cube)?;
        let schema = binding.schema().clone();
        let (ops, _) = query_shape(&schema, q)?;
        let pred_levels: Vec<(usize, usize)> =
            q.predicates.iter().map(|p| (p.hierarchy, p.level)).collect();
        // When sharded the coordinator's fact table is empty by design; the
        // estimate counts rows across the shard set instead.
        let fact_rows = match &self.shards {
            Some(set) => set.total_rows(binding.fact_table())?,
            None => self.catalog.table(binding.fact_table())?.n_rows(),
        };
        let (rows, from_view) = if self.config.use_views && ops.iter().all(|op| *op == AggOp::Sum) {
            match self.catalog.best_view(&q.group_by, &pred_levels, &q.measures) {
                Some(view) => (view.len(), true),
                None => (fact_rows, false),
            }
        } else {
            (fact_rows, false)
        };
        let carrier: Vec<Option<usize>> = vec![Some(0); schema.hierarchies().len()];
        let selectivity = CompiledFilter::compile(&schema, &q.predicates, &carrier)
            .map(|f| f.estimated_selectivity())
            .unwrap_or(1.0);
        // Group-by slot capacity: the product of the level cardinalities of
        // the included hierarchies, bounded by the qualifying rows.
        let capacity: f64 = q
            .group_by
            .included_hierarchies()
            .map(|(hi, li)| {
                schema
                    .hierarchy(hi)
                    .and_then(|h| h.level(li))
                    .map(|l| l.cardinality() as f64)
                    .unwrap_or(1.0)
            })
            .product();
        let qualifying = rows as f64 * selectivity;
        let cells = qualifying.min(capacity * selectivity.min(1.0)).max(1.0);
        Ok(GetEstimate { rows_scanned: rows, from_view, selectivity, cells })
    }

    /// Runs a get into the internal packed representation.
    fn run_get(&self, q: &CubeQuery) -> Result<GetInternal, EngineError> {
        self.gov_check()?;
        let binding = self.catalog.binding(&q.cube)?;
        let schema = binding.schema().clone();
        let (ops, layout) = query_shape(&schema, q)?;
        if !layout.fits_u64() {
            return Err(EngineError::WideKey { bits: layout.total_bits() });
        }

        // Scatter-gather: a coordinator fans the scan/aggregate stage out
        // to its shards and merges the partials in ascending shard order.
        if let Some(set) = &self.shards {
            let set = set.clone();
            return self.run_get_sharded(q, &schema, &layout, &ops, &set);
        }

        // Try the materialized-view path first.
        if self.config.use_views && ops.iter().all(|op| *op == AggOp::Sum) {
            let pred_levels: Vec<(usize, usize)> =
                q.predicates.iter().map(|p| (p.hierarchy, p.level)).collect();
            if let Some(view) = self.catalog.best_view(&q.group_by, &pred_levels, &q.measures) {
                self.fault(FaultSite::ViewMatch)?;
                return self.get_from_view(q, &schema, &layout, &ops, &view);
            }
        }

        self.get_from_fact(q, &schema, &layout, &ops, &binding)
    }

    /// The coordinator side of a scatter-gather `get`: runs the planned
    /// scan/aggregate stage on every shard in ascending order, merging
    /// each [`Partial`] into one through one [`Grouper`]. Local shards
    /// execute through sub-engines sharing this engine's governor, pool
    /// and metrics; remote shards receive the remaining budget and their
    /// reported rows are charged here on receipt. The first shard failure aborts the whole
    /// get — partial merges are discarded, never returned.
    fn run_get_sharded(
        &self,
        q: &CubeQuery,
        schema: &Arc<CubeSchema>,
        layout: &KeyLayout,
        ops: &[AggOp],
        set: &ShardSet,
    ) -> Result<GetInternal, EngineError> {
        let mut table = Partial::new(ops);
        let mut grouper = Grouper::for_layout(layout);
        let mut per_shard: Vec<ShardScan> = Vec::with_capacity(set.len());
        let mut used_view: Option<String> = None;
        let mut views_agree = true;
        for (i, shard) in set.shards().iter().enumerate() {
            self.gov_check()?;
            let (partial, scan, view) = match shard {
                Shard::Local(catalog) => {
                    let sub = self.for_shard(catalog.clone());
                    let internal = sub.run_get(q)?;
                    let scan = ShardScan {
                        shard: i,
                        rows_scanned: internal.stats.rows_scanned,
                        parallelism: internal.stats.parallelism,
                        morsels: internal.stats.morsels,
                        groups: internal.table.len(),
                    };
                    (internal.table, scan, internal.stats.used_view)
                }
                Shard::Remote(t) => {
                    let budget = self.shard_budget();
                    let p: ShardPartial = t.partial(q, budget).map_err(|e| at_shard(set, i, e))?;
                    // The partial arrived from outside this process: its
                    // keys index the direct-addressed merge below.
                    if !p.partial.conforms(layout, ops) {
                        let reason = "partial does not fit the query's key layout and measures";
                        return Err(EngineError::ShardUnavailable {
                            shard: set.label(i),
                            reason: reason.into(),
                        });
                    }
                    // Remote rows are charged on receipt; the shard node
                    // enforced the forwarded budget during the scan.
                    self.gov_charge_rows(p.rows_scanned)?;
                    let scan = ShardScan {
                        shard: i,
                        rows_scanned: p.rows_scanned,
                        parallelism: p.parallelism,
                        morsels: p.morsels,
                        groups: p.partial.len(),
                    };
                    (p.partial, scan, p.used_view)
                }
            };
            if i == 0 {
                used_view = view;
            } else if used_view != view {
                views_agree = false;
            }
            table.merge(&mut grouper, &partial);
            per_shard.push(scan);
        }
        let stats = ScanStats {
            used_view: if views_agree { used_view } else { None },
            rows_scanned: per_shard.iter().map(|s| s.rows_scanned).sum(),
            parallelism: per_shard.iter().map(|s| s.parallelism).max().unwrap_or(1),
            morsels: per_shard.iter().map(|s| s.morsels).sum(),
            groups: 0,
            per_shard,
        };
        Ok(GetInternal::new(q, schema, layout, table, stats))
    }

    /// The remaining budget to forward with a remote shard request.
    fn shard_budget(&self) -> ShardBudget {
        match &self.governor {
            Some(g) => ShardBudget {
                max_rows: g.remaining_rows(),
                deadline_ms: g.remaining_time().map(|d| d.as_millis() as u64),
            },
            None => ShardBudget::default(),
        }
    }

    /// Runs the scan/aggregate stage of `q` and returns the raw partial
    /// aggregate — the shard-node side of scatter-gather execution (the
    /// serve layer exposes this as the `partial` protocol operation).
    pub fn get_partial(&self, q: &CubeQuery) -> Result<ShardPartial, EngineError> {
        let GetInternal { table, stats, .. } = self.run_get(q)?;
        Ok(ShardPartial {
            partial: table,
            used_view: stats.used_view,
            rows_scanned: stats.rows_scanned,
            parallelism: stats.parallelism,
            morsels: stats.morsels,
        })
    }

    fn get_from_view(
        &self,
        q: &CubeQuery,
        schema: &Arc<CubeSchema>,
        layout: &KeyLayout,
        ops: &[AggOp],
        view: &Arc<MaterializedAggregate>,
    ) -> Result<GetInternal, EngineError> {
        self.fault(FaultSite::DictLookup)?;
        let filter = CompiledFilter::compile(schema, &q.predicates, view.group_by().slots())?;
        // Per included hierarchy of the query: the view coordinate component
        // and the roll-up map from the view's level to the query's level.
        let mut lane_cols: Vec<usize> = Vec::new();
        let mut keys: Vec<(usize, Vec<u32>)> = Vec::new();
        for (hi, li) in q.group_by.included_hierarchies() {
            let view_level = view.group_by().slots()[hi].ok_or_else(|| {
                EngineError::Unsupported("view does not carry a required hierarchy".into())
            })?;
            let comp = view.group_by().component_of(hi).expect("component exists");
            let h = schema.hierarchy(hi).expect("hierarchy in range");
            let roll: Vec<u32> = h.composed_map(view_level, li)?.iter().map(|m| m.0).collect();
            keys.push((lane_slot(&mut lane_cols, comp), roll));
        }
        let mut masks: Vec<(usize, Arc<[bool]>)> = Vec::new();
        for m in filter.masks() {
            let comp = view.group_by().component_of(m.hierarchy).ok_or_else(|| {
                EngineError::Unsupported("view does not carry a predicated hierarchy".into())
            })?;
            masks.push((lane_slot(&mut lane_cols, comp), m.mask.clone()));
        }
        let measures: Vec<usize> =
            q.measures
                .iter()
                .map(|m| {
                    view.measure_names().iter().position(|v| v == m).ok_or_else(|| {
                        EngineError::Unsupported(format!("view lacks measure `{m}`"))
                    })
                })
                .collect::<Result<_, _>>()?;

        let ctx = ScanCtx {
            source: ScanSource::View(view.clone()),
            lane_cols,
            masks,
            keys,
            measures,
            layout: layout.clone(),
            ops: ops.to_vec(),
        };
        self.scan(q, schema, ctx, ScanPath::View, Some(view.name().to_string()))
    }

    /// Charges, runs and records one planned morsel scan.
    fn scan(
        &self,
        q: &CubeQuery,
        schema: &Arc<CubeSchema>,
        ctx: ScanCtx,
        path: ScanPath,
        used_view: Option<String>,
    ) -> Result<GetInternal, EngineError> {
        let n = MorselScan::n_rows(&ctx);
        self.gov_charge_rows(n)?;
        let layout = ctx.layout.clone();
        let run = self.run_scan(ctx, true)?;
        self.metrics.record_scan(
            path,
            n as u64,
            run.morsels as u64,
            run.parallelism as u64,
            Grouping::of(&layout),
        );
        let stats = ScanStats::of_scan(used_view, n, run.parallelism, run.morsels);
        Ok(GetInternal::new(q, schema, &layout, run.table, stats))
    }

    fn get_from_fact(
        &self,
        q: &CubeQuery,
        schema: &Arc<CubeSchema>,
        layout: &KeyLayout,
        ops: &[AggOp],
        binding: &CubeBinding,
    ) -> Result<GetInternal, EngineError> {
        let fact = self.catalog.table(binding.fact_table())?;
        self.fault(FaultSite::DictLookup)?;
        let ctx = ScanCtx::over_fact(binding, &fact, 0..fact.n_rows(), q, ops, layout)?;

        // Index fast path: a highly selective point predicate on a finest
        // level (e.g. `store = 'SmartMart'`) fetches the matching rows from
        // the foreign-key hash index — the paper's B-tree-indexed keys —
        // instead of scanning the whole fact table.
        if self.config.use_indexes {
            if let Some(rows) = self.index_row_set(q, &fact, binding)? {
                self.gov_charge_rows(rows.len())?;
                let table = ctx.aggregate_rows(&fact, &rows, || self.gov_check())?;
                self.metrics.record_scan(
                    ScanPath::Index,
                    rows.len() as u64,
                    0,
                    1,
                    Grouping::of(layout),
                );
                let stats = ScanStats::of_scan(None, rows.len(), 1, 0);
                return Ok(GetInternal::new(q, schema, layout, table, stats));
            }
        }

        self.fault(FaultSite::Scan)?;
        self.scan(q, schema, ctx, ScanPath::Fact, None)
    }

    /// The fact rows selected by an indexable point predicate, when one
    /// exists and is selective enough to beat a scan: an `Eq` (or small
    /// `In`) predicate at level 0 of some hierarchy, whose member set covers
    /// at most [`EngineConfig::index_selectivity`] of the level's domain.
    fn index_row_set(
        &self,
        q: &CubeQuery,
        fact: &Table,
        binding: &CubeBinding,
    ) -> Result<Option<Vec<u32>>, EngineError> {
        let schema = binding.schema();
        let candidate = q.predicates.iter().find(|p| {
            if p.level != 0 {
                return false;
            }
            let domain = schema
                .hierarchy(p.hierarchy)
                .and_then(|h| h.level(0))
                .map(|l| l.cardinality())
                .unwrap_or(0);
            if domain == 0 {
                return false;
            }
            let members = p.members().len();
            members <= 16 && (members as f64 / domain as f64) <= self.config.index_selectivity
        });
        let Some(pred) = candidate else {
            return Ok(None);
        };
        self.fault(FaultSite::IndexProbe)?;
        let index = self.catalog.hash_index(fact.name(), binding.fk_column(pred.hierarchy))?;
        let mut rows: Vec<u32> = Vec::new();
        for member in pred.members() {
            rows.extend_from_slice(index.lookup(member.0 as i64));
        }
        rows.sort_unstable();
        Ok(Some(rows))
    }
}

/// Materializes the internal representation into a derived cube in
/// canonical coordinate order — which, with [`KeyLayout`]'s packing, is
/// ascending key order: the packed keys are sorted, never the coordinates.
fn materialize(internal: GetInternal) -> Result<GetOutcome, EngineError> {
    let slots = internal.table.key_order();
    internal.into_outcome(&slots, Vec::new(), None)
}
