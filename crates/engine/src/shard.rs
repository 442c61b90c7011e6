//! Scatter-gather sharding: shard sets, partial-aggregate exchange, and
//! the sharded append path.
//!
//! A [`ShardSet`] attached to an [`Engine`] turns it into a coordinator:
//! the engine plans a query once, fans the scan/aggregate stage out to
//! every shard — an independent engine over its own columnar segments and
//! materialized views — and merges the partial aggregates in **ascending
//! shard order**. Together with the coordinate-sorted materialization the
//! engine already performs, that fixed merge order makes sharded cubes
//! byte-identical to unsharded ones at any shard count (for the
//! integer-valued measures the bundled datasets guarantee; see
//! `crate::maintain` for the exactness contract).
//!
//! Every shard is a [`ShardTransport`] (the serve crate implements one
//! over its newline-delimited JSON protocol), and every shard gets one
//! contract: the coordinator forwards its *remaining* [`ShardBudget`]
//! with each request, checks the returned [`Partial`] against the query's
//! key layout and measures, charges the rows the shard reports when the
//! partial arrives, and tags transport errors with the shard they came
//! from. Budgets are therefore min-wins across the fan-out, one message
//! late.
//!
//! ## Failure semantics
//!
//! The fan-out is sequential and aborts on the first shard error: the
//! merged state is discarded wholesale, so a killed or hanging shard can
//! never produce a torn cube — the caller sees a structured
//! [`EngineError::ShardUnavailable`] (or the shard's own budget error)
//! and nothing else. Transports drop their connection on failure and
//! reconnect on the next use, which is the coordinator's retry path once
//! the node returns.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use olap_model::CubeQuery;
use olap_storage::{Column, Delta, ShardScheme, StorageError, Table};

use crate::aggregate::Partial;
use crate::engine::Engine;
use crate::error::EngineError;
use crate::maintain::MaintainOutcome;

/// One shard's contribution to a scatter-gather `get`: its [`Partial`] —
/// packed group keys in ascending order plus the
/// **pre-finalize** state per measure (Avg stays a sum+count pair), so
/// merging across shards is exact — and the shard's scan statistics.
#[derive(Debug)]
pub struct ShardPartial {
    pub partial: Partial,
    /// The materialized view that answered the query on this shard, if any.
    pub used_view: Option<String>,
    /// Rows this shard scanned (fact or view).
    pub rows_scanned: usize,
    /// Threads that worked this shard's scan.
    pub parallelism: usize,
    /// Morsels this shard's scan was split into.
    pub morsels: usize,
}

/// Per-shard scan statistics threaded through [`crate::GetOutcome`] so the
/// trace layer can emit one `shard(i)` span per shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardScan {
    /// Shard index in the set (ascending merge order).
    pub shard: usize,
    pub rows_scanned: usize,
    pub parallelism: usize,
    pub morsels: usize,
    /// Groups in the shard's partial.
    pub groups: usize,
}

/// Combines per-shard scan stats from two fused sides, keeping one entry
/// per shard index (rows, morsels and groups add, parallelism takes the
/// maximum).
pub fn merge_shard_scans(left: &[ShardScan], right: &[ShardScan]) -> Vec<ShardScan> {
    let mut merged: Vec<ShardScan> = left.to_vec();
    for r in right {
        match merged.iter_mut().find(|s| s.shard == r.shard) {
            Some(s) => {
                s.rows_scanned += r.rows_scanned;
                s.morsels += r.morsels;
                s.groups += r.groups;
                s.parallelism = s.parallelism.max(r.parallelism);
            }
            None => merged.push(*r),
        }
    }
    merged.sort_by_key(|s| s.shard);
    merged
}

/// The remaining resource budget a coordinator forwards with each shard
/// request, so the fan-out's budgets are min-wins end to end.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardBudget {
    /// Rows the shard may still scan (`None` = unlimited).
    pub max_rows: Option<u64>,
    /// Milliseconds until the coordinator's deadline (`None` = none).
    pub deadline_ms: Option<u64>,
}

/// How a coordinator talks to one shard. The serve crate implements this
/// over its newline-delimited JSON protocol; tests implement it in-process
/// over an [`Engine`] to drive the coordinator deterministically.
///
/// Implementations must be failure-atomic per call: an error means the
/// call had no effect the coordinator needs to unwind.
pub trait ShardTransport: Send + Sync {
    /// Human-readable shard identity for error messages (e.g. an address).
    fn label(&self) -> String;

    /// Runs the scan/aggregate stage of `q` on the shard and returns the
    /// partial aggregate.
    fn partial(&self, q: &CubeQuery, budget: ShardBudget) -> Result<ShardPartial, EngineError>;

    /// Appends a batch of fact rows to the shard's `cube`; returns the
    /// number of rows appended.
    fn append(&self, cube: &str, batch: &[Column]) -> Result<usize, EngineError>;

    /// Current row count of `table` on the shard.
    fn rows(&self, table: &str) -> Result<usize, EngineError>;
}

/// The shard topology an engine coordinates over: the placement scheme
/// plus one transport per range, in merge order.
pub struct ShardSet {
    scheme: ShardScheme,
    shards: Vec<Arc<dyn ShardTransport>>,
    /// Cached per-table row totals across shards (cost estimation reads
    /// them per attempt; each count would otherwise be one call per shard).
    /// Invalidated by the sharded append path.
    rows_cache: Mutex<HashMap<String, usize>>,
}

impl ShardSet {
    /// Builds a shard set; `shards.len()` must equal the scheme's count.
    pub fn new(
        scheme: ShardScheme,
        shards: Vec<Arc<dyn ShardTransport>>,
    ) -> Result<Self, EngineError> {
        if shards.len() != scheme.shards() {
            return Err(EngineError::Unsupported(format!(
                "shard scheme expects {} shards, got {}",
                scheme.shards(),
                shards.len()
            )));
        }
        if shards.is_empty() {
            return Err(EngineError::Unsupported("a shard set needs at least one shard".into()));
        }
        Ok(ShardSet { scheme, shards, rows_cache: Mutex::new(HashMap::new()) })
    }

    pub fn scheme(&self) -> &ShardScheme {
        &self.scheme
    }

    pub fn shards(&self) -> &[Arc<dyn ShardTransport>] {
        &self.shards
    }

    pub fn len(&self) -> usize {
        self.shards.len()
    }

    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// A diagnostic label for shard `i`: "shard(i)@" plus its transport
    /// label.
    pub fn label(&self, i: usize) -> String {
        format!("shard({i})@{}", self.shards[i].label())
    }

    /// Total rows of `table` across all shards (cached between appends).
    pub fn total_rows(&self, table: &str) -> Result<usize, EngineError> {
        if let Some(&n) = self.rows_cache.lock().unwrap_or_else(|p| p.into_inner()).get(table) {
            return Ok(n);
        }
        let mut total = 0usize;
        for (i, shard) in self.shards.iter().enumerate() {
            total += shard.rows(table).map_err(|e| at_shard(self, i, e))?;
        }
        self.rows_cache.lock().unwrap_or_else(|p| p.into_inner()).insert(table.to_string(), total);
        Ok(total)
    }

    /// Drops the cached row total of `table` (called after appends).
    pub fn invalidate_rows(&self, table: &str) {
        self.rows_cache.lock().unwrap_or_else(|p| p.into_inner()).remove(table);
    }
}

/// Tags an error with the shard it came from: transport-level failures
/// become structured [`EngineError::ShardUnavailable`]; a shard's own
/// budget/cancellation errors pass through untouched so the coordinator's
/// fallback ladder reacts to them exactly as it would to local ones.
pub(crate) fn at_shard(set: &ShardSet, i: usize, e: EngineError) -> EngineError {
    match e {
        EngineError::ShardUnavailable { reason, .. } => {
            EngineError::ShardUnavailable { shard: set.label(i), reason }
        }
        other => other,
    }
}

/// Appends `batch` to `cube` across a shard set: the batch is validated
/// once on the coordinator, partitioned by the scheme's key column, and
/// each sub-batch appended to its shard, which maintains its own views.
/// The coordinator then records a delta-only commit so caches keyed on
/// its catalog version can follow the change without a table swap — the
/// coordinator's fact table stays empty by design, and it maintains no
/// views (`views_merged` is 0).
///
/// The fan-out is sequential in ascending shard order. A failure part-way
/// leaves earlier shards appended and later ones not — callers that need
/// atomicity across shards must serialize appends and retry; the serve
/// layer's append lock provides exactly that.
pub fn append_sharded(
    engine: &Engine,
    set: &ShardSet,
    cube: &str,
    batch: &[Column],
) -> Result<MaintainOutcome, EngineError> {
    let binding = engine.catalog().binding(cube)?;
    crate::maintain::validate_batch(&binding, batch)?;
    let scheme = set.scheme();
    let fact = binding.fact_table();

    // Route every batch row by the scheme's key column.
    let col = batch.iter().find(|c| c.name == scheme.column()).ok_or_else(|| {
        EngineError::Storage(StorageError::AppendMismatch {
            table: fact.to_string(),
            detail: format!("batch is missing the shard key column `{}`", scheme.column()),
        })
    })?;
    let keys = col.i64_iter().ok_or_else(|| {
        EngineError::Storage(StorageError::TypeMismatch {
            column: scheme.column().to_string(),
            expected: "key",
            got: "non-key",
        })
    })?;
    let mut routed: Vec<Vec<u32>> = vec![Vec::new(); set.len()];
    for (row, key) in keys.into_iter().enumerate() {
        routed[scheme.shard_of(key)].push(row as u32);
    }
    // Slicing the batch through a throwaway table reuses the encoding-
    // preserving row subset the partitioner is built on.
    let staged = Table::new(fact, batch.to_vec())?;
    let start_row = set.total_rows(fact).unwrap_or(0);

    for (i, (shard, rows)) in set.shards().iter().zip(&routed).enumerate() {
        if rows.is_empty() {
            continue;
        }
        let sub_batch = staged.take_rows(rows).columns().to_vec();
        let appended = shard.append(cube, &sub_batch).map_err(|e| at_shard(set, i, e))?;
        if appended != rows.len() {
            return Err(EngineError::ShardUnavailable {
                shard: set.label(i),
                reason: format!("shard acknowledged {appended} of {} appended rows", rows.len()),
            });
        }
    }

    // The rows live in the shards; the coordinator records the delta so
    // its catalog version explains the change to delta-aware caches.
    let delta = Delta::describe(fact, start_row, batch);
    let delta = engine.catalog().commit_delta_only(delta);
    set.invalidate_rows(fact);
    engine.metrics().record_append(0, 0);
    Ok(MaintainOutcome { delta, views_merged: 0, views_rebuilt: 0, views_dropped: Vec::new() })
}
