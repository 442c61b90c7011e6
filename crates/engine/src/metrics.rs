//! Lock-light scan metrics for the engine.
//!
//! An [`EngineMetrics`] registry is a fixed set of atomic counters the
//! engine's access paths bump **once per scan** — never inside the morsel
//! inner loop. Row and morsel counts arrive pre-aggregated through the same
//! deterministic merge point the parallel pipeline already funnels results
//! through ([`run_morsels`](crate::pool) merges per-morsel partials in
//! ascending morsel order), so every counter except [`parallel_scans`] is
//! a pure function of the workload: identical at 1, 2 or 8 threads.
//!
//! Recording is gated behind the crate's `obs` feature (on by default).
//! With the feature disabled every `record_*` call compiles to nothing, so
//! the scan paths carry no observability cost at all.
//!
//! Every [`Engine`](crate::Engine) carries an `Arc<EngineMetrics>`; the
//! default is the process-wide [`global`] registry (what a server exposes),
//! while tests attach private instances so concurrent test threads cannot
//! perturb each other's deltas.
//!
//! [`parallel_scans`]: EngineMetricsSnapshot::parallel_scans

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use serde::Serialize;

use crate::aggregate::Grouping;

/// Which access path served a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanPath {
    /// Full (morsel-driven) fact-table scan.
    Fact,
    /// Scan of a materialized aggregate view.
    View,
    /// Index-driven row-set probe (serial fast path).
    Index,
    /// Wide-key (boxed coordinate) fallback scan.
    Wide,
}

/// Atomic counters for the engine's scan activity. See the module docs for
/// the determinism contract.
#[derive(Debug, Default)]
pub struct EngineMetrics {
    scans: AtomicU64,
    rows_scanned: AtomicU64,
    morsels: AtomicU64,
    parallel_scans: AtomicU64,
    fact_scans: AtomicU64,
    view_scans: AtomicU64,
    index_scans: AtomicU64,
    wide_scans: AtomicU64,
    appends: AtomicU64,
    mview_delta_merges: AtomicU64,
    mview_rebuilds: AtomicU64,
    direct_group_scans: AtomicU64,
}

/// A point-in-time copy of an [`EngineMetrics`] registry, stable enough to
/// diff, serialize and assert on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct EngineMetricsSnapshot {
    /// Scans completed, over any access path.
    pub scans: u64,
    /// Fact/view rows charged across all scans.
    pub rows_scanned: u64,
    /// Morsels the scans were split into (0 for index probes).
    pub morsels: u64,
    /// Scans that ran with more than one thread. **Not** deterministic
    /// across thread counts — helper grants depend on pool load.
    pub parallel_scans: u64,
    /// Scans served by a full fact-table pass.
    pub fact_scans: u64,
    /// Scans served from a materialized view.
    pub view_scans: u64,
    /// Scans served by the index fast path.
    pub index_scans: u64,
    /// Scans served by the wide-key fallback.
    pub wide_scans: u64,
    /// Fact-batch appends committed through the engine.
    pub appends: u64,
    /// Materialized views maintained incrementally (delta merged in).
    pub mview_delta_merges: u64,
    /// Materialized views rebuilt from scratch during maintenance.
    pub mview_rebuilds: u64,
    /// Scans (of any path) that resolved group keys by direct addressing;
    /// the remainder of `scans` hashed them.
    pub direct_group_scans: u64,
}

impl EngineMetricsSnapshot {
    /// Counter increments between `earlier` and `self` (saturating, so a
    /// stale `earlier` cannot underflow).
    pub fn delta(&self, earlier: &EngineMetricsSnapshot) -> EngineMetricsSnapshot {
        EngineMetricsSnapshot {
            scans: self.scans.saturating_sub(earlier.scans),
            rows_scanned: self.rows_scanned.saturating_sub(earlier.rows_scanned),
            morsels: self.morsels.saturating_sub(earlier.morsels),
            parallel_scans: self.parallel_scans.saturating_sub(earlier.parallel_scans),
            fact_scans: self.fact_scans.saturating_sub(earlier.fact_scans),
            view_scans: self.view_scans.saturating_sub(earlier.view_scans),
            index_scans: self.index_scans.saturating_sub(earlier.index_scans),
            wide_scans: self.wide_scans.saturating_sub(earlier.wide_scans),
            appends: self.appends.saturating_sub(earlier.appends),
            mview_delta_merges: self.mview_delta_merges.saturating_sub(earlier.mview_delta_merges),
            mview_rebuilds: self.mview_rebuilds.saturating_sub(earlier.mview_rebuilds),
            direct_group_scans: self.direct_group_scans.saturating_sub(earlier.direct_group_scans),
        }
    }

    /// `(name, value)` rows in a fixed order, for text exposition.
    pub fn as_rows(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("scans", self.scans),
            ("rows_scanned", self.rows_scanned),
            ("morsels", self.morsels),
            ("parallel_scans", self.parallel_scans),
            ("fact_scans", self.fact_scans),
            ("view_scans", self.view_scans),
            ("index_scans", self.index_scans),
            ("wide_scans", self.wide_scans),
            ("appends", self.appends),
            ("mview_delta_merges", self.mview_delta_merges),
            ("mview_rebuilds", self.mview_rebuilds),
            ("direct_group_scans", self.direct_group_scans),
        ]
    }
}

impl EngineMetrics {
    pub fn new() -> Self {
        EngineMetrics::default()
    }

    /// Records one completed scan. Called once per engine `get` side —
    /// after the morsel merge — with the already-aggregated outcome.
    #[cfg(feature = "obs")]
    pub fn record_scan(
        &self,
        path: ScanPath,
        rows: u64,
        morsels: u64,
        parallelism: u64,
        grouping: Grouping,
    ) {
        self.scans.fetch_add(1, Ordering::Relaxed);
        if grouping == Grouping::Direct {
            self.direct_group_scans.fetch_add(1, Ordering::Relaxed);
        }
        self.rows_scanned.fetch_add(rows, Ordering::Relaxed);
        self.morsels.fetch_add(morsels, Ordering::Relaxed);
        if parallelism > 1 {
            self.parallel_scans.fetch_add(1, Ordering::Relaxed);
        }
        let by_path = match path {
            ScanPath::Fact => &self.fact_scans,
            ScanPath::View => &self.view_scans,
            ScanPath::Index => &self.index_scans,
            ScanPath::Wide => &self.wide_scans,
        };
        by_path.fetch_add(1, Ordering::Relaxed);
    }

    /// Zero-cost stub: with the `obs` feature off the call vanishes.
    #[cfg(not(feature = "obs"))]
    #[inline(always)]
    pub fn record_scan(
        &self,
        _path: ScanPath,
        _rows: u64,
        _morsels: u64,
        _parallelism: u64,
        _grouping: Grouping,
    ) {
    }

    /// Records one committed append and its view-maintenance outcome:
    /// how many views were delta-merged versus rebuilt from scratch.
    #[cfg(feature = "obs")]
    pub fn record_append(&self, merged: u64, rebuilt: u64) {
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.mview_delta_merges.fetch_add(merged, Ordering::Relaxed);
        self.mview_rebuilds.fetch_add(rebuilt, Ordering::Relaxed);
    }

    /// Zero-cost stub: with the `obs` feature off the call vanishes.
    #[cfg(not(feature = "obs"))]
    #[inline(always)]
    pub fn record_append(&self, _merged: u64, _rebuilt: u64) {}

    pub fn snapshot(&self) -> EngineMetricsSnapshot {
        EngineMetricsSnapshot {
            scans: self.scans.load(Ordering::Relaxed),
            rows_scanned: self.rows_scanned.load(Ordering::Relaxed),
            morsels: self.morsels.load(Ordering::Relaxed),
            parallel_scans: self.parallel_scans.load(Ordering::Relaxed),
            fact_scans: self.fact_scans.load(Ordering::Relaxed),
            view_scans: self.view_scans.load(Ordering::Relaxed),
            index_scans: self.index_scans.load(Ordering::Relaxed),
            wide_scans: self.wide_scans.load(Ordering::Relaxed),
            appends: self.appends.load(Ordering::Relaxed),
            mview_delta_merges: self.mview_delta_merges.load(Ordering::Relaxed),
            mview_rebuilds: self.mview_rebuilds.load(Ordering::Relaxed),
            direct_group_scans: self.direct_group_scans.load(Ordering::Relaxed),
        }
    }
}

/// The process-wide registry every default-constructed engine records into.
pub fn global() -> &'static Arc<EngineMetrics> {
    static GLOBAL: OnceLock<Arc<EngineMetrics>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(EngineMetrics::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(feature = "obs")]
    fn record_scan_routes_by_path() {
        let m = EngineMetrics::new();
        m.record_scan(ScanPath::Fact, 100, 4, 2, Grouping::Direct);
        m.record_scan(ScanPath::View, 10, 1, 1, Grouping::Direct);
        m.record_scan(ScanPath::Index, 3, 0, 1, Grouping::Hashed);
        m.record_scan(ScanPath::Wide, 7, 2, 1, Grouping::Hashed);
        let s = m.snapshot();
        assert_eq!(s.scans, 4);
        assert_eq!(s.rows_scanned, 120);
        assert_eq!(s.morsels, 7);
        assert_eq!(s.parallel_scans, 1);
        assert_eq!((s.fact_scans, s.view_scans, s.index_scans, s.wide_scans), (1, 1, 1, 1));
        assert_eq!(s.direct_group_scans, 2);
    }

    #[test]
    #[cfg(not(feature = "obs"))]
    fn record_scan_is_inert_without_the_feature() {
        let m = EngineMetrics::new();
        m.record_scan(ScanPath::Fact, 100, 4, 2, Grouping::Direct);
        assert_eq!(m.snapshot(), EngineMetricsSnapshot::default());
    }

    #[test]
    fn delta_saturates() {
        let newer = EngineMetricsSnapshot { scans: 5, rows_scanned: 50, ..Default::default() };
        let older = EngineMetricsSnapshot { scans: 7, rows_scanned: 20, ..Default::default() };
        let d = newer.delta(&older);
        assert_eq!(d.scans, 0);
        assert_eq!(d.rows_scanned, 30);
    }

    #[test]
    fn global_registry_is_shared() {
        assert!(Arc::ptr_eq(global(), global()));
    }
}
