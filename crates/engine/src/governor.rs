//! Resource governance for query execution.
//!
//! A [`ResourceGovernor`] carries the resource limits one execution (or one
//! ladder of fallback attempts) runs under: a wall-clock deadline, a budget
//! of fact/view rows that may be scanned, a budget of output cells that may
//! be materialized, and a cooperative cancellation flag. The engine consults
//! the governor at operator boundaries and periodically inside scan loops,
//! so a runaway query stops within one check interval instead of running to
//! completion.
//!
//! All counters are atomic: one governor may be shared by the parallel scan
//! threads of a single query and by the assess runtime's client-side
//! operators at the same time.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::EngineError;

/// A shareable cancellation handle that outlives any single governor.
///
/// A [`ResourceGovernor`] is created fresh per execution attempt (its row
/// and cell budgets reset per attempt), but a caller that wants to abort a
/// statement — a serving layer reacting to a client `cancel` request or a
/// dropped connection — holds one token for the whole statement and attaches
/// it to every attempt's governor. Cancelling the token makes every
/// governor check fail with [`EngineError::Cancelled`] from that point on,
/// no matter how many fallback attempts the runner still tries.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cooperative cancellation of every execution holding this
    /// token (idempotent; cannot be undone).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// The resource whose budget was exhausted (see
/// [`EngineError::BudgetExceeded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceKind {
    /// The wall-clock deadline passed (limits/amounts are milliseconds).
    WallClock,
    /// More fact/view rows were scanned than the budget allows.
    RowsScanned,
    /// More result cells were materialized than the budget allows.
    OutputCells,
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceKind::WallClock => write!(f, "wall-clock time (ms)"),
            ResourceKind::RowsScanned => write!(f, "rows scanned"),
            ResourceKind::OutputCells => write!(f, "output cells"),
        }
    }
}

/// Limits and live counters for one execution.
///
/// Construct with [`ResourceGovernor::unlimited`] and narrow with the
/// `with_*` builders; a default governor imposes no limits and every check
/// is a few atomic loads.
#[derive(Debug)]
pub struct ResourceGovernor {
    started: Instant,
    deadline: Option<Instant>,
    max_rows: Option<u64>,
    max_cells: Option<u64>,
    cancelled: AtomicBool,
    /// Statement-scoped cancellation shared across fallback attempts; the
    /// per-governor flag above is attempt-scoped.
    token: Option<CancelToken>,
    rows: AtomicU64,
    cells: AtomicU64,
}

impl Default for ResourceGovernor {
    fn default() -> Self {
        ResourceGovernor::unlimited()
    }
}

impl ResourceGovernor {
    /// A governor imposing no limits (checks still honor [`cancel`]).
    ///
    /// [`cancel`]: ResourceGovernor::cancel
    pub fn unlimited() -> Self {
        ResourceGovernor {
            started: Instant::now(),
            deadline: None,
            max_rows: None,
            max_cells: None,
            cancelled: AtomicBool::new(false),
            token: None,
            rows: AtomicU64::new(0),
            cells: AtomicU64::new(0),
        }
    }

    /// Attaches a statement-scoped [`CancelToken`]: cancelling the token has
    /// the same effect as [`cancel`](ResourceGovernor::cancel), but the
    /// token can be shared across the successive governors of one fallback
    /// ladder (and held by another thread).
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.token = Some(token);
        self
    }

    /// Sets an **absolute** deadline. Fallback attempts sharing one ladder
    /// must share one absolute instant, so retries cannot extend the
    /// caller's wait.
    pub fn with_deadline_at(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the deadline `timeout` from now.
    pub fn with_timeout(self, timeout: Duration) -> Self {
        let at = Instant::now().checked_add(timeout).unwrap_or_else(Instant::now);
        self.with_deadline_at(at)
    }

    /// Caps the number of fact/view rows the execution may scan.
    pub fn with_max_rows_scanned(mut self, max: u64) -> Self {
        self.max_rows = Some(max);
        self
    }

    /// Caps the number of result cells the execution may materialize.
    pub fn with_max_output_cells(mut self, max: u64) -> Self {
        self.max_cells = Some(max);
        self
    }

    /// Requests cooperative cancellation: the next check anywhere in the
    /// execution fails with [`EngineError::Cancelled`].
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
            || self.token.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// The cheap cooperative checkpoint: cancellation flag and deadline.
    /// Called at operator boundaries and periodically inside scan loops.
    pub fn check(&self) -> Result<(), EngineError> {
        if self.is_cancelled() {
            return Err(EngineError::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            let now = Instant::now();
            if now >= deadline {
                let limit = deadline.saturating_duration_since(self.started);
                let used = now.saturating_duration_since(self.started);
                return Err(EngineError::BudgetExceeded {
                    resource: ResourceKind::WallClock,
                    limit: limit.as_millis() as u64,
                    used: used.as_millis() as u64,
                });
            }
        }
        Ok(())
    }

    /// Records `n` scanned rows and fails when the budget is exhausted.
    /// Access paths charge rows **before** scanning them, so an over-budget
    /// scan fails fast instead of doing the work and then reporting it.
    pub fn charge_rows_scanned(&self, n: u64) -> Result<(), EngineError> {
        let used = self.rows.fetch_add(n, Ordering::Relaxed) + n;
        match self.max_rows {
            Some(limit) if used > limit => Err(EngineError::BudgetExceeded {
                resource: ResourceKind::RowsScanned,
                limit,
                used,
            }),
            _ => Ok(()),
        }
    }

    /// Records `n` materialized result cells and fails when the budget is
    /// exhausted.
    pub fn charge_output_cells(&self, n: u64) -> Result<(), EngineError> {
        let used = self.cells.fetch_add(n, Ordering::Relaxed) + n;
        match self.max_cells {
            Some(limit) if used > limit => Err(EngineError::BudgetExceeded {
                resource: ResourceKind::OutputCells,
                limit,
                used,
            }),
            _ => Ok(()),
        }
    }

    /// Rows charged so far.
    pub fn rows_scanned(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }

    /// Output cells charged so far.
    pub fn cells_emitted(&self) -> u64 {
        self.cells.load(Ordering::Relaxed)
    }

    /// The unspent row budget, if one is set. A scatter-gather coordinator
    /// forwards this to remote shards so the **global** budget is the
    /// minimum that wins, not `limit × shards`.
    pub fn remaining_rows(&self) -> Option<u64> {
        self.max_rows.map(|limit| limit.saturating_sub(self.rows.load(Ordering::Relaxed)))
    }

    /// Time left before the deadline, if one is set (zero once expired).
    pub fn remaining_time(&self) -> Option<Duration> {
        self.deadline.map(|d| d.saturating_duration_since(Instant::now()))
    }
}

/// How many loop iterations a scan runs between cooperative [`check`]s.
/// Small enough that a deadline fires promptly on multi-million-row scans,
/// large enough that the atomic loads are amortized to noise.
///
/// [`check`]: ResourceGovernor::check
pub const CHECK_INTERVAL: usize = 1 << 16;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_governor_never_trips() {
        let g = ResourceGovernor::unlimited();
        g.check().unwrap();
        g.charge_rows_scanned(u64::MAX / 2).unwrap();
        g.charge_output_cells(u64::MAX / 2).unwrap();
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let g = ResourceGovernor::unlimited().with_timeout(Duration::ZERO);
        let err = g.check().unwrap_err();
        assert!(matches!(
            err,
            EngineError::BudgetExceeded { resource: ResourceKind::WallClock, .. }
        ));
    }

    #[test]
    fn row_budget_is_cumulative() {
        let g = ResourceGovernor::unlimited().with_max_rows_scanned(100);
        g.charge_rows_scanned(60).unwrap();
        let err = g.charge_rows_scanned(60).unwrap_err();
        assert!(matches!(
            err,
            EngineError::BudgetExceeded {
                resource: ResourceKind::RowsScanned,
                limit: 100,
                used: 120
            }
        ));
    }

    #[test]
    fn cell_budget_trips() {
        let g = ResourceGovernor::unlimited().with_max_output_cells(10);
        g.charge_output_cells(10).unwrap();
        assert!(g.charge_output_cells(1).is_err());
        assert_eq!(g.cells_emitted(), 11);
    }

    #[test]
    fn cancellation_wins_over_everything() {
        let g = ResourceGovernor::unlimited();
        g.check().unwrap();
        g.cancel();
        assert!(matches!(g.check().unwrap_err(), EngineError::Cancelled));
    }

    #[test]
    fn cancel_token_spans_successive_governors() {
        let token = CancelToken::new();
        let g1 = ResourceGovernor::unlimited().with_cancel_token(token.clone());
        g1.check().unwrap();
        token.cancel();
        assert!(matches!(g1.check().unwrap_err(), EngineError::Cancelled));
        // A fresh governor (next fallback attempt) sees the same token.
        let g2 = ResourceGovernor::unlimited().with_cancel_token(token.clone());
        assert!(g2.is_cancelled());
        assert!(matches!(g2.check().unwrap_err(), EngineError::Cancelled));
        // A token-less governor is unaffected.
        ResourceGovernor::unlimited().check().unwrap();
    }
}
