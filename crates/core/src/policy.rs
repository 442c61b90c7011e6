//! Execution policies: resource limits and cancellation.
//!
//! An [`ExecutionPolicy`] states what an assess execution is allowed to
//! consume — wall-clock time, fact/view rows scanned, output cells
//! materialized. Which strategies an execution tries is not a policy
//! matter: [`AssessRunner::run_auto`] walks the cost model's ranking, and
//! pinning a strategy is the one-plan form. The policy is declarative; at
//! run time it is compiled into an engine-level
//! [`ResourceGovernor`](olap_engine::ResourceGovernor) whose deadline is
//! **absolute**: every attempt of one fallback ladder shares the same
//! instant, so retries never extend the caller's wait.
//!
//! [`AssessRunner::run_auto`]: crate::exec::AssessRunner::run_auto

use std::sync::Arc;
use std::time::{Duration, Instant};

use olap_engine::{CancelToken, ResourceGovernor};

/// Resource limits and cancellation for one runner.
///
/// The default policy is fully permissive: no limits.
#[derive(Debug, Clone, Default)]
pub struct ExecutionPolicy {
    /// Wall-clock budget per statement (covering **all** fallback
    /// attempts together).
    pub deadline: Option<Duration>,
    /// Fact/view rows one attempt may scan.
    pub max_rows_scanned: Option<u64>,
    /// Result cells one attempt may materialize.
    pub max_output_cells: Option<u64>,
    /// Statement-scoped cancellation handle shared by every attempt of one
    /// fallback ladder. A serving layer holds a clone and cancels it when
    /// the client asks (or disconnects); `None` means only the policy's own
    /// limits can stop the execution.
    pub cancel_token: Option<CancelToken>,
    /// Cap on threads a single scan may use (`None` = engine default). The
    /// runner applies it as a *tightening* clamp on the engine's
    /// configuration — it can lower the degree of parallelism, never raise
    /// it above a serving ceiling.
    pub max_threads: Option<usize>,
}

impl ExecutionPolicy {
    pub fn new() -> Self {
        ExecutionPolicy::default()
    }

    /// Caps wall-clock time for the whole statement, fallbacks included.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Caps rows scanned per attempt.
    pub fn with_max_rows_scanned(mut self, max: u64) -> Self {
        self.max_rows_scanned = Some(max);
        self
    }

    /// Caps output cells materialized per attempt.
    pub fn with_max_output_cells(mut self, max: u64) -> Self {
        self.max_output_cells = Some(max);
        self
    }

    /// Caps the threads a single scan of this execution may use (values
    /// below 1 are treated as 1; parallelism is a limit, not a guarantee).
    pub fn with_max_threads(mut self, n: usize) -> Self {
        self.max_threads = Some(n.max(1));
        self
    }

    /// Attaches a statement-scoped cancellation token. Cancelling it aborts
    /// the in-flight attempt *and* every fallback retry at the next
    /// cooperative checkpoint, surfacing as
    /// [`AssessError::Cancelled`](crate::AssessError::Cancelled).
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel_token = Some(token);
        self
    }

    /// The absolute deadline instant for a ladder starting now, if any.
    pub(crate) fn deadline_at(&self) -> Option<Instant> {
        self.deadline.map(|d| Instant::now().checked_add(d).unwrap_or_else(Instant::now))
    }

    /// Compiles the policy into a fresh per-attempt governor. Row/cell
    /// budgets reset per attempt; the deadline is the shared absolute
    /// instant of the whole ladder.
    pub fn governor(&self, deadline_at: Option<Instant>) -> Arc<ResourceGovernor> {
        let mut g = ResourceGovernor::unlimited();
        if let Some(at) = deadline_at {
            g = g.with_deadline_at(at);
        }
        if let Some(max) = self.max_rows_scanned {
            g = g.with_max_rows_scanned(max);
        }
        if let Some(max) = self.max_output_cells {
            g = g.with_max_output_cells(max);
        }
        if let Some(token) = &self.cancel_token {
            g = g.with_cancel_token(token.clone());
        }
        Arc::new(g)
    }

    /// Whether the policy imposes any resource limit at all (a cancel token
    /// is not a limit — see [`needs_governor`](Self::needs_governor)).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.max_rows_scanned.is_none()
            && self.max_output_cells.is_none()
    }

    /// Whether an execution must carry a governor: any limit is set, or a
    /// cancel token must be observable at checkpoints. The runner skips
    /// governor plumbing entirely when this is false.
    pub(crate) fn needs_governor(&self) -> bool {
        !self.is_unlimited() || self.cancel_token.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_permissive() {
        let p = ExecutionPolicy::default();
        assert!(p.is_unlimited());
    }

    #[test]
    fn builders_compose() {
        let p = ExecutionPolicy::new()
            .with_deadline(Duration::from_millis(250))
            .with_max_rows_scanned(1_000_000)
            .with_max_output_cells(10_000);
        assert!(!p.is_unlimited());
        let g = p.governor(p.deadline_at());
        g.check().expect("250ms deadline has not passed yet");
        g.charge_rows_scanned(1_000_000).unwrap();
        assert!(g.charge_rows_scanned(1).is_err());
    }
}
