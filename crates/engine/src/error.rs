//! Error type for query execution.

use std::fmt;

use crate::fault::FaultSite;
use crate::governor::ResourceKind;

/// Errors raised while planning or executing physical operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// Underlying storage error (missing tables, type mismatches…).
    Storage(olap_storage::StorageError),
    /// Underlying model error (unknown levels, arity mismatches…).
    Model(olap_model::ModelError),
    /// The two sides of a join are not joinable (Definition 3.1 requires
    /// equal group-by sets).
    NotJoinable(String),
    /// A pivot was requested on a hierarchy not in the group-by set, or with
    /// an empty slice list.
    InvalidPivot(String),
    /// An aggregation operator is not supported by the chosen access path.
    Unsupported(String),
    /// The group-by set's packed key needs `bits` > 64 bits. Plain `get`
    /// recovers through the wide-key scan; joins and pivots — fused or on
    /// materialized cubes — and sharded coordinators surface it.
    WideKey { bits: u32 },
    /// A resource budget of the governing [`ResourceGovernor`] was
    /// exhausted. `limit`/`used` are in the resource's own unit
    /// (milliseconds for wall clock, counts otherwise).
    ///
    /// [`ResourceGovernor`]: crate::governor::ResourceGovernor
    BudgetExceeded { resource: ResourceKind, limit: u64, used: u64 },
    /// Execution was cancelled cooperatively via
    /// [`ResourceGovernor::cancel`](crate::governor::ResourceGovernor::cancel).
    Cancelled,
    /// A deterministic test fault injected by a
    /// [`FaultInjector`](crate::fault::FaultInjector).
    FaultInjected { site: FaultSite, ordinal: u64 },
    /// A parallel scan worker panicked; the panic was contained at the
    /// pool boundary and the scan failed cleanly.
    WorkerPanicked,
    /// A shard of a scatter-gather execution failed or could not be
    /// reached; the whole query aborts — no torn or partial cube is ever
    /// returned. `shard` names the shard (and transport, if remote).
    ShardUnavailable { shard: String, reason: String },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Storage(e) => write!(f, "storage error: {e}"),
            EngineError::Model(e) => write!(f, "model error: {e}"),
            EngineError::NotJoinable(msg) => write!(f, "cubes are not joinable: {msg}"),
            EngineError::InvalidPivot(msg) => write!(f, "invalid pivot: {msg}"),
            EngineError::Unsupported(msg) => write!(f, "unsupported operation: {msg}"),
            EngineError::WideKey { bits } => write!(
                f,
                "unsupported operation: group-by key needs {bits} bits; wide keys are not supported by the fused engine paths"
            ),
            EngineError::BudgetExceeded { resource, limit, used } => {
                write!(f, "budget exceeded: {used} {resource} used, limit is {limit}")
            }
            EngineError::Cancelled => write!(f, "execution cancelled"),
            EngineError::FaultInjected { site, ordinal } => {
                write!(f, "injected fault at {site} #{ordinal}")
            }
            EngineError::WorkerPanicked => write!(f, "a parallel scan worker panicked"),
            EngineError::ShardUnavailable { shard, reason } => {
                write!(f, "{shard} unavailable: {reason}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Storage(e) => Some(e),
            EngineError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<olap_storage::StorageError> for EngineError {
    fn from(e: olap_storage::StorageError) -> Self {
        EngineError::Storage(e)
    }
}

impl From<olap_model::ModelError> for EngineError {
    fn from(e: olap_model::ModelError) -> Self {
        EngineError::Model(e)
    }
}
