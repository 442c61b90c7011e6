// Robustness gate: production code in this crate must handle its
// errors — `unwrap` is reserved for tests (CI runs clippy with -D warnings).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # olap-engine
//!
//! The physical execution engine — the "DBMS" of the paper's experiments.
//! The paper pushes the `get`, `join` and `pivot` logical operations to an
//! Oracle 11g instance (Section 5.2); here they are executed by this engine,
//! preserving the architectural distinction the evaluation measures:
//!
//! * operations **pushed to the engine** run fused over the engine's internal
//!   dense representations (dictionary-encoded keys packed into machine
//!   words, shared predicate bitmaps, single fact scans), before any cube
//!   is materialized;
//! * operations **left to the client** (the assess runtime) work on
//!   materialized [`olap_model::DerivedCube`]s — the same packed keys, but
//!   every value column copied out of the engine and gathered again — the
//!   analogue of the paper's Python/Pandas post-processing.
//!
//! The engine entry points mirror the paper's plans:
//!
//! * [`Engine::get`] — one cube query (every plan starts here; NP uses only
//!   this);
//! * [`Engine::get_attach`] — the one join/pivot operator ([`attach()`])
//!   fused onto its gets: two cube queries joined inside the engine (the
//!   Join-Optimized Plan, Listing 4), or one widened cube query pivoted
//!   inside it (the Pivot-Optimized Plan, Listing 5).
//!
//! Both run their scans through the morsel-driven pipeline
//! ([`pool`]): tables are split into fixed-size chunks, a shared
//! [`WorkerPool`] executes them, and partial aggregates merge in morsel
//! order so results are byte-identical at every thread count.

pub mod aggregate;
pub mod attach;
pub mod engine;
pub mod error;
pub mod fault;
pub mod governor;
pub mod maintain;
pub mod metrics;
pub mod pool;
pub mod predicate;
pub mod shard;

pub use aggregate::Grouping;
pub use attach::{attach, AttachSpec, Attached, Keep, Rewrite, Side};
pub use engine::{Engine, EngineConfig, GetEstimate, GetOutcome, JoinKind};
pub use error::EngineError;
pub use fault::{FaultInjector, FaultSite};
pub use governor::{CancelToken, ResourceGovernor, ResourceKind};
pub use maintain::MaintainOutcome;
pub use metrics::{EngineMetrics, EngineMetricsSnapshot, ScanPath};
pub use olap_model::KeyLayout;
pub use pool::{PoolStats, WorkerPool};
pub use shard::{
    merge_shard_scans, ShardBudget, ShardPartial, ShardScan, ShardSet, ShardTransport,
};
