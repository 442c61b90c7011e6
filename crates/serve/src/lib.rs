// Robustness gate: production code in this crate must handle its
// errors — `unwrap` is reserved for tests (CI runs clippy with -D warnings).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # assess-serve
//!
//! A concurrent query service for assess statements: many interactive
//! clients share one [`Engine`](olap_engine::Engine) over a plain TCP
//! protocol (one JSON document per line, both directions). The crate is
//! std-only — `std::net` sockets, `std::thread` workers, no async runtime —
//! and is layered bottom-up:
//!
//! * [`protocol`] — the wire format: requests (`auth`, `check`, `run`,
//!   `explain`, `stats`, `set_policy`, `cancel`, `ping`, …) parsed
//!   from JSON lines, responses built back into JSON lines, diagnostics
//!   rendered via `assess_core::diag`;
//! * [`tenant`] — tenant identity: the API-key directory loaded from a
//!   `--tenants` config file, each tenant's fair-share weight, quotas
//!   (max in-flight, max queued, requests/second) and policy ceiling, with
//!   a built-in anonymous tenant for unauthenticated sessions;
//! * [`session`] — per-connection state: session id, bound tenant, default
//!   [`ExecutionPolicy`](assess_core::ExecutionPolicy), a latency histogram,
//!   the in-flight run registry used for cancellation, and idle-eviction
//!   bookkeeping;
//! * [`admission`] — tenant-aware admission control: per-tenant quotas and
//!   token-bucket rate limits behind structured `overloaded`/`queue_full`
//!   refusals carrying `retry_after_ms` hints, soft-shedding levels, the
//!   deficit-weighted-round-robin [`FairQueue`](admission::FairQueue) the
//!   executors drain, and the min-wins clamp behind each run's effective
//!   policy (server ceiling ∧ tenant ceiling ∧ session preferences);
//! * [`cache`] — the shared LRU result cache, keyed on the normalized
//!   statement text ([`assess_core::stmt::normalize`]) plus a policy
//!   fingerprint, validated against the catalog's mutation counter
//!   ([`olap_storage::Catalog::version`]) so any catalog change invalidates
//!   stale entries;
//! * [`subscribe`] — live re-assessment: registered statements re-evaluated
//!   after every `append`, diffed column by column against the previous
//!   evaluation and pushed to clients as cell-level diff frames (only
//!   new/changed/removed cells are decoded and travel), with per-tenant
//!   subscription ceilings and a full re-send after a lag;
//! * `statement` — the one pipeline every statement-taking op walks:
//!   parse → check → derive limits → execute → encode the cube or the
//!   structured refusal;
//! * [`server`] — the TCP listener, per-connection reader threads, the
//!   fixed executor pool that drives the pipeline, and graceful shutdown;
//! * [`shard`] — scatter-gather over the wire: the `partial` operation's
//!   query/accumulator codec and [`RemoteShard`], a
//!   [`ShardTransport`](olap_engine::ShardTransport) that lets one
//!   `assess-serve` act as frontend over shard-node `assess-serve`
//!   processes (started with `--shard-of`);
//! * [`client`] — a small blocking line client used by the test suite, the
//!   CI smoke job and the throughput benchmark.

pub mod admission;
pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;
pub mod session;
pub mod shard;
mod statement;
pub mod subscribe;
pub mod tenant;

pub use admission::{derive_policy, Admission, AdmissionError, FairQueue, Permit, ShedLevel};
pub use cache::{cache_key, policy_fingerprint, CacheStats, ResultCache};
pub use client::{LineClient, RetryPolicy};
pub use protocol::{parse_request, Op, ProtoError, Request, RunFormat, RunOptions};
pub use server::{serve, ServerConfig, ServerHandle};
pub use session::{Session, SessionRegistry};
pub use shard::{RemoteShard, DEFAULT_SHARD_TIMEOUT};
pub use subscribe::{apply_diff, DiffFrame, SubscriptionManager};
pub use tenant::{TenantDirectory, TenantId, TenantSpec, ANONYMOUS};
