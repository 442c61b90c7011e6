//! Layer 3: tenant-aware admission control and the fair run queue.
//!
//! Every `run` request passes two gates before it reaches an executor:
//!
//! 1. **Admission** ([`Admission::try_admit`]) — non-blocking, answered in
//!    the connection's reader thread. A run is refused immediately (never
//!    queued unboundedly) when the *server* is out of capacity
//!    (`queue_full`), or when its *tenant* is over one of its own quotas —
//!    max in flight, max queued, or token-bucket rate limit (`overloaded`).
//!    Every refusal carries a computed [`retry_after_ms`] backoff hint
//!    derived from the queue depth and an EWMA of recent run service times,
//!    so well-behaved clients can pace themselves instead of hammering.
//! 2. **The fair queue** ([`FairQueue`]) — admitted runs wait in their
//!    tenant's own FIFO, and executors drain the FIFOs by deficit-weighted
//!    round-robin: each tenant earns `weight` credits per ring cycle and
//!    spends one per popped run, so over any window the executor capacity
//!    divides proportionally to the configured weights and a flood from one
//!    tenant cannot monopolize the workers. Within a tenant, order stays
//!    FIFO.
//!
//! Admission also reports the server's **pressure** at admit time as a
//! [`ShedLevel`]: once the outstanding count crosses half the global limit,
//! runs are admitted in *light* mode — the serving layer disables trace
//! capture and result-cache inserts for them (cache lookups stay on; hits
//! shed load) — so the service degrades gracefully before it refuses.
//!
//! A [`Permit`] is held for the run's whole life and releases its tenant's
//! slot (and feeds the service-time EWMA) on drop, so error paths cannot
//! leak capacity. This module also derives each run's *effective* policy
//! ([`derive_policy`]): the session's preferences clamped min-wins by the
//! tenant's ceiling and the server's ceiling, with the run's
//! [`CancelToken`] attached.
//!
//! [`retry_after_ms`]: AdmissionError::retry_after_ms

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use assess_core::obs::{Histogram, HistogramSnapshot};
use assess_core::ExecutionPolicy;
use olap_engine::CancelToken;

use crate::tenant::{TenantDirectory, TenantId};

/// Bounds of the computed `retry_after_ms` hint.
const RETRY_AFTER_MIN_MS: u64 = 10;
const RETRY_AFTER_MAX_MS: u64 = 10_000;
/// Assumed service time before the EWMA has seen any run.
const DEFAULT_RUN_MS: f64 = 5.0;
/// EWMA smoothing factor for run service times.
const EWMA_ALPHA: f64 = 0.2;

/// Why a run was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The server-wide outstanding limit is reached.
    QueueFull { retry_after_ms: u64 },
    /// The tenant is over its own max-in-flight / max-queued quota.
    TenantSaturated { retry_after_ms: u64 },
    /// The tenant's token bucket is empty.
    RateLimited { retry_after_ms: u64 },
}

impl AdmissionError {
    /// The machine-readable error code of the refusal response:
    /// `queue_full` for server-wide pressure, `overloaded` for a
    /// tenant-level quota or rate refusal.
    pub fn code(&self) -> &'static str {
        match self {
            AdmissionError::QueueFull { .. } => "queue_full",
            AdmissionError::TenantSaturated { .. } | AdmissionError::RateLimited { .. } => {
                "overloaded"
            }
        }
    }

    /// The backoff hint: do not retry sooner than this.
    pub fn retry_after_ms(&self) -> u64 {
        match self {
            AdmissionError::QueueFull { retry_after_ms }
            | AdmissionError::TenantSaturated { retry_after_ms }
            | AdmissionError::RateLimited { retry_after_ms } => *retry_after_ms,
        }
    }

    pub fn message(&self) -> String {
        match self {
            AdmissionError::QueueFull { retry_after_ms } => {
                format!("too many runs in flight server-wide, retry in {retry_after_ms}ms")
            }
            AdmissionError::TenantSaturated { retry_after_ms } => {
                format!("tenant quota exhausted, retry in {retry_after_ms}ms")
            }
            AdmissionError::RateLimited { retry_after_ms } => {
                format!("tenant rate limit exceeded, retry in {retry_after_ms}ms")
            }
        }
    }
}

/// Service quality decided at admission time from the server's pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedLevel {
    /// Normal service: tracing and cache inserts enabled.
    Full,
    /// Soft shedding (outstanding ≥ half the limit): the run executes, but
    /// trace capture and result-cache inserts are disabled to shed work.
    Light,
}

/// Counter snapshot for the `stats` op.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionStats {
    pub outstanding: u64,
    pub limit: usize,
    pub admitted: u64,
    pub rejected: u64,
    pub shed_light: u64,
}

/// Per-tenant snapshot for the `stats` / `metrics` ops.
#[derive(Debug, Clone)]
pub struct TenantStats {
    pub name: String,
    pub weight: u32,
    pub queued: u64,
    pub running: u64,
    pub admitted: u64,
    pub completed: u64,
    pub rejected_quota: u64,
    pub rejected_rate: u64,
    pub shed_light: u64,
    pub latency: HistogramSnapshot,
}

/// Mutable per-tenant gating state, guarded by the admission lock.
struct TenantGate {
    queued: u64,
    running: u64,
    /// Token bucket for the rate limit; `tokens` refills continuously at
    /// `rate_per_sec` up to the burst size.
    tokens: f64,
    last_refill: Instant,
}

/// Lock-free per-tenant counters (read by `stats`/`metrics`).
#[derive(Default)]
pub struct TenantCounters {
    pub admitted: AtomicU64,
    pub completed: AtomicU64,
    pub rejected_quota: AtomicU64,
    pub rejected_rate: AtomicU64,
    pub shed_light: AtomicU64,
    /// Wall-time of completed runs (cold and cached), per tenant.
    pub latency: Histogram,
}

struct Inner {
    outstanding: u64,
    gates: Vec<TenantGate>,
    /// EWMA of run service time in microseconds (0 = no sample yet).
    ewma_run_micros: f64,
}

/// The tenant-aware admission gate. Cheap to share (`Arc`); gating state
/// is behind one short-lived lock, counters are atomic.
pub struct Admission {
    limit: usize,
    workers: usize,
    directory: Arc<TenantDirectory>,
    inner: Mutex<Inner>,
    counters: Vec<TenantCounters>,
    admitted: AtomicU64,
    rejected: AtomicU64,
    shed_light: AtomicU64,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Which slot a permit currently occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Queued,
    Running,
}

/// An admitted run's slot; dropping it frees the slot and feeds the
/// service-time EWMA.
pub struct Permit {
    admission: Arc<Admission>,
    tenant: TenantId,
    phase: Phase,
    shed: ShedLevel,
    admitted_at: Instant,
}

impl std::fmt::Debug for Permit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Permit")
            .field("tenant", &self.tenant)
            .field("phase", &self.phase)
            .field("shed", &self.shed)
            .finish_non_exhaustive()
    }
}

impl Permit {
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The pressure level the run was admitted under.
    pub fn shed(&self) -> ShedLevel {
        self.shed
    }

    /// Moves the permit's slot from the queue to the executor (called by
    /// the executor when it pops the run).
    pub fn mark_running(&mut self) {
        if self.phase == Phase::Running {
            return;
        }
        let mut inner = lock(&self.admission.inner);
        let gate = &mut inner.gates[self.tenant.0];
        gate.queued = gate.queued.saturating_sub(1);
        gate.running += 1;
        self.phase = Phase::Running;
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        let elapsed = self.admitted_at.elapsed();
        let mut inner = lock(&self.admission.inner);
        inner.outstanding = inner.outstanding.saturating_sub(1);
        let gate = &mut inner.gates[self.tenant.0];
        match self.phase {
            Phase::Queued => gate.queued = gate.queued.saturating_sub(1),
            Phase::Running => {
                gate.running = gate.running.saturating_sub(1);
                // Only runs that reached an executor teach the EWMA; a
                // queued-and-dropped permit says nothing about service time.
                let micros = elapsed.as_micros().min(u128::from(u64::MAX)) as f64;
                inner.ewma_run_micros = if inner.ewma_run_micros == 0.0 {
                    micros
                } else {
                    inner.ewma_run_micros * (1.0 - EWMA_ALPHA) + micros * EWMA_ALPHA
                };
            }
        }
    }
}

impl Admission {
    /// `limit` is the maximum number of outstanding runs server-wide;
    /// `workers` sizes the backoff estimate (how fast the queue drains).
    pub fn new(limit: usize, workers: usize, directory: Arc<TenantDirectory>) -> Arc<Self> {
        let now = Instant::now();
        let gates = directory
            .iter()
            .map(|(_, spec)| TenantGate {
                queued: 0,
                running: 0,
                tokens: spec.rate_per_sec.map_or(0.0, burst_size),
                last_refill: now,
            })
            .collect();
        let counters = directory.iter().map(|_| TenantCounters::default()).collect();
        Arc::new(Admission {
            limit,
            workers: workers.max(1),
            directory,
            inner: Mutex::new(Inner { outstanding: 0, gates, ewma_run_micros: 0.0 }),
            counters,
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            shed_light: AtomicU64::new(0),
        })
    }

    /// Non-blocking admission for one tenant's run: a slot or an immediate
    /// structured refusal with a backoff hint. The server answers
    /// `queue_full`/`overloaded` rather than making the client wait — an
    /// interactive client can retry, a batch client can back off.
    pub fn try_admit(self: &Arc<Self>, tenant: TenantId) -> Result<Permit, AdmissionError> {
        let spec = self.directory.spec(tenant);
        let mut inner = lock(&self.inner);
        if inner.outstanding >= self.limit as u64 {
            let retry = self.estimate_retry_ms(&inner, inner.outstanding + 1);
            drop(inner);
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(AdmissionError::QueueFull { retry_after_ms: retry });
        }
        let gate = &inner.gates[tenant.0];
        let over_in_flight =
            spec.max_in_flight.is_some_and(|max| gate.queued + gate.running >= max);
        let over_queued = spec.max_queued.is_some_and(|max| gate.queued >= max);
        if over_in_flight || over_queued {
            let retry = self.estimate_retry_ms(&inner, inner.gates[tenant.0].queued + 1);
            drop(inner);
            self.rejected.fetch_add(1, Ordering::Relaxed);
            self.counters[tenant.0].rejected_quota.fetch_add(1, Ordering::Relaxed);
            return Err(AdmissionError::TenantSaturated { retry_after_ms: retry });
        }
        if let Some(rate) = spec.rate_per_sec {
            let gate = &mut inner.gates[tenant.0];
            refill(gate, rate);
            if gate.tokens < 1.0 {
                let deficit = 1.0 - gate.tokens;
                let retry = ((deficit / rate) * 1000.0).ceil() as u64;
                drop(inner);
                self.rejected.fetch_add(1, Ordering::Relaxed);
                self.counters[tenant.0].rejected_rate.fetch_add(1, Ordering::Relaxed);
                return Err(AdmissionError::RateLimited {
                    retry_after_ms: retry.clamp(RETRY_AFTER_MIN_MS, RETRY_AFTER_MAX_MS),
                });
            }
            gate.tokens -= 1.0;
        }
        inner.outstanding += 1;
        inner.gates[tenant.0].queued += 1;
        // Soft-shed once the server is at half capacity or beyond: the run
        // still executes, but without trace capture or cache inserts.
        let shed = if inner.outstanding * 2 >= self.limit.max(1) as u64 {
            ShedLevel::Light
        } else {
            ShedLevel::Full
        };
        drop(inner);
        self.admitted.fetch_add(1, Ordering::Relaxed);
        self.counters[tenant.0].admitted.fetch_add(1, Ordering::Relaxed);
        if shed == ShedLevel::Light {
            self.shed_light.fetch_add(1, Ordering::Relaxed);
            self.counters[tenant.0].shed_light.fetch_add(1, Ordering::Relaxed);
        }
        Ok(Permit {
            admission: self.clone(),
            tenant,
            phase: Phase::Queued,
            shed,
            admitted_at: Instant::now(),
        })
    }

    /// The backoff hint for a run that would be `depth`-deep in a queue:
    /// how long until the executors plausibly drain to it, from the EWMA of
    /// recent service times. Clamped so hints stay sane when the EWMA is
    /// cold or the queue is pathological.
    fn estimate_retry_ms(&self, inner: &Inner, depth: u64) -> u64 {
        let mean_ms = if inner.ewma_run_micros > 0.0 {
            inner.ewma_run_micros / 1000.0
        } else {
            DEFAULT_RUN_MS
        };
        let ms = (mean_ms * depth as f64 / self.workers as f64).ceil() as u64;
        ms.clamp(RETRY_AFTER_MIN_MS, RETRY_AFTER_MAX_MS)
    }

    /// Per-tenant counters (recorded by the serving layer on completion).
    pub fn counters(&self, tenant: TenantId) -> &TenantCounters {
        &self.counters[tenant.0]
    }

    pub fn directory(&self) -> &Arc<TenantDirectory> {
        &self.directory
    }

    pub fn stats(&self) -> AdmissionStats {
        AdmissionStats {
            outstanding: lock(&self.inner).outstanding,
            limit: self.limit,
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            shed_light: self.shed_light.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of every tenant's gating state and counters, in tenant-id
    /// order.
    pub fn tenant_stats(&self) -> Vec<TenantStats> {
        let (queued, running): (Vec<u64>, Vec<u64>) = {
            let inner = lock(&self.inner);
            (
                inner.gates.iter().map(|g| g.queued).collect(),
                inner.gates.iter().map(|g| g.running).collect(),
            )
        };
        self.directory
            .iter()
            .map(|(id, spec)| {
                let c = &self.counters[id.0];
                TenantStats {
                    name: spec.name.clone(),
                    weight: spec.weight,
                    queued: queued[id.0],
                    running: running[id.0],
                    admitted: c.admitted.load(Ordering::Relaxed),
                    completed: c.completed.load(Ordering::Relaxed),
                    rejected_quota: c.rejected_quota.load(Ordering::Relaxed),
                    rejected_rate: c.rejected_rate.load(Ordering::Relaxed),
                    shed_light: c.shed_light.load(Ordering::Relaxed),
                    latency: c.latency.snapshot(),
                }
            })
            .collect()
    }
}

/// Burst capacity of a tenant's token bucket: one second's worth of rate,
/// but always at least one token so a single request can ever pass.
fn burst_size(rate: f64) -> f64 {
    rate.max(1.0)
}

fn refill(gate: &mut TenantGate, rate: f64) {
    let now = Instant::now();
    let elapsed = now.duration_since(gate.last_refill).as_secs_f64();
    gate.last_refill = now;
    gate.tokens = (gate.tokens + elapsed * rate).min(burst_size(rate));
}

// ---------------------------------------------------------------------------
// The fair queue
// ---------------------------------------------------------------------------

struct FqInner<T> {
    /// One FIFO per tenant, indexed by tenant id.
    queues: Vec<VecDeque<T>>,
    /// Deficit credits per tenant (meaningful while in the ring).
    deficit: Vec<u64>,
    /// Round-robin ring of tenants with non-empty queues.
    ring: VecDeque<usize>,
    len: usize,
}

/// A multi-tenant work queue drained by deficit-weighted round-robin:
/// tenants with queued work take turns, each earning `weight` credits per
/// ring cycle and spending one credit per popped item. Per-tenant order is
/// FIFO; cross-tenant throughput converges to the weight ratio whenever
/// multiple tenants keep their queues non-empty.
pub struct FairQueue<T> {
    weights: Vec<u64>,
    inner: Mutex<FqInner<T>>,
    cv: Condvar,
}

impl<T> FairQueue<T> {
    /// `weights` in tenant-id order; values below 1 count as 1.
    pub fn new(weights: Vec<u32>) -> Self {
        let n = weights.len().max(1);
        FairQueue {
            weights: weights.iter().map(|&w| u64::from(w.max(1))).chain([1]).take(n).collect(),
            inner: Mutex::new(FqInner {
                queues: (0..n).map(|_| VecDeque::new()).collect(),
                deficit: vec![0; n],
                ring: VecDeque::new(),
                len: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Enqueues an item at the back of its tenant's FIFO and wakes one
    /// waiting consumer.
    pub fn push(&self, tenant: TenantId, item: T) {
        let mut inner = lock(&self.inner);
        let idx = tenant.0.min(inner.queues.len() - 1);
        if inner.queues[idx].is_empty() && !inner.ring.contains(&idx) {
            // A (re)activating tenant starts a fresh round with zero
            // credits; it earns its quantum when the ring reaches it.
            inner.deficit[idx] = 0;
            inner.ring.push_back(idx);
        }
        inner.queues[idx].push_back(item);
        inner.len += 1;
        drop(inner);
        self.cv.notify_one();
    }

    /// Pops the next item by DWRR order without blocking.
    pub fn try_pop(&self) -> Option<T> {
        self.pop_locked(&mut lock(&self.inner))
    }

    /// Pops the next item, waiting up to `timeout` for one to arrive.
    pub fn pop_timeout(&self, timeout: Duration) -> Option<T> {
        let mut inner = lock(&self.inner);
        if let Some(item) = self.pop_locked(&mut inner) {
            return Some(item);
        }
        let (mut inner, _) =
            self.cv.wait_timeout(inner, timeout).unwrap_or_else(|poison| poison.into_inner());
        self.pop_locked(&mut inner)
    }

    fn pop_locked(&self, inner: &mut FqInner<T>) -> Option<T> {
        while let Some(&idx) = inner.ring.front() {
            if inner.queues[idx].is_empty() {
                inner.ring.pop_front();
                inner.deficit[idx] = 0;
                continue;
            }
            if inner.deficit[idx] == 0 {
                // The tenant's turn begins: grant its quantum, then serve.
                inner.deficit[idx] = self.weights[idx];
            }
            inner.deficit[idx] -= 1;
            let item = inner.queues[idx].pop_front();
            inner.len -= 1;
            if inner.queues[idx].is_empty() {
                inner.ring.pop_front();
                inner.deficit[idx] = 0;
            } else if inner.deficit[idx] == 0 {
                // Quantum spent: rotate to the back of the ring.
                inner.ring.pop_front();
                inner.ring.push_back(idx);
            }
            return item;
        }
        None
    }

    pub fn len(&self) -> usize {
        lock(&self.inner).len
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Wakes every waiting consumer (shutdown).
    pub fn notify_all(&self) {
        self.cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Effective policy derivation
// ---------------------------------------------------------------------------

/// The min-wins clamp of two policies: wherever both set a limit the
/// tighter one wins. Cancel tokens are not merged — attach one with
/// [`derive_policy`].
pub fn clamp_policies(a: &ExecutionPolicy, b: &ExecutionPolicy) -> ExecutionPolicy {
    fn min_opt<T: Ord + Copy>(a: Option<T>, b: Option<T>) -> Option<T> {
        match (a, b) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
    ExecutionPolicy {
        deadline: min_opt::<Duration>(a.deadline, b.deadline),
        max_rows_scanned: min_opt(a.max_rows_scanned, b.max_rows_scanned),
        max_output_cells: min_opt(a.max_output_cells, b.max_output_cells),
        max_threads: min_opt(a.max_threads, b.max_threads),
        cancel_token: None,
    }
}

/// The effective policy of one run: the session's preferences clamped by
/// the tenant's ceiling and the server's ceiling (the minimum wins wherever
/// any of them sets a limit), with the run's cancel token attached.
pub fn derive_policy(
    server_ceiling: &ExecutionPolicy,
    tenant_ceiling: &ExecutionPolicy,
    session: &ExecutionPolicy,
    token: CancelToken,
) -> ExecutionPolicy {
    let mut effective = clamp_policies(&clamp_policies(server_ceiling, tenant_ceiling), session);
    effective.cancel_token = Some(token);
    effective
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::{TenantSpec, ANONYMOUS};

    fn directory(named: Vec<TenantSpec>) -> Arc<TenantDirectory> {
        Arc::new(TenantDirectory::new(TenantSpec::named("anonymous"), named).unwrap())
    }

    #[test]
    fn admits_up_to_the_limit_with_retry_hints() {
        let admission = Admission::new(2, 1, directory(vec![]));
        let a = admission.try_admit(ANONYMOUS).unwrap();
        let _b = admission.try_admit(ANONYMOUS).unwrap();
        let err = admission.try_admit(ANONYMOUS).unwrap_err();
        assert_eq!(err.code(), "queue_full");
        assert!(err.retry_after_ms() >= RETRY_AFTER_MIN_MS);
        assert_eq!(admission.stats().outstanding, 2);
        drop(a);
        assert!(admission.try_admit(ANONYMOUS).is_ok());
        let stats = admission.stats();
        assert_eq!(stats.admitted, 3);
        assert_eq!(stats.rejected, 1);
    }

    #[test]
    fn permits_release_across_threads() {
        let admission = Admission::new(4, 2, directory(vec![]));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let admission = admission.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        if let Ok(permit) = admission.try_admit(ANONYMOUS) {
                            std::hint::black_box(&permit);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(admission.stats().outstanding, 0, "every permit was released");
    }

    #[test]
    fn tenant_in_flight_quota_is_enforced() {
        let dir = directory(vec![TenantSpec::named("t").with_key("k").with_max_in_flight(1)]);
        let t = dir.authenticate("k").unwrap();
        let admission = Admission::new(16, 4, dir);
        let held = admission.try_admit(t).unwrap();
        let err = admission.try_admit(t).unwrap_err();
        assert_eq!(err.code(), "overloaded");
        assert!(matches!(err, AdmissionError::TenantSaturated { .. }));
        assert!(err.retry_after_ms() >= RETRY_AFTER_MIN_MS);
        // Another tenant is unaffected by t's quota.
        assert!(admission.try_admit(ANONYMOUS).is_ok());
        drop(held);
        assert!(admission.try_admit(t).is_ok());
        let ts = admission.tenant_stats();
        assert_eq!(ts[t.0].rejected_quota, 1);
    }

    #[test]
    fn tenant_queued_quota_ignores_running() {
        let dir = directory(vec![TenantSpec::named("t").with_key("k").with_max_queued(1)]);
        let t = dir.authenticate("k").unwrap();
        let admission = Admission::new(16, 4, dir);
        let mut running = admission.try_admit(t).unwrap();
        running.mark_running();
        // One may queue while one runs; the second queued is refused.
        let _queued = admission.try_admit(t).unwrap();
        let err = admission.try_admit(t).unwrap_err();
        assert!(matches!(err, AdmissionError::TenantSaturated { .. }));
    }

    #[test]
    fn rate_limit_refuses_with_wait_hint() {
        let dir = directory(vec![TenantSpec::named("t").with_key("k").with_rate_per_sec(2.0)]);
        let t = dir.authenticate("k").unwrap();
        let admission = Admission::new(16, 4, dir);
        // Burst = 2 tokens; the third immediate admit is rate limited.
        let _a = admission.try_admit(t).unwrap();
        let _b = admission.try_admit(t).unwrap();
        let err = admission.try_admit(t).unwrap_err();
        assert!(matches!(err, AdmissionError::RateLimited { .. }));
        assert_eq!(err.code(), "overloaded");
        // At 2 tokens/sec a full token is at most 500ms away.
        assert!(err.retry_after_ms() <= 500, "hint too long: {}", err.retry_after_ms());
        assert_eq!(admission.tenant_stats()[t.0].rejected_rate, 1);
    }

    #[test]
    fn shed_level_rises_at_half_capacity() {
        let admission = Admission::new(4, 2, directory(vec![]));
        let a = admission.try_admit(ANONYMOUS).unwrap();
        assert_eq!(a.shed(), ShedLevel::Full, "1/4 outstanding is normal service");
        let b = admission.try_admit(ANONYMOUS).unwrap();
        assert_eq!(b.shed(), ShedLevel::Light, "2/4 outstanding starts soft shedding");
        let c = admission.try_admit(ANONYMOUS).unwrap();
        assert_eq!(c.shed(), ShedLevel::Light);
        assert_eq!(admission.stats().shed_light, 2);
    }

    #[test]
    fn ewma_feeds_retry_hints() {
        let admission = Admission::new(1, 1, directory(vec![]));
        let mut p = admission.try_admit(ANONYMOUS).unwrap();
        p.mark_running();
        std::thread::sleep(Duration::from_millis(30));
        drop(p); // teaches the EWMA a ~30ms service time
        let _hold = admission.try_admit(ANONYMOUS).unwrap();
        let err = admission.try_admit(ANONYMOUS).unwrap_err();
        // depth 2 / 1 worker at ~30ms EWMA ⇒ hint well above the floor.
        assert!(err.retry_after_ms() >= 30, "EWMA-informed hint too low: {}", err.retry_after_ms());
    }

    #[test]
    fn fair_queue_is_fifo_per_tenant() {
        let q: FairQueue<u32> = FairQueue::new(vec![1]);
        q.push(ANONYMOUS, 1);
        q.push(ANONYMOUS, 2);
        q.push(ANONYMOUS, 3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.try_pop(), Some(3));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn fair_queue_honours_weights() {
        // Tenant 1 has weight 3, tenant 2 weight 1: drains 3:1.
        let q: FairQueue<(usize, u32)> = FairQueue::new(vec![1, 3, 1]);
        for i in 0..20 {
            q.push(TenantId(1), (1, i));
            q.push(TenantId(2), (2, i));
        }
        let mut drained = Vec::new();
        while let Some(item) = q.try_pop() {
            drained.push(item);
        }
        assert_eq!(drained.len(), 40);
        let heavy = drained[..16].iter().filter(|(t, _)| *t == 1).count();
        let light = drained[..16].iter().filter(|(t, _)| *t == 2).count();
        assert_eq!(heavy, 12, "weight-3 tenant should take 3/4 of the drain: {drained:?}");
        assert_eq!(light, 4);
        // Per-tenant order stayed FIFO across the whole drain.
        let mut last = [None::<u32>; 3];
        for &(t, i) in &drained {
            if let Some(prev) = last[t] {
                assert!(i > prev, "tenant {t} reordered: {i} after {prev}");
            }
            last[t] = Some(i);
        }
    }

    #[test]
    fn fair_queue_single_tenant_gets_everything() {
        let q: FairQueue<u32> = FairQueue::new(vec![1, 4]);
        for i in 0..10 {
            q.push(TenantId(1), i);
        }
        // No competition: the sole active tenant drains continuously.
        for i in 0..10 {
            assert_eq!(q.try_pop(), Some(i));
        }
    }

    #[test]
    fn fair_queue_reactivation_keeps_fifo_and_fairness() {
        let q: FairQueue<(usize, u32)> = FairQueue::new(vec![2, 2]);
        q.push(TenantId(0), (0, 0));
        assert_eq!(q.try_pop(), Some((0, 0)));
        q.push(TenantId(0), (0, 1));
        q.push(TenantId(1), (1, 0));
        q.push(TenantId(0), (0, 2));
        q.push(TenantId(1), (1, 1));
        let mut drained = Vec::new();
        while let Some(item) = q.try_pop() {
            drained.push(item);
        }
        assert_eq!(drained.len(), 4);
        let t0: Vec<u32> = drained.iter().filter(|(t, _)| *t == 0).map(|(_, i)| *i).collect();
        let t1: Vec<u32> = drained.iter().filter(|(t, _)| *t == 1).map(|(_, i)| *i).collect();
        assert_eq!(t0, vec![1, 2], "tenant 0 order broken: {drained:?}");
        assert_eq!(t1, vec![0, 1], "tenant 1 order broken: {drained:?}");
    }

    #[test]
    fn fair_queue_pop_timeout_blocks_until_push() {
        let q: Arc<FairQueue<u32>> = Arc::new(FairQueue::new(vec![1]));
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.pop_timeout(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        q.push(ANONYMOUS, 42);
        assert_eq!(t.join().unwrap(), Some(42));
        assert_eq!(q.pop_timeout(Duration::from_millis(10)), None, "timeout on empty");
    }

    #[test]
    fn derive_policy_clamps_across_three_layers() {
        let server = ExecutionPolicy::new()
            .with_deadline(Duration::from_millis(500))
            .with_max_rows_scanned(1_000);
        let tenant =
            ExecutionPolicy::new().with_deadline(Duration::from_millis(400)).with_max_threads(2);
        let session = ExecutionPolicy::new()
            .with_deadline(Duration::from_millis(200))
            .with_max_rows_scanned(5_000)
            .with_max_output_cells(10);
        let token = CancelToken::new();
        let effective = derive_policy(&server, &tenant, &session, token.clone());
        assert_eq!(effective.deadline, Some(Duration::from_millis(200)), "session tighter");
        assert_eq!(effective.max_rows_scanned, Some(1_000), "server tighter");
        assert_eq!(effective.max_output_cells, Some(10), "only the session set it");
        assert_eq!(effective.max_threads, Some(2), "only the tenant set it");
        token.cancel();
        assert!(effective.cancel_token.as_ref().unwrap().is_cancelled(), "token is attached");
    }
}
