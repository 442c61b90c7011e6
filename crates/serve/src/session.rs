//! Layer 2: per-connection sessions.
//!
//! Every accepted connection opens one [`Session`] in the shared
//! [`SessionRegistry`]. A session carries the connection's default
//! [`ExecutionPolicy`] (adjustable via `set_policy`, always clamped by the
//! server's ceiling at run time), a latency histogram over its admitted
//! jobs, and the in-flight run registry: request id → [`CancelToken`].
//! Cancellation — whether from a client `cancel` op or from the connection
//! dropping — goes through that registry and fires the token every
//! governor of the run's fallback ladder observes.
//!
//! Idle eviction is cooperative: the connection's reader thread polls with
//! a short socket read timeout, asks [`Session::idle_for`] how long the
//! session has been quiet, and closes the connection once the server's
//! idle timeout has passed with nothing in flight.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use assess_core::obs::{Histogram, HistogramSnapshot};
use assess_core::ExecutionPolicy;
use olap_engine::CancelToken;

use crate::tenant::{TenantId, ANONYMOUS};

/// Per-connection state. All fields are independently locked so the
/// reader thread and the executor pool can touch one session concurrently.
pub struct Session {
    id: u64,
    last_activity: Mutex<Instant>,
    /// The tenant this session is bound to; [`ANONYMOUS`] until an `auth`
    /// op with a valid key rebinds it.
    tenant: Mutex<TenantId>,
    policy: Mutex<ExecutionPolicy>,
    in_flight: Mutex<HashMap<u64, CancelToken>>,
    /// Wall-time histogram over this session's admitted jobs, from the
    /// executor's pop to its response (cache hits and refusals included —
    /// it measures what the client experienced).
    latency: Histogram,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // Session state is plain data; recover from poisoning rather than
    // taking the whole connection down with a panicking peer thread.
    mutex.lock().unwrap_or_else(|poison| poison.into_inner())
}

impl Session {
    fn new(id: u64, policy: ExecutionPolicy) -> Self {
        Session {
            id,
            last_activity: Mutex::new(Instant::now()),
            tenant: Mutex::new(ANONYMOUS),
            policy: Mutex::new(policy),
            in_flight: Mutex::new(HashMap::new()),
            latency: Histogram::new(),
        }
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    /// The tenant this session currently runs as.
    pub fn tenant(&self) -> TenantId {
        *lock(&self.tenant)
    }

    /// Rebinds the session to a tenant (successful `auth` op).
    pub fn set_tenant(&self, tenant: TenantId) {
        *lock(&self.tenant) = tenant;
    }

    /// Marks the session active now (called on every received line).
    pub fn touch(&self) {
        *lock(&self.last_activity) = Instant::now();
    }

    /// Time since the last received line.
    pub fn idle_for(&self) -> Duration {
        lock(&self.last_activity).elapsed()
    }

    /// The session's current default policy (a snapshot).
    pub fn policy(&self) -> ExecutionPolicy {
        lock(&self.policy).clone()
    }

    pub fn set_policy(&self, policy: ExecutionPolicy) {
        *lock(&self.policy) = policy;
    }

    /// Feeds one admitted job's wall time to the latency histogram.
    pub fn observe(&self, elapsed: Duration) {
        self.latency.observe(elapsed);
    }

    /// Snapshot of the session's statement-latency histogram.
    pub fn latency_snapshot(&self) -> HistogramSnapshot {
        self.latency.snapshot()
    }

    /// Registers a run's cancel token under its request id. Returns
    /// `false` (and leaves the existing run alone) when the id is already
    /// in flight — reusing a live id would make `cancel` ambiguous.
    pub fn register_run(&self, request_id: u64, token: CancelToken) -> bool {
        let mut in_flight = lock(&self.in_flight);
        if in_flight.contains_key(&request_id) {
            return false;
        }
        in_flight.insert(request_id, token);
        true
    }

    /// Unregisters a finished run (its token stays cancellable by clones).
    pub fn finish_run(&self, request_id: u64) {
        lock(&self.in_flight).remove(&request_id);
    }

    /// Fires the cancel token of one in-flight run. Returns whether the
    /// target was actually in flight.
    pub fn cancel_run(&self, request_id: u64) -> bool {
        match lock(&self.in_flight).get(&request_id) {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        }
    }

    /// Fires every in-flight token (dropped connection, shutdown).
    /// Returns how many were cancelled.
    pub fn cancel_all(&self) -> usize {
        let in_flight = lock(&self.in_flight);
        for token in in_flight.values() {
            token.cancel();
        }
        in_flight.len()
    }

    /// Number of runs currently in flight (queued or executing).
    pub fn in_flight(&self) -> usize {
        lock(&self.in_flight).len()
    }
}

/// The shared registry of open sessions, with a hard connection cap.
pub struct SessionRegistry {
    next_id: AtomicU64,
    max_sessions: usize,
    sessions: Mutex<HashMap<u64, Arc<Session>>>,
    opened: AtomicU64,
    idle_evicted: AtomicU64,
}

/// Counter snapshot for the `stats` op.
#[derive(Debug, Clone, Copy)]
pub struct SessionStats {
    pub active: usize,
    pub opened: u64,
    pub idle_evicted: u64,
}

impl SessionRegistry {
    pub fn new(max_sessions: usize) -> Self {
        SessionRegistry {
            next_id: AtomicU64::new(1),
            max_sessions,
            sessions: Mutex::new(HashMap::new()),
            opened: AtomicU64::new(0),
            idle_evicted: AtomicU64::new(0),
        }
    }

    /// Opens a session, or returns `None` when the server is full.
    pub fn open(&self, policy: ExecutionPolicy) -> Option<Arc<Session>> {
        let mut sessions = lock(&self.sessions);
        if sessions.len() >= self.max_sessions {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let session = Arc::new(Session::new(id, policy));
        sessions.insert(id, session.clone());
        self.opened.fetch_add(1, Ordering::Relaxed);
        Some(session)
    }

    /// Closes a session, cancelling anything still in flight.
    pub fn close(&self, id: u64) {
        let session = lock(&self.sessions).remove(&id);
        if let Some(session) = session {
            session.cancel_all();
        }
    }

    pub fn get(&self, id: u64) -> Option<Arc<Session>> {
        lock(&self.sessions).get(&id).cloned()
    }

    /// Counts one idle eviction (the reader thread closes the socket).
    pub fn note_idle_eviction(&self) {
        self.idle_evicted.fetch_add(1, Ordering::Relaxed);
    }

    pub fn stats(&self) -> SessionStats {
        SessionStats {
            active: lock(&self.sessions).len(),
            opened: self.opened.load(Ordering::Relaxed),
            idle_evicted: self.idle_evicted.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_caps_sessions() {
        let registry = SessionRegistry::new(2);
        let a = registry.open(ExecutionPolicy::default()).unwrap();
        let b = registry.open(ExecutionPolicy::default()).unwrap();
        assert_ne!(a.id(), b.id());
        assert!(registry.open(ExecutionPolicy::default()).is_none());
        registry.close(a.id());
        assert!(registry.open(ExecutionPolicy::default()).is_some());
        assert_eq!(registry.stats().opened, 3);
    }

    #[test]
    fn cancel_targets_in_flight_runs() {
        let registry = SessionRegistry::new(4);
        let session = registry.open(ExecutionPolicy::default()).unwrap();
        let token = CancelToken::new();
        session.register_run(7, token.clone());
        assert_eq!(session.in_flight(), 1);
        assert!(!session.cancel_run(8), "unknown request id is not in flight");
        assert!(!token.is_cancelled());
        assert!(session.cancel_run(7));
        assert!(token.is_cancelled());
        session.finish_run(7);
        assert_eq!(session.in_flight(), 0);
        assert!(!session.cancel_run(7), "finished runs are gone");
    }

    #[test]
    fn closing_a_session_cancels_everything() {
        let registry = SessionRegistry::new(4);
        let session = registry.open(ExecutionPolicy::default()).unwrap();
        let t1 = CancelToken::new();
        let t2 = CancelToken::new();
        session.register_run(1, t1.clone());
        session.register_run(2, t2.clone());
        registry.close(session.id());
        assert!(t1.is_cancelled());
        assert!(t2.is_cancelled());
        assert!(registry.get(session.id()).is_none());
    }

    #[test]
    fn recording_feeds_the_latency_histogram() {
        let registry = SessionRegistry::new(1);
        let session = registry.open(ExecutionPolicy::default()).unwrap();
        for elapsed_ms in [0, 3, 40] {
            session.observe(Duration::from_millis(elapsed_ms));
        }
        let snap = session.latency_snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.sum_micros, 43_000);
    }

    #[test]
    fn sessions_start_anonymous_and_rebind() {
        let registry = SessionRegistry::new(1);
        let session = registry.open(ExecutionPolicy::default()).unwrap();
        assert_eq!(session.tenant(), ANONYMOUS);
        session.set_tenant(TenantId(3));
        assert_eq!(session.tenant(), TenantId(3));
    }

    #[test]
    fn idle_clock_resets_on_touch() {
        let registry = SessionRegistry::new(1);
        let session = registry.open(ExecutionPolicy::default()).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        assert!(session.idle_for() >= Duration::from_millis(5));
        session.touch();
        assert!(session.idle_for() < Duration::from_millis(5));
    }
}
