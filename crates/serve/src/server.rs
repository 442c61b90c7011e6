//! The TCP server: listener, per-connection readers, the fixed executor
//! pool, and graceful shutdown. What a statement goes through between its
//! text and its cube lives in `crate::statement`; left here are threads,
//! framing, dispatch, the per-op executors (each keeps only what is its
//! own: `run` the result cache, `batch` the sharing report, `subscribe`
//! the registration and diff frames, `partial` the shard codec), `append`,
//! and the `stats` / `metrics` renderings.
//!
//! Threading model:
//!
//! * one **acceptor** thread polls the (non-blocking) listener and spawns
//!   a reader thread per accepted connection — connections are bounded by
//!   [`ServerConfig::max_sessions`], so the spawn-per-connection readers
//!   are bounded too;
//! * each **reader** thread parses request lines and answers quick ops
//!   (`ping`, `check`, `explain`, `stats`, `metrics`, `set_policy`,
//!   `cancel`, …) inline. `run` requests pass admission
//!   control and are enqueued for the executor pool, so the reader stays
//!   responsive during long runs — that is what makes `cancel` (and
//!   EOF-triggered cancellation on a dropped connection) work;
//! * a **fixed pool** of [`ServerConfig::workers`] executor threads pops
//!   run jobs off the shared queue and drives the engine. Responses go
//!   back through the connection's shared writer, one line at a time, so
//!   executor responses interleave safely with the reader's own.
//!
//! Shutdown sets a flag; the acceptor stops within one poll interval,
//! readers notice at their next read timeout, and executors drain the
//! remaining queue before exiting.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use assess_core::diag::{Diagnostic, Span};
use assess_core::exec::AssessRunner;
use assess_core::obs::{self, TraceSpan, TraceTree};
use assess_core::semantics::ResolvedBenchmark;
use assess_core::{explain, stmt, AssessError, AssessedCube, ExecutionPolicy, Strategy};
use olap_engine::{CancelToken, Engine, WorkerPool};
use olap_model::{CubeQuery, Relation};
use olap_storage::Column;
use serde::Value;

use crate::admission::{self, Admission, FairQueue, Permit, ShedLevel};
use crate::cache::{cache_key, policy_fingerprint, CacheStats, ResultCache};
use crate::protocol::{self, n, s, BatchOptions, Op, PartialOptions, RunFormat, RunOptions};
use crate::session::{Session, SessionRegistry};
use crate::shard;
use crate::statement::{self, Refusal};
use crate::subscribe::{self, SubscriptionManager};
use crate::tenant::{TenantDirectory, ANONYMOUS};

/// How often blocked reads and the acceptor wake up to check the
/// shutdown flag and the idle clock.
const POLL_INTERVAL: Duration = Duration::from_millis(100);
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Server tunables. The default is sized for tests and small deployments;
/// production raises `workers`/`max_sessions` and sets a `ceiling`.
#[derive(Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Executor pool size (concurrent statement executions).
    pub workers: usize,
    /// Hard cap on open connections.
    pub max_sessions: usize,
    /// Run requests that may wait in the queue beyond the executing ones;
    /// more than `workers + max_queued` outstanding runs get `queue_full`.
    pub max_queued: usize,
    /// Idle connections are evicted after this long with nothing in
    /// flight.
    pub idle_timeout: Duration,
    /// Result-cache entries (0 disables the cache).
    pub cache_capacity: usize,
    /// Default row cap for `run` responses in `cells` format.
    pub default_row_limit: usize,
    /// Server-wide resource ceiling; every run's effective policy is the
    /// session's preferences clamped by this.
    pub ceiling: ExecutionPolicy,
    /// Helper threads of the shared scan pool all executions draw from
    /// (`0` = auto: available cores − 1). Per-scan parallelism is further
    /// capped by the ceiling / session `max_threads`.
    pub scan_threads: usize,
    /// Tenant directory: API keys, weights, quotas, and per-tenant policy
    /// ceilings. The default knows only the anonymous tenant.
    pub tenants: Arc<TenantDirectory>,
    /// Longest accepted request line in bytes; longer frames are answered
    /// with `frame_too_large` and discarded instead of buffered unboundedly.
    pub max_frame_bytes: usize,
    /// Live `subscribe` registrations one tenant may hold at once
    /// (0 = unlimited). Each registration re-executes its statement after
    /// every append, so this bounds the ingest amplification per tenant.
    pub max_subscriptions_per_tenant: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            max_sessions: 64,
            max_queued: 32,
            idle_timeout: Duration::from_secs(300),
            cache_capacity: 128,
            default_row_limit: 50,
            ceiling: ExecutionPolicy::default(),
            scan_threads: 0,
            tenants: Arc::new(TenantDirectory::anonymous_only()),
            max_frame_bytes: 256 * 1024,
            max_subscriptions_per_tenant: 8,
        }
    }
}

/// A finished execution as stored in the shared result cache. Its memory
/// is the cube plus at most one encoded body.
pub struct CachedResult {
    pub cube: AssessedCube,
    pub strategy: Strategy,
    pub rows_scanned: usize,
    pub attempts: usize,
    /// The statement's target query and, unless its benchmark is a
    /// constant, its benchmark query: what the result read, for deciding
    /// whether an append leaves it exact.
    pub queries: Vec<CubeQuery>,
    /// The text the entry was bound from, the catalog version it was bound
    /// under, and that binding's warnings, which a hit may repeat.
    text: String,
    bound_at: u64,
    warnings: Vec<Diagnostic>,
    /// The encoded cells ([`statement::cube_body`]) of the one format and
    /// row limit asked last.
    body: Mutex<Option<(RunFormat, usize, Arc<str>)>>,
}

impl CachedResult {
    /// The encoded cells in `format` for `limit`, filled by the first
    /// request that needs them and replaced by a request for another
    /// format or limit. Limits past the cube's length all send the whole
    /// cube, so they share one body.
    fn body(&self, format: RunFormat, limit: usize) -> Arc<str> {
        let limit = match format {
            RunFormat::Csv => 0,
            RunFormat::Cells => limit.min(self.cube.len()),
        };
        let mut stored = lock(&self.body);
        match &*stored {
            Some((f, l, body)) if (*f, *l) == (format, limit) => body.clone(),
            _ => {
                let body: Arc<str> = statement::cube_body(&self.cube, format, limit).into();
                *stored = Some((format, limit, body.clone()));
                body
            }
        }
    }
}

type SharedWriter = Arc<Mutex<TcpStream>>;

/// The push channel of a subscription: the owning connection's shared
/// writer plus its session (for the tenant binding and current policy at
/// notification time).
type SubChannel = (SharedWriter, Arc<Session>);

/// What an admitted job executes: a single `run`, a `batch` group, a
/// fact-batch `append`, a `subscribe` registration (which evaluates its
/// statement once for the baseline), or a shard node's `partial`
/// scan/aggregate stage on behalf of a scatter-gather coordinator.
enum Payload {
    Run(RunOptions),
    Batch(BatchOptions),
    Append { cube: String, rows: Value },
    Subscribe { statement: String },
    Partial(PartialOptions),
}

/// One admitted `run` or `batch`, queued for the executor pool. Dropping
/// the job releases its admission permit.
struct Job {
    session: Arc<Session>,
    request_id: u64,
    payload: Payload,
    token: CancelToken,
    writer: SharedWriter,
    permit: Permit,
}

#[derive(Default)]
pub(crate) struct RunCounters {
    pub(crate) executed: AtomicU64,
    cache_hits: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
}

impl RunCounters {
    /// Counts a statement that was answered with wire code `code` instead
    /// of a result: cancellations on their own, everything else as failed.
    pub(crate) fn refused(&self, code: &str) {
        let counter = if code == "cancelled" { &self.cancelled } else { &self.failed };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The `runs` object of `stats`.
    fn to_json(&self) -> Value {
        protocol::obj(vec![
            ("executed", n(self.executed.load(Ordering::Relaxed))),
            ("cache_hits", n(self.cache_hits.load(Ordering::Relaxed))),
            ("failed", n(self.failed.load(Ordering::Relaxed))),
            ("cancelled", n(self.cancelled.load(Ordering::Relaxed))),
        ])
    }
}

pub(crate) struct Shared {
    pub(crate) engine: Engine,
    /// The scan pool the engine draws helpers from, kept for `stats`.
    pool: Arc<WorkerPool>,
    /// Policy-free runner for `check` and `explain` (no execution).
    pub(crate) runner: AssessRunner,
    pub(crate) config: ServerConfig,
    sessions: SessionRegistry,
    pub(crate) admission: Arc<Admission>,
    cache: ResultCache<CachedResult>,
    ops: Mutex<BTreeMap<&'static str, u64>>,
    pub(crate) runs: RunCounters,
    started: Instant,
    shutdown: AtomicBool,
    /// Admitted runs waiting for an executor, drained fairly across
    /// tenants by deficit-weighted round-robin.
    queue: FairQueue<Job>,
    running: AtomicU64,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    /// Live subscriptions, re-evaluated and notified after every append.
    subs: SubscriptionManager<SubChannel>,
    /// Serializes appends: one catalog mutation (and its notification
    /// sweep) at a time, so view maintenance is exactly-once per batch and
    /// diff frames are pushed in commit order.
    append_lock: Mutex<()>,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poison| poison.into_inner())
}

fn ms(elapsed: Duration) -> u64 {
    elapsed.as_millis().min(u128::from(u64::MAX)) as u64
}

impl Shared {
    fn count_op(&self, name: &'static str) {
        *lock(&self.ops).entry(name).or_insert(0) += 1;
    }

    /// Pops the next run job; `None` once shut down **and** drained.
    fn pop_job(&self) -> Option<Job> {
        loop {
            if let Some(job) = self.queue.pop_timeout(POLL_INTERVAL) {
                return Some(job);
            }
            if self.shutdown.load(Ordering::Relaxed) {
                // Drain whatever is left so queued clients get answers.
                return self.queue.try_pop();
            }
        }
    }
}

/// Starts the server and returns a handle carrying the bound address.
/// The engine (and through it the catalog) is shared by every worker.
pub fn serve(engine: Engine, config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    // One scan pool for the whole process: concurrent runs share the cores
    // instead of each spinning up its own threads.
    let pool = match config.scan_threads {
        0 => WorkerPool::global(),
        n => Arc::new(WorkerPool::new(n)),
    };
    let engine = engine.with_worker_pool(pool.clone());
    let shared = Arc::new(Shared {
        runner: AssessRunner::new(engine.clone()),
        engine,
        pool,
        sessions: SessionRegistry::new(config.max_sessions),
        admission: Admission::new(
            config.workers + config.max_queued,
            config.workers,
            config.tenants.clone(),
        ),
        cache: ResultCache::new(config.cache_capacity),
        ops: Mutex::new(BTreeMap::new()),
        runs: RunCounters::default(),
        started: Instant::now(),
        shutdown: AtomicBool::new(false),
        queue: FairQueue::new(config.tenants.weights()),
        running: AtomicU64::new(0),
        conn_threads: Mutex::new(Vec::new()),
        subs: SubscriptionManager::new(config.max_subscriptions_per_tenant),
        append_lock: Mutex::new(()),
        config,
    });
    let executors = (0..shared.config.workers.max(1))
        .map(|_| {
            let shared = shared.clone();
            std::thread::spawn(move || executor_loop(shared))
        })
        .collect();
    let acceptor = {
        let shared = shared.clone();
        std::thread::spawn(move || accept_loop(shared, listener))
    };
    Ok(ServerHandle { addr, shared, acceptor: Some(acceptor), executors })
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    executors: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Result-cache counters (also available to clients via `stats`).
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Graceful shutdown: stop accepting, let readers notice within one
    /// poll interval, drain the run queue, join everything.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.queue.notify_all();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for handle in self.executors.drain(..) {
            let _ = handle.join();
        }
        let readers = std::mem::take(&mut *lock(&self.shared.conn_threads));
        for handle in readers {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------- acceptor

fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    while !shared.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let conn_shared = shared.clone();
                let handle = std::thread::spawn(move || handle_connection(conn_shared, stream));
                let mut threads = lock(&shared.conn_threads);
                // Reap finished readers so the vec tracks live ones only.
                let mut live = Vec::with_capacity(threads.len() + 1);
                for t in threads.drain(..) {
                    if t.is_finished() {
                        let _ = t.join();
                    } else {
                        live.push(t);
                    }
                }
                live.push(handle);
                *threads = live;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

// ------------------------------------------------------------- connections

/// One event of the framing layer, as consumed by the connection loop.
#[derive(Debug, PartialEq, Eq)]
enum FrameEvent {
    /// A complete `\n`-terminated frame (newline stripped, UTF-8 checked).
    Line(String),
    /// The frame exceeded the size cap; its remainder (up to the next
    /// newline) is being discarded without buffering.
    TooLarge,
    /// A complete frame that is not valid UTF-8.
    NotUtf8,
    /// The read timed out with no complete frame — poll the shutdown flag
    /// and the idle clock, then come back.
    Timeout,
    /// Peer closed cleanly; carries a final unterminated frame if any.
    Eof(Option<String>),
    /// Hard I/O error; drop the connection.
    Closed,
}

/// Incremental newline framing with a hard per-frame size cap.
///
/// Unlike `BufReader::read_line`, an oversized or non-UTF-8 frame is a
/// *recoverable* event: the frame is rejected, its bytes are discarded (in
/// chunks — never buffered whole), and the connection keeps serving. This
/// is what bounds a garbage flood to O(`max` + chunk) memory, and why a
/// slow-loris drip of bytes without a newline yields only [`FrameEvent::Timeout`]s
/// — the idle clock keeps running and the session gets evicted.
struct FrameReader<R> {
    reader: R,
    buf: Vec<u8>,
    /// `buf[..start]` has been handed out already.
    start: usize,
    /// `buf[start..scanned]` holds no newline: each byte is searched once.
    scanned: usize,
    max: usize,
    /// Set after `TooLarge`: swallow bytes until the next newline.
    discarding: bool,
}

impl<R: Read> FrameReader<R> {
    fn new(reader: R, max: usize) -> Self {
        FrameReader {
            reader,
            buf: Vec::new(),
            start: 0,
            scanned: 0,
            max: max.max(1),
            discarding: false,
        }
    }

    /// Hands out the frame ending at the newline at `end`, CR stripped.
    fn take_line(&mut self, end: usize) -> Option<String> {
        let line = &self.buf[self.start..end];
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let text = std::str::from_utf8(line).ok().map(str::to_owned);
        self.consume(end);
        text
    }

    /// Drops everything up to and including the newline at `end`.
    fn consume(&mut self, end: usize) {
        self.start = end + 1;
        self.scanned = self.start;
    }

    fn next_event(&mut self) -> FrameEvent {
        loop {
            // Drain complete frames already buffered.
            while let Some(at) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let end = self.scanned + at;
                if self.discarding {
                    // Tail of an already-reported oversized frame.
                    self.consume(end);
                    self.discarding = false;
                    continue;
                }
                if end - self.start > self.max {
                    // The whole oversized frame arrived in one gulp, so
                    // the mid-read size check below never saw it; the cap
                    // must not depend on how TCP chunked the bytes.
                    self.consume(end);
                    return FrameEvent::TooLarge;
                }
                return match self.take_line(end) {
                    Some(line) => FrameEvent::Line(line),
                    None => FrameEvent::NotUtf8,
                };
            }
            // Keep only the unterminated frame, which holds no newline.
            let oversized = !self.discarding && self.buf.len() - self.start > self.max;
            if self.discarding || oversized {
                self.buf.clear(); // no newline yet: keep memory bounded
            } else {
                self.buf.drain(..self.start);
            }
            self.start = 0;
            self.scanned = self.buf.len();
            if oversized {
                self.discarding = true;
                return FrameEvent::TooLarge;
            }
            let mut chunk = [0u8; 4096];
            match self.reader.read(&mut chunk) {
                Ok(0) => {
                    if self.discarding || self.buf.is_empty() {
                        return FrameEvent::Eof(None);
                    }
                    let tail = std::mem::take(&mut self.buf);
                    self.scanned = 0;
                    return FrameEvent::Eof(String::from_utf8(tail).ok());
                }
                Ok(read) => self.buf.extend_from_slice(&chunk[..read]),
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) =>
                {
                    return FrameEvent::Timeout;
                }
                Err(_) => return FrameEvent::Closed,
            }
        }
    }
}

fn write_line(writer: &SharedWriter, response: &Value) {
    write_encoded(writer, &protocol::to_line(response));
}

/// Writes one already encoded line.
fn write_encoded(writer: &SharedWriter, line: &str) {
    let mut stream = lock(writer);
    // A dead peer is detected by the reader (EOF); ignore write errors.
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.flush();
}

fn handle_connection(shared: Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let session = match shared.sessions.open(shared.config.ceiling.clone()) {
        Some(session) => session,
        None => {
            let mut stream = stream;
            let refusal =
                protocol::error_response(None, "server_full", "session limit reached, retry later");
            let _ = stream.write_all(protocol::to_line(&refusal).as_bytes());
            return;
        }
    };
    let writer: SharedWriter = match stream.try_clone() {
        Ok(clone) => Arc::new(Mutex::new(clone)),
        Err(_) => {
            shared.sessions.close(session.id());
            return;
        }
    };
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    write_line(
        &writer,
        &protocol::ok_response(
            None,
            vec![
                ("hello", Value::Bool(true)),
                ("session", n(session.id())),
                ("protocol", n(protocol::PROTOCOL_VERSION)),
            ],
        ),
    );
    let mut reader = FrameReader::new(stream, shared.config.max_frame_bytes);
    loop {
        match reader.next_event() {
            FrameEvent::Line(text) => {
                // Only a *complete* frame counts as activity: a slow-loris
                // peer dripping bytes never touches the idle clock.
                session.touch();
                if !text.trim().is_empty() {
                    handle_line(&shared, &session, &writer, &text);
                }
            }
            FrameEvent::TooLarge => {
                session.touch();
                write_line(
                    &writer,
                    &protocol::error_response(
                        None,
                        "frame_too_large",
                        &format!(
                            "request line exceeds {} bytes and was discarded",
                            shared.config.max_frame_bytes
                        ),
                    ),
                );
            }
            FrameEvent::NotUtf8 => {
                session.touch();
                write_line(
                    &writer,
                    &protocol::error_response(None, "bad_request", "request line is not UTF-8"),
                );
            }
            FrameEvent::Eof(tail) => {
                // A final unterminated line still gets processed.
                if let Some(text) = tail {
                    if !text.trim().is_empty() {
                        session.touch();
                        handle_line(&shared, &session, &writer, &text);
                    }
                }
                break;
            }
            FrameEvent::Timeout => {
                if shared.shutdown.load(Ordering::Relaxed) {
                    break;
                }
                if session.in_flight() == 0 && session.idle_for() >= shared.config.idle_timeout {
                    write_line(
                        &writer,
                        &protocol::error_response(None, "idle_timeout", "session evicted"),
                    );
                    shared.sessions.note_idle_eviction();
                    break;
                }
            }
            FrameEvent::Closed => break,
        }
    }
    // Dropped (or evicted) connection: cancel whatever is still in
    // flight — the tokens reach every governor of the runs' ladders — and
    // drop the session's live subscriptions so nothing pushes to a dead
    // writer.
    shared.subs.drop_session(session.id());
    shared.sessions.close(session.id());
}

fn handle_line(shared: &Arc<Shared>, session: &Arc<Session>, writer: &SharedWriter, text: &str) {
    let request = match protocol::parse_request(text) {
        Ok(request) => request,
        Err(e) => {
            shared.count_op("invalid");
            write_line(writer, &protocol::error_response(None, e.code, &e.message));
            return;
        }
    };
    shared.count_op(request.op.name());
    let id = request.id;
    let response = match request.op {
        Op::Ping => protocol::ok_response(id, vec![("pong", Value::Bool(true))]),
        Op::Auth { key } => auth_response(shared, session, id, key.as_deref()),
        Op::Check { statement } => check_response(shared, id, &statement),
        Op::Explain { statement } => explain_response(shared, id, &statement),
        Op::Stats => stats_response(shared, session, id),
        Op::Metrics => metrics_response(shared, id),
        Op::SetPolicy { deadline_ms, max_rows_scanned, max_output_cells, max_threads } => {
            let policy = ExecutionPolicy {
                deadline: deadline_ms.map(Duration::from_millis),
                max_rows_scanned,
                max_output_cells,
                max_threads: max_threads.map(|t| (t as usize).max(1)),
                cancel_token: None,
            };
            session.set_policy(policy.clone());
            protocol::ok_response(id, vec![("policy", policy_json(&policy))])
        }
        Op::Cancel { target } => {
            let cancelled = session.cancel_run(target);
            protocol::ok_response(id, vec![("cancelled", Value::Bool(cancelled))])
        }
        Op::Unsubscribe { target } => {
            let removed = shared.subs.unregister(session.id(), target);
            protocol::ok_response(id, vec![("unsubscribed", Value::Bool(removed))])
        }
        Op::Run(opts) => {
            enqueue_job(shared, session, writer, id, Payload::Run(opts));
            return; // the executor writes the response
        }
        Op::Batch(opts) => {
            enqueue_job(shared, session, writer, id, Payload::Batch(opts));
            return; // the executor writes the response
        }
        Op::Append { cube, rows } => {
            // Appends ride the same admission/fair-queue path as runs:
            // ingest competes with queries under the tenant's quota.
            enqueue_job(shared, session, writer, id, Payload::Append { cube, rows });
            return; // the executor writes the response
        }
        Op::Subscribe { statement } => {
            enqueue_job(shared, session, writer, id, Payload::Subscribe { statement });
            return; // the executor writes the response
        }
        Op::Partial(opts) => {
            // Partials are real scans: they queue behind the same
            // admission control as runs, so a frontend fanning out cannot
            // starve a shard node's direct clients.
            enqueue_job(shared, session, writer, id, Payload::Partial(opts));
            return; // the executor writes the response
        }
        Op::Rows { table } => {
            // Quick op: a row-count probe for coordinator cost models.
            // Answered from the shard set when this server is itself a
            // sharded frontend (its local fact tables are empty shells).
            let counted = match shared.engine.shards() {
                Some(set) => set.total_rows(&table).map_err(|e| e.to_string()),
                None => {
                    let table = shared.engine.catalog().table(&table);
                    table.map(|t| t.n_rows()).map_err(|e| e.to_string())
                }
            };
            match counted {
                Ok(rows) => protocol::ok_response(id, vec![("rows", n(rows as u64))]),
                Err(message) => protocol::error_response(id, "bad_request", &message),
            }
        }
    };
    write_line(writer, &response);
}

fn enqueue_job(
    shared: &Arc<Shared>,
    session: &Arc<Session>,
    writer: &SharedWriter,
    id: Option<u64>,
    payload: Payload,
) {
    let Some(request_id) = id else {
        // The protocol layer already rejects id-less runs; belt and braces.
        write_line(
            writer,
            &protocol::error_response(None, "bad_request", "`run` requires an `id`"),
        );
        return;
    };
    let token = CancelToken::new();
    if !session.register_run(request_id, token.clone()) {
        write_line(
            writer,
            &protocol::error_response(
                id,
                "duplicate_id",
                "a run with this id is already in flight",
            ),
        );
        return;
    }
    let tenant = session.tenant();
    let permit = match shared.admission.try_admit(tenant) {
        Ok(permit) => permit,
        Err(refusal) => {
            // Structured refusal with a backoff hint — never a dropped
            // request, never unbounded queueing.
            session.finish_run(request_id);
            write_line(
                writer,
                &protocol::overload_response(
                    id,
                    refusal.code(),
                    &refusal.message(),
                    refusal.retry_after_ms(),
                ),
            );
            return;
        }
    };
    let job = Job {
        session: session.clone(),
        request_id,
        payload,
        token,
        writer: writer.clone(),
        permit,
    };
    shared.queue.push(tenant, job);
}

// --------------------------------------------------------------- executors

fn executor_loop(shared: Arc<Shared>) {
    while let Some(mut job) = shared.pop_job() {
        job.permit.mark_running();
        shared.running.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let line = if job.token.is_cancelled() {
            // Cancelled before an executor got to it: nothing is parsed,
            // checked or run, whatever the op.
            shared.runs.refused("cancelled");
            let id = Some(job.request_id);
            protocol::to_line(&protocol::error_response(id, "cancelled", "cancelled while queued"))
        } else {
            match &job.payload {
                Payload::Run(opts) => execute_run(&shared, &job, opts),
                Payload::Batch(opts) => protocol::to_line(&execute_batch(&shared, &job, opts)),
                Payload::Append { cube, rows } => {
                    protocol::to_line(&execute_append(&shared, &job, cube, rows))
                }
                Payload::Subscribe { statement } => {
                    protocol::to_line(&execute_subscribe(&shared, &job, statement))
                }
                Payload::Partial(opts) => protocol::to_line(&execute_partial(&shared, &job, opts)),
            }
        };
        let elapsed = t0.elapsed();
        let counters = shared.admission.counters(job.permit.tenant());
        counters.completed.fetch_add(1, Ordering::Relaxed);
        counters.latency.observe(elapsed);
        job.session.observe(elapsed);
        job.session.finish_run(job.request_id);
        let writer = job.writer.clone();
        // Release the admission permit *before* the response goes out: a
        // client that has seen this run finish must be able to admit a new
        // one immediately.
        drop(job);
        write_encoded(&writer, &line);
        shared.running.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Executes a `run` job: the line of [`run_statement`], or its refusal's.
fn execute_run(shared: &Shared, job: &Job, opts: &RunOptions) -> String {
    run_statement(shared, job, opts).unwrap_or_else(|refusal| {
        protocol::to_line(&refusal.response(Some(job.request_id), &opts.statement))
    })
}

/// What is `run`'s own around the statement pipeline: the shared result
/// cache (looked up before the statement is bound, so a hit neither parses
/// nor binds; a scoped insert after a run), soft shedding and the
/// response's run summary. The line is the summary, the entry's stored
/// cells and the trace, warnings and shed mark after them.
fn run_statement(shared: &Shared, job: &Job, opts: &RunOptions) -> Result<String, Refusal> {
    let t0 = Instant::now();

    // Soft shedding: under pressure the run still executes, but trace
    // capture and cache *inserts* are disabled (lookups stay on — a hit is
    // the cheapest way to serve). The response says so via `"shed"`.
    let shed = job.permit.shed();
    let want_trace = opts.trace && shed == ShedLevel::Full;
    let limit = opts.limit.unwrap_or(shared.config.default_row_limit);
    let respond = |result: &CachedResult, cached, trace: Option<TraceTree>, warnings: &[_]| {
        let labels = result.cube.label_histogram().into_iter();
        let head = vec![
            ("cached", Value::Bool(cached)),
            ("strategy", s(result.strategy.acronym())),
            ("cells", n(result.cube.len() as u64)),
            ("rows_scanned", n(result.rows_scanned as u64)),
            ("attempts", n(result.attempts as u64)),
            ("elapsed_ms", n(ms(t0.elapsed()))),
            ("labels", Value::Object(labels.map(|(label, k)| (label, n(k as u64))).collect())),
        ];
        let mut tail = Vec::new();
        if let Some(tree) = trace {
            tail.push(("trace", tree.to_json()));
        }
        if !warnings.is_empty() {
            tail.push(("diagnostics", protocol::diagnostics_json(warnings, Some(&opts.statement))));
        }
        protocol::spliced_line(
            &protocol::ok_response(Some(job.request_id), head),
            &result.body(opts.format, limit),
            &mark_shed(protocol::obj(tail), shed),
        )
    };

    let runner =
        statement::runner_for(shared, &job.session, job.permit.tenant(), job.token.clone());
    let key = cache_key(
        &stmt::normalize(&opts.statement),
        &policy_fingerprint(runner.policy(), opts.strategy),
    );
    let catalog = shared.engine.catalog().clone();
    let version_before = catalog.version();

    if opts.cache {
        if let Some(hit) = shared.cache.lookup(&key, version_before) {
            // The stored warnings are this text's when the catalog has not
            // moved since they were bound (`W105` reads table sizes) and
            // either there are none or this is the text they were bound
            // from. Otherwise this text is bound for its warnings only, so
            // that every diagnostic points into it.
            let rebound;
            let warnings = if hit.bound_at == version_before
                && (hit.warnings.is_empty() || hit.text == opts.statement)
            {
                &hit.warnings
            } else {
                rebound = statement::prepare(shared, &opts.statement)?.warnings;
                &rebound
            };
            shared.runs.cache_hits.fetch_add(1, Ordering::Relaxed);
            // A hit never scans: its trace is a single `cache_hit` leaf
            // (zero scan spans), with the original strategy for context.
            let trace = want_trace.then(|| TraceTree {
                strategy: Some(hit.strategy),
                cache_hit: true,
                spans: vec![
                    TraceSpan::new("cache_hit", t0.elapsed()).with_rows(hit.cube.len() as u64)
                ],
            });
            return Ok(respond(&hit, true, trace, warnings));
        }
    }

    let prepared = statement::prepare(shared, &opts.statement)?;
    let (cube, report, trace) =
        statement::execute(shared, &runner, &prepared, opts.strategy, want_trace)?;
    let resolved = &prepared.resolved;
    let mut queries = vec![resolved.target_query.clone()];
    match &resolved.benchmark {
        ResolvedBenchmark::Constant { .. } => {}
        ResolvedBenchmark::External { query, .. }
        | ResolvedBenchmark::Sibling { query, .. }
        | ResolvedBenchmark::Past { query, .. }
        | ResolvedBenchmark::Ancestor { query, .. } => queries.push(query.clone()),
    }
    let result = CachedResult {
        cube,
        strategy: report.strategy,
        rows_scanned: report.rows_scanned,
        attempts: report.attempts.len(),
        queries,
        text: opts.statement.clone(),
        bound_at: version_before,
        warnings: prepared.warnings,
        body: Mutex::new(None),
    };
    let line = respond(&result, false, trace, &result.warnings);
    // Only cache results the catalog provably did not shift under: same
    // even version before and after the run. Under shedding, skip the
    // insert entirely.
    if opts.cache && shed == ShedLevel::Full && catalog.version() == version_before {
        shared.cache.insert(key, result, version_before);
    }
    Ok(line)
}

/// Executes a `batch` job: every statement is prepared on its own, the
/// clean ones' resolutions run through [`AssessRunner::run_batch`] with
/// shared-scan scheduling. The response is `ok` at the batch level; per-statement
/// refusals travel inside the `results` array. Batches bypass the result
/// cache in both directions — the point of a batch is the shared scan, and
/// mixed hit/miss groups would break its exactly-once accounting.
fn execute_batch(shared: &Shared, job: &Job, opts: &BatchOptions) -> Value {
    let t0 = Instant::now();
    let shed = job.permit.shed();
    let want_trace = opts.trace && shed == ShedLevel::Full;
    let limit = opts.limit.unwrap_or(shared.config.default_row_limit);

    // Refused statements keep their slot and are excluded from execution.
    let mut statements = Vec::new();
    let slots: Vec<Result<(Vec<Diagnostic>, Span), Refusal>> = opts
        .statements
        .iter()
        .map(|text| {
            let prepared = statement::prepare(shared, text)?;
            statements.push(prepared.resolved);
            Ok((prepared.warnings, prepared.span))
        })
        .collect();

    let runner =
        statement::runner_for(shared, &job.session, job.permit.tenant(), job.token.clone());
    let mut outcome = runner.run_batch(&statements, want_trace);
    let mut items = std::mem::take(&mut outcome.items).into_iter();

    let mut ok_count = 0usize;
    let results: Vec<Value> = slots
        .into_iter()
        .zip(&opts.statements)
        .map(|(slot, text)| {
            let executed = slot.and_then(|(warnings, span)| {
                items
                    .next()
                    .unwrap_or_else(|| Err(AssessError::Statement("missing batch result".into())))
                    .map(|run| (run, warnings))
                    .map_err(|e| Refusal::of(&shared.runs, &e, span))
            });
            let ((cube, report, trace), warnings) = match executed {
                Ok(done) => done,
                Err(refusal) => return refusal.result_object(text),
            };
            shared.runs.executed.fetch_add(1, Ordering::Relaxed);
            ok_count += 1;
            let mut fields = vec![
                ("ok", Value::Bool(true)),
                ("strategy", s(report.strategy.acronym())),
                ("cells", n(cube.len() as u64)),
                ("rows_scanned", n(report.rows_scanned as u64)),
            ];
            fields.extend(statement::cube_fields(&cube, opts.format, limit));
            if let Some(tree) = trace {
                fields.push(("trace", tree.to_json()));
            }
            if !warnings.is_empty() {
                fields.push(("diagnostics", protocol::diagnostics_json(&warnings, Some(text))));
            }
            protocol::obj(fields)
        })
        .collect();

    let shared_scans: Vec<Value> = outcome
        .shared
        .iter()
        .map(|r| {
            protocol::obj(vec![
                ("fingerprint", s(r.fingerprint.to_string())),
                ("consumers", n(r.consumers as u64)),
                ("rows_scanned", n(r.rows_scanned as u64)),
                ("query", s(r.query.clone())),
            ])
        })
        .collect();
    let mut fields = vec![
        ("batch", Value::Bool(true)),
        ("count", n(opts.statements.len() as u64)),
        ("succeeded", n(ok_count as u64)),
        ("elapsed_ms", n(ms(t0.elapsed()))),
        ("shared_scans", Value::Array(shared_scans)),
        ("results", Value::Array(results)),
    ];
    if want_trace {
        // The batch-level trace carries one `shared_scan` span per scan
        // that executed once and fanned out; per-statement traces live on
        // the corresponding result objects.
        let tree = TraceTree {
            strategy: None,
            cache_hit: false,
            spans: std::mem::take(&mut outcome.shared_spans),
        };
        fields.push(("trace", tree.to_json()));
    }
    mark_shed(protocol::ok_response(Some(job.request_id), fields), shed)
}

/// Executes a `partial` job on a shard node: decode the coordinator's
/// planned query, run just the scan/aggregate stage under the limits every
/// other execution of this session runs under, further clamped by the
/// coordinator's forwarded budget, and answer with the raw accumulator
/// state. Engine failures travel with their structured fields so the
/// coordinator reconstructs the exact error
/// ([`shard::engine_error_response`]).
fn execute_partial(shared: &Shared, job: &Job, opts: &PartialOptions) -> Value {
    let id = Some(job.request_id);
    let t0 = Instant::now();
    let query = match shard::decode_query(&opts.query) {
        Ok(query) => query,
        Err(message) => return protocol::error_response(id, "bad_request", &message),
    };

    let forwarded = ExecutionPolicy {
        deadline: opts.deadline_ms.map(Duration::from_millis),
        max_rows_scanned: opts.max_rows,
        ..ExecutionPolicy::default()
    };
    let runner =
        statement::runner_for(shared, &job.session, job.permit.tenant(), job.token.clone());
    // The clamp drops the cancel token; the job's keeps `cancel` (and
    // dropped connections) working for partials too.
    let policy =
        admission::clamp_policies(runner.policy(), &forwarded).with_cancel_token(job.token.clone());
    let deadline_at = policy.deadline.and_then(|d| t0.checked_add(d));
    let mut engine = shared.engine.clone().with_governor(policy.governor(deadline_at));
    if let Some(threads) = policy.max_threads {
        engine = engine.with_thread_cap(threads);
    }

    match engine.get_partial(&query) {
        Ok(partial) => {
            shared.runs.executed.fetch_add(1, Ordering::Relaxed);
            let mut fields = shard::partial_fields(&partial);
            fields.push(("elapsed_ms", n(ms(t0.elapsed()))));
            protocol::ok_response(id, fields)
        }
        Err(e) => {
            shared.runs.refused(shard::engine_error_fields(&e).0);
            shard::engine_error_response(id, &e)
        }
    }
}

// ----------------------------------------------------- ingest & subscribe

/// Types a JSON `rows` object (`{"col":[numbers...]}`) against `table`'s
/// columns, producing the typed batch [`Engine::append`] expects. Integer
/// columns refuse fractional values; unknown or non-numeric target columns
/// are refused up front so the error names the column.
fn parse_append_rows(table: &olap_storage::Table, rows: &Value) -> Result<Vec<Column>, String> {
    let Value::Object(fields) = rows else {
        return Err("`rows` must be an object of column arrays".to_string());
    };
    let mut batch = Vec::with_capacity(fields.len());
    for (name, values) in fields {
        let values = values
            .as_array()
            .ok_or_else(|| format!("column `{name}` must be an array of numbers"))?;
        let mut numbers = Vec::with_capacity(values.len());
        for v in values {
            numbers.push(v.as_f64().ok_or_else(|| format!("column `{name}` holds a non-number"))?);
        }
        if table.column_index(name).is_none() {
            return Err(format!("table `{}` has no column `{name}`", table.name()));
        }
        // Encoded key columns take the integer path too: the append batch
        // carries plain `i64` keys and the engine's maintenance encodes
        // them into the target's packed layout.
        if table.require_key_like(name).is_ok() {
            let mut ints = Vec::with_capacity(numbers.len());
            for x in &numbers {
                if x.fract() != 0.0 || x.abs() > 9.0e15 {
                    return Err(format!("column `{name}` is integer-typed; got {x}"));
                }
                ints.push(*x as i64);
            }
            batch.push(Column::i64(name.clone(), ints));
        } else if table.require_numeric(name).is_ok() {
            batch.push(Column::f64(name.clone(), numbers));
        } else {
            return Err(format!("column `{name}` is not numeric; appends carry numbers only"));
        }
    }
    Ok(batch)
}

/// Executes an `append` job: type the batch, commit it through the
/// engine's incremental-maintenance path (under the append lock, so
/// maintenance is exactly-once and frames push in commit order), patch the
/// cache entries the appended rows cannot change and evict the rest, then
/// re-evaluate every live subscription and push its diff frame.
fn execute_append(shared: &Shared, job: &Job, cube: &str, rows: &Value) -> Value {
    let id = Some(job.request_id);
    let t0 = Instant::now();
    let catalog = shared.engine.catalog().clone();
    let binding = match catalog.binding(cube) {
        Ok(binding) => binding,
        Err(e) => return protocol::error_response(id, "bad_request", &e.to_string()),
    };
    let table = match catalog.table(binding.fact_table()) {
        Ok(table) => table,
        Err(e) => return protocol::error_response(id, "append_failed", &e.to_string()),
    };
    let batch = match parse_append_rows(&table, rows) {
        Ok(batch) => batch,
        Err(message) => return protocol::error_response(id, "bad_request", &message),
    };

    let guard = lock(&shared.append_lock);
    let outcome = match shared.engine.append(cube, &batch) {
        Ok(outcome) => outcome,
        Err(e) => return protocol::error_response(id, "append_failed", &e.to_string()),
    };
    // A cached result stays exact when every query it ran reads another
    // fact table or selects none of the appended rows.
    let delta = &outcome.delta;
    let selection = delta.selection(cube, &binding);
    let (patched, evicted) = shared.cache.apply_delta(delta.version(), |cached| {
        cached.queries.iter().all(|q| {
            if q.cube == cube {
                q.relate(&selection, binding.schema()) == Relation::Disjoint
            } else {
                catalog.binding(&q.cube).is_ok_and(|b| b.fact_table() != delta.table())
            }
        })
    });
    let (notified, lagged) = notify_subscriptions(shared, outcome.version());
    drop(guard);

    protocol::ok_response(
        id,
        vec![
            ("appended", n(outcome.appended() as u64)),
            ("version", n(outcome.version())),
            ("views_merged", n(outcome.views_merged as u64)),
            ("views_rebuilt", n(outcome.views_rebuilt as u64)),
            (
                "views_dropped",
                Value::Array(outcome.views_dropped.iter().map(|v| s(v.clone())).collect()),
            ),
            ("cache_patched", n(patched as u64)),
            ("cache_evicted", n(evicted as u64)),
            ("subscriptions_notified", n(notified)),
            ("subscriptions_lagged", n(lagged)),
            ("elapsed_ms", n(ms(t0.elapsed()))),
        ],
    )
}

/// Re-evaluates every live subscription after a committed append and
/// pushes one frame each: the evaluated cube moves into the subscription,
/// which decodes only the cells that changed. Every re-evaluation passes
/// tenant admission: a refusal pushes a `lagged` event instead (the next
/// successful frame is a full re-send). Soft shedding still sends a diff,
/// the cheaper frame to build. Returns `(notified, lagged)` counts.
fn notify_subscriptions(shared: &Shared, version: u64) -> (u64, u64) {
    let mut notified = 0;
    let mut lagged = 0;
    for sub in shared.subs.snapshot() {
        let (writer, session) = sub.writer();
        let tenant = session.tenant();
        // `Err` carries the `lagged` notice's code and backoff hint. A
        // statement that validated at registration fails only transiently
        // (budget, cancellation), so the op-level code stays generic.
        let evaluated = match shared.admission.try_admit(tenant) {
            Err(refusal) => Err((refusal.code(), refusal.retry_after_ms())),
            Ok(mut permit) => {
                permit.mark_running();
                statement::evaluate(shared, session, tenant, CancelToken::new(), sub.statement())
                    .map(|(cube, _report)| (cube, permit))
                    .map_err(|_| ("execution_error", 0))
            }
        };
        match evaluated {
            // The admission slot stays held until the frame is written.
            Ok((cube, _permit)) => {
                let (seq, frame) = sub.advance(cube);
                write_line(writer, &subscribe::frame_json(sub.id(), seq, version, &frame));
                notified += 1;
            }
            Err((code, retry_after_ms)) => {
                // The baseline is stale now; flag it so the next frame
                // re-sends in full.
                sub.mark_lagged();
                lagged += 1;
                write_line(writer, &subscribe::lagged_json(sub.id(), code, retry_after_ms));
            }
        }
    }
    (notified, lagged)
}

/// Executes a `subscribe` job: validate and evaluate the statement once
/// (the response carries the complete baseline — clients patch it with
/// subsequent diff frames), then register the subscription.
fn execute_subscribe(shared: &Shared, job: &Job, statement: &str) -> Value {
    let id = Some(job.request_id);
    let t0 = Instant::now();
    let tenant = job.session.tenant();
    let evaluated = statement::evaluate(shared, &job.session, tenant, job.token.clone(), statement);
    let (cube, report) = match evaluated {
        Ok(done) => done,
        Err(refusal) => return refusal.response(id, statement),
    };
    // The baseline travels in full (never truncated): diff frames patch
    // exactly this state forward.
    let cells = cube.len();
    let rows: Vec<Value> = cube.cells().iter().map(serde::Serialize::to_value).collect();
    let channel: SubChannel = (job.writer.clone(), job.session.clone());
    let tenant_name = shared.admission.directory().spec(tenant).name.clone();
    let sub = match shared.subs.register(job.session.id(), &tenant_name, statement, cube, channel) {
        Ok(sub) => sub,
        Err(ceiling) => {
            return protocol::error_response(
                id,
                "subscription_limit",
                &format!("tenant `{tenant_name}` already holds {ceiling} live subscriptions"),
            )
        }
    };
    protocol::ok_response(
        id,
        vec![
            ("sub", n(sub.id())),
            ("cells", n(cells as u64)),
            ("strategy", s(report.strategy.acronym())),
            ("version", n(shared.engine.catalog().version())),
            ("rows", Value::Array(rows)),
            ("elapsed_ms", n(ms(t0.elapsed()))),
        ],
    )
}

// --------------------------------------------------------------- responses

/// Tags a response produced under soft shedding with `"shed": "light"`.
fn mark_shed(mut response: Value, shed: ShedLevel) -> Value {
    if shed == ShedLevel::Light {
        if let Value::Object(fields) = &mut response {
            fields.push(("shed".to_string(), s("light")));
        }
    }
    response
}

/// The `auth` op: binds the session to the tenant owning the key (or back
/// to anonymous when no key is given). Unknown keys leave the binding
/// untouched and answer `auth_failed`.
fn auth_response(shared: &Shared, session: &Session, id: Option<u64>, key: Option<&str>) -> Value {
    let tenant = match key {
        None => Some(ANONYMOUS),
        Some(key) => shared.config.tenants.authenticate(key),
    };
    match tenant {
        Some(tenant) => {
            session.set_tenant(tenant);
            let spec = shared.config.tenants.spec(tenant);
            protocol::ok_response(
                id,
                vec![("tenant", s(spec.name.clone())), ("weight", n(u64::from(spec.weight)))],
            )
        }
        None => protocol::error_response(id, "auth_failed", "unknown API key"),
    }
}

fn check_response(shared: &Shared, id: Option<u64>, statement: &str) -> Value {
    let diagnostics = match statement::bind(shared, statement) {
        Ok((_, binding)) => binding.diagnostics,
        Err(refusal) => return refusal.response(id, statement),
    };
    let errors = diagnostics.iter().filter(|d| d.is_error()).count();
    protocol::ok_response(
        id,
        vec![
            ("clean", Value::Bool(diagnostics.is_empty())),
            ("errors", n(errors as u64)),
            ("warnings", n((diagnostics.len() - errors) as u64)),
            ("diagnostics", protocol::diagnostics_json(&diagnostics, Some(statement))),
        ],
    )
}

fn explain_response(shared: &Shared, id: Option<u64>, statement: &str) -> Value {
    let resolved = match statement::bind(shared, statement) {
        Ok((_, binding)) => binding.resolved,
        Err(refusal) => return refusal.response(id, statement),
    };
    let explained = resolved.and_then(|resolved| explain::explain(&shared.runner, &resolved));
    match explained {
        Ok(text) => protocol::ok_response(id, vec![("explain", s(text))]),
        Err(e) => protocol::error_response(id, "explain_error", &e.to_string()),
    }
}

fn policy_json(policy: &ExecutionPolicy) -> Value {
    let opt = |v: Option<u64>| v.map_or(Value::Null, n);
    protocol::obj(vec![
        ("deadline_ms", opt(policy.deadline.map(ms))),
        ("max_rows_scanned", opt(policy.max_rows_scanned)),
        ("max_output_cells", opt(policy.max_output_cells)),
        ("max_threads", opt(policy.max_threads.map(|t| t as u64))),
    ])
}

fn stats_response(shared: &Shared, session: &Session, id: Option<u64>) -> Value {
    let sessions = shared.sessions.stats();
    let cache = shared.cache.stats();
    let adm = shared.admission.stats();
    let ops = Value::Object(
        lock(&shared.ops).iter().map(|(name, count)| (name.to_string(), n(*count))).collect(),
    );
    let latency = session.latency_snapshot();
    protocol::ok_response(
        id,
        vec![
            ("uptime_ms", n(ms(shared.started.elapsed()))),
            (
                "sessions",
                protocol::obj(vec![
                    ("active", n(sessions.active as u64)),
                    ("opened", n(sessions.opened)),
                    ("idle_evicted", n(sessions.idle_evicted)),
                ]),
            ),
            (
                "cache",
                protocol::obj(vec![
                    ("hits", n(cache.hits)),
                    ("misses", n(cache.misses)),
                    ("evictions", n(cache.evictions)),
                    ("invalidations", n(cache.invalidations)),
                    ("patches", n(cache.patches)),
                    ("len", n(cache.len as u64)),
                    ("capacity", n(cache.capacity as u64)),
                ]),
            ),
            ("subscriptions", protocol::obj(vec![("active", n(shared.subs.active() as u64))])),
            (
                "admission",
                protocol::obj(vec![
                    ("outstanding", n(adm.outstanding)),
                    ("limit", n(adm.limit as u64)),
                    ("admitted", n(adm.admitted)),
                    ("rejected", n(adm.rejected)),
                    ("shed_light", n(adm.shed_light)),
                ]),
            ),
            ("tenants", tenants_json(shared)),
            (
                "executor",
                protocol::obj(vec![
                    ("workers", n(shared.config.workers as u64)),
                    ("queued", n(shared.queue.len() as u64)),
                    ("running", n(shared.running.load(Ordering::Relaxed))),
                ]),
            ),
            ("pool", {
                let p = shared.pool.stats();
                protocol::obj(vec![
                    ("threads", n(p.threads as u64)),
                    ("available", n(p.available as u64)),
                    ("helpers_dispatched", n(p.helpers_dispatched)),
                    ("tasks_completed", n(p.tasks_completed)),
                    ("parallel_morsels", n(p.parallel_morsels)),
                    ("panics", n(p.panics)),
                    ("reservations_requested", n(p.reservations_requested)),
                    ("reservations_denied", n(p.reservations_denied)),
                ])
            }),
            ("runs", shared.runs.to_json()),
            (
                "obs",
                protocol::obj(vec![
                    ("core", obs::query_metrics().snapshot().to_json()),
                    ("engine", engine_metrics_json(shared)),
                ]),
            ),
            (
                "session",
                protocol::obj(vec![("queries", n(latency.count)), ("latency", latency.to_json())]),
            ),
            ("storage", storage_json(shared)),
            ("ops", ops),
        ],
    )
}

/// Physical storage footprint for the `stats` op, in table-name order:
/// true encoded bytes next to the plain-layout equivalent (their quotient
/// is the compression ratio) and every column's physical encoding.
fn storage_json(shared: &Shared) -> Value {
    Value::Array(
        shared
            .engine
            .catalog()
            .storage_stats()
            .into_iter()
            .map(|t| {
                let ratio =
                    if t.plain_bytes == 0 { 1.0 } else { t.bytes as f64 / t.plain_bytes as f64 };
                let columns = t
                    .columns
                    .into_iter()
                    .map(|c| {
                        protocol::obj(vec![
                            ("name", s(c.name)),
                            ("encoding", s(c.encoding)),
                            ("bytes", n(c.bytes as u64)),
                            ("plain_bytes", n(c.plain_bytes as u64)),
                        ])
                    })
                    .collect();
                protocol::obj(vec![
                    ("table", s(t.table)),
                    ("rows", n(t.rows as u64)),
                    ("bytes", n(t.bytes as u64)),
                    ("plain_bytes", n(t.plain_bytes as u64)),
                    ("compression_ratio", Value::Number(ratio)),
                    ("columns", Value::Array(columns)),
                ])
            })
            .collect(),
    )
}

/// Per-tenant gating state and counters for the `stats` op, in tenant-id
/// order.
fn tenants_json(shared: &Shared) -> Value {
    Value::Array(
        shared
            .admission
            .tenant_stats()
            .into_iter()
            .map(|ts| {
                protocol::obj(vec![
                    ("name", s(ts.name)),
                    ("weight", n(u64::from(ts.weight))),
                    ("queued", n(ts.queued)),
                    ("running", n(ts.running)),
                    ("admitted", n(ts.admitted)),
                    ("completed", n(ts.completed)),
                    ("rejected_quota", n(ts.rejected_quota)),
                    ("rejected_rate", n(ts.rejected_rate)),
                    ("shed_light", n(ts.shed_light)),
                    ("latency", ts.latency.to_json()),
                ])
            })
            .collect(),
    )
}

fn engine_metrics_json(shared: &Shared) -> Value {
    Value::Object(
        shared
            .engine
            .metrics()
            .snapshot()
            .as_rows()
            .into_iter()
            .map(|(name, value)| (name.to_string(), n(value)))
            .collect(),
    )
}

/// The `metrics` verb: one Prometheus-style text exposition over every
/// registry (core query metrics, engine scan metrics, the scan pool and the
/// serving layer's own counters). `stats` is their JSON form.
fn metrics_response(shared: &Shared, id: Option<u64>) -> Value {
    let core = obs::query_metrics().snapshot();
    let engine = shared.engine.metrics().snapshot();
    let pool = shared.pool.stats();
    let cache = shared.cache.stats();
    let sessions = shared.sessions.stats();

    let mut exp = obs::Exposition::new();
    exp.counter("assess_queries_total", "Queries executed (successes and failures).", core.queries);
    exp.counter("assess_query_failures_total", "Queries whose whole ladder failed.", core.failures);
    exp.counter(
        "assess_fallback_attempts_total",
        "Failed attempts the strategy ladder recovered from.",
        core.fallback_attempts,
    );
    for (name, value) in ["np", "jop", "pop"].iter().zip(core.by_strategy) {
        exp.counter(
            &format!("assess_queries_{name}_total"),
            "Successful executions under this strategy.",
            value,
        );
    }
    exp.counter(
        "assess_rows_scanned_total",
        "Rows scanned by successful executions.",
        core.rows_scanned,
    );
    for (name, value) in obs::STAGE_NAMES.iter().zip(core.stage_micros) {
        exp.counter(
            &format!("assess_stage_{name}_micros_total"),
            "Cumulative stage time in microseconds.",
            value,
        );
    }
    exp.histogram("assess_query_latency_ms", "Query wall time (milliseconds).", &core.latency);
    exp.gauge("assess_queries_in_flight", "Queries executing right now.", core.in_flight as f64);

    for (name, value) in engine.as_rows() {
        exp.counter(
            &format!("assess_engine_{name}_total"),
            "Engine scan counter (see olap_engine::metrics).",
            value,
        );
    }

    // The incremental-cube headline counters, under stable names of their
    // own (dashboards alert on these; the `assess_engine_*` family above is
    // the generic dump).
    exp.counter("assess_appends_total", "Fact-batch appends committed.", engine.appends);
    exp.counter(
        "assess_mview_delta_merges_total",
        "Materialized views maintained by delta merge.",
        engine.mview_delta_merges,
    );
    exp.counter(
        "assess_mview_rebuilds_total",
        "Materialized views maintained by full rebuild.",
        engine.mview_rebuilds,
    );
    exp.counter(
        "assess_cache_patches_total",
        "Cached results patched forward across an append delta.",
        cache.patches,
    );

    exp.gauge("assess_pool_threads", "Helper threads in the scan pool.", pool.threads as f64);
    exp.counter(
        "assess_pool_helpers_dispatched_total",
        "Helper dispatches.",
        pool.helpers_dispatched,
    );
    exp.counter(
        "assess_pool_tasks_completed_total",
        "Completed helper tasks.",
        pool.tasks_completed,
    );
    exp.counter(
        "assess_pool_parallel_morsels_total",
        "Morsels claimed by helpers.",
        pool.parallel_morsels,
    );
    exp.counter(
        "assess_pool_reservations_requested_total",
        "Helper reservations requested.",
        pool.reservations_requested,
    );
    exp.counter(
        "assess_pool_reservations_denied_total",
        "Helper reservations denied (pool exhausted).",
        pool.reservations_denied,
    );

    exp.counter(
        "assess_serve_runs_total",
        "Cold runs executed.",
        shared.runs.executed.load(Ordering::Relaxed),
    );
    exp.counter(
        "assess_serve_cache_hits_total",
        "Runs served from the result cache.",
        shared.runs.cache_hits.load(Ordering::Relaxed),
    );
    exp.counter(
        "assess_serve_failed_total",
        "Runs that failed.",
        shared.runs.failed.load(Ordering::Relaxed),
    );
    exp.counter(
        "assess_serve_cancelled_total",
        "Runs cancelled.",
        shared.runs.cancelled.load(Ordering::Relaxed),
    );
    exp.counter("assess_serve_cache_misses_total", "Result-cache misses.", cache.misses);
    exp.gauge("assess_serve_sessions_active", "Open sessions.", sessions.active as f64);
    exp.gauge(
        "assess_serve_subscriptions_active",
        "Live subscriptions.",
        shared.subs.active() as f64,
    );
    let adm = shared.admission.stats();
    exp.counter("assess_serve_admitted_total", "Runs admitted.", adm.admitted);
    exp.counter(
        "assess_serve_rejected_total",
        "Runs refused at admission (queue_full/overloaded).",
        adm.rejected,
    );
    exp.counter(
        "assess_serve_shed_light_total",
        "Runs admitted under soft shedding.",
        adm.shed_light,
    );

    // Per-tenant families, labeled `tenant="..."`.
    let tenant_stats = shared.admission.tenant_stats();
    let with = |f: fn(&admission::TenantStats) -> u64| -> Vec<(&str, u64)> {
        tenant_stats.iter().map(|ts| (ts.name.as_str(), f(ts))).collect()
    };
    exp.counter_vec(
        "assess_tenant_admitted_total",
        "Runs admitted per tenant.",
        "tenant",
        &with(|ts| ts.admitted),
    );
    exp.counter_vec(
        "assess_tenant_completed_total",
        "Runs completed per tenant.",
        "tenant",
        &with(|ts| ts.completed),
    );
    exp.counter_vec(
        "assess_tenant_rejected_quota_total",
        "Runs refused by tenant quota.",
        "tenant",
        &with(|ts| ts.rejected_quota),
    );
    exp.counter_vec(
        "assess_tenant_rejected_rate_total",
        "Runs refused by tenant rate limit.",
        "tenant",
        &with(|ts| ts.rejected_rate),
    );
    exp.counter_vec(
        "assess_tenant_shed_light_total",
        "Runs served under soft shedding per tenant.",
        "tenant",
        &with(|ts| ts.shed_light),
    );
    let latencies: Vec<(&str, &obs::HistogramSnapshot)> =
        tenant_stats.iter().map(|ts| (ts.name.as_str(), &ts.latency)).collect();
    exp.histogram_vec(
        "assess_tenant_run_latency_ms",
        "Run wall time per tenant (milliseconds).",
        "tenant",
        &latencies,
    );

    protocol::ok_response(id, vec![("exposition", s(exp.finish()))])
}

#[cfg(test)]
mod tests {
    use super::{parse_append_rows, FrameEvent, FrameReader};
    use olap_storage::{Column, Table, TAIL_ROWS};

    #[test]
    fn append_rows_type_against_a_segmented_table() {
        let n = TAIL_ROWS;
        let seed = Table::new(
            "facts",
            vec![
                Column::i64("k", vec![0; n]),
                Column::f64("m", vec![1.0; n]),
                Column::from_strings("s", vec!["a"; n]),
            ],
        )
        .unwrap()
        .encode_keys(&[("k", 4)])
        .unwrap();
        let batch = [
            Column::i64("k", vec![1]),
            Column::f64("m", vec![2.0]),
            Column::from_strings("s", ["b"]),
        ];
        let table = seed.append_batch(&batch).unwrap();
        assert_eq!(table.segments().len(), 2);
        let parse = |text: &str| parse_append_rows(&table, &serde_json::from_str(text).unwrap());
        let batch = parse(r#"{"k":[3],"m":[0.5]}"#).unwrap();
        assert_eq!(batch[0].as_i64(), Some(&[3i64][..]), "encoded keys type as integers");
        assert_eq!(batch[1].as_f64(), Some(&[0.5][..]));
        assert!(parse(r#"{"k":[0.5]}"#).unwrap_err().contains("integer-typed"));
        assert!(parse(r#"{"s":[1]}"#).unwrap_err().contains("not numeric"));
        assert!(parse(r#"{"x":[1]}"#).unwrap_err().contains("no column `x`"));
    }

    /// A reader serving predetermined chunks, one per `read` call — lets
    /// the tests control exactly how "TCP" slices the byte stream.
    struct Chunks(Vec<Vec<u8>>);

    impl std::io::Read for Chunks {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() {
                return Ok(0);
            }
            let chunk = self.0.remove(0);
            out[..chunk.len()].copy_from_slice(&chunk);
            Ok(chunk.len())
        }
    }

    fn events(max: usize, chunks: Vec<Vec<u8>>) -> Vec<FrameEvent> {
        let mut reader = FrameReader::new(Chunks(chunks), max);
        let mut seen = Vec::new();
        loop {
            let event = reader.next_event();
            let done = matches!(event, FrameEvent::Eof(_) | FrameEvent::Closed);
            seen.push(event);
            if done {
                return seen;
            }
        }
    }

    /// An oversized line whose newline arrives in the same read as its
    /// body must still be refused: the cap cannot depend on how the
    /// transport chunked the bytes.
    #[test]
    fn oversized_frame_in_one_read_is_too_large() {
        let mut line = vec![b'x'; 100];
        line.extend_from_slice(b"\nping\n");
        let seen = events(64, vec![line]);
        assert!(matches!(seen[0], FrameEvent::TooLarge), "{seen:?}");
        assert!(matches!(&seen[1], FrameEvent::Line(l) if l == "ping"), "{seen:?}");
    }

    /// The same oversized line dribbled in below-cap chunks takes the
    /// mid-read path; the verdict must be identical.
    #[test]
    fn oversized_frame_across_reads_is_too_large() {
        let chunks = vec![vec![b'x'; 50], vec![b'x'; 50], b"\nping\n".to_vec()];
        let seen = events(64, chunks);
        assert!(matches!(seen[0], FrameEvent::TooLarge), "{seen:?}");
        assert!(matches!(&seen[1], FrameEvent::Line(l) if l == "ping"), "{seen:?}");
    }

    /// A line of exactly `max` bytes is within the cap on both paths.
    #[test]
    fn frame_at_the_cap_passes() {
        let mut line = vec![b'y'; 64];
        line.push(b'\n');
        let seen = events(64, vec![line.clone()]);
        assert!(matches!(&seen[0], FrameEvent::Line(l) if l.len() == 64), "{seen:?}");
        let seen = events(64, vec![line[..30].to_vec(), line[30..].to_vec()]);
        assert!(matches!(&seen[0], FrameEvent::Line(l) if l.len() == 64), "{seen:?}");
    }

    /// Non-UTF-8 frames are reported as such and the stream continues.
    #[test]
    fn non_utf8_frame_is_flagged_and_skipped() {
        let seen = events(64, vec![b"\xff\xfe\x80\nok\n".to_vec()]);
        assert!(matches!(seen[0], FrameEvent::NotUtf8), "{seen:?}");
        assert!(matches!(&seen[1], FrameEvent::Line(l) if l == "ok"), "{seen:?}");
    }

    /// An unterminated tail at EOF is surfaced for processing.
    #[test]
    fn eof_tail_is_returned() {
        let seen = events(64, vec![b"a\nb".to_vec()]);
        assert!(matches!(&seen[0], FrameEvent::Line(l) if l == "a"), "{seen:?}");
        assert!(matches!(&seen[1], FrameEvent::Eof(Some(t)) if t == "b"), "{seen:?}");
    }

    /// How the transport slices the bytes changes nothing: the same frames
    /// read one byte at a time yield the same events as in one read.
    #[test]
    fn one_byte_reads_yield_the_same_events() {
        let mut bytes = b"a\r\n\nping\n".to_vec();
        bytes.extend_from_slice(&[b'x'; 100]);
        bytes.extend_from_slice(b"\n\xff\xfe\nok\n");
        bytes.extend_from_slice(&[b'y'; 64]);
        bytes.extend_from_slice(b"\n{\"id\":1}\ntail");
        let whole = events(64, vec![bytes.clone()]);
        assert_eq!(
            whole,
            vec![
                FrameEvent::Line("a".into()),
                FrameEvent::Line(String::new()),
                FrameEvent::Line("ping".into()),
                FrameEvent::TooLarge,
                FrameEvent::NotUtf8,
                FrameEvent::Line("ok".into()),
                FrameEvent::Line("y".repeat(64)),
                FrameEvent::Line(r#"{"id":1}"#.into()),
                FrameEvent::Eof(Some("tail".into())),
            ]
        );
        let bytewise = events(64, bytes.iter().map(|&b| vec![b]).collect());
        assert_eq!(bytewise, whole);
    }
}
