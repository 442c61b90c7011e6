//! A shared worker pool and the morsel-driven scan driver.
//!
//! ## Determinism
//!
//! Parallel scans must be **byte-identical** to serial ones. The driver
//! gets this by construction rather than by synchronization:
//!
//! * morsels are claimed from a shared atomic cursor, so the set of claimed
//!   morsels is always a prefix `0..k` of the morsel sequence;
//! * every claimed morsel aggregates into its **own** [`Partial`], stashed
//!   in the slot of its morsel index (the worker's [`Grouper`] and buffers
//!   are reused across the morsels it claims — a partial carries no index);
//! * after all workers finish, partials are merged in ascending morsel
//!   order.
//!
//! The reduction tree is therefore a function of the data and the morsel
//! size alone — never of the thread count or the scheduling — and the
//! single-threaded path runs the exact same code, so `threads = 1` and
//! `threads = N` produce identical floating-point results.
//!
//! ## Fault and budget surfacing
//!
//! Each claimed morsel runs the injector's [`FaultSite::Morsel`] trigger
//! (ordinal = morsel index, so the schedule is interleaving-independent)
//! and the governor's cooperative check before scanning. Failures record
//! under the *minimum* failing morsel index: claims form a prefix and every
//! claimed morsel is checked, so the surfaced error is deterministic too.
//! A panicking worker is caught at the pool boundary and surfaced as
//! [`EngineError::WorkerPanicked`]; it never poisons the pool or the
//! caller.
//!
//! ## Sizing
//!
//! The pool holds N helper threads; the *caller always participates* in
//! its own scan, so a scan at degree-of-parallelism D reserves D−1 helpers.
//! Reservations are taken against an availability counter at dispatch time
//! — a scan that cannot get helpers runs serially rather than queueing
//! behind other queries, so one pool can be shared by every session of
//! `assess-serve` without cross-query stalls.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

use olap_model::AggOp;

use crate::aggregate::{Grouper, Partial};
use crate::error::EngineError;
use crate::fault::{FaultInjector, FaultSite};
use crate::governor::ResourceGovernor;
use crate::key::KeyLayout;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Recover a poisoned mutex: pool state is counters and queues that stay
/// coherent across a worker panic (panics are caught per job anyway).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poison| poison.into_inner())
}

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    work_cv: Condvar,
    shutdown: AtomicBool,
    threads: usize,
    /// Helper slots not currently reserved by a scan.
    available: AtomicUsize,
    helpers_dispatched: AtomicU64,
    tasks_completed: AtomicU64,
    parallel_morsels: AtomicU64,
    panics: AtomicU64,
    reservations_requested: AtomicU64,
    reservations_denied: AtomicU64,
}

/// Point-in-time pool counters (exposed by `assess-serve stats`).
#[derive(Debug, Clone, Copy)]
pub struct PoolStats {
    /// Helper threads owned by the pool.
    pub threads: usize,
    /// Helper slots currently free.
    pub available: usize,
    /// Helper tasks handed to the pool since startup.
    pub helpers_dispatched: u64,
    /// Helper tasks completed since startup.
    pub tasks_completed: u64,
    /// Morsels processed by pool-parallel scans since startup.
    pub parallel_morsels: u64,
    /// Worker panics caught at the pool boundary.
    pub panics: u64,
    /// Helper reservation attempts (scans that wanted at least one helper).
    pub reservations_requested: u64,
    /// Reservation attempts granted zero helpers (the scan ran serially
    /// because the pool was saturated).
    pub reservations_denied: u64,
}

/// A fixed-size pool of helper threads shared by all scans of an engine
/// (and, in `assess-serve`, by all sessions). Dropping the pool joins its
/// threads.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("threads", &self.shared.threads).finish()
    }
}

impl WorkerPool {
    /// A pool with `threads` helper threads. Zero is valid: every scan then
    /// runs on its calling thread only.
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            threads,
            available: AtomicUsize::new(threads),
            helpers_dispatched: AtomicU64::new(0),
            tasks_completed: AtomicU64::new(0),
            parallel_morsels: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            reservations_requested: AtomicU64::new(0),
            reservations_denied: AtomicU64::new(0),
        });
        let handles = (0..threads)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("assess-scan-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, handles: Mutex::new(handles) }
    }

    /// The process-wide pool for engines without an attached one, sized to
    /// the hardware (cores − 1 helpers, the caller being the extra thread).
    pub fn global() -> Arc<WorkerPool> {
        static GLOBAL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
        GLOBAL
            .get_or_init(|| {
                let helpers = std::thread::available_parallelism()
                    .map(|p| p.get().saturating_sub(1))
                    .unwrap_or(0);
                Arc::new(WorkerPool::new(helpers))
            })
            .clone()
    }

    /// Helper threads owned by this pool.
    pub fn threads(&self) -> usize {
        self.shared.threads
    }

    /// Reserves up to `want` helper slots, returning how many were granted
    /// (possibly zero — the scan then runs serially instead of queueing
    /// behind other queries). Every granted slot must be used by exactly
    /// one subsequent [`Self::submit`]; the slot frees when that job ends.
    pub fn try_reserve(&self, want: usize) -> usize {
        if want > 0 {
            self.shared.reservations_requested.fetch_add(1, Ordering::Relaxed);
        }
        let mut cur = self.shared.available.load(Ordering::Acquire);
        loop {
            let take = want.min(cur);
            if take == 0 {
                if want > 0 {
                    self.shared.reservations_denied.fetch_add(1, Ordering::Relaxed);
                }
                return 0;
            }
            match self.shared.available.compare_exchange_weak(
                cur,
                cur - take,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return take,
                Err(now) => cur = now,
            }
        }
    }

    /// Enqueues one helper job against a previously reserved slot.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        self.shared.helpers_dispatched.fetch_add(1, Ordering::Relaxed);
        lock(&self.shared.queue).push_back(Box::new(job));
        self.shared.work_cv.notify_one();
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            threads: self.shared.threads,
            available: self.shared.available.load(Ordering::Acquire),
            helpers_dispatched: self.shared.helpers_dispatched.load(Ordering::Relaxed),
            tasks_completed: self.shared.tasks_completed.load(Ordering::Relaxed),
            parallel_morsels: self.shared.parallel_morsels.load(Ordering::Relaxed),
            panics: self.shared.panics.load(Ordering::Relaxed),
            reservations_requested: self.shared.reservations_requested.load(Ordering::Relaxed),
            reservations_denied: self.shared.reservations_denied.load(Ordering::Relaxed),
        }
    }

    fn note_panic(&self) {
        self.shared.panics.fetch_add(1, Ordering::Relaxed);
    }

    fn note_parallel_morsels(&self, n: u64) {
        self.shared.parallel_morsels.fetch_add(n, Ordering::Relaxed);
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // The flag flips under the queue lock: a worker that has read
        // `shutdown == false` still holds that lock until it parks, so it
        // cannot miss the notification below and sleep through the join.
        {
            let _queue = lock(&self.shared.queue);
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.work_cv.notify_all();
        for h in lock(&self.handles).drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                queue = shared.work_cv.wait(queue).unwrap_or_else(|poison| poison.into_inner());
            }
        };
        let Some(job) = job else { return };
        // Backstop only: scan jobs catch their own panics and surface them
        // as typed errors; anything reaching here is still contained.
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            shared.panics.fetch_add(1, Ordering::Relaxed);
        }
        shared.tasks_completed.fetch_add(1, Ordering::Relaxed);
        shared.available.fetch_add(1, Ordering::AcqRel);
    }
}

/// Reusable per-worker scan scratch: the selection vector, the decode
/// buffers the chunk layer fills with flat `u32` key lanes and `f64`
/// measure lanes (`DataChunk::key_lane` / `f64_lane`), and the grouper +
/// working partial the aggregation kernel folds into. Each driving thread
/// owns one scratch; its buffers grow to the morsel size once and are
/// reused for every morsel that thread claims, so steady-state scanning
/// allocates only each morsel's exact-size partial.
#[derive(Debug)]
pub struct MorselScratch {
    /// Selection-vector buffer for the predicate kernel.
    pub sel: Vec<u32>,
    /// Decoded key-code lanes, one slot per distinct id column of the scan.
    pub lanes: Vec<Vec<u32>>,
    /// Measure lanes for columns that need conversion (plain `f64` columns
    /// are borrowed directly and leave their slot untouched).
    pub vals: Vec<Vec<f64>>,
    /// Key → slot index over `partial`, forgotten after every morsel.
    pub grouper: Grouper,
    /// The partial aggregate of the morsel in progress.
    pub partial: Partial,
}

impl MorselScratch {
    pub fn new(layout: &KeyLayout, ops: &[AggOp]) -> Self {
        MorselScratch {
            sel: Vec::new(),
            lanes: Vec::new(),
            vals: Vec::new(),
            grouper: Grouper::for_layout(layout),
            partial: Partial::new(ops),
        }
    }

    /// Hands out the finished morsel's partial (an exact-size copy) and
    /// resets grouper and working partial for the next morsel.
    pub fn take_partial(&mut self) -> Partial {
        let out = self.partial.clone();
        self.grouper.clear(out.keys());
        self.partial.clear();
        out
    }

    /// Makes at least `lanes` key-lane slots and `vals` measure slots
    /// available (existing buffers keep their capacity).
    pub fn ensure_slots(&mut self, lanes: usize, vals: usize) {
        if self.lanes.len() < lanes {
            self.lanes.resize_with(lanes, Vec::new);
        }
        if self.vals.len() < vals {
            self.vals.resize_with(vals, Vec::new);
        }
    }
}

/// A scan the morsel driver can distribute: a read-only context shared by
/// all workers of one scan.
pub trait MorselScan: Send + Sync + 'static {
    /// Total rows to scan.
    fn n_rows(&self) -> usize;
    /// The packed layout of the scan's group keys.
    fn layout(&self) -> &KeyLayout;
    /// The aggregation operator of every measure.
    fn ops(&self) -> &[AggOp];
    /// Scans rows `lo..hi` into `scratch.partial` (through
    /// `scratch.grouper`), using the scratch's reusable selection-vector
    /// and lane-decode buffers.
    fn process(&self, lo: usize, hi: usize, scratch: &mut MorselScratch)
        -> Result<(), EngineError>;
}

/// The result of a morsel-driven scan.
#[derive(Debug)]
pub struct ScanRun {
    /// The merged partial aggregate.
    pub table: Partial,
    /// Morsels the scan was cut into.
    pub morsels: usize,
    /// Threads that actually worked the scan (helpers granted + caller).
    pub parallelism: usize,
}

struct RunState {
    n_morsels: usize,
    cursor: AtomicUsize,
    stop: AtomicBool,
    /// One slot per morsel, written once by whichever worker claimed it.
    partials: Vec<Mutex<Option<Partial>>>,
    /// The failure with the minimum morsel index seen so far
    /// (`usize::MAX` marks a worker panic, outranked by any real morsel).
    failure: Mutex<Option<(usize, EngineError)>>,
    outstanding: Mutex<usize>,
    done_cv: Condvar,
}

impl RunState {
    fn new(n_morsels: usize, helpers: usize) -> Self {
        RunState {
            n_morsels,
            cursor: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            partials: (0..n_morsels).map(|_| Mutex::new(None)).collect(),
            failure: Mutex::new(None),
            outstanding: Mutex::new(helpers),
            done_cv: Condvar::new(),
        }
    }

    fn record_failure(&self, morsel: usize, error: EngineError) {
        let mut failure = lock(&self.failure);
        match &*failure {
            Some((m, _)) if *m <= morsel => {}
            _ => *failure = Some((morsel, error)),
        }
        self.stop.store(true, Ordering::Release);
    }

    fn helper_done(&self) {
        let mut outstanding = lock(&self.outstanding);
        *outstanding -= 1;
        if *outstanding == 0 {
            self.done_cv.notify_all();
        }
    }

    fn wait_helpers(&self) {
        let mut outstanding = lock(&self.outstanding);
        while *outstanding > 0 {
            outstanding =
                self.done_cv.wait(outstanding).unwrap_or_else(|poison| poison.into_inner());
        }
    }
}

/// One worker's share of a scan: claim morsels off the shared cursor until
/// the sequence is exhausted or a failure stops the run.
fn drive<S: MorselScan>(
    ctx: &S,
    state: &RunState,
    governor: Option<&ResourceGovernor>,
    faults: Option<&FaultInjector>,
    morsel_rows: usize,
    n_rows: usize,
) {
    let mut scratch = MorselScratch::new(ctx.layout(), ctx.ops());
    loop {
        if state.stop.load(Ordering::Acquire) {
            return;
        }
        let morsel = state.cursor.fetch_add(1, Ordering::Relaxed);
        if morsel >= state.n_morsels {
            return;
        }
        // Claim-time checks run unconditionally for every claimed morsel;
        // claims form a prefix, so the minimum scheduled fault is always
        // reached and the surfaced error is deterministic.
        let claim = (|| {
            if let Some(f) = faults {
                f.check_at(FaultSite::Morsel, morsel as u64)?;
            }
            if let Some(g) = governor {
                g.check()?;
            }
            Ok(())
        })();
        if let Err(e) = claim {
            state.record_failure(morsel, e);
            return;
        }
        let lo = morsel * morsel_rows;
        let hi = (lo + morsel_rows).min(n_rows);
        match ctx.process(lo, hi, &mut scratch) {
            Ok(()) => *lock(&state.partials[morsel]) = Some(scratch.take_partial()),
            Err(e) => {
                state.record_failure(morsel, e);
                return;
            }
        }
    }
}

/// Runs a morsel-driven scan at up to `threads` degree of parallelism
/// (caller + up to `threads − 1` pool helpers), merging per-morsel partial
/// aggregates in morsel order. With `threads <= 1` or no pool capacity the
/// scan runs entirely on the calling thread through the same code path.
pub fn run_morsels<S: MorselScan>(
    pool: Option<&Arc<WorkerPool>>,
    threads: usize,
    morsel_rows: usize,
    ctx: Arc<S>,
    governor: Option<Arc<ResourceGovernor>>,
    faults: Option<Arc<FaultInjector>>,
) -> Result<ScanRun, EngineError> {
    let n_rows = ctx.n_rows();
    let morsel_rows = morsel_rows.max(1);
    let n_morsels = n_rows.div_ceil(morsel_rows);
    if n_morsels == 0 {
        return Ok(ScanRun { table: Partial::new(ctx.ops()), morsels: 0, parallelism: 1 });
    }
    let want = threads.saturating_sub(1).min(n_morsels - 1);
    let granted = match pool {
        Some(p) if want > 0 => p.try_reserve(want),
        _ => 0,
    };
    let state = Arc::new(RunState::new(n_morsels, granted));
    if granted > 0 {
        let p = pool.expect("granted helpers imply a pool");
        for _ in 0..granted {
            let ctx = ctx.clone();
            let state = state.clone();
            let governor = governor.clone();
            let faults = faults.clone();
            let pool = p.clone();
            p.submit(move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    drive(
                        &*ctx,
                        &state,
                        governor.as_deref(),
                        faults.as_deref(),
                        morsel_rows,
                        n_rows,
                    )
                }));
                if outcome.is_err() {
                    pool.note_panic();
                    state.record_failure(usize::MAX, EngineError::WorkerPanicked);
                }
                state.helper_done();
            });
        }
        p.note_parallel_morsels(n_morsels as u64);
    }
    // The caller participates too, with the same panic containment as the
    // helpers so the surfaced error does not depend on which thread claims
    // the offending morsel.
    let caller = catch_unwind(AssertUnwindSafe(|| {
        drive(&*ctx, &state, governor.as_deref(), faults.as_deref(), morsel_rows, n_rows)
    }));
    if caller.is_err() {
        state.record_failure(usize::MAX, EngineError::WorkerPanicked);
    }
    state.wait_helpers();

    if let Some((_, e)) = lock(&state.failure).take() {
        return Err(e);
    }
    let mut ordered = state.partials.iter().map(|slot| lock(slot).take());
    let mut table = ordered.next().flatten().expect("every morsel produced a partial");
    if n_morsels > 1 {
        let mut grouper = Grouper::over(ctx.layout(), table.keys());
        for partial in ordered {
            table.merge(&mut grouper, &partial.expect("every morsel produced a partial"));
        }
    }
    Ok(ScanRun { table, morsels: n_morsels, parallelism: granted + 1 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::accumulate_chunk;

    /// A synthetic scan: rows 0..n, key = row % groups, value = row.
    struct TestScan {
        n: usize,
        /// The identity roll-up over the group codes.
        groups: Vec<u32>,
        layout: KeyLayout,
        panic_at: Option<usize>,
        fail_at: Option<usize>,
    }

    impl TestScan {
        fn new(n: usize, groups: u64) -> Self {
            let layout = KeyLayout::for_cardinalities(&[groups as usize]);
            TestScan {
                n,
                groups: (0..groups as u32).collect(),
                layout,
                panic_at: None,
                fail_at: None,
            }
        }
    }

    impl MorselScan for TestScan {
        fn n_rows(&self) -> usize {
            self.n
        }
        fn layout(&self) -> &KeyLayout {
            &self.layout
        }
        fn ops(&self) -> &[AggOp] {
            &[AggOp::Sum]
        }
        fn process(
            &self,
            lo: usize,
            hi: usize,
            scratch: &mut MorselScratch,
        ) -> Result<(), EngineError> {
            if self.panic_at.is_some_and(|row| (lo..hi).contains(&row)) {
                panic!("synthetic worker panic");
            }
            if self.fail_at.is_some_and(|row| (lo..hi).contains(&row)) {
                return Err(EngineError::Unsupported("synthetic failure".into()));
            }
            let codes: Vec<u32> = (lo..hi).map(|row| (row % self.groups.len()) as u32).collect();
            let values: Vec<f64> = (lo..hi).map(|row| row as f64).collect();
            let MorselScratch { grouper, partial, .. } = scratch;
            let keys = [(&codes[..], &self.groups[..])];
            accumulate_chunk(partial, grouper, &self.layout, hi - lo, None, keys, [&values[..]]);
            Ok(())
        }
    }

    fn run(
        pool: Option<&Arc<WorkerPool>>,
        threads: usize,
        morsel_rows: usize,
        scan: TestScan,
    ) -> Result<ScanRun, EngineError> {
        run_morsels(pool, threads, morsel_rows, Arc::new(scan), None, None)
    }

    fn finished(run: ScanRun) -> (Vec<u64>, Vec<f64>) {
        let (keys, mut cols) = run.table.finish();
        (keys, cols.remove(0))
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let serial = finished(run(None, 1, 13, TestScan::new(1000, 7)).unwrap());
        let pool = Arc::new(WorkerPool::new(3));
        for threads in [2, 4, 8] {
            let par = finished(run(Some(&pool), threads, 13, TestScan::new(1000, 7)).unwrap());
            assert_eq!(serial, par, "threads = {threads}");
        }
    }

    #[test]
    fn caller_runs_alone_when_pool_is_exhausted() {
        let pool = Arc::new(WorkerPool::new(2));
        assert_eq!(pool.try_reserve(2), 2, "drain the pool");
        let out = run(Some(&pool), 4, 10, TestScan::new(100, 3)).unwrap();
        assert_eq!(out.parallelism, 1, "no helpers free → serial");
        assert_eq!(out.morsels, 10);
        // Hand the reserved slots back by running empty jobs through them.
        pool.submit(|| {});
        pool.submit(|| {});
    }

    #[test]
    fn worker_panic_surfaces_as_typed_error() {
        let pool = Arc::new(WorkerPool::new(2));
        let mut scan = TestScan::new(400, 3);
        scan.panic_at = Some(399);
        let err = run(Some(&pool), 3, 10, scan).unwrap_err();
        assert_eq!(err, EngineError::WorkerPanicked);
        // The pool survives and keeps working.
        let ok = run(Some(&pool), 3, 10, TestScan::new(400, 3)).unwrap();
        assert_eq!(ok.morsels, 40);
    }

    #[test]
    fn minimum_morsel_failure_wins() {
        // Failure in morsel 25 (row 250); whichever worker hits it, the
        // surfaced error is the same.
        let pool = Arc::new(WorkerPool::new(3));
        let mut expected: Option<String> = None;
        for _ in 0..8 {
            let mut scan = TestScan::new(400, 3);
            scan.fail_at = Some(250);
            let err = run(Some(&pool), 4, 10, scan).unwrap_err().to_string();
            match &expected {
                Some(e) => assert_eq!(e, &err),
                None => expected = Some(err),
            }
        }
    }

    #[test]
    fn zero_rows_and_zero_threads_are_fine() {
        let out = run(None, 0, 16, TestScan::new(0, 3)).unwrap();
        assert_eq!(out.morsels, 0);
        assert!(out.table.is_empty());
        let pool = Arc::new(WorkerPool::new(0));
        let out = run(Some(&pool), 4, 16, TestScan::new(64, 3)).unwrap();
        assert_eq!(out.parallelism, 1);
        assert_eq!(out.morsels, 4);
    }

    #[test]
    fn dropping_a_fresh_pool_never_loses_the_shutdown_wakeup() {
        // Workers are still on their way to the condvar when the drop
        // lands, which is the window the shutdown flag used to slip through.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let dropper = std::thread::spawn(move || {
            for _ in 0..4000 {
                drop(WorkerPool::new(4));
            }
            let _ = done_tx.send(());
        });
        let verdict = done_rx.recv_timeout(std::time::Duration::from_secs(120));
        assert!(verdict.is_ok(), "WorkerPool::drop hung joining a parked worker");
        dropper.join().expect("the drop loop finished cleanly");
    }

    #[test]
    fn stats_count_dispatch_and_completion() {
        let pool = Arc::new(WorkerPool::new(2));
        run(Some(&pool), 3, 5, TestScan::new(500, 5)).unwrap();
        // Helpers have all signalled completion before run_morsels returns;
        // the worker loop's own bookkeeping may trail by an instant.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let s = pool.stats();
            if s.tasks_completed == s.helpers_dispatched && s.available == s.threads {
                assert!(s.helpers_dispatched <= 2);
                assert_eq!(s.parallel_morsels, 100);
                break;
            }
            assert!(std::time::Instant::now() < deadline, "pool counters never settled");
            std::thread::yield_now();
        }
    }
}
