//! The cold-path I/O stage: request-coalescing asynchronous fetch between
//! the buffer pool and the [`PageStore`](crate::PageStore).
//!
//! A pool miss no longer reads the store inline. Instead the pinning thread
//! installs its single-flight `Loading` slot as before, then submits a
//! [`FetchRequest`] to a bounded two-class queue and parks on a completion
//! *ticket*. Scans submit their upcoming pages as whole prefetch *runs*
//! (`BufferPool::prefetch_submit`), pushed under one queue lock with one
//! wakeup. A small worker pool drains the queue in batches, sorts each
//! batch by `(chain, page_no)`, and **coalesces adjacent page numbers into
//! one ranged [`read_pages`](crate::PageStore::read_pages) call** — so a
//! run, or a cold sweep whose misses arrive from many scan workers, pays
//! one store call per range of consecutive pages instead of one per page.
//!
//! Every request still completes *individually*: per-page CRC verification
//! happens inside the store's ranged read, a transient fault on one page of
//! a batch re-enters the pool's [`RetryPolicy`](crate::RetryPolicy) for
//! that page alone, and a corrupt page quarantines only itself. The
//! completion protocol is exactly the inline pool's publish sequence
//! (insert `Resident`, publish the load state, then resolve the ticket), so
//! single-flight waiters become completion subscribers without code changes.
//!
//! Two deadline classes order the queue: `Urgent` (a thread is parked on
//! the ticket) always pops before `Prefetch` (advisory, droppable). The
//! prefetch side is bounded; the tail of a run beyond the cap is
//! *cancelled* — the submitter withdraws those `Loading` slots and
//! publishes them so any pin that joined in the meantime re-inspects and
//! loads itself.
//!
//! Lock ranks: the queue mutex is rank `IoQueue` (3), below every pool
//! lock, and is never held across a store call; tickets are rank `IoTicket`
//! (6) and are waited on with no other lock held. Under the `payg_check`
//! model-check cfg the stage degrades to inline fetches (no unmanaged
//! threads race the explored schedule).

use crate::pool::{Frame, LoadState, PoolInner, Slot};
use crate::sync::{Condvar, LockRank, Mutex};
use crate::{FaultClass, PageKey, StorageResult};
use payg_obs::{EventKind, SpanKind};
use std::collections::VecDeque;
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;

/// Tuning for the cold-path I/O stage. [`Default`] matches
/// [`PoolConfig::default`](crate::PoolConfig): two workers, 16-page
/// batches, a 256-entry prefetch backlog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoStageConfig {
    /// I/O worker threads draining the submission queue. `0` disables the
    /// stage (misses fetch inline, exactly the pre-stage pool).
    pub workers: usize,
    /// Maximum requests popped (and thus coalesced) per worker wakeup.
    pub max_batch: usize,
    /// Prefetch-class backlog bound; submissions beyond it are cancelled.
    /// Urgent requests are never dropped.
    pub queue_cap: usize,
}

impl Default for IoStageConfig {
    fn default() -> Self {
        IoStageConfig { workers: 2, max_batch: 16, queue_cap: 256 }
    }
}

/// Urgency of one fetch request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineClass {
    /// A pinning thread is parked on the completion; pops before any
    /// prefetch and is never dropped.
    Urgent,
    /// Advisory read-ahead: droppable when the backlog is full, completes
    /// by leaving the frame resident and unpinned.
    Prefetch,
}

/// How a completed fetch is delivered.
pub(crate) enum Completion {
    /// A pin is parked on this ticket; resolve it with the pinned frame or
    /// the raw load error.
    Ticket(Arc<Ticket>),
    /// Advisory: leave the frame resident, release the registration pin.
    Advisory,
}

/// One queued cold-path fetch.
pub(crate) struct FetchRequest {
    pub key: PageKey,
    pub class: DeadlineClass,
    /// The single-flight slot this request owns; completion publishes or
    /// fails it (with the usual pointer-identity ABA guard).
    pub ls: Arc<LoadState>,
    pub completion: Completion,
    /// Originating span id (0 = none), captured at submit time on the
    /// pinning/prefetching thread. Completions tag their events with it so
    /// a coalesced batch records *every* beneficiary query, not just the
    /// one whose miss triggered the physical read.
    pub span: u64,
}

enum TicketState {
    Pending,
    Done(StorageResult<Arc<Frame>>),
}

/// Completion latch between a submitting pin and the worker resolving it.
/// A resolved `Ok` carries the frame *with its registration pin still
/// held*: the submitter turns it into a `PageGuard` without a pin/evict
/// race, exactly like the inline load path.
pub(crate) struct Ticket {
    state: Mutex<TicketState>,
    cv: Condvar,
}

impl Ticket {
    pub fn new() -> Arc<Self> {
        Arc::new(Ticket {
            state: Mutex::with_rank(TicketState::Pending, LockRank::IoTicket),
            cv: Condvar::new(),
        })
    }

    fn resolve(&self, result: StorageResult<Arc<Frame>>) {
        *self.state.lock() = TicketState::Done(result);
        self.cv.notify_all();
    }

    /// Blocks until the worker resolves this ticket.
    pub fn wait(&self) -> StorageResult<Arc<Frame>> {
        let mut state = self.state.lock();
        loop {
            match std::mem::replace(&mut *state, TicketState::Pending) {
                TicketState::Pending => self.cv.wait(&mut state),
                TicketState::Done(result) => return result,
            }
        }
    }
}

struct QueueState {
    urgent: VecDeque<FetchRequest>,
    prefetch: VecDeque<FetchRequest>,
    closed: bool,
}

/// The two-class bounded submission queue.
struct IoQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
    prefetch_cap: usize,
}

impl IoQueue {
    fn new(prefetch_cap: usize) -> Arc<Self> {
        Arc::new(IoQueue {
            state: Mutex::with_rank(
                QueueState { urgent: VecDeque::new(), prefetch: VecDeque::new(), closed: false },
                LockRank::IoQueue,
            ),
            cv: Condvar::new(),
            prefetch_cap,
        })
    }

    /// Enqueues an urgent request (always accepted); returns the queue
    /// depth after the push.
    fn push_urgent(&self, req: FetchRequest) -> usize {
        let mut st = self.state.lock();
        st.urgent.push_back(req);
        let depth = st.urgent.len() + st.prefetch.len();
        self.cv.notify_one();
        depth
    }

    /// Enqueues a prefetch run under one lock with one wakeup, so a single
    /// worker pops it together. Accepts the longest prefix the backlog has
    /// room for and hands the tail back (the whole run once the stage is
    /// shutting down) for the caller to cancel. Returns the queue depth
    /// after the push and the shed tail.
    fn push_prefetch_run(&self, mut run: Vec<FetchRequest>) -> (usize, Vec<FetchRequest>) {
        let mut st = self.state.lock();
        let room = if st.closed { 0 } else { self.prefetch_cap.saturating_sub(st.prefetch.len()) };
        let shed = run.split_off(room.min(run.len()));
        if !run.is_empty() {
            st.prefetch.extend(run);
            self.cv.notify_one();
        }
        (st.urgent.len() + st.prefetch.len(), shed)
    }

    /// Pops up to `max` requests, urgent class first. Blocks while the
    /// queue is empty; returns `None` once closed *and* drained.
    fn pop_batch(&self, max: usize) -> Option<Vec<FetchRequest>> {
        let mut st = self.state.lock();
        loop {
            if st.urgent.is_empty() && st.prefetch.is_empty() {
                if st.closed {
                    return None;
                }
                self.cv.wait(&mut st);
                continue;
            }
            let mut out = Vec::new();
            while out.len() < max {
                if let Some(r) = st.urgent.pop_front() {
                    out.push(r);
                } else if let Some(r) = st.prefetch.pop_front() {
                    out.push(r);
                } else {
                    break;
                }
            }
            return Some(out);
        }
    }

    fn close(&self) {
        self.state.lock().closed = true;
        self.cv.notify_all();
    }
}

/// A running I/O stage: the queue plus its worker threads. Owned by
/// `PoolInner`; dropping it closes the queue and joins the workers.
pub(crate) struct IoStage {
    queue: Arc<IoQueue>,
    workers: Vec<JoinHandle<()>>,
    /// Requests one worker pops per wakeup: the longest prefetch run that
    /// is read together.
    pub max_batch: usize,
}

impl IoStage {
    /// Starts the stage, or returns `None` when it is configured off
    /// (`workers == 0`) or the build is a `payg_check` model check — the
    /// deterministic scheduler must not race unmanaged worker threads, so
    /// model builds always fetch inline.
    pub fn start(pool: &Weak<PoolInner>, config: IoStageConfig) -> Option<IoStage> {
        let workers = if cfg!(payg_check) { 0 } else { config.workers };
        if workers == 0 {
            return None;
        }
        let queue = IoQueue::new(config.queue_cap.max(1));
        let max_batch = config.max_batch.max(1);
        let handles = (0..workers)
            .map(|i| {
                let queue = Arc::clone(&queue);
                let pool = Weak::clone(pool);
                std::thread::Builder::new()
                    .name(format!("payg-io-{i}"))
                    .spawn(move || worker_loop(&pool, &queue, max_batch))
                    // lint: allow(unwrap) invariant: thread spawn fails only on OS resource exhaustion
                    .expect("spawn io-stage worker")
            })
            .collect();
        Some(IoStage { queue, workers: handles, max_batch })
    }

    /// Submits an urgent request; it is always accepted. Returns the queue
    /// depth after the push.
    pub fn submit_urgent(&self, req: FetchRequest) -> usize {
        debug_assert_eq!(req.class, DeadlineClass::Urgent);
        self.queue.push_urgent(req)
    }

    /// Submits a run of prefetch requests in one push; the tail the backlog
    /// has no room for is handed back for cancellation. Returns the queue
    /// depth after the push and the shed tail.
    pub fn submit_prefetch_run(&self, run: Vec<FetchRequest>) -> (usize, Vec<FetchRequest>) {
        debug_assert!(run.iter().all(|r| r.class == DeadlineClass::Prefetch));
        self.queue.push_prefetch_run(run)
    }
}

impl Drop for IoStage {
    fn drop(&mut self) {
        self.queue.close();
        let me = std::thread::current().id();
        for handle in self.workers.drain(..) {
            // A worker can run the pool's final drop (it held the last
            // upgraded Arc): it must not join itself — the queue is closed,
            // so its own loop exits right after this drop returns.
            if handle.thread().id() == me {
                continue;
            }
            let _ = handle.join();
        }
    }
}

fn worker_loop(pool: &Weak<PoolInner>, queue: &Arc<IoQueue>, max_batch: usize) {
    while let Some(batch) = queue.pop_batch(max_batch) {
        let Some(pool) = pool.upgrade() else {
            // Pool destruction in progress: no ticket can exist (tickets
            // are only held by live pins), so leftover advisory requests
            // are simply dropped.
            continue;
        };
        process_batch(&pool, batch);
    }
}

/// Sorts a popped batch by `(chain, page_no)` and fetches each run of
/// consecutive pages with one ranged read.
fn process_batch(pool: &Arc<PoolInner>, mut batch: Vec<FetchRequest>) {
    batch.sort_by_key(|r| (r.key.chain.0, r.key.page_no));
    let mut runs: Vec<usize> = Vec::new();
    let mut start = 0usize;
    for i in 1..batch.len() {
        let prev = batch[i - 1].key;
        let cur = batch[i].key;
        if cur.chain != prev.chain || cur.page_no != prev.page_no.wrapping_add(1) {
            runs.push(i - start);
            start = i;
        }
    }
    if !batch.is_empty() {
        runs.push(batch.len() - start);
    }
    let mut it = batch.into_iter();
    for len in runs {
        let run: Vec<FetchRequest> = it.by_ref().take(len).collect();
        process_run(pool, run);
    }
}

/// One physical read covering `run` (consecutive pages of one chain), then
/// per-request completion. A transient fault on one page re-enters the
/// retry policy for that page alone; other pages of the batch are
/// unaffected.
fn process_run(pool: &Arc<PoolInner>, run: Vec<FetchRequest>) {
    let first = run[0].key;
    let n = run.len();
    pool.metrics.io_physical_reads.inc();
    pool.metrics.io_batch_pages.record(n as u64);
    if n > 1 {
        pool.metrics.io_coalesced.add(n as u64);
    }
    // The batch span covers just the physical read; its id doubles as the
    // batch id carried in `aux` by IoBatchIssued and every IoCompleted of
    // the run, so a drained log can tell batches *joined* (my page rode a
    // read initiated by another query's span) from batches *initiated*.
    // Parentage goes to the run's first request by page order.
    let batch_span = pool.tracer.span_with_parent(SpanKind::IoBatch, run[0].span, n as u64);
    let batch_id = batch_span.id();
    pool.tracer.emit_tagged(
        EventKind::IoBatchIssued,
        first.chain.0,
        first.page_no,
        n as u64,
        run[0].span,
        batch_id,
    );
    // Charge the read against the memory footprint while it is in flight;
    // on success the bytes transfer to the registered frame resources.
    let expected = pool.store.page_size(first.chain).unwrap_or(0) * n;
    pool.resman.begin_inflight(expected);
    pool.io.apply_read();
    let results = pool.store.read_pages(first.chain, first.page_no, n);
    pool.resman.end_inflight(expected);
    // Close the read span before per-request completion so the plain emits
    // inside admit_frame do not adopt the batch span: per-request
    // attribution belongs to each request's own originating span.
    drop(batch_span);
    debug_assert_eq!(results.len(), n, "read_pages must return one result per page");
    for (req, result) in run.into_iter().zip(results) {
        let outcome = match result {
            Ok(data) => Ok(data),
            Err(e) => {
                // The ranged read was this page's attempt 1: count its
                // fault, then continue the per-page retry loop if the
                // policy has attempts left and the fault is transient.
                pool.metrics.fault_counter(e.fault_class()).inc();
                if e.is_transient() && pool.retry.max_attempts > 1 {
                    pool.metrics.load_retries.inc();
                    pool.tracer.emit_tagged(
                        EventKind::LoadRetried,
                        req.key.chain.0,
                        req.key.page_no,
                        1,
                        req.span,
                        batch_id,
                    );
                    let backoff = pool.retry.backoff_for(1);
                    if !backoff.is_zero() {
                        (pool.sleeper)(backoff);
                    }
                    fetch_with_retry(pool, req.key, 1, true, req.span)
                } else {
                    Err(e)
                }
            }
        };
        complete(pool, req, outcome, batch_id);
    }
}

/// The store-read loop with transient retry — the single place in the pool
/// stack that calls [`read_page`](crate::PageStore::read_page). `attempt`
/// is how many attempts already failed (0 for a fresh inline fetch);
/// `staged` makes each read count as an I/O-stage physical read. `span` is
/// the originating request's span, tagged onto retry events.
pub(crate) fn fetch_with_retry(
    pool: &PoolInner,
    key: PageKey,
    mut attempt: u32,
    staged: bool,
    span: u64,
) -> StorageResult<Box<[u8]>> {
    loop {
        attempt += 1;
        if staged {
            pool.metrics.io_physical_reads.inc();
        }
        pool.io.apply_read();
        match pool.store.read_page(key) {
            Ok(data) => return Ok(data),
            Err(e) => {
                pool.metrics.fault_counter(e.fault_class()).inc();
                if e.is_transient() && attempt < pool.retry.max_attempts {
                    pool.metrics.load_retries.inc();
                    pool.tracer.emit_tagged(
                        EventKind::LoadRetried,
                        key.chain.0,
                        key.page_no,
                        staged as u64,
                        span,
                        0,
                    );
                    let backoff = pool.retry.backoff_for(attempt);
                    if !backoff.is_zero() {
                        (pool.sleeper)(backoff);
                    }
                    continue;
                }
                return Err(e);
            }
        }
    }
}

/// Completes one request: the inline pool's exact publish/fail sequence,
/// then ticket resolution or the advisory unpin. `batch` is the coalesced
/// read's batch id, tagged onto the completion event so every beneficiary
/// request records which physical read served it.
fn complete(pool: &Arc<PoolInner>, req: FetchRequest, outcome: StorageResult<Box<[u8]>>, batch: u64) {
    match outcome {
        Ok(data) => {
            let bytes = data.len() as u64;
            let frame = pool.admit_frame(req.key, data);
            pool.shard(req.key)
                .lock()
                .slots
                .insert(req.key, Slot::Resident(Arc::clone(&frame)));
            // Count the completion before publishing: the publish wakes the
            // submitter, which may read the metrics immediately.
            pool.metrics.io_completions.inc();
            pool.tracer.emit_tagged(
                EventKind::IoCompleted,
                req.key.chain.0,
                req.key.page_no,
                bytes,
                req.span,
                batch,
            );
            req.ls.publish();
            match req.completion {
                // The registration pin rides the ticket to the submitter.
                Completion::Ticket(ticket) => ticket.resolve(Ok(frame)),
                Completion::Advisory => pool.resman.unpin(frame.rid()),
            }
        }
        Err(err) => {
            let shared = err.to_shared();
            {
                let mut state = pool.shard(req.key).lock();
                // Remove our load state so later pins retry; the pointer
                // check guards against ABA with a newer load.
                if matches!(
                    state.slots.get(&req.key),
                    Some(Slot::Loading(cur)) if Arc::ptr_eq(cur, &req.ls)
                ) {
                    state.slots.remove(&req.key);
                }
                if err.fault_class() == FaultClass::Corrupt {
                    pool.quarantine(&mut state, req.key, Arc::clone(&shared));
                }
            }
            // Count the completion, then wake waiters with the actual error
            // after the slot update so none of them can observe a stale
            // Loading entry (or a completion count behind their own wakeup).
            pool.metrics.io_completions.inc();
            pool.tracer.emit_tagged(
                EventKind::IoCompleted,
                req.key.chain.0,
                req.key.page_no,
                0,
                req.span,
                batch,
            );
            req.ls.fail(shared);
            match req.completion {
                Completion::Ticket(ticket) => ticket.resolve(Err(err)),
                Completion::Advisory => {}
            }
        }
    }
}
