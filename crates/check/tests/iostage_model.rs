//! Model checks of the cold-path I/O stage's submit/complete/cancel
//! protocol.
//!
//! `MiniStage` ports `payg-storage::iostage`'s request protocol onto the
//! modeled primitives: pool misses install a single-flight `Loading`
//! placeholder and submit a fetch request to a bounded queue, a worker
//! drains the queue in batches (one physical read per batch — the
//! coalescing step), and completes each request individually — publish on
//! success, fail + quarantine on corruption. Prefetches are submitted as
//! runs: placeholders for the whole run first, then one queue push of the
//! prefix the backlog has room for. The shed tail is *cancelled*: the
//! submitter removes its own placeholders and broadcasts, so pins that
//! joined them re-inspect the map instead of waiting forever. The checker
//! explores interleavings and proves:
//!
//! * a shed prefetch never strands a joined waiter — every schedule
//!   terminates and the page still loads, exactly once,
//! * a partly shed run reads every key exactly once, whether a demand pin
//!   joins the run's placeholder, loads a shed page itself, or gets there
//!   first,
//! * demand pins racing a staged prefetch coalesce onto one physical
//!   read (single-flight holds through the stage),
//! * one corrupt page inside a coalesced batch fails only its own
//!   request: neighbours publish, the bad key quarantines, and the two
//!   states are never simultaneous.

use payg_check::sync::{Condvar, Mutex};
use payg_check::{thread, Checker};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const BOUND: usize = 2000;
/// Fail-fast pins a quarantine entry absorbs before the store is retried.
const QUARANTINE_TTL: usize = 2;

fn page_byte(key: u32) -> u8 {
    key as u8 ^ 0xA5
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum PinOutcome {
    Resident(u8),
    /// Served from quarantine without a store read.
    FailFast,
    /// This pin waited on a staged load that failed.
    WaitFailed,
}

struct LoadState {
    /// `None` = in flight, `Some(true)` = published, `Some(false)` = failed.
    outcome: Mutex<Option<bool>>,
    cv: Condvar,
}

impl LoadState {
    fn new() -> Arc<Self> {
        Arc::new(LoadState { outcome: Mutex::new(None), cv: Condvar::new() })
    }

    fn settle(&self, published: bool) {
        *self.outcome.lock() = Some(published);
        self.cv.notify_all();
    }

    /// Returns `true` when the load failed; `false` means published (or
    /// cancelled — the caller re-inspects the map either way).
    fn wait(&self) -> bool {
        let mut o = self.outcome.lock();
        while o.is_none() {
            self.cv.wait(&mut o);
        }
        *o == Some(false)
    }
}

enum Slot {
    /// In flight; `true` when a prefetch run installed the placeholder.
    Loading(Arc<LoadState>, bool),
    Resident(u8),
}

struct MapState {
    map: BTreeMap<u32, Slot>,
    quarantine: BTreeMap<u32, usize>,
}

struct QueueState {
    /// `(key, load, prefetch)`: only prefetch entries count against the
    /// backlog cap.
    pending: Vec<(u32, Arc<LoadState>, bool)>,
    closed: bool,
}

/// The stage's submission queue plus the pool map it completes into.
struct MiniStage {
    state: Mutex<MapState>,
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    /// Prefetch submissions beyond this many pending requests are shed.
    prefetch_cap: usize,
    /// Physical reads issued (one per popped batch — the coalescing step).
    reads: Mutex<usize>,
    /// Completed reads per key.
    key_reads: Mutex<BTreeMap<u32, usize>>,
    /// Pins that waited on a placeholder a prefetch run installed.
    run_joins: Mutex<usize>,
    /// Keys whose read returns corrupt instead of the page byte.
    corrupt: Vec<u32>,
    ttl: usize,
}

impl MiniStage {
    fn new(prefetch_cap: usize, corrupt: Vec<u32>) -> Self {
        MiniStage {
            state: Mutex::new(MapState { map: BTreeMap::new(), quarantine: BTreeMap::new() }),
            queue: Mutex::new(QueueState { pending: Vec::new(), closed: false }),
            queue_cv: Condvar::new(),
            prefetch_cap,
            reads: Mutex::new(0),
            key_reads: Mutex::new(BTreeMap::new()),
            run_joins: Mutex::new(0),
            corrupt,
            ttl: QUARANTINE_TTL,
        }
    }

    fn reads(&self) -> usize {
        *self.reads.lock()
    }

    fn key_reads(&self, key: u32) -> usize {
        self.key_reads.lock().get(&key).copied().unwrap_or(0)
    }

    fn resident(&self, key: u32) -> Option<u8> {
        match self.state.lock().map.get(&key) {
            Some(Slot::Resident(b)) => Some(*b),
            _ => None,
        }
    }

    fn quarantined(&self, key: u32) -> bool {
        self.state.lock().quarantine.contains_key(&key)
    }

    /// Enqueue an urgent request the worker must complete; never shed.
    fn enqueue_urgent(&self, key: u32, ls: &Arc<LoadState>) {
        let mut q = self.queue.lock();
        assert!(!q.closed, "submit after close");
        q.pending.push((key, Arc::clone(ls), false));
        self.queue_cv.notify_all();
    }

    /// `BufferPool::prefetch_submit`'s run protocol: install a placeholder
    /// for every key not already present, push the prefix the backlog has
    /// room for under one queue lock with one wakeup, then *cancel* the
    /// shed tail — remove our own placeholders and broadcast so joined
    /// pins re-inspect. Returns how many keys were queued.
    fn prefetch_submit(&self, keys: &[u32]) -> usize {
        let mut run = Vec::new();
        for &key in keys {
            let mut st = self.state.lock();
            if st.quarantine.contains_key(&key) || st.map.contains_key(&key) {
                continue;
            }
            let ls = LoadState::new();
            st.map.insert(key, Slot::Loading(Arc::clone(&ls), true));
            run.push((key, ls));
        }
        let shed = {
            let mut q = self.queue.lock();
            assert!(!q.closed, "submit after close");
            let queued = q.pending.iter().filter(|(_, _, prefetch)| *prefetch).count();
            let room = self.prefetch_cap.saturating_sub(queued);
            let shed = run.split_off(room.min(run.len()));
            if !run.is_empty() {
                q.pending.extend(run.iter().map(|(key, ls)| (*key, Arc::clone(ls), true)));
                self.queue_cv.notify_all();
            }
            shed
        };
        for (key, ls) in &shed {
            {
                let mut st = self.state.lock();
                match st.map.get(key) {
                    Some(Slot::Loading(cur, _)) if Arc::ptr_eq(cur, ls) => {
                        st.map.remove(key);
                    }
                    _ => panic!("cancelled prefetch's placeholder was stolen"),
                }
            }
            ls.settle(true);
        }
        run.len()
    }

    /// `BufferPool::pin` over the staged urgent path: quarantine gate,
    /// then single-flight — loaders submit urgent and wait like any other
    /// completion subscriber.
    fn pin(&self, key: u32) -> PinOutcome {
        loop {
            let ls = {
                let mut st = self.state.lock();
                if st.quarantine.contains_key(&key) {
                    assert!(
                        !matches!(st.map.get(&key), Some(Slot::Resident(_))),
                        "quarantined key is resident"
                    );
                    let left = st.quarantine.get_mut(&key).unwrap();
                    *left -= 1;
                    if *left == 0 {
                        st.quarantine.remove(&key);
                    }
                    return PinOutcome::FailFast;
                }
                match st.map.get(&key) {
                    Some(Slot::Resident(byte)) => return PinOutcome::Resident(*byte),
                    Some(Slot::Loading(ls, from_run)) => {
                        if *from_run {
                            *self.run_joins.lock() += 1;
                        }
                        Arc::clone(ls)
                    }
                    None => {
                        let ls = LoadState::new();
                        st.map.insert(key, Slot::Loading(Arc::clone(&ls), false));
                        self.enqueue_urgent(key, &ls);
                        ls
                    }
                }
            };
            if ls.wait() {
                return PinOutcome::WaitFailed;
            }
            // Published or cancelled: the loop re-inspects the map — a
            // cancelled prefetch leaves it empty and this pin becomes the
            // loader.
        }
    }

    /// The I/O worker: pop everything pending as one batch, charge one
    /// physical read for it, then complete each request individually.
    fn worker(&self) {
        loop {
            let batch = {
                let mut q = self.queue.lock();
                loop {
                    if !q.pending.is_empty() {
                        break std::mem::take(&mut q.pending);
                    }
                    if q.closed {
                        return;
                    }
                    self.queue_cv.wait(&mut q);
                }
            };
            *self.reads.lock() += 1;
            for (key, ls, _) in batch {
                *self.key_reads.lock().entry(key).or_insert(0) += 1;
                let ok = !self.corrupt.contains(&key);
                {
                    let mut st = self.state.lock();
                    if ok {
                        assert!(
                            !st.quarantine.contains_key(&key),
                            "published a frame for a quarantined key"
                        );
                        match st.map.get(&key) {
                            Some(Slot::Loading(cur, _)) if Arc::ptr_eq(cur, &ls) => {
                                st.map.insert(key, Slot::Resident(page_byte(key)));
                            }
                            _ => panic!("completing request's placeholder was stolen"),
                        }
                    } else {
                        match st.map.get(&key) {
                            Some(Slot::Loading(cur, _)) if Arc::ptr_eq(cur, &ls) => {
                                st.map.remove(&key);
                            }
                            _ => panic!("failing request's placeholder was stolen"),
                        }
                        let prev = st.quarantine.insert(key, self.ttl);
                        assert!(prev.is_none(), "double quarantine insert for one failure");
                    }
                }
                ls.settle(ok);
            }
        }
    }

    fn close(&self) {
        self.queue.lock().closed = true;
        self.queue_cv.notify_all();
    }
}

/// Runs `body` with a live worker thread, closing the queue and joining
/// the worker before returning.
fn with_worker(stage: &Arc<MiniStage>, body: impl FnOnce()) {
    let w = {
        let s = Arc::clone(stage);
        thread::spawn(move || s.worker())
    };
    body();
    stage.close();
    w.join().expect("worker thread");
}

#[test]
fn shed_prefetch_never_strands_a_joined_waiter() {
    // Capacity 0: every prefetch submission is shed and must cancel. A
    // racing pin may join the doomed placeholder — the cancel broadcast
    // must wake it, and it must become the loader itself. Every schedule
    // terminates with the page resident after exactly one physical read.
    const KEY: u32 = 3;
    let report = Checker::exhaustive().max_iterations(BOUND).check(|| {
        let stage = Arc::new(MiniStage::new(0, Vec::new()));
        with_worker(&stage, || {
            let prefetcher = {
                let s = Arc::clone(&stage);
                thread::spawn(move || s.prefetch_submit(&[KEY]))
            };
            let pinner = {
                let s = Arc::clone(&stage);
                thread::spawn(move || s.pin(KEY))
            };
            let accepted = prefetcher.join().expect("model thread");
            assert_eq!(accepted, 0, "capacity 0 accepted a prefetch");
            let outcome = pinner.join().expect("model thread");
            assert_eq!(outcome, PinOutcome::Resident(page_byte(KEY)));
        });
        assert_eq!(stage.reads(), 1, "the demand pin loads the page exactly once");
        assert_eq!(stage.resident(KEY), Some(page_byte(KEY)));
    });
    assert!(report.failure.is_none(), "unexpected failure: {:?}", report.failure);
    assert!(
        report.iterations >= 500,
        "expected >= 500 distinct interleavings, got {}",
        report.iterations
    );
}

#[test]
fn demand_pins_racing_a_prefetch_share_one_read() {
    // Whoever installs the placeholder first (prefetcher or either pin),
    // the others must subscribe to its completion: one queue entry, one
    // physical read, identical bytes for both pins.
    const KEY: u32 = 5;
    let report = Checker::exhaustive().max_iterations(BOUND).check(|| {
        let stage = Arc::new(MiniStage::new(8, Vec::new()));
        with_worker(&stage, || {
            let prefetcher = {
                let s = Arc::clone(&stage);
                thread::spawn(move || s.prefetch_submit(&[KEY]))
            };
            let pins: Vec<_> = (0..2)
                .map(|_| {
                    let s = Arc::clone(&stage);
                    thread::spawn(move || s.pin(KEY))
                })
                .collect();
            prefetcher.join().expect("model thread");
            for p in pins {
                let outcome = p.join().expect("model thread");
                assert_eq!(outcome, PinOutcome::Resident(page_byte(KEY)));
            }
        });
        assert_eq!(stage.reads(), 1, "single-flight holds through the stage");
    });
    assert!(report.failure.is_none(), "unexpected failure: {:?}", report.failure);
    assert!(
        report.iterations >= 500,
        "expected >= 500 distinct interleavings, got {}",
        report.iterations
    );
}

#[test]
fn corrupt_page_in_a_coalesced_batch_fails_only_itself() {
    // Two staged prefetches plus pins on both keys; KEY_BAD's read is
    // corrupt. Under every interleaving (including both requests riding
    // one coalesced batch) the good key publishes, the bad key
    // quarantines without ever being resident, and the pin on the bad key
    // gets a typed failure — never a frame, never a hang.
    const KEY_OK: u32 = 10;
    const KEY_BAD: u32 = 11;
    let report = Checker::exhaustive().max_iterations(BOUND).check(|| {
        let stage = Arc::new(MiniStage::new(8, vec![KEY_BAD]));
        with_worker(&stage, || {
            stage.prefetch_submit(&[KEY_OK, KEY_BAD]);
            let good = {
                let s = Arc::clone(&stage);
                thread::spawn(move || s.pin(KEY_OK))
            };
            let bad = {
                let s = Arc::clone(&stage);
                thread::spawn(move || s.pin(KEY_BAD))
            };
            assert_eq!(good.join().expect("model thread"), PinOutcome::Resident(page_byte(KEY_OK)));
            let outcome = bad.join().expect("model thread");
            assert!(
                matches!(outcome, PinOutcome::WaitFailed | PinOutcome::FailFast),
                "bad key produced {outcome:?}"
            );
        });
        assert_eq!(stage.resident(KEY_OK), Some(page_byte(KEY_OK)), "good neighbour publishes");
        assert_eq!(stage.resident(KEY_BAD), None, "corrupt key must not be resident");
        assert!(stage.quarantined(KEY_BAD), "corrupt key quarantines");
        assert!(stage.reads() <= 2, "at most one read per popped batch");
    });
    assert!(report.failure.is_none(), "unexpected failure: {:?}", report.failure);
    assert!(
        report.iterations >= 500,
        "expected >= 500 distinct interleavings, got {}",
        report.iterations
    );
}

#[test]
fn partly_shed_run_reads_every_key_once_and_strands_no_waiter() {
    // A run of three prefetches against a backlog of two: the tail is shed
    // and cancelled. A demand pin on the shed last page races the whole
    // submission — it loads the page first, joins the doomed placeholder
    // and is woken by the cancel, or loads after it. A demand pin on the
    // accepted first page starts once the run is queued, so it joins the
    // run's placeholder unless the worker already published the page.
    // Every schedule terminates, both pins see their page, and each key is
    // read exactly once. Bounded DFS varies the late scheduling choices;
    // seeded random schedules reach the early ones, where a demand pin
    // joins a run page's placeholder — some schedule must show that
    // single-flight join, so the property is not vacuous.
    const RUN: [u32; 3] = [20, 21, 22];
    static JOINED: AtomicUsize = AtomicUsize::new(0);
    let body = || {
        let stage = Arc::new(MiniStage::new(2, Vec::new()));
        with_worker(&stage, || {
            let pin = |key: u32| {
                let s = Arc::clone(&stage);
                thread::spawn(move || (key, s.pin(key)))
            };
            let shed_pin = pin(RUN[2]);
            stage.prefetch_submit(&RUN);
            let run_pin = pin(RUN[0]);
            for p in [shed_pin, run_pin] {
                let (key, outcome) = p.join().expect("model thread");
                assert_eq!(outcome, PinOutcome::Resident(page_byte(key)));
            }
        });
        for key in RUN {
            assert_eq!(stage.key_reads(key), 1, "key {key} read exactly once");
        }
        if *stage.run_joins.lock() > 0 {
            JOINED.fetch_add(1, Ordering::Relaxed);
        }
    };
    for checker in [Checker::exhaustive().max_iterations(BOUND), Checker::exhaustive().random(7, 500)] {
        let report = checker.check(body);
        assert!(report.failure.is_none(), "unexpected failure: {:?}", report.failure);
        assert!(
            report.iterations >= 500,
            "expected >= 500 distinct interleavings, got {}",
            report.iterations
        );
    }
    assert!(JOINED.load(Ordering::Relaxed) > 0, "no schedule joined a demand pin onto a run page");
}
