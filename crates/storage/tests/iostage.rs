//! Integration tests for the cold-path I/O stage: deterministic batch
//! coalescing (via a gated store that parks the worker while submissions
//! accumulate), per-request fault granularity inside a coalesced read,
//! queue-pressure shedding, and the warm/cold pin-latency split.

use payg_obs::ObsSnapshot;
use payg_resman::ResourceManager;
#[cfg(not(payg_check))]
use payg_storage::{FaultPlan, FaultyStore, GateStore, IoStageConfig, PoolConfig};
use payg_storage::{BufferPool, MemStore, PageKey, PageStore};
use std::sync::Arc;

/// A single-worker staged pool over a gate so tests can park the worker
/// mid-read and control exactly what accumulates in the submission queue.
/// Model-check builds (`--cfg payg_check`) run the stage inline with no
/// worker threads, so the gate-driven tests are compiled out there (the
/// submit/complete/cancel protocol is model-checked in
/// `payg-check/tests/iostage_model.rs` instead).
#[cfg(not(payg_check))]
fn gated_pool(
    queue_cap: usize,
) -> (Arc<GateStore<FaultyStore<MemStore>>>, BufferPool, payg_storage::ChainId) {
    let store = Arc::new(GateStore::new(FaultyStore::new(MemStore::new(), FaultPlan::None)));
    let chain = store.create_chain(32).unwrap();
    for i in 0..8u64 {
        store.append_page(chain, &[i as u8; 8]).unwrap();
    }
    let pool = BufferPool::with_config(
        Arc::clone(&store) as Arc<dyn PageStore>,
        ResourceManager::new(),
        PoolConfig {
            io_stage: Some(IoStageConfig { workers: 1, max_batch: 16, queue_cap }),
            ..PoolConfig::default()
        },
    );
    (store, pool, chain)
}

#[test]
#[cfg(not(payg_check))]
fn coalesced_batch_isolates_a_corrupt_page() {
    // Park the single worker on a decoy read while a run of six adjacent
    // prefetches (one of them corrupt) waits, then release it: the worker
    // must pop all six as one batch, issue exactly one ranged read for the
    // run, and still fail/quarantine only the corrupt page.
    let (store, pool, chain) = gated_pool(256);
    store.inner().set_plan(FaultPlan::CorruptPages(vec![PageKey::new(chain, 3)]));
    store.close();
    assert_eq!(pool.prefetch_submit(&[PageKey::new(chain, 7)]), 1, "decoy prefetch accepted");
    store.wait_for_waiters(1); // the worker is parked inside the decoy read
    let run: Vec<PageKey> = (0..6u64).map(|p| PageKey::new(chain, p)).collect();
    assert_eq!(pool.prefetch_submit(&run), 6, "the whole run is accepted");
    store.open();
    // Demand pins join the staged completions via single flight.
    for p in 0..6u64 {
        let key = PageKey::new(chain, p);
        if p == 3 {
            assert!(pool.pin(key).is_err(), "corrupt page must fail");
        } else {
            assert_eq!(pool.pin(key).unwrap()[0], p as u8, "neighbour pages publish");
        }
    }
    assert_eq!(pool.quarantined_pages(), 1, "only the corrupt page quarantines");
    let m = pool.metrics();
    assert_eq!(m.loads, 6, "decoy + five good neighbours");
    assert_eq!(m.io_submitted, 7, "seven accepted prefetches");
    assert_eq!(m.io_completions, 7, "every request individually completed");
    assert_eq!(m.io_physical_reads, 2, "decoy read + ONE ranged read for the run of six");
    assert_eq!(m.io_coalesced, 6, "all six run members rode the coalesced read");
    pool.assert_no_live_pins("iostage coalescing quiesce");
}

#[test]
#[cfg(not(payg_check))]
fn queue_pressure_sheds_prefetches_but_never_demand() {
    // Capacity 2 with the worker parked: the run's third prefetch is shed
    // and its placeholder cancelled, so a later demand pin on that page
    // elects itself loader instead of waiting forever.
    let (store, pool, chain) = gated_pool(2);
    store.close();
    assert_eq!(pool.prefetch_submit(&[PageKey::new(chain, 0)]), 1, "parked read");
    store.wait_for_waiters(1);
    let run = [PageKey::new(chain, 1), PageKey::new(chain, 2), PageKey::new(chain, 3)];
    assert_eq!(pool.prefetch_submit(&run), 2, "cap 2 sheds the run's third page");
    assert!(!pool.is_resident(run[2]), "the shed page's slot is withdrawn");
    store.open();
    for p in 0..4u64 {
        assert_eq!(pool.pin(PageKey::new(chain, p)).unwrap()[0], p as u8);
    }
    let m = pool.metrics();
    assert_eq!(m.loads, 4, "shed page still loads — via its demand pin");
    assert_eq!(m.prefetches, 3, "the shed submission is not counted");
    assert_eq!(m.io_submitted, 4, "three prefetches + the demand fetch for page 3");
    assert_eq!(m.io_completions, 4);
    pool.assert_no_live_pins("iostage shedding quiesce");
}

#[test]
fn cold_pins_record_load_latency_warm_pins_record_pin_latency() {
    // The warm/cold split: a cold pin (elected loader or single-flight
    // waiter) lands in `pool_load_ns`, a warm pin in `pool_pin_ns` — the
    // two histograms partition the successful pins.
    let store = MemStore::new();
    let chain = store.create_chain(32).unwrap();
    for i in 0..4u64 {
        store.append_page(chain, &[i as u8; 8]).unwrap();
    }
    let pool = BufferPool::new(Arc::new(store), ResourceManager::new());
    for p in 0..4u64 {
        drop(pool.pin(PageKey::new(chain, p)).unwrap()); // cold
    }
    for _ in 0..3 {
        drop(pool.pin(PageKey::new(chain, 0)).unwrap()); // warm
    }
    let snap = ObsSnapshot::collect(pool.registry());
    assert_eq!(snap.histogram("pool_load_ns").count(), 4, "one cold pin per page");
    assert_eq!(snap.histogram("pool_pin_ns").count(), 3, "three warm re-pins");
}
