//! A timing [`PageStore`] decorator: the store layer's counters, measured
//! from outside the program.

use payg_storage::{ChainId, PageKey, PageStore, StorageResult};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Cumulative store counters (see [`TimingStore::counts`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounts {
    /// `read_page` plus `read_pages` calls.
    pub read_calls: u64,
    /// Pages returned successfully by those calls.
    pub pages_read: u64,
    /// Bytes of those pages.
    pub bytes_read: u64,
    /// Nanoseconds spent inside read calls.
    pub read_ns: u64,
    /// Distinct pages ever read since the last [`TimingStore::reset_distinct`].
    pub distinct_pages: u64,
    /// Pages appended.
    pub pages_written: u64,
    /// Payload bytes appended.
    pub bytes_written: u64,
    /// Nanoseconds spent inside append calls.
    pub write_ns: u64,
}

impl StoreCounts {
    /// Counter-wise difference `self - earlier`.
    pub fn delta(&self, earlier: &StoreCounts) -> StoreCounts {
        StoreCounts {
            read_calls: self.read_calls - earlier.read_calls,
            pages_read: self.pages_read - earlier.pages_read,
            bytes_read: self.bytes_read - earlier.bytes_read,
            read_ns: self.read_ns - earlier.read_ns,
            distinct_pages: self.distinct_pages.saturating_sub(earlier.distinct_pages),
            pages_written: self.pages_written - earlier.pages_written,
            bytes_written: self.bytes_written - earlier.bytes_written,
            write_ns: self.write_ns - earlier.write_ns,
        }
    }
}

/// Wraps any store and counts read calls, pages, bytes, busy time, distinct
/// pages read, and pages and bytes written. Reads are delegated one to one,
/// so a ranged `read_pages` stays one physical read underneath.
pub struct TimingStore {
    inner: Arc<dyn PageStore>,
    read_calls: AtomicU64,
    pages_read: AtomicU64,
    bytes_read: AtomicU64,
    read_ns: AtomicU64,
    pages_written: AtomicU64,
    bytes_written: AtomicU64,
    write_ns: AtomicU64,
    distinct: Mutex<HashSet<(u64, u64)>>,
}

impl TimingStore {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn PageStore>) -> Self {
        TimingStore {
            inner,
            read_calls: AtomicU64::new(0),
            pages_read: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            read_ns: AtomicU64::new(0),
            pages_written: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            write_ns: AtomicU64::new(0),
            distinct: Mutex::new(HashSet::new()),
        }
    }

    /// The counters so far. Statistics only: each counter is exact, the set
    /// is not one atomic snapshot while reads are in flight.
    pub fn counts(&self) -> StoreCounts {
        StoreCounts {
            read_calls: self.read_calls.load(Ordering::Relaxed),
            pages_read: self.pages_read.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            read_ns: self.read_ns.load(Ordering::Relaxed),
            distinct_pages: self
                .distinct
                .lock()
                .expect("distinct-page set poisoned")
                .len() as u64,
            pages_written: self.pages_written.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            write_ns: self.write_ns.load(Ordering::Relaxed),
        }
    }

    /// Forgets which pages were read, so the next window counts its own
    /// distinct pages.
    pub fn reset_distinct(&self) {
        self.distinct
            .lock()
            .expect("distinct-page set poisoned")
            .clear();
    }

    fn note_reads(
        &self,
        chain: ChainId,
        first_page: u64,
        results: &[StorageResult<Box<[u8]>>],
        ns: u64,
    ) {
        self.read_calls.fetch_add(1, Ordering::Relaxed);
        self.read_ns.fetch_add(ns, Ordering::Relaxed);
        let mut pages = 0;
        let mut bytes = 0;
        let mut distinct = self.distinct.lock().expect("distinct-page set poisoned");
        for (i, r) in results.iter().enumerate() {
            if let Ok(page) = r {
                pages += 1;
                bytes += page.len() as u64;
                distinct.insert((chain.0, first_page + i as u64));
            }
        }
        drop(distinct);
        self.pages_read.fetch_add(pages, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
    }
}

impl PageStore for TimingStore {
    fn create_chain(&self, page_size: usize) -> StorageResult<ChainId> {
        self.inner.create_chain(page_size)
    }

    fn append_page(&self, chain: ChainId, payload: &[u8]) -> StorageResult<u64> {
        let t0 = Instant::now();
        let r = self.inner.append_page(chain, payload);
        self.write_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if r.is_ok() {
            self.pages_written.fetch_add(1, Ordering::Relaxed);
            self.bytes_written
                .fetch_add(payload.len() as u64, Ordering::Relaxed);
        }
        r
    }

    fn read_page(&self, key: PageKey) -> StorageResult<Box<[u8]>> {
        let t0 = Instant::now();
        let r = self.inner.read_page(key);
        let ns = t0.elapsed().as_nanos() as u64;
        let results = [r];
        self.note_reads(key.chain, key.page_no, &results, ns);
        let [r] = results;
        r
    }

    fn read_pages(
        &self,
        chain: ChainId,
        first_page: u64,
        count: usize,
    ) -> Vec<StorageResult<Box<[u8]>>> {
        let t0 = Instant::now();
        let results = self.inner.read_pages(chain, first_page, count);
        self.note_reads(chain, first_page, &results, t0.elapsed().as_nanos() as u64);
        results
    }

    fn chain_len(&self, chain: ChainId) -> StorageResult<u64> {
        self.inner.chain_len(chain)
    }

    fn page_size(&self, chain: ChainId) -> StorageResult<usize> {
        self.inner.page_size(chain)
    }

    fn drop_chain(&self, chain: ChainId) -> StorageResult<()> {
        self.inner.drop_chain(chain)
    }

    fn chains(&self) -> Vec<ChainId> {
        self.inner.chains()
    }

    fn set_chain_descriptor(&self, chain: ChainId, desc: &[u8]) -> StorageResult<()> {
        self.inner.set_chain_descriptor(chain, desc)
    }

    fn chain_descriptor(&self, chain: ChainId) -> StorageResult<Vec<u8>> {
        self.inner.chain_descriptor(chain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use payg_storage::MemStore;

    #[test]
    fn counts_calls_pages_and_distinct_pages() {
        let store = TimingStore::new(Arc::new(MemStore::new()));
        let c = store.create_chain(64).unwrap();
        for _ in 0..4 {
            store.append_page(c, &[1u8; 10]).unwrap();
        }
        store.read_page(PageKey::new(c, 0)).unwrap();
        let rs = store.read_pages(c, 0, 3);
        assert!(rs.iter().all(|r| r.is_ok()));
        let n = store.counts();
        assert_eq!(n.read_calls, 2);
        assert_eq!(n.pages_read, 4);
        assert_eq!(n.bytes_read, 4 * 64);
        assert_eq!(n.distinct_pages, 3);
        assert_eq!(n.pages_written, 4);
        assert_eq!(n.bytes_written, 40);
        store.reset_distinct();
        assert_eq!(store.counts().distinct_pages, 0);
        // A read past the end is a call but not a page.
        assert!(store.read_page(PageKey::new(c, 9)).is_err());
        assert_eq!(store.counts().read_calls, 3);
        assert_eq!(store.counts().pages_read, 4);
    }
}
