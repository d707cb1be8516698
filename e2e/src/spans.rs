//! Per-kind self time from the flight recorder's closed spans.

use crate::stats::self_time;
use payg_obs::{SpanKind, SpanRecord, Tracer};
use std::collections::HashMap;

/// Span kinds the benchmark reports, in report order.
pub const KINDS: [SpanKind; 7] = [
    SpanKind::Query,
    SpanKind::Admission,
    SpanKind::ScanPartition,
    SpanKind::ChunkDispatch,
    SpanKind::PageWait,
    SpanKind::IoBatch,
    SpanKind::Merge,
];

/// Accumulates self time per span kind across repeated drains of a
/// tracer's span store.
///
/// A child usually closes before its parent, so it arrives in the same
/// drain or an earlier one. An I/O batch can close after the pin that
/// requested it returned, so each drain's spans are held back until the
/// next drain before their self time is settled; a child closing later
/// still is not subtracted.
#[derive(Default)]
pub struct SpanAcc {
    /// Parent id → intervals of its children seen so far.
    children: HashMap<u64, Vec<(u64, u64)>>,
    /// Spans from the previous drain, settled at the next one.
    held: Vec<SpanRecord>,
    self_ns: [u64; KINDS.len()],
    count: [u64; KINDS.len()],
}

fn slot(kind: SpanKind) -> usize {
    KINDS
        .iter()
        .position(|k| *k == kind)
        .expect("every span kind is reported")
}

impl SpanAcc {
    /// Takes every closed span out of `tracer` and settles the ones held
    /// from the previous drain.
    pub fn drain(&mut self, tracer: &Tracer) {
        self.add(tracer.drain_spans());
    }

    /// Adds a batch of closed spans (one drain's worth).
    pub fn add(&mut self, batch: Vec<SpanRecord>) {
        for s in &batch {
            if s.parent != 0 {
                self.children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        for s in std::mem::replace(&mut self.held, batch) {
            let mut kids = self.children.remove(&s.id).unwrap_or_default();
            let i = slot(s.kind);
            self.self_ns[i] += self_time(s.start_ns, s.end_ns, &mut kids);
            self.count[i] += 1;
        }
    }

    /// Settles every span still held; children of spans never seen (their
    /// parent closed outside the traced phase) are discarded.
    pub fn finish(&mut self) {
        self.add(Vec::new());
        self.children.clear();
    }

    /// Total self time of `kind`'s spans, in ns.
    pub fn self_ns(&self, kind: SpanKind) -> u64 {
        self.self_ns[slot(kind)]
    }

    /// Number of settled spans of `kind`.
    pub fn count(&self, kind: SpanKind) -> u64 {
        self.count[slot(kind)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, kind: SpanKind, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            kind,
            detail: 0,
            tid: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_spans_drains() {
        let mut acc = SpanAcc::default();
        // First drain: a query with one scan partition inside it.
        acc.add(vec![
            rec(2, 1, SpanKind::ScanPartition, 10, 60),
            rec(1, 0, SpanKind::Query, 0, 100),
        ]);
        // Second drain: an I/O batch the query started closes late.
        acc.add(vec![rec(3, 1, SpanKind::IoBatch, 90, 130)]);
        acc.finish();
        assert_eq!(acc.self_ns(SpanKind::Query), 100 - 50 - 10);
        assert_eq!(acc.self_ns(SpanKind::ScanPartition), 50);
        assert_eq!(acc.self_ns(SpanKind::IoBatch), 40);
        assert_eq!(acc.count(SpanKind::Query), 1);
        assert_eq!(acc.count(SpanKind::PageWait), 0);
    }

    #[test]
    fn grandchildren_are_charged_to_their_own_parent() {
        let mut acc = SpanAcc::default();
        acc.add(vec![
            rec(3, 2, SpanKind::PageWait, 20, 30),
            rec(4, 2, SpanKind::ChunkDispatch, 25, 40),
            rec(2, 1, SpanKind::ScanPartition, 10, 60),
            rec(5, 1, SpanKind::ScanPartition, 50, 80),
            rec(1, 0, SpanKind::Query, 0, 100),
        ]);
        acc.finish();
        // Query: minus the union of its two overlapping partitions [10, 80).
        assert_eq!(acc.self_ns(SpanKind::Query), 30);
        // First partition: minus the union of [20, 40).
        assert_eq!(acc.self_ns(SpanKind::ScanPartition), (50 - 20) + 30);
        assert_eq!(acc.self_ns(SpanKind::PageWait), 10);
        assert_eq!(acc.self_ns(SpanKind::ChunkDispatch), 15);
    }
}
