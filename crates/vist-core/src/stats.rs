//! Index-level statistics, reported by the Figure 11 experiments.

use std::sync::atomic::{AtomicU64, Ordering};

use vist_storage::{IoStats, PoolStats};

use crate::search::QueryStats;

/// A snapshot of an index's size and health counters.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct IndexStats {
    /// Immutable packed segments in the tier (0 for untiered indexes).
    pub segments: u64,
    /// Documents resident in segments (including tombstoned ones — they
    /// still occupy segment space until compaction).
    pub segment_docs: u64,
    /// Total bytes of the segment files.
    pub segment_bytes: u64,
    /// Bytes of memory the live segments' fence arrays hold (fence keys,
    /// offsets and leaf ids of every packed tree) — what segments keep
    /// outside the buffer pool.
    pub segment_fence_bytes: u64,
    /// Segment documents masked by a delete tombstone in the delta.
    pub tombstones: u64,
    /// Live documents (delta + segments − tombstones).
    pub documents: u64,
    /// Virtual suffix tree nodes (entries in the S-Ancestor tree).
    pub nodes: u64,
    /// Distinct `(symbol, prefix)` pairs (entries in the D-Ancestor tree).
    pub dkeys: u64,
    /// Within-parent scope underflows (sound tight allocations).
    pub underflows: u64,
    /// Underflows that borrowed from a non-parent ancestor (the paper's
    /// lossy case — affected chains may be missed by scope-range queries).
    pub deep_borrows: u64,
    /// The match engine's counters summed over every query this handle
    /// has run, in every tier (the `io_*` fields stay zero: attribution
    /// is per request).
    pub queries: QueryStats,
    /// Group-commit ingest batches applied ([`crate::VistIndex::insert_batch`]).
    pub ingest_batches: u64,
    /// Documents ingested through batches (a subset of `documents`).
    pub ingest_batch_docs: u64,
    /// D-Ancestor key lookups answered by a batch's private dkey cache.
    pub ingest_dkey_cache_hits: u64,
    /// D-Ancestor key lookups a batch had to send to the B+Tree.
    pub ingest_dkey_cache_misses: u64,
    /// Trie-edge child lookups answered by a batch's private edge cache.
    pub ingest_edge_cache_hits: u64,
    /// Trie-edge child lookups a batch had to send to the B+Tree.
    pub ingest_edge_cache_misses: u64,
    /// Total bytes of the backing store (the "index size" of Figure 11a).
    pub store_bytes: u64,
    /// Cumulative I/O counters of the shared buffer pool — **since the
    /// index was opened**, not since it was created. Reopening resets
    /// every field (including the WAL append/commit and recovery
    /// counters) to zero; the `vist-obs` registry's `vist_storage_*`
    /// metrics keep process-lifetime totals across reopens.
    pub io: IoStats,
    /// Per-shard buffer-pool counters (hits, uncontended hits, misses,
    /// write-backs for each lock stripe).
    pub pool: PoolStats,
}

/// Cumulative batched-ingest counters, recorded once per
/// [`crate::VistIndex::insert_batch`] group commit. Atomics because
/// batches run under `&self`.
#[derive(Debug, Default)]
pub struct IngestCounters {
    batches: AtomicU64,
    docs: AtomicU64,
    dkey_cache_hits: AtomicU64,
    dkey_cache_misses: AtomicU64,
    edge_cache_hits: AtomicU64,
    edge_cache_misses: AtomicU64,
}

impl IngestCounters {
    /// Fold one committed batch into the running totals.
    pub fn record_batch(
        &self,
        docs: u64,
        dkey_cache_hits: u64,
        dkey_cache_misses: u64,
        edge_cache_hits: u64,
        edge_cache_misses: u64,
    ) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.docs.fetch_add(docs, Ordering::Relaxed);
        self.dkey_cache_hits
            .fetch_add(dkey_cache_hits, Ordering::Relaxed);
        self.dkey_cache_misses
            .fetch_add(dkey_cache_misses, Ordering::Relaxed);
        self.edge_cache_hits
            .fetch_add(edge_cache_hits, Ordering::Relaxed);
        self.edge_cache_misses
            .fetch_add(edge_cache_misses, Ordering::Relaxed);
    }

    /// The running totals so far.
    pub fn snapshot(&self) -> IngestCountersSnapshot {
        IngestCountersSnapshot {
            batches: self.batches.load(Ordering::Relaxed),
            docs: self.docs.load(Ordering::Relaxed),
            dkey_cache_hits: self.dkey_cache_hits.load(Ordering::Relaxed),
            dkey_cache_misses: self.dkey_cache_misses.load(Ordering::Relaxed),
            edge_cache_hits: self.edge_cache_hits.load(Ordering::Relaxed),
            edge_cache_misses: self.edge_cache_misses.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time values of [`IngestCounters`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IngestCountersSnapshot {
    /// Group-commit batches applied.
    pub batches: u64,
    /// Documents ingested through batches.
    pub docs: u64,
    /// Dkey lookups answered by a batch's private cache.
    pub dkey_cache_hits: u64,
    /// Dkey lookups sent to the B+Tree.
    pub dkey_cache_misses: u64,
    /// Edge lookups answered by a batch's private cache.
    pub edge_cache_hits: u64,
    /// Edge lookups sent to the B+Tree.
    pub edge_cache_misses: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_plain_data() {
        let s = IndexStats {
            documents: 1,
            nodes: 2,
            dkeys: 3,
            store_bytes: 4096,
            ..IndexStats::default()
        };
        let s2 = s.clone();
        assert_eq!(s, s2);
    }

    #[test]
    fn ingest_counters_accumulate() {
        let c = IngestCounters::default();
        c.record_batch(3, 10, 2, 20, 4);
        c.record_batch(1, 5, 1, 10, 2);
        assert_eq!(
            c.snapshot(),
            IngestCountersSnapshot {
                batches: 2,
                docs: 4,
                dkey_cache_hits: 15,
                dkey_cache_misses: 3,
                edge_cache_hits: 30,
                edge_cache_misses: 6,
            }
        );
    }
}
