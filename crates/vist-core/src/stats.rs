//! Index-level statistics, reported by the Figure 11 experiments.

use std::sync::atomic::{AtomicU64, Ordering};

use vist_storage::{IoStats, PoolStats};

use crate::search::QueryStats;

/// A snapshot of an index's size and health counters.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// Match frames expanded by the work-list engine, across all queries.
    pub match_work_items: u64,
    /// Frames that changed workers through the shared queue (donations
    /// picked up by a starving worker), across all queries.
    pub match_steals: u64,
    /// Final scopes coalesced away by interval merging before DocId
    /// resolution, across all queries.
    pub match_scopes_merged: u64,
    /// Duplicate wildcard sub-problems skipped by the match engine's
    /// visited sets, across all queries.
    pub match_dedup_skips: u64,
    /// Sequences the planner proved empty and never seeded, across all
    /// queries.
    pub match_planner_seqs_pruned: u64,
    /// D-Ancestor probes issued by the planner (plan-time pattern probes
    /// plus memoized child probes), across all queries.
    pub match_planner_probes: u64,
    /// S-Ancestor descents skipped because a child probe proved the
    /// subtree dead, across all queries.
    pub match_planner_probe_prunes: u64,
    /// DocId resolutions where the planner chose the keyed sweep over
    /// per-scope range jumps, across all queries.
    pub match_planner_docid_sweeps: u64,
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

/// Cumulative parallel-match counters, recorded by every query an index
/// runs. Atomics because queries run under `&self` from many threads.
#[derive(Debug, Default)]
pub struct MatchCounters {
    work_items: AtomicU64,
    steals: AtomicU64,
    scopes_merged: AtomicU64,
    dedup_skips: AtomicU64,
    planner_seqs_pruned: AtomicU64,
    planner_probes: AtomicU64,
    planner_probe_prunes: AtomicU64,
    planner_docid_sweeps: AtomicU64,
}

impl MatchCounters {
    /// Fold one query's engine counters into the running totals.
    pub fn record(&self, stats: &QueryStats) {
        self.work_items
            .fetch_add(stats.work_items, Ordering::Relaxed);
        self.steals.fetch_add(stats.steals, Ordering::Relaxed);
        self.scopes_merged
            .fetch_add(stats.scopes_merged, Ordering::Relaxed);
        self.dedup_skips
            .fetch_add(stats.dedup_skips, Ordering::Relaxed);
        self.planner_seqs_pruned
            .fetch_add(stats.planner_seqs_pruned, Ordering::Relaxed);
        self.planner_probes
            .fetch_add(stats.planner_probes, Ordering::Relaxed);
        self.planner_probe_prunes
            .fetch_add(stats.planner_probe_prunes, Ordering::Relaxed);
        self.planner_docid_sweeps
            .fetch_add(stats.planner_docid_sweeps, Ordering::Relaxed);
    }

    /// The running totals so far.
    pub fn snapshot(&self) -> MatchCountersSnapshot {
        MatchCountersSnapshot {
            work_items: self.work_items.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            scopes_merged: self.scopes_merged.load(Ordering::Relaxed),
            dedup_skips: self.dedup_skips.load(Ordering::Relaxed),
            planner_seqs_pruned: self.planner_seqs_pruned.load(Ordering::Relaxed),
            planner_probes: self.planner_probes.load(Ordering::Relaxed),
            planner_probe_prunes: self.planner_probe_prunes.load(Ordering::Relaxed),
            planner_docid_sweeps: self.planner_docid_sweeps.load(Ordering::Relaxed),
        }
    }
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

/// Point-in-time values of [`MatchCounters`]. A named struct (not a
/// tuple) so call sites can't transpose counters when new ones are
/// added.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MatchCountersSnapshot {
    /// Match frames expanded by the work-list engine.
    pub work_items: u64,
    /// Frames that changed workers through the shared queue.
    pub steals: u64,
    /// Final scopes coalesced away by interval merging.
    pub scopes_merged: u64,
    /// Duplicate wildcard sub-problems skipped by the visited sets.
    pub dedup_skips: u64,
    /// Sequences the planner proved empty and never seeded.
    pub planner_seqs_pruned: u64,
    /// D-Ancestor probes issued by the planner.
    pub planner_probes: u64,
    /// S-Ancestor descents skipped by child probes.
    pub planner_probe_prunes: u64,
    /// DocId resolutions done as a keyed sweep.
    pub planner_docid_sweeps: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_plain_data() {
        let s = IndexStats {
            segments: 0,
            segment_docs: 0,
            segment_bytes: 0,
            segment_fence_bytes: 0,
            tombstones: 0,
            documents: 1,
            nodes: 2,
            dkeys: 3,
            underflows: 0,
            deep_borrows: 0,
            match_work_items: 0,
            match_steals: 0,
            match_scopes_merged: 0,
            match_dedup_skips: 0,
            match_planner_seqs_pruned: 0,
            match_planner_probes: 0,
            match_planner_probe_prunes: 0,
            match_planner_docid_sweeps: 0,
            ingest_batches: 0,
            ingest_batch_docs: 0,
            ingest_dkey_cache_hits: 0,
            ingest_dkey_cache_misses: 0,
            ingest_edge_cache_hits: 0,
            ingest_edge_cache_misses: 0,
            store_bytes: 4096,
            io: IoStats::default(),
            pool: PoolStats::default(),
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

    #[test]
    fn match_counters_accumulate() {
        let c = MatchCounters::default();
        let stats = QueryStats {
            work_items: 5,
            steals: 1,
            scopes_merged: 3,
            dedup_skips: 2,
            planner_seqs_pruned: 1,
            planner_probes: 4,
            planner_probe_prunes: 2,
            planner_docid_sweeps: 1,
            ..Default::default()
        };
        c.record(&stats);
        c.record(&stats);
        assert_eq!(
            c.snapshot(),
            MatchCountersSnapshot {
                work_items: 10,
                steals: 2,
                scopes_merged: 6,
                dedup_skips: 4,
                planner_seqs_pruned: 2,
                planner_probes: 8,
                planner_probe_prunes: 4,
                planner_docid_sweeps: 2,
            }
        );
    }
}
