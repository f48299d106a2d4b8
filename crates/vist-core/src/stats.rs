//! Index-level statistics, reported by the Figure 11 experiments.

use std::sync::atomic::{AtomicU64, Ordering};

use vist_storage::{IoStats, PoolStats};

/// The registry counter of the ingest counter `$name`.
macro_rules! ingest_metric {
    ($name:ident) => {
        vist_obs::counter!(concat!("vist_core_ingest_", stringify!($name), "_total"))
    };
}

/// Declares the batched-ingest counters and, from the same rows, everything
/// that has to name each one: the atomics of [`IngestCounters`], the fields
/// of [`IngestCountersSnapshot`], the arguments of
/// [`IngestCounters::record_batch`], the `ingest_*` fields of [`IndexStats`]
/// (after `=>`) and the registry counters `vist_core_ingest_<name>_total`.
/// The row before the `;` is the one `record_batch` counts itself.
macro_rules! ingest_counters {
    (
        rows {
            $(#[$bdoc:meta])* $b:ident => $bstat:ident;
            $( $(#[$doc:meta])* $name:ident => $stat:ident ),* $(,)?
        }
        $(#[$smeta:meta])*
        pub struct IndexStats { $( $(#[$fmeta:meta])* pub $field:ident: $ty:ty ),* $(,)? }
    ) => {
        $(#[$smeta])*
        pub struct IndexStats {
            $( $(#[$fmeta])* pub $field: $ty, )*
            $(#[$bdoc])* pub $bstat: u64,
            $( $(#[$doc])* pub $stat: u64, )*
        }

        /// Cumulative batched-ingest counters, recorded once per
        /// [`crate::VistIndex::insert_batch`] group commit. Atomics because
        /// batches run under `&self`.
        #[derive(Debug, Default)]
        pub struct IngestCounters {
            $b: AtomicU64,
            $( $name: AtomicU64, )*
        }

        impl IngestCounters {
            /// Fold one committed batch into the running totals and into
            /// the process-wide registry counters.
            pub fn record_batch(&self, $( $name: u64 ),*) {
                self.$b.fetch_add(1, Ordering::Relaxed);
                ingest_metric!($b).inc();
                $(
                    self.$name.fetch_add($name, Ordering::Relaxed);
                    ingest_metric!($name).add($name);
                )*
            }

            /// The running totals so far.
            pub fn snapshot(&self) -> IngestCountersSnapshot {
                IngestCountersSnapshot {
                    $b: self.$b.load(Ordering::Relaxed),
                    $( $name: self.$name.load(Ordering::Relaxed), )*
                }
            }

            /// Make the registry counters exist before the first batch.
            pub(crate) fn register_metrics() {
                let _ = ingest_metric!($b);
                $( let _ = ingest_metric!($name); )*
            }
        }

        /// Point-in-time values of [`IngestCounters`].
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct IngestCountersSnapshot {
            $(#[$bdoc])* pub $b: u64,
            $( $(#[$doc])* pub $name: u64, )*
        }

        /// An [`IndexStats`] with the `ingest_*` fields set and the rest at
        /// their defaults, for `..` in a struct expression.
        impl From<IngestCountersSnapshot> for IndexStats {
            fn from(c: IngestCountersSnapshot) -> IndexStats {
                IndexStats {
                    $bstat: c.$b,
                    $( $stat: c.$name, )*
                    ..IndexStats::default()
                }
            }
        }
    };
}

ingest_counters! {
    rows {
        /// Group-commit ingest batches applied ([`crate::VistIndex::insert_batch`]).
        batches => ingest_batches;
        /// Documents ingested through batches (a subset of `documents`).
        docs => ingest_batch_docs,
        /// D-Ancestor key lookups answered by a batch's private dkey cache.
        dkey_cache_hits => ingest_dkey_cache_hits,
        /// D-Ancestor key lookups a batch had to send to the B+Tree.
        dkey_cache_misses => ingest_dkey_cache_misses,
        /// Trie-edge child lookups answered by a batch's private edge cache
        /// (a fresh branch, below a node its document just allocated, makes
        /// no lookup at all).
        edge_cache_hits => ingest_edge_cache_hits,
        /// Trie-edge child lookups a batch had to send to the B+Tree.
        edge_cache_misses => ingest_edge_cache_misses,
    }
    /// A snapshot of an index's size and health counters.
    #[derive(Debug, Default, Clone, PartialEq, Eq)]
    pub struct IndexStats {
        /// Immutable packed segments in the tier (0 for untiered indexes).
        pub segments: u64,
        /// Documents resident in segments (including tombstoned ones — they
        /// still occupy segment space until compaction).
        pub segment_docs: u64,
        /// Trie nodes of the segments (entries in their S-Ancestor trees;
        /// `nodes` counts the delta's).
        pub segment_nodes: u64,
        /// Distinct `(symbol, prefix)` pairs of the segments, summed
        /// (`dkeys` counts the delta's).
        pub segment_dkeys: u64,
        /// Total bytes of the segment files.
        pub segment_bytes: u64,
        /// Bytes of memory the live segments' fence arrays hold (fence keys,
        /// offsets and leaf ids of every packed tree) — what segments keep
        /// outside the buffer pool.
        pub segment_fence_bytes: u64,
        /// Bytes of memory the postings columns of every tier hold (the
        /// delta's and each segment's DocId entries, decoded at open):
        /// the other memory a tier keeps outside the buffer pool.
        pub postings_bytes: u64,
        /// Bytes of memory the live segments' S-Ancestor runs hold (each
        /// entry's label and scope end, and where each key's run starts,
        /// decoded at open): what a segment's sweeps read instead of its
        /// S-Ancestor tree.
        pub segment_run_bytes: u64,
        /// Removed documents, of any tier, whose records stay until the
        /// next compaction: the delete tombstones that mask them (a failed
        /// insert's document has one too). A compaction policy's input.
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
        /// Total bytes of the backing store (the "index size" of Figure 11a).
        pub store_bytes: u64,
        /// Cumulative I/O counters of the delta's buffer pool and its file —
        /// **since the index was opened**, not since it was created. Each
        /// segment has a pool of its own, which this does not count.
        /// Reopening resets every field (including the WAL append/commit and
        /// recovery counters) to zero; the `vist-obs` registry's
        /// `vist_storage_*` metrics keep process-lifetime totals across
        /// reopens, over every pool.
        pub io: IoStats,
        /// Per-shard counters of the delta's buffer pool (hits, uncontended
        /// hits, misses, write-backs for each lock stripe); no segment's
        /// pool is counted.
        pub pool: PoolStats,
    }
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
