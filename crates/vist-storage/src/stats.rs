//! I/O and cache statistics, reported by the index-size experiments.

/// Counters accumulated by pagers and buffer pools.
///
/// All fields are cumulative **since the pager or pool was created** —
/// i.e. since the most recent `open()`/`create()`. They are *not*
/// persisted: reopening an index resets every field (including the
/// WAL/recovery counters) to zero, deliberately — the struct answers
/// "what did this handle do", not "what has this file seen". For
/// process-lifetime accumulation across close/reopen cycles, use the
/// `vist-obs` registry (`vist_storage_*` metrics), which survives as
/// long as the process does. `Clone + Copy` so callers can snapshot and
/// diff around a measured region.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoStats {
    /// Pages read from the backing store.
    pub reads: u64,
    /// Pages written to the backing store.
    pub writes: u64,
    /// Pages allocated.
    pub allocations: u64,
    /// Buffer-pool hits (page found cached).
    pub cache_hits: u64,
    /// Buffer-pool misses (page had to be read).
    pub cache_misses: u64,
    /// Dirty pages written back by eviction or flush.
    pub write_backs: u64,
    /// Page images appended to the write-ahead log.
    pub wal_appends: u64,
    /// Commits (WAL commit records fsynced).
    pub wal_commits: u64,
    /// Checkpoints: committed WAL images applied to the data file, which
    /// is then fsynced and the log truncated.
    pub checkpoints: u64,
    /// Pages replayed from the WAL during recovery-on-open.
    pub recovered_pages: u64,
    /// Uncommitted WAL tail bytes discarded during recovery-on-open.
    pub wal_discarded_bytes: u64,
}

impl IoStats {
    /// `self - earlier`, saturating — the activity between two snapshots.
    #[must_use]
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
            allocations: self.allocations.saturating_sub(earlier.allocations),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            write_backs: self.write_backs.saturating_sub(earlier.write_backs),
            wal_appends: self.wal_appends.saturating_sub(earlier.wal_appends),
            wal_commits: self.wal_commits.saturating_sub(earlier.wal_commits),
            checkpoints: self.checkpoints.saturating_sub(earlier.checkpoints),
            recovered_pages: self.recovered_pages.saturating_sub(earlier.recovered_pages),
            wal_discarded_bytes: self
                .wal_discarded_bytes
                .saturating_sub(earlier.wal_discarded_bytes),
        }
    }

    /// Cache hit ratio in `[0, 1]`; `None` when no lookups happened.
    #[must_use]
    pub fn hit_ratio(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        (total > 0).then(|| self.cache_hits as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_diffs_counters() {
        let a = IoStats {
            reads: 10,
            writes: 4,
            ..Default::default()
        };
        let b = IoStats {
            reads: 25,
            writes: 4,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!(d.reads, 15);
        assert_eq!(d.writes, 0);
    }

    #[test]
    fn hit_ratio() {
        let mut s = IoStats::default();
        assert_eq!(s.hit_ratio(), None);
        s.cache_hits = 3;
        s.cache_misses = 1;
        assert_eq!(s.hit_ratio(), Some(0.75));
    }
}
