//! Per-query I/O attribution.
//!
//! The registry's `vist_storage_*` counters are process-global: they say
//! the buffer pool missed, not *whose* query missed. Attribution closes
//! that gap with the thread's batch scope. The query layer opens one with
//! [`install`] on the thread that runs the query, and the storage layer
//! reports each pool hit, pool miss, page read and WAL append with one
//! call here. While a scope is open the call adds to a thread-local tally;
//! with none open it adds to the registry counter directly.
//! [`AttrGuard::finish`] returns the charges made on the thread since its
//! guard opened, nested scopes included, and the outermost scope folds the
//! tally into `vist_storage_pool_hit_total`, `…_pool_miss_total` and
//! `…_wal_append_total` when it closes. So summing per-query attribution
//! over a workload equals the registry deltas (a differential test in
//! `vist-core` holds this invariant).
//!
//! Cost model: a charge is two thread-local accesses and a plain add.
//! Under the `noop` feature no scope is ever open, so every charge goes
//! to a registry counter that compiles to nothing and
//! [`AttrGuard::finish`] returns zeros.

use std::cell::Cell;
use std::marker::PhantomData;

/// Plain-data copy of one query's attributed I/O.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AttrSnapshot {
    /// Buffer-pool hits charged to this query.
    pub pool_hits: u64,
    /// Buffer-pool misses charged to this query.
    pub pool_misses: u64,
    /// Pages read from the backing file for this query.
    pub pages_read: u64,
    /// Bytes read from the backing file for this query.
    pub bytes_read: u64,
    /// WAL appends issued while this query's scope was open.
    pub wal_appends: u64,
}

thread_local! {
    /// Charges made on this thread since its outermost scope opened.
    static TALLY: Cell<AttrSnapshot> = const {
        Cell::new(AttrSnapshot {
            pool_hits: 0,
            pool_misses: 0,
            pages_read: 0,
            bytes_read: 0,
            wal_appends: 0,
        })
    };
}

/// The batch scope of one query on this thread, open until the guard
/// drops or [`AttrGuard::finish`]es. `!Send`, like the tallies it covers.
pub struct AttrGuard {
    start: AttrSnapshot,
    _not_send: PhantomData<*const ()>,
}

/// Open a batch scope on this thread and start attributing its I/O.
/// Scopes nest: an outer scope sees its inner scopes' charges.
#[must_use]
pub fn install() -> AttrGuard {
    crate::batch::enter();
    AttrGuard {
        start: TALLY.with(Cell::get),
        _not_send: PhantomData,
    }
}

impl AttrGuard {
    /// Close the scope and return the charges made on this thread since
    /// it opened.
    #[must_use]
    pub fn finish(self) -> AttrSnapshot {
        let (now, s) = (TALLY.with(Cell::get), self.start);
        AttrSnapshot {
            pool_hits: now.pool_hits - s.pool_hits,
            pool_misses: now.pool_misses - s.pool_misses,
            pages_read: now.pages_read - s.pages_read,
            bytes_read: now.bytes_read - s.bytes_read,
            wal_appends: now.wal_appends - s.wal_appends,
        }
    }
}

impl Drop for AttrGuard {
    fn drop(&mut self) {
        if crate::batch::exit() {
            let t = TALLY.with(Cell::take);
            let fold = |n: u64, counter: &crate::Counter| {
                if n > 0 {
                    counter.add(n);
                }
            };
            fold(t.pool_hits, crate::counter!("vist_storage_pool_hit_total"));
            fold(
                t.pool_misses,
                crate::counter!("vist_storage_pool_miss_total"),
            );
            fold(
                t.wal_appends,
                crate::counter!("vist_storage_wal_append_total"),
            );
        }
    }
}

/// Add to this thread's tally if a scope is open; `false` if none is.
#[inline]
fn charge(add: impl FnOnce(&mut AttrSnapshot)) -> bool {
    let open = crate::batch::active();
    if open {
        TALLY.with(|t| {
            let mut s = t.get();
            add(&mut s);
            t.set(s);
        });
    }
    open
}

/// Count one buffer-pool hit.
#[inline]
pub fn pool_hit() {
    if !charge(|s| s.pool_hits += 1) {
        crate::counter!("vist_storage_pool_hit_total").inc();
    }
}

/// Count one buffer-pool miss.
#[inline]
pub fn pool_miss() {
    if !charge(|s| s.pool_misses += 1) {
        crate::counter!("vist_storage_pool_miss_total").inc();
    }
}

/// Charge one page read of `bytes` bytes to the open scope, if any. The
/// registry has no counter for it: each read is a miss.
#[inline]
pub fn page_read(bytes: u64) {
    charge(|s| {
        s.pages_read += 1;
        s.bytes_read += bytes;
    });
}

/// Count `n` WAL appends.
#[inline]
pub fn wal_appends(n: u64) {
    if !charge(|s| s.wal_appends += n) {
        crate::counter!("vist_storage_wal_append_total").add(n);
    }
}

#[cfg(all(test, not(feature = "noop")))]
mod tests {
    use super::*;

    #[test]
    fn charges_go_to_installed_context_only() {
        let hits = || crate::counter!("vist_storage_pool_hit_total").get();
        let before = hits();
        page_read(7); // no scope: charged nowhere
        let g = install();
        pool_hit();
        pool_miss();
        page_read(4096);
        wal_appends(1);
        assert_eq!(hits(), before, "held while a scope is open");
        let s = g.finish();
        assert_eq!(hits(), before + 1, "folded when the outermost closed");
        page_read(7); // after the scope: charged nowhere again
        pool_hit();
        assert_eq!(hits(), before + 2, "direct with no scope open");
        assert_eq!(
            s,
            AttrSnapshot {
                pool_hits: 1,
                pool_misses: 1,
                pages_read: 1,
                bytes_read: 4096,
                wal_appends: 1,
            }
        );
        assert_eq!(install().finish(), AttrSnapshot::default());
    }

    #[test]
    fn installs_nest_and_restore() {
        let outer = install();
        page_read(5);
        let inner = install();
        page_read(10);
        assert_eq!(inner.finish().bytes_read, 10);
        // Still open: the outer scope goes on charging.
        assert!(crate::batch::active());
        page_read(20);
        assert_eq!(outer.finish().bytes_read, 35, "inner charges included");
        assert!(!crate::batch::active());
    }
}
