//! Per-query I/O attribution.
//!
//! The registry's `vist_storage_*` counters are process-global: they say
//! the buffer pool missed, not *whose* query missed. Attribution closes
//! that gap with a thread-local context: the query layer allocates an
//! [`AttrCounters`] per request and [`install`]s it on the thread that
//! runs the query — the match engine runs there too, so every page the
//! query touches is charged to its one counter block. A caller that fans
//! one request out to several threads installs a clone of the same `Arc`
//! on each. Storage-layer hot paths call the `charge_*` free
//! functions right next to the registry counters they mirror, so summing
//! per-query attribution over a workload must equal the registry deltas
//! (a differential test in `vist-core` holds this invariant).
//!
//! Cost model: a charge is one thread-local access and a plain add. The
//! charges made on a thread accumulate in a thread-local tally and are
//! folded into the shared [`AttrCounters`] when that thread's context is
//! replaced or uninstalled — once per query on the calling thread — so
//! [`AttrCounters::snapshot`] is exact
//! once every guard of the query has dropped and lags behind while one
//! is alive. Installing a context also opens a [`crate::batch`] scope:
//! the registry's hot counters and histograms follow the same rhythm.
//! Under the `noop` feature everything — the thread-locals included —
//! compiles out and [`install`] returns an inert guard.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[cfg(not(feature = "noop"))]
use std::cell::{Cell, RefCell};

/// Atomic I/O counters for one query. Shared (`Arc`) between the query
/// layer and every thread that installs it for that query.
#[derive(Debug, Default)]
pub struct AttrCounters {
    pool_hits: AtomicU64,
    pool_misses: AtomicU64,
    pages_read: AtomicU64,
    bytes_read: AtomicU64,
    wal_appends: AtomicU64,
}

impl AttrCounters {
    /// A fresh zeroed counter block, ready to [`install`].
    #[must_use]
    pub fn new() -> Arc<AttrCounters> {
        Arc::new(AttrCounters::default())
    }

    /// Point-in-time copy of the counters.
    #[must_use]
    pub fn snapshot(&self) -> AttrSnapshot {
        AttrSnapshot {
            pool_hits: self.pool_hits.load(Ordering::Relaxed),
            pool_misses: self.pool_misses.load(Ordering::Relaxed),
            pages_read: self.pages_read.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            wal_appends: self.wal_appends.load(Ordering::Relaxed),
        }
    }
}

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
    /// WAL appends issued while this query's context was installed.
    pub wal_appends: u64,
}

impl AttrSnapshot {
    /// `(counter name, value)` pairs in declaration order, for wide-event
    /// rendering.
    #[must_use]
    pub fn entries(&self) -> [(&'static str, u64); 5] {
        [
            ("pool_hits", self.pool_hits),
            ("pool_misses", self.pool_misses),
            ("pages_read", self.pages_read),
            ("bytes_read", self.bytes_read),
            ("wal_appends", self.wal_appends),
        ]
    }
}

#[cfg(not(feature = "noop"))]
thread_local! {
    static CURRENT: RefCell<Option<Arc<AttrCounters>>> = const { RefCell::new(None) };
    static PENDING: Pending = const { Pending::new() };
}

/// Charges made on this thread since its context was installed or last
/// settled. Kept apart from `CURRENT` so the charge path touches only
/// plain cells. Charges count only while a context is installed, which is
/// exactly while a batch scope is open: [`install`] is the one place that
/// opens one.
#[cfg(not(feature = "noop"))]
struct Pending {
    pool_hits: Cell<u64>,
    pool_misses: Cell<u64>,
    pages_read: Cell<u64>,
    bytes_read: Cell<u64>,
    wal_appends: Cell<u64>,
}

#[cfg(not(feature = "noop"))]
impl Pending {
    const fn new() -> Self {
        Pending {
            pool_hits: Cell::new(0),
            pool_misses: Cell::new(0),
            pages_read: Cell::new(0),
            bytes_read: Cell::new(0),
            wal_appends: Cell::new(0),
        }
    }

    /// Move the tally into `ctx`.
    fn settle(&self, ctx: &AttrCounters) {
        for (tally, shared) in [
            (&self.pool_hits, &ctx.pool_hits),
            (&self.pool_misses, &ctx.pool_misses),
            (&self.pages_read, &ctx.pages_read),
            (&self.bytes_read, &ctx.bytes_read),
            (&self.wal_appends, &ctx.wal_appends),
        ] {
            let n = tally.replace(0);
            if n > 0 {
                shared.fetch_add(n, Ordering::Relaxed);
            }
        }
    }
}

/// Guard returned by [`install`]; settles the thread's pending charges
/// into its context and restores the previous context (if any) on drop.
/// `!Send` by construction.
pub struct AttrGuard {
    #[cfg(not(feature = "noop"))]
    prev: Option<Arc<AttrCounters>>,
    /// Closed after `drop` has settled the attribution tally.
    _scope: crate::batch::Scope,
}

impl Drop for AttrGuard {
    fn drop(&mut self) {
        #[cfg(not(feature = "noop"))]
        CURRENT.with(|c| {
            let mut cur = c.borrow_mut();
            if let Some(ctx) = cur.as_deref() {
                PENDING.with(|p| p.settle(ctx));
            }
            *cur = self.prev.take();
        });
    }
}

/// Install `ctx` as the current thread's attribution context until the
/// returned guard drops. Nested installs stack: charges pending for the
/// outer context are settled into it first, and the guard restores it.
#[must_use]
pub fn install(ctx: Arc<AttrCounters>) -> AttrGuard {
    let scope = crate::batch::enter();
    #[cfg(feature = "noop")]
    {
        let _ = ctx;
        AttrGuard { _scope: scope }
    }
    #[cfg(not(feature = "noop"))]
    {
        let prev = CURRENT.with(|c| {
            let mut cur = c.borrow_mut();
            if let Some(outer) = cur.as_deref() {
                PENDING.with(|p| p.settle(outer));
            }
            cur.replace(ctx)
        });
        AttrGuard {
            prev,
            _scope: scope,
        }
    }
}

#[cfg(not(feature = "noop"))]
#[inline]
fn charge(field: fn(&Pending) -> &Cell<u64>, n: u64) {
    if crate::batch::active() {
        PENDING.with(|p| {
            let tally = field(p);
            tally.set(tally.get() + n);
        });
    }
}

/// Charge one buffer-pool hit to the current query, if any.
#[inline]
pub fn charge_pool_hit() {
    #[cfg(not(feature = "noop"))]
    charge(|p| &p.pool_hits, 1);
}

/// Charge one buffer-pool miss to the current query, if any.
#[inline]
pub fn charge_pool_miss() {
    #[cfg(not(feature = "noop"))]
    charge(|p| &p.pool_misses, 1);
}

/// Charge one page read of `bytes` bytes to the current query, if any.
#[inline]
pub fn charge_page_read(bytes: u64) {
    #[cfg(feature = "noop")]
    let _ = bytes;
    #[cfg(not(feature = "noop"))]
    {
        charge(|p| &p.pages_read, 1);
        charge(|p| &p.bytes_read, bytes);
    }
}

/// Charge one WAL append to the current query, if any.
#[inline]
pub fn charge_wal_append() {
    #[cfg(not(feature = "noop"))]
    charge(|p| &p.wal_appends, 1);
}

#[cfg(all(test, not(feature = "noop")))]
mod tests {
    use super::*;

    #[test]
    fn charges_go_to_installed_context_only() {
        charge_pool_hit(); // no context: must not panic, charges nowhere
        let ctx = AttrCounters::new();
        {
            let _g = install(Arc::clone(&ctx));
            charge_pool_hit();
            charge_pool_miss();
            charge_page_read(4096);
            charge_wal_append();
        }
        charge_pool_hit(); // after the guard: charges nowhere again
        let s = ctx.snapshot();
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
    }

    #[test]
    fn installs_nest_and_restore() {
        let outer = AttrCounters::new();
        let inner = AttrCounters::new();
        let a = install(Arc::clone(&outer));
        charge_page_read(5);
        {
            let _b = install(Arc::clone(&inner));
            charge_page_read(10);
            // Settled when the inner context took over, not before.
            assert_eq!(outer.snapshot().bytes_read, 5);
            assert_eq!(inner.snapshot().bytes_read, 0);
        }
        // The inner guard's drop settled its charge and restored the outer.
        assert_eq!(inner.snapshot().bytes_read, 10);
        charge_page_read(20);
        drop(a);
        assert_eq!(outer.snapshot().bytes_read, 25);
        // No context is left: a charge lands in neither.
        charge_page_read(40);
        assert_eq!(outer.snapshot().bytes_read, 25);
        assert_eq!(inner.snapshot().bytes_read, 10);
    }

    #[test]
    fn shared_arc_sums_across_threads() {
        let ctx = AttrCounters::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let ctx = Arc::clone(&ctx);
                s.spawn(move || {
                    let _g = install(ctx);
                    for _ in 0..100 {
                        charge_pool_hit();
                    }
                });
            }
        });
        assert_eq!(ctx.snapshot().pool_hits, 400);
    }
}
