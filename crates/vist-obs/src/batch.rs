//! Thread-local batching of hot-path metric updates.
//!
//! A warm query touches the same few registry metrics hundreds of
//! thousands of times (one pool hit per page fetch, one probe-depth
//! sample per B+Tree descent). Paying a locked read-modify-write on a
//! shared cache line for each is most of what those updates cost. While
//! a *batch scope* is open on a thread — the guard that
//! [`crate::attr::install`] returns for every query is one — the
//! [`crate::count!`] and [`crate::observe!`] macros and the
//! [`crate::attr`] charges add to plain thread-local tallies instead, and
//! the tallies are folded into the shared metric once, when the outermost
//! scope on that thread closes. With no scope open they update the shared
//! metric directly, so code that runs outside a query (ingest, tooling,
//! tests that call the storage layer themselves) is exact at every
//! instant.
//!
//! Consequence for readers of the registry: a scrape sees a query's hot
//! counters when that query finishes, not while it runs. Sums over
//! completed queries are exact.
//!
//! Under the `noop` feature no scope is ever open and the direct path
//! compiles to nothing.

use std::cell::Cell;
#[cfg(not(feature = "noop"))]
use std::cell::RefCell;

use crate::metrics::{bucket_of, Histogram, BUCKETS};

#[cfg(not(feature = "noop"))]
thread_local! {
    /// Batch scopes open on this thread.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    /// Flush functions of the tallies touched since the last flush.
    static DIRTY: RefCell<Vec<fn()>> = const { RefCell::new(Vec::new()) };
}

/// Whether a batch scope is open on this thread.
#[inline]
#[must_use]
pub fn active() -> bool {
    #[cfg(feature = "noop")]
    return false;
    #[cfg(not(feature = "noop"))]
    DEPTH.with(|d| d.get() > 0)
}

/// Open a batch scope on this thread. Scopes nest. Crate-private: the
/// scope is an [`crate::attr::AttrGuard`]'s lifetime, and [`exit`] is its
/// drop.
pub(crate) fn enter() {
    #[cfg(not(feature = "noop"))]
    DEPTH.with(|d| d.set(d.get() + 1));
}

/// Close one batch scope on this thread; `true` when it was the
/// outermost, whose close has flushed every tally on the thread.
pub(crate) fn exit() -> bool {
    #[cfg(feature = "noop")]
    return false;
    #[cfg(not(feature = "noop"))]
    {
        let outermost = DEPTH.with(|d| d.replace(d.get() - 1)) == 1;
        if outermost {
            flush();
        }
        outermost
    }
}

/// Fold every pending tally on this thread into its shared metric.
#[cfg(not(feature = "noop"))]
fn flush() {
    // Taken out while the functions run, so none of them can find the
    // list borrowed; put back to keep its capacity.
    let mut dirty = DIRTY.with(|d| std::mem::take(&mut *d.borrow_mut()));
    for f in dirty.drain(..) {
        f();
    }
    DIRTY.with(|d| *d.borrow_mut() = dirty);
}

/// Schedule `f` for the next flush on this thread. Called by the macros
/// when a tally goes from empty to non-empty.
#[doc(hidden)]
pub fn defer(f: fn()) {
    #[cfg(not(feature = "noop"))]
    DIRTY.with(|d| d.borrow_mut().push(f));
    #[cfg(feature = "noop")]
    let _ = f;
}

/// Thread-local tally behind [`crate::observe!`].
#[doc(hidden)]
pub struct LocalHistogram {
    buckets: [Cell<u64>; BUCKETS],
    count: Cell<u64>,
    sum: Cell<u64>,
    max: Cell<u64>,
}

impl LocalHistogram {
    /// An empty tally.
    #[must_use]
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: Cell<u64> = Cell::new(0);
        LocalHistogram {
            buckets: [ZERO; BUCKETS],
            count: Cell::new(0),
            sum: Cell::new(0),
            max: Cell::new(0),
        }
    }

    /// Add one observation; `true` when the tally was empty before.
    #[inline]
    pub fn record(&self, v: u64) -> bool {
        let b = &self.buckets[bucket_of(v)];
        b.set(b.get() + 1);
        self.sum.set(self.sum.get().wrapping_add(v));
        self.max.set(self.max.get().max(v));
        self.count.replace(self.count.get() + 1) == 0
    }

    /// Move the tally into `hist`, leaving it empty.
    pub fn flush_into(&self, hist: &Histogram) {
        if self.count.replace(0) == 0 {
            return;
        }
        let buckets: [u64; BUCKETS] = std::array::from_fn(|i| self.buckets[i].replace(0));
        hist.merge(&buckets, self.sum.replace(0), self.max.replace(0));
    }
}

impl Default for LocalHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Add one to the named counter: into a thread-local tally while a batch
/// scope is open (see the [module docs](crate::batch)), directly
/// otherwise.
#[macro_export]
macro_rules! count {
    ($name:expr) => {{
        ::std::thread_local! {
            static LOCAL: ::std::cell::Cell<u64> = const { ::std::cell::Cell::new(0) };
        }
        fn flush() {
            $crate::counter!($name).add(LOCAL.with(|l| l.replace(0)));
        }
        if $crate::batch::active() {
            if LOCAL.with(|l| l.replace(l.get() + 1)) == 0 {
                $crate::batch::defer(flush);
            }
        } else {
            $crate::counter!($name).inc();
        }
    }};
}

/// Record `$v` into the named histogram, batched like [`count!`].
#[macro_export]
macro_rules! observe {
    ($name:expr, $v:expr) => {{
        ::std::thread_local! {
            static LOCAL: $crate::batch::LocalHistogram =
                const { $crate::batch::LocalHistogram::new() };
        }
        fn flush() {
            LOCAL.with(|l| l.flush_into($crate::histogram!($name)));
        }
        let v: u64 = $v;
        if $crate::batch::active() {
            if LOCAL.with(|l| l.record(v)) {
                $crate::batch::defer(flush);
            }
        } else {
            $crate::histogram!($name).record(v);
        }
    }};
}

#[cfg(all(test, not(feature = "noop")))]
mod tests {
    use super::*;

    #[test]
    fn direct_without_a_scope() {
        assert!(!active());
        count!("batch_direct_total");
        observe!("batch_direct_len", 9);
        assert_eq!(crate::counter!("batch_direct_total").get(), 1);
        assert_eq!(crate::histogram!("batch_direct_len").snapshot().count(), 1);
    }

    #[test]
    fn batched_until_the_outermost_scope_closes() {
        let c = crate::counter!("batch_scoped_total");
        let h = crate::histogram!("batch_scoped_len");
        let outer = crate::attr::install();
        for v in 0..5u64 {
            let _inner = crate::attr::install();
            count!("batch_scoped_total");
            observe!("batch_scoped_len", v * 100);
        }
        assert!(active());
        assert_eq!(c.get(), 0, "tallies stay local while a scope is open");
        assert_eq!(h.snapshot().count(), 0);
        drop(outer);
        assert!(!active());
        assert_eq!(c.get(), 5);
        let s = h.snapshot();
        assert_eq!((s.count(), s.sum, s.max), (5, 1000, 400));
        assert_eq!(s.buckets[0], 1, "the zero sample kept its bucket");
        // A second scope starts from empty tallies.
        drop(crate::attr::install());
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn each_thread_flushes_its_own_tallies() {
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _scope = crate::attr::install();
                    for _ in 0..100 {
                        count!("batch_threads_total");
                    }
                });
            }
        });
        assert_eq!(crate::counter!("batch_threads_total").get(), 400);
    }
}
