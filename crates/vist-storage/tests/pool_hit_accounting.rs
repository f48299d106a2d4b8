//! Exactness of the buffer pool's hit accounting.
//!
//! A hit is tallied per shard as a plain integer under the shard mutex and
//! once through `vist_obs::attr`: into the thread's open batch scope, which
//! folds into the process-wide registry when it closes, or into the
//! registry directly when no scope is open. Shard tallies, registry delta
//! and the scopes' sum must all match the hits issued once the issuing
//! threads are done.
//!
//! This is the only test in its binary: the registry is process-global and
//! the delta must not see another test's fetches.

use std::sync::{Arc, Barrier};

use vist_storage::{BufferPool, MemPager};

const THREADS: usize = 8;
const ROUNDS: usize = 2_000;
const PAGES: usize = 48;

#[test]
fn eight_threads_of_hits_are_counted_exactly() {
    let pool = Arc::new(BufferPool::with_capacity(MemPager::new(256), 64));
    let pids: Vec<_> = (0..PAGES)
        .map(|i| {
            let pid = pool.allocate().unwrap();
            pool.fetch_mut(pid).unwrap().data_mut()[0] = i as u8;
            pid
        })
        .collect();
    assert!(pool.shard_count() > 1);

    let registry = || vist_obs::snapshot().counter("vist_storage_pool_hit_total");
    let before_pool = pool.pool_stats().totals();
    let before_registry = registry();
    // Every thread is past its set-up before any fetches, so the hits of
    // all eight really overlap on the shard mutexes.
    let start = Barrier::new(THREADS);
    let (scoped_hits, scoped_misses) = std::thread::scope(|s| {
        let threads: Vec<_> = (0..THREADS)
            .map(|t| {
                let (pool, pids, start) = (&pool, &pids, &start);
                s.spawn(move || {
                    // Odd threads open a scope (the batched path of a
                    // query), even threads run bare (the direct path of
                    // ingest and tooling).
                    let attr = (t % 2 == 1).then(vist_obs::attr::install);
                    start.wait();
                    for round in 0..ROUNDS {
                        let i = (t * 13 + round) % pids.len();
                        assert_eq!(pool.fetch(pids[i]).unwrap().data()[0], i as u8);
                    }
                    attr.map(vist_obs::AttrGuard::finish).unwrap_or_default()
                })
            })
            .collect();
        threads.into_iter().fold((0, 0), |(hits, misses), h| {
            let io = h.join().unwrap();
            (hits + io.pool_hits, misses + io.pool_misses)
        })
    });

    let issued = (THREADS * ROUNDS) as u64;
    let after_pool = pool.pool_stats().totals();
    assert_eq!(after_pool.misses, before_pool.misses, "every fetch hit");
    assert_eq!(after_pool.hits - before_pool.hits, issued);
    assert!(after_pool.uncontended_hits <= after_pool.hits);
    assert_eq!(registry() - before_registry, issued);
    assert_eq!(scoped_hits, issued / 2);
    assert_eq!(scoped_misses, 0);
}
