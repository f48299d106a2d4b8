//! Exactness of the buffer pool's hit accounting.
//!
//! A hit is tallied three ways: per shard as a plain integer under the
//! shard mutex, in the process-wide registry through `vist_obs::count!`
//! (batched per thread while an attribution context is installed, direct
//! otherwise), and in the installed attribution context. All three must
//! equal the number of hits issued once the issuing threads are done.
//!
//! This is the only test in its binary: the registry is process-global and
//! the delta must not see another test's fetches.

use std::sync::{Arc, Barrier};

use vist_obs::AttrCounters;
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
    let ctx = AttrCounters::new();
    // Every thread is past its set-up before any fetches, so the hits of
    // all eight really overlap on the shard mutexes.
    let start = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (pool, pids, ctx, start) = (&pool, &pids, &ctx, &start);
            s.spawn(move || {
                // Odd threads charge a shared context (the batched path of
                // a query's workers), even threads run bare (the direct
                // path of ingest and tooling).
                let _attr = (t % 2 == 1).then(|| vist_obs::attr::install(Arc::clone(ctx)));
                start.wait();
                for round in 0..ROUNDS {
                    let i = (t * 13 + round) % pids.len();
                    assert_eq!(pool.fetch(pids[i]).unwrap().data()[0], i as u8);
                }
            });
        }
    });

    let issued = (THREADS * ROUNDS) as u64;
    let after_pool = pool.pool_stats().totals();
    assert_eq!(after_pool.misses, before_pool.misses, "every fetch hit");
    assert_eq!(after_pool.hits - before_pool.hits, issued);
    assert!(after_pool.uncontended_hits <= after_pool.hits);
    assert_eq!(registry() - before_registry, issued);
    assert_eq!(ctx.snapshot().pool_hits, issued / 2);
    assert_eq!(ctx.snapshot().pool_misses, 0);
}
