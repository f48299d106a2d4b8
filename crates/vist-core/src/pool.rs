//! A minimal scoped work-sharing executor for the parallel match engine.
//!
//! Algorithm 2's match tree fans out into independent branches; this module
//! runs those branches on a handful of OS threads with **no external
//! dependencies** (std threads, one mutex, one condvar):
//!
//! * Workers keep a private LIFO stack of frames (depth-first, cache-warm)
//!   and only touch the shared FIFO queue to *donate* the shallow half of
//!   their stack when another worker is starving — work-sharing rather than
//!   per-worker stealing deques, which keeps the implementation ~100 lines
//!   and the common case (deep local expansion) entirely lock-free.
//! * Termination uses an outstanding-items counter: every queued item
//!   counts until the worker that took it has fully drained the local
//!   expansion it seeded. Queue empty + nothing outstanding = done.
//! * [`WorkQueue::stop`] aborts early (first error wins); remaining queued
//!   items are abandoned.
//!
//! The executor acquires **no index locks**: callers run it inside whatever
//! latch scope the query already holds (see `docs/CONCURRENCY.md`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// The shared splitmix64 step used wherever this crate needs cheap seeded
/// pseudo-randomness (the simulation scheduler below, test loops).
pub(crate) fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Shared state of one parallel run.
pub(crate) struct WorkQueue<T> {
    state: Mutex<QueueState<T>>,
    cond: Condvar,
    /// Number of workers currently blocked waiting for work — the cheap
    /// "is anyone starving?" signal read on the donation fast path.
    waiting: AtomicUsize,
}

struct QueueState<T> {
    /// Queued items; `true` marks a donated (re-shared) item.
    items: VecDeque<(T, bool)>,
    /// Items seeded or donated whose local expansion has not finished.
    outstanding: usize,
    stopped: bool,
    /// Which queued item [`WorkQueue::take`] hands out next: `None` is
    /// front-of-queue, the production order (donated subtrees drain
    /// oldest-first); `Some(rng)` is a seeded pseudo-random pick among all
    /// queued items — the **simulation scheduler hook**. The `vist-sim`
    /// harness drives queries with a seed so one seed explores one specific
    /// frame-expansion order, different seeds explore different orders, and
    /// any order must produce identical answers — an executable check that
    /// no code path depends on scheduling luck. Deterministic given a fixed
    /// take sequence (exactly reproducible at one worker; at several
    /// workers the OS still interleaves the *takers*, but answers are
    /// order-invariant sets).
    sched: Option<u64>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl<T> WorkQueue<T> {
    /// A queue holding the initial work items, handed out front-first or,
    /// with `sched: Some(seed)`, by seeded picks.
    pub(crate) fn new(seeds: Vec<T>, sched: Option<u64>) -> Self {
        let outstanding = seeds.len();
        WorkQueue {
            state: Mutex::new(QueueState {
                items: seeds.into_iter().map(|t| (t, false)).collect(),
                outstanding,
                stopped: false,
                sched,
            }),
            cond: Condvar::new(),
            waiting: AtomicUsize::new(0),
        }
    }

    /// Block until an item is available. `None` means the run is over
    /// (all work finished, or stopped). The boolean is `true` for donated
    /// items — a transfer of work between workers ("steal").
    pub(crate) fn take(&self) -> Option<(T, bool)> {
        let mut st = lock(&self.state);
        loop {
            if st.stopped {
                return None;
            }
            if !st.items.is_empty() {
                let i = match &mut st.sched {
                    None => 0,
                    Some(rng) => (splitmix64(rng) % st.items.len() as u64) as usize,
                };
                return st.items.remove(i);
            }
            if st.outstanding == 0 {
                self.cond.notify_all();
                return None;
            }
            self.waiting.fetch_add(1, Ordering::SeqCst);
            st = self.cond.wait(st).unwrap_or_else(|e| e.into_inner());
            self.waiting.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Mark one taken item's expansion as fully drained.
    pub(crate) fn finish_one(&self) {
        let mut st = lock(&self.state);
        st.outstanding -= 1;
        if st.outstanding == 0 && st.items.is_empty() {
            self.cond.notify_all();
        }
    }

    /// `true` when some worker is blocked waiting for work right now —
    /// the (racy, cheap) signal that a donation would be picked up.
    pub(crate) fn is_hungry(&self) -> bool {
        self.waiting.load(Ordering::Relaxed) > 0
    }

    /// Share items with other workers. Returns the number donated.
    pub(crate) fn donate(&self, items: impl IntoIterator<Item = T>) -> usize {
        let mut st = lock(&self.state);
        let before = st.items.len();
        st.items.extend(items.into_iter().map(|t| (t, true)));
        let n = st.items.len() - before;
        st.outstanding += n;
        drop(st);
        if n > 0 {
            self.cond.notify_all();
        }
        n
    }

    /// Abort the run: all pending and future [`WorkQueue::take`] calls
    /// return `None`.
    pub(crate) fn stop(&self) {
        lock(&self.state).stopped = true;
        self.cond.notify_all();
    }
}

/// Run `body(worker_id, queue)` on `workers` threads — `workers - 1`
/// scoped spawns plus the calling thread as worker 0 — over a queue holding
/// `seeds`, scheduled by `sched` (see [`WorkQueue::new`]). Returns when
/// every worker has exited.
pub(crate) fn run_workers<T, F>(workers: usize, seeds: Vec<T>, sched: Option<u64>, body: F)
where
    T: Send,
    F: Fn(usize, &WorkQueue<T>) + Sync,
{
    let queue = WorkQueue::new(seeds, sched);
    if workers <= 1 {
        body(0, &queue);
        return;
    }
    std::thread::scope(|s| {
        for id in 1..workers {
            let queue = &queue;
            let body = &body;
            s.spawn(move || body(id, queue));
        }
        body(0, &queue);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Recursive fan-out: item `depth` spawns two `depth - 1` children;
    /// leaves (depth 0) count. Total leaves = 2^depth.
    fn count_leaves(workers: usize, depth: u32) -> u64 {
        let total = AtomicU64::new(0);
        run_workers(workers, vec![depth], None, |_, queue| {
            while let Some((seed, _donated)) = queue.take() {
                let mut local = vec![seed];
                while let Some(d) = local.pop() {
                    if d == 0 {
                        total.fetch_add(1, Ordering::Relaxed);
                    } else {
                        local.push(d - 1);
                        local.push(d - 1);
                    }
                    if queue.is_hungry() && local.len() > 1 {
                        let half = local.len() / 2;
                        queue.donate(local.drain(..half));
                    }
                }
                queue.finish_one();
            }
        });
        total.load(Ordering::Relaxed)
    }

    #[test]
    fn all_work_is_executed_exactly_once() {
        for workers in [1, 2, 4, 8] {
            assert_eq!(count_leaves(workers, 12), 1 << 12, "workers={workers}");
        }
    }

    #[test]
    fn empty_seed_terminates() {
        run_workers::<u32, _>(4, Vec::new(), None, |_, queue| {
            assert!(queue.take().is_none());
        });
    }

    #[test]
    fn stop_aborts_pending_work() {
        let executed = AtomicU64::new(0);
        run_workers(4, (0..1000u32).collect(), None, |_, queue| {
            while let Some((item, _)) = queue.take() {
                if item == 0 {
                    queue.stop();
                } else {
                    executed.fetch_add(1, Ordering::Relaxed);
                }
                queue.finish_one();
            }
        });
        assert!(executed.load(Ordering::Relaxed) < 1000);
    }

    #[test]
    fn seeded_schedule_executes_all_work() {
        // Same fan-out as `count_leaves`, but under the simulation
        // scheduler: every explored order must still visit every leaf.
        for seed in [1u64, 7, 42] {
            let total = AtomicU64::new(0);
            run_workers(2, vec![10u32], Some(seed), |_, queue| {
                while let Some((seed, _)) = queue.take() {
                    let mut local = vec![seed];
                    while let Some(d) = local.pop() {
                        if d == 0 {
                            total.fetch_add(1, Ordering::Relaxed);
                        } else {
                            local.push(d - 1);
                            local.push(d - 1);
                        }
                        if queue.is_hungry() && local.len() > 1 {
                            let half = local.len() / 2;
                            queue.donate(local.drain(..half));
                        }
                    }
                    queue.finish_one();
                }
            });
            assert_eq!(total.load(Ordering::Relaxed), 1 << 10, "seed={seed}");
        }
    }

    #[test]
    fn seeded_take_order_is_reproducible_and_differs_from_fifo() {
        let order = |sched: Option<u64>| -> Vec<u32> {
            let got = Mutex::new(Vec::new());
            run_workers(1, (0..16u32).collect(), sched, |_, queue| {
                while let Some((x, _)) = queue.take() {
                    got.lock().unwrap().push(x);
                    queue.finish_one();
                }
            });
            got.into_inner().unwrap()
        };
        assert_eq!(order(Some(9)), order(Some(9)));
        assert_ne!(order(Some(9)), order(None));
        assert_eq!(order(None), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn donated_items_are_flagged() {
        // Single worker: donate to an empty queue, then observe the flag.
        run_workers(1, vec![1u32], None, |_, queue| {
            let (first, donated) = queue.take().unwrap();
            assert_eq!((first, donated), (1, false));
            assert_eq!(queue.donate([7u32]), 1);
            queue.finish_one();
            let (second, donated) = queue.take().unwrap();
            assert_eq!((second, donated), (7, true));
            queue.finish_one();
            assert!(queue.take().is_none());
        });
    }
}
