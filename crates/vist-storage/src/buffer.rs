//! A fixed-capacity page cache with lock striping and CLOCK eviction.
//!
//! The pool owns its backing [`Pager`]. Frames are partitioned into
//! power-of-two *shards* keyed by a hash of the page id; a cache **hit**
//! touches only its shard's mutex, so readers on disjoint pages scale with
//! core count instead of serializing behind one pool-wide lock. The pager
//! itself sits behind a separate mutex and is only locked on a miss,
//! eviction write-back, allocation, or flush.
//!
//! What a **hit** costs is spelled out in `docs/CONCURRENCY.md`; its
//! registry and attribution updates go through [`vist_obs::batch`].
//!
//! On a **miss** the owning shard's mutex stays held across the pager read
//! (plus any eviction write-back), so cache hits on that same shard stall
//! for the duration of the cold I/O; hits on the other shards are
//! unaffected. This is a deliberate simplicity trade-off — it keeps
//! double-fetch races impossible without placeholder frames or per-frame
//! fill states.
//!
//! Pages are fetched through RAII guards ([`PageRef`], [`PageRefMut`]) that
//! pin the frame for their lifetime; eviction only considers unpinned frames
//! and writes dirty victims back.
//!
//! Lock hierarchy (see `docs/CONCURRENCY.md` at the repo root): a shard
//! mutex may be held while taking the pager mutex, never the reverse; frame
//! `RwLock`s are leaves and are never held while acquiring a shard lock.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::pager::{chunk_pages, PageIdMap};
use crate::sync::{Mutex, MutexGuard, OwnedReadGuard, OwnedWriteGuard, RwLock};
use crate::{Error, IoStats, PageId, Pager, Result};

/// Hard ceiling on the number of shards.
const MAX_SHARDS: usize = 16;
/// Minimum frames per shard; pools smaller than `2 * MIN_SHARD_FRAMES` stay
/// single-sharded so tiny-cache eviction semantics match the unsharded pool.
const MIN_SHARD_FRAMES: usize = 4;

struct Frame {
    pid: PageId,
    /// The page bytes behind the frame latch; guards own the `Arc<Frame>`.
    data: RwLock<Box<[u8]>>,
    dirty: AtomicBool,
    pins: AtomicUsize,
    referenced: AtomicBool,
}

/// One lock stripe: a slice of the frame map plus its own CLOCK hand.
struct ShardInner {
    map: PageIdMap<Arc<Frame>>,
    ring: Vec<Arc<Frame>>,
    hand: usize,
    capacity: usize,
    /// Lookup tallies, plain integers because every lookup holds the mutex
    /// anyway. `write_backs` lives in [`Shard`] instead.
    tally: ShardStats,
}

struct Shard {
    inner: Mutex<ShardInner>,
    /// Atomic because `flush` writes back outside the shard mutex.
    write_backs: AtomicU64,
}

/// Cache counters of a single buffer-pool shard.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Lookups that found the page cached in this shard.
    pub hits: u64,
    /// Subset of `hits` whose shard lock was acquired without blocking
    /// (`try_lock` succeeded) — a direct measure of how contention-free the
    /// striped hot path is.
    pub uncontended_hits: u64,
    /// Lookups that had to read the page from the pager.
    pub misses: u64,
    /// Dirty pages this shard wrote back (eviction or flush).
    pub write_backs: u64,
}

impl ShardStats {
    /// Hit ratio in `[0, 1]`; `None` when the shard saw no lookups.
    #[must_use]
    pub fn hit_ratio(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }
}

/// Per-shard statistics snapshot of a [`BufferPool`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardStats>,
}

impl PoolStats {
    /// Number of shards in the pool.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Sum of per-shard counters.
    #[must_use]
    pub fn totals(&self) -> ShardStats {
        let mut t = ShardStats::default();
        for s in &self.shards {
            t.hits += s.hits;
            t.uncontended_hits += s.uncontended_hits;
            t.misses += s.misses;
            t.write_backs += s.write_backs;
        }
        t
    }
}

/// A sharded page cache over a [`Pager`].
///
/// All methods take `&self`; the pool is internally synchronized and is
/// `Send + Sync` when its pager is. A cache hit takes only the owning
/// shard's mutex.
pub struct BufferPool {
    shards: Box<[Shard]>,
    shard_mask: u32,
    pager: Mutex<Box<dyn Pager>>,
    page_size: usize,
}

/// Shared (read) guard over a cached page.
pub struct PageRef {
    guard: OwnedReadGuard<Frame, Box<[u8]>>,
}

/// Exclusive (write) guard over a cached page. Marks the page dirty on drop.
pub struct PageRefMut {
    guard: OwnedWriteGuard<Frame, Box<[u8]>>,
}

impl PageRef {
    /// The page's id.
    #[must_use]
    pub fn id(&self) -> PageId {
        self.guard.owner().pid
    }

    /// The page contents.
    #[must_use]
    pub fn data(&self) -> &[u8] {
        &self.guard
    }
}

impl Drop for PageRef {
    fn drop(&mut self) {
        self.guard.owner().pins.fetch_sub(1, Ordering::Release);
    }
}

impl PageRefMut {
    /// The page's id.
    #[must_use]
    pub fn id(&self) -> PageId {
        self.guard.owner().pid
    }

    /// The page contents.
    #[must_use]
    pub fn data(&self) -> &[u8] {
        &self.guard
    }

    /// Mutable page contents.
    pub fn data_mut(&mut self) -> &mut [u8] {
        &mut self.guard
    }
}

impl Drop for PageRefMut {
    fn drop(&mut self) {
        let frame = self.guard.owner();
        frame.dirty.store(true, Ordering::Release);
        frame.pins.fetch_sub(1, Ordering::Release);
    }
}

/// Largest power-of-two shard count that keeps every shard at least
/// [`MIN_SHARD_FRAMES`] frames, capped at [`MAX_SHARDS`].
fn shard_count_for(capacity: usize) -> usize {
    let mut n = 1usize;
    while n * 2 <= MAX_SHARDS && capacity / (n * 2) >= MIN_SHARD_FRAMES {
        n *= 2;
    }
    n
}

impl BufferPool {
    /// Wrap `pager` with a cache of `capacity` frames (at least 4), striped
    /// over up to 16 shards.
    pub fn with_capacity<P: Pager + 'static>(pager: P, capacity: usize) -> Self {
        crate::register_metrics();
        let page_size = pager.page_size();
        let capacity = capacity.max(MIN_SHARD_FRAMES);
        let n = shard_count_for(capacity);
        let shards: Box<[Shard]> = (0..n)
            .map(|i| Shard {
                inner: Mutex::new(ShardInner {
                    map: PageIdMap::default(),
                    ring: Vec::new(),
                    hand: 0,
                    // Distribute the capacity; the first `capacity % n`
                    // shards take one extra frame.
                    capacity: capacity / n + usize::from(i < capacity % n),
                    tally: ShardStats::default(),
                }),
                write_backs: AtomicU64::new(0),
            })
            .collect();
        BufferPool {
            shards,
            shard_mask: (n - 1) as u32,
            pager: Mutex::new(Box::new(pager)),
            page_size,
        }
    }

    /// The shard owning `pid` (Fibonacci hash over the page id, so dense
    /// sequential ids still spread across shards).
    fn shard(&self, pid: PageId) -> &Shard {
        let h = pid.wrapping_mul(0x9E37_79B9).rotate_right(12);
        &self.shards[(h & self.shard_mask) as usize]
    }

    /// Page size of the underlying pager.
    #[must_use]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of shards the frame map is striped over.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Allocate a fresh page (zeroed) in the backing store.
    pub fn allocate(&self) -> Result<PageId> {
        self.pager.lock().allocate()
    }

    /// Drop every cached frame, dirty or not, and [`Pager::reset`] the
    /// backing store. Fails with [`Error::PagePinned`], changing nothing,
    /// while a guard pins a frame. Every shard lock is held across the
    /// pager call, so no fetch caches a page of the forgotten store.
    pub fn reset(&self) -> Result<()> {
        let mut shards: Vec<_> = self.shards.iter().map(|s| s.inner.lock()).collect();
        let pinned = shards
            .iter()
            .flat_map(|inner| &inner.ring)
            .find(|f| f.pins.load(Ordering::Acquire) > 0);
        if let Some(frame) = pinned {
            return Err(Error::PagePinned(u64::from(frame.pid)));
        }
        self.pager.lock().reset()?;
        for inner in &mut shards {
            inner.map.clear();
            inner.ring.clear();
            inner.hand = 0;
        }
        Ok(())
    }

    /// Lock a shard, reporting whether the lock was contended.
    fn lock_shard<'a>(shard: &'a Shard) -> (MutexGuard<'a, ShardInner>, bool) {
        match shard.inner.try_lock() {
            Some(g) => (g, false),
            None => (shard.inner.lock(), true),
        }
    }

    fn get_frame(&self, pid: PageId) -> Result<Arc<Frame>> {
        let shard = self.shard(pid);
        let (mut inner, contended) = Self::lock_shard(shard);
        if let Some(frame) = inner.map.get(&pid) {
            let frame = Arc::clone(frame);
            // Pinned under the shard mutex, which eviction also holds, so
            // the frame cannot leave the map between lookup and pin.
            frame.pins.fetch_add(1, Ordering::Acquire);
            inner.tally.hits += 1;
            inner.tally.uncontended_hits += u64::from(!contended);
            drop(inner);
            // Eviction skips pinned frames, so the reference bit can wait
            // for the unlock; written only when clear, a hot page's flag
            // stays a shared read.
            if !frame.referenced.load(Ordering::Relaxed) {
                frame.referenced.store(true, Ordering::Relaxed);
            }
            vist_obs::attr::pool_hit();
            return Ok(frame);
        }
        inner.tally.misses += 1;
        vist_obs::attr::pool_miss();
        if inner.ring.len() >= inner.capacity {
            self.evict_one(shard, &mut inner)?;
        }
        let mut buf = vec![0u8; self.page_size].into_boxed_slice();
        let t = vist_obs::now();
        self.pager.lock().read(pid, &mut buf)?;
        vist_obs::observe_since(vist_obs::histogram!("vist_storage_page_read_nanos"), t);
        vist_obs::attr::page_read(self.page_size as u64);
        let frame = Arc::new(Frame {
            pid,
            data: RwLock::new(buf),
            dirty: AtomicBool::new(false),
            pins: AtomicUsize::new(1),
            referenced: AtomicBool::new(true),
        });
        inner.map.insert(pid, Arc::clone(&frame));
        inner.ring.push(frame.clone());
        Ok(frame)
    }

    fn evict_one(&self, shard: &Shard, inner: &mut ShardInner) -> Result<()> {
        // Two full sweeps: the first clears reference bits, the second takes
        // any unpinned frame. If everything stays pinned, fail.
        let n = inner.ring.len();
        for _ in 0..2 * n {
            let idx = inner.hand % n;
            inner.hand = (inner.hand + 1) % n;
            let frame = Arc::clone(&inner.ring[idx]);
            if frame.pins.load(Ordering::Acquire) > 0 {
                continue;
            }
            if frame.referenced.swap(false, Ordering::Relaxed) {
                continue;
            }
            self.write_back(shard, &frame)?;
            inner.map.remove(&frame.pid);
            inner.ring.swap_remove(idx);
            if inner.hand >= inner.ring.len() {
                inner.hand = 0;
            }
            return Ok(());
        }
        Err(Error::PoolExhausted)
    }

    /// Write `frame` to the pager if it is dirty.
    fn write_back(&self, shard: &Shard, frame: &Frame) -> Result<()> {
        if !frame.dirty.swap(false, Ordering::AcqRel) {
            return Ok(());
        }
        let data = frame.data.read();
        let t = vist_obs::now();
        if let Err(e) = self.pager.lock().write(frame.pid, &data) {
            // Re-mark dirty so the modifications survive in cache and a
            // later eviction/flush retries the write instead of silently
            // dropping them.
            frame.dirty.store(true, Ordering::Release);
            return Err(e);
        }
        vist_obs::observe_since(vist_obs::histogram!("vist_storage_page_write_nanos"), t);
        shard.write_backs.fetch_add(1, Ordering::Relaxed);
        vist_obs::counter!("vist_storage_write_back_total").inc();
        Ok(())
    }

    /// Fetch a page for reading.
    pub fn fetch(&self, pid: PageId) -> Result<PageRef> {
        let frame = self.get_frame(pid)?;
        Ok(PageRef {
            guard: RwLock::read_owned(frame, |f| &f.data),
        })
    }

    /// Fetch a page for writing. The page is marked dirty when the guard
    /// drops.
    pub fn fetch_mut(&self, pid: PageId) -> Result<PageRefMut> {
        let frame = self.get_frame(pid)?;
        Ok(PageRefMut {
            guard: RwLock::write_owned(frame, |f| &f.data),
        })
    }

    /// Write all dirty cached pages back and sync the backing store.
    ///
    /// The dirty frames go to the pager sorted by page id, so that a run of
    /// consecutive pages reaches it as one, [`chunk_pages`] of them through
    /// each [`Pager::write_many`], outside the shard locks so concurrent
    /// fetches are not stalled by I/O. A
    /// frame's dirty bit is cleared only after the pager has taken its
    /// image, under the frame latch the image was read under: a frame that
    /// reads clean can be evicted and re-read from the pager without losing
    /// an update (`docs/CONCURRENCY.md`). A failed chunk leaves its frames
    /// dirty for the next flush or eviction to write.
    pub fn flush(&self) -> Result<()> {
        let mut dirty = Vec::new();
        for (s, shard) in self.shards.iter().enumerate() {
            let inner = shard.inner.lock();
            let frames = inner.ring.iter();
            dirty.extend(
                frames
                    .filter(|f| f.dirty.load(Ordering::Acquire))
                    .map(|f| (s, Arc::clone(f))),
            );
        }
        // A frame's page id never changes, so the order holds.
        dirty.sort_unstable_by_key(|(_, f)| f.pid);
        let mut rest = &dirty[..];
        while !rest.is_empty() {
            let chunk = rest.len().min(chunk_pages(self.page_size));
            rest = &rest[self.write_chunk(&rest[..chunk])?..];
        }
        self.pager.lock().sync()
    }

    /// Write back a prefix of `frames` (shard index, frame) with one
    /// [`Pager::write_many`] and return its length. The prefix holds at
    /// least the first frame and ends before the first whose latch a page
    /// writer holds: waiting for that latch while holding the others could
    /// deadlock against a writer that latches pages in another order, so
    /// that frame heads the next chunk instead.
    fn write_chunk(&self, frames: &[(usize, Arc<Frame>)]) -> Result<usize> {
        let mut latched = Vec::with_capacity(frames.len());
        for (i, (shard, frame)) in frames.iter().enumerate() {
            let data = match i {
                0 => frame.data.read(),
                _ => match frame.data.try_read() {
                    Some(data) => data,
                    None => break,
                },
            };
            latched.push((*shard, &**frame, data));
        }
        let taken = latched.len();
        // An eviction may have written a frame back since `flush` looked.
        latched.retain(|(_, frame, _)| frame.dirty.load(Ordering::Acquire));
        let pages: Vec<(PageId, &[u8])> = latched
            .iter()
            .map(|(_, frame, data)| (frame.pid, &data[..]))
            .collect();
        let t = vist_obs::now();
        self.pager.lock().write_many(&pages)?;
        vist_obs::observe_since(vist_obs::histogram!("vist_storage_page_write_nanos"), t);
        for (shard, frame, _) in &latched {
            frame.dirty.store(false, Ordering::Release);
            self.shards[*shard]
                .write_backs
                .fetch_add(1, Ordering::Relaxed);
        }
        vist_obs::counter!("vist_storage_write_back_total").add(latched.len() as u64);
        Ok(taken)
    }

    /// [`BufferPool::flush`], then [`Pager::checkpoint`] the backing store.
    pub fn checkpoint(&self) -> Result<()> {
        self.flush()?;
        self.pager.lock().checkpoint()
    }

    /// Total bytes of the backing store (the on-disk index size).
    #[must_use]
    pub fn store_bytes(&self) -> u64 {
        self.pager.lock().store_bytes()
    }

    /// Combined pager + cache statistics, aggregated over all shards.
    #[must_use]
    pub fn stats(&self) -> IoStats {
        let store_bytes = self.store_bytes();
        vist_obs::gauge!("vist_storage_store_bytes")
            .set(i64::try_from(store_bytes).unwrap_or(i64::MAX));
        let mut s = self.pager.lock().stats();
        let t = self.pool_stats().totals();
        s.cache_hits = t.hits;
        s.cache_misses = t.misses;
        s.write_backs = t.write_backs;
        s
    }

    /// Per-shard cache statistics.
    #[must_use]
    pub fn pool_stats(&self) -> PoolStats {
        PoolStats {
            shards: self
                .shards
                .iter()
                .map(|s| ShardStats {
                    write_backs: s.write_backs.load(Ordering::Relaxed),
                    ..s.inner.lock().tally
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemPager;
    use std::sync::mpsc;

    fn pool(cap: usize) -> BufferPool {
        BufferPool::with_capacity(MemPager::new(256), cap)
    }

    #[test]
    fn shard_count_scales_with_capacity() {
        assert_eq!(shard_count_for(4), 1);
        assert_eq!(shard_count_for(7), 1);
        assert_eq!(shard_count_for(8), 2);
        assert_eq!(shard_count_for(64), 16);
        assert_eq!(shard_count_for(1024), 16);
        assert_eq!(pool(4).shard_count(), 1);
        assert_eq!(pool(1024).shard_count(), 16);
    }

    #[test]
    fn shard_capacities_sum_to_total() {
        for cap in [4usize, 9, 17, 63, 64, 100, 1024] {
            let p = pool(cap);
            let total: usize = p.shards.iter().map(|s| s.inner.lock().capacity).sum();
            assert_eq!(total, cap, "capacity {cap}");
        }
    }

    #[test]
    fn fetch_returns_written_data() {
        let pool = pool(8);
        let pid = pool.allocate().unwrap();
        {
            let mut p = pool.fetch_mut(pid).unwrap();
            p.data_mut()[0] = 99;
        }
        assert_eq!(pool.fetch(pid).unwrap().data()[0], 99);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let pool = pool(4);
        let mut pids = Vec::new();
        for i in 0..32u8 {
            let pid = pool.allocate().unwrap();
            pool.fetch_mut(pid).unwrap().data_mut()[0] = i;
            pids.push(pid);
        }
        // Every page must survive eviction churn.
        for (i, pid) in pids.iter().enumerate() {
            assert_eq!(pool.fetch(*pid).unwrap().data()[0], i as u8);
        }
        assert!(pool.stats().write_backs > 0, "evictions happened");
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let pool = pool(4);
        let pinned = pool.allocate().unwrap();
        pool.fetch_mut(pinned).unwrap().data_mut()[0] = 0xCC;
        let guard = pool.fetch(pinned).unwrap();
        for _ in 0..16 {
            let pid = pool.allocate().unwrap();
            pool.fetch_mut(pid).unwrap().data_mut()[0] = 1;
        }
        assert_eq!(guard.data()[0], 0xCC);
        drop(guard);
    }

    #[test]
    fn all_pinned_pool_exhausted() {
        let pool = pool(4);
        let mut guards = Vec::new();
        for _ in 0..4 {
            let pid = pool.allocate().unwrap();
            guards.push(pool.fetch(pid).unwrap());
        }
        let extra = pool.allocate().unwrap();
        assert!(matches!(pool.fetch(extra), Err(Error::PoolExhausted)));
        drop(guards);
        assert!(pool.fetch(extra).is_ok());
    }

    #[test]
    fn reset_with_a_pinned_frame_fails_and_keeps_every_page() {
        let pool = pool(8);
        let pids: Vec<PageId> = (0..6u8)
            .map(|i| {
                let pid = pool.allocate().unwrap();
                pool.fetch_mut(pid).unwrap().data_mut()[0] = i + 1;
                pid
            })
            .collect();
        pool.flush().unwrap();
        pool.fetch_mut(pids[5]).unwrap().data_mut()[0] = 0xDD;
        let g = pool.fetch(pids[2]).unwrap();
        assert!(matches!(
            pool.reset(),
            Err(Error::PagePinned(p)) if p == u64::from(pids[2])
        ));
        for (i, &pid) in pids.iter().enumerate() {
            let want = if i == 5 { 0xDD } else { i as u8 + 1 };
            assert_eq!(pool.fetch(pid).unwrap().data()[0], want, "page {pid}");
        }
        drop(g);
        pool.reset().unwrap();
        assert_eq!(pool.store_bytes(), 0);
        assert!(pool.fetch(pids[2]).is_err(), "no frame and no page");
        // Ids start over, and a page handed out again reads as zeros, not
        // as a cached frame of the forgotten store.
        assert_eq!(pool.allocate().unwrap(), pids[0]);
        assert_eq!(pool.fetch(pids[0]).unwrap().data()[0], 0);
    }

    /// A pager whose writes fail while `fail_writes` is set — for testing
    /// write-back error handling — or, with `stall_writes`, report their
    /// page and wait for a go-ahead; its reads yield the thread first, as a
    /// read waiting on a device would.
    struct FlakyPager {
        inner: MemPager,
        fail_writes: std::sync::Arc<AtomicBool>,
        stall_writes: Option<(mpsc::Sender<PageId>, mpsc::Receiver<()>)>,
    }

    fn flaky(fail_writes: &Arc<AtomicBool>) -> FlakyPager {
        FlakyPager {
            inner: MemPager::new(256),
            fail_writes: Arc::clone(fail_writes),
            stall_writes: None,
        }
    }

    impl Pager for FlakyPager {
        fn page_size(&self) -> usize {
            self.inner.page_size()
        }
        fn allocate(&mut self) -> Result<PageId> {
            self.inner.allocate()
        }
        fn reset(&mut self) -> Result<()> {
            self.inner.reset()
        }
        fn read(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
            std::thread::yield_now();
            self.inner.read(id, buf)
        }
        fn write(&mut self, id: PageId, buf: &[u8]) -> Result<()> {
            if self.fail_writes.load(Ordering::Relaxed) {
                return Err(Error::Io(std::io::Error::other("injected write failure")));
            }
            if let Some((wrote, go)) = &self.stall_writes {
                wrote.send(id).unwrap();
                go.recv().unwrap();
            }
            self.inner.write(id, buf)
        }
        fn store_bytes(&self) -> u64 {
            self.inner.store_bytes()
        }
        fn sync(&mut self) -> Result<()> {
            self.inner.sync()
        }
        fn stats(&self) -> IoStats {
            self.inner.stats()
        }
    }

    #[test]
    fn failed_write_back_keeps_page_dirty() {
        let fail = std::sync::Arc::new(AtomicBool::new(false));
        let pool = BufferPool::with_capacity(flaky(&fail), 4);
        let pid = pool.allocate().unwrap();
        pool.fetch_mut(pid).unwrap().data_mut()[0] = 0xAB;

        // flush() must propagate the error and leave the page dirty...
        fail.store(true, Ordering::Relaxed);
        assert!(matches!(pool.flush(), Err(Error::Io(_))));
        // ...and eviction write-back must do the same: churn until the
        // dirty page becomes the victim and the injected error surfaces.
        let mut evict_failed = false;
        for _ in 0..8 {
            let p = pool.allocate().unwrap();
            if matches!(pool.fetch(p), Err(Error::Io(_))) {
                evict_failed = true;
                break;
            }
        }
        assert!(evict_failed, "eviction never tried the dirty page");

        // Once writes succeed again the retained dirty bit must get the
        // modification to the pager — evict the page and re-read it.
        fail.store(false, Ordering::Relaxed);
        for _ in 0..8 {
            let p = pool.allocate().unwrap();
            let _ = pool.fetch(p).unwrap();
        }
        assert_eq!(pool.fetch(pid).unwrap().data()[0], 0xAB);
    }

    /// The pager is writing a flushed page: the page's frame is still
    /// dirty, so no eviction can drop it before the pager holds its image.
    #[test]
    fn a_frame_stays_dirty_until_the_pager_holds_its_image() {
        let (wrote, writing) = mpsc::channel();
        let (go, wait) = mpsc::channel();
        let mut pager = flaky(&Arc::new(AtomicBool::new(false)));
        pager.stall_writes = Some((wrote, wait));
        let pool = Arc::new(BufferPool::with_capacity(pager, 4));
        let pid = pool.allocate().unwrap();
        pool.fetch_mut(pid).unwrap().data_mut()[0] = 7;
        let frame = Arc::clone(&pool.shard(pid).inner.lock().map[&pid]);
        let flush = std::thread::spawn({
            let pool = Arc::clone(&pool);
            move || pool.flush()
        });
        assert_eq!(writing.recv().unwrap(), pid);
        assert!(
            frame.dirty.load(Ordering::Acquire),
            "clean before the pager has the image"
        );
        go.send(()).unwrap();
        flush.join().unwrap().unwrap();
        assert!(!frame.dirty.load(Ordering::Acquire));
    }

    /// A writer rewrites three of sixteen pages a round and flushes, while
    /// three readers fetch all sixteen through an eight-frame pool, so
    /// frames are evicted and read back from the pager all through the
    /// flush. (Two shards of four frames: a miss holds its shard's lock
    /// across the pager read, so with one shard no other reader could evict
    /// while a read waits for the pager.) Every read must see at least the
    /// image of the last flush that wrote the page, and the writer must find
    /// its own last image before changing a page: a frame dropped as clean
    /// before its image reached the pager would be read back stale, and the
    /// writer's next change would be made on the stale bytes.
    #[test]
    fn pages_evicted_and_reread_during_a_flush_keep_its_images() {
        use std::sync::atomic::AtomicU32;
        const PAGES: usize = 16;
        const ROUNDS: u32 = 20_000;
        let pool = Arc::new(BufferPool::with_capacity(
            flaky(&Arc::new(AtomicBool::new(false))),
            8,
        ));
        assert_eq!(pool.shard_count(), 2);
        let pids: Vec<PageId> = (0..PAGES).map(|_| pool.allocate().unwrap()).collect();
        // Round number of the newest image of each page the pager holds.
        let flushed: Arc<Vec<AtomicU32>> =
            Arc::new((0..PAGES).map(|_| AtomicU32::new(0)).collect());
        let round = |page: &[u8]| u32::from_le_bytes(page[..4].try_into().unwrap());
        let done = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..3u64)
            .map(|r| {
                let (pool, pids) = (Arc::clone(&pool), pids.clone());
                let (flushed, done) = (Arc::clone(&flushed), Arc::clone(&done));
                std::thread::spawn(move || {
                    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ r;
                    while !done.load(Ordering::Acquire) {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let i = (x % PAGES as u64) as usize;
                        let floor = flushed[i].load(Ordering::Acquire);
                        let seen = round(pool.fetch(pids[i]).unwrap().data());
                        assert!(
                            seen >= floor,
                            "page {i}: round {seen} after flush of {floor}"
                        );
                    }
                })
            })
            .collect();
        let mut model = [0u32; PAGES];
        for r in 1..=ROUNDS {
            let written: Vec<usize> = (0..3).map(|k| (r as usize * 3 + k) % PAGES).collect();
            for &i in &written {
                let mut page = pool.fetch_mut(pids[i]).unwrap();
                assert_eq!(round(page.data()), model[i], "page {i} before round {r}");
                page.data_mut()[..4].copy_from_slice(&r.to_le_bytes());
                model[i] = r;
            }
            pool.flush().unwrap();
            for &i in &written {
                flushed[i].store(r, Ordering::Release);
            }
        }
        done.store(true, Ordering::Release);
        for reader in readers {
            reader.join().unwrap();
        }
    }

    /// The dirty frames a flush would write, in its order.
    fn dirty_pids(pool: &BufferPool) -> Vec<PageId> {
        let mut pids = Vec::new();
        for shard in pool.shards.iter() {
            let inner = shard.inner.lock();
            let dirty = inner
                .ring
                .iter()
                .filter(|f| f.dirty.load(Ordering::Acquire));
            pids.extend(dirty.map(|f| f.pid));
        }
        pids.sort_unstable();
        pids
    }

    /// A write chunk that fails leaves every frame of it dirty, and those
    /// after it; the chunks before it are written. Then a second flush
    /// commits everything.
    #[test]
    fn a_failed_chunk_stays_dirty_and_the_next_flush_commits_it() {
        use crate::testutil::TempDir;
        use crate::{FaultMode, FaultVfs, FilePager, RealVfs};
        // 64 KiB pages: 16 to a chunk, so 40 dirty pages are 3 chunks.
        const PS: usize = 1 << 16;
        let image = |pid: PageId| vec![pid as u8; PS];
        let dir = TempDir::new("pool-chunk-fail");
        let path = dir.file("store");
        // Operations 0, 1 and 2 of the flush write the three chunks, 3 the
        // commit's header image.
        for op in 0..4 {
            let vfs = FaultVfs::new(Arc::new(RealVfs));
            let pool =
                BufferPool::with_capacity(FilePager::create_with_vfs(&vfs, &path, PS).unwrap(), 64);
            let pids: Vec<PageId> = (0..40).map(|_| pool.allocate().unwrap()).collect();
            for &pid in &pids {
                pool.fetch_mut(pid)
                    .unwrap()
                    .data_mut()
                    .copy_from_slice(&image(pid));
            }
            let order = dirty_pids(&pool);
            assert_eq!(order.len(), 40);
            let h = vfs.handle();
            h.schedule(h.op_count() + op, FaultMode::Fail, 0);
            assert!(pool.flush().is_err(), "fault at op {op}");
            let clean = [0, 16, 32].get(op as usize).copied().unwrap_or(40);
            assert_eq!(dirty_pids(&pool), order[clean..], "fault at op {op}");
            pool.flush().unwrap();
            assert!(dirty_pids(&pool).is_empty());
            drop(pool);
            let mut p = FilePager::open(&path).unwrap();
            let mut buf = vec![0u8; PS];
            for &pid in &pids {
                p.read(pid, &mut buf).unwrap();
                assert!(buf == image(pid), "page {pid} after a fault at op {op}");
            }
        }
    }

    #[test]
    fn hit_ratio_tracked() {
        let pool = pool(8);
        let pid = pool.allocate().unwrap();
        let _ = pool.fetch(pid).unwrap();
        let _ = pool.fetch(pid).unwrap();
        let s = pool.stats();
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.cache_hits, 1);
        let ps = pool.pool_stats();
        assert_eq!(ps.totals().hits, 1);
        assert_eq!(ps.totals().misses, 1);
        assert_eq!(ps.totals().hit_ratio(), Some(0.5));
    }

    #[test]
    fn uncontended_hits_counted_single_threaded() {
        let pool = pool(8);
        let pid = pool.allocate().unwrap();
        for _ in 0..10 {
            let _ = pool.fetch(pid).unwrap();
        }
        let t = pool.pool_stats().totals();
        // First fetch misses; with no other threads, every hit is uncontended.
        assert_eq!(t.hits, 9);
        assert_eq!(t.uncontended_hits, 9);
    }

    #[test]
    fn flush_persists_through_reopen_cycle() {
        // flush() + direct pager semantics are covered with MemPager by
        // evicting everything and re-reading.
        let pool = pool(4);
        let pid = pool.allocate().unwrap();
        pool.fetch_mut(pid).unwrap().data_mut()[7] = 0x77;
        pool.flush().unwrap();
        // Evict by churning other pages.
        for _ in 0..16 {
            let p = pool.allocate().unwrap();
            let _ = pool.fetch(p).unwrap();
        }
        assert_eq!(pool.fetch(pid).unwrap().data()[7], 0x77);
    }

    #[test]
    fn concurrent_hits_spread_across_shards() {
        let pool = std::sync::Arc::new(pool(64));
        let mut pids = Vec::new();
        for i in 0..32u8 {
            let pid = pool.allocate().unwrap();
            pool.fetch_mut(pid).unwrap().data_mut()[0] = i;
            pids.push(pid);
        }
        let pids = std::sync::Arc::new(pids);
        let mut handles = Vec::new();
        for t in 0..8usize {
            let pool = std::sync::Arc::clone(&pool);
            let pids = std::sync::Arc::clone(&pids);
            handles.push(std::thread::spawn(move || {
                for round in 0..500usize {
                    let i = (t * 13 + round) % pids.len();
                    let p = pool.fetch(pids[i]).unwrap();
                    assert_eq!(p.data()[0], i as u8);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let ps = pool.pool_stats();
        assert!(ps.shard_count() > 1);
        // Hits landed on more than one shard.
        let active = ps.shards.iter().filter(|s| s.hits > 0).count();
        assert!(active > 1, "stats: {ps:?}");
        // The 32 setup fetches are all misses; the 8×500 reads all hit.
        assert_eq!(ps.totals().hits, 8 * 500);
    }
}
