//! A commit is not a checkpoint: `FilePager::sync` seals the write-ahead
//! log and leaves it in place until the log has grown to the data file's
//! size (or `Pager::checkpoint` asks). These tests hold the state in
//! between: a log of several commits replays whole, reads resolve through
//! it, it never outgrows the data file by more than one commit, and a sync
//! with nothing to commit touches no file.

use std::path::Path;
use std::sync::Arc;

use vist_storage::testutil::TempDir;
use vist_storage::{BufferPool, FaultVfs, FilePager, PageId, Pager, RealVfs, Vfs, PAGE_TRAILER};

const PS: usize = 256;
/// Bytes of an empty log: its header.
const WAL_HDR: u64 = 16;
/// Pages of the store every test starts from.
const PAGES: u32 = 64;

fn image(tag: u32) -> Vec<u8> {
    (0..PS)
        .map(|i| (tag as u8).wrapping_mul(29) ^ i as u8)
        .collect()
}

fn wal_len(path: &Path) -> u64 {
    std::fs::metadata(FilePager::wal_path(path)).unwrap().len()
}

/// Pages `1..=PAGES` holding `image(id)`. The first commit logs every frame,
/// so it is also a checkpoint, and the data file is then large next to a
/// commit of a page or two.
fn store(vfs: &dyn Vfs, path: &Path) -> FilePager {
    let mut p = FilePager::create_with_vfs(vfs, path, PS).unwrap();
    for _ in 0..PAGES {
        let id = p.allocate().unwrap();
        p.write(id, &image(id)).unwrap();
    }
    p.sync().unwrap();
    assert_eq!((p.stats().wal_commits, p.stats().checkpoints), (1, 1));
    assert_eq!(wal_len(path), WAL_HDR);
    p
}

fn read(p: &mut FilePager, id: PageId) -> Vec<u8> {
    let mut buf = vec![0u8; PS];
    p.read(id, &mut buf).unwrap();
    buf
}

#[test]
fn commits_without_a_checkpoint_all_replay_on_reopen() {
    const N: u32 = 10;
    let dir = TempDir::new("commit-replay");
    let path = dir.file("store");
    {
        let mut p = store(&RealVfs, &path);
        for c in 1..=N {
            p.write(c, &image(1000 + c)).unwrap();
            p.sync().unwrap();
            assert_eq!(read(&mut p, c), image(1000 + c));
        }
        assert_eq!(p.stats().wal_commits, 1 + u64::from(N));
        assert_eq!(p.stats().checkpoints, 1, "no commit reached the size rule");
        assert!(wal_len(&path) > WAL_HDR);
        // Dropped with every commit still in the log.
    }
    let mut p = FilePager::open(&path).unwrap();
    // One page a commit plus the header: every commit was replayed.
    assert_eq!(p.stats().recovered_pages, u64::from(N) + 1);
    assert_eq!(p.stats().wal_discarded_bytes, 0);
    assert_eq!(wal_len(&path), WAL_HDR, "open truncates the log");
    for id in 1..=PAGES {
        let want = if id <= N { image(1000 + id) } else { image(id) };
        assert_eq!(read(&mut p, id), want, "page {id}");
    }
    let frame = (PS + PAGE_TRAILER) as u64;
    assert_eq!(p.store_bytes(), (u64::from(PAGES) + 1) * frame);
}

#[test]
fn page_evicted_after_a_commit_reads_back_from_the_log() {
    let dir = TempDir::new("commit-evict");
    let path = dir.file("store");
    let pool = BufferPool::with_capacity(store(&RealVfs, &path), 4);
    pool.fetch_mut(5)
        .unwrap()
        .data_mut()
        .copy_from_slice(&image(0xAB));
    pool.flush().unwrap();
    assert_eq!(pool.stats().checkpoints, 1, "the commit stays in the log");
    // The data file still holds the old image of page 5.
    let frame = (PS + PAGE_TRAILER) * 5;
    assert_eq!(std::fs::read(&path).unwrap()[frame..frame + PS], image(5));
    // Push page 5 out of the four-frame pool, then read it again.
    for id in 10..30 {
        assert_eq!(pool.fetch(id).unwrap().data(), image(id));
    }
    let misses = pool.stats().cache_misses;
    assert_eq!(pool.fetch(5).unwrap().data(), image(0xAB));
    assert_eq!(pool.stats().cache_misses, misses + 1, "page 5 was evicted");
}

#[test]
fn log_never_outgrows_the_data_file_by_more_than_one_commit() {
    let dir = TempDir::new("commit-bound");
    let path = dir.file("store");
    let mut p = store(&RealVfs, &path);
    let mut live: Vec<PageId> = (1..=PAGES).collect();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let (mut deferred, mut last_wal) = (0u64, WAL_HDR);
    for step in 0..600u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        match x % 8 {
            0 => {
                let id = p.allocate().unwrap();
                p.write(id, &image(step)).unwrap();
                live.push(id);
            }
            2..=4 => {
                let id = live[(x >> 8) as usize % live.len()];
                p.write(id, &image(step)).unwrap();
            }
            _ => {
                let before = p.stats();
                p.sync().unwrap();
                let after = p.stats();
                let wal = wal_len(&path);
                if after.checkpoints == before.checkpoints {
                    // The size rule did not fire: the log is below the
                    // data file, so before this commit it was below the
                    // data file by at least the commit's bytes.
                    assert!(wal < p.store_bytes(), "step {step}: {wal} B of log");
                    deferred += after.wal_commits - before.wal_commits;
                } else {
                    assert_eq!(wal, WAL_HDR, "step {step}: a checkpoint truncates");
                }
                assert!(last_wal < p.store_bytes(), "step {step}");
                last_wal = wal;
            }
        }
    }
    let s = p.stats();
    assert!(deferred > 10, "only {deferred} commits stayed in the log");
    assert!(s.checkpoints > 3, "only {} checkpoints", s.checkpoints);
    assert!(s.wal_commits > s.checkpoints);
}

#[test]
fn clean_sync_and_checkpoint_touch_no_file() {
    let dir = TempDir::new("commit-clean");
    let path = dir.file("store");
    let vfs = FaultVfs::new(Arc::new(RealVfs));
    let ops = vfs.handle();
    let mut p = store(&vfs, &path);
    p.write(3, &image(333)).unwrap();
    p.sync().unwrap();
    assert_eq!(p.stats().checkpoints, 1);
    let before = ops.op_count();
    p.sync().unwrap();
    assert_eq!(ops.op_count(), before, "a clean sync is a no-op");
    // An explicit checkpoint applies the commit still in the log...
    p.checkpoint().unwrap();
    assert_eq!((p.stats().wal_commits, p.stats().checkpoints), (2, 2));
    assert_eq!(wal_len(&path), WAL_HDR);
    let frame = (PS + PAGE_TRAILER) * 3;
    assert_eq!(std::fs::read(&path).unwrap()[frame..frame + PS], image(333));
    // ...and then nothing is left for either call to do.
    let before = ops.op_count();
    p.sync().unwrap();
    p.checkpoint().unwrap();
    assert_eq!(ops.op_count(), before);
    assert_eq!(p.stats().checkpoints, 2);
}

/// 64 KiB pages: 16 frames to a write chunk.
const BIG: usize = 1 << 16;

fn big_image(id: PageId, round: u8) -> Vec<u8> {
    vec![round ^ id as u8; BIG]
}

/// Forty pages checkpointed in round 1, then two commits left in the log:
/// round 2 rewrites pages 2, 3, 5, 9..=30 and 40 (gaps between runs, a run
/// longer than a chunk), round 3 rewrites pages 5 and 20 again.
fn logged_runs(vfs: &dyn Vfs, path: &Path) -> FilePager {
    let mut p = FilePager::create_with_vfs(vfs, path, BIG).unwrap();
    for _ in 0..40 {
        let id = p.allocate().unwrap();
        p.write(id, &big_image(id, 1)).unwrap();
    }
    p.sync().unwrap();
    let round_2: Vec<PageId> = [2, 3, 5, 40].into_iter().chain(9..=30).collect();
    for (round, ids) in [(2, round_2), (3, vec![5, 20])] {
        let images: Vec<Vec<u8>> = ids.iter().map(|&id| big_image(id, round)).collect();
        let pages: Vec<(PageId, &[u8])> = ids
            .iter()
            .copied()
            .zip(images.iter().map(|i| &i[..]))
            .collect();
        p.write_many(&pages).unwrap();
        p.sync().unwrap();
    }
    assert_eq!((p.stats().wal_commits, p.stats().checkpoints), (3, 1));
    p
}

/// Every page of [`logged_runs`] holds its newest image, read through a
/// reopened store, so every frame's checksum is verified.
fn assert_newest_images(path: &Path) {
    let mut p = FilePager::open(path).unwrap();
    let mut buf = vec![0u8; BIG];
    for id in 1..=40 {
        let round = match id {
            5 | 20 => 3,
            2 | 3 | 9..=30 | 40 => 2,
            _ => 1,
        };
        p.read(id, &mut buf).unwrap();
        assert!(buf == big_image(id, round), "page {id}");
    }
}

#[test]
fn a_checkpoint_writes_runs_of_frames_holding_the_newest_images() {
    let dir = TempDir::new("commit-runs");
    let path = dir.file("store");
    let vfs = FaultVfs::new(Arc::new(RealVfs));
    let ops = vfs.handle();
    let mut p = logged_runs(&vfs, &path);
    let before = ops.op_count();
    p.checkpoint().unwrap();
    // One read a logged page, the header's included (27); one write a run:
    // [0], [2, 3], [5], [9..=24] (a chunk), [25..=30], [40]; then the data
    // file's fsync, the log's truncation and its fsync.
    assert_eq!(ops.op_count() - before, 27 + 6 + 3);
    assert_eq!(wal_len(&path), WAL_HDR);
    drop(p);
    assert_newest_images(&path);
}

#[test]
fn a_replay_writes_the_same_frames_as_a_checkpoint() {
    let dir = TempDir::new("commit-replay-runs");
    let path = dir.file("store");
    drop(logged_runs(&RealVfs, &path));
    let p = FilePager::open(&path).unwrap();
    assert_eq!(p.stats().recovered_pages, 27);
    drop(p);
    assert_newest_images(&path);
}
