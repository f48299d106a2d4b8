//! Exhaustive crash-recovery property tests.
//!
//! For a seeded workload of allocate / write / reset / sync operations, a
//! clean run counts every file-system operation it performs (`T`). Then,
//! for **every** injection point `N in 0..T`, the workload is re-run with a
//! crash at operation `N` — the scheduled write persists only a seeded torn
//! prefix, and everything after fails as if the process died. The store is
//! then reopened for real and must equal, page for page, the last oracle
//! snapshot that a commit made durable (or, when the crash hit inside a
//! sync, either that snapshot or the one the sync was committing — the
//! commit record may or may not have reached disk).
//!
//! On top of that, every crashed state is recovered *through another crash
//! sweep*: recovery itself is interrupted at each of its operations, and the
//! store reopened for real afterwards — recovery-during-recovery must
//! converge to the same snapshot.
//!
//! A third workload starts from a store of [`PREFILL`] pages, so that a
//! commit of a few pages no longer reaches the data file's size, and ends
//! with one-page commits until the log has: commits pile up in the log
//! before a checkpoint applies them, and the sweep must crash both with
//! several commits in the log and inside such a deferred checkpoint.
//!
//! Environment knobs (used by the CI crash-matrix job):
//! * `VIST_CRASH_SEEDS`  — comma-separated workload seeds (default `1`)
//! * `VIST_CRASH_STEPS`  — workload length (default `24`)
//! * `VIST_CRASH_PAGE_SIZES` — comma-separated page sizes (default `256`)

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use vist_storage::testutil::TempDir;
use vist_storage::{
    BufferPool, FaultMode, FaultVfs, FilePager, IoStats, PageId, Pager, RealVfs, Vfs, PAGE_TRAILER,
};

/// Pages written and checkpointed before the prefilled workload's seeded
/// actions; twice as many one-page commits follow them.
const PREFILL: u64 = 8;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = splitmix(self.0);
        self.0
    }
}

fn page_image(page_size: usize, tag: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(page_size + 8);
    let mut x = tag;
    while v.len() < page_size {
        x = splitmix(x);
        v.extend_from_slice(&x.to_le_bytes());
    }
    v.truncate(page_size);
    v
}

/// Oracle: the full durable state a checkpoint promises.
#[derive(Clone, Default, PartialEq)]
struct Snapshot {
    pages: HashMap<PageId, Vec<u8>>,
    /// Pages allocated since the store was created or last reset.
    live: u64,
}

enum RunEnd {
    /// The workload finished; the final checkpoint's snapshot is the state.
    Completed(Snapshot),
    /// An injected crash stopped the run; the recovered store must equal
    /// one of these snapshots.
    Crashed(Vec<Snapshot>),
    /// The crash hit before the store finished creating: reopening may
    /// fail, but if it succeeds the store must be empty.
    CreateCrashed,
}

/// The workload's action stream, identical for the pager- and pool-level
/// drivers: the RNG is consumed in the same order regardless of faults.
enum Action {
    AllocWrite(u64),
    AllocOnly,
    Rewrite(u64, u64),
    /// Forget every page; the reset checkpoints what came before it.
    Reset,
    Checkpoint,
}

/// What the log held where a run stopped, read from the pager's counters
/// around every sync: the commits not yet checkpointed, and whether the
/// stop fell inside the checkpoint after a commit.
#[derive(Default, Clone, Copy)]
struct WalProbe {
    commits: u64,
    in_checkpoint: bool,
}

impl WalProbe {
    fn note(&mut self, before: IoStats, after: IoStats, ok: bool) {
        self.commits += after.wal_commits - before.wal_commits;
        if after.checkpoints > before.checkpoints {
            self.commits = 0;
        }
        // A failed sync whose commit landed failed in the checkpoint.
        self.in_checkpoint = !ok && after.wal_commits > before.wal_commits;
    }
}

/// The workload's actions: `prefill` written pages and a checkpoint, then
/// `steps + 1` seeded ones, then `2 × prefill` one-page commits. Each of
/// those adds two page images to the log and no frame to the data file.
fn actions(seed: u64, steps: u64, prefill: u64) -> impl Iterator<Item = Action> {
    let mut rng = Rng(seed);
    let head = (0..prefill)
        .map(Action::AllocWrite)
        .chain((prefill > 0).then_some(Action::Checkpoint));
    let tail = (0..2 * prefill).flat_map(|i| [Action::Rewrite(i, !i), Action::Checkpoint]);
    head.chain((0..=steps).map(move |_| next_action(&mut rng)))
        .chain(tail)
}

fn next_action(rng: &mut Rng) -> Action {
    let r = rng.next();
    match r % 10 {
        0..=2 => Action::AllocWrite(rng.next()),
        3 => Action::AllocOnly,
        4..=6 => Action::Rewrite(r >> 4, rng.next()),
        7 => Action::Reset,
        _ => Action::Checkpoint,
    }
}

/// Drive a seeded workload straight against a [`FilePager`].
fn run_pager_workload(
    vfs: &dyn Vfs,
    path: &Path,
    ps: usize,
    seed: u64,
    steps: u64,
    wal: &mut WalProbe,
) -> RunEnd {
    pager_workload(vfs, path, ps, seed, steps, 0, wal)
}

/// [`run_pager_workload`] on a store of [`PREFILL`] pages.
fn run_prefilled_pager_workload(
    vfs: &dyn Vfs,
    path: &Path,
    ps: usize,
    seed: u64,
    steps: u64,
    wal: &mut WalProbe,
) -> RunEnd {
    pager_workload(vfs, path, ps, seed, steps, PREFILL, wal)
}

fn pager_workload(
    vfs: &dyn Vfs,
    path: &Path,
    page_size: usize,
    seed: u64,
    steps: u64,
    prefill: u64,
    probe: &mut WalProbe,
) -> RunEnd {
    let Ok(mut pager) = FilePager::create_with_vfs(vfs, path, page_size) else {
        return RunEnd::CreateCrashed;
    };
    let mut model: HashMap<PageId, Vec<u8>> = HashMap::new();
    let mut live: Vec<PageId> = Vec::new();
    let mut durable = Snapshot::default();

    let snap = |model: &HashMap<PageId, Vec<u8>>, live: &Vec<PageId>| Snapshot {
        pages: model.clone(),
        live: live.len() as u64,
    };

    // A sync, or a reset (which checkpoints), noted in the probe.
    let mut commit = |pager: &mut FilePager, op: fn(&mut FilePager) -> vist_storage::Result<()>| {
        let before = pager.stats();
        let result = op(pager);
        probe.note(before, pager.stats(), result.is_ok());
        result
    };

    for action in actions(seed, steps, prefill) {
        match action {
            Action::AllocWrite(tag) => {
                let Ok(id) = pager.allocate() else {
                    return RunEnd::Crashed(vec![durable]);
                };
                let img = page_image(page_size, tag);
                if pager.write(id, &img).is_err() {
                    return RunEnd::Crashed(vec![durable]);
                }
                model.insert(id, img);
                live.push(id);
            }
            Action::AllocOnly => {
                let Ok(id) = pager.allocate() else {
                    return RunEnd::Crashed(vec![durable]);
                };
                model.insert(id, vec![0u8; page_size]);
                live.push(id);
            }
            Action::Rewrite(pick, tag) => {
                if live.is_empty() {
                    continue;
                }
                let id = live[pick as usize % live.len()];
                let img = page_image(page_size, tag);
                if pager.write(id, &img).is_err() {
                    return RunEnd::Crashed(vec![durable]);
                }
                model.insert(id, img);
            }
            Action::Reset => {
                let attempt = snap(&model, &live);
                match commit(&mut pager, FilePager::reset) {
                    Ok(()) => durable = attempt,
                    Err(_) => return RunEnd::Crashed(vec![durable, attempt]),
                }
                model.clear();
                live.clear();
            }
            Action::Checkpoint => {
                let attempt = snap(&model, &live);
                match commit(&mut pager, FilePager::sync) {
                    Ok(()) => durable = attempt,
                    Err(_) => return RunEnd::Crashed(vec![durable, attempt]),
                }
            }
        }
    }
    let attempt = snap(&model, &live);
    match commit(&mut pager, FilePager::sync) {
        Ok(()) => RunEnd::Completed(attempt),
        Err(_) => RunEnd::Crashed(vec![durable, attempt]),
    }
}

/// The same workload through a small [`BufferPool`], so crash points also
/// land inside eviction write-backs and pool flushes.
fn run_pool_workload(
    vfs: &dyn Vfs,
    path: &Path,
    page_size: usize,
    seed: u64,
    steps: u64,
    _: &mut WalProbe,
) -> RunEnd {
    let Ok(pager) = FilePager::create_with_vfs(vfs, path, page_size) else {
        return RunEnd::CreateCrashed;
    };
    let pool = BufferPool::with_capacity(pager, 4);
    let mut rng = Rng(seed);
    let mut model: HashMap<PageId, Vec<u8>> = HashMap::new();
    let mut live: Vec<PageId> = Vec::new();
    let mut durable = Snapshot::default();

    let write = |pool: &BufferPool, id: PageId, img: &[u8]| -> bool {
        match pool.fetch_mut(id) {
            Ok(mut page) => {
                page.data_mut().copy_from_slice(img);
                true
            }
            Err(_) => false,
        }
    };

    for _ in 0..=steps {
        match next_action(&mut rng) {
            Action::AllocWrite(tag) => {
                let Ok(id) = pool.allocate() else {
                    return RunEnd::Crashed(vec![durable]);
                };
                let img = page_image(page_size, tag);
                if !write(&pool, id, &img) {
                    return RunEnd::Crashed(vec![durable]);
                }
                model.insert(id, img);
                live.push(id);
            }
            Action::AllocOnly => {
                let Ok(id) = pool.allocate() else {
                    return RunEnd::Crashed(vec![durable]);
                };
                model.insert(id, vec![0u8; page_size]);
                live.push(id);
            }
            Action::Rewrite(pick, tag) => {
                if live.is_empty() {
                    continue;
                }
                let id = live[pick as usize % live.len()];
                let img = page_image(page_size, tag);
                if !write(&pool, id, &img) {
                    return RunEnd::Crashed(vec![durable]);
                }
                model.insert(id, img);
            }
            Action::Reset => {
                // Flushed first: a pool reset drops dirty frames.
                let attempt = Snapshot {
                    pages: model.clone(),
                    live: live.len() as u64,
                };
                match pool.flush().and_then(|()| pool.reset()) {
                    Ok(()) => durable = attempt,
                    Err(_) => return RunEnd::Crashed(vec![durable, attempt]),
                }
                model.clear();
                live.clear();
            }
            Action::Checkpoint => {
                let attempt = Snapshot {
                    pages: model.clone(),
                    live: live.len() as u64,
                };
                match pool.flush() {
                    Ok(()) => durable = attempt,
                    Err(_) => return RunEnd::Crashed(vec![durable, attempt]),
                }
            }
        }
    }
    let attempt = Snapshot {
        pages: model.clone(),
        live: live.len() as u64,
    };
    match pool.flush() {
        Ok(()) => RunEnd::Completed(attempt),
        Err(_) => RunEnd::Crashed(vec![durable, attempt]),
    }
}

fn matches_snapshot(pager: &mut FilePager, page_size: usize, snap: &Snapshot) -> bool {
    if allocated(pager) != snap.live {
        return false;
    }
    let mut buf = vec![0u8; page_size];
    for (&id, img) in &snap.pages {
        if pager.read(id, &mut buf).is_err() || buf != *img {
            return false;
        }
    }
    true
}

/// Pages of `pager` below its high-water mark, the header frame excluded.
fn allocated(pager: &FilePager) -> u64 {
    pager.store_bytes() / (pager.page_size() + PAGE_TRAILER) as u64 - 1
}

/// Reopen for real; the store must equal one of `candidates` and still be
/// fully usable afterwards.
fn verify_recovered(path: &Path, page_size: usize, candidates: &[Snapshot], ctx: &str) {
    let mut pager =
        FilePager::open(path).unwrap_or_else(|e| panic!("{ctx}: recovered open failed: {e}"));
    assert!(
        candidates
            .iter()
            .any(|s| matches_snapshot(&mut pager, page_size, s)),
        "{ctx}: recovered store matches no candidate snapshot \
         (live={}, candidates have live counts {:?})",
        allocated(&pager),
        candidates.iter().map(|s| s.live).collect::<Vec<_>>(),
    );
    // A replay cut away any frame a reset forgot.
    let len = std::fs::metadata(path).unwrap().len();
    assert_eq!(len, pager.store_bytes(), "{ctx}: data file length");
    // The recovered store must keep working: allocate, write, read, sync.
    let id = pager.allocate().unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let img = page_image(page_size, 0xDEAD);
    pager
        .write(id, &img)
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let mut buf = vec![0u8; page_size];
    pager
        .read(id, &mut buf)
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
    assert_eq!(buf, img, "{ctx}: post-recovery write readback");
    pager
        .sync()
        .unwrap_or_else(|e| panic!("{ctx}: post-recovery sync: {e}"));
}

fn clear_store(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(FilePager::wal_path(path));
}

struct StoreBackup {
    data: Option<Vec<u8>>,
    wal: Option<Vec<u8>>,
}

fn backup_store(path: &Path) -> StoreBackup {
    StoreBackup {
        data: std::fs::read(path).ok(),
        wal: std::fs::read(FilePager::wal_path(path)).ok(),
    }
}

fn restore_store(path: &Path, backup: &StoreBackup) {
    clear_store(path);
    if let Some(d) = &backup.data {
        std::fs::write(path, d).unwrap();
    }
    if let Some(w) = &backup.wal {
        std::fs::write(FilePager::wal_path(path), w).unwrap();
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_u64_list(name: &str, default: &[u64]) -> Vec<u64> {
    std::env::var(name)
        .ok()
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .filter(|v: &Vec<u64>| !v.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

/// A workload: how its run ended, and the log's state there in the probe.
type Driver = fn(&dyn Vfs, &Path, usize, u64, u64, &mut WalProbe) -> RunEnd;

/// What the crash points of a sweep found in the log.
#[derive(Default)]
struct Coverage {
    /// A crash point with two or more commits in the log.
    multi_commit: bool,
    /// A crash point inside a checkpoint that applies two or more commits.
    deferred_checkpoint: bool,
}

/// The sweep: crash at every op index, recover, verify; then crash the
/// recovery at every one of *its* op indices and verify again.
fn crash_sweep(driver: Driver, label: &str, sweep_recovery: bool) -> Coverage {
    let mut coverage = Coverage::default();
    let steps = env_u64("VIST_CRASH_STEPS", 24);
    let seeds = env_u64_list("VIST_CRASH_SEEDS", &[1]);
    let page_sizes = env_u64_list("VIST_CRASH_PAGE_SIZES", &[256]);
    let dir = TempDir::new(&format!("crash-{label}"));
    let path = dir.file("store");

    for &seed in &seeds {
        for &ps in &page_sizes {
            let page_size = ps as usize;

            // Clean run: establish the op count and the expected end state.
            clear_store(&path);
            let clean_vfs = FaultVfs::new(Arc::new(RealVfs));
            let clean = driver(
                &clean_vfs,
                &path,
                page_size,
                seed,
                steps,
                &mut WalProbe::default(),
            );
            let total_ops = match clean {
                RunEnd::Completed(fin) => {
                    verify_recovered(&path, page_size, &[fin], "clean run");
                    clean_vfs.handle().op_count()
                }
                _ => panic!("clean run must complete"),
            };
            assert!(total_ops > 10, "workload too small to be interesting");

            for n in 0..total_ops {
                let ctx = format!("{label} seed={seed} ps={page_size} crash@{n}");
                clear_store(&path);
                let vfs = FaultVfs::new(Arc::new(RealVfs));
                vfs.handle().schedule(n, FaultMode::Crash, seed ^ n);
                let mut wal = WalProbe::default();
                let end = driver(&vfs, &path, page_size, seed, steps, &mut wal);
                coverage.multi_commit |= wal.commits >= 2;
                coverage.deferred_checkpoint |= wal.in_checkpoint && wal.commits >= 2;
                match end {
                    RunEnd::Completed(fin) => {
                        // The crash landed on an op the run never reached
                        // (can happen only for n == total_ops - 1 races; in
                        // a deterministic run it should not happen at all).
                        verify_recovered(&path, page_size, &[fin], &ctx);
                    }
                    RunEnd::CreateCrashed => {
                        // Creation never finished: opening may fail, but a
                        // successful open must yield an empty, usable store.
                        if FilePager::open(&path).is_ok() {
                            verify_recovered(&path, page_size, &[Snapshot::default()], &ctx);
                        }
                    }
                    RunEnd::Crashed(candidates) => {
                        if sweep_recovery {
                            // Crash the *recovery* at each of its own ops,
                            // then recover for real from whatever that left.
                            let crashed = backup_store(&path);
                            let probe = FaultVfs::new(Arc::new(RealVfs));
                            FilePager::open_with_vfs(&probe, &path)
                                .unwrap_or_else(|e| panic!("{ctx}: recovery probe: {e}"));
                            let recovery_ops = probe.handle().op_count();
                            for m in 0..recovery_ops {
                                restore_store(&path, &crashed);
                                let rvfs = FaultVfs::new(Arc::new(RealVfs));
                                rvfs.handle().schedule(m, FaultMode::Crash, seed ^ n ^ m);
                                assert!(
                                    FilePager::open_with_vfs(&rvfs, &path).is_err(),
                                    "{ctx}: recovery crash@{m} must not open"
                                );
                                verify_recovered(
                                    &path,
                                    page_size,
                                    &candidates,
                                    &format!("{ctx} recovery-crash@{m}"),
                                );
                            }
                            restore_store(&path, &crashed);
                        }
                        verify_recovered(&path, page_size, &candidates, &ctx);
                    }
                }
            }
        }
    }
    coverage
}

#[test]
fn pager_crash_at_every_op_recovers_to_last_checkpoint() {
    crash_sweep(run_pager_workload, "pager", true);
}

#[test]
fn pool_crash_at_every_op_recovers_to_last_checkpoint() {
    crash_sweep(run_pool_workload, "pool", false);
}

#[test]
fn crash_with_commits_in_the_log_recovers_to_the_last_one() {
    let coverage = crash_sweep(run_prefilled_pager_workload, "prefilled", true);
    assert!(
        coverage.multi_commit,
        "no crash point had two commits in the log"
    );
    assert!(
        coverage.deferred_checkpoint,
        "no crash point fell inside a checkpoint of two or more commits"
    );
}
