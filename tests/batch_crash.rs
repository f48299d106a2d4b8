//! Crash-matrix sweep for batched group commit.
//!
//! A fixed workload of group-commit batches (with a serial, *unflushed*
//! insert riding between two of them) is crashed at every sampled
//! file-system operation via [`FaultVfs`] — covering every group-commit
//! injection point that does I/O: mid-batch WAL page append (cache
//! eviction during apply), inside the batch-final WAL flush before the
//! commit record, between the commit record and the data-file apply, and
//! during the post-commit log truncation. (The parallel *prepare* phase
//! performs no I/O by construction — it parses and encodes against an
//! immutable snapshot — so it contributes no crash points; its failure
//! mode, a parse error, is covered by `tests/parallel_ingest.rs`.)
//!
//! The invariant under test is **batch atomicity**: after recovery the
//! index must answer from exactly one batch boundary — every document of
//! a committed batch queryable, no document of an uncommitted batch ever
//! visible, and never a strict subset of a batch. The candidate sets
//! below are therefore whole-batch unions only.
//!
//! A commit is not a checkpoint: commits accumulate in the write-ahead log
//! until it reaches the data file's size. The `small_commits` sweep must
//! crash both with two or more commits in the log and inside a checkpoint
//! that applies them, and asserts that it did.
//!
//! Environment knobs (shared with the CI crash-matrix job):
//! * `VIST_CRASH_SEEDS`  — comma-separated fault seeds (default `1`)
//! * `VIST_CRASH_POINTS` — max crash points per seed (default `150`)

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

use vist::{IndexOptions, QueryOptions, VistIndex};
use vist_storage::testutil::TempDir;
use vist_storage::{FaultMode, FaultVfs, RealVfs, Vfs};

const PAGE_SIZE: usize = 256;
const QUERY: &str = "/book/author";

fn doc(i: u64) -> String {
    format!("<book><author>author {i}</author><title>title {i}</title></book>")
}

fn opts() -> IndexOptions {
    IndexOptions {
        page_size: PAGE_SIZE,
        cache_pages: 8,
        ..Default::default()
    }
}

struct RunEnd {
    /// Committed doc-id sets the recovered index may answer from. Every
    /// entry is a union of whole batches — batch atomicity means no other
    /// set is legal.
    candidates: Vec<BTreeSet<u64>>,
    /// The crash hit before the first checkpoint finished: reopening may
    /// fail outright (nothing was ever committed).
    may_fail_open: bool,
    completed: bool,
}

impl RunEnd {
    fn partial(candidates: Vec<BTreeSet<u64>>) -> Self {
        RunEnd {
            candidates,
            may_fail_open: false,
            completed: false,
        }
    }
}

/// What the delta's log held where a run stopped, read from the index's
/// I/O counters around every commit point: the commits not yet
/// checkpointed, and whether the stop fell inside the checkpoint after a
/// commit.
#[derive(Default, Clone, Copy)]
struct WalProbe {
    commits: u64,
    in_checkpoint: bool,
}

impl WalProbe {
    /// Run `op`, a commit point (`flush`, `insert_batch`), noting what it
    /// did to the log.
    fn commit<T, E>(&mut self, idx: &VistIndex, op: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
        let before = idx.stats().io;
        let result = op();
        let after = idx.stats().io;
        self.commits += after.wal_commits - before.wal_commits;
        if after.checkpoints > before.checkpoints {
            self.commits = 0;
        }
        // A failed call whose commit landed failed in the checkpoint.
        self.in_checkpoint = result.is_err() && after.wal_commits > before.wal_commits;
        result
    }
}

/// Fixed workload: three group-commit batches, one with a serial
/// uncommitted insert pending (the batch-final commit must commit it
/// together with the batch — its WAL flush is the only commit point in
/// flight). Two prepare threads so the parallel front half runs for real.
fn run_workload(vfs: Arc<dyn Vfs>, path: &Path, _: &mut WalProbe) -> RunEnd {
    let uncreated = RunEnd {
        candidates: vec![BTreeSet::new()],
        may_fail_open: true,
        completed: false,
    };
    let Ok(idx) = VistIndex::create_at(vfs, path, opts()) else {
        return uncreated;
    };
    if idx.flush().is_err() {
        return uncreated;
    }
    let mut durable: BTreeSet<u64> = BTreeSet::new();

    // Serial baseline insert: doc 0, committed by an explicit flush.
    let committed: BTreeSet<u64> = [0].into();
    if idx.insert_xml(&doc(0)).is_err() {
        return RunEnd::partial(vec![durable]);
    }
    match idx.flush() {
        Ok(()) => durable = committed.clone(),
        Err(_) => return RunEnd::partial(vec![durable, committed]),
    }

    // Batch A: docs 1, 2, 3 — all-or-nothing.
    let batch: Vec<String> = (1..4).map(doc).collect();
    let with_a: BTreeSet<u64> = durable.iter().copied().chain(1..4).collect();
    match idx.insert_batch(&batch, 2) {
        Ok(ids) => {
            assert_eq!(ids, vec![1, 2, 3]);
            durable = with_a;
        }
        Err(_) => return RunEnd::partial(vec![durable, with_a]),
    }

    // Serial insert of doc 4 with NO flush: it stays uncommitted until
    // batch B's group commit sweeps it in. No crash point may surface
    // doc 4 without batch B, or batch B without doc 4.
    if idx.insert_xml(&doc(4)).is_err() {
        return RunEnd::partial(vec![durable]);
    }

    // Batch B: docs 5, 6 — commits doc 4 alongside.
    let batch: Vec<String> = (5..7).map(doc).collect();
    let with_b: BTreeSet<u64> = durable.iter().copied().chain(4..7).collect();
    match idx.insert_batch(&batch, 2) {
        Ok(ids) => {
            assert_eq!(ids, vec![5, 6]);
            durable = with_b;
        }
        Err(_) => return RunEnd::partial(vec![durable, with_b]),
    }

    // Batch C: docs 7, 8, 9.
    let batch: Vec<String> = (7..10).map(doc).collect();
    let with_c: BTreeSet<u64> = durable.iter().copied().chain(7..10).collect();
    match idx.insert_batch(&batch, 2) {
        Ok(_) => durable = with_c,
        Err(_) => return RunEnd::partial(vec![durable, with_c]),
    }

    RunEnd {
        candidates: vec![durable],
        may_fail_open: false,
        completed: true,
    }
}

/// Reopen for real and check batch atomicity: answers must equal exactly
/// one whole-batch boundary, and the recovered index must remain fully
/// writable — including through another group commit.
fn verify_recovered(path: &Path, end: &RunEnd, ctx: &str) {
    let idx = match VistIndex::open_file(path, 16) {
        Ok(idx) => idx,
        Err(e) => {
            assert!(end.may_fail_open, "{ctx}: recovered open failed: {e}");
            return;
        }
    };
    idx.check()
        .unwrap_or_else(|e| panic!("{ctx}: check on recovered index failed: {e}"));
    let got: BTreeSet<u64> = idx
        .query(QUERY, &QueryOptions::default())
        .unwrap_or_else(|e| panic!("{ctx}: query on recovered index failed: {e}"))
        .doc_ids
        .into_iter()
        .collect();
    assert!(
        end.candidates.contains(&got),
        "{ctx}: recovered answers {got:?} match no batch boundary {:?} — \
         a torn batch survived recovery",
        end.candidates,
    );
    assert_eq!(
        idx.document_ids()
            .unwrap_or_else(|e| panic!("{ctx}: document_ids: {e}"))
            .into_iter()
            .collect::<BTreeSet<u64>>(),
        got,
        "{ctx}: document_ids disagrees with query answers"
    );
    // The recovered index must keep working — serially and batched.
    let id = idx
        .insert_xml(&doc(999))
        .unwrap_or_else(|e| panic!("{ctx}: post-recovery insert: {e}"));
    let ids = idx
        .insert_batch(&[doc(1000), doc(1001)], 2)
        .unwrap_or_else(|e| panic!("{ctx}: post-recovery batch: {e}"));
    let after = idx.query(QUERY, &QueryOptions::default()).unwrap();
    for want in std::iter::once(id).chain(ids) {
        assert!(
            after.doc_ids.contains(&want),
            "{ctx}: post-recovery doc {want} missing"
        );
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

type Workload = fn(Arc<dyn Vfs>, &Path, &mut WalProbe) -> RunEnd;

/// What the crash points of a sweep found in the log.
#[derive(Default)]
struct Coverage {
    /// A crash point with two or more commits in the log.
    multi_commit: bool,
    /// A crash point inside a checkpoint that applies two or more commits.
    deferred_checkpoint: bool,
}

/// Crash `workload` at every sampled file-system operation, recover, and
/// check batch atomicity.
fn crash_sweep(workload: Workload, label: &str) -> Coverage {
    let seeds = env_u64_list("VIST_CRASH_SEEDS", &[1]);
    let points = env_u64("VIST_CRASH_POINTS", 150).max(1);
    let dir = TempDir::new(label);

    // Clean run: establish the op count and the completed end state.
    let clean_dir = dir.file("clean");
    std::fs::create_dir(&clean_dir).unwrap();
    let path = clean_dir.join("index");
    let clean_vfs = FaultVfs::new(Arc::new(RealVfs));
    let handle = clean_vfs.handle();
    let clean_end = workload(Arc::new(clean_vfs), &path, &mut WalProbe::default());
    assert!(clean_end.completed, "clean run must complete");
    verify_recovered(&path, &clean_end, "clean run");
    let total_ops = handle.op_count();
    assert!(total_ops > 50, "workload too small to be interesting");

    let stride = (total_ops / points).max(1);
    let mut coverage = Coverage::default();
    for &seed in &seeds {
        // Different seeds phase-shift the sampled crash points so repeated
        // CI runs cover different op indices.
        let mut n = seed % stride;
        while n < total_ops {
            let ctx = format!("{label} seed={seed} crash@{n}");
            let run_dir = dir.file(&format!("s{seed}-n{n}"));
            std::fs::create_dir(&run_dir).unwrap();
            let path = run_dir.join("index");
            let vfs = FaultVfs::new(Arc::new(RealVfs));
            vfs.handle().schedule(n, FaultMode::Crash, seed ^ n);
            let mut wal = WalProbe::default();
            let end = workload(Arc::new(vfs), &path, &mut wal);
            assert!(!end.completed, "{ctx}: scheduled crash never fired");
            coverage.multi_commit |= wal.commits >= 2;
            coverage.deferred_checkpoint |= wal.in_checkpoint && wal.commits >= 2;
            verify_recovered(&path, &end, &ctx);
            let _ = std::fs::remove_dir_all(&run_dir);
            n += stride;
        }
    }
    coverage
}

#[test]
fn group_commit_crash_at_any_op_is_batch_atomic() {
    crash_sweep(run_workload, "batch-crash");
}

/// A base batch of [`BASE_DOCS`] documents, then [`SMALL_BATCHES`] batches
/// of two: each small commit logs a few pages of a store many times larger,
/// so the commits pile up in the log until a checkpoint applies them.
fn run_small_commits(vfs: Arc<dyn Vfs>, path: &Path, wal: &mut WalProbe) -> RunEnd {
    let uncreated = RunEnd {
        candidates: vec![BTreeSet::new()],
        may_fail_open: true,
        completed: false,
    };
    let Ok(idx) = VistIndex::create_at(vfs, path, opts()) else {
        return uncreated;
    };
    if wal.commit(&idx, || idx.flush()).is_err() {
        return uncreated;
    }
    let mut durable: BTreeSet<u64> = BTreeSet::new();
    let mut next = 0;
    for len in std::iter::once(BASE_DOCS).chain([2; SMALL_BATCHES]) {
        let batch: Vec<String> = (next..next + len).map(doc).collect();
        let with_batch: BTreeSet<u64> = durable.iter().copied().chain(next..next + len).collect();
        match wal.commit(&idx, || idx.insert_batch(&batch, 2)) {
            Ok(_) => durable = with_batch,
            Err(_) => return RunEnd::partial(vec![durable, with_batch]),
        }
        next += len;
    }
    RunEnd {
        candidates: vec![durable],
        may_fail_open: false,
        completed: true,
    }
}

const BASE_DOCS: u64 = 48;
const SMALL_BATCHES: usize = 8;

#[test]
fn small_commits_crash_at_any_op_recover_the_last_one() {
    let coverage = crash_sweep(run_small_commits, "small-commits");
    assert!(
        coverage.multi_commit,
        "no crash point had two commits in the log"
    );
    assert!(
        coverage.deferred_checkpoint,
        "no crash point fell inside a checkpoint of two or more commits"
    );
}

/// Fail (not crash) injection: the op errors but the process continues.
/// A failed `insert_batch` must leave the on-disk state recoverable to a
/// batch boundary — reopening after the error behaves exactly like crash
/// recovery.
#[test]
fn group_commit_io_error_then_reopen_is_batch_atomic() {
    let points = env_u64("VIST_CRASH_POINTS", 150).max(1);
    let dir = TempDir::new("batch-fail");

    let clean_dir = dir.file("clean");
    std::fs::create_dir(&clean_dir).unwrap();
    let clean_vfs = FaultVfs::new(Arc::new(RealVfs));
    let handle = clean_vfs.handle();
    let clean_end = run_workload(
        Arc::new(clean_vfs),
        &clean_dir.join("index"),
        &mut WalProbe::default(),
    );
    assert!(clean_end.completed);
    let total_ops = handle.op_count();

    let stride = (total_ops / points).max(1);
    let mut n = 1u64;
    while n < total_ops {
        let ctx = format!("fail@{n}");
        let run_dir = dir.file(&format!("f{n}"));
        std::fs::create_dir(&run_dir).unwrap();
        let path = run_dir.join("index");
        let vfs = FaultVfs::new(Arc::new(RealVfs));
        vfs.handle().schedule(n, FaultMode::Fail, 7 ^ n);
        let end = run_workload(Arc::new(vfs), &path, &mut WalProbe::default());
        // The index object is dropped here (possibly mid-batch in memory);
        // recovery must still land on a batch boundary.
        verify_recovered(&path, &end, &ctx);
        let _ = std::fs::remove_dir_all(&run_dir);
        n += stride;
    }
}
