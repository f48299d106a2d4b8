//! Index-level crash recovery: a seeded insert/flush workload is crashed at
//! every file-system operation (sampled by `VIST_CRASH_POINTS`), and after
//! each crash the index is reopened for real. The reopened index must
//! answer queries from exactly one committed checkpoint, pass `check()`,
//! and remain fully writable. At least one crash point must exercise an
//! actual WAL replay (recovered pages > 0).
//!
//! Environment knobs (shared with the storage-level sweep and the CI
//! crash-matrix job):
//! * `VIST_CRASH_SEEDS`  — comma-separated fault seeds (default `1`);
//!   seeds also phase-shift which op indices the sampled sweep lands on.
//! * `VIST_CRASH_POINTS` — max crash points per seed (default `200`)

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

use vist::{IndexOptions, QueryOptions, VistIndex};
use vist_storage::testutil::TempDir;
use vist_storage::{FaultMode, FaultVfs, FilePager, RealVfs};

const PAGE_SIZE: usize = 256;
const QUERY: &str = "/book/author";

fn doc(i: u64) -> String {
    format!("<book><author>author {i}</author><title>title {i}</title></book>")
}

struct RunEnd {
    /// Committed doc-id sets the recovered index may answer from.
    candidates: Vec<BTreeSet<u64>>,
    /// The crash hit before the first checkpoint finished: reopening may
    /// fail outright (nothing was ever committed).
    may_fail_open: bool,
    completed: bool,
}

/// Fixed workload: create, checkpoint empty, then three batches of two
/// documents, each batch followed by a flush. The document stream is
/// identical on every run; only the injected fault varies.
fn run_workload(vfs: &FaultVfs, path: &Path) -> RunEnd {
    let uncreated = RunEnd {
        candidates: vec![BTreeSet::new()],
        may_fail_open: true,
        completed: false,
    };
    let opts = IndexOptions {
        page_size: PAGE_SIZE,
        // A tiny pool so crash points also land inside eviction write-backs.
        cache_pages: 8,
        ..Default::default()
    };
    let Ok(idx) = VistIndex::create_at(Arc::new(vfs.clone()), path, opts) else {
        return uncreated;
    };
    if idx.flush().is_err() {
        return uncreated;
    }
    let mut durable: BTreeSet<u64> = BTreeSet::new();
    let mut inserted: BTreeSet<u64> = BTreeSet::new();
    for batch in 0..3u64 {
        for i in 0..2u64 {
            match idx.insert_xml(&doc(batch * 2 + i)) {
                Ok(id) => {
                    inserted.insert(id);
                }
                Err(_) => {
                    return RunEnd {
                        candidates: vec![durable],
                        may_fail_open: false,
                        completed: false,
                    }
                }
            }
        }
        match idx.flush() {
            Ok(()) => durable = inserted.clone(),
            Err(_) => {
                // The commit record may or may not have reached disk.
                return RunEnd {
                    candidates: vec![durable, inserted],
                    may_fail_open: false,
                    completed: false,
                };
            }
        }
    }
    RunEnd {
        candidates: vec![inserted],
        may_fail_open: false,
        completed: true,
    }
}

/// Reopen for real. Returns the number of WAL pages the open replayed, or
/// `None` if the open was (legitimately) refused.
fn verify_recovered(path: &Path, end: &RunEnd, ctx: &str) -> Option<u64> {
    let idx = match VistIndex::open_file(path, 16) {
        Ok(idx) => idx,
        Err(e) => {
            assert!(end.may_fail_open, "{ctx}: recovered open failed: {e}");
            return None;
        }
    };
    let replayed = idx.stats().io.recovered_pages;
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
        "{ctx}: recovered answers {got:?} match no committed checkpoint {:?}",
        end.candidates,
    );
    // The recovered index must keep working end to end.
    let id = idx
        .insert_xml(&doc(999))
        .unwrap_or_else(|e| panic!("{ctx}: post-recovery insert: {e}"));
    let after = idx.query(QUERY, &QueryOptions::default()).unwrap();
    assert!(
        after.doc_ids.contains(&id),
        "{ctx}: post-recovery doc missing"
    );
    idx.flush()
        .unwrap_or_else(|e| panic!("{ctx}: post-recovery flush: {e}"));
    Some(replayed)
}

fn clear_store(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(FilePager::wal_path(path));
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

#[test]
fn index_crash_at_any_op_recovers_to_a_checkpoint() {
    let seeds = env_u64_list("VIST_CRASH_SEEDS", &[1]);
    let points = env_u64("VIST_CRASH_POINTS", 200).max(1);
    let dir = TempDir::new("index-crash");
    let path = dir.file("index");

    // Clean run: establish the op count and the completed end state.
    clear_store(&path);
    let clean_vfs = FaultVfs::new(Arc::new(RealVfs));
    let clean_end = run_workload(&clean_vfs, &path);
    assert!(clean_end.completed, "clean run must complete");
    verify_recovered(&path, &clean_end, "clean run");
    let total_ops = clean_vfs.handle().op_count();
    assert!(total_ops > 20, "workload too small to be interesting");

    let stride = (total_ops / points).max(1);
    let mut saw_replay = false;
    for &seed in &seeds {
        // Different seeds phase-shift the sampled crash points so repeated
        // CI runs cover different op indices.
        let mut n = seed % stride;
        while n < total_ops {
            let ctx = format!("seed={seed} crash@{n}");
            clear_store(&path);
            let vfs = FaultVfs::new(Arc::new(RealVfs));
            vfs.handle().schedule(n, FaultMode::Crash, seed ^ n);
            let end = run_workload(&vfs, &path);
            assert!(!end.completed, "{ctx}: scheduled crash never fired");
            if let Some(replayed) = verify_recovered(&path, &end, &ctx) {
                saw_replay |= replayed > 0;
            }
            n += stride;
        }
    }
    assert!(
        saw_replay,
        "no crash point exercised a WAL replay — sweep is too sparse"
    );
}
