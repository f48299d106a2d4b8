//! Tiered-storage crash recovery and differential correctness.
//!
//! Sweep: a seeded workload exercising every tier transition — delta
//! inserts + flush, two bulk loads (segment write + the delta commit that
//! names it), a tombstone remove, and a compaction (segment rewrite +
//! delta clear + the commit that names the new segment) — is crashed at
//! every sampled file-system
//! operation via [`FaultVfs`]. After each crash the index is reopened
//! for real; it must answer queries from exactly one committed
//! checkpoint, pass `check()`, and remain fully writable.
//!
//! Differential: a seeded interleaving of inserts, bulk batches,
//! removes, compactions, and reopens is mirrored against a plain
//! in-memory index (no tiers); both must answer every probe query and
//! `document_ids()` identically throughout.
//!
//! Environment knobs (shared with `crash_recovery.rs` and the CI
//! crash-matrix job):
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
    /// Committed doc-id sets the recovered index may answer from.
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

/// Fixed workload crossing every tier transition. The document stream is
/// identical on every run; only the injected fault varies.
///
/// Commit points and what each can leave behind — each is one delta WAL
/// commit, and the delta's aux tree names the live segments:
/// * `flush`          — a crash mid-flush leaves either the previous
///   checkpoint or the new one.
/// * `bulk_build`     — one commit names the segment and counts its
///   documents; a crash leaves either no new segment (an orphan file,
///   ignored on reopen) or a fully visible one.
/// * `remove_document`— a delta tombstone, durable at the next flush.
/// * `compact`        — answer-preserving by construction: the new
///   segment holds exactly the live documents, so every crash point
///   (before the commit of the cleared delta that names it, or after)
///   answers the same document set.
fn run_workload(vfs: Arc<dyn Vfs>, path: &Path) -> RunEnd {
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

    // Delta inserts: docs 0, 1.
    let mut inserted = durable.clone();
    for i in 0..2u64 {
        match idx.insert_xml(&doc(i)) {
            Ok(id) => {
                inserted.insert(id);
            }
            Err(_) => return RunEnd::partial(vec![durable]),
        }
    }
    match idx.flush() {
        Ok(()) => durable = inserted,
        Err(_) => return RunEnd::partial(vec![durable, inserted]),
    }

    // First bulk load: docs 2, 3, 4 → segment 1.
    let batch: Vec<String> = (2..5).map(doc).collect();
    let with_batch: BTreeSet<u64> = durable.iter().copied().chain(2..5).collect();
    match idx.bulk_build(batch) {
        Ok(ids) => {
            assert_eq!(ids, vec![2, 3, 4]);
            durable = with_batch;
        }
        Err(_) => return RunEnd::partial(vec![durable, with_batch]),
    }

    // Tombstone a segment-resident document.
    let mut without2 = durable.clone();
    without2.remove(&2);
    if idx.remove_document(2).is_err() {
        return RunEnd::partial(vec![durable.clone(), without2]);
    }
    match idx.flush() {
        Ok(()) => durable = without2,
        Err(_) => return RunEnd::partial(vec![durable, without2]),
    }

    // Second bulk load: docs 5, 6 → segment 2.
    let batch: Vec<String> = (5..7).map(doc).collect();
    let with_batch: BTreeSet<u64> = durable.iter().copied().chain(5..7).collect();
    match idx.bulk_build(batch) {
        Ok(_) => durable = with_batch,
        Err(_) => return RunEnd::partial(vec![durable, with_batch]),
    }

    // Compact both segments + delta into one; drops the tombstone.
    // Answer-preserving, so the candidate set does not fork.
    if idx.compact().is_err() {
        return RunEnd::partial(vec![durable]);
    }
    RunEnd {
        candidates: vec![durable],
        may_fail_open: false,
        completed: true,
    }
}

/// Reopen for real. Returns the recovered index stats' segment count, or
/// `None` if the open was (legitimately) refused.
fn verify_recovered(path: &Path, end: &RunEnd, ctx: &str) -> Option<u64> {
    let idx = match VistIndex::open_file(path, 16) {
        Ok(idx) => idx,
        Err(e) => {
            assert!(end.may_fail_open, "{ctx}: recovered open failed: {e}");
            return None;
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
        "{ctx}: recovered answers {got:?} match no committed checkpoint {:?}",
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
    // The recovered index must keep working end to end — including across
    // the tier boundary (a post-recovery bulk load).
    let id = idx
        .insert_xml(&doc(999))
        .unwrap_or_else(|e| panic!("{ctx}: post-recovery insert: {e}"));
    let ids = idx
        .bulk_build([doc(1000)])
        .unwrap_or_else(|e| panic!("{ctx}: post-recovery bulk load: {e}"));
    let after = idx.query(QUERY, &QueryOptions::default()).unwrap();
    assert!(
        after.doc_ids.contains(&id) && after.doc_ids.contains(&ids[0]),
        "{ctx}: post-recovery docs missing"
    );
    idx.flush()
        .unwrap_or_else(|e| panic!("{ctx}: post-recovery flush: {e}"));
    Some(idx.stats().segments)
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
fn tiered_crash_at_any_op_recovers_to_a_checkpoint() {
    let seeds = env_u64_list("VIST_CRASH_SEEDS", &[1]);
    let points = env_u64("VIST_CRASH_POINTS", 150).max(1);
    let dir = TempDir::new("tiered-crash");

    // Clean run: establish the op count and the completed end state.
    let clean_dir = dir.file("clean");
    std::fs::create_dir(&clean_dir).unwrap();
    let path = clean_dir.join("index");
    let clean_vfs = FaultVfs::new(Arc::new(RealVfs));
    let handle = clean_vfs.handle();
    let clean_end = run_workload(Arc::new(clean_vfs), &path);
    assert!(clean_end.completed, "clean run must complete");
    verify_recovered(&path, &clean_end, "clean run");
    let total_ops = handle.op_count();
    assert!(total_ops > 50, "workload too small to be interesting");

    let stride = (total_ops / points).max(1);
    let mut saw_segments = false;
    for &seed in &seeds {
        // Different seeds phase-shift the sampled crash points so repeated
        // CI runs cover different op indices.
        let mut n = seed % stride;
        while n < total_ops {
            let ctx = format!("seed={seed} crash@{n}");
            // Fresh directory per iteration: a crash can leave orphan
            // segment and WAL files behind.
            let run_dir = dir.file(&format!("s{seed}-n{n}"));
            std::fs::create_dir(&run_dir).unwrap();
            let path = run_dir.join("index");
            let vfs = FaultVfs::new(Arc::new(RealVfs));
            vfs.handle().schedule(n, FaultMode::Crash, seed ^ n);
            let end = run_workload(Arc::new(vfs), &path);
            assert!(!end.completed, "{ctx}: scheduled crash never fired");
            if let Some(segments) = verify_recovered(&path, &end, &ctx) {
                saw_segments |= segments > 0;
            }
            let _ = std::fs::remove_dir_all(&run_dir);
            n += stride;
        }
    }
    assert!(
        saw_segments,
        "no crash point recovered an index with live segments — sweep too sparse"
    );
}

/// Deterministic xorshift for the differential workload.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Interleave inserts, bulk batches, removes, compactions, and reopens on
/// a tiered file-backed index, mirroring every document operation on a
/// plain in-memory index. Bulk ids are sequential from `next_doc`, so the
/// two id spaces stay aligned and every probe must agree exactly.
#[test]
fn tiered_index_matches_single_tree_oracle() {
    const AUTHORS: [&str; 4] = ["ann", "bob", "eve", "dan"];
    let probes = [
        "/book/author".to_string(),
        "//title".to_string(),
        format!("/book/author[text='{}']", AUTHORS[0]),
        format!("/book[author='{}']/title", AUTHORS[1]),
    ];
    let make = |i: u64| {
        format!(
            "<book><author>{}</author><title>title {i}</title></book>",
            AUTHORS[(i % AUTHORS.len() as u64) as usize]
        )
    };

    let dir = TempDir::new("tiered-diff");
    let path = dir.file("index");
    let mut tiered = VistIndex::create_file(&path, opts()).unwrap();
    let oracle = VistIndex::in_memory(IndexOptions::default()).unwrap();

    let mut rng = Rng(0x5eed_0001);
    let mut next = 0u64;
    let mut live: Vec<u64> = Vec::new();
    for step in 0..120u64 {
        match rng.below(10) {
            // Delta insert on both.
            0..=3 => {
                let x = make(next);
                let a = tiered.insert_xml(&x).unwrap();
                let b = oracle.insert_xml(&x).unwrap();
                assert_eq!(a, b, "step {step}: id drift");
                live.push(a);
                next += 1;
            }
            // Bulk load on the tiered index, plain inserts on the oracle.
            4..=5 => {
                let k = 2 + rng.below(4);
                let batch: Vec<String> = (next..next + k).map(&make).collect();
                let ids = tiered.bulk_build(batch.clone()).unwrap();
                for (xml, &id) in batch.iter().zip(&ids) {
                    assert_eq!(oracle.insert_xml(xml).unwrap(), id, "step {step}: id drift");
                    live.push(id);
                }
                next += k;
            }
            // Remove a random live document from both.
            6..=7 if !live.is_empty() => {
                let victim = live.swap_remove(rng.below(live.len() as u64) as usize);
                tiered.remove_document(victim).unwrap();
                oracle.remove_document(victim).unwrap();
                // Double removal must be rejected by both tiers.
                assert!(tiered.remove_document(victim).is_err());
                assert!(oracle.remove_document(victim).is_err());
            }
            // Compact the tiered index (no-op on the oracle).
            8 => tiered.compact().unwrap(),
            // Reopen the tiered index from disk.
            _ => {
                tiered.flush().unwrap();
                drop(tiered);
                tiered = VistIndex::open_file(&path, 16).unwrap();
            }
        }

        if step % 10 == 9 {
            for q in &probes {
                let a = tiered.query(q, &QueryOptions::default()).unwrap().doc_ids;
                let b = oracle.query(q, &QueryOptions::default()).unwrap().doc_ids;
                assert_eq!(a, b, "step {step}: {q} diverged");
            }
            assert_eq!(
                tiered.document_ids().unwrap(),
                oracle.document_ids().unwrap(),
                "step {step}: document_ids diverged"
            );
            if let Some(&id) = live.first() {
                assert_eq!(
                    tiered.get_document_xml(id).unwrap(),
                    oracle.get_document_xml(id).unwrap(),
                    "step {step}: stored XML diverged"
                );
            }
        }
    }
    tiered.check().unwrap();
    assert!(
        tiered.stats().segments > 0 || live.is_empty(),
        "workload never left a segment behind"
    );
}

/// The file operations of each tier commit, pinned: the workload of the
/// sweep above, run once without a fault, counting the operations of its
/// first bulk load and of its compaction. A change to either count is a
/// change to the I/O at a commit point — and to the crash states the sweep
/// has to cover — so it must be deliberate.
#[test]
fn tier_commits_cost_fixed_file_operations() {
    let dir = TempDir::new("tiered-ops");
    let vfs = FaultVfs::new(Arc::new(RealVfs));
    let handle = vfs.handle();
    let idx = VistIndex::create_at(Arc::new(vfs), &dir.file("index"), opts()).unwrap();
    idx.flush().unwrap();
    for i in 0..2 {
        idx.insert_xml(&doc(i)).unwrap();
    }
    idx.flush().unwrap();
    let ops = |f: &dyn Fn()| {
        let before = handle.op_count();
        f();
        handle.op_count() - before
    };
    let bulk = ops(&|| assert_eq!(idx.bulk_build((2..5).map(doc)).unwrap(), [2, 3, 4]));
    idx.remove_document(2).unwrap();
    idx.flush().unwrap();
    idx.bulk_build((5..7).map(doc)).unwrap();
    let compact = ops(&|| idx.compact().unwrap());
    // A segment is written straight to its file, with no log, and its
    // header page once, at the end; the delta's commit that names it is the
    // only other file a tier commit touches. The bulk load is 2 opens, 11
    // reads, 8 writes, 1 set_len and 7 syncs: one commit names the segment
    // and counts its documents. A compaction reads the merged tiers' own
    // records (the D-Ancestor and S-Ancestor pages of the two segments),
    // commits the delta, resets its pager and commits the empty delta that
    // names the new segment: 2 opens, 27 reads, 11 writes, 3 set_len and 11
    // syncs. The aux tree holds the segment ids, so this test's 8-page pool
    // misses on one more delta page in the bulk load and three more in the
    // compaction. A build's last flush hands the pool's frames over by page
    // id: the segment's writes are the runs of consecutive pages among them,
    // and the header page (page 1) goes out with the file's header frame at
    // the seal. The delta's aux tree holds no planner statistics, so the
    // compaction's walk of the delta misses fewer pages. A key past the end
    // of a delta tree's last leaf goes alone to the new leaf, so records
    // that arrive in ascending order fill their leaves; that moves which
    // delta pages the pool holds, and the compaction reads two more.
    assert_eq!((bulk, compact), (29, 54));
}
