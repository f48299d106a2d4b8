//! Deadline/cancellation semantics (ISSUE 8 satellite): a query
//! cancelled mid-match on a tiered index returns `DeadlineExceeded`,
//! leaves no poisoned locks, and the next query returns bit-identical
//! results to an undisturbed run. The same holds for a deadline that
//! runs out between two frames cut from the hits of one sweep, or between
//! two slices of the merged scopes the DocId stage resolves.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use vist::datagen::dblp;
use vist::{Error, IndexOptions, QueryOptions, VistIndex};
use vist_core::{search_sequences, DkStats, DocId, SearchOptions, SearchSource};
use vist_storage::testutil::TempDir;

const EXPR: &str = "/book/author";

/// A tiered index: one packed segment (bulk load) under a mutable
/// delta (per-document inserts), so cancellation crosses tier
/// boundaries too.
fn build_tiered(dir: &TempDir) -> VistIndex {
    let path = dir.file("index");
    let idx = VistIndex::create_file(
        &path,
        IndexOptions {
            store_documents: true,
            ..IndexOptions::default()
        },
    )
    .unwrap();
    let docs = dblp::documents(400, 11);
    let (seg, delta) = docs.split_at(300);
    idx.bulk_build(seg.iter().map(|d| d.to_xml())).unwrap();
    for d in delta {
        idx.insert_document(d).unwrap();
    }
    idx.flush().unwrap();
    idx
}

#[test]
fn expired_deadline_cancels_and_leaves_index_undisturbed() {
    let dir = TempDir::new("deadline-semantics");
    let idx = build_tiered(&dir);
    let o = QueryOptions::default();
    let undisturbed = idx.query(EXPR, &o).unwrap();
    assert!(!undisturbed.doc_ids.is_empty());

    // A deadline already in the past must trip the engine's first
    // cooperative check, deterministically.
    let expired = idx.query(
        EXPR,
        &QueryOptions {
            deadline: Some(Instant::now()),
            ..o
        },
    );
    assert!(
        matches!(expired, Err(Error::DeadlineExceeded)),
        "{expired:?}"
    );

    // No poisoned locks, no mutated state: the next query is
    // bit-identical to the undisturbed run.
    let after = idx.query(EXPR, &o).unwrap();
    assert_eq!(
        after.doc_ids, undisturbed.doc_ids,
        "results diverged after cancellation"
    );
    assert_eq!(after.candidates, undisturbed.candidates);
}

#[test]
fn tight_budgets_either_finish_or_cancel_cleanly() {
    // Sweep budgets from "instant" to "comfortable": every outcome must
    // be either the exact answer or a clean DeadlineExceeded, and the
    // index must stay consistent throughout. This exercises mid-match
    // cancellation at whatever work-item the budget happens to land on.
    let dir = TempDir::new("deadline-budgets");
    let idx = build_tiered(&dir);
    let o = QueryOptions::default();
    let baseline = idx.query(EXPR, &o).unwrap();
    let mut cancelled = 0u32;
    for micros in [0u64, 20, 50, 100, 500, 5_000, 500_000] {
        let r = idx.query(
            EXPR,
            &QueryOptions {
                deadline: Some(Instant::now() + Duration::from_micros(micros)),
                ..o
            },
        );
        match r {
            Ok(res) => assert_eq!(res.doc_ids, baseline.doc_ids, "{micros} µs"),
            Err(Error::DeadlineExceeded) => cancelled += 1,
            Err(e) => panic!("{micros} µs: unexpected error {e}"),
        }
    }
    // The 0 µs budget always cancels.
    assert!(cancelled >= 1);
    let after = idx.query(EXPR, &o).unwrap();
    assert_eq!(after.doc_ids, baseline.doc_ids);
}

#[test]
fn verify_loop_honors_deadline() {
    let dir = TempDir::new("deadline-verify");
    let idx = build_tiered(&dir);
    let verified = idx.query(
        EXPR,
        &QueryOptions {
            verify: true,
            ..QueryOptions::default()
        },
    );
    assert!(verified.is_ok());
    let expired = idx.query(
        EXPR,
        &QueryOptions {
            verify: true,
            deadline: Some(Instant::now()),
            ..QueryOptions::default()
        },
    );
    assert!(matches!(expired, Err(Error::DeadlineExceeded)));
    // Still fully readable, including document retrieval.
    let after = idx.query(
        EXPR,
        &QueryOptions {
            verify: true,
            ..QueryOptions::default()
        },
    );
    assert_eq!(after.unwrap().doc_ids, verified.unwrap().doc_ids);
}

/// Which of a source's calls [`SlowSource`] holds past the deadline.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Hold {
    /// The `n`-th S-Ancestor sweep (counted from 1).
    Sweep(usize),
    /// The `n`-th DocId resolution.
    Resolution(usize),
}

/// A source one call of which does not return before `until`.
struct SlowSource<'a> {
    inner: &'a dyn SearchSource,
    sweeps: AtomicUsize,
    resolutions: AtomicUsize,
    hold: Hold,
    until: Instant,
}

impl SlowSource<'_> {
    fn called(&self, calls: &AtomicUsize, which: fn(usize) -> Hold) {
        if which(calls.fetch_add(1, Ordering::SeqCst) + 1) == self.hold {
            std::thread::sleep(self.until.saturating_duration_since(Instant::now()));
        }
    }
}

impl SearchSource for SlowSource<'_> {
    fn dkey_get(&self, dkey: &[u8]) -> vist_core::Result<Option<u64>> {
        self.inner.dkey_get(dkey)
    }

    fn dkey_scan_range(
        &self,
        lo: &[u8],
        hi: &[u8],
        f: &mut dyn FnMut(&[u8], u64) -> ControlFlow<()>,
    ) -> vist_core::Result<()> {
        self.inner.dkey_scan_range(lo, hi, f)
    }

    fn nodes_in_scopes(
        &self,
        dkey_id: u64,
        scopes: &[(u128, u128)],
        f: &mut dyn FnMut(u128, u128) -> ControlFlow<()>,
    ) -> vist_core::Result<()> {
        self.inner.nodes_in_scopes(dkey_id, scopes, f)?;
        self.called(&self.sweeps, Hold::Sweep);
        Ok(())
    }

    fn docids_in_scopes(
        &self,
        scopes: &[(u128, u128)],
        f: &mut dyn FnMut(u128, DocId) -> ControlFlow<()>,
    ) -> vist_core::Result<()> {
        self.inner.docids_in_scopes(scopes, f)?;
        self.called(&self.resolutions, Hold::Resolution);
        Ok(())
    }

    fn dkid_stats(&self, dkid: u64) -> Option<DkStats> {
        self.inner.dkid_stats(dkid)
    }
}

/// Hold one call of the source past the deadline: the query is cancelled
/// with the work behind that call left undone, and the next query is
/// undisturbed.
fn cancelled_while_holding(hold: Hold) {
    // Each record has an `a` text of its own and siblings sort by name, so
    // every `z` is a trie node of its own: the sweep for `z` finds 3,000
    // hits and cuts them into three frames, each of which sweeps for the
    // text below; the 1,500 final scopes, none next to another, go to the
    // DocId tree in two slices.
    let idx = VistIndex::in_memory(IndexOptions::default()).unwrap();
    for i in 0..3_000 {
        idx.insert_xml(&format!("<r><a>{i}</a><z>{}</z></r>", i % 2))
            .unwrap();
    }
    let pattern = vist::query::parse_query("/r/z[text='1']")
        .unwrap()
        .to_pattern();
    let sequences = vist::query::try_translate(
        &pattern,
        &idx.table(),
        &vist::query::TranslateOptions::default(),
    )
    .unwrap()
    .sequences;
    let undisturbed = search_sequences(idx.store(), &sequences, &SearchOptions::default()).unwrap();
    assert_eq!(undisturbed.docs.len(), 1_500);
    // Sweeps: `r`, `z` (3,000 hits), then the text once a frame.
    assert_eq!(undisturbed.stats.sancestor_scans, 5);
    assert_eq!(undisturbed.stats.docid_scans, 1_500);

    let deadline = Instant::now() + Duration::from_secs(2);
    let source = SlowSource {
        inner: idx.store(),
        sweeps: AtomicUsize::new(0),
        resolutions: AtomicUsize::new(0),
        hold,
        until: deadline + Duration::from_millis(5),
    };
    let cancelled = search_sequences(
        &source,
        &sequences,
        &SearchOptions {
            deadline: Some(deadline),
            ..SearchOptions::default()
        },
    );
    assert!(
        matches!(cancelled, Err(Error::DeadlineExceeded)),
        "{:?}",
        cancelled.map(|out| out.docs.len())
    );
    let (sweeps, resolutions) = (source.sweeps.into_inner(), source.resolutions.into_inner());
    match hold {
        // The loop finds the deadline passed when it turns to the next
        // frame.
        Hold::Sweep(_) => {
            assert_eq!((sweeps, resolutions), (4, 0), "two frames left unswept");
        }
        Hold::Resolution(_) => {
            assert_eq!((sweeps, resolutions), (5, 1), "one slice left unresolved");
        }
    }

    let after = search_sequences(idx.store(), &sequences, &SearchOptions::default()).unwrap();
    assert_eq!(after.docs, undisturbed.docs);
    assert_eq!(after.scopes, undisturbed.scopes);
    assert_eq!(after.stats, undisturbed.stats);
}

#[test]
fn a_deadline_between_two_frames_of_one_sweep_cancels_and_disturbs_nothing() {
    // The fourth sweep is the first of the three frames': the deadline
    // passes while it runs, with two frames of the same sweep pending.
    cancelled_while_holding(Hold::Sweep(4));
}

#[test]
fn a_deadline_between_two_slices_of_docid_resolution_cancels_and_disturbs_nothing() {
    // The first resolution is that of the first 1,024 merged scopes: the
    // deadline passes while it runs, with the second slice pending.
    cancelled_while_holding(Hold::Resolution(1));
}
