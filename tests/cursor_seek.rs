//! The B+Tree's seek-once read path, checked from outside the crate.
//!
//! `get_with`, `for_each_in` and `scan` all start from one descent to the
//! leaf covering their start bound, binary-search the first qualifying slot
//! there and walk right. Three properties pin that down:
//!
//! 1. **Model equivalence** — against a `BTreeMap`, for every combination of
//!    start and end bound over every stored key and every gap between,
//!    before and after them, so every first and last key of every leaf is a
//!    bound at some point; repeated after deletes unlinked whole leaves and
//!    thinned others, and on a tree deleted down to its empty root leaf.
//! 2. **B-link chase** — a seek that lands left of its key, because a leaf
//!    split has completed but the root pointer has not moved yet, still
//!    finds the key by following the forward link.
//! 3. **Total descent** — a page whose kind byte is neither leaf nor
//!    internal yields `Error::Corrupt` naming the page from all three entry
//!    points, never a panic.

use std::collections::BTreeMap;
use std::ops::{Bound, ControlFlow};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

use vist_btree::BTree;
use vist_storage::{BufferPool, Error, IoStats, MemPager, PageId, Pager, Result};

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

/// Stored keys are the even numbers, so every odd number is a gap.
fn key(i: usize) -> Vec<u8> {
    format!("k{i:04}").into_bytes()
}

fn value(i: usize) -> Vec<u8> {
    format!("value-{i:04}-{}", "x".repeat(i % 17)).into_bytes()
}

/// A tree of `n` keys on 256-byte pages (five or six records to a leaf) and
/// its model.
fn build(n: usize) -> (BTree, Model) {
    let pool = Arc::new(BufferPool::with_capacity(MemPager::new(256), 256));
    let tree = BTree::create(pool).unwrap();
    let mut model = Model::new();
    // Scrambled insertion order, so leaves split at varied points.
    for j in 0..n {
        let i = 2 * ((j * 37) % n);
        tree.insert(&key(i), &value(i)).unwrap();
        model.insert(key(i), value(i));
    }
    (tree, model)
}

/// Every bound the check uses: unbounded, and each of `points` included and
/// excluded.
fn bounds(points: &[Vec<u8>]) -> Vec<Bound<&[u8]>> {
    let mut out = vec![Bound::Unbounded];
    for p in points {
        out.push(Bound::Included(p.as_slice()));
        out.push(Bound::Excluded(p.as_slice()));
    }
    out
}

fn within(k: &[u8], start: Bound<&[u8]>, end: Bound<&[u8]>) -> bool {
    let after_start = match start {
        Bound::Unbounded => true,
        Bound::Included(s) => k >= s,
        Bound::Excluded(s) => k > s,
    };
    let before_end = match end {
        Bound::Unbounded => true,
        Bound::Included(e) => k <= e,
        Bound::Excluded(e) => k < e,
    };
    after_start && before_end
}

fn streamed(tree: &BTree, range: (Bound<&[u8]>, Bound<&[u8]>)) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut out = Vec::new();
    tree.for_each_in(range, |k, v| {
        out.push((k.to_vec(), v.to_vec()));
        ControlFlow::Continue(())
    })
    .unwrap();
    out
}

/// Compare the three read paths with the model over the full bound grid.
fn check_against_model(tree: &BTree, model: &Model, points: &[Vec<u8>], what: &str) {
    for p in points {
        let got = tree.get_with(p, <[u8]>::to_vec).unwrap();
        assert_eq!(got.as_ref(), model.get(p), "{what}: get_with {p:?}");
    }
    let grid = bounds(points);
    for &start in &grid {
        for &end in &grid {
            // Filtered by hand: `BTreeMap::range` panics on the inverted and
            // empty ranges this grid contains on purpose.
            let expect: Vec<(Vec<u8>, Vec<u8>)> = model
                .iter()
                .filter(|(k, _)| within(k, start, end))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            assert_eq!(
                streamed(tree, (start, end)),
                expect,
                "{what}: for_each_in {start:?}..{end:?}"
            );
            let scanned: Vec<_> = tree
                .scan((start, end))
                .unwrap()
                .collect::<Result<_>>()
                .unwrap();
            assert_eq!(scanned, expect, "{what}: scan {start:?}..{end:?}");
        }
    }
}

#[test]
fn cursors_and_point_probes_match_a_btreemap_on_every_bound() {
    let n = 40;
    let (tree, mut model) = build(n);
    let leaves = tree.tree_stats().unwrap().leaf_pages;
    assert!(leaves >= 6, "only {leaves} leaves: no boundaries to test");
    // Stored keys, the gap after each, one key before all and one after.
    let mut points: Vec<Vec<u8>> = (0..2 * n).map(key).collect();
    points.insert(0, b"a".to_vec());
    points.push(b"z".to_vec());
    check_against_model(&tree, &model, &points, "fresh");

    // A run long enough to empty (and so unlink) whole leaves, plus every
    // third key elsewhere, leaving under-full leaves behind.
    let doomed: Vec<usize> = (10..24).chain((0..n).step_by(3)).collect();
    for i in doomed {
        assert_eq!(tree.delete(&key(2 * i)).unwrap(), model.remove(&key(2 * i)));
    }
    let after = tree.tree_stats().unwrap().leaf_pages;
    assert!(after < leaves, "no leaf was emptied: {leaves} -> {after}");
    check_against_model(&tree, &model, &points, "after deletes");
    tree.verify().unwrap();

    // Down to the one leaf lazy deletion never frees: the empty root.
    for k in std::mem::take(&mut model).keys() {
        assert!(tree.delete(k).unwrap().is_some());
    }
    assert!(tree.is_empty().unwrap());
    check_against_model(&tree, &model, &points[..12], "emptied");
}

#[test]
fn break_stops_the_walk_and_empty_ranges_visit_nothing() {
    let (tree, model) = build(40);
    let mut seen = Vec::new();
    tree.for_each_in(key(11).as_slice().., |k, _| {
        seen.push(k.to_vec());
        if seen.len() == 9 {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    })
    .unwrap();
    let expect: Vec<_> = model
        .range(key(11)..)
        .take(9)
        .map(|(k, _)| k.clone())
        .collect();
    assert_eq!(seen, expect, "nine keys spanning a leaf boundary");
    // Start after end, and both ends excluding the same key.
    assert!(streamed(
        &tree,
        (Bound::Included(&key(30)[..]), Bound::Excluded(&key(10)[..]))
    )
    .is_empty());
    assert!(streamed(
        &tree,
        (Bound::Excluded(&key(8)[..]), Bound::Excluded(&key(8)[..]))
    )
    .is_empty());
}

/// A `MemPager` whose `n`-th allocation reports that it was reached and then
/// waits to be released: the test's handle on a writer's progress.
struct GatedPager {
    inner: MemPager,
    allocations: usize,
    gate_at: usize,
    reached: Sender<()>,
    release: Receiver<()>,
}

impl Pager for GatedPager {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn allocate(&mut self) -> Result<PageId> {
        self.allocations += 1;
        if self.allocations == self.gate_at {
            self.reached.send(()).unwrap();
            self.release.recv().unwrap();
        }
        self.inner.allocate()
    }
    fn free(&mut self, id: PageId) -> Result<()> {
        self.inner.free(id)
    }
    fn read(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
        self.inner.read(id, buf)
    }
    fn write(&mut self, id: PageId, buf: &[u8]) -> Result<()> {
        self.inner.write(id, buf)
    }
    fn live_pages(&self) -> u64 {
        self.inner.live_pages()
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
fn a_seek_left_of_a_freshly_split_key_chases_the_forward_link() {
    // Allocation 1 is the root leaf. The insert that overflows it allocates
    // the right sibling (2), moves the upper half there and links it, and
    // only then allocates the new root (3). Gating allocation 3 parks the
    // writer inside exactly that window: the split is complete, the root
    // pointer still names the left half.
    let (reached_tx, reached) = channel();
    let (release, release_rx) = channel();
    let pager = GatedPager {
        inner: MemPager::new(256),
        allocations: 0,
        gate_at: 3,
        reached: reached_tx,
        release: release_rx,
    };
    let tree = BTree::create(Arc::new(BufferPool::with_capacity(pager, 64))).unwrap();
    let root = tree.root_page();
    let committed = AtomicUsize::new(0);
    let chases = || vist_obs::snapshot().counter("vist_btree_leaf_chase_total");
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            while tree.root_page() == root {
                let i = committed.load(Ordering::Relaxed);
                tree.insert(&key(2 * i), &value(i)).unwrap();
                committed.store(i + 1, Ordering::Release);
            }
        });
        reached.recv().unwrap();
        // Keys 0..n are committed; key n is the insert parked in the window
        // (already in the right sibling, not yet acknowledged). Every page
        // is cached, so the reads below never need the pager the writer
        // holds.
        let n = committed.load(Ordering::Acquire);
        assert_eq!(tree.root_page(), root, "the root pointer has not moved");
        let in_root = tree.tree_stats().unwrap().entries as usize;
        assert!(
            (1..n).contains(&in_root),
            "the root leaf kept the lower half only: {in_root} of {n}"
        );
        let expect_from = |i: usize| -> Vec<(Vec<u8>, Vec<u8>)> {
            (i..=n).map(|j| (key(2 * j), value(j))).collect()
        };
        let before = chases();
        // Every seek lands on the root leaf; committed keys `in_root..n`
        // are reachable only through its forward link.
        for i in 0..n {
            let k = key(2 * i);
            assert_eq!(
                tree.get_with(&k, <[u8]>::to_vec).unwrap(),
                Some(value(i)),
                "committed key {i} of {n}"
            );
            assert_eq!(
                streamed(&tree, (Bound::Included(&k[..]), Bound::Unbounded)),
                expect_from(i)
            );
            assert_eq!(
                streamed(&tree, (Bound::Excluded(&k[..]), Bound::Unbounded)),
                expect_from(i + 1)
            );
            let scanned: Vec<_> = tree
                .scan(k.as_slice()..)
                .unwrap()
                .collect::<Result<_>>()
                .unwrap();
            assert_eq!(scanned, expect_from(i));
        }
        assert!(
            chases() - before >= (n - in_root) as u64,
            "point probes right of the root leaf chased link1"
        );
        assert_eq!(tree.root_page(), root, "the window stayed open throughout");
        release.send(()).unwrap();
        writer.join().unwrap();
        assert_ne!(tree.root_page(), root, "the split finished");
        let all = streamed(&tree, (Bound::Unbounded, Bound::Unbounded));
        assert_eq!(all.len(), committed.load(Ordering::Acquire));
        tree.verify().unwrap();
    });
}

#[test]
fn a_bad_kind_byte_is_an_error_naming_the_page_never_a_panic() {
    let n = 120;
    let (tree, model) = build(n);
    let stats = tree.tree_stats().unwrap();
    assert!(stats.height >= 3, "want internal pages below the root");
    let pages = stats.leaf_pages + stats.internal_pages;
    // A fresh `MemPager` hands out dense ids from 0 and nothing else lives
    // in this pool, so `0..pages` are exactly the tree's pages.
    assert_eq!(tree.pool().live_pages(), pages);
    for pid in 0..pages as PageId {
        for bad in [0x00u8, 0x04, 0x81, 0xFF] {
            let saved =
                std::mem::replace(&mut tree.pool().fetch_mut(pid).unwrap().data_mut()[0], bad);
            let mut errors = Vec::new();
            let mut note = |r: Result<()>| {
                if let Err(e) = r {
                    errors.push(e);
                }
            };
            // Point probes route through every internal page; the full
            // walks touch every leaf.
            for k in model.keys() {
                note(tree.get_with(k, |_| ()).map(|_| ()));
            }
            note(tree.for_each_in(.., |_, _| ControlFlow::Continue(())));
            note(
                tree.scan(..)
                    .and_then(|mut scan| scan.try_for_each(|r| r.map(|_| ()))),
            );
            assert!(
                !errors.is_empty(),
                "page {pid} byte {bad:#04x} went unnoticed"
            );
            for e in errors {
                let msg = e.to_string();
                assert!(
                    matches!(e, Error::Corrupt(_)) && msg.contains(&format!("page {pid}:")),
                    "page {pid} byte {bad:#04x}: {msg}"
                );
            }
            tree.pool().fetch_mut(pid).unwrap().data_mut()[0] = saved;
        }
    }
    assert_eq!(
        streamed(&tree, (Bound::Unbounded, Bound::Unbounded)).len(),
        n
    );
}
