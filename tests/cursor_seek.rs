//! The B+Tree's seek-once read path, checked from outside the crate.
//!
//! `get_with`, `for_each_in` and `scan` all start from one descent to the
//! leaf covering their start bound, binary-search the first qualifying slot
//! there and walk right. Three properties pin that down:
//!
//! 1. **Model equivalence** — against a `BTreeMap`, for every combination of
//!    start and end bound over every stored key and every gap between,
//!    before and after them, so every first and last key of every leaf is a
//!    bound at some point; repeated on the tree's empty root leaf after a
//!    `clear`, the one way records leave it.
//! 2. **B-link chase** — a seek that lands left of its key, because a leaf
//!    split has completed but the root pointer has not moved yet, still
//!    finds the key by following the forward link.
//! 3. **Total descent** — a page whose kind byte is neither leaf nor
//!    internal yields `Error::Corrupt` naming the page from all three entry
//!    points, never a panic.
//! 4. **Many ranges, one pass** — `for_each_in_ranges` over a sorted list of
//!    ranges visits what one `for_each_in` per range visits (as a union, in
//!    key order), asks for each range's bounds once and in order, and never
//!    fetches more pages than those per-range walks: nothing extra for a
//!    range that starts on the leaf under the cursor, one page per leaf a
//!    range runs on to, a fresh descent only for a range that starts beyond
//!    the leaf's last key.

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

type Ranges = Vec<(Vec<u8>, Vec<u8>)>;

/// The multi-range walk over `ranges`, each `(Excluded, Excluded)`.
fn swept(tree: &BTree, ranges: &Ranges) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut out = Vec::new();
    let mut asked = Vec::new();
    tree.for_each_in_ranges(
        ranges.len(),
        |i, lo, hi| {
            assert!(lo.is_empty() && hi.is_empty(), "buffers arrive empty");
            asked.push(i);
            lo.extend_from_slice(&ranges[i].0);
            hi.extend_from_slice(&ranges[i].1);
        },
        |k, v| {
            out.push((k.to_vec(), v.to_vec()));
            ControlFlow::Continue(())
        },
    )
    .unwrap();
    assert!(
        asked.windows(2).all(|w| w[0] + 1 == w[1]) && asked.first().is_none_or(|&i| i == 0),
        "bounds asked for out of order: {asked:?}"
    );
    out
}

/// What one `for_each_in` per range visits, as a union in key order.
fn one_by_one(tree: &BTree, ranges: &Ranges) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut all = Model::new();
    for (lo, hi) in ranges {
        all.extend(streamed(
            tree,
            (Bound::Excluded(&lo[..]), Bound::Excluded(&hi[..])),
        ));
    }
    all.into_iter().collect()
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A list of ranges over `points` (ascending), sorted by start: each starts
/// where the one before ended (adjacent), a little later, or — one in six —
/// before that end (an overlapping pair), and is empty, short (many to a
/// leaf) or long (several leaves).
fn range_list(points: &[Vec<u8>], count: usize, state: &mut u64) -> Ranges {
    let mut below = |n: usize| (splitmix64(state) % n as u64) as usize;
    let mut ranges = Ranges::new();
    let (mut lo, mut prev_end) = (below(4), 0usize);
    for _ in 0..count {
        lo = match below(6) {
            0 => lo.max(prev_end.saturating_sub(1 + below(3))),
            1 | 2 => lo.max(prev_end),
            _ => lo.max(prev_end) + below(5),
        };
        if lo >= points.len() {
            break;
        }
        let len = match below(8) {
            0 => 0,
            1 => 12 + below(30),
            _ => 1 + below(4),
        };
        let hi = (lo + len).min(points.len() - 1);
        ranges.push((points[lo].clone(), points[hi].clone()));
        prev_end = prev_end.max(hi);
    }
    ranges
}

/// Pages the tree's pool was asked for while `op` ran.
fn fetches(tree: &BTree, op: impl FnOnce()) -> u64 {
    let before = tree.pool().pool_stats().totals();
    op();
    let after = tree.pool().pool_stats().totals();
    (after.hits + after.misses) - (before.hits + before.misses)
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

    // Down to the fresh empty root leaf a clear leaves.
    tree.clear().unwrap();
    model.clear();
    tree.verify().unwrap();
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

#[test]
fn a_walk_over_many_ranges_visits_what_one_walk_per_range_visits() {
    let n = 120;
    let (tree, mut model) = build(n);
    assert!(tree.tree_stats().unwrap().height >= 3);
    let mut points: Vec<Vec<u8>> = (0..2 * n).map(key).collect();
    points.insert(0, b"a".to_vec());
    points.extend([b"z".to_vec(), b"zz".to_vec(), b"zzz".to_vec()]);
    let mut state = 0x5EED;
    let mut check = |tree: &BTree, model: &Model, what: &str| {
        let mut nonempty = 0;
        for round in 0..300 {
            let ranges = range_list(&points, 1 + round % 40, &mut state);
            let got = swept(tree, &ranges);
            let expect: Vec<_> = model
                .iter()
                .filter(|(k, _)| ranges.iter().any(|(lo, hi)| *k > lo && *k < hi))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            assert_eq!(got, expect, "{what}: {ranges:?}");
            assert_eq!(one_by_one(tree, &ranges), expect, "{what}: {ranges:?}");
            nonempty += usize::from(!got.is_empty());
            let many = fetches(tree, || drop(swept(tree, &ranges)));
            let single = fetches(tree, || drop(one_by_one(tree, &ranges)));
            assert!(many <= single, "{what}: {many} > {single} for {ranges:?}");
        }
        assert!(nonempty > 200 || model.is_empty(), "{what}: {nonempty}");
        // No ranges, ranges beyond every key, one range over everything.
        assert!(swept(tree, &Ranges::new()).is_empty());
        let beyond = vec![
            (b"z".to_vec(), b"zz".to_vec()),
            (b"zz".to_vec(), b"zzz".to_vec()),
        ];
        assert!(swept(tree, &beyond).is_empty());
        let all = vec![(b"a".to_vec(), b"z".to_vec())];
        assert_eq!(swept(tree, &all).len(), model.len(), "{what}");
    };
    check(&tree, &model, "fresh");
    tree.clear().unwrap();
    model.clear();
    check(&tree, &model, "emptied");
}

#[test]
fn a_walk_over_many_ranges_breaks_when_told_to() {
    let (tree, model) = build(40);
    let ranges: Ranges = (0..10).map(|i| (key(8 * i), key(8 * i + 5))).collect();
    let mut seen = Vec::new();
    tree.for_each_in_ranges(
        ranges.len(),
        |i, lo, hi| {
            lo.extend_from_slice(&ranges[i].0);
            hi.extend_from_slice(&ranges[i].1);
        },
        |k, _| {
            seen.push(k.to_vec());
            if seen.len() == 7 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        },
    )
    .unwrap();
    let expect: Vec<_> = model
        .keys()
        .filter(|k| ranges.iter().any(|(lo, hi)| *k > lo && *k < hi))
        .take(7)
        .cloned()
        .collect();
    assert_eq!(seen, expect);
}

#[test]
fn a_range_on_the_leaf_under_the_cursor_is_free_and_a_re_entry_costs_a_descent() {
    let n = 120;
    let (tree, model) = build(n);
    let height = u64::from(tree.tree_stats().unwrap().height);
    assert!(height >= 3);
    let count = |ranges: &Ranges| fetches(&tree, || drop(swept(&tree, ranges)));
    // Leaf by leaf: two neighbouring keys are on one leaf exactly when the
    // walk from one up to the other fetches nothing beyond the descent.
    let keys: Vec<&Vec<u8>> = model.keys().collect();
    let mut leaves: Vec<Vec<Vec<u8>>> = vec![vec![keys[0].clone()]];
    for pair in keys.windows(2) {
        let range = (Bound::Included(&pair[0][..]), Bound::Excluded(&pair[1][..]));
        match fetches(&tree, || drop(streamed(&tree, range))) - height {
            0 => leaves.last_mut().unwrap().push(pair[1].clone()),
            1 => leaves.push(vec![pair[1].clone()]),
            more => panic!("{more} leaves between two neighbours"),
        }
    }
    assert_eq!(
        leaves.len() as u64,
        tree.tree_stats().unwrap().leaf_pages,
        "leaf boundaries found"
    );
    // Bounds are stored keys of the leaf itself, so that no seek lands on
    // the leaf before (a key in the gap between two leaves may route there)
    // and no range runs off the leaf's end (which costs a look at the next).
    for (i, leaf) in leaves.iter().enumerate() {
        if leaf.len() < 3 {
            continue;
        }
        // Every record between the first and the last in a range of its
        // own: one descent.
        let each: Ranges = leaf
            .windows(2)
            .skip(1)
            .map(|w| (w[0].clone(), w[1].clone()))
            .chain(leaf.windows(3).map(|w| (w[0].clone(), w[2].clone())))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        assert_eq!(swept(&tree, &each).len(), leaf.len() - 2);
        assert_eq!(count(&each), height, "{} ranges on leaf {i}", each.len());

        // Two ranges five leaves apart: the second is a descent of its own,
        // what a second `for_each_in` costs, not a walk along the chain.
        if let Some(far) = leaves.get(i + 5).filter(|l| l.len() >= 3) {
            let two = vec![
                (leaf[0].clone(), leaf[2].clone()),
                (far[0].clone(), far[2].clone()),
            ];
            assert_eq!(swept(&tree, &two).len(), 2);
            assert_eq!(count(&two), 2 * height, "leaves {i} and {}", i + 5);
        }

        // One range over `m` leaves: the descent, then the chain.
        for m in 2..=4 {
            let Some(last) = leaves.get(i + m - 1).filter(|l| l.len() >= 2) else {
                continue;
            };
            let span = vec![(leaf[0].clone(), last[last.len() - 1].clone())];
            let expect: usize = leaves[i..i + m].iter().map(Vec::len).sum::<usize>() - 2;
            assert_eq!(swept(&tree, &span).len(), expect);
            assert_eq!(count(&span), height + m as u64 - 1, "{m} leaves from {i}");
        }
    }
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
    fn reset(&mut self) -> Result<()> {
        self.inner.reset()
    }
    fn read(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
        self.inner.read(id, buf)
    }
    fn write(&mut self, id: PageId, buf: &[u8]) -> Result<()> {
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
fn a_seek_left_of_a_freshly_split_key_chases_the_forward_link() {
    // Allocation 1 is the root leaf. The insert that overflows it allocates
    // the right sibling (2), moves the upper half there and links it, and
    // only then allocates the new root (3). Gating allocation 3 parks the
    // writer inside exactly that window: the split is complete, the root
    // pointer still names the left half. The keys descend, so each insert
    // lands in front of the leaf's first record and the split cuts at the
    // middle (a key past the last record would go alone to the right).
    let k = |i: usize| key(2 * (999 - i));
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
        // Owned by this closure, so a failing assertion below drops it while
        // unwinding: the parked writer's `recv` then fails instead of
        // waiting for ever, and the scope can join it.
        let release = release;
        let writer = s.spawn(|| {
            while tree.root_page() == root {
                let i = committed.load(Ordering::Relaxed);
                tree.insert(&k(i), &value(i)).unwrap();
                committed.store(i + 1, Ordering::Release);
            }
        });
        reached.recv().unwrap();
        // Inserts 0..n are committed; insert n, the smallest key, is the one
        // parked in the window (already in the root leaf, not yet
        // acknowledged). Every page is cached, so the reads below never need
        // the pager the writer holds.
        let n = committed.load(Ordering::Acquire);
        assert_eq!(tree.root_page(), root, "the root pointer has not moved");
        let in_root = tree.tree_stats().unwrap().entries as usize;
        assert!(
            (1..n).contains(&in_root),
            "the root leaf kept the lower half only: {in_root} of {n}"
        );
        // The keys from insert `i`'s on, in key order: inserts `i` down to 0.
        let expect_from = |i: usize| -> Vec<(Vec<u8>, Vec<u8>)> {
            (0..=i).rev().map(|j| (k(j), value(j))).collect()
        };
        let before = chases();
        // Every seek lands on the root leaf; the largest `n + 1 - in_root`
        // committed keys are reachable only through its forward link.
        for i in 0..n {
            let key = k(i);
            assert_eq!(
                tree.get_with(&key, <[u8]>::to_vec).unwrap(),
                Some(value(i)),
                "committed key {i} of {n}"
            );
            assert_eq!(
                streamed(&tree, (Bound::Included(&key[..]), Bound::Unbounded)),
                expect_from(i)
            );
            let mut after = expect_from(i);
            after.remove(0);
            assert_eq!(
                streamed(&tree, (Bound::Excluded(&key[..]), Bound::Unbounded)),
                after
            );
            let scanned: Vec<_> = tree
                .scan(key.as_slice()..)
                .unwrap()
                .collect::<Result<_>>()
                .unwrap();
            assert_eq!(scanned, expect_from(i));
        }
        assert!(
            chases() - before >= (n + 1 - in_root) as u64,
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
    let pool = tree.pool();
    assert_eq!(pool.store_bytes() / pool.page_size() as u64, pages);
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
