//! Ordered range scans over the leaf chain: one descent to the leaf covering
//! the start bound, a binary search for the first qualifying slot, then
//! slots and forward links until the end bound ([`Tree::walk_leaves`]).
//! Written once for both descents: a cursor over a [`crate::PackedTree`]
//! differs from one over a [`crate::BTree`] only in how its seek finds the
//! first leaf. [`Tree::for_each_in_ranges`] is the same walk over many sorted
//! ranges in one pass, seeking again only when a range starts beyond the leaf
//! under the cursor.

use std::collections::VecDeque;
use std::ops::{Bound, ControlFlow, RangeBounds};

use vist_storage::{BufferPool, PageId, PageRef, Result, SlotId, INVALID_PAGE};

use crate::leaf::{either, KeyScratch, Leaf, LeafView};
use crate::node::link1;
use crate::tree::{fetch_leaf, Descent, Tree};

/// First slot of `leaf` whose key satisfies the `start` bound (the slot
/// count when none does).
#[inline]
fn first_slot<'a>(leaf: &impl Leaf<'a>, start: Bound<&[u8]>) -> Result<SlotId> {
    Ok(match start {
        Bound::Unbounded => 0,
        Bound::Included(s) => leaf.search(s)?.unwrap_or_else(|i| i),
        Bound::Excluded(s) => leaf.search(s)?.map_or_else(|i| i, |i| i + 1),
    })
}

/// The `end` bound of a walk as the keys of one leaf see it, all of which
/// start with `prefix`: `None` when every one of them lies beyond it,
/// otherwise the bound on what follows the prefix. (An end key that leaves
/// the prefix at some byte lies on one side of all of them.)
fn end_after_prefix<'e>(prefix: &[u8], end: Bound<&'e [u8]>) -> Option<Bound<&'e [u8]>> {
    let (Bound::Included(e) | Bound::Excluded(e)) = end else {
        return Some(Bound::Unbounded);
    };
    match e.strip_prefix(prefix) {
        Some(rest) => Some(end.map(|_| rest)),
        None if e < prefix => None,
        None => Some(Bound::Unbounded),
    }
}

fn within_end(suffix: &[u8], end: Bound<&[u8]>) -> bool {
    match end {
        Bound::Unbounded => true,
        Bound::Included(e) => suffix <= e,
        Bound::Excluded(e) => suffix < e,
    }
}

/// Hand the records of `leaf` that lie inside `(start, end)` to `f`, in key
/// order, each key in one piece (put together in `scratch` when the leaf
/// stores a prefix apart). `seeking` is true until the walk has reached the
/// start bound: a seek can land left of it (see [`Descent::seek_leaf`]), in
/// which case this leaf contributes nothing and the next one is searched
/// again. Breaks when `f` does or a key beyond `end` is met; the leaf chain
/// is sorted, so the walk is over then.
#[inline]
fn visit_leaf<'a>(
    leaf: &impl Leaf<'a>,
    start: Bound<&[u8]>,
    end: Bound<&[u8]>,
    seeking: &mut bool,
    scratch: &mut KeyScratch,
    mut f: impl FnMut(&[u8], &[u8]) -> ControlFlow<()>,
) -> Result<ControlFlow<()>> {
    let n = leaf.count();
    let first = if *seeking {
        first_slot(leaf, start)?
    } else {
        0
    };
    if first < n {
        *seeking = false;
    }
    let prefix = leaf.prefix();
    let Some(end) = end_after_prefix(prefix, end) else {
        return Ok(ControlFlow::Break(()));
    };
    // Most probes of the match loop find nothing on the leaf: the prefix is
    // copied when the first key is asked for.
    let mut started = false;
    for i in first..n {
        let (suffix, v) = leaf.entry(i)?;
        if !within_end(suffix, end) {
            return Ok(ControlFlow::Break(()));
        }
        if !started {
            scratch.start_leaf(prefix);
            started = true;
        }
        if f(scratch.key(prefix, suffix), v).is_break() {
            return Ok(ControlFlow::Break(()));
        }
    }
    Ok(ControlFlow::Continue(()))
}

/// `a > b` in byte order, compared inline: a suffix is a few bytes, and on a
/// multi-range walk a `memcmp` call costs more than this loop (PR 25 measured
/// `scan-spill` 5 % faster; a compare as `u128` words was 30 % slower).
#[inline]
fn after(a: &[u8], b: &[u8]) -> bool {
    for (x, y) in a.iter().zip(b) {
        if x != y {
            return x > y;
        }
    }
    a.len() > b.len()
}

/// First slot in `from..n` of `leaf` whose key suffix sorts after `probe`
/// (`n` when none does): doubling steps away from `from`, then a binary
/// search of the last step. A walk over many ranges asks for a slot a little
/// right of the one it stands on, which this finds in a compare or two.
#[inline]
fn gallop_past<'a>(leaf: &impl Leaf<'a>, from: SlotId, n: SlotId, probe: &[u8]) -> Result<SlotId> {
    // Every slot below `lo` holds a key `<= probe`, slot `hi` (when there is
    // one) a key beyond it.
    let (mut lo, mut hi, mut step): (SlotId, SlotId, SlotId) = (from, n, 1);
    while lo < n {
        let at = lo.saturating_add(step - 1).min(n - 1);
        if after(leaf.entry(at)?.0, probe) {
            hi = at;
            break;
        }
        lo = at + 1;
        step = step.saturating_mul(2);
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if after(leaf.entry(mid)?.0, probe) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Ok(lo)
}

/// What a walk over many ranges carries from leaf to leaf.
struct Ranges<K> {
    /// Writes the bounds of range `i` into `lo` and `hi`.
    bounds: K,
    n: usize,
    /// The range under the cursor.
    i: usize,
    lo: Vec<u8>,
    hi: Vec<u8>,
    /// The walk is past `lo`: the range goes on from the previous leaf.
    inside: bool,
    /// The leaf under the cursor was reached by a seek of `lo`, so what lies
    /// beyond its last key is on the next leaf. A leaf the walk merely
    /// finished another range on says nothing of where `lo` is.
    sought: bool,
}

impl<K: FnMut(usize, &mut Vec<u8>, &mut Vec<u8>)> Ranges<K> {
    /// Ask for the bounds of range `i`.
    fn load(&mut self) {
        self.lo.clear();
        self.hi.clear();
        (self.bounds)(self.i, &mut self.lo, &mut self.hi);
    }
}

/// Where a walk over many ranges goes after a leaf.
enum Next {
    /// Nowhere: the ranges are used up, the chain ended or `f` broke.
    Done,
    /// To the next leaf of the chain: the range under the cursor goes on
    /// there, or starts there.
    Chain,
    /// To the leaf a seek of `lo` finds: the range under the cursor starts
    /// beyond this leaf's last key.
    Seek,
}

/// Hand `f` the records of `leaf` inside the range under the cursor and
/// inside every later range that starts on this leaf, moving from range to
/// range by [`gallop_past`]. Bounds are compared with key suffixes; a key is
/// put together in `scratch` only for `f`. `last` says the chain ends here.
#[inline]
fn sweep_leaf<'a, K, F>(
    leaf: &impl Leaf<'a>,
    last: bool,
    ranges: &mut Ranges<K>,
    scratch: &mut KeyScratch,
    f: &mut F,
) -> Result<Next>
where
    K: FnMut(usize, &mut Vec<u8>, &mut Vec<u8>),
    F: FnMut(&[u8], &[u8]) -> ControlFlow<()>,
{
    let n = leaf.count();
    let prefix = leaf.prefix();
    let mut at = 0;
    let mut started = false;
    loop {
        if !ranges.inside {
            at = match ranges.lo.strip_prefix(prefix) {
                Some(rest) => gallop_past(leaf, at, n, rest)?,
                None if ranges.lo.as_slice() < prefix => at,
                None => n,
            };
            if at == n {
                return Ok(match (last, ranges.sought) {
                    (true, _) => Next::Done,
                    (false, true) => Next::Chain,
                    (false, false) => Next::Seek,
                });
            }
            ranges.inside = true;
        }
        if let Some(end) = end_after_prefix(prefix, Bound::Excluded(&ranges.hi)) {
            while at < n {
                let (suffix, v) = leaf.entry(at)?;
                // `end` is `Excluded`, or `Unbounded` past the prefix.
                if matches!(end, Bound::Excluded(e) if !after(e, suffix)) {
                    break;
                }
                if !started {
                    scratch.start_leaf(prefix);
                    started = true;
                }
                if f(scratch.key(prefix, suffix), v).is_break() {
                    return Ok(Next::Done);
                }
                at += 1;
            }
            if at == n {
                return Ok(if last { Next::Done } else { Next::Chain });
            }
        }
        // The range ended on this leaf, before slot `at`. The next one
        // starts no lower, so the search for it goes on from here; one that
        // overlaps what was already handed out adds only what is new.
        ranges.i += 1;
        if ranges.i == ranges.n {
            return Ok(Next::Done);
        }
        ranges.load();
        ranges.inside = false;
        ranges.sought = false;
    }
}

/// Iterator over `(key, value)` pairs in key order.
///
/// Created by [`Tree::scan`] / [`Tree::scan_prefix`]. The scan borrows the
/// tree immutably, so the tree cannot be modified while a scan is live — the
/// borrow checker enforces the stability the iterator relies on.
///
/// Each leaf page's qualifying records are copied out in one batch, so page
/// guards are never held across `next()` calls.
pub struct Scan<'a> {
    pool: &'a BufferPool,
    /// Records buffered from the current leaf.
    buffered: VecDeque<(Vec<u8>, Vec<u8>)>,
    /// Next leaf to read, or `INVALID_PAGE` when the scan is over.
    next_leaf: PageId,
    start: Bound<Vec<u8>>,
    end: Bound<Vec<u8>>,
    /// See [`visit_leaf`].
    seeking: bool,
    /// Records handed out so far; recorded into the `vist_btree_scan_len`
    /// histogram when the scan drops.
    yielded: u64,
}

impl Drop for Scan<'_> {
    fn drop(&mut self) {
        vist_obs::observe!("vist_btree_scan_len", self.yielded);
    }
}

impl Scan<'_> {
    /// Copy one leaf's qualifying records into the buffer and note where
    /// the scan goes next.
    fn buffer(&mut self, page: &PageRef) -> Result<()> {
        let buf = page.data();
        let buffered = &mut self.buffered;
        let (start, end) = (
            self.start.as_ref().map(Vec::as_slice),
            self.end.as_ref().map(Vec::as_slice),
        );
        let mut keep = |k: &[u8], v: &[u8]| {
            buffered.push_back((k.to_vec(), v.to_vec()));
            ControlFlow::Continue(())
        };
        let (seeking, scratch) = (&mut self.seeking, &mut KeyScratch::new());
        let flow = either!(LeafView::new(page.id(), buf)?, leaf => {
            visit_leaf(&leaf, start, end, seeking, scratch, &mut keep)?
        });
        self.next_leaf = match flow {
            ControlFlow::Continue(()) => link1(buf),
            ControlFlow::Break(()) => INVALID_PAGE,
        };
        Ok(())
    }

    /// Read leaves until one contributes records or the scan is over.
    fn fill(&mut self) -> Result<()> {
        while self.buffered.is_empty() && self.next_leaf != INVALID_PAGE {
            let page = fetch_leaf(self.pool, self.next_leaf)?;
            self.buffer(&page)?;
        }
        Ok(())
    }
}

impl Iterator for Scan<'_> {
    type Item = Result<(Vec<u8>, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.buffered.is_empty() {
            if let Err(e) = self.fill() {
                self.next_leaf = INVALID_PAGE;
                return Some(Err(e));
            }
        }
        let item = self.buffered.pop_front();
        if item.is_some() {
            self.yielded += 1;
        }
        item.map(Ok)
    }
}

impl<D: Descent> Tree<D> {
    /// Iterate over all `(key, value)` pairs with keys in `range`, in key
    /// order.
    ///
    /// ```
    /// # use std::sync::Arc;
    /// # use vist_storage::{BufferPool, MemPager};
    /// # use vist_btree::BTree;
    /// # let pool = Arc::new(BufferPool::with_capacity(MemPager::new(4096), 16));
    /// # let mut t = BTree::create(pool).unwrap();
    /// t.insert(b"a", b"1").unwrap();
    /// t.insert(b"b", b"2").unwrap();
    /// t.insert(b"c", b"3").unwrap();
    /// let hits: Vec<_> = t
    ///     .scan(&b"a"[..]..&b"c"[..])
    ///     .unwrap()
    ///     .map(|r| r.unwrap().0)
    ///     .collect();
    /// assert_eq!(hits, vec![b"a".to_vec(), b"b".to_vec()]);
    /// ```
    pub fn scan<'k, R>(&self, range: R) -> Result<Scan<'_>>
    where
        R: RangeBounds<&'k [u8]>,
    {
        let start = range.start_bound().cloned();
        let (first, _) = self.seek_leaf(start)?;
        let mut scan = Scan {
            pool: self.pool(),
            buffered: VecDeque::new(),
            next_leaf: INVALID_PAGE,
            start: start.map(<[u8]>::to_vec),
            end: range.end_bound().map(|e| e.to_vec()),
            seeking: true,
            yielded: 0,
        };
        scan.buffer(&first)?;
        drop(first);
        scan.fill()?;
        Ok(scan)
    }

    /// Iterate over all entries whose key starts with `prefix`.
    pub fn scan_prefix(&self, prefix: &[u8]) -> Result<Scan<'_>> {
        match crate::codec::prefix_upper_bound(prefix) {
            Some(ub) => self.scan((Bound::Included(prefix), Bound::Excluded(ub.as_slice()))),
            None => self.scan((Bound::Included(prefix), Bound::Unbounded)),
        }
    }

    /// Visit every `(key, value)` pair with keys in `range`, in key order,
    /// without copying: `f` receives slices borrowed directly from the leaf
    /// page. Return [`ControlFlow::Break`] from `f` to stop early.
    ///
    /// This is the zero-allocation counterpart of [`Tree::scan`] for hot
    /// paths: where `scan` copies each leaf's qualifying records into an
    /// owned buffer, `for_each_in` holds the leaf's shared page latch across
    /// the callbacks for that leaf and hands out borrowed slices. The latch
    /// is dropped before the next leaf in the chain is fetched, so writers
    /// are only excluded from one page at a time (B-link right-chaining
    /// keeps the traversal safe across concurrent splits, as in `scan`).
    ///
    /// **Constraint:** because a page latch is held while `f` runs, `f`
    /// must not re-enter this tree's buffer pool (no `get`/`scan`/... on
    /// any tree sharing the pool) — the pinned page can never be evicted,
    /// so a nested fetch could exhaust the pool. Decode and accumulate into
    /// caller-owned memory instead.
    pub fn for_each_in<'k, R, F>(&self, range: R, mut f: F) -> Result<()>
    where
        R: RangeBounds<&'k [u8]>,
        F: FnMut(&[u8], &[u8]) -> ControlFlow<()>,
    {
        let start = range.start_bound().cloned();
        let end = range.end_bound().cloned();
        let mut visited = 0u64;
        let mut seeking = true;
        let mut scratch = KeyScratch::new();
        let mut count = |k: &[u8], v: &[u8]| {
            visited += 1;
            f(k, v)
        };
        self.walk_leaves(start, |leaf| {
            // One copy of the walk per layout: the choice is made here, once
            // a leaf, not once a record.
            either!(leaf, leaf => {
                visit_leaf(&leaf, start, end, &mut seeking, &mut scratch, &mut count)
            })
        })?;
        vist_obs::observe!("vist_btree_scan_len", visited);
        Ok(())
    }

    /// [`Tree::for_each_in`] over `n` ranges at once: visit every record
    /// whose key lies strictly between the two keys of some range, in key
    /// order, each once. `bounds(i, lo, hi)` appends the keys of range `i`
    /// to the two buffers (handed over empty, reused from range to range);
    /// it is asked for each `i` in `0..n` at most once, in order, and the
    /// ranges must be sorted by `lo`. Ranges that overlap are visited as
    /// their union.
    ///
    /// One forward pass: a leaf is fetched once however many ranges fall on
    /// it, the walk follows the leaf chain while a range goes on, and it
    /// seeks again (as a fresh `for_each_in` would) only for a range that
    /// starts beyond the last key of the leaf under the cursor.
    ///
    /// **Constraint:** `bounds` is called under the leaf latch like `f`;
    /// neither may re-enter this tree's buffer pool.
    pub fn for_each_in_ranges<K, F>(&self, n: usize, bounds: K, mut f: F) -> Result<()>
    where
        K: FnMut(usize, &mut Vec<u8>, &mut Vec<u8>),
        F: FnMut(&[u8], &[u8]) -> ControlFlow<()>,
    {
        if n == 0 {
            return Ok(());
        }
        let mut ranges = Ranges {
            bounds,
            n,
            i: 0,
            lo: Vec::new(),
            hi: Vec::new(),
            inside: false,
            sought: true,
        };
        ranges.load();
        let mut visited = 0u64;
        let mut scratch = KeyScratch::new();
        let mut count = |k: &[u8], v: &[u8]| {
            visited += 1;
            f(k, v)
        };
        let (mut page, _) = self.seek_leaf(Bound::Excluded(&ranges.lo))?;
        loop {
            let buf = page.data();
            let next = link1(buf);
            let step = either!(LeafView::new(page.id(), buf)?, leaf => {
                sweep_leaf(&leaf, next == INVALID_PAGE, &mut ranges, &mut scratch, &mut count)?
            });
            drop(page);
            page = match step {
                Next::Done => break,
                Next::Chain => fetch_leaf(&self.pool, next)?,
                Next::Seek => {
                    ranges.sought = true;
                    self.seek_leaf(Bound::Excluded(&ranges.lo))?.0
                }
            };
        }
        vist_obs::observe!("vist_btree_scan_len", visited);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BTree;
    use std::sync::Arc;
    use vist_storage::MemPager;

    fn filled(n: u32) -> BTree {
        let pool = Arc::new(BufferPool::with_capacity(MemPager::new(512), 256));
        let t = BTree::create(pool).unwrap();
        for i in 0..n {
            t.insert(format!("k{i:06}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        t
    }

    fn keys(scan: Scan<'_>) -> Vec<String> {
        scan.map(|r| String::from_utf8(r.unwrap().0).unwrap())
            .collect()
    }

    #[test]
    fn after_is_byte_order() {
        let keys: [&[u8]; 7] = [b"", b"\0", b"a", b"a\0", b"ab", b"b", b"\xff"];
        for a in keys {
            for b in keys {
                assert_eq!(after(a, b), a > b, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn full_scan_in_order() {
        let t = filled(1500);
        let ks = keys(t.scan(..).unwrap());
        assert_eq!(ks.len(), 1500);
        let mut sorted = ks.clone();
        sorted.sort();
        assert_eq!(ks, sorted);
        assert_eq!(ks[0], "k000000");
        assert_eq!(ks[1499], "k001499");
    }

    #[test]
    fn bounded_ranges() {
        let t = filled(100);
        let ks = keys(t.scan(&b"k000010"[..]..&b"k000013"[..]).unwrap());
        assert_eq!(ks, vec!["k000010", "k000011", "k000012"]);
        // Inclusive end.
        let ks = keys(t.scan(&b"k000097"[..]..=&b"k000099"[..]).unwrap());
        assert_eq!(ks, vec!["k000097", "k000098", "k000099"]);
        // Start beyond the data.
        let ks = keys(t.scan(&b"z"[..]..).unwrap());
        assert!(ks.is_empty());
        // Excluded start.
        let ks = keys(
            t.scan((
                Bound::Excluded(&b"k000000"[..]),
                Bound::Excluded(&b"k000003"[..]),
            ))
            .unwrap(),
        );
        assert_eq!(ks, vec!["k000001", "k000002"]);
    }

    #[test]
    fn range_bounds_not_in_tree() {
        let t = filled(50);
        // Bounds fall between existing keys.
        let ks = keys(t.scan(&b"k0000055"[..]..&b"k0000105"[..]).unwrap());
        assert_eq!(
            ks,
            vec!["k000006", "k000007", "k000008", "k000009", "k000010"]
        );
    }

    #[test]
    fn prefix_scan() {
        let pool = Arc::new(BufferPool::with_capacity(MemPager::new(512), 64));
        let t = BTree::create(pool).unwrap();
        for k in ["ab", "abc", "abd", "ac", "b"] {
            t.insert(k.as_bytes(), b"").unwrap();
        }
        let ks = keys(t.scan_prefix(b"ab").unwrap());
        assert_eq!(ks, vec!["ab", "abc", "abd"]);
        let ks = keys(t.scan_prefix(b"").unwrap());
        assert_eq!(ks.len(), 5);
        let ks = keys(t.scan_prefix(b"zz").unwrap());
        assert!(ks.is_empty());
    }

    #[test]
    fn empty_tree_scans_empty() {
        let pool = Arc::new(BufferPool::with_capacity(MemPager::new(512), 16));
        let t = BTree::create(pool).unwrap();
        assert!(keys(t.scan(..).unwrap()).is_empty());
        assert!(keys(t.scan(&b"a"[..]..&b"z"[..]).unwrap()).is_empty());
    }

    #[test]
    fn for_each_in_matches_scan() {
        let t = filled(1500);
        for range in [
            (Bound::Unbounded, Bound::Unbounded),
            (
                Bound::Included(b"k000010".to_vec()),
                Bound::Excluded(b"k000499".to_vec()),
            ),
            (
                Bound::Excluded(b"k000000".to_vec()),
                Bound::Included(b"k000003".to_vec()),
            ),
            (Bound::Included(b"z".to_vec()), Bound::Unbounded),
        ] {
            let as_bounds = (
                match &range.0 {
                    Bound::Unbounded => Bound::Unbounded,
                    Bound::Included(s) => Bound::Included(s.as_slice()),
                    Bound::Excluded(s) => Bound::Excluded(s.as_slice()),
                },
                match &range.1 {
                    Bound::Unbounded => Bound::Unbounded,
                    Bound::Included(e) => Bound::Included(e.as_slice()),
                    Bound::Excluded(e) => Bound::Excluded(e.as_slice()),
                },
            );
            let copied: Vec<(Vec<u8>, Vec<u8>)> =
                t.scan(as_bounds).unwrap().collect::<Result<_>>().unwrap();
            let mut streamed = Vec::new();
            t.for_each_in(as_bounds, |k, v| {
                streamed.push((k.to_vec(), v.to_vec()));
                ControlFlow::Continue(())
            })
            .unwrap();
            assert_eq!(copied, streamed, "range {range:?}");
        }
    }

    #[test]
    fn for_each_in_breaks_early() {
        let t = filled(1000);
        let mut seen = Vec::new();
        t.for_each_in(.., |k, _| {
            seen.push(k.to_vec());
            if seen.len() == 7 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .unwrap();
        assert_eq!(seen.len(), 7);
        assert_eq!(seen[0], b"k000000".to_vec());
        assert_eq!(seen[6], b"k000006".to_vec());
    }

    #[test]
    fn for_each_in_empty_tree() {
        let pool = Arc::new(BufferPool::with_capacity(MemPager::new(512), 16));
        let t = BTree::create(pool).unwrap();
        let mut n = 0;
        t.for_each_in(.., |_, _| {
            n += 1;
            ControlFlow::Continue(())
        })
        .unwrap();
        assert_eq!(n, 0);
    }
}
