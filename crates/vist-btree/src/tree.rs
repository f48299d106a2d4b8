//! B+Tree insert / lookup / clear.
//!
//! # Concurrency
//!
//! Reads (`get`, `contains`, `len`, cursors) take `&self` and are safe to
//! run from many threads at once: each page access goes through the buffer
//! pool's per-frame `RwLock`, and the root page id is an atomic. Mutations
//! also take `&self` but serialize on an internal per-tree writer mutex, so
//! there is at most one writer at any time (single-writer / multi-reader).
//!
//! `insert` is additionally safe to run *concurrently with readers*: it
//! only allocates and splits pages, new pages are fully initialized before
//! they become reachable, and the root pointer is published with `Release`
//! ordering only after the new root page is complete. A split moves the
//! upper half of a node to its right sibling before the parent learns the
//! separator, so a reader descending through the stale ancestor can land
//! left of a committed key; `get` recovers by chasing the leaf-level
//! forward link (B-link style) whenever the key lies beyond the leaf it
//! reached, and the cursors do the same from the leaf their seek landed
//! on. A reader racing an insert may therefore miss only the one
//! key whose insert has not yet returned — never an already-committed
//! key, and never a torn or uninitialized page.
//!
//! The tree is insert-only: no record is removed on its own and no page is
//! freed; `clear` swaps in an empty root. Only a reset of the pool's pager
//! takes pages away, and that is not safe against readers (see
//! `docs/CONCURRENCY.md`; `vist-core` excludes them with a maintenance lock
//! around compaction's delta reset).

use std::ops::{Bound, ControlFlow};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use vist_storage::sync::Mutex;
use vist_storage::{
    BufferPool, Error, PageId, PageRef, Result, SlotId, SlottedPage, SlottedPageMut, INVALID_PAGE,
};

use crate::fence::Fence;
use crate::leaf::LeafView;
use crate::node::{
    child_for, decode_internal_cell, decode_leaf_cell, init_internal, init_leaf, internal_cell,
    kind, leaf_cell, link1, set_link1, upper_bound, NodeKind, KIND_PACKED_LEAF, NODE_HDR,
};

/// How a tree gets from a key to the leaf that covers it — the one thing
/// [`BTree`] and [`PackedTree`] do differently. Everything after the leaf is
/// reached (leaf search, the B-link chase, the leaf-chain walk, the cursors)
/// is written once, on [`Tree`].
pub trait Descent {
    /// Whether a seek can land left of its key because a split moved
    /// records right after the descent chose a child. Only then does a
    /// reader have to chase forward links; a tree that cannot change is
    /// told the covering leaf exactly.
    const CAN_SPLIT: bool;

    /// The root page; statistics and verification walk from here.
    fn root(&self) -> PageId;

    /// The leaf whose key range covers the key of `start` (the leftmost
    /// leaf when unbounded), still pinned and latched, with the number of
    /// pages fetched to reach it.
    fn seek_leaf(&self, pool: &BufferPool, start: Bound<&[u8]>) -> Result<(PageRef, u64)>;
}

/// A B+Tree over a shared [`BufferPool`], read through the descent `D`.
/// Use it through its two aliases: [`BTree`] (mutable, page descent) and
/// [`PackedTree`] (read-only, in-memory fence array). The read surface below
/// is common to both; only `BTree` has `insert`/`clear`.
pub struct Tree<D> {
    pub(crate) pool: Arc<BufferPool>,
    pub(crate) descent: D,
}

/// The descent of a tree that can change: fetch the root, binary-search
/// each internal page for the child, one pool fetch per level.
pub struct Paged {
    /// Current root page id; readers load it with `Acquire`, the writer
    /// publishes a fully-built new root with `Release`.
    root: AtomicU32,
    /// Serializes `insert`/`clear`; never held by readers.
    writer: Mutex<()>,
    max_cell: usize,
}

/// A mutable B+Tree.
///
/// Multiple trees may share one pool (ViST keeps its D-Ancestor/S-Ancestor
/// and DocId trees in a single store). The root page id changes as the tree
/// grows and when it is cleared; persist [`BTree::root_page`] and reopen
/// with [`BTree::open`].
pub type BTree = Tree<Paged>;

/// A bulk-loaded tree of an immutable packed segment, handed out by
/// [`crate::SegmentReader::tree`]. It has no mutating method, so nothing can
/// split or free a page under it; that is what lets it keep its inner
/// levels as one sorted in-memory fence array (built once at open, one entry
/// per leaf) and answer every probe with a binary search over plain memory
/// plus **one** pool fetch, that of the leaf. It takes no latch on the way
/// down because there is nothing to latch: see `docs/CONCURRENCY.md`.
pub type PackedTree = Tree<Fence>;

impl Descent for Paged {
    const CAN_SPLIT: bool = true;

    fn root(&self) -> PageId {
        self.root.load(Ordering::Acquire)
    }

    /// Every page on the way is checked for its kind byte, so one that is
    /// neither leaf nor internal is an [`Error::Corrupt`] naming it instead
    /// of a panic.
    ///
    /// Internal pages are released before their child is fetched, so a
    /// concurrent split can leave the result one or more leaves left of the
    /// key; callers recover by chasing [`fetch_leaf`] of `link1`.
    fn seek_leaf(&self, pool: &BufferPool, start: Bound<&[u8]>) -> Result<(PageRef, u64)> {
        let mut pid = self.root();
        let mut depth = 0u64;
        loop {
            let page = pool.fetch(pid)?;
            depth += 1;
            let buf = page.data();
            match kind(pid, buf)? {
                NodeKind::Leaf => return Ok((page, depth)),
                NodeKind::Internal => {
                    pid = match start {
                        Bound::Included(key) | Bound::Excluded(key) => child_for(pid, buf, key)?.1,
                        Bound::Unbounded => link1(buf),
                    };
                }
            }
        }
    }
}

/// Fetch `pid`, which a leaf's forward link or a fence entry named,
/// checking that it is a leaf.
pub(crate) fn fetch_leaf(pool: &BufferPool, pid: PageId) -> Result<PageRef> {
    let page = pool.fetch(pid)?;
    match kind(pid, page.data())? {
        NodeKind::Leaf => Ok(page),
        NodeKind::Internal => Err(Error::Corrupt(format!(
            "page {pid}: expected a leaf, found an internal node"
        ))),
    }
}

/// Publish a tree height the caller has just learnt (a root split, a
/// clear, a bulk load, the flatten of a packed tree) to the
/// `vist_btree_depth` gauge. Probes do not touch the gauge.
pub(crate) fn note_height(height: u64) {
    vist_obs::gauge!("vist_btree_depth").set(i64::try_from(height).unwrap_or(i64::MAX));
}

impl<D: Descent> Tree<D> {
    /// Current root page id (persist this to reopen a [`BTree`]).
    #[must_use]
    pub fn root_page(&self) -> PageId {
        self.descent.root()
    }

    /// The buffer pool this tree lives in.
    #[must_use]
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// See [`Descent::seek_leaf`]; every read path starts here.
    pub(crate) fn seek_leaf(&self, start: Bound<&[u8]>) -> Result<(PageRef, u64)> {
        self.descent.seek_leaf(&self.pool, start)
    }

    /// Hand each leaf from the one covering `start` rightwards to `f`, one
    /// latch at a time, until `f` breaks or the chain ends.
    pub(crate) fn walk_leaves(
        &self,
        start: Bound<&[u8]>,
        mut f: impl FnMut(LeafView<'_>) -> Result<ControlFlow<()>>,
    ) -> Result<()> {
        let (mut page, _) = self.seek_leaf(start)?;
        loop {
            let buf = page.data();
            let next = link1(buf);
            if f(LeafView::new(page.id(), buf)?)?.is_break() || next == INVALID_PAGE {
                return Ok(());
            }
            drop(page);
            page = fetch_leaf(&self.pool, next)?;
        }
    }

    /// Exact lookup without copying: `f` receives the value borrowed from
    /// the leaf page and its result is returned; `None` when `key` is
    /// absent.
    ///
    /// **Constraint:** the leaf's page latch is held while `f` runs, so `f`
    /// must not re-enter this tree's buffer pool (see
    /// [`BTree::for_each_in`]).
    pub fn get_with<R>(&self, key: &[u8], f: impl FnOnce(&[u8]) -> R) -> Result<Option<R>> {
        vist_obs::count!("vist_btree_get_total");
        let (mut page, mut depth) = self.seek_leaf(Bound::Included(key))?;
        loop {
            let buf = page.data();
            let leaf = LeafView::new(page.id(), buf)?;
            match leaf.search(key)? {
                Ok(slot) => {
                    let (_, v) = leaf.entry(slot)?;
                    vist_obs::observe!("vist_btree_probe_depth", depth);
                    return Ok(Some(f(v)));
                }
                Err(slot) => {
                    // B-link chase (see the module docs): beyond every
                    // record here and with a right sibling, the key — if
                    // committed — can only live to the right.
                    let next = link1(buf);
                    if !D::CAN_SPLIT || slot < leaf.count() || next == INVALID_PAGE {
                        vist_obs::observe!("vist_btree_probe_depth", depth);
                        return Ok(None);
                    }
                    vist_obs::count!("vist_btree_leaf_chase_total");
                    drop(page);
                    page = fetch_leaf(&self.pool, next)?;
                    depth += 1;
                }
            }
        }
    }

    /// Exact lookup, copying the value out.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get_with(key, <[u8]>::to_vec)
    }

    /// `true` if `key` is present.
    pub fn contains(&self, key: &[u8]) -> Result<bool> {
        Ok(self.get_with(key, |_| ())?.is_some())
    }

    /// Number of entries (walks the whole leaf chain — O(n)).
    pub fn len(&self) -> Result<u64> {
        let mut n = 0u64;
        self.walk_leaves(Bound::Unbounded, |leaf| {
            n += u64::from(leaf.count());
            Ok(ControlFlow::Continue(()))
        })?;
        Ok(n)
    }

    /// `true` when the tree holds no entries.
    pub fn is_empty(&self) -> Result<bool> {
        let (page, _) = self.seek_leaf(Bound::Unbounded)?;
        let buf = page.data();
        Ok(LeafView::new(page.id(), buf)?.count() == 0 && link1(buf) == INVALID_PAGE)
    }
}

impl BTree {
    pub(crate) fn max_cell_for(pool: &BufferPool) -> usize {
        let usable = pool.page_size() - NODE_HDR - 6;
        usable / 2 - 4
    }

    /// Create a fresh empty tree in `pool`.
    pub fn create(pool: Arc<BufferPool>) -> Result<Self> {
        let root = pool.allocate()?;
        {
            let mut page = pool.fetch_mut(root)?;
            init_leaf(page.data_mut());
        }
        note_height(1);
        Self::open(pool, root)
    }

    /// Reopen a tree whose root page id was persisted earlier.
    pub fn open(pool: Arc<BufferPool>, root: PageId) -> Result<Self> {
        crate::register_metrics();
        let max_cell = Self::max_cell_for(&pool);
        Ok(Tree {
            pool,
            descent: Paged {
                root: AtomicU32::new(root),
                writer: Mutex::new(()),
                max_cell,
            },
        })
    }

    /// Largest `key.len() + value.len()` this tree accepts.
    #[must_use]
    pub fn max_record(&self) -> usize {
        self.descent.max_cell - 4
    }

    /// Walk the whole tree checking structural invariants (key order, node
    /// bounds, uniform depth, leaf chain). Used by `vist check` after a
    /// crash recovery; see [`crate::verify::check`].
    pub fn verify(&self) -> Result<()> {
        crate::verify::check(self)
    }

    /// Insert or replace. Returns the previous value, if any.
    ///
    /// Takes the tree's internal writer lock; safe to call concurrently
    /// with readers and with other writers (which serialize).
    pub fn insert(&self, key: &[u8], value: &[u8]) -> Result<Option<Vec<u8>>> {
        vist_obs::counter!("vist_btree_insert_total").inc();
        let _w = self.descent.writer.lock();
        let cell_len = 4 + key.len() + value.len();
        if cell_len > self.descent.max_cell {
            return Err(Error::PageOverflow {
                requested: cell_len,
                available: self.descent.max_cell,
            });
        }
        let root = self.root_page();
        let (old, split) = self.insert_rec(root, key, value)?;
        if let Some((sep, right)) = split {
            let new_root = self.pool.allocate()?;
            let mut page = self.pool.fetch_mut(new_root)?;
            init_internal(page.data_mut(), root);
            let cell = internal_cell(&sep, right);
            SlottedPageMut::new(page.data_mut(), NODE_HDR).insert(0, &cell)?;
            drop(page);
            // Publish only after the page is fully written: a reader that
            // loads the new root must find a complete node.
            self.descent.root.store(new_root, Ordering::Release);
            // The height, measured by one leftmost descent: root splits are
            // logarithmically rare.
            note_height(self.seek_leaf(Bound::Unbounded)?.1);
        }
        Ok(old)
    }

    fn insert_rec(&self, pid: PageId, key: &[u8], value: &[u8]) -> Result<InsertOutcome> {
        match self.route(pid, key)? {
            None => self.insert_leaf(pid, key, value),
            Some((_, child)) => {
                let (old, split) = self.insert_rec(child, key, value)?;
                let Some((sep, right)) = split else {
                    return Ok((old, None));
                };
                let up = self.insert_internal_cell(pid, &sep, right)?;
                Ok((old, up))
            }
        }
    }

    /// One step of a writer's descent, under a single fetch of `pid`:
    /// `None` when it is a leaf, else the child covering `key` and the slot
    /// of the cell that named it (`None` = leftmost child).
    fn route(&self, pid: PageId, key: &[u8]) -> Result<Option<(Option<SlotId>, PageId)>> {
        let page = self.pool.fetch(pid)?;
        let buf = page.data();
        Ok(match kind(pid, buf)? {
            // Writers edit slotted leaves in place; a packed leaf has no
            // free space to edit and belongs to an immutable segment.
            NodeKind::Leaf if buf[0] == KIND_PACKED_LEAF => {
                return Err(Error::Corrupt(format!(
                    "page {pid}: a packed segment leaf cannot be modified"
                )))
            }
            NodeKind::Leaf => None,
            NodeKind::Internal => Some(child_for(pid, buf, key)?),
        })
    }

    fn insert_leaf(&self, pid: PageId, key: &[u8], value: &[u8]) -> Result<InsertOutcome> {
        let mut page = self.pool.fetch_mut(pid)?;
        let buf = page.data_mut();
        let leaf = LeafView::new(pid, buf)?;
        let (slot, old) = match leaf.search(key)? {
            Ok(i) => {
                let old = leaf.entry(i)?.1.to_vec();
                SlottedPageMut::new(buf, NODE_HDR).remove(i)?;
                (i, Some(old))
            }
            Err(i) => (i, None),
        };
        let cell = leaf_cell(key, value);
        match SlottedPageMut::new(buf, NODE_HDR).insert(slot, &cell) {
            Ok(()) => Ok((old, None)),
            Err(Error::PageOverflow { .. }) => {
                let split = self.split_leaf(page, slot, &cell)?;
                Ok((old, Some(split)))
            }
            Err(e) => Err(e),
        }
    }

    /// Split a full leaf, inserting the leaf cell `new_cell` at positional
    /// `slot`.
    ///
    /// The page is copied once; its cells, borrowed from the copy, and
    /// `new_cell` are inserted into the two halves in key order.
    ///
    /// Ordering matters for concurrent readers: the right sibling is fully
    /// built *before* the left node's forward link is pointed at it, so a
    /// leaf-chain scan can never reach an uninitialized page. The chain is
    /// singly linked, so the two halves are the only leaves written.
    fn split_leaf(
        &self,
        mut page: vist_storage::PageRefMut,
        slot: SlotId,
        new_cell: &[u8],
    ) -> Result<(Vec<u8>, PageId)> {
        let left_pid = page.id();
        let old = page.data().to_vec();
        // Every record plus the new one, in key order, as cells.
        let mut cells = page_cells(left_pid, &old, |cell, slot| {
            let (k, v) = decode_leaf_cell(left_pid, slot, cell)?;
            Ok(4 + k.len() + v.len())
        })?;
        cells.insert(usize::from(slot), new_cell);
        // Split point: the record with which the left half reaches half the
        // cell bytes goes left if that half, slots included, then fits a page.
        // If it does not, the half from that record on does: a record is at
        // most half a page and the records at most a page and a half.
        //
        // A cell past the last slot of the rightmost leaf goes alone into the
        // new right leaf instead, and the old records stay where they fit:
        // keys that arrive in ascending order then fill their leaves.
        let split_at = if usize::from(slot) + 1 == cells.len() && link1(&old) == INVALID_PAGE {
            cells.len() - 1
        } else {
            let total: usize = cells.iter().map(|c| c.len()).sum();
            let (mut acc, mut split_at) = (0usize, 0usize);
            while (acc + cells[split_at].len()) * 2 < total {
                acc += cells[split_at].len();
                split_at += 1;
            }
            if acc + cells[split_at].len() + 4 * (split_at + 1) <= 2 * (self.descent.max_cell + 4) {
                split_at += 1;
            }
            split_at
        };
        let (left, right) = cells.split_at(split_at.clamp(1, cells.len() - 1));
        // Suffix-truncated separator: shortest key separating the halves.
        let key_of = |cell| decode_leaf_cell(left_pid, 0, cell).map(|(k, _)| k);
        let sep = crate::node::shortest_separator(
            key_of(left.last().expect("left non-empty"))?,
            key_of(right[0])?,
        );

        let right_pid = self.pool.allocate()?;
        // Build the right node first, while the left node (still holding its
        // write guard) continues to show the pre-split record set.
        {
            let mut rp = self.pool.fetch_mut(right_pid)?;
            let buf = rp.data_mut();
            init_leaf(buf);
            set_link1(buf, link1(&old));
            fill(buf, right)?;
        }
        // Now rewrite the left node to its half and link it forward.
        {
            let buf = page.data_mut();
            init_leaf(buf);
            set_link1(buf, right_pid);
            fill(buf, left)?;
        }
        drop(page);
        Ok((sep, right_pid))
    }

    /// Insert a separator cell into an internal node, splitting it if full.
    /// Separators are inserted *after* any equal key so that routing by
    /// "last cell with key <= target" always reaches the newer (right) child.
    fn insert_internal_cell(
        &self,
        pid: PageId,
        sep: &[u8],
        child: PageId,
    ) -> Result<Option<(Vec<u8>, PageId)>> {
        let mut page = self.pool.fetch_mut(pid)?;
        let buf = page.data_mut();
        let slot = upper_bound(pid, buf, sep)?;
        let cell = internal_cell(sep, child);
        match SlottedPageMut::new(buf, NODE_HDR).insert(slot, &cell) {
            Ok(()) => Ok(None),
            Err(Error::PageOverflow { .. }) => Ok(Some(self.split_internal(page, slot, &cell)?)),
            Err(e) => Err(e),
        }
    }

    /// Split a full internal node, inserting the separator cell `new_cell`
    /// at positional `slot`; like [`BTree::split_leaf`], from one copy of
    /// the page.
    fn split_internal(
        &self,
        mut page: vist_storage::PageRefMut,
        slot: SlotId,
        new_cell: &[u8],
    ) -> Result<(Vec<u8>, PageId)> {
        let pid = page.id();
        let old = page.data().to_vec();
        let mut cells = page_cells(pid, &old, |cell, slot| {
            Ok(6 + decode_internal_cell(pid, slot, cell)?.0.len())
        })?;
        cells.insert(usize::from(slot), new_cell);
        // The middle cell's key moves up; its child becomes the right node's
        // leftmost child.
        let total: usize = cells.iter().map(|c| c.len()).sum();
        let mut acc = 0usize;
        let mut mid = cells.len() / 2;
        for (i, cell) in cells.iter().enumerate() {
            acc += cell.len();
            if acc * 2 >= total {
                mid = i;
                break;
            }
        }
        let mid = mid.clamp(1, cells.len() - 2);
        let (up_key, right_leftmost) = decode_internal_cell(pid, 0, cells[mid])?;

        let right_pid = self.pool.allocate()?;
        // Right node first (see `split_leaf` for the reader-safety argument).
        {
            let mut rp = self.pool.fetch_mut(right_pid)?;
            let buf = rp.data_mut();
            init_internal(buf, right_leftmost);
            fill(buf, &cells[mid + 1..])?;
        }
        {
            let buf = page.data_mut();
            init_internal(buf, link1(&old));
            fill(buf, &cells[..mid])?;
        }
        drop(page);
        Ok((up_key.to_vec(), right_pid))
    }

    /// Drop every entry: swap in a fresh empty root leaf. No page is freed
    /// (compaction's delta clear resets the whole pager, then clears each
    /// tree for a root in the emptied store). The root page id changes;
    /// persist it again afterwards.
    pub fn clear(&self) -> Result<()> {
        let _w = self.descent.writer.lock();
        let fresh = self.pool.allocate()?;
        {
            let mut page = self.pool.fetch_mut(fresh)?;
            init_leaf(page.data_mut());
        }
        note_height(1);
        self.descent.root.store(fresh, Ordering::Release);
        Ok(())
    }
}

/// `(replaced old value, upward split (separator, new right page))`.
type InsertOutcome = (Option<Vec<u8>>, Option<(Vec<u8>, PageId)>);

/// The cells of node page `pid`, whose bytes are `buf`, in slot order, each
/// cut to the `len(cell, slot)` bytes its record decodes to — an error for
/// a cell its page cannot back, naming the page.
fn page_cells(
    pid: PageId,
    buf: &[u8],
    len: impl Fn(&[u8], SlotId) -> Result<usize>,
) -> Result<Vec<&[u8]>> {
    let page = SlottedPage::new(buf, NODE_HDR);
    let mut cells = Vec::with_capacity(usize::from(page.slot_count()) + 1);
    for slot in 0..page.slot_count() {
        let cell = page.cell(slot).map_err(|e| match e {
            Error::Corrupt(what) => Error::Corrupt(format!("page {pid}: {what}")),
            other => other,
        })?;
        cells.push(&cell[..len(cell, slot)?]);
    }
    Ok(cells)
}

/// Insert `cells` into the empty node `buf`, in order.
fn fill(buf: &mut [u8], cells: &[&[u8]]) -> Result<()> {
    let mut page = SlottedPageMut::new(buf, NODE_HDR);
    for (slot, cell) in cells.iter().enumerate() {
        page.insert(slot as SlotId, cell)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vist_storage::MemPager;

    fn tree() -> BTree {
        let pool = Arc::new(BufferPool::with_capacity(MemPager::new(512), 256));
        BTree::create(pool).unwrap()
    }

    #[test]
    fn insert_get_small() {
        let t = tree();
        assert_eq!(t.insert(b"b", b"2").unwrap(), None);
        assert_eq!(t.insert(b"a", b"1").unwrap(), None);
        assert_eq!(t.insert(b"c", b"3").unwrap(), None);
        assert_eq!(t.get(b"a").unwrap().as_deref(), Some(&b"1"[..]));
        assert_eq!(t.get(b"b").unwrap().as_deref(), Some(&b"2"[..]));
        assert_eq!(t.get(b"c").unwrap().as_deref(), Some(&b"3"[..]));
        assert_eq!(t.get(b"d").unwrap(), None);
    }

    #[test]
    fn replace_returns_old() {
        let t = tree();
        assert_eq!(t.insert(b"k", b"v1").unwrap(), None);
        assert_eq!(t.insert(b"k", b"v2").unwrap().as_deref(), Some(&b"v1"[..]));
        assert_eq!(t.get(b"k").unwrap().as_deref(), Some(&b"v2"[..]));
        assert_eq!(t.len().unwrap(), 1);
    }

    #[test]
    fn a_large_record_across_the_middle_of_a_full_leaf_splits_to_the_side_that_fits() {
        // A 256-byte page holds 240 bytes of cells and slots. `a`, `b`, `d`
        // take 65 + 65 + 50; `c` takes 120 and crosses the middle of the
        // 300: with it the left half is 250 bytes, without it 130, and the
        // right half is then 170.
        let pool = Arc::new(BufferPool::with_capacity(MemPager::new(256), 64));
        let t = BTree::create(pool).unwrap();
        let records = [(b"a", 56), (b"b", 56), (b"d", 41), (b"c", 111)];
        for (key, len) in records {
            assert_eq!(t.insert(key, &vec![key[0]; len]).unwrap(), None);
        }
        t.verify().unwrap();
        for (key, len) in records {
            assert_eq!(t.get(key).unwrap(), Some(vec![key[0]; len]));
        }
    }

    #[test]
    fn many_inserts_split_and_stay_sorted() {
        let t = tree();
        let n = 2000u32;
        for i in 0..n {
            // Insert in a scrambled order.
            let k = (i.wrapping_mul(2654435761)) % n;
            let key = format!("key{k:08}");
            t.insert(key.as_bytes(), &k.to_le_bytes()).unwrap();
        }
        // Duplicates overwritten, all multiples present.
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..n {
            let k = (i.wrapping_mul(2654435761)) % n;
            seen.insert(k);
        }
        assert_eq!(t.len().unwrap(), seen.len() as u64);
        for k in &seen {
            let key = format!("key{k:08}");
            assert_eq!(
                t.get(key.as_bytes()).unwrap().as_deref(),
                Some(&k.to_le_bytes()[..]),
                "key {k}"
            );
        }
        crate::verify::check(&t).unwrap();
    }

    #[test]
    fn a_leaf_split_writes_the_two_halves_and_the_parent() {
        let t = tree();
        for i in 0..100u32 {
            t.insert(format!("k{i:04}").as_bytes(), b"value").unwrap();
        }
        let pool = t.pool();
        pool.flush().unwrap();
        let before = t.tree_stats().unwrap();
        assert!(before.leaf_pages > 2 && before.height == 2, "{before:?}");
        // Grow the leftmost leaf, which has a right neighbour, until it
        // splits; every insert is flushed alone, so the flush after the
        // split writes exactly the pages the split touched.
        for i in 0.. {
            let written = pool.stats().write_backs;
            t.insert(format!("k0000{i:03}").as_bytes(), b"value")
                .unwrap();
            let leaves = t.tree_stats().unwrap().leaf_pages;
            pool.flush().unwrap();
            let written = pool.stats().write_backs - written;
            if leaves == before.leaf_pages {
                assert_eq!(written, 1, "insert {i} without a split");
                continue;
            }
            assert_eq!(leaves, before.leaf_pages + 1);
            assert_eq!(
                t.tree_stats().unwrap().height,
                2,
                "the parent did not split"
            );
            assert_eq!(written, 3, "left half, right half, parent");
            break;
        }
        t.verify().unwrap();
    }

    #[test]
    fn clear_swaps_in_an_empty_root_and_leaves_the_old_pages_readable() {
        let t = tree();
        let fill = || {
            for i in 0..1000u32 {
                t.insert(format!("k{i:06}").as_bytes(), &i.to_le_bytes())
                    .unwrap();
            }
        };
        fill();
        let pool = t.pool();
        let (old_root, bytes) = (t.root_page(), pool.store_bytes());
        t.clear().unwrap();
        t.verify().unwrap();
        assert!(t.is_empty().unwrap());
        assert_eq!(t.len().unwrap(), 0);
        assert_eq!(t.tree_stats().unwrap().height, 1);
        assert_eq!(pool.store_bytes(), bytes + 512, "one page: the new root");
        // Nothing was freed: the old tree still reads whole.
        let old = BTree::open(Arc::clone(pool), old_root).unwrap();
        assert_eq!(old.len().unwrap(), 1000);
        fill();
        t.verify().unwrap();
        assert_eq!(t.len().unwrap(), 1000);
    }

    #[test]
    fn oversized_record_rejected() {
        let t = tree();
        let big = vec![0u8; 600];
        assert!(matches!(
            t.insert(b"k", &big),
            Err(Error::PageOverflow { .. })
        ));
        // Tree unharmed.
        t.insert(b"k", b"small").unwrap();
        assert_eq!(t.get(b"k").unwrap().as_deref(), Some(&b"small"[..]));
    }

    #[test]
    fn variable_length_keys() {
        let t = tree();
        let keys: Vec<Vec<u8>> = (0..300)
            .map(|i| {
                let mut k = vec![b'p'; i % 40];
                k.extend_from_slice(format!("{i:05}").as_bytes());
                k
            })
            .collect();
        for k in &keys {
            t.insert(k, b"v").unwrap();
        }
        for k in &keys {
            assert!(t.contains(k).unwrap());
        }
        crate::verify::check(&t).unwrap();
    }

    #[test]
    fn empty_key_and_value_supported() {
        let t = tree();
        t.insert(b"", b"").unwrap();
        assert_eq!(t.get(b"").unwrap().as_deref(), Some(&b""[..]));
    }

    #[test]
    fn get_chases_right_siblings_past_stale_parent() {
        // Hand-build the split window a concurrent reader can observe: the
        // leaf chain is A("a","b") -> B("c","d") -> C("e","f"), but the
        // parent knows only A — as if two leaf splits had completed without
        // their separators reaching the parent yet. get() must recover by
        // chasing link1 at the leaf level.
        let pool = Arc::new(BufferPool::with_capacity(MemPager::new(512), 64));
        let a = pool.allocate().unwrap();
        let b = pool.allocate().unwrap();
        let c = pool.allocate().unwrap();
        let root = pool.allocate().unwrap();
        let fill = |pid, keys: &[&[u8]], next| {
            let mut p = pool.fetch_mut(pid).unwrap();
            let buf = p.data_mut();
            init_leaf(buf);
            set_link1(buf, next);
            for (i, k) in keys.iter().enumerate() {
                SlottedPageMut::new(buf, NODE_HDR)
                    .insert(i as SlotId, &leaf_cell(k, b"v"))
                    .unwrap();
            }
        };
        fill(a, &[b"a", b"b"], b);
        fill(b, &[b"c", b"d"], c);
        fill(c, &[b"e", b"f"], INVALID_PAGE);
        {
            let mut p = pool.fetch_mut(root).unwrap();
            init_internal(p.data_mut(), a);
        }
        let t = BTree::open(pool, root).unwrap();
        // Keys in the stale parent's only known child.
        assert!(t.get(b"a").unwrap().is_some());
        assert!(t.get(b"b").unwrap().is_some());
        // Keys one and two hops to the right.
        assert!(t.get(b"c").unwrap().is_some(), "one-hop chase");
        assert!(t.get(b"d").unwrap().is_some());
        assert!(t.get(b"e").unwrap().is_some(), "two-hop chase");
        assert!(t.get(b"f").unwrap().is_some());
        // Absent keys: the chase must stop at the covering leaf (bb < c)
        // and at the end of the chain (zz beyond everything).
        assert_eq!(t.get(b"bb").unwrap(), None);
        assert_eq!(t.get(b"zz").unwrap(), None);
    }

    #[test]
    fn concurrent_readers_never_miss_committed_keys() {
        let pool = Arc::new(BufferPool::with_capacity(MemPager::new(512), 4096));
        let t = Arc::new(BTree::create(pool).unwrap());
        let committed = Arc::new(AtomicU32::new(0));
        let n = 4000u32;
        let writer = {
            let t = Arc::clone(&t);
            let committed = Arc::clone(&committed);
            std::thread::spawn(move || {
                for i in 0..n {
                    t.insert(format!("key{i:08}").as_bytes(), &i.to_le_bytes())
                        .unwrap();
                    committed.store(i + 1, Ordering::Release);
                }
            })
        };
        let readers: Vec<_> = (0..4u64)
            .map(|r| {
                let t = Arc::clone(&t);
                let committed = Arc::clone(&committed);
                std::thread::spawn(move || {
                    let mut x = 0x9E3779B97F4A7C15u64 ^ r;
                    loop {
                        let hi = committed.load(Ordering::Acquire);
                        if hi == 0 {
                            continue;
                        }
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        // Bias half the lookups to the freshest committed
                        // key — that is the one a racing split moves right.
                        let k = if x & 1 == 0 {
                            hi - 1
                        } else {
                            (x >> 33) as u32 % hi
                        };
                        let key = format!("key{k:08}");
                        assert!(
                            t.get(key.as_bytes()).unwrap().is_some(),
                            "committed key {k} missing (watermark {hi})"
                        );
                        if hi == n {
                            break;
                        }
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
    }

    #[test]
    fn reopen_by_root_page() {
        let pool = Arc::new(BufferPool::with_capacity(MemPager::new(512), 64));
        let t = BTree::create(Arc::clone(&pool)).unwrap();
        for i in 0..500u32 {
            t.insert(format!("k{i:05}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        let root = t.root_page();
        drop(t);
        let t2 = BTree::open(pool, root).unwrap();
        assert_eq!(t2.len().unwrap(), 500);
        assert_eq!(
            t2.get(b"k00042").unwrap().as_deref(),
            Some(&42u32.to_le_bytes()[..])
        );
    }
}
