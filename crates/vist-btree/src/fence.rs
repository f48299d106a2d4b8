//! The inner levels of a packed tree, flattened into memory.
//!
//! A bulk-loaded segment tree never changes, so the only thing its internal
//! pages are ever used for — routing a key to a leaf — can be answered from
//! one sorted array built once at open: for each leaf, the lowest key routed
//! to it (its *fence*: the suffix-truncated separator the bulk loader stored
//! in the parent, empty for the leftmost leaf) and its page id. The array is
//! one layout for every tree, fixed- and variable-length keys alike:
//!
//! ```text
//! keys  : fence 0 ‖ fence 1 ‖ …          contiguous key bytes
//! offs  : u32 × (leaves + 1)             fence i = keys[offs[i]..offs[i + 1]]
//! pids  : u32 × leaves                   page id of leaf i
//! ```
//!
//! One entry per leaf bounds it by construction (about 0.5 % of the
//! segment's bytes; [`PackedTree::fence_bytes`] reports it). A probe is one
//! branch-light binary search over that memory and one pool fetch, of the
//! leaf.
//!
//! [`Fence::load`] is the only reader of a segment's internal pages, so it
//! is total: whatever a checksum-clean page holds, it returns the array or
//! an [`Error::Corrupt`] naming the page and the field, without recursion
//! and after claiming each page id at most once — so after at most as many
//! pages as the file has.

use std::fmt;
use std::ops::Bound;

use vist_storage::{BufferPool, Error, PageId, PageRef, Result, SlottedPage, INVALID_PAGE};

use crate::node::{decode_internal_cell, kind, link1, NodeKind, NODE_HDR};
use crate::tree::{fetch_leaf, note_height, Descent, PackedTree};

/// One level of a tree, flat: entry `i` is page `pids[i]` and the lowest
/// key routed to it. See the module docs for the layout.
#[derive(PartialEq, Eq)]
struct Level {
    keys: Vec<u8>,
    offs: Vec<u32>,
    pids: Vec<PageId>,
}

impl Level {
    fn new() -> Self {
        Level {
            keys: Vec::new(),
            offs: vec![0],
            pids: Vec::new(),
        }
    }

    fn key(&self, i: usize) -> &[u8] {
        &self.keys[self.offs[i] as usize..self.offs[i + 1] as usize]
    }

    fn push(&mut self, key: &[u8], pid: PageId) -> Result<()> {
        self.keys.extend_from_slice(key);
        let end = u32::try_from(self.keys.len())
            .map_err(|_| Error::Corrupt("fence keys of one tree level exceed 4 GiB".into()))?;
        self.offs.push(end);
        self.pids.push(pid);
        Ok(())
    }
}

/// The page ids a flatten has reached. A tree names each of its pages once,
/// so a second claim is a cycle or a shared page — which also bounds the
/// walk: it is over after at most as many pages as the file has.
struct Claims {
    seen: Vec<u64>,
    /// Page ids at or above this cannot exist in the file.
    limit: u64,
}

impl Claims {
    fn new(pool: &BufferPool) -> Self {
        // Frames are at least a page long, so this is never below the
        // file's page count.
        let limit = pool.store_bytes() / pool.page_size() as u64;
        Claims {
            seen: vec![0; (limit as usize).div_ceil(64)],
            limit,
        }
    }

    /// Claim `pid`, which `field` (a page and a place on it) named.
    fn claim(&mut self, pid: PageId, field: fmt::Arguments<'_>) -> Result<()> {
        if pid == 0 || pid == INVALID_PAGE || u64::from(pid) >= self.limit {
            return Err(Error::Corrupt(format!(
                "{field} is page id {pid}, outside 1..{} of this file",
                self.limit
            )));
        }
        let (word, bit) = (pid as usize / 64, 1u64 << (pid % 64));
        if self.seen[word] & bit != 0 {
            return Err(Error::Corrupt(format!(
                "{field} is page {pid}, which this tree already reached by another path \
                 (a cycle or a shared page)"
            )));
        }
        self.seen[word] |= bit;
        Ok(())
    }
}

/// The leaf level of a packed tree in memory, and with it the tree's
/// [`Descent`]: see the module docs.
#[derive(PartialEq, Eq)]
pub struct Fence {
    leaves: Level,
    root: PageId,
    /// Entries the segment header records for this tree.
    entries: u64,
}

impl Fence {
    /// Flatten the tree under `root`, which `origin` named, level by level.
    /// Reads every internal page once and one leaf, the leftmost, whose
    /// kind tells the walk that it has reached the leaf level.
    pub(crate) fn load(
        pool: &BufferPool,
        root: PageId,
        entries: u64,
        origin: fmt::Arguments<'_>,
    ) -> Result<Fence> {
        crate::register_metrics();
        let mut claims = Claims::new(pool);
        claims.claim(root, origin)?;
        let mut level = Level::new();
        level.push(&[], root)?;
        let mut height = 1u64;
        'levels: loop {
            let mut next = Level::new();
            for (i, &pid) in level.pids.iter().enumerate() {
                let page = pool.fetch(pid)?;
                let buf = page.data();
                if kind(pid, buf)? == NodeKind::Leaf {
                    if i == 0 {
                        break 'levels;
                    }
                    return Err(Error::Corrupt(format!(
                        "page {pid}: a leaf at depth {height}, but the leftmost leaf is deeper"
                    )));
                }
                // The leftmost child inherits the page's own fence; it must
                // still lie above everything the previous page routed.
                let field = format_args!("page {pid}: leftmost child");
                adopt(&mut next, &mut claims, field, level.key(i), link1(buf))?;
                let cells = SlottedPage::new(buf, NODE_HDR);
                for slot in 0..cells.slot_count() {
                    let cell = cells.cell(slot).map_err(|e| match e {
                        Error::Corrupt(what) => Error::Corrupt(format!("page {pid}: {what}")),
                        other => other,
                    })?;
                    let (key, child) = decode_internal_cell(pid, slot, cell)?;
                    let field = format_args!("page {pid}: cell {slot}");
                    adopt(&mut next, &mut claims, field, key, child)?;
                }
            }
            level = next;
            height += 1;
        }
        note_height(height);
        Ok(Fence {
            leaves: level,
            root,
            entries,
        })
    }

    /// Index of the leaf covering `key`: the last entry whose fence is
    /// `<= key`. Entry 0's fence is empty, so there always is one.
    fn covering(&self, key: &[u8]) -> usize {
        let (mut lo, mut len) = (0, self.leaves.pids.len());
        while len > 1 {
            let half = len / 2;
            if self.leaves.key(lo + half) <= key {
                lo += half;
            }
            len -= half;
        }
        lo
    }

    pub(crate) fn leaf_count(&self) -> usize {
        self.leaves.pids.len()
    }

    /// `(fence key, page id)` of leaf `i`.
    pub(crate) fn leaf(&self, i: usize) -> (&[u8], PageId) {
        (self.leaves.key(i), self.leaves.pids[i])
    }

    pub(crate) fn entries(&self) -> u64 {
        self.entries
    }
}

/// Append `child`, which `field` named as covering keys from `key` up, to
/// the level being built: its id must be a page of the file not seen before,
/// and `key` must lie strictly above the previous entry's, which makes the
/// separators of the whole level — across page boundaries too — strictly
/// increasing.
fn adopt(
    next: &mut Level,
    claims: &mut Claims,
    field: fmt::Arguments<'_>,
    key: &[u8],
    child: PageId,
) -> Result<()> {
    let n = next.pids.len();
    if n > 0 && key <= next.key(n - 1) {
        return Err(Error::Corrupt(format!(
            "{field}: separator does not lie above the one before it"
        )));
    }
    claims.claim(child, field)?;
    next.push(key, child)
}

impl Descent for Fence {
    const CAN_SPLIT: bool = false;

    fn root(&self) -> PageId {
        self.root
    }

    /// One binary search over memory, one fetch. The fetch checks the kind
    /// byte, so a fence entry that names an internal page (a subtree deeper
    /// than the leftmost one, which the flatten does not read leaves to
    /// find) is an error at the probe, not a misread.
    fn seek_leaf(&self, pool: &BufferPool, start: Bound<&[u8]>) -> Result<(PageRef, u64)> {
        let i = match start {
            Bound::Included(key) | Bound::Excluded(key) => self.covering(key),
            Bound::Unbounded => 0,
        };
        Ok((fetch_leaf(pool, self.leaves.pids[i])?, 1))
    }
}

impl PackedTree {
    /// Bytes of memory the fence array holds outside the buffer pool: key
    /// bytes, offsets and leaf ids.
    #[must_use]
    pub fn fence_bytes(&self) -> u64 {
        let l = &self.descent.leaves;
        (l.keys.len() + 4 * l.offs.len() + 4 * l.pids.len()) as u64
    }

    /// Check the tree without trusting either the array or the pages: see
    /// [`crate::verify::check_packed`].
    pub fn verify(&self) -> Result<()> {
        crate::verify::check_packed(self)
    }
}
