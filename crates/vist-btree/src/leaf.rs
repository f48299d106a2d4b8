//! The two leaf layouts, read through one view.
//!
//! A **slotted** leaf (kind byte 1) is the layout of [`crate::node`]: what
//! the delta's trees, [`crate::BTree::bulk_load`] and format-v1 segments
//! hold, and the only one that can change. A **packed** leaf (kind byte 3)
//! is written once by [`crate::SegmentWriter`] and never modified, so it
//! keeps no free-space bookkeeping and stores the bytes every key of the
//! leaf starts with once:
//!
//! ```text
//! +0   u8   kind = 3
//! +1   u32  next-leaf page id
//! +5   u32  reserved (see [`crate::node`])
//! +9   u8   reserved
//! +10  u16  n: records
//! +12  u16  p: length of the prefix every key of this leaf starts with
//! +14  u16 × (n + 1)   directory: offset of cell i, counted from +10, in
//!                      key order; entry n is where the last cell ends
//! ...  p bytes         the prefix
//! ...  cells           varint suffix_len ‖ varint value_len ‖ suffix ‖ value
//! ```
//!
//! A key is `prefix ‖ suffix`. The directory makes every cell addressable,
//! so the in-leaf search is the same binary search the slotted leaf has: the
//! probe is compared with the prefix once, then with suffixes.
//!
//! [`LeafView`] picks the reader from the kind byte of each page, so a tree
//! may mix both (no writer produces one; a v1 segment is all slotted, a v2
//! segment all packed). Every read is total: counts, offsets and lengths
//! that the page cannot back are [`Error::Corrupt`] naming the page and the
//! slot, never a panic.

use std::cmp::Ordering;

use vist_storage::{Error, PageId, Result, SlotId, SlottedPage};

use crate::codec::take_varint;
use crate::node::{decode_leaf_cell, KIND_LEAF, KIND_PACKED_LEAF, NODE_HDR};

/// Bytes of a packed leaf's region before the directory: `n` and `p`.
pub(crate) const PACKED_HDR: usize = 4;

/// What both layouts offer a reader. The loops that run per record (the
/// in-leaf search here, the cursors' walk) are generic over it, so each
/// layout gets its own copy of them and the choice between the two is made
/// once a leaf, by [`LeafView::new`].
pub(crate) trait Leaf<'a> {
    /// Records on the leaf.
    fn count(&self) -> SlotId;

    /// The bytes every key of this leaf starts with and [`Leaf::entry`]
    /// leaves out. Always empty on a slotted leaf.
    fn prefix(&self) -> &'a [u8];

    /// Record `slot` as `(key suffix, value)`; its key is [`Leaf::prefix`]
    /// followed by the suffix.
    fn entry(&self, slot: SlotId) -> Result<(&'a [u8], &'a [u8])>;

    /// Binary search for `key`: `Ok(i)` if slot `i` holds exactly `key`,
    /// `Err(i)` with the insertion point otherwise.
    #[inline]
    fn search(&self, key: &[u8]) -> Result<std::result::Result<SlotId, SlotId>> {
        let prefix = self.prefix();
        let Some(probe) = key.strip_prefix(prefix) else {
            // `key` leaves the prefix at some byte (or ends inside it): every
            // key here lies on the same side of it as the prefix does.
            return Ok(Err(if key < prefix { 0 } else { self.count() }));
        };
        let (mut lo, mut hi) = (0, self.count());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.entry(mid)?.0.cmp(probe) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(Ok(mid)),
            }
        }
        Ok(Err(lo))
    }
}

/// A leaf in the slotted layout of [`crate::node`].
pub(crate) struct SlottedLeaf<'a> {
    pid: PageId,
    cells: SlottedPage<'a>,
}

impl<'a> Leaf<'a> for SlottedLeaf<'a> {
    #[inline]
    fn count(&self) -> SlotId {
        self.cells.slot_count()
    }

    #[inline]
    fn prefix(&self) -> &'a [u8] {
        &[]
    }

    #[inline]
    fn entry(&self, slot: SlotId) -> Result<(&'a [u8], &'a [u8])> {
        if let Ok([k0, k1, v0, v1, rest @ ..]) = self.cells.cell(slot) {
            let klen = usize::from(u16::from_le_bytes([*k0, *k1]));
            let vlen = usize::from(u16::from_le_bytes([*v0, *v1]));
            if rest.len() >= klen + vlen {
                let (key, rest) = rest.split_at(klen);
                return Ok((key, &rest[..vlen]));
            }
        }
        self.malformed(slot)
    }
}

impl<'a> SlottedLeaf<'a> {
    /// What is wrong with cell `slot`, which [`Leaf::entry`] could not read.
    #[cold]
    fn malformed(&self, slot: SlotId) -> Result<(&'a [u8], &'a [u8])> {
        let cell = self.cells.cell(slot).map_err(|e| match e {
            Error::Corrupt(what) => Error::Corrupt(format!("page {}: {what}", self.pid)),
            other => other,
        })?;
        decode_leaf_cell(self.pid, slot, cell)
    }
}

/// A leaf in the packed layout of the module docs.
pub(crate) struct PackedLeaf<'a> {
    pid: PageId,
    /// The page from `NODE_HDR` on; directory offsets count from here.
    region: &'a [u8],
    /// The directory: `count + 1` little-endian `u16`s.
    dir: &'a [u8],
    prefix: &'a [u8],
    /// Offset in `region` of the first byte after the prefix.
    cells_start: usize,
}

impl<'a> PackedLeaf<'a> {
    fn corrupt(&self, slot: SlotId, what: &str) -> Error {
        Error::Corrupt(format!("page {}: leaf cell {slot}: {what}", self.pid))
    }

    /// [`Leaf::entry`] for a cell whose lengths are not both one byte, or
    /// do not add up.
    #[cold]
    fn long_cell(&self, slot: SlotId, mut cell: &'a [u8]) -> Result<(&'a [u8], &'a [u8])> {
        let (Some(klen), Some(vlen)) = (take_varint(&mut cell), take_varint(&mut cell)) else {
            return Err(self.corrupt(slot, "malformed length varint"));
        };
        // Each length is held against the cell before the two are added.
        if klen > cell.len() as u128 || vlen != (cell.len() as u128 - klen) {
            let what = format!(
                "suffix length {klen} and value length {vlen} do not add up to the {} \
                 byte(s) after the cell header",
                cell.len()
            );
            return Err(self.corrupt(slot, &what));
        }
        Ok(cell.split_at(klen as usize))
    }
}

impl<'a> Leaf<'a> for PackedLeaf<'a> {
    #[inline]
    fn count(&self) -> SlotId {
        (self.dir.len() / 2 - 1) as SlotId
    }

    #[inline]
    fn prefix(&self) -> &'a [u8] {
        self.prefix
    }

    #[inline]
    fn entry(&self, slot: SlotId) -> Result<(&'a [u8], &'a [u8])> {
        let at = 2 * usize::from(slot);
        let Some(&[a, b, c, d]) = self.dir.get(at..at + 4) else {
            let what = format!("out of range ({} cells)", self.count());
            return Err(self.corrupt(slot, &what));
        };
        let from = usize::from(u16::from_le_bytes([a, b]));
        let to = usize::from(u16::from_le_bytes([c, d]));
        let Some(cell) = self
            .region
            .get(from..to)
            .filter(|_| from >= self.cells_start)
        else {
            let what = format!("directory offsets {from}..{to} unordered or outside the page");
            return Err(self.corrupt(slot, &what));
        };
        // Lengths below 128 are one byte each: all but document chunks and
        // the longest D-Ancestor keys.
        if let [klen, vlen, rest @ ..] = cell {
            let (klen, vlen) = (usize::from(*klen), usize::from(*vlen));
            if (klen | vlen) < 0x80 && rest.len() == klen + vlen {
                return Ok(rest.split_at(klen));
            }
        }
        self.long_cell(slot, cell)
    }
}

/// Read-only view of one leaf page, whichever layout it has.
pub(crate) enum LeafView<'a> {
    Slotted(SlottedLeaf<'a>),
    Packed(PackedLeaf<'a>),
}

fn le16(buf: &[u8], at: usize) -> usize {
    usize::from(u16::from_le_bytes([buf[at], buf[at + 1]]))
}

/// `$body` with `$leaf` bound to whichever reader `$view` holds.
macro_rules! either {
    ($view:expr, $leaf:ident => $body:expr) => {
        match $view {
            LeafView::Slotted($leaf) => $body,
            LeafView::Packed($leaf) => $body,
        }
    };
}
pub(crate) use either;

impl<'a> LeafView<'a> {
    /// View leaf page `pid`, whose bytes are `buf`. Checks what every later
    /// read relies on: the kind byte, and for a packed leaf that directory
    /// and prefix lie inside the page.
    #[inline]
    pub(crate) fn new(pid: PageId, buf: &'a [u8]) -> Result<Self> {
        match buf[0] {
            KIND_LEAF => Ok(LeafView::Slotted(SlottedLeaf {
                pid,
                cells: SlottedPage::new(buf, NODE_HDR),
            })),
            KIND_PACKED_LEAF => {
                let region = &buf[NODE_HDR..];
                let (count, p) = (le16(region, 0), le16(region, 2));
                let dir_end = PACKED_HDR + 2 * (count + 1);
                let cells_start = dir_end + p;
                let Some(prefix) = region.get(dir_end..cells_start) else {
                    return Err(Error::Corrupt(format!(
                        "page {pid}: packed leaf: a directory of {count} cell(s) and a prefix \
                         of {p} byte(s) do not fit the page"
                    )));
                };
                Ok(LeafView::Packed(PackedLeaf {
                    pid,
                    region,
                    dir: &region[PACKED_HDR..dir_end],
                    prefix,
                    cells_start,
                }))
            }
            other => Err(Error::Corrupt(format!(
                "page {pid}: expected a leaf, found node kind byte {other:#04x}"
            ))),
        }
    }

    /// See [`Leaf::count`].
    #[inline]
    pub(crate) fn count(&self) -> SlotId {
        either!(self, leaf => leaf.count())
    }

    /// See [`Leaf::prefix`].
    pub(crate) fn prefix(&self) -> &'a [u8] {
        either!(self, leaf => leaf.prefix())
    }

    /// See [`Leaf::entry`].
    #[inline]
    pub(crate) fn entry(&self, slot: SlotId) -> Result<(&'a [u8], &'a [u8])> {
        either!(self, leaf => leaf.entry(slot))
    }

    /// See [`Leaf::search`].
    #[inline]
    pub(crate) fn search(&self, key: &[u8]) -> Result<std::result::Result<SlotId, SlotId>> {
        either!(self, leaf => leaf.search(key))
    }

    /// Bytes of the page in use: everything but the free space an insert
    /// could claim (slotted) or the unused tail (packed).
    pub(crate) fn used_bytes(&self, page_size: usize) -> usize {
        match self {
            LeafView::Slotted(leaf) => page_size - leaf.cells.total_free(),
            LeafView::Packed(leaf) => NODE_HDR + le16(leaf.dir, leaf.dir.len() - 2),
        }
    }

    /// Check the whole leaf rather than the cells one probe touches: every
    /// cell decodes, and a packed leaf's directory starts right after the
    /// prefix and only ascends. (Key order is the tree checkers' to test,
    /// against the bounds they know.)
    pub(crate) fn validate(&self) -> Result<()> {
        if let LeafView::Packed(leaf) = self {
            let first = le16(leaf.dir, 0);
            if first != leaf.cells_start {
                let what = format!(
                    "starts at offset {first}, the prefix ends at {}",
                    leaf.cells_start
                );
                return Err(leaf.corrupt(0, &what));
            }
        }
        for slot in 0..self.count() {
            self.entry(slot)?;
        }
        Ok(())
    }
}

/// Where a key is put back together for a caller that wants it in one piece.
/// Keys up to [`KeyScratch::INLINE`] bytes — every integer-keyed tree of a
/// segment, so every key the match loop meets — never touch the heap.
pub(crate) struct KeyScratch {
    inline: [u8; Self::INLINE],
    heap: Vec<u8>,
}

impl KeyScratch {
    const INLINE: usize = 64;

    pub(crate) fn new() -> Self {
        KeyScratch {
            inline: [0; Self::INLINE],
            heap: Vec::new(),
        }
    }

    /// The keys asked for next all start with `prefix`: copy it once.
    #[inline]
    pub(crate) fn start_leaf(&mut self, prefix: &[u8]) {
        if let Some(front) = self.inline.get_mut(..prefix.len()) {
            front.copy_from_slice(prefix);
        }
    }

    /// `prefix ‖ suffix`, for the `prefix` of the last
    /// [`KeyScratch::start_leaf`]; the suffix itself, uncopied, when there
    /// is no prefix (every slotted leaf).
    #[inline]
    pub(crate) fn key<'s>(&'s mut self, prefix: &[u8], suffix: &'s [u8]) -> &'s [u8] {
        if prefix.is_empty() {
            return suffix;
        }
        let len = prefix.len() + suffix.len();
        if let Some(key) = self.inline.get_mut(..len) {
            key[prefix.len()..].copy_from_slice(suffix);
            return key;
        }
        self.heap.clear();
        self.heap.extend_from_slice(prefix);
        self.heap.extend_from_slice(suffix);
        &self.heap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk::{LeafWriter, PackedLeaves};
    use crate::node::{init_leaf, leaf_cell};
    use vist_storage::SlottedPageMut;

    fn slotted(keys: &[&[u8]]) -> Vec<u8> {
        let mut buf = vec![0u8; 1024];
        init_leaf(&mut buf);
        for (i, k) in keys.iter().enumerate() {
            SlottedPageMut::new(&mut buf, NODE_HDR)
                .insert(i as SlotId, &leaf_cell(k, b"v"))
                .unwrap();
        }
        buf
    }

    fn packed(keys: &[&[u8]]) -> Vec<u8> {
        let mut buf = vec![0u8; 1024];
        let mut w = PackedLeaves::new(buf.len());
        w.init(&mut buf);
        for k in keys {
            assert!(w.add(k, b"v"));
        }
        w.write(&mut buf);
        buf
    }

    #[test]
    fn binary_search_finds_and_inserts_in_both_layouts() {
        for buf in [slotted(&[b"b", b"d", b"f"]), packed(&[b"b", b"d", b"f"])] {
            let leaf = LeafView::new(3, &buf).unwrap();
            assert_eq!(leaf.count(), 3);
            assert!(leaf.prefix().is_empty());
            let hit = |k: &[u8]| leaf.search(k).unwrap();
            assert_eq!((hit(b"b"), hit(b"d"), hit(b"f")), (Ok(0), Ok(1), Ok(2)));
            assert_eq!((hit(b"a"), hit(b"c")), (Err(0), Err(1)));
            assert_eq!((hit(b"e"), hit(b"g"), hit(b"")), (Err(2), Err(3), Err(0)));
            leaf.validate().unwrap();
        }
    }

    #[test]
    fn a_shared_prefix_is_stored_once_and_probes_compare_with_it_first() {
        let buf = packed(&[b"scope/", b"scope/a", b"scope/ab", b"scope/c"]);
        let leaf = LeafView::new(3, &buf).unwrap();
        assert_eq!(leaf.prefix(), b"scope/");
        assert_eq!(leaf.entry(0).unwrap(), (&b""[..], &b"v"[..]));
        assert_eq!(leaf.entry(2).unwrap(), (&b"ab"[..], &b"v"[..]));
        let hit = |k: &[u8]| leaf.search(k).unwrap();
        assert_eq!((hit(b"scope/"), hit(b"scope/ab")), (Ok(0), Ok(2)));
        assert_eq!((hit(b"scope/b"), hit(b"scope/d")), (Err(3), Err(4)));
        // Shorter than the prefix, below it, above it.
        assert_eq!(
            (hit(b"scop"), hit(b""), hit(b"rz")),
            (Err(0), Err(0), Err(0))
        );
        assert_eq!((hit(b"scopf"), hit(b"t")), (Err(4), Err(4)));
        // 4 cells of 3 header + suffix + value bytes after a 6-byte prefix.
        assert_eq!(leaf.used_bytes(1024), 10 + 4 + 2 * 5 + 6 + (3 + 4 + 5 + 4));
        leaf.validate().unwrap();

        let mut scratch = KeyScratch::new();
        scratch.start_leaf(leaf.prefix());
        assert_eq!(scratch.key(leaf.prefix(), b"ab"), b"scope/ab");
        assert_eq!(scratch.key(leaf.prefix(), b""), b"scope/");
        let long = [7u8; 100];
        assert_eq!(scratch.key(leaf.prefix(), &long)[..8], *b"scope/\x07\x07");
        assert_eq!(scratch.key(leaf.prefix(), &long).len(), 106);
        scratch.start_leaf(&long);
        assert_eq!(scratch.key(&long, b"z").len(), 101);
        assert_eq!(scratch.key(b"", b"as-is"), b"as-is");
    }

    #[test]
    fn one_key_is_all_prefix_and_an_empty_leaf_is_valid() {
        let buf = packed(&[b"only"]);
        let leaf = LeafView::new(3, &buf).unwrap();
        assert_eq!((leaf.prefix(), leaf.count()), (&b"only"[..], 1));
        assert_eq!(leaf.search(b"only").unwrap(), Ok(0));
        assert_eq!(leaf.search(b"onlyx").unwrap(), Err(1));
        let buf = packed(&[]);
        let leaf = LeafView::new(3, &buf).unwrap();
        assert_eq!(leaf.count(), 0);
        assert_eq!(leaf.search(b"k").unwrap(), Err(0));
        leaf.validate().unwrap();
    }

    #[test]
    fn an_internal_page_is_not_a_leaf() {
        let mut buf = vec![0u8; 256];
        crate::node::init_internal(&mut buf, 4);
        let msg = LeafView::new(9, &buf).err().unwrap().to_string();
        assert!(
            msg.contains("page 9") && msg.contains("expected a leaf"),
            "{msg}"
        );
    }
}
