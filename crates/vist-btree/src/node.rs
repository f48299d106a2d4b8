//! B+Tree node layout on top of [`vist_storage::SlottedPage`].
//!
//! Every page starts with a fixed node header, followed by a slotted region
//! (or, in a leaf of a format-v2 segment, the packed layout of
//! [`crate::leaf`]):
//!
//! ```text
//! +0  u8   kind: 1 = leaf, 2 = internal, 3 = packed leaf
//! +1  u32  leaf: next-leaf page id       | internal: leftmost child page id
//! +5  u32  reserved: INVALID_PAGE when written, never read
//! +9  u8   reserved
//! +10 ...  slotted region
//! ```
//!
//! The leaf chain is singly linked: cursors and the B-link chase follow the
//! forward link only. Files written before the tree became insert-only
//! carry a back link to the previous leaf at +5; nothing reads it, so they
//! open unchanged. The other direction does not hold: a binary from before
//! then must not compact a file written since (its per-key delete of the
//! aux tree would follow the missing back link), and its `verify` reports
//! every leaf chain of such a file as broken.
//!
//! Leaf cells are `[klen u16][vlen u16][key][value]`. Internal cells are
//! `[klen u16][child u32][key]`; the child of cell *i* holds keys in
//! `[key_i, key_{i+1})`, and the header's leftmost child holds keys below
//! `key_0`. Cells are kept sorted by key; positional slot insertion in the
//! slotted layer keeps the directory sorted for free.

use vist_storage::{Error, PageId, Result, SlotId, SlottedPage, SlottedPageMut, INVALID_PAGE};

/// Bytes reserved at the start of a page for the node header.
pub const NODE_HDR: usize = 10;

pub(crate) const KIND_LEAF: u8 = 1;
const KIND_INTERNAL: u8 = 2;
/// A leaf in the dense layout of [`crate::leaf`]: written only by
/// [`crate::SegmentWriter`], never modified.
pub(crate) const KIND_PACKED_LEAF: u8 = 3;

/// Node type tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Stores key/value records; linked to neighbours. Either leaf layout:
    /// [`crate::leaf::LeafView`] reads both.
    Leaf,
    /// Stores separator keys and child pointers.
    Internal,
}

/// The node kind of page `pid`, whose bytes are `buf`. A byte that is
/// neither kind passed the page checksum but is wrong; that is a property
/// of the file, not a bug in this program, so it is an error naming the
/// page.
pub(crate) fn kind(pid: PageId, buf: &[u8]) -> Result<NodeKind> {
    match buf[0] {
        KIND_LEAF | KIND_PACKED_LEAF => Ok(NodeKind::Leaf),
        KIND_INTERNAL => Ok(NodeKind::Internal),
        other => Err(Error::Corrupt(format!(
            "page {pid}: bad node kind byte {other:#04x}"
        ))),
    }
}

pub(crate) fn link1(buf: &[u8]) -> PageId {
    PageId::from_le_bytes(buf[1..5].try_into().unwrap())
}

pub(crate) fn set_kind(buf: &mut [u8], k: NodeKind) {
    buf[0] = match k {
        NodeKind::Leaf => KIND_LEAF,
        NodeKind::Internal => KIND_INTERNAL,
    };
}

pub(crate) fn set_link1(buf: &mut [u8], pid: PageId) {
    buf[1..5].copy_from_slice(&pid.to_le_bytes());
}

/// Initialize a page as an empty node of kind `k` with header link `link`
/// and the reserved field at +5 set to `INVALID_PAGE`.
fn init(buf: &mut [u8], k: NodeKind, link: PageId) {
    set_kind(buf, k);
    set_link1(buf, link);
    buf[5..9].copy_from_slice(&INVALID_PAGE.to_le_bytes());
    SlottedPageMut::init(buf, NODE_HDR);
}

/// Initialize a page as an empty leaf with no successor.
pub(crate) fn init_leaf(buf: &mut [u8]) {
    init(buf, NodeKind::Leaf, INVALID_PAGE);
}

/// Initialize a page as an empty internal node with the given leftmost child.
pub(crate) fn init_internal(buf: &mut [u8], leftmost: PageId) {
    init(buf, NodeKind::Internal, leftmost);
}

/// Encode a leaf cell.
pub(crate) fn leaf_cell(key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut cell = Vec::with_capacity(4 + key.len() + value.len());
    cell.extend_from_slice(&(key.len() as u16).to_le_bytes());
    cell.extend_from_slice(&(value.len() as u16).to_le_bytes());
    cell.extend_from_slice(key);
    cell.extend_from_slice(value);
    cell
}

/// Decode cell `slot` of slotted leaf `pid` into `(key, value)`. Total, like
/// [`decode_internal_cell`]: lengths the cell cannot back are
/// [`Error::Corrupt`] naming the page and the slot.
pub(crate) fn decode_leaf_cell(pid: PageId, slot: SlotId, cell: &[u8]) -> Result<(&[u8], &[u8])> {
    let split = || {
        let klen = usize::from(u16::from_le_bytes([*cell.first()?, *cell.get(1)?]));
        let vlen = usize::from(u16::from_le_bytes([*cell.get(2)?, *cell.get(3)?]));
        Some((cell.get(4..4 + klen)?, cell.get(4 + klen..4 + klen + vlen)?))
    };
    split().ok_or_else(|| {
        Error::Corrupt(format!(
            "page {pid}: leaf cell {slot}: header or key and value lengths run past the \
             {}-byte cell",
            cell.len()
        ))
    })
}

/// Encode an internal cell.
pub(crate) fn internal_cell(key: &[u8], child: PageId) -> Vec<u8> {
    let mut cell = Vec::with_capacity(6 + key.len());
    cell.extend_from_slice(&(key.len() as u16).to_le_bytes());
    cell.extend_from_slice(&child.to_le_bytes());
    cell.extend_from_slice(key);
    cell
}

/// Decode cell `slot` of internal page `pid` into `(key, child)`. Total: a
/// cell shorter than its header, or a key length that runs past the cell,
/// is [`Error::Corrupt`] naming the page and the field.
pub(crate) fn decode_internal_cell(
    pid: PageId,
    slot: SlotId,
    cell: &[u8],
) -> Result<(&[u8], PageId)> {
    let bad = |what: String| Error::Corrupt(format!("page {pid}: internal cell {slot}: {what}"));
    if cell.len() < 6 {
        return Err(bad(format!(
            "{} byte(s), shorter than the 6-byte cell header",
            cell.len()
        )));
    }
    let klen = usize::from(u16::from_le_bytes([cell[0], cell[1]]));
    let child = PageId::from_le_bytes([cell[2], cell[3], cell[4], cell[5]]);
    let key = cell[6..]
        .get(..klen)
        .ok_or_else(|| bad(format!("key length {klen} runs past the cell")))?;
    Ok((key, child))
}

/// First slot of internal node `pid` whose key is strictly greater than
/// `key`. Used for routing and separator insertion so that, when a file
/// written before the tree became insert-only carries a stale separator
/// equal to a fresh one (left by the lazy deletion of that time), keys
/// route to the *later* (newer) child.
pub(crate) fn upper_bound(pid: PageId, buf: &[u8], key: &[u8]) -> Result<SlotId> {
    let page = SlottedPage::new(buf, NODE_HDR);
    let (mut lo, mut hi) = (0, page.slot_count());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let (k, _) = decode_internal_cell(pid, mid, page.cell(mid)?)?;
        if k <= key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

/// The shortest key `s` with `left_last < s <= right_first` — the classic
/// separator suffix truncation. Internal nodes route correctly with `s` in
/// place of `right_first`, and for long shared-prefix key spaces (ViST's
/// D-Ancestor keys) `s` is dramatically shorter.
pub(crate) fn shortest_separator(left_last: &[u8], right_first: &[u8]) -> Vec<u8> {
    debug_assert!(left_last < right_first);
    // Length of the longest common prefix.
    let lcp = left_last
        .iter()
        .zip(right_first.iter())
        .take_while(|(a, b)| a == b)
        .count();
    // One byte past the common prefix distinguishes them (and exists,
    // because left_last < right_first).
    right_first[..(lcp + 1).min(right_first.len())].to_vec()
}

/// For internal node `pid`, the child page that covers `key` (the last cell
/// with key <= `key`), and the slot index of the cell it came from (`None` =
/// leftmost child).
pub(crate) fn child_for(pid: PageId, buf: &[u8], key: &[u8]) -> Result<(Option<SlotId>, PageId)> {
    Ok(match upper_bound(pid, buf, key)? {
        0 => (None, link1(buf)),
        i => {
            let page = SlottedPage::new(buf, NODE_HDR);
            let (_, child) = decode_internal_cell(pid, i - 1, page.cell(i - 1)?)?;
            (Some(i - 1), child)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_cell_roundtrip() {
        let cell = leaf_cell(b"key", b"value");
        let (k, v) = decode_leaf_cell(7, 0, &cell).unwrap();
        assert_eq!((k, v), (&b"key"[..], &b"value"[..]));
        let empty = leaf_cell(b"", b"");
        assert_eq!(
            decode_leaf_cell(7, 0, &empty).unwrap(),
            (&b""[..], &b""[..])
        );
        // A short header, a key and a value that run past the cell.
        for bytes in [&cell[..3], &cell[..6], &cell[..11]] {
            let msg = decode_leaf_cell(7, 2, bytes).unwrap_err().to_string();
            assert!(msg.contains("page 7") && msg.contains("cell 2"), "{msg}");
        }
    }

    #[test]
    fn internal_cell_roundtrip() {
        let cell = internal_cell(b"sep", 42);
        assert_eq!(
            decode_internal_cell(7, 0, &cell).unwrap(),
            (&b"sep"[..], 42)
        );
        // Short header, and a key length past the cell: errors naming the
        // page and the field, never a slice panic.
        for (bytes, what) in [(&cell[..5], "cell header"), (&cell[..8], "key length 3")] {
            let msg = decode_internal_cell(7, 2, bytes).unwrap_err().to_string();
            assert!(msg.contains("page 7") && msg.contains("cell 2"), "{msg}");
            assert!(msg.contains(what), "{msg}");
        }
    }

    #[test]
    fn child_routing() {
        let mut buf = vec![0u8; 1024];
        init_internal(&mut buf, 100);
        {
            let mut p = SlottedPageMut::new(&mut buf, NODE_HDR);
            p.insert(0, &internal_cell(b"d", 200)).unwrap();
            p.insert(1, &internal_cell(b"m", 300)).unwrap();
        }
        let child = |key: &[u8]| child_for(9, &buf, key).unwrap();
        assert_eq!(child(b"a"), (None, 100));
        assert_eq!(child(b"d"), (Some(0), 200));
        assert_eq!(child(b"k"), (Some(0), 200));
        assert_eq!(child(b"m"), (Some(1), 300));
        assert_eq!(child(b"z"), (Some(1), 300));
    }

    #[test]
    fn shortest_separator_laws() {
        let cases: &[(&[u8], &[u8])] = &[
            (b"apple", b"banana"),
            (b"abc", b"abd"),
            (b"abc", b"abcd"),
            (b"", b"a"),
            (b"a\xff", b"b"),
            (b"same-prefix-aaaa", b"same-prefix-bbbb"),
        ];
        for (l, r) in cases {
            let s = shortest_separator(l, r);
            assert!(*l < s.as_slice(), "{l:?} < {s:?}");
            assert!(s.as_slice() <= *r, "{s:?} <= {r:?}");
            assert!(s.len() <= r.len());
        }
        // The win: long shared prefixes truncate to lcp+1 bytes.
        let s = shortest_separator(b"prefix-prefix-prefix-a", b"prefix-prefix-prefix-b");
        assert_eq!(s, b"prefix-prefix-prefix-b".to_vec());
        let s = shortest_separator(b"aaaa0000", b"ab999999999999");
        assert_eq!(s, b"ab".to_vec());
    }

    #[test]
    fn links_roundtrip() {
        let mut buf = vec![0u8; 256];
        buf[5..9].fill(0xAB);
        init_leaf(&mut buf);
        assert_eq!(link1(&buf), INVALID_PAGE);
        assert_eq!(buf[5..9], INVALID_PAGE.to_le_bytes(), "reserved field");
        set_link1(&mut buf, 7);
        assert_eq!(link1(&buf), 7);
        assert_eq!(kind(3, &buf).unwrap(), NodeKind::Leaf);
    }

    #[test]
    fn bad_kind_byte_is_an_error_naming_the_page() {
        let mut buf = vec![0u8; 256];
        init_internal(&mut buf, 4);
        assert_eq!(kind(9, &buf).unwrap(), NodeKind::Internal);
        for bad in [0u8, 4, 0x81, 0xFF] {
            buf[0] = bad;
            let msg = kind(9, &buf).unwrap_err().to_string();
            assert!(msg.contains("page 9") && msg.contains("kind byte"), "{msg}");
        }
    }
}
