//! Bottom-up bulk loading from sorted input.
//!
//! Builds leaves left to right at full occupancy, then each internal level
//! above — O(n) page writes with no splits, the standard way to materialize
//! a static index like RIST ("iii) for each node ... inserting it into the
//! D-Ancestor B+Tree ... and then the S-Ancestor B+Tree").

use std::sync::Arc;

use vist_storage::{BufferPool, Error, PageId, Result, SlotId, SlottedPageMut, INVALID_PAGE};

use crate::codec::{put_varint, varint_len};
use crate::leaf::PACKED_HDR;
use crate::node::{
    init_internal, init_leaf, internal_cell, leaf_cell, set_link1, KIND_PACKED_LEAF, NODE_HDR,
};
use crate::tree::{note_height, BTree};

/// The one thing the two bulk loads do differently: how records are laid
/// out on a leaf page. [`Build`] owns everything else — input order, the
/// record size limit, the leaf chain, separators, the internal levels.
pub(crate) trait LeafWriter {
    /// Make `buf` an empty, unlinked leaf of this layout.
    fn init(&self, buf: &mut [u8]);

    /// Add a record to the leaf being filled, page `pid`; `false`, with the
    /// leaf unchanged, when it does not fit. A record within the size limit
    /// always fits an empty leaf.
    fn push(&mut self, pool: &BufferPool, pid: PageId, key: &[u8], value: &[u8]) -> Result<bool>;

    /// The leaf on page `pid` is complete: write whatever `push` held back.
    fn seal(&mut self, pool: &BufferPool, pid: PageId) -> Result<()>;
}

/// Slotted leaves ([`crate::node`]): each record goes straight into the
/// page's slotted region.
struct SlottedLeaves {
    /// Slot the next record of the current leaf takes.
    slot: SlotId,
}

impl LeafWriter for SlottedLeaves {
    fn init(&self, buf: &mut [u8]) {
        init_leaf(buf);
    }

    fn push(&mut self, pool: &BufferPool, pid: PageId, key: &[u8], value: &[u8]) -> Result<bool> {
        let mut page = pool.fetch_mut(pid)?;
        let mut cells = SlottedPageMut::new(page.data_mut(), NODE_HDR);
        match cells.insert(self.slot, &leaf_cell(key, value)) {
            Ok(()) => {
                self.slot += 1;
                Ok(true)
            }
            Err(Error::PageOverflow { .. }) => Ok(false),
            Err(e) => Err(e),
        }
    }

    fn seal(&mut self, _: &BufferPool, _: PageId) -> Result<()> {
        self.slot = 0;
        Ok(())
    }
}

/// Packed leaves ([`crate::leaf`]): records wait in memory until the leaf
/// is full, because the prefix they share is only known then.
pub(crate) struct PackedLeaves {
    /// Bytes of a page after the node header.
    region_len: usize,
    /// Keys and values of the waiting records, concatenated, and where
    /// record `i` ends in each.
    keys: Vec<u8>,
    values: Vec<u8>,
    ends: Vec<(usize, usize)>,
    /// Length of the longest prefix the waiting keys share.
    prefix_len: usize,
    /// Bytes of the waiting cells that do not depend on the prefix: whole
    /// keys, values and value-length varints.
    fixed: usize,
    /// Bytes of their suffix-length varints at the current `prefix_len`.
    suffix_varints: usize,
}

impl PackedLeaves {
    pub(crate) fn new(page_size: usize) -> Self {
        PackedLeaves {
            region_len: page_size - NODE_HDR,
            keys: Vec::new(),
            values: Vec::new(),
            ends: Vec::new(),
            prefix_len: 0,
            fixed: 0,
            suffix_varints: 0,
        }
    }

    fn key(&self, i: usize) -> &[u8] {
        let from = if i == 0 { 0 } else { self.ends[i - 1].0 };
        &self.keys[from..self.ends[i].0]
    }

    fn value(&self, i: usize) -> &[u8] {
        let from = if i == 0 { 0 } else { self.ends[i - 1].1 };
        &self.values[from..self.ends[i].1]
    }

    /// See [`LeafWriter::push`]. Keys arrive ascending, so the prefix all of
    /// them share is the one the first and the newest share.
    pub(crate) fn add(&mut self, key: &[u8], value: &[u8]) -> bool {
        let n = self.ends.len();
        let prefix_len = if n == 0 {
            key.len()
        } else {
            let first = self.key(0);
            let lcp = first.iter().zip(key).take_while(|(a, b)| a == b).count();
            lcp.min(self.prefix_len)
        };
        // A shorter prefix lengthens every waiting suffix: recount their
        // varints. It shrinks at most `prefix_len` times a leaf.
        let waiting = if prefix_len == self.prefix_len {
            self.suffix_varints
        } else {
            (0..n)
                .map(|i| varint_len((self.key(i).len() - prefix_len) as u128))
                .sum()
        };
        let suffix_varints = waiting + varint_len((key.len() - prefix_len) as u128);
        let fixed = self.fixed + varint_len(value.len() as u128) + key.len() + value.len();
        let size =
            PACKED_HDR + 2 * (n + 2) + prefix_len + fixed - (n + 1) * prefix_len + suffix_varints;
        if size > self.region_len {
            return false;
        }
        self.keys.extend_from_slice(key);
        self.values.extend_from_slice(value);
        self.ends.push((self.keys.len(), self.values.len()));
        (self.prefix_len, self.fixed, self.suffix_varints) = (prefix_len, fixed, suffix_varints);
        true
    }

    /// Write the waiting records into `buf` (after its node header, which
    /// is left alone) in the layout of [`crate::leaf`], and forget them.
    pub(crate) fn write(&mut self, buf: &mut [u8]) {
        let n = self.ends.len();
        let p = self.prefix_len;
        let region = &mut buf[NODE_HDR..];
        let mut put16 = |at: usize, v: usize| {
            region[at..at + 2].copy_from_slice(&(v as u16).to_le_bytes());
        };
        put16(0, n);
        put16(2, p);
        let cells_start = PACKED_HDR + 2 * (n + 1) + p;
        let mut cells = Vec::with_capacity(self.keys.len() + self.values.len() + 6 * n);
        for i in 0..n {
            put16(PACKED_HDR + 2 * i, cells_start + cells.len());
            let (suffix, value) = (&self.key(i)[p..], self.value(i));
            put_varint(&mut cells, suffix.len() as u128);
            put_varint(&mut cells, value.len() as u128);
            cells.extend_from_slice(suffix);
            cells.extend_from_slice(value);
        }
        put16(PACKED_HDR + 2 * n, cells_start + cells.len());
        if n > 0 {
            region[cells_start - p..cells_start].copy_from_slice(&self.key(0)[..p]);
        }
        region[cells_start..cells_start + cells.len()].copy_from_slice(&cells);
        self.keys.clear();
        self.values.clear();
        self.ends.clear();
        (self.prefix_len, self.fixed, self.suffix_varints) = (0, 0, 0);
    }
}

impl LeafWriter for PackedLeaves {
    fn init(&self, buf: &mut [u8]) {
        init_leaf(buf);
        buf[0] = KIND_PACKED_LEAF;
        // No records, no prefix, and a directory of the one end offset.
        PackedLeaves::new(buf.len()).write(buf);
    }

    fn push(&mut self, _: &BufferPool, _: PageId, key: &[u8], value: &[u8]) -> Result<bool> {
        Ok(self.add(key, value))
    }

    fn seal(&mut self, pool: &BufferPool, pid: PageId) -> Result<()> {
        self.write(pool.fetch_mut(pid)?.data_mut());
        Ok(())
    }
}

/// Allocate an empty leaf and link it after `prev`.
fn open_leaf(pool: &BufferPool, leaves: &dyn LeafWriter, prev: PageId) -> Result<PageId> {
    let pid = pool.allocate()?;
    leaves.init(pool.fetch_mut(pid)?.data_mut());
    if prev != INVALID_PAGE {
        set_link1(pool.fetch_mut(prev)?.data_mut(), pid);
    }
    Ok(pid)
}

/// A bottom-up build: records pushed in strictly ascending key order
/// (duplicates or disorder yield [`Error::Corrupt`]) fill leaves of the
/// layout `L` left to right, each sealed as the next opens;
/// [`Build::finish`] seals the last one and builds the internal levels.
pub(crate) struct Build<L> {
    pool: Arc<BufferPool>,
    leaves: L,
    /// (lowest key routed to the leaf, pid) of every leaf so far, the one
    /// being filled last; the leftmost needs no key.
    level: Vec<(Vec<u8>, PageId)>,
    /// The key pushed last, once `entries > 0`.
    last_key: Vec<u8>,
    entries: u64,
}

impl<L: LeafWriter> Build<L> {
    /// Start a tree in `pool`: its first leaf is allocated now.
    pub(crate) fn new(pool: Arc<BufferPool>, leaves: L) -> Result<Self> {
        Ok(Build {
            level: vec![(Vec::new(), open_leaf(&pool, &leaves, INVALID_PAGE)?)],
            pool,
            leaves,
            last_key: Vec::new(),
            entries: 0,
        })
    }

    /// Add the next record.
    pub(crate) fn push(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        if self.entries > 0 && key <= self.last_key.as_slice() {
            return Err(Error::Corrupt(
                "bulk_load input must be strictly ascending".into(),
            ));
        }
        let (pool, cur) = (&*self.pool, self.level[self.level.len() - 1].1);
        let (cell_len, max_cell) = (4 + key.len() + value.len(), BTree::max_cell_for(pool));
        let overflow = Error::PageOverflow {
            requested: cell_len,
            available: max_cell,
        };
        if cell_len > max_cell {
            return Err(overflow);
        }
        if !self.leaves.push(pool, cur, key, value)? {
            // Seal the full leaf and open the next; its separator is
            // suffix-truncated against the last key of the sealed one.
            self.leaves.seal(pool, cur)?;
            let sep = crate::node::shortest_separator(&self.last_key, key);
            let next = open_leaf(pool, &self.leaves, cur)?;
            self.level.push((sep, next));
            if !self.leaves.push(pool, next, key, value)? {
                return Err(overflow);
            }
        }
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.entries += 1;
        Ok(())
    }

    /// Seal the last leaf and build the internal levels above the leaves.
    /// Returns the root page and the number of records.
    pub(crate) fn finish(mut self) -> Result<(PageId, u64)> {
        let (pool, mut level) = (&*self.pool, self.level);
        self.leaves.seal(pool, level[level.len() - 1].1)?;
        let mut height = 1u64;
        while level.len() > 1 {
            height += 1;
            let mut next: Vec<(Vec<u8>, PageId)> = Vec::new();
            let mut iter = level.into_iter();
            let (mut first_key, leftmost) = iter.next().expect("level non-empty");
            let mut node = pool.allocate()?;
            init_internal(pool.fetch_mut(node)?.data_mut(), leftmost);
            let mut slot: SlotId = 0;
            for (sep, child) in iter {
                let cell = internal_cell(&sep, child);
                let mut page = pool.fetch_mut(node)?;
                let mut p = SlottedPageMut::new(page.data_mut(), NODE_HDR);
                match p.insert(slot, &cell) {
                    Ok(()) => slot += 1,
                    Err(Error::PageOverflow { .. }) => {
                        drop(page);
                        next.push((first_key, node));
                        // The separator that failed becomes the next node's
                        // "first key" and its child the leftmost.
                        node = pool.allocate()?;
                        init_internal(pool.fetch_mut(node)?.data_mut(), child);
                        first_key = sep;
                        slot = 0;
                    }
                    Err(e) => return Err(e),
                }
            }
            next.push((first_key, node));
            level = next;
        }
        note_height(height);
        Ok((level[0].1, self.entries))
    }
}

impl BTree {
    /// Build a tree from `items`, which must be strictly ascending by key
    /// (duplicates or disorder yield [`Error::Corrupt`]). Equivalent to
    /// inserting every pair into an empty tree, but O(n) and with fully
    /// packed pages.
    pub fn bulk_load<I>(pool: Arc<BufferPool>, items: I) -> Result<Self>
    where
        I: IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
    {
        let mut build = Build::new(Arc::clone(&pool), SlottedLeaves { slot: 0 })?;
        for (key, value) in items {
            build.push(&key, &value)?;
        }
        BTree::open(pool, build.finish()?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use vist_storage::MemPager;

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::with_capacity(MemPager::new(512), 512))
    }

    fn pairs(n: u32) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..n)
            .map(|i| (format!("key{i:06}").into_bytes(), i.to_le_bytes().to_vec()))
            .collect()
    }

    #[test]
    fn empty_input() {
        let t = BTree::bulk_load(pool(), Vec::new()).unwrap();
        assert_eq!(t.len().unwrap(), 0);
        verify::check(&t).unwrap();
    }

    #[test]
    fn matches_incremental_build() {
        let items = pairs(3000);
        let bulk = BTree::bulk_load(pool(), items.clone()).unwrap();
        verify::check(&bulk).unwrap();
        let incr = BTree::create(pool()).unwrap();
        for (k, v) in &items {
            incr.insert(k, v).unwrap();
        }
        let a: Vec<_> = bulk.scan(..).unwrap().map(|r| r.unwrap()).collect();
        let b: Vec<_> = incr.scan(..).unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(a, b);
        assert_eq!(bulk.len().unwrap(), 3000);
        // Bulk pages are fuller.
        let sb = bulk.tree_stats().unwrap();
        let si = incr.tree_stats().unwrap();
        assert!(
            sb.leaf_pages <= si.leaf_pages,
            "bulk {} vs incremental {}",
            sb.leaf_pages,
            si.leaf_pages
        );
        assert!(sb.utilization() > si.utilization() * 0.99);
    }

    #[test]
    fn remains_fully_dynamic_after_bulk_load() {
        let t = BTree::bulk_load(pool(), pairs(1000)).unwrap();
        // Point reads.
        assert!(t.get(b"key000500").unwrap().is_some());
        assert!(t.get(b"nope").unwrap().is_none());
        // Inserts into packed pages force splits.
        for i in 0..300u32 {
            t.insert(format!("key{i:06}x").as_bytes(), b"new").unwrap();
        }
        assert_eq!(t.len().unwrap(), 1000 + 300);
        verify::check(&t).unwrap();
    }

    #[test]
    fn rejects_disorder_and_duplicates() {
        let items = vec![(b"b".to_vec(), vec![]), (b"a".to_vec(), vec![])];
        assert!(matches!(
            BTree::bulk_load(pool(), items),
            Err(Error::Corrupt(_))
        ));
        let dups = vec![(b"a".to_vec(), vec![]), (b"a".to_vec(), vec![])];
        assert!(matches!(
            BTree::bulk_load(pool(), dups),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn single_item() {
        let t = BTree::bulk_load(pool(), vec![(b"only".to_vec(), b"v".to_vec())]).unwrap();
        assert_eq!(t.get(b"only").unwrap().as_deref(), Some(&b"v"[..]));
        assert_eq!(t.len().unwrap(), 1);
        verify::check(&t).unwrap();
    }

    #[test]
    fn variable_length_records() {
        let items: Vec<_> = (0..500u32)
            .map(|i| {
                let k = format!("{:04}{}", i, "p".repeat((i % 30) as usize)).into_bytes();
                let v = vec![7u8; (i % 40) as usize];
                (k, v)
            })
            .collect();
        let t = BTree::bulk_load(pool(), items.clone()).unwrap();
        verify::check(&t).unwrap();
        for (k, v) in &items {
            assert_eq!(t.get(k).unwrap().as_deref(), Some(v.as_slice()));
        }
    }
}
