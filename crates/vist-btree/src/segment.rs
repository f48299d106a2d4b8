//! Immutable packed segments: several bulk-loaded trees in one store file.
//!
//! A *segment* is the read-only half of the tiered index: all trees of one
//! ingest batch (D-Ancestor, S-Ancestor, DocId, stored documents), each
//! bulk-loaded into packed leaves ([`crate::leaf`]) with fence-key internal
//! levels, packed into a single pager file together with a small header
//! page naming the tree roots. Segments are written once, fsync'd, and never mutated; the
//! page-level CRC32C trailers of the underlying pager checksum every page.
//!
//! [`SegmentWriter`] packs a fresh pool: the **first** allocation becomes
//! the header page (page 1 on a fresh `FrameFile`, right after the file's
//! own header frame), then each tree is bulk-loaded from a sorted stream,
//! whole ([`SegmentWriter::add_tree`]) or a record at a time
//! ([`TreeBuilder`]); trees take the header table's slots in the order
//! they are added. [`SegmentWriter::finish`] writes the header page:
//!
//! ```text
//! magic "VISTSEG1" | version u16 | tree_count u16 |
//! (root u32, entries u64) × tree_count | meta_len u16 | meta bytes
//! ```
//!
//! `version` is the segment format. The writer only writes the current one,
//! **2**: packed leaves, and whatever record encoding the caller pairs with
//! it (`vist-core` switches its record codecs on [`SegmentReader::version`]).
//! A version-1 file — slotted leaves, fixed-width records — still opens:
//! the leaf reader is chosen from each page's kind byte, so the trees read
//! the same.
//!
//! [`SegmentReader`] validates the header and hands each tree out as a
//! [`PackedTree`]: the read half of the tree API (`get_with`, the cursors,
//! `tree_stats`, `verify`) and no way to write, so immutability is a
//! property of the type. That guarantee is what lets a packed tree flatten
//! its internal levels into memory when it is opened (see [`crate::fence`]).

use std::sync::Arc;

use vist_storage::{BufferPool, Error, PageId, Result};

use crate::bulk::{Build, PackedLeaves};
use crate::fence::Fence;
use crate::tree::{PackedTree, Tree};

const MAGIC: &[u8; 8] = b"VISTSEG1";
/// The format [`SegmentWriter`] writes; see the module docs.
const VERSION: u16 = 2;

/// Fixed header bytes before the per-tree table: magic + version + count.
const HDR_FIXED: usize = 8 + 2 + 2;
/// Bytes per tree table entry: root u32 + entries u64.
const TREE_ENTRY: usize = 4 + 8;

/// Builds one immutable segment into a fresh pool. See the module docs.
pub struct SegmentWriter {
    pool: Arc<BufferPool>,
    header: PageId,
    trees: Vec<(PageId, u64)>,
}

/// A packed tree built a record at a time, its pages allocated as it fills;
/// records must be as [`SegmentWriter::add_tree`] takes them.
pub struct TreeBuilder(Build<PackedLeaves>);

impl TreeBuilder {
    /// Add the next record.
    pub fn push(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.0.push(key, value)
    }

    /// Seal the last leaf and build the internal levels now, so the tree's
    /// pages follow each other in the file. Returns `(root, entries)`.
    pub fn finish(self) -> Result<(PageId, u64)> {
        self.0.finish()
    }
}

impl SegmentWriter {
    /// Reserve the header page in `pool`. Call on a **fresh** pool so the
    /// header lands on the pool's first page id; persist
    /// [`SegmentWriter::header_page`] (or rely on it being page 1 on a
    /// fresh `FrameFile`).
    pub fn create(pool: Arc<BufferPool>) -> Result<Self> {
        // Nothing touches the page before `finish`: an allocated page reads
        // as zeros, so a crash mid-build leaves a zero magic that
        // SegmentReader::open rejects instead of half-trusting, and the
        // header is written once.
        let header = pool.allocate()?;
        Ok(SegmentWriter {
            pool,
            header,
            trees: Vec::new(),
        })
    }

    /// The page id the header will be written to.
    #[must_use]
    pub fn header_page(&self) -> PageId {
        self.header
    }

    /// Start a tree; its first leaf is allocated now.
    pub fn start_tree(&self) -> Result<TreeBuilder> {
        let leaves = PackedLeaves::new(self.pool.page_size());
        Ok(TreeBuilder(Build::new(Arc::clone(&self.pool), leaves)?))
    }

    /// Record a finished tree's `(root, entries)` in the header table's
    /// next slot. Returns that slot.
    pub fn add_built(&mut self, tree: (PageId, u64)) -> usize {
        self.trees.push(tree);
        self.trees.len() - 1
    }

    /// Bulk-load a tree from a strictly ascending `(key, value)` stream
    /// (disorder, duplicates and oversized records fail as in
    /// [`crate::BTree::bulk_load`]) into packed leaves, and record it in
    /// the header table's next slot. Returns that slot.
    pub fn add_tree<I>(&mut self, items: I) -> Result<usize>
    where
        I: IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
    {
        let mut tree = self.start_tree()?;
        for (key, value) in items {
            tree.push(&key, &value)?;
        }
        Ok(self.add_built(tree.finish()?))
    }

    /// Write the header page (tree table + caller `meta` blob), flush the
    /// pool (durable as its pager makes a sync) and dissolve the writer.
    pub fn finish(self, meta: &[u8]) -> Result<()> {
        let need = HDR_FIXED + self.trees.len() * TREE_ENTRY + 2 + meta.len();
        let page_size = self.pool.page_size();
        if need > page_size || self.trees.len() > u16::MAX as usize {
            return Err(Error::PageOverflow {
                requested: need,
                available: page_size,
            });
        }
        let mut page = self.pool.fetch_mut(self.header)?;
        let buf = page.data_mut();
        buf[0..8].copy_from_slice(MAGIC);
        buf[8..10].copy_from_slice(&VERSION.to_le_bytes());
        buf[10..12].copy_from_slice(&(self.trees.len() as u16).to_le_bytes());
        let mut at = HDR_FIXED;
        for (root, entries) in &self.trees {
            buf[at..at + 4].copy_from_slice(&root.to_le_bytes());
            buf[at + 4..at + 12].copy_from_slice(&entries.to_le_bytes());
            at += TREE_ENTRY;
        }
        buf[at..at + 2].copy_from_slice(&(meta.len() as u16).to_le_bytes());
        buf[at + 2..at + 2 + meta.len()].copy_from_slice(meta);
        drop(page);
        self.pool.flush()
    }
}

/// Read side of a packed segment: validates the header page and hands out
/// the packed trees as read-only [`PackedTree`]s.
pub struct SegmentReader {
    pool: Arc<BufferPool>,
    version: u16,
    trees: Vec<(PageId, u64)>,
    meta: Vec<u8>,
}

impl SegmentReader {
    /// Open the segment whose header is at `header` in `pool`.
    pub fn open(pool: Arc<BufferPool>, header: PageId) -> Result<Self> {
        let (version, trees, meta) = {
            let page = pool.fetch(header)?;
            let buf = page.data();
            if &buf[0..8] != MAGIC {
                return Err(Error::BadMagic {
                    what: "segment header",
                });
            }
            let version = u16::from_le_bytes(buf[8..10].try_into().unwrap());
            if !(1..=VERSION).contains(&version) {
                return Err(Error::Corrupt(format!(
                    "segment header version {version} (this build reads 1..={VERSION})"
                )));
            }
            let count = u16::from_le_bytes(buf[10..12].try_into().unwrap()) as usize;
            let table_end = HDR_FIXED + count * TREE_ENTRY;
            if table_end + 2 > buf.len() {
                return Err(Error::Corrupt(format!(
                    "segment header lists {count} trees, larger than a page"
                )));
            }
            let trees: Vec<(PageId, u64)> = (0..count)
                .map(|i| {
                    let at = HDR_FIXED + i * TREE_ENTRY;
                    (
                        u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()),
                        u64::from_le_bytes(buf[at + 4..at + 12].try_into().unwrap()),
                    )
                })
                .collect();
            let meta_len = u16::from_le_bytes(buf[table_end..table_end + 2].try_into().unwrap());
            let meta_at = table_end + 2;
            if meta_at + meta_len as usize > buf.len() {
                return Err(Error::Corrupt("segment header meta overruns page".into()));
            }
            (
                version,
                trees,
                buf[meta_at..meta_at + meta_len as usize].to_vec(),
            )
        };
        Ok(SegmentReader {
            pool,
            version,
            trees,
            meta,
        })
    }

    /// The segment format the header declares: 2 for what
    /// [`SegmentWriter`] writes, 1 for a file from before packed leaves.
    #[must_use]
    pub fn version(&self) -> u16 {
        self.version
    }

    /// Number of packed trees.
    #[must_use]
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// The caller meta blob passed to [`SegmentWriter::finish`].
    #[must_use]
    pub fn meta(&self) -> &[u8] {
        &self.meta
    }

    /// The shared pool the segment's pages live in.
    #[must_use]
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Open packed tree `i`: flatten its internal levels into the fence
    /// array (every internal page is read once and validated; a malformed
    /// one is [`Error::Corrupt`] naming the page and the field).
    pub fn tree(&self, i: usize) -> Result<PackedTree> {
        let Some(&(root, entries)) = self.trees.get(i) else {
            return Err(Error::Corrupt(format!(
                "segment has {} trees, asked for {i}",
                self.trees.len()
            )));
        };
        let origin = format_args!("segment header: root of tree {i}");
        Ok(Tree {
            descent: Fence::load(&self.pool, root, entries, origin)?,
            pool: Arc::clone(&self.pool),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vist_storage::MemPager;

    fn items(n: u32, tag: char) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..n)
            .map(|i| {
                (
                    format!("k{tag}{i:06}").into_bytes(),
                    format!("v{i}").into_bytes(),
                )
            })
            .collect()
    }

    #[test]
    fn write_then_read_three_trees() {
        let pool = Arc::new(BufferPool::with_capacity(MemPager::new(512), 256));
        let mut w = SegmentWriter::create(Arc::clone(&pool)).unwrap();
        let header = w.header_page();
        assert_eq!(w.add_tree(items(500, 'a')).unwrap(), 0);
        assert_eq!(w.add_tree(items(10, 'b')).unwrap(), 1);
        assert_eq!(w.add_tree(Vec::new()).unwrap(), 2);
        w.finish(b"doc_count=3").unwrap();

        let r = SegmentReader::open(pool, header).unwrap();
        assert_eq!(r.tree_count(), 3);
        assert_eq!(r.version(), 2);
        assert_eq!(r.meta(), b"doc_count=3");

        let t0 = r.tree(0).unwrap();
        assert_eq!(t0.get(b"ka000123").unwrap().unwrap(), b"v123");
        assert_eq!(t0.len().unwrap(), 500);
        assert!(t0.tree_stats().unwrap().leaf_fill() > 0.85, "packed leaves");
        assert_eq!(r.tree(1).unwrap().len().unwrap(), 10);
        let t2 = r.tree(2).unwrap();
        assert!(t2.is_empty().unwrap());
        assert!(r.tree(3).is_err());
    }

    #[test]
    fn a_tree_started_first_takes_the_slot_it_is_added_at() {
        let pool = Arc::new(BufferPool::with_capacity(MemPager::new(512), 256));
        let mut w = SegmentWriter::create(Arc::clone(&pool)).unwrap();
        let header = w.header_page();
        let mut early = w.start_tree().unwrap();
        for (k, v) in items(300, 'c') {
            early.push(&k, &v).unwrap();
        }
        // A key out of order is refused, and the tree keeps what it had.
        assert!(matches!(early.push(b"ka", b""), Err(Error::Corrupt(_))));
        let early = early.finish().unwrap();
        assert_eq!(w.add_tree(items(20, 'a')).unwrap(), 0);
        assert_eq!(w.add_tree(items(10, 'b')).unwrap(), 1);
        // Its pages came first; it takes the next slot.
        assert_eq!(w.add_built(early), 2);
        assert_eq!(w.add_tree(Vec::new()).unwrap(), 3);
        w.finish(&[]).unwrap();

        let r = SegmentReader::open(pool, header).unwrap();
        assert_eq!(r.tree_count(), 4);
        let lens: Vec<u64> = (0..4).map(|i| r.tree(i).unwrap().len().unwrap()).collect();
        assert_eq!(lens, [20, 10, 300, 0]);
        let t2 = r.tree(2).unwrap();
        assert_eq!(t2.get(b"kc000299").unwrap().unwrap(), b"v299");
        assert!(t2.tree_stats().unwrap().leaf_fill() > 0.85, "packed leaves");
    }

    #[test]
    fn unfinished_segment_is_rejected() {
        let pool = Arc::new(BufferPool::with_capacity(MemPager::new(512), 64));
        let w = SegmentWriter::create(Arc::clone(&pool)).unwrap();
        let header = w.header_page();
        drop(w); // crash before finish: header magic never written
        assert!(matches!(
            SegmentReader::open(pool, header),
            Err(Error::BadMagic { .. })
        ));
    }

    #[test]
    fn cursors_work_on_packed_trees() {
        let pool = Arc::new(BufferPool::with_capacity(MemPager::new(512), 256));
        let mut w = SegmentWriter::create(Arc::clone(&pool)).unwrap();
        let header = w.header_page();
        w.add_tree(items(200, 'x')).unwrap();
        w.finish(&[]).unwrap();
        let r = SegmentReader::open(pool, header).unwrap();
        let t = r.tree(0).unwrap();
        let hits: Vec<_> = t
            .scan_prefix(b"kx0001")
            .unwrap()
            .collect::<Result<Vec<_>>>()
            .unwrap();
        assert_eq!(hits.len(), 100);
        let mut seen = 0;
        t.for_each_in(.., |_, _| {
            seen += 1;
            std::ops::ControlFlow::<()>::Continue(())
        })
        .unwrap();
        assert_eq!(seen, 200);
    }
}
