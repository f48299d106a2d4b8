//! Per-tree space accounting, used by the index-size experiments
//! (Figure 11a reports the DocId tree and the combined D/S-Ancestor trees
//! separately).

use vist_storage::{Result, SlottedPage};

use crate::leaf::LeafView;
use crate::node::{decode_internal_cell, kind, link1, NodeKind, NODE_HDR};
use crate::tree::{Descent, Tree};

/// Space statistics of one B+Tree.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TreeStats {
    /// Leaf pages.
    pub leaf_pages: u64,
    /// Internal pages.
    pub internal_pages: u64,
    /// Key/value records stored.
    pub entries: u64,
    /// Bytes occupied by live cells (keys + values + headers).
    pub used_bytes: u64,
    /// Total bytes of all pages of this tree.
    pub total_bytes: u64,
    /// Bytes occupied by live cells on **leaf** pages only.
    pub leaf_used_bytes: u64,
    /// Total bytes of all leaf pages.
    pub leaf_total_bytes: u64,
    /// Height of the tree (1 = a single leaf).
    pub height: u32,
}

impl TreeStats {
    /// Space utilization in `[0, 1]`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.total_bytes == 0 {
            return 0.0;
        }
        self.used_bytes as f64 / self.total_bytes as f64
    }

    /// Average leaf fill factor in `[0, 1]` — the number that separates a
    /// packed segment (~1.0) from an incrementally grown delta (~0.5-0.7
    /// after splits).
    #[must_use]
    pub fn leaf_fill(&self) -> f64 {
        if self.leaf_total_bytes == 0 {
            return 0.0;
        }
        self.leaf_used_bytes as f64 / self.leaf_total_bytes as f64
    }
}

impl<D: Descent> Tree<D> {
    /// Walk the whole tree and account its pages, entries and bytes.
    /// O(pages); intended for tooling and experiments, not hot paths.
    pub fn tree_stats(&self) -> Result<TreeStats> {
        let page_size = self.pool().page_size() as u64;
        let mut stats = TreeStats::default();
        let mut depth_of_leaf = 0u32;
        let mut stack: Vec<(vist_storage::PageId, u32)> = vec![(self.root_page(), 1)];
        while let Some((pid, depth)) = stack.pop() {
            let page = self.pool().fetch(pid)?;
            let buf = page.data();
            stats.total_bytes += page_size;
            match kind(pid, buf)? {
                NodeKind::Leaf => {
                    let leaf = LeafView::new(pid, buf)?;
                    let used = leaf.used_bytes(page_size as usize) as u64;
                    stats.leaf_pages += 1;
                    stats.entries += u64::from(leaf.count());
                    stats.used_bytes += used;
                    stats.leaf_used_bytes += used;
                    stats.leaf_total_bytes += page_size;
                    depth_of_leaf = depth_of_leaf.max(depth);
                }
                NodeKind::Internal => {
                    let p = SlottedPage::new(buf, NODE_HDR);
                    stats.used_bytes += page_size - p.total_free() as u64;
                    stats.internal_pages += 1;
                    stack.push((link1(buf), depth + 1));
                    for i in 0..p.slot_count() {
                        let (_, child) = decode_internal_cell(pid, i, p.cell(i)?)?;
                        stack.push((child, depth + 1));
                    }
                }
            }
        }
        stats.height = depth_of_leaf;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use crate::BTree;
    use std::sync::Arc;
    use vist_storage::{BufferPool, MemPager};

    fn tree_with(n: u32) -> BTree {
        let pool = Arc::new(BufferPool::with_capacity(MemPager::new(512), 256));
        let t = BTree::create(pool).unwrap();
        for i in 0..n {
            t.insert(format!("key{i:06}").as_bytes(), b"value").unwrap();
        }
        t
    }

    #[test]
    fn empty_tree_is_one_leaf() {
        let t = tree_with(0);
        let s = t.tree_stats().unwrap();
        assert_eq!(s.leaf_pages, 1);
        assert_eq!(s.internal_pages, 0);
        assert_eq!(s.entries, 0);
        assert_eq!(s.height, 1);
    }

    #[test]
    fn entries_and_pages_counted() {
        let t = tree_with(2000);
        let s = t.tree_stats().unwrap();
        assert_eq!(s.entries, 2000);
        assert!(s.leaf_pages > 10, "512-byte pages force many leaves");
        assert!(s.internal_pages >= 1);
        assert!(s.height >= 2);
        assert!(s.utilization() > 0.3 && s.utilization() <= 1.0);
        assert_eq!(s.total_bytes, (s.leaf_pages + s.internal_pages) * 512);
    }
}
