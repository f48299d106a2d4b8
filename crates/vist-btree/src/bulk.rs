//! Bottom-up bulk loading from sorted input.
//!
//! Builds leaves left to right at full occupancy, then each internal level
//! above — O(n) page writes with no splits, the standard way to materialize
//! a static index like RIST ("iii) for each node ... inserting it into the
//! D-Ancestor B+Tree ... and then the S-Ancestor B+Tree").

use std::sync::Arc;

use vist_storage::{BufferPool, Error, PageId, Result, SlotId, SlottedPageMut, INVALID_PAGE};

use crate::node::{
    init_internal, init_leaf, internal_cell, leaf_cell, set_link1, set_link2, NODE_HDR,
};
use crate::tree::{note_height, BTree};

impl BTree {
    /// Build a tree from `items`, which must be strictly ascending by key
    /// (duplicates or disorder yield [`Error::Corrupt`]). Equivalent to
    /// inserting every pair into an empty tree, but O(n) and with fully
    /// packed pages.
    pub fn bulk_load<I>(pool: Arc<BufferPool>, items: I) -> Result<Self>
    where
        I: IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
    {
        let max_cell = BTree::max_cell_for(&pool);

        // ---- leaf level -------------------------------------------------
        let mut leaves: Vec<(Vec<u8>, PageId)> = Vec::new(); // (first key, pid)
        let mut cur: Option<(PageId, Vec<u8>)> = None; // (pid, first key)
        let mut cur_slot: SlotId = 0;
        let mut prev_leaf: PageId = INVALID_PAGE;
        let mut last_key: Option<Vec<u8>> = None;

        for (key, value) in items {
            if let Some(lk) = &last_key {
                if key.as_slice() <= lk.as_slice() {
                    return Err(Error::Corrupt(
                        "bulk_load input must be strictly ascending".into(),
                    ));
                }
            }
            let cell = leaf_cell(&key, &value);
            if cell.len() > max_cell {
                return Err(Error::PageOverflow {
                    requested: cell.len(),
                    available: max_cell,
                });
            }
            // Try to append to the current leaf; on overflow, seal it and
            // start a new one.
            let mut placed = false;
            if let Some((pid, _)) = &cur {
                let mut page = pool.fetch_mut(*pid)?;
                let mut p = SlottedPageMut::new(page.data_mut(), NODE_HDR);
                match p.insert(cur_slot, &cell) {
                    Ok(()) => {
                        cur_slot += 1;
                        placed = true;
                    }
                    Err(Error::PageOverflow { .. }) => {}
                    Err(e) => return Err(e),
                }
            }
            if !placed {
                // Seal the current leaf and open a fresh one. The sealed
                // leaf's separator is suffix-truncated against the new key.
                if let Some((pid, first)) = cur.take() {
                    leaves.push((first, pid));
                    prev_leaf = pid;
                }
                let pid = pool.allocate()?;
                {
                    let mut page = pool.fetch_mut(pid)?;
                    let buf = page.data_mut();
                    init_leaf(buf);
                    set_link2(buf, prev_leaf);
                    let mut p = SlottedPageMut::new(buf, NODE_HDR);
                    p.insert(0, &cell)?;
                }
                if prev_leaf != INVALID_PAGE {
                    let mut pp = pool.fetch_mut(prev_leaf)?;
                    set_link1(pp.data_mut(), pid);
                }
                let sep = match &last_key {
                    Some(prev) => crate::node::shortest_separator(prev, &key),
                    None => key.clone(),
                };
                cur = Some((pid, sep));
                cur_slot = 1;
            }
            last_key = Some(key);
        }
        match cur {
            Some((pid, first)) => leaves.push((first, pid)),
            None => {
                // Empty input: a single empty leaf root.
                let root = pool.allocate()?;
                let mut page = pool.fetch_mut(root)?;
                init_leaf(page.data_mut());
                drop(page);
                note_height(1);
                return BTree::open(pool, root);
            }
        }

        // ---- internal levels --------------------------------------------
        let mut level: Vec<(Vec<u8>, PageId)> = leaves;
        let mut height = 1u64;
        while level.len() > 1 {
            height += 1;
            let mut next: Vec<(Vec<u8>, PageId)> = Vec::new();
            let mut iter = level.into_iter();
            let (mut first_key, leftmost) = iter.next().expect("level non-empty");
            let mut node = pool.allocate()?;
            {
                let mut page = pool.fetch_mut(node)?;
                init_internal(page.data_mut(), leftmost);
            }
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
                        let mut page = pool.fetch_mut(node)?;
                        init_internal(page.data_mut(), child);
                        first_key = sep;
                        slot = 0;
                    }
                    Err(e) => return Err(e),
                }
            }
            next.push((first_key, node));
            level = next;
        }
        let root = level[0].1;
        note_height(height);
        BTree::open(pool, root)
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
        // Deletions.
        for i in (0..1000).step_by(2) {
            t.delete(format!("key{i:06}").as_bytes()).unwrap();
        }
        assert_eq!(t.len().unwrap(), 500 + 300);
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
