//! Structural invariant checker, used by tests and property tests.

use vist_storage::{PageId, Result, SlottedPage, INVALID_PAGE};

use crate::fence::Fence;
use crate::leaf::LeafView;
use crate::node::{decode_internal_cell, kind, link1, NodeKind, NODE_HDR};
use crate::tree::{fetch_leaf, BTree, PackedTree};

/// Check every B+Tree invariant, returning a description of the first
/// violation found:
///
/// 1. keys within every node are strictly sorted,
/// 2. every key in a subtree lies within the separator bounds of its parent,
/// 3. all leaves are at the same depth,
/// 4. the leaf chain, followed by forward links from the leftmost leaf,
///    visits exactly the tree's leaves, in order.
pub fn check(tree: &BTree) -> Result<()> {
    let mut leaves_in_order: Vec<PageId> = Vec::new();
    let mut leaf_depth: Option<usize> = None;
    check_node(
        tree,
        tree.root_page(),
        None,
        None,
        0,
        &mut leaf_depth,
        &mut leaves_in_order,
    )?;

    // Walk the chain from the leftmost leaf; it must equal the in-order leaf
    // list.
    let mut chain = Vec::new();
    let mut pid = *leaves_in_order.first().expect("at least the root leaf");
    while pid != INVALID_PAGE {
        chain.push(pid);
        pid = link1(fetch_leaf(tree.pool(), pid)?.data());
    }
    if chain != leaves_in_order {
        return corrupt(format!(
            "leaf chain {chain:?} != in-order leaves {leaves_in_order:?}"
        ));
    }
    Ok(())
}

/// Check a packed tree without trusting either its in-memory fence array or
/// its pages:
///
/// 1. flattening the internal pages again (which validates them: see
///    [`Fence::load`]) yields exactly the array the tree holds,
/// 2. leaf *i* is well-formed in its layout ([`LeafView::validate`]), and
///    its keys are strictly sorted and lie in `[fence i, fence i + 1)`,
/// 3. the forward link of leaf *i* is leaf *i + 1* (none after the last),
///    so a cursor walking the chain visits the leaves the array names, in
///    its order,
/// 4. the leaves hold as many entries as the segment header recorded.
pub fn check_packed(tree: &PackedTree) -> Result<()> {
    let fence = &tree.descent;
    let root = tree.root_page();
    if Fence::load(
        tree.pool(),
        root,
        fence.entries(),
        format_args!("tree root"),
    )? != *fence
    {
        return corrupt("fence array in memory differs from the internal pages".into());
    }
    let mut entries = 0u64;
    for i in 0..fence.leaf_count() {
        let (lower, pid) = fence.leaf(i);
        let upper = (i + 1 < fence.leaf_count()).then(|| fence.leaf(i + 1));
        let page = fetch_leaf(tree.pool(), pid)?;
        let buf = page.data();
        let leaf = LeafView::new(pid, buf)?;
        leaf.validate()?;
        let mut last = lower.to_vec();
        for slot in 0..leaf.count() {
            let key = [leaf.prefix(), leaf.entry(slot)?.0].concat();
            // The leftmost fence is empty, and so may the first key be.
            let sorted = if slot == 0 { last <= key } else { last < key };
            if !sorted || upper.is_some_and(|(hi, _)| key.as_slice() >= hi) {
                return corrupt(format!(
                    "leaf {pid} (fence entry {i}): key at slot {slot} out of order or \
                     outside the leaf's fences"
                ));
            }
            last = key;
        }
        entries += u64::from(leaf.count());
        let next = upper.map_or(INVALID_PAGE, |(_, next)| next);
        if link1(buf) != next {
            return corrupt(format!(
                "leaf {pid} (fence entry {i}): links to {} but the fence array says {next}",
                link1(buf)
            ));
        }
    }
    if entries != fence.entries() {
        return corrupt(format!(
            "{entries} entries in the leaves, the segment header recorded {}",
            fence.entries()
        ));
    }
    Ok(())
}

fn corrupt(msg: String) -> Result<()> {
    Err(vist_storage::Error::Corrupt(msg))
}

#[allow(clippy::too_many_arguments)]
fn check_node(
    tree: &BTree,
    pid: PageId,
    lower: Option<&[u8]>,
    upper: Option<&[u8]>,
    depth: usize,
    leaf_depth: &mut Option<usize>,
    leaves: &mut Vec<PageId>,
) -> Result<()> {
    let page = tree.pool().fetch(pid)?;
    let buf = page.data();
    let node_kind = kind(pid, buf)?;
    let leaf = match node_kind {
        NodeKind::Leaf => Some(LeafView::new(pid, buf)?),
        NodeKind::Internal => None,
    };
    let p = SlottedPage::new(buf, NODE_HDR);
    let n = match &leaf {
        Some(leaf) => {
            leaf.validate()?;
            leaf.count()
        }
        None => p.slot_count(),
    };

    // Collect keys and check sortedness + bounds.
    let mut prev_key: Option<Vec<u8>> = None;
    let mut cells: Vec<(Vec<u8>, PageId)> = Vec::new();
    for i in 0..n {
        let key = match &leaf {
            Some(leaf) => [leaf.prefix(), leaf.entry(i)?.0].concat(),
            None => {
                let (k, c) = decode_internal_cell(pid, i, p.cell(i)?)?;
                cells.push((k.to_vec(), c));
                k.to_vec()
            }
        };
        if let Some(pk) = &prev_key {
            // Internal nodes of files written before the tree became
            // insert-only may carry equal separators left by lazy deletion;
            // leaves must be strictly sorted.
            let ok = match node_kind {
                NodeKind::Leaf => pk.as_slice() < key.as_slice(),
                NodeKind::Internal => pk.as_slice() <= key.as_slice(),
            };
            if !ok {
                return corrupt(format!("page {pid}: keys out of order at slot {i}"));
            }
        }
        if let Some(lo) = lower {
            if key.as_slice() < lo {
                return corrupt(format!("page {pid}: key below lower bound at slot {i}"));
            }
        }
        if let Some(hi) = upper {
            if key.as_slice() >= hi {
                return corrupt(format!("page {pid}: key >= upper bound at slot {i}"));
            }
        }
        prev_key = Some(key);
    }

    match node_kind {
        NodeKind::Leaf => {
            match leaf_depth {
                None => *leaf_depth = Some(depth),
                Some(d) if *d != depth => {
                    return corrupt(format!("leaf {pid} at depth {depth}, expected {d}"));
                }
                _ => {}
            }
            leaves.push(pid);
            Ok(())
        }
        NodeKind::Internal => {
            // Leftmost child covers [lower, key_0); cell i covers
            // [key_i, key_{i+1}).
            let first_key = cells.first().map(|(k, _)| k.clone());
            check_node(
                tree,
                link1(buf),
                lower,
                first_key.as_deref().or(upper),
                depth + 1,
                leaf_depth,
                leaves,
            )?;
            for (i, (k, c)) in cells.iter().enumerate() {
                let next_upper = cells.get(i + 1).map(|(k, _)| k.as_slice()).or(upper);
                check_node(tree, *c, Some(k), next_upper, depth + 1, leaf_depth, leaves)?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vist_storage::{BufferPool, MemPager};

    #[test]
    fn empty_tree_passes() {
        let pool = Arc::new(BufferPool::with_capacity(MemPager::new(512), 16));
        let t = BTree::create(pool).unwrap();
        check(&t).unwrap();
    }

    #[test]
    fn verify_catches_planted_corruption() {
        let pool = Arc::new(BufferPool::with_capacity(MemPager::new(512), 64));
        let t = BTree::create(Arc::clone(&pool)).unwrap();
        for i in 0..50u32 {
            t.insert(format!("k{i:03}").as_bytes(), b"v").unwrap();
        }
        check(&t).unwrap();
        // Corrupt a key in the leftmost leaf to break ordering.
        let leaf = {
            let mut pid = t.root_page();
            loop {
                let p = pool.fetch(pid).unwrap();
                let b = p.data();
                if crate::node::kind(pid, b).unwrap() == NodeKind::Leaf {
                    break pid;
                }
                pid = crate::node::link1(b);
            }
        };
        let mut page = pool.fetch_mut(leaf).unwrap();
        let buf = page.data_mut();
        // Overwrite the first cell's key bytes with 0xFF to break sortedness.
        let cell0 = {
            let p = SlottedPage::new(buf, NODE_HDR);
            p.cell(0).unwrap().to_vec()
        };
        let mut broken = cell0.clone();
        let klen = u16::from_le_bytes([broken[0], broken[1]]) as usize;
        for b in &mut broken[4..4 + klen] {
            *b = 0xFF;
        }
        let mut p = vist_storage::SlottedPageMut::new(buf, NODE_HDR);
        p.replace(0, &broken).unwrap();
        drop(page);
        assert!(check(&t).is_err(), "corruption must be detected");
    }
}
