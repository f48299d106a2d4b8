//! Randomized differential tests: the B+Tree must behave exactly like
//! `std::collections::BTreeMap` under arbitrary operation sequences, and its
//! structural invariants must hold after every batch.
//!
//! A seeded splitmix64 generator drives the op sequences, so every run is
//! deterministic and failures reproduce from the case number.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use vist_btree::{verify, BTree};
use vist_storage::{BufferPool, FilePager, MemPager};

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>, Vec<u8>),
    /// Empty the whole tree: the one way records leave it.
    Clear,
    Get(Vec<u8>),
    Scan(Vec<u8>, Vec<u8>),
}

/// Small alphabet and lengths force heavy key collisions and deep
/// structure sharing.
fn random_key(rng: &mut Rng) -> Vec<u8> {
    let len = rng.below(6);
    (0..len).map(|_| b"abc"[rng.below(3)]).collect()
}

fn random_value(rng: &mut Rng, max: usize) -> Vec<u8> {
    let len = rng.below(max);
    (0..len).map(|_| rng.next() as u8).collect()
}

fn random_ops(rng: &mut Rng, n: usize) -> Vec<Op> {
    (0..n)
        .map(|_| match rng.below(100) {
            0 => Op::Clear,
            1..=59 => {
                let k = random_key(rng);
                let v = random_value(rng, 20);
                Op::Insert(k, v)
            }
            60..=79 => Op::Get(random_key(rng)),
            _ => Op::Scan(random_key(rng), random_key(rng)),
        })
        .collect()
}

/// Apply `ops` to `tree` and to a `BTreeMap`, comparing every result, and
/// the whole tree after the last op — or, with `every_step`, after each one.
fn run_ops(tree: &BTree, ops: &[Op], every_step: bool) {
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Insert(k, v) => {
                let got = tree.insert(k, v).unwrap();
                let want = model.insert(k.clone(), v.clone());
                assert_eq!(got, want, "op {i}: insert {k:?}");
            }
            Op::Clear => {
                tree.clear().unwrap();
                model.clear();
            }
            Op::Get(k) => {
                assert_eq!(tree.get(k).unwrap(), model.get(k).cloned(), "op {i}");
            }
            Op::Scan(a, b) => {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                let got: Vec<_> = tree
                    .scan(&lo[..]..&hi[..])
                    .unwrap()
                    .map(|r| r.unwrap())
                    .collect();
                let want: Vec<_> = model
                    .range::<Vec<u8>, _>((Bound::Included(lo), Bound::Excluded(hi)))
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                assert_eq!(got, want, "op {i}: scan {lo:?}..{hi:?}");
            }
        }
        if every_step {
            check_whole(tree, &model, &format!("op {i}: {op:?}"));
        }
    }
    check_whole(tree, &model, "end");
}

/// `verify()`, and a full scan equal to the model.
fn check_whole(tree: &BTree, model: &BTreeMap<Vec<u8>, Vec<u8>>, ctx: &str) {
    verify::check(tree).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let got: Vec<_> = tree.scan(..).unwrap().map(|r| r.unwrap()).collect();
    let want: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    assert_eq!(got, want, "{ctx}");
    assert_eq!(tree.len().unwrap(), model.len() as u64, "{ctx}");
}

fn small_tree() -> BTree {
    // Tiny pages force frequent splits and multi-level trees.
    let pool = Arc::new(BufferPool::with_capacity(MemPager::new(256), 32));
    BTree::create(pool).unwrap()
}

#[test]
fn btree_matches_btreemap_mem() {
    for case in 0..64u64 {
        let mut rng = Rng(0xB7EE ^ (case << 8));
        let len = 1 + rng.below(399);
        let ops = random_ops(&mut rng, len);
        run_ops(&small_tree(), &ops, false);
    }
}

/// Replace-heavy sequences over a few keys: values grow and shrink in
/// place, so leaves fill with holes, are defragmented and split while the
/// key set hardly changes. Checked after every step.
#[test]
fn grow_in_place_and_replace_heavy_sequences_match_btreemap() {
    for case in 0..32u64 {
        let mut rng = Rng(0x6A0E ^ (case << 8));
        let keys: Vec<Vec<u8>> = (0..24).map(|_| random_key(&mut rng)).collect();
        let ops: Vec<Op> = (0..300)
            .map(|_| {
                let k = keys[rng.below(keys.len())].clone();
                match rng.below(50) {
                    0 => Op::Clear,
                    1..=5 => Op::Get(k),
                    _ => Op::Insert(k, random_value(&mut rng, 100)),
                }
            })
            .collect();
        run_ops(&small_tree(), &ops, true);
    }
}

/// One leaf of nine records with holes punched in it, then for every slot
/// position `p`: a record inserted at `p` that fits only once the leaf is
/// defragmented, then that record grown in place until the leaf splits
/// with the grown cell at `p`. Checked after every step.
#[test]
fn defragment_then_split_at_every_slot_position() {
    // A 256-byte page has 240 bytes for slots and cells; a record of a
    // 2-byte key and a 14-byte value takes 24 of them.
    let key = |b: u8| vec![b'k', b];
    for p in 0..=9u8 {
        let tree = small_tree();
        let leaves = || tree.tree_stats().unwrap().leaf_pages;
        let mut model = BTreeMap::new();
        let mut insert = |k: Vec<u8>, v: Vec<u8>| {
            let want = model.insert(k.clone(), v.clone());
            assert_eq!(tree.insert(&k, &v).unwrap(), want, "p {p}: {k:?}");
            check_whole(&tree, &model, &format!("p {p}: after {k:?}"));
        };
        for i in 0..9 {
            insert(key(2 * i + 2), vec![i; 14]);
        }
        // Shrink every other record: 60 bytes of holes, 24 contiguous free.
        for i in (0..9).step_by(2) {
            insert(key(2 * i + 2), vec![i; 2]);
        }
        // 40 bytes: more than the contiguous free space, less than all.
        insert(key(2 * p + 1), vec![0xA0; 30]);
        assert_eq!(leaves(), 1, "p {p}: defragmented, not split");
        // 120 bytes: more than the leaf's whole free space.
        insert(key(2 * p + 1), vec![0xB0; 110]);
        assert_eq!(leaves(), 2, "p {p}: split once");
    }
}

/// Keys that arrive in ascending order (a delta's stored documents, by id)
/// each go past the last slot of the rightmost leaf, and that split leaves
/// the old records where they are: every leaf but the last is full. Mixed
/// with replacements and inserts behind the end, the tree still matches
/// the model.
#[test]
fn ascending_inserts_match_btreemap_and_fill_their_leaves() {
    for case in 0..24u64 {
        let mut rng = Rng(0xA5CE ^ (case << 8));
        // Even keys ascend; behind the end, an even key is replaced or an
        // odd one goes in between.
        let behind = case % 3 != 0;
        let mut next = 0usize;
        let ops: Vec<Op> = (0..400)
            .map(|_| {
                let k = if behind && next > 0 && rng.below(8) == 0 {
                    rng.below(2 * next)
                } else {
                    next += 1;
                    2 * next
                };
                Op::Insert(
                    (k as u32).to_be_bytes().to_vec(),
                    random_value(&mut rng, 20),
                )
            })
            .collect();
        let tree = small_tree();
        run_ops(&tree, &ops, case < 3);
        let stats = tree.tree_stats().unwrap();
        assert!(stats.leaf_pages > 10, "case {case}: {stats:?}");
        if !behind {
            assert!(
                stats.leaf_fill() > 0.8,
                "case {case}: {}",
                stats.leaf_fill()
            );
        }
    }
}

#[test]
fn btree_matches_btreemap_file() {
    for case in 0..24u64 {
        let mut rng = Rng(0xF11E ^ (case << 8));
        let len = 1 + rng.below(149);
        let ops = random_ops(&mut rng, len);
        let path =
            std::env::temp_dir().join(format!("vist-btree-prop-{}-{case}", std::process::id()));
        {
            let pager = FilePager::create(&path, 256).unwrap();
            let pool = Arc::new(BufferPool::with_capacity(pager, 16));
            let tree = BTree::create(pool).unwrap();
            run_ops(&tree, &ops, false);
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn reopen_preserves_contents() {
    for case in 0..16u64 {
        let mut rng = Rng(0x5EED ^ (case << 8));
        let mut kvs: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for _ in 0..rng.below(120) {
            let k = random_key(&mut rng);
            let v = random_value(&mut rng, 16);
            kvs.insert(k, v);
        }
        let path =
            std::env::temp_dir().join(format!("vist-btree-reopen-{}-{case}", std::process::id()));
        let root;
        {
            let pager = FilePager::create(&path, 256).unwrap();
            let pool = Arc::new(BufferPool::with_capacity(pager, 16));
            let tree = BTree::create(pool.clone()).unwrap();
            for (k, v) in &kvs {
                tree.insert(k, v).unwrap();
            }
            root = tree.root_page();
            pool.flush().unwrap();
        }
        {
            let pager = FilePager::open(&path).unwrap();
            let pool = Arc::new(BufferPool::with_capacity(pager, 16));
            let tree = BTree::open(pool, root).unwrap();
            verify::check(&tree).unwrap();
            let got: Vec<_> = tree.scan(..).unwrap().map(|r| r.unwrap()).collect();
            let want: Vec<_> = kvs.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            assert_eq!(got, want);
        }
        let _ = std::fs::remove_file(&path);
    }
}
