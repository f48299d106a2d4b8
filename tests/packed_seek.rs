//! A packed segment tree read through its in-memory fence array, checked
//! from outside the crate against two references.
//!
//! The same sorted input is bulk-loaded once into a segment and then read
//! three ways: through a plain [`BTree`] opened on the packed tree's root
//! (the page descent — the reference the fence array replaces), through the
//! [`PackedTree`] the segment reader hands out, and through a `BTreeMap`.
//!
//! 1. **Differential** — `get_with`, `for_each_in`, `scan`, `scan_prefix`
//!    and `len` agree for every bound kind at both ends over every stored
//!    key, the gap after each, the suffix-truncated separator between each
//!    pair of neighbours (what the fence array actually stores, and shorter
//!    than any stored key, and than the prefix a packed leaf stores once),
//!    the empty key, and a key beyond the last — on 512-byte pages, so the
//!    trees are three levels deep, with 24-byte fixed keys and with
//!    variable-length keys sharing long prefixes, on the empty and the
//!    single-leaf tree, and over packed leaves whose keys share a long
//!    prefix, none at all, or include the empty key.
//! 2. **Exact fetch counts** — from `pool_stats()` deltas: a point probe of
//!    a stored key fetches exactly one page on the packed tree (the page
//!    descent fetches one per level), and so does one of an absent key that
//!    sorts between two leaves (the page descent chases the forward link, a
//!    tree that cannot split has no reason to); a range inside one leaf
//!    fetches exactly one, a range over *k* leaves exactly *k*; and of the
//!    walk over many ranges (`for_each_in_ranges`): any number of ranges on
//!    one leaf fetch it once, ranges on two leaves five apart fetch two
//!    pages, one range over *m* leaves *m*.
//! 3. **Many ranges, one pass** — over seeded sorted range lists (empty,
//!    adjacent and overlapping ranges, many to a leaf, some over several
//!    leaves, some beyond the last key, none at all) `for_each_in_ranges`
//!    visits the union of what one `for_each_in` per range visits, in key
//!    order, on both trees and every fixture of (1).

use std::collections::BTreeMap;
use std::ops::{Bound, ControlFlow};
use std::sync::Arc;

use vist_btree::codec::take_varint;
use vist_btree::{BTree, PackedTree, SegmentReader, SegmentWriter};
use vist_storage::{BufferPool, MemPager, Result};

type Model = BTreeMap<Vec<u8>, Vec<u8>>;
type Pairs = Vec<(Vec<u8>, Vec<u8>)>;
type Range<'a> = (Bound<&'a [u8]>, Bound<&'a [u8]>);
/// `(Excluded, Excluded)` ranges, sorted by start.
type Ranges = Vec<(Vec<u8>, Vec<u8>)>;

const PAGE: usize = 512;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The read surface the two tree types share, so one checker serves both.
trait Reads {
    fn point(&self, key: &[u8]) -> Option<Vec<u8>>;
    fn streamed(&self, range: Range<'_>) -> Pairs;
    fn swept(&self, ranges: &Ranges) -> Pairs;
    fn scanned(&self, range: Range<'_>) -> Pairs;
    fn prefixed(&self, prefix: &[u8]) -> Pairs;
    fn count(&self) -> (u64, bool);
}

macro_rules! reads {
    ($tree:ty) => {
        impl Reads for $tree {
            fn point(&self, key: &[u8]) -> Option<Vec<u8>> {
                let got = self.get_with(key, <[u8]>::to_vec).unwrap();
                assert_eq!(self.get(key).unwrap(), got);
                assert_eq!(self.contains(key).unwrap(), got.is_some());
                got
            }
            fn streamed(&self, range: Range<'_>) -> Pairs {
                let mut out = Vec::new();
                self.for_each_in(range, |k, v| {
                    out.push((k.to_vec(), v.to_vec()));
                    ControlFlow::Continue(())
                })
                .unwrap();
                out
            }
            fn swept(&self, ranges: &Ranges) -> Pairs {
                let mut out = Vec::new();
                let mut asked = 0;
                self.for_each_in_ranges(
                    ranges.len(),
                    |i, lo, hi| {
                        assert!(lo.is_empty() && hi.is_empty(), "buffers arrive empty");
                        assert_eq!(i, asked, "bounds asked for in order, once");
                        asked += 1;
                        lo.extend_from_slice(&ranges[i].0);
                        hi.extend_from_slice(&ranges[i].1);
                    },
                    |k, v| {
                        out.push((k.to_vec(), v.to_vec()));
                        ControlFlow::Continue(())
                    },
                )
                .unwrap();
                out
            }
            fn scanned(&self, range: Range<'_>) -> Pairs {
                self.scan(range).unwrap().collect::<Result<_>>().unwrap()
            }
            fn prefixed(&self, prefix: &[u8]) -> Pairs {
                let scan = self.scan_prefix(prefix).unwrap();
                scan.collect::<Result<_>>().unwrap()
            }
            fn count(&self) -> (u64, bool) {
                (self.len().unwrap(), self.is_empty().unwrap())
            }
        }
    };
}
reads!(BTree);
reads!(PackedTree);

/// One input, bulk-loaded once, and its three readers.
struct Fixture {
    pool: Arc<BufferPool>,
    paged: BTree,
    packed: PackedTree,
    model: Model,
}

fn build(items: Pairs) -> Fixture {
    let pool = Arc::new(BufferPool::with_capacity(MemPager::new(PAGE), 4096));
    let mut writer = SegmentWriter::create(Arc::clone(&pool)).unwrap();
    let header = writer.header_page();
    writer.add_tree(items.clone()).unwrap();
    writer.finish(&[]).unwrap();
    let packed = SegmentReader::open(Arc::clone(&pool), header)
        .unwrap()
        .tree(0)
        .unwrap();
    // The page descent over the very same pages.
    let paged = BTree::open(Arc::clone(&pool), packed.root_page()).unwrap();
    paged.verify().unwrap();
    packed.verify().unwrap();
    Fixture {
        pool,
        paged,
        packed,
        model: items.into_iter().collect(),
    }
}

/// 24-byte fixed keys in the shape of the S-Ancestor tree's: twenty bytes
/// every key shares, then a counter. A packed leaf stores the twenty once,
/// so the values are long enough (five records to a leaf) for a third level.
fn fixed_keys(n: u32) -> Pairs {
    (0..n)
        .map(|i| {
            let mut k = b"dkey-id+scope-prefix".to_vec();
            k.extend_from_slice(&(i * 3).to_be_bytes());
            assert_eq!(k.len(), 24);
            (k, format!("v{i:05}").repeat(14).into_bytes())
        })
        .collect()
}

/// Variable-length keys: a four-byte counter, then a tail of seeded length
/// that neighbours share, so the separator between two leaves is at most
/// five bytes long and every stored key at least twenty. Separators that
/// short give internal pages a fan-out of thirty, so the values are long
/// enough (four records to a leaf) for a third level.
fn variable_keys(n: u32, seed: u64) -> Pairs {
    let mut state = seed;
    (0..n)
        .map(|i| {
            let tail = 16 + (splitmix64(&mut state) % 24) as usize;
            let mut k = format!("{i:04}").into_bytes();
            k.extend_from_slice(&vec![b'-'; tail]);
            (k, vec![i as u8; 72 + (i % 7) as usize])
        })
        .collect()
}

fn shortest_separator(left: &[u8], right: &[u8]) -> Vec<u8> {
    let lcp = left.iter().zip(right).take_while(|(a, b)| a == b).count();
    right[..(lcp + 1).min(right.len())].to_vec()
}

/// Every stored key, the gap after each, the separator before each, the
/// empty key and a key above all.
fn points(model: &Model) -> Vec<Vec<u8>> {
    let mut out = vec![Vec::new(), vec![0xFF; 40]];
    let mut prev: Option<&Vec<u8>> = None;
    for k in model.keys() {
        out.push(k.clone());
        let mut gap = k.clone();
        gap.push(0);
        out.push(gap);
        if let Some(p) = prev {
            out.push(shortest_separator(p, k));
        }
        prev = Some(k);
    }
    out.sort();
    out.dedup();
    out
}

fn within(k: &[u8], (start, end): Range<'_>) -> bool {
    let after_start = match start {
        Bound::Unbounded => true,
        Bound::Included(s) => k >= s,
        Bound::Excluded(s) => k > s,
    };
    let before_end = match end {
        Bound::Unbounded => true,
        Bound::Included(e) => k <= e,
        Bound::Excluded(e) => k < e,
    };
    after_start && before_end
}

/// A list of ranges over `points` (ascending), sorted by start: each starts
/// where the one before ended (adjacent), a little later, or — one in six —
/// before that end (an overlapping pair), and is empty, short (many to a
/// leaf) or long (several leaves).
fn range_list(points: &[Vec<u8>], count: usize, state: &mut u64) -> Ranges {
    let mut below = |n: usize| (splitmix64(state) % n as u64) as usize;
    let mut ranges = Ranges::new();
    let (mut lo, mut prev_end) = (below(4), 0usize);
    for _ in 0..count {
        lo = match below(6) {
            0 => lo.max(prev_end.saturating_sub(1 + below(3))),
            1 | 2 => lo.max(prev_end),
            _ => lo.max(prev_end) + below(7),
        };
        if lo >= points.len() {
            break;
        }
        let len = match below(8) {
            0 => 0,
            1 => 12 + below(40),
            _ => 1 + below(5),
        };
        let hi = (lo + len).min(points.len() - 1);
        ranges.push((points[lo].clone(), points[hi].clone()));
        prev_end = prev_end.max(hi);
    }
    ranges
}

fn kinds(p: &[u8]) -> [Bound<&[u8]>; 2] {
    [Bound::Included(p), Bound::Excluded(p)]
}

/// Compare both trees with the model. Every point is a start bound and an
/// end bound of each kind, paired with the unbounded other end and with
/// two seeded points of each kind — a full points × points grid would be
/// quadratic in ranges that are themselves linear.
fn check(f: &Fixture, seed: u64, what: &str) {
    let points = points(&f.model);
    let trees: [(&str, &dyn Reads); 2] = [("page descent", &f.paged), ("packed", &f.packed)];
    let mut state = seed;
    let mut ranges = 0u64;
    for (name, tree) in trees {
        assert_eq!(
            tree.count(),
            (f.model.len() as u64, f.model.is_empty()),
            "{what}, {name}: len"
        );
        for p in &points {
            assert_eq!(
                tree.point(p).as_ref(),
                f.model.get(p),
                "{what}, {name}: get_with {p:?}"
            );
            let expect: Pairs = f
                .model
                .iter()
                .filter(|(k, _)| k.starts_with(p))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            assert_eq!(
                tree.prefixed(p),
                expect,
                "{what}, {name}: scan_prefix {p:?}"
            );

            let mut others = vec![Bound::Unbounded];
            for _ in 0..2 {
                let q = &points[(splitmix64(&mut state) % points.len() as u64) as usize];
                others.extend(kinds(q));
            }
            for here in kinds(p) {
                for &other in &others {
                    for range in [(here, other), (other, here)] {
                        let expect: Pairs = f
                            .model
                            .iter()
                            .filter(|(k, _)| within(k, range))
                            .map(|(k, v)| (k.clone(), v.clone()))
                            .collect();
                        assert_eq!(
                            tree.streamed(range),
                            expect,
                            "{what}, {name}: for_each_in {range:?}"
                        );
                        assert_eq!(
                            tree.scanned(range),
                            expect,
                            "{what}, {name}: scan {range:?}"
                        );
                        ranges += 1;
                    }
                }
            }
        }
    }
    assert!(ranges >= 40, "{what}: only {ranges} ranges checked");

    // The walk over many ranges: the union of the per-range walks.
    for (name, tree) in trees {
        assert!(tree.swept(&Ranges::new()).is_empty());
        for round in 0..120 {
            let list = range_list(&points, 1 + round % 48, &mut state);
            let expect: Pairs = f
                .model
                .iter()
                .filter(|(k, _)| list.iter().any(|(lo, hi)| *k > lo && *k < hi))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            assert_eq!(tree.swept(&list), expect, "{what}, {name}: {list:?}");
            let mut one_by_one = Model::new();
            for (lo, hi) in &list {
                one_by_one.extend(tree.streamed((Bound::Excluded(lo), Bound::Excluded(hi))));
            }
            let one_by_one: Pairs = one_by_one.into_iter().collect();
            assert_eq!(one_by_one, expect, "{what}, {name}: {list:?}");
        }
    }
}

#[test]
fn fixed_width_keys_three_levels_deep() {
    let f = build(fixed_keys(420));
    let stats = f.packed.tree_stats().unwrap();
    assert!(stats.height >= 3, "height {}", stats.height);
    assert_eq!(stats, f.paged.tree_stats().unwrap());
    check(&f, 0xF1DE, "fixed");
}

#[test]
fn variable_length_keys_with_separators_shorter_than_any_key() {
    let f = build(variable_keys(300, 1));
    let stats = f.packed.tree_stats().unwrap();
    assert!(stats.height >= 3, "height {}", stats.height);
    let shortest_key = f.model.keys().map(Vec::len).min().unwrap();
    let longest_separator = f
        .model
        .keys()
        .zip(f.model.keys().skip(1))
        .map(|(a, b)| shortest_separator(a, b).len())
        .max()
        .unwrap();
    assert!(longest_separator < shortest_key);
    check(&f, 2, "variable");
}

#[test]
fn empty_and_single_leaf_trees() {
    let empty = build(Vec::new());
    assert_eq!(empty.packed.tree_stats().unwrap().height, 1);
    check(&empty, 7, "empty");
    let one = build(fixed_keys(5));
    assert_eq!(one.packed.tree_stats().unwrap().leaf_pages, 1);
    check(&one, 8, "single leaf");
    assert!(one.packed.fence_bytes() < 32, "one entry, no key bytes");
}

/// One packed leaf as the raw page has it: the prefix stored once, and the
/// whole keys (a node header of ten bytes: kind, forward link, back link;
/// then `n u16 ‖ p u16 ‖ u16 × (n + 1) cell offsets`, the prefix, and cells
/// of `varint suffix_len ‖ varint value_len ‖ suffix ‖ value`).
struct RawLeaf {
    prefix: Vec<u8>,
    keys: Vec<Vec<u8>>,
}

/// The leaves of the packed tree, left to right.
fn leaves(f: &Fixture) -> Vec<RawLeaf> {
    let mut pid = f.packed.root_page();
    loop {
        let page = f.pool.fetch(pid).unwrap();
        if page.data()[0] != 2 {
            break;
        }
        pid = u32::from_le_bytes(page.data()[1..5].try_into().unwrap());
    }
    let mut out = Vec::new();
    while pid != u32::MAX {
        let page = f.pool.fetch(pid).unwrap();
        let buf = page.data();
        assert_eq!(buf[0], 3, "page {pid} is a packed leaf");
        let region = &buf[10..];
        let u16_at = |at: usize| u16::from_le_bytes([region[at], region[at + 1]]) as usize;
        let (n, p) = (u16_at(0), u16_at(2));
        let prefix_at = 4 + 2 * (n + 1);
        let prefix = region[prefix_at..prefix_at + p].to_vec();
        assert_eq!(u16_at(4), prefix_at + p, "cells follow the prefix");
        let keys = (0..n)
            .map(|i| {
                let mut cell = &region[u16_at(4 + 2 * i)..u16_at(6 + 2 * i)];
                let suffix_len = take_varint(&mut cell).unwrap() as usize;
                let value_len = take_varint(&mut cell).unwrap() as usize;
                assert_eq!(cell.len(), suffix_len + value_len);
                [&prefix, &cell[..suffix_len]].concat()
            })
            .collect();
        out.push(RawLeaf { prefix, keys });
        pid = u32::from_le_bytes(buf[1..5].try_into().unwrap());
    }
    out
}

/// Pages `f`'s pool was asked for while `op` ran.
fn fetches(f: &Fixture, op: impl FnOnce()) -> u64 {
    let before = f.pool.pool_stats().totals();
    op();
    let after = f.pool.pool_stats().totals();
    (after.hits + after.misses) - (before.hits + before.misses)
}

#[test]
fn a_probe_fetches_one_page_and_a_range_one_per_leaf() {
    for (what, items) in [
        ("fixed", fixed_keys(420)),
        ("variable", variable_keys(360, 3)),
    ] {
        let f = build(items);
        let height = u64::from(f.packed.tree_stats().unwrap().height);
        assert!(height >= 3);
        let leaves: Vec<Vec<Vec<u8>>> = leaves(&f).into_iter().map(|l| l.keys).collect();
        assert!(leaves.len() > 16);

        for k in f.model.keys() {
            let n = fetches(&f, || assert!(f.packed.contains(k).unwrap()));
            assert_eq!(n, 1, "{what}: packed probe of {k:?}");
            let n = fetches(&f, || assert!(f.paged.contains(k).unwrap()));
            assert_eq!(n, height, "{what}: page descent to {k:?}");
        }

        // An absent key right after the last record of a leaf sorts past
        // everything on the leaf its fence names. The page descent cannot
        // tell that from a split it raced and looks at the next leaf; the
        // packed tree knows its fences are exact.
        for pair in leaves.windows(2) {
            let mut gap = pair[0].last().unwrap().clone();
            gap.push(0);
            assert!(gap < pair[1][0] && !f.model.contains_key(&gap));
            let n = fetches(&f, || assert!(!f.packed.contains(&gap).unwrap()));
            assert_eq!(n, 1, "{what}: packed probe of absent {gap:?}");
            let n = fetches(&f, || assert!(!f.paged.contains(&gap).unwrap()));
            assert_eq!(n, height + 1, "{what}: page descent chases for {gap:?}");
            // Just below the first record of the right-hand leaf.
            let below = shortest_separator(pair[0].last().unwrap(), &pair[1][0]);
            if !f.model.contains_key(&below) {
                let n = fetches(&f, || assert!(!f.packed.contains(&below).unwrap()));
                assert_eq!(n, 1, "{what}: packed probe of absent {below:?}");
            }
        }

        // From the first key of leaf `i` to the second-to-last key of leaf
        // `i + k - 1`: the walk meets a key beyond the end bound in that
        // leaf and never looks at the next.
        let mut state = 0xC0FFEE;
        for i in 0..leaves.len() {
            let k = 1 + (splitmix64(&mut state) % 5) as usize;
            let Some(last) = leaves.get(i + k - 1).filter(|l| l.len() >= 2) else {
                continue;
            };
            let start = leaves[i][0].as_slice();
            let end = last[last.len() - 2].as_slice();
            let expect: usize = leaves[i..i + k].iter().map(Vec::len).sum::<usize>() - 1;
            for range in [
                (Bound::Included(start), Bound::Included(end)),
                (
                    Bound::Included(start),
                    Bound::Excluded(last[last.len() - 1].as_slice()),
                ),
            ] {
                let mut seen = 0usize;
                let n = fetches(&f, || {
                    f.packed
                        .for_each_in(range, |_, _| {
                            seen += 1;
                            ControlFlow::Continue(())
                        })
                        .unwrap();
                });
                assert_eq!(seen, expect, "{what}: leaves {i}..{}", i + k);
                assert_eq!(n, k as u64, "{what}: range over {k} leaves from leaf {i}");
            }
            // The same range through the page descent pays the levels above.
            let n = fetches(&f, || {
                let range = (Bound::Included(start), Bound::Included(end));
                f.paged
                    .for_each_in(range, |_, _| ControlFlow::Continue(()))
                    .unwrap();
            });
            assert_eq!(n, k as u64 + height - 1, "{what}: paged range");
        }

        // The walk over many ranges. Bounds are stored keys of the leaf
        // itself: a range that ends on the leaf's last key stops there and
        // never looks at the next leaf.
        let sweep = |ranges: &Ranges| {
            let mut seen = 0usize;
            let n = fetches(&f, || seen = f.packed.swept(ranges).len());
            (seen, n)
        };
        for (i, leaf) in leaves.iter().enumerate() {
            if leaf.len() < 3 {
                continue;
            }
            // Every record between the first and the last in a range of its
            // own, and every pair of those ranges again as one (overlaps).
            let mut each: Ranges = leaf
                .windows(2)
                .skip(1)
                .map(|w| (w[0].clone(), w[1].clone()))
                .chain(leaf.windows(3).map(|w| (w[0].clone(), w[2].clone())))
                .collect();
            each.sort();
            assert_eq!(
                sweep(&each),
                (leaf.len() - 2, 1),
                "{what}: {} ranges on leaf {i}",
                each.len()
            );
            if let Some(far) = leaves.get(i + 5).filter(|l| l.len() >= 3) {
                let two = vec![
                    (leaf[0].clone(), leaf[2].clone()),
                    (far[0].clone(), far[2].clone()),
                ];
                assert_eq!(sweep(&two), (2, 2), "{what}: leaves {i} and {}", i + 5);
            }
            for m in 2..=5 {
                let Some(last) = leaves.get(i + m - 1).filter(|l| l.len() >= 2) else {
                    continue;
                };
                let span = vec![(leaf[0].clone(), last[last.len() - 1].clone())];
                let expect: usize = leaves[i..i + m].iter().map(Vec::len).sum::<usize>() - 2;
                assert_eq!(
                    sweep(&span),
                    (expect, m as u64),
                    "{what}: {m} leaves from {i}"
                );
            }
        }
    }
}

#[test]
fn packed_leaves_store_a_shared_prefix_once_and_read_the_same_without_one() {
    // Keys that share forty bytes: every leaf stores them once, and every
    // separator probe of `check` is shorter than that prefix.
    let long: Pairs = (0..200u32)
        .map(|i| {
            let mut k = vec![b'p'; 40];
            k.extend_from_slice(format!("{:04}", i * 7).as_bytes());
            (k, vec![i as u8; 40])
        })
        .collect();
    let f = build(long);
    let raw = leaves(&f);
    assert!(raw.len() > 8);
    assert!(raw.iter().all(|l| l.prefix.len() >= 40), "40 shared bytes");
    check(&f, 11, "long shared prefix");

    // Keys whose first byte already differs: no leaf with two records has a
    // prefix, and the leaf degenerates to offsets and whole keys.
    let none: Pairs = (0..=255u8)
        .map(|b| (vec![b, b'x', b ^ 0x5A], vec![b; 30]))
        .collect();
    let f = build(none);
    let raw = leaves(&f);
    assert!(raw.len() > 8);
    assert!(raw.iter().all(|l| l.keys.len() < 2 || l.prefix.is_empty()));
    check(&f, 12, "no shared prefix");

    // The empty key is a key: it forces an empty prefix on its leaf and is
    // found, scanned and counted like any other.
    let mut with_empty: Pairs = vec![(Vec::new(), b"nothing".to_vec())];
    with_empty.extend(variable_keys(60, 5));
    let f = build(with_empty);
    let raw = leaves(&f);
    assert!(raw[0].prefix.is_empty() && raw[0].keys[0].is_empty());
    assert!(raw[1..].iter().any(|l| !l.prefix.is_empty()));
    assert_eq!(f.packed.get(b"").unwrap().as_deref(), Some(&b"nothing"[..]));
    check(&f, 13, "stored empty key");
}
