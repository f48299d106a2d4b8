//! Pages of a packed segment that pass the page checksum but are wrong.
//!
//! Opening a packed tree flattens its internal levels into memory, and that
//! flatten is the only code that ever reads them. Each test here writes a
//! three-level segment to a file, overwrites a few bytes of one frame,
//! re-seals the frame's CRC32C trailer (as a buggy writer would, not bit
//! rot) and expects `SegmentReader::tree` to return `Error::Corrupt` naming
//! the page and the field — no panic, no unbounded descent. What the flatten
//! does not read (the leaves) is for the probes that reach the damaged leaf
//! and for `PackedTree::verify` to report, the same way: the last tests
//! damage the directory, the prefix length and a cell header of a packed
//! leaf.
//!
//! The delta's slotted leaves get the same treatment one layer up: a
//! record whose key or value is a byte short of what the delta's writers
//! produce, in a cell that is itself well-formed, met by `VistIndex::query`
//! (the edges tree's, by `VistIndex::insert_xml`) — `Error::Corrupt` naming
//! the delta's tree, never a panic.

use std::ops::{Bound, ControlFlow};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use vist_btree::{PackedTree, SegmentReader, SegmentWriter};
use vist_core::{IndexOptions, QueryOptions, VistIndex};
use vist_storage::testutil::TempDir;
use vist_storage::{BufferPool, Crc32c, Error, FilePager, PageId, Result, PAGE_TRAILER};

const PS: usize = 512;
const FRAME: usize = PS + PAGE_TRAILER;
const ENTRIES: u32 = 420;
/// The segment header is the first page after the pager's own.
const HEADER: PageId = 1;
/// Node header: kind byte, forward link / leftmost child, back link.
const NODE_HDR: usize = 10;

/// A three-level tree of 24-byte keys in a file of its own.
fn segment(dir: &TempDir) -> PathBuf {
    let path = dir.file("segment");
    let pool = Arc::new(BufferPool::with_capacity(
        FilePager::create(&path, PS).unwrap(),
        256,
    ));
    let mut writer = SegmentWriter::create(Arc::clone(&pool)).unwrap();
    assert_eq!(writer.header_page(), HEADER);
    writer
        .add_tree((0..ENTRIES).map(|i| {
            let mut k = b"dkey-id+scope-prefix".to_vec();
            k.extend_from_slice(&i.to_be_bytes());
            // Packed leaves store the twenty shared bytes once; values this
            // long keep a leaf at six records and the tree at three levels.
            (k, vec![i as u8; 64])
        }))
        .unwrap();
    writer.finish(&[]).unwrap();
    pool.flush().unwrap();
    path
}

fn open(path: &Path) -> Result<PackedTree> {
    let pool = Arc::new(BufferPool::with_capacity(FilePager::open(path)?, 256));
    SegmentReader::open(pool, HEADER)?.tree(0)
}

fn payload(path: &Path, id: PageId) -> Vec<u8> {
    let file = std::fs::read(path).unwrap();
    file[id as usize * FRAME..id as usize * FRAME + PS].to_vec()
}

/// Overwrite payload bytes of frame `id` at `at` and re-seal its trailer.
/// Returns `id`, the page an error about the damage has to name.
fn patch(path: &Path, id: PageId, at: usize, bytes: &[u8]) -> PageId {
    let mut file = std::fs::read(path).unwrap();
    let frame = &mut file[id as usize * FRAME..(id as usize + 1) * FRAME];
    frame[at..at + bytes.len()].copy_from_slice(bytes);
    let mut c = Crc32c::new();
    c.update(&id.to_le_bytes()).update(&frame[..PS]);
    frame[PS..PS + 4].copy_from_slice(&c.finish().to_le_bytes());
    std::fs::write(path, file).unwrap();
    id
}

fn u32_at(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().unwrap())
}

/// Where the pieces of internal page `id` lie in its payload.
struct Inner {
    id: PageId,
    leftmost: PageId,
    /// `(directory entry offset, cell offset, key length, child)` per slot.
    cells: Vec<(usize, usize, usize, PageId)>,
}

fn inner(path: &Path, id: PageId) -> Inner {
    let buf = payload(path, id);
    assert_eq!(buf[0], 2, "page {id} is not internal");
    let slots = u16::from_le_bytes([buf[NODE_HDR], buf[NODE_HDR + 1]]) as usize;
    let cells = (0..slots)
        .map(|i| {
            let dir = NODE_HDR + 6 + 4 * i;
            let cell = NODE_HDR + u16::from_le_bytes([buf[dir], buf[dir + 1]]) as usize;
            let klen = u16::from_le_bytes([buf[cell], buf[cell + 1]]) as usize;
            (dir, cell, klen, u32_at(&buf, cell + 2))
        })
        .collect();
    Inner {
        id,
        leftmost: u32_at(&buf, 1),
        cells,
    }
}

/// The tree's root and its first two children, all internal.
fn top(path: &Path) -> (Inner, Inner, Inner) {
    let root = inner(path, u32_at(&payload(path, HEADER), 12));
    assert!(root.cells.len() >= 2, "root has two separators");
    let first = inner(path, root.leftmost);
    let second = inner(path, root.cells[0].3);
    (root, first, second)
}

fn assert_corrupt<T>(result: Result<T>, names: &[&str]) {
    match result {
        Err(Error::Corrupt(msg)) => {
            for name in names {
                assert!(msg.contains(name), "{msg:?} does not name {name:?}");
            }
        }
        Err(other) => panic!("expected Corrupt naming {names:?}, got {other:?}"),
        Ok(_) => panic!("expected Corrupt naming {names:?}, got Ok"),
    }
}

/// Apply `damage` to a fresh copy of the segment; the open must fail naming
/// the page `damage` returns and every string of `names`.
fn expect_open_fails(names: &[&str], damage: impl FnOnce(&Path, &Inner, &Inner) -> PageId) {
    let dir = TempDir::new("packed-corrupt");
    let path = segment(&dir);
    let (root, _, second) = top(&path);
    let page = format!("page {}", damage(&path, &root, &second));
    let mut names = names.to_vec();
    names.push(&page);
    assert_corrupt(open(&path), &names);
}

#[test]
fn undamaged_segment_opens_and_verifies() {
    let dir = TempDir::new("packed-clean");
    let path = segment(&dir);
    let tree = open(&path).unwrap();
    assert_eq!(tree.tree_stats().unwrap().height, 3);
    assert_eq!(tree.len().unwrap(), u64::from(ENTRIES));
    tree.verify().unwrap();
    // One entry per leaf, and a small fraction of the file.
    let leaves = tree.tree_stats().unwrap().leaf_pages;
    assert!(tree.fence_bytes() >= 8 * leaves);
    assert!(tree.fence_bytes() < tree.pool().store_bytes() / 8);
}

#[test]
fn short_cell_and_key_length_past_the_cell() {
    expect_open_fails(&["cell 0", "shorter than the 6-byte"], |path, root, _| {
        patch(path, root.id, root.cells[0].0 + 2, &4u16.to_le_bytes())
    });
    expect_open_fails(&["cell 1", "key length 65535"], |path, root, _| {
        patch(path, root.id, root.cells[1].1, &u16::MAX.to_le_bytes())
    });
    // A directory entry that points outside the page.
    expect_open_fails(&["slot 0"], |path, root, _| {
        patch(path, root.id, root.cells[0].0, &u16::MAX.to_le_bytes())
    });
}

#[test]
fn child_ids_outside_the_file() {
    for bad in [0, u32::MAX, 9_999_999] {
        expect_open_fails(&["cell 0", &format!("page id {bad}")], |path, root, _| {
            patch(path, root.id, root.cells[0].1 + 2, &bad.to_le_bytes())
        });
        expect_open_fails(
            &["leftmost child", &format!("page id {bad}")],
            |path, _, second| patch(path, second.id, 1, &bad.to_le_bytes()),
        );
    }
}

#[test]
fn child_that_points_back_at_an_ancestor() {
    // Before the flatten, a descent through either of these never ended.
    expect_open_fails(&["cell 0", "already reached"], |path, root, _| {
        patch(path, root.id, root.cells[0].1 + 2, &root.id.to_le_bytes())
    });
    expect_open_fails(
        &["leftmost child", "already reached"],
        |path, root, second| patch(path, second.id, 1, &root.id.to_le_bytes()),
    );
    // A page two parents share is no tree either.
    expect_open_fails(&["cell 1", "already reached"], |path, root, second| {
        patch(path, root.id, root.cells[1].1 + 2, &second.id.to_le_bytes())
    });
}

#[test]
fn leaves_at_uneven_depth() {
    // The root's second child replaced by one of its own leaves.
    expect_open_fails(&["a leaf at depth 2"], |path, root, second| {
        let leaf = second.leftmost;
        patch(path, root.id, root.cells[0].1 + 2, &leaf.to_le_bytes());
        leaf
    });
    // The other way round — an internal page where the array expects a leaf
    // — is not seen by the flatten, which reads no leaf but the leftmost;
    // the probe that reaches it and `verify` report it.
    let dir = TempDir::new("packed-deep");
    let path = segment(&dir);
    let (_, _, second) = top(&path);
    patch(&path, second.cells[0].3, 0, &[2]);
    let tree = open(&path).unwrap();
    let mut key = b"dkey-id+scope-prefix".to_vec();
    key.extend_from_slice(&(ENTRIES - 1).to_be_bytes());
    assert!(tree.contains(&key).unwrap(), "other leaves still answer");
    let names = [&*format!("page {}", second.cells[0].3), "expected a leaf"];
    assert_corrupt(tree.len(), &names);
    assert_corrupt(tree.verify(), &names);
}

#[test]
fn separators_that_do_not_increase_across_the_level() {
    // Within one page …
    expect_open_fails(&["cell 1", "does not lie above"], |path, root, _| {
        let (_, cell, klen, _) = root.cells[1];
        patch(path, root.id, cell + 6, &vec![0; klen])
    });
    // … and across a page boundary: the first separator of the second page
    // of a level must lie above the fence its parent gave that page.
    expect_open_fails(&["cell 0", "does not lie above"], |path, _, second| {
        let (_, cell, klen, _) = second.cells[0];
        patch(path, second.id, cell + 6, &vec![0; klen])
    });
}

#[test]
fn bad_kind_byte_on_an_internal_page() {
    expect_open_fails(&["kind byte"], |path, _, second| {
        patch(path, second.id, 0, &[7])
    });
}

#[test]
fn verify_reports_a_mislinked_leaf_chain_and_a_wrong_entry_count() {
    let dir = TempDir::new("packed-chain");
    let path = segment(&dir);
    let (_, first, _) = top(&path);
    // Leaf 0 linked straight to leaf 2: the flatten reads no leaf links, so
    // the tree opens, and a full scan silently skips leaf 1's records.
    let (leaf0, leaf2) = (first.leftmost, first.cells[1].3);
    patch(&path, leaf0, 1, &leaf2.to_le_bytes());
    let tree = open(&path).unwrap();
    assert!(tree.len().unwrap() < u64::from(ENTRIES));
    assert_corrupt(tree.verify(), &[&*format!("leaf {leaf0}"), "links"]);

    let dir = TempDir::new("packed-count");
    let path = segment(&dir);
    let tree = open(&path).unwrap();
    tree.verify().unwrap();
    // Entries of tree 0 follow its root in the header's tree table.
    patch(&path, HEADER, 16, &u64::from(ENTRIES + 1).to_le_bytes());
    assert_corrupt(
        open(&path).unwrap().verify(),
        &["420 entries in the leaves", "recorded 421"],
    );
}

/// Where the pieces of packed leaf `id` lie in its payload (see
/// `vist_btree`'s `leaf` module: `n u16 ‖ p u16 ‖ u16 × (n + 1) offsets`
/// after the node header, offsets counted from it; then the prefix, then
/// `varint suffix_len ‖ varint value_len ‖ suffix ‖ value` cells).
struct Leaf {
    id: PageId,
    /// Payload offset of the prefix length.
    prefix_len_at: usize,
    /// Payload offsets of directory entry 1 and of the cell it points to.
    dir1_at: usize,
    cell1_at: usize,
    /// Key of cell 1.
    key1: Vec<u8>,
}

/// The second leaf of the tree: not the one the flatten reads to find the
/// leaf level, so the damage is met by probes only.
fn second_leaf(path: &Path) -> Leaf {
    let (_, first, _) = top(path);
    let id = first.cells[0].3;
    let buf = payload(path, id);
    assert_eq!(buf[0], 3, "page {id} is not a packed leaf");
    let u16_at = |at: usize| u16::from_le_bytes([buf[at], buf[at + 1]]) as usize;
    let (n, p) = (u16_at(NODE_HDR), u16_at(NODE_HDR + 2));
    assert!(n >= 3 && p >= 20, "{n} records sharing {p} bytes");
    let dir1_at = NODE_HDR + 4 + 2;
    let cell1_at = NODE_HDR + u16_at(dir1_at);
    let prefix_at = NODE_HDR + 4 + 2 * (n + 1);
    let suffix_len = buf[cell1_at] as usize;
    let mut key1 = buf[prefix_at..prefix_at + p].to_vec();
    key1.extend_from_slice(&buf[cell1_at + 2..cell1_at + 2 + suffix_len]);
    assert_eq!(key1.len(), 24);
    Leaf {
        id,
        prefix_len_at: NODE_HDR + 2,
        dir1_at,
        cell1_at,
        key1,
    }
}

/// Apply `damage` to the second leaf of a fresh copy of the segment. The
/// tree still opens; a point probe of a key on that leaf, a range over it
/// and `verify` must each fail naming the leaf and every string of `names`.
fn expect_leaf_reads_fail(names: &[&str], damage: impl FnOnce(&Path, &Leaf)) {
    let dir = TempDir::new("packed-leaf");
    let path = segment(&dir);
    let leaf = second_leaf(&path);
    damage(&path, &leaf);
    let tree = open(&path).unwrap();
    let page = format!("page {}", leaf.id);
    let mut names = names.to_vec();
    names.push(&page);
    assert_corrupt(tree.get_with(&leaf.key1, |_| ()), &names);
    let range = (Bound::Included(&leaf.key1[..]), Bound::Unbounded);
    assert_corrupt(
        tree.for_each_in(range, |_, _| ControlFlow::Continue(())),
        &names,
    );
    assert_corrupt(tree.verify(), &names);
    // Leaves the damage does not touch still answer.
    let mut last = b"dkey-id+scope-prefix".to_vec();
    last.extend_from_slice(&(ENTRIES - 1).to_be_bytes());
    assert!(tree.contains(&last).unwrap());
}

#[test]
fn packed_leaf_directory_offsets_past_the_page_or_out_of_order() {
    // Entry 1 is where cell 0 ends and cell 1 starts: whichever of the two
    // a read meets first reports it.
    expect_leaf_reads_fail(&["leaf cell", "outside the page"], |path, leaf| {
        patch(path, leaf.id, leaf.dir1_at, &u16::MAX.to_le_bytes());
    });
    // Entry 2 just below entry 1: cell 1 runs backwards.
    expect_leaf_reads_fail(&["cell 1", "unordered"], |path, leaf| {
        let buf = payload(path, leaf.id);
        let start = u16::from_le_bytes([buf[leaf.dir1_at], buf[leaf.dir1_at + 1]]);
        patch(path, leaf.id, leaf.dir1_at + 2, &(start - 1).to_le_bytes());
    });
    // An offset that points back into the directory.
    expect_leaf_reads_fail(&["leaf cell", "outside the page"], |path, leaf| {
        patch(path, leaf.id, leaf.dir1_at, &4u16.to_le_bytes());
    });
}

#[test]
fn packed_leaf_prefix_longer_than_the_page() {
    expect_leaf_reads_fail(&["prefix of 60000 byte(s)"], |path, leaf| {
        patch(path, leaf.id, leaf.prefix_len_at, &60_000u16.to_le_bytes());
    });
    // So is a record count whose directory alone overruns the page.
    expect_leaf_reads_fail(&["directory of 65535 cell(s)"], |path, leaf| {
        patch(path, leaf.id, NODE_HDR, &u16::MAX.to_le_bytes());
    });
}

#[test]
fn packed_leaf_cell_lengths_past_the_cell_and_an_over_long_varint() {
    expect_leaf_reads_fail(&["cell 1", "suffix length 100"], |path, leaf| {
        patch(path, leaf.id, leaf.cell1_at, &[100]);
    });
    expect_leaf_reads_fail(&["cell 1", "value length 3"], |path, leaf| {
        patch(path, leaf.id, leaf.cell1_at + 1, &[3]);
    });
    // A length spelt with a trailing zero group: no encoder writes it.
    expect_leaf_reads_fail(&["cell 1", "malformed length varint"], |path, leaf| {
        patch(path, leaf.id, leaf.cell1_at, &[0x84, 0x00]);
    });
    // One that never ends inside the cell.
    expect_leaf_reads_fail(&["cell 1", "malformed length varint"], |path, leaf| {
        patch(path, leaf.id, leaf.cell1_at, &[0xFF; 70]);
    });
}

/// In every slotted leaf of the delta file at `path`, rewrite the length
/// header of each cell whose key and value lengths are `from` to `to` (no
/// longer in sum: the cell still holds its record, the record is not one a
/// writer of the delta produces), and re-seal the frames. Returns how many
/// cells were rewritten.
fn shorten_delta_records(path: &Path, page_size: usize, from: (u16, u16), to: (u16, u16)) -> usize {
    shorten_delta_records_where(path, page_size, from, to, |_| true)
}

/// [`shorten_delta_records`] of the cells whose whole key `pick` accepts.
fn shorten_delta_records_where(
    path: &Path,
    page_size: usize,
    from: (u16, u16),
    to: (u16, u16),
    pick: impl Fn(&[u8]) -> bool,
) -> usize {
    assert!(from.0 + from.1 >= to.0 + to.1);
    // A key cut short sorts where its first bytes put it. It is still met
    // by the probe that would have met the whole key when those bytes alone
    // place it after the probe's start: when they are not all zero past the
    // eight of the leading id. (An aux key cut inside its id is met by the
    // scan of its tag byte.)
    let still_met =
        |key: &[u8]| to.0 == from.0 || key.len() <= 8 || key[8..].iter().any(|&b| b != 0);
    let frame_len = page_size + PAGE_TRAILER;
    let mut file = std::fs::read(path).unwrap();
    let mut rewritten = 0;
    for id in 1..file.len() / frame_len {
        let frame = &mut file[id * frame_len..(id + 1) * frame_len];
        if frame[0] != 1 {
            continue; // not a slotted leaf
        }
        let u16_at = |buf: &[u8], at: usize| u16::from_le_bytes([buf[at], buf[at + 1]]);
        let mut touched = false;
        for slot in 0..usize::from(u16_at(frame, NODE_HDR)) {
            let cell = NODE_HDR + usize::from(u16_at(frame, NODE_HDR + 6 + 4 * slot));
            if (u16_at(frame, cell), u16_at(frame, cell + 2)) == from
                && still_met(&frame[cell + 4..cell + 4 + usize::from(to.0)])
                && pick(&frame[cell + 4..cell + 4 + usize::from(from.0)])
            {
                frame[cell..cell + 2].copy_from_slice(&to.0.to_le_bytes());
                frame[cell + 2..cell + 4].copy_from_slice(&to.1.to_le_bytes());
                touched = true;
                rewritten += 1;
            }
        }
        if touched {
            let mut c = Crc32c::new();
            c.update(&(id as u32).to_le_bytes())
                .update(&frame[..page_size]);
            frame[page_size..page_size + 4].copy_from_slice(&c.finish().to_le_bytes());
        }
    }
    std::fs::write(path, file).unwrap();
    rewritten
}

#[test]
fn delta_records_a_byte_short_are_corrupt_not_a_panic() {
    const QUERIES: [&str; 3] = ["/r/a[text='3']", "//c", "/r[a='1']/b/c"];
    // (tree the error names, lengths the tree's writer produces, damaged).
    for (tree, from, to) in [
        ("sancestor", (24, 40), (24, 39)), // short value: `size ‖ next ‖ k`
        ("sancestor", (24, 40), (23, 41)), // short key: `dkey-id ‖ n`
        ("docid", (24, 0), (23, 1)),       // short key: `n ‖ doc-id`
    ] {
        let dir = TempDir::new("delta-short-record");
        let path = dir.file("idx.vist");
        let opts = IndexOptions::default();
        let idx = VistIndex::create_file(&path, opts.clone()).unwrap();
        for i in 0..40 {
            idx.insert_xml(&format!("<r><a>{}</a><b><c>{}</c></b></r>", i % 5, i % 3))
                .unwrap();
        }
        let answers: Vec<_> = QUERIES
            .iter()
            .map(|q| idx.query(q, &QueryOptions::default()).unwrap().doc_ids)
            .collect();
        assert!(answers.iter().all(|ids| !ids.is_empty()));
        idx.flush().unwrap();
        drop(idx);

        let n = shorten_delta_records(&path, opts.page_size, from, to);
        assert!(n > 10, "{tree}: {n} records of shape {from:?}");
        let named =
            |msg: &str| msg.contains(&format!("delta: {tree} tree")) && msg.contains("key [");
        // The open decodes the DocId tree into the postings column, so a cut
        // posting fails the open; the S-Ancestor tree is read by queries.
        let idx = match VistIndex::open_file(&path, opts.cache_pages) {
            Err(vist_core::Error::Corrupt(msg)) if tree == "docid" => {
                assert!(named(&msg), "{tree} {to:?}: open: {msg}");
                continue;
            }
            Ok(idx) if tree != "docid" => idx,
            other => panic!("{tree} {to:?}: open: {:?}", other.map(|_| ())),
        };
        for q in QUERIES {
            match idx.query(q, &QueryOptions::default()) {
                Err(vist_core::Error::Corrupt(msg)) => {
                    assert!(named(&msg), "{tree} {to:?}: {q}: {msg}");
                }
                other => panic!("{tree} {to:?}: {q}: {:?}", other.map(|r| r.doc_ids)),
            }
        }
    }
}

/// The aux tag of a live segment's record.
const AUX_SEGMENT: u8 = 7;

#[test]
fn aux_keys_cut_inside_their_id_are_corrupt_not_a_panic() {
    // (lengths the aux tree's writer produces, damaged): a stored document's
    // chunk key `tag ‖ doc-id ‖ chunk` over its 16 bytes of XML, and a
    // tombstone's `tag ‖ doc-id`. A live segment's `tag ‖ id` has the
    // tombstone's shape; the open reads it, and a cut one is the last case.
    for (from, to) in [((13, 16), (5, 16)), ((9, 0), (3, 0))] {
        let dir = TempDir::new("delta-short-aux");
        let path = dir.file("idx.vist");
        let opts = IndexOptions::default();
        let idx = VistIndex::create_file(&path, opts.clone()).unwrap();
        // A segment for tombstones to mask, the rest of the documents in
        // the delta, all of one length.
        let docs: Vec<String> = (0..40).map(|i| format!("<r><a>{i:02}</a></r>")).collect();
        idx.bulk_build(&docs[..20]).unwrap();
        for xml in &docs[20..] {
            idx.insert_xml(xml).unwrap();
        }
        for id in 0..12 {
            idx.remove_document(id).unwrap();
        }
        assert_eq!(idx.document_ids().unwrap().len(), 28);
        assert_eq!(idx.stats().tombstones, 12);
        idx.flush().unwrap();
        drop(idx);

        let tombstone = |key: &[u8]| key[0] != AUX_SEGMENT;
        let n = shorten_delta_records_where(&path, opts.page_size, from, to, tombstone);
        assert!(n > 10, "{n} records of shape {from:?}");
        let idx = VistIndex::open_file(&path, opts.cache_pages).unwrap();
        // `stats()` has no error to return: it must not panic.
        assert_eq!(idx.stats().segments, 1);
        assert!(idx.check().is_err());
        // The live documents are the DocId entries less the tombstones, so
        // only a cut tombstone is met by `document_ids`; a compaction meets
        // both, the chunk keys when it copies the stored text.
        let tombstones_cut = from.0 == 9;
        let aux_error = |msg: &str| msg.contains("delta: aux tree") && msg.contains("key [");
        match idx.document_ids() {
            Ok(ids) if !tombstones_cut => assert_eq!(ids.len(), 28),
            Err(vist_core::Error::Corrupt(msg)) if tombstones_cut => {
                assert!(aux_error(&msg), "{to:?}: document_ids: {msg}");
            }
            other => panic!("{to:?}: document_ids: {other:?}"),
        }
        match idx.compact() {
            Err(vist_core::Error::Corrupt(msg)) => {
                let want = if tombstones_cut {
                    aux_error(&msg)
                } else {
                    msg.contains("document 20 has no stored text")
                };
                assert!(want, "{to:?}: compact: {msg}");
            }
            other => panic!("{to:?}: compact: {other:?}"),
        }
        drop(idx);
        // The live segment's record, cut the same way: the open is Corrupt.
        let segment = |key: &[u8]| key[0] == AUX_SEGMENT;
        let n = shorten_delta_records_where(&path, opts.page_size, (9, 0), (3, 0), segment);
        assert_eq!(n, 1, "{to:?}: live-segment records");
        match VistIndex::open_file(&path, opts.cache_pages) {
            Err(vist_core::Error::Corrupt(msg)) => assert!(aux_error(&msg), "{to:?}: open: {msg}"),
            other => panic!("{to:?}: open: {:?}", other.err()),
        }
    }
}

#[test]
fn a_delta_dkey_id_a_byte_short_is_corrupt_not_a_panic() {
    // D-Ancestor values are the only 8-byte values of the delta; their keys
    // vary in length, so the cells are found by the value alone.
    let dir = TempDir::new("delta-short-dkid");
    let path = dir.file("idx.vist");
    let opts = IndexOptions::default();
    let idx = VistIndex::create_file(&path, opts.clone()).unwrap();
    idx.insert_xml("<r><a>1</a></r>").unwrap();
    idx.flush().unwrap();
    drop(idx);
    let mut n = 0;
    for klen in 1..64 {
        n += shorten_delta_records(&path, opts.page_size, (klen, 8), (klen, 7));
    }
    assert!(n >= 3, "{n} D-Ancestor records");
    let idx = VistIndex::open_file(&path, opts.cache_pages).unwrap();
    for q in ["/r/a", "//a[text='1']"] {
        match idx.query(q, &QueryOptions::default()) {
            Err(vist_core::Error::Corrupt(msg)) => {
                assert!(msg.contains("delta: dancestor tree"), "{q}: {msg}");
            }
            other => panic!("{q}: {:?}", other.map(|r| r.doc_ids)),
        }
    }
}

#[test]
fn a_delta_edge_a_byte_short_is_corrupt_not_a_panic() {
    // Trie edges are the only 24-byte keys with a 16-byte value (the child's
    // label), and only an insert walks them.
    let dir = TempDir::new("delta-short-edge");
    let path = dir.file("idx.vist");
    let opts = IndexOptions::default();
    let idx = VistIndex::create_file(&path, opts.clone()).unwrap();
    for i in 0..40 {
        idx.insert_xml(&format!("<r><a>{}</a><b><c>{}</c></b></r>", i % 5, i % 3))
            .unwrap();
    }
    idx.flush().unwrap();
    drop(idx);
    let n = shorten_delta_records(&path, opts.page_size, (24, 16), (24, 15));
    assert!(n > 10, "{n} edge records");
    let idx = VistIndex::open_file(&path, opts.cache_pages).unwrap();
    match idx.insert_xml("<r><a>1</a><b><c>2</c></b></r>") {
        Err(vist_core::Error::Corrupt(msg)) => {
            assert!(
                msg.contains("delta: edges tree") && msg.contains("key ["),
                "{msg}"
            );
        }
        other => panic!("{other:?}"),
    }
}
