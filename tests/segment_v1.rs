//! A format-v1 segment (slotted leaves, fixed-width records) still opens,
//! answers and checks, and the next compaction rewrites it as v2.
//!
//! `tests/fixtures/seg_v1/` is a small tiered index — one packed segment, a
//! live delta, one tombstone — written by the CLI of the commit *before*
//! segment format 2 (see the README beside it for the commands). The same
//! documents and operations, replayed here through this build, give the v2
//! index the fixture is compared with.
//!
//! The fixture is a manifest-era index too: `idx.vist.manifest` names its
//! segment, and its meta page reads `VISTIDX1`. Its first open moves the
//! list into the delta's aux tree with one commit, crash-safe at every file
//! operation, after the two redos of that era's open.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use vist_core::{IndexOptions, QueryOptions, VistIndex};
use vist_storage::testutil::TempDir;
use vist_storage::{crc32c, FaultMode, FaultVfs, FilePager, Pager, RealVfs};

const FILES: [&str; 5] = [
    "idx.vist",
    "idx.vist.manifest",
    "idx.vist.seg-1",
    "idx.vist.seg-1.wal",
    "idx.vist.wal",
];

/// The fourteen documents of the fixture's segment, in load order (the
/// files `seg/d00.xml` … `seg/d13.xml` of the README).
fn segment_docs() -> Vec<String> {
    let mut docs: Vec<String> = (0..12)
        .map(|i| {
            let author = if i % 3 == 0 { "David" } else { "Mary" };
            let year = 1998 + i % 4;
            format!(
                "<book id=\"b{i}\"><author>{author}</author><year>{year}</year>\
                 <title>T{i}</title></book>"
            )
        })
        .collect();
    docs.push("<p><s><l>boston</l></s><b><l>newyork</l></b></p>".into());
    docs.push("<article><author>Jane</author><cite><author>David</author></cite></article>".into());
    docs
}

/// Every query with the answer the *writing* binary gave on these files.
const ANSWERS: [(&str, &[u64]); 14] = [
    ("/book/author[text='David']", &[0, 6, 9]),
    ("//author", &[0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 13]),
    ("/book[year='2000']", &[2, 6, 10]),
    ("//l[text='boston']", &[12]),
    ("/p/*[l='newyork']", &[12]),
    ("/book", &[0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11]),
    ("//author[text='David']", &[0, 6, 9, 13]),
    ("/note/to", &[16]),
    ("/p//l", &[12, 15]),
    ("/article/cite/author", &[13]),
    ("/book[author='Mary'][year='1999']", &[1, 5]),
    ("/nosuch", &[]),
    // DocId scopes at their edges: document 0 ends on its `1998`, so its
    // posting is the first key of the final scope's own label; `/*` is the
    // one scope from label 0 to past the last posting.
    ("/book[year='1998']", &[0, 4, 8]),
    ("/*", &[0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 16]),
];

fn fixture_copy(dir: &TempDir) -> PathBuf {
    let from = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/seg_v1");
    for name in FILES {
        std::fs::copy(from.join(name), dir.file(name)).unwrap();
    }
    dir.file("idx.vist")
}

/// The fixture's history through this build: a v2 segment and a delta.
fn rebuilt(dir: &TempDir) -> VistIndex {
    let opts = IndexOptions {
        page_size: 512,
        ..IndexOptions::default()
    };
    let idx = VistIndex::create_file(dir.file("fresh.vist"), opts).unwrap();
    assert_eq!(idx.bulk_build(segment_docs()).unwrap().len(), 14);
    let a = "<book id=\"x1\"><author>Zed</author><year>2003</year></book>";
    assert_eq!(idx.insert_xml(a).unwrap(), 14);
    assert_eq!(idx.insert_xml("<p><s><l>chicago</l></s></p>").unwrap(), 15);
    idx.remove_document(3).unwrap();
    idx.remove_document(14).unwrap();
    assert_eq!(idx.insert_xml("<note><to>Tove</to></note>").unwrap(), 16);
    idx.flush().unwrap();
    idx
}

fn answers(idx: &VistIndex) -> Vec<Vec<u64>> {
    ANSWERS
        .iter()
        .map(|(q, _)| idx.query(q, &QueryOptions::default()).unwrap().doc_ids)
        .collect()
}

/// `(format version, segment bytes)` of the index's only segment.
fn segment(idx: &VistIndex) -> (u16, u64) {
    let (_, segs) = idx.tier_breakdown().unwrap();
    assert_eq!(segs.len(), 1);
    (segs[0].format_version, idx.stats().segment_bytes)
}

#[test]
fn a_v1_segment_opens_answers_like_v2_and_compacts_to_v2() {
    let dir = TempDir::new("segment-v1");
    let old = VistIndex::open_file(fixture_copy(&dir), 64).unwrap();
    let (version, v1_bytes) = segment(&old);
    assert_eq!(version, 1);
    let report = old.check().unwrap();
    for tree in ["dancestor", "sancestor", "docid", "documents", "stats"] {
        assert!(
            report.contains(&format!("segment 1 tree {tree:<9} ok")),
            "{report}"
        );
    }
    assert!(
        report.contains("(14 docs, 79 nodes, 48 dkeys, 1 tombstoned)"),
        "{report}"
    );

    let expected: Vec<Vec<u64>> = ANSWERS.iter().map(|(_, ids)| ids.to_vec()).collect();
    assert_eq!(answers(&old), expected, "v1 fixture");
    let new = rebuilt(&dir);
    let (version, v2_bytes) = segment(&new);
    assert_eq!(version, 2);
    assert!(v2_bytes < v1_bytes, "{v2_bytes} vs {v1_bytes}");
    assert_eq!(answers(&new), expected, "fresh v2 index");
    assert_eq!(old.document_ids().unwrap(), new.document_ids().unwrap());
    for id in old.document_ids().unwrap() {
        let xml = old.get_document_xml(id).unwrap();
        assert_eq!(xml, new.get_document_xml(id).unwrap(), "doc {id}");
    }
    // The planner's statistics decode too: estimates, actuals, probe and
    // engine counts of both are the same (what follows them in the report
    // are the pools' own hit counts).
    let plan = |idx: &VistIndex| {
        let expr = "/book[author='Mary'][year='1999']";
        let report = idx.explain(expr, &QueryOptions::default(), true).unwrap();
        let (plan, _pools) = report.split_once("pool:").expect("a pool section");
        assert!(plan.contains("plan (segment 1):") && plan.contains("est cost"));
        plan.to_string()
    };
    assert_eq!(plan(&old), plan(&new));

    // Nothing writes a v1 segment: compaction's output is v2, and smaller.
    old.compact().unwrap();
    let (version, compacted_bytes) = segment(&old);
    assert_eq!(version, 2);
    assert!(
        compacted_bytes < v1_bytes,
        "{compacted_bytes} vs {v1_bytes}"
    );
    assert_eq!(answers(&old), expected, "after compaction");
    old.check().unwrap();
    drop(old);
    let reopened = VistIndex::open_file(dir.file("idx.vist"), 64).unwrap();
    assert_eq!(segment(&reopened).0, 2);
    assert_eq!(answers(&reopened), expected, "reopened");
}

fn expected() -> Vec<Vec<u64>> {
    ANSWERS.iter().map(|(_, ids)| ids.to_vec()).collect()
}

/// Page 1 of the index file at `path`, its meta page, as a reopen reads it
/// (through the log), for `edit` to change and write back with a commit.
fn edit_meta(path: &Path, edit: impl FnOnce(&mut [u8])) -> Vec<u8> {
    let mut pager = FilePager::open(path).unwrap();
    let mut page = vec![0; pager.page_size()];
    pager.read(1, &mut page).unwrap();
    edit(&mut page);
    pager.write(1, &page).unwrap();
    pager.sync().unwrap();
    page
}

/// A manifest slot as a manifest-era build wrote it: the fixture's
/// generation 1 sits in slot 1, generation 2 would go to slot 0.
fn manifest_slot(generation: u64, delta_epoch: u64, ids: &[u64]) -> Vec<u8> {
    let mut slot = b"VISTMAN1".to_vec();
    slot.extend(generation.to_le_bytes());
    slot.extend(delta_epoch.to_le_bytes());
    slot.extend((ids.len() as u32).to_le_bytes());
    slot.extend(ids.iter().flat_map(|id| id.to_le_bytes()));
    slot.extend(crc32c(&slot).to_le_bytes());
    slot.resize(4096, 0);
    slot
}

#[test]
fn a_manifest_era_open_moves_the_segment_list_into_the_delta() {
    let dir = TempDir::new("manifest-era");
    let path = fixture_copy(&dir);
    drop(VistIndex::open_file(&path, 64).unwrap());
    for gone in ["idx.vist.manifest", "idx.vist.seg-1.wal"] {
        assert!(!dir.file(gone).exists(), "{gone}");
    }
    let meta = edit_meta(&path, |_| ());
    assert_eq!(&meta[..8], b"VISTIDX2");
    let idx = VistIndex::open_file(&path, 64).unwrap();
    assert_eq!(answers(&idx), expected());
    idx.check().unwrap();
}

/// A crash at any file operation of the first open leaves the
/// manifest-era file or the moved one; a real reopen answers the same.
#[test]
fn a_crash_anywhere_in_a_manifest_era_open_recovers() {
    let dir = TempDir::new("manifest-era-crash");
    let vfs = FaultVfs::new(Arc::new(RealVfs));
    let handle = vfs.handle();
    let path = fixture_copy(&dir);
    drop(VistIndex::open_at(Arc::new(vfs), &path, 64).unwrap());
    let total = handle.op_count();
    assert!(total > 10, "{total} file operations");
    for n in 0..total {
        let dir = TempDir::new("manifest-era-crash-at");
        let path = fixture_copy(&dir);
        let vfs = FaultVfs::new(Arc::new(RealVfs));
        vfs.handle().schedule(n, FaultMode::Crash, n);
        assert!(
            VistIndex::open_at(Arc::new(vfs), &path, 64).is_err(),
            "crash@{n}"
        );
        let idx = VistIndex::open_file(&path, 64).unwrap();
        assert_eq!(answers(&idx), expected(), "crash@{n}");
        idx.check()
            .unwrap_or_else(|e| panic!("crash@{n}: check failed: {e}"));
        assert!(!dir.file("idx.vist.manifest").exists(), "crash@{n}");
    }
}

/// The compaction redo: a manifest whose delta epoch is ahead of the
/// delta's was written by a compaction whose delta clear never reached
/// disk. The open clears the delta — its documents and its tombstone — and
/// the segment's fourteen documents are what is left, for good.
#[test]
fn a_manifest_era_open_redoes_a_compactions_delta_clear() {
    let dir = TempDir::new("manifest-era-clear");
    let path = fixture_copy(&dir);
    let manifest = dir.file("idx.vist.manifest");
    let mut bytes = std::fs::read(&manifest).unwrap();
    bytes[..4096].copy_from_slice(&manifest_slot(2, 1, &[1]));
    std::fs::write(&manifest, bytes).unwrap();
    let ids: Vec<u64> = (0..=13).collect();
    let idx = VistIndex::open_file(&path, 64).unwrap();
    assert_eq!(idx.document_ids().unwrap(), ids);
    drop(idx);
    let idx = VistIndex::open_file(&path, 64).unwrap();
    assert_eq!(idx.document_ids().unwrap(), ids, "reopened");
    // Document 3 is live again: its tombstone was the delta's.
    assert_eq!(answers(&idx)[0], [0, 3, 6, 9], "{}", ANSWERS[0].0);
}

/// The bulk-load reconcile: a segment whose ids reach past `next_doc` was
/// named before its load's meta bump was committed, so the open counts its
/// documents and moves `next_doc` past them.
#[test]
fn a_manifest_era_open_redoes_a_bulk_loads_count() {
    let dir = TempDir::new("manifest-era-reconcile");
    let path = fixture_copy(&dir);
    // The fixture counts 15 live documents, 14 of them loaded into the
    // segment from id 0; as the load's crash left it, it counts one.
    edit_meta(&path, |meta| {
        assert_eq!(&meta[..8], b"VISTIDX1");
        meta[36..44].copy_from_slice(&0u64.to_le_bytes()); // next_doc
        meta[94..102].copy_from_slice(&1u64.to_le_bytes()); // doc_count
    });
    let idx = VistIndex::open_file(&path, 64).unwrap();
    let counts = |idx: &VistIndex| (idx.doc_count(), idx.store().meta().next_doc);
    assert_eq!(counts(&idx), (15, 14));
    drop(idx);
    let idx = VistIndex::open_file(&path, 64).unwrap();
    assert_eq!(counts(&idx), (15, 14), "reopened");
    idx.check().unwrap();
}
