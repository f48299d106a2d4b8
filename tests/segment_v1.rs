//! A format-v1 segment (slotted leaves, fixed-width records) still opens,
//! answers and checks, and the next compaction rewrites it as v2.
//!
//! `tests/fixtures/seg_v1/` is a small tiered index — one packed segment, a
//! live delta, one tombstone — written by the CLI of the commit *before*
//! segment format 2 (see the README beside it for the commands). The same
//! documents and operations, replayed here through this build, give the v2
//! index the fixture is compared with.

use std::path::{Path, PathBuf};

use vist_core::{IndexOptions, QueryOptions, VistIndex};
use vist_storage::testutil::TempDir;

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
