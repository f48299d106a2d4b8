//! Streaming ingestion: the paper's XMARK break-down as an API.

use vist_core::{IndexOptions, QueryOptions, VistIndex};

#[test]
fn insert_records_splits_a_container_document() {
    let site = "<site>\
        <people>\
          <person id='p1'><name>Alice</name><address><city>Pocatello</city></address></person>\
          <person id='p2'><name>Bob</name></person>\
        </people>\
        <regions><europe>\
          <item id='i1' location='US'><mail><date>12/15/1999</date></mail></item>\
          <item id='i2' location='EU'><mail><date>01/01/2000</date></mail></item>\
        </europe></regions>\
    </site>";
    let idx = VistIndex::in_memory(IndexOptions::default()).unwrap();
    let ids = idx.insert_records(site, &["person", "item"]).unwrap();
    assert_eq!(ids.len(), 4);
    assert_eq!(idx.doc_count(), 4);

    let opts = QueryOptions::default();
    // Queries now address the records directly.
    let r = idx
        .query("/person/address/city[text='Pocatello']", &opts)
        .unwrap();
    assert_eq!(r.doc_ids.len(), 1);
    let r = idx
        .query("/item[location='US']/mail/date[text='12/15/1999']", &opts)
        .unwrap();
    assert_eq!(r.doc_ids.len(), 1);
    let r = idx.query("//date", &opts).unwrap();
    assert_eq!(r.doc_ids.len(), 2);
    // Records are independently removable.
    idx.remove_document(ids[0]).unwrap();
    let r = idx.query("/person", &opts).unwrap();
    assert_eq!(r.doc_ids.len(), 1);
}

#[test]
fn insert_records_rejects_malformed_container() {
    let idx = VistIndex::in_memory(IndexOptions::default()).unwrap();
    assert!(idx
        .insert_records("<site><person></site>", &["person"])
        .is_err());
}

/// A batch whose later documents run out of scope below the nodes an
/// earlier document of the batch allocated. With λ = 2^40 every scope below
/// depth three is tight: it holds exactly the rest of the document that
/// allocated it. A node the walk allocates always has room for the rest of
/// its own document, so a document never underflows directly below its own
/// nodes; the next one does, reading the node's record — written once, when
/// the first document's walk ended — and borrowing from an ancestor.
#[test]
fn batch_underflows_below_nodes_an_earlier_document_allocated() {
    let docs = [
        "<a><b><c><d><e><f/></e></d></c></b></a>",
        "<a><b><c><d><e><f><g/></f></e></d></c></b></a>",
        "<a><b><c><d><e><f><g><h>1</h></g></f></e></d></c></b></a>",
        "<a><b><c><d><x/></d></c></b></a>",
    ];
    let queries = [
        "//g",
        "/a/b/c/d/e/f",
        "//f/g/h[text='1']",
        "/a//d/x",
        "//e",
        "/a/b/c/d",
        "//d[e]",
        "/a/b/c/d/e/f/g/h",
    ];
    let dir = vist_storage::testutil::TempDir::new("ingestion-underflow");
    let path = dir.file("idx");
    let opts = IndexOptions {
        lambda: 1 << 40,
        ..IndexOptions::default()
    };
    let mut naive = vist_core::NaiveIndex::default();
    for xml in docs {
        naive.insert_document(&vist_xml::parse(xml).unwrap());
    }
    let agree = |idx: &VistIndex, naive: &mut vist_core::NaiveIndex, when: &str| {
        idx.check()
            .unwrap_or_else(|e| panic!("{when}: check failed: {e}"));
        let opts = QueryOptions::default();
        for q in queries {
            let want = naive.query(q, &opts).unwrap();
            assert!(!want.is_empty(), "{q} matches nothing");
            assert_eq!(idx.query(q, &opts).unwrap().doc_ids, want, "{when}: {q}");
        }
    };

    let idx = VistIndex::create_file(&path, opts).unwrap();
    idx.insert_batch(&docs, 1).unwrap();
    assert!(idx.stats().deep_borrows >= 2, "{:?}", idx.stats());
    agree(&idx, &mut naive, "after the batch");
    drop(idx);
    let idx = VistIndex::open_file(&path, 64).unwrap();
    assert!(idx.stats().deep_borrows >= 2);
    agree(&idx, &mut naive, "after reopen");
}
