//! A probe budget for the match engine, so a slide back from set-at-a-time
//! matching to one S-Ancestor probe a partial match, to one DocId range
//! jump a merged scope, or to expanding partial matches that the label
//! semi-join proves cannot complete, fails in tier-1 without running the
//! benchmark.
//!
//! Builds the benchmark's smoke corpus (2,000 DBLP-like + 1,200 XMARK-like
//! records, the generators' fixed seeds; nine tenths in one segment, the
//! rest in the delta, like the benchmark's base index), runs the paper's
//! eight Table-3 queries once and holds the three counts the engine is
//! judged by — pages asked of the buffer pools, S-Ancestor sweeps and match
//! work items — to thresholds about 10 % above what the engine measures (in
//! the comments below). Both are exact counts: the same corpus, queries and code give the
//! same numbers on every host.

use vist_core::{IndexOptions, QueryOptions, VistIndex};
use vist_datagen::{dblp, xmark};
use vist_storage::testutil::TempDir;
use vist_xml::Document;

#[test]
fn table3_pool_fetches_and_sancestor_sweeps_stay_in_budget() {
    let mut docs: Vec<Document> = dblp::documents(2_000, 42);
    docs.extend(xmark::documents(1_200, 43));
    let xmls: Vec<String> = docs.iter().map(Document::to_xml).collect();
    let (segment, delta) = xmls.split_at(xmls.len() * 9 / 10);

    let dir = TempDir::new("probe-budget");
    let idx = VistIndex::create_file(dir.file("idx.vist"), IndexOptions::default()).unwrap();
    idx.bulk_build(segment).unwrap();
    for xml in delta {
        idx.insert_xml(xml).unwrap();
    }
    assert_eq!(idx.stats().segments, 1, "one segment and a delta");

    let (mut fetches, mut sweeps, mut work, mut hits) = (0, 0, 0, 0);
    for (name, q) in dblp::table3_queries()
        .into_iter()
        .chain(xmark::table3_queries())
    {
        let r = idx.query(&q, &QueryOptions::default()).unwrap();
        let s = r.stats;
        println!(
            "{name}: {} hits, {} pool fetches, {} sweeps, {} work items",
            r.doc_ids.len(),
            s.io_pool_hits + s.io_pool_misses,
            s.sancestor_scans,
            s.work_items
        );
        fetches += s.io_pool_hits + s.io_pool_misses;
        sweeps += s.sancestor_scans;
        work += s.work_items;
        hits += r.doc_ids.len();
    }
    println!(
        "Σ pool fetches {fetches}, Σ S-Ancestor sweeps {sweeps}, Σ work items {work}, Σ hits {hits}"
    );
    assert!(hits > 500, "the queries found little: {hits}");
    // Measured 396 and 105 (614 and 126 before the label semi-join, whose
    // label collection the fetches include). A segment's sweeps read its
    // S-Ancestor runs and the DocId stage each tier's postings column, and
    // neither fetches a page; with the segment's sweeps on its S-Ancestor
    // tree the fetches were 488, with the multi-range cursor over the DocId
    // tree 512 (threshold 675 then), and with one DocId range jump a merged
    // scope 859 (threshold 945); with one probe a partial match the two read
    // 15,492 and 6,688.
    assert!(fetches <= 396, "Σ pool fetches of Q1–Q8: {fetches}");
    assert!(sweeps <= 139, "Σ S-Ancestor sweeps of Q1–Q8: {sweeps}");
    // Measured 1,267 with the label semi-join, 3,934 without: Q5–Q8 expand
    // every partial match of their unselective prefix (154, 1,216, 730 and
    // 670 work items) where they now expand 5, 43, 10 and 45.
    assert!(work <= 1_400, "Σ work items of Q1–Q8: {work}");
}
