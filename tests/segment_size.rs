//! A size budget for the segment format, so a format regression fails in
//! tier-1 without running the benchmark.
//!
//! Bulk-builds the benchmark's smoke corpus (2,000 DBLP-like + 1,200
//! XMARK-like records, the generators' fixed seeds) into one segment at the
//! benchmark's page size and holds the two numbers the format is judged by
//! to thresholds about 10 % above what format v2 measured when it was
//! introduced (in the comments below; v1 read 7.2969 and 73.157).

use vist_core::{IndexOptions, VistIndex};
use vist_datagen::{dblp, xmark};
use vist_storage::testutil::TempDir;
use vist_xml::Document;

#[test]
fn segment_bytes_per_xml_byte_and_sancestor_leaf_bytes_per_entry_stay_in_budget() {
    let mut docs: Vec<Document> = dblp::documents(2_000, 42);
    docs.extend(xmark::documents(1_200, 43));
    let xmls: Vec<String> = docs.iter().map(Document::to_xml).collect();
    let xml_bytes: u64 = xmls.iter().map(|x| x.len() as u64).sum();

    let dir = TempDir::new("segment-size");
    let idx = VistIndex::create_file(dir.file("idx.vist"), IndexOptions::default()).unwrap();
    idx.bulk_build(&xmls).unwrap();
    let (_, segs) = idx.tier_breakdown().unwrap();
    assert_eq!((segs.len(), segs[0].format_version), (1, 2));

    let per_xml_byte = idx.stats().segment_bytes as f64 / xml_bytes as f64;
    let sanc = &segs[0].trees.sancestor;
    let per_entry = sanc.leaf_total_bytes as f64 / sanc.entries as f64;
    println!(
        "segment bytes / XML byte {per_xml_byte:.4}, S-Ancestor leaf bytes / entry {per_entry:.3}"
    );
    // Measured 2.5387 and 10.365.
    assert!(
        per_xml_byte <= 2.80,
        "segment bytes per XML byte: {per_xml_byte:.4}"
    );
    assert!(
        per_entry <= 11.4,
        "S-Ancestor leaf bytes per entry: {per_entry:.3}"
    );
}
