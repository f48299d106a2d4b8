//! An XMARK-style auction site: the same workload answered by all five
//! systems in this repository — ViST, RIST, the naive suffix-tree matcher,
//! and the two baselines the paper compares against (raw-path index and
//! node index) — with timings, so you can watch Table 4's shape emerge.
//!
//! ```sh
//! cargo run --release --example auction_site
//! ```

use std::time::Instant;

use vist::baselines::{NodeIndex, PathIndex};
use vist::datagen::xmark;
use vist::storage::testutil::TempDir;
use vist::{IndexOptions, NaiveIndex, QueryOptions, VistIndex};

fn main() -> vist::Result<()> {
    let n = std::env::var("N_RECORDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3_000);
    println!("generating {n} XMARK-like sub-structure instances ...\n");
    let docs = xmark::documents(n, 7);

    // Build all five systems over the same documents.
    let vist_idx = VistIndex::in_memory(IndexOptions::default())?;
    let mut naive = NaiveIndex::default();
    let mut path_idx = PathIndex::in_memory(4096, 1024).expect("path index");
    let mut node_idx = NodeIndex::in_memory(4096, 1024).expect("node index");
    for d in &docs {
        vist_idx.insert_document(d)?;
        naive.insert_document(d);
        path_idx.insert_document(d).expect("path insert");
        node_idx.insert_document(d).expect("node insert");
    }
    // RIST is the static build: a file-backed index whose documents all
    // arrive through `bulk_build` (one packed segment, empty delta).
    let dir = TempDir::new("auction-site");
    let rist = VistIndex::create_file(dir.file("rist"), IndexOptions::default())?;
    rist.bulk_build(docs.iter().map(|d| d.to_xml()))?;

    println!(
        "{:<4} {:>10} {:>10} {:>10} {:>10} {:>10}   query",
        "", "vist", "rist", "naive", "path-idx", "node-idx"
    );
    let opts = QueryOptions::default();
    for (label, q) in xmark::table3_queries() {
        let t = Instant::now();
        let v = vist_idx.query(&q, &opts)?.doc_ids;
        let t_vist = t.elapsed();
        let t = Instant::now();
        let r = rist.query(&q, &opts)?.doc_ids;
        let t_rist = t.elapsed();
        let t = Instant::now();
        let nv = naive.query(&q, &opts)?;
        let t_naive = t.elapsed();
        let t = Instant::now();
        let p = path_idx.query(&q).expect("path query");
        let t_path = t.elapsed();
        let t = Instant::now();
        let nd = node_idx.query(&q).expect("node query");
        let t_node = t.elapsed();

        assert_eq!(v, r, "{label}: vist and rist must agree");
        assert_eq!(v, nv, "{label}: vist and naive must agree");
        println!(
            "{:<4} {:>10.2?} {:>10.2?} {:>10.2?} {:>10.2?} {:>10.2?}   {} ({} hits; path {}, node {})",
            label,
            t_vist,
            t_rist,
            t_naive,
            t_path,
            t_node,
            q,
            v.len(),
            p.len(),
            nd.len(),
        );
    }

    // Show how the answer sets relate: the node index is exact; ViST raw vs
    // verified demonstrates the candidate/answer distinction.
    let q = &xmark::table3_queries()[2].1; // Q8, the branching one
    let raw = vist_idx.query(q, &opts)?;
    let verified = vist_idx.query(
        q,
        &QueryOptions {
            verify: true,
            ..Default::default()
        },
    )?;
    let exact = node_idx.query(q).expect("node query");
    println!(
        "\nQ8 semantics: {} raw ViST candidates, {} verified, {} from exact structural joins",
        raw.doc_ids.len(),
        verified.doc_ids.len(),
        exact.len()
    );
    assert_eq!(
        verified.doc_ids, exact,
        "verified ViST equals the exact node index"
    );

    let s = vist_idx.stats();
    println!(
        "\nViST index: {} docs, {} nodes, {} dkeys, {:.1} MiB",
        s.documents,
        s.nodes,
        s.dkeys,
        s.store_bytes as f64 / (1024.0 * 1024.0)
    );
    Ok(())
}
