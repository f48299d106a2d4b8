//! Cross-crate integration: generators → all five systems → agreement on
//! the paper's Table 3 queries.

use vist::baselines::{NodeIndex, PathIndex};
use vist::datagen::{dblp, xmark};
use vist::query::{matches_document, parse_query};
use vist::seq::SiblingOrder;
use vist::storage::testutil::TempDir;
use vist::{IndexOptions, NaiveIndex, QueryOptions, VistIndex};

fn exact_answer(docs: &[vist::xml::Document], q: &str) -> Vec<u64> {
    let p = parse_query(q).unwrap().to_pattern();
    docs.iter()
        .enumerate()
        .filter(|(_, d)| matches_document(&p, d, &SiblingOrder::Lexicographic))
        .map(|(i, _)| i as u64)
        .collect()
}

/// The paper's RIST over `docs`: a file-backed index whose documents all
/// arrive through `bulk_build` — one statically labeled packed segment, an
/// empty delta.
fn rist_over(docs: &[vist::xml::Document]) -> (TempDir, VistIndex) {
    let dir = TempDir::new("end-to-end-rist");
    let rist = VistIndex::create_file(dir.file("rist"), IndexOptions::default()).unwrap();
    let ids = rist.bulk_build(docs.iter().map(|d| d.to_xml())).unwrap();
    assert_eq!(ids, (0..docs.len() as u64).collect::<Vec<_>>());
    assert_eq!((rist.stats().segments, rist.stats().nodes), (1, 0));
    (dir, rist)
}

fn check_dataset(docs: &[vist::xml::Document], queries: &[(&str, String)]) {
    let vist_idx = VistIndex::in_memory(IndexOptions::default()).unwrap();
    let mut naive = NaiveIndex::default();
    let mut path_idx = PathIndex::in_memory(4096, 1024).unwrap();
    let mut node_idx = NodeIndex::in_memory(4096, 1024).unwrap();
    for d in docs {
        vist_idx.insert_document(d).unwrap();
        naive.insert_document(d);
        path_idx.insert_document(d).unwrap();
        node_idx.insert_document(d).unwrap();
    }
    let (_dir, rist) = rist_over(docs);

    let opts = QueryOptions::default();
    for (label, q) in queries {
        let exact = exact_answer(docs, q);
        assert!(!exact.is_empty(), "{label}: sentinel query must have hits");

        // The three paper engines agree among themselves (same semantics).
        let v = vist_idx.query(q, &opts).unwrap().doc_ids;
        let r = rist.query(q, &opts).unwrap().doc_ids;
        let n = naive.query(q, &opts).unwrap();
        assert_eq!(v, r, "{label}: vist vs rist");
        assert_eq!(v, n, "{label}: vist vs naive");

        // Raw ViST is complete (superset of exact); verified ViST is exact.
        for id in &exact {
            assert!(v.contains(id), "{label}: false negative doc {id}");
        }
        let verified = vist_idx
            .query(
                q,
                &QueryOptions {
                    verify: true,
                    ..Default::default()
                },
            )
            .unwrap()
            .doc_ids;
        assert_eq!(verified, exact, "{label}: verified vs exact oracle");

        // The node index (structural joins) is exact too.
        let nd = node_idx.query(q).unwrap();
        assert_eq!(nd, exact, "{label}: node index vs exact oracle");

        // The raw-path index is complete at the document level.
        let p = path_idx.query(q).unwrap();
        for id in &exact {
            assert!(p.contains(id), "{label}: path index false negative {id}");
        }
    }
}

#[test]
fn dblp_table3_queries_all_systems() {
    let docs = dblp::documents(3000, 42);
    check_dataset(&docs, &dblp::table3_queries());
}

#[test]
fn xmark_table3_queries_all_systems() {
    let docs = xmark::documents(2500, 43);
    check_dataset(&docs, &xmark::table3_queries());
}

#[test]
fn synthetic_random_queries_all_engines() {
    use vist::datagen::synthetic::{SyntheticConfig, SyntheticGen};
    let mut gen = SyntheticGen::new(SyntheticConfig {
        k: 8,
        j: 4,
        l: 16,
        seed: 99,
    });
    let docs = gen.documents(300);
    let vist_idx = VistIndex::in_memory(IndexOptions::default()).unwrap();
    let mut naive = NaiveIndex::default();
    for d in &docs {
        vist_idx.insert_document(d).unwrap();
        naive.insert_document(d);
    }
    let (_dir, rist) = rist_over(&docs);
    let opts = QueryOptions::default();
    for i in 0..30 {
        let q = gen.query(2 + i % 6, 0.2);
        let v = vist_idx.query_pattern(&q, &opts).unwrap().doc_ids;
        let r = rist.query_pattern(&q, &opts).unwrap().doc_ids;
        let n = naive.query_pattern(&q, &opts).unwrap();
        assert_eq!(v, r, "query {i}");
        assert_eq!(v, n, "query {i}");
    }
}

#[test]
fn mixed_workload_with_maintenance() {
    // Insert DBLP + XMARK interleaved, delete some, keep querying.
    let dblp_docs = dblp::documents(400, 1);
    let xmark_docs = xmark::documents(400, 2);
    let idx = VistIndex::in_memory(IndexOptions::default()).unwrap();
    let mut ids = Vec::new();
    for (a, b) in dblp_docs.iter().zip(&xmark_docs) {
        ids.push(idx.insert_document(a).unwrap());
        ids.push(idx.insert_document(b).unwrap());
    }
    let before = idx
        .query("/inproceedings/title", &QueryOptions::default())
        .unwrap()
        .doc_ids;
    assert!(!before.is_empty());
    // Delete every third document.
    for id in ids.iter().step_by(3) {
        idx.remove_document(*id).unwrap();
    }
    let after = idx
        .query("/inproceedings/title", &QueryOptions::default())
        .unwrap()
        .doc_ids;
    for id in &after {
        assert!(before.contains(id));
        assert!(id % 3 != 0 || !ids.iter().step_by(3).any(|x| x == id));
    }
    assert!(after.len() < before.len() || before.iter().all(|b| b % 3 != 0));
    // Cross-domain query still isolated per vocabulary.
    let sites = idx.query("/site//item", &QueryOptions::default()).unwrap();
    assert!(
        sites.doc_ids.iter().all(|id| id % 2 == 1),
        "only XMARK docs are odd ids"
    );
}

#[test]
fn imdb_sample_queries_all_systems() {
    use vist::datagen::imdb;
    let docs = imdb::documents(2500, 77);
    check_dataset(&docs, &imdb::sample_queries());
}

#[test]
fn treebank_sample_queries_all_systems() {
    use vist::datagen::treebank::{documents, sample_queries, TreebankConfig};
    let docs = documents(
        1200,
        &TreebankConfig {
            max_depth: 8,
            seed: 31,
        },
    );
    check_dataset(&docs, &sample_queries());
}
