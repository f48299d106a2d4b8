//! Algorithm 4's fresh branch, counted. Once a document's walk allocates a
//! node, every later element hangs below the node it allocated one step
//! earlier, which has no edges yet: the walk probes no edge there, and each
//! new node's S-Ancestor record is written once, with its final state.
//!
//! So a document that leaves the trie at depth `d` makes `d + 1` edge
//! lookups, and writes one S-Ancestor record per new node plus one for the
//! existing node it branches off (the virtual root's state lives in the meta
//! page instead). Counted through the batch's edge-cache misses (a batch of
//! one starts with an empty cache) and through `vist_btree_insert_total`.
//!
//! Alone in its test binary on purpose: the registry is process-global.

use vist_core::{IndexOptions, VistIndex};

/// Depth of every document: a chain of `DEPTH` nested empty elements.
const DEPTH: usize = 6;

fn nested(tags: &[String]) -> String {
    let open: String = tags.iter().map(|t| format!("<{t}>")).collect();
    let close: String = tags.iter().rev().map(|t| format!("</{t}>")).collect();
    open + &close
}

fn index() -> VistIndex {
    VistIndex::in_memory(IndexOptions {
        store_documents: false,
        ..IndexOptions::default()
    })
    .unwrap()
}

fn btree_inserts() -> u64 {
    vist_obs::counter!("vist_btree_insert_total").get()
}

#[test]
fn a_branch_at_depth_d_probes_d_plus_one_edges_and_writes_each_record_once() {
    // The same documents in the same order go to both indexes: `batched`
    // through one-document batches, which count edge lookups, `serial`
    // through `insert_xml`, which commits nothing, so every B+Tree insert
    // it makes is the walk's.
    let (batched, serial) = (index(), index());
    let trunk: Vec<String> = (0..DEPTH).map(|j| format!("t{j}")).collect();
    batched.insert_batch(&[nested(&trunk)], 1).unwrap();
    serial.insert_xml(&nested(&trunk)).unwrap();

    for d in 0..DEPTH {
        // Shares the trunk's first `d` elements, then leaves it.
        let tags: Vec<String> = (0..DEPTH)
            .map(|j| {
                if j < d {
                    format!("t{j}")
                } else {
                    format!("u{d}x{j}")
                }
            })
            .collect();
        let xml = nested(&tags);
        let fresh = (DEPTH - d) as u64;

        let before = batched.stats();
        batched.insert_batch(&[xml.as_str()], 1).unwrap();
        let after = batched.stats();
        assert_eq!(after.nodes - before.nodes, fresh, "depth {d}");
        assert_eq!(
            after.ingest_edge_cache_misses - before.ingest_edge_cache_misses,
            d as u64 + 1,
            "edge lookups of a branch at depth {d}"
        );
        assert_eq!(
            after.ingest_edge_cache_hits, before.ingest_edge_cache_hits,
            "depth {d}"
        );

        let (dkeys, inserts) = (serial.stats().dkeys, btree_inserts());
        serial.insert_xml(&xml).unwrap();
        assert_eq!(serial.stats().dkeys - dkeys, fresh, "depth {d}: new dkeys");
        let sancestor = fresh + u64::from(d > 0);
        let (edges, docid) = (fresh, 1);
        assert_eq!(
            btree_inserts() - inserts,
            sancestor + edges + docid + fresh,
            "B+Tree inserts of a branch at depth {d}: S-Ancestor, edges, DocId, D-Ancestor"
        );
    }

    // A document already in the trie probes every element and writes only
    // its DocId posting.
    let before = batched.stats();
    batched.insert_batch(&[nested(&trunk)], 1).unwrap();
    let after = batched.stats();
    assert_eq!(after.nodes, before.nodes);
    assert_eq!(
        after.ingest_edge_cache_misses - before.ingest_edge_cache_misses,
        DEPTH as u64
    );
    let inserts = btree_inserts();
    serial.insert_xml(&nested(&trunk)).unwrap();
    assert_eq!(btree_inserts() - inserts, 1);
}
