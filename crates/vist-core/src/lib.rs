//! The ViST index (SIGMOD 2003) and its two in-paper baselines.
//!
//! This crate implements Section 3 of *"ViST: A Dynamic Index Method for
//! Querying XML Data by Tree Structures"* in full:
//!
//! * [`NaiveIndex`] (§3.2) — structure-encoded sequences in a
//!   suffix-tree-like trie, matched by subtree traversal (Algorithm 1);
//! * RIST (§3.3) — the trie labeled *statically* by preorder rank and
//!   subtree size, with matching moved onto B+Trees (Algorithm 2): a packed
//!   segment, what [`VistIndex::bulk_build`] writes;
//! * [`VistIndex`] (§3.4) — the virtual suffix tree: **dynamic** top-down
//!   scope allocation (Algorithm 3) means the trie is never materialized,
//!   documents can be inserted and deleted at any time, and everything
//!   lives in B+Trees (Algorithm 4 for insertion, Algorithm 2 for search).
//!
//! The index structure is exactly the paper's: a **D-Ancestor** B+Tree
//! keyed by `(symbol, prefix)`, an **S-Ancestor** B+Tree per D-Ancestor
//! entry (realized, as the paper's experiments do, as one *combined* B+Tree
//! keyed by `(dkey-id, n)`), and a **DocId** B+Tree mapping label ranges to
//! document ids. All trees share one [`vist_storage::BufferPool`], either
//! in-memory or file-backed.
//!
//! # Quick start
//!
//! ```
//! use vist_core::{VistIndex, IndexOptions, QueryOptions};
//!
//! let mut index = VistIndex::in_memory(IndexOptions::default()).unwrap();
//! let doc = vist_xml::parse("<book><author>David</author></book>").unwrap();
//! let id = index.insert_document(&doc).unwrap();
//! let hits = index.query("/book/author[text='David']", &QueryOptions::default()).unwrap();
//! assert_eq!(hits.doc_ids, vec![id]);
//! ```

#![forbid(unsafe_code)]

mod alloc;
mod error;
mod ingest;
mod naive;
mod plan;
mod postings;
mod search;
mod segment;
mod stats;
mod store;
mod tier;
mod trie;
mod vist;

pub use alloc::{Allocation, AllocatorKind, ScopeAllocator, SimMutation, StatsModel};
pub use error::{Error, Result};
pub use naive::NaiveIndex;
pub use plan::{PlanReport, PruneReason, SemiJoinPlan, SeqPlan, StepPlan};
pub use search::{
    search_sequences, DkStats, QueryStats, SearchMode, SearchOptions, SearchOutcome, SearchSource,
    StageTimings,
};
pub use segment::SegmentBreakdown;
pub use stats::{IndexStats, IngestCounters, IngestCountersSnapshot};
pub use store::{DocId, NodeState, Store, StoreBreakdown};
pub use tier::segment_path;
pub use trie::{Trie, TrieNode};
pub use vist::{IndexOptions, QueryOptions, QueryResult, VistIndex};

/// Register this crate's observability metrics with the global
/// `vist-obs` registry so they appear in expositions even before the
/// code paths that record them have run. Idempotent; called by the
/// [`VistIndex`] constructors.
pub fn register_metrics() {
    let _ = vist_obs::counter!("vist_core_query_total");
    let _ = vist_obs::counter!("vist_core_insert_total");
    // One `vist_core_<field>_total` per engine counter of `QueryStats`.
    QueryStats::default().publish();
    let _ = vist_obs::gauge!("vist_core_documents");
    let _ = vist_obs::gauge!("vist_core_segments");
    let _ = vist_obs::gauge!("vist_core_segment_fence_bytes");
    let _ = vist_obs::gauge!("vist_core_postings_bytes");
    let _ = vist_obs::gauge!("vist_core_segment_run_bytes");
    let _ = vist_obs::gauge!("vist_core_segments_legacy_format");
    let _ = vist_obs::gauge!("vist_core_delta_leaf_fill_bp");
    let _ = vist_obs::gauge!("vist_core_segment_leaf_fill_bp");
    let _ = vist_obs::counter!("vist_core_bulk_docs_total");
    // One `vist_core_ingest_<counter>_total` per row of `IngestCounters`.
    IngestCounters::register_metrics();
    let _ = vist_obs::histogram!("vist_core_ingest_prepare_nanos");
    let _ = vist_obs::histogram!("vist_core_ingest_apply_nanos");
    let _ = vist_obs::histogram!("vist_core_ingest_commit_nanos");
    let _ = vist_obs::counter!("vist_core_compactions_total");
    let _ = vist_obs::histogram!("vist_core_query_nanos");
    let _ = vist_obs::histogram!("vist_core_insert_nanos");
    let _ = vist_obs::histogram!("vist_core_stage_translate_nanos");
    let _ = vist_obs::histogram!("vist_core_stage_match_nanos");
    let _ = vist_obs::histogram!("vist_core_stage_merge_nanos");
    let _ = vist_obs::histogram!("vist_core_stage_docid_nanos");
    for op in ["compaction", "checkpoint", "segment_build", "wal_recovery"] {
        let _ = vist_obs::registry::gauge(&format!("vist_bg_{op}_inprogress"));
        let _ = vist_obs::registry::gauge(&format!("vist_bg_{op}_last_duration_ms"));
        let _ = vist_obs::registry::counter(&format!("vist_bg_{op}_total"));
    }
    vist_obs::describe(
        "vist_core_query_nanos",
        "End-to-end query latency; buckets carry the last trace id as an exemplar.",
    );
    vist_obs::describe(
        "vist_bg_compaction_inprogress",
        "Compactions currently running (0 or 1; the writer lock serializes them).",
    );
    vist_obs::describe(
        "vist_bg_checkpoint_inprogress",
        "Flush/checkpoint operations currently running.",
    );
    vist_obs::describe(
        "vist_bg_segment_build_inprogress",
        "Bulk segment builds currently running.",
    );
    vist_obs::describe(
        "vist_bg_wal_recovery_inprogress",
        "Index opens (incl. WAL replay and crash redo) currently running.",
    );
    for (name, help) in [
        (
            "vist_bg_compaction_total",
            "Completed compaction operations.",
        ),
        (
            "vist_bg_checkpoint_total",
            "Completed flush/checkpoint operations.",
        ),
        (
            "vist_bg_segment_build_total",
            "Completed bulk segment builds.",
        ),
        (
            "vist_bg_wal_recovery_total",
            "Completed index opens (incl. WAL replay and crash redo).",
        ),
    ] {
        vist_obs::describe(name, help);
    }
}
