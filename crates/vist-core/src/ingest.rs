//! Batched parallel ingest with group commit.
//!
//! The dynamic insert path (Algorithm 4) is inherently serial at its back
//! end: scope allocation reads and rewrites the parents' `NodeState`s, so
//! two documents cannot apply concurrently. What *can* run in parallel is
//! everything before that — XML parsing, record-tree lowering, and
//! structure encoding, which together dominate per-document CPU cost.
//! [`VistIndex::insert_batch`] splits ingest accordingly:
//!
//! 1. **Prepare** (parallel, no index locks): each worker parses and
//!    encodes documents against a snapshot of the symbol table, interning
//!    unknown names into a private [`TableOverlay`] whose ids start past
//!    the snapshot.
//! 2. **Apply** (serial, writer mutex): overlay ids are remapped into the
//!    shared table, then every prepared sequence is inserted in input
//!    order — through a per-batch [`IngestCache`] that answers repeated
//!    dkey lookups and trie-edge probes without touching the B+Trees.
//!    The apply phase holds the `maintenance` latch exclusively, so
//!    readers observe the pre-batch or post-batch index, never a torn
//!    intermediate.
//! 3. **Commit**: a single WAL commit — one commit record, one fsync
//!    pair — covers the whole batch. Because nothing inside the apply
//!    phase syncs, a crash anywhere before that flush recovers to the
//!    previous durable state and a crash after it recovers the full batch:
//!    batches are all-or-nothing on disk by construction.
//!
//! Applying in input order with the same allocator makes the result
//! bit-identical to serial insertion: same document ids, same scope
//! labels, same symbol ids (`tests/parallel_ingest.rs` proves this
//! differentially).

use std::collections::HashMap;
use std::sync::Mutex;

use vist_seq::{
    document_to_sequence_with, PathSym, Sequence, SiblingOrder, Sym, Symbol, SymbolTable,
    TableOverlay,
};

use crate::error::Result;
use crate::pool::run_workers;
use crate::store::DocId;
use crate::vist::VistIndex;

/// Positive caches for the apply phase, one per batch (a serial insert is a
/// batch of one). Both maps are safe *because* the whole batch runs under
/// the writer mutex with no interleaved removes or compactions: dkey ids are append-only, and a
/// trie edge, once written, is never modified or deleted while the delta
/// lives.
#[derive(Debug, Default)]
pub(crate) struct IngestCache {
    /// Encoded D-Ancestor key → dkey id.
    pub(crate) dkeys: HashMap<Vec<u8>, u64>,
    /// (chain-head label, dkey id) → child label, mirroring `find_child`.
    pub(crate) edges: HashMap<(u128, u64), u128>,
    pub(crate) dkey_hits: u64,
    pub(crate) dkey_misses: u64,
    pub(crate) edge_hits: u64,
    pub(crate) edge_misses: u64,
}

/// One document's parallel-prepare artifact: its structure-encoded
/// sequence (with overlay symbol ids for names unknown to the snapshot)
/// and those names, in overlay id order, for remapping under the table
/// write lock.
struct PreparedDoc {
    seq: Sequence,
    new_names: Vec<String>,
}

fn prepare_doc(xml: &str, base: &SymbolTable, order: &SiblingOrder) -> Result<PreparedDoc> {
    let doc = vist_xml::parse(xml)?;
    let mut overlay = TableOverlay::new(base);
    let seq = document_to_sequence_with(&doc, &mut overlay, order);
    let new_names = (0..overlay.overlay_len())
        .map(|i| overlay.name(Symbol((base.len() + i) as u32)).to_string())
        .collect();
    Ok(PreparedDoc { seq, new_names })
}

/// Rewrite every overlay symbol id (`>= base_len`) in `seq` — both element
/// symbols and prefix path entries — to its interned shared-table id.
fn remap_overlay_syms(seq: &mut Sequence, base_len: usize, map: &[Symbol]) {
    let fix = |s: &mut Symbol| {
        let i = s.0 as usize;
        if i >= base_len {
            *s = map[i - base_len];
        }
    };
    for elem in &mut seq.0 {
        if let Sym::Tag(ref mut s) = elem.sym {
            fix(s);
        }
        for ps in &mut elem.prefix.0 {
            if let PathSym::Tag(ref mut s) = ps {
                fix(s);
            }
        }
    }
}

impl VistIndex {
    /// Ingest a batch of XML documents with parallel prepare and one group
    /// commit (see the module docs for the three phases). `threads` is the
    /// number of prepare workers (clamped to at least 1; the apply phase
    /// is always serial). Returns the assigned document ids, in input
    /// order — identical to what the same inputs would get from
    /// [`VistIndex::insert_xml`] one at a time, at any thread count.
    ///
    /// A parse failure anywhere in the batch rejects the whole batch
    /// before any index mutation. A storage error during apply leaves the
    /// in-memory index mid-batch (like any failed insert — reopen to
    /// recover); on disk the batch is still all-or-nothing, because the
    /// batch-final commit is its only commit point.
    pub fn insert_batch<S>(&self, docs: &[S], threads: usize) -> Result<Vec<DocId>>
    where
        S: AsRef<str> + Sync,
    {
        if docs.is_empty() {
            return Ok(Vec::new());
        }
        let threads = threads.max(1);
        let total_start = vist_obs::now();

        // Phase 1: prepare. Workers share nothing with the index but an
        // immutable snapshot of the symbol table — no locks are held, so
        // concurrent readers (and even a concurrent writer) proceed
        // untouched while sequences are encoded.
        let base = self.table.read().clone();
        let base_len = base.len();
        let slots: Vec<Mutex<Option<Result<PreparedDoc>>>> =
            (0..docs.len()).map(|_| Mutex::new(None)).collect();
        run_workers(threads, (0..docs.len()).collect(), None, |_, queue| {
            while let Some((i, _)) = queue.take() {
                let res = prepare_doc(docs[i].as_ref(), &base, &self.order);
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(res);
                queue.finish_one();
            }
        });
        let mut prepared = Vec::with_capacity(docs.len());
        for slot in slots {
            let res = slot
                .into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every batch slot is prepared exactly once");
            prepared.push(res?);
        }
        let prepare_nanos = vist_obs::elapsed_nanos(total_start).unwrap_or(0);

        // Phase 2: apply, serialized behind the writer mutex like every
        // other mutation. The maintenance latch is held exclusively for
        // the whole phase so readers never see a partially applied batch;
        // it is dropped before the commit fsync so readers resume while
        // the WAL syncs.
        let _w = self.writer.lock();
        let apply_start = vist_obs::now();
        let store_documents = self.store.meta().store_documents;
        let mut cache = IngestCache::default();
        let mut ids = Vec::with_capacity(prepared.len());
        {
            let _m = self.maintenance.write();
            {
                // Remap overlay ids minted against the snapshot. Names are
                // interned per document in input order, first-encounter
                // order within each — exactly the order serial ingest
                // would intern them. The threshold is the snapshot's
                // length: ids below it are stable (the table is
                // append-only), ids at or past it are private to this
                // batch's overlays.
                let mut table = self.table.write();
                for p in &mut prepared {
                    if p.new_names.is_empty() {
                        continue;
                    }
                    let map: Vec<Symbol> = p.new_names.iter().map(|n| table.intern(n)).collect();
                    remap_overlay_syms(&mut p.seq, base_len, &map);
                }
            }
            for (p, raw) in prepared.iter().zip(docs) {
                let xml = store_documents.then(|| raw.as_ref());
                ids.push(self.insert_sequence_cached(&p.seq, xml, &mut cache)?);
            }
        }
        let apply_nanos = vist_obs::elapsed_nanos(apply_start).unwrap_or(0);

        // Phase 3: the group commit — one WAL commit record, one fsync,
        // amortized over the whole batch.
        let commit_start = vist_obs::now();
        self.commit_locked()?;
        let commit_nanos = vist_obs::elapsed_nanos(commit_start).unwrap_or(0);

        self.ingest_counters.record_batch(
            ids.len() as u64,
            cache.dkey_hits,
            cache.dkey_misses,
            cache.edge_hits,
            cache.edge_misses,
        );
        vist_obs::histogram!("vist_core_ingest_prepare_nanos").record(prepare_nanos);
        vist_obs::histogram!("vist_core_ingest_apply_nanos").record(apply_nanos);
        vist_obs::histogram!("vist_core_ingest_commit_nanos").record(commit_nanos);
        vist_obs::WideEvent::new("ingest_batch")
            .u64_field("batch_docs", ids.len() as u64)
            .u64_field("prepare_threads", threads as u64)
            .u64_field("prepare_nanos", prepare_nanos)
            .u64_field("apply_nanos", apply_nanos)
            .u64_field("commit_nanos", commit_nanos)
            .u64_field("edge_cache_hits", cache.edge_hits)
            .u64_field("edge_cache_misses", cache.edge_misses)
            .emit(
                0,
                "bg:ingest_batch",
                prepare_nanos + apply_nanos + commit_nanos,
                None,
            );
        Ok(ids)
    }
}
