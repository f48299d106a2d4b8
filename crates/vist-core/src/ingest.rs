//! The dynamic insert path (Algorithm 4), document removal, and batched
//! parallel ingest with group commit.
//!
//! The dynamic insert path is inherently serial at its back
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
//!    intermediate. The DocId postings the batch put reach the delta's
//!    postings column in one sorted merge as the phase ends.
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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use vist_seq::{
    dkey, document_to_sequence, document_to_sequence_with, PathSym, SeqElem, Sequence,
    SiblingOrder, Sym, Symbol, SymbolTable, TableOverlay,
};
use vist_xml::Document;

use crate::alloc::Allocation;
use crate::error::{Error, Result};
use crate::store::{DocId, NodeState};
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
        // A parallel-for: each worker, the caller's thread included, takes
        // the next unprepared index until none is left.
        let next = AtomicUsize::new(0);
        let work = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(doc) = docs.get(i) else { break };
            let res = prepare_doc(doc.as_ref(), &base, &self.order);
            *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(res);
        };
        std::thread::scope(|s| {
            for _ in 1..threads.min(docs.len()) {
                s.spawn(work);
            }
            work();
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
            let applied = prepared.iter().zip(docs).try_for_each(|(p, raw)| {
                let xml = store_documents.then(|| raw.as_ref());
                ids.push(self.insert_sequence_cached(&p.seq, xml, &mut cache)?);
                Ok::<_, Error>(())
            });
            // The postings the batch put, applied or not, in one merge.
            self.store.publish_postings();
            applied?;
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

#[derive(Debug, Clone, Copy)]
enum Loc {
    Root,
    Node(u64),
}

/// Sentinel dkey-id for overflow edges: `edge(x, OVERFLOW_EDGE)` points from
/// a node incarnation to its successor incarnation. Real dkey-ids are dense
/// from 0 and never reach this value.
const OVERFLOW_EDGE: u64 = u64::MAX;

struct ChainEntry {
    loc: Loc,
    /// The original node's label (head of its incarnation chain).
    head_n: u128,
    /// Allocation state of the *latest* incarnation.
    state: NodeState,
    sym: Option<Sym>,
}

impl VistIndex {
    /// Parse and insert an XML document, returning its id.
    pub fn insert_xml(&self, xml: &str) -> Result<DocId> {
        let doc = vist_xml::parse(xml)?;
        self.insert_document_impl(&doc, Some(xml))
    }

    /// Insert a parsed document (Algorithm 4), returning its id.
    pub fn insert_document(&self, doc: &Document) -> Result<DocId> {
        self.insert_document_impl(doc, None)
    }

    /// Stream a large container document (e.g. a whole XMARK `site`) and
    /// index each sub-tree rooted at one of `record_names` as its own
    /// document — the paper's break-down methodology ("we break down its
    /// tree structure into a set of sub structures ... and convert each
    /// instance of these sub structures into a structure-encoded
    /// sequence"). The container is never materialized.
    pub fn insert_records(&self, xml: &str, record_names: &[&str]) -> Result<Vec<DocId>> {
        let mut ids = Vec::new();
        for rec in vist_xml::RecordSplitter::new(xml, record_names) {
            ids.push(self.insert_document(&rec?)?);
        }
        Ok(ids)
    }

    fn insert_document_impl(&self, doc: &Document, raw: Option<&str>) -> Result<DocId> {
        vist_obs::counter!("vist_core_insert_total").inc();
        let insert_start = vist_obs::now();
        let _w = self.writer.lock();
        let seq = {
            let mut table = self.table.write();
            document_to_sequence(doc, &mut table, &self.order)
        };
        let xml_owned;
        let xml: Option<&str> = if self.store.meta().store_documents {
            Some(match raw {
                Some(r) => r,
                None => {
                    xml_owned = doc.to_xml();
                    &xml_owned
                }
            })
        } else {
            None
        };
        let id = self.insert_sequence_cached(&seq, xml, &mut IngestCache::default());
        self.store.publish_postings();
        let id = id?;
        vist_obs::observe_since(vist_obs::histogram!("vist_core_insert_nanos"), insert_start);
        Ok(id)
    }

    /// Core of Algorithm 4, through a cache (see [`IngestCache`]) that a
    /// batch shares between its documents and a serial insert starts empty:
    /// repeated dkey lookups and trie-edge probes — the bulk of the B+Tree
    /// traffic for structure-sharing corpora — are answered from the cache
    /// instead of the trees. Caller must hold `self.writer`; the cache must
    /// not outlive it.
    ///
    /// All-or-nothing for the live documents and the document count: when
    /// the sequence cannot be attached (the label space is exhausted), the
    /// stored XML gets a tombstone, as a removal would, and the count is
    /// taken back, so the document is neither listed nor picked up by the
    /// next compaction. Its id stays spent, and so do the trie nodes
    /// allocated before the failure: both are harmless, and ids are never
    /// reused.
    pub(crate) fn insert_sequence_cached(
        &self,
        seq: &Sequence,
        xml: Option<&str>,
        cache: &mut IngestCache,
    ) -> Result<DocId> {
        let (doc_id, store_documents, root_state) = {
            let mut meta = self.store.meta_mut();
            let id = meta.next_doc;
            meta.next_doc += 1;
            meta.doc_count += 1;
            (id, meta.store_documents, meta.root)
        };
        if store_documents {
            self.store.doc_put(doc_id, xml.unwrap_or("").as_bytes())?;
        }
        if let Err(e) = self.attach_sequence(doc_id, root_state, seq, cache) {
            if store_documents {
                // `e` is the error to report, whatever the tombstone meets.
                let _ = self.store.tomb_put(doc_id);
            }
            self.store.meta_mut().doc_count -= 1;
            return Err(e);
        }
        Ok(doc_id)
    }

    /// Walk `seq` down the virtual suffix tree, allocating the scopes it
    /// lacks, and post `doc_id` at the node it ends on.
    fn attach_sequence(
        &self,
        doc_id: DocId,
        root_state: NodeState,
        seq: &Sequence,
        cache: &mut IngestCache,
    ) -> Result<()> {
        let mut chain: Vec<ChainEntry> = vec![ChainEntry {
            loc: Loc::Root,
            head_n: 0,
            state: root_state,
            sym: None,
        }];
        let mut fresh = false;
        let walked = self.walk_sequence(&mut chain, &mut fresh, seq, cache);
        // Whatever ended the walk, the pending node is written before the
        // edge pointing at it can be followed.
        let last = chain.last().expect("non-empty");
        let pending = fresh.then(|| self.write_state(last.loc, &last.state));
        let last_n = walked?;
        pending.transpose()?;
        self.store.docid_put(last_n, doc_id)?;
        Ok(())
    }

    /// Algorithm 4's walk along `seq` from the root: the label of the node
    /// it ends on. Once it allocates a node, the rest is a *fresh branch*:
    /// each later element hangs below the node allocated one step earlier,
    /// which has no edges, so none is probed. That node's
    /// S-Ancestor record is written once, with its final state — when its
    /// one child is allocated, or by the caller when the walk ends; until
    /// then it is `chain.last()`, with `fresh` set.
    fn walk_sequence(
        &self,
        chain: &mut Vec<ChainEntry>,
        fresh: &mut bool,
        seq: &Sequence,
        cache: &mut IngestCache,
    ) -> Result<u128> {
        let n = seq.len();
        for (i, elem) in seq.iter().enumerate() {
            let dkid = self.dkid_cached(data_dkey(elem)?, cache)?;
            let last = chain.last().expect("chain non-empty");

            // Follow an existing branch if there is one (Algorithm 4:
            // "search in e for scope r such that r is an immediate child of
            // s"), checking every incarnation of the parent.
            let head_n = last.head_n;
            let found = if *fresh {
                None
            } else {
                self.find_child_cached(head_n, dkid, cache)?
            };
            if let Some(child_n) = found {
                let state = self
                    .store
                    .node_get(dkid, child_n)?
                    .ok_or_else(|| Error::Corrupt("edge points to missing node".into()))?;
                chain.push(ChainEntry {
                    loc: Loc::Node(dkid),
                    head_n: child_n,
                    state,
                    sym: Some(elem.sym),
                });
                continue;
            }

            // Allocate a fresh child scope from the parent's latest
            // incarnation. The remaining tail (this element included) must
            // be able to nest below it.
            let rem = (n - i) as u128;
            let (ploc, parent_sym, parent_inc_n) = (last.loc, last.sym, last.state.n);
            let mut pstate = last.state;
            let allocation = self
                .alloc
                .lock()
                .allocate(&mut pstate, parent_sym, elem.sym, rem);
            match allocation {
                Allocation::Child { state, tight } => {
                    if tight {
                        self.store.meta_mut().underflows += 1;
                    }
                    // A fresh parent's one write; an existing one's update.
                    self.write_state(ploc, &pstate)?;
                    chain.last_mut().expect("non-empty").state = pstate;
                    self.store.edge_put(parent_inc_n, dkid, state.n)?;
                    // The fresh edge is keyed under the chain head, which is
                    // where `find_child` starts, so future batch documents
                    // resolve it from the cache.
                    cache.edges.insert((head_n, dkid), state.n);
                    self.store.meta_mut().node_count += 1;
                    self.store.stats_node_added(dkid);
                    chain.push(ChainEntry {
                        loc: Loc::Node(dkid),
                        head_n: state.n,
                        state,
                        sym: Some(elem.sym),
                    });
                    *fresh = true;
                }
                Allocation::Underflow => {
                    // Scope underflow (paper §3.4.1), resolved *soundly* by
                    // node incarnations — see `grow_and_insert_tail`. The
                    // pending node is written before it is incarnated.
                    if std::mem::take(fresh) {
                        self.write_state(ploc, &last.state)?;
                    }
                    return self.grow_and_insert_tail(chain, &seq.0[i..], cache);
                }
            }
        }
        Ok(chain.last().expect("non-empty").state.n)
    }

    /// [`VistIndex::find_child`] through the edge cache.
    /// Only positive results are cached: an edge, once present, is never
    /// modified or removed while the writer lock is held, so a cached hit
    /// can never go stale within a batch — but an absent edge may appear.
    fn find_child_cached(
        &self,
        head_n: u128,
        dkid: u64,
        c: &mut IngestCache,
    ) -> Result<Option<u128>> {
        if let Some(&n) = c.edges.get(&(head_n, dkid)) {
            c.edge_hits += 1;
            return Ok(Some(n));
        }
        c.edge_misses += 1;
        let found = self.find_child(head_n, dkid)?;
        if let Some(n) = found {
            c.edges.insert((head_n, dkid), n);
        }
        Ok(found)
    }

    /// `Store::dkey_get_or_create` through the dkey cache. Dkey ids are
    /// append-only, so cached entries can never go stale.
    fn dkid_cached(&self, key: Vec<u8>, c: &mut IngestCache) -> Result<u64> {
        if let Some(&id) = c.dkeys.get(&key) {
            c.dkey_hits += 1;
            return Ok(id);
        }
        c.dkey_misses += 1;
        let id = self.store.dkey_get_or_create(&key)?;
        c.dkeys.insert(key, id);
        Ok(id)
    }

    /// Find the child of a node for `dkid`, following the node's overflow
    /// (incarnation) chain.
    fn find_child(&self, head_n: u128, dkid: u64) -> Result<Option<u128>> {
        let mut n = head_n;
        loop {
            if let Some(c) = self.store.edge_get(n, dkid)? {
                return Ok(Some(c));
            }
            match self.store.edge_get(n, OVERFLOW_EDGE)? {
                Some(next) => n = next,
                None => return Ok(None),
            }
        }
    }

    /// Scope underflow resolution.
    ///
    /// The paper borrows the remaining labels from the nearest ancestor with
    /// spare scope — which breaks S-Ancestor containment whenever the donor
    /// is not the direct parent, silently losing future matches through the
    /// borrowed chain. We fix this with **node incarnations**: the donor's
    /// block is nested into one fresh S-Ancestor entry *per intermediate
    /// level*, each carrying the same D-Ancestor key as the node it extends
    /// and linked from it by an overflow edge. Containment then holds by
    /// construction at every level, and since Algorithm 2 already iterates
    /// all S-Ancestor entries of a D-Ancestor key, queries find incarnations
    /// with no changes. The `deep_borrows` counter tallies these events.
    /// Returns the label of the last inserted node.
    fn grow_and_insert_tail(
        &self,
        chain: &mut [ChainEntry],
        tail: &[SeqElem],
        cache: &mut IngestCache,
    ) -> Result<u128> {
        let rem = tail.len() as u128;
        // Donor j must cover incarnations for chain[j+1..] plus the tail.
        let donor = (0..chain.len() - 1)
            .rev()
            .find(|&j| {
                let levels = (chain.len() - 1 - j) as u128;
                chain[j].state.available() >= levels + rem
            })
            .ok_or(Error::ScopeExhausted)?;
        self.store.meta_mut().deep_borrows += 1;
        let levels = (chain.len() - 1 - donor) as u128;
        let needed = levels + rem;
        let block = chain[donor].state.next;
        chain[donor].state.next += needed;
        chain[donor].state.k += 1;
        let donor_loc = chain[donor].loc;
        let donor_state = chain[donor].state;
        self.write_state(donor_loc, &donor_state)?;

        // One incarnation per level between the donor and the exhausted
        // parent, nested like a chain.
        let mut off = 0u128;
        #[allow(clippy::needless_range_loop)] // chain[lvl] is both read and written
        for lvl in donor + 1..chain.len() {
            let Loc::Node(dkid) = chain[lvl].loc else {
                return Err(Error::Corrupt("root cannot be incarnated".into()));
            };
            let inc = nested_state(block, off, needed);
            self.store.node_put(dkid, &inc)?;
            self.store
                .edge_put(chain[lvl].state.n, OVERFLOW_EDGE, inc.n)?;
            // Incarnations are extra S-Ancestor entries under the same
            // dkey (not counted by meta.node_count, which tracks virtual
            // trie nodes).
            self.store.stats_node_added(dkid);
            chain[lvl].state = inc;
            off += 1;
        }

        // Sequentially label the remaining elements, nested below the
        // parent's fresh incarnation.
        let mut prev_n = chain.last().expect("non-empty").state.n;
        for elem in tail {
            let dkid = self.dkid_cached(data_dkey(elem)?, cache)?;
            let state = nested_state(block, off, needed);
            self.store.node_put(dkid, &state)?;
            // Tail edges hang off fresh incarnations, not chain heads, so
            // they are deliberately NOT added to the edge cache (its keys
            // are chain-head labels).
            self.store.edge_put(prev_n, dkid, state.n)?;
            self.store.meta_mut().node_count += 1;
            self.store.stats_node_added(dkid);
            prev_n = state.n;
            off += 1;
        }
        Ok(prev_n)
    }

    fn write_state(&self, loc: Loc, state: &NodeState) -> Result<()> {
        match loc {
            Loc::Root => {
                self.store.meta_mut().root = *state;
                Ok(())
            }
            Loc::Node(dkid) => self.store.node_put(dkid, state),
        }
    }

    /// Remove a document (requires stored documents): write a tombstone,
    /// which masks its id from every answer of every tier, the delta's
    /// included. Nothing is unlinked: its records stay until
    /// [`VistIndex::compact`] leaves them out, as do the trie nodes it
    /// shares, in the paper's design. A tombstone is one B+Tree insert,
    /// reader-safe like any other, so removal runs beside queries.
    pub fn remove_document(&self, doc_id: DocId) -> Result<()> {
        let _w = self.writer.lock();
        self.require_documents()?;
        let stored = self.stored_bytes(doc_id, &self.tier.segments())?;
        if stored.is_none() || self.store.tomb_contains(doc_id)? {
            return Err(Error::NoSuchDocument(doc_id));
        }
        self.store.tomb_put(doc_id)?;
        let mut meta = self.store.meta_mut();
        meta.doc_count = meta.doc_count.saturating_sub(1);
        Ok(())
    }
}

/// Entry `off` of a block of `needed` labels from `block` that nests one
/// entry inside the one before: its scope runs to the block's end and its
/// one child (none for the last) fills the rest, so no label is left free.
fn nested_state(block: u128, off: u128, needed: u128) -> NodeState {
    NodeState {
        n: block + off,
        size: needed - off,
        next: block + needed,
        k: u64::from(off + 1 < needed),
    }
}

/// The D-Ancestor key of a data-sequence element: its symbol under its
/// prefix, which in a document has no wildcards.
pub(crate) fn data_dkey(elem: &SeqElem) -> Result<Vec<u8>> {
    let prefix = elem
        .prefix
        .as_concrete()
        .ok_or_else(|| Error::Corrupt("wildcard in data sequence".into()))?;
    Ok(dkey::encode(elem.sym, &prefix))
}
