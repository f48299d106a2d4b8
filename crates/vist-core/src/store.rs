//! The on-disk layout: five B+Trees sharing one buffer pool, plus a meta
//! page.
//!
//! | tree | key | value | role |
//! |---|---|---|---|
//! | `dancestor` | D-Ancestor key (`dkey`) | dkey-id (u64) | the paper's D-Ancestor B+Tree |
//! | `sancestor` | dkey-id ‖ `n` | `(size, next, k)` | the per-dkey S-Ancestor B+Trees, combined (as in the paper's experiments) into one tree keyed by dkey-id first |
//! | `docid` | `n` ‖ doc-id | — | the DocId B+Tree |
//! | `edges` | parent `n` ‖ dkey-id | child `n` | insert-path navigation: "search in e for the scope that is an immediate child of s". The paper inverts its closed-form allocation (Eq 4/6); our cursor-based allocator is not invertible, so the trie edge is stored explicitly. Queries never touch this tree. |
//! | `aux` | tagged | — | symbol table, sibling order, stored documents (chunked) |
//!
//! The *meta page* (the first page allocated) persists tree roots and
//! counters so the index can be reopened; a compaction's delta clear resets
//! the pager and allocates it first again.

use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use vist_btree::{codec::KeyWriter, BTree};
use vist_seq::{SiblingOrder, SymbolTable};
use vist_storage::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use vist_storage::{BufferPool, PageId};

use crate::error::{Error, Result};
use crate::search::{DkStats, SearchSource};

/// Identifier of an indexed document.
pub type DocId = u64;

const MAGIC: &[u8; 8] = b"VISTIDX1";

/// Allocation state of a virtual-suffix-tree node: its scope plus the
/// dynamic-allocation cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeState {
    /// Scope start (the node's label).
    pub n: u128,
    /// Scope width (`[n, n+size)`).
    pub size: u128,
    /// Next free label inside the scope (allocation cursor).
    pub next: u128,
    /// Number of child subscopes allocated (the paper's `k`).
    pub k: u64,
}

impl NodeState {
    /// Exclusive end of the scope.
    #[must_use]
    pub fn end(&self) -> u128 {
        self.n + self.size
    }

    /// Labels still unallocated inside this scope.
    #[must_use]
    pub fn available(&self) -> u128 {
        self.end() - self.next
    }
}

/// Mutable counters persisted in the meta page.
#[derive(Debug, Clone)]
pub struct Meta {
    /// Next D-Ancestor key id to assign.
    pub next_dkey: u64,
    /// Next document id to assign.
    pub next_doc: u64,
    /// The virtual root node's allocation state (label 0, scope = all).
    pub root: NodeState,
    /// Scope-allocation λ.
    pub lambda: u64,
    /// Adaptive divisor growth (see `alloc`).
    pub adaptive: bool,
    /// Whether original documents are stored (enables verification).
    pub store_documents: bool,
    /// Count of scope underflows resolved within the parent scope (sound).
    pub underflows: u64,
    /// Count of underflows that had to borrow from a non-parent ancestor —
    /// these can break S-Ancestor containment for the borrowed chain, the
    /// paper-faithful lossy case.
    pub deep_borrows: u64,
    /// Number of live documents.
    pub doc_count: u64,
    /// Number of virtual suffix tree nodes.
    pub node_count: u64,
    /// Generation of the delta's contents with respect to compaction.
    /// The tier manifest records the epoch its segment set expects; a
    /// reopened delta with a *smaller* epoch missed the post-compaction
    /// truncation (crash between manifest swap and delta flush) and is
    /// cleared again — see `VistIndex::open_tier`.
    pub delta_epoch: u64,
}

impl Meta {
    fn fresh(lambda: u64, adaptive: bool, store_documents: bool) -> Self {
        Meta {
            next_dkey: 0,
            next_doc: 0,
            root: NodeState {
                n: 0,
                size: vist_seq::MAX_SCOPE,
                next: 1,
                k: 0,
            },
            lambda,
            adaptive,
            store_documents,
            underflows: 0,
            deep_borrows: 0,
            doc_count: 0,
            node_count: 0,
            delta_epoch: 0,
        }
    }
}

/// The persistent store of [`crate::VistIndex`]'s delta.
pub struct Store {
    pool: Arc<BufferPool>,
    /// D-Ancestor tree.
    dancestor: BTree,
    /// Combined S-Ancestor tree.
    sancestor: BTree,
    /// DocId tree.
    docid: BTree,
    /// Trie-edge tree (insertion only).
    edges: BTree,
    /// Symbol table / order / documents.
    aux: BTree,
    /// Counters, behind a lock so mutators can take `&self` (see
    /// [`Store::meta`] / [`Store::meta_mut`]).
    meta: RwLock<Meta>,
    /// Planner statistics: the S-Ancestor entries of each dkid, counted
    /// from the tree at open and kept current by the insert walk.
    dkstats: RwLock<HashMap<u64, DkStats>>,
    meta_page: PageId,
    persisted_symbols: AtomicUsize,
}

// aux key tags
const AUX_SYMBOL: u8 = 1;
const AUX_ORDER: u8 = 2;
const AUX_DOC: u8 = 3;
const AUX_STATS: u8 = 4;
/// Delete tombstone: the one way a document leaves the index, whichever
/// tier holds it. Nothing is unlinked; every tier's answers are masked by
/// the tombstones instead, the delta's included. Compaction drops both the
/// tombstone and the masked document, and its delta reset is what reclaims
/// their pages.
const AUX_TOMB: u8 = 5;
// Tag 6 is retired: files written before the delta counted its planner
// statistics at open hold them there. Nothing reads them, and a
// compaction's reset drops them.

impl Store {
    /// Create a fresh store in `pool`.
    pub fn create(
        pool: Arc<BufferPool>,
        lambda: u64,
        adaptive: bool,
        store_documents: bool,
    ) -> Result<Self> {
        let meta_page = pool.allocate()?;
        let dancestor = BTree::create(Arc::clone(&pool))?;
        let sancestor = BTree::create(Arc::clone(&pool))?;
        let docid = BTree::create(Arc::clone(&pool))?;
        let edges = BTree::create(Arc::clone(&pool))?;
        let aux = BTree::create(Arc::clone(&pool))?;
        let store = Store {
            pool,
            dancestor,
            sancestor,
            docid,
            edges,
            aux,
            meta: RwLock::new(Meta::fresh(lambda, adaptive, store_documents)),
            dkstats: RwLock::new(HashMap::new()),
            meta_page,
            persisted_symbols: AtomicUsize::new(0),
        };
        store.write_meta()?;
        Ok(store)
    }

    /// Reopen a store previously flushed to `pool`'s backing file. Returns
    /// the store plus the persisted symbol table and sibling order.
    pub fn open(
        pool: Arc<BufferPool>,
        meta_page: PageId,
    ) -> Result<(Self, SymbolTable, SiblingOrder)> {
        let page = pool.fetch(meta_page)?;
        let buf = page.data();
        if &buf[0..8] != MAGIC {
            return Err(Error::Corrupt("bad index magic".into()));
        }
        let rd = |at: usize| -> u32 { u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()) };
        let rd64 = |at: usize| -> u64 { u64::from_le_bytes(buf[at..at + 8].try_into().unwrap()) };
        let rd128 =
            |at: usize| -> u128 { u128::from_le_bytes(buf[at..at + 16].try_into().unwrap()) };
        let roots = [rd(8), rd(12), rd(16), rd(20), rd(24)];
        let meta = Meta {
            next_dkey: rd64(28),
            next_doc: rd64(36),
            root: NodeState {
                n: 0,
                size: vist_seq::MAX_SCOPE,
                next: rd128(44),
                k: rd64(60),
            },
            lambda: rd64(68),
            adaptive: buf[76] != 0,
            store_documents: buf[77] != 0,
            underflows: rd64(78),
            deep_borrows: rd64(86),
            doc_count: rd64(94),
            node_count: rd64(102),
            delta_epoch: rd64(110),
        };
        drop(page);
        let dancestor = BTree::open(Arc::clone(&pool), roots[0])?;
        let sancestor = BTree::open(Arc::clone(&pool), roots[1])?;
        let docid = BTree::open(Arc::clone(&pool), roots[2])?;
        let edges = BTree::open(Arc::clone(&pool), roots[3])?;
        let aux = BTree::open(Arc::clone(&pool), roots[4])?;
        let store = Store {
            pool,
            dancestor,
            sancestor,
            docid,
            edges,
            aux,
            meta: RwLock::new(meta),
            dkstats: RwLock::new(HashMap::new()),
            meta_page,
            persisted_symbols: AtomicUsize::new(0),
        };
        *store.dkstats.write() = store.count_dkid_stats()?;
        let (table, order) = store.load_table_and_order()?;
        store
            .persisted_symbols
            .store(table.len(), Ordering::Relaxed);
        Ok((store, table, order))
    }

    /// Shared view of the persisted counters.
    pub fn meta(&self) -> RwLockReadGuard<'_, Meta> {
        self.meta.read()
    }

    /// Exclusive view of the persisted counters. Callers must be serialized
    /// by the index writer lock; do not hold the guard across B+Tree calls
    /// that themselves take `meta_mut`.
    pub fn meta_mut(&self) -> RwLockWriteGuard<'_, Meta> {
        self.meta.write()
    }

    fn write_meta(&self) -> Result<()> {
        let meta = self.meta.read();
        let mut page = self.pool.fetch_mut(self.meta_page)?;
        let buf = page.data_mut();
        buf[0..8].copy_from_slice(MAGIC);
        for (i, (_, tree)) in self.trees().into_iter().enumerate() {
            buf[8 + 4 * i..12 + 4 * i].copy_from_slice(&tree.root_page().to_le_bytes());
        }
        buf[28..36].copy_from_slice(&meta.next_dkey.to_le_bytes());
        buf[36..44].copy_from_slice(&meta.next_doc.to_le_bytes());
        buf[44..60].copy_from_slice(&meta.root.next.to_le_bytes());
        buf[60..68].copy_from_slice(&meta.root.k.to_le_bytes());
        buf[68..76].copy_from_slice(&meta.lambda.to_le_bytes());
        buf[76] = u8::from(meta.adaptive);
        buf[77] = u8::from(meta.store_documents);
        buf[78..86].copy_from_slice(&meta.underflows.to_le_bytes());
        buf[86..94].copy_from_slice(&meta.deep_borrows.to_le_bytes());
        buf[94..102].copy_from_slice(&meta.doc_count.to_le_bytes());
        buf[102..110].copy_from_slice(&meta.node_count.to_le_bytes());
        buf[110..118].copy_from_slice(&meta.delta_epoch.to_le_bytes());
        Ok(())
    }

    /// Persist counters, tree roots, new symbols, and the sibling order, then
    /// flush the pool to the backing store.
    pub fn flush(&self, table: &SymbolTable, order: &SiblingOrder) -> Result<()> {
        // Append newly interned symbols.
        for id in self.persisted_symbols.load(Ordering::Relaxed)..table.len() {
            let sym = vist_seq::Symbol(id as u32);
            let mut k = KeyWriter::new();
            k.u8(AUX_SYMBOL).u32(id as u32);
            self.aux.insert(k.as_slice(), table.name(sym).as_bytes())?;
        }
        self.persisted_symbols.store(table.len(), Ordering::Relaxed);
        // Order (rewritten each flush; small).
        if let SiblingOrder::Dtd(names) = order {
            for (i, n) in names.iter().enumerate() {
                let mut k = KeyWriter::new();
                k.u8(AUX_ORDER).u32(i as u32);
                self.aux.insert(k.as_slice(), n.as_bytes())?;
            }
        }
        self.write_meta()?;
        self.pool.flush()?;
        Ok(())
    }

    // ----- planner statistics -----

    /// The planner statistics of every dkid, from one key-order pass over
    /// the S-Ancestor tree: the length of each run of keys that share their
    /// eight-byte dkid prefix.
    fn count_dkid_stats(&self) -> Result<HashMap<u64, DkStats>> {
        let mut runs: Vec<(u64, u64)> = Vec::new();
        let mut bad = None;
        let visit = decoding(
            &mut bad,
            |k, _| Some(u64::from_be_bytes(k.get(..8)?.try_into().ok()?)),
            |_, dkid| {
                match runs.last_mut() {
                    Some((last, nodes)) if *last == dkid => *nodes += 1,
                    _ => runs.push((dkid, 1)),
                }
                ControlFlow::Continue(())
            },
        );
        self.sancestor.for_each_in(.., visit)?;
        refuse("sancestor", bad)?;
        Ok(runs
            .into_iter()
            .map(|(dkid, nodes)| (dkid, DkStats { nodes }))
            .collect())
    }

    /// Planner statistics for one D-Ancestor entry of the delta.
    #[must_use]
    pub fn dkid_stats(&self, dkid: u64) -> Option<DkStats> {
        self.dkstats.read().get(&dkid).copied()
    }

    /// Record an S-Ancestor node added under `dkid`.
    pub(crate) fn stats_node_added(&self, dkid: u64) {
        self.dkstats.write().entry(dkid).or_default().nodes += 1;
    }

    fn load_table_and_order(&self) -> Result<(SymbolTable, SiblingOrder)> {
        let mut table = SymbolTable::new();
        for item in self.aux.scan_prefix(&[AUX_SYMBOL])? {
            let (_, v) = item?;
            let name =
                String::from_utf8(v).map_err(|_| Error::Corrupt("non-UTF8 symbol name".into()))?;
            table.intern(&name);
        }
        let mut dtd = Vec::new();
        for item in self.aux.scan_prefix(&[AUX_ORDER])? {
            let (_, v) = item?;
            dtd.push(
                String::from_utf8(v).map_err(|_| Error::Corrupt("non-UTF8 order name".into()))?,
            );
        }
        let order = if dtd.is_empty() {
            SiblingOrder::Lexicographic
        } else {
            SiblingOrder::Dtd(dtd)
        };
        Ok((table, order))
    }

    /// The five trees by name, in the order the meta page lists their roots.
    fn trees(&self) -> [(&'static str, &BTree); 5] {
        [
            ("dancestor", &self.dancestor),
            ("sancestor", &self.sancestor),
            ("docid", &self.docid),
            ("edges", &self.edges),
            ("aux", &self.aux),
        ]
    }

    /// The shared buffer pool.
    #[must_use]
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Verify the structural invariants of every B+Tree in the store (used
    /// by `vist check` after crash recovery). Returns one entry per tree:
    /// `(name, None)` for a clean tree, `(name, Some(message))` otherwise.
    pub fn verify(&self) -> Vec<(&'static str, Option<String>)> {
        self.trees()
            .into_iter()
            .map(|(name, tree)| (name, tree.verify().err().map(|e| e.to_string())))
            .collect()
    }

    // ----- D-Ancestor tree -----

    /// Look up the id of a D-Ancestor key.
    pub fn dkey_get(&self, dkey: &[u8]) -> Result<Option<u64>> {
        self.dancestor
            .get_with(dkey, decode_dkid)?
            .map(|id| id.ok_or_else(|| malformed("dancestor", dkey)))
            .transpose()
    }

    /// Look up or allocate the id of a D-Ancestor key. Callers must be
    /// serialized by the index writer lock (ids would race otherwise).
    pub fn dkey_get_or_create(&self, dkey: &[u8]) -> Result<u64> {
        if let Some(id) = self.dkey_get(dkey)? {
            return Ok(id);
        }
        let id = {
            let mut meta = self.meta.write();
            let id = meta.next_dkey;
            meta.next_dkey += 1;
            id
        };
        self.dancestor.insert(dkey, &id.to_le_bytes())?;
        Ok(id)
    }

    // ----- S-Ancestor tree -----

    /// `dkey_id ‖ n`, big-endian. The three 24-byte index keys are built
    /// on the stack: a sweep makes two per scope.
    pub(crate) fn sanc_key(dkey_id: u64, n: u128) -> [u8; 24] {
        let mut k = [0u8; 24];
        k[..8].copy_from_slice(&dkey_id.to_be_bytes());
        k[8..].copy_from_slice(&n.to_be_bytes());
        k
    }

    pub(crate) fn encode_node(state: &NodeState) -> [u8; 40] {
        let mut v = [0u8; 40];
        v[0..16].copy_from_slice(&state.size.to_le_bytes());
        v[16..32].copy_from_slice(&state.next.to_le_bytes());
        v[32..40].copy_from_slice(&state.k.to_le_bytes());
        v
    }

    /// `None` for a value that is not the 40 bytes [`Store::encode_node`]
    /// writes.
    pub(crate) fn decode_node(n: u128, v: &[u8]) -> Option<NodeState> {
        let v: &[u8; 40] = v.try_into().ok()?;
        Some(NodeState {
            n,
            size: u128::from_le_bytes(v[0..16].try_into().ok()?),
            next: u128::from_le_bytes(v[16..32].try_into().ok()?),
            k: u64::from_le_bytes(v[32..40].try_into().ok()?),
        })
    }

    /// Read a node's allocation state.
    pub fn node_get(&self, dkey_id: u64, n: u128) -> Result<Option<NodeState>> {
        let key = Self::sanc_key(dkey_id, n);
        self.sancestor
            .get_with(&key, |v| Self::decode_node(n, v))?
            .map(|state| state.ok_or_else(|| malformed("sancestor", &key)))
            .transpose()
    }

    /// Write a node's allocation state.
    pub fn node_put(&self, dkey_id: u64, state: &NodeState) -> Result<()> {
        self.sancestor
            .insert(&Self::sanc_key(dkey_id, state.n), &Self::encode_node(state))?;
        Ok(())
    }

    // ----- edges tree -----

    /// `n ‖ id`, big-endian: the layout of both edge and DocId keys.
    fn label_key(n: u128, id: u64) -> [u8; 24] {
        let mut k = [0u8; 24];
        k[..16].copy_from_slice(&n.to_be_bytes());
        k[16..].copy_from_slice(&id.to_be_bytes());
        k
    }

    fn edge_key(parent_n: u128, dkey_id: u64) -> [u8; 24] {
        Self::label_key(parent_n, dkey_id)
    }

    /// The immediate child of node `parent_n` for D-Ancestor entry `dkey_id`.
    pub fn edge_get(&self, parent_n: u128, dkey_id: u64) -> Result<Option<u128>> {
        let key = Self::edge_key(parent_n, dkey_id);
        self.edges
            .get_with(&key, |v| Some(u128::from_le_bytes(v.try_into().ok()?)))?
            .map(|child| child.ok_or_else(|| malformed("edges", &key)))
            .transpose()
    }

    /// Record the immediate child of `parent_n` for `dkey_id`.
    pub fn edge_put(&self, parent_n: u128, dkey_id: u64, child_n: u128) -> Result<()> {
        self.edges
            .insert(&Self::edge_key(parent_n, dkey_id), &child_n.to_le_bytes())?;
        Ok(())
    }

    // ----- DocId tree -----

    pub(crate) fn docid_key(n: u128, doc: DocId) -> [u8; 24] {
        Self::label_key(n, doc)
    }

    /// Attach a document id to node `n`.
    pub fn docid_put(&self, n: u128, doc: DocId) -> Result<()> {
        self.docid.insert(&Self::docid_key(n, doc), &[])?;
        Ok(())
    }

    // ----- stored documents (aux, chunked) -----

    pub(crate) fn doc_chunk_key(doc: DocId, chunk: u32) -> Vec<u8> {
        let mut k = KeyWriter::with_capacity(13);
        k.u8(AUX_DOC).u64(doc).u32(chunk);
        k.finish()
    }

    /// Store a document's XML text (chunked to fit pages).
    pub fn doc_put(&self, doc: DocId, xml: &[u8]) -> Result<()> {
        let chunk_size = self.aux.max_record() - 16;
        for (i, chunk) in xml.chunks(chunk_size.max(1)).enumerate() {
            self.aux
                .insert(&Self::doc_chunk_key(doc, i as u32), chunk)?;
        }
        // Empty documents still need a presence marker.
        if xml.is_empty() {
            self.aux.insert(&Self::doc_chunk_key(doc, 0), &[])?;
        }
        Ok(())
    }

    /// Fetch a stored document's XML text (see [`join_chunks`]).
    pub fn doc_get(&self, doc: DocId) -> Result<Option<Vec<u8>>> {
        let mut prefix = KeyWriter::with_capacity(9);
        prefix.u8(AUX_DOC).u64(doc);
        join_chunks(
            self.aux.scan_prefix(prefix.as_slice())?,
            format_args!("delta: aux tree"),
            doc,
            |k| decode_fixed_doc_key(k.strip_prefix(&[AUX_DOC])?),
        )
    }

    // ----- delete tombstones (aux) -----

    fn tomb_key(doc: DocId) -> Vec<u8> {
        let mut k = KeyWriter::with_capacity(9);
        k.u8(AUX_TOMB).u64(doc);
        k.finish()
    }

    /// Mark a document as deleted, whichever tier holds it.
    pub(crate) fn tomb_put(&self, doc: DocId) -> Result<()> {
        self.aux.insert(&Self::tomb_key(doc), &[])?;
        Ok(())
    }

    /// Whether `doc` carries a delete tombstone.
    pub(crate) fn tomb_contains(&self, doc: DocId) -> Result<bool> {
        Ok(self.aux.contains(&Self::tomb_key(doc))?)
    }

    /// All tombstoned document ids, ascending.
    pub(crate) fn tomb_ids(&self) -> Result<Vec<DocId>> {
        let mut out = Vec::new();
        for item in self.aux.scan_prefix(&[AUX_TOMB])? {
            let (k, _) = item?;
            let id = k.get(1..).and_then(|id| <[u8; 8]>::try_from(id).ok());
            out.push(u64::from_be_bytes(id.ok_or_else(|| malformed("aux", &k))?));
        }
        Ok(out)
    }

    /// Truncate the delta after a compaction folded it into a packed
    /// segment: reset the pool, forgetting every page of the five trees (aux
    /// too), allocate the meta page and five empty roots again in
    /// [`Store::create`]'s order, and reset the planner statistics and
    /// per-delta counters. The globals aux held (symbols, sibling order,
    /// stats model) live on in memory, with `next_doc` and `doc_count`.
    /// `new_epoch` stamps the truncation so a reopen can tell whether it was
    /// persisted (see [`Meta::delta_epoch`]). Callers hold the writer lock,
    /// exclude readers, and commit afterwards with `VistIndex::commit_locked`
    /// (a bare [`Store::flush`] would leave out the stats model).
    pub(crate) fn clear_delta(&self, new_epoch: u64) -> Result<()> {
        self.pool.reset()?;
        let meta_page = self.pool.allocate()?;
        if meta_page != self.meta_page {
            return Err(Error::Corrupt(format!(
                "a reset store allocated page {meta_page} first, not meta page {}",
                self.meta_page
            )));
        }
        for (_, tree) in self.trees() {
            tree.clear()?;
        }
        self.persisted_symbols.store(0, Ordering::Relaxed);
        self.dkstats.write().clear();
        let mut meta = self.meta.write();
        meta.next_dkey = 0;
        meta.root = NodeState {
            n: 0,
            size: vist_seq::MAX_SCOPE,
            next: 1,
            k: 0,
        };
        meta.node_count = 0;
        meta.delta_epoch = new_epoch;
        Ok(())
    }

    /// Total bytes of the backing store.
    #[must_use]
    pub fn store_bytes(&self) -> u64 {
        self.pool.store_bytes()
    }

    /// Persist a statistics model (allocation clues) so it survives reopen.
    pub fn save_stats_model(&self, model: &crate::alloc::StatsModel) -> Result<()> {
        for (cur, next, p) in model.to_triples() {
            let mut k = vec![AUX_STATS];
            k.extend_from_slice(&cur.encode());
            k.extend_from_slice(&next.encode());
            self.aux.insert(&k, &p.to_le_bytes())?;
        }
        Ok(())
    }

    /// Load a persisted statistics model, if any transitions were saved.
    pub fn load_stats_model(&self) -> Result<Option<crate::alloc::StatsModel>> {
        let mut triples = Vec::new();
        for item in self.aux.scan_prefix(&[AUX_STATS])? {
            let (k, v) = item?;
            let (cur, used) = vist_seq::Sym::decode(&k[1..]);
            let (next, _) = vist_seq::Sym::decode(&k[1 + used..]);
            let p = f64::from_le_bytes(
                v.try_into()
                    .map_err(|_| Error::Corrupt("bad stats value".into()))?,
            );
            triples.push((cur, next, p));
        }
        if triples.is_empty() {
            Ok(None)
        } else {
            Ok(Some(crate::alloc::StatsModel::from_triples(triples)))
        }
    }

    /// Per-tree space accounting (O(pages); for experiments/tooling).
    pub fn tree_breakdown(&self) -> Result<StoreBreakdown> {
        Ok(StoreBreakdown {
            dancestor: self.dancestor.tree_stats()?,
            sancestor: self.sancestor.tree_stats()?,
            docid: self.docid.tree_stats()?,
            edges: self.edges.tree_stats()?,
            aux: self.aux.tree_stats()?,
            stats: vist_btree::TreeStats::default(),
        })
    }
}

/// The id a D-Ancestor record holds: the eight bytes
/// [`Store::dkey_get_or_create`] writes, nothing else.
pub(crate) fn decode_dkid(v: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(v.try_into().ok()?))
}

/// `(n, doc-id)` of a 24-byte [`Store::docid_key`].
pub(crate) fn decode_docid(k: &[u8]) -> Option<(u128, DocId)> {
    let k: &[u8; 24] = k.try_into().ok()?;
    Some((
        u128::from_be_bytes(k[..16].try_into().ok()?),
        u64::from_be_bytes(k[16..].try_into().ok()?),
    ))
}

/// A stored document's text from the records under its key prefix: keys
/// `decode` as `(doc, chunk)` with chunks 0, 1, 2, …, or the tree (`tree`
/// names it and its tier) is [`Error::Corrupt`]. `None` when none is found.
pub(crate) fn join_chunks(
    records: vist_btree::Scan<'_>,
    tree: std::fmt::Arguments<'_>,
    doc: DocId,
    decode: impl Fn(&[u8]) -> Option<(DocId, u128)>,
) -> Result<Option<Vec<u8>>> {
    let (mut out, mut next) = (Vec::new(), 0u128);
    for item in records {
        let (k, v) = item?;
        if decode(&k) != Some((doc, next)) {
            let msg = format!("{tree}: key {k:02x?} is not chunk {next} of document {doc}");
            return Err(Error::Corrupt(msg));
        }
        out.extend_from_slice(&v);
        next += 1;
    }
    Ok((next > 0).then_some(out))
}

/// A `doc u64 ‖ chunk u32` key, big-endian: a v1 segment's, the delta's
/// after its tag byte.
pub(crate) fn decode_fixed_doc_key(k: &[u8]) -> Option<(DocId, u128)> {
    let k: &[u8; 12] = k.try_into().ok()?;
    let (doc, chunk) = (k[..8].try_into().ok()?, k[8..].try_into().ok()?);
    Some((u64::from_be_bytes(doc), u32::from_be_bytes(chunk).into()))
}

/// The error for a record of the delta's `tree` that no writer of it
/// produces: the page passed its checksum, so the bytes are wrong, not torn.
fn malformed(tree: &str, key: &[u8]) -> Error {
    Error::Corrupt(format!(
        "delta: {tree} tree: malformed record at key {key:02x?}"
    ))
}

/// `Ok` unless a walk of the delta's `tree` left the key of a record its
/// decoder refused in `bad`.
fn refuse(tree: &str, bad: Option<Vec<u8>>) -> Result<()> {
    bad.map_or(Ok(()), |key| Err(malformed(tree, &key)))
}

/// A cursor visitor that decodes each record and hands `f` its key and what
/// `decode` made of it. A record `decode` refuses ends the walk with its key
/// left in `bad`, for the caller to name in its error.
pub(crate) fn decoding<'a, T>(
    bad: &'a mut Option<Vec<u8>>,
    decode: impl Fn(&[u8], &[u8]) -> Option<T> + 'a,
    mut f: impl FnMut(&[u8], T) -> ControlFlow<()> + 'a,
) -> impl FnMut(&[u8], &[u8]) -> ControlFlow<()> + 'a {
    move |k, v| match decode(k, v) {
        Some(record) => f(k, record),
        None => {
            *bad = Some(k.to_vec());
            ControlFlow::Break(())
        }
    }
}

/// Algorithm 2's probes of the delta. The callbacks run under a leaf latch
/// and must not touch the buffer pool (see
/// [`vist_btree::BTree::for_each_in`]).
impl SearchSource for Store {
    fn dkey_get(&self, dkey: &[u8]) -> Result<Option<u64>> {
        Store::dkey_get(self, dkey)
    }

    fn dkey_scan_range(
        &self,
        lo: &[u8],
        hi: &[u8],
        f: &mut dyn FnMut(&[u8], u64) -> ControlFlow<()>,
    ) -> Result<()> {
        let mut bad = None;
        let visit = decoding(&mut bad, |_, v| decode_dkid(v), f);
        self.dancestor.for_each_in(lo..hi, visit)?;
        refuse("dancestor", bad)
    }

    fn nodes_in_scopes(
        &self,
        dkey_id: u64,
        scopes: &[(u128, u128)],
        f: &mut dyn FnMut(NodeState) -> ControlFlow<()>,
    ) -> Result<()> {
        let mut bad = None;
        let visit = decoding(
            &mut bad,
            |k, v| {
                let k: &[u8; 24] = k.try_into().ok()?;
                Self::decode_node(u128::from_be_bytes(k[8..].try_into().ok()?), v)
            },
            |_, node| f(node),
        );
        self.sancestor.for_each_in_ranges(
            scopes.len(),
            |i, lo, hi| {
                lo.extend_from_slice(&Self::sanc_key(dkey_id, scopes[i].0));
                hi.extend_from_slice(&Self::sanc_key(dkey_id, scopes[i].1));
            },
            visit,
        )?;
        refuse("sancestor", bad)
    }

    fn docids_in_scopes(
        &self,
        scopes: &[(u128, u128)],
        f: &mut dyn FnMut(u128, DocId) -> ControlFlow<()>,
    ) -> Result<()> {
        let mut bad = None;
        let visit = decoding(&mut bad, |k, _| decode_docid(k), |_, (n, doc)| f(n, doc));
        // The cursor's ranges are open at both ends, a scope is closed at
        // `lo`, and doc ids start at 0: the label alone, a proper prefix of
        // every `(lo, doc)` key, sorts immediately before the first of them.
        self.docid.for_each_in_ranges(
            scopes.len(),
            |i, lo, hi| {
                lo.extend_from_slice(&scopes[i].0.to_be_bytes());
                hi.extend_from_slice(&scopes[i].1.to_be_bytes());
            },
            visit,
        )?;
        refuse("docid", bad)
    }

    fn dkid_stats(&self, dkid: u64) -> Option<DkStats> {
        Store::dkid_stats(self, dkid)
    }
}

/// Space statistics of every tree in the store (Figure 11a's breakdown).
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreBreakdown {
    /// The D-Ancestor tree.
    pub dancestor: vist_btree::TreeStats,
    /// The combined S-Ancestor tree.
    pub sancestor: vist_btree::TreeStats,
    /// The DocId tree.
    pub docid: vist_btree::TreeStats,
    /// The insert-path edges tree.
    pub edges: vist_btree::TreeStats,
    /// Symbol table / order / stored documents.
    pub aux: vist_btree::TreeStats,
    /// The packed statistics tree (segments only — the delta counts its
    /// planner statistics at open and keeps them in memory).
    pub stats: vist_btree::TreeStats,
}

impl StoreBreakdown {
    /// The paper's "combined D-Ancestor and S-Ancestor B+Trees" bytes.
    #[must_use]
    pub fn ds_ancestor_bytes(&self) -> u64 {
        self.dancestor.total_bytes + self.sancestor.total_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vist_storage::{FilePager, MemPager};

    fn nodes_in(s: &Store, dkid: u64, lo: u128, hi: u128) -> Vec<NodeState> {
        let mut out = Vec::new();
        s.nodes_in_scopes(dkid, &[(lo, hi)], &mut |node| {
            out.push(node);
            ControlFlow::Continue(())
        })
        .unwrap();
        out
    }

    fn docids_in(s: &Store, scopes: &[(u128, u128)]) -> Vec<DocId> {
        let mut out = Vec::new();
        s.docids_in_scopes(scopes, &mut |_, doc| {
            out.push(doc);
            ControlFlow::Continue(())
        })
        .unwrap();
        out
    }

    fn mem_store() -> Store {
        let pool = Arc::new(BufferPool::with_capacity(MemPager::new(4096), 128));
        Store::create(pool, 2, true, true).unwrap()
    }

    #[test]
    fn dkey_ids_are_stable_and_dense() {
        let s = mem_store();
        let a = s.dkey_get_or_create(b"alpha").unwrap();
        let b = s.dkey_get_or_create(b"beta").unwrap();
        assert_eq!((a, b), (0, 1));
        assert_eq!(s.dkey_get_or_create(b"alpha").unwrap(), 0);
        assert_eq!(s.dkey_get(b"gamma").unwrap(), None);
    }

    #[test]
    fn node_state_roundtrip_and_scope_scan() {
        let s = mem_store();
        let id = s.dkey_get_or_create(b"k").unwrap();
        for n in [10u128, 20, 30] {
            s.node_put(
                id,
                &NodeState {
                    n,
                    size: 5,
                    next: n + 1,
                    k: 0,
                },
            )
            .unwrap();
        }
        assert_eq!(
            s.node_get(id, 20).unwrap(),
            Some(NodeState {
                n: 20,
                size: 5,
                next: 21,
                k: 0
            })
        );
        assert_eq!(s.node_get(id, 21).unwrap(), None);
        // (10, 30) exclusive: only n=20.
        let hits = nodes_in(&s, id, 10, 30);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].n, 20);
        // Other dkey ids are invisible.
        let other = s.dkey_get_or_create(b"other").unwrap();
        assert!(nodes_in(&s, other, 0, 1000).is_empty());
    }

    #[test]
    fn docid_range_queries() {
        let s = mem_store();
        s.docid_put(100, 1).unwrap();
        s.docid_put(100, 2).unwrap();
        s.docid_put(150, 3).unwrap();
        s.docid_put(200, 4).unwrap();
        assert_eq!(docids_in(&s, &[(100, 200)]), vec![1, 2, 3]);
        assert_eq!(docids_in(&s, &[(100, 201)]), vec![1, 2, 3, 4]);
        assert_eq!(docids_in(&s, &[(101, 150)]), Vec::<DocId>::new());

        // Many scopes in one pass. A scope is closed at `lo` — document 0
        // posted exactly there is the first key of the label — and open at
        // `hi`.
        s.docid_put(100, 0).unwrap();
        s.docid_put(0, 9).unwrap();
        assert_eq!(docids_in(&s, &[]), Vec::<DocId>::new());
        assert_eq!(docids_in(&s, &[(100, 200)]), vec![0, 1, 2, 3]);
        assert_eq!(
            docids_in(&s, &[(100, 101)]),
            vec![0, 1, 2],
            "a single label"
        );
        assert_eq!(docids_in(&s, &[(99, 100), (101, 150)]), Vec::<DocId>::new());
        assert_eq!(
            docids_in(&s, &[(100, 150), (150, 200)]),
            vec![0, 1, 2, 3],
            "adjacent"
        );
        assert_eq!(
            docids_in(&s, &[(0, 1), (150, 151), (200, 201)]),
            vec![9, 3, 4]
        );
        assert_eq!(
            docids_in(&s, &[(0, 100), (200, 300), (1_000, vist_seq::MAX_SCOPE)]),
            vec![9, 4],
            "past the last posting"
        );
        assert_eq!(
            docids_in(&s, &[(0, vist_seq::MAX_SCOPE)]),
            vec![9, 0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn edges_navigation() {
        let s = mem_store();
        s.edge_put(0, 7, 42).unwrap();
        assert_eq!(s.edge_get(0, 7).unwrap(), Some(42));
        assert_eq!(s.edge_get(0, 8).unwrap(), None);
        assert_eq!(s.edge_get(1, 7).unwrap(), None);
    }

    #[test]
    fn documents_chunked_roundtrip() {
        let s = mem_store();
        let small = b"<a/>".to_vec();
        let big = vec![b'x'; 20_000]; // spans many chunks
        s.doc_put(1, &small).unwrap();
        s.doc_put(2, &big).unwrap();
        assert_eq!(s.doc_get(1).unwrap(), Some(small));
        assert_eq!(s.doc_get(2).unwrap(), Some(big));
        assert_eq!(s.doc_get(3).unwrap(), None);
    }

    #[test]
    fn a_stored_document_with_a_chunk_out_of_turn_is_corrupt() {
        let s = mem_store();
        s.doc_put(1, b"<a/>").unwrap();
        // Chunks 0 and 2, no chunk 1: the concatenation would read as text.
        s.aux.insert(&Store::doc_chunk_key(5, 0), b"<r>x").unwrap();
        s.aux.insert(&Store::doc_chunk_key(5, 2), b"y</r>").unwrap();
        match s.doc_get(5) {
            Err(Error::Corrupt(msg)) => {
                assert!(msg.starts_with("delta: aux tree:"), "{msg}");
                assert!(msg.ends_with("is not chunk 1 of document 5"), "{msg}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // A record under the document's prefix that is no chunk key.
        let mut odd = Store::doc_chunk_key(6, 0);
        odd.push(0);
        s.aux.insert(&odd, b"<r/>").unwrap();
        assert!(matches!(s.doc_get(6), Err(Error::Corrupt(_))));
        assert_eq!(s.doc_get(1).unwrap(), Some(b"<a/>".to_vec()));
    }

    #[test]
    fn flush_and_reopen_preserves_everything() {
        let path = std::env::temp_dir().join(format!("vist-store-{}", std::process::id()));
        let meta_page;
        {
            let pager = FilePager::create(&path, 4096).unwrap();
            let pool = Arc::new(BufferPool::with_capacity(pager, 64));
            let s = Store::create(pool, 3, true, true).unwrap();
            meta_page = 1; // first allocation in a FilePager
            let id = s.dkey_get_or_create(b"key1").unwrap();
            s.node_put(
                id,
                &NodeState {
                    n: 5,
                    size: 100,
                    next: 6,
                    k: 2,
                },
            )
            .unwrap();
            s.docid_put(5, 77).unwrap();
            s.doc_put(77, b"<x/>").unwrap();
            s.meta_mut().next_doc = 78;
            s.meta_mut().doc_count = 1;
            let mut table = SymbolTable::new();
            table.intern("purchase");
            table.intern("seller");
            s.flush(&table, &SiblingOrder::Dtd(vec!["purchase".into()]))
                .unwrap();
        }
        {
            let pager = FilePager::open(&path).unwrap();
            let pool = Arc::new(BufferPool::with_capacity(pager, 64));
            let (s, table, order) = Store::open(pool, meta_page).unwrap();
            assert_eq!(s.meta().lambda, 3);
            assert_eq!(s.meta().next_doc, 78);
            assert_eq!(s.meta().doc_count, 1);
            assert_eq!(table.len(), 2);
            assert!(table.lookup("seller").is_some());
            assert!(matches!(order, SiblingOrder::Dtd(v) if v == vec!["purchase".to_string()]));
            let id = s.dkey_get(b"key1").unwrap().unwrap();
            assert_eq!(
                s.node_get(id, 5).unwrap(),
                Some(NodeState {
                    n: 5,
                    size: 100,
                    next: 6,
                    k: 2
                })
            );
            assert_eq!(docids_in(&s, &[(5, 6)]), vec![77]);
            assert_eq!(s.doc_get(77).unwrap(), Some(b"<x/>".to_vec()));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tombstones_roundtrip() {
        let s = mem_store();
        assert!(!s.tomb_contains(7).unwrap());
        s.tomb_put(7).unwrap();
        s.tomb_put(3).unwrap();
        assert!(s.tomb_contains(7).unwrap());
        assert_eq!(s.tomb_ids().unwrap(), vec![3, 7]);
    }

    #[test]
    fn clear_delta_keeps_globals_drops_index() {
        let s = mem_store();
        let id = s.dkey_get_or_create(b"k").unwrap();
        s.node_put(
            id,
            &NodeState {
                n: 5,
                size: 10,
                next: 6,
                k: 0,
            },
        )
        .unwrap();
        s.docid_put(5, 1).unwrap();
        s.doc_put(1, b"<x/>").unwrap();
        s.tomb_put(2).unwrap();
        s.meta_mut().next_doc = 2;
        s.meta_mut().doc_count = 1;
        s.meta_mut().node_count = 1;
        s.stats_node_added(id);
        let mut table = SymbolTable::new();
        for name in ["purchase", "seller", "item"] {
            table.intern(name);
        }
        let order = SiblingOrder::Dtd(vec!["seller".into(), "item".into()]);
        s.flush(&table, &order).unwrap();
        assert_eq!(s.dkid_stats(id), Some(DkStats { nodes: 1 }));
        s.clear_delta(1).unwrap();
        assert_eq!(s.dkey_get(b"k").unwrap(), None);
        assert_eq!(s.node_get(id, 5).unwrap(), None);
        assert!(docids_in(&s, &[(0, 1000)]).is_empty());
        assert_eq!(s.doc_get(1).unwrap(), None);
        assert!(s.tomb_ids().unwrap().is_empty());
        assert_eq!(s.dkid_stats(id), None);
        {
            let meta = s.meta();
            assert_eq!(meta.next_dkey, 0);
            assert_eq!(meta.node_count, 0);
            assert_eq!(meta.delta_epoch, 1);
            assert_eq!(meta.next_doc, 2, "global doc counter survives");
            assert_eq!(meta.doc_count, 1, "global doc count survives");
        }
        // The clear emptied aux whole; the next flush writes the globals
        // back, and nothing of the old delta's statistics.
        s.flush(&table, &order).unwrap();
        let (s, got, got_order) = Store::open(Arc::clone(s.pool()), s.meta_page).unwrap();
        assert_eq!(got.len(), table.len());
        for name in ["purchase", "seller", "item"] {
            assert_eq!(got.lookup(name), table.lookup(name), "{name}");
        }
        assert!(matches!(got_order, SiblingOrder::Dtd(v) if v == ["seller", "item"]));
        assert_eq!(s.dkid_stats(id), None);
        assert_eq!(s.meta().delta_epoch, 1);
    }

    #[test]
    fn a_flush_writes_no_statistics_and_a_reopen_counts_them() {
        let s = mem_store();
        let (a, b) = (
            s.dkey_get_or_create(b"a").unwrap(),
            s.dkey_get_or_create(b"b").unwrap(),
        );
        // Keys sort by dkid first: runs of `a`, then of `b`, with a label
        // of `b` between two of `a`'s.
        for (dkid, n) in [(a, 10), (b, 20), (a, 30), (a, 40), (b, 50)] {
            let state = NodeState {
                n,
                size: 1,
                next: n + 1,
                k: 0,
            };
            s.node_put(dkid, &state).unwrap();
            s.stats_node_added(dkid);
        }
        let unused = s.dkey_get_or_create(b"c").unwrap();
        s.flush(&SymbolTable::new(), &SiblingOrder::Lexicographic)
            .unwrap();
        // Tag 6 held the statistics records of older files.
        assert!(s.aux.scan_prefix(&[6]).unwrap().next().is_none());
        let counts = |s: &Store| [a, b, unused].map(|id| s.dkid_stats(id).map(|st| st.nodes));
        assert_eq!(counts(&s), [Some(3), Some(2), None]);
        let (reopened, ..) = Store::open(Arc::clone(s.pool()), s.meta_page).unwrap();
        assert_eq!(counts(&reopened), counts(&s));
    }

    #[test]
    fn open_rejects_garbage_meta() {
        let pool = Arc::new(BufferPool::with_capacity(MemPager::new(4096), 16));
        let pid = pool.allocate().unwrap();
        assert!(matches!(Store::open(pool, pid), Err(Error::Corrupt(_))));
    }
}
