//! The read-only half of the tiered index: packed segments.
//!
//! A segment is one ingest batch (or one compaction's worth of the whole
//! index) converted to structure-encoded sequences, labeled **statically**
//! by preorder rank and subtree size — the RIST labeling, which is exact
//! and never underflows — and bulk-loaded into five B+Trees of densely
//! packed leaves in a single [`vist_btree::SegmentWriter`] file:
//!
//! | slot | tree | key | value |
//! |---|---|---|---|
//! | 0 | D-Ancestor | dkey bytes | dkey-id |
//! | 1 | S-Ancestor | dkey-id ‖ `n` | `size`, `k` (`next` is `n + size`) |
//! | 2 | DocId | `n` ‖ doc-id | — |
//! | 3 | documents | doc-id ‖ chunk | XML bytes |
//! | 4 | statistics | dkey-id | `nodes` |
//!
//! The first three hold what the delta's [`Store`] trees hold, so one
//! [`SearchSource`] impl serves Algorithm 2 unchanged, but not in the same
//! bytes. A segment's labels are preorder ranks and subtree counts — small
//! numbers — so its records ([`Codec::V2`]) spend bytes on magnitude:
//! every integer key component is a [`vist_btree::codec::put_ordered_uint`]
//! (variable length, order-preserving and prefix-free, so the scope and
//! range probes of the fixed-width keys work unchanged), every integer value
//! a LEB128 varint. This file is the only place segment records are encoded
//! or decoded; the delta keeps the fixed-width codecs of [`Store`], and a
//! segment written before format 2 is read through them ([`Codec::V1`])
//! until the next compaction rewrites it.
//!
//! The `edges` tree is *not* packed — it only supports inserts, and segments
//! never take any. Each segment is its own label space: queries run the
//! match per source and union document ids. The statistics tree is exact
//! (computed from the labeled trie at build time) and loaded whole at
//! open — it feeds the query planner's selectivity estimates; segments
//! packed before it existed open with an empty map and plan from
//! candidate counts instead.
//!
//! [`SegmentBuilder`] is the static build: documents stream in once, in
//! ascending id order, as key paths (the dkeys of their sequences, which a
//! compaction reads back from the index) into a shared in-memory trie. Their
//! XML needs no label, and ascending ids are the documents tree's key order,
//! so it goes straight into that tree, whose pages come first in the file.
//! The trie is labeled in one preorder pass; every S-Ancestor and DocId
//! record comes from it, sorted in memory, and the other trees follow; the
//! trees take their slots in the header table in the order above.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use std::ops::ControlFlow;

use vist_btree::codec::{
    put_ordered_uint, put_varint, take_ordered_uint, take_varint, ORDERED_UINT_MAX,
};
use vist_btree::{PackedTree, SegmentReader, SegmentWriter, TreeBuilder};
use vist_storage::{BufferPool, FrameFile, Vfs};

use crate::error::{Error, Result};
use crate::search::{DkStats, SearchSource};
use crate::store::{self, decoding, join_chunks, DocId, NodeState, Store, StoreBreakdown};

/// Fixed-width prefix of the segment meta blob: doc, node and dkey counts
/// plus the highest document id packed (the reopen-reconciliation
/// watermark — see `VistIndex::open_tier`).
const META_LEN: usize = 32;

/// An index key of up to two integer components, built on the stack: the
/// sweep makes two per scope.
struct Key {
    buf: [u8; 2 * ORDERED_UINT_MAX],
    len: usize,
}

impl Key {
    #[inline]
    fn new() -> Self {
        Key {
            buf: [0; 2 * ORDERED_UINT_MAX],
            len: 0,
        }
    }

    #[inline]
    fn bytes(mut self, bytes: &[u8]) -> Self {
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
        self
    }

    #[inline]
    fn uint(mut self, v: u128) -> Self {
        // Two components always leave room for a whole encoding buffer.
        let room = &mut self.buf[self.len..self.len + ORDERED_UINT_MAX];
        let room: &mut [u8; ORDERED_UINT_MAX] = room.try_into().expect("17 bytes");
        self.len += put_ordered_uint(room, v);
        self
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

/// The record encoding of a segment, chosen by its header's format version.
/// Encoders are total; decoders return `None` for bytes no encoder writes
/// (the caller names the segment and the tree in the error).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Codec {
    /// Format 1, read-only: the delta's fixed-width records — 24-byte
    /// big-endian keys, a 40-byte `size ‖ next ‖ k` node, `u64` LE ids and
    /// counters, `doc u64 ‖ chunk u32` big-endian document keys.
    V1,
    /// Format 2, what [`SegmentBuilder`] writes: see the module docs.
    V2,
}

fn take_u64(buf: &mut &[u8]) -> Option<u64> {
    u64::try_from(take_varint(buf)?).ok()
}

impl Codec {
    /// S-Ancestor key `dkey-id ‖ n`.
    #[inline]
    fn sanc_key(self, dkid: u64, n: u128) -> Key {
        match self {
            Codec::V1 => Key::new().bytes(&Store::sanc_key(dkid, n)),
            Codec::V2 => Key::new().uint(dkid.into()).uint(n),
        }
    }

    /// An S-Ancestor record met by a scope probe of one dkey-id. Two keys
    /// that start with the same component have only such keys between
    /// them, so the dkey-id of `k` is the probe's and is stepped over.
    #[inline]
    fn decode_sanc(self, k: &[u8], mut v: &[u8]) -> Option<NodeState> {
        match self {
            Codec::V1 => {
                let k: &[u8; 24] = k.try_into().ok()?;
                Store::decode_node(u128::from_be_bytes(k[8..].try_into().ok()?), v)
            }
            Codec::V2 => {
                let mut k = k.get(1 + usize::from(*k.first()?)..)?;
                let n = take_ordered_uint(&mut k)?;
                let size = take_varint(&mut v)?;
                let state = NodeState {
                    n,
                    size,
                    next: n.checked_add(size)?,
                    k: take_u64(&mut v)?,
                };
                (k.is_empty() && v.is_empty()).then_some(state)
            }
        }
    }

    fn encode_sanc_value(state: &NodeState) -> Vec<u8> {
        debug_assert_eq!(state.next, state.n + state.size, "static labels");
        let mut v = Vec::with_capacity(4);
        put_varint(&mut v, state.size);
        put_varint(&mut v, state.k.into());
        v
    }

    /// The label component of a DocId key alone: a proper prefix of every
    /// `(n, doc)` key, so it sorts immediately before the first posting of
    /// `n` and after the last of any smaller label — the bound of a scope
    /// `[lo, hi)` at either end under the cursor's exclusive ranges.
    fn docid_bound(self, n: u128) -> Key {
        match self {
            Codec::V1 => Key::new().bytes(&n.to_be_bytes()),
            Codec::V2 => Key::new().uint(n),
        }
    }

    /// DocId key `n ‖ doc-id`.
    fn docid_key(self, n: u128, doc: DocId) -> Key {
        match self {
            Codec::V1 => self.docid_bound(n).bytes(&doc.to_be_bytes()),
            Codec::V2 => self.docid_bound(n).uint(doc.into()),
        }
    }

    fn decode_docid(self, mut k: &[u8]) -> Option<(u128, DocId)> {
        match self {
            Codec::V1 => store::decode_docid(k),
            Codec::V2 => {
                let n = take_ordered_uint(&mut k)?;
                let doc = u64::try_from(take_ordered_uint(&mut k)?).ok()?;
                k.is_empty().then_some((n, doc))
            }
        }
    }

    /// The bytes every chunk key of `doc` starts with.
    fn doc_prefix(self, doc: DocId) -> Key {
        match self {
            Codec::V1 => Key::new().bytes(&doc.to_be_bytes()),
            Codec::V2 => Key::new().uint(doc.into()),
        }
    }

    fn decode_doc_key(self, mut k: &[u8]) -> Option<(DocId, u128)> {
        match self {
            Codec::V1 => store::decode_fixed_doc_key(k),
            Codec::V2 => {
                let doc = u64::try_from(take_ordered_uint(&mut k)?).ok()?;
                let chunk = take_ordered_uint(&mut k)?;
                k.is_empty().then_some((doc, chunk))
            }
        }
    }

    /// D-Ancestor value: the dkey-id.
    fn decode_dkid(self, mut v: &[u8]) -> Option<u64> {
        match self {
            Codec::V1 => store::decode_dkid(v),
            Codec::V2 => take_u64(&mut v).filter(|_| v.is_empty()),
        }
    }

    fn encode_dkid(id: u64) -> Vec<u8> {
        let mut v = Vec::with_capacity(3);
        put_varint(&mut v, id.into());
        v
    }

    /// Statistics record: `dkey-id → nodes`. Older records carry two more
    /// counters after `nodes` that nothing reads (document postings and
    /// child nodes), as `u64` LE in format 1 (a 24-byte value) and as
    /// varints in format-2 files written before they were dropped.
    fn decode_stats(self, mut k: &[u8], mut v: &[u8]) -> Option<(u64, DkStats)> {
        match self {
            Codec::V1 => {
                let v: &[u8; 24] = v.try_into().ok()?;
                let nodes = u64::from_le_bytes(v[..8].try_into().ok()?);
                Some((u64::from_be_bytes(k.try_into().ok()?), DkStats { nodes }))
            }
            Codec::V2 => {
                let dkid = u64::try_from(take_ordered_uint(&mut k)?).ok()?;
                let nodes = take_u64(&mut v)?;
                if !v.is_empty() {
                    take_u64(&mut v)?;
                    take_u64(&mut v)?;
                }
                (k.is_empty() && v.is_empty()).then_some((dkid, DkStats { nodes }))
            }
        }
    }

    fn encode_stats(dkid: u64, s: &DkStats) -> (Vec<u8>, Vec<u8>) {
        let mut v = Vec::with_capacity(2);
        put_varint(&mut v, s.nodes.into());
        (Key::new().uint(dkid.into()).as_slice().to_vec(), v)
    }
}

/// One segment's entry in [`crate::VistIndex::tier_breakdown`].
#[derive(Debug, Clone, Copy)]
pub struct SegmentBreakdown {
    /// The segment's id in the manifest.
    pub id: u64,
    /// The format its header declares: 2 for every segment this build
    /// writes, 1 for one that predates packed leaves and compact records
    /// (read-only until the next compaction rewrites it).
    pub format_version: u16,
    /// Per-tree space accounting (`documents` in the `aux` slot).
    pub trees: StoreBreakdown,
}

/// An open packed segment: immutable, checksummed (by the pager's page
/// trailers), queried through the same Algorithm 2 engine as the delta.
pub(crate) struct Segment {
    pub(crate) id: u64,
    pub(crate) doc_count: u64,
    pub(crate) node_count: u64,
    pub(crate) dkey_count: u64,
    pub(crate) max_doc: u64,
    /// What the header's format version selects.
    codec: Codec,
    dancestor: PackedTree,
    sancestor: PackedTree,
    docid: PackedTree,
    docs: PackedTree,
    /// Per-dkid planner statistics, loaded whole from the packed
    /// statistics tree (slot 4). Empty for pre-statistics segments.
    stats: HashMap<u64, DkStats>,
    /// Handle on the packed statistics tree (space accounting only);
    /// `None` for pre-statistics segments.
    stats_tree: Option<PackedTree>,
    pool: Arc<BufferPool>,
}

impl Segment {
    /// Open segment `id`, the file at `path`.
    pub(crate) fn open(vfs: &dyn Vfs, path: &Path, id: u64, cache_pages: usize) -> Result<Segment> {
        let frames = FrameFile::open(vfs, path).map_err(|e| match e {
            vist_storage::Error::Corrupt(msg) => Error::Corrupt(format!("segment {id}: {msg}")),
            e => e.into(),
        })?;
        let pool = Arc::new(BufferPool::with_capacity(frames, cache_pages));
        // The header is the first page after the pager's own (page 1).
        let reader = SegmentReader::open(Arc::clone(&pool), 1)?;
        if !(4..=5).contains(&reader.tree_count()) {
            return Err(Error::Corrupt(format!(
                "segment {id} packs {} trees, expected 4 or 5",
                reader.tree_count()
            )));
        }
        let meta = reader.meta();
        if meta.len() < META_LEN {
            return Err(Error::Corrupt(format!("segment {id} meta too short")));
        }
        let rd64 = |at: usize| u64::from_le_bytes(meta[at..at + 8].try_into().expect("meta"));
        let codec = match reader.version() {
            1 => Codec::V1,
            _ => Codec::V2,
        };
        let mut stats = HashMap::new();
        let mut stats_tree = None;
        if reader.tree_count() == 5 {
            let tree = reader.tree(4)?;
            for item in tree.scan(..)? {
                let (k, v) = item?;
                let (dkid, s) = codec
                    .decode_stats(&k, &v)
                    .ok_or_else(|| malformed(id, "stats"))?;
                stats.insert(dkid, s);
            }
            stats_tree = Some(tree);
        }
        Ok(Segment {
            id,
            doc_count: rd64(0),
            node_count: rd64(8),
            dkey_count: rd64(16),
            max_doc: rd64(24),
            codec,
            dancestor: reader.tree(0)?,
            sancestor: reader.tree(1)?,
            docid: reader.tree(2)?,
            docs: reader.tree(3)?,
            stats,
            stats_tree,
            pool,
        })
    }

    /// Whether the segment packs a statistics tree (every segment written
    /// since the planner came does).
    pub(crate) fn keeps_stats(&self) -> bool {
        self.stats_tree.is_some()
    }

    /// The format version the segment's header declares.
    #[must_use]
    pub(crate) fn format_version(&self) -> u16 {
        match self.codec {
            Codec::V1 => 1,
            Codec::V2 => 2,
        }
    }

    /// Fetch a stored document's XML text (see [`join_chunks`]).
    pub(crate) fn doc_get(&self, doc: DocId) -> Result<Option<Vec<u8>>> {
        join_chunks(
            self.docs
                .scan_prefix(self.codec.doc_prefix(doc).as_slice())?,
            format_args!("segment {}: documents tree", self.id),
            doc,
            |k| self.codec.decode_doc_key(k),
        )
    }

    /// Total bytes of the segment file's pages.
    #[must_use]
    pub(crate) fn store_bytes(&self) -> u64 {
        self.pool.store_bytes()
    }

    /// The packed trees by name, in slot order.
    fn trees(&self) -> impl Iterator<Item = (&'static str, &PackedTree)> {
        [
            ("dancestor", &self.dancestor),
            ("sancestor", &self.sancestor),
            ("docid", &self.docid),
            ("documents", &self.docs),
        ]
        .into_iter()
        .chain(self.stats_tree.as_ref().map(|t| ("stats", t)))
    }

    /// Bytes of memory the trees' fence arrays hold outside the pool.
    #[must_use]
    pub(crate) fn fence_bytes(&self) -> u64 {
        self.trees().map(|(_, t)| t.fence_bytes()).sum()
    }

    /// Verify every packed tree (fence array against pages, leaf chain,
    /// entry counts): `(name, None)` for a clean tree, `(name,
    /// Some(message))` otherwise.
    pub(crate) fn verify(&self) -> Vec<(&'static str, Option<String>)> {
        self.trees()
            .map(|(name, tree)| (name, tree.verify().err().map(|e| e.to_string())))
            .collect()
    }

    /// Per-tree space accounting (`documents` reported in the `aux` slot).
    pub(crate) fn breakdown(&self) -> Result<StoreBreakdown> {
        Ok(StoreBreakdown {
            dancestor: self.dancestor.tree_stats()?,
            sancestor: self.sancestor.tree_stats()?,
            docid: self.docid.tree_stats()?,
            edges: vist_btree::TreeStats::default(),
            aux: self.docs.tree_stats()?,
            stats: match &self.stats_tree {
                Some(t) => t.tree_stats()?,
                None => vist_btree::TreeStats::default(),
            },
        })
    }
}

/// The error for a record of segment `id`'s `tree` that no encoder of the
/// segment's format writes.
fn malformed(id: u64, tree: &str) -> Error {
    Error::Corrupt(format!("segment {id}: {tree} tree: malformed record"))
}

impl Segment {
    /// `Ok` unless a walk of `tree` met a record its decoder refused.
    fn refuse(&self, tree: &str, bad: Option<Vec<u8>>) -> Result<()> {
        bad.map_or(Ok(()), |_| Err(malformed(self.id, tree)))
    }
}

impl SearchSource for Segment {
    fn dkey_get(&self, dkey: &[u8]) -> Result<Option<u64>> {
        self.dancestor
            .get_with(dkey, |v| self.codec.decode_dkid(v))?
            .map(|id| id.ok_or_else(|| malformed(self.id, "dancestor")))
            .transpose()
    }

    fn dkey_scan_range(
        &self,
        lo: &[u8],
        hi: &[u8],
        f: &mut dyn FnMut(&[u8], u64) -> ControlFlow<()>,
    ) -> Result<()> {
        // The key goes to `f` as it is; only the value is decoded.
        let mut bad = None;
        let visit = decoding(&mut bad, |_, v| self.codec.decode_dkid(v), f);
        self.dancestor.for_each_in(lo..hi, visit)?;
        self.refuse("dancestor", bad)
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
            |k, v| self.codec.decode_sanc(k, v),
            |_, node| f(node),
        );
        self.sancestor.for_each_in_ranges(
            scopes.len(),
            |i, lo, hi| {
                lo.extend_from_slice(self.codec.sanc_key(dkey_id, scopes[i].0).as_slice());
                hi.extend_from_slice(self.codec.sanc_key(dkey_id, scopes[i].1).as_slice());
            },
            visit,
        )?;
        self.refuse("sancestor", bad)
    }

    fn docids_in_scopes(
        &self,
        scopes: &[(u128, u128)],
        f: &mut dyn FnMut(u128, DocId) -> ControlFlow<()>,
    ) -> Result<()> {
        let mut bad = None;
        let visit = decoding(
            &mut bad,
            |k, _| self.codec.decode_docid(k),
            |_, (n, doc)| f(n, doc),
        );
        self.docid.for_each_in_ranges(
            scopes.len(),
            |i, lo, hi| {
                lo.extend_from_slice(self.codec.docid_bound(scopes[i].0).as_slice());
                hi.extend_from_slice(self.codec.docid_bound(scopes[i].1).as_slice());
            },
            visit,
        )?;
        self.refuse("docid", bad)
    }

    fn dkid_stats(&self, dkid: u64) -> Option<DkStats> {
        self.stats.get(&dkid).copied()
    }
}

/// One node of the in-memory ingest trie (the structure-encoded sequences
/// of a batch, merged). Children are keyed by dkey-id so labeling walks
/// them in a deterministic order.
struct TrieNode {
    dkid: u64,
    children: BTreeMap<u64, usize>,
    /// Preorder label, assigned by [`SegmentBuilder::label`].
    n: u128,
    /// Subtree node count (= scope size), assigned by `label`.
    size: u128,
}

/// Streaming segment build: feed documents one at a time in ascending id
/// order, then [`SegmentBuilder::finish`] labels the trie and bulk-loads
/// each packed tree but the documents from it in key order.
pub(crate) struct SegmentBuilder {
    /// dkey bytes → dense id, in first-seen order (ids need no key order;
    /// the D-Ancestor tree itself is loaded from this sorted map).
    dkeys: BTreeMap<Vec<u8>, u64>,
    /// trie[0] is the virtual root.
    trie: Vec<TrieNode>,
    /// `(doc, trie node index of the sequence's last element)`, ascending
    /// by doc.
    doc_ends: Vec<(DocId, usize)>,
    /// Whether the index stores documents: `add_doc` then needs the text.
    store_documents: bool,
    /// The documents tree, filled as they come (empty if none is stored).
    docs: TreeBuilder,
    writer: SegmentWriter,
    path: PathBuf,
    page_size: usize,
}

impl SegmentBuilder {
    /// Start segment file `path` (truncating any file there); `page_size` is
    /// the file's, and sizes document chunks. Only
    /// [`SegmentBuilder::finish`] seals the file; the caller removes it else.
    pub(crate) fn new(
        vfs: &dyn Vfs,
        path: &Path,
        page_size: usize,
        store_documents: bool,
    ) -> Result<SegmentBuilder> {
        // The smallest pool is one shard, and it evicts the pages of the
        // bottom-up build in the order they were allocated, so the file
        // takes them in runs of a write chunk.
        let frames = FrameFile::create(vfs, path, page_size)?;
        let writer = SegmentWriter::create(Arc::new(BufferPool::with_capacity(frames, 0)))?;
        let docs = writer.start_tree()?;
        Ok(SegmentBuilder {
            dkeys: BTreeMap::new(),
            trie: vec![TrieNode {
                dkid: u64::MAX,
                children: BTreeMap::new(),
                n: 0,
                size: 0,
            }],
            doc_ends: Vec::new(),
            store_documents,
            docs,
            writer,
            path: path.to_path_buf(),
            page_size,
        })
    }

    /// Add one document: its key path (the D-Ancestor keys of its sequence)
    /// and its XML, kept when documents are stored. Each id must be above
    /// the one before, else this is an error and adds nothing; the order of
    /// the calls numbers the dkeys, so the same paths in the same order make
    /// the same segment, byte for byte.
    pub(crate) fn add_doc<K: AsRef<[u8]>>(
        &mut self,
        doc: DocId,
        path: impl IntoIterator<Item = K>,
        xml: Option<&[u8]>,
    ) -> Result<()> {
        if let Some(&(last, _)) = self.doc_ends.last().filter(|&&(last, _)| doc <= last) {
            return Err(Error::Corrupt(format!(
                "segment build: document {doc} after document {last}"
            )));
        }
        if self.store_documents {
            let bytes =
                xml.ok_or_else(|| Error::Corrupt(format!("document {doc} has no stored text")))?;
            // Chunks leave the slack Store::doc_put leaves for the key; an
            // empty document is one empty chunk.
            let chunks = bytes.chunks(self.page_size / 4);
            let chunks = chunks.chain(bytes.is_empty().then_some(bytes));
            for (chunk, piece) in (0..).zip(chunks) {
                let key = Codec::V2.doc_prefix(doc).uint(chunk);
                self.docs.push(key.as_slice(), piece)?;
            }
        }
        let mut cur = 0usize;
        for key in path {
            let next_id = self.dkeys.len() as u64;
            let dkid = *self.dkeys.entry(key.as_ref().to_vec()).or_insert(next_id);
            cur = match self.trie[cur].children.get(&dkid) {
                Some(&c) => c,
                None => {
                    let c = self.trie.len();
                    self.trie.push(TrieNode {
                        dkid,
                        children: BTreeMap::new(),
                        n: 0,
                        size: 0,
                    });
                    self.trie[cur].children.insert(dkid, c);
                    c
                }
            };
        }
        self.doc_ends.push((doc, cur));
        Ok(())
    }

    /// Label the trie in preorder: `n` is the preorder rank (root's
    /// children start at 1), `size` the subtree node count, so every
    /// descendant label falls strictly inside `(n, n + size)` — the exact
    /// static labeling of RIST, which Algorithm 2's Excluded/Excluded
    /// range probes expect.
    fn label(&mut self) {
        let mut counter: u128 = 1;
        // Explicit stack; `Leave` back-patches size once the subtree is done.
        enum Walk {
            Enter(usize),
            Leave(usize),
        }
        let mut stack: Vec<Walk> = self.trie[0]
            .children
            .values()
            .rev()
            .map(|&c| Walk::Enter(c))
            .collect();
        while let Some(step) = stack.pop() {
            match step {
                Walk::Enter(i) => {
                    self.trie[i].n = counter;
                    counter += 1;
                    stack.push(Walk::Leave(i));
                    for &c in self.trie[i].children.values().rev() {
                        stack.push(Walk::Enter(c));
                    }
                }
                Walk::Leave(i) => {
                    self.trie[i].size = counter - self.trie[i].n;
                }
            }
        }
        self.trie[0].size = counter; // virtual root: covers every label
    }

    /// Finish the documents tree, label the trie and write the other trees
    /// after it, the S-Ancestor and DocId trees from the labeled trie sorted
    /// in memory;
    /// seal the file (every page in its frame, fsynced) and open it as
    /// segment `id`. `None`, the file unsealed, when no document was added.
    /// Publishing the segment in the manifest is the caller's step.
    pub(crate) fn finish(
        mut self,
        vfs: &dyn Vfs,
        id: u64,
        cache_pages: usize,
    ) -> Result<Option<Segment>> {
        let Some(&(max_doc, _)) = self.doc_ends.last() else {
            return Ok(None);
        };
        self.label();
        let codec = Codec::V2;

        // Exact per-dkid planner statistics: the labeled trie's nodes.
        let mut stats: BTreeMap<u64, DkStats> = BTreeMap::new();
        for node in &self.trie[1..] {
            stats.entry(node.dkid).or_default().nodes += 1;
        }

        // Its last leaf is still in the pool: sealed now, it is written once.
        let docs = self.docs.finish()?;
        let mut writer = self.writer;
        let dkey_count = self.dkeys.len() as u64;
        let dkeys = std::mem::take(&mut self.dkeys).into_iter();
        writer.add_tree(dkeys.map(|(k, id)| (k, Codec::encode_dkid(id))))?;

        // The key orders are the integer orders of their components.
        let trie = &self.trie;
        let mut nodes: Vec<usize> = (1..trie.len()).collect();
        nodes.sort_unstable_by_key(|&i| (trie[i].dkid, trie[i].n));
        writer.add_tree(nodes.into_iter().map(|i| {
            let node = &trie[i];
            let state = NodeState {
                n: node.n,
                size: node.size,
                next: node.n + node.size,
                k: node.children.len() as u64,
            };
            let key = codec.sanc_key(node.dkid, node.n);
            (key.as_slice().to_vec(), Codec::encode_sanc_value(&state))
        }))?;
        // The virtual root's label is 0: an empty document's posting.
        let mut postings: Vec<(u128, DocId)> = self
            .doc_ends
            .iter()
            .map(|&(doc, end)| (trie[end].n, doc))
            .collect();
        postings.sort_unstable();
        let docid_key = |(n, doc)| (codec.docid_key(n, doc).as_slice().to_vec(), Vec::new());
        writer.add_tree(postings.into_iter().map(docid_key))?;
        writer.add_built(docs);
        writer.add_tree(stats.iter().map(|(&dkid, s)| Codec::encode_stats(dkid, s)))?;

        let mut meta = [0u8; META_LEN];
        meta[0..8].copy_from_slice(&(self.doc_ends.len() as u64).to_le_bytes());
        meta[8..16].copy_from_slice(&((self.trie.len() - 1) as u64).to_le_bytes());
        meta[16..24].copy_from_slice(&dkey_count.to_le_bytes());
        meta[24..32].copy_from_slice(&max_doc.to_le_bytes());
        writer.finish(&meta)?;
        Segment::open(vfs, &self.path, id, cache_pages).map(Some)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use vist_seq::{document_to_sequence, SiblingOrder, SymbolTable};
    use vist_storage::testutil::TempDir;
    use vist_storage::RealVfs;

    /// The static build from the text, the way a bulk load makes it: parse
    /// `xml`, encode it against `table` and add its key path — the oracle a
    /// compaction, which reads the paths back from the index, must equal.
    pub(crate) fn add_parsed(
        b: &mut SegmentBuilder,
        table: &mut SymbolTable,
        order: &SiblingOrder,
        id: DocId,
        xml: &str,
    ) {
        let doc = vist_xml::parse(xml).unwrap();
        let seq = document_to_sequence(&doc, table, order);
        let path: Vec<Vec<u8>> = seq
            .iter()
            .map(|e| crate::ingest::data_dkey(e).unwrap())
            .collect();
        b.add_doc(id, &path, Some(xml.as_bytes())).unwrap();
    }

    /// The records of one tree, in key order.
    type Records = Vec<(Vec<u8>, Vec<u8>)>;

    impl Segment {
        /// Every record of every packed tree, by tree name.
        pub(crate) fn records(&self) -> Vec<(&'static str, Records)> {
            let all = |t: &PackedTree| t.scan(..).unwrap().map(|r| r.unwrap()).collect();
            self.trees().map(|(name, t)| (name, all(t))).collect()
        }
    }

    fn build(docs: &[(DocId, &str)]) -> (TempDir, Segment, SymbolTable) {
        let dir = TempDir::new("vist-core-segment");
        let path = dir.file("seg-1");
        let mut table = SymbolTable::new();
        let mut b = SegmentBuilder::new(&RealVfs, &path, 4096, true).unwrap();
        for &(id, xml) in docs {
            add_parsed(&mut b, &mut table, &SiblingOrder::Lexicographic, id, xml);
        }
        let seg = b.finish(&RealVfs, 1, 64).unwrap().unwrap();
        (dir, seg, table)
    }

    #[test]
    fn records_round_trip_in_both_formats_and_malformed_ones_are_refused() {
        let state = NodeState {
            n: 70_000,
            size: 300,
            next: 70_300,
            k: 5,
        };
        let v1_value = Store::encode_node(&state);
        let v2_value = Codec::encode_sanc_value(&state);
        assert_eq!((v1_value.len(), v2_value.len()), (40, 3));
        for (codec, value) in [(Codec::V1, &v1_value[..]), (Codec::V2, &v2_value[..])] {
            let key = codec.sanc_key(9, state.n);
            let k = key.as_slice();
            assert_eq!(codec.decode_sanc(k, value), Some(state));
            // Scope probes rely on it: keys order by dkey-id, then label,
            // across every change of encoded length.
            let keys = [(9, 255), (9, 256), (9, 1 << 64), (10, 0), (256, 0)]
                .map(|(d, n)| codec.sanc_key(d, n).as_slice().to_vec());
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "{codec:?}");
            // Truncated, and with a byte too many.
            assert_eq!(codec.decode_sanc(&k[..k.len() - 1], value), None);
            assert_eq!(codec.decode_sanc(k, &value[..value.len() - 1]), None);
            assert_eq!(codec.decode_sanc(k, &[value, &[0]].concat()), None);

            let posting = codec.docid_key(state.n, 77);
            assert_eq!(codec.decode_docid(posting.as_slice()), Some((state.n, 77)));
            assert_eq!(codec.decode_docid(&posting.as_slice()[1..]), None);
        }
        // `next` is derived, so a size that overflows it is refused too.
        let mut huge = Vec::new();
        put_varint(&mut huge, u128::MAX);
        put_varint(&mut huge, 0);
        assert_eq!(Codec::V2.decode_sanc(&[1, 9, 1, 1], &huge), None);

        assert_eq!(Codec::V2.decode_dkid(&Codec::encode_dkid(300)), Some(300));
        assert_eq!(Codec::V1.decode_dkid(&300u64.to_le_bytes()), Some(300));
        assert_eq!(Codec::V2.decode_dkid(&300u64.to_le_bytes()), None);
        assert_eq!(Codec::V1.decode_dkid(&[1, 2]), None);
        let stats = DkStats { nodes: 4_000 };
        let (k, v) = Codec::encode_stats(300, &stats);
        assert_eq!((k.len(), v.len()), (3, 2));
        assert_eq!(Codec::V2.decode_stats(&k, &v), Some((300, stats)));
        assert!(Codec::V2.decode_stats(&k, &v[..1]).is_none());
        assert!(Codec::V1.decode_stats(&k, &v).is_none());
        // An older format-2 record: `nodes`, then the two dropped counters.
        let old = [&v[..], &[0], &[129, 1]].concat();
        assert_eq!(Codec::V2.decode_stats(&k, &old), Some((300, stats)));
        for bad in [&old[..4], &old[..3], &[&old[..], &[0]].concat()] {
            assert!(Codec::V2.decode_stats(&k, bad).is_none(), "{bad:?}");
        }
        // A format-1 record: `u64` LE counters behind a big-endian dkid.
        let v1 = [4_000u64, 0, 129].map(u64::to_le_bytes).concat();
        let v1_key = 300u64.to_be_bytes();
        assert_eq!(Codec::V1.decode_stats(&v1_key, &v1), Some((300, stats)));
        assert!(Codec::V1.decode_stats(&v1_key, &v1[..16]).is_none());
        assert!(Codec::V1.decode_stats(&k, &v1).is_none());
    }

    #[test]
    fn builds_and_reopens_with_counts() {
        let (_dir, seg, _) = build(&[
            (0, "<book><author>David</author></book>"),
            (1, "<book><author>Mary</author></book>"),
            (2, "<book><author>David</author></book>"),
        ]);
        assert_eq!(seg.doc_count, 3);
        assert!(seg.node_count > 0);
        assert!(seg.dkey_count > 0);
        assert!(seg.doc_get(9).unwrap().is_none());
        assert_eq!(
            seg.doc_get(0).unwrap().unwrap(),
            b"<book><author>David</author></book>"
        );
    }

    #[test]
    fn labels_are_preorder_ranks_and_nest() {
        // Two sequences sharing their first element: five trie nodes.
        let (_dir, seg, _) = build(&[(1, "<a><b>x</b></a>"), (2, "<a><c>y</c></a>")]);
        let mut nodes = Vec::new();
        for dkid in 0..seg.dkey_count {
            seg.nodes_in_scopes(dkid, &[(0, vist_seq::MAX_SCOPE)], &mut |node| {
                nodes.push(node);
                ControlFlow::Continue(())
            })
            .unwrap();
        }
        nodes.sort_by_key(|node| node.n);
        assert_eq!(nodes.len() as u64, seg.node_count);
        // Labels are the preorder ranks after the virtual root's 0, and the
        // first element's scope covers every node.
        let ns: Vec<u128> = nodes.iter().map(|node| node.n).collect();
        assert_eq!(ns, (1..=5).collect::<Vec<u128>>());
        assert_eq!(nodes[0].size, 5);
        for a in &nodes {
            // `size` counts the node and its descendants …
            let inside = nodes.iter().filter(|b| a.n <= b.n && b.n < a.end());
            assert_eq!(inside.count() as u128, a.size, "node {}", a.n);
            // … and every scope that starts inside another ends inside it.
            for b in nodes.iter().filter(|b| a.n < b.n && b.n < a.end()) {
                assert!(b.end() <= a.end(), "{} in {}", b.n, a.n);
            }
        }
    }

    /// Every scope list a DocId resolution can meet, against a filter over
    /// the tree's own postings.
    fn check_docid_scopes(seg: &Segment) {
        let postings: Vec<(u128, DocId)> = seg
            .docid
            .scan(..)
            .unwrap()
            .map(|item| seg.codec.decode_docid(&item.unwrap().0).unwrap())
            .collect();
        assert!(postings.len() >= 3 && postings.iter().any(|p| p.1 == 0));
        let check = |scopes: &[(u128, u128)]| {
            let mut got = Vec::new();
            seg.docids_in_scopes(scopes, &mut |_, doc| {
                got.push(doc);
                ControlFlow::Continue(())
            })
            .unwrap();
            let want: Vec<DocId> = postings
                .iter()
                .filter(|(n, _)| scopes.iter().any(|&(lo, hi)| lo <= *n && *n < hi))
                .map(|p| p.1)
                .collect();
            assert_eq!(got, want, "format {}: {scopes:?}", seg.format_version());
        };
        check(&[]);
        check(&[(0, vist_seq::MAX_SCOPE)]);
        let labels: Vec<u128> = postings.iter().map(|p| p.0).collect();
        for w in labels.windows(2).filter(|w| w[0] < w[1]) {
            // Closed at a posting's label (whatever its doc id, 0 too), open
            // at the next one's; a single label; two adjacent scopes.
            check(&[(w[0], w[1])]);
            check(&[(w[0], w[0] + 1)]);
            check(&[(w[0], w[0] + 1), (w[0] + 1, w[1] + 1)]);
        }
        let (first, last) = (labels[0], labels[labels.len() - 1]);
        let every_other: Vec<(u128, u128)> =
            labels.iter().step_by(2).map(|&n| (n, n + 1)).collect();
        check(&every_other);
        check(&[(first, first + 1), (last, last + 1), (last + 1, last + 9)]);
        check(&[(last + 1, last + 2), (last + 5, vist_seq::MAX_SCOPE)]);
    }

    #[test]
    fn docid_scopes_are_closed_at_lo_and_open_at_hi_in_both_formats() {
        let docs: Vec<(DocId, String)> = (0..40)
            .map(|i| (i, format!("<r><a>{}</a><b>{}</b></r>", i % 7, i % 3)))
            .collect();
        let refs: Vec<(DocId, &str)> = docs.iter().map(|(i, x)| (*i, x.as_str())).collect();
        let (_dir, v2, _) = build(&refs);
        assert_eq!(v2.format_version(), 2);
        check_docid_scopes(&v2);

        // The segment a binary from before format 2 wrote (see
        // `tests/segment_v1.rs`), on a copy: its log was checkpointed before
        // the manifest named it, so the file alone opens.
        let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/seg_v1");
        let dir = TempDir::new("vist-core-segment-v1");
        std::fs::copy(fixture.join("idx.vist.seg-1"), dir.file("idx.vist.seg-1")).unwrap();
        let v1 = Segment::open(&RealVfs, &dir.file("idx.vist.seg-1"), 1, 64).unwrap();
        assert_eq!(v1.format_version(), 1);
        check_docid_scopes(&v1);
    }

    #[test]
    fn segment_matches_delta_semantics() {
        // The same documents through the dynamic insert path and the bulk
        // path must answer queries identically.
        let xmls = [
            "<book><author>David</author><year>1999</year></book>",
            "<book><author>Mary</author><year>2000</year></book>",
            "<p><s><l>boston</l></s><b><l>newyork</l></b></p>",
        ];
        let (_dir, seg, _) = build(
            &xmls
                .iter()
                .enumerate()
                .map(|(i, &x)| (i as u64, x))
                .collect::<Vec<_>>(),
        );
        let idx = crate::VistIndex::in_memory(crate::IndexOptions::default()).unwrap();
        for x in &xmls {
            idx.insert_xml(x).unwrap();
        }
        let table = idx.table();
        for expr in [
            "/book/author[text='David']",
            "/book[year='2000']",
            "//l[text='boston']",
            "/p/*[l='newyork']",
            "/book",
        ] {
            let pattern = vist_query::parse_query(expr).unwrap().to_pattern();
            let translation = vist_query::try_translate(
                &pattern,
                &table,
                &vist_query::TranslateOptions::default(),
            )
            .unwrap();
            let opts = crate::SearchOptions::default();
            let from_delta =
                crate::search_sequences(idx.store(), &translation.sequences, &opts).unwrap();
            let from_seg = crate::search_sequences(&seg, &translation.sequences, &opts).unwrap();
            assert_eq!(from_delta.docs, from_seg.docs, "query {expr}");
        }
    }

    #[test]
    fn verify_is_clean_and_open_rejects_a_cyclic_internal_page() {
        let docs: Vec<(DocId, String)> = (0..300)
            .map(|i| (i, format!("<r><a>x{i}</a><b><c>y{}</c></b></r>", i % 17)))
            .collect();
        let refs: Vec<(DocId, &str)> = docs.iter().map(|(i, x)| (*i, x.as_str())).collect();
        let (dir, seg, _) = build(&refs);
        assert!(seg.verify().iter().all(|(_, problem)| problem.is_none()));
        let fence = seg.fence_bytes();
        assert!(fence > 0 && fence * 100 < seg.store_bytes(), "{fence}");
        drop(seg);

        // Point the first internal page's leftmost child at the page itself
        // and re-seal the frame: a descent from it used never to end.
        let path = dir.file("seg-1");
        let mut file = std::fs::read(&path).unwrap();
        let frame_len = 4096 + vist_storage::PAGE_TRAILER;
        let id = (2..file.len() / frame_len)
            .find(|id| file[id * frame_len] == 2)
            .expect("300 documents make at least one tree two levels deep");
        let frame = &mut file[id * frame_len..(id + 1) * frame_len];
        frame[1..5].copy_from_slice(&(id as u32).to_le_bytes());
        let mut crc = vist_storage::Crc32c::new();
        crc.update(&(id as u32).to_le_bytes())
            .update(&frame[..4096]);
        frame[4096..4100].copy_from_slice(&crc.finish().to_le_bytes());
        std::fs::write(&path, file).unwrap();
        match Segment::open(&RealVfs, &path, 1, 64) {
            Err(Error::Storage(vist_storage::Error::Corrupt(msg))) => {
                assert!(msg.contains(&format!("page {id}")), "{msg}");
                assert!(msg.contains("leftmost child"), "{msg}");
            }
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn packed_trees_are_dense() {
        let docs: Vec<(DocId, String)> = (0..300)
            .map(|i| (i, format!("<r><a>x{i}</a><b><c>y{}</c></b></r>", i % 17)))
            .collect();
        let dir = TempDir::new("vist-core-segment-fill");
        let path = dir.file("seg-3");
        let mut table = SymbolTable::new();
        // Small pages: the records are a few bytes each, and the one
        // part-filled leaf at the end of a tree must not decide the average.
        let mut b = SegmentBuilder::new(&RealVfs, &path, 512, true).unwrap();
        for (id, xml) in &docs {
            add_parsed(&mut b, &mut table, &SiblingOrder::Lexicographic, *id, xml);
        }
        let seg = b.finish(&RealVfs, 3, 64).unwrap().unwrap();
        let breakdown = seg.breakdown().unwrap();
        assert!(
            breakdown.sancestor.leaf_fill() > 0.8,
            "bulk-loaded S-Ancestor leaves should be packed, got {}",
            breakdown.sancestor.leaf_fill()
        );
    }

    #[test]
    fn documents_must_ascend_and_round_trip_whatever_their_size() {
        let dir = TempDir::new("vist-core-segment-docs");
        let path = [b"k".as_slice()];
        let mut b = SegmentBuilder::new(&RealVfs, &dir.file("seg-1"), 512, true).unwrap();
        b.add_doc(4, path, Some(b"")).unwrap();
        // An id not above the one before is refused and adds nothing.
        for doc in [4, 3] {
            let refused = b.add_doc(doc, path, Some(b"<r/>"));
            assert!(matches!(refused, Err(Error::Corrupt(_))), "{doc}");
        }
        // Many pages of the documents tree, in 128-byte chunks.
        let big = format!("<r>{}</r>", "x".repeat(3 * 8192));
        b.add_doc(9, [b"k".as_slice(), b"x"], Some(big.as_bytes()))
            .unwrap();
        let seg = b.finish(&RealVfs, 1, 64).unwrap().unwrap();
        assert_eq!((seg.doc_count, seg.max_doc), (2, 9));
        assert_eq!(seg.doc_get(4).unwrap().unwrap(), b"", "empty document");
        assert_eq!(seg.doc_get(9).unwrap().unwrap(), big.as_bytes());
        assert!(seg.doc_get(3).unwrap().is_none());
        // The tree holds the empty document's one chunk and the big one's.
        let records = seg.records();
        let (name, docs) = &records[3];
        let keys: Vec<(DocId, u128)> = docs
            .iter()
            .map(|(k, _)| seg.codec.decode_doc_key(k).unwrap())
            .collect();
        let chunks = big.len().div_ceil(128) as u128;
        let want: Vec<(DocId, u128)> = [(4, 0)]
            .into_iter()
            .chain((0..chunks).map(|c| (9, c)))
            .collect();
        assert_eq!((*name, keys), ("documents", want));
    }

    #[test]
    fn a_stored_document_with_a_chunk_out_of_turn_is_corrupt() {
        let dir = TempDir::new("vist-core-segment-gap");
        let path = dir.file("seg-1");
        let frames = FrameFile::create(&RealVfs, &path, 512).unwrap();
        let mut w = SegmentWriter::create(Arc::new(BufferPool::with_capacity(frames, 0))).unwrap();
        let key = |doc, chunk| Codec::V2.doc_prefix(doc).uint(chunk).as_slice().to_vec();
        let docs = vec![
            (key(1, 0), b"<a/>".to_vec()),
            // Chunks 0 and 2, no chunk 1: the concatenation would read as text.
            (key(5, 0), b"<r>x".to_vec()),
            (key(5, 2), b"y</r>".to_vec()),
            // A record under document 6's prefix that is no chunk key.
            ([&key(6, 0)[..], &[0]].concat(), b"<r/>".to_vec()),
        ];
        for tree in [vec![], vec![], vec![], docs, vec![]] {
            w.add_tree(tree).unwrap();
        }
        w.finish(&[0; META_LEN]).unwrap();
        let seg = Segment::open(&RealVfs, &path, 1, 64).unwrap();
        assert_eq!(seg.doc_get(1).unwrap().unwrap(), b"<a/>");
        for doc in [5, 6] {
            match seg.doc_get(doc) {
                Err(Error::Corrupt(msg)) => {
                    assert!(msg.starts_with("segment 1: documents tree: key"), "{msg}");
                    let chunk = if doc == 5 { 1 } else { 0 };
                    assert!(
                        msg.ends_with(&format!("is not chunk {chunk} of document {doc}")),
                        "{msg}"
                    );
                }
                other => panic!("document {doc}: expected Corrupt, got {other:?}"),
            }
        }
        // A format-1 key is `doc u64 ‖ chunk u32`, big-endian.
        let v1 = [&7u64.to_be_bytes()[..], &2u32.to_be_bytes()].concat();
        assert_eq!(Codec::V1.decode_doc_key(&v1), Some((7, 2)));
        assert_eq!(Codec::V1.decode_doc_key(&v1[..11]), None);
        assert_eq!(Codec::V2.decode_doc_key(&key(7, 2)), Some((7, 2)));
        assert_eq!(Codec::V2.decode_doc_key(&key(7, 2)[1..]), None);
    }
}
