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
//! match per source and union document ids. Two trees are read whole at
//! open and queried from memory; they stay the durable copy, which only
//! `vist check` reads again. The S-Ancestor tree becomes [`Runs`]: each
//! entry's label and scope end, one run a dkey-id, which every sweep of
//! Algorithm 2 merge-joins its scopes against, and whose lengths are the
//! query planner's exact statistics. The DocId tree becomes a [`Postings`]
//! column that resolves every query's final scopes. The statistics tree
//! (slot 4; segments packed before it have none) holds the same counts as
//! the run lengths, computed from the labeled trie at build time: the open
//! does not read it, and `vist check` holds it against the runs.
//!
//! [`SegmentBuilder`] is the static build: documents stream in once, in
//! ascending id order, as key paths (the dkeys of their sequences, which a
//! compaction reads back from the index) into a shared in-memory trie. Their
//! XML needs no label, and ascending ids are the documents tree's key order,
//! so it goes straight into that tree, whose pages come first in the file.
//! The trie is labeled in one preorder pass; every S-Ancestor and DocId
//! record comes from it, sorted in memory, and the other trees follow; the
//! trees take their slots in the header table in the order above.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use std::ops::ControlFlow;

use vist_btree::codec::{
    put_ordered_uint, put_varint, take_ordered_uint, take_varint, ORDERED_UINT_MAX,
};
use vist_btree::{PackedTree, SegmentReader, SegmentWriter, TreeBuilder};
use vist_storage::{BufferPool, FrameFile, Vfs};

use crate::error::{Error, Result};
use crate::postings::{gallop, Postings};
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

    /// An S-Ancestor record as `(dkey-id, n, end)`: its key's two
    /// components and the exclusive end of its scope, `n + size`.
    fn decode_sanc(self, mut k: &[u8], mut v: &[u8]) -> Option<(u64, u128, u128)> {
        match self {
            Codec::V1 => {
                let k: &[u8; 24] = k.try_into().ok()?;
                let dkid = u64::from_be_bytes(k[..8].try_into().ok()?);
                let node = Store::decode_node(u128::from_be_bytes(k[8..].try_into().ok()?), v)?;
                Some((dkid, node.n, node.n.checked_add(node.size)?))
            }
            Codec::V2 => {
                let dkid = u64::try_from(take_ordered_uint(&mut k)?).ok()?;
                let n = take_ordered_uint(&mut k)?;
                let end = n.checked_add(take_varint(&mut v)?)?;
                take_u64(&mut v)?;
                (k.is_empty() && v.is_empty()).then_some((dkid, n, end))
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

    /// DocId key `n ‖ doc-id`.
    fn docid_key(self, n: u128, doc: DocId) -> Key {
        match self {
            Codec::V1 => Key::new().bytes(&n.to_be_bytes()).bytes(&doc.to_be_bytes()),
            Codec::V2 => Key::new().uint(n).uint(doc.into()),
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
    /// The segment's id: its file's suffix and its name in the delta.
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
    /// The S-Ancestor tree's entries, decoded whole at open: what a query's
    /// sweeps read, and the planner's statistics (their run lengths).
    runs: Runs,
    docid: PackedTree,
    /// The DocId tree's entries, decoded whole at open: what the DocId
    /// stage of a query reads.
    postings: Postings,
    docs: PackedTree,
    /// Handle on the packed statistics tree, which `vist check` holds
    /// against the run lengths (and space accounting); `None` for
    /// pre-statistics segments.
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
        let (node_count, dkey_count) = (rd64(8), rd64(16));
        let sancestor = reader.tree(1)?;
        let runs = load_runs(id, codec, &sancestor, node_count, dkey_count)?;
        let docid = reader.tree(2)?;
        let postings = load_postings(id, codec, &docid)?;
        let stats_tree = (reader.tree_count() == 5)
            .then(|| reader.tree(4))
            .transpose()?;
        Ok(Segment {
            id,
            doc_count: rd64(0),
            node_count,
            dkey_count,
            max_doc: rd64(24),
            codec,
            dancestor: reader.tree(0)?,
            sancestor,
            runs,
            docid,
            postings,
            docs: reader.tree(3)?,
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

    /// Bytes of memory the postings column holds outside the pool.
    #[must_use]
    pub(crate) fn postings_bytes(&self) -> u64 {
        self.postings.heap_bytes()
    }

    /// Bytes of memory the S-Ancestor runs hold outside the pool.
    #[must_use]
    pub(crate) fn run_bytes(&self) -> u64 {
        self.runs.heap_bytes()
    }

    /// Where the postings column differs from a fresh walk of the DocId
    /// tree; `None` when they agree.
    pub(crate) fn postings_mismatch(&self) -> Option<String> {
        match load_postings(self.id, self.codec, &self.docid) {
            Ok(fresh) => self.postings.mismatch(&fresh),
            Err(e) => Some(e.to_string()),
        }
    }

    /// Where the runs differ from a fresh walk of the S-Ancestor tree;
    /// `None` when they agree.
    pub(crate) fn runs_mismatch(&self) -> Option<String> {
        match load_runs(
            self.id,
            self.codec,
            &self.sancestor,
            self.node_count,
            self.dkey_count,
        ) {
            Ok(fresh) => self.runs.mismatch(&fresh),
            Err(e) => Some(e.to_string()),
        }
    }

    /// The first key whose record in the statistics tree does not count
    /// the entries of its run, the count the planner reads; `None` when
    /// every record agrees, or when the segment packs no statistics tree.
    pub(crate) fn stats_mismatch(&self) -> Option<String> {
        let tree = self.stats_tree.as_ref()?;
        // The open held the key count to the node count.
        let mut counted = vec![0; self.dkey_count as usize];
        let (mut bad, mut stray) = (None, None);
        let visit = decoding(
            &mut bad,
            |k, v| self.codec.decode_stats(k, v),
            |_, (dkid, s)| match usize::try_from(dkid).ok().and_then(|d| counted.get_mut(d)) {
                Some(count) => {
                    *count = s.nodes;
                    ControlFlow::Continue(())
                }
                None => {
                    stray = Some(dkid);
                    ControlFlow::Break(())
                }
            },
        );
        if let Err(e) = tree.for_each_in(.., visit) {
            return Some(e.to_string());
        }
        if bad.is_some() {
            return Some(malformed(self.id, "stats").to_string());
        }
        if let Some(dkid) = stray {
            return Some(format!(
                "the statistics tree counts dkey {dkid} of {}",
                self.dkey_count
            ));
        }
        (0..).zip(counted).find_map(|(dkid, nodes)| {
            let held = self.runs.run(dkid).len() as u64;
            (nodes != held).then(|| {
                format!(
                    "dkey {dkid}: the statistics tree counts {nodes} S-Ancestor entries, \
                     the runs hold {held}"
                )
            })
        })
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

/// A segment's S-Ancestor entries, decoded whole at open: each entry's label
/// and the exclusive end of its scope, in key order `(dkey-id, n)`, and
/// where each dkey-id's run of entries starts. A segment's labels are its
/// dense preorder ranks `1..=node_count` ([`SegmentBuilder::label`]), so
/// labels, ends and offsets fit `u32` columns.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Runs {
    /// `starts[d]..starts[d + 1]` holds dkey-id `d`'s entries: one offset a
    /// dkey-id and one past the last.
    starts: Vec<u32>,
    labels: Vec<u32>,
    ends: Vec<u32>,
}

impl Runs {
    /// Where dkey-id `dkid`'s entries lie in the columns: empty for a key
    /// without entries, and for an id the segment does not have.
    fn run(&self, dkid: u64) -> std::ops::Range<usize> {
        let bounds = usize::try_from(dkid)
            .ok()
            .and_then(|d| self.starts.get(d..)?.get(..2));
        match bounds {
            Some(&[from, to]) => from as usize..to as usize,
            _ => 0..0,
        }
    }

    /// The entries of `dkid` labeled strictly inside one of `scopes` —
    /// sorted by their lower bound, overlapping ones visited as their union
    /// — as `f(n, end)`, in label order, each once, until `f` breaks. The
    /// position only moves forward: each scope gallops from where the one
    /// before stopped.
    fn join(
        &self,
        dkid: u64,
        scopes: &[(u128, u128)],
        f: &mut dyn FnMut(u128, u128) -> ControlFlow<()>,
    ) {
        let run = self.run(dkid);
        let (labels, ends) = (&self.labels[run.clone()], &self.ends[run]);
        let mut at = 0;
        for &(lo, hi) in scopes {
            let (lo, hi) = (saturate(lo), saturate(hi));
            at += gallop(&labels[at..], |n| u64::from(n) <= lo);
            while let Some(&n) = labels.get(at).filter(|&&n| u64::from(n) < hi) {
                if f(n.into(), ends[at].into()).is_break() {
                    return;
                }
                at += 1;
            }
        }
    }

    /// Every entry as `(dkey-id, n, end)`, in key order.
    fn entries(&self) -> impl Iterator<Item = (u64, u32, u32)> + '_ {
        (0..self.starts.len() as u64 - 1)
            .flat_map(move |d| self.run(d).map(move |i| (d, self.labels[i], self.ends[i])))
    }

    /// Bytes of memory the three columns hold.
    fn heap_bytes(&self) -> u64 {
        let words = self.starts.capacity() + self.labels.capacity() + self.ends.capacity();
        (words * std::mem::size_of::<u32>()) as u64
    }

    /// Where `fresh`, a new walk of the S-Ancestor tree, first differs from
    /// these runs, described; `None` when the two are equal.
    fn mismatch(&self, fresh: &Runs) -> Option<String> {
        if self == fresh {
            return None;
        }
        let at = self
            .entries()
            .zip(fresh.entries())
            .position(|(a, b)| a != b)
            .unwrap_or(self.labels.len().min(fresh.labels.len()));
        let entry = |r: &Runs| {
            r.entries()
                .nth(at)
                .map_or("nothing".to_string(), |(d, n, end)| {
                    format!("dkey-id {d} [{n}, {end})")
                })
        };
        Some(format!(
            "the runs hold {} entries of {} keys and the S-Ancestor tree {} of {}; entry {at} \
             is {} in the runs and {} in the tree",
            self.labels.len(),
            self.starts.len() - 1,
            fresh.labels.len(),
            fresh.starts.len() - 1,
            entry(self),
            entry(fresh),
        ))
    }
}

/// A scope bound as a `u64`, `u64::MAX` for any bound above it: against a
/// `u32` label it compares as the bound itself does.
fn saturate(bound: u128) -> u64 {
    u64::try_from(bound).unwrap_or(u64::MAX)
}

/// The entries of segment `id`'s S-Ancestor tree as [`Runs`], held to the
/// header's counts: a record `codec` does not decode, a dkey-id that goes
/// backwards or is not below `dkey_count`, a label or end past
/// `node_count + 1`, a number of entries other than `node_count` and a
/// header that counts more dkeys than nodes are [`Error::Corrupt`] naming
/// the segment and the tree.
fn load_runs(
    id: u64,
    codec: Codec,
    tree: &PackedTree,
    node_count: u64,
    dkey_count: u64,
) -> Result<Runs> {
    let corrupt = |what: String| Error::Corrupt(format!("segment {id}: sancestor tree: {what}"));
    // Every key has an entry, and every label and end fits the columns.
    let limit = u32::try_from(node_count.saturating_add(1))
        .ok()
        .filter(|_| dkey_count <= node_count)
        .ok_or_else(|| {
            corrupt(format!(
                "the header counts {dkey_count} dkeys and {node_count} nodes"
            ))
        })?;
    // Each entry takes bytes of the file, so a header that counts more asks
    // for no more memory than the file could fill.
    let room = node_count.min(tree.pool().store_bytes()) as usize;
    let mut runs = Runs {
        starts: Vec::with_capacity(room.min(dkey_count as usize) + 1),
        labels: Vec::with_capacity(room),
        ends: Vec::with_capacity(room),
    };
    runs.starts.push(0);
    let (mut bad, mut problem) = (None, None);
    let visit = decoding(
        &mut bad,
        |k, v| codec.decode_sanc(k, v),
        |_, (dkid, n, end)| {
            let last = runs.starts.len() as u64 - 1;
            let fits = |v: u128| u32::try_from(v).ok().filter(|&v| v <= limit);
            problem = Some(if dkid >= dkey_count {
                format!("dkey-id {dkid} of {dkey_count}")
            } else if dkid < last {
                format!("dkey-id {dkid} after dkey-id {last}")
            } else if runs.labels.len() as u64 == node_count {
                format!("more entries than the header's {node_count}")
            } else if let (Some(n), Some(end)) = (fits(n), fits(end)) {
                // At most `node_count` entries: the offset fits.
                let at = runs.labels.len() as u32;
                runs.starts.resize(dkid as usize + 1, at);
                runs.labels.push(n);
                runs.ends.push(end);
                return ControlFlow::Continue(());
            } else {
                format!("dkey-id {dkid}: scope [{n}, {end}) passes label {limit}")
            });
            ControlFlow::Break(())
        },
    );
    tree.for_each_in(.., visit)?;
    if bad.is_some() {
        return Err(malformed(id, "sancestor"));
    }
    if let Some(what) = problem {
        return Err(corrupt(what));
    }
    let total = runs.labels.len() as u64;
    if total != node_count {
        return Err(corrupt(format!(
            "{total} entries, the header counts {node_count}"
        )));
    }
    runs.starts.resize(dkey_count as usize + 1, total as u32);
    Ok(runs)
}

/// The entries of segment `id`'s DocId tree, in key order; a record `codec`
/// does not decode is [`Error::Corrupt`].
fn load_postings(id: u64, codec: Codec, docid: &PackedTree) -> Result<Postings> {
    let mut postings = Postings::default();
    let mut bad = None;
    let visit = decoding(
        &mut bad,
        |k, _| codec.decode_docid(k),
        |_, (n, doc)| {
            postings.push(n, doc);
            ControlFlow::Continue(())
        },
    );
    docid.for_each_in(.., visit)?;
    if bad.is_some() {
        return Err(malformed(id, "docid"));
    }
    postings.shrink_to_fit();
    Ok(postings)
}

/// The error for a record of segment `id`'s `tree` that no encoder of the
/// segment's format writes.
fn malformed(id: u64, tree: &str) -> Error {
    Error::Corrupt(format!("segment {id}: {tree} tree: malformed record"))
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
        bad.map_or(Ok(()), |_| Err(malformed(self.id, "dancestor")))
    }

    fn nodes_in_scopes(
        &self,
        dkey_id: u64,
        scopes: &[(u128, u128)],
        f: &mut dyn FnMut(u128, u128) -> ControlFlow<()>,
    ) -> Result<()> {
        self.runs.join(dkey_id, scopes, f);
        Ok(())
    }

    fn docids_in_scopes(
        &self,
        scopes: &[(u128, u128)],
        f: &mut dyn FnMut(u128, DocId) -> ControlFlow<()>,
    ) -> Result<()> {
        self.postings.join(scopes, f);
        Ok(())
    }

    fn dkid_stats(&self, dkid: u64) -> Option<DkStats> {
        (dkid < self.dkey_count).then(|| DkStats {
            nodes: self.runs.run(dkid).len() as u64,
        })
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
    /// Naming the segment in a commit of the delta is the caller's step.
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
            assert_eq!(codec.decode_sanc(k, value), Some((9, state.n, state.end())));
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
            seg.nodes_in_scopes(dkid, &[(0, vist_seq::MAX_SCOPE)], &mut |n, end| {
                nodes.push((n, end));
                ControlFlow::Continue(())
            })
            .unwrap();
        }
        nodes.sort_unstable();
        assert_eq!(nodes.len() as u64, seg.node_count);
        // Labels are the preorder ranks after the virtual root's 0, and the
        // first element's scope covers every node.
        let ns: Vec<u128> = nodes.iter().map(|node| node.0).collect();
        assert_eq!(ns, (1..=5).collect::<Vec<u128>>());
        assert_eq!(nodes[0].1, 6);
        for &(a, a_end) in &nodes {
            // The scope's width counts the node and its descendants …
            let inside = nodes.iter().filter(|&&(b, _)| a <= b && b < a_end);
            assert_eq!(inside.count() as u128, a_end - a, "node {a}");
            // … and every scope that starts inside another ends inside it.
            for &(b, b_end) in nodes.iter().filter(|&&(b, _)| a < b && b < a_end) {
                assert!(b_end <= a_end, "{b} in {a}");
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

    /// The DocId resolution the postings column replaced: a multi-range
    /// cursor walk of the DocId tree, each scope's label alone as its bounds.
    fn cursor_docids(
        seg: &Segment,
        scopes: &[(u128, u128)],
        f: &mut dyn FnMut(u128, DocId) -> ControlFlow<()>,
    ) {
        let bound = |n: u128| match seg.codec {
            Codec::V1 => n.to_be_bytes().to_vec(),
            Codec::V2 => Key::new().uint(n).as_slice().to_vec(),
        };
        let mut bad = None;
        let visit = decoding(
            &mut bad,
            |k, _| seg.codec.decode_docid(k),
            |_, (n, doc)| f(n, doc),
        );
        let bounds = |i: usize, lo: &mut Vec<u8>, hi: &mut Vec<u8>| {
            lo.extend_from_slice(&bound(scopes[i].0));
            hi.extend_from_slice(&bound(scopes[i].1));
        };
        seg.docid
            .for_each_in_ranges(scopes.len(), bounds, visit)
            .unwrap();
        assert!(bad.is_none());
    }

    fn assert_joins_like_the_cursor(seg: &Segment) {
        for seed in 1..4 {
            crate::postings::assert_joins_like_the_cursor(
                &|scopes, f| seg.docids_in_scopes(scopes, f).unwrap(),
                &|scopes, f| cursor_docids(seg, scopes, f),
                seed,
            );
        }
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
        assert_joins_like_the_cursor(&v2);

        // The segment a binary from before format 2 wrote (see
        // `tests/segment_v1.rs`), on a copy: its log was checkpointed before
        // the segment was named, so the file alone opens.
        let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/seg_v1");
        let dir = TempDir::new("vist-core-segment-v1");
        std::fs::copy(fixture.join("idx.vist.seg-1"), dir.file("idx.vist.seg-1")).unwrap();
        let v1 = Segment::open(&RealVfs, &dir.file("idx.vist.seg-1"), 1, 64).unwrap();
        assert_eq!(v1.format_version(), 1);
        check_docid_scopes(&v1);
        assert_joins_like_the_cursor(&v1);
    }

    /// A segment of five trees, only the DocId tree holding records, at
    /// `path`.
    fn write_postings_only(path: &Path, postings: Vec<(Vec<u8>, Vec<u8>)>) {
        let frames = FrameFile::create(&RealVfs, path, 512).unwrap();
        let mut w = SegmentWriter::create(Arc::new(BufferPool::with_capacity(frames, 0))).unwrap();
        for tree in [vec![], vec![], postings, vec![], vec![]] {
            w.add_tree(tree).unwrap();
        }
        w.finish(&[0; META_LEN]).unwrap();
    }

    #[test]
    fn an_empty_docid_tree_resolves_nothing_and_a_cut_record_fails_the_open() {
        let dir = TempDir::new("vist-core-segment-postings");
        write_postings_only(&dir.file("seg-1"), Vec::new());
        let empty = Segment::open(&RealVfs, &dir.file("seg-1"), 1, 64).unwrap();
        assert_eq!(empty.postings_bytes(), 0);
        assert_eq!(empty.postings_mismatch(), None);
        assert_joins_like_the_cursor(&empty);

        // The middle posting loses the last byte of its document id.
        let key = |n, doc| (Codec::V2.docid_key(n, doc).as_slice().to_vec(), Vec::new());
        let mut cut = key(300, 70_000);
        cut.0.pop();
        let path = dir.file("seg-2");
        write_postings_only(&path, vec![key(5, 1), cut, key(301, 2)]);
        match Segment::open(&RealVfs, &path, 2, 64) {
            Err(Error::Corrupt(msg)) => {
                assert_eq!(msg, "segment 2: docid tree: malformed record");
            }
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn a_postings_column_missing_a_posting_differs_from_the_docid_tree() {
        let docs: Vec<(DocId, String)> = (0..40)
            .map(|i| (i, format!("<r><a>{}</a><b>{}</b></r>", i % 7, i % 3)))
            .collect();
        let refs: Vec<(DocId, &str)> = docs.iter().map(|(i, x)| (*i, x.as_str())).collect();
        let (_dir, mut seg, _) = build(&refs);
        assert_eq!(seg.postings_mismatch(), None);
        assert_eq!(seg.postings_bytes(), 24 * 40);
        let mut short = Postings::default();
        seg.postings
            .join(&[(0, vist_seq::MAX_SCOPE)], &mut |n, doc| {
                if doc != 17 {
                    short.push(n, doc);
                }
                ControlFlow::Continue(())
            });
        seg.postings = short;
        let msg = seg.postings_mismatch().unwrap();
        assert!(
            msg.contains("holds 39 entries and the DocId tree 40"),
            "{msg}"
        );
    }

    /// The S-Ancestor sweep the runs replaced: a multi-range cursor walk of
    /// the tree, each scope's bounds the keys of `dkid` at its two labels.
    fn cursor_nodes(
        seg: &Segment,
        dkid: u64,
        scopes: &[(u128, u128)],
        f: &mut dyn FnMut(u128, u128) -> ControlFlow<()>,
    ) {
        let mut bad = None;
        let visit = decoding(
            &mut bad,
            |k, v| seg.codec.decode_sanc(k, v),
            |_, (_, n, end)| f(n, end),
        );
        let bounds = |i: usize, lo: &mut Vec<u8>, hi: &mut Vec<u8>| {
            lo.extend_from_slice(seg.codec.sanc_key(dkid, scopes[i].0).as_slice());
            hi.extend_from_slice(seg.codec.sanc_key(dkid, scopes[i].1).as_slice());
        };
        seg.sancestor
            .for_each_in_ranges(scopes.len(), bounds, visit)
            .unwrap();
        assert!(bad.is_none());
    }

    /// Every key's sweeps, and those of two ids past the last key, against
    /// the cursor walk.
    fn assert_sweeps_like_the_cursor(seg: &Segment) {
        for dkid in 0..seg.dkey_count + 2 {
            crate::postings::assert_joins_like_the_cursor(
                &|scopes, f| seg.nodes_in_scopes(dkid, scopes, f).unwrap(),
                &|scopes, f| cursor_nodes(seg, dkid, scopes, f),
                dkid + 1,
            );
        }
        let mut met = 0;
        seg.nodes_in_scopes(u64::MAX, &[(0, vist_seq::MAX_SCOPE)], &mut |_, _| {
            met += 1;
            ControlFlow::Continue(())
        })
        .unwrap();
        assert_eq!(met, 0);
    }

    /// The records of every tree of `seg` and its header's counts, edited
    /// by `edit`, written to `path` as a segment of the current format.
    fn rewrite(seg: &Segment, path: &Path, edit: impl FnOnce(&mut [Records], &mut [u64; 4])) {
        let mut trees: Vec<Records> = seg.records().into_iter().map(|(_, r)| r).collect();
        let mut counts = [seg.doc_count, seg.node_count, seg.dkey_count, seg.max_doc];
        edit(&mut trees, &mut counts);
        let frames = FrameFile::create(&RealVfs, path, 4096).unwrap();
        let mut w = SegmentWriter::create(Arc::new(BufferPool::with_capacity(frames, 0))).unwrap();
        for tree in trees {
            w.add_tree(tree).unwrap();
        }
        w.finish(&counts.map(u64::to_le_bytes).concat()).unwrap();
    }

    fn forty_records() -> (TempDir, Segment) {
        let docs: Vec<(DocId, String)> = (0..40)
            .map(|i| (i, format!("<r><a>{}</a><b>{}</b></r>", i % 7, i % 3)))
            .collect();
        let refs: Vec<(DocId, &str)> = docs.iter().map(|(i, x)| (*i, x.as_str())).collect();
        let (dir, seg, _) = build(&refs);
        (dir, seg)
    }

    #[test]
    fn s_ancestor_runs_sweep_like_the_cursor_in_both_formats() {
        let (dir, v2) = forty_records();
        assert_eq!(v2.format_version(), 2);
        assert_sweeps_like_the_cursor(&v2);
        // One column entry a dkey-id and one past the last, two a node.
        let words = v2.dkey_count + 1 + 2 * v2.node_count;
        assert_eq!(v2.run_bytes(), 4 * words);
        assert_eq!(v2.runs_mismatch(), None);
        assert_eq!(v2.stats_mismatch(), None);

        // Key 1 without entries: the keys after it move up one id.
        let path = dir.file("seg-2");
        rewrite(&v2, &path, |trees, counts| {
            for (k, v) in &mut trees[1] {
                let (dkid, n, _) = Codec::V2.decode_sanc(k, v).unwrap();
                let moved = if dkid == 0 { 0 } else { dkid + 1 };
                *k = Codec::V2.sanc_key(moved, n).as_slice().to_vec();
            }
            counts[2] += 1;
        });
        let gap = Segment::open(&RealVfs, &path, 2, 64).unwrap();
        assert!(gap.runs.run(1).is_empty() && !gap.runs.run(2).is_empty());
        assert_eq!(gap.dkid_stats(1), Some(DkStats { nodes: 0 }));
        assert_eq!(gap.dkid_stats(gap.dkey_count), None);
        assert_sweeps_like_the_cursor(&gap);

        let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/seg_v1");
        let dir = TempDir::new("vist-core-segment-v1-runs");
        std::fs::copy(fixture.join("idx.vist.seg-1"), dir.file("idx.vist.seg-1")).unwrap();
        let v1 = Segment::open(&RealVfs, &dir.file("idx.vist.seg-1"), 1, 64).unwrap();
        assert_eq!(v1.format_version(), 1);
        assert_sweeps_like_the_cursor(&v1);
        assert_eq!(v1.runs_mismatch(), None);
        assert_eq!(v1.stats_mismatch(), None);
    }

    #[test]
    fn a_cut_or_out_of_range_s_ancestor_record_fails_the_open() {
        let (dir, seg) = forty_records();
        let last = seg.dkey_count - 1;
        type Edit = Box<dyn Fn(&mut [Records], &mut [u64; 4])>;
        let cases: [(String, Edit); 4] = [
            (
                "malformed record".into(),
                Box::new(|trees, _| {
                    // The middle record loses the last byte of its value.
                    let mid = trees[1].len() / 2;
                    trees[1][mid].1.pop();
                }),
            ),
            (
                "passes label".into(),
                Box::new(|trees, counts| {
                    // The last record's label moves past every node's.
                    let (k, v) = trees[1].last_mut().unwrap();
                    let (dkid, n, end) = Codec::V2.decode_sanc(k, v).unwrap();
                    let (n, size) = (u128::from(counts[1]) + 2, end - n);
                    *k = Codec::V2.sanc_key(dkid, n).as_slice().to_vec();
                    *v = Codec::encode_sanc_value(&NodeState {
                        n,
                        size,
                        next: n + size,
                        k: 0,
                    });
                }),
            ),
            (
                format!(
                    "{} entries, the header counts {}",
                    seg.node_count,
                    seg.node_count + 1
                ),
                Box::new(|_, counts| counts[1] += 1),
            ),
            (
                format!("dkey-id {last} of {last}"),
                Box::new(|_, counts| counts[2] -= 1),
            ),
        ];
        for (i, (what, edit)) in cases.into_iter().enumerate() {
            let path = dir.file(&format!("seg-{}", i + 2));
            rewrite(&seg, &path, edit);
            match Segment::open(&RealVfs, &path, 7, 64) {
                Err(Error::Corrupt(msg)) => {
                    assert!(msg.starts_with("segment 7: sancestor tree: "), "{msg}");
                    assert!(msg.contains(&what), "{what}: {msg}");
                }
                other => panic!("{what}: expected Corrupt, got {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn runs_missing_an_entry_and_a_wrong_statistics_record_are_reported() {
        let (dir, mut seg) = forty_records();
        let mut planted = seg.runs.clone();
        let dropped = 7;
        planted.labels.remove(dropped);
        planted.ends.remove(dropped);
        for start in planted.starts.iter_mut().filter(|s| **s as usize > dropped) {
            *start -= 1;
        }
        let whole = std::mem::replace(&mut seg.runs, planted);
        let msg = seg.runs_mismatch().unwrap();
        let holds = format!("the runs hold {} entries", seg.node_count - 1);
        assert!(msg.contains(&holds), "{msg}");
        assert!(
            msg.contains(&format!("entry {dropped} is dkey-id")),
            "{msg}"
        );
        // The planner reads the runs, so the statistics tree no longer agrees.
        assert!(seg.stats_mismatch().unwrap().contains("the runs hold"));
        seg.runs = whole;

        // A statistics record one too high.
        let path = dir.file("seg-2");
        rewrite(&seg, &path, |trees, _| {
            let (k, v) = &mut trees[4][3];
            let (dkid, s) = Codec::V2.decode_stats(k, v).unwrap();
            *v = Codec::encode_stats(dkid, &DkStats { nodes: s.nodes + 1 }).1;
        });
        let wrong = Segment::open(&RealVfs, &path, 2, 64).unwrap();
        let (k, v) = &seg.records()[4].1[3];
        let (dkid, s) = Codec::V2.decode_stats(k, v).unwrap();
        let msg = wrong.stats_mismatch().unwrap();
        let want = format!(
            "dkey {dkid}: the statistics tree counts {} S-Ancestor",
            s.nodes + 1
        );
        assert!(msg.starts_with(&want), "{msg}");
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
