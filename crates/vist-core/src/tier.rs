//! The tiers of a [`VistIndex`]: immutable packed segments (the RIST build,
//! paper §3.3) beneath the mutable delta (Algorithms 3–4), and everything
//! that reads or replaces the segment list — the manifest and its crash redo
//! on open, the static build shared by bulk load and compaction, the record
//! walk that reads a tier's trie back, the commit point that publishes a new
//! list, the live documents, and the query fan-out over every tier. An
//! in-memory index has no files and an empty list. Formats and crash
//! protocol: `docs/SEGMENTS.md`.

use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use vist_query::QuerySequence;
use vist_seq::{document_to_sequence, MAX_SCOPE};
use vist_storage::sync::RwLock;
use vist_storage::{Manifest, Vfs};
use vist_xml::Document;

use crate::error::{Error, Result};
use crate::ingest::data_dkey;
use crate::plan::PlanReport;
use crate::search::{search_sequences, SearchOptions, SearchOutcome, SearchSource};
use crate::segment::{Segment, SegmentBuilder};
use crate::store::DocId;
use crate::vist::{bg_op, VistIndex};

/// How many segments accumulate before [`VistIndex::bulk_build`]
/// auto-triggers a compaction.
pub(crate) const COMPACT_SEGMENT_THRESHOLD: usize = 4;

/// The segment tier of an index.
pub(crate) struct Tier {
    /// Where the segment files live; `None` for an in-memory index.
    files: Option<TierFiles>,
    /// Acquired after `maintenance` in the lock hierarchy; held only to
    /// clone or swap the segment list, never across IO.
    state: RwLock<TierState>,
}

struct TierFiles {
    vfs: Arc<dyn Vfs>,
    /// Base path of the index file; the manifest and segments derive their
    /// paths from it (`<base>.manifest`, `<base>.seg-<id>`).
    path: PathBuf,
    page_size: usize,
    cache_pages: usize,
}

/// The manifest naming the live segments, and the opened segments
/// themselves (newest last, matching manifest order).
#[derive(Default)]
struct TierState {
    manifest: Manifest,
    segments: Vec<Arc<Segment>>,
}

impl Tier {
    /// The tier of an in-memory index: no files, no segments.
    pub(crate) fn in_memory() -> Self {
        Tier {
            files: None,
            state: RwLock::new(TierState::default()),
        }
    }

    /// An empty tier whose files live beside the index file at `path`
    /// ([`VistIndex::open_tier`] loads what the manifest names).
    pub(crate) fn at(vfs: Arc<dyn Vfs>, path: &Path, page_size: usize, cache_pages: usize) -> Self {
        Tier {
            files: Some(TierFiles {
                vfs,
                path: path.to_path_buf(),
                page_size,
                cache_pages,
            }),
            ..Tier::in_memory()
        }
    }

    /// Snapshot the live segments (newest last). Cheap: clones a small
    /// `Vec<Arc<_>>` under a brief read lock.
    pub(crate) fn segments(&self) -> Vec<Arc<Segment>> {
        self.state.read().segments.clone()
    }

    fn files(&self) -> Result<&TierFiles> {
        self.files.as_ref().ok_or(Error::NotTiered)
    }
}

impl VistIndex {
    /// Load the segments the manifest names (none without a manifest),
    /// finishing whatever a crash interrupted. Called once by the open,
    /// before the index is shared.
    pub(crate) fn open_tier(&self) -> Result<()> {
        let Some(files) = &self.tier.files else {
            return Ok(());
        };
        let manifest = Manifest::load(files.vfs.as_ref(), &files.path)?.unwrap_or_default();
        // Compaction redo: the manifest swap is the commit point, so a
        // manifest ahead of the delta's epoch means the post-swap delta
        // clear never reached disk. Re-run it — the delta's content was
        // absorbed into the compacted segment before the swap — and commit
        // the globals the clear took out of the aux tree.
        if manifest.delta_epoch > self.store.meta().delta_epoch {
            self.store.clear_delta(manifest.delta_epoch)?;
            self.commit_locked()?;
        }
        let segments = manifest
            .segments
            .iter()
            .map(|&id| {
                let path = Manifest::segment_path(&files.path, id);
                Segment::open(files.vfs.as_ref(), &path, id, files.cache_pages).map(Arc::new)
            })
            .collect::<Result<Vec<_>>>()?;
        // Bulk-load redo: a segment whose doc ids reach past `next_doc` was
        // committed (manifest swapped) before the meta bump was flushed.
        // Bulk ids are contiguous from the old `next_doc`, so the whole
        // segment is unaccounted.
        let mut fixed = false;
        for seg in &segments {
            let mut meta = self.store.meta_mut();
            if seg.doc_count > 0 && seg.max_doc >= meta.next_doc {
                meta.doc_count += seg.doc_count;
                meta.next_doc = seg.max_doc + 1;
                fixed = true;
            }
        }
        if fixed {
            self.flush_locked()?;
        }
        remove_stale_segments(&files.path, &manifest.segments);
        *self.tier.state.write() = TierState { manifest, segments };
        Ok(())
    }

    /// Bulk-load a batch of XML documents into one immutable packed
    /// segment, bypassing the per-document dynamic insert path entirely:
    /// sequences are merged into an in-memory trie, labeled exactly by
    /// preorder rank + subtree size (no scope allocation, no underflows),
    /// sorted in memory, and written as B+Trees at ~100% leaf fill.
    ///
    /// Returns the assigned document ids (contiguous, ascending). The
    /// segment is durable and published in the manifest when this returns;
    /// accumulating [`COMPACT_SEGMENT_THRESHOLD`] segments auto-triggers
    /// [`VistIndex::compact`], documents stored or not. Requires a
    /// file-backed index ([`VistIndex::create_file`] /
    /// [`VistIndex::open_file`] or the `_at` variants), else
    /// [`Error::NotTiered`].
    pub fn bulk_build<I, S>(&self, docs: I) -> Result<Vec<DocId>>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        bg_op("segment_build", move || {
            let _w = self.writer.lock();
            let files = self.tier.files()?;
            let first_doc = self.store.meta().next_doc;
            let mut ids = Vec::new();
            let Some(seg) = self.write_segment(files, |builder| {
                for xml in docs {
                    let xml = xml.as_ref();
                    let doc = vist_xml::parse(xml)?;
                    let seq = {
                        let mut table = self.table.write();
                        document_to_sequence(&doc, &mut table, &self.order)
                    };
                    let path = seq.iter().map(data_dkey).collect::<Result<Vec<_>>>()?;
                    let id = first_doc + ids.len() as u64;
                    builder.add_doc(id, &path, Some(xml.as_bytes()))?;
                    ids.push(id);
                }
                Ok(())
            })?
            else {
                return Ok(ids);
            };
            // Commit point. A crash before this leaves an orphan file (the
            // id gets reused and truncated); a crash after is healed on
            // reopen by the max_doc watermark (see `open_tier`).
            let mut segments = self.tier.segments();
            segments.push(Arc::new(seg));
            let delta_epoch = self.tier.state.read().manifest.delta_epoch;
            self.publish(files, delta_epoch, segments)?;
            {
                let mut meta = self.store.meta_mut();
                meta.next_doc = first_doc + ids.len() as u64;
                meta.doc_count += ids.len() as u64;
            }
            self.flush_locked()?;
            // A flush is a commit; a new tier state also leaves no log behind.
            self.store.pool().checkpoint()?;
            vist_obs::counter!("vist_core_bulk_docs_total").add(ids.len() as u64);
            let segments = self.tier.state.read().segments.len();
            if segments >= COMPACT_SEGMENT_THRESHOLD {
                self.compact_locked()?;
            }
            Ok(ids)
        })
    }

    /// Merge the delta and every segment into one fresh packed segment,
    /// dropping tombstoned documents for good, then reset the delta.
    /// Document ids are preserved; the input is the tiers' own records
    /// (`tier_paths`), stored documents are copied, none is parsed. The
    /// manifest swap is the commit point: a crash at any earlier point
    /// leaves the old state, a crash after it is finished on reopen by
    /// re-clearing the delta (`delta_epoch` handshake — see
    /// `docs/SEGMENTS.md`). Requires a file-backed index.
    pub fn compact(&self) -> Result<()> {
        let _w = self.writer.lock();
        self.compact_locked()
    }

    fn compact_locked(&self) -> Result<()> {
        bg_op("compaction", || {
            let files = self.tier.files()?;
            let (old_ids, delta_epoch, segments) = {
                let st = self.tier.state.read();
                let old = st.manifest.segments.clone();
                (old, st.manifest.delta_epoch, st.segments.clone())
            };
            // Each live document as a path into its tier's keys, `keys[t]`.
            let tombs = self.store.tomb_ids()?;
            let (mut keys, mut docs) = (Vec::new(), Vec::new());
            for (t, (seg_id, source)) in self.tiers(&segments).enumerate() {
                let (tier_keys, tier_docs, _) = tier_paths(source, &tier_name(seg_id), &tombs)?;
                docs.extend(tier_docs.into_iter().map(|(doc, path)| (doc, t, path)));
                keys.push(tier_keys);
            }
            // Fed by id, like a bulk load; `move` frees the paths before the build.
            docs.sort_unstable_by_key(|&(doc, ..)| doc);
            let compacted = self.write_segment(files, move |builder| {
                for (id, t, path) in docs {
                    let xml = self.stored_bytes(id, &segments)?;
                    let path = path.iter().map(|&k| &keys[t][k as usize]);
                    builder.add_doc(id, path, xml.as_deref())?;
                }
                Ok(())
            })?;
            // Commit point: the new manifest names only the compacted
            // segment and advances the delta epoch, obligating a delta clear.
            let compacted = compacted.into_iter().map(Arc::new).collect();
            self.publish(files, delta_epoch + 1, compacted)?;
            // The clear emptied the aux tree: a full commit writes every
            // global record back, the stats model included.
            self.commit_locked()?;
            self.store.pool().checkpoint()?;
            // The replaced segment files are garbage; unlink best-effort
            // (the next open removes any left behind). Concurrent readers
            // that cloned the old Arcs keep their open handles and finish
            // safely.
            for id in old_ids {
                let _ = files.vfs.remove(&Manifest::segment_path(&files.path, id));
            }
            vist_obs::counter!("vist_core_compactions_total").inc();
            Ok(())
        })
    }

    /// The static build (paper §3.3), shared by bulk load and compaction:
    /// `fill` hands one [`SegmentBuilder`] each document's key path and
    /// text; the builder writes the stored text into the next segment file
    /// as it comes, labels the merged trie and writes the rest: durable on
    /// return, named by no manifest ([`VistIndex::publish`] is the caller's
    /// next step). `None` when `fill` adds no document. A failed or empty
    /// build removes its file; the next build truncates a crashed one's.
    fn write_segment(
        &self,
        files: &TierFiles,
        fill: impl FnOnce(&mut SegmentBuilder) -> Result<()>,
    ) -> Result<Option<Segment>> {
        let store_documents = self.store.meta().store_documents;
        let id = {
            let st = self.tier.state.read();
            st.manifest.segments.iter().max().map_or(1, |id| id + 1)
        };
        let (vfs, path) = (files.vfs.as_ref(), Manifest::segment_path(&files.path, id));
        let built = SegmentBuilder::new(vfs, &path, files.page_size, store_documents).and_then(
            |mut builder| {
                fill(&mut builder)?;
                builder.finish(vfs, id, files.cache_pages)
            },
        );
        if !matches!(built, Ok(Some(_))) {
            let _ = vfs.remove(&path);
        }
        built
    }

    /// The commit point of a bulk load and of a compaction: store the next
    /// generation of the manifest, naming `segments` (oldest first) at
    /// `delta_epoch`, then make it the tier's state. A manifest that
    /// advances the delta epoch obligates a delta clear (the one
    /// [`VistIndex::open_tier`] redoes after a crash), done here before
    /// readers can see the new segment list. The caller holds the writer
    /// lock and commits afterwards (with [`VistIndex::commit_locked`] when
    /// the delta was cleared).
    fn publish(
        &self,
        files: &TierFiles,
        delta_epoch: u64,
        segments: Vec<Arc<Segment>>,
    ) -> Result<()> {
        // A new segment's dkeys encode symbols interned while it was built:
        // persist the table BEFORE the manifest can reference the segment.
        self.flush_locked()?;
        let (generation, clear) = {
            let st = self.tier.state.read();
            (
                st.manifest.generation + 1,
                delta_epoch > st.manifest.delta_epoch,
            )
        };
        let manifest = Manifest {
            generation,
            delta_epoch,
            segments: segments.iter().map(|seg| seg.id).collect(),
        };
        manifest.store(files.vfs.as_ref(), &files.path)?;
        // Clearing resets the delta's pager: exclude readers.
        let _m = clear.then(|| self.maintenance.write());
        if clear {
            self.store.clear_delta(delta_epoch)?;
        }
        *self.tier.state.write() = TierState { manifest, segments };
        Ok(())
    }

    /// Every tier as a search source: the delta (`None`), then the segments.
    pub(crate) fn tiers<'a>(
        &'a self,
        segments: &'a [Arc<Segment>],
    ) -> impl Iterator<Item = (Option<u64>, &'a dyn SearchSource)> {
        std::iter::once((None, &self.store as &dyn SearchSource)).chain(
            segments
                .iter()
                .map(|seg| (Some(seg.id), seg.as_ref() as &dyn SearchSource)),
        )
    }

    /// All live document ids ([`live_postings`]), ascending; the caller
    /// holds the maintenance latch.
    pub(crate) fn live_doc_ids(&self, segments: &[Arc<Segment>]) -> Result<Vec<DocId>> {
        let tombs = self.store.tomb_ids()?;
        let mut ids = Vec::new();
        for (_, source) in self.tiers(segments) {
            ids.extend(live_postings(source, &tombs)?.into_iter().map(|p| p.1));
        }
        ids.sort_unstable();
        Ok(ids)
    }

    /// The stored text of `id`, tombstoned or not: the delta's, else the
    /// newest segment's.
    pub(crate) fn stored_bytes(&self, id: DocId, segs: &[Arc<Segment>]) -> Result<Option<Vec<u8>>> {
        match self.store.doc_get(id)? {
            Some(xml) => Ok(Some(xml)),
            None => segs
                .iter()
                .rev()
                .find_map(|seg| seg.doc_get(id).transpose())
                .transpose(),
        }
    }

    /// The text of live stored document `id`: a caller whose id came from
    /// [`VistIndex::search_tiers`] passes `masked`, else a tombstone makes it
    /// [`Error::NoSuchDocument`]. Caller holds the maintenance latch.
    pub(crate) fn stored_document(
        &self,
        id: DocId,
        segments: &[Arc<Segment>],
        masked: bool,
    ) -> Result<String> {
        if !masked && self.store.tomb_contains(id)? {
            return Err(Error::NoSuchDocument(id));
        }
        let xml = self.stored_bytes(id, segments)?;
        String::from_utf8(xml.ok_or(Error::NoSuchDocument(id))?)
            .map_err(|_| Error::Corrupt("stored document is not UTF-8".into()))
    }

    /// Algorithm 2 over every tier: the delta, then each segment, oldest
    /// first. Every tier is its own label space, so the match runs once
    /// per source; document ids are unioned less the tombstoned ones,
    /// scopes concatenated, counters and stage timings summed, and the
    /// plan of each tier that ran is returned under its name when
    /// `sopts.collect_plan` asks for plans. A limited search stops at the
    /// first tier that fills the limit. The caller holds the maintenance
    /// latch.
    pub(crate) fn search_tiers(
        &self,
        seqs: &[QuerySequence],
        sopts: &SearchOptions,
    ) -> Result<(SearchOutcome, Vec<(String, PlanReport)>)> {
        let t = vist_obs::now();
        let tombs = self.store.tomb_ids()?;
        let mut union_nanos = vist_obs::elapsed_nanos(t).unwrap_or(0);
        let segments = self.tier.segments();
        let mut total = SearchOutcome::default();
        let mut plans: Vec<(String, PlanReport)> = Vec::new();
        for (seg_id, source) in self.tiers(&segments) {
            if sopts.limit.is_some_and(|k| total.docs.len() >= k) {
                break;
            }
            // Over-provision a limited search by the tombstone count: up to
            // that many of its hits may be masked below.
            let opts = SearchOptions {
                limit: sopts.limit.map(|k| k - total.docs.len() + tombs.len()),
                ..*sopts
            };
            let o = search_sequences(source, seqs, &opts)?;
            total.stats.merge(&o.stats);
            total.timings.plan_nanos += o.timings.plan_nanos;
            total.timings.match_nanos += o.timings.match_nanos;
            total.timings.merge_nanos += o.timings.merge_nanos;
            total.timings.docid_nanos += o.timings.docid_nanos;
            total.scopes.extend(o.scopes);
            let t = vist_obs::now();
            join_live(&mut total.docs, o.docs, &tombs);
            union_nanos += vist_obs::elapsed_nanos(t).unwrap_or(0);
            plans.extend(o.plan.map(|p| (tier_name(seg_id), p)));
        }
        // The union can overshoot the limit; keep the smallest k.
        total.docs.truncate(sopts.limit.unwrap_or(usize::MAX));
        // Timed between the tiers' own spans: one visit, grafted.
        total.timings.merge_nanos += union_nanos;
        vist_obs::span::attach(vist_obs::SpanNode::leaf("merge", union_nanos, 1));
        total.stats.publish();
        Ok((total, plans))
    }
}

/// Delete the segment files a compaction replaced but never unlinked (it
/// crashed after its commit point, or an unlink failed): every
/// `<base>.seg-<id>` whose id is below the largest id in `live` and not in
/// `live`. Ids only grow, so nothing reuses them. A file above that id may
/// be a bulk build not yet published, and the next build truncates it
/// anyway. Every `<base>.seg-<id>.wal` goes too, live ids' included: older
/// builds wrote a segment through a log, which they checkpointed before
/// the manifest named the segment, and nothing reads it. So does
/// `<base>.ingest-tmp`, file or directory, where older builds kept their
/// stored documents until the end of the build. Best-effort, through
/// `std::fs`: it lists a directory, which the `Vfs` does not.
fn remove_stale_segments(base: &Path, live: &[u64]) {
    let mut scratch = base.as_os_str().to_os_string();
    scratch.push(".ingest-tmp");
    let scratch = Path::new(&scratch);
    let _ = std::fs::remove_file(scratch).or_else(|_| std::fs::remove_dir_all(scratch));
    let (Some(&newest), Some(name)) = (live.iter().max(), base.file_name()) else {
        return;
    };
    let dir = base.parent().filter(|d| !d.as_os_str().is_empty());
    let Ok(entries) = std::fs::read_dir(dir.unwrap_or(Path::new("."))) else {
        return;
    };
    let prefix = format!("{}.seg-", name.to_string_lossy());
    for entry in entries.flatten() {
        let file = entry.file_name();
        let id = file.to_str().and_then(|f| f.strip_prefix(&prefix));
        let stale = |id: &str| {
            id.parse()
                .is_ok_and(|id: u64| id < newest && !live.contains(&id))
        };
        if id.is_some_and(|id| id.ends_with(".wal") || stale(id)) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// The tier union: join a tier's ids `run`, less those in `tombs`, into
/// `ids` — all three ascending, and `ids` stays so and distinct. Appended,
/// the two are sorted runs, which the stable sort merges in linear time.
fn join_live(ids: &mut Vec<DocId>, mut run: Vec<DocId>, tombs: &[DocId]) {
    run.retain(|id| tombs.binary_search(id).is_err());
    if ids.is_empty() {
        *ids = run;
        return;
    }
    ids.append(&mut run);
    ids.sort();
    ids.dedup();
}

/// Parse a stored document: it parsed when it went in, so a failure is
/// corruption.
pub(crate) fn parse_stored(text: &str) -> Result<Document> {
    vist_xml::parse(text).map_err(|e| Error::Corrupt(format!("stored document unparseable: {e}")))
}

/// How reports and errors name a tier of [`VistIndex::tiers`].
pub(crate) fn tier_name(seg_id: Option<u64>) -> String {
    seg_id.map_or("delta".to_string(), |id| format!("segment {id}"))
}

/// The live DocId entries `(n, doc)` of one tier: a live document, in every
/// tier, is a DocId entry whose id has no tombstone (`tombs`, ascending).
fn live_postings(source: &dyn SearchSource, tombs: &[DocId]) -> Result<Vec<(u128, DocId)>> {
    let mut out = Vec::new();
    source.docids_in_scopes(&[(0, MAX_SCOPE)], &mut |n, doc| {
        if tombs.binary_search(&doc).is_err() {
            out.push((n, doc));
        }
        ControlFlow::Continue(())
    })?;
    Ok(out)
}

/// One tier's D-Ancestor keys, its live documents as paths into them, and
/// `(dkey-id, S-Ancestor entries)` of every key, by id.
pub(crate) type TierPaths = (Vec<Vec<u8>>, Vec<(DocId, Vec<u32>)>, Vec<(u64, u64)>);

/// The record walk of compaction and [`VistIndex::check`]: the index is the
/// trie of the documents' sequences (paper §3.3), so read it back through
/// [`SearchSource`]: the D-Ancestor keys, each key's S-Ancestor entries
/// (counted for [`stats_mismatch`]), sorted by label. Labels nest, so the
/// innermost scope open at an entry's label is its parent's, and a live
/// DocId entry's path runs down to the entry its label names (label 0, the
/// virtual root, is an empty path). A label held twice, a scope that starts inside another and ends past it or
/// a posting at no entry's label is [`Error::Corrupt`] naming `tier`.
pub(crate) fn tier_paths(
    source: &dyn SearchSource,
    tier: &str,
    tombs: &[DocId],
) -> Result<TierPaths> {
    let corrupt =
        |what: String| -> Result<TierPaths> { Err(Error::Corrupt(format!("{tier}: {what}"))) };
    let (mut keys, mut ids) = (Vec::new(), Vec::new());
    // Every key starts with a symbol tag, 1 or 2.
    source.dkey_scan_range(&[], &[0xff], &mut |key, id| {
        ids.push((id, keys.len() as u32));
        keys.push(key.to_vec());
        ControlFlow::Continue(())
    })?;
    // By id, the S-Ancestor tree's first key component: one forward walk.
    ids.sort_unstable();
    let (mut nodes, mut entries) = (Vec::new(), Vec::with_capacity(ids.len()));
    for (id, key) in ids {
        let before = nodes.len();
        source.nodes_in_scopes(id, &[(0, MAX_SCOPE)], &mut |node| {
            nodes.push((node.n, node.end(), key));
            ControlFlow::Continue(())
        })?;
        entries.push((id, (nodes.len() - before) as u64));
    }
    nodes.sort_unstable_by_key(|&(n, ..)| n);
    // `parent[i]` is one past the index of entry `i`'s parent; 0 for none.
    let (mut parent, mut open) = (vec![0u32; nodes.len()], Vec::<usize>::new());
    for (i, &(n, end, _)) in nodes.iter().enumerate() {
        if i > 0 && nodes[i - 1].0 == n {
            return corrupt(format!("two S-Ancestor entries hold label {n}"));
        }
        while open.last().is_some_and(|&j| nodes[j].1 <= n) {
            open.pop();
        }
        if let Some(&j) = open.last() {
            let (up_n, up_end, _) = nodes[j];
            if end > up_end {
                return corrupt(format!("scope [{n}, {end}) ends past [{up_n}, {up_end})"));
            }
            parent[i] = j as u32 + 1;
        }
        open.push(i);
    }
    let mut docs = Vec::new();
    for (n, doc) in live_postings(source, tombs)? {
        let mut at = match nodes.binary_search_by_key(&n, |&(n, ..)| n) {
            Ok(i) => i + 1,
            Err(_) if n == 0 => 0,
            Err(_) => return corrupt(format!("label {n} of document {doc} names no entry")),
        };
        let mut path = Vec::new();
        while at > 0 {
            path.push(nodes[at - 1].2);
            at = parent[at - 1] as usize;
        }
        path.reverse();
        docs.push((doc, path));
    }
    Ok((keys, docs, entries))
}

/// The first key whose planner statistics do not count the S-Ancestor
/// entries [`tier_paths`] found under it, as `vist check` reports it. A key
/// without statistics counts none.
pub(crate) fn stats_mismatch(source: &dyn SearchSource, entries: &[(u64, u64)]) -> Option<String> {
    entries.iter().find_map(|&(dkid, held)| {
        let counted = source.dkid_stats(dkid).map_or(0, |s| s.nodes);
        (counted != held).then(|| {
            format!("dkey {dkid}: the planner counts {counted} S-Ancestor entries, the tree holds {held}")
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::tests::add_parsed;
    use crate::{IndexOptions, NaiveIndex, QueryOptions};
    use vist_storage::testutil::TempDir;
    use vist_storage::{FaultMode, FaultVfs, RealVfs};

    /// One corpus of the differential test: its documents (the first
    /// `delta_from` bulk-loaded as two segments, the rest inserted into the
    /// delta), the queries to answer and the index options.
    struct Corpus {
        name: &'static str,
        docs: Vec<String>,
        delta_from: usize,
        queries: Vec<String>,
        opts: IndexOptions,
    }

    fn xml_of(docs: Vec<vist_xml::Document>) -> Vec<String> {
        docs.iter().map(vist_xml::Document::to_xml).collect()
    }

    fn corpora() -> Vec<Corpus> {
        let table3 = |qs: Vec<(&str, String)>| qs.into_iter().map(|(_, q)| q).collect();
        let dblp = Corpus {
            name: "dblp",
            docs: xml_of(vist_datagen::dblp::documents(240, 7)),
            delta_from: 160,
            queries: table3(vist_datagen::dblp::table3_queries()),
            opts: IndexOptions::default(),
        };
        let xmark = Corpus {
            name: "xmark",
            docs: xml_of(vist_datagen::xmark::documents(120, 11)),
            delta_from: 80,
            queries: table3(vist_datagen::xmark::table3_queries()),
            opts: IndexOptions::default(),
        };
        // At a fixed λ = 2, `b` in the delta runs out of labels after 126
        // children; every later document that leaves a chain below it
        // borrows a block from `a` (node incarnations).
        let mut docs: Vec<String> = (0..40).map(|i| format!("<a><b><s{i}/></b></a>")).collect();
        docs.extend((0..126).map(|i| format!("<a><b><c{i}/></b></a>")));
        docs.push("<a><b><x><d><e/></d></x></b></a>".into());
        docs.push("<a><b><x><f/></x></b></a>".into());
        for i in 0..6 {
            docs.push(format!("<a><b><x><g{i}/></x></b></a>"));
            docs.push(format!("<a><b><c{i}><y/></c{i}></b></a>"));
            docs.push(format!("<a><b><x><d><h{i}/></d></x></b></a>"));
        }
        let queries = [
            "/a/b/x/d",
            "/a/b/x/d/e",
            "/a/b/x",
            "//f",
            "/a/b/*/y",
            "//g3",
            "/a/b/c5",
            "//d/*",
        ];
        let borrow = Corpus {
            name: "borrow",
            docs,
            delta_from: 40,
            queries: queries.map(String::from).to_vec(),
            opts: IndexOptions {
                lambda: 2,
                adaptive: false,
                ..IndexOptions::default()
            },
        };
        vec![dblp, xmark, borrow]
    }

    /// The names in `dir`, sorted.
    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn a_build_leaves_only_the_index_files() {
        for store_documents in [true, false] {
            let dir = TempDir::new("vist-core-build-scratch");
            let opts = IndexOptions {
                store_documents,
                ..IndexOptions::default()
            };
            let idx = VistIndex::create_file(dir.file("idx"), opts).unwrap();
            // The third document does not parse.
            let docs = ["<a><b/></a>", "<a><c/></a>", "<a><b>", "<a/>"];
            assert!(matches!(idx.bulk_build(docs), Err(Error::Xml(_))));
            assert_eq!(listing(dir.path()), ["idx", "idx.wal"]);
            // Nor does the last, after more than a write chunk of text: when
            // it is stored, documents-tree pages reached the file first.
            let big = format!("<a>{}</a>", "x".repeat(32 << 10));
            let mut many = vec![big.as_str(); 40];
            many.push("<a>");
            assert!(matches!(idx.bulk_build(&many), Err(Error::Xml(_))));
            assert_eq!(listing(dir.path()), ["idx", "idx.wal"]);
            // A build that adds no document leaves no file either.
            assert!(idx.bulk_build(Vec::<String>::new()).unwrap().is_empty());
            assert_eq!(listing(dir.path()), ["idx", "idx.wal"]);
            idx.bulk_build(&docs[..2]).unwrap();
            let files = ["idx", "idx.manifest", "idx.seg-1", "idx.wal"];
            assert_eq!(listing(dir.path()), files);
        }
    }

    /// A crash is no failed build: the dead process removes nothing, so its
    /// unsealed file stays, above the manifest's ids, until the next build
    /// takes its id and truncates it.
    #[test]
    fn a_crashed_build_leaves_its_file_to_the_next_build() {
        let dir = TempDir::new("vist-core-crashed-build");
        let path = dir.file("idx");
        let vfs = FaultVfs::new(Arc::new(RealVfs));
        let handle = vfs.handle();
        let idx = VistIndex::create_at(Arc::new(vfs), &path, IndexOptions::default()).unwrap();
        idx.flush().unwrap();
        // The build's first operation creates its file; it dies at the next.
        handle.schedule(handle.op_count() + 1, FaultMode::Crash, 0);
        assert!(idx.bulk_build(["<a><b/></a>"]).is_err());
        assert!(handle.crashed());
        drop(idx);
        assert_eq!(listing(dir.path()), ["idx", "idx.seg-1", "idx.wal"]);
        let idx = VistIndex::open_file(&path, 64).unwrap();
        assert_eq!(idx.bulk_build(["<a><c/></a>"]).unwrap(), [0]);
        let files = ["idx", "idx.manifest", "idx.seg-1", "idx.wal"];
        assert_eq!(listing(dir.path()), files);
        let found = idx.query("/a/c", &QueryOptions::default()).unwrap();
        assert_eq!(found.doc_ids, [0]);
    }

    #[test]
    fn an_older_builds_scratch_is_removed_at_open() {
        let dir = TempDir::new("vist-core-stale-scratch");
        let path = dir.file("idx");
        let idx = VistIndex::create_file(&path, IndexOptions::default()).unwrap();
        idx.flush().unwrap();
        drop(idx);
        let scratch = dir.file("idx.ingest-tmp");
        // A scratch file, and the directory builds before it spilled into.
        std::fs::write(&scratch, b"doc-len-bytes").unwrap();
        drop(VistIndex::open_file(&path, 64).unwrap());
        assert_eq!(listing(dir.path()), ["idx", "idx.wal"]);
        std::fs::create_dir(&scratch).unwrap();
        std::fs::write(scratch.join("run-0"), b"spill").unwrap();
        drop(VistIndex::open_file(&path, 64).unwrap());
        assert_eq!(listing(dir.path()), ["idx", "idx.wal"]);
    }

    /// The oracle of a compaction: the static build of `idx`'s live
    /// documents from their stored text, re-parsed, in id order.
    fn reparsed(idx: &VistIndex, path: &Path) -> Segment {
        let page_size = idx.store.pool().page_size();
        let mut b = SegmentBuilder::new(&RealVfs, path, page_size, true).unwrap();
        let mut table = idx.table();
        for id in idx.document_ids().unwrap() {
            let xml = idx.get_document_xml(id).unwrap();
            add_parsed(&mut b, &mut table, &idx.order, id, &xml);
        }
        assert_eq!(table.len(), idx.table().len(), "the text holds no new name");
        let seg = b.finish(&RealVfs, 0, 64);
        seg.unwrap().expect("live documents")
    }

    /// Every tier's planner statistics count its S-Ancestor entries key by
    /// key — the delta's incarnations too — before a reopen, after it (the
    /// delta counts its tree again) and after a compaction; `check` reports
    /// a count that drifts.
    #[test]
    fn planner_statistics_count_every_tiers_s_ancestor_entries() {
        for corpus in corpora() {
            let name = corpus.name;
            let dir = TempDir::new("vist-core-tier-stats");
            let path = dir.file("idx.vist");
            let idx = VistIndex::create_file(&path, corpus.opts.clone()).unwrap();
            let (docs, split) = (&corpus.docs, corpus.delta_from);
            idx.bulk_build(&docs[..split / 2]).unwrap();
            idx.bulk_build(&docs[split / 2..split]).unwrap();
            for xml in &docs[split..] {
                idx.insert_xml(xml).unwrap();
            }
            if name == "borrow" {
                assert!(idx.stats().deep_borrows > 1, "{name}");
            }
            let counted = |idx: &VistIndex, when: &str| {
                let segments = idx.tier.segments();
                let mut tiers = 0;
                for (seg_id, source) in idx.tiers(&segments) {
                    let tier = tier_name(seg_id);
                    let (.., entries) = tier_paths(source, &tier, &[]).unwrap();
                    // A compaction leaves the delta empty.
                    assert!(
                        seg_id.is_none() || !entries.is_empty(),
                        "{name} {when}: {tier}"
                    );
                    for (dkid, held) in entries {
                        let counted = source.dkid_stats(dkid).map_or(0, |s| s.nodes);
                        assert_eq!(counted, held, "{name} {when}: {tier} dkey {dkid}");
                    }
                    tiers += 1;
                }
                let report = idx.check().unwrap();
                assert_eq!(report.matches(" statistics ok").count(), tiers, "{report}");
            };
            counted(&idx, "before a reopen");
            let (.., entries) = tier_paths(&idx.store, "delta", &[]).unwrap();
            idx.store.stats_node_added(entries[0].0);
            let Err(Error::Corrupt(report)) = idx.check() else {
                panic!("{name}: check passed a count one too high");
            };
            assert!(report.contains("delta statistics CORRUPT"), "{report}");
            idx.flush().unwrap();
            drop(idx);
            let idx = VistIndex::open_file(&path, 64).unwrap();
            counted(&idx, "after a reopen");
            idx.compact().unwrap();
            counted(&idx, "after a compaction");
        }
    }

    #[test]
    fn compaction_from_the_records_equals_the_reparse_oracle() {
        for corpus in corpora() {
            let name = corpus.name;
            let dir = TempDir::new("vist-core-compact-walk");
            let path = dir.file("idx.vist");
            let idx = VistIndex::create_file(&path, corpus.opts.clone()).unwrap();
            let (docs, split) = (&corpus.docs, corpus.delta_from);
            idx.bulk_build(&docs[..split / 2]).unwrap();
            idx.bulk_build(&docs[split / 2..split]).unwrap();
            for xml in &docs[split..] {
                idx.insert_xml(xml).unwrap();
            }
            if name == "borrow" {
                assert!(idx.stats().deep_borrows > 1, "{name}");
            }
            // Tombstones in both segments and in the delta.
            let removed: Vec<DocId> = (0..docs.len() as u64).filter(|id| id % 5 == 3).collect();
            for &id in &removed {
                idx.remove_document(id).unwrap();
            }
            let mut naive = NaiveIndex::default();
            for xml in docs {
                naive.insert_document(&vist_xml::parse(xml).unwrap());
            }
            let opts = QueryOptions::default();
            let mut check_answers = |idx: &VistIndex, when: &str| {
                for q in &corpus.queries {
                    let mut want = naive.query(q, &opts).unwrap();
                    want.retain(|id| !removed.contains(id));
                    let got = idx.query(q, &opts).unwrap().doc_ids;
                    assert_eq!(got, want, "{name} {when}: {q}");
                }
            };
            check_answers(&idx, "before compaction");
            idx.compact().unwrap();
            check_answers(&idx, "after compaction");
            idx.check().unwrap();

            let segments = idx.tier.segments();
            assert_eq!(segments.len(), 1, "{name}");
            let oracle = reparsed(&idx, &dir.file("oracle"));
            for ((tree, got), (_, want)) in segments[0].records().iter().zip(oracle.records()) {
                assert!(
                    *got == want,
                    "{name}: {tree} tree: {} records, the oracle's {}",
                    got.len(),
                    want.len()
                );
            }
            let file = Manifest::segment_path(&path, segments[0].id);
            assert!(
                std::fs::read(file).unwrap() == std::fs::read(dir.file("oracle")).unwrap(),
                "{name}: segment files differ"
            );
        }
    }
}
