//! The tiers of a [`VistIndex`]: immutable packed segments (the RIST build,
//! paper §3.3) beneath the mutable delta (Algorithms 3–4), and everything
//! that reads or replaces the segment list — its open, the static build
//! shared by bulk load and compaction, the record walk that reads a tier's
//! trie back, the commit that names a new list, the live documents, and the
//! query fan-out over every tier. The delta's aux tree names the live
//! segments, so the delta's commit is the tier's only commit point. An
//! in-memory index has no files and an empty list. Formats and crash
//! protocol: `docs/SEGMENTS.md`.

use std::io;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use vist_query::QuerySequence;
use vist_seq::{document_to_sequence, MAX_SCOPE};
use vist_storage::sync::RwLock;
use vist_storage::{crc32c, OpenMode, Vfs};
use vist_xml::Document;

use crate::error::{Error, Result};
use crate::ingest::data_dkey;
use crate::plan::PlanReport;
use crate::postings::sort_distinct;
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
    /// The live segments, oldest first: the ones the delta's aux tree
    /// names. Acquired after `maintenance` in the lock hierarchy; held only
    /// to clone or swap the list, never across IO.
    segments: RwLock<Vec<Arc<Segment>>>,
}

struct TierFiles {
    vfs: Arc<dyn Vfs>,
    /// Base path of the index file; the segments derive their paths from it
    /// (`<base>.seg-<id>`).
    path: PathBuf,
    page_size: usize,
    cache_pages: usize,
}

/// Path of segment `id` of the index file `base`: `<base>.seg-<id>`.
pub fn segment_path<P: AsRef<Path>>(base: P, id: u64) -> PathBuf {
    sidecar(base.as_ref(), &format!(".seg-{id}"))
}

/// `base` with `suffix` appended to its file name.
fn sidecar(base: &Path, suffix: &str) -> PathBuf {
    let mut os = base.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

impl Tier {
    /// The tier of an in-memory index: no files, no segments.
    pub(crate) fn in_memory() -> Self {
        Tier {
            files: None,
            segments: RwLock::new(Vec::new()),
        }
    }

    /// An empty tier whose files live beside the index file at `path`
    /// ([`VistIndex::open_tier`] loads what the delta names).
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
        self.segments.read().clone()
    }

    fn files(&self) -> Result<&TierFiles> {
        self.files.as_ref().ok_or(Error::NotTiered)
    }
}

impl TierFiles {
    fn open_segments(&self, ids: &[u64]) -> Result<Vec<Arc<Segment>>> {
        ids.iter()
            .map(|&id| {
                let path = segment_path(&self.path, id);
                Segment::open(self.vfs.as_ref(), &path, id, self.cache_pages).map(Arc::new)
            })
            .collect()
    }
}

impl VistIndex {
    /// Open the segments the delta's aux tree names; a manifest-era file
    /// has its list moved there first ([`VistIndex::open_manifest_era`]).
    /// Called once by the open, before the index is shared.
    pub(crate) fn open_tier(&self) -> Result<()> {
        let Some(files) = &self.tier.files else {
            return Ok(());
        };
        let segments = match self.store.manifest_era_epoch()? {
            Some(delta_epoch) => self.open_manifest_era(files, delta_epoch)?,
            None => files.open_segments(&self.store.segment_ids()?)?,
        };
        let live: Vec<u64> = segments.iter().map(|seg| seg.id).collect();
        remove_stale_segments(&files.path, &live);
        *self.tier.segments.write() = segments;
        Ok(())
    }

    /// Open a manifest-era index, whose `<base>.manifest` ([`read_manifest`])
    /// named its live segments beside the delta. That era committed a bulk
    /// load or a compaction across the two files, and its open carried two
    /// redos to reconcile them; they run here once more. Then the list goes
    /// into aux, and one commit makes the file a current one, meta magic
    /// included; [`remove_stale_segments`] deletes the manifest after it. A
    /// crash before that commit leaves the manifest-era file, and the next
    /// open starts over.
    fn open_manifest_era(&self, files: &TierFiles, delta_epoch: u64) -> Result<Vec<Arc<Segment>>> {
        let (manifest_epoch, ids) = read_manifest(files.vfs.as_ref(), &files.path)?;
        let segments = files.open_segments(&ids)?;
        // Compaction redo: the manifest swap was the commit point, so a
        // manifest ahead of the delta's epoch means the delta clear after it
        // never reached disk. The compacted segment holds what the delta did.
        if manifest_epoch > delta_epoch {
            self.store.clear_delta()?;
        }
        // Bulk-load reconcile: a segment whose doc ids reach past `next_doc`
        // was named before the meta bump was committed. Bulk ids are
        // contiguous from the old `next_doc`, so the whole segment is
        // unaccounted.
        for seg in &segments {
            let mut meta = self.store.meta_mut();
            if seg.doc_count > 0 && seg.max_doc >= meta.next_doc {
                meta.doc_count += seg.doc_count;
                meta.next_doc = seg.max_doc + 1;
            }
        }
        for seg in &segments {
            self.store.segment_put(seg.id)?;
        }
        // A clear emptied aux: a full commit writes every global back.
        self.commit_locked()?;
        Ok(segments)
    }

    /// Bulk-load a batch of XML documents into one immutable packed
    /// segment, bypassing the per-document dynamic insert path entirely:
    /// sequences are merged into an in-memory trie, labeled exactly by
    /// preorder rank + subtree size (no scope allocation, no underflows),
    /// sorted in memory, and written as B+Trees at ~100% leaf fill.
    ///
    /// Returns the assigned document ids (contiguous, ascending). The
    /// segment is durable and named by the delta when this returns;
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
            // Commit point: one commit names the segment, counts its
            // documents and persists the symbols its dkeys encode. A crash
            // before it leaves an orphan file, whose id the next build takes
            // and truncates.
            self.store.segment_put(seg.id)?;
            {
                let mut meta = self.store.meta_mut();
                meta.next_doc = first_doc + ids.len() as u64;
                meta.doc_count += ids.len() as u64;
            }
            let mut live = self.tier.segments();
            live.push(Arc::new(seg));
            self.publish(live)?;
            // A new tier state leaves no log behind.
            self.store.pool().checkpoint()?;
            vist_obs::counter!("vist_core_bulk_docs_total").add(ids.len() as u64);
            if self.tier.segments.read().len() >= COMPACT_SEGMENT_THRESHOLD {
                self.compact_locked()?;
            }
            Ok(ids)
        })
    }

    /// Merge the delta and every segment into one fresh packed segment,
    /// dropping tombstoned documents for good, then reset the delta.
    /// Document ids are preserved; the input is the tiers' own records
    /// (`tier_paths`), stored documents are copied, none is parsed. The
    /// commit of the reset delta, which names the new segment alone, is the
    /// commit point: a crash before it leaves the old state, one after it
    /// the new. Requires a file-backed index.
    pub fn compact(&self) -> Result<()> {
        let _w = self.writer.lock();
        self.compact_locked()
    }

    fn compact_locked(&self) -> Result<()> {
        bg_op("compaction", || {
            let files = self.tier.files()?;
            let segments = self.tier.segments();
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
            let old: Vec<u64> = segments.iter().map(|seg| seg.id).collect();
            let compacted = self.write_segment(files, move |builder| {
                for (id, t, path) in docs {
                    let xml = self.stored_bytes(id, &segments)?;
                    let path = path.iter().map(|&k| &keys[t][k as usize]);
                    builder.add_doc(id, path, xml.as_deref())?;
                }
                Ok(())
            })?;
            // The reset below checkpoints the images the pager holds: commit
            // them first, or an uncommitted delta would become a torn one.
            self.flush_locked()?;
            {
                // Clearing resets the delta's pager: exclude readers.
                let _m = self.maintenance.write();
                self.store.clear_delta()?;
                if let Some(seg) = &compacted {
                    self.store.segment_put(seg.id)?;
                }
                self.publish(compacted.into_iter().map(Arc::new).collect())?;
            }
            self.store.pool().checkpoint()?;
            // The replaced segment files are garbage; unlink best-effort
            // (the next open removes any left behind). Concurrent readers
            // that cloned the old Arcs keep their open handles and finish
            // safely.
            for id in old {
                let _ = files.vfs.remove(&segment_path(&files.path, id));
            }
            vist_obs::counter!("vist_core_compactions_total").inc();
            Ok(())
        })
    }

    /// The static build (paper §3.3), shared by bulk load and compaction:
    /// `fill` hands one [`SegmentBuilder`] each document's key path and
    /// text; the builder writes the stored text into the next segment file
    /// as it comes, labels the merged trie and writes the rest: durable on
    /// return, named by no commit yet. `None` when `fill` adds no document. A
    /// failed or empty build removes its file; the next build truncates a
    /// crashed one's.
    fn write_segment(
        &self,
        files: &TierFiles,
        fill: impl FnOnce(&mut SegmentBuilder) -> Result<()>,
    ) -> Result<Option<Segment>> {
        let store_documents = self.store.meta().store_documents;
        let newest = self.tier.segments.read().iter().map(|seg| seg.id).max();
        let id = newest.map_or(1, |id| id + 1);
        let (vfs, path) = (files.vfs.as_ref(), segment_path(&files.path, id));
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

    /// The commit point of a bulk load and of a compaction: commit the
    /// delta, whose aux tree the caller made name `live`'s ids — a full
    /// commit, since a compaction's clear emptied aux — and only then make
    /// `live` the tier's list, so no reader sees a segment the disk does not
    /// name. A failed commit swaps too: the delta in memory names `live`
    /// either way, and a reopen recovers, as after any failed write. The
    /// caller holds the writer lock.
    fn publish(&self, live: Vec<Arc<Segment>>) -> Result<()> {
        let committed = self.commit_locked();
        *self.tier.segments.write() = live;
        committed
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
/// be a bulk build not yet committed, and the next build truncates it
/// anyway. Every `<base>.seg-<id>.wal` goes too, live ids' included: older
/// builds wrote a segment through a log, which they checkpointed before
/// the segment was named, and nothing reads it. So do `<base>.ingest-tmp`,
/// file or directory, where older builds kept their stored documents until
/// the end of the build, and `<base>.manifest`, which a manifest-era file's
/// open has moved into aux by now. Best-effort, through `std::fs`: it lists
/// a directory, which the `Vfs` does not.
fn remove_stale_segments(base: &Path, live: &[u64]) {
    let _ = std::fs::remove_file(manifest_path(base));
    let scratch = sidecar(base, ".ingest-tmp");
    let _ = std::fs::remove_file(&scratch).or_else(|_| std::fs::remove_dir_all(&scratch));
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

/// Where a manifest-era index named its live segments: `<base>.manifest`.
fn manifest_path(base: &Path) -> PathBuf {
    sidecar(base, ".manifest")
}

/// Bytes of one of a manifest file's two slots.
const MANIFEST_SLOT: usize = 4096;

/// The `(delta epoch, live segment ids)` of a manifest-era index's
/// manifest. Each of its two slots is `"VISTMAN1" ‖ generation u64 ‖
/// delta_epoch u64 ‖ count u32 ‖ count × id u64 ‖ crc32c u32`,
/// little-endian, the CRC over every byte before it. A write went to one
/// slot and left the other whole, so the slot that decodes with the highest
/// generation holds the list; no file, or no slot that decodes (a crash in
/// the first write), names none. Read-only: nothing writes a manifest.
fn read_manifest(vfs: &dyn Vfs, base: &Path) -> Result<(u64, Vec<u64>)> {
    let io = |e| Error::Storage(vist_storage::Error::Io(e));
    let mut file = match vfs.open(&manifest_path(base), OpenMode::MustExist) {
        Ok(file) => file,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((0, Vec::new())),
        Err(e) => return Err(io(e)),
    };
    let len = file.len().map_err(io)?;
    let (mut best, mut buf) = (None::<(u64, u64, Vec<u64>)>, vec![0u8; MANIFEST_SLOT]);
    // A slot past the end was never written; one in the file must read, or
    // the open would commit a list short of its segments.
    for at in [0, MANIFEST_SLOT as u64] {
        if at + MANIFEST_SLOT as u64 > len {
            continue;
        }
        file.read_at(at, &mut buf).map_err(io)?;
        if let Some(slot) = decode_manifest_slot(&buf) {
            if best.as_ref().is_none_or(|b| slot.0 > b.0) {
                best = Some(slot);
            }
        }
    }
    Ok(best.map_or((0, Vec::new()), |(_, epoch, ids)| (epoch, ids)))
}

/// `(generation, delta epoch, ids)` of a manifest slot whose CRC holds.
fn decode_manifest_slot(buf: &[u8]) -> Option<(u64, u64, Vec<u64>)> {
    let u64_at = |at: usize| Some(u64::from_le_bytes(buf.get(at..at + 8)?.try_into().ok()?));
    let u32_at = |at: usize| Some(u32::from_le_bytes(buf.get(at..at + 4)?.try_into().ok()?));
    if buf.get(..8)? != b"VISTMAN1" {
        return None;
    }
    let end = 28 + 8 * u32_at(24)? as usize;
    (crc32c(buf.get(..end)?) == u32_at(end)?).then_some(())?;
    let ids = (28..end).step_by(8).map(u64_at).collect::<Option<_>>()?;
    Some((u64_at(8)?, u64_at(16)?, ids))
}

/// The tier union: join a tier's ids `run` into `ids`, less those in
/// `tombs` — all three ascending, and `ids` stays so and distinct.
fn join_live(ids: &mut Vec<DocId>, mut run: Vec<DocId>, tombs: &[DocId]) {
    if !tombs.is_empty() {
        run.retain(|id| tombs.binary_search(id).is_err());
    }
    if ids.is_empty() {
        *ids = run;
    } else {
        ids.append(&mut run);
        sort_distinct(ids);
    }
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
        source.nodes_in_scopes(id, &[(0, MAX_SCOPE)], &mut |n, end| {
            nodes.push((n, end, key));
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
    use crate::postings::Postings;
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
            assert_eq!(listing(dir.path()), ["idx", "idx.seg-1", "idx.wal"]);
        }
    }

    /// A crash is no failed build: the dead process removes nothing, so its
    /// unsealed file stays, above the live ids, until the next build
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
        assert_eq!(listing(dir.path()), ["idx", "idx.seg-1", "idx.wal"]);
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

    /// A manifest slot as a manifest-era build wrote it.
    fn manifest_slot(generation: u64, delta_epoch: u64, ids: &[u64]) -> Vec<u8> {
        let mut slot = b"VISTMAN1".to_vec();
        slot.extend(generation.to_le_bytes());
        slot.extend(delta_epoch.to_le_bytes());
        slot.extend((ids.len() as u32).to_le_bytes());
        slot.extend(ids.iter().flat_map(|id| id.to_le_bytes()));
        slot.extend(crc32c(&slot).to_le_bytes());
        slot.resize(MANIFEST_SLOT, 0);
        slot
    }

    #[test]
    fn paths_are_sidecars_of_the_store_file() {
        let base = Path::new("/x/store");
        assert_eq!(segment_path(base, 12), PathBuf::from("/x/store.seg-12"));
        assert_eq!(manifest_path(base), PathBuf::from("/x/store.manifest"));
    }

    #[test]
    fn an_absent_manifest_names_no_segment() {
        let dir = TempDir::new("vist-core-manifest-absent");
        assert_eq!(
            read_manifest(&RealVfs, &dir.file("store")).unwrap(),
            (0, vec![])
        );
    }

    /// A crash in the first write of a manifest leaves a short file, or a
    /// slot whose CRC fails: no segment, no error.
    #[test]
    fn a_fully_torn_first_write_names_no_segment() {
        let dir = TempDir::new("vist-core-manifest-first-torn");
        let base = dir.file("store");
        std::fs::write(manifest_path(&base), b"VISTMAN1\x01\x02").unwrap();
        assert_eq!(read_manifest(&RealVfs, &base).unwrap(), (0, vec![]));
        let mut torn = manifest_slot(1, 0, &[1]);
        torn[28] ^= 1;
        std::fs::write(
            manifest_path(&base),
            [torn, vec![0; MANIFEST_SLOT]].concat(),
        )
        .unwrap();
        assert_eq!(read_manifest(&RealVfs, &base).unwrap(), (0, vec![]));
    }

    /// Each write went to the slot of its generation's parity, so a torn
    /// one leaves the previous generation whole in the other slot; of two
    /// whole slots, the higher generation wins wherever it lies.
    #[test]
    fn a_torn_slot_falls_back_to_the_previous_generation() {
        let dir = TempDir::new("vist-core-manifest-torn");
        let base = dir.file("store");
        let (two, three) = (manifest_slot(2, 1, &[4, 7]), manifest_slot(3, 2, &[9]));
        std::fs::write(manifest_path(&base), [two.clone(), three.clone()].concat()).unwrap();
        assert_eq!(read_manifest(&RealVfs, &base).unwrap(), (2, vec![9]));
        // Generation 4 torn in slot 0: its header reached the file, its CRC
        // did not.
        let mut torn = manifest_slot(4, 3, &[11]);
        torn[28..].fill(0);
        std::fs::write(manifest_path(&base), [torn, three].concat()).unwrap();
        assert_eq!(read_manifest(&RealVfs, &base).unwrap(), (2, vec![9]));
        // Generation 3 torn in slot 1, its file cut short.
        let cut = [two, b"VISTMAN1".to_vec()].concat();
        std::fs::write(manifest_path(&base), cut).unwrap();
        assert_eq!(read_manifest(&RealVfs, &base).unwrap(), (1, vec![4, 7]));
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

    /// Every tier's postings column equals its DocId tree — the delta's
    /// after single inserts and a batch, after a reopen that decodes it again
    /// and after a compaction that empties it — and `check` reports a column
    /// that lacks one posting.
    #[test]
    fn every_tiers_postings_column_equals_its_docid_tree() {
        let corpus = corpora().swap_remove(0);
        let dir = TempDir::new("vist-core-tier-postings");
        let path = dir.file("idx.vist");
        let idx = VistIndex::create_file(&path, corpus.opts.clone()).unwrap();
        let (docs, split) = (&corpus.docs, corpus.delta_from);
        idx.bulk_build(&docs[..split / 2]).unwrap();
        idx.bulk_build(&docs[split / 2..split]).unwrap();
        let rest = &docs[split..];
        for xml in &rest[..rest.len() / 2] {
            idx.insert_xml(xml).unwrap();
        }
        idx.insert_batch(&rest[rest.len() / 2..], 2).unwrap();
        let clean = |idx: &VistIndex, when: &str, tiers: usize| {
            let report = idx.check().unwrap();
            assert_eq!(
                report.matches(" postings ok").count(),
                tiers,
                "{when}: {report}"
            );
            assert!(report.contains("\ndelta postings ok"), "{when}: {report}");
        };
        clean(&idx, "before a reopen", 3);
        assert!(idx.stats().postings_bytes >= 24 * docs.len() as u64);

        let mut short = Postings::default();
        let mut at = 0;
        idx.store
            .docids_in_scopes(&[(0, MAX_SCOPE)], &mut |n, doc| {
                if at != 7 {
                    short.push(n, doc);
                }
                at += 1;
                ControlFlow::Continue(())
            })
            .unwrap();
        let whole = idx.store.plant_postings(short);
        let Err(Error::Corrupt(report)) = idx.check() else {
            panic!("check passed a column one posting short");
        };
        assert!(report.contains("delta postings CORRUPT"), "{report}");
        idx.store.plant_postings(whole);

        idx.flush().unwrap();
        drop(idx);
        let idx = VistIndex::open_file(&path, 64).unwrap();
        clean(&idx, "after a reopen", 3);
        idx.compact().unwrap();
        clean(&idx, "after a compaction", 2);
        assert_eq!(idx.store.postings_bytes(), 0);
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
            let file = segment_path(&path, segments[0].id);
            assert!(
                std::fs::read(file).unwrap() == std::fs::read(dir.file("oracle")).unwrap(),
                "{name}: segment files differ"
            );
        }
    }
}
