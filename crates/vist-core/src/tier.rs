//! The tiers of a [`VistIndex`]: immutable packed segments (the RIST build,
//! paper §3.3) beneath the mutable delta (Algorithms 3–4), and everything
//! that reads or replaces the segment list — the manifest and its crash redo
//! on open, the static build shared by bulk load and compaction, the commit
//! point that publishes a new list, the tombstone-aware view of the stored
//! documents, and the query fan-out over every tier. An in-memory index has
//! no files and an empty list. File formats and the crash protocol:
//! `docs/SEGMENTS.md`.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use vist_query::QuerySequence;
use vist_seq::document_to_sequence;
use vist_storage::sync::RwLock;
use vist_storage::{FilePager, Manifest, Vfs};
use vist_xml::{Document, ParseError};

use crate::error::{Error, Result};
use crate::extsort::DEFAULT_SORT_BUDGET;
use crate::search::{search_sequences, PlanReport, SearchOptions, SearchOutcome, SearchSource};
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

impl TierFiles {
    /// Spill directory for external-sort runs during a bulk build or
    /// compaction (scratch only — never read after a crash).
    fn scratch_dir(&self) -> PathBuf {
        let mut os = self.path.as_os_str().to_os_string();
        os.push(".ingest-tmp");
        PathBuf::from(os)
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
    /// externally sorted, and written as B+Trees at ~100% leaf fill.
    ///
    /// Returns the assigned document ids (contiguous, ascending). The
    /// segment is durable and published in the manifest when this returns;
    /// accumulating [`COMPACT_SEGMENT_THRESHOLD`] segments auto-triggers
    /// [`VistIndex::compact`]. Requires a file-backed index
    /// ([`VistIndex::create_file`] / [`VistIndex::open_file`] or the
    /// `_at` variants), else [`Error::NotTiered`].
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
            let docs = docs.into_iter().map(|xml| {
                let id = first_doc + ids.len() as u64;
                ids.push(id);
                Ok((id, xml))
            });
            let Some(seg) = self.write_segment(files, docs, Error::from)? else {
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
            if segments >= COMPACT_SEGMENT_THRESHOLD && self.store.meta().store_documents {
                self.compact_locked()?;
            }
            Ok(ids)
        })
    }

    /// Merge the delta and every segment into one fresh packed segment,
    /// dropping tombstoned documents for good, then reset the delta.
    /// Document ids are preserved. The manifest swap is the commit point:
    /// a crash at any earlier point leaves the old state, a crash after it
    /// is finished on reopen by re-clearing the delta (`delta_epoch`
    /// handshake — see `docs/SEGMENTS.md`). Requires a file-backed index
    /// with stored documents.
    pub fn compact(&self) -> Result<()> {
        let _w = self.writer.lock();
        self.compact_locked()
    }

    fn compact_locked(&self) -> Result<()> {
        bg_op("compaction", || {
            let files = self.tier.files()?;
            self.require_documents()?;
            let (old_ids, delta_epoch, segments) = {
                let st = self.tier.state.read();
                let old = st.manifest.segments.clone();
                (old, st.manifest.delta_epoch, st.segments.clone())
            };
            let live = self.live_doc_ids(&segments)?;
            let docs = live
                .iter()
                .map(|&id| Ok((id, self.stored_document(id, &segments, true)?)));
            let compacted = self.write_segment(files, docs, unparseable)?;
            // Commit point: the new manifest names only the compacted
            // segment and advances the delta epoch, obligating a delta clear.
            let compacted = compacted.into_iter().map(Arc::new).collect();
            self.publish(files, delta_epoch + 1, compacted)?;
            // The clear emptied the aux tree: a full commit writes every
            // global record back, the stats model included.
            self.commit_locked()?;
            self.store.pool().checkpoint()?;
            // The replaced segment files and their logs are garbage; unlink
            // best-effort (the next open removes any left behind).
            // Concurrent readers that cloned the old Arcs keep their open
            // handles and finish safely.
            for id in old_ids {
                let path = Manifest::segment_path(&files.path, id);
                let _ = std::fs::remove_file(FilePager::wal_path(&path));
                let _ = std::fs::remove_file(path);
            }
            vist_obs::counter!("vist_core_compactions_total").inc();
            Ok(())
        })
    }

    /// The static build (paper §3.3), shared by bulk load and compaction:
    /// parse each `(id, xml)`, convert it to its structure-encoded sequence
    /// and hand it to one [`SegmentBuilder`], which labels the merged trie
    /// and writes the next segment file. The file is durable on return but
    /// named by no manifest: [`VistIndex::publish`] is the caller's next
    /// step. `None` when `docs` is empty. A document that does not parse
    /// ends the build with `unparseable` of the parser's error. The caller
    /// holds the writer lock.
    fn write_segment<S: AsRef<str>>(
        &self,
        files: &TierFiles,
        docs: impl Iterator<Item = Result<(DocId, S)>>,
        unparseable: impl Fn(ParseError) -> Error,
    ) -> Result<Option<Segment>> {
        let mut docs = docs.peekable();
        if docs.peek().is_none() {
            return Ok(None);
        }
        let store_documents = self.store.meta().store_documents;
        let mut builder = SegmentBuilder::new(
            files.scratch_dir(),
            files.page_size,
            store_documents,
            DEFAULT_SORT_BUDGET,
        )?;
        for item in docs {
            let (id, xml) = item?;
            let xml = xml.as_ref();
            let doc = vist_xml::parse(xml).map_err(&unparseable)?;
            let seq = {
                let mut table = self.table.write();
                document_to_sequence(&doc, &mut table, &self.order)
            };
            builder.add_doc(id, &seq, xml)?;
        }
        let last_id = self
            .tier
            .state
            .read()
            .manifest
            .segments
            .iter()
            .copied()
            .max();
        let id = last_id.map_or(1, |id| id + 1);
        let seg = builder.finish(
            files.vfs.as_ref(),
            &Manifest::segment_path(&files.path, id),
            id,
            files.page_size,
            files.cache_pages,
            DEFAULT_SORT_BUDGET,
        )?;
        Ok(Some(seg))
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
        // Clearing frees B+Tree pages: exclude readers.
        let _m = clear.then(|| self.maintenance.write());
        if clear {
            self.store.clear_delta(delta_epoch)?;
        }
        *self.tier.state.write() = TierState { manifest, segments };
        Ok(())
    }

    /// Ids of all live documents (tombstone-masked), ascending. Caller
    /// holds the maintenance latch.
    pub(crate) fn live_doc_ids(&self, segments: &[Arc<Segment>]) -> Result<Vec<DocId>> {
        let tombs = self.store.tomb_ids()?;
        let mut ids = Vec::new();
        join_live(&mut ids, self.store.doc_ids()?, &tombs);
        for seg in segments {
            join_live(&mut ids, seg.doc_ids()?, &tombs);
        }
        Ok(ids)
    }

    /// The text of live stored document `id`, from whichever tier holds it:
    /// the delta first, then the segments, newest first. A caller whose id
    /// is already masked (it came from [`VistIndex::live_doc_ids`] or
    /// [`VistIndex::search_tiers`]) passes `masked` and no tombstone is
    /// probed; otherwise a document with a tombstone is
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
        let xml = match self.store.doc_get(id)? {
            Some(xml) => Some(xml),
            None => segments
                .iter()
                .rev()
                .find_map(|seg| seg.doc_get(id).transpose())
                .transpose()?,
        };
        stored_text(xml.ok_or(Error::NoSuchDocument(id))?)
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
        let sources = std::iter::once((None, &self.store as &dyn SearchSource)).chain(
            segments
                .iter()
                .map(|seg| (Some(seg.id), seg.as_ref() as &dyn SearchSource)),
        );
        let mut total = SearchOutcome::default();
        let mut plans: Vec<(String, PlanReport)> = Vec::new();
        for (seg_id, source) in sources {
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
            plans.extend(o.plan.map(|p| {
                let name = seg_id.map_or("delta".to_string(), |id| format!("segment {id}"));
                (name, p)
            }));
        }
        // The union can overshoot the limit; keep the smallest k.
        total.docs.truncate(sopts.limit.unwrap_or(usize::MAX));
        // Timed between the tiers' own spans: one visit, grafted.
        total.timings.merge_nanos += union_nanos;
        vist_obs::span::attach(vist_obs::SpanNode::leaf("merge", union_nanos, 1));
        self.totals.lock().merge(&total.stats);
        total.stats.publish();
        Ok((total, plans))
    }
}

/// Delete the segment files a compaction replaced but never unlinked (it
/// crashed after its commit point, or an unlink failed): every
/// `<base>.seg-<id>` and `<base>.seg-<id>.wal` whose id is below the largest
/// id in `live` and not in `live`. Ids only grow, so nothing reuses them. A
/// file above that id may be a bulk build not yet published, and the next
/// build truncates it anyway. Best-effort, through `std::fs` like the
/// unlinks it completes.
fn remove_stale_segments(base: &Path, live: &[u64]) {
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
        let id = file.to_str().and_then(|f| {
            let id = f.strip_prefix(&prefix)?;
            id.strip_suffix(".wal").unwrap_or(id).parse().ok()
        });
        if id.is_some_and(|id: u64| id < newest && !live.contains(&id)) {
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

/// A stored document's bytes as text: they went in as UTF-8, so anything
/// else is corruption.
fn stored_text(xml: Vec<u8>) -> Result<String> {
    String::from_utf8(xml).map_err(|_| Error::Corrupt("stored document is not UTF-8".into()))
}

/// Parse a stored document: it parsed when it went in, so a failure is
/// corruption.
pub(crate) fn parse_stored(text: &str) -> Result<Document> {
    vist_xml::parse(text).map_err(unparseable)
}

fn unparseable(e: ParseError) -> Error {
    Error::Corrupt(format!("stored document unparseable: {e}"))
}
