//! [`VistIndex`]: the paper's main contribution — the dynamically labeled,
//! fully B+Tree-resident index (Algorithms 2–4). This module holds the type,
//! its constructors and the query path; inserts and removals (Algorithm 4)
//! are in `ingest.rs`, the segment tier in `tier.rs`.
//!
//! # Concurrency
//!
//! The index is single-writer / multi-reader behind a uniform `&self` API:
//! share it as `Arc<VistIndex>` and call [`VistIndex::query`] from any
//! number of threads while one thread runs [`VistIndex::insert_xml`] (and
//! friends). Writers serialize on an internal lock; queries never block
//! other queries. Only a batch's apply phase and compaction's delta reset
//! briefly exclude queries, via an internal read-write latch;
//! [`VistIndex::remove_document`] writes a tombstone and nothing else.
//! See `docs/CONCURRENCY.md` for the full lock hierarchy.

use std::path::Path;
use std::sync::Arc;

use vist_query::{
    matches_document, parse_query, translate_with, try_translate, Pattern, TranslateOptions,
    Translation,
};
use vist_seq::{PathSym, SiblingOrder, Sym, SymbolTable, TableOverlay};
use vist_storage::sync::{Mutex, RwLock};
use vist_storage::{BufferPool, FilePager, MemPager, RealVfs, Vfs};

use crate::alloc::{AllocatorKind, ScopeAllocator, SimMutation};
use crate::error::{Error, Result};
use crate::plan::{PlanReport, PruneReason};
use crate::search::{QueryStats, SearchMode, SearchOptions, StageTimings};
use crate::segment::{Segment, SegmentBreakdown};
use crate::stats::{IndexStats, IngestCounters};
use crate::store::{DocId, Store, StoreBreakdown};
use crate::tier::{parse_stored, stats_mismatch, tier_name, tier_paths, Tier};

/// Configuration for creating an index.
#[derive(Debug, Clone)]
pub struct IndexOptions {
    /// Page size of the backing store (the paper uses 2 KiB; we default to
    /// 4 KiB).
    pub page_size: usize,
    /// Buffer-pool capacity, in pages.
    pub cache_pages: usize,
    /// Scope-allocation λ (expected fan-out).
    pub lambda: u64,
    /// Grow the allocation divisor with child count (prevents hot-node
    /// scope exhaustion; see `alloc`).
    pub adaptive: bool,
    /// Allocation scheme (geometric, or probability-guided by a
    /// [`crate::StatsModel`]).
    pub allocator: AllocatorKind,
    /// Store original documents, for exact verification, removal and
    /// [`VistIndex::get_document_xml`] (compaction reads the index alone).
    pub store_documents: bool,
    /// Sibling ordering used for sequence conversion.
    pub order: SiblingOrder,
    /// Deliberately planted allocation bug for validating the `vist-sim`
    /// harness ([`SimMutation::None`] everywhere else — see
    /// [`crate::SimMutation`]). Not persisted: a reopened index is always
    /// un-mutated unless [`VistIndex::set_sim_mutation`] re-arms it.
    pub mutation: SimMutation,
}

impl Default for IndexOptions {
    fn default() -> Self {
        IndexOptions {
            page_size: 4096,
            cache_pages: 1024,
            lambda: 16,
            adaptive: true,
            allocator: AllocatorKind::NoClues,
            store_documents: true,
            order: SiblingOrder::Lexicographic,
            mutation: SimMutation::None,
        }
    }
}

/// Options for a single query.
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    /// Post-filter candidates through the exact tree-pattern matcher,
    /// removing ViST's known false positives. Requires
    /// [`IndexOptions::store_documents`].
    pub verify: bool,
    /// Seeded scheduling of match-frame expansion (the `vist-sim`
    /// scheduler hook; see [`crate::search_sequences`]). `None` (the
    /// default) keeps the production depth-first order. Any seed must
    /// produce identical answers.
    pub schedule_seed: Option<u64>,
    /// Disable the cost-based planner (ViST §3.4 statistical clues) and
    /// run sequences in naive translation order with no plan-time
    /// probing. Results are identical either way — the planner only
    /// reorders work and prunes provably-empty branches — so this exists
    /// to bisect regressions and to measure the planner's effect
    /// (`vist query --no-plan`, `tests/planner_diff.rs`).
    pub no_plan: bool,
    /// Stop after this many distinct matching documents (early
    /// termination). The returned ids are a size-`limit` subset of the
    /// full answer; *which* subset may depend on planning and tier
    /// order. With `verify` the limit applies to verified answers.
    pub limit: Option<usize>,
    /// Cooperative deadline: once this instant passes, the query stops at
    /// the next match frame (or per-document verification) boundary
    /// and returns [`Error::DeadlineExceeded`]. Cancellation never
    /// poisons locks or mutates the index — the next query on the same
    /// index is undisturbed. `None` (the default) runs to completion.
    pub deadline: Option<std::time::Instant>,
    /// Request-scoped 128-bit trace id. `0` (the default) mints a fresh
    /// one; a caller that already has an id (e.g. `vist-serve` echoing a
    /// client-supplied `X-Vist-Trace-Id`) passes it here so the request's
    /// record and histogram exemplars key to the same id. The effective id
    /// is returned on [`QueryResult::trace_id`].
    pub trace_id: u128,
}

impl QueryOptions {
    /// The match engine's share of these options.
    fn search_options(&self, mode: SearchMode, collect_plan: bool) -> SearchOptions {
        SearchOptions {
            mode,
            schedule_seed: self.schedule_seed,
            plan: !self.no_plan,
            // Only document ids can be counted against a limit, and under
            // verification the raw search must stay unlimited: the limit
            // applies to *verified* answers, and any raw candidate may be
            // a false positive.
            limit: self
                .limit
                .filter(|_| mode == SearchMode::Docs && !self.verify),
            collect_plan,
            deadline: self.deadline,
        }
    }
}

/// Result of a query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Matching document ids, ascending.
    pub doc_ids: Vec<DocId>,
    /// Candidate count before verification (equals `doc_ids.len()` when
    /// verification is off).
    pub candidates: usize,
    /// Whether alternative-sequence generation was truncated (possible
    /// false negatives).
    pub truncated: bool,
    /// Search instrumentation.
    pub stats: QueryStats,
    /// Per-stage wall-clock breakdown (zeros when `vist-obs` timing is
    /// disabled).
    pub timings: StageTimings,
    /// Hierarchical span tree of this query's execution, present when
    /// `vist_obs::set_tracing(true)` was active and this query started
    /// the trace (e.g. `vist query --trace`).
    pub trace: Option<vist_obs::SpanNode>,
    /// The trace id this query ran under: [`QueryOptions::trace_id`] if
    /// non-zero, otherwise freshly minted. Keys the request's record
    /// (`vist_obs::wide`) and latency exemplars (all inert under the
    /// `noop` feature, but the id itself is always present).
    pub trace_id: u128,
}

/// The ViST index.
///
/// See the crate docs for an end-to-end example, and the module docs for
/// the concurrency contract (`Arc<VistIndex>` + `&self` everywhere).
pub struct VistIndex {
    pub(crate) store: Store,
    /// Symbol table shared by data and queries. Writers intern new names
    /// under the write lock; queries translate under the read lock.
    pub(crate) table: RwLock<SymbolTable>,
    pub(crate) order: SiblingOrder,
    pub(crate) alloc: Mutex<ScopeAllocator>,
    /// Serializes all mutations (inserts, removes, flushes). Top of the
    /// lock hierarchy: writer → maintenance → table → (btree/pool locks).
    pub(crate) writer: Mutex<()>,
    /// Readers hold this shared. Compaction's delta clear holds it
    /// exclusively because it resets the delta's pager, so every page a
    /// reader could hold vanishes; `insert_batch` holds it exclusively
    /// across its apply phase so readers never observe a torn (partially
    /// applied) batch. Nothing else removes anything: a removal is a
    /// tombstone, an insert.
    pub(crate) maintenance: RwLock<()>,
    /// Cumulative batched-ingest counters across all `insert_batch` calls.
    pub(crate) ingest_counters: IngestCounters,
    /// Immutable packed segments beneath the mutable delta (none for an
    /// in-memory index).
    pub(crate) tier: Tier,
}

/// Run a background operation — compaction, checkpoint, segment build,
/// WAL-recovery reopen — as a traced unit of work: `vist_bg_<op>_*`
/// in-progress/last-duration/total metrics and one wide event carrying its
/// own freshly minted trace id and (when tracing is on and the op is not
/// nested inside another traced operation on this thread) its span tree.
pub(crate) fn bg_op<T>(op: &'static str, f: impl FnOnce() -> Result<T>) -> Result<T> {
    let trace_id = vist_obs::traceid::mint();
    let inprogress = vist_obs::registry::gauge(&format!("vist_bg_{op}_inprogress"));
    inprogress.add(1);
    let trace = vist_obs::Trace::begin(op);
    let start = vist_obs::now();
    let result = f();
    let nanos = vist_obs::elapsed_nanos(start).unwrap_or(0);
    inprogress.add(-1);
    vist_obs::registry::gauge(&format!("vist_bg_{op}_last_duration_ms"))
        .set(i64::try_from(nanos / 1_000_000).unwrap_or(i64::MAX));
    vist_obs::registry::counter(&format!("vist_bg_{op}_total")).inc();
    vist_obs::WideEvent::new(op)
        .str_field("trace_id", &vist_obs::traceid::format(trace_id))
        .u64_field("total_nanos", nanos)
        .str_field("outcome", if result.is_ok() { "ok" } else { "error" })
        .emit(
            trace_id,
            &format!("bg:{op}"),
            nanos,
            trace.map(vist_obs::Trace::finish),
        );
    result
}

impl VistIndex {
    /// Create a transient in-memory index. It has the delta alone:
    /// [`VistIndex::bulk_build`] and [`VistIndex::compact`] answer
    /// [`Error::NotTiered`]. Without compaction, a removed document's
    /// records and its tombstone stay until the index is dropped.
    pub fn in_memory(opts: IndexOptions) -> Result<Self> {
        let pager = MemPager::new(opts.page_size);
        let pool = Arc::new(BufferPool::with_capacity(pager, opts.cache_pages));
        Self::create(pool, opts, Tier::in_memory())
    }

    /// Create a new index file at `path` (truncates any existing file).
    /// File-backed indexes are *tiered*: they support
    /// [`VistIndex::bulk_build`] and [`VistIndex::compact`].
    pub fn create_file<P: AsRef<Path>>(path: P, opts: IndexOptions) -> Result<Self> {
        Self::create_at(Arc::new(RealVfs), path.as_ref(), opts)
    }

    /// [`VistIndex::create_file`] through an explicit [`Vfs`] (tests inject
    /// faults into every tier file — index, WAL, segments).
    pub fn create_at(vfs: Arc<dyn Vfs>, path: &Path, opts: IndexOptions) -> Result<Self> {
        let pager = FilePager::create_with_vfs(vfs.as_ref(), path, opts.page_size)?;
        let pool = Arc::new(BufferPool::with_capacity(pager, opts.cache_pages));
        let tier = Tier::at(vfs, path, opts.page_size, opts.cache_pages);
        Self::create(pool, opts, tier)
    }

    fn create(pool: Arc<BufferPool>, opts: IndexOptions, tier: Tier) -> Result<Self> {
        let store = Store::create(pool, opts.lambda, opts.adaptive, opts.store_documents)?;
        let mut alloc = ScopeAllocator::new(opts.lambda, opts.adaptive, opts.allocator);
        alloc.mutation = opts.mutation;
        Ok(Self::assemble(
            store,
            SymbolTable::new(),
            opts.order,
            alloc,
            tier,
        ))
    }

    /// Reopen an index file created by [`VistIndex::create_file`] (after a
    /// [`VistIndex::flush`]). Opening replays any committed write-ahead-log
    /// records a crash left behind (see `docs/DURABILITY.md`); the
    /// [`IndexStats::io`] counters `recovered_pages` / `wal_discarded_bytes`
    /// report what recovery did. A persisted statistics model (from a
    /// `WithClues` allocator) is restored automatically. The segment tier
    /// is reopened from the list the delta's last commit names; a
    /// manifest-era index has its `<path>.manifest` moved into the delta
    /// first (see `docs/SEGMENTS.md`).
    pub fn open_file<P: AsRef<Path>>(path: P, cache_pages: usize) -> Result<Self> {
        Self::open_at(Arc::new(RealVfs), path.as_ref(), cache_pages)
    }

    /// [`VistIndex::open_file`] through an explicit [`Vfs`]. The open —
    /// which replays any pending WAL and moves a manifest-era segment list
    /// into the delta — is a traced `wal_recovery` background operation.
    pub fn open_at(vfs: Arc<dyn Vfs>, path: &Path, cache_pages: usize) -> Result<Self> {
        bg_op("wal_recovery", move || {
            let pager = FilePager::open_with_vfs(vfs.as_ref(), path)?;
            let pool = Arc::new(BufferPool::with_capacity(pager, cache_pages));
            let tier = Tier::at(vfs, path, pool.page_size(), cache_pages);
            // The meta page is always the first page a FilePager hands out.
            let (store, table, order) = Store::open(pool, 1)?;
            let kind = match store.load_stats_model()? {
                Some(model) => AllocatorKind::WithClues(model),
                None => AllocatorKind::NoClues,
            };
            let (lambda, adaptive) = {
                let meta = store.meta();
                (meta.lambda, meta.adaptive)
            };
            let alloc = ScopeAllocator::new(lambda, adaptive, kind);
            let idx = Self::assemble(store, table, order, alloc, tier);
            idx.open_tier()?;
            Ok(idx)
        })
    }

    /// The index over an opened or created delta and its tier.
    fn assemble(
        store: Store,
        table: SymbolTable,
        order: SiblingOrder,
        alloc: ScopeAllocator,
        tier: Tier,
    ) -> Self {
        crate::register_metrics();
        VistIndex {
            store,
            table: RwLock::new(table),
            order,
            alloc: Mutex::new(alloc),
            writer: Mutex::new(()),
            maintenance: RwLock::new(()),
            ingest_counters: IngestCounters::default(),
            tier,
        }
    }

    /// Re-arm (or clear) the planted allocation bug used to validate the
    /// `vist-sim` harness. Needed after reopen: [`VistIndex::open_file`]
    /// rebuilds the allocator, which resets the mutation to
    /// [`SimMutation::None`].
    pub fn set_sim_mutation(&self, mutation: SimMutation) {
        self.alloc.lock().mutation = mutation;
    }

    /// A snapshot of the symbol table shared by data and queries.
    #[must_use]
    pub fn table(&self) -> SymbolTable {
        self.table.read().clone()
    }

    /// The sibling order used for sequence conversion.
    #[must_use]
    pub fn order(&self) -> &SiblingOrder {
        &self.order
    }

    /// Direct read access to the underlying store (benchmarks, tools).
    #[must_use]
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Number of live documents.
    #[must_use]
    pub fn doc_count(&self) -> u64 {
        self.store.meta().doc_count
    }

    /// Index statistics (sizes, underflow counters, I/O, per-shard pool
    /// counters).
    #[must_use]
    pub fn stats(&self) -> IndexStats {
        // The tombstone count reads the delta's aux tree.
        let _m = self.maintenance.read();
        let meta = self.store.meta();
        vist_obs::gauge!("vist_core_documents")
            .set(i64::try_from(meta.doc_count).unwrap_or(i64::MAX));
        let segments = self.tier.segments();
        let mut stats = IndexStats {
            documents: meta.doc_count,
            nodes: meta.node_count,
            dkeys: meta.next_dkey,
            underflows: meta.underflows,
            deep_borrows: meta.deep_borrows,
            store_bytes: self.store.store_bytes(),
            io: self.store.pool().stats(),
            pool: self.store.pool().pool_stats(),
            ..self.ingest_counters.snapshot().into()
        };
        self.count_segments(&mut stats, &segments);
        stats.postings_bytes += self.store.postings_bytes();
        vist_obs::gauge!("vist_core_segments").set(segments.len() as i64);
        let legacy = segments.iter().filter(|s| s.format_version() < 2).count();
        vist_obs::gauge!("vist_core_segments_legacy_format").set(legacy as i64);
        vist_obs::gauge!("vist_core_segment_fence_bytes")
            .set(i64::try_from(stats.segment_fence_bytes).unwrap_or(i64::MAX));
        vist_obs::gauge!("vist_core_postings_bytes")
            .set(i64::try_from(stats.postings_bytes).unwrap_or(i64::MAX));
        vist_obs::gauge!("vist_core_segment_run_bytes")
            .set(i64::try_from(stats.segment_run_bytes).unwrap_or(i64::MAX));
        stats
    }

    /// Fill the segment fields of `stats` from `segments`: their number and
    /// summed sizes, and the tombstones that mask documents of every tier.
    fn count_segments(&self, stats: &mut IndexStats, segments: &[Arc<Segment>]) {
        stats.segments = segments.len() as u64;
        stats.tombstones = self.store.tomb_ids().map_or(0, |v| v.len() as u64);
        for seg in segments {
            stats.segment_docs += seg.doc_count;
            stats.segment_nodes += seg.node_count;
            stats.segment_dkeys += seg.dkey_count;
            stats.segment_bytes += seg.store_bytes();
            stats.segment_fence_bytes += seg.fence_bytes();
            stats.postings_bytes += seg.postings_bytes();
            stats.segment_run_bytes += seg.run_bytes();
        }
    }

    /// Verify the structural invariants of every B+Tree in the index (key
    /// order, node bounds, uniform depth, leaf chains; for the packed trees
    /// of each segment, the in-memory fence array against the pages), every
    /// tier's label nesting, its planner statistics against its S-Ancestor
    /// entries (a segment's statistics tree against its runs), its postings
    /// column against a fresh walk of its DocId tree, a segment's
    /// S-Ancestor runs against a fresh walk of that tree, and basic meta
    /// consistency. Returns a human-readable report
    /// when everything is clean, or [`Error::Corrupt`] carrying the report
    /// when it is not.
    /// Backs the `vist check` CLI command; intended to run after a crash
    /// recovery.
    pub fn check(&self) -> Result<String> {
        let _m = self.maintenance.read();
        use std::fmt::Write as _;
        let mut report = String::new();
        let mut dirty = 0usize;
        let segments = self.tier.segments();
        let mut line = |tree: std::fmt::Arguments<'_>, problem: Option<String>| match problem {
            None => writeln!(report, "{tree} ok").unwrap(),
            Some(msg) => {
                dirty += 1;
                writeln!(report, "{tree} CORRUPT: {msg}").unwrap();
            }
        };
        for (name, problem) in self.store.verify() {
            line(format_args!("tree {name:<9}"), problem);
        }
        for seg in &segments {
            for (name, problem) in seg.verify() {
                line(format_args!("segment {} tree {name:<9}", seg.id), problem);
            }
        }
        for (seg_id, source) in self.tiers(&segments) {
            let tier = tier_name(seg_id);
            match tier_paths(source, &tier, &[]) {
                Err(e) => line(format_args!("{tier} labels"), Some(e.to_string())),
                Ok((.., entries)) => {
                    line(format_args!("{tier} labels"), None);
                    // A segment's statistics tree is held against its runs;
                    // one packed before the statistics tree has none.
                    match segments.iter().find(|seg| Some(seg.id) == seg_id) {
                        None => line(
                            format_args!("{tier} statistics"),
                            stats_mismatch(source, &entries),
                        ),
                        Some(seg) if seg.keeps_stats() => {
                            line(format_args!("{tier} statistics"), seg.stats_mismatch());
                        }
                        Some(_) => {}
                    }
                }
            }
        }
        line(
            format_args!("delta postings"),
            self.store.postings_mismatch(),
        );
        for seg in &segments {
            let problem = seg.postings_mismatch();
            line(
                format_args!("{} postings", tier_name(Some(seg.id))),
                problem,
            );
        }
        for seg in &segments {
            let problem = seg.runs_mismatch();
            line(
                format_args!("{} sancestor", tier_name(Some(seg.id))),
                problem,
            );
        }
        let mut s = IndexStats::default();
        self.count_segments(&mut s, &segments);
        if s.segments > 0 {
            writeln!(
                report,
                "segments {} ({} docs, {} nodes, {} dkeys, {} tombstoned)",
                s.segments, s.segment_docs, s.segment_nodes, s.segment_dkeys, s.tombstones
            )
            .unwrap();
        }
        match self.live_doc_ids(&segments) {
            Ok(ids) => {
                let n = ids.len() as u64;
                let meta_n = self.store.meta().doc_count;
                if n == meta_n {
                    writeln!(report, "documents {n} (matches meta)").unwrap();
                } else {
                    dirty += 1;
                    writeln!(report, "documents {n} but meta says {meta_n}").unwrap();
                }
            }
            Err(e) => {
                dirty += 1;
                writeln!(report, "documents UNREADABLE: {e}").unwrap();
            }
        }
        if dirty > 0 {
            return Err(Error::Corrupt(format!(
                "{dirty} check(s) failed:\n{report}"
            )));
        }
        Ok(report)
    }

    /// Persist meta state and flush dirty pages to the backing store (one
    /// commit of its log). A `WithClues` allocator's statistics model is
    /// persisted too, so it is restored by [`VistIndex::open_file`]. Runs as
    /// a traced `checkpoint` background operation.
    pub fn flush(&self) -> Result<()> {
        bg_op("checkpoint", || {
            let _w = self.writer.lock();
            self.commit_locked()
        })
    }

    /// Full commit under an already-held writer lock: persist a
    /// `WithClues` allocator's statistics model, then flush the delta. The
    /// WAL commit record this writes is the durability point for
    /// everything applied since the previous commit — the group-commit
    /// path ([`VistIndex::insert_batch`]) relies on that by applying a
    /// whole batch and then calling this once.
    pub(crate) fn commit_locked(&self) -> Result<()> {
        let model = match &self.alloc.lock().kind {
            AllocatorKind::WithClues(model) => Some(model.clone()),
            AllocatorKind::NoClues => None,
        };
        if let Some(model) = model {
            self.store.save_stats_model(&model)?;
        }
        self.flush_locked()
    }

    /// Flush the delta store under an already-held writer lock, persisting
    /// the symbol table alongside meta and dirty pages.
    pub(crate) fn flush_locked(&self) -> Result<()> {
        let table = self.table.read().clone();
        self.store.flush(&table, &self.order)?;
        Ok(())
    }

    /// Per-tree space breakdown of the delta and of every segment, also
    /// publishing average leaf fill to the `vist_core_delta_leaf_fill_bp` /
    /// `vist_core_segment_leaf_fill_bp` gauges (basis points). Scans every
    /// tree; intended for `vist stats`, not hot paths.
    pub fn tier_breakdown(&self) -> Result<(StoreBreakdown, Vec<SegmentBreakdown>)> {
        let _m = self.maintenance.read();
        let delta = self.store.tree_breakdown()?;
        let mut segs = Vec::new();
        for seg in self.tier.segments() {
            segs.push(SegmentBreakdown {
                id: seg.id,
                format_version: seg.format_version(),
                trees: seg.breakdown()?,
            });
        }
        let fill_bp = |bs: &[&StoreBreakdown]| -> i64 {
            let (mut used, mut total) = (0u64, 0u64);
            for b in bs {
                for t in [
                    &b.dancestor,
                    &b.sancestor,
                    &b.docid,
                    &b.edges,
                    &b.aux,
                    &b.stats,
                ] {
                    used += t.leaf_used_bytes;
                    total += t.leaf_total_bytes;
                }
            }
            (used * 10_000).checked_div(total).unwrap_or(0) as i64
        };
        vist_obs::gauge!("vist_core_delta_leaf_fill_bp").set(fill_bp(&[&delta]));
        let seg_refs: Vec<&StoreBreakdown> = segs.iter().map(|s| &s.trees).collect();
        vist_obs::gauge!("vist_core_segment_leaf_fill_bp").set(fill_bp(&seg_refs));
        Ok((delta, segs))
    }

    /// Ids of all live documents, ascending, documents stored or not.
    pub fn document_ids(&self) -> Result<Vec<DocId>> {
        let _m = self.maintenance.read();
        self.live_doc_ids(&self.tier.segments())
    }

    /// Fetch a stored document's XML text.
    pub fn get_document_xml(&self, doc_id: DocId) -> Result<String> {
        let _m = self.maintenance.read();
        self.require_documents()?;
        self.stored_document(doc_id, &self.tier.segments(), false)
    }

    /// [`Error::DocumentsNotStored`] unless the index stores documents.
    pub(crate) fn require_documents(&self) -> Result<()> {
        let stored = self.store.meta().store_documents;
        stored.then_some(()).ok_or(Error::DocumentsNotStored)
    }

    /// Run a pattern and return the matched final *scopes* without resolving
    /// them to document ids — the quantity the paper times in Figure 10
    /// (match cost excluding DocId output).
    pub fn match_scopes(
        &self,
        pattern: &Pattern,
        opts: &QueryOptions,
    ) -> Result<(Vec<(u128, u128)>, QueryStats)> {
        let translation = self.translate_overlay(pattern, |t, _| t);
        // Lock order: the table read guard (above, inside the helper) is
        // released before the maintenance latch is taken.
        let _m = self.maintenance.read();
        let attr = vist_obs::attr::install();
        // Segment scopes live in per-segment label spaces; they are
        // reported as-is after the delta's (scope values from different
        // sources are not comparable).
        let (outcome, _) = self.search_tiers(
            &translation.sequences,
            &opts.search_options(SearchMode::Scopes, false),
        )?;
        let mut stats = outcome.stats;
        stats.set_io(&attr.finish());
        Ok((outcome.scopes, stats))
    }

    /// Translate under a brief shared table lock, interning query-only
    /// names into an ephemeral [`TableOverlay`] instead of cloning the
    /// whole table per query. Overlay symbols cannot occur in the data, so
    /// elements naming them simply never match. `then` sees the overlay
    /// too, for the names of those symbols; the lock is gone on return.
    fn translate_overlay<R>(
        &self,
        pattern: &Pattern,
        then: impl FnOnce(Translation, &TableOverlay) -> R,
    ) -> R {
        let table = self.table.read();
        let mut overlay = TableOverlay::new(&table);
        let topts = TranslateOptions {
            order: self.order.clone(),
            ..TranslateOptions::default()
        };
        let translation =
            translate_with(pattern, &mut overlay, &topts).expect("overlay resolver never fails");
        then(translation, &overlay)
    }

    /// Explain a query: show its translation into structure-encoded
    /// sequence(s) (the paper's Table 2 form), then run it and report the
    /// per-tree probe counts — and, when `show_plan` is set, the cost-based
    /// planner's report per tier: estimated vs actual cardinalities per
    /// step, sequence ranks and prunes, and `docid: N range(s) resolved`,
    /// the merged scopes put to the DocId tree (`vist explain --plan`).
    /// Intended for debugging and teaching; the output format is
    /// human-oriented and not stable.
    pub fn explain(&self, expr: &str, opts: &QueryOptions, show_plan: bool) -> Result<String> {
        use std::fmt::Write as _;
        let pattern = parse_query(expr)?.to_pattern();
        let mut out = String::new();
        writeln!(out, "query:   {expr}").unwrap();
        writeln!(out, "pattern: {}", pattern.to_expr()).unwrap();
        // Translate + render inside one brief table read guard: the overlay
        // borrows the guard, and rendering needs the overlay for names of
        // query-only symbols. Dropped before any search runs.
        let elem_labels = self.translate_overlay(&pattern, |translation, overlay| {
            writeln!(
                out,
                "{} alternative sequence(s){}:",
                translation.sequences.len(),
                if translation.truncated {
                    " (truncated)"
                } else {
                    ""
                }
            )
            .unwrap();
            let mut labels = Vec::with_capacity(translation.sequences.len());
            for (i, qs) in translation.sequences.iter().enumerate() {
                let mut line = String::new();
                let mut seq_labels = Vec::with_capacity(qs.elems.len());
                for e in &qs.elems {
                    let sym = match e.sym {
                        Sym::Tag(t) => overlay.name(t).to_string(),
                        Sym::Value(v) => format!("v{:04x}", v & 0xFFFF),
                    };
                    let prefix = e
                        .prefix
                        .0
                        .iter()
                        .map(|s| match s {
                            PathSym::Tag(t) => overlay.name(*t).to_string(),
                            PathSym::Star => "*".to_string(),
                            PathSym::DoubleSlash => "//".to_string(),
                        })
                        .collect::<Vec<_>>()
                        .join("/");
                    let label = format!("({sym},{prefix})");
                    line.push_str(&label);
                    seq_labels.push(label);
                }
                writeln!(out, "  #{i}: {line}").unwrap();
                labels.push(seq_labels);
            }
            labels
        });
        let (result, plans) = self.run_pattern(&pattern, opts, show_plan)?;
        render_plans(&plans, opts.no_plan, &elem_labels, &mut out);
        let st = result.stats;
        writeln!(out, "answers: {} document(s)", result.doc_ids.len()).unwrap();
        writeln!(
            out,
            "probes:  {} D-Ancestor gets, {} D-Ancestor range scans, {} dkeys matched,",
            st.dancestor_gets, st.dancestor_scans, st.dkeys_matched
        )
        .unwrap();
        writeln!(
            out,
            "         {} S-Ancestor sweeps, {} nodes visited, {} DocId scans",
            st.sancestor_scans, st.nodes_visited, st.docid_scans
        )
        .unwrap();
        writeln!(
            out,
            "engine:  {} work items in {} sweep(s) ({:.1} scopes a sweep),",
            st.work_items,
            st.sancestor_scans,
            st.work_items as f64 / st.sancestor_scans.max(1) as f64,
        )
        .unwrap();
        writeln!(
            out,
            "         {} scopes merged, {} scopes nested, {} dedup skips",
            st.scopes_merged, st.scopes_nested, st.dedup_skips
        )
        .unwrap();
        writeln!(
            out,
            "planner: {} sequence(s) pruned, {} probes, {} probe prunes",
            st.planner_seqs_pruned, st.planner_probes, st.planner_probe_prunes
        )
        .unwrap();
        writeln!(
            out,
            "pool:    {} hits, {} misses, {} page(s) read",
            st.io_pool_hits, st.io_pool_misses, st.io_pages_read
        )
        .unwrap();
        Ok(out)
    }

    /// Parse and run a path-expression query.
    ///
    /// Safe to call concurrently from many threads (`&self`); see the
    /// module docs. Translation does not intern unseen names: a query
    /// naming an element absent from the data returns an empty result
    /// directly.
    pub fn query(&self, expr: &str, opts: &QueryOptions) -> Result<QueryResult> {
        // The effective trace id: honor a caller-supplied one (serve echoes
        // the client's), otherwise mint. The exemplars this query leaves and
        // the record its caller writes key to this single id.
        let trace_id = if opts.trace_id != 0 {
            opts.trace_id
        } else {
            vist_obs::traceid::mint()
        };
        let trace = vist_obs::Trace::begin("query");
        let total_start = vist_obs::now();
        let parse_span = vist_obs::Span::enter("parse");
        let pattern = parse_query(expr)?.to_pattern();
        drop(parse_span);
        let effective = QueryOptions {
            trace_id,
            ..opts.clone()
        };
        let mut result = self.query_pattern(&pattern, &effective)?;
        if let Some(total) = vist_obs::elapsed_nanos(total_start) {
            result.timings.total_nanos = total;
            vist_obs::histogram!("vist_core_query_nanos").record_with_exemplar(total, trace_id);
            vist_obs::histogram!("vist_core_stage_translate_nanos")
                .record(result.timings.translate_nanos);
            vist_obs::histogram!("vist_core_stage_match_nanos").record(result.timings.match_nanos);
            vist_obs::histogram!("vist_core_stage_merge_nanos").record(result.timings.merge_nanos);
            vist_obs::histogram!("vist_core_stage_docid_nanos").record(result.timings.docid_nanos);
        }
        result.trace_id = trace_id;
        result.trace = trace.map(vist_obs::Trace::finish);
        Ok(result)
    }

    /// Run a pre-parsed query pattern (`&self`; see [`VistIndex::query`]).
    pub fn query_pattern(&self, pattern: &Pattern, opts: &QueryOptions) -> Result<QueryResult> {
        Ok(self.run_pattern(pattern, opts, false)?.0)
    }

    /// [`VistIndex::query_pattern`], also returning — when `collect_plan`
    /// is set — the planner's report for every tier the query ran on
    /// (`vist explain --plan`).
    fn run_pattern(
        &self,
        pattern: &Pattern,
        opts: &QueryOptions,
        collect_plan: bool,
    ) -> Result<(QueryResult, Vec<(String, PlanReport)>)> {
        // The query's batch scope (`query`, `query_pattern` and `explain`
        // all come here): the storage layer charges its I/O to it.
        let attr = vist_obs::attr::install();
        vist_obs::counter!("vist_core_query_total").inc();
        let topts = TranslateOptions {
            order: self.order.clone(),
            ..TranslateOptions::default()
        };
        let translate_span = vist_obs::Span::enter("translate");
        let translate_start = vist_obs::now();
        let translation = {
            let table = self.table.read();
            try_translate(pattern, &table, &topts)
        };
        let translate_nanos = vist_obs::elapsed_nanos(translate_start).unwrap_or(0);
        drop(translate_span);
        let Some(translation) = translation else {
            // A query name absent from every document cannot match.
            let empty = QueryResult {
                doc_ids: Vec::new(),
                candidates: 0,
                truncated: false,
                stats: QueryStats::default(),
                timings: StageTimings {
                    translate_nanos,
                    ..StageTimings::default()
                },
                trace: None,
                trace_id: opts.trace_id,
            };
            return Ok((empty, Vec::new()));
        };
        let _m = self.maintenance.read();
        let (outcome, plans) = self.search_tiers(
            &translation.sequences,
            &opts.search_options(SearchMode::Docs, collect_plan),
        )?;
        let mut stats = outcome.stats;
        let mut timings = outcome.timings;
        timings.translate_nanos = translate_nanos;
        let out = outcome.docs;
        let candidates = out.len();
        let doc_ids: Vec<DocId> = if opts.verify {
            self.require_documents()?;
            let _span = vist_obs::Span::enter("verify");
            let verify_start = vist_obs::now();
            let segments = self.tier.segments();
            let mut verified = Vec::new();
            for id in out {
                if opts.limit.is_some_and(|k| verified.len() >= k) {
                    break;
                }
                if opts
                    .deadline
                    .is_some_and(|d| std::time::Instant::now() >= d)
                {
                    return Err(Error::DeadlineExceeded);
                }
                let doc = parse_stored(&self.stored_document(id, &segments, true)?)?;
                if matches_document(pattern, &doc, &self.order) {
                    verified.push(id);
                }
            }
            timings.verify_nanos = vist_obs::elapsed_nanos(verify_start).unwrap_or(0);
            verified
        } else {
            out
        };
        stats.set_io(&attr.finish());
        let result = QueryResult {
            doc_ids,
            candidates,
            truncated: translation.truncated,
            stats,
            timings,
            trace: None,
            trace_id: opts.trace_id,
        };
        Ok((result, plans))
    }
}

/// Append the planner's per-tier report to an `explain` rendering:
/// sequence ranks/prunes, per-step estimated vs actual cardinalities, and
/// `docid: N range(s) resolved` (the merged scopes put to the DocId tree),
/// for every tier the query ran on.
fn render_plans(
    plans: &[(String, PlanReport)],
    no_plan: bool,
    elem_labels: &[Vec<String>],
    out: &mut String,
) {
    use std::fmt::Write as _;
    for (name, plan) in plans {
        writeln!(
            out,
            "plan ({name}){}:",
            if no_plan {
                " [planner off: naive order]"
            } else {
                ""
            }
        )
        .unwrap();
        for sp in &plan.seqs {
            match sp.pruned {
                Some(PruneReason::EmptyConcrete { qi }) => writeln!(
                    out,
                    "  seq #{}: pruned (empty concrete prefix at step {qi})",
                    sp.index
                )
                .unwrap(),
                Some(PruneReason::EmptyWildcard { qi }) => writeln!(
                    out,
                    "  seq #{}: pruned (empty wildcard prefix at step {qi})",
                    sp.index
                )
                .unwrap(),
                None => {
                    writeln!(
                        out,
                        "  seq #{}: rank {}, est cost {} node visit(s)",
                        sp.index, sp.rank, sp.est_cost
                    )
                    .unwrap();
                    if let Some(j) = sp.semijoin {
                        writeln!(
                            out,
                            "    semi-join on element {}: {} labels, {} pruned",
                            j.qi, j.labels, j.pruned
                        )
                        .unwrap();
                    }
                    for st in &sp.steps {
                        let label = elem_labels
                            .get(sp.index)
                            .and_then(|l| l.get(st.qi))
                            .map(String::as_str)
                            .unwrap_or("?");
                        writeln!(
                            out,
                            "    step {:<2} {:<24} est {} cand / {} nodes, \
                             actual {} frame(s) / {} node(s){}",
                            st.qi,
                            label,
                            st.est_candidates,
                            st.est_nodes,
                            st.actual_frames,
                            st.actual_nodes,
                            if st.wildcard { "  [wildcard]" } else { "" }
                        )
                        .unwrap();
                    }
                }
            }
        }
        match plan.docid_ranges {
            Some(ranges) => writeln!(out, "  docid: {ranges} range(s) resolved").unwrap(),
            None => writeln!(out, "  docid: not resolved").unwrap(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier::COMPACT_SEGMENT_THRESHOLD;

    fn index() -> VistIndex {
        VistIndex::in_memory(IndexOptions::default()).unwrap()
    }

    #[test]
    fn insert_and_query_single_document() {
        let idx = index();
        let id = idx
            .insert_xml("<book><author>David</author></book>")
            .unwrap();
        let r = idx
            .query("/book/author[text='David']", &QueryOptions::default())
            .unwrap();
        assert_eq!(r.doc_ids, vec![id]);
        let r = idx
            .query("/book/author[text='Mary']", &QueryOptions::default())
            .unwrap();
        assert!(r.doc_ids.is_empty());
    }

    #[test]
    fn selective_across_documents() {
        let idx = index();
        let mut ids = Vec::new();
        for i in 0..50 {
            let author = if i % 5 == 0 { "David" } else { "Other" };
            let xml = format!(
                "<book><author>{author}</author><year>{}</year></book>",
                1990 + i
            );
            ids.push(idx.insert_xml(&xml).unwrap());
        }
        let r = idx
            .query("/book/author[text='David']", &QueryOptions::default())
            .unwrap();
        let expect: Vec<DocId> = ids.iter().copied().step_by(5).collect();
        assert_eq!(r.doc_ids, expect);
        // Year-specific query hits exactly one.
        let r = idx
            .query("/book[year='2013']", &QueryOptions::default())
            .unwrap();
        assert_eq!(r.doc_ids.len(), 1);
    }

    #[test]
    fn wildcard_and_descendant_queries() {
        let idx = index();
        let a = idx
            .insert_xml("<p><s><l>boston</l></s><b><l>newyork</l></b></p>")
            .unwrap();
        let b = idx
            .insert_xml("<p><s><l>tokyo</l></s><b><l>paris</l></b></p>")
            .unwrap();
        let r = idx
            .query("/p/*[l='boston']", &QueryOptions::default())
            .unwrap();
        assert_eq!(r.doc_ids, vec![a]);
        let r = idx
            .query("//l[text='paris']", &QueryOptions::default())
            .unwrap();
        assert_eq!(r.doc_ids, vec![b]);
        let r = idx.query("/p//l", &QueryOptions::default()).unwrap();
        assert_eq!(r.doc_ids, vec![a, b]);
    }

    #[test]
    fn verification_removes_false_positives() {
        let idx = index();
        let fp = idx
            .insert_xml("<a><b><c>1</c></b><b><d>2</d></b></a>")
            .unwrap();
        let real = idx.insert_xml("<a><b><c>1</c><d>2</d></b></a>").unwrap();
        let raw = idx
            .query("/a/b[c='1'][d='2']", &QueryOptions::default())
            .unwrap();
        assert_eq!(
            raw.doc_ids,
            vec![fp, real],
            "raw ViST semantics includes the false positive"
        );
        let verified = idx
            .query(
                "/a/b[c='1'][d='2']",
                &QueryOptions {
                    verify: true,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(verified.doc_ids, vec![real]);
        assert_eq!(verified.candidates, 2);
    }

    #[test]
    fn remove_document_hides_it() {
        let idx = index();
        let a = idx.insert_xml("<r><x>1</x></r>").unwrap();
        let b = idx.insert_xml("<r><x>1</x></r>").unwrap();
        assert_eq!(idx.doc_count(), 2);
        idx.remove_document(a).unwrap();
        assert_eq!(idx.doc_count(), 1);
        let r = idx
            .query("/r/x[text='1']", &QueryOptions::default())
            .unwrap();
        assert_eq!(r.doc_ids, vec![b]);
        assert!(matches!(
            idx.remove_document(a),
            Err(Error::NoSuchDocument(_))
        ));
    }

    #[test]
    fn persistence_roundtrip() {
        let dir = vist_storage::testutil::TempDir::new("vist-core-roundtrip");
        let path = dir.file("store");
        let id;
        {
            let idx = VistIndex::create_file(&path, IndexOptions::default()).unwrap();
            id = idx
                .insert_xml("<book><author>David</author></book>")
                .unwrap();
            idx.insert_xml("<book><author>Mary</author></book>")
                .unwrap();
            idx.flush().unwrap();
        }
        {
            let idx = VistIndex::open_file(&path, 256).unwrap();
            assert_eq!(idx.doc_count(), 2);
            let r = idx
                .query("/book/author[text='David']", &QueryOptions::default())
                .unwrap();
            assert_eq!(r.doc_ids, vec![id]);
            // And it stays dynamic after reopen.
            let id3 = idx
                .insert_xml("<book><author>David</author><extra/></book>")
                .unwrap();
            let r = idx
                .query("/book/author[text='David']", &QueryOptions::default())
                .unwrap();
            assert_eq!(r.doc_ids, vec![id, id3]);
        }
    }

    #[test]
    fn underflow_path_exercised_with_tiny_lambda() {
        // Force deep borrows by a pathological allocator: fixed λ=2 exhausts
        // a hot node's scope after ~126 children.
        let idx = VistIndex::in_memory(IndexOptions {
            lambda: 2,
            adaptive: false,
            ..Default::default()
        })
        .unwrap();
        for i in 0..500 {
            idx.insert_xml(&format!("<r><v>{i}</v></r>")).unwrap();
        }
        let stats = idx.stats();
        assert!(
            stats.underflows + stats.deep_borrows > 0,
            "expected scope underflows: {stats:?}"
        );
        // Incarnations keep the index sound: EVERY document remains findable
        // by its unique value, and the umbrella query finds all of them.
        for i in 0..500 {
            let r = idx
                .query(&format!("/r/v[text='{i}']"), &QueryOptions::default())
                .unwrap();
            assert_eq!(r.doc_ids.len(), 1, "value {i}");
        }
        let all = idx.query("/r/v", &QueryOptions::default()).unwrap();
        assert_eq!(all.doc_ids.len(), 500);
    }

    #[test]
    fn table4_style_queries_end_to_end() {
        let idx = index();
        let d1 = idx
            .insert_xml(
                "<site><reg><item location=\"US\"><mail><date>12/15/1999</date></mail></item></reg></site>",
            )
            .unwrap();
        let _d2 = idx
            .insert_xml(
                "<site><reg><item location=\"EU\"><mail><date>01/01/2000</date></mail></item></reg></site>",
            )
            .unwrap();
        let r = idx
            .query(
                "/site//item[location='US']/mail/date[text='12/15/1999']",
                &QueryOptions::default(),
            )
            .unwrap();
        assert_eq!(r.doc_ids, vec![d1]);
    }

    #[test]
    fn bulk_build_and_query_across_tiers() {
        let dir = vist_storage::testutil::TempDir::new("vist-core-tiered");
        let path = dir.file("store");
        let idx = VistIndex::create_file(&path, IndexOptions::default()).unwrap();
        // Delta insert + two bulk batches → three sources.
        let d0 = idx
            .insert_xml("<book><author>Delta</author></book>")
            .unwrap();
        let b1 = idx
            .bulk_build((0..40).map(|i| format!("<book><author>A{}</author></book>", i % 4)))
            .unwrap();
        let b2 = idx
            .bulk_build(["<book><author>Delta</author></book>".to_string()])
            .unwrap();
        assert_eq!(b1.len(), 40);
        assert_eq!(idx.doc_count(), 42);
        assert_eq!(idx.stats().segments, 2);
        let r = idx
            .query("/book/author[text='Delta']", &QueryOptions::default())
            .unwrap();
        assert_eq!(r.doc_ids, vec![d0, b2[0]]);
        let r = idx
            .query("/book/author[text='A0']", &QueryOptions::default())
            .unwrap();
        assert_eq!(r.doc_ids.len(), 10);
        // Verification reaches segment-resident documents too.
        let r = idx
            .query(
                "/book/author[text='A1']",
                &QueryOptions {
                    verify: true,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(r.doc_ids.len(), 10);
        idx.check().unwrap();

        // Reopen: the segment list and counts survive.
        idx.flush().unwrap();
        drop(idx);
        let idx = VistIndex::open_file(&path, 256).unwrap();
        assert_eq!(idx.doc_count(), 42);
        assert_eq!(idx.stats().segments, 2);
        let r = idx
            .query("/book/author[text='Delta']", &QueryOptions::default())
            .unwrap();
        assert_eq!(r.doc_ids, vec![d0, b2[0]]);
        idx.check().unwrap();
    }

    #[test]
    fn segment_docs_removable_via_tombstones_and_compaction() {
        let dir = vist_storage::testutil::TempDir::new("vist-core-tomb");
        let path = dir.file("store");
        let idx = VistIndex::create_file(&path, IndexOptions::default()).unwrap();
        let ids = idx
            .bulk_build((0..10).map(|i| format!("<r><v>x{i}</v></r>")))
            .unwrap();
        idx.remove_document(ids[3]).unwrap();
        assert_eq!(idx.doc_count(), 9);
        assert_eq!(idx.stats().tombstones, 1);
        assert!(matches!(
            idx.remove_document(ids[3]),
            Err(Error::NoSuchDocument(_))
        ));
        let r = idx
            .query("/r/v[text='x3']", &QueryOptions::default())
            .unwrap();
        assert!(r.doc_ids.is_empty());
        assert!(matches!(
            idx.get_document_xml(ids[3]),
            Err(Error::NoSuchDocument(_))
        ));
        // Compaction drops the tombstoned doc for good and preserves ids.
        idx.insert_xml("<r><v>delta</v></r>").unwrap();
        idx.compact().unwrap();
        let s = idx.stats();
        assert_eq!(s.segments, 1);
        assert_eq!(s.tombstones, 0);
        assert_eq!(idx.doc_count(), 10);
        let r = idx
            .query("/r/v[text='x3']", &QueryOptions::default())
            .unwrap();
        assert!(r.doc_ids.is_empty());
        let r = idx
            .query("/r/v[text='x7']", &QueryOptions::default())
            .unwrap();
        assert_eq!(r.doc_ids, vec![ids[7]]);
        let r = idx
            .query("/r/v[text='delta']", &QueryOptions::default())
            .unwrap();
        assert_eq!(r.doc_ids.len(), 1);
        idx.check().unwrap();
        // And survives reopen.
        idx.flush().unwrap();
        drop(idx);
        let idx = VistIndex::open_file(&path, 256).unwrap();
        assert_eq!(idx.doc_count(), 10);
        let r = idx
            .query("/r/v[text='x7']", &QueryOptions::default())
            .unwrap();
        assert_eq!(r.doc_ids, vec![ids[7]]);
        idx.check().unwrap();
    }

    #[test]
    fn bulk_build_auto_compacts_at_threshold() {
        let dir = vist_storage::testutil::TempDir::new("vist-core-autocompact");
        let path = dir.file("store");
        let idx = VistIndex::create_file(&path, IndexOptions::default()).unwrap();
        for b in 0..COMPACT_SEGMENT_THRESHOLD {
            idx.bulk_build((0..5).map(|i| format!("<r><v>b{b}i{i}</v></r>")))
                .unwrap();
        }
        let s = idx.stats();
        assert_eq!(s.segments, 1, "threshold batch must trigger compaction");
        assert_eq!(idx.doc_count(), 5 * COMPACT_SEGMENT_THRESHOLD as u64);
        let r = idx.query("/r/v", &QueryOptions::default()).unwrap();
        assert_eq!(r.doc_ids.len(), 5 * COMPACT_SEGMENT_THRESHOLD);
        idx.check().unwrap();
    }

    #[test]
    fn untiered_index_rejects_bulk_ops() {
        let idx = index();
        assert!(matches!(
            idx.bulk_build(["<a/>".to_string()]),
            Err(Error::NotTiered)
        ));
        assert!(matches!(idx.compact(), Err(Error::NotTiered)));
    }

    #[test]
    fn query_parse_errors_propagate() {
        let idx = index();
        assert!(matches!(
            idx.query("not a query", &QueryOptions::default()),
            Err(Error::Query(_))
        ));
    }

    #[test]
    fn without_stored_documents_verify_errors() {
        // Compaction and the live ids read the index itself: an index that
        // stores no documents bulk-loads into an automatic compaction and
        // compacts on demand; only what needs the text refuses.
        let dir = vist_storage::testutil::TempDir::new("vist-core-unstored");
        let opts = IndexOptions {
            store_documents: false,
            ..Default::default()
        };
        let idx = VistIndex::create_file(dir.file("store"), opts).unwrap();
        let docs: Vec<String> = (0..60)
            .map(|i| format!("<a><b>{}</b><c{}/></a>", i % 7, i % 3))
            .collect();
        let mut naive = crate::NaiveIndex::default();
        for xml in &docs {
            naive.insert_document(&vist_xml::parse(xml).unwrap());
        }
        let mut answers_equal_the_oracle = |idx: &VistIndex| {
            for q in ["/a/b", "/a[b='3']", "/a/c1", "//c2", "/a/*"] {
                let got = idx.query(q, &QueryOptions::default()).unwrap().doc_ids;
                assert_eq!(
                    got,
                    naive.query(q, &QueryOptions::default()).unwrap(),
                    "{q}"
                );
            }
        };
        for chunk in docs[..40].chunks(10) {
            idx.bulk_build(chunk).unwrap();
        }
        assert_eq!(COMPACT_SEGMENT_THRESHOLD, 4);
        assert_eq!(idx.stats().segments, 1, "the fourth bulk load compacts");
        for xml in &docs[40..] {
            idx.insert_xml(xml).unwrap();
        }
        let ids: Vec<DocId> = (0..60).collect();
        assert_eq!(idx.document_ids().unwrap(), ids);
        answers_equal_the_oracle(&idx);
        idx.compact().unwrap();
        let s = idx.stats();
        assert_eq!((s.segments, s.segment_docs, s.nodes), (1, 60, 0));
        assert_eq!(idx.document_ids().unwrap(), ids);
        answers_equal_the_oracle(&idx);
        idx.check().unwrap();

        let verify = QueryOptions {
            verify: true,
            ..Default::default()
        };
        assert!(matches!(
            idx.query("/a/b", &verify),
            Err(Error::DocumentsNotStored)
        ));
        assert!(matches!(
            idx.remove_document(0),
            Err(Error::DocumentsNotStored)
        ));
    }
}
