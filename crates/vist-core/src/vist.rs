//! [`VistIndex`]: the paper's main contribution — the dynamically labeled,
//! fully B+Tree-resident index (Algorithms 2–4).
//!
//! # Concurrency
//!
//! The index is single-writer / multi-reader behind a uniform `&self` API:
//! share it as `Arc<VistIndex>` and call [`VistIndex::query`] from any
//! number of threads while one thread runs [`VistIndex::insert_xml`] (and
//! friends). Writers serialize on an internal lock; queries never block
//! other queries. [`VistIndex::remove_document`] is *maintenance*: it frees
//! B+Tree pages and therefore briefly excludes queries via an internal
//! read-write latch. See `docs/CONCURRENCY.md` for the full lock hierarchy.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use vist_query::{
    matches_document, parse_query, translate_with, try_translate, Pattern, QuerySequence,
    TranslateOptions, Translation,
};
use vist_seq::{
    dkey, document_to_sequence, PathSym, Sequence, SiblingOrder, Sym, SymbolTable, TableOverlay,
};
use vist_storage::sync::{Mutex, RwLock};
use vist_storage::{BufferPool, FilePager, Manifest, MemPager, PageId, RealVfs, Vfs};
use vist_xml::Document;

use crate::alloc::{Allocation, AllocatorKind, ScopeAllocator, SimMutation};
use crate::error::{Error, Result};
use crate::extsort::DEFAULT_SORT_BUDGET;
use crate::ingest::IngestCache;
use crate::search::{
    search_sequences, PlanReport, PruneReason, QueryStats, SearchMode, SearchOptions,
    SearchOutcome, StageTimings,
};
use crate::segment::{Segment, SegmentBreakdown, SegmentBuilder};
use crate::stats::{IndexStats, IngestCounters};
use crate::store::{DocId, NodeState, Store, StoreBreakdown};

/// Configuration for creating an index.
#[derive(Debug, Clone)]
pub struct IndexOptions {
    /// Page size of the backing store (the paper uses 2 KiB; we default to
    /// 4 KiB).
    pub page_size: usize,
    /// Buffer-pool capacity, in pages.
    pub cache_pages: usize,
    /// Scope-allocation λ (expected fanout).
    pub lambda: u64,
    /// Grow the allocation divisor with child count (prevents hot-node
    /// scope exhaustion; see `alloc`).
    pub adaptive: bool,
    /// Allocation scheme (geometric, or probability-guided by a
    /// [`crate::StatsModel`]).
    pub allocator: AllocatorKind,
    /// Store original documents (enables exact verification and deletion).
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
#[derive(Debug, Clone)]
pub struct QueryOptions {
    /// Post-filter candidates through the exact tree-pattern matcher,
    /// removing ViST's known false positives. Requires
    /// [`IndexOptions::store_documents`].
    pub verify: bool,
    /// Cap on alternative query sequences (see
    /// [`TranslateOptions::max_sequences`]).
    pub max_sequences: usize,
    /// Worker threads for the match engine, the calling thread included
    /// (`<= 1` is the calling thread alone). Alternative sequences and
    /// independent D-Ancestor branches are distributed across the workers.
    pub workers: usize,
    /// Seeded scheduling of match-frame expansion (the `vist-sim`
    /// scheduler hook; see [`crate::search_sequences`]). `None` (the
    /// default) keeps the production depth-first/FIFO order. Any seed must
    /// produce identical answers.
    pub schedule_seed: Option<u64>,
    /// Disable the cost-based planner (ViST §3.4 statistical clues) and
    /// run sequences in naive translation order with no plan-time
    /// probing. Results are identical either way — the planner only
    /// reorders work and prunes provably-empty branches — so this exists
    /// to bisect regressions and to measure the planner's effect
    /// (`vist query --no-plan`, `bench_planner`).
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
            workers: self.workers,
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

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            verify: false,
            max_sequences: 24,
            workers: 1,
            schedule_seed: None,
            no_plan: false,
            limit: None,
            deadline: None,
            trace_id: 0,
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
    alloc: Mutex<ScopeAllocator>,
    /// Serializes all mutations (inserts, removes, flushes). Top of the
    /// lock hierarchy: writer → maintenance → table → (btree/pool locks).
    pub(crate) writer: Mutex<()>,
    /// Readers hold this shared; `remove_document` holds it exclusively
    /// because B+Tree deletion frees pages and is not reader-safe.
    /// `insert_batch` also holds it exclusively across its apply phase so
    /// readers never observe a torn (partially applied) batch.
    pub(crate) maintenance: RwLock<()>,
    /// Counters of every query run so far, summed.
    totals: Mutex<QueryStats>,
    /// Cumulative batched-ingest counters across all `insert_batch` calls.
    pub(crate) ingest_counters: IngestCounters,
    /// Tiered storage: immutable packed segments beneath the mutable
    /// delta. `None` for in-memory and pool-provided indexes, which stay
    /// single-tier.
    tier: Option<Tier>,
}

/// How many segments accumulate before [`VistIndex::bulk_build`]
/// auto-triggers a compaction.
const COMPACT_SEGMENT_THRESHOLD: usize = 4;

/// Run a background operation — compaction, checkpoint, segment build,
/// WAL-recovery reopen — as a traced unit of work: `vist_bg_<op>_*`
/// in-progress/last-duration/total metrics and one wide event carrying its
/// own freshly minted trace id and (when tracing is on and the op is not
/// nested inside another traced operation on this thread) its span tree.
fn bg_op<T>(op: &'static str, f: impl FnOnce() -> Result<T>) -> Result<T> {
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

/// The segment tier of a file-backed index: the manifest naming the live
/// segments, and the opened segments themselves (newest last, matching
/// manifest order).
struct TierState {
    manifest: Manifest,
    segments: Vec<Arc<Segment>>,
}

struct Tier {
    vfs: Arc<dyn Vfs>,
    /// Base path of the index file; the manifest and segments derive their
    /// paths from it (`<base>.manifest`, `<base>.seg-<id>`).
    path: PathBuf,
    page_size: usize,
    cache_pages: usize,
    /// Acquired after `maintenance` in the lock hierarchy; held only to
    /// clone or swap the segment list, never across IO.
    state: RwLock<TierState>,
}

impl Tier {
    /// Spill directory for external-sort runs during a bulk build or
    /// compaction (scratch only — never read after a crash).
    fn scratch_dir(&self) -> PathBuf {
        let mut os = self.path.as_os_str().to_os_string();
        os.push(".ingest-tmp");
        PathBuf::from(os)
    }

    fn next_segment_id(&self) -> u64 {
        self.state
            .read()
            .manifest
            .segments
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
            + 1
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
    /// Create a transient in-memory index.
    pub fn in_memory(opts: IndexOptions) -> Result<Self> {
        let pool = Arc::new(BufferPool::with_capacity(
            MemPager::new(opts.page_size),
            opts.cache_pages,
        ));
        Self::create_on(pool, opts)
    }

    /// Create a new index file at `path` (truncates any existing file).
    /// File-backed indexes are *tiered*: they support
    /// [`VistIndex::bulk_build`] and [`VistIndex::compact`].
    pub fn create_file<P: AsRef<Path>>(path: P, opts: IndexOptions) -> Result<Self> {
        Self::create_at(Arc::new(RealVfs), path.as_ref(), opts)
    }

    /// [`VistIndex::create_file`] through an explicit [`Vfs`] (tests inject
    /// faults into every tier file — index, WAL, segments, manifest).
    pub fn create_at(vfs: Arc<dyn Vfs>, path: &Path, opts: IndexOptions) -> Result<Self> {
        let page_size = opts.page_size;
        let cache_pages = opts.cache_pages;
        let pager = FilePager::create_with_vfs(vfs.as_ref(), path, page_size)?;
        let pool = Arc::new(BufferPool::with_capacity(pager, cache_pages));
        let mut idx = Self::create_on(pool, opts)?;
        idx.tier = Some(Tier {
            vfs,
            path: path.to_path_buf(),
            page_size,
            cache_pages,
            state: RwLock::new(TierState {
                manifest: Manifest {
                    generation: 0,
                    delta_epoch: 0,
                    segments: Vec::new(),
                },
                segments: Vec::new(),
            }),
        });
        Ok(idx)
    }

    /// Create an index on an existing pool (advanced; lets tests share
    /// pagers).
    pub fn create_on(pool: Arc<BufferPool>, opts: IndexOptions) -> Result<Self> {
        crate::register_metrics();
        let store = Store::create(pool, opts.lambda, opts.adaptive, opts.store_documents)?;
        Ok(VistIndex {
            store,
            table: RwLock::new(SymbolTable::new()),
            order: opts.order,
            alloc: Mutex::new({
                let mut alloc = ScopeAllocator::new(opts.lambda, opts.adaptive, opts.allocator);
                alloc.mutation = opts.mutation;
                alloc
            }),
            writer: Mutex::new(()),
            maintenance: RwLock::new(()),
            totals: Mutex::new(QueryStats::default()),
            ingest_counters: IngestCounters::default(),
            tier: None,
        })
    }

    /// Reopen an index file created by [`VistIndex::create_file`] (after a
    /// [`VistIndex::flush`]). Opening replays any committed write-ahead-log
    /// records a crash left behind (see `docs/DURABILITY.md`); the
    /// [`IndexStats::io`] counters `recovered_pages` / `wal_discarded_bytes`
    /// report what recovery did. A persisted statistics model (from a
    /// `WithClues` allocator) is restored automatically. The segment tier
    /// is reopened from the manifest, finishing any compaction or bulk
    /// load a crash interrupted (see `docs/SEGMENTS.md`).
    pub fn open_file<P: AsRef<Path>>(path: P, cache_pages: usize) -> Result<Self> {
        Self::open_at(Arc::new(RealVfs), path.as_ref(), cache_pages)
    }

    /// [`VistIndex::open_file`] through an explicit [`Vfs`]. The open —
    /// which replays any pending WAL and redoes interrupted compactions
    /// and bulk loads — is a traced `wal_recovery` background operation.
    pub fn open_at(vfs: Arc<dyn Vfs>, path: &Path, cache_pages: usize) -> Result<Self> {
        bg_op("wal_recovery", move || {
            Self::open_at_inner(vfs, path, cache_pages)
        })
    }

    fn open_at_inner(vfs: Arc<dyn Vfs>, path: &Path, cache_pages: usize) -> Result<Self> {
        let pager = FilePager::open_with_vfs(vfs.as_ref(), path)?;
        let pool = Arc::new(BufferPool::with_capacity(pager, cache_pages));
        let page_size = pool.page_size();
        let mut idx = Self::open_on(pool)?;
        let manifest = Manifest::load(vfs.as_ref(), path)?.unwrap_or(Manifest {
            generation: 0,
            delta_epoch: 0,
            segments: Vec::new(),
        });
        // Compaction redo: the manifest swap is the commit point, so a
        // manifest ahead of the delta's epoch means the post-swap delta
        // clear never reached disk. Re-run it — the delta's content was
        // absorbed into the compacted segment before the swap.
        if manifest.delta_epoch > idx.store.meta().delta_epoch {
            idx.store.clear_delta(manifest.delta_epoch)?;
            let table = idx.table.read().clone();
            idx.store.flush(&table, &idx.order)?;
        }
        let mut segments = Vec::with_capacity(manifest.segments.len());
        for &id in &manifest.segments {
            segments.push(Arc::new(Segment::open(
                vfs.as_ref(),
                path,
                id,
                cache_pages,
            )?));
        }
        // Bulk-load redo: a segment whose doc ids reach past `next_doc` was
        // committed (manifest swapped) before the meta bump was flushed.
        // Bulk ids are contiguous from the old `next_doc`, so the whole
        // segment is unaccounted.
        {
            let mut fixed = false;
            for seg in &segments {
                let mut meta = idx.store.meta_mut();
                if seg.doc_count > 0 && seg.max_doc >= meta.next_doc {
                    meta.doc_count += seg.doc_count;
                    meta.next_doc = seg.max_doc + 1;
                    fixed = true;
                }
            }
            if fixed {
                let table = idx.table.read().clone();
                idx.store.flush(&table, &idx.order)?;
            }
        }
        idx.tier = Some(Tier {
            vfs,
            path: path.to_path_buf(),
            page_size,
            cache_pages,
            state: RwLock::new(TierState { manifest, segments }),
        });
        Ok(idx)
    }

    /// Reopen an index from an existing pool (advanced; pairs with
    /// [`VistIndex::create_on`] the way [`VistIndex::open_file`] pairs with
    /// [`VistIndex::create_file`], and lets tests open through a
    /// fault-injecting pager).
    pub fn open_on(pool: Arc<BufferPool>) -> Result<Self> {
        crate::register_metrics();
        // The meta page is always the first page a FilePager hands out.
        let meta_page: PageId = 1;
        let (store, table, order) = Store::open(pool, meta_page)?;
        let kind = match store.load_stats_model()? {
            Some(model) => AllocatorKind::WithClues(model),
            None => AllocatorKind::NoClues,
        };
        let (lambda, adaptive) = {
            let meta = store.meta();
            (meta.lambda, meta.adaptive)
        };
        let alloc = ScopeAllocator::new(lambda, adaptive, kind);
        Ok(VistIndex {
            store,
            table: RwLock::new(table),
            order,
            alloc: Mutex::new(alloc),
            writer: Mutex::new(()),
            maintenance: RwLock::new(()),
            totals: Mutex::new(QueryStats::default()),
            ingest_counters: IngestCounters::default(),
            tier: None,
        })
    }

    /// Snapshot the open segments (newest last). Cheap: clones a small
    /// `Vec<Arc<_>>` under a brief tier-state read lock.
    fn segments_snapshot(&self) -> Vec<Arc<Segment>> {
        match &self.tier {
            Some(t) => t.state.read().segments.clone(),
            None => Vec::new(),
        }
    }

    /// Fetch a stored document from whichever tier holds it: the delta
    /// first, then the segments. Does NOT consult tombstones — callers
    /// mask deleted segment docs themselves.
    fn doc_get_any(&self, doc: DocId, segments: &[Arc<Segment>]) -> Result<Option<Vec<u8>>> {
        if let Some(xml) = self.store.doc_get(doc)? {
            return Ok(Some(xml));
        }
        for seg in segments.iter().rev() {
            if let Some(xml) = seg.doc_get(doc)? {
                return Ok(Some(xml));
            }
        }
        Ok(None)
    }

    /// Ids of all live documents (tombstone-masked), ascending. Caller
    /// holds the maintenance latch.
    fn live_doc_ids(&self, segments: &[Arc<Segment>]) -> Result<Vec<DocId>> {
        let mut ids = self.store.doc_ids()?;
        let tombs = self.store.tomb_ids()?;
        for seg in segments {
            join_live(&mut ids, seg.doc_ids()?, &tombs);
        }
        Ok(ids)
    }

    /// Re-arm (or clear) the planted allocation bug used to validate the
    /// `vist-sim` harness. Needed after reopen: [`VistIndex::open_on`]
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
        let meta = self.store.meta();
        let ic = self.ingest_counters.snapshot();
        vist_obs::gauge!("vist_core_documents")
            .set(i64::try_from(meta.doc_count).unwrap_or(i64::MAX));
        let segments = self.segments_snapshot();
        let segment_docs: u64 = segments.iter().map(|s| s.doc_count).sum();
        let segment_nodes: u64 = segments.iter().map(|s| s.node_count).sum();
        let segment_bytes: u64 = segments.iter().map(|s| s.store_bytes()).sum();
        let segment_fence_bytes: u64 = segments.iter().map(|s| s.fence_bytes()).sum();
        let tombstones = if segments.is_empty() {
            0
        } else {
            self.store.tomb_ids().map(|v| v.len() as u64).unwrap_or(0)
        };
        vist_obs::gauge!("vist_core_segments").set(segments.len() as i64);
        let legacy = segments.iter().filter(|s| s.format_version() < 2).count();
        vist_obs::gauge!("vist_core_segments_legacy_format").set(legacy as i64);
        vist_obs::gauge!("vist_core_segment_fence_bytes")
            .set(i64::try_from(segment_fence_bytes).unwrap_or(i64::MAX));
        IndexStats {
            segments: segments.len() as u64,
            segment_docs,
            segment_nodes,
            segment_bytes,
            segment_fence_bytes,
            tombstones,
            documents: meta.doc_count,
            nodes: meta.node_count,
            dkeys: meta.next_dkey,
            underflows: meta.underflows,
            deep_borrows: meta.deep_borrows,
            queries: *self.totals.lock(),
            store_bytes: self.store.store_bytes(),
            io: self.store.pool().stats(),
            pool: self.store.pool().pool_stats(),
            ..ic.into()
        }
    }

    /// Verify the structural invariants of every B+Tree in the index (key
    /// order, node bounds, uniform depth, leaf chains; for the packed trees
    /// of each segment, the in-memory fence array against the pages), the
    /// delta's free list and basic meta consistency. Returns a human-readable
    /// report when everything is clean, or [`Error::Corrupt`] carrying the
    /// report when it is not.
    /// Backs the `vist check` CLI command; intended to run after a crash
    /// recovery.
    pub fn check(&self) -> Result<String> {
        let _m = self.maintenance.read();
        use std::fmt::Write as _;
        let mut report = String::new();
        let mut dirty = 0usize;
        let segments = self.segments_snapshot();
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
        let free_list = self.store.pool().check_free_list().err();
        line(format_args!("free list"), free_list.map(|e| e.to_string()));
        for seg in &segments {
            for (name, problem) in seg.verify() {
                line(format_args!("segment {} tree {name:<9}", seg.id), problem);
            }
        }
        if !segments.is_empty() {
            let seg_docs: u64 = segments.iter().map(|s| s.doc_count).sum();
            let seg_nodes: u64 = segments.iter().map(|s| s.node_count).sum();
            let seg_dkeys: u64 = segments.iter().map(|s| s.dkey_count).sum();
            let tombs = self.store.tomb_ids().map(|v| v.len()).unwrap_or(0);
            writeln!(
                report,
                "segments {} ({seg_docs} docs, {seg_nodes} nodes, {seg_dkeys} dkeys, {tombs} tombstoned)",
                segments.len()
            )
            .unwrap();
        }
        if self.store.meta().store_documents {
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
    fn flush_locked(&self) -> Result<()> {
        let table = self.table.read().clone();
        self.store.flush(&table, &self.order)?;
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
    /// [`VistIndex::compact`]. Requires a tiered index
    /// ([`VistIndex::create_file`] / [`VistIndex::open_file`] or the
    /// `_at` variants), else [`Error::NotTiered`].
    pub fn bulk_build<I, S>(&self, docs: I) -> Result<Vec<DocId>>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        bg_op("segment_build", move || self.bulk_build_inner(docs))
    }

    fn bulk_build_inner<I, S>(&self, docs: I) -> Result<Vec<DocId>>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let _w = self.writer.lock();
        let tier = self.tier.as_ref().ok_or(Error::NotTiered)?;
        let (store_documents, first_doc) = {
            let meta = self.store.meta();
            (meta.store_documents, meta.next_doc)
        };
        let mut ids = Vec::new();
        let docs = docs.into_iter().map(|xml| {
            let id = first_doc + ids.len() as u64;
            ids.push(id);
            Ok((id, xml))
        });
        let Some(seg) = self.write_segment(tier, docs, Error::from)? else {
            return Ok(ids);
        };
        // Commit point. A crash before this leaves an orphan file (the id
        // gets reused and truncated); a crash after is healed on reopen by
        // the max_doc watermark (see open_at).
        let mut segments = self.segments_snapshot();
        segments.push(Arc::new(seg));
        let delta_epoch = tier.state.read().manifest.delta_epoch;
        self.publish(tier, delta_epoch, segments)?;
        {
            let mut meta = self.store.meta_mut();
            meta.next_doc = first_doc + ids.len() as u64;
            meta.doc_count += ids.len() as u64;
        }
        self.flush_locked()?;
        // A flush is a commit; a new tier state also leaves no log behind.
        self.store.pool().checkpoint()?;
        vist_obs::counter!("vist_core_bulk_docs_total").add(ids.len() as u64);
        let should_compact =
            store_documents && tier.state.read().segments.len() >= COMPACT_SEGMENT_THRESHOLD;
        if should_compact {
            self.compact_locked()?;
        }
        Ok(ids)
    }

    /// The static build (paper §3.3), shared by bulk load and compaction:
    /// parse each `(id, xml)`, convert it to its structure-encoded sequence
    /// and hand it to one [`SegmentBuilder`], which labels the merged trie
    /// and writes the next segment file of `tier`. The file is durable on
    /// return but named by no manifest: [`VistIndex::publish`] is the
    /// caller's next step. `None` when `docs` is empty. A document that does
    /// not parse ends the build with `unparseable` of the parser's error.
    /// The caller holds the writer lock.
    fn write_segment<S: AsRef<str>>(
        &self,
        tier: &Tier,
        docs: impl Iterator<Item = Result<(DocId, S)>>,
        unparseable: impl Fn(vist_xml::ParseError) -> Error,
    ) -> Result<Option<Segment>> {
        let mut docs = docs.peekable();
        if docs.peek().is_none() {
            return Ok(None);
        }
        let mut builder = SegmentBuilder::new(
            tier.scratch_dir(),
            tier.page_size,
            self.store.meta().store_documents,
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
        let seg = builder.finish(
            tier.vfs.as_ref(),
            &tier.path,
            tier.next_segment_id(),
            tier.page_size,
            tier.cache_pages,
            DEFAULT_SORT_BUDGET,
        )?;
        Ok(Some(seg))
    }

    /// The commit point of a bulk load and of a compaction: store the next
    /// generation of the manifest, naming `segments` (oldest first) at
    /// `delta_epoch`, then make it the tier's state. A manifest that
    /// advances the delta epoch obligates a delta clear (the one
    /// [`VistIndex::open_at`] redoes after a crash), done here before
    /// readers can see the new segment list. The caller holds the writer
    /// lock and flushes afterwards.
    fn publish(&self, tier: &Tier, delta_epoch: u64, segments: Vec<Arc<Segment>>) -> Result<()> {
        // A new segment's dkeys encode symbols interned while it was built:
        // persist the table BEFORE the manifest can reference the segment.
        self.flush_locked()?;
        let (generation, clear) = {
            let st = tier.state.read();
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
        manifest.store(tier.vfs.as_ref(), &tier.path)?;
        // Clearing frees B+Tree pages: exclude readers.
        let _m = clear.then(|| self.maintenance.write());
        if clear {
            self.store.clear_delta(delta_epoch)?;
        }
        *tier.state.write() = TierState { manifest, segments };
        Ok(())
    }

    /// Merge the delta and every segment into one fresh packed segment,
    /// dropping tombstoned documents for good, then reset the delta.
    /// Document ids are preserved. The manifest swap is the commit point:
    /// a crash at any earlier point leaves the old state, a crash after it
    /// is finished on reopen by re-clearing the delta (`delta_epoch`
    /// handshake — see `docs/SEGMENTS.md`). Requires a tiered index with
    /// stored documents.
    pub fn compact(&self) -> Result<()> {
        let _w = self.writer.lock();
        self.compact_locked()
    }

    fn compact_locked(&self) -> Result<()> {
        bg_op("compaction", || self.compact_inner())
    }

    fn compact_inner(&self) -> Result<()> {
        let tier = self.tier.as_ref().ok_or(Error::NotTiered)?;
        if !self.store.meta().store_documents {
            return Err(Error::DocumentsNotStored);
        }
        let segments = self.segments_snapshot();
        let (old_ids, delta_epoch) = {
            let st = tier.state.read();
            (st.manifest.segments.clone(), st.manifest.delta_epoch)
        };
        let live = self.live_doc_ids(&segments)?;
        let docs = live.iter().map(|&id| {
            let xml = self
                .doc_get_any(id, &segments)?
                .ok_or(Error::NoSuchDocument(id))?;
            let text = String::from_utf8(xml)
                .map_err(|_| Error::Corrupt("stored document is not UTF-8".into()))?;
            Ok((id, text))
        });
        let new_segment = self.write_segment(tier, docs, |e| {
            Error::Corrupt(format!("stored document unparseable: {e}"))
        })?;
        // Commit point: the new manifest names only the compacted segment
        // and advances the delta epoch, obligating a delta clear.
        let compacted = new_segment.into_iter().map(Arc::new).collect();
        self.publish(tier, delta_epoch + 1, compacted)?;
        self.flush_locked()?;
        self.store.pool().checkpoint()?;
        // The replaced segment files are garbage; unlink best-effort.
        // Concurrent readers that cloned the old Arcs keep their open
        // handles and finish safely.
        for id in old_ids {
            let _ = std::fs::remove_file(Manifest::segment_path(&tier.path, id));
        }
        vist_obs::counter!("vist_core_compactions_total").inc();
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
        for seg in self.segments_snapshot() {
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
        let id = self.insert_sequence_cached(&seq, xml, &mut IngestCache::default())?;
        vist_obs::observe_since(vist_obs::histogram!("vist_core_insert_nanos"), insert_start);
        Ok(id)
    }

    /// Insert a pre-converted structure-encoded sequence. `xml` is stored
    /// for verification/deletion when document storage is enabled.
    pub fn insert_sequence(&self, seq: &Sequence, xml: Option<&str>) -> Result<DocId> {
        let _w = self.writer.lock();
        self.insert_sequence_cached(seq, xml, &mut IngestCache::default())
    }

    /// Core of Algorithm 4, through a cache (see [`IngestCache`]) that a
    /// batch shares between its documents and a serial insert starts empty:
    /// repeated dkey lookups and trie-edge probes — the bulk of the B+Tree
    /// traffic for structure-sharing corpora — are answered from the cache
    /// instead of the trees. Caller must hold `self.writer`; the cache must
    /// not outlive it.
    ///
    /// All-or-nothing for the document store and the document count: when
    /// the sequence cannot be attached (the label space is exhausted), the
    /// stored XML and the count are taken back, so the document is neither
    /// listed nor picked up by the next compaction. Its id stays spent, and
    /// so do the trie nodes allocated before the failure: both are harmless,
    /// and ids are never reused.
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
                // `e` is the error to report, whatever the clean-up meets.
                let _ = self.store.doc_remove(doc_id);
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
        let (last_n, last_loc) = walked?;
        pending.transpose()?;
        self.store.docid_put(last_n, doc_id)?;
        // Empty sequences attach to the virtual root, which has no dkey;
        // mirror the segment builder, which skips them too.
        if let Loc::Node(dk) = last_loc {
            self.store.stats_doc_added(dk);
        }
        Ok(())
    }

    /// Algorithm 4's walk along `seq` from the root: the label and location
    /// of the node it ends on. Once it allocates a node, the rest is a
    /// *fresh branch*: each later element hangs below the node allocated one
    /// step earlier, which has no edges, so none is probed. That node's
    /// S-Ancestor record is written once, with its final state — when its
    /// one child is allocated, or by the caller when the walk ends; until
    /// then it is `chain.last()`, with `fresh` set.
    fn walk_sequence(
        &self,
        chain: &mut Vec<ChainEntry>,
        fresh: &mut bool,
        seq: &Sequence,
        cache: &mut IngestCache,
    ) -> Result<(u128, Loc)> {
        let n = seq.len();
        for (i, elem) in seq.iter().enumerate() {
            let prefix = elem
                .prefix
                .as_concrete()
                .ok_or_else(|| Error::Corrupt("wildcard in data sequence".into()))?;
            let key = dkey::encode(elem.sym, &prefix);
            let dkid = self.dkid_cached(key, cache)?;
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
                    if let Loc::Node(pd) = ploc {
                        self.store.stats_child_added(pd);
                    }
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
        let last = chain.last().expect("non-empty");
        Ok((last.state.n, last.loc))
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
    /// Returns the label and location of the last inserted node.
    fn grow_and_insert_tail(
        &self,
        chain: &mut [ChainEntry],
        tail: &[vist_seq::SeqElem],
        cache: &mut IngestCache,
    ) -> Result<(u128, Loc)> {
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
            let inc = NodeState {
                n: block + off,
                size: needed - off,
                next: block + off + 1,
                k: 0,
            };
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
        let last = chain.last().expect("non-empty");
        let (mut prev_n, mut prev_loc) = (last.state.n, last.loc);
        for elem in tail {
            let prefix = elem
                .prefix
                .as_concrete()
                .ok_or_else(|| Error::Corrupt("wildcard in data sequence".into()))?;
            let key = dkey::encode(elem.sym, &prefix);
            let dkid = self.dkid_cached(key, cache)?;
            let state = NodeState {
                n: block + off,
                size: needed - off,
                next: block + off + 1,
                k: 0,
            };
            self.store.node_put(dkid, &state)?;
            // Tail edges hang off fresh incarnations, not chain heads, so
            // they are deliberately NOT added to the edge cache (its keys
            // are chain-head labels).
            self.store.edge_put(prev_n, dkid, state.n)?;
            self.store.meta_mut().node_count += 1;
            self.store.stats_node_added(dkid);
            if let Loc::Node(pd) = prev_loc {
                self.store.stats_child_added(pd);
            }
            (prev_n, prev_loc) = (state.n, Loc::Node(dkid));
            off += 1;
        }
        Ok((prev_n, prev_loc))
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

    /// Remove a document (requires stored documents). The document's id
    /// disappears from all query results; shared trie nodes remain, as in
    /// the paper's design ([`VistIndex::compact`] drops them).
    ///
    /// This is a *maintenance* operation: B+Tree deletion frees pages, so
    /// it holds the maintenance latch exclusively, briefly blocking
    /// concurrent queries.
    pub fn remove_document(&self, doc_id: DocId) -> Result<()> {
        let _w = self.writer.lock();
        let _m = self.maintenance.write();
        if !self.store.meta().store_documents {
            return Err(Error::DocumentsNotStored);
        }
        let Some(xml) = self.store.doc_get(doc_id)? else {
            // Not in the delta: a segment-resident document is deleted by
            // writing a tombstone into the delta, which masks it from every
            // query until compaction drops it for good.
            let segments = self.segments_snapshot();
            if !self.store.tomb_contains(doc_id)? {
                for seg in &segments {
                    if seg.contains_doc(doc_id)? {
                        self.store.tomb_put(doc_id)?;
                        let mut meta = self.store.meta_mut();
                        meta.doc_count = meta.doc_count.saturating_sub(1);
                        return Ok(());
                    }
                }
            }
            return Err(Error::NoSuchDocument(doc_id));
        };
        let text = String::from_utf8(xml)
            .map_err(|_| Error::Corrupt("stored document is not UTF-8".into()))?;
        let doc = vist_xml::parse(&text)
            .map_err(|e| Error::Corrupt(format!("stored document unparseable: {e}")))?;
        let seq = {
            let mut table = self.table.write();
            document_to_sequence(&doc, &mut table, &self.order)
        };
        // Walk the trie edges to the final node.
        let mut cur = 0u128; // virtual root label
        let mut last_dkid = None;
        for elem in seq.iter() {
            let prefix = elem
                .prefix
                .as_concrete()
                .ok_or_else(|| Error::Corrupt("wildcard in data sequence".into()))?;
            let key = dkey::encode(elem.sym, &prefix);
            let dkid = self
                .store
                .dkey_get(&key)?
                .ok_or_else(|| Error::Corrupt("document path missing from index".into()))?;
            cur = self
                .find_child(cur, dkid)?
                .ok_or_else(|| Error::Corrupt("document path missing from index".into()))?;
            last_dkid = Some(dkid);
        }
        if !self.store.docid_delete(cur, doc_id)? {
            return Err(Error::NoSuchDocument(doc_id));
        }
        if let Some(dk) = last_dkid {
            self.store.stats_doc_removed(dk);
        }
        self.store.doc_remove(doc_id)?;
        {
            let mut meta = self.store.meta_mut();
            meta.doc_count = meta.doc_count.saturating_sub(1);
        }
        Ok(())
    }

    /// Ids of all stored documents, ascending (requires stored documents).
    pub fn document_ids(&self) -> Result<Vec<DocId>> {
        let _m = self.maintenance.read();
        if !self.store.meta().store_documents {
            return Err(Error::DocumentsNotStored);
        }
        self.live_doc_ids(&self.segments_snapshot())
    }

    /// Fetch a stored document's XML text.
    pub fn get_document_xml(&self, doc_id: DocId) -> Result<String> {
        let _m = self.maintenance.read();
        if !self.store.meta().store_documents {
            return Err(Error::DocumentsNotStored);
        }
        let xml = match self.store.doc_get(doc_id)? {
            Some(xml) => xml,
            None if !self.store.tomb_contains(doc_id)? => self
                .doc_get_any(doc_id, &self.segments_snapshot())?
                .ok_or(Error::NoSuchDocument(doc_id))?,
            None => return Err(Error::NoSuchDocument(doc_id)),
        };
        String::from_utf8(xml).map_err(|_| Error::Corrupt("stored document is not UTF-8".into()))
    }

    /// Run a pattern and return the matched final *scopes* without resolving
    /// them to document ids — the quantity the paper times in Figure 10
    /// (match cost excluding DocId output).
    pub fn match_scopes(
        &self,
        pattern: &Pattern,
        opts: &QueryOptions,
    ) -> Result<(Vec<(u128, u128)>, QueryStats)> {
        let translation = self.translate_overlay(pattern, opts, |t, _| t);
        // Lock order: the table read guard (above, inside the helper) is
        // released before the maintenance latch is taken.
        let _m = self.maintenance.read();
        // Segment scopes live in per-segment label spaces; they are
        // reported as-is after the delta's (scope values from different
        // sources are not comparable).
        let (outcome, _) = self.search_tiers(
            &translation.sequences,
            &opts.search_options(SearchMode::Scopes, false),
        )?;
        Ok((outcome.scopes, outcome.stats))
    }

    /// Algorithm 2 over every tier: the delta, then each segment, oldest
    /// first. Every tier is its own label space, so the match runs once
    /// per source; document ids are unioned (a segment document with a
    /// tombstone in the delta is masked), scopes concatenated, counters
    /// and stage timings summed, and the plan of each tier that ran is
    /// returned under its name when `sopts.collect_plan` asks for plans.
    /// A limited search stops at the first tier that fills the limit.
    /// The caller holds the maintenance latch.
    fn search_tiers(
        &self,
        seqs: &[QuerySequence],
        sopts: &SearchOptions,
    ) -> Result<(SearchOutcome, Vec<(String, PlanReport)>)> {
        let mut total = search_sequences(&self.store, seqs, sopts)?;
        let mut plans: Vec<(String, PlanReport)> = Vec::new();
        plans.extend(total.plan.take().map(|p| ("delta".to_string(), p)));
        let segments = self.segments_snapshot();
        if !segments.is_empty() {
            // Delta docs are never tombstoned. Read the tombstones (a scan of
            // every one) only once a segment is searched: a limited query the
            // delta answers never does.
            let mut tombs: Option<Vec<DocId>> = None;
            let mut union_nanos = 0;
            for seg in &segments {
                if sopts.limit.is_some_and(|k| total.docs.len() >= k) {
                    break;
                }
                if tombs.is_none() {
                    let t = vist_obs::now();
                    tombs = Some(self.store.tomb_ids()?);
                    union_nanos += vist_obs::elapsed_nanos(t).unwrap_or(0);
                }
                let tombs = tombs.as_deref().unwrap_or_default();
                // Over-provision a limited segment search by the tombstone
                // count: up to that many of its hits may be masked below.
                let seg_opts = SearchOptions {
                    limit: sopts.limit.map(|k| k - total.docs.len() + tombs.len()),
                    ..*sopts
                };
                let o = search_sequences(seg.as_ref(), seqs, &seg_opts)?;
                total.stats.merge(&o.stats);
                total.timings.match_nanos += o.timings.match_nanos;
                total.timings.merge_nanos += o.timings.merge_nanos;
                total.timings.docid_nanos += o.timings.docid_nanos;
                total.scopes.extend(o.scopes);
                let t = vist_obs::now();
                join_live(&mut total.docs, o.docs, tombs);
                union_nanos += vist_obs::elapsed_nanos(t).unwrap_or(0);
                plans.extend(o.plan.map(|p| (format!("segment {}", seg.id), p)));
            }
            // The union can overshoot the limit; keep the smallest k.
            total.docs.truncate(sopts.limit.unwrap_or(usize::MAX));
            // Timed between the segments' own spans: one visit, grafted.
            total.timings.merge_nanos += union_nanos;
            vist_obs::span::attach(vist_obs::SpanNode::leaf("merge", union_nanos, 1));
        }
        self.totals.lock().merge(&total.stats);
        total.stats.publish();
        Ok((total, plans))
    }

    /// Translate under a brief shared table lock, interning query-only
    /// names into an ephemeral [`TableOverlay`] instead of cloning the
    /// whole table per query. Overlay symbols cannot occur in the data, so
    /// elements naming them simply never match. `then` sees the overlay
    /// too, for the names of those symbols; the lock is gone on return.
    fn translate_overlay<R>(
        &self,
        pattern: &Pattern,
        opts: &QueryOptions,
        then: impl FnOnce(Translation, &TableOverlay) -> R,
    ) -> R {
        let table = self.table.read();
        let mut overlay = TableOverlay::new(&table);
        let topts = TranslateOptions {
            order: self.order.clone(),
            max_sequences: opts.max_sequences,
        };
        let translation =
            translate_with(pattern, &mut overlay, &topts).expect("overlay resolver never fails");
        then(translation, &overlay)
    }

    /// Explain a query: show its translation into structure-encoded
    /// sequence(s) (the paper's Table 2 form), then run it and report the
    /// per-tree probe counts. Intended for debugging and teaching; the
    /// output format is human-oriented and not stable.
    pub fn explain(&self, expr: &str, opts: &QueryOptions) -> Result<String> {
        self.explain_with(expr, opts, false)
    }

    /// [`VistIndex::explain`] plus, when `show_plan` is set, the
    /// cost-based planner's report per tier: estimated vs actual
    /// cardinalities per step, sequence ranks and prunes, and the DocId
    /// resolution strategy (`vist explain --plan`).
    pub fn explain_with(&self, expr: &str, opts: &QueryOptions, show_plan: bool) -> Result<String> {
        use std::fmt::Write as _;
        let pattern = parse_query(expr)?.to_pattern();
        let mut out = String::new();
        writeln!(out, "query:   {expr}").unwrap();
        writeln!(out, "pattern: {}", pattern.to_expr()).unwrap();
        // Translate + render inside one brief table read guard: the overlay
        // borrows the guard, and rendering needs the overlay for names of
        // query-only symbols. Dropped before any search runs.
        let elem_labels = self.translate_overlay(&pattern, opts, |translation, overlay| {
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
            "engine:  {} worker(s), {} work items in {} sweep(s) ({:.1} scopes a sweep), {} steals,",
            opts.workers.max(1),
            st.work_items,
            st.sancestor_scans,
            st.work_items as f64 / st.sancestor_scans.max(1) as f64,
            st.steals
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
        let pool = self.store.pool().pool_stats();
        let t = pool.totals();
        writeln!(
            out,
            "pool:    {} shard(s), {} hits ({} uncontended), {} misses, {} write-backs",
            pool.shard_count(),
            t.hits,
            t.uncontended_hits,
            t.misses,
            t.write_backs
        )
        .unwrap();
        for (i, s) in pool.shards.iter().enumerate() {
            writeln!(
                out,
                "         shard {i}: {} hits ({} uncontended), {} misses, {:.1}% hit",
                s.hits,
                s.uncontended_hits,
                s.misses,
                s.hit_ratio().unwrap_or(0.0) * 100.0
            )
            .unwrap();
        }
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
        // Per-query I/O attribution: installed here, cloned onto every
        // match worker (see `search.rs`), charged by the storage layer.
        let attr_ctx = vist_obs::AttrCounters::new();
        let attr_guard = vist_obs::attr::install(attr_ctx.clone());
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
        drop(attr_guard);
        result.stats.set_io(&attr_ctx.snapshot());
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
        vist_obs::counter!("vist_core_query_total").inc();
        let topts = TranslateOptions {
            order: self.order.clone(),
            max_sequences: opts.max_sequences,
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
        let stats = outcome.stats;
        let mut timings = outcome.timings;
        timings.translate_nanos = translate_nanos;
        let out = outcome.docs;
        let candidates = out.len();
        let doc_ids: Vec<DocId> = if opts.verify {
            if !self.store.meta().store_documents {
                return Err(Error::DocumentsNotStored);
            }
            let _span = vist_obs::Span::enter("verify");
            let verify_start = vist_obs::now();
            let segments = self.segments_snapshot();
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
                let xml = self
                    .doc_get_any(id, &segments)?
                    .ok_or(Error::NoSuchDocument(id))?;
                let text = String::from_utf8(xml)
                    .map_err(|_| Error::Corrupt("stored document is not UTF-8".into()))?;
                let doc = vist_xml::parse(&text)
                    .map_err(|e| Error::Corrupt(format!("stored document unparseable: {e}")))?;
                if matches_document(pattern, &doc, &self.order) {
                    verified.push(id);
                }
            }
            timings.verify_nanos = vist_obs::elapsed_nanos(verify_start).unwrap_or(0);
            verified
        } else {
            out
        };
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

/// The tier union: join a segment's ids `run`, less those in `tombs`, into
/// `ids` — all three ascending, and `ids` stays so and distinct. Appended,
/// the two are sorted runs, which the stable sort merges in linear time.
fn join_live(ids: &mut Vec<DocId>, mut run: Vec<DocId>, tombs: &[DocId]) {
    run.retain(|id| tombs.binary_search(id).is_err());
    ids.append(&mut run);
    ids.sort();
    ids.dedup();
}

/// Append the planner's per-tier report to an `explain` rendering:
/// sequence ranks/prunes, per-step estimated vs actual cardinalities, and
/// the chosen DocId strategy, for every tier the query ran on.
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

        // Reopen: manifest, segments and counts survive.
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
        let idx = VistIndex::in_memory(IndexOptions {
            store_documents: false,
            ..Default::default()
        })
        .unwrap();
        idx.insert_xml("<a><b/></a>").unwrap();
        let r = idx.query("/a/b", &QueryOptions::default()).unwrap();
        assert_eq!(r.doc_ids.len(), 1);
        assert!(matches!(
            idx.query(
                "/a/b",
                &QueryOptions {
                    verify: true,
                    ..Default::default()
                }
            ),
            Err(Error::DocumentsNotStored)
        ));
        assert!(matches!(
            idx.remove_document(0),
            Err(Error::DocumentsNotStored)
        ));
    }
}
