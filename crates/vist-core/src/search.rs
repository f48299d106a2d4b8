//! Algorithm 2: non-contiguous subsequence matching using B+Trees,
//! formulated as an explicit **work-list of match frames**, each of which
//! advances a whole sorted frontier of partial matches at once.
//!
//! Shared by the delta and the packed segments of [`crate::VistIndex`] —
//! "ViST uses the same sequence matching algorithm as RIST".
//!
//! For each query element the D-Ancestor tree is consulted (an exact get for
//! concrete prefixes, a range query for `*`/`//` prefixes), and within each
//! matching D-Ancestor entry the S-Ancestor tree is range-queried for labels
//! strictly inside the previous match's scope — the "jump" that eliminates
//! suffix-tree traversal. When the last element matches, the final node's
//! scope is resolved to document ids against the tier's DocId postings.
//!
//! # Work-list formulation, set at a time
//!
//! Where the paper phrases the search as recursion — one S-Ancestor range
//! query `n_x < n ≤ n_x + size_x` per partial match — this module reifies
//! the partial matches of one query position that share their wildcard
//! bindings as a [`Frame`]: *"element `qi` of sequence `seq` must next match
//! inside one of these scopes (sorted by label), given these bindings"*.
//! Expanding a frame resolves the D-Ancestor candidates **once** (the lookup
//! depends on the bindings, not on the scope) and then, per candidate,
//! merge-joins the frame's scopes against the key's S-Ancestor entries in
//! **one forward pass** ([`SearchSource::nodes_in_scopes`]): in the delta a
//! multi-range cursor, which fetches a leaf once however many scopes fall on
//! it and seeks again only for a scope that starts beyond the leaf it stands
//! on; in a segment a galloping join against the key's run of entries,
//! decoded at open, which fetches no page. The hits, ascending, become child frames of
//! at most [`FRAME_SCOPES`] scopes each. Two things keep the frontier
//! small:
//!
//! 1. **Containment collapse** — on every position but the last, a hit
//!    whose scope lies inside one the same sweep already kept is dropped:
//!    it has the same bindings and a smaller window, so everything below it
//!    is found below its container. (Same-name siblings nest in the trie:
//!    the thousands of `author` scopes of a bibliography collapse to the
//!    outermost of each record.) Scopes of completed matches are the answer
//!    and are never collapsed.
//! 2. **Dedup** — distinct wildcard expansions that converge on the same
//!    `(dkey, scope)` sub-problem are detected by a visited set and
//!    expanded once instead of re-scanning the same subtree.
//!
//! A frame is cut where its sweep produced it, by a rule that looks at the
//! sweep alone ([`frame_scopes`]), and is never split afterwards, so the set
//! of sweeps a query performs does not depend on the order frames are taken
//! in.
//!
//! Final scopes accumulate and are interval-merged before they are resolved,
//! so overlapping `[n, n+size)` scopes from different branches are one range
//! instead of many; the merged ranges, sorted and disjoint, go to
//! [`SearchSource::docids_in_scopes`] in one call a slice, a galloping merge
//! join against the tier's postings column (its DocId tree's entries,
//! decoded once at open), which fetches no page, and the ids they yield are
//! put in order and deduplicated once, by a bitmap where they are dense
//! ([`sort_distinct`]). That stage is the same with planning on or off.
//!
//! One loop consumes the work-list — [`drive`], the only caller of `expand`,
//! on the caller's thread: the sequences' seed frames in plan order, each
//! drained depth-first from one stack. A `limit` is a step of that same loop
//! (resolve the scopes an expansion completed, stop when enough documents
//! are in hand), not a second loop, and it makes every sweep stop after a
//! piece of hits and leave the rest to a continuation frame, so a limited
//! run pays for about as many hits as it returns.
//!
//! The inner loop does not allocate per partial match: B+Tree probes stream
//! through the cursors of a [`SearchSource`] with keys built on the stack,
//! lookup patterns, decoded prefixes, candidate lists and a sweep's hits
//! live in buffers reused from frame to frame, the dedup sets key
//! on an interned binding signature, and bindings are shared between frames
//! through a persistent [`BindNode`] chain. What is allocated is one scope
//! list per child frame and one `BindNode` per sweep with hits that a later
//! wildcard element will consult.
//!
//! The counters of [`QueryStats`] come in two kinds. **Logical** ones count
//! partial matches and keep the meaning they had when each was expanded on
//! its own (`work_items`, `nodes_visited`, `dedup_skips`, `scopes_nested`,
//! `planner_probe_prunes`, `semijoin_prunes`, the per-step actuals of a
//! plan report), so
//! history stays comparable and the counts do not depend on the size of a
//! frame. **Physical** ones count operations issued (`dancestor_gets`,
//! `dancestor_scans`, `dkeys_matched`, `sancestor_scans` — sweeps), which
//! happen once a frame. Under a `limit` the logical counts cover the work
//! done before the stop: a continuation's scopes are not counted again as
//! work items, and the nodes a stopped sweep never reached are not visited.
//!
//! # Cost-based planning (ViST §3.4 "statistical clues")
//!
//! The plan stage between translation and matching ([`crate::plan`], once a
//! source) uses cheap per-D-Ancestor statistics ([`DkStats`], counted by
//! the delta at open and kept current on insert, the run lengths of a
//! segment's S-Ancestor entries)
//! to transform the work-list **without changing its answer**:
//!
//! - **Empty-prefix short-circuits** — a sequence whose concrete-prefix
//!   element is absent from the D-Ancestor tree, or whose `*`/`//` element's
//!   pattern probe matches nothing, can never complete and is never seeded.
//!   (The static pattern covers every runtime instantiation, so an empty
//!   probe is a proof, not a heuristic.)
//! - **Selectivity ordering** — live sequences are seeded cheapest-first
//!   (by estimated node visits), and within a wildcard expansion the
//!   D-Ancestor candidates are descended smallest-first.
//! - **Child-probe pruning** — before range-scanning the S-Ancestor entries
//!   of a matched key, the planner probes the (fully determined) D-Ancestor
//!   keys of wildcarded child elements reachable from that binding by
//!   concrete steps; any absent key proves the whole subtree dead.
//! - **Label semi-join** — Algorithm 2 reaches a selective element late in
//!   a sequence (a planted value below an unselective path) only after
//!   expanding every partial match of the prefix before it. So the plan
//!   stage takes the later element `j` with the fewest estimated
//!   S-Ancestor entries, collects their labels once, sorted (one pass per
//!   candidate key of `j`'s static pattern), and [`sweep`] drops a hit at a
//!   position before `j` whose open scope `(n, n+size)` holds none of them:
//!   one binary search a hit. It is sound because element `k+1` matches
//!   strictly inside the scope of element `k`'s match and scopes are
//!   laminar, so the label `j` matches lies inside every earlier matched
//!   scope; and the static pattern's candidate keys cover every binding's.
//!   The labels are collected only when they are estimated to be fewer
//!   than the partial matches they remove, never more than the probe cap,
//!   and never for a `limit` run, which pays for the hits it returns
//!   instead.
//! - **`limit` early termination** — bounded runs resolve completed scopes
//!   eagerly, sweep in pieces of hits, and stop the DocId join as soon as
//!   enough distinct documents are in hand.
//!
//! Every transform only reorders work or prunes work that provably cannot
//! complete, so (unlimited) results are bit-identical with planning on or
//! off — [`SearchOptions::plan`] exists purely for bisection and benchmarks,
//! and turns the semi-join off with the rest.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Instant;

use vist_query::{QueryElem, QuerySequence};
use vist_seq::{dkey, PathSym, Prefix, Sym, Symbol};

use crate::error::{Error, Result};
use crate::plan::{self, est_nodes, PlanReport, SemiJoin, SeqPlan};
use crate::postings::sort_distinct;
use crate::store::DocId;

/// Cheap per-D-Ancestor-entry statistics driving the planner. The delta
/// counts them from its S-Ancestor tree at open and keeps them current on
/// insert; a segment reads them off the lengths of its S-Ancestor runs
/// (the statistics tree it packs is checked against them). Missing
/// statistics degrade ordering, never correctness.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DkStats {
    /// S-Ancestor entries under this key (virtual suffix-tree nodes,
    /// including incarnations).
    pub nodes: u64,
}

/// The B+Tree probe surface Algorithm 2 needs, abstracted over where the
/// trees live: the mutable delta ([`crate::Store`]) or an immutable packed
/// segment. Every source is a self-contained label space (each segment is
/// bulk-labeled independently), so the tiered index runs the match once
/// per source and unions document ids — scopes from different sources are
/// never compared.
///
/// Callbacks are `&mut dyn FnMut` so the trait stays object-safe. They run
/// under a leaf's page latch, or the delta's postings column's lock, and
/// must not touch the buffer pool or the source.
pub trait SearchSource: Sync {
    /// Exact D-Ancestor lookup: the id of `dkey`, if present.
    fn dkey_get(&self, dkey: &[u8]) -> Result<Option<u64>>;

    /// Scan D-Ancestor keys in `[lo, hi)`, invoking `f(dkey, id)` in key
    /// order until it breaks.
    fn dkey_scan_range(
        &self,
        lo: &[u8],
        hi: &[u8],
        f: &mut dyn FnMut(&[u8], u64) -> ControlFlow<()>,
    ) -> Result<()>;

    /// S-Ancestor entries of `dkey_id` labeled strictly inside one of
    /// `scopes` — `(lo, hi)` pairs sorted by `lo` — as `f(n, end)`, the
    /// entry's label and the exclusive end of its scope, in label order,
    /// each once however many scopes hold it, until `f` breaks: the merge
    /// join of a sorted frontier against the key's entries, in one forward
    /// pass over the delta's leaves or a segment's in-memory run.
    fn nodes_in_scopes(
        &self,
        dkey_id: u64,
        scopes: &[(u128, u128)],
        f: &mut dyn FnMut(u128, u128) -> ControlFlow<()>,
    ) -> Result<()>;

    /// DocId entries `(n, doc)` whose label `n` lies in one of `scopes` —
    /// `[lo, hi)` ranges sorted by `lo`, overlapping ones visited as their
    /// union — in label order, until `f` breaks: the paper's final range
    /// query `[n, n+size)` on the DocId B+Tree, for all final nodes in one
    /// forward merge join against the postings column the tier decoded from
    /// that tree at open, fetching no page.
    fn docids_in_scopes(
        &self,
        scopes: &[(u128, u128)],
        f: &mut dyn FnMut(u128, DocId) -> ControlFlow<()>,
    ) -> Result<()>;

    /// Planner statistics for one D-Ancestor entry, when the source
    /// maintains them. `None` falls back to candidate counting.
    fn dkid_stats(&self, _dkid: u64) -> Option<DkStats> {
        None
    }
}

/// Declares [`QueryStats`] and, from the same list, everything that has to
/// name each counter: [`QueryStats::fields`] (serve wide event),
/// [`QueryStats::merge`] (per-tier sums) and the registry counters, which
/// keep the running totals. A counter exists by being one row here.
macro_rules! query_stats {
    (
        engine { $( $(#[$edoc:meta])* $e:ident ),* $(,)? }
        io { $( $(#[$idoc:meta])* $i:ident ),* $(,)? }
    ) => {
        /// Instrumentation counters for one search — or, summed by
        /// [`QueryStats::merge`], for every tier of one query.
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct QueryStats {
            $( $(#[$edoc])* pub $e: u64, )*
            $( $(#[$idoc])* pub $i: u64, )*
        }

        impl QueryStats {
            /// Every counter as a `(name, value)` pair, in declaration
            /// order.
            #[must_use]
            pub fn fields(&self) -> [(&'static str, u64); [$(stringify!($e),)* $(stringify!($i),)*].len()] {
                [
                    $( (stringify!($e), self.$e), )*
                    $( (stringify!($i), self.$i), )*
                ]
            }

            /// Accumulate another search's counters into this one.
            pub fn merge(&mut self, other: &QueryStats) {
                $( self.$e += other.$e; )*
                $( self.$i += other.$i; )*
            }

            /// Add the engine counters to their process-wide registry
            /// metrics, `vist_core_<field>_total`. The `io_*` fields have
            /// none: they are per-query copies of `vist_storage_*`.
            pub(crate) fn publish(&self) {
                $( vist_obs::counter!(concat!("vist_core_", stringify!($e), "_total")).add(self.$e); )*
            }
        }
    };
}

query_stats! {
    engine {
        /// Exact D-Ancestor lookups performed.
        dancestor_gets,
        /// D-Ancestor range scans performed (wildcard prefixes).
        dancestor_scans,
        /// D-Ancestor entries that matched some query element.
        dkeys_matched,
        /// S-Ancestor sweeps performed: one forward cursor pass over one
        /// D-Ancestor key's entries, for all scopes of a frame at once.
        sancestor_scans,
        /// Virtual suffix tree nodes visited (partial matches explored).
        nodes_visited,
        /// Merged scopes resolved to document ids (the paper's range
        /// queries on the DocId tree), however many joins resolved them.
        docid_scans,
        /// Partial matches expanded by the work-list engine: the scopes of
        /// every frame it took up.
        work_items,
        /// Final scopes coalesced away by interval merging before DocId
        /// resolution (raw matched scopes minus DocId range queries issued).
        scopes_merged,
        /// Duplicate sub-problems skipped by the visited set (identical
        /// `(dkey, scope)` reached via different wildcard expansions).
        dedup_skips,
        /// Frontier scopes dropped because the sweep that found them had
        /// already kept a scope containing them: same bindings, so whatever
        /// matches below the inner one is found below the outer.
        scopes_nested,
        /// Sequences the planner proved empty and never seeded (absent
        /// concrete prefix or empty wildcard pattern probe).
        planner_seqs_pruned,
        /// D-Ancestor probes issued by the planner (plan-time pattern probes
        /// plus memoized child-probe lookups in the match loop).
        planner_probes,
        /// Scopes whose S-Ancestor sweep was skipped because a child probe
        /// proved the subtree dead.
        planner_probe_prunes,
        /// Labels the plan stage collected for label semi-joins: the
        /// S-Ancestor entries of each sequence's most selective later
        /// element.
        semijoin_labels,
        /// Partial matches the label semi-join dropped: hits whose scope
        /// held none of those labels.
        semijoin_prunes,
    }
    io {
        /// Buffer-pool hits attributed to this query (filled by the index
        /// layer from the query's [`vist_obs::attr`] scope; zero for
        /// direct `search_sequences` calls and `noop` builds).
        io_pool_hits,
        /// Buffer-pool misses attributed to this query.
        io_pool_misses,
        /// Pages read from the backing file for this query.
        io_pages_read,
        /// Bytes read from the backing file for this query.
        io_bytes_read,
        /// WAL appends issued while this query's scope was open.
        io_wal_appends,
    }
}

impl QueryStats {
    /// Copy the attributed I/O counters from an attribution snapshot.
    pub fn set_io(&mut self, io: &vist_obs::AttrSnapshot) {
        self.io_pool_hits = io.pool_hits;
        self.io_pool_misses = io.pool_misses;
        self.io_pages_read = io.pages_read;
        self.io_bytes_read = io.bytes_read;
        self.io_wal_appends = io.wal_appends;
    }
}

/// Per-stage wall-clock breakdown of one query, in nanoseconds. All
/// zeros when `vist-obs` timing is disabled. Kept separate from
/// [`QueryStats`] so the deterministic counters stay comparable with
/// `==` in tests while timings vary run to run.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageTimings {
    /// Query parse + translation to structure-encoded sequences
    /// (recorded by the index, zero for direct `search_sequences` calls).
    pub translate_nanos: u64,
    /// The planner: per-sequence context build, up-front D-Ancestor
    /// probes, selectivity ordering.
    pub plan_nanos: u64,
    /// The work-list match loop (D-Ancestor candidates + S-Ancestor
    /// range scans), in wall-clock time.
    pub match_nanos: u64,
    /// Final-scope sort/dedup/interval-merge, and the index's tier union.
    pub merge_nanos: u64,
    /// DocId range queries over the merged scopes.
    pub docid_nanos: u64,
    /// Match verification against stored documents (recorded by the
    /// index when `QueryOptions::verify` is on).
    pub verify_nanos: u64,
    /// Whole-query wall time (recorded by the index; covers the stages
    /// above plus residual bookkeeping).
    pub total_nanos: u64,
}

impl StageTimings {
    /// The stages as `(name, nanos)` pairs in execution order, for request
    /// records and profiling tables. Excludes `total_nanos`.
    #[must_use]
    pub fn stages(&self) -> [(&'static str, u64); 6] {
        [
            ("translate", self.translate_nanos),
            ("plan", self.plan_nanos),
            ("match", self.match_nanos),
            ("merge", self.merge_nanos),
            ("docid", self.docid_nanos),
            ("verify", self.verify_nanos),
        ]
    }

    /// Sum of the individual stages (excluding `total_nanos`).
    #[must_use]
    pub fn stage_sum(&self) -> u64 {
        self.stages().iter().map(|(_, n)| n).sum()
    }
}

/// What [`search_sequences`] produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMode {
    /// Resolve matches to document ids via (merged) DocId range queries.
    Docs,
    /// Collect the final matched scopes `[n, n+size)` without touching the
    /// DocId tree (the paper's measured quantity for Figure 10, which
    /// excludes "the time spent in data output after each range query on
    /// the DocId B+Tree").
    Scopes,
}

/// Knobs for one [`search_sequences`] run.
#[derive(Debug, Clone, Copy)]
pub struct SearchOptions {
    /// Resolve documents or collect scopes.
    pub mode: SearchMode,
    /// Seeded frame scheduling (the `vist-sim` hook); `None` is the
    /// default depth-first order.
    pub schedule_seed: Option<u64>,
    /// Cost-based planning (see the module docs). On by default; turning
    /// it off restores the naive fixed-preorder engine for bisection.
    pub plan: bool,
    /// Stop after this many distinct documents ([`SearchMode::Docs`]
    /// only). The match loop resolves each completed scope as soon as it
    /// is matched; the result is a subset of the unlimited
    /// answer of size `min(limit, total)`.
    pub limit: Option<usize>,
    /// Attach a per-step [`PlanReport`] (estimated vs actual
    /// cardinalities) to the outcome — `vist explain --plan`.
    pub collect_plan: bool,
    /// Cooperative cancellation point: once this instant passes, the
    /// engine stops at the next frame boundary (the match loop checks
    /// before expanding a frame, and the DocId stage checks between slices
    /// of 1,024 merged scopes) and returns
    /// [`crate::Error::DeadlineExceeded`]. The check costs one clock
    /// read per frame and only when a deadline is set; expiry never
    /// poisons locks or mutates the index.
    pub deadline: Option<Instant>,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            mode: SearchMode::Docs,
            schedule_seed: None,
            plan: true,
            limit: None,
            collect_plan: false,
            deadline: None,
        }
    }
}

/// Whether `deadline` has passed. One clock read; `None` is never
/// expired, so unlimited queries pay nothing.
#[inline]
fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// Result of one [`search_sequences`] run.
#[derive(Debug, Default)]
pub struct SearchOutcome {
    /// Matching document ids, strictly ascending ([`SearchMode::Docs`] only).
    pub docs: Vec<DocId>,
    /// In [`SearchMode::Scopes`]: the distinct final matched scopes,
    /// ascending. In [`SearchMode::Docs`]: the merged intervals the DocId
    /// tree was queried with, or under a `limit` the scopes it resolved,
    /// unmerged and in expansion order.
    pub scopes: Vec<(u128, u128)>,
    /// Search instrumentation.
    pub stats: QueryStats,
    /// Wall-clock stage breakdown (zeros when timing is disabled).
    pub timings: StageTimings,
    /// The plan, when [`SearchOptions::collect_plan`] asked for it.
    pub plan: Option<PlanReport>,
}

/// Run Algorithm 2 over every alternative sequence of one query, unioning
/// results: plan the sequences, match them, then resolve the matched
/// scopes against the DocId postings.
///
/// A sequence with no elements (an all-wildcard query such as `/*`)
/// contributes the whole label space — every document matches.
///
/// `opts.schedule_seed: Some(s)` replaces the default expansion order
/// (seeds in plan order, each drained depth-first) with seeded
/// pseudo-random picks among the pending seeds and frames — the `vist-sim` harness's scheduler
/// hook — and the default frame size with seeded ones from 1 to 1,024
/// scopes (`frame_scopes`). Answers are sets, so **every** seed must
/// return exactly the same result; the simulation uses differing seeds to
/// hunt for order-dependent bugs in dedup, frontier batching and scope
/// merging.
///
/// Callers must hold whatever latch protects the store from a reset of its
/// pager for the duration of the call (queries hold the maintenance latch
/// shared);
/// the engine itself acquires no index locks.
pub fn search_sequences(
    source: &dyn SearchSource,
    seqs: &[QuerySequence],
    opts: &SearchOptions,
) -> Result<SearchOutcome> {
    let mut stats = QueryStats::default();
    let mut timings = StageTimings::default();
    // Scopes contributed before the match loop runs: an empty sequence
    // (all-wildcard query) matches the whole label space.
    let mut pre_scopes: Vec<(u128, u128)> = Vec::new();
    let mut ctxs: Vec<SeqCtx<'_>> = Vec::with_capacity(seqs.len());
    let mut plans: Vec<SeqPlan> = Vec::with_capacity(seqs.len());
    let order: Vec<usize>;
    let limit = match opts.mode {
        SearchMode::Docs => opts.limit,
        SearchMode::Scopes => None,
    };
    {
        let _span = vist_obs::Span::enter("plan");
        let t = vist_obs::now();
        for (i, qs) in seqs.iter().enumerate() {
            if expired(opts.deadline) {
                return Err(Error::DeadlineExceeded);
            }
            if qs.elems.is_empty() {
                pre_scopes.push((0, vist_seq::MAX_SCOPE));
            }
            let mut ctx = SeqCtx::build(source, qs, &mut stats)?;
            let plan = if opts.plan {
                // A limited run pays for the hits it returns, not for a
                // semi-join's labels.
                let (plan, join) =
                    plan::plan_sequence(source, &ctx, i, limit.is_none(), &mut stats)?;
                ctx.semijoin = join;
                plan
            } else {
                plan::skeleton_plan(&ctx, i, opts.collect_plan)
            };
            ctxs.push(ctx);
            plans.push(plan);
        }
        // Seed live sequences cheapest-first. With planning off this is
        // the input order and nothing is pruned (dead concrete branches
        // still die inside the match loop, as before).
        let mut live: Vec<usize> = (0..seqs.len())
            .filter(|&i| !seqs[i].elems.is_empty() && plans[i].pruned.is_none())
            .collect();
        if opts.plan {
            live.sort_by_key(|&i| (plans[i].est_cost, i));
        }
        for (rank, &i) in live.iter().enumerate() {
            plans[i].rank = rank;
        }
        order = live;
        timings.plan_nanos = vist_obs::elapsed_nanos(t).unwrap_or(0);
    }
    let seeds: Vec<Frame> = order
        .iter()
        .map(|&i| Frame {
            // The virtual root covers the whole label space; its own label 0
            // is excluded from descendant ranges by the strict lower bound.
            seq: i as u32,
            qi: 0,
            scopes: vec![(0, vist_seq::MAX_SCOPE)],
            binds: None,
            cont: None,
        })
        .collect();

    let (mut scopes, mut docs) = {
        let _span = vist_obs::Span::enter("match");
        let t = vist_obs::now();
        let out = drive(source, &ctxs, seeds, pre_scopes, opts, limit)?;
        stats.merge(&out.stats);
        absorb_steps(&mut plans, &out);
        timings.match_nanos = vist_obs::elapsed_nanos(t).unwrap_or(0);
        (out.scopes, out.docs)
    };

    match (opts.mode, limit) {
        (SearchMode::Scopes, _) => {
            // Canonical form: matched scopes are a *set* (different
            // branches or sequences can reach the same final node).
            let _span = vist_obs::Span::enter("merge");
            let t = vist_obs::now();
            scopes.sort_unstable();
            scopes.dedup();
            timings.merge_nanos = vist_obs::elapsed_nanos(t).unwrap_or(0);
        }
        // The match loop resolved `scopes` as it went and stopped the DocId
        // cursor at the limit.
        (SearchMode::Docs, Some(_)) => {}
        (SearchMode::Docs, None) => {
            let merge_span = vist_obs::Span::enter("merge");
            let t = vist_obs::now();
            let raw = scopes.len() as u64;
            scopes = coalesce(scopes);
            stats.scopes_merged += raw - scopes.len() as u64;
            timings.merge_nanos = vist_obs::elapsed_nanos(t).unwrap_or(0);
            drop(merge_span);
            let _span = vist_obs::Span::enter("docid");
            let t = vist_obs::now();
            // "Perform a range query [n, n+size) on the DocId B+Tree" — on its
            // postings column, for the merged scopes of a slice in one pass,
            // the deadline checked between slices.
            for slice in scopes.chunks(FRAME_SCOPES) {
                if expired(opts.deadline) {
                    return Err(Error::DeadlineExceeded);
                }
                stats.docid_scans += slice.len() as u64;
                source.docids_in_scopes(slice, &mut |_, doc| {
                    docs.push(doc);
                    ControlFlow::Continue(())
                })?;
            }
            sort_distinct(&mut docs);
            timings.docid_nanos = vist_obs::elapsed_nanos(t).unwrap_or(0);
        }
    }
    let docid_ranges = (opts.mode == SearchMode::Docs).then_some(scopes.len() as u64);
    Ok(SearchOutcome {
        docs,
        scopes,
        stats,
        timings,
        plan: opts.collect_plan.then_some(PlanReport {
            seqs: plans,
            docid_ranges,
        }),
    })
}

/// The match loop: expand frames until none are pending, on the caller's
/// thread. Seeds are taken in plan-rank order and each is drained from one
/// stack, top first, before the next is taken; under a schedule seed both
/// picks are seeded instead (see `search_sequences`).
///
/// Under a `limit` the loop gains one step per expansion: the scopes just
/// completed are resolved against the DocId postings at once
/// ([`MatchOut::resolve`]), and the run stops as soon as `limit`
/// distinct documents are in hand. Its sweeps stop after a piece of hits
/// and leave the rest to a continuation frame (see [`sweep`]), so the run
/// pays for the hits it needs.
fn drive(
    source: &dyn SearchSource,
    ctxs: &[SeqCtx<'_>],
    mut seeds: Vec<Frame>,
    pre_scopes: Vec<(u128, u128)>,
    opts: &SearchOptions,
    limit: Option<usize>,
) -> Result<MatchOut> {
    let mut out = MatchOut::new(opts, limit);
    out.scopes = pre_scopes;
    if let Some(limit) = limit {
        if out.resolve(source, limit, opts.deadline)? {
            return Ok(out);
        }
    }
    // Two seeded streams, one picking the next seed and one the next frame
    // of the stack.
    let mut seed_rng = opts.schedule_seed;
    let mut frame_rng = opts.schedule_seed;
    let mut stack: Vec<Frame> = Vec::new();
    while !seeds.is_empty() {
        let i = match &mut seed_rng {
            None => 0,
            Some(rng) => (splitmix64(rng) % seeds.len() as u64) as usize,
        };
        stack.push(seeds.remove(i));
        loop {
            let frame = match &mut frame_rng {
                Some(rng) if !stack.is_empty() => {
                    let i = (splitmix64(rng) % stack.len() as u64) as usize;
                    stack.swap_remove(i)
                }
                _ => match stack.pop() {
                    Some(frame) => frame,
                    None => break,
                },
            };
            // Cooperative cancellation, checked at each frame.
            if expired(opts.deadline) {
                return Err(Error::DeadlineExceeded);
            }
            // A continuation's scopes were counted with its frame.
            if frame.cont.is_none() {
                out.stats.work_items += frame.scopes.len() as u64;
            }
            expand(source, ctxs, &frame, &mut stack, &mut out)?;
            if let Some(limit) = limit {
                if out.resolve(source, limit, opts.deadline)? {
                    return Ok(out);
                }
            }
        }
    }
    Ok(out)
}

/// Fold the match loop's per-step actual counters into the plan rows.
fn absorb_steps(plans: &mut [SeqPlan], out: &MatchOut) {
    for (&(seq, qi), &(frames, nodes, pruned)) in &out.steps {
        let Some(plan) = plans.get_mut(seq as usize) else {
            continue;
        };
        if let Some(sp) = plan.steps.get_mut(qi as usize) {
            sp.actual_frames += frames;
            sp.actual_nodes += nodes;
        }
        if let Some(join) = &mut plan.semijoin {
            join.pruned += pruned;
        }
    }
}

/// Sort and merge overlapping or adjacent half-open intervals. The union of
/// covered labels is preserved exactly, so resolving the DocId postings once per
/// merged interval returns the same id set as once per raw scope.
fn coalesce(mut scopes: Vec<(u128, u128)>) -> Vec<(u128, u128)> {
    scopes.sort_unstable();
    let mut merged: Vec<(u128, u128)> = Vec::with_capacity(scopes.len());
    for (lo, hi) in scopes {
        match merged.last_mut() {
            Some((_, end)) if lo <= *end => *end = (*end).max(hi),
            _ => merged.push((lo, hi)),
        }
    }
    merged
}

/// The most scopes a frame carries. A sweep that finds more hits cuts them,
/// in label order, into several frames.
const FRAME_SCOPES: usize = 1024;

/// Partial matches that differ in nothing but their scope: element `qi` of
/// sequence `seq` must next match a node labeled strictly inside one of
/// `scopes` (ascending), under the wildcard bindings `binds`. `qi == len`
/// marks completed matches whose final scopes are `[lo, hi)`. A frame is
/// made whole by the sweep that found its scopes and never split
/// afterwards, so what expanding it costs does not depend on who does it.
#[derive(Debug, Clone)]
struct Frame {
    seq: u32,
    qi: u32,
    scopes: Vec<(u128, u128)>,
    binds: Option<Arc<BindNode>>,
    /// Set on a limited run's continuation: `scopes` are what a sweep of
    /// one candidate left when it stopped, to be swept for that candidate
    /// alone.
    cont: Option<Box<Continuation>>,
}

/// The candidate of a sweep that stopped at its piece of hits, and the
/// piece its continuation sweeps for.
#[derive(Debug, Clone)]
struct Continuation {
    dkid: u64,
    prefix: Vec<Symbol>,
    piece: usize,
}

/// How many scopes the frame that starts with the hit labeled `first` gets
/// when a sweep of `dkid` at element `qi` cuts its hits into frames:
/// [`FRAME_SCOPES`], or under a schedule seed a power of two drawn from the
/// seed and the sweep alone — never from scheduler state, so a seeded run
/// cuts the same frames whatever order it takes them in. The seed also decides the
/// largest power drawn, `2^(seed % 11)`: a seed that is a multiple of 11
/// runs with one scope a frame throughout, one partial match at a time, and
/// the others mix sizes up to 1024.
fn frame_scopes(seed: Option<u64>, qi: u32, dkid: u64, first: u128) -> usize {
    let Some(seed) = seed else {
        return FRAME_SCOPES;
    };
    let mut mixed = FxHasher::default();
    for word in [seed, qi.into(), dkid, first as u64, (first >> 64) as u64] {
        mixed.add(word);
    }
    1 << (splitmix64(&mut mixed.0) % (1 + seed % 11))
}

/// One splitmix64 step: the seeded pseudo-randomness of the schedule seed
/// (the frame sizes above and the picks of [`drive`]).
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Persistent (shared-tail) list of wildcard bindings: element `elem`
/// matched D-Ancestor entry `dkid`, instantiating its concrete root-to-self
/// `path`. Child frames extend the chain without copying it.
#[derive(Debug)]
struct BindNode {
    elem: u32,
    dkid: u64,
    /// Instantiated concrete path *including* the element's own tag symbol
    /// (what descendants splice in front of their placeholder steps).
    path: Vec<Symbol>,
    prev: Option<Arc<BindNode>>,
}

fn find_bind(binds: &Option<Arc<BindNode>>, elem: u32) -> Option<&BindNode> {
    let mut cur = binds.as_ref();
    while let Some(node) = cur {
        if node.elem == elem {
            return Some(node);
        }
        cur = node.prev.as_ref();
    }
    None
}

/// Cached D-Ancestor resolution for a concrete-prefix element: `None` =
/// key absent; `Some((prefix, dkey-id))` = present.
type ConcreteLookup = Option<(Vec<Symbol>, u64)>;

/// A wildcarded child element whose D-Ancestor key becomes fully concrete
/// once its parent's binding is known: all steps between parent and child
/// are tags. Probing that single key refutes whole subtrees.
struct ChildProbe {
    /// The child element's symbol.
    sym: Sym,
    /// Concrete tag steps between the parent element and the child.
    steps: Vec<Symbol>,
}

/// Per-sequence immutable context, read-only during the match.
pub(crate) struct SeqCtx<'a> {
    pub(crate) seq: &'a QuerySequence,
    /// For elements whose *pattern* prefix is fully concrete, the
    /// D-Ancestor lookup is independent of the bindings; resolved once per
    /// query. `None` for wildcarded prefixes (resolved per frame).
    pub(crate) concrete: Vec<Option<ConcreteLookup>>,
    /// `bind[qi]`: some later wildcarded element rebuilds its lookup prefix
    /// from `qi`'s instantiated path, so matches at `qi` must be recorded
    /// in the binding chain. (Fully concrete sequences bind nothing.)
    bind: Vec<bool>,
    /// `sig[qi]`: the positions `< qi` whose bindings any element `> qi`
    /// still consults — the part of the binding chain that can influence
    /// the subtree below a match at `qi`. Used as the dedup signature.
    sig: Vec<Vec<u32>>,
    /// `probe_children[qi]`: wildcarded children of `qi` reachable by
    /// concrete steps — the planner's look-ahead prune targets.
    probe_children: Vec<Vec<ChildProbe>>,
    /// Dedup is only worthwhile (and the visited sets only populated) when
    /// some prefix carries a wildcard: concrete-only sequences cannot reach
    /// one sub-problem twice.
    dedup: bool,
    /// The plan's label semi-join: a hit at a position before its element
    /// is kept only if its scope holds one of the element's labels.
    semijoin: Option<SemiJoin>,
}

impl<'a> SeqCtx<'a> {
    fn build(
        source: &dyn SearchSource,
        seq: &'a QuerySequence,
        stats: &mut QueryStats,
    ) -> Result<Self> {
        let n = seq.elems.len();
        let mut concrete: Vec<Option<ConcreteLookup>> = Vec::with_capacity(n);
        for qe in &seq.elems {
            if qe.prefix.has_wildcard() {
                concrete.push(None);
            } else {
                stats.dancestor_gets += 1;
                let syms = qe.prefix.as_concrete().expect("concrete prefix");
                let key = dkey::encode(qe.sym, &syms);
                concrete.push(Some(source.dkey_get(&key)?.map(|id| (syms, id))));
            }
        }
        let mut bind = vec![false; n];
        let mut probe_children: Vec<Vec<ChildProbe>> = (0..n).map(|_| Vec::new()).collect();
        for qe in &seq.elems {
            if qe.prefix.has_wildcard() {
                if let Some(p) = qe.parent {
                    bind[p] = true;
                    let tags: Option<Vec<Symbol>> = qe
                        .steps_after_parent
                        .iter()
                        .map(|s| match s {
                            PathSym::Tag(t) => Some(*t),
                            _ => None,
                        })
                        .collect();
                    if let Some(steps) = tags {
                        probe_children[p].push(ChildProbe { sym: qe.sym, steps });
                    }
                }
            }
        }
        let mut sig: Vec<Vec<u32>> = Vec::with_capacity(n);
        for qi in 0..n {
            let mut ps: Vec<u32> = seq
                .elems
                .iter()
                .enumerate()
                .skip(qi + 1)
                .filter(|(_, e)| e.prefix.has_wildcard())
                .filter_map(|(_, e)| e.parent)
                .filter(|&p| p < qi)
                .map(|p| p as u32)
                .collect();
            ps.sort_unstable();
            ps.dedup();
            sig.push(ps);
        }
        let dedup = seq.elems.iter().any(|e| e.prefix.has_wildcard());
        Ok(SeqCtx {
            seq,
            concrete,
            bind,
            sig,
            probe_children,
            dedup,
            semijoin: None,
        })
    }
}

/// Hasher of the match loop's dedup sets: rotate, xor, multiply per word
/// (the "Fx" scheme). The keys are labels and ids this index produced, not
/// caller-chosen strings, so SipHash's flood resistance buys nothing and
/// costs more than the set operation it protects.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    fn write_u128(&mut self, v: u128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply pushes entropy towards the high bits; the table
        // indexes with the low ones.
        self.0.rotate_left(26)
    }
}

type FxBuild = BuildHasherDefault<FxHasher>;

/// Buffers of one wildcard expansion, reused from frame to frame. `expand`
/// takes them out of the [`MatchOut`] while it hands candidates borrowed
/// from them to `descend`, and puts them back.
#[derive(Default)]
struct Expansion {
    /// The element's lookup pattern under the frame's bindings.
    pattern: Prefix,
    /// D-Ancestor exact key, or scan range `[lo, hi)`.
    lo: Vec<u8>,
    hi: Vec<u8>,
    /// Decoded prefix of the key under the cursor.
    syms: Vec<Symbol>,
    /// Prefixes of the matching candidates, concatenated.
    cand_syms: Vec<Symbol>,
    /// `(offset into cand_syms, prefix length, dkey-id)` per candidate.
    cands: Vec<(usize, usize, u64)>,
}

/// The match loop's mutable state and output.
#[derive(Default)]
struct MatchOut {
    /// Planner transforms enabled (candidate ordering, child probes).
    plan: bool,
    /// Collect per-step actual counters into `steps`.
    track: bool,
    /// [`SearchOptions::schedule_seed`], for [`frame_scopes`].
    seed: Option<u64>,
    /// The run's `limit`: sweeps stop after a piece of hits.
    limit: Option<usize>,
    stats: QueryStats,
    /// Final matched scopes.
    scopes: Vec<(u128, u128)>,
    /// `limit` runs only: the documents of `scopes[..resolved]`, the scopes
    /// already resolved, strictly ascending.
    docs: Vec<DocId>,
    resolved: usize,
    /// Binding signatures seen so far, interned: the dedup sets key on the
    /// id, so a node costs no signature clone. Id 0 is the empty signature.
    sigs: HashMap<Vec<u64>, u32, FxBuild>,
    /// Sub-problems already expanded: `(seq, qi, dkid, lo, hi, signature
    /// id)` — a repeat re-scans the same S-Ancestor window and re-derives
    /// the same subtree, so it is left out of the sweep.
    descended: HashSet<(u32, u32, u64, u128, u128, u32), FxBuild>,
    /// Nodes already pushed as child frames: `(seq, next qi, dkid, n,
    /// signature id)` — catches *overlapping* scope windows that both
    /// contain the same node.
    visited: HashSet<(u32, u32, u64, u128, u32), FxBuild>,
    /// Memoized child-probe D-Ancestor lookups (key present?).
    probed: HashMap<Vec<u8>, bool, FxBuild>,
    /// Per-`(seq, qi)` actual `(frames, nodes, semi-join prunes)` counts
    /// (`track` only).
    steps: HashMap<(u32, u32), (u64, u64, u64)>,
    expansion: Expansion,
    /// Scratch of `descend`: a binding signature, a child-probe path and
    /// its key, the scopes of a frame that are not repeats, a sweep's hits.
    sig_buf: Vec<u64>,
    path_buf: Vec<Symbol>,
    key_buf: Vec<u8>,
    fresh: Vec<(u128, u128)>,
    hits: Vec<(u128, u128)>,
}

impl MatchOut {
    fn new(opts: &SearchOptions, limit: Option<usize>) -> Self {
        MatchOut {
            plan: opts.plan,
            track: opts.collect_plan,
            seed: opts.schedule_seed,
            limit,
            ..MatchOut::default()
        }
    }

    /// The hits a sweep of `frame` collects before it stops: all of them in
    /// an unlimited run; under a limit the continuation's piece, or for a
    /// fresh frame the number of documents still wanted.
    fn piece(&self, frame: &Frame) -> usize {
        match (&frame.cont, self.limit) {
            (_, None) => usize::MAX,
            (Some(cont), _) => cont.piece,
            (None, Some(limit)) => limit.saturating_sub(self.docs.len()).max(1),
        }
    }

    /// The `limit` step of the match loop: resolve the scopes completed since
    /// the last call, one at a time and in expansion order (they are neither
    /// sorted nor disjoint), until `limit` distinct documents are in hand —
    /// the return value. The join stops at the id that makes `limit`; scopes
    /// past that point are dropped unresolved.
    fn resolve(
        &mut self,
        source: &dyn SearchSource,
        limit: usize,
        deadline: Option<Instant>,
    ) -> Result<bool> {
        while self.docs.len() < limit && self.resolved < self.scopes.len() {
            if expired(deadline) {
                return Err(Error::DeadlineExceeded);
            }
            let scope = &self.scopes[self.resolved..=self.resolved];
            self.resolved += 1;
            self.stats.docid_scans += 1;
            let docs = &mut self.docs;
            source.docids_in_scopes(scope, &mut |_, doc| {
                // A document has one DocId entry in a source, so an id is new
                // exactly when the sorted run lacks it (overlapping scopes
                // can hand it over twice).
                if let Err(at) = docs.binary_search(&doc) {
                    docs.insert(at, doc);
                }
                if docs.len() < limit {
                    ControlFlow::Continue(())
                } else {
                    ControlFlow::Break(())
                }
            })?;
        }
        self.scopes.truncate(self.resolved);
        Ok(self.docs.len() >= limit)
    }

    /// The interned id of the binding signature at `positions`: the dkids
    /// bound at the still-relevant earlier positions. Two frames agreeing
    /// on `(seq, qi, dkid, scope)` and this signature derive identical
    /// subtrees — a dkid determines its `(symbol, prefix)` pair, hence the
    /// instantiated path later lookups use.
    fn sig_id(&mut self, positions: &[u32], binds: &Option<Arc<BindNode>>) -> u32 {
        if positions.is_empty() {
            return 0;
        }
        self.sig_buf.clear();
        self.sig_buf.extend(
            positions
                .iter()
                .map(|&p| find_bind(binds, p).expect("relevant binding on chain").dkid),
        );
        if let Some(&id) = self.sigs.get(self.sig_buf.as_slice()) {
            return id;
        }
        let id = u32::try_from(self.sigs.len() + 1).expect("fewer than 2^32 signatures");
        self.sigs.insert(self.sig_buf.clone(), id);
        id
    }
}

/// Rebuild, into `out`, the lookup prefix for a wildcarded element from
/// its parent's instantiated concrete path plus the placeholder steps
/// between them.
fn lookup_prefix(qe: &QueryElem, binds: &Option<Arc<BindNode>>, out: &mut Prefix) {
    out.0.clear();
    if let Some(p) = qe.parent {
        // Invariant: a wildcarded element's parent is a bind target
        // (see `SeqCtx::bind`), so it is always on the chain.
        let node = find_bind(binds, p as u32).expect("parent binding on chain");
        out.0.extend(node.path.iter().map(|&s| PathSym::Tag(s)));
    }
    out.0.extend_from_slice(&qe.steps_after_parent);
}

/// Expand one frame: resolve the D-Ancestor candidates for its element —
/// once, whatever the number of scopes, which share the bindings the lookup
/// depends on — and sweep each candidate's S-Ancestor entries for all of
/// them, pushing the hits onto `push` as child frames. Completed matches
/// land in `out.scopes`.
fn expand(
    source: &dyn SearchSource,
    ctxs: &[SeqCtx<'_>],
    frame: &Frame,
    push: &mut Vec<Frame>,
    out: &mut MatchOut,
) -> Result<()> {
    let sc = &ctxs[frame.seq as usize];
    let qi = frame.qi as usize;
    if qi == sc.seq.elems.len() {
        out.scopes.extend_from_slice(&frame.scopes);
        return Ok(());
    }
    if let Some(cont) = &frame.cont {
        // Its scopes passed the dedup check and its candidate was found
        // when the frame they came from was expanded.
        let sig = sc.dedup.then(|| out.sig_id(&sc.sig[qi], &frame.binds));
        let cand = (cont.prefix.as_slice(), cont.dkid);
        return sweep(source, sc, frame, (&frame.scopes, sig), cand, push, out);
    }
    if out.track {
        out.steps.entry((frame.seq, frame.qi)).or_default().0 += frame.scopes.len() as u64;
    }
    match &sc.concrete[qi] {
        // Concrete prefix, present in the data: one candidate, pre-resolved.
        Some(Some((prefix_syms, dkid))) => {
            descend(source, sc, frame, (prefix_syms, *dkid), push, out)?;
        }
        // Concrete prefix, absent: dead branch.
        Some(None) => {}
        // Wildcarded prefix: rebuild the lookup pattern from the parent's
        // instantiated path, then exact-get or range-scan the D-Ancestor
        // tree.
        None => {
            let qe = &sc.seq.elems[qi];
            let mut x = std::mem::take(&mut out.expansion);
            lookup_prefix(qe, &frame.binds, &mut x.pattern);
            if dkey::query_into(qe.sym, &x.pattern.0, &mut x.lo, &mut x.hi) {
                let _span = vist_obs::Span::enter("dancestor_get");
                out.stats.dancestor_gets += 1;
                if let Some(id) = source.dkey_get(&x.lo)? {
                    dkey::decode_into(&x.lo, &mut x.syms);
                    descend(source, sc, frame, (&x.syms, id), push, out)?;
                }
            } else {
                out.stats.dancestor_scans += 1;
                x.cands.clear();
                x.cand_syms.clear();
                {
                    let _span = vist_obs::Span::enter("dancestor_scan");
                    let Expansion {
                        pattern,
                        lo,
                        hi,
                        syms,
                        cand_syms,
                        cands,
                    } = &mut x;
                    source.dkey_scan_range(lo, hi, &mut |key, id| {
                        dkey::decode_into(key, syms);
                        if pattern.matches(syms) {
                            cands.push((cand_syms.len(), syms.len(), id));
                            cand_syms.extend_from_slice(syms);
                        }
                        ControlFlow::Continue(())
                    })?;
                }
                if out.plan && x.cands.len() > 1 {
                    // Most-selective-first: cheap candidates emit their
                    // subtrees (and their prunes) before expensive
                    // ones. Stable, so ties keep key order.
                    x.cands.sort_by_cached_key(|c| est_nodes(source, c.2));
                }
                for &(at, len, id) in &x.cands {
                    descend(
                        source,
                        sc,
                        frame,
                        (&x.cand_syms[at..at + len], id),
                        push,
                        out,
                    )?;
                }
            }
            out.expansion = x;
        }
    }
    Ok(())
}

/// A D-Ancestor key that matched a frame's element: its decoded prefix and
/// its id.
type Candidate<'a> = (&'a [Symbol], u64);

/// One matched D-Ancestor key of a frame: leave out the scopes the run
/// already swept it for, then [`sweep`] the rest.
fn descend(
    source: &dyn SearchSource,
    sc: &SeqCtx<'_>,
    frame: &Frame,
    cand: Candidate<'_>,
    push: &mut Vec<Frame>,
    out: &mut MatchOut,
) -> Result<()> {
    out.stats.dkeys_matched += 1;
    let (qi, dkid) = (frame.qi, cand.1);
    let sig = sc
        .dedup
        .then(|| out.sig_id(&sc.sig[qi as usize], &frame.binds));
    let mut fresh = std::mem::take(&mut out.fresh);
    let scopes = match sig {
        // Identical sub-problem (same dkey, same scope window, same
        // relevant bindings) already expanded: same subtree, skip.
        Some(sig) => {
            fresh.clear();
            for &(lo, hi) in &frame.scopes {
                if out.descended.insert((frame.seq, qi, dkid, lo, hi, sig)) {
                    fresh.push((lo, hi));
                } else {
                    out.stats.dedup_skips += 1;
                }
            }
            fresh.as_slice()
        }
        None => frame.scopes.as_slice(),
    };
    let swept = if scopes.is_empty() {
        Ok(())
    } else {
        sweep(source, sc, frame, (scopes, sig), cand, push, out)
    };
    out.fresh = fresh;
    swept
}

/// Merge-join `scopes` (those of `frame` still to do, ascending; `sig` is
/// the frame's binding signature when its sequence dedups) against the
/// S-Ancestor entries of one matched D-Ancestor key in one forward pass,
/// then bind and push the hits as child frames, cut by [`frame_scopes`].
///
/// Under a limit the pass stops at its piece of hits ([`MatchOut::piece`])
/// and pushes a continuation beneath the child frames: the scopes past the
/// last hit — past its scope's end where nested hits collapse — to be
/// swept for this key alone, with twice the piece (at most
/// [`FRAME_SCOPES`]). A limit the hits never fill thus costs a logarithmic
/// number of extra sweeps.
fn sweep(
    source: &dyn SearchSource,
    sc: &SeqCtx<'_>,
    frame: &Frame,
    (scopes, sig): (&[(u128, u128)], Option<u32>),
    (prefix_syms, dkid): Candidate<'_>,
    push: &mut Vec<Frame>,
    out: &mut MatchOut,
) -> Result<()> {
    let (seq, qi) = (frame.seq, frame.qi);
    let qe = &sc.seq.elems[qi as usize];
    // A continuation's candidate passed this check when its frame ran.
    if out.plan && frame.cont.is_none() && !sc.probe_children[qi as usize].is_empty() {
        // Look-ahead prune: under this binding each wildcarded child
        // reachable by concrete steps has exactly one possible D-Ancestor
        // key; every element of the sequence must eventually match, so one
        // absent key proves the whole subtree dead before we pay for the
        // S-Ancestor sweep.
        out.path_buf.clear();
        out.path_buf.extend_from_slice(prefix_syms);
        if let Sym::Tag(t) = qe.sym {
            out.path_buf.push(t);
        }
        let base = out.path_buf.len();
        for probe in &sc.probe_children[qi as usize] {
            out.path_buf.truncate(base);
            out.path_buf.extend_from_slice(&probe.steps);
            dkey::encode_into(probe.sym, &out.path_buf, &mut out.key_buf);
            let present = match out.probed.get(out.key_buf.as_slice()) {
                Some(&b) => b,
                None => {
                    out.stats.planner_probes += 1;
                    let b = source.dkey_get(&out.key_buf)?.is_some();
                    out.probed.insert(out.key_buf.clone(), b);
                    b
                }
            };
            if !present {
                out.stats.planner_probe_prunes += scopes.len() as u64;
                return Ok(());
            }
        }
    }
    out.stats.sancestor_scans += 1;
    // Scopes of completed matches are the answer and all of them are kept.
    // Anywhere earlier, a hit whose scope lies inside one this sweep already
    // kept has the same bindings and a smaller window: everything found
    // below it is found below its container, so it is dropped.
    let collapse = qi as usize + 1 < sc.seq.elems.len();
    let mut kept_end = 0u128;
    // Positions before the semi-join's element keep only hits whose scope
    // holds one of its labels: the others cannot complete.
    let semijoin = sc.semijoin.as_ref().filter(|j| qi < j.qi);
    let piece = out.piece(frame);
    let track = out.track;
    let stats = &mut out.stats;
    let visited = &mut out.visited;
    let steps = &mut out.steps;
    let hits = &mut out.hits;
    hits.clear();
    {
        let _span = vist_obs::Span::enter("sancestor_scan");
        source.nodes_in_scopes(dkid, scopes, &mut |n, end| {
            stats.nodes_visited += 1;
            if track {
                steps.entry((seq, qi)).or_default().1 += 1;
            }
            if collapse {
                // Labels ascend, so a hit that ends no later than a kept one
                // lies inside it.
                if end <= kept_end {
                    stats.scopes_nested += 1;
                    return ControlFlow::Continue(());
                }
                kept_end = end;
            }
            // Hits nested in one dropped here are dropped above as nested:
            // a scope inside one without a label holds none either.
            if semijoin.is_some_and(|j| !j.meets(n, end)) {
                stats.semijoin_prunes += 1;
                if track {
                    steps.entry((seq, qi)).or_default().2 += 1;
                }
                return ControlFlow::Continue(());
            }
            if let Some(s) = sig {
                if !visited.insert((seq, qi + 1, dkid, n, s)) {
                    stats.dedup_skips += 1;
                    return ControlFlow::Continue(());
                }
            }
            hits.push((n, end));
            if hits.len() < piece {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            }
        })?;
    }
    let Some(&(last, last_end)) = hits.last() else {
        return Ok(());
    };
    // The stack pops its top first: the continuation goes beneath the
    // child frames, which may fill the limit without it.
    if hits.len() == piece {
        // Labels past `after` are left: the last hit's own descendants are
        // nested in it where hits collapse.
        let after = if collapse { last_end - 1 } else { last };
        let left: Vec<(u128, u128)> = scopes
            .iter()
            .filter(|s| s.1 > after + 1)
            .map(|&(lo, hi)| (lo.max(after), hi))
            .collect();
        if !left.is_empty() {
            push.push(Frame {
                seq,
                qi,
                scopes: left,
                binds: frame.binds.clone(),
                cont: Some(Box::new(Continuation {
                    dkid,
                    prefix: prefix_syms.to_vec(),
                    piece: piece.saturating_mul(2).min(FRAME_SCOPES).max(piece),
                })),
            });
        }
    }
    // Bind this element's instantiated path for descendant lookups — only
    // when some later wildcarded element will actually consult it.
    let binds = if sc.bind[qi as usize] {
        let mut path = prefix_syms.to_vec();
        if let Sym::Tag(t) = qe.sym {
            path.push(t);
        }
        Some(Arc::new(BindNode {
            elem: qi,
            dkid,
            path,
            prev: frame.binds.clone(),
        }))
    } else {
        frame.binds.clone()
    };
    // The stack pops its top first: push the frames back to front, so that
    // the lowest labels are expanded first.
    let first = push.len();
    let mut rest = hits.as_slice();
    while let Some(&(n, _)) = rest.first() {
        let (head, tail) = rest.split_at(frame_scopes(out.seed, qi, dkid, n).min(rest.len()));
        push.push(Frame {
            seq,
            qi: qi + 1,
            scopes: head.to_vec(),
            binds: binds.clone(),
            cont: None,
        });
        rest = tail;
    }
    push[first..].reverse();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_field_table_covers_every_counter_once() {
        // A `QueryStats` is nothing but `u64` counters, so the table is
        // complete exactly when it has one row per eight bytes.
        let mut s = QueryStats::default();
        let n = s.fields().len();
        assert_eq!(n * 8, std::mem::size_of::<QueryStats>());
        let names: HashSet<&str> = s.fields().iter().map(|f| f.0).collect();
        assert_eq!(names.len(), n, "duplicate counter name");
        s.work_items = 5;
        s.planner_probes = 2;
        s.io_pages_read = 7;
        let mut sum = s;
        sum.merge(&s);
        for ((name, one), (_, two)) in s.fields().into_iter().zip(sum.fields()) {
            assert_eq!(two, 2 * one, "{name}");
        }
        assert!(sum.fields().contains(&("io_pages_read", 14)));
    }
}
