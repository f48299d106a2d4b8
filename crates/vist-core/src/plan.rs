//! The plan stage of Algorithm 2: what the engine of [`crate::search`]
//! decides about each translated sequence, once a source, before matching.
//!
//! From cheap per-D-Ancestor statistics ([`crate::DkStats`]) and one
//! D-Ancestor probe per wildcard element, [`plan_sequence`] estimates every
//! element's candidate keys and S-Ancestor entries, proves a sequence empty
//! when some element can match nothing, and chooses the sequence's **label
//! semi-join**: the later element with the fewest estimated entries, whose
//! labels it collects once, sorted, so that the match loop can drop a
//! partial match whose scope holds none of them ([`SemiJoin`]).
//!
//! Every decision here only reorders work or removes work that provably
//! cannot complete, so answers are bit-identical with planning on or off.

use std::cmp::Reverse;
use std::ops::ControlFlow;

use vist_seq::dkey;

use crate::error::Result;
use crate::search::{QueryStats, SearchSource, SeqCtx};

/// Why the planner refused to seed a sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneReason {
    /// Element `qi`'s concrete-prefix D-Ancestor key is absent.
    EmptyConcrete {
        /// The element whose key is absent.
        qi: usize,
    },
    /// Element `qi`'s `*`/`//` D-Ancestor pattern probe matched nothing;
    /// the static pattern covers every runtime instantiation.
    EmptyWildcard {
        /// The element whose pattern probe came up empty.
        qi: usize,
    },
}

/// Per-element plan row: estimates from the statistics layer next to the
/// counters the match loop actually produced.
#[derive(Debug, Clone, Default)]
pub struct StepPlan {
    /// Element position in the sequence.
    pub qi: usize,
    /// Whether the element's prefix carries `*`/`//` (estimates come from
    /// a plan-time pattern probe instead of an exact lookup).
    pub wildcard: bool,
    /// D-Ancestor entries estimated to match the element.
    pub est_candidates: u64,
    /// S-Ancestor entries estimated under the matching keys.
    pub est_nodes: u64,
    /// Frames actually expanded at this element (collect_plan only).
    pub actual_frames: u64,
    /// S-Ancestor nodes actually visited at this element.
    pub actual_nodes: u64,
}

/// The label semi-join a sequence ran with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SemiJoinPlan {
    /// The element whose labels were collected.
    pub qi: usize,
    /// Labels collected: the S-Ancestor entries of the element's candidate
    /// keys.
    pub labels: u64,
    /// Partial matches dropped because their scope held none of the labels
    /// (collect_plan only).
    pub pruned: u64,
}

/// One sequence's plan.
#[derive(Debug, Clone)]
pub struct SeqPlan {
    /// Index in the caller's sequence list.
    pub index: usize,
    /// Execution rank after selectivity ordering (0 = seeded first).
    pub rank: usize,
    /// Set when the sequence was short-circuited and never seeded.
    pub pruned: Option<PruneReason>,
    /// Estimated node visits (sum of per-step `est_nodes`).
    pub est_cost: u64,
    /// Per-element rows, in sequence order.
    pub steps: Vec<StepPlan>,
    /// Set when the sequence matched with a label semi-join.
    pub semijoin: Option<SemiJoinPlan>,
}

/// What the planner decided for one source, collected when
/// [`crate::SearchOptions::collect_plan`] is set.
#[derive(Debug, Clone, Default)]
pub struct PlanReport {
    /// One entry per input sequence, in input order.
    pub seqs: Vec<SeqPlan>,
    /// Ranges put to the DocId tree (for `limit` runs, the scopes resolved
    /// as they completed); `None` when DocId resolution did not run
    /// ([`crate::SearchMode::Scopes`]).
    pub docid_ranges: Option<u64>,
}

/// The labels of element `qi`'s candidate S-Ancestor entries, sorted and
/// distinct. A match of any element before `qi` is kept only if its open
/// scope `(n, n+size)` holds one of them.
///
/// Sound because the engine matches element `k+1` strictly inside the
/// scope of element `k`'s match and scopes are laminar, so the label that
/// element `qi` eventually matches lies inside every earlier matched scope;
/// and the candidate keys of the element's static pattern are a superset of
/// the keys any binding can reach. A dropped partial match could never
/// complete.
#[derive(Debug)]
pub(crate) struct SemiJoin {
    pub(crate) qi: u32,
    labels: Vec<u128>,
}

impl SemiJoin {
    /// Whether some label lies strictly inside `(lo, hi)`: one binary
    /// search.
    #[inline]
    pub(crate) fn meets(&self, lo: u128, hi: u128) -> bool {
        let at = self.labels.partition_point(|&l| l <= lo);
        self.labels.get(at).is_some_and(|&l| l < hi)
    }
}

/// Estimated S-Ancestor entries under one D-Ancestor key; at least 1 so
/// candidate counting still orders sources without statistics.
pub(crate) fn est_nodes(source: &dyn SearchSource, dkid: u64) -> u64 {
    source.dkid_stats(dkid).map_or(1, |s| s.nodes.max(1))
}

/// Entries a plan-time pattern probe will scan before it stops trusting
/// (and stops refining) its estimate. A capped probe never prunes. It is
/// also the most labels a semi-join collects.
const PLAN_PROBE_CAP: u64 = 4096;

/// Build one sequence's plan: resolve estimates for every element and
/// decide whether the sequence can be short-circuited. Wildcard elements
/// are probed against their **static** pattern prefix, which covers every
/// runtime instantiation (any concrete prefix a frame can build from its
/// parent bindings matches the pattern), so an empty probe proves the
/// sequence dead.
///
/// With `semijoin` (an unlimited run) a live sequence also gets the label
/// semi-join of [`semijoin_position`], when that pays.
pub(crate) fn plan_sequence(
    source: &dyn SearchSource,
    ctx: &SeqCtx<'_>,
    index: usize,
    semijoin: bool,
    stats: &mut QueryStats,
) -> Result<(SeqPlan, Option<SemiJoin>)> {
    let mut steps: Vec<StepPlan> = Vec::with_capacity(ctx.seq.elems.len());
    // Every candidate key of each element's static pattern, `None` where
    // the probe was capped.
    let mut keys: Vec<Option<Vec<u64>>> = Vec::with_capacity(ctx.seq.elems.len());
    let mut pruned: Option<PruneReason> = None;
    let mut est_cost = 0u64;
    for (qi, qe) in ctx.seq.elems.iter().enumerate() {
        let mut sp = StepPlan {
            qi,
            ..StepPlan::default()
        };
        let mut ids: Option<Vec<u64>> = None;
        match &ctx.concrete[qi] {
            Some(Some((_, dkid))) => {
                sp.est_candidates = 1;
                sp.est_nodes = est_nodes(source, *dkid);
                ids = Some(vec![*dkid]);
            }
            Some(None) => {
                if pruned.is_none() {
                    pruned = Some(PruneReason::EmptyConcrete { qi });
                }
            }
            None => {
                sp.wildcard = true;
                stats.planner_probes += 1;
                match dkey::query_for(qe.sym, &qe.prefix) {
                    dkey::DKeyQuery::Exact(key) => {
                        if let Some(id) = source.dkey_get(&key)? {
                            sp.est_candidates = 1;
                            sp.est_nodes = est_nodes(source, id);
                            ids = Some(vec![id]);
                        }
                    }
                    dkey::DKeyQuery::Range { lo, hi, pattern } => {
                        let mut cands = 0u64;
                        let mut nodes = 0u64;
                        let mut scanned = 0u64;
                        let mut found: Vec<u64> = Vec::new();
                        source.dkey_scan_range(&lo, &hi, &mut |key, id| {
                            scanned += 1;
                            if scanned > PLAN_PROBE_CAP {
                                return ControlFlow::Break(());
                            }
                            let (_, prefix_syms) = dkey::decode(key);
                            if pattern.matches(&prefix_syms) {
                                cands += 1;
                                nodes = nodes.saturating_add(est_nodes(source, id));
                                found.push(id);
                            }
                            ControlFlow::Continue(())
                        })?;
                        if scanned > PLAN_PROBE_CAP {
                            // Capped probe: treat the estimate as a floor
                            // and never prune on it.
                            cands = cands.max(1);
                            nodes = nodes.max(scanned);
                        } else {
                            ids = Some(found);
                        }
                        sp.est_candidates = cands;
                        sp.est_nodes = nodes;
                    }
                }
                if sp.est_candidates == 0 && pruned.is_none() {
                    pruned = Some(PruneReason::EmptyWildcard { qi });
                }
            }
        }
        est_cost = est_cost.saturating_add(sp.est_nodes);
        steps.push(sp);
        keys.push(ids);
    }
    if pruned.is_some() {
        stats.planner_seqs_pruned += 1;
    }
    let mut join = None;
    if semijoin && pruned.is_none() {
        if let Some(qi) = semijoin_position(&steps) {
            if let Some(ids) = &keys[qi] {
                join = collect_labels(source, ids)?.map(|labels| SemiJoin {
                    qi: qi as u32,
                    labels,
                });
            }
        }
    }
    let semijoin = join.as_ref().map(|j| {
        stats.semijoin_labels += j.labels.len() as u64;
        SemiJoinPlan {
            qi: j.qi as usize,
            labels: j.labels.len() as u64,
            pruned: 0,
        }
    });
    let plan = SeqPlan {
        index,
        rank: usize::MAX,
        pruned,
        est_cost,
        steps,
        semijoin,
    };
    Ok((plan, join))
}

/// The element a label semi-join collects: of the elements after the
/// first, the one with the fewest estimated S-Ancestor entries (the later
/// one on a tie: it constrains more positions) — if there are at most
/// [`PLAN_PROBE_CAP`] of them and fewer than the partial matches the
/// semi-join is estimated to remove. Collecting reads the element's
/// entries once. At a position `k` between the first element and it, of
/// the partial matches (up to `k`'s entries) at most as many as there are
/// labels can hold one — a sweep keeps disjoint scopes — so at least the
/// difference goes, and with it the work below each.
fn semijoin_position(steps: &[StepPlan]) -> Option<usize> {
    let qi = (1..steps.len()).min_by_key(|&qi| (steps[qi].est_nodes, Reverse(qi)))?;
    let labels = steps[qi].est_nodes;
    let removable = steps[1..qi].iter().fold(0u64, |sum, s| {
        sum.saturating_add(s.est_nodes.saturating_sub(labels))
    });
    (labels <= PLAN_PROBE_CAP && labels < removable).then_some(qi)
}

/// The labels of every S-Ancestor entry of the keys `ids`, sorted and
/// distinct: one pass over each key's entries. `None` once they number
/// more than [`PLAN_PROBE_CAP`] (statistics that undercount).
fn collect_labels(source: &dyn SearchSource, ids: &[u64]) -> Result<Option<Vec<u128>>> {
    let mut labels: Vec<u128> = Vec::new();
    for &id in ids {
        let mut over = false;
        source.nodes_in_scopes(id, &[(0, vist_seq::MAX_SCOPE)], &mut |n, _| {
            if labels.len() as u64 == PLAN_PROBE_CAP {
                over = true;
                return ControlFlow::Break(());
            }
            labels.push(n);
            ControlFlow::Continue(())
        })?;
        if over {
            return Ok(None);
        }
    }
    labels.sort_unstable();
    labels.dedup();
    Ok(Some(labels))
}

/// The no-planning stand-in for [`plan_sequence`]: no probes, no pruning,
/// input order. Step rows exist only when a plan report was requested, so
/// actual counters still have somewhere to land.
pub(crate) fn skeleton_plan(ctx: &SeqCtx<'_>, index: usize, with_steps: bool) -> SeqPlan {
    let steps = if with_steps {
        ctx.seq
            .elems
            .iter()
            .enumerate()
            .map(|(qi, qe)| StepPlan {
                qi,
                wildcard: qe.prefix.has_wildcard(),
                ..StepPlan::default()
            })
            .collect()
    } else {
        Vec::new()
    };
    SeqPlan {
        index,
        rank: index,
        pruned: None,
        est_cost: 0,
        steps,
        semijoin: None,
    }
}
