//! Dynamic top-down scope allocation (paper §3.4.1, Algorithm 3).
//!
//! Each virtual-suffix-tree node owns a scope `[n, n+size)`; label `n` is the
//! node itself and children are carved out of the remainder. The paper gives
//! two schemes:
//!
//! * **without clues** (Eq 5–6): the k-th inserted child receives `1/λ` of
//!   the *remaining* scope — `s_k = (r−l−1)(λ−1)^{k−1}/λ^k`. Our allocator
//!   keeps a `next` cursor per node, so `s_k = available / λ` reproduces the
//!   same geometric series with O(1) state and integer arithmetic.
//! * **with clues** (Eq 2–4): a child whose symbol is likely to recur (high
//!   `P_x(y_i)`) receives a proportionally larger subscope. We keep the
//!   cursor formulation and let the probability replace `1/λ`:
//!   `s = available · clamp(P(child | parent), 1/λ_max, 1/λ_min)`. This
//!   preserves the paper's intent (probability-proportional allocation)
//!   while remaining O(1) per allocation; the deviation is documented in
//!   DESIGN.md.
//!
//! A third, default refinement (`adaptive`) grows the divisor with `k`
//! (`λ + k` instead of `λ`), because a fixed λ exhausts the scope after
//! roughly 128·log₂λ⁻¹ children of one hot node (e.g. a million distinct
//! author values under one element) — the *scope underflow* the paper
//! describes. Underflow is handled as in the paper: borrow the remaining
//! labels from the nearest ancestor with spare scope and label the tail of
//! the sequence sequentially.

use std::collections::HashMap;
use std::fmt;

use vist_seq::{Sequence, Sym};

use crate::store::NodeState;

/// Which allocation scheme an index uses.
#[derive(Debug, Clone)]
pub enum AllocatorKind {
    /// Geometric `1/λ` allocation (paper Eq 5–6), optionally adaptive.
    NoClues,
    /// Probability-guided allocation from a [`StatsModel`] (paper Eq 2–4).
    WithClues(StatsModel),
}

/// First-order statistics over structure-encoded sequences: how often each
/// symbol follows each symbol. This is the paper's "semantic and statistical
/// clues" source, collectable from a sample or during data generation
/// ("we collect statistics during data generation for dynamic labeling").
#[derive(Debug, Clone, Default)]
pub struct StatsModel {
    /// `(current symbol → (next symbol → probability))`.
    transitions: HashMap<Sym, HashMap<Sym, f64>>,
}

impl StatsModel {
    /// Build a model by counting symbol transitions in sample sequences.
    #[must_use]
    pub fn from_sequences<'a>(seqs: impl IntoIterator<Item = &'a Sequence>) -> Self {
        let mut counts: HashMap<Sym, HashMap<Sym, u64>> = HashMap::new();
        for seq in seqs {
            for pair in seq.0.windows(2) {
                *counts
                    .entry(pair[0].sym)
                    .or_default()
                    .entry(pair[1].sym)
                    .or_default() += 1;
            }
        }
        let mut transitions = HashMap::new();
        for (cur, nexts) in counts {
            let total: u64 = nexts.values().sum();
            let probs = nexts
                .into_iter()
                .map(|(s, c)| (s, c as f64 / total as f64))
                .collect();
            transitions.insert(cur, probs);
        }
        StatsModel { transitions }
    }

    /// `P(next | cur)`, or `None` when the transition was never observed.
    #[must_use]
    pub fn probability(&self, cur: Sym, next: Sym) -> Option<f64> {
        self.transitions.get(&cur)?.get(&next).copied()
    }

    /// Number of distinct context symbols.
    #[must_use]
    pub fn contexts(&self) -> usize {
        self.transitions.len()
    }

    /// Flatten to `(current, next, probability)` triples (persistence).
    #[must_use]
    pub fn to_triples(&self) -> Vec<(Sym, Sym, f64)> {
        let mut out = Vec::new();
        for (cur, nexts) in &self.transitions {
            for (next, p) in nexts {
                out.push((*cur, *next, *p));
            }
        }
        out
    }

    /// Rebuild from `(current, next, probability)` triples.
    #[must_use]
    pub fn from_triples(triples: impl IntoIterator<Item = (Sym, Sym, f64)>) -> Self {
        let mut transitions: HashMap<Sym, HashMap<Sym, f64>> = HashMap::new();
        for (cur, next, p) in triples {
            transitions.entry(cur).or_default().insert(next, p);
        }
        StatsModel { transitions }
    }

    /// `true` when the model has no transitions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }
}

/// A deliberately injected allocation bug, used by the `vist-sim`
/// deterministic simulation harness to validate itself: a harness that
/// cannot catch a known-planted scope bug cannot be trusted to catch an
/// accidental one. Never enabled outside tests and `vist sim --mutate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimMutation {
    /// No injected fault (the only value production code ever sees).
    #[default]
    None,
    /// Child scopes are handed out one label too large, so a node's scope
    /// overhangs into its next sibling's range. S-Ancestor containment is
    /// then wrong by construction: range queries inside the inflated scope
    /// pick up the sibling's subtree, producing false matches that the
    /// naive-oracle diff in `vist-sim` must flag.
    ScopeOffByOne,
}

impl std::str::FromStr for SimMutation {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match s {
            "none" => Ok(SimMutation::None),
            "scope-off-by-one" => Ok(SimMutation::ScopeOffByOne),
            other => Err(format!(
                "unknown mutation '{other}' (expected none or scope-off-by-one)"
            )),
        }
    }
}

impl fmt::Display for SimMutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimMutation::None => write!(f, "none"),
            SimMutation::ScopeOffByOne => write!(f, "scope-off-by-one"),
        }
    }
}

/// Stateless scope-allocation policy. The mutable allocation *state* (the
/// cursor) lives in each node's [`NodeState`]; the policy only decides sizes.
#[derive(Debug, Clone)]
pub struct ScopeAllocator {
    /// The λ parameter (expected fan-out) for the no-clues scheme.
    pub lambda: u64,
    /// Grow the divisor with the child count (`λ + k`), preventing hot-node
    /// exhaustion. On by default; the ablation bench compares.
    pub adaptive: bool,
    /// Allocation scheme.
    pub kind: AllocatorKind,
    /// Test-only injected fault (see [`SimMutation`]).
    pub mutation: SimMutation,
}

/// Result of a child-scope allocation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Allocation {
    /// A child scope `[n, n+size)` was carved out; the parent state was
    /// advanced. `tight` is set when the geometric share was smaller than
    /// `min_size` and the allocation was bumped — the sound, within-parent
    /// flavour of the paper's scope underflow.
    Child {
        /// The new child's scope and cursor.
        state: NodeState,
        /// Whether the scope had to be bumped to `min_size`.
        tight: bool,
    },
    /// The parent cannot supply even `min_size` labels — the caller must run
    /// the underflow protocol (borrow from an ancestor).
    Underflow,
}

impl ScopeAllocator {
    /// New allocator with the given λ.
    #[must_use]
    pub fn new(lambda: u64, adaptive: bool, kind: AllocatorKind) -> Self {
        ScopeAllocator {
            lambda: lambda.max(2),
            adaptive,
            kind,
            mutation: SimMutation::None,
        }
    }

    /// Allocate a subscope inside `parent` for a child whose symbol is
    /// `child_sym`, arriving under a node with symbol `parent_sym` (the
    /// paper's Algorithm 3 `subScope(parent, e)`).
    ///
    /// `min_size` is the smallest acceptable scope (1 for a guaranteed leaf,
    /// larger when the remaining sequence must nest below the child).
    pub fn allocate(
        &self,
        parent: &mut NodeState,
        parent_sym: Option<Sym>,
        child_sym: Sym,
        min_size: u128,
    ) -> Allocation {
        let available = parent.available();
        if available < min_size {
            return Allocation::Underflow;
        }
        let mut tight = false;
        let mut size = match &self.kind {
            AllocatorKind::NoClues => {
                let divisor = self.divisor(parent.k);
                available / u128::from(divisor)
            }
            AllocatorKind::WithClues(stats) => {
                let p = parent_sym
                    .and_then(|ps| stats.probability(ps, child_sym))
                    .unwrap_or(1.0 / self.lambda as f64);
                // Clamp: never more than half the remainder, never less than
                // an adaptive geometric share.
                let p = p.clamp(1e-9, 0.5);
                let geometric = available / u128::from(self.divisor(parent.k));
                let scaled = ((available as f64) * p) as u128;
                scaled.max(geometric).max(1)
            }
        };
        if size < min_size {
            // The paper's within-parent underflow: the tail still fits, so
            // take exactly what is needed.
            size = min_size;
            tight = true;
        }
        if size > available {
            return Allocation::Underflow;
        }
        let claimed = match self.mutation {
            SimMutation::None => size,
            // The planted bug: the child *claims* one label more than the
            // parent's cursor advances by, so the next sibling's label will
            // fall inside this child's scope.
            SimMutation::ScopeOffByOne => size + 1,
        };
        let state = NodeState {
            n: parent.next,
            size: claimed,
            next: parent.next + 1,
            k: 0,
        };
        parent.next += size;
        parent.k += 1;
        Allocation::Child { state, tight }
    }

    fn divisor(&self, k: u64) -> u64 {
        if self.adaptive {
            self.lambda.saturating_add(k).max(2)
        } else {
            self.lambda
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vist_seq::{Symbol, MAX_SCOPE};

    fn root() -> NodeState {
        NodeState {
            n: 0,
            size: MAX_SCOPE,
            next: 1,
            k: 0,
        }
    }

    fn tag(i: u32) -> Sym {
        Sym::Tag(Symbol(i))
    }

    #[test]
    fn children_are_nested_and_disjoint() {
        let alloc = ScopeAllocator::new(2, false, AllocatorKind::NoClues);
        let mut parent = root();
        let mut prev_end = 1u128;
        for i in 0..50 {
            let Allocation::Child { state: c, .. } = alloc.allocate(&mut parent, None, tag(i), 2)
            else {
                panic!("unexpected underflow at child {i}");
            };
            assert!(c.n >= prev_end, "child {i} overlaps predecessor");
            assert!(c.n + c.size <= parent.end(), "child {i} overhangs parent");
            assert!(c.size >= 2);
            prev_end = c.n + c.size;
        }
        assert_eq!(parent.k, 50);
    }

    #[test]
    fn geometric_series_matches_paper_eq5() {
        // With λ=2 and no adaptivity, child k gets 1/2 of the remainder:
        // sizes available/2, available/4, ... (paper Figure 8).
        let alloc = ScopeAllocator::new(2, false, AllocatorKind::NoClues);
        let mut parent = NodeState {
            n: 0,
            size: 1025,
            next: 1,
            k: 0,
        };
        let sizes: Vec<u128> = (0..5)
            .map(|i| match alloc.allocate(&mut parent, None, tag(i), 1) {
                Allocation::Child { state, .. } => state.size,
                Allocation::Underflow => panic!(),
            })
            .collect();
        assert_eq!(sizes, vec![512, 256, 128, 64, 32]);
    }

    #[test]
    fn fixed_lambda_exhausts_hot_node_adaptive_does_not() {
        let fixed = ScopeAllocator::new(2, false, AllocatorKind::NoClues);
        let mut p = root();
        let mut fixed_children = 0u32;
        for i in 0..100_000 {
            match fixed.allocate(&mut p, None, tag(i), 2) {
                Allocation::Child { tight: false, .. } => fixed_children += 1,
                _ => break,
            }
        }
        assert!(
            fixed_children < 300,
            "λ=2 must exhaust quickly: {fixed_children}"
        );

        let adaptive = ScopeAllocator::new(2, true, AllocatorKind::NoClues);
        let mut p = root();
        for i in 0..100_000u32 {
            match adaptive.allocate(&mut p, None, tag(i), 2) {
                Allocation::Child { .. } => {}
                Allocation::Underflow => panic!("adaptive underflowed at {i}"),
            }
        }
    }

    #[test]
    fn underflow_when_parent_tiny() {
        let alloc = ScopeAllocator::new(2, true, AllocatorKind::NoClues);
        let mut tiny = NodeState {
            n: 10,
            size: 3,
            next: 11,
            k: 0,
        };
        // available = 2: a min_size 5 allocation must underflow.
        assert_eq!(
            alloc.allocate(&mut tiny, None, tag(0), 5),
            Allocation::Underflow
        );
        // min_size 2 fits exactly (a tight, within-parent underflow).
        match alloc.allocate(&mut tiny, None, tag(0), 2) {
            Allocation::Child { state, tight } => {
                assert_eq!(state.n, 11);
                assert_eq!(state.size, 2);
                assert!(tight);
            }
            Allocation::Underflow => panic!(),
        }
        // Nothing left now.
        assert_eq!(
            alloc.allocate(&mut tiny, None, tag(1), 1),
            Allocation::Underflow
        );
    }

    #[test]
    fn with_clues_gives_probable_children_bigger_scopes() {
        let mut seqs = Vec::new();
        // Symbol 1 is followed by symbol 2 90% of the time, symbol 3 10%.
        use vist_seq::{Prefix, SeqElem};
        let mk = |syms: &[u32]| {
            Sequence(
                syms.iter()
                    .map(|&s| SeqElem {
                        sym: tag(s),
                        prefix: Prefix::empty(),
                    })
                    .collect(),
            )
        };
        for _ in 0..9 {
            seqs.push(mk(&[1, 2]));
        }
        seqs.push(mk(&[1, 3]));
        let stats = StatsModel::from_sequences(&seqs);
        assert!((stats.probability(tag(1), tag(2)).unwrap() - 0.9).abs() < 1e-9);

        let alloc = ScopeAllocator::new(16, true, AllocatorKind::WithClues(stats));
        let mut p1 = root();
        let big = match alloc.allocate(&mut p1, Some(tag(1)), tag(2), 2) {
            Allocation::Child { state, .. } => state.size,
            Allocation::Underflow => panic!(),
        };
        let mut p2 = root();
        let small = match alloc.allocate(&mut p2, Some(tag(1)), tag(3), 2) {
            Allocation::Child { state, .. } => state.size,
            Allocation::Underflow => panic!(),
        };
        assert!(
            big > small * 2,
            "p=0.9 child ({big}) should dwarf p=0.1 child ({small})"
        );
    }

    #[test]
    fn stats_model_unknown_transitions() {
        let stats = StatsModel::from_sequences(&[]);
        assert_eq!(stats.probability(tag(1), tag(2)), None);
        assert_eq!(stats.contexts(), 0);
    }
}
