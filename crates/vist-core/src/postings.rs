//! The postings column of a tier: the `(n, doc)` entries of its DocId tree,
//! decoded once at open and held in memory as a label column and a doc
//! column, ordered by `(n, doc)`.
//!
//! The paper ends every match with "a range query `[n, n+size)` on the
//! DocId B+Tree". Here the tree is the durable copy, read only when the tier
//! opens (and by `vist check`): a query's DocId stage is a galloping merge
//! join of its sorted scopes against the label column ([`Postings::join`]),
//! and it fetches no page. A segment's column never changes; the delta's
//! takes the postings of a batch in one sorted merge when the batch ends
//! ([`Postings::merge`]).

use std::ops::ControlFlow;

use crate::store::DocId;

/// A tier's DocId entries, sorted by `(n, doc)`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(crate) struct Postings {
    labels: Vec<u128>,
    docs: Vec<DocId>,
}

impl Postings {
    /// Append an entry met by a key-order walk of a DocId tree, whose key
    /// order is `(n, doc)` order.
    pub(crate) fn push(&mut self, n: u128, doc: DocId) {
        self.labels.push(n);
        self.docs.push(doc);
    }

    /// Merge `batch` into the column, sorting it first, and leave it empty:
    /// one backward pass over the grown column, moving each entry once.
    pub(crate) fn merge(&mut self, batch: &mut Vec<(u128, DocId)>) {
        batch.sort_unstable();
        let (mut old, mut new) = (self.labels.len(), batch.len());
        self.labels.resize(old + new, 0);
        self.docs.resize(old + new, 0);
        while new > 0 {
            let at = old + new - 1;
            let held = old.checked_sub(1).map(|i| (self.labels[i], self.docs[i]));
            let (n, doc) = match held {
                Some(entry) if entry > batch[new - 1] => {
                    old -= 1;
                    entry
                }
                _ => {
                    new -= 1;
                    batch[new]
                }
            };
            self.labels[at] = n;
            self.docs[at] = doc;
        }
        batch.clear();
    }

    /// Release the capacity a load by [`Postings::push`] left over.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.labels.shrink_to_fit();
        self.docs.shrink_to_fit();
    }

    /// Bytes of memory the two columns hold.
    pub(crate) fn heap_bytes(&self) -> u64 {
        let bytes = self.labels.capacity() * std::mem::size_of::<u128>()
            + self.docs.capacity() * std::mem::size_of::<DocId>();
        bytes as u64
    }

    /// The entries whose label lies in one of `scopes` — `[lo, hi)` ranges
    /// sorted by `lo`, overlapping ones visited as their union — in
    /// `(n, doc)` order, each once, until `f` breaks. The position only moves
    /// forward: each scope gallops from where the one before stopped.
    pub(crate) fn join(
        &self,
        scopes: &[(u128, u128)],
        f: &mut dyn FnMut(u128, DocId) -> ControlFlow<()>,
    ) {
        let labels = &self.labels[..];
        let mut at = 0;
        for &(lo, hi) in scopes {
            at += gallop(&labels[at..], lo);
            while let Some(&n) = labels.get(at).filter(|&&n| n < hi) {
                if f(n, self.docs[at]).is_break() {
                    return;
                }
                at += 1;
            }
        }
    }

    /// Where `fresh`, a new walk of the tier's DocId tree, first differs from
    /// this column, described; `None` when the two are equal.
    pub(crate) fn mismatch(&self, fresh: &Postings) -> Option<String> {
        let held = self.labels.iter().zip(&self.docs);
        let walked = fresh.labels.iter().zip(&fresh.docs);
        let first = held.zip(walked).position(|(a, b)| a != b);
        let at = match first {
            Some(at) => at,
            None if self.labels.len() == fresh.labels.len() => return None,
            None => self.labels.len().min(fresh.labels.len()),
        };
        let entry = |p: &Postings| {
            p.labels
                .get(at)
                .map_or("nothing".to_string(), |n| format!("({n}, {})", p.docs[at]))
        };
        Some(format!(
            "the column holds {} entries and the DocId tree {}; entry {at} is {} in the column \
             and {} in the tree",
            self.labels.len(),
            fresh.labels.len(),
            entry(self),
            entry(fresh),
        ))
    }
}

/// The index of the first label of `rest` not below `lo` (`rest.len()` when
/// none is): doubling steps until one passes `lo`, then a binary search of
/// the last step, so a scope near the position costs a few comparisons.
fn gallop(rest: &[u128], lo: u128) -> usize {
    let mut step = 1;
    while step <= rest.len() && rest[step - 1] < lo {
        step *= 2;
    }
    let from = step / 2;
    from + rest[from..step.min(rest.len())].partition_point(|&n| n < lo)
}

/// A DocId resolution: scopes in, `(n, doc)` entries out until `f` breaks.
#[cfg(test)]
pub(crate) type Resolve<'a> =
    &'a dyn Fn(&[(u128, u128)], &mut dyn FnMut(u128, DocId) -> ControlFlow<()>);

/// The DocId resolutions a query can ask of a tier, put to `join` (the
/// tier's `docids_in_scopes`) and to `walk` (a multi-range cursor walk of its
/// DocId tree, what the column replaced), which must yield the same entries
/// in the same order: no scopes, the whole label space, random sorted
/// disjoint scopes with empty ones among them, scopes past the last label,
/// each of those stopped by `f` after a few entries, and a `limit` run's
/// single scopes, one a call, out of order.
#[cfg(test)]
pub(crate) fn assert_joins_like_the_cursor(join: Resolve<'_>, walk: Resolve<'_>, seed: u64) {
    let run = |side: Resolve<'_>, scopes: &[(u128, u128)], stop: usize| {
        let mut out = Vec::new();
        side(scopes, &mut |n, doc| {
            out.push((n, doc));
            if out.len() < stop {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            }
        });
        out
    };
    let check = |scopes: &[(u128, u128)], stop: usize| {
        let (got, want) = (run(join, scopes, stop), run(walk, scopes, stop));
        assert_eq!(got, want, "seed {seed}, stop {stop}: {scopes:?}");
    };
    let all = run(walk, &[(0, vist_seq::MAX_SCOPE)], usize::MAX);
    let mut labels: Vec<u128> = all.iter().map(|p| p.0).collect();
    labels.dedup();
    check(&[], usize::MAX);
    check(&[(0, vist_seq::MAX_SCOPE)], usize::MAX);
    let top = labels.last().map_or(0, |&n| n + 1);
    check(
        &[(top, top + 1), (top + 5, vist_seq::MAX_SCOPE)],
        usize::MAX,
    );
    let mut x = seed | 1;
    let mut rng = |below: usize| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % below.max(1) as u64) as usize
    };
    // A bound near a label: on it, one below or one above.
    let near = |rng: &mut dyn FnMut(usize) -> usize| match labels.len() {
        0 => rng(50) as u128,
        len => (labels[rng(len)] + 1).saturating_sub(rng(3) as u128),
    };
    for _ in 0..48 {
        let mut bounds: Vec<u128> = (0..2 * (1 + rng(12))).map(|_| near(&mut rng)).collect();
        if rng(4) == 0 {
            bounds.push(top + rng(3) as u128);
            bounds.push(vist_seq::MAX_SCOPE);
        }
        bounds.sort_unstable();
        // Equal neighbours make empty scopes; `chunks` keeps them disjoint.
        let scopes: Vec<(u128, u128)> = bounds.chunks_exact(2).map(|b| (b[0], b[1])).collect();
        check(&scopes, usize::MAX);
        check(&scopes, 1 + rng(4));
        let mut shuffled = scopes.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng(i + 1));
        }
        for scope in &shuffled {
            check(std::slice::from_ref(scope), usize::MAX);
            check(std::slice::from_ref(scope), 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column(entries: &[(u128, DocId)]) -> Postings {
        let mut p = Postings::default();
        for &(n, doc) in entries {
            p.push(n, doc);
        }
        p
    }

    fn joined(p: &Postings, scopes: &[(u128, u128)]) -> Vec<(u128, DocId)> {
        let mut out = Vec::new();
        p.join(scopes, &mut |n, doc| {
            out.push((n, doc));
            ControlFlow::Continue(())
        });
        out
    }

    #[test]
    fn gallop_finds_the_first_label_not_below() {
        let labels: Vec<u128> = (0..100).map(|i| 3 * i).collect();
        for from in [0, 1, 7, 64, 99, 100] {
            for lo in 0..310 {
                let want = labels[from..].iter().take_while(|&&n| n < lo).count();
                assert_eq!(gallop(&labels[from..], lo), want, "{from} {lo}");
            }
        }
        assert_eq!(gallop(&[], 5), 0);
    }

    #[test]
    fn a_join_visits_overlapping_scopes_as_their_union_and_stops_on_break() {
        let p = column(&[(1, 0), (5, 2), (5, 7), (9, 1), (12, 3)]);
        assert_eq!(joined(&p, &[]), vec![]);
        assert_eq!(joined(&p, &[(5, 6)]), vec![(5, 2), (5, 7)]);
        assert_eq!(joined(&p, &[(0, 10), (4, 13)]).len(), 5);
        assert_eq!(joined(&p, &[(2, 5), (13, 20)]), vec![]);
        let mut seen = 0;
        p.join(&[(0, 100)], &mut |_, _| {
            seen += 1;
            if seen == 2 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(seen, 2);
    }

    #[test]
    fn a_merge_keeps_the_column_sorted_and_empties_the_batch() {
        let mut p = column(&[(2, 0), (4, 1), (8, 2)]);
        let mut batch = vec![(9, 5), (1, 3), (4, 0), (4, 9)];
        p.merge(&mut batch);
        assert!(batch.is_empty());
        let want = [(1, 3), (2, 0), (4, 0), (4, 1), (4, 9), (8, 2), (9, 5)];
        assert_eq!(p, column(&want));
        p.merge(&mut Vec::new());
        assert_eq!(p, column(&want));
        let mut empty = Postings::default();
        empty.merge(&mut vec![(3, 1), (0, 2)]);
        assert_eq!(empty, column(&[(0, 2), (3, 1)]));
    }

    #[test]
    fn a_mismatch_names_the_first_difference() {
        let p = column(&[(1, 0), (5, 2), (9, 1)]);
        assert_eq!(p.mismatch(&p.clone()), None);
        let short = column(&[(1, 0), (9, 1)]);
        let msg = p.mismatch(&short).unwrap();
        assert!(
            msg.contains("entry 1 is (5, 2) in the column and (9, 1)"),
            "{msg}"
        );
        let msg = short.mismatch(&p).unwrap();
        assert!(
            msg.contains("holds 2 entries and the DocId tree 3"),
            "{msg}"
        );
        let msg = column(&[(1, 0)])
            .mismatch(&column(&[(1, 0), (2, 4)]))
            .unwrap();
        assert!(
            msg.contains("entry 1 is nothing in the column and (2, 4)"),
            "{msg}"
        );
    }
}
