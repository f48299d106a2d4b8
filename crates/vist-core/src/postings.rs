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
//! ([`Postings::merge`]). The ids a join yields come in label order, and
//! [`sort_distinct`] puts them in id order, without a comparison sort where
//! they are dense.

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
            at += gallop(&labels[at..], |n| n < lo);
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

/// The index of the first element of `rest` that is not `below` (`rest.len()`
/// when every one is), for a `below` that holds on a prefix of `rest`:
/// doubling steps until one fails it, then a binary search of the last step,
/// so a bound near the start costs a few comparisons. Every in-memory merge
/// join of sorted scopes goes through it: the postings column's and a
/// segment's S-Ancestor runs'.
pub(crate) fn gallop<T: Copy>(rest: &[T], below: impl Fn(T) -> bool) -> usize {
    let mut step = 1;
    while step <= rest.len() && below(rest[step - 1]) {
        step *= 2;
    }
    let from = step / 2;
    from + rest[from..step.min(rest.len())].partition_point(|&n| below(n))
}

/// Sort `ids` and drop repeats, without a comparison sort where they are
/// dense: when the span `max − min` is under 64 times their number, each id
/// sets a bit of a bitmap over `[min, max]` (no larger than `ids`), and the
/// set bits are read off in order. Sparser ids are sorted and deduplicated.
pub(crate) fn sort_distinct(ids: &mut Vec<DocId>) {
    let Some(&first) = ids.first() else {
        return;
    };
    let (min, max) = ids
        .iter()
        .fold((first, first), |(lo, hi), &id| (lo.min(id), hi.max(id)));
    let words = (max - min) / 64;
    if words >= ids.len() as u64 {
        ids.sort_unstable();
        ids.dedup();
        return;
    }
    let mut bits = vec![0u64; words as usize + 1];
    for &id in ids.iter() {
        let at = id - min;
        bits[(at / 64) as usize] |= 1 << (at % 64);
    }
    ids.clear();
    for (w, mut word) in bits.into_iter().enumerate() {
        // At most `max`: no id overflows.
        let base = min + 64 * w as u64;
        while word != 0 {
            ids.push(base + u64::from(word.trailing_zeros()));
            word &= word - 1;
        }
    }
}

/// A resolution of sorted scopes against a tier: scopes in, `(n, value)`
/// entries out until `f` breaks — a DocId resolution (`value` the document
/// id) or an S-Ancestor sweep of one key (`value` the scope's end).
#[cfg(test)]
pub(crate) type Resolve<'a, V> =
    &'a dyn Fn(&[(u128, u128)], &mut dyn FnMut(u128, V) -> ControlFlow<()>);

/// The resolutions a query can ask of a tier, put to `join` (an in-memory
/// merge join: the postings column, a segment's S-Ancestor runs) and to
/// `walk` (a multi-range cursor walk of the tree it was decoded from, what
/// the join replaced), which must yield the same entries in the same order:
/// no scopes, the whole label space, random sorted disjoint scopes with
/// empty ones among them, random nested and overlapping ones (visited as
/// their union), scopes past the last label, each of those stopped by `f`
/// after a few entries, and a `limit` run's single scopes, one a call, out
/// of order.
#[cfg(test)]
pub(crate) fn assert_joins_like_the_cursor<V: Copy + PartialEq + std::fmt::Debug>(
    join: Resolve<'_, V>,
    walk: Resolve<'_, V>,
    seed: u64,
) {
    let run = |side: Resolve<'_, V>, scopes: &[(u128, u128)], stop: usize| {
        let mut out = Vec::new();
        side(scopes, &mut |n, v| {
            out.push((n, v));
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
        // Pairs of bounds, sorted by their lower one: scopes that nest in
        // and overlap each other.
        let mut pairs: Vec<(u128, u128)> = (0..1 + rng(8))
            .map(|_| {
                let (a, b) = (near(&mut rng), near(&mut rng));
                (a.min(b), a.max(b) + rng(2) as u128)
            })
            .collect();
        pairs.sort_unstable();
        check(&pairs, usize::MAX);
        check(&pairs, 1 + rng(4));
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
                assert_eq!(gallop(&labels[from..], |n| n < lo), want, "{from} {lo}");
            }
        }
        assert_eq!(gallop::<u128>(&[], |n| n < 5), 0);
    }

    #[test]
    fn sort_distinct_sorts_and_dedups_dense_and_sparse_ids_alike() {
        let check = |ids: &[DocId]| {
            let mut want = ids.to_vec();
            want.sort_unstable();
            want.dedup();
            let mut got = ids.to_vec();
            sort_distinct(&mut got);
            assert_eq!(got, want, "{ids:?}");
        };
        check(&[]);
        check(&[7]);
        check(&[7, 7, 7]);
        // Dense: a bitmap of two words over 100 ids, repeats among them.
        let dense: Vec<DocId> = (0..100).map(|i| 1_000 + (i * 37) % 90).collect();
        check(&dense);
        // Sparse: 5 ids over a span of millions take the comparison sort.
        check(&[9_000_000, 3, 3, 4_500_000, 17]);
        // Either side of the rule for two ids: a span of 127 is a bitmap of
        // two words, one of 128 is sorted.
        check(&[128, 1]);
        check(&[129, 1]);
        // Near the top of the id space, dense and sparse.
        let top: Vec<DocId> = (0..300).map(|i| u64::MAX - (i * 7) % 200).collect();
        check(&top);
        check(&[u64::MAX, 0, u64::MAX, 1 << 40]);
        check(&[u64::MAX, u64::MAX - 63, u64::MAX - 64, u64::MAX]);
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
