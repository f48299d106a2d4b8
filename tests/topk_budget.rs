//! A budget for limited queries, so that a top-k query goes back to paying
//! for every hit rather than for the k it returns and tier-1 fails, without
//! running the benchmark.
//!
//! The index holds 5,000 records, half in a segment and half in the delta,
//! every `t` and every text below a trie node of its own (each record's `a`
//! text sorts first). For limits 1, 10 and 100 it holds four counts, all
//! exact, so the same on every host:
//!
//! 1. **Nodes visited** — a path query visits at most `2k + c` S-Ancestor
//!    nodes over both tiers, concrete (`/r/t`), across the tiers (`/r/u`,
//!    which the delta answers five times) or wildcard (`/*/t`, `//t`); the
//!    answer is an ascending subset of size `min(k, |answer|)`.
//! 2. **DocId entries** — a source wrapper counts what the DocId cursor
//!    hands over: at most `k`, also when one final scope (`/r`) holds every
//!    posting of the tier.
//! 3. **A limit that never fills** — a wrapper files every posting under one
//!    document, so no limit above 1 is ever reached: the sweep for `t`
//!    doubles its piece of hits each time, so the run makes at most
//!    `⌈log₂(N/k)⌉ + c` sweeps for `N` hits.
//! 4. **Unlimited runs** — each query's unlimited answer is the whole match.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};

use vist_core::{
    search_sequences, DkStats, DocId, IndexOptions, QueryOptions, Result, SearchOptions,
    SearchSource, VistIndex,
};
use vist_storage::testutil::TempDir;

const RECORDS: usize = 2_500;
const LIMITS: [usize; 3] = [1, 10, 100];
/// Nodes a query visits beyond its `2k`: the root element's node in each
/// tier, and the last hit of a tier the limit is carried past.
const SLACK: u64 = 4;

/// A source that counts the sweeps it runs and the DocId entries it hands
/// over, and can file every posting under one document.
struct Counted<'a> {
    inner: &'a dyn SearchSource,
    one_document: Option<DocId>,
    sweeps: AtomicU64,
    entries: AtomicU64,
}

impl<'a> Counted<'a> {
    fn new(inner: &'a dyn SearchSource, one_document: Option<DocId>) -> Self {
        Counted {
            inner,
            one_document,
            sweeps: AtomicU64::new(0),
            entries: AtomicU64::new(0),
        }
    }
}

impl SearchSource for Counted<'_> {
    fn dkey_get(&self, dkey: &[u8]) -> Result<Option<u64>> {
        self.inner.dkey_get(dkey)
    }

    fn dkey_scan_range(
        &self,
        lo: &[u8],
        hi: &[u8],
        f: &mut dyn FnMut(&[u8], u64) -> ControlFlow<()>,
    ) -> Result<()> {
        self.inner.dkey_scan_range(lo, hi, f)
    }

    fn nodes_in_scopes(
        &self,
        dkey_id: u64,
        scopes: &[(u128, u128)],
        f: &mut dyn FnMut(u128, u128) -> ControlFlow<()>,
    ) -> Result<()> {
        self.sweeps.fetch_add(1, Ordering::Relaxed);
        self.inner.nodes_in_scopes(dkey_id, scopes, f)
    }

    fn docids_in_scopes(
        &self,
        scopes: &[(u128, u128)],
        f: &mut dyn FnMut(u128, DocId) -> ControlFlow<()>,
    ) -> Result<()> {
        self.inner.docids_in_scopes(scopes, &mut |n, doc| {
            self.entries.fetch_add(1, Ordering::Relaxed);
            f(n, self.one_document.unwrap_or(doc))
        })
    }

    fn dkid_stats(&self, dkid: u64) -> Option<DkStats> {
        self.inner.dkid_stats(dkid)
    }
}

/// Record `i`: its own `a` text, a `t`, and a `u` in every segment record
/// but only in every 500th delta record.
fn record(i: usize) -> String {
    let u = if i < RECORDS || i.is_multiple_of(500) {
        "<u>x</u>"
    } else {
        ""
    };
    format!("<r><a>{i}</a><t>{}</t>{u}</r>", i % 3)
}

fn ceil_log2(x: usize) -> u64 {
    u64::from(x.next_power_of_two().trailing_zeros())
}

fn sequences(idx: &VistIndex, q: &str) -> Vec<vist_query::QuerySequence> {
    let pattern = vist_query::parse_query(q).unwrap().to_pattern();
    vist_query::try_translate(
        &pattern,
        &idx.table(),
        &vist_query::TranslateOptions::default(),
    )
    .unwrap()
    .sequences
}

#[test]
fn a_limited_query_pays_for_its_limit() {
    let dir = TempDir::new("topk-budget");
    let idx = VistIndex::create_file(dir.file("idx.vist"), IndexOptions::default()).unwrap();
    let records: Vec<String> = (0..2 * RECORDS).map(record).collect();
    let (segment, delta) = records.split_at(RECORDS);
    idx.bulk_build(segment).unwrap();
    idx.insert_batch(delta, 1).unwrap();
    assert_eq!(idx.stats().segments, 1, "one segment and a delta");

    for q in ["/r/t", "/r/u", "/*/t", "//t"] {
        let all = idx.query(q, &QueryOptions::default()).unwrap().doc_ids;
        let want = if q == "/r/u" {
            RECORDS + 5
        } else {
            2 * RECORDS
        };
        assert_eq!(all.len(), want, "{q}: unlimited");
        for k in LIMITS {
            let opts = QueryOptions {
                limit: Some(k),
                ..Default::default()
            };
            let r = idx.query(q, &opts).unwrap();
            let s = r.stats;
            println!(
                "{q} limit {k}: {} nodes visited, {} work items, {} sweeps, {} DocId scans",
                s.nodes_visited, s.work_items, s.sancestor_scans, s.docid_scans
            );
            assert_eq!(r.doc_ids.len(), k, "{q} limit {k}");
            assert!(r.doc_ids.windows(2).all(|w| w[0] < w[1]), "{q} limit {k}");
            assert!(
                r.doc_ids.iter().all(|id| all.binary_search(id).is_ok()),
                "{q} limit {k}"
            );
            let k = k as u64;
            assert!(s.nodes_visited <= 2 * k + SLACK, "{q} limit {k}: {s:?}");
            assert!(s.docid_scans <= k, "{q} limit {k}: {s:?}");
        }
    }

    // What the DocId cursor hands over, in the delta: one scope a record, or
    // one scope over all 2,500 postings.
    let delta = idx.store();
    for q in ["/r/t", "/r"] {
        let seqs = sequences(&idx, q);
        for k in LIMITS {
            let source = Counted::new(delta, None);
            let opts = SearchOptions {
                limit: Some(k),
                ..Default::default()
            };
            let out = search_sequences(&source, &seqs, &opts).unwrap();
            let entries = source.entries.load(Ordering::Relaxed);
            println!("{q} limit {k}: {entries} DocId entries handed over");
            assert_eq!(out.docs.len(), k, "{q} limit {k}");
            assert!(entries <= k as u64, "{q} limit {k}: {entries} entries");
        }
    }

    // A limit that never fills: one document below every posting.
    let seqs = sequences(&idx, "/r/t");
    for k in LIMITS {
        let source = Counted::new(delta, Some(7));
        let opts = SearchOptions {
            limit: Some(k),
            ..Default::default()
        };
        let out = search_sequences(&source, &seqs, &opts).unwrap();
        assert_eq!(out.docs, vec![7], "limit {k}");
        let sweeps = source.sweeps.load(Ordering::Relaxed);
        println!("/r/t limit {k}, one document: {sweeps} sweeps");
        assert!(
            sweeps <= ceil_log2(RECORDS / k) + 3,
            "limit {k}: {sweeps} sweeps for {RECORDS} hits"
        );
    }
}
