//! Set-at-a-time matching: a frame carries a sorted list of scopes and one
//! sweep resolves all of them. How the hits of a sweep are cut into frames
//! — 1,024 to a frame, or under `schedule_seed` a seeded power of two down
//! to one scope a frame, which is one partial match at a time — must never
//! show in an answer:
//!
//! 1. **Frame sizes** — seeds 0..32 (every multiple of 11 runs with one
//!    scope a frame) over wildcard-heavy, branch-heavy and
//!    nested same-name corpora, each in a segment and a delta with
//!    tombstones: document ids equal the Naive oracle, final scope sets
//!    equal the unseeded run's.
//! 2. **Containment collapse** — on a corpus whose same-name siblings nest
//!    in the trie, frontier scopes that lie inside a kept one are dropped
//!    (`scopes_nested > 0`) on a position that is not the last, and answers,
//!    DocId range queries and final scopes equal those of the runs with one
//!    scope a frame.
//! 3. **`limit`** — over frontiers larger than one frame, two tiers and
//!    tombstones: a subset of the full answer of the right size.
//! 4. **The plan probe stops at its cap** — a `//` pattern over more
//!    D-Ancestor keys than the cap is handed `cap + 1` of them, and a capped
//!    probe still never prunes.
//! 5. **DocId resolution** — the merged final scopes go to the DocId tree
//!    as one sorted list: seeded lists return what one call a scope and a
//!    `BTreeMap` filter return, and a segment fetches each DocId leaf once
//!    (once a slice of 1,024 scopes) however many scopes fall on it.
//! 6. **Ids are one ascending, distinct run** — a document below 2,000
//!    disjoint final scopes (two DocId slices) is returned once, limited or
//!    not; over two segments with tombstones in both and a delta, answers
//!    equal the oracle, `document_ids()` is the live ids in order, and every
//!    limit from 0 to the full size past it returns an ascending subset of
//!    the right size.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;
use std::sync::Mutex;

use vist_core::{
    search_sequences, DkStats, DocId, IndexOptions, NaiveIndex, QueryOptions, Result,
    SearchOptions, SearchSource, VistIndex,
};
use vist_storage::testutil::TempDir;

/// `docs` in segments (the first `in_segment`, cut into `segments` equal
/// parts) and a delta (the rest), every seventh document removed again —
/// a tombstone, whichever tier holds the document — beside the oracle's
/// answer to ask.
struct Corpus {
    _dir: TempDir,
    idx: VistIndex,
    naive: NaiveIndex,
    removed: BTreeSet<DocId>,
}

fn corpus(name: &str, docs: &[String], in_segment: usize, segments: usize) -> Corpus {
    let dir = TempDir::new(name);
    let idx = VistIndex::create_file(dir.file("idx.vist"), IndexOptions::default()).unwrap();
    let mut naive = NaiveIndex::default();
    for part in docs[..in_segment].chunks(in_segment.div_ceil(segments)) {
        idx.bulk_build(part).unwrap();
    }
    for xml in &docs[in_segment..] {
        idx.insert_xml(xml).unwrap();
    }
    for xml in docs {
        naive.insert_document(&vist_xml::parse(xml).unwrap());
    }
    let removed: BTreeSet<DocId> = (0..docs.len() as u64).filter(|id| id % 7 == 3).collect();
    for &id in &removed {
        idx.remove_document(id).unwrap();
    }
    assert_eq!(
        idx.stats().segments,
        segments as u64,
        "segments and a delta"
    );
    // The live ids, as one ascending run through every tier.
    let live: Vec<DocId> = (0..docs.len() as u64)
        .filter(|id| !removed.contains(id))
        .collect();
    assert_eq!(idx.document_ids().unwrap(), live, "{name}");
    Corpus {
        _dir: dir,
        idx,
        naive,
        removed,
    }
}

impl Corpus {
    fn oracle(&mut self, q: &str) -> Vec<DocId> {
        let mut ids = self.naive.query(q, &QueryOptions::default()).unwrap();
        ids.retain(|id| !self.removed.contains(id));
        ids
    }
}

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// Structurally diverse documents over five names: wildcard queries fan out
/// over many D-Ancestor keys and converge again.
fn random_xml(rng: &mut Rng, depth: usize, out: &mut String) {
    let name = ["a", "b", "c", "d", "e"][rng.below(5)];
    out.push_str(&format!("<{name}>"));
    if depth == 0 || rng.below(3) == 0 {
        out.push_str(&rng.below(4).to_string());
    } else {
        for _ in 0..1 + rng.below(3) {
            random_xml(rng, depth - 1, out);
        }
    }
    out.push_str(&format!("</{name}>"));
}

fn wildcard_heavy() -> (Vec<String>, Vec<&'static str>) {
    let mut rng = Rng(0xF20_4713);
    let docs = (0..240)
        .map(|_| {
            let mut xml = String::new();
            random_xml(&mut rng, 4, &mut xml);
            xml
        })
        .collect();
    let queries = vec![
        "//a//c",
        "//*/b",
        "/a/*/c",
        "//a[b='1']",
        "//*//*[text='2']",
        "/*/*",
    ];
    (docs, queries)
}

fn branch_heavy() -> (Vec<String>, Vec<&'static str>) {
    let docs = (0..400)
        .map(|i| {
            format!(
                "<r><a>{}</a><b><c>{}</c><d>{}</d></b><e><f>{}</f></e></r>",
                i % 13,
                i % 7,
                i % 3,
                i % 5
            )
        })
        .collect();
    let queries = vec![
        "/r[a='1']/b/c[text='2']",
        "/r[a='3']/b[d='1']/c",
        "/r[e/f='4']/b[c='5'][d='2']",
        "/r/b[c='6']",
        "/r[a='12'][e/f='0']",
    ];
    (docs, queries)
}

/// Same-name elements below one another and beside one another: nested
/// scopes under one D-Ancestor key, in the document and in the trie.
fn nested_same_name() -> (Vec<String>, Vec<&'static str>) {
    let mut docs = Vec::new();
    for i in 0..60 {
        docs.push(format!("<a><a><a><b>{}</b></a></a></a>", i % 4));
        docs.push(format!("<a><b>{}</b><a><b>{}</b></a></a>", i % 3, i % 5));
        docs.push(format!("<a><a><c>{i}</c></a><a><b>1</b></a></a>"));
    }
    let queries = vec!["//a//a/b", "//a", "//a/b[text='1']", "/a/a/a", "//a//b"];
    (docs, queries)
}

#[test]
fn seeded_frame_sizes_change_neither_answers_nor_scopes() {
    for (name, (docs, queries), segments) in [
        ("frontier-wildcard", wildcard_heavy(), 1),
        ("frontier-branch", branch_heavy(), 1),
        ("frontier-nested", nested_same_name(), 1),
        // Tombstones in both segments: the union masks and joins three runs.
        ("frontier-two-segments", branch_heavy(), 2),
    ] {
        let in_segment = docs.len() * 2 / 3;
        let mut c = corpus(name, &docs, in_segment, segments);
        for q in queries {
            let pattern = vist_query::parse_query(q).unwrap().to_pattern();
            let oracle = c.oracle(q);
            let plain = c.idx.query(q, &QueryOptions::default()).unwrap();
            assert_eq!(plain.doc_ids, oracle, "{name}: unseeded vs oracle: {q}");
            let (plain_scopes, _) = c
                .idx
                .match_scopes(&pattern, &QueryOptions::default())
                .unwrap();
            for seed in 0..32u64 {
                let opts = QueryOptions {
                    schedule_seed: Some(seed),
                    ..Default::default()
                };
                let r = c.idx.query(q, &opts).unwrap();
                assert_eq!(r.doc_ids, oracle, "{name}: seed {seed}: {q}");
                let (scopes, _) = c.idx.match_scopes(&pattern, &opts).unwrap();
                assert_eq!(scopes, plain_scopes, "{name}: seed {seed}: {q}");
            }
            for limit in [0, 1, 10, oracle.len(), oracle.len() + 5] {
                let opts = QueryOptions {
                    limit: Some(limit),
                    ..Default::default()
                };
                let r = c.idx.query(q, &opts).unwrap();
                let run = format!("{name}: limit {limit}: {q}");
                assert_eq!(r.doc_ids.len(), limit.min(oracle.len()), "{run}");
                assert!(r.doc_ids.windows(2).all(|w| w[0] < w[1]), "{run}");
                assert!(
                    r.doc_ids.iter().all(|id| oracle.binary_search(id).is_ok()),
                    "{run}"
                );
            }
        }
    }
}

/// DBLP-like records with several `author` siblings: in the trie each
/// `author` of a record hangs below the one before it, so their scopes nest.
/// The record's own `aid` sorts first, which keeps the records apart in the
/// trie: 600 chains of authors rather than one.
fn nested_authors() -> Vec<String> {
    (0..600)
        .map(|i| {
            let authors: String = (0..1 + i % 4)
                .map(|j| format!("<author>name{}</author>", (i * 7 + j * 3) % 11))
                .collect();
            format!(
                "<article><aid>{i}</aid>{authors}<title>t{}</title><year>{}</year></article>",
                i % 50,
                1990 + i % 9
            )
        })
        .collect()
}

#[test]
fn nested_frontier_scopes_collapse_without_changing_the_answer() {
    let docs = nested_authors();
    let mut c = corpus("frontier-authors", &docs, 450, 1);
    for q in [
        "/article/author[text='name3']",
        "/article/author",
        "/article[author='name5']/year[text='1993']",
        "//author[text='name0']",
    ] {
        let pattern = vist_query::parse_query(q).unwrap().to_pattern();
        let oracle = c.oracle(q);
        let plain = c.idx.query(q, &QueryOptions::default()).unwrap();
        assert_eq!(plain.doc_ids, oracle, "{q}");
        let (plain_scopes, plain_stats) = c
            .idx
            .match_scopes(&pattern, &QueryOptions::default())
            .unwrap();
        // `author` is the last position of the second query only: there its
        // scopes are the answer and every one of them is kept.
        assert_eq!(
            plain_stats.scopes_nested > 0,
            q != "/article/author",
            "{q}: {plain_stats:?}"
        );
        // One scope a frame: every partial match expanded on its own.
        for seed in [0, 11, 22] {
            let opts = QueryOptions {
                schedule_seed: Some(seed),
                ..Default::default()
            };
            let single = c.idx.query(q, &opts).unwrap();
            assert_eq!(single.doc_ids, plain.doc_ids, "{q}, seed {seed}");
            assert_eq!(
                single.stats.docid_scans, plain.stats.docid_scans,
                "{q}, seed {seed}"
            );
            // A sweep a record where the unseeded run has one a tier. This
            // counts frame splitting, not planning: the label semi-join
            // drops most records' partial matches before they are swept, so
            // both runs count without the planner.
            let unplanned = |schedule_seed| {
                let opts = QueryOptions {
                    schedule_seed,
                    no_plan: true,
                    ..Default::default()
                };
                c.idx.query(q, &opts).unwrap().stats.sancestor_scans
            };
            let (single_sweeps, plain_sweeps) = (unplanned(Some(seed)), unplanned(None));
            assert!(
                single_sweeps > plain_sweeps + 400 || !q.starts_with("/article/author["),
                "{q}, seed {seed}: {single_sweeps} sweeps, {plain_sweeps} unseeded"
            );
            let (scopes, _) = c.idx.match_scopes(&pattern, &opts).unwrap();
            assert_eq!(scopes, plain_scopes, "{q}, seed {seed}");
        }
    }
}

#[test]
fn a_limit_over_frontiers_larger_than_a_frame_is_a_subset_of_the_right_size() {
    // Every record has its own `a` text and siblings sort by name, so each
    // `z` is a trie node of its own below it: 5,000 hits at the position of
    // `z`, five frames' worth.
    let docs: Vec<String> = (0..5_000)
        .map(|i| format!("<r><a>{i}</a><z>{}</z></r>", i % 2))
        .collect();
    let mut c = corpus("frontier-limit", &docs, 3_400, 1);
    for q in ["/r/z[text='1']", "/r/z", "/r[a]/z[text='0']"] {
        let full: BTreeSet<DocId> = c.oracle(q).into_iter().collect();
        assert!(full.len() > 2_000, "{q}: {}", full.len());
        let unlimited = c.idx.query(q, &QueryOptions::default()).unwrap();
        assert_eq!(
            unlimited.doc_ids,
            full.iter().copied().collect::<Vec<_>>(),
            "{q}"
        );
        assert!(unlimited.stats.work_items > 2 * 1024, "{q}: several frames");
        for limit in [0, 1, 10, 1_500, full.len() - 1, full.len(), full.len() + 5] {
            for schedule_seed in [None, Some(0), Some(5), Some(limit as u64)] {
                let r = c
                    .idx
                    .query(
                        q,
                        &QueryOptions {
                            limit: Some(limit),
                            schedule_seed,
                            ..Default::default()
                        },
                    )
                    .unwrap();
                let run = format!("{q}: limit {limit}, seed {schedule_seed:?}");
                assert_eq!(r.doc_ids.len(), limit.min(full.len()), "{run}");
                assert!(r.doc_ids.iter().all(|id| full.contains(id)), "{run}");
                assert!(r.doc_ids.windows(2).all(|w| w[0] < w[1]), "{run}");
            }
        }
    }
}

/// A source that notes how many keys each D-Ancestor range scan handed on.
struct CountingScans<'a> {
    inner: &'a dyn SearchSource,
    handed: Mutex<Vec<u64>>,
}

impl SearchSource for CountingScans<'_> {
    fn dkey_get(&self, dkey: &[u8]) -> Result<Option<u64>> {
        self.inner.dkey_get(dkey)
    }

    fn dkey_scan_range(
        &self,
        lo: &[u8],
        hi: &[u8],
        f: &mut dyn FnMut(&[u8], u64) -> ControlFlow<()>,
    ) -> Result<()> {
        let mut handed = 0;
        let scanned = self.inner.dkey_scan_range(lo, hi, &mut |k, id| {
            handed += 1;
            f(k, id)
        });
        self.handed.lock().unwrap().push(handed);
        scanned
    }

    fn nodes_in_scopes(
        &self,
        dkey_id: u64,
        scopes: &[(u128, u128)],
        f: &mut dyn FnMut(u128, u128) -> ControlFlow<()>,
    ) -> Result<()> {
        self.inner.nodes_in_scopes(dkey_id, scopes, f)
    }

    fn docids_in_scopes(
        &self,
        scopes: &[(u128, u128)],
        f: &mut dyn FnMut(u128, DocId) -> ControlFlow<()>,
    ) -> Result<()> {
        self.inner.docids_in_scopes(scopes, f)
    }

    fn dkid_stats(&self, dkid: u64) -> Option<DkStats> {
        self.inner.dkid_stats(dkid)
    }
}

#[test]
fn a_capped_plan_probe_stops_scanning_and_still_never_prunes() {
    // `x` under 4,200 different parents, then once under `r/q`, whose
    // names are interned last: the one key the pattern `//q/x` matches
    // sorts after more keys of `x` than a plan probe looks at.
    const CAP: u64 = 4096;
    let idx = VistIndex::in_memory(IndexOptions::default()).unwrap();
    for i in 0..4_200 {
        idx.insert_xml(&format!("<p{i}><x>1</x></p{i}>")).unwrap();
    }
    let last = idx.insert_xml("<r><q><x>1</x></q></r>").unwrap();
    let pattern = vist_query::parse_query("//q/x").unwrap().to_pattern();
    let translation = vist_query::try_translate(
        &pattern,
        &idx.table(),
        &vist_query::TranslateOptions::default(),
    )
    .unwrap();
    let source = CountingScans {
        inner: idx.store(),
        handed: Mutex::new(Vec::new()),
    };
    let opts = SearchOptions {
        collect_plan: true,
        ..Default::default()
    };
    let out = search_sequences(&source, &translation.sequences, &opts).unwrap();
    assert_eq!(out.docs, vec![last]);
    let plan = out.plan.unwrap();
    assert!(plan.seqs.iter().all(|s| s.pruned.is_none()), "{plan:?}");
    let handed = source.handed.into_inner().unwrap();
    // Plan time: the probe of `q` (one key), then that of `x`, which gives
    // up one key past the cap instead of walking all 4,201. (The match loop
    // scans for `q` once more; `x` below a bound `q` is an exact lookup.)
    assert_eq!(handed, [1, CAP + 1, 1]);
    assert_eq!(out.stats.planner_seqs_pruned, 0);
}

/// A source whose DocId tree files every posting under one document: what a
/// document with a posting below each of many disjoint final scopes returns.
struct OneDocument<'a>(&'a dyn SearchSource, DocId);

impl SearchSource for OneDocument<'_> {
    fn dkey_get(&self, dkey: &[u8]) -> Result<Option<u64>> {
        self.0.dkey_get(dkey)
    }

    fn dkey_scan_range(
        &self,
        lo: &[u8],
        hi: &[u8],
        f: &mut dyn FnMut(&[u8], u64) -> ControlFlow<()>,
    ) -> Result<()> {
        self.0.dkey_scan_range(lo, hi, f)
    }

    fn nodes_in_scopes(
        &self,
        dkey_id: u64,
        scopes: &[(u128, u128)],
        f: &mut dyn FnMut(u128, u128) -> ControlFlow<()>,
    ) -> Result<()> {
        self.0.nodes_in_scopes(dkey_id, scopes, f)
    }

    fn docids_in_scopes(
        &self,
        scopes: &[(u128, u128)],
        f: &mut dyn FnMut(u128, DocId) -> ControlFlow<()>,
    ) -> Result<()> {
        self.0.docids_in_scopes(scopes, &mut |n, _| f(n, self.1))
    }

    fn dkid_stats(&self, dkid: u64) -> Option<DkStats> {
        self.0.dkid_stats(dkid)
    }
}

#[test]
fn a_document_below_thousands_of_disjoint_scopes_is_returned_once() {
    // 2,000 records match, each on a trie node of its own (its `a` text sorts
    // first): 2,000 disjoint final scopes, two DocId slices, one document.
    let idx = VistIndex::in_memory(IndexOptions::default()).unwrap();
    for i in 0..4_000 {
        idx.insert_xml(&format!("<r><a>{i}</a><z>{}</z></r>", i % 2))
            .unwrap();
    }
    let pattern = vist_query::parse_query("/r/z[text='1']")
        .unwrap()
        .to_pattern();
    let translation = vist_query::try_translate(
        &pattern,
        &idx.table(),
        &vist_query::TranslateOptions::default(),
    )
    .unwrap();
    let source = OneDocument(idx.store(), 7);
    for limit in [None, Some(1), Some(2)] {
        let opts = SearchOptions {
            limit,
            ..Default::default()
        };
        let out = search_sequences(&source, &translation.sequences, &opts).unwrap();
        assert_eq!(out.docs, vec![7], "limit {limit:?}");
        let resolved = if limit == Some(1) { 1 } else { 2_000 };
        assert_eq!(out.stats.docid_scans, resolved, "limit {limit:?}");
    }
}

fn docids(source: &dyn SearchSource, scopes: &[(u128, u128)]) -> Vec<DocId> {
    let mut out = Vec::new();
    source
        .docids_in_scopes(scopes, &mut |_, doc| {
            out.push(doc);
            ControlFlow::Continue(())
        })
        .unwrap();
    out
}

#[test]
fn a_sorted_scope_list_resolves_like_one_call_a_scope() {
    // Postings of a delta at seeded labels, several documents to some of
    // them, document 0 and label 0 among them.
    let idx = VistIndex::in_memory(IndexOptions::default()).unwrap();
    let store = idx.store();
    let mut rng = Rng(0xD0C1D);
    let mut model: BTreeMap<u128, Vec<DocId>> = BTreeMap::new();
    for doc in 0..3_000u64 {
        let n = if doc < 2 {
            doc
        } else {
            rng.below(20_000) as u64
        };
        store.docid_put(n.into(), doc).unwrap();
        model.entry(n.into()).or_default().push(doc);
    }
    store.publish_postings();
    assert!(store.tree_breakdown().unwrap().docid.leaf_pages > 10);
    let fetches = || {
        let t = store.pool().pool_stats().totals();
        t.hits + t.misses
    };
    for seed in 0..32u64 {
        // Sorted and disjoint: none, tiny and mostly adjacent, wide, or
        // starting near the last posting and running past it.
        let (max_gap, max_len, start) = match seed % 4 {
            0 => (3, 3, 0),
            1 => (2_000, 1_500, rng.below(500)),
            2 => (40, 10, 19_900),
            _ => (1, 1, 21_000),
        };
        let mut scopes: Vec<(u128, u128)> = Vec::new();
        let mut at = start;
        while at < 21_000 {
            let lo = at + rng.below(max_gap);
            let hi = lo + 1 + rng.below(max_len);
            scopes.push((lo as u128, hi as u128));
            at = hi;
        }
        let before = fetches();
        let got = docids(store, &scopes);
        let in_one_pass = fetches() - before;
        let per_scope: Vec<DocId> = scopes.iter().flat_map(|s| docids(store, &[*s])).collect();
        let one_by_one = fetches() - before - in_one_pass;
        let filtered: Vec<DocId> = scopes
            .iter()
            .flat_map(|&(lo, hi)| {
                model
                    .range(lo..hi)
                    .flat_map(|(_, docs)| docs.iter().copied())
            })
            .collect();
        assert_eq!(got, filtered, "seed {seed}: {} scopes", scopes.len());
        assert_eq!(got, per_scope, "seed {seed}");
        assert!(
            in_one_pass <= one_by_one,
            "seed {seed}: {in_one_pass} > {one_by_one}"
        );
    }
}

/// Pool fetches, of every tier, while `f` runs.
fn fetches_during(f: impl FnOnce()) -> u64 {
    let guard = vist_obs::attr::install();
    f();
    let io = guard.finish();
    io.pool_hits + io.pool_misses
}

#[test]
fn the_docid_stage_fetches_no_page_in_any_tier() {
    // Every record has an `a` text of its own, so each `z` and the text
    // below it is a trie node of its own: one final scope a hit, and
    // between two of them the nodes of the records that do not match.
    for records in [300usize, 2_500] {
        let dir = TempDir::new("frontier-docid");
        let idx = VistIndex::create_file(dir.file("idx.vist"), IndexOptions::default()).unwrap();
        let docs: Vec<String> = (0..2 * records)
            .map(|i| format!("<r><a>{i}</a><z>{}</z></r>", i % 2))
            .collect();
        // Half the records in a segment, half in the delta.
        idx.bulk_build(&docs[..records]).unwrap();
        idx.insert_batch(&docs[records..], 1).unwrap();
        let (delta, segments) = idx.tier_breakdown().unwrap();
        let leaves = [delta.docid.leaf_pages, segments[0].trees.docid.leaf_pages];
        assert_eq!(
            leaves.iter().all(|&l| l > 1),
            records > 300,
            "{records} records: {leaves:?}"
        );

        let q = "/r/z[text='1']";
        let pattern = vist_query::parse_query(q).unwrap().to_pattern();
        let opts = QueryOptions::default();
        let matching = fetches_during(|| {
            idx.match_scopes(&pattern, &opts).unwrap();
        });
        let r = idx.query(q, &opts).unwrap();
        assert_eq!(r.doc_ids.len(), records);
        assert!(
            r.stats.docid_scans >= records as u64 / 2,
            "{records} records"
        );
        // The DocId stage reads each tier's postings column, not its tree.
        let resolving = r.stats.io_pool_hits + r.stats.io_pool_misses - matching;
        assert_eq!(resolving, 0, "{records} records: {leaves:?} DocId leaves");
    }
}

#[test]
fn a_segments_s_ancestor_sweeps_fetch_no_page() {
    // The records of the test above, all in one segment: thousands of `z`
    // entries over several S-Ancestor leaves, swept by queries whose every
    // D-Ancestor lookup is an exact get.
    let dir = TempDir::new("frontier-sweep");
    let idx = VistIndex::create_file(dir.file("idx.vist"), IndexOptions::default()).unwrap();
    let docs: Vec<String> = (0..5_000)
        .map(|i| format!("<r><a>{i}</a><z>{}</z></r>", i % 2))
        .collect();
    idx.bulk_build(&docs).unwrap();
    let (_, segments) = idx.tier_breakdown().unwrap();
    let leaves = segments[0].trees.sancestor.leaf_pages;
    assert!(leaves > 4, "{leaves} S-Ancestor leaves");
    for q in ["/r/z[text='1']", "/r/z", "/r/a"] {
        let r = idx.query(q, &QueryOptions::default()).unwrap();
        let s = r.stats;
        assert!(s.sancestor_scans > 0 && s.nodes_visited > 0, "{q}: {s:?}");
        // A get fetches one leaf: a packed tree holds its internal levels
        // in memory, and the delta's trees are one leaf each. So the
        // D-Ancestor lookups, and the read of the delta's tombstones, are
        // every fetch the query makes.
        let fetches = s.io_pool_hits + s.io_pool_misses;
        let lookups = s.dancestor_gets + s.planner_probes;
        assert_eq!(fetches, lookups + 1, "{q}: {s:?}");
    }
}
