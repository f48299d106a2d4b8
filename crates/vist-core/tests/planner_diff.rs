//! Differential test for the cost-based query planner.
//!
//! The planner only reorders work and prunes provably-empty sequences, so
//! for every corpus and query the planned engine must return *identical*
//! document-id sets and final-scope sets to the unplanned (`no_plan`)
//! engine — and both must agree with the Naive oracle (Algorithm 1 over
//! the trie). `limit` is the one sanctioned deviation: a limited query
//! must return a subset of the full answer of size `min(limit, |full|)`.
//! Driven by a seeded splitmix64 generator so runs are deterministic.

use std::collections::BTreeSet;

use vist_core::{IndexOptions, NaiveIndex, QueryOptions, VistIndex};
use vist_xml::{Document, ElementBuilder};

/// Small vocabularies force structural sharing and overlapping scopes.
const NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];
const VALUES: [&str; 4] = ["1", "2", "3", "4"];

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn random_element(rng: &mut Rng, depth: usize) -> ElementBuilder {
    let mut e = ElementBuilder::new(NAMES[rng.below(NAMES.len())]);
    if rng.below(2) == 0 {
        e = e.text(VALUES[rng.below(VALUES.len())]);
    }
    if depth > 0 {
        let n_children = rng.below(4);
        let kids: Vec<ElementBuilder> = (0..n_children)
            .map(|_| random_element(rng, depth - 1))
            .collect();
        e = e.children(kids);
    }
    e
}

fn random_doc(rng: &mut Rng) -> Document {
    let depth = 1 + rng.below(4);
    random_element(rng, depth).into_document()
}

/// Wildcard-heavy queries: most steps are `*` or `//`-prefixed, so the
/// planner has many alternative sequences to rank and many expansions to
/// probe-prune.
fn random_wildcard_query(rng: &mut Rng) -> String {
    let steps = 1 + rng.below(4);
    let mut q = String::new();
    for _ in 0..steps {
        let n = rng.below(NAMES.len() + 4);
        let name = if n >= NAMES.len() { "*" } else { NAMES[n] };
        q.push_str(if rng.below(2) == 0 { "//" } else { "/" });
        q.push_str(name);
    }
    if rng.below(2) == 0 {
        q.push_str(&format!(
            "[{}='{}']",
            NAMES[rng.below(NAMES.len())],
            VALUES[rng.below(VALUES.len())]
        ));
    }
    q
}

/// Branch-heavy queries: one or two trunk steps carrying several
/// predicates each — the translation shapes whose alternative-sequence
/// order the planner rewrites most aggressively.
fn random_branch_query(rng: &mut Rng) -> String {
    let mut q = String::new();
    for _ in 0..1 + rng.below(2) {
        q.push('/');
        q.push_str(NAMES[rng.below(NAMES.len())]);
        for _ in 0..1 + rng.below(2) {
            if rng.below(2) == 0 {
                q.push_str(&format!("[{}]", NAMES[rng.below(NAMES.len())]));
            } else {
                q.push_str(&format!(
                    "[{}='{}']",
                    NAMES[rng.below(NAMES.len())],
                    VALUES[rng.below(VALUES.len())]
                ));
            }
        }
    }
    q
}

/// Queries whose D-Ancestor prefixes cannot exist in the data (names
/// outside the vocabulary, at several positions): the planner's
/// empty-prefix short-circuit must not change the (empty) answer.
fn empty_prefix_queries() -> Vec<String> {
    vec![
        "/zzz".into(),
        "//zzz".into(),
        "/zzz/yyy[text='none']".into(),
        "/a/zzz//b".into(),
        "//zzz/*".into(),
        "/a[zzz]/b".into(),
        "/*/zzz".into(),
    ]
}

/// Build the same corpus three ways: the naive oracle, a delta-only index,
/// and a tiered index (bulk-built segment + delta residue). The TempDir
/// backs the tiered index and must outlive it.
fn build_indexes(
    case: u64,
    docs: &[Document],
) -> (
    NaiveIndex,
    VistIndex,
    VistIndex,
    vist_storage::testutil::TempDir,
) {
    let mut naive = NaiveIndex::default();
    let delta_only = VistIndex::in_memory(IndexOptions::default()).unwrap();
    for d in docs {
        naive.insert_document(d);
        delta_only.insert_document(d).unwrap();
    }
    let dir = vist_storage::testutil::TempDir::new(&format!("planner-diff-{case}"));
    let tiered = VistIndex::create_file(dir.file("store"), IndexOptions::default()).unwrap();
    let split = docs.len() / 2;
    if split > 0 {
        let xml: Vec<String> = docs[..split].iter().map(|d| d.to_xml()).collect();
        tiered.bulk_build(xml).unwrap();
    }
    for d in &docs[split..] {
        tiered.insert_document(d).unwrap();
    }
    (naive, delta_only, tiered, dir)
}

fn check_query(naive: &mut NaiveIndex, vist: &VistIndex, label: &str, q: &str) {
    let Ok(parsed) = vist_query::parse_query(q) else {
        return; // a random branch query can be syntactically degenerate
    };
    let pattern = parsed.to_pattern();
    let oracle = naive.query(q, &QueryOptions::default()).unwrap();

    let unplanned_opts = QueryOptions {
        no_plan: true,
        ..Default::default()
    };
    let unplanned = vist.query(q, &unplanned_opts).unwrap();
    assert_eq!(
        unplanned.doc_ids, oracle,
        "{label}: unplanned vs oracle: {q}"
    );
    let (unplanned_scopes, _) = vist.match_scopes(&pattern, &unplanned_opts).unwrap();

    let opts = QueryOptions::default();
    let planned = vist.query(q, &opts).unwrap();
    assert_eq!(planned.doc_ids, oracle, "{label}: planned vs oracle: {q}");
    assert_eq!(
        planned.candidates, unplanned.candidates,
        "{label}: candidate count diverges: {q}"
    );
    let (scopes, _) = vist.match_scopes(&pattern, &opts).unwrap();
    assert_eq!(scopes, unplanned_scopes, "{label}: scope set diverges: {q}");

    // Limited queries: subset of the full answer, exact size. The
    // reference set depends on `verify` — raw (naive/ViST §3.2)
    // semantics without it, exact subtree matching with it.
    let full_verified: BTreeSet<u64> = vist
        .query(
            q,
            &QueryOptions {
                verify: true,
                ..Default::default()
            },
        )
        .unwrap()
        .doc_ids
        .into_iter()
        .collect();
    let full_raw: BTreeSet<u64> = oracle.iter().copied().collect();
    for limit in [
        0usize,
        1,
        2,
        oracle.len().saturating_sub(1),
        oracle.len() + 3,
    ] {
        // Which subset comes back may depend on the expansion order;
        // that it is one of the right size may not.
        for (verify, schedule_seed) in [
            (false, None),
            (true, None),
            (false, Some(limit as u64)),
            (false, Some(0x5EED ^ 1)),
        ] {
            let full = if verify { &full_verified } else { &full_raw };
            let r = vist
                .query(
                    q,
                    &QueryOptions {
                        verify,
                        limit: Some(limit),
                        schedule_seed,
                        ..Default::default()
                    },
                )
                .unwrap();
            let run = format!("limit {limit} (verify={verify}, seed={schedule_seed:?})");
            assert_eq!(
                r.doc_ids.len(),
                limit.min(full.len()),
                "{label}: {run} wrong size: {q}"
            );
            assert!(
                r.doc_ids.windows(2).all(|w| w[0] < w[1]),
                "{label}: {run} not ascending: {q}: {:?}",
                r.doc_ids
            );
            assert!(
                r.doc_ids.iter().all(|id| full.contains(id)),
                "{label}: {run} returned non-answer: {q}: {:?} not in {full:?}",
                r.doc_ids
            );
        }
    }
}

#[test]
fn planner_never_changes_answers() {
    for case in 0..24u64 {
        let mut rng = Rng(0x71A_0001 ^ (case << 11));
        let docs: Vec<Document> = (0..2 + rng.below(10))
            .map(|_| random_doc(&mut rng))
            .collect();
        let mut queries: Vec<String> = (0..3).map(|_| random_wildcard_query(&mut rng)).collect();
        queries.extend((0..3).map(|_| random_branch_query(&mut rng)));
        if case % 4 == 0 {
            queries.extend(empty_prefix_queries());
        }

        let (mut naive, delta_only, tiered, _dir) = build_indexes(case, &docs);
        for q in &queries {
            check_query(&mut naive, &delta_only, "delta", q);
            check_query(&mut naive, &tiered, "tiered", q);
        }
    }
}

#[test]
fn planner_prunes_absent_prefixes_without_changing_answers() {
    // A corpus where the planner's empty-prefix short-circuit fires on
    // every alternative involving the absent name.
    let vist = VistIndex::in_memory(IndexOptions::default()).unwrap();
    let mut naive = NaiveIndex::default();
    for i in 0..8 {
        let xml = format!("<a><b><c>{}</c></b><d>x</d></a>", i % 4 + 1);
        vist.insert_xml(&xml).unwrap();
        let doc = vist_xml::parse(&xml).unwrap();
        naive.insert_document(&doc);
    }
    for q in empty_prefix_queries() {
        check_query(&mut naive, &vist, "absent", &q);
    }
    // A dead-prefix query over *interned* symbols must record a prune
    // (`b` exists, but never at the root, so the (b, ε) prefix is empty;
    // a never-seen name like `zzz` is killed earlier, at translation).
    check_query(&mut naive, &vist, "absent", "/b/c");
    let r = vist.query("/b/c", &QueryOptions::default()).unwrap();
    assert!(r.doc_ids.is_empty());
    assert!(
        r.stats.planner_seqs_pruned > 0,
        "expected an empty-prefix prune: {:?}",
        r.stats
    );
    // And the planner-off path must not prune (naive order runs it all).
    let r = vist
        .query(
            "/b/c",
            &QueryOptions {
                no_plan: true,
                ..Default::default()
            },
        )
        .unwrap();
    assert!(r.doc_ids.is_empty());
    assert_eq!(r.stats.planner_seqs_pruned, 0, "{:?}", r.stats);
}

#[test]
fn planner_prunes_wildcard_expansions() {
    // Forty sibling subtrees under the root, only one of which carries the
    // `/r/*/c/d` tail: the planner's child-probe prune must kill the dead
    // expansions before they spawn work items, and cut match work by a
    // wide margin, without changing the answer.
    let vist = VistIndex::in_memory(IndexOptions::default()).unwrap();
    let mut naive = NaiveIndex::default();
    for i in 0..6 {
        let mut xml = String::from("<r>");
        for m in 0..40 {
            if m == 7 {
                xml.push_str(&format!("<m{m}><c><d>hit{i}</d></c></m{m}>"));
            } else {
                xml.push_str(&format!("<m{m}><c>miss</c></m{m}>"));
            }
        }
        xml.push_str("</r>");
        vist.insert_xml(&xml).unwrap();
        naive.insert_document(&vist_xml::parse(&xml).unwrap());
    }
    let q = "/r/*/c/d";
    check_query(&mut naive, &vist, "fanout", q);

    let planned = vist.query(q, &QueryOptions::default()).unwrap();
    let unplanned = vist
        .query(
            q,
            &QueryOptions {
                no_plan: true,
                ..Default::default()
            },
        )
        .unwrap();
    assert_eq!(planned.doc_ids, unplanned.doc_ids);
    assert!(
        planned.stats.planner_probe_prunes > 0,
        "expected child-probe prunes on the dead middles: {:?}",
        planned.stats
    );
    assert!(
        planned.stats.work_items * 2 <= unplanned.stats.work_items,
        "planner must cut work items at least 2x: planned {} vs naive {}",
        planned.stats.work_items,
        unplanned.stats.work_items
    );
}

/// A tiered index of `docs` — the first `segment` of them bulk-built into a
/// segment, the rest inserted into the delta — with the ids of `removed`
/// tombstoned, beside the naive oracle over the same documents.
struct Tombstoned {
    naive: NaiveIndex,
    vist: VistIndex,
    removed: BTreeSet<u64>,
    _dir: vist_storage::testutil::TempDir,
}

impl Tombstoned {
    fn build(
        name: &str,
        docs: &[Document],
        segment: usize,
        opts: IndexOptions,
        removed: impl IntoIterator<Item = u64>,
    ) -> Self {
        let mut naive = NaiveIndex::default();
        for d in docs {
            naive.insert_document(d);
        }
        let dir = vist_storage::testutil::TempDir::new(name);
        let vist = VistIndex::create_file(dir.file("store"), opts).unwrap();
        if segment > 0 {
            let xml: Vec<String> = docs[..segment].iter().map(Document::to_xml).collect();
            vist.bulk_build(xml).unwrap();
        }
        for d in &docs[segment..] {
            vist.insert_document(d).unwrap();
        }
        let removed: BTreeSet<u64> = removed.into_iter().collect();
        for &id in &removed {
            vist.remove_document(id).unwrap();
        }
        Tombstoned {
            naive,
            vist,
            removed,
            _dir: dir,
        }
    }

    /// The naive answer less the tombstoned ids.
    fn oracle(&mut self, q: &str) -> Vec<u64> {
        let all = self.naive.query(q, &QueryOptions::default()).unwrap();
        all.into_iter()
            .filter(|id| !self.removed.contains(id))
            .collect()
    }
}

/// Check `q` on `vist` against `oracle` with the planner on and off: every
/// schedule seed returns the oracle's ids and the unplanned engine's scope
/// set, and limits 0, 1 and 10 return ascending
/// subsets of the right size. Returns the planned serial run's counters.
fn check_planned(oracle: &[u64], vist: &VistIndex, label: &str, q: &str) -> vist_core::QueryStats {
    let pattern = vist_query::parse_query(q).unwrap().to_pattern();
    let unplanned_opts = QueryOptions {
        no_plan: true,
        ..Default::default()
    };
    let unplanned = vist.query(q, &unplanned_opts).unwrap();
    assert_eq!(
        unplanned.doc_ids, oracle,
        "{label}: unplanned vs oracle: {q}"
    );
    let (unplanned_scopes, _) = vist.match_scopes(&pattern, &unplanned_opts).unwrap();
    let planned = vist.query(q, &QueryOptions::default()).unwrap();
    for schedule_seed in [None, Some(0), Some(11), Some(0x5EED ^ 1)] {
        let opts = QueryOptions {
            schedule_seed,
            ..Default::default()
        };
        let run = format!("seed {schedule_seed:?}");
        let r = vist.query(q, &opts).unwrap();
        assert_eq!(r.doc_ids, oracle, "{label}: planned, {run}: {q}");
        let (scopes, _) = vist.match_scopes(&pattern, &opts).unwrap();
        assert_eq!(scopes, unplanned_scopes, "{label}: scopes, {run}: {q}");
        for limit in [0, 1, 10] {
            let r = vist
                .query(
                    q,
                    &QueryOptions {
                        limit: Some(limit),
                        ..opts
                    },
                )
                .unwrap();
            assert_eq!(
                r.doc_ids.len(),
                limit.min(oracle.len()),
                "{label}: limit {limit}, {run}: {q}"
            );
            assert!(
                r.doc_ids.windows(2).all(|w| w[0] < w[1])
                    && r.doc_ids.iter().all(|id| oracle.contains(id)),
                "{label}: limit {limit}, {run}: {q}: {:?}",
                r.doc_ids
            );
        }
    }
    planned.stats
}

/// Records under `r`, each with a key `k` and a value `y` below `x` below
/// one of five groups `g<m>` (again below `w`); two records in 40 plant `P`
/// as their `y` (below `g2` and `g3`) and their key, so a query's selective
/// element comes late, and a `*` above it binds one of two keys.
fn planted_docs(n: usize) -> Vec<Document> {
    (0..n)
        .map(|i| {
            let m = i % 5;
            let (k, y) = if i % 40 == 7 || i % 40 == 28 {
                ("P".to_string(), "P".to_string())
            } else {
                (format!("k{}", i % 11), format!("v{}", i % 7))
            };
            let xml = format!(
                "<r><k>{k}</k><g{m}><x><y>{y}</y><z>{}</z></x></g{m}>\
                 <w><g{}><x><y>v{}</y></x></g{}></w></r>",
                i % 3,
                (m + 1) % 5,
                i % 5,
                (m + 1) % 5
            );
            vist_xml::parse(&xml).unwrap()
        })
        .collect()
}

#[test]
fn the_label_semijoin_never_changes_answers() {
    let docs = planted_docs(400);
    let mut t = Tombstoned::build(
        "planner-semijoin",
        &docs,
        300,
        IndexOptions::default(),
        (0..400).filter(|i| i % 9 == 4 || i == &47),
    );
    let shapes: [(&str, &[&str]); 4] = [
        (
            "under //",
            &["/r//x/y[text='P']", "//x[y='P']/z", "/r//y[text='P']"],
        ),
        ("under *", &["/r/*/x/y[text='P']", "/r/*/x[y='P']/z"]),
        (
            "in a branch",
            &["/r[k='P']/g2/x/y", "/r[*/x/y='P']/k", "/r[k='P']/w/g3/x/y"],
        ),
        // `P`'s candidate keys hold the group the wildcard binds.
        (
            "binding-dependent keys",
            &["/r/*/*/y[text='P']", "/r/*/x/*[text='P']"],
        ),
    ];
    for (shape, queries) in shapes {
        let mut prunes = 0;
        for q in queries {
            let oracle = t.oracle(q);
            assert!(!oracle.is_empty(), "{shape}: {q} found nothing");
            let stats = check_planned(&oracle, &t.vist, shape, q);
            prunes += stats.semijoin_prunes;
        }
        assert!(prunes > 0, "{shape}: the semi-join never pruned");
    }
}

#[test]
fn the_label_semijoin_holds_on_an_incarnated_chain() {
    // At a fixed λ = 2 the scope of `b` runs out after 126 distinct
    // children and the next one borrows a block: the `x` chains after that
    // hang below an incarnation of `b`.
    let mut docs: Vec<Document> = (0..126)
        .map(|i| vist_xml::parse(&format!("<a><b><c{i}/></b></a>")).unwrap())
        .collect();
    docs.extend((0..60).map(|i| {
        let d = if i % 20 == 3 || i % 20 == 10 {
            "P".to_string()
        } else {
            format!("q{}", i % 6)
        };
        let xml = format!("<a><b><x{}><d>{d}</d><e/></x{}></b></a>", i % 4, i % 4);
        vist_xml::parse(&xml).unwrap()
    }));
    let opts = IndexOptions {
        lambda: 2,
        adaptive: false,
        ..Default::default()
    };
    let mut t = Tombstoned::build("planner-semijoin-incarnated", &docs, 0, opts, [129, 150]);
    assert!(t.vist.stats().deep_borrows > 0, "no incarnation");
    let mut labels = 0;
    for q in [
        "/a/b/*/d[text='P']",
        "/a/b/x3[d='P']/e",
        "//d[text='P']",
        "/a/b[*/d='P']",
    ] {
        let oracle = t.oracle(q);
        assert!(!oracle.is_empty(), "{q} found nothing");
        labels += check_planned(&oracle, &t.vist, "incarnated", q).semijoin_labels;
    }
    assert!(labels > 0, "the semi-join never ran");
}

#[test]
fn table3_queries_answer_alike_with_the_label_semijoin() {
    let mut docs = vist_datagen::dblp::documents(600, 42);
    docs.extend(vist_datagen::xmark::documents(400, 43));
    let mut t = Tombstoned::build(
        "planner-semijoin-table3",
        &docs,
        900,
        IndexOptions::default(),
        (0..1_000).step_by(13),
    );
    let mut prunes = 0;
    for (name, q) in vist_datagen::dblp::table3_queries()
        .into_iter()
        .chain(vist_datagen::xmark::table3_queries())
    {
        let oracle = t.oracle(&q);
        prunes += check_planned(&oracle, &t.vist, name, &q).semijoin_prunes;
    }
    assert!(prunes > 0, "the semi-join never pruned");
}
