//! Differential test for the work-list match engine.
//!
//! For every randomized corpus and query, the engine's doc ids must agree
//! with the Naive oracle (Algorithm 1 over the trie), and it must return
//! *identical* document-id sets and final-scope sets under seeded
//! expansion orders and frame sizes. The order frames are taken in is an
//! execution detail; any divergence is a bug in dedup, frontier batching or
//! scope merging. Driven by a seeded splitmix64 generator so runs are
//! deterministic.

use vist_core::{IndexOptions, NaiveIndex, QueryOptions, VistIndex};
use vist_xml::{Document, ElementBuilder};

/// Schedule seeds: seeded picks of the next frame and seeded frame sizes
/// (11, a multiple of 11, runs one scope a frame).
const SCHEDULES: [u64; 4] = [1, 2, 11, 42];

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

/// Wildcard-heavy random queries: most steps are `*` or `//`-prefixed, so
/// translation produces many alternative sequences and wide D-Ancestor
/// fan-out — the paths where dedup and frontier batching actually run.
fn random_query(rng: &mut Rng) -> String {
    let steps = 1 + rng.below(4);
    let mut q = String::new();
    for _ in 0..steps {
        let n = rng.below(NAMES.len() + 3);
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
    if rng.below(3) == 0 {
        q.push_str(&format!("[text='{}']", VALUES[rng.below(VALUES.len())]));
    }
    q
}

#[test]
fn expansion_order_never_changes_answers() {
    for case in 0..32u64 {
        let mut rng = Rng(0x9A_11E1 ^ (case << 9));
        let docs: Vec<Document> = (0..2 + rng.below(10))
            .map(|_| random_doc(&mut rng))
            .collect();
        let mut queries: Vec<String> = (0..2 + rng.below(4))
            .map(|_| random_query(&mut rng))
            .collect();
        // Always exercise an empty-result query: names absent from the data.
        queries.push("/zzz/yyy[text='none']".to_string());

        let mut naive = NaiveIndex::default();
        let vist = VistIndex::in_memory(IndexOptions::default()).unwrap();
        for d in &docs {
            naive.insert_document(d);
            vist.insert_document(d).unwrap();
        }

        for q in &queries {
            let pattern = vist_query::parse_query(q).unwrap().to_pattern();
            let oracle = naive.query(q, &QueryOptions::default()).unwrap();
            let serial = vist.query(q, &QueryOptions::default()).unwrap();
            assert_eq!(serial.doc_ids, oracle, "serial vs naive oracle: {q}");
            let (serial_scopes, _) = vist
                .match_scopes(&pattern, &QueryOptions::default())
                .unwrap();

            for seed in SCHEDULES {
                let opts = QueryOptions {
                    schedule_seed: Some(seed),
                    ..Default::default()
                };
                let r = vist.query(q, &opts).unwrap();
                assert_eq!(
                    r.doc_ids, serial.doc_ids,
                    "doc ids diverge at schedule {seed}: {q}"
                );
                assert_eq!(
                    r.candidates, serial.candidates,
                    "candidate count diverges at schedule {seed}: {q}"
                );
                let (scopes, _) = vist.match_scopes(&pattern, &opts).unwrap();
                assert_eq!(
                    scopes, serial_scopes,
                    "scope set diverges at schedule {seed}: {q}"
                );
            }
        }
    }
}

#[test]
fn dedup_skips_duplicate_wildcard_subproblems() {
    // `//a//a` reaches the same deep `a` chains through many wildcard
    // expansions; nested identical elements make those expansions overlap.
    let vist = VistIndex::in_memory(IndexOptions::default()).unwrap();
    for _ in 0..4 {
        vist.insert_xml("<a><a><a><a><b>1</b></a></a></a></a>")
            .unwrap();
    }
    let serial = vist.query("//a//a/b", &QueryOptions::default()).unwrap();
    assert!(!serial.doc_ids.is_empty());
    assert!(
        serial.stats.dedup_skips > 0,
        "expected duplicate sub-problems on a nested self-similar corpus: {:?}",
        serial.stats
    );
}

#[test]
fn merged_scope_resolution_counts_docs_once() {
    // Nested same-name elements: `//a` matches every level of each `a`
    // chain, and an inner level's scope is *contained* in its outer
    // level's. Interval merging must collapse the nest to one DocId range
    // query without changing the answer.
    let vist = VistIndex::in_memory(IndexOptions::default()).unwrap();
    let mut ids = Vec::new();
    for i in 0..12 {
        let depth = 1 + i % 4;
        let open = "<a>".repeat(depth);
        let close = "</a>".repeat(depth);
        ids.push(
            vist.insert_xml(&format!("{open}<v>{i}</v>{close}"))
                .unwrap(),
        );
    }
    let r = vist.query("//a", &QueryOptions::default()).unwrap();
    assert_eq!(r.doc_ids, ids);
    assert!(
        r.stats.scopes_merged > 0,
        "expected interval merging on nested matches: {:?}",
        r.stats
    );
    assert!(
        r.stats.docid_scans < r.stats.nodes_visited,
        "merging must batch DocId scans: {:?}",
        r.stats
    );
}
