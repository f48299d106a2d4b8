//! Cross-engine equivalence tests over randomized inputs.
//!
//! The three engines of the paper — Naive (Algorithm 1 over the trie), RIST
//! (static labels + Algorithm 2: a file-backed index whose documents all
//! arrive through `bulk_build`, one packed segment and an empty delta), and
//! ViST (dynamic labels + Algorithm 2) —
//! must return *identical* results on arbitrary document sets and queries,
//! and all must agree with the brute-force subsequence-matching reference
//! (`vist_query::sequence_matches`). With verification on, ViST must agree
//! with the exact tree-embedding oracle. Driven by a seeded splitmix64
//! generator so runs are deterministic.

use vist_core::{IndexOptions, NaiveIndex, QueryOptions, VistIndex};
use vist_query::{matches_document, sequence_matches, translate, Pattern, TranslateOptions};
use vist_seq::{document_to_sequence, SiblingOrder, SymbolTable};
use vist_storage::testutil::TempDir;
use vist_xml::{Document, ElementBuilder};

/// Small vocabularies force structural sharing and collisions.
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
    let depth = rng.below(4);
    random_element(rng, depth).into_document()
}

/// Random queries over the same vocabulary: paths with optional wildcards,
/// descendant steps, one optional branch predicate and one optional value.
fn random_query(rng: &mut Rng) -> String {
    let steps = 1 + rng.below(3);
    let mut q = String::new();
    for _ in 0..steps {
        let n = rng.below(NAMES.len() + 1);
        let name = if n == NAMES.len() { "*" } else { NAMES[n] };
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
    if rng.below(2) == 0 {
        q.push_str(&format!("[text='{}']", VALUES[rng.below(VALUES.len())]));
    }
    q
}

/// Reference answer: brute-force subsequence matching per document.
fn reference_answer(pattern: &Pattern, docs: &[Document]) -> Vec<u64> {
    let mut table = SymbolTable::new();
    let seqs: Vec<_> = docs
        .iter()
        .map(|d| document_to_sequence(d, &mut table, &SiblingOrder::Lexicographic))
        .collect();
    let translation = translate(pattern, &mut table, &TranslateOptions::default());
    let mut out = Vec::new();
    for (i, seq) in seqs.iter().enumerate() {
        if translation
            .sequences
            .iter()
            .any(|qs| sequence_matches(qs, seq))
        {
            out.push(i as u64);
        }
    }
    out
}

#[test]
fn all_engines_agree() {
    for case in 0..48u64 {
        let mut rng = Rng(0xE9_A6E ^ (case << 9));
        let docs: Vec<Document> = (0..1 + rng.below(11))
            .map(|_| random_doc(&mut rng))
            .collect();
        let queries: Vec<String> = (0..1 + rng.below(5))
            .map(|_| random_query(&mut rng))
            .collect();

        let mut naive = NaiveIndex::default();
        let vist = VistIndex::in_memory(IndexOptions::default()).unwrap();
        // Stress dynamic labeling too: tiny λ without adaptivity.
        let vist_tiny = VistIndex::in_memory(IndexOptions {
            lambda: 2,
            adaptive: false,
            ..Default::default()
        })
        .unwrap();
        for d in &docs {
            naive.insert_document(d);
            vist.insert_document(d).unwrap();
            vist_tiny.insert_document(d).unwrap();
        }
        let dir = TempDir::new("equivalence-rist");
        let rist = VistIndex::create_file(dir.file("rist"), IndexOptions::default()).unwrap();
        rist.bulk_build(docs.iter().map(Document::to_xml)).unwrap();
        assert_eq!((rist.stats().segments, rist.stats().nodes), (1, 0));

        let opts = QueryOptions::default();
        for q in &queries {
            let pattern = vist_query::parse_query(q).unwrap().to_pattern();
            let expect = reference_answer(&pattern, &docs);
            let n = naive.query(q, &opts).unwrap();
            let r = rist.query(q, &opts).unwrap().doc_ids;
            let v = vist.query(q, &opts).unwrap().doc_ids;
            let vt = vist_tiny.query(q, &opts).unwrap().doc_ids;
            assert_eq!(&n, &expect, "naive vs reference: {q}");
            assert_eq!(&r, &expect, "rist vs reference: {q}");
            assert_eq!(&v, &expect, "vist vs reference: {q}");
            assert_eq!(&vt, &expect, "vist(λ=2 fixed) vs reference: {q}");
        }
    }
}

#[test]
fn verified_queries_match_exact_oracle() {
    for case in 0..48u64 {
        let mut rng = Rng(0x0_4AC1E ^ (case << 9));
        let docs: Vec<Document> = (0..1 + rng.below(9))
            .map(|_| random_doc(&mut rng))
            .collect();
        let queries: Vec<String> = (0..1 + rng.below(4))
            .map(|_| random_query(&mut rng))
            .collect();

        let vist = VistIndex::in_memory(IndexOptions::default()).unwrap();
        for d in &docs {
            vist.insert_document(d).unwrap();
        }
        for q in &queries {
            let pattern = vist_query::parse_query(q).unwrap().to_pattern();
            let exact: Vec<u64> = docs
                .iter()
                .enumerate()
                .filter(|(_, d)| matches_document(&pattern, d, &SiblingOrder::Lexicographic))
                .map(|(i, _)| i as u64)
                .collect();
            let verified = vist
                .query(
                    q,
                    &QueryOptions {
                        verify: true,
                        ..Default::default()
                    },
                )
                .unwrap();
            assert_eq!(&verified.doc_ids, &exact, "query {q}");
            // Raw candidates are always a superset of the exact answer
            // (completeness: no false negatives).
            let raw = vist.query(q, &QueryOptions::default()).unwrap();
            for id in &exact {
                assert!(raw.doc_ids.contains(id), "false negative {id} for {q}");
            }
        }
    }
}

#[test]
fn dynamic_deletion_equals_fresh_build() {
    for case in 0..48u64 {
        let mut rng = Rng(0xDE1E7E ^ (case << 9));
        let docs: Vec<Document> = (0..2 + rng.below(8))
            .map(|_| random_doc(&mut rng))
            .collect();
        let remove_mask: Vec<bool> = (0..docs.len()).map(|_| rng.below(2) == 0).collect();
        let query = random_query(&mut rng);

        let vist = VistIndex::in_memory(IndexOptions::default()).unwrap();
        let ids: Vec<u64> = docs
            .iter()
            .map(|d| vist.insert_document(d).unwrap())
            .collect();
        let mut kept = Vec::new();
        for (i, d) in docs.iter().enumerate() {
            if remove_mask[i] {
                vist.remove_document(ids[i]).unwrap();
            } else {
                kept.push((ids[i], d.clone()));
            }
        }
        let pattern = vist_query::parse_query(&query).unwrap().to_pattern();
        let kept_docs: Vec<Document> = kept.iter().map(|(_, d)| d.clone()).collect();
        let expect_local = reference_answer(&pattern, &kept_docs);
        // Map local indices back to original ids.
        let expect: Vec<u64> = expect_local.iter().map(|&i| kept[i as usize].0).collect();
        let got = vist
            .query(&query, &QueryOptions::default())
            .unwrap()
            .doc_ids;
        assert_eq!(got, expect, "after deletion: {query}");
    }
}
