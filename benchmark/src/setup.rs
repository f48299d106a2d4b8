//! Set-up shared by the four workloads: the seeded corpus, the file-backed
//! tiered base index (one packed segment + a live delta) and the oracle.

use std::path::PathBuf;
use std::time::Instant;

use vist_core::{IndexOptions, NaiveIndex, VistIndex};
use vist_datagen::{dblp, xmark};
use vist_xml::Document;

use crate::util::{Rng, TempDir};

pub const PAGE_SIZE: usize = 4096;
pub const INDEX_FILE: &str = "base.vist";
/// Documents per `insert_batch` call, in set-up and in `ingest-mixed`.
pub const BATCH_DOCS: usize = 256;
/// Pool the base index is built with (the workloads re-open with their own).
const BUILD_POOL_PAGES: usize = 4096;
/// Seed of the document population. It is fixed: between two populations of
/// this size the hit counts of the Table-3 queries differ by about 5%, more
/// than the regressions the benchmark has to resolve. `--seed` decides the
/// order of the population (so the ids, and which documents are in the
/// segment and which in the delta), the batches, removals and lookups of
/// `ingest-mixed`, the request streams and the probe keys.
const POPULATION_SEED: u64 = 42;

/// Corpus sizes and the fixed counts of each workload's unit of work.
pub struct Scale {
    pub smoke: bool,
    pub dblp: usize,
    pub xmark: usize,
    /// `table4-warm` / `scan-spill`: unmeasured rounds before the first
    /// measured one.
    pub warm_rounds: usize,
    /// `ingest-mixed`: batches per cycle.
    pub iterations: usize,
    /// `serve-topk`: unmeasured requests per connection.
    pub warm_requests: usize,
    /// Entries of the micro-probe B+Tree.
    pub probe_entries: usize,
}

impl Scale {
    pub fn new(smoke: bool) -> Self {
        if smoke {
            Scale {
                smoke,
                dblp: 2_000,
                xmark: 1_200,
                warm_rounds: 1,
                iterations: 4,
                warm_requests: 50,
                probe_entries: 50_000,
            }
        } else {
            Scale {
                smoke,
                dblp: 10_000,
                xmark: 6_000,
                warm_rounds: 5,
                iterations: 8,
                warm_requests: 500,
                probe_entries: 400_000,
            }
        }
    }
}

/// A document `ingest-mixed` inserts, with what its read-your-writes
/// lookup needs.
pub struct Fresh {
    pub xml: String,
    pub kind: String,
    pub key: String,
}

#[derive(Default, Clone, Copy)]
pub struct SetupTimes {
    pub corpus_s: f64,
    pub bulk_s: f64,
    pub delta_s: f64,
    pub oracle_s: f64,
    pub total_s: f64,
}

pub struct Base {
    pub dir: TempDir,
    /// §3.2 semantics over the base documents followed by the fresh ones;
    /// its ids are insertion order, as the index's are.
    pub oracle: NaiveIndex,
    /// Base documents: ids `0..docs`, the first `segment_docs` of them in
    /// the segment, the rest in the delta.
    pub docs: usize,
    pub segment_docs: usize,
    pub xml_bytes: u64,
    /// Size of the packed segment and of the XML it was built from.
    pub segment_bytes: u64,
    pub segment_xml_bytes: u64,
    pub fresh: Vec<Fresh>,
    pub times: SetupTimes,
}

impl Base {
    pub fn index_path(&self) -> PathBuf {
        self.dir.file(INDEX_FILE)
    }
}

/// Build corpus, base index and oracle in the order `seed` draws. `fresh`
/// more DBLP-like documents are generated for `ingest-mixed` and entered
/// into the oracle after the base documents.
pub fn build(scale: &Scale, seed: u64, fresh: usize) -> Base {
    let started = Instant::now();
    let mut times = SetupTimes::default();

    let mut rng = Rng::new(seed);
    let mut docs: Vec<Document> = dblp::documents(scale.dblp, POPULATION_SEED);
    docs.extend(xmark::documents(scale.xmark, POPULATION_SEED + 1));
    rng.shuffle(&mut docs);
    let xmls: Vec<String> = docs.iter().map(Document::to_xml).collect();
    let mut fresh_docs = dblp::documents(fresh, POPULATION_SEED + 2);
    rng.shuffle(&mut fresh_docs);
    let fresh: Vec<Fresh> = fresh_docs
        .iter()
        .map(|d| {
            let root = d.root().expect("generated record has a root");
            Fresh {
                xml: d.to_xml(),
                kind: d.name(root).to_string(),
                key: d.attribute(root, "key").unwrap_or_default().to_string(),
            }
        })
        .collect();
    times.corpus_s = started.elapsed().as_secs_f64();

    let dir = TempDir::new("base");
    let opts = IndexOptions {
        page_size: PAGE_SIZE,
        cache_pages: BUILD_POOL_PAGES,
        ..IndexOptions::default()
    };
    let index = VistIndex::create_file(dir.file(INDEX_FILE), opts).expect("create base index");
    let segment_docs = xmls.len() * 9 / 10;
    let t = Instant::now();
    let ids = index
        .bulk_build(&xmls[..segment_docs])
        .expect("bulk_build base segment");
    assert_eq!(ids.len(), segment_docs);
    times.bulk_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for chunk in xmls[segment_docs..].chunks(BATCH_DOCS) {
        index
            .insert_batch(chunk, 1)
            .expect("insert_batch base delta");
    }
    index.flush().expect("flush base index");
    times.delta_s = t.elapsed().as_secs_f64();
    let stats = index.stats();
    assert_eq!(stats.segments, 1, "base index has one packed segment");
    assert_eq!(stats.documents as usize, xmls.len());
    let order = index.order().clone();
    drop(index);

    let t = Instant::now();
    let mut oracle = NaiveIndex::new(order);
    for doc in docs.iter().chain(&fresh_docs) {
        oracle.insert_document(doc);
    }
    times.oracle_s = t.elapsed().as_secs_f64();

    times.total_s = started.elapsed().as_secs_f64();
    Base {
        dir,
        oracle,
        docs: xmls.len(),
        segment_docs,
        xml_bytes: xmls.iter().map(|x| x.len() as u64).sum(),
        segment_bytes: stats.segment_bytes,
        segment_xml_bytes: xmls[..segment_docs].iter().map(|x| x.len() as u64).sum(),
        fresh,
        times,
    }
}
