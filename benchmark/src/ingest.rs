//! `ingest-mixed`: the dynamic half of the paper, with reads beside the
//! writes.
//!
//! The unit of work is a *cycle* on a fresh copy of the base index: a fixed
//! number of iterations of (one durable 256-document `insert_batch`, 8
//! removals of documents inserted two batches earlier, a flush, 4 reads).
//! Every cycle does the same operations on the same state, so its counters
//! must repeat exactly; the time allowance only decides how many cycles
//! run. The first cycle ends with one `compact()`.

use std::collections::BTreeSet;
use std::time::Instant;

use vist_core::{DocId, QueryOptions, VistIndex};

use crate::queries::{self, Spec};
use crate::setup::{Base, Scale, BATCH_DOCS, INDEX_FILE, PAGE_SIZE};
use crate::trace::Recorder;
use crate::util::{copy_dir, dir_bytes, median, quantile, ratio, Budget, Rng, TempDir};
use crate::Outcome;

pub const POOL_PAGES: usize = 2_048;
const REMOVES: usize = 8;
const RYW_READS: usize = 2;

pub fn fresh_docs(scale: &Scale) -> usize {
    scale.iterations * BATCH_DOCS
}

/// One iteration's inputs and the answers the oracle expects after it.
struct Step {
    removes: Vec<DocId>,
    /// Q2, Q5, then the read-your-writes lookups.
    reads: Vec<(String, Vec<DocId>)>,
    /// Ids the read-your-writes answers must contain.
    new_ids: Vec<DocId>,
}

/// The oracle's answer as of one point in the cycle: documents inserted so
/// far (ids below `watermark`) that have not been removed.
fn as_of(all: &[DocId], watermark: DocId, removed: &BTreeSet<DocId>) -> Vec<DocId> {
    all.iter()
        .copied()
        .filter(|id| *id < watermark && !removed.contains(id))
        .collect()
}

/// The exact counters of one cycle.
#[derive(PartialEq, Eq, Clone, Copy)]
struct CycleCounts {
    wal_appends: u64,
    wal_commits: u64,
    page_writes: u64,
    write_backs: u64,
    delta_bytes: u64,
}

pub fn run(
    base: &mut Base,
    scale: &Scale,
    seed: u64,
    rec: &mut Recorder,
    budget: Budget,
    mut plant: bool,
) -> Outcome {
    let mut out = Outcome::new(POOL_PAGES, 1);
    // A window of rounds is a cycle: cycles are the stretches of equal work.
    out.window = scale.iterations;
    let opts = QueryOptions::default();
    let first_fresh = base.docs as DocId;
    let table3 = queries::table3();
    let (q2, q5) = (&table3[1].expr, &table3[4].expr);

    // The plan of a cycle, drawn from the seed, with the oracle's answers.
    let mut rng = Rng::new(seed ^ 0x1261_57ED);
    let q2_all = queries::oracle_answer(&mut base.oracle, q2);
    let q5_all = queries::oracle_answer(&mut base.oracle, q5);
    let mut removed: BTreeSet<DocId> = BTreeSet::new();
    let mut removed_xml_bytes = 0u64;
    let mut steps: Vec<Step> = Vec::new();
    for i in 0..scale.iterations {
        let batch_start = i * BATCH_DOCS;
        let watermark = first_fresh + (batch_start + BATCH_DOCS) as DocId;
        let mut removes = Vec::new();
        if i >= 2 {
            let mut picks: Vec<usize> = (0..BATCH_DOCS).collect();
            rng.shuffle(&mut picks);
            for p in &picks[..REMOVES] {
                let at = (i - 2) * BATCH_DOCS + p;
                removes.push(first_fresh + at as DocId);
                removed_xml_bytes += base.fresh[at].xml.len() as u64;
            }
        }
        removed.extend(&removes);
        let mut reads = vec![
            (q2.clone(), as_of(&q2_all, watermark, &removed)),
            (q5.clone(), as_of(&q5_all, watermark, &removed)),
        ];
        let mut new_ids = Vec::new();
        for _ in 0..RYW_READS {
            let at = batch_start + rng.below(BATCH_DOCS);
            let doc = &base.fresh[at];
            let expr = format!("/{}[key='{}']/title", doc.kind, doc.key);
            let all = queries::oracle_answer(&mut base.oracle, &expr);
            reads.push((expr, as_of(&all, watermark, &removed)));
            new_ids.push(first_fresh + at as DocId);
        }
        steps.push(Step {
            removes,
            reads,
            new_ids,
        });
    }
    // After the cycle every fresh document is in, the removed ones are out.
    let end_mark = first_fresh + base.fresh.len() as DocId;
    let table3_final: Vec<Vec<DocId>> = queries::oracle_answers(&mut base.oracle, &table3)
        .iter()
        .map(|all| as_of(all, end_mark, &removed))
        .collect();
    let fresh_xml: Vec<&str> = base.fresh.iter().map(|f| f.xml.as_str()).collect();
    let fresh_xml_bytes: u64 = fresh_xml.iter().map(|x| x.len() as u64).sum();
    out.live_xml_bytes = base.xml_bytes + fresh_xml_bytes - removed_xml_bytes;

    let mut batch_ms = Vec::new();
    let mut read_us = Vec::new();
    let mut ryw_us = Vec::new();
    let mut remove_us = Vec::new();
    let mut flush_ms = Vec::new();
    let mut first_counts: Option<CycleCounts> = None;
    let mut compacted: Option<(TempDir, VistIndex)> = None;
    let started = Instant::now();
    let mut cycles = 0usize;
    while budget.allows(started, cycles) {
        let dir = TempDir::new("cycle");
        copy_dir(base.dir.path(), dir.path());
        let index =
            VistIndex::open_file(dir.file(INDEX_FILE), POOL_PAGES).expect("open index copy");
        let s0 = index.stats();
        out.index_pages = (s0.segment_bytes + s0.store_bytes) / PAGE_SIZE as u64;
        let open_cycle = rec.begin("cycle");
        for (i, step) in steps.iter().enumerate() {
            let open_batch = rec.begin("batch");
            let docs = &fresh_xml[i * BATCH_DOCS..(i + 1) * BATCH_DOCS];
            let (ids, took) = rec.span("insert_batch", || index.insert_batch(docs, 1));
            batch_ms.push(took.as_secs_f64() * 1e3);
            for id in &step.removes {
                let (removed, took) = rec.span("remove_document", || index.remove_document(*id));
                remove_us.push(took.as_secs_f64() * 1e6);
                out.attempted += 1;
                if let Err(e) = removed {
                    out.failed += 1;
                    eprintln!("remove_document({id}) failed: {e}");
                }
            }
            let (flushed, took) = rec.span("flush", || index.flush());
            flush_ms.push(took.as_secs_f64() * 1e3);
            let mut answers = Vec::with_capacity(step.reads.len());
            let mut reads_took = 0.0;
            for (r, (expr, _)) in step.reads.iter().enumerate() {
                let (result, took) = rec.span("read", || index.query(expr, &opts));
                reads_took += took.as_secs_f64() * 1e6;
                if r >= 2 {
                    ryw_us.push(took.as_secs_f64() * 1e6);
                }
                answers.push(result.map(|r| r.doc_ids));
            }
            let took = rec.end(open_batch);
            out.round_ms.push(took.as_secs_f64() * 1e3);
            read_us.push(reads_took);

            // Checks, outside every timed span.
            let first_id = first_fresh + (i * BATCH_DOCS) as DocId;
            let want_ids: Vec<DocId> = (first_id..first_id + BATCH_DOCS as DocId).collect();
            out.attempted += 2;
            if ids.as_ref().ok() != Some(&want_ids) {
                out.failed += 1;
                eprintln!("insert_batch {i} failed or assigned unexpected ids");
            }
            if let Err(e) = flushed {
                out.failed += 1;
                eprintln!("flush failed: {e}");
            }
            for (r, ((expr, want), got)) in step.reads.iter().zip(answers).enumerate() {
                out.attempted += 1;
                let mut got = got.unwrap_or_else(|e| {
                    eprintln!("query {expr} failed: {e}");
                    vec![DocId::MAX]
                });
                if plant {
                    got.pop();
                    plant = false;
                }
                let sees_write = r < 2 || got.contains(&step.new_ids[r - 2]);
                if &got != want || !sees_write {
                    out.failed += 1;
                    eprintln!(
                        "WRONG ANSWER iteration {i} {expr}: {} ids, oracle has {}",
                        got.len(),
                        want.len()
                    );
                }
            }
        }
        let s1 = index.stats();
        let io = s1.io.since(&s0.io);
        let counts = CycleCounts {
            wal_appends: io.wal_appends,
            wal_commits: io.wal_commits,
            page_writes: io.writes,
            write_backs: io.write_backs,
            delta_bytes: s1.store_bytes,
        };
        if *first_counts.get_or_insert(counts) != counts {
            out.failed += 1;
            eprintln!("COUNT DRIFT in cycle {cycles}: WAL, page-write or size counts changed between cycles");
        }
        if cycles > 0 {
            rec.end(open_cycle);
            cycles += 1;
            continue;
        }

        // The first cycle alone ends with the compaction: once is enough to
        // time it, and the cycles after it stay short, so that several fit.
        let (result, took) = rec.span("compact", || index.compact());
        rec.end(open_cycle);
        out.attempted += 1;
        if let Err(e) = result {
            out.failed += 1;
            eprintln!("compact failed: {e}");
        }
        // The same answers must come from the compacted segment alone.
        let (checked, wrong) = check_answers(&index, &table3, &table3_final);
        out.attempted += checked;
        out.failed += wrong;
        let s2 = index.stats();
        out.index_bytes = dir_bytes(dir.path());
        let docs = fresh_xml.len() as f64;
        let live_docs = (base.docs + fresh_xml.len() - removed.len()) as f64;
        let delta = |after: u64, before: u64| (after - before) as f64;
        let dkey_hits = delta(s1.ingest_dkey_cache_hits, s0.ingest_dkey_cache_hits);
        let dkey_misses = delta(s1.ingest_dkey_cache_misses, s0.ingest_dkey_cache_misses);
        let edge_hits = delta(s1.ingest_edge_cache_hits, s0.ingest_edge_cache_hits);
        let edge_misses = delta(s1.ingest_edge_cache_misses, s0.ingest_edge_cache_misses);
        let l = &mut out.layer;
        l.set("pager.wal_appends_per_doc", io.wal_appends as f64 / docs, 1);
        l.set("pager.wal_commits", io.wal_commits as f64, 1);
        l.set(
            "pager.wal_bytes_per_xml_byte",
            (io.wal_appends * PAGE_SIZE as u64) as f64 / fresh_xml_bytes as f64,
            1,
        );
        l.set("pager.page_writes_per_doc", io.writes as f64 / docs, 1);
        l.set("pager.pages_read", io.reads as f64 / steps.len() as f64, 1);
        l.set("pool.write_backs", io.write_backs as f64, 1);
        l.set(
            "pool.hit_ratio",
            ratio(
                io.cache_hits as f64,
                (io.cache_hits + io.cache_misses) as f64,
            ),
            1,
        );
        l.set(
            "pool.misses_per_round",
            io.cache_misses as f64 / steps.len() as f64,
            1,
        );
        l.set(
            "ingest.dkey_cache_hit_ratio",
            ratio(dkey_hits, dkey_hits + dkey_misses),
            1,
        );
        l.set(
            "ingest.edge_cache_hit_ratio",
            ratio(edge_hits, edge_hits + edge_misses),
            1,
        );
        l.set(
            "ingest.delta_bytes_per_xml_byte",
            s1.store_bytes.saturating_sub(s0.store_bytes) as f64 / fresh_xml_bytes as f64,
            1,
        );
        l.set("segment.compact_s", took.as_secs_f64(), 1);
        l.set(
            "segment.compact_docs_per_s",
            ratio(live_docs, took.as_secs_f64()),
            1,
        );
        l.set("segment.compact_bytes_written", s2.segment_bytes as f64, 1);
        compacted = Some((dir, index));
        cycles += 1;
    }

    let docs_in = (cycles * fresh_xml.len()) as f64;
    let batch_secs = batch_ms.iter().sum::<f64>() / 1e3;
    let l = &mut out.layer;
    l.set(
        "ingest.docs_per_s",
        ratio(docs_in, batch_secs),
        batch_ms.len(),
    );
    l.set("ingest.batch_p50_ms", median(&batch_ms), batch_ms.len());
    l.set(
        "ingest.batch_p90_ms",
        quantile(&batch_ms, 0.9),
        batch_ms.len(),
    );
    l.set("ingest.read_p50_us", median(&read_us), read_us.len());
    l.set("ingest.ryw_p50_us", median(&ryw_us), ryw_us.len());
    l.set("ingest.remove_p50_us", median(&remove_us), remove_us.len());
    l.set("ingest.flush_p50_ms", median(&flush_ms), flush_ms.len());
    l.set(
        "search.round_p90_ms",
        quantile(&out.round_ms, 0.9),
        out.round_ms.len(),
    );
    if rec.is_on() {
        let (_dir, index) = compacted.as_ref().expect("the first cycle ran");
        queries::table3_probe(index, &table3_final, rec, scale, &mut out);
    }
    out
}

/// One unmeasured pass of `specs`, each answer compared with `expected`.
/// Returns (attempted, failed).
fn check_answers(index: &VistIndex, specs: &[Spec], expected: &[Vec<DocId>]) -> (u64, u64) {
    let mut failed = 0;
    for (spec, want) in specs.iter().zip(expected) {
        let got = index
            .query(&spec.expr, &QueryOptions::default())
            .map(|r| r.doc_ids);
        if got.as_ref().ok() != Some(want) {
            failed += 1;
            eprintln!("WRONG ANSWER after compact(): {}", spec.expr);
        }
    }
    (specs.len() as u64, failed)
}
