//! The two read-only workloads (`table4-warm`, `scan-spill`) and the
//! Table-3 probe every traced run ends with. All of them are rounds: one
//! pass over a fixed query list, each answer checked against the oracle.

use std::time::Instant;

use vist_core::{DocId, NaiveIndex, QueryOptions, VistIndex};
use vist_datagen::{dblp, xmark};

use crate::schema::Values;
use crate::setup::{Base, Scale, PAGE_SIZE};
use crate::trace::Recorder;
use crate::util::{dir_bytes, median, quantile, ratio, Budget};
use crate::Outcome;

pub struct Spec {
    /// `q1`..`q8` for the Table-3 queries, `s01`..`s13` for the scans.
    pub label: &'static str,
    /// Span name, `query.<label>`.
    pub span: &'static str,
    pub expr: String,
}

fn spec(label: &str, expr: String) -> Spec {
    let label: &'static str = label.to_lowercase().leak();
    Spec {
        label,
        span: format!("query.{label}").leak(),
        expr,
    }
}

/// The paper's Table-3 queries: Q1-Q5 on the DBLP-like records, Q6-Q8 on
/// the XMARK-like ones.
pub fn table3() -> Vec<Spec> {
    dblp::table3_queries()
        .into_iter()
        .chain(xmark::table3_queries())
        .map(|(label, expr)| spec(label, expr))
        .collect()
}

/// High-cardinality path scans: each touches every leaf of its range once.
pub const SCAN_PATHS: [&str; 13] = [
    "/inproceedings/title",
    "/article/title",
    "/article/journal",
    "/inproceedings/booktitle",
    "/article/year",
    "/inproceedings/year",
    "/article/url",
    "/inproceedings/pages",
    "/article/volume",
    "/site/regions",
    "/site/people/person/name",
    "/site/closed_auctions/closed_auction/date",
    "/site/open_auctions/open_auction",
];

pub fn scans() -> Vec<Spec> {
    SCAN_PATHS
        .iter()
        .enumerate()
        .map(|(i, p)| spec(&format!("s{:02}", i + 1), (*p).to_string()))
        .collect()
}

pub fn oracle_answer(oracle: &mut NaiveIndex, expr: &str) -> Vec<DocId> {
    oracle
        .query(expr, &QueryOptions::default())
        .expect("oracle query")
}

pub fn oracle_answers(oracle: &mut NaiveIndex, specs: &[Spec]) -> Vec<Vec<DocId>> {
    specs
        .iter()
        .map(|s| oracle_answer(oracle, &s.expr))
        .collect()
}

/// Counts of one query that must repeat exactly, round after round and run
/// after run.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct ExactCounts {
    pub hits: u64,
    pub work_items: u64,
    pub pool_fetches: u64,
}

#[derive(Default)]
pub struct Rounds {
    pub round_ms: Vec<f64>,
    /// Per query, one sample per measured round.
    pub query_us: Vec<Vec<f64>>,
    pub counts: Vec<ExactCounts>,
    pub attempted: u64,
    pub failed: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub pages_read: u64,
    pub planner_probes: u64,
    pub planner_prunes: u64,
    /// translate, plan, match, merge, docid, total (nanoseconds, summed).
    pub stage_ns: [u64; 6],
}

impl Rounds {
    pub fn secs(&self) -> f64 {
        self.round_ms.iter().sum::<f64>() / 1e3
    }

    pub fn queries(&self) -> u64 {
        (self.round_ms.len() * self.query_us.len()) as u64
    }
}

/// Run `warm` unmeasured rounds, then measured rounds while `budget`
/// allows. `plant` corrupts the first answer before it is checked (the
/// self-test of the check).
pub fn run_rounds(
    index: &VistIndex,
    specs: &[Spec],
    expected: &[Vec<DocId>],
    rec: &mut Recorder,
    warm: usize,
    budget: Budget,
    mut plant: bool,
) -> Rounds {
    let opts = QueryOptions::default();
    let mut out = Rounds {
        query_us: vec![Vec::new(); specs.len()],
        ..Rounds::default()
    };
    let mut answers: Vec<Vec<DocId>> = vec![Vec::new(); specs.len()];
    let mut counts = vec![ExactCounts::default(); specs.len()];
    let mut started = Instant::now();
    let mut round = 0usize;
    loop {
        let measured = round >= warm;
        if round == warm {
            started = Instant::now();
        }
        if measured && !budget.allows(started, round - warm) {
            break;
        }
        // Warm-up rounds go unrecorded: the span file holds measured work.
        let was_on = rec.is_on();
        rec.set_on(was_on && measured);
        let open_round = rec.begin("round");
        for (i, spec) in specs.iter().enumerate() {
            let open = rec.begin(spec.span);
            let result = index.query(&spec.expr, &opts);
            let (stats, timings, ids) = match result {
                Ok(r) => (r.stats, r.timings, r.doc_ids),
                Err(e) => {
                    eprintln!("query {} failed: {e}", spec.expr);
                    (Default::default(), Default::default(), vec![DocId::MAX])
                }
            };
            let c = ExactCounts {
                hits: ids.len() as u64,
                work_items: stats.work_items,
                pool_fetches: stats.io_pool_hits + stats.io_pool_misses,
            };
            let took = rec.end_with(
                open,
                &[
                    ("hits", c.hits),
                    ("work_items", c.work_items),
                    ("pool_hits", stats.io_pool_hits),
                    ("pool_misses", stats.io_pool_misses),
                    ("pages_read", stats.io_pages_read),
                ],
            );
            answers[i] = ids;
            counts[i] = c;
            if measured {
                out.query_us[i].push(took.as_secs_f64() * 1e6);
                out.pool_hits += stats.io_pool_hits;
                out.pool_misses += stats.io_pool_misses;
                out.pages_read += stats.io_pages_read;
                out.planner_probes += stats.planner_probes;
                out.planner_prunes += stats.planner_probe_prunes + stats.planner_seqs_pruned;
                for (sum, ns) in out.stage_ns.iter_mut().zip([
                    timings.translate_nanos,
                    timings.plan_nanos,
                    timings.match_nanos,
                    timings.merge_nanos,
                    timings.docid_nanos,
                    timings.total_nanos,
                ]) {
                    *sum += ns;
                }
            }
        }
        let took = rec.end(open_round);
        rec.set_on(was_on);
        if measured {
            out.round_ms.push(took.as_secs_f64() * 1e3);
        }
        // Checked after the round, so checking is in no timed span.
        if plant {
            answers[0].pop();
            plant = false;
        }
        for (i, spec) in specs.iter().enumerate() {
            out.attempted += 1;
            if answers[i] != expected[i] {
                out.failed += 1;
                eprintln!(
                    "WRONG ANSWER {} {}: {} ids, oracle has {}",
                    spec.label,
                    spec.expr,
                    answers[i].len(),
                    expected[i].len()
                );
            }
        }
        if out.counts.is_empty() {
            out.counts = counts.clone();
        } else if out.counts != counts {
            out.failed += 1;
            eprintln!(
                "COUNT DRIFT in round {round}: a query's exact counts changed between rounds"
            );
        }
        round += 1;
    }
    out
}

/// Table-3 per-layer metrics from rounds over `table3()`.
pub fn table3_metrics(specs: &[Spec], r: &Rounds, layer: &mut Values) {
    let n = r.round_ms.len();
    for (i, s) in specs.iter().enumerate() {
        let c = r.counts[i];
        layer.set(
            &format!("search.{}.p50_us", s.label),
            median(&r.query_us[i]),
            n,
        );
        layer.set(&format!("search.{}.hits", s.label), c.hits as f64, 1);
        layer.set(
            &format!("search.{}.work_items", s.label),
            c.work_items as f64,
            1,
        );
        layer.set(
            &format!("search.{}.pool_fetches", s.label),
            c.pool_fetches as f64,
            1,
        );
    }
    // A class time is the per-round sum of its queries, so its median never
    // sits between two queries.
    let class = |members: &[usize]| -> f64 {
        let sums: Vec<f64> = (0..n)
            .map(|round| members.iter().map(|&q| r.query_us[q][round]).sum::<f64>() / 1e3)
            .collect();
        median(&sums)
    };
    layer.set("search.path_p50_ms", class(&[0, 1, 4]), n);
    layer.set("search.wildcard_p50_ms", class(&[2, 3]), n);
    layer.set("search.branch_p50_ms", class(&[5, 6, 7]), n);
    let work_items: u64 = r.counts.iter().map(|c| c.work_items).sum();
    let fetches: u64 = r.counts.iter().map(|c| c.pool_fetches).sum();
    layer.set(
        "search.ns_per_work_item",
        ratio(median(&r.round_ms) * 1e6, work_items as f64),
        n,
    );
    layer.set(
        "search.fetches_per_work_item",
        ratio(fetches as f64, work_items as f64),
        1,
    );
    layer.set(
        "search.planner_probes",
        ratio(r.planner_probes as f64, n as f64),
        1,
    );
    layer.set(
        "search.planner_prunes",
        ratio(r.planner_prunes as f64, n as f64),
        1,
    );
    let total = r.stage_ns[5] as f64;
    for (name, ns) in ["translate", "plan", "match", "merge", "docid"]
        .iter()
        .zip(r.stage_ns)
    {
        layer.set(
            &format!("search.share.{name}"),
            100.0 * ratio(ns as f64, total),
            n,
        );
    }
}

/// Pool and pager counts of a query workload's measured rounds.
fn io_metrics(r: &Rounds, layer: &mut Values) {
    let n = r.round_ms.len();
    layer.set(
        "pool.hit_ratio",
        ratio(r.pool_hits as f64, (r.pool_hits + r.pool_misses) as f64),
        n,
    );
    layer.set(
        "pool.misses_per_round",
        ratio(r.pool_misses as f64, n as f64),
        n,
    );
    layer.set("pager.pages_read", ratio(r.pages_read as f64, n as f64), n);
}

/// Ten rounds of Q1-Q8 on `index`: the `search.qN.*` rows of a workload
/// whose own operations are not the Table-3 queries.
pub fn table3_probe(
    index: &VistIndex,
    expected: &[Vec<DocId>],
    rec: &mut Recorder,
    scale: &Scale,
    out: &mut Outcome,
) {
    let specs = table3();
    let rounds = if scale.smoke { 3 } else { 10 };
    let r = run_rounds(
        index,
        &specs,
        expected,
        rec,
        1,
        Budget::Units(rounds),
        false,
    );
    out.attempted += r.attempted;
    out.failed += r.failed;
    table3_metrics(&specs, &r, &mut out.layer);
}

pub enum QueryWorkload {
    Table4Warm,
    ScanSpill,
}

impl QueryWorkload {
    /// Pool pages: larger than the whole index, or about 1% of it.
    pub fn pool_pages(&self) -> usize {
        match self {
            QueryWorkload::Table4Warm => 16_384,
            QueryWorkload::ScanSpill => 64,
        }
    }
}

pub fn run(
    which: &QueryWorkload,
    base: &mut Base,
    scale: &Scale,
    rec: &mut Recorder,
    budget: Budget,
    plant: bool,
) -> Outcome {
    let mut out = Outcome::new(which.pool_pages(), 1);
    let table3_specs = table3();
    let table3_expected = oracle_answers(&mut base.oracle, &table3_specs);
    let index =
        VistIndex::open_file(base.index_path(), which.pool_pages()).expect("open base index");
    let stats = index.stats();
    out.index_pages = (stats.segment_bytes + stats.store_bytes) / PAGE_SIZE as u64;
    out.index_bytes = dir_bytes(base.dir.path());
    out.live_xml_bytes = base.xml_bytes;
    let r = match which {
        QueryWorkload::Table4Warm => {
            let r = run_rounds(
                &index,
                &table3_specs,
                &table3_expected,
                rec,
                scale.warm_rounds,
                budget,
                plant,
            );
            if rec.is_on() {
                table3_metrics(&table3_specs, &r, &mut out.layer);
            }
            r
        }
        QueryWorkload::ScanSpill => {
            let specs = scans();
            let expected = oracle_answers(&mut base.oracle, &specs);
            let r = run_rounds(
                &index,
                &specs,
                &expected,
                rec,
                scale.warm_rounds,
                budget,
                plant,
            );
            let hits: u64 = r.counts.iter().map(|c| c.hits).sum();
            out.layer.set(
                "search.scan_ns_per_hit",
                ratio(median(&r.round_ms) * 1e6, hits as f64),
                r.round_ms.len(),
            );
            if rec.is_on() {
                table3_probe(&index, &table3_expected, rec, scale, &mut out);
            }
            r
        }
    };
    io_metrics(&r, &mut out.layer);
    out.layer.set(
        "search.round_p90_ms",
        quantile(&r.round_ms, 0.9),
        r.round_ms.len(),
    );
    out.attempted += r.attempted;
    out.failed += r.failed;
    out.layer.set(
        "search.queries_per_s",
        ratio(r.queries() as f64, r.secs()),
        r.queries() as usize,
    );
    out.round_ms = r.round_ms;
    out
}
