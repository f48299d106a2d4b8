//! Counter-aggregation invariants: the per-query [`QueryStats`] the match
//! engine reports must fold correctly into the index-lifetime
//! totals of [`vist_core::IndexStats::queries`], and the *logical* work counters must not
//! depend on how many workers executed the query.
//!
//! Concrete (wildcard-free) queries are used throughout: their frame
//! expansion is deterministic, so `work_items` and `scopes_merged` must be
//! bit-identical between a serial and a parallel run. `steals` is the one
//! counter that legitimately varies with scheduling — it must simply be
//! zero whenever a single worker runs.

use vist_core::{IndexOptions, QueryOptions, QueryStats, VistIndex};

const QUERIES: &[&str] = &[
    "/r/a[text='3']",
    "/r/b/c",
    "/r[a='1']/b/c[text='2']",
    "/r/b[c='5']",
    "/r/a",
];

fn build_index() -> VistIndex {
    let idx = VistIndex::in_memory(IndexOptions::default()).unwrap();
    for i in 0..200 {
        idx.insert_xml(&format!("<r><a>{}</a><b><c>{}</c></b></r>", i % 13, i % 7))
            .unwrap();
    }
    idx
}

/// Run the workload on a fresh index; return each query's result stats and
/// doc ids alongside the index's final cumulative counters.
fn run_workload(workers: usize) -> (Vec<(Vec<u64>, QueryStats)>, vist_core::IndexStats) {
    let idx = build_index();
    let per_query: Vec<(Vec<u64>, QueryStats)> = QUERIES
        .iter()
        .map(|q| {
            let r = idx
                .query(
                    q,
                    &QueryOptions {
                        workers,
                        ..Default::default()
                    },
                )
                .unwrap();
            (r.doc_ids, r.stats)
        })
        .collect();
    let stats = idx.stats();
    (per_query, stats)
}

#[test]
fn cumulative_counters_equal_per_query_sums() {
    for workers in [1, 4] {
        let (per_query, stats) = run_workload(workers);
        let mut sum = QueryStats::default();
        for (_, s) in &per_query {
            sum.merge(s);
        }
        for ((name, total), (_, expect)) in stats.queries.fields().into_iter().zip(sum.fields()) {
            // Attributed I/O is per request; the running totals carry none.
            if !name.starts_with("io_") {
                assert_eq!(total, expect, "{name}, workers={workers}");
            }
        }
        assert!(sum.work_items > 0, "workload expanded no frames");
    }
}

#[test]
fn logical_work_is_worker_count_invariant() {
    let (serial, serial_stats) = run_workload(1);
    let (parallel, parallel_stats) = run_workload(4);
    for (q, ((docs1, s1), (docs4, s4))) in QUERIES.iter().zip(serial.iter().zip(parallel.iter())) {
        assert_eq!(docs1, docs4, "answers differ for {q}");
        assert_eq!(s1.work_items, s4.work_items, "work_items differ for {q}");
        assert_eq!(
            s1.scopes_merged, s4.scopes_merged,
            "scopes_merged differ for {q}"
        );
        assert_eq!(s1.steals, 0, "serial run stole work for {q}");
    }
    assert_eq!(
        serial_stats.queries.work_items,
        parallel_stats.queries.work_items
    );
    assert_eq!(
        serial_stats.queries.scopes_merged,
        parallel_stats.queries.scopes_merged
    );
    assert_eq!(serial_stats.queries.steals, 0);
}
