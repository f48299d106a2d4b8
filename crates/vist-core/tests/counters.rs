//! Counter-aggregation invariants: the *logical* work counters of the
//! per-query [`QueryStats`] the match engine reports must not depend on how
//! many workers executed the query, one query at a time or summed over a
//! workload.
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

/// Run the workload on a fresh index; return each query's doc ids and
/// result stats.
fn run_workload(workers: usize) -> Vec<(Vec<u64>, QueryStats)> {
    let idx = build_index();
    QUERIES
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
        .collect()
}

/// The workload's per-query counters, summed.
fn sum(per_query: &[(Vec<u64>, QueryStats)]) -> QueryStats {
    let mut sum = QueryStats::default();
    for (_, s) in per_query {
        sum.merge(s);
    }
    sum
}

#[test]
fn serial_and_parallel_sums_agree() {
    let serial = sum(&run_workload(1));
    let parallel = sum(&run_workload(4));
    assert!(serial.work_items > 0, "workload expanded no frames");
    assert_eq!(serial.steals, 0, "a serial run stole work");
    for ((name, one), (_, four)) in serial.fields().into_iter().zip(parallel.fields()) {
        // Steals depend on scheduling; attributed I/O on what the pool
        // held when each query ran.
        if name != "steals" && !name.starts_with("io_") {
            assert_eq!(one, four, "{name}");
        }
    }
}

#[test]
fn logical_work_is_worker_count_invariant() {
    let serial = run_workload(1);
    let parallel = run_workload(4);
    for (q, ((docs1, s1), (docs4, s4))) in QUERIES.iter().zip(serial.iter().zip(parallel.iter())) {
        assert_eq!(docs1, docs4, "answers differ for {q}");
        assert_eq!(s1.work_items, s4.work_items, "work_items differ for {q}");
        assert_eq!(
            s1.scopes_merged, s4.scopes_merged,
            "scopes_merged differ for {q}"
        );
        assert_eq!(s1.steals, 0, "serial run stole work for {q}");
    }
}
