//! Counter-aggregation invariants: the *logical* work counters of the
//! per-query [`QueryStats`] the match engine reports must not depend on
//! whether the workload's queries ran one after another or at the same
//! time on several threads, summed over a workload.
//!
//! Concrete (wildcard-free) queries are used throughout: their frame
//! expansion is deterministic, so `work_items` and `scopes_merged` must be
//! bit-identical between a serial and a parallel run.

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

/// Run the workload on a fresh index — one query after another, or with
/// `parallel` each query on a thread of its own, all at once; return each
/// query's doc ids and result stats.
fn run_workload(parallel: bool) -> Vec<(Vec<u64>, QueryStats)> {
    let idx = build_index();
    let run = |q: &str| {
        let r = idx.query(q, &QueryOptions::default()).unwrap();
        (r.doc_ids, r.stats)
    };
    if !parallel {
        return QUERIES.iter().map(|q| run(q)).collect();
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = QUERIES.iter().map(|q| s.spawn(move || run(q))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
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
    let serial = sum(&run_workload(false));
    let parallel = sum(&run_workload(true));
    assert!(serial.work_items > 0, "workload expanded no frames");
    for ((name, one), (_, four)) in serial.fields().into_iter().zip(parallel.fields()) {
        // Attributed I/O depends on what the pool held when each query ran.
        if !name.starts_with("io_") {
            assert_eq!(one, four, "{name}");
        }
    }
}
