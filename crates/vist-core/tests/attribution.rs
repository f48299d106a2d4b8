//! Per-query I/O attribution invariant.
//!
//! Every buffer-pool probe, page read, and WAL append that happens while
//! a query runs is charged to that query's attribution scope
//! ([`vist_obs::attr`]), whichever entry ran it: `query`,
//! `query_pattern`, `explain` or `match_scopes`. Over a query-only window,
//! the sum of per-query attribution counters equals the process-global
//! registry deltas — nothing double-charged, nothing leaked.
//!
//! The binary holds this one test: the registry is process-global and the
//! deltas must not see another test's I/O.

use vist_core::{IndexOptions, QueryOptions, QueryStats, VistIndex};
use vist_obs::AttrSnapshot;
use vist_query::parse_query;
use vist_storage::testutil::TempDir;

const QUERIES: &[&str] = &[
    "/r/a[text='3']",
    "/r/b/c",
    "/r[a='1']/b/c[text='2']",
    "/r/b[c='5']",
    "/r/a",
];

fn build_file_index(dir: &TempDir) -> std::path::PathBuf {
    let path = dir.file("attr.vist");
    let idx = VistIndex::create_file(&path, IndexOptions::default()).unwrap();
    for i in 0..300 {
        idx.insert_xml(&format!("<r><a>{}</a><b><c>{}</c></b></r>", i % 13, i % 7))
            .unwrap();
    }
    idx.flush().unwrap();
    path
}

fn io_of(s: &QueryStats) -> AttrSnapshot {
    AttrSnapshot {
        pool_hits: s.io_pool_hits,
        pool_misses: s.io_pool_misses,
        pages_read: s.io_pages_read,
        bytes_read: s.io_bytes_read,
        wal_appends: s.io_wal_appends,
    }
}

/// The I/O of `explain`'s `pool:` line: hits, misses and pages read.
fn explained_io(report: &str) -> AttrSnapshot {
    let line = report.lines().find(|l| l.starts_with("pool:")).unwrap();
    let n: Vec<u64> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|w| w.parse().ok())
        .collect();
    let &[pool_hits, pool_misses, pages_read] = &n[..] else {
        panic!("{line}");
    };
    AttrSnapshot {
        pool_hits,
        pool_misses,
        pages_read,
        bytes_read: pages_read * IndexOptions::default().page_size as u64,
        wal_appends: 0,
    }
}

fn add(a: AttrSnapshot, b: AttrSnapshot) -> AttrSnapshot {
    AttrSnapshot {
        pool_hits: a.pool_hits + b.pool_hits,
        pool_misses: a.pool_misses + b.pool_misses,
        pages_read: a.pages_read + b.pages_read,
        bytes_read: a.bytes_read + b.bytes_read,
        wal_appends: a.wal_appends + b.wal_appends,
    }
}

#[test]
fn per_query_attribution_sums_to_registry_deltas() {
    let dir = TempDir::new("attr-diff");
    let path = build_file_index(&dir);
    // A small cache forces real misses and page reads mid-query.
    let idx = VistIndex::open_file(&path, 64).unwrap();
    let before = vist_obs::snapshot();
    let mut sum = AttrSnapshot::default();
    let opts = QueryOptions::default();
    for q in QUERIES {
        let r = idx.query(q, &opts).unwrap();
        assert_ne!(r.trace_id, 0, "query ran without a trace id");
        let pattern = parse_query(q).unwrap().to_pattern();
        for io in [
            io_of(&r.stats),
            io_of(&idx.query_pattern(&pattern, &opts).unwrap().stats),
            explained_io(&idx.explain(q, &opts, false).unwrap()),
            io_of(&idx.match_scopes(&pattern, &opts).unwrap().1),
        ] {
            sum = add(sum, io);
        }
    }
    let after = vist_obs::snapshot();
    let delta = |name: &str| after.counter(name) - before.counter(name);
    assert_eq!(sum.pool_hits, delta("vist_storage_pool_hit_total"));
    assert_eq!(sum.pool_misses, delta("vist_storage_pool_miss_total"));
    // Each miss reads exactly one page; queries never append to the WAL.
    assert_eq!(sum.pages_read, sum.pool_misses);
    assert_eq!(sum.wal_appends, 0);
    assert_eq!(delta("vist_storage_wal_append_total"), 0);
    assert!(
        sum.pool_hits + sum.pool_misses > 0,
        "workload did no pool I/O"
    );
    assert!(sum.pages_read > 0, "cache of 64 pages produced no misses");
    if sum.pages_read > 0 {
        assert_eq!(sum.bytes_read % sum.pages_read, 0, "non-uniform page size");
    }
}
