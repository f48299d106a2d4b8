//! Per-query I/O attribution invariants.
//!
//! Every buffer-pool probe, page read, and WAL append that happens while
//! a query runs is charged to that query's attribution context
//! ([`vist_obs::attr`]), including work done on match-pool worker
//! threads. Two properties pin the design down:
//!
//! 1. **Differential**: over a query-only window, the sum of per-query
//!    attribution counters equals the process-global registry deltas —
//!    nothing double-charged, nothing leaked.
//! 2. **Schedule independence**: for a concrete (wildcard-free) query on
//!    a cold cache large enough to avoid evictions, attribution is
//!    bit-for-bit identical between a serial run and a 4-worker run: the
//!    set of frames expanded is schedule-invariant, so the first touch
//!    of each page is a miss and every later touch a hit regardless of
//!    which worker made it. (Wildcard queries are exempt: their dedup
//!    sets are per-worker, so duplicate sub-problems may be re-expanded
//!    under one schedule and skipped under another.)
//! 3. **Stolen work stays charged**: a wildcard query over structurally
//!    diverse documents fans out enough frames that 4 workers observably
//!    steal; the per-query sum still equals the registry delta, so I/O
//!    done on a donated frame landed in the owning query's context, not
//!    nowhere.
//!
//! The tests serialize on a shared lock: the registry is process-global
//! and the deltas must not see another test's I/O.

use std::sync::{Mutex, MutexGuard, OnceLock};

use vist_core::{IndexOptions, QueryOptions, QueryStats, VistIndex};
use vist_obs::AttrSnapshot;
use vist_storage::testutil::TempDir;

const QUERIES: &[&str] = &[
    "/r/a[text='3']",
    "/r/b/c",
    "/r[a='1']/b/c[text='2']",
    "/r/b[c='5']",
    "/r/a",
];

fn registry_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

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
    let _g = registry_lock();
    let dir = TempDir::new("attr-diff");
    let path = build_file_index(&dir);
    for workers in [1usize, 4] {
        // A small cache forces real misses and page reads mid-query.
        let idx = VistIndex::open_file(&path, 64).unwrap();
        let before = vist_obs::snapshot();
        let mut sum = AttrSnapshot::default();
        for q in QUERIES {
            let r = idx
                .query(
                    q,
                    &QueryOptions {
                        workers,
                        ..Default::default()
                    },
                )
                .unwrap();
            assert_ne!(r.trace_id, 0, "query ran without a trace id");
            sum = add(sum, io_of(&r.stats));
        }
        let after = vist_obs::snapshot();
        let delta = |name: &str| after.counter(name) - before.counter(name);
        assert_eq!(
            sum.pool_hits,
            delta("vist_storage_pool_hit_total"),
            "workers={workers}"
        );
        assert_eq!(
            sum.pool_misses,
            delta("vist_storage_pool_miss_total"),
            "workers={workers}"
        );
        // Each miss reads exactly one page; queries never append to the WAL.
        assert_eq!(sum.pages_read, sum.pool_misses, "workers={workers}");
        assert_eq!(sum.wal_appends, 0, "workers={workers}");
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
}

fn find_span<'a>(node: &'a vist_obs::SpanNode, name: &str) -> Option<&'a vist_obs::SpanNode> {
    if node.name == name {
        return Some(node);
    }
    node.children.iter().find_map(|c| find_span(c, name))
}

#[test]
fn parallel_attribution_is_bit_for_bit_serial_for_concrete_queries() {
    let _g = registry_lock();
    let dir = TempDir::new("attr-par");
    let path = build_file_index(&dir);
    // Each run opens the index fresh: cold cache, no evictions at this
    // capacity, so hit/miss splits depend only on the (deterministic)
    // set of pages the concrete query touches — not on which worker
    // touched a page first.
    let run = |workers: usize, seed: u64, q: &str| {
        let idx = VistIndex::open_file(&path, 4096).unwrap();
        idx.query(
            q,
            &QueryOptions {
                workers,
                schedule_seed: Some(seed),
                ..Default::default()
            },
        )
        .unwrap()
    };
    vist_obs::set_tracing(true);
    for seed in 0..4u64 {
        for q in QUERIES {
            let serial = run(1, seed, q);
            let parallel = run(4, seed, q);
            assert_eq!(serial.doc_ids, parallel.doc_ids, "seed={seed} q={q}");
            assert_eq!(serial.stats.steals, 0, "serial run stole work");
            assert_eq!(
                io_of(&serial.stats),
                io_of(&parallel.stats),
                "attribution is schedule-dependent (seed={seed}, q={q})"
            );
            let trace = parallel.trace.as_ref().expect("tracing was enabled");
            let workers_span = find_span(trace, "workers")
                .expect("worker busy time was not grafted into the span tree");
            assert_eq!(workers_span.count, 4, "one workers node covering all 4");
            assert!(
                find_span(trace, "workers_idle").is_some(),
                "worker idle time missing from the span tree"
            );
        }
    }
    vist_obs::set_tracing(false);
}

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

/// Structurally diverse random documents: wildcard queries over these
/// fan out into hundreds of independent frames, which is what makes
/// 4 workers actually donate ("steal") work.
fn rand_xml(rng: &mut Rng, depth: usize, out: &mut String) {
    const NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];
    let name = NAMES[rng.below(5)];
    out.push('<');
    out.push_str(name);
    out.push('>');
    if depth == 0 || rng.below(3) == 0 {
        out.push_str(&rng.below(4).to_string());
    } else {
        for _ in 0..1 + rng.below(3) {
            rand_xml(rng, depth - 1, out);
        }
    }
    out.push_str("</");
    out.push_str(name);
    out.push('>');
}

#[test]
fn stolen_work_is_charged_to_the_owning_query() {
    let _g = registry_lock();
    let dir = TempDir::new("attr-steal");
    let path = dir.file("steal.vist");
    {
        let idx = VistIndex::create_file(&path, IndexOptions::default()).unwrap();
        let mut rng = Rng(42);
        for _ in 0..400 {
            let mut s = String::new();
            rand_xml(&mut rng, 4, &mut s);
            idx.insert_xml(&s).unwrap();
        }
        idx.flush().unwrap();
    }
    let serial = {
        let idx = VistIndex::open_file(&path, 4096).unwrap();
        idx.query(
            "//a//c",
            &QueryOptions {
                workers: 1,
                ..Default::default()
            },
        )
        .unwrap()
    };
    let mut stole = false;
    for seed in 0..16u64 {
        let idx = VistIndex::open_file(&path, 4096).unwrap();
        let before = vist_obs::snapshot();
        let r = idx
            .query(
                "//a//c",
                &QueryOptions {
                    workers: 4,
                    schedule_seed: Some(seed),
                    ..Default::default()
                },
            )
            .unwrap();
        let after = vist_obs::snapshot();
        assert_eq!(serial.doc_ids, r.doc_ids, "answers differ (seed={seed})");
        let sum = io_of(&r.stats);
        // Even with frames bouncing between workers mid-query, every
        // pool probe landed in this query's context: the per-query sum
        // matches the global deltas exactly.
        let delta = |name: &str| after.counter(name) - before.counter(name);
        assert_eq!(sum.pool_hits, delta("vist_storage_pool_hit_total"));
        assert_eq!(sum.pool_misses, delta("vist_storage_pool_miss_total"));
        assert_eq!(sum.wal_appends, delta("vist_storage_wal_append_total"));
        assert!(sum.pool_hits + sum.pool_misses > 0, "query did no pool I/O");
        if r.stats.steals > 0 {
            stole = true;
            break;
        }
    }
    assert!(stole, "16 seeded 4-worker wildcard runs never stole work");
}
