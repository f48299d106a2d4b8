//! Cost of the `vist-obs` instrumentation on the query hot path.
//!
//! One binary measures the same query workload in two in-process
//! configurations:
//!
//!   * **metrics on, tracing off** — the production default (counters,
//!     gauges and latency histograms move; every query's I/O is
//!     attributed to it; no span trees are built);
//!   * **tracing on** — full hierarchical span trees per query.
//!
//! Compile with `-p vist-bench --features obs-noop` to get the
//! uninstrumented reference build: every counter increment and timer read
//! compiles to nothing. The CI `obs-overhead` job runs the two `--smoke`
//! builds alternately, three times each, and fails if the instrumented
//! minimum of `tracing_off_1w_ms` is more than 5% above the reference
//! minimum — checked for the production default, which includes per-query
//! I/O attribution. `--baseline-ms <reference>` prints and records this
//! run's overhead against a reference run.
//!
//! ```sh
//! cargo run --release -p vist-bench --features obs-noop --bin obs_overhead  # reference
//! cargo run --release -p vist-bench --bin obs_overhead -- --baseline-ms 123.4  # writes BENCH_obs_overhead.json
//! ```

use std::time::{Duration, Instant};

use vist_bench::{ms, print_table};
use vist_core::{IndexOptions, QueryOptions, VistIndex};
use vist_datagen::synthetic::{SyntheticConfig, SyntheticGen};
use vist_query::Pattern;

const WILDCARD_PROB: f64 = 0.4;

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let baseline_ms: Option<f64> =
        arg_value("--baseline-ms").map(|v| v.parse().expect("bad --baseline-ms"));

    // Corpus size is deliberately small even for the full run: query
    // *selection* must execute wildcard-heavy candidates to measure them
    // against the admission budget, and a rejected candidate cannot be
    // aborted mid-run — at larger corpora a single pathological candidate
    // dominates the whole benchmark. Overhead is a *ratio*, so the full
    // run buys precision with more queries, passes, and rounds instead.
    let n = 800;
    let per_len = if smoke { 3 } else { 6 };
    let iters = if smoke { 7 } else { 9 };
    let passes = if smoke { 1 } else { 3 };
    // Frame-expansion budget for admitting a query: wildcard-heavy
    // patterns can be pathological, and a latency gate needs a workload
    // of uniformly moderate queries, not a few dominating outliers.
    let budget: u64 = 2_000;

    let cfg = SyntheticConfig {
        k: 10,
        j: 8,
        l: 30,
        seed: 7,
    };
    let config = if cfg!(feature = "obs-noop") {
        "obs-noop"
    } else {
        "instrumented"
    };
    eprintln!("[{config}] generating {n} synthetic documents (k=10, j=8, L=30) ...");
    let mut gen = SyntheticGen::new(cfg);
    let index = VistIndex::in_memory(IndexOptions {
        store_documents: false,
        cache_pages: 1 << 16,
        ..Default::default()
    })
    .expect("index");
    for _ in 0..n {
        let d = gen.document();
        index.insert_document(&d).expect("insert");
    }
    eprintln!("[{config}] built ({} nodes)", index.stats().nodes);

    let mut patterns: Vec<Pattern> = Vec::new();
    let mut rejected = 0usize;
    let select_opts = QueryOptions::default();
    for qlen in (2..=8).step_by(2) {
        let mut kept = 0usize;
        let mut attempts = 0usize;
        while kept < per_len && attempts < per_len * 10 {
            attempts += 1;
            let p = gen.query(qlen, WILDCARD_PROB);
            let r = index.query_pattern(&p, &select_opts).expect("query");
            if r.stats.work_items <= budget {
                patterns.push(p);
                kept += 1;
            } else {
                rejected += 1;
            }
        }
    }
    eprintln!(
        "[{config}] selected {} queries ({rejected} rejected: over {budget}-frame budget)",
        patterns.len()
    );

    let run = || {
        let opts = QueryOptions::default();
        // `passes` repetitions inside the timed region: long enough to
        // resolve a few-percent delta above timer granularity.
        for _ in 0..passes {
            for p in &patterns {
                let _ = index.query_pattern(p, &opts).expect("query");
            }
        }
    };

    // Warm the buffer pool and symbol table out of the timed region.
    run();

    // Interleave the configurations round-robin and keep the per-config
    // minimum: sequential blocks would let clock-frequency or allocator
    // drift masquerade as instrumentation overhead. One entry a
    // configuration: whether tracing is on.
    let configs = [false, true];
    let mut mins = [Duration::MAX; 2];
    for round in 0..iters {
        // Rotate the starting configuration so no slot systematically
        // inherits a colder or warmer machine state from its predecessor.
        for k in 0..configs.len() {
            let i = (round + k) % configs.len();
            vist_obs::set_tracing(configs[i]);
            let t = Instant::now();
            run();
            mins[i] = mins[i].min(t.elapsed());
        }
    }
    vist_obs::set_tracing(false);
    let [off_1, trace_1] = mins;

    let rel = |t: Duration| format!("{:.2}", t.as_secs_f64() / off_1.as_secs_f64());
    let rows = vec![
        vec![
            "metrics on, tracing off (1 worker)".to_string(),
            ms(off_1),
            "1.00".to_string(),
        ],
        vec![
            "tracing on (1 worker)".to_string(),
            ms(trace_1),
            rel(trace_1),
        ],
    ];
    println!(
        "\nobs_overhead [{config}] — {} queries x {passes} pass(es) over {n} documents, min of {iters}",
        patterns.len()
    );
    print_table(&["configuration", "total (ms)", "vs tracing-off"], &rows);

    let off_ms = off_1.as_secs_f64() * 1e3;
    // Machine-readable line for the CI gate, which compares the two builds.
    println!("\ntracing_off_1w_ms={off_ms:.3}");
    let overhead_pct = baseline_ms.map(|base| (off_ms - base) / base * 100.0);
    if let (Some(base), Some(pct)) = (baseline_ms, overhead_pct) {
        println!("\noverhead vs uninstrumented baseline {base:.3} ms: {pct:+.2}%");
    }

    if !smoke && !cfg!(feature = "obs-noop") {
        let json = format!(
            concat!(
                "{{\n",
                "  \"bench\": \"obs_overhead\",\n",
                "  \"corpus\": {{ \"generator\": \"synthetic\", \"docs\": {}, \"k\": 10, \"j\": 8, \"l\": 30, \"seed\": 7 }},\n",
                "  \"queries\": {}, \"wildcard_prob\": {}, \"passes\": {}, \"iters\": {}, \"estimator\": \"min\",\n",
                "  \"host_cores\": {},\n",
                "  \"noop_baseline_ms\": {},\n",
                "  \"metrics_on_tracing_off_1w_ms\": {:.3},\n",
                "  \"tracing_on_1w_ms\": {:.3},\n",
                "  \"overhead_off_vs_noop_pct\": {}\n",
                "}}\n"
            ),
            n,
            patterns.len(),
            WILDCARD_PROB,
            passes,
            iters,
            std::thread::available_parallelism().map_or(1, |c| c.get()),
            baseline_ms.map_or("null".to_string(), |b| format!("{b:.3}")),
            off_ms,
            trace_1.as_secs_f64() * 1e3,
            overhead_pct.map_or("null".to_string(), |p| format!("{p:.3}")),
        );
        std::fs::write("BENCH_obs_overhead.json", &json).expect("write json");
        eprintln!("wrote BENCH_obs_overhead.json");
    }
}
