//! Ingest-path shootout on a file-backed tiered index.
//!
//! Four fresh indexes ingest the same generated DBLP-like corpus:
//!
//! * **serial, per-doc commit** — `insert_xml` + `flush` per document:
//!   the single-threaded dynamic path where every document is durable
//!   the moment its insert returns (one WAL commit + fsync each).
//! * **batch group commit @1 / @N threads** — `insert_batch` in chunks
//!   of `--batch-size` documents: parse/encode on 1 or N prepare
//!   workers, serialized apply through the per-batch dkey/edge caches,
//!   one WAL commit + fsync per *batch*.
//! * **bulk (packed segment)** — `bulk_build` external-sort ingest into
//!   a single read-only segment (see `docs/SEGMENTS.md`); the offline
//!   ceiling.
//!
//! All paths are probed with the paper's Table 3 queries afterwards and
//! must answer identically. The headline deltas: group commit vs
//! per-document commit (fsync amortization + cache reuse), and batch@N
//! vs batch@1 (prepare-phase thread scaling — bounded by available
//! cores).
//!
//! ```sh
//! cargo run --release -p vist-bench --bin bench_ingest                  # 50k docs, writes BENCH_ingest.json
//! cargo run --release -p vist-bench --bin bench_ingest -- --smoke       # CI-sized
//! cargo run --release -p vist-bench --bin bench_ingest -- --gate 5      # exit 1 if bulk speedup < 5x
//! cargo run --release -p vist-bench --bin bench_ingest -- --ingest-gate # exit 1 if batch@N clearly loses to batch@1
//! cargo run --release -p vist-bench --bin bench_ingest -- --ingest-threads 8
//! ```

use std::time::Instant;

use vist_bench::{mib, print_table, scaled};
use vist_core::{IndexOptions, QueryOptions, VistIndex};
use vist_datagen::dblp;
use vist_storage::testutil::TempDir;

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let gate: Option<f64> = arg_value("--gate").map(|v| v.parse().expect("bad --gate"));
    let ingest_gate = std::env::args().any(|a| a == "--ingest-gate");
    let threads: usize = arg_value("--ingest-threads")
        .map(|v| v.parse().expect("bad --ingest-threads"))
        .unwrap_or(4)
        .max(2);
    let batch_size: usize = arg_value("--batch-size")
        .map(|v| v.parse().expect("bad --batch-size"))
        .unwrap_or(512);
    let n = if smoke {
        scaled(1_500, 500)
    } else {
        scaled(50_000, 50_000)
    };

    eprintln!("generating {n} DBLP-like records ...");
    let docs = dblp::documents(n, 42);
    let xmls: Vec<String> = docs.iter().map(|d| d.to_xml()).collect();
    let corpus_bytes: usize = xmls.iter().map(String::len).sum();
    let opts = IndexOptions {
        cache_pages: 1 << 14,
        ..Default::default()
    };
    let tmp = TempDir::new("bench-ingest");

    eprintln!("serial ingest, per-document commit ...");
    let insert_path = tmp.file("insert.idx");
    let t0 = Instant::now();
    let insert_idx = VistIndex::create_file(&insert_path, opts.clone()).expect("create");
    for xml in &xmls {
        insert_idx.insert_xml(xml).expect("insert");
        insert_idx.flush().expect("flush");
    }
    let insert_secs = t0.elapsed().as_secs_f64();
    let insert_stats = insert_idx.stats();

    // Group-commit ingest at 1 prepare thread and at `threads`: same
    // commit granularity (one fsync per batch), so the delta between the
    // two is purely prepare-phase parallelism.
    let batch_ingest = |threads: usize| -> (VistIndex, f64, vist_core::IndexStats) {
        eprintln!(
            "batch group-commit ingest ({batch_size}/batch, {threads} prepare thread(s)) ..."
        );
        let path = tmp.file(&format!("batch{threads}.idx"));
        let t0 = Instant::now();
        let idx = VistIndex::create_file(&path, opts.clone()).expect("create");
        for chunk in xmls.chunks(batch_size) {
            idx.insert_batch(chunk, threads).expect("insert_batch");
        }
        let secs = t0.elapsed().as_secs_f64();
        let stats = idx.stats();
        (idx, secs, stats)
    };
    let (batch1_idx, batch1_secs, batch1_stats) = batch_ingest(1);
    let (batchn_idx, batchn_secs, batchn_stats) = batch_ingest(threads);

    eprintln!("bulk (external-sort segment) ingest ...");
    let bulk_path = tmp.file("bulk.idx");
    let t0 = Instant::now();
    let bulk_idx = VistIndex::create_file(&bulk_path, opts).expect("create");
    bulk_idx.bulk_build(&xmls).expect("bulk_build");
    let bulk_secs = t0.elapsed().as_secs_f64();
    let bulk_stats = bulk_idx.stats();

    // Equivalence probe: every ingest path must answer the paper's
    // Table 3 queries identically (same index, different write paths).
    for (label, q) in dblp::table3_queries() {
        let a = insert_idx
            .query(&q, &QueryOptions::default())
            .expect("query");
        for (path, idx) in [
            ("batch@1", &batch1_idx),
            ("batch@N", &batchn_idx),
            ("bulk", &bulk_idx),
        ] {
            let b = idx.query(&q, &QueryOptions::default()).expect("query");
            assert_eq!(
                a.doc_ids, b.doc_ids,
                "{label}: {path} ingest disagrees with serial on {q}"
            );
        }
    }
    assert_eq!(insert_stats.documents, bulk_stats.documents);
    assert_eq!(insert_stats.documents, batchn_stats.documents);

    let fill = |idx: &VistIndex| -> f64 {
        let (delta, segs) = idx.tier_breakdown().expect("breakdown");
        let trees = |b: &vist_core::StoreBreakdown| {
            [&b.dancestor, &b.sancestor, &b.docid, &b.edges, &b.aux]
                .iter()
                .map(|t| (t.leaf_used_bytes, t.leaf_total_bytes))
                .fold((0u64, 0u64), |(u, t), (du, dt)| (u + du, t + dt))
        };
        let (mut used, mut total) = (0u64, 0u64);
        if segs.is_empty() {
            let (u, t) = trees(&delta);
            used += u;
            total += t;
        }
        for seg in &segs {
            let (u, t) = trees(&seg.trees);
            used += u;
            total += t;
        }
        if total == 0 {
            0.0
        } else {
            used as f64 / total as f64
        }
    };
    let insert_fill = fill(&insert_idx);
    let bulk_fill = fill(&bulk_idx);
    let batchn_fill = fill(&batchn_idx);
    let bulk_speedup = insert_secs / bulk_secs;
    let batch_speedup = insert_secs / batchn_secs;
    let thread_speedup = batch1_secs / batchn_secs;
    let cache_rate = |s: &vist_core::IndexStats| -> f64 {
        let hits = s.ingest_dkey_cache_hits + s.ingest_edge_cache_hits;
        let total = hits + s.ingest_dkey_cache_misses + s.ingest_edge_cache_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    };

    let row = |label: &str, secs: f64, bytes: u64, fill: f64| {
        vec![
            label.to_string(),
            format!("{secs:.2}"),
            format!("{:.0}", n as f64 / secs),
            mib(bytes),
            format!("{:.0}%", fill * 100.0),
        ]
    };
    println!(
        "\nbench_ingest — {n} DBLP-like documents ({} MiB of XML)",
        mib(corpus_bytes as u64)
    );
    print_table(
        &[
            "ingest path",
            "total (s)",
            "docs/s",
            "index MiB",
            "leaf fill",
        ],
        &[
            row(
                "serial (per-doc commit)",
                insert_secs,
                insert_stats.store_bytes,
                insert_fill,
            ),
            row(
                "batch group commit @1",
                batch1_secs,
                batch1_stats.store_bytes,
                fill(&batch1_idx),
            ),
            row(
                &format!("batch group commit @{threads}"),
                batchn_secs,
                batchn_stats.store_bytes,
                batchn_fill,
            ),
            row(
                "bulk (packed segment)",
                bulk_secs,
                bulk_stats.store_bytes + bulk_stats.segment_bytes,
                bulk_fill,
            ),
        ],
    );
    println!(
        "\ngroup-commit speedup vs per-doc commit: {batch_speedup:.2}x \
         ({threads} prepare threads: {thread_speedup:.2}x vs 1 thread; \
         ingest cache hit rate {:.0}%)",
        cache_rate(&batchn_stats) * 100.0,
    );
    println!("bulk-load speedup: {bulk_speedup:.2}x");

    if let Some(gate) = gate {
        if bulk_speedup < gate {
            eprintln!("FAIL: bulk-load speedup {bulk_speedup:.2}x below the {gate:.1}x gate");
            std::process::exit(1);
        }
        println!("gate passed ({bulk_speedup:.2}x >= {gate:.1}x)");
    }
    if ingest_gate {
        let (r1, rn) = (n as f64 / batch1_secs, n as f64 / batchn_secs);
        // Small tolerance: on a single-core runner prepare-phase threading
        // cannot help, and this gate only guards against the parallel path
        // *losing* throughput outright.
        if rn <= r1 * 0.9 {
            eprintln!(
                "FAIL: batch@{threads} ingest ({rn:.0} docs/s) slower than batch@1 ({r1:.0} docs/s)"
            );
            std::process::exit(1);
        }
        println!("ingest gate passed (batch@{threads}: {rn:.0} docs/s vs batch@1: {r1:.0} docs/s)");
    }

    if !smoke {
        let json = format!(
            concat!(
                "{{\n",
                "  \"bench\": \"ingest\",\n",
                "  \"corpus\": {{ \"generator\": \"dblp\", \"docs\": {}, \"seed\": 42, \"xml_bytes\": {} }},\n",
                "  \"insert_secs\": {:.3},\n",
                "  \"insert_docs_per_sec\": {:.1},\n",
                "  \"insert_index_bytes\": {},\n",
                "  \"insert_leaf_fill\": {:.4},\n",
                "  \"batch_size\": {},\n",
                "  \"batch1_secs\": {:.3},\n",
                "  \"batch1_docs_per_sec\": {:.1},\n",
                "  \"batch_threads\": {},\n",
                "  \"batch_secs\": {:.3},\n",
                "  \"batch_docs_per_sec\": {:.1},\n",
                "  \"batch_cache_hit_rate\": {:.4},\n",
                "  \"batch_speedup_vs_serial\": {:.3},\n",
                "  \"bulk_secs\": {:.3},\n",
                "  \"bulk_docs_per_sec\": {:.1},\n",
                "  \"bulk_index_bytes\": {},\n",
                "  \"bulk_leaf_fill\": {:.4},\n",
                "  \"speedup\": {:.3}\n",
                "}}\n"
            ),
            n,
            corpus_bytes,
            insert_secs,
            n as f64 / insert_secs,
            insert_stats.store_bytes,
            insert_fill,
            batch_size,
            batch1_secs,
            n as f64 / batch1_secs,
            threads,
            batchn_secs,
            n as f64 / batchn_secs,
            cache_rate(&batchn_stats),
            batch_speedup,
            bulk_secs,
            n as f64 / bulk_secs,
            bulk_stats.store_bytes + bulk_stats.segment_bytes,
            bulk_fill,
            bulk_speedup,
        );
        std::fs::write("BENCH_ingest.json", &json).expect("write json");
        eprintln!("wrote BENCH_ingest.json");
    }
}
