//! What the benchmark declares and prints: the workloads, the end-to-end
//! metrics with their bounds, the per-layer metrics, `BENCHMARK.json` and
//! the result line. This table is the one place a metric is declared;
//! `--benchmark-json` prints `BENCHMARK.json` from it and `selfcheck.sh`
//! fails if the checked-in file differs.

use std::collections::BTreeMap;

use crate::util::{json_number, json_string};

pub const RUN_SECONDS: u32 = 10;

pub struct WorkloadDecl {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDecl; 4] = [
    WorkloadDecl {
        name: "table4-warm",
        why: "Paper Table-3 queries Q1-Q8, pool larger than the index: pool-hit path, B+Tree descents and the match loop do all the work; pager, WAL and serve do none",
    },
    WorkloadDecl {
        name: "scan-spill",
        why: "13 high-cardinality path scans, pool of 64 pages (0.6% of the index): page read, CRC, eviction and leaf-chain cursors dominate; the hit path is nearly idle",
    },
    WorkloadDecl {
        name: "ingest-mixed",
        why: "The dynamic half: durable 256-doc batches, removals, flushes and read-your-writes lookups beside each other, one compaction: B+Tree inserts, WAL append, fsync and checkpoint do the work",
    },
    WorkloadDecl {
        name: "serve-topk",
        why: "vist serve in-process, one binary-protocol connection, 90% limit-10 queries: framing, admission and thread hand-off are a visible share of a round trip; the match engine does little",
    },
];

pub struct MetricDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median an end-to-end metric may worsen by
    /// (unused for per-layer metrics).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Reported by every workload, never 0 (see README for what a round and
/// an operation are on each workload).
pub const END_TO_END: [MetricDecl; 4] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("round_p50_ms", "ms", "lower", 0.25),
    e2e("index_bytes_per_xml_byte", "ratio", "lower", 0.02),
    e2e("peak_rss_mb", "MiB", "lower", 0.10),
];

macro_rules! per_query {
    ($($q:literal),*) => {
        [$(
            layer(concat!("search.", $q, ".p50_us"), "us", "lower"),
            layer(concat!("search.", $q, ".hits"), "count", "higher"),
            layer(concat!("search.", $q, ".work_items"), "count", "lower"),
            layer(concat!("search.", $q, ".pool_fetches"), "count", "lower"),
        )*]
    };
}

const PER_QUERY: [MetricDecl; 32] = per_query!("q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8");

/// Printed by the traced run. A metric of a layer the workload never calls
/// reads 0 with n = 0.
const PER_LAYER_FIXED: [MetricDecl; 63] = [
    layer("xml.parse_ns_per_byte", "ns/B", "lower"),
    layer("seq.encode_ns_per_elem", "ns", "lower"),
    layer("query.translate_us", "us", "lower"),
    layer("query.sequences", "count", "lower"),
    layer("pager.read_us", "us", "lower"),
    layer("pager.write_us", "us", "lower"),
    layer("pager.sync_ms", "ms", "lower"),
    layer("pager.pages_read", "count", "lower"),
    layer("pager.wal_appends_per_doc", "count", "lower"),
    layer("pager.wal_commits", "count", "lower"),
    layer("pager.wal_bytes_per_xml_byte", "ratio", "lower"),
    layer("pager.page_writes_per_doc", "count", "lower"),
    layer("pool.fetch_hit_ns", "ns", "lower"),
    layer("pool.fetch_miss_us", "us", "lower"),
    layer("pool.hit_ratio", "ratio", "higher"),
    layer("pool.misses_per_round", "count", "lower"),
    layer("pool.write_backs", "count", "lower"),
    layer("btree.get_ns", "ns", "lower"),
    layer("btree.fetches_per_get", "count", "lower"),
    layer("btree.scan_ns_per_entry", "ns", "lower"),
    layer("btree.insert_ns", "ns", "lower"),
    layer("btree.bulk_ns_per_entry", "ns", "lower"),
    layer("segment.bulk_docs_per_s", "1/s", "higher"),
    layer("segment.bytes_per_xml_byte", "ratio", "lower"),
    layer("segment.compact_s", "s", "lower"),
    layer("segment.compact_docs_per_s", "1/s", "higher"),
    layer("segment.compact_bytes_written", "B", "lower"),
    layer("search.path_p50_ms", "ms", "lower"),
    layer("search.wildcard_p50_ms", "ms", "lower"),
    layer("search.branch_p50_ms", "ms", "lower"),
    layer("search.ns_per_work_item", "ns", "lower"),
    layer("search.fetches_per_work_item", "count", "lower"),
    layer("search.planner_probes", "count", "lower"),
    layer("search.planner_prunes", "count", "higher"),
    layer("search.scan_ns_per_hit", "ns", "lower"),
    layer("search.queries_per_s", "1/s", "higher"),
    layer("search.round_p90_ms", "ms", "lower"),
    layer("search.share.translate", "%", "lower"),
    layer("search.share.plan", "%", "lower"),
    layer("search.share.match", "%", "lower"),
    layer("search.share.merge", "%", "lower"),
    layer("search.share.docid", "%", "lower"),
    layer("ingest.docs_per_s", "1/s", "higher"),
    layer("ingest.batch_p50_ms", "ms", "lower"),
    layer("ingest.batch_p90_ms", "ms", "lower"),
    layer("ingest.read_p50_us", "us", "lower"),
    layer("ingest.remove_p50_us", "us", "lower"),
    layer("ingest.flush_p50_ms", "ms", "lower"),
    layer("ingest.ryw_p50_us", "us", "lower"),
    layer("ingest.dkey_cache_hit_ratio", "ratio", "higher"),
    layer("ingest.edge_cache_hit_ratio", "ratio", "higher"),
    layer("ingest.delta_bytes_per_xml_byte", "ratio", "lower"),
    layer("serve.rps", "1/s", "higher"),
    layer("serve.p50_us", "us", "lower"),
    layer("serve.p99_us", "us", "lower"),
    layer("serve.ping_p50_us", "us", "lower"),
    layer("serve.overhead_p50_us", "us", "lower"),
    layer("serve.topk_p50_us", "us", "lower"),
    layer("serve.full_p50_us", "us", "lower"),
    layer("serve.http_p50_us", "us", "lower"),
    layer("serve.shed", "count", "lower"),
    layer("serve.deadline_expired", "count", "lower"),
    layer("obs.trace_overhead_pct", "%", "lower"),
];

pub fn per_layer() -> impl Iterator<Item = &'static MetricDecl> {
    PER_LAYER_FIXED.iter().chain(PER_QUERY.iter())
}

/// A measured value with its sample count.
#[derive(Clone, Copy)]
pub struct Value {
    pub value: f64,
    pub n: usize,
}

/// Metric values by name. Setting a name no table declares is a bug in the
/// harness and panics when the values are printed.
#[derive(Default)]
pub struct Values(BTreeMap<String, Value>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        self.0.insert(name.to_string(), Value { value, n });
    }

    pub fn get(&self, name: &str) -> Value {
        self.0
            .get(name)
            .copied()
            .unwrap_or(Value { value: 0.0, n: 0 })
    }

    pub fn assert_declared<'a>(&self, decls: impl Iterator<Item = &'a MetricDecl>) {
        let declared: Vec<&str> = decls.map(|d| d.name).collect();
        for name in self.0.keys() {
            assert!(
                declared.contains(&name.as_str()),
                "metric {name} is not declared in schema.rs"
            );
        }
    }
}

/// The `"metrics"` object of the result line and, with the sample counts
/// added, of the report file.
pub fn metrics_json<'a>(
    decls: impl Iterator<Item = &'a MetricDecl>,
    values: &Values,
    with_n: bool,
) -> String {
    let fields: Vec<String> = decls
        .map(|d| {
            let v = values.get(d.name);
            let n = if with_n {
                format!(", \"n\": {}", v.n)
            } else {
                String::new()
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{n}}}",
                json_string(d.name),
                json_number(v.value),
                json_string(d.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_string(w.name),
                json_string(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better),
                json_number(m.bound)
            )
        })
        .collect();
    let layers: Vec<String> = per_layer()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        layers.join(",\n")
    )
}
