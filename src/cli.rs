//! Implementation of the `vist` command-line tool (see `src/bin/vist.rs`).
//!
//! Kept in the library so every subcommand is unit testable without
//! spawning processes. [`run`] hands the arguments to one function per
//! subcommand, which takes its flags by name, then its operands, then does
//! its work. [`USAGE`] is the only other place a flag is written down.

use std::fmt::Write as _;
use std::str::FromStr;
use std::time::{Duration, Instant};

use crate::{IndexOptions, QueryOptions, VistIndex};

/// Usage text.
pub const USAGE: &str = "\
vist — index and query XML documents by tree structure (SIGMOD'03 ViST)

USAGE:
  vist create  <index> [--page-size N] [--lambda N] [--no-docs]
  vist add     <index> <file.xml>...
  vist load    <index> <dir|file.xml> [--ingest-threads N] [--batch-size B]
  vist compact <index>
  vist query   <index> '<expr>' [--verify] [--show] [--trace] [--no-plan]
               [--limit N] [--deadline-ms N]
  vist remove  <index> <doc-id>
  vist explain <index> '<expr>' [--plan] [--no-plan]
  vist list    <index>
  vist stats   <index> [--format human|json|prometheus]
  vist profile <index> <queries-file>
  vist check   <index>
  vist recover <index>
  vist sim     [--seed N] [--ops N] [--seconds N] [--replay FILE] [--out FILE]
               [--page-size N] [--lambda N] [--mutate scope-off-by-one] [--dump]
  vist serve   <index> [--addr H:P] [--max-inflight N] [--queue-depth N]
               [--max-deadline-ms N] [--drain-deadline-ms N] [--access-log FILE]
  vist traces  [--addr H:P] [<trace-id>]

SERVING (see docs/SERVING.md):
  serve                length-prefixed binary protocol + HTTP shim (/query,
                       /metrics, /healthz) over one shared index; overload is
                       shed with OVERLOADED/429 + retry-after, every query's
                       deadline is capped by --max-deadline-ms, and SIGTERM
                       drains in-flight queries then flushes and exits 0
  query --deadline-ms  cooperative per-query budget: past it the engine stops
                       at the next work-item and reports 'deadline exceeded'

SIMULATION (deterministic model-checked workloads):
  sim --seed N         one seeded run: generated op trace, fault schedule and
                       match-engine interleaving are a pure function of the
                       seed; output is byte-identical across runs. On
                       divergence the op trace is delta-debug shrunk and the
                       minimal reproducer is written to --out (exit 1).
  sim --seconds N      smoke mode: consecutive seeds until the budget is spent
  sim --replay FILE    re-run a reproducer produced by --out / tests/seeds/

QUERY PLANNING (ViST §3.4 statistical clues):
  query --no-plan      bypass the cost-based planner: sequences run in naive
                       translation order with no empty-prefix short-circuits
  query --limit N      stop after N matching documents (early termination)
  explain --plan       per-tier planner report: sequence ranks and prunes,
                       estimated vs actual cardinalities per step, and the
                       number of DocId ranges resolved

OBSERVABILITY (see docs/OBSERVABILITY.md):
  query --trace        print the hierarchical span tree of one execution
  stats --format       emit the process-wide metrics registry (counters,
                       gauges, latency histograms with p50/p90/p95/p99/p999
                       and trace-id exemplars) as JSON or Prometheus text
  profile              replay a query workload and print a per-query latency
                       table with stage timings
  serve --access-log   one wide-event JSON line per request (trace id, peer,
                       admission wait, stage timings, attributed I/O,
                       outcome), size-rotated at 16 MiB
  traces               fetch a server's request records (/debug/traces):
                       recent ring + always-kept slowest; pass a trace id
                       (every response carries one, header X-Vist-Trace-Id
                       over HTTP) for its wide event and full span tree

TIERED STORAGE (see docs/SEGMENTS.md):
  load                 bulk-load a batch into one immutable packed segment
                       (~100% leaf fill), labeled and sorted in memory, instead
                       of the per-document dynamic insert path
  load --ingest-threads N
                       dynamic-insert the corpus instead: N parallel prepare
                       workers (parse + structure-encode), serialized apply,
                       one group commit (one WAL fsync) per --batch-size B
                       documents (default 512); identical ids and answers to
                       one-at-a-time inserts, batches all-or-nothing on crash
  compact              merge the delta and all segments into one fresh
                       segment, dropping deleted documents for good

QUERY EXPRESSIONS (the paper's Table 3 subset):
  /book/author                       child paths
  //item[location='US']              descendant steps + value predicates
  /site//person/*/city[text='X']     wildcards
  /a[b/c='1'][text='t']/d            branches
";

/// Run one `vist` invocation — `args` without the program name — and
/// return the text to print.
pub fn run(args: &[String]) -> Result<String, String> {
    let (sub, rest) = match args.split_first() {
        Some((sub, rest)) => (sub.as_str(), rest.to_vec()),
        None => ("help", Vec::new()),
    };
    let a = &mut Args {
        sub: sub.to_string(),
        rest,
    };
    match sub {
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        "create" => create(a),
        "add" => add(a),
        "load" => load(a),
        "compact" => compact(a),
        "query" => query(a),
        "remove" => remove(a),
        "explain" => explain(a),
        "list" => list(a),
        "stats" => stats(a),
        "profile" => profile(a),
        "check" => check(a),
        "recover" => recover(a),
        "sim" => sim(a),
        "serve" => serve(a),
        "traces" => traces(a),
        other => Err(format!("unknown subcommand '{other}' (try 'vist help')")),
    }
}

/// One subcommand's arguments. Its function takes the flags it knows by
/// name, then its operands: a `--flag` still left then is one it does not
/// take, and the error names it.
struct Args {
    sub: String,
    rest: Vec<String>,
}

impl Args {
    /// Whether `flag` was given.
    fn flag(&mut self, flag: &str) -> bool {
        let pos = self.rest.iter().position(|a| a == flag);
        pos.map(|i| self.rest.remove(i)).is_some()
    }

    /// The value of `flag VALUE`, if given.
    fn opt(&mut self, flag: &str) -> Result<Option<String>, String> {
        let Some(pos) = self.rest.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        if pos + 1 >= self.rest.len() {
            return Err(format!("{flag} needs a value"));
        }
        Ok(self.rest.drain(pos..=pos + 1).nth(1))
    }

    /// The value of `flag VALUE`, parsed, if given.
    fn num<T: FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        self.opt(flag)?
            .map(|v| v.parse().map_err(|_| format!("bad {flag}")))
            .transpose()
    }

    /// Parse `flag VALUE` into `slot`, which keeps its default without it.
    fn set<T: FromStr>(&mut self, flag: &str, slot: &mut T) -> Result<(), String> {
        if let Some(v) = self.num(flag)? {
            *slot = v;
        }
        Ok(())
    }

    /// Every operand left once the flags are taken.
    fn rest(&mut self) -> Result<Vec<String>, String> {
        let rest = std::mem::take(&mut self.rest);
        match rest.iter().find(|a| a.starts_with("--")) {
            Some(arg) => Err(self.unexpected(arg)),
            None => Ok(rest),
        }
    }

    /// Exactly `N` operands; `expected` says what they are.
    fn operands<const N: usize>(&mut self, expected: &str) -> Result<[String; N], String> {
        let rest = self.rest()?;
        if let (0, Some(arg)) = (N, rest.first()) {
            return Err(self.unexpected(arg));
        }
        rest.try_into()
            .map_err(|_| format!("{}: expected {expected}", self.sub))
    }

    fn unexpected(&self, arg: &str) -> String {
        format!("{}: unexpected argument '{arg}'", self.sub)
    }
}

fn open(index: &str) -> Result<VistIndex, String> {
    VistIndex::open_file(index, 4096).map_err(|e| e.to_string())
}

fn create(a: &mut Args) -> Result<String, String> {
    let mut opts = IndexOptions::default();
    a.set("--page-size", &mut opts.page_size)?;
    a.set("--lambda", &mut opts.lambda)?;
    opts.store_documents = !a.flag("--no-docs");
    let [index] = a.operands("exactly one index path")?;
    let idx = VistIndex::create_file(&index, opts).map_err(|e| e.to_string())?;
    idx.flush().map_err(|e| e.to_string())?;
    Ok(format!("created {index}\n"))
}

fn add(a: &mut Args) -> Result<String, String> {
    let mut files = a.rest()?;
    if files.len() < 2 {
        return Err("add: expected an index path and at least one XML file".into());
    }
    let idx = open(&files.remove(0))?;
    let mut out = String::new();
    for f in files {
        let xml = std::fs::read_to_string(&f).map_err(|e| format!("{f}: {e}"))?;
        let id = idx.insert_xml(&xml).map_err(|e| format!("{f}: {e}"))?;
        writeln!(out, "{f} -> doc {id}").unwrap();
    }
    idx.flush().map_err(|e| e.to_string())?;
    Ok(out)
}

fn load(a: &mut Args) -> Result<String, String> {
    let ingest_threads = a.num("--ingest-threads")?;
    if ingest_threads == Some(0) {
        return Err("bad --ingest-threads".into());
    }
    let batch_size = a.num("--batch-size")?;
    if batch_size == Some(0) {
        return Err("bad --batch-size".into());
    }
    if batch_size.is_some() && ingest_threads.is_none() {
        return Err("load: --batch-size needs --ingest-threads \
                    (without it the input is bulk-loaded as one segment)"
            .into());
    }
    let [index, input] = a.operands("an index path and a directory or XML file")?;
    let idx = open(&index)?;
    let meta = std::fs::metadata(&input).map_err(|e| format!("{input}: {e}"))?;
    let files: Vec<std::path::PathBuf> = if meta.is_dir() {
        let mut v: Vec<std::path::PathBuf> = std::fs::read_dir(&input)
            .map_err(|e| format!("{input}: {e}"))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "xml"))
            .collect();
        v.sort();
        if v.is_empty() {
            return Err(format!("{input}: no *.xml files"));
        }
        v
    } else {
        vec![input.into()]
    };
    let mut docs = Vec::with_capacity(files.len());
    for f in &files {
        docs.push(std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?);
    }
    let range = |ids: &[u64]| {
        let first = ids.first().copied().unwrap_or(0);
        format!("(ids {first}..={})", ids.last().copied().unwrap_or(0))
    };
    if let Some(threads) = ingest_threads {
        let mut ids = Vec::with_capacity(docs.len());
        let mut batches = 0u64;
        for chunk in docs.chunks(batch_size.unwrap_or(512)) {
            ids.extend(
                idx.insert_batch(chunk, threads)
                    .map_err(|e| e.to_string())?,
            );
            batches += 1;
        }
        return Ok(format!(
            "batch ingested {} document(s) {} in {batches} group commit(s) \
             at {threads} prepare thread(s); {} live document(s)\n",
            ids.len(),
            range(&ids),
            idx.stats().documents,
        ));
    }
    let ids = idx.bulk_build(docs).map_err(|e| e.to_string())?;
    let s = idx.stats();
    Ok(format!(
        "bulk loaded {} document(s) {}; {} segment(s), {} segment doc(s)\n",
        ids.len(),
        range(&ids),
        s.segments,
        s.segment_docs,
    ))
}

fn compact(a: &mut Args) -> Result<String, String> {
    let [index] = a.operands("exactly one index path")?;
    let idx = open(&index)?;
    let before = idx.stats();
    idx.compact().map_err(|e| e.to_string())?;
    let after = idx.stats();
    Ok(format!(
        "compacted {} segment(s) + delta -> {} segment(s); \
         {} tombstoned doc(s) dropped; {} live document(s)\n",
        before.segments, after.segments, before.tombstones, after.documents,
    ))
}

fn query(a: &mut Args) -> Result<String, String> {
    let mut opts = QueryOptions {
        verify: a.flag("--verify"),
        no_plan: a.flag("--no-plan"),
        limit: a.num("--limit")?,
        ..Default::default()
    };
    let show = a.flag("--show");
    let trace = a.flag("--trace");
    let deadline_ms = a.num("--deadline-ms")?;
    let [index, expr] = a.operands("an index path and one expression")?;
    let idx = open(&index)?;
    let was_tracing = vist_obs::tracing_enabled();
    if trace {
        vist_obs::set_tracing(true);
    }
    opts.deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let result = idx.query(&expr, &opts);
    if trace {
        vist_obs::set_tracing(was_tracing);
    }
    let r = result.map_err(|e| e.to_string())?;
    let mut out = String::new();
    write!(out, "{} document(s)", r.doc_ids.len()).unwrap();
    if opts.verify {
        write!(out, " ({} candidates before verification)", r.candidates).unwrap();
    }
    out.push('\n');
    for id in &r.doc_ids {
        if show {
            let xml = idx.get_document_xml(*id).map_err(|e| e.to_string())?;
            writeln!(out, "--- doc {id} ---\n{xml}").unwrap();
        } else {
            writeln!(out, "{id}").unwrap();
        }
    }
    if trace {
        match &r.trace {
            Some(tree) => {
                writeln!(out, "\ntrace:").unwrap();
                out.push_str(&tree.render());
            }
            None => writeln!(out, "\ntrace: (not recorded)").unwrap(),
        }
    }
    Ok(out)
}

fn remove(a: &mut Args) -> Result<String, String> {
    let [index, id] = a.operands("an index path and a doc id")?;
    let doc_id: u64 = id.parse().map_err(|_| "bad doc id".to_string())?;
    let idx = open(&index)?;
    idx.remove_document(doc_id).map_err(|e| e.to_string())?;
    idx.flush().map_err(|e| e.to_string())?;
    Ok(format!("removed doc {doc_id}\n"))
}

fn explain(a: &mut Args) -> Result<String, String> {
    let plan = a.flag("--plan");
    let opts = QueryOptions {
        no_plan: a.flag("--no-plan"),
        ..Default::default()
    };
    let [index, expr] = a.operands("an index path and one expression")?;
    let idx = open(&index)?;
    idx.explain(&expr, &opts, plan).map_err(|e| e.to_string())
}

fn list(a: &mut Args) -> Result<String, String> {
    let [index] = a.operands("exactly one index path")?;
    let ids = open(&index)?.document_ids().map_err(|e| e.to_string())?;
    let mut out = String::new();
    writeln!(out, "{} document(s)", ids.len()).unwrap();
    for id in ids {
        writeln!(out, "{id}").unwrap();
    }
    Ok(out)
}

fn stats(a: &mut Args) -> Result<String, String> {
    let registry: Option<fn(&vist_obs::Snapshot) -> String> = match a.opt("--format")?.as_deref() {
        None | Some("human") => None,
        Some("json") => Some(vist_obs::render_json),
        Some("prometheus") => Some(vist_obs::render_prometheus),
        Some(other) => {
            return Err(format!(
                "bad --format '{other}' (expected human, json or prometheus)"
            ))
        }
    };
    let [index] = a.operands("exactly one index path")?;
    let idx = open(&index)?;
    // `stats()` refreshes the registry gauges (documents, segments, fence,
    // postings and run bytes) so all three formats see current values.
    let s = idx.stats();
    if let Some(render) = registry {
        return Ok(render(&vist_obs::snapshot()));
    }
    // Also refreshes the leaf-fill gauges.
    let (b, segs) = idx.tier_breakdown().map_err(|e| e.to_string())?;
    let mut out = String::new();
    writeln!(out, "documents:            {}", s.documents).unwrap();
    writeln!(out, "suffix-tree nodes:    {}", s.nodes).unwrap();
    writeln!(out, "D-Ancestor keys:      {}", s.dkeys).unwrap();
    writeln!(out, "segments:             {}", s.segments).unwrap();
    writeln!(out, "segment documents:    {}", s.segment_docs).unwrap();
    writeln!(out, "segment bytes:        {}", s.segment_bytes).unwrap();
    writeln!(out, "segment fence bytes:  {}", s.segment_fence_bytes).unwrap();
    writeln!(out, "postings bytes:       {}", s.postings_bytes).unwrap();
    writeln!(out, "segment run bytes:    {}", s.segment_run_bytes).unwrap();
    writeln!(out, "tombstones:           {}", s.tombstones).unwrap();
    writeln!(out, "tight underflows:     {}", s.underflows).unwrap();
    writeln!(out, "node incarnations:    {}", s.deep_borrows).unwrap();
    writeln!(out, "store bytes:          {}", s.store_bytes).unwrap();
    let tree_line = |label: &str, t: &vist_btree::TreeStats| {
        format!(
            "  {label:<19} {} entries, {} bytes, {} page(s), {:.0}% leaf fill",
            t.entries,
            t.total_bytes,
            t.leaf_pages + t.internal_pages,
            t.leaf_fill() * 100.0
        )
    };
    writeln!(out, "delta:").unwrap();
    for (label, t) in [
        ("D-Ancestor tree:", &b.dancestor),
        ("S-Ancestor tree:", &b.sancestor),
        ("DocId tree:", &b.docid),
        ("edges tree:", &b.edges),
        ("aux tree:", &b.aux),
    ] {
        writeln!(out, "{}", tree_line(label, t)).unwrap();
    }
    for seg in &segs {
        writeln!(out, "segment {} (format v{}):", seg.id, seg.format_version).unwrap();
        for (label, t) in [
            ("D-Ancestor tree:", &seg.trees.dancestor),
            ("S-Ancestor tree:", &seg.trees.sancestor),
            ("DocId tree:", &seg.trees.docid),
            ("documents tree:", &seg.trees.aux),
            ("statistics tree:", &seg.trees.stats),
        ] {
            // What the format is judged by: leaf bytes per record.
            let per_entry = t.leaf_total_bytes as f64 / t.entries.max(1) as f64;
            let line = tree_line(label, t);
            writeln!(out, "{line}, {per_entry:.1} leaf B/entry").unwrap();
        }
    }
    writeln!(out, "page reads:           {}", s.io.reads).unwrap();
    writeln!(out, "page writes:          {}", s.io.writes).unwrap();
    writeln!(out, "wal appends:          {}", s.io.wal_appends).unwrap();
    writeln!(out, "wal commits:          {}", s.io.wal_commits).unwrap();
    writeln!(out, "checkpoints:          {}", s.io.checkpoints).unwrap();
    writeln!(out, "recovered pages:      {}", s.io.recovered_pages).unwrap();
    writeln!(out, "wal bytes discarded:  {}", s.io.wal_discarded_bytes).unwrap();
    let t = s.pool.totals();
    writeln!(
        out,
        "buffer pool:          {} shard(s), {} hits ({} uncontended), {} misses",
        s.pool.shard_count(),
        t.hits,
        t.uncontended_hits,
        t.misses
    )
    .unwrap();
    for (i, sh) in s.pool.shards.iter().enumerate() {
        writeln!(
            out,
            "  shard {i:>2}:           {} hits, {} misses, {} write-backs",
            sh.hits, sh.misses, sh.write_backs
        )
        .unwrap();
    }
    Ok(out)
}

fn profile(a: &mut Args) -> Result<String, String> {
    let opts = QueryOptions::default();
    let [index, queries] = a.operands("an index path and a queries file")?;
    let idx = open(&index)?;
    let text = std::fs::read_to_string(&queries).map_err(|e| format!("{queries}: {e}"))?;
    let exprs: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    if exprs.is_empty() {
        return Err(format!("{queries}: no queries to replay"));
    }
    let mut rows: Vec<(&str, usize, crate::StageTimings)> = Vec::new();
    for expr in exprs {
        let r = idx.query(expr, &opts).map_err(|e| format!("{expr}: {e}"))?;
        rows.push((expr, r.doc_ids.len(), r.timings));
    }

    let mut out = String::new();
    writeln!(out, "replayed {} query(ies)\n", rows.len()).unwrap();
    writeln!(
        out,
        "{:>4}  {:>6}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}  query",
        "#", "docs", "total", "translate", "match", "merge", "docid", "verify"
    )
    .unwrap();
    let mut total_nanos = 0u64;
    for (i, (expr, docs, t)) in rows.iter().enumerate() {
        total_nanos += t.total_nanos;
        writeln!(
            out,
            "{i:>4}  {docs:>6}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}  {expr}",
            vist_obs::format_nanos(t.total_nanos),
            vist_obs::format_nanos(t.translate_nanos),
            vist_obs::format_nanos(t.match_nanos),
            vist_obs::format_nanos(t.merge_nanos),
            vist_obs::format_nanos(t.docid_nanos),
            vist_obs::format_nanos(t.verify_nanos),
        )
        .unwrap();
    }
    writeln!(
        out,
        "\nworkload total: {}",
        vist_obs::format_nanos(total_nanos)
    )
    .unwrap();
    let mut totals: Vec<u64> = rows.iter().map(|(_, _, t)| t.total_nanos).collect();
    totals.sort_unstable();
    let q = |p: f64| vist_obs::format_nanos(vist_obs::percentile::nearest_rank(&totals, p));
    writeln!(
        out,
        "per-query latency: p50 {}  p90 {}  p95 {}  p99 {}  p999 {}  max {}",
        q(0.50),
        q(0.90),
        q(0.95),
        q(0.99),
        q(0.999),
        vist_obs::format_nanos(totals.last().copied().unwrap_or(0)),
    )
    .unwrap();
    Ok(out)
}

fn check(a: &mut Args) -> Result<String, String> {
    let [index] = a.operands("exactly one index path")?;
    let report = open(&index)?.check().map_err(|e| e.to_string())?;
    Ok(format!("{report}ok\n"))
}

fn recover(a: &mut Args) -> Result<String, String> {
    let [index] = a.operands("exactly one index path")?;
    // Opening replays any committed write-ahead-log records and truncates
    // the log; then verify the result and commit it.
    let idx = open(&index)?;
    let io = idx.stats().io;
    let report = idx.check().map_err(|e| e.to_string())?;
    idx.flush().map_err(|e| e.to_string())?;
    Ok(format!(
        "recovered {index}: {} page(s) replayed, {} uncommitted byte(s) discarded\n{report}ok\n",
        io.recovered_pages, io.wal_discarded_bytes,
    ))
}

/// Shrink-search budget (candidate executions) for `vist sim`.
const SIM_SHRINK_BUDGET: usize = 400;

/// `vist sim`: run seeded simulation workloads (see `docs/TESTING.md`).
/// Single-seed and replay output contains no wall-clock values, so two
/// runs with the same arguments print identical bytes.
fn sim(a: &mut Args) -> Result<String, String> {
    let mut config = vist_sim::SimConfig::default();
    a.set("--seed", &mut config.seed)?;
    a.set("--ops", &mut config.ops)?;
    let seconds: Option<u64> = a.num("--seconds")?;
    let replay = a.opt("--replay")?;
    let out_path = a.opt("--out")?;
    config.page_size = a.num("--page-size")?;
    config.lambda = a.num("--lambda")?;
    if let Some(mode) = a.opt("--mutate")? {
        config.mutation = mode.parse().map_err(|e| format!("bad --mutate: {e}"))?;
    }
    let dump = a.flag("--dump");
    a.operands::<0>("")?;
    let scratch = vist_storage::testutil::TempDir::new("vist-sim-cli");

    if let Some(replay) = &replay {
        let text = std::fs::read_to_string(replay).map_err(|e| format!("{replay}: {e}"))?;
        let trace = vist_sim::Trace::from_text(&text).map_err(|e| format!("{replay}: {e}"))?;
        let dir = scratch.file("replay");
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        return match vist_sim::run_trace(&trace, &dir) {
            Ok(report) => Ok(format!("replay {replay}: ok\n{report}\n")),
            Err(d) => Err(format!("replay {replay}: DIVERGENCE at {d}\n")),
        };
    }

    // On divergence: shrink, persist the minimal reproducer, exit nonzero.
    let diverged = |trace: &vist_sim::Trace, d: &vist_sim::Divergence| -> String {
        let shrink_dir = scratch.file("shrink");
        let _ = std::fs::create_dir_all(&shrink_dir);
        let outcome = vist_sim::shrink(trace, &shrink_dir, SIM_SHRINK_BUDGET);
        let text = outcome.trace.to_text();
        let mut msg = format!(
            "seed {}: DIVERGENCE at {d}\nshrunk to {} op(s) in {} run(s); minimized divergence: {}\n",
            trace.seed,
            outcome.trace.ops.len(),
            outcome.runs,
            outcome.divergence,
        );
        match &out_path {
            Some(path) => match std::fs::write(path, &text) {
                Ok(()) => {
                    let _ = writeln!(
                        msg,
                        "reproducer written to {path} (replay: vist sim --replay {path})"
                    );
                }
                Err(e) => {
                    let _ = writeln!(msg, "could not write {path}: {e}");
                    let _ = writeln!(msg, "reproducer:\n{text}");
                }
            },
            None => {
                let _ = writeln!(msg, "reproducer (pass --out FILE to save):\n{text}");
            }
        }
        msg
    };

    if let Some(seconds) = seconds {
        // Smoke mode: consecutive seeds until the time budget is spent.
        // Per-seed results are deterministic; how many seeds fit is not.
        let start = Instant::now();
        let mut out = String::new();
        let mut seed = config.seed;
        let mut ran = 0u64;
        while start.elapsed().as_secs() < seconds {
            let trace = vist_sim::generate(&vist_sim::SimConfig { seed, ..config });
            let dir = scratch.file(&format!("seed-{seed}"));
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            match vist_sim::run_trace(&trace, &dir) {
                Ok(report) => {
                    let _ = writeln!(out, "seed {seed}: ok ({report})");
                }
                Err(d) => return Err(diverged(&trace, &d)),
            }
            let _ = std::fs::remove_dir_all(&dir);
            ran += 1;
            seed += 1;
        }
        let _ = writeln!(out, "{ran} seed(s) in {seconds}s budget: all ok");
        return Ok(out);
    }

    let trace = vist_sim::generate(&config);
    let text = trace.to_text();
    let dir = scratch.file("run");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    match vist_sim::run_trace(&trace, &dir) {
        Ok(report) => {
            let mut out = format!(
                "seed {}: ok\ntrace: {} op(s), digest {:08x} (page_size={} lambda={} mutation={})\n{report}\n",
                trace.seed,
                trace.ops.len(),
                vist_storage::crc32c(text.as_bytes()),
                trace.page_size,
                trace.lambda,
                trace.mutation,
            );
            if dump {
                let _ = writeln!(out, "\n{text}");
            }
            Ok(out)
        }
        Err(d) => Err(diverged(&trace, &d)),
    }
}

fn serve(a: &mut Args) -> Result<String, String> {
    let (index, cfg) = serve_config(a)?;
    let idx = std::sync::Arc::new(open(&index)?);
    let handle = vist_serve::Server::start(idx, cfg).map_err(|e| e.to_string())?;
    // Announce readiness immediately — run() only returns its string
    // after the drain, which may be hours away.
    print_stdout(&format!(
        "serving {index} on {} (SIGTERM drains and exits)\n",
        handle.local_addr(),
    ));
    let report = handle.join();
    let s = report.stats;
    let summary = format!(
        "drained: {} request(s) — {} ok, {} shed, {} deadline-expired, \
         {} draining-rejected, {} bad, {} error(s); flush {}\n",
        s.requests,
        s.ok,
        s.shed,
        s.deadline_expired,
        s.draining_rejected,
        s.bad_requests,
        s.errors,
        if report.flush_ok { "ok" } else { "FAILED" },
    );
    if !report.drained_clean {
        return Err(format!(
            "{summary}drain deadline passed with {} query(ies) still in flight",
            report.inflight_at_deadline,
        ));
    }
    if !report.flush_ok {
        return Err(format!("{summary}final flush failed"));
    }
    Ok(summary)
}

/// `vist serve`'s flags, parsed into the server's own configuration (which
/// keeps its defaults for the flags not given), and its index path.
fn serve_config(a: &mut Args) -> Result<(String, vist_serve::ServeConfig), String> {
    let mut cfg = vist_serve::ServeConfig::default();
    a.set("--addr", &mut cfg.addr)?;
    a.set("--max-inflight", &mut cfg.max_inflight)?;
    a.set("--queue-depth", &mut cfg.queue_depth)?;
    a.set("--max-deadline-ms", &mut cfg.max_deadline_ms)?;
    a.set("--drain-deadline-ms", &mut cfg.drain_deadline_ms)?;
    cfg.access_log = a.opt("--access-log")?;
    let [index] = a.operands("exactly one index path")?;
    Ok((index, cfg))
}

fn traces(a: &mut Args) -> Result<String, String> {
    let (addr, target) = traces_target(a)?;
    let (status, body) = http_get(&addr, &target)?;
    if status != 200 {
        return Err(format!("traces: {addr} answered {status}: {body}"));
    }
    Ok(format!("{body}\n"))
}

/// `vist traces`'s server address (`vist serve`'s default unless given) and
/// the request target its trace id, if any, names.
fn traces_target(a: &mut Args) -> Result<(String, String), String> {
    let mut addr = vist_serve::ServeConfig::default().addr;
    a.set("--addr", &mut addr)?;
    let target = match a.rest()?.as_slice() {
        [] => "/debug/traces".to_string(),
        [id] if vist_obs::traceid::parse(id).is_some() => format!("/debug/traces?id={id}"),
        [id] => {
            return Err(format!(
                "traces: '{id}' is not a trace id (expected up to 32 hex digits)"
            ))
        }
        _ => return Err("traces: expected at most one trace id".into()),
    };
    Ok((addr, target))
}

/// Minimal HTTP GET against a `vist serve` instance (it answers one
/// request per connection and closes). Returns `(status, body)`.
fn http_get(addr: &str, target: &str) -> Result<(u16, String), String> {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| format!("cannot connect to {addr}: {e} (is 'vist serve' running?)"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(format!("GET {target} HTTP/1.1\r\nHost: vist\r\n\r\n").as_bytes())
        .map_err(|e| e.to_string())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(|e| e.to_string())?;
    let status: u16 = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split_whitespace().next())
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("{addr}: malformed HTTP response"))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_string();
    Ok((status, body))
}

/// Write `s` to `w`. `Ok(false)` means the reader hung up
/// (`BrokenPipe`) — not a failure, the caller should just stop writing.
pub fn write_or_broken_pipe<W: std::io::Write>(w: &mut W, s: &str) -> std::io::Result<bool> {
    match w.write_all(s.as_bytes()).and_then(|()| w.flush()) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(false),
        Err(e) => Err(e),
    }
}

/// Print to stdout, exiting cleanly (status 0) when the pipe is gone —
/// so `vist query ... | head` ends quietly instead of panicking.
pub fn print_stdout(s: &str) {
    match write_or_broken_pipe(&mut std::io::stdout(), s) {
        Ok(true) => {}
        Ok(false) => std::process::exit(0),
        Err(e) => {
            eprintln!("error: cannot write to stdout: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// `run` of a whitespace-separated command line.
    fn cmd(line: &str) -> Result<String, String> {
        run(&argv(line))
    }

    /// An index of two books in a fresh directory, and its path.
    fn books(tag: &str) -> (vist_storage::testutil::TempDir, String) {
        let tmp = vist_storage::testutil::TempDir::new(tag);
        let index = tmp.file("i.idx").display().to_string();
        let xml1 = tmp.file("1.xml");
        let xml2 = tmp.file("2.xml");
        std::fs::write(&xml1, "<book><author>David</author></book>").unwrap();
        std::fs::write(&xml2, "<book><author>Mary</author></book>").unwrap();
        cmd(&format!("create {index}")).unwrap();
        let out = cmd(&format!(
            "add {index} {} {}",
            xml1.display(),
            xml2.display()
        ))
        .unwrap();
        assert!(out.contains("doc 0") && out.contains("doc 1"), "{out}");
        (tmp, index)
    }

    #[test]
    fn parse_create_with_options() {
        let tmp = vist_storage::testutil::TempDir::new("cli-create");
        let custom = tmp.file("custom.idx").display().to_string();
        let out = cmd(&format!(
            "create {custom} --page-size 2048 --lambda 4 --no-docs"
        ))
        .unwrap();
        assert_eq!(out, format!("created {custom}\n"));
        let idx = VistIndex::open_file(&custom, 16).unwrap();
        assert_eq!(idx.store().pool().page_size(), 2048);
        assert_eq!(idx.store().meta().lambda, 4);
        assert!(!idx.store().meta().store_documents);

        let plain = tmp.file("plain.idx").display().to_string();
        cmd(&format!("create {plain}")).unwrap();
        let idx = VistIndex::open_file(&plain, 16).unwrap();
        assert_eq!(idx.store().pool().page_size(), 4096);
        assert_eq!(idx.store().meta().lambda, 16);
        assert!(idx.store().meta().store_documents);
    }

    #[test]
    fn parse_query_flags() {
        let (_tmp, index) = books("cli-query-flags");
        let out = cmd(&format!("query {index} //author --verify --show")).unwrap();
        assert!(out.starts_with("2 document(s) (2 candidates before verification)\n"));
        assert!(out.contains("--- doc 1 ---\n<book><author>Mary</author></book>"));
        // `--trace` flips a process-wide switch: `query_trace_prints_span_tree`
        // alone runs it, so that no other test sees the switch on.
        let out = cmd(&format!("query {index} //author")).unwrap();
        assert_eq!(out, "2 document(s)\n0\n1\n");
    }

    #[test]
    fn parse_planner_flags() {
        let (_tmp, index) = books("cli-planner-flags");
        let out = cmd(&format!("query {index} //author --no-plan --limit 1")).unwrap();
        assert_eq!(out.lines().next(), Some("1 document(s)"));
        assert_eq!(
            cmd(&format!("query {index} //author --limit many")).unwrap_err(),
            "bad --limit"
        );
        assert!(cmd(&format!("query {index} //author --limit")).is_err());
        let out = cmd(&format!("explain {index} /book/author --plan")).unwrap();
        assert!(out.contains("plan (delta):\n"), "{out}");
        assert!(out.contains("engine:  "), "{out}");
        let out = cmd(&format!("explain {index} //author --plan --no-plan")).unwrap();
        assert!(out.contains("[planner off: naive order]"), "{out}");
        let out = cmd(&format!("explain {index} //author")).unwrap();
        assert!(!out.contains("plan ("), "{out}");
    }

    #[test]
    fn parse_stats_formats() {
        let (_tmp, index) = books("cli-stats-formats");
        for line in [
            format!("stats {index}"),
            format!("stats {index} --format human"),
        ] {
            let human = cmd(&line).unwrap();
            assert!(human.starts_with("documents:            2\n"), "{human}");
        }
        let json = cmd(&format!("stats {index} --format json")).unwrap();
        assert!(json.contains("\"vist_core_documents\""), "{json}");
        let prom = cmd(&format!("stats {index} --format prometheus")).unwrap();
        assert!(prom.contains("# TYPE"), "{prom}");
        assert_eq!(
            cmd(&format!("stats {index} --format yaml")).unwrap_err(),
            "bad --format 'yaml' (expected human, json or prometheus)"
        );
        assert!(cmd(&format!("stats {index} --format")).is_err());
    }

    #[test]
    fn parse_profile() {
        let (tmp, index) = books("cli-parse-profile");
        let qfile = tmp.file("q.txt");
        std::fs::write(&qfile, "//author\n").unwrap();
        let out = cmd(&format!("profile {index} {}", qfile.display())).unwrap();
        assert!(out.starts_with("replayed 1 query(ies)\n"));
        assert!(cmd(&format!("profile {index}")).is_err());
    }

    #[test]
    fn parse_errors() {
        let expect = [
            ("create", "create: expected exactly one index path"),
            ("create a b", "create: expected exactly one index path"),
            (
                "add idx",
                "add: expected an index path and at least one XML file",
            ),
            (
                "query idx",
                "query: expected an index path and one expression",
            ),
            ("remove idx notanumber", "bad doc id"),
            (
                "frobnicate",
                "unknown subcommand 'frobnicate' (try 'vist help')",
            ),
            ("create idx --page-size", "--page-size needs a value"),
            // A misspelled flag is named, whatever the subcommand.
            (
                "query idx /a --limt 5",
                "query: unexpected argument '--limt'",
            ),
            (
                "explain idx /a --plna",
                "explain: unexpected argument '--plna'",
            ),
            (
                "stats idx --fromat json",
                "stats: unexpected argument '--fromat'",
            ),
            ("add idx a.xml --show", "add: unexpected argument '--show'"),
            (
                "load idx dir --threads 2",
                "load: unexpected argument '--threads'",
            ),
            ("serve idx --port 9", "serve: unexpected argument '--port'"),
            (
                "serve idx --query-workers 2",
                "serve: unexpected argument '--query-workers'",
            ),
            (
                "query idx /a --workers 2",
                "query: unexpected argument '--workers'",
            ),
            (
                "traces --trace-id 00ff",
                "traces: unexpected argument '--trace-id'",
            ),
            ("sim --seeds 3", "sim: unexpected argument '--seeds'"),
            (
                "compact idx --vacuum",
                "compact: unexpected argument '--vacuum'",
            ),
        ];
        for (line, err) in expect {
            assert_eq!(cmd(line).unwrap_err(), err, "{line}");
        }
    }

    #[test]
    fn parse_sim() {
        let out = cmd("sim").unwrap();
        assert!(
            out.starts_with("seed 1: ok\ntrace: 200 op(s), digest "),
            "{out}"
        );
        assert!(out.contains("mutation=none)"), "{out}");
        let tmp = vist_storage::testutil::TempDir::new("cli-parse-sim");
        let min = tmp.file("min.trace");
        let r = cmd(&format!(
            "sim --seed 9 --ops 50 --mutate scope-off-by-one --out {} --dump",
            min.display()
        ));
        match r {
            // Caught: the reproducer went to --out.
            Err(msg) => {
                assert!(msg.starts_with("seed 9: DIVERGENCE"), "{msg}");
                assert!(min.exists(), "{msg}");
            }
            // Missed: the full trace is dumped after the summary.
            Ok(out) => {
                assert!(out.starts_with("seed 9: ok\ntrace: 50 op(s)"), "{out}");
                assert!(out.contains("mutation=scope-off-by-one)"), "{out}");
                assert!(out.contains("op insert"), "{out}");
            }
        }
        let missing = tmp.file("absent.trace").display().to_string();
        let err = cmd(&format!("sim --replay {missing}")).unwrap_err();
        assert!(err.starts_with(&format!("{missing}: ")), "{err}");
        assert_eq!(cmd("sim --seed nope").unwrap_err(), "bad --seed");
        assert!(cmd("sim --mutate frob")
            .unwrap_err()
            .starts_with("bad --mutate: "));
        assert_eq!(
            cmd("sim stray").unwrap_err(),
            "sim: unexpected argument 'stray'"
        );
    }

    #[test]
    fn sim_single_seed_is_byte_reproducible() {
        let a = cmd("sim --seed 3 --ops 40 --dump").unwrap();
        let b = cmd("sim --seed 3 --ops 40 --dump").unwrap();
        assert_eq!(a, b);
        assert!(a.contains("seed 3: ok"), "{a}");
        assert!(a.contains("op insert"), "{a}");
    }

    #[test]
    fn sim_mutation_produces_reproducer_and_replay_diverges() {
        let tmp = vist_storage::testutil::TempDir::new("cli-sim-mut");
        let out = tmp.file("min.trace");
        // A seed known (and tested in vist-sim) to trip the planted bug
        // within a small window; sweep a few to stay robust.
        let msg = (1..=12u64)
            .find_map(|seed| {
                cmd(&format!(
                    "sim --seed {seed} --ops 120 --mutate scope-off-by-one --out {}",
                    out.display()
                ))
                .err()
            })
            .expect("planted mutation not caught by any seed in 1..=12");
        assert!(msg.contains("DIVERGENCE"), "{msg}");
        assert!(msg.contains("reproducer written"), "{msg}");
        let replayed = cmd(&format!("sim --replay {}", out.display()));
        let replay_msg = replayed.expect_err("minimized trace must still diverge");
        assert!(replay_msg.contains("DIVERGENCE"), "{replay_msg}");
    }

    #[test]
    fn help_default() {
        assert_eq!(run(&[]), Ok(USAGE.to_string()));
        assert_eq!(cmd("help"), Ok(USAGE.to_string()));
        assert_eq!(cmd("--help"), Ok(USAGE.to_string()));
        assert!(USAGE.contains("USAGE"));
    }

    #[test]
    fn parse_list() {
        let (_tmp, index) = books("cli-list");
        assert_eq!(
            cmd(&format!("list {index}")),
            Ok("2 document(s)\n0\n1\n".into())
        );
        assert_eq!(
            cmd("list").unwrap_err(),
            "list: expected exactly one index path"
        );
    }

    #[test]
    fn parse_check_and_recover() {
        assert_eq!(
            cmd("check").unwrap_err(),
            "check: expected exactly one index path"
        );
        assert_eq!(
            cmd("recover a b").unwrap_err(),
            "recover: expected exactly one index path"
        );
        let (_tmp, index) = books("cli-parse-check");
        assert!(cmd(&format!("check {index}")).is_ok());
        assert!(cmd(&format!("recover {index}")).is_ok());
    }

    #[test]
    fn check_and_recover_on_healthy_index() {
        let (_tmp, index) = books("cli-check");
        let out = cmd(&format!("check {index}")).unwrap();
        assert!(out.contains("tree dancestor ok"), "{out}");
        assert!(out.contains("delta labels ok"), "{out}");
        assert!(out.contains("delta statistics ok"), "{out}");
        assert!(out.trim_end().ends_with("ok"), "{out}");
        let out = cmd(&format!("recover {index}")).unwrap();
        assert!(out.contains("recovered"), "{out}");
        assert!(out.contains("0 page(s) replayed"), "{out}");
    }

    #[test]
    fn end_to_end_lifecycle() {
        let (_tmp, index) = books("cli-e2e");
        let out = cmd(&format!(
            "query {index} /book/author[text='David'] --verify --show"
        ))
        .unwrap();
        assert!(out.starts_with("1 document(s)"), "{out}");
        assert!(out.contains("David"));

        let out = cmd(&format!("stats {index}")).unwrap();
        assert!(out.contains("documents:            2"), "{out}");
        assert!(out.contains("buffer pool:"), "{out}");
        assert!(out.contains("wal appends:"), "{out}");
        assert!(out.contains("wal commits:"), "{out}");
        assert!(out.contains("checkpoints:"), "{out}");
        assert!(out.contains("recovered pages:"), "{out}");

        assert_eq!(
            cmd(&format!("remove {index} 0")),
            Ok("removed doc 0\n".into())
        );
        let out = cmd(&format!("query {index} //author")).unwrap();
        assert!(out.starts_with("1 document(s)"), "{out}");
    }

    /// A directory of one-author books, one file each.
    fn corpus(tmp: &vist_storage::testutil::TempDir, names: &[&str]) -> String {
        let dir = tmp.file("corpus");
        std::fs::create_dir(&dir).unwrap();
        for (i, name) in names.iter().enumerate() {
            std::fs::write(
                dir.join(format!("{i}.xml")),
                format!("<book><author>{name}</author></book>"),
            )
            .unwrap();
        }
        dir.display().to_string()
    }

    #[test]
    fn parse_load_and_compact() {
        let tmp = vist_storage::testutil::TempDir::new("cli-parse-load");
        let index = tmp.file("i.idx").display().to_string();
        let dir = corpus(&tmp, &["ann", "bob"]);
        cmd(&format!("create {index}")).unwrap();
        for (flags, err) in [
            ("--ingest-threads 0", "bad --ingest-threads"),
            ("--ingest-threads x", "bad --ingest-threads"),
            ("--ingest-threads 1 --batch-size 0", "bad --batch-size"),
        ] {
            assert_eq!(
                cmd(&format!("load {index} {dir} {flags}")).unwrap_err(),
                err
            );
        }
        let expected = "load: expected an index path and a directory or XML file";
        assert_eq!(cmd(&format!("load {index}")).unwrap_err(), expected);
        assert_eq!(cmd("load").unwrap_err(), expected);
        let expected = "compact: expected exactly one index path";
        assert_eq!(cmd("compact").unwrap_err(), expected);
        assert_eq!(
            cmd(&format!("compact {index} extra")).unwrap_err(),
            expected
        );
        let out = cmd(&format!(
            "load {index} {dir} --ingest-threads 4 --batch-size 1"
        ))
        .unwrap();
        assert!(out.starts_with("batch ingested 2 document(s) (ids 0..=1) in 2 group"));
        assert!(out.contains("at 4 prepare thread(s)"), "{out}");
        let out = cmd(&format!("load {index} {dir}")).unwrap();
        assert!(
            out.starts_with("bulk loaded 2 document(s) (ids 2..=3)"),
            "{out}"
        );
        // Without --batch-size a group commit takes 512 documents.
        let out = cmd(&format!("load {index} {dir} --ingest-threads 1")).unwrap();
        assert!(
            out.starts_with("batch ingested 2 document(s) (ids 4..=5) in 1 group commit(s) "),
            "{out}"
        );
        assert!(cmd(&format!("compact {index}")).is_ok());
    }

    #[test]
    fn load_batch_size_needs_ingest_threads() {
        let tmp = vist_storage::testutil::TempDir::new("cli-load-batch-size");
        let index = tmp.file("i.idx").display().to_string();
        let dir = corpus(&tmp, &["ann", "bob"]);
        cmd(&format!("create {index}")).unwrap();
        let err = cmd(&format!("load {index} {dir} --batch-size 64")).unwrap_err();
        assert!(
            err.contains("--batch-size") && err.contains("--ingest-threads"),
            "{err}"
        );
        // Nothing was loaded.
        assert_eq!(cmd(&format!("list {index}")), Ok("0 document(s)\n".into()));
    }

    #[test]
    fn end_to_end_tiered_load_and_compact() {
        let tmp = vist_storage::testutil::TempDir::new("cli-tiered");
        let index = tmp.file("i.idx").display().to_string();
        let dir = corpus(&tmp, &["ann", "bob", "eve"]);
        cmd(&format!("create {index}")).unwrap();
        let out = cmd(&format!("load {index} {dir}")).unwrap();
        assert!(out.contains("bulk loaded 3 document(s)"), "{out}");
        assert!(out.contains("1 segment(s)"), "{out}");

        // Loading a single file appends a second segment.
        let single = tmp.file("extra.xml");
        std::fs::write(&single, "<book><author>dan</author></book>").unwrap();
        let out = cmd(&format!("load {index} {}", single.display())).unwrap();
        assert!(out.contains("bulk loaded 1 document(s)"), "{out}");
        assert!(out.contains("2 segment(s)"), "{out}");

        // Queries see segment-resident documents; removal tombstones them.
        let out = cmd(&format!("query {index} //author --verify")).unwrap();
        assert!(out.starts_with("4 document(s)"), "{out}");
        cmd(&format!("remove {index} 1")).unwrap();

        let out = cmd(&format!("stats {index}")).unwrap();
        assert!(out.contains("segments:             2"), "{out}");
        assert!(out.contains("tombstones:           1"), "{out}");
        assert!(out.contains("delta:"), "{out}");
        assert!(out.contains("segment 1 (format v2):"), "{out}");
        assert!(out.contains("statistics tree:"), "{out}");
        assert!(out.contains("leaf fill"), "{out}");
        // Per segment tree, leaf bytes per record; the delta's lines are
        // what they were.
        assert_eq!(out.matches("leaf B/entry\n").count(), 2 * 5, "{out}");
        // Five single-leaf trees a segment: one empty fence, two offsets
        // and one leaf id each.
        assert!(out.contains("segment fence bytes:  120\n"), "{out}");

        let out = cmd(&format!("check {index}")).unwrap();
        for tree in ["dancestor", "sancestor", "docid", "documents", "stats"] {
            let line = format!("segment 2 tree {tree:<9} ok");
            assert!(out.contains(&line), "{line:?} missing in {out}");
        }

        let out = cmd(&format!("compact {index}")).unwrap();
        assert!(out.contains("compacted 2 segment(s)"), "{out}");
        assert!(out.contains("1 tombstoned doc(s) dropped"), "{out}");
        assert!(out.contains("3 live document(s)"), "{out}");

        let out = cmd(&format!("query {index} //author --verify --show")).unwrap();
        assert!(out.starts_with("3 document(s)"), "{out}");
        assert!(!out.contains("bob"), "{out}");
    }

    /// The label column of `vist stats`, pinned in order: the human format
    /// is documented as stable. Counts vary; the labels may not.
    #[test]
    fn stats_human_labels_are_stable() {
        let tmp = vist_storage::testutil::TempDir::new("cli-stats-labels");
        let index = tmp.file("i.idx").display().to_string();
        let dir = corpus(&tmp, &["ann", "bob"]);
        cmd(&format!("create {index}")).unwrap();
        cmd(&format!("load {index} {dir}")).unwrap();
        let extra = tmp.file("extra.xml");
        std::fs::write(&extra, "<book><author>dan</author></book>").unwrap();
        cmd(&format!("add {index} {}", extra.display())).unwrap();
        let out = cmd(&format!("stats {index}")).unwrap();
        let labels: Vec<&str> = out
            .lines()
            .map(|l| l.split_once(':').map_or(l, |(label, _)| label))
            .collect();
        let (labels, shards) = labels
            .split_at(labels.len() - labels.iter().filter(|l| l.starts_with("  shard")).count());
        assert!(!shards.is_empty(), "{out}");
        let trees = |names: [&'static str; 5]| names.map(|t| format!("  {t} tree"));
        let mut expected: Vec<String> = [
            "documents",
            "suffix-tree nodes",
            "D-Ancestor keys",
            "segments",
            "segment documents",
            "segment bytes",
            "segment fence bytes",
            "postings bytes",
            "segment run bytes",
            "tombstones",
            "tight underflows",
            "node incarnations",
            "store bytes",
            "delta",
        ]
        .map(String::from)
        .to_vec();
        expected.extend(trees(["D-Ancestor", "S-Ancestor", "DocId", "edges", "aux"]));
        expected.push("segment 1 (format v2)".into());
        expected.extend(trees([
            "D-Ancestor",
            "S-Ancestor",
            "DocId",
            "documents",
            "statistics",
        ]));
        expected.extend(
            [
                "page reads",
                "page writes",
                "wal appends",
                "wal commits",
                "checkpoints",
                "recovered pages",
                "wal bytes discarded",
                "buffer pool",
            ]
            .map(String::from),
        );
        assert_eq!(labels, expected, "{out}");
    }

    #[test]
    fn end_to_end_batch_ingest_load() {
        let tmp = vist_storage::testutil::TempDir::new("cli-batch-ingest");
        let index = tmp.file("i.idx").display().to_string();
        let dir = corpus(&tmp, &["ann", "bob", "eve", "dan", "kim"]);
        cmd(&format!("create {index}")).unwrap();
        let out = cmd(&format!(
            "load {index} {dir} --ingest-threads 2 --batch-size 2"
        ))
        .unwrap();
        assert!(out.contains("batch ingested 5 document(s)"), "{out}");
        assert!(out.contains("3 group commit(s)"), "{out}");
        assert!(out.contains("(ids 0..=4)"), "{out}");

        // Batch-ingested documents are dynamic-path residents: no segment
        // is created, and they answer queries like any other insert.
        let out = cmd(&format!("query {index} //author --verify")).unwrap();
        assert!(out.starts_with("5 document(s)"), "{out}");

        let out = cmd(&format!("stats {index}")).unwrap();
        assert!(out.contains("documents:            5"), "{out}");
        assert!(out.contains("segments:             0"), "{out}");
    }

    /// Build a small index for the observability-command tests.
    fn obs_fixture(tag: &str) -> (vist_storage::testutil::TempDir, String) {
        let tmp = vist_storage::testutil::TempDir::new(tag);
        let index = tmp.file("i.idx").display().to_string();
        let xml = tmp.file("d.xml");
        std::fs::write(
            &xml,
            "<site><people><person><name>ann</name></person>\
             <person><name>bob</name></person></people></site>",
        )
        .unwrap();
        cmd(&format!("create {index}")).unwrap();
        cmd(&format!("add {index} {}", xml.display())).unwrap();
        (tmp, index)
    }

    #[test]
    fn query_trace_prints_span_tree() {
        let (_tmp, index) = obs_fixture("cli-trace");
        let out = cmd(&format!("query {index} /site/people/person/name --trace")).unwrap();
        assert!(out.contains("trace:"), "{out}");
        assert!(out.contains("query"), "{out}");
        assert!(out.contains("translate"), "{out}");
        assert!(out.contains("match"), "{out}");
        // The command restores the global toggle afterwards.
        assert!(!vist_obs::tracing_enabled());
    }

    #[test]
    fn stats_machine_formats_expose_all_layers() {
        let (_tmp, index) = obs_fixture("cli-stats-fmt");
        // Run one query so the query-path metrics have moved.
        cmd(&format!("query {index} //name")).unwrap();
        let prom = cmd(&format!("stats {index} --format prometheus")).unwrap();
        // One counter, gauge and histogram from each instrumented crate.
        for name in [
            "vist_storage_pool_miss_total",
            "vist_storage_store_bytes",
            "vist_storage_page_read_nanos",
            "vist_btree_get_total",
            "vist_btree_depth",
            "vist_btree_probe_depth",
            "vist_core_query_total",
            "vist_core_documents",
            "vist_core_query_nanos",
        ] {
            assert!(prom.contains(name), "missing {name} in:\n{prom}");
        }
        assert!(prom.contains("# TYPE"), "{prom}");
        assert!(prom.contains("_bucket{le="), "{prom}");

        let json = cmd(&format!("stats {index} --format json")).unwrap();
        assert!(json.contains("\"vist_core_query_total\""), "{json}");
        assert!(json.contains("\"vist_storage_store_bytes\""), "{json}");
        assert!(json.contains("\"p99\""), "{json}");
    }

    #[test]
    fn profile_replays_a_workload() {
        let (tmp, index) = obs_fixture("cli-profile");
        let qfile = tmp.file("q.txt");
        std::fs::write(&qfile, "# workload\n/site/people/person/name\n\n//name\n").unwrap();
        let out = cmd(&format!("profile {index} {}", qfile.display())).unwrap();
        assert!(out.contains("replayed 2 query(ies)"), "{out}");
        assert!(out.contains("/site/people/person/name"), "{out}");
        assert!(out.contains("workload total:"), "{out}");

        let missing = tmp.file("absent.txt");
        assert!(cmd(&format!("profile {index} {}", missing.display())).is_err());
    }

    #[test]
    fn parse_query_deadline() {
        let (_tmp, index) = books("cli-deadline");
        let out = cmd(&format!("query {index} //author --deadline-ms 60000")).unwrap();
        assert!(out.starts_with("2 document(s)"), "{out}");
        assert_eq!(
            cmd(&format!("query {index} //author --deadline-ms soon")).unwrap_err(),
            "bad --deadline-ms"
        );
        assert_eq!(
            cmd(&format!("query {index} //author --deadline-ms")).unwrap_err(),
            "--deadline-ms needs a value"
        );
    }

    #[test]
    fn parse_serve() {
        let mut a = Args {
            sub: "serve".into(),
            rest: argv(
                "idx --addr 127.0.0.1:0 --max-inflight 2 --queue-depth 3 \
                 --max-deadline-ms 500 --drain-deadline-ms 900 \
                 --access-log access.jsonl",
            ),
        };
        let (index, cfg) = serve_config(&mut a).unwrap();
        assert_eq!(index, "idx");
        assert_eq!(cfg.addr, "127.0.0.1:0");
        assert_eq!((cfg.max_inflight, cfg.queue_depth), (2, 3));
        assert_eq!((cfg.max_deadline_ms, cfg.drain_deadline_ms), (500, 900));
        assert_eq!(cfg.access_log.as_deref(), Some("access.jsonl"));
        // Defaults fill in everything but the index path.
        let mut a = Args {
            sub: "serve".into(),
            rest: argv("idx"),
        };
        let (_, cfg) = serve_config(&mut a).unwrap();
        let defaults = vist_serve::ServeConfig::default();
        assert_eq!(cfg.queue_depth, defaults.queue_depth);
        assert_eq!(cfg.max_deadline_ms, defaults.max_deadline_ms);
        assert_eq!(cfg.access_log, None);
        // Through `run`: the flags parse before the index is opened.
        assert_eq!(
            cmd("serve").unwrap_err(),
            "serve: expected exactly one index path"
        );
        assert_eq!(
            cmd("serve idx --max-inflight lots").unwrap_err(),
            "bad --max-inflight"
        );
        assert_eq!(
            cmd("serve idx --access-log").unwrap_err(),
            "--access-log needs a value"
        );
    }

    #[test]
    fn parse_traces() {
        let mut a = Args {
            sub: "traces".into(),
            rest: argv("--addr 127.0.0.1:9 00ff"),
        };
        assert_eq!(
            traces_target(&mut a).unwrap(),
            ("127.0.0.1:9".into(), "/debug/traces?id=00ff".into())
        );
        // A bare `traces` asks `vist serve`'s default address for the list.
        let mut a = Args {
            sub: "traces".into(),
            rest: Vec::new(),
        };
        assert_eq!(
            traces_target(&mut a).unwrap(),
            (
                vist_serve::ServeConfig::default().addr,
                "/debug/traces".into()
            )
        );
        // Nothing listens on port 1: the error names the address parsed.
        let err = cmd("traces --addr 127.0.0.1:1 00ff").unwrap_err();
        assert!(err.starts_with("cannot connect to 127.0.0.1:1: "), "{err}");
        assert_eq!(
            cmd("traces a b").unwrap_err(),
            "traces: expected at most one trace id"
        );
        // A malformed id is rejected before any connection attempt.
        let err = cmd("traces --addr 127.0.0.1:1 not-hex").unwrap_err();
        assert!(err.contains("not a trace id"), "{err}");
    }

    /// `USAGE` and the parsers are the two places a flag is written down:
    /// every `[--flag ...]` of a subcommand's usage lines must be taken by
    /// its function. Given all of them at once, with valid values and
    /// operands to spare, every subcommand fails on its operands — not on a
    /// flag it does not know or a value it cannot read.
    #[test]
    fn every_usage_flag_is_accepted() {
        let synopsis = USAGE
            .split("USAGE:\n")
            .nth(1)
            .and_then(|s| s.split("\n\n").next())
            .unwrap();
        let mut subs: Vec<(String, Vec<String>)> = Vec::new();
        for line in synopsis.lines() {
            if let Some(rest) = line.trim_start().strip_prefix("vist ") {
                let sub = rest.split_whitespace().next().unwrap();
                subs.push((sub.to_string(), Vec::new()));
            }
            let flags = &mut subs.last_mut().unwrap().1;
            for group in line.split('[').skip(1) {
                let group = group.split(']').next().unwrap();
                let mut words = group.split_whitespace();
                let Some(flag) = words.next().filter(|w| w.starts_with("--")) else {
                    continue;
                };
                flags.push(flag.to_string());
                // `N` and `B` are numbers; of alternatives, take the first.
                match words.next() {
                    Some("N" | "B") => flags.push("1".into()),
                    Some(value) => flags.push(value.split('|').next().unwrap().into()),
                    None => {}
                }
            }
        }
        assert_eq!(subs.len(), 15, "{synopsis}");
        let mut checked = 0;
        for (sub, flags) in &subs {
            if flags.is_empty() {
                continue;
            }
            let line = format!("{sub} {} stray stray stray", flags.join(" "));
            let err = cmd(&line).unwrap_err();
            assert!(
                err == format!("{sub}: unexpected argument 'stray'")
                    || err.starts_with(&format!("{sub}: expected ")),
                "{line}: {err}"
            );
            checked += 1;
        }
        assert_eq!(checked, 8);
    }

    #[test]
    fn broken_pipe_is_a_clean_stop_not_an_error() {
        struct Sink(std::io::ErrorKind);
        impl std::io::Write for Sink {
            fn write(&mut self, _b: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::from(self.0))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut ok = Vec::new();
        assert!(write_or_broken_pipe(&mut ok, "hello").unwrap());
        assert_eq!(ok, b"hello");
        // A hung-up reader is a clean stop…
        let mut gone = Sink(std::io::ErrorKind::BrokenPipe);
        assert!(!write_or_broken_pipe(&mut gone, "x").unwrap());
        // …while any other I/O failure propagates.
        let mut broken = Sink(std::io::ErrorKind::PermissionDenied);
        assert!(write_or_broken_pipe(&mut broken, "x").is_err());
    }
}
