//! Implementation of the `vist` command-line tool (see `src/bin/vist.rs`).
//!
//! Kept in the library so argument parsing and command execution are unit
//! testable without spawning processes.

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::{IndexOptions, QueryOptions, VistIndex};

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `vist create <index> [--page-size N] [--lambda N] [--no-docs]`
    Create {
        /// Index file path.
        index: PathBuf,
        /// Page size in bytes.
        page_size: usize,
        /// Scope-allocation λ.
        lambda: u64,
        /// Whether to store original documents.
        store_documents: bool,
    },
    /// `vist add <index> <xml-file>...`
    Add {
        /// Index file path.
        index: PathBuf,
        /// XML files, each holding one document.
        files: Vec<PathBuf>,
    },
    /// `vist query <index> <expr> [--verify] [--show] [--workers N] [--trace]
    /// [--no-plan] [--limit N] [--deadline-ms N]`
    Query {
        /// Index file path.
        index: PathBuf,
        /// Path expression.
        expr: String,
        /// Post-filter through the exact matcher.
        verify: bool,
        /// Print matching documents' XML, not just ids.
        show: bool,
        /// Match-engine worker threads (1 = serial).
        workers: usize,
        /// Print the hierarchical span tree of the query's execution.
        trace: bool,
        /// Disable the cost-based planner (naive order, for bisection).
        no_plan: bool,
        /// Stop after this many matching documents.
        limit: Option<usize>,
        /// Cooperative cancellation budget in milliseconds.
        deadline_ms: Option<u64>,
    },
    /// `vist load <index> <dir|file.xml> [--ingest-threads N] [--batch-size B]`
    Load {
        /// Index file path.
        index: PathBuf,
        /// A directory of `*.xml` files (loaded in sorted name order) or a
        /// single XML file.
        input: PathBuf,
        /// `Some(n)`: route through `insert_batch` with `n` parallel
        /// prepare workers (dynamic inserts, group-committed per batch)
        /// instead of `bulk_build`'s packed segment.
        ingest_threads: Option<usize>,
        /// Documents per group commit when `ingest_threads` is set.
        batch_size: usize,
    },
    /// `vist compact <index>`
    Compact {
        /// Index file path.
        index: PathBuf,
    },
    /// `vist remove <index> <doc-id>`
    Remove {
        /// Index file path.
        index: PathBuf,
        /// Document to remove.
        doc_id: u64,
    },
    /// `vist explain <index> <expr> [--workers N] [--plan] [--no-plan]`
    Explain {
        /// Index file path.
        index: PathBuf,
        /// Path expression.
        expr: String,
        /// Match-engine worker threads (1 = serial).
        workers: usize,
        /// Show the planner report (estimated vs actual cardinalities per
        /// step, chosen DocId strategy).
        plan: bool,
        /// Disable the cost-based planner (naive order).
        no_plan: bool,
    },
    /// `vist list <index>`
    List {
        /// Index file path.
        index: PathBuf,
    },
    /// `vist stats <index> [--format human|json|prometheus]`
    Stats {
        /// Index file path.
        index: PathBuf,
        /// Output format.
        format: StatsFormat,
    },
    /// `vist profile <index> <queries-file> [--workers N]`
    Profile {
        /// Index file path.
        index: PathBuf,
        /// File with one path expression per line (`#` comments allowed).
        queries: PathBuf,
        /// Match-engine worker threads (1 = serial).
        workers: usize,
    },
    /// `vist check <index>`
    Check {
        /// Index file path.
        index: PathBuf,
    },
    /// `vist recover <index>`
    Recover {
        /// Index file path.
        index: PathBuf,
    },
    /// `vist sim [--seed N] [--ops N] [--seconds N] [--replay FILE]
    /// [--out FILE] [--page-size N] [--lambda N] [--mutate MODE] [--dump]`
    Sim {
        /// Workload seed (single-run mode).
        seed: u64,
        /// Ops per generated trace.
        ops: usize,
        /// Time-boxed mode: run seeds `seed, seed+1, ...` for this many
        /// seconds (output is not byte-reproducible across hosts).
        seconds: Option<u64>,
        /// Replay a serialized trace instead of generating one.
        replay: Option<PathBuf>,
        /// Where to write the minimized reproducer on divergence.
        out: Option<PathBuf>,
        /// Page size override (seeded pick when absent).
        page_size: Option<usize>,
        /// Scope-allocation λ override (seeded pick when absent).
        lambda: Option<u64>,
        /// Planted bug to validate the harness (`scope-off-by-one`).
        mutate: vist_sim::SimMutation,
        /// Print the full generated trace, not just its digest.
        dump: bool,
    },
    /// `vist serve <index> [--addr H:P] [--max-inflight N] [--queue-depth N]
    /// [--query-workers N] [--max-deadline-ms N] [--drain-deadline-ms N]
    /// [--access-log FILE]`
    Serve {
        /// Index file path.
        index: PathBuf,
        /// Bind address (`host:port`; port 0 picks a free port).
        addr: String,
        /// Concurrent query slots.
        max_inflight: usize,
        /// Bounded admission queue depth (waiters beyond it are shed).
        queue_depth: usize,
        /// Match-engine workers per query.
        query_workers: usize,
        /// Hard cap on any query's deadline budget.
        max_deadline_ms: u64,
        /// How long SIGTERM waits for in-flight queries.
        drain_deadline_ms: u64,
        /// Wide-event access log path (one JSON line per request).
        access_log: Option<PathBuf>,
    },
    /// `vist traces [--addr H:P] [<trace-id>]`
    Traces {
        /// Server address whose `/debug/traces` endpoint to query.
        addr: String,
        /// Resolve one 32-hex-digit trace id to its span tree instead
        /// of listing the retained traces.
        id: Option<String>,
    },
    /// `vist bench-serve [--addr H:P] [--expr E] [--deadline-ms N]
    /// [--clients N] [--burst-clients N] [--duration-ms N] [--smoke]
    /// [--out FILE]`
    BenchServe {
        /// Server address to load.
        addr: String,
        /// Query expression every client sends.
        expr: String,
        /// Per-request client deadline (0 = server cap).
        deadline_ms: u32,
        /// Clients in the loaded phase.
        clients: Option<usize>,
        /// Clients in the overload burst (size ≥ 4× server capacity).
        burst_clients: Option<usize>,
        /// Per-phase duration override.
        duration_ms: Option<u64>,
        /// CI smoke mode: short phases, assert shed responses appear.
        smoke: bool,
        /// Write the JSON report (`BENCH_serve.json`) here.
        out: Option<PathBuf>,
    },
    /// `vist help`
    Help,
}

/// Output format for `vist stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StatsFormat {
    /// The stable, human-readable key/value listing.
    #[default]
    Human,
    /// The `vist-obs` metrics registry as a JSON document.
    Json,
    /// The `vist-obs` metrics registry in Prometheus text exposition
    /// format.
    Prometheus,
}

impl std::str::FromStr for StatsFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "human" => Ok(StatsFormat::Human),
            "json" => Ok(StatsFormat::Json),
            "prometheus" => Ok(StatsFormat::Prometheus),
            other => Err(format!(
                "bad --format '{other}' (expected human, json or prometheus)"
            )),
        }
    }
}

/// Usage text.
pub const USAGE: &str = "\
vist — index and query XML documents by tree structure (SIGMOD'03 ViST)

USAGE:
  vist create  <index> [--page-size N] [--lambda N] [--no-docs]
  vist add     <index> <file.xml>...
  vist load    <index> <dir|file.xml> [--ingest-threads N] [--batch-size B]
  vist compact <index>
  vist query   <index> '<expr>' [--verify] [--show] [--workers N] [--trace]
               [--no-plan] [--limit N] [--deadline-ms N]
  vist remove  <index> <doc-id>
  vist explain <index> '<expr>' [--workers N] [--plan] [--no-plan]
  vist list    <index>
  vist stats   <index> [--format human|json|prometheus]
  vist profile <index> <queries-file> [--workers N]
  vist check   <index>
  vist recover <index>
  vist sim     [--seed N] [--ops N] [--seconds N] [--replay FILE] [--out FILE]
               [--page-size N] [--lambda N] [--mutate scope-off-by-one] [--dump]
  vist serve   <index> [--addr H:P] [--max-inflight N] [--queue-depth N]
               [--query-workers N] [--max-deadline-ms N] [--drain-deadline-ms N]
               [--access-log FILE]
  vist traces  [--addr H:P] [<trace-id>]
  vist bench-serve [--addr H:P] [--expr E] [--deadline-ms N] [--clients N]
               [--burst-clients N] [--duration-ms N] [--smoke] [--out FILE]

SERVING (see docs/SERVING.md):
  serve                length-prefixed binary protocol + HTTP shim (/query,
                       /metrics, /healthz) over one shared index; overload is
                       shed with OVERLOADED/429 + retry-after, every query's
                       deadline is capped by --max-deadline-ms, and SIGTERM
                       drains in-flight queries then flushes and exits 0
  bench-serve          closed-loop load generator: uncontended baseline,
                       capacity load, then an overload burst; reports exact
                       p50/p95/p99/p999 latencies and shed rate as JSON
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
                       chosen DocId resolution strategy

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
  load                 bulk-load a batch through external sort into one
                       immutable packed segment (~100% leaf fill) instead of
                       the per-document dynamic insert path
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

/// Parse `args` (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let sub = it.next().map(String::as_str).unwrap_or("help");
    let mut rest: Vec<&String> = it.collect();

    fn take_flag(rest: &mut Vec<&String>, flag: &str) -> bool {
        if let Some(pos) = rest.iter().position(|a| *a == flag) {
            rest.remove(pos);
            true
        } else {
            false
        }
    }
    fn take_opt(rest: &mut Vec<&String>, flag: &str) -> Result<Option<String>, String> {
        if let Some(pos) = rest.iter().position(|a| *a == flag) {
            if pos + 1 >= rest.len() {
                return Err(format!("{flag} needs a value"));
            }
            let v = rest[pos + 1].clone();
            rest.drain(pos..=pos + 1);
            Ok(Some(v))
        } else {
            Ok(None)
        }
    }
    fn take_num<T: std::str::FromStr>(
        rest: &mut Vec<&String>,
        flag: &str,
    ) -> Result<Option<T>, String> {
        take_opt(rest, flag)?
            .map(|v| v.parse().map_err(|_| format!("bad {flag}")))
            .transpose()
    }

    match sub {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "create" => {
            let page_size = take_num(&mut rest, "--page-size")?.unwrap_or(4096);
            let lambda = take_num(&mut rest, "--lambda")?.unwrap_or(16);
            let store_documents = !take_flag(&mut rest, "--no-docs");
            let [index] = rest.as_slice() else {
                return Err("create: expected exactly one index path".into());
            };
            Ok(Command::Create {
                index: PathBuf::from(index),
                page_size,
                lambda,
                store_documents,
            })
        }
        "add" => {
            if rest.len() < 2 {
                return Err("add: expected an index path and at least one XML file".into());
            }
            let index = PathBuf::from(rest[0]);
            let files = rest[1..].iter().map(PathBuf::from).collect();
            Ok(Command::Add { index, files })
        }
        "query" => {
            let verify = take_flag(&mut rest, "--verify");
            let show = take_flag(&mut rest, "--show");
            let trace = take_flag(&mut rest, "--trace");
            let no_plan = take_flag(&mut rest, "--no-plan");
            let workers = take_num(&mut rest, "--workers")?.unwrap_or(1);
            let limit = take_num(&mut rest, "--limit")?;
            let deadline_ms = take_num(&mut rest, "--deadline-ms")?;
            let [index, expr] = rest.as_slice() else {
                return Err("query: expected an index path and one expression".into());
            };
            Ok(Command::Query {
                index: PathBuf::from(index),
                expr: (*expr).clone(),
                verify,
                show,
                workers,
                trace,
                no_plan,
                limit,
                deadline_ms,
            })
        }
        "load" => {
            let ingest_threads = take_num(&mut rest, "--ingest-threads")?;
            if ingest_threads == Some(0) {
                return Err("bad --ingest-threads".into());
            }
            let batch_size = take_num(&mut rest, "--batch-size")?.unwrap_or(512);
            if batch_size == 0 {
                return Err("bad --batch-size".into());
            }
            let [index, input] = rest.as_slice() else {
                return Err("load: expected an index path and a directory or XML file".into());
            };
            Ok(Command::Load {
                index: PathBuf::from(index),
                input: PathBuf::from(input),
                ingest_threads,
                batch_size,
            })
        }
        "compact" => {
            let [index] = rest.as_slice() else {
                return Err("compact: expected exactly one index path".into());
            };
            Ok(Command::Compact {
                index: PathBuf::from(index),
            })
        }
        "remove" => {
            let [index, id] = rest.as_slice() else {
                return Err("remove: expected an index path and a doc id".into());
            };
            Ok(Command::Remove {
                index: PathBuf::from(index),
                doc_id: id.parse().map_err(|_| "bad doc id".to_string())?,
            })
        }
        "explain" => {
            let plan = take_flag(&mut rest, "--plan");
            let no_plan = take_flag(&mut rest, "--no-plan");
            let workers = take_num(&mut rest, "--workers")?.unwrap_or(1);
            let [index, expr] = rest.as_slice() else {
                return Err("explain: expected an index path and one expression".into());
            };
            Ok(Command::Explain {
                index: PathBuf::from(index),
                expr: (*expr).clone(),
                workers,
                plan,
                no_plan,
            })
        }
        "list" => {
            let [index] = rest.as_slice() else {
                return Err("list: expected exactly one index path".into());
            };
            Ok(Command::List {
                index: PathBuf::from(index),
            })
        }
        "stats" => {
            let format = take_opt(&mut rest, "--format")?
                .map(|v| v.parse())
                .transpose()?
                .unwrap_or_default();
            let [index] = rest.as_slice() else {
                return Err("stats: expected exactly one index path".into());
            };
            Ok(Command::Stats {
                index: PathBuf::from(index),
                format,
            })
        }
        "profile" => {
            let workers = take_num(&mut rest, "--workers")?.unwrap_or(1);
            let [index, queries] = rest.as_slice() else {
                return Err("profile: expected an index path and a queries file".into());
            };
            Ok(Command::Profile {
                index: PathBuf::from(index),
                queries: PathBuf::from(queries),
                workers,
            })
        }
        "check" => {
            let [index] = rest.as_slice() else {
                return Err("check: expected exactly one index path".into());
            };
            Ok(Command::Check {
                index: PathBuf::from(index),
            })
        }
        "recover" => {
            let [index] = rest.as_slice() else {
                return Err("recover: expected exactly one index path".into());
            };
            Ok(Command::Recover {
                index: PathBuf::from(index),
            })
        }
        "sim" => {
            let seed = take_num(&mut rest, "--seed")?.unwrap_or(1);
            let ops = take_num(&mut rest, "--ops")?.unwrap_or(200);
            let seconds = take_num(&mut rest, "--seconds")?;
            let replay = take_opt(&mut rest, "--replay")?.map(PathBuf::from);
            let out = take_opt(&mut rest, "--out")?.map(PathBuf::from);
            let page_size = take_num(&mut rest, "--page-size")?;
            let lambda = take_num(&mut rest, "--lambda")?;
            let mutate = take_opt(&mut rest, "--mutate")?
                .map(|v| v.parse().map_err(|e| format!("bad --mutate: {e}")))
                .transpose()?
                .unwrap_or_default();
            let dump = take_flag(&mut rest, "--dump");
            if !rest.is_empty() {
                return Err(format!("sim: unexpected argument '{}'", rest[0]));
            }
            Ok(Command::Sim {
                seed,
                ops,
                seconds,
                replay,
                out,
                page_size,
                lambda,
                mutate,
                dump,
            })
        }
        "serve" => {
            let defaults = vist_serve::ServeConfig::default();
            let addr = take_opt(&mut rest, "--addr")?.unwrap_or(defaults.addr);
            let max_inflight =
                take_num(&mut rest, "--max-inflight")?.unwrap_or(defaults.max_inflight);
            let queue_depth = take_num(&mut rest, "--queue-depth")?.unwrap_or(defaults.queue_depth);
            let query_workers =
                take_num(&mut rest, "--query-workers")?.unwrap_or(defaults.query_workers);
            let max_deadline_ms =
                take_num(&mut rest, "--max-deadline-ms")?.unwrap_or(defaults.max_deadline_ms);
            let drain_deadline_ms =
                take_num(&mut rest, "--drain-deadline-ms")?.unwrap_or(defaults.drain_deadline_ms);
            let access_log = take_opt(&mut rest, "--access-log")?.map(PathBuf::from);
            let [index] = rest.as_slice() else {
                return Err("serve: expected exactly one index path".into());
            };
            Ok(Command::Serve {
                index: PathBuf::from(index),
                addr,
                max_inflight,
                queue_depth,
                query_workers,
                max_deadline_ms,
                drain_deadline_ms,
                access_log,
            })
        }
        "traces" => {
            let addr = take_opt(&mut rest, "--addr")?
                .unwrap_or_else(|| vist_serve::ServeConfig::default().addr);
            let id = match rest.as_slice() {
                [] => None,
                [id] => Some((*id).clone()),
                _ => return Err("traces: expected at most one trace id".into()),
            };
            Ok(Command::Traces { addr, id })
        }
        "bench-serve" => {
            let addr = take_opt(&mut rest, "--addr")?
                .unwrap_or_else(|| vist_serve::BenchConfig::default().addr);
            let expr = take_opt(&mut rest, "--expr")?.unwrap_or_else(|| "/doc".to_string());
            let deadline_ms = take_num(&mut rest, "--deadline-ms")?.unwrap_or(0);
            let clients = take_num(&mut rest, "--clients")?;
            let burst_clients = take_num(&mut rest, "--burst-clients")?;
            let duration_ms = take_num(&mut rest, "--duration-ms")?;
            let smoke = take_flag(&mut rest, "--smoke");
            let out = take_opt(&mut rest, "--out")?.map(PathBuf::from);
            if !rest.is_empty() {
                return Err(format!("bench-serve: unexpected argument '{}'", rest[0]));
            }
            Ok(Command::BenchServe {
                addr,
                expr,
                deadline_ms,
                clients,
                burst_clients,
                duration_ms,
                smoke,
                out,
            })
        }
        other => Err(format!("unknown subcommand '{other}' (try 'vist help')")),
    }
}

/// Execute a command, returning the text to print.
pub fn run(cmd: Command) -> Result<String, String> {
    let open = |p: &PathBuf| VistIndex::open_file(p, 4096).map_err(|e| e.to_string());
    match cmd {
        Command::Help => Ok(USAGE.to_string()),
        Command::Create {
            index,
            page_size,
            lambda,
            store_documents,
        } => {
            let idx = VistIndex::create_file(
                &index,
                IndexOptions {
                    page_size,
                    lambda,
                    store_documents,
                    ..Default::default()
                },
            )
            .map_err(|e| e.to_string())?;
            idx.flush().map_err(|e| e.to_string())?;
            Ok(format!("created {}\n", index.display()))
        }
        Command::Add { index, files } => {
            let idx = open(&index)?;
            let mut out = String::new();
            for f in files {
                let xml =
                    std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
                let id = idx
                    .insert_xml(&xml)
                    .map_err(|e| format!("{}: {e}", f.display()))?;
                writeln!(out, "{} -> doc {id}", f.display()).unwrap();
            }
            idx.flush().map_err(|e| e.to_string())?;
            Ok(out)
        }
        Command::Query {
            index,
            expr,
            verify,
            show,
            workers,
            trace,
            no_plan,
            limit,
            deadline_ms,
        } => {
            let idx = open(&index)?;
            let was_tracing = vist_obs::tracing_enabled();
            if trace {
                vist_obs::set_tracing(true);
            }
            let deadline = deadline_ms
                .map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms));
            let result = idx.query(
                &expr,
                &QueryOptions {
                    verify,
                    workers,
                    no_plan,
                    limit,
                    deadline,
                    ..Default::default()
                },
            );
            if trace {
                vist_obs::set_tracing(was_tracing);
            }
            let r = result.map_err(|e| e.to_string())?;
            let mut out = String::new();
            writeln!(
                out,
                "{} document(s){}",
                r.doc_ids.len(),
                if verify {
                    format!(" ({} candidates before verification)", r.candidates)
                } else {
                    String::new()
                }
            )
            .unwrap();
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
        Command::Load {
            index,
            input,
            ingest_threads,
            batch_size,
        } => {
            let idx = open(&index)?;
            let meta =
                std::fs::metadata(&input).map_err(|e| format!("{}: {e}", input.display()))?;
            let files: Vec<PathBuf> = if meta.is_dir() {
                let mut v: Vec<PathBuf> = std::fs::read_dir(&input)
                    .map_err(|e| format!("{}: {e}", input.display()))?
                    .filter_map(|e| e.ok().map(|e| e.path()))
                    .filter(|p| p.extension().is_some_and(|x| x == "xml"))
                    .collect();
                v.sort();
                if v.is_empty() {
                    return Err(format!("{}: no *.xml files", input.display()));
                }
                v
            } else {
                vec![input]
            };
            let mut docs = Vec::with_capacity(files.len());
            for f in &files {
                docs.push(std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?);
            }
            if let Some(threads) = ingest_threads {
                let mut ids = Vec::with_capacity(docs.len());
                let mut batches = 0u64;
                for chunk in docs.chunks(batch_size) {
                    ids.extend(
                        idx.insert_batch(chunk, threads)
                            .map_err(|e| e.to_string())?,
                    );
                    batches += 1;
                }
                let s = idx.stats();
                return Ok(format!(
                    "batch ingested {} document(s) (ids {}..={}) in {} group commit(s) \
                     at {} prepare thread(s); {} live document(s)\n",
                    ids.len(),
                    ids.first().copied().unwrap_or(0),
                    ids.last().copied().unwrap_or(0),
                    batches,
                    threads,
                    s.documents,
                ));
            }
            let ids = idx.bulk_build(docs).map_err(|e| e.to_string())?;
            let s = idx.stats();
            Ok(format!(
                "bulk loaded {} document(s) (ids {}..={}); {} segment(s), {} segment doc(s)\n",
                ids.len(),
                ids.first().copied().unwrap_or(0),
                ids.last().copied().unwrap_or(0),
                s.segments,
                s.segment_docs,
            ))
        }
        Command::Compact { index } => {
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
        Command::Remove { index, doc_id } => {
            let idx = open(&index)?;
            idx.remove_document(doc_id).map_err(|e| e.to_string())?;
            idx.flush().map_err(|e| e.to_string())?;
            Ok(format!("removed doc {doc_id}\n"))
        }
        Command::Explain {
            index,
            expr,
            workers,
            plan,
            no_plan,
        } => {
            let idx = open(&index)?;
            idx.explain_with(
                &expr,
                &QueryOptions {
                    workers,
                    no_plan,
                    ..Default::default()
                },
                plan,
            )
            .map_err(|e| e.to_string())
        }
        Command::List { index } => {
            let idx = open(&index)?;
            let ids = idx.document_ids().map_err(|e| e.to_string())?;
            let mut out = String::new();
            writeln!(out, "{} document(s)", ids.len()).unwrap();
            for id in ids {
                writeln!(out, "{id}").unwrap();
            }
            Ok(out)
        }
        Command::Stats { index, format } => {
            let idx = open(&index)?;
            // `stats()` refreshes the registry gauges (documents, segments,
            // fence bytes) so all three formats see current values.
            let s = idx.stats();
            match format {
                StatsFormat::Human => {}
                StatsFormat::Json => return Ok(vist_obs::render_json(&vist_obs::snapshot())),
                StatsFormat::Prometheus => {
                    return Ok(vist_obs::render_prometheus(&vist_obs::snapshot()))
                }
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
            writeln!(out, "tombstones:           {}", s.tombstones).unwrap();
            writeln!(out, "tight underflows:     {}", s.underflows).unwrap();
            writeln!(out, "node incarnations:    {}", s.deep_borrows).unwrap();
            for (label, total) in s.queries.stats_lines() {
                writeln!(out, "{:<22}{total}", format!("{label}:")).unwrap();
            }
            writeln!(out, "ingest batches:       {}", s.ingest_batches).unwrap();
            writeln!(out, "ingest batch docs:    {}", s.ingest_batch_docs).unwrap();
            writeln!(
                out,
                "ingest dkey cache:    {} hit(s), {} miss(es)",
                s.ingest_dkey_cache_hits, s.ingest_dkey_cache_misses
            )
            .unwrap();
            writeln!(
                out,
                "ingest edge cache:    {} hit(s), {} miss(es)",
                s.ingest_edge_cache_hits, s.ingest_edge_cache_misses
            )
            .unwrap();
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
        Command::Profile {
            index,
            queries,
            workers,
        } => {
            let idx = open(&index)?;
            let text = std::fs::read_to_string(&queries)
                .map_err(|e| format!("{}: {e}", queries.display()))?;
            let exprs: Vec<&str> = text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect();
            if exprs.is_empty() {
                return Err(format!("{}: no queries to replay", queries.display()));
            }
            let opts = QueryOptions {
                workers,
                ..Default::default()
            };
            let mut rows: Vec<(String, usize, crate::StageTimings)> = Vec::new();
            for expr in &exprs {
                let r = idx.query(expr, &opts).map_err(|e| format!("{expr}: {e}"))?;
                rows.push(((*expr).to_string(), r.doc_ids.len(), r.timings));
            }

            let mut out = String::new();
            writeln!(
                out,
                "replayed {} query(ies) with {workers} worker(s)\n",
                rows.len()
            )
            .unwrap();
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
        Command::Check { index } => {
            let idx = open(&index)?;
            let report = idx.check().map_err(|e| e.to_string())?;
            Ok(format!("{report}ok\n"))
        }
        Command::Sim {
            seed,
            ops,
            seconds,
            replay,
            out,
            page_size,
            lambda,
            mutate,
            dump,
        } => run_sim(SimArgs {
            seed,
            ops,
            seconds,
            replay,
            out,
            page_size,
            lambda,
            mutate,
            dump,
        }),
        Command::Recover { index } => {
            // Opening replays any committed write-ahead-log records and
            // truncates the log; then verify the result and commit it.
            let idx = open(&index)?;
            let io = idx.stats().io;
            let report = idx.check().map_err(|e| e.to_string())?;
            idx.flush().map_err(|e| e.to_string())?;
            Ok(format!(
                "recovered {}: {} page(s) replayed, {} uncommitted byte(s) discarded\n{report}ok\n",
                index.display(),
                io.recovered_pages,
                io.wal_discarded_bytes,
            ))
        }
        Command::Serve {
            index,
            addr,
            max_inflight,
            queue_depth,
            query_workers,
            max_deadline_ms,
            drain_deadline_ms,
            access_log,
        } => {
            let idx = std::sync::Arc::new(open(&index)?);
            let cfg = vist_serve::ServeConfig {
                addr,
                max_inflight,
                queue_depth,
                query_workers,
                max_deadline_ms,
                drain_deadline_ms,
                access_log: access_log.map(|p| p.to_string_lossy().into_owned()),
            };
            let handle = vist_serve::Server::start(idx, cfg).map_err(|e| e.to_string())?;
            // Announce readiness immediately — run() only returns its
            // string after the drain, which may be hours away.
            print_stdout(&format!(
                "serving {} on {} (SIGTERM drains and exits)\n",
                index.display(),
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
        Command::Traces { addr, id } => {
            let target = match &id {
                Some(id) => {
                    if vist_obs::traceid::parse(id).is_none() {
                        return Err(format!(
                            "traces: '{id}' is not a trace id (expected up to 32 hex digits)"
                        ));
                    }
                    format!("/debug/traces?id={id}")
                }
                None => "/debug/traces".to_string(),
            };
            let (status, body) = http_get(&addr, &target)?;
            if status != 200 {
                return Err(format!("traces: {addr} answered {status}: {body}"));
            }
            Ok(format!("{body}\n"))
        }
        Command::BenchServe {
            addr,
            expr,
            deadline_ms,
            clients,
            burst_clients,
            duration_ms,
            smoke,
            out,
        } => {
            let mut cfg = vist_serve::BenchConfig {
                addr,
                expr,
                deadline_ms,
                ..vist_serve::BenchConfig::default()
            };
            if smoke {
                cfg = cfg.smoke();
            }
            if let Some(n) = clients {
                cfg.clients = n;
            }
            if let Some(n) = burst_clients {
                cfg.burst_clients = n;
            }
            if let Some(ms) = duration_ms {
                cfg.duration = std::time::Duration::from_millis(ms);
            }
            let report = vist_serve::bench::run(&cfg);
            if let Some(path) = &out {
                std::fs::write(path, report.to_json())
                    .map_err(|e| format!("{}: {e}", path.display()))?;
            }
            let mut text = String::new();
            for p in [&report.baseline, &report.loaded, &report.burst] {
                let _ = writeln!(
                    text,
                    "{:<9} {:>3} client(s): {:>6} req ({} ok, {} shed, {} expired) \
                     p50 {:.2}ms p95 {:.2}ms p99 {:.2}ms p999 {:.2}ms shed-rate {:.1}%",
                    p.name,
                    p.clients,
                    p.requests,
                    p.ok,
                    p.shed,
                    p.deadline_expired,
                    p.p50_ns as f64 / 1e6,
                    p.p95_ns as f64 / 1e6,
                    p.p99_ns as f64 / 1e6,
                    p.p999_ns as f64 / 1e6,
                    p.shed_rate() * 100.0,
                );
            }
            let _ = writeln!(
                text,
                "loaded p99 / baseline p99 = {:.2}x",
                report.p99_ratio_loaded_vs_baseline
            );
            if smoke && report.burst.shed == 0 {
                return Err(format!(
                    "{text}smoke: overload burst produced no shed responses — \
                     admission control is not engaging"
                ));
            }
            Ok(text)
        }
    }
}

/// Minimal HTTP GET against a `vist serve` instance (it answers one
/// request per connection and closes). Returns `(status, body)`.
fn http_get(addr: &str, target: &str) -> Result<(u16, String), String> {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| format!("cannot connect to {addr}: {e} (is 'vist serve' running?)"))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
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

struct SimArgs {
    seed: u64,
    ops: usize,
    seconds: Option<u64>,
    replay: Option<PathBuf>,
    out: Option<PathBuf>,
    page_size: Option<usize>,
    lambda: Option<u64>,
    mutate: vist_sim::SimMutation,
    dump: bool,
}

/// Shrink-search budget (candidate executions) for `vist sim`.
const SIM_SHRINK_BUDGET: usize = 400;

/// `vist sim`: run seeded simulation workloads (see `docs/TESTING.md`).
/// Single-seed and replay output contains no wall-clock values, so two
/// runs with the same arguments print identical bytes.
fn run_sim(args: SimArgs) -> Result<String, String> {
    let scratch = vist_storage::testutil::TempDir::new("vist-sim-cli");

    if let Some(replay) = &args.replay {
        let text =
            std::fs::read_to_string(replay).map_err(|e| format!("{}: {e}", replay.display()))?;
        let trace =
            vist_sim::Trace::from_text(&text).map_err(|e| format!("{}: {e}", replay.display()))?;
        let dir = scratch.file("replay");
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        return match vist_sim::run_trace(&trace, &dir) {
            Ok(report) => Ok(format!("replay {}: ok\n{report}\n", replay.display())),
            Err(d) => Err(format!("replay {}: DIVERGENCE at {d}\n", replay.display())),
        };
    }

    let config = |seed: u64| vist_sim::SimConfig {
        seed,
        ops: args.ops,
        page_size: args.page_size,
        lambda: args.lambda,
        mutation: args.mutate,
        ..Default::default()
    };

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
        match &args.out {
            Some(path) => match std::fs::write(path, &text) {
                Ok(()) => {
                    let _ = writeln!(
                        msg,
                        "reproducer written to {} (replay: vist sim --replay {})",
                        path.display(),
                        path.display()
                    );
                }
                Err(e) => {
                    let _ = writeln!(msg, "could not write {}: {e}", path.display());
                    let _ = writeln!(msg, "reproducer:\n{text}");
                }
            },
            None => {
                let _ = writeln!(msg, "reproducer (pass --out FILE to save):\n{text}");
            }
        }
        msg
    };

    if let Some(seconds) = args.seconds {
        // Smoke mode: consecutive seeds until the time budget is spent.
        // Per-seed results are deterministic; how many seeds fit is not.
        let start = std::time::Instant::now();
        let mut out = String::new();
        let mut seed = args.seed;
        let mut ran = 0u64;
        while start.elapsed().as_secs() < seconds {
            let trace = vist_sim::generate(&config(seed));
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

    let trace = vist_sim::generate(&config(args.seed));
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
            if args.dump {
                let _ = writeln!(out, "\n{text}");
            }
            Ok(out)
        }
        Err(d) => Err(diverged(&trace, &d)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_create_with_options() {
        let c = parse_args(&argv(
            "create /tmp/i.vist --page-size 2048 --lambda 4 --no-docs",
        ))
        .unwrap();
        assert_eq!(
            c,
            Command::Create {
                index: PathBuf::from("/tmp/i.vist"),
                page_size: 2048,
                lambda: 4,
                store_documents: false,
            }
        );
        let c = parse_args(&argv("create idx")).unwrap();
        assert!(matches!(
            c,
            Command::Create {
                page_size: 4096,
                lambda: 16,
                store_documents: true,
                ..
            }
        ));
    }

    #[test]
    fn parse_query_flags() {
        let c = parse_args(&argv("query idx //author --verify --show")).unwrap();
        assert_eq!(
            c,
            Command::Query {
                index: PathBuf::from("idx"),
                expr: "//author".into(),
                verify: true,
                show: true,
                workers: 1,
                trace: false,
                no_plan: false,
                limit: None,
                deadline_ms: None,
            }
        );
        let c = parse_args(&argv("query idx //author --workers 4 --trace")).unwrap();
        assert_eq!(
            c,
            Command::Query {
                index: PathBuf::from("idx"),
                expr: "//author".into(),
                verify: false,
                show: false,
                workers: 4,
                trace: true,
                no_plan: false,
                limit: None,
                deadline_ms: None,
            }
        );
        assert!(parse_args(&argv("query idx //author --workers")).is_err());
        assert!(parse_args(&argv("explain idx //author --workers nope")).is_err());
    }

    #[test]
    fn parse_planner_flags() {
        let c = parse_args(&argv("query idx //author --no-plan --limit 7")).unwrap();
        assert_eq!(
            c,
            Command::Query {
                index: PathBuf::from("idx"),
                expr: "//author".into(),
                verify: false,
                show: false,
                workers: 1,
                trace: false,
                no_plan: true,
                limit: Some(7),
                deadline_ms: None,
            }
        );
        assert!(parse_args(&argv("query idx //author --limit many")).is_err());
        assert!(parse_args(&argv("query idx //author --limit")).is_err());
        let c = parse_args(&argv("explain idx '/a/b' --plan")).unwrap();
        assert_eq!(
            c,
            Command::Explain {
                index: PathBuf::from("idx"),
                expr: "'/a/b'".into(),
                workers: 1,
                plan: true,
                no_plan: false,
            }
        );
        let c = parse_args(&argv("explain idx //author --plan --no-plan --workers 2")).unwrap();
        assert!(matches!(
            c,
            Command::Explain {
                plan: true,
                no_plan: true,
                workers: 2,
                ..
            }
        ));
    }

    #[test]
    fn parse_stats_formats() {
        assert_eq!(
            parse_args(&argv("stats idx")).unwrap(),
            Command::Stats {
                index: PathBuf::from("idx"),
                format: StatsFormat::Human,
            }
        );
        assert_eq!(
            parse_args(&argv("stats idx --format json")).unwrap(),
            Command::Stats {
                index: PathBuf::from("idx"),
                format: StatsFormat::Json,
            }
        );
        assert_eq!(
            parse_args(&argv("stats idx --format prometheus")).unwrap(),
            Command::Stats {
                index: PathBuf::from("idx"),
                format: StatsFormat::Prometheus,
            }
        );
        assert!(parse_args(&argv("stats idx --format yaml")).is_err());
        assert!(parse_args(&argv("stats idx --format")).is_err());
    }

    #[test]
    fn parse_profile() {
        assert_eq!(
            parse_args(&argv("profile idx q.txt --workers 2")).unwrap(),
            Command::Profile {
                index: PathBuf::from("idx"),
                queries: PathBuf::from("q.txt"),
                workers: 2,
            }
        );
        assert_eq!(
            parse_args(&argv("profile idx q.txt")).unwrap(),
            Command::Profile {
                index: PathBuf::from("idx"),
                queries: PathBuf::from("q.txt"),
                workers: 1,
            }
        );
        assert!(parse_args(&argv("profile idx")).is_err());
    }

    #[test]
    fn parse_errors() {
        assert!(parse_args(&argv("create")).is_err());
        assert!(parse_args(&argv("create a b")).is_err());
        assert!(parse_args(&argv("add idx")).is_err());
        assert!(parse_args(&argv("query idx")).is_err());
        assert!(parse_args(&argv("remove idx notanumber")).is_err());
        assert!(parse_args(&argv("frobnicate")).is_err());
        assert!(parse_args(&argv("create idx --page-size")).is_err());
    }

    #[test]
    fn parse_sim() {
        assert_eq!(
            parse_args(&argv("sim")).unwrap(),
            Command::Sim {
                seed: 1,
                ops: 200,
                seconds: None,
                replay: None,
                out: None,
                page_size: None,
                lambda: None,
                mutate: vist_sim::SimMutation::None,
                dump: false,
            }
        );
        assert_eq!(
            parse_args(&argv(
                "sim --seed 9 --ops 50 --mutate scope-off-by-one --out min.trace --dump"
            ))
            .unwrap(),
            Command::Sim {
                seed: 9,
                ops: 50,
                seconds: None,
                replay: None,
                out: Some(PathBuf::from("min.trace")),
                page_size: None,
                lambda: None,
                mutate: vist_sim::SimMutation::ScopeOffByOne,
                dump: true,
            }
        );
        assert!(matches!(
            parse_args(&argv("sim --replay tests/seeds/x.trace")).unwrap(),
            Command::Sim {
                replay: Some(_),
                ..
            }
        ));
        assert!(parse_args(&argv("sim --seed nope")).is_err());
        assert!(parse_args(&argv("sim --mutate frob")).is_err());
        assert!(parse_args(&argv("sim stray")).is_err());
    }

    #[test]
    fn sim_single_seed_is_byte_reproducible() {
        let args = argv("sim --seed 3 --ops 40 --dump");
        let a = run(parse_args(&args).unwrap()).unwrap();
        let b = run(parse_args(&args).unwrap()).unwrap();
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
        let mut err = None;
        for seed in 1..=12u64 {
            let r = run(parse_args(&argv(&format!(
                "sim --seed {seed} --ops 120 --mutate scope-off-by-one --out {}",
                out.display()
            )))
            .unwrap());
            if r.is_err() {
                err = r.err();
                break;
            }
        }
        let msg = err.expect("planted mutation not caught by any seed in 1..=12");
        assert!(msg.contains("DIVERGENCE"), "{msg}");
        assert!(msg.contains("reproducer written"), "{msg}");
        let replayed = run(Command::Sim {
            seed: 1,
            ops: 200,
            seconds: None,
            replay: Some(out),
            out: None,
            page_size: None,
            lambda: None,
            mutate: vist_sim::SimMutation::None,
            dump: false,
        });
        let replay_msg = replayed.expect_err("minimized trace must still diverge");
        assert!(replay_msg.contains("DIVERGENCE"), "{replay_msg}");
    }

    #[test]
    fn help_default() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert!(run(Command::Help).unwrap().contains("USAGE"));
    }

    #[test]
    fn parse_list() {
        assert_eq!(
            parse_args(&argv("list idx")).unwrap(),
            Command::List {
                index: PathBuf::from("idx")
            }
        );
        assert!(parse_args(&argv("list")).is_err());
    }

    #[test]
    fn parse_check_and_recover() {
        assert_eq!(
            parse_args(&argv("check idx")).unwrap(),
            Command::Check {
                index: PathBuf::from("idx")
            }
        );
        assert_eq!(
            parse_args(&argv("recover idx")).unwrap(),
            Command::Recover {
                index: PathBuf::from("idx")
            }
        );
        assert!(parse_args(&argv("check")).is_err());
        assert!(parse_args(&argv("recover a b")).is_err());
    }

    #[test]
    fn check_and_recover_on_healthy_index() {
        let dir = vist_storage::testutil::TempDir::new("cli-check");
        let index = dir.file("i.idx");
        run(parse_args(&argv(&format!("create {}", index.display()))).unwrap()).unwrap();
        let xml = dir.file("d.xml");
        std::fs::write(&xml, "<a><b>1</b></a>").unwrap();
        run(Command::Add {
            index: index.clone(),
            files: vec![xml],
        })
        .unwrap();
        let out = run(Command::Check {
            index: index.clone(),
        })
        .unwrap();
        assert!(out.contains("tree dancestor ok"), "{out}");
        assert!(out.contains("free list ok"), "{out}");
        assert!(out.trim_end().ends_with("ok"), "{out}");
        let out = run(Command::Recover { index }).unwrap();
        assert!(out.contains("recovered"), "{out}");
        assert!(out.contains("0 page(s) replayed"), "{out}");
    }

    #[test]
    fn end_to_end_lifecycle() {
        let tmp = vist_storage::testutil::TempDir::new("cli-e2e");
        let index = tmp.file("i.idx");
        let xml1 = tmp.file("1.xml");
        let xml2 = tmp.file("2.xml");
        std::fs::write(&xml1, "<book><author>David</author></book>").unwrap();
        std::fs::write(&xml2, "<book><author>Mary</author></book>").unwrap();

        run(parse_args(&argv(&format!("create {}", index.display()))).unwrap()).unwrap();
        let out = run(Command::Add {
            index: index.clone(),
            files: vec![xml1.clone(), xml2.clone()],
        })
        .unwrap();
        assert!(out.contains("doc 0") && out.contains("doc 1"));

        let out = run(Command::Query {
            index: index.clone(),
            expr: "/book/author[text='David']".into(),
            verify: true,
            show: true,
            workers: 2,
            trace: false,
            no_plan: false,
            limit: None,
            deadline_ms: None,
        })
        .unwrap();
        assert!(out.starts_with("1 document(s)"), "{out}");
        assert!(out.contains("David"));

        let out = run(Command::Stats {
            index: index.clone(),
            format: StatsFormat::Human,
        })
        .unwrap();
        assert!(out.contains("documents:            2"), "{out}");
        assert!(out.contains("buffer pool:"), "{out}");
        assert!(out.contains("match work items:"), "{out}");
        assert!(out.contains("wal appends:"), "{out}");
        assert!(out.contains("wal commits:"), "{out}");
        assert!(out.contains("checkpoints:"), "{out}");
        assert!(out.contains("recovered pages:"), "{out}");

        run(Command::Remove {
            index: index.clone(),
            doc_id: 0,
        })
        .unwrap();
        let out = run(Command::Query {
            index: index.clone(),
            expr: "//author".into(),
            verify: false,
            show: false,
            workers: 1,
            trace: false,
            no_plan: false,
            limit: None,
            deadline_ms: None,
        })
        .unwrap();
        assert!(out.starts_with("1 document(s)"), "{out}");
    }

    #[test]
    fn parse_load_and_compact() {
        assert_eq!(
            parse_args(&argv("load idx corpus/")).unwrap(),
            Command::Load {
                index: PathBuf::from("idx"),
                input: PathBuf::from("corpus/"),
                ingest_threads: None,
                batch_size: 512,
            }
        );
        assert_eq!(
            parse_args(&argv("load idx corpus/ --ingest-threads 4 --batch-size 64")).unwrap(),
            Command::Load {
                index: PathBuf::from("idx"),
                input: PathBuf::from("corpus/"),
                ingest_threads: Some(4),
                batch_size: 64,
            }
        );
        assert!(parse_args(&argv("load idx corpus/ --ingest-threads 0")).is_err());
        assert!(parse_args(&argv("load idx corpus/ --ingest-threads x")).is_err());
        assert!(parse_args(&argv("load idx corpus/ --batch-size 0")).is_err());
        assert_eq!(
            parse_args(&argv("compact idx")).unwrap(),
            Command::Compact {
                index: PathBuf::from("idx"),
            }
        );
        assert!(parse_args(&argv("load idx")).is_err());
        assert!(parse_args(&argv("load")).is_err());
        assert!(parse_args(&argv("compact")).is_err());
        assert!(parse_args(&argv("compact idx extra")).is_err());
    }

    #[test]
    fn end_to_end_tiered_load_and_compact() {
        let tmp = vist_storage::testutil::TempDir::new("cli-tiered");
        let index = tmp.file("i.idx");
        let corpus = tmp.file("corpus");
        std::fs::create_dir(&corpus).unwrap();
        for (i, name) in ["ann", "bob", "eve"].iter().enumerate() {
            std::fs::write(
                corpus.join(format!("{i}.xml")),
                format!("<book><author>{name}</author></book>"),
            )
            .unwrap();
        }

        run(parse_args(&argv(&format!("create {}", index.display()))).unwrap()).unwrap();
        let out = run(Command::Load {
            index: index.clone(),
            input: corpus.clone(),
            ingest_threads: None,
            batch_size: 512,
        })
        .unwrap();
        assert!(out.contains("bulk loaded 3 document(s)"), "{out}");
        assert!(out.contains("1 segment(s)"), "{out}");

        // Loading a single file appends a second segment.
        let single = tmp.file("extra.xml");
        std::fs::write(&single, "<book><author>dan</author></book>").unwrap();
        let out = run(Command::Load {
            index: index.clone(),
            input: single,
            ingest_threads: None,
            batch_size: 512,
        })
        .unwrap();
        assert!(out.contains("bulk loaded 1 document(s)"), "{out}");
        assert!(out.contains("2 segment(s)"), "{out}");

        // Queries see segment-resident documents; removal tombstones them.
        let out = run(Command::Query {
            index: index.clone(),
            expr: "//author".into(),
            verify: true,
            show: false,
            workers: 1,
            trace: false,
            no_plan: false,
            limit: None,
            deadline_ms: None,
        })
        .unwrap();
        assert!(out.starts_with("4 document(s)"), "{out}");
        run(Command::Remove {
            index: index.clone(),
            doc_id: 1,
        })
        .unwrap();

        let out = run(Command::Stats {
            index: index.clone(),
            format: StatsFormat::Human,
        })
        .unwrap();
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

        let out = run(Command::Check {
            index: index.clone(),
        })
        .unwrap();
        for tree in ["dancestor", "sancestor", "docid", "documents", "stats"] {
            let line = format!("segment 2 tree {tree:<9} ok");
            assert!(out.contains(&line), "{line:?} missing in {out}");
        }

        let out = run(Command::Compact {
            index: index.clone(),
        })
        .unwrap();
        assert!(out.contains("compacted 2 segment(s)"), "{out}");
        assert!(out.contains("1 tombstoned doc(s) dropped"), "{out}");
        assert!(out.contains("3 live document(s)"), "{out}");

        let out = run(Command::Query {
            index: index.clone(),
            expr: "//author".into(),
            verify: true,
            show: true,
            workers: 1,
            trace: false,
            no_plan: false,
            limit: None,
            deadline_ms: None,
        })
        .unwrap();
        assert!(out.starts_with("3 document(s)"), "{out}");
        assert!(!out.contains("bob"), "{out}");
    }

    #[test]
    fn end_to_end_batch_ingest_load() {
        let tmp = vist_storage::testutil::TempDir::new("cli-batch-ingest");
        let index = tmp.file("i.idx");
        let corpus = tmp.file("corpus");
        std::fs::create_dir(&corpus).unwrap();
        for (i, name) in ["ann", "bob", "eve", "dan", "kim"].iter().enumerate() {
            std::fs::write(
                corpus.join(format!("{i}.xml")),
                format!("<book><author>{name}</author></book>"),
            )
            .unwrap();
        }

        run(parse_args(&argv(&format!("create {}", index.display()))).unwrap()).unwrap();
        let out = run(parse_args(&argv(&format!(
            "load {} {} --ingest-threads 2 --batch-size 2",
            index.display(),
            corpus.display()
        )))
        .unwrap())
        .unwrap();
        assert!(out.contains("batch ingested 5 document(s)"), "{out}");
        assert!(out.contains("3 group commit(s)"), "{out}");
        assert!(out.contains("(ids 0..=4)"), "{out}");

        // Batch-ingested documents are dynamic-path residents: no segment
        // is created, and they answer queries like any other insert.
        let out = run(Command::Query {
            index: index.clone(),
            expr: "//author".into(),
            verify: true,
            show: false,
            workers: 1,
            trace: false,
            no_plan: false,
            limit: None,
            deadline_ms: None,
        })
        .unwrap();
        assert!(out.starts_with("5 document(s)"), "{out}");

        // The human stats format carries the ingest lines (counters are
        // process-local, so a fresh open reads zeros — the lines must
        // still be there).
        let out = run(Command::Stats {
            index: index.clone(),
            format: StatsFormat::Human,
        })
        .unwrap();
        assert!(out.contains("documents:            5"), "{out}");
        assert!(out.contains("segments:             0"), "{out}");
        assert!(out.contains("ingest batches:"), "{out}");
        assert!(out.contains("ingest batch docs:"), "{out}");
        assert!(out.contains("ingest dkey cache:"), "{out}");
        assert!(out.contains("ingest edge cache:"), "{out}");
    }

    /// Build a small index for the observability-command tests.
    fn obs_fixture(tag: &str) -> (vist_storage::testutil::TempDir, PathBuf) {
        let tmp = vist_storage::testutil::TempDir::new(tag);
        let index = tmp.file("i.idx");
        let xml = tmp.file("d.xml");
        std::fs::write(
            &xml,
            "<site><people><person><name>ann</name></person>\
             <person><name>bob</name></person></people></site>",
        )
        .unwrap();
        run(parse_args(&argv(&format!("create {}", index.display()))).unwrap()).unwrap();
        run(Command::Add {
            index: index.clone(),
            files: vec![xml],
        })
        .unwrap();
        (tmp, index)
    }

    #[test]
    fn query_trace_prints_span_tree() {
        let (_tmp, index) = obs_fixture("cli-trace");
        let out = run(Command::Query {
            index,
            expr: "/site/people/person/name".into(),
            verify: false,
            show: false,
            workers: 1,
            trace: true,
            no_plan: false,
            limit: None,
            deadline_ms: None,
        })
        .unwrap();
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
        run(Command::Query {
            index: index.clone(),
            expr: "//name".into(),
            verify: false,
            show: false,
            workers: 1,
            trace: false,
            no_plan: false,
            limit: None,
            deadline_ms: None,
        })
        .unwrap();
        let prom = run(Command::Stats {
            index: index.clone(),
            format: StatsFormat::Prometheus,
        })
        .unwrap();
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

        let json = run(Command::Stats {
            index,
            format: StatsFormat::Json,
        })
        .unwrap();
        assert!(json.contains("\"vist_core_query_total\""), "{json}");
        assert!(json.contains("\"vist_storage_store_bytes\""), "{json}");
        assert!(json.contains("\"p99\""), "{json}");
    }

    #[test]
    fn profile_replays_a_workload() {
        let (tmp, index) = obs_fixture("cli-profile");
        let qfile = tmp.file("q.txt");
        std::fs::write(&qfile, "# workload\n/site/people/person/name\n\n//name\n").unwrap();
        let out = run(Command::Profile {
            index: index.clone(),
            queries: qfile.clone(),
            workers: 2,
        })
        .unwrap();
        assert!(out.contains("replayed 2 query(ies)"), "{out}");
        assert!(out.contains("/site/people/person/name"), "{out}");
        assert!(out.contains("workload total:"), "{out}");

        let missing = tmp.file("absent.txt");
        assert!(run(Command::Profile {
            index,
            queries: missing,
            workers: 1,
        })
        .is_err());
    }

    #[test]
    fn parse_query_deadline() {
        let c = parse_args(&argv("query idx //author --deadline-ms 250")).unwrap();
        match c {
            Command::Query { deadline_ms, .. } => assert_eq!(deadline_ms, Some(250)),
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&argv("query idx //author --deadline-ms soon")).is_err());
        assert!(parse_args(&argv("query idx //author --deadline-ms")).is_err());
    }

    #[test]
    fn parse_serve() {
        let c = parse_args(&argv(
            "serve idx --addr 127.0.0.1:0 --max-inflight 2 --queue-depth 3 \
             --query-workers 4 --max-deadline-ms 500 --drain-deadline-ms 900 \
             --access-log access.jsonl",
        ))
        .unwrap();
        assert_eq!(
            c,
            Command::Serve {
                index: PathBuf::from("idx"),
                addr: "127.0.0.1:0".into(),
                max_inflight: 2,
                queue_depth: 3,
                query_workers: 4,
                max_deadline_ms: 500,
                drain_deadline_ms: 900,
                access_log: Some(PathBuf::from("access.jsonl")),
            }
        );
        // Defaults fill in everything but the index path.
        match parse_args(&argv("serve idx")).unwrap() {
            Command::Serve {
                index,
                queue_depth,
                max_deadline_ms,
                access_log,
                ..
            } => {
                assert_eq!(index, PathBuf::from("idx"));
                assert_eq!(queue_depth, vist_serve::ServeConfig::default().queue_depth);
                assert_eq!(
                    max_deadline_ms,
                    vist_serve::ServeConfig::default().max_deadline_ms
                );
                assert_eq!(access_log, None);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&argv("serve")).is_err());
        assert!(parse_args(&argv("serve idx --max-inflight lots")).is_err());
        assert!(parse_args(&argv("serve idx --access-log")).is_err());
    }

    #[test]
    fn parse_traces() {
        assert_eq!(
            parse_args(&argv("traces --addr 127.0.0.1:9 00ff")).unwrap(),
            Command::Traces {
                addr: "127.0.0.1:9".into(),
                id: Some("00ff".into()),
            }
        );
        assert_eq!(
            parse_args(&argv("traces")).unwrap(),
            Command::Traces {
                addr: vist_serve::ServeConfig::default().addr,
                id: None,
            }
        );
        assert!(parse_args(&argv("traces a b")).is_err());
        // A malformed id is rejected before any connection attempt.
        let err = run(Command::Traces {
            addr: "127.0.0.1:1".into(),
            id: Some("not-hex".into()),
        })
        .unwrap_err();
        assert!(err.contains("not a trace id"), "{err}");
    }

    #[test]
    fn parse_bench_serve() {
        let c = parse_args(&argv(
            "bench-serve --addr 127.0.0.1:4170 --expr /book --deadline-ms 100 \
             --clients 2 --burst-clients 16 --duration-ms 50 --smoke --out r.json",
        ))
        .unwrap();
        assert_eq!(
            c,
            Command::BenchServe {
                addr: "127.0.0.1:4170".into(),
                expr: "/book".into(),
                deadline_ms: 100,
                clients: Some(2),
                burst_clients: Some(16),
                duration_ms: Some(50),
                smoke: true,
                out: Some(PathBuf::from("r.json")),
            }
        );
        match parse_args(&argv("bench-serve")).unwrap() {
            Command::BenchServe { smoke, out, .. } => {
                assert!(!smoke);
                assert_eq!(out, None);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&argv("bench-serve stray")).is_err());
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
