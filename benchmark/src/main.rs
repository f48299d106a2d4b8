//! The one benchmark of the ViST stack (see `benchmark/README.md`).
//!
//! `vist-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! builds the seeded base index on files, runs one workload against it
//! through public functions only, checks every answer against the §3.2
//! oracle, and prints the metrics by name; the last line of standard output
//! is the result as one JSON object.

mod ingest;
mod probes;
mod queries;
mod schema;
mod serve;
mod setup;
mod trace;
mod util;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use queries::QueryWorkload;
use schema::{MetricDecl, Values, END_TO_END, WORKLOADS};
use setup::{Base, Scale, PAGE_SIZE};
use trace::Recorder;
use util::{json_number, json_string, median, quiet_median, ratio, Budget};

/// What one workload run hands back: the samples behind the end-to-end
/// metrics, the check's tally, and the per-layer values it could measure.
#[derive(Default)]
pub struct Outcome {
    pub pool_pages: usize,
    pub clients: usize,
    /// Segment + delta pages of the index the workload opened.
    pub index_pages: u64,
    pub attempted: u64,
    pub failed: u64,
    pub round_ms: Vec<f64>,
    /// Rounds per window of `quiet_median`; 0 cuts the run into eighths.
    pub window: usize,
    pub index_bytes: u64,
    pub live_xml_bytes: u64,
    pub layer: Values,
    /// Recorders of the threads the workload started (`serve-topk`).
    pub thread_recorders: Vec<Recorder>,
}

impl Outcome {
    pub fn new(pool_pages: usize, clients: usize) -> Self {
        Outcome {
            pool_pages,
            clients,
            ..Outcome::default()
        }
    }

    /// `round_p50_ms`: the median round time of the quietest window.
    pub fn round_p50_ms(&self) -> f64 {
        let window = match self.window {
            0 => self.round_ms.len() / 8,
            rounds => rounds,
        };
        quiet_median(&self.round_ms, window)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    plant: bool,
}

const USAGE: &str =
    "usage: vist-benchmark --workload <table4-warm|scan-spill|ingest-mixed|serve-topk> \
[--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke] [--plant-wrong-answer]\n       \
vist-benchmark --benchmark-json";

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: f64::from(schema::RUN_SECONDS),
        trace: false,
        smoke: false,
        plant: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--plant-wrong-answer" => args.plant = true,
            "--benchmark-json" => return Ok(None),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.iter().any(|w| w.name == args.workload) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(Some(args))
}

fn run_workload(
    args: &Args,
    base: &mut Base,
    scale: &Scale,
    rec: &mut Recorder,
    budget: Budget,
    plant: bool,
) -> Outcome {
    match args.workload.as_str() {
        "table4-warm" => queries::run(&QueryWorkload::Table4Warm, base, scale, rec, budget, plant),
        "scan-spill" => queries::run(&QueryWorkload::ScanSpill, base, scale, rec, budget, plant),
        "ingest-mixed" => ingest::run(base, scale, args.seed, rec, budget, plant),
        "serve-topk" => serve::run(base, scale, args.seed, rec, budget, plant),
        other => unreachable!("workload {other} was validated"),
    }
}

/// The traced run: a stretch with the recorder off (what recording costs is
/// the difference), then the workload and the micro-probes with it on.
fn traced_run(
    args: &Args,
    base: &mut Base,
    scale: &Scale,
    rec: &mut Recorder,
    budget: Budget,
) -> Outcome {
    let plain = run_workload(args, base, scale, rec, budget.scaled(0.3), false);
    rec.set_on(true);
    let mut traced = run_workload(args, base, scale, rec, budget.scaled(0.7), args.plant);
    probes::run(scale, args.seed, rec, &mut traced.layer);
    let (off, on) = (plain.round_p50_ms(), traced.round_p50_ms());
    traced.layer.set(
        "obs.trace_overhead_pct",
        100.0 * ratio(on - off, off),
        plain.round_ms.len().min(traced.round_ms.len()),
    );
    traced.attempted += plain.attempted;
    traced.failed += plain.failed;
    traced
}

fn metric_lines<'a>(decls: impl Iterator<Item = &'a MetricDecl>, values: &Values) -> String {
    let mut out = String::new();
    for d in decls {
        let v = values.get(d.name);
        let _ = writeln!(
            out,
            "  {:<34} {:>16.4} {:<6} n={}",
            d.name, v.value, d.unit, v.n
        );
    }
    out
}

/// Count x unit cost, next to the time it should explain.
fn prediction_lines(out: &Outcome) -> String {
    let l = &out.layer;
    let fetches: f64 = (1..=8)
        .map(|q| l.get(&format!("search.q{q}.pool_fetches")).value)
        .sum();
    let table3_ms: f64 = ["path", "wildcard", "branch"]
        .iter()
        .map(|c| l.get(&format!("search.{c}_p50_ms")).value)
        .sum();
    let (hit_ns, miss_us) = (
        l.get("pool.fetch_hit_ns").value,
        l.get("pool.fetch_miss_us").value,
    );
    let misses = l.get("pool.misses_per_round").value;
    format!(
        "prediction (hit path):  pool.fetch_hit_ns {hit_ns:.1} x {fetches:.0} fetches of Q1-Q8 = {:.3} ms \
         of the {table3_ms:.3} ms Q1-Q8 take here\n\
         prediction (miss path): pool.fetch_miss_us {miss_us:.2} x {misses:.0} pool.misses_per_round = {:.3} ms \
         of round_p50_ms {:.3}\n",
        hit_ns * fetches / 1e6,
        miss_us * misses / 1e3,
        out.round_p50_ms()
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", schema::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scale = Scale::new(args.smoke);
    let budget = match (args.smoke, args.workload.as_str()) {
        (false, _) => Budget::Seconds(args.seconds),
        (true, "ingest-mixed") => Budget::Units(1),
        (true, _) => Budget::Units(5),
    };
    let git_rev = util::git_rev();
    let cores = util::host_cores();
    let host_undersized = args.workload == "serve-topk" && cores < serve::BUSY_THREADS;
    if host_undersized {
        eprintln!(
            "WARNING: host has {cores} core(s), fewer than the {} busy threads of serve-topk; \
             its results are marked host_undersized",
            serve::BUSY_THREADS
        );
    }

    // Set-up, three times over in a reportable untraced run so that
    // `setup_s` is a median; the last set-up is the one the workload uses.
    let fresh = match args.workload.as_str() {
        "ingest-mixed" => ingest::fresh_docs(&scale),
        _ => 0,
    };
    let setups = if args.trace || args.smoke { 1 } else { 3 };
    let mut setup_s = Vec::new();
    let mut base = None;
    for _ in 0..setups {
        drop(base.take());
        let built = setup::build(&scale, args.seed, fresh);
        setup_s.push(built.times.total_s);
        base = Some(built);
    }
    let mut base = base.expect("at least one set-up ran");
    eprintln!(
        "set-up: {:.2}s (corpus {:.2}, bulk_build {:.2}, delta {:.2}, oracle {:.2})",
        base.times.total_s,
        base.times.corpus_s,
        base.times.bulk_s,
        base.times.delta_s,
        base.times.oracle_s,
    );

    let mut rec = Recorder::new(false, Instant::now(), 0);
    let mut out = if args.trace {
        traced_run(&args, &mut base, &scale, &mut rec, budget)
    } else {
        run_workload(&args, &mut base, &scale, &mut rec, budget, args.plant)
    };

    let mut e2e = Values::default();
    e2e.set("setup_s", median(&setup_s), setup_s.len());
    e2e.set("round_p50_ms", out.round_p50_ms(), out.round_ms.len());
    e2e.set(
        "index_bytes_per_xml_byte",
        ratio(out.index_bytes as f64, out.live_xml_bytes as f64),
        1,
    );
    e2e.set("peak_rss_mb", util::peak_rss_mib(), 1);
    out.layer.set(
        "segment.bulk_docs_per_s",
        ratio(base.segment_docs as f64, base.times.bulk_s),
        1,
    );
    out.layer.set(
        "segment.bytes_per_xml_byte",
        ratio(base.segment_bytes as f64, base.segment_xml_bytes as f64),
        1,
    );
    e2e.assert_declared(END_TO_END.iter());
    out.layer.assert_declared(schema::per_layer());

    // The regime each workload claims: the pool holds the index, or is far
    // too small for it (which the smoke index cannot be).
    let hit_ratio = out.layer.get("pool.hit_ratio").value;
    let regime_ok = match args.workload.as_str() {
        "table4-warm" => hit_ratio >= 0.999,
        "scan-spill" => hit_ratio <= 0.3 || args.smoke,
        _ => true,
    };

    let mut report = format!(
        "workload {} seed {} trace {} scale {}\n\
         host: git {git_rev} cores {cores} page {PAGE_SIZE} B pager file; pool {} pages ({} KiB) over {} index pages; \
         corpus {} DBLP + {} XMARK docs, {} XML bytes; {} client(s){}\n\
         estimator: median (p90/p99 where named); n is the sample count; checked {} operations, {} failed; \
         pool.hit_ratio {hit_ratio:.4} regime {}\n\
         end-to-end{}:\n",
        args.workload,
        args.seed,
        u8::from(args.trace),
        if args.smoke { "smoke (not reportable)" } else { "full" },
        out.pool_pages,
        out.pool_pages * PAGE_SIZE / 1024,
        out.index_pages,
        scale.dblp,
        scale.xmark,
        base.xml_bytes,
        out.clients,
        if host_undersized { " host_undersized" } else { "" },
        out.attempted,
        out.failed,
        if regime_ok { "ok" } else { "VIOLATED" },
        if args.trace { " (traced run: not reportable)" } else { "" },
    );
    report.push_str(&metric_lines(END_TO_END.iter(), &e2e));
    if args.trace {
        report.push_str("per-layer:\n");
        report.push_str(&metric_lines(schema::per_layer(), &out.layer));
        report.push_str(&prediction_lines(&out));
        let mut recorders = vec![rec];
        recorders.append(&mut out.thread_recorders);
        let path = util::out_dir().join(format!("trace-{}.jsonl", args.workload));
        let totals = trace::write_spans(&path, &recorders);
        let _ = writeln!(
            report,
            "spans -> {} (self = span - children):",
            path.display()
        );
        for (name, t) in &totals {
            let _ = writeln!(
                report,
                "  {:<24} count {:>8} total {:>12.3} ms self {:>12.3} ms",
                name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    print!("{report}");

    // The same facts under one schema, as a file for `selfcheck.sh`.
    let (decls, values): (Vec<&MetricDecl>, &Values) = if args.trace {
        (schema::per_layer().collect(), &out.layer)
    } else {
        (END_TO_END.iter().collect(), &e2e)
    };
    let report_json = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"smoke\": {}, \"claim\": null, \"git_rev\": {}, \
         \"host_cores\": {cores}, \"host_undersized\": {host_undersized}, \"page_size\": {PAGE_SIZE}, \
         \"pager\": \"file\", \"pool_pages\": {}, \"pool_bytes\": {}, \"index_pages\": {}, \
         \"corpus\": {{\"dblp_docs\": {}, \"xmark_docs\": {}, \"xml_bytes\": {}, \"segment_share\": {}}}, \
         \"estimator\": \"median\", \"harness_threads\": {}, \"attempted\": {}, \"failed\": {}, \
         \"regime_ok\": {regime_ok}, \"metrics\": {}}}\n",
        json_string(&args.workload),
        args.seed,
        args.trace,
        args.smoke,
        json_string(&git_rev),
        out.pool_pages,
        out.pool_pages * PAGE_SIZE,
        out.index_pages,
        scale.dblp,
        scale.xmark,
        base.xml_bytes,
        json_number(base.segment_docs as f64 / base.docs as f64),
        out.clients,
        out.attempted,
        out.failed,
        schema::metrics_json(decls.iter().copied(), values, true)
    );
    let report_path = util::out_dir().join(format!(
        "report-{}-trace{}.json",
        args.workload,
        u8::from(args.trace)
    ));
    std::fs::write(&report_path, report_json).expect("write report file");

    let correct = out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        schema::metrics_json(decls.into_iter(), values, false)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
