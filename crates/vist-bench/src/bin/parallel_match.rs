//! Work-list match engine vs the previous recursive, materializing engine,
//! across worker counts.
//!
//! The baseline reimplements the pre-rewrite engine faithfully on the
//! public `Store` API: recursive `step`/`descend`, every B+Tree probe
//! materializing a `Vec`, one DocId range query per final scope, no
//! dedup of converging wildcard expansions. The work-list engine streams
//! every probe through cursors, merges final scopes before DocId
//! resolution, dedups identical sub-problems, and distributes frames over
//! `N` workers.
//!
//! Wildcard-heavy queries make the no-dedup baseline exponential, so each
//! candidate query is admitted only if the baseline answers it within a
//! fixed node-visit budget; rejected candidates are counted and reported
//! (the work-list engine never does more per-sequence work than the
//! baseline, so admitted queries are tractable for both).
//!
//! ```sh
//! cargo run --release -p vist-bench --bin parallel_match            # full, writes BENCH_parallel_match.json
//! cargo run --release -p vist-bench --bin parallel_match -- --smoke # quick CI check, no JSON
//! ```

use std::collections::BTreeSet;
use std::time::Duration;

use vist_bench::{ms, print_table, scaled, time_avg};
use vist_core::{
    search_sequences, DocId, IndexOptions, SearchOptions, SearchSource, Store, VistIndex,
};
use vist_datagen::synthetic::{SyntheticConfig, SyntheticGen};
use vist_query::{translate, QueryElem, QuerySequence, TranslateOptions};
use vist_seq::{dkey, PathSym, Prefix, Sym, Symbol};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const WILDCARD_PROB: f64 = 0.4;

// ---------------------------------------------------------------------------
// Baseline: the previous engine, reproduced on the public Store API.
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum OldError {
    Store(vist_core::Error),
    /// The query exceeded the per-query node-visit budget.
    Budget,
}

impl From<vist_core::Error> for OldError {
    fn from(e: vist_core::Error) -> Self {
        OldError::Store(e)
    }
}

type OldResult<T> = std::result::Result<T, OldError>;

/// `None` = not yet looked up; `Some(None)` = looked up, key absent.
type CachedLookup = Option<Option<(Vec<Symbol>, u64)>>;

struct OldCtx {
    paths: Vec<Vec<Symbol>>,
    concrete_cache: Vec<CachedLookup>,
    visits: u64,
    budget: u64,
}

impl OldCtx {
    fn charge(&mut self, n: u64) -> OldResult<()> {
        self.visits += n;
        if self.visits > self.budget {
            return Err(OldError::Budget);
        }
        Ok(())
    }
}

fn old_lookup_prefix(qe: &QueryElem, paths: &[Vec<Symbol>]) -> Prefix {
    let mut steps: Vec<PathSym> = match qe.parent {
        Some(p) => paths[p].iter().map(|&s| PathSym::Tag(s)).collect(),
        None => Vec::new(),
    };
    steps.extend_from_slice(&qe.steps_after_parent);
    Prefix(steps)
}

#[allow(clippy::too_many_arguments)]
fn old_step(
    store: &Store,
    qseq: &QuerySequence,
    qi: usize,
    prev_n: u128,
    prev_end: u128,
    ctx: &mut OldCtx,
    out: &mut BTreeSet<DocId>,
) -> OldResult<()> {
    if qi == qseq.elems.len() {
        out.extend(store.docids_in_range(prev_n, prev_end)?);
        return Ok(());
    }
    let qe = &qseq.elems[qi];
    if !qe.prefix.has_wildcard() {
        if ctx.concrete_cache[qi].is_none() {
            let concrete = qe.prefix.as_concrete().expect("concrete prefix");
            let key = dkey::encode(qe.sym, &concrete);
            ctx.concrete_cache[qi] = Some(store.dkey_get(&key)?.map(|id| (concrete, id)));
        }
        let Some(Some((prefix_syms, dkid))) = ctx.concrete_cache[qi].clone() else {
            return Ok(());
        };
        return old_descend(
            store,
            qseq,
            qi,
            prev_n,
            prev_end,
            prefix_syms,
            dkid,
            ctx,
            out,
        );
    }
    let pattern = old_lookup_prefix(qe, &ctx.paths);
    let candidates: Vec<(Vec<Symbol>, u64)> = match dkey::query_for(qe.sym, &pattern) {
        dkey::DKeyQuery::Exact(key) => match store.dkey_get(&key)? {
            Some(id) => {
                let (_, prefix_syms) = dkey::decode(&key);
                vec![(prefix_syms, id)]
            }
            None => Vec::new(),
        },
        dkey::DKeyQuery::Range { lo, hi, pattern } => store
            .dkey_scan(&lo, &hi)?
            .into_iter()
            .filter_map(|(key, id)| {
                let (_, prefix_syms) = dkey::decode(&key);
                pattern.matches(&prefix_syms).then_some((prefix_syms, id))
            })
            .collect(),
    };
    for (prefix_syms, dkid) in candidates {
        old_descend(
            store,
            qseq,
            qi,
            prev_n,
            prev_end,
            prefix_syms,
            dkid,
            ctx,
            out,
        )?;
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn old_descend(
    store: &Store,
    qseq: &QuerySequence,
    qi: usize,
    prev_n: u128,
    prev_end: u128,
    prefix_syms: Vec<Symbol>,
    dkid: u64,
    ctx: &mut OldCtx,
    out: &mut BTreeSet<DocId>,
) -> OldResult<()> {
    let mut nodes = Vec::new();
    store.nodes_in_scopes(dkid, &[(prev_n, prev_end)], &mut |node| {
        nodes.push(node);
        std::ops::ControlFlow::Continue(())
    })?;
    ctx.charge(nodes.len() as u64 + 1)?;
    if nodes.is_empty() {
        return Ok(());
    }
    let qe = &qseq.elems[qi];
    ctx.paths[qi] = prefix_syms;
    if let Sym::Tag(t) = qe.sym {
        ctx.paths[qi].push(t);
    }
    for node in nodes {
        old_step(store, qseq, qi + 1, node.n, node.end(), ctx, out)?;
    }
    Ok(())
}

fn old_engine(store: &Store, seqs: &[QuerySequence], budget: u64) -> OldResult<BTreeSet<DocId>> {
    let mut out = BTreeSet::new();
    for qs in seqs {
        if qs.elems.is_empty() {
            out.extend(store.docids_in_range(0, vist_seq::MAX_SCOPE)?);
            continue;
        }
        let mut ctx = OldCtx {
            paths: vec![Vec::new(); qs.elems.len()],
            concrete_cache: vec![None; qs.elems.len()],
            visits: 0,
            budget,
        };
        old_step(store, qs, 0, 0, vist_seq::MAX_SCOPE, &mut ctx, &mut out)?;
    }
    Ok(out)
}

// ---------------------------------------------------------------------------

fn with_workers(workers: usize) -> SearchOptions {
    SearchOptions {
        workers,
        ..SearchOptions::default()
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n = if smoke { 800 } else { scaled(6_000, 1_500) };
    let per_len = if smoke { 3 } else { 10 };
    let iters = if smoke { 1 } else { 3 };
    let budget: u64 = if smoke { 20_000 } else { 200_000 };

    let cfg = SyntheticConfig {
        k: 10,
        j: 8,
        l: 30,
        seed: 7,
    };
    eprintln!("generating {n} synthetic documents (k=10, j=8, L=30) ...");
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
    eprintln!("built ({} nodes)", index.stats().nodes);
    let store = index.store();

    // Wildcard-heavy query mix: the code paths that diverge between the
    // engines (range scans, converging expansions, overlapping scopes).
    // Candidates whose baseline cost exceeds the visit budget are rejected
    // and counted — the baseline is exponential on some wildcard patterns.
    let mut table = index.table();
    let topts = TranslateOptions::default();
    let mut query_seqs: Vec<Vec<QuerySequence>> = Vec::new();
    let mut rejected = 0usize;
    for qlen in (2..=8).step_by(2) {
        let mut kept = 0usize;
        let mut attempts = 0usize;
        while kept < per_len && attempts < per_len * 10 {
            attempts += 1;
            let pattern = gen.query(qlen, WILDCARD_PROB);
            let seqs = translate(&pattern, &mut table, &topts).sequences;
            match old_engine(store, &seqs, budget) {
                Ok(_) => {
                    query_seqs.push(seqs);
                    kept += 1;
                }
                Err(OldError::Budget) => rejected += 1,
                Err(OldError::Store(e)) => panic!("store error during selection: {e}"),
            }
        }
    }
    eprintln!(
        "selected {} queries ({rejected} rejected: baseline over {budget}-visit budget)",
        query_seqs.len()
    );

    // Correctness gate: every engine and worker count must agree.
    for seqs in &query_seqs {
        let expect: Vec<DocId> = old_engine(store, seqs, budget)
            .expect("baseline")
            .into_iter()
            .collect();
        for &w in &WORKER_COUNTS {
            let got = search_sequences(store, seqs, &with_workers(w)).expect("worklist");
            assert_eq!(got.docs, expect, "engines disagree at {w} workers");
        }
    }

    let run_old = || {
        for seqs in &query_seqs {
            let _ = old_engine(store, seqs, budget).expect("baseline");
        }
    };
    let base = time_avg(iters, run_old);
    let mut rows = vec![vec![
        "baseline (recursive, materializing)".to_string(),
        ms(base),
        "1.00".to_string(),
    ]];
    let mut worker_ms: Vec<(usize, Duration)> = Vec::new();
    for &w in &WORKER_COUNTS {
        let t = time_avg(iters, || {
            for seqs in &query_seqs {
                let _ = search_sequences(store, seqs, &with_workers(w)).expect("worklist");
            }
        });
        rows.push(vec![
            format!("work-list, {w} worker(s)"),
            ms(t),
            format!("{:.2}", base.as_secs_f64() / t.as_secs_f64()),
        ]);
        worker_ms.push((w, t));
    }

    println!(
        "\nparallel_match — {} queries over {n} documents, mean of {iters} pass(es)",
        query_seqs.len()
    );
    print_table(&["engine", "total (ms)", "speedup vs baseline"], &rows);

    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    println!("\nhost cores: {cores}");

    if !smoke {
        let t4 = worker_ms
            .iter()
            .find(|(w, _)| *w == 4)
            .map(|(_, t)| *t)
            .expect("4-worker row");
        let json = format!(
            concat!(
                "{{\n",
                "  \"bench\": \"parallel_match\",\n",
                "  \"corpus\": {{ \"generator\": \"synthetic\", \"docs\": {}, \"k\": 10, \"j\": 8, \"l\": 30, \"seed\": 7 }},\n",
                "  \"queries\": {}, \"wildcard_prob\": {}, \"iters\": {}, \"baseline_visit_budget\": {},\n",
                "  \"host_cores\": {},\n",
                "  \"baseline_recursive_materializing_ms\": {:.3},\n",
                "  \"worklist_ms\": {{ {} }},\n",
                "  \"speedup_4_workers_vs_baseline\": {:.3}\n",
                "}}\n"
            ),
            n,
            query_seqs.len(),
            WILDCARD_PROB,
            iters,
            budget,
            cores,
            base.as_secs_f64() * 1e3,
            worker_ms
                .iter()
                .map(|(w, t)| format!("\"{w}\": {:.3}", t.as_secs_f64() * 1e3))
                .collect::<Vec<_>>()
                .join(", "),
            base.as_secs_f64() / t4.as_secs_f64(),
        );
        std::fs::write("BENCH_parallel_match.json", &json).expect("write json");
        eprintln!("wrote BENCH_parallel_match.json");
    }
}
