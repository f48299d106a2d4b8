//! The executor: replays a [`Trace`] against a real file-backed
//! [`VistIndex`] behind a [`FaultVfs`], mirroring every op into the
//! [`ModelIndex`] oracle and diffing the two after each step.
//!
//! Per-query checks (all must hold, every time):
//! * verified results == the model's brute-force exact matches;
//! * raw (unverified) results == a naive suffix-tree baseline rebuilt
//!   from the model's documents — ViST and Algorithm 1 share raw
//!   semantics (§3.2–3.4), so any drift is a matching bug;
//! * raw ⊇ exact (ViST may over-approximate, never under-approximate);
//! * two different match-frame schedule seeds give identical answers
//!   (no code path may depend on scheduling luck);
//! * the cost-based planner is answer-preserving: raw results with the
//!   planner disabled (`no_plan`) equal the planned raw results.
//!
//! Crash handling: a [`Op::Crash`] arms the [`FaultVfs`]; the first op
//! that trips the injected fault triggers recovery — drop the index
//! while the VFS is still "dead" (write-backs from a dead process must
//! not reach disk), reopen for real, run `check()`, and require the
//! recovered contents to equal a legal candidate snapshot: the last
//! committed checkpoint, or — when the tripped op was itself a flush —
//! either side of that ambiguous commit.

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use vist_core::{IndexOptions, NaiveIndex, QueryOptions, VistIndex};
use vist_query::parse_query;
use vist_seq::SiblingOrder;
use vist_storage::{is_injected, FaultHandle, FaultMode, FaultVfs, RealVfs};

use crate::model::{ModelDoc, ModelIndex, Snapshot};
use crate::ops::{doc_xml, query_expr, Op, Trace};

/// Small on purpose: eviction write-backs are crash surface.
const CACHE_PAGES: usize = 8;

/// Deterministic counters from a completed (non-diverging) run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    pub ops: usize,
    pub inserts: u64,
    /// Completed `insert_batch` group commits (their documents also count
    /// into `inserts`).
    pub batch_inserts: u64,
    pub removes: u64,
    pub queries: u64,
    pub bursts: u64,
    pub flushes: u64,
    pub compacts: u64,
    pub reopens: u64,
    pub crashes_recovered: u64,
    pub checks: u64,
    /// Queries whose alternative-sequence generation was truncated
    /// (oracle comparisons skipped — possible legitimate false negatives).
    pub truncated_queries: u64,
    pub final_docs: usize,
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ops={} inserts={} batch_inserts={} removes={} queries={} bursts={} flushes={} \
             compacts={} reopens={} crashes_recovered={} checks={} truncated={} final_docs={}",
            self.ops,
            self.inserts,
            self.batch_inserts,
            self.removes,
            self.queries,
            self.bursts,
            self.flushes,
            self.compacts,
            self.reopens,
            self.crashes_recovered,
            self.checks,
            self.truncated_queries,
            self.final_docs
        )
    }
}

/// The real index disagreed with the model (or failed outright).
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Index of the op being executed (`== trace.ops.len()` for the
    /// final verification phase).
    pub op_index: usize,
    /// Stable machine-readable label, e.g. `verified-vs-model`.
    pub kind: String,
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op {} [{}]: {}", self.op_index, self.kind, self.detail)
    }
}

struct Exec<'t> {
    trace: &'t Trace,
    path: PathBuf,
    handle: FaultHandle,
    idx: Option<VistIndex>,
    model: ModelIndex,
    /// Naive baseline rebuilt lazily; `Vec` maps naive-local doc ids
    /// (dense, insertion order) back to model ids.
    naive: Option<(NaiveIndex, Vec<u64>)>,
    report: Report,
    op_index: usize,
    /// Mirror of the store's persistent `next_doc` counter (monotonic,
    /// never reused by removes, rolled back by crash recovery). Lets the
    /// executor predict a batch's document ids *before* running it, so
    /// the ambiguous group-commit candidate can be built without the real
    /// index's help.
    next_id: u64,
    /// `next_id` as of the last committed checkpoint — the counter value
    /// recovery lands on when it adopts the durable snapshot.
    durable_next_id: u64,
}

/// A legal post-recovery state: the document snapshot plus the
/// `next_doc` counter value that goes with it.
type Candidate = (Snapshot, u64);

/// Run a trace to completion. `dir` must be an existing directory private
/// to this run; the store lives in `dir/store` and is recreated.
pub fn run_trace(trace: &Trace, dir: &Path) -> Result<Report, Divergence> {
    let path = dir.join("store");
    // The tier spreads across sibling files (WAL, segments); sweep them
    // all so reruns start clean.
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            if entry.file_name().to_string_lossy().starts_with("store") {
                let p = entry.path();
                if p.is_dir() {
                    let _ = std::fs::remove_dir_all(&p);
                } else {
                    let _ = std::fs::remove_file(&p);
                }
            }
        }
    }

    let vfs = FaultVfs::new(Arc::new(RealVfs));
    let handle = vfs.handle();
    let setup = |e: String| Divergence {
        op_index: 0,
        kind: "setup-error".into(),
        detail: e,
    };
    // Through the Vfs: Op::Compact and segment reads must route through
    // the fault injector too.
    let idx = VistIndex::create_at(Arc::new(vfs), &path, index_options(trace))
        .map_err(|e| setup(e.to_string()))?;
    // Commit the empty state so recovery always has a checkpoint to land
    // on — mirrors how a real deployment creates then checkpoints.
    idx.flush().map_err(|e| setup(e.to_string()))?;

    let mut exec = Exec {
        trace,
        path,
        handle,
        idx: Some(idx),
        model: ModelIndex::new(SiblingOrder::Lexicographic),
        naive: None,
        report: Report::default(),
        op_index: 0,
        next_id: 0,
        durable_next_id: 0,
    };
    exec.model.commit();

    for i in 0..trace.ops.len() {
        exec.op_index = i;
        exec.step(trace.ops[i])?;
        exec.report.ops = i + 1;
    }
    exec.op_index = trace.ops.len();
    exec.finish()?;
    Ok(exec.report)
}

fn index_options(trace: &Trace) -> IndexOptions {
    IndexOptions {
        page_size: trace.page_size,
        cache_pages: CACHE_PAGES,
        lambda: trace.lambda,
        mutation: trace.mutation,
        ..Default::default()
    }
}

impl Exec<'_> {
    fn idx(&self) -> &VistIndex {
        self.idx.as_ref().expect("index is open")
    }

    fn diverge(&self, kind: &str, detail: String) -> Divergence {
        Divergence {
            op_index: self.op_index,
            kind: kind.into(),
            detail,
        }
    }

    /// The durable snapshot paired with its committed doc-id counter.
    fn durable_candidate(&self) -> Candidate {
        (self.model.durable().clone(), self.durable_next_id)
    }

    /// The live snapshot paired with the current doc-id counter.
    fn live_candidate(&self) -> Candidate {
        (self.model.live().clone(), self.next_id)
    }

    /// A successful checkpoint: live state (and its counter) become
    /// durable.
    fn commit_model(&mut self) {
        self.model.commit();
        self.durable_next_id = self.next_id;
    }

    /// Classify an index error: injected faults route to crash recovery
    /// (with `candidates` as the legal post-recovery states), anything
    /// else is a divergence.
    fn fail(&mut self, e: vist_core::Error, candidates: Vec<Candidate>) -> Result<(), Divergence> {
        // Once the scheduled crash has fired, every VFS op fails, so *any*
        // error — including aggregates like `Error::Corrupt` from `check()`
        // that bury the injected cause in a formatted report — is expected.
        if self.handle.crashed()
            || matches!(&e, vist_core::Error::Storage(inner) if is_injected(inner))
        {
            self.recover(candidates)
        } else {
            Err(self.diverge("unexpected-error", e.to_string()))
        }
    }

    /// Drop the (possibly crashed) index while the VFS is still failing,
    /// reopen for real, verify invariants, and reconcile with the model.
    fn recover(&mut self, candidates: Vec<Candidate>) -> Result<(), Divergence> {
        // Drop first: a dead process cannot write back dirty pages, and
        // with the fault still armed neither can the dropped pool.
        self.idx = None;
        self.naive = None;
        self.handle.reset();

        let vfs = FaultVfs::new(Arc::new(RealVfs));
        self.handle = vfs.handle();
        let idx = VistIndex::open_at(Arc::new(vfs), &self.path, CACHE_PAGES)
            .map_err(|e| self.diverge("recovery-open-failed", e.to_string()))?;
        idx.set_sim_mutation(self.trace.mutation);
        idx.check()
            .map_err(|e| self.diverge("recovery-check-failed", e.to_string()))?;

        let recovered =
            read_contents(&idx).map_err(|e| self.diverge("recovery-read-failed", e.to_string()))?;
        let (adopted, adopted_next) = candidates
            .iter()
            .find(|(c, _)| snapshot_eq(c, &recovered))
            .cloned()
            .ok_or_else(|| {
                let cands: Vec<Vec<u64>> = candidates
                    .iter()
                    .map(|(c, _)| c.keys().copied().collect())
                    .collect();
                let got: Vec<u64> = recovered.iter().map(|(id, _)| *id).collect();
                self.diverge(
                    "recovery-mismatch",
                    format!("recovered ids {got:?} match no candidate checkpoint {cands:?}"),
                )
            })?;
        self.model.adopt(adopted);
        self.next_id = adopted_next;
        self.durable_next_id = adopted_next;
        self.idx = Some(idx);
        self.report.crashes_recovered += 1;
        Ok(())
    }

    fn step(&mut self, op: Op) -> Result<(), Divergence> {
        match op {
            Op::Insert { payload } => {
                let xml = doc_xml(payload);
                match self.idx().insert_xml(&xml) {
                    Ok(id) => {
                        self.naive = None;
                        self.report.inserts += 1;
                        self.next_id = id + 1;
                        let doc = vist_xml::parse(&xml)
                            .map_err(|e| self.diverge("setup-error", e.to_string()))?;
                        if !self.model.insert(id, xml, doc) {
                            return Err(self.diverge(
                                "duplicate-doc-id",
                                format!("insert returned already-live id {id}"),
                            ));
                        }
                        Ok(())
                    }
                    Err(e) => {
                        let durable = self.durable_candidate();
                        self.fail(e, vec![durable])
                    }
                }
            }
            Op::BatchInsert { payload, count } => self.run_batch_insert(payload, count),
            Op::Remove { pick } => {
                if self.model.is_empty() {
                    return Ok(());
                }
                let ids = self.model.ids();
                let victim = ids[(pick % ids.len() as u64) as usize];
                match self.idx().remove_document(victim) {
                    Ok(()) => {
                        self.naive = None;
                        self.report.removes += 1;
                        self.model.remove(victim);
                        Ok(())
                    }
                    Err(e) => {
                        let durable = self.durable_candidate();
                        self.fail(e, vec![durable])
                    }
                }
            }
            Op::Query {
                template,
                value,
                sched,
            } => self.run_query(template, value, sched),
            Op::Flush => match self.idx().flush() {
                Ok(()) => {
                    self.report.flushes += 1;
                    self.commit_model();
                    Ok(())
                }
                Err(e) => {
                    // The commit record may or may not have reached disk.
                    let ambiguous = vec![self.durable_candidate(), self.live_candidate()];
                    self.fail(e, ambiguous)
                }
            },
            Op::Compact => match self.idx().compact() {
                Ok(()) => {
                    self.report.compacts += 1;
                    // Compaction is a checkpoint: its first commit takes
                    // the delta as it stands, and the commit of the
                    // cleared delta names the segment holding every live
                    // document.
                    self.commit_model();
                    Ok(())
                }
                Err(e) => {
                    // The first commit may have taken the delta even if
                    // the one naming the new segment never happened; the
                    // document set is the same on both sides of it.
                    let ambiguous = vec![self.durable_candidate(), self.live_candidate()];
                    self.fail(e, ambiguous)
                }
            },
            Op::Reopen => match self.idx().flush() {
                Ok(()) => {
                    self.commit_model();
                    self.idx = None;
                    self.naive = None;
                    // A clean restart must land exactly on the state just
                    // committed; reuse the recovery machinery to verify.
                    let live = self.live_candidate();
                    self.recover(vec![live])?;
                    // recover() counts itself as a crash; reclassify.
                    self.report.crashes_recovered -= 1;
                    self.report.reopens += 1;
                    Ok(())
                }
                Err(e) => {
                    let ambiguous = vec![self.durable_candidate(), self.live_candidate()];
                    self.fail(e, ambiguous)
                }
            },
            Op::Crash { in_ops, tear_seed } => {
                // Re-anchor the op counter, then arm. Nothing fails yet;
                // the first op to trip the fault routes into recover().
                self.handle.reset();
                self.handle.schedule(in_ops, FaultMode::Crash, tear_seed);
                Ok(())
            }
            Op::Check => match self.idx().check() {
                Ok(_) => {
                    self.report.checks += 1;
                    Ok(())
                }
                Err(e) => {
                    if self.handle.crashed()
                        || matches!(&e, vist_core::Error::Storage(inner) if is_injected(inner))
                    {
                        let durable = self.durable_candidate();
                        self.recover(vec![durable])
                    } else {
                        Err(self.diverge("check-failed", e.to_string()))
                    }
                }
            },
            Op::Burst {
                template,
                value,
                threads,
            } => self.run_burst(template, value, threads),
        }
    }

    /// One `insert_batch` group commit. The batch either lands whole
    /// (self-committing: its trailing checkpoint makes *everything* live
    /// durable, sweeping in any earlier uncommitted inserts) or not at
    /// all — there is no crash point that yields a partial batch.
    fn run_batch_insert(&mut self, payload: u64, count: u8) -> Result<(), Divergence> {
        if count == 0 {
            // An empty batch never touches the index or the WAL.
            return Ok(());
        }
        let docs: Vec<String> = (0..count as u64)
            .map(|k| doc_xml(payload.wrapping_add(k)))
            .collect();
        // Predict the batch's ids from the mirrored counter so the
        // ambiguous-commit candidate (live state plus the whole batch)
        // exists before the real index runs — it may die mid-op.
        let first = self.next_id;
        let mut with_batch = self.model.live().clone();
        for (k, xml) in docs.iter().enumerate() {
            let doc =
                vist_xml::parse(xml).map_err(|e| self.diverge("setup-error", e.to_string()))?;
            with_batch.insert(
                first + k as u64,
                ModelDoc {
                    xml: xml.clone(),
                    doc,
                },
            );
        }
        match self.idx().insert_batch(&docs, 2) {
            Ok(ids) => {
                self.naive = None;
                self.report.batch_inserts += 1;
                self.report.inserts += count as u64;
                let want: Vec<u64> = (first..first + count as u64).collect();
                if ids != want {
                    // Not just cosmetic: the crash candidate above was
                    // built from this prediction, so drift means the
                    // harness would mis-verify recovery.
                    return Err(self.diverge(
                        "batch-id-drift",
                        format!("batch assigned ids {ids:?}, counter predicted {want:?}"),
                    ));
                }
                for (id, xml) in ids.iter().zip(&docs) {
                    let doc = vist_xml::parse(xml)
                        .map_err(|e| self.diverge("setup-error", e.to_string()))?;
                    if !self.model.insert(*id, xml.clone(), doc) {
                        return Err(self.diverge(
                            "duplicate-doc-id",
                            format!("batch insert returned already-live id {id}"),
                        ));
                    }
                }
                self.next_id = first + count as u64;
                self.commit_model();
                Ok(())
            }
            Err(e) => {
                // The batch-final checkpoint is the only commit point in
                // the op: recovery lands on the last durable state, or —
                // when the fault hit inside that checkpoint — on
                // everything live plus the whole batch. Never in between.
                let durable = self.durable_candidate();
                self.fail(e, vec![durable, (with_batch, first + count as u64)])
            }
        }
    }

    /// One query, five ways: seeded raw twice (schedule independence),
    /// raw with the planner off (plan independence), verified (== model
    /// exact), and the naive baseline (== raw).
    fn run_query(&mut self, template: u8, value: u8, sched: u64) -> Result<(), Divergence> {
        let expr = query_expr(template, value);
        let pattern = parse_query(&expr)
            .expect("templates are valid")
            .to_pattern();
        let exact = self.model.exact_matches(&pattern);

        let opts = |verify: bool, seed: u64| QueryOptions {
            verify,
            schedule_seed: Some(seed),
            ..Default::default()
        };
        let durable = vec![self.durable_candidate()];
        let raw_a = match self.idx().query(&expr, &opts(false, sched)) {
            Ok(r) => r,
            Err(e) => return self.fail(e, durable),
        };
        let raw_b = match self
            .idx()
            .query(&expr, &opts(false, sched ^ 0xD1B5_4A32_D192_ED03))
        {
            Ok(r) => r,
            Err(e) => return self.fail(e, durable),
        };
        let raw_unplanned = match self.idx().query(
            &expr,
            &QueryOptions {
                no_plan: true,
                ..opts(false, sched)
            },
        ) {
            Ok(r) => r,
            Err(e) => return self.fail(e, durable),
        };
        let verified = match self.idx().query(&expr, &opts(true, sched)) {
            Ok(r) => r,
            Err(e) => return self.fail(e, durable),
        };
        self.report.queries += 1;

        if raw_a.doc_ids != raw_b.doc_ids {
            return Err(self.diverge(
                "schedule-dependent",
                format!(
                    "{expr}: schedule seeds disagree: {:?} vs {:?}",
                    raw_a.doc_ids, raw_b.doc_ids
                ),
            ));
        }
        if raw_a.doc_ids != raw_unplanned.doc_ids {
            return Err(self.diverge(
                "plan-dependent",
                format!(
                    "{expr}: planned raw {:?} != unplanned raw {:?}",
                    raw_a.doc_ids, raw_unplanned.doc_ids
                ),
            ));
        }
        if raw_a.truncated {
            // Legitimate false negatives possible; oracle comparisons
            // would mis-fire. Counted so reports surface the blind spot.
            self.report.truncated_queries += 1;
            return Ok(());
        }
        if verified.doc_ids != exact {
            return Err(self.diverge(
                "verified-vs-model",
                format!(
                    "{expr}: verified {:?} != model exact {exact:?}",
                    verified.doc_ids
                ),
            ));
        }
        let raw_set: BTreeSet<u64> = raw_a.doc_ids.iter().copied().collect();
        if let Some(missing) = exact.iter().find(|id| !raw_set.contains(id)) {
            return Err(self.diverge(
                "raw-missing-exact",
                format!(
                    "{expr}: raw {:?} misses matching doc {missing}",
                    raw_a.doc_ids
                ),
            ));
        }
        let naive = self.naive_raw(&expr)?;
        if naive != raw_a.doc_ids {
            return Err(self.diverge(
                "raw-vs-naive",
                format!(
                    "{expr}: vist raw {:?} != naive raw {naive:?}",
                    raw_a.doc_ids
                ),
            ));
        }
        Ok(())
    }

    /// Raw answers from the naive §3.2 baseline, in model doc ids.
    fn naive_raw(&mut self, expr: &str) -> Result<Vec<u64>, Divergence> {
        if self.naive.is_none() {
            let mut naive = NaiveIndex::new(SiblingOrder::Lexicographic);
            let mut map = Vec::with_capacity(self.model.len());
            for (id, doc) in self.model.live() {
                naive.insert_document(&doc.doc);
                map.push(*id);
            }
            self.naive = Some((naive, map));
        }
        let (naive, map) = self.naive.as_mut().expect("just built");
        let local = naive
            .query(expr, &QueryOptions::default())
            .map_err(|e| Divergence {
                op_index: self.op_index,
                kind: "naive-error".into(),
                detail: e.to_string(),
            })?;
        let mut ids: Vec<u64> = local.into_iter().map(|i| map[i as usize]).collect();
        ids.sort_unstable();
        Ok(ids)
    }

    /// Concurrent read-only burst: every thread's verified answer must
    /// equal the model's. No writer runs, so the verdict is deterministic
    /// even though real threads race.
    fn run_burst(&mut self, template: u8, value: u8, threads: u8) -> Result<(), Divergence> {
        let expr = query_expr(template, value);
        let pattern = parse_query(&expr)
            .expect("templates are valid")
            .to_pattern();
        let exact = self.model.exact_matches(&pattern);
        let idx = self.idx();
        let results: Vec<Result<Vec<u64>, vist_core::Error>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads.max(1) as u64)
                .map(|t| {
                    let expr = &expr;
                    s.spawn(move || {
                        let opts = QueryOptions {
                            verify: true,
                            schedule_seed: Some(t),
                            ..Default::default()
                        };
                        idx.query(expr, &opts).map(|r| r.doc_ids)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("burst thread panicked"))
                .collect()
        });
        for res in results {
            match res {
                Ok(ids) => {
                    if ids != exact {
                        return Err(self.diverge(
                            "burst-mismatch",
                            format!("{expr}: burst thread got {ids:?}, model exact {exact:?}"),
                        ));
                    }
                }
                Err(e) => {
                    let durable = self.durable_candidate();
                    return self.fail(e, vec![durable]);
                }
            }
        }
        self.report.bursts += 1;
        Ok(())
    }

    /// Final phase: checkpoint, then require the on-index contents to
    /// equal the model byte for byte and `check()` to pass.
    fn finish(&mut self) -> Result<(), Divergence> {
        match self.idx().flush() {
            Ok(()) => self.commit_model(),
            Err(e) => {
                let ambiguous = vec![self.durable_candidate(), self.live_candidate()];
                self.fail(e, ambiguous)?;
            }
        }
        // A crash armed in the trace's tail can fire inside this check or
        // read; route it through recovery (which re-checks) and read again.
        if let Err(e) = self.idx().check() {
            if self.handle.crashed() {
                let durable = self.durable_candidate();
                self.fail(e, vec![durable])?;
            } else {
                return Err(self.diverge("check-failed", e.to_string()));
            }
        }
        let contents = match read_contents(self.idx()) {
            Ok(c) => c,
            Err(e) => {
                let durable = self.durable_candidate();
                self.fail(e, vec![durable])?;
                read_contents(self.idx())
                    .map_err(|e| self.diverge("unexpected-error", e.to_string()))?
            }
        };
        if !snapshot_eq(self.model.live(), &contents) {
            let want: Vec<u64> = self.model.ids();
            let got: Vec<u64> = contents.iter().map(|(id, _)| *id).collect();
            return Err(self.diverge(
                "final-state-mismatch",
                format!("index holds {got:?}, model holds {want:?}"),
            ));
        }
        self.report.final_docs = self.model.len();
        Ok(())
    }
}

/// All `(id, xml)` pairs currently in the real index, ascending.
fn read_contents(idx: &VistIndex) -> Result<Vec<(u64, String)>, vist_core::Error> {
    let mut ids = idx.document_ids()?;
    ids.sort_unstable();
    ids.into_iter()
        .map(|id| idx.get_document_xml(id).map(|xml| (id, xml)))
        .collect()
}

/// Does the real contents listing equal a model snapshot exactly
/// (ids and original bytes)?
fn snapshot_eq(model: &Snapshot, real: &[(u64, String)]) -> bool {
    model.len() == real.len()
        && model
            .iter()
            .zip(real)
            .all(|((mid, mdoc), (rid, rxml))| mid == rid && mdoc.xml == *rxml)
}
