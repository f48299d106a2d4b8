//! The harness's own span recorder.
//!
//! Every call into a layer of the stack is wrapped in `begin` / `end`, in
//! the traced and the untraced run alike, so the two runs time the same
//! code; only a traced run keeps the spans. Spans stay in memory and are
//! written to `benchmark/out/trace-<workload>.jsonl` when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    /// Root span of the operation this span belongs to: the id that the
    /// spans of one round, batch or request share.
    pub op: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counter deltas taken at the same boundary as the times.
    pub counts: Vec<(&'static str, u64)>,
}

/// A span that has begun; `Recorder::end` closes it.
pub struct Open {
    start: Instant,
    idx: Option<u32>,
}

pub struct Recorder {
    on: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    /// `epoch` is shared by the recorders of one run, so their spans are on
    /// one time line.
    pub fn new(on: bool, epoch: Instant, thread: u32) -> Self {
        Recorder {
            on,
            epoch,
            thread,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Keep or stop keeping spans from here on (the traced run measures a
    /// stretch with the recorder off to state its own overhead).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty());
        self.on = on;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        if !self.on {
            return Open { start, idx: None };
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        self.spans.push(Span {
            name,
            op: parent.map_or(idx, |p| self.spans[p as usize].op),
            parent,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: 0,
            counts: Vec::new(),
        });
        self.stack.push(idx);
        Open {
            start,
            idx: Some(idx),
        }
    }

    pub fn end(&mut self, open: Open) -> Duration {
        self.end_with(open, &[])
    }

    pub fn end_with(&mut self, open: Open, counts: &[(&'static str, u64)]) -> Duration {
        let elapsed = open.start.elapsed();
        if let Some(idx) = open.idx {
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(idx), "spans close innermost first");
            let span = &mut self.spans[idx as usize];
            span.end_ns = span.start_ns + elapsed.as_nanos() as u64;
            span.counts = counts.to_vec();
        }
        elapsed
    }

    /// Time `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let open = self.begin(name);
        let value = f();
        (value, self.end(open))
    }
}

/// Per-name totals over the spans of a run; self time is a span's duration
/// minus the part its child spans cover.
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Write the spans of all recorders as JSON lines and return the per-name
/// totals. Span ids are made unique across recorders by an offset.
pub fn write_spans(path: &Path, recorders: &[Recorder]) -> BTreeMap<&'static str, NameTotal> {
    let mut totals: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).expect("create span file"));
    let mut offset = 0u32;
    for rec in recorders {
        let mut child_ns = vec![0u64; rec.spans.len()];
        for s in &rec.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        for (i, s) in rec.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let self_ns = dur.saturating_sub(child_ns[i]);
            let t = totals.entry(s.name).or_insert(NameTotal {
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += self_ns;
            let counts: Vec<String> = s
                .counts
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            writeln!(
                out,
                "{{\"id\":{},\"op\":{},\"parent\":{},\"thread\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"counts\":{{{}}}}}",
                offset + i as u32,
                offset + s.op,
                s.parent.map_or("null".to_string(), |p| (offset + p).to_string()),
                rec.thread,
                s.name,
                s.start_ns,
                s.end_ns,
                self_ns,
                counts.join(",")
            )
            .expect("write span");
        }
        offset += rec.spans.len() as u32;
    }
    out.flush().expect("flush span file");
    totals
}
