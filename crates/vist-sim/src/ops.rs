//! Workload ops, traces, and their text format.
//!
//! A [`Trace`] is the complete, self-contained description of one
//! simulation run: index configuration plus a flat op list. The op list
//! *is* the interleaving — generation simulates one writer actor and a
//! few reader actors under a seeded virtual scheduler (see
//! [`generate`]), and execution replays the flattened schedule
//! single-threaded, so a trace replays byte-identically regardless of
//! host timing.
//!
//! The text format is line-based and versioned so failing traces can be
//! checked into `tests/seeds/` and replayed by `vist sim --replay`. Traces
//! are written as v2; a v1 trace still reads, its `op query` line carrying
//! one more number (a match-engine worker count) before the schedule seed,
//! which is ignored.

use std::fmt::Write as _;

use vist_core::SimMutation;

use crate::rng::SimRng;

/// One step of a simulated workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Insert the deterministic document derived from `payload`
    /// (see [`doc_xml`]).
    Insert { payload: u64 },
    /// Insert `count` documents (payloads `payload..payload+count`)
    /// through `VistIndex::insert_batch` as one group commit. The
    /// batch-final checkpoint is the only commit point: on crash the
    /// batch is all-or-nothing, and on success *everything* live —
    /// including earlier uncommitted inserts — becomes durable with it.
    BatchInsert { payload: u64, count: u8 },
    /// Remove the `pick % live`-th live document (ascending id order);
    /// no-op when the index is empty.
    Remove { pick: u64 },
    /// Run the query from [`query_expr`] three ways (seeded schedule A,
    /// seeded schedule B, verified) and diff all of them against the
    /// model and the naive oracle.
    Query { template: u8, value: u8, sched: u64 },
    /// Checkpoint: everything inserted so far becomes durable.
    Flush,
    /// Compact delta + segments into one fresh segment (tombstones
    /// dropped, delta cleared). Answer-preserving, and a checkpoint:
    /// the pre-swap flush makes everything live durable.
    Compact,
    /// Clean restart: flush, drop the index, reopen from disk.
    Reopen,
    /// Arm a crash `in_ops` file-system operations from now (torn final
    /// write seeded by `tear_seed`). Execution continues until some op
    /// trips the fault, then the harness recovers and reconciles.
    Crash { in_ops: u64, tear_seed: u64 },
    /// Run the index's internal invariant checker.
    Check,
    /// Read-only burst: `threads` OS threads run the same verified query
    /// concurrently; all must agree with the model. (No writer runs, so
    /// the verdict is deterministic even with real threads.)
    Burst {
        template: u8,
        value: u8,
        threads: u8,
    },
}

/// Number of query templates in [`query_expr`].
pub const TEMPLATES: u8 = 13;

/// The fixed query-template table. `value` selects the text literal
/// (`v1..v4`); templates cover child/descendant axes, wildcards, value
/// predicates, relpath predicates, and branching. Template 12 combines a
/// wildcard step with two branch predicates — the shape where the
/// cost-based planner reorders and prunes hardest.
pub fn query_expr(template: u8, value: u8) -> String {
    let v = (value % 4) + 1;
    match template % TEMPLATES {
        0 => "/a".into(),
        1 => "/a/b".into(),
        2 => format!("/a/b[text='v{v}']"),
        3 => "//c".into(),
        4 => format!("//c[text='v{v}']"),
        5 => format!("/a/*[text='v{v}']"),
        6 => "/a//d".into(),
        7 => "//b/c".into(),
        8 => format!("/a/b[c='v{v}']"),
        9 => "/a[b][c]".into(),
        10 => "/a/*/e".into(),
        11 => format!("//d[text='v{v}']"),
        _ => format!("/a[b]/*[e='v{v}']"),
    }
}

/// Deterministic document for an insert payload: root `<a>` with 1–4
/// children drawn from `b`/`c`/`d`, each either a text leaf (`v1..v4`) or
/// a small subtree over `c`/`d`/`e`. Sibling names repeat on purpose —
/// duplicate siblings are where scope-allocation bugs show up.
pub fn doc_xml(payload: u64) -> String {
    let mut rng = SimRng::new(payload.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x51D0_0001);
    let mut xml = String::from("<a>");
    let children = 1 + rng.below(4);
    for _ in 0..children {
        let name = *rng.pick(&["b", "c", "d"]);
        if rng.chance(3, 5) {
            let v = 1 + rng.below(4);
            let _ = write!(xml, "<{name}>v{v}</{name}>");
        } else {
            let _ = write!(xml, "<{name}>");
            let grand = 1 + rng.below(3);
            for _ in 0..grand {
                let g = *rng.pick(&["c", "d", "e"]);
                let v = 1 + rng.below(4);
                let _ = write!(xml, "<{g}>v{v}</{g}>");
            }
            let _ = write!(xml, "</{name}>");
        }
    }
    xml.push_str("</a>");
    xml
}

/// A complete simulation run: configuration + flattened op schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    pub seed: u64,
    pub page_size: usize,
    pub lambda: u64,
    pub mutation: SimMutation,
    pub ops: Vec<Op>,
}

/// Knobs for [`generate`]. `page_size`/`lambda` default to a seeded pick
/// when `None`.
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub seed: u64,
    pub ops: usize,
    /// Reader actors interleaved with the single writer actor.
    pub readers: usize,
    pub page_size: Option<usize>,
    pub lambda: Option<u64>,
    pub mutation: SimMutation,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 1,
            ops: 200,
            readers: 2,
            page_size: None,
            lambda: None,
            mutation: SimMutation::None,
        }
    }
}

/// Generate a trace: a seeded virtual scheduler interleaves one writer
/// actor (inserts, removes, flushes, reopens, crash arming, checks) with
/// `readers` reader actors (queries, bursts). The scheduler pick, every
/// op's parameters, and the index configuration all come from one
/// splitmix64 stream, so the trace is a pure function of the config.
pub fn generate(cfg: &SimConfig) -> Trace {
    let mut rng = SimRng::new(cfg.seed);
    let page_size = cfg
        .page_size
        .unwrap_or_else(|| *rng.pick(&[256usize, 512, 1024]));
    let lambda = cfg.lambda.unwrap_or_else(|| *rng.pick(&[4u64, 8, 16]));
    let actors = 1 + cfg.readers.max(1) as u64;
    let mut ops = Vec::with_capacity(cfg.ops);
    // Arming crashes back-to-back just re-arms; keep them rare and spaced.
    let mut ops_since_crash = u64::MAX / 2;
    while ops.len() < cfg.ops {
        let actor = rng.below(actors);
        let op = if actor == 0 {
            // Writer actor.
            match rng.below(20) {
                0..=6 => Op::Insert {
                    payload: rng.below(1 << 20),
                },
                7..=8 => Op::BatchInsert {
                    payload: rng.below(1 << 20),
                    count: (2 + rng.below(4)) as u8,
                },
                9..=12 => Op::Remove {
                    pick: rng.next_u64(),
                },
                13..=14 => Op::Flush,
                15 => Op::Compact,
                16 => Op::Reopen,
                17 => Op::Check,
                _ if ops_since_crash > 10 => {
                    ops_since_crash = 0;
                    Op::Crash {
                        in_ops: 1 + rng.below(40),
                        tear_seed: rng.next_u64(),
                    }
                }
                _ => Op::Insert {
                    payload: rng.below(1 << 20),
                },
            }
        } else {
            // Reader actor.
            if rng.chance(1, 6) {
                Op::Burst {
                    template: rng.below(TEMPLATES as u64) as u8,
                    value: rng.below(4) as u8,
                    threads: 2 + rng.below(3) as u8,
                }
            } else {
                Op::Query {
                    template: rng.below(TEMPLATES as u64) as u8,
                    value: rng.below(4) as u8,
                    sched: rng.next_u64(),
                }
            }
        };
        ops_since_crash = ops_since_crash.saturating_add(1);
        ops.push(op);
    }
    Trace {
        seed: cfg.seed,
        page_size,
        lambda,
        mutation: cfg.mutation,
        ops,
    }
}

impl Trace {
    /// Serialize to the versioned line format (see module docs).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "vist-sim trace v2");
        let _ = writeln!(out, "seed {}", self.seed);
        let _ = writeln!(out, "page_size {}", self.page_size);
        let _ = writeln!(out, "lambda {}", self.lambda);
        let _ = writeln!(out, "mutation {}", self.mutation);
        for op in &self.ops {
            match *op {
                Op::Insert { payload } => {
                    let _ = writeln!(out, "op insert {payload}");
                }
                Op::BatchInsert { payload, count } => {
                    let _ = writeln!(out, "op batch_insert {payload} {count}");
                }
                Op::Remove { pick } => {
                    let _ = writeln!(out, "op remove {pick}");
                }
                Op::Query {
                    template,
                    value,
                    sched,
                } => {
                    let _ = writeln!(out, "op query {template} {value} {sched}");
                }
                Op::Flush => {
                    let _ = writeln!(out, "op flush");
                }
                Op::Compact => {
                    let _ = writeln!(out, "op compact");
                }
                Op::Reopen => {
                    let _ = writeln!(out, "op reopen");
                }
                Op::Crash { in_ops, tear_seed } => {
                    let _ = writeln!(out, "op crash {in_ops} {tear_seed}");
                }
                Op::Check => {
                    let _ = writeln!(out, "op check");
                }
                Op::Burst {
                    template,
                    value,
                    threads,
                } => {
                    let _ = writeln!(out, "op burst {template} {value} {threads}");
                }
            }
        }
        out
    }

    /// Parse the text format back into a trace. Lines starting with `#`
    /// and blank lines are ignored (seed-corpus files carry comments).
    pub fn from_text(text: &str) -> Result<Trace, String> {
        let mut lines = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'));
        let header = lines.next().ok_or("empty trace")?;
        let v1 = match header {
            "vist-sim trace v1" => true,
            "vist-sim trace v2" => false,
            _ => return Err(format!("bad trace header: {header:?}")),
        };
        let mut seed = None;
        let mut page_size = None;
        let mut lambda = None;
        let mut mutation = SimMutation::None;
        let mut ops = Vec::new();
        for line in lines {
            let mut parts = line.split_whitespace();
            let key = parts.next().unwrap_or_default();
            let mut num = |what: &str| -> Result<u64, String> {
                parts
                    .next()
                    .ok_or_else(|| format!("{line:?}: missing {what}"))?
                    .parse::<u64>()
                    .map_err(|e| format!("{line:?}: bad {what}: {e}"))
            };
            match key {
                "seed" => seed = Some(num("seed")?),
                "page_size" => page_size = Some(num("page_size")? as usize),
                "lambda" => lambda = Some(num("lambda")?),
                "mutation" => {
                    let word = parts
                        .next()
                        .ok_or_else(|| format!("{line:?}: missing mode"))?;
                    mutation = word
                        .parse()
                        .map_err(|e| format!("{line:?}: bad mutation: {e}"))?;
                }
                "op" => {
                    let name = parts
                        .next()
                        .ok_or_else(|| format!("{line:?}: missing op"))?;
                    let mut num = |what: &str| -> Result<u64, String> {
                        parts
                            .next()
                            .ok_or_else(|| format!("{line:?}: missing {what}"))?
                            .parse::<u64>()
                            .map_err(|e| format!("{line:?}: bad {what}: {e}"))
                    };
                    let op = match name {
                        "insert" => Op::Insert {
                            payload: num("payload")?,
                        },
                        "batch_insert" => Op::BatchInsert {
                            payload: num("payload")?,
                            count: num("count")? as u8,
                        },
                        "remove" => Op::Remove { pick: num("pick")? },
                        "query" => Op::Query {
                            template: num("template")? as u8,
                            value: num("value")? as u8,
                            sched: {
                                if v1 {
                                    num("workers")?;
                                }
                                num("sched")?
                            },
                        },
                        "flush" => Op::Flush,
                        "compact" => Op::Compact,
                        "reopen" => Op::Reopen,
                        "crash" => Op::Crash {
                            in_ops: num("in_ops")?,
                            tear_seed: num("tear_seed")?,
                        },
                        "check" => Op::Check,
                        "burst" => Op::Burst {
                            template: num("template")? as u8,
                            value: num("value")? as u8,
                            threads: num("threads")? as u8,
                        },
                        other => return Err(format!("unknown op {other:?}")),
                    };
                    ops.push(op);
                }
                other => return Err(format!("unknown trace key {other:?}")),
            }
        }
        Ok(Trace {
            seed: seed.ok_or("trace missing seed")?,
            page_size: page_size.ok_or("trace missing page_size")?,
            lambda: lambda.ok_or("trace missing lambda")?,
            mutation,
            ops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = SimConfig {
            seed: 42,
            ops: 100,
            ..Default::default()
        };
        assert_eq!(generate(&cfg), generate(&cfg));
        let other = SimConfig {
            seed: 43,
            ..cfg.clone()
        };
        assert_ne!(generate(&cfg).ops, generate(&other).ops);
    }

    #[test]
    fn text_round_trip() {
        let cfg = SimConfig {
            seed: 7,
            ops: 120,
            mutation: SimMutation::ScopeOffByOne,
            ..Default::default()
        };
        let trace = generate(&cfg);
        let text = trace.to_text();
        let back = Trace::from_text(&text).unwrap();
        assert_eq!(trace, back);
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn generator_emits_batch_inserts() {
        let cfg = SimConfig {
            seed: 11,
            ops: 300,
            ..Default::default()
        };
        let trace = generate(&cfg);
        assert!(
            trace
                .ops
                .iter()
                .any(|op| matches!(op, Op::BatchInsert { .. })),
            "300 generated ops should include at least one batch insert"
        );
        // Batch sizes stay in the generator's 2..=5 window.
        for op in &trace.ops {
            if let Op::BatchInsert { count, .. } = op {
                assert!((2..=5).contains(count), "batch count {count} out of range");
            }
        }
    }

    #[test]
    fn batch_insert_text_round_trips() {
        let text = "vist-sim trace v1\nseed 3\npage_size 256\nlambda 8\nmutation none\nop batch_insert 4242 3\nop flush\n";
        let trace = Trace::from_text(text).unwrap();
        assert_eq!(
            trace.ops,
            vec![
                Op::BatchInsert {
                    payload: 4242,
                    count: 3
                },
                Op::Flush
            ]
        );
        assert_eq!(Trace::from_text(&trace.to_text()).unwrap(), trace);
    }

    #[test]
    fn a_v1_query_reads_without_its_worker_count() {
        let text = "vist-sim trace v1\nseed 3\npage_size 256\nlambda 8\nmutation none\nop query 2 1 4 99\n";
        let trace = Trace::from_text(text).unwrap();
        let query = Op::Query {
            template: 2,
            value: 1,
            sched: 99,
        };
        assert_eq!(trace.ops, vec![query]);
        let text = trace.to_text();
        assert!(text.starts_with("vist-sim trace v2\n"), "{text}");
        assert!(text.ends_with("op query 2 1 99\n"), "{text}");
        assert_eq!(Trace::from_text(&text).unwrap(), trace);
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let text = "# a seed-corpus file\nvist-sim trace v1\nseed 1\npage_size 256\nlambda 8\nmutation none\n\n# ops\nop insert 5\nop flush\n";
        let trace = Trace::from_text(text).unwrap();
        assert_eq!(trace.ops, vec![Op::Insert { payload: 5 }, Op::Flush]);
    }

    #[test]
    fn docs_parse_and_queries_parse() {
        for payload in 0..50 {
            let xml = doc_xml(payload);
            vist_xml::parse(&xml).unwrap_or_else(|e| panic!("{xml}: {e}"));
        }
        for t in 0..TEMPLATES {
            for v in 0..4 {
                let q = query_expr(t, v);
                vist_query::parse_query(&q).unwrap_or_else(|e| panic!("{q}: {e}"));
            }
        }
    }
}
