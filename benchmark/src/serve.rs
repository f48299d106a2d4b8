//! `serve-topk`: `vist serve` started in-process, driven in a closed loop
//! over a persistent binary-protocol connection. 90% of the requests
//! are `limit = 10` path queries that stop early in the engine, so the
//! front-end's share of a round trip is as large as it gets.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use vist_core::{DocId, QueryOptions, VistIndex};
use vist_serve::{proto, Request, Response, ServeConfig, Server};

use crate::queries::{self, SCAN_PATHS};
use crate::setup::{Base, Scale, PAGE_SIZE};
use crate::trace::Recorder;
use crate::util::{dir_bytes, median, quantile, ratio, Budget, Rng};
use crate::Outcome;

/// Larger than the index: the workload measures the front-end, not misses.
pub const POOL_PAGES: usize = 16_384;
/// One connection: its client thread and the server's connection thread
/// keep two cores busy, which is all this host has. A second connection
/// oversubscribes them and doubles the run-to-run spread.
pub const CONNECTIONS: usize = 1;
pub const BUSY_THREADS: usize = 2 * CONNECTIONS;
const TOPK_LIMIT: u32 = 10;
/// Requests of one round (a block).
const BLOCK_REQUESTS: usize = 100;
/// Requests of the single-connection passes that split a round trip into
/// front-end and engine (traced run only).
const SOLO_REQUESTS: usize = 2_000;
/// Few, because each HTTP exchange is its own connection and waits for the
/// acceptor's 50 ms poll tick: that wait, not the query, is what it shows.
const HTTP_REQUESTS: usize = 40;

/// What the stream asks for: index into the expression table, and whether
/// the answer is cut at `TOPK_LIMIT`.
#[derive(Clone, Copy)]
struct Ask {
    expr: usize,
    topk: bool,
}

struct Table {
    exprs: Vec<String>,
    expected: Vec<Vec<DocId>>,
}

impl Table {
    /// 90% top-k scans, 10% the unlimited Q2 (the table's last entry).
    fn draw(&self, rng: &mut Rng) -> Ask {
        if rng.below(10) == 0 {
            Ask {
                expr: self.exprs.len() - 1,
                topk: false,
            }
        } else {
            Ask {
                expr: rng.below(self.exprs.len() - 1),
                topk: true,
            }
        }
    }

    fn request(&self, ask: Ask) -> Request {
        Request::Query {
            deadline_ms: 0,
            verify: false,
            no_plan: false,
            limit: if ask.topk { TOPK_LIMIT } else { 0 },
            trace_id: 0,
            expr: self.exprs[ask.expr].clone(),
        }
    }

    /// A top-k answer is any `limit`-subset of the oracle's answer; an
    /// unlimited one is the oracle's answer.
    fn is_correct(&self, ask: Ask, ids: &[DocId]) -> bool {
        let want = &self.expected[ask.expr];
        if !ask.topk {
            return ids == want.as_slice();
        }
        ids.len() == want.len().min(TOPK_LIMIT as usize)
            && ids.windows(2).all(|w| w[0] < w[1])
            && ids.iter().all(|id| want.binary_search(id).is_ok())
    }
}

#[derive(Default)]
struct ClientResult {
    topk_us: Vec<f64>,
    full_us: Vec<f64>,
    block_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Measured phase of this connection, seconds since the run's epoch.
    span: (f64, f64),
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect to vist serve");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream
}

#[allow(clippy::too_many_arguments)]
fn client(
    addr: SocketAddr,
    table: &Table,
    scale: &Scale,
    seed: u64,
    rec: &mut Recorder,
    budget: Budget,
    start_line: &Barrier,
    mut plant: bool,
) -> ClientResult {
    let mut out = ClientResult::default();
    let mut rng = Rng::new(seed);
    let mut stream = connect(addr);
    let mut exchange = |ask: Ask, rec: &mut Recorder, out: &mut ClientResult, measured: bool| {
        let request = table.request(ask);
        let open = rec.begin("request");
        let (response, _) = rec.span("roundtrip", || proto::roundtrip(&mut stream, &request));
        let took = rec.end(open).as_secs_f64() * 1e6;
        if measured {
            if ask.topk {
                out.topk_us.push(took);
            } else {
                out.full_us.push(took);
            }
        }
        out.attempted += 1;
        let ok = match response {
            Ok(Response::Ok(mut ids)) => {
                if plant {
                    ids.pop();
                    plant = false;
                }
                table.is_correct(ask, &ids)
            }
            // Sheds, expired deadlines and transport errors are failures.
            other => {
                eprintln!("request not served: {other:?}");
                false
            }
        };
        if !ok {
            out.failed += 1;
            eprintln!("WRONG OR MISSING ANSWER for {}", table.exprs[ask.expr]);
        }
    };
    let was_on = rec.is_on();
    rec.set_on(false);
    for _ in 0..scale.warm_requests {
        let ask = table.draw(&mut rng);
        exchange(ask, rec, &mut out, false);
    }
    rec.set_on(was_on);
    start_line.wait();
    let started = Instant::now();
    out.span.0 = (started - rec.epoch()).as_secs_f64();
    let mut blocks = 0;
    while budget.allows(started, blocks) {
        let open = rec.begin("block");
        for _ in 0..BLOCK_REQUESTS {
            let ask = table.draw(&mut rng);
            exchange(ask, rec, &mut out, true);
        }
        out.block_ms.push(rec.end(open).as_secs_f64() * 1e3);
        blocks += 1;
    }
    out.span.1 = (Instant::now() - rec.epoch()).as_secs_f64();
    out
}

fn percent_encode(s: &str) -> String {
    s.bytes()
        .map(|b| {
            if b.is_ascii_alphanumeric() {
                (b as char).to_string()
            } else {
                format!("%{b:02X}")
            }
        })
        .collect()
}

/// One connection, no concurrency: the same request stream served, then
/// run through `VistIndex::query` in-process, then through the HTTP shim,
/// and pings. The difference of the first two medians is what the
/// front-end adds to a request.
fn solo_passes(
    addr: SocketAddr,
    index: &VistIndex,
    table: &Table,
    scale: &Scale,
    seed: u64,
    out: &mut Outcome,
) {
    let (requests, http_requests) = if scale.smoke {
        (SOLO_REQUESTS / 10, HTTP_REQUESTS / 4)
    } else {
        (SOLO_REQUESTS, HTTP_REQUESTS)
    };
    let mut rng = Rng::new(seed);
    let asks: Vec<Ask> = (0..requests).map(|_| table.draw(&mut rng)).collect();
    let mut stream = connect(addr);
    let mut failures = 0u64;
    let mut served = Vec::with_capacity(asks.len());
    for &ask in &asks {
        let request = table.request(ask);
        let t = Instant::now();
        let response = proto::roundtrip(&mut stream, &request);
        served.push(t.elapsed().as_secs_f64() * 1e6);
        if !matches!(response, Ok(Response::Ok(ids)) if table.is_correct(ask, &ids)) {
            failures += 1;
        }
    }
    let mut direct = Vec::with_capacity(asks.len());
    for &ask in &asks {
        let opts = QueryOptions {
            limit: ask.topk.then_some(TOPK_LIMIT as usize),
            ..QueryOptions::default()
        };
        let t = Instant::now();
        let result = index.query(&table.exprs[ask.expr], &opts);
        direct.push(t.elapsed().as_secs_f64() * 1e6);
        if !result.is_ok_and(|r| table.is_correct(ask, &r.doc_ids)) {
            failures += 1;
        }
    }
    let mut pings = Vec::with_capacity(requests);
    for _ in 0..requests {
        let t = Instant::now();
        let response = proto::roundtrip(&mut stream, &Request::Ping);
        pings.push(t.elapsed().as_secs_f64() * 1e6);
        if !matches!(response, Ok(Response::Pong)) {
            failures += 1;
        }
    }
    let mut http = Vec::with_capacity(http_requests);
    for &ask in &asks[..http_requests] {
        let limit = if ask.topk { TOPK_LIMIT } else { 0 };
        let target = format!(
            "GET /query?q={}&limit={limit} HTTP/1.1\r\nHost: bench\r\n\r\n",
            percent_encode(&table.exprs[ask.expr])
        );
        let want = table.expected[ask.expr].len();
        let want = if ask.topk {
            want.min(TOPK_LIMIT as usize)
        } else {
            want
        };
        let t = Instant::now();
        let mut conn = connect(addr);
        let mut body = String::new();
        let sent =
            conn.write_all(target.as_bytes()).is_ok() && conn.read_to_string(&mut body).is_ok();
        http.push(t.elapsed().as_secs_f64() * 1e6);
        if !(sent
            && body.starts_with("HTTP/1.1 200")
            && body.contains(&format!("\"count\":{want}")))
        {
            failures += 1;
        }
    }
    out.attempted += (asks.len() * 2 + pings.len() + http.len()) as u64;
    out.failed += failures;
    let l = &mut out.layer;
    l.set("serve.ping_p50_us", median(&pings), pings.len());
    l.set(
        "serve.overhead_p50_us",
        median(&served) - median(&direct),
        asks.len(),
    );
    l.set("serve.http_p50_us", median(&http), http.len());
}

pub fn run(
    base: &mut Base,
    scale: &Scale,
    seed: u64,
    rec: &mut Recorder,
    budget: Budget,
    plant: bool,
) -> Outcome {
    let mut out = Outcome::new(POOL_PAGES, CONNECTIONS);
    let table3 = queries::table3();
    let table3_expected = queries::oracle_answers(&mut base.oracle, &table3);
    let scans = queries::scans();
    let mut table = Table {
        exprs: SCAN_PATHS.iter().map(|p| (*p).to_string()).collect(),
        expected: queries::oracle_answers(&mut base.oracle, &scans),
    };
    table.exprs.push(table3[1].expr.clone());
    table.expected.push(table3_expected[1].clone());

    let index =
        Arc::new(VistIndex::open_file(base.index_path(), POOL_PAGES).expect("open base index"));
    let stats = index.stats();
    out.index_pages = (stats.segment_bytes + stats.store_bytes) / PAGE_SIZE as u64;
    out.index_bytes = dir_bytes(base.dir.path());
    out.live_xml_bytes = base.xml_bytes;
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    let server = Server::start(Arc::clone(&index), config).expect("start vist serve");
    let addr = server.local_addr();

    let start_line = Barrier::new(CONNECTIONS);
    let (table_ref, start_ref) = (&table, &start_line);
    let (on, epoch) = (rec.is_on(), rec.epoch());
    let mut clients: Vec<(ClientResult, Recorder)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                s.spawn(move || {
                    let mut rec = Recorder::new(on, epoch, c as u32 + 1);
                    let stream_seed = seed ^ (0x5E4E_0000 + c as u64);
                    let result = client(
                        addr,
                        table_ref,
                        scale,
                        stream_seed,
                        &mut rec,
                        budget,
                        start_ref,
                        plant && c == 0,
                    );
                    (result, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    if on {
        solo_passes(addr, &index, &table, scale, seed ^ 0x5010, &mut out);
    }
    let served = server.stats();
    server.request_shutdown();
    let drain = server.join();
    out.attempted += 1;
    if !drain.drained_clean {
        out.failed += 1;
        eprintln!("vist serve did not drain cleanly");
    }
    // Counted already as failed requests; reported as their own rows too.
    out.layer.set("serve.shed", served.shed as f64, 1);
    out.layer
        .set("serve.deadline_expired", served.deadline_expired as f64, 1);

    let mut all_us = Vec::new();
    let mut topk_us = Vec::new();
    let mut full_us = Vec::new();
    let (mut first, mut last) = (f64::MAX, 0.0f64);
    for (c, _) in &clients {
        out.attempted += c.attempted;
        out.failed += c.failed;
        out.round_ms.extend(&c.block_ms);
        topk_us.extend(&c.topk_us);
        full_us.extend(&c.full_us);
        first = first.min(c.span.0);
        last = last.max(c.span.1);
    }
    all_us.extend(&topk_us);
    all_us.extend(&full_us);
    // Failed requests are not completed work: they lower the rate.
    let served_ok = (all_us.len() as u64).saturating_sub(out.failed);
    let l = &mut out.layer;
    l.set(
        "serve.rps",
        ratio(served_ok as f64, last - first),
        all_us.len(),
    );
    l.set("serve.p50_us", median(&all_us), all_us.len());
    l.set("serve.p99_us", quantile(&all_us, 0.99), all_us.len());
    l.set("serve.topk_p50_us", median(&topk_us), topk_us.len());
    l.set("serve.full_p50_us", median(&full_us), full_us.len());
    l.set(
        "search.round_p90_ms",
        quantile(&out.round_ms, 0.9),
        out.round_ms.len(),
    );
    if on {
        queries::table3_probe(&index, &table3_expected, rec, scale, &mut out);
    }
    out.thread_recorders = clients.drain(..).map(|(_, r)| r).collect();
    out
}
