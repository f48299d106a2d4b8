//! End-to-end tests: a real server on a loopback socket, exercised
//! over both transports, through overload, deadlines, and drain.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vist_core::{IndexOptions, VistIndex};
use vist_serve::proto::{push_frame, roundtrip, roundtrip_traced, write_frame, Request, Response};
use vist_serve::{ServeConfig, Server, ServerHandle};

/// A small index: `n` two-author books plus one decoy per book.
fn index(n: usize) -> Arc<VistIndex> {
    let idx = VistIndex::in_memory(IndexOptions::default()).unwrap();
    for i in 0..n {
        idx.insert_xml(&format!(
            "<book><title>t{i}</title><author>a{i}</author><author>shared</author></book>"
        ))
        .unwrap();
        idx.insert_xml(&format!("<journal><editor>e{i}</editor></journal>"))
            .unwrap();
    }
    Arc::new(idx)
}

fn start(idx: Arc<VistIndex>, tweak: impl FnOnce(&mut ServeConfig)) -> ServerHandle {
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    tweak(&mut cfg);
    Server::start(idx, cfg).unwrap()
}

fn connect(h: &ServerHandle) -> TcpStream {
    let s = TcpStream::connect(h.local_addr()).unwrap();
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s
}

fn query(expr: &str) -> Request {
    Request::Query {
        trace_id: 0,
        deadline_ms: 0,
        verify: false,
        no_plan: false,
        limit: 0,
        expr: expr.to_string(),
    }
}

#[test]
fn binary_protocol_end_to_end() {
    let h = start(index(8), |_| {});
    let mut s = connect(&h);

    assert_eq!(roundtrip(&mut s, &Request::Ping).unwrap(), Response::Pong);

    match roundtrip(&mut s, &query("/book/author")).unwrap() {
        Response::Ok(ids) => assert_eq!(ids.len(), 8, "one per book"),
        other => panic!("expected Ok, got {other:?}"),
    }

    // Several requests over one connection.
    match roundtrip(&mut s, &query("/journal/editor")).unwrap() {
        Response::Ok(ids) => assert_eq!(ids.len(), 8),
        other => panic!("expected Ok, got {other:?}"),
    }

    // An unparsable expression is the client's fault, not a 500.
    match roundtrip(&mut s, &query("((((")).unwrap() {
        Response::BadRequest(_) => {}
        other => panic!("expected BadRequest, got {other:?}"),
    }

    let stats = h.stats();
    assert!(stats.ok >= 2);
    assert!(stats.bad_requests >= 1);
    drop(s);
    h.request_shutdown();
    let report = h.join();
    assert!(report.drained_clean);
    assert!(report.flush_ok);
}

#[test]
fn malformed_frames_get_structured_answers_then_close() {
    let h = start(index(2), |_| {});

    // Garbage payload inside a well-formed frame: a structured
    // BadRequest, and the connection stays usable (framing is intact).
    let mut s = connect(&h);
    write_frame(&mut s, &[0xAB, 0xCD, 0xEF]).unwrap();
    let payload = vist_serve::proto::read_frame(&mut s).unwrap().unwrap();
    match Response::decode(&payload).unwrap() {
        Response::BadRequest(m) => assert!(m.contains("version"), "{m}"),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    assert_eq!(roundtrip(&mut s, &Request::Ping).unwrap(), Response::Pong);

    // Oversized length prefix (2 MiB > cap, leading byte still 0x00 so
    // it routes to the binary path): rejected before allocation, and
    // the connection is closed — the stream position is untrustworthy.
    let mut s = connect(&h);
    s.write_all(&(2u32 << 20).to_be_bytes()).unwrap();
    s.flush().unwrap();
    let payload = vist_serve::proto::read_frame(&mut s).unwrap().unwrap();
    match Response::decode(&payload).unwrap() {
        Response::BadRequest(m) => assert!(m.contains("exceeds cap"), "{m}"),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    let mut rest = Vec::new();
    assert_eq!(s.read_to_end(&mut rest).unwrap(), 0);

    // A frame cut short by the peer closing its side, behind a whole one:
    // the whole one is answered once, the cut one as truncated, then the
    // connection closes.
    let mut s = connect(&h);
    let mut frames = Vec::new();
    push_frame(&mut frames, &Request::Ping.encode());
    push_frame(&mut frames, &query("/book/author").encode());
    s.write_all(&frames[..frames.len() - 3]).unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let payload = vist_serve::proto::read_frame(&mut s).unwrap().unwrap();
    assert_eq!(Response::decode(&payload).unwrap(), Response::Pong);
    let payload = vist_serve::proto::read_frame(&mut s).unwrap().unwrap();
    match Response::decode(&payload).unwrap() {
        Response::BadRequest(m) => assert!(m.contains("truncated"), "{m}"),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    let mut rest = Vec::new();
    assert_eq!(s.read_to_end(&mut rest).unwrap(), 0);

    h.request_shutdown();
    assert!(h.join().drained_clean);
}

#[test]
fn pipelined_and_split_frames_are_answered_in_order() {
    let h = start(index(3), |_| {});
    let mut s = connect(&h);
    let read = |s: &mut TcpStream| {
        let payload = vist_serve::proto::read_frame(s).unwrap().unwrap();
        Response::decode(&payload).unwrap()
    };

    // Four frames in one write, a garbage payload among them: four
    // answers, in the order asked.
    let mut frames = Vec::new();
    for payload in [
        query("/book/author").encode(),
        Request::Ping.encode(),
        vec![0xAB, 0xCD],
        query("/journal/editor").encode(),
    ] {
        push_frame(&mut frames, &payload);
    }
    s.write_all(&frames).unwrap();
    assert_eq!(read(&mut s), Response::Ok(vec![0, 2, 4]));
    assert_eq!(read(&mut s), Response::Pong);
    assert!(matches!(read(&mut s), Response::BadRequest(_)));
    assert_eq!(read(&mut s), Response::Ok(vec![1, 3, 5]));

    // A frame split inside its header and inside its payload, each pause
    // longer than the server's read timeout.
    let mut frame = Vec::new();
    push_frame(&mut frame, &query("/book/author").encode());
    for part in [&frame[..2], &frame[2..9], &frame[9..]] {
        s.write_all(part).unwrap();
        std::thread::sleep(Duration::from_millis(120));
    }
    assert_eq!(read(&mut s), Response::Ok(vec![0, 2, 4]));
    assert_eq!(roundtrip(&mut s, &Request::Ping).unwrap(), Response::Pong);

    drop(s);
    h.request_shutdown();
    assert!(h.join().drained_clean);
}

fn http_get(h: &ServerHandle, target: &str) -> String {
    let mut s = connect(h);
    s.write_all(format!("GET {target} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
        .unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    out
}

#[test]
fn http_shim_routes() {
    let h = start(index(4), |_| {});

    let r = http_get(&h, "/query?q=%2Fbook%2Fauthor&limit=2");
    assert!(r.starts_with("HTTP/1.1 200"), "{r}");
    assert!(r.contains("\"count\":2"), "{r}");
    assert!(r.contains("\"doc_ids\":["), "{r}");

    let r = http_get(&h, "/healthz");
    assert!(r.starts_with("HTTP/1.1 200"), "{r}");
    assert!(r.contains("ok"), "{r}");

    let r = http_get(&h, "/metrics");
    assert!(r.starts_with("HTTP/1.1 200"), "{r}");
    assert!(r.contains("vist_serve_requests_total"), "{r}");

    let r = http_get(&h, "/query?deadline_ms=5");
    assert!(r.starts_with("HTTP/1.1 400"), "{r}");
    assert!(r.contains("missing q"), "{r}");

    let r = http_get(&h, "/query?q=%28%28");
    assert!(r.starts_with("HTTP/1.1 400"), "{r}");

    let r = http_get(&h, "/nope");
    assert!(r.starts_with("HTTP/1.1 404"), "{r}");

    let mut s = connect(&h);
    s.write_all(b"POST /query HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 405"), "{out}");

    h.request_shutdown();
    assert!(h.join().drained_clean);
}

/// A connection a request, as `curl` makes them: each is taken up as soon
/// as it arrives, not at the acceptor's next look at a nonblocking listener
/// (50 ms apart, which held 20 of these requests for a second).
#[test]
fn connect_per_request_http_is_answered_without_an_accept_poll() {
    let h = start(index(4), |_| {});
    let t = Instant::now();
    for _ in 0..20 {
        let r = http_get(&h, "/query?q=%2Fbook%2Fauthor");
        assert!(r.starts_with("HTTP/1.1 200"), "{r}");
    }
    let took = t.elapsed();
    assert!(
        took < Duration::from_millis(500),
        "20 requests took {took:?}"
    );
    h.request_shutdown();
    assert!(h.join().flush_ok);
}

/// A request head is read as it arrives: a blank line split across two
/// reads still ends it, and a head past the cap is refused.
#[test]
fn http_heads_are_read_whole_and_capped() {
    let h = start(index(1), |_| {});
    let mut s = connect(&h);
    s.write_all(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r")
        .unwrap();
    std::thread::sleep(Duration::from_millis(20));
    s.write_all(b"\n").unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 200"), "{out}");
    // One byte past the cap and no blank line: the server reads all of it
    // before it answers, so its close resets nothing unread.
    let mut long = b"GET /healthz HTTP/1.1\r\nX-Pad: ".to_vec();
    long.resize(vist_serve::http::MAX_HEAD_BYTES + 1, b'p');
    let mut s = connect(&h);
    s.write_all(&long).unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 431"), "{out}");
    h.request_shutdown();
    h.join();
}

/// The accept blocks, so shutdown has to wake it: a server that never saw a
/// connection still stops, and its threads with it.
#[test]
fn a_server_that_saw_no_connection_shuts_down_promptly() {
    let h = start(index(1), |_| {});
    let t = Instant::now();
    h.request_shutdown();
    let report = h.join();
    let took = t.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    assert!(report.drained_clean && report.flush_ok);
}

#[test]
fn zero_deadline_cap_expires_queries_cooperatively() {
    // max_deadline_ms = 0 makes every query's effective deadline
    // "already passed": the engine must cancel at its first check and
    // the index must stay fully usable afterwards.
    let h = start(index(8), |cfg| cfg.max_deadline_ms = 0);
    let mut s = connect(&h);
    for _ in 0..3 {
        assert_eq!(
            roundtrip(&mut s, &query("/book/author")).unwrap(),
            Response::DeadlineExceeded
        );
    }
    assert_eq!(h.stats().deadline_expired, 3);
    drop(s);
    h.request_shutdown();
    let report = h.join();
    assert!(report.drained_clean);
    assert!(report.flush_ok, "index flushes after expired queries");
}

#[test]
fn overload_sheds_with_structured_responses() {
    // One slot, no queue: any collision is shed immediately with a
    // retry hint. Hammer it from 8 closed-loop clients.
    let h = start(index(64), |cfg| {
        cfg.max_inflight = 1;
        cfg.queue_depth = 0;
    });
    let addr = h.local_addr();
    let until = Instant::now() + Duration::from_millis(300);
    let clients: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let mut s = TcpStream::connect(addr).unwrap();
                s.set_nodelay(true).unwrap();
                s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                let mut hints = Vec::new();
                while Instant::now() < until {
                    match roundtrip(&mut s, &query("/book/author")).unwrap() {
                        Response::Ok(_) => {}
                        Response::Overloaded { retry_after_ms } => hints.push(retry_after_ms),
                        other => panic!("unexpected response under load: {other:?}"),
                    }
                }
                hints
            })
        })
        .collect();
    let hints: Vec<u32> = clients
        .into_iter()
        .flat_map(|c| c.join().unwrap())
        .collect();
    let stats = h.stats();
    assert!(stats.ok > 0, "some queries are admitted: {stats:?}");
    assert!(stats.shed > 0, "collisions are shed: {stats:?}");
    assert_eq!(stats.shed, hints.len() as u64);
    // Retry hints are present and bounded.
    assert!(hints.iter().all(|&ms| (10..=5_000).contains(&ms)));
    h.request_shutdown();
    let report = h.join();
    assert!(report.drained_clean);
    assert_eq!(report.stats.shed, stats.shed);
}

#[test]
fn binary_responses_carry_trace_ids() {
    let h = start(index(2), |_| {});
    let mut s = connect(&h);

    // Server-minted: non-zero, unique per request.
    let (id1, resp) = roundtrip_traced(&mut s, &query("/book/author")).unwrap();
    assert!(matches!(resp, Response::Ok(_)));
    assert_ne!(id1, 0, "response carries no trace id");
    let (id2, _) = roundtrip_traced(&mut s, &query("/book/author")).unwrap();
    assert_ne!(id1, id2, "distinct requests share a trace id");

    // Client-supplied: echoed verbatim.
    let supplied = 0x00C0_FFEE_u128;
    let req = Request::Query {
        trace_id: supplied,
        deadline_ms: 0,
        verify: false,
        no_plan: false,
        limit: 0,
        expr: "/book/author".to_string(),
    };
    let (id, resp) = roundtrip_traced(&mut s, &req).unwrap();
    assert!(matches!(resp, Response::Ok(_)));
    assert_eq!(id, supplied);

    // Even a ping reply carries a (minted) id.
    let (id, resp) = roundtrip_traced(&mut s, &Request::Ping).unwrap();
    assert_eq!(resp, Response::Pong);
    assert_ne!(id, 0);

    drop(s);
    h.request_shutdown();
    assert!(h.join().drained_clean);
}

/// Pull one `Name: value` header out of a raw HTTP response.
fn header_of(resp: &str, name: &str) -> Option<String> {
    resp.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        if k.eq_ignore_ascii_case(name) {
            Some(v.trim().to_string())
        } else {
            None
        }
    })
}

fn http_get_with_header(h: &ServerHandle, target: &str, header: &str) -> String {
    let mut s = connect(h);
    s.write_all(format!("GET {target} HTTP/1.1\r\nHost: test\r\n{header}\r\n\r\n").as_bytes())
        .unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    out
}

#[test]
fn http_trace_ids_resolve_via_debug_traces() {
    let h = start(index(4), |_| {});

    // Server-minted id: header and JSON body agree, and the id resolves
    // to a kept record with a span tree. Other tests flood the record
    // ring concurrently (it is process-global and bounded), so retry with
    // a fresh query if the record aged out before we fetched it.
    let mut resolved = None;
    for _ in 0..10 {
        let r = http_get(&h, "/query?q=%2Fbook%2Fauthor");
        assert!(r.starts_with("HTTP/1.1 200"), "{r}");
        let hex = header_of(&r, "X-Vist-Trace-Id").expect("response lacks X-Vist-Trace-Id");
        assert_eq!(hex.len(), 32, "{hex}");
        assert!(r.contains(&format!("\"trace_id\":\"{hex}\"")), "{r}");
        let t = http_get(&h, &format!("/debug/traces?id={hex}"));
        if t.starts_with("HTTP/1.1 200") {
            resolved = Some((hex, t));
            break;
        }
    }
    let (hex, t) = resolved.expect("no query's trace id resolved via /debug/traces");
    assert!(t.contains(&format!("\"trace_id\":\"{hex}\"")), "{t}");
    assert!(t.contains("\"label\":\"/book/author\""), "{t}");
    assert!(t.contains("\"root\":{"), "{t}");
    assert!(t.contains("\"name\":\"query\""), "{t}");

    // Client-supplied header: echoed verbatim and listed.
    let supplied = "000102030405060708090a0b0c0d0e0f";
    let r = http_get_with_header(
        &h,
        "/query?q=%2Fbook%2Fauthor",
        &format!("x-vist-trace-id: {supplied}"),
    );
    assert!(r.starts_with("HTTP/1.1 200"), "{r}");
    assert_eq!(header_of(&r, "X-Vist-Trace-Id").as_deref(), Some(supplied));

    // Unknown (random) id: structured 404.
    let miss = http_get(&h, "/debug/traces?id=deadbeefdeadbeefdeadbeefdeadbeef");
    assert!(miss.starts_with("HTTP/1.1 404"), "{miss}");

    // The listing is well-formed and has both retention sets.
    let l = http_get(&h, "/debug/traces");
    assert!(l.starts_with("HTTP/1.1 200"), "{l}");
    assert!(l.contains("\"recent\":["), "{l}");
    assert!(l.contains("\"slowest\":["), "{l}");

    h.request_shutdown();
    assert!(h.join().drained_clean);
}

#[test]
fn one_request_one_record() {
    let dir = std::env::temp_dir().join(format!("vist_serve_log_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("access.log");
    let h = start(index(4), |cfg| {
        cfg.access_log = Some(log_path.to_str().unwrap().to_string());
    });

    // One record: exactly one kept entry carries the request's id, and
    // /debug/traces resolves the id to it. Other tests flood the
    // process-global ring concurrently (never with these ids), so retry
    // under a fresh id if the record aged out before we looked.
    let mut s = connect(&h);
    let mut seen = None;
    for attempt in 0..10 {
        let supplied = 0x0051_071D_u128 + attempt;
        let (id, resp) = roundtrip_traced(
            &mut s,
            &Request::Query {
                trace_id: supplied,
                deadline_ms: 0,
                verify: false,
                no_plan: false,
                limit: 0,
                expr: "/book/author".to_string(),
            },
        )
        .unwrap();
        assert!(matches!(resp, Response::Ok(_)));
        assert_eq!(id, supplied);
        let kept: Vec<_> = vist_obs::wide::recent()
            .into_iter()
            .filter(|r| r.trace_id == supplied)
            .collect();
        let hex = vist_obs::traceid::format(supplied);
        let t = http_get(&h, &format!("/debug/traces?id={hex}"));
        if !kept.is_empty() && t.starts_with("HTTP/1.1 200") {
            assert_eq!(kept.len(), 1, "{kept:?}");
            seen = Some((hex, kept[0].clone(), t));
            break;
        }
    }
    let (hex, record, t) = seen.expect("no request's record stayed in the ring");
    assert_eq!(record.label, "/book/author");

    // View one, the access log: that record's line, once.
    let mut logged = Vec::new();
    for _ in 0..50 {
        let text = std::fs::read_to_string(&log_path).unwrap_or_default();
        logged = text
            .lines()
            .filter(|l| l.contains(&hex))
            .map(str::to_string)
            .collect();
        if !logged.is_empty() {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(logged, std::slice::from_ref(&record.line));
    let line = &record.line;
    assert!(line.starts_with("{\"event\":\"request\""), "{line}");
    assert!(line.ends_with('}'), "{line}");
    assert!(line.contains("\"transport\":\"binary\""), "{line}");
    assert!(line.contains("\"expr\":\"/book/author\""), "{line}");
    assert!(line.contains("\"outcome\":\"ok\""), "{line}");
    assert!(line.contains("\"io\":{\"pool_hits\":"), "{line}");
    // The event carries the whole counter record: engine counters at the
    // top level, attributed I/O inside `io`.
    for (name, _) in vist_core::QueryStats::default().fields() {
        let key = format!("\"{}\":", name.strip_prefix("io_").unwrap_or(name));
        assert!(line.contains(&key), "{name} missing from {line}");
    }
    assert!(line.contains("\"stages\":{\"translate\":"), "{line}");
    // Its keys, in the order the access log has always had them.
    let mut at = 0;
    for key in [
        "event",
        "trace_id",
        "transport",
        "peer",
        "op",
        "expr",
        "outcome",
        "queue_wait_nanos",
        "total_nanos",
        "docs",
        "candidates",
        "stages",
        "dancestor_gets",
        "io",
    ] {
        let found = line[at..]
            .find(&format!("\"{key}\":"))
            .unwrap_or_else(|| panic!("{key} missing or out of order in {line}"));
        at += found;
    }

    // View two, /debug/traces: the same record, with its span tree.
    assert!(t.contains(&format!("\"event\":{line},\"root\":{{")), "{t}");
    assert!(t.contains(&format!("\"total_nanos\":{}", record.total_nanos)));

    drop(s);
    h.request_shutdown();
    assert!(h.join().drained_clean);
    vist_obs::wide::clear_file_sink();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The wide-event renderer as it was before it escaped into its buffer: a
/// `format!` a field over a `char`-by-`char` escape. The reference the
/// access-log line is held to byte for byte.
struct ReferenceEvent(String);

impl ReferenceEvent {
    fn escape(s: &str) -> String {
        let mut out = String::new();
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    fn new(kind: &str) -> Self {
        ReferenceEvent(format!("{{\"event\":\"{}\"", Self::escape(kind)))
    }

    fn str_field(mut self, key: &str, value: &str) -> Self {
        let (k, v) = (Self::escape(key), Self::escape(value));
        self.0.push_str(&format!(",\"{k}\":\"{v}\""));
        self
    }

    fn raw_field(mut self, key: &str, value: &str) -> Self {
        self.0
            .push_str(&format!(",\"{}\":{value}", Self::escape(key)));
        self
    }
}

#[test]
fn the_wide_event_line_is_byte_identical_to_the_reference_renderer() {
    let h = start(index(2), |_| {});
    let mut s = connect(&h);
    let expr = "/book/title[text='a\"b\\c\td']";
    // Retry under a fresh id if other tests' traffic pushed the record out
    // of the shared ring before it was looked up.
    let mut kept = None;
    for attempt in 0..10 {
        let supplied = 0x0601_DE40_u128 + attempt;
        let req = Request::Query {
            trace_id: supplied,
            deadline_ms: 0,
            verify: false,
            no_plan: false,
            limit: 0,
            expr: expr.to_string(),
        };
        assert_eq!(roundtrip(&mut s, &req).unwrap(), Response::Ok(vec![]));
        if let Some(record) = vist_obs::wide::get(supplied) {
            kept = Some((supplied, record.line.clone()));
            break;
        }
    }
    let (id, line) = kept.expect("no request's record stayed in the ring");
    // Timings and counts vary from run to run: take their text from the
    // line. Everything else is the request's, rendered by the reference.
    let value = |key: &str| -> &str {
        let at = line.find(&format!("\"{key}\":")).expect(key) + key.len() + 3;
        let rest = &line[at..];
        let len = if rest.starts_with('{') {
            rest.find('}').unwrap() + 1
        } else {
            rest.find(|c: char| !c.is_ascii_digit()).unwrap()
        };
        &rest[..len]
    };
    let mut want = ReferenceEvent::new("request")
        .str_field("trace_id", &vist_obs::traceid::format(id))
        .str_field("transport", "binary")
        .str_field("peer", &s.local_addr().unwrap().to_string())
        .str_field("op", "query")
        .str_field("expr", expr)
        .str_field("outcome", "ok");
    for key in [
        "queue_wait_nanos",
        "total_nanos",
        "docs",
        "candidates",
        "stages",
    ] {
        want = want.raw_field(key, value(key));
    }
    let mut io = Vec::new();
    for (name, _) in vist_core::QueryStats::default().fields() {
        match name.strip_prefix("io_") {
            Some(short) => io.push(format!("\"{short}\":{}", value(short))),
            None => want = want.raw_field(name, value(name)),
        }
    }
    let want = want.raw_field("io", &format!("{{{}}}", io.join(","))).0 + "}";
    assert!(
        line.contains(r#""expr":"/book/title[text='a\"b\\c\td']""#),
        "{line}"
    );
    assert_eq!(line, want);

    drop(s);
    h.request_shutdown();
    assert!(h.join().drained_clean);
}

#[test]
fn deadline_record_keeps_the_spans_it_got_through() {
    // A budget the query cannot meet: the cap of 0 puts the effective
    // deadline at arrival whatever the client asks (here 1 ms), so the
    // engine's first check cancels it — deterministically, which a small
    // test index answering in microseconds could not be made to do by a
    // real 1 ms budget.
    let h = start(index(8), |cfg| cfg.max_deadline_ms = 0);
    let mut s = connect(&h);
    // Retry under a fresh id if other tests' traffic pushed the record
    // out of the shared ring before it was fetched.
    let mut resolved = None;
    for attempt in 0..10 {
        let supplied = 0x0DEA_D11E_u128 + attempt;
        let (_, resp) = roundtrip_traced(
            &mut s,
            &Request::Query {
                trace_id: supplied,
                deadline_ms: 1,
                verify: false,
                no_plan: false,
                limit: 0,
                expr: "/book/author".to_string(),
            },
        )
        .unwrap();
        assert_eq!(resp, Response::DeadlineExceeded);
        let hex = vist_obs::traceid::format(supplied);
        let t = http_get(&h, &format!("/debug/traces?id={hex}"));
        if t.starts_with("HTTP/1.1 200") {
            resolved = Some(t);
            break;
        }
    }
    let t = resolved.expect("no cut-off query's record resolved via /debug/traces");
    assert!(t.contains("\"outcome\":\"deadline\""), "{t}");
    let root = &t[t.find("\"root\":{").expect("record has no span tree")..];
    assert!(root.contains("\"name\":\"query\""), "{root}");
    assert!(
        root.contains("\"name\":\"plan\"") || root.contains("\"name\":\"match\""),
        "{root}"
    );

    drop(s);
    h.request_shutdown();
    assert!(h.join().drained_clean);
}

#[test]
fn drain_refuses_new_work_and_flushes() {
    let h = start(index(4), |_| {});
    let mut s = connect(&h);
    assert!(matches!(
        roundtrip(&mut s, &query("/book/author")).unwrap(),
        Response::Ok(_)
    ));
    h.request_shutdown();
    // A request racing the drain gets a structured Draining response
    // or a clean close — never a hang or a protocol violation.
    match roundtrip(&mut s, &query("/book/author")) {
        Ok(Response::Draining) | Ok(Response::Ok(_)) | Err(_) => {}
        Ok(other) => panic!("unexpected response during drain: {other:?}"),
    }
    let report = h.join();
    assert!(report.drained_clean, "no in-flight work at deadline");
    assert_eq!(report.inflight_at_deadline, 0);
    assert!(report.flush_ok);
}
