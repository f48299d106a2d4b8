//! Minimal HTTP/1.1 shim over the same request path as the binary
//! protocol. Just enough for curl, readiness probes, and Prometheus
//! scrapes — one request per connection, `Connection: close`.
//!
//! Routes:
//! - `GET /query?q=EXPR[&deadline_ms=N][&limit=N][&verify=1][&no_plan=1]`
//!   → JSON `{"trace_id":"...","count":N,"doc_ids":[...]}`; overload
//!   maps to 429 with a `Retry-After` header, draining to 503, an
//!   expired deadline to 504, malformed queries to 400. Every `/query`
//!   response carries an `X-Vist-Trace-Id` header; a client may supply
//!   its own id in the same request header (32 hex digits) and it is
//!   used verbatim.
//! - `GET /debug/traces` → JSON summaries of retained traces (the
//!   head-sampled recent ring plus the always-kept slowest set);
//!   `GET /debug/traces?id=HEX` resolves one trace id to its full span
//!   tree, 404 if it aged out.
//! - `GET /metrics` → Prometheus exposition of the process registry.
//! - `GET /healthz` → `200 ok` while serving, `503 draining` during
//!   drain (readiness, not liveness).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::proto::{Request, Response};
use crate::server::{handle_request, Shared};

/// Cap on the request head (request line + headers). Anything longer
/// is answered 431 and dropped.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Serve one HTTP exchange on `stream` and close.
pub(crate) fn serve_http(mut stream: TcpStream, shared: &Shared, peer: &str) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let head = match read_head(&mut stream) {
        Ok(h) => h,
        Err(HeadError::TooLarge) => {
            let _ = write_response(
                &mut stream,
                431,
                "Request Header Fields Too Large",
                "application/json",
                b"{\"error\":\"request head too large\"}",
                &[],
            );
            return;
        }
        Err(HeadError::Io) => return,
    };
    let (method, target) = match parse_request_line(&head) {
        Some(mt) => mt,
        None => {
            let _ = write_response(
                &mut stream,
                400,
                "Bad Request",
                "application/json",
                b"{\"error\":\"malformed request line\"}",
                &[],
            );
            return;
        }
    };
    if method != "GET" {
        let _ = write_response(
            &mut stream,
            405,
            "Method Not Allowed",
            "application/json",
            b"{\"error\":\"only GET is supported\"}",
            &[("Allow", "GET".to_string())],
        );
        return;
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target.as_str(), ""),
    };
    match path {
        "/healthz" => {
            if shared.gate.is_draining() {
                let _ = write_response(
                    &mut stream,
                    503,
                    "Service Unavailable",
                    "text/plain",
                    b"draining\n",
                    &[],
                );
            } else {
                let _ = write_response(&mut stream, 200, "OK", "text/plain", b"ok\n", &[]);
            }
        }
        "/metrics" => {
            let body = vist_obs::render_prometheus(&vist_obs::snapshot());
            let _ = write_response(
                &mut stream,
                200,
                "OK",
                "text/plain; version=0.0.4",
                body.as_bytes(),
                &[],
            );
        }
        "/query" => serve_query(&mut stream, shared, query, &head, peer),
        "/debug/traces" => serve_traces(&mut stream, query),
        _ => {
            let _ = write_response(
                &mut stream,
                404,
                "Not Found",
                "application/json",
                b"{\"error\":\"no such route\"}",
                &[],
            );
        }
    }
}

/// Case-insensitive header lookup in the raw request head.
fn header_value<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.lines().skip(1).find_map(|line| {
        let (k, v) = line.split_once(':')?;
        if k.trim().eq_ignore_ascii_case(name) {
            Some(v.trim())
        } else {
            None
        }
    })
}

fn serve_query(stream: &mut TcpStream, shared: &Shared, query: &str, head: &str, peer: &str) {
    // A client-supplied trace id rides the X-Vist-Trace-Id header
    // (32 hex digits); anything unparsable is ignored and the server
    // mints one instead.
    let client_trace_id = header_value(head, "X-Vist-Trace-Id")
        .and_then(vist_obs::traceid::parse)
        .unwrap_or(0);
    let mut expr = None;
    let mut deadline_ms: u32 = 0;
    let mut limit: u32 = 0;
    let mut verify = false;
    let mut no_plan = false;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        let v = percent_decode(v);
        match k {
            "q" => expr = Some(v),
            "deadline_ms" => deadline_ms = v.parse().unwrap_or(0),
            "limit" => limit = v.parse().unwrap_or(0),
            "verify" => verify = v != "0" && !v.is_empty(),
            "no_plan" => no_plan = v != "0" && !v.is_empty(),
            _ => {}
        }
    }
    let Some(expr) = expr else {
        let trace_hex = vist_obs::traceid::format(if client_trace_id != 0 {
            client_trace_id
        } else {
            vist_obs::traceid::mint()
        });
        let _ = write_response(
            stream,
            400,
            "Bad Request",
            "application/json",
            b"{\"error\":\"missing q parameter\"}",
            &[("X-Vist-Trace-Id", trace_hex)],
        );
        return;
    };
    let (trace_id, resp) = handle_request(
        shared,
        Request::Query {
            trace_id: client_trace_id,
            deadline_ms,
            verify,
            no_plan,
            limit,
            expr,
        },
        peer,
        "http",
    );
    let trace_hex = vist_obs::traceid::format(trace_id);
    let trace_header = [("X-Vist-Trace-Id", trace_hex.clone())];
    let _ = match resp {
        Response::Ok(ids) => {
            let mut body = format!("{{\"trace_id\":\"{trace_hex}\",\"count\":{}", ids.len());
            body.push_str(",\"doc_ids\":[");
            for (i, id) in ids.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                body.push_str(&id.to_string());
            }
            body.push_str("]}");
            write_response(
                stream,
                200,
                "OK",
                "application/json",
                body.as_bytes(),
                &trace_header,
            )
        }
        Response::Overloaded { retry_after_ms } => {
            let body = format!(
                "{{\"trace_id\":\"{trace_hex}\",\"error\":\"overloaded\",\"retry_after_ms\":{retry_after_ms}}}"
            );
            let secs = retry_after_ms.div_ceil(1000).max(1);
            write_response(
                stream,
                429,
                "Too Many Requests",
                "application/json",
                body.as_bytes(),
                &[
                    ("Retry-After", secs.to_string()),
                    ("X-Vist-Trace-Id", trace_hex.clone()),
                ],
            )
        }
        Response::Draining => {
            let body = format!("{{\"trace_id\":\"{trace_hex}\",\"error\":\"draining\"}}");
            write_response(
                stream,
                503,
                "Service Unavailable",
                "application/json",
                body.as_bytes(),
                &trace_header,
            )
        }
        Response::DeadlineExceeded => {
            let body = format!("{{\"trace_id\":\"{trace_hex}\",\"error\":\"deadline exceeded\"}}");
            write_response(
                stream,
                504,
                "Gateway Timeout",
                "application/json",
                body.as_bytes(),
                &trace_header,
            )
        }
        Response::BadRequest(m) => {
            let body = format!(
                "{{\"trace_id\":\"{trace_hex}\",\"error\":{}}}",
                json_string(&m)
            );
            write_response(
                stream,
                400,
                "Bad Request",
                "application/json",
                body.as_bytes(),
                &trace_header,
            )
        }
        Response::Error(m) => {
            let body = format!(
                "{{\"trace_id\":\"{trace_hex}\",\"error\":{}}}",
                json_string(&m)
            );
            write_response(
                stream,
                500,
                "Internal Server Error",
                "application/json",
                body.as_bytes(),
                &trace_header,
            )
        }
        Response::Pong => write_response(stream, 200, "OK", "text/plain", b"pong\n", &trace_header),
    };
}

/// `/debug/traces`: list the kept request records, or resolve one id to
/// its record — the wide event and, if the request ran traced, its full
/// span tree.
fn serve_traces(stream: &mut TcpStream, query: &str) {
    let wanted = query
        .split('&')
        .filter_map(|p| p.split_once('='))
        .find(|(k, _)| *k == "id")
        .map(|(_, v)| percent_decode(v));
    match wanted {
        Some(hex) => {
            let Some(found) = vist_obs::traceid::parse(&hex).and_then(vist_obs::wide::get) else {
                let _ = write_response(
                    stream,
                    404,
                    "Not Found",
                    "application/json",
                    b"{\"error\":\"no such trace (malformed id, or aged out)\"}",
                    &[],
                );
                return;
            };
            let body = format!(
                "{{\"trace_id\":\"{}\",\"label\":{},\"total_nanos\":{},\"event\":{},\"root\":{}}}",
                vist_obs::traceid::format(found.trace_id),
                json_string(&found.label),
                found.total_nanos,
                found.line,
                found
                    .root
                    .as_ref()
                    .map_or_else(|| "null".to_string(), vist_obs::SpanNode::to_json)
            );
            let _ = write_response(stream, 200, "OK", "application/json", body.as_bytes(), &[]);
        }
        None => {
            let summarize = |traces: &[std::sync::Arc<vist_obs::wide::Record>]| {
                let mut out = String::from("[");
                for (i, t) in traces.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = std::fmt::Write::write_fmt(
                        &mut out,
                        format_args!(
                            "{{\"trace_id\":\"{}\",\"label\":{},\"total_nanos\":{}}}",
                            vist_obs::traceid::format(t.trace_id),
                            json_string(&t.label),
                            t.total_nanos
                        ),
                    );
                }
                out.push(']');
                out
            };
            let body = format!(
                "{{\"recent\":{},\"slowest\":{}}}",
                summarize(&vist_obs::wide::recent()),
                summarize(&vist_obs::wide::slowest())
            );
            let _ = write_response(stream, 200, "OK", "application/json", body.as_bytes(), &[]);
        }
    }
}

enum HeadError {
    TooLarge,
    Io,
}

/// Read up to the blank line ending the request head, capped at
/// [`MAX_HEAD_BYTES`]. The reads take what has arrived, not a byte at a
/// time; whatever follows the head (none of our routes take a body) is
/// dropped — we answer and close.
fn read_head(stream: &mut TcpStream) -> Result<String, HeadError> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) => return Err(HeadError::Io),
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(HeadError::Io),
        };
        // The blank line may straddle two reads.
        let from = buf.len().saturating_sub(3);
        buf.extend_from_slice(&chunk[..n]);
        let end = (from + 2..=buf.len())
            .find(|&i| buf[..i].ends_with(b"\r\n\r\n") || buf[..i].ends_with(b"\n\n"));
        match end {
            Some(end) if end <= MAX_HEAD_BYTES => {
                buf.truncate(end);
                return String::from_utf8(buf).map_err(|_| HeadError::Io);
            }
            None if buf.len() <= MAX_HEAD_BYTES => {}
            _ => return Err(HeadError::TooLarge),
        }
    }
}

fn parse_request_line(head: &str) -> Option<(String, String)> {
    let line = head.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_string();
    let target = parts.next()?.to_string();
    Some((method, target))
}

/// `%XX` and `+` decoding, tolerant of malformed escapes (kept as-is).
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = bytes.get(i + 1..i + 3);
                match hex.and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Minimal JSON string literal (quotes, backslashes, control chars).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

fn write_response(
    stream: &mut TcpStream,
    code: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    extra_headers: &[(&str, String)],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (k, v) in extra_headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    // One write: head and body leave in one segment.
    let mut response = head.into_bytes();
    response.extend_from_slice(body);
    stream.write_all(&response)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("%2Fbook%2Fauthor"), "/book/author");
        assert_eq!(percent_decode("a+b"), "a b");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode(""), "");
    }

    #[test]
    fn json_string_escaping() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn request_line_parsing() {
        let (m, t) = parse_request_line("GET /query?q=%2Fa HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(m, "GET");
        assert_eq!(t, "/query?q=%2Fa");
        assert!(parse_request_line("garbage").is_none());
    }
}
