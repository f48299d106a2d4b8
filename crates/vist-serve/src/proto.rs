//! The wire protocol: length-prefixed frames with a fixed-layout header.
//!
//! Every message — request or response — travels as one *frame*:
//!
//! ```text
//! [ u32 BE payload length | payload bytes ]
//! ```
//!
//! The length covers the payload only (not itself) and is capped by
//! [`MAX_FRAME_BYTES`]; a peer announcing a larger frame is rejected
//! *before* any allocation, so a hostile length prefix cannot make the
//! server reserve gigabytes. All multi-byte integers are big-endian.
//!
//! Request payload layout (opcode [`OP_QUERY`], version 2):
//!
//! ```text
//! u8   version       = PROTO_VERSION
//! u8   opcode        = OP_QUERY | OP_PING
//! u32  deadline_ms   0 = no client deadline (server cap still applies)
//! u8   flags         bit 0 = verify, bit 1 = no_plan
//! u32  limit         0 = unlimited
//! u128 trace_id      0 = server mints one
//! u32  expr_len
//! [expr_len bytes]   UTF-8 query expression
//! ```
//!
//! Response payload layout (version 2):
//!
//! ```text
//! u8   version
//! u8   status        see Status
//! u128 trace_id      the id the request ran under (echoed or minted);
//!                    0 only for responses encoded without one
//! Ok          -> u32 count, count × u64 doc ids
//! Overloaded  -> u32 retry_after_ms
//! Error/BadRequest -> u32 len, len bytes UTF-8 message
//! DeadlineExceeded / Draining / Pong -> (empty tail)
//! ```
//!
//! Version 2 added the `trace_id` fields; version-1 peers are rejected
//! with [`ProtoError::BadVersion`].
//!
//! Decoding is total: any malformed input yields a structured
//! [`ProtoError`], never a panic, and allocation is bounded by the
//! announced (already-capped) frame length.

use std::fmt;
use std::io::{self, Read, Write};

/// Protocol version carried in every frame header. Version 2 added
/// request-scoped trace ids to both directions.
pub const PROTO_VERSION: u8 = 2;

/// Hard cap on a single frame's payload, enforced before allocating.
/// Generous for query expressions and result sets alike (a maximal Ok
/// response carries ~128k doc ids); anything larger is a protocol error.
pub const MAX_FRAME_BYTES: u32 = 1 << 20;

/// Request opcode: run a structural query.
pub const OP_QUERY: u8 = 1;
/// Request opcode: liveness probe, answered with `Status::Pong`.
pub const OP_PING: u8 = 2;

/// Response status byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Query ran to completion; doc ids follow.
    Ok = 0,
    /// Server-side failure (storage, corrupt index); message follows.
    Error = 1,
    /// Shed by admission control; retry-after hint follows.
    Overloaded = 2,
    /// The effective deadline passed before the match finished.
    DeadlineExceeded = 3,
    /// Server is draining for shutdown and admits no new work.
    Draining = 4,
    /// The request itself was malformed or unparsable; message follows.
    BadRequest = 5,
    /// Reply to `OP_PING`.
    Pong = 6,
}

impl Status {
    fn from_u8(b: u8) -> Option<Status> {
        Some(match b {
            0 => Status::Ok,
            1 => Status::Error,
            2 => Status::Overloaded,
            3 => Status::DeadlineExceeded,
            4 => Status::Draining,
            5 => Status::BadRequest,
            6 => Status::Pong,
            _ => return None,
        })
    }
}

/// Structured decode/transport failure. Every malformed input maps
/// here — the decoder has no panicking paths.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying transport failed.
    Io(io::Error),
    /// The stream ended inside a frame (header or payload).
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    Oversized(u32),
    /// The version byte is not [`PROTO_VERSION`].
    BadVersion(u8),
    /// Unknown opcode or status byte.
    BadOpcode(u8),
    /// A declared field length overruns the payload.
    BadLength,
    /// The query expression is not valid UTF-8.
    BadUtf8,
    /// Bytes remain after the last decoded field.
    TrailingBytes(usize),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o: {e}"),
            ProtoError::Truncated => write!(f, "truncated frame"),
            ProtoError::Oversized(n) => {
                write!(f, "frame of {n} bytes exceeds cap of {MAX_FRAME_BYTES}")
            }
            ProtoError::BadVersion(v) => {
                write!(f, "protocol version {v} (expected {PROTO_VERSION})")
            }
            ProtoError::BadOpcode(b) => write!(f, "unknown opcode/status {b}"),
            ProtoError::BadLength => write!(f, "field length overruns frame"),
            ProtoError::BadUtf8 => write!(f, "expression is not valid UTF-8"),
            ProtoError::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after message"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ProtoError::Truncated
        } else {
            ProtoError::Io(e)
        }
    }
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run `expr` with the given per-query knobs.
    Query {
        /// Client budget in milliseconds; 0 means "no client deadline".
        deadline_ms: u32,
        /// Re-verify candidate documents against the stored XML.
        verify: bool,
        /// Disable the cost-based planner for this query.
        no_plan: bool,
        /// Cap on returned doc ids; 0 means unlimited.
        limit: u32,
        /// Client-supplied 128-bit trace id; 0 asks the server to mint
        /// one. Either way the effective id comes back in the response.
        trace_id: u128,
        /// The query expression (vist-query syntax).
        expr: String,
    },
    /// Liveness probe.
    Ping,
}

/// A decoded server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Matching document ids.
    Ok(Vec<u64>),
    /// Server-side failure.
    Error(String),
    /// Shed; retry after the given hint.
    Overloaded { retry_after_ms: u32 },
    /// Deadline passed mid-match.
    DeadlineExceeded,
    /// Server is draining.
    Draining,
    /// Malformed request.
    BadRequest(String),
    /// Reply to ping.
    Pong,
}

impl Response {
    /// The status byte this response serializes with.
    pub fn status(&self) -> Status {
        match self {
            Response::Ok(_) => Status::Ok,
            Response::Error(_) => Status::Error,
            Response::Overloaded { .. } => Status::Overloaded,
            Response::DeadlineExceeded => Status::DeadlineExceeded,
            Response::Draining => Status::Draining,
            Response::BadRequest(_) => Status::BadRequest,
            Response::Pong => Status::Pong,
        }
    }
}

// ---------------------------------------------------------------- framing

/// Append one frame, `u32 BE length` + payload, to `out`.
pub fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    debug_assert!(payload.len() as u64 <= MAX_FRAME_BYTES as u64);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
}

/// Write one frame: `u32 BE length` + payload. Emitted as a single
/// write so small frames never straddle a Nagle/delayed-ACK stall.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(4 + payload.len());
    push_frame(&mut buf, payload);
    w.write_all(&buf)?;
    w.flush()
}

/// The length a frame header announces, checked against
/// [`MAX_FRAME_BYTES`].
fn frame_len(header: [u8; 4]) -> Result<usize, ProtoError> {
    let len = u32::from_be_bytes(header);
    if len > MAX_FRAME_BYTES {
        return Err(ProtoError::Oversized(len));
    }
    Ok(len as usize)
}

/// The first frame of `buf`, if `buf` holds all of it: its payload and the
/// bytes it takes, header included. `Ok(None)` while the frame is still
/// arriving; an oversized length prefix is an error as soon as its four
/// bytes are in.
pub fn split_frame(buf: &[u8]) -> Result<Option<(&[u8], usize)>, ProtoError> {
    let Some(header) = buf.get(..4) else {
        return Ok(None);
    };
    let end = 4 + frame_len(header.try_into().expect("4-byte slice"))?;
    Ok(buf.get(4..end).map(|payload| (payload, end)))
}

/// Read one frame. Returns `Ok(None)` on a clean EOF at a frame
/// boundary (peer closed between requests). The length prefix is
/// validated against [`MAX_FRAME_BYTES`] *before* the payload buffer is
/// allocated, so a hostile prefix cannot trigger unbounded allocation.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut header = [0u8; 4];
    let mut got = 0;
    // The header in one read when it has arrived whole; EOF before its
    // first byte is a clean end, after it a truncated frame.
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(ProtoError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let mut payload = vec![0u8; frame_len(header)?];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------- cursor

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }
    fn u8(&mut self) -> Result<u8, ProtoError> {
        let b = *self.buf.get(self.pos).ok_or(ProtoError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }
    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_be_bytes(
            self.take(4)?.try_into().expect("4-byte slice"),
        ))
    }
    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_be_bytes(
            self.take(8)?.try_into().expect("8-byte slice"),
        ))
    }
    fn u128(&mut self) -> Result<u128, ProtoError> {
        Ok(u128::from_be_bytes(
            self.take(16)?.try_into().expect("16-byte slice"),
        ))
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).ok_or(ProtoError::BadLength)?;
        if end > self.buf.len() {
            return Err(ProtoError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn finish(self) -> Result<(), ProtoError> {
        let left = self.buf.len() - self.pos;
        if left != 0 {
            return Err(ProtoError::TrailingBytes(left));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------- request

impl Request {
    /// Serialize to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(PROTO_VERSION);
        match self {
            Request::Ping => out.push(OP_PING),
            Request::Query {
                deadline_ms,
                verify,
                no_plan,
                limit,
                trace_id,
                expr,
            } => {
                out.push(OP_QUERY);
                out.extend_from_slice(&deadline_ms.to_be_bytes());
                let mut flags = 0u8;
                if *verify {
                    flags |= 1;
                }
                if *no_plan {
                    flags |= 2;
                }
                out.push(flags);
                out.extend_from_slice(&limit.to_be_bytes());
                out.extend_from_slice(&trace_id.to_be_bytes());
                out.extend_from_slice(&(expr.len() as u32).to_be_bytes());
                out.extend_from_slice(expr.as_bytes());
            }
        }
        out
    }

    /// Decode a frame payload. Total: every malformed input maps to a
    /// [`ProtoError`].
    pub fn decode(payload: &[u8]) -> Result<Request, ProtoError> {
        let mut c = Cursor::new(payload);
        let version = c.u8()?;
        if version != PROTO_VERSION {
            return Err(ProtoError::BadVersion(version));
        }
        let opcode = c.u8()?;
        let req = match opcode {
            OP_PING => Request::Ping,
            OP_QUERY => {
                let deadline_ms = c.u32()?;
                let flags = c.u8()?;
                let limit = c.u32()?;
                let trace_id = c.u128()?;
                let expr_len = c.u32()? as usize;
                let expr = std::str::from_utf8(c.take(expr_len)?)
                    .map_err(|_| ProtoError::BadUtf8)?
                    .to_string();
                Request::Query {
                    deadline_ms,
                    verify: flags & 1 != 0,
                    no_plan: flags & 2 != 0,
                    limit,
                    trace_id,
                    expr,
                }
            }
            other => return Err(ProtoError::BadOpcode(other)),
        };
        c.finish()?;
        Ok(req)
    }
}

// ---------------------------------------------------------------- response

impl Response {
    /// Serialize to a frame payload with a zero trace id. Prefer
    /// [`Response::encode_with_trace`] on the server, where every
    /// response carries the id its request ran under.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with_trace(0)
    }

    /// Serialize to a frame payload carrying `trace_id` (every status
    /// echoes one — a shed or malformed request is still traceable).
    pub fn encode_with_trace(&self, trace_id: u128) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(PROTO_VERSION);
        out.push(self.status() as u8);
        out.extend_from_slice(&trace_id.to_be_bytes());
        match self {
            Response::Ok(ids) => {
                out.extend_from_slice(&(ids.len() as u32).to_be_bytes());
                for id in ids {
                    out.extend_from_slice(&id.to_be_bytes());
                }
            }
            Response::Error(m) | Response::BadRequest(m) => {
                out.extend_from_slice(&(m.len() as u32).to_be_bytes());
                out.extend_from_slice(m.as_bytes());
            }
            Response::Overloaded { retry_after_ms } => {
                out.extend_from_slice(&retry_after_ms.to_be_bytes());
            }
            Response::DeadlineExceeded | Response::Draining | Response::Pong => {}
        }
        out
    }

    /// Decode a frame payload, discarding the trace id.
    pub fn decode(payload: &[u8]) -> Result<Response, ProtoError> {
        Self::decode_with_trace(payload).map(|(_, resp)| resp)
    }

    /// Decode a frame payload along with the trace id it carries.
    pub fn decode_with_trace(payload: &[u8]) -> Result<(u128, Response), ProtoError> {
        let mut c = Cursor::new(payload);
        let version = c.u8()?;
        if version != PROTO_VERSION {
            return Err(ProtoError::BadVersion(version));
        }
        let status = Status::from_u8(c.u8()?).ok_or_else(|| {
            // Re-read the byte we just consumed for the error message.
            ProtoError::BadOpcode(payload[1])
        })?;
        let trace_id = c.u128()?;
        let resp = match status {
            Status::Ok => {
                let n = c.u32()? as usize;
                // n is bounded by the frame cap: each id is 8 bytes, so
                // an overdeclared count trips Truncated in c.u64().
                let mut ids = Vec::with_capacity(n.min(MAX_FRAME_BYTES as usize / 8));
                for _ in 0..n {
                    ids.push(c.u64()?);
                }
                Response::Ok(ids)
            }
            Status::Error | Status::BadRequest => {
                let len = c.u32()? as usize;
                let msg = std::str::from_utf8(c.take(len)?)
                    .map_err(|_| ProtoError::BadUtf8)?
                    .to_string();
                if status == Status::Error {
                    Response::Error(msg)
                } else {
                    Response::BadRequest(msg)
                }
            }
            Status::Overloaded => Response::Overloaded {
                retry_after_ms: c.u32()?,
            },
            Status::DeadlineExceeded => Response::DeadlineExceeded,
            Status::Draining => Response::Draining,
            Status::Pong => Response::Pong,
        };
        c.finish()?;
        Ok((trace_id, resp))
    }
}

// ---------------------------------------------------------------- client

/// Minimal blocking client for the binary protocol: one request, one
/// response, over any `Read + Write` transport. Used by the e2e tests
/// and `benchmark/`'s `serve-topk` workload, and available to embedders.
pub fn roundtrip<T: Read + Write>(
    transport: &mut T,
    req: &Request,
) -> Result<Response, ProtoError> {
    roundtrip_traced(transport, req).map(|(_, resp)| resp)
}

/// [`roundtrip`], also returning the trace id the response carried —
/// the handle for `vist traces <id>` / `/debug/traces?id=<id>`.
pub fn roundtrip_traced<T: Read + Write>(
    transport: &mut T,
    req: &Request,
) -> Result<(u128, Response), ProtoError> {
    write_frame(transport, &req.encode())?;
    let payload = read_frame(transport)?.ok_or(ProtoError::Truncated)?;
    Response::decode_with_trace(&payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query(expr: &str) -> Request {
        Request::Query {
            deadline_ms: 250,
            verify: true,
            no_plan: false,
            limit: 10,
            trace_id: 0xfeed_beef_cafe,
            expr: expr.to_string(),
        }
    }

    #[test]
    fn request_roundtrip() {
        for req in [query("/book/author"), query(""), Request::Ping] {
            let decoded = Request::decode(&req.encode()).unwrap();
            assert_eq!(decoded, req);
        }
    }

    #[test]
    fn every_status_carries_the_trace_id() {
        let id = u128::MAX - 7;
        let cases = [
            Response::Ok(vec![1, 2]),
            Response::Error("boom".into()),
            Response::Overloaded { retry_after_ms: 9 },
            Response::DeadlineExceeded,
            Response::Draining,
            Response::BadRequest("nope".into()),
            Response::Pong,
        ];
        for resp in cases {
            let (got_id, got) = Response::decode_with_trace(&resp.encode_with_trace(id)).unwrap();
            assert_eq!(got_id, id);
            assert_eq!(got, resp);
            // The id-less helpers interoperate: encode() writes id 0.
            let (zero, _) = Response::decode_with_trace(&resp.encode()).unwrap();
            assert_eq!(zero, 0);
        }
    }

    #[test]
    fn response_roundtrip() {
        let cases = [
            Response::Ok(vec![1, 2, u64::MAX]),
            Response::Ok(vec![]),
            Response::Error("boom".into()),
            Response::BadRequest("nope".into()),
            Response::Overloaded { retry_after_ms: 40 },
            Response::DeadlineExceeded,
            Response::Draining,
            Response::Pong,
        ];
        for resp in cases {
            let decoded = Response::decode(&resp.encode()).unwrap();
            assert_eq!(decoded, resp);
        }
    }

    #[test]
    fn frame_roundtrip_and_clean_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    // Satellite: malformed-input hardening. Truncated, oversized, and
    // garbage frames must all yield structured errors — no panics, no
    // allocation driven by an unvalidated length.
    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        // Announces a 2 GiB payload; read_frame must refuse without
        // trying to reserve it.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(2u32 << 30).to_be_bytes());
        buf.extend_from_slice(b"tiny");
        match read_frame(&mut &buf[..]) {
            Err(ProtoError::Oversized(n)) => assert_eq!(n, 2 << 30),
            other => panic!("expected Oversized, got {other:?}"),
        }
        // Exactly at the cap is fine (payload itself truncated here).
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAX_FRAME_BYTES.to_be_bytes());
        assert!(matches!(
            read_frame(&mut &buf[..]),
            Err(ProtoError::Truncated)
        ));
    }

    #[test]
    fn truncated_frames_are_structured_errors() {
        // Cut a valid frame at every possible byte boundary.
        let mut full = Vec::new();
        write_frame(&mut full, &query("/a/b").encode()).unwrap();
        for cut in 1..full.len() {
            let r = read_frame(&mut &full[..cut]);
            assert!(
                matches!(r, Err(ProtoError::Truncated)),
                "cut at {cut}: {r:?}"
            );
        }
    }

    #[test]
    fn garbage_payloads_never_panic() {
        // Deterministic pseudo-random garbage: every outcome must be a
        // structured ProtoError or a (harmless) decoded message.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in 0..64usize {
            for _ in 0..32 {
                let payload: Vec<u8> = (0..len).map(|_| next() as u8).collect();
                let _ = Request::decode(&payload);
                let _ = Response::decode(&payload);
            }
        }
    }

    #[test]
    fn structured_decode_errors() {
        // Wrong version.
        let mut p = query("/a").encode();
        p[0] = 9;
        assert!(matches!(
            Request::decode(&p),
            Err(ProtoError::BadVersion(9))
        ));
        // Unknown opcode.
        let p = vec![PROTO_VERSION, 0xEE];
        assert!(matches!(
            Request::decode(&p),
            Err(ProtoError::BadOpcode(0xEE))
        ));
        // Declared expr length overruns payload.
        let mut p = query("/a/b/c").encode();
        let n = p.len();
        p.truncate(n - 3);
        assert!(matches!(Request::decode(&p), Err(ProtoError::Truncated)));
        // Non-UTF-8 expression.
        let mut p = query("abcd").encode();
        let n = p.len();
        p[n - 2] = 0xFF;
        p[n - 1] = 0xFE;
        assert!(matches!(Request::decode(&p), Err(ProtoError::BadUtf8)));
        // Trailing bytes.
        let mut p = query("/a").encode();
        p.push(0);
        assert!(matches!(
            Request::decode(&p),
            Err(ProtoError::TrailingBytes(1))
        ));
        // Empty payload.
        assert!(matches!(Request::decode(&[]), Err(ProtoError::Truncated)));
    }

    #[test]
    fn overdeclared_ok_count_is_truncated_not_oom() {
        // Status::Ok claiming u32::MAX ids in a short payload must fail
        // with Truncated, with allocation capped by the frame limit.
        let mut p = vec![PROTO_VERSION, Status::Ok as u8];
        p.extend_from_slice(&7u128.to_be_bytes());
        p.extend_from_slice(&u32::MAX.to_be_bytes());
        p.extend_from_slice(&[0u8; 16]);
        assert!(matches!(Response::decode(&p), Err(ProtoError::Truncated)));
    }
}
