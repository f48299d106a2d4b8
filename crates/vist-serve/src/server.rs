//! The serve loop: accept, sniff, admit, execute, drain.
//!
//! One acceptor thread blocks in `accept`; each accepted connection gets
//! its own thread. A watcher beside the acceptor polls the shutdown flag
//! and, once it is set, wakes the accept with a connection of its own,
//! which the acceptor drops like any connection accepted after the stop.
//! A connection's first bytes are sniffed: a length-prefixed binary frame
//! always starts with 0x00 (the cap [`crate::proto::MAX_FRAME_BYTES`] fits
//! in three bytes), anything else is treated as an HTTP request line.
//!
//! Robustness invariants:
//! - a query only runs while holding a slot from [`Gate`] — overload
//!   becomes structured `OVERLOADED` / 429 responses, never an
//!   unbounded queue;
//! - every admitted query carries an effective deadline
//!   `min(client deadline, max_deadline)`, so a drain deadline ≥
//!   `max_deadline` always terminates;
//! - on SIGTERM the listener stops accepting, queued waiters are
//!   refused with `DRAINING`, in-flight queries finish (or deadline
//!   out), the index is flushed under the writer mutex, and the
//!   process exits 0.

use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use vist_core::{Error as CoreError, QueryOptions, VistIndex};

use crate::admission::{Admission, Gate};
use crate::http;
use crate::proto::{self, ProtoError, Request, Response};
use crate::signal;

/// How often idle loops (the acceptor's watcher, parked connections)
/// re-check the shutdown flag.
const POLL_TICK: Duration = Duration::from_millis(50);

/// How long a binary frame that has begun to arrive may go without more
/// bytes before the connection is refused and closed.
const FRAME_WINDOW: Duration = Duration::from_secs(5);

/// A binary connection's read buffer at first; it grows to hold a frame
/// larger than this.
const READ_CHUNK: usize = 4096;

/// Knobs for `vist serve`. All have serviceable defaults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:4170`. Port 0 picks a free port
    /// (the bound address is on the returned handle).
    pub addr: String,
    /// Concurrent query slots: queries that run at once, one thread each.
    pub max_inflight: usize,
    /// Bounded admission queue: waiters beyond this are shed.
    pub queue_depth: usize,
    /// Hard cap on any query's deadline; the effective deadline is
    /// `min(client, max)`. Also the floor for a safe drain deadline.
    pub max_deadline_ms: u64,
    /// How long SIGTERM waits for in-flight queries before giving up.
    /// Clamped up to `max_deadline_ms` so a drain always terminates.
    pub drain_deadline_ms: u64,
    /// Append one wide-event JSON line per request to this file,
    /// rotating at [`vist_obs::wide::DEFAULT_MAX_LOG_BYTES`]. The
    /// in-process record sets keep it regardless.
    pub access_log: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:4170".to_string(),
            max_inflight: std::thread::available_parallelism().map_or(4, |n| n.get()),
            queue_depth: 64,
            max_deadline_ms: 2_000,
            drain_deadline_ms: 5_000,
            access_log: None,
        }
    }
}

/// Declares the request states a server counts and, from the same rows,
/// everything that has to name each one: the atomics of [`ServeStats`], the
/// fields of [`StatsSnapshot`], [`ServeStats::snapshot`], the [`State`] a
/// call site hands to [`ServeStats::count`], and the registry counter (name
/// after `=>`, then the help text, which is also the field's doc) the state
/// is mirrored into.
macro_rules! serve_states {
    ( $( $field:ident $state:ident => $metric:literal, $help:literal; )* ) => {
        /// Terminal request states, kept as plain atomics (mirrored into
        /// vist-obs) so the drain report works even with metrics disabled.
        #[derive(Debug, Default)]
        pub struct ServeStats {
            $( #[doc = $help] pub $field: AtomicU64, )*
        }

        /// Plain-data copy of [`ServeStats`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $( #[doc = $help] pub $field: u64, )*
        }

        /// One row of [`ServeStats`], for [`ServeStats::count`].
        #[derive(Debug, Clone, Copy)]
        pub(crate) enum State {
            $( #[doc = $help] $state, )*
        }

        impl ServeStats {
            /// Count one request into `state`: this server's atomic and the
            /// process-wide registry counter together.
            pub(crate) fn count(&self, state: State) {
                match state {
                    $( State::$state => {
                        self.$field.fetch_add(1, Ordering::Relaxed);
                        vist_obs::counter!($metric).inc();
                    } )*
                }
            }

            fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $( $field: self.$field.load(Ordering::Relaxed), )*
                }
            }

            /// Make the registry counters exist, described, before the
            /// first request.
            fn register_metrics() {
                $(
                    let _ = vist_obs::counter!($metric);
                    vist_obs::describe($metric, $help);
                )*
            }
        }
    };
}

serve_states! {
    requests Requests => "vist_serve_requests_total",
        "Requests received (binary + HTTP), including malformed ones.";
    admitted Admitted => "vist_serve_admitted_total",
        "Queries that took an execution slot and ran.";
    shed Shed => "vist_serve_shed_total",
        "Queries refused because pool and queue were saturated.";
    deadline_expired DeadlineExpired => "vist_serve_deadline_expired_total",
        "Admitted queries that hit their effective deadline mid-match.";
    draining_rejected DrainingRejected => "vist_serve_draining_rejected_total",
        "Requests refused because the server was draining.";
    bad_requests BadRequest => "vist_serve_bad_request_total",
        "Malformed frames and unparsable queries.";
    errors Error => "vist_serve_errors_total",
        "Admitted queries that failed server-side.";
    ok Ok => "vist_serve_ok_total",
        "Admitted queries answered successfully.";
}

/// What the drain accomplished; returned by [`ServerHandle::join`].
#[derive(Debug, Clone, Copy)]
pub struct DrainReport {
    /// Every in-flight query finished before the drain deadline.
    pub drained_clean: bool,
    /// Queries still running when the drain deadline passed.
    pub inflight_at_deadline: usize,
    /// The final flush (under the writer mutex) succeeded.
    pub flush_ok: bool,
    /// Terminal-state counters at shutdown.
    pub stats: StatsSnapshot,
}

/// State shared by the acceptor and every connection thread.
pub(crate) struct Shared {
    pub(crate) index: Arc<VistIndex>,
    pub(crate) gate: Gate,
    pub(crate) cfg: ServeConfig,
    pub(crate) stats: ServeStats,
    /// Set when shutdown begins; connection threads exit at their next
    /// poll tick.
    pub(crate) stop: AtomicBool,
}

/// Register the serve metric families so they appear in exposition
/// even before first use. Idempotent.
pub fn register_metrics() {
    ServeStats::register_metrics();
    let _ = vist_obs::gauge!("vist_serve_inflight");
    let _ = vist_obs::gauge!("vist_serve_queue_depth");
    let _ = vist_obs::gauge!("vist_serve_draining");
    let _ = vist_obs::histogram!("vist_serve_request_nanos");
    let _ = vist_obs::histogram!("vist_serve_queue_wait_nanos");
    for (name, help) in [
        (
            "vist_serve_inflight",
            "Queries currently holding an execution slot.",
        ),
        (
            "vist_serve_queue_depth",
            "Admission waiters currently queued.",
        ),
        ("vist_serve_draining", "1 while the server drains, else 0."),
        (
            "vist_serve_request_nanos",
            "Service time per admitted query; buckets carry the last trace id as an exemplar.",
        ),
        (
            "vist_serve_queue_wait_nanos",
            "Time admitted queries spent waiting for a slot.",
        ),
    ] {
        vist_obs::describe(name, help);
    }
}

/// A running server. Dropping the handle does not stop it; call
/// [`ServerHandle::request_shutdown`] (or send SIGTERM) and then
/// [`ServerHandle::join`].
pub struct Server {
    _private: (),
}

/// Handle to a running [`Server`].
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    acceptor: thread::JoinHandle<DrainReport>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Programmatic SIGTERM: begin the drain.
    pub fn request_shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }

    /// Current terminal-state counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Wait for the drain to finish and return its report.
    pub fn join(self) -> DrainReport {
        self.acceptor.join().unwrap_or(DrainReport {
            drained_clean: false,
            inflight_at_deadline: 0,
            flush_ok: false,
            stats: StatsSnapshot::default(),
        })
    }
}

impl Server {
    /// Bind and start serving `index` per `cfg`. Installs SIGTERM /
    /// SIGINT handlers; returns once the listener is bound.
    pub fn start(index: Arc<VistIndex>, cfg: ServeConfig) -> io::Result<ServerHandle> {
        register_metrics();
        signal::install_handlers();
        // Spans give every request's record its tree (/debug/traces);
        // measured overhead is within the obs budget (see BENCH_obs_overhead).
        vist_obs::set_tracing(true);
        if let Some(path) = &cfg.access_log {
            vist_obs::wide::set_file_sink(path, 0)?;
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let gate = Gate::new(cfg.max_inflight, cfg.queue_depth);
        let shared = Arc::new(Shared {
            index,
            gate,
            cfg,
            stats: ServeStats::default(),
            stop: AtomicBool::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        let acceptor = thread::Builder::new()
            .name("vist-serve-accept".into())
            .spawn(move || accept_loop(listener, addr, accept_shared))?;
        Ok(ServerHandle {
            addr,
            shared,
            acceptor,
        })
    }
}

fn should_stop(shared: &Shared) -> bool {
    shared.stop.load(Ordering::SeqCst) || signal::shutdown_requested()
}

fn accept_loop(listener: TcpListener, addr: SocketAddr, shared: Arc<Shared>) -> DrainReport {
    thread::scope(|s| {
        let watcher = thread::Builder::new()
            .name("vist-serve-wake".into())
            .spawn_scoped(s, || wake_on_stop(addr, &shared));
        // Nothing else would wake a blocked accept at shutdown: without a
        // watcher the server accepts nothing and drains at once.
        if watcher.is_err() {
            return;
        }
        loop {
            match listener.accept() {
                // Dropped unanswered: the watcher's wake-up, or a client
                // that came after the stop.
                Ok(_) if should_stop(&shared) => break,
                Ok((stream, _peer)) => {
                    let conn_shared = Arc::clone(&shared);
                    let _ = thread::Builder::new()
                        .name("vist-serve-conn".into())
                        .spawn(move || handle_connection(stream, conn_shared));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => thread::sleep(POLL_TICK),
            }
        }
    });
    drain(&shared)
}

/// Check the shutdown flag every [`POLL_TICK`] and, once it is set,
/// connect to the listener so that a blocked `accept` returns. Polled, not
/// signalled: SIGTERM's handler only sets the flag, and the C library
/// restarts an `accept` the signal interrupts.
fn wake_on_stop(addr: SocketAddr, shared: &Shared) {
    let mut wake = addr;
    if wake.ip().is_unspecified() {
        wake.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    loop {
        thread::sleep(POLL_TICK);
        if should_stop(shared) && TcpStream::connect(wake).is_ok() {
            return;
        }
    }
}

/// The drain: stop admitting, wait for in-flight work (bounded), flush.
fn drain(shared: &Shared) -> DrainReport {
    // Make sure every connection thread sees the stop flag even when
    // shutdown came from a signal.
    shared.stop.store(true, Ordering::SeqCst);
    vist_obs::gauge!("vist_serve_draining").set(1);
    shared.gate.begin_drain();
    // A drain deadline below the per-query cap could abandon queries
    // that are guaranteed to terminate anyway; clamp up.
    let drain_ms = shared.cfg.drain_deadline_ms.max(shared.cfg.max_deadline_ms);
    let deadline = Instant::now() + Duration::from_millis(drain_ms);
    let drained_clean = shared.gate.await_idle(deadline);
    let inflight_at_deadline = shared.gate.inflight();
    // Flush coordinates with writers through the index's own writer
    // mutex; queries are done (or abandoned past the deadline).
    let flush_ok = shared.index.flush().is_ok();
    DrainReport {
        drained_clean,
        inflight_at_deadline,
        flush_ok,
        stats: shared.stats.snapshot(),
    }
}

/// Sniff the first byte without consuming: binary frames start with
/// 0x00 (frame cap < 2^24), HTTP request lines start with an ASCII
/// method letter.
fn handle_connection(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_TICK));
    let peer = stream
        .peer_addr()
        .map_or_else(|_| "unknown".to_string(), |a| a.to_string());
    let mut first = [0u8; 1];
    loop {
        if should_stop(&shared) && shared.gate.is_draining() {
            return;
        }
        match stream.peek(&mut first) {
            Ok(0) => return,
            Ok(_) => break,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if should_stop(&shared) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
    if first[0] == 0 {
        serve_binary(stream, &shared, &peer);
    } else {
        http::serve_http(stream, &shared, &peer);
    }
}

/// Binary protocol: a sequence of request frames, one response frame
/// each, until clean EOF or a protocol error.
///
/// A connection reads into one buffer under its [`POLL_TICK`] timeout and
/// answers every complete frame the buffer holds, in order, with one write:
/// a request costs one read and one write, and pipelined requests share
/// them. A timeout keeps what has arrived; between frames it is the moment
/// to look at the stop flag, inside one it counts towards
/// [`FRAME_WINDOW`].
fn serve_binary(mut stream: TcpStream, shared: &Shared, peer: &str) {
    let mut buf = vec![0u8; READ_CHUNK];
    // The bytes not yet answered are `buf[start..end]`.
    let (mut start, mut end) = (0, 0);
    let mut out = Vec::new();
    // Since when a frame that has begun to arrive has had no more bytes.
    let mut stalled: Option<Instant> = None;
    loop {
        loop {
            match proto::split_frame(&buf[start..end]) {
                Ok(Some((payload, used))) => {
                    let (trace_id, resp) = match Request::decode(payload) {
                        Ok(req) => handle_request(shared, req, peer, "binary"),
                        Err(e) => bad_binary_request(shared, peer, &e.to_string()),
                    };
                    proto::push_frame(&mut out, &resp.encode_with_trace(trace_id));
                    start += used;
                }
                Ok(None) => break,
                Err(e) => return refuse_frame(stream, shared, peer, out, &e),
            }
        }
        if !out.is_empty() {
            if stream.write_all(&out).is_err() {
                return;
            }
            out.clear();
        }
        if start == end {
            (start, end) = (0, 0);
        } else if end == buf.len() {
            // A frame is partly in: move it to the front, and make room for
            // the rest of one larger than the buffer (its length is checked).
            buf.copy_within(start..end, 0);
            (start, end) = (0, end - start);
            if end == buf.len() {
                buf.resize(2 * end, 0);
            }
        }
        match stream.read(&mut buf[end..]) {
            Ok(0) => {
                // The peer closed: between frames that is the end, inside
                // one the frame is truncated.
                if start < end {
                    refuse_frame(stream, shared, peer, out, &ProtoError::Truncated);
                }
                return;
            }
            Ok(n) => {
                end += n;
                stalled = None;
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if start == end {
                    if should_stop(shared) {
                        return;
                    }
                } else if stalled.get_or_insert_with(Instant::now).elapsed() >= FRAME_WINDOW {
                    return refuse_frame(stream, shared, peer, out, &ProtoError::Io(e));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Malformed framing: answer `BadRequest` after the answers `out` holds,
/// then close — the stream position is no longer trustworthy.
fn refuse_frame(
    mut stream: TcpStream,
    shared: &Shared,
    peer: &str,
    mut out: Vec<u8>,
    e: &ProtoError,
) {
    let (trace_id, resp) = bad_binary_request(shared, peer, &e.to_string());
    proto::push_frame(&mut out, &resp.encode_with_trace(trace_id));
    let _ = stream.write_all(&out);
}

/// Account + wide-event a request that never decoded; even these get a
/// (minted) trace id so the response frame stays uniform.
fn bad_binary_request(shared: &Shared, peer: &str, error: &str) -> (u128, Response) {
    shared.stats.count(State::Requests);
    shared.stats.count(State::BadRequest);
    let trace_id = vist_obs::traceid::mint();
    vist_obs::WideEvent::new("request")
        .str_field("trace_id", &vist_obs::traceid::format(trace_id))
        .str_field("transport", "binary")
        .str_field("peer", peer)
        .str_field("outcome", "bad_request")
        .str_field("error", error)
        .emit(trace_id, "bad_request", 0, None);
    (trace_id, Response::BadRequest(error.to_string()))
}

/// Render the per-stage timings of one query as a JSON object.
fn stages_json(t: &vist_core::StageTimings) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{");
    for (name, nanos) in t.stages() {
        let _ = write!(out, "\"{name}\":{nanos},");
    }
    let _ = write!(out, "\"total\":{}}}", t.total_nanos);
    out
}

/// Add every counter of one query's [`vist_core::QueryStats`] to its wide
/// event: the engine counters as top-level fields under their own names,
/// the attributed I/O counters (`io_*`) gathered into one `io` object.
fn counter_fields(
    mut event: vist_obs::WideEvent,
    s: &vist_core::QueryStats,
) -> vist_obs::WideEvent {
    use std::fmt::Write as _;
    let mut io = String::with_capacity(128);
    for (name, value) in s.fields() {
        match name.strip_prefix("io_") {
            Some(short) => {
                io.push(if io.is_empty() { '{' } else { ',' });
                let _ = write!(io, "\"{short}\":{value}");
            }
            None => event = event.u64_field(name, value),
        }
    }
    io.push_str(if io.is_empty() { "{}" } else { "}" });
    event.raw_field("io", &io)
}

/// Shared request path for both transports: admission, deadline,
/// execution, terminal-state accounting, and the wide event. Returns
/// the request's trace id — client-supplied when present, minted here
/// otherwise — alongside the response; every response (including shed
/// and draining refusals) carries it back to the client.
pub(crate) fn handle_request(
    shared: &Shared,
    req: Request,
    peer: &str,
    transport: &'static str,
) -> (u128, Response) {
    shared.stats.count(State::Requests);
    let (client_trace_id, deadline_ms, verify, no_plan, limit, expr) = match req {
        Request::Ping => {
            let trace_id = vist_obs::traceid::mint();
            vist_obs::WideEvent::new("request")
                .str_field("trace_id", &vist_obs::traceid::format(trace_id))
                .str_field("transport", transport)
                .str_field("peer", peer)
                .str_field("op", "ping")
                .str_field("outcome", "ok")
                .emit(trace_id, "ping", 0, None);
            return (trace_id, Response::Pong);
        }
        Request::Query {
            trace_id,
            deadline_ms,
            verify,
            no_plan,
            limit,
            expr,
        } => (trace_id, deadline_ms, verify, no_plan, limit, expr),
    };
    let trace_id = if client_trace_id != 0 {
        client_trace_id
    } else {
        vist_obs::traceid::mint()
    };
    // Everything known about the request lands on one of these; each
    // terminal arm below finishes one and `emit`s it, with the span tree
    // if the request got as far as running.
    let event = |outcome: &str| {
        vist_obs::WideEvent::new("request")
            .str_field("trace_id", &vist_obs::traceid::format(trace_id))
            .str_field("transport", transport)
            .str_field("peer", peer)
            .str_field("op", "query")
            .str_field("expr", &expr)
            .str_field("outcome", outcome)
    };
    let emit = |event: vist_obs::WideEvent, total_nanos, root| {
        event.emit(trace_id, &expr, total_nanos, root);
    };
    // Effective budget: the client's ask capped by the server; 0 means
    // "whatever the server allows".
    let cap = shared.cfg.max_deadline_ms;
    let budget_ms = if deadline_ms == 0 {
        cap
    } else {
        u64::from(deadline_ms).min(cap)
    };
    let budget = Duration::from_millis(budget_ms);
    let arrival = Instant::now();
    let deadline = arrival + budget;
    let resp = match shared.gate.admit(budget) {
        Admission::Draining => {
            shared.stats.count(State::DrainingRejected);
            emit(event("draining"), 0, None);
            Response::Draining
        }
        Admission::Shed { retry_after } => {
            shared.stats.count(State::Shed);
            let retry_after_ms = retry_after.as_millis().min(u128::from(u32::MAX)) as u32;
            let event = event("shed").u64_field("retry_after_ms", u64::from(retry_after_ms));
            emit(event, 0, None);
            Response::Overloaded { retry_after_ms }
        }
        Admission::Admitted { queued } => {
            shared.stats.count(State::Admitted);
            let queue_wait_nanos = queued.as_nanos().min(u128::from(u64::MAX)) as u64;
            vist_obs::histogram!("vist_serve_queue_wait_nanos").record(queue_wait_nanos);
            vist_obs::gauge!("vist_serve_inflight").set(shared.gate.inflight() as i64);
            vist_obs::gauge!("vist_serve_queue_depth").set(shared.gate.queued() as i64);
            let started = Instant::now();
            let opts = QueryOptions {
                verify,
                no_plan,
                limit: if limit == 0 {
                    None
                } else {
                    Some(limit as usize)
                },
                deadline: Some(deadline),
                trace_id,
                ..QueryOptions::default()
            };
            // The request owns the trace, so that a query cut off by its
            // deadline still leaves the spans it got through: the engine's
            // spans nest under this root and survive its early return.
            let trace = vist_obs::Trace::begin("query");
            let result = shared.index.query(&expr, &opts);
            let root = trace.map(vist_obs::Trace::finish);
            let service = started.elapsed();
            shared.gate.release(service);
            vist_obs::gauge!("vist_serve_inflight").set(shared.gate.inflight() as i64);
            let service_nanos = service.as_nanos().min(u128::from(u64::MAX)) as u64;
            vist_obs::histogram!("vist_serve_request_nanos")
                .record_with_exemplar(service_nanos, trace_id);
            let admitted_event = |outcome: &str| {
                event(outcome)
                    .u64_field("queue_wait_nanos", queue_wait_nanos)
                    .u64_field("total_nanos", service_nanos)
            };
            match result {
                Ok(r) => {
                    shared.stats.count(State::Ok);
                    let event = admitted_event("ok")
                        .u64_field("docs", r.doc_ids.len() as u64)
                        .u64_field("candidates", r.candidates as u64)
                        .raw_field("stages", &stages_json(&r.timings));
                    emit(counter_fields(event, &r.stats), service_nanos, root);
                    Response::Ok(r.doc_ids)
                }
                Err(CoreError::DeadlineExceeded) => {
                    shared.stats.count(State::DeadlineExpired);
                    emit(admitted_event("deadline"), service_nanos, root);
                    Response::DeadlineExceeded
                }
                Err(CoreError::Query(e)) => {
                    shared.stats.count(State::BadRequest);
                    let event = admitted_event("bad_request").str_field("error", &e.to_string());
                    emit(event, service_nanos, root);
                    Response::BadRequest(e.to_string())
                }
                Err(e) => {
                    shared.stats.count(State::Error);
                    let event = admitted_event("error").str_field("error", &e.to_string());
                    emit(event, service_nanos, root);
                    Response::Error(e.to_string())
                }
            }
        }
    };
    (trace_id, resp)
}
