//! Request records: one wide event per unit of work, kept once.
//!
//! A wide event is the single place everything known about one request
//! (or one background operation) lands: trace id, peer, admission wait,
//! plan summary, stage timings, attribution counters, outcome — one
//! structured JSON line. [`WideEvent::emit`] turns it into a [`Record`]
//! (the line plus, when tracing built one, the finished span tree) and
//! keeps it under two retention rules, both behind one mutex:
//!
//! - a **recent ring** of the last [`RING_CAPACITY`] records, so a freshly
//!   returned trace id is resolvable until the ring wraps;
//! - an **always-keep-slowest** set of the [`SLOWEST_CAPACITY`] slowest
//!   records seen so far, so the request behind a p99 spike survives long
//!   after the ring has wrapped past it.
//!
//! The same call appends the line to the access log, if one is set: an
//! append-only file with size-based rotation (`vist serve --access-log
//! <path>`). `GET /debug/traces` and `vist traces` are views of the two
//! sets; histogram exemplars (see [`crate::metrics::Histogram`]) hold the
//! last trace id per latency bucket, which [`get`] resolves to the record
//! that produced it.
//!
//! Rotation: when appending a line would push the file past the
//! configured byte cap, the current file is renamed to `<path>.1`
//! (replacing any previous `.1`) and a fresh file is started — at most
//! two generations ever exist on disk.
//!
//! Under the `noop` feature [`WideEvent::emit`] compiles to nothing.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

use crate::expo::json_escape_into;
use crate::span::SpanNode;

/// Records retained in the recent ring.
pub const RING_CAPACITY: usize = 256;

/// Records retained in the always-keep-slowest set.
pub const SLOWEST_CAPACITY: usize = 16;

/// Default access-log rotation threshold (16 MiB).
pub const DEFAULT_MAX_LOG_BYTES: u64 = 16 * 1024 * 1024;

/// Builder for one wide event. Fields render in insertion order; the
/// `event` kind is always first.
#[derive(Debug)]
pub struct WideEvent {
    buf: String,
}

impl WideEvent {
    /// Start an event of the given kind (e.g. `"query"`, `"compaction"`).
    #[must_use]
    pub fn new(kind: &str) -> WideEvent {
        let mut buf = String::with_capacity(256);
        buf.push_str("{\"event\":\"");
        json_escape_into(&mut buf, kind);
        buf.push('"');
        WideEvent { buf }
    }

    /// Open a field: `,"key":`, escaped straight into the line.
    fn key(&mut self, key: &str) {
        self.buf.push_str(",\"");
        json_escape_into(&mut self.buf, key);
        self.buf.push_str("\":");
    }

    /// Add a string field (JSON-escaped).
    #[must_use]
    pub fn str_field(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.buf.push('"');
        json_escape_into(&mut self.buf, value);
        self.buf.push('"');
        self
    }

    /// Add an unsigned integer field.
    #[must_use]
    pub fn u64_field(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Add a pre-rendered JSON value (object, array, number...). The
    /// caller is responsible for `value` being valid JSON.
    #[must_use]
    pub fn raw_field(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.buf.push_str(value);
        self
    }

    /// Finish the event as one JSON line (no trailing newline).
    #[must_use]
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }

    /// Finish the event and keep it as the [`Record`] of the work it
    /// describes: into the recent ring, into the slowest set if
    /// `total_nanos` qualifies, and onto the access log. `trace_id` is 0
    /// for work that has none; `label` is what listings show (the query
    /// expression, `bg:<op>`). A no-op under the `noop` feature.
    pub fn emit(self, trace_id: u128, label: &str, total_nanos: u64, root: Option<SpanNode>) {
        if cfg!(feature = "noop") {
            return;
        }
        keep(Arc::new(Record {
            trace_id,
            label: label.to_owned(),
            total_nanos,
            line: self.finish(),
            root,
        }));
    }
}

/// What is kept of one request or background operation.
#[derive(Debug)]
pub struct Record {
    /// The trace id the work ran under (0: none).
    pub trace_id: u128,
    /// Human label — the query expression or `bg:<op>`.
    pub label: String,
    /// Total wall time of the work.
    pub total_nanos: u64,
    /// The wide event, as the one JSON line the access log holds.
    pub line: String,
    /// The finished span tree, when tracing built one.
    pub root: Option<SpanNode>,
}

struct FileSink {
    path: PathBuf,
    max_bytes: u64,
    file: File,
    written: u64,
}

#[derive(Default)]
struct Sink {
    ring: VecDeque<Arc<Record>>,
    /// Slowest first.
    slowest: Vec<Arc<Record>>,
    file: Option<FileSink>,
}

fn global() -> &'static Mutex<Sink> {
    static SINK: OnceLock<Mutex<Sink>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Sink::default()))
}

fn keep(record: Arc<Record>) {
    let line = &record.line;
    let mut sink = global().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(fs) = sink.file.as_mut() {
        if fs.written + line.len() as u64 + 1 > fs.max_bytes && fs.written > 0 {
            let rotated =
                fs.path
                    .with_extension(match fs.path.extension().and_then(|e| e.to_str()) {
                        Some(ext) => format!("{ext}.1"),
                        None => "1".to_string(),
                    });
            let _ = std::fs::rename(&fs.path, rotated);
            if let Ok(f) = File::create(&fs.path) {
                fs.file = f;
                fs.written = 0;
            }
        }
        if fs.file.write_all(line.as_bytes()).is_ok() && fs.file.write_all(b"\n").is_ok() {
            fs.written += line.len() as u64 + 1;
        }
    }
    if sink.ring.len() == RING_CAPACITY {
        sink.ring.pop_front();
    }
    sink.ring.push_back(Arc::clone(&record));
    let at = sink
        .slowest
        .partition_point(|s| s.total_nanos >= record.total_nanos);
    if at < SLOWEST_CAPACITY {
        sink.slowest.truncate(SLOWEST_CAPACITY - 1);
        sink.slowest.insert(at, record);
    }
}

/// Start appending events to `path`, rotating at `max_bytes`
/// (0 means [`DEFAULT_MAX_LOG_BYTES`]).
pub fn set_file_sink(path: &str, max_bytes: u64) -> std::io::Result<()> {
    let file = OpenOptions::new().create(true).append(true).open(path)?;
    let written = file.metadata().map_or(0, |m| m.len());
    let mut sink = global().lock().unwrap_or_else(|e| e.into_inner());
    sink.file = Some(FileSink {
        path: PathBuf::from(path),
        max_bytes: if max_bytes == 0 {
            DEFAULT_MAX_LOG_BYTES
        } else {
            max_bytes
        },
        file,
        written,
    });
    Ok(())
}

/// Stop writing events to a file (records are kept regardless).
pub fn clear_file_sink() {
    global().lock().unwrap_or_else(|e| e.into_inner()).file = None;
}

/// The recent ring, oldest first.
#[must_use]
pub fn recent() -> Vec<Arc<Record>> {
    let sink = global().lock().unwrap_or_else(|e| e.into_inner());
    sink.ring.iter().cloned().collect()
}

/// The always-kept slowest records, slowest first.
#[must_use]
pub fn slowest() -> Vec<Arc<Record>> {
    global()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .slowest
        .clone()
}

/// Look up a kept record by trace id (newest match wins).
#[must_use]
pub fn get(trace_id: u128) -> Option<Arc<Record>> {
    let sink = global().lock().unwrap_or_else(|e| e.into_inner());
    let found = sink.ring.iter().rev().find(|r| r.trace_id == trace_id);
    found
        .or_else(|| sink.slowest.iter().find(|r| r.trace_id == trace_id))
        .cloned()
}

/// Drop every kept record (tests).
pub fn clear() {
    let mut sink = global().lock().unwrap_or_else(|e| e.into_inner());
    sink.ring.clear();
    sink.slowest.clear();
}

#[cfg(all(test, not(feature = "noop")))]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    // The sink is process-global; serialize tests that use it.
    static SINK_TESTS: StdMutex<()> = StdMutex::new(());

    #[test]
    fn builder_renders_one_json_line() {
        let line = WideEvent::new("query")
            .str_field("trace_id", "00ff")
            .u64_field("total_nanos", 1234)
            .str_field("expr", "/a\"b")
            .raw_field("stages", "{\"plan\":5}")
            .finish();
        assert_eq!(
            line,
            "{\"event\":\"query\",\"trace_id\":\"00ff\",\"total_nanos\":1234,\
             \"expr\":\"/a\\\"b\",\"stages\":{\"plan\":5}}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn ring_bounds_and_orders_events() {
        let _g = SINK_TESTS.lock().unwrap();
        clear();
        clear_file_sink();
        for i in 0..RING_CAPACITY + 3 {
            WideEvent::new("e")
                .u64_field("i", i as u64)
                .emit(0, "e", 0, None);
        }
        let got = recent();
        assert_eq!(got.len(), RING_CAPACITY);
        assert!(
            got[0].line.contains("\"i\":3"),
            "oldest evicted: {:?}",
            got[0]
        );
        assert!(got
            .last()
            .unwrap()
            .line
            .contains(&format!("\"i\":{}", RING_CAPACITY + 2)));
        clear();
    }

    #[test]
    fn ring_wraps_but_slowest_survive() {
        let _g = SINK_TESTS.lock().unwrap();
        clear();
        clear_file_sink();
        // One early, very slow request with its tree...
        let root = SpanNode::leaf("query", 1_000_000, 1);
        WideEvent::new("request").emit(42, "slowpoke", 1_000_000, Some(root));
        // ...then a flood of fast ones that wraps the ring.
        for i in 0..(RING_CAPACITY as u64 + 10) {
            WideEvent::new("request").emit(1000 + u128::from(i), "fast", 10 + i, None);
        }
        assert!(
            !recent().iter().any(|r| r.trace_id == 42),
            "ring wrapped past the slow record"
        );
        let got = get(42).expect("slowest retention kept it");
        assert_eq!(got.label, "slowpoke");
        assert_eq!(got.root.as_ref().unwrap().name, "query");
        let slowest = slowest();
        assert_eq!(slowest.len(), SLOWEST_CAPACITY);
        assert_eq!(slowest[0].trace_id, 42);
        assert!(slowest
            .windows(2)
            .all(|w| w[0].total_nanos >= w[1].total_nanos));
        // The newest record of an id wins while the ring holds it.
        WideEvent::new("request").emit(42, "again", 5, None);
        assert_eq!(get(42).unwrap().label, "again");
        clear();
    }

    #[test]
    fn missing_id_is_none() {
        let _g = SINK_TESTS.lock().unwrap();
        clear();
        assert!(get(9999).is_none());
    }

    #[test]
    fn file_sink_rotates_at_cap() {
        let _g = SINK_TESTS.lock().unwrap();
        clear();
        let dir = std::env::temp_dir().join(format!("vist_wide_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("access.log");
        let path_s = path.to_str().unwrap();
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(dir.join("access.log.1"));

        set_file_sink(path_s, 200).unwrap();
        for i in 0..12 {
            // ~40 bytes per line: the 200-byte cap forces rotation.
            WideEvent::new("rot")
                .u64_field("seq", i)
                .emit(0, "rot", 0, None);
        }
        clear_file_sink();

        let current = std::fs::read_to_string(&path).unwrap();
        let rotated = std::fs::read_to_string(dir.join("access.log.1")).unwrap();
        assert!(current.len() as u64 <= 200);
        for part in [&current, &rotated] {
            for line in part.lines() {
                assert!(line.starts_with("{\"event\":\"rot\""), "{line}");
                assert!(line.ends_with('}'), "{line}");
            }
        }
        // The newest line is in the current file, not the rotated one.
        assert!(current.contains("\"seq\":11"));
        let _ = std::fs::remove_dir_all(&dir);
        clear();
    }
}
