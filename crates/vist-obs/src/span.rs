//! Hierarchical span tracing.
//!
//! A [`Trace`] bounds one traced operation (e.g. one query); [`Span`]
//! guards mark phases inside it. Spans nest by construction order on
//! the current thread and close on drop, producing a tree of
//! `(name, duration)` nodes. Same-name siblings are merged (durations
//! summed, counts added) so loops produce one aggregate node instead of
//! thousands.
//!
//! Cost model: when tracing is disabled (the default) every entry point
//! is a single relaxed `AtomicBool` load — no clock read, no
//! allocation. When enabled, spans record into a thread-local
//! collector; threads other than the one that opened the [`Trace`]
//! have no active collector and their spans are inert. Enabling
//! tracing is process-wide ([`set_tracing`]).

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

static TRACING: AtomicBool = AtomicBool::new(false);

/// Turn span collection on or off process-wide.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// Whether span collection is currently on.
#[inline]
#[must_use]
pub fn tracing_enabled() -> bool {
    #[cfg(feature = "noop")]
    return false;
    #[cfg(not(feature = "noop"))]
    TRACING.load(Ordering::Relaxed)
}

/// One node of a finished span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Phase name, as passed to [`Span::enter`].
    pub name: &'static str,
    /// Total time spent in this phase (summed over merged siblings).
    pub nanos: u64,
    /// How many same-name sibling spans were merged into this node.
    pub count: u64,
    /// Child phases, in first-entry order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// A childless node: `count` visits of `name` that took `nanos` in all,
    /// timed elsewhere and handed to [`attach`].
    #[must_use]
    pub fn leaf(name: &'static str, nanos: u64, count: u64) -> Self {
        SpanNode {
            name,
            nanos,
            count,
            children: Vec::new(),
        }
    }

    /// Merge a closed child into this node's children, combining with an
    /// existing same-name sibling if present.
    fn absorb(&mut self, child: SpanNode) {
        if let Some(existing) = self.children.iter_mut().find(|c| c.name == child.name) {
            existing.nanos += child.nanos;
            existing.count += child.count;
            for grand in child.children {
                existing.absorb(grand);
            }
        } else {
            self.children.push(child);
        }
    }

    /// Sum of direct children's durations.
    #[must_use]
    pub fn child_nanos(&self) -> u64 {
        self.children.iter().map(|c| c.nanos).sum()
    }

    /// Render the tree as a JSON object:
    /// `{"name":...,"nanos":...,"count":...,"children":[...]}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.json_into(&mut out);
        out
    }

    fn json_into(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"nanos\":{},\"count\":{},\"children\":[",
            crate::expo::json_escape(self.name),
            self.nanos,
            self.count
        ));
        for (i, child) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            child.json_into(out);
        }
        out.push_str("]}");
    }

    /// Render the tree as indented text, one node per line:
    /// `name  <duration>  (xN)` with an `(xN)` suffix for merged nodes
    /// and a final `(other)` line when children don't account for the
    /// parent's full duration.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(self.name);
        out.push_str("  ");
        out.push_str(&format_nanos(self.nanos));
        if self.count > 1 {
            out.push_str(&format!("  (x{})", self.count));
        }
        out.push('\n');
        for child in &self.children {
            child.render_into(out, depth + 1);
        }
        if !self.children.is_empty() {
            let child_sum = self.child_nanos();
            if child_sum < self.nanos {
                for _ in 0..=depth {
                    out.push_str("  ");
                }
                out.push_str("(other)  ");
                out.push_str(&format_nanos(self.nanos - child_sum));
                out.push('\n');
            }
        }
    }
}

/// Format a nanosecond duration for humans: `137ns`, `42.5µs`, `3.21ms`, `1.75s`.
#[must_use]
pub fn format_nanos(n: u64) -> String {
    if n < 1_000 {
        format!("{n}ns")
    } else if n < 1_000_000 {
        format!("{:.1}µs", n as f64 / 1e3)
    } else if n < 1_000_000_000 {
        format!("{:.2}ms", n as f64 / 1e6)
    } else {
        format!("{:.2}s", n as f64 / 1e9)
    }
}

struct Collector {
    /// Stack of open spans; index 0 is the root. Closing a span pops it
    /// and absorbs it into its parent.
    stack: Vec<(SpanNode, Instant)>,
}

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Root guard for one traced operation. While alive, [`Span`]s on this
/// thread record into its tree; dropping it yields nothing (use
/// [`Trace::finish`] to take the tree).
pub struct Trace {
    // !Send by construction (thread-local collector); keep it that way.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Trace {
    /// Start a trace rooted at `name` if tracing is enabled and no trace
    /// is already active on this thread; otherwise `None`.
    #[must_use]
    pub fn begin(name: &'static str) -> Option<Trace> {
        if !tracing_enabled() {
            return None;
        }
        COLLECTOR.with(|c| {
            let mut slot = c.borrow_mut();
            if slot.is_some() {
                return None;
            }
            *slot = Some(Collector {
                stack: vec![(SpanNode::leaf(name, 0, 0), Instant::now())],
            });
            Some(Trace {
                _not_send: std::marker::PhantomData,
            })
        })
    }

    /// Close the trace and return the finished span tree. Any spans left
    /// open (e.g. after an early return with live guards — impossible
    /// with lexically scoped guards) are closed as of now.
    #[must_use]
    pub fn finish(self) -> SpanNode {
        COLLECTOR.with(|c| {
            let mut slot = c.borrow_mut();
            let mut collector = slot.take().expect("trace collector present until finish");
            while collector.stack.len() > 1 {
                let (mut node, started) = collector.stack.pop().unwrap();
                node.nanos += started.elapsed().as_nanos() as u64;
                node.count += 1;
                collector.stack.last_mut().unwrap().0.absorb(node);
            }
            let (mut root, started) = collector.stack.pop().unwrap();
            root.nanos = started.elapsed().as_nanos() as u64;
            root.count = 1;
            root
        })
    }
}

impl Drop for Trace {
    fn drop(&mut self) {
        // finish() takes the collector out first; only an unfinished
        // (dropped) trace still owns it here.
        COLLECTOR.with(|c| {
            c.borrow_mut().take();
        });
    }
}

/// Graft an externally built span node into the innermost open span of
/// the active trace on this thread: time measured outside any span (the
/// tier union between the tiers' own spans) becomes a [`SpanNode`]
/// attached here. A no-op when tracing is off or no trace is active.
pub fn attach(node: SpanNode) {
    if !tracing_enabled() {
        return;
    }
    COLLECTOR.with(|c| {
        if let Some(collector) = c.borrow_mut().as_mut() {
            if let Some((top, _)) = collector.stack.last_mut() {
                top.absorb(node);
            }
        }
    });
}

/// Scoped phase guard. Construct with [`Span::enter`]; the phase closes
/// when the guard drops.
pub struct Span {
    live: bool,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Span {
    /// Open a phase named `name`. A no-op guard (one atomic load) when
    /// tracing is off or no [`Trace`] is active on this thread.
    #[inline]
    #[must_use]
    pub fn enter(name: &'static str) -> Span {
        if !tracing_enabled() {
            return Span {
                live: false,
                _not_send: std::marker::PhantomData,
            };
        }
        let live = COLLECTOR.with(|c| {
            let mut slot = c.borrow_mut();
            match slot.as_mut() {
                Some(collector) => {
                    collector
                        .stack
                        .push((SpanNode::leaf(name, 0, 0), Instant::now()));
                    true
                }
                None => false,
            }
        });
        Span {
            live,
            _not_send: std::marker::PhantomData,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        COLLECTOR.with(|c| {
            let mut slot = c.borrow_mut();
            if let Some(collector) = slot.as_mut() {
                // Guards drop in reverse construction order, so the top
                // of the stack is this span (unless the trace finished
                // early, in which case the collector is gone).
                if collector.stack.len() > 1 {
                    let (mut node, started) = collector.stack.pop().unwrap();
                    node.nanos += started.elapsed().as_nanos() as u64;
                    node.count += 1;
                    collector.stack.last_mut().unwrap().0.absorb(node);
                }
            }
        });
    }
}

#[cfg(all(test, not(feature = "noop")))]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // TRACING is process-global; serialize the tests that toggle it.
    static TRACE_TESTS: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_tracing_yields_no_trace() {
        let _g = TRACE_TESTS.lock().unwrap();
        set_tracing(false);
        assert!(Trace::begin("op").is_none());
        let _s = Span::enter("phase"); // must be inert, not panic
    }

    #[test]
    fn spans_nest_and_merge() {
        let _g = TRACE_TESTS.lock().unwrap();
        set_tracing(true);
        let trace = Trace::begin("query").expect("tracing on");
        {
            let _a = Span::enter("parse");
        }
        for _ in 0..3 {
            let _b = Span::enter("probe");
            let _c = Span::enter("scan");
        }
        let root = trace.finish();
        set_tracing(false);

        assert_eq!(root.name, "query");
        let names: Vec<_> = root.children.iter().map(|c| c.name).collect();
        assert_eq!(names, vec!["parse", "probe"]);
        let probe = &root.children[1];
        assert_eq!(probe.count, 3, "same-name siblings merge");
        assert_eq!(probe.children.len(), 1);
        assert_eq!(probe.children[0].name, "scan");
        assert_eq!(probe.children[0].count, 3);
        // Children can't outlast the root.
        assert!(root.child_nanos() <= root.nanos);
        let rendered = root.render();
        assert!(rendered.contains("query"));
        assert!(rendered.contains("(x3)"));
    }

    #[test]
    fn attach_grafts_into_the_open_span() {
        let _g = TRACE_TESTS.lock().unwrap();
        set_tracing(true);
        let trace = Trace::begin("query").expect("tracing on");
        {
            let _m = Span::enter("match");
            for i in 0..2 {
                attach(SpanNode::leaf("worker", 100 + i, 1));
            }
        }
        let root = trace.finish();
        set_tracing(false);
        let m = &root.children[0];
        assert_eq!(m.name, "match");
        assert_eq!(m.children.len(), 1, "same-name workers merge");
        assert_eq!(m.children[0].name, "worker");
        assert_eq!(m.children[0].count, 2);
        assert_eq!(m.children[0].nanos, 201);
        let json = root.to_json();
        assert!(json.contains("\"name\":\"worker\""), "{json}");
        assert!(json.contains("\"count\":2"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn nested_trace_begin_is_refused() {
        let _g = TRACE_TESTS.lock().unwrap();
        set_tracing(true);
        let outer = Trace::begin("outer").expect("tracing on");
        assert!(Trace::begin("inner").is_none());
        let _ = outer.finish();
        set_tracing(false);
    }

    #[test]
    fn format_nanos_units() {
        assert_eq!(format_nanos(137), "137ns");
        assert_eq!(format_nanos(42_500), "42.5µs");
        assert_eq!(format_nanos(3_210_000), "3.21ms");
        assert_eq!(format_nanos(1_750_000_000), "1.75s");
    }
}
