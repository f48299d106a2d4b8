//! Zero-dependency observability substrate for ViST.
//!
//! Two facilities, both process-global and thread-safe:
//!
//! - **Metrics registry** ([`registry`], [`metrics`], [`expo`]): named
//!   atomic counters, gauges, and log₂-bucketed latency histograms
//!   (p50/p90/p99/max), rendered as Prometheus text or JSON. Register
//!   once, mutate lock-free on hot paths via the [`counter!`],
//!   [`gauge!`], and [`histogram!`] macros, which cache the `&'static`
//!   handle per call site.
//! - **Span tracing** ([`span`]): `Span::enter("phase")` guards build a
//!   hierarchical timing tree for one operation when tracing is on; a
//!   single relaxed `AtomicBool` load when it is off.
//!
//! Request-scoped telemetry builds on those two:
//!
//! - **Trace ids** ([`traceid`]): 128-bit per-request ids minted at the
//!   serve front-end (or accepted from clients) and carried through
//!   every layer.
//! - **I/O attribution** ([`attr`]): a query's batch scope, which tallies
//!   the buffer-pool and WAL activity on its thread for that query.
//! - **Request records** ([`wide`]): one wide event (a JSON line) per
//!   request or background op, kept with its span tree in a recent ring
//!   and an always-keep-slowest set, resolvable by trace id, and appended
//!   to an optional rotating access-log file; histogram buckets carry the
//!   last trace id as an exemplar.
//! - **Batched hot-path updates** ([`batch`]): while a query's scope is
//!   open, [`count!`] and [`observe!`] tally thread-locally and fold into
//!   the registry once, when the scope closes.
//! - **Shared percentiles** ([`percentile`]): the one nearest-rank rule
//!   behind both histogram estimates and exact benchmark quantiles.
//!
//! Registry values are *process-lifetime*: they keep accumulating
//! across index close/reopen, unlike `IndexStats` which is since-open.
//!
//! The `noop` cargo feature compiles every mutation, clock read, and
//! span to nothing, so benchmarks can compare the instrumented default
//! build against a genuinely uninstrumented build of identical engine
//! code (see `BENCH_obs_overhead.json`).

pub mod attr;
pub mod batch;
pub mod expo;
pub mod metrics;
pub mod percentile;
pub mod registry;
pub mod span;
pub mod traceid;
pub mod wide;

pub use attr::{AttrGuard, AttrSnapshot};
pub use expo::{json_escape, render_json, render_prometheus};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{counter, describe, gauge, histogram, snapshot, MetricValue, Snapshot};
pub use span::{format_nanos, set_tracing, tracing_enabled, Span, SpanNode, Trace};
pub use wide::WideEvent;

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Gates clock reads for latency histograms. On by default; turn off to
/// shed even the `Instant::now()` cost while keeping event counters.
static TIMING: AtomicBool = AtomicBool::new(true);

/// Enable or disable latency timing (clock reads) process-wide.
/// Counters and gauges are unaffected.
pub fn set_timing(on: bool) {
    TIMING.store(on, Ordering::Relaxed);
}

/// Whether latency timing is currently enabled.
#[inline]
#[must_use]
pub fn timing_enabled() -> bool {
    #[cfg(feature = "noop")]
    return false;
    #[cfg(not(feature = "noop"))]
    TIMING.load(Ordering::Relaxed)
}

/// Read the clock if timing is enabled. Pair with [`observe_since`]:
///
/// ```
/// let t = vist_obs::now();
/// // ... the operation being timed ...
/// vist_obs::observe_since(vist_obs::histogram("doc_example_nanos"), t);
/// ```
#[inline]
#[must_use]
pub fn now() -> Option<Instant> {
    if timing_enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Elapsed nanoseconds since `start`, saturating at `u64::MAX`; `None`
/// if timing was off at the start.
#[inline]
#[must_use]
pub fn elapsed_nanos(start: Option<Instant>) -> Option<u64> {
    start.map(|t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX))
}

/// Record the time since `start` (from [`now`]) into `hist`, if timing
/// was on when `start` was taken.
#[inline]
pub fn observe_since(hist: &Histogram, start: Option<Instant>) {
    if let Some(nanos) = elapsed_nanos(start) {
        hist.record(nanos);
    }
}

/// A named counter, registered once per call site and cached in a
/// `OnceLock` — subsequent hits are a pointer load plus the atomic add.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::registry::counter($name))
    }};
}

/// A named gauge, cached per call site like [`counter!`].
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Gauge> = ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::registry::gauge($name))
    }};
}

/// A named histogram, cached per call site like [`counter!`].
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::registry::histogram($name))
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn macros_cache_the_handle() {
        let a = counter!("lib_macro_total");
        let b = counter!("lib_macro_total");
        assert!(std::ptr::eq(a, b));
        gauge!("lib_macro_level").set(1);
        histogram!("lib_macro_nanos").record(5);
    }

    #[test]
    #[cfg(not(feature = "noop"))]
    fn timing_gate() {
        crate::set_timing(true);
        assert!(crate::now().is_some());
        crate::set_timing(false);
        assert!(crate::now().is_none());
        crate::set_timing(true);
    }
}
