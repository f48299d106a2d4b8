//! Shared harness for the table/figure benchmark binaries.
//!
//! Every binary regenerates one artifact of the paper's Section 4 (see
//! `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for recorded
//! results). Sizes default to laptop scale and grow with the
//! `VIST_BENCH_SCALE` environment variable (e.g. `VIST_BENCH_SCALE=10` for
//! 10x the default workload; the paper's scale corresponds to roughly
//! 10-50x depending on the experiment).

use std::time::{Duration, Instant};

/// Workload scale factor from `VIST_BENCH_SCALE` (default 1.0).
#[must_use]
pub fn scale() -> f64 {
    std::env::var("VIST_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0)
}

/// `base` scaled and clamped to at least `min`.
#[must_use]
pub fn scaled(base: usize, min: usize) -> usize {
    ((base as f64 * scale()) as usize).max(min)
}

/// Run `f` once to warm up, then `iters` timed repetitions; returns the mean
/// wall-clock duration.
pub fn time_avg<F: FnMut()>(iters: usize, mut f: F) -> Duration {
    f();
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed() / iters as u32
}

/// Milliseconds with two decimals, for table cells.
#[must_use]
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Print a markdown-style table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!(" {:>w$} |", c, w = widths[i]));
        }
        println!("{out}");
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    line(&sep);
    for row in rows {
        line(row);
    }
}

/// Human-readable byte size in MiB.
#[must_use]
pub fn mib(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

/// Wildcard probability for random synthetic queries, from
/// `VIST_BENCH_WILDCARDS` (default 0.0 — the paper's random queries are
/// generated "in the same way" as the data, i.e. concrete subtrees).
#[must_use]
pub fn wildcard_prob() -> f64 {
    std::env::var("VIST_BENCH_WILDCARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Minimal micro-benchmark runner used by `benches/micro.rs` (this build
/// carries no third-party bench framework). Each benchmark's setup +
/// timing closure is re-run with a growing iteration count until the timed
/// region is long enough, then the mean ns/iteration is reported.
pub mod micro {
    use std::time::Instant;

    /// Identity that defeats constant folding of the result.
    pub fn black_box<T>(x: T) -> T {
        std::hint::black_box(x)
    }

    /// Passed to each benchmark closure; call [`Bencher::iter`] exactly
    /// once with the code to time.
    pub struct Bencher {
        iters: u64,
        elapsed_ns: u128,
    }

    impl Bencher {
        /// Time `f` over this calibration round's iteration count.
        pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
            let t0 = Instant::now();
            for _ in 0..self.iters {
                black_box(f());
            }
            self.elapsed_ns = t0.elapsed().as_nanos();
        }
    }

    /// Benchmark registry: name filtering from argv plus a time budget per
    /// benchmark from `VIST_MICRO_MS` (default 200 ms).
    pub struct Runner {
        filter: Option<String>,
        target_ns: u128,
    }

    impl Default for Runner {
        fn default() -> Self {
            Self::from_env()
        }
    }

    impl Runner {
        /// Build from process args (first non-flag arg = substring filter)
        /// and environment.
        #[must_use]
        pub fn from_env() -> Self {
            let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
            let target_ms: u128 = std::env::var("VIST_MICRO_MS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(200);
            Runner {
                filter,
                target_ns: target_ms.max(1) * 1_000_000,
            }
        }

        /// Run one benchmark; returns mean ns/iteration (`None` when
        /// filtered out).
        pub fn bench<F: FnMut(&mut Bencher)>(&self, name: &str, mut f: F) -> Option<f64> {
            if let Some(filt) = &self.filter {
                if !name.contains(filt.as_str()) {
                    return None;
                }
            }
            let mut iters = 1u64;
            loop {
                let mut b = Bencher {
                    iters,
                    elapsed_ns: 0,
                };
                f(&mut b);
                if b.elapsed_ns >= self.target_ns || iters >= 1 << 30 {
                    let per = b.elapsed_ns as f64 / iters as f64;
                    println!("{name:<44} {per:>14.1} ns/iter  ({iters} iters)");
                    return Some(per);
                }
                let grow = (self.target_ns as f64 / b.elapsed_ns.max(1) as f64).ceil() as u64;
                iters = iters.saturating_mul(grow.clamp(2, 16));
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn bencher_runs_requested_iters() {
            let runner = Runner {
                filter: None,
                target_ns: 1, // one calibration round suffices
            };
            let mut count = 0u64;
            let per = runner.bench("unit", |b| {
                b.iter(|| count += 1);
            });
            assert!(per.is_some());
            assert!(count >= 1);
        }

        #[test]
        fn filter_skips_nonmatching() {
            let runner = Runner {
                filter: Some("match-me".into()),
                target_ns: 1,
            };
            assert!(runner.bench("other", |b| b.iter(|| ())).is_none());
            assert!(runner.bench("match-me/x", |b| b.iter(|| ())).is_some());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_clamps() {
        assert_eq!(scaled(5, 10).max(10), scaled(5, 10));
        assert!(scaled(100, 10) >= 10);
    }

    #[test]
    fn formatting() {
        assert_eq!(ms(Duration::from_micros(1500)), "1.50");
        assert_eq!(mib(3 * 1024 * 1024), "3.00");
    }

    #[test]
    fn time_avg_counts() {
        let mut n = 0;
        let _ = time_avg(3, || n += 1);
        assert_eq!(n, 4, "one warm-up + three timed");
    }
}
