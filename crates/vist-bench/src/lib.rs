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
