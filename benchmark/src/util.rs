//! Small pieces every part of the harness shares: the seeded generator,
//! the estimators, the scratch directory and the host facts.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// SplitMix64. The harness draws every shuffle, request stream and removal
/// from this, so `--seed` alone fixes the inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Nearest-rank quantile of `v` (`q` in `0..=1`); 0 for an empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Median (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The lowest median among consecutive windows of `window` samples (a
/// shorter last window joins the one before it).
///
/// The host is shared, and a neighbour slows this process for seconds at a
/// time; a slow stretch lifts the median of a whole run, but not of the
/// windows it does not touch. A change to the code moves every window alike,
/// so it still shows.
pub fn quiet_median(v: &[f64], window: usize) -> f64 {
    let window = window.max(1);
    let full = (v.len() / window).max(1);
    (0..full)
        .map(|w| {
            let end = if w + 1 == full {
                v.len()
            } else {
                (w + 1) * window
            };
            median(&v[w * window..end])
        })
        .fold(f64::MAX, f64::min)
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// How long a measured phase runs: a wall-clock allowance for reportable
/// runs, a fixed count of units for `--smoke`.
#[derive(Clone, Copy)]
pub enum Budget {
    Seconds(f64),
    Units(usize),
}

impl Budget {
    /// Whether to start unit number `done` (0-based). Under a time budget
    /// a unit starts only if one more of the mean length seen so far still
    /// fits, so the phase overruns by less than one unit.
    pub fn allows(self, started: Instant, done: usize) -> bool {
        match self {
            Budget::Units(n) => done < n,
            Budget::Seconds(s) => {
                let spent = started.elapsed().as_secs_f64();
                done == 0 || spent + spent / done as f64 <= s
            }
        }
    }

    pub fn scaled(self, share: f64) -> Budget {
        match self {
            Budget::Seconds(s) => Budget::Seconds(s * share),
            units => units,
        }
    }
}

/// Where everything the harness writes goes: `benchmark/out/`, found from
/// the manifest directory so the working directory does not matter.
pub fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

static NEXT_TMP: AtomicU64 = AtomicU64::new(0);

/// A scratch directory under `benchmark/out/`, removed on drop. The index
/// files live here, so they are on the checkout's file system and the
/// harness never writes outside the checkout.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(name: &str) -> Self {
        let n = NEXT_TMP.fetch_add(1, Ordering::Relaxed);
        let path = out_dir().join(format!("tmp-{}-{n}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch directory");
        TempDir(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Total size of the regular files directly inside `dir`: delta file,
/// segments, WALs and manifest of one index.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("read index directory")
        .filter_map(Result::ok)
        .filter_map(|e| e.metadata().ok())
        .filter(std::fs::Metadata::is_file)
        .map(|m| m.len())
        .sum()
}

/// Copy the regular files of `from` into `to` (one closed index).
pub fn copy_dir(from: &Path, to: &Path) {
    for entry in std::fs::read_dir(from).expect("read index directory") {
        let entry = entry.expect("read directory entry");
        if entry.metadata().is_ok_and(|m| m.is_file()) {
            std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy index file");
        }
    }
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Short git revision of the checkout, `unknown` where there is none (the
/// driver's checkouts are not git repositories).
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A float as JSON: all the digits Rust prints, never `NaN` or `inf`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
