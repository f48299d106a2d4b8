//! Deterministic fault injection for crash-recovery testing.
//!
//! [`FaultVfs`] interposes on the [`Vfs`]/[`VFile`] seam under
//! [`crate::FilePager`]. In `Crash` mode the scheduled write persists only
//! a *seeded prefix* of its buffer (a torn write — exactly what a power
//! loss mid-`pwrite` does) and every later operation fails, as if the
//! process died. This is what the crash-recovery property tests iterate:
//! crash at every operation index, reopen, assert the store equals its
//! last checkpoint.
//!
//! It is controlled through a cloneable [`FaultHandle`], so a test keeps
//! control after handing the wrapper to a pool or pager. Everything is
//! deterministic: the torn-prefix length is `splitmix64(seed ^ op_index)`
//! reduced modulo `len + 1`, never a clock or OS entropy.

use crate::vfs::{OpenMode, VFile, Vfs};
use crate::Error;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// What happens when the scheduled operation index is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// The operation fails once; subsequent operations succeed. Models a
    /// transient error (`EIO`, `ENOSPC`) the caller is expected to survive.
    Fail,
    /// The operation fails and **every operation after it fails too**, as if
    /// the process was killed. A scheduled write first persists a seeded
    /// prefix of its buffer (a torn write).
    Crash,
}

const MODE_NONE: u8 = 0;
const MODE_FAIL: u8 = 1;
const MODE_CRASH: u8 = 2;

/// No fault scheduled.
const NEVER: u64 = u64::MAX;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn injected() -> io::Error {
    io::Error::other("injected fault")
}

/// True if `e` is a fault produced by this module (vs. a real I/O failure).
#[must_use]
pub fn is_injected(e: &Error) -> bool {
    matches!(e, Error::Io(io) if io.get_ref().is_some_and(|r| r.to_string() == "injected fault"))
}

#[derive(Default)]
struct Shared {
    ops: AtomicU64,
    fault_at: AtomicU64,
    mode: AtomicU8,
    seed: AtomicU64,
    crashed: AtomicBool,
}

enum Verdict {
    Proceed,
    /// Fail this op; later ops proceed.
    FailOnce,
    /// Fail this op and all later ones; payload seeds the torn prefix.
    CrashNow(u64),
    /// A crash already happened; everything fails.
    Dead,
}

impl Shared {
    fn new() -> Arc<Self> {
        let s = Shared::default();
        s.fault_at.store(NEVER, Ordering::Relaxed);
        Arc::new(s)
    }

    fn step(&self) -> Verdict {
        if self.crashed.load(Ordering::Acquire) {
            return Verdict::Dead;
        }
        let n = self.ops.fetch_add(1, Ordering::Relaxed);
        if n != self.fault_at.load(Ordering::Relaxed) {
            return Verdict::Proceed;
        }
        match self.mode.load(Ordering::Relaxed) {
            MODE_FAIL => Verdict::FailOnce,
            MODE_CRASH => {
                self.crashed.store(true, Ordering::Release);
                Verdict::CrashNow(splitmix64(self.seed.load(Ordering::Relaxed) ^ n))
            }
            _ => Verdict::Proceed,
        }
    }
}

/// Control handle for a [`FaultVfs`]; clone freely.
#[derive(Clone)]
pub struct FaultHandle(Arc<Shared>);

impl FaultHandle {
    /// Operations observed so far (including the faulted one).
    #[must_use]
    pub fn op_count(&self) -> u64 {
        self.0.ops.load(Ordering::Relaxed)
    }

    /// Schedule a fault at the `n`th operation from now on (0-based over the
    /// *cumulative* count — call [`FaultHandle::reset`] first to re-anchor).
    pub fn schedule(&self, n: u64, mode: FaultMode, seed: u64) {
        self.0.seed.store(seed, Ordering::Relaxed);
        self.0.mode.store(
            match mode {
                FaultMode::Fail => MODE_FAIL,
                FaultMode::Crash => MODE_CRASH,
            },
            Ordering::Relaxed,
        );
        self.0.fault_at.store(n, Ordering::Relaxed);
    }

    /// Clear any schedule, un-crash, and zero the operation counter.
    pub fn reset(&self) {
        self.0.fault_at.store(NEVER, Ordering::Relaxed);
        self.0.mode.store(MODE_NONE, Ordering::Relaxed);
        self.0.crashed.store(false, Ordering::Release);
        self.0.ops.store(0, Ordering::Relaxed);
    }

    /// Has a `Crash` fault fired?
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.0.crashed.load(Ordering::Acquire)
    }
}

// ---------------------------------------------------------------------------
// VFS-level injection
// ---------------------------------------------------------------------------

/// A [`Vfs`] wrapper that fails or "crashes" at a scheduled operation index.
///
/// Counted operations: `open`, `sync_parent_dir`, and every `read_at` /
/// `write_at` / `set_len` / `sync` on files it has opened. `len` and
/// `remove` add no crash state and are not counted; both fail after a crash.
#[derive(Clone)]
pub struct FaultVfs {
    inner: Arc<dyn Vfs>,
    shared: Arc<Shared>,
}

impl FaultVfs {
    /// Wrap `inner`; no fault is scheduled until [`FaultHandle::schedule`].
    #[must_use]
    pub fn new(inner: Arc<dyn Vfs>) -> Self {
        FaultVfs {
            inner,
            shared: Shared::new(),
        }
    }

    /// The control handle shared by all files opened through this VFS.
    #[must_use]
    pub fn handle(&self) -> FaultHandle {
        FaultHandle(Arc::clone(&self.shared))
    }
}

struct FaultFile {
    inner: Box<dyn VFile>,
    shared: Arc<Shared>,
}

impl VFile for FaultFile {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        match self.shared.step() {
            Verdict::Proceed => self.inner.read_at(offset, buf),
            _ => Err(injected()),
        }
    }

    fn write_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        match self.shared.step() {
            Verdict::Proceed => self.inner.write_at(offset, buf),
            Verdict::CrashNow(r) => {
                // Torn write: a seeded prefix reaches the platter, the rest
                // does not. `% (len + 1)` so both "nothing" and "everything"
                // are reachable outcomes.
                let keep = (r % (buf.len() as u64 + 1)) as usize;
                if keep > 0 {
                    let _ = self.inner.write_at(offset, &buf[..keep]);
                }
                Err(injected())
            }
            _ => Err(injected()),
        }
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        match self.shared.step() {
            Verdict::Proceed => self.inner.set_len(len),
            _ => Err(injected()),
        }
    }

    fn len(&mut self) -> io::Result<u64> {
        if self.shared.crashed.load(Ordering::Acquire) {
            return Err(injected());
        }
        self.inner.len()
    }

    fn sync(&mut self) -> io::Result<()> {
        match self.shared.step() {
            Verdict::Proceed => self.inner.sync(),
            _ => Err(injected()),
        }
    }
}

impl Vfs for FaultVfs {
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn VFile>> {
        match self.shared.step() {
            Verdict::Proceed => Ok(Box::new(FaultFile {
                inner: self.inner.open(path, mode)?,
                shared: Arc::clone(&self.shared),
            })),
            _ => Err(injected()),
        }
    }

    fn sync_parent_dir(&self, path: &Path) -> io::Result<()> {
        match self.shared.step() {
            Verdict::Proceed => self.inner.sync_parent_dir(path),
            _ => Err(injected()),
        }
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        if self.shared.crashed.load(Ordering::Acquire) {
            return Err(injected());
        }
        self.inner.remove(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;
    use crate::vfs::RealVfs;

    #[test]
    fn fail_is_one_shot() {
        let dir = TempDir::new("fault-fail");
        let vfs = FaultVfs::new(Arc::new(RealVfs));
        let h = vfs.handle();
        h.schedule(2, FaultMode::Fail, 0);
        let mut f = vfs.open(&dir.file("f"), OpenMode::CreateTruncate).unwrap(); // op 0
        f.write_at(0, &[1u8; 128]).unwrap(); // op 1
        let err = Error::Io(f.write_at(0, &[2u8; 128]).unwrap_err()); // op 2: injected
        assert!(is_injected(&err), "got {err}");
        f.write_at(0, &[3u8; 128]).unwrap(); // op 3: recovered
        let mut buf = [0u8; 128];
        f.read_at(0, &mut buf).unwrap();
        assert_eq!(buf[0], 3);
        assert!(!h.crashed());
        assert_eq!(h.op_count(), 5);
    }

    #[test]
    fn crash_is_permanent() {
        let dir = TempDir::new("fault-crash");
        let vfs = FaultVfs::new(Arc::new(RealVfs));
        let h = vfs.handle();
        h.schedule(1, FaultMode::Crash, 7);
        let mut f = vfs.open(&dir.file("f"), OpenMode::CreateTruncate).unwrap();
        assert!(f.write_at(0, &[1u8; 128]).is_err());
        assert!(f.read_at(0, &mut [0u8; 128]).is_err());
        assert!(f.sync().is_err());
        assert!(h.crashed());
        // A dead process removes nothing; a removal is never counted.
        let ops = h.op_count();
        assert!(vfs.remove(&dir.file("f")).is_err());
        assert!(dir.file("f").exists() && h.op_count() == ops);
        h.reset();
        f.write_at(0, &[1u8; 128]).unwrap();
        vfs.remove(&dir.file("f")).unwrap();
        assert!(!dir.file("f").exists() && h.op_count() == 1);
    }

    #[test]
    fn torn_write_persists_seeded_prefix() {
        let dir = TempDir::new("fault-torn");
        let path = dir.file("f");
        let run = |seed: u64| -> Vec<u8> {
            let _ = std::fs::remove_file(&path);
            let vfs = FaultVfs::new(Arc::new(RealVfs));
            let h = vfs.handle();
            let mut f = vfs.open(&path, OpenMode::CreateTruncate).unwrap(); // op 0
            f.write_at(0, &[0xEE; 64]).unwrap(); // op 1
            h.schedule(2, FaultMode::Crash, seed);
            assert!(f.write_at(0, &[0x11; 64]).is_err()); // op 2: torn
            assert!(f.sync().is_err(), "dead after crash");
            drop(f);
            std::fs::read(&path).unwrap()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "torn prefix is deterministic per seed");
        assert_eq!(a.len(), 64);
        // The file is 0x11 for the torn prefix, 0xEE beyond it.
        let torn = a.iter().take_while(|&&x| x == 0x11).count();
        assert!(a[torn..].iter().all(|&x| x == 0xEE));
        // Some other seed gives some other prefix (42/43 chosen to differ).
        let c = run(43);
        let torn_c = c.iter().take_while(|&&x| x == 0x11).count();
        assert_ne!(torn, torn_c, "seed varies the tear point");
    }

    #[test]
    fn vfs_open_is_counted_and_crashable() {
        let dir = TempDir::new("fault-open");
        let vfs = FaultVfs::new(Arc::new(RealVfs));
        let h = vfs.handle();
        h.schedule(0, FaultMode::Crash, 0);
        assert!(vfs.open(&dir.file("f"), OpenMode::CreateTruncate).is_err());
        assert!(vfs.sync_parent_dir(&dir.file("f")).is_err());
        assert!(h.crashed());
    }
}
