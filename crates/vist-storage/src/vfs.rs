//! Minimal file-system seam under [`crate::FilePager`].
//!
//! All durable I/O (the data file and its write-ahead log) goes through
//! [`Vfs`]/[`VFile`] so tests can interpose [`crate::FaultVfs`] and fail or
//! "crash" the store at an exact I/O operation — including torn writes that
//! persist only a prefix of a buffer, the failure mode the WAL exists to
//! survive. Production code uses [`RealVfs`], a thin wrapper over
//! `std::fs::File`.

use std::fs::{File, OpenOptions};
use std::io;
use std::path::Path;

/// How [`Vfs::open`] should treat an existing file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// Create the file, truncating any existing content.
    CreateTruncate,
    /// Open an existing file; error if absent.
    MustExist,
    /// Open if present, create empty otherwise.
    OpenOrCreate,
}

/// A random-access file handle.
///
/// `len` takes `&mut self` (it may hit the file system), so the usual
/// `is_empty` pairing does not apply.
#[allow(clippy::len_without_is_empty)]
pub trait VFile: Send {
    /// Read exactly `buf.len()` bytes at `offset`.
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()>;

    /// Write all of `buf` at `offset`, extending the file if needed.
    fn write_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()>;

    /// Truncate or extend the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;

    /// Current file length in bytes.
    fn len(&mut self) -> io::Result<u64>;

    /// Flush file contents (and metadata) to durable storage.
    fn sync(&mut self) -> io::Result<()>;
}

/// A file-system namespace that can open [`VFile`]s.
pub trait Vfs: Send + Sync {
    /// Open `path` according to `mode`.
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn VFile>>;

    /// Fsync the directory containing `path`, making a just-created file's
    /// directory entry durable. Best-effort no-op where unsupported.
    fn sync_parent_dir(&self, path: &Path) -> io::Result<()>;
}

/// The real file system.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealVfs;

struct RealFile(File);

impl VFile for RealFile {
    // Unix: one positional call (`pread` / `pwrite`), no shared file cursor.
    #[cfg(unix)]
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        std::os::unix::fs::FileExt::read_exact_at(&self.0, buf, offset)
    }

    #[cfg(unix)]
    fn write_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        std::os::unix::fs::FileExt::write_all_at(&self.0, buf, offset)
    }

    #[cfg(not(unix))]
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        use std::io::{Read, Seek, SeekFrom};
        self.0.seek(SeekFrom::Start(offset))?;
        self.0.read_exact(buf)
    }

    #[cfg(not(unix))]
    fn write_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        use std::io::{Seek, SeekFrom, Write};
        self.0.seek(SeekFrom::Start(offset))?;
        self.0.write_all(buf)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }

    fn len(&mut self) -> io::Result<u64> {
        Ok(self.0.metadata()?.len())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
}

impl Vfs for RealVfs {
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn VFile>> {
        let mut opts = OpenOptions::new();
        opts.read(true).write(true);
        match mode {
            OpenMode::CreateTruncate => {
                opts.create(true).truncate(true);
            }
            OpenMode::MustExist => {}
            OpenMode::OpenOrCreate => {
                opts.create(true);
            }
        }
        Ok(Box::new(RealFile(opts.open(path)?)))
    }

    fn sync_parent_dir(&self, path: &Path) -> io::Result<()> {
        let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
        let Some(dir) = dir else { return Ok(()) };
        // Directory fsync is a Unix-ism; opening a directory read-only and
        // syncing it is the portable-enough idiom. Ignore platforms where
        // directories cannot be opened as files.
        match File::open(dir) {
            Ok(d) => d.sync_all(),
            Err(_) => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;

    #[test]
    fn real_file_roundtrip() {
        let dir = TempDir::new("vfs-roundtrip");
        let path = dir.path().join("f");
        let vfs = RealVfs;
        let mut f = vfs.open(&path, OpenMode::CreateTruncate).unwrap();
        f.write_at(0, b"hello").unwrap();
        f.write_at(8, b"world").unwrap();
        assert_eq!(f.len().unwrap(), 13);
        let mut buf = [0u8; 5];
        f.read_at(8, &mut buf).unwrap();
        assert_eq!(&buf, b"world");
        f.set_len(5).unwrap();
        assert_eq!(f.len().unwrap(), 5);
        f.sync().unwrap();
        vfs.sync_parent_dir(&path).unwrap();
        // Short read past EOF is an error, not a panic.
        assert!(f.read_at(3, &mut buf).is_err());
        // MustExist on a missing path errors.
        assert!(vfs
            .open(&dir.path().join("absent"), OpenMode::MustExist)
            .is_err());
    }
}
