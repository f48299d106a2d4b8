//! The [`Pager`] trait: fixed-size page allocation and I/O.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::{IoStats, Result};

/// Identifier of a page within a pager. Page ids are dense `u32`s; page 0 is
/// reserved by [`crate::FilePager`] for its header and is never handed out.
pub type PageId = u32;

/// Sentinel page id used for "null" links (e.g. end of a leaf chain).
pub const INVALID_PAGE: PageId = u32::MAX;

/// Hasher of every map keyed by [`PageId`]: page ids are dense integers
/// handed out by the pager, so one multiply spreading them over the table's
/// index and tag bits replaces SipHash.
#[derive(Default)]
pub(crate) struct PageIdHasher(u64);

impl Hasher for PageIdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("PageId hashes through write_u32");
    }

    fn write_u32(&mut self, pid: u32) {
        self.0 = u64::from(pid).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by page id (the pool's frame maps, the pager's pending
/// writes, the committed images of a WAL scan).
pub(crate) type PageIdMap<V> = HashMap<PageId, V, BuildHasherDefault<PageIdHasher>>;

/// Bytes of page images written with one system call: a chunk of
/// [`crate::BufferPool::flush`]'s dirty pages handed to
/// [`Pager::write_many`], the WAL records [`crate::FilePager`] appends for
/// them, a run of frames its checkpoint writes.
const WRITE_CHUNK_BYTES: usize = 1 << 20;

/// Pages of `page_size` bytes in one write chunk (16 at the largest page
/// size).
pub(crate) fn chunk_pages(page_size: usize) -> usize {
    WRITE_CHUNK_BYTES / page_size
}

/// Abstraction over a store of fixed-size pages.
///
/// Implementations hand out dense page ids in ascending order, each valid
/// until the next [`Pager::reset`], and must persist `write` data so a
/// subsequent `read` observes it. No page is freed on its own: a store
/// only grows, until a reset forgets every page at once. Durability across
/// process restarts is only required of [`crate::FilePager`] (after
/// [`Pager::sync`]).
pub trait Pager: Send {
    /// Size in bytes of every page in this store.
    fn page_size(&self) -> usize;

    /// Allocate a fresh, zeroed page and return its id: the lowest id the
    /// store has not handed out since it was created or last reset.
    fn allocate(&mut self) -> Result<PageId>;

    /// Read page `id` into `buf` (`buf.len() == page_size()`).
    fn read(&mut self, id: PageId, buf: &mut [u8]) -> Result<()>;

    /// Write `buf` (`buf.len() == page_size()`) to page `id`.
    fn write(&mut self, id: PageId, buf: &[u8]) -> Result<()>;

    /// [`Pager::write`] each `(id, buf)` of `pages`, in order. A pager that
    /// can write several pages with one system call does. After an error
    /// the caller assumes none of them was written, and writes them again.
    fn write_many(&mut self, pages: &[(PageId, &[u8])]) -> Result<()> {
        pages.iter().try_for_each(|&(id, buf)| self.write(id, buf))
    }

    /// Total size of the underlying store in bytes (every allocated page
    /// and any header); this is what "index size" experiments report.
    fn store_bytes(&self) -> u64;

    /// Flush buffered writes to durable storage.
    fn sync(&mut self) -> Result<()>;

    /// [`Pager::sync`], then leave nothing to replay (a [`crate::FilePager`]
    /// may defer that step past a sync).
    fn checkpoint(&mut self) -> Result<()> {
        self.sync()
    }

    /// Forget every page: the store is empty again, and the next
    /// [`Pager::allocate`] returns its first page id. A
    /// [`crate::FilePager`] checkpoints first, so its files hold the last
    /// commit until the next one replaces it with the emptied store.
    fn reset(&mut self) -> Result<()>;

    /// Cumulative I/O statistics.
    fn stats(&self) -> IoStats;
}

pub(crate) fn check_page_size(size: usize) -> Result<()> {
    if !(crate::MIN_PAGE_SIZE..=crate::MAX_PAGE_SIZE).contains(&size) || !size.is_power_of_two() {
        return Err(crate::Error::BadPageSize(size));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_size_validation() {
        assert!(check_page_size(4096).is_ok());
        assert!(check_page_size(128).is_ok());
        assert!(check_page_size(127).is_err());
        assert!(check_page_size(3000).is_err());
        assert!(check_page_size(1 << 17).is_err());
    }
}
