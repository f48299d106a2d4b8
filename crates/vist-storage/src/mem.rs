//! In-memory pager, used for tests and transient indexes.

use crate::pager::check_page_size;
use crate::{Error, IoStats, PageId, Pager, Result};

/// A [`Pager`] backed by heap memory.
///
/// Page ids start at 0. Reads of never-written pages see zeroes, matching
/// [`crate::FilePager`] semantics.
pub struct MemPager {
    page_size: usize,
    pages: Vec<Box<[u8]>>,
    stats: IoStats,
}

impl MemPager {
    /// Create an empty in-memory pager with the given page size.
    ///
    /// # Panics
    /// Panics if `page_size` is unsupported (use powers of two in
    /// `[MIN_PAGE_SIZE, MAX_PAGE_SIZE]`).
    #[must_use]
    pub fn new(page_size: usize) -> Self {
        check_page_size(page_size).expect("unsupported page size");
        MemPager {
            page_size,
            pages: Vec::new(),
            stats: IoStats::default(),
        }
    }

    fn slot(&self, id: PageId) -> Result<usize> {
        let idx = id as usize;
        if idx >= self.pages.len() {
            return Err(Error::InvalidPage(u64::from(id)));
        }
        Ok(idx)
    }
}

impl Pager for MemPager {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn allocate(&mut self) -> Result<PageId> {
        self.stats.allocations += 1;
        let id = PageId::try_from(self.pages.len())
            .map_err(|_| Error::Corrupt("page id space exhausted".into()))?;
        if id == crate::INVALID_PAGE {
            return Err(Error::Corrupt("page id space exhausted".into()));
        }
        self.pages
            .push(vec![0u8; self.page_size].into_boxed_slice());
        Ok(id)
    }

    fn read(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), self.page_size);
        let idx = self.slot(id)?;
        buf.copy_from_slice(&self.pages[idx]);
        self.stats.reads += 1;
        Ok(())
    }

    fn write(&mut self, id: PageId, buf: &[u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), self.page_size);
        let idx = self.slot(id)?;
        self.pages[idx].copy_from_slice(buf);
        self.stats.writes += 1;
        Ok(())
    }

    fn store_bytes(&self) -> u64 {
        (self.pages.len() * self.page_size) as u64
    }

    fn sync(&mut self) -> Result<()> {
        Ok(())
    }

    fn reset(&mut self) -> Result<()> {
        self.pages.clear();
        Ok(())
    }

    fn stats(&self) -> IoStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_write_read_roundtrip() {
        let mut p = MemPager::new(256);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        assert_ne!(a, b);
        let mut buf = vec![0u8; 256];
        buf[0] = 0xAB;
        p.write(a, &buf).unwrap();
        let mut out = vec![0u8; 256];
        p.read(a, &mut out).unwrap();
        assert_eq!(out[0], 0xAB);
        p.read(b, &mut out).unwrap();
        assert_eq!(out[0], 0, "fresh page reads as zeroes");
    }

    /// A reset is the only way pages are freed: every id is forgotten, the
    /// ids start over, and a page handed out again reads as zeroes.
    #[test]
    fn free_recycles_and_zeroes() {
        let mut p = MemPager::new(256);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        p.write(b, &[0xFFu8; 256]).unwrap();
        p.reset().unwrap();
        assert!(
            p.read(b, &mut [0u8; 256]).is_err(),
            "forgotten page invalid"
        );
        assert_eq!(p.allocate().unwrap(), a, "ids start over");
        assert_eq!(p.allocate().unwrap(), b);
        let mut out = [0xEEu8; 256];
        p.read(b, &mut out).unwrap();
        assert!(
            out.iter().all(|&x| x == 0),
            "a page handed out again is zeroed"
        );
    }

    /// With no free list every page handed out is live until a reset, so
    /// the store is the live pages times the page size.
    #[test]
    fn live_pages_and_store_bytes() {
        let mut p = MemPager::new(256);
        assert_eq!(p.store_bytes(), 0);
        p.allocate().unwrap();
        p.allocate().unwrap();
        assert_eq!(p.store_bytes(), 512);
        p.reset().unwrap();
        assert_eq!(p.store_bytes(), 0, "a reset forgets every page");
        p.allocate().unwrap();
        assert_eq!(p.store_bytes(), 256);
    }

    #[test]
    fn stats_count_operations() {
        let mut p = MemPager::new(256);
        let a = p.allocate().unwrap();
        p.write(a, &vec![0u8; 256]).unwrap();
        p.read(a, &mut vec![0u8; 256]).unwrap();
        let s = p.stats();
        assert_eq!((s.allocations, s.writes, s.reads), (1, 1, 1));
    }

    #[test]
    #[should_panic(expected = "unsupported page size")]
    fn bad_page_size_panics() {
        let _ = MemPager::new(100);
    }
}
