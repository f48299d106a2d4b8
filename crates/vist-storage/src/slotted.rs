//! Slotted-page layout for variable-length records.
//!
//! A slotted region lives inside a page buffer, after a caller-reserved
//! header area (`base` bytes — the B+Tree keeps its node header there).
//!
//! ```text
//! base +0   u16  slot count (n)
//!      +2   u16  cell_start: offset (from base) of the lowest cell byte
//!      +4   u16  live bytes: sum of live cell lengths (for defrag math)
//!      +6   slot directory, 4 bytes per slot: [cell offset u16][cell len u16]
//!      ...  free space ...
//!      cell_start .. region end: cells, allocated from the top down
//! ```
//!
//! Removal leaves holes that are reclaimed by an automatic defragmentation
//! pass when an insert needs the space. Slot indices are *positional*:
//! inserting at slot `i` shifts later slots up, exactly what a sorted B+Tree
//! node needs.

use crate::{Error, Result};

/// Index of a record within a page.
pub type SlotId = u16;

const H_NSLOTS: usize = 0;
const H_CELL_START: usize = 2;
const H_LIVE: usize = 4;
const HDR: usize = 6;
const SLOT: usize = 4;

/// Read-only view of a slotted region.
pub struct SlottedPage<'a> {
    buf: &'a [u8],
    base: usize,
}

/// Mutable view of a slotted region.
pub struct SlottedPageMut<'a> {
    buf: &'a mut [u8],
    base: usize,
}

fn get_u16(buf: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([buf[at], buf[at + 1]])
}

fn put_u16(buf: &mut [u8], at: usize, v: u16) {
    buf[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

macro_rules! shared_impl {
    ($ty:ident) => {
        impl<'a> $ty<'a> {
            /// Number of records on the page.
            #[must_use]
            pub fn slot_count(&self) -> u16 {
                get_u16(self.buf, self.base + H_NSLOTS)
            }

            fn cell_start(&self) -> usize {
                get_u16(self.buf, self.base + H_CELL_START) as usize
            }

            fn live_bytes(&self) -> usize {
                get_u16(self.buf, self.base + H_LIVE) as usize
            }

            fn region_len(&self) -> usize {
                self.buf.len() - self.base
            }

            /// Contiguous free bytes between the slot directory and cells.
            #[must_use]
            pub fn contiguous_free(&self) -> usize {
                let dir_end = HDR + self.slot_count() as usize * SLOT;
                self.cell_start().saturating_sub(dir_end)
            }

            /// Free bytes recoverable by defragmentation (total usable).
            #[must_use]
            pub fn total_free(&self) -> usize {
                let dir_end = HDR + self.slot_count() as usize * SLOT;
                self.region_len() - dir_end - self.live_bytes()
            }
        }
    };
}

shared_impl!(SlottedPage);
shared_impl!(SlottedPageMut);

fn check_slot(count: u16, i: SlotId) -> Result<()> {
    if i >= count {
        return Err(Error::Corrupt(format!(
            "slot {i} out of range ({count} slots)"
        )));
    }
    Ok(())
}

/// The record in slot `i` of the slotted region at `base` of `buf`. Total: a
/// slot count, directory entry or cell extent that the page cannot back
/// (bytes that passed the page checksum but are wrong) is
/// [`Error::Corrupt`], not a panic — every B+Tree read goes through here.
#[inline]
fn cell_in(buf: &[u8], base: usize, i: SlotId) -> Result<&[u8]> {
    check_slot(get_u16(buf, base + H_NSLOTS), i)?;
    let at = base + HDR + i as usize * SLOT;
    buf.get(at..at + SLOT)
        .and_then(|d| {
            let off = base + usize::from(u16::from_le_bytes([d[0], d[1]]));
            let len = usize::from(u16::from_le_bytes([d[2], d[3]]));
            buf.get(off..off + len)
        })
        .ok_or_else(|| {
            Error::Corrupt(format!(
                "slot {i}: directory entry or cell extent lies outside the page"
            ))
        })
}

impl<'a> SlottedPage<'a> {
    /// View an already-initialized slotted region starting `base` bytes into
    /// `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8], base: usize) -> Self {
        debug_assert!(buf.len() >= base + HDR);
        SlottedPage { buf, base }
    }

    /// The record stored in slot `i`. The returned slice borrows the page
    /// buffer (not this view), so it outlives the `SlottedPage` value.
    #[inline]
    pub fn cell(&self, i: SlotId) -> Result<&'a [u8]> {
        cell_in(self.buf, self.base, i)
    }
}

impl<'a> SlottedPageMut<'a> {
    /// View an already-initialized slotted region.
    #[must_use]
    pub fn new(buf: &'a mut [u8], base: usize) -> Self {
        debug_assert!(buf.len() >= base + HDR);
        SlottedPageMut { buf, base }
    }

    fn slot_at(&self, i: SlotId) -> (usize, usize) {
        let at = self.base + HDR + (i as usize) * SLOT;
        (
            get_u16(self.buf, at) as usize,
            get_u16(self.buf, at + 2) as usize,
        )
    }

    /// The record stored in slot `i`.
    pub fn cell(&self, i: SlotId) -> Result<&[u8]> {
        cell_in(self.buf, self.base, i)
    }

    /// Initialize an empty slotted region (erases all records).
    pub fn init(buf: &'a mut [u8], base: usize) -> Self {
        debug_assert!(buf.len() >= base + HDR + SLOT);
        // cell_start == region_len means "no cells yet"; region_len is at
        // most 65530 for a 64 KiB page with base >= 6, so it fits in u16.
        let region_len = buf.len() - base;
        let page = SlottedPageMut { buf, base };
        put_u16(page.buf, base + H_NSLOTS, 0);
        put_u16(page.buf, base + H_LIVE, 0);
        put_u16(page.buf, base + H_CELL_START, region_len as u16);
        page
    }

    fn set_slot(&mut self, i: SlotId, off: usize, len: usize) {
        let at = self.base + HDR + (i as usize) * SLOT;
        put_u16(self.buf, at, off as u16);
        put_u16(self.buf, at + 2, len as u16);
    }

    /// Insert `data` as a new record at positional slot `i`, shifting later
    /// slots up. Defragments if needed; errors if the record cannot fit.
    pub fn insert(&mut self, i: SlotId, data: &[u8]) -> Result<()> {
        let n = self.slot_count();
        if i > n {
            return Err(Error::Corrupt(format!("insert slot {i} > count {n}")));
        }
        let needed = SLOT + data.len();
        if needed > self.total_free() {
            return Err(Error::PageOverflow {
                requested: needed,
                available: self.total_free(),
            });
        }
        if needed > self.contiguous_free() {
            self.defragment();
        }
        debug_assert!(needed <= self.contiguous_free());
        // Allocate the cell from the top of free space.
        let new_start = self.cell_start() - data.len();
        self.buf[self.base + new_start..self.base + new_start + data.len()].copy_from_slice(data);
        // Shift the slot directory.
        let dir_from = self.base + HDR + (i as usize) * SLOT;
        let dir_to = self.base + HDR + (n as usize) * SLOT;
        self.buf.copy_within(dir_from..dir_to, dir_from + SLOT);
        self.set_slot(i, new_start, data.len());
        put_u16(self.buf, self.base + H_NSLOTS, n + 1);
        put_u16(self.buf, self.base + H_CELL_START, new_start as u16);
        let live = self.live_bytes() + data.len();
        put_u16(self.buf, self.base + H_LIVE, live as u16);
        Ok(())
    }

    /// Remove the record at slot `i`, shifting later slots down.
    pub fn remove(&mut self, i: SlotId) -> Result<()> {
        let n = self.slot_count();
        if i >= n {
            return Err(Error::Corrupt(format!("remove slot {i} >= count {n}")));
        }
        let (_, len) = self.slot_at(i);
        let dir_from = self.base + HDR + (i as usize + 1) * SLOT;
        let dir_to = self.base + HDR + (n as usize) * SLOT;
        self.buf.copy_within(dir_from..dir_to, dir_from - SLOT);
        put_u16(self.buf, self.base + H_NSLOTS, n - 1);
        let live = self.live_bytes() - len;
        put_u16(self.buf, self.base + H_LIVE, live as u16);
        Ok(())
    }

    /// Replace the record at slot `i` with `data`.
    pub fn replace(&mut self, i: SlotId, data: &[u8]) -> Result<()> {
        let n = self.slot_count();
        if i >= n {
            return Err(Error::Corrupt(format!("replace slot {i} >= count {n}")));
        }
        let (off, len) = self.slot_at(i);
        if data.len() <= len {
            // Overwrite in place; the tail of the old cell becomes a hole.
            self.buf[self.base + off..self.base + off + data.len()].copy_from_slice(data);
            self.set_slot(i, off, data.len());
            let live = self.live_bytes() - len + data.len();
            put_u16(self.buf, self.base + H_LIVE, live as u16);
            return Ok(());
        }
        let extra = data.len() - len;
        if extra > self.total_free() {
            return Err(Error::PageOverflow {
                requested: extra,
                available: self.total_free(),
            });
        }
        self.remove(i)?;
        self.insert(i, data)
    }

    /// Compact all live cells to the top of the region, erasing holes.
    pub fn defragment(&mut self) {
        // The cells move, in slot order, out of one copy of the region: a
        // cell may land on bytes a later one has not left yet.
        let old = self.buf[self.base..].to_vec();
        let mut cursor = self.region_len();
        for i in 0..self.slot_count() {
            let (off, len) = self.slot_at(i);
            cursor -= len;
            self.buf[self.base + cursor..self.base + cursor + len]
                .copy_from_slice(&old[off..off + len]);
            self.set_slot(i, cursor, len);
        }
        put_u16(self.buf, self.base + H_CELL_START, cursor as u16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(size: usize) -> Vec<u8> {
        vec![0u8; size]
    }

    #[test]
    fn insert_and_read_in_order() {
        let mut buf = page(256);
        let mut p = SlottedPageMut::init(&mut buf, 8);
        p.insert(0, b"bb").unwrap();
        p.insert(0, b"aa").unwrap();
        p.insert(2, b"cc").unwrap();
        assert_eq!(p.slot_count(), 3);
        assert_eq!(p.cell(0).unwrap(), b"aa");
        assert_eq!(p.cell(1).unwrap(), b"bb");
        assert_eq!(p.cell(2).unwrap(), b"cc");
        // Read-only view agrees.
        let _ = p;
        let r = SlottedPage::new(&buf, 8);
        assert_eq!(r.cell(1).unwrap(), b"bb");
    }

    #[test]
    fn remove_shifts_slots() {
        let mut buf = page(256);
        let mut p = SlottedPageMut::init(&mut buf, 0);
        for (i, s) in ["a", "b", "c", "d"].iter().enumerate() {
            p.insert(i as u16, s.as_bytes()).unwrap();
        }
        p.remove(1).unwrap();
        assert_eq!(p.slot_count(), 3);
        assert_eq!(p.cell(0).unwrap(), b"a");
        assert_eq!(p.cell(1).unwrap(), b"c");
        assert_eq!(p.cell(2).unwrap(), b"d");
    }

    #[test]
    fn defragment_reclaims_holes() {
        let mut buf = page(128);
        let mut p = SlottedPageMut::init(&mut buf, 0);
        // Fill with 10-byte records until full.
        let rec = [0x11u8; 10];
        let mut n = 0u16;
        while p.insert(n, &rec).is_ok() {
            n += 1;
        }
        assert!(n >= 8, "expected several records, got {n}");
        // Remove every other record, then a larger record must fit via defrag.
        let mut i = 0;
        while i < p.slot_count() {
            p.remove(i).unwrap();
            i += 1; // removing shifts, so this skips one
        }
        let big = [0x22u8; 24];
        p.insert(0, &big).unwrap();
        assert_eq!(p.cell(0).unwrap(), &big);
    }

    #[test]
    fn replace_grow_and_shrink() {
        let mut buf = page(128);
        let mut p = SlottedPageMut::init(&mut buf, 0);
        p.insert(0, b"xxxxxxxx").unwrap();
        p.insert(1, b"yy").unwrap();
        p.replace(0, b"z").unwrap();
        assert_eq!(p.cell(0).unwrap(), b"z");
        assert_eq!(p.cell(1).unwrap(), b"yy");
        p.replace(0, b"wwwwwwwwwwwwwwww").unwrap();
        assert_eq!(p.cell(0).unwrap(), b"wwwwwwwwwwwwwwww");
        assert_eq!(p.cell(1).unwrap(), b"yy");
    }

    #[test]
    fn overflow_is_detected() {
        let mut buf = page(128);
        let mut p = SlottedPageMut::init(&mut buf, 0);
        let too_big = vec![0u8; 200];
        assert!(matches!(
            p.insert(0, &too_big),
            Err(Error::PageOverflow { .. })
        ));
        // Page still usable.
        p.insert(0, b"ok").unwrap();
        assert_eq!(p.cell(0).unwrap(), b"ok");
    }

    #[test]
    fn out_of_range_slots_error() {
        let mut buf = page(128);
        let mut p = SlottedPageMut::init(&mut buf, 0);
        assert!(p.cell(0).is_err());
        assert!(p.remove(0).is_err());
        assert!(p.replace(0, b"x").is_err());
        assert!(p.insert(1, b"x").is_err());
    }

    #[test]
    fn stress_random_ops_match_vec_model() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut buf = page(1024);
        let mut p = SlottedPageMut::init(&mut buf, 16);
        let mut model: Vec<Vec<u8>> = Vec::new();
        let mut seed = 0xDEADBEEFu64;
        let mut rnd = move || {
            let mut h = DefaultHasher::new();
            seed.hash(&mut h);
            seed = h.finish();
            seed
        };
        for step in 0..2000 {
            let r = rnd();
            let op = r % 3;
            if op < 2 || model.is_empty() {
                let len = (r >> 8) as usize % 20 + 1;
                let byte = (step % 251) as u8;
                let data = vec![byte; len];
                let at = (r >> 16) as usize % (model.len() + 1);
                match p.insert(at as u16, &data) {
                    Ok(()) => model.insert(at, data),
                    Err(Error::PageOverflow { .. }) => {
                        // Model must agree that it's nearly full.
                        let used: usize = model.iter().map(|c| c.len() + 4).sum();
                        assert!(used + data.len() + 4 + 6 > 1024 - 16);
                    }
                    Err(e) => panic!("unexpected: {e}"),
                }
            } else {
                let at = (r >> 16) as usize % model.len();
                p.remove(at as u16).unwrap();
                model.remove(at);
            }
            assert_eq!(p.slot_count() as usize, model.len());
            for (i, cell) in model.iter().enumerate() {
                assert_eq!(p.cell(i as u16).unwrap(), &cell[..], "step {step}");
            }
        }
    }
}
