//! Durable, crash-safe file-backed pager.
//!
//! # Layout
//!
//! The data file is a sequence of *frames*: `page_size` payload bytes
//! followed by an 8-byte trailer holding `crc32c(page_id ‖ payload)` (4
//! bytes) and 4 reserved bytes. The checksum covering the page id catches
//! misdirected writes, not just bit rot. Frame 0 is the header (magic,
//! page size, free-list head, high-water mark, live count). No page is
//! freed on its own: the head is always [`INVALID_PAGE`] and the live count
//! the high-water mark less one, for older readers; neither is read. A
//! [`Pager::reset`] forgets every page; the next checkpoint cuts the file.
//!
//! # Durability protocol
//!
//! Between checkpoints the data file is **never touched**. Every page write
//! — caller writes and buffer-pool eviction write-backs — appends a
//! checksummed record to a sidecar write-ahead log (`<path>.wal`, see
//! [`crate::wal`]), and an in-memory map remembers the newest WAL offset per
//! page so reads observe it. [`Pager::sync`] is the commit:
//!
//! 1. append the header image and zero-images for allocated-but-unwritten
//!    frames,
//! 2. fsync the log, seal it with a commit record, fsync it again.
//!
//! A commit that leaves the log at least as large as the data file
//! ([`Pager::store_bytes`]) goes on to the checkpoint, as does every
//! [`Pager::checkpoint`] call; otherwise the log keeps its records:
//!
//! 3. apply the newest committed image of every logged page to the data
//!    file and cut it down to the high-water mark, 4. fsync the data file,
//!    5. truncate the log.
//!
//! A crash at *any* step leaves the store recoverable: [`FilePager::open`]
//! replays every commit up to the last one (idempotently), cuts the data
//! file down to the replayed header's high-water mark, discards the log
//! tail after it and truncates the log. `docs/DURABILITY.md` walks the full
//! state machine; `tests/crash_recovery.rs` proves it at every injection
//! point.

use std::path::{Path, PathBuf};

use crate::crc::Crc32c;
use crate::pager::{check_page_size, chunk_pages, PageIdMap};
use crate::vfs::{OpenMode, RealVfs, VFile, Vfs};
use crate::wal::{Wal, WAL_HDR};
use crate::{Error, IoStats, PageId, Pager, Result, INVALID_PAGE};

const MAGIC: &[u8; 8] = b"VISTPG02";
const HDR_MAGIC: usize = 0;
const HDR_PAGE_SIZE: usize = 8;
const HDR_FREE_HEAD: usize = 12;
const HDR_HIGH_WATER: usize = 16;
const HDR_LIVE: usize = 20;
/// Bytes of the header page in use; the rest of the page is zero.
const HDR_LEN: usize = HDR_LIVE + 8;

/// Bytes appended to each page on disk: `crc32c(page_id ‖ payload)` plus
/// reserved padding.
pub const PAGE_TRAILER: usize = 8;

fn frame_crc(id: PageId, payload: &[u8]) -> u32 {
    let mut c = Crc32c::new();
    c.update(&id.to_le_bytes()).update(payload);
    c.finish()
}

/// A [`Pager`] persisting pages to a file, protected by a write-ahead log.
pub struct FilePager {
    data: Box<dyn VFile>,
    wal: Wal,
    page_size: usize,
    /// Next never-allocated page id (page 0 is the header).
    high_water: PageId,
    /// Frames `< durable_frames` hold valid checksummed images in the data
    /// file; higher ids live only in the WAL (`pending`) or are fresh zeros.
    durable_frames: PageId,
    /// A page was written or allocated, or the store reset, since the last
    /// commit.
    dirty: bool,
    /// Pages written since the last checkpoint, committed or not: id →
    /// newest WAL offset.
    pending: PageIdMap<u64>,
    /// Staging buffer of one frame (payload ‖ trailer): every data-file
    /// read, and the header frame a new store writes, pass through it.
    frame: Vec<u8>,
    /// Staging buffer of one write chunk: the WAL records of an append, the
    /// frames of a checkpoint's run. It grows to [`chunk_pages`] records
    /// once and is reused from then on.
    staging: Vec<u8>,
    stats: IoStats,
}

impl FilePager {
    /// Create a new store at `path`, truncating any existing file.
    pub fn create<P: AsRef<Path>>(path: P, page_size: usize) -> Result<Self> {
        Self::create_with_vfs(&RealVfs, path, page_size)
    }

    /// Open an existing store, validating its header and replaying any
    /// committed write-ahead-log records left by a crash.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        Self::open_with_vfs(&RealVfs, path)
    }

    /// The write-ahead-log path for a store at `path` (`<path>.wal`).
    #[must_use]
    pub fn wal_path<P: AsRef<Path>>(path: P) -> PathBuf {
        let mut os = path.as_ref().as_os_str().to_os_string();
        os.push(".wal");
        PathBuf::from(os)
    }

    /// [`FilePager::create`] through an explicit [`Vfs`] (fault injection).
    ///
    /// Durability order: write + fsync the header frame, write + fsync the
    /// empty log, then fsync the parent directory so both files' names
    /// survive a crash (a freshly created file is not durable until its
    /// directory entry is).
    pub fn create_with_vfs<P: AsRef<Path>>(
        vfs: &dyn Vfs,
        path: P,
        page_size: usize,
    ) -> Result<Self> {
        crate::register_metrics();
        check_page_size(page_size)?;
        let path = path.as_ref();
        let data = vfs.open(path, OpenMode::CreateTruncate)?;
        let wal_file = vfs.open(&Self::wal_path(path), OpenMode::CreateTruncate)?;
        let mut wal = Wal::create(wal_file, page_size)?;
        wal.sync()?;
        let mut pager = FilePager {
            data,
            wal,
            page_size,
            high_water: 1,
            durable_frames: 1,
            dirty: false,
            pending: PageIdMap::default(),
            frame: vec![0u8; page_size + PAGE_TRAILER],
            staging: Vec::new(),
            stats: IoStats::default(),
        };
        let hdr = pager.header_image();
        write_frame_to(&mut *pager.data, &mut pager.frame, 0, &hdr)?;
        pager.data.sync()?;
        vfs.sync_parent_dir(path)?;
        Ok(pager)
    }

    /// [`FilePager::open`] through an explicit [`Vfs`] (fault injection).
    pub fn open_with_vfs<P: AsRef<Path>>(vfs: &dyn Vfs, path: P) -> Result<Self> {
        crate::register_metrics();
        let path = path.as_ref();
        let mut data = vfs.open(path, OpenMode::MustExist)?;

        // The header frame may be torn (crash mid-checkpoint-apply), so it
        // cannot be trusted yet; read the raw page size only as a fallback
        // for when no log exists. The log header is written once at creation
        // and never rewritten, so it is the authority when present.
        let data_len = data.len()?;
        let ps_data = if data_len >= (HDR_PAGE_SIZE + 4) as u64 {
            let mut raw = [0u8; HDR_PAGE_SIZE + 4];
            data.read_at(0, &mut raw)?;
            (&raw[..8] == MAGIC)
                .then(|| u32::from_le_bytes(raw[HDR_PAGE_SIZE..].try_into().unwrap()) as usize)
        } else {
            None
        };
        if let Some(ps) = ps_data {
            check_page_size(ps).map_err(|_| Error::Corrupt("bad page size in header".into()))?;
        }
        let mut wal_file = vfs.open(&Self::wal_path(path), OpenMode::OpenOrCreate)?;
        if wal_file.len()? < WAL_HDR && ps_data.is_none() {
            return Err(Error::BadMagic {
                what: "store header",
            });
        }
        let (mut wal, scan) = Wal::open(wal_file, ps_data)?;
        let page_size = wal.page_size();

        // Replay: copy every committed image into the data file, cut it
        // down to the replayed header's high-water mark, make the result
        // durable, then drop the log. Replaying the same records twice
        // (crash mid-replay, reopen) converges to the same bytes.
        let mut stats = IoStats::default();
        let mut frame = vec![0u8; page_size + PAGE_TRAILER];
        let mut staging = Vec::new();
        let recovery_start = vist_obs::now();
        if !scan.committed.is_empty() {
            stats.recovered_pages =
                apply_images(&mut wal, &mut *data, &mut staging, &scan.committed)?;
        }
        // Only now is the header frame trustworthy.
        read_frame_from(&mut *data, &mut frame, 0)?;
        let page = &frame[..page_size];
        if &page[HDR_MAGIC..HDR_MAGIC + 8] != MAGIC {
            return Err(Error::BadMagic {
                what: "store header",
            });
        }
        let hdr_ps =
            u32::from_le_bytes(page[HDR_PAGE_SIZE..HDR_PAGE_SIZE + 4].try_into().unwrap()) as usize;
        if hdr_ps != page_size {
            return Err(Error::Corrupt(format!(
                "header page size {hdr_ps} != wal page size {page_size}"
            )));
        }
        let high_water =
            PageId::from_le_bytes(page[HDR_HIGH_WATER..HDR_HIGH_WATER + 4].try_into().unwrap());
        if high_water == 0 {
            return Err(Error::Corrupt("zero high-water mark".into()));
        }
        if !scan.committed.is_empty() {
            cut_to(&mut *data, high_water, page_size)?;
            data.sync()?;
            vist_obs::observe_since(
                vist_obs::histogram!("vist_storage_recovery_nanos"),
                recovery_start,
            );
            vist_obs::counter!("vist_storage_recovered_pages_total").add(stats.recovered_pages);
        }
        if wal.bytes() > WAL_HDR {
            wal.truncate()?;
        }
        stats.wal_discarded_bytes = scan.discarded_bytes;
        Ok(FilePager {
            data,
            wal,
            page_size,
            high_water,
            // Every checkpoint covers all frames below its high-water mark
            // (gap zero-images included), so after replay they are all valid.
            durable_frames: high_water,
            dirty: false,
            pending: PageIdMap::default(),
            frame,
            staging,
            stats,
        })
    }

    /// The used prefix of the header page.
    fn header_image(&self) -> [u8; HDR_LEN] {
        let mut hdr = [0u8; HDR_LEN];
        hdr[HDR_MAGIC..HDR_MAGIC + 8].copy_from_slice(MAGIC);
        hdr[HDR_PAGE_SIZE..HDR_PAGE_SIZE + 4]
            .copy_from_slice(&(self.page_size as u32).to_le_bytes());
        hdr[HDR_FREE_HEAD..HDR_FREE_HEAD + 4].copy_from_slice(&INVALID_PAGE.to_le_bytes());
        hdr[HDR_HIGH_WATER..HDR_HIGH_WATER + 4].copy_from_slice(&self.high_water.to_le_bytes());
        let live = u64::from(self.high_water) - 1;
        hdr[HDR_LIVE..HDR_LIVE + 8].copy_from_slice(&live.to_le_bytes());
        hdr
    }

    fn check_id(&self, id: PageId) -> Result<()> {
        if id == 0 || id >= self.high_water {
            return Err(Error::InvalidPage(u64::from(id)));
        }
        Ok(())
    }

    /// Route the page images of `pages` (each payload zero-padded to the
    /// page size; id 0 is the header) through the WAL, one write a chunk of
    /// [`chunk_pages`] records, and remember their offsets. Every page
    /// write and commit goes through here.
    fn wal_append(&mut self, pages: &[(PageId, &[u8])]) -> Result<()> {
        let rec_len = self.wal.record_len() as u64;
        for chunk in pages.chunks(chunk_pages(self.page_size)) {
            let t = vist_obs::now();
            let first = self.wal.append_pages(&mut self.staging, chunk)?;
            vist_obs::observe_since(vist_obs::histogram!("vist_storage_wal_append_nanos"), t);
            for (off, &(id, _)) in (first..).step_by(rec_len as usize).zip(chunk) {
                self.pending.insert(id, off);
                vist_obs::attr::charge_wal_append();
            }
            self.stats.wal_appends += chunk.len() as u64;
            vist_obs::counter!("vist_storage_wal_append_total").add(chunk.len() as u64);
            self.dirty = true;
        }
        Ok(())
    }

    /// The page image from wherever its newest version lives — the WAL
    /// (pending), the data file (checkpointed), or nowhere (fresh zeros) —
    /// borrowed from the staging buffer it was read into.
    fn current(&mut self, id: PageId) -> Result<&[u8]> {
        if let Some(&off) = self.pending.get(&id) {
            return self.wal.read_page(off, id);
        }
        if id < self.durable_frames {
            read_frame_from(&mut *self.data, &mut self.frame, id)?;
        } else {
            self.frame[..self.page_size].fill(0);
        }
        Ok(&self.frame[..self.page_size])
    }

    /// The checkpoint proper (steps 3–5), right after a commit. A failure is
    /// retryable: `pending` still maps every page to its committed image.
    fn apply_log(&mut self) -> Result<()> {
        let start = vist_obs::now();
        apply_images(
            &mut self.wal,
            &mut *self.data,
            &mut self.staging,
            &self.pending,
        )?;
        cut_to(&mut *self.data, self.high_water, self.page_size)?;
        self.data.sync()?;
        // The data file is now authoritative; drop the log.
        self.pending.clear();
        self.durable_frames = self.durable_frames.max(self.high_water);
        self.wal.truncate()?;
        self.stats.checkpoints += 1;
        vist_obs::counter!("vist_storage_checkpoint_total").inc();
        vist_obs::gauge!("vist_storage_wal_bytes").set(0);
        vist_obs::observe_since(vist_obs::histogram!("vist_storage_checkpoint_nanos"), start);
        Ok(())
    }
}

/// Copy the image the log holds for every page of `images` (id → record
/// offset) into the page's frame of the data file, in page order: the
/// checkpoint and the replay of [`FilePager::open`]. Each record's CRC is
/// verified as it is read back; a run of consecutive frames, at most
/// [`chunk_pages`] long, is staged in `staging` and written with one call.
/// Returns the number of frames written.
fn apply_images(
    wal: &mut Wal,
    data: &mut dyn VFile,
    staging: &mut Vec<u8>,
    images: &PageIdMap<u64>,
) -> Result<u64> {
    let frame_len = (wal.page_size() + PAGE_TRAILER) as u64;
    let max_run = chunk_pages(wal.page_size()) as u64;
    let mut ids: Vec<PageId> = images.keys().copied().collect();
    ids.sort_unstable();
    staging.clear();
    // First frame of the run in `staging`, and its length in frames.
    let (mut first, mut run) = (0u64, 0u64);
    for id in ids.iter().copied() {
        if run > 0 && (u64::from(id) != first + run || run == max_run) {
            data.write_at(first * frame_len, staging)?;
            staging.clear();
            run = 0;
        }
        if run == 0 {
            first = u64::from(id);
        }
        let page = wal.read_page(images[&id], id)?;
        staging.extend_from_slice(page);
        staging.extend_from_slice(&frame_crc(id, page).to_le_bytes());
        staging.extend_from_slice(&[0; PAGE_TRAILER - 4]);
        run += 1;
    }
    if run > 0 {
        data.write_at(first * frame_len, staging)?;
    }
    Ok(ids.len() as u64)
}

/// Cut the data file down to the `high_water` frames of its store, if it
/// holds more: frames a [`Pager::reset`] forgot. The caller syncs.
fn cut_to(data: &mut dyn VFile, high_water: PageId, page_size: usize) -> Result<()> {
    let len = u64::from(high_water) * (page_size + PAGE_TRAILER) as u64;
    if data.len()? > len {
        data.set_len(len)?;
    }
    Ok(())
}

/// Write `payload`, zero-padded to the page size, as frame `id`, staged in
/// `frame`.
fn write_frame_to(
    data: &mut dyn VFile,
    frame: &mut [u8],
    id: PageId,
    payload: &[u8],
) -> Result<()> {
    let page_size = frame.len() - PAGE_TRAILER;
    debug_assert!(payload.len() <= page_size);
    let (page, trailer) = frame.split_at_mut(page_size);
    page[..payload.len()].copy_from_slice(payload);
    page[payload.len()..].fill(0);
    trailer[..4].copy_from_slice(&frame_crc(id, page).to_le_bytes());
    trailer[4..].fill(0);
    data.write_at(u64::from(id) * frame.len() as u64, frame)?;
    Ok(())
}

/// Read frame `id` into `frame` and verify its trailer; the payload is
/// `frame[..page_size]`.
fn read_frame_from(data: &mut dyn VFile, frame: &mut [u8], id: PageId) -> Result<()> {
    data.read_at(u64::from(id) * frame.len() as u64, frame)?;
    let (payload, trailer) = frame.split_at(frame.len() - PAGE_TRAILER);
    let expected = u32::from_le_bytes(trailer[..4].try_into().unwrap());
    let actual = frame_crc(id, payload);
    if expected != actual {
        return Err(Error::ChecksumMismatch {
            page: u64::from(id),
            expected,
            actual,
        });
    }
    Ok(())
}

impl Pager for FilePager {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn allocate(&mut self) -> Result<PageId> {
        let id = self.high_water;
        if id == INVALID_PAGE {
            return Err(Error::Corrupt("page id space exhausted".into()));
        }
        // Fresh pages need no I/O: reads zero-fill until first write, and
        // the next checkpoint persists a zero image for any never written.
        self.high_water += 1;
        self.stats.allocations += 1;
        self.dirty = true;
        Ok(id)
    }

    fn read(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), self.page_size);
        self.check_id(id)?;
        buf.copy_from_slice(self.current(id)?);
        self.stats.reads += 1;
        Ok(())
    }

    fn write(&mut self, id: PageId, buf: &[u8]) -> Result<()> {
        self.write_many(&[(id, buf)])
    }

    fn write_many(&mut self, pages: &[(PageId, &[u8])]) -> Result<()> {
        for &(id, buf) in pages {
            debug_assert_eq!(buf.len(), self.page_size);
            self.check_id(id)?;
        }
        self.wal_append(pages)?;
        self.stats.writes += pages.len() as u64;
        Ok(())
    }

    fn store_bytes(&self) -> u64 {
        u64::from(self.high_water) * (self.page_size + PAGE_TRAILER) as u64
    }

    /// Commit everything written since the last commit, atomically with
    /// respect to crashes, then checkpoint if the log has grown to the data
    /// file's size (see the module docs). No-op when nothing changed.
    fn sync(&mut self) -> Result<()> {
        if !self.dirty {
            return Ok(());
        }
        // Stage the header and zero-images for allocated-but-never-written
        // frames, so the data file has a valid frame below high_water for
        // every id once a checkpoint applies this commit.
        let hdr = self.header_image();
        let mut images: Vec<(PageId, &[u8])> = vec![(0, &hdr)];
        images.extend(
            (self.durable_frames..self.high_water)
                .filter(|id| !self.pending.contains_key(id))
                .map(|id| (id, &[][..])),
        );
        self.wal_append(&images)?;
        // The commit record is the atomic durability point.
        self.wal.commit()?;
        self.dirty = false;
        self.stats.wal_commits += 1;
        vist_obs::counter!("vist_storage_wal_commit_total").inc();
        let logged = self.wal.bytes() - WAL_HDR;
        vist_obs::gauge!("vist_storage_wal_bytes").set(i64::try_from(logged).unwrap_or(i64::MAX));
        if self.wal.bytes() >= self.store_bytes() {
            self.apply_log()?;
        }
        Ok(())
    }

    /// Commit, then apply whatever the log still holds.
    fn checkpoint(&mut self) -> Result<()> {
        self.sync()?;
        if !self.pending.is_empty() {
            self.apply_log()?;
        }
        Ok(())
    }

    /// Checkpoint, so the data file holds the last commit and the log
    /// nothing, then forget every page. The next commit writes the emptied
    /// store's header, and the checkpoint that applies it cuts the data
    /// file down; a crash before that commit reopens the store as the
    /// checkpoint left it.
    fn reset(&mut self) -> Result<()> {
        self.checkpoint()?;
        self.high_water = 1;
        self.durable_frames = 1;
        self.dirty = true;
        Ok(())
    }

    fn stats(&self) -> IoStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;

    #[test]
    fn create_write_reopen_read() {
        let dir = TempDir::new("file-reopen");
        let path = dir.file("store");
        let id;
        {
            let mut p = FilePager::create(&path, 256).unwrap();
            id = p.allocate().unwrap();
            let mut buf = vec![0u8; 256];
            buf[10] = 0x5A;
            p.write(id, &buf).unwrap();
            p.sync().unwrap();
        }
        {
            let mut p = FilePager::open(&path).unwrap();
            assert_eq!(p.page_size(), 256);
            assert_eq!(p.store_bytes(), 2 * (256 + PAGE_TRAILER) as u64);
            let mut out = vec![0u8; 256];
            p.read(id, &mut out).unwrap();
            assert_eq!(out[10], 0x5A);
        }
    }

    /// A reset forgets every page; until the next commit the files hold
    /// the store as it was, and the checkpoint of that commit cuts the data
    /// file down to the pages allocated since.
    #[test]
    fn reset_empties_the_store_and_its_checkpoint_cuts_the_file() {
        let dir = TempDir::new("file-reset");
        let path = dir.file("store");
        let frame = (256 + PAGE_TRAILER) as u64;
        let mut p = FilePager::create(&path, 256).unwrap();
        for tag in 1..=8u8 {
            let id = p.allocate().unwrap();
            p.write(id, &[tag; 256]).unwrap();
        }
        p.sync().unwrap();
        p.reset().unwrap();
        assert_eq!(p.store_bytes(), frame, "the header frame alone");
        assert!(p.read(3, &mut [0u8; 256]).is_err(), "page 3 is forgotten");
        // Nothing committed the reset yet: a reopen finds all eight pages.
        let mut out = [0u8; 256];
        let mut before = FilePager::open(&path).unwrap();
        before.read(8, &mut out).unwrap();
        assert_eq!(out, [8; 256]);
        drop(before);
        assert_eq!(p.allocate().unwrap(), 1, "ids start over");
        assert_eq!(p.allocate().unwrap(), 2);
        p.read(2, &mut out).unwrap();
        assert_eq!(out, [0; 256], "a page handed out again reads as zeros");
        p.write(1, &[0x5A; 256]).unwrap();
        p.sync().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 3 * frame);
        drop(p);
        let mut p = FilePager::open(&path).unwrap();
        assert_eq!(p.store_bytes(), 3 * frame);
        p.read(1, &mut out).unwrap();
        assert_eq!(out, [0x5A; 256]);
        p.read(2, &mut out).unwrap();
        assert_eq!(out, [0; 256]);
        assert!(p.read(3, &mut out).is_err());
        assert_eq!(p.allocate().unwrap(), 3);
    }

    #[test]
    fn header_page_not_addressable() {
        let dir = TempDir::new("file-header");
        let mut p = FilePager::create(dir.file("store"), 256).unwrap();
        assert!(p.read(0, &mut vec![0u8; 256]).is_err());
        assert!(p.write(0, &vec![0u8; 256]).is_err());
    }

    #[test]
    fn open_rejects_garbage() {
        let dir = TempDir::new("file-garbage");
        let path = dir.file("store");
        std::fs::write(&path, b"this is not a vist store, not at all....").unwrap();
        assert!(matches!(
            FilePager::open(&path),
            Err(Error::BadMagic {
                what: "store header"
            })
        ));
    }

    #[test]
    fn store_bytes_grows_with_allocations() {
        let dir = TempDir::new("file-bytes");
        let mut p = FilePager::create(dir.file("store"), 256).unwrap();
        let base = p.store_bytes();
        p.allocate().unwrap();
        p.allocate().unwrap();
        // Each frame is page_size + PAGE_TRAILER bytes.
        assert_eq!(p.store_bytes(), base + 2 * (256 + PAGE_TRAILER) as u64);
    }

    #[test]
    fn unsynced_writes_are_discarded_on_reopen() {
        let dir = TempDir::new("file-unsynced");
        let path = dir.file("store");
        let id;
        {
            let mut p = FilePager::create(&path, 256).unwrap();
            id = p.allocate().unwrap();
            p.write(id, &[0x11u8; 256]).unwrap();
            p.sync().unwrap();
            p.write(id, &[0x22u8; 256]).unwrap();
            // Dropped without sync: the 0x22 image sits uncommitted in the
            // log and must be discarded, not half-applied.
        }
        let mut p = FilePager::open(&path).unwrap();
        let mut out = vec![0u8; 256];
        p.read(id, &mut out).unwrap();
        assert!(
            out.iter().all(|&x| x == 0x11),
            "checkpointed image survives"
        );
        assert!(
            p.stats().wal_discarded_bytes > 0,
            "the uncommitted tail was measured and dropped"
        );
    }

    #[test]
    fn allocated_but_unwritten_page_reads_zero_across_checkpoint() {
        let dir = TempDir::new("file-gap");
        let path = dir.file("store");
        let (a, b);
        {
            let mut p = FilePager::create(&path, 256).unwrap();
            a = p.allocate().unwrap();
            b = p.allocate().unwrap();
            p.write(b, &[0x77u8; 256]).unwrap();
            let mut out = vec![0xEEu8; 256];
            p.read(a, &mut out).unwrap();
            assert!(out.iter().all(|&x| x == 0), "fresh page zero before sync");
            p.sync().unwrap();
        }
        let mut p = FilePager::open(&path).unwrap();
        let mut out = vec![0xEEu8; 256];
        p.read(a, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0), "gap image replays as zeros");
        p.read(b, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0x77));
    }

    #[test]
    fn flipped_payload_byte_is_a_checksum_mismatch() {
        let dir = TempDir::new("file-flip");
        let path = dir.file("store");
        let id;
        {
            let mut p = FilePager::create(&path, 256).unwrap();
            id = p.allocate().unwrap();
            p.write(id, &[0xABu8; 256]).unwrap();
            p.sync().unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let off = id as usize * (256 + PAGE_TRAILER) + 100;
        bytes[off] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let mut p = FilePager::open(&path).unwrap();
        let mut out = vec![0u8; 256];
        match p.read(id, &mut out) {
            Err(Error::ChecksumMismatch { page, .. }) => assert_eq!(page, u64::from(id)),
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn flipped_header_byte_fails_open_with_checksum_mismatch() {
        let dir = TempDir::new("file-hdrflip");
        let path = dir.file("store");
        {
            let mut p = FilePager::create(&path, 256).unwrap();
            p.allocate().unwrap();
            p.sync().unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HDR_HIGH_WATER] ^= 0x01; // tamper inside the header payload
        std::fs::write(&path, &bytes).unwrap();
        match FilePager::open(&path) {
            Err(Error::ChecksumMismatch { page: 0, .. }) => {}
            Err(other) => panic!("expected header checksum mismatch, got {other:?}"),
            Ok(_) => panic!("tampered header must not open"),
        }
    }

    #[test]
    fn wal_counters_track_checkpoints() {
        let dir = TempDir::new("file-counters");
        let mut p = FilePager::create(dir.file("store"), 256).unwrap();
        let id = p.allocate().unwrap();
        p.write(id, &[1u8; 256]).unwrap();
        assert_eq!(p.stats().wal_appends, 1);
        assert_eq!(p.stats().wal_commits, 0);
        p.sync().unwrap();
        // The commit appended the header image too; a log holding every
        // frame is as large as the data file, so it was checkpointed.
        assert_eq!(p.stats().wal_appends, 2);
        assert_eq!(p.stats().wal_commits, 1);
        assert_eq!(p.stats().checkpoints, 1);
        p.sync().unwrap();
        assert_eq!(p.stats().wal_commits, 1, "clean sync is a no-op");
    }
}
