//! Files of checksummed page frames: [`FrameFile`], written straight and
//! sealed, and [`FilePager`], a [`FrameFile`] plus its write-ahead log.
//!
//! A frame is `page_size` payload bytes and an 8-byte trailer holding
//! `crc32c(page_id ‖ payload)` and 4 reserved bytes; the id under the
//! checksum catches misdirected writes, not just bit rot. Frame 0 is the
//! header (magic, page size, free-list head, high-water mark, live count).
//! No page is freed on its own: the head is always [`INVALID_PAGE`] and the
//! live count the high-water mark less one, for older readers; neither is
//! read. A [`Pager::reset`] forgets every page; the next seal or checkpoint
//! cuts the file.
//!
//! A [`FrameFile`] writes each page straight to its frame, holding a run
//! of consecutive pages until it is a write chunk long, and its
//! [`Pager::sync`] *seals* the file: a zero frame for every page allocated
//! but never written, the header, the cut to the high-water mark, one
//! fsync. Page 1 waits for the seal, which writes it with the header frame
//! before it: a segment's header page is written last, and this way it
//! costs no call of its own and breaks no run of the pages after it.
//! Nothing makes the writes between two seals atomic, so it serves only
//! files no reader sees unsealed: the packed segments, which the index
//! names in a commit of its delta once they are sealed.
//!
//! A [`FilePager`] never touches its data file between checkpoints. Every
//! page write appends a checksummed record to `<path>.wal` ([`crate::wal`]),
//! and a map remembers the newest WAL offset per page so reads observe it.
//! [`Pager::sync`] is the commit: append the header image and zero-images
//! for allocated-but-unwritten frames, fsync the log, append a commit
//! record, fsync again. A commit that leaves the log at least as large as
//! the data file ([`Pager::store_bytes`]) goes on to the checkpoint, as
//! does every [`Pager::checkpoint`]: apply the newest committed image of
//! every logged page to the data file, cut it to the high-water mark, fsync
//! it, truncate the log. A crash at *any* step leaves the store
//! recoverable: [`FilePager::open`] replays every commit up to the last
//! one (idempotently), cuts the data file to the replayed header's
//! high-water mark and truncates the log. `docs/DURABILITY.md` walks both
//! protocols; `tests/crash_recovery.rs` proves the log's at every
//! injection point.

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

/// The fill of [`FrameFile::write_frames`] for a payload at hand.
fn put(_: PageId, payload: &[u8], buf: &mut Vec<u8>) -> Result<()> {
    buf.extend_from_slice(payload);
    Ok(())
}

/// The page size the header frame of a file of `len` bytes declares, read
/// before its checksum can be: `None` when the file does not begin with the
/// magic.
fn raw_page_size(file: &mut dyn VFile, len: u64) -> Result<Option<usize>> {
    let mut raw = [0u8; HDR_PAGE_SIZE + 4];
    if len < raw.len() as u64 {
        return Ok(None);
    }
    file.read_at(0, &mut raw)?;
    if &raw[..8] != MAGIC {
        return Ok(None);
    }
    let ps = u32::from_le_bytes(raw[HDR_PAGE_SIZE..].try_into().unwrap()) as usize;
    check_page_size(ps).map_err(|_| Error::Corrupt("bad page size in header".into()))?;
    Ok(Some(ps))
}

/// A file of frames: the data file of a [`FilePager`], and on its own a
/// [`Pager`] that writes straight to its frames (see the module docs).
pub struct FrameFile {
    file: Box<dyn VFile>,
    page_size: usize,
    /// Next never-allocated page id (page 0 is the header).
    high_water: PageId,
    /// Frames `< durable` hold valid images; a higher id reads as zeros
    /// until `written` holds it (a [`FilePager`] logs its writes instead).
    durable: PageId,
    written: PageIdMap<()>,
    /// A page was written or allocated, or the file reset, since the last
    /// seal (of a [`FilePager`]: since the last commit).
    dirty: bool,
    /// Staging buffer of one frame (payload ‖ trailer) for every read.
    frame: Vec<u8>,
    /// Staging buffer of one write chunk: the held run of frames, or the
    /// WAL records of one append of a [`FilePager`]'s log. It grows to
    /// [`chunk_pages`] records once and is reused from then on.
    staging: Vec<u8>,
    /// First page and length of the run of frames `staging` holds, written
    /// but not yet in the file: the file takes pages a chunk per call, and
    /// the page cache keeps it in units that large (faster reads).
    held: (PageId, usize),
    /// The image of page 1, written since the last seal: the seal writes it
    /// right after the header frame.
    first: Option<Vec<u8>>,
    stats: IoStats,
}

impl FrameFile {
    /// Create a file of the header frame alone at `path`, truncating any
    /// existing file; the header and the directory entry are durable.
    pub fn create(vfs: &dyn Vfs, path: &Path, page_size: usize) -> Result<Self> {
        check_page_size(page_size)?;
        let mut frames = FrameFile::new(vfs.open(path, OpenMode::CreateTruncate)?, page_size);
        frames.dirty = true;
        frames.sync()?;
        vfs.sync_parent_dir(path)?;
        Ok(frames)
    }

    /// Open a sealed file: its header frame must verify, and the file must
    /// hold exactly the frames the header counts.
    pub fn open(vfs: &dyn Vfs, path: &Path) -> Result<Self> {
        let mut file = vfs.open(path, OpenMode::MustExist)?;
        let len = file.len()?;
        let page_size = raw_page_size(&mut *file, len)?.ok_or(Error::BadMagic {
            what: "store header",
        })?;
        let mut frames = FrameFile::new(file, page_size);
        let frame_len = frames.frame.len() as u64;
        if len >= frame_len {
            frames.load_header()?;
        }
        let (whole, rest, want) = (len / frame_len, len % frame_len, frames.high_water);
        if len != frames.store_bytes() {
            return Err(Error::Corrupt(format!(
                "the file holds {whole} frames and {rest} bytes, its header counts {want} frames"
            )));
        }
        Ok(frames)
    }

    fn new(file: Box<dyn VFile>, page_size: usize) -> Self {
        FrameFile {
            file,
            page_size,
            high_water: 1,
            durable: 1,
            written: PageIdMap::default(),
            dirty: false,
            frame: vec![0u8; page_size + PAGE_TRAILER],
            staging: Vec::new(),
            held: (0, 0),
            first: None,
            stats: IoStats::default(),
        }
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

    /// Read and verify the header frame and take its high-water mark: every
    /// frame below it is durable.
    fn load_header(&mut self) -> Result<()> {
        self.read_frame(0)?;
        let page = &self.frame[..self.page_size];
        if &page[HDR_MAGIC..HDR_MAGIC + 8] != MAGIC {
            return Err(Error::BadMagic {
                what: "store header",
            });
        }
        let word = |at: usize| u32::from_le_bytes(page[at..at + 4].try_into().unwrap());
        let hdr_ps = word(HDR_PAGE_SIZE) as usize;
        if hdr_ps != self.page_size {
            return Err(Error::Corrupt(format!(
                "header page size {hdr_ps} != page size {}",
                self.page_size
            )));
        }
        let high_water = word(HDR_HIGH_WATER);
        if high_water == 0 {
            return Err(Error::Corrupt("zero high-water mark".into()));
        }
        self.high_water = high_water;
        self.durable = high_water;
        Ok(())
    }

    fn check_id(&self, id: PageId) -> Result<()> {
        if id == 0 || id >= self.high_water {
            return Err(Error::InvalidPage(u64::from(id)));
        }
        Ok(())
    }

    /// Read frame `id` into the frame buffer and verify its trailer.
    fn read_frame(&mut self, id: PageId) -> Result<()> {
        let at = u64::from(id) * self.frame.len() as u64;
        self.file.read_at(at, &mut self.frame)?;
        let (payload, trailer) = self.frame.split_at(self.page_size);
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

    /// The header image, then an empty (zero) image for every page below
    /// the high-water mark no frame holds and `logged` does not: what a
    /// seal writes, and a commit logs, to make every such frame valid.
    fn seal_images<'h>(
        &self,
        hdr: &'h [u8],
        logged: impl Fn(PageId) -> bool,
    ) -> Vec<(PageId, &'h [u8])> {
        let gaps = (self.durable..self.high_water)
            .filter(|id| !self.written.contains_key(id) && !logged(*id))
            .map(|id| (id, &[][..]));
        std::iter::once((0, hdr)).chain(gaps).collect()
    }

    /// Write a frame for each `(id, item)` of `frames`, ids ascending, whose
    /// payload `fill` appends to the staging buffer, then the held run.
    fn write_frames<T>(
        &mut self,
        frames: impl IntoIterator<Item = (PageId, T)>,
        mut fill: impl FnMut(PageId, T, &mut Vec<u8>) -> Result<()>,
    ) -> Result<()> {
        for (id, item) in frames {
            self.hold(id, |buf| fill(id, item, buf))?;
        }
        self.write_held()
    }

    /// Add frame `id`, its payload appended by `fill` (zero-padded here), to
    /// the held run, first writing the run out unless `id` continues it and
    /// it is shorter than [`chunk_pages`]. Every frame goes through here.
    fn hold(&mut self, id: PageId, fill: impl FnOnce(&mut Vec<u8>) -> Result<()>) -> Result<()> {
        let (first, len) = self.held;
        if len == 0 || id != first + len as PageId || len == chunk_pages(self.page_size) {
            self.write_held()?;
            self.held.0 = id;
        }
        // Drop what a failed `fill` left behind.
        let at = self.held.1 * self.frame.len();
        self.staging.truncate(at);
        fill(&mut self.staging)?;
        self.staging.resize(at + self.page_size, 0);
        let crc = frame_crc(id, &self.staging[at..]);
        self.staging.extend_from_slice(&crc.to_le_bytes());
        self.staging.extend_from_slice(&[0; PAGE_TRAILER - 4]);
        self.held.1 += 1;
        Ok(())
    }

    /// Write the held run with one call. After a failure it is still held.
    fn write_held(&mut self) -> Result<()> {
        let (first, len) = self.held;
        if len > 0 {
            let frame_len = self.frame.len();
            let at = u64::from(first) * frame_len as u64;
            self.file.write_at(at, &self.staging[..len * frame_len])?;
        }
        self.staging.clear();
        self.held = (0, 0);
        Ok(())
    }

    /// Cut the file down to the high-water mark, if it holds more (frames a
    /// [`Pager::reset`] forgot), and fsync it: every frame below the mark is
    /// then durable, and the file sealed.
    fn cut_and_sync(&mut self) -> Result<()> {
        let len = self.store_bytes();
        if self.file.len()? > len {
            self.file.set_len(len)?;
        }
        self.file.sync()?;
        self.durable = self.high_water;
        self.written.clear();
        self.dirty = false;
        Ok(())
    }
}

impl Pager for FrameFile {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn allocate(&mut self) -> Result<PageId> {
        let id = self.high_water;
        if id == INVALID_PAGE {
            return Err(Error::Corrupt("page id space exhausted".into()));
        }
        // Fresh pages need no I/O: reads zero-fill until first write, and
        // a seal or commit persists a zero image for any never written.
        self.high_water += 1;
        self.stats.allocations += 1;
        self.dirty = true;
        Ok(id)
    }

    fn read(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), self.page_size);
        self.check_id(id)?;
        let (first, len) = self.held;
        if (first..first + len as PageId).contains(&id) {
            let at = (id - first) as usize * self.frame.len();
            buf.copy_from_slice(&self.staging[at..at + self.page_size]);
        } else if let Some(page) = self.first.as_ref().filter(|_| id == 1) {
            buf.copy_from_slice(page);
        } else if id < self.durable || self.written.contains_key(&id) {
            self.read_frame(id)?;
            buf.copy_from_slice(&self.frame[..self.page_size]);
        } else {
            buf.fill(0);
        }
        self.stats.reads += 1;
        Ok(())
    }

    /// Add the page to the held run; the run reaches the file once it is a
    /// chunk long, a page it does not continue is written, or on the seal.
    /// Page 1 is kept for the seal instead.
    fn write(&mut self, id: PageId, page: &[u8]) -> Result<()> {
        debug_assert_eq!(page.len(), self.page_size);
        self.check_id(id)?;
        if id == 1 {
            self.first = Some(page.to_vec());
        } else {
            self.hold(id, |buf| put(id, page, buf))?;
        }
        self.written.insert(id, ());
        self.stats.writes += 1;
        self.dirty = true;
        Ok(())
    }

    fn store_bytes(&self) -> u64 {
        u64::from(self.high_water) * self.frame.len() as u64
    }

    /// Seal the file: the header and page 1 if it was written, a zero
    /// frame for every page allocated but never written, then the cut to
    /// the high-water mark and one fsync. No-op when nothing changed.
    fn sync(&mut self) -> Result<()> {
        if !self.dirty {
            return Ok(());
        }
        let hdr = self.header_image();
        let first = self.first.take();
        let mut images = self.seal_images(&hdr, |_| false);
        if let Some(page) = &first {
            images.insert(1, (1, page));
        }
        if let Err(e) = self.write_frames(images, put) {
            self.first = first;
            return Err(e);
        }
        self.cut_and_sync()
    }

    /// Forget every page; the next seal writes the empty file's header
    /// and cuts the file down.
    fn reset(&mut self) -> Result<()> {
        self.high_water = 1;
        self.durable = 1;
        self.written.clear();
        self.staging.clear();
        self.held = (0, 0);
        self.first = None;
        self.dirty = true;
        Ok(())
    }

    fn stats(&self) -> IoStats {
        self.stats
    }
}

/// A [`Pager`] persisting pages to a file, protected by a write-ahead log.
pub struct FilePager {
    /// The data file, never written between checkpoints.
    data: FrameFile,
    wal: Wal,
    /// Pages written since the last checkpoint, committed or not: id →
    /// newest WAL offset.
    pending: PageIdMap<u64>,
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
    /// Durability order: write + fsync the empty log, then create the data
    /// file, whose directory fsync makes both files' names durable.
    pub fn create_with_vfs<P: AsRef<Path>>(
        vfs: &dyn Vfs,
        path: P,
        page_size: usize,
    ) -> Result<Self> {
        crate::register_metrics();
        check_page_size(page_size)?;
        let path = path.as_ref();
        let wal_file = vfs.open(&Self::wal_path(path), OpenMode::CreateTruncate)?;
        let mut wal = Wal::create(wal_file, page_size)?;
        wal.sync()?;
        let data = FrameFile::create(vfs, path, page_size)?;
        Ok(FilePager {
            data,
            wal,
            pending: PageIdMap::default(),
        })
    }

    /// [`FilePager::open`] through an explicit [`Vfs`] (fault injection).
    pub fn open_with_vfs<P: AsRef<Path>>(vfs: &dyn Vfs, path: P) -> Result<Self> {
        crate::register_metrics();
        let path = path.as_ref();
        let mut file = vfs.open(path, OpenMode::MustExist)?;

        // The header frame may be torn (crash mid-checkpoint-apply), so it
        // cannot be trusted yet; read the raw page size only as a fallback
        // for when no log exists. The log header is written once at creation
        // and never rewritten, so it is the authority when present.
        let len = file.len()?;
        let ps_data = raw_page_size(&mut *file, len)?;
        let mut wal_file = vfs.open(&Self::wal_path(path), OpenMode::OpenOrCreate)?;
        if wal_file.len()? < WAL_HDR && ps_data.is_none() {
            return Err(Error::BadMagic {
                what: "store header",
            });
        }
        let (mut wal, scan) = Wal::open(wal_file, ps_data)?;
        let mut data = FrameFile::new(file, wal.page_size());

        // Replay: copy every committed image into the data file, cut it
        // down to the replayed header's high-water mark, make the result
        // durable, then drop the log. Replaying the same records twice
        // (crash mid-replay, reopen) converges to the same bytes.
        let recovery_start = vist_obs::now();
        if !scan.committed.is_empty() {
            apply_images(&mut data, &mut wal, &scan.committed)?;
            data.stats.recovered_pages = scan.committed.len() as u64;
        }
        // Only now is the header frame trustworthy. Every checkpoint covers
        // all frames below its high-water mark (gap zero-images included),
        // so after replay they are all valid.
        data.load_header()?;
        if !scan.committed.is_empty() {
            data.cut_and_sync()?;
            vist_obs::observe_since(
                vist_obs::histogram!("vist_storage_recovery_nanos"),
                recovery_start,
            );
            vist_obs::counter!("vist_storage_recovered_pages_total")
                .add(data.stats.recovered_pages);
        }
        if wal.bytes() > WAL_HDR {
            wal.truncate()?;
        }
        data.stats.wal_discarded_bytes = scan.discarded_bytes;
        Ok(FilePager {
            data,
            wal,
            pending: PageIdMap::default(),
        })
    }

    /// Route the page images of `pages` (each payload zero-padded to the
    /// page size; id 0 is the header) through the WAL, one write a chunk of
    /// [`chunk_pages`] records, and remember their offsets. Every page
    /// write and commit goes through here.
    fn wal_append(&mut self, pages: &[(PageId, &[u8])]) -> Result<()> {
        let rec_len = self.wal.record_len() as u64;
        for chunk in pages.chunks(chunk_pages(self.data.page_size)) {
            let t = vist_obs::now();
            // A failed checkpoint may leave frames held; the log has them.
            self.data.held = (0, 0);
            let first = self.wal.append_pages(&mut self.data.staging, chunk)?;
            vist_obs::observe_since(vist_obs::histogram!("vist_storage_wal_append_nanos"), t);
            for (off, &(id, _)) in (first..).step_by(rec_len as usize).zip(chunk) {
                self.pending.insert(id, off);
            }
            self.data.stats.wal_appends += chunk.len() as u64;
            vist_obs::attr::wal_appends(chunk.len() as u64);
            self.data.dirty = true;
        }
        Ok(())
    }

    /// The checkpoint proper, right after a commit. A failure is
    /// retryable: `pending` still maps every page to its committed image.
    fn apply_log(&mut self) -> Result<()> {
        let start = vist_obs::now();
        apply_images(&mut self.data, &mut self.wal, &self.pending)?;
        self.data.cut_and_sync()?;
        // The data file is now authoritative; drop the log.
        self.pending.clear();
        self.wal.truncate()?;
        self.data.stats.checkpoints += 1;
        vist_obs::counter!("vist_storage_checkpoint_total").inc();
        vist_obs::gauge!("vist_storage_wal_bytes").set(0);
        vist_obs::observe_since(vist_obs::histogram!("vist_storage_checkpoint_nanos"), start);
        Ok(())
    }
}

/// Copy the image the log holds for every page of `images` (id → record
/// offset) into the page's frame of `data`, in page order: the checkpoint
/// and the replay of [`FilePager::open`]. Each record's CRC is verified as
/// it is read back.
fn apply_images(data: &mut FrameFile, wal: &mut Wal, images: &PageIdMap<u64>) -> Result<()> {
    let mut logged: Vec<(PageId, u64)> = images.iter().map(|(&id, &off)| (id, off)).collect();
    logged.sort_unstable();
    data.write_frames(logged, |id, off, buf| {
        buf.extend_from_slice(wal.read_page(off, id)?);
        Ok(())
    })
}

impl Pager for FilePager {
    fn page_size(&self) -> usize {
        self.data.page_size
    }

    fn allocate(&mut self) -> Result<PageId> {
        self.data.allocate()
    }

    fn read(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
        self.data.check_id(id)?;
        let Some(&off) = self.pending.get(&id) else {
            return self.data.read(id, buf);
        };
        buf.copy_from_slice(self.wal.read_page(off, id)?);
        self.data.stats.reads += 1;
        Ok(())
    }

    fn write(&mut self, id: PageId, buf: &[u8]) -> Result<()> {
        self.write_many(&[(id, buf)])
    }

    fn write_many(&mut self, pages: &[(PageId, &[u8])]) -> Result<()> {
        for &(id, buf) in pages {
            debug_assert_eq!(buf.len(), self.data.page_size);
            self.data.check_id(id)?;
        }
        self.wal_append(pages)?;
        self.data.stats.writes += pages.len() as u64;
        Ok(())
    }

    fn store_bytes(&self) -> u64 {
        self.data.store_bytes()
    }

    /// Commit everything written since the last commit, atomically with
    /// respect to crashes, then checkpoint if the log has grown to the data
    /// file's size (see the module docs). No-op when nothing changed.
    fn sync(&mut self) -> Result<()> {
        if !self.data.dirty {
            return Ok(());
        }
        // Stage the header and zero-images for allocated-but-never-written
        // frames, so the data file has a valid frame below high_water for
        // every id once a checkpoint applies this commit.
        let hdr = self.data.header_image();
        let images = self
            .data
            .seal_images(&hdr, |id| self.pending.contains_key(&id));
        self.wal_append(&images)?;
        // The commit record is the atomic durability point.
        self.wal.commit()?;
        self.data.dirty = false;
        self.data.stats.wal_commits += 1;
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
        self.data.reset()
    }

    fn stats(&self) -> IoStats {
        self.data.stats
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

    /// A [`FrameFile`] at `path` holding pages `1..=n`, page `i` filled
    /// with `i`, written in the order of `order`.
    fn frame_file(path: &Path, n: u8, order: &[u8]) -> FrameFile {
        let mut f = FrameFile::create(&RealVfs, path, 256).unwrap();
        for _ in 0..n {
            f.allocate().unwrap();
        }
        for &i in order {
            f.write(PageId::from(i), &[i; 256]).unwrap();
        }
        f
    }

    #[test]
    fn frame_file_takes_pages_out_of_id_order() {
        let dir = TempDir::new("frames-order");
        let path = dir.file("seg");
        let mut f = frame_file(&path, 6, &[5, 2]);
        let pages = [[6u8; 256], [3; 256], [1; 256], [4; 256]];
        f.write_many(&[
            (6, &pages[0]),
            (3, &pages[1]),
            (1, &pages[2]),
            (4, &pages[3]),
        ])
        .unwrap();
        let mut out = [0u8; 256];
        f.read(4, &mut out).unwrap();
        assert_eq!(out, [4; 256], "a written page reads back before the seal");
        f.sync().unwrap();
        drop(f);
        let mut f = FrameFile::open(&RealVfs, &path).unwrap();
        for i in 1..=6u8 {
            f.read(PageId::from(i), &mut out).unwrap();
            assert_eq!(out, [i; 256], "page {i}");
        }
    }

    #[test]
    fn frame_file_page_allocated_but_unwritten_reads_as_zeros() {
        let dir = TempDir::new("frames-fresh");
        let mut f = frame_file(&dir.file("seg"), 3, &[3]);
        let mut out = [0xEEu8; 256];
        f.read(2, &mut out).unwrap();
        assert_eq!(out, [0; 256]);
        assert!(f.read(4, &mut out).is_err(), "page 4 was never allocated");
        assert!(f.read(0, &mut out).is_err(), "the header is no page");
    }

    /// The seal writes a zero frame for every gap, so the file holds
    /// exactly its frames; a reopened file seals to the same bytes.
    #[test]
    fn frame_file_seal_fills_gaps_and_reopens_identically() {
        let dir = TempDir::new("frames-seal");
        let path = dir.file("seg");
        let mut f = frame_file(&path, 5, &[4, 1]);
        f.sync().unwrap();
        let sealed = std::fs::read(&path).unwrap();
        assert_eq!(sealed.len(), 6 * (256 + PAGE_TRAILER));
        assert_eq!(f.stats().writes, 2);
        let mut f = FrameFile::open(&RealVfs, &path).unwrap();
        assert_eq!(f.store_bytes(), sealed.len() as u64);
        let mut out = [0xEEu8; 256];
        for (id, want) in [(1, 1), (2, 0), (3, 0), (4, 4), (5, 0)] {
            f.read(id, &mut out).unwrap();
            assert_eq!(out, [want; 256], "page {id}");
        }
        f.write(2, &[2; 256]).unwrap();
        f.write(2, &[0; 256]).unwrap();
        f.sync().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), sealed);
    }

    #[test]
    fn frame_file_flipped_payload_byte_is_a_checksum_mismatch() {
        let dir = TempDir::new("frames-flip");
        let path = dir.file("seg");
        frame_file(&path, 3, &[1, 2, 3]).sync().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[2 * (256 + PAGE_TRAILER) + 100] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let mut f = FrameFile::open(&RealVfs, &path).unwrap();
        let mut out = [0u8; 256];
        f.read(1, &mut out).unwrap();
        match f.read(2, &mut out) {
            Err(Error::ChecksumMismatch { page: 2, .. }) => {}
            other => panic!("expected a checksum mismatch on page 2, got {other:?}"),
        }
    }

    #[test]
    fn frame_file_reset_then_seal_cuts_the_file() {
        let dir = TempDir::new("frames-reset");
        let path = dir.file("seg");
        let frame = (256 + PAGE_TRAILER) as u64;
        let mut f = frame_file(&path, 8, &[1, 2, 3, 4, 5, 6, 7, 8]);
        f.sync().unwrap();
        f.reset().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 9 * frame);
        assert_eq!(f.allocate().unwrap(), 1, "ids start over");
        f.allocate().unwrap();
        f.write(1, &[0x5A; 256]).unwrap();
        f.sync().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 3 * frame);
        let mut f = FrameFile::open(&RealVfs, &path).unwrap();
        let mut out = [0u8; 256];
        f.read(1, &mut out).unwrap();
        assert_eq!(out, [0x5A; 256]);
        f.read(2, &mut out).unwrap();
        assert_eq!(out, [0; 256], "a page handed out again reads as zeros");
        assert!(f.read(3, &mut out).is_err());
    }

    /// Opening checks the length against the header: a file cut inside a
    /// frame, short of a frame, or a frame too long is corrupt.
    #[test]
    fn frame_file_open_wants_exactly_its_frames() {
        let dir = TempDir::new("frames-length");
        let path = dir.file("seg");
        frame_file(&path, 3, &[1, 2, 3]).sync().unwrap();
        let sealed = std::fs::read(&path).unwrap();
        let frame = 256 + PAGE_TRAILER;
        for len in [
            sealed.len() - 1,
            sealed.len() - frame,
            sealed.len() + frame,
            frame - 1,
        ] {
            let mut bytes = sealed.clone();
            bytes.resize(len, 0);
            std::fs::write(&path, &bytes).unwrap();
            match FrameFile::open(&RealVfs, &path) {
                Err(Error::Corrupt(msg)) => {
                    assert!(len < frame || msg.contains("counts 4 frames"), "{msg}");
                }
                other => panic!("length {len}: expected corrupt, got {:?}", other.err()),
            }
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
