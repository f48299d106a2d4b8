//! Physical redo write-ahead log backing [`crate::FilePager`].
//!
//! # Format
//!
//! A WAL file is a 16-byte header followed by back-to-back records:
//!
//! ```text
//! header:  magic "VISTWAL1" (8) | page_size u32 | reserved u32
//! record:  kind u8 | page_id u32 | len u32 | crc32c u32 | payload[len]
//! ```
//!
//! Two record kinds exist: `PAGE` (a full page image, `len == page_size`;
//! `page_id` 0 is the store header) and `COMMIT` (an 8-byte commit
//! sequence number). The CRC covers `kind ‖ page_id ‖ payload`, so a torn
//! record — truncated length field, partial payload, bit rot — fails
//! verification instead of replaying garbage.
//!
//! # Protocol (see `docs/DURABILITY.md`)
//!
//! Between checkpoints the data file is **never written**: every page write
//! is an append here. A commit fsyncs the records, appends a `COMMIT` and
//! fsyncs again; the log may hold many commits. A checkpoint applies the
//! committed images to the data file, fsyncs it, and truncates the log.
//! Recovery scans for the last `COMMIT`: everything up to it is replayed
//! (idempotently — replaying twice is harmless), everything after it is
//! crash debris and is discarded.

use crate::crc::Crc32c;
use crate::pager::PageIdMap;
use crate::vfs::VFile;
use crate::{Error, PageId, Result};

const WAL_MAGIC: &[u8; 8] = b"VISTWAL1";
/// Size of the WAL file header.
pub(crate) const WAL_HDR: u64 = 16;
/// Size of a record header (`kind u8 | page_id u32 | len u32 | crc u32`).
const REC_HDR: usize = 13;

const KIND_PAGE: u8 = 1;
const KIND_COMMIT: u8 = 2;

/// Outcome of scanning a WAL on open.
#[derive(Debug, Default)]
pub(crate) struct WalScan {
    /// Latest committed image per page: id → record offset.
    pub committed: PageIdMap<u64>,
    /// Number of commit records found.
    pub commits: u64,
    /// Bytes after the last commit (uncommitted tail, discarded).
    pub discarded_bytes: u64,
}

pub(crate) struct Wal {
    file: Box<dyn VFile>,
    page_size: usize,
    /// Append position (bytes).
    end: u64,
    /// Sequence number of the next commit record.
    seq: u64,
    /// Staging buffer of one `PAGE` record (header ‖ payload): every page
    /// image read back passes through it.
    rec: Vec<u8>,
}

fn record_crc(kind: u8, pid: PageId, payload: &[u8]) -> u32 {
    let mut c = Crc32c::new();
    c.update(&[kind]).update(&pid.to_le_bytes()).update(payload);
    c.finish()
}

fn encode_header(kind: u8, pid: PageId, payload: &[u8]) -> [u8; REC_HDR] {
    let mut hdr = [0u8; REC_HDR];
    hdr[0] = kind;
    hdr[1..5].copy_from_slice(&pid.to_le_bytes());
    hdr[5..9].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    hdr[9..13].copy_from_slice(&record_crc(kind, pid, payload).to_le_bytes());
    hdr
}

/// `(kind, page_id, len, crc)` of a record header.
fn decode_header(hdr: &[u8]) -> (u8, PageId, usize, u32) {
    let word = |at: usize| u32::from_le_bytes(hdr[at..at + 4].try_into().unwrap());
    (hdr[0], word(1), word(5) as usize, word(9))
}

impl Wal {
    /// Initialize a fresh WAL (writes the header; caller syncs).
    pub fn create(mut file: Box<dyn VFile>, page_size: usize) -> Result<Self> {
        let mut hdr = [0u8; WAL_HDR as usize];
        hdr[0..8].copy_from_slice(WAL_MAGIC);
        hdr[8..12].copy_from_slice(&(page_size as u32).to_le_bytes());
        file.set_len(0)?;
        file.write_at(0, &hdr)?;
        Ok(Wal {
            file,
            page_size,
            end: WAL_HDR,
            seq: 0,
            rec: vec![0u8; REC_HDR + page_size],
        })
    }

    /// Open an existing WAL file and scan it for committed records. A file
    /// shorter than the header (e.g. created but never written before a
    /// crash) is re-initialized as empty. `expect_page_size` of `None`
    /// accepts whatever the header declares.
    pub fn open(
        mut file: Box<dyn VFile>,
        expect_page_size: Option<usize>,
    ) -> Result<(Self, WalScan)> {
        let len = file.len()?;
        if len < WAL_HDR {
            let page_size = expect_page_size.ok_or(Error::BadMagic { what: "wal header" })?;
            let wal = Wal::create(file, page_size)?;
            return Ok((wal, WalScan::default()));
        }
        let mut hdr = [0u8; WAL_HDR as usize];
        file.read_at(0, &mut hdr)?;
        if &hdr[0..8] != WAL_MAGIC {
            return Err(Error::BadMagic { what: "wal header" });
        }
        let page_size = u32::from_le_bytes(hdr[8..12].try_into().unwrap()) as usize;
        if let Some(expect) = expect_page_size {
            if expect != page_size {
                return Err(Error::Corrupt(format!(
                    "wal page size {page_size} != store page size {expect}"
                )));
            }
        }
        crate::pager::check_page_size(page_size)
            .map_err(|_| Error::Corrupt(format!("bad page size {page_size} in wal header")))?;

        let mut scan = WalScan::default();
        let mut staged = PageIdMap::default();
        let mut pos = WAL_HDR;
        let mut committed_end = WAL_HDR;
        let mut rec = vec![0u8; REC_HDR + page_size];
        loop {
            if pos + REC_HDR as u64 > len {
                break; // torn record header (or clean end)
            }
            let (rec_hdr, payload) = rec.split_at_mut(REC_HDR);
            if file.read_at(pos, rec_hdr).is_err() {
                break;
            }
            let (kind, pid, rlen, crc) = decode_header(rec_hdr);
            let valid_shape = match kind {
                KIND_PAGE => rlen == page_size,
                KIND_COMMIT => rlen == 8,
                _ => false,
            };
            if !valid_shape || pos + (REC_HDR + rlen) as u64 > len {
                break; // torn or garbage tail
            }
            let body = &mut payload[..rlen];
            if file.read_at(pos + REC_HDR as u64, body).is_err() {
                break;
            }
            if record_crc(kind, pid, body) != crc {
                break; // torn payload
            }
            pos += (REC_HDR + rlen) as u64;
            match kind {
                KIND_PAGE => {
                    staged.insert(pid, pos - (REC_HDR + rlen) as u64);
                }
                KIND_COMMIT => {
                    scan.committed.extend(staged.drain());
                    scan.commits += 1;
                    committed_end = pos;
                }
                _ => unreachable!("shape-checked above"),
            }
        }
        scan.discarded_bytes = len - committed_end;
        Ok((
            Wal {
                file,
                page_size,
                end: len,
                seq: scan.commits,
                rec,
            },
            scan,
        ))
    }

    /// Bytes of one `PAGE` record: the records of one append lie this far
    /// apart.
    pub fn record_len(&self) -> usize {
        REC_HDR + self.page_size
    }

    /// Append one `PAGE` record for each `(id, data)` of `pages` — `data`
    /// zero-padded to the page size — encoded into `staging` and written
    /// with one call, and return the first record's offset (for later
    /// [`Wal::read_page`]s). Not synced — [`Wal::commit`] makes them
    /// durable. After an error the append position has not moved: the next
    /// append overwrites whatever part of these records reached the file.
    pub fn append_pages(
        &mut self,
        staging: &mut Vec<u8>,
        pages: &[(PageId, &[u8])],
    ) -> Result<u64> {
        staging.clear();
        for &(pid, data) in pages {
            debug_assert!(data.len() <= self.page_size);
            let at = staging.len();
            staging.extend_from_slice(&[0; REC_HDR]);
            staging.extend_from_slice(data);
            staging.resize(at + self.record_len(), 0);
            let (hdr, payload) = staging[at..].split_at_mut(REC_HDR);
            hdr.copy_from_slice(&encode_header(KIND_PAGE, pid, payload));
        }
        let off = self.end;
        self.file.write_at(off, staging)?;
        self.end += staging.len() as u64;
        Ok(off)
    }

    /// Read back the page image appended at `offset` (header and payload in
    /// one read), verifying its CRC. The image is borrowed from the staging
    /// buffer, valid until the next append or read.
    pub fn read_page(&mut self, offset: u64, expect_pid: PageId) -> Result<&[u8]> {
        self.file.read_at(offset, &mut self.rec)?;
        let (rec_hdr, payload) = self.rec.split_at(REC_HDR);
        let (kind, pid, rlen, crc) = decode_header(rec_hdr);
        if kind != KIND_PAGE || pid != expect_pid || rlen != self.page_size {
            return Err(Error::TruncatedWal { offset });
        }
        let actual = record_crc(kind, pid, payload);
        if actual != crc {
            return Err(Error::ChecksumMismatch {
                page: u64::from(pid),
                expected: crc,
                actual,
            });
        }
        Ok(payload)
    }

    /// Make all appended records durable and seal them with a commit record
    /// (fsync · commit · fsync).
    pub fn commit(&mut self) -> Result<()> {
        self.file.sync()?;
        let payload = self.seq.to_le_bytes();
        let mut rec = [0u8; REC_HDR + 8];
        rec[..REC_HDR].copy_from_slice(&encode_header(KIND_COMMIT, 0, &payload));
        rec[REC_HDR..].copy_from_slice(&payload);
        self.file.write_at(self.end, &rec)?;
        self.end += rec.len() as u64;
        self.file.sync()?;
        self.seq += 1;
        Ok(())
    }

    /// Fsync the log file without committing (used once at store creation
    /// to make the empty log's header durable).
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync()?;
        Ok(())
    }

    /// Discard all records (the checkpoint has been applied).
    pub fn truncate(&mut self) -> Result<()> {
        self.file.set_len(WAL_HDR)?;
        self.file.sync()?;
        self.end = WAL_HDR;
        Ok(())
    }

    /// Current log size in bytes (header included).
    pub fn bytes(&self) -> u64 {
        self.end
    }

    /// Page size declared by the log header.
    pub fn page_size(&self) -> usize {
        self.page_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;
    use crate::vfs::{OpenMode, RealVfs, Vfs};

    const PS: usize = 128;

    fn open_file(dir: &TempDir, mode: OpenMode) -> Box<dyn VFile> {
        RealVfs.open(&dir.file("wal"), mode).unwrap()
    }

    fn page(fill: u8) -> Vec<u8> {
        vec![fill; PS]
    }

    fn append(wal: &mut Wal, pid: PageId, data: &[u8]) {
        wal.append_pages(&mut Vec::new(), &[(pid, data)]).unwrap();
    }

    #[test]
    fn committed_records_replay_uncommitted_tail_discarded() {
        let dir = TempDir::new("wal-replay");
        {
            let mut wal = Wal::create(open_file(&dir, OpenMode::CreateTruncate), PS).unwrap();
            append(&mut wal, 3, &page(0xAA));
            append(&mut wal, 5, &page(0xBB));
            append(&mut wal, 3, &page(0xCC)); // newer image of 3
            wal.commit().unwrap();
            append(&mut wal, 9, &page(0xDD)); // never committed
        }
        let (mut wal, scan) = Wal::open(open_file(&dir, OpenMode::MustExist), Some(PS)).unwrap();
        assert_eq!(scan.commits, 1);
        assert_eq!(scan.committed.len(), 2);
        assert!(scan.discarded_bytes > 0, "uncommitted tail measured");
        let image = wal.read_page(scan.committed[&3], 3).unwrap();
        assert_eq!(image, page(0xCC), "latest image wins");
        let image = wal.read_page(scan.committed[&5], 5).unwrap();
        assert_eq!(image, page(0xBB));
    }

    #[test]
    fn torn_tail_is_ignored_not_fatal() {
        let dir = TempDir::new("wal-torn");
        let full_len;
        {
            let mut wal = Wal::create(open_file(&dir, OpenMode::CreateTruncate), PS).unwrap();
            append(&mut wal, 1, &page(0x11));
            wal.commit().unwrap();
            append(&mut wal, 2, &page(0x22));
            full_len = wal.bytes();
        }
        // Tear the last record at every possible byte boundary.
        let committed_end = full_len - (REC_HDR + PS) as u64;
        for cut in [
            committed_end + 1,
            committed_end + REC_HDR as u64 - 1,
            committed_end + REC_HDR as u64 + 7,
            full_len - 1,
        ] {
            let mut f = open_file(&dir, OpenMode::MustExist);
            f.set_len(cut).unwrap();
            drop(f);
            let (_, scan) = Wal::open(open_file(&dir, OpenMode::MustExist), Some(PS)).unwrap();
            assert_eq!(scan.commits, 1, "cut at {cut}");
            assert_eq!(scan.committed.len(), 1, "cut at {cut}");
            assert_eq!(scan.discarded_bytes, cut - committed_end, "cut at {cut}");
        }
    }

    #[test]
    fn flipped_byte_invalidates_from_there_on() {
        let dir = TempDir::new("wal-flip");
        {
            let mut wal = Wal::create(open_file(&dir, OpenMode::CreateTruncate), PS).unwrap();
            append(&mut wal, 1, &page(0x11));
            wal.commit().unwrap();
            append(&mut wal, 2, &page(0x22));
            wal.commit().unwrap();
        }
        // Flip a byte inside the FIRST page record's payload: the scan stops
        // there, so only records before it replay — never garbage.
        let mut f = open_file(&dir, OpenMode::MustExist);
        let off = WAL_HDR + REC_HDR as u64 + 10;
        let mut b = [0u8; 1];
        f.read_at(off, &mut b).unwrap();
        b[0] ^= 0x40;
        f.write_at(off, &b).unwrap();
        drop(f);
        let (_, scan) = Wal::open(open_file(&dir, OpenMode::MustExist), Some(PS)).unwrap();
        assert_eq!(scan.commits, 0, "commits behind the corruption are lost");
        assert!(scan.committed.is_empty());
        assert!(scan.discarded_bytes > 0);
    }

    #[test]
    fn bad_magic_and_page_size_mismatch() {
        let dir = TempDir::new("wal-magic");
        std::fs::write(dir.file("wal"), b"garbage garbage garbage").unwrap();
        assert!(matches!(
            Wal::open(open_file(&dir, OpenMode::MustExist), Some(PS)),
            Err(Error::BadMagic { what: "wal header" })
        ));
        {
            let _ = Wal::create(open_file(&dir, OpenMode::CreateTruncate), PS).unwrap();
        }
        assert!(matches!(
            Wal::open(open_file(&dir, OpenMode::MustExist), Some(PS * 2)),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn short_file_reinitialized_as_empty() {
        let dir = TempDir::new("wal-short");
        std::fs::write(dir.file("wal"), b"VIST").unwrap(); // crashed mid-create
        let (wal, scan) = Wal::open(open_file(&dir, OpenMode::MustExist), Some(PS)).unwrap();
        assert_eq!(scan.commits, 0);
        assert_eq!(wal.bytes(), WAL_HDR);
    }
}
