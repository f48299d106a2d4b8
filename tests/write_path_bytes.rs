//! The bytes the write path leaves on disk, pinned.
//!
//! A fixed workload runs into a fresh directory at the default page size
//! and pool: a `bulk_build`, then 256-document `insert_batch`es whose
//! documents repeat ones already indexed (so most of a batch updates
//! records in place) beside new ones, removals between them (tombstones,
//! which empty no leaf: defragment-before-split is covered by
//! `proptest_btree::defragment_then_split_at_every_slot_position`),
//! `flush`es, a second `bulk_build` (which ends in a checkpoint) and a
//! `compact`. The length and 64-bit FNV-1a hash of every file it leaves are
//! compared with the values recorded when this test was written. The pool's
//! flushes write several chunks of pages and the checkpoints several runs
//! of frames, so the digests hold the page images, their order in the log
//! and the frames a checkpoint writes. A change that alters the on-disk
//! layout moves a digest: update it on purpose, in the same change, and say
//! why.
//!
//! The hash must not be a CRC. A data-file frame is `page ‖ crc32c(id ‖
//! page) ‖ 4 zero bytes`, and a CRC is affine over GF(2), so each page's
//! contribution to a whole-file CRC32C cancels against its own trailer: the
//! CRC32C of `index` or of a segment depends on the file's length alone.
//! The test checks that its hash sees a byte changed inside a resealed
//! frame.
//!
//! A second test counts the bytes a `bulk_build` and a `compact` write
//! to the segment file each makes: a segment is written once, straight to
//! its file, and has no log.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

use vist_core::{IndexOptions, VistIndex};
use vist_datagen::dblp;
use vist_storage::testutil::TempDir;
use vist_storage::{Crc32c, OpenMode, RealVfs, VFile, Vfs, PAGE_TRAILER};
use vist_xml::Document;

/// The default page size, which the workload's files are written at.
const PAGE: usize = 4096;

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(file name, length, fnv1a)` of every file in `dir`, by name.
fn digests(dir: &Path) -> Vec<(String, u64, u64)> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let bytes = std::fs::read(entry.path()).unwrap();
        let name = entry.file_name().into_string().unwrap();
        files.insert(name, (bytes.len() as u64, fnv1a(&bytes)));
    }
    files
        .into_iter()
        .map(|(name, (len, hash))| (name, len, hash))
        .collect()
}

/// `file` with one payload byte of frame `id` flipped and the frame's
/// trailer resealed, as a torn-free rewrite of that page would leave it.
fn flip_and_reseal(file: &[u8], id: u32) -> Vec<u8> {
    let mut file = file.to_vec();
    let at = id as usize * (PAGE + PAGE_TRAILER);
    let frame = &mut file[at..at + PAGE + PAGE_TRAILER];
    frame[PAGE / 2] ^= 0x5A;
    let mut c = Crc32c::new();
    c.update(&id.to_le_bytes()).update(&frame[..PAGE]);
    frame[PAGE..PAGE + 4].copy_from_slice(&c.finish().to_le_bytes());
    file
}

/// The digests after the batches (the last commits still in the log) and
/// at the end.
fn run_workload(dir: &Path) -> [Vec<(String, u64, u64)>; 2] {
    let xmls: Vec<String> = dblp::documents(1_400, 30)
        .iter()
        .map(Document::to_xml)
        .collect();
    let opts = IndexOptions {
        cache_pages: 4096,
        ..IndexOptions::default()
    };
    let idx = VistIndex::create_file(dir.join("index"), opts).unwrap();
    let mut live = idx.bulk_build(&xmls[..400]).unwrap();
    let mut fresh = xmls[400..].iter();
    for batch in 0..3 {
        // Half the batch repeats indexed documents, half is new.
        let docs: Vec<&String> = xmls[batch * 128..(batch + 1) * 128]
            .iter()
            .zip(fresh.by_ref().take(128))
            .flat_map(|(old, new)| [old, new])
            .collect();
        assert_eq!(docs.len(), 256);
        let before = idx.stats().io.write_backs;
        live.extend(idx.insert_batch(&docs, 1).unwrap());
        // The batch's commit writes more than a megabyte of pages.
        assert!(idx.stats().io.write_backs - before > 300, "batch {batch}");
        // Remove every ninth live document, segment and delta alike.
        let gone: Vec<u64> = live.iter().copied().step_by(9).collect();
        for &id in &gone {
            idx.remove_document(id).unwrap();
        }
        live.retain(|id| !gone.contains(id));
        idx.flush().unwrap();
    }
    let batches = digests(dir);
    let rest: Vec<&String> = fresh.collect();
    live.extend(idx.bulk_build(rest).unwrap());
    for &id in live.iter().step_by(5) {
        idx.remove_document(id).unwrap();
    }
    idx.flush().unwrap();
    idx.compact().unwrap();
    [batches, digests(dir)]
}

#[test]
fn the_write_path_leaves_the_pinned_bytes() {
    let dir = TempDir::new("write-path-bytes");
    let [batches, end] = run_workload(dir.path());
    // The digest sees the content of a page, not only the file's length.
    let index = std::fs::read(dir.file("index")).unwrap();
    assert_ne!(fnv1a(&index), fnv1a(&flip_and_reseal(&index, 1)));
    // A segment's documents tree takes the pages right after its header,
    // the other trees follow: same records, same length, other page ids.
    // A key past the end of a delta tree's last leaf goes alone to a new
    // leaf, so the stored documents, which arrive by ascending id, fill
    // their leaves: 14 pages fewer than a split at the middle left.
    let want_batches = [
        ("index", 4_383_072, 0x090d_be4c_b7ec_176d),
        ("index.seg-1", 406_296, 0x1bce_27e1_0456_a69c),
        ("index.wal", 20_582, 0x5d49_77e6_d014_8076),
    ];
    let want_end = [
        // The compaction's delta reset leaves the meta page, five empty
        // roots and the aux records of the globals and the live segment.
        ("index", 28_728, 0xc0a1_2af8_a0c0_d46f),
        ("index.seg-3", 1_067_040, 0x7eff_4c18_e001_3c0a),
        ("index.wal", 16, 0xe064_561d_4a38_3df4),
    ];
    for (at, got, want) in [
        ("after the batches", batches, want_batches),
        ("at the end", end, want_end),
    ] {
        let got: Vec<(&str, u64, u64)> = got.iter().map(|(n, l, h)| (n.as_str(), *l, *h)).collect();
        assert_eq!(got, want, "{at}");
    }
}

/// What went through a [`Counting`] file system to one file name.
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    opens: u64,
    reads: u64,
    read_bytes: u64,
    writes: u64,
    written_bytes: u64,
    set_lens: u64,
    syncs: u64,
}

/// The real file system, tallying every operation by file name; a
/// directory fsync counts as a sync of `(dir)`.
#[derive(Clone, Default)]
struct Counting(Arc<Mutex<BTreeMap<String, Tally>>>);

impl Counting {
    fn add(&self, name: &str, f: impl FnOnce(&mut Tally)) {
        f(self.0.lock().unwrap().entry(name.to_owned()).or_default());
    }

    /// The tallies since the last call.
    fn take(&self) -> BTreeMap<String, Tally> {
        std::mem::take(&mut *self.0.lock().unwrap())
    }
}

struct CountedFile {
    inner: Box<dyn VFile>,
    name: String,
    vfs: Counting,
}

impl VFile for CountedFile {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.vfs.add(&self.name, |t| {
            t.reads += 1;
            t.read_bytes += buf.len() as u64;
        });
        self.inner.read_at(offset, buf)
    }

    fn write_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        self.vfs.add(&self.name, |t| {
            t.writes += 1;
            t.written_bytes += buf.len() as u64;
        });
        self.inner.write_at(offset, buf)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.vfs.add(&self.name, |t| t.set_lens += 1);
        self.inner.set_len(len)
    }

    fn len(&mut self) -> io::Result<u64> {
        self.inner.len()
    }

    fn sync(&mut self) -> io::Result<()> {
        self.vfs.add(&self.name, |t| t.syncs += 1);
        self.inner.sync()
    }
}

impl Vfs for Counting {
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn VFile>> {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        self.add(&name, |t| t.opens += 1);
        Ok(Box::new(CountedFile {
            inner: RealVfs.open(path, mode)?,
            name,
            vfs: self.clone(),
        }))
    }

    fn sync_parent_dir(&self, path: &Path) -> io::Result<()> {
        self.add("(dir)", |t| t.syncs += 1);
        RealVfs.sync_parent_dir(path)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        RealVfs.remove(path)
    }
}

/// During a `bulk_build` and during a `compact`, the bytes written to the
/// new segment file are its length and one frame more (each frame once, the
/// file's header frame at creation and again at the seal), and no segment log
/// is opened. The pool's last flush hands its frames over by page id, so the
/// file takes one write a chunk of the build's run and four more: the file
/// header twice, the segment header (page 1, written at the end) and the
/// tail of the run after it. Large writes matter after the
/// build too: the page cache keeps a file written a frame per call in
/// small units, and every later read of it pays for that.
#[test]
fn a_segment_is_written_once() {
    let dir = TempDir::new("write-path-once");
    let xmls: Vec<String> = dblp::documents(1_500, 30)
        .iter()
        .map(Document::to_xml)
        .collect();
    let vfs = Counting::default();
    let idx = VistIndex::create_at(
        Arc::new(vfs.clone()),
        &dir.file("index"),
        IndexOptions::default(),
    )
    .unwrap();
    let written_once = |op: &str, segment: &str| {
        let tally = vfs.take();
        let len = std::fs::metadata(dir.file(segment)).unwrap().len();
        let t = tally[segment];
        eprintln!("{op}: {segment} is {len} B; {t:?}");
        let frame = (PAGE + PAGE_TRAILER) as u64;
        assert!(
            t.written_bytes <= len + frame,
            "{op} wrote {} B to a {len} B segment",
            t.written_bytes
        );
        let chunks = len.div_ceil(1 << 20);
        assert!(t.writes <= chunks + 2, "{op}: {} writes", t.writes);
        let logs: Vec<&String> = tally
            .keys()
            .filter(|name| name.contains(".seg-") && name.ends_with(".wal"))
            .collect();
        assert!(logs.is_empty(), "{op} opened {logs:?}");
    };
    vfs.take();
    idx.bulk_build(&xmls[..1_000]).unwrap();
    written_once("bulk_build", "index.seg-1");
    for id in (0..1_000).step_by(7) {
        idx.remove_document(id).unwrap();
    }
    idx.insert_batch(&xmls[1_000..], 1).unwrap();
    idx.flush().unwrap();
    vfs.take();
    idx.compact().unwrap();
    written_once("compact", "index.seg-2");
}
