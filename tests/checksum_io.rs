//! The cold path's contracts, from outside the storage crate: checksum
//! values, the on-disk format, positional file I/O and free-list links.
//!
//! * The public `crc32c` / `Crc32c` agree with an independent bit-at-a-time
//!   CRC32C (whichever kernel this host selects).
//! * A store written by the commit *before* the word-at-a-time kernel and
//!   the staged frame buffers (`tests/fixtures/`, see `SEQUENCE` below)
//!   opens, replays and reads back byte-identical; the same operation
//!   sequence run by this code writes byte-identical files, so either
//!   version reads what the other wrote.
//! * `RealVfs` reads and writes at offsets, directly and under `FaultVfs`.
//! * A free-list link that passes the page CRC but points outside the
//!   store is `Error::Corrupt`, not a data page at frame 0; so are a cycle
//!   in the list, a live page on it and a page missing from it, which
//!   `FilePager::check_free_list` and `VistIndex::check` find.

use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use vist_storage::testutil::TempDir;
use vist_storage::{
    crc32c, Crc32c, Error, FaultMode, FaultVfs, FilePager, OpenMode, PageId, Pager, RealVfs, Vfs,
    INVALID_PAGE, PAGE_TRAILER,
};

// ---------------------------------------------------------------------------
// Checksum values
// ---------------------------------------------------------------------------

/// CRC32C by polynomial division, one bit per step.
fn reference_crc32c(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0x82F6_3B78
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

fn noise(n: usize, mut x: u64) -> Vec<u8> {
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 56) as u8
        })
        .collect()
}

#[test]
fn public_checksum_matches_an_independent_reference() {
    assert_eq!(crc32c(b"123456789"), 0xE306_9283, "RFC 3720");
    let data = noise(4_200, 7);
    for len in (0..=80).chain([255, 256, 4_095, 4_096, 4_100, 4_104, 4_109, 4_200]) {
        for start in 0..8.min(data.len() - len + 1) {
            let slice = &data[start..start + len];
            assert_eq!(
                crc32c(slice),
                reference_crc32c(slice),
                "len {len} at {start}"
            );
        }
    }
    // The shapes the store checksums: id ‖ payload, kind ‖ id ‖ payload.
    let whole = reference_crc32c(&data[..4_101]);
    let mut c = Crc32c::new();
    c.update(&data[..1])
        .update(&data[1..5])
        .update(&data[5..4_101]);
    assert_eq!(c.finish(), whole);
}

// ---------------------------------------------------------------------------
// Format compatibility with the parent commit
// ---------------------------------------------------------------------------

const PS: usize = 256;
const FRAME: usize = PS + PAGE_TRAILER;

fn image(id: PageId, version: u8) -> Vec<u8> {
    (0..PS)
        .map(|i| (id as u8).wrapping_mul(31) ^ version.wrapping_mul(97) ^ i as u8)
        .collect()
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// SEQUENCE: two checkpoints and an uncommitted tail.
///
/// Checkpoint 1: pages 1–6 allocated, 1–5 written (6 is a gap image).
/// Checkpoint 2: 2 and 4 freed, 4 recycled, 1, 3, 4 rewritten; page 2 stays
/// on the free list. Tail: page 5 rewritten, never synced.
fn run_sequence(vfs: &dyn Vfs, path: &Path) -> vist_storage::Result<()> {
    let mut p = FilePager::create_with_vfs(vfs, path, PS)?;
    for _ in 0..6 {
        p.allocate()?;
    }
    for id in 1..=5 {
        p.write(id, &image(id, 1))?;
    }
    p.sync()?;
    p.free(2)?;
    p.free(4)?;
    assert_eq!(p.allocate()?, 4);
    for id in [1, 3, 4] {
        p.write(id, &image(id, 2))?;
    }
    p.sync()?;
    p.write(5, &image(5, 3))
}

/// What every page of the store holds after checkpoint 2.
fn expected_after_second_checkpoint() -> Vec<(PageId, Vec<u8>)> {
    let mut free_link = vec![0u8; PS];
    free_link[..4].copy_from_slice(&INVALID_PAGE.to_le_bytes());
    vec![
        (1, image(1, 2)),
        (2, free_link),
        (3, image(3, 2)),
        (4, image(4, 2)),
        (5, image(5, 1)),
        (6, vec![0u8; PS]),
    ]
}

/// Bytes of a torn record appended to the crashed WAL of the fixture.
const TORN_TAIL: usize = 100;

/// Regenerates `tests/fixtures/`. Run it at the commit whose format is the
/// reference (the fixtures checked in were written at a19e5fa, the parent of
/// the word-at-a-time checksum kernel), never to make a failing test pass.
#[test]
#[ignore = "writes tests/fixtures; see the comment"]
fn write_fixtures() {
    std::fs::create_dir_all(fixture("")).unwrap();
    // golden.*: the sequence, uninterrupted.
    let dir = TempDir::new("fixture-golden");
    run_sequence(&RealVfs, &dir.file("store")).unwrap();
    std::fs::copy(dir.file("store"), fixture("golden.store")).unwrap();
    std::fs::copy(dir.file("store.wal"), fixture("golden.store.wal")).unwrap();

    // crashed.*: the process dies at the first operation after which
    // recovery replays checkpoint 2 (header and pages 1–4; checkpoint 1
    // replays seven): its commit record is durable, the data file is not
    // yet written or is torn. The log then gains the torn head of one more
    // record.
    for n in 0.. {
        let dir = TempDir::new("fixture-crashed");
        let vfs = FaultVfs::new(Arc::new(RealVfs));
        vfs.handle().schedule(n, FaultMode::Crash, 0x5EED);
        assert!(run_sequence(&vfs, &dir.file("store")).is_err());
        let Ok(mut wal) = std::fs::read(dir.file("store.wal")) else {
            continue; // died before the log existed
        };
        if wal.len() < 16 + TORN_TAIL {
            continue;
        }
        let tail = wal[16..16 + TORN_TAIL].to_vec();
        wal.extend_from_slice(&tail);
        std::fs::copy(dir.file("store"), dir.file("trial")).unwrap();
        std::fs::write(dir.file("trial.wal"), &wal).unwrap();
        let Ok(trial) = FilePager::open(dir.file("trial")) else {
            continue; // died inside `create`
        };
        if trial.stats().recovered_pages == 5 {
            std::fs::copy(dir.file("store"), fixture("crashed.store")).unwrap();
            std::fs::write(fixture("crashed.store.wal"), &wal).unwrap();
            println!("crash at op {n}: {:?}", trial.stats());
            return;
        }
    }
}

#[test]
fn store_written_by_the_parent_commit_replays_and_reads_identically() {
    let dir = TempDir::new("fixture-open");
    let path = dir.file("store");
    std::fs::copy(fixture("crashed.store"), &path).unwrap();
    std::fs::copy(fixture("crashed.store.wal"), dir.file("store.wal")).unwrap();

    let mut p = FilePager::open(&path).unwrap();
    // Checkpoint 2 committed the header and pages 1–4; the torn record
    // behind the commit is debris.
    assert_eq!(p.stats().recovered_pages, 5);
    assert_eq!(p.stats().wal_discarded_bytes, TORN_TAIL as u64);
    assert_eq!(p.page_size(), PS);
    assert_eq!(p.live_pages(), 5);
    let mut buf = vec![0u8; PS];
    for (id, want) in expected_after_second_checkpoint() {
        p.read(id, &mut buf).unwrap();
        assert_eq!(buf, want, "page {id}");
    }
    // Recovery completed the checkpoint: the data file is the golden one.
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(fixture("golden.store")).unwrap()
    );
    // The free list came back with it.
    assert_eq!(p.allocate().unwrap(), 2);
    assert_eq!(p.allocate().unwrap(), 7);
}

/// The fixture's log is what a writer that checkpointed at every commit
/// leaves behind a crash: one commit, not yet truncated. It replays as
/// above; the commits made after it then stay in the log (the store is
/// seven frames, a one-page commit two images) and replay on the next open.
#[test]
fn single_commit_log_replays_then_later_commits_stay_in_the_log() {
    let dir = TempDir::new("fixture-defer");
    let path = dir.file("store");
    std::fs::copy(fixture("crashed.store"), &path).unwrap();
    std::fs::copy(fixture("crashed.store.wal"), dir.file("store.wal")).unwrap();
    let mut p = FilePager::open(&path).unwrap();
    assert_eq!(p.stats().recovered_pages, 5);
    for id in [1, 3] {
        p.write(id, &image(id, 9)).unwrap();
        p.sync().unwrap();
    }
    assert_eq!((p.stats().wal_commits, p.stats().checkpoints), (2, 0));
    drop(p);
    let mut p = FilePager::open(&path).unwrap();
    assert_eq!(p.stats().recovered_pages, 3, "header, pages 1 and 3");
    let mut buf = vec![0u8; PS];
    for (id, want) in expected_after_second_checkpoint() {
        p.read(id, &mut buf).unwrap();
        let want = if id == 1 || id == 3 {
            image(id, 9)
        } else {
            want
        };
        assert_eq!(buf, want, "page {id}");
    }
}

#[test]
fn same_operations_write_the_bytes_the_parent_commit_wrote() {
    let dir = TempDir::new("fixture-rewrite");
    run_sequence(&RealVfs, &dir.file("store")).unwrap();
    for (written, golden) in [("store", "golden.store"), ("store.wal", "golden.store.wal")] {
        assert_eq!(
            std::fs::read(dir.file(written)).unwrap(),
            std::fs::read(fixture(golden)).unwrap(),
            "{written} differs from the parent commit's {golden}"
        );
    }
}

// ---------------------------------------------------------------------------
// Positional I/O
// ---------------------------------------------------------------------------

fn positional_io_semantics(vfs: &dyn Vfs, name: &str) {
    let dir = TempDir::new(name);
    let mut f = vfs.open(&dir.file("f"), OpenMode::CreateTruncate).unwrap();

    // A write past EOF extends the file; the hole reads as zeros.
    f.write_at(1_000, b"tail").unwrap();
    assert_eq!(f.len().unwrap(), 1_004);
    let mut hole = [0xEEu8; 8];
    f.read_at(500, &mut hole).unwrap();
    assert_eq!(hole, [0u8; 8]);

    // A read that runs past EOF fails whole, at every overlap.
    let mut buf = [0u8; 8];
    for offset in [997, 1_003, 1_004, 5_000] {
        let err = f.read_at(offset, &mut buf).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "read at {offset}");
    }
    f.read_at(996, &mut buf).unwrap();
    assert_eq!(&buf, b"\0\0\0\0tail");

    // Reads and writes at unrelated offsets do not disturb each other: no
    // call depends on where the previous one left off.
    let mut model = vec![0u8; 1_004];
    model[1_000..].copy_from_slice(b"tail");
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for round in 0..400 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let len = 1 + (x >> 8) as usize % 300;
        let offset = (x >> 32) as usize % (model.len() - len + 64);
        if round % 3 == 0 {
            let end = offset + len;
            let mut got = vec![0u8; len];
            match f.read_at(offset as u64, &mut got) {
                Ok(()) => assert_eq!(got, model[offset..end], "round {round}"),
                Err(e) => {
                    assert_eq!(e.kind(), ErrorKind::UnexpectedEof);
                    assert!(end > model.len(), "round {round}: spurious EOF");
                }
            }
        } else {
            let bytes = noise(len, x);
            f.write_at(offset as u64, &bytes).unwrap();
            if model.len() < offset + len {
                model.resize(offset + len, 0);
            }
            model[offset..offset + len].copy_from_slice(&bytes);
        }
    }
    assert_eq!(f.len().unwrap(), model.len() as u64);
    drop(f);
    assert_eq!(std::fs::read(dir.file("f")).unwrap(), model);
}

#[test]
fn real_vfs_reads_and_writes_at_offsets() {
    positional_io_semantics(&RealVfs, "pio-real");
}

#[test]
fn fault_vfs_passes_positional_io_through_unchanged() {
    positional_io_semantics(&FaultVfs::new(Arc::new(RealVfs)), "pio-fault");
}

// ---------------------------------------------------------------------------
// Free-list links that pass the CRC but are wrong
// ---------------------------------------------------------------------------

/// Overwrite `len` payload bytes of frame `id` at `at` and re-seal the
/// frame's trailer, as a buggy writer (not bit rot) would.
fn patch_frame(path: &Path, id: PageId, at: usize, bytes: &[u8]) {
    let mut file = std::fs::read(path).unwrap();
    let frame = &mut file[id as usize * FRAME..(id as usize + 1) * FRAME];
    frame[at..at + bytes.len()].copy_from_slice(bytes);
    let mut c = Crc32c::new();
    c.update(&id.to_le_bytes()).update(&frame[..PS]);
    frame[PS..PS + 4].copy_from_slice(&c.finish().to_le_bytes());
    std::fs::write(path, file).unwrap();
}

/// Three pages, 2 then 3 freed: the list is 3 → 2 → end, the high-water
/// mark 4, one page live.
fn store_with_two_free_pages(dir: &TempDir) -> PathBuf {
    let path = dir.file("store");
    let mut p = FilePager::create(&path, PS).unwrap();
    for _ in 0..3 {
        p.allocate().unwrap();
    }
    p.free(2).unwrap();
    p.free(3).unwrap();
    p.sync().unwrap();
    path
}

fn assert_corrupt(result: vist_storage::Result<impl Sized>, field: &str) {
    match result {
        Err(Error::Corrupt(msg)) => assert!(msg.contains(field), "{msg:?} names {field:?}"),
        Err(other) => panic!("expected Corrupt naming {field:?}, got {other:?}"),
        Ok(_) => panic!("expected Corrupt naming {field:?}, got Ok"),
    }
}

const HDR_FREE_HEAD: usize = 12;
const HDR_LIVE: usize = 20;

#[test]
fn wrong_free_list_link_is_corrupt_not_page_zero() {
    for bad in [0, 4, 9_999] {
        let dir = TempDir::new("freelink");
        let path = store_with_two_free_pages(&dir);
        patch_frame(&path, 3, 0, &PageId::to_le_bytes(bad));
        let mut p = FilePager::open(&path).unwrap();
        assert_corrupt(p.allocate(), "free-list link of page 3");
        // Nothing was handed out and nothing moved: the error repeats.
        assert_corrupt(p.allocate(), "free-list link of page 3");
        assert_eq!(p.live_pages(), 1);
    }
    // Untouched, the list hands out 3, then 2, then the store grows.
    let dir = TempDir::new("freelink-ok");
    let mut p = FilePager::open(store_with_two_free_pages(&dir)).unwrap();
    assert_eq!(p.allocate().unwrap(), 3);
    assert_eq!(p.allocate().unwrap(), 2);
    assert_eq!(p.allocate().unwrap(), 4);
}

#[test]
fn wrong_header_free_head_or_live_count_fails_open() {
    for bad in [0, 4, 9_999] {
        let dir = TempDir::new("freehead");
        let path = store_with_two_free_pages(&dir);
        patch_frame(&path, 0, HDR_FREE_HEAD, &PageId::to_le_bytes(bad));
        assert_corrupt(FilePager::open(&path), "free-list head");
    }
    let dir = TempDir::new("livecount");
    let path = store_with_two_free_pages(&dir);
    patch_frame(&path, 0, HDR_LIVE, &4u64.to_le_bytes());
    assert_corrupt(FilePager::open(&path), "live count");
    // The largest consistent count opens: every page below the mark live.
    patch_frame(&path, 0, HDR_LIVE, &3u64.to_le_bytes());
    assert_eq!(FilePager::open(&path).unwrap().live_pages(), 3);
}

// ---------------------------------------------------------------------------
// The free list as a whole
// ---------------------------------------------------------------------------

#[test]
fn free_list_cycle_leak_or_live_page_is_corrupt() {
    // Untouched, the list 3 → 2 holds both pages that are not live.
    let dir = TempDir::new("freelist-ok");
    FilePager::open(store_with_two_free_pages(&dir))
        .unwrap()
        .check_free_list()
        .unwrap();
    for (link, names) in [
        // 3 → 2 → 3: a two-page cycle.
        (3, "goes on to page 3"),
        // 3 → 2 → 1: page 1 is live.
        (1, "goes on to page 1"),
        // 3 → 2 → end would be right; 3 → end leaks page 2.
        (INVALID_PAGE, "1 leaked"),
    ] {
        let dir = TempDir::new("freelist-bad");
        let path = store_with_two_free_pages(&dir);
        let (page, link) = if link == INVALID_PAGE {
            (3, link)
        } else {
            (2, link)
        };
        patch_frame(&path, page, 0, &PageId::to_le_bytes(link));
        let mut p = FilePager::open(&path).unwrap();
        assert_corrupt(p.check_free_list(), names);
    }
}

#[test]
fn free_list_links_still_in_the_log_are_walked() {
    let dir = TempDir::new("freelist-wal");
    let path = dir.file("store");
    let mut p = FilePager::create(&path, PS).unwrap();
    for _ in 0..64 {
        let id = p.allocate().unwrap();
        p.write(id, &image(id, 1)).unwrap();
    }
    p.sync().unwrap();
    for id in [7, 9, 8] {
        p.free(id).unwrap();
    }
    p.check_free_list().unwrap();
    p.sync().unwrap();
    assert_eq!(p.stats().checkpoints, 1, "the frees are only in the log");
    p.check_free_list().unwrap();
    drop(p);
    let mut p = FilePager::open(&path).unwrap();
    p.check_free_list().unwrap();
    assert_eq!(p.allocate().unwrap(), 8);
}

#[test]
fn index_check_reports_a_free_list_cycle() {
    use vist::{IndexOptions, VistIndex};
    let dir = TempDir::new("freelist-index");
    let path = dir.file("idx");
    {
        let opts = IndexOptions {
            page_size: PS,
            ..IndexOptions::default()
        };
        let idx = VistIndex::create_file(&path, opts).unwrap();
        for i in 0..40 {
            idx.insert_xml(&format!("<r><k>{i}</k></r>")).unwrap();
        }
        // The compaction empties the delta's trees, freeing their pages,
        // and checkpoints: the data file alone holds the list.
        idx.compact().unwrap();
        assert!(idx.check().unwrap().contains("free list ok"));
    }
    assert_eq!(
        std::fs::metadata(FilePager::wal_path(&path)).unwrap().len(),
        16
    );
    let bytes = std::fs::read(&path).unwrap();
    let word = |at: usize| PageId::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let head = word(HDR_FREE_HEAD);
    let next = word(head as usize * FRAME);
    assert!(
        head != INVALID_PAGE && next != INVALID_PAGE,
        "two free pages"
    );
    patch_frame(&path, next, 0, &PageId::to_le_bytes(head));
    let idx = VistIndex::open_file(&path, 16).unwrap();
    match idx.check() {
        Err(vist::Error::Corrupt(report)) => {
            assert!(report.contains("free list CORRUPT"), "{report}");
            assert!(report.contains("a cycle"), "{report}");
        }
        other => panic!("expected a corrupt free list, got {other:?}"),
    }
}
