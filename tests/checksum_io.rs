//! The cold path's contracts, from outside the storage crate: checksum
//! values, the on-disk format and positional file I/O.
//!
//! * The public `crc32c` / `Crc32c` agree with an independent bit-at-a-time
//!   CRC32C (whichever kernel this host selects).
//! * A store written by the commit *before* the word-at-a-time kernel and
//!   the staged frame buffers (`tests/fixtures/`, see `FIXTURE` below)
//!   opens, replays and reads back byte-identical, though this code reads
//!   nothing of the free list it holds; an operation sequence this code can
//!   run (`SEQUENCE`) writes the bytes the commit before free lists went
//!   wrote for it, so either version reads what the other wrote.
//! * `RealVfs` reads and writes at offsets, directly and under `FaultVfs`.

use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use vist_storage::testutil::TempDir;
use vist_storage::{
    crc32c, Crc32c, FaultVfs, FilePager, OpenMode, PageId, Pager, RealVfs, Vfs, INVALID_PAGE,
    PAGE_TRAILER,
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

/// FIXTURE: `golden.store*` and `crashed.store*` were written by the
/// ignored `write_fixtures` test of a19e5fa, which ran two checkpoints and
/// an uncommitted tail on a `FilePager` that still freed pages.
///
/// Checkpoint 1: pages 1–6 allocated, 1–5 written (6 is a gap image).
/// Checkpoint 2: 2 and 4 freed, 4 recycled, 1, 3, 4 rewritten; page 2 stays
/// on the free list. Tail: page 5 rewritten, never synced. `crashed.*` is
/// the first crash of that run after which recovery replays checkpoint 2
/// (header and pages 1–4), its log extended by [`TORN_TAIL`] bytes of a
/// torn record. `golden.*` is the uninterrupted run.
///
/// Returns what every page of the store holds after checkpoint 2.
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
    // Its free list is never read: page 2 is not handed out again.
    assert_eq!(p.allocate().unwrap(), 7);
    assert_eq!(p.allocate().unwrap(), 8);
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

/// SEQUENCE: a checkpoint, two commits left in the log and an uncommitted
/// tail, with no page freed.
///
/// Checkpoint: pages 1–6 allocated, 1–5 written (6 is a gap image). Commit
/// 2: page 3 rewritten. Commit 3: page 7 allocated, 1 and 7 written. The
/// store is eight frames, so neither commit reaches the size rule. Tail:
/// page 5 rewritten, never synced.
fn run_sequence(path: &Path) -> vist_storage::Result<()> {
    let mut p = FilePager::create(path, PS)?;
    for _ in 0..6 {
        p.allocate()?;
    }
    for id in 1..=5 {
        p.write(id, &image(id, 1))?;
    }
    p.sync()?;
    p.write(3, &image(3, 2))?;
    p.sync()?;
    assert_eq!(p.allocate()?, 7);
    for id in [1, 7] {
        p.write(id, &image(id, 2))?;
    }
    p.sync()?;
    assert_eq!((p.stats().wal_commits, p.stats().checkpoints), (3, 1));
    p.write(5, &image(5, 3))
}

/// Length and FNV-1a of the files [`run_sequence`] leaves, as 7183817 wrote
/// them.
const SEQUENCE_STORE_LEN: u64 = 1_848;
const SEQUENCE_STORE_FNV: u64 = 0xfea0_9871_2ef1_8cf6;
const SEQUENCE_WAL_LEN: u64 = 1_672;
const SEQUENCE_WAL_FNV: u64 = 0x5753_b044_a98a_f901;

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The files [`run_sequence`] leaves are the ones the commit before free
/// lists went (7183817) wrote: with no page freed, it wrote the same
/// free-list head and live count into every header image as this code.
#[test]
fn same_operations_write_the_bytes_the_parent_commit_wrote() {
    let dir = TempDir::new("fixture-rewrite");
    run_sequence(&dir.file("store")).unwrap();
    for (name, want) in [
        ("store", (SEQUENCE_STORE_LEN, SEQUENCE_STORE_FNV)),
        ("store.wal", (SEQUENCE_WAL_LEN, SEQUENCE_WAL_FNV)),
    ] {
        let bytes = std::fs::read(dir.file(name)).unwrap();
        assert_eq!(
            (bytes.len() as u64, fnv1a(&bytes)),
            want,
            "{name} differs from the parent commit's"
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
// The header's free-list fields
// ---------------------------------------------------------------------------

/// Overwrite `bytes` of frame `id`'s payload at `at` and re-seal the frame's
/// trailer, as a buggy writer (not bit rot) would.
fn patch_frame(path: &Path, id: PageId, at: usize, bytes: &[u8]) {
    let mut file = std::fs::read(path).unwrap();
    let frame = &mut file[id as usize * FRAME..(id as usize + 1) * FRAME];
    frame[at..at + bytes.len()].copy_from_slice(bytes);
    let mut c = Crc32c::new();
    c.update(&id.to_le_bytes()).update(&frame[..PS]);
    frame[PS..PS + 4].copy_from_slice(&c.finish().to_le_bytes());
    std::fs::write(path, file).unwrap();
}

const HDR_FREE_HEAD: usize = 12;
const HDR_HIGH_WATER: usize = 16;
const HDR_LIVE: usize = 20;

/// A header free-list head or live count that is wrong opens all the same:
/// this code reads neither. The header keeps both so that a binary that
/// still reads them opens a store this one wrote: every checkpoint writes an
/// empty list and every page below the high-water mark as live.
#[test]
fn wrong_header_free_head_or_live_count_fails_open() {
    let golden = std::fs::read(fixture("golden.store")).unwrap();
    assert_eq!(word(&golden, HDR_FREE_HEAD), 2, "the fixture's list");
    for (head, live) in [(2, 5u64), (0, 9_999), (9_999, 7), (INVALID_PAGE, 0)] {
        let dir = TempDir::new("free-fields");
        let path = dir.file("store");
        std::fs::copy(fixture("golden.store"), &path).unwrap();
        patch_frame(&path, 0, HDR_FREE_HEAD, &head.to_le_bytes());
        patch_frame(&path, 0, HDR_LIVE, &live.to_le_bytes());
        let mut p = FilePager::open(&path).unwrap();
        assert_eq!(p.allocate().unwrap(), 7, "head {head}, live {live}");
        p.checkpoint().unwrap();
        drop(p);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(word(&bytes, HDR_HIGH_WATER), 8);
        assert_eq!(word(&bytes, HDR_FREE_HEAD), INVALID_PAGE);
        assert_eq!(bytes[HDR_LIVE..HDR_LIVE + 8], 7u64.to_le_bytes());
    }
}

/// A free-list link that passes the CRC but is wrong, even one to the
/// header, is never followed: `allocate` hands out the pages above the
/// high-water mark, never page 0 or a page on the fixture's list.
#[test]
fn wrong_free_list_link_is_corrupt_not_page_zero() {
    for bad in [0, 4, 9_999] {
        let dir = TempDir::new("free-link");
        let path = dir.file("store");
        std::fs::copy(fixture("golden.store"), &path).unwrap();
        // Page 2 heads the fixture's list.
        patch_frame(&path, 2, 0, &PageId::to_le_bytes(bad));
        let mut p = FilePager::open(&path).unwrap();
        assert_eq!(p.allocate().unwrap(), 7, "link {bad}");
        assert_eq!(p.allocate().unwrap(), 8, "link {bad}");
    }
}

/// The little-endian word of `bytes` at `at`.
fn word(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}
