//! Torn-write and corruption tests: every single-byte flip and every
//! truncation point of the data file and the write-ahead log must yield
//! either a correct recovery or a precise structured error — never a panic,
//! and never a silently wrong answer.

use std::path::Path;
use std::sync::Arc;

use vist_storage::testutil::TempDir;
use vist_storage::{Error, FaultMode, FaultVfs, FilePager, PageId, Pager, RealVfs};

const PS: usize = 128;

fn corruption_error(e: &Error) -> bool {
    matches!(
        e,
        Error::Io(_)
            | Error::Corrupt(_)
            | Error::BadMagic { .. }
            | Error::ChecksumMismatch { .. }
            | Error::TruncatedWal { .. }
    )
}

/// Build a checkpointed store: one page holding `0x11` everywhere.
fn build_clean(path: &Path) -> PageId {
    let mut p = FilePager::create(path, PS).unwrap();
    let id = p.allocate().unwrap();
    p.write(id, &[0x11u8; PS]).unwrap();
    p.sync().unwrap();
    id
}

/// Open and read page `id`; the result must be a structured error or one of
/// `valid_fills` — anything else (panic, other bytes) fails the test.
fn check_open_and_read(path: &Path, id: PageId, valid_fills: &[u8], ctx: &str) {
    match FilePager::open(path) {
        Err(e) => assert!(corruption_error(&e), "{ctx}: unstructured error {e:?}"),
        Ok(mut p) => {
            let mut buf = vec![0u8; PS];
            match p.read(id, &mut buf) {
                Err(e) => assert!(corruption_error(&e), "{ctx}: unstructured error {e:?}"),
                Ok(()) => {
                    let fill = buf[5];
                    assert!(
                        valid_fills.contains(&fill) && buf.iter().all(|&b| b == fill),
                        "{ctx}: read returned bytes from no committed state"
                    );
                }
            }
        }
    }
}

#[test]
fn every_data_file_byte_flip_is_detected_or_harmless() {
    let dir = TempDir::new("torn-dataflip");
    let path = dir.file("store");
    let id = build_clean(&path);
    let pristine = std::fs::read(&path).unwrap();
    for off in 0..pristine.len() {
        let mut bytes = pristine.clone();
        bytes[off] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        // A flip lands in a payload, a CRC, or reserved trailer padding.
        // The first two must surface as errors; padding flips are harmless.
        check_open_and_read(&path, id, &[0x11], &format!("flip data byte {off}"));
    }
}

#[test]
fn every_data_file_truncation_is_detected() {
    let dir = TempDir::new("torn-datacut");
    let path = dir.file("store");
    let id = build_clean(&path);
    let pristine = std::fs::read(&path).unwrap();
    for cut in 0..pristine.len() {
        std::fs::write(&path, &pristine[..cut]).unwrap();
        check_open_and_read(&path, id, &[0x11], &format!("truncate data at {cut}"));
    }
}

/// Crash states around a checkpoint: the WAL holds a full update of the page
/// (`0x22`) over a checkpointed `0x11`. Returns `(data, wal)` file images
/// for every distinct crash point inside the second checkpoint.
fn crashed_states(dir: &TempDir) -> Vec<(Vec<u8>, Vec<u8>)> {
    let path = dir.file("probe");
    let wal_path = FilePager::wal_path(&path);
    let mut states = Vec::new();
    // Crash the second sync at its `n`th operation; returns whether the
    // sync survived (the fault landed beyond its op range).
    let run = |vfs: &FaultVfs, fault_at: Option<u64>| -> bool {
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&wal_path);
        let mut p = FilePager::create_with_vfs(vfs, &path, PS).unwrap();
        let id = p.allocate().unwrap();
        p.write(id, &[0x11u8; PS]).unwrap();
        p.sync().unwrap();
        p.write(id, &[0x22u8; PS]).unwrap();
        if let Some(n) = fault_at {
            let h = vfs.handle();
            h.schedule(h.op_count() + n, FaultMode::Crash, n.wrapping_mul(31));
        }
        p.sync().is_ok()
    };
    for n in 0.. {
        let vfs = FaultVfs::new(Arc::new(RealVfs));
        if run(&vfs, Some(n)) {
            break; // the whole sync completed; no more crash points
        }
        let wal = std::fs::read(&wal_path).unwrap();
        if wal.len() > 16 {
            states.push((std::fs::read(&path).unwrap(), wal));
        }
    }
    assert!(!states.is_empty(), "no crash state left a non-empty wal");
    states
}

fn restore(path: &Path, wal_path: &Path, data: &[u8], wal: &[u8]) {
    std::fs::write(path, data).unwrap();
    std::fs::write(wal_path, wal).unwrap();
}

#[test]
fn every_wal_truncation_recovers_a_committed_state() {
    let dir = TempDir::new("torn-walcut");
    let states = crashed_states(&dir);
    let path = dir.file("store");
    let wal_path = FilePager::wal_path(&path);
    // Page 1 is the only page the workload touches.
    for (si, (data, wal)) in states.iter().enumerate() {
        for cut in 0..wal.len() {
            restore(&path, &wal_path, data, &wal[..cut]);
            check_open_and_read(
                &path,
                1,
                &[0x11, 0x22],
                &format!("state {si} wal cut {cut}"),
            );
        }
    }
}

#[test]
fn every_wal_byte_flip_recovers_or_errors() {
    let dir = TempDir::new("torn-walflip");
    let states = crashed_states(&dir);
    let path = dir.file("store");
    let wal_path = FilePager::wal_path(&path);
    for (si, (data, wal)) in states.iter().enumerate() {
        for off in 0..wal.len() {
            let mut flipped = wal.clone();
            flipped[off] ^= 0x08;
            restore(&path, &wal_path, data, &flipped);
            check_open_and_read(
                &path,
                1,
                &[0x11, 0x22],
                &format!("state {si} wal flip {off}"),
            );
        }
    }
}

#[test]
fn missing_wal_is_fine_missing_data_is_not() {
    let dir = TempDir::new("torn-missing");
    let path = dir.file("store");
    let id = build_clean(&path);
    // A checkpointed store with its (empty) log deleted opens fine.
    std::fs::remove_file(FilePager::wal_path(&path)).unwrap();
    let mut p = FilePager::open(&path).unwrap();
    let mut buf = vec![0u8; PS];
    p.read(id, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 0x11));
    drop(p);
    // A log without its data file is not a store.
    std::fs::remove_file(&path).unwrap();
    match FilePager::open(&path) {
        Err(e) => assert!(corruption_error(&e)),
        Ok(_) => panic!("opened a store with no data file"),
    }
}

/// A commit's page images reach the log as one chunk, written with one
/// call, so a crash can leave any prefix of it. Cut at a record boundary,
/// one byte either side of one, or inside a payload, the log reopens to the
/// commit before, and the cut-off bytes are measured as discarded.
#[test]
fn a_torn_chunk_reopens_to_the_last_commit() {
    const REC: u64 = 13 + PS as u64;
    let dir = TempDir::new("torn-chunk");
    let path = dir.file("store");
    let wal_path = FilePager::wal_path(&path);
    let write = |p: &mut FilePager, ids: std::ops::RangeInclusive<PageId>, fill: u8| {
        let image = [fill; PS];
        let pages: Vec<(PageId, &[u8])> = ids.map(|id| (id, &image[..])).collect();
        p.write_many(&pages).unwrap();
        p.sync().unwrap();
    };
    let (committed, torn) = {
        let mut p = FilePager::create(&path, PS).unwrap();
        for _ in 0..16 {
            p.allocate().unwrap();
        }
        write(&mut p, 1..=16, 0x11); // logs every frame: a checkpoint
        write(&mut p, 1..=4, 0x22);
        let committed = std::fs::metadata(&wal_path).unwrap().len();
        write(&mut p, 1..=8, 0x33);
        assert_eq!(p.stats().checkpoints, 1, "both commits stay in the log");
        (committed, std::fs::read(&wal_path).unwrap())
    };
    let data = std::fs::read(&path).unwrap();
    // The second commit: eight page records in one chunk, the header's
    // record, then the commit record.
    let sealed = committed + 9 * REC;
    assert_eq!(torn.len() as u64, sealed + 13 + 8);
    let mut cuts = vec![sealed, sealed + 1, sealed + 20];
    for k in 0..9 {
        let at = committed + k * REC;
        cuts.extend([at, at + 1, at + 13 + PS as u64 / 2, at + REC - 1]);
    }
    for cut in cuts {
        restore(&path, &wal_path, &data, &torn[..cut as usize]);
        let mut p = FilePager::open(&path).unwrap();
        assert_eq!(
            p.stats().wal_discarded_bytes,
            cut - committed,
            "cut at {cut}"
        );
        let mut buf = vec![0u8; PS];
        for id in 1..=8 {
            p.read(id, &mut buf).unwrap();
            let want = if id <= 4 { 0x22 } else { 0x11 };
            assert!(buf.iter().all(|&b| b == want), "cut at {cut}: page {id}");
        }
    }
}
