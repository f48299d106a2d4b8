//! The bytes the write path leaves on disk, pinned.
//!
//! A fixed workload runs into a fresh directory at the default page size
//! and pool: a `bulk_build`, then 256-document `insert_batch`es whose
//! documents repeat ones already indexed (so most of a batch updates
//! records in place) beside new ones, removals between them (tombstones,
//! which empty no leaf: defragment-before-split is covered by
//! `proptest_btree::defragment_then_split_at_every_slot_position`),
//! `flush`es, a second `bulk_build` (which ends in a checkpoint) and a
//! `compact`. The length and CRC32C of every file it leaves are compared
//! with the values recorded when this test was written. The pool's flushes
//! write several chunks of pages and the checkpoints several runs of
//! frames, so the digests hold the page images, their order in the log and
//! the frames a checkpoint writes. A change that alters the on-disk layout
//! moves a digest: update it on purpose, in the same change, and say why.

use std::collections::BTreeMap;
use std::path::Path;

use vist_core::{IndexOptions, VistIndex};
use vist_datagen::dblp;
use vist_storage::crc32c;
use vist_storage::testutil::TempDir;
use vist_xml::Document;

/// `(file name, length, crc32c)` of every file in `dir`, by name.
fn digests(dir: &Path) -> Vec<(String, u64, u32)> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let bytes = std::fs::read(entry.path()).unwrap();
        let name = entry.file_name().into_string().unwrap();
        files.insert(name, (bytes.len() as u64, crc32c(&bytes)));
    }
    files
        .into_iter()
        .map(|(name, (len, crc))| (name, len, crc))
        .collect()
}

/// The digests after the batches (the last commits still in the log) and
/// at the end.
fn run_workload(dir: &Path) -> [Vec<(String, u64, u32)>; 2] {
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
    let want_batches = [
        ("index", 4_994_568, 0x9016_c0c0),
        ("index.manifest", 8_192, 0xc02e_3446),
        ("index.seg-1", 414_504, 0xbc79_e0c5),
        ("index.seg-1.wal", 16, 0x66ac_fe52),
        ("index.wal", 24_691, 0xd5b2_769b),
    ];
    let want_end = [
        ("index", 5_010_984, 0x9665_957b),
        ("index.manifest", 8_192, 0x4a49_499b),
        ("index.seg-3", 1_083_456, 0x7fbc_dc2c),
        ("index.seg-3.wal", 16, 0x66ac_fe52),
        ("index.wal", 16, 0x66ac_fe52),
    ];
    for (at, got, want) in [
        ("after the batches", batches, want_batches),
        ("at the end", end, want_end),
    ] {
        let got: Vec<(&str, u64, u32)> = got.iter().map(|(n, l, c)| (n.as_str(), *l, *c)).collect();
        assert_eq!(got, want, "{at}");
    }
}
