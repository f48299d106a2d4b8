//! Maintenance-path integration tests: unknown-name short-circuits,
//! removal as a tombstone in every tier, compaction as vacuum, and the
//! space story after heavy deletion.

use std::collections::BTreeSet;

use vist_core::{DocId, Error, IndexOptions, NaiveIndex, QueryOptions, VistIndex};
use vist_storage::testutil::TempDir;

#[test]
fn query_short_circuits_unknown_names() {
    let idx = VistIndex::in_memory(IndexOptions::default()).unwrap();
    for i in 0..200 {
        idx.insert_xml(&format!("<r><a>{}</a><b>{}</b></r>", i % 7, i % 3))
            .unwrap();
    }
    let opts = QueryOptions::default();
    // Known names answer normally.
    assert_eq!(
        idx.query("/r/a[text='3']", &opts).unwrap().doc_ids.len(),
        29
    );
    assert_eq!(idx.query("//b", &opts).unwrap().doc_ids.len(), 200);
    // Unknown names cannot match any document: the unified `query` returns
    // empty without interning them into the shared symbol table.
    for q in ["/r/zzz", "/nothing//here", "/r[zzz='1']"] {
        let r = idx.query(q, &opts).unwrap();
        assert!(r.doc_ids.is_empty(), "{q}");
        assert_eq!(r.candidates, 0, "{q}");
    }
    // ...and repeatedly querying unknown names leaves the table unchanged.
    let before = idx.table().len();
    for _ in 0..5 {
        idx.query("/never/seen/name", &opts).unwrap();
    }
    assert_eq!(idx.table().len(), before);
    // Verify mode agrees with raw mode on a query with no false positives.
    let raw = idx.query("/r[a='3'][b='1']", &opts).unwrap().doc_ids;
    let verified = idx
        .query(
            "/r[a='3'][b='1']",
            &QueryOptions {
                verify: true,
                ..Default::default()
            },
        )
        .unwrap()
        .doc_ids;
    assert_eq!(verified, raw);
}

#[test]
fn compact_preserves_ids_and_reclaims_space() {
    let dir = TempDir::new("maintenance-compact");
    let idx = VistIndex::create_file(dir.file("idx"), IndexOptions::default()).unwrap();
    let mut ids = Vec::new();
    for i in 0..400 {
        ids.push(
            idx.insert_xml(&format!("<doc><k>{i}</k><tag>t{}</tag></doc>", i % 5))
                .unwrap(),
        );
    }
    // Delete 80% of the documents; incremental deletion leaves trie nodes.
    for id in &ids {
        if id % 5 != 0 {
            idx.remove_document(*id).unwrap();
        }
    }
    let before = idx.stats();
    assert_eq!(before.documents, 80);
    assert!(before.nodes > 400, "shared + value nodes linger");
    let live: Vec<(String, Vec<u64>)> = ids
        .iter()
        .filter(|id| *id % 5 == 0)
        .map(|id| {
            let q = format!("/doc/k[text='{id}']");
            let hits = idx.query(&q, &QueryOptions::default()).unwrap().doc_ids;
            assert_eq!(hits, vec![*id]);
            (q, hits)
        })
        .collect();

    idx.compact().unwrap();
    let after = idx.stats();
    assert_eq!(after.documents, 80);
    assert_eq!(
        (after.segments, after.segment_docs, after.nodes),
        (1, 80, 0)
    );
    assert!(
        after.segment_nodes < before.nodes / 2,
        "compaction drops dead nodes: {} -> {}",
        before.nodes,
        after.segment_nodes
    );
    // Ids preserved; answers identical.
    for (q, hits) in &live {
        assert_eq!(
            &idx.query(q, &QueryOptions::default()).unwrap().doc_ids,
            hits,
            "{q}"
        );
    }
    // New inserts get fresh ids beyond the old space.
    let new_id = idx.insert_xml("<doc><k>brand-new</k></doc>").unwrap();
    assert!(new_id >= 400);
}

/// Document `i` of the tombstone test; only the last hundred have a `d`.
fn tomb_doc(i: u64) -> String {
    let d = if i >= 200 {
        format!("<d>{}</d>", i % 5)
    } else {
        String::new()
    };
    format!("<r><a>{}</a><b>{}</b>{d}</r>", i % 7, i % 3)
}

/// `idx` holds `tomb_doc(0..300)` under ids 0..300. Remove documents of
/// every tier — among them every hit a limited `/r/d` meets first — then
/// the rest of the last hundred, and hold the answers to the oracle's.
fn remove_and_check(idx: &VistIndex, tiered: bool) {
    const QUERIES: [&str; 5] = ["/r/d", "/r/a[text='3']", "//b", "/r[b='1']/d", "/r/*"];
    let mut naive = NaiveIndex::default();
    for i in 0..300 {
        naive.insert_document(&vist_xml::parse(&tomb_doc(i)).unwrap());
    }
    let limited = |k: usize| QueryOptions {
        limit: Some(k),
        ..QueryOptions::default()
    };
    let check = |naive: &mut NaiveIndex, removed: &BTreeSet<DocId>| {
        assert_eq!(idx.stats().tombstones, removed.len() as u64);
        assert_eq!(idx.doc_count(), 300 - removed.len() as u64);
        for q in QUERIES {
            let mut want = naive.query(q, &QueryOptions::default()).unwrap();
            want.retain(|id| !removed.contains(id));
            let got = idx.query(q, &QueryOptions::default()).unwrap().doc_ids;
            assert_eq!(got, want, "{q}");
            for k in [1, 3, 10] {
                let got = idx.query(q, &limited(k)).unwrap().doc_ids;
                assert_eq!(got.len(), k.min(want.len()), "{q} limit {k}");
                assert!(got.iter().all(|id| want.contains(id)), "{q} limit {k}");
            }
        }
    };

    // The delta's first hits at every limit: with its search not
    // over-provisioned, a limited query would meet only removed documents.
    let mut removed = BTreeSet::new();
    for k in [1, 3, 10] {
        removed.extend(idx.query("/r/d", &limited(k)).unwrap().doc_ids);
    }
    assert!(removed.iter().all(|&id| id >= 200));
    removed.extend((0..200).step_by(9));
    removed.extend((200..300).step_by(7));
    for &id in &removed {
        idx.remove_document(id).unwrap();
    }
    check(&mut naive, &removed);

    // Nothing is unlinked: emptying the delta of live documents is more
    // tombstones.
    for id in 200..300 {
        if removed.insert(id) {
            idx.remove_document(id).unwrap();
        }
    }
    check(&mut naive, &removed);
    // Removed from a segment, removed from the delta.
    for id in [9, 250] {
        assert!(matches!(idx.remove_document(id), Err(Error::NoSuchDocument(i)) if i == id));
        assert!(matches!(idx.get_document_xml(id), Err(Error::NoSuchDocument(i)) if i == id));
    }
    assert_eq!(idx.get_document_xml(1).unwrap(), tomb_doc(1));

    if tiered {
        let answers = || QUERIES.map(|q| idx.query(q, &QueryOptions::default()).unwrap().doc_ids);
        let before = answers();
        idx.compact().unwrap();
        assert_eq!(idx.stats().tombstones, 0);
        assert_eq!(answers(), before);
    }
}

#[test]
fn a_removal_is_a_tombstone_in_every_tier() {
    let docs: Vec<String> = (0..300).map(tomb_doc).collect();
    // Two segments and a delta, file-backed.
    let dir = TempDir::new("maintenance-tombstones");
    let idx = VistIndex::create_file(dir.file("idx"), IndexOptions::default()).unwrap();
    idx.bulk_build(&docs[..100]).unwrap();
    idx.bulk_build(&docs[100..200]).unwrap();
    idx.insert_batch(&docs[200..], 2).unwrap();
    assert_eq!(idx.stats().segments, 2);
    remove_and_check(&idx, true);
    // The delta alone, in memory.
    let idx = VistIndex::in_memory(IndexOptions::default()).unwrap();
    idx.insert_batch(&docs, 2).unwrap();
    remove_and_check(&idx, false);
}

/// A compaction resets the delta's pager: the index file ends no longer
/// than that of a fresh index whose delta holds the same symbols and
/// nothing else (a bulk load of the same documents), as long as
/// `store_bytes` says, and answers as the oracle does before and after a
/// reopen.
#[test]
fn a_compacted_delta_is_no_longer_than_a_fresh_one() {
    const QUERIES: [&str; 5] = ["/r/d", "/r/a[text='3']", "//b", "/r[b='1']/d", "/r/*"];
    let docs: Vec<String> = (0..300).map(tomb_doc).collect();
    let dir = TempDir::new("maintenance-fresh-delta");
    let (path, fresh) = (dir.file("idx"), dir.file("fresh"));
    let len = |path: &std::path::Path| std::fs::metadata(path).unwrap().len();
    let mut naive = NaiveIndex::default();
    for doc in &docs {
        naive.insert_document(&vist_xml::parse(doc).unwrap());
    }
    let removed: BTreeSet<DocId> = (0..300).step_by(4).collect();
    let check = |idx: &VistIndex, naive: &mut NaiveIndex, at: &str| {
        for q in QUERIES {
            let mut want = naive.query(q, &QueryOptions::default()).unwrap();
            want.retain(|id| !removed.contains(id));
            let got = idx.query(q, &QueryOptions::default()).unwrap().doc_ids;
            assert_eq!(got, want, "{q} {at}");
        }
    };

    let idx = VistIndex::create_file(&path, IndexOptions::default()).unwrap();
    idx.bulk_build(&docs[..100]).unwrap();
    for doc in &docs[100..] {
        idx.insert_xml(doc).unwrap();
    }
    for &id in &removed {
        idx.remove_document(id).unwrap();
    }
    idx.flush().unwrap();
    check(&idx, &mut naive, "before the compaction");
    let grown = idx.stats().store_bytes;
    idx.compact().unwrap();
    let compacted = len(&path);
    assert_eq!(compacted, idx.stats().store_bytes);
    assert!(compacted * 2 < grown, "{compacted} B of {grown}");
    check(&idx, &mut naive, "after the compaction");
    drop(idx);

    let other = VistIndex::create_file(&fresh, IndexOptions::default()).unwrap();
    other.bulk_build(&docs).unwrap();
    other.flush().unwrap();
    assert_eq!(other.stats().segments, 1);
    assert!(
        compacted <= len(&fresh),
        "{compacted} B after the compaction, {} B fresh",
        len(&fresh)
    );

    let idx = VistIndex::open_file(&path, 64).unwrap();
    assert_eq!(len(&path), compacted);
    assert_eq!(idx.stats().store_bytes, compacted);
    check(&idx, &mut naive, "after a reopen");
    idx.check().unwrap();
}

#[test]
fn compacted_index_reopens() {
    let dir = TempDir::new("maintenance-compact-reopen");
    let path = dir.file("idx");
    let idx = VistIndex::create_file(&path, IndexOptions::default()).unwrap();
    for i in 0..50 {
        idx.insert_xml(&format!("<x><y>{i}</y></x>")).unwrap();
    }
    idx.remove_document(0).unwrap();
    idx.compact().unwrap();
    drop(idx);
    let reopened = VistIndex::open_file(&path, 128).unwrap();
    assert_eq!(reopened.doc_count(), 49);
    let r = reopened
        .query("/x/y[text='7']", &QueryOptions::default())
        .unwrap();
    assert_eq!(r.doc_ids, vec![7]);
    let r = reopened
        .query("/x/y[text='0']", &QueryOptions::default())
        .unwrap();
    assert!(r.doc_ids.is_empty());
}

/// A compaction unlinks the segments it replaced only after its commit
/// point; a crash there, or a failed unlink, leaves their files behind. The
/// next open removes them, and leaves alone a file above the newest live id
/// (a bulk build that has not published yet). A segment has no log; one an
/// older build left beside any segment, live or not, goes too.
#[test]
fn reopen_removes_segment_files_a_compaction_left_behind() {
    let dir = TempDir::new("maintenance-stale-segments");
    let path = dir.file("idx");
    let seg = |id: u64| vist_core::segment_path(&path, id);
    let wal = |id: u64| vist_storage::FilePager::wal_path(seg(id));
    let idx = VistIndex::create_file(&path, IndexOptions::default()).unwrap();
    idx.bulk_build((0..30).map(|i| format!("<x><y>{i}</y></x>")))
        .unwrap();
    idx.bulk_build((30..60).map(|i| format!("<x><y>{i}</y><z/></x>")))
        .unwrap();
    idx.remove_document(3).unwrap();
    let replaced = std::fs::read(seg(1)).unwrap();
    idx.compact().unwrap();
    let queries = ["/x/y[text='7']", "/x/y[text='3']", "/x/z", "//y"];
    let answers = |idx: &VistIndex| -> Vec<Vec<u64>> {
        queries
            .iter()
            .map(|q| idx.query(q, &QueryOptions::default()).unwrap().doc_ids)
            .collect()
    };
    let before = answers(&idx);
    let check = idx.check().unwrap();
    drop(idx);
    assert!(seg(3).exists() && !wal(3).exists());
    for id in [1, 2] {
        assert!(!seg(id).exists() && !wal(id).exists(), "segment {id}");
    }

    // The unlink of segment 1 never happened, and an older build left the
    // checkpointed logs of segments 1, 2 and 3 (a 16-byte header); segment
    // 4 is an unpublished build.
    std::fs::write(seg(1), &replaced).unwrap();
    for id in [1, 2, 3] {
        std::fs::write(wal(id), b"VISTWAL1\x00\x10\x00\x00\x00\x00\x00\x00").unwrap();
    }
    std::fs::write(seg(4), b"unpublished").unwrap();
    let idx = VistIndex::open_file(&path, 128).unwrap();
    for id in [1, 2] {
        assert!(
            !seg(id).exists() && !wal(id).exists(),
            "segment {id} is removed"
        );
    }
    assert!(seg(3).exists(), "the live segment stays");
    assert!(!wal(3).exists(), "a live segment's log goes");
    assert!(seg(4).exists(), "a file above the newest live id stays");
    assert_eq!(answers(&idx), before);
    assert_eq!(idx.check().unwrap(), check);
    assert_eq!(idx.doc_count(), 59);
}

/// A segment file cut short by a byte, a frame or three frames, or grown by
/// a frame, does not open: the index's open fails with `Corrupt`, naming
/// the segment and both frame counts. The untouched file opens again.
#[test]
fn a_cut_short_or_overlong_segment_is_corrupt() {
    let dir = TempDir::new("maintenance-segment-length");
    let path = dir.file("idx");
    let seg = vist_core::segment_path(&path, 1);
    let idx = VistIndex::create_file(&path, IndexOptions::default()).unwrap();
    idx.bulk_build((0..400).map(|i| format!("<x><y>{i}</y><z>z{i}</z></x>")))
        .unwrap();
    drop(idx);
    let sealed = std::fs::read(&seg).unwrap();
    let frame = IndexOptions::default().page_size + vist_storage::PAGE_TRAILER;
    let frames = sealed.len() / frame;
    assert!(
        frames > 4 && sealed.len().is_multiple_of(frame),
        "{frames} frames"
    );
    for (cut, len, on_disk) in [
        ("a byte short", sealed.len() - 1, frames - 1),
        ("a frame short", sealed.len() - frame, frames - 1),
        ("three frames short", sealed.len() - 3 * frame, frames - 3),
        ("a frame long", sealed.len() + frame, frames + 1),
    ] {
        std::fs::write(&seg, &sealed[..len.min(sealed.len())]).unwrap();
        if len > sealed.len() {
            std::fs::OpenOptions::new()
                .write(true)
                .open(&seg)
                .and_then(|f| f.set_len(len as u64))
                .unwrap();
        }
        match VistIndex::open_file(&path, 128) {
            Err(Error::Corrupt(msg)) => {
                assert!(msg.contains("segment 1"), "{cut}: {msg}");
                assert!(
                    msg.contains(&format!("holds {on_disk} frames")),
                    "{cut}: {msg}"
                );
                assert!(
                    msg.contains(&format!("counts {frames} frames")),
                    "{cut}: {msg}"
                );
            }
            other => panic!("{cut}: expected Corrupt, got {:?}", other.map(|_| ())),
        }
    }
    std::fs::write(&seg, &sealed).unwrap();
    let idx = VistIndex::open_file(&path, 128).unwrap();
    let r = idx
        .query("/x/y[text='7']", &QueryOptions::default())
        .unwrap();
    assert_eq!(r.doc_ids, vec![7]);
}

#[test]
fn tree_breakdown_accounts_all_trees() {
    let idx = VistIndex::in_memory(IndexOptions::default()).unwrap();
    for i in 0..300 {
        idx.insert_xml(&format!("<r><v>{i}</v></r>")).unwrap();
    }
    let b = idx.store().tree_breakdown().unwrap();
    // One DocId entry per document.
    assert_eq!(b.docid.entries, 300);
    // S-Ancestor: one entry per node.
    assert_eq!(b.sancestor.entries, idx.stats().nodes);
    // D-Ancestor: one entry per distinct (symbol, prefix).
    assert_eq!(b.dancestor.entries, idx.stats().dkeys);
    // Edges mirror the trie structure (>= nodes, incarnations add more).
    assert!(b.edges.entries >= idx.stats().nodes);
    assert!(b.ds_ancestor_bytes() > b.docid.total_bytes);
}

#[test]
fn stats_model_persists_across_reopen() {
    use vist_core::{AllocatorKind, StatsModel};
    use vist_seq::{document_to_sequence, SiblingOrder, SymbolTable};

    let dir = TempDir::new("stats-model");
    let path = dir.file("index");
    let order = SiblingOrder::Dtd(vec!["b".into(), "a".into()]);
    // Build a stats model from a small sample.
    let mut table = SymbolTable::new();
    let sample: Vec<_> = (0..20)
        .map(|i| {
            let doc = vist_xml::parse(&format!("<r><a>{i}</a><b/></r>")).unwrap();
            document_to_sequence(&doc, &mut table, &order)
        })
        .collect();
    let model = StatsModel::from_sequences(&sample);
    assert!(!model.is_empty());
    let contexts = model.contexts();
    let (first, late) = {
        let idx = VistIndex::create_file(
            &path,
            IndexOptions {
                allocator: AllocatorKind::WithClues(model),
                order: order.clone(),
                ..Default::default()
            },
        )
        .unwrap();
        let first = idx.insert_xml("<r><a>1</a><b/></r>").unwrap();
        idx.flush().unwrap();
        // A symbol interned after the last flush, then a compaction: its
        // delta clear empties the aux tree that held the symbols, the order
        // and the model, and its own commit must write all three again.
        let late = idx.insert_xml("<r><c>3</c></r>").unwrap();
        idx.compact().unwrap();
        // An insert the reopen does not see, so no later commit helps.
        idx.insert_xml("<r><a>9</a><d/></r>").unwrap();
        (first, late)
    };
    {
        let idx = VistIndex::open_file(&path, 128).unwrap();
        // The model came back (observable via continued correct operation
        // and the roundtrip of triples; we check by rebuilding it).
        let reopened = idx.store().load_stats_model().unwrap().unwrap();
        assert_eq!(reopened.contexts(), contexts);
        assert!(matches!(idx.order(), SiblingOrder::Dtd(v) if *v == ["b", "a"]));
        let opts = QueryOptions::default();
        assert_eq!(idx.query("/r/c[text='3']", &opts).unwrap().doc_ids, [late]);
        assert_eq!(idx.query("/r/a[text='1']", &opts).unwrap().doc_ids, [first]);
        assert!(idx.query("/r/d", &opts).unwrap().doc_ids.is_empty());
        // And the index remains fully usable.
        let id = idx.insert_xml("<r><a>2</a><b/></r>").unwrap();
        let r = idx
            .query("/r/a[text='2']", &QueryOptions::default())
            .unwrap();
        assert_eq!(r.doc_ids, vec![id]);
    }
}

#[test]
fn explain_shows_translation_and_probes() {
    let idx = VistIndex::in_memory(IndexOptions::default()).unwrap();
    idx.insert_xml("<p><s><l>boston</l></s><b><l>newyork</l></b></p>")
        .unwrap();
    let out = idx
        .explain(
            "/p[s[l='boston']]/b[l='newyork']",
            &QueryOptions::default(),
            false,
        )
        .unwrap();
    assert!(out.contains("alternative sequence(s)"), "{out}");
    assert!(out.contains("(p,)"), "Table-2-style rendering: {out}");
    assert!(out.contains("answers: 1 document(s)"), "{out}");
    assert!(out.contains("D-Ancestor gets"), "{out}");
    // The Q5 case shows multiple alternatives.
    idx.insert_xml("<A><B><C/></B><B><D/></B></A>").unwrap();
    let out = idx
        .explain("/A[B/C]/B/D", &QueryOptions::default(), false)
        .unwrap();
    assert!(out.contains("2 alternative sequence(s)"), "{out}");
}

#[test]
fn explain_pool_line_is_the_querys_own_io_over_every_tier() {
    let dir = TempDir::new("vist-core-explain-io");
    let path = dir.file("store");
    let idx = VistIndex::create_file(&path, IndexOptions::default()).unwrap();
    idx.bulk_build((0..300).map(|i| format!("<r><a>{}</a><b><c>{}</c></b></r>", i % 7, i % 3)))
        .unwrap();
    idx.insert_xml("<r><a>3</a><b><c>1</c></b></r>").unwrap();
    drop(idx);
    let opts = QueryOptions::default();
    for q in ["/r/a[text='3']", "//c[text='1']", "/r[a='2']/b/c"] {
        // Each side on a fresh handle, so both start from cold pools.
        let report = VistIndex::open_file(&path, 64)
            .unwrap()
            .explain(q, &opts, false)
            .unwrap();
        let s = VistIndex::open_file(&path, 64)
            .unwrap()
            .query(q, &opts)
            .unwrap()
            .stats;
        let line = report.lines().last().unwrap();
        assert_eq!(
            line,
            format!(
                "pool:    {} hits, {} misses, {} page(s) read",
                s.io_pool_hits, s.io_pool_misses, s.io_pages_read
            ),
            "{q}"
        );
        assert!(s.io_pool_misses > 0, "{q}: a cold query reads pages");
    }
}

/// The sum of every number that directly precedes `suffix` in `text`.
fn sum_before(text: &str, suffix: &str) -> u64 {
    text.match_indices(suffix)
        .map(|(at, _)| {
            let digits = text[..at]
                .rfind(|c: char| !c.is_ascii_digit())
                .map_or(0, |i| i + 1);
            text[digits..at].parse::<u64>().unwrap()
        })
        .sum()
}

#[test]
fn explain_plan_reports_the_run_that_produced_the_answer() {
    let dir = vist_storage::testutil::TempDir::new("vist-core-explain-once");
    let idx = VistIndex::create_file(dir.file("store"), IndexOptions::default()).unwrap();
    idx.bulk_build((0..200).map(|i| format!("<r><a>{}</a><b><c>{}</c></b></r>", i % 7, i % 3)))
        .unwrap();
    for i in 0..40 {
        idx.insert_xml(&format!("<r><a>{}</a><b><c>{}</c></b></r>", i % 5, i % 2))
            .unwrap();
    }
    assert_eq!(idx.stats().segments, 1, "delta + one segment");
    let opts = QueryOptions::default();
    let fetches = |s: &vist_core::IndexStats| {
        let t = s.pool.totals();
        t.hits + t.misses
    };
    for q in ["/r/a[text='3']", "//c[text='1']", "/r[a='2']/b/c", "/r/*/c"] {
        idx.explain(q, &opts, true).unwrap(); // warm the pool
        let s0 = idx.stats();
        let plain = idx.explain(q, &opts, false).unwrap();
        let s1 = idx.stats();
        let planned = idx.explain(q, &opts, true).unwrap();
        let s2 = idx.stats();
        // Collecting the plan costs no second execution of any tier.
        assert_eq!(
            fetches(&s2) - fetches(&s1),
            fetches(&s1) - fetches(&s0),
            "{q}"
        );
        assert!(!plain.contains("plan ("), "{plain}");
        assert!(planned.contains("plan (delta):") && planned.contains("plan (segment 1):"));
        // And the plan's per-step actuals are the counters of that one run.
        assert!(sum_before(&planned, " nodes visited") > 0, "{planned}");
        assert_eq!(
            sum_before(&planned, " node(s)"),
            sum_before(&planned, " nodes visited"),
            "{planned}"
        );
    }
}
