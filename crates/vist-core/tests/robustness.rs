//! Failure injection: corrupted files and abuse must yield clean errors,
//! never panics or silent wrong answers.

use vist_core::{Error, IndexOptions, QueryOptions, SimMutation, VistIndex};

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("vist-robust-{name}-{}", std::process::id()))
}

#[test]
fn opening_a_missing_file_errors() {
    let Err(err) = VistIndex::open_file("/nonexistent/path/idx.vist", 64) else {
        panic!("opening a missing file must fail");
    };
    assert!(matches!(err, Error::Storage(_)), "{err}");
}

#[test]
fn opening_garbage_errors_cleanly() {
    let path = tmp("garbage");
    std::fs::write(&path, vec![0xABu8; 8192]).unwrap();
    let Err(err) = VistIndex::open_file(&path, 64) else {
        panic!("opening garbage must fail");
    };
    // Either bad pager magic or bad index magic, both reported as errors.
    let msg = err.to_string();
    assert!(msg.contains("corrupt") || msg.contains("magic"), "{msg}");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn truncated_index_file_errors_not_panics() {
    let path = tmp("truncated");
    {
        let idx = VistIndex::create_file(&path, IndexOptions::default()).unwrap();
        for i in 0..200 {
            idx.insert_xml(&format!("<a><b>{i}</b></a>")).unwrap();
        }
        idx.flush().unwrap();
    }
    // Chop the file in half.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    // Opening may succeed (meta page intact) but operations must error, not
    // panic.
    match VistIndex::open_file(&path, 64) {
        Err(_) => {}
        Ok(idx) => {
            let _ = idx.query("/a/b", &QueryOptions::default());
            let _ = idx.insert_xml("<a><b>new</b></a>");
        }
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn bad_xml_rejected_without_state_damage() {
    let path = tmp("badxml");
    let idx = VistIndex::create_file(&path, IndexOptions::default()).unwrap();
    let good = idx.insert_xml("<a><b>1</b></a>").unwrap();
    // The caller's input is at fault, not the index: every ingest entry
    // point says so (`Error::Xml`, never `Error::Corrupt`).
    for bad in ["<a><b>", "", "not xml at all"] {
        assert!(matches!(idx.insert_xml(bad), Err(Error::Xml(_))), "{bad:?}");
        assert!(matches!(idx.insert_batch(&[bad], 2), Err(Error::Xml(_))));
        assert!(matches!(idx.bulk_build([bad]), Err(Error::Xml(_))));
    }
    let broken_container = "<site><item><x>1</x></item><item><x></item></site>";
    let err = idx.insert_records(broken_container, &["item"]).unwrap_err();
    assert!(matches!(err, Error::Xml(_)), "{err}");
    assert!(!err.to_string().contains("corrupt"), "{err}");
    // The index still answers correctly; the doc counter only advanced for
    // committed inserts (the container's first record is one of them).
    let r = idx
        .query("/a/b[text='1']", &QueryOptions::default())
        .unwrap();
    assert_eq!(r.doc_ids, vec![good]);
    assert_eq!(idx.doc_count(), 2);
    idx.check().unwrap();
    drop(idx);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn exhausted_label_space_is_its_own_error() {
    // A fixed λ = 2 halves the root's remaining scope per distinct root
    // element: 2^126 labels last about 126 of them, and the root has no
    // ancestor to borrow from.
    let idx = VistIndex::in_memory(IndexOptions {
        lambda: 2,
        adaptive: false,
        ..Default::default()
    })
    .unwrap();
    let mut inserted = 0u64;
    let err = loop {
        match idx.insert_xml(&format!("<r{inserted}/>")) {
            Ok(_) => inserted += 1,
            Err(e) => break e,
        }
        assert!(inserted < 200, "label space never ran out");
    };
    assert!(matches!(err, Error::ScopeExhausted), "{err:?}");
    assert!(!err.to_string().contains("corrupt"), "{err}");
    // Nothing on disk is damaged: the trees verify, and what went in before
    // is still found.
    idx.check().unwrap();
    for i in [0, inserted / 2, inserted - 1] {
        let r = idx
            .query(&format!("/r{i}"), &QueryOptions::default())
            .unwrap();
        assert_eq!(r.doc_ids.len(), 1, "/r{i}");
    }
}

#[test]
fn a_failed_insert_leaves_no_document_behind_for_compaction_to_index() {
    // The same tiny label space on a tiered index, with documents stored:
    // the insert that runs out of labels must not leave its XML in the
    // store, where `document_ids` and the next `compact()` would find it.
    // Its clean-up is a tombstone, an insert: it takes away no page, which
    // readers of the trees (not excluded by an insert) could be holding.
    let dir = vist_storage::testutil::TempDir::new("vist-robust-exhausted");
    let opts = IndexOptions {
        lambda: 2,
        adaptive: false,
        ..Default::default()
    };
    let idx = VistIndex::create_file(dir.file("idx.vist"), opts).unwrap();
    let failed = loop {
        let next = idx.doc_count();
        match idx.insert_xml(&format!("<r{next}/>")) {
            Ok(id) => assert_eq!(id, next),
            Err(e) => {
                assert!(matches!(e, Error::ScopeExhausted), "{e:?}");
                break next;
            }
        }
        assert!(next < 200, "label space never ran out");
    };
    let ids: Vec<u64> = (0..failed).collect();
    let unchanged = |idx: &VistIndex| {
        assert_eq!(idx.doc_count(), failed);
        assert_eq!(idx.document_ids().unwrap(), ids);
        assert!(idx.get_document_xml(failed).is_err());
        let r = idx
            .query(&format!("/r{failed}"), &QueryOptions::default())
            .unwrap();
        assert!(r.doc_ids.is_empty());
        idx.check().unwrap();
    };
    unchanged(&idx);
    // A batch fails the same way, and takes nothing with it either.
    let err = idx.insert_batch(&["<another-root/>"], 1).unwrap_err();
    assert!(matches!(err, Error::ScopeExhausted), "{err:?}");
    unchanged(&idx);
    idx.compact().unwrap();
    unchanged(&idx);
    // Ids are not reused, and compaction gave the delta a new label space.
    let fresh = idx.insert_xml("<later/>").unwrap();
    assert!(fresh > failed, "{fresh}");
    assert_eq!(idx.get_document_xml(fresh).unwrap(), "<later/>");
    assert_eq!(idx.doc_count(), failed + 1);
    idx.check().unwrap();
}

#[test]
fn a_deep_borrow_leaves_no_label_free_for_a_later_sibling() {
    // At a fixed λ = 2 the scope of `b` runs out after 126 distinct
    // children, and the next one borrows a block from `a`: one incarnation
    // of `b`, then `x` and `d` nested in it. A later document that leaves
    // that chain below `x` must not be handed the label `d` holds — it
    // used to be, and `/a/b/x/d` then matched it too.
    let idx = VistIndex::in_memory(IndexOptions {
        lambda: 2,
        adaptive: false,
        ..Default::default()
    })
    .unwrap();
    let mut i = 0;
    while idx.stats().deep_borrows == 0 {
        idx.insert_xml(&format!("<a><b><c{i}/></b></a>")).unwrap();
        i += 1;
    }
    assert_eq!((i, idx.stats().deep_borrows), (126, 1));
    let d = idx.insert_xml("<a><b><x><d><e/></d></x></b></a>").unwrap();
    let f = idx.insert_xml("<a><b><x><f/></x></b></a>").unwrap();
    assert_eq!((d, f), (126, 127));
    let opts = QueryOptions::default();
    assert_eq!(idx.query("/a/b/x/d", &opts).unwrap().doc_ids, [d]);
    assert_eq!(idx.query("/a/b/x/f", &opts).unwrap().doc_ids, [f]);
    assert_eq!(idx.query("/a/b/x", &opts).unwrap().doc_ids, [d, f]);
    idx.check().unwrap();
}

#[test]
fn check_flags_a_scope_that_overhangs_its_sibling() {
    // The planted allocation bug hands every child scope one label too
    // many, so it ends inside the next sibling's: labels no longer nest.
    let idx = VistIndex::in_memory(IndexOptions {
        mutation: SimMutation::ScopeOffByOne,
        ..Default::default()
    })
    .unwrap();
    for i in 0..4 {
        idx.insert_xml(&format!("<r><a{i}/></r>")).unwrap();
    }
    let Err(Error::Corrupt(report)) = idx.check() else {
        panic!("check passed an index whose scopes overlap");
    };
    assert!(report.contains("delta labels CORRUPT"), "{report}");
    assert!(report.contains("ends past ["), "{report}");
}

#[test]
fn bad_queries_rejected() {
    let idx = VistIndex::in_memory(IndexOptions::default()).unwrap();
    idx.insert_xml("<a/>").unwrap();
    for q in ["", "a", "/a[", "/a]']", "//", "/a[text=]"] {
        assert!(
            matches!(idx.query(q, &QueryOptions::default()), Err(Error::Query(_))),
            "{q} should be a parse error"
        );
    }
}

#[test]
fn huge_values_and_names_handled() {
    let idx = VistIndex::in_memory(IndexOptions::default()).unwrap();
    // A very long text value: hashed, so it indexes fine.
    let long_text = "x".repeat(100_000);
    let id = idx
        .insert_xml(&format!("<a><b>{long_text}</b></a>"))
        .unwrap();
    let r = idx
        .query(
            &format!("/a/b[text='{long_text}']"),
            &QueryOptions::default(),
        )
        .unwrap();
    assert_eq!(r.doc_ids, vec![id]);
    // A deep document: prefix keys grow with depth; must either index or
    // error cleanly (here: depth 40 fits comfortably).
    let mut deep = String::new();
    for i in 0..40 {
        deep.push_str(&format!("<d{i}>"));
    }
    deep.push_str("leaf");
    for i in (0..40).rev() {
        deep.push_str(&format!("</d{i}>"));
    }
    let id = idx.insert_xml(&deep).unwrap();
    let r = idx
        .query("//d39[text='leaf']", &QueryOptions::default())
        .unwrap();
    assert_eq!(r.doc_ids, vec![id]);
}

#[test]
fn remove_twice_and_remove_unknown() {
    let idx = VistIndex::in_memory(IndexOptions::default()).unwrap();
    let id = idx.insert_xml("<a/>").unwrap();
    idx.remove_document(id).unwrap();
    assert!(matches!(
        idx.remove_document(id),
        Err(Error::NoSuchDocument(_))
    ));
    assert!(matches!(
        idx.remove_document(999),
        Err(Error::NoSuchDocument(_))
    ));
}
