//! Shared-read concurrency: `query(&self)` from many threads over one
//! `Arc<VistIndex>`, with and without a concurrent writer, exercising the
//! sharded buffer pool and the single-writer/multi-reader index contract.

use std::sync::Arc;

use vist_core::{IndexOptions, QueryOptions, VistIndex};

#[test]
fn parallel_queries_agree_with_serial() {
    let idx = VistIndex::in_memory(IndexOptions {
        cache_pages: 64, // tiny cache: force eviction churn under contention
        ..Default::default()
    })
    .unwrap();
    for i in 0..400 {
        idx.insert_xml(&format!("<r><a>{}</a><b><c>{}</c></b></r>", i % 13, i % 7))
            .unwrap();
    }
    let queries: Vec<String> = (0..13)
        .map(|v| format!("/r/a[text='{v}']"))
        .chain((0..7).map(|v| format!("/r[b/c='{v}']")))
        .chain(["//c".to_string(), "/r/*[c='3']".to_string()])
        .collect();
    let expected: Vec<Vec<u64>> = queries
        .iter()
        .map(|q| idx.query(q, &QueryOptions::default()).unwrap().doc_ids)
        .collect();

    let idx = &idx;
    let queries = &queries;
    let expected = &expected;
    std::thread::scope(|s| {
        for t in 0..8 {
            s.spawn(move || {
                for round in 0..20 {
                    let qi = (t * 7 + round) % queries.len();
                    let got = idx
                        .query(&queries[qi], &QueryOptions::default())
                        .unwrap()
                        .doc_ids;
                    assert_eq!(got, expected[qi], "thread {t} round {round}");
                }
            });
        }
    });
}

/// One inserter + seven query threads on a shared `Arc<VistIndex>`: queries
/// must never error or return wrong answers for already-committed
/// documents, and after the writer quiesces the index must answer exactly
/// like a serially built one.
#[test]
fn readers_with_concurrent_writer_match_serial_oracle() {
    const PREFILL: u64 = 150;
    const EXTRA: u64 = 350;
    let opts = IndexOptions {
        cache_pages: 64, // eviction churn across shards while racing
        ..Default::default()
    };
    let doc = |i: u64| format!("<r><a>{}</a><b><c>{}</c></b></r>", i % 13, i % 7);

    // Serial oracle: the same documents inserted with no concurrency.
    let oracle = VistIndex::in_memory(opts.clone()).unwrap();
    for i in 0..PREFILL + EXTRA {
        oracle.insert_xml(&doc(i)).unwrap();
    }

    let idx = Arc::new(VistIndex::in_memory(opts).unwrap());
    for i in 0..PREFILL {
        idx.insert_xml(&doc(i)).unwrap();
    }
    // Answers over the prefilled documents never change: every later
    // insert appends a fresh doc id, so these exact ids stay visible.
    let prefill_queries: Vec<String> = (0..13).map(|v| format!("/r/a[text='{v}']")).collect();
    let prefill_expected: Vec<Vec<u64>> = prefill_queries
        .iter()
        .map(|q| {
            let mut ids = idx.query(q, &QueryOptions::default()).unwrap().doc_ids;
            ids.retain(|&id| id < PREFILL);
            ids
        })
        .collect();

    std::thread::scope(|s| {
        let writer = {
            let idx = Arc::clone(&idx);
            s.spawn(move || {
                for i in PREFILL..PREFILL + EXTRA {
                    idx.insert_xml(&doc(i)).unwrap();
                }
            })
        };
        for t in 0..7usize {
            let idx = Arc::clone(&idx);
            let queries = &prefill_queries;
            let expected = &prefill_expected;
            s.spawn(move || {
                for round in 0..60usize {
                    let qi = (t * 5 + round) % queries.len();
                    let got = idx
                        .query(&queries[qi], &QueryOptions::default())
                        .unwrap()
                        .doc_ids;
                    // Concurrent inserts may append new matches, but every
                    // prefilled answer must still be present, in order.
                    let prefill_part: Vec<u64> =
                        got.iter().copied().filter(|&id| id < PREFILL).collect();
                    assert_eq!(
                        prefill_part, expected[qi],
                        "thread {t} round {round}: lost committed answers"
                    );
                }
            });
        }
        writer.join().unwrap();
    });

    // Post-quiesce: identical to the serial oracle on every query shape.
    assert_eq!(idx.doc_count(), PREFILL + EXTRA);
    let all_queries: Vec<String> = (0..13)
        .map(|v| format!("/r/a[text='{v}']"))
        .chain((0..7).map(|v| format!("/r[b/c='{v}']")))
        .chain(["//c".to_string(), "/r/*[c='3']".to_string()])
        .collect();
    for q in &all_queries {
        let got = idx.query(q, &QueryOptions::default()).unwrap().doc_ids;
        let want = oracle.query(q, &QueryOptions::default()).unwrap().doc_ids;
        assert_eq!(got, want, "{q}");
    }
    // The sharded pool saw traffic on multiple shards.
    let stats = idx.stats();
    assert!(stats.pool.shard_count() >= 1);
    assert!(stats.pool.totals().hits > 0);
}

/// One remover + six query threads: documents are split into a stable
/// group (never removed) and a victim group the writer deletes one by one
/// while readers query. Stable answers must survive every removal
/// (a removal is one tombstone insert, which readers see whole or not at
/// all, without a latch), victim ids must never resurface after the writer
/// quiesces, and the end state must match a serially built oracle.
#[test]
fn readers_with_concurrent_remover_match_serial_oracle() {
    const STABLE: u64 = 120;
    const VICTIMS: u64 = 120;
    let opts = IndexOptions {
        cache_pages: 64, // a small pool: evictions beside the removals
        ..Default::default()
    };
    // Even ids = stable group, odd ids = victims (interleaved so removals
    // punch holes all over the trees, not just at one end).
    let doc = |i: u64| format!("<r><a>{}</a><b><c>{}</c></b></r>", i % 13, i % 7);

    let idx = Arc::new(VistIndex::in_memory(opts.clone()).unwrap());
    for i in 0..STABLE + VICTIMS {
        idx.insert_xml(&doc(i)).unwrap();
    }

    let stable_queries: Vec<String> = (0..13)
        .map(|v| format!("/r/a[text='{v}']"))
        .chain(["//c".to_string()])
        .collect();
    let stable_expected: Vec<Vec<u64>> = stable_queries
        .iter()
        .map(|q| {
            let mut ids = idx.query(q, &QueryOptions::default()).unwrap().doc_ids;
            ids.retain(|id| id % 2 == 0);
            ids
        })
        .collect();

    std::thread::scope(|s| {
        let remover = {
            let idx = Arc::clone(&idx);
            s.spawn(move || {
                for id in (0..STABLE + VICTIMS).filter(|id| id % 2 == 1) {
                    idx.remove_document(id).unwrap();
                }
            })
        };
        for t in 0..6usize {
            let idx = Arc::clone(&idx);
            let queries = &stable_queries;
            let expected = &stable_expected;
            s.spawn(move || {
                for round in 0..50usize {
                    let qi = (t * 5 + round) % queries.len();
                    let got = idx
                        .query(&queries[qi], &QueryOptions::default())
                        .unwrap()
                        .doc_ids;
                    // Concurrent removes only ever delete odd ids; every
                    // stable (even) answer must still be present, in order.
                    let stable_part: Vec<u64> =
                        got.iter().copied().filter(|id| id % 2 == 0).collect();
                    assert_eq!(
                        stable_part, expected[qi],
                        "thread {t} round {round}: remove clobbered a stable answer"
                    );
                }
            });
        }
        remover.join().unwrap();
    });

    // Post-quiesce: no victim id anywhere, and answers equal an index
    // that only ever contained the stable group.
    assert_eq!(idx.doc_count(), STABLE);
    let oracle = VistIndex::in_memory(opts).unwrap();
    for i in (0..STABLE + VICTIMS).filter(|i| i % 2 == 0) {
        oracle
            .insert_document(&vist_xml::parse(&doc(i)).unwrap())
            .unwrap();
    }
    // The oracle assigns dense ids 0,1,2,...; the racing index kept the
    // even originals. Map oracle ids back (oracle id k = original 2k).
    let all_queries: Vec<String> = (0..13)
        .map(|v| format!("/r/a[text='{v}']"))
        .chain((0..7).map(|v| format!("/r[b/c='{v}']")))
        .chain(["//c".to_string(), "/r/*[c='3']".to_string()])
        .collect();
    for q in &all_queries {
        let got = idx.query(q, &QueryOptions::default()).unwrap().doc_ids;
        assert!(
            got.iter().all(|id| id % 2 == 0),
            "{q}: removed doc resurfaced in {got:?}"
        );
        let want: Vec<u64> = oracle
            .query(q, &QueryOptions::default())
            .unwrap()
            .doc_ids
            .into_iter()
            .map(|k| 2 * k)
            .collect();
        assert_eq!(got, want, "{q}");
    }
    idx.check().unwrap();
}

/// Group-commit visibility: query threads run continuously while ingest
/// batches land (`insert_batch`, parallel prepare). Each batch's documents
/// carry a marker element no other document has, so a reader probing that
/// marker must see either *nothing* (pre-batch) or the *complete* batch
/// (post-batch) — a non-empty strict subset would be torn scope
/// visibility across the batch's apply phase, which holds the maintenance
/// latch exclusively precisely to prevent that.
#[test]
fn readers_never_observe_a_torn_batch() {
    const PREFILL: u64 = 100;
    const BATCHES: usize = 3;
    const BATCH_SIZE: u64 = 40;
    // One unique marker element per batch; prefill docs use none of them.
    const MARKERS: [&str; BATCHES] = ["u", "v", "w"];
    let opts = IndexOptions {
        cache_pages: 64, // eviction churn while the batch applies
        ..Default::default()
    };
    let prefill_doc = |i: u64| format!("<r><a>{}</a><b><c>{}</c></b></r>", i % 13, i % 7);
    let batch_doc = |marker: &str, i: u64| {
        format!(
            "<r><{marker}>x</{marker}><a>{}</a><b><c>{}</c></b></r>",
            i % 13,
            i % 7
        )
    };

    let idx = Arc::new(VistIndex::in_memory(opts.clone()).unwrap());
    for i in 0..PREFILL {
        idx.insert_xml(&prefill_doc(i)).unwrap();
    }
    // The complete id set each batch will occupy: ids are deterministic
    // (the ingest thread is the only writer).
    let batch_ids: Vec<Vec<u64>> = (0..BATCHES as u64)
        .map(|k| {
            let first = PREFILL + k * BATCH_SIZE;
            (first..first + BATCH_SIZE).collect()
        })
        .collect();
    let prefill_queries: Vec<String> = (0..13).map(|v| format!("/r/a[text='{v}']")).collect();
    let prefill_expected: Vec<Vec<u64>> = prefill_queries
        .iter()
        .map(|q| {
            let mut ids = idx.query(q, &QueryOptions::default()).unwrap().doc_ids;
            ids.retain(|&id| id < PREFILL);
            ids
        })
        .collect();

    let batch_ids = &batch_ids;
    std::thread::scope(|s| {
        let ingester = {
            let idx = Arc::clone(&idx);
            s.spawn(move || {
                for (k, marker) in MARKERS.iter().enumerate() {
                    let first = PREFILL + k as u64 * BATCH_SIZE;
                    let docs: Vec<String> = (first..first + BATCH_SIZE)
                        .map(|i| batch_doc(marker, i))
                        .collect();
                    let ids = idx.insert_batch(&docs, 3).unwrap();
                    assert_eq!(ids, batch_ids[k], "batch {k} id drift");
                }
            })
        };
        for t in 0..6usize {
            let idx = Arc::clone(&idx);
            let prefill_queries = &prefill_queries;
            let prefill_expected = &prefill_expected;
            s.spawn(move || {
                for round in 0..80usize {
                    // Marker probe: all-or-nothing per batch.
                    let k = (t + round) % BATCHES;
                    let got = idx
                        .query(&format!("//{}", MARKERS[k]), &QueryOptions::default())
                        .unwrap()
                        .doc_ids;
                    assert!(
                        got.is_empty() || got == batch_ids[k],
                        "thread {t} round {round}: torn batch {k} visible: \
                         {} of {} docs",
                        got.len(),
                        batch_ids[k].len(),
                    );
                    // Prefill answers stay intact throughout.
                    let qi = (t * 5 + round) % prefill_queries.len();
                    let got = idx
                        .query(&prefill_queries[qi], &QueryOptions::default())
                        .unwrap()
                        .doc_ids;
                    let prefill_part: Vec<u64> =
                        got.iter().copied().filter(|&id| id < PREFILL).collect();
                    assert_eq!(
                        prefill_part, prefill_expected[qi],
                        "thread {t} round {round}: batch clobbered a committed answer"
                    );
                }
            });
        }
        ingester.join().unwrap();
    });

    // Post-quiesce: identical to a serially built oracle — doc ids,
    // answers, and scope sets (batch apply replays serial insertion).
    let oracle = VistIndex::in_memory(opts).unwrap();
    for i in 0..PREFILL {
        oracle.insert_xml(&prefill_doc(i)).unwrap();
    }
    for (k, marker) in MARKERS.iter().enumerate() {
        let first = PREFILL + k as u64 * BATCH_SIZE;
        for i in first..first + BATCH_SIZE {
            oracle.insert_xml(&batch_doc(marker, i)).unwrap();
        }
    }
    assert_eq!(idx.doc_count(), oracle.doc_count());
    let all_queries: Vec<String> = (0..13)
        .map(|v| format!("/r/a[text='{v}']"))
        .chain((0..7).map(|v| format!("/r[b/c='{v}']")))
        .chain([
            "//c".to_string(),
            "//u".to_string(),
            "/r/*[c='3']".to_string(),
        ])
        .collect();
    for q in &all_queries {
        let got = idx.query(q, &QueryOptions::default()).unwrap().doc_ids;
        let want = oracle.query(q, &QueryOptions::default()).unwrap().doc_ids;
        assert_eq!(got, want, "{q}");
        let pattern = vist_query::parse_query(q).unwrap().to_pattern();
        let (got_scopes, _) = idx
            .match_scopes(&pattern, &QueryOptions::default())
            .unwrap();
        let (want_scopes, _) = oracle
            .match_scopes(&pattern, &QueryOptions::default())
            .unwrap();
        assert_eq!(got_scopes, want_scopes, "{q}: scope sets diverge");
    }
    idx.check().unwrap();
}

#[test]
fn index_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<VistIndex>();
    assert_send_sync::<Arc<VistIndex>>();
}
