//! Micro-probes of the traced run: unit costs of the layers below the
//! match engine, measured on the harness's own files through the same
//! public functions the index uses. A count from a workload times one of
//! these unit costs is the prediction the per-layer table prints next to
//! the measured round time.

use std::ops::ControlFlow;
use std::sync::Arc;

use vist_btree::BTree;
use vist_datagen::{dblp, xmark};
use vist_query::{parse_query, translate, TranslateOptions};
use vist_seq::{document_to_sequence, SiblingOrder, SymbolTable};
use vist_storage::{BufferPool, FilePager, Pager};
use vist_xml::Document;

use crate::queries;
use crate::schema::Values;
use crate::setup::{Scale, PAGE_SIZE};
use crate::trace::Recorder;
use crate::util::{median, Rng, TempDir};

const KEY_BYTES: usize = 24;
const SCAN_ENTRIES: u64 = 10_000;
const SYNC_PAGES: usize = 256;

/// 24-byte big-endian key of `n`: ascending in `n`.
fn key(n: u64) -> Vec<u8> {
    let mut k = vec![0u8; KEY_BYTES];
    k[KEY_BYTES - 8..].copy_from_slice(&n.to_be_bytes());
    k
}

pub fn run(scale: &Scale, seed: u64, rec: &mut Recorder, layer: &mut Values) {
    let mut rng = Rng::new(seed ^ 0x9_0BE5);
    front_end(scale, seed, rec, layer);
    let dir = TempDir::new("probe");
    pager(&dir, &mut rng, rec, layer);
    tree_and_pool(&dir, scale, &mut rng, rec, layer);
}

/// XML parse, sequence encoding and query translation.
fn front_end(scale: &Scale, seed: u64, rec: &mut Recorder, layer: &mut Values) {
    let n = if scale.smoke { 300 } else { 1_500 };
    let mut docs: Vec<Document> = dblp::documents(n, seed);
    docs.extend(xmark::documents(n / 2, seed + 1));
    let xmls: Vec<String> = docs.iter().map(Document::to_xml).collect();
    let bytes: usize = xmls.iter().map(String::len).sum();

    let (parsed, took) = rec.span("probe.xml.parse", || {
        xmls.iter()
            .map(|x| vist_xml::parse(x).expect("generated XML parses"))
            .collect::<Vec<_>>()
    });
    layer.set(
        "xml.parse_ns_per_byte",
        took.as_nanos() as f64 / bytes as f64,
        xmls.len(),
    );

    let order = SiblingOrder::Lexicographic;
    let mut table = SymbolTable::new();
    let (elems, took) = rec.span("probe.seq.encode", || {
        parsed
            .iter()
            .map(|d| document_to_sequence(d, &mut table, &order).len())
            .sum::<usize>()
    });
    layer.set(
        "seq.encode_ns_per_elem",
        took.as_nanos() as f64 / elems as f64,
        parsed.len(),
    );

    let specs = queries::table3();
    let opts = TranslateOptions {
        order,
        max_sequences: 24,
    };
    let reps = 200;
    let (sequences, took) = rec.span("probe.query.translate", || {
        let mut sequences = 0;
        for _ in 0..reps {
            sequences = 0;
            for s in &specs {
                let pattern = parse_query(&s.expr)
                    .expect("Table-3 query parses")
                    .to_pattern();
                sequences += translate(&pattern, &mut table, &opts).sequences.len();
            }
        }
        sequences
    });
    layer.set(
        "query.translate_us",
        took.as_secs_f64() * 1e6 / (reps * specs.len()) as f64,
        reps * specs.len(),
    );
    layer.set("query.sequences", sequences as f64, 1);
}

/// `FilePager` alone: WAL append per write, checkpoint per sync, read.
fn pager(dir: &TempDir, rng: &mut Rng, rec: &mut Recorder, layer: &mut Values) {
    let mut pager = FilePager::create(dir.file("pager.bin"), PAGE_SIZE).expect("create pager file");
    let rounds = 4;
    let ids: Vec<_> = (0..rounds * SYNC_PAGES)
        .map(|_| pager.allocate().expect("allocate page"))
        .collect();
    let mut page = vec![0u8; pager.page_size()];
    let mut write_ns = 0u128;
    let mut sync_ms = Vec::new();
    for chunk in ids.chunks(SYNC_PAGES) {
        let (_, took) = rec.span("probe.pager.write", || {
            for id in chunk {
                page.fill(*id as u8);
                pager.write(*id, &page).expect("write page");
            }
        });
        write_ns += took.as_nanos();
        let (_, took) = rec.span("probe.pager.sync", || pager.sync().expect("sync pager"));
        sync_ms.push(took.as_secs_f64() * 1e3);
    }
    let mut order = ids.clone();
    rng.shuffle(&mut order);
    let (_, took) = rec.span("probe.pager.read", || {
        for id in &order {
            pager.read(*id, &mut page).expect("read page");
            assert_eq!(page[0], *id as u8, "page holds what was written");
        }
    });
    layer.set(
        "pager.write_us",
        write_ns as f64 / 1e3 / ids.len() as f64,
        ids.len(),
    );
    layer.set("pager.sync_ms", median(&sync_ms), sync_ms.len());
    layer.set(
        "pager.read_us",
        took.as_secs_f64() * 1e6 / ids.len() as f64,
        ids.len(),
    );
}

/// `BufferPool` and `BTree` over a `FilePager`: a bulk-loaded tree in a
/// pool that holds it, then a pool far smaller than its file.
fn tree_and_pool(
    dir: &TempDir,
    scale: &Scale,
    rng: &mut Rng,
    rec: &mut Recorder,
    layer: &mut Values,
) {
    let entries = scale.probe_entries as u64;
    let pager = FilePager::create(dir.file("tree.bin"), PAGE_SIZE).expect("create tree file");
    let pool = Arc::new(BufferPool::with_capacity(pager, 32_768));

    // Even keys are loaded, odd keys are inserted later.
    let (tree, took) = rec.span("probe.btree.bulk_load", || {
        let items = (0..entries).map(|i| (key(2 * i), i.to_le_bytes().to_vec()));
        BTree::bulk_load(Arc::clone(&pool), items).expect("bulk_load")
    });
    layer.set(
        "btree.bulk_ns_per_entry",
        took.as_nanos() as f64 / entries as f64,
        entries as usize,
    );
    pool.flush().expect("flush tree");

    let gets = (entries / 4) as usize;
    let probes: Vec<Vec<u8>> = (0..gets)
        .map(|_| key(2 * (rng.next_u64() % entries)))
        .collect();
    let before = pool.pool_stats().totals();
    let (_, took) = rec.span("probe.btree.get", || {
        for k in &probes {
            let found = tree.get(k).expect("get");
            assert!(std::hint::black_box(found).is_some());
        }
    });
    let after = pool.pool_stats().totals();
    let fetches = (after.hits + after.misses) - (before.hits + before.misses);
    layer.set("btree.get_ns", took.as_nanos() as f64 / gets as f64, gets);
    layer.set("btree.fetches_per_get", fetches as f64 / gets as f64, gets);

    let ranges = (entries / SCAN_ENTRIES).min(40);
    let mut seen = 0u64;
    let (_, took) = rec.span("probe.btree.scan", || {
        for _ in 0..ranges {
            let lo = rng.next_u64() % (entries - SCAN_ENTRIES);
            let (lo, hi) = (key(2 * lo), key(2 * (lo + SCAN_ENTRIES)));
            tree.for_each_in(lo.as_slice()..hi.as_slice(), |k, v| {
                seen += 1;
                std::hint::black_box((k, v));
                ControlFlow::Continue(())
            })
            .expect("for_each_in");
        }
    });
    assert_eq!(seen, ranges * SCAN_ENTRIES);
    layer.set(
        "btree.scan_ns_per_entry",
        took.as_nanos() as f64 / seen as f64,
        seen as usize,
    );

    // The hit path alone: pages that stay resident, fetched over and over.
    let resident: Vec<_> = (0..512)
        .map(|_| pool.allocate().expect("allocate"))
        .collect();
    for id in &resident {
        pool.fetch_mut(*id).expect("fetch_mut").data_mut()[0] = 1;
    }
    let hit_fetches = 2_000 * resident.len();
    let (_, took) = rec.span("probe.pool.fetch_hit", || {
        for _ in 0..2_000 {
            for id in &resident {
                std::hint::black_box(pool.fetch(*id).expect("fetch").data()[0]);
            }
        }
    });
    layer.set(
        "pool.fetch_hit_ns",
        took.as_nanos() as f64 / hit_fetches as f64,
        hit_fetches,
    );

    let inserts = (entries / 8) as usize;
    let fresh: Vec<Vec<u8>> = {
        let mut odd: Vec<u64> = (0..entries).collect();
        rng.shuffle(&mut odd);
        odd[..inserts].iter().map(|i| key(2 * i + 1)).collect()
    };
    let (_, took) = rec.span("probe.btree.insert", || {
        for k in &fresh {
            tree.insert(k, &[0u8; 8]).expect("insert");
        }
    });
    layer.set(
        "btree.insert_ns",
        took.as_nanos() as f64 / inserts as f64,
        inserts,
    );
    drop(tree);
    drop(pool);

    // The miss path: 64 frames over 2,048 pages read in file order, so
    // every fetch reads a page, checks its CRC and evicts a clean frame.
    let pager = FilePager::create(dir.file("spill.bin"), PAGE_SIZE).expect("create spill file");
    let pool = BufferPool::with_capacity(pager, 64);
    let pages: Vec<_> = (0..2_048)
        .map(|_| pool.allocate().expect("allocate"))
        .collect();
    for id in &pages {
        pool.fetch_mut(*id).expect("fetch_mut").data_mut()[0] = 1;
    }
    pool.flush().expect("flush spill file");
    let before = pool.pool_stats().totals();
    let passes = 4;
    let (_, took) = rec.span("probe.pool.fetch_miss", || {
        for _ in 0..passes {
            for id in &pages {
                std::hint::black_box(pool.fetch(*id).expect("fetch").data()[0]);
            }
        }
    });
    let misses = pool.pool_stats().totals().misses - before.misses;
    let fetched = passes * pages.len();
    assert_eq!(
        misses as usize, fetched,
        "every fetch of the spill probe misses"
    );
    layer.set(
        "pool.fetch_miss_us",
        took.as_secs_f64() * 1e6 / fetched as f64,
        fetched,
    );
}
