//! **Figure 11(b)**: index construction time vs dataset size, for RIST and
//! ViST (paper: synthetic k=10, j=8, L=32, up to 60M elements; both curves
//! linear, RIST above ViST since it materializes the suffix tree first).
//!
//! Both builds are file-backed and start from the same XML text: the static
//! one is [`VistIndex::bulk_build`] (one packed segment, empty delta), the
//! dynamic one inserts a document at a time and flushes once at the end.
//!
//! ```sh
//! cargo run --release -p vist-bench --bin fig11b
//! ```

use std::time::Instant;

use vist_bench::{print_table, scaled};
use vist_core::{IndexOptions, VistIndex};
use vist_datagen::synthetic::{SyntheticConfig, SyntheticGen};
use vist_storage::testutil::TempDir;

fn main() {
    let max_docs = scaled(16_000, 1_600);
    let steps = 4;
    let opts = || IndexOptions {
        store_documents: false,
        cache_pages: 1 << 16,
        ..Default::default()
    };

    let mut rows = Vec::new();
    for step in 1..=steps {
        let n = max_docs * step / steps;
        let mut gen = SyntheticGen::new(SyntheticConfig {
            k: 10,
            j: 8,
            l: 32,
            seed: 13,
        });
        let xmls: Vec<String> = gen.documents(n).iter().map(|d| d.to_xml()).collect();
        let dir = TempDir::new("fig11b");

        let t0 = Instant::now();
        let vist = VistIndex::create_file(dir.file("vist"), opts()).expect("vist");
        for xml in &xmls {
            vist.insert_xml(xml).expect("insert");
        }
        vist.flush().expect("flush");
        let t_vist = t0.elapsed();

        let t0 = Instant::now();
        let rist = VistIndex::create_file(dir.file("rist"), opts()).expect("rist");
        rist.bulk_build(&xmls).expect("bulk build");
        let t_rist = t0.elapsed();

        rows.push(vec![
            (n * 32).to_string(),
            format!("{:.2}", t_vist.as_secs_f64()),
            format!("{:.2}", t_rist.as_secs_f64()),
            vist.stats().nodes.to_string(),
            rist.stats().segment_nodes.to_string(),
        ]);
        eprintln!("N={n}: vist {t_vist:.2?}, rist {t_rist:.2?}");
    }
    println!("\nFigure 11(b) — index construction time (synthetic, L=32)\n");
    println!(
        "host: {} core(s); both indexes file-backed\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    print_table(
        &[
            "elements",
            "ViST build (s)",
            "RIST build (s)",
            "ViST nodes",
            "RIST nodes",
        ],
        &rows,
    );
    println!("\n(both should grow linearly in the element count)");
}
