//! Span-tree invariants: `vist query --trace`'s tree must account for
//! the query's reported wall time — child stage durations sum to the
//! root total within the untimed-bookkeeping residue, and the tier union
//! is a visit of the `merge` stage, not time outside every stage.

use std::sync::{Mutex, MutexGuard};

use vist_core::{IndexOptions, QueryOptions, VistIndex};
use vist_storage::testutil::TempDir;

/// `set_tracing` is process-wide, so the tests take turns: without this
/// one's query can run while another has tracing on.
fn tracing_switch() -> MutexGuard<'static, ()> {
    static SWITCH: Mutex<()> = Mutex::new(());
    SWITCH.lock().unwrap_or_else(|e| e.into_inner())
}

fn person(i: usize) -> String {
    format!(
        "<site><people><person><name>p{}</name><city>c{}</city></person></people></site>",
        i % 17,
        i % 5
    )
}

fn build_index() -> VistIndex {
    let idx = VistIndex::in_memory(IndexOptions::default()).unwrap();
    for i in 0..300 {
        idx.insert_xml(&person(i)).unwrap();
    }
    idx
}

#[test]
fn span_tree_durations_sum_to_total() {
    let _turn = tracing_switch();
    let idx = build_index();
    vist_obs::set_tracing(true);
    let r = idx
        .query("/site/people/person/name", &QueryOptions::default())
        .unwrap();
    vist_obs::set_tracing(false);

    let tree = r.trace.expect("trace recorded while tracing is enabled");
    assert_eq!(tree.name, "query");
    assert!(tree.nanos > 0, "root span has no duration");

    // Children never exceed the root, and the pipeline stages (parse,
    // translate, plan, match, merge, docid) cover the bulk of the query:
    // the untimed residue is bookkeeping between stages.
    let child_sum = tree.child_nanos();
    assert!(
        child_sum <= tree.nanos,
        "children ({child_sum}) exceed root ({})",
        tree.nanos
    );
    assert!(
        child_sum * 2 >= tree.nanos,
        "stage spans cover less than half the query: {child_sum} of {}\n{}",
        tree.nanos,
        tree.render()
    );
    for name in ["translate", "match", "merge", "docid"] {
        assert!(
            tree.children.iter().any(|c| c.name == name),
            "missing stage '{name}' in:\n{}",
            tree.render()
        );
    }

    // The flat stage timings agree with the same invariant.
    assert!(r.timings.total_nanos > 0);
    assert!(r.timings.stage_sum() <= r.timings.total_nanos);
}

#[test]
fn the_tier_union_is_one_more_visit_of_the_merge_stage() {
    let _turn = tracing_switch();
    let dir = TempDir::new("tracing-tiers");
    let idx = VistIndex::create_file(dir.file("idx.vist"), IndexOptions::default()).unwrap();
    let docs: Vec<String> = (0..300).map(person).collect();
    idx.bulk_build(&docs[..200]).unwrap();
    for xml in &docs[200..] {
        idx.insert_xml(xml).unwrap();
    }
    idx.remove_document(3).unwrap();
    let stats = idx.stats();
    assert_eq!((stats.segments, stats.tombstones), (1, 1), "two tiers");
    vist_obs::set_tracing(true);
    let r = idx
        .query("/site/people/person/name", &QueryOptions::default())
        .unwrap();
    vist_obs::set_tracing(false);

    assert_eq!(r.doc_ids.len(), 299);
    let tree = r.trace.expect("trace recorded while tracing is enabled");
    let merge = tree
        .children
        .iter()
        .find(|c| c.name == "merge")
        .unwrap_or_else(|| panic!("no merge stage in:\n{}", tree.render()));
    // A final-scope merge a tier, and the union of the two.
    assert_eq!(merge.count, 2 + 1, "{}", tree.render());
    assert!(tree.child_nanos() <= tree.nanos, "{}", tree.render());
    assert!(r.timings.merge_nanos > 0);
    assert!(r.timings.stage_sum() <= r.timings.total_nanos);
}

#[test]
fn the_planning_of_every_tier_reaches_the_stage_timings() {
    let _turn = tracing_switch();
    let dir = TempDir::new("tracing-plan");
    // Three segments, one short of a compaction, and the delta.
    let opts = IndexOptions {
        store_documents: false,
        ..IndexOptions::default()
    };
    let idx = VistIndex::create_file(dir.file("idx.vist"), opts).unwrap();
    let docs: Vec<String> = (0..500).map(person).collect();
    for chunk in docs[..300].chunks(100) {
        idx.bulk_build(chunk).unwrap();
    }
    for xml in &docs[300..] {
        idx.insert_xml(xml).unwrap();
    }
    assert_eq!(idx.stats().segments, 3);
    vist_obs::set_tracing(true);
    let r = idx
        .query("/site/people/person/name", &QueryOptions::default())
        .unwrap();
    vist_obs::set_tracing(false);

    assert_eq!(r.doc_ids.len(), 500);
    let tree = r.trace.expect("trace recorded while tracing is enabled");
    let plan = tree
        .children
        .iter()
        .find(|c| c.name == "plan")
        .unwrap_or_else(|| panic!("no plan stage in:\n{}", tree.render()));
    assert_eq!(plan.count, 4, "{}", tree.render());
    // Each tier's planning is summed, not the delta's alone (a fourth).
    assert!(
        r.timings.plan_nanos * 2 >= plan.nanos,
        "plan_nanos {} of the spans' {}\n{}",
        r.timings.plan_nanos,
        plan.nanos,
        tree.render()
    );
    assert!(r.timings.stage_sum() <= r.timings.total_nanos);
}

#[test]
fn no_trace_when_disabled() {
    let _turn = tracing_switch();
    let idx = build_index();
    let r = idx.query("//name", &QueryOptions::default()).unwrap();
    assert!(r.trace.is_none());
    assert!(r.timings.total_nanos > 0, "timings work without tracing");
}
