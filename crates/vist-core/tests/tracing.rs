//! Span-tree invariants: `vist query --trace`'s tree must account for
//! the query's reported wall time — child stage durations sum to the
//! root total within the untimed-bookkeeping residue.

use std::sync::{Mutex, MutexGuard};

use vist_core::{IndexOptions, QueryOptions, VistIndex};

/// `set_tracing` is process-wide, so the two tests take turns: without
/// this the second one's query can run while the first has tracing on.
fn tracing_switch() -> MutexGuard<'static, ()> {
    static SWITCH: Mutex<()> = Mutex::new(());
    SWITCH.lock().unwrap_or_else(|e| e.into_inner())
}

fn build_index() -> VistIndex {
    let idx = VistIndex::in_memory(IndexOptions::default()).unwrap();
    for i in 0..300 {
        idx.insert_xml(&format!(
            "<site><people><person><name>p{}</name><city>c{}</city></person></people></site>",
            i % 17,
            i % 5
        ))
        .unwrap();
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
fn no_trace_when_disabled() {
    let _turn = tracing_switch();
    let idx = build_index();
    let r = idx.query("//name", &QueryOptions::default()).unwrap();
    assert!(r.trace.is_none());
    assert!(r.timings.total_nanos > 0, "timings work without tracing");
}
