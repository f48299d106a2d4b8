//! The `vist-btree` table of `docs/OBSERVABILITY.md` and
//! `vist_btree::register_metrics()` name the same metrics: everything this
//! crate registers is documented with a type and a unit, and every
//! `vist_btree_*` row of the catalog is registered.
//!
//! Alone in its test binary on purpose: the registry is process-global, and
//! here nothing but `register_metrics()` has touched it.

use std::collections::BTreeMap;

use vist_obs::MetricValue;

/// `name -> (type, unit)` for every `vist_btree_*` catalog row.
fn documented() -> BTreeMap<String, (String, String)> {
    let doc = include_str!("../../../docs/OBSERVABILITY.md");
    let mut rows = BTreeMap::new();
    for line in doc.lines() {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        let Some(name) = cells
            .get(1)
            .and_then(|c| c.strip_prefix('`')?.strip_suffix('`'))
        else {
            continue;
        };
        if !name.starts_with("vist_btree_") {
            continue;
        }
        assert_eq!(cells.len(), 6, "metric | type | unit | meaning: {line}");
        let row = (cells[2].to_string(), cells[3].to_string());
        assert!(
            rows.insert(name.to_string(), row).is_none(),
            "{name} listed twice"
        );
    }
    rows
}

#[test]
fn registered_metrics_and_the_documented_catalog_agree() {
    vist_btree::register_metrics();
    let documented = documented();
    let registered = vist_obs::snapshot().metrics;
    assert!(
        registered.len() >= 6,
        "register_metrics() registered little"
    );
    for (name, value) in &registered {
        let kind = match value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        };
        let (doc_kind, unit) = documented
            .get(*name)
            .unwrap_or_else(|| panic!("{name} is registered but not in docs/OBSERVABILITY.md"));
        assert_eq!(doc_kind, kind, "{name}");
        assert!(!unit.is_empty(), "{name} has no unit");
    }
    for name in documented.keys() {
        assert!(
            registered.iter().any(|(n, _)| n == name),
            "{name} is documented but register_metrics() does not register it"
        );
    }
}
