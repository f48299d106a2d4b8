//! Exposition renderers: Prometheus text format and JSON, both from a
//! registry [`Snapshot`]. Hand-rolled (no serde) to honor the crate's
//! zero-dependency rule.

use crate::metrics::{bucket_upper_bound, HistogramSnapshot, BUCKETS};
use crate::registry::{self, MetricValue, Snapshot};
use std::fmt::Write as _;

/// Escape a `# HELP` text per the Prometheus text-format grammar:
/// backslash and newline are the only escapable characters there.
fn help_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// The `# HELP` text for a metric: its registered description
/// ([`registry::describe`]) or generated fallback text.
fn help_for(name: &str, kind: &str) -> String {
    match registry::help_for(name) {
        Some(h) => help_escape(h),
        None => format!("ViST {kind} {name}."),
    }
}

/// Render a snapshot in the Prometheus text exposition format
/// (version 0.0.4): `# HELP` and `# TYPE` lines per family, cumulative
/// `_bucket{le="..."}` series ending in `le="+Inf"`, plus `_sum` and
/// `_count` for histograms. Metrics appear in name order.
#[must_use]
pub fn render_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.metrics {
        match value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "# HELP {name} {}", help_for(name, "counter"));
                let _ = writeln!(out, "# TYPE {name} counter");
                let _ = writeln!(out, "{name} {v}");
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "# HELP {name} {}", help_for(name, "gauge"));
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{name} {v}");
            }
            MetricValue::Histogram(h) => {
                let _ = writeln!(out, "# HELP {name} {}", help_for(name, "histogram"));
                let _ = writeln!(out, "# TYPE {name} histogram");
                let mut cumulative = 0u64;
                for i in 0..BUCKETS {
                    cumulative += h.buckets[i];
                    // Skip interior empty buckets to keep the output
                    // readable; cumulative counts stay correct because
                    // an empty bucket adds nothing.
                    if h.buckets[i] == 0 {
                        continue;
                    }
                    let _ = writeln!(
                        out,
                        "{name}_bucket{{le=\"{}\"}} {cumulative}",
                        bucket_upper_bound(i)
                    );
                }
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
                let _ = writeln!(out, "{name}_sum {}", h.sum);
                let _ = writeln!(out, "{name}_count {}", h.count());
            }
        }
    }
    out
}

/// Escape a string for inclusion in a JSON string literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    json_escape_into(&mut out, s);
    out
}

/// [`json_escape`], appended to `out`: the runs between escapes are copied
/// whole. Every character escaped is ASCII, so a byte index is a character
/// boundary.
pub(crate) fn json_escape_into(out: &mut String, s: &str) {
    let mut run = 0;
    for (at, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..at]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = at + 1;
    }
    out.push_str(&s[run..]);
}

fn histogram_json(h: &HistogramSnapshot) -> String {
    let mut out = String::from("{\"type\":\"histogram\"");
    let _ = write!(
        out,
        ",\"count\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p95\":{},\"p99\":{},\"p999\":{},\"max\":{}",
        h.count(),
        h.sum,
        h.p50(),
        h.p90(),
        h.p95(),
        h.p99(),
        h.p999(),
        h.max
    );
    let exemplar = h.exemplar(0.99);
    if exemplar != 0 {
        let _ = write!(
            out,
            ",\"p99_exemplar\":\"{}\"",
            crate::traceid::format(exemplar)
        );
    }
    out.push_str(",\"buckets\":[");
    let mut first = true;
    for i in 0..BUCKETS {
        if h.buckets[i] == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"le\":{},\"count\":{}}}",
            bucket_upper_bound(i),
            h.buckets[i]
        );
    }
    out.push_str("]}");
    out
}

/// Render a snapshot as a single JSON object keyed by metric name.
/// Counters and gauges render as `{"type":...,"value":N}`; histograms
/// include count/sum/quantiles and their non-empty buckets.
#[must_use]
pub fn render_json(snap: &Snapshot) -> String {
    let mut out = String::from("{");
    let mut first = true;
    for (name, value) in &snap.metrics {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\"{}\":", json_escape(name));
        match value {
            MetricValue::Counter(v) => {
                let _ = write!(out, "{{\"type\":\"counter\",\"value\":{v}}}");
            }
            MetricValue::Gauge(v) => {
                let _ = write!(out, "{{\"type\":\"gauge\",\"value\":{v}}}");
            }
            MetricValue::Histogram(h) => out.push_str(&histogram_json(h)),
        }
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(not(feature = "noop"))]
    fn sample_snapshot() -> Snapshot {
        let h = crate::metrics::Histogram::new();
        h.record(3);
        h.record(3);
        h.record(900);
        Snapshot {
            metrics: vec![
                ("expo_a_total", MetricValue::Counter(42)),
                ("expo_b_level", MetricValue::Gauge(-7)),
                (
                    "expo_c_nanos",
                    MetricValue::Histogram(Box::new(h.snapshot())),
                ),
            ],
        }
    }

    #[test]
    #[cfg(not(feature = "noop"))]
    fn prometheus_text_shape() {
        let text = render_prometheus(&sample_snapshot());
        assert!(text.contains("# HELP expo_a_total "));
        assert!(text.contains("# TYPE expo_a_total counter\nexpo_a_total 42\n"));
        assert!(text.contains("# TYPE expo_b_level gauge\nexpo_b_level -7\n"));
        assert!(text.contains("# HELP expo_c_nanos "));
        assert!(text.contains("# TYPE expo_c_nanos histogram"));
        // 3 lands in bucket [2,4) with upper bound 3; 900 in [512,1024).
        assert!(text.contains("expo_c_nanos_bucket{le=\"3\"} 2"));
        assert!(text.contains("expo_c_nanos_bucket{le=\"1023\"} 3"));
        assert!(text.contains("expo_c_nanos_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("expo_c_nanos_sum 906"));
        assert!(text.contains("expo_c_nanos_count 3"));
    }

    #[test]
    #[cfg(not(feature = "noop"))]
    fn json_shape() {
        let json = render_json(&sample_snapshot());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"expo_a_total\":{\"type\":\"counter\",\"value\":42}"));
        assert!(json.contains("\"expo_b_level\":{\"type\":\"gauge\",\"value\":-7}"));
        assert!(json.contains("\"count\":3,\"sum\":906"));
        assert!(json.contains("{\"le\":3,\"count\":2}"));
        // Balanced braces/brackets — a cheap structural validity check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        // Runs of multi-byte characters between escapes, appended as is.
        let mut line = String::from("{");
        json_escape_into(&mut line, "é\u{1f}€\t\u{7f}𝄞\"");
        assert_eq!(line, "{é\\u001f€\\t\u{7f}𝄞\\\"");
        assert_eq!(help_escape("a\\b\nc"), "a\\\\b\\nc");
    }

    #[test]
    #[cfg(not(feature = "noop"))]
    fn described_help_text_is_used_and_escaped() {
        crate::registry::describe("expo_described_total", "multi\nline \\help");
        let snap = Snapshot {
            metrics: vec![("expo_described_total", MetricValue::Counter(1))],
        };
        let text = render_prometheus(&snap);
        assert!(
            text.contains("# HELP expo_described_total multi\\nline \\\\help\n"),
            "{text}"
        );
    }

    /// Is `s` a valid Prometheus metric name (`[a-zA-Z_:][a-zA-Z0-9_:]*`)?
    #[cfg(not(feature = "noop"))]
    fn valid_metric_name(s: &str) -> bool {
        let mut chars = s.chars();
        matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':')
            && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }

    /// Parse one `{label="value",...}` block per the text-format
    /// grammar; returns false on any violation.
    #[cfg(not(feature = "noop"))]
    fn valid_labels(s: &str) -> bool {
        let Some(inner) = s.strip_prefix('{').and_then(|s| s.strip_suffix('}')) else {
            return false;
        };
        for pair in inner.split(',') {
            let Some((name, value)) = pair.split_once('=') else {
                return false;
            };
            let mut chars = name.chars();
            let name_ok = matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
                && chars.all(|c| c.is_ascii_alphanumeric() || c == '_');
            if !name_ok {
                return false;
            }
            let Some(v) = value.strip_prefix('"').and_then(|v| v.strip_suffix('"')) else {
                return false;
            };
            // Inside a label value, `"`, `\` and newline must be escaped.
            let mut esc = false;
            for c in v.chars() {
                if esc {
                    if !matches!(c, '\\' | '"' | 'n') {
                        return false;
                    }
                    esc = false;
                } else if c == '\\' {
                    esc = true;
                } else if c == '"' || c == '\n' {
                    return false;
                }
            }
            if esc {
                return false;
            }
        }
        true
    }

    /// Line-by-line conformance check of real `/metrics` output against
    /// the text exposition grammar: every line is a `# HELP`, a
    /// `# TYPE`, or a sample whose family was announced by a preceding
    /// `# TYPE`; names and labels match the grammar; values parse.
    #[test]
    #[cfg(not(feature = "noop"))]
    fn prometheus_output_parses_against_the_grammar() {
        use std::collections::BTreeMap;
        // Real registered metrics (whatever other tests created) plus a
        // histogram guaranteed to have samples and a described counter.
        crate::registry::describe("expo_grammar_total", "Requests seen by the grammar test.");
        crate::registry::counter("expo_grammar_total").add(3);
        let h = crate::registry::histogram("expo_grammar_nanos");
        h.record(0);
        h.record(17);
        h.record(40_000);
        let text = render_prometheus(&crate::registry::snapshot());

        let mut types: BTreeMap<String, String> = BTreeMap::new();
        let mut samples = 0usize;
        for line in text.lines() {
            assert!(!line.is_empty(), "no blank lines in exposition");
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (name, help) = rest.split_once(' ').expect("HELP has name and text");
                assert!(valid_metric_name(name), "bad HELP name {name:?}");
                assert!(!help.contains('\n'));
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest.split_once(' ').expect("TYPE has name and kind");
                assert!(valid_metric_name(name), "bad TYPE name {name:?}");
                assert!(
                    matches!(kind, "counter" | "gauge" | "histogram"),
                    "bad kind {kind:?}"
                );
                types.insert(name.to_string(), kind.to_string());
                continue;
            }
            assert!(!line.starts_with('#'), "unknown comment: {line}");
            let (series, value) = line.rsplit_once(' ').expect("sample has name and value");
            let (name, labels) = match series.find('{') {
                Some(i) => (&series[..i], &series[i..]),
                None => (series, ""),
            };
            assert!(valid_metric_name(name), "bad sample name {name:?}");
            if !labels.is_empty() {
                assert!(valid_labels(labels), "bad labels in {line:?}");
            }
            assert!(
                value == "+Inf" || value.parse::<f64>().is_ok(),
                "bad value in {line:?}"
            );
            // Every sample belongs to an announced family.
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suf| {
                    name.strip_suffix(suf)
                        .filter(|base| types.get(*base).map(String::as_str) == Some("histogram"))
                })
                .unwrap_or(name);
            assert!(
                types.contains_key(family),
                "sample {name:?} has no preceding # TYPE"
            );
            samples += 1;
        }
        assert!(samples > 0, "exposition produced no samples");
        assert_eq!(types.get("expo_grammar_nanos").unwrap(), "histogram");
        assert!(text.contains("# HELP expo_grammar_total Requests seen by the grammar test.\n"));
    }
}
