//! Prometheus-style text exposition of a JSON stats snapshot.
//!
//! The service's `stats` verb returns one nested JSON document; the
//! `metrics` verb must expose the *same numbers* as flat
//! Prometheus-style text. Rather than hand-maintaining two renderers
//! that drift, both sides are defined against one canonical
//! **flattening** ([`flatten_numeric`]) from a JSON tree to
//! `metric-name{labels} → f64`:
//!
//! * every numeric (or boolean) leaf becomes one sample named by its
//!   path, prefixed `cqchase_` and joined with `_`
//!   (`stats.batching.batches` → `cqchase_batching_batches`);
//! * an array named `*histogram_us_pow2` becomes a cumulative
//!   Prometheus histogram: `<path>_bucket{le="E"}` lines whose edges
//!   are the buckets' inclusive integer upper bounds (`0`, `1`, `3`,
//!   `7`, … `2^i - 1`) with the final overflow bucket as `+Inf`;
//! * any other all-numeric array gets an index label (`{i="3"}`);
//! * the object under a `sessions_detail` key is treated as
//!   per-session gauges: child key = session name, emitted as
//!   `cqchase_session_<leaf>{session="name"}`;
//! * strings, nulls, and mixed arrays carry no numeric value and are
//!   skipped.
//!
//! [`render_prometheus`] prints that flattening as exposition text and
//! [`parse_prometheus`] reads the text back into the same map, so
//! `parse(render(v)) == flatten(v)` is a pure-function property the
//! test suite checks exhaustively (and the service never has to).

use std::collections::BTreeMap;

use serde_json::Value;

/// Metric-name prefix for every exposed sample.
const PREFIX: &str = "cqchase";

/// Canonically flattens a stats JSON tree into Prometheus samples:
/// `fully_qualified_name{labels}` → value. See the module docs for the
/// exact rules.
pub fn flatten_numeric(v: &Value) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    walk(v, PREFIX, &mut out);
    out
}

fn sanitize(seg: &str) -> String {
    seg.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// The numeric value of a scalar leaf, with booleans as 0/1 gauges.
fn scalar(v: &Value) -> Option<f64> {
    match v {
        Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
        _ => v.as_f64(),
    }
}

fn walk(v: &Value, path: &str, out: &mut BTreeMap<String, f64>) {
    match v {
        Value::Object(map) => {
            for (k, child) in map.iter() {
                if k == "sessions_detail" {
                    sessions_detail(child, out);
                } else {
                    walk(child, &format!("{path}_{}", sanitize(k)), out);
                }
            }
        }
        Value::Array(items) => {
            let Some(nums) = all_numeric(items) else {
                return;
            };
            if path.ends_with("histogram_us_pow2") {
                let mut cum = 0.0;
                for (i, n) in nums.iter().enumerate() {
                    cum += n;
                    out.insert(
                        format!("{path}_bucket{{le=\"{}\"}}", edge(i, nums.len())),
                        cum,
                    );
                }
            } else {
                for (i, n) in nums.iter().enumerate() {
                    out.insert(format!("{path}{{i=\"{i}\"}}"), *n);
                }
            }
        }
        _ => {
            if let Some(n) = scalar(v) {
                out.insert(path.to_string(), n);
            }
        }
    }
}

/// The inclusive upper edge label of power-of-two latency bucket `i`
/// ([`bucket_edge_us`](crate::hist::bucket_edge_us)); the final bucket
/// is the overflow.
fn edge(i: usize, len: usize) -> String {
    if i + 1 == len || i >= 64 {
        "+Inf".to_string()
    } else {
        crate::hist::bucket_edge_us(i).to_string()
    }
}

fn all_numeric(items: &[Value]) -> Option<Vec<f64>> {
    items.iter().map(scalar).collect()
}

/// Per-session gauges: `sessions_detail.<name>.<leaf…>` becomes
/// `cqchase_session_<leaf…>{session="<name>"}`.
fn sessions_detail(v: &Value, out: &mut BTreeMap<String, f64>) {
    let Some(map) = v.as_object() else { return };
    for (session, stats) in map.iter() {
        let mut flat = BTreeMap::new();
        walk(stats, &format!("{PREFIX}_session"), &mut flat);
        for (name, value) in flat {
            // Inject the session label before any existing label set.
            let keyed = match name.find('{') {
                Some(b) => format!(
                    "{}{{session=\"{}\",{}",
                    &name[..b],
                    escape_label(session),
                    &name[b + 1..]
                ),
                None => format!("{name}{{session=\"{}\"}}", escape_label(session)),
            };
            out.insert(keyed, value);
        }
    }
}

fn escape_label(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '\\' => vec!['\\', '\\'],
            '"' => vec!['\\', '"'],
            '\n' => vec!['\\', 'n'],
            c => vec![c],
        })
        .collect()
}

fn unescape_label(s: &str) -> String {
    let mut out = String::new();
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Renders a stats JSON tree as Prometheus-style exposition text: one
/// `name{labels} value` sample per flattened entry, `# TYPE` comments
/// for histogram families.
pub fn render_prometheus(v: &Value) -> String {
    let flat = flatten_numeric(v);
    let mut out = String::new();
    let mut last_family = String::new();
    for (key, value) in &flat {
        let family = key.split('{').next().unwrap_or(key);
        if family != last_family {
            if let Some(base) = family.strip_suffix("_bucket") {
                out.push_str(&format!("# TYPE {base} histogram\n"));
            }
            last_family = family.to_string();
        }
        out.push_str(&format!("{key} {}\n", fmt_value(*value)));
    }
    out
}

/// Formats a sample value so it re-parses to the identical `f64`
/// (Rust's shortest-round-trip float formatting).
fn fmt_value(v: f64) -> String {
    format!("{v}")
}

/// Parses Prometheus-style exposition text back into the flat
/// `name{labels} → value` map produced by [`flatten_numeric`].
/// Comment and blank lines are skipped; malformed lines are ignored
/// (the round-trip property is only over text this module rendered).
pub fn parse_prometheus(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // The sample name may contain a quoted label set with spaces —
        // split at the first whitespace *outside* quotes, tracking
        // backslash escapes so `"…\\"` still closes its quote.
        let mut in_quotes = false;
        let mut escaped = false;
        let mut split_at = None;
        for (i, c) in line.char_indices() {
            if escaped {
                escaped = false;
                continue;
            }
            match c {
                '\\' if in_quotes => escaped = true,
                '"' => in_quotes = !in_quotes,
                ' ' | '\t' if !in_quotes => {
                    split_at = Some(i);
                    break;
                }
                _ => {}
            }
        }
        let Some(at) = split_at else { continue };
        let (key, raw) = (line[..at].to_string(), line[at..].trim());
        if let Ok(v) = raw.parse::<f64>() {
            out.insert(key, v);
        }
    }
    out
}

/// The session-label view of a parsed/flattened map: every
/// `cqchase_session_*{session="name",…}` entry, decoded back to
/// `(session, metric, value)`. Convenience for tests and operators.
pub fn session_gauges(flat: &BTreeMap<String, f64>) -> Vec<(String, String, f64)> {
    let mut out = Vec::new();
    for (key, value) in flat {
        let Some(rest) = key.strip_prefix("cqchase_session_") else {
            continue;
        };
        let Some(brace) = rest.find('{') else {
            continue;
        };
        let metric = rest[..brace].to_string();
        let labels = &rest[brace + 1..rest.len() - 1];
        let Some(sess) = labels.strip_prefix("session=\"") else {
            continue;
        };
        let Some(end) = find_quote_end(sess) else {
            continue;
        };
        out.push((unescape_label(&sess[..end]), metric, *value));
    }
    out
}

fn find_quote_end(s: &str) -> Option<usize> {
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        match c {
            '\\' if !escaped => escaped = true,
            '"' if !escaped => return Some(i),
            _ => escaped = false,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn flattens_nested_numeric_leaves() {
        let v = json!({
            "batching": json!({ "batches": 7u64, "rate": 0.5 }),
            "enabled": true,
            "name": "ignored",
        });
        let flat = flatten_numeric(&v);
        assert_eq!(flat.get("cqchase_batching_batches"), Some(&7.0));
        assert_eq!(flat.get("cqchase_batching_rate"), Some(&0.5));
        assert_eq!(flat.get("cqchase_enabled"), Some(&1.0));
        assert!(!flat.keys().any(|k| k.contains("name")));
    }

    #[test]
    fn histograms_render_cumulative_with_integer_edges() {
        let v = json!({ "check": json!({ "histogram_us_pow2": vec![2u64, 3, 0, 5] }) });
        let flat = flatten_numeric(&v);
        assert_eq!(
            flat.get("cqchase_check_histogram_us_pow2_bucket{le=\"0\"}"),
            Some(&2.0)
        );
        assert_eq!(
            flat.get("cqchase_check_histogram_us_pow2_bucket{le=\"1\"}"),
            Some(&5.0)
        );
        assert_eq!(
            flat.get("cqchase_check_histogram_us_pow2_bucket{le=\"3\"}"),
            Some(&5.0)
        );
        assert_eq!(
            flat.get("cqchase_check_histogram_us_pow2_bucket{le=\"+Inf\"}"),
            Some(&10.0)
        );
        let text = render_prometheus(&v);
        assert!(text.contains("# TYPE cqchase_check_histogram_us_pow2 histogram\n"));
    }

    #[test]
    fn plain_arrays_get_index_labels_and_mixed_are_skipped() {
        let v = json!({
            "xs": vec![1u64, 2],
            "mixed": Value::Array(vec![Value::from(1u64), Value::from("no")]),
        });
        let flat = flatten_numeric(&v);
        assert_eq!(flat.get("cqchase_xs{i=\"1\"}"), Some(&2.0));
        assert!(!flat.keys().any(|k| k.starts_with("cqchase_mixed")));
    }

    #[test]
    fn sessions_detail_becomes_labeled_gauges() {
        let inner = json!({ "facts": 64u64, "epoch": 3u64 });
        let mut sessions = serde_json::Map::new();
        sessions.insert("tenant-a".to_string(), inner);
        let mut root = serde_json::Map::new();
        root.insert("sessions_detail".to_string(), Value::Object(sessions));
        let v = Value::Object(root);
        let flat = flatten_numeric(&v);
        assert_eq!(
            flat.get("cqchase_session_facts{session=\"tenant-a\"}"),
            Some(&64.0)
        );
        let gauges = session_gauges(&flat);
        assert!(gauges.contains(&("tenant-a".to_string(), "epoch".to_string(), 3.0)));
    }

    #[test]
    fn parse_inverts_render() {
        let v = json!({
            "server": json!({ "uptime_s": 12.25, "version": "0.1.0" }),
            "check": json!({ "count": 3u64, "histogram_us_pow2": vec![1u64, 2, 0] }),
            "weird key!": -4,
        });
        let flat = flatten_numeric(&v);
        assert_eq!(flat.get("cqchase_weird_key_"), Some(&-4.0));
        assert_eq!(parse_prometheus(&render_prometheus(&v)), flat);
    }

    #[test]
    fn label_escaping_survives_round_trip() {
        let inner = json!({ "facts": 1u64 });
        let mut sessions = serde_json::Map::new();
        sessions.insert("we\"ird\\name".to_string(), inner);
        let mut root = serde_json::Map::new();
        root.insert("sessions_detail".to_string(), Value::Object(sessions));
        let v = Value::Object(root);
        let flat = flatten_numeric(&v);
        assert_eq!(parse_prometheus(&render_prometheus(&v)), flat);
        let gauges = session_gauges(&flat);
        assert_eq!(gauges[0].0, "we\"ird\\name");
    }
}
