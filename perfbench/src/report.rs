//! Order statistics, the result line, and the layer table.

use serde_json::{Map, Value};

/// `q`-quantile of `values` by linear interpolation between closest
/// ranks (the numpy default); `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean of `values` (`NaN` when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result object printed as the last stdout line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut m = Map::new();
    for x in metrics {
        let mut v = Map::new();
        v.insert("value".into(), Value::from(x.value));
        v.insert("unit".into(), Value::from(x.unit));
        m.insert(x.name.into(), Value::Object(v));
    }
    let mut out = Map::new();
    out.insert("correct".into(), Value::from(correct));
    out.insert("attempted".into(), Value::from(attempted));
    out.insert("failed".into(), Value::from(failed));
    out.insert("metrics".into(), Value::Object(m));
    Value::Object(out).to_string()
}

/// One row of a layer table.
#[derive(Debug, Clone)]
pub struct LayerRow {
    /// Layer name.
    pub layer: String,
    /// Attributed p50 in µs.
    pub us: f64,
}

/// Renders one op's layer table: µs and share of the end-to-end p50.
pub fn render_layer_table(title: &str, e2e_p50_us: f64, rows: &[LayerRow]) -> String {
    let mut s = format!("{title}: e2e p50 {e2e_p50_us:.1} us\n");
    s.push_str(&format!("  {:<26} {:>12} {:>8}\n", "layer", "us", "share"));
    for r in rows {
        s.push_str(&format!(
            "  {:<26} {:>12.1} {:>7.1}%\n",
            r.layer,
            r.us,
            100.0 * r.us / e2e_p50_us
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }
}
