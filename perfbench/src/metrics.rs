//! Metric values, the summaries they are built from, and the result line.

use colocate::harness::BaselineCache;
use colocate::predictors::PredictionTable;
use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor.
#[must_use]
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Median of `xs`; 0 for an empty slice.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Linear-interpolated percentile of `xs`; 0 for an empty slice, so a
/// layer a workload never calls reports 0 rather than NaN.
#[must_use]
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    colocate::metrics::try_percentile(xs, p).unwrap_or(0.0)
}

/// `num / den`, or 0 when nothing was attempted.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Hit ratios of a round's memo tables, and the prediction tables' size,
/// summed over every (baseline cache, prediction table) pair the round
/// used.
#[must_use]
pub fn memo_counters<'a>(
    memos: impl IntoIterator<Item = (&'a BaselineCache, &'a PredictionTable)>,
) -> [Metric; 3] {
    let (mut b_hits, mut b_misses, mut t_hits, mut t_misses, mut entries) = (0, 0, 0, 0, 0);
    for (baselines, table) in memos {
        let (hits, misses) = baselines.stats();
        b_hits += hits;
        b_misses += misses;
        t_hits += table.hits();
        t_misses += table.misses();
        entries += table.len();
    }
    [
        metric(
            "harness.baselines.hit_ratio",
            ratio(b_hits as f64, (b_hits + b_misses) as f64),
            "ratio",
        ),
        metric(
            "predictors.table.hit_ratio",
            ratio(t_hits as f64, (t_hits + t_misses) as f64),
            "ratio",
        ),
        metric("predictors.table.entries", entries as f64, "count"),
    ]
}

/// The process's peak resident set size, MiB (`VmHWM`), or 0 when the
/// platform does not report it.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Renders `{"name": {"value": v, "unit": "u"}, ...}`.
#[must_use]
pub fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push('}');
    out
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`. A non-finite value cannot be written as JSON; it is printed
/// as 0 and the run is marked incorrect.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let clean: Vec<Metric> = metrics
        .iter()
        .map(|m| Metric {
            value: if m.value.is_finite() { m.value } else { 0.0 },
            ..*m
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        correct && finite,
        metrics_json(&clean)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys_and_rejects_nan() {
        let line = result_line(true, 3, 0, &[metric("a", 1.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        let bad = result_line(true, 1, 0, &[metric("a", f64::NAN, "s")]);
        assert!(bad.starts_with("{\"correct\": false"));
        assert!(bad.contains("\"value\": 0,"));
    }

    #[test]
    fn summaries_of_nothing_are_zero() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
