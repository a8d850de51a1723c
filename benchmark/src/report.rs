//! Metrics as one workload reports them, and the lines the benchmark
//! prints: human-readable rows with units, sample counts and ratio
//! bases, then the one-line JSON result.

use crate::stats::{median, reportable, tail_percentile, Ratio};
use oasys_telemetry::json;
use std::fmt::Write as _;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
    /// For a ratio, the numerator and denominator it was computed from.
    pub base: Option<String>,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, including correctness-check mismatches.
    pub failed: u64,
    /// A description of each correctness-check mismatch.
    pub mismatches: Vec<String>,
    /// End-to-end metrics under the workload's own names.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
}

impl Outcome {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.e2e.push(metric(name, value, unit, samples, None));
    }

    /// Records a latency sample as `<name>_p50_<unit>`, its percentile
    /// `fixed`, and the highest percentile with at least ten samples
    /// beyond it — each only once the sample holds that many.
    pub fn e2e_latency(&mut self, name: &str, unit: &'static str, values: &[f64], fixed: f64) {
        self.e2e(
            &format!("{name}_p50_{unit}"),
            median(values),
            unit,
            values.len(),
        );
        let tail = tail_percentile(values.len()).filter(|&p| p > fixed);
        for p in [Some(fixed), tail].into_iter().flatten() {
            if let Some(v) = reportable(values, p) {
                self.e2e(&format!("{name}_p{p}_{unit}"), v, unit, values.len());
            }
        }
    }

    /// Records an end-to-end ratio with its base.
    pub fn e2e_ratio(&mut self, name: &str, ratio: Ratio, samples: usize) {
        self.e2e
            .push(metric(name, ratio.value(), "ratio", samples, Some(ratio)));
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.layers.push(metric(name, value, unit, samples, None));
    }

    /// Records a per-layer ratio with its base.
    pub fn layer_ratio(&mut self, name: &str, ratio: Ratio, unit: &'static str, samples: usize) {
        self.layers
            .push(metric(name, ratio.value(), unit, samples, Some(ratio)));
    }

    /// Counts one failed operation because a correctness check missed.
    pub fn mismatch(&mut self, what: String) {
        self.failed += 1;
        self.mismatches.push(what);
    }

    /// The end-to-end metric called `name`.
    #[must_use]
    pub fn e2e_value(&self, name: &str) -> Option<&Metric> {
        self.e2e.iter().find(|m| m.name == name)
    }
}

fn metric(
    name: &str,
    value: f64,
    unit: &'static str,
    samples: usize,
    base: Option<Ratio>,
) -> Metric {
    Metric {
        name: name.to_owned(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        samples,
        base: base.map(|r| r.to_string()),
    }
}

/// A human-readable row: `<kind> <workload> <name> <value> <unit> n=<samples> [base=<num / den>]`.
#[must_use]
pub fn row(kind: &str, workload: &str, m: &Metric) -> String {
    let mut line = format!(
        "{kind} {workload} {} {} {} n={}",
        m.name, m.value, m.unit, m.samples
    );
    if let Some(base) = &m.base {
        let _ = write!(line, " base=({base})");
    }
    line
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric as `{"value": …, "unit": …}` with every digit.
#[must_use]
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{",
        attempted.max(1)
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}:{{\"value\":{},\"unit\":{}}}",
            json::string(&m.name),
            m.value,
            json::string(m.unit)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_keeps_every_digit_and_parses() {
        let m = metric("latency_ms", 1.203_456_789_012_3, "ms", 10, None);
        let line = result_json(true, 3, 0, &[m]);
        assert!(line.contains("1.2034567890123"), "{line}");
        let parsed = json::parse(&line).unwrap();
        let value = parsed
            .get("metrics")
            .and_then(|m| m.get("latency_ms"))
            .and_then(|m| m.get("value"))
            .and_then(json::Json::as_num);
        assert_eq!(value, Some(1.203_456_789_012_3));
    }

    #[test]
    fn latency_rows_name_their_percentiles() {
        let mut outcome = Outcome::default();
        let values: Vec<f64> = (1..=2000).map(f64::from).collect();
        outcome.e2e_latency("verdict", "us", &values, 99.0);
        let names: Vec<&str> = outcome.e2e.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["verdict_p50_us", "verdict_p99_us"]);
        outcome.e2e_latency("answer", "ms", &values[..50], 90.0);
        assert_eq!(outcome.e2e.len(), 3, "50 samples: median only");
        outcome.e2e_latency("probe", "ms", &[1.0; 10_000], 90.0);
        let tail = &outcome.e2e[outcome.e2e.len() - 1];
        assert_eq!(tail.name, "probe_p99.9_ms");
        assert_eq!(tail.samples, 10_000);
    }

    #[test]
    fn ratio_rows_print_their_base() {
        let mut outcome = Outcome::default();
        outcome.e2e_ratio("meets_spec_fraction", Ratio::new(119.0, 120.0), 120);
        let line = row("e2e", "w", &outcome.e2e[0]);
        assert!(line.ends_with("base=(119 / 120)"), "{line}");
    }
}
