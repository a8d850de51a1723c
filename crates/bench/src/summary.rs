//! Machine-readable benchmark reports.
//!
//! Renders the harness rows plus an instrumented run's telemetry
//! (span rollup and counters) as one JSON document — the
//! `BENCH_synthesis.json` artifact the synthesis bench writes at the
//! workspace root so CI runs can be diffed over time.

use crate::harness::BenchRow;
use oasys_telemetry::{json, RunReport};

/// Schema identifier of the emitted document.
pub const SCHEMA_NAME: &str = "oasys-bench";
/// Schema version of the emitted document.
pub const SCHEMA_VERSION: u32 = 5;

/// The untraced baseline row of the telemetry-overhead comparison.
pub const BASELINE_ROW: &str = "synthesize/case_a";
/// The live-recorder row of the telemetry-overhead comparison.
pub const TELEMETRY_ROW: &str = "synthesize/case_a_telemetry";

/// Ceiling on `telemetry_overhead_ratio`: an instrumented synthesis
/// must stay within 10% of the untraced baseline (median over median),
/// or `validate` — and with it `cargo xtask bench-schema` — fails.
pub const MAX_TELEMETRY_OVERHEAD_RATIO: f64 = 1.10;

/// The plain-sweep baseline row of the checksum-overhead comparison.
pub const CHECKSUM_BASELINE_ROW: &str = "batch/sweep_3x3";
/// The sealed-checkpoint sweep of the checksum-overhead comparison:
/// the same 3×3 batch writing an FNV-1a-sealed checkpoint line per job.
pub const CHECKSUM_ROW: &str = "batch/sweep_3x3_checksum";

/// Ceiling on `checksum_overhead_ratio`: end-to-end data integrity
/// (per-line FNV-1a seals on the batch checkpoint) must cost no more
/// than 5% over the plain sweep, or `validate` — and with it
/// `cargo xtask bench-schema` — fails.
pub const MAX_CHECKSUM_OVERHEAD_RATIO: f64 = 1.05;

/// The overload-shedding latency row: the client-observed round trip
/// of a `busy` frame from a saturated server.
pub const SHED_LATENCY_ROW: &str = "serve/shed_latency";

/// Benchmark rows the report must always carry: the 3×3 batch sweep so
/// batch-driver overhead on top of raw synthesis stays visible, the
/// same sweep with the fault plane armed on an inert site so the
/// near-zero cost of carrying `oasys-faults` in the hot paths stays
/// visible, a sweep whose spec is pruned before any plan executes so
/// the cost of answering "infeasible" statically stays visible, the
/// untraced-vs-traced pair behind the `telemetry_overhead_ratio` gate,
/// a 12-point sampled dataset shard generated end-to-end (plan
/// expansion, batch execution, flushed JSONL sink) so dataset
/// throughput stays visible, the sealed-checkpoint sweep behind the
/// `checksum_overhead_ratio` gate, and the client-observed shed
/// latency of a saturated server.
pub const REQUIRED_ROWS: [&str; 8] = [
    "style_search/case_a_pruned",
    CHECKSUM_BASELINE_ROW,
    "batch/sweep_3x3_chaos",
    CHECKSUM_ROW,
    "dataset/shard_throughput",
    SHED_LATENCY_ROW,
    BASELINE_ROW,
    TELEMETRY_ROW,
];

/// Counters the report's instrumented run must expose. `engine.cache_hits`
/// proves the sub-block memo cache is live, `engine.pruned` that the
/// static feasibility pruner is live; the rest tie the report to the
/// synthesis pipeline it claims to measure.
pub const REQUIRED_COUNTERS: [&str; 5] = [
    "synth.styles_attempted",
    "synth.styles_feasible",
    "plan.step_executions",
    "engine.cache_hits",
    "engine.pruned",
];

/// Validates a benchmark report against the `oasys-bench` schema:
/// identifier and version, well-formed timing rows including the
/// [`REQUIRED_ROWS`] pair, a well-formed span rollup, and the
/// [`REQUIRED_COUNTERS`]. Returns a one-line summary on success.
///
/// # Errors
///
/// A description of the first schema violation found.
pub fn validate(text: &str) -> Result<String, String> {
    let doc = json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(json::Json::as_str)
        .ok_or("missing `schema` string")?;
    if schema != SCHEMA_NAME {
        return Err(format!("schema is {schema:?}, expected {SCHEMA_NAME:?}"));
    }
    let version = doc
        .get("version")
        .and_then(json::Json::as_num)
        .ok_or("missing `version` number")?;
    if version != f64::from(SCHEMA_VERSION) {
        return Err(format!("version is {version}, expected {SCHEMA_VERSION}"));
    }

    doc.get("host_parallelism")
        .and_then(json::Json::as_num)
        .ok_or("missing `host_parallelism` number")?;

    let benches = doc
        .get("benches")
        .and_then(json::Json::as_arr)
        .ok_or("missing `benches` array")?;
    if benches.is_empty() {
        return Err("`benches` is empty".to_string());
    }
    let mut names = Vec::new();
    let mut medians = Vec::new();
    for row in benches {
        let name = row
            .get("name")
            .and_then(json::Json::as_str)
            .ok_or("bench row missing `name`")?;
        for field in ["iterations", "min_ns", "mean_ns", "median_ns"] {
            if row.get(field).and_then(json::Json::as_num).is_none() {
                return Err(format!("bench row {name:?} missing numeric `{field}`"));
            }
        }
        names.push(name.to_string());
        medians.push(
            row.get("median_ns")
                .and_then(json::Json::as_num)
                .unwrap_or(0.0),
        );
    }
    for required in REQUIRED_ROWS {
        if !names.iter().any(|n| n == required) {
            return Err(format!("missing required bench row {required:?}"));
        }
    }

    // The telemetry overhead gate: the ratio must be present, must agree
    // with the rows it claims to summarize, and must stay under the cap.
    let ratio = doc
        .get("telemetry_overhead_ratio")
        .and_then(json::Json::as_num)
        .ok_or("missing `telemetry_overhead_ratio` number")?;
    let median_of = |row: &str| -> Result<f64, String> {
        names
            .iter()
            .position(|n| n == row)
            .map(|i| medians[i])
            .ok_or_else(|| format!("missing required bench row {row:?}"))
    };
    let base = median_of(BASELINE_ROW)?;
    let traced = median_of(TELEMETRY_ROW)?;
    if base <= 0.0 {
        return Err(format!("{BASELINE_ROW:?} median_ns must be positive"));
    }
    let recomputed = traced / base;
    if (recomputed - ratio).abs() > 1e-6 {
        return Err(format!(
            "telemetry_overhead_ratio is {ratio}, but {TELEMETRY_ROW:?} / {BASELINE_ROW:?} \
             medians give {recomputed}"
        ));
    }
    if recomputed > MAX_TELEMETRY_OVERHEAD_RATIO {
        return Err(format!(
            "telemetry overhead ratio {recomputed:.3} exceeds the {MAX_TELEMETRY_OVERHEAD_RATIO} \
             ceiling ({TELEMETRY_ROW} median {traced} ns vs {BASELINE_ROW} median {base} ns)"
        ));
    }

    // The checksum-overhead gate: sealed-checkpoint sweep over plain
    // sweep medians, held under the 5% integrity budget.
    let checksum_ratio = doc
        .get("checksum_overhead_ratio")
        .and_then(json::Json::as_num)
        .ok_or("missing `checksum_overhead_ratio` number")?;
    let plain = median_of(CHECKSUM_BASELINE_ROW)?;
    let sealed = median_of(CHECKSUM_ROW)?;
    if plain <= 0.0 {
        return Err(format!(
            "{CHECKSUM_BASELINE_ROW:?} median_ns must be positive"
        ));
    }
    let recomputed_checksum = sealed / plain;
    if (recomputed_checksum - checksum_ratio).abs() > 1e-6 {
        return Err(format!(
            "checksum_overhead_ratio is {checksum_ratio}, but {CHECKSUM_ROW:?} / \
             {CHECKSUM_BASELINE_ROW:?} medians give {recomputed_checksum}"
        ));
    }
    if recomputed_checksum > MAX_CHECKSUM_OVERHEAD_RATIO {
        return Err(format!(
            "checksum overhead ratio {recomputed_checksum:.3} exceeds the \
             {MAX_CHECKSUM_OVERHEAD_RATIO} ceiling ({CHECKSUM_ROW} median {sealed} ns vs \
             {CHECKSUM_BASELINE_ROW} median {plain} ns)"
        ));
    }

    let rollup = doc
        .get("span_rollup")
        .and_then(json::Json::as_arr)
        .ok_or("missing `span_rollup` array")?;
    for entry in rollup {
        let name = entry
            .get("name")
            .and_then(json::Json::as_str)
            .ok_or("span_rollup entry missing `name`")?;
        for field in ["count", "total_ns"] {
            if entry.get(field).and_then(json::Json::as_num).is_none() {
                return Err(format!("span_rollup {name:?} missing numeric `{field}`"));
            }
        }
    }

    let counters = doc.get("counters").ok_or("missing `counters` object")?;
    for required in REQUIRED_COUNTERS {
        if counters
            .get(required)
            .and_then(json::Json::as_num)
            .is_none()
        {
            return Err(format!("missing required counter {required:?}"));
        }
    }

    let histograms = doc
        .get("histograms")
        .and_then(json::Json::as_obj)
        .ok_or("missing `histograms` object")?;
    for (name, hist) in histograms {
        for field in ["count", "sum", "min", "max"] {
            if hist.get(field).and_then(json::Json::as_num).is_none() {
                return Err(format!("histogram {name:?} missing numeric `{field}`"));
            }
        }
        let buckets = hist
            .get("buckets")
            .and_then(json::Json::as_arr)
            .ok_or_else(|| format!("histogram {name:?} missing `buckets` array"))?;
        for pair in buckets {
            let ok = pair
                .as_arr()
                .is_some_and(|p| p.len() == 2 && p.iter().all(|v| v.as_num().is_some()));
            if !ok {
                return Err(format!(
                    "histogram {name:?} bucket entries must be [bucket, count] number pairs"
                ));
            }
        }
    }

    Ok(format!(
        "{} bench rows, {} rollup spans, counters ok, {} histograms, \
         telemetry overhead {recomputed:.3}, checksum overhead {recomputed_checksum:.3}",
        benches.len(),
        rollup.len(),
        histograms.len()
    ))
}

/// Renders the benchmark report: harness rows plus the span rollup and
/// counters of one instrumented synthesis run.
#[must_use]
pub fn render(rows: &[BenchRow], telemetry: &RunReport) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"schema\": {},\n  \"version\": {},\n",
        json::string(SCHEMA_NAME),
        SCHEMA_VERSION
    ));
    // Timing rows are only interpretable relative to the machine that
    // produced them.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    out.push_str(&format!("  \"host_parallelism\": {cores},\n"));

    out.push_str("  \"benches\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": {}, \"iterations\": {}, \"min_ns\": {}, \"mean_ns\": {}, \"median_ns\": {}}}{sep}\n",
            json::string(&row.name),
            row.iterations,
            row.min_ns,
            row.mean_ns,
            row.median_ns
        ));
    }
    out.push_str("  ],\n");

    // The telemetry-overhead headline: traced over untraced median, the
    // number the schema gate holds under MAX_TELEMETRY_OVERHEAD_RATIO.
    // Omitted when either comparison row is absent (partial reports);
    // `validate` then rejects the document.
    let median_of = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .map(|r| r.median_ns as f64)
    };
    if let (Some(base), Some(traced)) = (median_of(BASELINE_ROW), median_of(TELEMETRY_ROW)) {
        if base > 0.0 {
            out.push_str(&format!(
                "  \"telemetry_overhead_ratio\": {},\n",
                json::number(traced / base)
            ));
        }
    }

    // The checksum-overhead headline: sealed-checkpoint sweep over the
    // plain sweep, the number the schema gate holds under
    // MAX_CHECKSUM_OVERHEAD_RATIO.
    if let (Some(plain), Some(sealed)) = (median_of(CHECKSUM_BASELINE_ROW), median_of(CHECKSUM_ROW))
    {
        if plain > 0.0 {
            out.push_str(&format!(
                "  \"checksum_overhead_ratio\": {},\n",
                json::number(sealed / plain)
            ));
        }
    }

    let rollup = telemetry.span_rollup();
    out.push_str("  \"span_rollup\": [\n");
    for (i, (name, count, total_ns)) in rollup.iter().enumerate() {
        let sep = if i + 1 == rollup.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": {}, \"count\": {count}, \"total_ns\": {total_ns}}}{sep}\n",
            json::string(name)
        ));
    }
    out.push_str("  ],\n");

    out.push_str("  \"counters\": {");
    let counters: Vec<String> = telemetry
        .metrics()
        .counters()
        .map(|(name, value)| format!("{}: {value}", json::string(name)))
        .collect();
    out.push_str(&counters.join(", "));
    out.push_str("},\n");

    out.push_str("  \"histograms\": {");
    let histograms: Vec<String> = telemetry
        .metrics()
        .histograms()
        .map(|(name, h)| {
            let buckets: Vec<String> = h
                .buckets()
                .iter()
                .map(|(b, c)| format!("[{b}, {c}]"))
                .collect();
            format!(
                "{}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [{}]}}",
                json::string(name),
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                buckets.join(", ")
            )
        })
        .collect();
    out.push_str(&histograms.join(", "));
    out.push_str("}\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasys_telemetry::Telemetry;

    #[test]
    fn render_is_valid_json_with_all_sections() {
        let tel = Telemetry::new();
        {
            let span = tel.span(|| "synthesize".to_owned());
            span.annotate("selected", || "two-stage".to_owned());
            tel.incr("plan.step_executions");
        }
        let rows = vec![BenchRow {
            name: "synthesize/case_a".to_owned(),
            iterations: 100,
            min_ns: 10,
            mean_ns: 12,
            median_ns: 11,
        }];
        let text = render(&rows, &tel.report());
        let doc = json::parse(&text).expect("report parses as JSON");
        assert_eq!(
            doc.get("schema").and_then(json::Json::as_str),
            Some(SCHEMA_NAME)
        );
        assert_eq!(
            doc.get("benches")
                .and_then(json::Json::as_arr)
                .map(<[json::Json]>::len),
            Some(1)
        );
        let rollup = doc.get("span_rollup").and_then(json::Json::as_arr).unwrap();
        assert_eq!(rollup.len(), 1);
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("plan.step_executions"))
                .and_then(json::Json::as_num),
            Some(1.0)
        );
    }

    #[test]
    fn render_handles_empty_inputs() {
        let text = render(&[], &Telemetry::new().report());
        assert!(json::parse(&text).is_ok());
    }

    fn report_with_medians(overrides: &[(&str, u128)]) -> String {
        let tel = Telemetry::new();
        {
            let _span = tel.span(|| "synthesize".to_owned());
            for counter in REQUIRED_COUNTERS {
                tel.incr(counter);
            }
            tel.observe("sim.dc.newton_iterations", 7);
        }
        let rows: Vec<BenchRow> = REQUIRED_ROWS
            .iter()
            .map(|name| BenchRow {
                name: (*name).to_owned(),
                iterations: 100,
                min_ns: 10,
                mean_ns: 12,
                median_ns: overrides
                    .iter()
                    .find(|(row, _)| row == name)
                    .map_or(11, |(_, median)| *median),
            })
            .collect();
        render(&rows, &tel.report())
    }

    fn report_with_telemetry_median(telemetry_median_ns: u128) -> String {
        report_with_medians(&[(TELEMETRY_ROW, telemetry_median_ns)])
    }

    fn compliant_report() -> String {
        report_with_telemetry_median(11)
    }

    #[test]
    fn validate_accepts_a_compliant_report() {
        let text = compliant_report();
        let summary = validate(&text).expect("compliant report validates");
        assert!(summary.contains("8 bench rows"), "{summary}");
        assert!(summary.contains("telemetry overhead 1.000"), "{summary}");
        assert!(summary.contains("checksum overhead 1.000"), "{summary}");
    }

    #[test]
    fn validate_gates_on_checksum_overhead() {
        // 11 → 11 ns is ratio 1.0; 12 ns is ~9% over the 5% budget.
        let err = validate(&report_with_medians(&[(CHECKSUM_ROW, 12)])).unwrap_err();
        assert!(err.contains("checksum overhead"), "{err}");
        assert!(err.contains("exceeds"), "{err}");
        // A ratio that disagrees with the rows is rejected outright.
        let text = compliant_report().replace(
            "\"checksum_overhead_ratio\": 1",
            "\"checksum_overhead_ratio\": 0.5",
        );
        let err = validate(&text).unwrap_err();
        assert!(err.contains("medians give"), "{err}");
        // A report that omits the field is rejected.
        let text = compliant_report().replace("checksum_overhead_ratio", "checksum_ratio");
        let err = validate(&text).unwrap_err();
        assert!(err.contains("checksum_overhead_ratio"), "{err}");
    }

    #[test]
    fn validate_gates_on_telemetry_overhead() {
        // 11 → 12 ns is within the 10% budget; 13 ns is 18% over.
        validate(&report_with_telemetry_median(12)).expect("1.09x passes the gate");
        let err = validate(&report_with_telemetry_median(13)).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
        // A ratio that disagrees with the rows is rejected outright.
        let text = compliant_report().replace(
            "\"telemetry_overhead_ratio\": 1",
            "\"telemetry_overhead_ratio\": 0.5",
        );
        let err = validate(&text).unwrap_err();
        assert!(err.contains("medians give"), "{err}");
    }

    #[test]
    fn validate_requires_histograms() {
        let text = compliant_report().replace("\"histograms\"", "\"hists\"");
        let err = validate(&text).unwrap_err();
        assert!(err.contains("histograms"), "{err}");
    }

    #[test]
    fn validate_rejects_missing_comparison_row() {
        let text = compliant_report().replace("batch/sweep_3x3_checksum", "renamed/row");
        let err = validate(&text).unwrap_err();
        assert!(err.contains("batch/sweep_3x3_checksum"), "{err}");
    }

    #[test]
    fn validate_rejects_missing_cache_counter() {
        let text = compliant_report().replace("engine.cache_hits", "engine.cache_wins");
        let err = validate(&text).unwrap_err();
        assert!(err.contains("engine.cache_hits"), "{err}");
    }

    #[test]
    fn validate_rejects_schema_drift() {
        let text = compliant_report().replace("\"version\": 5", "\"version\": 6");
        let err = validate(&text).unwrap_err();
        assert!(err.contains("version"), "{err}");
        assert!(validate("{}").is_err());
        assert!(validate("not json").is_err());
    }
}
