//! Validation of the exported trace formats, used by the `cargo xtask
//! smoke` gate and by tests: parse every line/entry, check the schema
//! version, and enforce the per-kind required fields so a regression in
//! an exporter fails CI instead of silently shipping unreadable traces.

use crate::json::{self, Json};
use crate::report::{SCHEMA_NAME, SCHEMA_VERSION};
use std::fmt;

/// What a valid JSON-lines trace contained.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JsonlSummary {
    /// Span lines.
    pub spans: usize,
    /// Event lines.
    pub events: usize,
    /// Counters in the metrics line.
    pub counters: usize,
    /// Gauges in the metrics line.
    pub gauges: usize,
    /// Histograms in the metrics line.
    pub histograms: usize,
}

/// What a valid Chrome trace contained.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChromeSummary {
    /// Complete (`ph:"X"`) span entries.
    pub spans: usize,
    /// Instant (`ph:"i"`) entries.
    pub instants: usize,
    /// Counter (`ph:"C"`) entries.
    pub counters: usize,
}

/// A schema violation, with the offending line (1-based; 0 = whole file).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchemaError {
    /// 1-based line (JSON-lines) or entry index; 0 for document-level.
    pub line: usize,
    /// What was violated.
    pub message: String,
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "trace schema error: {}", self.message)
        } else {
            write!(
                f,
                "trace schema error at line {}: {}",
                self.line, self.message
            )
        }
    }
}

impl std::error::Error for SchemaError {}

fn fail(line: usize, message: impl Into<String>) -> SchemaError {
    SchemaError {
        line,
        message: message.into(),
    }
}

fn require_str<'a>(obj: &'a Json, key: &str, line: usize) -> Result<&'a str, SchemaError> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| fail(line, format!("missing string field `{key}`")))
}

fn require_num(obj: &Json, key: &str, line: usize) -> Result<f64, SchemaError> {
    obj.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| fail(line, format!("missing numeric field `{key}`")))
}

/// Validates a JSON-lines trace produced by
/// [`crate::RunReport::render_jsonl`]: header first (right schema name
/// and version), every line a parseable object of a known kind, spans
/// referencing only earlier span ids, exactly one metrics line, last.
///
/// # Errors
///
/// Returns the first [`SchemaError`] encountered.
pub fn validate_jsonl(text: &str) -> Result<JsonlSummary, SchemaError> {
    let mut summary = JsonlSummary::default();
    let mut saw_header = false;
    let mut saw_metrics = false;
    let mut span_count = 0usize;

    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        if saw_metrics {
            return Err(fail(lineno, "content after the metrics line"));
        }
        let obj = json::parse(line).map_err(|e| fail(lineno, e.to_string()))?;
        if obj.as_obj().is_none() {
            return Err(fail(lineno, "line is not a JSON object"));
        }
        let kind = require_str(&obj, "kind", lineno)?.to_owned();
        if !saw_header {
            if kind != "header" {
                return Err(fail(lineno, "first line must be the header"));
            }
            let schema = require_str(&obj, "schema", lineno)?;
            if schema != SCHEMA_NAME {
                return Err(fail(lineno, format!("unknown schema `{schema}`")));
            }
            let version = require_num(&obj, "version", lineno)?;
            if version != f64::from(SCHEMA_VERSION) {
                return Err(fail(
                    lineno,
                    format!("unsupported schema version {version} (expected {SCHEMA_VERSION})"),
                ));
            }
            // v2: the header must state whether the ring wrapped, and
            // how many records were lost — truncation is never silent.
            let wrapped = obj
                .get("wrapped")
                .and_then(Json::as_bool)
                .ok_or_else(|| fail(lineno, "header needs a boolean `wrapped`"))?;
            let dropped = require_num(&obj, "events_dropped", lineno)?;
            if wrapped != (dropped > 0.0) {
                return Err(fail(
                    lineno,
                    "header `wrapped` must agree with `events_dropped`",
                ));
            }
            saw_header = true;
            continue;
        }
        match kind.as_str() {
            "header" => return Err(fail(lineno, "duplicate header")),
            "span" => {
                let id = require_num(&obj, "id", lineno)?;
                if id != span_count as f64 {
                    return Err(fail(lineno, format!("span id {id} out of order")));
                }
                require_str(&obj, "name", lineno)?;
                require_num(&obj, "start_ns", lineno)?;
                match obj.get("parent") {
                    Some(Json::Null) | Some(Json::Num(_)) => {}
                    _ => return Err(fail(lineno, "span `parent` must be null or a number")),
                }
                if let Some(Json::Num(p)) = obj.get("parent") {
                    if *p >= id {
                        return Err(fail(lineno, "span parent must precede the span"));
                    }
                }
                match obj.get("end_ns") {
                    Some(Json::Null) | Some(Json::Num(_)) => {}
                    _ => return Err(fail(lineno, "span `end_ns` must be null or a number")),
                }
                span_count += 1;
                summary.spans += 1;
            }
            "event" => {
                require_num(&obj, "t_ns", lineno)?;
                require_str(&obj, "event", lineno)?;
                match obj.get("span") {
                    Some(Json::Null) => {}
                    Some(Json::Num(s)) if (*s as usize) < span_count => {}
                    _ => return Err(fail(lineno, "event `span` must be null or a prior span id")),
                }
                summary.events += 1;
            }
            "metrics" => {
                let counters = obj
                    .get("counters")
                    .and_then(Json::as_obj)
                    .ok_or_else(|| fail(lineno, "metrics line needs a `counters` object"))?;
                let gauges = obj
                    .get("gauges")
                    .and_then(Json::as_obj)
                    .ok_or_else(|| fail(lineno, "metrics line needs a `gauges` object"))?;
                let histograms = obj
                    .get("histograms")
                    .and_then(Json::as_obj)
                    .ok_or_else(|| fail(lineno, "metrics line needs a `histograms` object"))?;
                for (name, hist) in histograms {
                    for field in ["count", "sum", "min", "max"] {
                        if hist.get(field).and_then(Json::as_num).is_none() {
                            return Err(fail(
                                lineno,
                                format!("histogram {name:?} missing numeric `{field}`"),
                            ));
                        }
                    }
                    let buckets = hist.get("buckets").and_then(Json::as_arr).ok_or_else(|| {
                        fail(
                            lineno,
                            format!("histogram {name:?} missing `buckets` array"),
                        )
                    })?;
                    for pair in buckets {
                        let ok = pair.as_arr().is_some_and(|p| {
                            p.len() == 2 && p.iter().all(|v| v.as_num().is_some())
                        });
                        if !ok {
                            return Err(fail(
                                lineno,
                                format!("histogram {name:?} bucket must be a [index, count] pair"),
                            ));
                        }
                    }
                }
                summary.counters = counters.len();
                summary.gauges = gauges.len();
                summary.histograms = histograms.len();
                saw_metrics = true;
            }
            other => return Err(fail(lineno, format!("unknown line kind `{other}`"))),
        }
    }
    if !saw_header {
        return Err(fail(0, "empty trace (no header line)"));
    }
    if !saw_metrics {
        return Err(fail(0, "trace has no metrics line"));
    }
    Ok(summary)
}

/// Validates a Chrome trace-event export from
/// [`crate::RunReport::render_chrome`]: a JSON array whose entries all
/// carry `name`/`ph`, with timestamps on every non-metadata phase.
///
/// # Errors
///
/// Returns the first [`SchemaError`] encountered.
pub fn validate_chrome(text: &str) -> Result<ChromeSummary, SchemaError> {
    let doc = json::parse(text).map_err(|e| fail(0, e.to_string()))?;
    let entries = doc
        .as_arr()
        .ok_or_else(|| fail(0, "chrome trace must be a JSON array"))?;
    let mut summary = ChromeSummary::default();
    for (idx, entry) in entries.iter().enumerate() {
        let lineno = idx + 1;
        if entry.as_obj().is_none() {
            return Err(fail(lineno, "entry is not a JSON object"));
        }
        require_str(entry, "name", lineno)?;
        let ph = require_str(entry, "ph", lineno)?;
        match ph {
            "M" => {}
            "X" => {
                require_num(entry, "ts", lineno)?;
                require_num(entry, "dur", lineno)?;
                summary.spans += 1;
            }
            "i" => {
                require_num(entry, "ts", lineno)?;
                summary.instants += 1;
            }
            "C" => {
                require_num(entry, "ts", lineno)?;
                entry
                    .get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Json::as_num)
                    .ok_or_else(|| fail(lineno, "counter entry needs args.value"))?;
                summary.counters += 1;
            }
            other => return Err(fail(lineno, format!("unknown phase `{other}`"))),
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::intern::sym;
    use crate::recorder::Telemetry;
    use std::rc::Rc;

    fn recorded() -> crate::RunReport {
        let clock = Rc::new(ManualClock::new());
        let tel = Telemetry::with_clock(clock.clone());
        {
            let _root = tel.span(|| "root".into());
            clock.advance_ns(10);
            tel.event_with(sym("ping"), &[(sym("n"), sym("1"))]);
            let _child = tel.span(|| "child".into());
            clock.advance_ns(5);
        }
        tel.incr("c");
        tel.gauge("g", 0.5);
        tel.report()
    }

    const HEADER: &str = "{\"kind\":\"header\",\"schema\":\"oasys-telemetry\",\"version\":2,\
                          \"wrapped\":false,\"events_dropped\":0}";
    const METRICS: &str = "{\"kind\":\"metrics\",\"counters\":{},\"gauges\":{},\"histograms\":{}}";

    #[test]
    fn valid_jsonl_passes_with_counts() {
        let summary = validate_jsonl(&recorded().render_jsonl()).unwrap();
        assert_eq!(
            summary,
            JsonlSummary {
                spans: 2,
                events: 1,
                counters: 1,
                gauges: 1,
                // Span durations feed per-span-name histograms.
                histograms: 2,
            }
        );
    }

    #[test]
    fn jsonl_rejects_missing_header_bad_version_and_garbage() {
        assert!(validate_jsonl("").is_err());
        assert!(validate_jsonl("{\"kind\":\"span\"}").is_err());
        let bad_version = format!(
            "{}\n{METRICS}",
            HEADER.replace("\"version\":2", "\"version\":99")
        );
        let err = validate_jsonl(&bad_version).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        let garbage = format!("{HEADER}\nnot json");
        assert!(validate_jsonl(&garbage).is_err());
    }

    #[test]
    fn jsonl_rejects_headers_that_hide_truncation() {
        // v1-shaped headers (no wrap state) are rejected outright...
        let v1 = "{\"kind\":\"header\",\"schema\":\"oasys-telemetry\",\"version\":2}";
        let err = validate_jsonl(&format!("{v1}\n{METRICS}")).unwrap_err();
        assert!(err.to_string().contains("wrapped"), "{err}");
        // ...and so is a header whose flags contradict each other.
        let lying = HEADER.replace("\"events_dropped\":0", "\"events_dropped\":7");
        let err = validate_jsonl(&format!("{lying}\n{METRICS}")).unwrap_err();
        assert!(err.to_string().contains("agree"), "{err}");
        let wrapped_ok = HEADER
            .replace("\"wrapped\":false", "\"wrapped\":true")
            .replace("\"events_dropped\":0", "\"events_dropped\":7");
        assert!(validate_jsonl(&format!("{wrapped_ok}\n{METRICS}")).is_ok());
    }

    #[test]
    fn jsonl_rejects_malformed_histograms() {
        let no_hists = "{\"kind\":\"metrics\",\"counters\":{},\"gauges\":{}}";
        let err = validate_jsonl(&format!("{HEADER}\n{no_hists}")).unwrap_err();
        assert!(err.to_string().contains("histograms"), "{err}");
        let bad_hist = "{\"kind\":\"metrics\",\"counters\":{},\"gauges\":{},\
                        \"histograms\":{\"h\":{\"count\":1}}}";
        assert!(validate_jsonl(&format!("{HEADER}\n{bad_hist}")).is_err());
        let bad_bucket = "{\"kind\":\"metrics\",\"counters\":{},\"gauges\":{},\
                          \"histograms\":{\"h\":{\"count\":1,\"sum\":2,\"min\":2,\"max\":2,\
                          \"buckets\":[[2]]}}}";
        assert!(validate_jsonl(&format!("{HEADER}\n{bad_bucket}")).is_err());
        let good = "{\"kind\":\"metrics\",\"counters\":{},\"gauges\":{},\
                    \"histograms\":{\"h\":{\"count\":1,\"sum\":2,\"min\":2,\"max\":2,\
                    \"buckets\":[[2,1]]}}}";
        let summary = validate_jsonl(&format!("{HEADER}\n{good}")).unwrap();
        assert_eq!(summary.histograms, 1);
    }

    #[test]
    fn jsonl_rejects_missing_metrics_and_trailing_content() {
        assert_eq!(validate_jsonl(HEADER).unwrap_err().line, 0);
        let trailing = format!(
            "{HEADER}\n{METRICS}\n\
             {{\"kind\":\"event\",\"t_ns\":0,\"span\":null,\"event\":\"x\",\"fields\":{{}}}}"
        );
        assert!(validate_jsonl(&trailing)
            .unwrap_err()
            .to_string()
            .contains("after the metrics line"));
    }

    #[test]
    fn jsonl_rejects_dangling_references() {
        let dangling_parent = format!(
            "{HEADER}\n\
             {{\"kind\":\"span\",\"id\":0,\"parent\":5,\"name\":\"x\",\"start_ns\":0,\"end_ns\":1,\"attrs\":{{}}}}\n\
             {METRICS}"
        );
        assert!(validate_jsonl(&dangling_parent).is_err());
        let dangling_event = format!(
            "{HEADER}\n\
             {{\"kind\":\"event\",\"t_ns\":0,\"span\":3,\"event\":\"x\",\"fields\":{{}}}}\n\
             {METRICS}"
        );
        assert!(validate_jsonl(&dangling_event).is_err());
    }

    #[test]
    fn valid_chrome_passes_with_counts() {
        let summary = validate_chrome(&recorded().render_chrome()).unwrap();
        assert_eq!(
            summary,
            ChromeSummary {
                spans: 2,
                instants: 1,
                counters: 1
            }
        );
    }

    #[test]
    fn chrome_rejects_non_arrays_and_unknown_phases() {
        assert!(validate_chrome("{}").is_err());
        assert!(validate_chrome("[{\"name\":\"x\",\"ph\":\"Z\"}]").is_err());
        assert!(
            validate_chrome("[{\"name\":\"x\",\"ph\":\"X\"}]").is_err(),
            "X needs ts/dur"
        );
    }
}
