//! Exportable run reports: a snapshot of one recording plus the three
//! exporters — the annotated span tree (`--explain`, the paper's Fig. 3
//! view), JSON-lines events + metrics (`--trace-out`), and Chrome
//! trace-event JSON loadable in Perfetto / `chrome://tracing`
//! (`--trace-format chrome`).

use crate::json;
use crate::metrics::MetricsRegistry;
use std::fmt::Write as _;

/// JSON-lines schema version; bump when a line shape changes.
/// v2: header carries `wrapped`/`events_dropped`, metrics line carries
/// `histograms`.
pub const SCHEMA_VERSION: u32 = 2;
/// JSON-lines schema name, carried in the header line.
pub const SCHEMA_NAME: &str = "oasys-telemetry";

/// One recorded span, snapshot form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanData {
    /// Span name, e.g. `style:two-stage` or `step:gain-budget`.
    pub name: String,
    /// Parent span index, if nested.
    pub parent: Option<usize>,
    /// Start, ns since the run epoch.
    pub start_ns: u64,
    /// End, ns; `None` when the span was still open at snapshot time.
    pub end_ns: Option<u64>,
    /// Key/value annotations in insertion order.
    pub attrs: Vec<(String, String)>,
}

impl SpanData {
    /// Duration, ns (0 for still-open spans).
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns
            .map_or(0, |end| end.saturating_sub(self.start_ns))
    }
}

/// One recorded event, snapshot form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventData {
    /// Timestamp, ns since the run epoch.
    pub t_ns: u64,
    /// Enclosing span index, if any.
    pub span: Option<usize>,
    /// Event kind, e.g. `rule_fired`.
    pub kind: String,
    /// Key/value payload in insertion order.
    pub fields: Vec<(String, String)>,
    /// Spans opened before this event was recorded: its place in the
    /// recording among the spans, which the explain tree follows.
    pub(crate) spans_before: usize,
}

/// Snapshot of one telemetry recording.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    spans: Vec<SpanData>,
    events: Vec<EventData>,
    metrics: MetricsRegistry,
    events_dropped: u64,
}

impl RunReport {
    pub(crate) fn new(
        spans: Vec<SpanData>,
        events: Vec<EventData>,
        metrics: MetricsRegistry,
        events_dropped: u64,
    ) -> Self {
        Self {
            spans,
            events,
            metrics,
            events_dropped,
        }
    }

    pub(crate) fn empty() -> Self {
        Self::default()
    }

    /// All spans in creation order (a child always follows its parent).
    #[must_use]
    pub fn spans(&self) -> &[SpanData] {
        &self.spans
    }

    /// All events in record order.
    #[must_use]
    pub fn events(&self) -> &[EventData] {
        &self.events
    }

    /// The metrics snapshot.
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Records lost to ring-buffer wrap-around before this snapshot.
    /// The oldest spans/events are missing when this is non-zero; the
    /// exporters say so explicitly instead of silently truncating.
    #[must_use]
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    /// `true` when the recording ring wrapped (some records were lost).
    #[must_use]
    pub fn wrapped(&self) -> bool {
        self.events_dropped > 0
    }

    /// Aggregates spans by name: `(name, count, total_ns)` sorted by
    /// name — the per-phase summary the bench harness persists.
    #[must_use]
    pub fn span_rollup(&self) -> Vec<(String, usize, u64)> {
        let mut rollup: std::collections::BTreeMap<&str, (usize, u64)> =
            std::collections::BTreeMap::new();
        for span in &self.spans {
            let entry = rollup.entry(&span.name).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += span.duration_ns();
        }
        rollup
            .into_iter()
            .map(|(name, (count, total))| (name.to_owned(), count, total))
            .collect()
    }

    /// The annotated span tree — the human-readable "explain" view of a
    /// synthesis run: every span with its duration and attributes, events
    /// beneath the span they occurred in, interleaved with its child
    /// spans in recording order.
    #[must_use]
    pub fn render_explain(&self) -> String {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        let mut roots = Vec::new();
        for (idx, span) in self.spans.iter().enumerate() {
            match span.parent {
                Some(p) => children[p].push(idx),
                None => roots.push(idx),
            }
        }
        let mut span_events: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        let mut orphan_events = Vec::new();
        for (idx, event) in self.events.iter().enumerate() {
            match event.span {
                Some(s) if s < self.spans.len() => span_events[s].push(idx),
                _ => orphan_events.push(idx),
            }
        }

        let mut out = String::new();
        for &root in &roots {
            self.render_span(&mut out, root, "", "", &children, &span_events);
        }
        for &idx in &orphan_events {
            let _ = writeln!(out, "{}", self.event_line(&self.events[idx]));
        }
        out
    }

    fn render_span(
        &self,
        out: &mut String,
        idx: usize,
        line_prefix: &str,
        child_base: &str,
        children: &[Vec<usize>],
        span_events: &[Vec<usize>],
    ) {
        let span = &self.spans[idx];
        let duration = match span.end_ns {
            Some(_) => fmt_ns(span.duration_ns()),
            None => "open".to_owned(),
        };
        let attrs = if span.attrs.is_empty() {
            String::new()
        } else {
            let joined: Vec<String> = span.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("  [{}]", joined.join(", "))
        };
        let _ = writeln!(out, "{line_prefix}{} ({duration}){attrs}", span.name);

        // Interleave events and child spans in recording order: an event
        // recorded after `n` spans opened follows child span `n - 1` and
        // precedes child span `n`. Timestamps cannot order them, since
        // records often share a clock reading. At one position an event
        // sorts before the span, by variant order.
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        enum Item {
            Event(usize),
            Span(usize),
        }
        let mut items: Vec<(usize, Item)> = span_events[idx]
            .iter()
            .map(|&e| (self.events[e].spans_before, Item::Event(e)))
            .chain(children[idx].iter().map(|&c| (c, Item::Span(c))))
            .collect();
        items.sort_unstable();

        let count = items.len();
        for (k, (_, item)) in items.into_iter().enumerate() {
            let last = k + 1 == count;
            match item {
                Item::Event(e) => {
                    let connector = if last { "└· " } else { "├· " };
                    let _ = writeln!(
                        out,
                        "{child_base}{connector}{}",
                        self.event_line(&self.events[e])
                    );
                }
                Item::Span(c) => {
                    let connector = if last { "└─ " } else { "├─ " };
                    let descend = if last { "   " } else { "│  " };
                    self.render_span(
                        out,
                        c,
                        &format!("{child_base}{connector}"),
                        &format!("{child_base}{descend}"),
                        children,
                        span_events,
                    );
                }
            }
        }
    }

    fn event_line(&self, event: &EventData) -> String {
        let fields = if event.fields.is_empty() {
            String::new()
        } else {
            let joined: Vec<String> = event
                .fields
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            format!(" {}", joined.join(" "))
        };
        format!("@{} {}{}", fmt_ns(event.t_ns), event.kind, fields)
    }

    /// JSON-lines export: a header line (schema + version), one line per
    /// span, one per event, and a final metrics line. Each line is a
    /// self-contained JSON object with a `kind` discriminator; see
    /// [`crate::schema::validate_jsonl`] for the checked contract.
    #[must_use]
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"kind\":\"header\",\"schema\":{},\"version\":{},\
             \"wrapped\":{},\"events_dropped\":{}}}",
            json::string(SCHEMA_NAME),
            SCHEMA_VERSION,
            self.wrapped(),
            self.events_dropped,
        );
        for (idx, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let end = span.end_ns.map_or("null".to_owned(), |e| e.to_string());
            let _ = writeln!(
                out,
                "{{\"kind\":\"span\",\"id\":{idx},\"parent\":{parent},\"name\":{},\
                 \"start_ns\":{},\"end_ns\":{end},\"attrs\":{}}}",
                json::string(&span.name),
                span.start_ns,
                pairs_object(&span.attrs),
            );
        }
        for event in &self.events {
            let span = event.span.map_or("null".to_owned(), |s| s.to_string());
            let _ = writeln!(
                out,
                "{{\"kind\":\"event\",\"t_ns\":{},\"span\":{span},\"event\":{},\"fields\":{}}}",
                event.t_ns,
                json::string(&event.kind),
                pairs_object(&event.fields),
            );
        }
        let counters: Vec<String> = self
            .metrics
            .counters()
            .map(|(k, v)| format!("{}:{v}", json::string(k)))
            .collect();
        let gauges: Vec<String> = self
            .metrics
            .gauges()
            .map(|(k, v)| format!("{}:{}", json::string(k), json::number(v)))
            .collect();
        let _ = writeln!(
            out,
            "{{\"kind\":\"metrics\",\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{}}}",
            counters.join(","),
            gauges.join(","),
            histograms_object(&self.metrics),
        );
        out
    }

    /// The metrics snapshot as one standalone JSON object — counters,
    /// gauges, and histograms. This is what `--metrics-out` writes.
    #[must_use]
    pub fn render_metrics_json(&self) -> String {
        let counters: Vec<String> = self
            .metrics
            .counters()
            .map(|(k, v)| format!("{}:{v}", json::string(k)))
            .collect();
        let gauges: Vec<String> = self
            .metrics
            .gauges()
            .map(|(k, v)| format!("{}:{}", json::string(k), json::number(v)))
            .collect();
        format!(
            "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{}}}\n",
            counters.join(","),
            gauges.join(","),
            histograms_object(&self.metrics),
        )
    }

    /// The latency-histogram section of the human-readable explain
    /// view: one line per histogram with exact count/min/max/sum and
    /// the non-empty power-of-two buckets.
    #[must_use]
    pub fn render_histograms(&self) -> String {
        let mut out = String::new();
        for (name, hist) in self.metrics.histograms() {
            let buckets: Vec<String> = hist
                .buckets()
                .iter()
                .map(|(b, c)| format!("{b}:{c}"))
                .collect();
            let _ = writeln!(
                out,
                "{name}  count={} min={} max={} sum={}  buckets=[{}]",
                hist.count(),
                hist.min(),
                hist.max(),
                hist.sum(),
                buckets.join(", "),
            );
        }
        out
    }

    /// Chrome trace-event export (the JSON array form): complete (`X`)
    /// events for spans, instant (`i`) events for telemetry events, and
    /// final counter (`C`) samples. Timestamps are microseconds, as the
    /// format requires. Load the file in Perfetto or `chrome://tracing`.
    #[must_use]
    pub fn render_chrome(&self) -> String {
        let mut entries = Vec::new();
        entries.push(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
             \"args\":{\"name\":\"oasys\"}}"
                .to_owned(),
        );
        let mut last_ns = 0u64;
        for span in &self.spans {
            let end = span.end_ns.unwrap_or(span.start_ns);
            last_ns = last_ns.max(end);
            entries.push(format!(
                "{{\"name\":{},\"cat\":\"oasys\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":1,\"args\":{}}}",
                json::string(&span.name),
                us(span.start_ns),
                us(end.saturating_sub(span.start_ns)),
                pairs_object(&span.attrs),
            ));
        }
        for event in &self.events {
            last_ns = last_ns.max(event.t_ns);
            entries.push(format!(
                "{{\"name\":{},\"cat\":\"oasys\",\"ph\":\"i\",\"ts\":{},\"s\":\"t\",\
                 \"pid\":1,\"tid\":1,\"args\":{}}}",
                json::string(&event.kind),
                us(event.t_ns),
                pairs_object(&event.fields),
            ));
        }
        for (name, value) in self.metrics.counters() {
            entries.push(format!(
                "{{\"name\":{},\"cat\":\"oasys\",\"ph\":\"C\",\"ts\":{},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"value\":{value}}}}}",
                json::string(name),
                us(last_ns),
            ));
        }
        format!("[\n{}\n]\n", entries.join(",\n"))
    }
}

/// All histograms of a registry as a JSON object: name → exact
/// count/sum/min/max plus sparse `[bucket, count]` pairs.
fn histograms_object(metrics: &MetricsRegistry) -> String {
    let entries: Vec<String> = metrics
        .histograms()
        .map(|(name, hist)| {
            let buckets: Vec<String> = hist
                .buckets()
                .iter()
                .map(|(b, c)| format!("[{b},{c}]"))
                .collect();
            format!(
                "{}:{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[{}]}}",
                json::string(name),
                hist.count(),
                hist.sum(),
                hist.min(),
                hist.max(),
                buckets.join(","),
            )
        })
        .collect();
    format!("{{{}}}", entries.join(","))
}

/// Key/value pairs as a JSON object (insertion order preserved).
fn pairs_object(pairs: &[(String, String)]) -> String {
    let fields: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}:{}", json::string(k), json::string(v)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Nanoseconds → microseconds for the Chrome format (fractional µs kept).
fn us(ns: u64) -> String {
    if ns.is_multiple_of(1000) {
        (ns / 1000).to_string()
    } else {
        json::number(ns as f64 / 1000.0)
    }
}

/// Human-scaled duration.
fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::intern::sym;
    use crate::recorder::Telemetry;
    use std::rc::Rc;

    fn sample_report() -> RunReport {
        let clock = Rc::new(ManualClock::new());
        let tel = Telemetry::with_clock(clock.clone());
        {
            let root = tel.span(|| "synthesize".into());
            root.annotate("selected", || "two-stage".into());
            clock.advance_ns(1_000);
            {
                let style = tel.span(|| "style:two-stage".into());
                style.annotate("outcome", || "feasible".into());
                clock.advance_ns(2_500);
                tel.event_with(sym("rule_fired"), &[(sym("rule"), sym("cascode \"load\""))]);
                clock.advance_ns(500);
            }
            clock.advance_ns(100);
        }
        tel.incr("plan.rule_firings");
        tel.gauge("synth.feasible_styles", 1.0);
        tel.report()
    }

    #[test]
    fn explain_tree_shows_hierarchy_durations_and_events() {
        let text = sample_report().render_explain();
        assert!(text.contains("synthesize (4.10 µs)"), "{text}");
        assert!(text.contains("selected=two-stage"), "{text}");
        assert!(text.contains("└─ style:two-stage (3.00 µs)"), "{text}");
        assert!(text.contains("rule_fired"), "{text}");
    }

    #[test]
    fn explain_tree_keeps_recording_order_within_one_instant() {
        let clock = Rc::new(ManualClock::new());
        let tel = Telemetry::with_clock(clock.clone());
        {
            let _root = tel.span(|| "root".into());
            clock.advance_ns(1_000);
            tel.event_with(sym("first"), &[]);
            drop(tel.span(|| "child".into()));
            tel.event_with(sym("second"), &[]);
        }
        let text = tel.report().render_explain();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                "root (1.00 µs)",
                "├· @1.00 µs first",
                "├─ child (0 ns)",
                "└· @1.00 µs second",
            ],
            "{text}"
        );
    }

    #[test]
    fn jsonl_export_is_line_parseable_with_header_and_metrics() {
        let text = sample_report().render_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2 + 1 + 1 + 1, "header+2 spans+1 event+metrics");
        for line in &lines {
            crate::json::parse(line).unwrap();
        }
        let header = crate::json::parse(lines[0]).unwrap();
        assert_eq!(header.get("schema").unwrap().as_str(), Some(SCHEMA_NAME));
        assert_eq!(
            header.get("version").unwrap().as_num(),
            Some(f64::from(SCHEMA_VERSION))
        );
        let last = crate::json::parse(lines.last().unwrap()).unwrap();
        assert_eq!(last.get("kind").unwrap().as_str(), Some("metrics"));
        assert_eq!(
            last.get("counters")
                .unwrap()
                .get("plan.rule_firings")
                .unwrap()
                .as_num(),
            Some(1.0)
        );
    }

    #[test]
    fn jsonl_header_and_metrics_carry_drop_state_and_histograms() {
        let text = sample_report().render_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        let header = crate::json::parse(lines[0]).unwrap();
        assert_eq!(header.get("wrapped").unwrap().as_bool(), Some(false));
        assert_eq!(header.get("events_dropped").unwrap().as_num(), Some(0.0));
        let metrics = crate::json::parse(lines.last().unwrap()).unwrap();
        let hists = metrics.get("histograms").expect("histograms object");
        // Span durations feed per-span-name histograms automatically.
        let style = hists.get("span:style:two-stage").expect("style hist");
        assert_eq!(style.get("count").unwrap().as_num(), Some(1.0));
        assert_eq!(style.get("sum").unwrap().as_num(), Some(3000.0));
        assert_eq!(style.get("min").unwrap().as_num(), Some(3000.0));
        assert_eq!(style.get("max").unwrap().as_num(), Some(3000.0));
        // 3000 ns lands in [2048, 4096) = bucket 12.
        let buckets = style.get("buckets").unwrap().as_arr().unwrap();
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].as_arr().unwrap()[0].as_num(), Some(12.0));
        assert_eq!(buckets[0].as_arr().unwrap()[1].as_num(), Some(1.0));
    }

    #[test]
    fn metrics_json_and_histogram_text_render_standalone() {
        let report = sample_report();
        let metrics = crate::json::parse(&report.render_metrics_json()).unwrap();
        assert_eq!(
            metrics
                .get("counters")
                .unwrap()
                .get("plan.rule_firings")
                .unwrap()
                .as_num(),
            Some(1.0)
        );
        assert!(metrics.get("histograms").unwrap().as_obj().is_some());
        let text = report.render_histograms();
        assert!(text.contains("span:synthesize"), "{text}");
        assert!(text.contains("count=1"), "{text}");
        assert!(text.contains("buckets=[12:1]"), "{text}");
    }

    #[test]
    fn chrome_export_parses_and_carries_spans_events_counters() {
        let text = sample_report().render_chrome();
        let doc = crate::json::parse(&text).unwrap();
        let entries = doc.as_arr().unwrap();
        let phase = |ph: &str| {
            entries
                .iter()
                .filter(|e| e.get("ph").and_then(crate::json::Json::as_str) == Some(ph))
                .count()
        };
        assert_eq!(phase("X"), 2, "{text}");
        assert_eq!(phase("i"), 1);
        assert_eq!(phase("C"), 1);
        // Span timestamps are µs: the style span starts at 1 µs, runs 3 µs.
        let style = entries
            .iter()
            .find(|e| e.get("name").and_then(crate::json::Json::as_str) == Some("style:two-stage"))
            .unwrap();
        assert_eq!(style.get("ts").unwrap().as_num(), Some(1.0));
        assert_eq!(style.get("dur").unwrap().as_num(), Some(3.0));
    }

    #[test]
    fn rollup_aggregates_by_span_name() {
        let rollup = sample_report().span_rollup();
        assert_eq!(rollup.len(), 2);
        let (name, count, total) = &rollup[0];
        assert_eq!(name, "style:two-stage");
        assert_eq!(*count, 1);
        assert_eq!(*total, 3_000);
    }

    #[test]
    fn empty_report_renders_everywhere() {
        let report = Telemetry::disabled().report();
        assert_eq!(report.render_explain(), "");
        let jsonl = report.render_jsonl();
        assert_eq!(jsonl.lines().count(), 2, "header + metrics");
        crate::json::parse(&report.render_chrome()).unwrap();
        assert!(report.span_rollup().is_empty());
    }
}
