//! Telemetry for the OASYS synthesis pipeline: hierarchical spans, a
//! typed counter/gauge metrics registry, a structured event sink, and
//! exportable run reports.
//!
//! OASYS's contribution is a *process* — breadth-first style selection,
//! plan execution, rule-based patching with restarts (the paper's
//! Figure 3) — so the pipeline records what it did, where the time went,
//! and how often each mechanism fired:
//!
//! * [`Telemetry`] is the recording handle threaded through
//!   `synthesize()`, the plan executor, `verify()`, and the simulator.
//!   A [`Telemetry::disabled`] handle costs one branch per call site and
//!   never runs a name/field closure, so uninstrumented runs stay fast.
//! * An *enabled* handle is near-free too: names intern once to `u32`
//!   [`Sym`]bols ([`intern`]) and every span open/close, event, and
//!   annotation is one fixed-size binary record appended to a
//!   preallocated ring — rendering is deferred to export time. The same
//!   ring doubles as the crash *flight recorder* ([`Telemetry::flight`],
//!   [`Telemetry::tail_lines`]): a failing batch job dumps its last
//!   records into the failure report. A flight handle keeps no metrics
//!   and keeps per-job text ([`Telemetry::text`]) beside its ring, so
//!   untraced jobs never grow the process-wide table.
//! * Spans are monotonic-[`std::time::Instant`]-backed by default; tests
//!   inject a [`ManualClock`] for deterministic durations. Span
//!   durations also feed per-span-name log-bucketed latency histograms
//!   in the [`MetricsRegistry`].
//! * [`RunReport`] snapshots a recording and exports it three ways: an
//!   annotated span tree ([`RunReport::render_explain`], the CLI's
//!   `--explain`), JSON-lines events + metrics
//!   ([`RunReport::render_jsonl`], `--trace-out`), and Chrome
//!   trace-event JSON ([`RunReport::render_chrome`],
//!   `--trace-format chrome`) loadable in Perfetto.
//! * [`schema`] validates the exports — the CI smoke gate runs the real
//!   CLI and checks the emitted file line by line.
//!
//! # Examples
//!
//! ```
//! use oasys_telemetry::{ManualClock, Telemetry};
//! use std::rc::Rc;
//!
//! let clock = Rc::new(ManualClock::new());
//! let tel = Telemetry::with_clock(clock.clone());
//! {
//!     let span = tel.span(|| "style:two-stage".into());
//!     clock.advance_ns(1_500);
//!     tel.incr("plan.rule_firings");
//!     span.annotate("outcome", || "feasible".into());
//! }
//! let report = tel.report();
//! assert_eq!(report.spans()[0].duration_ns(), 1_500);
//! assert_eq!(report.metrics().counter("plan.rule_firings"), 1);
//! oasys_telemetry::schema::validate_jsonl(&report.render_jsonl()).unwrap();
//! ```

#![warn(missing_docs)]

mod clock;
pub mod intern;
pub mod json;
mod metrics;
mod recorder;
mod report;
mod ring;
pub mod schema;

pub use clock::{Clock, FrozenClock, ManualClock, MonotonicClock};
pub use intern::{sym, sym2, sym_u64, Sym};
pub use metrics::{HistogramSnapshot, MetricsRegistry};
pub use recorder::{SpanGuard, SpanId, Telemetry, TelemetrySeed};
pub use report::{EventData, RunReport, SpanData, SCHEMA_NAME, SCHEMA_VERSION};
pub use ring::{Recording, DEFAULT_RING_CAPACITY, FLIGHT_RING_CAPACITY};
