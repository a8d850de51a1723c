//! The telemetry recorder: hierarchical spans, structured events, and
//! the metrics registry behind one cheap handle.
//!
//! A [`Telemetry`] handle is either *enabled* (owns a preallocated ring
//! of fixed-size binary records and a [`Clock`]) or *disabled* (a
//! `None` inside — every operation is a single branch and no closure is
//! ever invoked, so the instrumented pipeline pays effectively nothing
//! when nobody asked for a trace).
//!
//! When enabled, the hot path stays near-free too: names are interned
//! to [`Sym`] once (see [`crate::intern`]) and every span open/close,
//! event, and annotation appends one 24-byte [`Record`] to the ring —
//! no strings, no per-record allocation. Hierarchy, JSON, and
//! Chrome-trace rendering are reconstructed at export time by replaying
//! the ring ([`Telemetry::report`]).
//!
//! A *flight* handle ([`Telemetry::flight`]) records the same records
//! into a small ring but keeps no metric cells, and it stores text that
//! differs job by job ([`Telemetry::text`]) beside its ring instead of
//! interning it, so an untraced job costs the same whatever ran before
//! it.
//!
//! The pipeline is single-threaded, so the recorder uses `RefCell`
//! interior mutability and is shared as `&Telemetry`. Parallel stages
//! use the fork/absorb protocol: [`Telemetry::fork_seed`] hands each
//! worker a `Send` seed, the worker records into its own handle, and
//! the parent splices the raw rings back **in declaration order** via
//! [`Telemetry::into_recording`] + [`Telemetry::absorb`] — which
//! re-bases span sequence numbers so the merged ring is byte-identical
//! to a sequential recording of the same work.

use crate::clock::{Clock, MonotonicClock};
use crate::intern::{resolve, sym, sym_display, Sym};
use crate::metrics::{Hist, MetricsRegistry};
use crate::report::{EventData, RunReport, SpanData};
use crate::ring::{
    tail_lines, Record, RecordRing, Recording, Tag, Text, Texts, DEFAULT_RING_CAPACITY,
    FLIGHT_RING_CAPACITY, LOCAL,
};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// Index of a span within one recording (equal to its open order; the
/// index of the span in [`RunReport::spans`] unless the ring wrapped).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpanId(pub(crate) usize);

impl SpanId {
    /// The raw index (stable within one report).
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// The recorder's clock, devirtualized for the production case: a
/// [`MonotonicClock`] held inline compiles its `now_ns` down to the raw
/// TSC read with no trait-object dispatch — measurable across the
/// hundreds of reads in a traced synthesis. Injected clocks (tests'
/// [`crate::ManualClock`], forked worker seeds) take the shared path.
enum ClockSource {
    Inline(MonotonicClock),
    Shared(Rc<dyn Clock>),
}

impl ClockSource {
    #[inline]
    fn now_ns(&self) -> u64 {
        match self {
            ClockSource::Inline(clock) => clock.now_ns(),
            ClockSource::Shared(clock) => clock.now_ns(),
        }
    }

    fn fork(&self) -> Box<dyn Clock + Send> {
        match self {
            ClockSource::Inline(clock) => clock.fork(),
            ClockSource::Shared(clock) => clock.fork(),
        }
    }
}

struct Inner {
    clock: ClockSource,
    ring: RecordRing,
    capacity: usize,
    /// Sequence number handed to the next span open. Sequence numbers —
    /// not ring positions — are what `SpanClose`/`Annotate` records
    /// target, so they survive splicing and wrap-around.
    next_seq: u32,
    /// A flight handle: no metric cells (its tail never shows them),
    /// and per-job text goes to `texts`, not the process-wide table.
    flight: bool,
    /// The flight handle's own texts (always empty otherwise).
    texts: Texts,
    /// Metric cells live outside the ring, indexed densely by symbol
    /// id, so a wrapped ring can never corrupt totals.
    counters: Vec<Option<u64>>,
    gauges: Vec<Option<f64>>,
    hists: Vec<Option<Box<Hist>>>,
    /// Per-span-name duration histograms, indexed by the span's *name*
    /// symbol (the `span:` export prefix is applied at export time).
    span_hists: Vec<Option<Box<Hist>>>,
}

fn cell_mut<T>(cells: &mut Vec<Option<T>>, id: u32) -> &mut Option<T> {
    let idx = id as usize;
    if cells.len() <= idx {
        cells.resize_with(idx + 1, || None);
    }
    &mut cells[idx]
}

/// The recyclable allocations behind one handle: the ring buffer, the
/// flight text store and the four metric-cell vectors. Short-lived
/// handles (one per bench iteration, one per batch attempt) dominate
/// recording cost with allocator traffic, not record writes — so
/// dropped handles park their emptied bodies in a small thread-local
/// pool and the next [`Telemetry::new`] picks one up warm.
#[derive(Default)]
struct Body {
    buf: Vec<Record>,
    texts: Texts,
    counters: Vec<Option<u64>>,
    gauges: Vec<Option<f64>>,
    hists: Vec<Option<Box<Hist>>>,
    span_hists: Vec<Option<Box<Hist>>>,
}

thread_local! {
    static POOL: RefCell<Vec<Body>> = const { RefCell::new(Vec::new()) };
}

/// Dropped handles keep at most this many bodies parked per thread.
const POOL_LIMIT: usize = 4;

fn pool_pop() -> Body {
    POOL.try_with(|pool| pool.borrow_mut().pop())
        .ok()
        .flatten()
        .unwrap_or_default()
}

/// Empties `inner`'s allocations and parks them for the next handle.
/// Cells are reset to `None` (not zeroed in place) so a recycled body
/// can never leak a previous handle's metrics into a new report.
fn pool_put(inner: Inner) {
    let mut body = Body {
        buf: inner.ring.into_buffer(),
        texts: inner.texts,
        counters: inner.counters,
        gauges: inner.gauges,
        hists: inner.hists,
        span_hists: inner.span_hists,
    };
    body.buf.clear();
    body.texts.clear();
    body.counters.iter_mut().for_each(|c| *c = None);
    body.gauges.iter_mut().for_each(|c| *c = None);
    // Histogram boxes are kept alive and reset in place — re-allocating
    // ~50 of them per handle is the pool's costliest miss. A reset
    // (zero-count) histogram is indistinguishable from an absent one at
    // export: the snapshot and recording paths skip empty cells.
    for h in body
        .hists
        .iter_mut()
        .chain(body.span_hists.iter_mut())
        .flatten()
    {
        h.reset();
    }
    // `try_with`: a handle dropped during thread teardown just frees.
    let _ = POOL.try_with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() < POOL_LIMIT {
            pool.push(body);
        }
    });
}

impl Inner {
    fn add_counter(&mut self, name: Sym, n: u64) {
        let cell = cell_mut(&mut self.counters, name.0);
        *cell = Some(cell.unwrap_or(0).saturating_add(n));
    }

    fn observe_hist(&mut self, name: Sym, value: u64) {
        cell_mut(&mut self.hists, name.0)
            .get_or_insert_with(Box::default)
            .observe(value);
    }

    fn observe_span_hist(&mut self, name: Sym, value: u64) {
        if self.flight {
            return;
        }
        cell_mut(&mut self.span_hists, name.0)
            .get_or_insert_with(Box::default)
            .observe(value);
    }

    /// Names `prefix` + `value` in a record: a flight handle keeps the
    /// text itself, any other handle interns it.
    fn text(&mut self, prefix: &str, value: &dyn fmt::Display) -> Sym {
        if self.flight {
            self.texts.push(prefix, value)
        } else {
            sym_display(prefix, value)
        }
    }

    /// [`Inner::text`] for text already rendered.
    fn text_str(&mut self, value: &str) -> Sym {
        if self.flight {
            self.texts.push(value, &"")
        } else {
            sym(value)
        }
    }

    /// A record operand as text.
    fn render(&self, operand: u32) -> String {
        Text {
            operand,
            texts: &self.texts,
        }
        .to_string()
    }

    fn metrics_snapshot(&self) -> MetricsRegistry {
        let mut metrics = MetricsRegistry::new();
        for (id, cell) in self.counters.iter().enumerate() {
            if let Some(n) = cell {
                metrics.add(&resolve(Sym(id as u32)), *n);
            }
        }
        for (id, cell) in self.gauges.iter().enumerate() {
            if let Some(v) = cell {
                metrics.set_gauge(&resolve(Sym(id as u32)), *v);
            }
        }
        // `count == 0` cells are recycled boxes from the handle pool —
        // semantically "never observed", so they do not export.
        for (id, cell) in self.hists.iter().enumerate() {
            if let Some(h) = cell.as_ref().filter(|h| h.count > 0) {
                metrics.merge_hist(&resolve(Sym(id as u32)), h);
            }
        }
        for (id, cell) in self.span_hists.iter().enumerate() {
            if let Some(h) = cell.as_ref().filter(|h| h.count > 0) {
                let name = format!("span:{}", resolve(Sym(id as u32)));
                metrics.merge_hist(&name, h);
            }
        }
        metrics
    }
}

/// The recording handle threaded through the synthesis pipeline.
pub struct Telemetry {
    inner: Option<RefCell<Inner>>,
}

impl Telemetry {
    /// A recording handle on the production monotonic clock (held
    /// inline, so every timestamp is a devirtualized TSC read).
    #[must_use]
    pub fn new() -> Self {
        Self::from_source(
            ClockSource::Inline(MonotonicClock::new()),
            DEFAULT_RING_CAPACITY,
            false,
        )
    }

    /// A recording handle on an injected clock (tests use
    /// [`crate::ManualClock`] for deterministic durations).
    #[must_use]
    pub fn with_clock(clock: Rc<dyn Clock>) -> Self {
        Self::with_clock_and_capacity(clock, DEFAULT_RING_CAPACITY)
    }

    /// A recording handle with an explicit ring capacity (records, not
    /// bytes). When the ring fills, the oldest records are overwritten
    /// and the exact drop count is carried into every export.
    #[must_use]
    pub fn with_clock_and_capacity(clock: Rc<dyn Clock>, capacity: usize) -> Self {
        Self::from_source(ClockSource::Shared(clock), capacity, false)
    }

    fn from_source(clock: ClockSource, capacity: usize, flight: bool) -> Self {
        let body = pool_pop();
        Self {
            inner: Some(RefCell::new(Inner {
                clock,
                ring: RecordRing::with_buffer(capacity, body.buf),
                capacity,
                next_seq: 0,
                flight,
                texts: body.texts,
                counters: body.counters,
                gauges: body.gauges,
                hists: body.hists,
                span_hists: body.span_hists,
            })),
        }
    }

    /// The always-on flight recorder: a tiny ring on the monotonic
    /// clock that holds the trace tail by construction. Batch workers
    /// run one of these even when nobody asked for a trace, so a
    /// failing job can dump its final records into the failure context
    /// ([`Telemetry::tail_lines`]).
    ///
    /// It costs the same for every job: it keeps no metric cells (the
    /// tail never shows them, and its report has no metrics), and the
    /// text of its span names, annotation values and event fields that
    /// is not a pre-interned [`Sym`] stays in the handle's own store
    /// and is dropped with it, never entering the process-wide table.
    #[must_use]
    pub fn flight() -> Self {
        Self::from_source(
            ClockSource::Inline(MonotonicClock::new()),
            FLIGHT_RING_CAPACITY,
            true,
        )
    }

    /// A no-op handle: every call is a single branch, name/field
    /// closures are never invoked, nothing allocates.
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// `true` when this handle records.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The recorder, when it keeps metric cells (not a flight handle).
    fn metered(&self) -> Option<&RefCell<Inner>> {
        self.inner.as_ref().filter(|cell| !cell.borrow().flight)
    }

    /// A symbol for `value`'s text as this handle records it: the way
    /// to name text that differs job by job (a job id, an area, a
    /// failure message) in [`SpanGuard::annotate_sym`] or
    /// [`Telemetry::event_with`]. A flight handle stores the text
    /// beside its ring, so the symbol means something only in this
    /// handle's records (and the [`Recording`] drained from it) and the
    /// process-wide table never sees it. Any other recording handle
    /// interns the text. A disabled handle formats nothing and returns
    /// a placeholder it never records.
    #[must_use]
    pub fn text(&self, value: &dyn fmt::Display) -> Sym {
        self.inner
            .as_ref()
            .map_or(Sym(u32::MAX), |cell| cell.borrow_mut().text("", value))
    }

    /// [`Telemetry::text`] for text already rendered: a traced handle
    /// interns it without formatting it again.
    #[must_use]
    pub fn text_str(&self, value: &str) -> Sym {
        self.inner
            .as_ref()
            .map_or(Sym(u32::MAX), |cell| cell.borrow_mut().text_str(value))
    }

    /// Opens a span as a child of the innermost open span. The name
    /// closure runs only when recording (its result is interned, or
    /// kept by a flight handle). The span closes when the returned
    /// guard drops.
    pub fn span(&self, name: impl FnOnce() -> String) -> SpanGuard<'_> {
        if self.inner.is_some() {
            self.span_sym(self.text_str(&name()))
        } else {
            SpanGuard {
                tel: self,
                state: None,
            }
        }
    }

    /// Opens a span by pre-interned name — the allocation-free hot
    /// path. The span closes when the returned guard drops; its
    /// duration is folded into the per-span-name latency histogram.
    pub fn span_sym(&self, name: Sym) -> SpanGuard<'_> {
        let state = self.inner.as_ref().map(|cell| {
            let mut inner = cell.borrow_mut();
            let start_ns = inner.clock.now_ns();
            let seq = inner.next_seq;
            inner.next_seq = seq.wrapping_add(1);
            inner.ring.push(Record {
                t_ns: start_ns,
                a: name.0,
                b: 0,
                c: seq,
                tag: Tag::SpanOpen,
            });
            (name, seq, start_ns)
        });
        SpanGuard { tel: self, state }
    }

    /// Opens a span and records an event inside it, sharing one clock
    /// read: the event is stamped with the span's start time — they are
    /// the same instant, a step *is* started when its span opens — and
    /// the whole thing is one borrow of the recorder. This is the hot
    /// path for the plan executor's per-step `step_started` events,
    /// where the extra clock read and call round-trip of a separate
    /// [`Telemetry::event_with`] are measurable.
    ///
    /// `at_ns` is an optional caller-carried start time: a timestamp
    /// this handle itself returned moments ago (from
    /// [`SpanGuard::close_with_event`]) stands in for a fresh clock
    /// read. The plan executor chains step spans this way — the instant
    /// one step's span closes is the instant the next one opens, so the
    /// whole boundary costs a single read. `None` reads the clock.
    pub fn span_sym_with_event_at(
        &self,
        name: Sym,
        kind: Sym,
        fields: &[(Sym, Sym)],
        at_ns: Option<u64>,
    ) -> SpanGuard<'_> {
        let state = self.inner.as_ref().map(|cell| {
            let mut inner = cell.borrow_mut();
            let start_ns = at_ns.unwrap_or_else(|| inner.clock.now_ns());
            let seq = inner.next_seq;
            inner.next_seq = seq.wrapping_add(1);
            inner.ring.push(Record {
                t_ns: start_ns,
                a: name.0,
                b: 0,
                c: seq,
                tag: Tag::SpanOpen,
            });
            inner.ring.push(Record {
                t_ns: start_ns,
                a: kind.0,
                b: 0,
                c: 0,
                tag: Tag::Event,
            });
            for &(key, value) in fields {
                inner.ring.push(Record {
                    t_ns: start_ns,
                    a: key.0,
                    b: value.0,
                    c: 0,
                    tag: Tag::Field,
                });
            }
            (name, seq, start_ns)
        });
        SpanGuard { tel: self, state }
    }

    /// Opens a span named `prefix` + the `Display` rendering of
    /// `value` (e.g. `style:` + a style name), interning the combined
    /// name without allocating on the already-registered fast path (a
    /// flight handle keeps it, like [`Telemetry::text`]).
    pub fn span_display(&self, prefix: &str, value: &dyn fmt::Display) -> SpanGuard<'_> {
        if let Some(cell) = &self.inner {
            let name = cell.borrow_mut().text(prefix, value);
            self.span_sym(name)
        } else {
            SpanGuard {
                tel: self,
                state: None,
            }
        }
    }

    /// Records a timestamped event under the innermost open span, from
    /// interned symbols (one clock read, one record per field). A value
    /// that differs from run to run goes through [`Telemetry::text`] or
    /// [`Telemetry::text_str`], so a flight handle keeps it and only a
    /// traced run interns it.
    pub fn event_with(&self, kind: Sym, fields: &[(Sym, Sym)]) {
        if let Some(cell) = &self.inner {
            let mut inner = cell.borrow_mut();
            let t_ns = inner.clock.now_ns();
            inner.ring.push(Record {
                t_ns,
                a: kind.0,
                b: 0,
                c: 0,
                tag: Tag::Event,
            });
            for &(key, value) in fields {
                inner.ring.push(Record {
                    t_ns,
                    a: key.0,
                    b: value.0,
                    c: 0,
                    tag: Tag::Field,
                });
            }
        }
    }

    /// Adds `n` to a counter.
    pub fn add(&self, name: &str, n: u64) {
        if let Some(cell) = self.metered() {
            cell.borrow_mut().add_counter(sym(name), n);
        }
    }

    /// Adds `n` to a counter by pre-interned symbol.
    pub fn add_sym(&self, name: Sym, n: u64) {
        if let Some(cell) = self.metered() {
            cell.borrow_mut().add_counter(name, n);
        }
    }

    /// Increments a counter by one.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Increments a counter by one, by pre-interned symbol.
    pub fn incr_sym(&self, name: Sym) {
        self.add_sym(name, 1);
    }

    /// Sets a gauge.
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(cell) = self.metered() {
            let mut inner = cell.borrow_mut();
            let id = sym(name).0;
            *cell_mut(&mut inner.gauges, id) = Some(value);
        }
    }

    /// Records one observation into a log-bucketed latency histogram.
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(cell) = self.metered() {
            cell.borrow_mut().observe_hist(sym(name), value);
        }
    }

    /// Records one histogram observation by pre-interned symbol.
    pub fn observe_sym(&self, name: Sym, value: u64) {
        if let Some(cell) = self.metered() {
            cell.borrow_mut().observe_hist(name, value);
        }
    }

    /// Reads a counter back (0 when disabled, on a flight handle, or
    /// never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.metered().map_or(0, |cell| {
            let inner = cell.borrow();
            inner
                .counters
                .get(sym(name).0 as usize)
                .copied()
                .flatten()
                .unwrap_or(0)
        })
    }

    /// The handle's clock reading (0 when disabled). Lets callers
    /// measure wall-clock-like durations that stay deterministic under
    /// an injected [`crate::ManualClock`].
    #[must_use]
    pub fn clock_ns(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |cell| cell.borrow().clock.now_ns())
    }

    /// Snapshots everything recorded so far into an exportable report
    /// by replaying the ring: span hierarchy and event anchoring are
    /// reconstructed from record order, names are resolved from the
    /// interning table, and the metric cells become the report's
    /// registry. Open spans appear with no end time. If the ring
    /// wrapped, the oldest records are gone and the report says so
    /// ([`RunReport::events_dropped`]) instead of silently truncating.
    #[must_use]
    pub fn report(&self) -> RunReport {
        match &self.inner {
            None => RunReport::empty(),
            Some(cell) => {
                let inner = cell.borrow();
                let mut spans: Vec<SpanData> = Vec::new();
                let mut events: Vec<EventData> = Vec::new();
                // Open-seq -> span index, for closes/annotations that
                // arrive after the span left the replay stack.
                let mut open_map: HashMap<u32, usize> = HashMap::new();
                let mut stack: Vec<(u32, usize)> = Vec::new();
                for record in inner.ring.iter() {
                    match record.tag {
                        Tag::SpanOpen => {
                            let idx = spans.len();
                            spans.push(SpanData {
                                name: inner.render(record.a),
                                parent: stack.last().map(|&(_, i)| i),
                                start_ns: record.t_ns,
                                end_ns: None,
                                attrs: Vec::new(),
                            });
                            open_map.insert(record.c, idx);
                            stack.push((record.c, idx));
                        }
                        Tag::SpanClose => {
                            // Usually the top of the stack; tolerate
                            // out-of-order drops, and ignore closes
                            // whose open was lost to wrap-around.
                            if let Some(pos) = stack.iter().rposition(|&(seq, _)| seq == record.c) {
                                let (_, idx) = stack.remove(pos);
                                spans[idx].end_ns = Some(record.t_ns);
                            } else if let Some(&idx) = open_map.get(&record.c) {
                                spans[idx].end_ns = Some(record.t_ns);
                            }
                        }
                        Tag::Annotate => {
                            if let Some(&idx) = open_map.get(&record.c) {
                                spans[idx]
                                    .attrs
                                    .push((inner.render(record.a), inner.render(record.b)));
                            }
                        }
                        Tag::Event => {
                            events.push(EventData {
                                t_ns: record.t_ns,
                                span: stack.last().map(|&(_, i)| i),
                                kind: inner.render(record.a),
                                fields: Vec::new(),
                            });
                        }
                        Tag::Field => {
                            // A field whose event was lost to
                            // wrap-around is dropped with it.
                            if let Some(event) = events.last_mut() {
                                event
                                    .fields
                                    .push((inner.render(record.a), inner.render(record.b)));
                            }
                        }
                    }
                }
                RunReport::new(
                    spans,
                    events,
                    inner.metrics_snapshot(),
                    inner.ring.dropped(),
                )
            }
        }
    }

    /// A [`Send`] seed from which a worker thread can build its own
    /// recording handle on the same clock epoch ([`Clock::fork`]) and
    /// ring capacity. Returns `None` when this handle is disabled —
    /// workers should then record into a disabled (or flight) handle.
    ///
    /// Together with [`Telemetry::into_recording`] and
    /// [`Telemetry::absorb`] this is the fork/absorb protocol for
    /// parallel pipeline stages: the recorder itself is deliberately
    /// single-threaded (`Rc`/`RefCell`), so each worker records locally
    /// and the parent splices the raw rings back in a deterministic
    /// order after joining.
    #[must_use]
    pub fn fork_seed(&self) -> Option<TelemetrySeed> {
        self.inner.as_ref().map(|cell| {
            let inner = cell.borrow();
            TelemetrySeed {
                clock: inner.clock.fork(),
                capacity: inner.capacity,
            }
        })
    }

    /// The flight-recorder tail of this handle's ring: its last `n`
    /// records as [`Recording::tail_lines`] renders them, without
    /// draining the handle. Empty when disabled.
    #[must_use]
    pub fn tail_lines(&self, n: usize) -> Vec<String> {
        self.inner.as_ref().map_or_else(Vec::new, |cell| {
            let inner = cell.borrow();
            tail_lines(inner.ring.iter(), inner.ring.len(), &inner.texts, n)
        })
    }

    /// Consumes the handle and detaches its raw state — ring records,
    /// drop count, metric cells, and a flight handle's own texts — as a
    /// `Send` [`Recording`] the parent can
    /// [`absorb`](Telemetry::absorb) or mine for a flight tail. A
    /// disabled handle yields an empty recording.
    #[must_use]
    pub fn into_recording(mut self) -> Recording {
        let Some(cell) = self.inner.take() else {
            return Recording::default();
        };
        let mut inner = cell.into_inner();
        let recording = Recording {
            texts: std::mem::take(&mut inner.texts),
            records: inner.ring.iter().copied().collect(),
            dropped: inner.ring.dropped(),
            next_seq: inner.next_seq,
            counters: inner
                .counters
                .iter()
                .enumerate()
                .filter_map(|(id, c)| c.map(|n| (Sym(id as u32), n)))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .enumerate()
                .filter_map(|(id, c)| c.map(|v| (Sym(id as u32), v)))
                .collect(),
            hists: inner
                .hists
                .iter()
                .enumerate()
                .filter_map(|(id, c)| {
                    c.as_ref()
                        .filter(|h| h.count > 0)
                        .map(|h| (Sym(id as u32), (**h).clone()))
                })
                .collect(),
            span_hists: inner
                .span_hists
                .iter()
                .enumerate()
                .filter_map(|(id, c)| {
                    c.as_ref()
                        .filter(|h| h.count > 0)
                        .map(|h| (Sym(id as u32), (**h).clone()))
                })
                .collect(),
        };
        pool_put(inner);
        recording
    }

    /// Splices a worker recording into this one: the worker's records
    /// are pushed through this handle's ring with their span sequence
    /// numbers re-based past ours (so closes and annotations keep
    /// targeting the right opens, and the merged ring is identical to
    /// having recorded the same work sequentially), drop counts add,
    /// and the metric cells merge (counters add, gauges last-write-wins,
    /// histograms bucket-wise).
    ///
    /// At replay the worker's root spans — and its span-less events —
    /// anchor under this handle's innermost span still open at the
    /// splice point, exactly as they would have nested sequentially.
    /// Absorbing the same recordings in the same order always yields
    /// the same report, regardless of how the workers were scheduled.
    /// A flight recording's own texts are interned (or, into another
    /// flight handle, copied); a flight handle takes no metric cells.
    pub fn absorb(&self, recording: &Recording) {
        let Some(cell) = &self.inner else {
            return;
        };
        let mut inner = cell.borrow_mut();
        let base = inner.next_seq;
        for record in &recording.records {
            let mut record = *record;
            if matches!(record.tag, Tag::SpanOpen | Tag::SpanClose | Tag::Annotate) {
                record.c = record.c.wrapping_add(base);
            }
            for operand in [&mut record.a, &mut record.b] {
                if *operand & LOCAL != 0 {
                    let text = Text {
                        operand: *operand,
                        texts: &recording.texts,
                    };
                    *operand = inner.text("", &text).0;
                }
            }
            inner.ring.push(record);
        }
        inner.next_seq = base.wrapping_add(recording.next_seq);
        inner.ring.add_dropped(recording.dropped);
        if inner.flight {
            return;
        }
        for &(name, n) in &recording.counters {
            inner.add_counter(name, n);
        }
        for &(name, value) in &recording.gauges {
            *cell_mut(&mut inner.gauges, name.0) = Some(value);
        }
        for (name, hist) in &recording.hists {
            cell_mut(&mut inner.hists, name.0)
                .get_or_insert_with(Box::default)
                .merge(hist);
        }
        for (name, hist) in &recording.span_hists {
            cell_mut(&mut inner.span_hists, name.0)
                .get_or_insert_with(Box::default)
                .merge(hist);
        }
    }

    fn push_annotate(&self, key: Sym, value: Sym, seq: u32) {
        if let Some(cell) = &self.inner {
            cell.borrow_mut().ring.push(Record {
                t_ns: 0,
                a: key.0,
                b: value.0,
                c: seq,
                tag: Tag::Annotate,
            });
        }
    }

    fn close_span(&self, name: Sym, seq: u32, start_ns: u64) {
        if let Some(cell) = &self.inner {
            let mut inner = cell.borrow_mut();
            let end_ns = inner.clock.now_ns();
            inner.ring.push(Record {
                t_ns: end_ns,
                a: name.0,
                b: 0,
                c: seq,
                tag: Tag::SpanClose,
            });
            inner.observe_span_hist(name, end_ns.saturating_sub(start_ns));
        }
    }

    /// [`Telemetry::close_span`] with a final event spliced in before
    /// the close record, sharing its clock read — the dual of
    /// [`Telemetry::span_sym_with_event_at`] (a step *is* completed when
    /// its span closes). One borrow, one read; the event anchors inside
    /// the closing span.
    fn close_span_with_event(
        &self,
        name: Sym,
        seq: u32,
        start_ns: u64,
        kind: Sym,
        fields: &[(Sym, Sym)],
    ) -> u64 {
        let mut end = 0;
        if let Some(cell) = &self.inner {
            let mut inner = cell.borrow_mut();
            let end_ns = inner.clock.now_ns();
            end = end_ns;
            inner.ring.push(Record {
                t_ns: end_ns,
                a: kind.0,
                b: 0,
                c: 0,
                tag: Tag::Event,
            });
            for &(key, value) in fields {
                inner.ring.push(Record {
                    t_ns: end_ns,
                    a: key.0,
                    b: value.0,
                    c: 0,
                    tag: Tag::Field,
                });
            }
            inner.ring.push(Record {
                t_ns: end_ns,
                a: name.0,
                b: 0,
                c: seq,
                tag: Tag::SpanClose,
            });
            inner.observe_span_hist(name, end_ns.saturating_sub(start_ns));
        }
        end
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Drop for Telemetry {
    /// Parks the handle's emptied allocations in the thread-local pool
    /// so the next handle starts warm (see `Body`).
    fn drop(&mut self) {
        if let Some(cell) = self.inner.take() {
            pool_put(cell.into_inner());
        }
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// A `Send` bundle from [`Telemetry::fork_seed`]: everything a worker
/// thread needs to open its own recording on the parent's clock epoch.
pub struct TelemetrySeed {
    clock: Box<dyn Clock + Send>,
    capacity: usize,
}

impl std::fmt::Debug for TelemetrySeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetrySeed").finish_non_exhaustive()
    }
}

impl TelemetrySeed {
    /// Builds the worker-local recording handle.
    #[must_use]
    pub fn build(self) -> Telemetry {
        struct BoxedClock(Box<dyn Clock + Send>);
        impl Clock for BoxedClock {
            fn now_ns(&self) -> u64 {
                self.0.now_ns()
            }
            fn fork(&self) -> Box<dyn Clock + Send> {
                self.0.fork()
            }
        }
        Telemetry::with_clock_and_capacity(Rc::new(BoxedClock(self.clock)), self.capacity)
    }
}

/// RAII handle for an open span; closes the span on drop and folds its
/// duration into the per-span-name latency histogram.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tel: &'a Telemetry,
    state: Option<(Sym, u32, u64)>,
}

impl SpanGuard<'_> {
    /// The span's id, when recording.
    #[must_use]
    pub fn id(&self) -> Option<SpanId> {
        self.state.map(|(_, seq, _)| SpanId(seq as usize))
    }

    /// Attaches a key/value attribute to the span. The value closure
    /// runs only when recording; key and value are interned (a flight
    /// handle keeps the value, like [`Telemetry::text`]).
    pub fn annotate(&self, key: &str, value: impl FnOnce() -> String) {
        if let Some((_, seq, _)) = self.state {
            let value = self.tel.text_str(&value());
            self.tel.push_annotate(sym(key), value, seq);
        }
    }

    /// Attaches a pre-interned key/value attribute to the span — the
    /// allocation-free hot path (no clock read either).
    pub fn annotate_sym(&self, key: Sym, value: Sym) {
        if let Some((_, seq, _)) = self.state {
            self.tel.push_annotate(key, value, seq);
        }
    }

    /// Closes the span now, recording a final event stamped with the
    /// span's end time inside it — one borrow, one clock read for both
    /// (see [`Telemetry::span_sym_with_event_at`] for the opening dual).
    /// On a disabled handle this is a no-op, like the drop it replaces.
    ///
    /// Returns the close timestamp when recording, so an immediately
    /// following span can open at the same instant without another
    /// clock read ([`Telemetry::span_sym_with_event_at`]).
    pub fn close_with_event(mut self, kind: Sym, fields: &[(Sym, Sym)]) -> Option<u64> {
        self.state.take().map(|(name, seq, start_ns)| {
            self.tel
                .close_span_with_event(name, seq, start_ns, kind, fields)
        })
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((name, seq, start_ns)) = self.state {
            self.tel.close_span(name, seq, start_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    fn manual() -> (Rc<ManualClock>, Telemetry) {
        let clock = Rc::new(ManualClock::new());
        let tel = Telemetry::with_clock(clock.clone());
        (clock, tel)
    }

    #[test]
    fn disabled_handle_records_nothing_and_skips_closures() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        {
            let span = tel.span(|| panic!("name closure must not run"));
            span.annotate("k", || panic!("annotate closure must not run"));
            tel.event_with(sym("e"), &[(sym("k"), tel.text_str("v"))]);
        }
        tel.incr("c");
        tel.gauge("g", 1.0);
        tel.observe("h", 9);
        let report = tel.report();
        assert!(report.spans().is_empty());
        assert!(report.events().is_empty());
        assert!(report.metrics().is_empty());
        assert_eq!(tel.counter("c"), 0);
        assert_eq!(tel.clock_ns(), 0);
        assert!(tel.into_recording().is_empty());
    }

    #[test]
    fn spans_nest_and_time_with_the_injected_clock() {
        let (clock, tel) = manual();
        {
            let root = tel.span(|| "root".into());
            clock.advance_ns(100);
            {
                let child = tel.span(|| "child".into());
                child.annotate("note", || "inner".into());
                clock.advance_ns(50);
            }
            clock.advance_ns(25);
            root.annotate("outcome", || "ok".into());
        }
        let report = tel.report();
        let spans = report.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "root");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[0].start_ns, 0);
        assert_eq!(spans[0].end_ns, Some(175));
        assert_eq!(spans[1].name, "child");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].start_ns, 100);
        assert_eq!(spans[1].end_ns, Some(150));
        assert_eq!(
            spans[1].attrs,
            vec![("note".to_owned(), "inner".to_owned())]
        );
        assert_eq!(report.events_dropped(), 0);
    }

    #[test]
    fn span_durations_feed_the_latency_histograms() {
        let (clock, tel) = manual();
        {
            let _root = tel.span(|| "root".into());
            clock.advance_ns(100);
            {
                let _child = tel.span(|| "child".into());
                clock.advance_ns(50);
            }
        }
        let report = tel.report();
        let root = report.metrics().histogram("span:root").expect("root hist");
        assert_eq!(root.count(), 1);
        assert_eq!(root.sum(), 150);
        let child = report
            .metrics()
            .histogram("span:child")
            .expect("child hist");
        assert_eq!(child.count(), 1);
        assert_eq!(child.sum(), 50);
        // 50 lands in [32, 64) = bucket 6.
        assert_eq!(child.buckets(), &[(6, 1)]);
    }

    #[test]
    fn events_attach_to_the_innermost_open_span() {
        let (clock, tel) = manual();
        tel.event_with(sym("orphan"), &[]);
        {
            let _root = tel.span(|| "root".into());
            clock.advance_ns(10);
            tel.event_with(sym("fired"), &[(sym("rule"), sym("cascode"))]);
        }
        let report = tel.report();
        assert_eq!(report.events().len(), 2);
        assert_eq!(report.events()[0].span, None);
        assert_eq!(report.events()[1].span, Some(0));
        assert_eq!(report.events()[1].t_ns, 10);
        assert_eq!(report.events()[1].fields[0].1, "cascode");
    }

    #[test]
    fn sym_api_matches_the_string_api() {
        let (clock, tel) = manual();
        let name = sym("root");
        let kind = sym("fired");
        let (k, v) = (sym("rule"), sym("cascode"));
        {
            let root = tel.span_sym(name);
            clock.advance_ns(10);
            tel.event_with(kind, &[(k, v)]);
            root.annotate_sym(sym("outcome"), sym("ok"));
        }
        tel.incr_sym(sym("plan.step_executions"));
        tel.add_sym(sym("plan.step_executions"), 2);
        tel.observe_sym(sym("lat"), 7);
        let report = tel.report();
        assert_eq!(report.spans()[0].name, "root");
        assert_eq!(
            report.spans()[0].attrs[0],
            ("outcome".to_owned(), "ok".to_owned())
        );
        assert_eq!(report.events()[0].kind, "fired");
        assert_eq!(
            report.events()[0].fields[0],
            ("rule".to_owned(), "cascode".to_owned())
        );
        assert_eq!(report.metrics().counter("plan.step_executions"), 3);
        assert_eq!(report.metrics().histogram("lat").unwrap().count(), 1);
    }

    #[test]
    fn counters_and_gauges_round_trip() {
        let (_clock, tel) = manual();
        tel.incr("plan.rule_firings");
        tel.add("plan.rule_firings", 2);
        tel.gauge("synth.feasible", 2.0);
        assert_eq!(tel.counter("plan.rule_firings"), 3);
        let report = tel.report();
        assert_eq!(report.metrics().counter("plan.rule_firings"), 3);
        assert_eq!(report.metrics().gauge("synth.feasible"), Some(2.0));
    }

    #[test]
    fn fork_and_absorb_splice_worker_recordings() {
        let (clock, tel) = manual();
        clock.advance_ns(7);
        let root = tel.span(|| "synthesize".into());
        let seed = tel.fork_seed().expect("enabled handle forks");

        // Worker thread: records on its own handle, ships the raw ring.
        let recording = std::thread::spawn(move || {
            let worker = seed.build();
            {
                let style = worker.span(|| "style:x".into());
                let _step = worker.span(|| "step:y".into());
                style.annotate("outcome", || "feasible".into());
            }
            worker.incr("plan.step_executions");
            worker.event_with(sym("note"), &[(sym("k"), sym("v"))]);
            worker.into_recording()
        })
        .join()
        .unwrap();

        tel.absorb(&recording);
        drop(root);

        let merged = tel.report();
        let spans = merged.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "synthesize");
        assert_eq!(spans[1].name, "style:x");
        assert_eq!(
            spans[1].parent,
            Some(0),
            "worker root re-parents under the open span"
        );
        assert_eq!(spans[2].parent, Some(1), "nested parents re-base");
        // Forked manual clock is frozen at the fork instant.
        assert_eq!(spans[1].start_ns, 7);
        assert_eq!(spans[1].end_ns, Some(7));
        assert_eq!(spans[1].attrs[0].1, "feasible");
        assert_eq!(merged.events().len(), 1);
        // The worker event fired outside any worker span, so it anchors
        // to the parent's innermost open span.
        assert_eq!(merged.events()[0].span, Some(0));
        assert_eq!(tel.counter("plan.step_executions"), 1);
    }

    #[test]
    fn absorbed_rings_match_a_sequential_recording() {
        // The same work recorded sequentially and via fork/absorb must
        // render byte-identically — the property the batch runner relies
        // on for worker-count-independent reports.
        let record = |tel: &Telemetry| {
            let span = tel.span(|| "style:x".into());
            span.annotate("outcome", || "feasible".into());
            tel.incr("n");
        };

        let sequential = {
            let clock = Rc::new(ManualClock::new());
            let tel = Telemetry::with_clock(clock);
            let _root = tel.span(|| "root".into());
            record(&tel);
            record(&tel);
            tel.report()
        };

        let forked = {
            let clock = Rc::new(ManualClock::new());
            let tel = Telemetry::with_clock(clock);
            let _root = tel.span(|| "root".into());
            for _ in 0..2 {
                let worker = tel.fork_seed().expect("enabled handle forks").build();
                record(&worker);
                tel.absorb(&worker.into_recording());
            }
            tel.report()
        };

        assert_eq!(sequential.render_jsonl(), forked.render_jsonl());
    }

    #[test]
    fn wrapped_ring_reports_exact_drop_count() {
        let clock = Rc::new(ManualClock::new());
        let tel = Telemetry::with_clock_and_capacity(clock.clone(), 8);
        let _root = tel.span(|| "root".into());
        for i in 0..20 {
            clock.advance_ns(1);
            tel.event_with(sym("tick"), &[(sym("i"), tel.text(&i))]);
        }
        let report = tel.report();
        // 1 open + 20 * (event + field) = 41 records into capacity 8.
        assert_eq!(report.events_dropped(), 33);
        assert!(report.wrapped());
        // Survivors replay cleanly: the newest events, fields intact.
        let events = report.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events.last().unwrap().fields[0].1, "19");
        // The root span's open record was overwritten, so survivors
        // anchor to no span — but metrics cells were never touched.
        assert!(events.iter().all(|e| e.span.is_none()));
    }

    #[test]
    fn flight_recorder_carries_the_trace_tail() {
        let tel = Telemetry::flight();
        assert!(tel.is_enabled());
        {
            let span = tel.span(|| "plan:demo".into());
            span.annotate("spec", || "a".into());
            tel.event_with(sym("step_started"), &[(sym("step"), tel.text_str("bias"))]);
        }
        let recording = tel.into_recording();
        let tail = recording.tail_lines(8);
        assert_eq!(
            tail,
            vec![
                "open plan:demo".to_owned(),
                "note spec=a".to_owned(),
                "event step_started".to_owned(),
                "field step=bias".to_owned(),
                "close plan:demo".to_owned(),
            ]
        );
    }

    #[test]
    fn disabled_handles_skip_the_fork_protocol() {
        let tel = Telemetry::disabled();
        assert!(tel.fork_seed().is_none());
        // Absorbing into a disabled handle is a no-op.
        let (_, enabled) = manual();
        enabled.span(|| "s".into());
        tel.absorb(&enabled.into_recording());
        assert!(tel.report().spans().is_empty());
    }

    #[test]
    fn report_snapshot_includes_open_spans() {
        let (clock, tel) = manual();
        let _open = tel.span(|| "still-running".into());
        clock.advance_ns(5);
        let report = tel.report();
        assert_eq!(report.spans()[0].end_ns, None);
    }
}
