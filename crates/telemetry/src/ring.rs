//! Preallocated ring buffers of fixed-size binary telemetry records.
//!
//! The hot recording path appends 24-byte [`Record`]s — a timestamp,
//! three `u32` operands, and a tag — into a [`RecordRing`] bounded at
//! handle construction (the buffer grows geometrically up to the cap,
//! so short recordings stay small). Nothing on this path formats or
//! resolves names; they travel as interned [`Sym`](crate::intern::Sym)
//! indices and are resolved back to strings only at export time.
//!
//! When the ring is full the oldest record is overwritten and the exact
//! `dropped` counter advances, so exporters can report truncation
//! (`wrapped: true`, `events_dropped: N`) instead of hiding it. The
//! same structure doubles as the crash flight recorder: a small ring
//! holds the trace tail by construction, and
//! [`Telemetry::tail_lines`](crate::Telemetry::tail_lines) renders the
//! last few records verbatim into failure context. A flight ring keeps
//! its per-job text beside it ([`Texts`]) instead of in the
//! process-wide table.

use crate::intern::{resolve, Sym};
use crate::metrics::Hist;
use std::fmt;

/// Default per-handle ring capacity (records). At 24 bytes per record
/// this is a ~384 KiB buffer — enough to hold every record of a full
/// instrumented synthesis sweep without wrapping, while staying small
/// enough that per-run allocation is cached by the allocator.
pub const DEFAULT_RING_CAPACITY: usize = 16_384;

/// Ring capacity used by the always-on flight recorder: just enough to
/// carry the trace tail into a failure report.
pub const FLIGHT_RING_CAPACITY: usize = 256;

/// Marks a record operand that names a text in the recording's own
/// [`Texts`] (`LOCAL | index`) instead of a process-wide symbol.
pub(crate) const LOCAL: u32 = 1 << 31;

/// The text a flight handle keeps for itself instead of interning it
/// process-wide: span names, annotation values and event fields that
/// differ job by job (`job:<id>`, an area, a failure message). One
/// buffer holds the texts end to end. The texts live as long as the
/// handle, or the [`Recording`] drained from it, and are dropped with
/// it, so untraced jobs never grow the global table.
#[derive(Debug, Default)]
pub(crate) struct Texts {
    buf: String,
    /// Where each text ends in `buf`; text `i` starts where `i - 1`
    /// ends.
    ends: Vec<usize>,
}

impl Texts {
    /// Stores `prefix` followed by the rendering of `value` as one text
    /// and returns the operand that names it.
    pub fn push(&mut self, prefix: &str, value: &dyn fmt::Display) -> Sym {
        use fmt::Write;
        self.buf.push_str(prefix);
        // Writing into a `String` fails only when `value`'s own
        // `Display` does; the text keeps what it wrote, as `to_string`
        // would have.
        let _ = write!(self.buf, "{value}");
        self.ends.push(self.buf.len());
        Sym(LOCAL | u32::try_from(self.ends.len() - 1).unwrap_or(!LOCAL))
    }

    /// The text `operand` names (empty for an index never stored).
    fn get(&self, operand: u32) -> &str {
        let index = (operand & !LOCAL) as usize;
        let start = match index {
            0 => Some(0),
            _ => self.ends.get(index - 1).copied(),
        };
        start
            .zip(self.ends.get(index).copied())
            .and_then(|(start, end)| self.buf.get(start..end))
            .unwrap_or("")
    }

    pub fn clear(&mut self) {
        self.buf.clear();
        self.ends.clear();
    }
}

/// A record operand rendered as text: a process-wide symbol, or one of
/// the recording's own [`Texts`].
pub(crate) struct Text<'a> {
    pub operand: u32,
    pub texts: &'a Texts,
}

impl fmt::Display for Text<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.operand & LOCAL == 0 {
            f.write_str(&resolve(Sym(self.operand)))
        } else {
            f.write_str(self.texts.get(self.operand))
        }
    }
}

/// Discriminates the meaning of a [`Record`]'s operand fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Tag {
    /// A span opened: `a` = name symbol, `c` = open sequence number,
    /// `t_ns` = start time.
    SpanOpen,
    /// A span closed: `a` = name symbol (for flight-tail rendering),
    /// `c` = sequence number of its `SpanOpen`, `t_ns` = end time.
    SpanClose,
    /// A key/value annotation on an open span: `a` = key symbol,
    /// `b` = value symbol, `c` = target span's open sequence number.
    /// Carries no clock read.
    Annotate,
    /// A point event: `a` = kind symbol, `t_ns` = time. Anchors to the
    /// innermost span open at replay position.
    Event,
    /// A key/value field on the most recent `Event`: `a` = key symbol,
    /// `b` = value symbol. Carries no clock read.
    Field,
}

/// One fixed-size binary telemetry record (24 bytes, `Copy`).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Record {
    pub t_ns: u64,
    pub a: u32,
    pub b: u32,
    pub c: u32,
    pub tag: Tag,
}

/// A bounded, preallocated buffer of [`Record`]s with overwrite-oldest
/// overflow and an exact drop counter.
#[derive(Debug)]
pub(crate) struct RecordRing {
    buf: Vec<Record>,
    cap: usize,
    /// Index of the logically-oldest record once the ring has wrapped.
    start: usize,
    /// Exact count of records overwritten by wrap-around.
    dropped: u64,
}

impl RecordRing {
    #[cfg(test)]
    pub fn with_capacity(cap: usize) -> Self {
        Self::with_buffer(cap, Vec::new())
    }

    /// Builds a ring around a recycled buffer (usually the handle
    /// pool's warm restart); the buffer is cleared, its capacity kept.
    /// An unprovisioned buffer gets one modest reservation up front,
    /// then grows geometrically to `cap`: reserving the full default
    /// capacity eagerly would be a ~384 KiB allocation — above the
    /// common allocator mmap threshold — charged to every short-lived
    /// handle, while starting at zero would pay ~10 reallocs and copies
    /// across a typical ~1k-record run.
    pub fn with_buffer(cap: usize, mut buf: Vec<Record>) -> Self {
        buf.clear();
        if buf.capacity() == 0 {
            buf.reserve(cap.clamp(1, 1024));
        }
        Self {
            cap: cap.max(1),
            buf,
            start: 0,
            dropped: 0,
        }
    }

    /// Consumes the ring, handing its buffer back for recycling.
    pub fn into_buffer(self) -> Vec<Record> {
        self.buf
    }

    pub fn push(&mut self, record: Record) {
        if self.buf.len() < self.cap {
            self.buf.push(record);
        } else {
            self.buf[self.start] = record;
            self.start = (self.start + 1) % self.cap;
            self.dropped += 1;
        }
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn add_dropped(&mut self, n: u64) {
        self.dropped += n;
    }

    /// Records in logical (oldest-first) order.
    pub fn iter(&self) -> impl Iterator<Item = &Record> {
        self.buf[self.start..]
            .iter()
            .chain(self.buf[..self.start].iter())
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// The flight-recorder tail: the last `n` records rendered as short
    /// lines (`open plan:x`, `event step_started`, `field step=bias`,
    /// …), oldest first, with `LOCAL` operands read from `texts`.
    pub fn tail_lines(&self, texts: &Texts, n: usize) -> Vec<String> {
        let text = |operand| Text { operand, texts };
        self.iter()
            .skip(self.len().saturating_sub(n))
            .map(|r| match r.tag {
                Tag::SpanOpen => format!("open {}", text(r.a)),
                Tag::SpanClose => format!("close {}", text(r.a)),
                Tag::Annotate => format!("note {}={}", text(r.a), text(r.b)),
                Tag::Event => format!("event {}", text(r.a)),
                Tag::Field => format!("field {}={}", text(r.a), text(r.b)),
            })
            .collect()
    }
}

/// A detached, `Send` snapshot of one telemetry handle's raw state:
/// the ring's records in logical order plus the handle's metric cells.
///
/// Produced by [`Telemetry::into_recording`](crate::Telemetry::into_recording)
/// on a worker handle and spliced into the parent with
/// [`Telemetry::absorb`](crate::Telemetry::absorb).
#[derive(Debug, Default)]
pub struct Recording {
    pub(crate) records: Vec<Record>,
    pub(crate) dropped: u64,
    pub(crate) next_seq: u32,
    pub(crate) counters: Vec<(Sym, u64)>,
    pub(crate) gauges: Vec<(Sym, f64)>,
    pub(crate) hists: Vec<(Sym, Hist)>,
    pub(crate) span_hists: Vec<(Sym, Hist)>,
    /// A flight handle's own texts, named by `LOCAL` operands.
    pub(crate) texts: Texts,
}

impl Recording {
    /// True when the recording carries no records and no metrics — the
    /// result of draining a disabled handle.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
            && self.counters.is_empty()
            && self.gauges.is_empty()
            && self.hists.is_empty()
            && self.span_hists.is_empty()
    }

    /// Records overwritten by ring wrap-around while recording.
    #[must_use]
    pub fn events_dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::sym;

    fn rec(tag: Tag, a: u32, c: u32) -> Record {
        Record {
            t_ns: u64::from(c),
            a,
            b: 0,
            c,
            tag,
        }
    }

    #[test]
    fn ring_preserves_order_below_capacity() {
        let mut ring = RecordRing::with_capacity(8);
        for i in 0..5 {
            ring.push(rec(Tag::Event, i, i));
        }
        let seqs: Vec<u32> = ring.iter().map(|r| r.c).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn overflow_drops_oldest_with_exact_counter() {
        let mut ring = RecordRing::with_capacity(4);
        for i in 0..11 {
            ring.push(rec(Tag::Event, i, i));
        }
        assert_eq!(ring.dropped(), 7);
        let seqs: Vec<u32> = ring.iter().map(|r| r.c).collect();
        assert_eq!(seqs, vec![7, 8, 9, 10]);
    }

    #[test]
    fn overflow_never_corrupts_adjacent_records() {
        // Property sweep: for a range of capacities and push counts,
        // every surviving record is intact (all fields consistent) and
        // the survivors are exactly the newest `min(pushes, cap)` in
        // order, with `dropped` exact.
        for cap in 1..=9_usize {
            for pushes in 0..40_u32 {
                let mut ring = RecordRing::with_capacity(cap);
                for i in 0..pushes {
                    ring.push(Record {
                        t_ns: u64::from(i) * 3 + 1,
                        a: i.wrapping_mul(7),
                        b: i.wrapping_mul(13),
                        c: i,
                        tag: if i % 2 == 0 { Tag::Event } else { Tag::Field },
                    });
                }
                let expected_len = (pushes as usize).min(cap);
                let expected_dropped = u64::from(pushes) - expected_len as u64;
                assert_eq!(ring.len(), expected_len, "cap={cap} pushes={pushes}");
                assert_eq!(
                    ring.dropped(),
                    expected_dropped,
                    "cap={cap} pushes={pushes}"
                );
                let first = pushes - expected_len as u32;
                for (offset, r) in ring.iter().enumerate() {
                    let i = first + u32::try_from(offset).unwrap();
                    assert_eq!(r.c, i, "cap={cap} pushes={pushes}");
                    assert_eq!(r.t_ns, u64::from(i) * 3 + 1);
                    assert_eq!(r.a, i.wrapping_mul(7));
                    assert_eq!(r.b, i.wrapping_mul(13));
                    let expected_tag = if i.is_multiple_of(2) {
                        Tag::Event
                    } else {
                        Tag::Field
                    };
                    assert_eq!(r.tag, expected_tag);
                }
            }
        }
    }

    #[test]
    fn tail_lines_render_the_newest_records() {
        let open = sym("plan:demo");
        let kind = sym("step_started");
        let key = sym("step");
        let val = sym("bias");
        let mut ring = RecordRing::with_capacity(8);
        for (tag, a, b) in [
            (Tag::SpanOpen, open, None),
            (Tag::Event, kind, None),
            (Tag::Field, key, Some(val)),
        ] {
            ring.push(Record {
                t_ns: 1,
                a: a.index(),
                b: b.map_or(0, Sym::index),
                c: 0,
                tag,
            });
        }
        let texts = Texts::default();
        assert_eq!(
            ring.tail_lines(&texts, 2),
            vec![
                "event step_started".to_owned(),
                "field step=bias".to_owned()
            ]
        );
        assert_eq!(ring.tail_lines(&texts, 10).len(), 3);
        assert_eq!(ring.tail_lines(&texts, 10)[0], "open plan:demo");
    }
}
