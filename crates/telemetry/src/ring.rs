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
//! holds the trace tail by construction, and [`Recording::tail_lines`]
//! renders the last few records verbatim into failure context.

use crate::intern::{resolve, Sym};
use crate::metrics::Hist;

/// Default per-handle ring capacity (records). At 24 bytes per record
/// this is a ~384 KiB buffer — enough to hold every record of a full
/// instrumented synthesis sweep without wrapping, while staying small
/// enough that per-run allocation is cached by the allocator.
pub const DEFAULT_RING_CAPACITY: usize = 16_384;

/// Ring capacity used by the always-on flight recorder: just enough to
/// carry the trace tail into a failure report.
pub const FLIGHT_RING_CAPACITY: usize = 256;

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

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.buf.len()
    }
}

/// A detached, `Send` snapshot of one telemetry handle's raw state:
/// the ring's records in logical order plus the handle's metric cells.
///
/// Produced by [`Telemetry::into_recording`](crate::Telemetry::into_recording)
/// on a worker handle; spliced into the parent with
/// [`Telemetry::absorb`](crate::Telemetry::absorb), or mined for its
/// trace tail with [`tail_lines`](Self::tail_lines) when the work it
/// instrumented failed.
#[derive(Debug, Default)]
pub struct Recording {
    pub(crate) records: Vec<Record>,
    pub(crate) dropped: u64,
    pub(crate) next_seq: u32,
    pub(crate) counters: Vec<(Sym, u64)>,
    pub(crate) gauges: Vec<(Sym, f64)>,
    pub(crate) hists: Vec<(Sym, Hist)>,
    pub(crate) span_hists: Vec<(Sym, Hist)>,
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

    /// The flight-recorder tail: the last `n` records rendered as short
    /// human-readable lines (`open plan:x`, `event step_started`,
    /// `field step=bias`, …), oldest first. This is what a failed batch
    /// job dumps into its structured failure record.
    #[must_use]
    pub fn tail_lines(&self, n: usize) -> Vec<String> {
        let start = self.records.len().saturating_sub(n);
        self.records[start..]
            .iter()
            .map(|r| match r.tag {
                Tag::SpanOpen => format!("open {}", resolve(Sym(r.a))),
                Tag::SpanClose => format!("close {}", resolve(Sym(r.a))),
                Tag::Annotate => {
                    format!("note {}={}", resolve(Sym(r.a)), resolve(Sym(r.b)))
                }
                Tag::Event => format!("event {}", resolve(Sym(r.a))),
                Tag::Field => {
                    format!("field {}={}", resolve(Sym(r.a)), resolve(Sym(r.b)))
                }
            })
            .collect()
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
        let recording = Recording {
            records: vec![
                Record {
                    t_ns: 0,
                    a: open.index(),
                    b: 0,
                    c: 0,
                    tag: Tag::SpanOpen,
                },
                Record {
                    t_ns: 1,
                    a: kind.index(),
                    b: 0,
                    c: 0,
                    tag: Tag::Event,
                },
                Record {
                    t_ns: 1,
                    a: key.index(),
                    b: val.index(),
                    c: 0,
                    tag: Tag::Field,
                },
            ],
            ..Recording::default()
        };
        assert_eq!(
            recording.tail_lines(2),
            vec![
                "event step_started".to_owned(),
                "field step=bias".to_owned()
            ]
        );
        assert_eq!(recording.tail_lines(10).len(), 3);
        assert_eq!(recording.tail_lines(10)[0], "open plan:demo");
    }
}
