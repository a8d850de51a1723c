//! The benchmark's own statistics: percentiles, span self time, ratios
//! with their bases, and due-time accounting for scheduled probes.

use std::fmt;

/// Percentiles a tail may be reported at, highest last.
const TAIL_LADDER: [f64; 3] = [90.0, 99.0, 99.9];

/// The 1-based nearest rank of percentile `p` among `n` samples. The
/// small slack keeps `0.999 * 10000` from rounding up past 9990.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// The nearest-rank percentile `p` (0..=100) of ascending `sorted`.
///
/// # Panics
///
/// On an empty slice: a percentile of nothing is a bug in the caller.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly above the nearest-rank percentile `p` of `n` samples.
#[must_use]
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest ladder percentile that still has at least ten samples
/// beyond it, or `None` when even p90 does not.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// `values` sorted ascending.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Median of `values` (any order); 0 for an empty sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    percentile(&sorted(values), 50.0)
}

/// Percentile `p` of `values` (any order), reported only when at least
/// ten samples lie beyond it.
#[must_use]
pub fn reportable(values: &[f64], p: f64) -> Option<f64> {
    (samples_beyond(values.len(), p) >= 10).then(|| percentile(&sorted(values), p))
}

/// A span's self time: its duration minus the part of its interval
/// that its children cover (overlapping children count once; child time
/// outside the span is ignored).
#[must_use]
pub fn self_time_ns(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start).saturating_sub(covered)
}

/// A ratio that remembers its base, so it is never printed without it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub num: f64,
    /// Denominator (the base).
    pub den: f64,
}

impl Ratio {
    /// `num / den`.
    #[must_use]
    pub fn new(num: f64, den: f64) -> Self {
        Self { num, den }
    }

    /// The quotient; 0 when the base is 0 (nothing was attempted).
    #[must_use]
    pub fn value(self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} / {}", short(self.num), short(self.den))
    }
}

/// A compact rendering for bases: integers without a fraction, other
/// values to four significant places.
fn short(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

/// One scheduled probe: when it was due, when the generator actually
/// sent it, and when its answer arrived (ns on one clock).
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    /// Scheduled send time.
    pub due_ns: u64,
    /// Actual send time.
    pub sent_ns: u64,
    /// Answer time.
    pub done_ns: u64,
}

impl Probe {
    /// Latency from when the probe was due, so a stall that delays later
    /// probes counts against them too.
    #[must_use]
    pub fn latency_ns(self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    /// How late the generator sent it.
    #[must_use]
    pub fn lag_ns(self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }
}

/// The due time of probe `index` on a fixed schedule.
#[must_use]
pub fn due_ns(start_ns: u64, period_ns: u64, index: u64) -> u64 {
    start_ns + period_ns * index
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(median(&v), 500.0);
        assert_eq!(reportable(&v, 99.0), Some(990.0));
        assert_eq!(reportable(&v, 99.9), None);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(reportable(&[1.0; 50], 90.0), None);
        assert_eq!(reportable(&[1.0; 100], 90.0), Some(1.0));
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        assert_eq!(self_time_ns((0, 100), &[]), 100);
        assert_eq!(self_time_ns((0, 100), &[(10, 20), (30, 60)]), 60);
        // Overlapping children cover their union, not their sum.
        assert_eq!(self_time_ns((0, 100), &[(10, 50), (40, 70)]), 40);
        // Child time outside the parent is clipped away.
        assert_eq!(self_time_ns((100, 200), &[(50, 150), (190, 250)]), 40);
        assert_eq!(self_time_ns((0, 100), &[(0, 100)]), 0);
    }

    #[test]
    fn ratios_carry_their_base() {
        let r = Ratio::new(3.0, 4.0);
        assert_eq!(r.value(), 0.75);
        assert_eq!(r.to_string(), "3 / 4");
        assert_eq!(Ratio::new(0.0, 0.0).value(), 0.0);
        assert_eq!(Ratio::new(1.5, 2.25).to_string(), "1.5000 / 2.2500");
    }

    #[test]
    fn probes_are_timed_from_their_due_time() {
        let period = 10;
        assert_eq!(due_ns(1_000, period, 3), 1_030);
        // On time: latency is the service time, no lag.
        let on_time = Probe {
            due_ns: 1_000,
            sent_ns: 1_000,
            done_ns: 1_004,
        };
        assert_eq!((on_time.latency_ns(), on_time.lag_ns()), (4, 0));
        // A stall made the generator send 25 ns late: the lag counts
        // against the probe's latency.
        let late = Probe {
            due_ns: 1_010,
            sent_ns: 1_035,
            done_ns: 1_040,
        };
        assert_eq!((late.latency_ns(), late.lag_ns()), (30, 25));
    }
}
