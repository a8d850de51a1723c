//! Cooperative deadlines: a cheap, clonable token computation loops
//! check at their natural checkpoints (plan steps) so an overrunning job
//! aborts *inside* the computation instead of being abandoned on a
//! detached thread.

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a deadline check failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineExceeded {
    /// The wall-clock budget ran out.
    TimedOut,
    /// The cancel token was set (e.g. the batch runner gave up on the
    /// attempt).
    Cancelled,
}

impl fmt::Display for DeadlineExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeadlineExceeded::TimedOut => write!(f, "deadline exceeded"),
            DeadlineExceeded::Cancelled => write!(f, "cancelled"),
        }
    }
}

impl Error for DeadlineExceeded {}

/// An optional wall-clock budget plus an optional shared cancel flag.
/// The default ([`Deadline::none`]) never fires, so code can check
/// unconditionally.
#[derive(Debug, Clone, Default)]
pub struct Deadline {
    at: Option<Instant>,
    cancel: Option<Arc<AtomicBool>>,
}

impl Deadline {
    /// A deadline that never fires.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// A deadline `budget` from now.
    #[must_use]
    pub fn within(budget: Duration) -> Self {
        Self {
            at: Instant::now().checked_add(budget),
            cancel: None,
        }
    }

    /// Attaches a shared cancel flag; setting it trips every clone of
    /// this deadline at its next check.
    #[must_use]
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// `true` when neither a budget nor a cancel flag is attached, so
    /// checks can never fail.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.at.is_none() && self.cancel.is_none()
    }

    /// Time left before the budget runs out; `None` without a budget.
    #[must_use]
    pub fn remaining(&self) -> Option<Duration> {
        self.at
            .map(|at| at.saturating_duration_since(Instant::now()))
    }

    /// The checkpoint call: cancel flag first (cheap, and the batch
    /// runner's signal), then the wall clock.
    ///
    /// # Errors
    ///
    /// [`DeadlineExceeded::Cancelled`] when the cancel flag is set,
    /// [`DeadlineExceeded::TimedOut`] when the budget has run out.
    pub fn check(&self) -> Result<(), DeadlineExceeded> {
        if let Some(cancel) = &self.cancel {
            if cancel.load(Ordering::Relaxed) {
                return Err(DeadlineExceeded::Cancelled);
            }
        }
        if let Some(at) = self.at {
            if Instant::now() >= at {
                return Err(DeadlineExceeded::TimedOut);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_deadline_never_fires() {
        let d = Deadline::none();
        assert!(d.is_unlimited());
        assert!(d.check().is_ok());
        assert_eq!(d.remaining(), None);
    }

    #[test]
    fn elapsed_budget_times_out() {
        let d = Deadline::within(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(d.check(), Err(DeadlineExceeded::TimedOut));
        assert_eq!(d.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn generous_budget_passes() {
        let d = Deadline::within(Duration::from_secs(3600));
        assert!(d.check().is_ok());
        assert!(d.remaining().unwrap() > Duration::from_secs(3000));
        assert!(!d.is_unlimited());
    }

    #[test]
    fn cancel_flag_trips_every_clone() {
        let flag = Arc::new(AtomicBool::new(false));
        let d = Deadline::within(Duration::from_secs(3600)).with_cancel(Arc::clone(&flag));
        let clone = d.clone();
        assert!(clone.check().is_ok());
        flag.store(true, Ordering::Relaxed);
        assert_eq!(d.check(), Err(DeadlineExceeded::Cancelled));
        assert_eq!(clone.check(), Err(DeadlineExceeded::Cancelled));
    }

    #[test]
    fn messages_are_stable() {
        assert_eq!(DeadlineExceeded::TimedOut.to_string(), "deadline exceeded");
        assert_eq!(DeadlineExceeded::Cancelled.to_string(), "cancelled");
    }
}
