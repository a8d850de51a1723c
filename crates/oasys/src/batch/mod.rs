//! Batch synthesis: run a manifest of specs × technologies on a
//! bounded set of worker threads, with resumable checkpoints and
//! per-job fault isolation.
//!
//! The paper evaluates OASYS the way a user would run it: the same
//! three specifications pushed through multiple processes (Tables 1–2),
//! not one invocation at a time. This module is that sweep as a first
//! class citizen:
//!
//! * [`Manifest`] expands `spec × tech` inputs into a [`Job`] list,
//!   each with a content [`fingerprint`] that identifies the work
//!   regardless of file names.
//! * [`Batch`] runs jobs on a bounded set of worker threads, streaming
//!   one [`JobRecord`] per job (JSON lines via
//!   [`JobRecord::render_json`]) and producing a deterministic
//!   aggregate ([`BatchReport::render_aggregate`]).
//! * [`Checkpoint`] persists completed fingerprints with their
//!   outcomes, so a killed run resumes without redoing finished work —
//!   and a resumed run aggregates byte-identically to an uninterrupted
//!   one.
//! * A panicking or diverging job fails **its own record only**;
//!   transient failures retry with capped exponential backoff.
//!
//! ```no_run
//! use oasys::batch::{Batch, BatchOptions, Manifest, SynthRunner};
//! use oasys_telemetry::Telemetry;
//! use std::sync::Arc;
//!
//! let manifest = Manifest::load("data/sweep.manifest")?;
//! let mut options = BatchOptions::default();
//! options.apply_manifest(&manifest.settings());
//! let tel = Telemetry::new();
//! let batch = Batch::new(manifest.expand()?, options)
//!     .with_checkpoint("sweep.checkpoint")?;
//! let report = batch.run(&Arc::new(SynthRunner::new()), &tel, |record| {
//!     println!("{}", record.render_json());
//! })?;
//! print!("{}", report.render_aggregate());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod checkpoint;
mod manifest;
mod runner;
mod synth_runner;

pub use checkpoint::{Checkpoint, CheckpointError, CheckpointOutcome, CHECKPOINT_HEADER};
pub(crate) use manifest::salted;
pub use manifest::{fingerprint, Job, Manifest, ManifestError, ManifestSettings, Sampling};
pub(crate) use runner::panic_text;
pub use runner::{
    Batch, BatchCounts, BatchReport, FailureKind, JobFailure, JobRecord, JobRunner, JobStatus,
    JobSuccess, StyleEntry,
};
pub(crate) use synth_runner::{AnswerFailure, Detail};
pub use synth_runner::{SynthRunner, DEFAULT_CACHE_ENTRIES};

use std::time::Duration;

/// Default per-job wall-clock budget.
pub const DEFAULT_JOB_TIMEOUT: Duration = Duration::from_secs(120);
/// Default retry cap for transient failures.
pub const DEFAULT_RETRIES: u32 = 2;
/// Default first-retry backoff; doubles per retry up to the cap.
pub const DEFAULT_BACKOFF_BASE: Duration = Duration::from_millis(50);
/// Default backoff ceiling.
pub const DEFAULT_BACKOFF_CAP: Duration = Duration::from_millis(800);

/// Tuning knobs for a [`Batch`] run.
///
/// Defaults: one worker per available CPU (capped at 8), a
/// [`DEFAULT_JOB_TIMEOUT`] budget per job, [`DEFAULT_RETRIES`] retries
/// for transient failures with 50 ms → 800 ms capped doubling backoff,
/// and verification enabled.
#[derive(Clone, Debug)]
pub struct BatchOptions {
    workers: usize,
    timeout: Option<Duration>,
    retries: u32,
    backoff_base: Duration,
    backoff_cap: Duration,
    verify: bool,
    search: crate::SearchOptions,
}

impl Default for BatchOptions {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .min(8);
        Self {
            workers,
            timeout: Some(DEFAULT_JOB_TIMEOUT),
            retries: DEFAULT_RETRIES,
            backoff_base: DEFAULT_BACKOFF_BASE,
            backoff_cap: DEFAULT_BACKOFF_CAP,
            verify: true,
            search: crate::SearchOptions::default(),
        }
    }
}

impl BatchOptions {
    /// Sets the worker-thread count (clamped to at least 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the per-job wall-clock budget; `None` disables the timeout.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.timeout = timeout;
        self
    }

    /// Sets the transient-failure retry cap.
    #[must_use]
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Sets the backoff base and ceiling.
    #[must_use]
    pub fn with_backoff(mut self, base: Duration, cap: Duration) -> Self {
        self.backoff_base = base;
        self.backoff_cap = cap;
        self
    }

    /// Enables or disables post-synthesis verification per job.
    #[must_use]
    pub fn with_verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Sets the style-search options each job runs with.
    #[must_use]
    pub fn with_search(mut self, search: crate::SearchOptions) -> Self {
        self.search = search;
        self
    }

    /// Overlays manifest-declared settings (`workers`, `timeout_ms`,
    /// `retries`, `verify`) onto these options; a `timeout_ms` of 0
    /// disables the per-job timeout.
    pub fn apply_manifest(&mut self, settings: &ManifestSettings) {
        if let Some(workers) = settings.workers {
            self.workers = workers.max(1);
        }
        if let Some(timeout) = settings.timeout {
            self.timeout = if timeout.is_zero() {
                None
            } else {
                Some(timeout)
            };
        }
        if let Some(retries) = settings.retries {
            self.retries = retries;
        }
        if let Some(verify) = settings.verify {
            self.verify = verify;
        }
    }

    /// Worker-thread count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Per-job wall-clock budget (`None` = unlimited).
    #[must_use]
    pub fn timeout(&self) -> Option<Duration> {
        self.timeout
    }

    /// Transient-failure retry cap.
    #[must_use]
    pub fn retries(&self) -> u32 {
        self.retries
    }

    /// Whether jobs verify their selected design.
    #[must_use]
    pub fn verify(&self) -> bool {
        self.verify
    }

    /// Style-search options jobs run with.
    #[must_use]
    pub fn search(&self) -> &crate::SearchOptions {
        &self.search
    }

    /// The sleep before retry number `attempt` (1-based): the base
    /// doubled per prior attempt, capped at the ceiling.
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        self.backoff_base
            .saturating_mul(factor)
            .min(self.backoff_cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let options = BatchOptions::default()
            .with_backoff(Duration::from_millis(50), Duration::from_millis(800));
        assert_eq!(options.backoff(1), Duration::from_millis(50));
        assert_eq!(options.backoff(2), Duration::from_millis(100));
        assert_eq!(options.backoff(3), Duration::from_millis(200));
        assert_eq!(options.backoff(10), Duration::from_millis(800));
    }

    #[test]
    fn manifest_settings_overlay() {
        let mut options = BatchOptions::default()
            .with_workers(4)
            .with_retries(2)
            .with_verify(true);
        options.apply_manifest(&ManifestSettings {
            workers: Some(2),
            timeout: Some(Duration::ZERO),
            retries: None,
            verify: Some(false),
        });
        assert_eq!(options.workers(), 2);
        assert_eq!(options.timeout(), None);
        assert_eq!(options.retries(), 2);
        assert!(!options.verify());
    }
}
