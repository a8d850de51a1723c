//! The batch runner: bounded concurrency, per-job fault isolation,
//! capped-backoff retries, checkpointing, and result streaming.
//!
//! Execution model:
//!
//! * A batch spawns its worker threads once per run. Each worker pops
//!   jobs from a shared queue and runs every attempt inline under
//!   `catch_unwind`, so a panicking plan fails **that job only**.
//! * The calling thread is the one supervisor. It owns the
//!   [`Telemetry`] handle, the checkpoint, and the result stream, and
//!   sleeps until a result arrives or the earliest stuck-job watchdog
//!   (twice the job budget) expires. An expired watchdog flags its
//!   attempt's cancel token, records the job as a timeout, and replaces
//!   the worker; the old thread is detached and ignored from then on.
//! * Failures a [`JobRunner`] marks transient are retried up to the
//!   retry cap, sleeping an exponential backoff (doubling from the base,
//!   capped) between attempts.
//! * Telemetry follows the fork/absorb protocol: seeds are forked up
//!   front on the supervisor, each attempt records into its own ring,
//!   and the surviving recordings are absorbed back in job order — so a
//!   manually-clocked batch trace of the same work is byte-identical
//!   regardless of worker count or scheduling. (Jobs sharing one design
//!   cache do not do the same work: which of them designs a shared
//!   sub-block first is a race, and its `cache=hit` annotation follows
//!   it.) Untraced batches still record each attempt into a small
//!   always-on flight ring, and a failed job dumps its trace tail into
//!   the structured record ([`JobRecord::flight`]).

use super::checkpoint::{Checkpoint, CheckpointError, CheckpointOutcome};
use super::manifest::Job;
use crate::batch::BatchOptions;
use crate::integrity::Salvage;
use oasys_faults::Deadline;
use oasys_telemetry::{json, Recording, Telemetry, TelemetrySeed};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Executes one job. Implementations must be shareable across the
/// batch's worker threads.
///
/// The batch supplies panic isolation and the wall-clock budget around
/// [`JobRunner::run`]; the runner itself only distinguishes *definitive*
/// answers ([`JobSuccess`], which includes "no style fits") from
/// failures, and marks which failures are worth retrying.
pub trait JobRunner: Send + Sync + 'static {
    /// Runs one job, recording into `tel` (a per-attempt handle forked
    /// from the batch telemetry). `deadline` is the job's cooperative
    /// wall-clock budget: runners should thread it into their plan
    /// executors and simulator loops so an over-budget job aborts cleanly
    /// at an internal checkpoint, and report the abort as a
    /// [`JobFailure::timed_out`] failure. The batch keeps a stuck-job
    /// watchdog backstop at twice the budget for runners that ignore
    /// the deadline; jobs it abandons are flagged in telemetry as
    /// `batch.jobs_stuck`.
    ///
    /// # Errors
    ///
    /// [`JobFailure`] when the job cannot produce a definitive answer;
    /// set [`JobFailure::transient`] when a retry might succeed.
    fn run(
        &self,
        job: &Job,
        tel: &Telemetry,
        deadline: &Deadline,
    ) -> Result<JobSuccess, JobFailure>;
}

/// One style's result inside a job record (mirrors the single-run
/// rejection table: every attempted style appears, feasible or not).
#[derive(Clone, Debug, PartialEq)]
pub struct StyleEntry {
    /// The style's display name.
    pub style: String,
    /// Estimated area when feasible, µm².
    pub area_um2: Option<f64>,
    /// Device count when feasible.
    pub devices: Option<usize>,
    /// Patch-rule notes when feasible (empty for a clean template).
    pub notes: Vec<String>,
    /// The rejection reason when infeasible.
    pub reason: Option<String>,
}

impl StyleEntry {
    /// `true` when this style met the specification.
    #[must_use]
    pub fn feasible(&self) -> bool {
        self.reason.is_none()
    }
}

/// A definitive job answer: either a selected design or a full set of
/// rejections.
#[derive(Clone, Debug)]
pub struct JobSuccess {
    selected: Option<(String, f64)>,
    pub(crate) styles: Vec<StyleEntry>,
    pub(crate) meets_spec: Option<bool>,
    pub(crate) detail: Option<String>,
}

impl JobSuccess {
    /// A feasible answer: `style` won at `area_um2`.
    #[must_use]
    pub fn feasible(style: impl Into<String>, area_um2: f64) -> Self {
        Self {
            selected: Some((style.into(), area_um2)),
            styles: Vec::new(),
            meets_spec: None,
            detail: None,
        }
    }

    /// An infeasible answer: every style was rejected.
    #[must_use]
    pub fn infeasible() -> Self {
        Self {
            selected: None,
            styles: Vec::new(),
            meets_spec: None,
            detail: None,
        }
    }

    /// Attaches the per-style breakdown.
    #[must_use]
    pub fn with_styles(mut self, styles: Vec<StyleEntry>) -> Self {
        self.styles = styles;
        self
    }

    /// Attaches the verification verdict (did the measured design meet
    /// every specified quantity).
    #[must_use]
    pub fn with_meets_spec(mut self, meets_spec: bool) -> Self {
        self.meets_spec = Some(meets_spec);
        self
    }

    /// Attaches an opaque runner payload (a rendered JSON object) that
    /// rides the record to the caller's sink. The batch JSONL schema
    /// ignores it; dataset generation uses it to carry the netlist and
    /// datasheet of the winning design into dataset records.
    #[must_use]
    pub fn with_detail(mut self, detail: impl Into<String>) -> Self {
        self.detail = Some(detail.into());
        self
    }

    /// The winning (style, area) pair, `None` when infeasible.
    #[must_use]
    pub fn selected(&self) -> Option<(&str, f64)> {
        self.selected.as_ref().map(|(s, a)| (s.as_str(), *a))
    }
}

/// A job attempt's failure, as reported by the [`JobRunner`].
#[derive(Clone, Debug)]
pub struct JobFailure {
    /// Human-readable description.
    pub message: String,
    /// `true` when a retry might succeed (I/O hiccup, resource
    /// exhaustion); synthesis infeasibility is *not* a failure, and
    /// deterministic errors should leave this `false`.
    pub transient: bool,
    /// `true` when the job stopped because its cooperative deadline
    /// expired — recorded as a timeout, not a hard error.
    pub timed_out: bool,
}

impl JobFailure {
    /// A permanent (non-retryable) failure.
    #[must_use]
    pub fn permanent(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            transient: false,
            timed_out: false,
        }
    }

    /// A transient (retryable) failure.
    #[must_use]
    pub fn transient(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            transient: true,
            timed_out: false,
        }
    }

    /// A cooperative-deadline failure: the job saw its budget expire and
    /// aborted cleanly.
    #[must_use]
    pub fn timed_out(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            transient: false,
            timed_out: true,
        }
    }
}

/// Why a job's record reports `failed`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The job panicked; the batch caught it and moved on.
    Panic,
    /// The job exceeded its wall-clock budget and was abandoned.
    Timeout,
    /// The runner reported a hard error (after exhausting any retries).
    Error,
}

impl FailureKind {
    pub(crate) fn word(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Timeout => "timeout",
            FailureKind::Error => "error",
        }
    }
}

/// How one job in the batch ended.
#[derive(Clone, Debug)]
pub enum JobStatus {
    /// A style was selected.
    Ok {
        /// Winning style name.
        style: String,
        /// Estimated area, µm².
        area_um2: f64,
    },
    /// Every style was rejected — a definitive, checkpointable answer.
    Infeasible,
    /// The job failed; the rest of the batch was unaffected.
    Failed {
        /// What kind of failure.
        kind: FailureKind,
        /// Human-readable description.
        message: String,
    },
    /// A prior run already completed this job (same fingerprint in the
    /// checkpoint); its recorded outcome rides along.
    Skipped {
        /// The outcome the checkpoint recorded for this fingerprint.
        prior: CheckpointOutcome,
    },
}

impl JobStatus {
    /// The checkpoint outcome this status persists as (`None` for
    /// skipped jobs, which are already on record).
    fn to_checkpoint(&self) -> Option<CheckpointOutcome> {
        match self {
            JobStatus::Ok { style, area_um2 } => Some(CheckpointOutcome::Ok {
                style: style.clone(),
                area_um2: *area_um2,
            }),
            JobStatus::Infeasible => Some(CheckpointOutcome::Infeasible),
            JobStatus::Failed { .. } => Some(CheckpointOutcome::Failed),
            JobStatus::Skipped { .. } => None,
        }
    }

    /// The job's effective answer: the selected (style, area), `None`
    /// when infeasible, or the failure's kind and message. Skipped jobs
    /// resolve to the outcome their checkpoint entry recorded, so a
    /// resumed batch aggregates identically to an uninterrupted one.
    pub(crate) fn effective(&self) -> Result<Option<(&str, f64)>, (FailureKind, &str)> {
        match self {
            JobStatus::Ok { style, area_um2 }
            | JobStatus::Skipped {
                prior: CheckpointOutcome::Ok { style, area_um2 },
            } => Ok(Some((style, *area_um2))),
            JobStatus::Infeasible
            | JobStatus::Skipped {
                prior: CheckpointOutcome::Infeasible,
            } => Ok(None),
            JobStatus::Failed { kind, message } => Err((*kind, message)),
            JobStatus::Skipped {
                prior: CheckpointOutcome::Failed,
            } => Err((FailureKind::Error, "failed in a prior run")),
        }
    }
}

/// One job's result record — the unit the batch streams as JSON lines.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// The job's position in the batch.
    pub job: usize,
    /// The specification input's label.
    pub spec: String,
    /// The technology input's label.
    pub tech: String,
    /// The job's content fingerprint.
    pub fingerprint: u64,
    /// How the job ended.
    pub status: JobStatus,
    /// Attempts made this run (0 for skipped jobs).
    pub attempts: u32,
    /// Wall-clock duration of this run's attempts, ns (0 for skipped).
    pub duration_ns: u64,
    /// Per-style breakdown (empty for skipped and failed jobs).
    pub styles: Vec<StyleEntry>,
    /// Verification verdict, when the runner measured the design.
    pub meets_spec: Option<bool>,
    /// Opaque runner payload ([`JobSuccess::with_detail`]); not part of
    /// the batch JSONL schema. Only the `sink` of [`Batch::run`] sees it:
    /// the [`BatchReport`] keeps every record with `detail: None`.
    pub detail: Option<String>,
    /// Flight-recorder tail: the last telemetry records of the failing
    /// attempt, rendered as short lines. Empty for jobs that succeeded
    /// (or were skipped / abandoned before recording anything).
    pub flight: Vec<String>,
}

impl JobRecord {
    /// Renders the record as one JSON line (no trailing newline).
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"schema\":\"oasys-batch-record\",\"v\":1,\"job\":{},\"spec\":{},\"tech\":{},\"fingerprint\":\"{:016x}\"",
            self.job,
            json::string(&self.spec),
            json::string(&self.tech),
            self.fingerprint
        ));
        match &self.status {
            JobStatus::Ok { style, area_um2 } => {
                out.push_str(&format!(
                    ",\"outcome\":\"ok\",\"style\":{},\"area_um2\":{}",
                    json::string(style),
                    json::number(*area_um2)
                ));
            }
            JobStatus::Infeasible => out.push_str(",\"outcome\":\"infeasible\""),
            JobStatus::Failed { kind, message } => {
                out.push_str(&format!(
                    ",\"outcome\":\"failed\",\"failure\":\"{}\",\"error\":{}",
                    kind.word(),
                    json::string(message)
                ));
                if !self.flight.is_empty() {
                    out.push_str(",\"flight\":[");
                    for (i, line) in self.flight.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(&json::string(line));
                    }
                    out.push(']');
                }
            }
            JobStatus::Skipped { prior } => {
                out.push_str(",\"outcome\":\"skipped\"");
                match prior {
                    CheckpointOutcome::Ok { style, area_um2 } => out.push_str(&format!(
                        ",\"prior_outcome\":\"ok\",\"style\":{},\"area_um2\":{}",
                        json::string(style),
                        json::number(*area_um2)
                    )),
                    CheckpointOutcome::Infeasible => {
                        out.push_str(",\"prior_outcome\":\"infeasible\"");
                    }
                    CheckpointOutcome::Failed => out.push_str(",\"prior_outcome\":\"failed\""),
                }
            }
        }
        out.push_str(&format!(
            ",\"attempts\":{},\"duration_ns\":{}",
            self.attempts, self.duration_ns
        ));
        if let Some(meets) = self.meets_spec {
            out.push_str(&format!(",\"meets_spec\":{meets}"));
        }
        if !self.styles.is_empty() {
            out.push_str(",\"styles\":[");
            for (i, entry) in self.styles.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"style\":{},\"feasible\":{}",
                    json::string(&entry.style),
                    entry.feasible()
                ));
                if let Some(area) = entry.area_um2 {
                    out.push_str(&format!(",\"area_um2\":{}", json::number(area)));
                }
                if let Some(devices) = entry.devices {
                    out.push_str(&format!(",\"devices\":{devices}"));
                }
                if !entry.notes.is_empty() {
                    out.push_str(&format!(
                        ",\"notes\":{}",
                        json::string(&entry.notes.join("; "))
                    ));
                }
                if let Some(reason) = &entry.reason {
                    out.push_str(&format!(",\"reason\":{}", json::string(reason)));
                }
                out.push('}');
            }
            out.push(']');
        }
        out.push('}');
        out
    }
}

/// Outcome counts over a finished batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchCounts {
    /// Jobs that selected a design this run.
    pub ok: usize,
    /// Jobs whose every style was rejected this run.
    pub infeasible: usize,
    /// Jobs that failed (panic, timeout, hard error).
    pub failed: usize,
    /// Jobs served from the checkpoint without re-running.
    pub skipped: usize,
}

/// A finished batch: every job's record, in job order.
#[derive(Clone, Debug)]
pub struct BatchReport {
    records: Vec<JobRecord>,
}

impl BatchReport {
    /// Every job's record, sorted by job id, each without its `detail`
    /// (the sink of [`Batch::run`] had it).
    #[must_use]
    pub fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// Outcome counts for this run.
    #[must_use]
    pub fn counts(&self) -> BatchCounts {
        let mut counts = BatchCounts::default();
        for record in &self.records {
            match record.status {
                JobStatus::Ok { .. } => counts.ok += 1,
                JobStatus::Infeasible => counts.infeasible += 1,
                JobStatus::Failed { .. } => counts.failed += 1,
                JobStatus::Skipped { .. } => counts.skipped += 1,
            }
        }
        counts
    }

    /// `true` when every job has a definitive answer (no failures —
    /// including none on record for skipped jobs).
    #[must_use]
    pub fn all_definitive(&self) -> bool {
        self.records.iter().all(|r| r.status.effective().is_ok())
    }

    /// Renders the deterministic aggregate document: one entry per job
    /// in job order with its *effective* outcome (checkpointed outcomes
    /// stand in for skipped jobs), plus a summary. Contains no
    /// timestamps, durations, or scheduling artifacts, so an
    /// uninterrupted run and a resumed run over the same inputs render
    /// byte-identical aggregates.
    #[must_use]
    pub fn render_aggregate(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"oasys-batch\",\n  \"version\": 1,\n");
        out.push_str("  \"jobs\": [\n");
        let mut ok = 0usize;
        let mut infeasible = 0usize;
        let mut failed = 0usize;
        let mut total_area = 0.0f64;
        for (i, record) in self.records.iter().enumerate() {
            let effective = record.status.effective();
            let (outcome, count) = match effective {
                Ok(Some(_)) => ("ok", &mut ok),
                Ok(None) => ("infeasible", &mut infeasible),
                Err(_) => ("failed", &mut failed),
            };
            *count += 1;
            let mut line = format!(
                "    {{\"job\": {}, \"spec\": {}, \"tech\": {}, \"fingerprint\": \"{:016x}\", \"outcome\": \"{outcome}\"",
                record.job,
                json::string(&record.spec),
                json::string(&record.tech),
                record.fingerprint
            );
            if let Ok(Some((style, area))) = effective {
                total_area += area;
                line.push_str(&format!(
                    ", \"style\": {}, \"area_um2\": {}",
                    json::string(style),
                    json::number(area)
                ));
            }
            line.push('}');
            if i + 1 != self.records.len() {
                line.push(',');
            }
            out.push_str(&line);
            out.push('\n');
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"summary\": {{\"jobs\": {}, \"ok\": {ok}, \"infeasible\": {infeasible}, \"failed\": {failed}, \"total_area_um2\": {}}}\n",
            self.records.len(),
            json::number(total_area)
        ));
        out.push_str("}\n");
        out
    }

    /// A one-line human summary.
    #[must_use]
    pub fn render_summary(&self) -> String {
        let counts = self.counts();
        format!(
            "batch: {} jobs — {} ok, {} infeasible, {} failed, {} skipped (resumed)",
            self.records.len(),
            counts.ok,
            counts.infeasible,
            counts.failed,
            counts.skipped
        )
    }
}

/// What one job execution produced (worker → supervisor message).
struct JobExecution {
    status: JobStatus,
    attempts: u32,
    duration_ns: u64,
    styles: Vec<StyleEntry>,
    meets_spec: Option<bool>,
    detail: Option<String>,
    retried: bool,
    /// `true` when the stuck-job watchdog abandoned the final attempt:
    /// the runner blew through twice its budget without reaching a
    /// cooperative-deadline checkpoint. Surfaced as the
    /// `batch.jobs_stuck` telemetry counter.
    stuck: bool,
    /// The final attempt's raw telemetry, absorbed into the batch trace
    /// when the attempt ran to completion (panicked attempts only feed
    /// the flight tail — their rings may hold unbalanced spans).
    recording: Option<Recording>,
    /// Flight-recorder tail for failed jobs (see [`JobRecord::flight`]).
    flight: Vec<String>,
}

impl JobExecution {
    /// A failed job with no telemetry attached.
    fn failed(
        kind: FailureKind,
        message: String,
        attempts: u32,
        start: Instant,
        retried: bool,
    ) -> Self {
        Self {
            status: JobStatus::Failed { kind, message },
            attempts,
            duration_ns: elapsed_ns(start),
            styles: Vec::new(),
            meets_spec: None,
            detail: None,
            retried,
            stuck: false,
            recording: None,
            flight: Vec::new(),
        }
    }
}

/// A configured batch, ready to run.
pub struct Batch {
    jobs: Vec<Job>,
    options: BatchOptions,
    checkpoint: Option<Checkpoint>,
}

impl Batch {
    /// A batch over `jobs` with the given options, no checkpoint.
    #[must_use]
    pub fn new(jobs: Vec<Job>, options: BatchOptions) -> Self {
        Self {
            jobs,
            options,
            checkpoint: None,
        }
    }

    /// Attaches a checkpoint file. Its completed jobs arm the resume
    /// path. Damage — a torn final line, a line whose seal fails, a
    /// foreign header — is repaired on open: the untrusted lines are
    /// dropped and their jobs re-run, so a half-written or corrupted
    /// record never masquerades as completed work. Check
    /// [`Batch::checkpoint_salvage`] to report the repair.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the file cannot be read or repaired.
    pub fn with_checkpoint(
        mut self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<Self, CheckpointError> {
        self.checkpoint = Some(Checkpoint::open(path)?);
        Ok(self)
    }

    /// What opening the attached checkpoint repaired (clean when there
    /// is no checkpoint).
    #[must_use]
    pub fn checkpoint_salvage(&self) -> Salvage {
        self.checkpoint
            .as_ref()
            .map_or_else(Salvage::default, Checkpoint::salvage)
    }

    /// `true` when [`Batch::with_checkpoint`] found damage and repaired
    /// it.
    #[must_use]
    pub fn recovered_checkpoint(&self) -> bool {
        !self.checkpoint_salvage().is_clean()
    }

    /// Checkpoint lines quarantined on open: their jobs are not trusted
    /// and simply re-run this batch. Also surfaced as the
    /// `batch.records_quarantined` telemetry counter.
    #[must_use]
    pub fn quarantined_records(&self) -> usize {
        self.checkpoint_salvage().quarantined
    }

    /// Jobs already completed by the attached checkpoint.
    #[must_use]
    pub fn resumable_count(&self) -> usize {
        let Some(checkpoint) = &self.checkpoint else {
            return 0;
        };
        self.jobs
            .iter()
            .filter(|j| checkpoint.completed(j.fingerprint()).is_some())
            .count()
    }

    /// Runs the batch to completion and returns the report.
    ///
    /// `sink` is invoked once per job, in **completion order** (the
    /// streaming view); the returned report is sorted by job id (the
    /// deterministic view). Opens a root `batch` span on `tel`, one
    /// `job:<id>` child per executed job (absorbed in job order), and
    /// maintains the `batch.jobs_{ok,failed,retried,skipped}` counters.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] when a checkpoint record cannot be written
    /// durably; jobs already in flight still drain, and their outcomes
    /// are lost to the checkpoint but not to the sink.
    pub fn run<R: JobRunner>(
        self,
        runner: &Arc<R>,
        tel: &Telemetry,
        mut sink: impl FnMut(&JobRecord),
    ) -> Result<BatchReport, CheckpointError> {
        let Batch {
            jobs,
            options,
            mut checkpoint,
            ..
        } = self;
        let root = tel.span(|| "batch".to_owned());
        root.annotate("jobs", || jobs.len().to_string());
        // Resume integrity: lines the checkpoint quarantined (failed
        // seal) surface in telemetry — their jobs simply re-run below.
        let quarantined = checkpoint.as_ref().map_or(0, |cp| cp.salvage().quarantined);
        if quarantined > 0 {
            tel.add("batch.records_quarantined", quarantined as u64);
            root.annotate("records_quarantined", || quarantined.to_string());
        }

        // Partition: checkpointed jobs short-circuit to skipped records;
        // the rest join the work queue with pre-forked telemetry seeds
        // (one per potential attempt — forking must stay on this thread,
        // which owns `tel`).
        let mut records: Vec<Option<JobRecord>> = Vec::new();
        records.resize_with(jobs.len(), || None);
        let mut pending: Vec<(Job, Vec<Option<TelemetrySeed>>)> = Vec::new();
        for job in jobs {
            if let Some(prior) = checkpoint
                .as_ref()
                .and_then(|cp| cp.completed(job.fingerprint()))
            {
                let record = JobRecord {
                    job: job.id(),
                    spec: job.spec_label().to_owned(),
                    tech: job.tech_label().to_owned(),
                    fingerprint: job.fingerprint(),
                    status: JobStatus::Skipped {
                        prior: prior.clone(),
                    },
                    attempts: 0,
                    duration_ns: 0,
                    styles: Vec::new(),
                    meets_spec: None,
                    detail: None,
                    flight: Vec::new(),
                };
                tel.incr("batch.jobs_skipped");
                sink(&record);
                let slot = record.job;
                records[slot] = Some(record);
            } else {
                let seeds = (0..=options.retries())
                    .map(|_| tel.fork_seed())
                    .collect::<Vec<_>>();
                pending.push((job, seeds));
            }
        }

        let mut checkpoint_error = None;
        let slots = pending.len();
        let mut supervisor = Supervisor::new(pending, Arc::clone(runner), &options);
        // Absorb job telemetry in job order after the batch drains,
        // so the batch trace is scheduling-independent.
        let mut job_recordings: Vec<(usize, Recording)> = Vec::new();
        for _ in 0..slots {
            let (job, mut execution) = supervisor.next_result();
            if let Some(recording) = execution.recording.take() {
                job_recordings.push((job.id(), recording));
            }
            let record = JobRecord {
                job: job.id(),
                spec: job.spec_label().to_owned(),
                tech: job.tech_label().to_owned(),
                fingerprint: job.fingerprint(),
                status: execution.status,
                attempts: execution.attempts,
                duration_ns: execution.duration_ns,
                styles: execution.styles,
                meets_spec: execution.meets_spec,
                detail: execution.detail,
                flight: execution.flight,
            };
            match &record.status {
                JobStatus::Failed { .. } => tel.incr("batch.jobs_failed"),
                _ => tel.incr("batch.jobs_ok"),
            }
            if execution.retried {
                tel.incr("batch.jobs_retried");
            }
            if execution.stuck {
                tel.incr("batch.jobs_stuck");
            }
            if checkpoint_error.is_none() {
                if let (Some(cp), Some(outcome)) =
                    (checkpoint.as_mut(), record.status.to_checkpoint())
                {
                    if let Err(e) =
                        cp.record(record.fingerprint, &outcome, &record.spec, &record.tech)
                    {
                        checkpoint_error = Some(e);
                    }
                }
            }
            sink(&record);
            let slot = record.job;
            records[slot] = Some(JobRecord {
                detail: None,
                ..record
            });
        }
        job_recordings.sort_by_key(|(id, _)| *id);
        for (_, recording) in &job_recordings {
            tel.absorb(recording);
        }

        let records: Vec<JobRecord> = records
            .into_iter()
            .map(|r| r.expect("every job produced a record"))
            .collect();
        let report = BatchReport { records };
        let counts = report.counts();
        root.annotate("ok", || (counts.ok + counts.infeasible).to_string());
        root.annotate("failed", || counts.failed.to_string());
        root.annotate("skipped", || counts.skipped.to_string());
        match checkpoint_error {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }
}

/// How many trailing telemetry records a failed job dumps into its
/// structured record.
const FLIGHT_TAIL_LINES: usize = 16;

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A job's index in [`Shared::jobs`] with its pre-forked telemetry
/// seeds, one per potential attempt.
type Queued = (usize, Vec<Option<TelemetrySeed>>);

/// A finished job as it travels from a worker to the supervisor.
type Finished = (usize, JobExecution);

/// What the supervisor and its workers share.
struct Shared<R> {
    jobs: Vec<Job>,
    queue: Mutex<VecDeque<Queued>>,
    runner: Arc<R>,
    options: BatchOptions,
}

/// The watchdog's view of one running attempt.
struct Attempt {
    /// The job's index in [`Shared::jobs`].
    index: usize,
    /// Attempts made so far, this one included.
    attempts: u32,
    retried: bool,
    job_start: Instant,
    /// Twice the budget after the attempt started.
    expires: Instant,
    /// Flagged when the watchdog gives up, so the attempt stops at its
    /// next deadline checkpoint if it ever reaches one.
    cancel: Arc<AtomicBool>,
}

/// One worker's watched attempt. The worker fills it before an attempt
/// and takes it back after; the supervisor takes it when the watchdog
/// expires. Whoever takes it first owns the job's record, so an
/// attempt that finishes just as its watchdog expires is reported once.
type Watch = Mutex<Option<Attempt>>;

/// The batch's one supervisor, run by the calling thread, and the
/// worker threads it keeps staffed.
struct Supervisor<R> {
    shared: Arc<Shared<R>>,
    results: mpsc::Receiver<Finished>,
    /// Cloned into every worker, replacements included.
    sender: mpsc::Sender<Finished>,
    /// The live workers; an abandoned worker leaves this list.
    watches: Vec<Arc<Watch>>,
    workers: usize,
}

impl<R: JobRunner> Supervisor<R> {
    fn new(
        pending: Vec<(Job, Vec<Option<TelemetrySeed>>)>,
        runner: Arc<R>,
        options: &BatchOptions,
    ) -> Self {
        let workers = options.workers().min(pending.len()).max(1);
        let (jobs, queue) = pending
            .into_iter()
            .enumerate()
            .map(|(index, (job, seeds))| (job, (index, seeds)))
            .unzip();
        let (sender, results) = mpsc::channel();
        Self {
            shared: Arc::new(Shared {
                jobs,
                queue: Mutex::new(queue),
                runner,
                options: options.clone(),
            }),
            results,
            sender,
            watches: Vec::new(),
            workers,
        }
    }

    /// The next finished job, in completion order. Call it once per
    /// job.
    fn next_result(&mut self) -> (&Job, JobExecution) {
        loop {
            if let Some((index, execution)) = self.staff().or_else(|| self.wait()) {
                return (&self.shared.jobs[index], execution);
            }
        }
    }

    /// Keeps `workers` threads on a non-empty queue. A failed spawn
    /// while other workers live only costs capacity. With none alive it
    /// is the next job's transient failure: retried with the batch's
    /// backoff, then recorded, so the batch never waits on a worker
    /// that does not exist.
    fn staff(&mut self) -> Option<Finished> {
        let start = Instant::now();
        let mut failures = 0;
        while self.watches.len() < self.workers && !lock(&self.shared.queue).is_empty() {
            let Err(error) = self.spawn_worker() else {
                continue;
            };
            if !self.watches.is_empty() {
                break;
            }
            failures += 1;
            let options = &self.shared.options;
            if failures <= options.retries() {
                std::thread::sleep(options.backoff(failures));
                continue;
            }
            let (index, _seeds) = lock(&self.shared.queue).pop_front()?;
            let message = format!("could not spawn a batch worker: {error}");
            let execution =
                JobExecution::failed(FailureKind::Error, message, failures, start, failures > 1);
            return Some((index, execution));
        }
        None
    }

    /// Spawns one detached worker thread.
    fn spawn_worker(&mut self) -> std::io::Result<()> {
        if oasys_faults::armed() {
            if let Some(msg) = oasys_faults::eval_err("batch.worker.spawn") {
                return Err(std::io::Error::other(msg));
            }
        }
        let watch = Arc::new(Watch::default());
        let (shared, worker_watch, results) = (
            Arc::clone(&self.shared),
            Arc::clone(&watch),
            self.sender.clone(),
        );
        std::thread::Builder::new()
            .name("oasys-batch-worker".to_owned())
            .spawn(move || work(&shared, &worker_watch, &results))?;
        self.watches.push(watch);
        Ok(())
    }

    /// Sleeps until a worker reports or the earliest watchdog expires;
    /// on expiry, abandons that attempt.
    fn wait(&mut self) -> Option<Finished> {
        let now = Instant::now();
        // An attempt that starts after `now` expires after `now` plus
        // twice the budget, so with none running that is the latest
        // safe wake-up.
        let wake = self.shared.options.timeout().and_then(|budget| {
            self.watches
                .iter()
                .filter_map(|w| lock(w).as_ref().map(|a| a.expires))
                .min()
                .or_else(|| now.checked_add(budget.saturating_mul(2)))
        });
        let Some(wake) = wake else {
            return self.results.recv().ok();
        };
        match self
            .results
            .recv_timeout(wake.saturating_duration_since(now))
        {
            Ok(finished) => Some(finished),
            Err(_) => self.abandon_expired(),
        }
    }

    /// Abandons one worker whose attempt outlived its watchdog: the
    /// runner blew through twice its budget without reaching a deadline
    /// checkpoint. Its cancel token is flagged, the job is recorded as
    /// stuck, and the next [`Supervisor::staff`] replaces the worker.
    fn abandon_expired(&mut self) -> Option<Finished> {
        let now = Instant::now();
        let (slot, attempt) = self.watches.iter().enumerate().find_map(|(slot, w)| {
            lock(w)
                .take_if(|a| a.expires <= now)
                .map(|attempt| (slot, attempt))
        })?;
        self.watches.swap_remove(slot);
        attempt.cancel.store(true, Ordering::Relaxed);
        let message = format!(
            "watchdog: job exceeded twice its {} ms budget without \
             reaching a deadline checkpoint and was abandoned as stuck",
            self.shared.options.timeout().map_or(0, |t| t.as_millis())
        );
        let execution = JobExecution {
            stuck: true,
            ..JobExecution::failed(
                FailureKind::Timeout,
                message,
                attempt.attempts,
                attempt.job_start,
                attempt.retried,
            )
        };
        Some((attempt.index, execution))
    }
}

/// A worker thread's loop: pops jobs until the queue is empty. It exits
/// early once the supervisor abandons it or stops listening.
fn work<R: JobRunner>(shared: &Shared<R>, watch: &Watch, results: &mpsc::Sender<Finished>) {
    loop {
        // A `let … else` drops the queue guard before the job runs.
        let Some((index, seeds)) = lock(&shared.queue).pop_front() else {
            return;
        };
        let Some(execution) = execute_job(shared, index, seeds, watch) else {
            return;
        };
        if results.send((index, execution)).is_err() {
            return;
        }
    }
}

/// Runs one job through its retry loop, every attempt inline on this
/// worker. `None` when the supervisor abandoned the worker mid-attempt.
///
/// Cancellation is two-tier: the preferred path is the cooperative
/// [`Deadline`] handed to the runner, which aborts inside the
/// computation at the next checkpoint (plan step boundary, Newton
/// iteration). The stuck-job watchdog at **twice** the budget only
/// fires for runners that never reach a deadline checkpoint.
fn execute_job<R: JobRunner>(
    shared: &Shared<R>,
    index: usize,
    seeds: Vec<Option<TelemetrySeed>>,
    watch: &Watch,
) -> Option<JobExecution> {
    let job = &shared.jobs[index];
    let options = &shared.options;
    let start = Instant::now();
    let mut attempts = 0u32;
    let mut retried = false;
    let mut seeds = seeds.into_iter();
    loop {
        attempts += 1;
        let cancel = Arc::new(AtomicBool::new(false));
        let deadline = options
            .timeout()
            .map_or_else(Deadline::none, Deadline::within)
            .with_cancel(Arc::clone(&cancel));
        let watchdog = options
            .timeout()
            .and_then(|budget| Instant::now().checked_add(budget.saturating_mul(2)));
        if let Some(expires) = watchdog {
            *lock(watch) = Some(Attempt {
                index,
                attempts,
                retried,
                job_start: start,
                expires,
                cancel,
            });
        }
        let outcome = run_attempt(job, seeds.next().flatten(), &*shared.runner, &deadline);
        if watchdog.is_some() && lock(watch).take().is_none() {
            return None;
        }
        match outcome {
            AttemptOutcome::Done(Ok(success), recording) => {
                let status = match success.selected {
                    Some((style, area_um2)) => JobStatus::Ok { style, area_um2 },
                    None => JobStatus::Infeasible,
                };
                return Some(JobExecution {
                    status,
                    attempts,
                    duration_ns: elapsed_ns(start),
                    styles: success.styles,
                    meets_spec: success.meets_spec,
                    detail: success.detail,
                    retried,
                    stuck: false,
                    recording: Some(recording),
                    flight: Vec::new(),
                });
            }
            AttemptOutcome::Done(Err(failure), recording) => {
                if failure.transient && attempts <= options.retries() {
                    retried = true;
                    std::thread::sleep(options.backoff(attempts));
                    continue;
                }
                let kind = if failure.timed_out {
                    FailureKind::Timeout
                } else {
                    FailureKind::Error
                };
                return Some(JobExecution {
                    flight: recording.tail_lines(FLIGHT_TAIL_LINES),
                    recording: Some(recording),
                    ..JobExecution::failed(kind, failure.message, attempts, start, retried)
                });
            }
            // A panicked ring may hold unbalanced spans; mine it for the
            // flight tail but keep it out of the batch trace.
            AttemptOutcome::Panicked(message, recording) => {
                return Some(JobExecution {
                    flight: recording.tail_lines(FLIGHT_TAIL_LINES),
                    ..JobExecution::failed(FailureKind::Panic, message, attempts, start, retried)
                });
            }
        }
    }
}

enum AttemptOutcome {
    /// The runner returned; its telemetry recording rides along.
    Done(Result<JobSuccess, JobFailure>, Recording),
    /// The runner panicked; the payload message survives, and — because
    /// the telemetry handle lives outside the unwind boundary — so does
    /// the recording, whose tail becomes the job's flight dump.
    Panicked(String, Recording),
}

/// Runs one attempt on the calling worker under `catch_unwind`. A job
/// without a forked seed (untraced batch) still records into a small
/// always-on flight ring.
fn run_attempt<R: JobRunner>(
    job: &Job,
    seed: Option<TelemetrySeed>,
    runner: &R,
    deadline: &Deadline,
) -> AttemptOutcome {
    let tel = seed.map_or_else(Telemetry::flight, TelemetrySeed::build);
    let payload = catch_unwind(AssertUnwindSafe(|| {
        let span = tel.span_display("job:", &job.id());
        span.annotate("spec", || job.spec_label().to_owned());
        span.annotate("tech", || job.tech_label().to_owned());
        let start_ns = tel.clock_ns();
        // Fault plane: an armed `batch.attempt` site fails this attempt
        // before the runner starts, exercising the retry/backoff path.
        let injected = if oasys_faults::armed() {
            oasys_faults::eval_err("batch.attempt")
        } else {
            None
        };
        let result = match injected {
            Some(msg) => Err(JobFailure::transient(format!("fault injected: {msg}"))),
            None => runner.run(job, &tel, deadline),
        };
        tel.observe(
            "batch.job_latency_ns",
            tel.clock_ns().saturating_sub(start_ns),
        );
        span.annotate("outcome", || {
            match &result {
                Ok(s) if s.selected.is_some() => "ok",
                Ok(_) => "infeasible",
                Err(_) => "failed",
            }
            .to_owned()
        });
        result
    }));
    let recording = tel.into_recording();
    match payload {
        Ok(result) => AttemptOutcome::Done(result, recording),
        Err(payload) => {
            let message = panic_text(payload.as_ref()).unwrap_or("panic with a non-string payload");
            AttemptOutcome::Panicked(message.to_owned(), recording)
        }
    }
}

/// The text a panic was raised with, when its payload is a string.
pub(crate) fn panic_text(payload: &(dyn std::any::Any + Send)) -> Option<&str> {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
}
