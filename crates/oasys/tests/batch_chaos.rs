//! Chaos suite: the 3×3 paper sweep (and mock equivalents) driven
//! through the `oasys-faults` plane — injected panics, delays that trip
//! the cooperative deadline, transient errors that exercise
//! retry/backoff, failed worker spawns, and torn checkpoint writes —
//! asserting per-job isolation, clean cancellation, and byte-identical
//! resumed aggregates.
//!
//! The fault registry is process-global, so every test holds `FAULT_LOCK`
//! and clears the registry on exit (including panicking exits) via
//! [`FaultGuard`].

use oasys::batch::{
    Batch, BatchOptions, FailureKind, Job, JobFailure, JobRunner, JobStatus, JobSuccess, Manifest,
    SynthRunner,
};
use oasys::SearchOptions;
use oasys_faults::{Deadline, FaultSpec};
use oasys_telemetry::Telemetry;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Serializes fault-plane tests and guarantees a clean registry on exit.
struct FaultGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl FaultGuard {
    fn acquire() -> Self {
        let guard = FAULT_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        oasys_faults::clear();
        Self(guard)
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        oasys_faults::clear();
    }
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("oasys-batch-chaos-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn paper_jobs() -> Vec<Job> {
    let manifest = Manifest::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../data/sweep.manifest"
    ))
    .unwrap();
    let jobs = manifest.expand().unwrap();
    assert_eq!(jobs.len(), 9, "3 specs × 3 techs");
    jobs
}

fn mock_jobs() -> Vec<Job> {
    let mut jobs = Vec::new();
    for s in 0..3 {
        for t in 0..3 {
            jobs.push(Job::from_texts(
                jobs.len(),
                format!("spec-{s}"),
                format!("spec text {s}"),
                format!("tech-{t}"),
                format!("tech text {t}"),
            ));
        }
    }
    jobs
}

fn fast_options() -> BatchOptions {
    BatchOptions::default()
        .with_workers(3)
        .with_timeout(Some(Duration::from_secs(30)))
        .with_backoff(Duration::from_millis(1), Duration::from_millis(4))
}

/// Search options for fault-injection runs: static feasibility pruning
/// is disabled so every style's plan actually executes — a statically
/// pruned style never reaches the injected fault sites, and some sweep
/// jobs (e.g. a 75 dB spec on the 1.2 µm tech) prune every style.
fn execute_everything() -> SearchOptions {
    SearchOptions::new().with_static_pruning(false)
}

/// Deterministic stand-in runner: area is a function of the job id.
struct MockRunner;

impl JobRunner for MockRunner {
    fn run(
        &self,
        job: &Job,
        _tel: &Telemetry,
        _deadline: &Deadline,
    ) -> Result<JobSuccess, JobFailure> {
        if job.spec_label() == "spec-2" {
            return Ok(JobSuccess::infeasible());
        }
        Ok(JobSuccess::feasible(
            "two-stage",
            1000.0 + (job.id() as f64) * 17.25,
        ))
    }
}

#[test]
fn injected_panic_fails_each_job_alone_and_the_sweep_survives() {
    let _guard = FaultGuard::acquire();
    // Every plan step panics: the worst knowledge-base bug imaginable.
    oasys_faults::set("plan.step", FaultSpec::Panic);

    let tel = Telemetry::new();
    let runner = Arc::new(
        SynthRunner::new()
            .with_verify(false)
            .with_search(execute_everything()),
    );
    let report = Batch::new(paper_jobs(), fast_options())
        .run(&runner, &tel, |_| {})
        .unwrap();

    assert_eq!(report.records().len(), 9, "no job takes down the batch");
    assert_eq!(report.counts().failed, 9);
    for record in report.records() {
        match &record.status {
            JobStatus::Failed { kind, message } => {
                assert_eq!(*kind, FailureKind::Panic);
                assert!(message.contains("injected panic at plan.step"), "{message}");
                assert_eq!(record.attempts, 1, "panics are not retried");
            }
            other => panic!("expected a panic failure, got {other:?}"),
        }
    }
    assert_eq!(tel.counter("batch.jobs_failed"), 9);
}

#[test]
fn failed_jobs_dump_a_flight_recorder_tail_into_their_records() {
    let _guard = FaultGuard::acquire();
    // A panic deep inside plan execution, with batch telemetry OFF: the
    // always-on flight ring must still carry the last records across
    // the unwind boundary into the failed job's JSONL record, naming
    // the work that was in progress when the job died.
    oasys_faults::set("plan.step", FaultSpec::Panic);

    let runner = Arc::new(
        SynthRunner::new()
            .with_verify(false)
            .with_search(execute_everything()),
    );
    let report = Batch::new(paper_jobs(), fast_options())
        .run(&runner, &Telemetry::disabled(), |_| {})
        .unwrap();

    assert_eq!(report.counts().failed, 9);
    for record in report.records() {
        assert!(!record.flight.is_empty(), "failed job carries a tail");
        // The panic fires inside the first step of the first plan, so
        // the tail must show the step span opening and its fused
        // step_started event — the exact crash site, post-mortem.
        assert!(
            record.flight.iter().any(|l| l.starts_with("open step:")),
            "tail names the in-progress step: {:?}",
            record.flight
        );
        assert!(
            record.flight.iter().any(|l| l == "event step_started"),
            "tail carries the fused boundary event: {:?}",
            record.flight
        );
        let line = record.render_json();
        assert!(line.contains("\"flight\":[\""), "{line}");
        assert!(line.contains("open step:"), "{line}");
    }
}

#[test]
fn delay_fault_trips_the_cooperative_deadline_not_the_backstop() {
    let _guard = FaultGuard::acquire();
    // Each style attempt stalls for 450 ms against a 300 ms budget. The
    // cooperative deadline must abort the job (message says "aborted")
    // before the 600 ms watchdog backstop gives up on the thread
    // (whose message says "budget").
    oasys_faults::set("engine.style", FaultSpec::Delay(450));

    let runner = Arc::new(
        SynthRunner::new()
            .with_verify(false)
            // One style per job, so each job stalls exactly once.
            .with_search(execute_everything().with_styles(vec!["two-stage".to_owned()])),
    );
    let report = Batch::new(
        paper_jobs(),
        fast_options().with_timeout(Some(Duration::from_millis(300))),
    )
    .run(&runner, &Telemetry::disabled(), |_| {})
    .unwrap();

    assert_eq!(report.counts().failed, 9);
    for record in report.records() {
        match &record.status {
            JobStatus::Failed { kind, message } => {
                assert_eq!(*kind, FailureKind::Timeout, "{message}");
                assert!(message.contains("aborted"), "cooperative path: {message}");
                assert!(message.contains("deadline exceeded"), "{message}");
            }
            other => panic!("expected a timeout, got {other:?}"),
        }
    }
}

#[test]
fn transient_fault_retries_with_backoff_then_succeeds() {
    let _guard = FaultGuard::acquire();
    // Exactly one attempt (the first to hit the site) fails transiently.
    oasys_faults::set("batch.attempt", FaultSpec::FailOnce);

    let tel = Telemetry::new();
    let report = Batch::new(mock_jobs(), fast_options())
        .run(&Arc::new(MockRunner), &tel, |_| {})
        .unwrap();

    assert_eq!(report.counts().failed, 0, "the retry absorbed the fault");
    assert_eq!(tel.counter("batch.jobs_retried"), 1);
    let total_attempts: u32 = report.records().iter().map(|r| r.attempts).sum();
    assert_eq!(total_attempts, 10, "nine jobs plus one retried attempt");
    let retried = report.records().iter().find(|r| r.attempts == 2).unwrap();
    assert!(matches!(
        retried.status,
        JobStatus::Ok { .. } | JobStatus::Infeasible
    ));
}

#[test]
fn exhausted_transient_faults_name_the_failing_site_in_the_record() {
    let _guard = FaultGuard::acquire();
    // Every attempt fails: the retry budget runs out and the record
    // must carry the injected site name verbatim.
    oasys_faults::set("batch.attempt", FaultSpec::Err(None));

    let report = Batch::new(mock_jobs(), fast_options().with_retries(1))
        .run(&Arc::new(MockRunner), &Telemetry::disabled(), |_| {})
        .unwrap();

    assert_eq!(report.counts().failed, 9);
    for record in report.records() {
        assert_eq!(record.attempts, 2, "one retry, then the failure sticks");
        let line = record.render_json();
        assert!(line.contains("\"failure\":\"error\""), "{line}");
        assert!(line.contains("injected fault at batch.attempt"), "{line}");
    }
}

#[test]
fn plan_step_faults_surface_the_failing_site_in_style_reasons() {
    let _guard = FaultGuard::acquire();
    // Injected step failures reject every style; the structured
    // PlanError context (plan and step names) must reach the JSONL
    // record verbatim through the rejection reasons.
    oasys_faults::set("plan.step", FaultSpec::Err(None));

    let runner = Arc::new(
        SynthRunner::new()
            .with_verify(false)
            .with_search(execute_everything()),
    );
    let report = Batch::new(paper_jobs(), fast_options())
        .run(&runner, &Telemetry::disabled(), |_| {})
        .unwrap();

    assert_eq!(
        report.counts().infeasible,
        9,
        "rejected styles are a definitive answer, not a crash"
    );
    for record in report.records() {
        let line = record.render_json();
        assert!(line.contains("injected fault at plan.step"), "{line}");
        assert!(
            line.contains("plan `") && line.contains("step `"),
            "record must name the failing plan and step: {line}"
        );
    }
}

#[test]
fn torn_checkpoint_write_recovers_and_resumes_byte_identical() {
    let _guard = FaultGuard::acquire();
    let path = tmp("torn-resume");

    // Uninterrupted baseline.
    let baseline = Batch::new(mock_jobs(), fast_options())
        .run(&Arc::new(MockRunner), &Telemetry::disabled(), |_| {})
        .unwrap();

    // The first checkpoint append tears mid-write, as if the process
    // died. The run surfaces the checkpoint failure after draining.
    oasys_faults::set("batch.checkpoint.record", FaultSpec::FailOnce);
    let err = Batch::new(mock_jobs(), fast_options())
        .with_checkpoint(&path)
        .unwrap()
        .run(&Arc::new(MockRunner), &Telemetry::disabled(), |_| {})
        .unwrap_err();
    assert!(err.to_string().contains("torn"), "{err}");
    oasys_faults::clear();
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(!text.ends_with('\n'), "the file really is torn: {text:?}");

    // Resume: the torn record is dropped and repaired, every job re-runs,
    // and the aggregate is byte-identical to the uninterrupted run.
    let batch = Batch::new(mock_jobs(), fast_options())
        .with_checkpoint(&path)
        .unwrap();
    assert!(batch.recovered_checkpoint(), "torn line must be reported");
    assert_eq!(batch.resumable_count(), 0, "the only record was torn");
    let resumed = batch
        .run(&Arc::new(MockRunner), &Telemetry::disabled(), |_| {})
        .unwrap();
    assert_eq!(resumed.render_aggregate(), baseline.render_aggregate());

    // And a third run resumes fully from the repaired checkpoint,
    // still byte-identical.
    let batch = Batch::new(mock_jobs(), fast_options())
        .with_checkpoint(&path)
        .unwrap();
    assert!(!batch.recovered_checkpoint());
    assert_eq!(batch.resumable_count(), 9);
    let skipped = batch
        .run(&Arc::new(MockRunner), &Telemetry::disabled(), |_| {})
        .unwrap();
    assert_eq!(skipped.counts().skipped, 9);
    assert_eq!(skipped.render_aggregate(), baseline.render_aggregate());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn failed_worker_spawns_fail_jobs_instead_of_hanging_the_batch() {
    let _guard = FaultGuard::acquire();
    // No worker thread ever starts. With none alive, each failed spawn
    // is the next job's transient failure: retried with backoff, then
    // recorded, so the batch still returns one record per job.
    oasys_faults::set("batch.worker.spawn", FaultSpec::Err(None));

    let report = Batch::new(mock_jobs(), fast_options().with_retries(1))
        .run(&Arc::new(MockRunner), &Telemetry::disabled(), |_| {})
        .unwrap();

    assert_eq!(report.counts().failed, 9);
    for record in report.records() {
        assert_eq!(record.attempts, 2, "one retry, then the failure sticks");
        let line = record.render_json();
        assert!(line.contains("\"failure\":\"error\""), "{line}");
        assert!(
            line.contains("could not spawn a batch worker: injected fault at batch.worker.spawn"),
            "{line}"
        );
    }
}

#[test]
fn a_failed_worker_spawn_is_retried_and_the_batch_completes() {
    let _guard = FaultGuard::acquire();
    oasys_faults::set("batch.worker.spawn", FaultSpec::FailOnce);

    let report = Batch::new(mock_jobs(), fast_options().with_workers(1))
        .run(&Arc::new(MockRunner), &Telemetry::disabled(), |_| {})
        .unwrap();

    assert_eq!(report.counts().failed, 0, "the second spawn ran every job");
    assert!(report.all_definitive());
}

#[test]
fn flipped_checkpoint_byte_is_quarantined_and_resume_is_byte_identical() {
    let _guard = FaultGuard::acquire();
    let path = tmp("flipped-checkpoint");

    // Uninterrupted baseline, then a full checkpointed run.
    let baseline = Batch::new(mock_jobs(), fast_options())
        .run(&Arc::new(MockRunner), &Telemetry::disabled(), |_| {})
        .unwrap();
    Batch::new(mock_jobs(), fast_options())
        .with_checkpoint(&path)
        .unwrap()
        .run(&Arc::new(MockRunner), &Telemetry::disabled(), |_| {})
        .unwrap();

    // Silent bit rot in the middle of the fourth record line — no torn
    // tail, no missing newline, just one flipped bit.
    let mut bytes = std::fs::read(&path).unwrap();
    let line_starts: Vec<usize> = std::iter::once(0)
        .chain(
            bytes
                .iter()
                .enumerate()
                .filter(|(_, &b)| b == b'\n')
                .map(|(i, _)| i + 1),
        )
        .collect();
    let (start, end) = (line_starts[4], line_starts[5]);
    let mid = start + (end - start) / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    // The damaged line is quarantined (never trusted, never fatal); its
    // job re-runs while the other eight resume, and the aggregate is
    // byte-identical to the uninterrupted run.
    let batch = Batch::new(mock_jobs(), fast_options())
        .with_checkpoint(&path)
        .unwrap();
    assert_eq!(batch.quarantined_records(), 1);
    assert_eq!(batch.resumable_count(), 8);
    let tel = Telemetry::new();
    let resumed = batch.run(&Arc::new(MockRunner), &tel, |_| {}).unwrap();
    assert_eq!(resumed.counts().skipped, 8);
    assert_eq!(tel.counter("batch.records_quarantined"), 1);
    assert_eq!(resumed.render_aggregate(), baseline.render_aggregate());

    // The heal (and the re-run's fresh record) are durable: a clean
    // reopen quarantines nothing and resumes all nine jobs.
    let batch = Batch::new(mock_jobs(), fast_options())
        .with_checkpoint(&path)
        .unwrap();
    assert_eq!(batch.quarantined_records(), 0);
    assert_eq!(batch.resumable_count(), 9);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn disarmed_plane_leaves_the_sweep_untouched() {
    let _guard = FaultGuard::acquire();
    // Arm then clear: a cleared registry must behave exactly like one
    // that was never configured.
    oasys_faults::set("plan.step", FaultSpec::Err(None));
    oasys_faults::clear();
    assert!(!oasys_faults::armed());

    let runner = Arc::new(SynthRunner::new().with_verify(false));
    let report = Batch::new(paper_jobs(), fast_options())
        .run(&runner, &Telemetry::disabled(), |_| {})
        .unwrap();
    assert_eq!(report.counts().failed, 0);
    assert!(report.all_definitive());
}
