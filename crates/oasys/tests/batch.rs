//! Integration tests for the batch execution layer: the 3×3 paper
//! sweep, checkpoint/resume determinism, corrupt-checkpoint recovery,
//! and per-job fault isolation (panics, timeouts, transient retries).

use oasys::batch::{
    Batch, BatchOptions, CheckpointOutcome, FailureKind, Job, JobFailure, JobRecord, JobRunner,
    JobStatus, JobSuccess, Manifest, SynthRunner, CHECKPOINT_HEADER,
};
use oasys_faults::Deadline;
use oasys_telemetry::{ManualClock, Telemetry};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("oasys-batch-int-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn manifest_path() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../data/sweep.manifest").to_owned()
}

/// Nine synthetic jobs (labels a0…a2 × t0…t2) for the mock-runner tests.
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

/// A deterministic in-memory runner: area is a function of the labels,
/// spec index 2 is infeasible.
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
        let area = 1000.0 + (job.id() as f64) * 17.25;
        Ok(JobSuccess::feasible("two-stage", area))
    }
}

/// Collects streamed records for assertions.
fn collect(records: &Mutex<Vec<JobRecord>>) -> impl FnMut(&JobRecord) + '_ {
    move |record| records.lock().unwrap().push(record.clone())
}

#[test]
fn real_sweep_streams_one_record_per_job() {
    let manifest = Manifest::load(manifest_path()).unwrap();
    let jobs = manifest.expand().unwrap();
    assert_eq!(jobs.len(), 9, "3 specs × 3 techs");

    let tel = Telemetry::new();
    let streamed = Mutex::new(Vec::new());
    let runner = Arc::new(SynthRunner::new().with_verify(false));
    let report = Batch::new(jobs, fast_options())
        .run(&runner, &tel, collect(&streamed))
        .unwrap();

    let streamed = streamed.into_inner().unwrap();
    assert_eq!(streamed.len(), 9, "one streamed record per job");
    assert_eq!(report.records().len(), 9);
    // The report is sorted by job id whatever the completion order.
    for (idx, record) in report.records().iter().enumerate() {
        assert_eq!(record.job, idx);
        assert!(record.attempts >= 1);
        assert!(
            !record.styles.is_empty(),
            "every executed job keeps its style table"
        );
    }
    let counts = report.counts();
    assert_eq!(counts.ok + counts.infeasible, 9, "every job is definitive");
    assert!(counts.ok >= 5, "most paper jobs are feasible: {counts:?}");
    assert!(report.all_definitive());
    assert_eq!(tel.counter("batch.jobs_ok"), 9);
    assert_eq!(tel.counter("batch.jobs_failed"), 0);
    // Same-process jobs share a memo cache across the sweep.
    assert!(tel.counter("engine.cache_hits") > 0);
    // Every record renders as one parsable JSON line.
    for record in report.records() {
        let line = record.render_json();
        assert!(!line.contains('\n'));
        let parsed = oasys_telemetry::json::parse(&line).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(|j| j.as_str()),
            Some("oasys-batch-record")
        );
    }
}

#[test]
fn resumed_run_skips_completed_and_aggregate_is_byte_identical() {
    let path = tmp("resume");
    let jobs = mock_jobs();
    let runner = Arc::new(MockRunner);

    // Uninterrupted baseline, no checkpoint.
    let tel = Telemetry::with_clock(Rc::new(ManualClock::new()));
    let baseline = Batch::new(jobs.clone(), fast_options())
        .run(&runner, &tel, |_| {})
        .unwrap();

    // "Killed mid-run": only the first five jobs reach the checkpoint.
    let tel = Telemetry::with_clock(Rc::new(ManualClock::new()));
    let partial: Vec<Job> = jobs.iter().take(5).cloned().collect();
    Batch::new(partial, fast_options().with_workers(1))
        .with_checkpoint(&path)
        .unwrap()
        .run(&runner, &tel, |_| {})
        .unwrap();

    // Resume over the full job list.
    let tel = Telemetry::with_clock(Rc::new(ManualClock::new()));
    let resumed = Batch::new(jobs, fast_options())
        .with_checkpoint(&path)
        .unwrap()
        .run(&runner, &tel, |_| {})
        .unwrap();

    let counts = resumed.counts();
    assert_eq!(counts.skipped, 5, "completed jobs are not redone");
    assert_eq!(tel.counter("batch.jobs_skipped"), 5);
    assert_eq!(counts.ok + counts.infeasible, 4);
    assert_eq!(
        resumed.render_aggregate(),
        baseline.render_aggregate(),
        "resumed aggregate must be byte-identical to an uninterrupted run"
    );
    for record in resumed.records().iter().take(5) {
        assert!(matches!(record.status, JobStatus::Skipped { .. }));
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn corrupt_checkpoint_is_discarded_and_batch_restarts_cleanly() {
    // Garbage that never was a checkpoint: nothing in it can be trusted.
    let path = tmp("corrupt-garbage");
    std::fs::write(&path, "not a checkpoint at all\n").unwrap();

    let batch = Batch::new(mock_jobs(), fast_options())
        .with_checkpoint(&path)
        .unwrap();
    assert!(batch.recovered_checkpoint(), "corruption must be detected");
    assert_eq!(batch.resumable_count(), 0, "no stale entries survive");
    let report = batch
        .run(&Arc::new(MockRunner), &Telemetry::disabled(), |_| {})
        .unwrap();
    assert_eq!(report.counts().skipped, 0, "everything re-runs");
    assert_eq!(report.records().len(), 9);
    // The rewritten checkpoint is valid: a follow-up run resumes fully.
    let batch = Batch::new(mock_jobs(), fast_options())
        .with_checkpoint(&path)
        .unwrap();
    assert!(!batch.recovered_checkpoint());
    assert_eq!(batch.resumable_count(), 9);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn torn_checkpoint_line_resumes_from_the_durable_prefix() {
    // A kill mid-append tears the final record; every earlier record is
    // durable. The torn record's job re-runs, the rest resume.
    let path = tmp("corrupt-truncated");
    let jobs = mock_jobs();
    let durable = &jobs[0];
    let mut text = format!("{CHECKPOINT_HEADER}\n");
    text.push_str(&format!(
        "{}\n",
        oasys::integrity::seal_line(&format!(
            "{:016x}\tok\ttwo-stage\t{:016x}\t{}\t{}",
            durable.fingerprint(),
            1000.0_f64.to_bits(),
            durable.spec_label(),
            durable.tech_label()
        ))
    ));
    text.push_str("00000000000000ff\tok\ttwo-"); // torn mid-write
    std::fs::write(&path, text).unwrap();

    let batch = Batch::new(mock_jobs(), fast_options())
        .with_checkpoint(&path)
        .unwrap();
    assert!(batch.recovered_checkpoint(), "torn line must be reported");
    assert_eq!(batch.resumable_count(), 1, "the durable record survives");
    let report = batch
        .run(&Arc::new(MockRunner), &Telemetry::disabled(), |_| {})
        .unwrap();
    assert_eq!(report.counts().skipped, 1, "only the durable job skips");
    assert!(matches!(
        report.records()[0].status,
        JobStatus::Skipped { .. }
    ));
    // The repaired checkpoint is fully valid afterwards.
    let batch = Batch::new(mock_jobs(), fast_options())
        .with_checkpoint(&path)
        .unwrap();
    assert!(!batch.recovered_checkpoint());
    assert_eq!(batch.resumable_count(), 9);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn crash_at_every_byte_of_the_checkpoint_resumes_byte_identical() {
    // At one worker the checkpoint is written in job order, so a resume
    // rewrites it byte for byte as well.
    let options = fast_options().with_workers(1);
    let path = tmp("crash-model");
    let run = |batch: Batch| {
        batch
            .run(&Arc::new(MockRunner), &Telemetry::disabled(), |_| {})
            .unwrap()
    };
    let baseline = run(Batch::new(mock_jobs(), options.clone())
        .with_checkpoint(&path)
        .unwrap());
    let written = std::fs::read(&path).unwrap();

    let cut = tmp("crash-model-cut");
    let resume_from = |bytes: &[u8]| {
        std::fs::write(&cut, bytes).unwrap();
        let batch = Batch::new(mock_jobs(), options.clone())
            .with_checkpoint(&cut)
            .unwrap();
        let skipped = batch.resumable_count();
        let resumed = run(batch);
        assert_eq!(resumed.render_aggregate(), baseline.render_aggregate());
        assert_eq!(std::fs::read(&cut).unwrap(), written);
        let reopened = Batch::new(mock_jobs(), options.clone())
            .with_checkpoint(&cut)
            .unwrap();
        assert!(!reopened.recovered_checkpoint());
        assert_eq!(reopened.resumable_count(), 9);
        skipped
    };
    // A kill during the write at byte k leaves the first k bytes.
    for k in 0..=written.len() {
        resume_from(&written[..k]);
    }
    // The legacy unsealed v1 format holds the same records, yet none is
    // trusted: every job re-runs.
    let mut v1 = String::from("oasys-batch-checkpoint v1\n");
    for line in String::from_utf8(written.clone()).unwrap().lines().skip(1) {
        v1.push_str(line.rsplit_once('\t').unwrap().0);
        v1.push('\n');
    }
    assert_eq!(resume_from(v1.as_bytes()), 0);
    std::fs::remove_file(&path).unwrap();
    std::fs::remove_file(&cut).unwrap();
}

/// Panics on one specific job, succeeds on the rest.
struct PanickyRunner;

impl JobRunner for PanickyRunner {
    fn run(
        &self,
        job: &Job,
        _tel: &Telemetry,
        _deadline: &Deadline,
    ) -> Result<JobSuccess, JobFailure> {
        assert!(job.id() != 4, "plan diverged (simulated)");
        Ok(JobSuccess::feasible("one-stage OTA", 500.0))
    }
}

#[test]
fn panicking_job_fails_alone_while_others_complete() {
    let tel = Telemetry::new();
    let report = Batch::new(mock_jobs(), fast_options())
        .run(&Arc::new(PanickyRunner), &tel, |_| {})
        .unwrap();
    let counts = report.counts();
    assert_eq!(counts.failed, 1);
    assert_eq!(counts.ok, 8);
    match &report.records()[4].status {
        JobStatus::Failed { kind, message } => {
            assert_eq!(*kind, FailureKind::Panic);
            assert!(message.contains("plan diverged"), "{message}");
        }
        other => panic!("job 4 should have panicked, got {other:?}"),
    }
    assert!(!report.all_definitive());
    assert_eq!(tel.counter("batch.jobs_failed"), 1);
    assert_eq!(tel.counter("batch.jobs_ok"), 8);
    let line = report.records()[4].render_json();
    assert!(line.contains("\"failure\":\"panic\""), "{line}");
}

/// Hangs forever on one job.
struct SleepyRunner;

impl JobRunner for SleepyRunner {
    fn run(
        &self,
        job: &Job,
        _tel: &Telemetry,
        _deadline: &Deadline,
    ) -> Result<JobSuccess, JobFailure> {
        if job.id() == 2 {
            std::thread::sleep(Duration::from_secs(3600));
        }
        Ok(JobSuccess::feasible("one-stage OTA", 500.0))
    }
}

#[test]
fn timed_out_job_fails_alone_while_others_complete() {
    // At one worker the stuck job holds the only worker thread, so a
    // replacement worker must finish the other eight.
    for workers in [3, 1] {
        let tel = Telemetry::new();
        let report = Batch::new(
            mock_jobs(),
            fast_options()
                .with_workers(workers)
                .with_timeout(Some(Duration::from_millis(50))),
        )
        .run(&Arc::new(SleepyRunner), &tel, |_| {})
        .unwrap();
        assert_eq!(report.counts().failed, 1, "workers={workers}");
        assert_eq!(report.counts().ok, 8, "workers={workers}");
        match &report.records()[2].status {
            JobStatus::Failed { kind, message } => {
                assert_eq!(*kind, FailureKind::Timeout);
                // SleepyRunner never checks its deadline, so this is the
                // stuck-job watchdog firing at twice the budget — not the
                // cooperative path.
                assert!(message.contains("budget"), "{message}");
                assert!(message.contains("stuck"), "{message}");
            }
            other => panic!("job 2 should have timed out, got {other:?}"),
        }
        assert_eq!(tel.counter("batch.jobs_stuck"), 1, "workers={workers}");
    }
}

/// Records which thread ran each job.
struct ThreadRecordingRunner {
    threads: Mutex<Vec<std::thread::ThreadId>>,
}

impl JobRunner for ThreadRecordingRunner {
    fn run(
        &self,
        job: &Job,
        tel: &Telemetry,
        deadline: &Deadline,
    ) -> Result<JobSuccess, JobFailure> {
        self.threads
            .lock()
            .unwrap()
            .push(std::thread::current().id());
        MockRunner.run(job, tel, deadline)
    }
}

#[test]
fn one_worker_runs_every_attempt_on_one_thread() {
    let runner = Arc::new(ThreadRecordingRunner {
        threads: Mutex::new(Vec::new()),
    });
    let report = Batch::new(mock_jobs(), fast_options().with_workers(1))
        .run(&runner, &Telemetry::disabled(), |_| {})
        .unwrap();
    assert_eq!(report.counts().failed, 0);
    let threads = runner.threads.lock().unwrap();
    assert_eq!(threads.len(), 9);
    assert!(
        threads.iter().all(|id| *id == threads[0]),
        "every attempt ran on the one worker thread: {threads:?}"
    );
    assert_ne!(
        threads[0],
        std::thread::current().id(),
        "the calling thread only supervises"
    );
}

/// Fails transiently twice per job before succeeding.
struct FlakyRunner {
    attempts: AtomicU32,
}

impl JobRunner for FlakyRunner {
    fn run(
        &self,
        job: &Job,
        _tel: &Telemetry,
        _deadline: &Deadline,
    ) -> Result<JobSuccess, JobFailure> {
        let n = self.attempts.fetch_add(1, Ordering::SeqCst);
        if n < 2 {
            return Err(JobFailure::transient(format!(
                "simulated I/O hiccup on {}",
                job.spec_label()
            )));
        }
        Ok(JobSuccess::feasible("two-stage", 700.0))
    }
}

#[test]
fn transient_failures_retry_with_backoff_then_succeed() {
    let jobs = vec![mock_jobs().remove(0)];
    let tel = Telemetry::new();
    let report = Batch::new(jobs.clone(), fast_options().with_retries(2))
        .run(
            &Arc::new(FlakyRunner {
                attempts: AtomicU32::new(0),
            }),
            &tel,
            |_| {},
        )
        .unwrap();
    let record = &report.records()[0];
    assert!(
        matches!(record.status, JobStatus::Ok { .. }),
        "{:?}",
        record.status
    );
    assert_eq!(record.attempts, 3, "two transient failures, then success");
    assert_eq!(tel.counter("batch.jobs_retried"), 1);
    assert_eq!(tel.counter("batch.jobs_ok"), 1);

    // With the retry budget exhausted the failure sticks — and is
    // reported as a hard error, not a panic or timeout.
    let report = Batch::new(jobs, fast_options().with_retries(1))
        .run(
            &Arc::new(FlakyRunner {
                attempts: AtomicU32::new(0),
            }),
            &Telemetry::disabled(),
            |_| {},
        )
        .unwrap();
    match &report.records()[0].status {
        JobStatus::Failed { kind, message } => {
            assert_eq!(*kind, FailureKind::Error);
            assert!(message.contains("I/O hiccup"), "{message}");
        }
        other => panic!("expected exhausted retries, got {other:?}"),
    }
    assert_eq!(report.records()[0].attempts, 2);
}

#[test]
fn failed_jobs_rerun_on_resume() {
    let path = tmp("failed-rerun");
    // First pass: job 4 panics and is checkpointed as failed.
    Batch::new(mock_jobs(), fast_options())
        .with_checkpoint(&path)
        .unwrap()
        .run(&Arc::new(PanickyRunner), &Telemetry::disabled(), |_| {})
        .unwrap();
    // Second pass with a healthy runner: only job 4 re-runs.
    let report = Batch::new(mock_jobs(), fast_options())
        .with_checkpoint(&path)
        .unwrap()
        .run(&Arc::new(MockRunner), &Telemetry::disabled(), |_| {})
        .unwrap();
    let counts = report.counts();
    assert_eq!(counts.skipped, 8);
    assert_eq!(counts.ok, 1);
    assert!(matches!(report.records()[4].status, JobStatus::Ok { .. }));
    assert!(report.all_definitive());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn skipped_records_resolve_prior_outcomes_in_the_aggregate() {
    let path = tmp("prior-outcomes");
    Batch::new(mock_jobs(), fast_options())
        .with_checkpoint(&path)
        .unwrap()
        .run(&Arc::new(MockRunner), &Telemetry::disabled(), |_| {})
        .unwrap();
    let report = Batch::new(mock_jobs(), fast_options())
        .with_checkpoint(&path)
        .unwrap()
        .run(&Arc::new(MockRunner), &Telemetry::disabled(), |_| {})
        .unwrap();
    assert_eq!(report.counts().skipped, 9);
    // Infeasible priors (spec-2) surface as infeasible, feasible ones as ok.
    for record in report.records() {
        match &record.status {
            JobStatus::Skipped {
                prior: CheckpointOutcome::Infeasible,
            } => {
                assert_eq!(record.spec, "spec-2");
            }
            JobStatus::Skipped {
                prior: CheckpointOutcome::Ok { area_um2, .. },
            } => {
                let expected = 1000.0 + (record.job as f64) * 17.25;
                assert_eq!(area_um2.to_bits(), expected.to_bits(), "bit-exact areas");
            }
            other => panic!("everything should be skipped, got {other:?}"),
        }
    }
    std::fs::remove_file(&path).unwrap();
}

/// Attaches a payload to every feasible answer, as the dataset runner
/// attaches each record's netlist and datasheet.
struct DetailRunner;

impl JobRunner for DetailRunner {
    fn run(
        &self,
        job: &Job,
        tel: &Telemetry,
        deadline: &Deadline,
    ) -> Result<JobSuccess, JobFailure> {
        let success = MockRunner.run(job, tel, deadline)?;
        Ok(success.with_detail(format!("payload of job {}", job.id())))
    }
}

#[test]
fn only_the_sink_sees_a_records_detail() {
    let streamed = Mutex::new(Vec::new());
    let report = Batch::new(mock_jobs(), fast_options())
        .run(
            &Arc::new(DetailRunner),
            &Telemetry::disabled(),
            collect(&streamed),
        )
        .unwrap();
    let streamed = streamed.into_inner().unwrap();
    assert_eq!(streamed.len(), 9);
    for record in &streamed {
        let expected = format!("payload of job {}", record.job);
        assert_eq!(record.detail.as_deref(), Some(expected.as_str()));
    }
    assert_eq!(report.records().len(), 9);
    assert!(report.records().iter().all(|r| r.detail.is_none()));
}
