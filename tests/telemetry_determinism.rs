//! Worker-count determinism of batch telemetry: every job attempt
//! records into its own forked handle, and the batch absorbs the
//! recordings back in job order, so a traced batch under an injected
//! [`ManualClock`] must render **byte-identical** reports at any worker
//! count — spans, events, counters, and latency histograms alike. This
//! is the property that keeps `--workers` invisible in batch traces.

use oasys::batch::{
    Batch, BatchOptions, Job, JobFailure, JobRunner, JobSuccess, Manifest, SynthRunner,
};
use oasys_faults::Deadline;
use oasys_telemetry::{schema, ManualClock, RunReport, Telemetry};
use std::rc::Rc;
use std::sync::Arc;

/// [`SynthRunner`] with verification off and a design cache private to
/// each job. One runner's cache is shared by every job on a process, so
/// with several workers a sub-block may be designed by whichever job
/// reaches it first, and its `cache=hit` annotation and the
/// `engine.cache_*` counters follow that race. A private cache keeps
/// each job's work fixed, which isolates the property under test: how
/// the batch records that work.
struct PrivateCacheRunner;

impl JobRunner for PrivateCacheRunner {
    fn run(
        &self,
        job: &Job,
        tel: &Telemetry,
        deadline: &Deadline,
    ) -> Result<JobSuccess, JobFailure> {
        SynthRunner::new()
            .with_verify(false)
            .run(job, tel, deadline)
    }
}

/// One traced run of the bundled 3×3 sweep at the given worker count. The manual clock freezes every timestamp at
/// zero, so any difference between runs is structural, not temporal.
fn traced_sweep(workers: usize) -> RunReport {
    let manifest = Manifest::load(concat!(env!("CARGO_MANIFEST_DIR"), "/data/sweep.manifest"))
        .expect("sweep manifest loads");
    let jobs = manifest.expand().expect("sweep manifest expands");
    let tel = Telemetry::with_clock(Rc::new(ManualClock::new()));
    let runner = Arc::new(PrivateCacheRunner);
    let report = Batch::new(jobs, BatchOptions::default().with_workers(workers))
        .run(&runner, &tel, |_| {})
        .expect("sweep runs");
    assert_eq!(report.counts().failed, 0, "workers={workers}");
    tel.report()
}

#[test]
fn parallel_sweep_reports_are_byte_identical_to_sequential() {
    let sequential = traced_sweep(1).render_jsonl();
    schema::validate_jsonl(&sequential).expect("export validates");
    assert!(
        sequential.contains("\"job:8\""),
        "every job's span is in the trace"
    );
    let parallel = traced_sweep(3).render_jsonl();
    assert_eq!(
        sequential, parallel,
        "workers=3 must render the exact bytes of workers=1"
    );
}

#[test]
fn latency_histograms_are_thread_count_independent() {
    let collect = |workers: usize| {
        traced_sweep(workers)
            .metrics()
            .histograms()
            .map(|(name, h)| (name.to_owned(), h.count(), h.sum(), h.buckets().to_vec()))
            .collect::<Vec<_>>()
    };

    let sequential = collect(1);
    // Per-step spans exist, so the histogram set is non-trivial.
    assert!(
        sequential
            .iter()
            .any(|(name, ..)| name.starts_with("span:step:")),
        "per-step latency histograms are recorded"
    );
    assert_eq!(sequential, collect(3));
}
