//! A warm untraced batch job allocates a pinned number of times. The
//! runner parses each technology text once and keeps its cache
//! namespace beside the parsed process, so a job on a text the runner
//! has met before parses and formats no technology of its own; what it
//! allocates is its spec, its synthesis and its record.
//!
//! A counting global allocator counts allocation calls, so this binary
//! holds one test: no other test may allocate while it counts.

use oasys::batch::{Batch, BatchOptions, Manifest, SynthRunner};
use oasys_telemetry::Telemetry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The system allocator, counting its alloc and realloc calls.
struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter only observes that a call was made.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed on unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The allocation calls per job of a warm untraced, unverified batch
/// over `data/sweep.manifest`, 212, plus 10 %.
const CEILING_PER_JOB: usize = 233;

#[test]
fn warm_untraced_batch_job_allocates_a_pinned_count() {
    let manifest = Manifest::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../data/sweep.manifest"
    ))
    .unwrap();
    let runner = Arc::new(SynthRunner::new().with_verify(false));
    let options = BatchOptions::default().with_workers(1).with_verify(false);
    let tel = Telemetry::disabled();
    let run = |jobs| {
        Batch::new(jobs, options.clone())
            .run(&runner, &tel, |_| {})
            .unwrap()
    };
    // The first run parses the three kits, builds the stored plans,
    // fills the shared design cache and interns the fixed telemetry
    // names.
    let report = run(manifest.expand().unwrap());
    assert_eq!(report.counts().failed, 0);
    drop(report);

    let jobs = manifest.expand().unwrap();
    let count = jobs.len();
    let before = CALLS.load(Ordering::Relaxed);
    let report = run(jobs);
    let calls = CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(report.counts().failed, 0);
    drop(report);
    let per_job = calls / count;
    println!(
        "warm untraced batch: {calls} allocation calls for {count} jobs, \
         {per_job} per job (ceiling {CEILING_PER_JOB})"
    );
    assert!(
        per_job <= CEILING_PER_JOB,
        "a warm untraced batch job made {per_job} allocation calls, over the \
         {CEILING_PER_JOB} ceiling"
    );
}
