//! An untraced batch job leaves a bounded amount of heap behind: its
//! flight ring goes back to the handle pool when the attempt ends, so
//! what a batch holds per job is the record its report keeps (its
//! labels and per-style table), not the job's trace.
//!
//! A counting global allocator measures the peak heap of whole batches,
//! so this binary holds one test: no other test may allocate while it
//! measures.

use oasys::batch::{Batch, BatchOptions, Job, Manifest, SynthRunner};
use oasys::dataset::DatasetPlan;
use oasys::SearchOptions;
use oasys_telemetry::Telemetry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The system allocator, counting the bytes live and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed on unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed on unchanged.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's, unchanged.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn data(file: &str) -> String {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../data"))
        .join(file)
        .display()
        .to_string()
}

/// `jobs` seeded specification draws around case A on the 5 µm kit,
/// wide enough to mix feasible, plan-infeasible and statically pruned
/// verdicts.
fn drawn_jobs(seed: u64, jobs: usize) -> Vec<Job> {
    let manifest = Manifest::parse(&format!(
        "spec = {}\ntech = {}\nsample.count = {jobs}\nsample.seed = {seed}\n\
         sample.dc_gain_db = 40..115\nsample.load_pf = 1..20\n",
        data("spec-a.txt"),
        data("generic-5um.tech"),
    ))
    .unwrap();
    let plan = DatasetPlan::expand(&manifest).unwrap();
    plan.points
        .iter()
        .enumerate()
        .map(|(id, point)| point.job(id))
        .collect()
}

#[test]
fn untraced_batch_heap_grows_a_bounded_amount_per_job() {
    let runner = Arc::new(SynthRunner::new().with_verify(false));
    let options = BatchOptions::default()
        .with_workers(1)
        .with_verify(false)
        .with_search(SearchOptions::new());
    // Peak heap above the heap live before the batch, with its jobs
    // already built.
    let peak_growth = |jobs: Vec<Job>| {
        let base = LIVE.load(Ordering::Relaxed);
        PEAK.store(base, Ordering::Relaxed);
        let report = Batch::new(jobs, options.clone())
            .run(&runner, &Telemetry::disabled(), |_| {})
            .unwrap();
        assert_eq!(report.counts().failed, 0);
        drop(report);
        PEAK.load(Ordering::Relaxed) - base
    };
    // The warm-up fills the shared design cache to its bound and the
    // worker's handle pool.
    peak_growth(drawn_jobs(24_101, 300));

    let small = peak_growth(drawn_jobs(24_102, 300));
    let large = peak_growth(drawn_jobs(24_103, 1_200));
    let per_job = large.saturating_sub(small) / 900;
    assert!(
        per_job < 8 * 1024,
        "peak heap grew {per_job} B per job: {small} B at 300 jobs, {large} B at 1 200"
    );
}
