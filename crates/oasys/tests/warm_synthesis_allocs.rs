//! A warm untraced synthesis allocates a pinned number of times. Every
//! style attempt runs its style's stored plan, so an attempt builds no
//! steps, rules or annotations of its own; it keeps no history beside
//! its telemetry, style and relation names are static, and a
//! design-cache lookup builds no string key. What it allocates is its
//! design state, the sub-block designs, the netlist and the report.
//!
//! A counting global allocator counts allocation calls, so this binary
//! holds one test: no other test may allocate while it counts.

use oasys::batch::DEFAULT_CACHE_ENTRIES;
use oasys::spec::test_cases;
use oasys::{synthesize_with_cache, SearchOptions};
use oasys_plan::MemoCache;
use oasys_process::builtin;
use oasys_telemetry::Telemetry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// The allocation calls of a warm case-A synthesis on the 5 µm kit,
/// 319, plus 10 %.
const CEILING: usize = 350;

#[test]
fn warm_case_a_synthesis_allocates_a_pinned_count() {
    let spec = test_cases::spec_a();
    let process = builtin::cmos_5um();
    let options = SearchOptions::new();
    let tel = Telemetry::disabled();
    let cache = MemoCache::bounded(DEFAULT_CACHE_ENTRIES);
    let run = || synthesize_with_cache(&spec, &process, &options, &tel, &cache).unwrap();
    // The first run builds the stored plans, fills the shared design
    // cache and interns the fixed telemetry names.
    drop(run());

    let before = CALLS.load(Ordering::Relaxed);
    let synthesis = run();
    let calls = CALLS.load(Ordering::Relaxed) - before;
    drop(synthesis);
    println!("warm case-A synthesis: {calls} allocation calls (ceiling {CEILING})");
    assert!(
        calls <= CEILING,
        "a warm case-A synthesis made {calls} allocation calls, over the {CEILING} ceiling"
    );
}
