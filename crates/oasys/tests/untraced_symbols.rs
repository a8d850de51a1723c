//! An untraced batch interns no per-job text. Job ids, labels, areas
//! and failure texts stay with each job's flight ring, so after a
//! warm-up a batch of N drawn jobs and one of 4N grow the process-wide
//! symbol table by the same count.
//!
//! The symbol table is process-wide, so this binary holds one test: no
//! other test may intern while it counts.

use oasys::batch::{Batch, BatchOptions, Job, Manifest, SynthRunner};
use oasys::dataset::DatasetPlan;
use oasys::SearchOptions;
use oasys_telemetry::{sym, Telemetry};
use std::path::Path;
use std::sync::Arc;

fn data(file: &str) -> String {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../data"))
        .join(file)
        .display()
        .to_string()
}

/// `count` seeded specification draws around case A, wide enough to
/// mix feasible, plan-infeasible and statically pruned verdicts, on
/// all three kits.
fn drawn_jobs(seed: u64, count: usize) -> Vec<Job> {
    let manifest = Manifest::parse(&format!(
        "spec = {}\ntech = {}\ntech = {}\ntech = {}\n\
         sample.count = {count}\nsample.seed = {seed}\n\
         sample.dc_gain_db = 40..115\nsample.load_pf = 1..20\n",
        data("spec-a.txt"),
        data("generic-5um.tech"),
        data("generic-3um.tech"),
        data("generic-1.2um.tech"),
    ))
    .unwrap();
    let plan = DatasetPlan::expand(&manifest).unwrap();
    plan.points
        .iter()
        .enumerate()
        .map(|(id, point)| point.job(id))
        .collect()
}

/// How many symbols the table holds: a fresh name lands at its end.
fn table_len(probe: &str) -> u32 {
    sym(&format!("untraced-symbols-probe:{probe}")).index()
}

#[test]
fn untraced_batches_intern_the_same_symbols_at_any_size() {
    const N: usize = 10;
    let runner = Arc::new(SynthRunner::new().with_verify(false));
    let options = BatchOptions::default()
        .with_workers(1)
        .with_verify(false)
        .with_search(SearchOptions::new());
    let run = |jobs: Vec<Job>| {
        let report = Batch::new(jobs, options.clone())
            .run(&runner, &Telemetry::disabled(), |_| {})
            .unwrap();
        assert_eq!(report.counts().failed, 0);
    };
    // The warm-up interns the fixed vocabulary: plan, step, rule and
    // block names, counter names and the executor's event kinds.
    run(drawn_jobs(24_001, 4 * N));

    let before = table_len("before");
    run(drawn_jobs(24_002, N));
    let middle = table_len("middle");
    run(drawn_jobs(24_003, 4 * N));
    let after = table_len("after");

    // Each probe interns itself.
    let small = middle - before - 1;
    let large = after - middle - 1;
    assert_eq!(
        small,
        large,
        "{} jobs interned {small} symbols, {} jobs {large}",
        3 * N,
        12 * N
    );
}
