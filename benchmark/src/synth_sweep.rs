//! `synth_sweep`: a synthesis-only `Batch` with a sealed checkpoint, run
//! twice — plan, engine, blocks, batch and checkpoint with zero
//! simulation.
//!
//! Each round is the paper's three cases on the 5 µm kit followed by
//! wide seeded draws (`dc_gain_db 40..115`, `load_pf 1..20`) across all
//! three kits, expanded by `DatasetPlan::expand` and turned into jobs
//! with `PointMeta::job`. The mix covers feasible, plan-infeasible and
//! statically pruned verdicts. The cold pass runs every job and writes
//! the checkpoint; the resume pass reopens it and skips every job.
//! Rounds run back to back until the measuring time is up.

use crate::inputs::{kits, paper_cases, slice_seed, spec_a_text, WorkDir};
use crate::layers::{synth_layers, Tally};
use crate::report::Outcome;
use crate::stats::{median, Ratio};
use crate::{elapsed_ns, set_up, timed, Run};
use oasys::batch::{Batch, BatchOptions, Job, JobRecord, JobStatus, SynthRunner};
use oasys::SearchOptions;
use oasys_telemetry::Telemetry;
use std::sync::Arc;
use std::time::Instant;

/// Spec draws per round; × 3 kits, plus the 3 paper cases.
const DRAWS_PER_ROUND: usize = 150;

struct Inputs {
    dir: WorkDir,
    manifest_head: String,
    kit5: String,
}

impl Inputs {
    fn manifest_text(&self, seed: u64, round: u64) -> String {
        format!(
            "{}sample.count = {DRAWS_PER_ROUND}\nsample.seed = {}\n\
             sample.dc_gain_db = 40..115\nsample.load_pf = 1..20\n",
            self.manifest_head,
            slice_seed(seed, round)
        )
    }

    /// Sets up round `round`: parses and expands its manifest into the
    /// job list. Returns the jobs, the set-up time and the expansion
    /// time, ns.
    fn jobs(&self, seed: u64, round: u64) -> Result<(Vec<Job>, u64, u64), String> {
        let start = Instant::now();
        let (_, plan, _, expand_ns) = set_up(&self.manifest_text(seed, round))?;
        let mut jobs: Vec<Job> = paper_cases()
            .into_iter()
            .enumerate()
            .map(|(id, (label, text, _))| {
                Job::from_texts(id, label, text, "kit-5um", self.kit5.clone())
            })
            .collect();
        let first = jobs.len();
        jobs.extend(
            plan.points
                .iter()
                .enumerate()
                .map(|(i, point)| point.job(first + i)),
        );
        Ok((jobs, elapsed_ns(start), expand_ns))
    }
}

fn options() -> BatchOptions {
    BatchOptions::default()
        .with_workers(1)
        .with_verify(false)
        .with_search(SearchOptions::new().with_threads(1))
}

fn runner() -> Arc<SynthRunner> {
    Arc::new(
        SynthRunner::new()
            .with_verify(false)
            .with_search(SearchOptions::new().with_threads(1)),
    )
}

/// One round's timings.
struct Round {
    cold_ns: u64,
    resume_ns: u64,
    open_ns: u64,
    busy_ns: u64,
    checkpoint_bytes: u64,
}

/// Runs the cold and the resume pass of one round, checking both.
fn round(
    inputs: &Inputs,
    jobs: Vec<Job>,
    index: u64,
    tel: &Telemetry,
    verdict_us: &mut Vec<f64>,
    out: &mut Outcome,
) -> Result<Round, String> {
    let checkpoint = inputs.dir.path().join(format!("round-{index}.ckpt"));
    let n = jobs.len();
    let runner = runner();
    let mut busy_ns = 0u64;
    let start = Instant::now();
    let cold = Batch::new(jobs.clone(), options())
        .with_checkpoint(&checkpoint)
        .map_err(|e| e.to_string())?
        .run(&runner, tel, |record: &JobRecord| {
            verdict_us.push(record.duration_ns as f64 / 1e3);
            busy_ns += record.duration_ns;
        })
        .map_err(|e| e.to_string())?;
    let cold_ns = elapsed_ns(start);

    let start = Instant::now();
    let (resume, open_ns) = timed(|| Batch::new(jobs, options()).with_checkpoint(&checkpoint));
    let resume = resume
        .map_err(|e| e.to_string())?
        .run(&runner, &Telemetry::disabled(), |_| {})
        .map_err(|e| e.to_string())?;
    let resume_ns = elapsed_ns(start);
    let checkpoint_bytes = std::fs::metadata(&checkpoint).map_or(0, |m| m.len());
    std::fs::remove_file(&checkpoint).map_err(|e| e.to_string())?;

    for record in cold.records() {
        if let JobStatus::Failed { message, .. } = &record.status {
            out.mismatch(format!(
                "round {index}: job {} failed: {message}",
                record.job
            ));
        }
    }
    let skipped = resume.counts().skipped;
    if skipped != n {
        out.mismatch(format!(
            "round {index}: resume skipped {skipped} of {n} jobs"
        ));
    }
    if resume.render_aggregate() != cold.render_aggregate() {
        out.mismatch(format!(
            "round {index}: resume aggregate differs from the cold pass"
        ));
    }
    for ((label, _, expected), record) in paper_cases().iter().zip(cold.records()) {
        match &record.status {
            JobStatus::Ok { style, .. } if style == expected => {}
            other => out.mismatch(format!(
                "round {index}: {label} on 5 um selected {other:?}, expected {expected}"
            )),
        }
    }
    Ok(Round {
        cold_ns,
        resume_ns,
        open_ns,
        busy_ns,
        checkpoint_bytes,
    })
}

/// Runs the workload for `seconds`; `trace` adds the per-layer pass.
///
/// # Errors
///
/// When the inputs cannot be written or a batch cannot run.
pub fn run(run: &Run, trace: bool) -> Result<Outcome, String> {
    let dir = WorkDir::create("synth_sweep").map_err(|e| e.to_string())?;
    let spec = dir.write("spec-a.txt", &spec_a_text(60.0, 5.0))?;
    let mut manifest_head = format!("spec = {spec}\n");
    let mut kit5 = String::new();
    for (stem, text) in kits() {
        let path = dir.write(&format!("{stem}.tech"), &text)?;
        manifest_head.push_str(&format!("tech = {path}\n"));
        if kit5.is_empty() {
            kit5 = text;
        }
    }
    let inputs = Inputs {
        dir,
        manifest_head,
        kit5,
    };
    let mut out = Outcome::default();

    // Each round's set-up (manifest parse, plan expansion and job list)
    // is timed on its own, so `setup_s` is a median over the whole run.
    let mut setup = Vec::new();
    let mut expand = Vec::new();
    let mut verdict_us = Vec::new();
    let mut rounds = Vec::new();
    let mut verdicts = 0usize;
    let started = Instant::now();
    while rounds.is_empty() || started.elapsed() < run.seconds {
        let index = rounds.len() as u64;
        let (jobs, setup_ns, expand_ns) = inputs.jobs(run.seed, index)?;
        setup.push(setup_ns as f64 / 1e9);
        expand.push(expand_ns as f64 / 1e6);
        verdicts += jobs.len();
        rounds.push(round(
            &inputs,
            jobs,
            index,
            &Telemetry::disabled(),
            &mut verdict_us,
            &mut out,
        )?);
    }
    let sum = |f: fn(&Round) -> u64| rounds.iter().map(f).sum::<u64>();
    let cold_ns = sum(|r| r.cold_ns);
    let resume_ns = sum(|r| r.resume_ns);

    // Every job is attempted twice: once cold, once on resume.
    out.attempted = 2 * verdicts as u64;
    out.e2e("setup_s", median(&setup), "s", setup.len());
    out.e2e(
        "verdicts_per_s",
        verdicts as f64 / (cold_ns as f64 / 1e9),
        "1/s",
        verdicts,
    );
    out.e2e_latency("verdict", "us", &verdict_us, 99.0);
    out.e2e(
        "resume_per_s",
        verdicts as f64 / (resume_ns as f64 / 1e9),
        "1/s",
        verdicts,
    );

    if trace {
        // The same rounds again, each cold pass into a fresh
        // `Telemetry::new()`.
        let mut tally = Tally::default();
        let mut traced_ns = 0u64;
        let mut spec_texts = Vec::new();
        let mut tech_texts = Vec::new();
        let mut scratch = Outcome::default();
        for index in 0..rounds.len() as u64 {
            let (jobs, ..) = inputs.jobs(run.seed, index)?;
            for job in &jobs {
                spec_texts.push(job.spec_text().to_owned());
                tech_texts.push(job.tech_text().to_owned());
            }
            let tel = Telemetry::new();
            let traced = round(&inputs, jobs, index, &tel, &mut Vec::new(), &mut scratch)?;
            traced_ns += traced.cold_ns;
            tally.absorb(&tel.report());
        }
        out.failed += scratch.failed;
        out.mismatches.extend(scratch.mismatches);
        synth_layers(&mut out, &tally);
        crate::layers::verify_layers(&mut out, &tally, traced_ns);
        crate::parse_layers(&mut out, &spec_texts, &tech_texts);
        out.layer_ratio(
            "batch.busy_share",
            Ratio::new(sum(|r| r.busy_ns) as f64 / 1e9, cold_ns as f64 / 1e9),
            "ratio",
            verdicts,
        );
        out.layer_ratio(
            "batch.checkpoint_open_ms",
            Ratio::new(sum(|r| r.open_ns) as f64 / 1e6, rounds.len() as f64),
            "ms",
            rounds.len(),
        );
        out.layer_ratio(
            "batch.checkpoint_bytes_per_job",
            Ratio::new(sum(|r| r.checkpoint_bytes) as f64, verdicts as f64),
            "B",
            verdicts,
        );
        out.layer(
            "dataset.plan_expand_ms",
            median(&expand),
            "ms",
            expand.len(),
        );
        out.layer_ratio(
            "telemetry.overhead_ratio",
            Ratio::new(traced_ns as f64 / 1e9, cold_ns as f64 / 1e9),
            "ratio",
            rounds.len(),
        );
    }
    Ok(out)
}
