//! Exploring the continuous design space — the paper's Figure 7 argument
//! that a synthesis tool beats any cell library.
//!
//! *"An important advantage of a tool such as OASYS is its ability to
//! design with respect to a continuous range of performance parameters.
//! This is in sharp contrast to design styles based on a library of fixed
//! cells."* This example sweeps the gain requirement continuously, prints
//! the area/style frontier, and marks the automatic topology changes.
//!
//! The sweep itself is a **batch**: each gain step becomes one in-memory
//! job ([`Job::from_texts`] — no files involved), the batch workers run
//! them with per-job isolation, and every record carries the full
//! per-style feasibility table the frontier is printed from.
//!
//! Run with:
//!
//! ```text
//! cargo run --example design_space
//! ```

use oasys::batch::{Batch, BatchOptions, Job, JobRecord, StyleEntry, SynthRunner};
use oasys_process::{builtin, techfile};
use oasys_telemetry::Telemetry;
use std::sync::Arc;

const GAINS_DB: std::ops::RangeInclusive<u32> = 30..=115;

/// The spec-A constraint set as specfile text, at one gain point.
fn spec_text(gain_db: f64) -> String {
    format!(
        "dc_gain_db         = {gain_db}\n\
         unity_gain_mhz     = 0.5\n\
         phase_margin_deg   = 45\n\
         load_pf            = 5\n\
         slew_rate_v_per_us = 2\n\
         output_swing_v     = 1.2\n"
    )
}

fn main() {
    let process = builtin::cmos_5um();
    let tech_text = techfile::write(&process);

    // One job per gain step, all sharing the same technology text — so
    // the whole sweep shares one memo cache inside the runner.
    let jobs: Vec<Job> = GAINS_DB
        .enumerate()
        .map(|(id, gain)| {
            Job::from_texts(
                id,
                format!("gain-{gain}dB"),
                spec_text(f64::from(gain)),
                process.name(),
                tech_text.clone(),
            )
        })
        .collect();

    let tel = Telemetry::new();
    let runner = Arc::new(SynthRunner::new().with_verify(false));
    let report = Batch::new(jobs, BatchOptions::default())
        .run(&runner, &tel, |_| {})
        .expect("no checkpoint attached, so the run cannot fail");

    println!("gain sweep on spec-A constraints (5 pF load), 1 dB steps:\n");
    println!(
        "{:>8}  {:>24}  {:>24}  {:>24}",
        "gain dB", "one-stage", "two-stage", "folded cascode"
    );

    let describe = |entry: Option<&StyleEntry>| match entry {
        Some(e) if e.feasible() => format!(
            "{:>7.0} µm² / {} dev{}",
            e.area_um2.unwrap_or(f64::NAN),
            e.devices.unwrap_or(0),
            if e.notes.is_empty() { "" } else { "*" }
        ),
        _ => "infeasible".to_owned(),
    };
    let style = |record: &JobRecord, name: &str| -> Option<StyleEntry> {
        record
            .styles
            .iter()
            .find(|e| e.style.contains(name))
            .cloned()
    };
    let sig = |entry: &Option<StyleEntry>| {
        entry
            .as_ref()
            .filter(|e| e.feasible())
            .map(|e| format!("{}{}", e.devices.unwrap_or(0), e.notes.join("")))
            .unwrap_or_default()
    };

    let mut last_signature = (String::new(), String::new(), String::new());
    for record in report.records() {
        let gain_db = f64::from(*GAINS_DB.start() + record.job as u32);
        let one = style(record, "one-stage");
        let two = style(record, "two-stage");
        let folded = style(record, "folded");

        let signature = (sig(&one), sig(&two), sig(&folded));
        // Print only rows where a topology changes, plus decade markers,
        // to keep the output readable.
        let topology_change = signature != last_signature;
        if topology_change || gain_db % 10.0 == 0.0 {
            println!(
                "{:>8.1}  {:>24}  {:>24}  {:>24}{}",
                gain_db,
                describe(one.as_ref()),
                describe(two.as_ref()),
                describe(folded.as_ref()),
                if topology_change && record.job != 0 {
                    "   ← topology change"
                } else {
                    ""
                }
            );
        }
        last_signature = signature;
    }
    println!(
        "\n(* = a patch rule modified the template: cascoding, partition skew, level shifter)"
    );
    println!(
        "batch: {} jobs, {} sub-block designs served from the shared cache",
        report.records().len(),
        tel.counter("engine.cache_hits")
    );
}
