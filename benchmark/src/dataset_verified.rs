//! `dataset_verified`: `oasys::dataset::generate` with verification on —
//! the verified answer users wait for, in its bulk form.
//!
//! Each slice is one seeded spec-A draw (`dc_gain_db 55..68`,
//! `load_pf 2..10`) × the 5 µm and 3 µm kits × slow/typ/fast corners ×
//! 2 Monte-Carlo instances = 12 records, generated into a fresh
//! directory. Slices run back to back until the measuring time is up.
//! The manifest's own sampler makes each draw; the benchmark narrows
//! slice `k`'s ranges to one of 4 × 4 cells picked by a seeded
//! low-discrepancy sequence, so every run covers the spec space evenly.

use crate::inputs::{kits, slice_seed, spec_a_text, Spread, WorkDir};
use crate::layers::{synth_layers, verify_layers, Tally};
use crate::report::Outcome;
use crate::stats::{median, Ratio};
use crate::{set_up, timed, Run};
use oasys::batch::BatchOptions;
use oasys::dataset::{self, schema, sink, DatasetOptions};
use oasys::SearchOptions;
use oasys_telemetry::json::{self, Json};
use oasys_telemetry::Telemetry;
use std::time::Instant;

/// Records per slice: 1 draw × 2 kits × 3 corners × 2 instances.
const RECORDS_PER_SLICE: usize = 12;

/// Cells per axis of the stratified spec ranges.
const CELLS: f64 = 4.0;

struct Inputs {
    dir: WorkDir,
    spec: String,
    techs: [String; 2],
    spread: Spread,
}

impl Inputs {
    fn manifest_text(&self, seed: u64, slice: u64) -> String {
        let (x, y) = self.spread.point(slice);
        let cell = |lo: f64, hi: f64, at: f64| {
            let width = (hi - lo) / CELLS;
            let start = lo + width * (at * CELLS).floor();
            format!("{start}..{}", start + width)
        };
        format!(
            "spec = {}\ntech = {}\ntech = {}\n\
             sample.count = 1\nsample.seed = {}\n\
             sample.dc_gain_db = {}\nsample.load_pf = {}\n\
             corners = slow,typ,fast\n\
             mc.samples = 2\nmc.avt_mv_um = 15\nmc.akp_pct_um = 2\n",
            self.spec,
            self.techs[0],
            self.techs[1],
            slice_seed(seed, slice),
            cell(55.0, 68.0, x),
            cell(2.0, 10.0, y),
        )
    }
}

/// What one slice's records said.
#[derive(Default)]
struct SliceCheck {
    records: usize,
    meets_spec: usize,
    record_bytes: usize,
    gain_err_db: Vec<f64>,
    fu_err_pct: Vec<f64>,
}

fn options() -> DatasetOptions {
    DatasetOptions {
        batch: BatchOptions::default()
            .with_workers(1)
            .with_verify(true)
            .with_search(SearchOptions::new().with_threads(1)),
        ..DatasetOptions::default()
    }
}

/// Runs the workload for `seconds`; `trace` adds the per-layer pass.
///
/// # Errors
///
/// When the inputs cannot be written or a slice cannot be generated.
pub fn run(run: &Run, trace: bool) -> Result<Outcome, String> {
    let dir = WorkDir::create("dataset_verified").map_err(|e| e.to_string())?;
    let [(_, kit5), (_, kit3), _] = kits();
    let inputs = Inputs {
        spec: dir.write("spec-a.txt", &spec_a_text(60.0, 5.0))?,
        techs: [
            dir.write("kit-5um.tech", &kit5)?,
            dir.write("kit-3um.tech", &kit3)?,
        ],
        dir,
        spread: Spread::new(run.seed, 0xda7a),
    };
    let mut out = Outcome::default();

    // The measured, untraced pass. Each slice's set-up is timed on its
    // own, so `setup_s` is a median over the whole run.
    let options = options();
    let mut setup = Vec::new();
    let mut expand = Vec::new();
    let mut slice_ms = Vec::new();
    let mut wall_ns = 0u64;
    let mut check = SliceCheck::default();
    let (mut hits, mut misses) = (0u64, 0u64);
    let started = Instant::now();
    let mut slice = 0u64;
    while slice == 0 || started.elapsed() < run.seconds {
        let (manifest, _, setup_ns, expand_ns) = set_up(&inputs.manifest_text(run.seed, slice))?;
        setup.push(setup_ns as f64 / 1e9);
        expand.push(expand_ns as f64 / 1e6);
        let out_dir = inputs.dir.path().join(format!("slice-{slice}"));
        let (report, ns) =
            timed(|| dataset::generate(&manifest, &out_dir, &options, &Telemetry::disabled()));
        let report = report.map_err(|e| format!("slice {slice}: {e}"))?;
        wall_ns += ns;
        slice_ms.push(ns as f64 / 1e6);
        hits += report.cache_hits;
        misses += report.cache_misses;
        check_slice(&out_dir, slice, &mut check, &mut out);
        std::fs::remove_dir_all(&out_dir).map_err(|e| e.to_string())?;
        slice += 1;
    }
    let slices = slice;

    let records = check.records;
    out.attempted = (slices as usize * RECORDS_PER_SLICE).max(records) as u64;
    out.e2e("setup_s", median(&setup), "s", setup.len());
    out.e2e(
        "verified_per_s",
        records as f64 / (wall_ns as f64 / 1e9),
        "1/s",
        records,
    );
    out.e2e_ratio(
        "meets_spec_fraction",
        Ratio::new(check.meets_spec as f64, records as f64),
        records,
    );
    out.e2e(
        "gain_err_db",
        median(&check.gain_err_db),
        "dB",
        check.gain_err_db.len(),
    );
    out.e2e(
        "fu_err_pct",
        median(&check.fu_err_pct),
        "%",
        check.fu_err_pct.len(),
    );
    out.e2e_latency("slice", "ms", &slice_ms, 90.0);

    if trace {
        // The same slices again, each into a fresh `Telemetry::new()`.
        let mut tally = Tally::default();
        let mut traced_ns = 0u64;
        let mut spec_texts = Vec::new();
        let mut tech_texts = Vec::new();
        for slice in 0..slices {
            let (manifest, plan, ..) = set_up(&inputs.manifest_text(run.seed, slice))?;
            let out_dir = inputs.dir.path().join(format!("traced-{slice}"));
            let tel = Telemetry::new();
            let (report, ns) = timed(|| dataset::generate(&manifest, &out_dir, &options, &tel));
            report.map_err(|e| format!("traced slice {slice}: {e}"))?;
            traced_ns += ns;
            tally.absorb(&tel.report());
            std::fs::remove_dir_all(&out_dir).map_err(|e| e.to_string())?;
            for point in &plan.points {
                spec_texts.push(point.spec_text.clone());
                tech_texts.push(point.tech_text.clone());
            }
        }
        synth_layers(&mut out, &tally);
        verify_layers(&mut out, &tally, traced_ns);
        crate::parse_layers(&mut out, &spec_texts, &tech_texts);
        out.layer_ratio(
            "batch.busy_share",
            Ratio::new(
                tally.hist("batch.job_latency_ns").1 as f64 / 1e9,
                traced_ns as f64 / 1e9,
            ),
            "ratio",
            records,
        );
        out.layer(
            "dataset.plan_expand_ms",
            median(&expand),
            "ms",
            expand.len(),
        );
        out.layer_ratio(
            "dataset.record_bytes",
            Ratio::new(check.record_bytes as f64, records as f64),
            "B",
            records,
        );
        out.layer_ratio(
            "dataset.cache_hit_ratio",
            Ratio::new(hits as f64, (hits + misses) as f64),
            "ratio",
            (hits + misses) as usize,
        );
        let (_, verify_ns) = tally.span("verify");
        out.layer_ratio(
            "dataset.non_verify_ms_per_record",
            Ratio::new(
                traced_ns.saturating_sub(verify_ns) as f64 / 1e6,
                records as f64,
            ),
            "ms",
            records,
        );
        out.layer_ratio(
            "telemetry.overhead_ratio",
            Ratio::new(traced_ns as f64 / 1e9, wall_ns as f64 / 1e9),
            "ratio",
            slices as usize,
        );
    }
    Ok(out)
}

/// Validates every record of one published slice and collects its
/// accuracy figures. Each bad record counts as one failed operation.
fn check_slice(dir: &std::path::Path, slice: u64, check: &mut SliceCheck, out: &mut Outcome) {
    let path = sink::shard_records_path(dir, 0, 1);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            out.mismatch(format!(
                "slice {slice}: cannot read {}: {e}",
                path.display()
            ));
            return;
        }
    };
    let mut lines = 0usize;
    for line in text.lines() {
        lines += 1;
        check.records += 1;
        check.record_bytes += line.len() + 1;
        let Some(payload) = sink::open_record_line(line) else {
            out.mismatch(format!("slice {slice}: record line fails its seal"));
            continue;
        };
        let record = match json::parse(payload) {
            Ok(record) => record,
            Err(e) => {
                out.mismatch(format!("slice {slice}: record is not JSON: {e}"));
                continue;
            }
        };
        if let Err(e) = schema::validate_record(&record) {
            out.mismatch(format!("slice {slice}: record fails the schema: {e}"));
            continue;
        }
        if record.get("outcome").and_then(Json::as_str) != Some("ok") {
            out.mismatch(format!("slice {slice}: record outcome is not ok"));
            continue;
        }
        let ok = record.get("ok");
        if ok.and_then(|o| o.get("meets_spec")).and_then(Json::as_bool) == Some(true) {
            check.meets_spec += 1;
        }
        let design = ok.and_then(|o| o.get("design"));
        let num = |side: &str, key: &str| {
            design
                .and_then(|d| d.get(side))
                .and_then(|s| s.get(key))
                .and_then(Json::as_num)
        };
        if let (Some(p), Some(m)) = (
            num("predicted", "dc_gain_db"),
            num("measured", "dc_gain_db"),
        ) {
            check.gain_err_db.push((p - m).abs());
        }
        if let (Some(p), Some(m)) = (
            num("predicted", "unity_gain_hz"),
            num("measured", "unity_gain_hz"),
        ) {
            check.fu_err_pct.push((p / m - 1.0).abs() * 100.0);
        }
    }
    if lines != RECORDS_PER_SLICE {
        out.mismatch(format!(
            "slice {slice}: {lines} records, expected {RECORDS_PER_SLICE}"
        ));
    }
}
