//! Integration tests for dataset generation: shard/merge byte
//! identity, seeded reproducibility, torn-sink crash recovery, and
//! schema validation of every generated record.

use oasys::batch::{BatchOptions, Manifest};
use oasys::dataset::{self, DatasetOptions};
use oasys_faults::FaultSpec;
use oasys_telemetry::Telemetry;
use std::path::{Path, PathBuf};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

/// The fault registry is process-wide: a test that arms a fault holds
/// this lock exclusively, and every other test that runs the pipeline
/// holds it shared, so an armed fault never fires inside a sibling test.
static FAULT_LOCK: RwLock<()> = RwLock::new(());

/// Serializes fault-plane tests and guarantees a clean registry on exit.
struct FaultGuard(#[allow(dead_code)] RwLockWriteGuard<'static, ()>);

impl FaultGuard {
    fn acquire() -> Self {
        let guard = FAULT_LOCK
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        oasys_faults::clear();
        Self(guard)
    }
}

/// Keeps fault-arming tests out while a fault-free test runs.
fn no_faults_armed() -> RwLockReadGuard<'static, ()> {
    FAULT_LOCK
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        oasys_faults::clear();
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oasys-dataset-int-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn data(file: &str) -> String {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../data"))
        .join(file)
        .display()
        .to_string()
}

/// A small sampled manifest: four spec draws at two corners, nominal
/// Monte-Carlo only — eight points, all real synthesis.
fn sampled_manifest() -> Manifest {
    Manifest::parse(&format!(
        "spec = {}\ntech = {}\n\
         sample.count = 4\nsample.seed = 11\nsample.dc_gain_db = 55..68\n\
         corners = slow,typ\n",
        data("spec-a.txt"),
        data("generic-5um.tech"),
    ))
    .unwrap()
}

fn fast_options(shards: usize, shard_index: usize, verify: bool) -> DatasetOptions {
    DatasetOptions {
        shards,
        shard_index,
        batch: BatchOptions::default()
            .with_workers(2)
            .with_timeout(Some(Duration::from_secs(60)))
            .with_verify(verify),
    }
}

fn generate_all(manifest: &Manifest, dir: &Path, shards: usize, verify: bool) {
    for index in 0..shards {
        dataset::generate(
            manifest,
            dir,
            &fast_options(shards, index, verify),
            &Telemetry::disabled(),
        )
        .unwrap();
    }
    dataset::merge(dir).unwrap();
}

fn read(path: PathBuf) -> String {
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn two_shard_merge_is_byte_identical_to_one_shard() {
    let _faults = no_faults_armed();
    let manifest = sampled_manifest();
    let one = tmp_dir("identity-one");
    let two = tmp_dir("identity-two");
    generate_all(&manifest, &one, 1, false);
    generate_all(&manifest, &two, 2, false);
    assert_eq!(
        read(one.join("dataset.jsonl")),
        read(two.join("dataset.jsonl")),
        "merged records must not depend on the shard count"
    );
    assert_eq!(
        read(one.join("dataset-summary.json")),
        read(two.join("dataset-summary.json")),
        "merged summary must not depend on the shard count"
    );
}

#[test]
fn seeded_generation_is_reproducible() {
    let _faults = no_faults_armed();
    let manifest = sampled_manifest();
    let a = tmp_dir("repro-a");
    let b = tmp_dir("repro-b");
    generate_all(&manifest, &a, 1, false);
    generate_all(&manifest, &b, 1, false);
    assert_eq!(read(a.join("dataset.jsonl")), read(b.join("dataset.jsonl")));
}

#[test]
fn every_record_validates_and_carries_provenance() {
    let _faults = no_faults_armed();
    let manifest = sampled_manifest();
    let dir = tmp_dir("schema");
    generate_all(&manifest, &dir, 1, false);
    let text = read(dir.join("dataset.jsonl"));
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 8, "4 spec draws × 2 corners");
    let mut slow = 0;
    for (i, line) in lines.iter().enumerate() {
        let payload = dataset::sink::open_record_line(line)
            .unwrap_or_else(|| panic!("record {i} failed its checksum seal: {line}"));
        let record = oasys_telemetry::json::parse(payload).unwrap();
        dataset::schema::validate_record(&record)
            .unwrap_or_else(|e| panic!("record {i}: {e}\n{line}"));
        assert_eq!(
            record.get("id").and_then(|v| v.as_num()),
            Some(i as f64),
            "merged records are dense in id order"
        );
        let speed = record
            .get("tech")
            .and_then(|t| t.get("corner"))
            .and_then(|c| c.get("speed"))
            .and_then(|s| s.as_str())
            .unwrap()
            .to_owned();
        if speed == "slow" {
            slow += 1;
        }
    }
    assert_eq!(slow, 4, "half the points run at the slow corner");
}

#[test]
fn monte_carlo_siblings_measure_differently() {
    let _faults = no_faults_armed();
    // One spec, one tech, three MC instances with strong mismatch;
    // verification ON so the draws reach the simulator.
    let manifest = Manifest::parse(&format!(
        "spec = {}\ntech = {}\nmc.samples = 3\nmc.avt_mv_um = 40\nmc.akp_pct_um = 4\n",
        data("spec-a.txt"),
        data("generic-5um.tech"),
    ))
    .unwrap();
    let dir = tmp_dir("mc");
    generate_all(&manifest, &dir, 1, true);
    let text = read(dir.join("dataset.jsonl"));
    let mut offsets = Vec::new();
    for line in text.lines() {
        let payload = dataset::sink::open_record_line(line).expect("sealed record line");
        let record = oasys_telemetry::json::parse(payload).unwrap();
        dataset::schema::validate_record(&record).unwrap();
        let offset = record
            .get("ok")
            .and_then(|ok| ok.get("design"))
            .and_then(|d| d.get("measured"))
            .and_then(|m| m.get("offset_v"))
            .and_then(|v| v.as_num());
        offsets.push(offset);
    }
    assert_eq!(offsets.len(), 3);
    let values: Vec<f64> = offsets.into_iter().flatten().collect();
    assert_eq!(values.len(), 3, "all three instances must verify");
    assert!(
        values[1] != values[0] || values[2] != values[0],
        "mismatch draws must perturb the measured offset: {values:?}"
    );
}

#[test]
fn torn_sink_write_resumes_to_identical_bytes() {
    let _guard = FaultGuard::acquire();
    let manifest = sampled_manifest();
    let clean = tmp_dir("torn-clean");
    generate_all(&manifest, &clean, 1, false);

    let torn = tmp_dir("torn-faulted");
    // FailRate seed 1 at p = 0.3 passes the first two sink writes and
    // tears the third (deterministic per-hit hash), so the salvage path
    // sees durable records ahead of the torn line.
    oasys_faults::set(
        "dataset.sink.record",
        FaultSpec::FailRate { p: 0.3, seed: 1 },
    );
    let err = dataset::generate(
        &manifest,
        &torn,
        &fast_options(1, 0, false),
        &Telemetry::disabled(),
    )
    .unwrap_err();
    assert!(err.to_string().contains("torn"), "{err}");
    oasys_faults::remove("dataset.sink.record");

    // Resume: the salvaged partial re-runs only the torn record, and
    // the published dataset is byte-identical to the clean run.
    let report = dataset::generate(
        &manifest,
        &torn,
        &fast_options(1, 0, false),
        &Telemetry::disabled(),
    )
    .unwrap();
    assert!(report.resumed > 0, "salvage must reuse durable records");
    assert!(report.executed > 0, "the torn record must re-run");
    dataset::merge(&torn).unwrap();
    assert_eq!(
        read(clean.join("dataset.jsonl")),
        read(torn.join("dataset.jsonl"))
    );
    assert_eq!(
        read(clean.join("dataset-summary.json")),
        read(torn.join("dataset-summary.json"))
    );
}

/// Two statically infeasible no-verify points at one worker: a shard
/// of under 2 kB whose partial is written in id order, so the bytes it
/// held when the run finished are exactly the published shard's.
fn two_point_shard() -> (Manifest, DatasetOptions) {
    let manifest = Manifest::parse(&format!(
        "spec = {}\nspec = {}\ntech = {}\n",
        data("spec-b.txt"),
        data("spec-c.txt"),
        data("generic-1.2um.tech"),
    ))
    .unwrap();
    let options = DatasetOptions {
        batch: fast_options(1, 0, false).batch.with_workers(1),
        ..fast_options(1, 0, false)
    };
    (manifest, options)
}

#[test]
fn crash_at_every_byte_of_a_shard_partial_resumes_byte_identical() {
    let _faults = no_faults_armed();
    let (manifest, options) = two_point_shard();
    let clean = tmp_dir("crash-clean");
    dataset::generate(&manifest, &clean, &options, &Telemetry::disabled()).unwrap();
    let published = std::fs::read(dataset::sink::shard_records_path(&clean, 0, 1)).unwrap();
    let summary = read(dataset::sink::shard_summary_path(&clean, 0, 1));

    let dir = tmp_dir("crash-cut");
    let resume_from = |what: &str, partial: &[u8]| {
        let _ = std::fs::remove_file(dataset::sink::shard_records_path(&dir, 0, 1));
        let _ = std::fs::remove_file(dataset::sink::shard_summary_path(&dir, 0, 1));
        std::fs::write(dataset::sink::shard_partial_path(&dir, 0, 1), partial).unwrap();
        // The first open repairs; the run's own open must find nothing.
        drop(dataset::ShardSink::open(&dir, 0, 1).unwrap());
        let report = dataset::generate(&manifest, &dir, &options, &Telemetry::disabled()).unwrap();
        assert!(report.salvage().is_clean(), "{what}: {}", report.salvage());
        let records = std::fs::read(dataset::sink::shard_records_path(&dir, 0, 1)).unwrap();
        assert_eq!(records, published, "{what}");
        assert_eq!(read(dataset::sink::shard_summary_path(&dir, 0, 1)), summary);
        report
    };
    // A kill during the write at byte k leaves the first k bytes.
    for k in 0..=published.len() {
        resume_from(&format!("cut at byte {k}"), &published[..k]);
    }
    // The same records as legacy unsealed lines: none is trusted, and
    // both points re-run.
    let unsealed: String = String::from_utf8_lossy(&published)
        .lines()
        .map(|line| format!("{}\n", line.rsplit_once('\t').unwrap().0))
        .collect();
    assert_eq!(resume_from("unsealed", unsealed.as_bytes()).executed, 2);
}

/// SplitMix64 — the repo's seeded-randomness idiom; no wall-clock
/// entropy in tests.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn flipped_bytes_in_published_shard_quarantine_and_heal_byte_identical() {
    let _faults = no_faults_armed();
    // Property: flip arbitrary bytes in a published shard; the merge
    // must refuse to publish (quarantining exactly the damaged lines),
    // and re-running the shard must heal it back to a byte-identical
    // final dataset.
    let manifest = sampled_manifest();
    let clean = tmp_dir("flip-clean");
    generate_all(&manifest, &clean, 1, false);
    let baseline_records = read(clean.join("dataset.jsonl"));
    let baseline_summary = read(clean.join("dataset-summary.json"));

    let mut seed = 0x0a5e_5000_0000_0001u64;
    for round in 0..3 {
        let dir = tmp_dir(&format!("flip-{round}"));
        generate_all(&manifest, &dir, 1, false);
        let shard_path = dir.join("shard-0-of-1.jsonl");
        let mut bytes = std::fs::read(&shard_path).unwrap();
        let flips = 1 + (splitmix(&mut seed) as usize % 3);
        for _ in 0..flips {
            let pos = splitmix(&mut seed) as usize % bytes.len();
            let mask = (splitmix(&mut seed) % 255) as u8 + 1; // non-zero
            bytes[pos] ^= mask;
        }
        std::fs::write(&shard_path, &bytes).unwrap();
        // The stale merged output would mask the corruption check.
        let _ = std::fs::remove_file(dir.join("dataset.jsonl"));
        let _ = std::fs::remove_file(dir.join("dataset-summary.json"));

        let err = dataset::merge(&dir).unwrap_err();
        assert!(
            err.to_string().contains("records_quarantined="),
            "round {round}: merge must quarantine, got: {err}"
        );

        // Re-running the shard detects the damage, demotes the shard,
        // and re-runs exactly the quarantined points.
        let report = dataset::generate(
            &manifest,
            &dir,
            &fast_options(1, 0, false),
            &Telemetry::disabled(),
        )
        .unwrap();
        assert!(
            report.records_quarantined > 0,
            "round {round}: the heal must report quarantined lines"
        );
        assert!(report.executed > 0, "round {round}: damaged points re-run");
        dataset::merge(&dir).unwrap();
        assert_eq!(
            read(dir.join("dataset.jsonl")),
            baseline_records,
            "round {round}: healed dataset must be byte-identical"
        );
        assert_eq!(read(dir.join("dataset-summary.json")), baseline_summary);
    }
}

#[test]
fn published_shard_reruns_are_no_ops() {
    let _faults = no_faults_armed();
    let manifest = sampled_manifest();
    let dir = tmp_dir("republish");
    let first = dataset::generate(
        &manifest,
        &dir,
        &fast_options(1, 0, false),
        &Telemetry::disabled(),
    )
    .unwrap();
    let again = dataset::generate(
        &manifest,
        &dir,
        &fast_options(1, 0, false),
        &Telemetry::disabled(),
    )
    .unwrap();
    assert_eq!(first.records, again.records);
    assert_eq!(again.executed, 0, "published shards must not re-run");
}

#[test]
fn telemetry_counts_records_and_rejections() {
    let _faults = no_faults_armed();
    // A range straddling the 90° phase-margin ceiling rejects some
    // draws; both counters must land in the telemetry report.
    let manifest = Manifest::parse(&format!(
        "spec = {}\ntech = {}\nsample.count = 6\nsample.phase_margin_deg = 80..100\n",
        data("spec-a.txt"),
        data("generic-5um.tech"),
    ))
    .unwrap();
    let dir = tmp_dir("telemetry");
    let tel = Telemetry::new();
    let report = dataset::generate(&manifest, &dir, &fast_options(1, 0, false), &tel).unwrap();
    assert!(report.samples_rejected > 0);
    assert_eq!(report.records, report.executed);
    let rendered = tel.report().render_metrics_json();
    assert!(rendered.contains("dataset.records"), "{rendered}");
    assert!(rendered.contains("dataset.samples_rejected"), "{rendered}");
}
