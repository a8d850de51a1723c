//! Osiris-scale dataset generation.
//!
//! `oasys dataset` turns one batch manifest into a *sampled sweep*: a
//! seeded distribution over specifications (`sample.*` directives),
//! crossed with process corners (`corners`, `corner.temps_c`,
//! `corner.supplies`) and per-device Monte-Carlo mismatch instances
//! (`mc.*`), synthesized point by point on the batch's worker threads and
//! streamed to versioned JSONL records (schema `oasys-dataset/2`, see
//! `DATASET.md` at the repo root).
//!
//! The pipeline is built from the pieces in this module:
//!
//! 1. [`plan::DatasetPlan::expand`] — manifest → the deterministic
//!    global point list ([`sample`] draws the specs,
//!    `oasys_process::corners` derives the corner technologies).
//! 2. [`plan::DatasetPlan::shard_points`] — `id % shards` partitioning;
//!    every shard count partitions the *same* plan.
//! 3. [`generate`] — runs one shard through the batch engine, answering
//!    each point with [`crate::batch::SynthRunner`]'s job answer under
//!    the point's Monte-Carlo draw ([`runner::DatasetRunner`]), and
//!    streams records through the crash-safe [`sink::ShardSink`].
//! 4. [`merge()`] — k-way merges published shards into `dataset.jsonl` +
//!    `dataset-summary.json`, byte-identical for every shard count.
//!
//! [`schema::validate_record`] is the normative-schema gate used by the
//! tests and `cargo xtask smoke-dataset`.

pub mod merge;
pub mod plan;
pub mod record;
pub mod runner;
pub mod sample;
pub mod schema;
pub mod sink;

pub use merge::merge;
pub use plan::{DatasetPlan, PointMeta};
pub use sink::ShardSink;

use crate::batch::{Batch, BatchOptions, JobRecord, Manifest};
use crate::integrity::Salvage;
use oasys_telemetry::{json, Telemetry};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// An error raised while expanding or generating a dataset.
#[derive(Debug)]
pub enum DatasetError {
    /// The manifest lists no specs, no techs, or expands to no points.
    Empty,
    /// An input file could not be read.
    Io {
        /// The file that failed.
        path: PathBuf,
        /// The underlying I/O error.
        error: std::io::Error,
    },
    /// A specification (base file or sampled draw) is malformed.
    Spec {
        /// Spec label (path or `sample-NNNNNN`).
        label: String,
        /// What was wrong.
        detail: String,
    },
    /// A technology file is malformed or a corner derivation failed.
    Tech {
        /// Tech label (path).
        label: String,
        /// What was wrong.
        detail: String,
    },
    /// The shard sink or output directory failed.
    Sink {
        /// The path involved.
        path: PathBuf,
        /// The underlying I/O error.
        error: std::io::Error,
    },
    /// A merge-time consistency violation (mixed plans, missing or
    /// overlapping shards).
    Merge {
        /// What was inconsistent.
        detail: String,
    },
}

impl std::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Empty => write!(f, "dataset plan is empty (no specs, techs, or points)"),
            Self::Io { path, error } => {
                write!(f, "cannot read {}: {error}", path.display())
            }
            Self::Spec { label, detail } => write!(f, "spec {label}: {detail}"),
            Self::Tech { label, detail } => write!(f, "tech {label}: {detail}"),
            Self::Sink { path, error } => {
                write!(f, "dataset sink {}: {error}", path.display())
            }
            Self::Merge { detail } => write!(f, "dataset merge: {detail}"),
        }
    }
}

impl std::error::Error for DatasetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { error, .. } | Self::Sink { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// Options for one `oasys dataset` shard run.
#[derive(Clone, Debug)]
pub struct DatasetOptions {
    /// Total shard count (≥ 1).
    pub shards: usize,
    /// This run's shard (`0..shards`).
    pub shard_index: usize,
    /// Batch execution knobs (workers, deadline, retries, verify).
    pub batch: BatchOptions,
}

impl Default for DatasetOptions {
    fn default() -> Self {
        Self {
            shards: 1,
            shard_index: 0,
            batch: BatchOptions::default(),
        }
    }
}

/// The outcome of one shard run.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Records on durable record when the shard finished (the whole
    /// shard, counting salvaged records).
    pub records: usize,
    /// Records salvaged from a previous interrupted run.
    pub resumed: usize,
    /// Jobs actually executed this run.
    pub executed: usize,
    /// Records whose design met every verified spec.
    pub passed: usize,
    /// Spec draws rejected during sampling (plan-wide, not per shard).
    pub samples_rejected: usize,
    /// The plan fingerprint stamped into the shard summary.
    pub plan_fingerprint: u64,
    /// Sub-block design-cache hits this run.
    pub cache_hits: u64,
    /// Sub-block design-cache misses this run.
    pub cache_misses: u64,
    /// Record lines quarantined this run — untrusted lines of the
    /// partial and/or points missing from a published shard demoted by
    /// [`sink::heal_published`]. Every quarantined point was re-run.
    pub records_quarantined: usize,
    /// `true` when a torn final line was dropped this run.
    pub torn_tail: bool,
}

impl ShardReport {
    /// What this run repaired, in the shared wording of
    /// [`crate::integrity::Salvage`].
    #[must_use]
    pub fn salvage(&self) -> Salvage {
        Salvage {
            torn_tail: self.torn_tail,
            quarantined: self.records_quarantined,
        }
    }
}

/// Expands `manifest` and generates the configured shard into `dir`,
/// streaming each record as it completes. Resumable: an interrupted
/// run's partial file is salvaged and only missing points execute; a
/// published shard returns immediately.
///
/// # Errors
///
/// [`DatasetError`] on malformed inputs or sink I/O failures. Job-level
/// synthesis failures are *not* errors — they become `"failed"` records.
pub fn generate(
    manifest: &Manifest,
    dir: &Path,
    options: &DatasetOptions,
    tel: &Telemetry,
) -> Result<ShardReport, DatasetError> {
    let shards = options.shards.max(1);
    let shard_index = options.shard_index;
    if shard_index >= shards {
        return Err(DatasetError::Merge {
            detail: format!("shard index {shard_index} out of range for {shards} shards"),
        });
    }
    let plan = DatasetPlan::expand(manifest)?;
    tel.add("dataset.samples_rejected", plan.samples_rejected as u64);
    let sink_err = |error: std::io::Error| DatasetError::Sink {
        path: dir.to_path_buf(),
        error,
    };

    let points = plan.shard_points(shard_index, shards);
    let mut published = Salvage::default();
    if ShardSink::is_complete(dir, shard_index, shards) {
        // Published shards are immutable — but never trusted blindly:
        // every line's seal is re-verified and every point must have a
        // line. A damaged or short shard is demoted back to a partial of
        // its healthy lines and falls through to the resume path,
        // re-running exactly the missing points.
        published = sink::heal_published(dir, shard_index, shards, points.iter().map(|p| p.id))
            .map_err(sink_err)?;
        if published.is_clean() {
            let summary_path = sink::shard_summary_path(dir, shard_index, shards);
            let text =
                std::fs::read_to_string(&summary_path).map_err(|error| DatasetError::Sink {
                    path: summary_path,
                    error,
                })?;
            let summary = json::parse(&text).map_err(|e| DatasetError::Merge {
                detail: e.to_string(),
            })?;
            let num =
                |key: &str| summary.get(key).and_then(json::Json::as_num).unwrap_or(0.0) as usize;
            return Ok(ShardReport {
                records: num("records"),
                resumed: num("records"),
                executed: 0,
                passed: num("passed"),
                samples_rejected: plan.samples_rejected,
                plan_fingerprint: plan.fingerprint,
                cache_hits: 0,
                cache_misses: 0,
                records_quarantined: 0,
                torn_tail: false,
            });
        }
    }

    let mut sink = ShardSink::open(dir, shard_index, shards).map_err(sink_err)?;
    let records_quarantined = published.quarantined + sink.salvage().quarantined;
    let torn_tail = published.torn_tail || sink.salvage().torn_tail;
    if records_quarantined > 0 {
        tel.add("dataset.records_quarantined", records_quarantined as u64);
    }
    let resumed = sink.recorded_ids().count();
    let recorded: std::collections::HashSet<usize> = sink.recorded_ids().collect();
    let pending: Vec<&PointMeta> = points
        .iter()
        .copied()
        .filter(|p| !recorded.contains(&p.id))
        .collect();

    let mut executed = 0usize;
    let mut cache_hits = 0u64;
    let mut cache_misses = 0u64;
    if !pending.is_empty() {
        let jobs: Vec<_> = pending
            .iter()
            .enumerate()
            .map(|(local_id, p)| p.job(local_id))
            .collect();
        let runner = Arc::new(runner::DatasetRunner::new(&plan, &pending, &options.batch));
        let batch = Batch::new(jobs, options.batch.clone());
        // Records stream into the shard sink as jobs finish, the only
        // place their netlist-and-datasheet `detail` goes; the report
        // keeps them without it and is read here only for its length.
        // A sink failure is latched and re-raised after the batch
        // drains.
        let mut sink_error: Option<std::io::Error> = None;
        let report = batch
            .run(&runner, tel, |record: &JobRecord| {
                if sink_error.is_some() {
                    return;
                }
                let point = pending[record.job];
                let line = record::render_record(point, record, &plan);
                match sink.record(&line) {
                    Ok(()) => tel.incr("dataset.records"),
                    Err(error) => sink_error = Some(error),
                }
            })
            .map_err(|e| DatasetError::Merge {
                detail: e.to_string(),
            })?;
        if let Some(error) = sink_error {
            return Err(sink_err(error));
        }
        executed = report.records().len();
        cache_hits = runner.cache().hits();
        cache_misses = runner.cache().misses();
    }

    // Every point must be on record before the shard publishes.
    if sink.recorded_ids().count() != points.len() {
        return Err(DatasetError::Merge {
            detail: format!(
                "shard {shard_index}/{shards} has {} of {} records; rerun to resume",
                sink.recorded_ids().count(),
                points.len()
            ),
        });
    }

    let passed = sink.passed_count();
    let records = sink.recorded_ids().count();
    let summary = render_shard_summary(&plan, shard_index, shards, records, passed);
    sink.finalize(&summary).map_err(sink_err)?;
    Ok(ShardReport {
        records,
        resumed,
        executed,
        passed,
        samples_rejected: plan.samples_rejected,
        plan_fingerprint: plan.fingerprint,
        cache_hits,
        cache_misses,
        records_quarantined,
        torn_tail,
    })
}

/// Renders a shard summary. Per-shard fields (`shard`, `shards`) are
/// segregated under `"shard"` so the merge can sum the rest without
/// leaking shard-count-dependent values into the merged summary.
fn render_shard_summary(
    plan: &DatasetPlan,
    shard_index: usize,
    shards: usize,
    records: usize,
    passed: usize,
) -> String {
    format!(
        concat!(
            "{{\"schema\":\"oasys-dataset-summary\",\"v\":1,",
            "\"plan_fingerprint\":\"{:016x}\",\"total_points\":{},",
            "\"samples_rejected\":{},\"samples_drawn\":{},",
            "\"records\":{},\"passed\":{},",
            "\"shard\":{{\"index\":{},\"of\":{}}}}}"
        ),
        plan.fingerprint,
        plan.points.len(),
        plan.samples_rejected,
        plan.samples_drawn,
        records,
        passed,
        shard_index,
        shards,
    )
}

/// The fault registry is process-wide: a lib test that arms a fault
/// holds this lock exclusively, and every lib test that appends to a
/// shard sink holds it shared, so a one-shot fault such as
/// `sink.record.corrupt` never fires inside a sibling test.
#[cfg(test)]
static FAULT_LOCK: std::sync::RwLock<()> = std::sync::RwLock::new(());

/// Serializes fault-plane lib tests and guarantees a clean registry on
/// exit.
#[cfg(test)]
pub(crate) struct FaultGuard(#[allow(dead_code)] std::sync::RwLockWriteGuard<'static, ()>);

#[cfg(test)]
impl FaultGuard {
    pub(crate) fn acquire() -> Self {
        let guard = FAULT_LOCK
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        oasys_faults::clear();
        Self(guard)
    }
}

#[cfg(test)]
impl Drop for FaultGuard {
    fn drop(&mut self) {
        oasys_faults::clear();
    }
}

/// Keeps fault-arming lib tests out while a fault-free test appends.
#[cfg(test)]
pub(crate) fn no_faults_armed() -> std::sync::RwLockReadGuard<'static, ()> {
    FAULT_LOCK
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
pub(crate) fn test_dir(name: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "oasys-dataset-{name}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}
