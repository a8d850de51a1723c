//! The production [`JobRunner`]: full OASYS synthesis per job, with one
//! shared, bounded, fingerprint-namespaced [`MemoCache`].

use super::manifest::{fingerprint, Job};
use super::runner::{JobFailure, JobRunner, JobSuccess, StyleEntry};
use crate::datasheet::Datasheet;
use crate::synth::synthesize_with_cache;
use crate::verify::{verify_with, Measured};
use crate::{OpAmpDesign, SearchOptions};
use oasys_faults::Deadline;
use oasys_plan::MemoCache;
use oasys_process::Process;
use oasys_sim::mismatch::Mismatch;
use oasys_telemetry::Telemetry;
use std::sync::Arc;

/// Default capacity of the shared sub-block design cache: generous for
/// any realistic sweep (the bundled 3×3 sweep caches a few dozen
/// designs) while bounding the memory of a long-lived server.
pub const DEFAULT_CACHE_ENTRIES: usize = 4096;

/// Runs each job through spec/tech parsing, breadth-first style search,
/// and (optionally) simulator verification of the winner.
///
/// Sub-block designs are memoized in **one shared, bounded LRU**
/// [`MemoCache`]: cache keys are namespaced by the technology text's
/// fingerprint (see [`SearchOptions::with_cache_namespace`]), so jobs on
/// the same process share hits across the whole sweep — and across
/// requests, when a resident server keeps one runner alive — while
/// different processes can never serve each other's entries. The
/// capacity bound ([`SynthRunner::with_cache_entries`]) keeps a
/// process-lifetime cache from growing without limit; the least
/// recently used design is evicted on overflow.
///
/// All failure modes here are deterministic (parse errors, simulator
/// non-convergence), so this runner never reports a transient failure;
/// "no style fits" is a definitive [`JobSuccess::infeasible`] answer,
/// not a failure at all.
pub struct SynthRunner {
    search: SearchOptions,
    verify: bool,
    cache: Arc<MemoCache>,
}

impl Default for SynthRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl SynthRunner {
    /// A runner with default search options, verification enabled, and
    /// a [`DEFAULT_CACHE_ENTRIES`]-entry shared cache.
    #[must_use]
    pub fn new() -> Self {
        Self {
            search: SearchOptions::default(),
            verify: true,
            cache: Arc::new(MemoCache::bounded(DEFAULT_CACHE_ENTRIES)),
        }
    }

    /// Sets the style-search options every job runs with.
    #[must_use]
    pub fn with_search(mut self, search: SearchOptions) -> Self {
        self.search = search;
        self
    }

    /// Enables or disables post-synthesis verification.
    #[must_use]
    pub fn with_verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Replaces the shared cache with a bounded one holding at most
    /// `entries` designs (at least one).
    #[must_use]
    pub fn with_cache_entries(mut self, entries: usize) -> Self {
        self.cache = Arc::new(MemoCache::bounded(entries));
        self
    }

    /// The shared sub-block design cache (hit/miss/eviction counters
    /// included — a server's metrics endpoint reads them from here).
    #[must_use]
    pub fn cache(&self) -> &MemoCache {
        &self.cache
    }
}

impl JobRunner for SynthRunner {
    fn run(
        &self,
        job: &Job,
        tel: &Telemetry,
        deadline: &Deadline,
    ) -> Result<JobSuccess, JobFailure> {
        self.answer(job, tel, deadline, Mismatch::disabled(), None)
    }
}

/// Renders the payload a feasible answer carries
/// ([`JobSuccess::with_detail`]) from the selected design, its process,
/// and the measurement when the job verified.
pub(crate) type Detail = fn(&OpAmpDesign, &Process, Option<&Measured>) -> String;

impl SynthRunner {
    /// Answers one job: the one place a batch or dataset job is parsed,
    /// searched, and judged.
    ///
    /// Synthesis always runs on the *nominal* device models — the
    /// paper's design equations size a circuit for the process, not for
    /// one mismatch draw. `draw` binds only around verification
    /// ([`oasys_sim::mismatch::scoped`]): the simulator sees the
    /// perturbed devices, the plan does not, so the tech-namespaced
    /// cache stays valid across Monte-Carlo siblings. A batch answers
    /// with [`Mismatch::disabled`]. `detail`, when given, renders the
    /// payload a feasible answer carries.
    pub(crate) fn answer(
        &self,
        job: &Job,
        tel: &Telemetry,
        deadline: &Deadline,
        draw: Mismatch,
        detail: Option<Detail>,
    ) -> Result<JobSuccess, JobFailure> {
        let spec = crate::specfile::parse(job.spec_text())
            .map_err(|e| JobFailure::permanent(format!("spec {}: {e}", job.spec_label())))?;
        let process = oasys_process::techfile::parse(job.tech_text())
            .map_err(|e| JobFailure::permanent(format!("tech {}: {e}", job.tech_label())))?;
        let search = self
            .search
            .clone()
            .with_deadline(deadline.clone())
            .with_cache_namespace(format!("{:016x}", fingerprint("", job.tech_text())));
        match synthesize_with_cache(&spec, &process, &search, tel, &self.cache) {
            Ok(synthesis) => {
                let styles = synthesis
                    .outcomes()
                    .iter()
                    .map(|outcome| StyleEntry {
                        style: outcome.style().to_string(),
                        area_um2: outcome.design().map(|d| d.area().total_um2()),
                        devices: outcome.design().map(OpAmpDesign::device_count),
                        notes: outcome
                            .design()
                            .map(|d| d.notes().to_vec())
                            .unwrap_or_default(),
                        reason: outcome.rejection(),
                    })
                    .collect();
                let design = synthesis.selected();
                let mut success =
                    JobSuccess::feasible(design.style().to_string(), design.area().total_um2())
                        .with_styles(styles);
                let mut measured = None;
                if self.verify {
                    let verification = oasys_sim::mismatch::scoped(draw, || {
                        verify_with(design, &process, spec.load().farads(), tel)
                    })
                    .map_err(|e| JobFailure::permanent(format!("verification failed: {e}")))?;
                    let sheet = Datasheet::new(
                        format!("{} × {}", job.spec_label(), job.tech_label()),
                        &spec,
                        design.predicted(),
                        Some(&verification.measured),
                    );
                    success = success.with_meets_spec(sheet.all_measured_pass());
                    measured = Some(verification.measured);
                }
                if let Some(detail) = detail {
                    success = success.with_detail(detail(design, &process, measured.as_ref()));
                }
                Ok(success)
            }
            Err(e) => {
                // When the deadline tripped mid-search, the rejections
                // are an artifact of the abort, not a verdict on the
                // spec — report a timeout instead of "infeasible".
                if let Err(exceeded) = deadline.check() {
                    return Err(JobFailure::timed_out(format!(
                        "synthesis of {} × {} aborted: {exceeded}",
                        job.spec_label(),
                        job.tech_label()
                    )));
                }
                let styles = e
                    .rejections()
                    .iter()
                    .map(|(style, reason)| StyleEntry {
                        style: style.to_string(),
                        area_um2: None,
                        devices: None,
                        notes: Vec::new(),
                        reason: Some(reason.clone()),
                    })
                    .collect();
                Ok(JobSuccess::infeasible().with_styles(styles))
            }
        }
    }
}
