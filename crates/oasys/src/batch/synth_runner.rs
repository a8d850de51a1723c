//! The production [`JobRunner`]: full OASYS synthesis per job, with one
//! shared, bounded, fingerprint-namespaced [`MemoCache`]. Its `answer`
//! answers every batch, dataset and `oasys serve` job.

use super::manifest::{fingerprint, Job};
use super::runner::{JobFailure, JobRunner, JobSuccess, StyleEntry};
use crate::datasheet::Datasheet;
use crate::synth::{synthesize_with_cache, SynthesisError};
use crate::verify::{verify_with, Measured, VerifyError};
use crate::{OpAmpDesign, SearchOptions};
use oasys_faults::{Deadline, DeadlineExceeded};
use oasys_plan::MemoCache;
use oasys_process::Process;
use oasys_sim::mismatch::Mismatch;
use oasys_telemetry::Telemetry;
use std::sync::Arc;

/// Default capacity of the shared sub-block design cache, which bounds
/// the memory of a long-lived batch or server. One synthesis makes
/// ≈ 21–24 sub-block lookups, most of them misses, so a resident server
/// holds the designs of ≈ 170 distinct requests, and a sweep of a few
/// hundred jobs overflows the cache (the benchmark's 453-job
/// `synth_sweep` round, about twice). Past that each stored design
/// evicts one, at a cost that does not grow with the capacity.
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
        let verify = self.verify.then(Mismatch::disabled);
        self.answer(job, tel, deadline, verify, None)
            .map_err(|failure| failure.into_job_failure(job))
    }
}

/// Renders the payload a feasible answer carries
/// ([`JobSuccess::with_detail`]) from the selected design, its process,
/// and the measurement when the job verified.
pub(crate) type Detail = fn(&OpAmpDesign, &Process, Option<&Measured>) -> String;

/// The stage that stopped [`SynthRunner::answer`] short of an answer.
/// Batch and dataset records word it with [`Self::into_job_failure`];
/// `oasys serve` maps it onto its wire error kinds.
pub(crate) enum AnswerFailure {
    /// The spec text does not parse.
    Spec(crate::specfile::ParseSpecError),
    /// The tech text does not parse.
    Tech(oasys_process::techfile::ParseTechfileError),
    /// The deadline expired mid-search; its rejections are no verdict.
    Deadline(DeadlineExceeded, SynthesisError),
    /// The simulator could not verify the selected design.
    Verify(VerifyError),
}

impl AnswerFailure {
    /// The failure as a batch or dataset record words it.
    pub(crate) fn into_job_failure(self, job: &Job) -> JobFailure {
        let (spec, tech) = (job.spec_label(), job.tech_label());
        match self {
            Self::Spec(e) => JobFailure::permanent(format!("spec {spec}: {e}")),
            Self::Tech(e) => JobFailure::permanent(format!("tech {tech}: {e}")),
            Self::Deadline(exceeded, _) => {
                JobFailure::timed_out(format!("synthesis of {spec} × {tech} aborted: {exceeded}"))
            }
            Self::Verify(e) => JobFailure::permanent(format!("verification failed: {e}")),
        }
    }
}

impl SynthRunner {
    /// Answers one job: the one place a batch or dataset job, or a
    /// served request, is parsed, searched, and judged.
    ///
    /// Synthesis always runs on the *nominal* device models — the
    /// paper's design equations size a circuit for the process, not for
    /// one mismatch draw. `verify`, the draw to verify under (`None`
    /// skips verification), binds only around verification
    /// ([`oasys_sim::mismatch::scoped`]): the simulator sees the
    /// perturbed devices, the plan does not, so the tech-namespaced
    /// cache stays valid across Monte-Carlo siblings. A batch verifies
    /// under [`Mismatch::disabled`]. `detail`, when given, renders the
    /// payload a feasible answer carries.
    pub(crate) fn answer(
        &self,
        job: &Job,
        tel: &Telemetry,
        deadline: &Deadline,
        verify: Option<Mismatch>,
        detail: Option<Detail>,
    ) -> Result<JobSuccess, AnswerFailure> {
        let spec = crate::specfile::parse(job.spec_text()).map_err(AnswerFailure::Spec)?;
        let process =
            oasys_process::techfile::parse(job.tech_text()).map_err(AnswerFailure::Tech)?;
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
                if let Some(draw) = verify {
                    let verification = oasys_sim::mismatch::scoped(draw, || {
                        verify_with(design, &process, spec.load().farads(), tel)
                    })
                    .map_err(AnswerFailure::Verify)?;
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
                    return Err(AnswerFailure::Deadline(exceeded, e));
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
