//! The production [`JobRunner`]: full OASYS synthesis per job, with one
//! shared, bounded, technology-namespaced [`MemoCache`]. Its `answer`
//! answers every batch, dataset and `oasys serve` job.

use super::manifest::Job;
use super::runner::{JobFailure, JobRunner, JobSuccess, StyleEntry};
use crate::datasheet::Datasheet;
use crate::synth::{synthesize_with_cache, SynthesisError};
use crate::verify::{verify_with, Measured, VerifyError};
use crate::{OpAmpDesign, SearchOptions};
use oasys_faults::{Deadline, DeadlineExceeded};
use oasys_plan::MemoCache;
use oasys_process::techfile::{self, ParseTechfileError};
use oasys_process::Process;
use oasys_sim::mismatch::Mismatch;
use oasys_telemetry::Telemetry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Default capacity of the shared sub-block design cache, which bounds
/// the memory of a long-lived batch or server. One synthesis makes
/// ≈ 21–24 sub-block lookups, most of them misses, so a resident server
/// holds the designs of ≈ 170 distinct requests, and a sweep of a few
/// hundred jobs overflows the cache (the benchmark's 453-job
/// `synth_sweep` round, about twice). Past that each stored design
/// evicts one, at a cost that does not grow with the capacity.
pub const DEFAULT_CACHE_ENTRIES: usize = 4096;

/// How many distinct technology texts a runner keeps parsed: well
/// above what one sweep, dataset or server meets (the benchmark's
/// workloads meet 3, 6 and 2). Past it the least recently used text is
/// dropped; if it comes back it is parsed again, under a new namespace.
const TECHNOLOGIES: usize = 64;

/// How many bytes of technology text a runner keeps. A bundled kit is
/// ≈ 600 bytes, but a served request may carry megabytes of comments,
/// so the count bound alone would let clients pin 64 of them. A longer
/// text is parsed for each of its jobs.
const TECHNOLOGY_BYTES: usize = 1 << 20;

/// Runs each job through spec/tech parsing, breadth-first style search,
/// and (optionally) simulator verification of the winner.
///
/// Each distinct technology text is parsed once: the runner keeps its
/// [`Process`] in a bounded map keyed by the full text, with a cache
/// namespace of its own (see [`SearchOptions::with_cache_namespace`]).
/// A text that fails to parse is not kept, so each of its jobs fails
/// with the parse error.
///
/// Sub-block designs are memoized in **one shared, bounded LRU**
/// [`MemoCache`]: jobs on the same technology text share hits across
/// the whole sweep — and across requests, when a resident server keeps
/// one runner alive — while different texts can never serve each
/// other's entries. The capacity bound
/// ([`SynthRunner::with_cache_entries`]) keeps a process-lifetime cache
/// from growing without limit; the least recently used design is
/// evicted on overflow.
///
/// All failure modes here are deterministic (parse errors, simulator
/// non-convergence), so this runner never reports a transient failure;
/// "no style fits" is a definitive [`JobSuccess::infeasible`] answer,
/// not a failure at all.
pub struct SynthRunner {
    search: SearchOptions,
    verify: bool,
    cache: Arc<MemoCache>,
    technologies: Mutex<Technologies>,
}

/// A parsed technology text and the cache namespace of its designs.
#[derive(Clone)]
struct Technology {
    process: Arc<Process>,
    namespace: Arc<str>,
}

/// The runner's parsed technologies, keyed by their full text, at most
/// [`TECHNOLOGIES`] of them and [`TECHNOLOGY_BYTES`] of text.
#[derive(Default)]
struct Technologies {
    /// Each text's technology and the lookup that last used it.
    by_text: HashMap<Box<str>, (Technology, u64)>,
    /// The length of every text in `by_text`, summed.
    bytes: usize,
    /// Lookups so far.
    lookups: u64,
    /// Texts named so far: the next one's namespace is `tech-<named>`,
    /// so no two texts, even one that left the map and came back, ever
    /// share a namespace.
    named: u64,
}

impl Technologies {
    /// `text`'s technology, when the map holds it.
    fn get(&mut self, text: &str) -> Option<Technology> {
        self.lookups += 1;
        let (technology, used) = self.by_text.get_mut(text)?;
        *used = self.lookups;
        Some(technology.clone())
    }

    /// Gives `text`, just parsed into `process`, its namespace and keeps
    /// it if it fits. A text another worker parsed and kept meanwhile
    /// keeps the technology it was given.
    fn insert(&mut self, text: &str, process: Process) -> Technology {
        if let Some(technology) = self.get(text) {
            return technology;
        }
        let technology = Technology {
            process: Arc::new(process),
            namespace: format!("tech-{}", self.named).into(),
        };
        self.named += 1;
        if text.len() <= TECHNOLOGY_BYTES {
            while self.by_text.len() >= TECHNOLOGIES || self.bytes + text.len() > TECHNOLOGY_BYTES {
                let oldest = self
                    .by_text
                    .iter()
                    .min_by_key(|(_, (_, used))| *used)
                    .map(|(text, _)| text.clone());
                let Some(oldest) = oldest else { break };
                self.by_text.remove(&oldest);
                self.bytes -= oldest.len();
            }
            self.bytes += text.len();
            self.by_text
                .insert(text.into(), (technology.clone(), self.lookups));
        }
        technology
    }
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
            technologies: Mutex::default(),
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

    /// `text`'s parsed technology, from the runner's map when it has
    /// met the text before. The parse runs outside the lock, so a long
    /// text does not hold up other workers' lookups.
    fn technology(&self, text: &str) -> Result<Technology, ParseTechfileError> {
        if let Some(technology) = self.technologies().get(text) {
            return Ok(technology);
        }
        let process = techfile::parse(text)?;
        Ok(self.technologies().insert(text, process))
    }

    /// The technology map, recovered from a poisoned lock: each update
    /// leaves it whole.
    fn technologies(&self) -> MutexGuard<'_, Technologies> {
        self.technologies
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
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
    Tech(ParseTechfileError),
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
        let technology = self
            .technology(job.tech_text())
            .map_err(AnswerFailure::Tech)?;
        let process = &*technology.process;
        let search = self
            .search
            .clone()
            .with_deadline(deadline.clone())
            .with_cache_namespace(technology.namespace);
        match synthesize_with_cache(&spec, process, &search, tel, &self.cache) {
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
                        verify_with(design, process, spec.load().farads(), tel)
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
                    success = success.with_detail(detail(design, process, measured.as_ref()));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{Batch, BatchOptions, JobStatus};
    use crate::dataset::no_faults_armed;
    use crate::synthesize_with_options;

    const SPEC_A: &str = include_str!("../../../../data/spec-a.txt");
    const KITS: [&str; 3] = [
        include_str!("../../../../data/generic-5um.tech"),
        include_str!("../../../../data/generic-3um.tech"),
        include_str!("../../../../data/generic-1.2um.tech"),
    ];

    /// What a synthesis on a freshly parsed `tech` text selects.
    fn fresh_answer(spec: &str, tech: &str) -> Option<(String, f64)> {
        let spec = crate::specfile::parse(spec).unwrap();
        let process = techfile::parse(tech).unwrap();
        synthesize_with_options(
            &spec,
            &process,
            &SearchOptions::new(),
            &Telemetry::disabled(),
        )
        .ok()
        .map(|s| {
            (
                s.selected().style().to_string(),
                s.selected().area().total_um2(),
            )
        })
    }

    #[test]
    fn more_texts_than_the_map_holds_answer_as_fresh_parses() {
        let _faults = no_faults_armed();
        // Each kit under distinct comment lines: distinct texts, three
        // processes.
        let texts: Vec<String> = (0..TECHNOLOGIES + 8)
            .map(|i| format!("{}# variant {i}\n", KITS[i % 3]))
            .collect();
        // Every text twice, the second pass backwards, so the first
        // texts have left the map by the time they come back.
        let order: Vec<usize> = (0..texts.len()).chain((0..texts.len()).rev()).collect();
        let jobs = order
            .iter()
            .enumerate()
            .map(|(id, &t)| Job::from_texts(id, "spec-a", SPEC_A, format!("tech {t}"), &*texts[t]))
            .collect();
        let runner = Arc::new(SynthRunner::new().with_verify(false));
        let options = BatchOptions::default().with_workers(2).with_verify(false);
        let report = Batch::new(jobs, options)
            .run(&runner, &Telemetry::disabled(), |_| {})
            .unwrap();

        assert_eq!(report.records().len(), order.len());
        let fresh: Vec<_> = texts.iter().map(|t| fresh_answer(SPEC_A, t)).collect();
        for (record, &t) in report.records().iter().zip(&order) {
            let answer = match &record.status {
                JobStatus::Ok { style, area_um2 } => Some((style.clone(), *area_um2)),
                JobStatus::Infeasible => None,
                other => panic!("job {}: {other:?}", record.job),
            };
            assert_eq!(answer, fresh[t], "job {} on text {t}", record.job);
        }
        let technologies = runner.technologies.lock().unwrap();
        assert!(technologies.by_text.len() <= TECHNOLOGIES);
        assert!(
            technologies.named > texts.len() as u64,
            "texts left the map and were named again: {} names for {} texts",
            technologies.named,
            texts.len()
        );
    }

    #[test]
    fn a_malformed_text_fails_each_of_its_jobs() {
        let _faults = no_faults_armed();
        let bad: String = KITS[0]
            .lines()
            .filter(|line| !line.starts_with("tox_angstrom"))
            .map(|line| format!("{line}\n"))
            .collect();
        let expected = format!("tech notox: {}", techfile::parse(&bad).unwrap_err());
        let runner = SynthRunner::new().with_verify(false);
        for id in 0..3 {
            let job = Job::from_texts(id, "spec-a", SPEC_A, "notox", &*bad);
            let failure = runner
                .run(&job, &Telemetry::disabled(), &Deadline::none())
                .unwrap_err();
            assert_eq!(failure.message, expected);
            assert!(!failure.transient);
        }
        let technologies = runner.technologies.lock().unwrap();
        assert!(technologies.by_text.is_empty(), "a parse error is not kept");
        assert_eq!(technologies.named, 0);
    }

    #[test]
    fn a_text_past_the_byte_bound_is_parsed_but_not_kept() {
        let _faults = no_faults_armed();
        let padding = "#".repeat(TECHNOLOGY_BYTES) + "\n";
        let long = format!("{}{padding}", KITS[0]);
        let runner = SynthRunner::new().with_verify(false);
        let answer = |tech: &str| {
            let job = Job::from_texts(0, "spec-a", SPEC_A, "kit", tech);
            let success = runner
                .run(&job, &Telemetry::disabled(), &Deadline::none())
                .unwrap();
            success
                .selected()
                .map(|(style, area)| (style.to_owned(), area))
        };
        assert_eq!(answer(KITS[0]), fresh_answer(SPEC_A, KITS[0]));
        for _ in 0..2 {
            assert_eq!(answer(&long), fresh_answer(SPEC_A, &long));
        }
        let technologies = runner.technologies.lock().unwrap();
        assert_eq!(technologies.by_text.len(), 1, "only the short text is kept");
        assert_eq!(technologies.bytes, KITS[0].len());
        assert_eq!(technologies.named, 3, "the long text parses for each job");
    }
}
