//! The `oasys` command-line tool: synthesize a sized CMOS op-amp
//! schematic from a specification file and a technology file.
//!
//! ```text
//! oasys <spec-file> <tech-file> [--out <deck.sp>] [--no-verify]
//!       [--styles <list>] [--explain] [--trace-out <file.json>]
//!       [--trace-format json|chrome]
//! oasys lint [<spec-file> <tech-file>] [--deny-warnings] [--format human|json|sarif]
//! oasys batch <manifest> [--records <file.jsonl>] [--aggregate <file.json>]
//!       [--checkpoint <file>] [--workers <n>] [--timeout-ms <n>]
//!       [--retries <n>] [--no-verify] [--styles <list>] [--explain]
//! oasys dataset <manifest> --out <dir> [--shards <n>] [--shard-index <i>]
//!       [--workers <n>] [--timeout-ms <n>] [--retries <n>] [--no-verify]
//! oasys dataset merge <dir>
//! oasys serve --socket <path> [--workers <n>] [--queue-depth <n>]
//!       [--io-timeout-ms <n>] [--cache-entries <n>] [--timeout-ms <n>]
//! oasys client --socket <path> <spec-file> <tech-file> [--timeout-ms <n>]
//! oasys client --socket <path> --ping|--shutdown
//! ```
//!
//! The first form prints the style-selection outcome, the sized device
//! table, and the spec/predicted/measured datasheet; optionally writes a
//! SPICE deck. `--styles` restricts the breadth-first search to a
//! comma-separated subset of the style catalog (`one-stage-ota`,
//! `two-stage`, `folded-cascode`); unknown names are rejected up front.
//! `--explain` prints the annotated span tree of the run
//! (style attempts, plan steps, rule firings, simulator phases);
//! `--trace-out` writes the machine-readable run report — JSON-lines
//! events plus a metrics snapshot by default, or the Chrome trace-event
//! format (loadable in Perfetto / `chrome://tracing`) under
//! `--trace-format chrome`.
//!
//! The `lint` form runs the static analyzers: the plan dataflow checks
//! over every built-in style plan, and — when a spec and tech file are
//! given — the netlist electrical-rule checks over each successfully
//! synthesized design. Diagnostics go to stdout (human-readable or as a
//! JSON array); the exit code is nonzero when any error fires, or, under
//! `--deny-warnings`, when any diagnostic fires at all.
//!
//! The `batch` form expands a manifest of `spec × tech` inputs into a
//! job list and runs it on `--workers` threads, streaming one JSON
//! line per job (to stdout, or `--records`) and ending with the
//! deterministic aggregate report (to stdout, or `--aggregate`).
//! `--checkpoint` makes the run resumable: completed jobs are recorded
//! by content fingerprint and skipped when the batch is re-run; damaged
//! checkpoint lines are dropped (the repair is printed) and their jobs
//! re-run. A panicking or timed-out job is reported as failed in its
//! own record while the remaining jobs complete; the exit code is
//! nonzero only when some job failed (infeasible specs are definitive
//! answers, not failures). Command-line flags override the manifest's
//! `workers =` / `timeout_ms =` / `retries =` / `verify =` settings;
//! `--timeout-ms 0` disables the per-job timeout.
//!
//! The `dataset` form runs a *sampled sweep*: the manifest's `sample.*`,
//! `corners`, and `mc.*` directives expand into a deterministic point
//! list (see `DATASET.md`), partitioned `id % shards` across
//! independent shard runs that each stream `oasys-dataset/2` JSONL
//! records into `--out`. An interrupted shard resumes from its partial
//! file; `oasys dataset merge` stitches the published shards into one
//! `dataset.jsonl` whose bytes are identical for every shard count.
//!
//! The `serve` form starts a resident synthesis server on a Unix domain
//! socket (see [`oasys::serve`] for the wire protocol): requests reuse
//! one warm, bounded design cache across their lifetime, `--workers`
//! handler threads answer at most that many connections at once while
//! the rest wait in a `--queue-depth` admission queue, and SIGTERM (or
//! a `shutdown` request) drains in-flight work before exiting. The
//! `client` form sends one request — a spec × tech synthesis, `--ping`,
//! or `--shutdown` — and prints the server's JSON response; the exit
//! code is nonzero unless the server answered `ok`.

use oasys::{
    batch, specfile, styles, synthesize_with, synthesize_with_options, verify_with, Datasheet,
    OpAmpStyle, SearchOptions, Synthesis,
};
use oasys_netlist::{lint, report, spice};
use oasys_process::techfile;
use oasys_telemetry::Telemetry;
use std::process::ExitCode;

const SYNTH_USAGE: &str = "usage: oasys <spec-file> <tech-file> [--out <deck.sp>] [--no-verify] [--styles <list>] [--explain] [--trace-out <file.json>] [--trace-format json|chrome] [--metrics-out <file.json>]\n       oasys lint [<spec-file> <tech-file>] [--deny-warnings] [--format human|json|sarif]";
const LINT_USAGE: &str =
    "usage: oasys lint [<spec-file> <tech-file>] [--deny-warnings] [--format human|json|sarif]";
const BATCH_USAGE: &str = "usage: oasys batch <manifest> [--records <file.jsonl>] [--aggregate <file.json>] [--checkpoint <file>] [--workers <n>] [--timeout-ms <n>] [--retries <n>] [--no-verify] [--styles <list>] [--explain]";
const DATASET_USAGE: &str = "usage: oasys dataset <manifest> --out <dir> [--shards <n>] [--shard-index <i>] [--workers <n>] [--timeout-ms <n>] [--retries <n>] [--no-verify]\n       oasys dataset merge <dir>";
const SERVE_USAGE: &str = "usage: oasys serve --socket <path> [--workers <n>] [--queue-depth <n>] [--io-timeout-ms <n>] [--cache-entries <n>] [--timeout-ms <n>]";
const CLIENT_USAGE: &str = "usage: oasys client --socket <path> <spec-file> <tech-file> [--timeout-ms <n>] [--retries <n>] [--retry-seed <n>]\n       oasys client --socket <path> --ping|--health|--shutdown [--retries <n>] [--retry-seed <n>]";

fn main() -> ExitCode {
    if let Err(e) = oasys_faults::init_from_env() {
        eprintln!("oasys: {}: {e}", oasys_faults::FAULTS_ENV);
        return ExitCode::FAILURE;
    }
    let result = {
        let mut args = std::env::args().skip(1).peekable();
        match args.peek().map(String::as_str) {
            Some("lint") => {
                args.next();
                run_lint(args)
            }
            Some("batch") => {
                args.next();
                run_batch(args)
            }
            Some("dataset") => {
                args.next();
                run_dataset(args)
            }
            Some("serve") => {
                args.next();
                run_serve(args).map(|()| ExitCode::SUCCESS)
            }
            Some("client") => {
                args.next();
                run_client(args)
            }
            _ => run_synth(args).map(|()| ExitCode::SUCCESS),
        }
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("oasys: {message}");
            ExitCode::FAILURE
        }
    }
}

/// On-disk format for `--trace-out`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TraceFormat {
    /// JSON-lines events plus a metrics snapshot (the default).
    Json,
    /// Chrome trace-event array for Perfetto / `chrome://tracing`.
    Chrome,
}

/// Resolves one `--styles` entry. Accepts the display name exactly
/// (`"one-stage OTA"`) or the shell-friendly form with hyphens for
/// spaces, case-insensitively (`one-stage-ota`, `folded-cascode`).
fn parse_style(name: &str) -> Option<OpAmpStyle> {
    let normalized = name.trim().to_lowercase().replace(' ', "-");
    OpAmpStyle::ALL
        .into_iter()
        .find(|s| s.to_string().to_lowercase().replace(' ', "-") == normalized)
}

/// Parses the comma-separated `--styles` list into validated display
/// names (the form [`SearchOptions::with_styles`] matches against).
fn parse_styles_list(list: &str) -> Result<Vec<String>, String> {
    let names: Vec<&str> = list
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if names.is_empty() {
        return Err(format!("--styles needs at least one style\n{SYNTH_USAGE}"));
    }
    names
        .into_iter()
        .map(|name| {
            parse_style(name).map(|s| s.to_string()).ok_or_else(|| {
                let known: Vec<String> = OpAmpStyle::ALL
                    .iter()
                    .map(|s| s.to_string().to_lowercase().replace(' ', "-"))
                    .collect();
                format!(
                    "unknown style `{name}` (known styles: {})\n{SYNTH_USAGE}",
                    known.join(", ")
                )
            })
        })
        .collect()
}

/// Parsed arguments of the synthesis mode.
#[derive(Debug, PartialEq, Eq)]
struct SynthOptions {
    spec_path: String,
    tech_path: String,
    out_path: Option<String>,
    run_verify: bool,
    styles: Option<Vec<String>>,
    explain: bool,
    trace_out: Option<String>,
    trace_format: TraceFormat,
    metrics_out: Option<String>,
}

impl SynthOptions {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let spec_path = args.next().ok_or(SYNTH_USAGE)?;
        let tech_path = args.next().ok_or(SYNTH_USAGE)?;
        let mut opts = SynthOptions {
            spec_path,
            tech_path,
            out_path: None,
            run_verify: true,
            styles: None,
            explain: false,
            trace_out: None,
            trace_format: TraceFormat::Json,
            metrics_out: None,
        };
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--out" => {
                    opts.out_path = Some(args.next().ok_or("--out needs a path")?);
                }
                "--no-verify" => opts.run_verify = false,
                "--styles" => {
                    let list = args.next().ok_or("--styles needs a comma-separated list")?;
                    opts.styles = Some(parse_styles_list(&list)?);
                }
                "--explain" => opts.explain = true,
                "--trace-out" => {
                    opts.trace_out = Some(args.next().ok_or("--trace-out needs a path")?);
                }
                "--metrics-out" => {
                    opts.metrics_out = Some(args.next().ok_or("--metrics-out needs a path")?);
                }
                "--trace-format" => match args.next().as_deref() {
                    Some("json") => opts.trace_format = TraceFormat::Json,
                    Some("chrome") => opts.trace_format = TraceFormat::Chrome,
                    Some(other) => {
                        return Err(format!("unknown trace format `{other}`\n{SYNTH_USAGE}"));
                    }
                    None => {
                        return Err(format!(
                            "--trace-format needs `json` or `chrome`\n{SYNTH_USAGE}"
                        ));
                    }
                },
                other => return Err(format!("unknown flag `{other}`\n{SYNTH_USAGE}")),
            }
        }
        Ok(opts)
    }

    /// `true` when any flag asks for the run report, so the recorder
    /// should actually collect spans.
    fn telemetry_requested(&self) -> bool {
        self.explain || self.trace_out.is_some() || self.metrics_out.is_some()
    }

    /// The engine search options this invocation asks for.
    fn search_options(&self) -> SearchOptions {
        match &self.styles {
            Some(styles) => SearchOptions::new().with_styles(styles.clone()),
            None => SearchOptions::new(),
        }
    }
}

/// Output shape of the lint report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LintFormat {
    Human,
    Json,
    Sarif,
}

/// Parsed arguments of the lint mode.
#[derive(Debug, PartialEq, Eq)]
struct LintOptions {
    paths: Vec<String>,
    deny_warnings: bool,
    format: LintFormat,
}

impl LintOptions {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut opts = LintOptions {
            paths: Vec::new(),
            deny_warnings: false,
            format: LintFormat::Human,
        };
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--deny-warnings" => opts.deny_warnings = true,
                "--format" => match args.next().as_deref() {
                    Some("human") => opts.format = LintFormat::Human,
                    Some("json") => opts.format = LintFormat::Json,
                    Some("sarif") => opts.format = LintFormat::Sarif,
                    Some(other) => return Err(format!("unknown format `{other}`\n{LINT_USAGE}")),
                    None => {
                        return Err(format!(
                            "--format needs `human`, `json`, or `sarif`\n{LINT_USAGE}"
                        ));
                    }
                },
                flag if flag.starts_with("--") => {
                    return Err(format!("unknown flag `{flag}`\n{LINT_USAGE}"));
                }
                path => opts.paths.push(path.to_string()),
            }
        }
        Ok(opts)
    }
}

fn run_synth(args: impl Iterator<Item = String>) -> Result<(), String> {
    let opts = SynthOptions::parse(args)?;
    let (spec, process) = load_inputs(&opts.spec_path, &opts.tech_path)?;

    println!("specification: {spec}");
    println!("process:       {process}\n");

    let tel = if opts.telemetry_requested() {
        Telemetry::new()
    } else {
        Telemetry::disabled()
    };

    let result = match synthesize_with_options(&spec, &process, &opts.search_options(), &tel) {
        Ok(result) => result,
        Err(e) => {
            // The trace is most valuable exactly when synthesis fails:
            // emit the report before propagating the error.
            emit_telemetry(&opts, &tel, None)?;
            return Err(e.to_string());
        }
    };
    println!("{result}");
    let design = result.selected();
    if !design.notes().is_empty() {
        println!("design decisions: {}\n", design.notes().join("; "));
    }
    println!("{}", report::device_table(design.circuit()));

    let measured = if opts.run_verify {
        let verification =
            verify_with(design, &process, spec.load().farads(), &tel).map_err(|e| e.to_string())?;
        if !verification.erc.is_empty() {
            println!("electrical-rule findings:");
            print!("{}", verification.erc.render_human());
        }
        Some(verification.measured)
    } else {
        None
    };
    let sheet = Datasheet::new(
        format!("{} op amp", design.style()),
        &spec,
        design.predicted(),
        measured.as_ref(),
    );
    println!("{sheet}");
    if measured.is_some() && !sheet.all_measured_pass() {
        println!("!! measured shortfalls: {:?}", sheet.failures());
    }

    if let Some(path) = &opts.out_path {
        let deck = spice::to_spice(design.circuit(), &process);
        std::fs::write(path, deck).map_err(|e| format!("{path}: {e}"))?;
        println!("SPICE deck written to {path}");
    }

    emit_telemetry(&opts, &tel, Some(&result))
}

/// Prints the `--explain` tree and/or writes the `--trace-out` file.
///
/// `synthesis` is `None` when synthesis itself failed — the report still
/// goes out (that run's trace is the diagnosis), but the summary line's
/// restart count then comes from the metrics registry instead of the
/// per-style traces.
fn emit_telemetry(
    opts: &SynthOptions,
    tel: &Telemetry,
    synthesis: Option<&Synthesis>,
) -> Result<(), String> {
    if !tel.is_enabled() {
        return Ok(());
    }
    let run_report = tel.report();
    if opts.explain {
        println!("run trace:");
        print!("{}", run_report.render_explain());
        let histograms = run_report.render_histograms();
        if !histograms.is_empty() {
            println!("latency histograms (log2 ns buckets):");
            print!("{histograms}");
        }
        let restarts = synthesis.map_or_else(
            || usize::try_from(tel.counter("plan.restarts")).unwrap_or(usize::MAX),
            Synthesis::restarts,
        );
        println!(
            "summary: {} styles attempted, {} feasible, {} statically pruned, \
             {} plan restarts, {} step executions",
            tel.counter("synth.styles_attempted"),
            tel.counter("synth.styles_feasible"),
            tel.counter("engine.pruned"),
            restarts,
            tel.counter("plan.step_executions"),
        );
    }
    if let Some(path) = &opts.trace_out {
        let text = match opts.trace_format {
            TraceFormat::Json => run_report.render_jsonl(),
            TraceFormat::Chrome => run_report.render_chrome(),
        };
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        println!("run trace written to {path}");
    }
    if let Some(path) = &opts.metrics_out {
        std::fs::write(path, run_report.render_metrics_json())
            .map_err(|e| format!("{path}: {e}"))?;
        println!("metrics written to {path}");
    }
    Ok(())
}

/// `oasys lint`: static analysis only, no simulation.
fn run_lint(args: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    let opts = LintOptions::parse(args)?;

    // Prong 1: the plan dataflow analyzer over every built-in style.
    let mut merged = styles::analyze_all_plans();

    // Prong 2: electrical-rule checks over each design the spec
    // synthesizes (all successful styles, not just the selected one).
    match opts.paths.as_slice() {
        [] => {}
        [spec_path, tech_path] => {
            let (spec, process) = load_inputs(spec_path, tech_path)?;
            let synthesis = synthesize_with(&spec, &process, &Telemetry::disabled())
                .map_err(|e| e.to_string())?;
            for outcome in synthesis.outcomes() {
                if let Some(design) = outcome.design() {
                    merged.merge(lint::lint(design.circuit(), Some(&process)));
                }
            }
        }
        _ => {
            return Err(format!(
                "expected no positional arguments or a spec file and a tech file\n{LINT_USAGE}"
            ));
        }
    }

    // Findings from both prongs were merged: normalize once more so the
    // combined report keeps the stable (code, site) order and no dupes.
    merged.normalize();
    match opts.format {
        LintFormat::Human => print!("{}", merged.render_human()),
        LintFormat::Json => print!("{}", merged.render_json()),
        LintFormat::Sarif => print!("{}", merged.render_sarif()),
    }
    Ok(if merged.passes(opts.deny_warnings) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The missing-value wording of every `--timeout-ms` whose 0 disables
/// the budget.
const TIMEOUT_VALUE: &str = "a value (0 disables)";

/// Parses the value after numeric flag `flag` — the one parser behind
/// every numeric flag of every mode. `missing` completes
/// "`flag` needs …" when no value follows; a value that does not parse,
/// or is 0 where `positive` asks for more, is rejected with what was
/// expected and what was given.
fn number<T>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    missing: &str,
    positive: bool,
) -> Result<T, String>
where
    T: std::str::FromStr + PartialOrd + From<u8>,
{
    let value = args
        .next()
        .ok_or_else(|| format!("{flag} needs {missing}"))?;
    let expected = if positive {
        "a positive integer"
    } else {
        "an integer"
    };
    value
        .parse::<T>()
        .ok()
        .filter(|n| !positive || *n > T::from(0))
        .ok_or_else(|| format!("{flag} needs {expected}, got `{value}`"))
}

/// A `--timeout-ms` value as a per-job budget: 0 disables it.
fn budget(ms: u64) -> Option<std::time::Duration> {
    (ms > 0).then(|| std::time::Duration::from_millis(ms))
}

/// The job flags `batch` and `dataset` share. Each overrides the
/// manifest's `workers =` / `timeout_ms =` / `retries =` / `verify =`
/// setting.
#[derive(Debug, Default, PartialEq, Eq)]
struct JobFlags {
    workers: Option<usize>,
    timeout_ms: Option<u64>,
    retries: Option<u32>,
    no_verify: bool,
}

impl JobFlags {
    /// Takes `flag` and its value when it is a job flag; `Ok(false)`
    /// leaves it to the mode's own flags.
    fn take(
        &mut self,
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        match flag {
            "--workers" => self.workers = Some(number(args, flag, "a count", true)?),
            "--timeout-ms" => self.timeout_ms = Some(number(args, flag, TIMEOUT_VALUE, false)?),
            "--retries" => self.retries = Some(number(args, flag, "a count", false)?),
            "--no-verify" => self.no_verify = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Resolves batch options: defaults, overlaid with the manifest's
    /// settings, overridden by these flags.
    fn batch_options(&self, settings: &batch::ManifestSettings) -> batch::BatchOptions {
        let mut options = batch::BatchOptions::default();
        options.apply_manifest(settings);
        if let Some(workers) = self.workers {
            options = options.with_workers(workers);
        }
        if let Some(ms) = self.timeout_ms {
            options = options.with_timeout(budget(ms));
        }
        if let Some(retries) = self.retries {
            options = options.with_retries(retries);
        }
        if self.no_verify {
            options = options.with_verify(false);
        }
        options
    }
}

/// Parsed arguments of the batch mode.
#[derive(Debug, PartialEq, Eq)]
struct BatchCliOptions {
    manifest_path: String,
    records_path: Option<String>,
    aggregate_path: Option<String>,
    checkpoint_path: Option<String>,
    job: JobFlags,
    styles: Option<Vec<String>>,
    explain: bool,
}

impl BatchCliOptions {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let manifest_path = args.next().ok_or(BATCH_USAGE)?;
        if manifest_path.starts_with("--") {
            return Err(format!(
                "the manifest path must come before any flags\n{BATCH_USAGE}"
            ));
        }
        let mut opts = BatchCliOptions {
            manifest_path,
            records_path: None,
            aggregate_path: None,
            checkpoint_path: None,
            job: JobFlags::default(),
            styles: None,
            explain: false,
        };
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--records" => {
                    opts.records_path = Some(args.next().ok_or("--records needs a path")?);
                }
                "--aggregate" => {
                    opts.aggregate_path = Some(args.next().ok_or("--aggregate needs a path")?);
                }
                "--checkpoint" => {
                    opts.checkpoint_path = Some(args.next().ok_or("--checkpoint needs a path")?);
                }
                "--styles" => {
                    let list = args.next().ok_or("--styles needs a comma-separated list")?;
                    opts.styles = Some(parse_styles_list(&list)?);
                }
                "--explain" => opts.explain = true,
                flag if opts.job.take(flag, &mut args)? => {}
                other => return Err(format!("unknown flag `{other}`\n{BATCH_USAGE}")),
            }
        }
        Ok(opts)
    }

    /// Resolves final batch options: the shared job flags' overlay,
    /// then the `--styles` filter.
    fn batch_options(&self, settings: &batch::ManifestSettings) -> batch::BatchOptions {
        let options = self.job.batch_options(settings);
        match &self.styles {
            Some(styles) => options.with_search(SearchOptions::new().with_styles(styles.clone())),
            None => options,
        }
    }
}

/// `oasys batch`: a manifest-driven sweep on the batch's worker threads.
fn run_batch(args: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    use std::io::Write as _;

    let opts = BatchCliOptions::parse(args)?;
    if let Some(msg) = injected_io_fault("io.manifest.read") {
        return Err(format!("{}: {msg}", opts.manifest_path));
    }
    let manifest = batch::Manifest::load(&opts.manifest_path).map_err(|e| e.to_string())?;
    let options = opts.batch_options(&manifest.settings());
    let jobs = manifest.expand().map_err(|e| e.to_string())?;
    eprintln!(
        "batch: {} jobs ({} specs × {} techs), {} workers",
        jobs.len(),
        manifest.specs().len(),
        manifest.techs().len(),
        options.workers()
    );

    let verify = options.verify();
    let search = options.search().clone();
    let mut batch_run = batch::Batch::new(jobs, options);
    if let Some(path) = &opts.checkpoint_path {
        batch_run = batch_run.with_checkpoint(path).map_err(|e| e.to_string())?;
        report_salvage(
            "batch",
            &format!("checkpoint {path}"),
            batch_run.checkpoint_salvage(),
        );
        if batch_run.resumable_count() > 0 {
            eprintln!(
                "batch: resuming — {} completed jobs on record",
                batch_run.resumable_count()
            );
        }
    }

    let mut records_file = match &opts.records_path {
        Some(path) => Some(std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?,
        )),
        None => None,
    };

    let tel = if opts.explain {
        Telemetry::new()
    } else {
        Telemetry::disabled()
    };
    let runner = std::sync::Arc::new(
        batch::SynthRunner::new()
            .with_search(search)
            .with_verify(verify),
    );
    // A failed records write is latched, not ignored: the batch still
    // finishes, and the command then fails naming the file.
    let mut records_error: Option<std::io::Error> = None;
    let report = batch_run
        .run(&runner, &tel, |record| {
            let line = record.render_json();
            match &mut records_file {
                Some(file) if records_error.is_none() => {
                    if let Err(error) = writeln!(file, "{line}").and_then(|()| file.flush()) {
                        records_error = Some(error);
                    }
                }
                Some(_) => {}
                None => println!("{line}"),
            }
        })
        .map_err(|e| e.to_string())?;
    drop(records_file);

    match &opts.aggregate_path {
        Some(path) => {
            let aggregate = report.render_aggregate();
            oasys::integrity::write_atomic(std::path::Path::new(path), |out| {
                out.write_all(aggregate.as_bytes())
            })
            .map_err(|e| format!("{path}: {e}"))?;
            eprintln!("batch: aggregate written to {path}");
        }
        None => print!("{}", report.render_aggregate()),
    }
    eprintln!("{}", report.render_summary());
    if opts.explain {
        println!("run trace:");
        print!("{}", tel.report().render_explain());
    }
    if let (Some(path), Some(error)) = (&opts.records_path, records_error) {
        return Err(format!("{path}: {error}"));
    }

    Ok(if report.all_definitive() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Parsed arguments of the dataset mode.
#[derive(Debug, PartialEq, Eq)]
struct DatasetCliOptions {
    manifest_path: String,
    out_dir: String,
    shards: usize,
    shard_index: usize,
    job: JobFlags,
}

impl DatasetCliOptions {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let manifest_path = args.next().ok_or(DATASET_USAGE)?;
        if manifest_path.starts_with("--") {
            return Err(format!(
                "the manifest path must come before any flags\n{DATASET_USAGE}"
            ));
        }
        let mut out_dir = None;
        let mut opts = DatasetCliOptions {
            manifest_path,
            out_dir: String::new(),
            shards: 1,
            shard_index: 0,
            job: JobFlags::default(),
        };
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--out" => {
                    out_dir = Some(args.next().ok_or("--out needs a directory")?);
                }
                "--shards" => opts.shards = number(&mut args, &flag, "a count", true)?,
                "--shard-index" => opts.shard_index = number(&mut args, &flag, "an index", false)?,
                flag if opts.job.take(flag, &mut args)? => {}
                other => return Err(format!("unknown flag `{other}`\n{DATASET_USAGE}")),
            }
        }
        opts.out_dir = out_dir.ok_or_else(|| format!("--out is required\n{DATASET_USAGE}"))?;
        if opts.shard_index >= opts.shards {
            return Err(format!(
                "--shard-index {} is out of range for --shards {}",
                opts.shard_index, opts.shards
            ));
        }
        Ok(opts)
    }
}

/// `oasys dataset`: a sampled sweep sharded into streaming JSONL
/// records, and `oasys dataset merge` to stitch the shards together.
fn run_dataset(
    mut args: std::iter::Peekable<impl Iterator<Item = String>>,
) -> Result<ExitCode, String> {
    if args.peek().map(String::as_str) == Some("merge") {
        args.next();
        let dir = args.next().ok_or(DATASET_USAGE)?;
        if let Some(extra) = args.next() {
            return Err(format!("unexpected argument `{extra}`\n{DATASET_USAGE}"));
        }
        let report =
            oasys::dataset::merge(std::path::Path::new(&dir)).map_err(|e| e.to_string())?;
        eprintln!(
            "dataset: merged {} shards, {} records ({} passed) into {}",
            report.shards,
            report.records,
            report.passed,
            report.records_path.display()
        );
        return Ok(ExitCode::SUCCESS);
    }

    let opts = DatasetCliOptions::parse(args)?;
    if let Some(msg) = injected_io_fault("io.manifest.read") {
        return Err(format!("{}: {msg}", opts.manifest_path));
    }
    let manifest = batch::Manifest::load(&opts.manifest_path).map_err(|e| e.to_string())?;
    let batch_options = opts.job.batch_options(&manifest.settings());
    let workers = batch_options.workers();
    let options = oasys::dataset::DatasetOptions {
        shards: opts.shards,
        shard_index: opts.shard_index,
        batch: batch_options,
    };
    // Nothing reads a dataset's trace, so its jobs take the untraced
    // path: a flight ring each, dropped when the job ends.
    let report = oasys::dataset::generate(
        &manifest,
        std::path::Path::new(&opts.out_dir),
        &options,
        &Telemetry::disabled(),
    )
    .map_err(|e| e.to_string())?;
    report_salvage(
        "dataset",
        &format!("shard {}/{}", opts.shard_index, opts.shards),
        report.salvage(),
    );
    let lookups = report.cache_hits + report.cache_misses;
    eprintln!(
        "dataset: shard {}/{} published — {} records ({} resumed, {} executed, {} passed, {} draws rejected), {} workers, cache {:.0}% hit, plan {:016x}",
        opts.shard_index,
        opts.shards,
        report.records,
        report.resumed,
        report.executed,
        report.passed,
        report.samples_rejected,
        workers,
        if lookups == 0 {
            0.0
        } else {
            100.0 * report.cache_hits as f64 / lookups as f64
        },
        report.plan_fingerprint,
    );
    Ok(ExitCode::SUCCESS)
}

/// Parsed arguments of the `serve` mode.
#[derive(Debug, PartialEq, Eq)]
struct ServeCliOptions {
    socket: String,
    workers: Option<usize>,
    queue_depth: Option<usize>,
    io_timeout_ms: Option<u64>,
    cache_entries: Option<usize>,
    timeout_ms: Option<u64>,
}

impl ServeCliOptions {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut socket = None;
        let mut opts = ServeCliOptions {
            socket: String::new(),
            workers: None,
            queue_depth: None,
            io_timeout_ms: None,
            cache_entries: None,
            timeout_ms: None,
        };
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--socket" => {
                    socket = Some(args.next().ok_or("--socket needs a path")?);
                }
                "--workers" => opts.workers = Some(number(&mut args, &flag, "a count", true)?),
                "--queue-depth" => {
                    opts.queue_depth = Some(number(&mut args, &flag, "a count", true)?);
                }
                "--io-timeout-ms" => {
                    opts.io_timeout_ms = Some(number(&mut args, &flag, "a value", true)?);
                }
                "--cache-entries" => {
                    opts.cache_entries = Some(number(&mut args, &flag, "a count", true)?);
                }
                "--timeout-ms" => {
                    opts.timeout_ms = Some(number(&mut args, &flag, TIMEOUT_VALUE, false)?);
                }
                other => return Err(format!("unknown flag `{other}`\n{SERVE_USAGE}")),
            }
        }
        opts.socket = socket.ok_or_else(|| format!("--socket is required\n{SERVE_USAGE}"))?;
        Ok(opts)
    }

    /// Resolves the library-level server options.
    fn serve_options(&self) -> oasys::serve::ServeOptions {
        let mut options = oasys::serve::ServeOptions::new(&self.socket);
        if let Some(workers) = self.workers {
            options = options.with_workers(workers);
        }
        if let Some(depth) = self.queue_depth {
            options = options.with_queue_depth(depth);
        }
        if let Some(ms) = self.io_timeout_ms {
            options = options.with_io_timeout(std::time::Duration::from_millis(ms));
        }
        if let Some(entries) = self.cache_entries {
            options = options.with_cache_entries(entries);
        }
        if let Some(ms) = self.timeout_ms {
            options = options.with_timeout(budget(ms));
        }
        options
    }
}

/// `oasys serve`: a resident synthesis server on a Unix socket.
fn run_serve(args: impl Iterator<Item = String>) -> Result<(), String> {
    let opts = ServeCliOptions::parse(args)?;
    oasys::serve::install_sigterm_drain();
    let server = oasys::serve::Server::bind(opts.serve_options())
        .map_err(|e| format!("{}: {e}", opts.socket))?;
    eprintln!(
        "serve: listening on {} ({} workers)",
        opts.socket,
        server.options().workers()
    );
    let report = server.run().map_err(|e| format!("{}: {e}", opts.socket))?;
    eprintln!(
        "serve: drained — {} served ({} degraded), {} shed, {} evicted, {} brownouts, \
         {} workers replaced, cache {} hits / {} misses / {} evictions",
        report.served,
        report.degraded,
        report.shed,
        report.evicted,
        report.brownout_entries,
        report.workers_replaced,
        report.cache_hits,
        report.cache_misses,
        report.cache_evictions
    );
    Ok(())
}

/// Parsed arguments of the `client` mode.
#[derive(Debug, PartialEq, Eq)]
struct ClientCliOptions {
    socket: String,
    spec_path: Option<String>,
    tech_path: Option<String>,
    timeout_ms: Option<u64>,
    retries: u32,
    retry_seed: u64,
    ping: bool,
    health: bool,
    shutdown: bool,
}

impl ClientCliOptions {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut socket = None;
        let mut positional = Vec::new();
        let mut opts = ClientCliOptions {
            socket: String::new(),
            spec_path: None,
            tech_path: None,
            timeout_ms: None,
            retries: 0,
            retry_seed: 0,
            ping: false,
            health: false,
            shutdown: false,
        };
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--socket" => {
                    socket = Some(args.next().ok_or("--socket needs a path")?);
                }
                "--timeout-ms" => {
                    opts.timeout_ms = Some(number(&mut args, &arg, TIMEOUT_VALUE, false)?);
                }
                "--retries" => opts.retries = number(&mut args, &arg, "a count", false)?,
                "--retry-seed" => opts.retry_seed = number(&mut args, &arg, "a value", false)?,
                "--ping" => opts.ping = true,
                "--health" => opts.health = true,
                "--shutdown" => opts.shutdown = true,
                other if other.starts_with("--") => {
                    return Err(format!("unknown flag `{other}`\n{CLIENT_USAGE}"));
                }
                _ => positional.push(arg),
            }
        }
        opts.socket = socket.ok_or_else(|| format!("--socket is required\n{CLIENT_USAGE}"))?;
        let op_flags =
            usize::from(opts.ping) + usize::from(opts.health) + usize::from(opts.shutdown);
        if op_flags > 0 {
            if op_flags > 1 {
                return Err(format!(
                    "--ping, --health, and --shutdown are exclusive\n{CLIENT_USAGE}"
                ));
            }
            if !positional.is_empty() {
                return Err(format!(
                    "--ping/--health/--shutdown take no spec or tech files\n{CLIENT_USAGE}"
                ));
            }
            return Ok(opts);
        }
        let mut positional = positional.into_iter();
        opts.spec_path = Some(positional.next().ok_or(CLIENT_USAGE)?);
        opts.tech_path = Some(positional.next().ok_or(CLIENT_USAGE)?);
        if let Some(extra) = positional.next() {
            return Err(format!("unexpected argument `{extra}`\n{CLIENT_USAGE}"));
        }
        Ok(opts)
    }
}

/// Base delay of the client's capped-exponential retry backoff.
const RETRY_BACKOFF_BASE_MS: u64 = 25;
/// Ceiling on any single retry delay.
const RETRY_BACKOFF_CAP_MS: u64 = 400;

/// SplitMix64: a tiny, seedable mixer used to jitter retry backoff so
/// that a herd of clients retrying after the same `busy` response does
/// not reconverge on the server in lockstep. Deterministic per
/// `(seed, attempt)`, so tests can pin `--retry-seed`.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The jittered backoff before retry `attempt` (1-based): the capped
/// exponential delay, scaled by a factor in [0.5, 1.0) drawn from the
/// seeded mixer.
fn retry_backoff(attempt: u32, seed: u64) -> std::time::Duration {
    let shift = (attempt - 1).min(10);
    let base = (RETRY_BACKOFF_BASE_MS << shift).min(RETRY_BACKOFF_CAP_MS);
    let jitter = splitmix64(seed ^ u64::from(attempt));
    // Map the high 32 bits onto [0.5, 1.0).
    let scale = 0.5 + f64::from((jitter >> 32) as u32) / f64::from(u32::MAX) * 0.5;
    std::time::Duration::from_millis(((base as f64) * scale) as u64)
}

/// Whether a server response warrants a retry: only `busy` (overload
/// shedding) is transient; `error` responses are answers.
fn response_is_busy(response: &str) -> bool {
    oasys_telemetry::json::parse(response)
        .ok()
        .and_then(|json| {
            json.get("status")
                .and_then(oasys_telemetry::json::Json::as_str)
                .map(|status| status == "busy")
        })
        .unwrap_or(false)
}

/// `oasys client`: send one request to a running server and print the
/// JSON response. Exits nonzero unless the server answered `ok`.
/// `--retries` retries connect failures, I/O errors, and `busy`
/// responses with seeded-jitter capped-exponential backoff.
fn run_client(args: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    let opts = ClientCliOptions::parse(args)?;
    let body = if opts.ping {
        oasys::serve::op_request("ping")
    } else if opts.health {
        oasys::serve::op_request("health")
    } else if opts.shutdown {
        oasys::serve::op_request("shutdown")
    } else {
        let (spec_path, tech_path) = match (&opts.spec_path, &opts.tech_path) {
            (Some(spec), Some(tech)) => (spec, tech),
            _ => return Err(CLIENT_USAGE.to_string()),
        };
        let spec_text =
            std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
        let tech_text =
            std::fs::read_to_string(tech_path).map_err(|e| format!("{tech_path}: {e}"))?;
        oasys::serve::synth_request(&spec_text, &tech_text, opts.timeout_ms)
    };
    let socket = std::path::Path::new(&opts.socket);
    let mut attempt = 0u32;
    let response = loop {
        let outcome = oasys::serve::request(socket, &body);
        let retryable = match &outcome {
            Ok(response) => response_is_busy(response),
            Err(_) => true,
        };
        if !retryable || attempt >= opts.retries {
            break outcome.map_err(|e| format!("{}: {e}", opts.socket))?;
        }
        attempt += 1;
        let delay = retry_backoff(attempt, opts.retry_seed);
        eprintln!(
            "client: attempt {attempt}/{} {}, retrying in {} ms",
            opts.retries,
            match &outcome {
                Ok(_) => "was shed (busy)".to_string(),
                Err(e) => format!("failed ({e})"),
            },
            delay.as_millis()
        );
        std::thread::sleep(delay);
    };
    println!("{response}");
    let ok = oasys_telemetry::json::parse(&response)
        .ok()
        .and_then(|json| {
            json.get("status")
                .and_then(oasys_telemetry::json::Json::as_str)
                .map(|status| status == "ok")
        })
        .unwrap_or(false);
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// An injected error at a file-IO fault site, when one is configured —
/// these sites simulate unreadable inputs without touching the disk.
fn injected_io_fault(site: &str) -> Option<String> {
    if oasys_faults::armed() {
        oasys_faults::eval_err(site)
    } else {
        None
    }
}

/// Parses the specification and technology files shared by both modes.
fn load_inputs(
    spec_path: &str,
    tech_path: &str,
) -> Result<(oasys::OpAmpSpec, oasys_process::Process), String> {
    if let Some(msg) = injected_io_fault("io.spec.read") {
        return Err(format!("{spec_path}: {msg}"));
    }
    let spec_text = std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let spec = specfile::parse(&spec_text).map_err(|e| e.to_string())?;
    if let Some(msg) = injected_io_fault("io.tech.read") {
        return Err(format!("{tech_path}: {msg}"));
    }
    let tech_text = std::fs::read_to_string(tech_path).map_err(|e| format!("{tech_path}: {e}"))?;
    let process = techfile::parse(&tech_text).map_err(|e| e.to_string())?;
    Ok((spec, process))
}

/// Prints what opening a sealed record log repaired, in the one
/// wording `batch` and `dataset` share; silent when nothing was.
fn report_salvage(command: &str, log: &str, salvage: oasys::integrity::Salvage) {
    if !salvage.is_clean() {
        eprintln!("{command}: {log} repaired — {salvage}; the dropped work re-runs");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> impl Iterator<Item = String> {
        args.iter()
            .map(|s| (*s).to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn synth_defaults() {
        let opts = SynthOptions::parse(argv(&["spec.txt", "tech.txt"])).unwrap();
        assert_eq!(opts.spec_path, "spec.txt");
        assert_eq!(opts.tech_path, "tech.txt");
        assert_eq!(opts.out_path, None);
        assert!(opts.run_verify);
        assert!(!opts.explain);
        assert_eq!(opts.trace_out, None);
        assert_eq!(opts.trace_format, TraceFormat::Json);
        assert!(!opts.telemetry_requested());
    }

    #[test]
    fn synth_missing_positional_args_shows_usage() {
        let err = SynthOptions::parse(argv(&["spec.txt"])).unwrap_err();
        assert!(err.contains("usage:"), "{err}");
    }

    #[test]
    fn synth_unknown_flag_rejected() {
        let err = SynthOptions::parse(argv(&["s", "t", "--bogus"])).unwrap_err();
        assert!(err.contains("unknown flag `--bogus`"), "{err}");
        assert!(err.contains("usage:"), "{err}");
    }

    #[test]
    fn synth_out_requires_path() {
        let err = SynthOptions::parse(argv(&["s", "t", "--out"])).unwrap_err();
        assert!(err.contains("--out needs a path"), "{err}");
    }

    #[test]
    fn synth_trace_out_requires_path() {
        let err = SynthOptions::parse(argv(&["s", "t", "--trace-out"])).unwrap_err();
        assert!(err.contains("--trace-out needs a path"), "{err}");
    }

    #[test]
    fn synth_explain_and_trace_out_parse() {
        let opts = SynthOptions::parse(argv(&[
            "s",
            "t",
            "--explain",
            "--trace-out",
            "run.json",
            "--no-verify",
        ]))
        .unwrap();
        assert!(opts.explain);
        assert_eq!(opts.trace_out.as_deref(), Some("run.json"));
        assert!(!opts.run_verify);
        assert!(opts.telemetry_requested());
    }

    #[test]
    fn synth_metrics_out_parses_and_enables_telemetry() {
        let opts = SynthOptions::parse(argv(&["s", "t", "--metrics-out", "m.json"])).unwrap();
        assert_eq!(opts.metrics_out.as_deref(), Some("m.json"));
        assert!(opts.telemetry_requested());
        let err = SynthOptions::parse(argv(&["s", "t", "--metrics-out"])).unwrap_err();
        assert!(err.contains("--metrics-out needs a path"), "{err}");
    }

    #[test]
    fn synth_trace_format_values() {
        let opts = SynthOptions::parse(argv(&["s", "t", "--trace-format", "chrome"])).unwrap();
        assert_eq!(opts.trace_format, TraceFormat::Chrome);
        let opts = SynthOptions::parse(argv(&["s", "t", "--trace-format", "json"])).unwrap();
        assert_eq!(opts.trace_format, TraceFormat::Json);
    }

    #[test]
    fn synth_bad_trace_format_rejected() {
        let err = SynthOptions::parse(argv(&["s", "t", "--trace-format", "xml"])).unwrap_err();
        assert!(err.contains("unknown trace format `xml`"), "{err}");
        let err = SynthOptions::parse(argv(&["s", "t", "--trace-format"])).unwrap_err();
        assert!(err.contains("--trace-format needs"), "{err}");
    }

    #[test]
    fn synth_styles_parses_shell_friendly_names() {
        let opts =
            SynthOptions::parse(argv(&["s", "t", "--styles", "one-stage-ota,two-stage"])).unwrap();
        assert_eq!(
            opts.styles,
            Some(vec!["one-stage OTA".to_string(), "two-stage".to_string()])
        );
        let search = opts.search_options();
        assert_eq!(
            search.styles(),
            Some(&["one-stage OTA".to_string(), "two-stage".to_string()][..])
        );
    }

    #[test]
    fn synth_styles_accepts_display_names_and_spaces() {
        let opts = SynthOptions::parse(argv(&[
            "s",
            "t",
            "--styles",
            "one-stage OTA, Folded-Cascode",
        ]))
        .unwrap();
        assert_eq!(
            opts.styles,
            Some(vec![
                "one-stage OTA".to_string(),
                "folded cascode".to_string()
            ])
        );
    }

    #[test]
    fn synth_styles_rejects_unknown_name() {
        let err = SynthOptions::parse(argv(&["s", "t", "--styles", "three-stage"])).unwrap_err();
        assert!(err.contains("unknown style `three-stage`"), "{err}");
        assert!(err.contains("one-stage-ota"), "{err}");
        assert!(err.contains("folded-cascode"), "{err}");
    }

    #[test]
    fn synth_styles_requires_value() {
        let err = SynthOptions::parse(argv(&["s", "t", "--styles"])).unwrap_err();
        assert!(err.contains("--styles needs"), "{err}");
        let err = SynthOptions::parse(argv(&["s", "t", "--styles", ","])).unwrap_err();
        assert!(err.contains("--styles needs at least one style"), "{err}");
    }

    #[test]
    fn synth_default_has_no_style_filter() {
        let opts = SynthOptions::parse(argv(&["s", "t"])).unwrap();
        assert_eq!(opts.styles, None);
        assert_eq!(opts.search_options().styles(), None);
    }

    #[test]
    fn lint_defaults_and_paths() {
        let opts = LintOptions::parse(argv(&["spec.txt", "tech.txt"])).unwrap();
        assert_eq!(opts.paths, vec!["spec.txt", "tech.txt"]);
        assert!(!opts.deny_warnings);
        assert_eq!(opts.format, LintFormat::Human);
    }

    #[test]
    fn lint_flags_parse() {
        let opts = LintOptions::parse(argv(&["--deny-warnings", "--format", "json"])).unwrap();
        assert!(opts.deny_warnings);
        assert_eq!(opts.format, LintFormat::Json);
        let opts = LintOptions::parse(argv(&["--format", "sarif"])).unwrap();
        assert_eq!(opts.format, LintFormat::Sarif);
        let opts = LintOptions::parse(argv(&["--format", "sarif", "--format", "human"])).unwrap();
        assert_eq!(opts.format, LintFormat::Human, "last --format wins");
    }

    #[test]
    fn lint_bad_format_rejected() {
        let err = LintOptions::parse(argv(&["--format", "yaml"])).unwrap_err();
        assert!(err.contains("unknown format `yaml`"), "{err}");
        let err = LintOptions::parse(argv(&["--format"])).unwrap_err();
        assert!(err.contains("--format needs"), "{err}");
    }

    #[test]
    fn lint_unknown_flag_rejected() {
        let err = LintOptions::parse(argv(&["--nope"])).unwrap_err();
        assert!(err.contains("unknown flag `--nope`"), "{err}");
    }

    #[test]
    fn batch_defaults() {
        let opts = BatchCliOptions::parse(argv(&["sweep.manifest"])).unwrap();
        assert_eq!(opts.manifest_path, "sweep.manifest");
        assert_eq!(opts.records_path, None);
        assert_eq!(opts.checkpoint_path, None);
        assert_eq!(opts.job, JobFlags::default());
        assert!(!opts.explain);
    }

    #[test]
    fn batch_requires_manifest_path() {
        let err = BatchCliOptions::parse(argv(&[])).unwrap_err();
        assert!(err.contains("usage:"), "{err}");
        let err = BatchCliOptions::parse(argv(&["--workers", "2"])).unwrap_err();
        assert!(err.contains("manifest path must come before"), "{err}");
    }

    #[test]
    fn batch_all_flags_parse() {
        let opts = BatchCliOptions::parse(argv(&[
            "sweep.manifest",
            "--records",
            "out.jsonl",
            "--aggregate",
            "agg.json",
            "--checkpoint",
            "run.checkpoint",
            "--workers",
            "3",
            "--timeout-ms",
            "5000",
            "--retries",
            "1",
            "--no-verify",
            "--styles",
            "two-stage",
            "--explain",
        ]))
        .unwrap();
        assert_eq!(opts.records_path.as_deref(), Some("out.jsonl"));
        assert_eq!(opts.aggregate_path.as_deref(), Some("agg.json"));
        assert_eq!(opts.checkpoint_path.as_deref(), Some("run.checkpoint"));
        assert_eq!(opts.job.workers, Some(3));
        assert_eq!(opts.job.timeout_ms, Some(5000));
        assert_eq!(opts.job.retries, Some(1));
        assert!(opts.job.no_verify);
        assert_eq!(opts.styles, Some(vec!["two-stage".to_string()]));
        assert!(opts.explain);
    }

    #[test]
    fn dataset_defaults_and_flags_parse() {
        let opts = DatasetCliOptions::parse(argv(&["ds.manifest", "--out", "out"])).unwrap();
        assert_eq!(opts.manifest_path, "ds.manifest");
        assert_eq!(opts.out_dir, "out");
        assert_eq!(opts.shards, 1);
        assert_eq!(opts.shard_index, 0);
        assert_eq!(opts.job, JobFlags::default());

        let opts = DatasetCliOptions::parse(argv(&[
            "ds.manifest",
            "--out",
            "out",
            "--shards",
            "4",
            "--shard-index",
            "2",
            "--workers",
            "3",
            "--timeout-ms",
            "5000",
            "--retries",
            "1",
            "--no-verify",
        ]))
        .unwrap();
        assert_eq!(opts.shards, 4);
        assert_eq!(opts.shard_index, 2);
        assert_eq!(opts.job.workers, Some(3));
        assert_eq!(opts.job.timeout_ms, Some(5000));
        assert_eq!(opts.job.retries, Some(1));
        assert!(opts.job.no_verify);
    }

    #[test]
    fn dataset_rejects_bad_arguments() {
        let err = DatasetCliOptions::parse(argv(&[])).unwrap_err();
        assert!(err.contains("usage:"), "{err}");
        let err = DatasetCliOptions::parse(argv(&["--out", "x"])).unwrap_err();
        assert!(err.contains("manifest path must come before"), "{err}");
        let err = DatasetCliOptions::parse(argv(&["m"])).unwrap_err();
        assert!(err.contains("--out is required"), "{err}");
        let err =
            DatasetCliOptions::parse(argv(&["m", "--out", "x", "--shards", "0"])).unwrap_err();
        assert!(err.contains("--shards needs a positive integer"), "{err}");
        let err = DatasetCliOptions::parse(argv(&[
            "m",
            "--out",
            "x",
            "--shards",
            "2",
            "--shard-index",
            "2",
        ]))
        .unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        let err = DatasetCliOptions::parse(argv(&["m", "--out", "x", "--bogus"])).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
    }

    #[test]
    fn batch_rejects_bad_numbers() {
        let err = BatchCliOptions::parse(argv(&["m", "--workers", "0"])).unwrap_err();
        assert!(err.contains("--workers needs a positive integer"), "{err}");
        let err = BatchCliOptions::parse(argv(&["m", "--timeout-ms", "soon"])).unwrap_err();
        assert!(err.contains("--timeout-ms needs an integer"), "{err}");
        let err = BatchCliOptions::parse(argv(&["m", "--retries", "-1"])).unwrap_err();
        assert!(err.contains("--retries needs an integer"), "{err}");
    }

    /// Every numeric flag of every mode, with its exact missing-value
    /// and bad-value messages. A positive-only flag rejects `0` with
    /// the bad-value message too.
    #[test]
    fn numeric_flag_messages_are_pinned() {
        type Parse = fn(Vec<String>) -> Result<(), String>;
        let batch: Parse = |a| BatchCliOptions::parse(a.into_iter()).map(drop);
        let dataset: Parse = |a| DatasetCliOptions::parse(a.into_iter()).map(drop);
        let serve: Parse = |a| ServeCliOptions::parse(a.into_iter()).map(drop);
        let client: Parse = |a| ClientCliOptions::parse(a.into_iter()).map(drop);
        let modes: [(&str, Parse, &[&str]); 4] = [
            ("batch", batch, &["m"]),
            ("dataset", dataset, &["m", "--out", "o"]),
            ("serve", serve, &["--socket", "s"]),
            ("client", client, &["--socket", "s", "--ping"]),
        ];
        // (mode, flag, missing-value message, positive only)
        let table = [
            ("batch", "--workers", "--workers needs a count", true),
            (
                "batch",
                "--timeout-ms",
                "--timeout-ms needs a value (0 disables)",
                false,
            ),
            ("batch", "--retries", "--retries needs a count", false),
            ("dataset", "--shards", "--shards needs a count", true),
            (
                "dataset",
                "--shard-index",
                "--shard-index needs an index",
                false,
            ),
            ("dataset", "--workers", "--workers needs a count", true),
            (
                "dataset",
                "--timeout-ms",
                "--timeout-ms needs a value (0 disables)",
                false,
            ),
            ("dataset", "--retries", "--retries needs a count", false),
            ("serve", "--workers", "--workers needs a count", true),
            (
                "serve",
                "--queue-depth",
                "--queue-depth needs a count",
                true,
            ),
            (
                "serve",
                "--io-timeout-ms",
                "--io-timeout-ms needs a value",
                true,
            ),
            (
                "serve",
                "--cache-entries",
                "--cache-entries needs a count",
                true,
            ),
            (
                "serve",
                "--timeout-ms",
                "--timeout-ms needs a value (0 disables)",
                false,
            ),
            (
                "client",
                "--timeout-ms",
                "--timeout-ms needs a value (0 disables)",
                false,
            ),
            ("client", "--retries", "--retries needs a count", false),
            (
                "client",
                "--retry-seed",
                "--retry-seed needs a value",
                false,
            ),
        ];
        for (mode, flag, missing, positive) in table {
            let (_, parse, prefix) = modes.iter().find(|(m, ..)| *m == mode).unwrap();
            let run = |tail: &[&str]| {
                let args = prefix.iter().chain(tail).map(|s| (*s).to_string());
                parse(args.collect()).unwrap_err()
            };
            assert_eq!(run(&[flag]), missing, "{mode} {flag}");
            let kind = if positive {
                "a positive integer"
            } else {
                "an integer"
            };
            assert_eq!(
                run(&[flag, "x"]),
                format!("{flag} needs {kind}, got `x`"),
                "{mode} {flag}"
            );
            if positive {
                assert_eq!(
                    run(&[flag, "0"]),
                    format!("{flag} needs a positive integer, got `0`"),
                    "{mode} {flag}"
                );
            }
        }
    }

    #[test]
    fn batch_cli_overrides_manifest_settings() {
        let opts = BatchCliOptions::parse(argv(&[
            "m",
            "--workers",
            "2",
            "--timeout-ms",
            "0",
            "--no-verify",
        ]))
        .unwrap();
        let settings = batch::ManifestSettings {
            workers: Some(7),
            timeout: Some(std::time::Duration::from_secs(9)),
            retries: Some(5),
            verify: Some(true),
        };
        let options = opts.batch_options(&settings);
        assert_eq!(options.workers(), 2);
        assert_eq!(options.timeout(), None);
        assert_eq!(options.retries(), 5);
        assert!(!options.verify());
    }

    #[test]
    fn serve_defaults_require_only_the_socket() {
        let opts = ServeCliOptions::parse(argv(&["--socket", "/tmp/oasys.sock"])).unwrap();
        assert_eq!(opts.socket, "/tmp/oasys.sock");
        assert_eq!(opts.workers, None);
        assert_eq!(opts.queue_depth, None);
        assert_eq!(opts.io_timeout_ms, None);
        assert_eq!(opts.cache_entries, None);
        assert_eq!(opts.timeout_ms, None);
        let options = opts.serve_options();
        assert_eq!(options.workers(), oasys::serve::DEFAULT_WORKERS);
        assert_eq!(options.queue_depth(), oasys::serve::DEFAULT_QUEUE_DEPTH);
        assert_eq!(options.io_timeout(), oasys::serve::DEFAULT_IO_TIMEOUT);
        assert_eq!(options.cache_entries(), batch::DEFAULT_CACHE_ENTRIES);
        assert_eq!(options.timeout(), None);
    }

    #[test]
    fn serve_missing_socket_shows_usage() {
        let err = ServeCliOptions::parse(argv(&["--workers", "2"])).unwrap_err();
        assert!(err.contains("--socket is required"), "{err}");
        assert!(err.contains("usage:"), "{err}");
        let err = ServeCliOptions::parse(argv(&["--socket"])).unwrap_err();
        assert!(err.contains("--socket needs a path"), "{err}");
    }

    #[test]
    fn serve_all_flags_parse_and_resolve() {
        let opts = ServeCliOptions::parse(argv(&[
            "--socket",
            "srv.sock",
            "--workers",
            "3",
            "--queue-depth",
            "9",
            "--io-timeout-ms",
            "750",
            "--cache-entries",
            "128",
            "--timeout-ms",
            "2500",
        ]))
        .unwrap();
        assert_eq!(opts.workers, Some(3));
        assert_eq!(opts.queue_depth, Some(9));
        assert_eq!(opts.io_timeout_ms, Some(750));
        assert_eq!(opts.cache_entries, Some(128));
        assert_eq!(opts.timeout_ms, Some(2500));
        let options = opts.serve_options();
        assert_eq!(options.workers(), 3);
        assert_eq!(options.queue_depth(), 9);
        assert_eq!(options.io_timeout(), std::time::Duration::from_millis(750));
        assert_eq!(options.cache_entries(), 128);
        assert_eq!(
            options.timeout(),
            Some(std::time::Duration::from_millis(2500))
        );
    }

    #[test]
    fn serve_timeout_zero_disables_the_default_deadline() {
        let opts =
            ServeCliOptions::parse(argv(&["--socket", "s.sock", "--timeout-ms", "0"])).unwrap();
        assert_eq!(opts.timeout_ms, Some(0));
        assert_eq!(opts.serve_options().timeout(), None);
    }

    #[test]
    fn serve_rejects_bad_numbers_and_unknown_flags() {
        let err = ServeCliOptions::parse(argv(&["--socket", "s", "--workers", "0"])).unwrap_err();
        assert!(err.contains("--workers needs a positive integer"), "{err}");
        let err =
            ServeCliOptions::parse(argv(&["--socket", "s", "--cache-entries", "0"])).unwrap_err();
        assert!(
            err.contains("--cache-entries needs a positive integer"),
            "{err}"
        );
        let err =
            ServeCliOptions::parse(argv(&["--socket", "s", "--timeout-ms", "soon"])).unwrap_err();
        assert!(err.contains("--timeout-ms needs an integer"), "{err}");
        let err =
            ServeCliOptions::parse(argv(&["--socket", "s", "--queue-depth", "0"])).unwrap_err();
        assert!(
            err.contains("--queue-depth needs a positive integer"),
            "{err}"
        );
        let err =
            ServeCliOptions::parse(argv(&["--socket", "s", "--io-timeout-ms", "0"])).unwrap_err();
        assert!(
            err.contains("--io-timeout-ms needs a positive integer"),
            "{err}"
        );
        let err = ServeCliOptions::parse(argv(&["--socket", "s", "--bogus"])).unwrap_err();
        assert!(err.contains("unknown flag `--bogus`"), "{err}");
        assert!(err.contains("usage:"), "{err}");
    }

    #[test]
    fn client_synth_form_parses() {
        let opts = ClientCliOptions::parse(argv(&[
            "--socket",
            "s.sock",
            "spec.txt",
            "tech.txt",
            "--timeout-ms",
            "900",
        ]))
        .unwrap();
        assert_eq!(opts.spec_path.as_deref(), Some("spec.txt"));
        assert_eq!(opts.tech_path.as_deref(), Some("tech.txt"));
        assert_eq!(opts.timeout_ms, Some(900));
        assert_eq!(opts.retries, 0);
        assert!(!opts.ping && !opts.health && !opts.shutdown);
    }

    #[test]
    fn client_ping_health_and_shutdown_forms() {
        let opts = ClientCliOptions::parse(argv(&["--socket", "s", "--ping"])).unwrap();
        assert!(opts.ping);
        let opts = ClientCliOptions::parse(argv(&["--socket", "s", "--health"])).unwrap();
        assert!(opts.health);
        let opts = ClientCliOptions::parse(argv(&["--socket", "s", "--shutdown"])).unwrap();
        assert!(opts.shutdown);
        let err =
            ClientCliOptions::parse(argv(&["--socket", "s", "--ping", "--shutdown"])).unwrap_err();
        assert!(err.contains("exclusive"), "{err}");
        let err =
            ClientCliOptions::parse(argv(&["--socket", "s", "--health", "--ping"])).unwrap_err();
        assert!(err.contains("exclusive"), "{err}");
        let err =
            ClientCliOptions::parse(argv(&["--socket", "s", "--ping", "spec.txt"])).unwrap_err();
        assert!(err.contains("take no spec"), "{err}");
    }

    #[test]
    fn client_retry_flags_parse() {
        let opts = ClientCliOptions::parse(argv(&[
            "--socket",
            "s",
            "--ping",
            "--retries",
            "4",
            "--retry-seed",
            "99",
        ]))
        .unwrap();
        assert_eq!(opts.retries, 4);
        assert_eq!(opts.retry_seed, 99);
        let err = ClientCliOptions::parse(argv(&["--socket", "s", "--retries", "-2"])).unwrap_err();
        assert!(err.contains("--retries needs an integer"), "{err}");
    }

    #[test]
    fn retry_backoff_is_capped_exponential_with_seeded_jitter() {
        // Deterministic per (attempt, seed).
        assert_eq!(retry_backoff(1, 42), retry_backoff(1, 42));
        // Jitter keeps every delay within [base/2, base).
        for attempt in 1..=8 {
            let base = (RETRY_BACKOFF_BASE_MS << (attempt - 1).min(10)).min(RETRY_BACKOFF_CAP_MS);
            let delay = retry_backoff(attempt, 7).as_millis() as u64;
            assert!(
                delay >= base / 2 && delay < base,
                "attempt {attempt}: {delay} vs {base}"
            );
        }
        // The cap holds even for huge attempt numbers.
        assert!(retry_backoff(30, 1).as_millis() as u64 <= RETRY_BACKOFF_CAP_MS);
    }

    #[test]
    fn busy_responses_are_retryable_and_errors_are_not() {
        assert!(response_is_busy(
            "{\"status\":\"busy\",\"shed\":true,\"reason\":\"admission queue full\"}"
        ));
        assert!(!response_is_busy("{\"status\":\"ok\"}"));
        assert!(!response_is_busy(
            "{\"status\":\"error\",\"kind\":\"spec\",\"message\":\"bad\"}"
        ));
        assert!(!response_is_busy("not json"));
    }

    #[test]
    fn client_missing_files_shows_usage() {
        let err = ClientCliOptions::parse(argv(&["--socket", "s", "spec.txt"])).unwrap_err();
        assert!(err.contains("usage:"), "{err}");
        let err = ClientCliOptions::parse(argv(&["spec.txt", "tech.txt"])).unwrap_err();
        assert!(err.contains("--socket is required"), "{err}");
        let err = ClientCliOptions::parse(argv(&["--socket", "s", "a", "b", "c"])).unwrap_err();
        assert!(err.contains("unexpected argument `c`"), "{err}");
    }
}
