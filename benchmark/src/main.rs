//! End-to-end and per-layer benchmark of the OASYS verified answer.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <dataset_verified|synth_sweep|serve_closed_loop|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload builds its inputs from `--seed`, measures for
//! `--seconds`, checks the program's outputs, and prints one row per
//! metric (`e2e …` untraced, `layer …` with `--trace 1`) with its unit,
//! sample count and, for ratios, its base. The last line is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the
//! BENCHMARK.json end-to-end metrics, or with `--trace 1` the per-layer
//! ones. See NOTES.md.

mod dataset_verified;
mod inputs;
mod layers;
mod report;
mod serve_closed_loop;
mod stats;
mod synth_sweep;

use oasys::batch::Manifest;
use oasys::dataset::DatasetPlan;
use report::{Metric, Outcome};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Distinct input texts timed for `parse.*`.
const PARSE_SAMPLE: usize = 200;

/// The run's settings.
pub struct Run {
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: Duration,
    /// Available parallelism of the host.
    pub nproc: usize,
}

const WORKLOADS: [&str; 3] = ["dataset_verified", "synth_sweep", "serve_closed_loop"];

/// Per workload (in [`WORKLOADS`] order), the workload's own metric and
/// the factor converting it.
type Sources = [(&'static str, f64); 3];

/// How each workload fills the BENCHMARK.json end-to-end metrics: name,
/// unit, sources.
const GATED: [(&str, &str, Sources); 3] = [
    (
        "setup_s",
        "s",
        [("setup_s", 1.0), ("setup_s", 1.0), ("setup_s", 1.0)],
    ),
    (
        "throughput_per_s",
        "1/s",
        [
            ("verified_per_s", 1.0),
            ("verdicts_per_s", 1.0),
            ("answers_per_s", 1.0),
        ],
    ),
    (
        "latency_p50_ms",
        "ms",
        [
            ("slice_p50_ms", 1.0),
            ("verdict_p50_us", 1e-3),
            ("answer_p50_ms", 1.0),
        ],
    ),
];

/// Times `f`, returning its result and the elapsed nanoseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let value = f();
    (value, elapsed_ns(start))
}

/// Nanoseconds since `start`.
#[must_use]
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One dataset set-up: parses a manifest and expands its plan, the work
/// `dataset::generate` does before its first job. Returns both with the
/// total and the expansion time, ns.
///
/// # Errors
///
/// When the manifest or an input it names is malformed.
pub fn set_up(text: &str) -> Result<(Manifest, DatasetPlan, u64, u64), String> {
    let start = Instant::now();
    let manifest = Manifest::parse(text).map_err(|e| e.to_string())?;
    let (plan, expand_ns) = timed(|| DatasetPlan::expand(&manifest));
    let plan = plan.map_err(|e| e.to_string())?;
    Ok((manifest, plan, elapsed_ns(start), expand_ns))
}

/// Adds `parse.spec_us` and `parse.tech_us`: the mean time of
/// `specfile::parse` and `techfile::parse` over (a sample of) the
/// workload's distinct input texts.
pub fn parse_layers(out: &mut Outcome, specs: &[String], techs: &[String]) {
    fn mean_us<E: std::fmt::Debug, T>(
        texts: &[String],
        parse: impl Fn(&str) -> Result<T, E>,
    ) -> (f64, usize) {
        let distinct: BTreeSet<&str> = texts.iter().map(String::as_str).collect();
        let sample: Vec<&str> = distinct.into_iter().take(PARSE_SAMPLE).collect();
        let reps = (2000 / sample.len().max(1)).max(5);
        let mut total_ns = 0u64;
        for text in &sample {
            for _ in 0..reps {
                let (parsed, ns) = timed(|| parse(std::hint::black_box(text)));
                std::hint::black_box(parsed.expect("workload inputs parse"));
                total_ns += ns;
            }
        }
        let calls = sample.len() * reps;
        (total_ns as f64 / 1e3 / calls.max(1) as f64, calls)
    }
    let (spec_us, n) = mean_us(specs, oasys::specfile::parse);
    out.layer("parse.spec_us", spec_us, "us", n);
    let (tech_us, n) = mean_us(techs, oasys_process::techfile::parse);
    out.layer("parse.tech_us", tech_us, "us", n);
}

/// Peak resident set size of this process, MB, as the OS reports it.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the checkout was made from, when it is a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(commit) = read(&format!(".git/{reference}")) {
        return commit.trim().to_owned();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                line.strip_suffix(reference)
                    .map(|commit| commit.trim().to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {} or all)",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn run_workload(name: &str, run: &Run, trace: bool) -> Result<Outcome, String> {
    match name {
        "dataset_verified" => dataset_verified::run(run, trace),
        "synth_sweep" => synth_sweep::run(run, trace),
        "serve_closed_loop" => serve_closed_loop::run(run, trace),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The metrics the result line carries for one workload.
fn result_metrics(index: usize, out: &Outcome, trace: bool) -> Vec<Metric> {
    let metric = |name: &str, value: f64, unit: &'static str, samples: usize| Metric {
        name: name.to_owned(),
        value,
        unit,
        samples,
        base: None,
    };
    if trace {
        return layers::LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                out.layers
                    .iter()
                    .find(|m| m.name == name)
                    .cloned()
                    .unwrap_or_else(|| metric(name, 0.0, unit, 0))
            })
            .collect();
    }
    GATED
        .iter()
        .map(|&(name, unit, sources)| {
            let (source, factor) = sources[index];
            let m = out
                .e2e_value(source)
                .unwrap_or_else(|| panic!("{} reports no {source}", WORKLOADS[index]));
            metric(name, m.value * factor, unit, m.samples)
        })
        .collect()
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("oasys-e2e-bench: {e}");
            std::process::exit(2);
        }
    };
    // Every style search runs sequentially, as the batch workloads ask
    // for explicitly, so the server's searches do not take their thread
    // count from the host either. Set before any thread starts.
    std::env::set_var(oasys::STYLE_THREADS_ENV, "1");
    let run = Run {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    let mut samples = Vec::new();
    let mut mismatches = 0usize;
    for name in &names {
        let index = WORKLOADS
            .iter()
            .position(|w| w == name)
            .expect("validated name");
        let out = match run_workload(name, &run, args.trace) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("oasys-e2e-bench: {name}: {e}");
                std::process::exit(2);
            }
        };
        for m in &out.e2e {
            println!("{}", report::row("e2e", name, m));
        }
        for m in &out.layers {
            println!("{}", report::row("layer", name, m));
        }
        println!("e2e {name} peak_rss_mb {} MB n=1", peak_rss_mb());
        println!(
            "e2e {name} failed_fraction {} ratio n={} base=({} / {})",
            out.failed as f64 / out.attempted.max(1) as f64,
            out.attempted,
            out.failed,
            out.attempted
        );
        for what in out.mismatches.iter().take(20) {
            println!("mismatch {name} {what}");
        }
        mismatches += out.mismatches.len();
        attempted += out.attempted;
        failed += out.failed;
        samples.push(format!("\"{name}\":{}", out.attempted));
        for mut m in result_metrics(index, &out, args.trace) {
            if names.len() > 1 {
                m.name = format!("{name}.{}", m.name);
            }
            metrics.push(m);
        }
    }
    println!(
        "context {{\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"profile\":\"{}\",\"commit\":\"{}\",\"samples\":{{{}}}}}",
        args.seed,
        args.seconds,
        args.trace,
        run.nproc,
        if cfg!(debug_assertions) { "debug" } else { "release" },
        git_commit(),
        samples.join(",")
    );
    let correct = mismatches == 0;
    println!(
        "{}",
        report::result_json(correct, attempted, failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasys_telemetry::json::{self, Json};

    fn declared(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let spec = json::parse(text).expect("BENCHMARK.json parses");
        spec.get(section)
            .and_then(Json::as_arr)
            .expect("section is a list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn result_metrics_match_benchmark_json() {
        let gated: Vec<(String, String)> = GATED
            .iter()
            .map(|(name, unit, _)| ((*name).to_owned(), (*unit).to_owned()))
            .collect();
        assert_eq!(declared("end_to_end"), gated);
        let layers: Vec<(String, String)> = layers::LAYER_METRICS
            .iter()
            .map(|(name, unit)| ((*name).to_owned(), (*unit).to_owned()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
    }
}
