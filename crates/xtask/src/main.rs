//! Workspace automation, following the cargo-xtask pattern: plain
//! `cargo` subcommands composed into repeatable gauntlets, no external
//! tooling required. Invoked as `cargo xtask <command>` via the alias
//! in `.cargo/config.toml`.
//!
//! Every gate is a `fn() -> Result<String, String>`: its success line or
//! its failure. The end-to-end gates run the release `oasys` binary
//! directly. It is built once per xtask run, on first use.

use oasys_telemetry::json::{self, Json};
use oasys_telemetry::schema;
use std::env;
use std::path::Path;
use std::process::{Child, Command, ExitCode, Output, Stdio};
use std::sync::OnceLock;
use std::thread;
use std::time::{Duration, Instant};

/// A gate: its success line, or its failure.
type Gate = fn() -> Result<String, String>;

/// The gates `check` runs, in order. Each also runs on its own as
/// `cargo xtask <name>`, and so does `smoke-serve`, the serve leg of
/// `smoke`.
const CHECK: [(&str, Gate); 11] = [
    ("fmt", fmt),
    ("clippy", clippy),
    ("build", build),
    ("test", test),
    ("panics", panics),
    ("smoke", smoke),
    ("serve-robustness", serve_robustness),
    ("smoke-dataset", smoke_dataset),
    ("docs", docs),
    ("bench-schema", bench_schema),
    ("benchmark", benchmark),
];

const USAGE: &str = "usage: cargo xtask <command>

commands:
  check             every gate below but smoke-serve (smoke runs it), in
                    order; runs them all even after a failure and names the
                    failed ones
  fmt               cargo fmt --all --check
  clippy            workspace clippy over every target, -D warnings
  build             release build
  test              every workspace crate's tests
  panics            clippy's unwrap_used and expect_used, denied over the
                    core crates' library code
  smoke             oasys --trace-out in both formats, schema-validated; the
                    bundled batch manifest run twice on one checkpoint (the
                    resume skips every job and renders the same aggregate);
                    then smoke-serve
  smoke-serve       oasys serve: a synth round trip, a shutdown that completes
                    an in-flight request, and a SIGTERM drain
  serve-robustness  oasys serve under chaos: a stalled client is evicted, a
                    panicked handler is replaced, and overload enters and
                    exits brownout
  smoke-dataset     the bundled dataset manifest in two shards, merged, every
                    record validated against oasys-dataset/2
  docs              rustdoc over the workspace with -D warnings
  bench-schema      the committed BENCH_synthesis.json against its schema
  benchmark         the end-to-end benchmark: built against its committed
                    lockfile, its tests, and one short traced run of every
                    workload";

fn main() -> ExitCode {
    // Every path below is relative to the workspace root.
    if let Err(e) = env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")) {
        eprintln!("xtask: cannot enter the workspace root: {e}");
        return ExitCode::FAILURE;
    }
    let command = env::args().nth(1).unwrap_or_default();
    if command == "check" {
        let failed: Vec<&str> = CHECK
            .iter()
            .filter(|(name, gate)| !run_gate(name, *gate))
            .map(|(name, _)| *name)
            .collect();
        if failed.is_empty() {
            println!("xtask check: all gates passed");
            return ExitCode::SUCCESS;
        }
        eprintln!("xtask check: FAILED gates: {}", failed.join(", "));
        return ExitCode::FAILURE;
    }
    let gate = CHECK
        .into_iter()
        .chain([("smoke-serve", smoke_serve as Gate)])
        .find(|(name, _)| *name == command);
    match gate {
        Some((name, gate)) if run_gate(name, gate) => ExitCode::SUCCESS,
        Some(_) => ExitCode::FAILURE,
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Runs one gate and prints its success line or its failure, once.
fn run_gate(name: &str, gate: Gate) -> bool {
    match gate() {
        Ok(line) => {
            println!("xtask {name}: {line}");
            true
        }
        Err(e) => {
            eprintln!("xtask {name}: {e}");
            false
        }
    }
}

fn fmt() -> Result<String, String> {
    cargo(&["fmt", "--all", "--check"], &[])
}

fn clippy() -> Result<String, String> {
    cargo(
        &[
            "clippy",
            "--workspace",
            "--all-targets",
            "--",
            "-D",
            "warnings",
        ],
        &[],
    )
}

fn build() -> Result<String, String> {
    cargo(&["build", "--release"], &[])
}

fn test() -> Result<String, String> {
    cargo(&["test", "-q", "--workspace"], &[])
}

/// Crates whose non-test code must stay free of `unwrap`/`expect`: a
/// knowledge-base bug or hostile input must surface as a typed error,
/// never a panic. The CLI and batch layers sit above these and turn
/// their errors into exit codes and JSONL records.
const PANIC_FREE_CRATES: [&str; 7] = [
    "sim", "plan", "netlist", "process", "units", "blocks", "mos",
];

/// Panic-freedom gate: clippy's `unwrap_used` and `expect_used` lints,
/// denied over the library targets of [`PANIC_FREE_CRATES`]. `--lib`
/// does not compile their test modules.
fn panics() -> Result<String, String> {
    let packages = PANIC_FREE_CRATES.map(|name| format!("oasys-{name}"));
    let mut args = vec!["clippy"];
    for package in &packages {
        args.extend(["-p", package.as_str()]);
    }
    args.extend([
        "--lib",
        "--",
        "-D",
        "clippy::unwrap_used",
        "-D",
        "clippy::expect_used",
    ]);
    cargo(&args, &[])?;
    Ok("core crates are free of unwrap/expect outside tests".to_owned())
}

/// Docs gate: `cargo doc --no-deps` must be warning-free. The doc-tests
/// run in the `test` gate.
fn docs() -> Result<String, String> {
    cargo(
        &["doc", "--workspace", "--no-deps", "-q"],
        &[("RUSTDOCFLAGS", "-D warnings")],
    )?;
    Ok("rustdoc is warning-free".to_owned())
}

/// The committed benchmark report must keep satisfying the
/// `oasys-bench` schema, so regenerating it with a drifted bench binary
/// fails the gauntlet.
fn bench_schema() -> Result<String, String> {
    let path = "BENCH_synthesis.json";
    let summary =
        oasys_bench::summary::validate(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
    Ok(format!("{path} ok ({summary})"))
}

/// The end-to-end benchmark (`benchmark/`, declared in
/// `BENCHMARK.json`), a workspace of its own with a committed lockfile:
/// it builds `--locked` (which fails when a manifest edit under
/// `crates/` would rewrite `benchmark/Cargo.lock`), its statistics tests
/// pass, and one short traced run of every workload exits 0 (it exits 1
/// on any `mismatch` row). Only exit status is gated: no timing is
/// compared.
fn benchmark() -> Result<String, String> {
    for args in [
        "build --release --offline --locked --manifest-path benchmark/Cargo.toml",
        "test --release --offline --locked --manifest-path benchmark/Cargo.toml",
        "run --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml \
         -- --workload all --seed 1 --seconds 1 --trace 1",
    ] {
        cargo(&args.split_whitespace().collect::<Vec<_>>(), &[])?;
    }
    Ok("benchmark builds --locked, passes its tests and runs every workload".to_owned())
}

/// End-to-end smoke gate, through the real CLI: `oasys` on the bundled
/// example spec and tech pair with `--trace-out` in both formats, each
/// file validated against the telemetry schema; then the batch resume
/// check and [`smoke_serve`].
fn smoke() -> Result<String, String> {
    let (spec, tech) = ("data/example-spec.txt", "data/generic-5um.tech");
    let jsonl = "target/smoke/run.jsonl.json";
    let chrome = "target/smoke/run.chrome.json";
    std::fs::create_dir_all("target/smoke").map_err(|e| format!("target/smoke: {e}"))?;
    oasys(&[spec, tech, "--no-verify", "--trace-out", jsonl])?;
    let lines = schema::validate_jsonl(&read(jsonl)?)
        .map_err(|e| format!("{jsonl}: schema violation: {e}"))?;
    oasys(&[
        spec,
        tech,
        "--no-verify",
        "--trace-out",
        chrome,
        "--trace-format",
        "chrome",
    ])?;
    let events = schema::validate_chrome(&read(chrome)?)
        .map_err(|e| format!("{chrome}: schema violation: {e}"))?;
    println!(
        "xtask smoke: traces validate (JSON lines: {} spans, {} events, {} counters; \
         Chrome: {} spans, {} instants, {} counters)",
        lines.spans, lines.events, lines.counters, events.spans, events.instants, events.counters
    );
    smoke_batch()?;
    smoke_serve()?;
    Ok("trace files, batch resume and serve legs ok".to_owned())
}

/// Batch smoke: the bundled 3×3 manifest runs twice against one
/// checkpoint. The second run must skip every job and render a
/// byte-identical aggregate: the resume contract, through the real CLI.
fn smoke_batch() -> Result<(), String> {
    let records = "target/smoke/batch.jsonl";
    let checkpoint = "target/smoke/batch.checkpoint";
    let _ = std::fs::remove_file(checkpoint);
    let mut aggregates = Vec::new();
    for aggregate in [
        "target/smoke/batch.fresh.json",
        "target/smoke/batch.resume.json",
    ] {
        oasys(&[
            "batch",
            "data/sweep.manifest",
            "--records",
            records,
            "--aggregate",
            aggregate,
            "--checkpoint",
            checkpoint,
        ])?;
        aggregates.push(read(aggregate)?);
    }
    // The resume rewrote the records file: every job is skipped.
    let text = read(records)?;
    if text.lines().count() != 9 {
        return Err(format!(
            "{records}: expected 9 records, found {}",
            text.lines().count()
        ));
    }
    for (idx, line) in text.lines().enumerate() {
        let record = json::parse(line).map_err(|e| format!("{records} line {}: {e}", idx + 1))?;
        let outcome = record.get("outcome").and_then(Json::as_str);
        if outcome != Some("skipped") {
            return Err(format!(
                "{records} line {}: expected a skipped record on resume, got {outcome:?}",
                idx + 1
            ));
        }
    }
    if aggregates[0].is_empty() || aggregates[0] != aggregates[1] {
        return Err("the resumed aggregate differs from the fresh run's".to_owned());
    }
    println!("xtask smoke: 9 batch records, every job skipped on resume, same aggregate");
    Ok(())
}

/// Serve smoke gate, through the real CLI, in three legs:
///
/// 1. **Round trip**: `--ping`, then the bundled spec-a × 5 µm pair,
///    answered `ok` with a style, a positive area and a SPICE deck.
/// 2. **In-flight drain**: every request's ingress stalls 400 ms (an
///    injected `serve.request.read` delay), so the `shutdown` lands
///    while a synthesis request is still being read. The server must
///    answer that request completely before it exits.
/// 3. **SIGTERM**: an idle server drains on the signal. The handler only
///    sets a flag and `accept` restarts after it, so only the
///    dispatcher's timed check and the drain's self-connect can end the
///    run.
fn smoke_serve() -> Result<String, String> {
    let (spec, tech) = ("data/spec-a.txt", "data/generic-5um.tech");
    serve_leg("serve", &[], "", Stop::Shutdown, |socket| {
        expect(client(socket, &["--ping"])?, "the ping", is_ok)?;
        expect(client(socket, &[spec, tech])?, "the synth answer", |j| {
            is_ok(j)
                && j.get("style")
                    .and_then(Json::as_str)
                    .is_some_and(|s| !s.is_empty())
                && num(j, "area_um2") > 0.0
                && j.get("netlist")
                    .and_then(Json::as_str)
                    .is_some_and(|n| n.contains(".END"))
        })
    })?;
    let inflight = serve_leg(
        "serve-drain",
        &[],
        "serve.request.read=delay(400)",
        Stop::Shutdown,
        |socket| {
            let socket = socket.to_owned();
            let inflight = thread::spawn(move || client(&socket, &[spec, tech]));
            thread::sleep(Duration::from_millis(120));
            Ok(inflight)
        },
    )?;
    let answer = inflight
        .join()
        .map_err(|_| "the in-flight client thread panicked".to_owned())??;
    expect(answer, "the request in flight at shutdown", is_ok)?;
    serve_leg("serve-sigterm", &[], "", Stop::Sigterm, |_| Ok(()))?;
    Ok("round trip, in-flight drain and SIGTERM drain ok".to_owned())
}

/// Serve robustness gate: the chaos behaviours the in-process suite
/// proves, re-proven through the real CLI.
///
/// 1. **Stall eviction**: a client that stalls (an injected
///    `serve.client.stall` delay) past `--io-timeout-ms` is evicted; a
///    prompt follow-up is served, and `--health` counts the eviction.
/// 2. **Worker panic**: with `serve.worker.panic=fail_once` a handler
///    dies at the top of its first loop, restarts, and `--health`
///    reports `workers_replaced >= 1`.
/// 3. **Brownout**: one handler, a two-deep queue and stalled ingress;
///    concurrent clients (retrying with seeded backoff) congest the
///    queue, and `--health` shows a brownout entry, then its exit once
///    the load is gone.
fn serve_robustness() -> Result<String, String> {
    serve_leg(
        "serve-stall",
        &["--io-timeout-ms", "150"],
        "",
        Stop::Shutdown,
        |socket| {
            // What the eviction leaves on the stalled client's socket
            // (an error frame or a reset) is not asserted; its effect on
            // the server is.
            let _ = oasys_output(
                &["client", "--socket", socket, "--ping"],
                "serve.client.stall=delay(600)",
            );
            expect(
                client(socket, &["--ping"])?,
                "the ping after the stall",
                is_ok,
            )?;
            expect(client(socket, &["--health"])?, "an eviction", |h| {
                num(h, "evicted") >= 1.0
            })
        },
    )?;
    serve_leg(
        "serve-worker-panic",
        &[],
        "serve.worker.panic=fail_once",
        Stop::Shutdown,
        |socket| {
            let health = poll_health(socket, "a replaced worker", |h| {
                num(h, "workers_replaced") >= 1.0
            })?;
            expect(health, "no brownout", |h| {
                h.get("brownout").and_then(Json::as_bool) == Some(false)
            })?;
            expect(
                client(socket, &["--ping"])?,
                "the ping after the restart",
                is_ok,
            )
        },
    )?;
    serve_leg(
        "serve-brownout",
        // Overrides the base `--workers 2`: the later flag wins.
        &["--workers", "1", "--queue-depth", "2"],
        "serve.request.read=delay(300)",
        Stop::Shutdown,
        |socket| {
            let clients: Vec<_> = (0..4)
                .map(|i| {
                    let socket = socket.to_owned();
                    thread::spawn(move || {
                        let seed = i.to_string();
                        let args = [
                            "client",
                            "--socket",
                            socket.as_str(),
                            "--ping",
                            "--retries",
                            "5",
                        ];
                        oasys_output(&[&args[..], &["--retry-seed", &seed]].concat(), "")
                    })
                })
                .collect();
            for client in clients {
                let _ = client
                    .join()
                    .map_err(|_| "an overload client thread panicked".to_owned())?;
            }
            let entered = poll_health(socket, "a brownout entry", |h| {
                num(h, "brownout_entries") >= 1.0
            })?;
            expect(entered, "a shed connection", |h| num(h, "shed") >= 1.0)?;
            poll_health(socket, "the brownout exit", |h| {
                h.get("brownout").and_then(Json::as_bool) == Some(false)
                    && num(h, "brownout_exits") >= 1.0
            })
            .map(drop)
        },
    )?;
    Ok("stalled client evicted, panicked handler replaced, brownout entered and exited".to_owned())
}

/// Dataset smoke gate: the bundled sampled dataset manifest
/// (`data/dataset.manifest`, 1080 points) in two shards through the real
/// CLI, merged, and every merged record run through the
/// `oasys-dataset/2` validator. Fails on a record count that disagrees
/// with the summary, an id that is not dense in order, or a schema
/// violation: the executable form of `DATASET.md`.
fn smoke_dataset() -> Result<String, String> {
    let out = "target/smoke/dataset";
    let _ = std::fs::remove_dir_all(out);
    for shard_index in ["0", "1"] {
        oasys(&[
            "dataset",
            "data/dataset.manifest",
            "--out",
            out,
            "--shards",
            "2",
            "--shard-index",
            shard_index,
            "--no-verify",
        ])?;
    }
    oasys(&["dataset", "merge", out])?;
    let summary = format!("{out}/dataset-summary.json");
    let expected = json::parse(&read(&summary)?)
        .map_err(|e| format!("{summary}: {e}"))?
        .get("records")
        .and_then(Json::as_num)
        .ok_or_else(|| format!("{summary} has no \"records\" count"))? as usize;
    let path = format!("{out}/dataset.jsonl");
    let text = read(&path)?;
    if text.lines().count() != expected {
        return Err(format!(
            "{path}: the summary promises {expected} records, found {}",
            text.lines().count()
        ));
    }
    for (idx, line) in text.lines().enumerate() {
        let at = format!("{path} line {}", idx + 1);
        // Merged `oasys-dataset/2` lines are sealed: `<json>\t<fnv1a64>`.
        let payload = oasys::integrity::open_line(line)
            .ok_or_else(|| format!("{at}: checksum does not verify"))?;
        let record = json::parse(payload).map_err(|e| format!("{at}: {e}"))?;
        oasys::dataset::schema::validate_record(&record).map_err(|e| format!("{at}: {e}"))?;
        if record.get("id").and_then(Json::as_num) != Some(idx as f64) {
            return Err(format!("{at}: ids must be dense and ordered"));
        }
    }
    Ok(format!(
        "{} records merged from 2 shards, every record validates",
        text.lines().count()
    ))
}

/// How a serve leg stops its server.
#[derive(Clone, Copy)]
enum Stop {
    /// A `shutdown` request, which the server must acknowledge.
    Shutdown,
    /// SIGTERM.
    Sigterm,
}

/// How long a stopped server may take to drain and exit.
const DRAIN_WAIT: Duration = Duration::from_secs(30);

/// Kills the server when a leg returns early.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Runs one serve leg: starts `oasys serve --socket
/// target/smoke/<name>.sock --workers 2 <args>` with `faults` armed,
/// waits for its socket, runs `leg` on the socket path and stops the
/// server. The server must then exit zero within [`DRAIN_WAIT`] (2 s
/// after SIGTERM), print its `serve: drained` line and remove its
/// socket. Its stderr goes to `target/smoke/<name>.log`.
fn serve_leg<T>(
    name: &str,
    args: &[&str],
    faults: &str,
    stop: Stop,
    leg: impl FnOnce(&str) -> Result<T, String>,
) -> Result<T, String> {
    let bin = oasys_bin()?;
    let socket = format!("target/smoke/{name}.sock");
    let log = format!("target/smoke/{name}.log");
    std::fs::create_dir_all("target/smoke").map_err(|e| format!("target/smoke: {e}"))?;
    let _ = std::fs::remove_file(&socket);
    let stderr = std::fs::File::create(&log).map_err(|e| format!("{log}: {e}"))?;
    let args = [
        &["serve", "--socket", socket.as_str(), "--workers", "2"][..],
        args,
    ]
    .concat();
    let mut server = KillOnDrop(
        oasys_command(bin, &args, faults)
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("failed to spawn {bin}: {e}"))?,
    );
    let started = Instant::now();
    while !Path::new(&socket).exists() {
        if let Ok(Some(status)) = server.0.try_wait() {
            return Err(format!("the server exited early with {status}"));
        }
        if started.elapsed() > Duration::from_secs(10) {
            return Err(format!("the server never bound {socket}"));
        }
        thread::sleep(Duration::from_millis(50));
    }
    let kept = leg(&socket)?;
    let within = match stop {
        Stop::Shutdown => {
            expect(
                client(&socket, &["--shutdown"])?,
                "a draining acknowledgement",
                |j| j.get("draining").and_then(Json::as_bool) == Some(true),
            )?;
            DRAIN_WAIT
        }
        Stop::Sigterm => {
            let pid = server.0.id().to_string();
            println!("$ kill -TERM {pid}");
            let killed = Command::new("kill").args(["-TERM", &pid]).status();
            if !killed.as_ref().is_ok_and(|s| s.success()) {
                return Err(format!("kill -TERM {pid}: {killed:?}"));
            }
            Duration::from_secs(2)
        }
    };
    let started = Instant::now();
    let status = loop {
        match server.0.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if started.elapsed() < within => thread::sleep(Duration::from_millis(20)),
            Ok(None) => return Err(format!("the server did not drain within {within:?}")),
            Err(e) => return Err(format!("waiting for the server: {e}")),
        }
    };
    let stderr = read(&log)?;
    if !status.success() {
        return Err(format!("the server exited with {status}:\n{stderr}"));
    }
    if Path::new(&socket).exists() {
        return Err(format!("the server exited but left {socket} behind"));
    }
    if !stderr.contains("serve: drained") {
        return Err(format!(
            "no `serve: drained` line from the server:\n{stderr}"
        ));
    }
    Ok(kept)
}

/// Polls `oasys client --health` until `pass` holds, for up to 10 s.
fn poll_health(socket: &str, what: &str, pass: impl Fn(&Json) -> bool) -> Result<Json, String> {
    let started = Instant::now();
    loop {
        let health = client(socket, &["--health"])?;
        if pass(&health) {
            return Ok(health);
        }
        if started.elapsed() > Duration::from_secs(10) {
            return Err(format!("health never showed {what}: {health:?}"));
        }
        thread::sleep(Duration::from_millis(100));
    }
}

/// `Ok` when `pass` holds for `answer`, else a failure naming `what`.
fn expect(answer: Json, what: &str, pass: impl Fn(&Json) -> bool) -> Result<(), String> {
    if pass(&answer) {
        Ok(())
    } else {
        Err(format!("expected {what}, got {answer:?}"))
    }
}

fn is_ok(answer: &Json) -> bool {
    answer.get("status").and_then(Json::as_str) == Some("ok")
}

/// A numeric field of `answer`, 0 when it is missing.
fn num(answer: &Json, key: &str) -> f64 {
    answer.get(key).and_then(Json::as_num).unwrap_or(0.0)
}

/// `oasys client --socket <socket> <args>`: it must exit zero and print
/// one JSON line.
fn client(socket: &str, args: &[&str]) -> Result<Json, String> {
    let stdout = oasys(&[&["client", "--socket", socket][..], args].concat())?;
    json::parse(stdout.trim()).map_err(|e| format!("the client printed no JSON ({e}):\n{stdout}"))
}

/// Runs the release `oasys` with `args`. It must exit zero; returns its
/// stdout.
fn oasys(args: &[&str]) -> Result<String, String> {
    let output = oasys_output(args, "")?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if !output.status.success() {
        return Err(format!(
            "`oasys {}` exited with {}:\n{stdout}{}",
            args.join(" "),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok(stdout)
}

/// Runs the release `oasys` with `args` and `faults` armed, whatever its
/// exit status.
fn oasys_output(args: &[&str], faults: &str) -> Result<Output, String> {
    let bin = oasys_bin()?;
    oasys_command(bin, args, faults)
        .output()
        .map_err(|e| format!("failed to spawn {bin}: {e}"))
}

/// `bin args`, with `faults` appended to any inherited `OASYS_FAULTS`
/// plane (the only way to arm a process's faults), so an armed CI plane
/// still reaches every process a gate starts.
fn oasys_command(bin: &str, args: &[&str], faults: &str) -> Command {
    let mut command = Command::new(bin);
    command.args(args);
    let mut shown = String::new();
    if !faults.is_empty() {
        let plane = match env::var("OASYS_FAULTS") {
            Ok(inherited) if !inherited.is_empty() => format!("{inherited},{faults}"),
            _ => faults.to_owned(),
        };
        shown = format!("OASYS_FAULTS='{plane}' ");
        command.env("OASYS_FAULTS", plane);
    }
    println!("$ {shown}{bin} {}", args.join(" "));
    command
}

/// The release `oasys` binary, built once per xtask run on first use.
/// Its path is the `executable` cargo reports for the build, so a
/// `CARGO_TARGET_DIR` or `build.target-dir` puts it where cargo did.
fn oasys_bin() -> Result<&'static str, String> {
    static BUILT: OnceLock<Result<String, String>> = OnceLock::new();
    BUILT
        .get_or_init(build_oasys)
        .as_deref()
        .map_err(Clone::clone)
}

fn build_oasys() -> Result<String, String> {
    let args = [
        "build",
        "--release",
        "-q",
        "-p",
        "oasys",
        "--bin",
        "oasys",
        "--message-format=json-render-diagnostics",
    ];
    let shown = format!("cargo {}", args.join(" "));
    println!("$ {shown}");
    let output = Command::new("cargo")
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("failed to spawn cargo: {e}"))?;
    if !output.status.success() {
        return Err(format!("`{shown}` exited with {}", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(|line| json::parse(line).ok())
        .find_map(|message| {
            // The `oasys` library artifact shares the name but has a
            // null `executable`.
            if message.get("reason")?.as_str()? != "compiler-artifact"
                || message.get("target")?.get("name")?.as_str()? != "oasys"
            {
                return None;
            }
            message.get("executable")?.as_str().map(str::to_owned)
        })
        .ok_or_else(|| format!("`{shown}` reported no `oasys` executable"))
}

/// Runs `cargo args` with `envs` set and its output shown.
fn cargo(args: &[&str], envs: &[(&str, &str)]) -> Result<String, String> {
    let shown = format!("cargo {}", args.join(" "));
    let envs_shown: String = envs.iter().map(|(k, v)| format!(" # {k}='{v}'")).collect();
    println!("$ {shown}{envs_shown}");
    match Command::new("cargo")
        .args(args)
        .envs(envs.iter().copied())
        .status()
    {
        Ok(status) if status.success() => Ok(format!("`{shown}` passed")),
        Ok(status) => Err(format!("`{shown}` exited with {status}")),
        Err(e) => Err(format!("failed to spawn cargo: {e}")),
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}
