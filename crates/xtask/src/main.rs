//! Workspace automation, following the cargo-xtask pattern: plain
//! `cargo` subcommands composed into repeatable gauntlets, no external
//! tooling required. Invoked as `cargo xtask <command>` via the alias
//! in `.cargo/config.toml`.

use oasys_telemetry::schema;
use std::env;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(),
        Some("lint-examples") => lint_examples(),
        Some("analyze") => analyze(),
        Some("smoke") => smoke(),
        Some("smoke-serve") => smoke_serve(),
        Some("serve-robustness") => serve_robustness(),
        Some("smoke-dataset") => smoke_dataset(),
        Some("docs") => docs(),
        Some("bench-schema") => bench_schema(),
        Some("panics") => panics(),
        _ => {
            eprintln!(
                "usage: cargo xtask <command>\n\n\
                 commands:\n  \
                 check          fmt --check, workspace clippy -D warnings, release build,\n                 \
                 every workspace crate's tests,\n                 \
                 the panic-freedom gate over the core crates,\n                 \
                 `oasys lint --deny-warnings` over the example specs,\n                 \
                 the static-analysis gate over the builtin plans,\n                 \
                 the end-to-end trace + batch + dataset smoke runs,\n                 \
                 the serve-robustness chaos leg,\n                 \
                 the docs gate, and the bench-report schema gate\n  \
                 analyze        only the static-analysis gate: the builtin style plans\n                 \
                 must be diagnostic-free in JSON and SARIF output\n  \
                 lint-examples  only the example-spec lint gate\n  \
                 smoke          only the end-to-end runs: synthesize the example spec\n                 \
                 with --trace-out and validate the emitted trace files,\n                 \
                 then run the bundled batch manifest and validate the\n                 \
                 records, resume behaviour, and aggregate determinism,\n                 \
                 then the serve leg (see smoke-serve)\n  \
                 smoke-serve    only the serve leg: start `oasys serve` on a temp\n                 \
                 socket, submit spec-a over the wire, validate the JSON\n                 \
                 response, then prove graceful drain with a request\n                 \
                 still in flight and on SIGTERM\n  \
                 serve-robustness  the serve chaos leg through the real CLI: a\n                 \
                 stalled client is evicted by the I/O deadline, a\n                 \
                 panicked handler worker is replaced, and sustained\n                 \
                 overload enters and exits brownout\n  \
                 smoke-dataset  only the dataset leg: generate the bundled sampled\n                 \
                 dataset manifest in two shards through the CLI, merge,\n                 \
                 and validate every record against `oasys-dataset/2`\n  \
                 docs           only the docs gate: rustdoc with -D warnings + doc-tests\n  \
                 bench-schema   only the committed BENCH_synthesis.json schema gate\n  \
                 panics         only the panic-freedom gate: no unwrap/expect in\n                 \
                 core-crate non-test code (textual scan + clippy lints)"
            );
            ExitCode::from(2)
        }
    }
}

/// The full verification gauntlet. Runs every gate even after a
/// failure so one invocation reports everything that is wrong.
fn check() -> ExitCode {
    let mut failed = Vec::new();
    let gates: &[(&str, &[&str])] = &[
        ("fmt", &["fmt", "--all", "--check"]),
        (
            "clippy",
            &[
                "clippy",
                "--workspace",
                "--all-targets",
                "--",
                "-D",
                "warnings",
            ],
        ),
        ("build", &["build", "--release"]),
        ("test", &["test", "-q", "--workspace"]),
    ];
    for (name, cargo_args) in gates {
        if !run("cargo", cargo_args) {
            failed.push((*name).to_string());
        }
    }
    if panics() != ExitCode::SUCCESS {
        failed.push("panics".to_string());
    }
    if lint_examples() != ExitCode::SUCCESS {
        failed.push("lint-examples".to_string());
    }
    if analyze() != ExitCode::SUCCESS {
        failed.push("analyze".to_string());
    }
    if smoke() != ExitCode::SUCCESS {
        failed.push("smoke".to_string());
    }
    if serve_robustness() != ExitCode::SUCCESS {
        failed.push("serve-robustness".to_string());
    }
    if smoke_dataset() != ExitCode::SUCCESS {
        failed.push("smoke-dataset".to_string());
    }
    if docs() != ExitCode::SUCCESS {
        failed.push("docs".to_string());
    }
    if bench_schema() != ExitCode::SUCCESS {
        failed.push("bench-schema".to_string());
    }
    if failed.is_empty() {
        println!("xtask check: all gates passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask check: FAILED gates: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

/// Crates whose non-test code must stay free of `unwrap`/`expect`: a
/// knowledge-base bug or hostile input must surface as a typed error,
/// never a panic. The CLI and batch layers sit above these and turn
/// their errors into exit codes and JSONL records.
const PANIC_FREE_CRATES: [&str; 7] = [
    "sim", "plan", "netlist", "process", "units", "blocks", "mos",
];

/// Panic-freedom gate, enforced twice over [`PANIC_FREE_CRATES`]: a
/// textual scan (each file cut at its first `#[cfg(test)]`, `//`
/// comments stripped) flagging `.unwrap()` / `.expect(` call sites, and
/// clippy's `unwrap_used`/`expect_used` lints over the library targets.
fn panics() -> ExitCode {
    let mut violations: Vec<String> = Vec::new();
    for name in PANIC_FREE_CRATES {
        let root = format!("crates/{name}/src");
        if !Path::new(&root).is_dir() {
            eprintln!("xtask panics: {root} not found (run from the workspace root)");
            return ExitCode::FAILURE;
        }
        if let Err(e) = scan_panics(Path::new(&root), &mut violations) {
            eprintln!("xtask panics: {e}");
            return ExitCode::FAILURE;
        }
    }
    for violation in &violations {
        eprintln!("xtask panics: {violation}");
    }

    let packages: Vec<String> = PANIC_FREE_CRATES
        .iter()
        .map(|name| format!("oasys-{name}"))
        .collect();
    let mut clippy_args: Vec<&str> = vec!["clippy"];
    for package in &packages {
        clippy_args.push("-p");
        clippy_args.push(package);
    }
    clippy_args.extend_from_slice(&[
        "--lib",
        "--",
        "-D",
        "clippy::unwrap_used",
        "-D",
        "clippy::expect_used",
    ]);
    let clippy_ok = run("cargo", &clippy_args);

    if violations.is_empty() && clippy_ok {
        println!("xtask panics: core crates are free of unwrap/expect outside tests");
        ExitCode::SUCCESS
    } else {
        if !violations.is_empty() {
            eprintln!(
                "xtask panics: {} unwrap/expect call site(s) in non-test code",
                violations.len()
            );
        }
        ExitCode::FAILURE
    }
}

/// Walks every `.rs` file under `dir`, recording unwrap/expect call
/// sites in non-test code into `violations`.
fn scan_panics(dir: &Path, violations: &mut Vec<String>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            scan_panics(&path, violations)?;
            continue;
        }
        if path.extension().is_none_or(|ext| ext != "rs") {
            continue;
        }
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        // Everything from the first `#[cfg(test)]` down is test code;
        // the convention in this workspace is one trailing test module.
        let body = text.split("#[cfg(test)]").next().unwrap_or("");
        for (idx, line) in body.lines().enumerate() {
            let code = line.split("//").next().unwrap_or("");
            if code.contains(".unwrap()") || code.contains(".expect(") {
                violations.push(format!("{}:{}: {}", path.display(), idx + 1, line.trim()));
            }
        }
    }
    Ok(())
}

/// The `oasys lint --deny-warnings` gate: first the plan analyzers
/// alone, then the example spec synthesized and electrical-rule-checked
/// on each process it is feasible on (the 1.2 µm kit cannot meet it, so
/// that pairing is not part of the gate).
fn lint_examples() -> ExitCode {
    let spec = "data/example-spec.txt";
    if !std::path::Path::new(spec).is_file() {
        eprintln!("xtask: {spec} not found (run from the workspace root)");
        return ExitCode::FAILURE;
    }
    let mut ok = run_oasys_lint(&["--deny-warnings"]);
    for tech in ["data/generic-5um.tech", "data/generic-3um.tech"] {
        println!("lint {spec} against {tech}");
        ok &= run_oasys_lint(&[spec, tech, "--deny-warnings"]);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Static-analysis gate: the builtin style plans must come through the
/// full analyzer — the dataflow checks plus the interval/unit OL2xx
/// pass — with zero diagnostics, verified through the real CLI in both
/// machine formats. A clean JSON report is exactly the empty array; the
/// SARIF log must still carry the complete 2.1.0 envelope.
fn analyze() -> ExitCode {
    let json = match capture_oasys_lint(&["--format", "json", "--deny-warnings"]) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("xtask analyze: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json != "[]\n" {
        eprintln!("xtask analyze: builtin plans are not diagnostic-free:\n{json}");
        return ExitCode::FAILURE;
    }
    let sarif = match capture_oasys_lint(&["--format", "sarif", "--deny-warnings"]) {
        Ok(sarif) => sarif,
        Err(e) => {
            eprintln!("xtask analyze: {e}");
            return ExitCode::FAILURE;
        }
    };
    for marker in [
        "\"version\":\"2.1.0\"",
        "\"name\":\"oasys-lint\"",
        "\"results\":[]",
    ] {
        if !sarif.contains(marker) {
            eprintln!("xtask analyze: SARIF output is missing {marker}:\n{sarif}");
            return ExitCode::FAILURE;
        }
    }
    println!("xtask analyze: builtin plans are clean (JSON empty, SARIF envelope intact)");
    ExitCode::SUCCESS
}

/// Runs `oasys lint` with the given arguments, returning captured
/// stdout on success and a description (with stderr) on failure.
fn capture_oasys_lint(lint_args: &[&str]) -> Result<String, String> {
    let mut args = vec![
        "run",
        "--release",
        "-q",
        "-p",
        "oasys",
        "--bin",
        "oasys",
        "--",
        "lint",
    ];
    args.extend_from_slice(lint_args);
    println!("$ cargo {}", args.join(" "));
    let output = Command::new("cargo")
        .args(&args)
        .output()
        .map_err(|e| format!("failed to spawn cargo: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "`oasys lint {}` failed:\n{}",
            lint_args.join(" "),
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok(String::from_utf8_lossy(&output.stdout).into_owned())
}

/// End-to-end smoke gate: run `oasys` on the bundled example spec/tech
/// pair with `--trace-out` in both formats and validate the emitted
/// files against the telemetry schema. Fails on any run error, file
/// error, JSON parse error, or schema violation.
fn smoke() -> ExitCode {
    let spec = "data/example-spec.txt";
    let tech = "data/generic-5um.tech";
    if !std::path::Path::new(spec).is_file() {
        eprintln!("xtask: {spec} not found (run from the workspace root)");
        return ExitCode::FAILURE;
    }
    let out_dir = std::path::Path::new("target/smoke");
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("xtask: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }

    let jsonl_path = "target/smoke/run.jsonl.json";
    let chrome_path = "target/smoke/run.chrome.json";
    let runs: &[(&str, &[&str])] = &[
        (
            jsonl_path,
            &[spec, tech, "--no-verify", "--trace-out", jsonl_path],
        ),
        (
            chrome_path,
            &[
                spec,
                tech,
                "--no-verify",
                "--trace-out",
                chrome_path,
                "--trace-format",
                "chrome",
            ],
        ),
    ];
    for (path, oasys_args) in runs {
        let mut args = vec![
            "run",
            "--release",
            "-q",
            "-p",
            "oasys",
            "--bin",
            "oasys",
            "--",
        ];
        args.extend_from_slice(oasys_args);
        if !run("cargo", &args) {
            eprintln!("xtask smoke: oasys run for {path} failed");
            return ExitCode::FAILURE;
        }
    }

    let mut ok = true;
    ok &= validate_trace(jsonl_path, |text| {
        schema::validate_jsonl(text).map(|s| {
            format!(
                "{} spans, {} events, {} counters",
                s.spans, s.events, s.counters
            )
        })
    });
    ok &= validate_trace(chrome_path, |text| {
        schema::validate_chrome(text).map(|s| {
            format!(
                "{} spans, {} instants, {} counters",
                s.spans, s.instants, s.counters
            )
        })
    });
    if !ok {
        return ExitCode::FAILURE;
    }
    println!("xtask smoke: trace files validate");
    smoke_batch()
}

/// Batch smoke gate: run the bundled 3×3 manifest twice against one
/// checkpoint. The first run must stream one JSON record per job with
/// zero failures; the second must skip every job and produce a
/// byte-identical aggregate — the resume contract, exercised through
/// the real CLI.
fn smoke_batch() -> ExitCode {
    let manifest = "data/sweep.manifest";
    if !std::path::Path::new(manifest).is_file() {
        eprintln!("xtask: {manifest} not found (run from the workspace root)");
        return ExitCode::FAILURE;
    }
    let records = "target/smoke/batch.jsonl";
    let aggregate_fresh = "target/smoke/batch.fresh.json";
    let aggregate_resume = "target/smoke/batch.resume.json";
    let checkpoint = "target/smoke/batch.checkpoint";
    let _ = std::fs::remove_file(checkpoint);

    for aggregate in [aggregate_fresh, aggregate_resume] {
        let args = [
            "run",
            "--release",
            "-q",
            "-p",
            "oasys",
            "--bin",
            "oasys",
            "--",
            "batch",
            manifest,
            "--records",
            records,
            "--aggregate",
            aggregate,
            "--checkpoint",
            checkpoint,
        ];
        if !run("cargo", &args) {
            eprintln!("xtask smoke: batch run for {aggregate} failed");
            return ExitCode::FAILURE;
        }
    }

    let text = match std::fs::read_to_string(records) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("xtask smoke: {records}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let lines: Vec<&str> = text.lines().collect();
    let expected = 9;
    if lines.len() != expected {
        eprintln!(
            "xtask smoke: {records}: expected {expected} records, found {}",
            lines.len()
        );
        return ExitCode::FAILURE;
    }
    for (idx, line) in lines.iter().enumerate() {
        let parsed = match oasys_telemetry::json::parse(line) {
            Ok(parsed) => parsed,
            Err(e) => {
                eprintln!("xtask smoke: {records} line {}: {e}", idx + 1);
                return ExitCode::FAILURE;
            }
        };
        // The second (resume) run rewrote the file: everything skipped.
        let outcome = parsed.get("outcome").and_then(|j| j.as_str());
        if outcome != Some("skipped") {
            eprintln!(
                "xtask smoke: {records} line {}: expected a skipped record on resume, got {outcome:?}",
                idx + 1
            );
            return ExitCode::FAILURE;
        }
    }
    let fresh = std::fs::read_to_string(aggregate_fresh).unwrap_or_default();
    let resume = std::fs::read_to_string(aggregate_resume).unwrap_or_default();
    if fresh.is_empty() || fresh != resume {
        eprintln!(
            "xtask smoke: resumed aggregate differs from the fresh run ({aggregate_fresh} vs {aggregate_resume})"
        );
        return ExitCode::FAILURE;
    }
    println!("xtask smoke: batch records, resume skip-set, and aggregate determinism ok");
    smoke_serve()
}

/// Serve smoke gate, exercised through the real CLI binary twice over:
///
/// 1. **Request/response leg** — start `oasys serve` on a temp Unix
///    socket, `--ping` it, submit the bundled spec-a × 5 µm pair, and
///    validate the JSON response (status `ok`, a style, a positive
///    area, a SPICE deck), then shut down cleanly.
/// 2. **Drain leg** — start a server whose request ingress stalls via
///    an injected `serve.request.read` delay, put a synthesis request
///    in flight, and send `shutdown` while it is still stalled. The
///    server must answer the in-flight request completely before
///    exiting zero and removing its socket — graceful drain, observed
///    from outside the process.
/// 3. **SIGTERM leg** — send SIGTERM to an idle server. It must exit
///    zero within 2 s, print its `serve: drained` line, and remove its
///    socket.
fn smoke_serve() -> ExitCode {
    let spec = "data/spec-a.txt";
    let tech = "data/generic-5um.tech";
    if !std::path::Path::new(spec).is_file() {
        eprintln!("xtask: {spec} not found (run from the workspace root)");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::create_dir_all("target/smoke") {
        eprintln!("xtask: cannot create target/smoke: {e}");
        return ExitCode::FAILURE;
    }
    // One explicit build so the client invocations below can use the
    // binary directly — `cargo run` per request would race rebuilds.
    if !run(
        "cargo",
        &["build", "--release", "-q", "-p", "oasys", "--bin", "oasys"],
    ) {
        return ExitCode::FAILURE;
    }
    let bin = "target/release/oasys";

    // Leg 1: request/response against a clean server.
    let socket = "target/smoke/serve.sock";
    let mut server = match spawn_server(bin, socket, &[]) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("xtask smoke-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let leg = (|| -> Result<(), String> {
        let ping = client_json(bin, &["client", "--socket", socket, "--ping"])?;
        if ping.get("status").and_then(|j| j.as_str()) != Some("ok") {
            return Err(format!("ping did not answer ok: {ping:?}"));
        }
        let answer = client_json(bin, &["client", "--socket", socket, spec, tech])?;
        if answer.get("status").and_then(|j| j.as_str()) != Some("ok") {
            return Err(format!("synth request did not answer ok: {answer:?}"));
        }
        if answer
            .get("style")
            .and_then(|j| j.as_str())
            .is_none_or(str::is_empty)
        {
            return Err("synth response is missing a style".to_string());
        }
        if answer
            .get("area_um2")
            .and_then(|j| j.as_num())
            .is_none_or(|area| area <= 0.0)
        {
            return Err("synth response is missing a positive area_um2".to_string());
        }
        let netlist = answer
            .get("netlist")
            .and_then(|j| j.as_str())
            .unwrap_or_default();
        if !netlist.contains(".END") {
            return Err("synth response netlist is not a SPICE deck".to_string());
        }
        let drain = client_json(bin, &["client", "--socket", socket, "--shutdown"])?;
        if drain.get("draining").and_then(|j| j.as_bool()) != Some(true) {
            return Err(format!("shutdown did not acknowledge draining: {drain:?}"));
        }
        wait_for_exit(&mut server, socket, DRAIN_WAIT)
    })();
    if let Err(e) = leg {
        eprintln!("xtask smoke-serve: {e}");
        let _ = server.kill();
        return ExitCode::FAILURE;
    }
    println!("xtask smoke-serve: ping + synth + shutdown round trip ok");

    // Leg 2: graceful drain with a request still in flight. Every
    // request's ingress stalls 400 ms, so the shutdown lands while the
    // synthesis request is mid-read.
    let socket = "target/smoke/serve-drain.sock";
    let mut server = match spawn_server(bin, socket, &["--faults", "serve.request.read=delay(400)"])
    {
        Ok(server) => server,
        Err(e) => {
            eprintln!("xtask smoke-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let inflight = {
        let bin = bin.to_string();
        let socket = socket.to_string();
        let spec = spec.to_string();
        let tech = tech.to_string();
        std::thread::spawn(move || {
            client_json(&bin, &["client", "--socket", &socket, &spec, &tech])
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(120));
    let leg = (|| -> Result<(), String> {
        let drain = client_json(bin, &["client", "--socket", socket, "--shutdown"])?;
        if drain.get("draining").and_then(|j| j.as_bool()) != Some(true) {
            return Err(format!("shutdown did not acknowledge draining: {drain:?}"));
        }
        wait_for_exit(&mut server, socket, DRAIN_WAIT)?;
        let answer = inflight
            .join()
            .map_err(|_| "in-flight client thread panicked".to_string())??;
        if answer.get("status").and_then(|j| j.as_str()) != Some("ok") {
            return Err(format!(
                "in-flight request was not drained to completion: {answer:?}"
            ));
        }
        Ok(())
    })();
    if let Err(e) = leg {
        eprintln!("xtask smoke-serve: {e}");
        let _ = server.kill();
        return ExitCode::FAILURE;
    }
    println!("xtask smoke-serve: graceful drain completed the in-flight request");

    // Leg 3: SIGTERM drains the server. The handler only sets a flag
    // and `accept` restarts after the signal, so only the dispatcher's
    // timed check and the drain's self-connect can end the run.
    let socket = "target/smoke/serve-sigterm.sock";
    let log = "target/smoke/serve-sigterm.log";
    let stderr = match std::fs::File::create(log) {
        Ok(file) => file,
        Err(e) => {
            eprintln!("xtask smoke-serve: cannot create {log}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut server = match spawn_server_logged(bin, socket, &[], stderr.into()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("xtask smoke-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let leg = (|| -> Result<(), String> {
        let pid = server.id().to_string();
        println!("$ kill -TERM {pid}");
        let killed = Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .map_err(|e| format!("failed to run kill: {e}"))?;
        if !killed.success() {
            return Err(format!("kill -TERM {pid} exited with {killed}"));
        }
        wait_for_exit(&mut server, socket, std::time::Duration::from_secs(2))?;
        let stderr = std::fs::read_to_string(log).map_err(|e| format!("reading {log}: {e}"))?;
        if !stderr.contains("serve: drained") {
            return Err(format!("no `serve: drained` line after SIGTERM:\n{stderr}"));
        }
        Ok(())
    })();
    if let Err(e) = leg {
        eprintln!("xtask smoke-serve: {e}");
        let _ = server.kill();
        return ExitCode::FAILURE;
    }
    println!("xtask smoke-serve: SIGTERM drained the server");
    ExitCode::SUCCESS
}

/// Serve robustness gate, exercised through the real CLI binary: the
/// chaos behaviours the in-process suite proves are re-proven from
/// outside the process, fault injection via `--faults`/`OASYS_FAULTS`.
///
/// 1. **Stall-eviction leg** — a client that connects and then stalls
///    (injected `serve.client.stall` delay) past the server's
///    `--io-timeout-ms` must be evicted; a prompt follow-up client is
///    served, and `--health` reports the eviction.
/// 2. **Worker-panic leg** — a server started with
///    `serve.worker.panic=fail_once` loses a handler at the top of its
///    first loop; the handler restarts, `--health` reports
///    `workers_replaced >= 1`, and traffic flows.
/// 3. **Brownout leg** — with one handler, a two-deep queue,
///    and stalled ingress, concurrent clients (retrying with seeded
///    backoff) congest the queue; `--health` must show a brownout
///    entry, then a brownout exit once the load is gone.
fn serve_robustness() -> ExitCode {
    if let Err(e) = std::fs::create_dir_all("target/smoke") {
        eprintln!("xtask: cannot create target/smoke: {e}");
        return ExitCode::FAILURE;
    }
    if !run(
        "cargo",
        &["build", "--release", "-q", "-p", "oasys", "--bin", "oasys"],
    ) {
        return ExitCode::FAILURE;
    }
    let bin = "target/release/oasys";

    // Leg 1: stalled client is evicted by the I/O deadline.
    let socket = "target/smoke/serve-stall.sock";
    let mut server = match spawn_server(bin, socket, &["--io-timeout-ms", "150"]) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("xtask serve-robustness: {e}");
            return ExitCode::FAILURE;
        }
    };
    let leg = (|| -> Result<(), String> {
        // The stalled client's own outcome is whatever the eviction
        // left on its socket (an error frame or a reset) — ignored;
        // the server-side effects are what this leg asserts.
        let _ = client_output(
            bin,
            &["client", "--socket", socket, "--ping"],
            &[("OASYS_FAULTS", "serve.client.stall=delay(600)")],
        );
        let ping = client_json(bin, &["client", "--socket", socket, "--ping"])?;
        if ping.get("status").and_then(|j| j.as_str()) != Some("ok") {
            return Err(format!("ping after the stalled client: {ping:?}"));
        }
        let health = client_json(bin, &["client", "--socket", socket, "--health"])?;
        if health
            .get("evicted")
            .and_then(|j| j.as_num())
            .unwrap_or(0.0)
            < 1.0
        {
            return Err(format!("health does not report the eviction: {health:?}"));
        }
        let drain = client_json(bin, &["client", "--socket", socket, "--shutdown"])?;
        if drain.get("draining").and_then(|j| j.as_bool()) != Some(true) {
            return Err(format!("shutdown did not acknowledge draining: {drain:?}"));
        }
        wait_for_exit(&mut server, socket, DRAIN_WAIT)
    })();
    if let Err(e) = leg {
        eprintln!("xtask serve-robustness: {e}");
        let _ = server.kill();
        return ExitCode::FAILURE;
    }
    println!("xtask serve-robustness: stalled client evicted, slot reclaimed");

    // Leg 2: a panicked handler worker is restarted and counted.
    let socket = "target/smoke/serve-worker-panic.sock";
    let mut server = match spawn_server(bin, socket, &["--faults", "serve.worker.panic=fail_once"])
    {
        Ok(server) => server,
        Err(e) => {
            eprintln!("xtask serve-robustness: {e}");
            return ExitCode::FAILURE;
        }
    };
    let leg = (|| -> Result<(), String> {
        let health = poll_health_cli(bin, socket, "a replaced worker", |h| {
            h.get("workers_replaced")
                .and_then(|j| j.as_num())
                .unwrap_or(0.0)
                >= 1.0
        })?;
        if health.get("brownout").and_then(|j| j.as_bool()) != Some(false) {
            return Err(format!("unexpected brownout: {health:?}"));
        }
        let ping = client_json(bin, &["client", "--socket", socket, "--ping"])?;
        if ping.get("status").and_then(|j| j.as_str()) != Some("ok") {
            return Err(format!("ping after the replacement: {ping:?}"));
        }
        let drain = client_json(bin, &["client", "--socket", socket, "--shutdown"])?;
        if drain.get("draining").and_then(|j| j.as_bool()) != Some(true) {
            return Err(format!("shutdown did not acknowledge draining: {drain:?}"));
        }
        wait_for_exit(&mut server, socket, DRAIN_WAIT)
    })();
    if let Err(e) = leg {
        eprintln!("xtask serve-robustness: {e}");
        let _ = server.kill();
        return ExitCode::FAILURE;
    }
    println!("xtask serve-robustness: panicked handler worker replaced");

    // Leg 3: sustained overload enters brownout, then exits it.
    let socket = "target/smoke/serve-brownout.sock";
    let mut server = match spawn_server(
        bin,
        socket,
        &[
            // Overrides the base `--workers 2`: the later flag wins.
            "--workers",
            "1",
            "--queue-depth",
            "2",
            "--faults",
            "serve.request.read=delay(300)",
        ],
    ) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("xtask serve-robustness: {e}");
            return ExitCode::FAILURE;
        }
    };
    let leg = (|| -> Result<(), String> {
        // Concurrent clients behind one stalled handler; shed ones retry
        // with seeded jitter until served, exercising `--retries`.
        let clients: Vec<_> = (0..4)
            .map(|i| {
                let bin = bin.to_string();
                let socket = socket.to_string();
                std::thread::spawn(move || {
                    client_output(
                        &bin,
                        &[
                            "client",
                            "--socket",
                            &socket,
                            "--ping",
                            "--retries",
                            "5",
                            "--retry-seed",
                            &i.to_string(),
                        ],
                        &[],
                    )
                })
            })
            .collect();
        for client in clients {
            let _ = client
                .join()
                .map_err(|_| "overload client thread panicked".to_string())?;
        }
        let entered = poll_health_cli(bin, socket, "a brownout entry", |h| {
            h.get("brownout_entries")
                .and_then(|j| j.as_num())
                .unwrap_or(0.0)
                >= 1.0
        })?;
        if entered.get("shed").and_then(|j| j.as_num()).unwrap_or(0.0) < 1.0 {
            return Err(format!("overload never shed a connection: {entered:?}"));
        }
        let recovered = poll_health_cli(bin, socket, "the brownout exit", |h| {
            h.get("brownout").and_then(|j| j.as_bool()) == Some(false)
                && h.get("brownout_exits")
                    .and_then(|j| j.as_num())
                    .unwrap_or(0.0)
                    >= 1.0
        })?;
        drop(recovered);
        let drain = client_json(bin, &["client", "--socket", socket, "--shutdown"])?;
        if drain.get("draining").and_then(|j| j.as_bool()) != Some(true) {
            return Err(format!("shutdown did not acknowledge draining: {drain:?}"));
        }
        wait_for_exit(&mut server, socket, DRAIN_WAIT)
    })();
    if let Err(e) = leg {
        eprintln!("xtask serve-robustness: {e}");
        let _ = server.kill();
        return ExitCode::FAILURE;
    }
    println!("xtask serve-robustness: brownout entered under overload and exited after it");
    ExitCode::SUCCESS
}

/// Runs one `oasys client` invocation with extra environment variables,
/// returning its output without requiring success (chaos legs expect
/// some client invocations to fail by design).
fn client_output(
    bin: &str,
    args: &[&str],
    envs: &[(&str, &str)],
) -> Result<std::process::Output, String> {
    println!("$ {bin} {}", args.join(" "));
    let mut command = Command::new(bin);
    command.args(args);
    for (key, value) in envs {
        command.env(key, value);
    }
    command
        .output()
        .map_err(|e| format!("failed to spawn {bin}: {e}"))
}

/// Polls `oasys client --health` until `pass` holds, or errors after
/// 10 s of trying.
fn poll_health_cli(
    bin: &str,
    socket: &str,
    what: &str,
    pass: impl Fn(&oasys_telemetry::json::Json) -> bool,
) -> Result<oasys_telemetry::json::Json, String> {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let health = client_json(bin, &["client", "--socket", socket, "--health"])?;
        if pass(&health) {
            return Ok(health);
        }
        if std::time::Instant::now() >= deadline {
            return Err(format!("health never showed {what}: {health:?}"));
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
}

/// Starts `oasys serve` on `socket` and waits for the socket file.
fn spawn_server(bin: &str, socket: &str, extra: &[&str]) -> Result<std::process::Child, String> {
    spawn_server_logged(bin, socket, extra, Stdio::inherit())
}

/// [`spawn_server`] with the server's stderr sent to `stderr`.
fn spawn_server_logged(
    bin: &str,
    socket: &str,
    extra: &[&str],
    stderr: Stdio,
) -> Result<std::process::Child, String> {
    let _ = std::fs::remove_file(socket);
    let mut args = vec!["serve", "--socket", socket, "--workers", "2"];
    args.extend_from_slice(extra);
    println!("$ {bin} {}", args.join(" "));
    let mut server = Command::new(bin)
        .args(&args)
        .stderr(stderr)
        .spawn()
        .map_err(|e| format!("failed to spawn {bin}: {e}"))?;
    for _ in 0..200 {
        if std::path::Path::new(socket).exists() {
            return Ok(server);
        }
        if let Ok(Some(status)) = server.try_wait() {
            return Err(format!("server exited early with {status}"));
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let _ = server.kill();
    Err(format!("server never bound {socket}"))
}

/// Runs one `oasys client` invocation and parses its stdout as JSON.
fn client_json(bin: &str, args: &[&str]) -> Result<oasys_telemetry::json::Json, String> {
    println!("$ {bin} {}", args.join(" "));
    let output = Command::new(bin)
        .args(args)
        .output()
        .map_err(|e| format!("failed to spawn {bin}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "`{bin} {}` failed:\n{}{}",
            args.join(" "),
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    oasys_telemetry::json::parse(stdout.trim())
        .map_err(|e| format!("client response is not JSON: {e}\n{stdout}"))
}

/// How long a draining server may take to exit in the request legs.
const DRAIN_WAIT: std::time::Duration = std::time::Duration::from_secs(30);

/// Waits up to `within` for a draining server to exit zero and remove
/// its socket.
fn wait_for_exit(
    server: &mut std::process::Child,
    socket: &str,
    within: std::time::Duration,
) -> Result<(), String> {
    let started = std::time::Instant::now();
    loop {
        match server.try_wait() {
            Ok(Some(status)) if status.success() => {
                if std::path::Path::new(socket).exists() {
                    return Err(format!("server exited but left {socket} behind"));
                }
                return Ok(());
            }
            Ok(Some(status)) => return Err(format!("server exited with {status}")),
            Ok(None) if started.elapsed() < within => {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            Ok(None) => break,
            Err(e) => return Err(format!("waiting for server: {e}")),
        }
    }
    let _ = server.kill();
    Err(format!("server did not drain within {within:?}"))
}

/// Dataset smoke gate: generate the bundled sampled dataset manifest
/// (`data/dataset.manifest`, 1080 points) in two shards through the
/// real CLI, merge them, and run every merged record through the
/// `oasys-dataset/2` validator. Fails on any run error, a record count
/// that disagrees with the shard summaries, an id that is not dense in
/// order, or a schema violation — the executable form of `DATASET.md`.
fn smoke_dataset() -> ExitCode {
    let manifest = "data/dataset.manifest";
    if !std::path::Path::new(manifest).is_file() {
        eprintln!("xtask: {manifest} not found (run from the workspace root)");
        return ExitCode::FAILURE;
    }
    let out_dir = "target/smoke/dataset";
    let _ = std::fs::remove_dir_all(out_dir);

    for shard_index in ["0", "1"] {
        let args = [
            "run",
            "--release",
            "-q",
            "-p",
            "oasys",
            "--bin",
            "oasys",
            "--",
            "dataset",
            manifest,
            "--out",
            out_dir,
            "--shards",
            "2",
            "--shard-index",
            shard_index,
            "--no-verify",
        ];
        if !run("cargo", &args) {
            eprintln!("xtask smoke-dataset: shard {shard_index} failed");
            return ExitCode::FAILURE;
        }
    }
    let merge_args = [
        "run",
        "--release",
        "-q",
        "-p",
        "oasys",
        "--bin",
        "oasys",
        "--",
        "dataset",
        "merge",
        out_dir,
    ];
    if !run("cargo", &merge_args) {
        eprintln!("xtask smoke-dataset: merge failed");
        return ExitCode::FAILURE;
    }

    let records_path = format!("{out_dir}/dataset.jsonl");
    let text = match std::fs::read_to_string(&records_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("xtask smoke-dataset: {records_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let summary_path = format!("{out_dir}/dataset-summary.json");
    let expected = match std::fs::read_to_string(&summary_path)
        .map_err(|e| e.to_string())
        .and_then(|s| oasys_telemetry::json::parse(&s).map_err(|e| e.to_string()))
        .map(|s| s.get("records").and_then(|r| r.as_num()))
    {
        Ok(Some(records)) => records as usize,
        Ok(None) => {
            eprintln!("xtask smoke-dataset: {summary_path} has no \"records\" count");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("xtask smoke-dataset: {summary_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let lines: Vec<&str> = text.lines().collect();
    if lines.len() != expected {
        eprintln!(
            "xtask smoke-dataset: {records_path}: summary promises {expected} records, found {}",
            lines.len()
        );
        return ExitCode::FAILURE;
    }
    for (idx, line) in lines.iter().enumerate() {
        // Merged `oasys-dataset/2` lines are sealed: `<json>\t<fnv1a64>`.
        let Some(payload) = oasys::integrity::open_line(line) else {
            eprintln!(
                "xtask smoke-dataset: {records_path} line {}: checksum does not verify",
                idx + 1
            );
            return ExitCode::FAILURE;
        };
        let record = match oasys_telemetry::json::parse(payload) {
            Ok(record) => record,
            Err(e) => {
                eprintln!("xtask smoke-dataset: {records_path} line {}: {e}", idx + 1);
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = oasys::dataset::schema::validate_record(&record) {
            eprintln!("xtask smoke-dataset: {records_path} line {}: {e}", idx + 1);
            return ExitCode::FAILURE;
        }
        if record.get("id").and_then(|v| v.as_num()) != Some(idx as f64) {
            eprintln!(
                "xtask smoke-dataset: {records_path} line {}: ids must be dense and ordered",
                idx + 1
            );
            return ExitCode::FAILURE;
        }
    }
    println!(
        "xtask smoke-dataset: {} records merged from 2 shards, every record validates",
        lines.len()
    );
    ExitCode::SUCCESS
}

/// Docs gate: `cargo doc --no-deps` must be warning-free and every
/// doc-test must pass.
fn docs() -> ExitCode {
    println!("$ RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps");
    let rustdoc_ok = match Command::new("cargo")
        .args(["doc", "--workspace", "--no-deps", "-q"])
        .env("RUSTDOCFLAGS", "-D warnings")
        .status()
    {
        Ok(status) => status.success(),
        Err(e) => {
            eprintln!("xtask docs: failed to spawn cargo: {e}");
            false
        }
    };
    let doctests_ok = run("cargo", &["test", "--doc", "--workspace", "-q"]);
    if rustdoc_ok && doctests_ok {
        println!("xtask docs: rustdoc warning-free, doc-tests pass");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The committed benchmark report must keep satisfying the
/// `oasys-bench` schema — including the sequential-vs-parallel
/// style-search comparison rows and the engine cache-hit counter — so
/// regenerating it with a drifted bench binary fails the gauntlet.
fn bench_schema() -> ExitCode {
    let path = "BENCH_synthesis.json";
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("xtask bench-schema: {path}: {e} (run from the workspace root)");
            return ExitCode::FAILURE;
        }
    };
    match oasys_bench::summary::validate(&text) {
        Ok(summary) => {
            println!("xtask bench-schema: {path} ok ({summary})");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xtask bench-schema: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Reads `path` and runs `validate` over it, reporting the outcome.
fn validate_trace(
    path: &str,
    validate: impl Fn(&str) -> Result<String, schema::SchemaError>,
) -> bool {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("xtask smoke: {path}: {e}");
            return false;
        }
    };
    match validate(&text) {
        Ok(summary) => {
            println!("xtask smoke: {path} ok ({summary})");
            true
        }
        Err(e) => {
            eprintln!("xtask smoke: {path}: schema violation: {e}");
            false
        }
    }
}

fn run_oasys_lint(lint_args: &[&str]) -> bool {
    let mut args = vec![
        "run",
        "--release",
        "-q",
        "-p",
        "oasys",
        "--bin",
        "oasys",
        "--",
        "lint",
    ];
    args.extend_from_slice(lint_args);
    run("cargo", &args)
}

fn run(program: &str, args: &[&str]) -> bool {
    println!("$ {program} {}", args.join(" "));
    match Command::new(program).args(args).status() {
        Ok(status) => status.success(),
        Err(e) => {
            eprintln!("xtask: failed to spawn {program}: {e}");
            false
        }
    }
}
