//! End-to-end tests of the `oasys` command-line binary.

use std::process::Command;

fn repo_root() -> std::path::PathBuf {
    // crates/oasys → workspace root.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

#[test]
fn cli_synthesizes_the_example_spec() {
    let root = repo_root();
    let deck_path = std::env::temp_dir().join("oasys_cli_test_deck.sp");
    let output = Command::new(env!("CARGO_BIN_EXE_oasys"))
        .current_dir(&root)
        .args([
            "data/example-spec.txt",
            "data/generic-5um.tech",
            "--out",
            deck_path.to_str().unwrap(),
            "--no-verify",
        ])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("two-stage"), "{stdout}");
    assert!(stdout.contains("DC gain"));
    let deck = std::fs::read_to_string(&deck_path).unwrap();
    assert!(deck.contains(".MODEL MODN NMOS"));
    let _ = std::fs::remove_file(deck_path);
}

#[test]
fn cli_reports_missing_files() {
    let output = Command::new(env!("CARGO_BIN_EXE_oasys"))
        .args(["/nonexistent/spec.txt", "/nonexistent/tech.tech"])
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("nonexistent"));
}

#[test]
fn cli_reports_usage_without_args() {
    let output = Command::new(env!("CARGO_BIN_EXE_oasys"))
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("usage"));
}

#[test]
fn cli_rejects_unknown_flags() {
    let root = repo_root();
    let output = Command::new(env!("CARGO_BIN_EXE_oasys"))
        .current_dir(&root)
        .args([
            "data/example-spec.txt",
            "data/generic-5um.tech",
            "--frobnicate",
        ])
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("frobnicate"));
}

#[test]
fn cli_lint_plans_only_is_clean_json() {
    let output = Command::new(env!("CARGO_BIN_EXE_oasys"))
        .args(["lint", "--format", "json", "--deny-warnings"])
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&output.stdout), "[]\n");
}

#[test]
fn cli_lint_example_spec_passes_deny_warnings() {
    let root = repo_root();
    let output = Command::new(env!("CARGO_BIN_EXE_oasys"))
        .current_dir(&root)
        .args([
            "lint",
            "data/example-spec.txt",
            "data/generic-5um.tech",
            "--deny-warnings",
        ])
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(String::from_utf8_lossy(&output.stdout).contains("no diagnostics"));
}

#[test]
fn cli_lint_sarif_is_well_formed() {
    let output = Command::new(env!("CARGO_BIN_EXE_oasys"))
        .args(["lint", "--format", "sarif", "--deny-warnings"])
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    // The builtin plans are clean, so the log carries an empty results
    // array — but the envelope must still be a complete SARIF run.
    assert!(stdout.contains("\"version\":\"2.1.0\""), "{stdout}");
    assert!(stdout.contains("\"name\":\"oasys-lint\""), "{stdout}");
    assert!(stdout.contains("\"results\":[]"), "{stdout}");
    assert!(stdout.ends_with('\n'), "SARIF output is newline-terminated");
}

#[test]
fn cli_lint_rejects_bad_format() {
    let output = Command::new(env!("CARGO_BIN_EXE_oasys"))
        .args(["lint", "--format", "yaml"])
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("yaml"));
}

/// Flips one bit in the middle of line `line` (0-based) of `path`.
fn flip_line(path: &std::path::Path, line: usize) {
    let mut bytes = std::fs::read(path).unwrap();
    let text = String::from_utf8_lossy(&bytes).into_owned();
    let start: usize = text.split_inclusive('\n').take(line).map(str::len).sum();
    bytes[start + 10] ^= 0x01;
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn batch_and_dataset_report_a_repair_in_one_wording() {
    let root = repo_root();
    let dir = std::env::temp_dir().join(format!("oasys-cli-repair-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let run = |args: &[&str]| {
        let output = Command::new(env!("CARGO_BIN_EXE_oasys"))
            .current_dir(&root)
            .args(args)
            .output()
            .expect("binary runs");
        assert!(output.status.success(), "{args:?}: {output:?}");
        String::from_utf8_lossy(&output.stderr).into_owned()
    };
    let wording = "repaired — 1 line quarantined; the dropped work re-runs";

    let checkpoint = dir.join("sweep.ckpt").display().to_string();
    let aggregate = dir.join("sweep.json").display().to_string();
    let batch = [
        "batch",
        "data/sweep.manifest",
        "--no-verify",
        "--checkpoint",
        &checkpoint,
    ];
    let batch = [&batch[..], &["--aggregate", &aggregate]].concat();
    assert!(!run(&batch).contains("repaired"));
    flip_line(std::path::Path::new(&checkpoint), 4);
    let stderr = run(&batch);
    assert!(
        stderr.contains(&format!("checkpoint {checkpoint} {wording}")),
        "{stderr}"
    );

    let manifest = dir.join("two-points.manifest").display().to_string();
    let data = root.join("data").display().to_string();
    std::fs::write(
        &manifest,
        format!("spec = {data}/spec-b.txt\nspec = {data}/spec-c.txt\ntech = {data}/generic-1.2um.tech\n"),
    )
    .unwrap();
    let out = dir.join("dataset").display().to_string();
    let dataset = ["dataset", &manifest, "--out", &out, "--no-verify"];
    assert!(!run(&dataset).contains("repaired"));
    flip_line(&dir.join("dataset/shard-0-of-1.jsonl"), 1);
    let stderr = run(&dataset);
    assert!(stderr.contains(&format!("shard 0/1 {wording}")), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_refuses_a_socket_path_that_is_a_regular_file() {
    let dir = std::env::temp_dir().join(format!("oasys-cli-serve-file-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let notes = dir.join("notes.txt");
    std::fs::write(&notes, "not a socket").unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_oasys"))
        .args(["serve", "--socket", notes.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains(notes.to_str().unwrap()), "{stderr}");
    assert_eq!(std::fs::read_to_string(&notes).unwrap(), "not a socket");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `oasys client --timeout-ms 0` sends `"timeout_ms":0`, which a
/// server reads as no deadline, as `--timeout-ms 0` means for every
/// other mode.
#[test]
fn client_timeout_zero_means_no_deadline() {
    /// Kills the server if the test fails before it drains.
    struct Server(std::process::Child);
    impl Drop for Server {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
    let dir = std::env::temp_dir().join(format!("oasys-cli-timeout-0-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("s.sock");
    let socket = socket.to_str().unwrap();
    let mut server = Server(
        Command::new(env!("CARGO_BIN_EXE_oasys"))
            .args(["serve", "--socket", socket, "--workers", "1"])
            .spawn()
            .expect("binary runs"),
    );
    let started = std::time::Instant::now();
    while !std::path::Path::new(socket).exists() {
        assert!(started.elapsed() < std::time::Duration::from_secs(10));
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let client = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_oasys"))
            .current_dir(repo_root())
            .args(["client", "--socket", socket])
            .args(args)
            .output()
            .expect("binary runs")
    };
    let output = client(&[
        "--timeout-ms",
        "0",
        "data/spec-a.txt",
        "data/generic-5um.tech",
    ]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{stdout}");
    assert!(stdout.starts_with("{\"status\":\"ok\""), "{stdout}");
    assert!(client(&["--shutdown"]).status.success());
    assert!(server.0.wait().unwrap().success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A records file that cannot be written fails the command, naming the
/// path, instead of losing every record silently.
#[cfg(target_os = "linux")]
#[test]
fn batch_fails_when_its_records_cannot_be_written() {
    let output = Command::new(env!("CARGO_BIN_EXE_oasys"))
        .current_dir(repo_root())
        .args([
            "batch",
            "data/sweep.manifest",
            "--no-verify",
            "--records",
            "/dev/full",
        ])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "stderr: {stderr}");
    assert!(stderr.contains("oasys: /dev/full: "), "{stderr}");
}

/// `oasys dataset` over the sweep manifest (nominal corner only) must
/// answer each of its 9 spec × tech pairs exactly as `oasys batch`
/// does: a nominal point measures the tech file it was given.
#[test]
fn batch_and_dataset_agree_on_the_sweep() {
    use oasys_telemetry::json::{self, Json};

    let dir = std::env::temp_dir().join(format!("oasys-cli-agree-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let records = dir.join("batch.jsonl");
    let out = dir.join("ds");
    std::fs::create_dir_all(&dir).unwrap();
    let run = |args: &[&str]| {
        let output = Command::new(env!("CARGO_BIN_EXE_oasys"))
            .current_dir(repo_root())
            .args(args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "{args:?}: {stderr}");
    };
    let manifest = "data/sweep.manifest";
    run(&[
        "batch",
        manifest,
        "--workers",
        "1",
        "--records",
        records.to_str().unwrap(),
    ]);
    run(&[
        "dataset",
        manifest,
        "--workers",
        "1",
        "--out",
        out.to_str().unwrap(),
    ]);
    let batch: Vec<Json> = std::fs::read_to_string(&records)
        .unwrap()
        .lines()
        .map(|line| json::parse(line).unwrap())
        .collect();
    let dataset: Vec<Json> = std::fs::read_to_string(out.join("shard-0-of-1.jsonl"))
        .unwrap()
        .lines()
        .map(|line| json::parse(oasys::integrity::open_line(line).unwrap()).unwrap())
        .collect();
    assert_eq!((batch.len(), dataset.len()), (9, 9));

    let num = |j: &Json, key: &str| j.get(key).and_then(Json::as_num).unwrap();
    for b in &batch {
        let id = num(b, "job");
        let d = dataset.iter().find(|d| num(d, "id") == id).unwrap();
        let pair = format!("job {id}");
        let outcome = b.get("outcome").and_then(Json::as_str).unwrap();
        assert_eq!(
            Some(outcome),
            d.get("outcome").and_then(Json::as_str),
            "{pair}"
        );
        if outcome == "ok" {
            let ok = d.get("ok").unwrap();
            for key in ["style", "area_um2", "meets_spec"] {
                assert_eq!(b.get(key), ok.get(key), "{pair}: {key}");
            }
        }
        // Per-style areas and rejections, in search order.
        let styles = b.get("styles").and_then(Json::as_arr).unwrap();
        let trace = d.get("trace").and_then(Json::as_arr).unwrap();
        assert_eq!(styles.len(), trace.len(), "{pair}");
        for (s, t) in styles.iter().zip(trace) {
            assert_eq!(s.get("style"), t.get("style"), "{pair}");
            assert_eq!(s.get("area_um2"), t.get("area_um2"), "{pair}");
            assert_eq!(s.get("reason"), t.get("rejected"), "{pair}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
