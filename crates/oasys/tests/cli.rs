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
