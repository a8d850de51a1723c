//! The telemetry vocabulary, pinned: every span name, event kind, field
//! key and annotation key two traced runs record, every counter with
//! its value and every histogram with its observation count.
//!
//! Exporters resolve names back to text, so a renamed counter or a
//! misspelt annotation key changes every trace, batch record and bench
//! rollup that reads it, while the pipeline's own tests still pass.
//! This fixture catches that: a refactor of how names are interned must
//! leave it byte-for-byte unchanged.
//!
//! Both runs record under a [`ManualClock`], so the fixture holds only
//! what the code recorded, never when:
//!
//! * a case-A `synthesize_with` + `verify_with` on the 5 µm kit;
//! * a one-worker `Batch` over `data/sweep.manifest` with verification
//!   off.
//!
//! Regenerate with `OASYS_BLESS=1 cargo test -p oasys-suite --test
//! telemetry_vocabulary`, and only for an intended change of vocabulary.

use oasys::batch::{Batch, BatchOptions, Manifest, SynthRunner};
use oasys::spec::test_cases;
use oasys::{synthesize_with, verify_with};
use oasys_process::builtin;
use oasys_telemetry::{ManualClock, RunReport, Telemetry};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;

fn traced() -> Telemetry {
    Telemetry::with_clock(Rc::new(ManualClock::new()))
}

/// A traced case-A synthesis and verification of its selected design.
fn synth_and_verify() -> RunReport {
    let process = builtin::cmos_5um();
    let spec = test_cases::spec_a();
    let tel = traced();
    let result = synthesize_with(&spec, &process, &tel).expect("case A synthesizes");
    verify_with(result.selected(), &process, spec.load().farads(), &tel).expect("case A verifies");
    tel.report()
}

/// A traced one-worker batch over the bundled 3×3 sweep, unverified.
fn sweep_batch() -> RunReport {
    let manifest = Manifest::load(concat!(env!("CARGO_MANIFEST_DIR"), "/data/sweep.manifest"))
        .expect("sweep manifest loads");
    let jobs = manifest.expand().expect("sweep manifest expands");
    let tel = traced();
    let runner = Arc::new(SynthRunner::new().with_verify(false));
    let options = BatchOptions::default().with_workers(1).with_verify(false);
    let report = Batch::new(jobs, options)
        .run(&runner, &tel, |_| {})
        .expect("sweep runs");
    assert_eq!(report.counts().failed, 0);
    tel.report()
}

/// One run's vocabulary, one sorted section per kind of name.
fn render(title: &str, report: &RunReport) -> String {
    let spans: BTreeSet<&str> = report.spans().iter().map(|s| s.name.as_str()).collect();
    let annotations: BTreeSet<&str> = report
        .spans()
        .iter()
        .flat_map(|s| s.attrs.iter().map(|(key, _)| key.as_str()))
        .collect();
    let kinds: BTreeSet<&str> = report.events().iter().map(|e| e.kind.as_str()).collect();
    let fields: BTreeSet<&str> = report
        .events()
        .iter()
        .flat_map(|e| e.fields.iter().map(|(key, _)| key.as_str()))
        .collect();
    let mut out = format!("# {title}\n");
    writeln!(out, "events_dropped {}", report.events_dropped()).unwrap();
    for (section, names) in [
        ("span", &spans),
        ("annotation", &annotations),
        ("event", &kinds),
        ("field", &fields),
    ] {
        for name in names {
            writeln!(out, "{section} {name}").unwrap();
        }
    }
    for (name, value) in report.metrics().counters() {
        writeln!(out, "counter {name} {value}").unwrap();
    }
    for (name, hist) in report.metrics().histograms() {
        writeln!(out, "histogram {name} {}", hist.count()).unwrap();
    }
    out
}

#[test]
fn telemetry_vocabulary_matches_golden() {
    let rendered = format!(
        "{}\n{}",
        render(
            "case A synthesis and verification, 5 um",
            &synth_and_verify()
        ),
        render("sweep batch, one worker, unverified", &sweep_batch()),
    );
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/telemetry_vocabulary.txt");
    if std::env::var_os("OASYS_BLESS").is_some() {
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with OASYS_BLESS=1 to create it",
            path.display()
        )
    });
    let only_in = |a: &str, b: &str| -> Vec<String> {
        let b: BTreeSet<&str> = b.lines().collect();
        a.lines()
            .filter(|l| !b.contains(l))
            .map(str::to_owned)
            .collect()
    };
    let (missing, extra) = (only_in(&golden, &rendered), only_in(&rendered, &golden));
    assert!(
        rendered == golden,
        "telemetry vocabulary changed\n  golden lines not recorded: {missing:?}\n  \
         recorded lines not in golden: {extra:?}"
    );
}
