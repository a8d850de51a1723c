//! Synthesis-time benchmarks — the paper's "usually under 2 minutes of
//! CPU time per op amp" claim (on a VAX 11/785 running Franz LISP).
//! The reproduction synthesizes each case in well under a millisecond.

use oasys::spec::test_cases;
use oasys::{synthesize, synthesize_with, synthesize_with_options, OpAmpStyle, SearchOptions};
use oasys_bench::harness::Bencher;
use oasys_bench::summary;
use oasys_process::builtin;
use oasys_telemetry::Telemetry;
use std::hint::black_box;

fn main() {
    let process = builtin::cmos_5um();
    let mut b = Bencher::new();
    // case_a runs paired with its instrumented twin: the schema gates on
    // the ratio of the two medians (summary::MAX_TELEMETRY_OVERHEAD_RATIO),
    // and interleaved batches keep machine drift out of that ratio.
    {
        let spec = test_cases::spec_a();
        b.bench_pair(
            "synthesize/case_a",
            || synthesize(black_box(&spec), black_box(&process)).unwrap(),
            "synthesize/case_a_telemetry",
            || {
                let tel = Telemetry::new();
                synthesize_with(black_box(&spec), black_box(&process), &tel).unwrap()
            },
        );
    }
    for (label, spec) in [
        ("synthesize/case_b", test_cases::spec_b()),
        ("synthesize/case_c", test_cases::spec_c()),
    ] {
        b.bench(label, || {
            synthesize(black_box(&spec), black_box(&process)).unwrap()
        });
    }

    // Static feasibility pruning: 139.5 dB exceeds every style's gain
    // ceiling on the 1.2 µm kit, so the sweep answers "infeasible"
    // without executing a single plan step. The delta against
    // `synthesize/case_a` is the cost of a statically pruned answer
    // (summary::REQUIRED_ROWS keeps the row visible).
    {
        let pruned_spec = test_cases::spec_a().with_dc_gain_db(139.5);
        let small_process = builtin::cmos_1p2um();
        let search = SearchOptions::new();
        let tel = Telemetry::disabled();
        b.bench("style_search/case_a_pruned", || {
            synthesize_with_options(
                black_box(&pruned_spec),
                black_box(&small_process),
                &search,
                &tel,
            )
            .unwrap_err()
        });
    }

    // Batch throughput: the bundled 3×3 sweep (specs A/B/C × all three
    // process kits) through the batch driver, verification off — the
    // sweep-throughput row the report schema requires
    // (summary::REQUIRED_ROWS), so driver overhead on top of the raw
    // synthesis rows above stays visible run over run.
    {
        use oasys::batch::{Batch, BatchOptions, Job, SynthRunner};
        let specs = [
            ("spec-a", include_str!("../../../data/spec-a.txt")),
            ("spec-b", include_str!("../../../data/spec-b.txt")),
            ("spec-c", include_str!("../../../data/spec-c.txt")),
        ];
        let techs: Vec<(String, String)> = builtin::all()
            .iter()
            .map(|p| (p.name().to_owned(), oasys_process::techfile::write(p)))
            .collect();
        let make_jobs = || -> Vec<Job> {
            specs
                .iter()
                .flat_map(|(spec_label, spec_text)| {
                    techs.iter().map(move |(tech_label, tech_text)| {
                        (spec_label, spec_text, tech_label, tech_text)
                    })
                })
                .enumerate()
                .map(|(id, (spec_label, spec_text, tech_label, tech_text))| {
                    Job::from_texts(
                        id,
                        *spec_label,
                        *spec_text,
                        tech_label.as_str(),
                        tech_text.as_str(),
                    )
                })
                .collect()
        };
        // A fresh runner per iteration so every batch pays the full
        // cold-cache cost, like a new `oasys batch` process would.
        let run_sweep = || {
            let runner = std::sync::Arc::new(SynthRunner::new().with_verify(false));
            let tel = Telemetry::disabled();
            Batch::new(
                black_box(make_jobs()),
                BatchOptions::default().with_verify(false),
            )
            .run(&runner, &tel, |_| {})
            .unwrap()
        };
        // The checksum-overhead comparison pair: the same sweep writing
        // an FNV-1a-sealed checkpoint line per job. The schema gates on
        // the ratio of the two medians (summary::MAX_CHECKSUM_OVERHEAD_RATIO
        // — integrity must cost ≤5%), and interleaved batches keep
        // machine drift out of that ratio. A fresh checkpoint path per
        // iteration: an existing checkpoint would skip every job.
        let checkpoint_dir =
            std::env::temp_dir().join(format!("oasys-bench-checkpoint-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&checkpoint_dir);
        std::fs::create_dir_all(&checkpoint_dir).expect("bench checkpoint dir");
        let mut checkpoint_iteration = 0u64;
        b.bench_pair(
            "batch/sweep_3x3",
            run_sweep,
            "batch/sweep_3x3_checksum",
            || {
                checkpoint_iteration += 1;
                let path = checkpoint_dir.join(format!("{checkpoint_iteration}.checkpoint"));
                let runner = std::sync::Arc::new(SynthRunner::new().with_verify(false));
                let tel = Telemetry::disabled();
                Batch::new(
                    black_box(make_jobs()),
                    BatchOptions::default().with_verify(false),
                )
                .with_checkpoint(&path)
                .expect("bench checkpoint opens")
                .run(&runner, &tel, |_| {})
                .unwrap()
            },
        );
        let _ = std::fs::remove_dir_all(&checkpoint_dir);

        // The same sweep with the fault plane armed on an inert site:
        // every `fail_point!` in the hot paths now pays the armed-path
        // registry lookup instead of the relaxed-load fast path. The
        // delta against `batch/sweep_3x3` is the true cost of carrying
        // `oasys-faults` through newton, plan execution, and the style
        // engine — the schema keeps both rows so it stays ~0.
        oasys_faults::set("bench.inert", oasys_faults::FaultSpec::Delay(0));
        assert!(oasys_faults::armed());
        b.bench("batch/sweep_3x3_chaos", run_sweep);
        oasys_faults::clear();
    }

    // Dataset shard throughput: a 12-point sampled sweep (6 spec draws
    // × slow/typ corners) generated end-to-end — plan expansion, batch
    // execution, record rendering, and the per-record flushed JSONL
    // sink — into a fresh directory per iteration. The required row
    // (summary::REQUIRED_ROWS) keeps records/s visible run over run;
    // divide 12 by the median to reproduce the EXPERIMENTS.md figure.
    {
        use oasys::batch::{BatchOptions, Manifest};
        use oasys::dataset::{self, DatasetOptions};
        let data = concat!(env!("CARGO_MANIFEST_DIR"), "/../../data");
        let manifest = Manifest::parse(&format!(
            "spec = {data}/spec-a.txt\ntech = {data}/generic-5um.tech\n\
             sample.count = 6\nsample.dc_gain_db = 55..68\ncorners = slow,typ\n"
        ))
        .expect("bench manifest parses");
        let options = DatasetOptions {
            shards: 1,
            shard_index: 0,
            batch: BatchOptions::default().with_verify(false),
        };
        let tel = Telemetry::disabled();
        let base = std::env::temp_dir().join(format!("oasys-bench-dataset-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let mut iteration = 0u64;
        b.bench("dataset/shard_throughput", || {
            // A fresh directory per iteration: a published shard would
            // short-circuit, and the bench must pay the full cost.
            iteration += 1;
            let dir = base.join(iteration.to_string());
            let report = dataset::generate(black_box(&manifest), &dir, &options, &tel)
                .expect("bench shard generates");
            let _ = std::fs::remove_dir_all(&dir);
            report.records
        });
        let _ = std::fs::remove_dir_all(&base);
    }

    // Overload-shed latency: the client-observed round trip of a `busy`
    // frame from a saturated server — the one handler held by one
    // stalled connection, the one-deep queue filled by another — so the
    // cost of being turned away under overload stays visible
    // (summary::REQUIRED_ROWS keeps the row in the report).
    {
        use oasys::serve::{op_request, request, ServeOptions, Server};
        let socket =
            std::env::temp_dir().join(format!("oasys-bench-shed-{}.sock", std::process::id()));
        let server = Server::bind(
            ServeOptions::new(&socket)
                .with_workers(1)
                .with_queue_depth(1)
                .with_cache_entries(16)
                // Far past the bench window: the saturating connections
                // must never be evicted or stale-shed mid-measurement.
                .with_io_timeout(std::time::Duration::from_secs(300)),
        )
        .expect("bench server binds");
        let shutdown = server.shutdown_flag();
        let runner = std::thread::spawn(move || server.run().expect("bench server drains"));
        // Saturate in two steps so the first connection is dispatched
        // (holding the only handler) before the second arrives
        // to fill the queue; from then on every connect is shed.
        let hold_inflight =
            std::os::unix::net::UnixStream::connect(&socket).expect("saturating connect");
        std::thread::sleep(std::time::Duration::from_millis(100));
        let hold_queue =
            std::os::unix::net::UnixStream::connect(&socket).expect("saturating connect");
        std::thread::sleep(std::time::Duration::from_millis(100));
        let first = request(&socket, &op_request("ping")).expect("shed round trip");
        assert!(
            first.contains("\"busy\""),
            "saturated server must shed: {first}"
        );
        b.bench("serve/shed_latency", || {
            request(&socket, &op_request("ping")).expect("shed round trip")
        });
        drop(hold_inflight);
        drop(hold_queue);
        shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
        runner.join().expect("bench server thread");
    }

    let spec = test_cases::spec_a().with_dc_gain_db(80.0);
    b.bench("figure7/two_stage_80db", || {
        oasys::styles::design(
            OpAmpStyle::TwoStage,
            black_box(&spec),
            black_box(&process),
            &Telemetry::disabled(),
        )
        .unwrap()
    });

    let comp_spec = oasys::comparator::ComparatorSpec::builder()
        .resolution_mv(5.0)
        .decision_time_us(2.0)
        .load_pf(1.0)
        .build()
        .unwrap();
    b.bench("extensions/comparator", || {
        oasys::comparator::design_comparator(black_box(&comp_spec), black_box(&process)).unwrap()
    });
    let fd_spec = oasys::fully_differential::FdSpec::builder()
        .diff_gain_db(45.0)
        .unity_gain_mhz(1.0)
        .load_pf_per_side(2.0)
        .build()
        .unwrap();
    b.bench("extensions/fully_differential", || {
        oasys::fully_differential::design_fully_differential(
            black_box(&fd_spec),
            black_box(&process),
        )
        .unwrap()
    });

    // One instrumented run per paper case for the machine-readable
    // report: span rollup and counters ride along with the timing rows.
    let tel = Telemetry::new();
    for case_spec in [
        test_cases::spec_a(),
        test_cases::spec_b(),
        test_cases::spec_c(),
    ] {
        synthesize_with(&case_spec, &process, &tel).unwrap();
    }
    // One statically pruned sweep rides along so the `engine.pruned`
    // counter the schema requires is live in the report.
    synthesize_with_options(
        &test_cases::spec_a().with_dc_gain_db(139.5),
        &builtin::cmos_1p2um(),
        &SearchOptions::new(),
        &tel,
    )
    .unwrap_err();
    let report_json = summary::render(&b.rows(), &tel.report());
    // The table prints first, so a run that trips a ceiling still shows
    // every row it measured; an invalid report is never written.
    b.finish();
    summary::validate(&report_json).expect("emitted report satisfies the bench schema");
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_synthesis.json");
    match std::fs::write(out_path, report_json) {
        Ok(()) => println!("report written to {out_path}"),
        Err(e) => eprintln!("could not write {out_path}: {e}"),
    }
}
