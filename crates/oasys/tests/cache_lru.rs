//! The shared bounded-LRU design cache must be a pure accelerator:
//! cross-request hits on identical sub-specs, strict isolation between
//! technology namespaces, and — above all — zero influence on results.

use oasys::batch::{JobRunner, Manifest, SynthRunner};
use oasys::spec::test_cases;
use oasys::{synthesize_with_cache, synthesize_with_options, OpAmpSpec, SearchOptions};
use oasys_faults::Deadline;
use oasys_netlist::spice;
use oasys_plan::MemoCache;
use oasys_process::{builtin, techfile, Process};
use oasys_telemetry::Telemetry;

/// A namespace per process: its technology text's fingerprint. (The
/// batch runner, which `oasys serve` answers through, numbers the
/// distinct texts it meets instead; see the collision test below.)
fn tech_namespace(process: &Process) -> String {
    format!(
        "{:016x}",
        oasys::batch::fingerprint("", &techfile::write(process))
    )
}

fn deck(spec: &OpAmpSpec, process: &Process, cache: &MemoCache) -> String {
    let search = SearchOptions::new().with_cache_namespace(tech_namespace(process));
    let synthesis =
        synthesize_with_cache(spec, process, &search, &Telemetry::disabled(), cache).unwrap();
    spice::to_spice(synthesis.selected().circuit(), process)
}

#[test]
fn identical_requests_hit_the_shared_cache() {
    let process = builtin::cmos_5um();
    let cache = MemoCache::bounded(512);
    let spec = test_cases::spec_a();

    let first = deck(&spec, &process, &cache);
    let warm_hits = cache.hits();
    let second = deck(&spec, &process, &cache);

    assert_eq!(first, second, "a cache hit must reproduce the cold result");
    assert!(
        cache.hits() > warm_hits,
        "the second identical request must be served partly from cache \
         (hits {} -> {})",
        warm_hits,
        cache.hits()
    );
}

#[test]
fn different_technologies_never_share_entries() {
    let cache = MemoCache::bounded(512);
    let spec = test_cases::spec_a();
    let five = builtin::cmos_5um();
    let three = builtin::cmos_3um();

    let deck_5um_cold = deck(&spec, &five, &cache);
    // Same spec on another process: every key lives under a different
    // namespace, so nothing from the 5 µm run may be served.
    let deck_3um = deck(&spec, &three, &cache);
    assert_ne!(deck_5um_cold, deck_3um, "distinct kits size differently");

    // And the 5 µm entries are still there, untouched by the 3 µm run.
    let deck_5um_warm = deck(&spec, &five, &cache);
    assert_eq!(deck_5um_cold, deck_5um_warm);
}

#[test]
fn results_identical_with_cache_on_off_and_under_eviction_pressure() {
    let process = builtin::cmos_5um();
    for spec in [
        test_cases::spec_a(),
        test_cases::spec_b(),
        test_cases::spec_c(),
    ] {
        // Cache off: a fresh per-run cache, the plain API's behavior.
        let baseline = {
            let synthesis = synthesize_with_options(
                &spec,
                &process,
                &SearchOptions::new(),
                &Telemetry::disabled(),
            )
            .unwrap();
            spice::to_spice(synthesis.selected().circuit(), &process)
        };

        // Cache on, shared and warm across repeated requests.
        let shared = MemoCache::bounded(512);
        let warm1 = deck(&spec, &process, &shared);
        let warm2 = deck(&spec, &process, &shared);

        // A pathologically small cache: constant eviction churn. The
        // answer must not move even when most lookups miss.
        let tiny = MemoCache::bounded(2);
        let churned = deck(&spec, &process, &tiny);

        assert_eq!(baseline, warm1, "{spec}: cache on/off must agree");
        assert_eq!(baseline, warm2, "{spec}: warm hits must agree");
        assert_eq!(
            baseline, churned,
            "{spec}: evictions must not change results"
        );
    }
}

#[test]
fn tiny_cache_reports_evictions() {
    let process = builtin::cmos_5um();
    let tiny = MemoCache::bounded(2);
    let _ = deck(&test_cases::spec_a(), &process, &tiny);
    assert!(tiny.len() <= 2, "capacity bound must hold");
    // Case A restarts plans enough to cache more than two designs.
    assert!(
        tiny.evictions() > 0,
        "a 2-entry cache under a full synthesis must evict"
    );
}

/// Runs the bundled 3×3 sweep (`data/sweep.manifest`) twice, without
/// verification, through one runner whose shared cache holds `entries`
/// designs. Returns the cache's hits, misses and evictions; the second
/// pass must answer as the first did.
fn sweep_twice(entries: usize) -> (u64, u64, u64) {
    let manifest = Manifest::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../data/sweep.manifest"
    ))
    .unwrap();
    let jobs = manifest.expand().unwrap();
    let runner = SynthRunner::new()
        .with_verify(false)
        .with_cache_entries(entries);
    let answers = || -> Vec<Option<(String, f64)>> {
        jobs.iter()
            .map(|job| {
                let answer = runner
                    .run(job, &Telemetry::disabled(), &Deadline::none())
                    .unwrap();
                answer
                    .selected()
                    .map(|(style, area)| (style.to_owned(), area))
            })
            .collect()
    };
    let first = answers();
    assert_eq!(first, answers(), "a warm pass must answer as the cold one");
    let cache = runner.cache();
    (cache.hits(), cache.misses(), cache.evictions())
}

#[test]
fn a_small_shared_cache_keeps_its_counts() {
    // Counted with the scan-based LRU that preceded the linked one: an
    // exact LRU evicts the same entries, so every count repeats.
    assert_eq!(sweep_twice(32), (18, 284, 238));
    assert_eq!(sweep_twice(64), (68, 234, 156));
}

/// Two technology texts whose 64-bit FNV-1a fingerprints collide: the
/// 5 µm kit with a faster NMOS, and the kit as shipped, each under a
/// comment line found by a birthday search.
fn colliding_texts() -> (String, String) {
    let kit = include_str!("../../../data/generic-5um.tech");
    let faster = kit.replacen("kprime_ua    = 24.999999999999996", "kprime_ua    = 30", 1);
    assert_ne!(faster, kit, "the NMOS k' line is where the search left it");
    (
        format!("{faster}# e4afc22516e8746b\n"),
        format!("{kit}# cbc4bd68fa8d9888\n"),
    )
}

#[test]
fn colliding_fingerprints_never_share_entries() {
    let (fast, slow) = colliding_texts();
    assert_eq!(oasys::batch::fingerprint("", &fast), 0x0248_dc3f_fcb5_caf4);
    assert_eq!(oasys::batch::fingerprint("", &slow), 0x0248_dc3f_fcb5_caf4);

    let answer = |runner: &SynthRunner, spec: &str, tech: &str| {
        let job = oasys::batch::Job::from_texts(0, "spec", spec, "tech", tech);
        runner
            .run(&job, &Telemetry::disabled(), &Deadline::none())
            .unwrap()
            .selected()
            .map(|(style, area)| (style.to_owned(), area))
    };
    let shared = SynthRunner::new().with_verify(false);
    for spec in [
        include_str!("../../../data/spec-a.txt"),
        include_str!("../../../data/spec-b.txt"),
        include_str!("../../../data/spec-c.txt"),
    ] {
        let fast_answer = answer(&shared, spec, &fast);
        let slow_after_fast = answer(&shared, spec, &slow);
        let slow_alone = answer(&SynthRunner::new().with_verify(false), spec, &slow);
        assert_eq!(
            slow_after_fast, slow_alone,
            "the slow kit must not reuse the fast kit's sub-blocks"
        );
        assert_ne!(fast_answer, slow_alone, "the two kits size differently");
    }
}
