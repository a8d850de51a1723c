//! `serve_closed_loop`: an in-process `Server` on a Unix socket, driven
//! through `serve::request` — the request/response form of synth +
//! verify with a resident design cache.
//!
//! Connection A sends verified `synth` requests back to back (closed
//! loop), drawn from a seeded list of feasible spec × tech texts in which
//! every second request repeats an earlier pair. New pairs alternate the
//! 5 µm and 3 µm kits and take their spec-A gain (55..60 dB) and load
//! (2..10 pF) from a seeded low-discrepancy sequence. That region stays
//! below the 3 µm folded-cascode answers (~6× dearer to verify), which
//! `dataset_verified` measures; above it, throughput swung with the seed
//! by how many of them a run drew.
//!
//! Connection B sends `health` probes on a fixed schedule. Each probe is
//! timed from when it was due, which isolates the fixed per-request cost
//! of framing, admission and the accept loop.

use crate::inputs::{kits, spec_a_text, Spread, WorkDir};
use crate::layers::{synth_layers, verify_layers, Tally};
use crate::report::Outcome;
use crate::stats::{due_ns, median, Probe, Ratio};
use crate::{elapsed_ns, timed, Run};
use oasys::batch::{fingerprint, DEFAULT_CACHE_ENTRIES};
use oasys::serve::{self, ServeOptions, ServeReport, Server};
use oasys::{synthesize_with_cache, verify_with, Datasheet, SearchOptions};
use oasys_plan::MemoCache;
use oasys_telemetry::json::{self, Json};
use oasys_telemetry::Telemetry;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Probe schedule period. Deliberately not a multiple of the server's
/// 10 ms accept poll, so probes sample every phase of it.
const PROBE_PERIOD: Duration = Duration::from_millis(13);
/// Server starts timed for `setup_s` (the last one stays up).
const SETUP_REPS: usize = 15;

/// The seeded request stream: indices into a growing list of distinct
/// spec × tech pairs; every second request repeats an earlier pair.
struct Pairs {
    specs: Spread,
    repeats: Spread,
    kits: [String; 2],
    requests: u64,
    distinct: Vec<(String, String)>,
}

impl Pairs {
    fn new(seed: u64) -> Self {
        let [(_, kit5), (_, kit3), _] = kits();
        Self {
            specs: Spread::new(seed, 0x5e7e),
            repeats: Spread::new(seed, 0x7e9e),
            kits: [kit5, kit3],
            requests: 0,
            distinct: Vec::new(),
        }
    }

    fn next(&mut self) -> usize {
        let request = self.requests;
        self.requests += 1;
        if request % 2 == 1 {
            let (at, _) = self.repeats.point(request / 2);
            return (at * self.distinct.len() as f64) as usize;
        }
        let k = self.distinct.len();
        let (x, y) = self.specs.point(k as u64);
        let text = spec_a_text(55.0 + 5.0 * x, 2.0 + 8.0 * y);
        self.distinct.push((text, self.kits[k % 2].clone()));
        k
    }
}

struct Live {
    flag: Arc<AtomicBool>,
    handle: JoinHandle<std::io::Result<ServeReport>>,
}

impl Live {
    fn stop(self) -> Result<ServeReport, String> {
        self.flag.store(true, Ordering::SeqCst);
        self.handle
            .join()
            .map_err(|_| "server thread panicked".to_owned())?
            .map_err(|e| format!("server: {e}"))
    }
}

/// Binds, starts and pings a server; returns it with the bind time and
/// the time until the first ping was answered.
fn start(options: &ServeOptions) -> Result<(Live, u64, u64), String> {
    let started = Instant::now();
    let (server, bind_ns) = timed(|| Server::bind(options.clone()));
    let server = server.map_err(|e| format!("bind: {e}"))?;
    let flag = server.shutdown_flag();
    let handle = std::thread::spawn(move || server.run());
    let live = Live { flag, handle };
    let pong = serve::request(options.socket(), &serve::op_request("ping"));
    let ready_ns = elapsed_ns(started);
    match pong {
        Ok(pong) if status(&pong).as_deref() == Some("ok") => Ok((live, bind_ns, ready_ns)),
        other => {
            let _ = live.stop();
            Err(format!("first ping failed: {other:?}"))
        }
    }
}

/// The `status` field of an answer.
fn status(answer: &str) -> Option<String> {
    let parsed = json::parse(answer).ok()?;
    parsed
        .get("status")
        .and_then(Json::as_str)
        .map(str::to_owned)
}

/// Runs the workload for `seconds`; `trace` adds the per-layer pass.
///
/// # Errors
///
/// When the server cannot start or stop.
pub fn run(run: &Run, trace: bool) -> Result<Outcome, String> {
    let dir = WorkDir::create("serve_closed_loop").map_err(|e| e.to_string())?;
    let socket = dir.path().join("s.sock");
    // Server workers and client connections are each at most nproc.
    let options = ServeOptions::new(&socket).with_workers(run.nproc.min(2));
    let mut out = Outcome::default();

    let mut setup = Vec::new();
    let mut bind = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = live.take() {
            Live::stop(previous)?;
        }
        let (server, bind_ns, ready_ns) = start(&options)?;
        bind.push(bind_ns as f64 / 1e6);
        setup.push(ready_ns as f64 / 1e9);
        live = Some(server);
    }
    let live = live.expect("SETUP_REPS > 0");

    let mut pairs = Pairs::new(run.seed);
    let mut answers: Vec<(usize, f64, std::io::Result<String>)> = Vec::new();
    let mut probes: Vec<(Probe, std::io::Result<String>)> = Vec::new();
    let mut answer_wall_ns = 0u64;
    let deadline = Instant::now() + run.seconds;
    std::thread::scope(|scope| {
        let socket: &Path = &socket;
        scope.spawn(|| {
            let origin = Instant::now();
            let health = serve::op_request("health");
            for i in 0u64.. {
                let due = due_ns(0, PROBE_PERIOD.as_nanos() as u64, i);
                let due_at = origin + Duration::from_nanos(due);
                if due_at >= deadline {
                    break;
                }
                if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent_ns = elapsed_ns(origin);
                let answer = serve::request(socket, &health);
                let done_ns = elapsed_ns(origin);
                let probe = Probe {
                    due_ns: due,
                    sent_ns,
                    done_ns,
                };
                probes.push((probe, answer));
            }
        });
        let origin = Instant::now();
        while answers.is_empty() || Instant::now() < deadline {
            let index = pairs.next();
            let (spec, tech) = &pairs.distinct[index];
            let body = serve::synth_request(spec, tech, None);
            let (answer, ns) = timed(|| serve::request(socket, &body));
            answers.push((index, ns as f64 / 1e6, answer));
        }
        answer_wall_ns = elapsed_ns(origin);
    });
    let (report, drain_ns) = timed(|| live.stop());
    let report = report?;

    // Correctness: every answer verified and not degraded, and a repeated
    // pair answered byte-identically.
    let mut first: Vec<Option<&str>> = vec![None; pairs.distinct.len()];
    let mut answer_ms = Vec::new();
    for (index, ms, answer) in &answers {
        let text = match answer {
            Ok(text) => text.as_str(),
            Err(e) => {
                out.mismatch(format!("synth request failed: {e}"));
                continue;
            }
        };
        let parsed = json::parse(text).ok();
        let field = |key: &str| parsed.as_ref().and_then(|j| j.get(key));
        if field("status").and_then(Json::as_str) != Some("ok")
            || field("meets_spec").and_then(Json::as_bool) != Some(true)
            || field("degraded").is_some()
        {
            let head: String = text.chars().take(160).collect();
            out.mismatch(format!("pair {index}: answer not verified ok: {head}"));
            continue;
        }
        match first[*index] {
            None => first[*index] = Some(text),
            Some(earlier) if earlier != text => {
                out.mismatch(format!(
                    "pair {index}: repeated request answered differently"
                ));
                continue;
            }
            Some(_) => {}
        }
        answer_ms.push(*ms);
    }
    let mut probe_ms = Vec::new();
    let mut lag_ms = Vec::new();
    let mut queued = Vec::new();
    for (probe, answer) in &probes {
        let queue = answer.as_ref().ok().and_then(|text| {
            let parsed = json::parse(text).ok()?;
            (parsed.get("status").and_then(Json::as_str) == Some("ok"))
                .then(|| parsed.get("queued").and_then(Json::as_num))
                .flatten()
        });
        let Some(queue) = queue else {
            out.mismatch(format!("health probe failed: {answer:?}"));
            continue;
        };
        queued.push(queue);
        probe_ms.push(probe.latency_ns() as f64 / 1e6);
        lag_ms.push(probe.lag_ns() as f64 / 1e6);
    }

    out.attempted = (answers.len() + probes.len()) as u64;
    let repeats = answers.len() - first.iter().filter(|f| f.is_some()).count();
    out.e2e("setup_s", median(&setup), "s", setup.len());
    out.e2e(
        "answers_per_s",
        answers.len() as f64 / (answer_wall_ns as f64 / 1e9),
        "1/s",
        answers.len(),
    );
    out.e2e_latency("answer", "ms", &answer_ms, 90.0);
    out.e2e_ratio(
        "repeat_fraction",
        Ratio::new(repeats as f64, answers.len() as f64),
        answers.len(),
    );
    out.e2e_latency("probe", "ms", &probe_ms, 90.0);
    out.e2e("probe_lag_p50_ms", median(&lag_ms), "ms", lag_ms.len());
    out.e2e(
        "probe_lag_max_ms",
        lag_ms.iter().copied().fold(0.0, f64::max),
        "ms",
        lag_ms.len(),
    );

    if trace {
        out.layer("serve.bind_ms", median(&bind), "ms", bind.len());
        out.layer("serve.drain_ms", drain_ns as f64 / 1e6, "ms", 1);
        out.layer_ratio(
            "serve.queued_mean",
            Ratio::new(queued.iter().sum(), queued.len() as f64),
            "count",
            queued.len(),
        );
        let lookups = report.cache_hits + report.cache_misses;
        out.layer_ratio(
            "serve.cache_hit_ratio",
            Ratio::new(report.cache_hits as f64, lookups as f64),
            "ratio",
            lookups as usize,
        );
        let counts = [
            ("serve.shed", report.shed),
            ("serve.degraded", report.degraded),
            ("serve.evicted", report.evicted),
            ("serve.brownout_entries", report.brownout_entries),
            ("serve.workers_replaced", report.workers_replaced),
        ];
        for (name, n) in counts {
            out.layer(name, n as f64, "count", answers.len());
        }

        // The server records no telemetry of its own, so the synth and
        // verify layers are attributed by replaying the answered request
        // sequence through the same public calls a handler makes, first
        // untraced, then with a `Telemetry::new()` per request.
        let sequence: Vec<usize> = answers.iter().map(|(index, ..)| *index).collect();
        let (untraced_ns, _) = replay(&pairs.distinct, &sequence, false)?;
        let (traced_ns, tally) = replay(&pairs.distinct, &sequence, true)?;
        synth_layers(&mut out, &tally);
        verify_layers(&mut out, &tally, traced_ns);
        let (specs, techs): (Vec<String>, Vec<String>) = pairs.distinct.iter().cloned().unzip();
        crate::parse_layers(&mut out, &specs, &techs);
        out.layer_ratio(
            "telemetry.overhead_ratio",
            Ratio::new(traced_ns as f64 / 1e9, untraced_ns as f64 / 1e9),
            "ratio",
            sequence.len(),
        );
    }
    Ok(out)
}

/// Runs `sequence` through parse → synthesize (shared resident cache) →
/// netlist → verify → datasheet, as a server handler does. Returns the
/// wall time spent in those calls and, when traced, their telemetry.
fn replay(
    distinct: &[(String, String)],
    sequence: &[usize],
    traced: bool,
) -> Result<(u64, Tally), String> {
    let cache = MemoCache::bounded(DEFAULT_CACHE_ENTRIES);
    let mut tally = Tally::default();
    let mut wall_ns = 0u64;
    for &index in sequence {
        let (spec_text, tech_text) = &distinct[index];
        let tel = if traced {
            Telemetry::new()
        } else {
            Telemetry::disabled()
        };
        let (verdict, ns) = timed(|| -> Result<bool, String> {
            let spec = oasys::specfile::parse(spec_text).map_err(|e| e.to_string())?;
            let process = oasys_process::techfile::parse(tech_text).map_err(|e| e.to_string())?;
            let search = SearchOptions::default()
                .with_cache_namespace(format!("{:016x}", fingerprint("", tech_text)));
            let synthesis = synthesize_with_cache(&spec, &process, &search, &tel, &cache)
                .map_err(|e| e.to_string())?;
            let design = synthesis.selected();
            std::hint::black_box(oasys_netlist::spice::to_spice(design.circuit(), &process));
            let verification = verify_with(design, &process, spec.load().farads(), &tel)
                .map_err(|e| e.to_string())?;
            let sheet = Datasheet::new(
                String::new(),
                &spec,
                design.predicted(),
                Some(&verification.measured),
            );
            Ok(sheet.all_measured_pass())
        });
        verdict?;
        wall_ns += ns;
        if traced {
            tally.absorb(&tel.report());
        }
    }
    Ok((wall_ns, tally))
}
