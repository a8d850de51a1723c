//! Per-layer metrics from the spans and counters the program already
//! emits into a `Telemetry::new()` handle, plus the fixed list of
//! per-layer names every traced run reports.

use crate::report::Outcome;
use crate::stats::{self_time_ns, Ratio};
use oasys_telemetry::RunReport;
use std::collections::BTreeMap;

/// Every per-layer metric a traced run prints, with its unit. A layer a
/// workload does not exercise reads 0 there (e.g. every `sim.*` on
/// `synth_sweep`).
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("synth.us_per_verdict", "us"),
    ("blocks.us_per_verdict", "us"),
    ("netlist.assemble_us_per_verdict", "us"),
    ("style.attempts_per_verdict", "count/verdict"),
    ("style.feasible_ratio", "ratio"),
    ("engine.pruned_ratio", "ratio"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.cache_evictions", "count"),
    ("plan.steps_per_verdict", "count/verdict"),
    ("plan.rule_firings_per_verdict", "count/verdict"),
    ("plan.restarts_per_verdict", "count/verdict"),
    ("plan.step_failure_ratio", "ratio"),
    ("parse.spec_us", "us"),
    ("parse.tech_us", "us"),
    ("verify.ms_per_answer", "ms"),
    ("verify.share", "ratio"),
    ("verify.erc_ms", "ms"),
    ("verify.offset_null_ms", "ms"),
    ("verify.dc_ms", "ms"),
    ("verify.ac_ms", "ms"),
    ("verify.swing_ms", "ms"),
    ("verify.slew_ms", "ms"),
    ("verify.cmrr_ms", "ms"),
    ("verify.noise_ms", "ms"),
    ("verify.psrr_ms", "ms"),
    ("sim.dc.traced_solves_per_verify", "count/verify"),
    ("sim.dc.newton_iterations_per_verify", "count/verify"),
    ("sim.dc.failures", "count"),
    ("sim.ac.points_per_verify", "count/verify"),
    ("sim.tran.runs_per_verify", "count/verify"),
    ("sim.tran.steps_per_verify", "count/verify"),
    ("batch.busy_share", "ratio"),
    ("batch.jobs_failed", "count"),
    ("batch.jobs_retried", "count"),
    ("batch.jobs_stuck", "count"),
    ("batch.checkpoint_open_ms", "ms"),
    ("batch.checkpoint_bytes_per_job", "B"),
    ("dataset.plan_expand_ms", "ms"),
    ("dataset.record_bytes", "B"),
    ("dataset.cache_hit_ratio", "ratio"),
    ("dataset.non_verify_ms_per_record", "ms"),
    ("serve.bind_ms", "ms"),
    ("serve.drain_ms", "ms"),
    ("serve.queued_mean", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.shed", "count"),
    ("serve.degraded", "count"),
    ("serve.evicted", "count"),
    ("serve.brownout_entries", "count"),
    ("serve.workers_replaced", "count"),
    ("telemetry.overhead_ratio", "ratio"),
    ("telemetry.events_dropped", "count"),
];

/// The unit a per-layer metric is declared with.
#[cfg(test)]
fn unit_of(name: &str) -> &'static str {
    LAYER_METRICS
        .iter()
        .find(|(n, _)| *n == name)
        .map_or_else(|| panic!("undeclared per-layer metric {name}"), |(_, u)| u)
}

/// `verify:<phase>` span → metric name, in the order `verify_with` runs
/// them.
const PHASES: [(&str, &str); 9] = [
    ("verify:erc", "verify.erc_ms"),
    ("verify:offset-null", "verify.offset_null_ms"),
    ("verify:dc", "verify.dc_ms"),
    ("verify:ac", "verify.ac_ms"),
    ("verify:swing", "verify.swing_ms"),
    ("verify:slew", "verify.slew_ms"),
    ("verify:cmrr", "verify.cmrr_ms"),
    ("verify:noise", "verify.noise_ms"),
    ("verify:psrr", "verify.psrr_ms"),
];

/// Counters and span totals summed over any number of run reports.
///
/// Span counts and totals come from the per-span-name histograms, which
/// stay exact when a ring wraps. Phase self times need the span tree, so
/// they are averaged over the `verify` subtrees that survived whole.
#[derive(Debug, Default)]
pub struct Tally {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, (u64, u64)>,
    phase_self_ns: BTreeMap<String, u64>,
    verify_trees: u64,
    dropped: u64,
}

impl Tally {
    /// Adds one recording's counters, span totals and verify trees.
    pub fn absorb(&mut self, report: &RunReport) {
        for (name, n) in report.metrics().counters() {
            *self.counters.entry(name.to_owned()).or_default() += n;
        }
        for (name, hist) in report.metrics().histograms() {
            let entry = self.hists.entry(name.to_owned()).or_default();
            entry.0 += hist.count();
            entry.1 += hist.sum();
        }
        self.dropped += report.events_dropped();

        let spans = report.spans();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, span) in spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                children[parent].push(i);
            }
        }
        let interval = |i: usize| spans[i].end_ns.map(|end| (spans[i].start_ns, end));
        for (root, span) in spans.iter().enumerate() {
            if span.name != "verify" || span.end_ns.is_none() {
                continue;
            }
            self.verify_trees += 1;
            for &phase in &children[root] {
                let Some(bounds) = interval(phase) else {
                    continue;
                };
                let kids: Vec<(u64, u64)> = children[phase]
                    .iter()
                    .filter_map(|&k| interval(k))
                    .collect();
                *self
                    .phase_self_ns
                    .entry(spans[phase].name.clone())
                    .or_default() += self_time_ns(bounds, &kids);
            }
        }
    }

    /// A counter's total.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// `(count, sum)` of the histogram called `name`.
    #[must_use]
    pub fn hist(&self, name: &str) -> (u64, u64) {
        self.hists.get(name).copied().unwrap_or((0, 0))
    }

    /// `(count, total ns)` of the spans called `name`.
    #[must_use]
    pub fn span(&self, name: &str) -> (u64, u64) {
        self.hist(&format!("span:{name}"))
    }

    /// Total ns of every span whose name starts with `prefix`.
    #[must_use]
    pub fn span_prefix_ns(&self, prefix: &str) -> u64 {
        let prefix = format!("span:{prefix}");
        self.hists
            .iter()
            .filter(|(name, _)| name.starts_with(&prefix))
            .map(|(_, (_, ns))| ns)
            .sum()
    }

    /// Records the ring lost before these reports were taken.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Adds the synthesis-side layers (`synth`, `blocks`, `netlist`,
/// `style`, `engine`, `plan`) and the batch counters.
pub fn synth_layers(out: &mut Outcome, t: &Tally) {
    let (verdicts, synth_ns) = t.span("synthesize");
    let n = verdicts as usize;
    let per_verdict = |x: f64| Ratio::new(x, verdicts as f64);
    let us = |ns: u64| ns as f64 / 1e3;
    out.layer_ratio("synth.us_per_verdict", per_verdict(us(synth_ns)), "us", n);
    out.layer_ratio(
        "blocks.us_per_verdict",
        per_verdict(us(t.span_prefix_ns("block:"))),
        "us",
        n,
    );
    out.layer_ratio(
        "netlist.assemble_us_per_verdict",
        per_verdict(us(t.span("assemble-netlist").1)),
        "us",
        n,
    );
    let attempted = t.counter("synth.styles_attempted") as f64;
    let c = |name: &str| t.counter(name) as f64;
    out.layer_ratio(
        "style.attempts_per_verdict",
        per_verdict(attempted),
        "count/verdict",
        n,
    );
    out.layer_ratio(
        "style.feasible_ratio",
        Ratio::new(c("synth.styles_feasible"), attempted),
        "ratio",
        n,
    );
    out.layer_ratio(
        "engine.pruned_ratio",
        Ratio::new(c("engine.pruned"), attempted),
        "ratio",
        n,
    );
    let lookups = c("engine.cache_hits") + c("engine.cache_misses");
    out.layer_ratio(
        "engine.cache_hit_ratio",
        Ratio::new(c("engine.cache_hits"), lookups),
        "ratio",
        lookups as usize,
    );
    out.layer(
        "engine.cache_evictions",
        c("engine.cache_evictions"),
        "count",
        n,
    );
    let steps = c("plan.step_executions");
    out.layer_ratio(
        "plan.steps_per_verdict",
        per_verdict(steps),
        "count/verdict",
        n,
    );
    out.layer_ratio(
        "plan.rule_firings_per_verdict",
        per_verdict(c("plan.rule_firings")),
        "count/verdict",
        n,
    );
    out.layer_ratio(
        "plan.restarts_per_verdict",
        per_verdict(c("plan.restarts")),
        "count/verdict",
        n,
    );
    out.layer_ratio(
        "plan.step_failure_ratio",
        Ratio::new(c("plan.step_failures"), steps),
        "ratio",
        steps as usize,
    );
    for name in [
        "batch.jobs_failed",
        "batch.jobs_retried",
        "batch.jobs_stuck",
    ] {
        out.layer(name, c(name), "count", n);
    }
    out.layer("telemetry.events_dropped", t.dropped() as f64, "count", n);
}

/// Adds the `verify` and `sim` layers. `answer_wall_ns` is the traced
/// wall time of the work that produced the answers (the base of
/// `verify.share`).
pub fn verify_layers(out: &mut Outcome, t: &Tally, answer_wall_ns: u64) {
    let (verifies, verify_ns) = t.span("verify");
    let n = verifies as usize;
    out.layer_ratio(
        "verify.ms_per_answer",
        Ratio::new(verify_ns as f64 / 1e6, verifies as f64),
        "ms",
        n,
    );
    out.layer_ratio(
        "verify.share",
        Ratio::new(verify_ns as f64 / 1e9, answer_wall_ns as f64 / 1e9),
        "ratio",
        n,
    );
    for (span, metric) in PHASES {
        let self_ns = t.phase_self_ns.get(span).copied().unwrap_or(0);
        out.layer_ratio(
            metric,
            Ratio::new(self_ns as f64 / 1e6, t.verify_trees as f64),
            "ms",
            t.verify_trees as usize,
        );
    }
    let per_verify = |name: &str| Ratio::new(t.counter(name) as f64, verifies as f64);
    let counts = [
        ("sim.dc.traced_solves_per_verify", "sim.dc.solves"),
        (
            "sim.dc.newton_iterations_per_verify",
            "sim.dc.newton_iterations",
        ),
        ("sim.ac.points_per_verify", "sim.ac.points"),
        ("sim.tran.runs_per_verify", "sim.tran.runs"),
        ("sim.tran.steps_per_verify", "sim.tran.steps"),
    ];
    for (metric, counter) in counts {
        out.layer_ratio(metric, per_verify(counter), "count/verify", n);
    }
    out.layer(
        "sim.dc.failures",
        t.counter("sim.dc.failures") as f64,
        "count",
        n,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasys_telemetry::{ManualClock, Telemetry};
    use std::rc::Rc;

    #[test]
    fn phase_self_time_excludes_traced_simulation() {
        let clock = Rc::new(ManualClock::new());
        let tel = Telemetry::with_clock(clock.clone());
        {
            let _verify = tel.span(|| "verify".into());
            {
                let _dc = tel.span(|| "verify:dc".into());
                clock.advance_ns(1_000);
                {
                    let _sim = tel.span(|| "sim:dc".into());
                    clock.advance_ns(3_000);
                    tel.incr("sim.dc.solves");
                }
            }
            {
                let _swing = tel.span(|| "verify:swing".into());
                clock.advance_ns(5_000);
            }
        }
        let mut tally = Tally::default();
        tally.absorb(&tel.report());
        assert_eq!(tally.span("verify"), (1, 9_000));
        assert_eq!(tally.phase_self_ns["verify:dc"], 1_000);
        assert_eq!(tally.phase_self_ns["verify:swing"], 5_000);

        let mut out = Outcome::default();
        verify_layers(&mut out, &tally, 18_000);
        let get = |name: &str| out.layers.iter().find(|m| m.name == name).unwrap();
        assert_eq!(get("verify.share").value, 0.5);
        assert_eq!(get("verify.dc_ms").value, 0.001);
        assert_eq!(get("sim.dc.traced_solves_per_verify").value, 1.0);
        assert_eq!(get("verify.ac_ms").value, 0.0);
    }

    #[test]
    fn every_reported_layer_is_declared() {
        let mut out = Outcome::default();
        let tally = Tally::default();
        synth_layers(&mut out, &tally);
        verify_layers(&mut out, &tally, 0);
        for m in &out.layers {
            assert_eq!(unit_of(&m.name), m.unit, "{}", m.name);
        }
    }
}
