//! The dataset [`JobRunner`]: a [`SynthRunner`] answer per point, with
//! the point's Monte-Carlo mismatch draw bound around verification and
//! a detail payload (netlist + datasheet) riding each feasible record.
//!
//! Monte-Carlo siblings share every sub-block design in the runner's
//! cache and differ only in measurement ([`SynthRunner`] binds the draw
//! around verification only).

use super::plan::{DatasetPlan, PointMeta};
use crate::batch::{BatchOptions, Job, JobFailure, JobRunner, JobSuccess, SynthRunner};
use crate::verify::Measured;
use crate::OpAmpDesign;
use oasys_faults::Deadline;
use oasys_plan::MemoCache;
use oasys_process::Process;
use oasys_sim::mismatch::Mismatch;
use oasys_telemetry::{json, Telemetry};

/// Runs dataset points: a [`SynthRunner`] answer under the point's
/// Monte-Carlo mismatch draw.
pub struct DatasetRunner {
    synth: SynthRunner,
    /// Per local-job mismatch draw (`None` = nominal instance), indexed
    /// by the shard-local job id.
    mismatches: Vec<Option<Mismatch>>,
}

impl DatasetRunner {
    /// A runner for one shard's pending points. `pending[i]` must be
    /// the point behind local job id `i`.
    #[must_use]
    pub fn new(plan: &DatasetPlan, pending: &[&PointMeta], options: &BatchOptions) -> Self {
        Self {
            synth: SynthRunner::new()
                .with_search(options.search().clone())
                .with_verify(options.verify()),
            mismatches: pending.iter().map(|p| plan.mismatch_for(p)).collect(),
        }
    }

    /// The shared sub-block design cache (for hit-rate reporting).
    #[must_use]
    pub fn cache(&self) -> &MemoCache {
        self.synth.cache()
    }
}

impl JobRunner for DatasetRunner {
    fn run(
        &self,
        job: &Job,
        tel: &Telemetry,
        deadline: &Deadline,
    ) -> Result<JobSuccess, JobFailure> {
        let draw = self
            .mismatches
            .get(job.id())
            .copied()
            .flatten()
            .unwrap_or_else(Mismatch::disabled);
        self.synth
            .answer(job, tel, deadline, draw, Some(render_detail))
    }
}

/// Renders the per-record detail payload: the winning design's SPICE
/// deck and its datasheet (predicted always; measured when verified).
fn render_detail(design: &OpAmpDesign, process: &Process, measured: Option<&Measured>) -> String {
    let netlist = oasys_netlist::spice::to_spice(design.circuit(), process);
    let predicted = design.predicted();
    let mut out = format!("{{\"netlist\":{}", json::string(&netlist));
    out.push_str(&format!(
        concat!(
            ",\"predicted\":{{\"dc_gain_db\":{},\"unity_gain_hz\":{},",
            "\"phase_margin_deg\":{},\"slew_v_per_s\":{},\"swing_neg_v\":{},",
            "\"swing_pos_v\":{},\"offset_v\":{},\"power_w\":{},",
            "\"cmrr_db\":{},\"noise_v_rthz\":{}}}"
        ),
        json::number(predicted.dc_gain_db),
        json::number(predicted.unity_gain_hz),
        json::number(predicted.phase_margin_deg),
        json::number(predicted.slew_v_per_s),
        json::number(predicted.swing_neg_v),
        json::number(predicted.swing_pos_v),
        json::number(predicted.offset_v),
        json::number(predicted.power_w),
        json::number(predicted.cmrr_db),
        json::number(predicted.noise_v_rthz),
    ));
    if let Some(m) = measured {
        out.push_str(",\"measured\":{");
        let mut first = true;
        let mut field = |key: &str, value: Option<f64>| {
            if let Some(v) = value {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!("\"{key}\":{}", json::number(v)));
            }
        };
        field("dc_gain_db", Some(m.dc_gain_db));
        field("unity_gain_hz", m.unity_gain_hz);
        field("phase_margin_deg", m.phase_margin_deg);
        field("slew_v_per_s", m.slew_v_per_s);
        field("swing_symmetric_v", m.swing_symmetric_v);
        field("offset_v", m.offset_v);
        field("power_w", Some(m.power_w));
        field("cmrr_db", m.cmrr_db);
        field("noise_v_rthz", m.noise_v_rthz);
        field("psrr_db", m.psrr_db);
        out.push('}');
    }
    out.push('}');
    out
}
