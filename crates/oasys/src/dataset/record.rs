//! Dataset record rendering: one JSONL line per point, schema
//! `oasys-dataset/2` (normatively specified in `DATASET.md` at the repo
//! root). The `v:2` payload is structurally identical to `v:1`; the
//! version bump marks that the *line* carrying it is sealed with a
//! per-line FNV-1a checksum by the shard sink ([`crate::integrity`]).
//!
//! A record's bytes are a pure function of the point and the runner's
//! answer — no timestamps, durations, attempt counts, or shard
//! coordinates. That exclusion is what makes a two-shard run merge
//! byte-identically with a one-shard run: everything a record says would
//! be said identically by any shard that executed it.

use super::plan::{DatasetPlan, PointMeta};
use crate::batch::JobRecord;
use oasys_telemetry::json;

/// Renders one dataset record (no trailing newline).
#[must_use]
pub fn render_record(point: &PointMeta, record: &JobRecord, plan: &DatasetPlan) -> String {
    let mut out = format!(
        "{{\"schema\":\"oasys-dataset\",\"v\":2,\"id\":{},",
        point.id
    );
    out.push_str(&format!(
        "\"spec\":{{\"label\":{},\"fields\":{{",
        json::string(&point.spec_label)
    ));
    for (i, (key, value)) in point.spec_fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{key}\":{}", json::number(*value)));
    }
    out.push_str("}},");
    out.push_str(&format!(
        concat!(
            "\"tech\":{{\"base\":{},\"label\":{},",
            "\"corner\":{{\"speed\":\"{}\",\"temp_c\":{},\"supply_scale\":{}}}}},"
        ),
        json::string(&point.tech_base),
        json::string(&point.tech_label),
        point.corner.speed.name(),
        json::number(point.corner.temp_c),
        json::number(point.corner.supply_scale),
    ));
    out.push_str(&format!(
        "\"mc\":{{\"index\":{},\"seed\":\"{:016x}\",\"avt_mv_um\":{},\"akp_pct_um\":{}}},",
        point.mc_index,
        point.mc_seed,
        json::number(plan.avt_mv_um),
        json::number(plan.akp_pct_um),
    ));
    out.push_str(&format!("\"fingerprint\":\"{:016x}\",", point.fingerprint));
    match record.status.effective() {
        Ok(Some((style, area_um2))) => {
            out.push_str("\"outcome\":\"ok\",\"ok\":{");
            out.push_str(&format!(
                "\"style\":{},\"area_um2\":{}",
                json::string(style),
                json::number(area_um2)
            ));
            if let Some(meets) = record.meets_spec {
                out.push_str(&format!(",\"meets_spec\":{meets}"));
            }
            if let Some(detail) = &record.detail {
                // The runner payload is already a rendered JSON object
                // carrying the netlist and datasheet.
                out.push_str(&format!(",\"design\":{detail}"));
            }
            out.push('}');
        }
        Ok(None) => out.push_str("\"outcome\":\"infeasible\""),
        Err((kind, message)) => out.push_str(&format!(
            "\"outcome\":\"failed\",\"failure\":{{\"kind\":\"{}\",\"message\":{}}}",
            kind.word(),
            json::string(message)
        )),
    }
    if !record.styles.is_empty() {
        out.push_str(",\"trace\":[");
        for (i, entry) in record.styles.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"style\":{}", json::string(&entry.style)));
            if let Some(area) = entry.area_um2 {
                out.push_str(&format!(",\"area_um2\":{}", json::number(area)));
            }
            if let Some(reason) = &entry.reason {
                out.push_str(&format!(",\"rejected\":{}", json::string(reason)));
            }
            out.push('}');
        }
        out.push(']');
    }
    out.push('}');
    out
}
