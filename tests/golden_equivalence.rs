//! Golden-equivalence tests for the block-designer engine port.
//!
//! These fixtures snapshot the sized netlists and predicted performance
//! for the paper's three test cases on the builtin `cmos_5um` process,
//! captured from the pre-refactor monolithic style modules. The ported
//! engine must reproduce them exactly — device for device, bit for bit
//! on every `f64` (the renderer uses `{:?}`, Rust's shortest-roundtrip
//! float format, so any numeric drift fails the diff).
//!
//! Each fixture ends with the simulator's `measured:` block: all ten
//! [`Measured`] fields at 9 significant digits. Next to the `predicted:`
//! block above it, that is the paper's Table 2 predicted-vs-measured
//! comparison as a tracked artifact: a simulator change that moves any
//! measurement in its ninth digit, or an equation change that widens the
//! gap, fails the diff.
//!
//! Regenerate with `OASYS_BLESS=1 cargo test -p oasys-suite --test
//! golden_equivalence` (only legitimate when an intentional design-rule
//! change is being made; the whole point of the fixtures is to prove the
//! engine refactor changes nothing).

use oasys::spec::test_cases;
use oasys::{synthesize, verify, Measured, OpAmpDesign, OpAmpSpec};
use oasys_netlist::Element;
use oasys_process::builtin;
use std::fmt::Write as _;
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

/// Renders one synthesized design as a stable, human-diffable snapshot:
/// the selected style, the area split, every element of the sized
/// netlist (in insertion order, with full-precision geometry), and all
/// ten predicted-performance figures.
fn render(spec: &OpAmpSpec, design: &OpAmpDesign) -> String {
    let mut out = String::new();
    let c = design.circuit();
    writeln!(out, "spec: {spec}").unwrap();
    writeln!(out, "style: {}", design.style()).unwrap();
    writeln!(
        out,
        "area_um2: active={:?} capacitor={:?}",
        design.area().active().square_micrometers(),
        design.area().capacitor().square_micrometers(),
    )
    .unwrap();
    for note in design.notes() {
        writeln!(out, "note: {note}").unwrap();
    }

    let ports: Vec<String> = c
        .ports()
        .iter()
        .map(|(label, node)| format!("{label}={}", c.node_name(*node)))
        .collect();
    writeln!(out, "ports: {}", ports.join(" ")).unwrap();

    writeln!(out, "elements:").unwrap();
    for element in c.elements() {
        match element {
            Element::Mos(m) => writeln!(
                out,
                "  mos {} {:?} d={} g={} s={} b={} w_um={:?} l_um={:?}",
                m.name,
                m.polarity,
                c.node_name(m.drain),
                c.node_name(m.gate),
                c.node_name(m.source),
                c.node_name(m.bulk),
                m.geometry.w_um(),
                m.geometry.l_um(),
            )
            .unwrap(),
            Element::Resistor(r) => writeln!(
                out,
                "  res {} a={} b={} ohms={:?}",
                r.name,
                c.node_name(r.a),
                c.node_name(r.b),
                r.ohms,
            )
            .unwrap(),
            Element::Capacitor(cap) => writeln!(
                out,
                "  cap {} a={} b={} farads={:?}",
                cap.name,
                c.node_name(cap.a),
                c.node_name(cap.b),
                cap.farads,
            )
            .unwrap(),
            Element::Vsource(v) => writeln!(
                out,
                "  vsrc {} pos={} neg={} dc={:?}",
                v.name,
                c.node_name(v.pos),
                c.node_name(v.neg),
                v.value.dc_value(),
            )
            .unwrap(),
            Element::Isource(i) => writeln!(
                out,
                "  isrc {} pos={} neg={} dc={:?}",
                i.name,
                c.node_name(i.pos),
                c.node_name(i.neg),
                i.value.dc_value(),
            )
            .unwrap(),
        }
    }

    let p = design.predicted();
    writeln!(out, "predicted:").unwrap();
    writeln!(out, "  dc_gain_db: {:?}", p.dc_gain_db).unwrap();
    writeln!(out, "  unity_gain_hz: {:?}", p.unity_gain_hz).unwrap();
    writeln!(out, "  phase_margin_deg: {:?}", p.phase_margin_deg).unwrap();
    writeln!(out, "  slew_v_per_s: {:?}", p.slew_v_per_s).unwrap();
    writeln!(out, "  swing_neg_v: {:?}", p.swing_neg_v).unwrap();
    writeln!(out, "  swing_pos_v: {:?}", p.swing_pos_v).unwrap();
    writeln!(out, "  offset_v: {:?}", p.offset_v).unwrap();
    writeln!(out, "  power_w: {:?}", p.power_w).unwrap();
    writeln!(out, "  cmrr_db: {:?}", p.cmrr_db).unwrap();
    writeln!(out, "  noise_v_rthz: {:?}", p.noise_v_rthz).unwrap();
    out
}

/// Renders the simulator's measurements at 9 significant digits: fine
/// enough to catch any real drift, coarse enough to ignore the last-ulp
/// noise of a reordered but equivalent computation.
fn render_measured(m: &Measured) -> String {
    let sig = |x: f64| format!("{x:.8e}");
    let opt = |x: Option<f64>| x.map_or_else(|| "none".to_owned(), sig);
    let mut out = String::new();
    writeln!(out, "measured:").unwrap();
    writeln!(out, "  dc_gain_db: {}", sig(m.dc_gain_db)).unwrap();
    writeln!(out, "  unity_gain_hz: {}", opt(m.unity_gain_hz)).unwrap();
    writeln!(out, "  phase_margin_deg: {}", opt(m.phase_margin_deg)).unwrap();
    writeln!(out, "  slew_v_per_s: {}", opt(m.slew_v_per_s)).unwrap();
    writeln!(out, "  swing_symmetric_v: {}", opt(m.swing_symmetric_v)).unwrap();
    writeln!(out, "  offset_v: {}", opt(m.offset_v)).unwrap();
    writeln!(out, "  power_w: {}", sig(m.power_w)).unwrap();
    writeln!(out, "  cmrr_db: {}", opt(m.cmrr_db)).unwrap();
    writeln!(out, "  noise_v_rthz: {}", opt(m.noise_v_rthz)).unwrap();
    writeln!(out, "  psrr_db: {}", opt(m.psrr_db)).unwrap();
    out
}

fn check_case(name: &str, spec: &OpAmpSpec) {
    let process = builtin::cmos_5um();
    let result = synthesize(spec, &process).expect("paper test cases must synthesize");
    let design = result.selected();
    let verification =
        verify(design, &process, spec.load().farads()).expect("paper test cases must verify");
    let rendered = render(spec, design) + &render_measured(&verification.measured);
    let path = fixture_path(name);

    if std::env::var_os("OASYS_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }

    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with OASYS_BLESS=1 to create it",
            path.display()
        )
    });
    if rendered != golden {
        let diff: Vec<String> = golden
            .lines()
            .zip(rendered.lines())
            .enumerate()
            .filter(|(_, (g, r))| g != r)
            .map(|(i, (g, r))| format!("line {}:\n  golden: {g}\n  actual: {r}", i + 1))
            .collect();
        panic!(
            "golden mismatch for {name} ({} vs {} lines):\n{}",
            golden.lines().count(),
            rendered.lines().count(),
            if diff.is_empty() {
                "(line counts differ)".to_owned()
            } else {
                diff.join("\n")
            }
        );
    }
}

#[test]
fn case_a_matches_golden() {
    check_case("case_a", &test_cases::spec_a());
}

#[test]
fn case_b_matches_golden() {
    check_case("case_b", &test_cases::spec_b());
}

#[test]
fn case_c_matches_golden() {
    check_case("case_c", &test_cases::spec_c());
}
