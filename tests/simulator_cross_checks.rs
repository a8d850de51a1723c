//! Cross-crate checks of the simulator against hand-calculable circuits
//! built from the block designers — the "does sizing meet simulation"
//! property the paper validates with SPICE.

use oasys_blocks::diffpair::{DiffPair, DiffPairSpec};
use oasys_blocks::mirror::{CurrentMirror, MirrorSpec, MirrorStyle};
use oasys_netlist::{Circuit, SourceValue};
use oasys_process::{builtin, Polarity};
use oasys_sim::ac::{AcSolution, AcSweepSpec, AcSystem};
use oasys_sim::dc::{self, DcSolution};
use oasys_sim::metrics::{AcMetrics, Bode};
use oasys_telemetry::Telemetry;

/// The DC operating point of `c`, untraced.
fn op(c: &Circuit, process: &oasys_process::Process) -> DcSolution {
    dc::solve(c, process, &Telemetry::disabled()).unwrap()
}

/// The AC sweep of `c` over `spec` at its operating point `dc`.
fn ac_sweep(
    c: &Circuit,
    process: &oasys_process::Process,
    dc: &DcSolution,
    spec: &AcSweepSpec,
) -> AcSolution {
    AcSystem::new(c, process, dc)
        .sweep(spec, &Telemetry::disabled())
        .unwrap()
}

/// A designed diff pair with ideal tail and resistor loads measures the
/// transconductance it was designed for.
#[test]
fn designed_diffpair_gm_measures_back() {
    let process = builtin::cmos_5um();
    let spec = DiffPairSpec::new(Polarity::Nmos, 100e-6, 20e-6);
    let pair = DiffPair::design(&spec, &process).unwrap();

    let mut c = Circuit::new("gm check");
    let vdd = c.node("vdd");
    let vss = c.node("vss");
    let inp = c.node("inp");
    let inn = c.node("inn");
    let outp = c.node("outp");
    let outn = c.node("outn");
    let tail = c.node("tail");
    let gnd = c.ground();
    c.add_vsource("VDD", vdd, gnd, SourceValue::dc(5.0))
        .unwrap();
    c.add_vsource("VSS", vss, gnd, SourceValue::dc(-5.0))
        .unwrap();
    c.add_vsource("VIP", inp, gnd, SourceValue::new(0.0, 1.0))
        .unwrap();
    c.add_vsource("VIN", inn, gnd, SourceValue::dc(0.0))
        .unwrap();
    // Ideal tail.
    c.add_isource("ITAIL", tail, vss, SourceValue::dc(20e-6))
        .unwrap();
    // Resistor loads small enough that gm·RL is measurable but the pair
    // stays saturated.
    let rl = 20e3;
    c.add_resistor("RLP", vdd, outp, rl).unwrap();
    c.add_resistor("RLN", vdd, outn, rl).unwrap();
    pair.emit(&mut c, "DP_", inp, inn, outp, outn, tail, vss)
        .unwrap();

    let solution = op(&c, &process);
    // Balanced: both sides carry half the tail current.
    let op1 = solution.device_op("DP_M1").unwrap();
    assert!((op1.id() - 10e-6).abs() / 10e-6 < 0.05, "id = {}", op1.id());

    // Differential gain at low frequency ≈ gm·RL/… per side: the single-
    // ended gain at outn is gm/2·RL… measure |v(outn)| with 1 V at inp.
    let sweep = AcSweepSpec::new(10.0, 1e3, 2).unwrap();
    let acs = ac_sweep(&c, &process, &solution, &sweep);
    let gain = acs.transfer(outn)[0].abs();
    let expected = pair.gm() / 2.0 * rl;
    assert!(
        (gain / expected - 1.0).abs() < 0.1,
        "measured {gain}, expected {expected}"
    );
}

/// A cascode mirror measured in simulation presents (at least) orders of
/// magnitude more output resistance than a simple one.
#[test]
fn mirror_rout_ordering_in_simulation() {
    let process = builtin::cmos_5um();
    let rout_of = |style: MirrorStyle| -> f64 {
        let spec = MirrorSpec::new(Polarity::Nmos, 20e-6)
            .with_headroom(2.5)
            .with_only_style(style);
        let m = CurrentMirror::design(&spec, &process).unwrap();
        let mut c = Circuit::new("rout");
        let vdd = c.node("vdd");
        let input = c.node("in");
        let output = c.node("out");
        let gnd = c.ground();
        c.add_vsource("VDD", vdd, gnd, SourceValue::dc(5.0))
            .unwrap();
        c.add_isource("IIN", vdd, input, SourceValue::dc(20e-6))
            .unwrap();
        // AC probe current into the output at a fixed DC voltage.
        c.add_vsource("VOUT", output, gnd, SourceValue::new(3.0, 1.0))
            .unwrap();
        m.emit(&mut c, "M_", input, output, gnd, None).unwrap();
        let sweep = AcSweepSpec::new(1.0, 10.0, 1).unwrap();
        let dc_sol = op(&c, &process);
        let acs = ac_sweep(&c, &process, &dc_sol, &sweep);
        // r_out = v/i with the 1 V AC stimulus: branch current of VOUT.
        // The AC solution exposes node voltages only, so instead drive
        // with the voltage source and infer current from a series sense
        // resistor — simpler: measure with a Norton equivalent below.
        drop(acs);
        // DC-based measurement: ΔV/ΔI around the bias point.
        let mut c2 = c.clone();
        c2.set_source_dc("VOUT", 3.1).unwrap();
        let sol2 = op(&c2, &process);
        // Raising VOUT makes the NMOS mirror sink more current, which the
        // source supplies (its pos→neg branch current goes more negative),
        // so the device current change is −Δi_branch.
        let i1 = dc_sol.source_current("VOUT").unwrap();
        let i2 = sol2.source_current("VOUT").unwrap();
        0.1 / (i1 - i2)
    };
    let r_simple = rout_of(MirrorStyle::Simple);
    let r_cascode = rout_of(MirrorStyle::Cascode);
    assert!(r_simple > 1e5, "simple rout {r_simple}");
    assert!(
        r_cascode > 30.0 * r_simple,
        "cascode {r_cascode} vs simple {r_simple}"
    );
}

/// The square-law device model and the AC engine agree on a textbook
/// five-transistor OTA built directly from blocks: measured DC gain
/// matches gm1/(gds2+gds4) within modeling tolerance.
#[test]
fn hand_built_ota_gain_matches_hand_analysis() {
    let process = builtin::cmos_5um();
    let i_tail = 20e-6;
    let gm = 100e-6;
    let pair = DiffPair::design(
        &DiffPairSpec::new(Polarity::Nmos, gm, i_tail).with_length_um(10.0),
        &process,
    )
    .unwrap();
    let load = CurrentMirror::design(
        &MirrorSpec::new(Polarity::Pmos, i_tail / 2.0)
            .with_headroom(2.0)
            .with_only_style(MirrorStyle::Simple),
        &process,
    )
    .unwrap();

    let mut c = Circuit::new("5T OTA");
    let vdd = c.node("vdd");
    let vss = c.node("vss");
    let inp = c.node("inp");
    let inn = c.node("inn");
    let out = c.node("out");
    let d1 = c.node("d1");
    let tail = c.node("tail");
    let gnd = c.ground();
    c.add_vsource("VDD", vdd, gnd, SourceValue::dc(5.0))
        .unwrap();
    c.add_vsource("VSS", vss, gnd, SourceValue::dc(-5.0))
        .unwrap();
    c.add_vsource("VIP", inp, gnd, SourceValue::new(0.0, 1.0))
        .unwrap();
    c.add_vsource("VIN", inn, gnd, SourceValue::dc(0.0))
        .unwrap();
    c.add_isource("ITAIL", tail, vss, SourceValue::dc(i_tail))
        .unwrap();
    c.add_capacitor("CL", out, gnd, 5e-12).unwrap();
    pair.emit(&mut c, "DP_", inp, inn, out, d1, tail, vss)
        .unwrap();
    load.emit(&mut c, "LD_", d1, out, vdd, None).unwrap();

    // Null the offset first so the output is mid-range.
    let offset = oasys_sim::sweep::bisect_input(
        &c,
        &process,
        "VIP",
        out,
        0.0,
        -0.5,
        0.5,
        &Telemetry::disabled(),
    )
    .unwrap();
    c.set_source_dc("VIP", offset).unwrap();

    let sweep = AcSweepSpec::new(1.0, 1e8, 10).unwrap();
    let acs = ac_sweep(&c, &process, &op(&c, &process), &sweep);
    let bode = Bode::from_ac(&acs, out);
    let metrics = AcMetrics::extract(&bode);

    // Hand analysis at the actual bias point.
    let dc_sol = {
        let mut c2 = c.clone();
        c2.set_source_dc("VIP", offset).unwrap();
        op(&c2, &process)
    };
    let op2 = dc_sol.device_op("DP_M2").unwrap();
    let op4 = dc_sol.device_op("LD_MOUT").unwrap();
    let expected = op2.gm() / (op2.gds() + op4.gds());
    let expected_db = 20.0 * expected.log10();
    assert!(
        (metrics.dc_gain.db() - expected_db).abs() < 1.5,
        "measured {:.1} dB, hand analysis {expected_db:.1} dB",
        metrics.dc_gain.db()
    );

    // And the unity-gain frequency tracks gm/2πC within parasitics.
    let fu = metrics.unity_gain_freq.unwrap().hertz();
    let fu_expected = op2.gm() / (2.0 * std::f64::consts::PI * 5e-12);
    assert!(
        (fu / fu_expected - 1.0).abs() < 0.3,
        "fu {fu:.3e} vs gm/2πC {fu_expected:.3e}"
    );
}
