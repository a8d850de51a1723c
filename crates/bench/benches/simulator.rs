//! Simulator benchmarks: the verification cost per synthesized op amp
//! (offset bisection, DC operating point, AC sweep, swing sweep, slew
//! transients and the AC-family phases), plus the kernels it is built
//! from: case C's two slew transients (cold initial points), case C's
//! 81-point AC sweep at its nulled operating point, one cold Newton
//! solve and the 241-point warm-started swing sweep.

use oasys::spec::test_cases;
use oasys::{synthesize, verify};
use oasys_bench::harness::Bencher;
use oasys_process::builtin;
use std::hint::black_box;

fn main() {
    let process = builtin::cmos_5um();
    let mut b = Bencher::new();

    let spec = test_cases::spec_a();
    let design = synthesize(&spec, &process).unwrap().selected().clone();
    b.bench("verify/case_a_full", || {
        verify(
            black_box(&design),
            black_box(&process),
            spec.load().farads(),
        )
        .unwrap()
    });

    let spec_c = test_cases::spec_c();
    let design_c = synthesize(&spec_c, &process).unwrap().selected().clone();
    b.bench("verify/case_c_full", || {
        verify(
            black_box(&design_c),
            black_box(&process),
            spec_c.load().farads(),
        )
        .unwrap()
    });

    let (slew, out, slew_spec) =
        oasys::verify::slew_bench(&design_c, &process, spec_c.load().farads()).unwrap();
    let tel = oasys_telemetry::Telemetry::disabled();
    b.bench("sim/tran_slew_case_c", || {
        oasys::verify::slew_rate(
            black_box(&slew),
            black_box(&process),
            out,
            &slew_spec,
            None,
            &tel,
        )
        .unwrap()
    });

    let (mut open_loop, ac_out) =
        oasys::verify::open_loop_bench(&design_c, &process, spec_c.load().farads()).unwrap();
    let offset =
        oasys_sim::sweep::bisect_input(&open_loop, &process, "VIP", ac_out, 0.0, -0.5, 0.5)
            .unwrap();
    open_loop.set_source_dc("VIP", offset).unwrap();
    let nulled = oasys_sim::dc::solve(&open_loop, &process).unwrap();
    let ac_spec = oasys_sim::AcSweepSpec::standard();
    b.bench("sim/ac_sweep_case_c", || {
        oasys_sim::ac::solve_at(
            black_box(&open_loop),
            black_box(&process),
            &nulled,
            &ac_spec,
        )
        .unwrap()
    });

    let (swing, swing_out, points) = oasys::verify::swing_bench(&design, &process).unwrap();
    b.bench("sim/dc_sweep_241", || {
        oasys_sim::sweep::dc_transfer(
            black_box(&swing),
            black_box(&process),
            "VSW",
            swing_out,
            &points,
        )
        .unwrap()
    });

    let circuit = dc_chain();
    b.bench("sim/dc_newton_chain", || {
        oasys_sim::dc::solve(black_box(&circuit), black_box(&process)).unwrap()
    });
    b.finish();
}

/// A representative nonlinear bench: diode-connected device chain.
fn dc_chain() -> oasys_netlist::Circuit {
    use oasys_netlist::{Circuit, SourceValue};
    use oasys_process::Polarity;

    let mut circuit = Circuit::new("dc bench");
    let vdd = circuit.node("vdd");
    let gnd = circuit.ground();
    circuit
        .add_vsource("VDD", vdd, gnd, SourceValue::dc(5.0))
        .unwrap();
    let mut prev = vdd;
    for k in 0..8 {
        let node = circuit.node(format!("n{k}"));
        circuit
            .add_mosfet(
                format!("M{k}"),
                Polarity::Nmos,
                oasys_mos::Geometry::new_um(20.0, 5.0).unwrap(),
                prev,
                prev,
                node,
                gnd,
            )
            .unwrap();
        circuit
            .add_resistor(format!("R{k}"), node, gnd, 50e3)
            .unwrap();
        prev = node;
    }
    circuit
}
