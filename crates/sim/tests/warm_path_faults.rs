//! The fault plane reaches the warm DC path: a sweep hits the
//! `sim.dc.solve` fail point once per point and the `sim.dc.newton` fail
//! point inside its Newton loop. The fault registry is process-wide, so
//! this binary holds a single test and no sibling can see an armed fault.

use oasys_faults::FaultSpec;
use oasys_mos::Geometry;
use oasys_netlist::{Circuit, NodeId, SourceValue};
use oasys_process::{builtin, Polarity};
use oasys_sim::sweep;

fn inverter() -> (Circuit, NodeId) {
    let mut c = Circuit::new("inv");
    let vdd = c.node("vdd");
    let out = c.node("out");
    let inp = c.node("in");
    c.add_vsource("VDD", vdd, c.ground(), SourceValue::dc(5.0))
        .unwrap();
    c.add_vsource("VIN", inp, c.ground(), SourceValue::dc(2.5))
        .unwrap();
    c.add_mosfet(
        "MN",
        Polarity::Nmos,
        Geometry::new_um(10.0, 5.0).unwrap(),
        out,
        inp,
        c.ground(),
        c.ground(),
    )
    .unwrap();
    c.add_mosfet(
        "MP",
        Polarity::Pmos,
        Geometry::new_um(25.0, 5.0).unwrap(),
        out,
        inp,
        vdd,
        vdd,
    )
    .unwrap();
    (c, out)
}

#[test]
fn warm_sweeps_keep_their_fault_sites() {
    let (circuit, out) = inverter();
    let process = builtin::cmos_5um();
    let values = sweep::linspace(0.0, 5.0, 21);
    oasys_faults::clear();

    // One hit per solve: a seeded 50 % rate fails some points, and the
    // rest still converge, warm from the last converged points.
    oasys_faults::set("sim.dc.solve", FaultSpec::FailRate { p: 0.5, seed: 3 });
    let points = sweep::dc_transfer(&circuit, &process, "VIN", out, &values);
    oasys_faults::clear();
    let points = points.unwrap();
    assert!(
        !points.is_empty() && points.len() < values.len(),
        "{} of {} points survived a per-solve fault rate",
        points.len(),
        values.len()
    );

    // A site that always fails fails every point; the sweep reports it.
    oasys_faults::set("sim.dc.solve", FaultSpec::Err(Some("boom".to_owned())));
    let err = sweep::dc_transfer(&circuit, &process, "VIN", out, &values);
    oasys_faults::clear();
    assert!(err.unwrap_err().to_string().contains("boom"));

    // The Newton loop every sweep point runs carries the per-iteration
    // site.
    oasys_faults::set("sim.dc.newton", FaultSpec::Panic);
    let caught = std::panic::catch_unwind(|| {
        sweep::dc_transfer(&circuit, &process, "VIN", out, &values).map(|p| p.len())
    });
    oasys_faults::clear();
    assert!(caught.is_err(), "an armed sim.dc.newton panic must fire");

    // Disarmed, the same sweep converges at every point.
    let points = sweep::dc_transfer(&circuit, &process, "VIN", out, &values).unwrap();
    assert_eq!(points.len(), values.len());
}
