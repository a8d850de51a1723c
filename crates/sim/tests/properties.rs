//! Property-based tests on the simulator: linear-algebra laws, MNA stamp
//! invariants, and conservation properties of solved circuits.

use oasys_mos::{Geometry, Mosfet};
use oasys_netlist::{Circuit, SourceValue};
use oasys_process::{builtin, Polarity};
use oasys_sim::complex::Complex;
use oasys_sim::linalg::Matrix;
use oasys_sim::mna::mos_stamp;
use oasys_sim::{dc, sweep};
use oasys_telemetry::Telemetry;
use oasys_testutil::prelude::*;

/// Deterministic diagonally dominant matrix from a seed.
fn dominant_matrix(n: usize, seed: u64) -> Matrix<f64> {
    let mut m: Matrix<f64> = Matrix::zeros(n);
    let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    for i in 0..n {
        for j in 0..n {
            m[(i, j)] = next();
        }
        m[(i, i)] += n as f64;
    }
    m
}

proptest! {
    /// LU solve actually solves: ‖A·x − b‖ is tiny for well-conditioned A.
    #[test]
    fn lu_residual_small(n in 1usize..20, seed in 0u64..1000) {
        let m = dominant_matrix(n, seed);
        let b: Vec<f64> = (0..n).map(|k| (k as f64) - 2.5).collect();
        let x = m.solve(&b).unwrap();
        let ax = m.mul_vec(&x);
        for (lhs, rhs) in ax.iter().zip(&b) {
            prop_assert!((lhs - rhs).abs() < 1e-8);
        }
    }

    /// Solving is linear: solve(αb) = α·solve(b).
    #[test]
    fn lu_is_linear(n in 1usize..15, seed in 0u64..500, alpha in -10.0..10.0f64) {
        let m = dominant_matrix(n, seed);
        let b: Vec<f64> = (0..n).map(|k| 1.0 + k as f64).collect();
        let scaled: Vec<f64> = b.iter().map(|v| alpha * v).collect();
        let x = m.solve(&b).unwrap();
        let y = m.solve(&scaled).unwrap();
        for (xi, yi) in x.iter().zip(&y) {
            prop_assert!((alpha * xi - yi).abs() < 1e-7 * (1.0 + xi.abs()));
        }
    }

    /// Complex field laws: multiplication distributes over addition.
    #[test]
    fn complex_distributive(
        ar in -100.0..100.0f64, ai in -100.0..100.0f64,
        br in -100.0..100.0f64, bi in -100.0..100.0f64,
        cr in -100.0..100.0f64, ci in -100.0..100.0f64,
    ) {
        let a = Complex::new(ar, ai);
        let b = Complex::new(br, bi);
        let c = Complex::new(cr, ci);
        let lhs = a * (b + c);
        let rhs = a * b + a * c;
        prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()));
    }

    /// |z·w| = |z|·|w| and arg respects conjugation.
    #[test]
    fn complex_modulus_multiplicative(
        zr in -100.0..100.0f64, zi in -100.0..100.0f64,
        wr in -100.0..100.0f64, wi in -100.0..100.0f64,
    ) {
        let z = Complex::new(zr, zi);
        let w = Complex::new(wr, wi);
        prop_assert!(((z * w).abs() - z.abs() * w.abs()).abs() < 1e-8 * (1.0 + z.abs() * w.abs()));
        prop_assert!((z.conj().arg() + z.arg()).abs() < 1e-9 || z.im == 0.0);
    }

    /// MOSFET stamp derivatives sum to zero (translation invariance of
    /// the device equations).
    #[test]
    fn stamp_derivatives_sum_to_zero(
        vd in -5.0..5.0f64,
        vg in -5.0..5.0f64,
        vs in -5.0..5.0f64,
        w in 5.0..500.0f64,
    ) {
        let m = Mosfet::new(
            Polarity::Nmos,
            Geometry::new_um(w, 5.0).unwrap(),
            &builtin::cmos_5um(),
        );
        let vb = vs.min(vd).min(-5.0);
        let s = mos_stamp(&m, vd, vg, vs, vb);
        let sum = s.d_dvd + s.d_dvg + s.d_dvs + s.d_dvb;
        let scale = [s.d_dvd, s.d_dvg, s.d_dvs, s.d_dvb]
            .iter()
            .fold(1e-12f64, |acc, v| acc.max(v.abs()));
        prop_assert!(sum.abs() < 1e-9 * scale.max(1.0), "sum {sum} scale {scale}");
    }

    /// A solved resistive ladder obeys KCL at every internal node and the
    /// end-to-end voltage division law.
    #[test]
    fn resistor_ladder_division(
        r_values in prop::collection::vec(10.0..1e6f64, 2..8),
        v_in in 0.1..100.0f64,
    ) {
        let mut c = Circuit::new("ladder");
        let top = c.node("n0");
        c.add_vsource("V1", top, c.ground(), SourceValue::dc(v_in)).unwrap();
        let mut prev = top;
        for (k, &r) in r_values.iter().enumerate() {
            let next = c.node(format!("n{}", k + 1));
            c.add_resistor(format!("R{k}"), prev, next, r).unwrap();
            prev = next;
        }
        // Terminate to ground.
        c.add_resistor("RT", prev, c.ground(), 1e3).unwrap();

        let sol = dc::solve(&c, &builtin::cmos_5um(), &Telemetry::disabled()).unwrap();
        // Voltages decrease monotonically down the ladder.
        let mut last = v_in;
        for k in 1..=r_values.len() {
            let v = sol.voltage(c.find_node(&format!("n{k}")).unwrap());
            prop_assert!(v <= last + 1e-9);
            prop_assert!(v >= -1e-9);
            last = v;
        }
        // End-to-end: current = Vin / ΣR, last node = I·RT. The solver's
        // gmin (1e-12 S per node) leaks ~R·gmin of relative error per
        // node, so the tolerance scales with the ladder impedance.
        let total: f64 = r_values.iter().sum::<f64>() + 1e3;
        let expected_last = v_in * 1e3 / total;
        let tol = 1e-9 + 10.0 * total * 1e-12;
        prop_assert!(
            (last / expected_last - 1.0).abs() < tol,
            "last {last} vs {expected_last}, tol {tol}"
        );
    }

    /// DC solve is invariant under source scaling for linear circuits.
    #[test]
    fn linear_circuit_scales(v in 0.1..50.0f64, k in 0.1..10.0f64) {
        let build = |vin: f64| {
            let mut c = Circuit::new("div");
            let a = c.node("a");
            let b = c.node("b");
            c.add_vsource("V", a, c.ground(), SourceValue::dc(vin)).unwrap();
            c.add_resistor("R1", a, b, 2.2e3).unwrap();
            c.add_resistor("R2", b, c.ground(), 4.7e3).unwrap();
            c
        };
        let p = builtin::cmos_5um();
        let c1 = build(v);
        let c2 = build(v * k);
        let n1 = c1.find_node("b").unwrap();
        let s1 = dc::solve(&c1, &p, &Telemetry::disabled()).unwrap().voltage(n1);
        let s2 = dc::solve(&c2, &p, &Telemetry::disabled()).unwrap().voltage(n1);
        prop_assert!((s2 / s1 / k - 1.0).abs() < 1e-9);
    }

    /// Bisection finds the inverter threshold wherever the sizing ratio
    /// puts it, and the result really produces the target output.
    #[test]
    fn inverter_threshold_bisection(wn in 5.0..40.0f64, wp in 5.0..100.0f64) {
        let p = builtin::cmos_5um();
        let mut c = Circuit::new("inv");
        let vdd = c.node("vdd");
        let out = c.node("out");
        let inp = c.node("in");
        let gnd = c.ground();
        c.add_vsource("VDD", vdd, gnd, SourceValue::dc(5.0)).unwrap();
        c.add_vsource("VIN", inp, gnd, SourceValue::dc(2.5)).unwrap();
        c.add_mosfet("MN", Polarity::Nmos, Geometry::new_um(wn, 5.0).unwrap(), out, inp, gnd, gnd).unwrap();
        c.add_mosfet("MP", Polarity::Pmos, Geometry::new_um(wp, 5.0).unwrap(), out, inp, vdd, vdd).unwrap();
        let vth = sweep::bisect_input(&c, &p, "VIN", out, 2.5, 0.0, 5.0, &Telemetry::disabled()).unwrap();
        prop_assert!(vth > 1.0 && vth < 4.0, "threshold {vth}");
        let mut check = c.clone();
        check.set_source_dc("VIN", vth).unwrap();
        let vout = dc::solve(&check, &p, &Telemetry::disabled()).unwrap().voltage(out);
        prop_assert!((vout - 2.5).abs() < 1e-2, "vout {vout}");
    }
}
