//! Ablation benchmarks: the cost of breadth-first selection (design every
//! style) versus designing a single style.

use oasys::spec::test_cases;
use oasys::OpAmpStyle;
use oasys_bench::harness::Bencher;
use oasys_process::builtin;
use oasys_telemetry::Telemetry;
use std::hint::black_box;

fn main() {
    let process = builtin::cmos_5um();
    let spec = test_cases::spec_a();
    let mut b = Bencher::new();
    b.bench("selection/breadth_first", || {
        oasys::synthesize(black_box(&spec), black_box(&process)).unwrap()
    });
    b.bench("selection/single_style", || {
        oasys::styles::design(
            OpAmpStyle::OneStageOta,
            black_box(&spec),
            black_box(&process),
            &Telemetry::disabled(),
        )
        .unwrap()
    });
    b.finish();
}
