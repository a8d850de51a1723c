//! Regenerates Figure 3: the planning mechanism, as the recorded run of
//! the case-C two-stage plan.
fn main() {
    print!("{}", oasys_bench::figures::figure3_text());
}
