//! Experiment runners for regenerating every table and figure of the
//! OASYS paper (see DESIGN.md §4 for the experiment index).
//!
//! Each `cargo run -p oasys-bench --bin <name>` binary is a thin wrapper
//! over a function here, so the integration tests can assert on the same
//! data the binaries print:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table1`  | Table 1 — process parameters |
//! | `table2`  | Table 2 — specs and results for cases A, B, C |
//! | `figure1` | Figure 1 — A/D converter hierarchy |
//! | `figure3` | Figure 3 — plan execution with rule patching (recorded run) |
//! | `figure4` | Figure 4 — two-stage topology template |
//! | `figure5` | Figure 5 — synthesized schematics |
//! | `figure6` | Figure 6 — gain-phase plot for test circuit C |
//! | `figure7` | Figure 7 — area vs. achievable gain, 5 pF & 20 pF |
//! | `ablation`| knowledge-base ablations (patching off, first-feasible) |

pub mod ablation;
pub mod figures;
pub mod harness;
pub mod summary;
pub mod table2;

use oasys::spec::test_cases;
use oasys::OpAmpSpec;

/// The paper's three test cases with their labels.
#[must_use]
pub fn paper_cases() -> Vec<(&'static str, OpAmpSpec)> {
    vec![
        ("A", test_cases::spec_a()),
        ("B", test_cases::spec_b()),
        ("C", test_cases::spec_c()),
    ]
}

/// Renders Table 1: the process parameters OASYS consumes, via the
/// technology-file writer (the same data the parser reads back).
#[must_use]
pub fn table1_text() -> String {
    let process = oasys_process::builtin::cmos_5um();
    let mut out =
        String::from("Table 1: OASYS process parameters (substituted generic 5 µm CMOS)\n\n");
    out.push_str(&oasys_process::techfile::write(&process));
    out.push_str("\nderived quantities:\n");
    out.push_str(&format!(
        "  Cox  = {:.3} fF/µm²\n",
        process.cox_ff_per_um2()
    ));
    for pol in oasys_process::Polarity::ALL {
        let mos = process.mos(pol);
        out.push_str(&format!(
            "  {pol}: mobility = {:.0} cm²/Vs, λ(Lmin) = {:.4} 1/V, λ(4·Lmin) = {:.4} 1/V\n",
            mos.mobility_cm2(),
            mos.lambda(process.min_length().micrometers()),
            mos.lambda(4.0 * process.min_length().micrometers()),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_is_parseable_by_the_techfile_reader() {
        let text = table1_text();
        // The body between the header and "derived" is a valid techfile.
        let start = text.find("# generic-5um").unwrap();
        let end = text.find("\nderived").unwrap();
        let parsed = oasys_process::techfile::parse(&text[start..end]).unwrap();
        assert_eq!(parsed.name(), "generic-5um");
    }

    #[test]
    fn three_paper_cases() {
        let cases = paper_cases();
        assert_eq!(cases.len(), 3);
        assert_eq!(cases[0].0, "A");
    }
}
