//! End-to-end test of the paper's Figure 1 decomposition: the
//! successive-approximation A/D converter hierarchy, its designer links
//! checked against the levels a traced synthesis records, with the
//! op-amp subtree actually synthesized through the shared
//! `BlockDesigner` engine.

use oasys::hierarchy::{successive_approximation_adc, Block};
use oasys::{spec::test_cases, synthesize_with, OpAmpDesigner};
use oasys_blocks::mirror::{MirrorDesigner, MirrorSpec};
use oasys_plan::{BlockDesigner, DesignContext};
use oasys_process::{builtin, Polarity};
use oasys_telemetry::Telemetry;
use std::collections::BTreeSet;

/// Every `(block name, designer level)` link in the subtree.
fn links(block: &Block) -> Vec<(&str, &str)> {
    let mut out: Vec<(&str, &str)> = block
        .designer()
        .map(|level| (block.name(), level))
        .into_iter()
        .collect();
    for child in block.children() {
        out.extend(links(child));
    }
    out
}

/// The levels of the `block:<level>` spans that traced syntheses of the
/// paper's cases A, B and C record on the 5 µm kit.
fn recorded_block_levels() -> BTreeSet<String> {
    let process = builtin::cmos_5um();
    let mut levels = BTreeSet::new();
    for spec in [
        test_cases::spec_a(),
        test_cases::spec_b(),
        test_cases::spec_c(),
    ] {
        let tel = Telemetry::new();
        synthesize_with(&spec, &process, &tel).expect("the paper's cases synthesize");
        for span in tel.report().spans() {
            if let Some(level) = span.name.strip_prefix("block:") {
                levels.insert(level.to_owned());
            }
        }
    }
    levels
}

/// Figure 1's tree is deep (≥ 3 levels) and *not strict*: siblings at
/// the same level differ wildly in complexity.
#[test]
fn figure1_decomposition_shape() {
    let adc = successive_approximation_adc();
    assert!(adc.depth() >= 3, "depth {}", adc.depth());
    let siblings = adc.children();
    let depths: Vec<usize> = siblings.iter().map(Block::depth).collect();
    assert!(
        depths.iter().max() > depths.iter().min(),
        "siblings should be uneven: {depths:?}"
    );
    // The deepest branch runs ADC → sample-and-hold → op amp → sub-block.
    let sh = adc.find("sample-and-hold").unwrap();
    assert!(sh.depth() >= 3);
}

/// Every designer link in the tree names a level synthesis records: the
/// op-amp block links to `"op amp"`, the level `synthesize` designs, and
/// every other link `L` shows up as a `block:L` span when the paper's
/// cases are synthesized (case C designs the level shifter).
#[test]
fn figure1_links_name_levels_synthesis_records() {
    let adc = successive_approximation_adc();
    let links = links(&adc);
    assert!(links.contains(&("op amp", "op amp")), "{links:?}");
    let recorded = recorded_block_levels();
    for (block, level) in links {
        if block == "op amp" {
            assert_eq!(level, "op amp");
        } else {
            assert!(
                recorded.contains(level),
                "{block} links to {level:?}, but synthesis records only {recorded:?}"
            );
        }
    }
}

/// Designing the hierarchy's op-amp block end to end: the engine sweeps
/// the op-amp designer's styles, and the telemetry shows the recursion —
/// `style:<name>` spans at the op-amp level with `block:<level>` child
/// spans for every sub-block invocation.
#[test]
fn figure1_op_amp_block_designs_end_to_end() {
    let adc = successive_approximation_adc();
    let amp = adc.find("op amp").unwrap();
    assert_eq!(amp.designer(), Some("op amp"));

    let tel = Telemetry::new();
    let process = builtin::cmos_5um();
    let result = synthesize_with(&test_cases::spec_a(), &process, &tel).unwrap();

    // The winner is one of the styles the op-amp designer tries.
    let styles = OpAmpDesigner::new(&process).styles();
    let winner = result.selected().style().name();
    assert!(
        styles.contains(&winner),
        "winner {winner:?} not among {styles:?}"
    );

    // Telemetry covers the whole recursion: one style span per style,
    // and block spans for the sub-blocks the hierarchy links under the
    // op amp.
    let report = tel.report();
    let names: Vec<&str> = report.spans().iter().map(|s| s.name.as_str()).collect();
    for style in styles {
        let span = format!("style:{style}");
        assert!(names.contains(&span.as_str()), "missing {span}");
    }
    for level in ["diff pair", "mirror"] {
        let span = format!("block:{level}");
        assert!(names.contains(&span.as_str()), "missing {span}");
    }
}

/// A leaf-level block designs through the same engine trait the op amp
/// uses — the paper's reuse claim, mechanized.
#[test]
fn figure1_leaf_block_designs_through_the_same_trait() {
    let adc = successive_approximation_adc();
    let mirror_block = adc.find("current mirror").unwrap();
    assert_eq!(mirror_block.designer(), Some("mirror"));

    let process = builtin::cmos_5um();
    let designer = MirrorDesigner::new(&process);
    let tel = Telemetry::disabled();
    let ctx = DesignContext::new(&tel);
    let spec = MirrorSpec::new(Polarity::Nmos, 20e-6).with_headroom(1.5);
    let selected = designer.design(&spec, &ctx).expect("mirror designs");
    assert!(
        designer.styles().contains(&selected.style()),
        "selected style {:?} is not one the mirror designer tries",
        selected.style()
    );
    assert!(selected.area_um2() > 0.0);
}
