//! The analog design hierarchy (the paper's Figure 1).
//!
//! A lightweight tree of named functional blocks, used to express how a
//! system-level design such as a successive-approximation A/D converter
//! decomposes into functional blocks, sub-blocks and devices. The paper
//! stresses that this hierarchy is *not strict*: siblings may differ
//! wildly in complexity (a sample-and-hold may be three devices while the
//! comparator next to it has twenty).
//!
//! Blocks that OASYS can actually design carry a link to the designer
//! *level* that realizes them: `"op amp"` for the op amp itself, which
//! [`crate::synthesize`] designs, and for a sub-block the level of the
//! `block:<level>` telemetry span a synthesis records each time it
//! designs one (`"mirror"`, `"diff pair"`, …). The links are labels;
//! `tests/hierarchy_figure1.rs` checks each against what a traced
//! synthesis records.

use std::fmt;

/// A node in an analog design hierarchy.
///
/// # Examples
///
/// ```
/// use oasys::hierarchy::Block;
/// let adc = Block::new("successive-approximation A/D")
///     .with_child(Block::new("comparator"))
///     .with_child(Block::new("D/A converter"));
/// assert_eq!(adc.children().len(), 2);
/// assert_eq!(adc.depth(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    name: String,
    designer: Option<String>,
    children: Vec<Block>,
}

impl Block {
    /// Creates a leaf block.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            designer: None,
            children: Vec::new(),
        }
    }

    /// Adds a child (builder style).
    #[must_use]
    pub fn with_child(mut self, child: Block) -> Self {
        self.children.push(child);
        self
    }

    /// Links this block to a designer level (builder style), e.g.
    /// `"mirror"` or `"op amp"`. Blocks without a link are structural or
    /// device-level (switches, capacitor arrays) and have no automated
    /// designer.
    #[must_use]
    pub fn with_designer(mut self, level: impl Into<String>) -> Self {
        self.designer = Some(level.into());
        self
    }

    /// The block name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The linked designer level, if this block has one.
    #[must_use]
    pub fn designer(&self) -> Option<&str> {
        self.designer.as_deref()
    }

    /// Direct children.
    #[must_use]
    pub fn children(&self) -> &[Block] {
        &self.children
    }

    /// Number of levels, counting this node (a leaf has depth 1).
    #[must_use]
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(Block::depth).max().unwrap_or(0)
    }

    /// Total number of blocks in the subtree.
    #[must_use]
    pub fn block_count(&self) -> usize {
        1 + self.children.iter().map(Block::block_count).sum::<usize>()
    }

    /// Depth-first search for a block by name.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<&Block> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    fn render(&self, indent: usize, out: &mut String) {
        out.push_str(&"  ".repeat(indent));
        out.push_str(&self.name);
        if let Some(level) = self.designer() {
            out.push_str(" [");
            out.push_str(level);
            out.push(']');
        }
        out.push('\n');
        for child in &self.children {
            child.render(indent + 1, out);
        }
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.render(0, &mut out);
        f.write_str(&out)
    }
}

/// The paper's Figure 1: the hierarchy of a successive-approximation A/D
/// converter, down to the transistor-group level, with each designable
/// block linked to its designer level.
#[must_use]
pub fn successive_approximation_adc() -> Block {
    let op_amp = Block::new("op amp")
        .with_designer("op amp")
        .with_child(Block::new("differential pair").with_designer("diff pair"))
        .with_child(Block::new("current mirror").with_designer("mirror"))
        .with_child(Block::new("level shifter").with_designer("level shifter"))
        .with_child(Block::new("transconductance amplifier").with_designer("gain stage"));
    Block::new("successive approximation A/D")
        .with_child(
            Block::new("sample-and-hold")
                .with_child(Block::new("switch"))
                .with_child(Block::new("hold capacitor"))
                .with_child(op_amp.clone()),
        )
        .with_child(
            Block::new("comparator")
                .with_child(Block::new("preamplifier").with_designer("gain stage"))
                .with_child(Block::new("latch")),
        )
        .with_child(
            Block::new("D/A converter")
                .with_child(Block::new("capacitor array"))
                .with_child(op_amp),
        )
        .with_child(Block::new("successive-approximation register"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_hierarchy_shape() {
        let adc = successive_approximation_adc();
        assert_eq!(adc.children().len(), 4);
        // Four levels: ADC → S/H → op amp → diff pair.
        assert_eq!(adc.depth(), 4);
        assert!(adc.block_count() > 10);
    }

    #[test]
    fn hierarchy_is_not_strict() {
        // Siblings at the same level differ in complexity: the S/H has a
        // deep op-amp subtree, the SAR is a leaf.
        let adc = successive_approximation_adc();
        let sh = adc.find("sample-and-hold").unwrap();
        let sar = adc.find("successive-approximation register").unwrap();
        assert!(sh.depth() > sar.depth());
    }

    #[test]
    fn find_locates_nested_blocks() {
        let adc = successive_approximation_adc();
        assert!(adc.find("differential pair").is_some());
        assert!(adc.find("flux capacitor").is_none());
    }

    #[test]
    fn op_amp_subblocks_are_reused() {
        // The same op-amp template appears under both the S/H and the DAC
        // — the paper's reuse argument.
        let adc = successive_approximation_adc();
        let sh_amp = adc.find("sample-and-hold").unwrap().find("op amp");
        let dac_amp = adc.find("D/A converter").unwrap().find("op amp");
        assert_eq!(sh_amp, dac_amp);
    }

    #[test]
    fn display_is_indented() {
        let adc = successive_approximation_adc();
        let text = adc.to_string();
        assert!(text.contains("\n  sample-and-hold"));
        assert!(text.contains("\n    switch") || text.contains("\n      switch"));
        // Linked blocks show their designer level.
        assert!(text.contains("op amp [op amp]"));
    }
}
