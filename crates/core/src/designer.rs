//! PIM-aware epitome shape design (paper §4.1).
//!
//! "Motivated by the size flexibility of the epitomes, we can adjust their
//! shapes to better utilize memristors. Specifically, we aim for `c_out`
//! and `c_in × p × q` to align as integral multiples of the crossbar
//! size." — the [`EpitomeDesigner`] implements exactly that legalization,
//! plus candidate-ladder generation for the evolutionary search of §5.2.

use crate::{ConvShape, EpitomeError, EpitomeShape, EpitomeSpec};
use serde::{Deserialize, Serialize};

/// Designs epitome shapes aligned to a crossbar geometry.
///
/// # Example
///
/// ```
/// use epim_core::{ConvShape, EpitomeDesigner};
///
/// # fn main() -> Result<(), epim_core::EpitomeError> {
/// let designer = EpitomeDesigner::new(128, 128);
/// let spec = designer.design(ConvShape::new(512, 256, 3, 3), 1024, 256)?;
/// assert_eq!(spec.shape().matrix_rows(), 1024); // 8 x 128 word lines
/// assert_eq!(spec.shape().cout, 256);           // 2 x 128 bit lines
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpitomeDesigner {
    xbar_rows: usize,
    xbar_cols: usize,
}

impl EpitomeDesigner {
    /// Creates a designer for `xbar_rows x xbar_cols` crossbars.
    pub fn new(xbar_rows: usize, xbar_cols: usize) -> Self {
        EpitomeDesigner {
            xbar_rows: xbar_rows.max(1),
            xbar_cols: xbar_cols.max(1),
        }
    }

    /// The crossbar word-line count this designer aligns rows to.
    pub fn xbar_rows(&self) -> usize {
        self.xbar_rows
    }

    /// The crossbar bit-line count this designer aligns columns to.
    pub fn xbar_cols(&self) -> usize {
        self.xbar_cols
    }

    /// Designs an epitome for `conv` with roughly `target_rows` word lines
    /// (`c_in_e × p × q`) and `target_cout` output channels.
    ///
    /// The result is legalized:
    /// - rows and cout are capped at the convolution's own matrix size
    ///   (an epitome larger than its conv is never useful);
    /// - rows ≥ one crossbar are rounded **down** to a multiple of the
    ///   crossbar row count, and likewise for cout — full crossbar
    ///   utilization per §4.1;
    /// - spatial extents `(p, q)` are chosen as the largest window not
    ///   exceeding the kernel such that the row budget factors exactly.
    ///
    /// # Errors
    ///
    /// Returns [`EpitomeError::InvalidGeometry`] if `conv` has a zero
    /// extent or the targets are zero.
    pub fn design(
        &self,
        conv: ConvShape,
        target_rows: usize,
        target_cout: usize,
    ) -> Result<EpitomeSpec, EpitomeError> {
        EpitomeSpec::new(conv, self.legal_shape(conv, target_rows, target_cout)?)
    }

    /// The legalized shape [`EpitomeDesigner::design`] builds its spec on.
    fn legal_shape(
        &self,
        conv: ConvShape,
        target_rows: usize,
        target_cout: usize,
    ) -> Result<EpitomeShape, EpitomeError> {
        conv.validate()?;
        if target_rows == 0 || target_cout == 0 {
            return Err(EpitomeError::geometry("design targets must be nonzero"));
        }
        let rows = self.align(target_rows.min(conv.matrix_rows()), self.xbar_rows);
        let cout = self.align(target_cout.min(conv.cout), self.xbar_cols);
        let (cin_e, h, w) = factor_rows(rows, conv);
        Ok(EpitomeShape::new(cout, cin_e, h, w))
    }

    /// Rounds `value` down to a multiple of `unit` when it is at least one
    /// unit; smaller values are kept (a sub-crossbar epitome is legal, it
    /// just underutilizes one crossbar).
    fn align(&self, value: usize, unit: usize) -> usize {
        if value >= unit {
            (value / unit) * unit
        } else {
            value.max(1)
        }
    }

    /// The identity candidate: an epitome with exactly the convolution's
    /// shape. One activation round, compression 1 — the "keep this layer
    /// big" option the layer-wise search needs for sensitive layers
    /// (paper §5.2: "larger epitomes for those more sensitive").
    ///
    /// # Errors
    ///
    /// Returns [`EpitomeError::InvalidGeometry`] if `conv` has a zero
    /// extent.
    pub fn identity(&self, conv: ConvShape) -> Result<EpitomeSpec, EpitomeError> {
        EpitomeSpec::new(
            conv,
            EpitomeShape::new(conv.cout, conv.cin, conv.kh, conv.kw),
        )
    }

    /// Generates the candidate ladder for one layer: the identity (no
    /// compression) plus every combination of row fractions
    /// `{1, 1/2, 1/4, 1/8}` and cout fractions `{1, 1/2, 1/4}`,
    /// legalized and deduplicated. This is the per-layer choice set `C`
    /// the evolutionary search explores (paper §5.2). Candidate 0 is
    /// always the identity.
    ///
    /// # Errors
    ///
    /// Returns [`EpitomeError::InvalidGeometry`] if `conv` has a zero
    /// extent.
    pub fn candidates(&self, conv: ConvShape) -> Result<Vec<EpitomeSpec>, EpitomeError> {
        conv.validate()?;
        // Deduplicate on the shape: a spec (plan and patch list) is built
        // only for the shapes that stay.
        let mut shapes = vec![EpitomeShape::new(conv.cout, conv.cin, conv.kh, conv.kw)];
        let full_rows = conv.matrix_rows();
        let full_cout = conv.cout;
        for row_div in [1usize, 2, 4, 8] {
            for cout_div in [1usize, 2, 4] {
                let rows = (full_rows / row_div).max(1);
                let cout = (full_cout / cout_div).max(1);
                let shape = self.legal_shape(conv, rows, cout)?;
                if !shapes.contains(&shape) {
                    shapes.push(shape);
                }
            }
        }
        let mut specs = Vec::with_capacity(shapes.len());
        for shape in shapes {
            specs.push(EpitomeSpec::new(conv, shape)?);
        }
        Ok(specs)
    }
}

impl Default for EpitomeDesigner {
    fn default() -> Self {
        // 128x128 crossbars: the geometry used throughout the paper's
        // evaluation (inherited from MNSIM).
        EpitomeDesigner::new(128, 128)
    }
}

/// Factors a row budget into `(c_in_e, p, q)` with `c_in_e * p * q == rows`
/// (or as close as divisibility allows), preferring spatial windows close
/// to the kernel and `c_in_e ≤ c_in`.
fn factor_rows(rows: usize, conv: ConvShape) -> (usize, usize, usize) {
    // Candidate spatial windows, largest first, bounded by the kernel.
    let mut windows: Vec<(usize, usize)> = Vec::new();
    for h in (1..=conv.kh).rev() {
        for w in (1..=conv.kw).rev() {
            windows.push((h, w));
        }
    }
    windows.sort_by_key(|&(h, w)| std::cmp::Reverse(h * w));
    // First pass: exact factorization with c_in_e <= c_in.
    for &(h, w) in &windows {
        if rows.is_multiple_of(h * w) && rows / (h * w) <= conv.cin {
            return (rows / (h * w), h, w);
        }
    }
    // Second pass: exact factorization, any c_in_e.
    for &(h, w) in &windows {
        if rows.is_multiple_of(h * w) {
            return (rows / (h * w), h, w);
        }
    }
    // Fallback: a 1x1 spatial window always factors.
    (rows, 1, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_uniform_design() {
        // 1024x256 for a 512x256x3x3 conv must produce 256x2x2 channels.
        let d = EpitomeDesigner::new(128, 128);
        let spec = d.design(ConvShape::new(512, 256, 3, 3), 1024, 256).unwrap();
        let s = spec.shape();
        assert_eq!(s.matrix_rows(), 1024);
        assert_eq!(s.cout, 256);
        assert_eq!((s.cin, s.h, s.w), (256, 2, 2));
    }

    #[test]
    fn candidates_are_the_deduplicated_ladder_of_designs() {
        let d = EpitomeDesigner::new(128, 128);
        for conv in [
            ConvShape::new(512, 256, 3, 3),
            ConvShape::new(64, 64, 1, 1), // sub-crossbar: the ladder collapses
            ConvShape::new(256, 64, 1, 1),
            ConvShape::new(7, 5, 3, 2),
        ] {
            let mut want = vec![d.identity(conv).unwrap()];
            for row_div in [1usize, 2, 4, 8] {
                for cout_div in [1usize, 2, 4] {
                    let rows = (conv.matrix_rows() / row_div).max(1);
                    let spec = d.design(conv, rows, (conv.cout / cout_div).max(1)).unwrap();
                    if !want.iter().any(|s| s.shape() == spec.shape()) {
                        want.push(spec);
                    }
                }
            }
            assert_eq!(d.candidates(conv).unwrap(), want, "{conv}");
        }
        assert!(d.candidates(ConvShape::new(0, 4, 3, 3)).is_err());
    }

    #[test]
    fn rows_aligned_to_crossbar() {
        let d = EpitomeDesigner::new(128, 128);
        // 1000 rounds down to 896 = 7*128.
        let spec = d.design(ConvShape::new(512, 256, 3, 3), 1000, 300).unwrap();
        assert_eq!(spec.shape().matrix_rows() % 128, 0);
        assert_eq!(spec.shape().cout % 128, 0);
    }

    #[test]
    fn capped_at_conv_size() {
        let d = EpitomeDesigner::new(128, 128);
        let conv = ConvShape::new(64, 64, 3, 3); // rows 576, cout 64
        let spec = d.design(conv, 100_000, 100_000).unwrap();
        assert!(spec.shape().matrix_rows() <= conv.matrix_rows());
        assert!(spec.shape().cout <= conv.cout);
    }

    #[test]
    fn sub_crossbar_epitome_allowed() {
        let d = EpitomeDesigner::new(128, 128);
        let conv = ConvShape::new(16, 16, 3, 3);
        let spec = d.design(conv, 64, 8).unwrap();
        assert!(spec.shape().matrix_rows() >= 1);
        assert!(spec.shape().cout >= 1);
    }

    #[test]
    fn zero_targets_rejected() {
        let d = EpitomeDesigner::default();
        assert!(d.design(ConvShape::new(8, 8, 3, 3), 0, 4).is_err());
        assert!(d.design(ConvShape::new(8, 8, 3, 3), 4, 0).is_err());
    }

    #[test]
    fn candidates_are_unique_and_include_identity_scale() {
        let d = EpitomeDesigner::new(128, 128);
        let conv = ConvShape::new(512, 256, 3, 3);
        let cands = d.candidates(conv).unwrap();
        assert!(cands.len() >= 4, "got {}", cands.len());
        // All shapes distinct.
        for i in 0..cands.len() {
            for j in (i + 1)..cands.len() {
                assert_ne!(cands[i].shape(), cands[j].shape());
            }
        }
        // The least-compressed candidate has (aligned) full size.
        let max_rows = cands.iter().map(|c| c.shape().matrix_rows()).max().unwrap();
        assert!(max_rows >= (conv.matrix_rows() / 128) * 128);
    }

    #[test]
    fn candidates_for_tiny_layer() {
        let d = EpitomeDesigner::new(128, 128);
        let cands = d.candidates(ConvShape::new(8, 3, 3, 3)).unwrap();
        assert!(!cands.is_empty());
        for c in &cands {
            c.plan().verify().unwrap();
        }
    }

    #[test]
    fn factor_prefers_spatial_window() {
        // 1024 rows for a 3x3 kernel with cin 256 -> (256, 2, 2), not
        // (1024, 1, 1).
        let (cin_e, h, w) = factor_rows(1024, ConvShape::new(512, 256, 3, 3));
        assert_eq!((cin_e, h, w), (256, 2, 2));
        // 576 = 64*9 factors with the full kernel window.
        let (cin_e, h, w) = factor_rows(576, ConvShape::new(64, 64, 3, 3));
        assert_eq!((cin_e, h, w), (64, 3, 3));
    }

    #[test]
    fn designed_plans_verify() {
        let d = EpitomeDesigner::new(64, 64);
        for conv in [
            ConvShape::new(512, 256, 3, 3),
            ConvShape::new(64, 3, 7, 7),
            ConvShape::new(256, 64, 1, 1),
            ConvShape::new(2048, 512, 1, 1),
        ] {
            let spec = d
                .design(conv, conv.matrix_rows() / 2, conv.cout / 2)
                .unwrap();
            spec.plan().verify().unwrap();
        }
    }
}
