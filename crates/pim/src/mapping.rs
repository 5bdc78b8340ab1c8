//! Weight-matrix to crossbar mapping.
//!
//! Follows the mapping of MNSIM / the paper's §4.1: the `c_in × kh × kw`
//! dimension goes to word lines, `c_out` to bit lines, and each weight is
//! bit-sliced across `ceil(weight_bits / cell_bits)` adjacent columns.

use crate::{CrossbarConfig, PimError, Precision};
use epim_core::MappedMatrix;
use serde::{Deserialize, Serialize};

/// Result of mapping one weight matrix onto crossbars.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mapping {
    /// The logical matrix (before bit slicing).
    pub matrix: MappedMatrix,
    /// Bit slices per weight.
    pub slices: usize,
    /// Crossbar tiles along the row (word-line) dimension.
    pub row_tiles: usize,
    /// Crossbar tiles along the sliced column (bit-line) dimension.
    pub col_tiles: usize,
    /// Total crossbars allocated.
    pub crossbars: usize,
    /// Fraction of allocated cells actually holding weights, in `(0, 1]`.
    pub utilization: f64,
}

impl Mapping {
    /// Maps `matrix` onto crossbars of geometry `xbar` at `precision`.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::InvalidConfig`] for invalid geometry/precision
    /// and [`PimError::GeometryMismatch`] for an empty matrix.
    pub fn new(
        matrix: MappedMatrix,
        xbar: CrossbarConfig,
        precision: Precision,
    ) -> Result<Self, PimError> {
        xbar.validate()?;
        precision.validate()?;
        if matrix.rows == 0 || matrix.cols == 0 {
            return Err(PimError::geometry("cannot map an empty matrix"));
        }
        let slices = (precision.weight_bits as usize).div_ceil(xbar.cell_bits as usize);
        let sliced_cols = matrix.cols * slices;
        let row_tiles = matrix.rows.div_ceil(xbar.rows);
        let col_tiles = sliced_cols.div_ceil(xbar.cols);
        let crossbars = row_tiles * col_tiles;
        let used = matrix.rows * sliced_cols;
        let utilization = used as f64 / (crossbars * xbar.cells()) as f64;
        Ok(Mapping {
            matrix,
            slices,
            row_tiles,
            col_tiles,
            crossbars,
            utilization,
        })
    }

    /// Physical cells used by the weights (rows × sliced columns).
    pub fn used_cells(&self) -> usize {
        self.matrix.rows * self.matrix.cols * self.slices
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xb() -> CrossbarConfig {
        CrossbarConfig::default() // 128x128, 2-bit cells
    }

    #[test]
    fn exact_fit_full_utilization() {
        // 1024x256 epitome at W8 (4 slices): 1024 rows = 8 tiles,
        // 256*4 = 1024 cols = 8 tiles; utilization 1.0.
        let m = Mapping::new(MappedMatrix::new(1024, 256), xb(), Precision::new(8, 8)).unwrap();
        assert_eq!(m.slices, 4);
        assert_eq!(m.row_tiles, 8);
        assert_eq!(m.col_tiles, 8);
        assert_eq!(m.crossbars, 64);
        assert!((m.utilization - 1.0).abs() < 1e-12);
    }

    #[test]
    fn odd_bits_round_up_slices() {
        // W9 with 2-bit cells -> 5 slices (paper's W9A9 rows).
        let m = Mapping::new(MappedMatrix::new(128, 128), xb(), Precision::new(9, 9)).unwrap();
        assert_eq!(m.slices, 5);
        assert_eq!(m.col_tiles, 5);
        assert_eq!(m.crossbars, 5);
    }

    #[test]
    fn w3_uses_fewer_crossbars_than_w9() {
        let mat = MappedMatrix::new(2304, 512);
        let w9 = Mapping::new(mat, xb(), Precision::new(9, 9)).unwrap();
        let w3 = Mapping::new(mat, xb(), Precision::new(3, 9)).unwrap();
        assert!(w3.crossbars < w9.crossbars);
        assert_eq!(w3.slices, 2);
    }

    #[test]
    fn ragged_matrix_underutilizes() {
        let m = Mapping::new(MappedMatrix::new(129, 1), xb(), Precision::new(2, 2)).unwrap();
        assert_eq!(m.row_tiles, 2);
        assert_eq!(m.col_tiles, 1);
        assert!(m.utilization < 0.01);
        assert!(m.utilization > 0.0);
    }

    #[test]
    fn utilization_bounded() {
        for (r, c) in [(1, 1), (128, 128), (100, 333), (4096, 4096)] {
            let m = Mapping::new(MappedMatrix::new(r, c), xb(), Precision::new(9, 9)).unwrap();
            assert!(m.utilization > 0.0 && m.utilization <= 1.0);
            assert_eq!(m.crossbars, m.row_tiles * m.col_tiles);
        }
    }

    #[test]
    fn empty_matrix_rejected() {
        assert!(Mapping::new(MappedMatrix::new(0, 4), xb(), Precision::default()).is_err());
        assert!(Mapping::new(MappedMatrix::new(4, 0), xb(), Precision::default()).is_err());
    }

    #[test]
    fn epitome_never_more_crossbars_than_conv() {
        // Invariant: epitome mapping uses no more crossbars than the conv
        // it replaces.
        use epim_core::{ConvShape, EpitomeDesigner};
        let conv = ConvShape::new(512, 256, 3, 3);
        let d = EpitomeDesigner::new(128, 128);
        let spec = d.design(conv, 1024, 256).unwrap();
        let p = Precision::new(9, 9);
        let mc = Mapping::new(MappedMatrix::from_conv(conv), xb(), p).unwrap();
        let me = Mapping::new(MappedMatrix::from_epitome(spec.shape()), xb(), p).unwrap();
        assert!(me.crossbars < mc.crossbars);
    }
}
