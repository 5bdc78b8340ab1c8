//! The crossbar matrix a weight tensor maps to, shared across the
//! workspace.

use crate::{ConvShape, EpitomeShape};
use serde::{Deserialize, Serialize};

/// The matrix a weight tensor maps to on memristor crossbars: input
/// channels × kernel window on the word lines, output channels on the bit
/// lines (paper §4.1, following MNSIM's mapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MappedMatrix {
    /// Word-line rows.
    pub rows: usize,
    /// Bit-line columns (before bit-slicing).
    pub cols: usize,
}

impl MappedMatrix {
    /// Creates a mapped matrix directly.
    pub fn new(rows: usize, cols: usize) -> Self {
        MappedMatrix { rows, cols }
    }

    /// The matrix a convolution maps to.
    pub fn from_conv(conv: ConvShape) -> Self {
        MappedMatrix {
            rows: conv.matrix_rows(),
            cols: conv.matrix_cols(),
        }
    }

    /// The matrix an epitome maps to.
    pub fn from_epitome(shape: EpitomeShape) -> Self {
        MappedMatrix {
            rows: shape.matrix_rows(),
            cols: shape.matrix_cols(),
        }
    }

    /// Number of matrix cells.
    pub fn cells(&self) -> usize {
        self.rows * self.cols
    }
}

impl std::fmt::Display for MappedMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapped_matrix_from_shapes() {
        let conv = ConvShape::new(512, 256, 3, 3);
        let m = MappedMatrix::from_conv(conv);
        assert_eq!((m.rows, m.cols), (2304, 512));
        assert_eq!(m.cells(), 2304 * 512);

        let e = EpitomeShape::new(256, 256, 2, 2);
        let me = MappedMatrix::from_epitome(e);
        assert_eq!((me.rows, me.cols), (1024, 256));
        assert_eq!(me.to_string(), "1024x256");
    }
}
