//! Per-crossbar quantization of epitome weights (paper §4.2, first
//! adjustment: "given the parallel computation between PIM accelerator
//! crossbars, we allocate a scaling factor to each crossbar").

use crate::range::Runs;
use crate::{QuantError, Quantizer, RangeEstimator};
use epim_core::Epitome;
use epim_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Scaling-factor granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuantGranularity {
    /// One scaling factor for the whole tensor (the "Naïve Quant" column
    /// of Table 2).
    PerTensor,
    /// One scaling factor per crossbar tile of the mapped matrix
    /// (the "+ Adjust with Crossbars" column).
    PerCrossbar {
        /// Crossbar word lines (row-tile height).
        rows: usize,
        /// Crossbar bit lines (column-tile width).
        cols: usize,
    },
}

/// Result of quantizing a weight tensor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantReport {
    /// Bit width used.
    pub bits: u8,
    /// Number of independent scaling factors.
    pub groups: usize,
    /// Mean squared quantization error.
    pub mse: f64,
    /// Signal-to-quantization-noise ratio in dB (`10·log10(P_sig/P_err)`),
    /// `inf` for exact quantization.
    pub sqnr_db: f64,
}

/// Where element `(row, col)` of a mapped matrix sits in a flat slice:
/// `row·row_stride + col·col_stride`, one of the strides being 1. Row-major
/// storage has unit column stride. An epitome tensor
/// `(c_out, c_in, h, w)` *is* its mapped matrix `(c_in·h·w, c_out)`
/// transposed — element `(row, co)` sits at `co·rows + row` — so it has
/// unit row stride, and quantizing it needs no transposed copy either way.
#[derive(Debug, Clone, Copy)]
struct MatrixLayout {
    rows: usize,
    cols: usize,
    row_stride: usize,
    col_stride: usize,
}

impl MatrixLayout {
    /// The contiguous runs holding the tile `rows x cols`.
    fn tile(&self, rows: Range<usize>, cols: Range<usize>) -> Runs {
        let first = rows.start * self.row_stride + cols.start * self.col_stride;
        let (along, across) = if self.col_stride == 1 {
            (cols, rows)
        } else {
            (rows, cols)
        };
        Runs {
            first,
            step: self.row_stride.max(self.col_stride),
            count: across.len(),
            len: along.len(),
        }
    }
}

/// Both sums run in the mapped matrix's row-major order whatever the
/// memory layout: `f32` addition is order-sensitive and the reported bits
/// are pinned by `benchmark/golden/design_r50.json`.
fn report(
    bits: u8,
    groups: usize,
    original: &[f32],
    quantized: &[f32],
    layout: MatrixLayout,
) -> QuantReport {
    let (mut err, mut signal) = (0.0f32, 0.0f32);
    for row in 0..layout.rows {
        for col in 0..layout.cols {
            let i = row * layout.row_stride + col * layout.col_stride;
            let (w, q) = (original[i], quantized[i]);
            err += (w - q) * (w - q);
            signal += w * w;
        }
    }
    let len = layout.rows * layout.cols;
    let mse = (err / len as f32) as f64;
    let p_sig = signal as f64 / len as f64;
    let sqnr_db = if mse <= 0.0 {
        f64::INFINITY
    } else {
        10.0 * (p_sig / mse).log10()
    };
    QuantReport {
        bits,
        groups,
        mse,
        sqnr_db,
    }
}

/// The slice kernel behind [`quantize_per_crossbar`] and
/// [`quantize_epitome`]: a crossbar tile is a handful of contiguous runs of
/// `original` ([`MatrixLayout::tile`]), scanned in place for its range and
/// fake-quantized in place in the returned copy.
fn quantize_tiles(
    original: &[f32],
    repetition: Option<&[f32]>,
    layout: MatrixLayout,
    (tile_rows, tile_cols): (usize, usize),
    bits: u8,
    range: &RangeEstimator,
) -> Result<(Vec<f32>, QuantReport), QuantError> {
    if tile_rows == 0 || tile_cols == 0 {
        return Err(QuantError::invalid("tile extents must be nonzero"));
    }
    if original.is_empty() {
        return Err(QuantError::invalid("cannot quantize an empty matrix"));
    }
    let mut out = original.to_vec();
    let mut groups = 0usize;
    for r0 in (0..layout.rows).step_by(tile_rows) {
        let r1 = r0.saturating_add(tile_rows).min(layout.rows);
        for c0 in (0..layout.cols).step_by(tile_cols) {
            let c1 = c0.saturating_add(tile_cols).min(layout.cols);
            let runs = layout.tile(r0..r1, c0..c1);
            let (alpha, beta) = range.estimate_runs(original, repetition, runs)?;
            let q = Quantizer::from_range(bits, alpha, beta)?;
            for start in runs.starts() {
                q.fake_quant_slice(&mut out[start..start + runs.len]);
            }
            groups += 1;
        }
    }
    let rep = report(bits, groups, original, &out, layout);
    Ok((out, rep))
}

/// Quantizes a mapped weight matrix `(rows, cols)` with one scaling factor
/// per `rows_tile x cols_tile` crossbar, returning the fake-quantized
/// matrix and a report.
///
/// `repetition` (same shape) enables overlap-weighted ranges inside each
/// tile.
///
/// # Errors
///
/// Returns [`QuantError::InvalidParameter`] for a non-matrix or empty
/// input, zero tile extents or estimator failures.
pub fn quantize_per_crossbar(
    matrix: &Tensor,
    repetition: Option<&Tensor>,
    bits: u8,
    tile_rows: usize,
    tile_cols: usize,
    range: &RangeEstimator,
) -> Result<(Tensor, QuantReport), QuantError> {
    if matrix.rank() != 2 {
        return Err(QuantError::invalid(
            "per-crossbar quantization expects a matrix",
        ));
    }
    if repetition.is_some_and(|reps| reps.shape() != matrix.shape()) {
        return Err(QuantError::invalid("repetition map shape mismatch"));
    }
    let (rows, cols) = (matrix.shape()[0], matrix.shape()[1]);
    let (out, rep) = quantize_tiles(
        matrix.data(),
        repetition.map(Tensor::data),
        MatrixLayout {
            rows,
            cols,
            row_stride: cols,
            col_stride: 1,
        },
        (tile_rows, tile_cols),
        bits,
        range,
    )?;
    Ok((Tensor::from_vec(out, matrix.shape())?, rep))
}

/// Quantizes an epitome's parameters in their crossbar-mapped matrix form
/// `(c_in_e·h·w, c_out_e)` and returns them as a new epitome.
///
/// This is the full §4.2 pipeline: choose granularity, optionally weight
/// ranges by the epitome's repetition map, quantize, report.
///
/// # Errors
///
/// Propagates estimator and shape errors.
pub fn quantize_epitome(
    epitome: &Epitome,
    bits: u8,
    granularity: QuantGranularity,
    range: &RangeEstimator,
) -> Result<(Epitome, QuantReport), QuantError> {
    let shape = epitome.spec().shape();
    let (rows_e, cout_e) = (shape.matrix_rows(), shape.cout);
    let repetition =
        matches!(range, RangeEstimator::OverlapWeighted { .. }).then(|| epitome.repetition_map());
    let tile = match granularity {
        QuantGranularity::PerTensor => (rows_e, cout_e),
        QuantGranularity::PerCrossbar { rows, cols } => (rows, cols),
    };
    let (out, rep) = quantize_tiles(
        epitome.tensor().data(),
        repetition.as_ref().map(Tensor::data),
        MatrixLayout {
            rows: rows_e,
            cols: cout_e,
            row_stride: 1,
            col_stride: rows_e,
        },
        tile,
        bits,
        range,
    )?;
    let data = Tensor::from_vec(out, &shape.dims())?;
    Ok((Epitome::from_tensor(epitome.spec().clone(), data)?, rep))
}

#[cfg(test)]
mod tests {
    use super::*;
    use epim_core::{ConvShape, EpitomeShape, EpitomeSpec};
    use epim_tensor::{init, rng};

    fn random_epitome(seed: u64) -> Epitome {
        let spec =
            EpitomeSpec::new(ConvShape::new(16, 18, 3, 3), EpitomeShape::new(8, 10, 2, 2)).unwrap();
        let mut r = rng::seeded(seed);
        let data = init::uniform(&spec.shape().dims(), -1.0, 1.0, &mut r);
        Epitome::from_tensor(spec, data).unwrap()
    }

    #[test]
    fn per_crossbar_never_worse_than_per_tensor() {
        // Invariant: finer granularity cannot increase MSE.
        //
        // Deterministic construction (no RNG): how clearly per-tile scales
        // win depends on where zero falls in the whole-tensor grid, which a
        // random draw shifts arbitrarily. Two blocks with 50x different
        // dynamic ranges, both spanning their range exactly.
        let mut m = Tensor::zeros(&[8, 8]);
        for idx in 0..32usize {
            let frac = idx as f32 / 31.0;
            let (row, col) = (idx / 8, idx % 8);
            m.set(&[row, col], -0.1 + 0.2 * frac).unwrap();
            m.set(&[row + 4, col], -5.0 + 10.0 * frac).unwrap();
        }
        let (_, whole) = quantize_per_crossbar(&m, None, 3, 8, 8, &RangeEstimator::MinMax).unwrap();
        let (_, tiled) = quantize_per_crossbar(&m, None, 3, 4, 8, &RangeEstimator::MinMax).unwrap();
        assert_eq!(whole.groups, 1);
        assert_eq!(tiled.groups, 2);
        assert!(
            tiled.mse <= whole.mse,
            "tiled {} whole {}",
            tiled.mse,
            whole.mse
        );
        assert!(
            tiled.mse < whole.mse * 0.5,
            "per-crossbar should win clearly here"
        );
    }

    #[test]
    fn group_count_matches_tiling() {
        let m = Tensor::ones(&[10, 10]);
        let (_, r) = quantize_per_crossbar(&m, None, 4, 4, 4, &RangeEstimator::MinMax).unwrap();
        assert_eq!(r.groups, 9); // ceil(10/4)^2
    }

    #[test]
    fn invalid_inputs_rejected() {
        let m = Tensor::ones(&[4, 4]);
        assert!(quantize_per_crossbar(&m, None, 4, 0, 4, &RangeEstimator::MinMax).is_err());
        let v = Tensor::ones(&[4]);
        assert!(quantize_per_crossbar(&v, None, 4, 2, 2, &RangeEstimator::MinMax).is_err());
        let reps = Tensor::ones(&[2, 2]);
        assert!(quantize_per_crossbar(&m, Some(&reps), 4, 2, 2, &RangeEstimator::MinMax).is_err());
    }

    #[test]
    fn empty_matrix_is_invalid() {
        for shape in [[0usize, 4], [4, 0], [0, 0]] {
            let m = Tensor::zeros(&shape);
            let err = quantize_per_crossbar(&m, None, 4, 2, 2, &RangeEstimator::MinMax);
            assert!(
                matches!(err, Err(QuantError::InvalidParameter { .. })),
                "{shape:?}: {err:?}"
            );
        }
    }

    #[test]
    fn invalid_bits_and_overlap_weights_rejected() {
        // The first tile's range estimate fails, before anything is
        // quantized.
        let m = Tensor::ones(&[4, 4]);
        let reps = Tensor::ones(&[4, 4]);
        let bad = RangeEstimator::OverlapWeighted { w1: -1.0, w2: 0.5 };
        let nothing = RangeEstimator::OverlapWeighted { w1: 0.0, w2: 0.0 };
        for range in [bad, nothing] {
            let err = quantize_per_crossbar(&m, Some(&reps), 4, 2, 2, &range);
            assert!(matches!(err, Err(QuantError::InvalidParameter { .. })));
            let err = quantize_epitome(&random_epitome(5), 4, QuantGranularity::PerTensor, &range);
            assert!(matches!(err, Err(QuantError::InvalidParameter { .. })));
        }
        for bits in [0u8, 17] {
            assert!(quantize_per_crossbar(&m, None, bits, 2, 2, &RangeEstimator::MinMax).is_err());
        }
        // Overlap weighting without a map is an error too, not a panic.
        let overlap = RangeEstimator::overlap_default();
        assert!(quantize_per_crossbar(&m, None, 4, 2, 2, &overlap).is_err());
    }

    #[test]
    fn constant_tiles_survive_exactly() {
        // Each 2x3 tile is constant: the degenerate unit-step quantizer
        // must reproduce it exactly, and the report says so.
        let m = Tensor::from_fn(&[4, 6], |idx| {
            (idx[0] / 2 * 2 + idx[1] / 3) as f32 * 0.37 - 0.5
        });
        let (q, rep) = quantize_per_crossbar(&m, None, 3, 2, 3, &RangeEstimator::MinMax).unwrap();
        assert_eq!(q, m);
        assert_eq!(rep.groups, 4);
        assert_eq!(rep.mse, 0.0);
        assert_eq!(rep.sqnr_db, f64::INFINITY);
    }

    #[test]
    fn infinite_weights_are_rejected_and_nan_weights_ignored_by_the_range() {
        let mut m = Tensor::ones(&[2, 20]);
        m.data_mut()[3] = f32::INFINITY;
        assert!(quantize_per_crossbar(&m, None, 4, 2, 20, &RangeEstimator::MinMax).is_err());
        m.data_mut()[3] = f32::NAN;
        m.data_mut()[7] = -1.0;
        let (_, rep) = quantize_per_crossbar(&m, None, 4, 2, 20, &RangeEstimator::MinMax).unwrap();
        assert_eq!(rep.groups, 1);
        m.data_mut().fill(f32::NAN);
        assert!(quantize_per_crossbar(&m, None, 4, 2, 20, &RangeEstimator::MinMax).is_err());
    }

    #[test]
    fn quantize_epitome_preserves_shape_and_reduces_precision() {
        let e = random_epitome(1);
        let (q, rep) =
            quantize_epitome(&e, 3, QuantGranularity::PerTensor, &RangeEstimator::MinMax).unwrap();
        assert_eq!(q.tensor().shape(), e.tensor().shape());
        assert!(rep.mse > 0.0);
        assert!(rep.sqnr_db.is_finite());
        // 9-bit should be much closer than 3-bit.
        let (_, rep9) =
            quantize_epitome(&e, 9, QuantGranularity::PerTensor, &RangeEstimator::MinMax).unwrap();
        assert!(rep9.mse < rep.mse / 10.0);
    }

    #[test]
    fn table2_ablation_ordering_on_mse() {
        // The ablation of Table 2, at the weight-error level: naive
        // per-tensor >= per-crossbar >= per-crossbar + overlap weighting
        // is not guaranteed elementwise for the overlap step (it trades
        // range coverage for overlap fidelity), but per-crossbar must not
        // be worse than naive, and the overlap method must stay sane.
        let e = random_epitome(2);
        let naive = quantize_epitome(&e, 3, QuantGranularity::PerTensor, &RangeEstimator::MinMax)
            .unwrap()
            .1;
        let xbar = quantize_epitome(
            &e,
            3,
            QuantGranularity::PerCrossbar { rows: 16, cols: 4 },
            &RangeEstimator::MinMax,
        )
        .unwrap()
        .1;
        let overlap = quantize_epitome(
            &e,
            3,
            QuantGranularity::PerCrossbar { rows: 16, cols: 4 },
            &RangeEstimator::overlap_default(),
        )
        .unwrap()
        .1;
        assert!(
            xbar.mse <= naive.mse * 1.10,
            "xbar {} naive {}",
            xbar.mse,
            naive.mse
        );
        assert!(overlap.mse.is_finite() && overlap.mse > 0.0);
        assert!(xbar.groups > naive.groups);
        assert_eq!(overlap.groups, xbar.groups);
    }

    #[test]
    fn overlap_weighting_reduces_error_on_repeated_elements() {
        // The point of Eq. 4-5: error weighted by repetition count should
        // shrink, because the range hugs the overlap region.
        let e = random_epitome(3);
        let reps = e.repetition_map();
        assert!(reps.max() > reps.min());
        let weighted_mse = |q: &Epitome| -> f64 {
            let diff = q.tensor().sub(e.tensor()).unwrap();
            let num: f64 = diff
                .data()
                .iter()
                .zip(reps.data())
                .map(|(&d, &c)| (d * d * c) as f64)
                .sum();
            num / reps.sum() as f64
        };
        let (q_mm, _) = quantize_epitome(
            &e,
            3,
            QuantGranularity::PerCrossbar { rows: 8, cols: 4 },
            &RangeEstimator::MinMax,
        )
        .unwrap();
        let (q_ov, _) = quantize_epitome(
            &e,
            3,
            QuantGranularity::PerCrossbar { rows: 8, cols: 4 },
            &RangeEstimator::overlap_default(),
        )
        .unwrap();
        // Compare repetition-weighted error: overlap-aware should not be
        // worse (usually strictly better).
        assert!(
            weighted_mse(&q_ov) <= weighted_mse(&q_mm) * 1.05,
            "ov {} mm {}",
            weighted_mse(&q_ov),
            weighted_mse(&q_mm)
        );
    }

    #[test]
    fn quantized_epitome_reconstruction_error_bounded() {
        // Quantization error on the epitome translates to bounded error on
        // the reconstructed convolution (same values, just repeated).
        let e = random_epitome(4);
        let (q, rep) = quantize_epitome(
            &e,
            5,
            QuantGranularity::PerCrossbar { rows: 16, cols: 8 },
            &RangeEstimator::MinMax,
        )
        .unwrap();
        let w = e.reconstruct().unwrap();
        let wq = q.reconstruct().unwrap();
        let w_mse = w.mse(&wq).unwrap() as f64;
        // Reconstruction MSE is a repetition-weighted average of epitome
        // MSE; with max repetition m it cannot exceed m * epitome MSE.
        let max_rep = e.repetition_map().max() as f64;
        assert!(w_mse <= rep.mse * max_rep + 1e-9);
    }
}
