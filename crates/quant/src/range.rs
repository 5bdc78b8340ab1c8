//! Clipping-range estimation, including the paper's overlap-weighted
//! method (Eq. 4–5).

use crate::QuantError;
use epim_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Strategy for choosing the clipping range `[α, β]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RangeEstimator {
    /// Plain min/max of the signal ("a straightforward choice", §2.3).
    MinMax,
    /// The paper's epitome-aware estimate (Eq. 4–5): split elements into
    /// the highly-repeated overlap region and the rest, then blend:
    ///
    /// ```text
    /// α = w1·min(overlap) + w2·min(others)
    /// β = w1·max(overlap) + w2·max(others)
    /// ```
    ///
    /// Requires a repetition map (pass it to [`RangeEstimator::estimate`]).
    /// An element belongs to the overlap region when its repetition count
    /// exceeds the minimum count in the tensor.
    OverlapWeighted {
        /// Weight of the overlap (highly repeated, more important) region.
        w1: f32,
        /// Weight of the rest.
        w2: f32,
    },
}

impl RangeEstimator {
    /// The paper's default overlap weighting (importance skewed towards
    /// the overlap region).
    pub fn overlap_default() -> Self {
        RangeEstimator::OverlapWeighted { w1: 0.7, w2: 0.3 }
    }

    /// Estimates `[α, β]` for `tensor`.
    ///
    /// `repetition` is required by [`RangeEstimator::OverlapWeighted`] and
    /// ignored by [`RangeEstimator::MinMax`].
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidParameter`] for an empty tensor,
    /// missing/mismatched repetition map, or non-positive weights.
    pub fn estimate(
        &self,
        tensor: &Tensor,
        repetition: Option<&Tensor>,
    ) -> Result<(f32, f32), QuantError> {
        let overlap = matches!(self, RangeEstimator::OverlapWeighted { .. });
        if overlap && repetition.is_some_and(|reps| reps.shape() != tensor.shape()) {
            return Err(QuantError::invalid(
                "repetition map shape does not match tensor",
            ));
        }
        let whole = Runs {
            first: 0,
            step: 0,
            count: 1,
            len: tensor.len(),
        };
        self.estimate_runs(tensor.data(), repetition.map(Tensor::data), whole)
    }

    /// [`RangeEstimator::estimate`] over the elements `runs` picks out of
    /// `vals` (and out of `reps`, laid out alike) — one crossbar tile read
    /// in place. The caller guarantees `reps`, when given, is as long as
    /// `vals`.
    ///
    /// The scan keeps [`LANES`] running extrema the compiler vectorizes, so
    /// the order elements meet is not the slice order. Extrema of finite
    /// values do not depend on it. A NaN never replaces a running extremum
    /// (as with `f32::min`/`f32::max`), so NaN weights are ignored and an
    /// all-NaN or infinite tile yields a non-finite range, which
    /// [`crate::Quantizer::from_range`] rejects. Which sign a zero extremum
    /// carries is unspecified; it cannot reach a quantized value
    /// (`x − ±0.0` and `q·S + ±0.0` round alike for every `x`, `q ≠ 0`, and
    /// code 0 dequantizes to `+0.0` under either).
    pub(crate) fn estimate_runs(
        &self,
        vals: &[f32],
        reps: Option<&[f32]>,
        runs: Runs,
    ) -> Result<(f32, f32), QuantError> {
        if runs.count * runs.len == 0 {
            return Err(QuantError::invalid(
                "cannot estimate a range on an empty tensor",
            ));
        }
        match *self {
            RangeEstimator::MinMax => Ok(extrema(vals, runs)),
            RangeEstimator::OverlapWeighted { w1, w2 } => {
                if w1 < 0.0 || w2 < 0.0 || w1 + w2 <= 0.0 {
                    return Err(QuantError::invalid("overlap weights must be non-negative"));
                }
                let reps = reps.ok_or_else(|| {
                    QuantError::invalid("OverlapWeighted requires a repetition map")
                })?;
                // Normalize weights so degenerate cases stay in range.
                let (w1, w2) = (w1 / (w1 + w2), w2 / (w1 + w2));
                let (threshold, _) = extrema(reps, runs);
                let (ov, rest) = split_extrema(vals, reps, threshold, runs);
                // If one region is empty (uniform repetition), fall back to
                // the other region's extrema for both terms.
                let ov = if ov.0.is_finite() { ov } else { rest };
                let rest = if rest.0.is_finite() { rest } else { ov };
                let alpha = w1 * ov.0 + w2 * rest.0;
                let beta = w1 * ov.1 + w2 * rest.1;
                // The blend can invert when regions are disjoint in value;
                // guard by ordering.
                Ok((alpha.min(beta), alpha.max(beta)))
            }
        }
    }
}

/// `count` contiguous runs of `len` floats, the first at `first` and each
/// `step` after the one before: how a crossbar tile of a mapped matrix
/// lies in the flat slice holding it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Runs {
    pub first: usize,
    pub step: usize,
    pub count: usize,
    pub len: usize,
}

impl Runs {
    /// Start offset of every run.
    pub fn starts(&self) -> impl Iterator<Item = usize> {
        let (first, step) = (self.first, self.step);
        (0..self.count).map(move |i| first + i * step)
    }
}

/// Independent running extrema per scan: what lets the compiler compare a
/// vector of values at a time.
const LANES: usize = 16;

/// [`LANES`] running `(min, max)` pairs. A lane changes only on a strict
/// comparison, which a NaN never wins.
struct Extrema {
    lo: [f32; LANES],
    hi: [f32; LANES],
}

impl Extrema {
    const EMPTY: Extrema = Extrema {
        lo: [f32::INFINITY; LANES],
        hi: [f32::NEG_INFINITY; LANES],
    };

    #[inline(always)]
    fn take(&mut self, lane: usize, v: f32) {
        let (lo, hi) = (self.lo[lane], self.hi[lane]);
        self.lo[lane] = if v < lo { v } else { lo };
        self.hi[lane] = if v > hi { v } else { hi };
    }

    fn fold(self) -> (f32, f32) {
        let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
        for (&l, &h) in self.lo.iter().zip(&self.hi) {
            lo = if l < lo { l } else { lo };
            hi = if h > hi { h } else { hi };
        }
        (lo, hi)
    }
}

/// `(min, max)` over the runs of `vals`.
fn extrema(vals: &[f32], runs: Runs) -> (f32, f32) {
    let mut all = Extrema::EMPTY;
    for start in runs.starts() {
        for chunk in vals[start..start + runs.len].chunks(LANES) {
            for (lane, &v) in chunk.iter().enumerate() {
                all.take(lane, v);
            }
        }
    }
    all.fold()
}

/// `(min, max)` of the overlap region (`reps > threshold`) and of the
/// rest, over the runs of `vals`.
fn split_extrema(
    vals: &[f32],
    reps: &[f32],
    threshold: f32,
    runs: Runs,
) -> ((f32, f32), (f32, f32)) {
    let (mut ov, mut rest) = (Extrema::EMPTY, Extrema::EMPTY);
    for start in runs.starts() {
        let span = start..start + runs.len;
        for (v, c) in vals[span.clone()]
            .chunks(LANES)
            .zip(reps[span].chunks(LANES))
        {
            for (lane, (&v, &c)) in v.iter().zip(c).enumerate() {
                // Each region is offered a NaN in place of the other's
                // values.
                let overlap = c > threshold;
                ov.take(lane, if overlap { v } else { f32::NAN });
                rest.take(lane, if overlap { f32::NAN } else { v });
            }
        }
    }
    (ov.fold(), rest.fold())
}

#[cfg(test)]
mod tests {
    use super::*;
    use epim_core::{ConvShape, Epitome, EpitomeShape, EpitomeSpec};
    use epim_tensor::{init, rng};

    #[test]
    fn minmax_estimates_extrema() {
        let t = Tensor::from_vec(vec![-3.0, 0.5, 2.0], &[3]).unwrap();
        assert_eq!(
            RangeEstimator::MinMax.estimate(&t, None).unwrap(),
            (-3.0, 2.0)
        );
    }

    #[test]
    fn empty_tensor_rejected() {
        let t = Tensor::zeros(&[0]);
        assert!(RangeEstimator::MinMax.estimate(&t, None).is_err());
    }

    #[test]
    fn scan_reads_only_its_runs_and_ignores_nan() {
        // Two runs of 17 (a full lane group plus a tail) inside a slice
        // whose other elements would win every comparison.
        let runs = Runs {
            first: 2,
            step: 20,
            count: 2,
            len: 17,
        };
        let mut vals = vec![-100.0f32; 40];
        let mut reps = vec![0.0f32; 40];
        for start in runs.starts() {
            for i in start..start + 17 {
                vals[i] = i as f32 * 0.5;
                reps[i] = if i % 2 == 0 { 3.0 } else { 1.0 };
            }
        }
        vals[7] = f32::NAN;
        let mm = RangeEstimator::MinMax
            .estimate_runs(&vals, None, runs)
            .unwrap();
        assert_eq!(mm, (1.0, 19.0));
        // Overlap region: even indices 2..=38; the rest: odd 3..=37 less the NaN.
        let only_overlap = RangeEstimator::OverlapWeighted { w1: 1.0, w2: 0.0 };
        let only_rest = RangeEstimator::OverlapWeighted { w1: 0.0, w2: 1.0 };
        assert_eq!(
            only_overlap
                .estimate_runs(&vals, Some(&reps), runs)
                .unwrap(),
            (1.0, 19.0)
        );
        assert_eq!(
            only_rest.estimate_runs(&vals, Some(&reps), runs).unwrap(),
            (1.5, 18.5)
        );
        let none = Runs { count: 0, ..runs };
        assert!(RangeEstimator::MinMax
            .estimate_runs(&vals, None, none)
            .is_err());
    }

    #[test]
    fn overlap_requires_repetition() {
        let t = Tensor::ones(&[4]);
        let est = RangeEstimator::overlap_default();
        assert!(est.estimate(&t, None).is_err());
        let bad = Tensor::ones(&[5]);
        assert!(est.estimate(&t, Some(&bad)).is_err());
    }

    #[test]
    fn overlap_weights_validated() {
        let t = Tensor::ones(&[4]);
        let reps = Tensor::ones(&[4]);
        let est = RangeEstimator::OverlapWeighted { w1: -1.0, w2: 0.5 };
        assert!(est.estimate(&t, Some(&reps)).is_err());
    }

    #[test]
    fn overlap_blend_tightens_range_when_outliers_unrepeated() {
        // Outlier values sit in the low-repetition region: the weighted
        // range should be tighter than min/max.
        let t = Tensor::from_vec(vec![-10.0, -1.0, 1.0, 10.0], &[4]).unwrap();
        let reps = Tensor::from_vec(vec![1.0, 3.0, 3.0, 1.0], &[4]).unwrap();
        let (a_mm, b_mm) = RangeEstimator::MinMax.estimate(&t, None).unwrap();
        let (a_ov, b_ov) = RangeEstimator::overlap_default()
            .estimate(&t, Some(&reps))
            .unwrap();
        assert!(
            a_ov > a_mm && b_ov < b_mm,
            "[{a_ov}, {b_ov}] vs [{a_mm}, {b_mm}]"
        );
        // With w1=0.7: α = 0.7*(-1) + 0.3*(-10) = -3.7.
        assert!((a_ov + 3.7).abs() < 1e-5);
        assert!((b_ov - 3.7).abs() < 1e-5);
    }

    #[test]
    fn uniform_repetition_falls_back_to_minmax() {
        let t = Tensor::from_vec(vec![-2.0, 0.0, 2.0], &[3]).unwrap();
        let reps = Tensor::full(&[3], 4.0);
        let (a, b) = RangeEstimator::overlap_default()
            .estimate(&t, Some(&reps))
            .unwrap();
        assert_eq!((a, b), (-2.0, 2.0));
    }

    #[test]
    fn overlap_with_real_epitome_repetition_map() {
        // End-to-end with an actual epitome's repetition structure.
        let spec =
            EpitomeSpec::new(ConvShape::new(4, 9, 1, 1), EpitomeShape::new(4, 5, 1, 1)).unwrap();
        let mut r = rng::seeded(3);
        let data = init::uniform(&spec.shape().dims(), -1.0, 1.0, &mut r);
        let epi = Epitome::from_tensor(spec, data).unwrap();
        let reps = epi.repetition_map();
        assert!(reps.max() > reps.min()); // genuine overlap
        let (a, b) = RangeEstimator::overlap_default()
            .estimate(epi.tensor(), Some(&reps))
            .unwrap();
        assert!(a <= b);
        assert!(a >= epi.tensor().min() - 1e-6);
        assert!(b <= epi.tensor().max() + 1e-6);
    }
}
