//! Fully-connected (linear) layer.

use crate::ops::gemm::{self, PackedWeights};
use crate::{Tensor, TensorError};

/// Linear layer forward: `y = x W^T + b`.
///
/// `x` is `(N, In)`, `weight` is `(Out, In)`, `bias` (optional) `(Out)`.
/// Returns `(N, Out)`.
///
/// Runs on the stride-aware GEMM kernel: `Wᵀ` is read through strides (no
/// transpose copy) and the bias is fused into the output prefill instead of
/// a second pass.
///
/// # Errors
///
/// Returns rank/shape errors when operands disagree.
pub fn linear(x: &Tensor, weight: &Tensor, bias: Option<&Tensor>) -> Result<Tensor, TensorError> {
    if x.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: x.rank(),
            op: "linear",
        });
    }
    if weight.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: weight.rank(),
            op: "linear",
        });
    }
    let (n, in_features) = (x.shape()[0], x.shape()[1]);
    let (out_features, w_in) = (weight.shape()[0], weight.shape()[1]);
    if w_in != in_features {
        return Err(TensorError::ShapeMismatch {
            expected: vec![in_features],
            actual: vec![w_in],
            op: "linear",
        });
    }
    if let Some(b) = bias {
        if b.shape() != [out_features] {
            return Err(TensorError::ShapeMismatch {
                expected: vec![out_features],
                actual: b.shape().to_vec(),
                op: "linear (bias)",
            });
        }
    }
    let mut y = vec![0.0f32; n * out_features];
    match bias {
        Some(b) => gemm::gemm_nt_bias_col(
            n,
            out_features,
            in_features,
            x.data(),
            weight.data(),
            b.data(),
            &mut y,
        ),
        None => gemm::gemm_nt(
            n,
            out_features,
            in_features,
            x.data(),
            weight.data(),
            &mut y,
        ),
    }
    Tensor::from_vec(y, &[n, out_features])
}

/// Slice-based [`linear`] on a weight packed once ([`PackedWeights`] of
/// the `(Out, In)` matrix for one pixel per image), with an optional fused
/// ReLU epilogue, for executors that run the same layer on every request.
///
/// `x` holds `n` rows of `In` features and `out` receives the `(n, Out)`
/// result. The product runs as `W · xᵀ`, one column per row of `x`, and is
/// transposed into place when `n > 1`: every element gets the arithmetic
/// [`linear`] gives it, so the result is bit-identical to [`linear`]
/// (followed by a separate ReLU when `relu` is set).
///
/// # Errors
///
/// Returns shape errors when `x`, `bias` or `out` disagree with the
/// weight.
pub fn linear_packed_into(
    x: &[f32],
    n: usize,
    weight: &PackedWeights,
    bias: Option<&Tensor>,
    relu: bool,
    out: &mut [f32],
) -> Result<(), TensorError> {
    let (out_features, in_features) = (weight.m(), weight.k());
    if x.len() != n * in_features {
        return Err(TensorError::ShapeMismatch {
            expected: vec![n, in_features],
            actual: vec![x.len()],
            op: "linear_packed_into",
        });
    }
    if let Some(b) = bias {
        if b.shape() != [out_features] {
            return Err(TensorError::ShapeMismatch {
                expected: vec![out_features],
                actual: b.shape().to_vec(),
                op: "linear_packed_into (bias)",
            });
        }
    }
    if out.len() < n * out_features {
        return Err(TensorError::invalid(
            "linear_packed_into: output slice too short",
        ));
    }
    let bias = bias.map(Tensor::data);
    if n == 1 {
        gemm::gemm_packed_nt(weight, 1, x, bias, relu, out);
        return Ok(());
    }
    let mut y_t = vec![0.0f32; out_features * n];
    gemm::gemm_packed_nt(weight, n, x, bias, relu, &mut y_t);
    for (o, col) in y_t.chunks(n).enumerate() {
        for (i, &v) in col.iter().enumerate() {
            out[i * out_features + o] = v;
        }
    }
    Ok(())
}

/// Gradients produced by [`linear_backward`].
#[derive(Debug, Clone)]
pub struct LinearGrads {
    /// Gradient w.r.t. the input, `(N, In)`.
    pub dx: Tensor,
    /// Gradient w.r.t. the weight, `(Out, In)`.
    pub dw: Tensor,
    /// Gradient w.r.t. the bias, `(Out)`.
    pub db: Tensor,
}

/// Backward pass of [`linear`].
///
/// `dW = dYᵀ · X` runs through [`gemm::gemm_tn`], so no transpose copy is
/// materialized.
///
/// # Errors
///
/// Returns rank/shape errors when operands disagree with the forward
/// geometry.
pub fn linear_backward(
    x: &Tensor,
    weight: &Tensor,
    dy: &Tensor,
) -> Result<LinearGrads, TensorError> {
    let (n, in_features) = (x.shape()[0], x.shape()[1]);
    let out_features = weight.shape()[0];
    if dy.shape() != [n, out_features] {
        return Err(TensorError::ShapeMismatch {
            expected: vec![n, out_features],
            actual: dy.shape().to_vec(),
            op: "linear_backward",
        });
    }
    let dx = dy.matmul(weight)?;
    let mut dw = vec![0.0f32; out_features * in_features];
    gemm::gemm_tn(out_features, in_features, n, dy.data(), x.data(), &mut dw);
    let dw = Tensor::from_vec(dw, &[out_features, in_features])?;
    let mut db = Tensor::zeros(&[out_features]);
    {
        let bd = db.data_mut();
        for row in dy.data().chunks(out_features) {
            for (b, &v) in bd.iter_mut().zip(row) {
                *b += v;
            }
        }
    }
    Ok(LinearGrads { dx, dw, db })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_known_values() {
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]).unwrap();
        let b = Tensor::from_vec(vec![0.5, -0.5, 0.0], &[3]).unwrap();
        let y = linear(&x, &w, Some(&b)).unwrap();
        assert_eq!(y.data(), &[1.5, 1.5, 3.0]);
    }

    #[test]
    fn bias_shape_checked() {
        let x = Tensor::zeros(&[1, 2]);
        let w = Tensor::zeros(&[3, 2]);
        let b = Tensor::zeros(&[2]);
        assert!(linear(&x, &w, Some(&b)).is_err());
    }

    #[test]
    fn backward_finite_difference() {
        let mut r = crate::rng::seeded(41);
        let x = crate::init::uniform(&[3, 4], -1.0, 1.0, &mut r);
        let w = crate::init::uniform(&[2, 4], -1.0, 1.0, &mut r);
        let y = linear(&x, &w, None).unwrap();
        let g = linear_backward(&x, &w, &y).unwrap();
        let eps = 1e-2f32;
        let loss = |x: &Tensor, w: &Tensor| linear(x, w, None).unwrap().norm_sq() / 2.0;
        for flat in 0..w.len() {
            let mut wp = w.clone();
            wp.data_mut()[flat] += eps;
            let mut wm = w.clone();
            wm.data_mut()[flat] -= eps;
            let fd = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
            assert!((fd - g.dw.data()[flat]).abs() < 0.02 * (1.0 + fd.abs()));
        }
        for flat in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[flat] += eps;
            let mut xm = x.clone();
            xm.data_mut()[flat] -= eps;
            let fd = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
            assert!((fd - g.dx.data()[flat]).abs() < 0.02 * (1.0 + fd.abs()));
        }
    }

    #[test]
    fn db_sums_over_batch() {
        let x = Tensor::ones(&[4, 2]);
        let w = Tensor::ones(&[3, 2]);
        let dy = Tensor::ones(&[4, 3]);
        let g = linear_backward(&x, &w, &dy).unwrap();
        assert_eq!(g.db.data(), &[4.0, 4.0, 4.0]);
    }
}
