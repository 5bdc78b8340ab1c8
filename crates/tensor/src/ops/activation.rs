//! Activation functions and the vectorized elementwise kernels behind the
//! fused serving stages.
//!
//! The serving pipeline's standalone `Relu`/`Add` stages, the fused
//! `Add → Relu` kernel and the row-wise softmax bottom out in generic
//! [`epim_simd::SimdOp`] bodies here, monomorphized per ISA (AVX-512F,
//! AVX2+FMA, scalar) by the shared `epim-simd` dispatcher — the same
//! framework behind the GEMM micro-kernel selection, the pooling kernels
//! and `epim_pim`'s quantizer.
//!
//! **Bit-exactness.** The graph-fusion invariant (fused programs bitwise
//! equal to the unfused reference) requires every arm of a kernel to agree
//! bitwise. Addition is the same IEEE op in scalar and vector form; the
//! relu clamp uses [`Simd::max`]`(v, 0.0)`, whose tie/NaN semantics are
//! pinned by the trait (`-0.0` maps to `+0.0` and `NaN` to `0.0` in every
//! arm). Softmax keeps its reductions (row max, normalizer sum) scalar in
//! index order — the house invariant vectorizes across independent
//! outputs, never inside an FP reduction — while the exp and divide
//! passes are elementwise and use the shared lanewise [`epim_simd::math::exp`],
//! which is bitwise identical across arms by construction.

use crate::{Tensor, TensorError};
use epim_simd::{dispatch, math, slice, ScalarSimd, Simd, SimdOp};

/// Rectified linear unit, elementwise.
pub fn relu(x: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(x.shape());
    relu_slice(x.data(), out.data_mut());
    out
}

/// Backward pass of [`relu`]: passes gradient where the input was positive.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `x` and `dy` differ in shape.
pub fn relu_backward(x: &Tensor, dy: &Tensor) -> Result<Tensor, TensorError> {
    x.zip(dy, |xv, g| if xv > 0.0 { g } else { 0.0 })
}

/// Logistic sigmoid, elementwise.
pub fn sigmoid(x: &Tensor) -> Tensor {
    x.map(|v| 1.0 / (1.0 + (-v).exp()))
}

/// `dst[i] = max(src[i], 0.0)`; every ISA arm agrees bitwise.
///
/// # Panics
///
/// Panics if `src` and `dst` lengths differ.
pub fn relu_slice(src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "relu_slice length mismatch");
    dispatch(ReluOp { src, dst });
}

/// `dst[i] = a[i] + b[i]` (the residual-shortcut add).
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn add_slice(a: &[f32], b: &[f32], dst: &mut [f32]) {
    assert_eq!(a.len(), dst.len(), "add_slice length mismatch");
    assert_eq!(b.len(), dst.len(), "add_slice length mismatch");
    dispatch(AddOp { a, b, dst });
}

/// `dst[i] = max(a[i] + b[i], 0.0)` in one traversal — the fused
/// `Add → Relu` stage. Bit-identical to [`add_slice`] followed by
/// [`relu_slice`].
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn add_relu_slice(a: &[f32], b: &[f32], dst: &mut [f32]) {
    assert_eq!(a.len(), dst.len(), "add_relu_slice length mismatch");
    assert_eq!(b.len(), dst.len(), "add_relu_slice length mismatch");
    dispatch(AddReluOp { a, b, dst });
}

struct ReluOp<'a> {
    src: &'a [f32],
    dst: &'a mut [f32],
}

impl SimdOp for ReluOp<'_> {
    type Output = ();
    #[inline(always)]
    fn eval<S: Simd>(self, s: S) {
        let zero = s.splat(0.0);
        slice::map(
            s,
            self.src,
            self.dst,
            #[inline(always)]
            |v| s.max(v, zero),
        );
    }
}

struct AddOp<'a> {
    a: &'a [f32],
    b: &'a [f32],
    dst: &'a mut [f32],
}

impl SimdOp for AddOp<'_> {
    type Output = ();
    #[inline(always)]
    fn eval<S: Simd>(self, s: S) {
        slice::zip_map(
            s,
            self.a,
            self.b,
            self.dst,
            #[inline(always)]
            |a, b| s.add(a, b),
        );
    }
}

struct AddReluOp<'a> {
    a: &'a [f32],
    b: &'a [f32],
    dst: &'a mut [f32],
}

impl SimdOp for AddReluOp<'_> {
    type Output = ();
    #[inline(always)]
    fn eval<S: Simd>(self, s: S) {
        let zero = s.splat(0.0);
        slice::zip_map(
            s,
            self.a,
            self.b,
            self.dst,
            #[inline(always)]
            |a, b| s.max(s.add(a, b), zero),
        );
    }
}

/// Row-wise softmax of a `(N, K)` matrix, numerically stabilized.
///
/// The row max and the normalizer sum are computed scalar in index order
/// (identical in every arm); the exp and divide passes vectorize
/// elementwise, so the result is bitwise identical across ISAs. Logits
/// are assumed finite.
///
/// # Errors
///
/// Returns a rank error for non-matrices.
pub fn softmax_rows(x: &Tensor) -> Result<Tensor, TensorError> {
    let (mut out, k) = softmax_prepare(x)?;
    dispatch(SoftmaxRowsOp {
        data: out.data_mut(),
        k,
    });
    Ok(out)
}

fn softmax_prepare(x: &Tensor) -> Result<(Tensor, usize), TensorError> {
    if x.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: x.rank(),
            op: "softmax",
        });
    }
    Ok((x.clone(), x.shape()[1]))
}

struct SoftmaxRowsOp<'a> {
    data: &'a mut [f32],
    k: usize,
}

impl SimdOp for SoftmaxRowsOp<'_> {
    type Output = ();
    #[inline(always)]
    fn eval<S: Simd>(self, s: S) {
        let k = self.k;
        if k == 0 {
            return;
        }
        let t = ScalarSimd;
        for row in self.data.chunks_exact_mut(k) {
            let mut m = f32::NEG_INFINITY;
            for &v in row.iter() {
                m = t.max(v, m);
            }
            let mv = s.splat(m);
            slice::map_in_place(
                s,
                row,
                #[inline(always)]
                |v| math::exp(s, s.sub(v, mv)),
            );
            let mut z = 0.0;
            for &v in row.iter() {
                z += v;
            }
            let zv = s.splat(z);
            slice::map_in_place(
                s,
                row,
                #[inline(always)]
                |v| s.div(v, zv),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epim_simd::{dispatch_on, run_scalar, CpuFeatures};

    #[test]
    fn relu_clamps_negative() {
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]).unwrap();
        assert_eq!(relu(&x).data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_backward_gates_gradient() {
        let x = Tensor::from_vec(vec![-1.0, 0.5], &[2]).unwrap();
        let dy = Tensor::from_vec(vec![3.0, 3.0], &[2]).unwrap();
        assert_eq!(relu_backward(&x, &dy).unwrap().data(), &[0.0, 3.0]);
    }

    /// Values chosen to stress the clamp semantics: signed zeros (the
    /// pinned `max` maps `-0.0` to `+0.0` in every arm), NaN (clamped to
    /// `0.0` by every arm), infinities, denormals and a dense sweep
    /// crossing zero.
    fn adversarial_values() -> Vec<f32> {
        let mut vals = vec![
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1.0e-42,
            -1.0e-42,
            1.0e30,
            -1.0e30,
            3.3333333,
            -7.7777777,
        ];
        for i in -2000i32..=2000 {
            vals.push(i as f32 * 0.01);
        }
        vals
    }

    /// Second operand stream for the add kernels, misaligned in magnitude
    /// so sums cross zero and produce `-0.0` (`-x + x`), `NaN`
    /// (`inf + -inf`) and denormal results.
    fn adversarial_partner() -> Vec<f32> {
        adversarial_values()
            .iter()
            .enumerate()
            .map(|(i, &v)| match i % 3 {
                0 => -v,
                1 => v * 0.5 - 1.0,
                _ => 0.25,
            })
            .collect()
    }

    #[test]
    fn slices_match_scalar_reference_bitwise() {
        let a = adversarial_values();
        let b = adversarial_partner();

        let mut want = vec![0.0f32; a.len()];
        run_scalar(ReluOp {
            src: &a,
            dst: &mut want,
        });
        // The scalar arm itself pins the documented clamp semantics.
        assert_eq!(want[0].to_bits(), 0.0f32.to_bits()); // +0.0 -> +0.0
        assert_eq!(want[1].to_bits(), 0.0f32.to_bits()); // -0.0 -> +0.0
        assert_eq!(want[2].to_bits(), 0.0f32.to_bits()); // NaN  -> 0.0
        let mut got = vec![f32::NAN; a.len()];
        relu_slice(&a, &mut got);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "relu element {i}: {g} vs {w}");
        }

        let mut want = vec![0.0f32; a.len()];
        for (w, (&av, &bv)) in want.iter_mut().zip(a.iter().zip(&b)) {
            *w = av + bv;
        }
        let mut got = vec![f32::NAN; a.len()];
        add_slice(&a, &b, &mut got);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "add element {i}: {g} vs {w}");
        }

        // Fused add+relu == add then relu, bitwise.
        let mut want = vec![0.0f32; a.len()];
        add_slice(&a, &b, &mut want);
        let want: Vec<f32> = {
            let mut r = vec![0.0f32; a.len()];
            relu_slice(&want, &mut r);
            r
        };
        let mut got = vec![f32::NAN; a.len()];
        add_relu_slice(&a, &b, &mut got);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "add_relu element {i}: {g} vs {w}");
        }
    }

    /// Exercises every ISA arm the CPU supports via the force-override
    /// dispatcher hook, regardless of which one `dispatch` picks.
    #[test]
    fn every_available_arm_matches_scalar_bitwise() {
        let a = adversarial_values();
        let b = adversarial_partner();
        let mut relu_want = vec![0.0f32; a.len()];
        run_scalar(ReluOp {
            src: &a,
            dst: &mut relu_want,
        });
        let mut add_want = vec![0.0f32; a.len()];
        run_scalar(AddOp {
            a: &a,
            b: &b,
            dst: &mut add_want,
        });
        let mut ar_want = vec![0.0f32; a.len()];
        run_scalar(AddReluOp {
            a: &a,
            b: &b,
            dst: &mut ar_want,
        });

        let check = |got: &[f32], want: &[f32], label: &str| {
            for (i, (g, w)) in got.iter().zip(want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "{label} element {i}: {g} vs {w}");
            }
        };

        for isa in CpuFeatures::get().available() {
            let mut got = vec![f32::NAN; a.len()];
            dispatch_on(
                isa,
                ReluOp {
                    src: &a,
                    dst: &mut got,
                },
            );
            check(&got, &relu_want, &format!("relu {isa:?}"));
            dispatch_on(
                isa,
                AddOp {
                    a: &a,
                    b: &b,
                    dst: &mut got,
                },
            );
            check(&got, &add_want, &format!("add {isa:?}"));
            dispatch_on(
                isa,
                AddReluOp {
                    a: &a,
                    b: &b,
                    dst: &mut got,
                },
            );
            check(&got, &ar_want, &format!("add_relu {isa:?}"));
        }
    }

    #[test]
    fn short_slices_hit_the_scalar_tail() {
        for len in 0..24 {
            let a: Vec<f32> = (0..len).map(|i| i as f32 * 0.37 - 2.0).collect();
            let b: Vec<f32> = (0..len).map(|i| 1.5 - i as f32 * 0.21).collect();
            let mut want = vec![0.0f32; len];
            run_scalar(AddReluOp {
                a: &a,
                b: &b,
                dst: &mut want,
            });
            let mut got = vec![f32::NAN; len];
            add_relu_slice(&a, &b, &mut got);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn sigmoid_bounds_and_midpoint() {
        let x = Tensor::from_vec(vec![-100.0, 0.0, 100.0], &[3]).unwrap();
        let y = sigmoid(&x);
        assert!(y.data()[0] < 1e-6);
        assert!((y.data()[1] - 0.5).abs() < 1e-6);
        assert!(y.data()[2] > 1.0 - 1e-6);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0], &[2, 3]).unwrap();
        let y = softmax_rows(&x).unwrap();
        for i in 0..2 {
            let s: f32 = y.data()[i * 3..(i + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        // Large-logit row stays finite (stabilization works).
        assert!(y.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn softmax_monotone_in_logits() {
        let x = Tensor::from_vec(vec![0.0, 1.0, 2.0], &[1, 3]).unwrap();
        let y = softmax_rows(&x).unwrap();
        assert!(y.data()[0] < y.data()[1] && y.data()[1] < y.data()[2]);
    }

    /// [`softmax_rows`] forced onto the one-lane arm: the reference every
    /// dispatched arm must match bit for bit.
    fn softmax_rows_scalar(x: &Tensor) -> Result<Tensor, TensorError> {
        let (mut out, k) = softmax_prepare(x)?;
        run_scalar(SoftmaxRowsOp {
            data: out.data_mut(),
            k,
        });
        Ok(out)
    }

    /// Every ISA arm of the softmax matches the scalar arm bitwise, on
    /// odd row widths (padded remainders), wide dynamic range, ±0 logits
    /// and a classifier-wide row.
    #[test]
    fn softmax_arms_match_scalar_bitwise() {
        for k in [1usize, 3, 7, 16, 33, 100, 1000] {
            let n = 5;
            let data: Vec<f32> = (0..n * k)
                .map(|i| match i % 11 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => -50.0,
                    3 => 30.0,
                    _ => (i as f32 * 0.739).sin() * 8.0,
                })
                .collect();
            let x = Tensor::from_vec(data, &[n, k]).unwrap();
            let want = softmax_rows_scalar(&x).unwrap();
            for isa in CpuFeatures::get().available() {
                let mut got = x.clone();
                dispatch_on(
                    isa,
                    SoftmaxRowsOp {
                        data: got.data_mut(),
                        k,
                    },
                );
                for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "softmax {isa:?} k={k} elem {i}");
                }
            }
        }
    }

    /// The polynomial exp keeps softmax within a tight tolerance of the
    /// libm-based formula it replaced.
    #[test]
    fn softmax_close_to_libm_reference() {
        let k = 97;
        let data: Vec<f32> = (0..3 * k)
            .map(|i| (i as f32 * 0.113).cos() * 20.0)
            .collect();
        let x = Tensor::from_vec(data.clone(), &[3, k]).unwrap();
        let y = softmax_rows(&x).unwrap();
        for r in 0..3 {
            let row = &data[r * k..(r + 1) * k];
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f32> = row.iter().map(|&v| (v - m).exp()).collect();
            let z: f32 = exps.iter().sum();
            for (i, &e) in exps.iter().enumerate() {
                let want = e / z;
                let got = y.data()[r * k + i];
                assert!(
                    (got - want).abs() <= 1e-6 + want.abs() * 1e-5,
                    "row {r} elem {i}: {got} vs libm {want}"
                );
            }
        }
    }
}
