//! The uniform affine quantizer (paper Eq. 2–3) and its slice kernel.
//!
//! Fake quantization of a slice is one [`SimdOp`] ([`FakeQuantOp`]),
//! monomorphized per ISA by the `epim-simd` dispatcher and shared by
//! [`Quantizer::fake_quant`], [`Quantizer::mse`] and the per-crossbar
//! tiles of [`crate::quantize_per_crossbar`].
//!
//! **Bit-exactness.** The scalar pair [`Quantizer::quantize`] /
//! [`Quantizer::dequantize`] is the ground truth; every arm reproduces
//! `dequantize(quantize(v))` bit for bit. `f32::clamp` is two ordered
//! comparisons, which the lane `max`/`min` repeat operand for operand (a
//! `±0.0` equal to a bound is kept, not replaced). `(v − α) / S` is never
//! negative, so `f32::round` (ties away from zero) is `trunc` plus one
//! where the fraction reaches a half; `t − trunc(t)` is exact, which the
//! folklore `trunc(t + 0.5)` is not (`0.49999997 + 0.5` rounds up to 1).
//! The code is small enough to stay exact as a float, so the integer round
//! trip is skipped; the one value it would change, `−0.0`, only arises
//! under `α = +0.0`, where `−0.0·S + α` is `+0.0` either way. The step
//! multiplies and the offset adds in two roundings, never a fused one.
//!
//! Weights are assumed finite and the range's width and step normal
//! floats: a NaN weight quantizes to `α` through the scalar pair and stays
//! NaN through the slice op, and a step that underflows to zero divides to
//! infinity.

use crate::{QuantError, RangeEstimator};
use epim_simd::{dispatch, slice, Simd, SimdOp};
use epim_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A fitted uniform affine quantizer.
///
/// Maps reals in the clipping range `[α, β]` to `k`-bit integer codes with
/// the scaling factor `S = (β − α) / (2^k − 1)` (paper Eq. 3). This is the
/// paper's `Q(r) = Int(r / S) − Z` (Eq. 2) with the zero point chosen so
/// that `α` lands exactly on the grid: codes are
/// `q = round((r − α) / S) ∈ [0, 2^k − 1]` and dequantization is
/// `r' = q·S + α`, which keeps the round-trip error within `S / 2` for
/// in-range values. Values outside the range are clipped.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Quantizer {
    bits: u8,
    alpha: f32,
    beta: f32,
    scale: f32,
}

impl Quantizer {
    /// Fits a quantizer from an explicit range.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidParameter`] for `bits == 0`,
    /// `bits > 16`, a non-finite range, or `α > β`.
    pub fn from_range(bits: u8, alpha: f32, beta: f32) -> Result<Self, QuantError> {
        if bits == 0 || bits > 16 {
            return Err(QuantError::invalid(format!(
                "bits must be in 1..=16, got {bits}"
            )));
        }
        if !alpha.is_finite() || !beta.is_finite() {
            return Err(QuantError::invalid("range must be finite"));
        }
        if alpha > beta {
            return Err(QuantError::invalid(format!(
                "range inverted: [{alpha}, {beta}]"
            )));
        }
        let levels = ((1u32 << bits) - 1) as f32;
        // Degenerate (constant) signal: unit scale keeps dequantization
        // exact at the single representable value (code 0 maps to α).
        let scale = if beta > alpha {
            (beta - alpha) / levels
        } else {
            1.0
        };
        Ok(Quantizer {
            bits,
            alpha,
            beta,
            scale,
        })
    }

    /// Fits a quantizer to a tensor using a range estimator.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidParameter`] for an empty tensor or bad
    /// bits; estimator-specific errors propagate.
    pub fn fit(tensor: &Tensor, bits: u8, range: &RangeEstimator) -> Result<Self, QuantError> {
        let (alpha, beta) = range.estimate(tensor, None)?;
        Self::from_range(bits, alpha, beta)
    }

    /// The bit width `k`.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// The scaling factor `S`.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The quantization step (same as the scale for uniform quantizers).
    pub fn step(&self) -> f32 {
        self.scale
    }

    /// The clipping range `[α, β]`.
    pub fn range(&self) -> (f32, f32) {
        (self.alpha, self.beta)
    }

    /// Quantizes one value to its integer code in `[0, 2^k − 1]`
    /// (paper Eq. 2, with the zero point folded into the grid origin `α`).
    pub fn quantize(&self, r: f32) -> i32 {
        let clipped = r.clamp(self.alpha, self.beta);
        ((clipped - self.alpha) / self.scale).round() as i32
    }

    /// Dequantizes an integer code back to a real value.
    pub fn dequantize(&self, q: i32) -> f32 {
        q as f32 * self.scale + self.alpha
    }

    /// Fake quantization: quantize-then-dequantize every element, the
    /// standard quantization-aware-training forward operator.
    pub fn fake_quant(&self, t: &Tensor) -> Tensor {
        let mut out = t.clone();
        self.fake_quant_slice(out.data_mut());
        out
    }

    /// Fake-quantizes `vals` in place, bit-exactly
    /// `dequantize(quantize(v))` per element in every ISA arm.
    pub(crate) fn fake_quant_slice(&self, vals: &mut [f32]) {
        dispatch(FakeQuantOp { q: *self, vals });
    }

    /// Mean squared quantization error over a tensor (an `f32` sum in
    /// element order).
    pub fn mse(&self, t: &Tensor) -> f32 {
        if t.is_empty() {
            return 0.0;
        }
        let mut deq = [0.0f32; 256];
        let mut s = 0.0f32;
        for chunk in t.data().chunks(deq.len()) {
            let deq = &mut deq[..chunk.len()];
            deq.copy_from_slice(chunk);
            self.fake_quant_slice(deq);
            for (&v, &q) in chunk.iter().zip(deq.iter()) {
                let d = v - q;
                s += d * d;
            }
        }
        s / t.len() as f32
    }
}

/// [`Quantizer::fake_quant_slice`] as a dispatched op; the module docs
/// argue each step's exactness.
struct FakeQuantOp<'a> {
    q: Quantizer,
    vals: &'a mut [f32],
}

impl SimdOp for FakeQuantOp<'_> {
    type Output = ();
    #[inline(always)]
    fn eval<S: Simd>(self, s: S) {
        let q = self.q;
        let (alpha, beta, scale) = (s.splat(q.alpha), s.splat(q.beta), s.splat(q.scale));
        let (half, one) = (s.splat(0.5), s.splat(1.0));
        slice::map_in_place(
            s,
            self.vals,
            #[inline(always)]
            |v| {
                let clipped = s.min(beta, s.max(alpha, v));
                let t = s.div(s.sub(clipped, alpha), scale);
                let code = s.trunc(t);
                let up = s.ge(s.sub(t, code), half);
                let code = s.select(up, s.add(code, one), code);
                s.add(s.mul(code, scale), alpha)
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epim_tensor::{init, rng};

    #[test]
    fn roundtrip_error_bounded_by_half_step() {
        let mut r = rng::seeded(1);
        let t = init::uniform(&[1000], -2.0, 2.0, &mut r);
        for bits in [3u8, 5, 7, 9] {
            let q = Quantizer::fit(&t, bits, &RangeEstimator::MinMax).unwrap();
            let deq = q.fake_quant(&t);
            let tol = q.step() / 2.0 + 1e-6;
            assert!(t.allclose(&deq, tol).unwrap(), "bits {bits}");
        }
    }

    #[test]
    fn scale_matches_eq3() {
        let q = Quantizer::from_range(3, -1.0, 1.0).unwrap();
        // S = (β-α)/(2^k -1) = 2/7.
        assert!((q.scale() - 2.0 / 7.0).abs() < 1e-6);
    }

    #[test]
    fn more_bits_less_error() {
        let mut r = rng::seeded(2);
        let t = init::uniform(&[4096], -1.0, 1.0, &mut r);
        let e3 = Quantizer::fit(&t, 3, &RangeEstimator::MinMax)
            .unwrap()
            .mse(&t);
        let e5 = Quantizer::fit(&t, 5, &RangeEstimator::MinMax)
            .unwrap()
            .mse(&t);
        let e9 = Quantizer::fit(&t, 9, &RangeEstimator::MinMax)
            .unwrap()
            .mse(&t);
        assert!(e3 > e5 && e5 > e9);
    }

    #[test]
    fn clipping_outside_range() {
        let q = Quantizer::from_range(4, -1.0, 1.0).unwrap();
        let lo = q.dequantize(q.quantize(-100.0));
        let hi = q.dequantize(q.quantize(100.0));
        assert!(lo >= -1.0 - q.step());
        assert!(hi <= 1.0 + q.step());
    }

    #[test]
    fn constant_tensor_exact() {
        let t = Tensor::full(&[16], 0.37);
        let q = Quantizer::fit(&t, 3, &RangeEstimator::MinMax).unwrap();
        let deq = q.fake_quant(&t);
        assert!(t.allclose(&deq, 1e-6).unwrap());
        assert_eq!(q.mse(&t), 0.0);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Quantizer::from_range(0, -1.0, 1.0).is_err());
        assert!(Quantizer::from_range(17, -1.0, 1.0).is_err());
        assert!(Quantizer::from_range(4, 1.0, -1.0).is_err());
        assert!(Quantizer::from_range(4, f32::NAN, 1.0).is_err());
    }

    /// Values chosen to break naive rounding emulations once the step is
    /// 1 and `α` an integer (so they reach the rounding step unchanged):
    /// just-below-half fractions (where `trunc(t + 0.5)` rounds up
    /// wrongly), exact halves (ties away from zero vs the hardware's ties
    /// to even), signed zeros, the clamp edges and values beyond them.
    fn adversarial_values() -> Vec<f32> {
        let mut vals = vec![
            0.0,
            -0.0,
            0.49999997,
            0.5,
            1.5,
            2.5,
            3.5,
            6.5,
            6.4999995,
            7.0,
            7.0000005,
            -4.0,
            -3.5,
            -3.5000002,
            -0.5,
            -0.49999997,
            3.0,
            1.0e30,
            -1.0e30,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
        ];
        // A dense sweep to cover every fraction pattern.
        for i in -1200i32..=1200 {
            vals.push(i as f32 * 0.01);
        }
        vals
    }

    /// Exercises every ISA arm the CPU supports via the dispatcher's force
    /// hook, against the scalar `dequantize(quantize(v))`.
    #[test]
    fn every_available_arm_matches_scalar_quantize_dequantize_bitwise() {
        use epim_simd::{dispatch_on, CpuFeatures};
        let quantizers = [
            Quantizer::from_range(3, 0.0, 7.0).unwrap(), // step 1, α = +0
            Quantizer::from_range(3, -0.0, 7.0).unwrap(), // α = -0
            Quantizer::from_range(3, -4.0, 3.0).unwrap(), // step 1, halves at x.5
            Quantizer::from_range(1, -1.0, 1.0).unwrap(), // two levels
            Quantizer::from_range(9, -0.731, 0.694).unwrap(),
            Quantizer::from_range(16, -3.0, 11.0).unwrap(),
            Quantizer::from_range(5, 0.37, 0.37).unwrap(), // constant: unit step
            Quantizer::from_range(4, 0.0, 0.0).unwrap(),
            Quantizer::from_range(4, -0.0, 0.0).unwrap(),
        ];
        let all = adversarial_values();
        for q in quantizers {
            assert_eq!(q.step(), q.scale());
            // Lengths around the lane counts hit every remainder length.
            for len in (0..=33).chain([all.len()]) {
                let vals = &all[all.len() - len..];
                let want: Vec<f32> = vals.iter().map(|&v| q.dequantize(q.quantize(v))).collect();
                for isa in CpuFeatures::get().available() {
                    let mut got = vals.to_vec();
                    dispatch_on(isa, FakeQuantOp { q, vals: &mut got });
                    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(
                            g.to_bits(),
                            w.to_bits(),
                            "{isa:?} {q:?} len {len} elem {i} ({}): {g} vs {w}",
                            vals[i]
                        );
                    }
                }
                let mut got = vals.to_vec();
                q.fake_quant_slice(&mut got);
                assert_eq!(
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn mse_is_the_sequential_sum_over_fake_quant() {
        // Longer than one internal chunk, not a multiple of it.
        let mut r = rng::seeded(6);
        let t = init::uniform(&[1000], -1.0, 1.0, &mut r);
        let q = Quantizer::fit(&t, 4, &RangeEstimator::MinMax).unwrap();
        let want = t
            .data()
            .iter()
            .map(|&v| {
                let d = v - q.dequantize(q.quantize(v));
                d * d
            })
            .sum::<f32>()
            / 1000.0;
        assert_eq!(q.mse(&t).to_bits(), want.to_bits());
        assert_eq!(q.mse(&Tensor::zeros(&[0])), 0.0);
    }

    #[test]
    fn quantize_integer_codes_in_k_bit_range() {
        let q = Quantizer::from_range(3, -1.0, 1.0).unwrap();
        for v in [-1.0f32, -0.7, -0.1, 0.0, 0.4, 0.99, 1.0, -5.0, 5.0] {
            let code = q.quantize(v);
            assert!((0..8).contains(&code), "code {code} for {v}");
        }
        // Endpoints are exact.
        assert_eq!(q.dequantize(q.quantize(-1.0)), -1.0);
        assert_eq!(q.dequantize(q.quantize(1.0)), 1.0);
    }
}
