//! SIMD epilogue for the data path's DAC/ADC quantization sweeps.
//!
//! Both converters quantize the same way: divide by the step, round to the
//! nearest level (ties away from zero, i.e. [`f32::round`]), clamp to the
//! converter's range, multiply back. The per-round sweeps over gathered
//! inputs and bit-line partial sums are hot enough in the batched data path
//! to deserve vector code, so [`quantize_slice`] is written once as a
//! generic [`SimdOp`] body and monomorphized per ISA (AVX-512F, AVX2+FMA,
//! scalar) by the shared `epim-simd` dispatcher.
//!
//! **Bit-exactness.** The data-path equivalence tests compare the executor
//! with the seed-reference execution path bit-for-bit, so every arm must
//! reproduce `f32::round` exactly. SIMD rounding instructions round
//! ties to even, and the folklore `trunc(x + 0.5)` trick is wrong near
//! halves (e.g. `x = 0.49999997`: `x + 0.5` rounds up to `1.0`), so the
//! kernel rounds via exact float steps instead: `r = trunc(|t|)` and
//! `f = |t| - r` are both exact (Sterbenz), `f >= 0.5` decides the
//! increment, and the sign is restored bitwise. Inputs are assumed finite
//! (NaN propagation differs between `clamp` and SIMD min/max); the data
//! path only produces finite values.

use epim_simd::{dispatch, slice, Simd, SimdOp};

/// Quantizes every element of `vals` in place (DAC/ADC sweep): `round(v /
/// step)` clamped to `[-limit, limit]` levels, times `step`, bit-exactly
/// the same in every ISA arm.
pub fn quantize_slice(vals: &mut [f32], step: f32, limit: f32) {
    dispatch(QuantizeOp { vals, step, limit });
}

struct QuantizeOp<'a> {
    vals: &'a mut [f32],
    step: f32,
    limit: f32,
}

impl SimdOp for QuantizeOp<'_> {
    type Output = ();
    #[inline(always)]
    fn eval<S: Simd>(self, s: S) {
        let vstep = s.splat(self.step);
        let vhalf = s.splat(0.5);
        let vone = s.splat(1.0);
        let vlim = s.splat(self.limit);
        let vneg = s.splat(-self.limit);
        slice::map_in_place(
            s,
            self.vals,
            #[inline(always)]
            |v| {
                let t = s.div(v, vstep);
                let sign = s.sign_bits(t);
                let a = s.abs(t);
                let r = s.trunc(a);
                // |t| - trunc(|t|) is exact, so the ties-away decision is too.
                let frac = s.sub(a, r);
                let r = s.select(s.ge(frac, vhalf), s.add(r, vone), r);
                let r = s.or_bits(r, sign);
                let r = s.min(s.max(r, vneg), vlim);
                s.mul(r, vstep)
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epim_simd::{dispatch_on, CpuFeatures};

    /// Quantizes one value: `round(v / step)` clamped to `[-limit, limit]`
    /// levels, times `step`. The scalar ground truth for every arm.
    fn quantize_value(v: f32, step: f32, limit: f32) -> f32 {
        (v / step).round().clamp(-limit, limit) * step
    }

    /// Values chosen to break naive rounding emulations: just-below-half
    /// fractions (where `trunc(x + 0.5)` rounds up incorrectly), exact
    /// halves (ties away from zero vs the hardware's ties to even), the
    /// 2^23 integer boundary, signed zeros and clamp edges.
    fn adversarial_values() -> Vec<f32> {
        let mut vals = vec![
            0.0,
            -0.0,
            0.49999997,
            -0.49999997,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            8388607.5,
            8388608.0,
            8388609.0,
            16777216.0,
            -16777216.0,
            1.0e30,
            -1.0e30,
            3.3333333,
            -7.7777777,
            f32::MIN_POSITIVE,
        ];
        // A dense sweep of small magnitudes to cover every frac pattern.
        for i in -2000i32..=2000 {
            vals.push(i as f32 * 0.01);
        }
        vals
    }

    #[test]
    fn slice_matches_scalar_bitwise() {
        for &(step, limit) in &[
            (0.125f32, 128.0f32),
            (0.0033, 256.0),
            (1.0, 4.0),
            (2.5, 8.0),
        ] {
            let mut vals = adversarial_values();
            let want: Vec<f32> = vals
                .iter()
                .map(|&v| quantize_value(v, step, limit))
                .collect();
            quantize_slice(&mut vals, step, limit);
            for (i, (&got, &want)) in vals.iter().zip(&want).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "element {i}: got {got}, want {want} (step {step}, limit {limit})"
                );
            }
        }
    }

    /// Exercises every ISA arm the CPU supports via the dispatcher's
    /// force hook, regardless of which one `quantize_slice` picks.
    #[test]
    fn every_available_arm_matches_scalar_bitwise() {
        let (step, limit) = (0.0625f32, 512.0f32);
        let reference: Vec<f32> = adversarial_values()
            .iter()
            .map(|&v| quantize_value(v, step, limit))
            .collect();
        for isa in CpuFeatures::get().available() {
            let mut vals = adversarial_values();
            dispatch_on(
                isa,
                QuantizeOp {
                    vals: &mut vals,
                    step,
                    limit,
                },
            );
            for (i, (got, want)) in vals.iter().zip(&reference).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{isa:?} elem {i}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn rounds_ties_away_from_zero() {
        // step 1, generous clamp: quantization is plain round().
        let mut vals = vec![0.5, 1.5, 2.5, -0.5, -1.5, -2.5];
        quantize_slice(&mut vals, 1.0, 1.0e9);
        assert_eq!(vals, vec![1.0, 2.0, 3.0, -1.0, -2.0, -3.0]);
    }

    #[test]
    fn clamps_to_limit() {
        let mut vals = vec![1.0e9, -1.0e9];
        quantize_slice(&mut vals, 1.0, 7.0);
        assert_eq!(vals, vec![7.0, -7.0]);
    }

    #[test]
    fn short_slices_hit_the_scalar_tail() {
        for len in 0..24 {
            let mut vals: Vec<f32> = (0..len).map(|i| i as f32 * 0.37 - 2.0).collect();
            let want: Vec<f32> = vals
                .iter()
                .map(|&v| quantize_value(v, 0.25, 16.0))
                .collect();
            quantize_slice(&mut vals, 0.25, 16.0);
            assert_eq!(vals, want);
        }
    }
}
