//! Lanewise transcendental kernels shared by every ISA arm.
//!
//! The polynomial `exp` below is built exclusively from [`Simd`] trait ops
//! whose lane semantics are pinned (fused `mul_add`, `floor`, exponent-bias
//! `pow2i`), so the scalar arm and every vector arm produce **bitwise
//! identical** results by construction — the property the softmax bitwise
//! tests rely on. Accuracy vs `libm` expf is ~2 ulp over the finite range.

use crate::vec::Simd;

const LOG2E: f32 = std::f32::consts::LOG2_E;
/// High/low split of ln(2) (Cephes): `r = x - n*LN2_HI - n*LN2_LO` is
/// exact enough that the polynomial argument stays in [-ln2/2, ln2/2].
/// Written as its exact binary value (2843/4096) on purpose: the hi part
/// being exactly representable is what makes `n*LN2_HI` exact.
#[allow(clippy::excessive_precision)]
const LN2_HI: f32 = 0.693_359_375;
const LN2_LO: f32 = -2.121_944_4e-4;
/// Degree-5 minimax polynomial for `exp(r) - 1 - r` / r² (Cephes expf,
/// coefficients kept digit-for-digit from the reference).
#[allow(clippy::excessive_precision)]
const P0: f32 = 1.987_569_15e-4;
const P1: f32 = 1.398_199_9e-3;
const P2: f32 = 8.333_452e-3;
const P3: f32 = 4.166_579_6e-2;
const P4: f32 = 1.666_666_5e-1;
const P5: f32 = 5.000_000_3e-1;
/// Input clamp: keeps `n = round(x/ln2)` within the exponent range
/// [`pow2i`](Simd::pow2i) can represent without table lookups. Values above
/// `MAX_X` saturate to `exp(MAX_X)` ≈ 1.7e38 (softmax feeds only x ≤ 0);
/// values below `MIN_X` flush to `exp(MIN_X)` ≈ 1.2e-38 instead of
/// denormals.
const MAX_X: f32 = 88.02283;
const MIN_X: f32 = -87.33655;

/// Lanewise `e^x`, bitwise identical across every [`Simd`] arm.
///
/// NaN lanes clamp to `exp(MIN_X)` (the pinned `max` semantics return the
/// clamp bound when the comparison is unordered); callers in this
/// workspace document finite inputs.
#[inline(always)]
pub fn exp<S: Simd>(s: S, x: S::V) -> S::V {
    let x = s.min(x, s.splat(MAX_X));
    let x = s.max(x, s.splat(MIN_X));
    // n = round(x / ln2), as floor(x*log2e + 0.5): floor lowers to the
    // same roundps mode in every arm (f32::round would not).
    let n = s.floor(s.mul_add(x, s.splat(LOG2E), s.splat(0.5)));
    let r = s.mul_add(n, s.splat(-LN2_HI), x);
    let r = s.mul_add(n, s.splat(-LN2_LO), r);
    let mut p = s.splat(P0);
    p = s.mul_add(p, r, s.splat(P1));
    p = s.mul_add(p, r, s.splat(P2));
    p = s.mul_add(p, r, s.splat(P3));
    p = s.mul_add(p, r, s.splat(P4));
    p = s.mul_add(p, r, s.splat(P5));
    let r2 = s.mul(r, r);
    let p = s.mul_add(p, r2, s.add(r, s.splat(1.0)));
    s.mul(p, s.pow2i(n))
}
