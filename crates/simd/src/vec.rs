//! The portable f32 lane trait and its per-ISA implementations.
//!
//! A [`Simd`] implementor is a zero-sized *capability token*: holding one
//! proves the corresponding instruction set is available on this CPU, so
//! all value operations are safe to call. Tokens are only constructed
//! inside the dispatch wrappers in `lib.rs` (via [`Simd::new_unchecked`])
//! after the feature probe, which is what makes the safe methods sound.
//!
//! # Pinned semantics
//!
//! Every operation is specified so that the scalar arm and the vector arms
//! produce **bitwise identical** lanes. Two cases need explicit rules
//! because `f32::max`/`f32::min` leave them to the whims of instruction
//! selection (the sign of a ±0 tie genuinely varies with inlining context):
//!
//! - `max(a, b)` is defined as `if a > b { a } else { b }` — the second
//!   operand wins ties (`max(-0.0, +0.0) == +0.0`, `max(+0.0, -0.0) == -0.0`)
//!   and NaN in either operand yields `b`. This is exactly one
//!   `maxps a, b` on x86, so the vector arms are a single instruction.
//! - `min(a, b)` is `if a < b { a } else { b }`, i.e. one `minps a, b`.
//!
//! Reductions that fold with `acc = max(v, acc)` therefore keep the
//! accumulator on ties, matching the scalar `f32::max` fold they replace
//! for all finite inputs.

#[allow(unused_imports)] // scalar-only builds don't touch the intrinsics
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Portable lane-group of `f32` values. See the module docs for the
/// soundness contract and the pinned tie/NaN semantics.
pub trait Simd: Copy {
    /// Vector of [`Simd::LANES`] f32 lanes.
    type V: Copy;
    /// Lane mask produced by comparisons, consumed by [`Simd::select`].
    type M: Copy;
    /// Number of f32 lanes per vector.
    const LANES: usize;

    /// Construct the capability token.
    ///
    /// # Safety
    /// The caller must guarantee the ISA this token stands for is
    /// supported by the running CPU (the dispatch wrappers check via
    /// [`crate::CpuFeatures`]).
    unsafe fn new_unchecked() -> Self;

    /// All lanes set to `x`.
    fn splat(self, x: f32) -> Self::V;

    /// Load `src`, which must be exactly `LANES` floats.
    ///
    /// # Panics
    /// Panics if `src.len() != LANES`.
    fn load(self, src: &[f32]) -> Self::V;

    /// Store `v` into `dst`, which must be exactly `LANES` floats.
    ///
    /// # Panics
    /// Panics if `dst.len() != LANES`.
    fn store(self, dst: &mut [f32], v: Self::V);

    /// Load lanes `src[0], src[stride], …, src[(LANES-1)*stride]`.
    ///
    /// Strides 1 and 2 use contiguous loads plus shuffles; anything wider
    /// becomes a gather (x86) or scalar picks.
    ///
    /// # Panics
    /// Panics unless `src.len() == (LANES-1)*stride + 1` and
    /// `(LANES-1)*stride` fits in `i32` (the gather's lane offsets).
    fn load_strided(self, src: &[f32], stride: usize) -> Self::V;

    /// Lanewise `a + b`.
    fn add(self, a: Self::V, b: Self::V) -> Self::V;
    /// Lanewise `a - b`.
    fn sub(self, a: Self::V, b: Self::V) -> Self::V;
    /// Lanewise `a * b`.
    fn mul(self, a: Self::V, b: Self::V) -> Self::V;
    /// Lanewise `a / b`.
    fn div(self, a: Self::V, b: Self::V) -> Self::V;
    /// Lanewise fused `a * b + c` (single rounding in every arm).
    fn mul_add(self, a: Self::V, b: Self::V, c: Self::V) -> Self::V;
    /// Lanewise `if a > b { a } else { b }` (see module docs).
    fn max(self, a: Self::V, b: Self::V) -> Self::V;
    /// Lanewise `if a < b { a } else { b }` (see module docs).
    fn min(self, a: Self::V, b: Self::V) -> Self::V;
    /// Lanewise truncation toward zero.
    fn trunc(self, v: Self::V) -> Self::V;
    /// Lanewise floor (round toward −∞).
    fn floor(self, v: Self::V) -> Self::V;
    /// Lanewise `|v|` (clears the sign bit).
    fn abs(self, v: Self::V) -> Self::V;
    /// Lanewise sign bit isolated (`v & 0x8000_0000` as bits).
    fn sign_bits(self, v: Self::V) -> Self::V;
    /// Lanewise bitwise OR of the raw representations.
    fn or_bits(self, a: Self::V, b: Self::V) -> Self::V;
    /// Lanewise ordered `a >= b` (false when either lane is NaN).
    fn ge(self, a: Self::V, b: Self::V) -> Self::M;
    /// Lanewise `if m { t } else { f }`.
    fn select(self, m: Self::M, t: Self::V, f: Self::V) -> Self::V;
    /// Lanewise `2^n` for integral-valued lanes `n` in `[-126, 127]`,
    /// built by shifting the biased exponent (no table, no rounding).
    fn pow2i(self, n: Self::V) -> Self::V;
}

/// [`Simd::load_strided`]'s one length check: `src` is exactly
/// `(LANES-1)*stride + 1` floats and the last lane's offset fits in `i32`.
#[inline(always)]
fn check_strided<S: Simd>(src: &[f32], stride: usize) {
    let last = (S::LANES - 1).checked_mul(stride);
    assert!(
        last.is_some_and(|last| last <= i32::MAX as usize && src.len() == last + 1),
        "load_strided: {} floats do not span {} lanes at stride {stride}",
        src.len(),
        S::LANES
    );
}

/// One-lane portable arm; the bitwise ground truth for every vector arm.
/// Freely constructible — plain `f32` arithmetic needs no CPU capability.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScalarSimd;

impl Simd for ScalarSimd {
    type V = f32;
    type M = bool;
    const LANES: usize = 1;

    #[inline(always)]
    unsafe fn new_unchecked() -> Self {
        ScalarSimd
    }

    #[inline(always)]
    fn splat(self, x: f32) -> f32 {
        x
    }

    #[inline(always)]
    fn load(self, src: &[f32]) -> f32 {
        assert_eq!(src.len(), 1);
        src[0]
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32], v: f32) {
        assert_eq!(dst.len(), 1);
        dst[0] = v;
    }

    #[inline(always)]
    fn load_strided(self, src: &[f32], stride: usize) -> f32 {
        check_strided::<Self>(src, stride);
        src[0]
    }

    #[inline(always)]
    fn add(self, a: f32, b: f32) -> f32 {
        a + b
    }

    #[inline(always)]
    fn sub(self, a: f32, b: f32) -> f32 {
        a - b
    }

    #[inline(always)]
    fn mul(self, a: f32, b: f32) -> f32 {
        a * b
    }

    #[inline(always)]
    fn div(self, a: f32, b: f32) -> f32 {
        a / b
    }

    #[inline(always)]
    fn mul_add(self, a: f32, b: f32, c: f32) -> f32 {
        a.mul_add(b, c)
    }

    #[inline(always)]
    fn max(self, a: f32, b: f32) -> f32 {
        // Deliberately NOT f32::max: this comparison pins the ±0-tie and
        // NaN behavior to exactly what `maxps a, b` does.
        if a > b {
            a
        } else {
            b
        }
    }

    #[inline(always)]
    fn min(self, a: f32, b: f32) -> f32 {
        if a < b {
            a
        } else {
            b
        }
    }

    #[inline(always)]
    fn trunc(self, v: f32) -> f32 {
        v.trunc()
    }

    #[inline(always)]
    fn floor(self, v: f32) -> f32 {
        v.floor()
    }

    #[inline(always)]
    fn abs(self, v: f32) -> f32 {
        f32::from_bits(v.to_bits() & 0x7fff_ffff)
    }

    #[inline(always)]
    fn sign_bits(self, v: f32) -> f32 {
        f32::from_bits(v.to_bits() & 0x8000_0000)
    }

    #[inline(always)]
    fn or_bits(self, a: f32, b: f32) -> f32 {
        f32::from_bits(a.to_bits() | b.to_bits())
    }

    #[inline(always)]
    fn ge(self, a: f32, b: f32) -> bool {
        a >= b
    }

    #[inline(always)]
    fn select(self, m: bool, t: f32, f: f32) -> f32 {
        if m {
            t
        } else {
            f
        }
    }

    #[inline(always)]
    fn pow2i(self, n: f32) -> f32 {
        debug_assert!((-126.0..=127.0).contains(&n) && n == n.trunc());
        f32::from_bits(((n as i32 + 127) as u32) << 23)
    }
}

/// AVX2 + FMA arm: 8 × f32 lanes.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug)]
pub struct Avx2Simd(());

#[cfg(target_arch = "x86_64")]
impl Simd for Avx2Simd {
    type V = __m256;
    type M = __m256;
    const LANES: usize = 8;

    #[inline(always)]
    unsafe fn new_unchecked() -> Self {
        Avx2Simd(())
    }

    #[inline(always)]
    fn splat(self, x: f32) -> __m256 {
        unsafe { _mm256_set1_ps(x) }
    }

    #[inline(always)]
    fn load(self, src: &[f32]) -> __m256 {
        assert_eq!(src.len(), Self::LANES);
        // SAFETY: src holds exactly 8 floats.
        unsafe { _mm256_loadu_ps(src.as_ptr()) }
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32], v: __m256) {
        assert_eq!(dst.len(), Self::LANES);
        // SAFETY: dst holds exactly 8 floats.
        unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), v) }
    }

    #[inline(always)]
    fn load_strided(self, src: &[f32], stride: usize) -> __m256 {
        check_strided::<Self>(src, stride);
        let ptr = src.as_ptr();
        // SAFETY: src holds 7*stride + 1 floats and 7*stride fits in i32
        // (checked above); every load below stays inside it.
        unsafe {
            match stride {
                1 => _mm256_loadu_ps(ptr),
                2 => {
                    // Lanes from two contiguous loads, x0..x7 and x7..x14:
                    // cheaper than a gather for the stride the pooling
                    // kernels hit most.
                    let v0 = _mm256_loadu_ps(ptr);
                    let v1 = _mm256_loadu_ps(ptr.add(7));
                    // Even lanes of v0, odd lanes of v1:
                    // [x0 x2 x8 x10 | x4 x6 x12 x14]
                    let picked = _mm256_shuffle_ps::<0b11_01_10_00>(v0, v1);
                    let order = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
                    _mm256_permutevar8x32_ps(picked, order)
                }
                _ => {
                    let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
                    let idx = _mm256_mullo_epi32(iota, _mm256_set1_epi32(stride as i32));
                    _mm256_i32gather_ps::<4>(ptr, idx)
                }
            }
        }
    }

    #[inline(always)]
    fn add(self, a: __m256, b: __m256) -> __m256 {
        unsafe { _mm256_add_ps(a, b) }
    }

    #[inline(always)]
    fn sub(self, a: __m256, b: __m256) -> __m256 {
        unsafe { _mm256_sub_ps(a, b) }
    }

    #[inline(always)]
    fn mul(self, a: __m256, b: __m256) -> __m256 {
        unsafe { _mm256_mul_ps(a, b) }
    }

    #[inline(always)]
    fn div(self, a: __m256, b: __m256) -> __m256 {
        unsafe { _mm256_div_ps(a, b) }
    }

    #[inline(always)]
    fn mul_add(self, a: __m256, b: __m256, c: __m256) -> __m256 {
        unsafe { _mm256_fmadd_ps(a, b, c) }
    }

    #[inline(always)]
    fn max(self, a: __m256, b: __m256) -> __m256 {
        unsafe { _mm256_max_ps(a, b) }
    }

    #[inline(always)]
    fn min(self, a: __m256, b: __m256) -> __m256 {
        unsafe { _mm256_min_ps(a, b) }
    }

    #[inline(always)]
    fn trunc(self, v: __m256) -> __m256 {
        unsafe { _mm256_round_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(v) }
    }

    #[inline(always)]
    fn floor(self, v: __m256) -> __m256 {
        unsafe { _mm256_round_ps::<{ _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC }>(v) }
    }

    #[inline(always)]
    fn abs(self, v: __m256) -> __m256 {
        unsafe { _mm256_andnot_ps(_mm256_set1_ps(-0.0), v) }
    }

    #[inline(always)]
    fn sign_bits(self, v: __m256) -> __m256 {
        unsafe { _mm256_and_ps(v, _mm256_set1_ps(-0.0)) }
    }

    #[inline(always)]
    fn or_bits(self, a: __m256, b: __m256) -> __m256 {
        unsafe { _mm256_or_ps(a, b) }
    }

    #[inline(always)]
    fn ge(self, a: __m256, b: __m256) -> __m256 {
        unsafe { _mm256_cmp_ps::<_CMP_GE_OQ>(a, b) }
    }

    #[inline(always)]
    fn select(self, m: __m256, t: __m256, f: __m256) -> __m256 {
        unsafe { _mm256_blendv_ps(f, t, m) }
    }

    #[inline(always)]
    fn pow2i(self, n: __m256) -> __m256 {
        unsafe {
            let i = _mm256_cvtps_epi32(n);
            let e = _mm256_slli_epi32::<23>(_mm256_add_epi32(i, _mm256_set1_epi32(127)));
            _mm256_castsi256_ps(e)
        }
    }
}

/// AVX-512F arm: 16 × f32 lanes.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug)]
pub struct Avx512Simd(());

#[cfg(target_arch = "x86_64")]
impl Simd for Avx512Simd {
    type V = __m512;
    type M = __mmask16;
    const LANES: usize = 16;

    #[inline(always)]
    unsafe fn new_unchecked() -> Self {
        Avx512Simd(())
    }

    #[inline(always)]
    fn splat(self, x: f32) -> __m512 {
        unsafe { _mm512_set1_ps(x) }
    }

    #[inline(always)]
    fn load(self, src: &[f32]) -> __m512 {
        assert_eq!(src.len(), Self::LANES);
        // SAFETY: src holds exactly 16 floats.
        unsafe { _mm512_loadu_ps(src.as_ptr()) }
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32], v: __m512) {
        assert_eq!(dst.len(), Self::LANES);
        // SAFETY: dst holds exactly 16 floats.
        unsafe { _mm512_storeu_ps(dst.as_mut_ptr(), v) }
    }

    #[inline(always)]
    fn load_strided(self, src: &[f32], stride: usize) -> __m512 {
        check_strided::<Self>(src, stride);
        let ptr = src.as_ptr();
        // SAFETY: src holds 15*stride + 1 floats and 15*stride fits in i32
        // (checked above); every load below stays inside it.
        unsafe {
            match stride {
                1 => _mm512_loadu_ps(ptr),
                2 => {
                    // x0..x15 and x15..x30: even lanes of the first, odd
                    // lanes of the second.
                    let v0 = _mm512_loadu_ps(ptr);
                    let v1 = _mm512_loadu_ps(ptr.add(15));
                    let idx = _mm512_setr_epi32(
                        0, 2, 4, 6, 8, 10, 12, 14, 17, 19, 21, 23, 25, 27, 29, 31,
                    );
                    _mm512_permutex2var_ps(v0, idx, v1)
                }
                _ => {
                    let iota =
                        _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
                    let idx = _mm512_mullo_epi32(iota, _mm512_set1_epi32(stride as i32));
                    _mm512_i32gather_ps::<4>(idx, ptr)
                }
            }
        }
    }

    #[inline(always)]
    fn add(self, a: __m512, b: __m512) -> __m512 {
        unsafe { _mm512_add_ps(a, b) }
    }

    #[inline(always)]
    fn sub(self, a: __m512, b: __m512) -> __m512 {
        unsafe { _mm512_sub_ps(a, b) }
    }

    #[inline(always)]
    fn mul(self, a: __m512, b: __m512) -> __m512 {
        unsafe { _mm512_mul_ps(a, b) }
    }

    #[inline(always)]
    fn div(self, a: __m512, b: __m512) -> __m512 {
        unsafe { _mm512_div_ps(a, b) }
    }

    #[inline(always)]
    fn mul_add(self, a: __m512, b: __m512, c: __m512) -> __m512 {
        unsafe { _mm512_fmadd_ps(a, b, c) }
    }

    #[inline(always)]
    fn max(self, a: __m512, b: __m512) -> __m512 {
        unsafe { _mm512_max_ps(a, b) }
    }

    #[inline(always)]
    fn min(self, a: __m512, b: __m512) -> __m512 {
        unsafe { _mm512_min_ps(a, b) }
    }

    #[inline(always)]
    fn trunc(self, v: __m512) -> __m512 {
        unsafe { _mm512_roundscale_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(v) }
    }

    #[inline(always)]
    fn floor(self, v: __m512) -> __m512 {
        unsafe { _mm512_roundscale_ps::<{ _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC }>(v) }
    }

    #[inline(always)]
    fn abs(self, v: __m512) -> __m512 {
        unsafe {
            _mm512_castsi512_ps(_mm512_and_si512(
                _mm512_castps_si512(v),
                _mm512_set1_epi32(0x7fff_ffff),
            ))
        }
    }

    #[inline(always)]
    fn sign_bits(self, v: __m512) -> __m512 {
        unsafe {
            _mm512_castsi512_ps(_mm512_and_si512(
                _mm512_castps_si512(v),
                _mm512_set1_epi32(i32::MIN),
            ))
        }
    }

    #[inline(always)]
    fn or_bits(self, a: __m512, b: __m512) -> __m512 {
        unsafe {
            _mm512_castsi512_ps(_mm512_or_si512(
                _mm512_castps_si512(a),
                _mm512_castps_si512(b),
            ))
        }
    }

    #[inline(always)]
    fn ge(self, a: __m512, b: __m512) -> __mmask16 {
        unsafe { _mm512_cmp_ps_mask::<_CMP_GE_OQ>(a, b) }
    }

    #[inline(always)]
    fn select(self, m: __mmask16, t: __m512, f: __m512) -> __m512 {
        unsafe { _mm512_mask_blend_ps(m, f, t) }
    }

    #[inline(always)]
    fn pow2i(self, n: __m512) -> __m512 {
        unsafe {
            let i = _mm512_cvtps_epi32(n);
            let e = _mm512_slli_epi32::<23>(_mm512_add_epi32(i, _mm512_set1_epi32(127)));
            _mm512_castsi512_ps(e)
        }
    }
}
