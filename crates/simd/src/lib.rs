//! # epim-simd — generic SIMD op framework
//!
//! One cached CPU-feature probe, one `SimdOp` trait, one dispatch macro:
//! an op is written **once** as a generic body over the [`Simd`] lane
//! trait, and [`dispatch`] monomorphizes it per ISA (AVX-512F, AVX2+FMA,
//! scalar) inside `#[target_feature]` wrappers so the whole inlined body —
//! not just leaf intrinsics — compiles with the vector ISA enabled.
//! AArch64 NEON later means one new [`Isa`] variant, one new token type
//! and one new match arm in `isa_dispatch!`, not a new dispatch stack.
//!
//! ```
//! use epim_simd::{dispatch, Simd, SimdOp};
//!
//! struct Scale<'a> {
//!     data: &'a mut [f32],
//!     k: f32,
//! }
//!
//! impl SimdOp for Scale<'_> {
//!     type Output = ();
//!     #[inline(always)]
//!     fn eval<S: Simd>(self, s: S) {
//!         let (n, kv) = (self.data.len(), s.splat(self.k));
//!         let p = self.data.as_mut_ptr();
//!         let mut i = 0;
//!         // SAFETY: i + LANES <= n on every vector iteration.
//!         unsafe {
//!             while i + S::LANES <= n {
//!                 s.store(p.add(i), s.mul(s.load(p.add(i)), kv));
//!                 i += S::LANES;
//!             }
//!         }
//!         while i < n {
//!             self.data[i] *= self.k;
//!             i += 1;
//!         }
//!     }
//! }
//!
//! let mut v = vec![1.0; 37];
//! dispatch(Scale { data: &mut v, k: 2.0 });
//! assert!(v.iter().all(|&x| x == 2.0));
//! ```
//!
//! The selected ISA comes from [`isa`]: a one-time feature probe plus the
//! `EPIM_FORCE_ISA={scalar,avx2,avx512}` override (clamped to host
//! support). [`dispatch_on`] runs an op under an explicitly requested arm
//! — the hook the bitwise property tests use to pin every vector arm
//! against the scalar reference on whatever host CI lands on.

mod features;
pub mod math;
pub mod slice;
mod vec;

pub use features::{isa, CpuFeatures, Isa};
#[cfg(target_arch = "x86_64")]
pub use vec::{Avx2Simd, Avx512Simd};
pub use vec::{ScalarSimd, Simd};

/// An operation written once, generically over the [`Simd`] lane trait.
///
/// Implementations should mark `eval` `#[inline(always)]` so the body —
/// and every trait op it calls — inlines into the `#[target_feature]`
/// dispatch wrapper and compiles with that ISA enabled.
pub trait SimdOp {
    /// Result of the operation.
    type Output;
    /// The generic body; `s` is the capability token proving the ISA.
    fn eval<S: Simd>(self, s: S) -> Self::Output;
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn run_avx512<Op: SimdOp>(op: Op) -> Op::Output {
    // SAFETY: the caller checked avx512f; the token inherits that proof.
    op.eval(Avx512Simd::new_unchecked())
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn run_avx2<Op: SimdOp>(op: Op) -> Op::Output {
    // SAFETY: the caller checked avx2+fma.
    op.eval(Avx2Simd::new_unchecked())
}

/// Run an op on the always-available scalar arm (the bitwise reference).
pub fn run_scalar<Op: SimdOp>(op: Op) -> Op::Output {
    op.eval(ScalarSimd)
}

/// The dispatch macro: monomorphize `$op` for the given [`Isa`] and run it
/// inside the matching `#[target_feature]` wrapper. Internal — the public
/// entry points are [`dispatch`] and [`dispatch_on`], which are the only
/// callers and uphold the "ISA is host-supported" safety contract.
macro_rules! isa_dispatch {
    ($isa:expr, $op:expr) => {{
        match $isa {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `$isa` comes from the cached probe (or is clamped to
            // it), so the required features are present.
            Isa::Avx512 => unsafe { run_avx512($op) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            Isa::Avx2 => unsafe { run_avx2($op) },
            _ => run_scalar($op),
        }
    }};
}

/// Run `op` on the best host-supported ISA (honoring `EPIM_FORCE_ISA`).
pub fn dispatch<Op: SimdOp>(op: Op) -> Op::Output {
    isa_dispatch!(isa(), op)
}

/// Run `op` on a specific ISA arm, clamped to host support (requesting
/// AVX-512 on an AVX2-only machine runs the AVX2 arm, never UB). Property
/// tests iterate [`CpuFeatures::available`] through this to compare every
/// arm against [`run_scalar`] bitwise.
pub fn dispatch_on<Op: SimdOp>(requested: Isa, op: Op) -> Op::Output {
    isa_dispatch!(CpuFeatures::get().clamp(requested), op)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Returns the ISA the op body actually ran under, via LANES.
    struct LaneProbe;
    impl SimdOp for LaneProbe {
        type Output = usize;
        fn eval<S: Simd>(self, _s: S) -> usize {
            S::LANES
        }
    }

    fn lanes_of(isa: Isa) -> usize {
        match isa {
            Isa::Scalar => 1,
            Isa::Avx2 => 8,
            Isa::Avx512 => 16,
        }
    }

    #[test]
    fn dispatch_runs_the_effective_isa() {
        assert_eq!(dispatch(LaneProbe), lanes_of(isa()));
    }

    #[test]
    fn dispatch_on_selects_each_available_arm() {
        let feats = CpuFeatures::get();
        for isa in feats.available() {
            assert_eq!(dispatch_on(isa, LaneProbe), lanes_of(isa), "arm {isa:?}");
        }
        // Unsupported requests clamp downward instead of faulting.
        let clamped = feats.clamp(Isa::Avx512);
        assert!(feats.supports(clamped));
        assert_eq!(dispatch_on(Isa::Avx512, LaneProbe), lanes_of(clamped));
    }

    /// Elementwise kernel exercising most trait ops; used to pin every
    /// vector arm to the scalar arm bitwise.
    struct OpSoup<'a> {
        src: &'a [f32],
        dst: &'a mut [f32],
    }
    impl SimdOp for OpSoup<'_> {
        type Output = ();
        #[inline(always)]
        fn eval<S: Simd>(self, s: S) {
            let n = self.dst.len();
            let (sp, dp) = (self.src.as_ptr(), self.dst.as_mut_ptr());
            let half = s.splat(0.5);
            let one = s.splat(1.0);
            let lim = s.splat(3.0);
            let nlim = s.splat(-3.0);
            let mut i = 0;
            // SAFETY: i + LANES <= n; src and dst are both n long.
            unsafe {
                while i + S::LANES <= n {
                    let v = s.load(sp.add(i));
                    let sign = s.sign_bits(v);
                    let a = s.abs(v);
                    let r = s.trunc(a);
                    let frac = s.sub(a, r);
                    let bumped = s.select(s.ge(frac, half), s.add(r, one), r);
                    let q = s.or_bits(bumped, sign);
                    let q = s.min(s.max(q, nlim), lim);
                    let q = s.mul_add(q, half, s.floor(v));
                    s.store(dp.add(i), s.div(q, s.max(a, one)));
                    i += S::LANES;
                }
            }
            let s1 = ScalarSimd;
            while i < n {
                let v = self.src[i];
                let sign = s1.sign_bits(v);
                let a = s1.abs(v);
                let r = s1.trunc(a);
                let frac = s1.sub(a, r);
                let bumped = s1.select(s1.ge(frac, 0.5), s1.add(r, 1.0), r);
                let q = s1.or_bits(bumped, sign);
                let q = s1.min(s1.max(q, -3.0), 3.0);
                let q = s1.mul_add(q, 0.5, s1.floor(v));
                self.dst[i] = s1.div(q, s1.max(a, 1.0));
                i += 1;
            }
        }
    }

    fn soup_inputs() -> Vec<f32> {
        let mut v = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            7.25,
            -7.25,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1.0e-40,
            -1.0e-40,
            3.0,
            -3.0,
        ];
        // Odd length so every arm exercises its scalar tail.
        for i in 0..61 {
            v.push((i as f32 - 30.0) * 0.37);
        }
        v
    }

    #[test]
    fn every_arm_matches_scalar_bitwise_on_op_soup() {
        let src = soup_inputs();
        let mut want = vec![0.0; src.len()];
        run_scalar(OpSoup {
            src: &src,
            dst: &mut want,
        });
        for isa in CpuFeatures::get().available() {
            let mut got = vec![0.0; src.len()];
            dispatch_on(
                isa,
                OpSoup {
                    src: &src,
                    dst: &mut got,
                },
            );
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "arm {isa:?} lane {i} in {}",
                    src[i]
                );
            }
        }
    }

    struct StridedLoad<'a> {
        src: &'a [f32],
        stride: usize,
        dst: &'a mut [f32],
    }
    impl SimdOp for StridedLoad<'_> {
        type Output = ();
        #[inline(always)]
        fn eval<S: Simd>(self, s: S) {
            assert!(self.dst.len() >= S::LANES);
            assert!(self.src.len() > (S::LANES - 1) * self.stride);
            // SAFETY: lengths asserted above.
            unsafe {
                let v = s.load_strided(self.src.as_ptr(), self.stride);
                s.store(self.dst.as_mut_ptr(), v);
            }
        }
    }

    #[test]
    fn load_strided_gathers_the_right_lanes() {
        let src: Vec<f32> = (0..512).map(|i| i as f32).collect();
        for stride in [1usize, 2, 3, 7, 29] {
            for isa in CpuFeatures::get().available() {
                let lanes = lanes_of(isa);
                let mut dst = vec![-1.0; lanes.max(1)];
                dispatch_on(
                    isa,
                    StridedLoad {
                        src: &src,
                        stride,
                        dst: &mut dst,
                    },
                );
                for (lane, &g) in dst.iter().take(lanes).enumerate() {
                    assert_eq!(g, (lane * stride) as f32, "arm {isa:?} stride {stride}");
                }
            }
        }
    }

    struct ExpSlice<'a> {
        src: &'a [f32],
        dst: &'a mut [f32],
    }
    impl SimdOp for ExpSlice<'_> {
        type Output = ();
        #[inline(always)]
        fn eval<S: Simd>(self, s: S) {
            let n = self.dst.len();
            let (sp, dp) = (self.src.as_ptr(), self.dst.as_mut_ptr());
            let mut i = 0;
            // SAFETY: i + LANES <= n; src and dst are both n long.
            unsafe {
                while i + S::LANES <= n {
                    s.store(dp.add(i), math::exp(s, s.load(sp.add(i))));
                    i += S::LANES;
                }
            }
            while i < n {
                self.dst[i] = math::exp(ScalarSimd, self.src[i]);
                i += 1;
            }
        }
    }

    #[test]
    fn exp_matches_scalar_arm_bitwise_and_libm_closely() {
        let mut src: Vec<f32> = (-4000..=400).map(|i| i as f32 * 0.025).collect();
        src.extend([0.0, -0.0, -104.0, 90.0, f32::MIN_POSITIVE, -1e-40]);
        let mut want = vec![0.0; src.len()];
        run_scalar(ExpSlice {
            src: &src,
            dst: &mut want,
        });
        for isa in CpuFeatures::get().available() {
            let mut got = vec![0.0; src.len()];
            dispatch_on(
                isa,
                ExpSlice {
                    src: &src,
                    dst: &mut got,
                },
            );
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "arm {isa:?} exp({})", src[i]);
            }
        }
        // Accuracy vs libm over the well-inside-range part.
        for &x in src.iter().filter(|x| x.abs() <= 80.0) {
            let got = math::exp(ScalarSimd, x);
            let want = x.exp();
            let rel = if want == 0.0 {
                got.abs()
            } else {
                ((got - want) / want).abs()
            };
            assert!(rel <= 3e-7, "exp({x}) = {got}, libm {want}, rel {rel}");
        }
    }

    #[test]
    fn max_min_semantics_are_pinned() {
        let s = ScalarSimd;
        // Second operand wins ties: the documented maxps/minps behavior.
        assert_eq!(s.max(-0.0, 0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(s.max(0.0, -0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(s.min(-0.0, 0.0).to_bits(), 0.0f32.to_bits());
        // NaN in either operand yields b.
        assert_eq!(s.max(f32::NAN, 1.0), 1.0);
        assert!(s.max(1.0, f32::NAN).is_nan());
    }

    #[test]
    fn slice_helpers_match_plain_loops() {
        for isa in CpuFeatures::get().available() {
            struct Run<'a> {
                a: &'a mut [f32],
                b: &'a [f32],
            }
            impl SimdOp for Run<'_> {
                type Output = ();
                #[inline(always)]
                fn eval<S: Simd>(self, s: S) {
                    let mid = self.a.len() / 2;
                    let (lo, hi) = self.a.split_at_mut(mid);
                    slice::copy(s, &self.b[..mid], lo);
                    slice::add_assign(s, hi, &self.b[mid..self.b.len()]);
                    slice::add_splat(s, lo, 1.5);
                }
            }
            let b: Vec<f32> = (0..53).map(|i| i as f32 * 0.5).collect();
            let mut a = vec![2.0; 53];
            let mid = a.len() / 2;
            dispatch_on(isa, Run { a: &mut a, b: &b });
            for i in 0..mid {
                assert_eq!(a[i], b[i] + 1.5, "arm {isa:?} copy+add_splat idx {i}");
            }
            for i in mid..a.len() {
                assert_eq!(a[i], 2.0 + b[i], "arm {isa:?} add_assign idx {i}");
            }
        }
    }
}
