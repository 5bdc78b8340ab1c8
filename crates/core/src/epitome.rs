//! The [`Epitome`] parameter tensor and its reconstruction machinery.

use crate::{ConvShape, DimPlan, EpitomeError, EpitomeShape, SamplingPlan};
use epim_simd::{dispatch, slice, Simd, SimdOp};
use epim_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A fully specified epitome: its shape, the convolution it stands in for,
/// and the sampling plan connecting the two.
///
/// Construct via [`crate::EpitomeDesigner::design`] (which legalizes the
/// shape to crossbar multiples) or [`EpitomeSpec::with_plan`] for explicit
/// control.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpitomeSpec {
    conv: ConvShape,
    shape: EpitomeShape,
    plan: SamplingPlan,
}

impl EpitomeSpec {
    /// Creates a spec with the canonical sampling plan.
    ///
    /// # Errors
    ///
    /// Returns [`EpitomeError::InvalidGeometry`] for zero extents.
    pub fn new(conv: ConvShape, shape: EpitomeShape) -> Result<Self, EpitomeError> {
        let plan = SamplingPlan::build(conv, shape)?;
        Ok(EpitomeSpec { conv, shape, plan })
    }

    /// Creates a spec from an explicit plan.
    ///
    /// # Errors
    ///
    /// Returns [`EpitomeError::PlanMismatch`] if the plan's shapes disagree
    /// with `conv`/`shape`, or if the plan fails verification.
    pub fn with_plan(
        conv: ConvShape,
        shape: EpitomeShape,
        plan: SamplingPlan,
    ) -> Result<Self, EpitomeError> {
        if plan.conv() != conv || plan.epitome() != shape {
            return Err(EpitomeError::plan(
                "plan shapes disagree with the provided conv/epitome shapes",
            ));
        }
        plan.verify()?;
        Ok(EpitomeSpec { conv, shape, plan })
    }

    /// The convolution this epitome reconstructs.
    pub fn conv(&self) -> ConvShape {
        self.conv
    }

    /// The epitome tensor shape.
    pub fn shape(&self) -> EpitomeShape {
        self.shape
    }

    /// The sampling plan.
    pub fn plan(&self) -> &SamplingPlan {
        &self.plan
    }

    /// Parameter compression rate: conv params / epitome params.
    pub fn param_compression(&self) -> f64 {
        self.conv.params() as f64 / self.shape.params() as f64
    }
}

/// The epitome operator: a compact learnable tensor plus its spec.
///
/// Layout matches convolution weights: `(C_out_e, C_in_e, H_e, W_e)`.
///
/// # Example
///
/// ```
/// use epim_core::{ConvShape, EpitomeShape, Epitome, EpitomeSpec};
///
/// # fn main() -> Result<(), epim_core::EpitomeError> {
/// let spec = EpitomeSpec::new(
///     ConvShape::new(8, 4, 3, 3),
///     EpitomeShape::new(4, 4, 3, 3),
/// )?;
/// let epi = Epitome::zeros(spec);
/// assert_eq!(epi.reconstruct()?.shape(), &[8, 4, 3, 3]);
/// // Every conv element traces back to some epitome element, so the
/// // repetition counts sum to the conv volume.
/// let reps = epi.repetition_map();
/// assert_eq!(reps.sum() as usize, 8 * 4 * 9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Epitome {
    spec: EpitomeSpec,
    data: Tensor,
}

impl Epitome {
    /// An all-zeros epitome.
    pub fn zeros(spec: EpitomeSpec) -> Self {
        let data = Tensor::zeros(&spec.shape().dims());
        Epitome { spec, data }
    }

    /// Wraps an existing parameter tensor.
    ///
    /// # Errors
    ///
    /// Returns [`EpitomeError::PlanMismatch`] if `data`'s shape differs
    /// from the spec's epitome shape.
    pub fn from_tensor(spec: EpitomeSpec, data: Tensor) -> Result<Self, EpitomeError> {
        if data.shape() != spec.shape().dims() {
            return Err(EpitomeError::plan(format!(
                "tensor shape {:?} does not match epitome shape {:?}",
                data.shape(),
                spec.shape().dims()
            )));
        }
        Ok(Epitome { spec, data })
    }

    /// Initializes the epitome from an existing convolution weight by
    /// **averaging**: each epitome element becomes the mean of all conv
    /// weight elements it reconstructs. This is the least-squares optimal
    /// epitome for the fixed plan and a strong starting point for
    /// fine-tuning (the offline counterpart of the paper's epitome
    /// training).
    ///
    /// # Errors
    ///
    /// Returns [`EpitomeError::PlanMismatch`] if `weight`'s shape differs
    /// from the spec's conv shape.
    pub fn from_conv_weight(spec: EpitomeSpec, weight: &Tensor) -> Result<Self, EpitomeError> {
        if weight.shape() != spec.conv().dims() {
            return Err(EpitomeError::plan(format!(
                "weight shape {:?} does not match conv shape {:?}",
                weight.shape(),
                spec.conv().dims()
            )));
        }
        let dims = spec.shape().dims();
        let mut sums = Tensor::zeros(&dims);
        let mut counts = Tensor::zeros(&dims);
        dispatch(AverageInitOp {
            spec: &spec,
            sums: sums.data_mut(),
            counts: counts.data_mut(),
            weight: weight.data(),
        });
        let data = sums
            .zip(&counts, |s, c| if c > 0.0 { s / c } else { 0.0 })
            .expect("same shape by construction");
        Ok(Epitome { spec, data })
    }

    /// The spec (shapes + plan).
    pub fn spec(&self) -> &EpitomeSpec {
        &self.spec
    }

    /// The parameter tensor, `(C_out_e, C_in_e, H_e, W_e)`.
    pub fn tensor(&self) -> &Tensor {
        &self.data
    }

    /// Replaces the parameter tensor (e.g. with a quantized copy).
    ///
    /// # Errors
    ///
    /// Returns [`EpitomeError::PlanMismatch`] if the shape changes.
    pub fn set_tensor(&mut self, data: Tensor) -> Result<(), EpitomeError> {
        if data.shape() != self.spec.shape().dims() {
            return Err(EpitomeError::plan(
                "replacement tensor has a different shape",
            ));
        }
        self.data = data;
        Ok(())
    }

    /// Reconstructs the full convolution weight `(C_out, C_in, KH, KW)` by
    /// executing the sampling plan (paper Eq. 1 / Figure 1).
    ///
    /// # Errors
    ///
    /// Returns [`EpitomeError::Tensor`] only on internal shape corruption.
    pub fn reconstruct(&self) -> Result<Tensor, EpitomeError> {
        let conv = self.spec.conv();
        let mut out = Tensor::zeros(&conv.dims());
        let ed = self.data.data();
        let conv_row = conv.cin * conv.kh * conv.kw; // one output channel

        // For large epitomes, partition the work by output channel: each
        // worker owns a disjoint band of `out`, and replays the patch list
        // restricted to its band (preserving patch order, so overlapping
        // tail windows resolve identically to the serial loop).
        let threads = epim_parallel::num_threads();
        let od = out.data_mut();
        if threads > 1 && od.len() >= 1 << 16 {
            let co_chunk = conv.cout.div_ceil(4 * threads).max(1);
            epim_parallel::for_each_chunk_mut(od, co_chunk * conv_row, |chunk_idx, band| {
                let lo = chunk_idx * co_chunk;
                let hi = (lo + co_chunk).min(conv.cout);
                self.replay_patches_into(band, lo, hi, ed);
            });
        } else {
            self.replay_patches_into(od, 0, conv.cout, ed);
        }
        Ok(out)
    }

    /// Copies every patch element whose destination channel lies in
    /// `[co_lo, co_hi)` into `band` (the corresponding slice of the output
    /// weight), one contiguous kx run at a time. The run copies are
    /// monomorphized per ISA by the `epim-simd` dispatcher; copies are
    /// value-preserving, so every arm is trivially bitwise identical.
    fn replay_patches_into(&self, band: &mut [f32], co_lo: usize, co_hi: usize, ed: &[f32]) {
        dispatch(ReplayOp {
            spec: &self.spec,
            band,
            co_lo,
            co_hi,
            ed,
        });
    }

    /// How many times each epitome element appears in the reconstructed
    /// convolution. Elements in overlap regions have higher counts; the
    /// paper's epitome-aware quantization weighs them more (Fig. 2c).
    ///
    /// A plan is the cartesian product of its four per-axis plans, so the
    /// patches covering element `(co, ci, y, x)` are one covering segment
    /// per axis, chosen independently: the count is the product of the four
    /// per-axis cover counts. Small integers — every product is exact in
    /// `f32` — at one multiply per *epitome* element, where walking the
    /// patches costs one increment per *convolution* element.
    pub fn repetition_map(&self) -> Tensor {
        let [n0, n1, n2, n3] = self
            .spec
            .plan()
            .dim_plans()
            .each_ref()
            .map(DimPlan::source_cover);
        // One output channel's counts, then a scaled copy per channel.
        let mut channel = Vec::with_capacity(n1.len() * n2.len() * n3.len());
        for &b in &n1 {
            for &c in &n2 {
                channel.extend(n3.iter().map(|&d| b * c * d));
            }
        }
        let mut counts = Vec::with_capacity(self.data.len());
        for &a in &n0 {
            counts.extend(channel.iter().map(|&bcd| a * bcd));
        }
        Tensor::from_vec(counts, &self.spec.shape().dims())
            .expect("length matches dims by construction")
    }

    /// Backpropagates a gradient on the reconstructed weight to the
    /// epitome parameters: the adjoint of [`Epitome::reconstruct`], i.e.
    /// each epitome element accumulates the gradients of every conv element
    /// it produced.
    ///
    /// # Errors
    ///
    /// Returns [`EpitomeError::PlanMismatch`] if `dweight` has the wrong
    /// shape.
    pub fn backprop_weight_grad(&self, dweight: &Tensor) -> Result<Tensor, EpitomeError> {
        if dweight.shape() != self.spec.conv().dims() {
            return Err(EpitomeError::plan(
                "gradient shape does not match conv shape",
            ));
        }
        let mut grad = Tensor::zeros(&self.spec.shape().dims());
        dispatch(AccumulateGradOp {
            spec: &self.spec,
            grad: grad.data_mut(),
            dweight: dweight.data(),
        });
        Ok(grad)
    }
}

/// [`Epitome::replay_patches_into`] as a dispatched op: the kx-run copies
/// monomorphize per ISA through [`slice::copy_raw`], with bounds proven
/// once per patch.
struct ReplayOp<'a> {
    spec: &'a EpitomeSpec,
    band: &'a mut [f32],
    co_lo: usize,
    co_hi: usize,
    ed: &'a [f32],
}

impl SimdOp for ReplayOp<'_> {
    type Output = ();
    #[inline(always)]
    fn eval<S: Simd>(self, s: S) {
        let conv = self.spec.conv();
        let eshape = self.spec.shape();
        let (e1, e2, e3) = (
            eshape.cin * eshape.h * eshape.w,
            eshape.h * eshape.w,
            eshape.w,
        );
        let (c1, c2, c3) = (conv.cin * conv.kh * conv.kw, conv.kh * conv.kw, conv.kw);
        let sp = self.ed.as_ptr();
        let dp = self.band.as_mut_ptr();
        for patch in self.spec.plan().patches() {
            let a_lo = self.co_lo.max(patch.dst[0]).saturating_sub(patch.dst[0]);
            let a_hi = self
                .co_hi
                .min(patch.dst[0] + patch.size[0])
                .saturating_sub(patch.dst[0]);
            if a_lo >= a_hi {
                continue;
            }
            let run = patch.size[3];
            // Bounds are proven once per patch, against the patch's last
            // (largest-offset) run on each side; every stride is positive,
            // so all inner offsets are dominated by these. The inner loops
            // then replay ~hundreds of thousands of tiny runs with no
            // per-run bounds checks.
            let src_end = (patch.src[0] + a_hi - 1) * e1
                + (patch.src[1] + patch.size[1] - 1) * e2
                + (patch.src[2] + patch.size[2] - 1) * e3
                + patch.src[3]
                + run;
            let dst_end = (patch.dst[0] + a_hi - 1 - self.co_lo) * c1
                + (patch.dst[1] + patch.size[1] - 1) * c2
                + (patch.dst[2] + patch.size[2] - 1) * c3
                + patch.dst[3]
                + run;
            assert!(
                src_end <= self.ed.len() && dst_end <= self.band.len(),
                "patch exceeds epitome/band extents"
            );
            for a in a_lo..a_hi {
                let src_a = (patch.src[0] + a) * e1;
                let dst_a = (patch.dst[0] + a - self.co_lo) * c1;
                for b in 0..patch.size[1] {
                    let src_b = src_a + (patch.src[1] + b) * e2;
                    let dst_b = dst_a + (patch.dst[1] + b) * c2;
                    for c in 0..patch.size[2] {
                        let src_flat = src_b + (patch.src[2] + c) * e3 + patch.src[3];
                        let dst_flat = dst_b + (patch.dst[2] + c) * c3 + patch.dst[3];
                        // SAFETY: within the per-patch bounds proven above;
                        // src (epitome) and dst (conv band) are distinct
                        // allocations.
                        unsafe {
                            slice::copy_raw(s, sp.add(src_flat), dp.add(dst_flat), run);
                        }
                    }
                }
            }
        }
    }
}

/// [`Epitome::backprop_weight_grad`]'s accumulation as a dispatched op.
/// Each epitome element's additions happen in the same patch order in every
/// arm (lanes cover independent elements), so all arms are bitwise equal.
struct AccumulateGradOp<'a> {
    spec: &'a EpitomeSpec,
    grad: &'a mut [f32],
    dweight: &'a [f32],
}

impl SimdOp for AccumulateGradOp<'_> {
    type Output = ();
    #[inline(always)]
    fn eval<S: Simd>(self, s: S) {
        let grad = self.grad;
        let dweight = self.dweight;
        for_each_patch_run(self.spec, |src_flat, dst_flat, run| {
            slice::add_assign(
                s,
                &mut grad[src_flat..src_flat + run],
                &dweight[dst_flat..dst_flat + run],
            );
        });
    }
}

/// [`Epitome::from_conv_weight`]'s sum/count sweep as a dispatched op.
struct AverageInitOp<'a> {
    spec: &'a EpitomeSpec,
    sums: &'a mut [f32],
    counts: &'a mut [f32],
    weight: &'a [f32],
}

impl SimdOp for AverageInitOp<'_> {
    type Output = ();
    #[inline(always)]
    fn eval<S: Simd>(self, s: S) {
        let sums = self.sums;
        let counts = self.counts;
        let weight = self.weight;
        for_each_patch_run(self.spec, |src_flat, dst_flat, run| {
            slice::add_assign(
                s,
                &mut sums[src_flat..src_flat + run],
                &weight[dst_flat..dst_flat + run],
            );
            slice::add_splat(s, &mut counts[src_flat..src_flat + run], 1.0);
        });
    }
}

/// Calls `f(src_flat, dst_flat, run)` for every contiguous kx run of every
/// patch of `spec`, in patch order. `src_flat` indexes the epitome tensor,
/// `dst_flat` the conv weight; both runs are `run` elements long.
fn for_each_patch_run(spec: &EpitomeSpec, mut f: impl FnMut(usize, usize, usize)) {
    let conv = spec.conv();
    let eshape = spec.shape();
    let (e1, e2, e3) = (
        eshape.cin * eshape.h * eshape.w,
        eshape.h * eshape.w,
        eshape.w,
    );
    let (c1, c2, c3) = (conv.cin * conv.kh * conv.kw, conv.kh * conv.kw, conv.kw);
    for patch in spec.plan().patches() {
        let run = patch.size[3];
        for a in 0..patch.size[0] {
            let src_a = (patch.src[0] + a) * e1;
            let dst_a = (patch.dst[0] + a) * c1;
            for b in 0..patch.size[1] {
                let src_b = src_a + (patch.src[1] + b) * e2;
                let dst_b = dst_a + (patch.dst[1] + b) * c2;
                for c in 0..patch.size[2] {
                    let src_flat = src_b + (patch.src[2] + c) * e3 + patch.src[3];
                    let dst_flat = dst_b + (patch.dst[2] + c) * c3 + patch.dst[3];
                    f(src_flat, dst_flat, run);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epim_tensor::{init, rng};

    fn spec(conv: ConvShape, epi: EpitomeShape) -> EpitomeSpec {
        EpitomeSpec::new(conv, epi).unwrap()
    }

    #[test]
    fn identity_epitome_reconstructs_itself() {
        let conv = ConvShape::new(4, 3, 3, 3);
        let s = spec(conv, EpitomeShape::new(4, 3, 3, 3));
        let mut r = rng::seeded(1);
        let data = init::uniform(&s.shape().dims(), -1.0, 1.0, &mut r);
        let epi = Epitome::from_tensor(s, data.clone()).unwrap();
        assert_eq!(epi.reconstruct().unwrap(), data);
    }

    #[test]
    fn replication_along_cout() {
        // cout 8 from cout_e 4: two identical channel blocks.
        let s = spec(ConvShape::new(8, 2, 3, 3), EpitomeShape::new(4, 2, 3, 3));
        let mut r = rng::seeded(2);
        let data = init::uniform(&s.shape().dims(), -1.0, 1.0, &mut r);
        let epi = Epitome::from_tensor(s, data).unwrap();
        let w = epi.reconstruct().unwrap();
        for co in 0..4 {
            for ci in 0..2 {
                for y in 0..3 {
                    for x in 0..3 {
                        assert_eq!(
                            w.at(&[co, ci, y, x]),
                            w.at(&[co + 4, ci, y, x]),
                            "translation invariance (paper Eq. 8)"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn repetition_counts_sum_to_conv_volume() {
        let conv = ConvShape::new(16, 8, 3, 3);
        let s = spec(conv, EpitomeShape::new(8, 4, 2, 2));
        let epi = Epitome::zeros(s);
        let reps = epi.repetition_map();
        assert_eq!(reps.sum() as usize, conv.params());
        // Compression implies some element repeats.
        assert!(reps.max() >= 2.0);
    }

    #[test]
    fn repetition_nonuniform_under_overlap() {
        // Tail windows overlap earlier full windows, so counts differ.
        let s = spec(ConvShape::new(4, 9, 1, 1), EpitomeShape::new(4, 5, 1, 1));
        let epi = Epitome::zeros(s);
        let reps = epi.repetition_map();
        assert!(
            reps.max() > reps.min(),
            "overlap must create nonuniform repetition"
        );
    }

    #[test]
    fn from_conv_weight_is_exact_when_lossless() {
        // Epitome with the same shape as the conv loses nothing.
        let conv = ConvShape::new(6, 5, 3, 3);
        let s = spec(conv, EpitomeShape::new(6, 5, 3, 3));
        let mut r = rng::seeded(3);
        let w = init::uniform(&conv.dims(), -1.0, 1.0, &mut r);
        let epi = Epitome::from_conv_weight(s, &w).unwrap();
        let back = epi.reconstruct().unwrap();
        assert!(back.allclose(&w, 1e-6).unwrap());
    }

    #[test]
    fn from_conv_weight_minimizes_reconstruction_error() {
        // Averaging init must beat a random epitome in MSE.
        let conv = ConvShape::new(8, 8, 3, 3);
        let s = spec(conv, EpitomeShape::new(4, 8, 2, 2));
        let mut r = rng::seeded(4);
        let w = init::uniform(&conv.dims(), -1.0, 1.0, &mut r);
        let avg = Epitome::from_conv_weight(s.clone(), &w).unwrap();
        let rnd = Epitome::from_tensor(
            s,
            init::uniform(&avg.spec().shape().dims(), -1.0, 1.0, &mut r),
        )
        .unwrap();
        let mse_avg = avg.reconstruct().unwrap().mse(&w).unwrap();
        let mse_rnd = rnd.reconstruct().unwrap().mse(&w).unwrap();
        assert!(mse_avg < mse_rnd, "avg {mse_avg} rnd {mse_rnd}");
    }

    #[test]
    fn averaging_is_least_squares_stationary() {
        // Perturbing any single epitome coordinate away from the average
        // must not reduce reconstruction MSE.
        let conv = ConvShape::new(4, 6, 3, 3);
        let s = spec(conv, EpitomeShape::new(2, 4, 2, 2));
        let mut r = rng::seeded(5);
        let w = init::uniform(&conv.dims(), -1.0, 1.0, &mut r);
        let epi = Epitome::from_conv_weight(s, &w).unwrap();
        let base = epi.reconstruct().unwrap().mse(&w).unwrap();
        for &flat in &[0usize, 3, 17, 31] {
            for delta in [0.05f32, -0.05] {
                let mut t = epi.tensor().clone();
                t.data_mut()[flat] += delta;
                let e2 = Epitome::from_tensor(epi.spec().clone(), t).unwrap();
                let m = e2.reconstruct().unwrap().mse(&w).unwrap();
                assert!(m >= base - 1e-7, "perturbation improved MSE: {m} < {base}");
            }
        }
    }

    #[test]
    fn backprop_matches_repetition_for_unit_grad() {
        // With dW = 1 everywhere, the epitome grad equals the repetition
        // count of each element.
        let s = spec(ConvShape::new(8, 6, 3, 3), EpitomeShape::new(4, 3, 2, 2));
        let epi = Epitome::zeros(s.clone());
        let dw = Tensor::ones(&s.conv().dims());
        let g = epi.backprop_weight_grad(&dw).unwrap();
        assert_eq!(g, epi.repetition_map());
    }

    #[test]
    fn shape_validation_errors() {
        let s = spec(ConvShape::new(4, 3, 3, 3), EpitomeShape::new(2, 3, 3, 3));
        assert!(Epitome::from_tensor(s.clone(), Tensor::zeros(&[1, 1, 1, 1])).is_err());
        assert!(Epitome::from_conv_weight(s.clone(), &Tensor::zeros(&[1, 1, 1, 1])).is_err());
        let mut epi = Epitome::zeros(s);
        assert!(epi.set_tensor(Tensor::zeros(&[9])).is_err());
        assert!(epi.backprop_weight_grad(&Tensor::zeros(&[2, 2])).is_err());
    }

    /// Every ISA arm of the replay/accumulate ops must reproduce the
    /// scalar arm bit-for-bit (exercised via the dispatcher's force hook,
    /// independent of which arm the host picks by default).
    #[test]
    fn epitome_ops_arms_match_scalar_bitwise() {
        use epim_simd::{dispatch_on, CpuFeatures, Isa};
        // Odd, non-lane-multiple kx runs and overlapping tail windows.
        let conv = ConvShape::new(24, 13, 3, 3);
        let s = spec(conv, EpitomeShape::new(16, 8, 2, 2));
        let mut r = rng::seeded(7);
        let data = init::uniform(&s.shape().dims(), -1.0, 1.0, &mut r);
        let dw = init::uniform(&conv.dims(), -1.0, 1.0, &mut r);
        let epi = Epitome::from_tensor(s.clone(), data).unwrap();

        let run_replay = |isa: Isa| {
            let mut band = vec![0.0f32; conv.params()];
            dispatch_on(
                isa,
                ReplayOp {
                    spec: &s,
                    band: &mut band,
                    co_lo: 0,
                    co_hi: conv.cout,
                    ed: epi.tensor().data(),
                },
            );
            band
        };
        let run_grad = |isa: Isa| {
            let mut grad = vec![0.0f32; s.shape().params()];
            dispatch_on(
                isa,
                AccumulateGradOp {
                    spec: &s,
                    grad: &mut grad,
                    dweight: dw.data(),
                },
            );
            grad
        };
        let run_avg = |isa: Isa| {
            let n = s.shape().params();
            let (mut sums, mut counts) = (vec![0.0f32; n], vec![0.0f32; n]);
            dispatch_on(
                isa,
                AverageInitOp {
                    spec: &s,
                    sums: &mut sums,
                    counts: &mut counts,
                    weight: dw.data(),
                },
            );
            (sums, counts)
        };

        let (want_w, want_g, want_sc) = (
            run_replay(Isa::Scalar),
            run_grad(Isa::Scalar),
            run_avg(Isa::Scalar),
        );
        for isa in CpuFeatures::get().available() {
            let (got_w, got_g, got_sc) = (run_replay(isa), run_grad(isa), run_avg(isa));
            for (i, (a, b)) in got_w.iter().zip(&want_w).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{isa:?} replay elem {i}");
            }
            for (i, (a, b)) in got_g.iter().zip(&want_g).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{isa:?} grad elem {i}");
            }
            for (i, (a, b)) in got_sc.0.iter().zip(&want_sc.0).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{isa:?} sums elem {i}");
            }
            for (i, (a, b)) in got_sc.1.iter().zip(&want_sc.1).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{isa:?} counts elem {i}");
            }
        }
        // The public entry points agree with the scalar reference too.
        let w = epi.reconstruct().unwrap();
        for (i, (a, b)) in w.data().iter().zip(&want_w).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "reconstruct elem {i}");
        }
        let g = epi.backprop_weight_grad(&dw).unwrap();
        for (i, (a, b)) in g.data().iter().zip(&want_g).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "backprop elem {i}");
        }
    }

    #[test]
    fn param_compression_rate() {
        let s = spec(
            ConvShape::new(512, 256, 3, 3),
            EpitomeShape::new(256, 256, 2, 2),
        );
        // conv params = 512*256*9; epitome = 256*256*4.
        let expected = (512.0 * 256.0 * 9.0) / (256.0 * 256.0 * 4.0);
        assert!((s.param_compression() - expected).abs() < 1e-9);
    }
}
