//! Property-based tests for the epitome invariants: sampling plans
//! partition the convolution weight, reconstruction equals the patch
//! replay and is adjoint to its backward pass, repetition mass is
//! conserved, designer output is legal, and wrapping implies periodicity.

use epim_core::{
    wrapping_factor, ConvShape, DimPlan, Epitome, EpitomeDesigner, EpitomeShape, EpitomeSpec,
    SamplingPlan,
};
use epim_tensor::{init, rng, Tensor};
use proptest::prelude::*;

fn conv_strategy() -> impl Strategy<Value = ConvShape> {
    (1usize..=32, 1usize..=32, 1usize..=5, 1usize..=5)
        .prop_map(|(cout, cin, kh, kw)| ConvShape::new(cout, cin, kh, kw))
}

fn shape_pair() -> impl Strategy<Value = (ConvShape, EpitomeShape)> {
    conv_strategy().prop_flat_map(|conv| {
        (
            1usize..=conv.cout,
            1usize..=conv.cin,
            1usize..=conv.kh,
            1usize..=conv.kw,
        )
            .prop_map(move |(ecout, ecin, eh, ew)| (conv, EpitomeShape::new(ecout, ecin, eh, ew)))
    })
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn spec_for(conv: ConvShape, epi: EpitomeShape, overlapping: bool) -> EpitomeSpec {
    let plan = if overlapping {
        SamplingPlan::build_overlapping(conv, epi)
    } else {
        SamplingPlan::build(conv, epi)
    }
    .unwrap();
    EpitomeSpec::with_plan(conv, epi, plan).unwrap()
}

/// The seed's reconstruction: every patch replayed one element at a time,
/// in plan order, so a later overlapping patch overwrites an earlier one.
fn reconstruct_by_patch_replay(e: &Epitome) -> Tensor {
    let mut out = Tensor::zeros(&e.spec().conv().dims());
    for p in e.spec().plan().patches() {
        for a in 0..p.size[0] {
            for b in 0..p.size[1] {
                for c in 0..p.size[2] {
                    for d in 0..p.size[3] {
                        let src = [p.src[0] + a, p.src[1] + b, p.src[2] + c, p.src[3] + d];
                        let dst = [p.dst[0] + a, p.dst[1] + b, p.dst[2] + c, p.dst[3] + d];
                        out.set(&dst, e.tensor().at(&src)).unwrap();
                    }
                }
            }
        }
    }
    out
}

/// The patch walk `Epitome::repetition_map` replaced: one increment per
/// convolution element, at the epitome element it is read from.
fn repetition_by_patch_walk(spec: &EpitomeSpec) -> Tensor {
    let mut counts = Tensor::zeros(&spec.shape().dims());
    for p in spec.plan().patches() {
        for a in 0..p.size[0] {
            for b in 0..p.size[1] {
                for c in 0..p.size[2] {
                    for d in 0..p.size[3] {
                        let src = [p.src[0] + a, p.src[1] + b, p.src[2] + c, p.src[3] + d];
                        counts.set(&src, counts.at(&src) + 1.0).unwrap();
                    }
                }
            }
        }
    }
    counts
}

proptest! {
    /// The separable repetition map (a product of per-axis cover counts)
    /// equals the patch walk and the adjoint of reconstruction applied to
    /// all-ones, bit for bit — for replicated and overlapping output-channel
    /// plans and extents that do not divide.
    #[test]
    fn repetition_map_matches_patch_walk((conv, epi) in shape_pair(), overlapping in any::<bool>()) {
        let spec = spec_for(conv, epi, overlapping);
        let e = Epitome::zeros(spec.clone());
        let reps = e.repetition_map();
        prop_assert_eq!(reps.shape(), &epi.dims()[..]);
        prop_assert_eq!(bits(&reps), bits(&repetition_by_patch_walk(&spec)));
        let ones = Tensor::ones(&conv.dims());
        prop_assert_eq!(bits(&reps), bits(&e.backprop_weight_grad(&ones).unwrap()));
    }

    /// `Epitome::reconstruct` (per-ISA kx-run copies) equals the seed's
    /// element-at-a-time patch replay bit for bit, for replicated and
    /// overlapping output-channel plans and extents that do not divide.
    #[test]
    fn reconstruct_matches_patch_replay(
        (conv, epi) in shape_pair(),
        overlapping in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let mut r = rng::seeded(seed);
        let data = init::uniform(&epi.dims(), -1.0, 1.0, &mut r);
        let e = Epitome::from_tensor(spec_for(conv, epi, overlapping), data).unwrap();
        prop_assert_eq!(bits(&e.reconstruct().unwrap()), bits(&reconstruct_by_patch_replay(&e)));
    }

    /// Every legal dim plan partitions the destination axis.
    #[test]
    fn dim_plan_partitions(dst in 1usize..200, src in 1usize..200) {
        let p = DimPlan::build(dst, src).unwrap();
        p.verify().unwrap();
        let covered: usize = p.segments.iter().map(|s| s.len).sum();
        prop_assert_eq!(covered, dst);
    }

    /// Replicated plans partition too and are detected as replicated.
    #[test]
    fn replicated_plan_partitions(dst in 1usize..200, src in 1usize..200) {
        let p = DimPlan::build_replicated(dst, src).unwrap();
        p.verify().unwrap();
        prop_assert!(p.is_replicated());
    }

    /// Reconstruction totality: every conv weight element is written by
    /// exactly one patch, for arbitrary legal shape pairs.
    #[test]
    fn plan_partitions_conv_weight((conv, epi) in shape_pair()) {
        let plan = SamplingPlan::build(conv, epi).unwrap();
        plan.verify().unwrap();
        // Write a unique value through each patch and check full coverage:
        // seed the epitome with a sentinel and verify no destination keeps
        // its initial NaN.
        let spec = EpitomeSpec::with_plan(conv, epi, plan).unwrap();
        let e = Epitome::from_tensor(spec, Tensor::ones(&epi.dims())).unwrap();
        let w = e.reconstruct().unwrap();
        prop_assert!(w.data().iter().all(|&v| v == 1.0));
    }

    /// Repetition counts sum to the conv volume and are >= 1 wherever the
    /// epitome is actually used.
    #[test]
    fn repetition_mass_conserved((conv, epi) in shape_pair()) {
        let spec = EpitomeSpec::new(conv, epi).unwrap();
        let e = Epitome::zeros(spec);
        let reps = e.repetition_map();
        prop_assert_eq!(reps.sum() as usize, conv.params());
        prop_assert!(reps.min() >= 0.0);
    }

    /// Averaging init is a least-squares projection: its reconstruction
    /// error never exceeds that of the zero epitome (predicting 0
    /// everywhere) or of a constant-mean epitome.
    #[test]
    fn averaging_beats_trivial_epitomes((conv, epi) in shape_pair(), seed in 0u64..1000) {
        let spec = EpitomeSpec::new(conv, epi).unwrap();
        let mut r = rng::seeded(seed);
        let w = init::uniform(&conv.dims(), -1.0, 1.0, &mut r);
        let avg = Epitome::from_conv_weight(spec.clone(), &w).unwrap();
        let mse_avg = avg.reconstruct().unwrap().mse(&w).unwrap();
        let zero = Epitome::zeros(spec.clone());
        let mse_zero = zero.reconstruct().unwrap().mse(&w).unwrap();
        let mean = Epitome::from_tensor(
            spec,
            Tensor::full(&epi.dims(), w.mean()),
        ).unwrap();
        let mse_mean = mean.reconstruct().unwrap().mse(&w).unwrap();
        prop_assert!(mse_avg <= mse_zero + 1e-5);
        prop_assert!(mse_avg <= mse_mean + 1e-5);
    }

    /// Wrapping factor r implies the weight is r-periodic along cout.
    #[test]
    fn wrapping_implies_periodicity((conv, epi) in shape_pair(), seed in 0u64..1000) {
        let spec = EpitomeSpec::new(conv, epi).unwrap();
        let wrap = wrapping_factor(spec.plan());
        let mut r = rng::seeded(seed);
        let data = init::uniform(&epi.dims(), -1.0, 1.0, &mut r);
        let e = Epitome::from_tensor(spec, data).unwrap();
        let w = e.reconstruct().unwrap();
        if wrap.factor > 1 {
            let c = wrap.block;
            for co in 0..conv.cout - c {
                for ci in 0..conv.cin {
                    for y in 0..conv.kh {
                        for x in 0..conv.kw {
                            prop_assert_eq!(w.at(&[co, ci, y, x]), w.at(&[co + c, ci, y, x]));
                        }
                    }
                }
            }
        }
    }

    /// Designer output is always legal: plan verifies, shape within conv,
    /// alignment holds for sizes above one crossbar.
    #[test]
    fn designer_output_legal(
        conv in conv_strategy(),
        rows_frac in 1usize..=8,
        cout_frac in 1usize..=4,
    ) {
        let d = EpitomeDesigner::new(16, 16);
        let rows = (conv.matrix_rows() / rows_frac).max(1);
        let cout = (conv.cout / cout_frac).max(1);
        let spec = d.design(conv, rows, cout).unwrap();
        spec.plan().verify().unwrap();
        prop_assert!(spec.shape().matrix_rows() <= conv.matrix_rows().max(16));
        prop_assert!(spec.shape().cout <= conv.cout);
        if spec.shape().matrix_rows() >= 16 {
            prop_assert_eq!(spec.shape().matrix_rows() % 16, 0);
        }
        prop_assert!(spec.param_compression() >= 0.99);
    }

    /// Backprop adjointness: <reconstruct(e), dW> == <e, backprop(dW)>.
    #[test]
    fn reconstruct_backprop_adjoint((conv, epi) in shape_pair(), seed in 0u64..1000) {
        let spec = EpitomeSpec::new(conv, epi).unwrap();
        let mut r = rng::seeded(seed);
        let data = init::uniform(&epi.dims(), -1.0, 1.0, &mut r);
        let dw = init::uniform(&conv.dims(), -1.0, 1.0, &mut r);
        let e = Epitome::from_tensor(spec, data.clone()).unwrap();
        let lhs: f32 = e.reconstruct().unwrap().mul(&dw).unwrap().sum();
        let g = e.backprop_weight_grad(&dw).unwrap();
        let rhs: f32 = data.mul(&g).unwrap().sum();
        prop_assert!((lhs - rhs).abs() <= 1e-2 * (1.0 + lhs.abs().max(rhs.abs())),
            "lhs {} rhs {}", lhs, rhs);
    }
}

/// The paper's uniform epitome for a 512x256x3x3 layer: big enough that
/// `reconstruct` replays one output-channel band per pool thread when the
/// pool is wider than one, which no shape above reaches.
#[test]
fn paper_scale_reconstruct_matches_patch_replay() {
    let spec = EpitomeSpec::new(
        ConvShape::new(512, 256, 3, 3),
        EpitomeShape::new(256, 256, 2, 2),
    )
    .unwrap();
    let data = init::kaiming_normal(&spec.shape().dims(), &mut rng::seeded(9));
    let e = Epitome::from_tensor(spec, data).unwrap();
    assert_eq!(
        bits(&e.reconstruct().unwrap()),
        bits(&reconstruct_by_patch_replay(&e))
    );
}
