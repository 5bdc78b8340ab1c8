//! Property-based tests for the quantization invariants: idempotent fake
//! quantization, MSE monotone in bits, per-crossbar no worse than
//! per-tensor, overlap ranges inside the min/max envelope, mixed precision
//! within its budget, and the slice kernels bit-identical to their
//! per-element oracle.

use epim_core::{ConvShape, Epitome, EpitomeShape, EpitomeSpec};
use epim_quant::{
    quantize_epitome, quantize_per_crossbar, repetition_weighted_sq_error, sensitivity_proxy,
    MixedPrecision, QuantGranularity, QuantReport, Quantizer, RangeEstimator,
};
use epim_tensor::{init, rng, Tensor};
use proptest::prelude::*;

mod oracle;

/// `to_bits` equality of two quantization results: values and report.
fn assert_bitwise(got: (&Tensor, &QuantReport), want: (&Tensor, &QuantReport)) {
    assert_eq!(got.0.shape(), want.0.shape());
    for (i, (g, w)) in got.0.data().iter().zip(want.0.data()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "element {i}: {g} vs {w}");
    }
    assert_eq!((got.1.bits, got.1.groups), (want.1.bits, want.1.groups));
    assert_eq!(got.1.mse.to_bits(), want.1.mse.to_bits());
    assert_eq!(got.1.sqnr_db.to_bits(), want.1.sqnr_db.to_bits());
}

/// `MinMax` for 0, otherwise overlap weights derived from `pick`.
fn range_for(pick: u8, w1: f32) -> RangeEstimator {
    match pick {
        0 => RangeEstimator::MinMax,
        1 => RangeEstimator::overlap_default(),
        _ => RangeEstimator::OverlapWeighted { w1, w2: 1.5 - w1 },
    }
}

proptest! {
    /// Round-trip error of in-range values never exceeds half a step.
    #[test]
    fn roundtrip_half_step(bits in 1u8..=12, lo in -10.0f32..0.0, span in 0.01f32..20.0,
                           seed in 0u64..10_000) {
        let hi = lo + span;
        let q = Quantizer::from_range(bits, lo, hi).unwrap();
        let mut r = rng::seeded(seed);
        let t = init::uniform(&[256], lo, hi, &mut r);
        let deq = q.fake_quant(&t);
        // Half a step plus f32 arithmetic noise proportional to the value
        // magnitude (matters at 12 bits with offsets near ±10).
        let tol = q.step() / 2.0 * (1.0 + 1e-4) + lo.abs().max(hi.abs()) * 4.0 * f32::EPSILON;
        prop_assert!(t.allclose(&deq, tol).unwrap());
    }

    /// Quantization is idempotent: fake-quant of fake-quant is identity.
    #[test]
    fn fake_quant_idempotent(bits in 1u8..=10, seed in 0u64..10_000) {
        let mut r = rng::seeded(seed);
        let t = init::uniform(&[128], -1.0, 1.0, &mut r);
        let q = Quantizer::fit(&t, bits, &RangeEstimator::MinMax).unwrap();
        let once = q.fake_quant(&t);
        let twice = q.fake_quant(&once);
        prop_assert!(once.allclose(&twice, 1e-6).unwrap());
    }

    /// MSE is monotone non-increasing in bit width.
    #[test]
    fn mse_monotone_in_bits(seed in 0u64..10_000) {
        let mut r = rng::seeded(seed);
        let t = init::uniform(&[512], -2.0, 2.0, &mut r);
        let mut prev = f32::INFINITY;
        for bits in [2u8, 4, 6, 8, 10] {
            let q = Quantizer::fit(&t, bits, &RangeEstimator::MinMax).unwrap();
            let m = q.mse(&t);
            prop_assert!(m <= prev + 1e-9, "bits {} mse {} prev {}", bits, m, prev);
            prev = m;
        }
    }

    /// Overlap-weighted ranges always stay inside the min/max envelope
    /// when w1 + w2 = 1.
    #[test]
    fn overlap_range_within_envelope(w1 in 0.0f32..=1.0, seed in 0u64..10_000) {
        let spec = EpitomeSpec::new(
            ConvShape::new(6, 9, 1, 1),
            EpitomeShape::new(3, 5, 1, 1),
        ).unwrap();
        let mut r = rng::seeded(seed);
        let data = init::uniform(&spec.shape().dims(), -3.0, 3.0, &mut r);
        let epi = Epitome::from_tensor(spec, data).unwrap();
        let reps = epi.repetition_map();
        let est = RangeEstimator::OverlapWeighted { w1, w2: 1.0 - w1 };
        let (a, b) = est.estimate(epi.tensor(), Some(&reps)).unwrap();
        prop_assert!(a >= epi.tensor().min() - 1e-5);
        prop_assert!(b <= epi.tensor().max() + 1e-5);
        prop_assert!(a <= b);
    }

    /// Per-crossbar granularity does not meaningfully increase MSE versus
    /// per-tensor: every tile's range is a subset of the whole range, so
    /// each tile's step — and therefore its worst-case element error — is
    /// no larger. Sample MSE can still fluctuate slightly with grid
    /// alignment, hence the small statistical tolerance.
    #[test]
    fn per_crossbar_no_worse(bits in 2u8..=6, seed in 0u64..10_000,
                             tr in 2usize..=8, tc in 2usize..=8) {
        let mut r = rng::seeded(seed);
        let m = init::uniform(&[16, 16], -1.0, 1.0, &mut r);
        let (qw, whole) = quantize_per_crossbar(&m, None, bits, 16, 16,
            &RangeEstimator::MinMax).unwrap();
        let (qt, tiled) = quantize_per_crossbar(&m, None, bits, tr, tc,
            &RangeEstimator::MinMax).unwrap();
        prop_assert!(tiled.mse <= whole.mse * 1.15 + 1e-12,
            "tiled {} whole {}", tiled.mse, whole.mse);
        // The worst-case bound is strict: the tiled max error never
        // exceeds the per-tensor half step.
        let whole_step = (m.max() - m.min()) / ((1u32 << bits) - 1) as f32;
        let max_err_tiled = qt.sub(&m).unwrap().abs_max();
        let max_err_whole = qw.sub(&m).unwrap().abs_max();
        prop_assert!(max_err_tiled <= whole_step / 2.0 * 1.0001);
        prop_assert!(max_err_whole <= whole_step / 2.0 * 1.0001);
    }

    /// Quantizing an epitome preserves its shape and the quantized tensor
    /// only holds representable values (each tile's grid).
    #[test]
    fn epitome_quant_shape_stable(bits in 2u8..=8, seed in 0u64..10_000) {
        let spec = EpitomeSpec::new(
            ConvShape::new(8, 8, 3, 3),
            EpitomeShape::new(4, 4, 2, 2),
        ).unwrap();
        let mut r = rng::seeded(seed);
        let data = init::uniform(&spec.shape().dims(), -1.0, 1.0, &mut r);
        let epi = Epitome::from_tensor(spec, data).unwrap();
        let (q, rep) = quantize_epitome(
            &epi, bits,
            QuantGranularity::PerCrossbar { rows: 8, cols: 4 },
            &RangeEstimator::MinMax,
        ).unwrap();
        prop_assert_eq!(q.tensor().shape(), epi.tensor().shape());
        prop_assert!(rep.mse.is_finite());
        prop_assert!(rep.groups >= 1);
    }

    /// The slice kernel equals the per-element implementation it replaced,
    /// bit for bit, on epitomes: values and every report field, whatever
    /// the shapes, the bit width, the tiling (tiles that do not divide the
    /// matrix included) and the range estimator.
    #[test]
    fn quantize_epitome_matches_per_element_oracle(
        (cout, cin, kh, kw) in (1usize..=24, 1usize..=12, 1usize..=3, 1usize..=3),
        (ecout_pct, ecin_pct, eh, ew) in (1usize..=100, 1usize..=100, 1usize..=3, 1usize..=3),
        bits in 1u8..=9,
        (tile_rows, tile_cols) in (0usize..=40, 1usize..=20),
        (range_pick, w1) in (0u8..3, 0.0f32..=1.5),
        (normal, seed) in (any::<bool>(), 0u64..10_000),
    ) {
        let conv = ConvShape::new(cout, cin, kh, kw);
        let shape = EpitomeShape::new(
            (cout * ecout_pct).div_ceil(100),
            (cin * ecin_pct).div_ceil(100),
            eh.min(kh),
            ew.min(kw),
        );
        let spec = EpitomeSpec::new(conv, shape).unwrap();
        let mut r = rng::seeded(seed);
        let data = if normal {
            init::kaiming_normal(&shape.dims(), &mut r)
        } else {
            init::uniform(&shape.dims(), -2.0, 1.0, &mut r)
        };
        let epi = Epitome::from_tensor(spec, data).unwrap();
        // Tile height 0 stands for the per-tensor granularity.
        let granularity = if tile_rows == 0 {
            QuantGranularity::PerTensor
        } else {
            QuantGranularity::PerCrossbar { rows: tile_rows, cols: tile_cols }
        };
        let range = range_for(range_pick, w1);
        let (got, got_rep) = quantize_epitome(&epi, bits, granularity, &range).unwrap();
        let (want, want_rep) = oracle::quantize_epitome(&epi, bits, granularity, &range).unwrap();
        prop_assert_eq!(got.spec(), epi.spec());
        assert_bitwise((got.tensor(), &got_rep), (want.tensor(), &want_rep));

        // The sensitivity proxy is the repetition-weighted error of the
        // per-tensor min/max quantization, without building that epitome.
        let naive = RangeEstimator::MinMax;
        let (q, _) = oracle::quantize_epitome(&epi, bits, QuantGranularity::PerTensor, &naive)
            .unwrap();
        let want = repetition_weighted_sq_error(epi.tensor(), q.tensor(), &epi.repetition_map())
            .unwrap();
        prop_assert_eq!(sensitivity_proxy(&epi, bits).unwrap().to_bits(), want.to_bits());
    }

    /// The same on row-major matrices, with and without a repetition map.
    #[test]
    fn quantize_per_crossbar_matches_per_element_oracle(
        (rows, cols) in (1usize..=50, 1usize..=50),
        bits in 1u8..=9,
        (tile_rows, tile_cols) in (1usize..=60, 1usize..=60),
        (range_pick, w1) in (0u8..3, 0.0f32..=1.5),
        (with_reps, seed) in (any::<bool>(), 0u64..10_000),
    ) {
        let mut r = rng::seeded(seed);
        let m = init::uniform(&[rows, cols], -1.0, 3.0, &mut r);
        let reps = init::uniform(&[rows, cols], 1.0, 4.0, &mut r).map(f32::floor);
        let range = range_for(range_pick, w1);
        // Overlap weighting needs the map; min/max must ignore it.
        let reps = (with_reps || range_pick != 0).then_some(&reps);
        let (got, got_rep) =
            quantize_per_crossbar(&m, reps, bits, tile_rows, tile_cols, &range).unwrap();
        let (want, want_rep) =
            oracle::quantize_per_crossbar(&m, reps, bits, tile_rows, tile_cols, &range).unwrap();
        assert_bitwise((&got, &got_rep), (&want, &want_rep));
    }

    /// Mixed-precision allocation always respects the budget and assigns
    /// only the two configured bit widths.
    #[test]
    fn mixed_precision_budget(
        n in 1usize..20,
        budget_frac in 0.0f64..=1.0,
        seed in 0u64..10_000,
    ) {
        let mut r = rng::seeded(seed);
        let sens: Vec<f64> = (0..n).map(|_| epim_tensor::rng::uniform(&mut r, 0.0, 10.0) as f64).collect();
        let params: Vec<usize> = (0..n).map(|_| 1 + (epim_tensor::rng::uniform(&mut r, 0.0, 1000.0) as usize)).collect();
        let budget = 3.0 + 2.0 * budget_frac;
        let mp = MixedPrecision::new(3, 5, budget);
        let alloc = mp.allocate(&sens, &params).unwrap();
        prop_assert!(alloc.avg_bits <= budget + 1e-9);
        prop_assert!(alloc.bits.iter().all(|&b| b == 3 || b == 5));
        // avg consistency.
        let total: f64 = params.iter().map(|&p| p as f64).sum();
        let avg: f64 = alloc.bits.iter().zip(&params)
            .map(|(&b, &p)| b as f64 * p as f64).sum::<f64>() / total;
        prop_assert!((avg - alloc.avg_bits).abs() < 1e-9);
    }

    /// Degenerate constant tensors survive every pipeline exactly.
    #[test]
    fn constant_tensor_exact_everywhere(bits in 1u8..=8, v in -5.0f32..5.0) {
        let t = Tensor::full(&[32], v);
        let q = Quantizer::fit(&t, bits, &RangeEstimator::MinMax).unwrap();
        prop_assert_eq!(q.mse(&t), 0.0);
    }
}
