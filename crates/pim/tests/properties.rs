//! Property-based tests for the PIM simulator invariants: functional
//! equivalence with the reconstructed convolution, bit-identity with the
//! seed's per-pixel walk, mapping and cost-model laws.

mod oracle;

use epim_core::{ConvShape, Epitome, EpitomeShape, EpitomeSpec, MappedMatrix};
use epim_pim::datapath::{AnalogModel, DataPath, DataPathStats};
use epim_pim::{AcceleratorConfig, CostModel, Mapping, Precision};
use epim_tensor::ops::{conv2d, Conv2dCfg};
use epim_tensor::{init, rng};
use proptest::prelude::*;

fn shape_pair() -> impl Strategy<Value = (ConvShape, EpitomeShape)> {
    (1usize..=12, 1usize..=12, 1usize..=3, 1usize..=3)
        .prop_map(|(cout, cin, kh, kw)| ConvShape::new(cout, cin, kh, kw))
        .prop_flat_map(|conv| {
            (
                1usize..=conv.cout,
                1usize..=conv.cin,
                1usize..=conv.kh,
                1usize..=conv.kw,
            )
                .prop_map(move |(a, b, c, d)| (conv, EpitomeShape::new(a, b, c, d)))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Functional equivalence, the paper's implicit correctness condition:
    /// epitome-on-crossbars == conv2d(reconstructed weight), with and
    /// without channel wrapping, on random shapes and inputs.
    #[test]
    fn datapath_equals_reconstructed_conv(
        (conv, eshape) in shape_pair(),
        seed in 0u64..10_000,
        stride in 1usize..=2,
        padding in 0usize..=1,
        wrapping in any::<bool>(),
    ) {
        let cfg = Conv2dCfg { stride, padding };
        let spec = EpitomeSpec::new(conv, eshape).unwrap();
        let mut r = rng::seeded(seed);
        let data = init::uniform(&eshape.dims(), -1.0, 1.0, &mut r);
        let epi = Epitome::from_tensor(spec, data).unwrap();
        let x = init::uniform(&[1, conv.cin, 6, 6], -1.0, 1.0, &mut r);
        let w = epi.reconstruct().unwrap();
        let want = conv2d(&x, &w, None, cfg).unwrap();
        let dp = DataPath::new(&epi, cfg, wrapping).unwrap();
        let (got, stats) = dp.execute(&x).unwrap();
        prop_assert!(got.allclose(&want, 2e-3).unwrap(),
            "mse {}", got.mse(&want).unwrap());
        prop_assert!(stats.rounds >= 1);
        prop_assert_eq!(
            stats.buffer_writes >= stats.joint_adds,
            true
        );
    }

    /// Mapping invariants: crossbars = tiles product, utilization in (0,1],
    /// and monotonicity in weight bits.
    #[test]
    fn mapping_invariants(rows in 1usize..5000, cols in 1usize..2000, bits in 1u8..=32) {
        let xb = epim_pim::CrossbarConfig::default();
        let m = Mapping::new(MappedMatrix::new(rows, cols), xb, Precision::new(bits, 9)).unwrap();
        prop_assert_eq!(m.crossbars, m.row_tiles * m.col_tiles);
        prop_assert!(m.utilization > 0.0 && m.utilization <= 1.0 + 1e-12);
        if bits < 32 {
            let m2 = Mapping::new(
                MappedMatrix::new(rows, cols), xb, Precision::new(bits + 1, 9)).unwrap();
            prop_assert!(m2.crossbars >= m.crossbars);
        }
    }

    /// Cost-model sanity: all outputs finite and positive; latency and
    /// energy strictly increase with pixel count; wrapping never increases
    /// either.
    #[test]
    fn cost_model_monotonicity(
        (conv, eshape) in shape_pair(),
        pixels in 1usize..500,
        wb in 1u8..=16,
        ab in 1u8..=16,
    ) {
        let spec = EpitomeSpec::new(conv, eshape).unwrap();
        let prec = Precision::new(wb, ab);
        let base = CostModel::new(AcceleratorConfig::default());
        let wrap = CostModel::new(AcceleratorConfig::default().with_channel_wrapping(true));
        let a = base.epitome_layer(&spec, pixels, prec);
        let b = base.epitome_layer(&spec, pixels * 2, prec);
        prop_assert!(a.latency_ns.is_finite() && a.latency_ns > 0.0);
        prop_assert!(a.energy_pj.is_finite() && a.energy_pj > 0.0);
        prop_assert!(b.latency_ns > a.latency_ns);
        prop_assert!(b.energy_pj > a.energy_pj);
        let w = wrap.epitome_layer(&spec, pixels, prec);
        prop_assert!(w.latency_ns <= a.latency_ns + 1e-9);
        prop_assert!(w.energy_pj <= a.energy_pj + 1e-9);
        prop_assert!(w.buffer_writes <= a.buffer_writes);
        prop_assert_eq!(w.crossbars, a.crossbars);
        // EDP identity.
        prop_assert!((a.edp() - a.latency_ns * a.energy_pj).abs() < 1e-6 * a.edp().max(1.0));
    }

    /// The epitome never maps to more crossbars than its convolution.
    #[test]
    fn epitome_crossbars_bounded((conv, eshape) in shape_pair(), wb in 1u8..=16) {
        let xb = epim_pim::CrossbarConfig::default();
        let prec = Precision::new(wb, 9);
        let mc = Mapping::new(MappedMatrix::from_conv(conv), xb, prec).unwrap();
        let me = Mapping::new(MappedMatrix::from_epitome(eshape), xb, prec).unwrap();
        prop_assert!(me.crossbars <= mc.crossbars);
    }

    /// The batched data path is a pure restructuring: on random odd shapes,
    /// strides, paddings, analog models and batch sizes, `execute_batch`
    /// must be **bit-identical** to the seed's per-pixel reference loop,
    /// with stats equal to the sum of per-request runs.
    #[test]
    fn execute_batch_bit_exact_vs_reference(
        (conv, eshape) in shape_pair(),
        seed in 0u64..10_000,
        stride in 1usize..=2,
        padding in 0usize..=1,
        wrapping in any::<bool>(),
        batch in 1usize..=4,
        imgs in 1usize..=2,
        quantized in any::<bool>(),
    ) {
        let cfg = Conv2dCfg { stride, padding };
        let spec = EpitomeSpec::new(conv, eshape).unwrap();
        let mut r = rng::seeded(seed);
        let data = init::uniform(&eshape.dims(), -1.0, 1.0, &mut r);
        let epi = Epitome::from_tensor(spec, data).unwrap();
        let analog = if quantized {
            AnalogModel { adc_bits: Some(8), dac_bits: Some(9), ..AnalogModel::ideal() }
        } else {
            AnalogModel::ideal()
        };
        let dp = DataPath::with_analog(&epi, cfg, wrapping, analog).unwrap();
        let xs: Vec<_> = (0..batch)
            .map(|_| init::uniform(&[imgs, conv.cin, 5, 6], -1.0, 1.0, &mut r))
            .collect();
        let refs: Vec<&_> = xs.iter().collect();
        let (batched, batch_stats) = dp.execute_batch(&refs).unwrap();
        let mut want_stats = DataPathStats::default();
        for (x, got) in xs.iter().zip(&batched) {
            let (want, s) = oracle::execute_reference(&epi, cfg, wrapping, analog, x);
            prop_assert_eq!(got, &want, "batched output diverged bitwise");
            want_stats.accumulate(&s);
        }
        prop_assert_eq!(batch_stats, want_stats);
    }
}
