//! `DataPath`'s executor against the seed's per-pixel table walk
//! (`oracle::execute_reference`): outputs bit for bit, `DataPathStats`
//! exactly, through every entry point.

mod oracle;

use epim_core::{ConvShape, Epitome, EpitomeDesigner, EpitomeShape, EpitomeSpec};
use epim_pim::datapath::{AnalogModel, CompiledPlan, DataPath, DataPathStats};
use epim_tensor::ops::{relu, Conv2dCfg};
use epim_tensor::{init, rng, Tensor};

fn random_epitome(conv: ConvShape, eshape: EpitomeShape, seed: u64) -> Epitome {
    let spec = EpitomeSpec::new(conv, eshape).unwrap();
    let mut r = rng::seeded(seed);
    let data = init::uniform(&eshape.dims(), -1.0, 1.0, &mut r);
    Epitome::from_tensor(spec, data).unwrap()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn a9adc8() -> AnalogModel {
    AnalogModel {
        adc_bits: Some(8),
        dac_bits: Some(9),
        ..AnalogModel::ideal()
    }
}

#[test]
fn ifrt_sequences_have_crossbar_length() {
    let conv = ConvShape::new(8, 4, 3, 3);
    let epi = random_epitome(conv, EpitomeShape::new(4, 2, 2, 2), 8);
    let t = oracle::tables(epi.spec());
    let rows_e = epi.spec().shape().matrix_rows();
    for seq in &t.ifrt {
        assert_eq!(seq.len(), rows_e);
    }
    // Number of sequences == number of sampled patches (paper §4.3).
    let patches = epi.spec().plan().patches().len();
    assert_eq!(t.ifrt.len(), patches);
    // IFAT and OFAT have one entry per round too.
    assert_eq!(t.ifat.len(), patches);
    assert_eq!(t.ofat.len(), patches);
    // The executor runs one round per table entry.
    let plan = CompiledPlan::compile(epi.spec()).unwrap();
    assert_eq!(plan.rounds_per_pixel(), patches);
}

#[test]
fn execute_matches_seed_reference_loop() {
    // The executor must agree with the seed's original per-pixel
    // pipeline bit for bit (every sum runs in the reference's order),
    // stats exactly.
    let conv = ConvShape::new(8, 6, 3, 3);
    let epi = random_epitome(conv, EpitomeShape::new(4, 3, 2, 2), 40);
    let mut r = rng::seeded(41);
    let x = init::uniform(&[2, 6, 7, 7], -1.0, 1.0, &mut r);
    let cfg = Conv2dCfg {
        stride: 2,
        padding: 1,
    };
    for wrapping in [false, true] {
        for analog in [
            AnalogModel::ideal(),
            AnalogModel {
                weight_noise_std: 0.02,
                ..a9adc8()
            },
        ] {
            let dp = DataPath::with_analog(&epi, cfg, wrapping, analog).unwrap();
            let (fast, fast_stats) = dp.execute(&x).unwrap();
            let (slow, slow_stats) = oracle::execute_reference(&epi, cfg, wrapping, analog, &x);
            assert_eq!(bits(&fast), bits(&slow), "wrapping={wrapping}");
            assert_eq!(fast_stats, slow_stats, "wrapping={wrapping}");
        }
    }
}

#[test]
fn execute_batch_bit_identical_to_sequential_execute() {
    let conv = ConvShape::new(8, 6, 3, 3);
    let epi = random_epitome(conv, EpitomeShape::new(4, 3, 2, 2), 50);
    let mut r = rng::seeded(51);
    let cfg = Conv2dCfg {
        stride: 1,
        padding: 1,
    };
    for wrapping in [false, true] {
        for analog in [
            AnalogModel::ideal(),
            AnalogModel {
                weight_noise_std: 0.02,
                ..a9adc8()
            },
        ] {
            let dp = DataPath::with_analog(&epi, cfg, wrapping, analog).unwrap();
            // Mixed per-request image counts: shapes must match, N may
            // exceed 1 per request.
            let xs: Vec<Tensor> = (0..5)
                .map(|_| init::uniform(&[2, 6, 7, 7], -1.0, 1.0, &mut r))
                .collect();
            let refs: Vec<&Tensor> = xs.iter().collect();
            let (batched, batch_stats) = dp.execute_batch(&refs).unwrap();
            assert_eq!(batched.len(), xs.len());
            let mut want_stats = DataPathStats::default();
            for (x, got) in xs.iter().zip(&batched) {
                let (want, s) = oracle::execute_reference(&epi, cfg, wrapping, analog, x);
                assert_eq!(bits(got), bits(&want), "wrapping={wrapping}");
                want_stats.accumulate(&s);
            }
            assert_eq!(batch_stats, want_stats, "wrapping={wrapping}");
        }
    }
}

#[test]
fn execute_batch_bit_identical_to_reference() {
    let conv = ConvShape::new(8, 4, 3, 3);
    let epi = random_epitome(conv, EpitomeShape::new(4, 4, 2, 2), 52);
    let cfg = Conv2dCfg {
        stride: 2,
        padding: 1,
    };
    let dp = DataPath::with_analog(&epi, cfg, true, a9adc8()).unwrap();
    let mut r = rng::seeded(53);
    let xs: Vec<Tensor> = (0..3)
        .map(|_| init::uniform(&[1, 4, 6, 6], -1.0, 1.0, &mut r))
        .collect();
    let refs: Vec<&Tensor> = xs.iter().collect();
    let (batched, batch_stats) = dp.execute_batch(&refs).unwrap();
    let mut ref_stats = DataPathStats::default();
    for (x, got) in xs.iter().zip(&batched) {
        let (want, s) = oracle::execute_reference(&epi, cfg, true, a9adc8(), x);
        assert_eq!(bits(got), bits(&want));
        ref_stats.accumulate(&s);
    }
    assert_eq!(batch_stats, ref_stats);
}

/// Paper-scale rounds (64–256 bit lines, up to 256 word lines) reach the
/// wide MVM tile, several tiles with a ragged last one and the parallel
/// paths; the shapes above are too narrow to. Every entry point equals the
/// oracle bit for bit, ideal and A9/ADC8, with and without wrapping:
/// `execute`, `execute_batch`, and the serving `execute_stacked_into` on
/// a stacked block, whose fused ReLU equals the oracle followed by
/// `ops::relu`.
#[test]
fn paper_shaped_layers_bit_identical_across_all_paths() {
    let designer = EpitomeDesigner::new(128, 128);
    let mut r = rng::seeded(60);
    for (conv, padding) in [
        (ConvShape::new(64, 64, 3, 3), 1),
        (ConvShape::new(1024, 256, 1, 1), 0),
    ] {
        let spec = designer.design(conv, 1024, 256).unwrap();
        let data = init::uniform(&spec.shape().dims(), -0.5, 0.5, &mut r);
        let epi = Epitome::from_tensor(spec, data).unwrap();
        let cfg = Conv2dCfg { stride: 1, padding };
        let xs: Vec<Tensor> = (0..2)
            .map(|_| init::uniform(&[1, conv.cin, 14, 14], -1.0, 1.0, &mut r))
            .collect();
        let stacked: Vec<f32> = xs.iter().flat_map(|x| x.data().to_vec()).collect();
        for wrapping in [false, true] {
            for analog in [AnalogModel::ideal(), a9adc8()] {
                let what = format!("{conv} wrapping={wrapping} {analog:?}");
                let dp = DataPath::with_analog(&epi, cfg, wrapping, analog).unwrap();
                let oracles: Vec<(Tensor, DataPathStats)> = xs
                    .iter()
                    .map(|x| oracle::execute_reference(&epi, cfg, wrapping, analog, x))
                    .collect();
                for batch in [1, 2] {
                    let refs: Vec<&Tensor> = xs[..batch].iter().collect();
                    let (batched, batch_stats) = dp.execute_batch(&refs).unwrap();
                    let mut want_stats = DataPathStats::default();
                    for ((x, got), (oracle, s)) in refs.iter().zip(&batched).zip(&oracles) {
                        let (single, single_stats) = dp.execute(x).unwrap();
                        assert_eq!(bits(&single), bits(oracle), "{what}");
                        assert_eq!(&single_stats, s, "{what}");
                        assert_eq!(bits(got), bits(oracle), "{what} batch={batch}");
                        want_stats.accumulate(s);
                    }
                    assert_eq!(batch_stats, want_stats, "{what} batch={batch}");
                }

                let mut want_stats = DataPathStats::default();
                oracles.iter().for_each(|(_, s)| want_stats.accumulate(s));
                let mut out = vec![f32::NAN; oracles.iter().map(|(y, _)| y.len()).sum()];
                for fused in [false, true] {
                    let stats = dp
                        .execute_stacked_into(&stacked, 2, 14, 14, fused, &mut out)
                        .unwrap();
                    let want: Vec<u32> = oracles
                        .iter()
                        .flat_map(|(y, _)| bits(&if fused { relu(y) } else { y.clone() }))
                        .collect();
                    let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "{what} stacked relu={fused}");
                    assert_eq!(stats, want_stats, "{what} stacked relu={fused}");
                }
            }
        }
    }
}
