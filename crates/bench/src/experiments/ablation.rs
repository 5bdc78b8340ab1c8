//! Ablation studies over the paper's design choices:
//! crossbar alignment (§4.1), channel wrapping (§5.3), the overlap-weight
//! hyperparameter `w1` (Eq. 4–5), and robustness of the data path to
//! analog non-idealities (programming noise, finite ADC precision).

use epim::core::MappedMatrix;
use epim::core::{ConvShape, Epitome, EpitomeDesigner};
use epim::pim::datapath::{AnalogModel, DataPath};
use epim::pim::{Mapping, Precision};
use epim::quant::{quantize_epitome, QuantGranularity, RangeEstimator};
use epim::tensor::ops::Conv2dCfg;
use epim::tensor::{init, rng, Tensor};

/// Alignment ablation result for one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignmentAblation {
    /// Layer shape label.
    pub conv: String,
    /// Utilization with crossbar-aligned design.
    pub aligned_utilization: f64,
    /// Utilization with unaligned (free-shape) design.
    pub unaligned_utilization: f64,
    /// Crossbars with aligned design.
    pub aligned_xbs: usize,
    /// Crossbars with unaligned design.
    pub unaligned_xbs: usize,
}

/// Compares crossbar-aligned epitome shapes (§4.1) against unaligned ones
/// of the same nominal size, on a spread of ResNet-50 layer shapes.
pub fn alignment_ablation() -> Vec<AlignmentAblation> {
    let aligned = EpitomeDesigner::new(128, 128);
    // A designer with 1x1 "crossbars" never rounds: free shapes.
    let unaligned = EpitomeDesigner::new(1, 1);
    let xb = epim::pim::CrossbarConfig::default();
    let prec = Precision::new(9, 9);
    [
        ConvShape::new(256, 128, 3, 3),
        ConvShape::new(512, 256, 3, 3),
        ConvShape::new(512, 512, 3, 3),
        ConvShape::new(2048, 512, 1, 1),
    ]
    .iter()
    .map(|&conv| {
        let rows = conv.matrix_rows() / 2;
        let cout = conv.cout / 2;
        let a = aligned.design(conv, rows, cout).expect("legal design");
        let u = unaligned.design(conv, rows, cout).expect("legal design");
        let ma = Mapping::new(MappedMatrix::from_epitome(a.shape()), xb, prec)
            .expect("mapping succeeds");
        let mu = Mapping::new(MappedMatrix::from_epitome(u.shape()), xb, prec)
            .expect("mapping succeeds");
        AlignmentAblation {
            conv: conv.to_string(),
            aligned_utilization: ma.utilization,
            unaligned_utilization: mu.utilization,
            aligned_xbs: ma.crossbars,
            unaligned_xbs: mu.crossbars,
        }
    })
    .collect()
}

/// One point of the overlap-weight (`w1`) sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct W1Point {
    /// The overlap weight `w1` (with `w2 = 1 − w1`).
    pub w1: f32,
    /// Repetition-weighted MSE of the 3-bit quantized epitome.
    pub weighted_mse: f64,
    /// Plain MSE.
    pub mse: f64,
}

fn sample_epitome(seed: u64) -> Epitome {
    let spec = EpitomeDesigner::new(128, 128)
        .design(ConvShape::new(512, 256, 3, 3), 1024, 256)
        .expect("legal design");
    let mut r = rng::seeded(seed);
    let data = init::kaiming_normal(&spec.shape().dims(), &mut r);
    Epitome::from_tensor(spec, data).expect("shape matches")
}

fn weighted_mse(original: &Epitome, quantized: &Epitome) -> f64 {
    let reps = original.repetition_map();
    let diff = quantized
        .tensor()
        .sub(original.tensor())
        .expect("same shape");
    let num: f64 = diff
        .data()
        .iter()
        .zip(reps.data())
        .map(|(&d, &c)| (d as f64 * d as f64) * c as f64)
        .sum();
    num / reps.sum() as f64
}

/// Sweeps the Eq. 4–5 hyperparameter `w1` from pure min/max (`0.5/0.5`
/// behaves like an unweighted blend) to overlap-only (`1.0`), measuring
/// 3-bit quantization error on a real epitome.
pub fn w1_sweep(seed: u64) -> Vec<W1Point> {
    let epi = sample_epitome(seed);
    [0.5f32, 0.6, 0.7, 0.8, 0.9, 1.0]
        .iter()
        .map(|&w1| {
            let est = RangeEstimator::OverlapWeighted { w1, w2: 1.0 - w1 };
            let (q, rep) = quantize_epitome(
                &epi,
                3,
                QuantGranularity::PerCrossbar {
                    rows: 128,
                    cols: 128,
                },
                &est,
            )
            .expect("quantization succeeds");
            W1Point {
                w1,
                weighted_mse: weighted_mse(&epi, &q),
                mse: rep.mse,
            }
        })
        .collect()
}

/// One point of the analog-robustness sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalogPoint {
    /// Programming-noise std (relative).
    pub noise_std: f32,
    /// ADC bits (`None` = ideal readout).
    pub adc_bits: Option<u8>,
    /// Output-feature-map MSE against the ideal data path.
    pub output_mse: f64,
}

/// Runs a small epitome layer through the functional data path under a
/// grid of analog non-idealities and reports output error versus ideal.
pub fn analog_sweep(seed: u64) -> Vec<AnalogPoint> {
    let spec = EpitomeDesigner::new(32, 32)
        .design(ConvShape::new(32, 16, 3, 3), 72, 16)
        .expect("legal design");
    let mut r = rng::seeded(seed);
    let data = init::kaiming_normal(&spec.shape().dims(), &mut r);
    let epi = Epitome::from_tensor(spec, data).expect("shape matches");
    let cfg = Conv2dCfg {
        stride: 1,
        padding: 1,
    };
    let x: Tensor = init::uniform(&[1, 16, 8, 8], -1.0, 1.0, &mut r);
    let ideal = DataPath::new(&epi, cfg, true)
        .expect("data path builds")
        .execute(&x)
        .expect("execution succeeds")
        .0;

    let mut points = Vec::new();
    for &noise_std in &[0.0f32, 0.01, 0.03, 0.10] {
        for &adc_bits in &[None, Some(6u8), Some(8)] {
            let dp = DataPath::with_analog(
                &epi,
                cfg,
                true,
                AnalogModel {
                    weight_noise_std: noise_std,
                    adc_bits,
                    noise_seed: 7,
                    ..AnalogModel::ideal()
                },
            )
            .expect("data path builds");
            let out = dp.execute(&x).expect("execution succeeds").0;
            points.push(AnalogPoint {
                noise_std,
                adc_bits,
                output_mse: out.mse(&ideal).expect("same shape") as f64,
            });
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_improves_utilization() {
        let rows = alignment_ablation();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(
                r.aligned_utilization >= r.unaligned_utilization - 1e-9,
                "{r:?}"
            );
            assert!(r.aligned_utilization > 0.9, "{r:?}");
        }
        // At least one layer shows a real gap (ragged unaligned shapes).
        assert!(rows
            .iter()
            .any(|r| r.aligned_utilization > r.unaligned_utilization + 0.01));
    }

    #[test]
    fn w1_sweep_trades_weighted_for_plain_error() {
        let pts = w1_sweep(3);
        assert_eq!(pts.len(), 6);
        for p in &pts {
            assert!(p.mse.is_finite() && p.mse > 0.0);
            assert!(p.weighted_mse.is_finite() && p.weighted_mse > 0.0);
        }
        // The paper's default (w1 around 0.7) should not be worse on
        // repetition-weighted error than the unweighted blend.
        let at = |w: f32| {
            pts.iter()
                .find(|p| (p.w1 - w).abs() < 1e-6)
                .expect("sweep point exists")
        };
        assert!(at(0.7).weighted_mse <= at(0.5).weighted_mse * 1.05);
    }

    #[test]
    fn analog_sweep_monotone_in_noise() {
        let pts = analog_sweep(4);
        // Ideal point: zero error.
        let ideal = pts
            .iter()
            .find(|p| p.noise_std == 0.0 && p.adc_bits.is_none())
            .expect("grid contains the ideal point");
        assert_eq!(ideal.output_mse, 0.0);
        // With ideal ADC, error grows with noise.
        let errs: Vec<f64> = [0.01f32, 0.03, 0.10]
            .iter()
            .map(|&s| {
                pts.iter()
                    .find(|p| p.noise_std == s && p.adc_bits.is_none())
                    .expect("point exists")
                    .output_mse
            })
            .collect();
        assert!(errs[0] < errs[1] && errs[1] < errs[2], "{errs:?}");
        // Coarser ADC means more error at zero noise.
        let adc6 = pts
            .iter()
            .find(|p| p.noise_std == 0.0 && p.adc_bits == Some(6))
            .expect("point exists")
            .output_mse;
        let adc8 = pts
            .iter()
            .find(|p| p.noise_std == 0.0 && p.adc_bits == Some(8))
            .expect("point exists")
            .output_mse;
        assert!(adc6 > adc8, "6-bit {adc6} vs 8-bit {adc8}");
    }
}
