//! Table 2: detailed quantization ablation — naive quantization vs
//! per-crossbar scaling factors vs overlap-weighted ranges.
//!
//! Two complementary reproductions:
//! 1. **Accuracy** rows via the calibrated surrogate (the paper's actual
//!    Table 2 values).
//! 2. **Measured weight-space** ablation on real epitomes: quantization
//!    error (plain and repetition-weighted) of the three methods at 3
//!    bits, demonstrating the mechanism with no surrogate involved.

use epim::core::Epitome;
use epim::models::accuracy::{AccuracyModel, QuantMethod, WeightScheme};
use epim::models::network::OperatorChoice;
use epim::models::resnet::{resnet101, resnet50};
use epim::quant::{
    quantize_epitome, repetition_weighted_sq_error, QuantGranularity, RangeEstimator,
};
use epim::tensor::{init, rng};

use super::uniform_epim;

/// One accuracy row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Model + bits label, e.g. `"ResNet-50 (3-bit)"`.
    pub model: String,
    /// Naive quantization accuracy (%).
    pub naive: f64,
    /// + per-crossbar scaling factors (%).
    pub adjust_crossbars: f64,
    /// + overlap-weighted ranges (%).
    pub adjust_overlap: f64,
}

/// The surrogate-rendered accuracy table (both models, 3-bit and mixed
/// 3–5-bit).
pub fn table2_accuracy() -> Vec<Table2Row> {
    let mut rows = Vec::new();
    for (name, acc, cr) in [
        (
            "ResNet-50",
            AccuracyModel::resnet50(),
            uniform_epim(resnet50()).param_compression(),
        ),
        (
            "ResNet-101",
            AccuracyModel::resnet101(),
            uniform_epim(resnet101()).param_compression(),
        ),
    ] {
        for (bits_label, scheme) in [
            ("3-bit", WeightScheme::Fixed { bits: 3 }),
            ("3-5 bit", WeightScheme::Mixed { avg_bits: 3.5 }),
        ] {
            rows.push(Table2Row {
                model: format!("{name} ({bits_label})"),
                naive: acc.epim_accuracy(cr, scheme, QuantMethod::Naive),
                adjust_crossbars: acc.epim_accuracy(cr, scheme, QuantMethod::PerCrossbar),
                adjust_overlap: acc.epim_accuracy(cr, scheme, QuantMethod::PerCrossbarOverlap),
            });
        }
    }
    rows
}

/// One measured row: weight-space error of the three methods on a real
/// epitome at 3 bits.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Measured {
    /// Layer name.
    pub layer: String,
    /// MSE of naive per-tensor quantization.
    pub naive_mse: f64,
    /// MSE with per-crossbar scaling factors.
    pub xbar_mse: f64,
    /// Repetition-weighted MSE with min/max ranges (per crossbar).
    pub xbar_weighted_mse: f64,
    /// Repetition-weighted MSE with overlap ranges (per crossbar).
    pub overlap_weighted_mse: f64,
}

/// Measures the ablation on the first `max_layers` epitome layers of the
/// uniform ResNet-50 EPIM variant, with Kaiming-initialized weights.
pub fn table2_measured(max_layers: usize) -> Vec<Table2Measured> {
    let net = uniform_epim(resnet50());
    let mut rows = Vec::new();
    let mut r = rng::seeded(2024);
    for (layer, choice) in net.backbone().layers.iter().zip(net.choices()) {
        if rows.len() >= max_layers {
            break;
        }
        let OperatorChoice::Epitome(spec) = choice else {
            continue;
        };
        let data = init::kaiming_normal(&spec.shape().dims(), &mut r);
        let epi = Epitome::from_tensor(spec.clone(), data).expect("shape matches");
        let xbar_tiles = QuantGranularity::PerCrossbar {
            rows: 128,
            cols: 128,
        };
        let (_, rep_naive) = quantize_epitome(
            &epi,
            3,
            QuantGranularity::PerTensor,
            &RangeEstimator::MinMax,
        )
        .expect("quantization succeeds");
        let (q_xbar, rep_xbar) = quantize_epitome(&epi, 3, xbar_tiles, &RangeEstimator::MinMax)
            .expect("quantization succeeds");
        let (q_overlap, _) =
            quantize_epitome(&epi, 3, xbar_tiles, &RangeEstimator::overlap_default())
                .expect("quantization succeeds");
        // One repetition map per layer serves both weighted errors.
        let reps = epi.repetition_map();
        let mass = reps.sum() as f64;
        let weighted_mse = |quantized: &Epitome| {
            repetition_weighted_sq_error(epi.tensor(), quantized.tensor(), &reps)
                .expect("same shape")
                / mass
        };
        rows.push(Table2Measured {
            layer: layer.name.clone(),
            naive_mse: rep_naive.mse,
            xbar_mse: rep_xbar.mse,
            xbar_weighted_mse: weighted_mse(&q_xbar),
            overlap_weighted_mse: weighted_mse(&q_overlap),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_rows_hit_published_anchors() {
        let rows = table2_accuracy();
        assert_eq!(rows.len(), 4);
        let r50_3 = &rows[0];
        assert!((r50_3.naive - 69.95).abs() < 0.35, "{}", r50_3.naive);
        assert!((r50_3.adjust_crossbars - 71.35).abs() < 0.35);
        assert!((r50_3.adjust_overlap - 71.59).abs() < 0.35);
        let r101_3 = &rows[2];
        assert!((r101_3.naive - 73.98).abs() < 0.35);
        assert!((r101_3.adjust_overlap - 74.98).abs() < 0.35);
    }

    #[test]
    fn every_row_shows_the_tables_ordering() {
        for row in table2_accuracy() {
            assert!(row.naive < row.adjust_crossbars, "{row:?}");
            assert!(row.adjust_crossbars < row.adjust_overlap, "{row:?}");
        }
    }

    #[test]
    fn measured_ablation_shows_mechanism() {
        let rows = table2_measured(4);
        assert!(!rows.is_empty());
        for r in &rows {
            // Per-crossbar scales do not meaningfully increase plain MSE
            // (equality happens when a layer's tiles share one range).
            assert!(r.xbar_mse <= r.naive_mse * 1.05, "{r:?}");
            // Overlap weighting targets repetition-weighted error; allow
            // small slack for layers with mild overlap.
            assert!(
                r.overlap_weighted_mse <= r.xbar_weighted_mse * 1.10,
                "{r:?}"
            );
            assert!(r.naive_mse.is_finite() && r.naive_mse > 0.0);
        }
    }
}
