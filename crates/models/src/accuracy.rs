//! The calibrated ImageNet-accuracy surrogate.
//!
//! **This module does not train anything.** The paper's accuracy column
//! comes from multi-GPU ImageNet training runs that cannot be reproduced
//! offline: there is no dataset and no GPU. What *can* be reproduced is the functional
//! chain — epitome reconstruction, fake-quantized training, overlap-aware
//! ranges — which [`crate::training`] exercises at small scale with real
//! gradient descent. For rendering the paper's tables, this module supplies
//! an analytic surrogate:
//!
//! ```text
//! acc = base
//!     − k_comp · ln(param_compression)                   (epitome cost)
//!     − k_quant · 2^−(bits_eff − 3) · mp_bonus           (quantization)
//!     − method_penalty(bits, method)                     (Table 2 ablation)
//!     − prune_penalty(ratio)                             (Table 3)
//! ```
//!
//! Every constant below is calibrated against a specific published number
//! and documented with its provenance. The surrogate is exact at the
//! calibration anchors by construction and smooth in between; treat its
//! outputs as "the paper's numbers, interpolated", not as measurements.

use serde::{Deserialize, Serialize};

/// How ultra-low-bit weights were quantized (the Table 2 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuantMethod {
    /// One min/max scaling factor per tensor ("Naïve Quant").
    Naive,
    /// Per-crossbar scaling factors ("+ Adjust with Crossbars").
    PerCrossbar,
    /// Per-crossbar + overlap-weighted ranges ("+ Adjusted with Overlap",
    /// the full EPIM method).
    PerCrossbarOverlap,
}

/// Weight-precision scheme for the surrogate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WeightScheme {
    /// Full precision.
    Fp32,
    /// Uniform fixed-point weights at `bits`.
    Fixed {
        /// Weight bit width.
        bits: u8,
    },
    /// HAWQ-style mixed precision with the given parameter-weighted
    /// average bits (paper `W3mp`: average 3.5 with a 3/5 mix).
    Mixed {
        /// Average bits across layers, parameter-weighted.
        avg_bits: f64,
    },
}

/// Per-model calibration constants. Fields cite the anchor they were
/// fitted to.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Calibration {
    /// FP32 baseline top-1 (Table 1: 76.37 / 78.77).
    pub base_top1: f64,
    /// Epitome compression cost coefficient: fits the FP32 epitome row
    /// (Table 1: 74.00 / 76.56) at the parameter compression *this
    /// repository's* uniform 1024×256 design achieves (2.8418× for
    /// ResNet-50, 2.3389× for ResNet-101 — slightly higher than the
    /// paper's 2.25×/2.08× because the designer legalizes shapes to full
    /// crossbar multiples): 2.37/ln(2.8418) → 2.2692 and
    /// 2.21/ln(2.3389) → 2.6010.
    pub k_comp: f64,
    /// Quantization cost at 3 bits with the full method (Table 1 W3A9 row
    /// minus the FP32 epitome row: 2.41 for R50, 1.58 for R101).
    pub k_quant: f64,
    /// Mixed-precision efficiency: ratio of the measured `W3mp` drop to
    /// the fixed-point drop predicted at the same average bits
    /// (Table 1 W3mpA9 rows: 0.60 for R50, 0.67 for R101).
    pub mp_bonus: f64,
    /// Extra drop of naïve quantization at 3 bits (Table 2: 71.59−69.95 =
    /// 1.64 for R50; 74.98−73.98 = 1.00 for R101).
    pub naive_penalty_3bit: f64,
    /// Extra drop of per-crossbar-only (no overlap weighting) at 3 bits
    /// (Table 2: 71.59−71.35 = 0.24 for R50; 74.98−74.96 = 0.02 for
    /// R101).
    pub xbar_only_penalty_3bit: f64,
    /// PIM-Prune accuracy drop at 50% pruning (Table 3: 76.37−72.77 =
    /// 3.60 for R50; 78.77−75.82 = 2.95 for R101).
    pub prune_drop_50: f64,
    /// PIM-Prune accuracy drop at 75% pruning (Table 3: 76.37−72.19 =
    /// 4.18 for R50; 78.77−74.80 = 3.97 for R101).
    pub prune_drop_75: f64,
    /// Extra drop from 50% element pruning on top of the epitome
    /// (Table 3: 74.00−73.18 = 0.82 for R50; 76.56−75.76 = 0.80 for
    /// R101).
    pub epitome_prune_drop_50: f64,
}

/// The accuracy surrogate for one backbone.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccuracyModel {
    calib: Calibration,
}

impl AccuracyModel {
    /// Surrogate calibrated for ResNet-50 (anchors from Tables 1–3).
    pub fn resnet50() -> Self {
        AccuracyModel {
            calib: Calibration {
                base_top1: 76.37,
                k_comp: 2.2692,
                k_quant: 2.41,
                mp_bonus: 0.60,
                naive_penalty_3bit: 1.64,
                xbar_only_penalty_3bit: 0.24,
                prune_drop_50: 3.60,
                prune_drop_75: 4.18,
                epitome_prune_drop_50: 0.82,
            },
        }
    }

    /// Surrogate calibrated for ResNet-101 (anchors from Tables 1–3).
    pub fn resnet101() -> Self {
        AccuracyModel {
            calib: Calibration {
                base_top1: 78.77,
                k_comp: 2.6010,
                k_quant: 1.58,
                mp_bonus: 0.67,
                naive_penalty_3bit: 1.00,
                xbar_only_penalty_3bit: 0.02,
                prune_drop_50: 2.95,
                prune_drop_75: 3.97,
                epitome_prune_drop_50: 0.82,
            },
        }
    }

    /// The calibration constants.
    pub fn calibration(&self) -> &Calibration {
        &self.calib
    }

    /// FP32 baseline top-1 accuracy.
    pub fn baseline(&self) -> f64 {
        self.calib.base_top1
    }

    /// Accuracy of an epitome network at `param_compression` (≥ 1) under
    /// the given weight scheme and quantization method.
    pub fn epim_accuracy(
        &self,
        param_compression: f64,
        scheme: WeightScheme,
        method: QuantMethod,
    ) -> f64 {
        let cr = param_compression.max(1.0);
        let comp_drop = self.calib.k_comp * cr.ln();
        let quant_drop = match scheme {
            WeightScheme::Fp32 => 0.0,
            WeightScheme::Fixed { bits } => self.quant_drop(bits as f64, 1.0, method),
            WeightScheme::Mixed { avg_bits } => {
                self.quant_drop(avg_bits, self.calib.mp_bonus, method)
            }
        };
        self.calib.base_top1 - comp_drop - quant_drop
    }

    /// Quantization drop at `bits_eff` effective bits scaled by a
    /// mixed-precision efficiency factor, plus the method ablation
    /// penalty.
    fn quant_drop(&self, bits_eff: f64, mp_factor: f64, method: QuantMethod) -> f64 {
        // Exponential decay anchored at 3 bits with the full method.
        let base = self.calib.k_quant * (2.0f64).powf(-(bits_eff - 3.0)) * mp_factor;
        // Method penalties decay at the same rate away from 3 bits: at
        // high precision all methods coincide (Table 2 motivates the
        // ablation only for ultra-low bits).
        let decay = (2.0f64).powf(-(bits_eff - 3.0));
        let method_penalty = match method {
            QuantMethod::PerCrossbarOverlap => 0.0,
            QuantMethod::PerCrossbar => self.calib.xbar_only_penalty_3bit * decay,
            QuantMethod::Naive => self.calib.naive_penalty_3bit * decay,
        };
        base + method_penalty
    }

    /// Accuracy of PIM-Prune at `ratio` pruning (linear interpolation /
    /// extrapolation through the 50% and 75% anchors).
    pub fn pim_prune_accuracy(&self, ratio: f64) -> f64 {
        let slope = (self.calib.prune_drop_75 - self.calib.prune_drop_50) / 0.25;
        let drop = self.calib.prune_drop_50 + slope * (ratio - 0.50);
        self.calib.base_top1 - drop.max(0.0)
    }

    /// Accuracy of the epitome combined with 50%-ratio element pruning
    /// (the Table 3 "Epitome + Pruning" row), scaled linearly in ratio.
    pub fn epitome_plus_pruning_accuracy(&self, param_compression: f64, ratio: f64) -> f64 {
        let epi = self.epim_accuracy(
            param_compression,
            WeightScheme::Fp32,
            QuantMethod::PerCrossbarOverlap,
        );
        epi - self.calib.epitome_prune_drop_50 * (ratio / 0.50)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 0.25; // surrogate must hit published anchors closely

    #[test]
    fn resnet50_table1_anchors() {
        let m = AccuracyModel::resnet50();
        assert_eq!(m.baseline(), 76.37);
        // FP32 epitome at the repo's uniform CR (2.8418x) -> 74.00.
        let fp = m.epim_accuracy(2.8418, WeightScheme::Fp32, QuantMethod::PerCrossbarOverlap);
        assert!((fp - 74.00).abs() < TOL, "{fp}");
        // W3 full method -> 71.59.
        let w3 = m.epim_accuracy(
            2.8418,
            WeightScheme::Fixed { bits: 3 },
            QuantMethod::PerCrossbarOverlap,
        );
        assert!((w3 - 71.59).abs() < TOL, "{w3}");
        // W3mp -> 72.98.
        let mp = m.epim_accuracy(
            2.8418,
            WeightScheme::Mixed { avg_bits: 3.5 },
            QuantMethod::PerCrossbarOverlap,
        );
        assert!((mp - 72.98).abs() < 0.4, "{mp}");
        // W9 nearly free.
        let w9 = m.epim_accuracy(
            2.8418,
            WeightScheme::Fixed { bits: 9 },
            QuantMethod::PerCrossbarOverlap,
        );
        assert!((w9 - 74.00).abs() < 0.1, "{w9}");
    }

    #[test]
    fn resnet50_table2_anchors() {
        let m = AccuracyModel::resnet50();
        let naive = m.epim_accuracy(2.8418, WeightScheme::Fixed { bits: 3 }, QuantMethod::Naive);
        let xbar = m.epim_accuracy(
            2.8418,
            WeightScheme::Fixed { bits: 3 },
            QuantMethod::PerCrossbar,
        );
        let full = m.epim_accuracy(
            2.8418,
            WeightScheme::Fixed { bits: 3 },
            QuantMethod::PerCrossbarOverlap,
        );
        assert!((naive - 69.95).abs() < TOL, "{naive}");
        assert!((xbar - 71.35).abs() < TOL, "{xbar}");
        assert!((full - 71.59).abs() < TOL, "{full}");
        assert!(naive < xbar && xbar < full, "Table 2 ordering");
    }

    #[test]
    fn resnet101_anchors() {
        let m = AccuracyModel::resnet101();
        let fp = m.epim_accuracy(2.3389, WeightScheme::Fp32, QuantMethod::PerCrossbarOverlap);
        assert!((fp - 76.56).abs() < TOL, "{fp}");
        let w3 = m.epim_accuracy(
            2.3389,
            WeightScheme::Fixed { bits: 3 },
            QuantMethod::PerCrossbarOverlap,
        );
        assert!((w3 - 74.98).abs() < TOL, "{w3}");
        let naive = m.epim_accuracy(2.3389, WeightScheme::Fixed { bits: 3 }, QuantMethod::Naive);
        assert!((naive - 73.98).abs() < TOL, "{naive}");
    }

    #[test]
    fn prune_anchors() {
        let m50 = AccuracyModel::resnet50();
        assert!((m50.pim_prune_accuracy(0.50) - 72.77).abs() < 0.01);
        assert!((m50.pim_prune_accuracy(0.75) - 72.19).abs() < 0.01);
        let m101 = AccuracyModel::resnet101();
        assert!((m101.pim_prune_accuracy(0.50) - 75.82).abs() < 0.01);
        assert!((m101.pim_prune_accuracy(0.75) - 74.80).abs() < 0.01);
    }

    #[test]
    fn epitome_plus_pruning_anchor() {
        let m = AccuracyModel::resnet50();
        let a = m.epitome_plus_pruning_accuracy(2.8418, 0.50);
        assert!((a - 73.18).abs() < TOL, "{a}");
    }

    #[test]
    fn epitome_beats_pruning_at_similar_compression() {
        // The paper's headline comparison (Table 3): the epitome beats
        // PIM-Prune 50% despite higher compression.
        let m = AccuracyModel::resnet50();
        let epi = m.epim_accuracy(2.8418, WeightScheme::Fp32, QuantMethod::PerCrossbarOverlap);
        assert!(epi > m.pim_prune_accuracy(0.50));
    }

    #[test]
    fn monotonicity_properties() {
        let m = AccuracyModel::resnet50();
        // More compression, less accuracy.
        let a1 = m.epim_accuracy(2.0, WeightScheme::Fp32, QuantMethod::PerCrossbarOverlap);
        let a2 = m.epim_accuracy(4.0, WeightScheme::Fp32, QuantMethod::PerCrossbarOverlap);
        assert!(a2 < a1);
        // More bits, more accuracy.
        let mut prev = 0.0;
        for bits in [3u8, 5, 7, 9] {
            let a = m.epim_accuracy(
                2.8418,
                WeightScheme::Fixed { bits },
                QuantMethod::PerCrossbarOverlap,
            );
            assert!(a > prev, "bits {bits}");
            prev = a;
        }
        // Method ordering holds at every low bit width.
        for bits in [3u8, 4, 5] {
            let n = m.epim_accuracy(2.8418, WeightScheme::Fixed { bits }, QuantMethod::Naive);
            let x = m.epim_accuracy(
                2.8418,
                WeightScheme::Fixed { bits },
                QuantMethod::PerCrossbar,
            );
            let f = m.epim_accuracy(
                2.8418,
                WeightScheme::Fixed { bits },
                QuantMethod::PerCrossbarOverlap,
            );
            assert!(n < x && x < f);
        }
    }

    #[test]
    fn compression_one_is_free() {
        let m = AccuracyModel::resnet50();
        let a = m.epim_accuracy(1.0, WeightScheme::Fp32, QuantMethod::PerCrossbarOverlap);
        assert_eq!(a, m.baseline());
        // Sub-1 compression is clamped.
        let b = m.epim_accuracy(0.5, WeightScheme::Fp32, QuantMethod::PerCrossbarOverlap);
        assert_eq!(b, m.baseline());
    }
}
