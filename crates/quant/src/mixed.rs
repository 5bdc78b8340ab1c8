//! HAWQ-style mixed-precision bit allocation (used for the paper's `W3mp`
//! rows).
//!
//! HAWQ ranks layers by Hessian-trace sensitivity and gives sensitive
//! layers more bits. Offline we cannot compute ImageNet Hessians, so
//! [`sensitivity_proxy`] supplies an analytic curvature proxy: the total
//! squared perturbation that low-bit quantization would inject into the
//! reconstructed convolution, i.e. repetition-weighted quantization error
//! times fan-out. The allocation mechanics are HAWQ's.

use crate::{QuantError, Quantizer, RangeEstimator};
use epim_core::{DimPlan, Epitome};
use epim_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Repetition-weighted total squared quantization error,
/// `Σ (q_i − w_i)² · reps_i` (accumulated in `f64`, element order): the
/// squared error the quantized epitome injects into the *reconstructed*
/// convolution, where element `i` appears `reps_i` times. Divided by the
/// repetition mass it is the weighted MSE of the paper's Table 2 ablation.
///
/// # Errors
///
/// Returns [`QuantError::InvalidParameter`] if the three shapes differ.
pub fn repetition_weighted_sq_error(
    original: &Tensor,
    quantized: &Tensor,
    repetition: &Tensor,
) -> Result<f64, QuantError> {
    if quantized.shape() != original.shape() || repetition.shape() != original.shape() {
        return Err(QuantError::invalid(
            "original, quantized and repetition map must share a shape",
        ));
    }
    Ok(quantized
        .data()
        .iter()
        .zip(original.data())
        .zip(repetition.data())
        .map(|((&q, &w), &c)| {
            let d = q - w;
            (d as f64 * d as f64) * c as f64
        })
        .sum())
}

/// Sensitivity proxy for one epitome layer at `low_bits`.
///
/// Defined as the repetition-weighted total squared quantization error of
/// the epitome at `low_bits` — an estimate of how much loss curvature the
/// layer would see from aggressive quantization. Monotone in the paper's
/// sense: layers whose weights are hard to represent at 3 bits rank high
/// and receive 5 bits.
///
/// Bitwise [`repetition_weighted_sq_error`] of the per-tensor min/max fake
/// quantization against [`Epitome::repetition_map`], computed in one pass
/// with neither tensor built.
///
/// # Errors
///
/// Propagates quantizer fitting errors.
pub fn sensitivity_proxy(epitome: &Epitome, low_bits: u8) -> Result<f64, QuantError> {
    // Per-tensor min/max quantization is one tile over the whole tensor:
    // fit once, then fake-quantize stack chunks in element order.
    let weights = epitome.tensor();
    let q = Quantizer::fit(weights, low_bits, &RangeEstimator::MinMax)?;
    let plans = epitome.spec().plan().dim_plans();
    let [n0, n1, n2, n3] = plans.each_ref().map(DimPlan::source_cover);
    // One output channel's counts, in `repetition_map`'s product order.
    let mut channel = Vec::with_capacity(n1.len() * n2.len() * n3.len());
    for &b in &n1 {
        for &c in &n2 {
            channel.extend(n3.iter().map(|&d| b * c * d));
        }
    }
    let mut deq = [0.0f32; 256];
    let mut sum = 0.0f64;
    for (&a, row) in n0.iter().zip(weights.data().chunks(channel.len())) {
        for (w, bcd) in row.chunks(deq.len()).zip(channel.chunks(deq.len())) {
            let deq = &mut deq[..w.len()];
            deq.copy_from_slice(w);
            q.fake_quant_slice(deq);
            for ((&q, &w), &bcd) in deq.iter().zip(w).zip(bcd) {
                let d = q - w;
                sum += (d as f64 * d as f64) * (a * bcd) as f64;
            }
        }
    }
    Ok(sum)
}

/// A per-layer bit assignment produced by [`MixedPrecision::allocate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BitAllocation {
    /// Bits per layer, parallel to the allocator inputs.
    pub bits: Vec<u8>,
    /// Average bits weighted by layer parameter counts.
    pub avg_bits: f64,
}

/// The mixed-precision allocator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MixedPrecision {
    /// Bit width for insensitive layers (paper: 3).
    pub low_bits: u8,
    /// Bit width for sensitive layers (paper: 5 — "3-5 bit" rows).
    pub high_bits: u8,
    /// Parameter-weighted average bit budget the allocation must respect.
    pub budget_avg_bits: f64,
}

impl MixedPrecision {
    /// Creates an allocator.
    pub fn new(low_bits: u8, high_bits: u8, budget_avg_bits: f64) -> Self {
        MixedPrecision {
            low_bits,
            high_bits,
            budget_avg_bits,
        }
    }

    /// The paper's `W3mp` setting: 3/5-bit mix with an average budget of
    /// 3.5 bits.
    pub fn w3mp() -> Self {
        MixedPrecision::new(3, 5, 3.5)
    }

    /// Allocates bits to layers given `(sensitivity, params)` pairs.
    ///
    /// Greedy HAWQ-style: all layers start at `low_bits`; layers are
    /// promoted to `high_bits` in order of decreasing sensitivity **per
    /// parameter** while the parameter-weighted average stays within
    /// budget.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidParameter`] if inputs are empty,
    /// lengths differ, bit widths are inverted, or the budget is below
    /// `low_bits`.
    pub fn allocate(
        &self,
        sensitivities: &[f64],
        params: &[usize],
    ) -> Result<BitAllocation, QuantError> {
        if sensitivities.is_empty() || sensitivities.len() != params.len() {
            return Err(QuantError::invalid(
                "sensitivities/params length mismatch or empty",
            ));
        }
        if self.low_bits == 0 || self.high_bits <= self.low_bits {
            return Err(QuantError::invalid("need 0 < low_bits < high_bits"));
        }
        if self.budget_avg_bits < self.low_bits as f64 {
            return Err(QuantError::invalid("budget below low_bits is infeasible"));
        }
        let total_params: f64 = params.iter().map(|&p| p as f64).sum();
        if total_params == 0.0 {
            return Err(QuantError::invalid("all layers have zero parameters"));
        }
        let mut bits = vec![self.low_bits; sensitivities.len()];
        // Rank by sensitivity per parameter (promote cheap, sensitive
        // layers first).
        let mut order: Vec<usize> = (0..sensitivities.len()).collect();
        order.sort_by(|&a, &b| {
            let ka = sensitivities[a] / (params[a].max(1) as f64);
            let kb = sensitivities[b] / (params[b].max(1) as f64);
            kb.partial_cmp(&ka).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut weighted_bits = self.low_bits as f64 * total_params;
        for &i in &order {
            let delta = (self.high_bits - self.low_bits) as f64 * params[i] as f64;
            if (weighted_bits + delta) / total_params <= self.budget_avg_bits + 1e-12 {
                bits[i] = self.high_bits;
                weighted_bits += delta;
            }
        }
        Ok(BitAllocation {
            bits,
            avg_bits: weighted_bits / total_params,
        })
    }
}

/// Fits a plain per-tensor quantizer at each layer's allocated bits —
/// convenience for applying an allocation.
///
/// # Errors
///
/// Propagates fitting errors.
pub fn quantizers_for_allocation(
    tensors: &[&epim_tensor::Tensor],
    allocation: &BitAllocation,
) -> Result<Vec<Quantizer>, QuantError> {
    if tensors.len() != allocation.bits.len() {
        return Err(QuantError::invalid("allocation length mismatch"));
    }
    tensors
        .iter()
        .zip(&allocation.bits)
        .map(|(t, &b)| Quantizer::fit(t, b, &RangeEstimator::MinMax))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use epim_core::{ConvShape, EpitomeShape, EpitomeSpec};
    use epim_tensor::{init, rng, Tensor};

    #[test]
    fn budget_respected_and_sensitive_layers_promoted() {
        let mp = MixedPrecision::new(3, 5, 4.0);
        // Layer 1 is far more sensitive per parameter.
        let alloc = mp
            .allocate(&[1.0, 100.0, 1.0, 1.0], &[100, 100, 100, 100])
            .unwrap();
        assert_eq!(alloc.bits[1], 5);
        assert!(alloc.avg_bits <= 4.0 + 1e-9);
        // Budget of 4 with 3/5 mix allows exactly half the params at 5.
        assert_eq!(alloc.bits.iter().filter(|&&b| b == 5).count(), 2);
    }

    #[test]
    fn tight_budget_keeps_everything_low() {
        let mp = MixedPrecision::new(3, 5, 3.0);
        let alloc = mp.allocate(&[5.0, 1.0], &[10, 10]).unwrap();
        assert!(alloc.bits.iter().all(|&b| b == 3));
        assert!((alloc.avg_bits - 3.0).abs() < 1e-9);
    }

    #[test]
    fn loose_budget_promotes_everything() {
        let mp = MixedPrecision::new(3, 5, 5.0);
        let alloc = mp.allocate(&[1.0, 2.0, 3.0], &[7, 11, 13]).unwrap();
        assert!(alloc.bits.iter().all(|&b| b == 5));
    }

    #[test]
    fn uneven_params_promotion_prefers_cheap_sensitive() {
        let mp = MixedPrecision::new(3, 5, 3.5);
        // Equal sensitivity; small layer is cheaper to promote per unit.
        let alloc = mp.allocate(&[10.0, 10.0], &[10, 1000]).unwrap();
        assert_eq!(alloc.bits[0], 5);
        assert_eq!(alloc.bits[1], 3);
    }

    #[test]
    fn invalid_inputs() {
        let mp = MixedPrecision::new(3, 5, 3.5);
        assert!(mp.allocate(&[], &[]).is_err());
        assert!(mp.allocate(&[1.0], &[1, 2]).is_err());
        assert!(MixedPrecision::new(5, 3, 4.0)
            .allocate(&[1.0], &[1])
            .is_err());
        assert!(MixedPrecision::new(3, 5, 2.0)
            .allocate(&[1.0], &[1])
            .is_err());
        assert!(mp.allocate(&[1.0], &[0]).is_err());
    }

    #[test]
    fn sensitivity_proxy_ranks_wide_distributions_higher() {
        // A layer with heavy-tailed weights is harder to quantize at 3
        // bits, so its proxy must exceed a narrow layer of equal size.
        let spec = |seed: u64, scale: f32| {
            let s = EpitomeSpec::new(ConvShape::new(8, 9, 3, 3), EpitomeShape::new(4, 5, 2, 2))
                .unwrap();
            let mut r = rng::seeded(seed);
            let mut data = init::uniform(&s.shape().dims(), -0.1, 0.1, &mut r);
            // Inject outliers scaled by `scale`.
            let n = data.len();
            data.data_mut()[0] = scale;
            data.data_mut()[n - 1] = -scale;
            Epitome::from_tensor(s, data).unwrap()
        };
        let narrow = sensitivity_proxy(&spec(1, 0.1), 3).unwrap();
        let wide = sensitivity_proxy(&spec(1, 5.0), 3).unwrap();
        assert!(wide > narrow * 10.0, "wide {wide} narrow {narrow}");
    }

    #[test]
    fn weighted_error_counts_each_element_as_often_as_it_repeats() {
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let q = Tensor::from_vec(vec![1.5, 2.0, 1.0], &[3]).unwrap();
        let reps = Tensor::from_vec(vec![2.0, 5.0, 3.0], &[3]).unwrap();
        // 0.25 * 2 + 0 * 5 + 4 * 3.
        assert_eq!(repetition_weighted_sq_error(&w, &q, &reps).unwrap(), 12.5);
        let short = Tensor::ones(&[2]);
        assert!(repetition_weighted_sq_error(&w, &short, &reps).is_err());
        assert!(repetition_weighted_sq_error(&w, &q, &short).is_err());
    }

    #[test]
    fn quantizers_for_allocation_applies_bits() {
        let t1 = Tensor::from_vec(vec![-1.0, 1.0], &[2]).unwrap();
        let t2 = Tensor::from_vec(vec![-2.0, 2.0], &[2]).unwrap();
        let alloc = BitAllocation {
            bits: vec![3, 5],
            avg_bits: 4.0,
        };
        let qs = quantizers_for_allocation(&[&t1, &t2], &alloc).unwrap();
        assert_eq!(qs[0].bits(), 3);
        assert_eq!(qs[1].bits(), 5);
        assert!(quantizers_for_allocation(&[&t1], &alloc).is_err());
    }

    #[test]
    fn w3mp_preset() {
        let mp = MixedPrecision::w3mp();
        assert_eq!((mp.low_bits, mp.high_bits), (3, 5));
        assert!((mp.budget_avg_bits - 3.5).abs() < 1e-12);
    }
}
