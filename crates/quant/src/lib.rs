//! # epim-quant
//!
//! Quantization for epitome-based networks on PIM accelerators, after §4.2
//! of the EPIM paper (DAC 2024):
//!
//! 1. **Uniform affine quantization** ([`Quantizer`], paper Eq. 2–3):
//!    `Q(r) = Int(r / S) − Z` with `S = (β − α) / (2^k − 1)`.
//! 2. **Per-crossbar scaling factors** ([`quantize_per_crossbar`]): because
//!    crossbars compute in parallel, each crossbar tile of the mapped
//!    weight matrix can carry its own scaling factor, recovering accuracy
//!    at ultra-low bit widths (Table 2, "+ Adjust with Crossbars").
//! 3. **Overlap-weighted ranges** ([`RangeEstimator::OverlapWeighted`],
//!    Eq. 4–5): epitome elements in highly-repeated (overlap) regions
//!    matter more; the clipping range is a `w1/w2` weighted blend of the
//!    overlap region's min/max and the rest's (Table 2, "+ Adjusted with
//!    Overlap").
//! 4. **Mixed precision** ([`MixedPrecision`]): a HAWQ-style sensitivity-
//!    ranked bit allocation used for the paper's `W3mp` rows. The
//!    sensitivity signal here is an analytic quantization-perturbation
//!    proxy rather than an ImageNet Hessian trace, which needs the
//!    dataset (see `epim_models::accuracy`).
//!
//! ## The slice kernel
//!
//! All of the above runs on flat slices. An epitome tensor
//! `(c_out, c_in, h, w)` *is* its crossbar-mapped matrix `(c_in·h·w, c_out)`
//! transposed — element `(row, co)` sits at `co·rows + row` — so a
//! crossbar tile is a handful of contiguous runs of the tensor itself and
//! nothing is transposed, gathered or scattered. Per tile,
//! [`quantize_epitome`] and [`quantize_per_crossbar`] scan those runs in
//! place for the range (min/max, or the repetition threshold and the two
//! regions' extrema for [`RangeEstimator::OverlapWeighted`]), fit a
//! [`Quantizer`] and fake-quantize the same runs of the output with one
//! `epim_simd::SimdOp` that [`Quantizer::fake_quant`] and
//! [`Quantizer::mse`] share. The scalar [`Quantizer::quantize`] /
//! [`Quantizer::dequantize`] pair is the documented ground truth every ISA
//! arm reproduces bit for bit (see the `quantizer` module source for the
//! argument and for how `±0.0` and non-finite weights are treated). Report
//! sums run in mapped-matrix order, so [`QuantReport`] does not depend on
//! the memory layout.
//!
//! ## Example
//!
//! ```
//! use epim_quant::{Quantizer, RangeEstimator};
//! use epim_tensor::Tensor;
//!
//! # fn main() -> Result<(), epim_quant::QuantError> {
//! let w = Tensor::from_vec(vec![-1.0, -0.5, 0.0, 0.5, 1.0], &[5])?;
//! let q = Quantizer::fit(&w, 3, &RangeEstimator::MinMax)?;
//! let deq = q.fake_quant(&w);
//! assert!(w.allclose(&deq, q.step() / 2.0 + 1e-6)?);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod error;
mod mixed;
mod quantizer;
mod range;
mod xbar;

pub use error::QuantError;
pub use mixed::{
    quantizers_for_allocation, repetition_weighted_sq_error, sensitivity_proxy, BitAllocation,
    MixedPrecision,
};
pub use quantizer::Quantizer;
pub use range::RangeEstimator;
pub use xbar::{quantize_epitome, quantize_per_crossbar, QuantGranularity, QuantReport};
