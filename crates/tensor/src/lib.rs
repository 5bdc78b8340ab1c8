//! # epim-tensor
//!
//! A minimal, dependency-light ND tensor and neural-network substrate used by
//! the EPIM reproduction. It provides:
//!
//! - [`Tensor`]: a dense, row-major, `f32` ND tensor with shape arithmetic,
//!   elementwise ops, matrix multiplication and slicing.
//! - Neural-network building blocks in [`ops`]: 2-D convolution (direct and
//!   im2col), linear layers, pooling, batch normalization and activations,
//!   each with a hand-written backward pass.
//! - A tiny layer/trainer stack in [`nn`] sufficient to train small CNNs on
//!   the synthetic datasets in [`data`] — this is the substitute for the
//!   paper's ImageNet training runs (the module docs of
//!   `epim_models::accuracy` give the reason and the surrogate used for
//!   the paper's tables).
//!
//! Correctness and reproducibility come first — everything is deterministic
//! given a seed — but the compute spine is no longer naive: all matrix
//! products route through the cache-blocked, runtime-SIMD-dispatched kernels
//! in [`ops::gemm`], and the convolution path fuses im2col, GEMM and bias
//! into a single pass over the output (see `ops::conv`).
//!
//! ## Example
//!
//! ```
//! use epim_tensor::{Tensor, ops::conv2d, ops::Conv2dCfg};
//!
//! # fn main() -> Result<(), epim_tensor::TensorError> {
//! // A 1x3x8x8 input convolved with a 4x3x3x3 kernel, stride 1, padding 1.
//! let x = Tensor::ones(&[1, 3, 8, 8]);
//! let w = Tensor::full(&[4, 3, 3, 3], 0.5);
//! let y = conv2d(&x, &w, None, Conv2dCfg { stride: 1, padding: 1 })?;
//! assert_eq!(y.shape(), &[1, 4, 8, 8]);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod error;
mod shape;
mod tensor;

pub mod data;
pub mod init;
pub mod nn;
pub mod ops;
pub mod rng;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;
