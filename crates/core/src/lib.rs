//! # epim-core
//!
//! The **epitome** operator from *EPIM: Efficient Processing-In-Memory
//! Accelerators based on Epitome* (DAC 2024).
//!
//! An epitome is a compact 4-D parameter tensor `E` together with a sampler
//! `τ` that repeatedly extracts small, possibly overlapping patches
//!
//! ```text
//! E_s = E[p:p+w, q:q+h, c_in:c_in+β1, c_out:c_out+β2]     (paper Eq. 1)
//! ```
//!
//! and concatenates them until the patches tile a full convolution weight
//! `(C_out, C_in, KH, KW)`. Because patches may *overlap* inside the
//! epitome, the epitome holds far fewer parameters than the convolution it
//! reconstructs — which is exactly what a memristor-crossbar PIM accelerator
//! needs, since every weight must be resident on-chip before inference.
//!
//! This crate provides:
//!
//! - [`ConvShape`] / [`EpitomeShape`]: shape vocabulary.
//! - [`SamplingPlan`]: the deterministic patch schedule produced by the
//!   sampler, with the invariant that destination patches **partition** the
//!   convolution weight while source windows may overlap.
//! - [`Epitome`]: the parameter tensor plus its plan; reconstruction into a
//!   convolution weight, repetition (overlap-frequency) maps used by
//!   epitome-aware quantization, and channel-wrapping analysis.
//! - [`EpitomeDesigner`]: legalizes epitome shapes to integral multiples of
//!   the crossbar geometry (paper §4.1) and generates per-layer candidate
//!   ladders for the evolutionary search.
//!
//! ## Example
//!
//! ```
//! use epim_core::{ConvShape, EpitomeDesigner, Epitome};
//!
//! # fn main() -> Result<(), epim_core::EpitomeError> {
//! // Replace a 512x256x3x3 convolution with a 1024x256 epitome
//! // (c_in*p*q = 1024 rows, c_out = 256), the paper's uniform setting.
//! let conv = ConvShape::new(512, 256, 3, 3);
//! let designer = EpitomeDesigner::new(128, 128);
//! let spec = designer.design(conv, 1024, 256)?;
//! let epitome = Epitome::zeros(spec);
//! let w = epitome.reconstruct()?;
//! assert_eq!(w.shape(), &[512, 256, 3, 3]);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod designer;
mod epitome;
mod error;
mod metrics;
mod plan;
mod shapes;
mod wrap;

pub use designer::EpitomeDesigner;
pub use epitome::{Epitome, EpitomeSpec};
pub use error::EpitomeError;
pub use metrics::MappedMatrix;
pub use plan::{DimPlan, DimSegment, Patch, SamplingPlan};
pub use shapes::{ConvShape, EpitomeShape};
pub use wrap::{wrapping_factor, ChannelWrapping};
