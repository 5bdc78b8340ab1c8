//! # EPIM — Efficient Processing-In-Memory Accelerators based on Epitome
//!
//! A from-scratch Rust reproduction of the DAC 2024 paper
//! *EPIM: Efficient Processing-In-Memory Accelerators based on Epitome*
//! (Wang, Dong, Zhou, Zhu, Wang, Feng, Keutzer — arXiv:2311.07620).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `epim-core` | the epitome operator, sampling plans, designer, channel wrapping |
//! | [`pim`] | `epim-pim` | behavior-level crossbar simulator, IFAT/IFRT/OFAT data path, cost model |
//! | [`quant`] | `epim-quant` | Eq. 2–5 quantization: per-crossbar scales, overlap-weighted ranges, mixed precision |
//! | [`search`] | `epim-search` | Algorithm 1 evolutionary layer-wise design |
//! | [`models`] | `epim-models` | ResNet-50/101 inventories, network simulation, lowering to executable programs, accuracy surrogate, small-scale training |
//! | [`prune`] | `epim-prune` | the PIM-Prune baseline |
//! | [`runtime`] | `epim-runtime` | batched inference serving: the `MultiEngine` fleet over compiled network plans, scheduler core with bounded queues/flow control, plan cache, runtime stats |
//! | [`serve`] | `epim-serve` | network serving: TCP wire protocol, session threads, fleet config, pipelining client, load generator |
//! | [`obs`] | `epim-obs` | observability: lock-free trace ring with chrome://tracing export, log-linear latency histograms, Prometheus text exposition |
//! | [`tensor`] | `epim-tensor` | the ND tensor / NN substrate everything is built on |
//!
//! ## Quickstart
//!
//! ```
//! use epim::core::{ConvShape, EpitomeDesigner};
//! use epim::pim::{AcceleratorConfig, CostModel, Precision};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Replace a ResNet-50 conv with the paper's uniform 1024x256 epitome.
//! let conv = ConvShape::new(512, 256, 3, 3);
//! let spec = EpitomeDesigner::new(128, 128).design(conv, 1024, 256)?;
//! println!("compression: {:.2}x", spec.param_compression());
//!
//! // Simulate it on a 128x128-crossbar PIM accelerator at W9A9.
//! let model = CostModel::new(AcceleratorConfig::default().with_channel_wrapping(true));
//! let costs = model.epitome_layer(&spec, 14 * 14, Precision::new(9, 9));
//! println!("latency: {:.3} ms, energy: {:.3} mJ, crossbars: {}",
//!          costs.latency_ms(), costs.energy_mj(), costs.crossbars);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

/// The epitome operator (re-export of `epim-core`).
pub mod core {
    pub use epim_core::*;
}

/// The PIM simulator (re-export of `epim-pim`).
pub mod pim {
    pub use epim_pim::*;
}

/// Quantization (re-export of `epim-quant`).
pub mod quant {
    pub use epim_quant::*;
}

/// Evolutionary design search (re-export of `epim-search`).
pub mod search {
    pub use epim_search::*;
}

/// Models, networks, accuracy surrogate, training (re-export of
/// `epim-models`).
pub mod models {
    pub use epim_models::*;
}

/// The PIM-Prune baseline (re-export of `epim-prune`).
pub mod prune {
    pub use epim_prune::*;
}

/// The batched inference serving runtime (re-export of `epim-runtime`).
pub mod runtime {
    pub use epim_runtime::*;
}

/// Network serving over TCP: wire protocol, server, client, fleet
/// config (re-export of `epim-serve`), plus the runtime's submission
/// types ([`serve::InferRequest`], [`serve::Pending`]) so server-facing
/// code imports one module.
pub mod serve {
    pub use epim_runtime::{InferRequest, Inference, Pending, CLIENT_NONE};
    pub use epim_serve::*;
}

/// Observability: tracing, histograms, exporters (re-export of
/// `epim-obs`).
pub mod obs {
    pub use epim_obs::*;
}

/// Deterministic fault injection for chaos testing (re-export of
/// `epim-faults`).
pub mod faults {
    pub use epim_faults::*;
}

/// The tensor/NN substrate (re-export of `epim-tensor`).
pub mod tensor {
    pub use epim_tensor::*;
}
