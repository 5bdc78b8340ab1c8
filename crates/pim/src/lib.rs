//! # epim-pim
//!
//! A behavior-level memristor-crossbar Processing-In-Memory simulator in the
//! style of MNSIM 2.0, extended with the epitome data path of the EPIM paper
//! (DAC 2024, §4.3 and Figure 2b).
//!
//! The simulator has two faces:
//!
//! 1. **Functional** ([`datapath`]): the modified data path — Input Feature
//!    Address Table (IFAT), Input Feature Row Table (IFRT), Output Feature
//!    Address Table (OFAT) and the joint module — executed element by
//!    element so that an epitome layer running "on the crossbars" can be
//!    checked against a plain convolution with the reconstructed weight.
//!    The three tables are compiled into per-round word-line lists
//!    ([`datapath::CompiledPlan`]); the seed's walk over the tables
//!    themselves is the test oracle in `crates/pim/tests/oracle`.
//! 2. **Analytic** ([`CostModel`]): a lookup-table cost model (latency, energy,
//!    crossbar count, memristor utilization) for whole layers and networks,
//!    following the paper's statement that the simulator "maintains a
//!    look-up table for the storage of the latency and power parameters
//!    associated with basic hardware behaviors."
//!
//! ## Example
//!
//! ```
//! use epim_pim::{AcceleratorConfig, CostModel, Precision};
//! use epim_core::ConvShape;
//!
//! let cfg = AcceleratorConfig::default(); // 128x128 crossbars, 2-bit cells
//! let model = CostModel::new(cfg);
//! let conv = ConvShape::new(512, 256, 3, 3);
//! let costs = model.conv_layer(conv, 14 * 14, Precision::new(9, 9));
//! assert!(costs.latency_ns > 0.0);
//! assert!(costs.crossbars > 0);
//! ```

#![deny(missing_docs)]

mod config;
mod cost;
pub mod datapath;
mod error;
mod lut;
mod mapping;
pub mod mvm;
mod network;
pub mod quantize;

pub use config::{AcceleratorConfig, CrossbarConfig, Precision};
pub use cost::{CostModel, LayerCosts};
pub use error::PimError;
pub use lut::HardwareLut;
pub use mapping::Mapping;
pub use network::NetworkCosts;
