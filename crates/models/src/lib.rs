//! # epim-models
//!
//! Model-level machinery for the EPIM reproduction:
//!
//! - [`resnet`]: exact layer inventories (every convolution's shape and
//!   output resolution) for ResNet-50 and ResNet-101 at 224×224 input —
//!   the two backbones evaluated in the paper's Table 1.
//! - [`network`]: the [`network::Network`] /
//!   [`network::OperatorChoice`] abstraction tying layer inventories to
//!   per-layer operators (convolution or epitome) and driving the
//!   `epim-pim` cost model over whole networks.
//! - [`accuracy`]: the **calibrated accuracy surrogate** standing in for
//!   ImageNet training, which cannot run offline — an analytic model of top-1
//!   accuracy as a function of epitome compression, quantization bit
//!   width/method and pruning ratio, with all constants calibrated
//!   against the paper's published tables and documented inline.
//! - [`training`]: the genuine small-scale substitute: a trainable
//!   epitome convolution layer ([`training::EpitomeConv2d`]) and an
//!   experiment harness that trains conv vs. epitome vs. quantized
//!   epitome CNNs on synthetic data with real gradient descent.
//! - [`zoo`]: ready-made small backbones/networks (16×16-input tiny
//!   ResNets with shareable epitome specs) for tests, examples, benches
//!   and multi-tenant fleets.
//! - [`lower`]: lowering from a [`network::Network`] to an executable
//!   [`lower::NetworkProgram`] — an ordered op graph of epitome crossbar
//!   ops and dense tensor ops with inferred inter-stage shapes, plus
//!   weight binding ([`lower::NetworkWeights`]) and the sequential
//!   reference executor the serving runtime is verified against.
//! - [`optimize`]: the graph-fusion pass over lowered programs — fused
//!   ReLU epilogues, bit-identity-safe by construction — plus the
//!   liveness-planned activation arena
//!   ([`optimize::ArenaPlan`]) the serving runtime executes into.

#![deny(missing_docs)]

pub mod accuracy;
pub mod lower;
pub mod network;
pub mod optimize;
pub mod resnet;
pub mod training;
pub mod zoo;
