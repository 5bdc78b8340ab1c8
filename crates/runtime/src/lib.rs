//! # epim-runtime
//!
//! A batched inference **serving engine** for epitome-compressed networks
//! running on the functional PIM data path.
//!
//! Layered bottom-up:
//!
//! 1. **Persistent worker pool** (lives in `epim-parallel`): every
//!    fork-join region in the workspace dispatches onto
//!    `num_threads() - 1` parked workers. `EPIM_THREADS` pins the width.
//! 2. **Compiled-plan cache** ([`PlanCache`]): the IFAT/IFRT/OFAT tables
//!    and per-round word-line lists depend only on the `EpitomeSpec`, so
//!    they are compiled once and shared across layers, networks and
//!    tenants ([`PlanCache::warm_network`] precompiles every epitome
//!    choice of an `epim_models::Network`).
//! 3. **Network plan** ([`NetworkPlan`]): `Network::lower()` compiles a
//!    network into an executable program, the graph-fusion pass folds
//!    ReLUs into epilogues, and the plan binds weights, resolves every
//!    epitome stage through the cache and lays out one liveness-planned
//!    activation arena. A request group is stacked into the arena and
//!    streamed through the stages: epitome stages run the batched data
//!    path (crossbar operands read in place, no receptive-field matrix),
//!    dense convolutions one implicit GEMM. Outputs and `DataPathStats`
//!    are **bit-identical** to sequential per-request reference
//!    execution, so batching is purely a throughput decision.
//! 4. **Scheduler core**: per-tenant **bounded** queues with
//!    [`FlowControl`] ([`FlowControl::Block`] backpressure or
//!    [`FlowControl::Shed`] with a timeout), shape-grouped coalescing
//!    bounded by [`TenantConfig::max_batch`] and
//!    [`TenantConfig::batch_window`] (an upper bound on the hold: the
//!    scheduler waits at most the tenant's measured service time),
//!    weighted-fair draining ([`TenantConfig::weight`]) and supervised
//!    worker threads.
//! 5. **The engine** ([`MultiEngine`]): compiled plans registered as
//!    tenants behind one scheduler. A single network — or a single
//!    epitome layer, via `epim_models::zoo::epitome_layer` — is a
//!    one-tenant fleet. Requests are typed ([`InferRequest`]; a bare
//!    tensor converts) and [`MultiEngine::try_infer`] returns a
//!    [`Pending`] that supports blocking [`Pending::wait`], bounded
//!    [`Pending::wait_timeout`] and `await` (it implements
//!    [`std::future::Future`]).
//!
//! Serving health is observable through [`RuntimeStats`]: per-tenant
//! queue-wait / service / end-to-end latency histograms (log-linear, exact
//! merge — see `epim-obs`), per-stage time rollups ([`StageRollup`]), the
//! batch-size histogram, queue depth with its high-water mark, shed
//! counters, the plan cache's hit/miss counters, and a rollup of the data
//! path's hardware counters — renderable as Prometheus text exposition
//! ([`MultiEngine::render_prometheus`]). The scheduler and every network
//! plan stage are additionally span-traced into `epim-obs`'s process-wide
//! ring when tracing is enabled (`EPIM_TRACE=1` or
//! `epim_obs::set_enabled(true)`), exportable as chrome://tracing JSON.
//!
//! ## Example
//!
//! ```
//! use epim_core::{ConvShape, Epitome, EpitomeShape, EpitomeSpec};
//! use epim_models::zoo;
//! use epim_pim::datapath::AnalogModel;
//! use epim_runtime::{MultiEngine, PlanCache, TenantConfig};
//! use epim_tensor::{init, rng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = EpitomeSpec::new(ConvShape::new(8, 4, 3, 3), EpitomeShape::new(4, 4, 2, 2))?;
//! let mut r = rng::seeded(1);
//! let epi = Epitome::from_tensor(spec, init::uniform(&[4, 4, 2, 2], -1.0, 1.0, &mut r))?;
//!
//! // One epitome layer on 8x8 inputs, served as a one-tenant fleet.
//! let (net, weights) = zoo::epitome_layer(&epi, 8)?;
//! let cache = PlanCache::new();
//! let mut builder = MultiEngine::builder(&cache);
//! let layer = builder.register(
//!     "layer", &net, &weights, (8, 8), true, AnalogModel::ideal(), TenantConfig::default(),
//! )?;
//! let engine = builder.build()?;
//!
//! let x = init::uniform(&[1, 4, 8, 8], -1.0, 1.0, &mut r);
//! let inference = engine.infer(layer, x)?;
//! assert_eq!(inference.output.shape(), &[1, 8, 8, 8]);
//! assert_eq!(engine.fleet_stats().requests, 1);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod cache;
mod error;
mod network;
mod scheduler;
mod service;
mod stats;
mod sync;
mod tenancy;

pub use cache::{PlanCache, PlanCacheStats};
pub use error::RuntimeError;
pub use network::NetworkPlan;
pub use scheduler::{FlowControl, Inference, Pending, TenantConfig, DEFAULT_RESTART_BUDGET};
pub use service::{InferRequest, CLIENT_NONE};
pub use stats::{RuntimeStats, StageRollup};
pub use tenancy::{MultiEngine, MultiEngineBuilder, TenantId};
