//! # epim-runtime
//!
//! A batched inference **serving engine** for epitome layers running on
//! the functional PIM data path — the first step from "simulator you call
//! in a loop" toward the production serving system the roadmap aims at.
//!
//! Layered bottom-up:
//!
//! 1. **Persistent worker pool** (lives in `epim-parallel`): every
//!    fork-join region in the workspace now dispatches onto
//!    `num_threads() - 1` parked workers instead of spawning scoped
//!    threads per call. `EPIM_THREADS` pins the width.
//! 2. **Scheduler core** (shared by both engines): a **bounded** MPSC
//!    submission queue with configurable [`FlowControl`]
//!    ([`FlowControl::Block`] backpressure or [`FlowControl::Shed`] with a
//!    timeout, plus non-blocking `try_infer`), shape-grouped coalescing
//!    bounded by [`EngineConfig::max_batch`] / [`EngineConfig::batch_window`]
//!    (the window is an upper bound on the hold: the scheduler waits at
//!    most the tenant's measured service time, and not at all when that
//!    is below what a timed wait can resolve), and
//!    [`EngineConfig::workers`] pipelined group executors.
//! 3. **Single-layer engine** ([`Engine`]): concurrent [`Engine::infer`]
//!    calls coalesce into `DataPath::execute_batch` calls, which build the
//!    im2col-style receptive-field matrix once per pixel tile and amortize
//!    per-round table walks and DAC/ADC sweeps across the whole batch.
//!    Batched execution is **bit-identical** to per-request execution, so
//!    batching is purely a throughput decision.
//! 4. **Network serving** ([`NetworkEngine`]): `Network::lower()` compiles
//!    a whole epitome-compressed network into an executable program;
//!    [`NetworkPlan`] binds weights, resolves every epitome stage through
//!    the plan cache and pre-allocates activation buffers; the engine
//!    serves the pipeline behind one queue, bit-identically to sequential
//!    per-stage reference execution.
//! 5. **Multi-network tenancy** ([`MultiEngine`]): a fleet of compiled
//!    plans registered as tenants behind one scheduler — per-tenant
//!    bounded queues, [`FlowControl`] and [`RuntimeStats`], weighted-fair
//!    starvation-free draining ([`TenantConfig::weight`]), one shared
//!    [`PlanCache`] and worker pool. Every tenant's outputs and stats are
//!    bit-identical to a dedicated [`NetworkEngine`].
//! 6. **Compiled-plan cache** ([`PlanCache`]): the IFAT/IFRT/OFAT tables
//!    and per-round word-line lists depend only on the `EpitomeSpec`, so
//!    they are compiled once and shared across engines, networks and
//!    re-programmed weights ([`PlanCache::warm_network`] precompiles every
//!    epitome choice of an `epim_models::Network`).
//! 7. **Unified submission surface** ([`InferService`]): [`Engine`],
//!    [`NetworkEngine`] and [`TenantHandle`] all accept the same typed
//!    [`InferRequest`] and return a [`Pending`] that supports blocking
//!    [`Pending::wait`], bounded [`Pending::wait_timeout`] and
//!    `await` (it implements [`std::future::Future`]), so servers —
//!    notably the `epim-serve` TCP front-end — and tests are generic
//!    over engines.
//!
//! Serving health is observable through [`RuntimeStats`]: per-tenant
//! queue-wait / service / end-to-end latency histograms (log-linear, exact
//! merge — see `epim-obs`), per-stage time rollups ([`StageRollup`]), the
//! batch-size histogram, queue depth with its high-water mark, shed
//! counters, the plan cache's hit/miss counters, and a rollup of the data
//! path's hardware counters — renderable as Prometheus text exposition
//! ([`RuntimeStats::render_prometheus`],
//! [`MultiEngine::render_prometheus`]). The scheduler and every network
//! plan stage are additionally span-traced into `epim-obs`'s process-wide
//! ring when tracing is enabled (`EPIM_TRACE=1` or
//! `epim_obs::set_enabled(true)`), exportable as chrome://tracing JSON.
//!
//! ## Example
//!
//! ```
//! use epim_core::{ConvShape, Epitome, EpitomeShape, EpitomeSpec};
//! use epim_pim::datapath::AnalogModel;
//! use epim_runtime::{Engine, EngineConfig, PlanCache};
//! use epim_tensor::ops::Conv2dCfg;
//! use epim_tensor::{init, rng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = EpitomeSpec::new(ConvShape::new(8, 4, 3, 3), EpitomeShape::new(4, 4, 2, 2))?;
//! let mut r = rng::seeded(1);
//! let epi = Epitome::from_tensor(spec, init::uniform(&[4, 4, 2, 2], -1.0, 1.0, &mut r))?;
//!
//! let cache = PlanCache::new();
//! let cfg = Conv2dCfg { stride: 1, padding: 1 };
//! let engine = Engine::with_cache(
//!     &cache, &epi, cfg, true, AnalogModel::ideal(), EngineConfig::default())?;
//!
//! let x = init::uniform(&[1, 4, 8, 8], -1.0, 1.0, &mut r);
//! let inference = engine.infer(x)?;
//! assert_eq!(inference.output.shape(), &[1, 8, 8, 8]);
//! assert_eq!(engine.stats().requests, 1);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod cache;
mod engine;
mod error;
mod network;
mod scheduler;
mod service;
mod stats;
mod sync;
mod tenancy;

pub use cache::{PlanCache, PlanCacheStats};
pub use engine::Engine;
pub use error::RuntimeError;
pub use network::{NetworkEngine, NetworkPlan};
pub use scheduler::{
    EngineConfig, FlowControl, Inference, Pending, TenantConfig, DEFAULT_RESTART_BUDGET,
};
pub use service::{InferRequest, InferService, CLIENT_NONE};
pub use stats::{RuntimeStats, StageRollup};
pub use tenancy::{MultiEngine, MultiEngineBuilder, TenantHandle, TenantId};
