//! The serving engine: one scheduler serving a fleet of compiled plans.
//!
//! The paper's epitome compression pays off at fleet scale — many small
//! compressed models sharing one accelerator. In a [`MultiEngine`] several
//! compiled [`NetworkPlan`]s register as **tenants** sharing one
//! [`PlanCache`] and one set of scheduler threads, each tenant with its
//! own bounded submission queue and micro-batching knobs, and its own
//! [`RuntimeStats`] — drained round-robin by the scheduler core. A single
//! network, or a single epitome layer (`epim_models::zoo::epitome_layer`),
//! is served as a one-tenant fleet.
//!
//! Because request groups never mix tenants and every tenant executes its
//! own plan, each tenant's outputs and [`DataPathStats`] rollups are
//! **bit-identical** to sequential per-request reference execution of its
//! network — tenancy is purely a resource-sharing decision, never a
//! semantic one. Two tenants whose networks share an
//! [`epim_core::EpitomeSpec`] share one compiled plan through the cache
//! (one compile, visible in [`crate::PlanCacheStats`]).
//!
//! [`DataPathStats`]: epim_pim::datapath::DataPathStats
//!
//! # Example
//!
//! ```no_run
//! use epim_models::lower::NetworkWeights;
//! use epim_models::zoo;
//! use epim_pim::datapath::AnalogModel;
//! use epim_runtime::{MultiEngine, PlanCache, TenantConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (small, _) = zoo::tiny_epitome_network(8, 4, 10)?;
//! let (large, _) = zoo::tiny_epitome_network(8, 8, 10)?;
//! let weights_small = NetworkWeights::random(&small, 1)?;
//! let weights_large = NetworkWeights::random(&large, 2)?;
//!
//! let cache = PlanCache::new();
//! let mut builder = MultiEngine::builder(&cache).workers(2);
//! let large_id = builder.register(
//!     "large", &large, &weights_large, (16, 16), true,
//!     AnalogModel::ideal(), TenantConfig::default(),
//! )?;
//! let small_id = builder.register(
//!     "small", &small, &weights_small, (16, 16), true,
//!     AnalogModel::ideal(), TenantConfig::default(),
//! )?;
//! let engine = builder.build()?;
//!
//! // Handles carry their tenant id; per-tenant and fleet stats coexist.
//! let _ = (large_id, small_id);
//! let fleet = engine.fleet_stats();
//! # let _ = fleet;
//! # Ok(())
//! # }
//! ```

use crate::network::{NetworkPlan, PlanExecutor};
use crate::scheduler::Scheduler;
use crate::{InferRequest, Inference, PlanCache, RuntimeError, RuntimeStats, TenantConfig};
use epim_models::lower::NetworkWeights;
use epim_models::network::Network;
use epim_pim::datapath::AnalogModel;
use epim_tensor::Tensor;
use std::sync::Arc;

/// Process-unique fleet tokens: every builder (and the engine built from
/// it) gets one, so a [`TenantId`] can prove which engine issued it.
static NEXT_FLEET: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

fn next_fleet() -> u64 {
    NEXT_FLEET.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// An opaque tenant identifier issued at registration. Ids are only valid
/// on the engine whose builder issued them: each id carries its fleet's
/// process-unique token, and using it on any other engine yields a typed
/// [`RuntimeError::UnknownTenant`] instead of silently routing to
/// whatever tenant happens to share the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId {
    fleet: u64,
    index: usize,
}

impl TenantId {
    /// The tenant's index in registration order.
    pub fn index(self) -> usize {
        self.index
    }
}

/// Builder collecting tenants before the serving threads spawn. Obtained
/// from [`MultiEngine::builder`].
pub struct MultiEngineBuilder {
    cache: PlanCache,
    fleet: u64,
    workers: usize,
    restart_budget: u32,
    tenants: Vec<(String, Arc<NetworkPlan>, TenantConfig)>,
}

impl MultiEngineBuilder {
    /// Sets the number of scheduler threads shared by every tenant (the
    /// pipeline depth; defaults to 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets how many worker panics the fleet's scheduler threads recover
    /// from, together, over the fleet's lifetime; each one restarts its
    /// own loop in place. The next panic fails the fleet with
    /// [`RuntimeError::CrashLoop`] (defaults to
    /// [`crate::DEFAULT_RESTART_BUDGET`]; `0` means the first panic fails
    /// the fleet).
    pub fn restart_budget(mut self, budget: u32) -> Self {
        self.restart_budget = budget;
        self
    }

    /// Compiles `network` through the builder's shared [`PlanCache`] (two
    /// tenants with the same `EpitomeSpec` hit one compiled plan) and
    /// registers it as a tenant, returning its id.
    ///
    /// # Errors
    ///
    /// Propagates compilation errors and rejects an invalid
    /// [`TenantConfig`] or a duplicate tenant name.
    #[allow(clippy::too_many_arguments)]
    pub fn register(
        &mut self,
        name: impl Into<String>,
        network: &Network,
        weights: &NetworkWeights,
        input_hw: (usize, usize),
        wrapping_enabled: bool,
        analog: AnalogModel,
        config: TenantConfig,
    ) -> Result<TenantId, RuntimeError> {
        // Validate the registration before paying for compilation (and
        // before the shared cache's counters record any of its work).
        let name = name.into();
        self.check_registration(&name, config)?;
        // The graph-fusion pass is bit-identity-safe, so `register`
        // always runs it; an unfused plan goes through `register_plan`.
        let plan = Arc::new(NetworkPlan::compile(
            &self.cache,
            network,
            weights,
            input_hw,
            wrapping_enabled,
            analog,
            true,
        )?);
        self.register_plan(name, plan, config)
    }

    /// Rejects an invalid [`TenantConfig`], an empty name, or a name
    /// already registered with this builder.
    fn check_registration(&self, name: &str, config: TenantConfig) -> Result<(), RuntimeError> {
        config.validate()?;
        if name.is_empty() {
            return Err(RuntimeError::config("tenant names must be non-empty"));
        }
        if self.tenants.iter().any(|(n, _, _)| n == name) {
            return Err(RuntimeError::config(format!(
                "duplicate tenant name {name:?}"
            )));
        }
        Ok(())
    }

    /// Registers an already-compiled (possibly shared) plan as a tenant,
    /// returning its id. The same `Arc<NetworkPlan>` may back several
    /// tenants — distinct queues and stats over one set of weights.
    ///
    /// # Errors
    ///
    /// Rejects an invalid [`TenantConfig`] or a duplicate tenant name.
    pub fn register_plan(
        &mut self,
        name: impl Into<String>,
        plan: Arc<NetworkPlan>,
        config: TenantConfig,
    ) -> Result<TenantId, RuntimeError> {
        let name = name.into();
        self.check_registration(&name, config)?;
        self.tenants.push((name, plan, config));
        Ok(TenantId {
            fleet: self.fleet,
            index: self.tenants.len() - 1,
        })
    }

    /// Spawns the serving engine over every registered tenant.
    ///
    /// # Errors
    ///
    /// Rejects an empty tenant list or an invalid worker count.
    pub fn build(self) -> Result<MultiEngine, RuntimeError> {
        if self.tenants.is_empty() {
            return Err(RuntimeError::config(
                "register at least one tenant before build",
            ));
        }
        let mut names = Vec::with_capacity(self.tenants.len());
        let mut max_batches = Vec::with_capacity(self.tenants.len());
        let tenants = self
            .tenants
            .into_iter()
            .map(|(name, plan, config)| {
                // Pre-size each tenant's activation arena for its own
                // max_batch.
                let max_batch = config.max_batch.max(1);
                plan.warm(max_batch);
                max_batches.push(max_batch);
                names.push(name.clone());
                (name, PlanExecutor { plan }, config)
            })
            .collect();
        let scheduler = Scheduler::new(tenants, self.workers, self.restart_budget)?;
        Ok(MultiEngine {
            scheduler,
            fleet: self.fleet,
            names,
            max_batches,
            cache: self.cache,
        })
    }
}

/// The serving engine: a fleet of compiled [`NetworkPlan`]s behind one
/// round-robin scheduler, sharing one [`PlanCache`] and one worker
/// pool. Groups never mix tenants, so each tenant's outputs and
/// data-path stats are bit-identical to serving it alone.
pub struct MultiEngine {
    scheduler: Scheduler<PlanExecutor>,
    fleet: u64,
    names: Vec<String>,
    /// Per-tenant group size the arena metrics are reported for.
    max_batches: Vec<usize>,
    cache: PlanCache,
}

impl MultiEngine {
    /// Starts a builder whose tenants compile through (a handle to)
    /// `cache`.
    pub fn builder(cache: &PlanCache) -> MultiEngineBuilder {
        MultiEngineBuilder {
            cache: cache.clone(),
            fleet: next_fleet(),
            workers: 1,
            restart_budget: crate::DEFAULT_RESTART_BUDGET,
            tenants: Vec::new(),
        }
    }

    /// The registered tenant names, in registration (= id) order.
    pub fn tenant_names(&self) -> &[String] {
        &self.names
    }

    /// Looks a tenant up by name.
    pub fn tenant_id(&self, name: &str) -> Option<TenantId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|index| TenantId {
                fleet: self.fleet,
                index,
            })
    }

    /// Resolves `id` to a scheduler index, rejecting ids issued by any
    /// other engine's builder (same-index-different-fleet must error, not
    /// route to an unrelated tenant).
    fn index_of(&self, id: TenantId) -> Result<usize, RuntimeError> {
        if id.fleet != self.fleet {
            return Err(RuntimeError::UnknownTenant { id: id.index });
        }
        self.scheduler.check_tenant(id.index)?;
        Ok(id.index)
    }

    /// The compiled plan tenant `id` serves.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnknownTenant`] for an id this engine did
    /// not issue.
    pub fn plan(&self, id: TenantId) -> Result<&Arc<NetworkPlan>, RuntimeError> {
        let index = self.index_of(id)?;
        Ok(&self.scheduler.executor(index).plan)
    }

    /// Runs one whole-network inference on tenant `id` (input
    /// `(N, C, H, W)` matching that tenant's program input shape),
    /// waiting for queue space if the tenant's queue is full (bounded only
    /// by the request's deadline) and blocking until the execution
    /// completes. Concurrent callers of the same tenant coalesce into
    /// stacked groups; other tenants' traffic shares only the scheduler
    /// threads, never a batch.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnknownTenant`] for a foreign id,
    /// [`RuntimeError::ShuttingDown`] during shutdown,
    /// [`RuntimeError::DeadlineExceeded`] if the request's deadline passed
    /// first, or this request's execution error.
    pub fn infer(
        &self,
        id: TenantId,
        req: impl Into<InferRequest>,
    ) -> Result<Inference, RuntimeError> {
        self.scheduler.submit_wait(self.index_of(id)?, req.into())
    }

    /// Submits to tenant `id` without ever blocking on queue space (full
    /// queue → shed immediately) and hands the result — the inference or
    /// this request's typed error — to `reply`. Accepts a bare [`Tensor`]
    /// or a tagged [`InferRequest`].
    ///
    /// The scheduler calls `reply` exactly once per accepted request, on
    /// one of its own threads and sometimes while holding the queue lock:
    /// it must not block, panic or call back into this engine. Sending the
    /// result into a channel is the intended use.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Overloaded`] when this tenant's queue is
    /// full, [`RuntimeError::UnknownTenant`] for a foreign id,
    /// [`RuntimeError::DeadlineExceeded`] for a request whose deadline has
    /// already passed, or [`RuntimeError::ShuttingDown`] during shutdown.
    /// On any error nothing was queued and `reply` is dropped uncalled.
    pub fn try_infer(
        &self,
        id: TenantId,
        req: impl Into<InferRequest>,
        reply: impl FnOnce(Result<Inference, RuntimeError>) + Send + 'static,
    ) -> Result<(), RuntimeError> {
        self.scheduler
            .try_submit(self.index_of(id)?, req.into(), Box::new(reply))
    }

    /// Submits a burst to tenant `id` atomically, waiting for queue space
    /// as [`MultiEngine::infer`] does, and waits for all results, in
    /// order.
    ///
    /// # Errors
    ///
    /// Per-request errors land in their result slot; a burst larger than
    /// the tenant's queue capacity (or submission during shutdown) fails
    /// whole.
    #[allow(clippy::type_complexity)]
    pub fn infer_many(
        &self,
        id: TenantId,
        inputs: Vec<Tensor>,
    ) -> Result<Vec<Result<Inference, RuntimeError>>, RuntimeError> {
        self.scheduler.submit_many(self.index_of(id)?, inputs)
    }

    /// A point-in-time snapshot of one tenant's serving statistics
    /// (queue-wait / service / end-to-end latency histograms, per-stage
    /// time rollups, batch histogram, queue depth with its high-water
    /// mark, shed counter, data-path rollup). The `plan_cache` counters
    /// are those of the shared cache — compilation work is a fleet-level
    /// resource.
    ///
    /// [`RuntimeStats::queue_depth_high_water`] and
    /// [`RuntimeStats::time_in_queue`] are the autoscaling input signal:
    /// a tenant whose high-water mark rides its queue capacity while
    /// queue-wait time grows needs more scheduler workers (or a bigger
    /// share), independent of how its service time behaves.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnknownTenant`] for an id this engine did
    /// not issue.
    pub fn tenant_stats(&self, id: TenantId) -> Result<RuntimeStats, RuntimeError> {
        let index = self.index_of(id)?;
        let mut stats = self.scheduler.tenant_stats(index, self.cache.stats())?;
        let plan = &self.scheduler.executor(index).plan;
        stats.arena_bytes = plan.arena_bytes(self.max_batches[index]);
        Ok(stats)
    }

    /// The fleet-level rollup across every tenant: counters and data-path
    /// rollups sum, histograms merge, latency percentiles cover the union
    /// of every tenant's retained samples, `queue_depth` is the total
    /// backlog, and the arena byte metrics sum across tenants.
    pub fn fleet_stats(&self) -> RuntimeStats {
        let mut stats = self.scheduler.fleet_stats(self.cache.stats());
        for (index, &max_batch) in self.max_batches.iter().enumerate() {
            let plan = &self.scheduler.executor(index).plan;
            stats.arena_bytes += plan.arena_bytes(max_batch);
        }
        stats
    }

    /// Renders the whole fleet as Prometheus text exposition: every
    /// serving metric once per tenant under a `tenant="<name>"` label
    /// (samples grouped under one `# HELP`/`# TYPE` header per metric),
    /// plus the shared plan cache's counters once, unlabeled. No network
    /// dependency — print it, write it to a file, or serve it from any
    /// HTTP handler.
    pub fn render_prometheus(&self) -> String {
        let mut w = epim_obs::PromWriter::new();
        for index in 0..self.names.len() {
            let id = TenantId {
                fleet: self.fleet,
                index,
            };
            let stats = self.tenant_stats(id).expect("own tenant id is valid");
            stats.write_prometheus(&mut w, &[("tenant", self.names[index].as_str())]);
        }
        crate::stats::write_cache_prometheus(&mut w, &self.cache.stats());
        // Worker restarts are a fleet-level resource (the worker pool is
        // shared), so the counter is written once, unlabeled.
        crate::stats::write_supervision_prometheus(&mut w, self.fleet_stats().worker_restarts);
        w.render()
    }
}
