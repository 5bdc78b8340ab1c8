//! Whole-network serving: a [`NetworkPlan`] compiled from an
//! `epim_models` [`Network`] and the [`NetworkEngine`] that serves it
//! behind one submission queue.
//!
//! The plan is the runtime half of the compile pipeline: `Network::lower`
//! produces the weight-free [`NetworkProgram`],
//! [`NetworkProgram::optimize`] fuses ReLU epilogues and folds identity
//! stages, and [`NetworkPlan::compile`] binds weights to the result,
//! resolves **every epitome stage through the [`PlanCache`]** (one
//! compiled plan per distinct spec, shared across layers, networks and
//! engines — warming the cache first via [`PlanCache::warm_network`]
//! makes compilation miss-free), and computes the **liveness-planned
//! activation arena** ([`ArenaPlan`]): one static layout assigning every
//! activation an offset in a single allocation, with lifetimes-disjoint
//! activations sharing memory. Steady-state serving leases one whole arena per
//! in-flight group — no per-stage allocation, no buffer-pool resize
//! churn, and a peak footprint strictly below the old exact-size pool's
//! high-water mark (both reported in
//! [`RuntimeStats::arena_bytes`] / [`RuntimeStats::legacy_pool_bytes`]).
//!
//! Execution stacks a whole request group into the arena's source slot
//! and streams it through the stages: epitome stages run on the batched
//! data path (packed round panels amortized over every image of every
//! request), dense convolutions run one implicit GEMM over the stacked
//! images with their fused ReLU epilogue, and elementwise stages run the vectorized
//! slice kernels. The result is **bit-identical** to executing each
//! request alone through `NetworkProgram::forward_reference` on the
//! *unoptimized* program — every fused epilogue clamps the exact value
//! the unfused kernel writes, and every stage's per-image arithmetic is
//! independent of the batch around it (the classifier GEMM, whose row
//! dimension *is* the batch, is deliberately executed per-request to
//! keep that true) — with the [`DataPathStats`] rollup equal to the
//! per-request sum.

use crate::scheduler::{GroupExecutor, Scheduler};
use crate::stats::StageMeta;
use crate::{
    EngineConfig, InferRequest, InferService, Inference, Pending, PlanCache, RuntimeError,
    RuntimeStats,
};
use epim_models::lower::{NetworkProgram, NetworkWeights, StageInput, StageOp};
use epim_models::network::Network;
use epim_models::optimize::{ArenaPlan, ArenaSlot};
use epim_obs::trace;
use epim_pim::datapath::{AnalogModel, DataPath, DataPathStats};
use epim_tensor::ops::{
    add_relu_slice, add_slice, conv2d_into, gemm, global_avg_pool_into, max_pool2d_into,
    relu_slice, Conv2dCfg, PoolCfg,
};
use epim_tensor::Tensor;
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One executable stage: the program op with its weights bound.
enum PlannedOp {
    Conv {
        weight: Tensor,
        bias: Option<Tensor>,
        cfg: Conv2dCfg,
        relu: bool,
    },
    Epitome {
        dp: DataPath,
        relu: bool,
    },
    Relu,
    MaxPool(PoolCfg),
    GlobalAvgPool,
    Linear {
        weight: Tensor,
        bias: Option<Tensor>,
        relu: bool,
    },
    Add {
        with: usize,
        relu: bool,
    },
}

impl PlannedOp {
    /// The op kind packed into stage trace spans.
    fn trace_kind(&self) -> trace::StageOpKind {
        match self {
            PlannedOp::Conv { .. } => trace::StageOpKind::Conv,
            PlannedOp::Epitome { .. } => trace::StageOpKind::Epitome,
            PlannedOp::Relu => trace::StageOpKind::Relu,
            PlannedOp::MaxPool(_) => trace::StageOpKind::MaxPool,
            PlannedOp::GlobalAvgPool => trace::StageOpKind::GlobalAvgPool,
            PlannedOp::Linear { .. } => trace::StageOpKind::Linear,
            PlannedOp::Add { .. } => trace::StageOpKind::Add,
        }
    }

    /// The op name reported in per-stage metric rollups.
    fn op_name(&self) -> &'static str {
        self.trace_kind().as_str()
    }
}

/// Whole arenas retained across groups; beyond this, returns are dropped.
/// One arena serves one in-flight group, so this only needs to cover the
/// scheduler's pipeline depth.
const ARENA_RETAIN: usize = 8;

/// A whole `Network` compiled for serving: optimized program + bound
/// weights + per-stage data paths + the static activation arena,
/// shareable (behind an [`Arc`]) across engines.
pub struct NetworkPlan {
    program: NetworkProgram,
    ops: Vec<PlannedOp>,
    arena: ArenaPlan,
    /// Whole activation arenas leased per group execution.
    arenas: Mutex<Vec<Vec<f32>>>,
    /// Per-image f32 units the pre-arena exact-size buffer pool kept live
    /// (every unoptimized stage activation plus the stacked source) — the
    /// "before" of the arena metric.
    legacy_units: usize,
}

impl NetworkPlan {
    /// Lowers `network` for `input_h × input_w` inputs, runs the
    /// graph-fusion pass when `optimize` is set (fused ReLU epilogues and
    /// identity folds — bit-identity-safe by construction), binds
    /// `weights`, resolves every epitome stage through `cache` (layers
    /// sharing a spec share one compiled plan; a pre-warmed cache
    /// compiles nothing) and plans the activation arena.
    ///
    /// # Errors
    ///
    /// Propagates lowering errors (unroutable inventory), weight-binding
    /// mismatches and plan compilation failures.
    pub fn compile(
        cache: &PlanCache,
        network: &Network,
        weights: &NetworkWeights,
        (input_h, input_w): (usize, usize),
        wrapping_enabled: bool,
        analog: AnalogModel,
        optimize: bool,
    ) -> Result<Self, RuntimeError> {
        let raw = network
            .lower(input_h, input_w)
            .map_err(|e| RuntimeError::config(format!("lowering failed: {e}")))?;
        // What the old exact-size pool's high-water mark was: one buffer
        // per (unoptimized) stage plus the stacked source, all resident.
        let legacy_units = raw.input_shape().iter().product::<usize>()
            + raw
                .stages()
                .iter()
                .map(|s| s.out_shape.iter().product::<usize>())
                .sum::<usize>();
        let program = if optimize { raw.optimize() } else { raw };

        let mut ops = Vec::with_capacity(program.stages().len());
        for stage in program.stages() {
            let op = match &stage.op {
                StageOp::Conv { layer, cfg, relu } => {
                    let (w, b) = weights.dense(*layer, &stage.name)?;
                    PlannedOp::Conv {
                        weight: w.clone(),
                        bias: b.cloned(),
                        cfg: *cfg,
                        relu: *relu,
                    }
                }
                StageOp::Epitome {
                    layer,
                    spec,
                    cfg,
                    relu,
                } => {
                    let epi = weights.epitome(*layer, spec, &stage.name)?;
                    let dp = cache.datapath(epi, *cfg, wrapping_enabled, analog)?;
                    PlannedOp::Epitome { dp, relu: *relu }
                }
                StageOp::Relu => PlannedOp::Relu,
                StageOp::MaxPool(cfg) => PlannedOp::MaxPool(*cfg),
                StageOp::GlobalAvgPool => PlannedOp::GlobalAvgPool,
                StageOp::Linear { layer, relu } => {
                    let (w, b) = weights.dense(*layer, &stage.name)?;
                    let wmat = w
                        .reshape(&[w.shape()[0], w.len() / w.shape()[0]])
                        .map_err(|e| RuntimeError::config(format!("fc weight: {e}")))?;
                    PlannedOp::Linear {
                        weight: wmat,
                        bias: b.cloned(),
                        relu: *relu,
                    }
                }
                StageOp::Add { with, relu } => PlannedOp::Add {
                    with: *with,
                    relu: *relu,
                },
            };
            ops.push(op);
        }
        let arena = program.plan_arena();

        Ok(NetworkPlan {
            program,
            ops,
            arena,
            arenas: Mutex::new(Vec::new()),
            legacy_units,
        })
    }

    /// The program this plan executes (post-optimization when the plan
    /// was compiled with the pass enabled).
    pub fn program(&self) -> &NetworkProgram {
        &self.program
    }

    /// The static activation-arena layout this plan executes into.
    pub fn arena_plan(&self) -> &ArenaPlan {
        &self.arena
    }

    /// Peak activation-arena bytes for a group of `images` stacked images.
    pub fn arena_bytes(&self, images: usize) -> u64 {
        (self.arena.total * images * std::mem::size_of::<f32>()) as u64
    }

    /// What the pre-arena exact-size buffer pool kept resident for the
    /// same group — the "before" of the arena optimization.
    pub fn legacy_pool_bytes(&self, images: usize) -> u64 {
        (self.legacy_units * images * std::mem::size_of::<f32>()) as u64
    }

    /// Pre-allocates one arena for groups of up to `images` stacked
    /// images, so the first served groups do not pay the allocation.
    /// Called by the engines with their `max_batch`.
    pub fn warm(&self, images: usize) {
        let arena = self.lease_arena(self.arena.total * images);
        self.return_arena(arena);
    }

    fn lease_arena(&self, len: usize) -> Vec<f32> {
        let mut v = self
            .arenas
            .lock()
            .expect("arena pool poisoned")
            .pop()
            .unwrap_or_default();
        // Contents may be stale: every op overwrites its whole output slot.
        v.resize(len, 0.0);
        v
    }

    fn return_arena(&self, v: Vec<f32>) {
        let mut pool = self.arenas.lock().expect("arena pool poisoned");
        if pool.len() < ARENA_RETAIN {
            pool.push(v);
        }
    }

    /// Executes a shape-uniform request group through the whole program,
    /// returning one output per request plus the summed
    /// [`DataPathStats`] of every epitome stage.
    ///
    /// Semantics are exactly `inputs.iter().map(forward_reference)` on
    /// the unoptimized program: the outputs and stats are bit-identical
    /// to sequential per-request reference execution.
    ///
    /// # Errors
    ///
    /// Returns a geometry error if the inputs' shapes differ from one
    /// another or from the program input shape.
    pub fn execute_batch(
        &self,
        inputs: &[&Tensor],
    ) -> Result<(Vec<Tensor>, DataPathStats), RuntimeError> {
        let (outs, stats, _) = self.run(inputs, trace::TENANT_NONE)?;
        Ok((outs, stats))
    }

    /// Static stage descriptions (name + op kind), index-aligned with the
    /// per-stage wall times [`NetworkPlan::run`] reports.
    pub(crate) fn stage_meta(&self) -> Vec<StageMeta> {
        self.program
            .stages()
            .iter()
            .zip(&self.ops)
            .map(|(stage, op)| StageMeta {
                name: stage.name.clone(),
                op: op.op_name(),
            })
            .collect()
    }

    /// [`NetworkPlan::execute_batch`] plus observability: also returns
    /// each stage's wall time (nanoseconds, index-aligned with
    /// [`NetworkPlan::stage_meta`]) and tags the per-stage trace spans
    /// with `tenant` ([`trace::TENANT_NONE`] for direct calls).
    pub(crate) fn run(
        &self,
        inputs: &[&Tensor],
        tenant: u32,
    ) -> Result<(Vec<Tensor>, DataPathStats, Vec<u64>), RuntimeError> {
        let Some(first) = inputs.first() else {
            return Ok((Vec::new(), DataPathStats::default(), Vec::new()));
        };
        let in_shape = self.program.input_shape();
        if first.rank() != 4 || first.shape()[1..] != in_shape[..] {
            return Err(RuntimeError::Pim(epim_pim::PimError::geometry(format!(
                "network input must be (N, {}, {}, {}), got {:?}",
                in_shape[0],
                in_shape[1],
                in_shape[2],
                first.shape()
            ))));
        }
        if let Some(bad) = inputs.iter().find(|t| t.shape() != first.shape()) {
            return Err(RuntimeError::Pim(epim_pim::PimError::geometry(format!(
                "network batch requires identical input shapes, got {:?} and {:?}",
                first.shape(),
                bad.shape()
            ))));
        }
        let n_per = first.shape()[0];
        let images = inputs.len() * n_per;

        let mut arena_buf = self.lease_arena(self.arena.total * images);
        let arena = &mut arena_buf[..];
        let src = slot_range(self.arena.source, images);

        // Stack the group into the source slot. Per-image results are
        // independent of the stacking, so this is purely a
        // dispatch-amortization move.
        let plane = first.len();
        let dst = &mut arena[src.clone()];
        for (g, input) in inputs.iter().enumerate() {
            dst[g * plane..(g + 1) * plane].copy_from_slice(input.data());
        }

        let mut stats = DataPathStats::default();
        let mut stage_ns = vec![0u64; self.ops.len()];
        for (i, op) in self.ops.iter().enumerate() {
            // Fault-injection point: slow this stage down (chaos testing
            // of deadline shedding and batch-window behavior). Disabled
            // (the default) this is one relaxed atomic load.
            if let Some(delay) = epim_faults::fire_delay(epim_faults::FaultPoint::StageDelay) {
                std::thread::sleep(delay);
            }
            let stage = &self.program.stages()[i];
            let (in_range, in_shape) = match stage.input {
                StageInput::Source => (src.clone(), self.program.input_shape()),
                StageInput::Stage(j) => (
                    slot_range(self.arena.values[j], images),
                    self.program.stages()[j].out_shape.as_slice(),
                ),
            };
            let out_range = slot_range(self.arena.values[i], images);
            let out_bytes = ((out_range.end - out_range.start) * std::mem::size_of::<f32>()) as u64;
            let started = Instant::now();
            let t_stage = trace::start();
            match op {
                PlannedOp::Conv {
                    weight,
                    bias,
                    cfg,
                    relu,
                } => {
                    let (out, reads) = stage_views(arena, out_range, &[in_range]);
                    conv2d_into(
                        reads[0],
                        (images, in_shape[0], in_shape[1], in_shape[2]),
                        weight,
                        bias.as_ref(),
                        *cfg,
                        *relu,
                        out,
                    )
                    .map_err(epim_pim::PimError::Tensor)?;
                }
                PlannedOp::Epitome { dp, relu } => {
                    let (out, reads) = stage_views(arena, out_range, &[in_range]);
                    let s = dp.execute_stacked_into(
                        reads[0],
                        images,
                        in_shape[1],
                        in_shape[2],
                        *relu,
                        out,
                    )?;
                    stats.accumulate(&s);
                }
                PlannedOp::Relu => {
                    let (out, reads) = stage_views(arena, out_range, &[in_range]);
                    relu_slice(reads[0], out);
                }
                PlannedOp::MaxPool(cfg) => {
                    let (out, reads) = stage_views(arena, out_range, &[in_range]);
                    max_pool2d_into(
                        reads[0],
                        (images, in_shape[0], in_shape[1], in_shape[2]),
                        *cfg,
                        out,
                    )
                    .map_err(epim_pim::PimError::Tensor)?;
                }
                PlannedOp::GlobalAvgPool => {
                    let (out, reads) = stage_views(arena, out_range, &[in_range]);
                    global_avg_pool_into(
                        reads[0],
                        (images, in_shape[0], in_shape[1], in_shape[2]),
                        out,
                    )
                    .map_err(epim_pim::PimError::Tensor)?;
                }
                PlannedOp::Linear { weight, bias, relu } => {
                    // Per-request GEMMs: the row dimension of this product
                    // is the batch itself, so folding requests together
                    // would change each row's kernel path. Request-sized
                    // row blocks run the exact calls `ops::linear` makes —
                    // bit-identical to per-request reference execution —
                    // reading and writing the arena in place.
                    let feats: usize = in_shape.iter().product();
                    let out_f = weight.shape()[0];
                    if feats != weight.shape()[1] {
                        return Err(RuntimeError::config(format!(
                            "classifier expects {} features, got {feats}",
                            weight.shape()[1]
                        )));
                    }
                    let (out, reads) = stage_views(arena, out_range, &[in_range]);
                    for g in 0..inputs.len() {
                        let rows = &reads[0][g * n_per * feats..(g + 1) * n_per * feats];
                        let dst = &mut out[g * n_per * out_f..(g + 1) * n_per * out_f];
                        match (bias, relu) {
                            (Some(b), false) => gemm::gemm_nt_bias_col(
                                n_per,
                                out_f,
                                feats,
                                rows,
                                weight.data(),
                                b.data(),
                                dst,
                            ),
                            (Some(b), true) => gemm::gemm_nt_bias_col_relu(
                                n_per,
                                out_f,
                                feats,
                                rows,
                                weight.data(),
                                b.data(),
                                dst,
                            ),
                            (None, false) => {
                                gemm::gemm_nt(n_per, out_f, feats, rows, weight.data(), dst)
                            }
                            (None, true) => {
                                gemm::gemm_nt_relu(n_per, out_f, feats, rows, weight.data(), dst)
                            }
                        }
                    }
                }
                PlannedOp::Add { with, relu } => {
                    let other = slot_range(self.arena.values[*with], images);
                    let (out, reads) = stage_views(arena, out_range, &[in_range, other]);
                    if *relu {
                        add_relu_slice(reads[0], reads[1], out);
                    } else {
                        add_slice(reads[0], reads[1], out);
                    }
                }
            }
            stage_ns[i] = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            trace::span(
                trace::SpanKind::Stage,
                tenant,
                i as u32,
                t_stage,
                trace::pack_stage_payload(op.trace_kind(), images as u64),
                out_bytes,
            );
        }

        // Split the final stage's slot back into per-request tensors.
        let last = self.program.stages().len() - 1;
        let out_slot = &arena[slot_range(self.arena.values[last], images)];
        let mut req_shape = vec![n_per];
        req_shape.extend_from_slice(&self.program.stages()[last].out_shape);
        let req_len = out_slot.len() / inputs.len();
        let outs = (0..inputs.len())
            .map(|g| {
                Tensor::from_vec(
                    out_slot[g * req_len..(g + 1) * req_len].to_vec(),
                    &req_shape,
                )
                .expect("request shape matches slice")
            })
            .collect();

        self.return_arena(arena_buf);
        Ok((outs, stats, stage_ns))
    }
}

/// The arena range of `slot` scaled to a group of `images` images
/// (uniform scaling preserves the plan's disjointness).
fn slot_range(slot: ArenaSlot, images: usize) -> Range<usize> {
    slot.offset * images..(slot.offset + slot.len) * images
}

/// True when two ranges share no index.
fn ranges_disjoint(a: &Range<usize>, b: &Range<usize>) -> bool {
    a.end <= b.start || b.end <= a.start
}

/// Views into disjoint ranges of one arena: the stage's mutable output and
/// its shared read slices.
///
/// Reads may overlap each other (a residual add reading one producer
/// twice) but never the output; the [`ArenaPlan`] guarantees this by
/// construction — live slots never share memory, and a stage's inputs
/// are live while it writes its output. The assertions turn a planner
/// bug into a loud panic instead of silent data corruption.
fn stage_views<'a>(
    arena: &'a mut [f32],
    out: Range<usize>,
    reads: &[Range<usize>],
) -> (&'a mut [f32], Vec<&'a [f32]>) {
    let len = arena.len();
    let in_bounds = |r: &Range<usize>| r.start <= r.end && r.end <= len;
    assert!(in_bounds(&out), "output slot in bounds");
    for r in reads {
        assert!(in_bounds(r), "read slot in bounds");
        assert!(ranges_disjoint(r, &out), "reads and output disjoint");
    }
    let ptr = arena.as_mut_ptr();
    // SAFETY: all ranges are in bounds of `arena`, and the mutable range
    // is disjoint from every read range (asserted above), so the `&mut`
    // aliases no other returned reference; read views alias only each
    // other, as shared `&` may.
    unsafe {
        let o = std::slice::from_raw_parts_mut(ptr.add(out.start), out.end - out.start);
        let rs = reads
            .iter()
            .map(|r| std::slice::from_raw_parts(ptr.add(r.start).cast_const(), r.end - r.start))
            .collect();
        (o, rs)
    }
}

/// Adapter: a shared network plan as a scheduler executor.
pub(crate) struct PlanExecutor {
    pub(crate) plan: Arc<NetworkPlan>,
}

impl GroupExecutor for PlanExecutor {
    fn execute_batch(
        &self,
        tenant: u32,
        inputs: &[&Tensor],
    ) -> Result<(Vec<Tensor>, DataPathStats, Vec<u64>), RuntimeError> {
        self.plan.run(inputs, tenant)
    }

    fn execute_one(
        &self,
        tenant: u32,
        input: &Tensor,
    ) -> Result<(Tensor, DataPathStats), RuntimeError> {
        let (mut outs, stats, _) = self.plan.run(&[input], tenant)?;
        Ok((outs.pop().expect("one output"), stats))
    }

    fn stage_meta(&self) -> Vec<StageMeta> {
        self.plan.stage_meta()
    }
}

/// A serving engine for a whole epitome-compressed network: one submission
/// queue, shape-grouped micro-batching, and pipelined execution of the
/// compiled [`NetworkPlan`] — built on the same scheduler core as the
/// single-layer [`crate::Engine`].
///
/// # Example
///
/// ```no_run
/// use epim_models::lower::NetworkWeights;
/// use epim_models::network::Network;
/// use epim_models::resnet::resnet50;
/// use epim_pim::datapath::AnalogModel;
/// use epim_runtime::{EngineConfig, NetworkEngine, PlanCache};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = Network::baseline(resnet50());
/// let weights = NetworkWeights::random(&net, 1)?;
/// let cache = PlanCache::new();
/// cache.warm_network(&net)?; // compile every epitome plan up front
/// let engine = NetworkEngine::new(
///     &cache, &net, &weights, (224, 224), true, AnalogModel::ideal(),
///     EngineConfig::default(),
/// )?;
/// # Ok(())
/// # }
/// ```
pub struct NetworkEngine {
    scheduler: Scheduler<PlanExecutor>,
    cache: PlanCache,
    /// The group size the arena metrics are reported for.
    max_batch: usize,
}

impl NetworkEngine {
    /// Compiles `network` (see [`NetworkPlan::compile`]; the graph-fusion
    /// pass runs unless [`EngineConfig::optimize_program`] is cleared)
    /// and spawns the serving scheduler. The engine keeps a handle to
    /// `cache` and reports its counters in [`RuntimeStats::plan_cache`].
    ///
    /// # Errors
    ///
    /// Propagates compilation errors and rejects an invalid
    /// [`EngineConfig`].
    pub fn new(
        cache: &PlanCache,
        network: &Network,
        weights: &NetworkWeights,
        input_hw: (usize, usize),
        wrapping_enabled: bool,
        analog: AnalogModel,
        config: EngineConfig,
    ) -> Result<Self, RuntimeError> {
        let plan = Arc::new(NetworkPlan::compile(
            cache,
            network,
            weights,
            input_hw,
            wrapping_enabled,
            analog,
            config.optimize_program,
        )?);
        Self::from_plan(plan, cache, config)
    }

    /// Spawns a serving engine around an already-compiled (possibly
    /// shared) plan.
    ///
    /// # Errors
    ///
    /// Rejects an invalid [`EngineConfig`].
    pub fn from_plan(
        plan: Arc<NetworkPlan>,
        cache: &PlanCache,
        config: EngineConfig,
    ) -> Result<Self, RuntimeError> {
        let max_batch = config.max_batch.max(1);
        plan.warm(max_batch);
        let scheduler = Scheduler::single(PlanExecutor { plan }, config)?;
        Ok(NetworkEngine {
            scheduler,
            cache: cache.clone(),
            max_batch,
        })
    }

    /// The compiled plan this engine serves.
    pub fn plan(&self) -> &Arc<NetworkPlan> {
        &self.scheduler.executor(0).plan
    }

    /// Runs one whole-network inference (input `(N, C, H, W)` matching the
    /// program input shape), blocking until the pipelined execution
    /// completes. Concurrent callers coalesce into stacked groups.
    /// Accepts a bare [`Tensor`] or a tagged [`InferRequest`].
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::ShuttingDown`] during shutdown,
    /// [`RuntimeError::Overloaded`] if the request was shed, or this
    /// request's execution error.
    pub fn infer(&self, req: impl Into<InferRequest>) -> Result<Inference, RuntimeError> {
        self.scheduler.submit_wait(0, req.into())
    }

    /// Submits without ever blocking on queue space (full queue → shed
    /// immediately); the returned [`Pending`] waits for the result. This
    /// is the [`InferService`] surface; a bare [`Tensor`] converts.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Overloaded`] when the queue is full.
    pub fn try_infer(&self, req: impl Into<InferRequest>) -> Result<Pending, RuntimeError> {
        self.scheduler.try_submit(0, req.into())
    }

    /// Submits a burst atomically and waits for all results, in order.
    ///
    /// # Errors
    ///
    /// Per-request errors land in their result slot; a burst larger than
    /// the queue capacity (or submission during shutdown) fails whole.
    #[allow(clippy::type_complexity)]
    pub fn infer_many(
        &self,
        inputs: Vec<Tensor>,
    ) -> Result<Vec<Result<Inference, RuntimeError>>, RuntimeError> {
        self.scheduler.submit_many(0, inputs)
    }

    /// A point-in-time snapshot of the serving statistics (including the
    /// plan cache's counters and the activation-arena footprint at this
    /// engine's `max_batch`).
    pub fn stats(&self) -> RuntimeStats {
        let mut stats = self.scheduler.fleet_stats(self.cache.stats());
        let plan = self.plan();
        stats.arena_bytes = plan.arena_bytes(self.max_batch);
        stats.legacy_pool_bytes = plan.legacy_pool_bytes(self.max_batch);
        stats
    }
}

impl InferService for NetworkEngine {
    fn try_infer(&self, req: InferRequest) -> Result<Pending, RuntimeError> {
        NetworkEngine::try_infer(self, req)
    }

    fn stats(&self) -> RuntimeStats {
        NetworkEngine::stats(self)
    }
}
