//! Whole-network execution: a [`NetworkPlan`] compiled from an
//! `epim_models` [`Network`], served as one tenant of a
//! [`crate::MultiEngine`].
//!
//! The plan is the runtime half of the compile pipeline: `Network::lower`
//! produces the weight-free [`NetworkProgram`],
//! [`NetworkProgram::optimize`] fuses ReLU epilogues and folds identity
//! stages, and [`NetworkPlan::compile`] binds weights to the result,
//! resolves **every epitome stage through the [`PlanCache`]** (one
//! compiled plan per distinct spec, shared across layers, networks and
//! tenants — warming the cache first via [`PlanCache::warm_network`]
//! makes compilation miss-free), and computes the **liveness-planned
//! activation arena** ([`ArenaPlan`]): one static layout assigning every
//! activation an offset in a single allocation, with lifetimes-disjoint
//! activations sharing memory. Steady-state serving leases one whole arena
//! per in-flight group (per sub-batch when the group splits), so no stage
//! allocates; the arena's size is reported in
//! [`crate::RuntimeStats::arena_bytes`].
//!
//! Compilation packs every dense convolution and classifier weight once
//! ([`PackedWeights`], in the layout its products take), so no request
//! repacks a weight and the plan keeps no raw copy beside the packed one.
//!
//! Execution stacks a whole request group into the arena's source slot
//! and streams it through the stages: epitome stages run on the batched
//! data path (weight rows and activations read in place, every image of
//! every request in one pass), dense convolutions run one implicit GEMM
//! over the stacked images with their fused ReLU epilogue, and elementwise
//! stages run the vectorized slice kernels. The result is
//! **bit-identical** to executing each request alone through
//! `NetworkProgram::forward_reference` on the *unoptimized* program —
//! every fused epilogue clamps the exact value the unfused kernel writes,
//! and every stage's per-image arithmetic is independent of the batch
//! around it (the classifier runs one `W · xᵀ` per request, a column per
//! image: whether a GEMM takes the serial small path depends on its
//! column count, so folding requests together could change an element's
//! arithmetic) — with the [`DataPathStats`] rollup equal to the
//! per-request sum.
//!
//! A heavy plan runs a group whose size is a multiple of the pool width as
//! one sub-batch per pool thread instead ([`NetworkPlan::sub_batches`]);
//! per-image results do not depend on the batch around them, so the
//! concatenated outputs and summed stats are the unsplit group's, bit for
//! bit.

use crate::scheduler::GroupExecutor;
use crate::stats::StageMeta;
use crate::{PlanCache, RuntimeError};
use epim_models::lower::{NetworkProgram, NetworkWeights, StageInput, StageOp};
use epim_models::network::Network;
use epim_models::optimize::{ArenaPlan, ArenaSlot};
use epim_obs::trace;
use epim_pim::datapath::{AnalogModel, DataPath, DataPathStats, PARALLEL_OUTPUTS};
use epim_tensor::ops::gemm::{PackedWeights, PARALLEL_FLOPS};
use epim_tensor::ops::{
    add_relu_slice, add_slice, conv2d_packed_into, global_avg_pool_into, linear_packed_into,
    max_pool2d_into, relu_slice, Conv2dCfg, PoolCfg,
};
use epim_tensor::Tensor;
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One executable stage: the program op with its weights bound.
enum PlannedOp {
    Conv {
        /// The `(c_out, c_in·kh·kw)` matrix, packed for the stage's pixels.
        weight: PackedWeights,
        /// `(kh, kw)`.
        kernel: (usize, usize),
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
        /// The `(out, in)` matrix, packed for one column per image.
        weight: PackedWeights,
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

    /// Whether this stage's kernel forks across the pool for one image
    /// whose output is `out_shape`, under the kernel's own threshold: the
    /// implicit GEMM's multiply-adds, or the data path's output elements.
    fn forks_alone(&self, out_shape: &[usize]) -> bool {
        let outputs: usize = out_shape.iter().product();
        match self {
            PlannedOp::Conv { weight, .. } => outputs * weight.k() >= PARALLEL_FLOPS,
            PlannedOp::Epitome { .. } => outputs >= PARALLEL_OUTPUTS,
            _ => false,
        }
    }
}

/// Whole arenas retained across groups per pool thread; beyond this,
/// returns are dropped. A split group leases one arena per pool thread, so
/// this only needs to cover the scheduler's pipeline depth.
const ARENA_RETAIN: usize = 8;

/// The arenas retained between groups.
struct ArenaPool {
    free: Vec<Vec<f32>>,
    /// The largest arena a warmed full group leases (`None` before
    /// [`NetworkPlan::warm`]). A larger one — an odd-sized group of a
    /// splitting plan — is dropped on return, so the retained arenas never
    /// outgrow what a full group needs.
    largest: Option<usize>,
}

/// A whole `Network` compiled for serving: optimized program + bound
/// weights + per-stage data paths + the static activation arena,
/// shareable (behind an [`Arc`]) across tenants.
///
/// # Example
///
/// ```no_run
/// use epim_models::lower::NetworkWeights;
/// use epim_models::network::Network;
/// use epim_models::resnet::resnet50;
/// use epim_pim::datapath::AnalogModel;
/// use epim_runtime::{MultiEngine, NetworkPlan, PlanCache, TenantConfig};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = Network::baseline(resnet50());
/// let weights = NetworkWeights::random(&net, 1)?;
/// let cache = PlanCache::new();
/// cache.warm_network(&net)?; // compile every epitome plan up front
/// // `optimize: false` skips the graph-fusion pass (the unfused side of
/// // an A/B); `MultiEngineBuilder::register` always fuses.
/// let plan = NetworkPlan::compile(
///     &cache, &net, &weights, (224, 224), true, AnalogModel::ideal(), false,
/// )?;
/// let mut builder = MultiEngine::builder(&cache);
/// let unfused = builder.register_plan("r50-unfused", Arc::new(plan), TenantConfig::default())?;
/// let engine = builder.build()?;
/// # let _ = (engine, unfused);
/// # Ok(())
/// # }
/// ```
pub struct NetworkPlan {
    program: NetworkProgram,
    ops: Vec<PlannedOp>,
    arena: ArenaPlan,
    /// Whether some stage forks across the pool for a single image: the
    /// precondition for splitting a group into sub-batches.
    heavy: bool,
    /// Whole activation arenas, one leased per executing (sub-)batch.
    arenas: Mutex<ArenaPool>,
}

impl NetworkPlan {
    /// Lowers `network` for `input_h × input_w` inputs, runs the
    /// graph-fusion pass when `optimize` is set (fused ReLU epilogues,
    /// bit-identity-safe by construction), binds
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
        let program = if optimize { raw.optimize() } else { raw };

        let mut ops = Vec::with_capacity(program.stages().len());
        for stage in program.stages() {
            let op = match &stage.op {
                StageOp::Conv { layer, cfg, relu } => {
                    let (w, b) = weights.dense(*layer, &stage.name)?;
                    if w.rank() != 4 {
                        return Err(RuntimeError::config(format!(
                            "stage {}: conv weight must be rank 4, got {:?}",
                            stage.name,
                            w.shape()
                        )));
                    }
                    let (c_out, kh, kw) = (w.shape()[0], w.shape()[2], w.shape()[3]);
                    let k = w.shape()[1..].iter().product();
                    let pixels = stage.out_shape[1..].iter().product();
                    PlannedOp::Conv {
                        weight: PackedWeights::new(w.data(), c_out, k, pixels),
                        kernel: (kh, kw),
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
                    let k = w.shape()[1..].iter().product();
                    PlannedOp::Linear {
                        weight: PackedWeights::new(w.data(), w.shape()[0], k, 1),
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
        let heavy = ops
            .iter()
            .zip(program.stages())
            .any(|(op, stage)| op.forks_alone(&stage.out_shape));

        Ok(NetworkPlan {
            program,
            ops,
            arena,
            heavy,
            arenas: Mutex::new(ArenaPool {
                free: Vec::new(),
                largest: None,
            }),
        })
    }

    /// The program this plan executes (post-optimization when the plan
    /// was compiled with the pass enabled).
    pub fn program(&self) -> &NetworkProgram {
        &self.program
    }

    /// Peak activation-arena bytes for a group of `images` stacked images.
    pub fn arena_bytes(&self, images: usize) -> u64 {
        (self.arena.total * images * std::mem::size_of::<f32>()) as u64
    }

    /// Pre-allocates exactly the arenas a full group of `images`
    /// single-image requests leases — one per sub-batch when such a group
    /// splits ([`NetworkPlan::sub_batches`]) — so the first served groups
    /// do not pay the allocation, and caps every retained arena at that
    /// sub-batch size. Called at fleet build with each tenant's
    /// `max_batch`.
    pub fn warm(&self, images: usize) {
        let subs = self.sub_batches(images);
        let len = self.arena.total * images / subs;
        {
            let mut pool = self.arenas.lock().expect("arena pool poisoned");
            pool.largest = pool.largest.max(Some(len));
        }
        let leased: Vec<Vec<f32>> = (0..subs).map(|_| self.lease_arena(len)).collect();
        for arena in leased {
            self.return_arena(arena);
        }
    }

    fn lease_arena(&self, len: usize) -> Vec<f32> {
        let mut v = self
            .arenas
            .lock()
            .expect("arena pool poisoned")
            .free
            .pop()
            .unwrap_or_default();
        // Contents may be stale: every op overwrites its whole output slot.
        // Exact growth, so a grown arena still fits the retention cap.
        v.reserve_exact(len.saturating_sub(v.len()));
        v.resize(len, 0.0);
        v
    }

    fn return_arena(&self, v: Vec<f32>) {
        let mut pool = self.arenas.lock().expect("arena pool poisoned");
        let fits = pool.largest.is_none_or(|largest| v.capacity() <= largest);
        if fits && pool.free.len() < ARENA_RETAIN * epim_parallel::num_threads() {
            pool.free.push(v);
        }
    }

    /// How many sub-batches a group of `requests` requests executes as:
    /// the pool width when the plan is heavy (one of its stages forks
    /// across the pool for a single image) and `requests` is a multiple of
    /// a width of at least 2, otherwise 1. Each sub-batch runs the whole
    /// stage loop on its own pool thread with every kernel inline.
    pub fn sub_batches(&self, requests: usize) -> usize {
        let width = epim_parallel::num_threads();
        if self.heavy && width >= 2 && requests >= width && requests.is_multiple_of(width) {
            width
        } else {
            1
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
    /// each stage's time (nanoseconds, index-aligned with
    /// [`NetworkPlan::stage_meta`]; busy time summed over the sub-batches
    /// when the group splits) and tags the per-stage trace spans with
    /// `tenant` ([`trace::TENANT_NONE`] for direct calls).
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
        let subs = self.sub_batches(inputs.len());
        if subs == 1 {
            return self.run_stages(inputs, tenant);
        }
        // Kernels inside a sub-batch find the pool busy with this region
        // and run inline on the sub-batch's thread.
        let mut parts: Vec<&[&Tensor]> = inputs.chunks(inputs.len() / subs).collect();
        let results = epim_parallel::map_chunks_mut(&mut parts, 1, |_, part| {
            self.run_stages(part[0], tenant)
        });
        let mut outs = Vec::with_capacity(inputs.len());
        let mut stats = DataPathStats::default();
        let mut stage_ns = vec![0u64; self.ops.len()];
        for result in results {
            let (part_outs, part_stats, part_ns) = result?;
            outs.extend(part_outs);
            stats.accumulate(&part_stats);
            for (total, ns) in stage_ns.iter_mut().zip(part_ns) {
                *total += ns;
            }
        }
        Ok((outs, stats, stage_ns))
    }

    /// Streams a validated, shape-uniform group through every stage on one
    /// leased arena.
    fn run_stages(
        &self,
        inputs: &[&Tensor],
        tenant: u32,
    ) -> Result<(Vec<Tensor>, DataPathStats, Vec<u64>), RuntimeError> {
        let first = inputs[0];
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
            // of deadline shedding and batch-window behavior). It fires
            // once per stage of each executed sub-batch. Disabled (the
            // default) this is one relaxed atomic load.
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
                    kernel,
                    bias,
                    cfg,
                    relu,
                } => {
                    let (out, reads) = stage_views(arena, out_range, &[in_range]);
                    conv2d_packed_into(
                        reads[0],
                        (images, in_shape[0], in_shape[1], in_shape[2]),
                        weight,
                        *kernel,
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
                    // One product per request, `W · xᵀ` with a column per
                    // image: the small-path choice depends on the column
                    // count, so folding requests together could change an
                    // element's arithmetic.
                    let feats: usize = in_shape.iter().product();
                    let out_f = weight.m();
                    let (out, reads) = stage_views(arena, out_range, &[in_range]);
                    for g in 0..inputs.len() {
                        let rows = &reads[0][g * n_per * feats..(g + 1) * n_per * feats];
                        let dst = &mut out[g * n_per * out_f..(g + 1) * n_per * out_f];
                        linear_packed_into(rows, n_per, weight, bias.as_ref(), *relu, dst)
                            .map_err(epim_pim::PimError::Tensor)?;
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
            // The span carries this (sub-)batch's own image count.
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

    fn stage_meta(&self) -> Vec<StageMeta> {
        self.plan.stage_meta()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MultiEngine, TenantConfig};
    use epim_core::{ConvShape, Epitome, EpitomeShape, EpitomeSpec};
    use epim_models::zoo;
    use epim_tensor::{init, rng};
    use std::time::Duration;

    fn retained_bytes(plan: &NetworkPlan) -> u64 {
        let pool = plan.arenas.lock().unwrap();
        let floats: usize = pool.free.iter().map(Vec::capacity).sum();
        (floats * std::mem::size_of::<f32>()) as u64
    }

    /// Serving split groups retains exactly the arenas a full group
    /// leases, one per sub-batch, and an odd-sized group never leaves a
    /// larger arena behind. The plan is one epitome layer, heavy (its
    /// stage forks across the pool for one image) and with enough work
    /// per sub-batch that every pool thread claims one before the first
    /// finishes, at a width of 4 on two cores too.
    #[test]
    fn split_groups_retain_exactly_a_full_groups_arenas() {
        let spec = EpitomeSpec::new(
            ConvShape::new(64, 64, 3, 3),
            EpitomeShape::new(32, 32, 2, 2),
        )
        .unwrap();
        let data = init::uniform(&[32, 32, 2, 2], -1.0, 1.0, &mut rng::seeded(5));
        let epitome = Epitome::from_tensor(spec, data).unwrap();
        let hw = 64;
        let (net, weights) = zoo::epitome_layer(&epitome, hw).unwrap();
        let max_batch = 2 * epim_parallel::num_threads();
        let config = TenantConfig {
            max_batch,
            batch_window: Duration::ZERO,
            ..TenantConfig::default()
        };
        let mut builder = MultiEngine::builder(&PlanCache::new());
        let id = builder
            .register(
                "layer",
                &net,
                &weights,
                (hw, hw),
                true,
                AnalogModel::ideal(),
                config,
            )
            .unwrap();
        let engine = builder.build().unwrap();
        let plan = engine.plan(id).unwrap();
        assert!(plan.heavy, "a stage of {} outputs forks", 64 * hw * hw);
        let full = plan.arena_bytes(max_batch);
        assert_eq!(
            retained_bytes(plan),
            full,
            "warm leases a full group's arenas"
        );
        let mut r = rng::seeded(6);
        for group in (1..=max_batch).chain([max_batch, max_batch]) {
            let burst = (0..group)
                .map(|_| init::uniform(&[1, 64, hw, hw], -1.0, 1.0, &mut r))
                .collect();
            for result in engine.infer_many(id, burst).unwrap() {
                assert_eq!(result.unwrap().batch_size, group);
            }
            assert!(retained_bytes(plan) <= full, "after a group of {group}");
        }
        assert_eq!(retained_bytes(plan), full);
    }
}
