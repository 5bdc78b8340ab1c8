//! The EPIM data path, executed functionally (paper §4.3, Figure 2b).
//!
//! The epitome breaks a convolution into many small kernels; to run it on
//! crossbars the accelerator must know, for every activation round, which
//! buffered inputs drive which word lines and where the bit-line outputs
//! land in the output feature map. The paper adds three index tables:
//!
//! - **IFAT** (Input Feature Address Table): start/stop index pairs
//!   locating the input-feature elements needed by the current round. One
//!   entry per activation round.
//! - **IFRT** (Input Feature Row Table): for each crossbar word line,
//!   which gathered input element drives it this round (or none — those
//!   word lines are held at zero volts). One sequence per sampled patch,
//!   each as long as the crossbar row count.
//! - **OFAT** (Output Feature Address Table): start/stop pairs locating
//!   each round's partial result in the output feature vector. The joint
//!   module adds partials with identical ranges and concatenates
//!   sequential ones.
//!
//! [`CompiledPlan`] compiles the three tables into one list per round:
//! the word lines the round drives, each paired with the receptive-field
//! element that drives it (IFAT ∘ IFRT), plus the round's output range
//! (OFAT). [`DataPath`] runs a layer through these rounds with one
//! executor. [`DataPath::execute`] (one tensor), [`DataPath::execute_batch`]
//! (several equal-shaped tensors) and [`DataPath::execute_stacked_into`] (a
//! stacked slice, the serving path) are thin entry points over it, so a
//! request's output bits and [`DataPathStats`] do not depend on which entry
//! served it or what shared its batch. The seed's per-pixel walk over the
//! tables themselves lives in `crates/pim/tests/oracle`, the oracle the
//! executor is tested against bit for bit. Against a plain convolution
//! with [`epim_core::Epitome::reconstruct`]'s weight the output agrees to
//! float tolerance (the sums run in a different order).

use crate::mvm::{crossbar_mvm, CrossbarRound, MVM_TB};
use crate::quantize::quantize_slice;
use crate::PimError;
use epim_core::{wrapping_factor, ChannelWrapping, Epitome, EpitomeSpec};
use epim_obs::trace;
use epim_simd::{dispatch, ScalarSimd, Simd, SimdOp};
use epim_tensor::ops::{conv2d_out_dims, Conv2dCfg};
use epim_tensor::{rng, Tensor};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::Arc;

/// A batched call whose output holds fewer elements than this computes its
/// pixel tiles on the calling thread, never on the pool.
pub const PARALLEL_OUTPUTS: usize = 1 << 14;

/// Analog non-idealities applied by the functional data path.
///
/// Models the two dominant error sources of real memristor crossbars:
/// **conductance programming noise** (each stored weight is perturbed once,
/// multiplicatively, when the epitome is written to the array) and
/// **finite ADC precision** (each bit-line partial sum is quantized to
/// `adc_bits` before the joint module).
///
/// # Example
///
/// ```
/// use epim_pim::datapath::AnalogModel;
///
/// let ideal = AnalogModel::ideal();
/// assert!(!ideal.is_noisy());
/// let noisy = AnalogModel { weight_noise_std: 0.02, adc_bits: Some(8), ..AnalogModel::ideal() };
/// assert!(noisy.is_noisy());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnalogModel {
    /// Relative (multiplicative) Gaussian std of programmed conductances.
    /// `0.0` disables programming noise.
    pub weight_noise_std: f32,
    /// ADC resolution in bits; `None` models an ideal readout.
    pub adc_bits: Option<u8>,
    /// DAC (input word-line driver) resolution in bits; `None` models an
    /// ideal driver. This is the activation precision of the paper's
    /// `A9` columns, applied functionally.
    pub dac_bits: Option<u8>,
    /// Full-scale input magnitude the DAC can drive; inputs beyond it
    /// clip.
    pub input_full_scale: f32,
    /// Seed for the programming-noise draw (deterministic per data path).
    pub noise_seed: u64,
}

impl AnalogModel {
    /// The ideal (noise-free, infinite-precision) model.
    pub fn ideal() -> Self {
        AnalogModel {
            weight_noise_std: 0.0,
            adc_bits: None,
            dac_bits: None,
            input_full_scale: 1.0,
            noise_seed: 0,
        }
    }

    /// Whether any non-ideality is active.
    pub fn is_noisy(&self) -> bool {
        self.weight_noise_std > 0.0 || self.adc_bits.is_some() || self.dac_bits.is_some()
    }
}

impl Default for AnalogModel {
    fn default() -> Self {
        AnalogModel::ideal()
    }
}

/// Statistics accumulated by a functional execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataPathStats {
    /// Crossbar activation rounds executed.
    pub rounds: u64,
    /// Word lines driven (non-grounded) across all rounds.
    pub word_line_activations: u64,
    /// Bit lines sensed across all rounds.
    pub bit_line_activations: u64,
    /// Output-buffer element writes (partial results).
    pub buffer_writes: u64,
    /// Input-buffer element reads.
    pub buffer_reads: u64,
    /// Joint-module additions.
    pub joint_adds: u64,
    /// Index-table lookups (IFAT + IFRT + OFAT).
    pub table_lookups: u64,
    /// Output elements produced by wrapping replication instead of compute.
    pub wrapped_elements: u64,
}

impl DataPathStats {
    /// Adds another stats block into this one (used to roll up the
    /// counters of several layers or requests; all fields are plain sums).
    pub fn accumulate(&mut self, other: &DataPathStats) {
        self.rounds += other.rounds;
        self.word_line_activations += other.word_line_activations;
        self.bit_line_activations += other.bit_line_activations;
        self.buffer_writes += other.buffer_writes;
        self.buffer_reads += other.buffer_reads;
        self.joint_adds += other.joint_adds;
        self.table_lookups += other.table_lookups;
        self.wrapped_elements += other.wrapped_elements;
    }
}

/// One activation round, precompiled for execution: the IFAT gather, IFRT
/// placement and OFAT routing composed into a flat word-line list.
///
/// `active[k] = (word_line, receptive_index)`: driving `word_line` with the
/// `receptive_index`-th element of the flattened receptive field reproduces
/// exactly the seed's gather-then-place pipeline, without materializing the
/// intermediate gather buffer each round.
#[derive(Debug, Clone)]
struct Round {
    active: Vec<(usize, usize)>,
    /// Number of IFAT index pairs this round consumes (stats bookkeeping).
    ifat_pairs: u64,
    /// Destination range among the output channels (the OFAT entry).
    range: Range<usize>,
    src_col_start: usize,
}

/// The per-round word-line lists for one epitome spec, compiled once and
/// shared.
///
/// Everything here derives from the sampling plan alone — it depends on
/// neither the epitome's tensor values nor the analog model — so a serving
/// runtime can compile a spec's plan once and share it (behind an [`Arc`])
/// across every [`DataPath`] programmed for that spec. This is the artifact
/// `epim-runtime`'s plan cache memoizes.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    spec: EpitomeSpec,
    rounds: Vec<Round>,
}

impl CompiledPlan {
    /// Compiles the per-round word-line lists for `spec`: one round per
    /// sampled patch, with the IFAT/IFRT/OFAT tables of paper §4.3
    /// composed into it.
    ///
    /// # Errors
    ///
    /// Returns [`PimError`] if the spec's sampling plan fails verification.
    pub fn compile(spec: &EpitomeSpec) -> Result<Self, PimError> {
        spec.plan().verify()?;
        let conv = spec.conv();
        let eshape = spec.shape();
        let rounds = spec
            .plan()
            .patches()
            .iter()
            .map(|patch| {
                // Word line of epitome element (ci_e, y_e, x_e) is
                // (ci_e * h + y_e) * w + x_e; the receptive-field index of
                // conv element (ci, ky, kx) is (ci * kh + ky) * kw + kx. The
                // IFAT holds one contiguous run over kx per (ci, ky).
                let mut active = Vec::with_capacity(patch.size[1] * patch.size[2] * patch.size[3]);
                for ci in 0..patch.size[1] {
                    for ky in 0..patch.size[2] {
                        for kx in 0..patch.size[3] {
                            let wl = ((patch.src[1] + ci) * eshape.h + (patch.src[2] + ky))
                                * eshape.w
                                + (patch.src[3] + kx);
                            let rf = ((patch.dst[1] + ci) * conv.kh + (patch.dst[2] + ky))
                                * conv.kw
                                + (patch.dst[3] + kx);
                            active.push((wl, rf));
                        }
                    }
                }
                Round {
                    active,
                    ifat_pairs: (patch.size[1] * patch.size[2]) as u64,
                    range: patch.dst[0]..patch.dst[0] + patch.size[0],
                    src_col_start: patch.src[0],
                }
            })
            .collect();
        Ok(CompiledPlan {
            spec: spec.clone(),
            rounds,
        })
    }

    /// The spec this plan was compiled for.
    pub fn spec(&self) -> &EpitomeSpec {
        &self.spec
    }

    /// Activation rounds per output pixel.
    pub fn rounds_per_pixel(&self) -> usize {
        self.rounds.len()
    }
}

/// The functional EPIM data path for one layer.
#[derive(Debug, Clone)]
pub struct DataPath {
    /// Per-round word-line lists, shareable across data paths for the
    /// same spec.
    plan: Arc<CompiledPlan>,
    conv_cfg: Conv2dCfg,
    /// Epitome flattened to `(rows_e, cout_e)` matrix form, with
    /// programming noise already applied.
    matrix: Tensor,
    wrapping: ChannelWrapping,
    wrapping_enabled: bool,
    analog: AnalogModel,
    /// ADC full scale, one value for the whole array: the largest column
    /// L1 norm, i.e. the largest partial sum any bit line can produce for
    /// inputs in `[-1, 1]`.
    adc_full_scale: f32,
}

impl DataPath {
    /// Builds the data path (compiled plan + crossbar matrix) for an
    /// epitome layer with ideal analog behavior.
    ///
    /// # Errors
    ///
    /// Returns [`PimError`] if the epitome's plan fails verification.
    pub fn new(
        epitome: &Epitome,
        conv_cfg: Conv2dCfg,
        wrapping_enabled: bool,
    ) -> Result<Self, PimError> {
        Self::with_analog(epitome, conv_cfg, wrapping_enabled, AnalogModel::ideal())
    }

    /// Builds the data path with an explicit analog non-ideality model,
    /// compiling the plan from scratch.
    ///
    /// # Errors
    ///
    /// Returns [`PimError`] if the epitome's plan fails verification or
    /// the noise parameters are invalid (negative std, zero ADC bits).
    pub fn with_analog(
        epitome: &Epitome,
        conv_cfg: Conv2dCfg,
        wrapping_enabled: bool,
        analog: AnalogModel,
    ) -> Result<Self, PimError> {
        let plan = Arc::new(CompiledPlan::compile(epitome.spec())?);
        Self::with_plan(plan, epitome, conv_cfg, wrapping_enabled, analog)
    }

    /// Builds the data path around an already-compiled plan (e.g. from
    /// `epim-runtime`'s plan cache), only programming the crossbar matrix.
    ///
    /// # Errors
    ///
    /// Returns [`PimError`] if the plan was compiled for a different spec
    /// than the epitome's, or the analog parameters are invalid.
    pub fn with_plan(
        plan: Arc<CompiledPlan>,
        epitome: &Epitome,
        conv_cfg: Conv2dCfg,
        wrapping_enabled: bool,
        analog: AnalogModel,
    ) -> Result<Self, PimError> {
        if !analog.weight_noise_std.is_finite() || analog.weight_noise_std < 0.0 {
            return Err(PimError::config("weight_noise_std must be finite and >= 0"));
        }
        if analog.adc_bits == Some(0) || analog.dac_bits == Some(0) {
            return Err(PimError::config("adc_bits/dac_bits must be nonzero"));
        }
        if !analog.input_full_scale.is_finite() || analog.input_full_scale <= 0.0 {
            return Err(PimError::config(
                "input_full_scale must be finite and positive",
            ));
        }
        if plan.spec() != epitome.spec() {
            return Err(PimError::config(
                "compiled plan belongs to a different epitome spec",
            ));
        }
        let spec = &plan.spec;
        let eshape = spec.shape();
        let rows_e = eshape.matrix_rows();

        // Flatten the epitome to matrix form (rows = cin_e*h*w, cols =
        // cout_e): row-major over (ci, y, x), applying multiplicative
        // programming noise as the cells are "written". Noise draws follow
        // the seed's (co, ci, y, x) write order so seeds stay comparable.
        let data = epitome.tensor().data();
        let mut noise_rng = rng::seeded(analog.noise_seed);
        let mut matrix = Tensor::zeros(&[rows_e, eshape.cout]);
        {
            let md = matrix.data_mut();
            let cout_e = eshape.cout;
            for (co_flat, &raw) in data.iter().enumerate() {
                // `data` is row-major (co, ci, y, x); the matrix row index
                // is the (ci, y, x) remainder.
                let co = co_flat / (eshape.cin * eshape.h * eshape.w);
                let row = co_flat % (eshape.cin * eshape.h * eshape.w);
                let mut v = raw;
                if analog.weight_noise_std > 0.0 {
                    v *= 1.0 + rng::normal(&mut noise_rng, 0.0, analog.weight_noise_std);
                }
                md[row * cout_e + co] = v;
            }
        }

        // ADC full scale: the worst-case column dot product for inputs in
        // [-1, 1] is the column's L1 norm.
        let mut col_l1 = vec![0.0f32; eshape.cout];
        for row in matrix.data().chunks(eshape.cout) {
            for (l1, &v) in col_l1.iter_mut().zip(row) {
                *l1 += v.abs();
            }
        }
        let adc_full_scale = col_l1
            .iter()
            .fold(0.0f32, |m, &x| m.max(x))
            .max(f32::MIN_POSITIVE);

        let wrapping = wrapping_factor(spec.plan());
        Ok(DataPath {
            plan,
            conv_cfg,
            matrix,
            wrapping,
            wrapping_enabled,
            analog,
            adc_full_scale,
        })
    }

    /// The analog non-ideality model in effect.
    pub fn analog(&self) -> AnalogModel {
        self.analog
    }

    /// The layer's epitome spec.
    pub fn spec(&self) -> &EpitomeSpec {
        &self.plan.spec
    }

    /// The compiled plan this data path executes (shareable via
    /// [`DataPath::with_plan`]).
    pub fn compiled_plan(&self) -> &Arc<CompiledPlan> {
        &self.plan
    }

    /// Executes the layer on an input feature map `(N, C_in, H, W)`,
    /// returning the output `(N, C_out, OH, OW)` and execution statistics.
    ///
    /// Every output pixel walks the activation rounds as the hardware
    /// would: each round drives its word lines with the receptive-field
    /// elements the IFAT and IFRT select, the (emulated, analog) crossbar
    /// MVM runs over the active lines, and partial sums are routed to the
    /// round's OFAT range through the joint module. With
    /// wrapping enabled, rounds whose output-channel block is not the first
    /// are skipped and their outputs replicated (Eq. 9). This is a batch of
    /// one on the executor [`DataPath::execute_batch`] describes.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::GeometryMismatch`] if the input does not match
    /// the layer's input-channel count or the convolution geometry is
    /// invalid for the input size.
    pub fn execute(&self, input: &Tensor) -> Result<(Tensor, DataPathStats), PimError> {
        let (n, h, w, oh, ow) = self.check_input(input)?;
        let mut out = Tensor::zeros(&[n, self.plan.spec.conv().cout, oh, ow]);
        let stats =
            self.execute_batch_core(&[input.data()], n, h, w, false, &mut [out.data_mut()])?;
        Ok((out, stats))
    }

    /// Executes the layer on a batch of equal-shaped inputs at once,
    /// returning one output per input plus the summed statistics.
    ///
    /// This is the data path's one executor: [`DataPath::execute`] and
    /// [`DataPath::execute_stacked_into`] run it on a batch of one. Each
    /// output is bit-identical to the seed's per-pixel table walk (the
    /// oracle in `crates/pim/tests/oracle`) on its input, whatever else
    /// shares the batch, and the stats are the sum of the per-input oracle
    /// stats. The speed comes from restructuring the walk, not from
    /// reassociating any floating-point arithmetic (each bit line is one
    /// chain of fused multiply-adds in word-line order, as in the oracle):
    ///
    /// - the whole batch is staged once as the on-chip input buffer would
    ///   hold it — zero-padded, with one finite-DAC sweep over it; the
    ///   reference re-quantizes an element for every round that reads it —
    ///   and every pixel reads its receptive field out of that buffer in
    ///   place, so no im2col matrix is built;
    /// - each round is one [`crossbar_mvm`] over a tile of pixels drawn
    ///   from the whole batch: weight rows are read in place through the
    ///   round's word-line list, every weight row is shared by `MVM_TB`
    ///   pixels, and every round runs on the host's widest vector ISA;
    /// - round metadata (word-line lists, OFAT routing) is walked once per
    ///   tile instead of once per pixel, the counters are computed as
    ///   products, and wrapped channels are replicated by the final
    ///   (vectorized) scatter instead of being staged.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::GeometryMismatch`] if the inputs' shapes differ
    /// from one another (callers batching mixed traffic should group by
    /// shape, as `epim-runtime`'s micro-batcher does) or fail the usual
    /// geometry checks.
    pub fn execute_batch(
        &self,
        inputs: &[&Tensor],
    ) -> Result<(Vec<Tensor>, DataPathStats), PimError> {
        let Some(first) = inputs.first() else {
            return Ok((Vec::new(), DataPathStats::default()));
        };
        if let Some(bad) = inputs.iter().find(|t| t.shape() != first.shape()) {
            return Err(PimError::geometry(format!(
                "execute_batch requires identical input shapes, got {:?} and {:?}",
                first.shape(),
                bad.shape()
            )));
        }
        let (n, h, w, oh, ow) = self.check_input(first)?;
        let shape = [n, self.plan.spec.conv().cout, oh, ow];
        let mut outs: Vec<Tensor> = inputs.iter().map(|_| Tensor::zeros(&shape)).collect();
        let xs: Vec<&[f32]> = inputs.iter().map(|t| t.data()).collect();
        let mut ys: Vec<&mut [f32]> = outs.iter_mut().map(Tensor::data_mut).collect();
        let stats = self.execute_batch_core(&xs, n, h, w, false, &mut ys)?;
        Ok((outs, stats))
    }

    /// Executes the layer on one stacked `(n, c_in, h, w)` NCHW image block
    /// held in a plain slice, writing the `(n, c_out, oh, ow)` result into
    /// `out` — the arena-backed serving path's entry point. With `relu`
    /// set, each output element is clamped to `max(v, 0.0)` as it is
    /// scattered, bit-identical to `ops::relu` over the unfused output;
    /// the returned [`DataPathStats`] are unaffected by the fusion.
    ///
    /// # Errors
    ///
    /// Same geometry contract as [`DataPath::execute_batch`], plus slice
    /// length checks.
    pub fn execute_stacked_into(
        &self,
        xd: &[f32],
        n: usize,
        h: usize,
        w: usize,
        relu: bool,
        out: &mut [f32],
    ) -> Result<DataPathStats, PimError> {
        let mut outs = [out];
        self.execute_batch_core(&[xd], n, h, w, relu, &mut outs)
    }

    /// The executor behind [`DataPath::execute`],
    /// [`DataPath::execute_batch`] and [`DataPath::execute_stacked_into`]:
    /// every input is an `(n, c_in, h, w)` NCHW block and every output
    /// slice receives the matching `(n, c_out, oh, ow)` block.
    fn execute_batch_core(
        &self,
        inputs: &[&[f32]],
        n: usize,
        h: usize,
        w: usize,
        relu: bool,
        outs: &mut [&mut [f32]],
    ) -> Result<DataPathStats, PimError> {
        let conv = self.plan.spec.conv();
        let (oh, ow) = self.check_dims(conv.cin, h, w)?;
        if outs.len() != inputs.len() {
            return Err(PimError::geometry(format!(
                "execute_batch_core: {} inputs but {} outputs",
                inputs.len(),
                outs.len()
            )));
        }
        if inputs.iter().any(|x| x.len() < n * conv.cin * h * w) {
            return Err(PimError::geometry("input slice too short".to_string()));
        }
        if outs.iter().any(|o| o.len() < n * conv.cout * oh * ow) {
            return Err(PimError::geometry("output slice too short".to_string()));
        }
        if inputs.is_empty() {
            return Ok(DataPathStats::default());
        }
        let cout = conv.cout;
        let cout_e = self.plan.spec.shape().cout;
        let wrap_on = self.wrapping_enabled && self.wrapping.is_effective();
        // With wrapping on only channel block 0 is computed and staged; the
        // scatter replicates it into the other blocks (Eq. 9).
        let cw = if wrap_on { self.wrapping.block } else { cout };
        let cfg = self.conv_cfg;
        let pixels = oh * ow;
        let images = inputs.len() * n;
        let rows = images * pixels;
        let word_lines = self.plan.spec.shape().matrix_rows() as u64;
        let adc = self.adc_params();
        let md = self.matrix.data();
        let rounds: Vec<&Round> = self
            .plan
            .rounds
            .iter()
            .filter(|round| !wrap_on || round.range.start == 0)
            .collect();

        // Every pixel walks the same rounds, so the counters are products.
        let mut stats = DataPathStats::default();
        let tr = rows as u64;
        for round in &rounds {
            let (n_active, width) = (round.active.len() as u64, round.range.len() as u64);
            stats.rounds += tr;
            stats.table_lookups += (round.ifat_pairs + word_lines + 1) * tr;
            stats.buffer_reads += n_active * tr;
            stats.word_line_activations += n_active * tr;
            stats.bit_line_activations += width * tr;
            stats.joint_adds += width * tr;
            stats.buffer_writes += width * tr;
        }
        stats.wrapped_elements = (cout - cw) as u64 * tr;

        // The input buffer: every image plane zero-padded and swept by the
        // DAC once (per-request execution re-quantizes an element for every
        // round that reads it; padding quantizes to itself). Pixels read
        // their receptive fields out of it in place, so no im2col matrix is
        // built: a pixel's window starts at its origin, and receptive index
        // `(ci, ky, kx)` sits at a fixed offset from there.
        let (hp, wp) = (h + 2 * cfg.padding, w + 2 * cfg.padding);
        let dac = self.dac_params();
        let mut staged = vec![0.0f32; images * conv.cin * hp * wp];
        let stage_plane = |plane_idx: usize, plane: &mut [f32]| {
            let (img, ci) = (plane_idx / conv.cin, plane_idx % conv.cin);
            let src = &inputs[img / n][((img % n) * conv.cin + ci) * h * w..][..h * w];
            let padded_rows = plane[cfg.padding * wp..].chunks_mut(wp);
            for (dst, src) in padded_rows.zip(src.chunks(w)) {
                dst[cfg.padding..cfg.padding + w].copy_from_slice(src);
            }
            if let Some((step, limit)) = dac {
                quantize_slice(plane, step, limit);
            }
        };
        let t_stage = trace::start();
        if staged.len() < 1 << 16 {
            for (idx, plane) in staged.chunks_mut(hp * wp).enumerate() {
                stage_plane(idx, plane);
            }
        } else {
            epim_parallel::for_each_chunk_mut(&mut staged, hp * wp, stage_plane);
        }
        if dac.is_some() {
            trace::span(
                trace::SpanKind::DacSweep,
                trace::TENANT_NONE,
                0,
                t_stage,
                staged.len() as u64,
                0,
            );
        }
        let origins: Vec<usize> = (0..rows)
            .map(|row| {
                let (img, oy, ox) = (row / pixels, row / ow % oh, row % ow);
                (img * conv.cin * hp + oy * cfg.stride) * wp + ox * cfg.stride
            })
            .collect();
        let taps: Vec<Vec<(usize, usize)>> = rounds
            .iter()
            .map(|round| {
                let tap = |&(wl, rf): &(usize, usize)| {
                    let (ci, ky, kx) = (
                        rf / (conv.kh * conv.kw),
                        rf / conv.kw % conv.kh,
                        rf % conv.kw,
                    );
                    (wl, (ci * hp + ky) * wp + kx)
                };
                round.active.iter().map(tap).collect()
            })
            .collect();

        // Pixel-major staging buffer for the outputs of the whole batch,
        // processed in row tiles: rows `tile_rows*i..` of `pix` form tile
        // `i`. A tile is whole `MVM_TB` blocks, and small enough that a 7×7
        // layer's 49 rows still give every pool thread one.
        const TILE_ROWS: usize = 10 * MVM_TB;
        let tile_rows = rows
            .div_ceil(epim_parallel::num_threads())
            .next_multiple_of(MVM_TB)
            .clamp(MVM_TB, TILE_ROWS);
        let mut pix = vec![0.0f32; rows * cw];

        let process_tile = |tile_idx: usize, chunk: &mut [f32]| {
            let t_rows = chunk.len() / cw;
            let origins = &origins[tile_idx * tile_rows..][..t_rows];
            let mut accs = vec![0.0f32; t_rows * cout_e];
            // Rounds outer, pixels inner — round metadata and the round's
            // weight rows stay hot across the tile.
            for (round, taps) in rounds.iter().zip(&taps) {
                let width = round.range.len();
                let accs = &mut accs[..t_rows * width];
                let operands = CrossbarRound {
                    input: &staged,
                    origins,
                    matrix: md,
                    ld: cout_e,
                    col0: round.src_col_start,
                    width,
                    taps,
                };
                crossbar_mvm(operands, accs);
                if let Some((step, limit)) = adc {
                    quantize_slice(accs, step, limit);
                }
                // Joint module: accumulate into the output range.
                for (out_vec, acc_row) in chunk.chunks_mut(cw).zip(accs.chunks(width)) {
                    let out_vec = &mut out_vec[round.range.clone()];
                    for (slot, &a) in out_vec.iter_mut().zip(acc_row) {
                        *slot += a;
                    }
                }
            }
            if adc.is_some() && !rounds.is_empty() {
                let sweeps = (rounds.len() * t_rows) as u64;
                let elems: usize = rounds.iter().map(|r| r.range.len()).sum();
                trace::instant(
                    trace::SpanKind::AdcSweep,
                    trace::TENANT_NONE,
                    sweeps,
                    (elems * t_rows) as u64,
                );
            }
        };

        if rows * cout < PARALLEL_OUTPUTS {
            for (i, chunk) in pix.chunks_mut(tile_rows * cw).enumerate() {
                process_tile(i, chunk);
            }
        } else {
            epim_parallel::for_each_chunk_mut(&mut pix, tile_rows * cw, process_tile);
        }

        // Scatter pixel-major -> one NCHW block per request, `SCATTER_PLANES`
        // (image, channel) planes per pass so each `pix` cache line is
        // fetched once; a wrapped channel reads its block-0 twin.
        const SCATTER_PLANES: usize = 16;
        let out_len = n * cout * pixels;
        for (b, od) in outs.iter_mut().enumerate() {
            let rows_of_b = &pix[b * n * pixels * cw..];
            let scatter_planes = |chunk_idx: usize, planes: &mut [f32]| {
                // Where each plane's channel sits in its image's first
                // `pix` row.
                let mut offsets = [0usize; SCATTER_PLANES];
                let n_planes = planes.len() / pixels;
                for (j, offset) in offsets[..n_planes].iter_mut().enumerate() {
                    let plane_idx = chunk_idx * SCATTER_PLANES + j;
                    *offset = plane_idx / cout * pixels * cw + plane_idx % cout % cw;
                }
                dispatch(ScatterOp {
                    rows: rows_of_b,
                    cw,
                    offsets: &offsets[..n_planes],
                    planes,
                    relu,
                });
            };
            let od = &mut od[..out_len];
            if out_len < 1 << 16 {
                for (idx, planes) in od.chunks_mut(SCATTER_PLANES * pixels).enumerate() {
                    scatter_planes(idx, planes);
                }
            } else {
                epim_parallel::for_each_chunk_mut(od, SCATTER_PLANES * pixels, scatter_planes);
            }
        }
        Ok(stats)
    }

    /// `(step, limit)` of the DAC input quantizer, when finite-precision.
    fn dac_params(&self) -> Option<(f32, f32)> {
        self.analog.dac_bits.map(|bits| {
            let levels = (1u32 << bits.min(24)) as f32;
            (2.0 * self.analog.input_full_scale / levels, levels / 2.0)
        })
    }

    /// `(step, limit)` of the ADC readout quantizer, when finite-precision.
    fn adc_params(&self) -> Option<(f32, f32)> {
        self.analog.adc_bits.map(|bits| {
            let levels = (1u32 << bits.min(24)) as f32;
            (2.0 * self.adc_full_scale / levels, levels / 2.0)
        })
    }

    /// Validates the input tensor and returns `(n, h, w, oh, ow)`.
    fn check_input(&self, input: &Tensor) -> Result<(usize, usize, usize, usize, usize), PimError> {
        if input.rank() != 4 {
            return Err(PimError::geometry(format!(
                "input must be 4-D (N, C, H, W), got rank {}",
                input.rank()
            )));
        }
        let (n, c_in, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let (oh, ow) = self.check_dims(c_in, h, w)?;
        Ok((n, h, w, oh, ow))
    }

    /// Validates channel count and convolution geometry for an `h x w`
    /// input with `c_in` channels, returning `(oh, ow)`.
    fn check_dims(&self, c_in: usize, h: usize, w: usize) -> Result<(usize, usize), PimError> {
        let conv = self.plan.spec.conv();
        if c_in != conv.cin {
            return Err(PimError::geometry(format!(
                "input has {c_in} channels, layer expects {}",
                conv.cin
            )));
        }
        conv2d_out_dims(h, w, conv.kh, conv.kw, self.conv_cfg).map_err(PimError::Tensor)
    }
}

/// The scatter of a few (image, channel) planes out of the pixel-major
/// staging rows: plane `j`'s pixel `p` is `rows[p * cw + offsets[j]]`,
/// clamped with the vector `max(v, 0.0)` of `ops::relu` when `relu` is
/// set. A vector of pixels is one strided load down the plane's column
/// and one contiguous store; the last `pixels % LANES` pixels are single
/// lanes.
struct ScatterOp<'a> {
    rows: &'a [f32],
    cw: usize,
    offsets: &'a [usize],
    /// `offsets.len()` planes of `pixels` floats each.
    planes: &'a mut [f32],
    relu: bool,
}

impl SimdOp for ScatterOp<'_> {
    type Output = ();
    #[inline(always)]
    fn eval<S: Simd>(self, s: S) {
        let (cw, relu) = (self.cw, self.relu);
        let pixels = self.planes.len() / self.offsets.len();
        let body = pixels - pixels % S::LANES;
        let span = (S::LANES - 1) * cw + 1;
        let zero = s.splat(0.0);
        for p in (0..body).step_by(S::LANES) {
            let planes = self.planes.chunks_exact_mut(pixels).zip(self.offsets);
            for (plane, &offset) in planes {
                let v = s.load_strided(&self.rows[p * cw + offset..][..span], cw);
                let v = if relu { s.max(v, zero) } else { v };
                s.store(&mut plane[p..p + S::LANES], v);
            }
        }
        for p in body..pixels {
            let planes = self.planes.chunks_exact_mut(pixels).zip(self.offsets);
            for (plane, &offset) in planes {
                let v = self.rows[p * cw + offset];
                plane[p] = if relu { ScalarSimd.max(v, 0.0) } else { v };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epim_core::{ConvShape, EpitomeDesigner, EpitomeShape, EpitomeSpec};
    use epim_tensor::ops::conv2d;
    use epim_tensor::{init, rng};

    fn random_epitome(conv: ConvShape, eshape: EpitomeShape, seed: u64) -> Epitome {
        let spec = EpitomeSpec::new(conv, eshape).unwrap();
        let mut r = rng::seeded(seed);
        let data = init::uniform(&eshape.dims(), -1.0, 1.0, &mut r);
        Epitome::from_tensor(spec, data).unwrap()
    }

    /// The core invariant: data path output == conv2d with the
    /// reconstructed weight.
    fn assert_equivalent(conv: ConvShape, eshape: EpitomeShape, cfg: Conv2dCfg, seed: u64) {
        let epi = random_epitome(conv, eshape, seed);
        let mut r = rng::seeded(seed ^ 0xabcd);
        let x = init::uniform(&[2, conv.cin, 8, 8], -1.0, 1.0, &mut r);
        let w = epi.reconstruct().unwrap();
        let want = conv2d(&x, &w, None, cfg).unwrap();

        for wrapping in [false, true] {
            let dp = DataPath::new(&epi, cfg, wrapping).unwrap();
            let (got, stats) = dp.execute(&x).unwrap();
            assert!(
                got.allclose(&want, 1e-3).unwrap(),
                "wrapping={wrapping} conv={conv} mse={}",
                got.mse(&want).unwrap()
            );
            assert!(stats.rounds > 0);
        }
    }

    #[test]
    fn equivalence_identity_epitome() {
        assert_equivalent(
            ConvShape::new(6, 4, 3, 3),
            EpitomeShape::new(6, 4, 3, 3),
            Conv2dCfg {
                stride: 1,
                padding: 1,
            },
            1,
        );
    }

    #[test]
    fn equivalence_cout_compressed() {
        assert_equivalent(
            ConvShape::new(8, 4, 3, 3),
            EpitomeShape::new(4, 4, 3, 3),
            Conv2dCfg {
                stride: 1,
                padding: 1,
            },
            2,
        );
    }

    #[test]
    fn equivalence_cin_and_spatial_compressed() {
        assert_equivalent(
            ConvShape::new(6, 9, 3, 3),
            EpitomeShape::new(6, 5, 2, 2),
            Conv2dCfg {
                stride: 1,
                padding: 1,
            },
            3,
        );
    }

    #[test]
    fn equivalence_fully_compressed_strided() {
        assert_equivalent(
            ConvShape::new(8, 6, 3, 3),
            EpitomeShape::new(4, 3, 2, 2),
            Conv2dCfg {
                stride: 2,
                padding: 1,
            },
            4,
        );
    }

    #[test]
    fn equivalence_1x1_conv() {
        assert_equivalent(
            ConvShape::new(16, 8, 1, 1),
            EpitomeShape::new(8, 4, 1, 1),
            Conv2dCfg {
                stride: 1,
                padding: 0,
            },
            5,
        );
    }

    #[test]
    fn wrapping_skips_rounds_and_replicates() {
        let conv = ConvShape::new(8, 4, 3, 3);
        let epi = random_epitome(conv, EpitomeShape::new(4, 4, 3, 3), 6);
        let cfg = Conv2dCfg {
            stride: 1,
            padding: 1,
        };
        let mut r = rng::seeded(7);
        let x = init::uniform(&[1, 4, 6, 6], -1.0, 1.0, &mut r);

        let off = DataPath::new(&epi, cfg, false).unwrap();
        let on = DataPath::new(&epi, cfg, true).unwrap();
        let (_, s_off) = off.execute(&x).unwrap();
        let (_, s_on) = on.execute(&x).unwrap();
        assert_eq!(s_on.rounds * 2, s_off.rounds);
        assert!(s_on.buffer_writes * 2 == s_off.buffer_writes);
        assert!(s_on.wrapped_elements > 0);
        assert_eq!(s_off.wrapped_elements, 0);
    }

    #[test]
    fn stats_word_lines_match_patch_sizes() {
        let conv = ConvShape::new(4, 4, 3, 3);
        let epi = random_epitome(conv, EpitomeShape::new(4, 2, 2, 2), 9);
        let cfg = Conv2dCfg {
            stride: 1,
            padding: 0,
        };
        let dp = DataPath::new(&epi, cfg, false).unwrap();
        let mut r = rng::seeded(10);
        let x = init::uniform(&[1, 4, 5, 5], -1.0, 1.0, &mut r);
        let (out, stats) = dp.execute(&x).unwrap();
        let pixels = (out.shape()[2] * out.shape()[3]) as u64;
        let per_pixel_wls: u64 = epi
            .spec()
            .plan()
            .patches()
            .iter()
            .map(|p| (p.size[1] * p.size[2] * p.size[3]) as u64)
            .sum();
        assert_eq!(stats.word_line_activations, pixels * per_pixel_wls);
        assert_eq!(
            stats.rounds,
            pixels * epi.spec().plan().patches().len() as u64
        );
    }

    #[test]
    fn rejects_wrong_input_channels() {
        let conv = ConvShape::new(4, 4, 3, 3);
        let epi = random_epitome(conv, EpitomeShape::new(4, 4, 3, 3), 11);
        let dp = DataPath::new(&epi, Conv2dCfg::default(), false).unwrap();
        let x = Tensor::zeros(&[1, 3, 5, 5]);
        assert!(dp.execute(&x).is_err());
        assert!(dp.execute(&Tensor::zeros(&[5, 5])).is_err());
    }

    #[test]
    fn ideal_analog_model_is_exact() {
        let conv = ConvShape::new(8, 4, 3, 3);
        let epi = random_epitome(conv, EpitomeShape::new(4, 4, 2, 2), 20);
        let cfg = Conv2dCfg {
            stride: 1,
            padding: 1,
        };
        let mut r = rng::seeded(21);
        let x = init::uniform(&[1, 4, 6, 6], -1.0, 1.0, &mut r);
        let a = DataPath::new(&epi, cfg, false).unwrap();
        let b = DataPath::with_analog(&epi, cfg, false, AnalogModel::ideal()).unwrap();
        assert_eq!(a.execute(&x).unwrap().0, b.execute(&x).unwrap().0);
        assert!(!b.analog().is_noisy());
    }

    #[test]
    fn weight_noise_error_grows_with_std() {
        let conv = ConvShape::new(8, 4, 3, 3);
        let epi = random_epitome(conv, EpitomeShape::new(4, 4, 2, 2), 22);
        let cfg = Conv2dCfg {
            stride: 1,
            padding: 1,
        };
        let mut r = rng::seeded(23);
        let x = init::uniform(&[1, 4, 6, 6], -1.0, 1.0, &mut r);
        let ideal = DataPath::new(&epi, cfg, false)
            .unwrap()
            .execute(&x)
            .unwrap()
            .0;
        let mse_at = |std: f32| {
            let dp = DataPath::with_analog(
                &epi,
                cfg,
                false,
                AnalogModel {
                    weight_noise_std: std,
                    adc_bits: None,
                    noise_seed: 5,
                    ..AnalogModel::ideal()
                },
            )
            .unwrap();
            dp.execute(&x).unwrap().0.mse(&ideal).unwrap()
        };
        let low = mse_at(0.01);
        let high = mse_at(0.10);
        assert!(low > 0.0, "1% noise must perturb the output");
        assert!(
            high > low * 10.0,
            "10x noise should raise MSE ~100x: {low} vs {high}"
        );
    }

    #[test]
    fn adc_precision_controls_error() {
        let conv = ConvShape::new(8, 4, 3, 3);
        let epi = random_epitome(conv, EpitomeShape::new(4, 4, 2, 2), 24);
        let cfg = Conv2dCfg {
            stride: 1,
            padding: 1,
        };
        let mut r = rng::seeded(25);
        let x = init::uniform(&[1, 4, 6, 6], -1.0, 1.0, &mut r);
        let ideal = DataPath::new(&epi, cfg, false)
            .unwrap()
            .execute(&x)
            .unwrap()
            .0;
        let mse_at = |bits: u8| {
            let dp = DataPath::with_analog(
                &epi,
                cfg,
                false,
                AnalogModel {
                    weight_noise_std: 0.0,
                    adc_bits: Some(bits),
                    noise_seed: 0,
                    ..AnalogModel::ideal()
                },
            )
            .unwrap();
            dp.execute(&x).unwrap().0.mse(&ideal).unwrap()
        };
        let coarse = mse_at(4);
        let fine = mse_at(12);
        assert!(coarse > fine * 50.0, "4-bit {coarse} vs 12-bit {fine}");
        assert!(fine < 1e-4, "12-bit ADC should be near-exact: {fine}");
    }

    #[test]
    fn noise_deterministic_per_seed() {
        let conv = ConvShape::new(4, 4, 3, 3);
        let epi = random_epitome(conv, EpitomeShape::new(4, 2, 2, 2), 26);
        let cfg = Conv2dCfg::default();
        let x = Tensor::ones(&[1, 4, 5, 5]);
        let run = |seed: u64| {
            DataPath::with_analog(
                &epi,
                cfg,
                false,
                AnalogModel {
                    weight_noise_std: 0.05,
                    adc_bits: None,
                    noise_seed: seed,
                    ..AnalogModel::ideal()
                },
            )
            .unwrap()
            .execute(&x)
            .unwrap()
            .0
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn dac_precision_controls_error() {
        // The A9 activation-precision knob, applied functionally.
        let conv = ConvShape::new(8, 4, 3, 3);
        let epi = random_epitome(conv, EpitomeShape::new(4, 4, 2, 2), 30);
        let cfg = Conv2dCfg {
            stride: 1,
            padding: 1,
        };
        let mut r = rng::seeded(31);
        let x = init::uniform(&[1, 4, 6, 6], -1.0, 1.0, &mut r);
        let ideal = DataPath::new(&epi, cfg, false)
            .unwrap()
            .execute(&x)
            .unwrap()
            .0;
        let mse_at = |bits: u8| {
            let dp = DataPath::with_analog(
                &epi,
                cfg,
                false,
                AnalogModel {
                    dac_bits: Some(bits),
                    ..AnalogModel::ideal()
                },
            )
            .unwrap();
            dp.execute(&x).unwrap().0.mse(&ideal).unwrap()
        };
        let a3 = mse_at(3);
        let a9 = mse_at(9);
        assert!(a3 > a9 * 100.0, "3-bit {a3} vs 9-bit {a9}");
        assert!(
            a9 < 1e-4,
            "9-bit input quantization should be near-exact: {a9}"
        );
    }

    #[test]
    fn invalid_analog_parameters_rejected() {
        let conv = ConvShape::new(4, 4, 3, 3);
        let epi = random_epitome(conv, EpitomeShape::new(4, 4, 3, 3), 27);
        let cfg = Conv2dCfg::default();
        let bad_std = AnalogModel {
            weight_noise_std: -0.1,
            adc_bits: None,
            noise_seed: 0,
            ..AnalogModel::ideal()
        };
        assert!(DataPath::with_analog(&epi, cfg, false, bad_std).is_err());
        let bad_adc = AnalogModel {
            weight_noise_std: 0.0,
            adc_bits: Some(0),
            noise_seed: 0,
            ..AnalogModel::ideal()
        };
        assert!(DataPath::with_analog(&epi, cfg, false, bad_adc).is_err());
        let bad_dac = AnalogModel {
            dac_bits: Some(0),
            ..AnalogModel::ideal()
        };
        assert!(DataPath::with_analog(&epi, cfg, false, bad_dac).is_err());
        let bad_fs = AnalogModel {
            input_full_scale: 0.0,
            ..AnalogModel::ideal()
        };
        assert!(DataPath::with_analog(&epi, cfg, false, bad_fs).is_err());
    }

    #[test]
    fn execute_batch_edge_cases() {
        let conv = ConvShape::new(4, 4, 3, 3);
        let epi = random_epitome(conv, EpitomeShape::new(4, 2, 2, 2), 54);
        let dp = DataPath::new(&epi, Conv2dCfg::default(), false).unwrap();

        // Empty batch: no outputs, zero stats.
        let (outs, stats) = dp.execute_batch(&[]).unwrap();
        assert!(outs.is_empty());
        assert_eq!(stats, DataPathStats::default());

        // Diverging shapes are rejected (runtime groups by shape instead).
        let a = Tensor::zeros(&[1, 4, 5, 5]);
        let b = Tensor::zeros(&[1, 4, 6, 6]);
        assert!(dp.execute_batch(&[&a, &b]).is_err());

        // Singleton batch equals plain execute.
        let mut r = rng::seeded(55);
        let x = init::uniform(&[1, 4, 5, 5], -1.0, 1.0, &mut r);
        let (outs, stats) = dp.execute_batch(&[&x]).unwrap();
        let (want, want_stats) = dp.execute(&x).unwrap();
        assert_eq!(outs[0], want);
        assert_eq!(stats, want_stats);
    }

    #[test]
    fn compiled_plan_shared_across_data_paths() {
        let conv = ConvShape::new(8, 4, 3, 3);
        let spec = EpitomeSpec::new(conv, EpitomeShape::new(4, 4, 2, 2)).unwrap();
        let plan = std::sync::Arc::new(CompiledPlan::compile(&spec).unwrap());
        assert_eq!(plan.rounds_per_pixel(), spec.plan().patches().len());

        let epi = random_epitome(conv, EpitomeShape::new(4, 4, 2, 2), 56);
        let cfg = Conv2dCfg {
            stride: 1,
            padding: 1,
        };
        let from_plan =
            DataPath::with_plan(plan.clone(), &epi, cfg, false, AnalogModel::ideal()).unwrap();
        let from_scratch = DataPath::new(&epi, cfg, false).unwrap();
        let mut r = rng::seeded(57);
        let x = init::uniform(&[1, 4, 6, 6], -1.0, 1.0, &mut r);
        assert_eq!(
            from_plan.execute(&x).unwrap().0,
            from_scratch.execute(&x).unwrap().0
        );
        // Two data paths can share one plan allocation.
        let second = DataPath::with_plan(plan.clone(), &epi, cfg, true, AnalogModel::ideal());
        assert!(second.is_ok());
        assert!(std::sync::Arc::ptr_eq(from_plan.compiled_plan(), &plan));

        // A plan compiled for a different spec is rejected.
        let other_spec = EpitomeSpec::new(conv, EpitomeShape::new(8, 4, 3, 3)).unwrap();
        let other_plan = std::sync::Arc::new(CompiledPlan::compile(&other_spec).unwrap());
        assert!(DataPath::with_plan(other_plan, &epi, cfg, false, AnalogModel::ideal()).is_err());
    }

    #[test]
    fn designed_spec_equivalence() {
        // End-to-end with the designer, like a real layer replacement.
        let conv = ConvShape::new(32, 16, 3, 3);
        let spec = EpitomeDesigner::new(16, 16).design(conv, 72, 16).unwrap();
        let mut r = rng::seeded(12);
        let data = init::uniform(&spec.shape().dims(), -0.5, 0.5, &mut r);
        let epi = Epitome::from_tensor(spec, data).unwrap();
        let cfg = Conv2dCfg {
            stride: 1,
            padding: 1,
        };
        let x = init::uniform(&[1, 16, 7, 7], -1.0, 1.0, &mut r);
        let w = epi.reconstruct().unwrap();
        let want = conv2d(&x, &w, None, cfg).unwrap();
        let dp = DataPath::new(&epi, cfg, true).unwrap();
        let (got, _) = dp.execute(&x).unwrap();
        assert!(got.allclose(&want, 1e-3).unwrap());
    }
}
