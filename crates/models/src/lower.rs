//! Lowering: from a [`Network`] (backbone + per-layer operator choices) to
//! an executable [`NetworkProgram`].
//!
//! Until this module existed, `Network` was only *costable* — the cost
//! model walked its layer inventory, but there was no path from an input
//! image through the layers. [`Network::lower`] closes that gap: it turns
//! the inventory into an ordered op graph whose nodes are either **epitome
//! crossbar ops** (keyed by their [`EpitomeSpec`], executed on the PIM data
//! path) or **dense tensor ops** (`conv2d` / `linear` / pooling /
//! activation from `epim-tensor`), with every inter-stage shape inferred
//! and validated at lowering time.
//!
//! Two backbone conventions are understood:
//!
//! - **ResNet-style** (what [`crate::resnet::resnet50`] produces): a
//!   `stem.conv1` stem (conv → ReLU → 3×3/2 max pool), bottleneck blocks
//!   named `stageS.blockB.{conv1,conv2,conv3,downsample}` lowered with
//!   ReLU after conv1/conv2, a projection or identity shortcut, a residual
//!   add and the post-add ReLU, and a trailing `fc` classifier lowered as
//!   global average pooling plus a linear layer.
//! - **Plain chains** (anything else): layers run in order with ReLU
//!   between them; a final 1×1 layer whose recorded output is 1×1 becomes
//!   a global-average-pool + classifier head.
//!
//! Strides and paddings are not stored in the inventory; they are
//! *inferred* from each layer's recorded input/output resolutions and
//! kernel size, then verified against the convolution arithmetic — an
//! inconsistent inventory fails to lower rather than producing a program
//! that cannot run. The lowering is resolution-exact: the program is built
//! for the backbone's recorded geometry, so the input resolution passed to
//! [`Network::lower`] must reproduce every recorded layer resolution.
//!
//! The program itself is weight-free (that is what makes it shareable and
//! cacheable); [`NetworkWeights`] binds tensors/epitomes to the layers a
//! program references, and [`NetworkProgram::forward_reference`] executes
//! the stages one by one — the ground truth the serving runtime's
//! pipelined executor must match **bit for bit**.

use crate::network::{Network, OperatorChoice};
use crate::resnet::LayerInfo;
use epim_core::{Epitome, EpitomeError, EpitomeSpec};
use epim_pim::datapath::{AnalogModel, DataPath, DataPathStats};
use epim_pim::PimError;
use epim_tensor::ops::{
    conv2d, conv2d_out_dims, global_avg_pool, linear, max_pool2d, relu, Conv2dCfg, PoolCfg,
};
use epim_tensor::{init, rng, Tensor};

/// Where a stage reads its (primary) input from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageInput {
    /// The program's input tensor.
    Source,
    /// The output of an earlier stage.
    Stage(usize),
}

/// One node of a lowered program.
///
/// The size difference between variants is intentional: `Epitome` carries
/// its full spec inline (the same trade-off `OperatorChoice` makes).
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum StageOp {
    /// A dense convolution executed by `epim_tensor::ops::conv2d`; the
    /// weight (and optional bias) is bound from the referenced backbone
    /// layer at execution time.
    Conv {
        /// Backbone layer index supplying the weight.
        layer: usize,
        /// Inferred stride/padding.
        cfg: Conv2dCfg,
        /// Fused ReLU epilogue (set by [`NetworkProgram::optimize`];
        /// lowering always emits `false`).
        relu: bool,
    },
    /// An epitome crossbar op executed on the PIM data path; the plan is
    /// keyed by `spec`, which is what lets a serving runtime share one
    /// compiled plan across every stage (and network) using it.
    Epitome {
        /// Backbone layer index supplying the epitome weights.
        layer: usize,
        /// The epitome spec (also the plan-cache key).
        spec: EpitomeSpec,
        /// Inferred stride/padding.
        cfg: Conv2dCfg,
        /// Fused ReLU epilogue (set by [`NetworkProgram::optimize`]).
        relu: bool,
    },
    /// Elementwise ReLU.
    Relu,
    /// Max pooling (the ResNet stem pool).
    MaxPool(
        /// Window/stride/padding.
        PoolCfg,
    ),
    /// Global average pooling to a `(N, C, 1, 1)` map.
    GlobalAvgPool,
    /// A fully-connected classifier head (flattens its `(N, C, 1, 1)`
    /// input); the weight is the referenced layer's 1×1 convolution.
    Linear {
        /// Backbone layer index supplying the weight.
        layer: usize,
        /// Fused ReLU epilogue (set by [`NetworkProgram::optimize`]).
        relu: bool,
    },
    /// Residual addition: this stage's primary input plus the output of
    /// stage `with`.
    Add {
        /// The other summand's stage index.
        with: usize,
        /// Fused ReLU epilogue (set by [`NetworkProgram::optimize`]).
        relu: bool,
    },
}

impl StageOp {
    /// The backbone layer this op binds weights from, if any.
    pub fn layer(&self) -> Option<usize> {
        match self {
            StageOp::Conv { layer, .. }
            | StageOp::Epitome { layer, .. }
            | StageOp::Linear { layer, .. } => Some(*layer),
            _ => None,
        }
    }

    /// Whether this op carries a fused ReLU epilogue.
    pub fn fused_relu(&self) -> bool {
        match self {
            StageOp::Conv { relu, .. }
            | StageOp::Epitome { relu, .. }
            | StageOp::Linear { relu, .. }
            | StageOp::Add { relu, .. } => *relu,
            _ => false,
        }
    }

    /// Returns a copy of this op with the fused-ReLU flag set, if the op
    /// supports an epilogue.
    pub(crate) fn with_fused_relu(&self) -> Option<StageOp> {
        let mut op = self.clone();
        match &mut op {
            StageOp::Conv { relu, .. }
            | StageOp::Epitome { relu, .. }
            | StageOp::Linear { relu, .. }
            | StageOp::Add { relu, .. } => {
                *relu = true;
                Some(op)
            }
            _ => None,
        }
    }
}

/// One stage of a [`NetworkProgram`].
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Human-readable name (layer name or op kind).
    pub name: String,
    /// Where the stage reads its primary input.
    pub input: StageInput,
    /// What the stage computes.
    pub op: StageOp,
    /// Per-image output shape: `[C, H, W]` for feature maps, `[F]` for the
    /// classifier head.
    pub out_shape: Vec<usize>,
}

/// An executable, weight-free op graph lowered from a [`Network`].
///
/// Stages are stored in execution order; every stage's input is either the
/// program source or an *earlier* stage, so a single forward walk executes
/// the program. The final stage's output is the program output.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkProgram {
    pub(crate) input_shape: Vec<usize>,
    pub(crate) stages: Vec<Stage>,
}

impl NetworkProgram {
    /// Per-image input shape `[C, H, W]`.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Per-image output shape of the final stage.
    pub fn output_shape(&self) -> &[usize] {
        &self
            .stages
            .last()
            .expect("programs have at least one stage")
            .out_shape
    }

    /// The stages in execution order.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// The distinct epitome specs the program executes (deduplicated) —
    /// the set of compiled plans a serving runtime needs.
    pub fn epitome_specs(&self) -> Vec<&EpitomeSpec> {
        let mut specs: Vec<&EpitomeSpec> = Vec::new();
        for stage in &self.stages {
            if let StageOp::Epitome { spec, .. } = &stage.op {
                if !specs.contains(&spec) {
                    specs.push(spec);
                }
            }
        }
        specs
    }

    /// For each stage, the indices of stages (plus the source) that read
    /// its output — used by executors to free activations at their last
    /// use. Index `i` lists the stages consuming stage `i`'s output.
    pub fn consumers(&self) -> Vec<Vec<usize>> {
        let mut readers = vec![Vec::new(); self.stages.len()];
        for (i, stage) in self.stages.iter().enumerate() {
            if let StageInput::Stage(j) = stage.input {
                readers[j].push(i);
            }
            if let StageOp::Add { with, .. } = stage.op {
                readers[with].push(i);
            }
        }
        readers
    }

    /// Executes the program one stage at a time on `input`
    /// (`(N, C, H, W)`), binding weights per stage — the sequential ground
    /// truth for the pipelined serving executor, which must reproduce both
    /// the output and the [`DataPathStats`] rollup bit for bit.
    ///
    /// Epitome stages run a fresh [`DataPath`]'s serving executor at a batch
    /// of one (its oracle is [`DataPath::execute_reference`]).
    ///
    /// # Errors
    ///
    /// Returns [`PimError`] on weight/shape mismatches or execution
    /// failures.
    pub fn forward_reference(
        &self,
        weights: &NetworkWeights,
        wrapping_enabled: bool,
        analog: AnalogModel,
        input: &Tensor,
    ) -> Result<(Tensor, DataPathStats), PimError> {
        if input.rank() != 4 || input.shape()[1..] != self.input_shape[..] {
            return Err(PimError::geometry(format!(
                "program input must be (N, {}, {}, {}), got {:?}",
                self.input_shape[0],
                self.input_shape[1],
                self.input_shape[2],
                input.shape()
            )));
        }
        let mut stats = DataPathStats::default();
        let mut outputs: Vec<Option<Tensor>> = vec![None; self.stages.len()];
        for (i, stage) in self.stages.iter().enumerate() {
            let x = match stage.input {
                StageInput::Source => input,
                StageInput::Stage(j) => outputs[j].as_ref().expect("stages execute in order"),
            };
            let y = match &stage.op {
                StageOp::Conv { layer, cfg, .. } => {
                    let (w, b) = weights.dense(*layer, &stage.name)?;
                    conv2d(x, w, b, *cfg)?
                }
                StageOp::Epitome {
                    layer, spec, cfg, ..
                } => {
                    let epi = weights.epitome(*layer, spec, &stage.name)?;
                    let dp = DataPath::with_analog(epi, *cfg, wrapping_enabled, analog)?;
                    let (y, s) = dp.execute(x)?;
                    stats.accumulate(&s);
                    y
                }
                StageOp::Relu => relu(x),
                StageOp::MaxPool(cfg) => max_pool2d(x, *cfg)?,
                StageOp::GlobalAvgPool => {
                    let n = x.shape()[0];
                    let c = x.shape()[1];
                    global_avg_pool(x)?.reshape(&[n, c, 1, 1])?
                }
                StageOp::Linear { layer, .. } => {
                    let (w, b) = weights.dense(*layer, &stage.name)?;
                    let n = x.shape()[0];
                    let feats = x.len() / n;
                    let flat = x.reshape(&[n, feats])?;
                    let wmat = w.reshape(&[w.shape()[0], feats])?;
                    linear(&flat, &wmat, b)?
                }
                StageOp::Add { with, .. } => {
                    let other = outputs[*with].as_ref().expect("stages execute in order");
                    x.add(other)?
                }
            };
            // The reference executes fused epilogues as a separate pass; the
            // fused kernels are bit-identical to this by construction.
            let y = if stage.op.fused_relu() { relu(&y) } else { y };
            outputs[i] = Some(y);
        }
        let out = outputs.pop().flatten().expect("last stage executed");
        Ok((out, stats))
    }
}

/// The weights a program binds: one entry per backbone layer the program
/// references.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum LayerWeights {
    /// Dense weights for [`StageOp::Conv`] / [`StageOp::Linear`] stages:
    /// the `(C_out, C_in, KH, KW)` kernel and an optional `(C_out)` bias.
    Dense {
        /// Convolution kernel.
        weight: Tensor,
        /// Optional per-channel bias.
        bias: Option<Tensor>,
    },
    /// Epitome weights for [`StageOp::Epitome`] stages.
    Epitome(Epitome),
}

/// Per-layer weights for a lowered network, indexed by backbone layer.
#[derive(Debug, Clone, Default)]
pub struct NetworkWeights {
    layers: Vec<Option<LayerWeights>>,
}

impl NetworkWeights {
    /// Randomly initialized weights matching `network`'s choices: Kaiming
    /// kernels for dense layers and epitome tensors, uniform biases.
    /// Deterministic per seed.
    ///
    /// # Errors
    ///
    /// Propagates epitome construction errors.
    pub fn random(network: &Network, seed: u64) -> Result<Self, EpitomeError> {
        let mut r = rng::seeded(seed);
        let mut layers = Vec::with_capacity(network.choices().len());
        for (layer, choice) in network.backbone().layers.iter().zip(network.choices()) {
            let lw = match choice {
                OperatorChoice::Conv => {
                    let conv = layer.conv;
                    LayerWeights::Dense {
                        weight: init::kaiming_normal(&conv.dims(), &mut r),
                        bias: Some(init::uniform(&[conv.cout], -0.1, 0.1, &mut r)),
                    }
                }
                OperatorChoice::Epitome(spec) => LayerWeights::Epitome(Epitome::from_tensor(
                    spec.clone(),
                    init::kaiming_normal(&spec.shape().dims(), &mut r),
                )?),
            };
            layers.push(Some(lw));
        }
        Ok(NetworkWeights { layers })
    }

    /// Sets layer `i`'s weights (growing the table as needed).
    pub fn set(&mut self, i: usize, weights: LayerWeights) {
        if self.layers.len() <= i {
            self.layers.resize_with(i + 1, || None);
        }
        self.layers[i] = Some(weights);
    }

    /// Layer `i`'s weights, if bound.
    pub fn layer(&self, i: usize) -> Option<&LayerWeights> {
        self.layers.get(i).and_then(Option::as_ref)
    }

    /// The dense weight/bias pair of layer `i`.
    ///
    /// # Errors
    ///
    /// Returns [`PimError`] if the layer is unbound or bound to an epitome.
    pub fn dense(&self, i: usize, name: &str) -> Result<(&Tensor, Option<&Tensor>), PimError> {
        match self.layer(i) {
            Some(LayerWeights::Dense { weight, bias }) => Ok((weight, bias.as_ref())),
            Some(LayerWeights::Epitome(_)) => Err(PimError::config(format!(
                "stage {name}: layer {i} is bound to an epitome, expected dense weights"
            ))),
            None => Err(PimError::config(format!(
                "stage {name}: layer {i} has no weights bound"
            ))),
        }
    }

    /// The epitome of layer `i`, verified against `spec`.
    ///
    /// # Errors
    ///
    /// Returns [`PimError`] if the layer is unbound, dense, or bound to an
    /// epitome of a different spec.
    pub fn epitome(&self, i: usize, spec: &EpitomeSpec, name: &str) -> Result<&Epitome, PimError> {
        match self.layer(i) {
            Some(LayerWeights::Epitome(epi)) if epi.spec() == spec => Ok(epi),
            Some(LayerWeights::Epitome(_)) => Err(PimError::config(format!(
                "stage {name}: layer {i}'s epitome does not match the program's spec"
            ))),
            Some(LayerWeights::Dense { .. }) => Err(PimError::config(format!(
                "stage {name}: layer {i} is bound to dense weights, expected an epitome"
            ))),
            None => Err(PimError::config(format!(
                "stage {name}: layer {i} has no weights bound"
            ))),
        }
    }
}

/// Infers the stride/padding a layer must use to map an `h × w` input to
/// its recorded output resolution, verifying the result.
fn infer_conv_cfg(
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    layer: &LayerInfo,
) -> Result<Conv2dCfg, EpitomeError> {
    if layer.out_h == 0 || layer.out_w == 0 {
        return Err(EpitomeError::plan(format!(
            "layer {} records a zero output",
            layer.name
        )));
    }
    let stride = ((h as f64 / layer.out_h as f64).round() as usize).max(1);
    let padding = ((layer.out_h - 1) * stride + kh)
        .saturating_sub(h)
        .div_ceil(2);
    let cfg = Conv2dCfg { stride, padding };
    match conv2d_out_dims(h, w, kh, kw, cfg) {
        Ok((oh, ow)) if oh == layer.out_h && ow == layer.out_w => Ok(cfg),
        _ => Err(EpitomeError::plan(format!(
            "cannot infer stride/padding for layer {}: {h}x{w} input, {kh}x{kw} kernel, \
             recorded output {}x{}",
            layer.name, layer.out_h, layer.out_w
        ))),
    }
}

/// Incremental program builder: tracks the cursor (current producer and
/// per-image shape) while stages are appended.
struct Lowerer<'a> {
    net: &'a Network,
    stages: Vec<Stage>,
    cur: StageInput,
    c: usize,
    h: usize,
    w: usize,
}

impl<'a> Lowerer<'a> {
    fn new(net: &'a Network, c: usize, h: usize, w: usize) -> Self {
        Lowerer {
            net,
            stages: Vec::new(),
            cur: StageInput::Source,
            c,
            h,
            w,
        }
    }

    /// Appends a stage reading from the cursor and advances it.
    fn push(&mut self, name: impl Into<String>, op: StageOp, out_shape: Vec<usize>) -> usize {
        self.push_from(self.cur, name, op, out_shape)
    }

    /// Appends a stage reading from an explicit producer and moves the
    /// cursor to it.
    fn push_from(
        &mut self,
        input: StageInput,
        name: impl Into<String>,
        op: StageOp,
        out_shape: Vec<usize>,
    ) -> usize {
        if let [c, h, w] = out_shape[..] {
            (self.c, self.h, self.w) = (c, h, w);
        }
        self.stages.push(Stage {
            name: name.into(),
            input,
            op,
            out_shape,
        });
        let idx = self.stages.len() - 1;
        self.cur = StageInput::Stage(idx);
        idx
    }

    /// Lowers backbone layer `idx` as a convolution-like stage (dense conv
    /// or epitome per the network's choice) reading from `input` with the
    /// per-image shape `(c, h, w)`.
    fn push_conv_like(
        &mut self,
        idx: usize,
        input: StageInput,
        (c, h, w): (usize, usize, usize),
    ) -> Result<usize, EpitomeError> {
        let layer = &self.net.backbone().layers[idx];
        if layer.conv.cin != c {
            return Err(EpitomeError::plan(format!(
                "layer {} expects {} input channels but its input has {c}",
                layer.name, layer.conv.cin
            )));
        }
        let cfg = infer_conv_cfg(h, w, layer.conv.kh, layer.conv.kw, layer)?;
        let op = match &self.net.choices()[idx] {
            OperatorChoice::Conv => StageOp::Conv {
                layer: idx,
                cfg,
                relu: false,
            },
            OperatorChoice::Epitome(spec) => StageOp::Epitome {
                layer: idx,
                spec: spec.clone(),
                cfg,
                relu: false,
            },
        };
        let out_shape = vec![layer.conv.cout, layer.out_h, layer.out_w];
        Ok(self.push_from(input, layer.name.clone(), op, out_shape))
    }

    /// Appends a classifier head (global average pool + linear or 1×1
    /// epitome) for backbone layer `idx`.
    fn push_head(&mut self, idx: usize) -> Result<(), EpitomeError> {
        let layer = &self.net.backbone().layers[idx];
        if layer.conv.kh != 1 || layer.conv.kw != 1 || layer.out_h != 1 || layer.out_w != 1 {
            return Err(EpitomeError::plan(format!(
                "classifier layer {} must be a 1x1 conv with 1x1 output",
                layer.name
            )));
        }
        if layer.conv.cin != self.c {
            return Err(EpitomeError::plan(format!(
                "classifier {} expects {} features, got {}",
                layer.name, layer.conv.cin, self.c
            )));
        }
        if self.h != 1 || self.w != 1 {
            let c = self.c;
            self.push("global_avg_pool", StageOp::GlobalAvgPool, vec![c, 1, 1]);
        }
        match &self.net.choices()[idx] {
            OperatorChoice::Conv => {
                let out = vec![layer.conv.cout];
                self.push(
                    layer.name.clone(),
                    StageOp::Linear {
                        layer: idx,
                        relu: false,
                    },
                    out,
                );
            }
            OperatorChoice::Epitome(spec) => {
                let cfg = Conv2dCfg {
                    stride: 1,
                    padding: 0,
                };
                let op = StageOp::Epitome {
                    layer: idx,
                    spec: spec.clone(),
                    cfg,
                    relu: false,
                };
                let out = vec![layer.conv.cout, 1, 1];
                self.push(layer.name.clone(), op, out);
            }
        }
        Ok(())
    }

    fn cursor(&self) -> (StageInput, (usize, usize, usize)) {
        (self.cur, (self.c, self.h, self.w))
    }

    fn finish(self, input_shape: Vec<usize>) -> NetworkProgram {
        NetworkProgram {
            input_shape,
            stages: self.stages,
        }
    }
}

/// Splits `stageS.blockB.kind` into `(prefix, kind)`.
fn block_parts(name: &str) -> Option<(&str, &str)> {
    name.rsplit_once('.')
}

impl Network {
    /// Lowers this network into an executable [`NetworkProgram`] for
    /// `input_h × input_w` inputs (which must reproduce the backbone's
    /// recorded layer resolutions — for the built-in ResNets that is
    /// 224×224).
    ///
    /// See the [`crate::lower`] module docs for the recognized backbone
    /// conventions.
    ///
    /// # Errors
    ///
    /// Returns [`EpitomeError::PlanMismatch`] if the inventory cannot be
    /// lowered: channel mismatches between consecutive layers, resolutions
    /// inconsistent with any stride/padding, or an unrecognized
    /// ResNet-style layer sequence.
    pub fn lower(&self, input_h: usize, input_w: usize) -> Result<NetworkProgram, EpitomeError> {
        let layers = &self.backbone().layers;
        let Some(first) = layers.first() else {
            return Err(EpitomeError::plan("cannot lower an empty backbone"));
        };
        let input_shape = vec![first.conv.cin, input_h, input_w];
        let mut lw = Lowerer::new(self, first.conv.cin, input_h, input_w);
        if first.name == "stem.conv1" {
            lower_resnet(&mut lw, input_h, input_w)?;
        } else {
            lower_chain(&mut lw, input_h, input_w)?;
        }
        Ok(lw.finish(input_shape))
    }
}

/// Lowers a plain chain: layers in order with ReLU between them; a 1×1
/// layer with recorded 1×1 output becomes the classifier head.
fn lower_chain(lw: &mut Lowerer, input_h: usize, input_w: usize) -> Result<(), EpitomeError> {
    let n_layers = lw.net.backbone().layers.len();
    let (mut input, mut shape) = (StageInput::Source, (lw.c, input_h, input_w));
    for idx in 0..n_layers {
        let layer = &lw.net.backbone().layers[idx];
        let is_head = layer.conv.kh == 1
            && layer.conv.kw == 1
            && layer.out_h == 1
            && layer.out_w == 1
            && (shape.1 > 1 || shape.2 > 1);
        if is_head {
            lw.push_head(idx)?;
        } else {
            lw.push_conv_like(idx, input, shape)?;
        }
        if idx + 1 < n_layers {
            let out = lw
                .stages
                .last()
                .expect("stage just pushed")
                .out_shape
                .clone();
            lw.push(format!("{}.relu", layer.name), StageOp::Relu, out);
        }
        (input, shape) = lw.cursor();
    }
    Ok(())
}

/// Lowers a ResNet-style backbone: stem + pooled entry, bottleneck blocks
/// with projection/identity shortcuts, GAP + linear classifier.
fn lower_resnet(lw: &mut Lowerer, input_h: usize, input_w: usize) -> Result<(), EpitomeError> {
    let n_layers = lw.net.backbone().layers.len();
    // Stem: conv -> ReLU -> 3x3/2 max pool (padding 1).
    lw.push_conv_like(0, StageInput::Source, (lw.c, input_h, input_w))?;
    let stem_shape = (lw.c, lw.h, lw.w);
    lw.push(
        "stem.relu",
        StageOp::Relu,
        vec![stem_shape.0, stem_shape.1, stem_shape.2],
    );
    let pool = PoolCfg {
        window: 3,
        stride: 2,
        padding: 1,
    };
    let (ph, pw) = conv2d_out_dims(
        lw.h,
        lw.w,
        3,
        3,
        Conv2dCfg {
            stride: 2,
            padding: 1,
        },
    )
    .map_err(|e| EpitomeError::plan(format!("stem pool does not fit: {e}")))?;
    let c = lw.c;
    lw.push("stem.maxpool", StageOp::MaxPool(pool), vec![c, ph, pw]);

    let mut idx = 1;
    while idx < n_layers {
        let name = lw.net.backbone().layers[idx].name.clone();
        if name == "fc" {
            if idx + 1 != n_layers {
                return Err(EpitomeError::plan("fc must be the final layer"));
            }
            lw.push_head(idx)?;
            idx += 1;
            continue;
        }
        let Some((prefix, "conv1")) = block_parts(&name) else {
            return Err(EpitomeError::plan(format!(
                "unrecognized ResNet layer sequence at {name} (expected *.conv1 or fc)"
            )));
        };
        // One bottleneck block: conv1 -> ReLU -> conv2 -> ReLU -> conv3,
        // plus a projection shortcut if a downsample layer follows.
        let (entry, entry_shape) = lw.cursor();
        let expect = |i: usize, kind: &str| -> Result<usize, EpitomeError> {
            let layers = &lw.net.backbone().layers;
            match layers.get(i).and_then(|l| block_parts(&l.name)) {
                Some((p, k)) if p == prefix && k == kind => Ok(i),
                _ => Err(EpitomeError::plan(format!(
                    "block {prefix} is missing its {kind} layer at position {i}"
                ))),
            }
        };
        let i_conv2 = expect(idx + 1, "conv2")?;
        let i_conv3 = expect(idx + 2, "conv3")?;
        lw.push_conv_like(idx, entry, entry_shape)?;
        let s = lw.stages.last().expect("stage").out_shape.clone();
        lw.push(format!("{prefix}.relu1"), StageOp::Relu, s);
        let (cur, shape) = lw.cursor();
        lw.push_conv_like(i_conv2, cur, shape)?;
        let s = lw.stages.last().expect("stage").out_shape.clone();
        lw.push(format!("{prefix}.relu2"), StageOp::Relu, s);
        let (cur, shape) = lw.cursor();
        let main = lw.push_conv_like(i_conv3, cur, shape)?;
        let main_shape = lw.stages[main].out_shape.clone();

        let has_downsample = lw
            .net
            .backbone()
            .layers
            .get(i_conv3 + 1)
            .and_then(|l| block_parts(&l.name))
            .is_some_and(|(p, k)| p == prefix && k == "downsample");
        let shortcut = if has_downsample {
            StageInput::Stage(lw.push_conv_like(i_conv3 + 1, entry, entry_shape)?)
        } else {
            entry
        };
        let StageInput::Stage(shortcut_idx) = shortcut else {
            return Err(EpitomeError::plan(format!(
                "block {prefix} has an identity shortcut from the program source"
            )));
        };
        if lw.stages[shortcut_idx].out_shape != main_shape {
            return Err(EpitomeError::plan(format!(
                "block {prefix}: shortcut shape {:?} does not match main path {:?}",
                lw.stages[shortcut_idx].out_shape, main_shape
            )));
        }
        lw.push_from(
            StageInput::Stage(main),
            format!("{prefix}.add"),
            StageOp::Add {
                with: shortcut_idx,
                relu: false,
            },
            main_shape.clone(),
        );
        lw.push(format!("{prefix}.relu3"), StageOp::Relu, main_shape);
        idx = i_conv3 + 1 + usize::from(has_downsample);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resnet::{resnet50, Backbone};
    use epim_core::{ConvShape, EpitomeDesigner, EpitomeShape};

    /// A small chain backbone: 8x8 input, two 3x3 convs, classifier.
    fn chain_backbone() -> Backbone {
        let layer = |name: &str, conv: ConvShape, res: usize| LayerInfo {
            name: name.to_string(),
            conv,
            out_h: res,
            out_w: res,
        };
        Backbone {
            name: "tiny-chain".to_string(),
            layers: vec![
                layer("l0", ConvShape::new(8, 4, 3, 3), 8),
                layer("l1", ConvShape::new(8, 8, 3, 3), 4),
                layer("head", ConvShape::new(10, 8, 1, 1), 1),
            ],
        }
    }

    /// A tiny ResNet-style backbone at 16x16 input: stem (16->8), pool
    /// (8->4), one bottleneck block with downsample, one identity block,
    /// classifier.
    fn tiny_resnet_backbone() -> Backbone {
        let layer = |name: &str, conv: ConvShape, res: usize| LayerInfo {
            name: name.to_string(),
            conv,
            out_h: res,
            out_w: res,
        };
        Backbone {
            name: "tiny-resnet".to_string(),
            layers: vec![
                layer("stem.conv1", ConvShape::new(8, 3, 3, 3), 8),
                layer("stage1.block0.conv1", ConvShape::new(4, 8, 1, 1), 4),
                layer("stage1.block0.conv2", ConvShape::new(4, 4, 3, 3), 4),
                layer("stage1.block0.conv3", ConvShape::new(16, 4, 1, 1), 4),
                layer("stage1.block0.downsample", ConvShape::new(16, 8, 1, 1), 4),
                layer("stage1.block1.conv1", ConvShape::new(4, 16, 1, 1), 4),
                layer("stage1.block1.conv2", ConvShape::new(4, 4, 3, 3), 4),
                layer("stage1.block1.conv3", ConvShape::new(16, 4, 1, 1), 4),
                layer("fc", ConvShape::new(10, 16, 1, 1), 1),
            ],
        }
    }

    #[test]
    fn chain_lowering_structure() {
        let net = Network::baseline(chain_backbone());
        let prog = net.lower(8, 8).unwrap();
        assert_eq!(prog.input_shape(), &[4, 8, 8]);
        assert_eq!(prog.output_shape(), &[10]);
        // l0, relu, l1, relu, gap, head.
        assert_eq!(prog.stages().len(), 6);
        assert!(matches!(
            prog.stages()[0].op,
            StageOp::Conv { layer: 0, .. }
        ));
        assert!(matches!(prog.stages()[4].op, StageOp::GlobalAvgPool));
        assert!(matches!(
            prog.stages()[5].op,
            StageOp::Linear { layer: 2, .. }
        ));
        // l1 maps 8x8 -> 4x4: stride 2, padding 1 inferred.
        let StageOp::Conv { cfg, .. } = prog.stages()[2].op else {
            panic!("conv")
        };
        assert_eq!(
            cfg,
            Conv2dCfg {
                stride: 2,
                padding: 1
            }
        );
    }

    #[test]
    fn tiny_resnet_lowering_structure() {
        let net = Network::baseline(tiny_resnet_backbone());
        let prog = net.lower(16, 16).unwrap();
        assert_eq!(prog.input_shape(), &[3, 16, 16]);
        assert_eq!(prog.output_shape(), &[10]);
        let adds: Vec<&Stage> = prog
            .stages()
            .iter()
            .filter(|s| matches!(s.op, StageOp::Add { .. }))
            .collect();
        assert_eq!(adds.len(), 2, "one residual add per block");
        assert!(prog
            .stages()
            .iter()
            .any(|s| matches!(s.op, StageOp::MaxPool(_))));
        // The identity block's add reads the previous block's post-ReLU
        // output; the projection block's add reads the downsample stage.
        let StageOp::Add { with, .. } = adds[0].op else {
            unreachable!()
        };
        assert_eq!(prog.stages()[with].name, "stage1.block0.downsample");
        let StageOp::Add { with, .. } = adds[1].op else {
            unreachable!()
        };
        assert_eq!(prog.stages()[with].name, "stage1.block0.relu3");
    }

    #[test]
    fn resnet50_lowers_end_to_end() {
        let net = Network::baseline(resnet50());
        let prog = net.lower(224, 224).unwrap();
        assert_eq!(prog.input_shape(), &[3, 224, 224]);
        assert_eq!(prog.output_shape(), &[1000]);
        // 16 blocks -> 16 residual adds; every conv layer appears once.
        let adds = prog
            .stages()
            .iter()
            .filter(|s| matches!(s.op, StageOp::Add { .. }))
            .count();
        assert_eq!(adds, 16);
        let convs = prog
            .stages()
            .iter()
            .filter(|s| matches!(s.op, StageOp::Conv { .. } | StageOp::Linear { .. }))
            .count();
        assert_eq!(convs, 54);
        // The stem lowers to stride 2, padding 3 (the canonical 7x7 stem).
        let StageOp::Conv { cfg, .. } = prog.stages()[0].op else {
            panic!("stem conv")
        };
        assert_eq!(
            cfg,
            Conv2dCfg {
                stride: 2,
                padding: 3
            }
        );
    }

    #[test]
    fn lowering_with_epitome_choices_keys_specs() {
        let bb = tiny_resnet_backbone();
        let designer = EpitomeDesigner::new(16, 16);
        let mut net = Network::baseline(bb.clone());
        // Replace both 3x3 convs (layers 2 and 6, same shape) with the
        // same epitome spec: the program should report one distinct spec.
        let spec = designer.design(bb.layers[2].conv, 18, 2).unwrap();
        net.set_choice(2, OperatorChoice::Epitome(spec.clone()))
            .unwrap();
        net.set_choice(6, OperatorChoice::Epitome(spec.clone()))
            .unwrap();
        let prog = net.lower(16, 16).unwrap();
        let epis = prog
            .stages()
            .iter()
            .filter(|s| matches!(s.op, StageOp::Epitome { .. }))
            .count();
        assert_eq!(epis, 2);
        assert_eq!(prog.epitome_specs(), vec![&spec]);
    }

    #[test]
    fn lowering_rejects_inconsistent_geometry() {
        // Channel mismatch between consecutive chain layers.
        let mut bb = chain_backbone();
        bb.layers[1].conv = ConvShape::new(8, 5, 3, 3);
        assert!(Network::baseline(bb).lower(8, 8).is_err());

        // Resolution that no symmetric stride/padding can produce
        // (8 -> 7 with a 3x3 kernel needs asymmetric padding).
        let mut bb = chain_backbone();
        bb.layers[1].out_h = 7;
        bb.layers[1].out_w = 7;
        assert!(Network::baseline(bb).lower(8, 8).is_err());

        // Wrong input resolution for the recorded geometry.
        assert!(Network::baseline(chain_backbone()).lower(9, 9).is_err());

        // Empty backbone.
        let empty = Backbone {
            name: "empty".to_string(),
            layers: Vec::new(),
        };
        assert!(Network::baseline(empty).lower(8, 8).is_err());
    }

    #[test]
    fn forward_reference_runs_and_shapes_match() {
        let net = Network::baseline(tiny_resnet_backbone());
        let prog = net.lower(16, 16).unwrap();
        let weights = NetworkWeights::random(&net, 7).unwrap();
        let mut r = rng::seeded(8);
        let x = init::uniform(&[2, 3, 16, 16], -1.0, 1.0, &mut r);
        let (y, stats) = prog
            .forward_reference(&weights, true, AnalogModel::ideal(), &x)
            .unwrap();
        assert_eq!(y.shape(), &[2, 10]);
        // All-conv network: no crossbar rounds.
        assert_eq!(stats.rounds, 0);

        // With an epitome choice the data path runs and counts rounds.
        let bb = tiny_resnet_backbone();
        let mut net = Network::baseline(bb.clone());
        let spec = EpitomeSpec::new(bb.layers[2].conv, EpitomeShape::new(2, 4, 3, 3)).unwrap();
        net.set_choice(2, OperatorChoice::Epitome(spec)).unwrap();
        let prog = net.lower(16, 16).unwrap();
        let weights = NetworkWeights::random(&net, 9).unwrap();
        let (y, stats) = prog
            .forward_reference(&weights, true, AnalogModel::ideal(), &x)
            .unwrap();
        assert_eq!(y.shape(), &[2, 10]);
        assert!(stats.rounds > 0);

        // Wrong input shape is rejected.
        assert!(prog
            .forward_reference(
                &weights,
                true,
                AnalogModel::ideal(),
                &Tensor::zeros(&[1, 3, 8, 8])
            )
            .is_err());
    }

    #[test]
    fn consumers_track_residual_reads() {
        let net = Network::baseline(tiny_resnet_backbone());
        let prog = net.lower(16, 16).unwrap();
        let consumers = prog.consumers();
        // Every stage except the last is consumed at least once.
        for (i, readers) in consumers.iter().enumerate().take(prog.stages().len() - 1) {
            assert!(
                !readers.is_empty(),
                "stage {i} ({}) unused",
                prog.stages()[i].name
            );
        }
        // A shortcut producer is consumed twice (next stage + the add).
        let pool_idx = prog
            .stages()
            .iter()
            .position(|s| matches!(s.op, StageOp::MaxPool(_)))
            .unwrap();
        assert_eq!(consumers[pool_idx].len(), 2);
    }
}
