//! Small-scale training: the genuine, gradient-descent substitute for the
//! paper's ImageNet experiments.
//!
//! [`EpitomeConv2d`] is a drop-in replacement for a convolution layer that
//! *trains the epitome parameters directly*: the forward pass reconstructs
//! the convolution weight from the epitome (paper Eq. 1) and convolves; the
//! backward pass routes the weight gradient through the sampling plan's
//! adjoint back onto the compact epitome tensor. Optionally the forward
//! pass fake-quantizes the reconstructed weight, giving quantization-aware
//! training with any of the §4.2 range schemes.
//!
//! [`run_small_scale_experiment`] trains four variants of the same CNN on
//! a synthetic dataset — plain conv, epitome, and the epitome under naive
//! and under overlap-aware quantization-aware training — through one
//! optimizer and one batch loop, and reports test accuracies. They show
//! the paper's qualitative claim (epitome ≈ conv; overlap-aware low-bit
//! quantization recovers most of the naive-quantization loss) with real
//! training rather than the surrogate of [`crate::accuracy`].

use epim_core::{ConvShape, Epitome, EpitomeError, EpitomeShape, EpitomeSpec};
use epim_quant::{quantize_epitome, QuantGranularity, RangeEstimator};
use epim_tensor::nn::{
    evaluate, small_cnn, train_epoch, AvgPool, Conv2d, Flatten, Layer, Linear, Param, Relu,
    Sequential, Sgd,
};
use epim_tensor::ops::{conv2d, conv2d_backward, Conv2dCfg};
use epim_tensor::{data, init, rng, Tensor, TensorError};
use serde::{Deserialize, Serialize};

/// Quantization-aware-training mode for [`EpitomeConv2d`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QatMode {
    /// Train in full precision.
    Off,
    /// Fake-quantize the epitome each forward pass.
    FakeQuant {
        /// Weight bits.
        bits: u8,
        /// Scaling-factor granularity.
        granularity: QuantGranularity,
        /// Range estimator (min/max or overlap-weighted).
        range: RangeEstimator,
    },
}

/// A trainable epitome convolution layer.
///
/// The epitome values are an ordinary [`Param`], stepped by the same
/// optimizer as every other weight of the network.
pub struct EpitomeConv2d {
    spec: EpitomeSpec,
    epitome: Param,
    bias: Param,
    cfg: Conv2dCfg,
    qat: QatMode,
    cached_input: Option<Tensor>,
    cached_weight: Option<Tensor>,
}

impl std::fmt::Debug for EpitomeConv2d {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EpitomeConv2d({})", self.spec.shape())
    }
}

impl EpitomeConv2d {
    /// Creates a layer with a Kaiming-initialized epitome.
    pub fn new(spec: EpitomeSpec, cfg: Conv2dCfg, seed: u64) -> Self {
        let mut r = rng::seeded(seed);
        let epitome = Param::new(init::kaiming_normal(&spec.shape().dims(), &mut r));
        let bias = Param::new(Tensor::zeros(&[spec.conv().cout]));
        EpitomeConv2d {
            spec,
            epitome,
            bias,
            cfg,
            qat: QatMode::Off,
            cached_input: None,
            cached_weight: None,
        }
    }

    /// Enables quantization-aware training (builder style).
    pub fn with_qat(mut self, qat: QatMode) -> Self {
        self.qat = qat;
        self
    }

    /// The epitome holding the current parameter values.
    fn current_epitome(&self) -> Result<Epitome, EpitomeError> {
        Epitome::from_tensor(self.spec.clone(), self.epitome.value.clone())
    }

    /// The (possibly fake-quantized) weight used in the forward pass.
    fn effective_weight(&self) -> Result<Tensor, EpitomeError> {
        let epitome = self.current_epitome()?;
        match self.qat {
            QatMode::Off => epitome.reconstruct(),
            QatMode::FakeQuant {
                bits,
                granularity,
                range,
            } => {
                let (q, _) = quantize_epitome(&epitome, bits, granularity, &range)
                    .map_err(|e| EpitomeError::plan(format!("qat failed: {e}")))?;
                q.reconstruct()
            }
        }
    }
}

impl Layer for EpitomeConv2d {
    fn forward(&mut self, x: &Tensor) -> Result<Tensor, TensorError> {
        let w = self
            .effective_weight()
            .map_err(|e| TensorError::invalid(e.to_string()))?;
        self.cached_input = Some(x.clone());
        let y = conv2d(x, &w, Some(&self.bias.value), self.cfg)?;
        self.cached_weight = Some(w);
        Ok(y)
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor, TensorError> {
        let x = self
            .cached_input
            .as_ref()
            .ok_or_else(|| TensorError::invalid("backward before forward"))?;
        let w = self
            .cached_weight
            .as_ref()
            .ok_or_else(|| TensorError::invalid("backward before forward"))?;
        let g = conv2d_backward(x, w, dy, self.cfg)?;
        // Straight-through estimator across fake-quant: route dW through
        // the sampling plan's adjoint onto the epitome parameters.
        let epi_grad = self
            .current_epitome()
            .and_then(|e| e.backprop_weight_grad(&g.dw))
            .map_err(|e| TensorError::invalid(e.to_string()))?;
        self.epitome.grad.axpy(1.0, &epi_grad)?;
        self.bias.grad.axpy(1.0, &g.db)?;
        Ok(g.dx)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.epitome, &mut self.bias]
    }

    fn describe(&self) -> String {
        format!(
            "EpitomeConv2d({} -> conv {})",
            self.spec.shape(),
            self.spec.conv()
        )
    }
}

/// Which synthetic dataset the experiment trains on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SyntheticDataset {
    /// Class-conditional Gaussian blobs (easy; positional features).
    Blobs,
    /// Striped textures with class-specific spatial frequencies (harder;
    /// requires genuinely convolutional features, so compression and
    /// quantization effects show).
    Stripes,
}

/// Configuration of the small-scale experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SmallScaleConfig {
    /// Number of classes in the synthetic dataset.
    pub classes: usize,
    /// Image side length.
    pub image_size: usize,
    /// Training examples per class.
    pub per_class: u32,
    /// Training epochs.
    pub epochs: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Quantization bits for the quantized variants.
    pub quant_bits: u8,
    /// RNG seed controlling data, init and shuffling.
    pub seed: u64,
    /// Which synthetic dataset to train on.
    pub dataset: SyntheticDataset,
    /// Epitome shape for the compressed middle layer, as
    /// `(c_out_e, c_in_e, h, w)` replacing the 16x8x3x3 convolution.
    pub epitome_shape: (usize, usize, usize, usize),
}

impl Default for SmallScaleConfig {
    fn default() -> Self {
        SmallScaleConfig {
            classes: 4,
            image_size: 8,
            per_class: 50,
            epochs: 12,
            lr: 0.05,
            quant_bits: 3,
            seed: 42,
            dataset: SyntheticDataset::Blobs,
            epitome_shape: (8, 4, 2, 2),
        }
    }
}

/// Test accuracies of the experiment's variants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SmallScaleResults {
    /// Plain convolutional CNN.
    pub conv_acc: f32,
    /// Epitome CNN (compressed, full precision).
    pub epitome_acc: f32,
    /// Epitome CNN with naive low-bit fake quantization.
    pub epitome_naive_quant_acc: f32,
    /// Epitome CNN with per-crossbar + overlap-weighted fake quantization.
    pub epitome_overlap_quant_acc: f32,
    /// Parameter compression of the epitome variant's conv layers.
    pub param_compression: f64,
}

/// The CNN used by all variants: conv(8)-relu-pool-conv(16)-relu-pool-fc.
/// `epitome` selects the middle layer's operator; `qat` its quantization.
fn build_net(cfg: &SmallScaleConfig, epitome: bool, qat: QatMode) -> (Sequential, Option<f64>) {
    if !epitome {
        return (small_cnn(1, cfg.image_size, cfg.classes, cfg.seed), None);
    }
    // `small_cnn` with the second conv (16x8x3x3) replaced by the
    // configured epitome shape; the other layers draw from the same RNG
    // stream in the same order.
    let mut r = rng::seeded(cfg.seed);
    let conv_cfg = Conv2dCfg {
        stride: 1,
        padding: 1,
    };
    let conv = ConvShape::new(16, 8, 3, 3);
    let (co, ci, h, w) = cfg.epitome_shape;
    let spec = EpitomeSpec::new(conv, EpitomeShape::new(co, ci, h, w)).expect("legal spec");
    let compression = spec.param_compression();
    let mut net = Sequential::new();
    net.push(Conv2d::new(1, 8, 3, conv_cfg, &mut r));
    net.push(Relu::new());
    net.push(AvgPool::new(2, 2));
    net.push(EpitomeConv2d::new(spec, conv_cfg, cfg.seed ^ 1).with_qat(qat));
    net.push(Relu::new());
    net.push(AvgPool::new(2, 2));
    net.push(Flatten::new());
    let side = cfg.image_size / 4;
    net.push(Linear::new(16 * side * side, cfg.classes, &mut r));
    (net, Some(compression))
}

/// Builds one variant and trains it on the config's training split;
/// returns the trained net, the held-out split and the epitome's
/// parameter compression (`None` for the conv arm).
fn train_net(
    cfg: &SmallScaleConfig,
    epitome: bool,
    qat: QatMode,
) -> (Sequential, data::Dataset, Option<f64>) {
    let ds = match cfg.dataset {
        SyntheticDataset::Blobs => {
            data::blobs(cfg.classes, 1, cfg.image_size, cfg.per_class, cfg.seed)
        }
        SyntheticDataset::Stripes => {
            data::stripes(cfg.classes, cfg.image_size, cfg.per_class, cfg.seed)
        }
    };
    let (train, test) = ds.split(0.25);
    let (mut net, compression) = build_net(cfg, epitome, qat);
    let mut opt = Sgd::new(cfg.lr, 0.9);
    for _ in 0..cfg.epochs {
        train_epoch(&mut net, &mut opt, &train.images, &train.labels, 16).expect("training epoch");
    }
    (net, test, compression)
}

fn train_variant(cfg: &SmallScaleConfig, epitome: bool, qat: QatMode) -> (f32, Option<f64>) {
    let (mut net, test, compression) = train_net(cfg, epitome, qat);
    let stats = evaluate(&mut net, &test.images, &test.labels).expect("evaluation");
    (stats.accuracy, compression)
}

/// Runs the experiment over `n_seeds` consecutive seeds and averages the
/// accuracies — the small-scale runs are individually noisy (tiny test
/// sets), so orderings should be read from the average.
pub fn run_small_scale_experiment_avg(cfg: &SmallScaleConfig, n_seeds: u64) -> SmallScaleResults {
    let n = n_seeds.max(1);
    let mut acc = SmallScaleResults {
        conv_acc: 0.0,
        epitome_acc: 0.0,
        epitome_naive_quant_acc: 0.0,
        epitome_overlap_quant_acc: 0.0,
        param_compression: 0.0,
    };
    for s in 0..n {
        let run = run_small_scale_experiment(&SmallScaleConfig {
            seed: cfg.seed.wrapping_add(s),
            ..*cfg
        });
        acc.conv_acc += run.conv_acc / n as f32;
        acc.epitome_acc += run.epitome_acc / n as f32;
        acc.epitome_naive_quant_acc += run.epitome_naive_quant_acc / n as f32;
        acc.epitome_overlap_quant_acc += run.epitome_overlap_quant_acc / n as f32;
        acc.param_compression = run.param_compression;
    }
    acc
}

/// Runs the full experiment: trains all four variants and reports test
/// accuracies.
///
/// Deterministic given `cfg.seed`.
pub fn run_small_scale_experiment(cfg: &SmallScaleConfig) -> SmallScaleResults {
    let (conv_acc, _) = train_variant(cfg, false, QatMode::Off);
    let (epitome_acc, compression) = train_variant(cfg, true, QatMode::Off);
    let naive = QatMode::FakeQuant {
        bits: cfg.quant_bits,
        granularity: QuantGranularity::PerTensor,
        range: RangeEstimator::MinMax,
    };
    let (epitome_naive_quant_acc, _) = train_variant(cfg, true, naive);
    let overlap = QatMode::FakeQuant {
        bits: cfg.quant_bits,
        granularity: QuantGranularity::PerCrossbar { rows: 8, cols: 4 },
        range: RangeEstimator::overlap_default(),
    };
    let (epitome_overlap_quant_acc, _) = train_variant(cfg, true, overlap);
    SmallScaleResults {
        conv_acc,
        epitome_acc,
        epitome_naive_quant_acc,
        epitome_overlap_quant_acc,
        param_compression: compression.unwrap_or(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epitome_layer_forward_shapes() {
        let spec =
            EpitomeSpec::new(ConvShape::new(16, 8, 3, 3), EpitomeShape::new(8, 4, 2, 2)).unwrap();
        let mut layer = EpitomeConv2d::new(
            spec,
            Conv2dCfg {
                stride: 1,
                padding: 1,
            },
            0,
        );
        let x = Tensor::zeros(&[2, 8, 6, 6]);
        let y = layer.forward(&x).unwrap();
        assert_eq!(y.shape(), &[2, 16, 6, 6]);
    }

    #[test]
    fn epitome_layer_learns() {
        // Gradient descent through the reconstruction adjoint must reduce
        // a simple regression loss.
        let spec =
            EpitomeSpec::new(ConvShape::new(4, 2, 3, 3), EpitomeShape::new(2, 2, 2, 2)).unwrap();
        let cfg = Conv2dCfg {
            stride: 1,
            padding: 1,
        };
        let mut layer = EpitomeConv2d::new(spec, cfg, 3);
        let mut opt = Sgd::new(0.02, 0.0);
        let mut r = rng::seeded(9);
        let x = init::uniform(&[4, 2, 5, 5], -1.0, 1.0, &mut r);
        let target = init::uniform(&[4, 4, 5, 5], -0.5, 0.5, &mut r);
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..60 {
            let y = layer.forward(&x).unwrap();
            let diff = y.sub(&target).unwrap();
            last_loss = diff.norm_sq() / diff.len() as f32;
            first_loss.get_or_insert(last_loss);
            // dLoss/dy for loss = mean squared error.
            let dy = diff.scale(2.0 / diff.len() as f32);
            layer.backward(&dy).unwrap();
            opt.step(&mut layer.params_mut()).unwrap();
            layer.params_mut().into_iter().for_each(Param::zero_grad);
        }
        assert!(
            last_loss < first_loss.unwrap() * 0.5,
            "loss {} -> {last_loss}",
            first_loss.unwrap()
        );
    }

    #[test]
    fn epitome_param_steps_by_the_momentum_formula() {
        // Two `Sgd` steps at momentum 0.9 move the epitome exactly as
        // v <- 0.9 v - lr g; w <- w + v does, on the gradients the layer
        // accumulated.
        let spec =
            EpitomeSpec::new(ConvShape::new(4, 2, 3, 3), EpitomeShape::new(2, 2, 2, 2)).unwrap();
        let cfg = Conv2dCfg {
            stride: 1,
            padding: 1,
        };
        let (lr, momentum) = (0.05f32, 0.9f32);
        let mut layer = EpitomeConv2d::new(spec, cfg, 7);
        let mut opt = Sgd::new(lr, momentum);
        let mut r = rng::seeded(8);
        let x = init::uniform(&[2, 2, 5, 5], -1.0, 1.0, &mut r);
        let dy = init::uniform(&[2, 4, 5, 5], -1.0, 1.0, &mut r);
        let mut w = layer.params_mut()[0].value.data().to_vec();
        let mut v = vec![0.0f32; w.len()];
        for _ in 0..2 {
            layer.forward(&x).unwrap();
            layer.backward(&dy).unwrap();
            let g = layer.params_mut()[0].grad.data().to_vec();
            assert!(
                g.iter().any(|&gi| gi != 0.0),
                "no gradient reached the epitome"
            );
            for ((wi, vi), gi) in w.iter_mut().zip(&mut v).zip(&g) {
                *vi = *vi * momentum + -lr * gi;
                *wi += *vi;
            }
            opt.step(&mut layer.params_mut()).unwrap();
            layer.params_mut().into_iter().for_each(Param::zero_grad);
        }
        let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(layer.params_mut()[0].value.data()), bits(&w));
    }

    /// FNV-1a over the bits of every parameter, in `params_mut` order.
    fn fnv_params(net: &mut Sequential) -> u64 {
        net.params_mut()
            .iter()
            .flat_map(|p| {
                p.value
                    .data()
                    .iter()
                    .flat_map(|v| v.to_bits().to_le_bytes())
            })
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
            })
    }

    /// The conv arm's trained weights, hashed with the build that trained
    /// it through its own inline batch loop: routing it through
    /// `small_cnn` and `train_epoch` moved no bit. Training reaches kernels
    /// whose scalar arm rounds differently from the vector arms, so the
    /// scalar arm has its own value.
    #[test]
    fn conv_arm_trains_to_pinned_weights() {
        let (mut net, _, compression) =
            train_net(&SmallScaleConfig::default(), false, QatMode::Off);
        assert_eq!(compression, None);
        let expected = match epim_simd::isa() {
            epim_simd::Isa::Scalar => 0xc6e6_f4a0_0936_8ee9,
            _ => 0x8337_3860_508d_cdff,
        };
        assert_eq!(fnv_params(&mut net), expected);
    }

    #[test]
    fn qat_forward_uses_quantized_weight() {
        let spec =
            EpitomeSpec::new(ConvShape::new(4, 2, 3, 3), EpitomeShape::new(2, 2, 2, 2)).unwrap();
        let cfg = Conv2dCfg {
            stride: 1,
            padding: 0,
        };
        let layer_fp = EpitomeConv2d::new(spec.clone(), cfg, 5);
        let layer_q = EpitomeConv2d::new(spec, cfg, 5).with_qat(QatMode::FakeQuant {
            bits: 2,
            granularity: QuantGranularity::PerTensor,
            range: RangeEstimator::MinMax,
        });
        let w_fp = layer_fp.effective_weight().unwrap();
        let w_q = layer_q.effective_weight().unwrap();
        assert_ne!(w_fp, w_q, "2-bit fake quant must change the weight");
    }

    #[test]
    fn small_scale_experiment_shape_of_results() {
        // A quick run (few epochs) to validate the harness end-to-end;
        // the full-strength run lives in the bench binary.
        let cfg = SmallScaleConfig {
            per_class: 16,
            epochs: 6,
            ..SmallScaleConfig::default()
        };
        let res = run_small_scale_experiment(&cfg);
        assert!(res.param_compression > 2.0);
        let chance = 1.0 / cfg.classes as f32;
        assert!(res.conv_acc > chance, "conv {}", res.conv_acc);
        assert!(res.epitome_acc > chance, "epitome {}", res.epitome_acc);
        for a in [
            res.conv_acc,
            res.epitome_acc,
            res.epitome_naive_quant_acc,
            res.epitome_overlap_quant_acc,
        ] {
            assert!((0.0..=1.0).contains(&a));
        }
    }

    #[test]
    fn experiment_deterministic() {
        let cfg = SmallScaleConfig {
            per_class: 8,
            epochs: 2,
            ..SmallScaleConfig::default()
        };
        let a = run_small_scale_experiment(&cfg);
        let b = run_small_scale_experiment(&cfg);
        assert_eq!(a, b);
    }
}
