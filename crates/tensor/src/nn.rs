//! A tiny layer/trainer stack for the small-scale training experiments.
//!
//! The EPIM paper trains ResNet-50/101 on ImageNet; that is out of scope for
//! an offline reproduction (see the module docs of `epim_models::accuracy`,
//! which renders the paper's accuracy column analytically instead). This
//! module supplies the substitute: enough machinery to train small CNNs on
//! synthetic data so the *relative* accuracy behaviour of conv vs. epitome
//! vs. quantized epitome can be demonstrated with real gradient descent.
//!
//! Layers follow a classic cache-and-backprop design: `forward` stores
//! whatever the backward pass needs, `backward` consumes the upstream
//! gradient and accumulates parameter gradients, and an [`Sgd`] optimizer
//! applies them.

use crate::ops::{
    avg_pool2d, avg_pool2d_backward, conv2d, conv2d_backward, cross_entropy, linear,
    linear_backward, relu, relu_backward, Conv2dCfg, PoolCfg,
};
use crate::{init, rng, Tensor, TensorError};
use rand::rngs::SmallRng;

/// A trainable parameter: value plus accumulated gradient.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
}

impl Param {
    /// Wraps a tensor as a parameter with zeroed gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param { value, grad }
    }

    /// Zeroes the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.map_inplace(|_| 0.0);
    }
}

/// A differentiable layer.
///
/// This trait is used as an object (`Box<dyn Layer>`) inside [`Sequential`],
/// so all methods are object-safe.
pub trait Layer {
    /// Runs the forward pass, caching activations needed by `backward`.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if the input shape is incompatible.
    fn forward(&mut self, x: &Tensor) -> Result<Tensor, TensorError>;

    /// Runs the backward pass given the upstream gradient; returns the
    /// gradient w.r.t. the layer input and accumulates parameter gradients.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if `forward` has not run or shapes mismatch.
    fn backward(&mut self, dy: &Tensor) -> Result<Tensor, TensorError>;

    /// The layer's trainable parameters, if any.
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// A short human-readable description.
    fn describe(&self) -> String;
}

/// 2-D convolution layer.
#[derive(Debug)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    cfg: Conv2dCfg,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-initialized weights.
    pub fn new(
        c_in: usize,
        c_out: usize,
        kernel: usize,
        cfg: Conv2dCfg,
        rng_: &mut SmallRng,
    ) -> Self {
        Conv2d {
            weight: Param::new(init::kaiming_normal(&[c_out, c_in, kernel, kernel], rng_)),
            bias: Param::new(Tensor::zeros(&[c_out])),
            cfg,
            cached_input: None,
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor) -> Result<Tensor, TensorError> {
        self.cached_input = Some(x.clone());
        conv2d(x, &self.weight.value, Some(&self.bias.value), self.cfg)
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor, TensorError> {
        let x = self
            .cached_input
            .as_ref()
            .ok_or_else(|| TensorError::invalid("backward before forward"))?;
        let g = conv2d_backward(x, &self.weight.value, dy, self.cfg)?;
        self.weight.grad.axpy(1.0, &g.dw)?;
        self.bias.grad.axpy(1.0, &g.db)?;
        Ok(g.dx)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn describe(&self) -> String {
        format!(
            "Conv2d({}x{}x{}x{}, stride {}, pad {})",
            self.weight.value.shape()[0],
            self.weight.value.shape()[1],
            self.weight.value.shape()[2],
            self.weight.value.shape()[3],
            self.cfg.stride,
            self.cfg.padding
        )
    }
}

/// ReLU layer.
#[derive(Debug, Default)]
pub struct Relu {
    cached_input: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu { cached_input: None }
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor) -> Result<Tensor, TensorError> {
        self.cached_input = Some(x.clone());
        Ok(relu(x))
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor, TensorError> {
        let x = self
            .cached_input
            .as_ref()
            .ok_or_else(|| TensorError::invalid("backward before forward"))?;
        relu_backward(x, dy)
    }

    fn describe(&self) -> String {
        "ReLU".to_string()
    }
}

/// Average-pooling layer.
#[derive(Debug)]
pub struct AvgPool {
    cfg: PoolCfg,
    cached_shape: Option<Vec<usize>>,
}

impl AvgPool {
    /// Creates an average-pooling layer.
    pub fn new(window: usize, stride: usize) -> Self {
        AvgPool {
            cfg: PoolCfg::new(window, stride),
            cached_shape: None,
        }
    }
}

impl Layer for AvgPool {
    fn forward(&mut self, x: &Tensor) -> Result<Tensor, TensorError> {
        self.cached_shape = Some(x.shape().to_vec());
        avg_pool2d(x, self.cfg)
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor, TensorError> {
        let shape = self
            .cached_shape
            .as_ref()
            .ok_or_else(|| TensorError::invalid("backward before forward"))?;
        avg_pool2d_backward(shape, dy, self.cfg)
    }

    fn describe(&self) -> String {
        format!(
            "AvgPool(window {}, stride {})",
            self.cfg.window, self.cfg.stride
        )
    }
}

/// Flattens `(N, C, H, W)` to `(N, C*H*W)`.
#[derive(Debug, Default)]
pub struct Flatten {
    cached_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { cached_shape: None }
    }
}

impl Layer for Flatten {
    fn forward(&mut self, x: &Tensor) -> Result<Tensor, TensorError> {
        self.cached_shape = Some(x.shape().to_vec());
        let n = x.shape()[0];
        let rest: usize = x.shape()[1..].iter().product();
        x.reshape(&[n, rest])
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor, TensorError> {
        let shape = self
            .cached_shape
            .as_ref()
            .ok_or_else(|| TensorError::invalid("backward before forward"))?;
        dy.reshape(shape)
    }

    fn describe(&self) -> String {
        "Flatten".to_string()
    }
}

/// Fully-connected layer.
#[derive(Debug)]
pub struct Linear {
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a linear layer with Xavier-initialized weights.
    pub fn new(in_features: usize, out_features: usize, rng_: &mut SmallRng) -> Self {
        Linear {
            weight: Param::new(init::xavier_uniform(&[out_features, in_features], rng_)),
            bias: Param::new(Tensor::zeros(&[out_features])),
            cached_input: None,
        }
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor) -> Result<Tensor, TensorError> {
        self.cached_input = Some(x.clone());
        linear(x, &self.weight.value, Some(&self.bias.value))
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor, TensorError> {
        let x = self
            .cached_input
            .as_ref()
            .ok_or_else(|| TensorError::invalid("backward before forward"))?;
        let g = linear_backward(x, &self.weight.value, dy)?;
        self.weight.grad.axpy(1.0, &g.dw)?;
        self.bias.grad.axpy(1.0, &g.db)?;
        Ok(g.dx)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn describe(&self) -> String {
        format!(
            "Linear({} -> {})",
            self.weight.value.shape()[1],
            self.weight.value.shape()[0]
        )
    }
}

/// A stack of layers applied in sequence.
///
/// # Example
///
/// ```
/// use epim_tensor::nn::{Sequential, Conv2d, Relu, Flatten, Linear};
/// use epim_tensor::ops::Conv2dCfg;
/// use epim_tensor::{rng, Tensor};
///
/// # fn main() -> Result<(), epim_tensor::TensorError> {
/// let mut r = rng::seeded(0);
/// let mut net = Sequential::new();
/// net.push(Conv2d::new(1, 4, 3, Conv2dCfg { stride: 1, padding: 1 }, &mut r));
/// net.push(Relu::new());
/// net.push(Flatten::new());
/// net.push(Linear::new(4 * 8 * 8, 3, &mut r));
/// let y = net.forward(&Tensor::zeros(&[2, 1, 8, 8]))?;
/// assert_eq!(y.shape(), &[2, 3]);
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential[{}]", self.describe())
    }
}

impl Sequential {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) -> &mut Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the stack has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Forward pass through every layer.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error.
    pub fn forward(&mut self, x: &Tensor) -> Result<Tensor, TensorError> {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur)?;
        }
        Ok(cur)
    }

    /// Backward pass through every layer in reverse.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error.
    pub fn backward(&mut self, dy: &Tensor) -> Result<Tensor, TensorError> {
        let mut cur = dy.clone();
        for layer in self.layers.iter_mut().rev() {
            cur = layer.backward(&cur)?;
        }
        Ok(cur)
    }

    /// All trainable parameters across layers.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// One-line summary of the stack.
    pub fn describe(&self) -> String {
        self.layers
            .iter()
            .map(|l| l.describe())
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

/// Plain stochastic gradient descent with optional momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }

    /// Applies one update step to `params`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if a parameter changed shape between steps.
    pub fn step(&mut self, params: &mut [&mut Param]) -> Result<(), TensorError> {
        if self.velocity.len() != params.len() {
            self.velocity = params
                .iter()
                .map(|p| Tensor::zeros(p.value.shape()))
                .collect();
        }
        for (p, v) in params.iter_mut().zip(&mut self.velocity) {
            if self.momentum > 0.0 {
                // v = momentum*v - lr*grad; w += v
                *v = v.scale(self.momentum);
                v.axpy(-self.lr, &p.grad)?;
                p.value.axpy(1.0, v)?;
            } else {
                p.value.axpy(-self.lr, &p.grad)?;
            }
        }
        Ok(())
    }
}

/// Statistics from one [`train_epoch`] pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Mean loss over batches.
    pub loss: f32,
    /// Mean accuracy over batches.
    pub accuracy: f32,
}

/// Trains `net` for one epoch over `(images, labels)` mini-batches.
///
/// `images` is `(N, C, H, W)`; batches are consecutive chunks of
/// `batch_size`.
///
/// # Errors
///
/// Propagates layer/loss errors.
pub fn train_epoch(
    net: &mut Sequential,
    opt: &mut Sgd,
    images: &Tensor,
    labels: &[usize],
    batch_size: usize,
) -> Result<EpochStats, TensorError> {
    let n = images.shape()[0];
    if labels.len() != n {
        return Err(TensorError::ShapeMismatch {
            expected: vec![n],
            actual: vec![labels.len()],
            op: "train_epoch (labels)",
        });
    }
    if batch_size == 0 {
        return Err(TensorError::invalid("batch_size must be nonzero"));
    }
    let mut total_loss = 0.0;
    let mut total_acc = 0.0;
    let mut batches = 0;
    let per = images.len() / n;
    let mut start = 0;
    while start < n {
        let end = (start + batch_size).min(n);
        let bsz = end - start;
        let mut shape = images.shape().to_vec();
        shape[0] = bsz;
        let batch = Tensor::from_vec(images.data()[start * per..end * per].to_vec(), &shape)?;
        let batch_labels = &labels[start..end];

        net.zero_grad();
        let logits = net.forward(&batch)?;
        let out = cross_entropy(&logits, batch_labels)?;
        net.backward(&out.dlogits)?;
        opt.step(&mut net.params_mut())?;

        total_loss += out.loss;
        total_acc += out.accuracy;
        batches += 1;
        start = end;
    }
    Ok(EpochStats {
        loss: total_loss / batches as f32,
        accuracy: total_acc / batches as f32,
    })
}

/// Evaluates `net` and returns `(loss, accuracy)` without updating weights.
///
/// # Errors
///
/// Propagates layer/loss errors.
pub fn evaluate(
    net: &mut Sequential,
    images: &Tensor,
    labels: &[usize],
) -> Result<EpochStats, TensorError> {
    let logits = net.forward(images)?;
    let out = cross_entropy(&logits, labels)?;
    Ok(EpochStats {
        loss: out.loss,
        accuracy: out.accuracy,
    })
}

/// Builds a small CNN classifier: conv-relu-pool ×2, then linear head.
///
/// Input is `(N, c_in, size, size)`; `size` must be divisible by 4.
pub fn small_cnn(c_in: usize, size: usize, classes: usize, seed: u64) -> Sequential {
    let mut r = rng::seeded(seed);
    let mut net = Sequential::new();
    net.push(Conv2d::new(
        c_in,
        8,
        3,
        Conv2dCfg {
            stride: 1,
            padding: 1,
        },
        &mut r,
    ));
    net.push(Relu::new());
    net.push(AvgPool::new(2, 2));
    net.push(Conv2d::new(
        8,
        16,
        3,
        Conv2dCfg {
            stride: 1,
            padding: 1,
        },
        &mut r,
    ));
    net.push(Relu::new());
    net.push(AvgPool::new(2, 2));
    net.push(Flatten::new());
    net.push(Linear::new(16 * (size / 4) * (size / 4), classes, &mut r));
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::blobs;

    #[test]
    fn sequential_shapes_flow() {
        let mut net = small_cnn(1, 8, 4, 0);
        let y = net.forward(&Tensor::zeros(&[3, 1, 8, 8])).unwrap();
        assert_eq!(y.shape(), &[3, 4]);
        assert!(net.describe().contains("Conv2d"));
    }

    #[test]
    fn backward_requires_forward() {
        let mut r = rng::seeded(0);
        let mut conv = Conv2d::new(1, 1, 3, Conv2dCfg::default(), &mut r);
        assert!(conv.backward(&Tensor::zeros(&[1, 1, 1, 1])).is_err());
    }

    #[test]
    fn sgd_reduces_quadratic_loss() {
        // Minimize ||w||^2 directly through the Param/Sgd machinery.
        let mut p = Param::new(Tensor::full(&[4], 2.0));
        let mut opt = Sgd::new(0.1, 0.0);
        for _ in 0..100 {
            p.grad = p.value.clone(); // d/dw (w^2/2) = w
            opt.step(&mut [&mut p]).unwrap();
        }
        assert!(p.value.abs_max() < 1e-3);
    }

    #[test]
    fn momentum_accelerates() {
        let run = |momentum: f32| {
            let mut p = Param::new(Tensor::full(&[1], 1.0));
            let mut opt = Sgd::new(0.01, momentum);
            for _ in 0..50 {
                p.grad = p.value.clone();
                opt.step(&mut [&mut p]).unwrap();
            }
            p.value.data()[0].abs()
        };
        assert!(run(0.9) < run(0.0));
    }

    #[test]
    fn training_learns_blobs() {
        // End-to-end: the small CNN must beat chance on an easy dataset.
        let ds = blobs(4, 1, 8, 40, 7);
        let mut net = small_cnn(1, 8, 4, 1);
        let mut opt = Sgd::new(0.05, 0.9);
        let mut last = EpochStats {
            loss: f32::INFINITY,
            accuracy: 0.0,
        };
        for _ in 0..15 {
            last = train_epoch(&mut net, &mut opt, &ds.images, &ds.labels, 16).unwrap();
        }
        assert!(last.accuracy > 0.5, "accuracy {}", last.accuracy);
    }

    #[test]
    fn train_epoch_validates_inputs() {
        let mut net = small_cnn(1, 8, 2, 0);
        let mut opt = Sgd::new(0.1, 0.0);
        let imgs = Tensor::zeros(&[4, 1, 8, 8]);
        assert!(train_epoch(&mut net, &mut opt, &imgs, &[0, 1], 2).is_err());
        assert!(train_epoch(&mut net, &mut opt, &imgs, &[0, 1, 0, 1], 0).is_err());
    }
}
