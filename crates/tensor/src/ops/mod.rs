//! Neural-network operators with forward and backward passes.
//!
//! All operators work on [`crate::Tensor`] values in `(N, C, H, W)` layout
//! for images and `(N, F)` for flattened features. Each forward function has
//! a matching `*_backward` returning input/parameter gradients, enabling the
//! small-scale training experiments that substitute for the paper's ImageNet
//! runs.

mod activation;
mod conv;
pub mod gemm;
mod linear;
mod loss;
mod pool;

pub use activation::{
    add_relu_slice, add_slice, relu, relu_backward, relu_slice, sigmoid, softmax_rows,
};
pub use conv::{
    col2im, conv2d, conv2d_backward, conv2d_out_dims, conv2d_packed_into, im2col, Conv2dCfg,
    Conv2dGrads,
};
pub use linear::{linear, linear_backward, linear_packed_into, LinearGrads};
pub use loss::{cross_entropy, CrossEntropyOutput};
pub use pool::{
    avg_pool2d, avg_pool2d_backward, global_avg_pool, global_avg_pool_into, max_pool2d,
    max_pool2d_into, PoolCfg,
};
