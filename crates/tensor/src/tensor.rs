use crate::{Shape, TensorError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major `f32` ND tensor.
///
/// `Tensor` is the workhorse data structure of the EPIM reproduction: it
/// stores convolution weights, epitome parameters, feature maps and the
/// matrices mapped onto memristor crossbars.
///
/// # Example
///
/// ```
/// use epim_tensor::Tensor;
///
/// # fn main() -> Result<(), epim_tensor::TensorError> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let b = Tensor::from_fn(&[2, 2], |idx| if idx[0] == idx[1] { 1.0 } else { 0.0 });
/// let c = a.matmul(&b)?;
/// assert_eq!(c.data(), a.data());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let shape = Shape::from(shape);
        let data = vec![0.0; shape.len()];
        Tensor { shape, data }
    }

    /// Creates a tensor of ones with the given shape.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let shape = Shape::from(shape);
        let data = vec![value; shape.len()];
        Tensor { shape, data }
    }

    /// Creates a rank-0 scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::scalar(),
            data: vec![value],
        }
    }

    /// Creates a tensor from a flat `Vec` and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len()` does not equal
    /// the number of elements implied by `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::from(shape);
        if data.len() != shape.len() {
            return Err(TensorError::ShapeMismatch {
                expected: vec![shape.len()],
                actual: vec![data.len()],
                op: "from_vec",
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor by evaluating `f` at every multi-index.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(&[usize]) -> f32) -> Self {
        let shape = Shape::from(shape);
        let len = shape.len();
        let mut data = Vec::with_capacity(len);
        // Odometer walk: one index buffer for the whole traversal instead of
        // an unflatten allocation per element.
        let mut idx = vec![0usize; shape.rank()];
        for _ in 0..len {
            data.push(f(&idx));
            for d in (0..idx.len()).rev() {
                idx[d] += 1;
                if idx[d] < shape.dims()[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        Tensor { shape, data }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The dimension extents.
    pub fn shape(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.shape.len()
    }

    /// Whether the tensor holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying flat data, row-major.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying flat data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Value at a multi-index.
    ///
    /// Returns `None` if the index is out of bounds.
    pub fn get(&self, index: &[usize]) -> Option<f32> {
        self.shape.flat_index(index).map(|i| self.data[i])
    }

    /// Sets the value at a multi-index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::OutOfBounds`] if the index is invalid.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<(), TensorError> {
        match self.shape.flat_index(index) {
            Some(i) => {
                self.data[i] = value;
                Ok(())
            }
            None => Err(TensorError::OutOfBounds {
                index: index.to_vec(),
                shape: self.shape.dims().to_vec(),
            }),
        }
    }

    /// Value at a multi-index without bounds checks beyond `debug_assert`.
    ///
    /// Allocation-free: the flat offset is accumulated right-to-left
    /// instead of materializing a stride vector (this sits on several hot
    /// paths — epitome reconstruction, the PIM data path, reference convs).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the index is out of bounds; in release
    /// builds an out-of-bounds index may panic on the flat access.
    pub fn at(&self, index: &[usize]) -> f32 {
        debug_assert!(
            self.shape.flat_index(index).is_some(),
            "index out of bounds"
        );
        let mut flat = 0usize;
        let mut stride = 1usize;
        for (&i, &d) in index.iter().zip(self.shape.dims()).rev() {
            flat += i * stride;
            stride *= d;
        }
        self.data[flat]
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor, TensorError> {
        let new_shape = Shape::from(shape);
        if new_shape.len() != self.len() {
            return Err(TensorError::ShapeMismatch {
                expected: vec![self.len()],
                actual: vec![new_shape.len()],
                op: "reshape",
            });
        }
        Ok(Tensor {
            shape: new_shape,
            data: self.data.clone(),
        })
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn transpose(&self) -> Result<Tensor, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
                op: "transpose",
            });
        }
        let (r, c) = (self.shape()[0], self.shape()[1]);
        let mut out = Tensor::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Elementwise and reduction ops
    // ------------------------------------------------------------------

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// In-place elementwise map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Elementwise binary zip.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor, TensorError> {
        self.shape.ensure_same(&other.shape, "zip")?;
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip(other, |a, b| a * b)
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Adds `other * s` into `self` in place (axpy).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn axpy(&mut self, s: f32, other: &Tensor) -> Result<(), TensorError> {
        self.shape.ensure_same(&other.shape, "axpy")?;
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += s * b;
        }
        Ok(())
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Minimum element (`+inf` for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Maximum element (`-inf` for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Maximum absolute element (0 for an empty tensor).
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Squared L2 norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Mean squared error against another tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mse(&self, other: &Tensor) -> Result<f32, TensorError> {
        self.shape.ensure_same(&other.shape, "mse")?;
        if self.data.is_empty() {
            return Ok(0.0);
        }
        let s: f32 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum();
        Ok(s / self.data.len() as f32)
    }

    /// Whether all elements are within `tol` of the other tensor's.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> Result<bool, TensorError> {
        self.shape.ensure_same(&other.shape, "allclose")?;
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .all(|(&a, &b)| (a - b).abs() <= tol))
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix multiplication of two rank-2 tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if either operand is not a
    /// matrix, or [`TensorError::ShapeMismatch`] if inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
                op: "matmul",
            });
        }
        if other.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: other.rank(),
                op: "matmul",
            });
        }
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                expected: vec![m, k],
                actual: vec![k2, n],
                op: "matmul",
            });
        }
        let mut out = vec![0.0f32; m * n];
        // Cache-blocked, register-tiled kernel (see `ops::gemm`); replaces
        // the seed's serial ikj loop.
        crate::ops::gemm::gemm(m, n, k, &self.data, &other.data, &mut out);
        Ok(Tensor {
            shape: Shape::from(vec![m, n]),
            data: out,
        })
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} n={}", self.shape, self.len())
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(&[2, 3]).sum(), 0.0);
        assert_eq!(Tensor::ones(&[2, 3]).sum(), 6.0);
        assert_eq!(Tensor::full(&[4], 2.5).sum(), 10.0);
        assert_eq!(Tensor::scalar(7.0).data(), &[7.0]);
    }

    #[test]
    fn from_vec_validates_len() {
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(&[3, 4]);
        t.set(&[2, 3], 9.0).unwrap();
        assert_eq!(t.get(&[2, 3]), Some(9.0));
        assert_eq!(t.at(&[2, 3]), 9.0);
        assert_eq!(t.get(&[3, 0]), None);
        assert!(t.set(&[0, 4], 1.0).is_err());
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let i = Tensor::from_fn(&[3, 3], |idx| if idx[0] == idx[1] { 1.0 } else { 0.0 });
        let b = a.matmul(&i).unwrap();
        assert_eq!(b.data(), a.data());
    }

    #[test]
    fn matmul_known_result() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_shape_errors() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(a.matmul(&b).is_err());
        let v = Tensor::zeros(&[3]);
        assert!(v.matmul(&a).is_err());
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]).unwrap();
        let t = a.transpose().unwrap();
        assert_eq!(t.shape(), &[4, 3]);
        assert_eq!(t.transpose().unwrap(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
        let mut c = a.clone();
        c.axpy(2.0, &b).unwrap();
        assert_eq!(c.data(), &[7.0, 12.0]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![-3.0, 1.0, 2.0], &[3]).unwrap();
        assert_eq!(a.sum(), 0.0);
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.min(), -3.0);
        assert_eq!(a.max(), 2.0);
        assert_eq!(a.abs_max(), 3.0);
        assert_eq!(a.norm_sq(), 14.0);
    }

    #[test]
    fn mse_and_allclose() {
        let a = Tensor::ones(&[4]);
        let b = Tensor::full(&[4], 1.5);
        assert!((a.mse(&b).unwrap() - 0.25).abs() < 1e-6);
        assert!(a.allclose(&b, 0.5).unwrap());
        assert!(!a.allclose(&b, 0.4).unwrap());
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[6]).unwrap();
        let b = a.reshape(&[2, 3]).unwrap();
        assert_eq!(b.at(&[1, 2]), 5.0);
        assert!(a.reshape(&[4]).is_err());
    }
}
