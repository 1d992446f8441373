//! Dense row-major `f32` tensors.
//!
//! [`Tensor`] is the value type flowing through the autodiff tape: a flat
//! buffer plus a shape. Only the operations the mmHand architecture needs
//! are provided; all higher-level semantics (convolution, attention) live
//! in [`crate::tape`].

use mmhand_math::rng::standard_normal;
use rand::Rng;
use std::fmt;

// The GEMM kernels grew into their own module; the re-export keeps the
// long-standing `tensor::gemm*` import paths working.
pub use crate::gemm::{
    gemm, gemm_a_bt, gemm_a_bt_naive, gemm_a_bt_with, gemm_at_b, gemm_at_b_naive, gemm_at_b_with,
    gemm_naive, gemm_with,
};

/// A dense row-major tensor of `f32`.
///
/// # Examples
///
/// ```
/// use mmhand_nn::tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, ", data={:?})", self.data)
        } else {
            write!(f, ", data=[{}, {}, …])", self.data[0], self.data[1])
        }
    }
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        Tensor { data: vec![0.0; n], shape: shape.to_vec() }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n: usize = shape.iter().product();
        Tensor { data: vec![value; n], shape: shape.to_vec() }
    }

    /// Creates a tensor from a flat buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(data.len(), n, "data length {} != shape product {n}", data.len());
        Tensor { data, shape: shape.to_vec() }
    }

    /// Creates a tensor of standard-normal samples scaled by `std`.
    pub fn randn<R: Rng + ?Sized>(shape: &[usize], std: f32, rng: &mut R) -> Self {
        let n: usize = shape.iter().product();
        let data = (0..n).map(|_| standard_normal(rng) * std).collect();
        Tensor { data, shape: shape.to_vec() }
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the tensor has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns a reshaped view (same data, new shape).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshaped(&self, shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        assert_eq!(self.len(), n, "cannot reshape {:?} to {shape:?}", self.shape);
        Tensor { data: self.data.clone(), shape: shape.to_vec() }
    }

    /// [`Tensor::reshaped`] that keeps this tensor's buffer.
    pub(crate) fn into_reshaped(mut self, shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        assert_eq!(self.len(), n, "cannot reshape {:?} to {shape:?}", self.shape);
        self.shape = shape.to_vec();
        self
    }

    /// Element-wise addition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        self.zip_with(rhs, |a, b| a + b)
    }

    /// Element-wise subtraction.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, rhs: &Tensor) -> Tensor {
        self.zip_with(rhs, |a, b| a - b)
    }

    /// Element-wise multiplication.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn mul(&self, rhs: &Tensor) -> Tensor {
        self.zip_with(rhs, |a, b| a * b)
    }

    /// Scales every element.
    pub fn scale(&self, s: f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|x| x * s).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Adds `rhs` into `self` in place.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, rhs: &Tensor) {
        assert_eq!(self.shape, rhs.shape, "shape mismatch in add_assign");
        mmhand_kernels::kernels().axpy(&mut self.data, &rhs.data);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (`0.0` when empty).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// `true` if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Matrix multiplication of 2-D tensors: `(m, k) · (k, n) → (m, n)`.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 2-D with compatible inner dimensions.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be 2-D");
        assert_eq!(rhs.shape.len(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(k, k2, "matmul inner dims {k} vs {k2}");
        let mut out = vec![0.0_f32; m * n];
        gemm(&self.data, &rhs.data, &mut out, m, k, n);
        Tensor { data: out, shape: vec![m, n] }
    }

    /// Transpose of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is 2-D.
    pub fn transposed(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "transpose needs a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0_f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor { data: out, shape: vec![n, m] }
    }

    fn zip_with(&self, rhs: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, rhs.shape, "shape mismatch {:?} vs {:?}", self.shape, rhs.shape);
        Tensor {
            data: self.data.iter().zip(&rhs.data).map(|(&a, &b)| f(a, b)).collect(),
            shape: self.shape.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmhand_math::rng::stream_rng;
    use proptest::prelude::*;

    #[test]
    fn construction_and_accessors() {
        let t = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.len(), 6);
        assert_eq!(t.sum(), 21.0);
        assert!((t.mean() - 3.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_checks_length() {
        Tensor::from_vec(&[2, 2], vec![1.0]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(&[2, 2], vec![10.0, 20.0, 30.0, 40.0]);
        assert_eq!(a.add(&b).data(), &[11.0, 22.0, 33.0, 44.0]);
        assert_eq!(b.sub(&a).data(), &[9.0, 18.0, 27.0, 36.0]);
        assert_eq!(a.mul(&a).data(), &[1.0, 4.0, 9.0, 16.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(&[3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = stream_rng(1, "mm");
        let a = Tensor::randn(&[4, 4], 1.0, &mut rng);
        let mut eye = Tensor::zeros(&[4, 4]);
        for i in 0..4 {
            eye.data_mut()[i * 4 + i] = 1.0;
        }
        let c = a.matmul(&eye);
        for (x, y) in c.data().iter().zip(a.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn transpose_round_trip() {
        let mut rng = stream_rng(2, "t");
        let a = Tensor::randn(&[3, 5], 1.0, &mut rng);
        let back = a.transposed().transposed();
        assert_eq!(a, back);
    }

    #[test]
    fn randn_respects_std() {
        let mut rng = stream_rng(4, "r");
        let t = Tensor::randn(&[100, 100], 0.5, &mut rng);
        let mean = t.mean();
        let var = t.data().iter().map(|x| (x - mean) * (x - mean)).sum::<f32>()
            / t.len() as f32;
        assert!(mean.abs() < 0.02);
        assert!((var.sqrt() - 0.5).abs() < 0.02);
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(&[2]);
        assert!(!t.has_non_finite());
        t.data_mut()[1] = f32::NAN;
        assert!(t.has_non_finite());
    }

    proptest! {
        #[test]
        fn matmul_distributes_over_addition(seed in 0u64..100) {
            let mut rng = stream_rng(seed, "prop");
            let a = Tensor::randn(&[3, 4], 1.0, &mut rng);
            let b = Tensor::randn(&[4, 2], 1.0, &mut rng);
            let c = Tensor::randn(&[4, 2], 1.0, &mut rng);
            let lhs = a.matmul(&b.add(&c));
            let rhs = a.matmul(&b).add(&a.matmul(&c));
            for (x, y) in lhs.data().iter().zip(rhs.data()) {
                prop_assert!((x - y).abs() < 1e-3);
            }
        }

        #[test]
        fn reshape_preserves_data(seed in 0u64..50) {
            let mut rng = stream_rng(seed, "rs");
            let a = Tensor::randn(&[2, 6], 1.0, &mut rng);
            let b = a.reshaped(&[3, 4]);
            prop_assert_eq!(a.data(), b.data());
            prop_assert_eq!(b.shape(), &[3usize, 4]);
        }
    }
}
