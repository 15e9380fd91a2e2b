//! The dense, contiguous, row-major `f32` tensor type.

use crate::{Shape, ShapeMismatchError};
use csq_obs::json::{field, FromJson, Value};
use serde::Serialize;

/// A dense, contiguous, row-major tensor of `f32` values.
///
/// All operations allocate fresh output tensors unless their name ends in
/// `_assign` or `_inplace`. Shapes are validated eagerly; elementwise
/// operations require identical shapes (no implicit broadcasting — the few
/// broadcast patterns the workspace needs are provided as dedicated,
/// explicitly-named methods such as [`Tensor::add_channel_bias`]).
///
/// # Example
///
/// ```
/// use csq_tensor::Tensor;
///
/// let x = Tensor::full(&[2, 3], 2.0);
/// let y = x.mul_scalar(0.5).add_scalar(1.0);
/// assert!(y.iter().all(|v| (v - 2.0).abs() < 1e-6));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

/// Reads the `{"data": [..], "shape": [..]}` object `Serialize` writes.
/// A shape whose element count overflows or differs from the data is an
/// error, not a panic.
impl FromJson for Tensor {
    fn from_json(v: &Value, ctx: &str) -> Result<Self, String> {
        let data: Vec<f32> = field(v, ctx, "data")?;
        let dims: Vec<usize> = field(v, ctx, "shape")?;
        let numel = dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
        if numel != Some(data.len()) {
            return Err(format!(
                "{ctx}: {} values do not fill shape {dims:?}",
                data.len()
            ));
        }
        Ok(Tensor::from_vec(data, &dims))
    }
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![0.0; shape.numel()],
            shape,
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![value; shape.numel()],
            shape,
        }
    }

    /// Creates a rank-0 tensor holding a single value.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            data: vec![value],
            shape: Shape::scalar(),
        }
    }

    /// Creates an `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the number of elements implied
    /// by `dims`. Use [`Tensor::try_from_vec`] for a fallible variant.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        Self::try_from_vec(data, dims).expect("data length must match shape")
    }

    /// Fallible variant of [`Tensor::from_vec`].
    ///
    /// # Errors
    ///
    /// Returns [`ShapeMismatchError`] when `data.len()` differs from the
    /// element count implied by `dims`.
    pub fn try_from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, ShapeMismatchError> {
        let shape = Shape::new(dims);
        if data.len() != shape.numel() {
            return Err(ShapeMismatchError {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Tensor { data, shape })
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            shape: Shape::new(&[data.len()]),
            data: data.to_vec(),
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The extents along each axis.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Flat row-major view of the data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its flat data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Iterates over elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.data.iter()
    }

    /// Element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank mismatches or is out of range.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.flat_index(idx)]
    }

    /// Sets the element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank mismatches or is out of range.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let flat = self.shape.flat_index(idx);
        self.data[flat] = value;
    }

    /// The single value of a rank-0 or single-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() requires a single-element tensor");
        self.data[0]
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        let shape = Shape::new(dims);
        assert_eq!(
            shape.numel(),
            self.numel(),
            "reshape must preserve element count ({} -> {})",
            self.shape,
            shape
        );
        Tensor {
            data: self.data.clone(),
            shape,
        }
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "transpose2 requires a matrix");
        let (r, c) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = Tensor::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        out
    }

    /// Extracts rows `[start, end)` along axis 0 as a new tensor.
    ///
    /// # Panics
    ///
    /// Panics on a rank-0 tensor or when `start > end` or `end` exceeds the
    /// extent of axis 0.
    pub fn slice_axis0(&self, start: usize, end: usize) -> Tensor {
        assert!(self.rank() >= 1, "slice_axis0 requires rank >= 1");
        let d0 = self.shape.dim(0);
        assert!(start <= end && end <= d0, "slice bounds out of range");
        let inner: usize = self.shape.dims()[1..].iter().product();
        let mut dims = self.shape.dims().to_vec();
        dims[0] = end - start;
        Tensor {
            data: self.data[start * inner..end * inner].to_vec(),
            shape: Shape::new(&dims),
        }
    }

    /// Concatenates tensors along axis 0. All inputs must agree on the
    /// remaining axes.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or trailing shapes differ.
    pub fn concat_axis0(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat requires at least one tensor");
        let tail = &parts[0].dims()[1..];
        let mut total0 = 0;
        for p in parts {
            assert_eq!(&p.dims()[1..], tail, "trailing dims must match");
            total0 += p.dims()[0];
        }
        let mut dims = parts[0].dims().to_vec();
        dims[0] = total0;
        let mut data = Vec::with_capacity(Shape::new(&dims).numel());
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Tensor {
            data,
            shape: Shape::new(&dims),
        }
    }

    // ------------------------------------------------------------------
    // Elementwise arithmetic (same-shape)
    // ------------------------------------------------------------------

    fn assert_same_shape(&self, other: &Tensor, op: &str) {
        assert!(
            self.shape == other.shape,
            "{op}: shape mismatch {} vs {}",
            self.shape,
            other.shape
        );
    }

    /// Elementwise sum. Shapes must match.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.assert_same_shape(other, "add");
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise difference. Shapes must match.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.assert_same_shape(other, "sub");
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise product. Shapes must match.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.assert_same_shape(other, "mul");
        self.zip_with(other, |a, b| a * b)
    }

    /// Elementwise quotient. Shapes must match.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn div(&self, other: &Tensor) -> Tensor {
        self.assert_same_shape(other, "div");
        self.zip_with(other, |a, b| a / b)
    }

    /// Adds `other` into `self` in place. Shapes must match.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign_t(&mut self, other: &Tensor) {
        self.assert_same_shape(other, "add_assign_t");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += *b;
        }
    }

    /// Adds `alpha * other` into `self` in place (axpy). Shapes must match.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        self.assert_same_shape(other, "axpy");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * *b;
        }
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_inplace(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Fills the tensor with `value`.
    pub fn fill(&mut self, value: f32) {
        for v in &mut self.data {
            *v = value;
        }
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Tensor {
        self.map(|v| -v)
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|v| v + s)
    }

    /// Multiplies every element by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&v| f(v)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Combines two same-shaped tensors elementwise with `f`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip_with<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, f: F) -> Tensor {
        self.assert_same_shape(other, "zip_with");
        Tensor {
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape.clone(),
        }
    }

    // ------------------------------------------------------------------
    // Broadcast helpers used by the NN layers
    // ------------------------------------------------------------------

    /// Adds a per-channel bias to an NCHW activation tensor.
    ///
    /// `self` has shape `[n, c, h, w]` and `bias` has shape `[c]`.
    ///
    /// # Panics
    ///
    /// Panics if shapes are incompatible.
    pub fn add_channel_bias(&self, bias: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 4, "add_channel_bias requires NCHW input");
        let (n, c, h, w) = (
            self.shape.dim(0),
            self.shape.dim(1),
            self.shape.dim(2),
            self.shape.dim(3),
        );
        assert_eq!(bias.dims(), &[c], "bias must have shape [C]");
        let mut out = self.clone();
        let hw = h * w;
        for ni in 0..n {
            for ci in 0..c {
                let b = bias.data[ci];
                let base = (ni * c + ci) * hw;
                for v in &mut out.data[base..base + hw] {
                    *v += b;
                }
            }
        }
        out
    }

    /// Adds a per-column bias to a `[rows, cols]` matrix (used by `Linear`).
    ///
    /// # Panics
    ///
    /// Panics if shapes are incompatible.
    pub fn add_row_bias(&self, bias: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "add_row_bias requires a matrix");
        let (r, c) = (self.shape.dim(0), self.shape.dim(1));
        assert_eq!(bias.dims(), &[c], "bias must have shape [cols]");
        let mut out = self.clone();
        for i in 0..r {
            for j in 0..c {
                out.data[i * c + j] += bias.data[j];
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Scalar summaries
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum absolute value (0 for empty tensors).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Maximum element.
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn max(&self) -> f32 {
        assert!(!self.data.is_empty(), "max of empty tensor");
        self.data.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v))
    }

    /// Minimum element.
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn min(&self) -> f32 {
        assert!(!self.data.is_empty(), "min of empty tensor");
        self.data.iter().fold(f32::INFINITY, |m, &v| m.min(v))
    }

    /// Dot product of two same-shaped tensors viewed as flat vectors.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn dot(&self, other: &Tensor) -> f32 {
        self.assert_same_shape(other, "dot");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// Frobenius / L2 norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Returns `true` when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Returns `true` when the two tensors match elementwise within `tol`.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        let preview: Vec<String> = self
            .data
            .iter()
            .take(8)
            .map(|v| format!("{v:.4}"))
            .collect();
        write!(
            f,
            "[{}{}]",
            preview.join(", "),
            if self.numel() > 8 { ", …" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(&[2, 2]).sum(), 0.0);
        assert_eq!(Tensor::ones(&[3]).sum(), 3.0);
        assert_eq!(Tensor::full(&[2], 2.5).sum(), 5.0);
        assert_eq!(Tensor::scalar(7.0).item(), 7.0);
        let i = Tensor::eye(3);
        assert_eq!(i.sum(), 3.0);
        assert_eq!(i.at(&[1, 1]), 1.0);
        assert_eq!(i.at(&[0, 1]), 0.0);
    }

    #[test]
    fn try_from_vec_validates_length() {
        let err = Tensor::try_from_vec(vec![1.0; 3], &[2, 2]).unwrap_err();
        assert_eq!(err.expected, 4);
        assert_eq!(err.actual, 3);
        assert!(Tensor::try_from_vec(vec![1.0; 4], &[2, 2]).is_ok());
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(b.div(&a).data(), &[4.0, 2.5, 2.0]);
        assert_eq!(a.neg().data(), &[-1.0, -2.0, -3.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_shape_mismatch_panics() {
        let _ = Tensor::zeros(&[2]).add(&Tensor::zeros(&[3]));
    }

    #[test]
    fn inplace_ops() {
        let mut a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        a.axpy(2.0, &Tensor::from_vec(vec![3.0, 4.0], &[2]));
        assert_eq!(a.data(), &[7.0, 10.0]);
        a.scale_inplace(0.5);
        assert_eq!(a.data(), &[3.5, 5.0]);
        a.fill(1.0);
        assert_eq!(a.data(), &[1.0, 1.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]);
        let b = a.reshape(&[3, 2]);
        assert_eq!(b.data(), a.data());
        assert_eq!(b.dims(), &[3, 2]);
    }

    #[test]
    #[should_panic(expected = "reshape must preserve element count")]
    fn reshape_bad_count_panics() {
        Tensor::zeros(&[2, 3]).reshape(&[4]);
    }

    #[test]
    fn transpose2_round_trip() {
        let a = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]);
        let t = a.transpose2();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.at(&[2, 1]), a.at(&[1, 2]));
        assert!(t.transpose2().approx_eq(&a, 0.0));
    }

    #[test]
    fn slice_and_concat_axis0() {
        let a = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[4, 3]);
        let top = a.slice_axis0(0, 2);
        let bottom = a.slice_axis0(2, 4);
        assert_eq!(top.dims(), &[2, 3]);
        let back = Tensor::concat_axis0(&[&top, &bottom]);
        assert!(back.approx_eq(&a, 0.0));
    }

    #[test]
    fn channel_bias_broadcast() {
        let x = Tensor::zeros(&[1, 2, 2, 2]);
        let b = Tensor::from_vec(vec![1.0, -1.0], &[2]);
        let y = x.add_channel_bias(&b);
        assert_eq!(y.at(&[0, 0, 1, 1]), 1.0);
        assert_eq!(y.at(&[0, 1, 0, 0]), -1.0);
    }

    #[test]
    fn row_bias_broadcast() {
        let x = Tensor::zeros(&[2, 3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let y = x.add_row_bias(&b);
        assert_eq!(y.data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn scalar_summaries() {
        let a = Tensor::from_vec(vec![-3.0, 1.0, 2.0], &[3]);
        assert_eq!(a.max_abs(), 3.0);
        assert_eq!(a.max(), 2.0);
        assert_eq!(a.min(), -3.0);
        assert!((a.mean() - 0.0).abs() < 1e-6);
        assert!((a.norm() - (14.0f32).sqrt()).abs() < 1e-6);
        assert_eq!(a.dot(&a), 14.0);
    }

    #[test]
    fn json_decode_checks_the_shape() {
        let decode = |text: &str| csq_obs::json::parse::<Tensor>(text, "t");
        assert_eq!(
            decode(r#"{"data": [0.5, -2.0, 3.0], "shape": [3, 1]}"#),
            Ok(Tensor::from_vec(vec![0.5, -2.0, 3.0], &[3, 1]))
        );
        let err = decode(r#"{"data": [1.0, 2.0], "shape": [3]}"#).unwrap_err();
        assert!(
            err.starts_with("t: 2 values do not fill shape [3]"),
            "{err}"
        );
        let huge = format!(r#"{{"data": [], "shape": [{0}, {0}]}}"#, 1u64 << 40);
        assert!(decode(&huge).is_err());
    }

    #[test]
    fn finiteness_check() {
        let mut a = Tensor::ones(&[2]);
        assert!(a.all_finite());
        a.data_mut()[0] = f32::NAN;
        assert!(!a.all_finite());
    }
}
