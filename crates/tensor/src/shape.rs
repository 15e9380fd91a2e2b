//! Shape algebra for dense tensors.

use serde::Serialize;

/// The extents of a tensor along each axis, in row-major order.
///
/// A `Shape` is a thin wrapper over a `Vec<usize>` that adds the small
/// amount of algebra the rest of the workspace needs: element counts,
/// row-major strides and flat-index conversion.
///
/// # Example
///
/// ```
/// use csq_tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.numel(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// assert_eq!(s.flat_index(&[1, 2, 3]), 23);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from a slice of extents.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// A scalar (rank-0) shape with a single element.
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// The extents along each axis.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of extents; 1 for rank 0).
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Extent along axis `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= rank()`.
    pub fn dim(&self, axis: usize) -> usize {
        self.0[axis]
    }

    /// Row-major strides (in elements, not bytes).
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Converts a multi-index to a flat row-major offset.
    ///
    /// # Panics
    ///
    /// Panics if `idx.len() != rank()` or any coordinate is out of range
    /// (debug builds only for the range check).
    pub fn flat_index(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.rank(), "index rank mismatch");
        let strides = self.strides();
        let mut flat = 0;
        for (i, (&coord, &stride)) in idx.iter().zip(strides.iter()).enumerate() {
            debug_assert!(coord < self.0[i], "index {coord} out of range on axis {i}");
            flat += coord * stride;
        }
        flat
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_of_scalar_is_one() {
        assert_eq!(Shape::scalar().numel(), 1);
        assert_eq!(Shape::scalar().rank(), 0);
    }

    #[test]
    fn numel_of_empty_axis_is_zero() {
        assert_eq!(Shape::new(&[3, 0, 2]).numel(), 0);
    }

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        let s1 = Shape::new(&[5]);
        assert_eq!(s1.strides(), vec![1]);
    }

    #[test]
    fn flat_index_round_trip() {
        let s = Shape::new(&[2, 3, 4]);
        let mut seen = std::collections::HashSet::new();
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    let flat = s.flat_index(&[i, j, k]);
                    assert!(flat < s.numel());
                    assert!(seen.insert(flat), "duplicate flat index");
                }
            }
        }
        assert_eq!(seen.len(), 24);
    }

    #[test]
    #[should_panic(expected = "index rank mismatch")]
    fn flat_index_rank_mismatch_panics() {
        Shape::new(&[2, 2]).flat_index(&[1]);
    }

    #[test]
    fn display_formats_like_slice() {
        assert_eq!(Shape::new(&[2, 3]).to_string(), "[2, 3]");
        assert_eq!(Shape::scalar().to_string(), "[]");
    }

    #[test]
    fn conversions() {
        let v = vec![4usize, 5];
        let s: Shape = v.clone().into();
        assert_eq!(s.dims(), &[4, 5]);
        let s2: Shape = v.as_slice().into();
        assert_eq!(s, s2);
    }
}
