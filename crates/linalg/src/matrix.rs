//! Dense row-major matrix type and basic operations.

use crate::{LinalgError, Result};

/// A dense, row-major matrix of `f64` values.
///
/// The matrix is intentionally minimal: it supports exactly the operations needed by the
/// Gaussian-process and baseline code in this workspace (element access, row extraction,
/// a diagonal shift and a few constructors).
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Default for Matrix {
    /// The empty `0×0` matrix — the initial state of reusable matrix buffers
    /// (e.g. fit arenas) before their first [`Matrix::reshape`].
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl Matrix {
    /// Creates a matrix of the given shape filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                op: "from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a square matrix by evaluating `f(i, j)` for every entry.
    ///
    /// This is the main entry point used to build Gram (kernel) matrices.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Returns the element at (`i`, `j`).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Sets the element at (`i`, `j`).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = value;
    }

    /// Returns row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns the underlying row-major data slice.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Reshapes the matrix to `rows × cols` **without zeroing**, reusing the existing
    /// allocation whenever its capacity suffices. Entry values after a reshape are
    /// unspecified (a mix of old data and zeros); callers must overwrite every entry
    /// they read. This is the entry point for reusable Gram-matrix buffers in fit hot
    /// loops: after the first call at a given size, reshaping is allocation-free.
    pub fn reshape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Adds `value` to every diagonal element in place (used to add observation noise /
    /// jitter to kernel matrices). Requires a square matrix.
    pub fn add_diagonal(&mut self, value: f64) -> Result<()> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        for i in 0..self.rows {
            let v = self.get(i, i) + value;
            self.set(i, i, v);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape() {
        let z = Matrix::zeros(3, 4);
        assert_eq!(z.rows(), 3);
        assert_eq!(z.cols(), 4);
        assert!(!z.is_square());
        assert!(z.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn add_diagonal_requires_square() {
        let mut a = Matrix::zeros(2, 3);
        assert!(a.add_diagonal(1.0).is_err());
        let mut b = Matrix::zeros(2, 2);
        b.add_diagonal(0.5).unwrap();
        assert_eq!(b.get(0, 0), 0.5);
        assert_eq!(b.get(1, 1), 0.5);
        assert_eq!(b.get(0, 1), 0.0);
    }

    #[test]
    fn reshape_reuses_capacity_and_sets_dimensions() {
        let mut m = Matrix::zeros(4, 4);
        let ptr = m.data.as_ptr();
        m.reshape(2, 3);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(
            m.data.as_ptr(),
            ptr,
            "shrinking reshape must not reallocate"
        );
        m.reshape(4, 4);
        assert_eq!(
            m.data.as_ptr(),
            ptr,
            "regrowth within capacity must not reallocate"
        );
    }
}
