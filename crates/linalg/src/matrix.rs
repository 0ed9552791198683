//! Dense row-major matrix type and basic operations.

use crate::{LinalgError, Result};

/// A dense, row-major matrix of `f64` values.
///
/// The matrix is intentionally minimal: it supports exactly the operations needed by the
/// Gaussian-process and baseline code in this workspace (products, transposes, element
/// access, row extraction and a few constructors).
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

    /// Creates a matrix of the given shape filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
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

    /// Creates a matrix from a slice of rows. All rows must have the same length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Ok(Matrix::zeros(0, 0));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::DimensionMismatch {
                    op: "from_rows",
                    lhs: (i, r.len()),
                    rhs: (0, cols),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
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

    /// Returns column `j` as a freshly allocated vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self.get(i, j)).collect()
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

    /// Returns the transpose of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.set(j, i, self.get(i, j));
            }
        }
        t
    }

    /// Matrix product `self * rhs`, cache-blocked over the contraction dimension.
    ///
    /// The `k` loop is tiled so a band of `rhs` rows stays resident in cache while every
    /// row of `self` sweeps over it; within each output element the contraction still
    /// accumulates over `k` in ascending order, so the result is bit-identical to the
    /// naive triple loop.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul",
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        const BLOCK: usize = 64;
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let mut kb = 0;
        while kb < self.cols {
            let ke = (kb + BLOCK).min(self.cols);
            for i in 0..self.rows {
                let lhs_row = self.row(i);
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (k, &a) in lhs_row.iter().enumerate().take(ke).skip(kb) {
                    if a == 0.0 {
                        continue;
                    }
                    let rhs_row = rhs.row(k);
                    for (o, &r) in out_row.iter_mut().zip(rhs_row.iter()) {
                        *o += a * r;
                    }
                }
            }
            kb = ke;
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        let mut out = vec![0.0; self.rows];
        self.matvec_into(v, &mut out)?;
        Ok(out)
    }

    /// Matrix-vector product `self * v` written into a caller-provided buffer, so hot
    /// loops can reuse one allocation across calls. `out.len()` must equal `rows()`.
    /// Bit-identical to [`Matrix::matvec`].
    pub fn matvec_into(&self, v: &[f64], out: &mut [f64]) -> Result<()> {
        if self.cols != v.len() || out.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec_into",
                lhs: (self.rows, self.cols),
                rhs: (v.len(), out.len()),
            });
        }
        for (i, out_i) in out.iter_mut().enumerate() {
            let row = self.row(i);
            let mut acc = 0.0;
            for j in 0..self.cols {
                acc += row[j] * v[j];
            }
            *out_i = acc;
        }
        Ok(())
    }

    /// Element-wise sum `self + rhs`.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "add",
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Returns `self * scalar`.
    pub fn scale(&self, scalar: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| v * scalar).collect(),
        }
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

    /// Maximum absolute difference between two matrices of equal shape.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> Result<f64> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "max_abs_diff",
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity_shapes() {
        let z = Matrix::zeros(3, 4);
        assert_eq!(z.rows(), 3);
        assert_eq!(z.cols(), 4);
        assert!(z.data().iter().all(|&v| v == 0.0));

        let i = Matrix::identity(3);
        assert!(i.is_square());
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        assert_eq!(i.get(2, 2), 1.0);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn from_rows_checks_ragged_input() {
        let err = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]);
        assert!(err.is_err());
        let ok = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(ok.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn matmul_against_hand_computed_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        assert_eq!(c.get(0, 0), 58.0);
        assert_eq!(c.get(0, 1), 64.0);
        assert_eq!(c.get(1, 0), 139.0);
        assert_eq!(c.get(1, 1), 154.0);
    }

    #[test]
    fn matmul_dimension_mismatch_is_an_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matvec_matches_matmul_with_column() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let v = vec![5.0, 6.0];
        let mv = a.matvec(&v).unwrap();
        assert_eq!(mv, vec![17.0, 39.0]);
    }

    #[test]
    fn matvec_into_reuses_buffer_and_matches_matvec() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let mut out = vec![9.0, 9.0];
        a.matvec_into(&[5.0, 6.0], &mut out).unwrap();
        assert_eq!(out, a.matvec(&[5.0, 6.0]).unwrap());
        let mut wrong = vec![0.0; 3];
        assert!(a.matvec_into(&[5.0, 6.0], &mut wrong).is_err());
        assert!(a.matvec_into(&[5.0], &mut out).is_err());
    }

    #[test]
    fn blocked_matmul_matches_naive_on_sizes_spanning_block_boundaries() {
        // 70×70 crosses the 64-wide contraction block; the blocked product must equal
        // the naive triple loop exactly (same ascending-k accumulation order).
        let n = 70;
        let a = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 13) as f64 * 0.25 - 1.0);
        let b = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 29) % 11) as f64 * 0.5 - 2.0);
        let blocked = a.matmul(&b).unwrap();
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    let v = a.get(i, k);
                    if v == 0.0 {
                        continue;
                    }
                    acc += v * b.get(k, j);
                }
                assert_eq!(blocked.get(i, j).to_bits(), acc.to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn identity_is_matmul_neutral() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
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
