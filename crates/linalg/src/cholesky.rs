//! Cholesky factorization of symmetric positive-definite matrices and the associated
//! solves used by Gaussian-process regression.
//!
//! Besides the from-scratch factorization, the factor supports two incremental
//! operations that keep online GP updates at `O(n²)` per observation instead of `O(n³)`:
//!
//! * [`Cholesky::extend`] — append one row/column to the factored matrix, and
//! * [`Cholesky::rank_one_update`] — replace the factored matrix `A` by `A + v vᵀ`.
//!
//! `extend` performs the *same* floating-point operations, in the same order, that
//! [`Cholesky::decompose`] would perform for the appended row, so a factor grown
//! incrementally is bit-identical to one computed from scratch on the full matrix
//! (given the same diagonal jitter). Snapshot/replay determinism across the workspace
//! relies on this property.
//!
//! # Blocked factorization
//!
//! [`Cholesky::decompose`] is a right-looking *blocked* factorization: panels of
//! 64 columns are factorized in place, then the trailing submatrix is updated one
//! cache-resident panel at a time (the SYRK step), in the same cache-tiled contraction
//! style as [`Matrix::matmul`]. Within every output element the subtraction over `k`
//! still runs in strictly ascending order starting from `A[i][j]` (+ jitter on the
//! diagonal), so the blocked factor is **bit-identical** to the textbook row-by-row
//! recurrence — which is retained as [`Cholesky::decompose_reference`] and
//! property-tested against the blocked path. Because `extend` replays that same
//! recurrence, factors grown incrementally remain bit-identical to blocked from-scratch
//! factorizations.
//!
//! # Allocation discipline
//!
//! The fit hot loops (hyper-parameter trials, periodic refits) factorize thousands of
//! matrices of the same size. [`FactorScratch`] recycles factor storage across
//! factorizations ([`Cholesky::decompose_with_jitter`] takes its buffer from the
//! scratch, [`Cholesky::into_scratch`] returns it), jitter escalation reuses one buffer
//! across all attempts, and [`Cholesky::extend`] grows the factor in place
//! ([`Matrix::grow_square`]) — so in steady state none of these operations allocate.

use crate::{LinalgError, Matrix, Result};

/// Panel width of the blocked factorization. One `BLOCK`-wide row panel is 512 bytes, so
/// the trailing-update sweep for one output row streams the panel rows of the whole
/// trailing block through cache once (≈ `n/2` panels on average), instead of re-reading
/// full-length rows as the textbook recurrence does. Matches [`Matrix::matmul`]'s tile.
const BLOCK: usize = 64;

/// Applies one panel's trailing (SYRK) update to the rows `ke..n` of the row-major
/// `n×n` factor storage `dst`; `syrk` is the transposed panel (read-only).
///
/// Row `i` reads its own panel block (`L[i][kb..ke]`) and the shared `syrk` transpose,
/// and writes only `L[i][ke..=i]`. Every element accumulates its ascending-k
/// subtraction chain in its own memory cell, which is what keeps the blocked factor
/// bit-identical to [`Cholesky::decompose_reference`].
fn trailing_update(dst: &mut [f64], n: usize, kb: usize, ke: usize, syrk: &[f64]) {
    let pw = ke - kb;
    let tw = n - ke;
    let mut panel = [0.0f64; BLOCK];
    let mut panel2 = [0.0f64; BLOCK];
    // Two output rows per pass share each lane load (rows are independent; every
    // element still accumulates its own ascending-k chain). An odd last row falls to
    // the scalar remainder — pairing never changes per-element order.
    let mut i = ke;
    while i + 2 <= n {
        panel[..pw].copy_from_slice(&dst[i * n + kb..i * n + ke]);
        panel2[..pw].copy_from_slice(&dst[(i + 1) * n + kb..(i + 1) * n + ke]);
        let len0 = i - ke + 1;
        let (row_i, rest) = dst[i * n + ke..].split_at_mut(n);
        let row_i = &mut row_i[..len0];
        let row_j = &mut rest[..len0 + 1];
        for k in 0..pw {
            let p0 = panel[k];
            let p1 = panel2[k];
            let lane = &syrk[k * tw..k * tw + len0 + 1];
            for ((o0, o1), &t) in row_i.iter_mut().zip(row_j.iter_mut()).zip(lane.iter()) {
                *o0 -= p0 * t;
                *o1 -= p1 * t;
            }
            row_j[len0] -= p1 * lane[len0];
        }
        i += 2;
    }
    while i < n {
        panel[..pw].copy_from_slice(&dst[i * n + kb..i * n + ke]);
        let row_i = &mut dst[i * n + ke..i * n + i + 1];
        let len = i - ke + 1;
        for (k, &pik) in panel[..pw].iter().enumerate() {
            let lane = &syrk[k * tw..k * tw + len];
            for (o, &t) in row_i.iter_mut().zip(lane.iter()) {
                *o -= pik * t;
            }
        }
        i += 1;
    }
}

/// Reusable storage for Cholesky factorizations.
///
/// Holds the backing buffer of a previously retired factor so the next
/// [`Cholesky::decompose_with_jitter`] can reuse the allocation, plus nothing
/// else — the blocked factorization itself works fully in place. Create one per
/// fit arena / worker and thread it through every factorization of that loop:
///
/// ```
/// use linalg::{Cholesky, FactorScratch, Matrix};
/// let a = Matrix::identity(8);
/// let mut scratch = FactorScratch::default();
/// for _ in 0..3 {
///     let c = Cholesky::decompose_with_jitter(&a, 1e-3, &mut scratch).unwrap();
///     // ... use the factor ...
///     c.into_scratch(&mut scratch); // recycle the buffer; the next decompose is allocation-free
/// }
/// ```
#[derive(Debug, Default)]
pub struct FactorScratch {
    /// Spare factor storage recycled between factorizations.
    spare: Vec<f64>,
    /// Transposed-panel workspace of the blocked trailing update (≤ 64·n values).
    syrk: Vec<f64>,
}

/// A lower-triangular Cholesky factor `L` such that `A = L * L^T`.
///
/// Gaussian-process regression repeatedly needs `(K + σ²I)^{-1} y`,
/// `(K + σ²I)^{-1} k_*` and `log |K + σ²I|`; all of these are computed from one Cholesky
/// factorization. When the input matrix is only *numerically* positive definite (a common
/// situation with nearly-duplicated configurations), [`Cholesky::decompose_with_jitter`]
/// retries with exponentially growing diagonal jitter before giving up.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
    /// Jitter that had to be added to the diagonal for the factorization to succeed.
    jitter: f64,
}

impl Cholesky {
    /// Factorizes a symmetric positive-definite matrix with the blocked algorithm.
    ///
    /// Bit-identical to [`Cholesky::decompose_reference`] (see the module docs for why);
    /// `O(n³)` with cache-blocked memory traffic.
    pub fn decompose(a: &Matrix) -> Result<Self> {
        let mut l = Matrix::default();
        let mut syrk = Vec::new();
        Self::factorize_into(a, 0.0, &mut l, &mut syrk)?;
        Ok(Cholesky { l, jitter: 0.0 })
    }

    /// The textbook row-by-row factorization, retained as the bit-identity reference for
    /// the blocked [`Cholesky::decompose`] (tested against it in this module). Not used on
    /// any hot path.
    pub fn decompose_reference(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a.get(i, j);
                for k in 0..j {
                    sum -= l.get(i, k) * l.get(j, k);
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite {
                            pivot: i,
                            value: sum,
                        });
                    }
                    l.set(i, j, sum.sqrt());
                } else {
                    l.set(i, j, sum / l.get(j, j));
                }
            }
        }
        Ok(Cholesky { l, jitter: 0.0 })
    }

    /// Factorizes `a`, retrying with diagonal jitter `1e-10, 1e-9, ... , max_jitter` if the
    /// plain factorization fails. Returns the factor and records the jitter used.
    ///
    /// The factor storage comes from `scratch`, and all escalation attempts reuse that
    /// one buffer. In steady state (scratch recycled via [`Cholesky::into_scratch`] and
    /// the dimension not growing beyond the largest seen) this performs **no
    /// allocation**, which is what keeps hyper-parameter-optimization trial loops
    /// allocation-free. A one-off caller passes `&mut FactorScratch::default()`.
    pub fn decompose_with_jitter(
        a: &Matrix,
        max_jitter: f64,
        scratch: &mut FactorScratch,
    ) -> Result<Self> {
        let mut spare = std::mem::take(&mut scratch.spare);
        spare.clear(); // keep the capacity, drop stale contents so `from_vec(0, 0, …)` accepts it
        let mut l = Matrix::from_vec(0, 0, spare).expect("cleared buffer has length 0");
        let syrk = &mut scratch.syrk;
        if Self::factorize_into(a, 0.0, &mut l, syrk).is_ok() {
            return Ok(Cholesky { l, jitter: 0.0 });
        }
        let mut jitter = 1e-10;
        while jitter <= max_jitter {
            if Self::factorize_into(a, jitter, &mut l, syrk).is_ok() {
                return Ok(Cholesky { l, jitter });
            }
            jitter *= 10.0;
        }
        // Return the buffer so the failed call is also allocation-free next time.
        scratch.spare = l.into_data();
        Err(LinalgError::NotPositiveDefinite {
            pivot: 0,
            value: f64::NAN,
        })
    }

    /// Retires the factor, returning its backing storage to `scratch` so the next
    /// [`Cholesky::decompose_with_jitter`] can reuse the allocation.
    pub fn into_scratch(self, scratch: &mut FactorScratch) {
        let data = self.l.into_data();
        if data.capacity() > scratch.spare.capacity() {
            scratch.spare = data;
        }
    }

    /// The blocked in-place factorization kernel. `l` is reshaped to `n×n` (reusing its
    /// allocation when possible), seeded with `a`'s lower triangle (+ `jitter` on the
    /// diagonal, strict upper zeroed) and overwritten with the factor.
    ///
    /// Bit-identity invariant: every output element's value is produced by the exact
    /// floating-point sequence of the reference recurrence — start from `A[i][j]`
    /// (+ jitter if `i == j`), subtract `L[i][k]·L[j][k]` for `k = 0, 1, …, j−1` in
    /// ascending order, then divide by `L[j][j]` (or take the square root). The blocked
    /// schedule only changes *when* each subtraction happens (earlier panels' trailing
    /// updates land before the panel factorization finishes the column), never the
    /// per-element order, and each element accumulates in a single scalar so no
    /// reassociation occurs.
    fn factorize_into(a: &Matrix, jitter: f64, l: &mut Matrix, syrk: &mut Vec<f64>) -> Result<()> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        l.reshape(n, n);
        let src = a.data();
        let dst = l.data_mut();
        for i in 0..n {
            let row = &mut dst[i * n..(i + 1) * n];
            row[..=i].copy_from_slice(&src[i * n..i * n + i + 1]);
            row[i] += jitter;
            row[i + 1..].iter_mut().for_each(|v| *v = 0.0);
        }

        let mut panel = [0.0f64; BLOCK];
        let mut kb = 0;
        while kb < n {
            let ke = (kb + BLOCK).min(n);
            let pw = ke - kb;

            // Panel factorization: columns kb..ke over every row below, column by column.
            // Element (i, j) has already received its k < kb subtractions from earlier
            // trailing updates; this step adds k = kb..j (ascending) and the divide/sqrt.
            for j in kb..ke {
                let pivot = {
                    let row_j = &dst[j * n + kb..j * n + j + 1];
                    let mut s = row_j[j - kb];
                    for &v in &row_j[..j - kb] {
                        s -= v * v;
                    }
                    if s <= 0.0 || !s.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite { pivot: j, value: s });
                    }
                    s.sqrt()
                };
                dst[j * n + j] = pivot;
                panel[..j - kb].copy_from_slice(&dst[j * n + kb..j * n + j]);
                let col_len = j - kb;
                // Four rows per pass: each row's subtraction chain is per-element
                // ascending-k (bit-identity preserved), and the four chains are
                // independent, so they overlap on the FP units instead of serializing —
                // this column sweep is latency-bound, not bandwidth-bound. The split
                // chain carves four disjoint row windows out of the flat buffer (each
                // window starts at its row's `kb` and only the first `col_len + 1`
                // entries are touched, so spilling past the row end is harmless).
                let mut i = j + 1;
                while i + 4 <= n {
                    let (r0, rest) = dst[i * n + kb..].split_at_mut(n);
                    let (r1, rest) = rest.split_at_mut(n);
                    let (r2, r3) = rest.split_at_mut(n);
                    let mut s0 = r0[col_len];
                    let mut s1 = r1[col_len];
                    let mut s2 = r2[col_len];
                    let mut s3 = r3[col_len];
                    for (k, &pv) in panel[..col_len].iter().enumerate() {
                        s0 -= r0[k] * pv;
                        s1 -= r1[k] * pv;
                        s2 -= r2[k] * pv;
                        s3 -= r3[k] * pv;
                    }
                    r0[col_len] = s0 / pivot;
                    r1[col_len] = s1 / pivot;
                    r2[col_len] = s2 / pivot;
                    r3[col_len] = s3 / pivot;
                    i += 4;
                }
                while i < n {
                    let ri = &mut dst[i * n + kb..i * n + j + 1];
                    let mut s = ri[col_len];
                    for (rv, pv) in ri[..col_len].iter().zip(panel[..col_len].iter()) {
                        s -= rv * pv;
                    }
                    ri[col_len] = s / pivot;
                    i += 1;
                }
            }

            // Trailing (SYRK) update: subtract this panel's contribution
            // `Σ_{k=kb..ke} L[i][k]·L[j][k]` from every element (i, j) with
            // `ke ≤ j ≤ i`. The trailing rows' panel block is first transposed into
            // `syrk` (lane-major: `syrk[k·tw + (j−ke)] = L[j][kb+k]`, an O(n²)-per-panel
            // copy), which turns each row's update into `pw` contiguous axpy sweeps —
            // `row_i[j] -= L[i][k] · syrk_k[j]` — the same vectorizable contraction
            // pattern as `Matrix::matmul`. Element (i, j) still accumulates its
            // subtractions for `k = kb…ke` in ascending order (one per sweep, in its
            // own memory cell), so the result is bit-identical to the reference
            // recurrence; only the schedule is vector-friendly.
            let tw = n - ke;
            if tw > 0 {
                syrk.resize(pw * tw, 0.0);
                for (jj, j) in (ke..n).enumerate() {
                    let row = &dst[j * n + kb..j * n + ke];
                    for (k, &v) in row.iter().enumerate() {
                        syrk[k * tw + jj] = v;
                    }
                }
                trailing_update(dst, n, kb, ke, syrk);
            }
            kb = ke;
        }
        Ok(())
    }

    /// Appends one row/column to the factored matrix in `O(n²)`.
    ///
    /// `row` is the new last row of the *extended* matrix `A'`: `row[j] = A'[n][j]` for
    /// `j < n` and `row[n]` is the new diagonal element. The jitter recorded at
    /// factorization time is added to the new diagonal so the extended factor is exactly
    /// the factor of the extended jittered matrix.
    ///
    /// The appended row is computed with the same operations, in the same order, that
    /// [`Cholesky::decompose`] would use, so the result is bit-identical to a
    /// from-scratch factorization of `A'` with the same jitter. On failure (the new
    /// pivot is non-positive or non-finite, e.g. the appended point is numerically
    /// dependent on existing ones) the factor is left unchanged and the caller should
    /// fall back to a full [`Cholesky::decompose_with_jitter`].
    pub fn extend(&mut self, row: &[f64]) -> Result<()> {
        let n = self.dim();
        if row.len() != n + 1 {
            return Err(LinalgError::DimensionMismatch {
                op: "extend",
                lhs: (n + 1, n + 1),
                rhs: (row.len(), 1),
            });
        }
        // Grow the factor in place (amortized allocation-free; the new last row and
        // column arrive zeroed) and compute the appended row directly into the last
        // row's storage. On a failed pivot the growth is rolled back, leaving the
        // factor unchanged as documented.
        self.l.grow_square()?;
        let m = n + 1;
        #[allow(clippy::needless_range_loop)] // mirrors decompose's index recurrence
        for j in 0..=n {
            let mut sum = row[j];
            if j == n {
                sum += self.jitter;
            }
            for k in 0..j {
                let ljk = self.l.get(j, k); // row n reads its own already-written prefix
                sum -= self.l.get(n, k) * ljk;
            }
            if j == n {
                if sum <= 0.0 || !sum.is_finite() {
                    self.l.shrink_square().expect("grown factor shrinks back");
                    return Err(LinalgError::NotPositiveDefinite {
                        pivot: n,
                        value: sum,
                    });
                }
                self.l.set(n, n, sum.sqrt());
            } else {
                self.l.set(n, j, sum / self.l.get(j, j));
            }
        }
        debug_assert_eq!(self.l.rows(), m);
        Ok(())
    }

    /// Rank-1 update: replaces the factored matrix `A = L Lᵀ` by `A + v vᵀ` in `O(n²)`.
    ///
    /// Uses the standard hyperbolic-rotation-free update (a sequence of Givens-like
    /// scalings), which is unconditionally stable because `A + v vᵀ` remains positive
    /// definite. The factor is only replaced when every pivot stays finite; otherwise an
    /// error is returned and the factor is left unchanged.
    pub fn rank_one_update(&mut self, v: &[f64]) -> Result<()> {
        let n = self.dim();
        if v.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "rank_one_update",
                lhs: (n, n),
                rhs: (v.len(), 1),
            });
        }
        let mut l = self.l.clone();
        let mut work = v.to_vec();
        for k in 0..n {
            let lkk = l.get(k, k);
            let r = (lkk * lkk + work[k] * work[k]).sqrt();
            if r <= 0.0 || !r.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: k, value: r });
            }
            let c = r / lkk;
            let s = work[k] / lkk;
            l.set(k, k, r);
            #[allow(clippy::needless_range_loop)] // work[i] and l(i, k) advance in lockstep
            for i in (k + 1)..n {
                let lik = (l.get(i, k) + s * work[i]) / c;
                work[i] = c * work[i] - s * lik;
                l.set(i, k, lik);
            }
        }
        self.l = l;
        Ok(())
    }

    /// The lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// The diagonal jitter that was added before factorization (0.0 when none was needed).
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `L x = b` (forward substitution).
    pub fn solve_lower(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "solve_lower",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        let mut x = vec![0.0; n];
        #[allow(clippy::needless_range_loop)] // triangular solves read x[j] while filling x[i]
        for i in 0..n {
            let mut sum = b[i];
            for j in 0..i {
                sum -= self.l.get(i, j) * x[j];
            }
            let d = self.l.get(i, i);
            if d == 0.0 {
                return Err(LinalgError::Singular);
            }
            x[i] = sum / d;
        }
        Ok(x)
    }

    /// Solves `L^T x = b` (backward substitution).
    pub fn solve_upper(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "solve_upper",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        let mut x = vec![0.0; n];
        #[allow(clippy::needless_range_loop)] // triangular solves read x[j] while filling x[i]
        for i in (0..n).rev() {
            let mut sum = b[i];
            for j in (i + 1)..n {
                sum -= self.l.get(j, i) * x[j];
            }
            let d = self.l.get(i, i);
            if d == 0.0 {
                return Err(LinalgError::Singular);
            }
            x[i] = sum / d;
        }
        Ok(x)
    }

    /// Solves `A x = b` where `A = L L^T`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let y = self.solve_lower(b)?;
        self.solve_upper(&y)
    }

    /// Solves `A x = b` into a caller-provided buffer (`out` is resized to `dim()`),
    /// bit-identical to [`Cholesky::solve`]: both substitution sweeps update each entry
    /// after its dependencies are final, so running them in place over one buffer
    /// performs exactly the scalar solves' operations in the same order. Hot fit loops
    /// use this to re-solve dual weights without allocating.
    pub fn solve_into(&self, b: &[f64], out: &mut Vec<f64>) -> Result<()> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "solve_into",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        out.clear();
        out.extend_from_slice(b);
        let x = out.as_mut_slice();
        // Forward sweep (solve_lower): x[i] depends on x[j] for j < i, already final.
        for i in 0..n {
            let li = self.l.row(i);
            let d = li[i];
            if d == 0.0 {
                return Err(LinalgError::Singular);
            }
            let mut sum = x[i];
            for (lij, xj) in li[..i].iter().zip(x[..i].iter()) {
                sum -= lij * xj;
            }
            x[i] = sum / d;
        }
        // Backward sweep (solve_upper): x[i] depends on x[j] for j > i, already final.
        for i in (0..n).rev() {
            let d = self.l.get(i, i);
            if d == 0.0 {
                return Err(LinalgError::Singular);
            }
            let mut sum = x[i];
            #[allow(clippy::needless_range_loop)] // column access: x[j] pairs with L[j][i]
            for j in (i + 1)..n {
                sum -= self.l.get(j, i) * x[j];
            }
            x[i] = sum / d;
        }
        Ok(())
    }

    /// Multi-RHS forward substitution: solves `L xᵣ = bᵣ` for every **row** `bᵣ` of `b`.
    ///
    /// `b` is an `m × n` matrix holding one right-hand side per row (`n = dim()`), and the
    /// result has the same layout. Row-major storage keeps each right-hand side contiguous,
    /// which is the natural layout for the `C × n` cross-kernel matrices batched GP
    /// prediction produces.
    ///
    /// Rows are solved sixteen at a time per sweep over `L`. Each group is transposed
    /// into lane-major layout (`t[j·16 + r]` holds lane `r`'s element `j`), so one
    /// factor element `L[i][j]` drives one contiguous 16-wide multiply-subtract: the
    /// sixteen forward recurrences are independent, which both vectorizes across lanes
    /// and overlaps their serial reduction chains — a scalar forward solve is bound by
    /// the latency of its single floating-point add chain, which is exactly what the
    /// per-candidate suggest loop used to pay `C` times. A final partial group is
    /// padded with zero lanes (discarded afterwards) so every row takes the fast path.
    ///
    /// SIMD across lanes does **not** reassociate within a lane: each lane performs the
    /// operations of the scalar [`Cholesky::solve_lower`], in the same order, so row
    /// `r` of the result is bit-identical to `solve_lower(b.row(r))`.
    pub fn solve_lower_multi(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.cols() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "solve_lower_multi",
                lhs: (n, n),
                rhs: (b.rows(), b.cols()),
            });
        }
        const LANES: usize = 16;
        let m = b.rows();
        let mut out: Vec<f64> = b.data().to_vec();
        let mut t = vec![0.0; LANES * n];
        let mut rb = 0;
        while rb < m {
            let g = LANES.min(m - rb);
            if g < LANES {
                // Partial group: the padding lanes run the recurrence on zeros and are
                // never copied back.
                t.iter_mut().for_each(|v| *v = 0.0);
            }
            for r in 0..g {
                for j in 0..n {
                    t[j * LANES + r] = out[(rb + r) * n + j];
                }
            }
            for i in 0..n {
                let li = self.l.row(i);
                let d = li[i];
                if d == 0.0 {
                    return Err(LinalgError::Singular);
                }
                let mut sums: [f64; LANES] = t[i * LANES..(i + 1) * LANES]
                    .try_into()
                    .expect("lane slice has LANES elements");
                // `chunks_exact` tells the optimizer every `tj` is exactly LANES wide,
                // so the lane loop compiles to branch-free vector code.
                for (&lij, tj) in li[..i].iter().zip(t.chunks_exact(LANES)) {
                    for (s, x) in sums.iter_mut().zip(tj.iter()) {
                        *s -= lij * x;
                    }
                }
                for (r, s) in sums.iter().enumerate() {
                    t[i * LANES + r] = s / d;
                }
            }
            for r in 0..g {
                for j in 0..n {
                    out[(rb + r) * n + j] = t[j * LANES + r];
                }
            }
            rb += g;
        }
        Matrix::from_vec(m, n, out)
    }

    /// Multi-RHS backward substitution: solves `Lᵀ xᵣ = bᵣ` for every **row** `bᵣ` of `b`
    /// (same layout contract as [`Cholesky::solve_lower_multi`]).
    ///
    /// The backward sweep reads a *column* of `L` per pivot; it is gathered into a scratch
    /// buffer once per pivot and reused across all right-hand sides, so the strided column
    /// loads are paid once instead of once per row. Each row's floating-point operations
    /// match the scalar [`Cholesky::solve_upper`] exactly, so row `r` of the result is
    /// bit-identical to `solve_upper(b.row(r))`.
    pub fn solve_upper_multi(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.cols() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "solve_upper_multi",
                lhs: (n, n),
                rhs: (b.rows(), b.cols()),
            });
        }
        let m = b.rows();
        let mut out: Vec<f64> = b.data().to_vec();
        let mut col = vec![0.0; n];
        for i in (0..n).rev() {
            let d = self.l.get(i, i);
            if d == 0.0 {
                return Err(LinalgError::Singular);
            }
            for (j, c) in col.iter_mut().enumerate().take(n).skip(i + 1) {
                *c = self.l.get(j, i);
            }
            for r in 0..m {
                let x = &mut out[r * n..(r + 1) * n];
                let mut sum = x[i];
                for j in (i + 1)..n {
                    sum -= col[j] * x[j];
                }
                x[i] = sum / d;
            }
        }
        Matrix::from_vec(m, n, out)
    }

    /// Multi-RHS solve of `A xᵣ = bᵣ` (`A = L Lᵀ`) for every row of `b`: forward then
    /// backward substitution, each row bit-identical to the scalar [`Cholesky::solve`].
    pub fn solve_multi(&self, b: &Matrix) -> Result<Matrix> {
        let y = self.solve_lower_multi(b)?;
        self.solve_upper_multi(&y)
    }

    /// Log-determinant of `A = L L^T`: `2 * Σ log(L_ii)`.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l.get(i, i).ln()).sum::<f64>() * 2.0
    }

    /// Computes the inverse of the factored matrix. Only used in tests and diagnostics —
    /// solves should be preferred in hot paths.
    pub fn inverse(&self) -> Result<Matrix> {
        let n = self.dim();
        let mut inv = Matrix::zeros(n, n);
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            let col = self.solve(&e)?;
            for (i, &v) in col.iter().enumerate().take(n) {
                inv.set(i, j, v);
            }
        }
        Ok(inv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = B^T B + I for B with distinct rows, guaranteed SPD.
        Matrix::from_vec(3, 3, vec![4.0, 2.0, 0.6, 2.0, 5.0, 1.0, 0.6, 1.0, 3.0]).unwrap()
    }

    #[test]
    fn reconstruction_matches_input() {
        let a = spd3();
        let c = Cholesky::decompose(&a).unwrap();
        let l = c.factor();
        let rec = l.matmul(&l.transpose()).unwrap();
        assert!(rec.max_abs_diff(&a).unwrap() < 1e-10);
        assert_eq!(c.jitter(), 0.0);
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd3();
        let c = Cholesky::decompose(&a).unwrap();
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.matvec(&x_true).unwrap();
        let x = c.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(x_true.iter()) {
            assert!((xi - ti).abs() < 1e-10, "{xi} vs {ti}");
        }
    }

    #[test]
    fn log_det_matches_known_value() {
        // det of diag(2, 3, 4) is 24.
        let a = Matrix::from_vec(3, 3, vec![2.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0, 4.0]).unwrap();
        let c = Cholesky::decompose(&a).unwrap();
        assert!((c.log_det() - 24.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn non_spd_matrix_is_rejected() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]).unwrap(); // eigenvalues 3, -1
        assert!(Cholesky::decompose(&a).is_err());
    }

    #[test]
    fn jitter_rescues_near_singular_matrix() {
        // Rank-deficient Gram matrix of duplicated points.
        let a = Matrix::from_vec(2, 2, vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        let c = Cholesky::decompose_with_jitter(&a, 1e-2, &mut FactorScratch::default()).unwrap();
        assert!(c.jitter() > 0.0);
        let x = c.solve(&[1.0, 1.0]).unwrap();
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn rectangular_matrix_is_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::decompose(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn extend_from_empty_factor_grows_to_one() {
        // 0 → 1 growth: an empty factor extended with a single diagonal element.
        let mut c = Cholesky::decompose(&Matrix::zeros(0, 0)).unwrap();
        assert_eq!(c.dim(), 0);
        c.extend(&[4.0]).unwrap();
        assert_eq!(c.dim(), 1);
        assert_eq!(c.factor().get(0, 0), 2.0);
        let x = c.solve(&[6.0]).unwrap();
        assert_eq!(x, vec![1.5]);
    }

    #[test]
    fn extend_matches_from_scratch_bitwise() {
        let a = spd3();
        // Factor the leading 2x2 block, then extend by the third row: the result must be
        // bit-identical to factoring the full 3x3 matrix.
        let lead = Matrix::from_fn(2, 2, |i, j| a.get(i, j));
        let mut c = Cholesky::decompose(&lead).unwrap();
        c.extend(&[a.get(2, 0), a.get(2, 1), a.get(2, 2)]).unwrap();
        let full = Cholesky::decompose(&a).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(c.factor().get(i, j), full.factor().get(i, j), "({i},{j})");
            }
        }
    }

    #[test]
    fn extend_with_dependent_row_fails_and_leaves_factor_unchanged() {
        // Appending a duplicate of an existing point makes the new pivot exactly 0: the
        // extension must fail so the caller can fall back to a jittered full
        // re-decomposition.
        let a = Matrix::identity(2);
        let mut c = Cholesky::decompose(&a).unwrap();
        let before = c.factor().clone();
        assert!(matches!(
            c.extend(&[1.0, 0.0, 1.0]),
            Err(LinalgError::NotPositiveDefinite { pivot: 2, .. })
        ));
        assert_eq!(c.dim(), 2);
        assert!(c.factor().max_abs_diff(&before).unwrap() == 0.0);
        // The fallback the GP layer uses: re-decompose the extended matrix with jitter.
        let ext =
            Matrix::from_vec(3, 3, vec![1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]).unwrap();
        let rescued =
            Cholesky::decompose_with_jitter(&ext, 1e-2, &mut FactorScratch::default()).unwrap();
        assert!(rescued.jitter() > 0.0);
    }

    #[test]
    fn extend_wrong_length_is_rejected() {
        let mut c = Cholesky::decompose(&spd3()).unwrap();
        assert!(matches!(
            c.extend(&[1.0, 2.0]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn extend_preserves_jitter_on_the_new_diagonal() {
        // A factor produced with jitter must add the same jitter to appended diagonals,
        // so that the extended factor equals the from-scratch factor of the jittered
        // extended matrix.
        let a = Matrix::from_vec(2, 2, vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        let mut c =
            Cholesky::decompose_with_jitter(&a, 1e-2, &mut FactorScratch::default()).unwrap();
        let j = c.jitter();
        assert!(j > 0.0);
        c.extend(&[0.5, 0.5, 2.0]).unwrap();
        let mut ext =
            Matrix::from_vec(3, 3, vec![1.0, 1.0, 0.5, 1.0, 1.0, 0.5, 0.5, 0.5, 2.0]).unwrap();
        ext.add_diagonal(j).unwrap();
        let scratch = Cholesky::decompose(&ext).unwrap();
        assert!(c.factor().max_abs_diff(scratch.factor()).unwrap() < 1e-14);
    }

    #[test]
    fn rank_one_update_matches_direct_factorization() {
        let a = spd3();
        let mut c = Cholesky::decompose(&a).unwrap();
        let v = [0.5, -1.0, 2.0];
        c.rank_one_update(&v).unwrap();
        let mut updated = a.clone();
        for i in 0..3 {
            for j in 0..3 {
                updated.set(i, j, updated.get(i, j) + v[i] * v[j]);
            }
        }
        let direct = Cholesky::decompose(&updated).unwrap();
        assert!(c.factor().max_abs_diff(direct.factor()).unwrap() < 1e-10);
        assert!((c.log_det() - direct.log_det()).abs() < 1e-10);
    }

    #[test]
    fn rank_one_update_wrong_length_is_rejected() {
        let mut c = Cholesky::decompose(&spd3()).unwrap();
        assert!(matches!(
            c.rank_one_update(&[1.0]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn multi_rhs_solves_match_scalar_rows_bitwise() {
        let a = spd3();
        let c = Cholesky::decompose(&a).unwrap();
        // 40 right-hand sides so the row-blocking (block size 16) is exercised across
        // full and partial blocks.
        let b = Matrix::from_fn(40, 3, |r, j| (r as f64 * 0.37 - 2.0) + (j as f64).sin());
        let lower = c.solve_lower_multi(&b).unwrap();
        let upper = c.solve_upper_multi(&b).unwrap();
        let full = c.solve_multi(&b).unwrap();
        for r in 0..b.rows() {
            let sl = c.solve_lower(b.row(r)).unwrap();
            let su = c.solve_upper(b.row(r)).unwrap();
            let sf = c.solve(b.row(r)).unwrap();
            for j in 0..3 {
                assert_eq!(
                    lower.get(r, j).to_bits(),
                    sl[j].to_bits(),
                    "lower ({r},{j})"
                );
                assert_eq!(
                    upper.get(r, j).to_bits(),
                    su[j].to_bits(),
                    "upper ({r},{j})"
                );
                assert_eq!(full.get(r, j).to_bits(), sf[j].to_bits(), "solve ({r},{j})");
            }
        }
    }

    #[test]
    fn multi_rhs_solve_rejects_wrong_width_and_handles_empty() {
        let c = Cholesky::decompose(&spd3()).unwrap();
        let bad = Matrix::zeros(4, 2);
        assert!(matches!(
            c.solve_lower_multi(&bad),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            c.solve_upper_multi(&bad),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        let empty = Matrix::zeros(0, 3);
        assert_eq!(c.solve_lower_multi(&empty).unwrap().rows(), 0);
        assert_eq!(c.solve_multi(&empty).unwrap().rows(), 0);
    }

    /// Deterministic pseudo-random SPD matrix `B Bᵀ + n·I` large enough to cross panel
    /// boundaries (the proptest strategies stay small because `O(n³)` cases add up).
    fn spd_n(n: usize, seed: u64) -> Matrix {
        let b = Matrix::from_fn(n, n, |i, j| {
            let h = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add((j as u64).wrapping_mul(1442695040888963407))
                .wrapping_add(seed);
            ((h >> 33) % 4096) as f64 / 1024.0 - 2.0
        });
        let mut a = b.matmul(&b.transpose()).unwrap();
        a.add_diagonal(n as f64).unwrap();
        a
    }

    #[test]
    fn blocked_decompose_is_bit_identical_to_reference_across_panel_boundaries() {
        // 1 (degenerate), 63/64/65 (one-panel edge), 100 and 150 (multi-panel, with
        // partial last panels) — the blocked schedule must reproduce the reference
        // recurrence exactly, not merely closely.
        for &n in &[1usize, 5, 63, 64, 65, 100, 150] {
            let a = spd_n(n, n as u64);
            let blocked = Cholesky::decompose(&a).unwrap();
            let reference = Cholesky::decompose_reference(&a).unwrap();
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(
                        blocked.factor().get(i, j).to_bits(),
                        reference.factor().get(i, j).to_bits(),
                        "n={n} ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn blocked_decompose_reports_same_failing_pivot_as_reference() {
        // Make the trailing diagonal entry dependent so the last pivot fails in both.
        let mut a = spd_n(70, 3);
        for j in 0..70 {
            let v = a.get(68, j);
            a.set(69, j, v);
            a.set(j, 69, v);
        }
        a.set(69, 69, a.get(68, 68));
        let b = Cholesky::decompose(&a).unwrap_err();
        let r = Cholesky::decompose_reference(&a).unwrap_err();
        match (b, r) {
            (
                LinalgError::NotPositiveDefinite { pivot: pb, .. },
                LinalgError::NotPositiveDefinite { pivot: pr, .. },
            ) => assert_eq!(pb, pr),
            other => panic!("expected NotPositiveDefinite from both, got {other:?}"),
        }
    }

    #[test]
    fn extend_replay_is_bit_identical_to_blocked_decompose_across_panels() {
        // Grow a factor one row at a time from 1×1 to 100×100: at the final size the
        // incrementally grown factor must equal the blocked from-scratch factorization
        // bit for bit (the observe-path contract at sizes that cross panel boundaries).
        let n = 100;
        let a = spd_n(n, 9);
        let mut c = Cholesky::decompose(&Matrix::from_fn(1, 1, |i, j| a.get(i, j))).unwrap();
        for r in 1..n {
            let row: Vec<f64> = (0..=r).map(|j| a.get(r, j)).collect();
            c.extend(&row).unwrap();
        }
        let scratch = Cholesky::decompose(&a).unwrap();
        assert_eq!(c.dim(), n);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(
                    c.factor().get(i, j).to_bits(),
                    scratch.factor().get(i, j).to_bits(),
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn scratch_recycling_is_allocation_free_and_bit_identical() {
        let a = spd_n(40, 1);
        let plain = Cholesky::decompose(&a).unwrap();
        let mut scratch = FactorScratch::default();
        // Warm the scratch, recycle, then verify the second pass reuses the same buffer.
        let first = Cholesky::decompose_with_jitter(&a, 1e-3, &mut scratch).unwrap();
        assert!(first.factor().max_abs_diff(plain.factor()).unwrap() == 0.0);
        first.into_scratch(&mut scratch);
        let cap_before = scratch.spare.capacity();
        let ptr_before = scratch.spare.as_ptr();
        let second = Cholesky::decompose_with_jitter(&a, 1e-3, &mut scratch).unwrap();
        assert!(second.factor().max_abs_diff(plain.factor()).unwrap() == 0.0);
        assert_eq!(second.factor().data().as_ptr(), ptr_before, "buffer reused");
        second.into_scratch(&mut scratch);
        assert_eq!(scratch.spare.capacity(), cap_before, "no reallocation");
    }

    #[test]
    fn jittered_scratch_decompose_matches_unscratched_path() {
        // A rank-deficient matrix forces the escalation loop; every attempt reuses one
        // buffer, and a scratch warmed by a larger earlier factor yields the same factor
        // and recorded jitter as a fresh one.
        let a = Matrix::from_vec(2, 2, vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        let mut scratch = FactorScratch::default();
        Cholesky::decompose_with_jitter(&spd_n(70, 2), 1e-2, &mut scratch)
            .unwrap()
            .into_scratch(&mut scratch);
        let c = Cholesky::decompose_with_jitter(&a, 1e-2, &mut scratch).unwrap();
        let plain =
            Cholesky::decompose_with_jitter(&a, 1e-2, &mut FactorScratch::default()).unwrap();
        assert!(c.jitter() > 0.0);
        assert_eq!(c.jitter().to_bits(), plain.jitter().to_bits());
        assert!(c.factor().max_abs_diff(plain.factor()).unwrap() == 0.0);
        // A hopeless matrix fails identically and still returns its buffer.
        let bad = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]).unwrap();
        assert!(Cholesky::decompose_with_jitter(&bad, 1e-10, &mut scratch).is_err());
        assert!(
            scratch.spare.capacity() > 0,
            "failed decompose must hand its buffer back to the scratch"
        );
    }

    #[test]
    fn solve_into_matches_solve_bitwise_and_validates_lengths() {
        let a = spd_n(33, 5);
        let c = Cholesky::decompose(&a).unwrap();
        let b: Vec<f64> = (0..33).map(|i| (i as f64 * 0.61).sin() * 3.0).collect();
        let expected = c.solve(&b).unwrap();
        let mut out = Vec::new();
        c.solve_into(&b, &mut out).unwrap();
        assert_eq!(out.len(), expected.len());
        for (x, y) in out.iter().zip(expected.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // Reuse the same buffer (steady-state path) and check wrong lengths error.
        c.solve_into(&b, &mut out).unwrap();
        assert!(c.solve_into(&b[..10], &mut out).is_err());
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = spd3();
        let c = Cholesky::decompose(&a).unwrap();
        let inv = c.inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.max_abs_diff(&Matrix::identity(3)).unwrap() < 1e-9);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Builds a random SPD matrix as `B B^T + n * I`.
        fn spd_strategy(n: usize) -> impl Strategy<Value = Matrix> {
            proptest::collection::vec(-2.0f64..2.0, n * n).prop_map(move |vals| {
                let b = Matrix::from_vec(n, n, vals).unwrap();
                let mut a = b.matmul(&b.transpose()).unwrap();
                a.add_diagonal(n as f64).unwrap();
                a
            })
        }

        proptest! {
            #[test]
            fn prop_reconstruction(a in spd_strategy(5)) {
                let c = Cholesky::decompose(&a).unwrap();
                let l = c.factor();
                let rec = l.matmul(&l.transpose()).unwrap();
                prop_assert!(rec.max_abs_diff(&a).unwrap() < 1e-8);
            }

            #[test]
            fn prop_solve_roundtrip(a in spd_strategy(4), x in proptest::collection::vec(-5.0f64..5.0, 4)) {
                let c = Cholesky::decompose(&a).unwrap();
                let b = a.matvec(&x).unwrap();
                let solved = c.solve(&b).unwrap();
                for (s, t) in solved.iter().zip(x.iter()) {
                    prop_assert!((s - t).abs() < 1e-6, "{} vs {}", s, t);
                }
            }

            #[test]
            fn prop_extend_agrees_with_decompose(a in spd_strategy(6)) {
                // Grow the factor one row at a time from 1x1; at every size it must be
                // bit-identical to the from-scratch factorization of the leading block.
                let lead1 = Matrix::from_fn(1, 1, |i, j| a.get(i, j));
                let mut c = Cholesky::decompose(&lead1).unwrap();
                for n in 1..a.rows() {
                    let row: Vec<f64> = (0..=n).map(|j| a.get(n, j)).collect();
                    c.extend(&row).unwrap();
                    let lead = Matrix::from_fn(n + 1, n + 1, |i, j| a.get(i, j));
                    let scratch = Cholesky::decompose(&lead).unwrap();
                    prop_assert!(c.factor().max_abs_diff(scratch.factor()).unwrap() == 0.0);
                }
            }

            #[test]
            fn prop_rank_one_update_agrees_with_decompose(
                a in spd_strategy(5),
                v in proptest::collection::vec(-2.0f64..2.0, 5),
            ) {
                let mut c = Cholesky::decompose(&a).unwrap();
                c.rank_one_update(&v).unwrap();
                let mut updated = a.clone();
                for i in 0..5 {
                    for j in 0..5 {
                        updated.set(i, j, updated.get(i, j) + v[i] * v[j]);
                    }
                }
                let direct = Cholesky::decompose(&updated).unwrap();
                prop_assert!(c.factor().max_abs_diff(direct.factor()).unwrap() < 1e-8);
            }

            #[test]
            fn prop_multi_rhs_solve_bit_identical_to_scalar(
                a in spd_strategy(5),
                rhs in proptest::collection::vec(proptest::collection::vec(-5.0f64..5.0, 5), 1..40),
            ) {
                let c = Cholesky::decompose(&a).unwrap();
                let b = Matrix::from_rows(&rhs).unwrap();
                let multi = c.solve_multi(&b).unwrap();
                for (r, row) in rhs.iter().enumerate() {
                    let scalar = c.solve(row).unwrap();
                    for (j, s) in scalar.iter().enumerate() {
                        prop_assert_eq!(multi.get(r, j).to_bits(), s.to_bits());
                    }
                }
            }

            #[test]
            fn prop_blocked_decompose_within_4_ulps_of_reference(
                n in 1usize..40,
                seed in 0u64..1000,
            ) {
                // The ISSUE contract is "within 4 ULPs"; the implementation actually
                // achieves 0 (bit-identity), which this property verifies is never
                // exceeded on random SPD matrices. Sizes beyond one panel are covered
                // by the deterministic boundary tests above.
                let a = super::spd_n(n, seed);
                let blocked = Cholesky::decompose(&a).unwrap();
                let reference = Cholesky::decompose_reference(&a).unwrap();
                for i in 0..n {
                    for j in 0..=i {
                        let d = crate::vecops::ulp_diff(
                            blocked.factor().get(i, j),
                            reference.factor().get(i, j),
                        );
                        prop_assert!(d <= 4, "({i},{j}) differs by {d} ULPs");
                    }
                }
            }

            #[test]
            fn prop_solve_into_bit_identical_to_solve(
                a in spd_strategy(5),
                b in proptest::collection::vec(-5.0f64..5.0, 5),
            ) {
                let c = Cholesky::decompose(&a).unwrap();
                let expected = c.solve(&b).unwrap();
                let mut out = Vec::new();
                c.solve_into(&b, &mut out).unwrap();
                for (x, y) in out.iter().zip(expected.iter()) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }

            #[test]
            fn prop_log_det_is_finite_and_consistent(a in spd_strategy(4)) {
                let c = Cholesky::decompose(&a).unwrap();
                let ld = c.log_det();
                prop_assert!(ld.is_finite());
                // log det of A must equal -log det of A^{-1}.
                let inv = c.inverse().unwrap();
                let c_inv = Cholesky::decompose_with_jitter(&inv, 1e-6, &mut FactorScratch::default()).unwrap();
                prop_assert!((ld + c_inv.log_det()).abs() < 1e-5);
            }
        }
    }
}
