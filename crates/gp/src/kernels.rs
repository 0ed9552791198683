//! Covariance functions (kernels) for Gaussian-process regression.
//!
//! OnlineTune's contextual surrogate (paper §5.2) uses an **additive kernel**
//! `k((θ, c), (θ', c')) = k_Θ(θ, θ') + k_C(c, c')` with a Matérn kernel over
//! configurations and a linear kernel over contexts, so that the model captures an overall
//! trend driven by the context plus a configuration-specific deviation from that trend.
//!
//! All kernels expose their hyper-parameters in **log space** through [`Kernel::params`] /
//! [`Kernel::set_params`], which makes the marginal-likelihood optimization in
//! [`crate::hyperopt`] an unconstrained problem.

use crate::rows::Row;
use linalg::vecops::{dot, squared_distance};
use linalg::Matrix;

/// A positive semi-definite covariance function over `R^d`.
pub trait Kernel: Send {
    /// Evaluates the kernel at a pair of points.
    fn eval(&self, a: &[f64], b: &[f64]) -> f64;

    /// Batch entry point: evaluates the kernel of every query point against every
    /// training point into a `queries.len() × train.len()` matrix whose entry `(q, i)`
    /// is `eval(&train[i], &queries[q])` — the same argument order the scalar
    /// prediction path uses.
    ///
    /// The default implementation is the scalar fallback. Implementations that exploit
    /// structure shared across queries (see [`AdditiveContextKernel`]) must stay
    /// **bit-identical** to the fallback: batched prediction is contractually
    /// indistinguishable from per-point prediction.
    fn eval_cross(&self, train: &[Row], queries: &[Vec<f64>]) -> Matrix {
        Matrix::from_fn(queries.len(), train.len(), |q, i| {
            self.eval(&train[i], &queries[q])
        })
    }

    /// Number of hyper-parameter-invariant pairwise statistics this kernel can be
    /// evaluated from (see [`Kernel::pair_stats`] / [`Kernel::eval_stats`]).
    /// 0 means cached evaluation is unsupported.
    fn n_pair_stats(&self) -> usize {
        0
    }

    /// Computes the hyper-parameter-invariant statistics of a pair into `out`
    /// (`out.len() == n_pair_stats()`): the squared distance for distance kernels, the
    /// dot product for linear kernels. The statistics depend only on the data, never on
    /// the hyper-parameters, so a Gram matrix can be re-evaluated from cached
    /// statistics after every hyper-parameter change in `O(n²)` instead of `O(n²·d)`
    /// (the hyper-parameter-optimization hot loop, see [`crate::hyperopt`]).
    fn pair_stats(&self, _a: &[f64], _b: &[f64], _out: &mut [f64]) {}

    /// Evaluates the kernel from statistics produced by [`Kernel::pair_stats`] on the
    /// same pair. Must be bit-identical to [`Kernel::eval`] on that pair. Only called
    /// when [`Kernel::n_pair_stats`] is non-zero.
    fn eval_stats(&self, _stats: &[f64]) -> f64 {
        unreachable!("eval_stats called on a kernel without pair-stat support")
    }

    /// Returns the hyper-parameters in log space (empty when the kernel has none).
    fn params(&self) -> Vec<f64>;

    /// Sets the hyper-parameters from log-space values produced by [`Kernel::params`].
    fn set_params(&mut self, p: &[f64]);

    /// Number of hyper-parameters.
    fn n_params(&self) -> usize {
        self.params().len()
    }

    /// Clones the kernel behind a `Box`, preserving the concrete type.
    fn clone_box(&self) -> Box<dyn Kernel>;

    /// A short human-readable name used in diagnostics.
    fn name(&self) -> &'static str;
}

impl Clone for Box<dyn Kernel> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Matérn-5/2 kernel with a single (isotropic) lengthscale and unit variance.
///
/// `k(a, b) = (1 + √5 r / ℓ + 5 r² / (3 ℓ²)) · exp(-√5 r / ℓ)`
///
/// The Matérn-5/2 kernel is the standard choice for configuration-tuning surrogates
/// (OtterTune, ResTune, and the "Martin kernel" referenced by the paper): it is twice
/// differentiable but does not impose the unrealistic infinite smoothness of the
/// squared-exponential kernel.
#[derive(Debug, Clone)]
pub struct Matern52Kernel {
    lengthscale: f64,
}

impl Matern52Kernel {
    /// Creates the kernel with the given lengthscale (must be positive).
    pub fn new(lengthscale: f64) -> Self {
        assert!(lengthscale > 0.0, "lengthscale must be positive");
        Matern52Kernel { lengthscale }
    }
}

impl Kernel for Matern52Kernel {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        let r = squared_distance(a, b).sqrt();
        let s = 5f64.sqrt() * r / self.lengthscale;
        (1.0 + s + s * s / 3.0) * (-s).exp()
    }

    fn n_pair_stats(&self) -> usize {
        1
    }

    fn pair_stats(&self, a: &[f64], b: &[f64], out: &mut [f64]) {
        out[0] = squared_distance(a, b);
    }

    fn eval_stats(&self, stats: &[f64]) -> f64 {
        let r = stats[0].sqrt();
        let s = 5f64.sqrt() * r / self.lengthscale;
        (1.0 + s + s * s / 3.0) * (-s).exp()
    }

    fn params(&self) -> Vec<f64> {
        vec![self.lengthscale.ln()]
    }

    fn set_params(&mut self, p: &[f64]) {
        if let Some(&l) = p.first() {
            self.lengthscale = l.exp().clamp(1e-4, 1e4);
        }
    }

    fn clone_box(&self) -> Box<dyn Kernel> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "matern52"
    }
}

/// Linear (dot-product) kernel `k(a, b) = σ² (aᵀb + c)`.
///
/// Used over the context dimensions: the paper models the context-driven trend linearly so
/// knowledge transfers smoothly between nearby contexts.
#[derive(Debug, Clone)]
pub struct LinearKernel {
    variance: f64,
    bias: f64,
}

impl LinearKernel {
    /// Creates the kernel with the given variance and bias (both must be positive).
    pub fn new(variance: f64, bias: f64) -> Self {
        assert!(variance > 0.0 && bias >= 0.0);
        LinearKernel { variance, bias }
    }
}

impl Kernel for LinearKernel {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.variance * (dot(a, b) + self.bias)
    }

    fn n_pair_stats(&self) -> usize {
        1
    }

    fn pair_stats(&self, a: &[f64], b: &[f64], out: &mut [f64]) {
        out[0] = dot(a, b);
    }

    fn eval_stats(&self, stats: &[f64]) -> f64 {
        self.variance * (stats[0] + self.bias)
    }

    fn params(&self) -> Vec<f64> {
        vec![self.variance.ln()]
    }

    fn set_params(&mut self, p: &[f64]) {
        if let Some(&v) = p.first() {
            self.variance = v.exp().clamp(1e-6, 1e4);
        }
    }

    fn clone_box(&self) -> Box<dyn Kernel> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "linear"
    }
}

/// Multiplies an inner kernel by a signal variance: `k(a, b) = σ_f² · k_inner(a, b)`.
#[derive(Clone)]
pub struct ScaledKernel {
    inner: Box<dyn Kernel>,
    signal_variance: f64,
}

impl ScaledKernel {
    /// Wraps `inner` with a signal variance.
    pub fn new(inner: Box<dyn Kernel>, signal_variance: f64) -> Self {
        assert!(signal_variance > 0.0);
        ScaledKernel {
            inner,
            signal_variance,
        }
    }
}

impl Kernel for ScaledKernel {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.signal_variance * self.inner.eval(a, b)
    }

    fn n_pair_stats(&self) -> usize {
        self.inner.n_pair_stats()
    }

    fn pair_stats(&self, a: &[f64], b: &[f64], out: &mut [f64]) {
        self.inner.pair_stats(a, b, out);
    }

    fn eval_stats(&self, stats: &[f64]) -> f64 {
        self.signal_variance * self.inner.eval_stats(stats)
    }

    fn params(&self) -> Vec<f64> {
        let mut p = vec![self.signal_variance.ln()];
        p.extend(self.inner.params());
        p
    }

    fn set_params(&mut self, p: &[f64]) {
        if let Some(&v) = p.first() {
            self.signal_variance = v.exp().clamp(1e-6, 1e6);
        }
        if p.len() > 1 {
            self.inner.set_params(&p[1..]);
        }
    }

    fn clone_box(&self) -> Box<dyn Kernel> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "scaled"
    }
}

/// The additive contextual kernel from §5.2 of the paper.
///
/// Inputs are joint vectors `[θ_1..θ_m, c_1..c_k]` where the first `config_dim` entries are
/// the (normalized) configuration and the remainder is the context feature. The kernel is
/// `σ_Θ² · Matérn52(θ, θ') + σ_C² · Linear(c, c')`.
#[derive(Clone)]
pub struct AdditiveContextKernel {
    config_dim: usize,
    config_kernel: ScaledKernel,
    context_kernel: LinearKernel,
}

impl AdditiveContextKernel {
    /// Creates the kernel for `config_dim` configuration dimensions. Any further dimensions
    /// of the input vectors are treated as context.
    pub fn new(config_dim: usize) -> Self {
        AdditiveContextKernel {
            config_dim,
            config_kernel: ScaledKernel::new(Box::new(Matern52Kernel::new(0.3)), 1.0),
            context_kernel: LinearKernel::new(0.5, 0.1),
        }
    }

    fn split<'a>(&self, x: &'a [f64]) -> (&'a [f64], &'a [f64]) {
        let d = self.config_dim.min(x.len());
        x.split_at(d)
    }
}

impl Kernel for AdditiveContextKernel {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        let (ta, ca) = self.split(a);
        let (tb, cb) = self.split(b);
        let config_part = self.config_kernel.eval(ta, tb);
        let context_part = if ca.is_empty() {
            0.0
        } else {
            self.context_kernel.eval(ca, cb)
        };
        config_part + context_part
    }

    /// Batched cross-kernel exploiting the additive structure: when every query carries
    /// the same context — the suggest sweep, where `C` candidate configurations are all
    /// evaluated under the current context — the context column `k_C(c, cᵢ)` is computed
    /// **once** per training point and shared across all queries, dropping the kernel
    /// cost from `O(C·n·(d_θ + d_c))` to `O(n·d_c + C·n·d_θ)`.
    ///
    /// Bit-identity with the scalar fallback holds because the shared context column is
    /// produced by exactly the evaluation the scalar path would perform (identical
    /// inputs, identical operations), and floating-point evaluation is deterministic.
    /// Queries with differing contexts fall back to the pairwise sweep.
    fn eval_cross(&self, train: &[Row], queries: &[Vec<f64>]) -> Matrix {
        let shared_context = match queries.split_first() {
            Some((first, rest)) => {
                let (_, c0) = self.split(first);
                rest.iter().all(|q| {
                    let (_, c) = self.split(q);
                    c == c0
                })
            }
            // An empty batch has no context to share; the pairwise fallback returns the
            // empty matrix without ever indexing into `queries`.
            None => false,
        };
        if !shared_context {
            return Matrix::from_fn(queries.len(), train.len(), |q, i| {
                self.eval(&train[i], &queries[q])
            });
        }
        // The context column, computed once per training point. The emptiness check
        // mirrors `eval`, which keys on the *training* point's context slice.
        let context_col: Vec<f64> = train
            .iter()
            .map(|t| {
                let (_, ct) = self.split(t);
                if ct.is_empty() {
                    0.0
                } else {
                    let (_, cq) = self.split(&queries[0]);
                    self.context_kernel.eval(ct, cq)
                }
            })
            .collect();
        let mut out = Matrix::zeros(queries.len(), train.len());
        for (q, query) in queries.iter().enumerate() {
            let (tq, _) = self.split(query);
            for (i, t) in train.iter().enumerate() {
                let (tt, _) = self.split(t);
                out.set(q, i, self.config_kernel.eval(tt, tq) + context_col[i]);
            }
        }
        out
    }

    fn n_pair_stats(&self) -> usize {
        // Configuration stats + context stats + the context-emptiness flag `eval` keys on.
        self.config_kernel.n_pair_stats() + self.context_kernel.n_pair_stats() + 1
    }

    fn pair_stats(&self, a: &[f64], b: &[f64], out: &mut [f64]) {
        let (ta, ca) = self.split(a);
        let (tb, cb) = self.split(b);
        let nc = self.config_kernel.n_pair_stats();
        let nk = self.context_kernel.n_pair_stats();
        self.config_kernel.pair_stats(ta, tb, &mut out[..nc]);
        self.context_kernel
            .pair_stats(ca, cb, &mut out[nc..nc + nk]);
        out[nc + nk] = if ca.is_empty() { 0.0 } else { 1.0 };
    }

    fn eval_stats(&self, stats: &[f64]) -> f64 {
        let nc = self.config_kernel.n_pair_stats();
        let nk = self.context_kernel.n_pair_stats();
        let config_part = self.config_kernel.eval_stats(&stats[..nc]);
        let context_part = if stats[nc + nk] == 0.0 {
            0.0
        } else {
            self.context_kernel.eval_stats(&stats[nc..nc + nk])
        };
        config_part + context_part
    }

    fn params(&self) -> Vec<f64> {
        let mut p = self.config_kernel.params();
        p.extend(self.context_kernel.params());
        p
    }

    fn set_params(&mut self, p: &[f64]) {
        let nc = self.config_kernel.n_params();
        self.config_kernel.set_params(&p[..nc.min(p.len())]);
        if p.len() > nc {
            self.context_kernel.set_params(&p[nc..]);
        }
    }

    fn clone_box(&self) -> Box<dyn Kernel> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "additive-context"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matern_is_one_at_zero_distance_and_decays() {
        let k = Matern52Kernel::new(0.5);
        let a = [0.1, 0.2];
        assert!((k.eval(&a, &a) - 1.0).abs() < 1e-12);
        let near = k.eval(&a, &[0.15, 0.2]);
        let far = k.eval(&a, &[0.9, 0.9]);
        assert!(near > far);
        assert!(far > 0.0);
    }

    #[test]
    fn matern_symmetry() {
        let k = Matern52Kernel::new(0.7);
        let a = [0.3, 0.9, 0.1];
        let b = [0.5, 0.2, 0.8];
        assert!((k.eval(&a, &b) - k.eval(&b, &a)).abs() < 1e-15);
    }

    #[test]
    fn linear_kernel_uses_dot_product() {
        let k = LinearKernel::new(2.0, 0.5);
        assert!((k.eval(&[1.0, 2.0], &[3.0, 4.0]) - 2.0 * (11.0 + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn scaled_kernel_scales() {
        let base = Matern52Kernel::new(0.5);
        let a = [0.1, 0.9];
        let b = [0.4, 0.2];
        let scaled = ScaledKernel::new(Box::new(base.clone()), 3.0);
        assert!((scaled.eval(&a, &b) - 3.0 * base.eval(&a, &b)).abs() < 1e-12);
    }

    #[test]
    fn params_roundtrip_for_all_kernels() {
        let mut kernels: Vec<Box<dyn Kernel>> = vec![
            Box::new(Matern52Kernel::new(0.42)),
            Box::new(LinearKernel::new(0.9, 0.1)),
            Box::new(ScaledKernel::new(Box::new(Matern52Kernel::new(0.3)), 2.0)),
            Box::new(AdditiveContextKernel::new(3)),
        ];
        for k in kernels.iter_mut() {
            let p = k.params();
            assert_eq!(p.len(), k.n_params());
            let before = k.eval(&[0.1, 0.2, 0.3, 0.4], &[0.5, 0.6, 0.7, 0.8]);
            let p2 = p.clone();
            k.set_params(&p2);
            let after = k.eval(&[0.1, 0.2, 0.3, 0.4], &[0.5, 0.6, 0.7, 0.8]);
            assert!(
                (before - after).abs() < 1e-9,
                "{} changed value after no-op param roundtrip",
                k.name()
            );
        }
    }

    #[test]
    fn additive_kernel_adds_context_similarity() {
        let k = AdditiveContextKernel::new(2);
        // Same configuration, different context: contextual part differs.
        let a = [0.5, 0.5, 1.0];
        let b_same_ctx = [0.5, 0.5, 1.0];
        let b_diff_ctx = [0.5, 0.5, 0.0];
        assert!(k.eval(&a, &b_same_ctx) > k.eval(&a, &b_diff_ctx));
        // Same context, different configuration: configuration part differs.
        let c_near = [0.5, 0.5, 1.0];
        let c_far = [0.0, 1.0, 1.0];
        assert!(k.eval(&a, &c_near) > k.eval(&a, &c_far));
    }

    #[test]
    fn additive_kernel_without_context_dims_is_config_only() {
        let k = AdditiveContextKernel::new(2);
        let a = [0.5, 0.5];
        let b = [0.2, 0.8];
        let cfg_only = ScaledKernel::new(Box::new(Matern52Kernel::new(0.3)), 1.0);
        assert!((k.eval(&a, &b) - cfg_only.eval(&a, &b)).abs() < 1e-12);
    }

    fn all_kernels() -> Vec<Box<dyn Kernel>> {
        vec![
            Box::new(Matern52Kernel::new(0.42)),
            Box::new(LinearKernel::new(0.9, 0.1)),
            Box::new(ScaledKernel::new(Box::new(Matern52Kernel::new(0.3)), 2.0)),
            Box::new(AdditiveContextKernel::new(2)),
        ]
    }

    #[test]
    fn eval_cross_matches_scalar_eval_bitwise() {
        let train: Vec<Row> = (0..6)
            .map(|i| (0..4).map(|j| (i * 4 + j) as f64 * 0.13 - 1.0).collect())
            .collect();
        // Shared context across queries (exercises the additive kernel's shared-context
        // fast path) and a mixed-context batch (exercises its fallback).
        let shared: Vec<Vec<f64>> = (0..5)
            .map(|q| vec![q as f64 * 0.2, 0.3 - q as f64 * 0.1, 0.7, 0.4])
            .collect();
        let mixed: Vec<Vec<f64>> = (0..5)
            .map(|q| (0..4).map(|j| (q * 3 + j) as f64 * 0.17 - 0.5).collect())
            .collect();
        for k in all_kernels() {
            for queries in [&shared, &mixed] {
                let cross = k.eval_cross(&train, queries);
                assert_eq!(cross.rows(), queries.len());
                assert_eq!(cross.cols(), train.len());
                for (q, query) in queries.iter().enumerate() {
                    for (i, t) in train.iter().enumerate() {
                        assert_eq!(
                            cross.get(q, i).to_bits(),
                            k.eval(t, query).to_bits(),
                            "{} ({q},{i})",
                            k.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn eval_cross_handles_empty_batches() {
        let k = AdditiveContextKernel::new(2);
        let point = vec![0.1, 0.2, 0.3];
        assert_eq!(k.eval_cross(&[Row::from(point.as_slice())], &[]).rows(), 0);
        assert_eq!(k.eval_cross(&[], &[point]).cols(), 0);
    }

    #[test]
    fn pair_stats_evaluation_matches_eval_bitwise_across_hyperparams() {
        let a = vec![0.15, -0.4, 0.8, 0.33];
        let b = vec![-0.2, 0.5, 0.12, 0.9];
        for mut k in all_kernels() {
            let n = k.n_pair_stats();
            assert!(n > 0, "{} should support cached evaluation", k.name());
            let mut stats = vec![0.0; n];
            k.pair_stats(&a, &b, &mut stats);
            // The statistics are hyper-parameter invariant: re-evaluating after a
            // hyper-parameter change must still agree with `eval` bit-for-bit.
            for shift in [0.0, 0.7, -1.1] {
                let p: Vec<f64> = k.params().iter().map(|v| v + shift).collect();
                k.set_params(&p);
                assert_eq!(
                    k.eval_stats(&stats).to_bits(),
                    k.eval(&a, &b).to_bits(),
                    "{} with shift {shift}",
                    k.name()
                );
            }
        }
    }

    #[test]
    fn additive_pair_stats_respect_missing_context() {
        // Inputs without context dimensions: the cached path must reproduce the scalar
        // eval's empty-context special case (no bias term), not evaluate the linear
        // kernel on empty slices.
        let k = AdditiveContextKernel::new(2);
        let a = vec![0.5, 0.5];
        let b = vec![0.2, 0.8];
        let mut stats = vec![0.0; k.n_pair_stats()];
        k.pair_stats(&a, &b, &mut stats);
        assert_eq!(k.eval_stats(&stats).to_bits(), k.eval(&a, &b).to_bits());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn prop_matern_bounded_and_symmetric(
                a in proptest::collection::vec(-3.0f64..3.0, 4),
                b in proptest::collection::vec(-3.0f64..3.0, 4),
                ls in 0.05f64..5.0,
            ) {
                let k = Matern52Kernel::new(ls);
                let kab = k.eval(&a, &b);
                prop_assert!(kab <= 1.0 + 1e-12);
                prop_assert!(kab >= 0.0);
                prop_assert!((kab - k.eval(&b, &a)).abs() < 1e-12);
            }

            #[test]
            fn prop_gram_matrix_is_psd(
                xs in proptest::collection::vec(proptest::collection::vec(-2.0f64..2.0, 3), 2..8),
                ls in 0.1f64..3.0,
            ) {
                // A valid kernel must produce a positive semi-definite Gram matrix; adding a
                // small diagonal makes it positive definite, so Cholesky must succeed.
                let k = Matern52Kernel::new(ls);
                let n = xs.len();
                let mut gram = linalg::Matrix::from_fn(n, n, |i, j| k.eval(&xs[i], &xs[j]));
                gram.add_diagonal(1e-8).unwrap();
                let mut scratch = linalg::FactorScratch::default();
                let chol = linalg::Cholesky::decompose_with_jitter(&gram, 1e-3, &mut scratch);
                prop_assert!(chol.is_ok());
            }
        }
    }
}
