//! Exact Gaussian-process regression (Eq. 2 of the paper).
//!
//! The model is `y = f(x) + ε`, `ε ~ N(0, σ²)`, with `f ~ GP(0, k)`. Training amounts to a
//! single Cholesky factorization of `K + σ²I`; prediction of mean and variance at a query
//! point costs one triangular solve. Outputs are standardized internally so the zero-mean
//! prior is reasonable regardless of the metric being tuned (throughput, latency, ...).
//!
//! # Incremental vs from-scratch fitting
//!
//! Two paths produce a fitted model, with an exact-equivalence contract between them:
//!
//! * [`GaussianProcess::fit`] — from scratch: builds the full `n×n` gram matrix and
//!   factorizes it, `O(n³)`. Required whenever the kernel hyper-parameters or the noise
//!   variance change (both invalidate the cached factor).
//! * [`GaussianProcess::observe`] — incremental, `O(n²)`: computes one new kernel row,
//!   extends the cached Cholesky factor by one row ([`linalg::Cholesky::extend`]), refits
//!   the output standardizer (`O(n)`) and re-solves the dual weights `α` with two
//!   triangular solves. When the extension fails (the new point is numerically dependent
//!   on the training set) it silently falls back to a full `fit` with jitter escalation.
//!
//! The two paths yield *bit-identical* posteriors: `extend` replays exactly the
//! floating-point operations `decompose` would perform for the appended row, the
//! standardizer is refitted on all targets either way, and `α` is always re-solved from
//! the full target vector. Snapshot/restore across the workspace refits from scratch and
//! relies on this equivalence for replay determinism (see the property tests below).

use crate::kernels::Kernel;
use crate::normalize::Standardizer;
use linalg::{Cholesky, FactorScratch, Matrix};
use std::cell::Cell;
use telemetry::{CounterId, EventKind, TelemetryHandle};

/// Reusable buffers for the fit path: the Gram matrix, the factor storage, the
/// standardized targets, the dual-weight spare and the observe-path kernel row.
///
/// Each thread owns one arena (a `thread_local!`), not each model: only a running fit or
/// observe reads these buffers, so every [`GaussianProcess`] on the thread shares them.
/// [`GaussianProcess::fit`] and [`GaussianProcess::observe`] take the arena for the call
/// and put it back; the fallback fit nested inside `observe` is handed the same arena
/// explicitly instead of reaching for the thread-local a second time. Repeated fits at
/// a stable size therefore allocate nothing (buffers are reshaped in place, and factor
/// storage ping-pongs between the fitted models and the arena), while a model between
/// fits holds only its factor, `α` and training data. The hyper-parameter optimizer
/// creates one arena per restart worker, so its `O(restarts × iters)` trial loop reuses
/// that worker's buffers across every likelihood evaluation.
///
/// The arena carries **no model state**: it is never serialized, and which models it
/// served before cannot change any computed value (buffer contents are fully
/// overwritten before every read). A thread's arena lives as long as the thread; the
/// fleet's tenant workers are scoped threads of one round, so theirs last one round.
#[derive(Default)]
pub(crate) struct FitArena {
    /// Gram-matrix buffer, reshaped in place per fit.
    pub(crate) gram: Matrix,
    /// Standardized-target buffer.
    pub(crate) y_std: Vec<f64>,
    /// Spare dual-weight buffer (swapped with the fitted state's `alpha` on refit).
    pub(crate) alpha_spare: Vec<f64>,
    /// Recycled Cholesky factor storage.
    pub(crate) factor: FactorScratch,
    /// Kernel-row buffer for the incremental observe path.
    pub(crate) row: Vec<f64>,
}

thread_local! {
    /// This thread's fit arena (see [`FitArena`]).
    static ARENA: Cell<FitArena> = Cell::new(FitArena::default());
}

/// Runs `f` with this thread's arena taken out of its slot, then puts it back. A panic
/// inside `f` loses the buffers, never model state: the slot refills with an empty arena.
fn with_thread_arena<T>(f: impl FnOnce(&mut FitArena) -> T) -> T {
    let mut arena = ARENA.take();
    let out = f(&mut arena);
    ARENA.set(arena);
    out
}

/// Errors produced by GP fitting or prediction.
#[derive(Debug, Clone, PartialEq)]
pub enum GpError {
    /// `fit` was called with no observations.
    EmptyTrainingSet,
    /// The number of targets does not match the number of inputs.
    LengthMismatch {
        /// Number of input rows provided.
        inputs: usize,
        /// Number of target values provided.
        targets: usize,
    },
    /// The kernel matrix could not be factorized even with jitter.
    KernelNotPositiveDefinite,
    /// Prediction was requested before the model was fitted.
    NotFitted,
    /// A query point has a different dimension than the training data.
    DimensionMismatch {
        /// Dimension of the training inputs.
        expected: usize,
        /// Dimension of the query point.
        actual: usize,
    },
    /// A training input contains a NaN or infinite coordinate. Non-finite inputs are
    /// rejected before they can reach the Gram matrix, where a single NaN would poison
    /// the whole factorization.
    NonFiniteInput {
        /// Index of the offending input row.
        index: usize,
    },
    /// A training target is NaN or infinite. Non-finite targets are rejected before
    /// they can reach the standardizer or the dual weights.
    NonFiniteTarget {
        /// Index of the offending target value.
        index: usize,
    },
}

impl std::fmt::Display for GpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpError::EmptyTrainingSet => write!(f, "cannot fit a GP with zero observations"),
            GpError::LengthMismatch { inputs, targets } => {
                write!(f, "{inputs} inputs but {targets} targets")
            }
            GpError::KernelNotPositiveDefinite => {
                write!(f, "kernel matrix is not positive definite")
            }
            GpError::NotFitted => write!(f, "the GP has not been fitted yet"),
            GpError::DimensionMismatch { expected, actual } => {
                write!(
                    f,
                    "query dimension {actual} does not match training dimension {expected}"
                )
            }
            GpError::NonFiniteInput { index } => {
                write!(f, "training input {index} contains a non-finite coordinate")
            }
            GpError::NonFiniteTarget { index } => {
                write!(f, "training target {index} is not finite")
            }
        }
    }
}

impl std::error::Error for GpError {}

/// Rejects non-finite training data before it can reach the factorization. A single
/// NaN in the Gram matrix silently poisons every subsequent solve, so the boundary
/// check is the only place the damage can be contained with a typed error.
fn validate_finite(x: &[Vec<f64>], y: &[f64]) -> Result<(), GpError> {
    for (index, row) in x.iter().enumerate() {
        if row.iter().any(|v| !v.is_finite()) {
            return Err(GpError::NonFiniteInput { index });
        }
    }
    for (index, v) in y.iter().enumerate() {
        if !v.is_finite() {
            return Err(GpError::NonFiniteTarget { index });
        }
    }
    Ok(())
}

/// Posterior prediction at a single point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Posterior {
    /// Posterior mean in the original (un-standardized) output units.
    pub mean: f64,
    /// Posterior standard deviation in the original output units.
    pub std_dev: f64,
}

impl Posterior {
    /// Posterior variance.
    pub fn variance(&self) -> f64 {
        self.std_dev * self.std_dev
    }
}

struct FittedState {
    chol: Cholesky,
    /// `(K + σ²I)^{-1} y` in standardized output space.
    alpha: Vec<f64>,
    x: Vec<Vec<f64>>,
    /// Raw (un-standardized) targets; kept so incremental observes can refresh the
    /// standardizer and so fallback refits have the full training set at hand.
    y_raw: Vec<f64>,
    standardizer: Standardizer,
    dim: usize,
}

/// An exact Gaussian-process regressor.
pub struct GaussianProcess {
    kernel: Box<dyn Kernel>,
    noise_variance: f64,
    fitted: Option<FittedState>,
    /// Observability sink (runtime-only, never serialized; the default is the no-op
    /// sink). Instrumentation is read-only with respect to model state.
    telemetry: TelemetryHandle,
}

impl Clone for GaussianProcess {
    fn clone(&self) -> Self {
        // Refitting is cheap relative to cloning the factorization state, and cloning is only
        // used when spawning per-cluster models, which are refitted immediately anyway.
        GaussianProcess {
            kernel: self.kernel.clone(),
            noise_variance: self.noise_variance,
            fitted: None,
            telemetry: self.telemetry.clone(),
        }
    }
}

impl GaussianProcess {
    /// Creates an unfitted GP with the given kernel and observation-noise variance
    /// (in standardized output units).
    pub fn new(kernel: Box<dyn Kernel>, noise_variance: f64) -> Self {
        assert!(noise_variance > 0.0, "noise variance must be positive");
        GaussianProcess {
            kernel,
            noise_variance,
            fitted: None,
            telemetry: TelemetryHandle::disabled(),
        }
    }

    /// Installs a telemetry sink (runtime-only; excluded from snapshots, so replay is
    /// bit-identical whether or not one is installed).
    pub fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.telemetry = telemetry;
    }

    /// The installed telemetry sink (the no-op sink by default).
    pub fn telemetry(&self) -> &TelemetryHandle {
        &self.telemetry
    }

    /// Observation-noise variance.
    pub fn noise_variance(&self) -> f64 {
        self.noise_variance
    }

    /// Sets the observation-noise variance (clamped to a small positive floor) and
    /// invalidates any previous fit.
    pub fn set_noise_variance(&mut self, v: f64) {
        self.noise_variance = v.max(1e-8);
        self.fitted = None;
    }

    /// Immutable access to the kernel.
    pub fn kernel(&self) -> &dyn Kernel {
        self.kernel.as_ref()
    }

    /// Mutable access to the kernel (invalidates the fit).
    pub fn kernel_mut(&mut self) -> &mut Box<dyn Kernel> {
        self.fitted = None;
        &mut self.kernel
    }

    /// Number of training observations in the current fit (0 when unfitted).
    pub fn n_observations(&self) -> usize {
        self.fitted.as_ref().map_or(0, |s| s.x.len())
    }

    /// Whether `fit` has been called successfully.
    pub fn is_fitted(&self) -> bool {
        self.fitted.is_some()
    }

    /// Discards the cached fit (factorization and training data) without touching the
    /// hyper-parameters. Callers that maintain their own observation store (e.g.
    /// `ContextualGp`) use this after replacing observations in bulk so a later
    /// [`GaussianProcess::observe`] cannot extend a factor built from stale data.
    pub fn invalidate_fit(&mut self) {
        self.fitted = None;
    }

    /// Fits the GP to the given inputs and targets.
    ///
    /// All working storage comes from a fit arena owned by the calling thread and shared
    /// by every model fitted on it: the Gram matrix is rebuilt into a reused buffer, the
    /// factorization recycles retired factor storage, and the dual weights swap with a
    /// spare — so repeated refits at a stable training-set size allocate nothing, and a
    /// model between fits keeps only its factor, `α` and training data. On failure the previous fit is kept
    /// intact (the new factor is built in spare storage before the old one is retired).
    pub fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) -> Result<(), GpError> {
        with_thread_arena(|arena| self.fit_in(x, y, arena))
    }

    /// [`GaussianProcess::fit`] with the arena passed in.
    fn fit_in(&mut self, x: &[Vec<f64>], y: &[f64], arena: &mut FitArena) -> Result<(), GpError> {
        if x.is_empty() {
            return Err(GpError::EmptyTrainingSet);
        }
        if x.len() != y.len() {
            return Err(GpError::LengthMismatch {
                inputs: x.len(),
                targets: y.len(),
            });
        }
        validate_finite(x, y)?;
        let dim = x[0].len();
        let standardizer = Standardizer::fit(y);
        arena.y_std.clear();
        arena
            .y_std
            .extend(y.iter().map(|&v| standardizer.transform(v)));

        let n = x.len();
        arena.gram.reshape(n, n);
        // Only the lower triangle (+ diagonal) is filled, in the same (i-outer,
        // j-inner) order `Matrix::from_fn` used: the Cholesky factorization never reads
        // above the diagonal and every kernel is exactly symmetric, so the factor — and
        // therefore the whole fit — is bit-identical to building the full Gram matrix,
        // at half the kernel-evaluation cost.
        for i in 0..n {
            for j in 0..=i {
                arena.gram.set(i, j, self.kernel.eval(&x[i], &x[j]));
            }
        }
        arena
            .gram
            .add_diagonal(self.noise_variance)
            .expect("gram matrix is square by construction");
        let chol = Cholesky::decompose_with_jitter(&arena.gram, 1e-3, &mut arena.factor)
            .map_err(|_| GpError::KernelNotPositiveDefinite)?;
        if chol.jitter() > 0.0 {
            self.telemetry.incr(CounterId::JitterEscalations);
            if self.telemetry.is_enabled() {
                self.telemetry.event(
                    EventKind::JitterEscalation,
                    "gp",
                    &format!("n={} jitter={:e}", n, chol.jitter()),
                );
            }
        }
        let mut alpha = std::mem::take(&mut arena.alpha_spare);
        if chol.solve_into(&arena.y_std, &mut alpha).is_err() {
            chol.into_scratch(&mut arena.factor);
            arena.alpha_spare = alpha;
            return Err(GpError::KernelNotPositiveDefinite);
        }

        match self.fitted.as_mut() {
            Some(state) => {
                std::mem::replace(&mut state.chol, chol).into_scratch(&mut arena.factor);
                arena.alpha_spare = std::mem::replace(&mut state.alpha, alpha);
                // Reuse the retained training-set buffers (inner vectors keep their
                // allocations via clone_from).
                state.x.truncate(x.len());
                let reused = state.x.len();
                for (dst, src) in state.x.iter_mut().zip(x.iter()) {
                    dst.clone_from(src);
                }
                state.x.extend(x[reused..].iter().cloned());
                state.y_raw.clear();
                state.y_raw.extend_from_slice(y);
                state.standardizer = standardizer;
                state.dim = dim;
            }
            None => {
                self.fitted = Some(FittedState {
                    chol,
                    alpha,
                    x: x.to_vec(),
                    y_raw: y.to_vec(),
                    standardizer,
                    dim,
                });
            }
        }
        Ok(())
    }

    /// Adds a single observation incrementally in `O(n²)` (the hot path of online tuning).
    ///
    /// Computes the kernel row of the new point against the cached training inputs,
    /// extends the Cholesky factor by one row/column, refits the output standardizer on
    /// all raw targets and re-solves the dual weights — no gram-matrix rebuild, no
    /// `O(n³)` factorization. The resulting posterior is bit-identical to calling
    /// [`GaussianProcess::fit`] on the full extended training set (see the module docs).
    ///
    /// Falls back to a full `fit` (with jitter escalation) when the factor extension
    /// fails, e.g. because the new point duplicates an existing one. On an unfitted model
    /// this is simply `fit` on the single observation. If the fallback itself fails the
    /// previous fit is kept and the new observation is dropped.
    pub fn observe(&mut self, x_new: &[f64], y_new: f64) -> Result<(), GpError> {
        if x_new.iter().any(|v| !v.is_finite()) {
            return Err(GpError::NonFiniteInput { index: 0 });
        }
        if !y_new.is_finite() {
            return Err(GpError::NonFiniteTarget { index: 0 });
        }
        with_thread_arena(|arena| self.observe_in(x_new, y_new, arena))
    }

    /// [`GaussianProcess::observe`] after the finiteness checks, with the arena passed in;
    /// every fallback fit reuses that arena.
    fn observe_in(
        &mut self,
        x_new: &[f64],
        y_new: f64,
        arena: &mut FitArena,
    ) -> Result<(), GpError> {
        let Some(state) = self.fitted.as_mut() else {
            return self.fit_in(&[x_new.to_vec()], &[y_new], arena);
        };
        if x_new.len() != state.dim {
            return Err(GpError::DimensionMismatch {
                expected: state.dim,
                actual: x_new.len(),
            });
        }
        // Kernel row of the new point, evaluated in the same argument order the gram
        // matrix construction in `fit` uses (row index first) so the extended factor is
        // bit-identical to a from-scratch factorization. The row lives in the arena so
        // the per-iteration observe path performs no allocation beyond the stored copy
        // of the observation itself.
        let row = &mut arena.row;
        row.clear();
        row.extend(state.x.iter().map(|xi| self.kernel.eval(x_new, xi)));
        row.push(self.kernel.eval(x_new, x_new) + self.noise_variance);

        if state.chol.extend(row).is_ok() {
            state.x.push(x_new.to_vec());
            state.y_raw.push(y_new);
            state.standardizer = Standardizer::fit(&state.y_raw);
            let y_std = &mut arena.y_std;
            y_std.clear();
            y_std.extend(state.y_raw.iter().map(|&v| state.standardizer.transform(v)));
            match state.chol.solve_into(y_std, &mut state.alpha) {
                Ok(()) => {
                    self.telemetry.incr(CounterId::ObserveFastPath);
                    return Ok(());
                }
                Err(_) => {
                    // A zero pivot after a successful extension cannot normally happen;
                    // recover through the from-scratch path below (which rebuilds the
                    // partially overwritten dual weights).
                    let xs = state.x.clone();
                    let ys = state.y_raw.clone();
                    self.note_observe_fallback(xs.len(), "zero pivot after extension");
                    return self.fit_in(&xs, &ys, arena);
                }
            }
        }

        // The appended pivot was not positive: refit from scratch, letting
        // `decompose_with_jitter` escalate the diagonal jitter.
        let mut xs = state.x.clone();
        xs.push(x_new.to_vec());
        let mut ys = state.y_raw.clone();
        ys.push(y_new);
        self.note_observe_fallback(xs.len(), "non-positive appended pivot");
        self.fit_in(&xs, &ys, arena)
    }

    /// Counts (and journals) an incremental-observe fallback to a full refit.
    fn note_observe_fallback(&self, n: usize, reason: &str) {
        self.telemetry.incr(CounterId::ObserveFullRefit);
        if self.telemetry.is_enabled() {
            self.telemetry.event(
                EventKind::ObserveFallback,
                "gp",
                &format!("n={n} reason={reason}"),
            );
        }
    }

    /// The dual weights `α = (K + σ²I)^{-1} y` of the current fit, in standardized
    /// output space (`None` when unfitted). `|α_i|` measures how strongly observation
    /// `i` shapes the posterior mean, which the observation-budget eviction policy uses
    /// as its information score.
    pub fn alpha(&self) -> Option<&[f64]> {
        self.fitted.as_ref().map(|s| s.alpha.as_slice())
    }

    /// Predicts the posterior mean and standard deviation at a query point.
    pub fn predict(&self, x_star: &[f64]) -> Result<Posterior, GpError> {
        let state = self.fitted.as_ref().ok_or(GpError::NotFitted)?;
        if x_star.len() != state.dim {
            return Err(GpError::DimensionMismatch {
                expected: state.dim,
                actual: x_star.len(),
            });
        }
        let n = state.x.len();
        let k_star: Vec<f64> = (0..n)
            .map(|i| self.kernel.eval(&state.x[i], x_star))
            .collect();

        let mean_std = k_star
            .iter()
            .zip(state.alpha.iter())
            .map(|(k, a)| k * a)
            .sum::<f64>();

        // var = k(x*, x*) - k_*^T (K + σ²I)^{-1} k_*  computed via v = L^{-1} k_*.
        let v = state
            .chol
            .solve_lower(&k_star)
            .map_err(|_| GpError::KernelNotPositiveDefinite)?;
        let prior = self.kernel.eval(x_star, x_star);
        let var_std = (prior - v.iter().map(|vi| vi * vi).sum::<f64>()).max(1e-12);

        Ok(Posterior {
            mean: state.standardizer.inverse(mean_std),
            std_dev: var_std.sqrt() * state.standardizer.scale(),
        })
    }

    /// Predicts at many points at once — the suggest-path hot loop.
    ///
    /// Instead of `C` scalar predictions (each paying an `O(n·d)` kernel row, an `O(n²)`
    /// triangular solve and two heap allocations), the batch is computed as one `C × n`
    /// cross-kernel matrix ([`crate::kernels::Kernel::eval_cross`], which lets additive
    /// contextual kernels share the context column across candidates) followed by one
    /// multi-RHS forward solve ([`linalg::Cholesky::solve_lower_multi`], which streams
    /// the factor through cache once per row block instead of once per candidate). No
    /// per-candidate allocation is performed.
    ///
    /// **Bit-identity contract:** the returned posteriors are bit-for-bit equal to
    /// calling [`GaussianProcess::predict`] on each point — the batched code performs
    /// the same floating-point operations in the same order per candidate (the same
    /// contract [`linalg::Cholesky::extend`] honors on the observe path). Snapshot
    /// replay and the safety assessment rely on this.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Result<Vec<Posterior>, GpError> {
        let state = self.fitted.as_ref().ok_or(GpError::NotFitted)?;
        for x in xs {
            if x.len() != state.dim {
                return Err(GpError::DimensionMismatch {
                    expected: state.dim,
                    actual: x.len(),
                });
            }
        }
        if xs.is_empty() {
            return Ok(Vec::new());
        }
        let k_cross = self.kernel.eval_cross(&state.x, xs);
        let v = state
            .chol
            .solve_lower_multi(&k_cross)
            .map_err(|_| GpError::KernelNotPositiveDefinite)?;
        let mut out = Vec::with_capacity(xs.len());
        for (q, x_star) in xs.iter().enumerate() {
            let mean_std = k_cross
                .row(q)
                .iter()
                .zip(state.alpha.iter())
                .map(|(k, a)| k * a)
                .sum::<f64>();
            let prior = self.kernel.eval(x_star, x_star);
            let var_std = (prior - v.row(q).iter().map(|vi| vi * vi).sum::<f64>()).max(1e-12);
            out.push(Posterior {
                mean: state.standardizer.inverse(mean_std),
                std_dev: var_std.sqrt() * state.standardizer.scale(),
            });
        }
        Ok(out)
    }

    /// Log marginal likelihood of the given data under the current hyper-parameters.
    ///
    /// Computed in standardized output space; only relative values matter for
    /// hyper-parameter selection.
    pub fn log_marginal_likelihood(&self, x: &[Vec<f64>], y: &[f64]) -> Result<f64, GpError> {
        if x.is_empty() {
            return Err(GpError::EmptyTrainingSet);
        }
        if x.len() != y.len() {
            return Err(GpError::LengthMismatch {
                inputs: x.len(),
                targets: y.len(),
            });
        }
        let standardizer = Standardizer::fit(y);
        let y_std: Vec<f64> = y.iter().map(|&v| standardizer.transform(v)).collect();
        let n = x.len();
        let mut k = Matrix::from_fn(n, n, |i, j| self.kernel.eval(&x[i], &x[j]));
        k.add_diagonal(self.noise_variance)
            .expect("gram matrix is square by construction");
        let chol = Cholesky::decompose_with_jitter(&k, 1e-3, &mut FactorScratch::default())
            .map_err(|_| GpError::KernelNotPositiveDefinite)?;
        let alpha = chol
            .solve(&y_std)
            .map_err(|_| GpError::KernelNotPositiveDefinite)?;
        let data_fit: f64 = y_std.iter().zip(alpha.iter()).map(|(a, b)| a * b).sum();
        let lml = -0.5 * data_fit
            - 0.5 * chol.log_det()
            - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();
        Ok(lml)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{Matern52Kernel, RbfKernel, ScaledKernel};

    fn sample_problem() -> (Vec<Vec<f64>>, Vec<f64>) {
        // y = sin(3x) on [0, 1], 12 evenly spaced points.
        let xs: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64 / 11.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (3.0 * x[0]).sin()).collect();
        (xs, ys)
    }

    fn default_gp() -> GaussianProcess {
        GaussianProcess::new(
            Box::new(ScaledKernel::new(Box::new(Matern52Kernel::new(0.3)), 1.0)),
            1e-4,
        )
    }

    #[test]
    fn fit_then_predict_interpolates_training_points() {
        let (xs, ys) = sample_problem();
        let mut gp = default_gp();
        gp.fit(&xs, &ys).unwrap();
        for (x, y) in xs.iter().zip(ys.iter()) {
            let p = gp.predict(x).unwrap();
            assert!((p.mean - y).abs() < 0.05, "{} vs {}", p.mean, y);
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let (xs, ys) = sample_problem();
        let mut gp = default_gp();
        gp.fit(&xs, &ys).unwrap();
        let near = gp.predict(&[0.5]).unwrap();
        let far = gp.predict(&[3.0]).unwrap();
        assert!(far.std_dev > near.std_dev * 2.0);
    }

    #[test]
    fn predict_before_fit_is_an_error() {
        let gp = default_gp();
        assert_eq!(gp.predict(&[0.5]).unwrap_err(), GpError::NotFitted);
    }

    #[test]
    fn mismatched_lengths_are_rejected() {
        let mut gp = default_gp();
        let err = gp.fit(&[vec![0.0], vec![1.0]], &[1.0]).unwrap_err();
        assert!(matches!(err, GpError::LengthMismatch { .. }));
        assert_eq!(gp.fit(&[], &[]).unwrap_err(), GpError::EmptyTrainingSet);
    }

    #[test]
    fn dimension_mismatch_on_predict() {
        let (xs, ys) = sample_problem();
        let mut gp = default_gp();
        gp.fit(&xs, &ys).unwrap();
        assert!(matches!(
            gp.predict(&[0.1, 0.2]).unwrap_err(),
            GpError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn duplicate_points_are_handled_via_jitter() {
        let xs = vec![vec![0.5], vec![0.5], vec![0.5], vec![0.9]];
        let ys = vec![1.0, 1.01, 0.99, 2.0];
        let mut gp = default_gp();
        gp.fit(&xs, &ys).unwrap();
        let p = gp.predict(&[0.5]).unwrap();
        assert!((p.mean - 1.0).abs() < 0.1);
    }

    #[test]
    fn constant_targets_predict_the_constant() {
        let xs = vec![vec![0.1], vec![0.5], vec![0.9]];
        let ys = vec![7.0, 7.0, 7.0];
        let mut gp = default_gp();
        gp.fit(&xs, &ys).unwrap();
        let p = gp.predict(&[0.3]).unwrap();
        assert!((p.mean - 7.0).abs() < 1e-6);
    }

    #[test]
    fn log_marginal_likelihood_prefers_sensible_lengthscale() {
        let (xs, ys) = sample_problem();
        let good = GaussianProcess::new(
            Box::new(ScaledKernel::new(Box::new(RbfKernel::new(0.3)), 1.0)),
            1e-4,
        );
        let bad = GaussianProcess::new(
            Box::new(ScaledKernel::new(Box::new(RbfKernel::new(1e-3)), 1.0)),
            1e-4,
        );
        let lml_good = good.log_marginal_likelihood(&xs, &ys).unwrap();
        let lml_bad = bad.log_marginal_likelihood(&xs, &ys).unwrap();
        assert!(lml_good > lml_bad);
    }

    #[test]
    fn posterior_variance_is_nonnegative_everywhere() {
        let (xs, ys) = sample_problem();
        let mut gp = default_gp();
        gp.fit(&xs, &ys).unwrap();
        for i in 0..50 {
            let x = -1.0 + 4.0 * i as f64 / 49.0;
            let p = gp.predict(&[x]).unwrap();
            assert!(p.variance() >= 0.0);
            assert!(p.mean.is_finite());
        }
    }

    #[test]
    fn observe_matches_fit_bitwise() {
        let (xs, ys) = sample_problem();
        let mut incremental = default_gp();
        for (x, y) in xs.iter().zip(ys.iter()) {
            incremental.observe(x, *y).unwrap();
        }
        let mut scratch = default_gp();
        scratch.fit(&xs, &ys).unwrap();
        assert_eq!(incremental.n_observations(), scratch.n_observations());
        for i in 0..40 {
            let q = [-0.5 + 2.0 * i as f64 / 39.0];
            let a = incremental.predict(&q).unwrap();
            let b = scratch.predict(&q).unwrap();
            assert_eq!(a.mean.to_bits(), b.mean.to_bits(), "mean at {q:?}");
            assert_eq!(a.std_dev.to_bits(), b.std_dev.to_bits(), "std at {q:?}");
        }
    }

    #[test]
    fn observe_on_unfitted_model_fits_single_point() {
        let mut gp = default_gp();
        gp.observe(&[0.5], 3.0).unwrap();
        assert!(gp.is_fitted());
        assert_eq!(gp.n_observations(), 1);
        let p = gp.predict(&[0.5]).unwrap();
        assert!((p.mean - 3.0).abs() < 1e-9);
    }

    #[test]
    fn observe_duplicate_point_falls_back_to_jittered_refit() {
        let mut gp = default_gp();
        gp.observe(&[0.5], 1.0).unwrap();
        // An exact duplicate makes the incremental pivot fail; the fallback refit with
        // jitter must still produce a usable model containing both observations.
        gp.observe(&[0.5], 1.01).unwrap();
        assert_eq!(gp.n_observations(), 2);
        let p = gp.predict(&[0.5]).unwrap();
        assert!(p.mean.is_finite() && p.std_dev.is_finite());
        // ... and it must agree with the from-scratch path, which hits the same jitter.
        let mut scratch = default_gp();
        scratch.fit(&[vec![0.5], vec![0.5]], &[1.0, 1.01]).unwrap();
        let a = gp.predict(&[0.3]).unwrap();
        let b = scratch.predict(&[0.3]).unwrap();
        assert_eq!(a.mean.to_bits(), b.mean.to_bits());
    }

    #[test]
    fn observe_dimension_mismatch_is_rejected() {
        let mut gp = default_gp();
        gp.observe(&[0.1], 1.0).unwrap();
        assert!(matches!(
            gp.observe(&[0.1, 0.2], 2.0),
            Err(GpError::DimensionMismatch { .. })
        ));
        assert_eq!(gp.n_observations(), 1);
    }

    #[test]
    fn hyperparameter_change_invalidates_fit_and_forces_refit() {
        let mut gp = default_gp();
        for i in 0..5 {
            gp.observe(&[i as f64 / 4.0], i as f64).unwrap();
        }
        gp.set_noise_variance(1e-2);
        assert!(!gp.is_fitted());
        // observe() on the invalidated model only knows about the new point; the caller
        // (ContextualGp) is responsible for refitting on its full observation store.
        gp.observe(&[0.9], 4.0).unwrap();
        assert_eq!(gp.n_observations(), 1);
    }

    /// `n` scattered 3-d inputs with a smooth target.
    fn scattered_problem(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let t = i as f64;
                vec![(t * 0.37).fract(), (t * 0.61).fract(), (t * 0.83).fract()]
            })
            .collect();
        let ys = xs
            .iter()
            .map(|x| (3.0 * x[0]).sin() + x[1] * x[2])
            .collect();
        (xs, ys)
    }

    /// Everything a fitted GP computed, as bits: its factor, jitter, `α` and the
    /// posterior at a few probes.
    fn fitted_bits(gp: &GaussianProcess) -> Vec<u64> {
        let state = gp.fitted.as_ref().expect("fitted");
        let mut bits: Vec<u64> = state
            .chol
            .factor()
            .data()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        bits.push(state.chol.jitter().to_bits());
        bits.extend(state.alpha.iter().map(|v| v.to_bits()));
        for probe in scattered_problem(7).0 {
            let p = gp.predict(&probe).unwrap();
            bits.extend([p.mean.to_bits(), p.std_dev.to_bits()]);
        }
        bits
    }

    #[test]
    fn a_thread_arena_that_served_other_models_fits_bit_identically_to_a_fresh_one() {
        // 70 points cross the factorization's 64-column panel boundary.
        fn fit_and_observe_70() -> (Vec<u64>, Vec<u64>) {
            let (xs, ys) = scattered_problem(70);
            let mut fitted = default_gp();
            fitted.fit(&xs, &ys).unwrap();
            let mut observed = default_gp();
            for (x, y) in xs.iter().zip(ys.iter()) {
                observed.observe(x, *y).unwrap();
            }
            (fitted_bits(&fitted), fitted_bits(&observed))
        }
        fn fit_first(n: usize) {
            let (xs, ys) = scattered_problem(n);
            default_gp().fit(&xs, &ys).unwrap();
        }
        fn jittered_fit_first() {
            let xs: Vec<Vec<f64>> = (0..90).map(|i| vec![0.1 * (i % 3) as f64; 3]).collect();
            let ys: Vec<f64> = (0..90).map(|i| i as f64).collect();
            // Exact duplicates and a negligible noise leave zero pivots without jitter.
            let kernel = Box::new(ScaledKernel::new(Box::new(Matern52Kernel::new(0.3)), 1.0));
            let mut gp = GaussianProcess::new(kernel, f64::MIN_POSITIVE);
            gp.fit(&xs, &ys).unwrap();
            assert!(gp.fitted.as_ref().unwrap().chol.jitter() > 0.0);
        }

        let fresh = std::thread::spawn(fit_and_observe_70).join().unwrap();
        let warm_ups: [fn(); 3] = [|| fit_first(130), || fit_first(20), jittered_fit_first];
        for (i, warm_up) in warm_ups.into_iter().enumerate() {
            let reused = std::thread::spawn(move || {
                warm_up();
                fit_and_observe_70()
            })
            .join()
            .unwrap();
            assert!(reused.0 == fresh.0, "fit differs after warm-up {i}");
            assert!(reused.1 == fresh.1, "observe differs after warm-up {i}");
        }
    }

    #[test]
    fn alpha_exposes_dual_weights() {
        let (xs, ys) = sample_problem();
        let mut gp = default_gp();
        assert!(gp.alpha().is_none());
        gp.fit(&xs, &ys).unwrap();
        assert_eq!(gp.alpha().unwrap().len(), xs.len());
    }

    #[test]
    fn batch_prediction_matches_pointwise() {
        let (xs, ys) = sample_problem();
        let mut gp = default_gp();
        gp.fit(&xs, &ys).unwrap();
        let queries = vec![vec![0.2], vec![0.7]];
        let batch = gp.predict_batch(&queries).unwrap();
        for (q, b) in queries.iter().zip(batch.iter()) {
            let p = gp.predict(q).unwrap();
            assert_eq!(p.mean.to_bits(), b.mean.to_bits());
            assert_eq!(p.std_dev.to_bits(), b.std_dev.to_bits());
        }
    }

    #[test]
    fn batch_prediction_edge_cases() {
        let (xs, ys) = sample_problem();
        let mut gp = default_gp();
        assert_eq!(
            gp.predict_batch(&[vec![0.5]]).unwrap_err(),
            GpError::NotFitted
        );
        gp.fit(&xs, &ys).unwrap();
        assert!(gp.predict_batch(&[]).unwrap().is_empty());
        // A single malformed query fails the whole batch with the scalar path's error.
        assert!(matches!(
            gp.predict_batch(&[vec![0.5], vec![0.1, 0.2]]).unwrap_err(),
            GpError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn non_finite_training_data_is_rejected_with_typed_errors() {
        let mut gp = default_gp();
        assert_eq!(
            gp.fit(&[vec![0.1], vec![f64::NAN]], &[1.0, 2.0])
                .unwrap_err(),
            GpError::NonFiniteInput { index: 1 }
        );
        assert_eq!(
            gp.fit(&[vec![0.1], vec![0.2]], &[1.0, f64::INFINITY])
                .unwrap_err(),
            GpError::NonFiniteTarget { index: 1 }
        );
        assert!(
            gp.predict(&[0.5]).is_err(),
            "rejected fits must not leave a fitted model behind"
        );
        // The incremental path rejects too, and keeps the existing fit intact.
        let (xs, ys) = sample_problem();
        gp.fit(&xs, &ys).unwrap();
        let before = gp.predict(&[0.5]).unwrap();
        assert_eq!(
            gp.observe(&[f64::NEG_INFINITY], 1.0).unwrap_err(),
            GpError::NonFiniteInput { index: 0 }
        );
        assert_eq!(
            gp.observe(&[0.7], f64::NAN).unwrap_err(),
            GpError::NonFiniteTarget { index: 0 }
        );
        let after = gp.predict(&[0.5]).unwrap();
        assert_eq!(before.mean, after.mean);
        assert_eq!(before.std_dev, after.std_dev);
    }

    mod properties {
        use super::*;
        use crate::acquisition::{lower_confidence_bound, upper_confidence_bound};
        use crate::kernels::AdditiveContextKernel;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Satellite property of the fault-tolerance PR: a fuzzed interleaving of
            /// finite and non-finite observations must never yield a non-finite
            /// posterior — every poisoned feed is rejected at the boundary and every
            /// accepted feed keeps the factor healthy.
            #[test]
            fn prop_mixed_finite_and_poisoned_feeds_keep_the_posterior_finite(
                feeds in proptest::collection::vec(
                    (-1.0f64..1.0, -5.0f64..5.0, 0u8..4), 1..24),
            ) {
                let mut gp = default_gp();
                for (x, y, poison) in &feeds {
                    let (xq, yq) = match poison {
                        1 => (f64::NAN, *y),
                        2 => (*x, f64::INFINITY),
                        3 => (f64::NEG_INFINITY, f64::NAN),
                        _ => (*x, *y),
                    };
                    let result = gp.observe(&[xq], yq);
                    if *poison == 0 {
                        prop_assert!(result.is_ok());
                    } else {
                        prop_assert!(matches!(
                            result.unwrap_err(),
                            GpError::NonFiniteInput { .. } | GpError::NonFiniteTarget { .. }
                        ));
                    }
                    if gp.is_fitted() {
                        let p = gp.predict(&[0.3]).unwrap();
                        prop_assert!(p.mean.is_finite(), "mean {}", p.mean);
                        prop_assert!(p.std_dev.is_finite(), "std {}", p.std_dev);
                    }
                }
            }

            #[test]
            fn prop_predict_batch_bit_identical_to_pointwise(
                kernel_idx in 0usize..4,
                data in proptest::collection::vec(
                    (proptest::collection::vec(-1.0f64..1.0, 3), -5.0f64..5.0), 3..16),
                queries in proptest::collection::vec(
                    proptest::collection::vec(-1.5f64..1.5, 3), 1..12),
                shared_ctx in -1.0f64..1.0,
                beta in 0.5f64..3.0,
            ) {
                // The batched posterior — and everything derived from it (LCB safety
                // bound, UCB acquisition) — must equal the per-point path bit-for-bit
                // across kernels, training-set sizes, batch sizes and contexts.
                let kernel: Box<dyn Kernel> = match kernel_idx {
                    0 => Box::new(Matern52Kernel::new(0.3)),
                    1 => Box::new(RbfKernel::new(0.5)),
                    2 => Box::new(ScaledKernel::new(Box::new(Matern52Kernel::new(0.4)), 2.0)),
                    _ => Box::new(AdditiveContextKernel::new(2)),
                };
                let xs: Vec<Vec<f64>> = data.iter().map(|(x, _)| x.clone()).collect();
                let ys: Vec<f64> = data.iter().map(|(_, y)| *y).collect();
                let mut gp = GaussianProcess::new(kernel, 1e-4);
                gp.fit(&xs, &ys).unwrap();
                // Mixed per-query contexts and a shared-context batch (the latter takes
                // the additive kernel's context-column-sharing fast path).
                let mut shared = queries.clone();
                for q in shared.iter_mut() {
                    q[2] = shared_ctx;
                }
                for batch_queries in [&queries, &shared] {
                    let batch = gp.predict_batch(batch_queries).unwrap();
                    prop_assert_eq!(batch.len(), batch_queries.len());
                    for (q, b) in batch_queries.iter().zip(batch.iter()) {
                        let p = gp.predict(q).unwrap();
                        prop_assert_eq!(p.mean.to_bits(), b.mean.to_bits());
                        prop_assert_eq!(p.std_dev.to_bits(), b.std_dev.to_bits());
                        prop_assert_eq!(
                            lower_confidence_bound(&p, beta).to_bits(),
                            lower_confidence_bound(b, beta).to_bits()
                        );
                        prop_assert_eq!(
                            upper_confidence_bound(&p, beta).to_bits(),
                            upper_confidence_bound(b, beta).to_bits()
                        );
                    }
                }
            }

            #[test]
            fn prop_predictions_finite_for_random_data(
                raw in proptest::collection::vec((-1.0f64..1.0, -10.0f64..10.0), 3..20),
                q in -2.0f64..2.0,
            ) {
                let xs: Vec<Vec<f64>> = raw.iter().map(|(x, _)| vec![*x]).collect();
                let ys: Vec<f64> = raw.iter().map(|(_, y)| *y).collect();
                let mut gp = default_gp();
                gp.fit(&xs, &ys).unwrap();
                let p = gp.predict(&[q]).unwrap();
                prop_assert!(p.mean.is_finite());
                prop_assert!(p.std_dev.is_finite());
                prop_assert!(p.std_dev >= 0.0);
            }

            #[test]
            fn prop_incremental_observe_equals_from_scratch_fit(
                raw in proptest::collection::vec((-1.0f64..1.0, -10.0f64..10.0), 2..24),
                probes in proptest::collection::vec(-1.5f64..1.5, 8),
            ) {
                // Random observe sequences: the incrementally-built posterior must agree
                // with the from-scratch fit within 1e-9 everywhere (it is bit-identical
                // in practice; the tolerance is the contract the ISSUE pins).
                let mut incremental = default_gp();
                for (x, y) in &raw {
                    incremental.observe(&[*x], *y).unwrap();
                }
                let xs: Vec<Vec<f64>> = raw.iter().map(|(x, _)| vec![*x]).collect();
                let ys: Vec<f64> = raw.iter().map(|(_, y)| *y).collect();
                let mut scratch = default_gp();
                scratch.fit(&xs, &ys).unwrap();
                for q in &probes {
                    let a = incremental.predict(&[*q]).unwrap();
                    let b = scratch.predict(&[*q]).unwrap();
                    prop_assert!((a.mean - b.mean).abs() < 1e-9, "mean {} vs {}", a.mean, b.mean);
                    prop_assert!((a.std_dev - b.std_dev).abs() < 1e-9, "std {} vs {}", a.std_dev, b.std_dev);
                }
            }

            #[test]
            fn prop_posterior_mean_within_data_range_at_observed_points(
                raw in proptest::collection::vec((-1.0f64..1.0, 0.0f64..100.0), 4..16),
            ) {
                let xs: Vec<Vec<f64>> = raw.iter().map(|(x, _)| vec![*x]).collect();
                let ys: Vec<f64> = raw.iter().map(|(_, y)| *y).collect();
                let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let span = (hi - lo).max(1.0);
                let mut gp = default_gp();
                gp.fit(&xs, &ys).unwrap();
                for x in &xs {
                    let p = gp.predict(x).unwrap();
                    prop_assert!(p.mean >= lo - span && p.mean <= hi + span);
                }
            }
        }
    }
}
