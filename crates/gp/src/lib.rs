//! # gp — Gaussian-process regression for configuration tuning
//!
//! This crate implements the surrogate-model machinery used by OnlineTune and the
//! Bayesian-optimization baselines of the SIGMOD 2022 paper:
//!
//! * [`kernels`] — Matérn-5/2 and linear kernels, a scaled wrapper and the **additive
//!   contextual kernel** `k_Θ(θ, θ') + k_C(c, c')` from §5.2 of the paper.
//! * [`regression`] — exact GP regression via Cholesky factorization (posterior mean,
//!   variance, log marginal likelihood) on top of the [`linalg`] crate.
//! * [`hyperopt`] — log-marginal-likelihood hyper-parameter fitting with a multi-start
//!   Nelder–Mead simplex optimizer (no gradients needed).
//! * [`acquisition`] — Expected Improvement (used by the OtterTune-style baseline),
//!   GP-UCB and the lower confidence bound used for black-box safety assessment,
//!   including the `β_t` schedule of Srinivas et al. referenced by the paper.
//! * [`normalize`] — output standardization (configurations arrive already in the unit
//!   hypercube).
//! * [`contextual`] — a convenience wrapper that manages the `(context, configuration)`
//!   joint input space, with an optional observation budget.
//! * [`rows`] — observations kept once: one shared joint row per observation, held by
//!   every model, safe set and knowledge pool that keeps it.
//!
//! ## The incremental-vs-refit contract
//!
//! Online tuning observes one point per iteration, so the per-iteration model update is
//! the hot path of the whole system. [`GaussianProcess`] therefore offers two fitting
//! paths with a strict equivalence contract (see [`regression`] for details):
//!
//! * [`GaussianProcess::observe`] / [`ContextualGp::observe`] — `O(n²)`: extend the
//!   cached Cholesky factor by one row, refresh the output standardizer, re-solve the
//!   dual weights. Use this whenever only the training set grew.
//! * [`GaussianProcess::fit`] / [`ContextualGp::refit`] — `O(n³)`: rebuild everything.
//!   Required after kernel hyper-parameter or noise changes (both invalidate the cached
//!   factor automatically), bulk observation replacement, and snapshot restore.
//!
//! Both paths produce **bit-identical** posteriors, so callers may mix them freely —
//! snapshot/restore (which refits) replays incrementally-built sessions exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acquisition;
pub mod contextual;
pub mod hyperopt;
pub mod kernels;
pub mod normalize;
pub mod regression;
pub mod rows;

pub use acquisition::{
    expected_improvement, lower_confidence_bound, ucb_beta, upper_confidence_bound,
};
pub use contextual::{ContextualGp, ObservationBudget};
pub use kernels::{AdditiveContextKernel, Kernel, LinearKernel, Matern52Kernel, ScaledKernel};
pub use regression::{GaussianProcess, GpError, Posterior};
pub use rows::{Row, RowInterner, SharedConfig, SharedObservation};
