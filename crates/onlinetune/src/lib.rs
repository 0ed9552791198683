//! # onlinetune — dynamic and safe configuration tuning for cloud databases
//!
//! This crate is the reproduction of the paper's primary contribution: an *online* tuner
//! that adapts to changing workloads (contextual Bayesian optimization) while respecting a
//! safety constraint (never — or almost never — applying a configuration that performs
//! worse than the default).
//!
//! The top-level loop lives in [`tuner::OnlineTune`] and follows Algorithm 3 of the paper:
//!
//! 1. **Context featurization** happens outside this crate (see the `featurize` crate); the
//!    tuner receives the context vector `c_t`.
//! 2. **Model selection** ([`clustering`]) — DBSCAN clusters of contexts, one contextual GP
//!    per cluster, an SVM decision boundary for routing new contexts, and a normalized-
//!    mutual-information trigger for re-clustering (Algorithm 1).
//! 3. **Subspace adaptation** ([`subspace`]) — the optimization is restricted to a hypercube
//!    or line region centred on the best configuration found so far, expanded on successes
//!    and shrunk on failures (Algorithm 2).
//! 4. **Safety assessment** ([`safety`], [`whitebox`]) — candidates are kept only if the GP
//!    lower confidence bound clears the safety threshold (black box) and no MysqlTuner-style
//!    heuristic rule rejects them (white box, with conflict-driven rule relaxation).
//! 5. **Candidate selection** ([`candidate`]) — ε-greedy between the UCB maximizer and the
//!    most uncertain boundary point of the safety set.
//! 6. **Apply & evaluate** happens outside this crate (the `simdb` instance).
//! 7. **Model update** — [`tuner::OnlineTune::observe`] feeds the observation back. This
//!    is the hot path: the cluster's GP is updated *incrementally* in `O(t²)` per
//!    iteration (rank-1 Cholesky extension, see `gp::GaussianProcess::observe`) instead
//!    of an `O(t³)` refit; a from-scratch refit only happens when hyper-parameters are
//!    re-optimized, on re-clustering, or when the per-model observation budget evicts.
//!
//! Stages 2–5 and 7 each record a telemetry span (`telemetry::SpanId::ModelSelection`,
//! `SubspaceAdaptation`, `SafetyAssessment`, `CandidateSelection` and `Observe`) when the
//! tuner holds an enabled handle, so `bench --bin fig8_overhead` regenerates the
//! overhead experiment (Figure 8 / Table A1) from them. What each iteration decided is
//! in [`diagnostics::IterationDiagnostics`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod candidate;
pub mod clustering;
pub mod diagnostics;
pub mod safety;
pub mod subspace;
pub mod tuner;
pub mod whitebox;

pub use diagnostics::IterationDiagnostics;
pub use tuner::{AblationFlags, ObserveError, OnlineTune, OnlineTuneOptions, Suggestion};
pub use whitebox::{RuleEngine, WhiteBoxRule};
