//! Contextual Gaussian process: a GP over the joint `(configuration, context)` space.
//!
//! This is the surrogate model of §5.2. The configuration is expected to be normalized into
//! the unit hypercube (`simdb::Configuration::normalized` does this); the context is the
//! feature vector produced by the `featurize` crate. Internally the model simply concatenates
//! `[θ, c]` and uses the additive contextual kernel.
//!
//! # Hot path
//!
//! [`ContextualGp::observe`] is the per-iteration update used by the online tuner: it
//! appends the observation and extends the underlying GP incrementally in `O(n²)`
//! ([`GaussianProcess::observe`]). The from-scratch [`ContextualGp::refit`] remains for
//! the cases where the cached factorization is genuinely stale: hyper-parameter changes
//! ([`ContextualGp::refit_with_hyperopt`], [`ContextualGp::set_hyperparams`]), bulk
//! observation replacement ([`ContextualGp::set_observations`]) and snapshot restore.
//! An optional [`ObservationBudget`] bounds memory and per-iteration cost by evicting
//! low-information observations in batches once a window size is exceeded.
//!
//! The model keeps each observation as a [`SharedObservation`]: its joint row `[θ ‖ c]`
//! is the same allocation the caller's repository holds, and the underlying GP trains on
//! that row too, so a model adds no copy of any observation's values.

use crate::hyperopt::{optimize_hyperparameters, HyperOptReport};
use crate::kernels::AdditiveContextKernel;
use crate::regression::{GaussianProcess, GpError, Posterior};
use crate::rows::{Row, SharedObservation};
use rand::Rng;
use std::cell::Cell;
use std::sync::Arc;

/// One `(context, configuration, performance)` observation, in the units used by the tuner
/// (normalized configuration, raw context feature, raw performance), as snapshots write it.
/// Models keep observations as [`SharedObservation`]s instead.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ContextObservation {
    /// Context feature vector `c_t`.
    pub context: Vec<f64>,
    /// Normalized configuration vector `θ_t ∈ [0, 1]^m`.
    pub config: Vec<f64>,
    /// Observed performance `y_t` (higher is better; latency objectives are negated by the
    /// caller).
    pub performance: f64,
}

/// Bounds how many observations a [`ContextualGp`] retains.
///
/// When the store exceeds `window`, it is shrunk to `evict_to` observations in one batch
/// (followed by a single full refit), so eviction cost is amortized: with
/// `evict_to < window` the `O(n³)` refit happens once every `window - evict_to`
/// observations, keeping the *amortized* per-observation cost `O(n²)`.
///
/// The retained set is the most recent `evict_to / 2` observations unconditionally, plus
/// the older observations with the largest dual weight `|α_i|` (the highest-information
/// points: those that shape the posterior mean the most). Selection is deterministic
/// (ties break toward recency), which snapshot replay relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ObservationBudget {
    /// Maximum number of observations retained; exceeding it triggers an eviction.
    pub window: usize,
    /// Number of observations kept after an eviction (`<= window`).
    pub evict_to: usize,
}

impl ObservationBudget {
    /// A budget that evicts down to 3/4 of `window`, amortizing refits over
    /// `window / 4` observations.
    pub fn new(window: usize) -> Self {
        let window = window.max(1);
        ObservationBudget {
            window,
            evict_to: (window * 3 / 4).max(1),
        }
    }
}

thread_local! {
    /// This thread's joint query rows for [`ContextualGp::predict_batch`].
    static QUERY_ROWS: Cell<Vec<Vec<f64>>> = const { Cell::new(Vec::new()) };
}

/// A Gaussian process over the joint context–configuration space.
///
/// A clone holds handles on the original's observation rows and, as a
/// [`GaussianProcess`] clone does, no fit: it predicts nothing until it is refitted.
#[derive(Clone)]
pub struct ContextualGp {
    gp: GaussianProcess,
    config_dim: usize,
    context_dim: usize,
    observations: Vec<SharedObservation>,
    budget: Option<ObservationBudget>,
}

impl ContextualGp {
    /// Creates an empty contextual GP for the given dimensions (no observation budget).
    pub fn new(config_dim: usize, context_dim: usize) -> Self {
        let kernel = AdditiveContextKernel::new(config_dim);
        ContextualGp {
            gp: GaussianProcess::new(Box::new(kernel), 1e-2),
            config_dim,
            context_dim,
            observations: Vec::new(),
            budget: None,
        }
    }

    /// The stored observations' shared joint rows and their targets, gathered for one
    /// refit: handles on the rows, not copies of them.
    fn training_set(&self) -> (Vec<Row>, Vec<f64>) {
        let x = self
            .observations
            .iter()
            .map(|o| Arc::clone(o.row()))
            .collect();
        let y = self.observations.iter().map(|o| o.performance).collect();
        (x, y)
    }

    /// Sets (or clears) the observation budget. The budget is enforced on the next
    /// [`ContextualGp::observe`]; it does not evict retroactively.
    pub fn set_budget(&mut self, budget: Option<ObservationBudget>) {
        self.budget = budget;
    }

    /// Installs a telemetry sink on this model and its underlying GP (runtime-only,
    /// never serialized).
    pub fn set_telemetry(&mut self, telemetry: telemetry::TelemetryHandle) {
        self.gp.set_telemetry(telemetry);
    }

    /// The installed telemetry sink (the no-op sink by default).
    pub fn telemetry(&self) -> &telemetry::TelemetryHandle {
        self.gp.telemetry()
    }

    /// The stored observations.
    pub fn observations(&self) -> &[SharedObservation] {
        &self.observations
    }

    /// Number of stored observations.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// Whether the model has no observations.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    fn joint(&self, config: &[f64], context: &[f64]) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.config_dim + self.context_dim);
        v.extend_from_slice(config);
        v.extend_from_slice(context);
        v
    }

    /// Adds an observation without refitting (call [`ContextualGp::refit`] afterwards).
    /// A [`SharedObservation`] is kept by reference; a [`ContextObservation`] is copied
    /// into a row of its own.
    ///
    /// Prefer [`ContextualGp::observe`] in per-iteration loops — it keeps the model
    /// fitted at `O(n²)` instead of deferring an `O(n³)` refit.
    pub fn add_observation(&mut self, obs: impl Into<SharedObservation>) {
        let obs = obs.into();
        debug_assert_eq!(obs.config().len(), self.config_dim);
        debug_assert_eq!(obs.context().len(), self.context_dim);
        self.observations.push(obs);
    }

    /// Adds an observation and updates the model incrementally in `O(n²)` (the hot path).
    ///
    /// When the underlying GP's training set is exactly the stored observations, the new
    /// point is folded in via [`GaussianProcess::observe`] (Cholesky extension, no gram
    /// rebuild). Otherwise — first observation, a prior refit failure, or an invalidated
    /// fit after [`ContextualGp::set_hyperparams`] — it falls back to a full
    /// [`ContextualGp::refit`]. Afterwards the observation budget, if any, is enforced.
    ///
    /// The resulting posterior is identical (bit-for-bit) to `add_observation` followed
    /// by `refit`; only the cost differs.
    ///
    /// A wrong-dimension observation is rejected before it touches the store — unlike the
    /// `debug_assert` in [`ContextualGp::add_observation`], this holds in release builds,
    /// where a single malformed observation would otherwise poison every later refit.
    pub fn observe(&mut self, obs: SharedObservation) -> Result<(), GpError> {
        if obs.config().len() != self.config_dim {
            return Err(GpError::DimensionMismatch {
                expected: self.config_dim,
                actual: obs.config().len(),
            });
        }
        if obs.context().len() != self.context_dim {
            return Err(GpError::DimensionMismatch {
                expected: self.context_dim,
                actual: obs.context().len(),
            });
        }
        // Non-finite data is rejected *before* the store push: once a NaN observation
        // lives in the store, every later refit would fail forever.
        if obs.row().iter().any(|v| !v.is_finite()) {
            return Err(GpError::NonFiniteInput { index: 0 });
        }
        if !obs.performance.is_finite() {
            return Err(GpError::NonFiniteTarget { index: 0 });
        }
        let joint = Arc::clone(obs.row());
        let performance = obs.performance;
        self.observations.push(obs);
        if self.gp.is_fitted() && self.gp.n_observations() + 1 == self.observations.len() {
            self.gp.observe(joint, performance)?;
        } else {
            self.refit()?;
        }
        self.enforce_budget()
    }

    /// Applies the observation budget: when the store exceeds `window`, keep the most
    /// recent `evict_to / 2` observations plus the highest-`|α|` older ones, then refit.
    fn enforce_budget(&mut self) -> Result<(), GpError> {
        let Some(budget) = self.budget else {
            return Ok(());
        };
        if self.observations.len() <= budget.window {
            return Ok(());
        }
        let n_keep = budget.evict_to.min(budget.window).max(1);
        let total = self.observations.len();
        let recent_keep = (n_keep / 2).max(1).min(n_keep);
        let recent_start = total - recent_keep;
        let budget_slots = n_keep - recent_keep;

        // Rank the older observations by their influence on the posterior mean. The dual
        // weights are available iff the GP is fitted on exactly the stored observations;
        // otherwise fall back to pure recency.
        let scores: Vec<f64> = match self.gp.alpha() {
            Some(alpha) if alpha.len() == total => alpha.iter().map(|a| a.abs()).collect(),
            _ => (0..total).map(|i| i as f64).collect(),
        };
        let mut older: Vec<usize> = (0..recent_start).collect();
        older.sort_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.cmp(&a))
        });
        let mut keep_idx: Vec<usize> = older.into_iter().take(budget_slots).collect();
        keep_idx.extend(recent_start..total);
        // Chronological order keeps "most recent" semantics stable across evictions.
        keep_idx.sort_unstable();

        let kept: Vec<SharedObservation> = keep_idx
            .into_iter()
            .map(|i| self.observations[i].clone())
            .collect();
        let evicted = total - kept.len();
        let t = self.gp.telemetry();
        t.add(telemetry::CounterId::BudgetEvictions, evicted as u64);
        if t.is_enabled() {
            t.event(
                telemetry::EventKind::BudgetEviction,
                "contextual-gp",
                &format!(
                    "evicted={evicted} kept={} window={}",
                    kept.len(),
                    budget.window
                ),
            );
        }
        self.observations = kept;
        self.refit()
    }

    /// Replaces all observations (a restore sets a model's window this way).
    /// [`SharedObservation`]s are kept by reference; [`ContextObservation`]s are copied
    /// into rows of their own. Invalidates the underlying fit: the cached factorization
    /// belongs to the old observation set, and a same-length replacement would otherwise
    /// be indistinguishable from it on the next [`ContextualGp::observe`]. Call
    /// [`ContextualGp::refit`] to fit on the new set.
    pub fn set_observations<O: Into<SharedObservation>>(
        &mut self,
        obs: impl IntoIterator<Item = O>,
    ) {
        self.observations = obs.into_iter().map(Into::into).collect();
        self.gp.invalidate_fit();
    }

    /// Refits the underlying GP on the stored observations' shared rows. The Gram matrix
    /// and factor storage come from the thread's fit arena (see
    /// [`GaussianProcess::fit`]), so a model between refits holds only its fit and its
    /// observations, and both refer to the same rows.
    pub fn refit(&mut self) -> Result<(), GpError> {
        if self.observations.is_empty() {
            return Err(GpError::EmptyTrainingSet);
        }
        let (x, y) = self.training_set();
        self.gp.fit(&x, &y)
    }

    /// Refits and additionally optimizes the kernel hyper-parameters.
    pub fn refit_with_hyperopt<R: Rng>(&mut self, rng: &mut R) -> Result<HyperOptReport, GpError> {
        if self.observations.is_empty() {
            return Err(GpError::EmptyTrainingSet);
        }
        let report = {
            let (x, y) = self.training_set();
            optimize_hyperparameters(&mut self.gp, &x, &y, rng)?
        };
        // Invariant: `optimize_hyperparameters` refits the GP as its final step (and
        // returns that fit's error, leaving the GP unfitted), so fitting again here would
        // redo the O(n³) work it just did.
        self.enforce_budget()?;
        Ok(report)
    }

    /// Predicts the performance of `config` under `context`.
    pub fn predict(&self, config: &[f64], context: &[f64]) -> Result<Posterior, GpError> {
        self.gp.predict(&self.joint(config, context))
    }

    /// Predicts the performance of many candidate configurations under one shared
    /// context with a single batched GP call ([`GaussianProcess::predict_batch`]).
    ///
    /// Because every candidate carries the same context, the additive contextual kernel
    /// computes the context column once for the whole sweep. The posteriors are
    /// bit-identical to calling [`ContextualGp::predict`] per candidate.
    ///
    /// The joint `[θ, c]` query rows are the calling thread's: a sweep takes them for
    /// the call and puts them back, so sweeps on one thread reuse one set of rows
    /// without a per-candidate allocation, and no model or tuner keeps rows of its own.
    pub fn predict_batch(
        &self,
        configs: &[Vec<f64>],
        context: &[f64],
    ) -> Result<Vec<Posterior>, GpError> {
        let mut rows = QUERY_ROWS.take();
        rows.truncate(configs.len());
        for (i, config) in configs.iter().enumerate() {
            if i < rows.len() {
                let joint = &mut rows[i];
                joint.clear();
                joint.extend_from_slice(config);
                joint.extend_from_slice(context);
            } else {
                let mut joint = Vec::with_capacity(self.config_dim + self.context_dim);
                joint.extend_from_slice(config);
                joint.extend_from_slice(context);
                rows.push(joint);
            }
        }
        let posteriors = self.gp.predict_batch(&rows);
        QUERY_ROWS.set(rows);
        posteriors
    }

    /// Exports the kernel hyper-parameters (log space) and the observation-noise variance.
    ///
    /// Together with [`ContextualGp::observations`] this is the complete model state:
    /// fitting is deterministic, so restoring the hyper-parameters and refitting on the
    /// same observations reproduces the posterior bit-for-bit.
    pub fn hyperparams(&self) -> (Vec<f64>, f64) {
        (self.gp.kernel().params(), self.gp.noise_variance())
    }

    /// Restores hyper-parameters exported by [`ContextualGp::hyperparams`].
    ///
    /// Invalidates the current fit; call [`ContextualGp::refit`] afterwards.
    pub fn set_hyperparams(&mut self, kernel_params: &[f64], noise_variance: f64) {
        self.gp.kernel_mut().set_params(kernel_params);
        self.gp.set_noise_variance(noise_variance);
    }

    /// Whether the model has been fitted.
    pub fn is_fitted(&self) -> bool {
        self.gp.is_fitted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy objective with a context-dependent optimum: f(θ, c) = -(θ - c)² so the best
    /// configuration equals the context value.
    fn toy(theta: f64, c: f64) -> f64 {
        -(theta - c).powi(2)
    }

    fn build_model() -> ContextualGp {
        let mut model = ContextualGp::new(1, 1);
        for i in 0..10 {
            let theta = i as f64 / 9.0;
            for &c in &[0.2, 0.4] {
                model.add_observation(ContextObservation {
                    context: vec![c],
                    config: vec![theta],
                    performance: toy(theta, c),
                });
            }
        }
        model.refit().unwrap();
        model
    }

    #[test]
    fn predicts_context_dependent_optimum() {
        let model = build_model();
        // Under context 0.2 the best configuration is near 0.2, under 0.4 near 0.4.
        let near_02 = model.predict(&[0.2], &[0.2]).unwrap().mean;
        let off_02 = model.predict(&[0.8], &[0.2]).unwrap().mean;
        assert!(near_02 > off_02);
        let near_04 = model.predict(&[0.4], &[0.4]).unwrap().mean;
        let off_04 = model.predict(&[0.9], &[0.4]).unwrap().mean;
        assert!(near_04 > off_04);
    }

    #[test]
    fn transfers_knowledge_to_nearby_context() {
        // Figure 3 of the paper: observations only under context 0.2; the posterior under a
        // nearby context (0.25) should still be informative (lower uncertainty than under a
        // distant context far outside the observed range).
        let mut model = ContextualGp::new(1, 1);
        for i in 0..8 {
            let theta = i as f64 / 7.0;
            model.add_observation(ContextObservation {
                context: vec![0.2],
                config: vec![theta],
                performance: toy(theta, 0.2),
            });
        }
        model.refit().unwrap();
        let near = model.predict(&[0.5], &[0.25]).unwrap();
        let far = model.predict(&[0.5], &[5.0]).unwrap();
        assert!(near.std_dev < far.std_dev);
    }

    #[test]
    fn empty_model_refit_is_an_error() {
        let mut model = ContextualGp::new(2, 3);
        assert!(model.refit().is_err());
        assert!(model.is_empty());
    }

    #[test]
    fn observe_matches_add_then_refit_bitwise() {
        let mut incremental = ContextualGp::new(1, 1);
        let mut scratch = ContextualGp::new(1, 1);
        for i in 0..12 {
            let theta = i as f64 / 11.0;
            let o = ContextObservation {
                context: vec![0.3],
                config: vec![theta],
                performance: toy(theta, 0.3),
            };
            incremental.observe(o.clone().into()).unwrap();
            scratch.add_observation(o);
        }
        scratch.refit().unwrap();
        for i in 0..20 {
            let theta = i as f64 / 19.0;
            let a = incremental.predict(&[theta], &[0.3]).unwrap();
            let b = scratch.predict(&[theta], &[0.3]).unwrap();
            assert_eq!(a.mean.to_bits(), b.mean.to_bits());
            assert_eq!(a.std_dev.to_bits(), b.std_dev.to_bits());
        }
    }

    #[test]
    fn observe_refits_fully_after_hyperparam_change() {
        let mut model = ContextualGp::new(1, 1);
        for i in 0..6 {
            let theta = i as f64 / 5.0;
            model
                .observe(SharedObservation::new(&[theta], &[0.2], toy(theta, 0.2)))
                .unwrap();
        }
        let (params, _) = model.hyperparams();
        model.set_hyperparams(&params, 5e-2); // invalidates the fit
        assert!(!model.is_fitted());
        model
            .observe(SharedObservation::new(&[0.5], &[0.2], toy(0.5, 0.2)))
            .unwrap();
        // The fallback refit must cover the whole store, not just the new point.
        assert!(model.is_fitted());
        assert_eq!(model.len(), 7);
        let p = model.predict(&[0.2], &[0.2]).unwrap();
        assert!(p.mean.is_finite());
    }

    #[test]
    fn observe_rejects_wrong_dimensions_without_mutating_the_store() {
        let mut model = ContextualGp::new(2, 1);
        assert!(matches!(
            // The configuration should be 2-dimensional.
            model.observe(SharedObservation::new(&[0.5], &[0.1], 1.0)),
            Err(GpError::DimensionMismatch { .. })
        ));
        assert!(model.is_empty());
        assert!(!model.is_fitted());
    }

    #[test]
    fn set_observations_invalidates_fit_so_observe_cannot_extend_stale_data() {
        let obs_at = |theta: f64, c: f64| ContextObservation {
            context: vec![c],
            config: vec![theta],
            performance: toy(theta, c),
        };
        let mut model = ContextualGp::new(1, 1);
        for i in 0..8 {
            model.observe(obs_at(i as f64 / 7.0, 0.2).into()).unwrap();
        }
        // Same-length bulk replacement: the observation count alone cannot distinguish
        // the new store from the old one, so set_observations must drop the cached fit.
        let replacement: Vec<ContextObservation> =
            (0..8).map(|i| obs_at(i as f64 / 7.0, 0.8)).collect();
        model.set_observations(replacement.clone());
        assert!(!model.is_fitted());
        model.observe(obs_at(0.5, 0.8).into()).unwrap();

        let mut scratch = ContextualGp::new(1, 1);
        scratch.set_observations(replacement);
        scratch.add_observation(obs_at(0.5, 0.8));
        scratch.refit().unwrap();
        let a = model.predict(&[0.3], &[0.8]).unwrap();
        let b = scratch.predict(&[0.3], &[0.8]).unwrap();
        assert_eq!(a.mean.to_bits(), b.mean.to_bits());
        assert_eq!(a.std_dev.to_bits(), b.std_dev.to_bits());
    }

    #[test]
    fn budget_evicts_in_batches_and_keeps_recent_points() {
        let mut model = ContextualGp::new(1, 1);
        model.set_budget(Some(ObservationBudget::new(20)));
        for i in 0..50 {
            let theta = (i % 10) as f64 / 10.0;
            model
                .observe(SharedObservation::new(&[theta], &[0.5], i as f64))
                .unwrap();
        }
        assert!(model.len() <= 20, "len = {}", model.len());
        // The newest observation always survives eviction.
        assert!(model.observations().iter().any(|o| o.performance == 49.0));
        assert!(model.is_fitted());
    }

    #[test]
    fn budget_retains_high_information_older_points() {
        // One old observation sits far from the rest in performance: its |alpha| is large,
        // so the budget must keep it even though it is the oldest point.
        let mut model = ContextualGp::new(1, 1);
        model.set_budget(Some(ObservationBudget {
            window: 10,
            evict_to: 6,
        }));
        model
            .observe(SharedObservation::new(&[0.0], &[0.5], 100.0))
            .unwrap();
        for i in 0..10 {
            model
                .observe(SharedObservation::new(
                    &[0.1 + 0.08 * i as f64],
                    &[0.5],
                    1.0 + 0.01 * i as f64,
                ))
                .unwrap();
        }
        assert!(model.len() <= 10);
        assert!(
            model.observations().iter().any(|o| o.performance == 100.0),
            "the outlier (highest-information point) must survive eviction"
        );
    }

    #[test]
    fn a_clone_writes_the_same_state_shares_every_row_and_holds_no_fit() {
        use serde::Serialize;
        let mut model = ContextualGp::new(1, 1);
        model.set_budget(Some(ObservationBudget::new(20)));
        for i in 0..50 {
            let theta = (i % 10) as f64 / 10.0;
            model
                .observe(SharedObservation::new(&[theta], &[0.5], toy(theta, 0.5)))
                .unwrap();
        }
        let mut rng = rand::rngs::mock::StepRng::new(42, 13);
        model.refit_with_hyperopt(&mut rng).unwrap();
        assert!(model.len() < 50, "the budget must have evicted");
        assert!(model.is_fitted());

        let copy = model.clone();
        let state = |m: &ContextualGp| {
            let mut out = serde::Serializer::compact();
            (m.observations(), m.hyperparams()).serialize(&mut out);
            out.into_string()
        };
        assert_eq!(state(&copy), state(&model));
        assert_eq!(copy.budget, model.budget);
        assert_eq!(copy.len(), model.len());
        for (a, b) in copy.observations().iter().zip(model.observations()) {
            assert!(Arc::ptr_eq(a.row(), b.row()), "a clone copied a row");
        }
        assert!(!copy.is_fitted());
        assert!(matches!(
            copy.predict(&[0.5], &[0.5]),
            Err(GpError::NotFitted)
        ));
    }

    #[test]
    fn predict_batch_is_bit_identical_to_pointwise_and_reuses_scratch() {
        let model = build_model();
        let candidates: Vec<Vec<f64>> = (0..9).map(|i| vec![i as f64 / 8.0]).collect();
        let thread_rows = || {
            let rows = QUERY_ROWS.take();
            let count = rows.len();
            QUERY_ROWS.set(rows);
            count
        };
        let batch = model.predict_batch(&candidates, &[0.3]).unwrap();
        assert_eq!(batch.len(), candidates.len());
        assert_eq!(thread_rows(), candidates.len());
        for (c, b) in candidates.iter().zip(batch.iter()) {
            let p = model.predict(c, &[0.3]).unwrap();
            assert_eq!(p.mean.to_bits(), b.mean.to_bits());
            assert_eq!(p.std_dev.to_bits(), b.std_dev.to_bits());
        }
        // The thread's rows survive across sweeps of different sizes — stale joint
        // vectors from a larger previous batch must not leak into a smaller one.
        let fewer = &candidates[..3];
        let batch2 = model.predict_batch(fewer, &[0.45]).unwrap();
        assert_eq!(batch2.len(), 3);
        assert_eq!(thread_rows(), 3);
        for (c, b) in fewer.iter().zip(batch2.iter()) {
            let p = model.predict(c, &[0.45]).unwrap();
            assert_eq!(p.mean.to_bits(), b.mean.to_bits());
            assert_eq!(p.std_dev.to_bits(), b.std_dev.to_bits());
        }
    }

    #[test]
    fn predict_batch_on_unfitted_model_is_an_error() {
        let model = ContextualGp::new(1, 1);
        assert!(matches!(
            model.predict_batch(&[vec![0.5]], &[0.0]),
            Err(GpError::NotFitted)
        ));
    }

    mod budget_properties {
        use super::*;
        use proptest::prelude::*;

        /// One observation of a drifting stream: the context wanders with `i`, so
        /// successive evictions happen under a shifting data distribution — the scenario
        /// regime the budget must stay stable in.
        fn drifting_obs(i: usize, drift: f64) -> ContextObservation {
            let t = i as f64;
            ContextObservation {
                context: vec![(t * drift * 0.05).sin() * 0.5 + 0.5],
                config: vec![(t * 0.37).fract()],
                performance: (t * 0.61).sin() * 10.0 + t,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(10))]

            /// The most recent `max(1, evict_to / 2)` observations are present at all
            /// times, no matter where the eviction batches fall: the newest half of the
            /// retained set is kept unconditionally, and appends between evictions only
            /// add to the tail.
            #[test]
            fn prop_newest_half_always_kept(
                window in 4usize..16,
                n in 20usize..70,
                drift in 0.1f64..2.0,
            ) {
                let budget = ObservationBudget::new(window);
                let recent_keep = (budget.evict_to / 2).max(1);
                let mut model = ContextualGp::new(1, 1);
                model.set_budget(Some(budget));
                for i in 0..n {
                    model.observe(drifting_obs(i, drift).into()).unwrap();
                    assert!(model.len() <= window, "budget bound violated: {}", model.len());
                    // Every one of the `recent_keep` newest fed observations is retained,
                    // in chronological order at the tail of the store.
                    let tail_len = recent_keep.min(i + 1);
                    let tail = &model.observations()[model.len() - tail_len..];
                    for (k, o) in tail.iter().enumerate() {
                        let expected = drifting_obs(i + 1 - tail_len + k, drift);
                        assert_eq!(
                            o.performance.to_bits(),
                            expected.performance.to_bits(),
                            "newest-half invariant broken at observe {i}, tail slot {k}"
                        );
                    }
                }
            }

            /// Eviction decisions (including |α| ties) are deterministic: two models fed
            /// the identical stream retain bitwise-identical observation sets and produce
            /// bitwise-identical posteriors. Snapshot replay relies on this.
            #[test]
            fn prop_eviction_is_deterministic(
                window in 4usize..12,
                n in 30usize..60,
            ) {
                let mut a = ContextualGp::new(1, 1);
                let mut b = ContextualGp::new(1, 1);
                a.set_budget(Some(ObservationBudget::new(window)));
                b.set_budget(Some(ObservationBudget::new(window)));
                for i in 0..n {
                    // Duplicated performances and configs produce exactly equal |α|
                    // values, forcing the tie-break path.
                    let o = ContextObservation {
                        context: vec![0.5],
                        config: vec![(i % 4) as f64 / 4.0],
                        performance: (i % 3) as f64,
                    };
                    a.observe(o.clone().into()).unwrap();
                    b.observe(o.into()).unwrap();
                }
                assert_eq!(a.len(), b.len());
                for (x, y) in a.observations().iter().zip(b.observations().iter()) {
                    assert_eq!(x.performance.to_bits(), y.performance.to_bits());
                    assert_eq!(x.config()[0].to_bits(), y.config()[0].to_bits());
                }
                let pa = a.predict(&[0.4], &[0.5]).unwrap();
                let pb = b.predict(&[0.4], &[0.5]).unwrap();
                assert_eq!(pa.mean.to_bits(), pb.mean.to_bits());
                assert_eq!(pa.std_dev.to_bits(), pb.std_dev.to_bits());
            }

            /// After many drift-driven evictions the model posterior stays finite and its
            /// uncertainty stays positive — repeated refits on evicted subsets must not
            /// accumulate numerical damage.
            #[test]
            fn prop_posterior_stays_finite_under_repeated_eviction(
                window in 4usize..14,
                drift in 0.1f64..3.0,
            ) {
                let mut model = ContextualGp::new(1, 1);
                model.set_budget(Some(ObservationBudget::new(window)));
                for i in 0..120 {
                    model.observe(drifting_obs(i, drift).into()).unwrap();
                }
                assert!(model.is_fitted());
                for probe in [0.0, 0.25, 0.5, 0.75, 1.0] {
                    let p = model.predict(&[probe], &[probe]).unwrap();
                    assert!(p.mean.is_finite(), "mean diverged at {probe}: {}", p.mean);
                    assert!(
                        p.std_dev.is_finite() && p.std_dev >= 0.0,
                        "std diverged at {probe}: {}",
                        p.std_dev
                    );
                }
            }
        }
    }

    #[test]
    fn hyperopt_path_produces_a_fitted_model() {
        let mut model = build_model();
        let mut rng = rand::rngs::mock::StepRng::new(42, 13);
        let report = model.refit_with_hyperopt(&mut rng).unwrap();
        assert!(model.is_fitted());
        assert!(report.best_lml.is_finite());
    }
}
