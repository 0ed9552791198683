//! The OnlineTune top-level loop (Algorithm 3).
//!
//! [`OnlineTune`] owns the clustering/model-selection state, the per-model subspaces, the
//! white-box rule engine and the bookkeeping that links a suggestion to the observation
//! that follows it. One tuning iteration is:
//!
//! ```text
//! let suggestion = tuner.suggest(&context, safety_threshold, clients);
//! // apply suggestion.config to the database, run one interval, measure `performance`
//! tuner.observe(&context, &suggestion.config, performance, Some(&metrics), performance >= safety_threshold)?;
//! ```
//!
//! All ablation variants evaluated in §7.3 (`w/o white`, `w/o black`, `w/o subspace`,
//! `w/o safe`, `w/o clustering`) are expressed through [`AblationFlags`].

use crate::candidate::{select_candidate, SelectionReason};
use crate::clustering::{ClusterManager, ClusterManagerState, ClusterOptions, ModelError};
use crate::diagnostics::IterationDiagnostics;
use crate::safety::{assess_candidates, SafetyOptions};
use crate::subspace::{Subspace, SubspaceOptions};
use crate::whitebox::{
    RuleContext, RuleEngine, RuleStateSnapshot, CONFLICT_THRESHOLD, RELAX_THRESHOLD,
};
use gp::acquisition::ucb_beta;
use gp::rows::{RowInterner, SharedConfig, SharedObservation};
use mlkit::importance::{knob_importance, top_k_knobs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simdb::{Configuration, HardwareSpec, InternalMetrics, KnobCatalogue};
use telemetry::{CounterId, EventKind, GaugeId, SpanId, TelemetryHandle};

/// Switches for the ablation study of §7.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AblationFlags {
    /// Use the white-box rule engine in the safety assessment.
    pub use_whitebox: bool,
    /// Use the GP lower-confidence-bound (black-box) safety check.
    pub use_blackbox: bool,
    /// Restrict optimization to the adaptive subspace (false = search the whole space).
    pub use_subspace: bool,
    /// Master switch for all safety machinery (false = vanilla contextual BO).
    pub use_safety: bool,
    /// Use clustering + SVM model selection (false = one global contextual GP).
    pub use_clustering: bool,
}

impl Default for AblationFlags {
    fn default() -> Self {
        AblationFlags {
            use_whitebox: true,
            use_blackbox: true,
            use_subspace: true,
            use_safety: true,
            use_clustering: true,
        }
    }
}

/// Options of the OnlineTune tuner.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct OnlineTuneOptions {
    /// Subspace adaptation options (Algorithm 2).
    pub subspace: SubspaceOptions,
    /// Clustering / model-selection options (Algorithm 1).
    pub cluster: ClusterOptions,
    /// Black-box safety options.
    pub safety: SafetyOptions,
    /// ε of the ε-greedy boundary-exploration policy (§6.3).
    pub epsilon: f64,
    /// Confidence parameter δ of the GP-UCB β schedule.
    pub beta_delta: f64,
    /// Retired: a white-box rule is ignored once after a fixed [`CONFLICT_THRESHOLD`]
    /// conflicts (§6.2.2). Snapshots still carry the member, written as that constant.
    #[serde(default)]
    pub whitebox_conflict_threshold: crate::Retired<CONFLICT_THRESHOLD>,
    /// Retired: a white-box rule is relaxed after a fixed [`RELAX_THRESHOLD`] safe
    /// overrides (§6.2.2). Snapshots still carry the member, written as that constant.
    #[serde(default)]
    pub whitebox_relax_threshold: crate::Retired<RELAX_THRESHOLD>,
    /// Maximum number of known-safe configurations retained for the cold-start fallback.
    pub known_safe_capacity: usize,
    /// Ablation switches.
    pub ablation: AblationFlags,
}

impl Default for OnlineTuneOptions {
    fn default() -> Self {
        OnlineTuneOptions {
            subspace: SubspaceOptions::default(),
            cluster: ClusterOptions::default(),
            safety: SafetyOptions::default(),
            epsilon: 0.1,
            beta_delta: 0.1,
            whitebox_conflict_threshold: crate::Retired,
            whitebox_relax_threshold: crate::Retired,
            known_safe_capacity: 256,
            ablation: AblationFlags::default(),
        }
    }
}

/// A configuration recommendation plus the diagnostics of the iteration that produced it.
#[derive(Debug, Clone)]
pub struct Suggestion {
    /// The recommended configuration in native units.
    pub config: Configuration,
    /// The selected candidate as a normalized `[0, 1]^m` vector, before
    /// `Configuration::from_normalized` rounds integer-valued knobs into `config`: where
    /// rounding moved a knob, `config.normalized(..)` (what [`OnlineTune::observe`]
    /// records) differs from this vector.
    pub normalized: Vec<f64>,
    /// What the tuner did this iteration.
    pub diagnostics: IterationDiagnostics,
}

#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct Pending {
    model_id: usize,
    /// Native-unit knob values of the recommended configuration (sanitized), used to match
    /// the following `observe` call to this suggestion.
    config_values: Vec<f64>,
    overridden_rule: Option<usize>,
    fell_back: bool,
    /// Safety threshold (default performance) the suggestion was made against; used to
    /// express the observed performance as an improvement margin over the default so that
    /// "best configuration so far" stays meaningful when the workload itself drifts.
    threshold: f64,
}

/// The OnlineTune tuner.
pub struct OnlineTune {
    catalogue: KnobCatalogue,
    hardware: HardwareSpec,
    options: OnlineTuneOptions,
    clusters: ClusterManager,
    whitebox: RuleEngine,
    subspaces: Vec<Subspace>,
    /// Best `(normalized config, improvement over the default)` seen per model.
    best_per_model: Vec<Option<(Vec<f64>, f64)>>,
    initial_normalized: Vec<f64>,
    /// Configurations measured (or handed over as) safe. One measured here is read from
    /// its observation's row in the repository.
    known_safe: Vec<SharedConfig>,
    last_metrics: Option<InternalMetrics>,
    iteration: usize,
    rng: StdRng,
    pending: Option<Pending>,
    /// Observability sink (runtime-only, never serialized, no-op by default).
    /// Instrumentation is read-only with respect to tuning state: it draws no RNG
    /// values and feeds nothing back into suggestions, so replay is bit-identical with
    /// or without a sink installed.
    telemetry: TelemetryHandle,
}

impl OnlineTune {
    /// Creates a tuner.
    ///
    /// * `catalogue` — the knobs being tuned (the full 40-knob catalogue or a subset).
    /// * `hardware` — hardware of the target instance (consulted by white-box rules).
    /// * `context_dim` — dimensionality of the context vectors the featurizer produces.
    /// * `initial_safe_config` — the initial safety set (normally the DBA or vendor default).
    pub fn new(
        catalogue: KnobCatalogue,
        hardware: HardwareSpec,
        context_dim: usize,
        initial_safe_config: &Configuration,
        options: OnlineTuneOptions,
        seed: u64,
    ) -> Self {
        let config_dim = catalogue.len();
        let initial_normalized = initial_safe_config.normalized(&catalogue);
        let clusters = ClusterManager::new(config_dim, context_dim, options.cluster.clone());
        let whitebox = RuleEngine::with_default_rules();
        let subspaces = vec![Subspace::new(initial_normalized.clone(), options.subspace)];
        OnlineTune {
            catalogue,
            hardware,
            options,
            clusters,
            whitebox,
            subspaces,
            best_per_model: vec![None],
            known_safe: vec![SharedConfig::new(&initial_normalized)],
            initial_normalized,
            last_metrics: None,
            iteration: 0,
            rng: StdRng::seed_from_u64(seed),
            pending: None,
            telemetry: TelemetryHandle::disabled(),
        }
    }

    /// Installs a telemetry sink on the tuner and everything below it (cluster manager,
    /// per-cluster models, their GPs). Runtime-only: the sink is excluded from
    /// [`OnlineTune::snapshot`], and a restored tuner starts with the no-op sink until
    /// one is re-installed.
    pub fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.clusters.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// The installed telemetry sink (the no-op sink by default).
    pub fn telemetry(&self) -> &TelemetryHandle {
        &self.telemetry
    }

    /// The knob catalogue this tuner operates over.
    pub fn catalogue(&self) -> &KnobCatalogue {
        &self.catalogue
    }

    /// The observation repository, oldest first.
    pub fn observations(&self) -> &[SharedObservation] {
        self.clusters.observations()
    }

    /// Number of per-cluster models currently maintained.
    pub fn model_count(&self) -> usize {
        self.clusters.n_models()
    }

    /// Number of re-clusterings performed.
    pub fn recluster_count(&self) -> usize {
        self.clusters.recluster_count()
    }

    /// Observation counts held by each per-cluster model, in model-id order. Each entry
    /// is bounded by `ClusterOptions::max_observations_per_model` (the
    /// `ObservationBudget` contract the fleet fuzzer's bounded-memory property checks).
    pub fn model_observation_counts(&self) -> Vec<usize> {
        (0..self.clusters.n_models())
            .map(|id| self.clusters.model(id).len())
            .collect()
    }

    /// Suppresses (or re-enables) the periodic hyper-parameter refit of every cluster
    /// model — the serving layer's degraded tiers shed the O(n³) step of the observe
    /// path this way (see
    /// [`ClusterManager::set_hyperopt_suppressed`](crate::clustering::ClusterManager::set_hyperopt_suppressed)).
    /// Runtime-only: never serialized; restore paths re-apply it from the tenant's
    /// degradation tier.
    pub fn set_hyperopt_suppressed(&mut self, suppressed: bool) {
        self.clusters.set_hyperopt_suppressed(suppressed);
    }

    /// Updates the hardware the white-box rules reason about (a mid-session instance
    /// resize). The black-box models are *not* reset: performance shifts caused by the
    /// resize surface as ordinary observations, and a sustained context-distribution
    /// shift triggers re-clustering through the normal NMI check. The hardware is part of
    /// the tuner snapshot, so a restored session continues with the resized value.
    pub fn set_hardware(&mut self, hardware: HardwareSpec) {
        self.hardware = hardware;
    }

    fn sync_model_structures(&mut self) {
        let n = self.clusters.n_models();
        while self.subspaces.len() < n {
            // New clusters start from the initial safe configuration with a zero improvement
            // margin; their subspace then migrates as better configurations are observed
            // under their contexts.
            self.subspaces.push(Subspace::new(
                self.initial_normalized.clone(),
                self.options.subspace,
            ));
            self.best_per_model
                .push(Some((self.initial_normalized.clone(), 0.0)));
        }
        self.subspaces.truncate(n.max(1));
        self.best_per_model.truncate(n.max(1));
    }

    fn direction_oracle(&mut self, model_id: usize) -> Vec<f64> {
        let dim = self.catalogue.len();
        let observations = self.clusters.model(model_id).observations();
        let use_important = observations.len() >= 10 && self.rng.gen_bool(0.5);
        if use_important {
            let configs: Vec<Vec<f64>> = observations.iter().map(|o| o.config().to_vec()).collect();
            let perfs: Vec<f64> = observations.iter().map(|o| o.performance).collect();
            let importance = knob_importance(&configs, &perfs, 4);
            let top = top_k_knobs(&importance, 5);
            if !top.is_empty() {
                // Axis-aligned direction on one of the top-5 important knobs (exploitation).
                let pick = top[self.rng.gen_range(0..top.len().min(5))];
                let mut d = vec![0.0; dim];
                d[pick.min(dim - 1)] = 1.0;
                return d;
            }
        }
        // Random direction (exploration).
        (0..dim).map(|_| self.rng.gen_range(-1.0..1.0)).collect()
    }

    /// Produces a configuration recommendation for the observed context.
    ///
    /// * `context` — context feature vector of the beginning of this interval.
    /// * `safety_threshold` — the performance of the default configuration under this
    ///   context (higher-is-better units; negate latencies before calling).
    /// * `clients` — number of client connections of the current workload (used by the
    ///   white-box rules).
    pub fn suggest(
        &mut self,
        context: &[f64],
        safety_threshold: f64,
        clients: usize,
    ) -> Suggestion {
        let span = self.telemetry.begin_span();
        self.iteration += 1;
        let mut diagnostics = IterationDiagnostics {
            iteration: self.iteration,
            ..Default::default()
        };

        // ── Model selection ────────────────────────────────────────────────────────────
        let stage = self.telemetry.begin_span();
        let model_id = if self.options.ablation.use_clustering {
            self.clusters.select_model(context)
        } else {
            0
        };
        self.sync_model_structures();
        let model_id = model_id.min(self.subspaces.len() - 1);
        diagnostics.selected_model = model_id;
        diagnostics.n_models = self.clusters.n_models();
        diagnostics.recluster_count = self.clusters.recluster_count();
        self.telemetry.end_span(SpanId::ModelSelection, stage);

        // ── Subspace adaptation ────────────────────────────────────────────────────────
        let stage = self.telemetry.begin_span();
        let no_safe_last_time = self.pending.as_ref().map(|p| p.fell_back).unwrap_or(false);
        let candidates: Vec<Vec<f64>> = if self.options.ablation.use_subspace {
            let mut oracle_dirs: Vec<Vec<f64>> = Vec::new();
            // Pre-generate a direction in case the subspace switches to a line region (keeps
            // the borrow checker happy: the oracle closure must not borrow `self`).
            oracle_dirs.push(self.direction_oracle(model_id));
            let subspace = &mut self.subspaces[model_id];
            let mut oracle = || oracle_dirs.pop().unwrap_or_else(|| vec![1.0]);
            subspace.adapt(&mut oracle, no_safe_last_time);
            subspace.discretize(&mut self.rng)
        } else {
            // Ablation: optimize over the whole configuration space.
            let n = self.options.subspace.candidates;
            let dim = self.catalogue.len();
            let mut c = Vec::with_capacity(n + 1);
            c.push(self.subspaces[model_id].center().to_vec());
            for _ in 0..n {
                c.push((0..dim).map(|_| self.rng.gen_range(0.0..1.0)).collect());
            }
            c
        };
        diagnostics.candidates_total = candidates.len();
        let subspace_radius = self.subspaces[model_id].radius();
        diagnostics.subspace_radius = subspace_radius;
        diagnostics.subspace_is_line = subspace_radius.is_none();
        diagnostics.center_distance_from_default = linalg::vecops::euclidean_distance(
            self.subspaces[model_id].center(),
            &self.initial_normalized,
        );
        self.telemetry.end_span(SpanId::SubspaceAdaptation, stage);

        // ── Safety assessment ──────────────────────────────────────────────────────────
        let stage = self.telemetry.begin_span();
        let beta = ucb_beta(
            self.iteration,
            self.catalogue.len() + context.len(),
            self.options.beta_delta,
        );
        let effective_threshold =
            if self.options.ablation.use_safety && self.options.ablation.use_blackbox {
                safety_threshold
            } else {
                f64::NEG_INFINITY
            };
        // The whole candidate sweep is one batched posterior call: one cross-kernel
        // matrix (shared context column), one multi-RHS triangular solve. Assessments
        // are bit-identical to the scalar per-candidate path.
        let assessments = assess_candidates(
            self.clusters.model(model_id),
            context,
            &candidates,
            effective_threshold,
            beta,
            &self.known_safe,
            &self.options.safety,
        );
        diagnostics.blackbox_rejections = assessments.iter().filter(|a| !a.black_safe).count();

        let use_whitebox = self.options.ablation.use_safety && self.options.ablation.use_whitebox;
        let metrics_ref = self.last_metrics.clone();
        let rule_ctx = RuleContext {
            catalogue: &self.catalogue,
            hardware: &self.hardware,
            clients,
            metrics: metrics_ref.as_ref(),
        };
        let mut white_safe: Vec<bool> = vec![true; candidates.len()];
        if use_whitebox {
            // One Configuration reused across the rule sweep: `set_from_normalized`
            // overwrites it in place, so the loop performs no per-candidate allocation.
            let mut cfg_scratch: Option<Configuration> = None;
            for (flag, c) in white_safe.iter_mut().zip(candidates.iter()) {
                let cfg = match cfg_scratch.as_mut() {
                    Some(cfg) => {
                        cfg.set_from_normalized(&self.catalogue, c);
                        &*cfg
                    }
                    None => {
                        cfg_scratch = Some(Configuration::from_normalized(&self.catalogue, c));
                        cfg_scratch.as_ref().expect("just inserted")
                    }
                };
                *flag = self.whitebox.passes(cfg, &rule_ctx);
            }
        }
        diagnostics.whitebox_rejections = white_safe.iter().filter(|s| !**s).count();

        // Decision-conflict handling (§6.2.2): if the black box's favourite candidate is
        // vetoed only by the white box, count a conflict; after enough conflicts ignore the
        // single offending rule for this recommendation.
        let mut overridden_rule: Option<usize> = None;
        if use_whitebox {
            let favourite = assessments
                .iter()
                .enumerate()
                .filter(|(_, a)| a.black_safe)
                .max_by(|(_, a), (_, b)| {
                    a.ucb
                        .partial_cmp(&b.ucb)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|(i, _)| i);
            if let Some(fav) = favourite {
                if !white_safe[fav] {
                    let cfg = Configuration::from_normalized(&self.catalogue, &candidates[fav]);
                    let violations = self.whitebox.violations(&cfg, &rule_ctx);
                    if violations.len() == 1 {
                        let rule = violations[0];
                        if self.whitebox.note_conflict(rule) {
                            white_safe[fav] = true;
                            overridden_rule = Some(rule);
                            diagnostics.overridden_rule =
                                Some(self.whitebox.rule_names()[rule].to_string());
                        }
                    }
                }
            }
        }
        diagnostics.safety_set_size = assessments
            .iter()
            .zip(white_safe.iter())
            .filter(|(a, w)| a.black_safe && **w)
            .count();
        self.telemetry.end_span(SpanId::SafetyAssessment, stage);

        // ── Candidate selection ────────────────────────────────────────────────────────
        let stage = self.telemetry.begin_span();
        let selection = select_candidate(
            &candidates,
            &assessments,
            &white_safe,
            &self.subspaces[model_id],
            if self.options.ablation.use_safety {
                self.options.epsilon
            } else {
                0.0
            },
            &mut self.rng,
        );
        self.telemetry.end_span(SpanId::CandidateSelection, stage);
        diagnostics.fell_back_to_center = selection.reason == SelectionReason::FallbackToCenter;
        diagnostics.explored_boundary = selection.reason == SelectionReason::BoundaryExploration;

        let normalized = candidates[selection.index].clone();
        diagnostics.recommendation_distance_from_default =
            linalg::vecops::euclidean_distance(&normalized, &self.initial_normalized);

        let config = Configuration::from_normalized(&self.catalogue, &normalized);
        self.pending = Some(Pending {
            model_id,
            config_values: config.values().to_vec(),
            overridden_rule,
            fell_back: diagnostics.fell_back_to_center,
            threshold: safety_threshold,
        });

        // Observability only (black-box rejections are counted inside the safety
        // assessment itself): nothing below feeds back into the suggestion.
        self.telemetry.add(
            CounterId::WhiteboxRejections,
            diagnostics.whitebox_rejections as u64,
        );
        self.telemetry
            .set_gauge(GaugeId::SafetySetSize, diagnostics.safety_set_size as f64);
        if diagnostics.fell_back_to_center {
            self.telemetry.incr(CounterId::SafetyFallbacks);
            if self.telemetry.is_enabled() {
                self.telemetry.event(
                    EventKind::SafetyFallback,
                    "tuner",
                    &format!(
                        "iteration={} candidates={} blackbox_rejections={} whitebox_rejections={}",
                        self.iteration,
                        diagnostics.candidates_total,
                        diagnostics.blackbox_rejections,
                        diagnostics.whitebox_rejections
                    ),
                );
            }
        }
        if diagnostics.explored_boundary {
            self.telemetry.incr(CounterId::BoundaryExplorations);
        }
        self.telemetry.end_span(SpanId::Suggest, span);

        Suggestion {
            config,
            normalized,
            diagnostics,
        }
    }

    /// Feeds back the measured performance of a configuration under a context.
    ///
    /// `performance` must be in higher-is-better units (negate latency objectives);
    /// `was_safe` states whether the measured performance met the safety threshold.
    ///
    /// Non-finite feeds (NaN/±Inf performance or context — e.g. a corrupted measurement
    /// scrape) are rejected with a typed [`ObserveError`] *before* any tuner state is
    /// touched: the pending suggestion, the cluster models and the safety set are all
    /// left exactly as they were, so the caller can treat the rejection as a failed
    /// measurement and retry.
    ///
    /// This is the hot path of online tuning: the selected cluster model absorbs the
    /// observation incrementally in `O(t²)` (Cholesky extension), falling back to a full
    /// `O(t³)` refit only on periodic hyper-parameter re-optimization, re-clustering, or
    /// an observation-budget eviction.
    pub fn observe(
        &mut self,
        context: &[f64],
        config: &Configuration,
        performance: f64,
        metrics: Option<&InternalMetrics>,
        was_safe: bool,
    ) -> Result<(), ObserveError> {
        if !performance.is_finite() {
            return Err(ObserveError::NonFinitePerformance { value: performance });
        }
        if let Some(index) = context.iter().position(|v| !v.is_finite()) {
            return Err(ObserveError::NonFiniteContext { index });
        }
        let span = self.telemetry.begin_span();
        let normalized = config.normalized(&self.catalogue);
        let pending = self.pending.take();
        let model_id = match &pending {
            Some(p) if p.config_values == config.values() => p.model_id,
            _ => {
                if self.options.ablation.use_clustering {
                    self.clusters.select_model(context)
                } else {
                    0
                }
            }
        };

        // Model update (Algorithm 3, lines 11–13). The observation's row is allocated
        // once; the repository, its model and (when safe) the known-safe set share it.
        // A model error is returned once the rest of the bookkeeping is done, so the
        // tuner's state does not depend on whether one occurred.
        let observation = SharedObservation::new(&normalized, context, performance);
        let added = self
            .clusters
            .add_observation(observation.clone(), &mut self.rng);
        let reclustered = if self.options.ablation.use_clustering {
            self.clusters.maybe_recluster(&mut self.rng)
        } else {
            Ok(false)
        };
        if reclustered == Ok(true) {
            self.sync_model_structures();
        }
        self.sync_model_structures();
        let model_id = model_id.min(self.best_per_model.len() - 1);

        // Success/failure accounting + subspace recentring. The quality of a configuration
        // is measured as its improvement over the default under the *same* context, so that
        // a "best" found during an easy workload phase does not freeze the subspace when the
        // workload drifts.
        let improvement = match &pending {
            Some(p) if p.config_values == config.values() => performance - p.threshold,
            _ => 0.0,
        };
        let improved = match &self.best_per_model[model_id] {
            Some((_, best)) => improvement > *best,
            None => improvement >= 0.0,
        };
        if improved && was_safe {
            self.best_per_model[model_id] = Some((normalized.clone(), improvement));
            self.subspaces[model_id].recenter(normalized.clone());
        }
        self.subspaces[model_id].record_outcome(improved);

        // White-box relaxation bookkeeping.
        if let Some(Pending {
            overridden_rule: Some(rule),
            ..
        }) = pending
        {
            self.whitebox.note_override_outcome(rule, was_safe);
        }

        if was_safe {
            self.known_safe.push(observation.shared_config());
            if self.known_safe.len() > self.options.known_safe_capacity {
                let excess = self.known_safe.len() - self.options.known_safe_capacity;
                self.known_safe.drain(0..excess);
            }
        }
        if let Some(m) = metrics {
            self.last_metrics = Some(m.clone());
        }
        self.telemetry.end_span(SpanId::Observe, span);
        added
            .and(reclustered)
            .map(drop)
            .map_err(ObserveError::Model)
    }
}

/// An error at the [`OnlineTune::observe`] boundary. A non-finite input is rejected with
/// the tuner state untouched; a model error comes after the observation was recorded.
#[derive(Debug, Clone, PartialEq)]
pub enum ObserveError {
    /// The measured performance is NaN or infinite (e.g. a corrupted scrape).
    NonFinitePerformance {
        /// The offending value.
        value: f64,
    },
    /// A context feature is NaN or infinite.
    NonFiniteContext {
        /// Index of the offending context coordinate.
        index: usize,
    },
    /// A cluster model failed to take the observation, to refit or to re-cluster.
    Model(ModelError),
}

impl std::fmt::Display for ObserveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObserveError::NonFinitePerformance { value } => {
                write!(f, "observed performance {value} is not finite")
            }
            ObserveError::NonFiniteContext { index } => {
                write!(f, "context feature {index} is not finite")
            }
            ObserveError::Model(error) => error.fmt(f),
        }
    }
}

impl std::error::Error for ObserveError {}

/// Complete serializable state of an [`OnlineTune`] session.
///
/// Produced by [`OnlineTune::snapshot`] and consumed by [`OnlineTune::restore`]. Every
/// source of tuner behaviour is captured — observations, per-model hyper-parameters,
/// subspaces, safety sets, white-box relaxation counters, the RNG stream position and the
/// pending suggestion — so a restored session continues bit-identically to one that was
/// never interrupted. The knob catalogue is stored by name and rebuilt from the full
/// MySQL 5.7 catalogue on restore.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct OnlineTuneState {
    /// Names of the tuned knobs, in catalogue order.
    pub knob_names: Vec<String>,
    /// Hardware of the target instance.
    pub hardware: HardwareSpec,
    /// Tuner options.
    pub options: OnlineTuneOptions,
    /// Clustering / model-selection state.
    pub clusters: ClusterManagerState,
    /// White-box rule conflict/relaxation state.
    pub whitebox: Vec<RuleStateSnapshot>,
    /// Per-model subspaces.
    pub subspaces: Vec<Subspace>,
    /// Best `(normalized config, improvement)` per model.
    pub best_per_model: Vec<Option<(Vec<f64>, f64)>>,
    /// Normalized initial safe configuration.
    pub initial_normalized: Vec<f64>,
    /// Known-safe configurations (normalized).
    pub known_safe: Vec<Vec<f64>>,
    /// Most recent internal metrics.
    pub last_metrics: Option<InternalMetrics>,
    /// Iterations performed so far.
    pub iteration: usize,
    /// RNG state.
    pub rng: StdRng,
    pending: Option<Pending>,
}

impl OnlineTune {
    /// Exports the complete session state for snapshots (see [`OnlineTuneState`]).
    pub fn snapshot(&self) -> OnlineTuneState {
        OnlineTuneState {
            knob_names: self
                .catalogue
                .knobs()
                .iter()
                .map(|k| k.name.to_string())
                .collect(),
            hardware: self.hardware,
            options: self.options.clone(),
            clusters: self.clusters.export_state(),
            whitebox: self.whitebox.export_states(),
            subspaces: self.subspaces.clone(),
            best_per_model: self.best_per_model.clone(),
            initial_normalized: self.initial_normalized.clone(),
            known_safe: self.known_safe.iter().map(|c| c.to_vec()).collect(),
            last_metrics: self.last_metrics.clone(),
            iteration: self.iteration,
            rng: self.rng.clone(),
            pending: self.pending.clone(),
        }
    }

    /// A copy that exists only to be written: it snapshots as this tuner does, while its
    /// repository, model windows and known-safe set hold handles on this tuner's rows and
    /// its models hold no fit (see [`ClusterManager::unfitted_copy`]). It must not tune:
    /// without fits its safety assessment sees no ready model, so it would suggest
    /// differently. The white-box rules are stateless, so the copy builds them afresh
    /// with the rule states copied, as a restore does. Telemetry is off.
    pub fn unfitted_copy(&self) -> Self {
        OnlineTune {
            catalogue: self.catalogue.clone(),
            hardware: self.hardware,
            options: self.options.clone(),
            clusters: self.clusters.unfitted_copy(),
            whitebox: {
                let mut whitebox = RuleEngine::with_default_rules();
                whitebox.restore_states(&self.whitebox.export_states());
                whitebox
            },
            subspaces: self.subspaces.clone(),
            best_per_model: self.best_per_model.clone(),
            initial_normalized: self.initial_normalized.clone(),
            known_safe: self.known_safe.clone(),
            last_metrics: self.last_metrics.clone(),
            iteration: self.iteration,
            rng: self.rng.clone(),
            pending: self.pending.clone(),
            telemetry: TelemetryHandle::disabled(),
        }
    }

    /// Rebuilds a tuner from a snapshot. The restored tuner continues the session
    /// bit-identically: same recommendations, same model updates, same RNG stream.
    ///
    /// Fails when the snapshot references a knob that does not exist in the full MySQL 5.7
    /// catalogue (snapshots only store knob names, not full definitions), or when a
    /// per-cluster model does not refit on its restored observations (see
    /// [`ClusterManager::restore`]).
    ///
    /// Observations and known-safe configurations are taken from `rows`, so a known-safe
    /// configuration bit-identical to a repository observation's shares that
    /// observation's row, as it did before the snapshot.
    pub fn restore(state: OnlineTuneState, rows: &mut RowInterner) -> Result<Self, String> {
        let full = KnobCatalogue::mysql57();
        let full_names: Vec<&str> = full.knobs().iter().map(|k| k.name).collect();
        let wanted: Vec<&str> = state.knob_names.iter().map(|s| s.as_str()).collect();
        for name in &wanted {
            if !full_names.contains(name) {
                return Err(format!("snapshot references unknown knob `{name}`"));
            }
        }
        let catalogue = if wanted == full_names {
            full
        } else {
            full.subset(&wanted)
        };
        let mut whitebox = RuleEngine::with_default_rules();
        whitebox.restore_states(&state.whitebox);
        let clusters =
            ClusterManager::restore(state.clusters, state.options.cluster.clone(), rows)?;
        let known_safe = state.known_safe.iter().map(|c| rows.config(c)).collect();
        Ok(OnlineTune {
            catalogue,
            hardware: state.hardware,
            options: state.options,
            clusters,
            whitebox,
            subspaces: state.subspaces,
            best_per_model: state.best_per_model,
            initial_normalized: state.initial_normalized,
            known_safe,
            last_metrics: state.last_metrics,
            iteration: state.iteration,
            rng: state.rng,
            pending: state.pending,
            telemetry: TelemetryHandle::disabled(),
        })
    }

    /// Seeds the safety set with externally known-safe configurations (normalized), e.g.
    /// from a fleet-level knowledge base, whose rows are shared rather than copied.
    /// Duplicates (by `==`) are skipped; the capacity bound of
    /// [`OnlineTuneOptions::known_safe_capacity`] is enforced.
    pub fn extend_known_safe(&mut self, configs: impl IntoIterator<Item = SharedConfig>) {
        let dim = self.catalogue.len();
        for cfg in configs {
            if cfg.len() != dim || self.known_safe.contains(&cfg) {
                continue;
            }
            self.known_safe.push(cfg);
        }
        if self.known_safe.len() > self.options.known_safe_capacity {
            let excess = self.known_safe.len() - self.options.known_safe_capacity;
            self.known_safe.drain(0..excess);
        }
    }

    /// Absorbs observations transferred from another tuning session (cross-tenant
    /// warm start). The observations join the repository and the per-cluster models as if
    /// they had been collected locally, generalizing the paper's cold-start fallback;
    /// they keep their rows. Every observation is absorbed; the first model error, if
    /// any, is returned afterwards.
    pub fn absorb_observations(
        &mut self,
        observations: impl IntoIterator<Item = SharedObservation>,
    ) -> Result<(), ModelError> {
        let mut first_error = Ok(());
        for obs in observations {
            if obs.config().len() != self.catalogue.len() {
                continue;
            }
            let added = self.clusters.add_observation(obs, &mut self.rng);
            first_error = first_error.and(added.map(drop));
        }
        if self.options.ablation.use_clustering {
            let reclustered = self.clusters.maybe_recluster(&mut self.rng);
            first_error = first_error.and(reclustered.map(drop));
        }
        self.sync_model_structures();
        first_error
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp::contextual::ContextObservation;
    use simdb::{SimDatabase, WorkloadSpec};
    use std::sync::Arc;

    fn context_for(read_ratio: f64) -> Vec<f64> {
        vec![read_ratio, 1.0 - read_ratio, 0.5]
    }

    fn make_tuner(ablation: AblationFlags) -> (OnlineTune, KnobCatalogue) {
        let catalogue = KnobCatalogue::mysql57();
        let initial = Configuration::dba_default(&catalogue);
        let options = OnlineTuneOptions {
            ablation,
            subspace: SubspaceOptions {
                candidates: 60,
                ..Default::default()
            },
            ..Default::default()
        };
        let tuner = OnlineTune::new(
            catalogue.clone(),
            HardwareSpec::default(),
            3,
            &initial,
            options,
            42,
        );
        (tuner, catalogue)
    }

    #[test]
    fn first_suggestion_stays_near_the_initial_safe_configuration() {
        let (mut tuner, _cat) = make_tuner(AblationFlags::default());
        let suggestion = tuner.suggest(&context_for(0.5), 100.0, 32);
        // With an empty model, only candidates near the initial safety set are admitted, so
        // the recommendation must be close to the DBA default.
        assert!(
            suggestion.diagnostics.recommendation_distance_from_default
                <= SafetyOptions::default().cold_start_radius + 1e-9,
            "distance = {}",
            suggestion.diagnostics.recommendation_distance_from_default
        );
        assert_eq!(suggestion.diagnostics.iteration, 1);
        assert!(suggestion.diagnostics.candidates_total > 0);
    }

    #[test]
    fn suggest_observe_loop_improves_on_the_simulated_database() {
        let (mut tuner, cat) = make_tuner(AblationFlags::default());
        let mut db = SimDatabase::with_catalogue(cat.clone(), HardwareSpec::default(), 7);
        db.set_deterministic(true);
        let workload = WorkloadSpec::synthetic_oltp();
        let default_cfg = Configuration::dba_default(&cat);
        let default_perf = db.peek(&default_cfg, &workload).throughput_tps;

        let context = context_for(0.55);
        let mut best = default_perf;
        let mut unsafe_count = 0;
        for _ in 0..30 {
            let suggestion = tuner.suggest(&context, default_perf, workload.clients);
            db.apply_config(&suggestion.config);
            let eval = db.run_interval(&workload, 180.0);
            let perf = eval.outcome.throughput_tps;
            if perf < default_perf * 0.999 {
                unsafe_count += 1;
            }
            best = best.max(perf);
            tuner
                .observe(
                    &context,
                    &suggestion.config,
                    perf,
                    Some(&eval.metrics),
                    perf >= default_perf,
                )
                .unwrap();
        }
        assert!(tuner.observations().len() == 30);
        assert!(
            best >= default_perf,
            "tuning must not lose ground: best {best} vs default {default_perf}"
        );
        // The safe tuner should only rarely go below the default on this easy workload (the
        // measured default is noiseless here, so mild noise dips count as "unsafe").
        assert!(unsafe_count <= 6, "unsafe recommendations: {unsafe_count}");
        assert_eq!(db.snapshot().failures, 0);
    }

    #[test]
    fn vanilla_contextual_bo_explores_far_from_the_default() {
        let flags = AblationFlags {
            use_safety: false,
            use_whitebox: false,
            use_blackbox: false,
            use_subspace: false,
            use_clustering: true,
        };
        let (mut tuner, _cat) = make_tuner(flags);
        let context = context_for(0.5);
        let mut max_distance: f64 = 0.0;
        for i in 0..5 {
            let suggestion = tuner.suggest(&context, 100.0, 32);
            max_distance =
                max_distance.max(suggestion.diagnostics.recommendation_distance_from_default);
            tuner
                .observe(&context, &suggestion.config, 50.0 + i as f64, None, true)
                .unwrap();
        }
        // Without safety or subspace restriction the tuner samples the whole space, which is
        // far from the default in a 40-dimensional cube.
        assert!(max_distance > 1.0, "max distance = {max_distance}");
    }

    #[test]
    fn whitebox_blocks_memory_overcommit_candidates() {
        let (mut tuner, _cat) = make_tuner(AblationFlags::default());
        let context = context_for(0.4);
        // Feed a few observations so the black box trusts a region, then check that the
        // safety set never contains a configuration violating the memory-budget rule.
        for i in 0..10 {
            let suggestion = tuner.suggest(&context, 10.0, 32);
            let cfg = Configuration::from_normalized(tuner.catalogue(), &suggestion.normalized);
            let rule_ctx = RuleContext {
                catalogue: tuner.catalogue(),
                hardware: &HardwareSpec::default(),
                clients: 32,
                metrics: None,
            };
            assert!(
                tuner.whitebox.passes(&cfg, &rule_ctx)
                    || suggestion.diagnostics.overridden_rule.is_some(),
                "iteration {i} recommended a rule-violating configuration without an override"
            );
            tuner
                .observe(&context, &suggestion.config, 20.0 + i as f64, None, true)
                .unwrap();
        }
    }

    #[test]
    fn observing_a_better_configuration_moves_the_subspace_centre() {
        let (mut tuner, cat) = make_tuner(AblationFlags::default());
        let context = context_for(0.5);
        let default = Configuration::dba_default(&cat);
        tuner
            .observe(&context, &default, 100.0, None, true)
            .unwrap();
        // Recommend, then report a large improvement over the threshold for the recommended
        // configuration: the subspace centre must move onto it.
        let first = tuner.suggest(&context, 100.0, 32);
        tuner
            .observe(&context, &first.config, 200.0, None, true)
            .unwrap();
        let second = tuner.suggest(&context, 100.0, 32);
        let expected = linalg::vecops::euclidean_distance(
            &first.config.normalized(&cat),
            &default.normalized(&cat),
        );
        assert!((second.diagnostics.center_distance_from_default - expected).abs() < 1e-9);
    }

    #[test]
    fn suggest_records_each_table_a1_stage_span_once() {
        let (mut tuner, _cat) = make_tuner(AblationFlags::default());
        tuner.set_telemetry(TelemetryHandle::enabled());
        let suggestion = tuner.suggest(&context_for(0.5), 0.0, 16);
        assert!(suggestion.diagnostics.candidates_total > 0);
        let stages = [
            SpanId::ModelSelection,
            SpanId::SubspaceAdaptation,
            SpanId::SafetyAssessment,
            SpanId::CandidateSelection,
        ];
        let t = tuner.telemetry();
        for id in stages.into_iter().chain([SpanId::Suggest]) {
            assert_eq!(t.histogram(id).count, 1, "{}", id.name());
        }
        // The stages run one after another inside the suggest span.
        let stage_nanos: u64 = stages.iter().map(|&id| t.histogram(id).sum_nanos).sum();
        assert!(stage_nanos <= t.histogram(SpanId::Suggest).sum_nanos);
    }

    #[test]
    fn snapshot_restore_continues_bit_identically() {
        let (mut original, cat) = make_tuner(AblationFlags::default());
        let mut db = SimDatabase::with_catalogue(cat.clone(), HardwareSpec::default(), 3);
        let workload = WorkloadSpec::synthetic_oltp();
        let default_cfg = Configuration::dba_default(&cat);
        let default_perf = db.peek(&default_cfg, &workload).throughput_tps;
        let context = context_for(0.6);
        for _ in 0..8 {
            let s = original.suggest(&context, default_perf, workload.clients);
            db.apply_config(&s.config);
            let eval = db.run_interval(&workload, 180.0);
            let perf = eval.outcome.throughput_tps;
            original
                .observe(
                    &context,
                    &s.config,
                    perf,
                    Some(&eval.metrics),
                    perf >= default_perf,
                )
                .unwrap();
        }

        let json = serde_json::to_string(&original.snapshot()).unwrap();
        let state: OnlineTuneState = serde_json::from_str(&json).unwrap();
        let mut restored = OnlineTune::restore(state, &mut RowInterner::default()).unwrap();

        // The restore shares rows as the live tuner did: every model-window entry, and
        // every known-safe configuration bit-identical to a repository entry's, is read
        // from a repository row.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let repository = restored.observations();
        for id in 0..restored.clusters.n_models() {
            for obs in restored.clusters.model(id).observations() {
                assert!(
                    repository.iter().any(|r| Arc::ptr_eq(r.row(), obs.row())),
                    "a restored model-window entry holds a row of its own"
                );
            }
        }
        // A configuration is the prefix of its row, so the same allocation means the same
        // address.
        let mut shared_safe = 0;
        for safe in &restored.known_safe {
            let same = |r: &&SharedObservation| bits(r.config()) == bits(safe);
            if repository.iter().any(|r| same(&r)) {
                assert!(
                    repository
                        .iter()
                        .any(|r| same(&r) && std::ptr::eq(r.config().as_ptr(), safe.as_ptr())),
                    "a restored known-safe configuration holds a row of its own"
                );
                shared_safe += 1;
            }
        }
        assert!(
            shared_safe > 0,
            "no known-safe configuration was measured here"
        );

        // Drive both tuners with the same inputs: every recommendation must be identical
        // down to the last bit, and so must the internal bookkeeping.
        for i in 0..8 {
            let a = original.suggest(&context, default_perf, workload.clients);
            let b = restored.suggest(&context, default_perf, workload.clients);
            assert_eq!(a.normalized, b.normalized, "diverged at iteration {i}");
            assert_eq!(a.config.values(), b.config.values());
            let perf = default_perf + i as f64;
            original
                .observe(&context, &a.config, perf, None, true)
                .unwrap();
            restored
                .observe(&context, &b.config, perf, None, true)
                .unwrap();
        }
        assert_eq!(original.observations().len(), restored.observations().len());
        assert_eq!(original.model_count(), restored.model_count());
    }

    #[test]
    fn an_unfitted_copy_snapshots_alike_shares_every_row_and_holds_no_fit() {
        let catalogue = KnobCatalogue::mysql57();
        let initial = Configuration::dba_default(&catalogue);
        let options = OnlineTuneOptions {
            cluster: ClusterOptions {
                min_observations_for_clustering: 10,
                recluster_check_period: 5,
                max_observations_per_model: 12,
                hyperopt_period: 7,
                ..Default::default()
            },
            subspace: SubspaceOptions {
                candidates: 30,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut tuner =
            OnlineTune::new(catalogue, HardwareSpec::default(), 3, &initial, options, 9);
        for i in 0..40 {
            let read_ratio = if i % 2 == 0 { 0.1 } else { 0.9 };
            let context = context_for(read_ratio);
            let s = tuner.suggest(&context, 100.0, 32);
            let perf = 100.0 + read_ratio * s.normalized.iter().sum::<f64>();
            tuner
                .observe(&context, &s.config, perf, None, true)
                .unwrap();
        }
        let clusters = &tuner.clusters;
        assert!(
            tuner.recluster_count() > 0,
            "the tuner must have reclustered"
        );
        let windows: usize = (0..clusters.n_models())
            .map(|id| clusters.model(id).len())
            .sum();
        assert!(
            windows < clusters.observations().len(),
            "the budget must have evicted"
        );

        let copy = tuner.unfitted_copy();
        let state = |t: &OnlineTune| serde_json::to_string(&t.snapshot()).unwrap();
        assert_eq!(state(&copy), state(&tuner));
        let same_rows = |a: &[SharedObservation], b: &[SharedObservation]| {
            a.len() == b.len() && a.iter().zip(b).all(|(a, b)| Arc::ptr_eq(a.row(), b.row()))
        };
        assert!(same_rows(copy.observations(), tuner.observations()));
        for id in 0..clusters.n_models() {
            let (model, copied) = (clusters.model(id), copy.clusters.model(id));
            assert!(same_rows(copied.observations(), model.observations()));
            assert!(model.is_fitted());
            assert!(!copied.is_fitted(), "model {id} of the copy holds a fit");
        }
        assert_eq!(copy.known_safe.len(), tuner.known_safe.len());
        for (a, b) in copy.known_safe.iter().zip(&tuner.known_safe) {
            assert!(std::ptr::eq(a.as_ptr(), b.as_ptr()), "a copy copied a row");
        }
    }

    #[test]
    fn warm_start_hooks_extend_safety_set_and_models() {
        let (mut tuner, _cat) = make_tuner(AblationFlags::default());
        let dim = tuner.catalogue().len();
        let transferred: Vec<ContextObservation> = (0..5)
            .map(|i| ContextObservation {
                context: context_for(0.5),
                config: vec![0.5 + 0.01 * i as f64; dim],
                performance: 100.0 + i as f64,
            })
            .collect();
        tuner.extend_known_safe(transferred.iter().map(|o| SharedConfig::new(&o.config)));
        tuner
            .absorb_observations(transferred.iter().map(SharedObservation::from))
            .unwrap();
        assert_eq!(tuner.observations().len(), 5);
        // Mismatched dimensions are skipped, not absorbed.
        tuner
            .absorb_observations([SharedObservation::new(
                &vec![0.5; dim + 1],
                &context_for(0.5),
                1.0,
            )])
            .unwrap();
        assert_eq!(tuner.observations().len(), 5);
    }

    #[test]
    fn clustering_ablation_keeps_a_single_model() {
        let flags = AblationFlags {
            use_clustering: false,
            ..Default::default()
        };
        let (mut tuner, cat) = make_tuner(flags);
        let default = Configuration::dba_default(&cat);
        for i in 0..40 {
            let ctx = if i % 2 == 0 {
                context_for(0.9)
            } else {
                context_for(0.1)
            };
            tuner
                .observe(&ctx, &default, 100.0 + i as f64, None, true)
                .unwrap();
        }
        assert_eq!(tuner.model_count(), 1);
        assert_eq!(tuner.recluster_count(), 0);
    }
}
