//! Clustering and model selection (§5.3, Algorithm 1).
//!
//! A single contextual GP over every observation ever collected would cost `O(n³)` per
//! update and would transfer knowledge between unrelated workload phases ("negative
//! transfer"). OnlineTune therefore clusters the observed contexts with DBSCAN, fits one
//! contextual GP per cluster, learns an SVM decision boundary to route *new* contexts to
//! the right model, and re-clusters only when a mutual-information score indicates the
//! context distribution has shifted.

use gp::contextual::{ContextObservation, ContextualGp, ObservationBudget};
use gp::hyperopt::HyperOptOptions;
use mlkit::dbscan::{cluster_members, dbscan, DbscanParams};
use mlkit::normalized_mutual_information;
use mlkit::svm::{LinearSvm, SvmOptions};
use rand::Rng;

/// Options controlling clustering and model selection.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ClusterOptions {
    /// DBSCAN parameters over the context space.
    pub dbscan: DbscanParams,
    /// Mutual-information threshold below which a re-clustering is adopted (0.5 in the
    /// paper's experiments).
    pub mi_threshold: f64,
    /// How many new observations arrive between re-clustering checks.
    pub recluster_check_period: usize,
    /// Minimum number of observations before the first clustering is attempted.
    pub min_observations_for_clustering: usize,
    /// Per-model observation budget window `P`: a cluster model holds at most `P`
    /// observations; overflowing triggers a batch eviction that keeps the most recent and
    /// highest-information points (see [`gp::contextual::ObservationBudget`]), bounding
    /// both memory and the quadratic incremental-update cost.
    pub max_observations_per_model: usize,
    /// Refit kernel hyper-parameters every this many model updates.
    pub hyperopt_period: usize,
    /// Worker threads used for the periodic hyper-parameter optimization's restart
    /// searches (`1` = serial, `0` = one per CPU; see
    /// [`gp::hyperopt::HyperOptOptions::workers`]). Selected hyper-parameters are
    /// worker-count independent bit for bit, so this only affects wall-clock time —
    /// snapshot replay across machines with different settings stays exact. The fleet
    /// service clamps this so tenant-level and hyperopt-level parallelism compose
    /// without oversubscription.
    ///
    /// Deserializes to 0 from snapshots written before the field existed
    /// (`#[serde(default)]`); a 0 is normalized to 1 (serial) where the grant is
    /// consumed, so old snapshots restore instead of erroring.
    #[serde(default)]
    pub hyperopt_workers: usize,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        ClusterOptions {
            dbscan: DbscanParams {
                eps: 0.25,
                min_points: 4,
            },
            mi_threshold: 0.5,
            recluster_check_period: 25,
            min_observations_for_clustering: 30,
            max_observations_per_model: 150,
            hyperopt_period: 20,
            hyperopt_workers: 1,
        }
    }
}

/// The observation repository plus the per-cluster models and the routing boundary.
pub struct ClusterManager {
    config_dim: usize,
    context_dim: usize,
    options: ClusterOptions,
    /// All observations ever collected (the "data repository" of the architecture figure).
    observations: Vec<ContextObservation>,
    /// Cluster label of each observation under the current clustering.
    labels: Vec<i32>,
    /// One contextual GP per cluster.
    models: Vec<ContextualGp>,
    svm: Option<LinearSvm>,
    updates_since_hyperopt: Vec<usize>,
    observations_since_recluster_check: usize,
    recluster_count: usize,
    /// Suppresses periodic hyper-parameter refits (runtime-only, never serialized: the
    /// fleet re-applies it from the tenant's serialized degradation tier on restore).
    hyperopt_suppressed: bool,
    /// Observability sink (runtime-only, never serialized, no-op by default);
    /// re-installed on every model the manager builds or rebuilds.
    telemetry: telemetry::TelemetryHandle,
}

/// Builds a per-cluster model with the observation budget implied by `options`.
fn budgeted_model(config_dim: usize, context_dim: usize, options: &ClusterOptions) -> ContextualGp {
    let mut model = ContextualGp::new(config_dim, context_dim);
    model.set_budget(Some(ObservationBudget::new(
        options.max_observations_per_model,
    )));
    model
}

impl ClusterManager {
    /// Creates a manager with a single (initially empty) model.
    pub fn new(config_dim: usize, context_dim: usize, options: ClusterOptions) -> Self {
        let model = budgeted_model(config_dim, context_dim, &options);
        ClusterManager {
            config_dim,
            context_dim,
            options,
            observations: Vec::new(),
            labels: Vec::new(),
            models: vec![model],
            svm: None,
            updates_since_hyperopt: vec![0],
            observations_since_recluster_check: 0,
            recluster_count: 0,
            hyperopt_suppressed: false,
            telemetry: telemetry::TelemetryHandle::disabled(),
        }
    }

    /// Installs a telemetry sink on the manager and every per-cluster model
    /// (runtime-only; excluded from [`ClusterManager::export_state`], so snapshots are
    /// byte-identical whether or not one is installed).
    pub fn set_telemetry(&mut self, telemetry: telemetry::TelemetryHandle) {
        for model in &mut self.models {
            model.set_telemetry(telemetry.clone());
        }
        self.telemetry = telemetry;
    }

    /// Total number of observations in the repository.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// Whether the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// Number of per-cluster models.
    pub fn n_models(&self) -> usize {
        self.models.len()
    }

    /// How many times the clustering has been re-learned.
    pub fn recluster_count(&self) -> usize {
        self.recluster_count
    }

    /// Re-grants the hyperopt worker budget (see [`ClusterOptions::hyperopt_workers`]).
    /// Runtime-only: selected hyper-parameters are worker-count independent, so this
    /// never changes model behaviour — the fleet service calls it when a session is
    /// restored on a machine whose parallelism budget differs from the snapshotting one.
    pub fn set_hyperopt_workers(&mut self, workers: usize) {
        self.options.hyperopt_workers = workers;
    }

    /// Suppresses (or re-enables) the periodic hyper-parameter refit — the degraded
    /// serving tiers shed the one O(n³) step of the observe path this way. While
    /// suppressed, `updates_since_hyperopt` keeps counting, so the deferred refit fires
    /// on the first observation after suppression lifts. Runtime-only: the flag is not
    /// part of the exported state; restore paths re-apply it from the tenant's
    /// serialized degradation tier.
    pub fn set_hyperopt_suppressed(&mut self, suppressed: bool) {
        self.hyperopt_suppressed = suppressed;
    }

    /// All observations (immutable view).
    pub fn observations(&self) -> &[ContextObservation] {
        &self.observations
    }

    /// The model for a cluster id.
    pub fn model(&self, id: usize) -> &ContextualGp {
        &self.models[id]
    }

    /// Selects the model responsible for a context (Algorithm 3, line 6): the SVM routes
    /// contexts once a clustering exists, otherwise the single global model is used.
    pub fn select_model(&self, context: &[f64]) -> usize {
        match &self.svm {
            Some(svm) => svm
                .predict(context)
                .min(self.models.len().saturating_sub(1)),
            None => 0,
        }
    }

    /// Adds an observation, assigns it to a cluster and folds it into that cluster's
    /// model **incrementally** (`O(n²)` via [`ContextualGp::observe`] — the hot path).
    /// Periodically the cluster's kernel hyper-parameters are re-optimized, which is the
    /// one case that requires a from-scratch `O(n³)` refit (the cached factorization is
    /// invalidated by the new hyper-parameters). Returns the cluster id.
    ///
    /// A wrong-dimension observation is rejected wholesale — it enters neither the
    /// repository nor any model (a poisoned repository would resurface at the next
    /// re-clustering) — and cluster 0 is returned. The check holds in release builds.
    pub fn add_observation<R: Rng>(&mut self, obs: ContextObservation, rng: &mut R) -> usize {
        if obs.config.len() != self.config_dim || obs.context.len() != self.context_dim {
            return 0;
        }
        let cluster = self.select_model(&obs.context);
        self.observations.push(obs.clone());
        self.labels.push(cluster as i32);
        self.observations_since_recluster_check += 1;

        let model = &mut self.models[cluster];
        self.updates_since_hyperopt[cluster] += 1;
        if !self.hyperopt_suppressed
            && self.updates_since_hyperopt[cluster] >= self.options.hyperopt_period
        {
            // Hyper-parameter re-optimization invalidates the cached factorization
            // anyway, so skip the incremental update on this iteration: add the raw
            // observation and let the hyperopt's internal refit (which also enforces the
            // observation budget) do the one O(n³) fit.
            self.updates_since_hyperopt[cluster] = 0;
            model.add_observation(obs);
            let _ = model.refit_with_hyperopt(
                &HyperOptOptions {
                    restarts: 1,
                    max_iters: 30,
                    // 0 deserialized from a pre-grant snapshot means serial here; the
                    // hyperopt's own "0 = per CPU" convention is reserved for callers
                    // that explicitly opt in, not for missing snapshot fields.
                    workers: self.options.hyperopt_workers.max(1),
                    ..Default::default()
                },
                rng,
            );
        } else {
            // Incremental model update; the model's observation budget evicts (and
            // refits) in batches once the window overflows.
            let _ = model.observe(obs);
        }
        self.telemetry
            .set_gauge(telemetry::GaugeId::ClusterModels, self.models.len() as f64);
        self.telemetry.set_gauge(
            telemetry::GaugeId::ModelObservations,
            self.models[cluster].len() as f64,
        );
        cluster
    }

    /// Checks whether re-clustering is due and, if the simulated new clustering differs
    /// enough (NMI below the threshold) or no clustering exists yet, re-learns clusters,
    /// per-cluster models and the SVM boundary (Algorithm 1). Returns `true` when a
    /// re-clustering happened.
    pub fn maybe_recluster<R: Rng>(&mut self, rng: &mut R) -> bool {
        if self.observations.len() < self.options.min_observations_for_clustering {
            return false;
        }
        if self.observations_since_recluster_check < self.options.recluster_check_period
            && self.svm.is_some()
        {
            return false;
        }
        self.observations_since_recluster_check = 0;

        let contexts: Vec<Vec<f64>> = self
            .observations
            .iter()
            .map(|o| o.context.clone())
            .collect();
        let mut candidate = dbscan(&contexts, &self.options.dbscan);
        assign_noise_to_nearest(&contexts, &mut candidate);

        let needs_relearn = if self.svm.is_none() {
            true
        } else {
            normalized_mutual_information(&self.labels, &candidate) < self.options.mi_threshold
        };
        if !needs_relearn {
            return false;
        }

        let groups = cluster_members(&candidate);
        let groups: Vec<Vec<usize>> = if groups.is_empty() {
            vec![(0..self.observations.len()).collect()]
        } else {
            groups
        };

        // Rebuild the per-cluster models.
        let mut models = Vec::with_capacity(groups.len());
        let mut labels = vec![0i32; self.observations.len()];
        for (cid, members) in groups.iter().enumerate() {
            let mut model = budgeted_model(self.config_dim, self.context_dim, &self.options);
            model.set_telemetry(self.telemetry.clone());
            let cap = self.options.max_observations_per_model;
            let start = members.len().saturating_sub(cap);
            for &idx in &members[start..] {
                model.add_observation(self.observations[idx].clone());
            }
            let _ = model.refit();
            models.push(model);
            for &idx in members {
                labels[idx] = cid as i32;
            }
        }

        // Train the SVM routing boundary on (context, cluster) pairs.
        let label_usize: Vec<usize> = labels.iter().map(|&l| l.max(0) as usize).collect();
        self.svm = LinearSvm::train(&contexts, &label_usize, &SvmOptions::default(), rng);

        let models_before = self.models.len();
        self.models = models;
        self.labels = labels;
        self.updates_since_hyperopt = vec![0; self.models.len()];
        self.recluster_count += 1;
        self.telemetry.incr(telemetry::CounterId::Reclusters);
        if self.telemetry.is_enabled() {
            self.telemetry.event(
                telemetry::EventKind::Recluster,
                "cluster-manager",
                &format!(
                    "observations={} models {} -> {} recluster_count={}",
                    self.observations.len(),
                    models_before,
                    self.models.len(),
                    self.recluster_count
                ),
            );
        }
        true
    }
}

/// Serializable state of one per-cluster contextual GP model.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ModelState {
    /// Observations the model is fitted on.
    pub observations: Vec<ContextObservation>,
    /// Kernel hyper-parameters in log space.
    pub kernel_params: Vec<f64>,
    /// Observation-noise variance.
    pub noise_variance: f64,
}

/// Serializable state of the SVM routing boundary.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SvmState {
    /// Per-class weight vectors.
    pub weights: Vec<Vec<f64>>,
    /// Per-class biases.
    pub biases: Vec<f64>,
}

/// Complete serializable state of a [`ClusterManager`].
///
/// Model fitting is deterministic, so [`ClusterManager::restore`] reproduces the manager's
/// behaviour bit-for-bit from this state plus the (unserialized) [`ClusterOptions`].
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ClusterManagerState {
    /// Configuration-space dimensionality.
    pub config_dim: usize,
    /// Context-space dimensionality.
    pub context_dim: usize,
    /// The full observation repository.
    pub observations: Vec<ContextObservation>,
    /// Cluster label of each repository observation.
    pub labels: Vec<i32>,
    /// Per-cluster model states.
    pub models: Vec<ModelState>,
    /// The routing boundary, when one has been trained.
    pub svm: Option<SvmState>,
    /// Per-model updates since the last hyper-parameter optimization.
    pub updates_since_hyperopt: Vec<usize>,
    /// Observations since the last re-clustering check.
    pub observations_since_recluster_check: usize,
    /// Number of re-clusterings performed.
    pub recluster_count: usize,
}

impl ClusterManager {
    /// Exports the complete manager state for snapshots.
    pub fn export_state(&self) -> ClusterManagerState {
        ClusterManagerState {
            config_dim: self.config_dim,
            context_dim: self.context_dim,
            observations: self.observations.clone(),
            labels: self.labels.clone(),
            models: self
                .models
                .iter()
                .map(|m| {
                    let (kernel_params, noise_variance) = m.hyperparams();
                    ModelState {
                        observations: m.observations().to_vec(),
                        kernel_params,
                        noise_variance,
                    }
                })
                .collect(),
            svm: self.svm.as_ref().map(|svm| SvmState {
                weights: svm.weights().to_vec(),
                biases: svm.biases().to_vec(),
            }),
            updates_since_hyperopt: self.updates_since_hyperopt.clone(),
            observations_since_recluster_check: self.observations_since_recluster_check,
            recluster_count: self.recluster_count,
        }
    }

    /// Rebuilds a manager from an exported state. Each model takes its restored
    /// observations by move and is refitted with its restored hyper-parameters; fitting
    /// is deterministic, so the restored manager predicts and routes identically to the
    /// exported one.
    ///
    /// A model that does not refit on its restored observations (a non-finite value, for
    /// instance) fails the whole restore with an error naming the model's index, instead
    /// of coming back unfitted.
    pub fn restore(state: ClusterManagerState, options: ClusterOptions) -> Result<Self, String> {
        let models = state
            .models
            .into_iter()
            .enumerate()
            .map(|(index, ms)| {
                let mut model = budgeted_model(state.config_dim, state.context_dim, &options);
                model.set_hyperparams(&ms.kernel_params, ms.noise_variance);
                model.set_observations(ms.observations);
                if !model.is_empty() {
                    model
                        .refit()
                        .map_err(|e| format!("model {index} does not refit: {e}"))?;
                }
                Ok(model)
            })
            .collect::<Result<Vec<ContextualGp>, String>>()?;
        let models = if models.is_empty() {
            vec![budgeted_model(
                state.config_dim,
                state.context_dim,
                &options,
            )]
        } else {
            models
        };
        let mut updates = state.updates_since_hyperopt;
        updates.resize(models.len(), 0);
        Ok(ClusterManager {
            config_dim: state.config_dim,
            context_dim: state.context_dim,
            options,
            observations: state.observations,
            labels: state.labels,
            svm: state
                .svm
                .and_then(|s| LinearSvm::from_parts(s.weights, s.biases)),
            models,
            updates_since_hyperopt: updates,
            observations_since_recluster_check: state.observations_since_recluster_check,
            recluster_count: state.recluster_count,
            hyperopt_suppressed: false,
            telemetry: telemetry::TelemetryHandle::disabled(),
        })
    }
}

/// DBSCAN noise points are attached to the cluster of their nearest clustered neighbour
/// (every observation must belong to some model).
fn assign_noise_to_nearest(points: &[Vec<f64>], labels: &mut [i32]) {
    let clustered: Vec<usize> = labels
        .iter()
        .enumerate()
        .filter(|(_, &l)| l >= 0)
        .map(|(i, _)| i)
        .collect();
    if clustered.is_empty() {
        // Everything is noise: put it all in one cluster.
        labels.iter_mut().for_each(|l| *l = 0);
        return;
    }
    for i in 0..labels.len() {
        if labels[i] >= 0 {
            continue;
        }
        let nearest = clustered
            .iter()
            .min_by(|&&a, &&b| {
                let da = linalg::vecops::euclidean_distance(&points[i], &points[a]);
                let db = linalg::vecops::euclidean_distance(&points[i], &points[b]);
                da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
            })
            .copied()
            .expect("clustered set is non-empty");
        labels[i] = labels[nearest];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn obs(context: Vec<f64>, config: Vec<f64>, perf: f64) -> ContextObservation {
        ContextObservation {
            context,
            config,
            performance: perf,
        }
    }

    /// Two well-separated context regimes with different optima.
    fn two_regime_observations(n_per: usize) -> Vec<ContextObservation> {
        let mut out = Vec::new();
        for i in 0..n_per {
            let theta = i as f64 / n_per as f64;
            out.push(obs(vec![0.1, 0.1], vec![theta], -(theta - 0.2).powi(2)));
            out.push(obs(vec![0.9, 0.9], vec![theta], -(theta - 0.8).powi(2)));
        }
        out
    }

    #[test]
    fn starts_with_a_single_model() {
        let mgr = ClusterManager::new(1, 2, ClusterOptions::default());
        assert_eq!(mgr.n_models(), 1);
        assert_eq!(mgr.select_model(&[0.3, 0.4]), 0);
        assert!(mgr.is_empty());
    }

    #[test]
    fn reclusters_two_regimes_into_two_models_and_routes_contexts() {
        let mut rng = StdRng::seed_from_u64(3);
        let options = ClusterOptions {
            min_observations_for_clustering: 10,
            recluster_check_period: 5,
            ..Default::default()
        };
        let mut mgr = ClusterManager::new(1, 2, options);
        for o in two_regime_observations(20) {
            mgr.add_observation(o, &mut rng);
        }
        assert!(mgr.maybe_recluster(&mut rng));
        assert_eq!(mgr.n_models(), 2);
        assert_eq!(mgr.recluster_count(), 1);
        // Contexts from the two regimes route to different models...
        let a = mgr.select_model(&[0.1, 0.12]);
        let b = mgr.select_model(&[0.88, 0.9]);
        assert_ne!(a, b);
        // ... and each model has learned its regime's optimum region.
        let model_a = mgr.model(a);
        let near = model_a.predict(&[0.2], &[0.1, 0.1]).unwrap().mean;
        let far = model_a.predict(&[0.8], &[0.1, 0.1]).unwrap().mean;
        assert!(near > far, "model for regime A should prefer θ≈0.2");
    }

    #[test]
    fn does_not_recluster_below_minimum_observations() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut mgr = ClusterManager::new(1, 2, ClusterOptions::default());
        for o in two_regime_observations(5) {
            mgr.add_observation(o, &mut rng);
        }
        assert!(!mgr.maybe_recluster(&mut rng));
        assert_eq!(mgr.n_models(), 1);
    }

    #[test]
    fn stable_context_distribution_does_not_trigger_relearning() {
        let mut rng = StdRng::seed_from_u64(5);
        let options = ClusterOptions {
            min_observations_for_clustering: 10,
            recluster_check_period: 5,
            ..Default::default()
        };
        let mut mgr = ClusterManager::new(1, 2, options);
        for o in two_regime_observations(15) {
            mgr.add_observation(o, &mut rng);
        }
        assert!(mgr.maybe_recluster(&mut rng));
        let first = mgr.recluster_count();
        // More observations from the *same* two regimes: the simulated clustering matches the
        // existing one (NMI ≈ 1), so no re-learning should happen.
        for o in two_regime_observations(15) {
            mgr.add_observation(o, &mut rng);
        }
        let _ = mgr.maybe_recluster(&mut rng);
        assert_eq!(mgr.recluster_count(), first);
    }

    #[test]
    fn per_model_observation_cap_is_enforced() {
        let mut rng = StdRng::seed_from_u64(7);
        let options = ClusterOptions {
            max_observations_per_model: 20,
            ..Default::default()
        };
        let mut mgr = ClusterManager::new(1, 2, options);
        for i in 0..60 {
            let theta = (i % 10) as f64 / 10.0;
            mgr.add_observation(obs(vec![0.5, 0.5], vec![theta], theta), &mut rng);
        }
        assert_eq!(mgr.len(), 60);
        assert!(mgr.model(0).len() <= 20);
    }

    #[test]
    fn wrong_dimension_observations_never_enter_the_repository() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut mgr = ClusterManager::new(1, 2, ClusterOptions::default());
        mgr.add_observation(obs(vec![0.5, 0.5], vec![0.5], 1.0), &mut rng);
        // Wrong config dimension and wrong context dimension: both rejected wholesale.
        mgr.add_observation(obs(vec![0.5, 0.5], vec![0.5, 0.9], 1.0), &mut rng);
        mgr.add_observation(obs(vec![0.5], vec![0.5], 1.0), &mut rng);
        assert_eq!(mgr.len(), 1);
        assert_eq!(mgr.model(0).len(), 1);
        // A later recluster sees only well-formed observations.
        assert!(!mgr.maybe_recluster(&mut rng));
        assert_eq!(mgr.len(), 1);
    }

    #[test]
    fn all_noise_contexts_collapse_to_one_cluster() {
        let mut points = Vec::new();
        let mut labels = Vec::new();
        for i in 0..5 {
            points.push(vec![i as f64 * 100.0]);
            labels.push(-1);
        }
        assign_noise_to_nearest(&points, &mut labels);
        assert!(labels.iter().all(|&l| l == 0));
    }
}
