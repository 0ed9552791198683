//! ResTune-style baseline: constrained Bayesian optimization with an RGPE ensemble.
//!
//! ResTune transfers knowledge from historical tuning tasks by combining per-task "base"
//! Gaussian processes with a target GP through rank-weighted ensembling (RGPE). The paper
//! adapts it to online tuning by treating every 25 consecutive observations as one source
//! task, and modifies the objective to maximize performance under the same safety
//! constraint as OnlineTune — while noting that ResTune still evaluates (and therefore
//! applies) configurations in the unsafe region while learning the constraint boundary.

use crate::{Tuner, TuningInput};
use gp::acquisition::expected_improvement;
use gp::kernels::{Matern52Kernel, ScaledKernel};
use gp::regression::{GaussianProcess, Posterior};
use gp::rows::Row;
use linalg::stats::normal_cdf;
use onlinetune::IterationDiagnostics;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simdb::{Configuration, InternalMetrics, KnobCatalogue};

/// Options of the ResTune baseline.
#[derive(Debug, Clone, Copy)]
pub struct ResTuneOptions {
    /// Observations per source task (the paper uses 25 for the online adaptation).
    pub source_task_size: usize,
    /// Random warm-up samples before the model is trusted.
    pub initial_random_samples: usize,
    /// Candidate pool size for the acquisition maximization.
    pub acquisition_candidates: usize,
}

impl Default for ResTuneOptions {
    fn default() -> Self {
        ResTuneOptions {
            source_task_size: 25,
            initial_random_samples: 8,
            acquisition_candidates: 400,
        }
    }
}

fn new_gp() -> GaussianProcess {
    GaussianProcess::new(
        Box::new(ScaledKernel::new(Box::new(Matern52Kernel::new(0.3)), 1.0)),
        1e-2,
    )
}

/// The ResTune tuner.
pub struct ResTuneTuner {
    catalogue: KnobCatalogue,
    options: ResTuneOptions,
    /// All `(normalized config, performance, met constraint)` observations, in order.
    observations: Vec<(Vec<f64>, f64, bool)>,
    /// Frozen source-task models (one per completed block of `source_task_size`).
    source_models: Vec<GaussianProcess>,
    rng: StdRng,
}

impl ResTuneTuner {
    /// Creates the tuner.
    pub fn new(catalogue: KnobCatalogue, options: ResTuneOptions, seed: u64) -> Self {
        ResTuneTuner {
            catalogue,
            options,
            observations: Vec::new(),
            source_models: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn random_config(&mut self) -> Vec<f64> {
        (0..self.catalogue.len())
            .map(|_| self.rng.gen_range(0.0..1.0))
            .collect()
    }

    /// RGPE weights: each source model is weighted by how well it ranks the target task's
    /// observations (fraction of concordant pairs); the target model gets the weight of a
    /// perfect ranker. Weights are normalized to sum to one.
    fn rgpe_weights(&self, target_obs: &[(Vec<f64>, f64, bool)]) -> Vec<f64> {
        let mut weights = Vec::with_capacity(self.source_models.len() + 1);
        for model in &self.source_models {
            let mut concordant = 0usize;
            let mut total = 0usize;
            for i in 0..target_obs.len() {
                for j in (i + 1)..target_obs.len() {
                    let (pi, pj) = match (
                        model.predict(&target_obs[i].0),
                        model.predict(&target_obs[j].0),
                    ) {
                        (Ok(a), Ok(b)) => (a.mean, b.mean),
                        _ => continue,
                    };
                    total += 1;
                    if (pi > pj) == (target_obs[i].1 > target_obs[j].1) {
                        concordant += 1;
                    }
                }
            }
            let score = if total == 0 {
                0.5
            } else {
                concordant as f64 / total as f64
            };
            // Only rankers better than chance contribute.
            weights.push((score - 0.5).max(0.0));
        }
        weights.push(0.5); // the target model's own weight (a perfect ranker's margin)
        let sum: f64 = weights.iter().sum();
        if sum > 1e-12 {
            weights.iter_mut().for_each(|w| *w /= sum);
        }
        weights
    }

    /// Ensemble posterior at a point: the weighted mixture of source models and the target
    /// model (mixture mean; variance approximated by the weighted mean of variances).
    fn ensemble_predict(
        &self,
        target: &GaussianProcess,
        weights: &[f64],
        x: &[f64],
    ) -> Option<Posterior> {
        let mut mean = 0.0;
        let mut var = 0.0;
        let mut used = 0.0;
        for (model, w) in self
            .source_models
            .iter()
            .chain(std::iter::once(target))
            .zip(weights.iter())
        {
            if *w <= 0.0 {
                continue;
            }
            if let Ok(p) = model.predict(x) {
                mean += w * p.mean;
                var += w * p.variance();
                used += w;
            }
        }
        if used <= 1e-12 {
            None
        } else {
            Some(Posterior {
                mean: mean / used,
                std_dev: (var / used).sqrt(),
            })
        }
    }
}

impl Tuner for ResTuneTuner {
    fn name(&self) -> &str {
        "ResTune"
    }

    fn suggest(
        &mut self,
        input: &TuningInput<'_>,
    ) -> (Configuration, Option<IterationDiagnostics>) {
        let target_start = self.source_models.len() * self.options.source_task_size;
        let target_obs: Vec<(Vec<f64>, f64, bool)> =
            self.observations[target_start.min(self.observations.len())..].to_vec();

        let normalized = if self.observations.len() < self.options.initial_random_samples
            || target_obs.len() < 3
        {
            self.random_config()
        } else {
            let xs: Vec<Row> = target_obs.iter().map(|(x, _, _)| x[..].into()).collect();
            let ys: Vec<f64> = target_obs.iter().map(|(_, y, _)| *y).collect();
            let feasible: Vec<f64> = target_obs
                .iter()
                .map(|(_, _, ok)| if *ok { 1.0 } else { 0.0 })
                .collect();
            let best = ys
                .iter()
                .zip(feasible.iter())
                .filter(|(_, f)| **f > 0.5)
                .map(|(y, _)| *y)
                .fold(f64::NEG_INFINITY, f64::max);
            let best = if best.is_finite() {
                best
            } else {
                ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            };

            let mut target_model = new_gp();
            let mut constraint_model = new_gp();
            let fit_ok = target_model.fit(&xs, &ys).is_ok();
            let _ = constraint_model.fit(&xs, &feasible);
            if fit_ok {
                let weights = self.rgpe_weights(&target_obs);
                let mut best_candidate = self.random_config();
                let mut best_score = f64::NEG_INFINITY;
                for _ in 0..self.options.acquisition_candidates {
                    let candidate = self.random_config();
                    let posterior = match self.ensemble_predict(&target_model, &weights, &candidate)
                    {
                        Some(p) => p,
                        None => continue,
                    };
                    let ei = expected_improvement(&posterior, best, 0.01);
                    // Constraint-weighted EI: multiply by the probability that the
                    // constraint (performance ≥ threshold) is satisfied.
                    let p_feasible = match constraint_model.predict(&candidate) {
                        Ok(c) => {
                            let z = (c.mean - 0.5) / c.std_dev.max(1e-6);
                            normal_cdf(z)
                        }
                        Err(_) => 0.5,
                    };
                    let score = ei * p_feasible.max(0.05);
                    if score > best_score {
                        best_score = score;
                        best_candidate = candidate;
                    }
                }
                best_candidate
            } else {
                self.random_config()
            }
        };
        let _ = input;
        (
            Configuration::from_normalized(&self.catalogue, &normalized),
            None,
        )
    }

    fn observe(
        &mut self,
        _input: &TuningInput<'_>,
        config: &Configuration,
        performance: f64,
        _metrics: &InternalMetrics,
        safe: bool,
    ) {
        self.observations
            .push((config.normalized(&self.catalogue), performance, safe));
        // Freeze a new source task when a block completes.
        let completed_blocks = self.observations.len() / self.options.source_task_size;
        while self.source_models.len() < completed_blocks {
            let start = self.source_models.len() * self.options.source_task_size;
            let end = start + self.options.source_task_size;
            let block = &self.observations[start..end];
            let xs: Vec<Row> = block.iter().map(|(x, _, _)| x[..].into()).collect();
            let ys: Vec<f64> = block.iter().map(|(_, y, _)| *y).collect();
            let mut model = new_gp();
            if model.fit(&xs, &ys).is_ok() {
                self.source_models.push(model);
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input() -> TuningInput<'static> {
        TuningInput {
            context: &[],
            metrics: None,
            safety_threshold: 50.0,
            clients: 32,
        }
    }

    fn objective(normalized: &[f64]) -> f64 {
        100.0 - 60.0 * (normalized[0] - 0.6).powi(2) - 40.0 * (normalized[1] - 0.3).powi(2)
    }

    #[test]
    fn source_models_are_frozen_every_block() {
        let cat = KnobCatalogue::mysql57().subset(&["sort_buffer_size", "join_buffer_size"]);
        let options = ResTuneOptions {
            source_task_size: 10,
            ..Default::default()
        };
        let mut tuner = ResTuneTuner::new(cat.clone(), options, 1);
        for i in 0..35 {
            let cfg = tuner.suggest(&input()).0;
            tuner.observe(&input(), &cfg, i as f64, &InternalMetrics::zeroed(), true);
        }
        assert_eq!(tuner.source_models.len(), 3);
    }

    #[test]
    fn restune_finds_a_good_region_on_a_smooth_objective() {
        let cat = KnobCatalogue::mysql57().subset(&["sort_buffer_size", "join_buffer_size"]);
        let mut tuner = ResTuneTuner::new(
            cat.clone(),
            ResTuneOptions {
                source_task_size: 25,
                initial_random_samples: 6,
                acquisition_candidates: 200,
            },
            3,
        );
        let mut best = f64::NEG_INFINITY;
        for _ in 0..40 {
            let cfg = tuner.suggest(&input()).0;
            let y = objective(&cfg.normalized(&cat));
            best = best.max(y);
            tuner.observe(&input(), &cfg, y, &InternalMetrics::zeroed(), y >= 50.0);
        }
        assert!(best > 95.0, "best = {best}");
    }

    #[test]
    fn rgpe_weights_are_a_probability_distribution() {
        let cat = KnobCatalogue::mysql57().subset(&["sort_buffer_size", "join_buffer_size"]);
        let mut tuner = ResTuneTuner::new(
            cat.clone(),
            ResTuneOptions {
                source_task_size: 8,
                ..Default::default()
            },
            5,
        );
        for i in 0..20 {
            let cfg = tuner.suggest(&input()).0;
            let y = objective(&cfg.normalized(&cat)) + i as f64 * 0.01;
            tuner.observe(&input(), &cfg, y, &InternalMetrics::zeroed(), true);
        }
        let target: Vec<(Vec<f64>, f64, bool)> = tuner.observations[16..].to_vec();
        let w = tuner.rgpe_weights(&target);
        assert_eq!(w.len(), tuner.source_models.len() + 1);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(w.iter().all(|x| *x >= 0.0));
    }
}
