//! OtterTune-style Bayesian optimization baseline.
//!
//! A Gaussian process with a Matérn-5/2 kernel over the *normalized configuration space
//! only* (no context) and the Expected Improvement acquisition, as used by iTuned /
//! OtterTune and by the "BO" baseline of the paper's evaluation. The first few iterations
//! sample the space at random (the usual BO warm-up), after which EI is maximized over a
//! random candidate set. There is no safety mechanism — which is exactly why this baseline
//! recommends many below-default configurations on a live database.

use crate::{Tuner, TuningInput};
use gp::acquisition::expected_improvement;
use gp::kernels::{Matern52Kernel, ScaledKernel};
use gp::regression::GaussianProcess;
use gp::rows::Row;
use onlinetune::IterationDiagnostics;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simdb::{Configuration, InternalMetrics, KnobCatalogue};

/// Options of the BO baseline.
#[derive(Debug, Clone, Copy)]
pub struct BoOptions {
    /// Random configurations evaluated before the GP takes over.
    pub initial_random_samples: usize,
    /// Candidate pool size for the EI maximization.
    pub acquisition_candidates: usize,
    /// EI exploration jitter ξ.
    pub xi: f64,
}

impl Default for BoOptions {
    fn default() -> Self {
        BoOptions {
            initial_random_samples: 10,
            acquisition_candidates: 500,
            xi: 0.01,
        }
    }
}

/// The OtterTune-style BO tuner.
pub struct BoTuner {
    catalogue: KnobCatalogue,
    options: BoOptions,
    observations: Vec<(Vec<f64>, f64)>,
    rng: StdRng,
}

impl BoTuner {
    /// Creates the tuner.
    pub fn new(catalogue: KnobCatalogue, options: BoOptions, seed: u64) -> Self {
        BoTuner {
            catalogue,
            options,
            observations: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn random_config(&mut self) -> Vec<f64> {
        (0..self.catalogue.len())
            .map(|_| self.rng.gen_range(0.0..1.0))
            .collect()
    }
}

impl Tuner for BoTuner {
    fn name(&self) -> &str {
        "BO"
    }

    fn suggest(
        &mut self,
        _input: &TuningInput<'_>,
    ) -> (Configuration, Option<IterationDiagnostics>) {
        let normalized = if self.observations.len() < self.options.initial_random_samples {
            self.random_config()
        } else {
            let xs: Vec<Row> = self
                .observations
                .iter()
                .map(|(x, _)| x[..].into())
                .collect();
            let ys: Vec<f64> = self.observations.iter().map(|(_, y)| *y).collect();
            let best = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mut model = GaussianProcess::new(
                Box::new(ScaledKernel::new(Box::new(Matern52Kernel::new(0.3)), 1.0)),
                1e-2,
            );
            match model.fit(&xs, &ys) {
                Ok(()) => {
                    let mut best_candidate = self.random_config();
                    let mut best_ei = f64::NEG_INFINITY;
                    for _ in 0..self.options.acquisition_candidates {
                        let candidate = self.random_config();
                        if let Ok(posterior) = model.predict(&candidate) {
                            let ei = expected_improvement(&posterior, best, self.options.xi);
                            if ei > best_ei {
                                best_ei = ei;
                                best_candidate = candidate;
                            }
                        }
                    }
                    best_candidate
                }
                Err(_) => self.random_config(),
            }
        };
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
        _safe: bool,
    ) {
        self.observations
            .push((config.normalized(&self.catalogue), performance));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input() -> TuningInput<'static> {
        TuningInput {
            context: &[],
            metrics: None,
            safety_threshold: 0.0,
            clients: 32,
        }
    }

    /// Synthetic objective over the normalized space: a peak at a known location.
    fn objective(normalized: &[f64]) -> f64 {
        let target = 0.7;
        let d: f64 = normalized
            .iter()
            .take(3)
            .map(|v| (v - target) * (v - target))
            .sum();
        100.0 - 50.0 * d
    }

    #[test]
    fn warm_up_phase_samples_randomly() {
        let cat = KnobCatalogue::mysql57();
        let mut bo = BoTuner::new(cat.clone(), BoOptions::default(), 1);
        let a = bo.suggest(&input()).0;
        let b = bo.suggest(&input()).0;
        assert_ne!(a, b, "random warm-up should not repeat configurations");
    }

    #[test]
    fn bo_improves_over_random_after_warm_up() {
        let cat = KnobCatalogue::mysql57().subset(&[
            "innodb_buffer_pool_size",
            "sort_buffer_size",
            "innodb_io_capacity",
        ]);
        let mut bo = BoTuner::new(
            cat.clone(),
            BoOptions {
                initial_random_samples: 8,
                acquisition_candidates: 300,
                xi: 0.01,
            },
            3,
        );
        let mut best = f64::NEG_INFINITY;
        for _ in 0..35 {
            let cfg = bo.suggest(&input()).0;
            let y = objective(&cfg.normalized(&cat));
            best = best.max(y);
            bo.observe(&input(), &cfg, y, &InternalMetrics::zeroed(), true);
        }
        assert!(
            best > 97.0,
            "BO should get close to the optimum, best = {best}"
        );
        assert_eq!(bo.observations.len(), 35);
    }

    #[test]
    fn bo_ignores_the_context() {
        // Same observation history, different contexts → same recommendation distribution
        // (we check determinism of the next suggestion given identical RNG state).
        let cat = KnobCatalogue::mysql57();
        let mut a = BoTuner::new(cat.clone(), BoOptions::default(), 7);
        let mut b = BoTuner::new(cat.clone(), BoOptions::default(), 7);
        let input_a = TuningInput {
            context: &[1.0, 2.0],
            ..input()
        };
        let input_b = TuningInput {
            context: &[-5.0, 9.0],
            ..input()
        };
        assert_eq!(a.suggest(&input_a).0, b.suggest(&input_b).0);
    }
}
