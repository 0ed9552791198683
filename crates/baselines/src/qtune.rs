//! QTune-lite baseline: query-aware tuning.
//!
//! QTune featurizes the workload's queries, predicts the DBMS internal metrics from that
//! embedding with a neural network, and feeds the *predicted* metrics (rather than the
//! measured ones) into a DDPG-style agent — this is its workload-level tuning granularity,
//! which is what the paper compares against. Here the metric predictor is a small MLP
//! trained online from (context → observed metrics) pairs, stacked on top of the same DDPG
//! agent used by the CDBTune baseline.

use crate::ddpg::{DdpgOptions, DdpgTuner};
use crate::{Tuner, TuningInput};
use mlkit::nn::{Activation, Mlp};
use onlinetune::IterationDiagnostics;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simdb::{Configuration, InternalMetrics, KnobCatalogue};

/// The QTune-lite tuner.
pub struct QtuneTuner {
    predictor: Mlp,
    agent: DdpgTuner,
    context_dim: usize,
    training: Vec<(Vec<f64>, Vec<f64>)>,
}

impl QtuneTuner {
    /// Creates the tuner for context vectors of dimension `context_dim`.
    pub fn new(catalogue: KnobCatalogue, context_dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x47);
        let metric_dim = InternalMetrics::NAMES.len();
        let predictor = Mlp::new(
            &[context_dim.max(1), 32, metric_dim],
            &[Activation::Relu, Activation::Identity],
            2e-3,
            &mut rng,
        );
        QtuneTuner {
            predictor,
            agent: DdpgTuner::new(catalogue, DdpgOptions::default(), seed),
            context_dim: context_dim.max(1),
            training: Vec::new(),
        }
    }

    fn pad_context(&self, context: &[f64]) -> Vec<f64> {
        let mut c = context.to_vec();
        c.resize(self.context_dim, 0.0);
        c
    }

    /// Predicts internal metrics from a context vector.
    pub fn predict_metrics(&self, context: &[f64]) -> InternalMetrics {
        let raw = self.predictor.forward(&self.pad_context(context));
        let mut m = InternalMetrics::zeroed();
        let clamp01 = |v: f64| v.clamp(0.0, 1.0);
        m.buffer_pool_hit_ratio = clamp01(raw[0]);
        m.dirty_page_ratio = clamp01(raw[1]);
        m.reads_per_sec = raw[2].max(0.0);
        m.writes_per_sec = raw[3].max(0.0);
        m.log_waits_per_sec = raw[4].max(0.0);
        m.sort_merge_spill_ratio = clamp01(raw[5]);
        m.tmp_disk_table_ratio = clamp01(raw[6]);
        m.joins_without_index_ratio = clamp01(raw[7]);
        m.threads_running = raw[8].max(0.0);
        m.lock_waits_per_sec = raw[9].max(0.0);
        m.checkpoint_stall_ratio = clamp01(raw[10]);
        m.memory_pressure = clamp01(raw[11]);
        m.disk_reads_per_sec = raw[12].max(0.0);
        m.disk_writes_per_sec = raw[13].max(0.0);
        m.cpu_utilization = clamp01(raw[14]);
        m.threads_created = raw[15].max(0.0);
        m
    }
}

impl Tuner for QtuneTuner {
    fn name(&self) -> &str {
        "QTune"
    }

    fn suggest(
        &mut self,
        input: &TuningInput<'_>,
    ) -> (Configuration, Option<IterationDiagnostics>) {
        // Workload-level granularity: the agent's state is the *predicted* metrics for the
        // observed workload context.
        let predicted = self.predict_metrics(input.context);
        let inner = TuningInput {
            context: input.context,
            metrics: Some(&predicted),
            safety_threshold: input.safety_threshold,
            clients: input.clients,
        };
        self.agent.suggest(&inner)
    }

    fn observe(
        &mut self,
        input: &TuningInput<'_>,
        config: &Configuration,
        performance: f64,
        metrics: &InternalMetrics,
        safe: bool,
    ) {
        // Online training of the metric predictor on the newly measured metrics.
        self.training
            .push((self.pad_context(input.context), metrics.to_vec()));
        if self.training.len() > 512 {
            self.training.remove(0);
        }
        let inputs: Vec<Vec<f64>> = self
            .training
            .iter()
            .rev()
            .take(32)
            .map(|(x, _)| x.clone())
            .collect();
        let targets: Vec<Vec<f64>> = self
            .training
            .iter()
            .rev()
            .take(32)
            .map(|(_, y)| y.clone())
            .collect();
        self.predictor.train_batch(&inputs, &targets);
        self.agent
            .observe(input, config, performance, metrics, safe);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicted_metrics_are_well_formed() {
        let q = QtuneTuner::new(KnobCatalogue::mysql57(), 4, 1);
        let m = q.predict_metrics(&[0.3, 0.8, 0.1, 0.9]);
        assert!((0.0..=1.0).contains(&m.buffer_pool_hit_ratio));
        assert!((0.0..=1.0).contains(&m.cpu_utilization));
        assert!(m.reads_per_sec >= 0.0);
    }

    #[test]
    fn context_shorter_than_declared_dimension_is_padded() {
        let q = QtuneTuner::new(KnobCatalogue::mysql57(), 8, 2);
        let m = q.predict_metrics(&[0.5]);
        assert!(m.to_vec().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn suggestions_are_valid_and_learning_proceeds() {
        let cat = KnobCatalogue::mysql57();
        let mut q = QtuneTuner::new(cat.clone(), 3, 3);
        let metrics = InternalMetrics::zeroed();
        for i in 0..10 {
            let input = TuningInput {
                context: &[0.2, 0.5, 0.7],
                metrics: Some(&metrics),
                safety_threshold: 0.0,
                clients: 16,
            };
            let cfg = q.suggest(&input).0;
            for (v, k) in cfg.values().iter().zip(cat.knobs()) {
                assert!(*v >= k.min() && *v <= k.max());
            }
            q.observe(&input, &cfg, 100.0 + i as f64, &metrics, true);
        }
        assert_eq!(q.training.len(), 10);
    }
}
