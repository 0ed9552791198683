//! Assembly of the context feature vector from workload and data signals.

use mlkit::QueryEncoder;
use simdb::OptimizerStats;

/// Dimensionality of the query-composition embedding.
const EMBEDDING_DIM: usize = 8;
/// Seed of the (fixed) query encoder, so features are reproducible.
const ENCODER_SEED: u64 = 0x0417e5;
/// Arrival rate (queries/s) that maps to 1.0 after normalization; higher rates saturate.
const ARRIVAL_RATE_SCALE: f64 = 10_000.0;

/// Which parts of the context the featurizer produces (Figure 14's ablations).
#[derive(Debug, Clone)]
pub struct ContextFeaturizerConfig {
    /// Include the workload features (arrival rate + composition embedding)?
    /// Disabled by the `OnlineTune-w/o-workload` ablation (Figure 14).
    pub include_workload: bool,
    /// Include the underlying-data (optimizer statistics) features?
    /// Disabled by the `OnlineTune-w/o-data` ablation (Figure 14).
    pub include_data: bool,
}

impl Default for ContextFeaturizerConfig {
    fn default() -> Self {
        ContextFeaturizerConfig {
            include_workload: true,
            include_data: true,
        }
    }
}

/// Produces context vectors `c_t` from the interval's queries and optimizer statistics.
#[derive(Debug, Clone)]
pub struct ContextFeaturizer {
    config: ContextFeaturizerConfig,
    encoder: QueryEncoder,
}

impl ContextFeaturizer {
    /// Creates a featurizer.
    pub fn new(config: ContextFeaturizerConfig) -> Self {
        let encoder = QueryEncoder::new(EMBEDDING_DIM, ENCODER_SEED);
        ContextFeaturizer { config, encoder }
    }

    /// Creates a featurizer with default settings.
    pub fn with_defaults() -> Self {
        Self::new(ContextFeaturizerConfig::default())
    }

    /// Dimensionality of the produced context vectors.
    pub fn dim(&self) -> usize {
        let workload = if self.config.include_workload {
            1 + self.encoder.dim()
        } else {
            0
        };
        let data = if self.config.include_data { 3 } else { 0 };
        // A context must never be empty (the contextual kernel needs at least one context
        // dimension); fall back to a single constant dimension if both parts are ablated.
        (workload + data).max(1)
    }

    /// Featurizes one tuning interval.
    ///
    /// * `queries` — SQL text observed during (the beginning of) the interval.
    /// * `arrival_rate_qps` — measured arrival rate; `None` for closed-loop benchmarks.
    /// * `stats` — optimizer statistics for the interval's queries.
    pub fn featurize(
        &self,
        queries: &[String],
        arrival_rate_qps: Option<f64>,
        stats: &OptimizerStats,
    ) -> Vec<f64> {
        let mut context = Vec::with_capacity(self.dim());
        if self.config.include_workload {
            let rate = arrival_rate_qps.unwrap_or(ARRIVAL_RATE_SCALE);
            context.push((rate / ARRIVAL_RATE_SCALE).clamp(0.0, 2.0));
            context.extend(self.encoder.encode_workload(queries));
        }
        if self.config.include_data {
            context.extend(stats.to_feature());
        }
        if context.is_empty() {
            context.push(0.0);
        }
        context
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdb::WorkloadSpec;
    use workloads::tpcc::TpccWorkload;
    use workloads::twitter::TwitterWorkload;
    use workloads::WorkloadGenerator;

    fn stats_for(spec: &WorkloadSpec) -> OptimizerStats {
        OptimizerStats::estimate(spec)
    }

    #[test]
    fn dimension_matches_configuration() {
        let full = ContextFeaturizer::with_defaults();
        assert_eq!(full.dim(), 1 + 8 + 3);
        let no_data = ContextFeaturizer::new(ContextFeaturizerConfig {
            include_data: false,
            ..Default::default()
        });
        assert_eq!(no_data.dim(), 9);
        let no_workload = ContextFeaturizer::new(ContextFeaturizerConfig {
            include_workload: false,
            ..Default::default()
        });
        assert_eq!(no_workload.dim(), 3);
        let nothing = ContextFeaturizer::new(ContextFeaturizerConfig {
            include_workload: false,
            include_data: false,
        });
        assert_eq!(nothing.dim(), 1);
    }

    #[test]
    fn featurize_produces_vectors_of_declared_dimension() {
        let tpcc = TpccWorkload::new_dynamic(1);
        let queries = tpcc.sample_queries(0, 30);
        let stats = stats_for(&tpcc.spec_at(0));
        for include_workload in [false, true] {
            for include_data in [false, true] {
                let f = ContextFeaturizer::new(ContextFeaturizerConfig {
                    include_workload,
                    include_data,
                });
                let c = f.featurize(&queries, None, &stats);
                assert_eq!(
                    c.len(),
                    f.dim(),
                    "workload {include_workload}, data {include_data}"
                );
                assert!(c.iter().all(|v| v.is_finite()));
            }
        }
    }

    #[test]
    fn different_workloads_map_to_distant_contexts() {
        let f = ContextFeaturizer::with_defaults();
        let tpcc = TpccWorkload::new_dynamic(1);
        let twitter = TwitterWorkload::new_dynamic(1);
        let c_tpcc = f.featurize(
            &tpcc.sample_queries(0, 40),
            None,
            &stats_for(&tpcc.spec_at(0)),
        );
        let c_twitter = f.featurize(
            &twitter.sample_queries(0, 40),
            None,
            &stats_for(&twitter.spec_at(0)),
        );
        let same_workload_later = f.featurize(
            &tpcc.sample_queries(1, 40),
            None,
            &stats_for(&tpcc.spec_at(1)),
        );
        let cross = linalg::vecops::euclidean_distance(&c_tpcc, &c_twitter);
        let within = linalg::vecops::euclidean_distance(&c_tpcc, &same_workload_later);
        assert!(
            cross > within,
            "cross-workload distance {cross} should exceed within-workload distance {within}"
        );
    }

    #[test]
    fn arrival_rate_moves_the_context() {
        let f = ContextFeaturizer::with_defaults();
        let tpcc = TpccWorkload::new_static(1);
        let queries = tpcc.sample_queries(0, 20);
        let stats = stats_for(&tpcc.spec_at(0));
        let slow = f.featurize(&queries, Some(500.0), &stats);
        let fast = f.featurize(&queries, Some(9_000.0), &stats);
        assert!(fast[0] > slow[0]);
    }

    #[test]
    fn data_growth_moves_the_context_when_data_features_are_enabled() {
        let f = ContextFeaturizer::with_defaults();
        let tpcc = TpccWorkload::new_static(1);
        let queries = tpcc.sample_queries(0, 20);
        let mut small = tpcc.spec_at(0);
        small.data_size_gib = 18.0;
        let mut large = tpcc.spec_at(0);
        large.data_size_gib = 48.0;
        let c_small = f.featurize(&queries, None, &stats_for(&small));
        let c_large = f.featurize(&queries, None, &stats_for(&large));
        assert!(linalg::vecops::euclidean_distance(&c_small, &c_large) > 1e-6);

        let no_data = ContextFeaturizer::new(ContextFeaturizerConfig {
            include_data: false,
            ..Default::default()
        });
        let d_small = no_data.featurize(&queries, None, &stats_for(&small));
        let d_large = no_data.featurize(&queries, None, &stats_for(&large));
        assert_eq!(
            d_small, d_large,
            "without data features growth must be invisible"
        );
    }

    #[test]
    fn empty_query_sample_is_handled() {
        let f = ContextFeaturizer::with_defaults();
        let spec = WorkloadSpec::synthetic_oltp();
        let c = f.featurize(&[], None, &stats_for(&spec));
        assert_eq!(c.len(), f.dim());
    }
}
