//! JOB (Join Order Benchmark)-style analytical workload: realistic complex multi-join
//! queries over the IMDB schema.

use crate::sql::SqlTemplates;
use crate::{hash_noise, Objective, WorkloadGenerator};
use simdb::{WorkloadMix, WorkloadSpec};

/// JOB-like analytical workload.
///
/// The paper executes ten JOB queries per iteration, re-sampling five of them each time
/// (§7.1.1); queries that exceed the interval are killed. Here the per-iteration re-sampling
/// shows up as a drift in the average join fan-out and selectivity of the interval's query
/// set, which is what the performance model consumes.
#[derive(Debug, Clone)]
pub struct JobWorkload {
    dynamic: bool,
    seed: u64,
    templates: SqlTemplates,
}

impl JobWorkload {
    /// Data loaded for JOB in the paper's setup (≈9 GiB).
    pub const INITIAL_DATA_GIB: f64 = 9.0;
    /// Queries executed per iteration.
    pub const QUERIES_PER_ITERATION: usize = 10;

    /// Creates the static variant (a fixed representative query set).
    pub fn new_static(seed: u64) -> Self {
        Self::build(false, seed)
    }

    /// Creates the dynamic variant (five of the ten queries re-sampled every iteration).
    pub fn new_dynamic(seed: u64) -> Self {
        Self::build(true, seed)
    }

    fn build(dynamic: bool, seed: u64) -> Self {
        JobWorkload {
            dynamic,
            seed,
            templates: SqlTemplates::new(
                vec![
                    "title",
                    "movie_info",
                    "movie_companies",
                    "cast_info",
                    "name",
                    "company_name",
                    "keyword",
                    "movie_keyword",
                    "info_type",
                ],
                seed ^ 0x10B,
            ),
        }
    }

    /// Average join fan-out of the iteration's query set (drifts for the dynamic variant).
    fn join_tables_at(&self, iteration: usize) -> f64 {
        if !self.dynamic {
            return 5.0;
        }
        let drift = (iteration as f64 / 70.0 * std::f64::consts::TAU).sin();
        let jitter = hash_noise(self.seed, iteration, 1);
        (5.0 + 2.0 * drift + 0.8 * jitter).clamp(3.0, 8.0)
    }

    fn selectivity_at(&self, iteration: usize) -> f64 {
        if !self.dynamic {
            return 0.02;
        }
        let jitter = hash_noise(self.seed, iteration, 2);
        (0.02 + 0.012 * jitter).clamp(0.005, 0.05)
    }
}

impl WorkloadGenerator for JobWorkload {
    fn name(&self) -> &str {
        if self.dynamic {
            "job-dynamic"
        } else {
            "job"
        }
    }

    fn spec_at(&self, iteration: usize) -> WorkloadSpec {
        WorkloadSpec {
            name: self.name().to_string(),
            mix: WorkloadMix::new([0.0, 0.0, 0.62, 0.38, 0.0, 0.0, 0.0]),
            // Ten queries per 3-minute interval ≈ one query every 18 s offered.
            arrival_rate_qps: Some(Self::QUERIES_PER_ITERATION as f64 / 180.0),
            clients: 4,
            data_size_gib: Self::INITIAL_DATA_GIB,
            skew: 0.1,
            avg_rows_per_read: 4000.0,
            avg_join_tables: self.join_tables_at(iteration),
            avg_selectivity: self.selectivity_at(iteration),
            index_coverage: 0.6,
        }
    }

    fn sample_queries(&self, iteration: usize, n: usize) -> Vec<String> {
        self.templates.sample(
            &self.spec_at(iteration).mix,
            iteration,
            n.min(Self::QUERIES_PER_ITERATION.max(n.min(50))),
        )
    }

    fn objective(&self) -> Objective {
        Objective::ExecutionTime
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_is_purely_analytical() {
        let w = JobWorkload::new_dynamic(1);
        let spec = w.spec_at(10);
        assert_eq!(spec.mix.write_fraction(), 0.0);
        assert!(spec.mix.analytical_fraction() > 0.99);
        assert_eq!(w.objective(), Objective::ExecutionTime);
    }

    #[test]
    fn dynamic_variant_drifts_join_fanout_within_bounds() {
        let w = JobWorkload::new_dynamic(1);
        let mut values = Vec::new();
        for it in 0..200 {
            let jt = w.spec_at(it).avg_join_tables;
            assert!((3.0..=8.0).contains(&jt));
            values.push(jt);
        }
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            max - min > 1.0,
            "join fan-out should drift, got span {}",
            max - min
        );
    }

    #[test]
    fn static_variant_is_constant() {
        let w = JobWorkload::new_static(3);
        assert_eq!(w.spec_at(0), w.spec_at(123));
    }

    #[test]
    fn queries_look_like_imdb_joins() {
        let w = JobWorkload::new_dynamic(5);
        let queries = w.sample_queries(7, 10);
        assert!(!queries.is_empty());
        assert!(queries
            .iter()
            .any(|q| q.contains("JOIN") || q.contains("GROUP BY")));
        assert!(queries.iter().all(|q| q.starts_with("SELECT")));
    }
}
