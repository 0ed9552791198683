//! Workload descriptors consumed by the performance model.
//!
//! A [`WorkloadSpec`] is the simulator-facing summary of "what is running against the
//! database during one tuning interval": the query-class mix, arrival rate, client count,
//! data volume and access skew. The `workloads` crate builds these specs (and the matching
//! SQL text used for featurization) for TPC-C, Twitter, JOB, YCSB and the real-world trace,
//! including their dynamic variants.

use serde::{Deserialize, Serialize};

/// Coarse classes of queries the performance model distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QueryClass {
    /// Primary-key point lookups.
    PointSelect,
    /// Short index range scans.
    RangeSelect,
    /// Multi-table joins (OLAP style).
    Join,
    /// Aggregations with grouping / sorting.
    Aggregate,
    /// Single-row inserts.
    Insert,
    /// Indexed updates.
    Update,
    /// Deletes.
    Delete,
}

impl QueryClass {
    /// All classes, in the order used by [`WorkloadMix`].
    pub const ALL: [QueryClass; 7] = [
        QueryClass::PointSelect,
        QueryClass::RangeSelect,
        QueryClass::Join,
        QueryClass::Aggregate,
        QueryClass::Insert,
        QueryClass::Update,
        QueryClass::Delete,
    ];

    /// Whether the class modifies data.
    pub fn is_write(self) -> bool {
        matches!(
            self,
            QueryClass::Insert | QueryClass::Update | QueryClass::Delete
        )
    }

    /// Whether the class is an analytical (scan/join/sort heavy) query.
    pub fn is_analytical(self) -> bool {
        matches!(self, QueryClass::Join | QueryClass::Aggregate)
    }
}

/// Relative frequency of each query class; always normalized to sum to 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadMix {
    weights: [f64; 7],
}

impl WorkloadMix {
    /// Builds a mix from raw (non-negative) weights; they are normalized internally.
    /// An all-zero input yields a uniform mix.
    pub fn new(weights: [f64; 7]) -> Self {
        let mut w = weights.map(|v| v.max(0.0));
        let total: f64 = w.iter().sum();
        if total <= 0.0 {
            w = [1.0 / 7.0; 7];
        } else {
            w.iter_mut().for_each(|v| *v /= total);
        }
        WorkloadMix { weights: w }
    }

    /// Weight of one query class.
    pub fn weight(&self, class: QueryClass) -> f64 {
        let idx = QueryClass::ALL.iter().position(|c| *c == class).unwrap();
        self.weights[idx]
    }

    /// Fraction of queries that modify data.
    pub fn write_fraction(&self) -> f64 {
        QueryClass::ALL
            .iter()
            .zip(self.weights.iter())
            .filter(|(c, _)| c.is_write())
            .map(|(_, w)| w)
            .sum()
    }

    /// Fraction of queries that only read data.
    pub fn read_fraction(&self) -> f64 {
        1.0 - self.write_fraction()
    }

    /// Fraction of analytical (join/aggregate) queries.
    pub fn analytical_fraction(&self) -> f64 {
        QueryClass::ALL
            .iter()
            .zip(self.weights.iter())
            .filter(|(c, _)| c.is_analytical())
            .map(|(_, w)| w)
            .sum()
    }
}

/// Everything the performance model needs to know about one tuning interval's workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Human-readable name (e.g. "tpcc", "twitter", "job", "ycsb").
    pub name: String,
    /// Query-class mix.
    pub mix: WorkloadMix,
    /// Offered load in queries per second; `None` means a closed loop that always has work
    /// queued (the paper uses unlimited arrival rates for the OLTP benchmarks).
    pub arrival_rate_qps: Option<f64>,
    /// Number of concurrently connected clients issuing queries.
    pub clients: usize,
    /// Logical data size in GiB (grows over time for write-heavy workloads).
    pub data_size_gib: f64,
    /// Access skew in `[0, 1]`: 0 = uniform, 1 = extremely skewed (tiny hot set).
    pub skew: f64,
    /// Average number of rows touched by a read query (drives scan cost).
    pub avg_rows_per_read: f64,
    /// Average number of tables participating in a join query.
    pub avg_join_tables: f64,
    /// Fraction of rows surviving predicates (selectivity) for scans.
    pub avg_selectivity: f64,
    /// Fraction of queries that can use an index.
    pub index_coverage: f64,
}

impl WorkloadSpec {
    /// A sensible OLTP default used by unit tests (uniform point-read/write mix, 10 GiB).
    pub fn synthetic_oltp() -> Self {
        WorkloadSpec {
            name: "synthetic-oltp".to_string(),
            mix: WorkloadMix::new([0.55, 0.1, 0.0, 0.0, 0.15, 0.15, 0.05]),
            arrival_rate_qps: None,
            clients: 32,
            data_size_gib: 10.0,
            skew: 0.5,
            avg_rows_per_read: 4.0,
            avg_join_tables: 1.0,
            avg_selectivity: 0.05,
            index_coverage: 0.95,
        }
    }

    /// Fraction of the data that is "hot" given the skew: heavily skewed workloads touch a
    /// small fraction of the data most of the time, so a smaller buffer pool suffices.
    pub fn hot_fraction(&self) -> f64 {
        // skew 0 → 1.0 (whole data set hot); skew 1 → 0.05.
        (1.0 - 0.95 * self.skew.clamp(0.0, 1.0)).max(0.05)
    }

    /// Size of the hot set in bytes.
    pub fn hot_bytes(&self) -> f64 {
        self.data_size_gib * 1024.0 * 1024.0 * 1024.0 * self.hot_fraction()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_normalizes_weights() {
        let mix = WorkloadMix::new([2.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0]);
        assert!((mix.weights.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((mix.weight(QueryClass::PointSelect) - 0.5).abs() < 1e-12);
        assert!((mix.write_fraction() - 0.5).abs() < 1e-12);
        assert!((mix.read_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_mix_becomes_uniform() {
        let mix = WorkloadMix::new([0.0; 7]);
        assert!((mix.weights.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        for c in QueryClass::ALL {
            assert!((mix.weight(c) - 1.0 / 7.0).abs() < 1e-12);
        }
    }

    #[test]
    fn negative_weights_are_clamped() {
        let mix = WorkloadMix::new([-5.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(mix.weight(QueryClass::PointSelect), 0.0);
        assert_eq!(mix.weight(QueryClass::RangeSelect), 1.0);
    }

    #[test]
    fn query_class_properties() {
        assert!(QueryClass::Insert.is_write());
        assert!(!QueryClass::PointSelect.is_write());
        assert!(QueryClass::Join.is_analytical());
        assert!(!QueryClass::Update.is_analytical());
    }

    #[test]
    fn hot_fraction_shrinks_with_skew() {
        let mut spec = WorkloadSpec::synthetic_oltp();
        spec.skew = 0.0;
        let uniform = spec.hot_fraction();
        spec.skew = 1.0;
        let skewed = spec.hot_fraction();
        assert!(uniform > skewed);
        assert!(skewed >= 0.05);
        assert!(uniform <= 1.0);
    }

    #[test]
    fn analytical_detection() {
        let mut spec = WorkloadSpec::synthetic_oltp();
        assert!(spec.mix.analytical_fraction() <= 0.5);
        spec.mix = WorkloadMix::new([0.0, 0.0, 0.7, 0.3, 0.0, 0.0, 0.0]);
        assert!(spec.mix.analytical_fraction() > 0.5);
    }
}
