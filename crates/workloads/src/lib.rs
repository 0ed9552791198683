//! # workloads — benchmark and real-world workload generators
//!
//! The paper evaluates OnlineTune on four benchmarks plus one production trace, each in a
//! *dynamic* variant (§7 "Workloads"):
//!
//! * **TPC-C** ([`tpcc`]) — write-heavy OLTP with complex relations and growing data;
//! * **Twitter** ([`twitter`]) — read-heavy, heavily skewed web workload;
//! * **JOB** ([`job`]) — the Join Order Benchmark: 113 analytical multi-join queries;
//! * **YCSB** ([`ycsb`]) — the 5-knob case-study workload with a shifting read/write mix;
//! * **Real-world** ([`realworld`]) — a diurnal trace with a fluctuating arrival rate and a
//!   read/write ratio varying between 3:1 and 74:1.
//!
//! Scripted drift on top of a base family (load ramps, family switches and alternations,
//! diurnal cycles, flash crowds, skew growth) is the fleet's `WorkloadDrift` stack, which
//! the `fleet` crate applies to these generators as a pure function of the iteration.
//!
//! Each generator implements [`WorkloadGenerator`]: it produces the [`simdb::WorkloadSpec`]
//! for a given tuning iteration (this is where the *dynamics* live — sine-modulated
//! transaction weights, alternating OLTP/OLAP phases, arrival-rate schedules) and a sample
//! of SQL text for the interval, which the `featurize` crate encodes into the workload part
//! of the context feature.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cycle;
pub mod job;
pub mod realworld;
pub mod sql;
pub mod tpcc;
pub mod twitter;
pub mod ycsb;

use simdb::WorkloadSpec;

/// What the tuner optimizes for a given workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Maximize transactions per second (OLTP workloads).
    Throughput,
    /// Minimize the 99th-percentile latency (the transactional–analytical cycle experiment).
    P99Latency,
    /// Minimize total execution time of the interval's queries (JOB).
    ExecutionTime,
}

impl Objective {
    /// Converts an interval outcome into a "higher is better" score for the tuner.
    pub fn score(&self, outcome: &simdb::PerformanceOutcome) -> f64 {
        match self {
            Objective::Throughput => outcome.throughput_tps,
            Objective::P99Latency => -outcome.latency_p99_ms,
            Objective::ExecutionTime => -outcome.latency_avg_ms,
        }
    }
}

/// A deterministic source of per-iteration workload descriptions.
///
/// Implementations must be pure functions of the iteration index so that every tuner in a
/// comparison sees exactly the same sequence of workloads (the paper runs all baselines on
/// the same dynamic trace).
pub trait WorkloadGenerator: Send + Sync {
    /// Short name of the workload ("tpcc", "twitter", ...).
    fn name(&self) -> &str;

    /// The workload running during tuning iteration `iteration`.
    fn spec_at(&self, iteration: usize) -> WorkloadSpec;

    /// A representative sample of SQL statements for the interval, used for featurization.
    fn sample_queries(&self, iteration: usize, n: usize) -> Vec<String>;

    /// The optimization objective for this workload.
    fn objective(&self) -> Objective;

    /// The objective at a specific iteration. Defaults to the static [`Self::objective`];
    /// a generator whose family changes mid-stream (a fleet tenant's workload under a
    /// family switch or alternation) overrides this so the objective follows the running
    /// family.
    fn objective_at(&self, _iteration: usize) -> Objective {
        self.objective()
    }

    /// Initial logical data size in GiB.
    fn initial_data_size_gib(&self) -> f64 {
        self.spec_at(0).data_size_gib
    }
}

/// Deterministic pseudo-random value in `[-1, 1]` derived from a seed and an iteration.
///
/// The dynamic schedules need small reproducible perturbations ("weights sampled from a
/// normal distribution with a sine of iterations as mean and a 10 % standard deviation")
/// without carrying mutable RNG state, so generators hash `(seed, iteration, stream)` into
/// a quasi-uniform value instead.
pub(crate) fn hash_noise(seed: u64, iteration: usize, stream: u64) -> f64 {
    let mut x = seed
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add(iteration as u64)
        .wrapping_mul(0xbf58476d1ce4e5b9)
        .wrapping_add(stream)
        .wrapping_mul(0x94d049bb133111eb);
    x ^= x >> 31;
    x = x.wrapping_mul(0xd6e8feb86659fd93);
    x ^= x >> 32;
    (x as f64 / u64::MAX as f64) * 2.0 - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objective_scores_follow_direction() {
        let good = simdb::PerformanceOutcome {
            throughput_tps: 1000.0,
            latency_avg_ms: 5.0,
            latency_p99_ms: 20.0,
            failed: false,
        };
        let bad = simdb::PerformanceOutcome {
            throughput_tps: 100.0,
            latency_avg_ms: 50.0,
            latency_p99_ms: 400.0,
            failed: false,
        };
        assert!(Objective::Throughput.score(&good) > Objective::Throughput.score(&bad));
        assert!(Objective::P99Latency.score(&good) > Objective::P99Latency.score(&bad));
        assert!(Objective::ExecutionTime.score(&good) > Objective::ExecutionTime.score(&bad));
    }

    #[test]
    fn hash_noise_is_deterministic_and_bounded() {
        for it in 0..200 {
            let a = hash_noise(7, it, 3);
            let b = hash_noise(7, it, 3);
            assert_eq!(a, b);
            assert!((-1.0..=1.0).contains(&a));
        }
        assert_ne!(hash_noise(7, 10, 0), hash_noise(7, 11, 0));
        assert_ne!(hash_noise(7, 10, 0), hash_noise(8, 10, 0));
    }

    #[test]
    fn hash_noise_is_roughly_centred() {
        let vals: Vec<f64> = (0..2000).map(|i| hash_noise(1, i, 0)).collect();
        let mean: f64 = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!(mean.abs() < 0.1, "mean = {mean}");
    }
}
