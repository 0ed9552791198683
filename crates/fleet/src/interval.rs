//! One tuning interval: the only code that opens an interval, measures a configuration
//! in it and judges the result.
//!
//! OnlineTune calls an interval unsafe when its configuration performs worse than the
//! reference (default) configuration would in the same context (§3 of the paper). The
//! fleet's tenant step and the `bench` harness's session both run every interval through
//! [`Interval`], so every tuner in the repository learns from one label:
//!
//! 1. [`Interval::open`] reads the workload position — spec and objective — and τ, the
//!    score of the noiseless [`SimDatabase::peek`] of the reference under that spec and
//!    the instance's data. The paper assumes τ can be obtained; the simulator's oracle
//!    is how this reproduction obtains it.
//! 2. [`Interval::context`] featurizes a sample of the interval's queries with optimizer
//!    statistics sized to the instance's data (a pinned or probe step skips it).
//! 3. [`Interval::measure`] applies a configuration, runs the interval, scores the outcome
//!    and gives the verdict, [`is_safe`].

use featurize::ContextFeaturizer;
use simdb::{Configuration, Evaluation, OptimizerStats, SimDatabase, WorkloadSpec};
use workloads::{Objective, WorkloadGenerator};

/// Relative tolerance of the safety verdict: an interval is unsafe when its score falls
/// more than this fraction of `|τ|` below τ.
pub const UNSAFE_TOLERANCE: f64 = 0.05;

/// Queries sampled per interval for the workload part of the context.
const QUERY_SAMPLE: usize = 30;

/// The safety verdict: safe iff `score >= τ − UNSAFE_TOLERANCE·|τ|`.
///
/// A NaN score or a NaN τ is unsafe. A hung instance scores 0 tps or the negated latency
/// cap (`simdb::perfmodel::FAILURE_LATENCY_MS`), which is unsafe under any reference that
/// runs; under a reference that hangs too, it is no worse than the default and so safe.
pub fn is_safe(score: f64, threshold: f64) -> bool {
    score >= threshold - UNSAFE_TOLERANCE * threshold.abs()
}

/// One opened tuning interval: where the workload stands and what the reference would
/// score there.
#[derive(Debug, Clone)]
pub struct Interval {
    /// Position in the workload stream.
    pub iteration: usize,
    /// The workload running during the interval.
    pub spec: WorkloadSpec,
    /// What the interval's score measures.
    pub objective: Objective,
    /// τ: the reference configuration's noiseless score under this spec and data.
    pub threshold: f64,
}

/// A configuration measured in an [`Interval`].
#[derive(Debug, Clone)]
pub struct Measurement {
    /// What the instance reported, with any injected fault.
    pub evaluation: Evaluation,
    /// The outcome's objective score (higher is better).
    pub score: f64,
    /// The verdict, [`is_safe`]`(score, τ)`.
    pub safe: bool,
}

impl Interval {
    /// Opens interval `iteration` of `generator` on `db`, judged against `reference`.
    pub fn open(
        generator: &dyn WorkloadGenerator,
        db: &SimDatabase,
        reference: &Configuration,
        iteration: usize,
    ) -> Interval {
        let spec = generator.spec_at(iteration);
        let objective = generator.objective_at(iteration);
        let threshold = objective.score(&db.peek(reference, &spec));
        Interval {
            iteration,
            spec,
            objective,
            threshold,
        }
    }

    /// The interval's context vector: a sample of its queries, its arrival rate and
    /// optimizer statistics estimated at the instance's current data size.
    pub fn context(
        &self,
        generator: &dyn WorkloadGenerator,
        db: &SimDatabase,
        featurizer: &ContextFeaturizer,
    ) -> Vec<f64> {
        let queries = generator.sample_queries(self.iteration, QUERY_SAMPLE);
        let mut sized = self.spec.clone();
        sized.data_size_gib = db.data_size_gib().unwrap_or(self.spec.data_size_gib);
        let stats = OptimizerStats::estimate(&sized);
        featurizer.featurize(&queries, self.spec.arrival_rate_qps, &stats)
    }

    /// Applies `config` to `db`, runs the interval for `interval_s` seconds, scores the
    /// outcome and judges it against τ.
    pub fn measure(
        &self,
        db: &mut SimDatabase,
        config: &Configuration,
        interval_s: f64,
    ) -> Measurement {
        db.apply_config(config);
        let evaluation = db.run_interval(&self.spec, interval_s);
        let score = self.objective.score(&evaluation.outcome);
        Measurement {
            safe: is_safe(score, self.threshold),
            evaluation,
            score,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdb::perfmodel::FAILURE_LATENCY_MS;
    use simdb::PerformanceOutcome;

    #[test]
    fn a_score_at_the_bound_is_safe_and_one_just_below_it_is_not() {
        for tau in [100.0, 1234.5, 0.0, -200.0, -FAILURE_LATENCY_MS] {
            let bound = tau - UNSAFE_TOLERANCE * f64::abs(tau);
            assert!(is_safe(bound, tau), "τ = {tau}");
            assert!(!is_safe(bound.next_down(), tau), "τ = {tau}");
            assert!(is_safe(tau, tau), "τ = {tau}");
        }
        assert!(is_safe(95.0, 100.0));
        assert!(!is_safe(94.9, 100.0));
    }

    #[test]
    fn latency_scores_are_negative_and_tolerated_on_their_magnitude() {
        // τ = −200 ms: the bound is −210 ms, so 210 ms is safe and 211 ms is not.
        assert!(is_safe(-210.0, -200.0));
        assert!(!is_safe(-211.0, -200.0));
        assert!(is_safe(-150.0, -200.0));
    }

    #[test]
    fn a_hang_is_unsafe_under_a_running_reference_and_safe_under_a_hung_one() {
        let hung = PerformanceOutcome::failure(FAILURE_LATENCY_MS);
        for objective in [
            Objective::Throughput,
            Objective::P99Latency,
            Objective::ExecutionTime,
        ] {
            let running = PerformanceOutcome {
                throughput_tps: 900.0,
                latency_avg_ms: 40.0,
                latency_p99_ms: 150.0,
                failed: false,
            };
            let score = objective.score(&hung);
            assert!(
                !is_safe(score, objective.score(&running)),
                "{objective:?}: a hang must be unsafe under a running reference"
            );
            assert!(
                is_safe(score, objective.score(&hung)),
                "{objective:?}: a hang is no worse than a hung reference"
            );
        }
    }

    #[test]
    fn nan_score_or_threshold_is_unsafe() {
        assert!(!is_safe(f64::NAN, 100.0));
        assert!(!is_safe(100.0, f64::NAN));
        assert!(!is_safe(f64::NAN, f64::NAN));
        assert!(!is_safe(-100.0, f64::NAN));
    }
}
