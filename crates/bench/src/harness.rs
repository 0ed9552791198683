//! The tuning-session harness: one tuner, one workload generator, one simulated instance.
//!
//! [`run_session`] is the one single-session loop: every figure binary, the examples and
//! the integration tests run their sessions through it, and every interval through
//! [`fleet::interval::Interval`], the interval the fleet's tenants run too.

use baselines::{Tuner, TuningInput};
use featurize::ContextFeaturizer;
use fleet::interval::Interval;
use onlinetune::IterationDiagnostics;
use serde::Serialize;
use simdb::{Configuration, HardwareSpec, InternalMetrics, KnobCatalogue, SimDatabase};
use std::time::Instant;
use workloads::{Objective, WorkloadGenerator};

/// Options of one tuning session.
#[derive(Debug, Clone)]
pub struct SessionOptions {
    /// Number of tuning iterations (the paper uses 400 for the dynamic experiments and 200
    /// for the static ones).
    pub iterations: usize,
    /// Interval length in seconds (180 s by default).
    pub interval_s: f64,
    /// RNG seed of the simulated instance (noise); the same seed must be used for every
    /// tuner of a comparison so they all see the same noise sequence.
    pub seed: u64,
    /// The configuration whose performance defines the safety threshold (and the starting
    /// point of the tuning). `None` means the DBA default.
    pub reference_config: Option<Configuration>,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            iterations: 400,
            interval_s: 180.0,
            seed: 2022,
            reference_config: None,
        }
    }
}

/// Everything recorded about one tuning iteration.
#[derive(Debug, Clone, Serialize)]
pub struct IterationRecord {
    /// Iteration index (0-based).
    pub iteration: usize,
    /// Raw throughput of the interval (txn/s).
    pub throughput_tps: f64,
    /// 99th-percentile latency of the interval (ms).
    pub latency_p99_ms: f64,
    /// Objective score of the tuner's configuration (higher is better).
    pub score: f64,
    /// Objective score the reference (default) configuration would have achieved.
    pub reference_score: f64,
    /// Whether the interval was unsafe: its score fell below the reference's by more than
    /// the verdict's tolerance ([`fleet::interval::is_safe`]).
    pub is_unsafe: bool,
    /// Whether the instance failed (hung) during the interval.
    pub failed: bool,
    /// Data size at the end of the interval (GiB).
    pub data_size_gib: f64,
    /// Tuner computation time for this iteration (suggest + observe), seconds.
    pub tuner_time_s: f64,
    /// Read fraction of the interval's workload (context signal, useful for plots).
    pub read_fraction: f64,
}

/// The result of a tuning session.
#[derive(Debug, Clone, Serialize)]
pub struct SessionResult {
    /// Tuner name.
    pub tuner: String,
    /// Workload name.
    pub workload: String,
    /// Optimization objective.
    pub objective_name: String,
    /// Per-iteration records.
    pub records: Vec<IterationRecord>,
}

impl SessionResult {
    /// Cumulative performance: total transactions for throughput objectives, total
    /// execution time (seconds) for latency objectives (lower is better there).
    pub fn cumulative_performance(&self, interval_s: f64, objective: Objective) -> f64 {
        match objective {
            Objective::Throughput => self
                .records
                .iter()
                .map(|r| r.throughput_tps * interval_s)
                .sum(),
            Objective::P99Latency => self.records.iter().map(|r| r.latency_p99_ms / 1000.0).sum(),
            Objective::ExecutionTime => {
                self.records.iter().map(|r| r.latency_p99_ms / 1000.0).sum()
            }
        }
    }

    /// Cumulative improvement against the reference configuration, in objective-score units
    /// (positive = better than always running the default).
    pub fn cumulative_improvement(&self) -> f64 {
        self.records
            .iter()
            .map(|r| r.score - r.reference_score)
            .sum()
    }

    /// Number of unsafe recommendations.
    pub fn unsafe_count(&self) -> usize {
        self.records.iter().filter(|r| r.is_unsafe).count()
    }

    /// Number of system failures (hangs).
    pub fn failure_count(&self) -> usize {
        self.records.iter().filter(|r| r.failed).count()
    }

    /// Best relative improvement over the reference score observed in any iteration.
    pub fn max_improvement(&self) -> f64 {
        self.records
            .iter()
            .map(|r| {
                if r.reference_score.abs() > 1e-9 {
                    (r.score - r.reference_score) / r.reference_score.abs()
                } else {
                    0.0
                }
            })
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// First iteration whose score is within `fraction` of the best score ever achieved in
    /// this session (the paper's "Search Step": iterations needed to find a configuration
    /// within 10 % of the estimated optimum). Returns `None` if never reached.
    pub fn search_step(&self, fraction: f64) -> Option<usize> {
        let best = self
            .records
            .iter()
            .map(|r| r.score)
            .fold(f64::NEG_INFINITY, f64::max);
        if !best.is_finite() {
            return None;
        }
        let target = best - fraction * best.abs();
        self.records
            .iter()
            .position(|r| r.score >= target)
            .map(|i| i + 1)
    }

    /// Mean tuner computation time per iteration.
    pub fn mean_tuner_time_s(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.tuner_time_s).sum::<f64>() / self.records.len() as f64
    }
}

/// Runs a tuning session and calls `on_iteration` after every iteration with its
/// record, the configuration applied and the tuner's diagnostics (`None` for tuners that
/// keep none).
///
/// Before iteration 0 the tuner observes the reference configuration once, at its τ in
/// the first interval: the paper adds the DBA default to every baseline's training set
/// for fairness. The same `options.seed` must be used across tuners of a comparison so
/// every tuner sees the same instance-noise sequence and the same workload trace.
pub fn run_session(
    tuner: &mut dyn Tuner,
    generator: &dyn WorkloadGenerator,
    catalogue: &KnobCatalogue,
    featurizer: &ContextFeaturizer,
    options: &SessionOptions,
    mut on_iteration: impl FnMut(&IterationRecord, &Configuration, Option<&IterationDiagnostics>),
) -> SessionResult {
    let mut db =
        SimDatabase::with_catalogue(catalogue.clone(), HardwareSpec::default(), options.seed);
    db.set_data_size(generator.initial_data_size_gib());
    let reference = options
        .reference_config
        .clone()
        .unwrap_or_else(|| Configuration::dba_default(catalogue));

    let first = Interval::open(generator, &db, &reference, 0);
    let context = first.context(generator, &db, featurizer);
    let seed_input = TuningInput {
        context: &context,
        metrics: None,
        safety_threshold: first.threshold,
        clients: first.spec.clients,
    };
    tuner.observe(
        &seed_input,
        &reference,
        first.threshold,
        &InternalMetrics::zeroed(),
        true,
    );

    let mut records = Vec::with_capacity(options.iterations);
    let mut last_metrics: Option<InternalMetrics> = None;
    for iteration in 0..options.iterations {
        let interval = Interval::open(generator, &db, &reference, iteration);
        let context = interval.context(generator, &db, featurizer);
        let input = TuningInput {
            context: &context,
            metrics: last_metrics.as_ref(),
            safety_threshold: interval.threshold,
            clients: interval.spec.clients,
        };

        let t0 = Instant::now();
        let (config, diagnostics) = tuner.suggest(&input);
        let suggest_time = t0.elapsed().as_secs_f64();

        let measured = interval.measure(&mut db, &config, options.interval_s);
        let outcome = &measured.evaluation.outcome;

        let t1 = Instant::now();
        tuner.observe(
            &input,
            &config,
            measured.score,
            &measured.evaluation.metrics,
            measured.safe,
        );
        let observe_time = t1.elapsed().as_secs_f64();

        let record = IterationRecord {
            iteration,
            throughput_tps: outcome.throughput_tps,
            latency_p99_ms: outcome.latency_p99_ms,
            score: measured.score,
            reference_score: interval.threshold,
            is_unsafe: !measured.safe,
            failed: outcome.failed,
            data_size_gib: measured.evaluation.data_size_gib,
            tuner_time_s: suggest_time + observe_time,
            read_fraction: interval.spec.mix.read_fraction(),
        };
        on_iteration(&record, &config, diagnostics.as_ref());
        records.push(record);
        last_metrics = Some(measured.evaluation.metrics);
    }

    SessionResult {
        tuner: tuner.name().to_string(),
        workload: generator.name().to_string(),
        objective_name: format!("{:?}", generator.objective()),
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuners::{build_tuner, TunerKind};
    use workloads::tpcc::TpccWorkload;

    fn quick_options() -> SessionOptions {
        SessionOptions {
            iterations: 12,
            ..Default::default()
        }
    }

    #[test]
    fn dba_default_session_is_never_unsafe_against_itself() {
        let catalogue = KnobCatalogue::mysql57();
        let featurizer = ContextFeaturizer::with_defaults();
        let generator = TpccWorkload::new_dynamic(1);
        let mut tuner = build_tuner(TunerKind::DbaDefault, &catalogue, featurizer.dim(), 7);
        let result = run_session(
            tuner.as_mut(),
            &generator,
            &catalogue,
            &featurizer,
            &quick_options(),
            |_, _, _| {},
        );
        assert_eq!(result.records.len(), 12);
        // Noise can push individual intervals slightly below the noiseless reference, but
        // the default configuration must never be far below its own reference score.
        assert!(
            result.unsafe_count() <= 2,
            "unsafe = {}",
            result.unsafe_count()
        );
        assert_eq!(result.failure_count(), 0);
        assert!(result.cumulative_performance(180.0, Objective::Throughput) > 0.0);
    }

    #[test]
    fn onlinetune_session_produces_complete_records() {
        let catalogue = KnobCatalogue::mysql57();
        let featurizer = ContextFeaturizer::with_defaults();
        let generator = TpccWorkload::new_dynamic(1);
        let mut tuner = build_tuner(TunerKind::OnlineTune, &catalogue, featurizer.dim(), 7);
        let result = run_session(
            tuner.as_mut(),
            &generator,
            &catalogue,
            &featurizer,
            &quick_options(),
            |_, _, _| {},
        );
        assert_eq!(result.tuner, "OnlineTune");
        assert_eq!(result.records.len(), 12);
        assert!(result.records.iter().all(|r| r.tuner_time_s >= 0.0));
        assert!(result.records.iter().all(|r| r.score.is_finite()));
        assert!(result.mean_tuner_time_s() >= 0.0);
        assert!(result.search_step(0.1).is_some());
    }

    /// The harness's session and the fleet's tenant step run the same interval: on the
    /// same generator, seeds and tuner options they regret the same bits and count the
    /// same unsafe intervals.
    #[test]
    fn run_session_agrees_with_the_fleet_tenant_step() {
        use baselines::OnlineTuneBaseline;
        use fleet::tenant::{TenantSession, TenantSpec, WorkloadFamily};
        use onlinetune::{OnlineTune, OnlineTuneOptions};

        let catalogue = KnobCatalogue::mysql57();
        let featurizer = ContextFeaturizer::with_defaults();
        for (family, seed) in [(WorkloadFamily::Tpcc, 11), (WorkloadFamily::Job, 12)] {
            let mut session = TenantSession::new(
                TenantSpec::named("agreement", family, seed),
                OnlineTuneOptions::default(),
            )
            .unwrap();
            let fleet_regrets: Vec<f64> = (0..40).map(|_| session.step()).collect();

            let mut tuner = OnlineTuneBaseline::new(OnlineTune::new(
                catalogue.clone(),
                HardwareSpec::default(),
                featurizer.dim(),
                &Configuration::dba_default(&catalogue),
                OnlineTuneOptions::default(),
                seed,
            ));
            let result = run_session(
                &mut tuner,
                family.build(seed).as_ref(),
                &catalogue,
                &featurizer,
                &SessionOptions {
                    iterations: 40,
                    seed,
                    ..Default::default()
                },
                |_, _, _| {},
            );
            let harness_regrets: Vec<f64> = result
                .records
                .iter()
                .map(|r| (r.reference_score - r.score).max(0.0))
                .collect();

            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fleet_regrets), bits(&harness_regrets), "{family:?}");
            assert_eq!(session.unsafe_count(), result.unsafe_count(), "{family:?}");
        }
    }

    #[test]
    fn identical_seeds_give_identical_workload_traces() {
        let catalogue = KnobCatalogue::mysql57();
        let featurizer = ContextFeaturizer::with_defaults();
        let generator = TpccWorkload::new_dynamic(1);
        let mut a = build_tuner(TunerKind::DbaDefault, &catalogue, featurizer.dim(), 7);
        let mut b = build_tuner(TunerKind::DbaDefault, &catalogue, featurizer.dim(), 7);
        let ra = run_session(
            a.as_mut(),
            &generator,
            &catalogue,
            &featurizer,
            &quick_options(),
            |_, _, _| {},
        );
        let rb = run_session(
            b.as_mut(),
            &generator,
            &catalogue,
            &featurizer,
            &quick_options(),
            |_, _, _| {},
        );
        for (x, y) in ra.records.iter().zip(rb.records.iter()) {
            assert_eq!(x.throughput_tps, y.throughput_tps);
        }
    }
}
