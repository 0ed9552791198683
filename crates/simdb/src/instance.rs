//! The simulated database instance: the stateful object a tuner interacts with.
//!
//! A [`SimDatabase`] owns the knob catalogue, the hardware description, the currently
//! applied configuration and the evolving data size. Each call to
//! [`SimDatabase::run_interval`] evaluates the analytical performance model for the
//! supplied workload, applies measurement noise, grows the data according to the write
//! volume (the TPC-C data-growth effect of Figure 1b), and returns an [`Evaluation`].
//!
//! The instance also tracks cumulative statistics that the experiment harness reports:
//! number of intervals, number of failures, cumulative transactions and cumulative
//! execution time.

use crate::config::Configuration;
use crate::fault::{FaultKind, FaultPlan};
use crate::hardware::HardwareSpec;
use crate::knobs::KnobCatalogue;
use crate::metrics::{InternalMetrics, PerformanceOutcome};
use crate::noise::NoiseModel;
use crate::optimizer::OptimizerStats;
use crate::perfmodel::{self, FAILURE_LATENCY_MS};
use crate::workload::WorkloadSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Everything observed from one tuning interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Noisy throughput / latency outcome of the interval.
    pub outcome: PerformanceOutcome,
    /// Internal metrics snapshot (the DDPG / QTune / MysqlTuner inputs).
    pub metrics: InternalMetrics,
    /// Optimizer statistics for the interval's queries (the data-featurization input).
    pub optimizer_stats: OptimizerStats,
    /// Data size at the end of the interval, in GiB.
    pub data_size_gib: f64,
    /// Length of the interval in seconds.
    pub interval_s: f64,
    /// The injected fault that hit this measurement, if any. Destructive faults
    /// ([`FaultKind::destroys_interval`]) zero the outcome; corrupting faults garble
    /// only the reported outcome while the instance keeps running normally.
    pub fault: Option<FaultKind>,
}

/// Complete serializable state of a [`SimDatabase`] (see [`SimDatabase::snapshot`]).
///
/// The knob catalogue is stored by name and rebuilt from the full MySQL 5.7 catalogue on
/// restore.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SimDatabaseState {
    /// Names of the catalogue knobs, in order.
    pub knob_names: Vec<String>,
    /// Hardware of the instance.
    pub hardware: HardwareSpec,
    /// Currently applied configuration.
    pub current_config: Configuration,
    /// Tracked logical data size.
    pub data_size_gib: Option<f64>,
    /// Measurement-noise model.
    pub noise: NoiseModel,
    /// Noise RNG state.
    pub rng: StdRng,
    /// Intervals run so far.
    pub intervals_run: usize,
    /// Failures (hangs) so far.
    pub failures: usize,
    /// Whether noise is disabled.
    pub deterministic: bool,
    /// Pending injected-fault schedule (empty in snapshots taken before fault
    /// injection existed — hence the serde default).
    #[serde(default)]
    pub fault_plan: FaultPlan,
}

/// A simulated MySQL-like cloud database instance. A clone continues the same
/// evaluation stream (same noise draws, same pending faults) as the original.
#[derive(Clone)]
pub struct SimDatabase {
    catalogue: KnobCatalogue,
    hardware: HardwareSpec,
    current_config: Configuration,
    data_size_gib: Option<f64>,
    noise: NoiseModel,
    rng: StdRng,
    intervals_run: usize,
    failures: usize,
    /// When true, the performance model is evaluated without noise (useful for tests and
    /// for computing ground-truth optima in the case study).
    deterministic: bool,
    fault_plan: FaultPlan,
}

impl SimDatabase {
    /// Creates an instance with the given catalogue and hardware and the catalogue's
    /// vendor-default configuration applied.
    pub fn with_catalogue(catalogue: KnobCatalogue, hardware: HardwareSpec, seed: u64) -> Self {
        let current_config = Configuration::vendor_default(&catalogue);
        SimDatabase {
            catalogue,
            hardware,
            current_config,
            data_size_gib: None,
            noise: NoiseModel::default(),
            rng: StdRng::seed_from_u64(seed),
            intervals_run: 0,
            failures: 0,
            deterministic: false,
            fault_plan: FaultPlan::new(),
        }
    }

    /// Disables measurement noise (used to compute ground truths and in unit tests).
    pub fn set_deterministic(&mut self, deterministic: bool) {
        self.deterministic = deterministic;
    }

    /// The knob catalogue of this instance.
    pub fn catalogue(&self) -> &KnobCatalogue {
        &self.catalogue
    }

    /// Schedules `count` injected faults of `kind` starting with the *next* measurement.
    pub fn inject_faults(&mut self, kind: FaultKind, count: usize) {
        self.fault_plan.schedule(kind, self.intervals_run, count);
    }

    /// Opens a seeded probabilistic fault window over the next `intervals` measurements:
    /// each faults with probability `rate`, decided by a dedicated RNG seeded with
    /// `seed` (the noise RNG is never consulted, so non-faulted intervals keep their
    /// exact noise draws).
    pub fn inject_seeded_faults(
        &mut self,
        kind: FaultKind,
        rate: f64,
        intervals: usize,
        seed: u64,
    ) {
        self.fault_plan.schedule_seeded(kind, rate, intervals, seed);
    }

    /// Current data size if the instance has started tracking it (after the first interval
    /// or an explicit [`SimDatabase::set_data_size`]).
    pub fn data_size_gib(&self) -> Option<f64> {
        self.data_size_gib
    }

    /// Sets the logical data size explicitly (e.g. when loading a benchmark dataset).
    pub fn set_data_size(&mut self, gib: f64) {
        self.data_size_gib = Some(gib.max(0.1));
    }

    /// Scales the tracked data size by `factor` (scenario-scripted data-volume growth,
    /// e.g. a bulk load or an archival purge). No-op until the instance tracks a size —
    /// i.e. before the first interval or [`SimDatabase::set_data_size`] call.
    pub fn scale_data(&mut self, factor: f64) {
        if let Some(size) = self.data_size_gib {
            self.set_data_size(size * factor.max(0.0));
        }
    }

    /// Resizes the instance's hardware in place (a cloud vertical scaling event). The
    /// analytic performance model consults the hardware on every evaluation, so the next
    /// [`SimDatabase::run_interval`] / [`SimDatabase::peek`] responds immediately: buffer
    /// pools compete for the new RAM budget, CPU and IO capacity change, and the currently
    /// applied configuration keeps its values (which may now overcommit or underuse the
    /// instance — exactly the situation a tuner must adapt to).
    pub fn set_hardware(&mut self, hardware: HardwareSpec) {
        self.hardware = hardware;
    }

    /// Applies a configuration to the running instance (no restart — only dynamic knobs are
    /// in the catalogue, as in the paper). Values are sanitized into their legal domains.
    pub fn apply_config(&mut self, config: &Configuration) {
        self.current_config = Configuration::from_values(&self.catalogue, config.values().to_vec());
    }

    /// Convenience: applies the DBA-default configuration.
    pub fn apply_dba_default(&mut self) {
        self.current_config = Configuration::dba_default(&self.catalogue);
    }

    /// Runs one tuning interval of `interval_s` seconds of the given workload under the
    /// currently applied configuration.
    pub fn run_interval(&mut self, workload: &WorkloadSpec, interval_s: f64) -> Evaluation {
        // The instance's own data-size state overrides the workload's nominal size once the
        // instance has been running (data grows under write-heavy workloads).
        let mut effective = workload.clone();
        let tracked = self.data_size_gib.unwrap_or(workload.data_size_gib);
        effective.data_size_gib = tracked;

        let model = perfmodel::evaluate(
            &self.catalogue,
            &self.current_config,
            &effective,
            &self.hardware,
        );

        // Injected-fault decision happens before the noise draw; destructive faults
        // skip the noise draw entirely (the interval never ran), corrupting faults
        // leave the true interval — and its noise draw — intact and garble only the
        // reported outcome below. Either way the RNG streams are deterministic and
        // fully captured by the snapshot.
        let fault = self.fault_plan.next_fault(self.intervals_run);
        let destroyed = fault.is_some_and(FaultKind::destroys_interval);

        let true_outcome = if model.outcome.failed {
            self.failures += 1;
            PerformanceOutcome::failure(FAILURE_LATENCY_MS)
        } else if destroyed {
            PerformanceOutcome::failure(FAILURE_LATENCY_MS)
        } else if self.deterministic {
            model.outcome
        } else {
            let factor = self.noise.sample_factor(interval_s, &mut self.rng);
            PerformanceOutcome {
                throughput_tps: model.outcome.throughput_tps * factor,
                latency_avg_ms: model.outcome.latency_avg_ms / factor,
                latency_p99_ms: (model.outcome.latency_p99_ms / factor).min(FAILURE_LATENCY_MS),
                failed: false,
            }
        };

        // Data growth: committed write transactions add rows. Calibrated so that a
        // write-heavy TPC-C-style workload grows from ~18 GiB to ~48 GiB over ~400 three-
        // minute intervals (Figure 1b / §7.1.1).
        let write_tps = true_outcome.throughput_tps * effective.mix.write_fraction();
        // ~30 bytes of net new data per committed write (inserts add rows, updates mostly
        // rewrite in place); calibrated so a write-heavy run grows by tens of GiB over 400
        // three-minute intervals, matching Figure 1b.
        let growth_gib = write_tps * interval_s * 30.0 / (1024.0 * 1024.0 * 1024.0);
        let new_size = tracked + growth_gib;
        self.data_size_gib = Some(new_size);

        // Corrupting faults garble only the report; data growth above already used the
        // true outcome, so the instance's internal trajectory is unaffected.
        let outcome = match fault {
            Some(FaultKind::CorruptNan) => PerformanceOutcome {
                throughput_tps: f64::NAN,
                latency_avg_ms: f64::NAN,
                latency_p99_ms: f64::NAN,
                failed: false,
            },
            Some(FaultKind::CorruptScale) => PerformanceOutcome {
                throughput_tps: true_outcome.throughput_tps * 1000.0,
                latency_avg_ms: true_outcome.latency_avg_ms / 1000.0,
                latency_p99_ms: true_outcome.latency_p99_ms / 1000.0,
                failed: false,
            },
            _ => true_outcome,
        };

        let optimizer_stats = OptimizerStats::estimate(&effective);
        self.intervals_run += 1;

        Evaluation {
            outcome,
            metrics: if model.outcome.failed || destroyed {
                InternalMetrics::zeroed()
            } else {
                model.metrics
            },
            optimizer_stats,
            data_size_gib: new_size,
            interval_s,
            fault,
        }
    }

    /// Exports the complete instance state for snapshots (see [`SimDatabaseState`]).
    pub fn snapshot(&self) -> SimDatabaseState {
        SimDatabaseState {
            knob_names: self
                .catalogue
                .knobs()
                .iter()
                .map(|k| k.name.to_string())
                .collect(),
            hardware: self.hardware,
            current_config: self.current_config.clone(),
            data_size_gib: self.data_size_gib,
            noise: self.noise,
            rng: self.rng.clone(),
            intervals_run: self.intervals_run,
            failures: self.failures,
            deterministic: self.deterministic,
            fault_plan: self.fault_plan.clone(),
        }
    }

    /// Rebuilds an instance from a snapshot; the restored instance produces the same
    /// evaluation stream (same noise draws, same data growth) as the exported one.
    ///
    /// Fails when the snapshot references a knob missing from the full MySQL 5.7 catalogue,
    /// when its current configuration does not hold one value per knob, or when its noise
    /// model's spread is negative or not finite at some interval length: each would panic
    /// a later interval instead.
    pub fn restore(state: SimDatabaseState) -> Result<Self, String> {
        let full = KnobCatalogue::mysql57();
        let full_names: Vec<&str> = full.knobs().iter().map(|k| k.name).collect();
        let wanted: Vec<&str> = state.knob_names.iter().map(|s| s.as_str()).collect();
        for name in &wanted {
            if !full_names.contains(name) {
                return Err(format!("snapshot references unknown knob `{name}`"));
            }
        }
        let catalogue = if wanted == full_names {
            full
        } else {
            full.subset(&wanted)
        };
        if state.current_config.len() != catalogue.len() {
            return Err(format!(
                "current configuration has {} values for {} knobs",
                state.current_config.len(),
                catalogue.len()
            ));
        }
        // The spread is monotone in the interval length (clamped to at least 1 s), so
        // its two ends bound it.
        let spreads = [1.0, f64::INFINITY].map(|interval_s| state.noise.rel_std(interval_s));
        if spreads.iter().any(|std| !(std.is_finite() && *std >= 0.0)) {
            return Err(format!(
                "noise model {:?} has a relative spread outside [0, ∞) (from {} to {})",
                state.noise, spreads[0], spreads[1]
            ));
        }
        Ok(SimDatabase {
            catalogue,
            hardware: state.hardware,
            current_config: state.current_config,
            data_size_gib: state.data_size_gib,
            noise: state.noise,
            rng: state.rng,
            intervals_run: state.intervals_run,
            failures: state.failures,
            deterministic: state.deterministic,
            fault_plan: state.fault_plan,
        })
    }

    /// Evaluates a configuration *without* applying it or mutating any state (no noise, no
    /// data growth, no failure accounting). Used to compute ground-truth surfaces (Figure
    /// 10) and the "Best" reference line (Figure 11).
    pub fn peek(&self, config: &Configuration, workload: &WorkloadSpec) -> PerformanceOutcome {
        let mut effective = workload.clone();
        if let Some(size) = self.data_size_gib {
            effective.data_size_gib = size;
        }
        perfmodel::evaluate(&self.catalogue, config, &effective, &self.hardware).outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadMix;

    /// The full MySQL 5.7 catalogue on the paper's 8 vCPU / 16 GiB hardware.
    fn mysql57(seed: u64) -> SimDatabase {
        SimDatabase::with_catalogue(KnobCatalogue::mysql57(), HardwareSpec::default(), seed)
    }

    fn tpcc_like() -> WorkloadSpec {
        WorkloadSpec {
            name: "tpcc-like".into(),
            mix: WorkloadMix::new([0.26, 0.08, 0.0, 0.04, 0.27, 0.27, 0.08]),
            arrival_rate_qps: None,
            clients: 32,
            data_size_gib: 18.0,
            skew: 0.4,
            avg_rows_per_read: 15.0,
            avg_join_tables: 1.5,
            avg_selectivity: 0.1,
            index_coverage: 0.95,
        }
    }

    #[test]
    fn run_interval_produces_positive_throughput() {
        let mut db = mysql57(1);
        db.apply_dba_default();
        let eval = db.run_interval(&tpcc_like(), 180.0);
        assert!(!eval.outcome.failed);
        assert!(eval.outcome.throughput_tps > 0.0);
        assert_eq!(eval.interval_s, 180.0);
        assert_eq!(db.intervals_run, 1);
        assert_eq!(db.failures, 0);
    }

    #[test]
    fn data_grows_under_write_heavy_workload() {
        let mut db = mysql57(2);
        db.apply_dba_default();
        db.set_data_size(18.0);
        let wl = tpcc_like();
        for _ in 0..50 {
            db.run_interval(&wl, 180.0);
        }
        let size = db.data_size_gib().unwrap();
        assert!(size > 18.5, "data should grow, got {size}");
        // Growth over 400 intervals should land in the tens of GiB, not explode.
        assert!(size < 30.0, "growth too fast after 50 intervals: {size}");
    }

    #[test]
    fn read_only_workload_does_not_grow_data() {
        let mut db = mysql57(3);
        db.apply_dba_default();
        db.set_data_size(9.0);
        let mut wl = tpcc_like();
        wl.mix = WorkloadMix::new([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        db.run_interval(&wl, 180.0);
        assert!((db.data_size_gib().unwrap() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn failure_is_counted_and_returns_zero_throughput() {
        let mut db = mysql57(4);
        let cat = db.catalogue().clone();
        let mut bad = Configuration::dba_default(&cat);
        bad.set(
            &cat,
            "innodb_buffer_pool_size",
            15.0 * 1024.0 * 1024.0 * 1024.0,
        );
        bad.set(&cat, "sort_buffer_size", 256.0 * 1024.0 * 1024.0);
        bad.set(&cat, "join_buffer_size", 256.0 * 1024.0 * 1024.0);
        bad.set(&cat, "tmp_table_size", 1024.0 * 1024.0 * 1024.0);
        bad.set(&cat, "max_heap_table_size", 1024.0 * 1024.0 * 1024.0);
        db.apply_config(&bad);
        let eval = db.run_interval(&tpcc_like(), 180.0);
        assert!(eval.outcome.failed);
        assert_eq!(eval.outcome.throughput_tps, 0.0);
        assert_eq!(db.failures, 1);
    }

    #[test]
    fn deterministic_mode_is_reproducible_and_noise_mode_varies() {
        let wl = tpcc_like();
        let mut det = mysql57(7);
        det.set_deterministic(true);
        det.apply_dba_default();
        det.set_data_size(18.0);
        let a = det.run_interval(&wl, 180.0).outcome.throughput_tps;
        let mut det2 = mysql57(99);
        det2.set_deterministic(true);
        det2.apply_dba_default();
        det2.set_data_size(18.0);
        let b = det2.run_interval(&wl, 180.0).outcome.throughput_tps;
        assert_eq!(a, b);

        let mut noisy = mysql57(7);
        noisy.apply_dba_default();
        noisy.set_data_size(18.0);
        let mut values = Vec::new();
        for _ in 0..5 {
            let mut fresh = tpcc_like();
            fresh.data_size_gib = 18.0;
            values.push(noisy.run_interval(&fresh, 180.0).outcome.throughput_tps);
        }
        let spread = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - values.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread > 0.0, "noise should produce some spread");
    }

    #[test]
    fn peek_does_not_mutate_state() {
        let mut db = mysql57(5);
        db.apply_dba_default();
        db.set_data_size(18.0);
        let cat = db.catalogue().clone();
        let cfg = Configuration::vendor_default(&cat);
        let before_intervals = db.intervals_run;
        let before_size = db.data_size_gib();
        let outcome = db.peek(&cfg, &tpcc_like());
        assert!(outcome.throughput_tps > 0.0);
        assert_eq!(db.intervals_run, before_intervals);
        assert_eq!(db.data_size_gib(), before_size);
    }

    #[test]
    fn hardware_resize_changes_the_performance_model_immediately() {
        let mut db = mysql57(8);
        db.set_deterministic(true);
        db.apply_dba_default();
        db.set_data_size(18.0);
        let wl = tpcc_like();
        let small = db.peek(&db.current_config, &wl).throughput_tps;
        let mut bigger = db.hardware;
        bigger.vcpus *= 4;
        bigger.ram_gib *= 4.0;
        bigger.disk_iops *= 4.0;
        db.set_hardware(bigger);
        assert_eq!(db.hardware.vcpus, 32);
        let large = db.peek(&db.current_config, &wl).throughput_tps;
        assert!(
            large > small,
            "4x hardware must not slow the model down: {large} vs {small}"
        );
        // The resize survives a snapshot round-trip.
        let restored = SimDatabase::restore(db.snapshot()).unwrap();
        assert_eq!(restored.hardware, bigger);
    }

    #[test]
    fn scale_data_multiplies_the_tracked_size_and_ignores_untracked() {
        let mut db = mysql57(9);
        db.scale_data(2.0); // not tracked yet: no-op
        assert!(db.data_size_gib().is_none());
        db.set_data_size(10.0);
        db.scale_data(1.5);
        assert!((db.data_size_gib().unwrap() - 15.0).abs() < 1e-12);
        db.scale_data(0.0); // clamped to the minimum tracked size, never negative
        assert!(db.data_size_gib().unwrap() > 0.0);
    }

    #[test]
    fn injected_failure_destroys_the_interval_but_not_the_instance() {
        let mut db = mysql57(11);
        db.set_deterministic(true);
        db.apply_dba_default();
        db.set_data_size(18.0);
        let wl = tpcc_like();
        db.inject_faults(FaultKind::Failure, 1);
        let size_before = db.data_size_gib().unwrap();
        let faulted = db.run_interval(&wl, 180.0);
        assert_eq!(faulted.fault, Some(FaultKind::Failure));
        assert!(faulted.outcome.failed);
        assert_eq!(faulted.outcome.throughput_tps, 0.0);
        assert!(
            (db.data_size_gib().unwrap() - size_before).abs() < 1e-12,
            "a destroyed interval must not grow data"
        );
        assert_eq!(db.failures, 0, "injected faults are not organic failures");
        assert_eq!(db.fault_plan.injected, 1);
        // The next interval is clean again.
        let clean = db.run_interval(&wl, 180.0);
        assert_eq!(clean.fault, None);
        assert!(!clean.outcome.failed);
    }

    #[test]
    fn corrupting_faults_garble_only_the_report() {
        let wl = tpcc_like();
        let mut faulty = mysql57(12);
        faulty.set_deterministic(true);
        faulty.apply_dba_default();
        faulty.set_data_size(18.0);
        faulty.inject_faults(FaultKind::CorruptNan, 1);
        faulty.inject_faults(FaultKind::CorruptScale, 1);

        let mut clean = mysql57(12);
        clean.set_deterministic(true);
        clean.apply_dba_default();
        clean.set_data_size(18.0);

        let nan_eval = faulty.run_interval(&wl, 180.0);
        assert_eq!(nan_eval.fault, Some(FaultKind::CorruptNan));
        assert!(nan_eval.outcome.throughput_tps.is_nan());
        let scale_eval = faulty.run_interval(&wl, 180.0);
        assert_eq!(scale_eval.fault, Some(FaultKind::CorruptScale));
        assert!(scale_eval.outcome.throughput_tps.is_finite());

        clean.run_interval(&wl, 180.0);
        clean.run_interval(&wl, 180.0);
        // The true trajectory (data growth) is identical to the un-faulted twin.
        assert_eq!(faulty.data_size_gib(), clean.data_size_gib());
        assert!(faulty.data_size_gib().unwrap().is_finite());
    }

    #[test]
    fn fault_schedule_survives_a_snapshot_round_trip() {
        let wl = tpcc_like();
        let mut db = mysql57(13);
        db.apply_dba_default();
        db.set_data_size(18.0);
        db.inject_faults(FaultKind::Timeout, 2);
        db.inject_seeded_faults(FaultKind::CorruptNan, 0.5, 8, 99);
        db.run_interval(&wl, 180.0); // consume one scripted fault
        let mut twin = SimDatabase::restore(db.snapshot()).unwrap();
        for _ in 0..9 {
            let a = db.run_interval(&wl, 180.0);
            let b = twin.run_interval(&wl, 180.0);
            assert_eq!(a.fault, b.fault);
            assert_eq!(a.outcome.failed, b.outcome.failed);
        }
        assert_eq!(db.fault_plan.injected, twin.fault_plan.injected);
    }

    #[test]
    fn apply_config_sanitizes_values() {
        let mut db = mysql57(6);
        let cat = db.catalogue().clone();
        let mut crazy = Configuration::vendor_default(&cat);
        // Out-of-domain values must be clamped by apply_config.
        let values: Vec<f64> = crazy.values().iter().map(|_| 1e20).collect();
        crazy = Configuration::from_values(&cat, values);
        db.apply_config(&crazy);
        for (v, k) in db.current_config.values().iter().zip(cat.knobs()) {
            assert!(*v <= k.max());
        }
    }
}
