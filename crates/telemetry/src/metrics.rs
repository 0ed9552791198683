//! The metrics registry: fixed-identifier counters, gauges and fixed-bucket histograms.
//!
//! Every metric is addressed by a small `enum` discriminant rather than a string, so a
//! hot-path increment is one array index + one relaxed atomic add — no hashing, no
//! allocation, no lock. Names exist only at export time.
//!
//! # Determinism
//!
//! Histograms never accumulate floating-point state: a recorded duration lands in one of
//! a fixed set of integer buckets and is added to an integer nanosecond sum. Quantiles
//! are derived from the integer bucket counts by linear interpolation inside the
//! crossing bucket, so p50/p95/p99 are a pure function of the multiset of recorded
//! values — independent of recording order and of thread interleaving.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotone event counters. The order of variants is the export order; `ALL` and
/// `COUNT` must stay in sync with the variant list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum CounterId {
    /// Tenants admitted to the fleet (including scenario rejoins).
    TenantsAdmitted,
    /// Tenants removed from the fleet.
    TenantsRemoved,
    /// Tenants migrated across hardware classes (remove + warm rejoin).
    TenantsMigrated,
    /// Workload drifts applied to running sessions.
    DriftsApplied,
    /// In-place hardware resizes.
    HardwareResizes,
    /// Data-volume scale events (bulk load / purge).
    DataScales,
    /// Tuning iterations executed.
    Iterations,
    /// Iterations whose applied configuration scored below the safety baseline.
    UnsafeIterations,
    /// Candidates rejected by the black-box (GP lower bound) safety check.
    BlackboxRejections,
    /// Candidates rejected by the white-box rules.
    WhiteboxRejections,
    /// Iterations that fell back to re-applying the incumbent because the safety set
    /// was empty.
    SafetyFallbacks,
    /// Recommendations taken from the boundary-exploration branch.
    BoundaryExplorations,
    /// Incremental `observe` calls served by the O(n²) Cholesky extension.
    ObserveFastPath,
    /// `observe` calls that fell back to a full from-scratch refit.
    ObserveFullRefit,
    /// Factorizations that needed a jitter escalation to stay positive definite.
    JitterEscalations,
    /// Hyper-parameter re-optimization runs.
    HyperoptRuns,
    /// Hyperopt runs that improved the marginal likelihood over the incumbent.
    HyperoptImproved,
    /// Total likelihood evaluations spent across hyperopt runs.
    HyperoptEvaluations,
    /// Re-clusterings of the context space.
    Reclusters,
    /// Observations evicted by the per-model observation budget.
    BudgetEvictions,
    /// Admissions that found a non-empty knowledge pool to warm-start from.
    WarmStartHits,
    /// Admissions that found no knowledge for their (hardware, family) pool.
    WarmStartMisses,
    /// Safe configurations replayed into warm-started tuners.
    WarmStartSafeConfigs,
    /// Observations replayed into warm-started tuners.
    WarmStartObservations,
    /// Safe configurations evicted from knowledge pools.
    KbEvictedSafe,
    /// Observations evicted from knowledge pools.
    KbEvictedObservations,
    /// Contributions merged into the knowledge base.
    KbContributions,
    /// Fleet snapshots serialized.
    SnapshotsTaken,
    /// Fleet restores completed.
    RestoresCompleted,
    /// Measurement attempts that failed, timed out or returned a corrupted score
    /// (injected or organic).
    MeasurementFaults,
    /// Deterministic retry backoffs scheduled after a faulted measurement.
    FaultBackoffs,
    /// Sessions that exhausted their retry budget and entered quarantine.
    Quarantines,
    /// Probe iterations run by quarantined sessions (pinned last-safe configuration).
    ProbeIterations,
    /// Quarantined sessions readmitted after passing probation.
    Readmissions,
    /// Entries appended to a write-ahead observation journal.
    WalAppends,
    /// Torn or checksum-corrupt WAL tail entries detected and dropped during recovery.
    WalTornEntriesDropped,
    /// Rounds re-executed from the WAL during crash recovery.
    RecoveryReplays,
    /// Requests accepted into the serving front end's bounded queue.
    RequestsEnqueued,
    /// Queued requests dispatched to the fleet by the serving loop.
    RequestsDispatched,
    /// Queued requests shed under backpressure (in the fixed priority order).
    RequestsShed,
    /// Tenant admissions rejected by admission control (budget or ceiling).
    AdmissionRejections,
    /// Requests answered `DeadlineMissed` because their round budget expired.
    DeadlineMisses,
    /// Per-tenant degradation-tier downgrades under sustained pressure.
    TierDowngrades,
    /// Per-tenant degradation-tier upgrades after pressure lifted.
    TierUpgrades,
}

impl CounterId {
    /// Number of counters in the registry.
    pub const COUNT: usize = 44;

    /// All counters, in export order.
    pub const ALL: [CounterId; CounterId::COUNT] = [
        CounterId::TenantsAdmitted,
        CounterId::TenantsRemoved,
        CounterId::TenantsMigrated,
        CounterId::DriftsApplied,
        CounterId::HardwareResizes,
        CounterId::DataScales,
        CounterId::Iterations,
        CounterId::UnsafeIterations,
        CounterId::BlackboxRejections,
        CounterId::WhiteboxRejections,
        CounterId::SafetyFallbacks,
        CounterId::BoundaryExplorations,
        CounterId::ObserveFastPath,
        CounterId::ObserveFullRefit,
        CounterId::JitterEscalations,
        CounterId::HyperoptRuns,
        CounterId::HyperoptImproved,
        CounterId::HyperoptEvaluations,
        CounterId::Reclusters,
        CounterId::BudgetEvictions,
        CounterId::WarmStartHits,
        CounterId::WarmStartMisses,
        CounterId::WarmStartSafeConfigs,
        CounterId::WarmStartObservations,
        CounterId::KbEvictedSafe,
        CounterId::KbEvictedObservations,
        CounterId::KbContributions,
        CounterId::SnapshotsTaken,
        CounterId::RestoresCompleted,
        CounterId::MeasurementFaults,
        CounterId::FaultBackoffs,
        CounterId::Quarantines,
        CounterId::ProbeIterations,
        CounterId::Readmissions,
        CounterId::WalAppends,
        CounterId::WalTornEntriesDropped,
        CounterId::RecoveryReplays,
        CounterId::RequestsEnqueued,
        CounterId::RequestsDispatched,
        CounterId::RequestsShed,
        CounterId::AdmissionRejections,
        CounterId::DeadlineMisses,
        CounterId::TierDowngrades,
        CounterId::TierUpgrades,
    ];

    /// Stable export name (`snake_case`, used as the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            CounterId::TenantsAdmitted => "tenants_admitted",
            CounterId::TenantsRemoved => "tenants_removed",
            CounterId::TenantsMigrated => "tenants_migrated",
            CounterId::DriftsApplied => "drifts_applied",
            CounterId::HardwareResizes => "hardware_resizes",
            CounterId::DataScales => "data_scales",
            CounterId::Iterations => "iterations",
            CounterId::UnsafeIterations => "unsafe_iterations",
            CounterId::BlackboxRejections => "blackbox_rejections",
            CounterId::WhiteboxRejections => "whitebox_rejections",
            CounterId::SafetyFallbacks => "safety_fallbacks",
            CounterId::BoundaryExplorations => "boundary_explorations",
            CounterId::ObserveFastPath => "observe_fast_path",
            CounterId::ObserveFullRefit => "observe_full_refit",
            CounterId::JitterEscalations => "jitter_escalations",
            CounterId::HyperoptRuns => "hyperopt_runs",
            CounterId::HyperoptImproved => "hyperopt_improved",
            CounterId::HyperoptEvaluations => "hyperopt_evaluations",
            CounterId::Reclusters => "reclusters",
            CounterId::BudgetEvictions => "budget_evictions",
            CounterId::WarmStartHits => "warm_start_hits",
            CounterId::WarmStartMisses => "warm_start_misses",
            CounterId::WarmStartSafeConfigs => "warm_start_safe_configs",
            CounterId::WarmStartObservations => "warm_start_observations",
            CounterId::KbEvictedSafe => "kb_evicted_safe",
            CounterId::KbEvictedObservations => "kb_evicted_observations",
            CounterId::KbContributions => "kb_contributions",
            CounterId::SnapshotsTaken => "snapshots_taken",
            CounterId::RestoresCompleted => "restores_completed",
            CounterId::MeasurementFaults => "measurement_faults",
            CounterId::FaultBackoffs => "fault_backoffs",
            CounterId::Quarantines => "quarantines",
            CounterId::ProbeIterations => "probe_iterations",
            CounterId::Readmissions => "readmissions",
            CounterId::WalAppends => "wal_appends",
            CounterId::WalTornEntriesDropped => "wal_torn_entries_dropped",
            CounterId::RecoveryReplays => "recovery_replays",
            CounterId::RequestsEnqueued => "requests_enqueued",
            CounterId::RequestsDispatched => "requests_dispatched",
            CounterId::RequestsShed => "requests_shed",
            CounterId::AdmissionRejections => "admission_rejections",
            CounterId::DeadlineMisses => "deadline_misses",
            CounterId::TierDowngrades => "tier_downgrades",
            CounterId::TierUpgrades => "tier_upgrades",
        }
    }
}

/// Last-value gauges (stored as `f64` bits in an atomic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum GaugeId {
    /// Tenants currently in the fleet.
    Tenants,
    /// Iteration slots granted in the latest scheduling round.
    GrantedSlots,
    /// Pools currently in the knowledge base.
    KnowledgePools,
    /// Safety-set size of the latest suggestion.
    SafetySetSize,
    /// Per-cluster models maintained by the latest-updated tuner.
    ClusterModels,
    /// Observation count of the latest-updated model.
    ModelObservations,
    /// Requests currently waiting in the serving front end's bounded queue.
    QueueDepth,
    /// Tenants currently running below the `Full` degradation tier.
    DegradedTenants,
}

impl GaugeId {
    /// Number of gauges in the registry.
    pub const COUNT: usize = 8;

    /// All gauges, in export order.
    pub const ALL: [GaugeId; GaugeId::COUNT] = [
        GaugeId::Tenants,
        GaugeId::GrantedSlots,
        GaugeId::KnowledgePools,
        GaugeId::SafetySetSize,
        GaugeId::ClusterModels,
        GaugeId::ModelObservations,
        GaugeId::QueueDepth,
        GaugeId::DegradedTenants,
    ];

    /// Stable export name.
    pub fn name(self) -> &'static str {
        match self {
            GaugeId::Tenants => "tenants",
            GaugeId::GrantedSlots => "granted_slots",
            GaugeId::KnowledgePools => "knowledge_pools",
            GaugeId::SafetySetSize => "safety_set_size",
            GaugeId::ClusterModels => "cluster_models",
            GaugeId::ModelObservations => "model_observations",
            GaugeId::QueueDepth => "queue_depth",
            GaugeId::DegradedTenants => "degraded_tenants",
        }
    }
}

/// Duration histograms fed by span timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum SpanId {
    /// One full tenant tuning iteration (suggest + simulated interval + observe).
    Iteration,
    /// The tuner's suggest path.
    Suggest,
    /// The tuner's observe / model-update path.
    Observe,
    /// One fleet scheduling round (plan + parallel sessions + merge).
    Round,
    /// One hyper-parameter re-optimization.
    Hyperopt,
    /// Suggest stage: routing the context to its per-cluster model (Table A1).
    ModelSelection,
    /// Suggest stage: adapting and discretizing the configuration subspace (Table A1).
    SubspaceAdaptation,
    /// Suggest stage: the black-box and white-box checks over every candidate (Table A1).
    SafetyAssessment,
    /// Suggest stage: choosing the recommendation from the safety set (Table A1).
    CandidateSelection,
}

impl SpanId {
    /// Number of span histograms in the registry.
    pub const COUNT: usize = 9;

    /// All spans, in export order.
    pub const ALL: [SpanId; SpanId::COUNT] = [
        SpanId::Iteration,
        SpanId::Suggest,
        SpanId::Observe,
        SpanId::Round,
        SpanId::Hyperopt,
        SpanId::ModelSelection,
        SpanId::SubspaceAdaptation,
        SpanId::SafetyAssessment,
        SpanId::CandidateSelection,
    ];

    /// Stable export name.
    pub fn name(self) -> &'static str {
        match self {
            SpanId::Iteration => "iteration",
            SpanId::Suggest => "suggest",
            SpanId::Observe => "observe",
            SpanId::Round => "round",
            SpanId::Hyperopt => "hyperopt",
            SpanId::ModelSelection => "model_selection",
            SpanId::SubspaceAdaptation => "subspace_adaptation",
            SpanId::SafetyAssessment => "safety_assessment",
            SpanId::CandidateSelection => "candidate_selection",
        }
    }
}

/// Upper bounds (inclusive, nanoseconds) of the fixed histogram buckets: a 1-2-5 ladder
/// from 1 µs to 100 s. One implicit overflow bucket sits above the last bound.
pub const BUCKET_BOUNDS_NANOS: [u64; 25] = [
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    20_000_000,
    50_000_000,
    100_000_000,
    200_000_000,
    500_000_000,
    1_000_000_000,
    2_000_000_000,
    5_000_000_000,
    10_000_000_000,
    20_000_000_000,
    50_000_000_000,
    100_000_000_000,
];

/// Bucket count including the overflow bucket.
pub const BUCKETS: usize = BUCKET_BOUNDS_NANOS.len() + 1;

/// A fixed-bucket duration histogram over integer nanoseconds.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_nanos: AtomicU64,
    min_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

/// Index of the bucket a value falls into (binary search over the fixed bounds).
fn bucket_index(nanos: u64) -> usize {
    BUCKET_BOUNDS_NANOS.partition_point(|&bound| bound < nanos)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            min_nanos: AtomicU64::new(u64::MAX),
            max_nanos: AtomicU64::new(0),
        }
    }

    /// Records one duration.
    pub fn record(&self, nanos: u64) {
        self.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.min_nanos.fetch_min(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(self.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum_nanos: self.sum_nanos.load(Ordering::Relaxed),
            min_nanos: self.min_nanos.load(Ordering::Relaxed),
            max_nanos: self.max_nanos.load(Ordering::Relaxed),
        }
    }

    /// Moves this histogram's contents into `target`, leaving this one empty.
    pub fn drain_into(&self, target: &Histogram) {
        for (src, dst) in self.buckets.iter().zip(target.buckets.iter()) {
            let moved = src.swap(0, Ordering::Relaxed);
            if moved > 0 {
                dst.fetch_add(moved, Ordering::Relaxed);
            }
        }
        target
            .count
            .fetch_add(self.count.swap(0, Ordering::Relaxed), Ordering::Relaxed);
        target
            .sum_nanos
            .fetch_add(self.sum_nanos.swap(0, Ordering::Relaxed), Ordering::Relaxed);
        let min = self.min_nanos.swap(u64::MAX, Ordering::Relaxed);
        target.min_nanos.fetch_min(min, Ordering::Relaxed);
        let max = self.max_nanos.swap(0, Ordering::Relaxed);
        target.max_nanos.fetch_max(max, Ordering::Relaxed);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// An immutable copy of a [`Histogram`]; quantiles and merges operate on this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (last slot is the overflow bucket).
    pub buckets: [u64; BUCKETS],
    /// Total recorded values.
    pub count: u64,
    /// Integer sum of all recorded nanoseconds.
    pub sum_nanos: u64,
    /// Smallest recorded value (`u64::MAX` when empty).
    pub min_nanos: u64,
    /// Largest recorded value (0 when empty).
    pub max_nanos: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum_nanos: 0,
            min_nanos: u64::MAX,
            max_nanos: 0,
        }
    }

    /// Adds another snapshot's contents into this one (integer adds — order-independent).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (slot, v) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *slot += v;
        }
        self.count += other.count;
        self.sum_nanos += other.sum_nanos;
        self.min_nanos = self.min_nanos.min(other.min_nanos);
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) in nanoseconds, by linear interpolation inside
    /// the bucket the quantile rank falls into. Returns 0 for an empty histogram. The
    /// result is a pure function of the integer bucket counts.
    pub fn quantile_nanos(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the target observation.
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if cumulative + n >= rank {
                let lower = if i == 0 {
                    0
                } else {
                    BUCKET_BOUNDS_NANOS[i - 1]
                };
                let upper = if i < BUCKET_BOUNDS_NANOS.len() {
                    BUCKET_BOUNDS_NANOS[i]
                } else {
                    // Overflow bucket: clamp interpolation to the recorded maximum.
                    self.max_nanos.max(lower)
                };
                let within = (rank - cumulative) as f64 / n as f64;
                return lower as f64 + (upper - lower) as f64 * within;
            }
            cumulative += n;
        }
        self.max_nanos as f64
    }

    /// The `q`-quantile in milliseconds.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.quantile_nanos(q) / 1e6
    }

    /// Mean recorded duration in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_nanos as f64 / self.count as f64 / 1e6
        }
    }
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

/// A point-in-time copy of a whole registry: every counter, gauge and histogram.
/// Snapshots merge by integer addition, so fleet-level aggregates over per-tenant
/// registries are independent of merge order.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    counters: [u64; CounterId::COUNT],
    gauges: [f64; GaugeId::COUNT],
    histograms: [HistogramSnapshot; SpanId::COUNT],
}

impl MetricsSnapshot {
    /// An all-zero snapshot.
    pub fn empty() -> Self {
        MetricsSnapshot {
            counters: [0; CounterId::COUNT],
            gauges: [0.0; GaugeId::COUNT],
            histograms: std::array::from_fn(|_| HistogramSnapshot::empty()),
        }
    }

    pub(crate) fn from_parts(
        counters: [u64; CounterId::COUNT],
        gauges: [f64; GaugeId::COUNT],
        histograms: [HistogramSnapshot; SpanId::COUNT],
    ) -> Self {
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// The value of one counter.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id as usize]
    }

    /// The value of one gauge.
    pub fn gauge(&self, id: GaugeId) -> f64 {
        self.gauges[id as usize]
    }

    /// The histogram recorded for one span.
    pub fn histogram(&self, id: SpanId) -> &HistogramSnapshot {
        &self.histograms[id as usize]
    }

    /// Adds `other` into this snapshot: counters and histogram buckets add; gauges take
    /// the other snapshot's value when this one's is unset (zero).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (slot, v) in self.counters.iter_mut().zip(other.counters.iter()) {
            *slot += v;
        }
        for (slot, v) in self.gauges.iter_mut().zip(other.gauges.iter()) {
            if *slot == 0.0 {
                *slot = *v;
            }
        }
        for (slot, v) in self.histograms.iter_mut().zip(other.histograms.iter()) {
            slot.merge(v);
        }
    }

    /// Serializes the full registry as deterministic JSON: keys in declaration order,
    /// integer bucket counts verbatim. Hand-rolled so the telemetry crate stays
    /// dependency-free.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\"counters\":{");
        for (i, id) in CounterId::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", id.name(), self.counter(*id)));
        }
        out.push_str("},\"gauges\":{");
        for (i, id) in GaugeId::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", id.name(), json_f64(self.gauge(*id))));
        }
        out.push_str("},\"histograms\":{");
        for (i, id) in SpanId::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let h = self.histogram(*id);
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum_nanos\":{},\"min_nanos\":{},\"max_nanos\":{},\
                 \"p50_ms\":{},\"p95_ms\":{},\"p99_ms\":{},\"buckets\":[",
                id.name(),
                h.count,
                h.sum_nanos,
                if h.count == 0 { 0 } else { h.min_nanos },
                h.max_nanos,
                json_f64(h.quantile_ms(0.50)),
                json_f64(h.quantile_ms(0.95)),
                json_f64(h.quantile_ms(0.99)),
            ));
            for (j, n) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&n.to_string());
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

/// Formats an `f64` for JSON (finite shortest-roundtrip; non-finite becomes `null`).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_respects_inclusive_bounds() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1_000), 0);
        assert_eq!(bucket_index(1_001), 1);
        assert_eq!(bucket_index(100_000_000_000), BUCKETS - 2);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_are_order_independent() {
        let a = Histogram::new();
        let b = Histogram::new();
        let values = [3_000u64, 150_000, 7_000, 900, 45_000, 3_000, 600_000];
        for v in values {
            a.record(v);
        }
        for v in values.iter().rev() {
            b.record(*v);
        }
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn quantile_interpolates_within_the_crossing_bucket() {
        let h = Histogram::new();
        // 4 values all in the (1000, 2000] bucket.
        for v in [1_200u64, 1_400, 1_600, 1_800] {
            h.record(v);
        }
        let snap = h.snapshot();
        // p50 → rank 2 of 4 in a bucket spanning 1000..2000 → 1000 + 1000 * 2/4.
        assert_eq!(snap.quantile_nanos(0.5), 1_500.0);
        assert_eq!(snap.quantile_nanos(1.0), 2_000.0);
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum_nanos, 6_000);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.quantile_nanos(0.99), 0.0);
        assert_eq!(snap.mean_ms(), 0.0);
    }

    #[test]
    fn overflow_bucket_interpolates_toward_the_recorded_max() {
        let h = Histogram::new();
        h.record(200_000_000_000); // above the last bound
        let snap = h.snapshot();
        assert_eq!(snap.quantile_nanos(1.0), 200_000_000_000.0);
    }

    #[test]
    fn drain_moves_everything_and_resets_the_source() {
        let src = Histogram::new();
        let dst = Histogram::new();
        src.record(5_000);
        src.record(70_000);
        src.drain_into(&dst);
        assert_eq!(src.snapshot().count, 0);
        let d = dst.snapshot();
        assert_eq!(d.count, 2);
        assert_eq!(d.sum_nanos, 75_000);
        assert_eq!(d.min_nanos, 5_000);
        assert_eq!(d.max_nanos, 70_000);
    }

    #[test]
    fn snapshot_merge_is_commutative() {
        let h1 = Histogram::new();
        h1.record(3_000);
        let h2 = Histogram::new();
        h2.record(80_000);
        h2.record(900);
        let (s1, s2) = (h1.snapshot(), h2.snapshot());
        let mut ab = s1.clone();
        ab.merge(&s2);
        let mut ba = s2.clone();
        ba.merge(&s1);
        assert_eq!(ab, ba);
        assert_eq!(ab.count, 3);
    }

    #[test]
    fn registry_json_is_deterministic_and_complete() {
        let mut snap = MetricsSnapshot::empty();
        snap.counters[CounterId::Iterations as usize] = 7;
        let json = snap.to_json();
        assert_eq!(json, snap.to_json());
        assert!(json.contains("\"iterations\":7"));
        for id in CounterId::ALL {
            assert!(json.contains(id.name()));
        }
        for id in SpanId::ALL {
            assert!(json.contains(id.name()));
        }
    }

    #[test]
    fn enum_tables_are_consistent() {
        for (i, id) in CounterId::ALL.iter().enumerate() {
            assert_eq!(*id as usize, i);
        }
        for (i, id) in GaugeId::ALL.iter().enumerate() {
            assert_eq!(*id as usize, i);
        }
        for (i, id) in SpanId::ALL.iter().enumerate() {
            assert_eq!(*id as usize, i);
        }
    }
}
