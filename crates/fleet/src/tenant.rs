//! One tenant of the fleet: a steppable tuning session over a simulated instance.
//!
//! [`TenantSession`] is the unit the scheduler operates on. It owns one `OnlineTune`
//! tuner, one `SimDatabase` instance and one workload generator, and advances one
//! suggest→apply→observe iteration per [`TenantSession::step`] call, so many tenants can
//! be interleaved on a worker pool. Every stochastic component is seeded from the
//! [`TenantSpec`], and the complete dynamic state is exportable as a
//! [`TenantSessionState`], so a restored session continues bit-identically.

use crate::interval::{Interval, Measurement};
use featurize::ContextFeaturizer;
use gp::rows::{RowInterner, SharedConfig, SharedObservation};
use onlinetune::tuner::OnlineTuneState;
use onlinetune::{OnlineTune, OnlineTuneOptions};
use simdb::instance::SimDatabaseState;
use simdb::{Configuration, HardwareSpec, SimDatabase, WorkloadSpec};
use std::collections::VecDeque;
use telemetry::{CounterId, EventKind, SpanId, TelemetryHandle};
use workloads::cycle::TransactionalAnalyticalCycle;
use workloads::job::JobWorkload;
use workloads::realworld::RealWorldWorkload;
use workloads::tpcc::TpccWorkload;
use workloads::twitter::TwitterWorkload;
use workloads::ycsb::YcsbWorkload;
use workloads::{Objective, WorkloadGenerator};

/// Window (iterations) over which the scheduler's "recent regret" signal is averaged.
const REGRET_WINDOW: usize = 16;

/// Cap on safe configurations / observations queued for the knowledge base between
/// collection points.
const MAX_PENDING_CONTRIBUTIONS: usize = 64;

/// The workload family a tenant runs — the fleet-level coordinate used (together with the
/// hardware class) to decide which tenants can share knowledge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum WorkloadFamily {
    /// YCSB with a shifting read/write mix (the paper's 5-knob case-study workload).
    Ycsb,
    /// Dynamic TPC-C (write-heavy OLTP, growing data).
    Tpcc,
    /// Dynamic Twitter (read-heavy, skewed).
    Twitter,
    /// Dynamic JOB (analytical multi-join).
    Job,
    /// Alternating transactional/analytical cycle.
    Cycle,
    /// Diurnal real-world trace.
    RealWorld,
}

impl WorkloadFamily {
    /// All families, in a fixed order (used to spread mixed fleets deterministically).
    pub const ALL: [WorkloadFamily; 6] = [
        WorkloadFamily::Ycsb,
        WorkloadFamily::Tpcc,
        WorkloadFamily::Twitter,
        WorkloadFamily::Job,
        WorkloadFamily::Cycle,
        WorkloadFamily::RealWorld,
    ];

    /// Builds the family's workload generator with the given seed.
    pub fn build(self, seed: u64) -> Box<dyn WorkloadGenerator> {
        match self {
            WorkloadFamily::Ycsb => Box::new(YcsbWorkload::new(seed)),
            WorkloadFamily::Tpcc => Box::new(TpccWorkload::new_dynamic(seed)),
            WorkloadFamily::Twitter => Box::new(TwitterWorkload::new_dynamic(seed)),
            WorkloadFamily::Job => Box::new(JobWorkload::new_dynamic(seed)),
            WorkloadFamily::Cycle => Box::new(TransactionalAnalyticalCycle::new(seed)),
            WorkloadFamily::RealWorld => Box::new(RealWorldWorkload::new(seed)),
        }
    }

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadFamily::Ycsb => "ycsb",
            WorkloadFamily::Tpcc => "tpcc",
            WorkloadFamily::Twitter => "twitter",
            WorkloadFamily::Job => "job",
            WorkloadFamily::Cycle => "cycle",
            WorkloadFamily::RealWorld => "realworld",
        }
    }
}

/// A serializable workload-drift transform applied on top of a tenant's base family.
///
/// Iteration fields are absolute positions in the *tenant's* iteration stream. The
/// drifts a tenant has accumulated live in its [`TenantSpec`], oldest first, and are the
/// only representation of its drift: [`TenantSpec::build_generator`] applies them as pure
/// functions of the iteration index, so a snapshot-restored session rebuilds the exact
/// same workload stream. A family drift ([`Self::FamilySwitch`],
/// [`Self::PeriodicFamilies`]) runs another family in place of the workload beneath it
/// ([`Self::family_at`]); a load or data drift reshapes the spec of whatever runs
/// beneath it ([`Self::apply`]).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum WorkloadDrift {
    /// Gradual load ramp: scale clients/arrival rate from `from_scale` to `to_scale`
    /// over the `[start, start + over]` iteration window.
    RateRamp {
        /// First iteration of the ramp.
        start: usize,
        /// Ramp length in iterations (0 = step change).
        over: usize,
        /// Scale factor before the ramp.
        from_scale: f64,
        /// Scale factor after the ramp.
        to_scale: f64,
    },
    /// Abrupt switch to another workload family at iteration `at`.
    FamilySwitch {
        /// First iteration served by the new family.
        at: usize,
        /// The family switched to.
        to: WorkloadFamily,
    },
    /// Periodic alternation between the current workload and another family; phases are
    /// anchored at iteration 0 of the tenant's stream.
    PeriodicFamilies {
        /// Phase length in iterations (0 is treated as 1).
        period: usize,
        /// The family alternated with.
        other: WorkloadFamily,
    },
    /// Smooth day/night load cycle: scale oscillates as
    /// `1 + amplitude·sin(2π·(iteration − anchor)/period)`.
    Diurnal {
        /// Cycle length in iterations (0 is treated as 1).
        period: usize,
        /// Oscillation amplitude (clamped to `[0, 0.95]`, so the load never vanishes).
        amplitude: f64,
        /// Iteration at which the cycle starts (phase anchor).
        anchor: usize,
    },
    /// Flash crowd: load spikes to `peak`× at `at`, then decays exponentially back to
    /// baseline with the given half-life: the scale is
    /// `1 + (peak − 1)·2^(−(iteration − at)/half_life)` from `at` on.
    FlashCrowd {
        /// Iteration of the spike.
        at: usize,
        /// Peak load multiplier (clamped to `≥ 1`).
        peak: f64,
        /// Decay half-life in iterations (0 is treated as 1).
        half_life: usize,
    },
    /// Gradual data-skew growth: access skew drifts to `to_skew` and the data volume
    /// grows by `data_factor`, linearly over `[start, start + over]`.
    SkewGrowth {
        /// First iteration of the growth window.
        start: usize,
        /// Window length in iterations (0 = step change).
        over: usize,
        /// Target access skew (clamped to `[0, 1]`).
        to_skew: f64,
        /// Final data-volume multiplier (clamped to `≥ 0.01`: a shrink is allowed,
        /// vanishing data is not).
        data_factor: f64,
    },
}

impl WorkloadDrift {
    /// Shifts the drift's iteration anchors forward by `offset`. Scenario events carry
    /// drift positions relative to "now"; the session anchors them to its current
    /// iteration before storing them in the spec, so the spec always holds absolute
    /// positions. `PeriodicFamilies` has no anchor and is returned unchanged.
    pub fn anchored_at(self, offset: usize) -> WorkloadDrift {
        match self {
            WorkloadDrift::RateRamp {
                start,
                over,
                from_scale,
                to_scale,
            } => WorkloadDrift::RateRamp {
                start: start + offset,
                over,
                from_scale,
                to_scale,
            },
            WorkloadDrift::FamilySwitch { at, to } => WorkloadDrift::FamilySwitch {
                at: at + offset,
                to,
            },
            periodic @ WorkloadDrift::PeriodicFamilies { .. } => periodic,
            WorkloadDrift::Diurnal {
                period,
                amplitude,
                anchor,
            } => WorkloadDrift::Diurnal {
                period,
                amplitude,
                anchor: anchor + offset,
            },
            WorkloadDrift::FlashCrowd {
                at,
                peak,
                half_life,
            } => WorkloadDrift::FlashCrowd {
                at: at + offset,
                peak,
                half_life,
            },
            WorkloadDrift::SkewGrowth {
                start,
                over,
                to_skew,
                data_factor,
            } => WorkloadDrift::SkewGrowth {
                start: start + offset,
                over,
                to_skew,
                data_factor,
            },
        }
    }

    /// The family this drift runs in place of the workload beneath it at `iteration`:
    /// a `FamilySwitch` from its anchor on, a `PeriodicFamilies` in its odd phases.
    /// `None` when the workload beneath runs, which is always the case for a load or
    /// data drift.
    pub fn family_at(&self, iteration: usize) -> Option<WorkloadFamily> {
        match *self {
            WorkloadDrift::FamilySwitch { at, to } => (iteration >= at).then_some(to),
            WorkloadDrift::PeriodicFamilies { period, other } => {
                (!(iteration / period.max(1)).is_multiple_of(2)).then_some(other)
            }
            _ => None,
        }
    }

    /// Applies a load or data drift to `spec`, the workload running beneath it at
    /// `iteration`; a family drift leaves it unchanged. Load drifts scale the client
    /// count (never below one client) and the arrival rate; `SkewGrowth` moves the skew
    /// and the data volume.
    pub fn apply(&self, iteration: usize, spec: &mut WorkloadSpec) {
        // Progress through a `[start, start + over]` window: 0 before, 1 after.
        let progress = |start: usize, over: usize| {
            if iteration < start {
                0.0
            } else if over == 0 {
                1.0
            } else {
                ((iteration - start) as f64 / over as f64).min(1.0)
            }
        };
        let scale = match *self {
            WorkloadDrift::RateRamp {
                start,
                over,
                from_scale,
                to_scale,
            } => from_scale + (to_scale - from_scale) * progress(start, over),
            WorkloadDrift::Diurnal {
                period,
                amplitude,
                anchor,
            } => {
                let phase = (iteration as f64 - anchor as f64) / period.max(1) as f64
                    * std::f64::consts::TAU;
                1.0 + amplitude.clamp(0.0, 0.95) * phase.sin()
            }
            WorkloadDrift::FlashCrowd {
                at,
                peak,
                half_life,
            } => {
                if iteration < at {
                    1.0
                } else {
                    let decay = 0.5_f64.powf((iteration - at) as f64 / half_life.max(1) as f64);
                    1.0 + (peak.max(1.0) - 1.0) * decay
                }
            }
            WorkloadDrift::SkewGrowth {
                start,
                over,
                to_skew,
                data_factor,
            } => {
                let p = progress(start, over);
                spec.skew = (spec.skew + (to_skew.clamp(0.0, 1.0) - spec.skew) * p).clamp(0.0, 1.0);
                spec.data_size_gib *= 1.0 + (data_factor.max(0.01) - 1.0) * p;
                return;
            }
            WorkloadDrift::FamilySwitch { .. } | WorkloadDrift::PeriodicFamilies { .. } => return,
        };
        spec.clients = ((spec.clients as f64 * scale).round() as usize).max(1);
        spec.arrival_rate_qps = spec.arrival_rate_qps.map(|q| q * scale);
    }
}

/// The newest drift of a stack that runs a family in place of the workload beneath it
/// at `iteration`: its index and that family, or `None` while the base family runs.
/// [`TenantSpec::family_at`] and the tenant's generator both ask this, so the
/// knowledge-base key and the running workload cannot disagree.
fn running_family(drift: &[WorkloadDrift], iteration: usize) -> Option<(usize, WorkloadFamily)> {
    drift
        .iter()
        .enumerate()
        .rev()
        .find_map(|(i, d)| Some((i, d.family_at(iteration)?)))
}

/// Static description of a tenant: everything needed to (re)build its session apart from
/// the dynamic tuning state.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TenantSpec {
    /// Human-readable tenant name.
    pub name: String,
    /// Workload family the tenant runs.
    pub family: WorkloadFamily,
    /// Seed driving the tenant's tuner, instance noise and workload generator.
    pub seed: u64,
    /// Hardware of the tenant's instance.
    pub hardware: HardwareSpec,
    /// Tuning-interval length in seconds.
    pub interval_s: f64,
    /// Whether the instance's measurement noise is disabled (used by determinism tests).
    pub deterministic: bool,
    /// Drift transforms accumulated by scenario events, oldest first (absolute iteration
    /// anchors — see [`WorkloadDrift::anchored_at`]).
    pub drift: Vec<WorkloadDrift>,
}

impl TenantSpec {
    /// A spec with default hardware, a 180 s interval, noise enabled and no drift.
    pub fn named(name: impl Into<String>, family: WorkloadFamily, seed: u64) -> Self {
        TenantSpec {
            name: name.into(),
            family,
            seed,
            hardware: HardwareSpec::default(),
            interval_s: 180.0,
            deterministic: false,
            drift: Vec::new(),
        }
    }

    /// The workload family actually running at `iteration`: the newest family drift
    /// active there, else the base family. Knowledge-base contributions are keyed by
    /// this, not by the static base family — safe configurations proven under a
    /// switched-to workload must not leak into the original family's pool.
    pub fn family_at(&self, iteration: usize) -> WorkloadFamily {
        running_family(&self.drift, iteration).map_or(self.family, |(_, family)| family)
    }

    /// Builds the tenant's workload generator: the base family under the spec's drift
    /// stack. Deterministic: the switched-to family of the `i`-th drift derives its seed
    /// from the tenant seed and `i`, so two builds of the same spec (fresh admit vs
    /// snapshot restore) produce identical streams.
    pub fn build_generator(&self) -> Box<dyn WorkloadGenerator> {
        let families = self
            .drift
            .iter()
            .enumerate()
            .map(|(i, drift)| {
                let family = match drift {
                    WorkloadDrift::FamilySwitch { to, .. } => *to,
                    WorkloadDrift::PeriodicFamilies { other, .. } => *other,
                    _ => return None,
                };
                let seed = self
                    .seed
                    .wrapping_add(0x5EED_D81F_u64.wrapping_mul(i as u64 + 1));
                Some(family.build(seed))
            })
            .collect();
        Box::new(DriftedWorkload {
            base: self.family.build(self.seed),
            drift: self.drift.clone(),
            families,
        })
    }
}

/// A tenant's workload: its base family under its drift stack. At each iteration the
/// newest active family drift picks the running workload, and the load and data drifts
/// stacked after it apply to its spec, oldest first. The static objective and the
/// initial data size are the base family's.
struct DriftedWorkload {
    base: Box<dyn WorkloadGenerator>,
    drift: Vec<WorkloadDrift>,
    /// The switched-to generator of each family drift, by drift index (`None` for load
    /// and data drifts).
    families: Vec<Option<Box<dyn WorkloadGenerator>>>,
}

impl DriftedWorkload {
    /// The workload running at `iteration` and the drifts stacked over it.
    fn running(&self, iteration: usize) -> (&dyn WorkloadGenerator, &[WorkloadDrift]) {
        match running_family(&self.drift, iteration) {
            Some((i, _)) => (
                self.families[i]
                    .as_deref()
                    .expect("every family drift has a generator"),
                &self.drift[i + 1..],
            ),
            None => (self.base.as_ref(), &self.drift),
        }
    }
}

impl WorkloadGenerator for DriftedWorkload {
    fn name(&self) -> &str {
        self.base.name()
    }

    fn spec_at(&self, iteration: usize) -> WorkloadSpec {
        let (running, above) = self.running(iteration);
        let mut spec = running.spec_at(iteration);
        for drift in above {
            drift.apply(iteration, &mut spec);
        }
        spec
    }

    fn sample_queries(&self, iteration: usize, n: usize) -> Vec<String> {
        self.running(iteration).0.sample_queries(iteration, n)
    }

    fn objective(&self) -> Objective {
        self.base.objective()
    }

    fn objective_at(&self, iteration: usize) -> Objective {
        self.running(iteration).0.objective_at(iteration)
    }

    fn initial_data_size_gib(&self) -> f64 {
        self.base.initial_data_size_gib()
    }
}

/// Knowledge a session has produced since the last collection: safe configurations and
/// observations destined for the fleet knowledge base.
#[derive(Debug, Clone, Default)]
pub struct Contribution {
    /// Normalized configurations observed to be safe.
    pub safe_configs: Vec<SharedConfig>,
    /// `(context, config, performance)` observations.
    pub observations: Vec<SharedObservation>,
}

impl Contribution {
    /// Whether there is nothing to merge.
    pub fn is_empty(&self) -> bool {
        self.safe_configs.is_empty() && self.observations.is_empty()
    }
}

/// Summary statistics of one tenant, consumed by the scheduler and by reports.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TenantSummary {
    /// Tenant name.
    pub name: String,
    /// Workload family label.
    pub family: String,
    /// Iterations performed.
    pub iterations: usize,
    /// Total regret: `Σ max(0, reference score − achieved score)`.
    pub cumulative_regret: f64,
    /// Mean regret over the last few iterations (the scheduler's priority signal).
    pub recent_regret: f64,
    /// Recommendations that fell below the safety threshold.
    pub unsafe_count: usize,
    /// Sum of achieved objective scores.
    pub total_score: f64,
    /// Per-cluster models the tuner currently maintains.
    pub n_models: usize,
    /// Re-clusterings the tuner has performed (drift-triggered SVM re-routing).
    pub recluster_count: usize,
    /// Known-safe configurations received from the knowledge base at warm start.
    pub warm_start_safe: usize,
    /// Observations received from the knowledge base at warm start.
    pub warm_start_observations: usize,
    /// Fault-handling state at the time of the summary.
    #[serde(default)]
    pub health: SessionHealth,
    /// Lifetime faulted measurement attempts (a faulted attempt consumes a scheduler
    /// slot without advancing `iterations` — fairness accounting sums both).
    #[serde(default)]
    pub faulted_count: usize,
    /// Degradation tier at the time of the summary.
    #[serde(default)]
    pub tier: DegradationTier,
}

/// How much tuning work the serving layer currently allows this tenant per iteration.
///
/// The ladder is strictly ordered — each tier sheds more work than the one above it —
/// and the serving front end only ever moves a tenant one rung at a time, so tier
/// trajectories are monotone within one pressure window. The tier is part of the
/// session snapshot: a restored fleet resumes in the same degradation state.
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Default,
    serde::Serialize,
    serde::Deserialize,
)]
pub enum DegradationTier {
    /// Normal operation: suggest, measure, observe, periodic hyperopt refits.
    #[default]
    Full,
    /// Periodic hyper-parameter refits are suppressed (the one O(n³) step of the
    /// observe path); incremental observes continue.
    NoRefit,
    /// The posterior is frozen: suggest from the cached models and measure, but feed
    /// nothing back to the tuner.
    CachedPosterior,
    /// The tenant re-applies its last known-safe configuration (falling back to the
    /// reference) and only measures it; the tuner is bypassed entirely.
    Pinned,
}

impl DegradationTier {
    /// All tiers, from full service to deepest degradation.
    pub const ALL: [DegradationTier; 4] = [
        DegradationTier::Full,
        DegradationTier::NoRefit,
        DegradationTier::CachedPosterior,
        DegradationTier::Pinned,
    ];

    /// Stable export label.
    pub fn label(self) -> &'static str {
        match self {
            DegradationTier::Full => "full",
            DegradationTier::NoRefit => "no_refit",
            DegradationTier::CachedPosterior => "cached_posterior",
            DegradationTier::Pinned => "pinned",
        }
    }

    /// One rung further down the ladder (saturating at [`DegradationTier::Pinned`]).
    pub fn downgraded(self) -> DegradationTier {
        match self {
            DegradationTier::Full => DegradationTier::NoRefit,
            DegradationTier::NoRefit => DegradationTier::CachedPosterior,
            DegradationTier::CachedPosterior | DegradationTier::Pinned => DegradationTier::Pinned,
        }
    }

    /// One rung back toward full service (saturating at [`DegradationTier::Full`]).
    pub fn upgraded(self) -> DegradationTier {
        match self {
            DegradationTier::Full | DegradationTier::NoRefit => DegradationTier::Full,
            DegradationTier::CachedPosterior => DegradationTier::NoRefit,
            DegradationTier::Pinned => DegradationTier::CachedPosterior,
        }
    }
}

/// Where a session stands in the fault-handling state machine.
///
/// Transitions are driven exclusively by measurement outcomes and scheduler rounds —
/// no wall clock, no RNG — so a restored snapshot replays the exact same trajectory:
///
/// ```text
///            fault (attempt < max)                attempts exhausted
/// Healthy ──────────────────────▶ Backoff ─ ... ─▶ Quarantined
///    ▲   ◀──── backoff expires ─────┘                   │ ▲
///    │                                                  ▼ │ probe faults
///    └──────── `readmit_after` probe successes ──── probation
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub enum SessionHealth {
    /// Normal tuning; full scheduler participation.
    #[default]
    Healthy,
    /// A measurement faulted; the session sits out `remaining` scheduler rounds before
    /// retrying (exponential in the consecutive-fault attempt number).
    Backoff {
        /// Rounds left to sit out.
        remaining: usize,
        /// Which consecutive fault attempt produced this backoff (1-based).
        attempt: usize,
    },
    /// The retry budget is exhausted: the session pins its last known-safe
    /// configuration and only runs periodic probe iterations until probation passes.
    Quarantined {
        /// Rounds since the last probe ran (probes are due every
        /// [`RetryPolicy::probation_interval`] rounds).
        rounds_since_probe: usize,
        /// Consecutive successful probes; reaching [`RetryPolicy::readmit_after`]
        /// readmits the session.
        probation_successes: usize,
    },
}

/// Deterministic fault-handling knobs of one session. All quantities are measured in
/// scheduler rounds or attempt counts — never wall-clock time — which is what keeps
/// retry behavior inside the bit-identical replay contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RetryPolicy {
    /// Consecutive faulted attempts tolerated before quarantine.
    pub max_attempts: usize,
    /// Backoff after the first faulted attempt, in rounds; attempt `k` waits
    /// `backoff_base << (k-1)` rounds.
    pub backoff_base: usize,
    /// Upper bound on any single backoff, in rounds.
    pub backoff_cap: usize,
    /// Rounds between probe iterations while quarantined.
    pub probation_interval: usize,
    /// Consecutive successful probes required for readmission.
    pub readmit_after: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base: 1,
            backoff_cap: 8,
            probation_interval: 2,
            readmit_after: 2,
        }
    }
}

impl RetryPolicy {
    /// Backoff duration in rounds for the `attempt`-th consecutive fault (1-based).
    pub fn backoff_rounds(&self, attempt: usize) -> usize {
        let shift = attempt.saturating_sub(1).min(16);
        (self.backoff_base.max(1) << shift).min(self.backoff_cap.max(1))
    }
}

/// A running tuning session for one tenant.
pub struct TenantSession {
    spec: TenantSpec,
    tuner: OnlineTune,
    db: SimDatabase,
    featurizer: ContextFeaturizer,
    generator: Box<dyn WorkloadGenerator>,
    reference: Configuration,
    iteration: usize,
    cumulative_regret: f64,
    unsafe_count: usize,
    total_score: f64,
    recent_regret: VecDeque<f64>,
    pending: Contribution,
    warm_start_safe: usize,
    warm_start_observations: usize,
    health: SessionHealth,
    retry: RetryPolicy,
    /// Consecutive faulted measurement attempts (resets on any success).
    fault_attempts: usize,
    /// Total faulted measurement attempts over the session's lifetime.
    faulted_count: usize,
    /// Last configuration measured safe; quarantined probes pin this (falling back to
    /// the reference configuration before the first safe measurement).
    last_safe_config: Option<Configuration>,
    /// Serving-layer degradation tier; [`TenantSession::set_degradation`] keeps the
    /// tuner's hyperopt suppression in sync with it.
    tier: DegradationTier,
    /// Observability sink (runtime-only, never serialized): a child of the fleet's
    /// telemetry core, so the session can record from its worker thread without
    /// contending with other tenants. Read-only w.r.t. tuning state.
    telemetry: TelemetryHandle,
}

/// Serializable dynamic state of a [`TenantSession`] (plus its spec).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TenantSessionState {
    /// The tenant's static description.
    pub spec: TenantSpec,
    /// Full tuner state.
    pub tuner: OnlineTuneState,
    /// Full simulated-instance state.
    pub db: SimDatabaseState,
    /// Iterations performed.
    pub iteration: usize,
    /// Total regret so far.
    pub cumulative_regret: f64,
    /// Unsafe recommendations so far.
    pub unsafe_count: usize,
    /// Sum of achieved scores.
    pub total_score: f64,
    /// Recent per-iteration regrets (newest last).
    pub recent_regret: Vec<f64>,
    /// Known-safe configurations received at warm start (`default` keeps snapshots from
    /// before this field readable).
    #[serde(default)]
    pub warm_start_safe: usize,
    /// Observations received at warm start.
    #[serde(default)]
    pub warm_start_observations: usize,
    /// Fault-handling state (`default` keeps pre-fault-model snapshots readable).
    #[serde(default)]
    pub health: SessionHealth,
    /// Retry/backoff/quarantine policy.
    #[serde(default)]
    pub retry: RetryPolicy,
    /// Consecutive faulted attempts.
    #[serde(default)]
    pub fault_attempts: usize,
    /// Lifetime faulted attempts.
    #[serde(default)]
    pub faulted_count: usize,
    /// Pinned last known-safe configuration.
    #[serde(default)]
    pub last_safe_config: Option<Configuration>,
    /// Serving-layer degradation tier (`default` keeps pre-serving snapshots readable;
    /// restore re-applies the tuner's hyperopt suppression from it).
    #[serde(default)]
    pub tier: DegradationTier,
}

/// Why a measurement teaches nothing, if it does not: the injected fault that hit it, or
/// a non-finite score.
fn fault_kind(measured: &Measurement) -> Option<&'static str> {
    match measured.evaluation.fault {
        Some(fault) => Some(fault.name()),
        None => (!measured.score.is_finite()).then_some("non_finite_score"),
    }
}

impl TenantSession {
    /// Builds a fresh (cold) session for `spec` with the given tuner options.
    ///
    /// The tuner is seeded with one observation of the reference (DBA default)
    /// configuration, matching the paper's session harness. A spec whose workload
    /// produces a non-finite reference measurement or context (e.g. a drift stack with
    /// NaN parameters) cannot seed a session and yields a typed
    /// [`crate::error::FleetError::AdmissionDenied`] naming the tenant — never a panic.
    pub fn new(
        spec: TenantSpec,
        tuner_options: OnlineTuneOptions,
    ) -> Result<Self, crate::error::FleetError> {
        let catalogue = simdb::KnobCatalogue::mysql57();
        let featurizer = ContextFeaturizer::with_defaults();
        let generator = spec.build_generator();
        let reference = Configuration::dba_default(&catalogue);
        let mut db = SimDatabase::with_catalogue(catalogue.clone(), spec.hardware, spec.seed);
        db.set_data_size(generator.initial_data_size_gib());
        db.set_deterministic(spec.deterministic);
        let mut tuner = OnlineTune::new(
            catalogue,
            spec.hardware,
            featurizer.dim(),
            &reference,
            tuner_options,
            spec.seed,
        );

        // Seed with one observation of the reference configuration (cold-start fairness):
        // its score is τ of the first interval.
        let first = Interval::open(generator.as_ref(), &db, &reference, 0);
        let context0 = first.context(generator.as_ref(), &db, &featurizer);
        let score0 = first.threshold;
        if !score0.is_finite() || context0.iter().any(|v| !v.is_finite()) {
            return Err(crate::error::FleetError::AdmissionDenied {
                tenant: spec.name.clone(),
                reason: format!(
                    "reference measurement is non-finite at admission (score {score0}); \
                     the workload spec cannot seed a session"
                ),
            });
        }
        tuner
            .observe(&context0, &reference, score0, None, true)
            .map_err(|e| crate::error::FleetError::AdmissionDenied {
                tenant: spec.name.clone(),
                reason: format!("seeding the tuner with the reference observation failed: {e}"),
            })?;

        Ok(TenantSession {
            spec,
            tuner,
            db,
            featurizer,
            generator,
            reference,
            iteration: 0,
            cumulative_regret: 0.0,
            unsafe_count: 0,
            total_score: 0.0,
            recent_regret: VecDeque::with_capacity(REGRET_WINDOW),
            pending: Contribution::default(),
            warm_start_safe: 0,
            warm_start_observations: 0,
            health: SessionHealth::Healthy,
            retry: RetryPolicy::default(),
            fault_attempts: 0,
            faulted_count: 0,
            last_safe_config: None,
            tier: DegradationTier::Full,
            telemetry: TelemetryHandle::disabled(),
        })
    }

    /// The tenant's static description.
    pub fn spec(&self) -> &TenantSpec {
        &self.spec
    }

    /// Iterations performed so far.
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// Total regret accumulated so far.
    pub fn cumulative_regret(&self) -> f64 {
        self.cumulative_regret
    }

    /// Unsafe recommendations so far.
    pub fn unsafe_count(&self) -> usize {
        self.unsafe_count
    }

    /// Mean per-iteration regret over the recent window (0 when no iteration ran yet).
    pub fn recent_regret(&self) -> f64 {
        if self.recent_regret.is_empty() {
            return 0.0;
        }
        self.recent_regret.iter().sum::<f64>() / self.recent_regret.len() as f64
    }

    /// Number of per-cluster models the tuner currently maintains.
    pub fn model_count(&self) -> usize {
        self.tuner.model_count()
    }

    /// Observation counts of each per-cluster model the tuner maintains (see
    /// [`OnlineTune::model_observation_counts`]).
    pub fn model_observation_counts(&self) -> Vec<usize> {
        self.tuner.model_observation_counts()
    }

    /// Installs a child of the fleet's telemetry core into this session and its tuner.
    /// A disabled parent produces a disabled child, so the call is also how telemetry is
    /// turned *off*. Runtime-only: the handle is never part of [`TenantSessionState`].
    pub fn set_telemetry(&mut self, parent: &TelemetryHandle) {
        let child = parent.child();
        self.tuner.set_telemetry(child.clone());
        self.telemetry = child;
    }

    /// The session's telemetry sink (disabled unless the fleet installed one).
    pub fn telemetry(&self) -> &TelemetryHandle {
        &self.telemetry
    }

    /// Warm-starts the session from fleet knowledge: known-safe configurations join the
    /// tuner's safety set and transferred observations join its models. A model that
    /// fails to take them is a fault of the session, as a rejected observation is.
    pub fn warm_start(&mut self, warm: &crate::knowledge::WarmStart) {
        self.warm_start_safe += warm.safe_configs.len();
        self.warm_start_observations += warm.observations.len();
        self.tuner
            .extend_known_safe(warm.safe_configs.iter().cloned());
        if let Err(e) = self
            .tuner
            .absorb_observations(warm.observations.iter().cloned())
        {
            self.note_fault(&format!("warm_start_rejected: {e}"), f64::NAN);
        }
    }

    /// Applies a workload drift to the running session. The drift's iteration anchors are
    /// interpreted relative to "now" (the session's current iteration), stored absolutely
    /// in the spec, and the generator is rebuilt — so the change is part of every later
    /// snapshot and a restored session drifts identically.
    pub fn apply_drift(&mut self, drift: WorkloadDrift) {
        let anchored = drift.anchored_at(self.iteration);
        self.telemetry.incr(CounterId::DriftsApplied);
        if self.telemetry.is_enabled() {
            self.telemetry.event(
                EventKind::DriftApplied,
                &self.spec.name,
                &format!("iteration={} drift={anchored:?}", self.iteration),
            );
        }
        self.spec.drift.push(anchored);
        self.generator = self.spec.build_generator();
    }

    /// Resizes the tenant's instance in place: the simulated database's performance model
    /// and the tuner's white-box rules see the new hardware from the next iteration on,
    /// while the learned models keep their observations (the resulting performance shift
    /// surfaces as ordinary context/observation drift). Future knowledge-base
    /// contributions go to the new hardware class's pool.
    pub fn resize_hardware(&mut self, hardware: HardwareSpec) {
        self.telemetry.incr(CounterId::HardwareResizes);
        if self.telemetry.is_enabled() {
            self.telemetry.event(
                EventKind::Resize,
                &self.spec.name,
                &format!(
                    "iteration={} {} -> {}",
                    self.iteration,
                    crate::knowledge::PoolKey::hardware_class(&self.spec.hardware),
                    crate::knowledge::PoolKey::hardware_class(&hardware),
                ),
            );
        }
        self.spec.hardware = hardware;
        self.db.set_hardware(hardware);
        self.tuner.set_hardware(hardware);
    }

    /// Scales the instance's tracked data volume by `factor` (bulk load / purge).
    pub fn scale_data(&mut self, factor: f64) {
        self.telemetry.incr(CounterId::DataScales);
        if self.telemetry.is_enabled() {
            self.telemetry.event(
                EventKind::DataScaled,
                &self.spec.name,
                &format!("iteration={} factor={factor}", self.iteration),
            );
        }
        self.db.scale_data(factor);
    }

    /// The instance's tracked data volume, if any.
    pub fn data_size_gib(&self) -> Option<f64> {
        self.db.data_size_gib()
    }

    /// Sets the instance's tracked data volume (migration carries the data along).
    pub fn set_data_size(&mut self, gib: f64) {
        self.db.set_data_size(gib);
    }

    /// Runs one suggest→apply→observe iteration and returns the achieved regret.
    ///
    /// A faulted measurement (injected fault marker or non-finite score) feeds *nothing*
    /// to the tuner: the attempt does not advance the iteration counter (the retry will
    /// re-attempt the same workload position), increments the fault accounting and moves
    /// the session into [`SessionHealth::Backoff`] — or [`SessionHealth::Quarantined`]
    /// once the retry budget is exhausted. Quarantined sessions run probe iterations
    /// instead (see the health state machine on [`SessionHealth`]).
    pub fn step(&mut self) -> f64 {
        match self.health {
            SessionHealth::Healthy => {}
            // Defensive: the scheduler grants no slots during backoff, but a direct
            // caller must not bypass it.
            SessionHealth::Backoff { .. } => return 0.0,
            SessionHealth::Quarantined { .. } => return self.probe_step(),
        }
        if self.tier == DegradationTier::Pinned {
            return self.pinned_step();
        }
        let span = self.telemetry.begin_span();
        let interval = self.open_interval();
        let context = interval.context(self.generator.as_ref(), &self.db, &self.featurizer);
        let threshold = interval.threshold;

        // A drift stack with pathological parameters (NaN amplitudes, infinite scales)
        // can poison the workload position itself; the tuner must never see a non-finite
        // context or threshold. Treat it like any other faulted measurement — backoff,
        // then quarantine — so the session degrades instead of panicking.
        if !threshold.is_finite() || context.iter().any(|v| !v.is_finite()) {
            let kind = if threshold.is_finite() {
                "non_finite_context"
            } else {
                "non_finite_reference"
            };
            self.note_fault(kind, threshold);
            self.telemetry.end_span(SpanId::Iteration, span);
            return 0.0;
        }

        let suggestion = self
            .tuner
            .suggest(&context, threshold, interval.spec.clients);
        let measured = interval.measure(&mut self.db, &suggestion.config, self.spec.interval_s);
        let score = measured.score;
        if let Some(kind) = fault_kind(&measured) {
            self.note_fault(kind, score);
            self.telemetry.end_span(SpanId::Iteration, span);
            return 0.0;
        }
        self.fault_attempts = 0;
        let was_safe = measured.safe;
        if self.tier < DegradationTier::CachedPosterior {
            // Score and context were validated finite above, so a rejection here is a
            // contract break in the tuner — degrade like a faulted measurement rather
            // than panicking the worker thread.
            if let Err(e) = self.tuner.observe(
                &context,
                &suggestion.config,
                score,
                Some(&measured.evaluation.metrics),
                was_safe,
            ) {
                self.note_fault(&format!("observe_rejected: {e}"), score);
                self.telemetry.end_span(SpanId::Iteration, span);
                return 0.0;
            }
        }
        if was_safe {
            self.last_safe_config = Some(suggestion.config.clone());
        }
        let regret = self.record_interval(score, threshold, was_safe);

        // Queue fleet-knowledge contributions (bounded). They carry the suggested
        // configuration, which shares the row the tuner just stored only when it is
        // bit-identical to the applied one.
        let queue_safe = was_safe && self.pending.safe_configs.len() < MAX_PENDING_CONTRIBUTIONS;
        if queue_safe || self.pending.observations.len() < MAX_PENDING_CONTRIBUTIONS {
            let observation = match self.tuner.observations().last() {
                Some(last) if last.has_bits(&suggestion.normalized, &context) => {
                    let mut observation = last.clone();
                    observation.performance = score;
                    observation
                }
                _ => SharedObservation::new(&suggestion.normalized, &context, score),
            };
            if queue_safe {
                self.pending.safe_configs.push(observation.shared_config());
            }
            if self.pending.observations.len() < MAX_PENDING_CONTRIBUTIONS {
                self.pending.observations.push(observation);
            }
        }
        self.telemetry.end_span(SpanId::Iteration, span);
        regret
    }

    /// Accounts one measured interval: advances the iteration, adds its regret to the
    /// totals and the recent window, and counts it (as unsafe too when it was). Returns
    /// the interval's regret.
    fn record_interval(&mut self, score: f64, threshold: f64, was_safe: bool) -> f64 {
        let regret = (threshold - score).max(0.0);
        self.iteration += 1;
        self.cumulative_regret += regret;
        self.total_score += score;
        if self.recent_regret.len() == REGRET_WINDOW {
            self.recent_regret.pop_front();
        }
        self.recent_regret.push_back(regret);
        self.telemetry.incr(CounterId::Iterations);
        if !was_safe {
            self.unsafe_count += 1;
            self.telemetry.incr(CounterId::UnsafeIterations);
        }
        regret
    }

    /// Accounts one faulted measurement attempt and advances the health machine:
    /// backoff while attempts remain, quarantine once the budget is exhausted. `kind`
    /// names what faulted (an injected fault kind, a non-finite score/context, or a
    /// tuner rejection).
    fn note_fault(&mut self, kind: &str, score: f64) {
        self.faulted_count += 1;
        self.fault_attempts += 1;
        self.telemetry.incr(CounterId::MeasurementFaults);
        if self.telemetry.is_enabled() {
            self.telemetry.event(
                EventKind::MeasurementFault,
                &self.spec.name,
                &format!(
                    "iteration={} kind={kind} score={score} attempt={}",
                    self.iteration, self.fault_attempts
                ),
            );
        }
        if self.fault_attempts >= self.retry.max_attempts {
            self.health = SessionHealth::Quarantined {
                rounds_since_probe: 0,
                probation_successes: 0,
            };
            self.telemetry.incr(CounterId::Quarantines);
            if self.telemetry.is_enabled() {
                self.telemetry.event(
                    EventKind::TenantQuarantined,
                    &self.spec.name,
                    &format!(
                        "iteration={} after {} consecutive faults",
                        self.iteration, self.fault_attempts
                    ),
                );
            }
        } else {
            let remaining = self.retry.backoff_rounds(self.fault_attempts);
            self.health = SessionHealth::Backoff {
                remaining,
                attempt: self.fault_attempts,
            };
            self.telemetry.incr(CounterId::FaultBackoffs);
            if self.telemetry.is_enabled() {
                self.telemetry.event(
                    EventKind::BackoffStarted,
                    &self.spec.name,
                    &format!(
                        "iteration={} attempt={} rounds={remaining}",
                        self.iteration, self.fault_attempts
                    ),
                );
            }
        }
    }

    /// One iteration at the [`DegradationTier::Pinned`] tier: re-measure the last
    /// known-safe configuration (falling back to the reference) without consulting the
    /// tuner at all. Unlike a quarantine probe this is a normal scheduled iteration —
    /// faults feed the ordinary backoff machine and no probation bookkeeping runs.
    fn pinned_step(&mut self) -> f64 {
        let span = self.telemetry.begin_span();
        let (interval, measured) = self.measure_pinned();
        let (score, threshold) = (measured.score, interval.threshold);
        let fault = fault_kind(&measured);
        if fault.is_some() || !threshold.is_finite() {
            self.note_fault(fault.unwrap_or("non_finite_score"), score);
            self.telemetry.end_span(SpanId::Iteration, span);
            return 0.0;
        }
        self.fault_attempts = 0;
        if measured.safe {
            self.last_safe_config
                .get_or_insert_with(|| self.reference.clone());
        }
        let regret = self.record_interval(score, threshold, measured.safe);
        self.telemetry.end_span(SpanId::Iteration, span);
        regret
    }

    /// Opens the session's next interval.
    fn open_interval(&self) -> Interval {
        Interval::open(
            self.generator.as_ref(),
            &self.db,
            &self.reference,
            self.iteration,
        )
    }

    /// Measures the pinned configuration — the last one measured safe, else the
    /// reference — in the next interval, without featurizing or consulting the tuner.
    fn measure_pinned(&mut self) -> (Interval, Measurement) {
        let interval = self.open_interval();
        let config = self.last_safe_config.as_ref().unwrap_or(&self.reference);
        let measured = interval.measure(&mut self.db, config, self.spec.interval_s);
        (interval, measured)
    }

    /// One probation iteration of a quarantined session: measure the pinned last-safe
    /// configuration (falling back to the reference) without feeding the tuner. A
    /// successful probe advances probation; a faulted probe resets it.
    fn probe_step(&mut self) -> f64 {
        let SessionHealth::Quarantined {
            probation_successes,
            ..
        } = self.health
        else {
            return 0.0;
        };
        let span = self.telemetry.begin_span();
        let (interval, measured) = self.measure_pinned();
        let score = measured.score;
        self.telemetry.incr(CounterId::ProbeIterations);

        if let Some(kind) = fault_kind(&measured) {
            // A faulted probe resets probation but is not a new backoff escalation —
            // the session is already in the deepest degradation state.
            self.faulted_count += 1;
            self.telemetry.incr(CounterId::MeasurementFaults);
            if self.telemetry.is_enabled() {
                self.telemetry.event(
                    EventKind::MeasurementFault,
                    &self.spec.name,
                    &format!(
                        "iteration={} kind={kind} score={score} probe=true",
                        self.iteration
                    ),
                );
            }
            self.health = SessionHealth::Quarantined {
                rounds_since_probe: 0,
                probation_successes: 0,
            };
            self.telemetry.end_span(SpanId::Iteration, span);
            return 0.0;
        }

        // A clean probe is a real iteration of the pinned configuration: the workload
        // position advances and regret/safety accounting continue, but the tuner sees
        // nothing (quarantine means its suggestions are not trusted to run yet).
        let regret = self.record_interval(score, interval.threshold, measured.safe);

        let successes = probation_successes + 1;
        if successes >= self.retry.readmit_after.max(1) {
            self.health = SessionHealth::Healthy;
            self.fault_attempts = 0;
            self.telemetry.incr(CounterId::Readmissions);
            if self.telemetry.is_enabled() {
                self.telemetry.event(
                    EventKind::TenantReadmitted,
                    &self.spec.name,
                    &format!(
                        "iteration={} after {successes} clean probes",
                        self.iteration
                    ),
                );
            }
        } else {
            self.health = SessionHealth::Quarantined {
                rounds_since_probe: 0,
                probation_successes: successes,
            };
        }
        self.telemetry.end_span(SpanId::Iteration, span);
        regret
    }

    /// Advances round-based health counters; the fleet service calls this once per
    /// scheduler round for every tenant, after the round's steps ran.
    pub fn tick_round(&mut self) {
        match &mut self.health {
            SessionHealth::Healthy => {}
            SessionHealth::Backoff { remaining, .. } => {
                *remaining = remaining.saturating_sub(1);
                if *remaining == 0 {
                    self.health = SessionHealth::Healthy;
                }
            }
            SessionHealth::Quarantined {
                rounds_since_probe, ..
            } => {
                *rounds_since_probe += 1;
            }
        }
    }

    /// How the scheduler should treat this session next round.
    pub fn scheduling_class(&self) -> crate::scheduler::HealthClass {
        match self.health {
            SessionHealth::Healthy => crate::scheduler::HealthClass::Active,
            SessionHealth::Backoff { .. } => crate::scheduler::HealthClass::Suspended,
            SessionHealth::Quarantined {
                rounds_since_probe, ..
            } => {
                if rounds_since_probe >= self.retry.probation_interval.max(1) {
                    crate::scheduler::HealthClass::Probe
                } else {
                    crate::scheduler::HealthClass::Dormant
                }
            }
        }
    }

    /// Current fault-handling state.
    pub fn health(&self) -> SessionHealth {
        self.health
    }

    /// Installs a retry policy (the fleet service does this at admission so all
    /// sessions share the fleet-level policy).
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// The current degradation tier.
    pub fn degradation(&self) -> DegradationTier {
        self.tier
    }

    /// Moves the session to a degradation tier (serving-layer driven). Keeps the
    /// tuner's hyperopt suppression in sync and records the transition; setting the
    /// current tier is a no-op. Deterministic: the tier is part of the snapshot and
    /// restore re-applies the same suppression, so degraded fleets replay bit-identically.
    pub fn set_degradation(&mut self, tier: DegradationTier) {
        if tier == self.tier {
            return;
        }
        let from = self.tier;
        self.tier = tier;
        self.tuner
            .set_hyperopt_suppressed(tier >= DegradationTier::NoRefit);
        if tier > from {
            self.telemetry.incr(CounterId::TierDowngrades);
        } else {
            self.telemetry.incr(CounterId::TierUpgrades);
        }
        if self.telemetry.is_enabled() {
            self.telemetry.event(
                EventKind::TierChanged,
                &self.spec.name,
                &format!(
                    "iteration={} {} -> {}",
                    self.iteration,
                    from.label(),
                    tier.label()
                ),
            );
        }
    }

    /// Schedules `count` injected measurement faults of `kind` starting with the next
    /// measurement (scenario-scripted).
    pub fn inject_faults(&mut self, kind: simdb::FaultKind, count: usize) {
        self.db.inject_faults(kind, count);
    }

    /// Opens a seeded probabilistic fault window over the next `intervals` measurements.
    pub fn inject_seeded_faults(
        &mut self,
        kind: simdb::FaultKind,
        rate: f64,
        intervals: usize,
        seed: u64,
    ) {
        self.db.inject_seeded_faults(kind, rate, intervals, seed);
    }

    /// Takes the knowledge queued since the last collection.
    pub fn drain_contribution(&mut self) -> Contribution {
        std::mem::take(&mut self.pending)
    }

    /// Summary statistics for scheduling and reporting.
    pub fn summary(&self) -> TenantSummary {
        TenantSummary {
            name: self.spec.name.clone(),
            family: self.spec.family.label().to_string(),
            iterations: self.iteration,
            cumulative_regret: self.cumulative_regret,
            recent_regret: self.recent_regret(),
            unsafe_count: self.unsafe_count,
            total_score: self.total_score,
            n_models: self.tuner.model_count(),
            recluster_count: self.tuner.recluster_count(),
            warm_start_safe: self.warm_start_safe,
            warm_start_observations: self.warm_start_observations,
            health: self.health,
            faulted_count: self.faulted_count,
            tier: self.tier,
        }
    }

    /// Exports the complete session state. Pending knowledge contributions are *not* part
    /// of the snapshot; collect them with [`TenantSession::drain_contribution`] first (the
    /// fleet service does this at the end of every round).
    pub fn export_state(&self) -> TenantSessionState {
        TenantSessionState {
            spec: self.spec.clone(),
            tuner: self.tuner.snapshot(),
            db: self.db.snapshot(),
            iteration: self.iteration,
            cumulative_regret: self.cumulative_regret,
            unsafe_count: self.unsafe_count,
            total_score: self.total_score,
            recent_regret: self.recent_regret.iter().copied().collect(),
            warm_start_safe: self.warm_start_safe,
            warm_start_observations: self.warm_start_observations,
            health: self.health,
            retry: self.retry,
            fault_attempts: self.fault_attempts,
            faulted_count: self.faulted_count,
            last_safe_config: self.last_safe_config.clone(),
            tier: self.tier,
        }
    }

    /// A copy that exists only to be written: it exports the state this session exports,
    /// while its tuner holds handles on this session's rows and no model fit (see
    /// [`OnlineTune::unfitted_copy`]), so it must not step. Its generator is rebuilt from
    /// the spec, as a restore rebuilds it; telemetry is off and no contribution is pending.
    pub(crate) fn unfitted_copy(&self) -> Self {
        TenantSession {
            spec: self.spec.clone(),
            tuner: self.tuner.unfitted_copy(),
            db: self.db.clone(),
            featurizer: self.featurizer.clone(),
            generator: self.spec.build_generator(),
            reference: self.reference.clone(),
            iteration: self.iteration,
            cumulative_regret: self.cumulative_regret,
            unsafe_count: self.unsafe_count,
            total_score: self.total_score,
            recent_regret: self.recent_regret.clone(),
            pending: Contribution::default(),
            warm_start_safe: self.warm_start_safe,
            warm_start_observations: self.warm_start_observations,
            health: self.health,
            retry: self.retry,
            fault_attempts: self.fault_attempts,
            faulted_count: self.faulted_count,
            last_safe_config: self.last_safe_config.clone(),
            tier: self.tier,
            telemetry: TelemetryHandle::disabled(),
        }
    }

    /// Rebuilds a session from an exported state; the restored session continues
    /// bit-identically to the exported one. A malformed tenant state — truncated,
    /// bit-flipped, referencing unknown knobs, or holding a configuration or noise model
    /// that a later round could not run — yields a typed
    /// [`crate::error::FleetError::TenantRestore`] naming the tenant, never a panic.
    ///
    /// The tuner's observations and known-safe configurations are taken from `rows`
    /// (see [`OnlineTune::restore`]), so equal payloads share one row.
    pub fn restore(
        state: TenantSessionState,
        rows: &mut RowInterner,
    ) -> Result<Self, crate::error::FleetError> {
        let name = state.spec.name.clone();
        let tenant_err = |reason: String| crate::error::FleetError::TenantRestore {
            tenant: name.clone(),
            reason,
        };
        let mut tuner = OnlineTune::restore(state.tuner, rows).map_err(&tenant_err)?;
        // The suppression flag is runtime-only; re-derive it from the serialized tier
        // so a restored degraded session sheds exactly the same work.
        tuner.set_hyperopt_suppressed(state.tier >= DegradationTier::NoRefit);
        let db = SimDatabase::restore(state.db).map_err(&tenant_err)?;
        if let Some(config) = &state.last_safe_config {
            if config.len() != db.catalogue().len() {
                return Err(tenant_err(format!(
                    "last safe configuration has {} values for {} knobs",
                    config.len(),
                    db.catalogue().len()
                )));
            }
        }
        let featurizer = ContextFeaturizer::with_defaults();
        let generator = state.spec.build_generator();
        let reference = Configuration::dba_default(tuner.catalogue());
        Ok(TenantSession {
            spec: state.spec,
            tuner,
            db,
            featurizer,
            generator,
            reference,
            iteration: state.iteration,
            cumulative_regret: state.cumulative_regret,
            unsafe_count: state.unsafe_count,
            total_score: state.total_score,
            recent_regret: state.recent_regret.into_iter().collect(),
            pending: Contribution::default(),
            warm_start_safe: state.warm_start_safe,
            warm_start_observations: state.warm_start_observations,
            health: state.health,
            retry: state.retry,
            fault_attempts: state.fault_attempts,
            faulted_count: state.faulted_count,
            last_safe_config: state.last_safe_config,
            tier: state.tier,
            telemetry: TelemetryHandle::disabled(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::small_tuner_options;

    #[test]
    fn restore_json_shares_rows_by_bits_and_keeps_signed_zeros_apart() {
        use crate::service::{FleetOptions, FleetService};
        use std::sync::Arc;
        let mut svc = FleetService::new(FleetOptions {
            workers: 1,
            tuner: small_tuner_options(),
            ..Default::default()
        });
        for (i, family) in [
            WorkloadFamily::Ycsb,
            WorkloadFamily::Ycsb,
            WorkloadFamily::Tpcc,
        ]
        .into_iter()
        .enumerate()
        {
            let mut spec = TenantSpec::named(format!("t{i}"), family, 40 + i as u64);
            spec.deterministic = true;
            svc.admit(spec).unwrap();
        }
        svc.run_rounds(6);
        // Two repository entries that differ only in the sign of a zero: the text writes
        // them as `0` and `-0.0`, and interning them by `==` would change those bytes.
        let json = crate::service::tests::edited_snapshot_json(&svc, |tenants| {
            let clusters = &mut tenants[0].tuner.clusters;
            let mut positive = clusters.observations[0].clone();
            positive.config[0] = 0.0;
            let mut negative = positive.clone();
            negative.config[0] = -0.0;
            clusters.observations.extend([positive, negative]);
            clusters.labels.extend([0, 0]);
        });
        assert!(json.contains("-0.0"));

        let restored = FleetService::restore_json(&json).unwrap();
        assert_eq!(restored.canonical_snapshot_json(), json);
        let repository = restored.sessions()[0].tuner.observations();
        let [.., zero, negative_zero] = repository else {
            panic!("the repository lost its entries");
        };
        assert_eq!(zero.config()[0].to_bits(), 0.0f64.to_bits());
        assert_eq!(negative_zero.config()[0].to_bits(), (-0.0f64).to_bits());
        assert!(!Arc::ptr_eq(zero.row(), negative_zero.row()));

        // The knowledge base reads its entries from the tenants' repository rows.
        let rows: Vec<&SharedObservation> = restored
            .sessions()
            .iter()
            .flat_map(|s| s.tuner.observations())
            .collect();
        let mut shared = 0;
        for (_, pool) in restored.knowledge().pools() {
            for obs in &pool.observations {
                if rows.iter().any(|r| r.has_bits(obs.config(), obs.context())) {
                    assert!(rows.iter().any(|r| Arc::ptr_eq(r.row(), obs.row())));
                    shared += 1;
                }
            }
        }
        assert!(
            shared > 0,
            "no knowledge-base observation matches a repository row"
        );
    }

    #[test]
    fn session_steps_and_accumulates_stats() {
        let mut spec = TenantSpec::named("t0", WorkloadFamily::Ycsb, 7);
        spec.deterministic = true;
        let mut s = TenantSession::new(spec, small_tuner_options()).unwrap();
        for _ in 0..5 {
            let r = s.step();
            assert!(r >= 0.0);
        }
        assert_eq!(s.iteration(), 5);
        assert!(s.recent_regret() >= 0.0);
        let c = s.drain_contribution();
        assert_eq!(c.observations.len(), 5);
        assert!(s.drain_contribution().is_empty());
    }

    #[test]
    fn snapshot_restore_continues_bit_identically() {
        let mut spec = TenantSpec::named("t0", WorkloadFamily::Tpcc, 11);
        spec.deterministic = false; // noise on: the instance RNG stream must survive too
        let mut original = TenantSession::new(spec, small_tuner_options()).unwrap();
        for _ in 0..6 {
            original.step();
        }
        original.drain_contribution();
        let state = original.export_state();
        let mut restored = TenantSession::restore(state, &mut RowInterner::default()).unwrap();

        for i in 0..6 {
            let a = original.step();
            let b = restored.step();
            assert_eq!(a.to_bits(), b.to_bits(), "regret diverged at step {i}");
        }
        assert_eq!(
            original.cumulative_regret().to_bits(),
            restored.cumulative_regret().to_bits()
        );
        assert_eq!(original.unsafe_count(), restored.unsafe_count());
    }

    #[test]
    fn an_unfitted_copy_exports_the_same_state() {
        let mut spec = TenantSpec::named("t0", WorkloadFamily::Tpcc, 11);
        spec.deterministic = false;
        let mut session = TenantSession::new(spec, small_tuner_options()).unwrap();
        session.set_telemetry(&TelemetryHandle::enabled());
        for _ in 0..6 {
            session.step();
        }
        session.apply_drift(WorkloadDrift::FamilySwitch {
            at: 1,
            to: WorkloadFamily::Job,
        });
        session.step();
        assert!(
            !session.pending.is_empty(),
            "a contribution must be pending"
        );
        let copy = session.unfitted_copy();
        let state = |s: &TenantSession| serde_json::to_string(&s.export_state()).unwrap();
        assert_eq!(state(&copy), state(&session));
        assert!(copy.pending.is_empty());
        assert!(!copy.telemetry().is_enabled());
    }

    #[test]
    fn applied_drift_is_anchored_and_survives_snapshot_restore() {
        let mut spec = TenantSpec::named("drifter", WorkloadFamily::Ycsb, 21);
        spec.deterministic = true;
        let mut original = TenantSession::new(spec, small_tuner_options()).unwrap();
        for _ in 0..4 {
            original.step();
        }
        // "Switch to JOB 2 iterations from now" anchors at absolute iteration 6.
        original.apply_drift(WorkloadDrift::FamilySwitch {
            at: 2,
            to: WorkloadFamily::Job,
        });
        assert_eq!(
            original.spec().drift,
            vec![WorkloadDrift::FamilySwitch {
                at: 6,
                to: WorkloadFamily::Job
            }]
        );
        original.drain_contribution();
        let mut restored =
            TenantSession::restore(original.export_state(), &mut RowInterner::default()).unwrap();
        // Both sessions cross the switch boundary and must stay bit-identical through it.
        for i in 0..6 {
            let a = original.step();
            let b = restored.step();
            assert_eq!(a.to_bits(), b.to_bits(), "diverged at post-drift step {i}");
        }
    }

    #[test]
    fn hardware_resize_applies_to_db_tuner_and_spec() {
        let mut spec = TenantSpec::named("resizer", WorkloadFamily::Twitter, 31);
        spec.deterministic = true;
        let mut s = TenantSession::new(spec, small_tuner_options()).unwrap();
        s.step();
        let big = simdb::HardwareSpec::default().scaled(2.0);
        s.resize_hardware(big);
        assert_eq!(s.spec().hardware, big);
        s.step();
        // The resize is part of the snapshot: the restored session continues on the new
        // hardware bit-identically.
        s.drain_contribution();
        let mut restored =
            TenantSession::restore(s.export_state(), &mut RowInterner::default()).unwrap();
        for _ in 0..3 {
            assert_eq!(s.step().to_bits(), restored.step().to_bits());
        }
    }

    #[test]
    fn a_warm_start_its_models_reject_is_a_fault_of_the_session() {
        let mut spec = TenantSpec::named("warm", WorkloadFamily::Ycsb, 5);
        spec.deterministic = true;
        let mut s = TenantSession::new(spec, small_tuner_options()).unwrap();
        let seed = s.tuner.observations()[0].clone();
        let poisoned = gp::rows::SharedObservation::new(seed.config(), seed.context(), f64::NAN);
        s.warm_start(&crate::knowledge::WarmStart {
            safe_configs: Vec::new(),
            observations: vec![poisoned],
        });
        assert_eq!(s.faulted_count, 1);
        assert!(matches!(
            s.health(),
            SessionHealth::Backoff { attempt: 1, .. }
        ));
    }

    #[test]
    fn retry_backoff_quarantine_and_probation_readmission() {
        let mut spec = TenantSpec::named("q", WorkloadFamily::Ycsb, 11);
        spec.deterministic = true;
        let mut s = TenantSession::new(spec, small_tuner_options()).unwrap();
        for _ in 0..2 {
            s.step();
        }
        assert_eq!(s.health(), SessionHealth::Healthy);

        s.inject_faults(simdb::FaultKind::Failure, 3);
        // Fault 1: one-round backoff, expires at the round tick.
        s.step();
        assert_eq!(
            s.health(),
            SessionHealth::Backoff {
                remaining: 1,
                attempt: 1
            }
        );
        assert_eq!(
            s.scheduling_class(),
            crate::scheduler::HealthClass::Suspended
        );
        s.tick_round();
        assert_eq!(s.health(), SessionHealth::Healthy);
        // Fault 2: exponential — two rounds out.
        s.step();
        assert_eq!(
            s.health(),
            SessionHealth::Backoff {
                remaining: 2,
                attempt: 2
            }
        );
        s.tick_round();
        s.tick_round();
        assert_eq!(s.health(), SessionHealth::Healthy);
        // Fault 3 exhausts the retry budget.
        let iters_before = s.iteration();
        s.step();
        assert_eq!(
            s.health(),
            SessionHealth::Quarantined {
                rounds_since_probe: 0,
                probation_successes: 0
            }
        );
        assert_eq!(
            s.iteration(),
            iters_before,
            "faulted attempts never advance the iteration counter"
        );
        assert_eq!(s.faulted_count, 3);

        // Probes come due every `probation_interval` rounds; the injected faults are
        // exhausted, so two clean probes readmit the session.
        s.tick_round();
        assert_eq!(s.scheduling_class(), crate::scheduler::HealthClass::Dormant);
        s.tick_round();
        assert_eq!(s.scheduling_class(), crate::scheduler::HealthClass::Probe);
        s.step();
        assert_eq!(
            s.health(),
            SessionHealth::Quarantined {
                rounds_since_probe: 0,
                probation_successes: 1
            }
        );
        assert_eq!(
            s.iteration(),
            iters_before + 1,
            "probes are real measured iterations"
        );
        s.tick_round();
        s.tick_round();
        s.step();
        assert_eq!(s.health(), SessionHealth::Healthy, "probation readmits");
        assert_eq!(s.summary().faulted_count, 3);
    }

    #[test]
    fn backoff_grows_exponentially_to_the_cap() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.backoff_rounds(1), 1);
        assert_eq!(policy.backoff_rounds(2), 2);
        assert_eq!(policy.backoff_rounds(3), 4);
        assert_eq!(policy.backoff_rounds(4), 8);
        assert_eq!(policy.backoff_rounds(5), 8, "capped");
        assert_eq!(
            policy.backoff_rounds(40),
            8,
            "huge attempts do not overflow"
        );
    }

    fn seeded_fault_session() -> TenantSession {
        let mut spec = TenantSpec::named("f", WorkloadFamily::Twitter, 23);
        spec.deterministic = true;
        let mut s = TenantSession::new(spec, small_tuner_options()).unwrap();
        s.inject_seeded_faults(simdb::FaultKind::CorruptNan, 0.5, 30, 9);
        s
    }

    #[test]
    fn fault_state_survives_snapshot_restore_bit_identically() {
        let mut a = seeded_fault_session();
        let mut b = seeded_fault_session();
        for _ in 0..6 {
            a.step();
            a.tick_round();
            b.step();
            b.tick_round();
        }
        let mut b = TenantSession::restore(b.export_state(), &mut RowInterner::default()).unwrap();
        for _ in 0..6 {
            a.step();
            a.tick_round();
            b.step();
            b.tick_round();
        }
        assert!(a.faulted_count > 0, "the seeded window should have struck");
        assert_eq!(a.health(), b.health());
        assert_eq!(a.faulted_count, b.faulted_count);
        assert_eq!(a.iteration(), b.iteration());
        let (sa, sb) = (a.summary(), b.summary());
        assert_eq!(sa.total_score.to_bits(), sb.total_score.to_bits());
        assert_eq!(
            sa.cumulative_regret.to_bits(),
            sb.cumulative_regret.to_bits()
        );
    }

    #[test]
    fn every_family_builds_and_steps() {
        for (i, family) in WorkloadFamily::ALL.iter().enumerate() {
            let mut spec = TenantSpec::named(format!("t{i}"), *family, 100 + i as u64);
            spec.deterministic = true;
            let mut s = TenantSession::new(spec, small_tuner_options()).unwrap();
            s.step();
            assert_eq!(s.iteration(), 1, "{}", family.label());
        }
    }

    #[test]
    fn nan_drift_parameters_degrade_into_backoff_not_panic() {
        // A NaN amplitude survives the drift's clamp (NaN.clamp is NaN) and poisons
        // the arrival rate, hence the tenant's context vector. The session must route
        // that through the fault machine — backoff, then quarantine — and never hand the
        // tuner a non-finite value or panic the worker. Probes of the pinned reference
        // config may still succeed (the performance model's `min` against the offered
        // rate swallows the NaN), which is exactly the graceful path: the tenant keeps
        // being measured on its last safe config while the tuner is protected.
        let mut spec = TenantSpec::named("poisoned", WorkloadFamily::Job, 5);
        spec.deterministic = true;
        let mut s = TenantSession::new(spec, small_tuner_options()).unwrap();
        s.set_telemetry(&TelemetryHandle::enabled());
        for _ in 0..2 {
            s.step();
        }
        let observations = s.model_observation_counts().iter().sum::<usize>();
        s.apply_drift(WorkloadDrift::Diurnal {
            period: 4,
            amplitude: f64::NAN,
            anchor: 0,
        });
        for _ in 0..12 {
            let regret = s.step();
            assert!(
                regret.is_finite(),
                "regret must stay finite under NaN drift"
            );
            s.tick_round();
        }
        assert_eq!(
            s.model_observation_counts().iter().sum::<usize>(),
            observations,
            "the tuner must never observe a poisoned measurement"
        );
        // `TenantSession::new` installs the default policy.
        assert!(s.faulted_count >= RetryPolicy::default().max_attempts);
        assert!(
            s.telemetry().snapshot().counter(CounterId::Quarantines) >= 1,
            "repeated non-finite contexts must exhaust the retry budget"
        );
    }

    #[test]
    fn non_finite_spec_at_admission_is_a_typed_error() {
        let mut spec = TenantSpec::named("dead-on-arrival", WorkloadFamily::Job, 5);
        spec.deterministic = true;
        spec.drift.push(WorkloadDrift::Diurnal {
            period: 4,
            amplitude: f64::NAN,
            anchor: 0,
        });
        match TenantSession::new(spec, small_tuner_options()) {
            Err(crate::error::FleetError::AdmissionDenied { tenant, reason }) => {
                assert_eq!(tenant, "dead-on-arrival");
                assert!(reason.contains("non-finite"), "{reason}");
            }
            Err(other) => panic!("expected AdmissionDenied, got {other}"),
            Ok(_) => panic!("a non-finite spec must not admit"),
        }
    }

    #[test]
    fn degradation_ladder_is_ordered_and_saturates() {
        assert!(DegradationTier::Full < DegradationTier::NoRefit);
        assert!(DegradationTier::NoRefit < DegradationTier::CachedPosterior);
        assert!(DegradationTier::CachedPosterior < DegradationTier::Pinned);
        assert_eq!(
            DegradationTier::Pinned.downgraded(),
            DegradationTier::Pinned
        );
        assert_eq!(DegradationTier::Full.upgraded(), DegradationTier::Full);
        for tier in DegradationTier::ALL {
            assert_eq!(tier.downgraded().upgraded(), tier.downgraded().upgraded());
            assert!(tier.downgraded() >= tier);
            assert!(tier.upgraded() <= tier);
        }
    }

    #[test]
    fn cached_posterior_tier_freezes_the_model_but_keeps_measuring() {
        let mut spec = TenantSpec::named("frozen", WorkloadFamily::Ycsb, 17);
        spec.deterministic = true;
        let mut s = TenantSession::new(spec, small_tuner_options()).unwrap();
        for _ in 0..3 {
            s.step();
        }
        let observations_before: usize = s.model_observation_counts().iter().sum();
        s.set_degradation(DegradationTier::CachedPosterior);
        for _ in 0..3 {
            s.step();
        }
        assert_eq!(
            s.iteration(),
            6,
            "measurements continue under the frozen tier"
        );
        assert_eq!(
            s.model_observation_counts().iter().sum::<usize>(),
            observations_before,
            "the posterior must not move at CachedPosterior"
        );
        s.set_degradation(DegradationTier::Full);
        s.step();
        assert!(
            s.model_observation_counts().iter().sum::<usize>() > observations_before,
            "recovery resumes observes"
        );
    }

    #[test]
    fn pinned_tier_bypasses_the_tuner_entirely() {
        let mut spec = TenantSpec::named("pinned", WorkloadFamily::Twitter, 19);
        spec.deterministic = true;
        let mut s = TenantSession::new(spec, small_tuner_options()).unwrap();
        for _ in 0..4 {
            s.step();
        }
        let observations_before: usize = s.model_observation_counts().iter().sum();
        s.set_degradation(DegradationTier::Pinned);
        for _ in 0..3 {
            let regret = s.step();
            assert!(regret >= 0.0);
        }
        assert_eq!(s.iteration(), 7, "pinned iterations still advance");
        assert_eq!(
            s.model_observation_counts().iter().sum::<usize>(),
            observations_before,
            "the tuner is bypassed at Pinned"
        );
        assert_eq!(s.summary().tier, DegradationTier::Pinned);
    }

    #[test]
    fn degraded_sessions_snapshot_restore_bit_identically() {
        for tier in DegradationTier::ALL {
            let mut spec = TenantSpec::named("t", WorkloadFamily::Tpcc, 29);
            spec.deterministic = false;
            let mut original = TenantSession::new(spec, small_tuner_options()).unwrap();
            for _ in 0..3 {
                original.step();
            }
            original.set_degradation(tier);
            original.step();
            original.drain_contribution();
            let mut restored =
                TenantSession::restore(original.export_state(), &mut RowInterner::default())
                    .unwrap();
            assert_eq!(restored.degradation(), tier);
            for i in 0..4 {
                let a = original.step();
                let b = restored.step();
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "tier {} diverged at step {i}",
                    tier.label()
                );
            }
        }
    }

    #[test]
    fn no_refit_tier_suppresses_hyperopt_runs() {
        let run_with = |tier: DegradationTier| -> u64 {
            let mut options = small_tuner_options();
            options.cluster.hyperopt_period = 2;
            let mut spec = TenantSpec::named("h", WorkloadFamily::Ycsb, 41);
            spec.deterministic = true;
            let mut s = TenantSession::new(spec, options).unwrap();
            let telemetry = TelemetryHandle::enabled();
            s.set_telemetry(&telemetry);
            s.set_degradation(tier);
            for _ in 0..6 {
                s.step();
            }
            s.telemetry().snapshot().counter(CounterId::HyperoptRuns)
        };
        assert!(
            run_with(DegradationTier::Full) > 0,
            "a 2-observation hyperopt period must trigger refits at Full"
        );
        assert_eq!(
            run_with(DegradationTier::NoRefit),
            0,
            "NoRefit must suppress every periodic hyperopt refit"
        );
    }

    /// The generator of a `family` tenant (seed 7) under `drift`.
    fn drifted(family: WorkloadFamily, drift: Vec<WorkloadDrift>) -> Box<dyn WorkloadGenerator> {
        let mut spec = TenantSpec::named("drift", family, 7);
        spec.drift = drift;
        spec.build_generator()
    }

    /// The load scale a single load drift applies at `iteration`, read off JOB's arrival
    /// rate, which a load drift multiplies by exactly its scale.
    fn load_scale(drift: WorkloadDrift, iteration: usize) -> f64 {
        let rate = |generator: &dyn WorkloadGenerator| {
            generator.spec_at(iteration).arrival_rate_qps.unwrap()
        };
        rate(drifted(WorkloadFamily::Job, vec![drift]).as_ref())
            / rate(WorkloadFamily::Job.build(7).as_ref())
    }

    #[test]
    fn rate_ramp_scales_clients_linearly_and_saturates() {
        let ramp = WorkloadDrift::RateRamp {
            start: 10,
            over: 20,
            from_scale: 1.0,
            to_scale: 2.0,
        };
        assert_eq!(load_scale(ramp.clone(), 0), 1.0);
        assert_eq!(load_scale(ramp.clone(), 10), 1.0);
        assert!((load_scale(ramp.clone(), 20) - 1.5).abs() < 1e-12);
        assert_eq!(load_scale(ramp.clone(), 30), 2.0);
        assert_eq!(load_scale(ramp.clone(), 500), 2.0);
        let base_clients = WorkloadFamily::Ycsb.build(7).spec_at(0).clients;
        let generator = drifted(WorkloadFamily::Ycsb, vec![ramp]);
        assert_eq!(generator.spec_at(0).clients, base_clients);
        assert_eq!(generator.spec_at(500).clients, base_clients * 2);
        // The mix and the objective are untouched by a load ramp.
        assert_eq!(generator.objective_at(500), Objective::Throughput);
    }

    #[test]
    fn rate_ramp_with_zero_length_is_a_step_at_start() {
        let ramp = WorkloadDrift::RateRamp {
            start: 5,
            over: 0,
            from_scale: 1.0,
            to_scale: 3.0,
        };
        assert_eq!(load_scale(ramp.clone(), 4), 1.0);
        assert!((load_scale(ramp.clone(), 5) - 3.0).abs() < 1e-12);
        assert!((load_scale(ramp, 6) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn rate_ramp_never_drops_clients_to_zero() {
        let ramp = WorkloadDrift::RateRamp {
            start: 0,
            over: 0,
            from_scale: 0.0,
            to_scale: 0.0,
        };
        assert_eq!(
            drifted(WorkloadFamily::Ycsb, vec![ramp])
                .spec_at(10)
                .clients,
            1
        );
    }

    #[test]
    fn abrupt_switch_changes_spec_queries_and_objective_at_the_boundary() {
        let switch = WorkloadDrift::FamilySwitch {
            at: 50,
            to: WorkloadFamily::Job,
        };
        let sw = drifted(WorkloadFamily::Ycsb, vec![switch]);
        assert_eq!(sw.spec_at(49).name, "ycsb");
        assert_eq!(sw.spec_at(50).name, "job-dynamic");
        assert_eq!(sw.objective_at(49), Objective::Throughput);
        assert_eq!(sw.objective_at(50), Objective::ExecutionTime);
        // The static objective stays the base family's.
        assert_eq!(sw.objective(), Objective::Throughput);
        // Query text follows the running family.
        assert!(sw
            .sample_queries(49, 5)
            .iter()
            .any(|q| q.contains("usertable")));
        assert!(sw
            .sample_queries(50, 5)
            .iter()
            .all(|q| !q.contains("usertable")));
        // Initial data size comes from the family the session starts with.
        assert_eq!(sw.initial_data_size_gib(), YcsbWorkload::INITIAL_DATA_GIB);
    }

    #[test]
    fn periodic_alternation_cycles_phases() {
        let periodic = WorkloadDrift::PeriodicFamilies {
            period: 25,
            other: WorkloadFamily::Job,
        };
        assert_eq!(periodic.family_at(0), None);
        assert_eq!(periodic.family_at(24), None);
        assert_eq!(periodic.family_at(25), Some(WorkloadFamily::Job));
        assert_eq!(periodic.family_at(50), None);
        let alt = drifted(WorkloadFamily::Tpcc, vec![periodic]);
        assert_eq!(alt.spec_at(10).name, "tpcc-dynamic");
        assert_eq!(alt.spec_at(30).name, "job-dynamic");
        assert_eq!(alt.objective_at(30), Objective::ExecutionTime);
    }

    #[test]
    fn diurnal_load_oscillates_around_baseline_with_the_given_period() {
        let scale = |anchor: usize, iteration: usize| {
            let diurnal = WorkloadDrift::Diurnal {
                period: 24,
                amplitude: 0.5,
                anchor,
            };
            load_scale(diurnal, iteration)
        };
        assert!((scale(0, 0) - 1.0).abs() < 1e-12);
        assert!((scale(0, 6) - 1.5).abs() < 1e-9); // quarter period: peak
        assert!((scale(0, 18) - 0.5).abs() < 1e-9); // three quarters: trough
        assert!((scale(0, 24) - scale(0, 0)).abs() < 1e-9);
        // Anchoring shifts the phase: the anchored curve at `it` equals the unanchored
        // curve at `it - anchor`.
        for it in [10, 16, 20, 40] {
            assert!((scale(10, it) - scale(0, it - 10)).abs() < 1e-12);
        }
    }

    #[test]
    fn diurnal_amplitude_is_clamped_so_load_never_vanishes() {
        let diurnal = WorkloadDrift::Diurnal {
            period: 8,
            amplitude: 5.0,
            anchor: 0,
        };
        let generator = drifted(WorkloadFamily::Ycsb, vec![diurnal.clone()]);
        for it in 0..16 {
            assert!(load_scale(diurnal.clone(), it) > 0.0);
            assert!(generator.spec_at(it).clients >= 1);
        }
    }

    #[test]
    fn flash_crowd_spikes_then_decays_with_the_half_life() {
        let flash = WorkloadDrift::FlashCrowd {
            at: 20,
            peak: 5.0,
            half_life: 10,
        };
        let scale = |it| load_scale(flash.clone(), it);
        assert_eq!(scale(0), 1.0);
        assert_eq!(scale(19), 1.0);
        assert!((scale(20) - 5.0).abs() < 1e-12);
        assert!((scale(30) - 3.0).abs() < 1e-9); // one half-life: 1 + 4/2
        assert!((scale(40) - 2.0).abs() < 1e-9); // two half-lives: 1 + 4/4
        assert!(scale(200) < 1.01); // long after: back to baseline
        let base_clients = WorkloadFamily::Ycsb.build(7).spec_at(20).clients;
        let generator = drifted(WorkloadFamily::Ycsb, vec![flash]);
        assert_eq!(generator.spec_at(20).clients, base_clients * 5);
    }

    #[test]
    fn skew_growth_interpolates_skew_and_scales_data() {
        let base = WorkloadFamily::Ycsb.build(7);
        let grow = WorkloadDrift::SkewGrowth {
            start: 10,
            over: 20,
            to_skew: 1.0,
            data_factor: 4.0,
        };
        let grow = drifted(WorkloadFamily::Ycsb, vec![grow]);
        let base0 = base.spec_at(0);
        let before = grow.spec_at(0);
        assert_eq!(before.skew, base0.skew);
        assert_eq!(before.data_size_gib, base0.data_size_gib);
        let mid = grow.spec_at(20); // halfway through the window
        assert!((mid.skew - (base0.skew + (1.0 - base0.skew) * 0.5)).abs() < 1e-9);
        assert!((mid.data_size_gib - base0.data_size_gib * 2.5).abs() < 1e-9);
        let after = grow.spec_at(100);
        assert!((after.skew - 1.0).abs() < 1e-12);
        assert!((after.data_size_gib - base0.data_size_gib * 4.0).abs() < 1e-9);
        // Query mix and objective are untouched (the base mix itself varies with the
        // iteration, so compare against the base at the same position).
        assert_eq!(after.mix, base.spec_at(100).mix);
        assert_eq!(grow.objective_at(100), Objective::Throughput);
    }

    #[test]
    fn combinators_are_pure_functions_of_the_iteration() {
        // Two independently built generators of the same stack must agree exactly — the
        // snapshot-restore path rebuilds generators from serialized specs and relies on
        // this.
        let build = || {
            let switch = WorkloadDrift::FamilySwitch {
                at: 40,
                to: WorkloadFamily::Job,
            };
            let ramp = WorkloadDrift::RateRamp {
                start: 10,
                over: 30,
                from_scale: 1.0,
                to_scale: 1.8,
            };
            drifted(WorkloadFamily::Ycsb, vec![switch, ramp])
        };
        let a = build();
        let b = build();
        for it in [0, 9, 10, 39, 40, 41, 100] {
            let sa = a.spec_at(it);
            let sb = b.spec_at(it);
            assert_eq!(sa.name, sb.name);
            assert_eq!(sa.clients, sb.clients);
            assert_eq!(sa.mix, sb.mix);
            assert_eq!(a.sample_queries(it, 8), b.sample_queries(it, 8));
        }
    }
}
