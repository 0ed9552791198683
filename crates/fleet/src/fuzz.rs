//! Scenario fuzzer: generated fleet timelines, global property gates, and minimized
//! regression corpora.
//!
//! The scenario engine ([`crate::scenario`]) replays *hand-written* timelines — it tests
//! the dynamics we already thought of. This module generates timelines instead: a seeded
//! [`ScenarioGenerator`] samples random admission/churn/migration/drift/resize/
//! data-growth schedules from a declarative, serde round-trippable
//! [`ScenarioDistribution`], [`run_fuzz_case`] drives each one through a real
//! [`FleetService`], and a [`PropertyRegistry`] checks global invariants of the whole
//! stack on every run:
//!
//! * **replay bit-identity** — a second fleet, snapshot/restored at a randomly chosen
//!   cut round and run with telemetry disabled, ends with byte-identical snapshot JSON;
//! * **unsafe-rate ceiling** — every tenant with enough iterations stays within the
//!   telemetry SLO ceiling ([`SloReport::within_slo`]);
//! * **scheduler fairness floor** — every live tenant advances every round (rejoins
//!   restart the floor, they don't dodge it);
//! * **no knowledge leakage** — each round's knowledge-pool contribution deltas land
//!   only in (hardware class, *effective* family) coordinates some tenant legitimately
//!   occupied at its merge point that round;
//! * **bounded budgets** — per-model observation counts never exceed the
//!   `ObservationBudget` window, model counts stay bounded, and the merged journal
//!   respects its ring capacities;
//! * **crash-recovery bit-identity** — a durable fleet killed after a fuzzed round
//!   (with a torn WAL tail) and recovered from its surviving storage finishes the
//!   horizon with byte-identical snapshot JSON;
//! * **quarantine liveness** — a quarantined tenant is never left unprobed past its
//!   probation interval (the scheduler cannot forget a sick tenant);
//! * **no silent shed loss** — when a case carries an [`OverloadPlan`], the serving
//!   front end's backpressure may only ever shed reconstructible or untrusted work
//!   (telemetry reads, quarantined suggests) — never an admission or removal — and
//!   every tenant the front end admitted is still in the fleet when the leg ends;
//! * **degradation monotone + recovery** — under the same overload leg, degradation
//!   tiers only descend while a pressure window persists, and the quiet tail after the
//!   storm always walks every tenant back to full service.
//!
//! On violation, [`shrink_case`] minimizes the timeline — truncating the horizon,
//! dropping events, evicting initial tenants — to a minimal failing [`FuzzCase`] that is
//! serialized (as a [`RegressionCase`]) into the committed `tests/regressions/` corpus
//! and replayed forever after by an integration test.
//!
//! Everything here is deterministic: the generator's stream is a pure function of its
//! seed, generated tenants run with measurement noise disabled, and the shrinker is a
//! greedy fixed-point loop with a bounded attempt budget — the same seed always yields
//! the same cases, verdicts and minimized artifacts.

use crate::knowledge::PoolKey;
use crate::recovery::DurableFleet;
use crate::scenario::{FaultSchedule, Scenario, ScenarioEvent, ScenarioRound, ScenarioStep};
use crate::serve::{FleetServer, Request, Response, ServeOptions, TrafficScript};
use crate::service::{small_tuner_options, FleetOptions, FleetService, SloReport};
use crate::tenant::{DegradationTier, SessionHealth, TenantSpec, WorkloadDrift, WorkloadFamily};
use crate::wal::FRAME_LEN;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use simdb::FaultKind;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use telemetry::{MonotonicClock, TelemetryConfig, TelemetryHandle};

/// Relative sampling weights of the scenario event kinds.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EventWeights {
    /// Weight of `Admit` (fresh tenant, or re-admission of a departed name).
    pub admit: f64,
    /// Weight of `Remove` (never fired when it would empty the fleet).
    pub remove: f64,
    /// Weight of `Migrate`.
    pub migrate: f64,
    /// Weight of `Resize`.
    pub resize: f64,
    /// Weight of `ScaleData`.
    pub scale_data: f64,
    /// Weight of `Drift`.
    pub drift: f64,
    /// Weight of `InjectFault`. Defaults to 0.0 — fault events are opt-in (see
    /// [`ScenarioDistribution::with_faults`]), and a zero weight leaves the generator's
    /// RNG stream byte-identical to pre-fault corpora, so committed regression cases
    /// regenerate unchanged.
    #[serde(default)]
    pub inject_fault: f64,
    /// Weight of an *admission burst* in the generated overload traffic (a clump of
    /// fresh-tenant admissions thrown at the serving front end in one round). Defaults
    /// to 0.0 — overload plans are opt-in (see
    /// [`ScenarioDistribution::with_overload`]); a zero weight (together with a zero
    /// [`EventWeights::queue_storm`]) skips overload sampling entirely, leaving older
    /// generator streams byte-identical.
    #[serde(default)]
    pub admission_burst: f64,
    /// Weight of a *queue storm* in the generated overload traffic (a flood of suggest
    /// requests plus a telemetry read, sized past the queue capacity). Defaults to 0.0
    /// for the same stream-stability reason as [`EventWeights::admission_burst`].
    #[serde(default)]
    pub queue_storm: f64,
}

impl Default for EventWeights {
    fn default() -> Self {
        EventWeights {
            admit: 1.0,
            remove: 1.0,
            migrate: 0.5,
            resize: 0.5,
            scale_data: 1.0,
            drift: 2.0,
            inject_fault: 0.0,
            admission_burst: 0.0,
            queue_storm: 0.0,
        }
    }
}

/// Declarative, serde round-trippable description of the space of timelines the
/// generator samples from — commit one of these next to a seed and the whole fuzzing
/// run is reproducible.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScenarioDistribution {
    /// Minimum tenants admitted before round 0.
    pub min_initial_tenants: usize,
    /// Maximum tenants admitted before round 0.
    pub max_initial_tenants: usize,
    /// Minimum rounds per timeline (forced ≥ 2 so a snapshot cut exists).
    pub min_rounds: usize,
    /// Maximum rounds per timeline.
    pub max_rounds: usize,
    /// Maximum scheduled events per timeline.
    pub max_events: usize,
    /// Workload families tenants are drawn from.
    pub families: Vec<WorkloadFamily>,
    /// Hardware sizes (as multiples of the default spec) tenants, resizes and
    /// migrations are drawn from.
    pub hardware_scales: Vec<f64>,
    /// Relative weights of the event kinds.
    pub event_weights: EventWeights,
    /// Probability that a sampled drift is applied to *every* live tenant at the same
    /// round (correlated cohort drift) instead of a single tenant.
    pub cohort_drift_probability: f64,
    /// Unsafe-rate ceiling installed into the telemetry config; the SLO property holds
    /// each sufficiently-long-lived tenant against it.
    pub unsafe_rate_ceiling: f64,
    /// Tenants with fewer total iterations than this are exempt from the SLO property
    /// (a handful of exploration steps dominate a short life).
    pub min_iterations_for_slo: usize,
    /// Ceiling on per-tenant model counts for the bounded-budget property.
    pub max_models: usize,
    /// Fault kinds `InjectFault` events draw from. Empty (the default) plus a zero
    /// `inject_fault` weight means no fault events — the pre-fault distribution.
    #[serde(default)]
    pub fault_kinds: Vec<FaultKind>,
}

impl Default for ScenarioDistribution {
    fn default() -> Self {
        ScenarioDistribution {
            min_initial_tenants: 1,
            max_initial_tenants: 3,
            min_rounds: 4,
            max_rounds: 9,
            max_events: 7,
            families: WorkloadFamily::ALL.to_vec(),
            hardware_scales: vec![0.5, 1.0, 2.0],
            event_weights: EventWeights::default(),
            cohort_drift_probability: 0.2,
            // Fuzzed horizons are short, so every tenant is measured in its cold-start
            // exploration phase (often right after a drift/scale event); the ceiling is
            // therefore far looser than a production SLO. Its job is to catch
            // regressions of the safety machinery — which push the rate towards 1.0 —
            // not to assert the paper's long-run unsafe rates.
            unsafe_rate_ceiling: 0.75,
            min_iterations_for_slo: 10,
            max_models: 16,
            fault_kinds: Vec::new(),
        }
    }
}

impl ScenarioDistribution {
    /// The default distribution with fault injection switched on: `InjectFault` events
    /// carry a meaningful weight and draw from every [`FaultKind`]. Tenants under
    /// injected faults may legitimately exceed a cold-start unsafe-rate ceiling tuned
    /// for clean runs (quarantine probes re-measure the pinned safe config while regret
    /// accrues), so the SLO exemption floor rises with it.
    pub fn with_faults() -> Self {
        ScenarioDistribution {
            event_weights: EventWeights {
                inject_fault: 1.5,
                ..Default::default()
            },
            fault_kinds: FaultKind::ALL.to_vec(),
            min_iterations_for_slo: 14,
            ..Default::default()
        }
    }

    /// The default distribution with overload traffic switched on: every generated case
    /// carries an [`OverloadPlan`] — a tightly-budgeted serving front end plus a traffic
    /// script of admission bursts and queue storms — and the overload properties
    /// (`no_silent_shed_loss`, `degradation_monotone_and_recovers`) get real work to
    /// check instead of passing vacuously.
    pub fn with_overload() -> Self {
        ScenarioDistribution {
            event_weights: EventWeights {
                admission_burst: 1.0,
                queue_storm: 2.0,
                ..Default::default()
            },
            ..Default::default()
        }
    }
}

/// A generated overload schedule for the serving front end: a (deliberately tight)
/// [`ServeOptions`] budget, a [`TrafficScript`] of admission bursts and queue storms
/// over the case's horizon, and a quiet tail long enough for every degradation window
/// to unwind — the overload properties assert the fleet is back at full service by the
/// end of it.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OverloadPlan {
    /// Serving options the overload leg runs under.
    pub options: ServeOptions,
    /// The generated request timeline.
    pub traffic: TrafficScript,
    /// Total rounds the overload leg runs (the storm horizon plus the quiet tail).
    pub horizon: usize,
}

/// One generated fuzzing input: a fleet, a timeline, a horizon and a snapshot cut.
///
/// Valid by construction (the generator tracks tenant liveness), and everything a replay
/// needs is inside — `FuzzCase` is what the shrinker minimizes and what regression
/// corpora store.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FuzzCase {
    /// Name of the case (carries the generator seed and index).
    pub name: String,
    /// Seed of the generator stream this case was drawn from.
    pub seed: u64,
    /// Rounds the fleet runs.
    pub rounds: usize,
    /// Round after which the replay leg snapshots and restores (in `[1, rounds - 1]`).
    pub cut_round: usize,
    /// Round after which the crash leg kills the durable fleet and recovers from
    /// storage (in `[1, rounds - 1]`; `0` — the serde default for pre-fault corpus
    /// entries — skips the crash leg). Derived arithmetically from the seed and case
    /// index, not from the generator's RNG stream, so older streams stay byte-stable.
    #[serde(default)]
    pub kill_round: usize,
    /// Tenants admitted before round 0.
    pub initial_tenants: Vec<TenantSpec>,
    /// The generated timeline.
    pub scenario: Scenario,
    /// Overload traffic for the serving front end. `None` unless the distribution
    /// carries overload weights; the serde default lets pre-overload corpus entries
    /// (which omit the field) keep parsing.
    #[serde(default)]
    pub overload: Option<OverloadPlan>,
}

impl FuzzCase {
    /// Names of the tenants present when the timeline starts.
    pub fn initial_names(&self) -> Vec<String> {
        self.initial_tenants
            .iter()
            .map(|t| t.name.clone())
            .collect()
    }

    /// Serializes the case to JSON.
    pub fn to_json(&self) -> Result<String, String> {
        serde_json::to_string(self).map_err(|e| e.to_string())
    }

    /// Deserializes a case from [`FuzzCase::to_json`] output.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }
}

/// The kinds of drift the generator samples (uniformly) for `Drift` events.
const DRIFT_KINDS: usize = 6;

/// Seeded sampler of [`FuzzCase`]s from a [`ScenarioDistribution`].
///
/// The generator tracks tenant liveness while scheduling events, so every produced
/// scenario passes [`Scenario::validate`] by construction: removes never empty the
/// fleet, name-addressed events always target a live tenant, admissions never duplicate
/// a live name (departed names may be re-admitted, which exercises the knowledge-base
/// warm-start path).
pub struct ScenarioGenerator {
    dist: ScenarioDistribution,
    seed: u64,
    rng: StdRng,
    produced: usize,
}

impl ScenarioGenerator {
    /// A generator whose case stream is a pure function of `seed` and `dist`.
    pub fn new(dist: ScenarioDistribution, seed: u64) -> Self {
        ScenarioGenerator {
            dist,
            seed,
            rng: StdRng::seed_from_u64(seed),
            produced: 0,
        }
    }

    fn sample_family(&mut self) -> WorkloadFamily {
        let i = self.rng.gen_range(0..self.dist.families.len().max(1));
        *self.dist.families.get(i).unwrap_or(&WorkloadFamily::Ycsb)
    }

    fn sample_hardware(&mut self) -> simdb::HardwareSpec {
        let scales = &self.dist.hardware_scales;
        let f = if scales.is_empty() {
            1.0
        } else {
            scales[self.rng.gen_range(0..scales.len())]
        };
        simdb::HardwareSpec::default().scaled(f)
    }

    fn sample_tenant(&mut self, name: String) -> TenantSpec {
        let family = self.sample_family();
        let hardware = self.sample_hardware();
        let mut spec = TenantSpec::named(name, family, self.rng.next_u64());
        spec.hardware = hardware;
        spec.deterministic = true;
        spec
    }

    fn sample_drift(&mut self) -> WorkloadDrift {
        match self.rng.gen_range(0..DRIFT_KINDS) {
            0 => WorkloadDrift::RateRamp {
                start: self.rng.gen_range(0..3usize),
                over: self.rng.gen_range(0..6usize),
                from_scale: 1.0,
                to_scale: self.rng.gen_range(0.5..2.5),
            },
            1 => WorkloadDrift::FamilySwitch {
                at: self.rng.gen_range(0..3usize),
                to: self.sample_family(),
            },
            2 => WorkloadDrift::PeriodicFamilies {
                period: self.rng.gen_range(2..6usize),
                other: self.sample_family(),
            },
            3 => WorkloadDrift::Diurnal {
                period: self.rng.gen_range(4..12usize),
                amplitude: self.rng.gen_range(0.1..0.9),
                anchor: self.rng.gen_range(0..4usize),
            },
            4 => WorkloadDrift::FlashCrowd {
                at: self.rng.gen_range(0..4usize),
                peak: self.rng.gen_range(1.5..5.0),
                half_life: self.rng.gen_range(1..6usize),
            },
            _ => WorkloadDrift::SkewGrowth {
                start: self.rng.gen_range(0..3usize),
                over: self.rng.gen_range(0..8usize),
                to_skew: self.rng.gen_range(0.0..1.0),
                data_factor: self.rng.gen_range(0.5..4.0),
            },
        }
    }

    /// Samples an overload plan: tight serving budgets, then per-round either an
    /// admission burst (fresh tenants clumped into one round) or a queue storm (a
    /// telemetry read followed by a suggest flood sized past the queue capacity),
    /// weighted by [`EventWeights::admission_burst`] / [`EventWeights::queue_storm`].
    /// The leg's horizon appends a quiet tail long enough for the deepest degradation
    /// to unwind: queue drain plus three full recovery windows plus slack.
    fn sample_overload(&mut self, initial: &[TenantSpec], rounds: usize) -> OverloadPlan {
        let options = ServeOptions {
            max_tenants: initial.len() + self.rng.gen_range(1..3usize),
            max_tenants_per_worker: 8,
            queue_capacity: self.rng.gen_range(2..5usize),
            dispatch_per_round: self.rng.gen_range(1..3usize),
            deadline_rounds: self.rng.gen_range(1..4usize),
            pressure_window: self.rng.gen_range(2..4usize),
            recovery_window: self.rng.gen_range(2..4usize),
            snapshot_interval: 3,
        };
        let w = self.dist.event_weights.clone();
        let burst_w = w.admission_burst.max(0.0);
        let storm_w = w.queue_storm.max(0.0);
        let total = (burst_w + storm_w).max(f64::MIN_POSITIVE);
        let mut traffic = TrafficScript::new(format!("overload-{}-{}", self.seed, self.produced));
        let mut fresh = 0usize;
        for round in 0..rounds {
            if self.rng.gen_range(0.0..total) < burst_w {
                for _ in 0..self.rng.gen_range(2..4usize) {
                    fresh += 1;
                    let spec = self.sample_tenant(format!("o{fresh}"));
                    traffic = traffic.at(round, Request::Admit { spec });
                }
            } else {
                traffic = traffic.at(round, Request::TelemetryRead);
                let flood = options.queue_capacity + self.rng.gen_range(1..4usize);
                for _ in 0..flood {
                    let target = &initial[self.rng.gen_range(0..initial.len())];
                    traffic = traffic.at(
                        round,
                        Request::Suggest {
                            tenant: target.name.clone(),
                        },
                    );
                }
            }
        }
        let tail = options.queue_capacity
            + options.deadline_rounds
            + options.recovery_window * (DegradationTier::ALL.len() - 1)
            + 3;
        OverloadPlan {
            options,
            traffic,
            horizon: rounds + tail,
        }
    }

    /// Draws the next case from the stream.
    pub fn next_case(&mut self) -> FuzzCase {
        let dist = self.dist.clone();
        let n_initial = self
            .rng
            .gen_range(dist.min_initial_tenants.max(1)..=dist.max_initial_tenants.max(1));
        let rounds = self
            .rng
            .gen_range(dist.min_rounds.max(2)..=dist.max_rounds.max(2));
        let initial_tenants: Vec<TenantSpec> = (0..n_initial)
            .map(|i| self.sample_tenant(format!("t{i}")))
            .collect();

        // Event rounds are sampled then sorted, so `at_iteration`s are non-decreasing by
        // construction (firing order == declaration order).
        let n_events = self.rng.gen_range(0..=dist.max_events);
        let mut event_rounds: Vec<usize> = (0..n_events)
            .map(|_| self.rng.gen_range(1..rounds))
            .collect();
        event_rounds.sort_unstable();

        let mut live: Vec<String> = initial_tenants.iter().map(|t| t.name.clone()).collect();
        let mut departed: Vec<String> = Vec::new();
        let mut fresh = 0usize;
        let mut scenario = Scenario::new(format!("fuzz-{}-{}", self.seed, self.produced));
        let w = dist.event_weights.clone();

        for round in event_rounds {
            let weights = [
                w.admit,
                if live.len() > 1 { w.remove } else { 0.0 },
                w.migrate,
                w.resize,
                w.scale_data,
                w.drift,
                // Appended last with a 0.0 default, so pre-fault generator streams are
                // byte-identical (a zero weight never absorbs any of the pick mass).
                if dist.fault_kinds.is_empty() {
                    0.0
                } else {
                    w.inject_fault
                },
            ];
            let total: f64 = weights.iter().map(|x| x.max(0.0)).sum();
            let mut pick = if total > 0.0 {
                self.rng.gen_range(0.0..total)
            } else {
                0.0
            };
            let mut kind = 5usize; // fall back to drift when all weights are zero
            for (i, weight) in weights.iter().enumerate() {
                let weight = weight.max(0.0);
                if pick < weight {
                    kind = i;
                    break;
                }
                pick -= weight;
            }

            match kind {
                0 => {
                    // Re-admitting a departed name (warm-start path) half the time.
                    let name = if !departed.is_empty() && self.rng.gen_bool(0.5) {
                        departed.remove(self.rng.gen_range(0..departed.len()))
                    } else {
                        fresh += 1;
                        format!("g{fresh}")
                    };
                    let spec = self.sample_tenant(name.clone());
                    live.push(name);
                    scenario = scenario.at(round, ScenarioEvent::Admit { spec });
                }
                1 => {
                    let idx = self.rng.gen_range(0..live.len());
                    let tenant = live.remove(idx);
                    departed.push(tenant.clone());
                    scenario = scenario.at(round, ScenarioEvent::Remove { tenant });
                }
                2 => {
                    let tenant = live[self.rng.gen_range(0..live.len())].clone();
                    let hardware = self.sample_hardware();
                    scenario = scenario.at(round, ScenarioEvent::Migrate { tenant, hardware });
                }
                3 => {
                    let tenant = live[self.rng.gen_range(0..live.len())].clone();
                    let hardware = self.sample_hardware();
                    scenario = scenario.at(round, ScenarioEvent::Resize { tenant, hardware });
                }
                4 => {
                    let tenant = live[self.rng.gen_range(0..live.len())].clone();
                    let factor = self.rng.gen_range(0.5..3.0);
                    scenario = scenario.at(round, ScenarioEvent::ScaleData { tenant, factor });
                }
                6 => {
                    let tenant = live[self.rng.gen_range(0..live.len())].clone();
                    let kind = dist.fault_kinds[self.rng.gen_range(0..dist.fault_kinds.len())];
                    let schedule = if self.rng.gen_bool(0.5) {
                        FaultSchedule::Burst {
                            count: self.rng.gen_range(1..=4usize),
                        }
                    } else {
                        FaultSchedule::Seeded {
                            seed: self.rng.next_u64(),
                            rate: self.rng.gen_range(0.2..0.9),
                            duration: self.rng.gen_range(2..8usize),
                        }
                    };
                    scenario = scenario.at(
                        round,
                        ScenarioEvent::InjectFault {
                            tenant,
                            kind,
                            schedule,
                        },
                    );
                }
                _ => {
                    let drift = self.sample_drift();
                    if self
                        .rng
                        .gen_bool(dist.cohort_drift_probability.clamp(0.0, 1.0))
                    {
                        // Correlated cohort drift: the same change hits every live
                        // tenant at the same round (a region-wide traffic event).
                        for tenant in live.clone() {
                            scenario = scenario.at(
                                round,
                                ScenarioEvent::Drift {
                                    tenant,
                                    drift: drift.clone(),
                                },
                            );
                        }
                    } else {
                        let tenant = live[self.rng.gen_range(0..live.len())].clone();
                        scenario = scenario.at(round, ScenarioEvent::Drift { tenant, drift });
                    }
                }
            }
        }

        let cut_round = self.rng.gen_range(1..rounds);
        // Derived without touching the RNG (see `FuzzCase::kill_round`): mixing the seed
        // with the case index spreads kills across the horizon deterministically.
        let kill_round = 1 + (self.seed as usize).wrapping_add(self.produced * 7) % (rounds - 1);
        // Sampled last, and only when the overload weights are live, so older
        // distributions draw the exact RNG stream they always did.
        let overload = if w.admission_burst > 0.0 || w.queue_storm > 0.0 {
            Some(self.sample_overload(&initial_tenants, rounds))
        } else {
            None
        };
        let case = FuzzCase {
            name: scenario.name.clone(),
            seed: self.seed,
            rounds,
            cut_round,
            kill_round,
            initial_tenants,
            scenario,
            overload,
        };
        self.produced += 1;
        debug_assert_eq!(case.scenario.validate(&case.initial_names()), Ok(()));
        case
    }
}

/// Everything the property registry inspects about one executed case.
#[derive(Debug, Clone)]
pub struct RunArtifacts {
    /// The executed case.
    pub case: FuzzCase,
    /// Per-round trace of the reference (telemetry-enabled) leg.
    pub rounds: Vec<ScenarioRound>,
    /// End-of-run SLO reports of the reference leg.
    pub slo: Vec<SloReport>,
    /// The unsafe-rate ceiling tenants were held against.
    pub unsafe_rate_ceiling: f64,
    /// Iteration floor below which a tenant is exempt from the SLO property.
    pub min_iterations_for_slo: usize,
    /// Per-round knowledge-leakage audit failures (empty when clean).
    pub leakage: Vec<String>,
    /// Largest per-model observation count seen at any round end.
    pub max_model_observations: usize,
    /// The `ObservationBudget` window models were held against.
    pub max_observations_allowed: usize,
    /// Largest per-tenant model count seen at any round end.
    pub max_n_models: usize,
    /// Model-count ceiling from the distribution.
    pub max_models_allowed: usize,
    /// Merged journal events retained at the end of the reference leg.
    pub journal_events: usize,
    /// Upper bound on retained journal events (capacity × rings).
    pub journal_budget: usize,
    /// Whether the replay leg (snapshot/restore at the cut, telemetry off) ended with
    /// byte-identical snapshot JSON.
    pub replay_identical: bool,
    /// Short description of the replay comparison.
    pub replay_detail: String,
    /// Whether the crash leg (durable fleet killed at [`FuzzCase::kill_round`] with a
    /// torn WAL tail, recovered, run to the horizon) ended with byte-identical snapshot
    /// JSON. Vacuously `true` when `kill_round` is 0 (pre-fault corpus entries).
    pub crash_identical: bool,
    /// Short description of the crash-recovery comparison.
    pub crash_detail: String,
    /// Probation interval quarantined tenants are held against by the liveness
    /// property (a quarantined tenant must be probed at least this often, in rounds).
    pub probation_interval: usize,
    /// Per-round saturation flags of the overload leg (empty when the case carries no
    /// [`OverloadPlan`], which makes the overload properties pass vacuously).
    pub overload_saturated: Vec<bool>,
    /// Per-round degradation-tier vectors (one tier per live tenant, fleet order) of
    /// the overload leg.
    pub overload_tiers: Vec<Vec<DegradationTier>>,
    /// Labels of every request the overload leg shed.
    pub overload_shed: Vec<String>,
    /// Every tenant the serving leg accepted: the initial fleet plus each
    /// [`Response::Admitted`].
    pub overload_admitted: Vec<String>,
    /// Tenants alive in the fleet when the overload leg finished.
    pub overload_final_tenants: Vec<String>,
}

/// One failed property check.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Violation {
    /// Name of the violated property.
    pub property: String,
    /// What was observed.
    pub detail: String,
}

/// A named global property over [`RunArtifacts`].
pub struct Property {
    /// Stable property name (reported in violations and bench artifacts).
    pub name: &'static str,
    check: fn(&RunArtifacts) -> Option<String>,
}

/// The registry of global properties checked on every fuzzed run.
pub struct PropertyRegistry {
    properties: Vec<Property>,
}

impl PropertyRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        PropertyRegistry {
            properties: Vec::new(),
        }
    }

    /// Adds a property.
    pub fn push(&mut self, name: &'static str, check: fn(&RunArtifacts) -> Option<String>) {
        self.properties.push(Property { name, check });
    }

    /// The nine standard fleet-wide properties (see the module docs).
    pub fn standard() -> Self {
        let mut registry = PropertyRegistry::new();
        registry.push("replay_bit_identity", |a| {
            (!a.replay_identical).then(|| a.replay_detail.clone())
        });
        registry.push("unsafe_rate_ceiling", |a| {
            for slo in &a.slo {
                if slo.iterations >= a.min_iterations_for_slo && !slo.within_slo {
                    return Some(format!(
                        "tenant `{}`: unsafe_rate {:.3} > ceiling {:.3} after {} iterations",
                        slo.name, slo.unsafe_rate, slo.unsafe_ceiling, slo.iterations
                    ));
                }
            }
            None
        });
        registry.push("fairness_floor", |a| {
            for window in a.rounds.windows(2) {
                let (prev, cur) = (&window[0], &window[1]);
                for tenant in &cur.tenants {
                    // Both (re-)admission and migration start a fresh session whose
                    // iteration counter restarts (the trailing space keeps `t1` from
                    // matching `t10`'s events).
                    let rejoined = cur.fired.iter().any(|f| {
                        f.starts_with(&format!("admit {} ", tenant.name))
                            || f.starts_with(&format!("migrate {} ", tenant.name))
                    });
                    let before = prev.tenants.iter().find(|t| t.name == tenant.name);
                    // Progress counts faulted attempts: a tenant burning its slot on a
                    // failed measurement was scheduled, not starved. The floor applies
                    // only to tenants that *entered* the round healthy — backoff and
                    // quarantine legitimately pause or throttle a tenant (their own
                    // liveness is gated by `quarantine_liveness`).
                    let progress = tenant.iterations + tenant.faulted_count;
                    let floor = match before {
                        // A (re)admission this round starts a fresh count; it still
                        // must run at least once in its first round.
                        _ if rejoined => 1,
                        Some(b) if b.health == SessionHealth::Healthy => {
                            b.iterations + b.faulted_count + 1
                        }
                        Some(_) => 0,
                        None => 1,
                    };
                    if progress < floor {
                        return Some(format!(
                            "tenant `{}` starved at round {}: progress {} < floor {}",
                            tenant.name, cur.round, progress, floor
                        ));
                    }
                }
            }
            None
        });
        registry.push("no_knowledge_leakage", |a| {
            a.leakage.first().map(|first| {
                format!(
                    "{} leaked contribution(s); first: {}",
                    a.leakage.len(),
                    first
                )
            })
        });
        registry.push("bounded_budget", |a| {
            if a.max_model_observations > a.max_observations_allowed {
                return Some(format!(
                    "model observation count {} exceeds ObservationBudget window {}",
                    a.max_model_observations, a.max_observations_allowed
                ));
            }
            if a.max_n_models > a.max_models_allowed {
                return Some(format!(
                    "model count {} exceeds ceiling {}",
                    a.max_n_models, a.max_models_allowed
                ));
            }
            if a.journal_events > a.journal_budget {
                return Some(format!(
                    "journal retained {} events, ring budget {}",
                    a.journal_events, a.journal_budget
                ));
            }
            None
        });
        registry.push("crash_recovery_bit_identity", |a| {
            (!a.crash_identical).then(|| a.crash_detail.clone())
        });
        registry.push("quarantine_liveness", |a| {
            for round in &a.rounds {
                for tenant in &round.tenants {
                    if let SessionHealth::Quarantined {
                        rounds_since_probe, ..
                    } = tenant.health
                    {
                        if rounds_since_probe > a.probation_interval.max(1) {
                            return Some(format!(
                                "tenant `{}` quarantined without a probe for {} rounds at \
                                 round {} (probation interval {})",
                                tenant.name, rounds_since_probe, round.round, a.probation_interval
                            ));
                        }
                    }
                }
            }
            None
        });
        registry.push("no_silent_shed_loss", |a| {
            // Shedding may only ever drop reconstructible work (telemetry reads) or
            // untrusted work (quarantined suggests) — never an admission or removal.
            for label in &a.overload_shed {
                if label.starts_with("admit") || label.starts_with("remove") {
                    return Some(format!(
                        "backpressure shed a non-sheddable request: `{label}`"
                    ));
                }
            }
            // And every tenant the front end said yes to is still in the fleet at the
            // end (the generated traffic never removes tenants).
            for name in &a.overload_admitted {
                if !a.overload_final_tenants.contains(name) {
                    return Some(format!(
                        "tenant `{name}` was admitted but silently vanished under load"
                    ));
                }
            }
            None
        });
        registry.push("degradation_monotone_and_recovers", |a| {
            // Within a run of saturated rounds the fleet may only descend the ladder;
            // and once the storm is over, the quiet tail must walk everyone back to
            // full service.
            let mut prev: Option<(bool, DegradationTier)> = None;
            for (i, (saturated, tiers)) in a
                .overload_saturated
                .iter()
                .zip(&a.overload_tiers)
                .enumerate()
            {
                let fleet_max = tiers.iter().copied().max().unwrap_or(DegradationTier::Full);
                if let Some((prev_saturated, prev_max)) = prev {
                    if prev_saturated && *saturated && fleet_max < prev_max {
                        return Some(format!(
                            "round {i}: fleet tier rose {} -> {} inside a pressure window",
                            prev_max.label(),
                            fleet_max.label()
                        ));
                    }
                }
                prev = Some((*saturated, fleet_max));
            }
            if let Some(last) = a.overload_tiers.last() {
                if let Some(stuck) = last.iter().find(|t| **t != DegradationTier::Full) {
                    return Some(format!(
                        "a tenant is still at tier {} after the quiet tail",
                        stuck.label()
                    ));
                }
            }
            None
        });
        registry
    }

    /// Names of the registered properties, in check order.
    pub fn names(&self) -> Vec<&'static str> {
        self.properties.iter().map(|p| p.name).collect()
    }

    /// Runs every property; returns the violations (empty = all green).
    pub fn check_all(&self, artifacts: &RunArtifacts) -> Vec<Violation> {
        self.properties
            .iter()
            .filter_map(|p| {
                (p.check)(artifacts).map(|detail| Violation {
                    property: p.name.to_string(),
                    detail,
                })
            })
            .collect()
    }
}

impl Default for PropertyRegistry {
    fn default() -> Self {
        PropertyRegistry::standard()
    }
}

/// The fleet options every fuzzed case runs with: reduced tuner budgets (cheap
/// iterations while exercising every code path) on a small worker pool.
pub fn fuzz_fleet_options() -> FleetOptions {
    FleetOptions {
        workers: 2,
        tuner: small_tuner_options(),
        ..Default::default()
    }
}

/// The `(hardware class, effective family)` coordinate a session merges knowledge into
/// at its current iteration.
fn merge_coordinate(session: &crate::tenant::TenantSession) -> (String, String) {
    let spec = session.spec();
    let family = spec.family_at(session.iteration());
    let key = PoolKey::for_tenant(&spec.hardware, family);
    (key.hardware_class, key.family.label().to_string())
}

/// Per-pool contribution counts keyed by `(hardware class, family label)`.
fn pool_contributions(svc: &FleetService) -> BTreeMap<(String, String), usize> {
    svc.knowledge()
        .pools()
        .map(|(key, pool)| {
            (
                (key.hardware_class.clone(), key.family.label().to_string()),
                pool.contributions,
            )
        })
        .collect()
}

/// What one executed leg recorded (only populated on auditing legs).
#[derive(Default)]
struct LegAudit {
    rounds: Vec<ScenarioRound>,
    leakage: Vec<String>,
    max_model_observations: usize,
    max_n_models: usize,
}

/// Builds a fresh fleet for the case and runs it through the first `rounds_to_run`
/// rounds of the timeline. When `audit` is set, the leg records the per-round trace,
/// the knowledge-leakage audit and the budget high-water marks.
fn run_leg(
    case: &FuzzCase,
    telemetry: TelemetryHandle,
    rounds_to_run: usize,
    audit: bool,
) -> Result<(FleetService, LegAudit), String> {
    let mut svc = FleetService::new(fuzz_fleet_options());
    svc.set_telemetry(telemetry);
    for spec in &case.initial_tenants {
        svc.admit(spec.clone()).map_err(|e| e.to_string())?;
    }
    let outcome = continue_leg(&mut svc, case, rounds_to_run, audit)?;
    Ok((svc, outcome))
}

/// Drives an already-built service through `rounds_to_run` further rounds of the case's
/// timeline; steps fire off the service's (snapshotted) round counter, so a restored
/// service continues exactly where the cut left off.
fn continue_leg(
    svc: &mut FleetService,
    case: &FuzzCase,
    rounds_to_run: usize,
    audit: bool,
) -> Result<LegAudit, String> {
    let mut records = Vec::new();
    let mut leakage = Vec::new();
    let mut max_model_observations = 0usize;
    let mut max_n_models = 0usize;
    let mut prev_contributions = if audit {
        pool_contributions(svc)
    } else {
        BTreeMap::new()
    };

    for _ in 0..rounds_to_run {
        let round = svc.rounds();
        let mut fired = Vec::new();
        let mut legit: BTreeSet<(String, String)> = BTreeSet::new();
        for step in case.scenario.due_at(round) {
            if audit {
                // Remove/Migrate merge the departing session's pending knowledge
                // *before* the tenant list changes — record its coordinate now.
                if let ScenarioEvent::Remove { tenant } | ScenarioEvent::Migrate { tenant, .. } =
                    &step.event
                {
                    if let Some(session) = svc.session(tenant) {
                        legit.insert(merge_coordinate(session));
                    }
                }
            }
            fired.push(step.event.apply(svc)?);
        }
        let iterations = svc.run_round();
        let summaries = svc.summaries();
        if audit {
            // End-of-round merges key by the tenant's post-round iteration; reading the
            // coordinate after the round reproduces the merge key exactly.
            for summary in &summaries {
                if let Some(session) = svc.session(&summary.name) {
                    legit.insert(merge_coordinate(session));
                    max_n_models = max_n_models.max(session.model_count());
                    for count in session.model_observation_counts() {
                        max_model_observations = max_model_observations.max(count);
                    }
                }
            }
            let now = pool_contributions(svc);
            for (coord, count) in &now {
                let before = prev_contributions.get(coord).copied().unwrap_or(0);
                if *count > before && !legit.contains(coord) {
                    leakage.push(format!(
                        "round {round}: pool {}/{} gained {} contribution(s) with no tenant at \
                         that coordinate",
                        coord.0,
                        coord.1,
                        count - before
                    ));
                }
            }
            prev_contributions = now;
            records.push(ScenarioRound {
                round,
                fired,
                iterations,
                tenants: summaries,
            });
        }
    }

    Ok(LegAudit {
        rounds: records,
        leakage,
        max_model_observations,
        max_n_models,
    })
}

/// Runs one case through both legs and collects the artifacts the registry inspects.
///
/// The **reference leg** runs the full horizon with telemetry enabled (its SLO reports
/// feed the unsafe-rate property, its journal feeds the bounded-budget property) and
/// carries the knowledge-leakage audit. The **replay leg** runs the same timeline with
/// telemetry *disabled*, snapshots at [`FuzzCase::cut_round`], restores from the JSON
/// and finishes — its final snapshot bytes must equal the reference leg's, which gates
/// replay determinism and telemetry's no-feedback contract at once.
pub fn run_fuzz_case(case: &FuzzCase, dist: &ScenarioDistribution) -> Result<RunArtifacts, String> {
    case.scenario
        .validate(&case.initial_names())
        .map_err(|e| e.to_string())?;
    if case.rounds < 2 || case.cut_round == 0 || case.cut_round >= case.rounds {
        return Err(format!(
            "case `{}`: cut_round {} outside [1, {})",
            case.name, case.cut_round, case.rounds
        ));
    }

    let config = TelemetryConfig {
        unsafe_rate_ceiling: dist.unsafe_rate_ceiling,
        ..Default::default()
    };
    let telemetry = TelemetryHandle::with_clock(Arc::new(MonotonicClock::new()), config);
    let (reference_svc, reference) = run_leg(case, telemetry, case.rounds, true)?;
    let reference_snapshot = reference_svc.canonical_snapshot_json();
    let slo = reference_svc.slo_reports();
    let journal_events = reference_svc.telemetry_events().len();
    let journal_budget = config.journal_capacity * (1 + reference_svc.n_tenants());

    // Replay leg: telemetry off, interrupted by a snapshot/restore at the cut.
    let (replay_svc, _) = run_leg(case, TelemetryHandle::disabled(), case.cut_round, false)?;
    let cut_json = replay_svc.canonical_snapshot_json();
    let mut resumed = FleetService::restore_json(&cut_json).map_err(|e| e.to_string())?;
    continue_leg(&mut resumed, case, case.rounds - case.cut_round, false)?;
    let replay_snapshot = resumed.canonical_snapshot_json();

    // Crash leg: a durable fleet killed after `kill_round` with a fuzzed torn tail,
    // recovered from surviving storage, run to the horizon. Snapshots never carry
    // telemetry, so its bytes are comparable to the reference leg's.
    let (crash_identical, crash_detail) = if case.kill_round >= 1 && case.kill_round < case.rounds {
        run_crash_leg(case, &reference_snapshot)?
    } else {
        (true, format!("skipped (kill_round {})", case.kill_round))
    };

    // Overload leg: the case's initial fleet behind the serving front end, hammered by
    // the generated admission bursts and queue storms, then left alone for the quiet
    // tail. Feeds the shed-loss and degradation properties.
    let overload = match &case.overload {
        Some(plan) => run_overload_leg(case, plan)?,
        None => OverloadAudit::default(),
    };

    let replay_identical = reference_snapshot == replay_snapshot;
    let replay_detail = if replay_identical {
        format!("snapshots identical ({} bytes)", reference_snapshot.len())
    } else {
        let diverged = reference_snapshot
            .bytes()
            .zip(replay_snapshot.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| reference_snapshot.len().min(replay_snapshot.len()));
        format!(
            "snapshots diverge at byte {} (reference {} bytes, replay {} bytes; cut at round {})",
            diverged,
            reference_snapshot.len(),
            replay_snapshot.len(),
            case.cut_round
        )
    };

    Ok(RunArtifacts {
        case: case.clone(),
        rounds: reference.rounds,
        slo,
        unsafe_rate_ceiling: dist.unsafe_rate_ceiling,
        min_iterations_for_slo: dist.min_iterations_for_slo,
        leakage: reference.leakage,
        max_model_observations: reference.max_model_observations,
        max_observations_allowed: fuzz_fleet_options()
            .tuner
            .cluster
            .max_observations_per_model,
        max_n_models: reference.max_n_models,
        max_models_allowed: dist.max_models,
        journal_events,
        journal_budget,
        replay_identical,
        replay_detail,
        crash_identical,
        crash_detail,
        probation_interval: fuzz_fleet_options().retry.probation_interval,
        overload_saturated: overload.saturated,
        overload_tiers: overload.tiers,
        overload_shed: overload.shed,
        overload_admitted: overload.admitted,
        overload_final_tenants: overload.final_tenants,
    })
}

/// What the overload leg recorded.
#[derive(Default)]
struct OverloadAudit {
    saturated: Vec<bool>,
    tiers: Vec<Vec<DegradationTier>>,
    shed: Vec<String>,
    admitted: Vec<String>,
    final_tenants: Vec<String>,
}

/// Runs the overload leg: the case's initial tenants behind a [`FleetServer`] under the
/// plan's traffic for the plan's horizon (storm plus quiet tail). Telemetry is enabled
/// so shed requests can be audited by label from the [`EventKind::RequestShed`] journal
/// entries; the no-feedback contract keeps that observation-free.
fn run_overload_leg(case: &FuzzCase, plan: &OverloadPlan) -> Result<OverloadAudit, String> {
    let mut svc = FleetService::new(fuzz_fleet_options());
    svc.set_telemetry(TelemetryHandle::enabled());
    for spec in &case.initial_tenants {
        svc.admit(spec.clone()).map_err(|e| e.to_string())?;
    }
    let mut server = FleetServer::new(svc, plan.options);
    let mut audit = OverloadAudit {
        admitted: case.initial_names(),
        ..Default::default()
    };
    for _ in 0..plan.horizon {
        let report = server.run_round(&plan.traffic);
        audit.saturated.push(report.saturated);
        audit.tiers.push(
            server
                .service()
                .sessions()
                .iter()
                .map(|s| s.degradation())
                .collect(),
        );
        for (_, response) in &report.responses {
            if let Response::Admitted { tenant, .. } = response {
                audit.admitted.push(tenant.clone());
            }
        }
    }
    audit.shed = server
        .service()
        .telemetry_events()
        .into_iter()
        .filter(|e| e.kind == telemetry::EventKind::RequestShed)
        .map(|e| e.subject)
        .collect();
    audit.final_tenants = server
        .service()
        .sessions()
        .iter()
        .map(|s| s.spec().name.clone())
        .collect();
    Ok(audit)
}

/// Runs the crash leg: a [`DurableFleet`] killed after [`FuzzCase::kill_round`] rounds,
/// its WAL torn by a kill-round-derived number of bytes (covering clean cuts, torn
/// frames and whole lost entries), recovered from the surviving storage and run to the
/// horizon. Returns whether its final snapshot equals the reference leg's, with detail.
fn run_crash_leg(case: &FuzzCase, reference_snapshot: &str) -> Result<(bool, String), String> {
    let mut svc = FleetService::new(fuzz_fleet_options());
    for spec in &case.initial_tenants {
        svc.admit(spec.clone()).map_err(|e| e.to_string())?;
    }
    let mut durable = DurableFleet::new(svc, case.scenario.clone());
    durable
        .run_rounds(case.kill_round)
        .map_err(|e| e.to_string())?;
    let torn = (case.kill_round * 13) % (FRAME_LEN + 7);
    let storage = durable.crash(torn);
    let (mut recovered, _report) =
        DurableFleet::recover(&storage, case.scenario.clone(), TelemetryHandle::disabled())
            .map_err(|e| format!("recovery after kill at round {}: {e}", case.kill_round))?;
    recovered
        .run_rounds(case.rounds - recovered.service().rounds())
        .map_err(|e| e.to_string())?;
    let crash_snapshot = recovered.service().canonical_snapshot_json();
    if crash_snapshot == reference_snapshot {
        Ok((
            true,
            format!(
                "recovered run identical (killed at round {}, {torn} WAL bytes torn)",
                case.kill_round
            ),
        ))
    } else {
        let diverged = reference_snapshot
            .bytes()
            .zip(crash_snapshot.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| reference_snapshot.len().min(crash_snapshot.len()));
        Ok((
            false,
            format!(
                "recovered snapshot diverges at byte {diverged} (killed at round {}, {torn} WAL \
                 bytes torn)",
                case.kill_round
            ),
        ))
    }
}

/// Which tenant name an event addresses (the admitted name for `Admit`).
fn event_subject(event: &ScenarioEvent) -> &str {
    match event {
        ScenarioEvent::Admit { spec } => &spec.name,
        ScenarioEvent::Remove { tenant }
        | ScenarioEvent::Migrate { tenant, .. }
        | ScenarioEvent::Resize { tenant, .. }
        | ScenarioEvent::ScaleData { tenant, .. }
        | ScenarioEvent::Drift { tenant, .. }
        | ScenarioEvent::InjectFault { tenant, .. } => tenant,
    }
}

/// Returns a structurally valid copy of `case` with the horizon truncated to
/// `rounds` (steps at or past the new horizon dropped, cut clamped), or `None`
/// when the truncation is impossible (`rounds < 2`).
fn truncate_horizon(case: &FuzzCase, rounds: usize) -> Option<FuzzCase> {
    if rounds < 2 || rounds >= case.rounds {
        return None;
    }
    let mut candidate = case.clone();
    candidate.rounds = rounds;
    candidate.cut_round = candidate.cut_round.clamp(1, rounds - 1);
    // A zero kill_round (crash leg disabled) stays zero through shrinking.
    candidate.kill_round = candidate.kill_round.min(rounds - 1);
    candidate
        .scenario
        .steps
        .retain(|s: &ScenarioStep| s.at_iteration < rounds);
    candidate
        .scenario
        .validate(&candidate.initial_names())
        .ok()?;
    Some(candidate)
}

/// Minimizes a failing case: `fails` must return `true` for `case` (the caller
/// established the failure) and is re-evaluated on every candidate; only candidates
/// that still fail are kept.
///
/// Greedy delta-debugging to a fixed point, in three moves —
///
/// 1. **shorten the horizon** (halving, then stepping down), dropping steps past it;
/// 2. **drop single events**, skipping drops that break [`Scenario::validate`];
/// 3. **shrink the fleet**: drop an initial tenant together with every event that
///    addresses it (keeping at least one tenant).
///
/// Deterministic and bounded: candidates are tried in a fixed order and at most
/// `max_attempts` evaluations of `fails` run. Returns the smallest failing case found
/// (at worst the input itself).
pub fn shrink_case<F>(case: &FuzzCase, fails: F, max_attempts: usize) -> FuzzCase
where
    F: Fn(&FuzzCase) -> bool,
{
    let mut best = case.clone();
    let mut attempts = 0usize;
    let mut made_progress = true;
    while made_progress && attempts < max_attempts {
        made_progress = false;

        // 1. Horizon truncation: try halving, then the smallest horizon covering the
        // remaining steps.
        let last_step_round = best
            .scenario
            .steps
            .iter()
            .map(|s| s.at_iteration + 1)
            .max()
            .unwrap_or(2);
        for target in [best.rounds / 2, last_step_round.max(2)] {
            if attempts >= max_attempts {
                break;
            }
            if let Some(candidate) = truncate_horizon(&best, target) {
                attempts += 1;
                if fails(&candidate) {
                    best = candidate;
                    made_progress = true;
                    break;
                }
            }
        }
        if made_progress {
            continue;
        }

        // 2. Single-event drops.
        for i in 0..best.scenario.steps.len() {
            if attempts >= max_attempts {
                break;
            }
            let mut candidate = best.clone();
            candidate.scenario.steps.remove(i);
            if candidate
                .scenario
                .validate(&candidate.initial_names())
                .is_err()
            {
                continue;
            }
            attempts += 1;
            if fails(&candidate) {
                best = candidate;
                made_progress = true;
                break;
            }
        }
        if made_progress {
            continue;
        }

        // 3. Initial-tenant drops (with their event cones).
        if best.initial_tenants.len() > 1 {
            for i in 0..best.initial_tenants.len() {
                if attempts >= max_attempts {
                    break;
                }
                let mut candidate = best.clone();
                let name = candidate.initial_tenants.remove(i).name;
                candidate
                    .scenario
                    .steps
                    .retain(|s| event_subject(&s.event) != name);
                if candidate
                    .scenario
                    .validate(&candidate.initial_names())
                    .is_err()
                {
                    continue;
                }
                attempts += 1;
                if fails(&candidate) {
                    best = candidate;
                    made_progress = true;
                    break;
                }
            }
        }
    }
    best
}

/// One committed entry of the `tests/regressions/` corpus: a minimized case, the
/// distribution it was drawn from, and the story of why it is pinned.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RegressionCase {
    /// Corpus entry name (also the file stem).
    pub name: String,
    /// What this case once broke and how it was found.
    pub description: String,
    /// The distribution the case was drawn from (its property parameters — SLO ceiling,
    /// model bounds — are re-applied on replay).
    pub distribution: ScenarioDistribution,
    /// The minimized case.
    pub case: FuzzCase,
}

impl RegressionCase {
    /// Serializes the corpus entry to pretty JSON (the committed artifact format).
    pub fn to_json(&self) -> Result<String, String> {
        serde_json::to_string_pretty(self).map_err(|e| e.to_string())
    }

    /// Deserializes a corpus entry from [`RegressionCase::to_json`] output.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }

    /// Replays the entry against the standard property registry; returns the violations
    /// (empty = the regression stays fixed).
    pub fn replay(&self) -> Result<Vec<Violation>, String> {
        let artifacts = run_fuzz_case(&self.case, &self.distribution)?;
        Ok(PropertyRegistry::standard().check_all(&artifacts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_and_produces_valid_cases() {
        let dist = ScenarioDistribution::default();
        let mut a = ScenarioGenerator::new(dist.clone(), 42);
        let mut b = ScenarioGenerator::new(dist, 42);
        for _ in 0..20 {
            let ca = a.next_case();
            let cb = b.next_case();
            assert_eq!(ca, cb, "same seed must yield the same case stream");
            assert_eq!(ca.scenario.validate(&ca.initial_names()), Ok(()));
            assert!(ca.rounds >= 2);
            assert!(ca.cut_round >= 1 && ca.cut_round < ca.rounds);
            assert!(!ca.initial_tenants.is_empty());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let dist = ScenarioDistribution::default();
        let mut a = ScenarioGenerator::new(dist.clone(), 1);
        let mut b = ScenarioGenerator::new(dist, 2);
        let diverged = (0..10).any(|_| a.next_case().scenario != b.next_case().scenario);
        assert!(
            diverged,
            "different seeds should explore different timelines"
        );
    }

    #[test]
    fn distribution_and_case_serde_round_trip() {
        let dist = ScenarioDistribution::default();
        let json = serde_json::to_string(&dist).unwrap();
        assert_eq!(
            serde_json::from_str::<ScenarioDistribution>(&json).unwrap(),
            dist
        );
        let case = ScenarioGenerator::new(dist, 7).next_case();
        let json = case.to_json().unwrap();
        assert_eq!(FuzzCase::from_json(&json).unwrap(), case);
    }

    #[test]
    fn standard_registry_names_are_stable() {
        assert_eq!(
            PropertyRegistry::standard().names(),
            vec![
                "replay_bit_identity",
                "unsafe_rate_ceiling",
                "fairness_floor",
                "no_knowledge_leakage",
                "bounded_budget",
                "crash_recovery_bit_identity",
                "quarantine_liveness",
                "no_silent_shed_loss",
                "degradation_monotone_and_recovers",
            ]
        );
    }

    #[test]
    fn overload_free_distributions_sample_no_overload_plan() {
        // Zero overload weights (every pre-existing distribution) must neither attach a
        // plan nor perturb the generator stream relative to the historical draws.
        let mut generator = ScenarioGenerator::new(ScenarioDistribution::default(), 101);
        for _ in 0..10 {
            assert!(generator.next_case().overload.is_none());
        }
        let mut faulted = ScenarioGenerator::new(ScenarioDistribution::with_faults(), 101);
        for _ in 0..10 {
            assert!(faulted.next_case().overload.is_none());
        }
    }

    #[test]
    fn overload_distribution_schedules_bursts_and_storms() {
        let dist = ScenarioDistribution::with_overload();
        let mut generator = ScenarioGenerator::new(dist, 31);
        let mut bursts = 0usize;
        let mut storms = 0usize;
        for _ in 0..20 {
            let case = generator.next_case();
            let plan = case.overload.expect("overload weights must attach a plan");
            assert!(
                plan.horizon > case.rounds,
                "the plan must have a quiet tail"
            );
            assert!(
                plan.traffic.steps.iter().all(|s| s.at_round < case.rounds),
                "no traffic may land in the quiet tail"
            );
            bursts += plan
                .traffic
                .steps
                .iter()
                .filter(|s| matches!(s.request, Request::Admit { .. }))
                .count();
            storms += plan
                .traffic
                .steps
                .iter()
                .filter(|s| matches!(s.request, Request::Suggest { .. }))
                .count();
        }
        assert!(bursts >= 5, "admission bursts should occur (got {bursts})");
        assert!(storms >= 5, "queue storms should occur (got {storms})");
    }

    #[test]
    fn fuzzed_overload_case_passes_all_standard_properties() {
        let dist = ScenarioDistribution {
            max_rounds: 6,
            max_initial_tenants: 2,
            max_events: 3,
            ..ScenarioDistribution::with_overload()
        };
        let mut generator = ScenarioGenerator::new(dist.clone(), 13);
        let case = (0..20)
            .map(|_| generator.next_case())
            .find(|c| {
                c.overload
                    .as_ref()
                    .is_some_and(|p| !p.traffic.steps.is_empty())
            })
            .expect("the overload distribution produces traffic");
        let artifacts = run_fuzz_case(&case, &dist).unwrap();
        let violations = PropertyRegistry::standard().check_all(&artifacts);
        assert!(violations.is_empty(), "violations: {violations:?}");
        assert!(
            !artifacts.overload_saturated.is_empty(),
            "the overload leg must have run"
        );
        assert_eq!(
            artifacts.overload_saturated.len(),
            case.overload.as_ref().unwrap().horizon
        );
    }

    #[test]
    fn fault_free_streams_are_unchanged_by_the_fault_extension() {
        // The pre-fault corpus regenerates byte-identically: with fault events disabled
        // (the default), the generator draws the exact same stream it always did, and
        // the only new case field is the RNG-free kill_round.
        let dist = ScenarioDistribution::default();
        let mut generator = ScenarioGenerator::new(dist, 101);
        for _ in 0..20 {
            let case = generator.next_case();
            assert!(case
                .scenario
                .steps
                .iter()
                .all(|s| !matches!(s.event, ScenarioEvent::InjectFault { .. })));
            assert!(case.kill_round >= 1 && case.kill_round < case.rounds);
        }
    }

    #[test]
    fn fault_enabled_distribution_schedules_fault_events() {
        let dist = ScenarioDistribution::with_faults();
        let mut generator = ScenarioGenerator::new(dist, 77);
        let faults = (0..40)
            .flat_map(|_| generator.next_case().scenario.steps)
            .filter(|s| matches!(s.event, ScenarioEvent::InjectFault { .. }))
            .count();
        assert!(
            faults >= 5,
            "with_faults() should schedule fault events regularly (got {faults})"
        );
    }

    #[test]
    fn fuzzed_fault_case_passes_all_standard_properties() {
        let dist = ScenarioDistribution {
            max_rounds: 6,
            max_initial_tenants: 2,
            max_events: 5,
            ..ScenarioDistribution::with_faults()
        };
        let mut generator = ScenarioGenerator::new(dist.clone(), 11);
        let case = (0..30)
            .map(|_| generator.next_case())
            .find(|c| {
                c.scenario
                    .steps
                    .iter()
                    .any(|s| matches!(s.event, ScenarioEvent::InjectFault { .. }))
            })
            .expect("the fault distribution produces fault events");
        let artifacts = run_fuzz_case(&case, &dist).unwrap();
        let violations = PropertyRegistry::standard().check_all(&artifacts);
        assert!(violations.is_empty(), "violations: {violations:?}");
        assert!(artifacts.crash_identical, "{}", artifacts.crash_detail);
    }

    #[test]
    fn shrinker_minimizes_a_seeded_fault_to_a_handful_of_events() {
        // Intentionally-broken property: "no scenario may ever fire a resize event".
        // The shrinker must reduce a organically generated case that happens to carry a
        // resize down to (at most) a handful of steps while keeping the fault.
        let dist = ScenarioDistribution::default();
        let mut generator = ScenarioGenerator::new(dist, 1234);
        let case = (0..200)
            .map(|_| generator.next_case())
            .find(|c| {
                c.scenario
                    .steps
                    .iter()
                    .any(|s| matches!(s.event, ScenarioEvent::Resize { .. }))
                    && c.scenario.steps.len() > 3
            })
            .expect("the distribution produces resize events");
        let fails = |c: &FuzzCase| {
            c.scenario
                .steps
                .iter()
                .any(|s| matches!(s.event, ScenarioEvent::Resize { .. }))
        };
        assert!(fails(&case));
        let minimized = shrink_case(&case, fails, 400);
        assert!(fails(&minimized), "shrinking must preserve the failure");
        assert!(
            minimized.scenario.steps.len() <= 10,
            "minimized scenario still has {} events",
            minimized.scenario.steps.len()
        );
        assert!(minimized.scenario.steps.len() < case.scenario.steps.len());
        assert_eq!(minimized.initial_tenants.len(), 1);
        assert_eq!(
            minimized.scenario.validate(&minimized.initial_names()),
            Ok(())
        );
    }

    #[test]
    fn truncate_horizon_drops_late_steps_and_clamps_the_cut() {
        let dist = ScenarioDistribution::default();
        let mut generator = ScenarioGenerator::new(dist, 5);
        let case = (0..50)
            .map(|_| generator.next_case())
            .find(|c| c.rounds >= 5 && !c.scenario.steps.is_empty())
            .unwrap();
        let truncated = truncate_horizon(&case, 3).unwrap();
        assert_eq!(truncated.rounds, 3);
        assert!(truncated.cut_round >= 1 && truncated.cut_round < 3);
        assert!(truncated.scenario.steps.iter().all(|s| s.at_iteration < 3));
        assert!(truncate_horizon(&case, 1).is_none());
    }

    #[test]
    fn one_fuzzed_case_passes_all_standard_properties() {
        let dist = ScenarioDistribution {
            max_rounds: 5,
            max_initial_tenants: 2,
            max_events: 4,
            ..Default::default()
        };
        let mut generator = ScenarioGenerator::new(dist.clone(), 99);
        let case = generator.next_case();
        let artifacts = run_fuzz_case(&case, &dist).unwrap();
        let violations = PropertyRegistry::standard().check_all(&artifacts);
        assert!(violations.is_empty(), "violations: {violations:?}");
        assert!(artifacts.replay_identical);
        assert_eq!(artifacts.rounds.len(), case.rounds);
        assert!(artifacts.max_model_observations <= artifacts.max_observations_allowed);
    }

    #[test]
    fn regression_case_serde_round_trips() {
        let dist = ScenarioDistribution::default();
        let case = ScenarioGenerator::new(dist.clone(), 3).next_case();
        let entry = RegressionCase {
            name: "example".into(),
            description: "round trip".into(),
            distribution: dist,
            case,
        };
        let json = entry.to_json().unwrap();
        assert_eq!(RegressionCase::from_json(&json).unwrap(), entry);
    }
}
