//! The scenario engine: scripted environment change against a running fleet.
//!
//! The paper's setting is *dynamic*: workloads drift, data volumes grow, instances get
//! resized and tenants come and go. A [`Scenario`] makes such a timeline a first-class,
//! reproducible artifact — a declarative list of [`ScenarioStep`]s (`{at_iteration,
//! event}`) that [`run_scenario`] fires against a [`FleetService`] at the start of the
//! named rounds.
//!
//! # Determinism contract
//!
//! Scenario execution extends the fleet's bit-identical replay guarantee to environment
//! change:
//!
//! * Events are a pure function of the service's round counter — no wall clock, no RNG.
//!   Steps fire when `FleetService::rounds()` equals their `at_iteration`, in declaration
//!   order within a round, *before* the round's sessions run.
//! * Every event's effect lands in serializable state: drifts accumulate in the tenant's
//!   [`TenantSpec`], hardware resizes update the spec + instance + tuner (all
//!   snapshotted), churn updates the tenant list and the scheduler's grant totals.
//! * Therefore a fleet snapshot taken *between any two rounds* of a scenario and
//!   restored elsewhere replays the remaining rounds bit-identically when driven by the
//!   same `Scenario` value — the restored round counter re-anchors the event timeline.
//!   `prop_mid_scenario_snapshot_replays_bit_identically` (`tests/scenario_engine.rs`)
//!   tests exactly this.
//!
//! Scenarios are serde round-trippable, so a timeline can be stored next to the results
//! it produced and replayed later.

use crate::service::FleetService;
use crate::tenant::{TenantSpec, TenantSummary, WorkloadDrift};
use simdb::{FaultKind, HardwareSpec};

/// When the injected faults of a [`ScenarioEvent::InjectFault`] strike.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum FaultSchedule {
    /// The tenant's next `count` measurement attempts fault, back to back.
    Burst {
        /// Consecutive faulted attempts.
        count: usize,
    },
    /// Each of the tenant's next `duration` measurement attempts faults independently
    /// with probability `rate`, drawn from a dedicated `StdRng` seeded with `seed` (so
    /// the fault stream never perturbs the tenant's own noise stream).
    Seeded {
        /// Seed of the fault-plan RNG.
        seed: u64,
        /// Per-attempt fault probability in `[0, 1]`.
        rate: f64,
        /// Length of the fault window in measurement attempts.
        duration: usize,
    },
}

/// One scripted environment change.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ScenarioEvent {
    /// A tenant joins the fleet (warm-started from the knowledge base when enabled).
    Admit {
        /// The joining tenant's spec.
        spec: TenantSpec,
    },
    /// The named tenant leaves; its pending knowledge is merged into the knowledge base
    /// first, so a later rejoin warm-starts from what it learned.
    Remove {
        /// Name of the leaving tenant.
        tenant: String,
    },
    /// The named tenant migrates to a new hardware class: it leaves (knowledge drained to
    /// the base) and immediately rejoins with the new hardware and a fresh tuning session
    /// — re-initialization-with-warm-start, the hardware-change strategy of §5.1.2. The
    /// rejoined spec is re-based on the workload the tenant currently runs (effective
    /// family, drift anchors cleared) and the instance's data volume is carried along;
    /// the workload stream restarts from iteration 0 (see
    /// [`FleetService::migrate_tenant`]).
    Migrate {
        /// Name of the migrating tenant.
        tenant: String,
        /// Hardware class migrated to.
        hardware: HardwareSpec,
    },
    /// The named tenant's instance is resized *in place*: the performance model and the
    /// white-box rules see the new hardware immediately, the learned models carry over.
    Resize {
        /// Name of the resized tenant.
        tenant: String,
        /// The new hardware.
        hardware: HardwareSpec,
    },
    /// The named tenant's data volume is scaled by `factor` (bulk load / archival purge).
    ScaleData {
        /// Name of the affected tenant.
        tenant: String,
        /// Multiplicative change of the tracked data size.
        factor: f64,
    },
    /// A workload drift is applied to the named tenant. Iteration anchors inside `drift`
    /// are relative to the tenant's iteration at the moment the event fires (see
    /// [`WorkloadDrift::anchored_at`]); `FamilySwitch { at: 0, .. }` switches immediately.
    Drift {
        /// Name of the drifting tenant.
        tenant: String,
        /// The drift transform to apply.
        drift: WorkloadDrift,
    },
    /// Measurement faults are scheduled against the named tenant's instance: its next
    /// attempts fail, time out, or report corrupted scores according to `schedule` (see
    /// [`simdb::FaultPlan`]). The fault plan lands in the instance's snapshot state, so
    /// the injection replays bit-identically like every other event.
    InjectFault {
        /// Name of the afflicted tenant.
        tenant: String,
        /// What kind of fault strikes.
        kind: FaultKind,
        /// When the faults strike.
        schedule: FaultSchedule,
    },
}

impl ScenarioEvent {
    /// Applies the event to a fleet and returns a short human-readable description of
    /// what happened (used in reports and bench curves). Fails when the event names a
    /// tenant that is not currently in the fleet.
    pub fn apply(&self, svc: &mut FleetService) -> Result<String, String> {
        match self {
            ScenarioEvent::Admit { spec } => {
                if svc.tenant_index(&spec.name).is_some() {
                    return Err(format!(
                        "tenant `{}` is already in the fleet; name-addressed events would \
                         silently target the wrong session",
                        spec.name
                    ));
                }
                svc.admit(spec.clone()).map_err(|e| e.to_string())?;
                Ok(format!("admit {} ({})", spec.name, spec.family.label()))
            }
            ScenarioEvent::Remove { tenant } => {
                svc.remove_tenant(tenant).map_err(|e| e.to_string())?;
                Ok(format!("remove {tenant}"))
            }
            ScenarioEvent::Migrate { tenant, hardware } => {
                svc.migrate_tenant(tenant, *hardware)
                    .map_err(|e| e.to_string())?;
                Ok(format!(
                    "migrate {tenant} -> {}",
                    crate::knowledge::PoolKey::hardware_class(hardware)
                ))
            }
            ScenarioEvent::Resize { tenant, hardware } => {
                let session = svc
                    .session_mut(tenant)
                    .ok_or_else(|| format!("no tenant named `{tenant}`"))?;
                session.resize_hardware(*hardware);
                Ok(format!(
                    "resize {tenant} -> {}",
                    crate::knowledge::PoolKey::hardware_class(hardware)
                ))
            }
            ScenarioEvent::ScaleData { tenant, factor } => {
                let session = svc
                    .session_mut(tenant)
                    .ok_or_else(|| format!("no tenant named `{tenant}`"))?;
                session.scale_data(*factor);
                Ok(format!("scale-data {tenant} x{factor}"))
            }
            ScenarioEvent::Drift { tenant, drift } => {
                let session = svc
                    .session_mut(tenant)
                    .ok_or_else(|| format!("no tenant named `{tenant}`"))?;
                session.apply_drift(drift.clone());
                Ok(format!("drift {tenant} ({drift:?})"))
            }
            ScenarioEvent::InjectFault {
                tenant,
                kind,
                schedule,
            } => {
                let session = svc
                    .session_mut(tenant)
                    .ok_or_else(|| format!("no tenant named `{tenant}`"))?;
                match *schedule {
                    FaultSchedule::Burst { count } => session.inject_faults(*kind, count),
                    FaultSchedule::Seeded {
                        seed,
                        rate,
                        duration,
                    } => session.inject_seeded_faults(*kind, rate, duration, seed),
                }
                Ok(format!("inject-fault {tenant} ({})", kind.name()))
            }
        }
    }
}

/// One timed step of a scenario.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScenarioStep {
    /// The fleet round (0-based value of `FleetService::rounds()`) at whose start the
    /// event fires.
    pub at_iteration: usize,
    /// The environment change.
    pub event: ScenarioEvent,
}

/// Why a [`Scenario`] failed its pre-flight [`Scenario::validate`] check.
///
/// Each variant carries the index of the offending step, so a caller (or a fuzzer
/// shrinker) can point at — or drop — exactly the step that breaks the timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// An `Admit` names a tenant that is already in the fleet at that point of the
    /// timeline (initially present, or admitted earlier and not yet removed).
    DuplicateAdmit {
        /// Index of the offending step in `Scenario::steps`.
        step: usize,
        /// The duplicated tenant name.
        tenant: String,
    },
    /// A name-addressed event targets a tenant that is not in the fleet at that point of
    /// the timeline (never admitted, or already removed).
    UnknownTenant {
        /// Index of the offending step in `Scenario::steps`.
        step: usize,
        /// The unknown tenant name.
        tenant: String,
    },
    /// A step's `at_iteration` is lower than its predecessor's — the timeline is not in
    /// firing order, so declaration order and firing order would disagree.
    OutOfOrder {
        /// Index of the offending step in `Scenario::steps`.
        step: usize,
        /// The offending step's round.
        at_iteration: usize,
        /// The preceding step's round.
        previous: usize,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::DuplicateAdmit { step, tenant } => write!(
                f,
                "step {step}: admit of `{tenant}` duplicates a tenant already in the fleet"
            ),
            ScenarioError::UnknownTenant { step, tenant } => write!(
                f,
                "step {step}: event targets `{tenant}`, which is not in the fleet at that point"
            ),
            ScenarioError::OutOfOrder {
                step,
                at_iteration,
                previous,
            } => write!(
                f,
                "step {step}: at_iteration {at_iteration} precedes the previous step's {previous}"
            ),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A declarative, seed-deterministic, serde round-trippable environment timeline.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Scenario {
    /// Name of the scenario (reports and benchmark artifacts carry it).
    pub name: String,
    /// The timed steps. Steps sharing an `at_iteration` fire in declaration order.
    pub steps: Vec<ScenarioStep>,
}

impl Scenario {
    /// An empty scenario.
    pub fn new(name: impl Into<String>) -> Self {
        Scenario {
            name: name.into(),
            steps: Vec::new(),
        }
    }

    /// Builder: appends an event firing at the start of round `at_iteration`.
    pub fn at(mut self, at_iteration: usize, event: ScenarioEvent) -> Self {
        self.steps.push(ScenarioStep {
            at_iteration,
            event,
        });
        self
    }

    /// The steps due at the given round, in declaration order.
    pub fn due_at(&self, round: usize) -> impl Iterator<Item = &ScenarioStep> {
        self.steps.iter().filter(move |s| s.at_iteration == round)
    }

    /// Pre-flight validation against the set of tenants present when the scenario
    /// starts: rejects timelines that would fail (or silently misbehave) mid-run.
    ///
    /// Simulates the timeline's tenant-liveness bookkeeping and returns the first
    /// violation as a typed [`ScenarioError`]:
    ///
    /// * an `Admit` of a name already live ([`ScenarioError::DuplicateAdmit`]),
    /// * a name-addressed event whose target is not live at that step — never admitted,
    ///   or removed without a re-admit ([`ScenarioError::UnknownTenant`]),
    /// * steps whose `at_iteration`s are not non-decreasing
    ///   ([`ScenarioError::OutOfOrder`]).
    ///
    /// Validation is a pure function of the scenario and `initial_tenants`; it does not
    /// touch a fleet. Run it before [`run_scenario`] to turn mid-run errors into
    /// up-front typed ones.
    pub fn validate(&self, initial_tenants: &[String]) -> Result<(), ScenarioError> {
        let mut live: Vec<&str> = initial_tenants.iter().map(|s| s.as_str()).collect();
        let mut previous = 0usize;
        for (i, step) in self.steps.iter().enumerate() {
            if step.at_iteration < previous {
                return Err(ScenarioError::OutOfOrder {
                    step: i,
                    at_iteration: step.at_iteration,
                    previous,
                });
            }
            previous = step.at_iteration;
            match &step.event {
                ScenarioEvent::Admit { spec } => {
                    if live.contains(&spec.name.as_str()) {
                        return Err(ScenarioError::DuplicateAdmit {
                            step: i,
                            tenant: spec.name.clone(),
                        });
                    }
                    live.push(&spec.name);
                }
                ScenarioEvent::Remove { tenant } => {
                    let Some(pos) = live.iter().position(|t| *t == tenant) else {
                        return Err(ScenarioError::UnknownTenant {
                            step: i,
                            tenant: tenant.clone(),
                        });
                    };
                    live.remove(pos);
                }
                ScenarioEvent::Migrate { tenant, .. }
                | ScenarioEvent::Resize { tenant, .. }
                | ScenarioEvent::ScaleData { tenant, .. }
                | ScenarioEvent::Drift { tenant, .. }
                | ScenarioEvent::InjectFault { tenant, .. } => {
                    if !live.contains(&tenant.as_str()) {
                        return Err(ScenarioError::UnknownTenant {
                            step: i,
                            tenant: tenant.clone(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Serializes the scenario to JSON.
    pub fn to_json(&self) -> Result<String, String> {
        serde_json::to_string(self).map_err(|e| e.to_string())
    }

    /// Deserializes a scenario from JSON produced by [`Scenario::to_json`].
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }
}

/// What one scenario round did and how the fleet looked afterwards.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ScenarioRound {
    /// The fleet round counter before the round ran.
    pub round: usize,
    /// Descriptions of the events fired at the start of this round.
    pub fired: Vec<String>,
    /// Tuning iterations executed in the round.
    pub iterations: usize,
    /// Per-tenant summaries at the end of the round.
    pub tenants: Vec<TenantSummary>,
}

/// Per-round trace of a [`run_scenario`] call.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ScenarioReport {
    /// Name of the executed scenario.
    pub scenario: String,
    /// One record per executed round.
    pub rounds: Vec<ScenarioRound>,
}

/// Drives `svc` through `rounds` rounds of the scenario.
///
/// Each loop turn fires the steps whose `at_iteration` equals the service's current round
/// counter, then executes one scheduling round. Because the clock is the service's own
/// (snapshotted) round counter, interrupting a scenario with a snapshot/restore and
/// calling `run_scenario` again on the restored service continues the timeline exactly
/// where it stopped — steps already fired (at_iteration below the restored counter) never
/// re-fire.
///
/// Fails (before mutating anything further) when an event names an unknown tenant.
pub fn run_scenario(
    svc: &mut FleetService,
    scenario: &Scenario,
    rounds: usize,
) -> Result<ScenarioReport, String> {
    let mut records = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let round = svc.rounds();
        let mut fired = Vec::new();
        for step in scenario.due_at(round) {
            fired.push(step.event.apply(svc)?);
        }
        let iterations = svc.run_round();
        records.push(ScenarioRound {
            round,
            fired,
            iterations,
            tenants: svc.summaries(),
        });
    }
    Ok(ScenarioReport {
        scenario: scenario.name.clone(),
        rounds: records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{small_tuner_options, FleetOptions};
    use crate::tenant::WorkloadFamily;

    fn spec(name: &str, family: WorkloadFamily, seed: u64) -> TenantSpec {
        let mut s = TenantSpec::named(name, family, seed);
        s.deterministic = true;
        s
    }

    fn service_with(names: &[(&str, WorkloadFamily)]) -> FleetService {
        let mut svc = FleetService::new(FleetOptions {
            tuner: small_tuner_options(),
            ..Default::default()
        });
        for (i, (name, family)) in names.iter().enumerate() {
            svc.admit(spec(name, *family, 9000 + i as u64)).unwrap();
        }
        svc
    }

    fn churn_scenario() -> Scenario {
        Scenario::new("test-churn")
            .at(
                1,
                ScenarioEvent::ScaleData {
                    tenant: "a".into(),
                    factor: 1.3,
                },
            )
            .at(
                2,
                ScenarioEvent::Drift {
                    tenant: "a".into(),
                    drift: WorkloadDrift::FamilySwitch {
                        at: 0,
                        to: WorkloadFamily::Job,
                    },
                },
            )
            .at(
                2,
                ScenarioEvent::Resize {
                    tenant: "b".into(),
                    hardware: HardwareSpec::default().scaled(2.0),
                },
            )
            .at(3, ScenarioEvent::Remove { tenant: "b".into() })
            .at(
                4,
                ScenarioEvent::Admit {
                    spec: spec("b", WorkloadFamily::Twitter, 77),
                },
            )
    }

    #[test]
    fn events_fire_at_their_round_in_declaration_order() {
        let mut svc = service_with(&[("a", WorkloadFamily::Ycsb), ("b", WorkloadFamily::Twitter)]);
        let report = run_scenario(&mut svc, &churn_scenario(), 5).unwrap();
        assert_eq!(report.rounds.len(), 5);
        assert!(report.rounds[0].fired.is_empty());
        assert_eq!(report.rounds[1].fired, vec!["scale-data a x1.3"]);
        assert_eq!(report.rounds[2].fired.len(), 2);
        assert!(report.rounds[2].fired[0].starts_with("drift a"));
        assert_eq!(report.rounds[2].fired[1], "resize b -> 16c-32g");
        assert_eq!(report.rounds[3].fired, vec!["remove b"]);
        assert_eq!(report.rounds[3].tenants.len(), 1);
        assert_eq!(report.rounds[4].fired, vec!["admit b (twitter)"]);
        assert_eq!(report.rounds[4].tenants.len(), 2);
        // The rejoined tenant ran in its admission round (no starvation on rejoin).
        let b = report.rounds[4]
            .tenants
            .iter()
            .find(|t| t.name == "b")
            .unwrap();
        assert!(b.iterations >= 1);
    }

    #[test]
    fn unknown_tenant_is_an_error() {
        let mut svc = service_with(&[("a", WorkloadFamily::Ycsb)]);
        let bad = Scenario::new("bad").at(
            0,
            ScenarioEvent::Remove {
                tenant: "ghost".into(),
            },
        );
        assert!(run_scenario(&mut svc, &bad, 1).is_err());
    }

    #[test]
    fn scenario_serde_round_trips() {
        let scenario = churn_scenario().at(
            7,
            ScenarioEvent::Migrate {
                tenant: "a".into(),
                hardware: HardwareSpec::default().scaled(4.0),
            },
        );
        let json = scenario.to_json().unwrap();
        let back = Scenario::from_json(&json).unwrap();
        assert_eq!(scenario, back);
    }

    #[test]
    fn interrupted_scenario_resumes_from_the_restored_round_counter() {
        let scenario = churn_scenario();
        let mut full = service_with(&[("a", WorkloadFamily::Ycsb), ("b", WorkloadFamily::Twitter)]);
        let full_report = run_scenario(&mut full, &scenario, 6).unwrap();

        let mut cut = service_with(&[("a", WorkloadFamily::Ycsb), ("b", WorkloadFamily::Twitter)]);
        run_scenario(&mut cut, &scenario, 3).unwrap();
        let json = cut.snapshot_json().unwrap();
        let mut resumed = FleetService::restore_json(&json).unwrap();
        let tail = run_scenario(&mut resumed, &scenario, 3).unwrap();

        // The resumed run fires exactly the not-yet-fired events...
        assert_eq!(tail.rounds[0].round, 3);
        assert_eq!(tail.rounds[1].fired, vec!["admit b (twitter)".to_string()]);
        // ...and the fleets end bit-identical.
        let a = full.summaries();
        let b = resumed.summaries();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.iterations, y.iterations, "{}", x.name);
            assert_eq!(
                x.cumulative_regret.to_bits(),
                y.cumulative_regret.to_bits(),
                "{}",
                x.name
            );
            assert_eq!(x.total_score.to_bits(), y.total_score.to_bits());
        }
        let _ = full_report;
    }

    #[test]
    fn migrate_reinitializes_on_new_hardware_with_preserved_knowledge() {
        let mut svc = service_with(&[("a", WorkloadFamily::Ycsb)]);
        svc.run_rounds(6);
        let iters_before = svc.summaries()[0].iterations;
        assert!(iters_before >= 6);
        let event = ScenarioEvent::Migrate {
            tenant: "a".into(),
            hardware: HardwareSpec::default().scaled(2.0),
        };
        event.apply(&mut svc).unwrap();
        assert_eq!(svc.n_tenants(), 1);
        let migrated = svc.session("a").unwrap();
        assert_eq!(
            migrated.spec().hardware,
            HardwareSpec::default().scaled(2.0)
        );
        assert_eq!(
            migrated.iteration(),
            0,
            "migration re-initializes the session"
        );
        // The pre-migration knowledge stayed with the fleet (old hardware-class pool).
        let old_key =
            crate::knowledge::PoolKey::for_tenant(&HardwareSpec::default(), WorkloadFamily::Ycsb);
        assert!(!svc.knowledge().warm_start(&old_key).is_empty());
    }

    #[test]
    fn migrate_rebases_the_spec_on_the_current_environment() {
        let mut svc = service_with(&[("a", WorkloadFamily::Ycsb)]);
        svc.run_rounds(3);
        // The tenant has switched to JOB and grown its data before migrating.
        ScenarioEvent::Drift {
            tenant: "a".into(),
            drift: WorkloadDrift::FamilySwitch {
                at: 0,
                to: WorkloadFamily::Job,
            },
        }
        .apply(&mut svc)
        .unwrap();
        svc.run_rounds(2);
        ScenarioEvent::ScaleData {
            tenant: "a".into(),
            factor: 3.0,
        }
        .apply(&mut svc)
        .unwrap();
        let data_before = svc.session("a").unwrap().data_size_gib().unwrap();

        ScenarioEvent::Migrate {
            tenant: "a".into(),
            hardware: HardwareSpec::default().scaled(2.0),
        }
        .apply(&mut svc)
        .unwrap();
        let migrated = svc.session("a").unwrap();
        // The rejoined spec runs what the tenant actually ran — it does not rewind to the
        // pre-switch family or replay old drift anchors, and the data volume moves along.
        assert_eq!(migrated.spec().family, WorkloadFamily::Job);
        assert!(migrated.spec().drift.is_empty());
        assert_eq!(
            migrated.data_size_gib().unwrap().to_bits(),
            data_before.to_bits()
        );
    }

    #[test]
    fn admitting_a_duplicate_name_is_an_error() {
        let mut svc = service_with(&[("a", WorkloadFamily::Ycsb)]);
        let event = ScenarioEvent::Admit {
            spec: spec("a", WorkloadFamily::Job, 1),
        };
        assert!(event.apply(&mut svc).is_err());
        assert_eq!(svc.n_tenants(), 1);
    }

    #[test]
    fn validate_accepts_a_well_formed_churn_timeline() {
        let initial = vec!["a".to_string(), "b".to_string()];
        assert_eq!(churn_scenario().validate(&initial), Ok(()));
    }

    #[test]
    fn validate_rejects_duplicate_admit() {
        let scenario = Scenario::new("dup").at(
            2,
            ScenarioEvent::Admit {
                spec: spec("a", WorkloadFamily::Job, 1),
            },
        );
        assert_eq!(
            scenario.validate(&["a".to_string()]),
            Err(ScenarioError::DuplicateAdmit {
                step: 0,
                tenant: "a".into()
            })
        );
        // The same name is fine once the original tenant has left.
        let rejoin = Scenario::new("rejoin")
            .at(1, ScenarioEvent::Remove { tenant: "a".into() })
            .at(
                2,
                ScenarioEvent::Admit {
                    spec: spec("a", WorkloadFamily::Job, 1),
                },
            );
        assert_eq!(rejoin.validate(&["a".to_string()]), Ok(()));
    }

    #[test]
    fn validate_rejects_events_addressed_to_tenants_not_in_the_fleet() {
        let never = Scenario::new("never").at(
            1,
            ScenarioEvent::Drift {
                tenant: "ghost".into(),
                drift: WorkloadDrift::RateRamp {
                    start: 0,
                    over: 4,
                    from_scale: 1.0,
                    to_scale: 2.0,
                },
            },
        );
        assert_eq!(
            never.validate(&["a".to_string()]),
            Err(ScenarioError::UnknownTenant {
                step: 0,
                tenant: "ghost".into()
            })
        );
        // A tenant removed earlier is no longer addressable either.
        let after_remove = Scenario::new("after-remove")
            .at(1, ScenarioEvent::Remove { tenant: "a".into() })
            .at(
                3,
                ScenarioEvent::ScaleData {
                    tenant: "a".into(),
                    factor: 2.0,
                },
            );
        assert_eq!(
            after_remove.validate(&["a".to_string()]),
            Err(ScenarioError::UnknownTenant {
                step: 1,
                tenant: "a".into()
            })
        );
    }

    #[test]
    fn validate_rejects_out_of_order_steps() {
        let scenario = Scenario::new("ooo")
            .at(
                5,
                ScenarioEvent::ScaleData {
                    tenant: "a".into(),
                    factor: 2.0,
                },
            )
            .at(3, ScenarioEvent::Remove { tenant: "a".into() });
        assert_eq!(
            scenario.validate(&["a".to_string()]),
            Err(ScenarioError::OutOfOrder {
                step: 1,
                at_iteration: 3,
                previous: 5
            })
        );
    }

    #[test]
    fn scenario_error_displays_the_offending_step() {
        let err = ScenarioError::UnknownTenant {
            step: 4,
            tenant: "t9".into(),
        };
        let text = err.to_string();
        assert!(text.contains("step 4"));
        assert!(text.contains("t9"));
    }

    #[test]
    fn post_switch_contributions_go_to_the_switched_family_pool() {
        let mut svc = service_with(&[("a", WorkloadFamily::Ycsb)]);
        ScenarioEvent::Drift {
            tenant: "a".into(),
            drift: WorkloadDrift::FamilySwitch {
                at: 0,
                to: WorkloadFamily::Job,
            },
        }
        .apply(&mut svc)
        .unwrap();
        svc.run_rounds(4);
        let hw = HardwareSpec::default();
        let job = svc
            .knowledge()
            .warm_start(&crate::knowledge::PoolKey::for_tenant(
                &hw,
                WorkloadFamily::Job,
            ));
        let ycsb = svc
            .knowledge()
            .warm_start(&crate::knowledge::PoolKey::for_tenant(
                &hw,
                WorkloadFamily::Ycsb,
            ));
        assert!(
            !job.is_empty(),
            "knowledge proven under JOB must land in the JOB pool"
        );
        assert!(
            ycsb.is_empty(),
            "the pre-switch family's pool must not receive post-switch knowledge"
        );
    }
}
