//! Property tests of the dynamic-environment engine: the snapshot/replay contract must
//! survive scripted environment change, and the scheduler's fairness floor must survive
//! tenant churn — independently of the worker thread count.

use fleet::scenario::{run_scenario, Scenario, ScenarioEvent};
use fleet::service::{small_tuner_options, FleetOptions, FleetService};
use fleet::tenant::{TenantSpec, TenantSummary, WorkloadDrift, WorkloadFamily};
use proptest::prelude::*;
use simdb::HardwareSpec;

fn spec(name: &str, family: WorkloadFamily, seed: u64, deterministic: bool) -> TenantSpec {
    let mut s = TenantSpec::named(name, family, seed);
    s.deterministic = deterministic;
    s
}

fn service(workers: usize, seed: u64, deterministic: bool) -> FleetService {
    let mut svc = FleetService::new(FleetOptions {
        workers,
        tuner: small_tuner_options(),
        ..Default::default()
    });
    for (i, family) in [
        WorkloadFamily::Ycsb,
        WorkloadFamily::Tpcc,
        WorkloadFamily::Twitter,
    ]
    .iter()
    .enumerate()
    {
        svc.admit(spec(
            &format!("t{i}"),
            *family,
            seed * 100 + i as u64,
            deterministic,
        ))
        .unwrap();
    }
    svc
}

/// A drift + resize + churn timeline whose event rounds are derived deterministically
/// from `seed`, covering every event kind within `rounds` rounds.
fn dynamic_scenario(seed: u64, rounds: usize) -> Scenario {
    let r =
        |salt: u64| (seed.wrapping_mul(0x9E37_79B9).wrapping_add(salt) % rounds as u64) as usize;
    Scenario::new(format!("dynamic-{seed}"))
        .at(
            r(1),
            ScenarioEvent::Drift {
                tenant: "t0".into(),
                drift: WorkloadDrift::FamilySwitch {
                    at: 0,
                    to: WorkloadFamily::Job,
                },
            },
        )
        .at(
            r(2),
            ScenarioEvent::Resize {
                tenant: "t1".into(),
                hardware: HardwareSpec::default().scaled(2.0),
            },
        )
        .at(
            r(3),
            ScenarioEvent::ScaleData {
                tenant: "t1".into(),
                factor: 1.4,
            },
        )
        .at(
            r(4),
            ScenarioEvent::Remove {
                tenant: "t2".into(),
            },
        )
        .at(
            r(4) + 2,
            ScenarioEvent::Admit {
                spec: spec("t2", WorkloadFamily::Twitter, seed + 999, true),
            },
        )
        .at(
            r(5),
            ScenarioEvent::Drift {
                tenant: "t1".into(),
                drift: WorkloadDrift::RateRamp {
                    start: 0,
                    over: 10,
                    from_scale: 1.0,
                    to_scale: 1.6,
                },
            },
        )
}

fn assert_bitwise_equal(a: &[TenantSummary], b: &[TenantSummary], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: tenant counts differ");
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.name, y.name, "{label}");
        assert_eq!(x.iterations, y.iterations, "{label}: {}", x.name);
        assert_eq!(x.unsafe_count, y.unsafe_count, "{label}: {}", x.name);
        assert_eq!(x.n_models, y.n_models, "{label}: {}", x.name);
        assert_eq!(x.recluster_count, y.recluster_count, "{label}: {}", x.name);
        assert_eq!(
            x.cumulative_regret.to_bits(),
            y.cumulative_regret.to_bits(),
            "{label}: {} regret {} vs {}",
            x.name,
            x.cumulative_regret,
            y.cumulative_regret
        );
        assert_eq!(
            x.total_score.to_bits(),
            y.total_score.to_bits(),
            "{label}: {} scores diverged",
            x.name
        );
    }
}

/// An abrupt workload-family switch (OLTP YCSB → analytical JOB) must engage the
/// tuner's re-clustering: the switched tenant ends with more re-clusterings and more
/// models than the same fleet without the switch.
///
/// Counting re-clusterings before and after the switch in one run is not enough. The
/// tuner re-learns its clustering on a fixed cadence, and the switched tenant's first
/// re-clustering falls on the switch round whether or not its workload changed, so a
/// before/after count passes on a fleet that never drifted. The control run is what
/// separates the switch's effect from the cadence.
#[test]
fn abrupt_family_switch_engages_reclustering() {
    const SWITCH_ROUND: usize = 24;
    const ROUNDS: usize = 48;
    let run = |switch: bool| {
        let mut svc = FleetService::new(FleetOptions {
            workers: 1,
            tuner: small_tuner_options(),
            ..Default::default()
        });
        for (i, (name, family)) in [
            ("shift", WorkloadFamily::Ycsb),
            ("writer", WorkloadFamily::Tpcc),
            ("churner", WorkloadFamily::Twitter),
            ("steady", WorkloadFamily::Job),
        ]
        .into_iter()
        .enumerate()
        {
            svc.admit(spec(name, family, 4001 + i as u64, true))
                .unwrap();
        }
        let mut scenario = Scenario::new("family-switch");
        if switch {
            scenario = scenario.at(
                SWITCH_ROUND,
                ScenarioEvent::Drift {
                    tenant: "shift".into(),
                    drift: WorkloadDrift::FamilySwitch {
                        at: 0,
                        to: WorkloadFamily::Job,
                    },
                },
            );
        }
        run_scenario(&mut svc, &scenario, ROUNDS).unwrap();
        let shift = svc.session("shift").unwrap().summary();
        (shift.recluster_count, shift.n_models)
    };
    let (control, switched) = (run(false), run(true));
    assert!(
        switched.0 > control.0 && switched.1 > control.1,
        "(reclusters, models): switched {switched:?} vs control {control:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The tentpole replay contract: a snapshot taken mid-scenario — between any two
    /// rounds, i.e. between any two environment events — restores into a service that
    /// replays the remaining timeline bit-identically to the run that was never
    /// interrupted. Measurement noise stays ON: the instance RNG streams are part of the
    /// snapshot and must survive environment events too.
    #[test]
    fn prop_mid_scenario_snapshot_replays_bit_identically(seed in 0u64..10_000, cut in 1usize..10) {
        let rounds = 10;
        let scenario = dynamic_scenario(seed, rounds);

        let mut uninterrupted = service(2, seed, false);
        run_scenario(&mut uninterrupted, &scenario, rounds).unwrap();

        let mut first_half = service(2, seed, false);
        run_scenario(&mut first_half, &scenario, cut).unwrap();
        let json = first_half.snapshot_json().unwrap();
        drop(first_half);
        let mut resumed = FleetService::restore_json(&json).unwrap();
        run_scenario(&mut resumed, &scenario, rounds - cut).unwrap();

        assert_bitwise_equal(
            &uninterrupted.summaries(),
            &resumed.summaries(),
            &format!("cut at round {cut}"),
        );
        assert_eq!(uninterrupted.rounds(), resumed.rounds());
        assert_eq!(uninterrupted.granted_slots(), resumed.granted_slots());
        assert_eq!(uninterrupted.knowledge().n_pools(), resumed.knowledge().n_pools());
    }

    /// Scheduler fairness under churn: across a random join/leave timeline, every tenant
    /// alive for a full round advances by at least `base_slots` (= 1) iterations in that
    /// round — nobody starves, no matter which tenants join or leave around them.
    #[test]
    fn prop_no_live_tenant_starves_under_churn(seed in 0u64..10_000) {
        let rounds = 12;
        let scenario = dynamic_scenario(seed, rounds);
        let mut svc = service(2, seed, true);
        let report = run_scenario(&mut svc, &scenario, rounds).unwrap();

        let mut previous: Vec<TenantSummary> = Vec::new();
        for record in &report.rounds {
            for t in &record.tenants {
                let before = previous
                    .iter()
                    .find(|p| p.name == t.name)
                    .map_or(0, |p| p.iterations);
                // A migrated/re-admitted tenant restarts from 0; it still must have run
                // this round. Everyone else must advance by >= base_slots.
                let floor = if t.iterations < before { 1 } else { before + 1 };
                assert!(
                    t.iterations >= floor,
                    "round {}: {} starved ({} iterations, had {})",
                    record.round,
                    t.name,
                    t.iterations,
                    before
                );
            }
            previous = record.tenants.clone();
        }
    }

    /// The scenario outcome is independent of the worker thread count: one worker and
    /// four workers produce bitwise-identical fleets. Churn changes the tenant/chunk
    /// layout mid-run, so this extends the existing parallel-equals-serial guarantee to
    /// dynamic fleets.
    #[test]
    fn prop_outcome_independent_of_worker_count(seed in 0u64..10_000) {
        let rounds = 8;
        let scenario = dynamic_scenario(seed, rounds);

        let mut serial = service(1, seed, false);
        run_scenario(&mut serial, &scenario, rounds).unwrap();
        let mut parallel = service(4, seed, false);
        run_scenario(&mut parallel, &scenario, rounds).unwrap();

        assert_bitwise_equal(&serial.summaries(), &parallel.summaries(), "workers 1 vs 4");
        assert_eq!(serial.granted_slots(), parallel.granted_slots());
    }

    /// A scenario survives a serde round-trip verbatim, and the round-tripped value
    /// drives a fleet to the same bitwise outcome.
    #[test]
    fn prop_scenario_serde_round_trip_preserves_replay(seed in 0u64..10_000) {
        let scenario = dynamic_scenario(seed, 8);
        let back = Scenario::from_json(&scenario.to_json().unwrap()).unwrap();
        prop_assert_eq!(&scenario, &back);

        let mut a = service(2, seed, true);
        let mut b = service(2, seed, true);
        run_scenario(&mut a, &scenario, 8).unwrap();
        run_scenario(&mut b, &back, 8).unwrap();
        assert_bitwise_equal(&a.summaries(), &b.summaries(), "serde round-trip");
    }
}
