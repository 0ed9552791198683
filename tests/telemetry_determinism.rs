//! Property tests of the observability no-feedback contract: telemetry may watch a
//! fleet, but it must never change what the fleet does. A scenario run with a live
//! telemetry sink must produce byte-identical snapshots and bitwise-identical tenant
//! summaries to the same run with the no-op sink — including across a mid-scenario
//! snapshot/restore cut, and regardless of whether telemetry is reconfigured mid-run.

use fleet::scenario::{run_scenario, Scenario, ScenarioEvent};
use fleet::service::{small_tuner_options, FleetOptions, FleetService};
use fleet::tenant::{TenantSpec, TenantSummary, WorkloadDrift, WorkloadFamily};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simdb::HardwareSpec;
use telemetry::{CounterId, MonotonicClock, TelemetryConfig, TelemetryHandle};

fn spec(name: &str, family: WorkloadFamily, seed: u64) -> TenantSpec {
    // Measurement noise stays ON: the instance RNG streams are the most fragile part of
    // the replay contract, and telemetry must not consume or reorder a single draw.
    TenantSpec::named(name, family, seed)
}

fn service(seed: u64, telemetry: TelemetryHandle) -> FleetService {
    let mut svc = FleetService::new(FleetOptions {
        workers: 2,
        tuner: small_tuner_options(),
        ..Default::default()
    });
    svc.set_telemetry(telemetry);
    for (i, family) in [
        WorkloadFamily::Ycsb,
        WorkloadFamily::Tpcc,
        WorkloadFamily::Twitter,
    ]
    .iter()
    .enumerate()
    {
        svc.admit(spec(&format!("t{i}"), *family, seed * 100 + i as u64))
            .unwrap();
    }
    svc
}

/// A timeline covering drift, resize, data growth and churn, with event rounds derived
/// deterministically from `seed`.
fn dynamic_scenario(seed: u64, rounds: usize) -> Scenario {
    let r =
        |salt: u64| (seed.wrapping_mul(0x9E37_79B9).wrapping_add(salt) % rounds as u64) as usize;
    Scenario::new(format!("telemetry-{seed}"))
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
                factor: 1.3,
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
                spec: spec("t2", WorkloadFamily::Twitter, seed + 999),
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
        assert_eq!(x.warm_start_safe, y.warm_start_safe, "{label}: {}", x.name);
        assert_eq!(
            x.warm_start_observations, y.warm_start_observations,
            "{label}: {}",
            x.name
        );
        assert_eq!(
            x.cumulative_regret.to_bits(),
            y.cumulative_regret.to_bits(),
            "{label}: {} regret diverged",
            x.name
        );
        assert_eq!(
            x.total_score.to_bits(),
            y.total_score.to_bits(),
            "{label}: {} scores diverged",
            x.name
        );
    }
}

/// Runs `scenario` for `rounds` rounds, collecting the summary stream after every round
/// and the final snapshot JSON.
fn run_collecting(
    svc: &mut FleetService,
    scenario: &Scenario,
    rounds: usize,
) -> (Vec<Vec<TenantSummary>>, String) {
    let mut streams = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        run_scenario(svc, scenario, 1).unwrap();
        streams.push(svc.summaries());
    }
    (streams, svc.canonical_snapshot_json())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The tentpole contract: a live telemetry sink changes nothing — not one byte of the
    /// snapshot, not one bit of any per-round tenant summary.
    #[test]
    fn prop_telemetry_never_perturbs_the_fleet(seed in 0u64..10_000) {
        let rounds = 8;
        let scenario = dynamic_scenario(seed, rounds);

        let mut silent = service(seed, TelemetryHandle::disabled());
        let mut observed = service(seed, TelemetryHandle::enabled());
        let (silent_stream, silent_json) = run_collecting(&mut silent, &scenario, rounds);
        let (observed_stream, observed_json) = run_collecting(&mut observed, &scenario, rounds);

        prop_assert_eq!(silent_json, observed_json, "snapshot bytes diverged");
        for (round, (a, b)) in silent_stream.iter().zip(observed_stream.iter()).enumerate() {
            assert_bitwise_equal(a, b, &format!("round {round}"));
        }
        // The observed fleet did record real work while staying invisible.
        let metrics = observed.metrics_snapshot();
        prop_assert!(metrics.counter(CounterId::Iterations) > 0);
        prop_assert!(metrics.counter(CounterId::KbContributions) > 0);
    }

    /// The contract holds across a mid-scenario snapshot/restore cut, with telemetry
    /// configured differently on every leg: the reference run observed throughout, the
    /// resumed run restored onto a *reconfigured* sink (different journal capacity and
    /// SLO ceiling). Snapshot bytes at the cut and at the end must match the silent run.
    #[test]
    fn prop_restore_cut_with_reconfigured_telemetry_stays_identical(
        seed in 0u64..10_000,
        cut in 1usize..8,
    ) {
        let rounds = 8;
        let scenario = dynamic_scenario(seed, rounds);

        let mut silent = service(seed, TelemetryHandle::disabled());
        run_scenario(&mut silent, &scenario, rounds).unwrap();
        let silent_json = silent.canonical_snapshot_json();

        let mut first_half = service(seed, TelemetryHandle::enabled());
        run_scenario(&mut first_half, &scenario, cut).unwrap();
        let cut_json = first_half.canonical_snapshot_json();
        drop(first_half);

        // Restore onto a sink with a non-default configuration: SLO policy and journal
        // bounds are runtime-only, so this must not show up anywhere in the replay.
        let reconfigured = TelemetryHandle::with_clock(
            std::sync::Arc::new(telemetry::MonotonicClock::new()),
            TelemetryConfig {
                journal_capacity: 8,
                unsafe_rate_ceiling: 0.5,
            },
        );
        let mut resumed = FleetService::restore_with_telemetry(&cut_json, reconfigured).unwrap();
        run_scenario(&mut resumed, &scenario, rounds - cut).unwrap();

        prop_assert_eq!(
            silent_json,
            resumed.canonical_snapshot_json(),
            "telemetry-reconfigured restore diverged from the silent run"
        );
        assert_bitwise_equal(
            &silent.summaries(),
            &resumed.summaries(),
            &format!("cut at round {cut}"),
        );
        prop_assert_eq!(resumed.metrics_snapshot().counter(CounterId::RestoresCompleted), 1);
        // The reconfigured ceiling reaches the SLO report, proving the policy is live
        // even though it is invisible to the replay.
        for slo in resumed.slo_reports() {
            prop_assert_eq!(slo.unsafe_ceiling, 0.5);
        }
    }

    /// Toggling telemetry mid-run (off → on → off) leaves the fleet bit-identical to a
    /// fleet that never had a sink installed.
    #[test]
    fn prop_mid_run_toggle_is_invisible(seed in 0u64..10_000) {
        let rounds = 6;
        let scenario = dynamic_scenario(seed, rounds);

        let mut silent = service(seed, TelemetryHandle::disabled());
        run_scenario(&mut silent, &scenario, rounds).unwrap();

        let mut toggled = service(seed, TelemetryHandle::disabled());
        run_scenario(&mut toggled, &scenario, 2).unwrap();
        toggled.set_telemetry(TelemetryHandle::enabled());
        run_scenario(&mut toggled, &scenario, 2).unwrap();
        toggled.set_telemetry(TelemetryHandle::disabled());
        run_scenario(&mut toggled, &scenario, rounds - 4).unwrap();

        prop_assert_eq!(
            silent.canonical_snapshot_json(),
            toggled.canonical_snapshot_json(),
            "mid-run telemetry toggle changed snapshot bytes"
        );
        assert_bitwise_equal(&silent.summaries(), &toggled.summaries(), "toggle");
    }
}

/// What one fuzzed-churn run left behind in its journals and counters.
struct ChurnOutcome {
    svc: FleetService,
    /// Iterations the fleet executed, summed over every round (including rounds run by
    /// tenants that were later removed).
    iterations_run: u64,
}

impl ChurnOutcome {
    /// Events retained across the fleet core and every live tenant's child ring.
    fn events_retained(&self) -> u64 {
        self.svc.telemetry_events().len() as u64
    }

    /// Events dropped to ring overflow, summed over the fleet core and every live
    /// tenant (`remove_tenant` drains a departing tenant's drop count into the core,
    /// so removed tenants are already included in the core's figure).
    fn events_dropped(&self) -> u64 {
        let mut dropped = self.svc.telemetry().events_dropped();
        for summary in self.svc.summaries() {
            if let Some(session) = self.svc.session(&summary.name) {
                dropped += session.telemetry().events_dropped();
            }
        }
        dropped
    }
}

/// Drives a randomly generated admit/remove sequence (derived from `seed`) through a
/// fleet whose journals have the given per-ring capacity. Removals go through the
/// `remove_tenant` drain path, so departing tenants' events and drop counts land in the
/// fleet core before their sessions are dropped.
fn run_fuzzed_churn(seed: u64, journal_capacity: usize) -> ChurnOutcome {
    let telemetry = TelemetryHandle::with_clock(
        std::sync::Arc::new(MonotonicClock::new()),
        TelemetryConfig {
            journal_capacity,
            unsafe_rate_ceiling: 0.75,
        },
    );
    let mut svc = FleetService::new(FleetOptions {
        workers: 2,
        tuner: small_tuner_options(),
        ..Default::default()
    });
    svc.set_telemetry(telemetry);

    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_id = 0usize;
    let mut admit = |svc: &mut FleetService, rng: &mut StdRng| {
        let family = WorkloadFamily::ALL[rng.gen_range(0..WorkloadFamily::ALL.len())];
        let mut spec = TenantSpec::named(format!("c{next_id}"), family, seed + next_id as u64);
        spec.deterministic = true;
        next_id += 1;
        svc.admit(spec).unwrap();
    };
    admit(&mut svc, &mut rng);
    admit(&mut svc, &mut rng);

    let mut iterations_run = 0u64;
    for _ in 0..10 {
        if rng.gen_bool(0.4) {
            admit(&mut svc, &mut rng);
        }
        if svc.n_tenants() > 1 && rng.gen_bool(0.35) {
            let names: Vec<String> = svc.summaries().iter().map(|s| s.name.clone()).collect();
            let victim = &names[rng.gen_range(0..names.len())];
            svc.remove_tenant(victim).unwrap();
        }
        iterations_run += svc.run_round() as u64;
    }
    ChurnOutcome {
        svc,
        iterations_run,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Journal conservation under fuzzed churn: running the same random admit/remove
    /// sequence with a tiny per-ring capacity and with a capacity large enough to never
    /// overflow must account for exactly the same event total — `retained + dropped` is
    /// invariant, the large-capacity run drops nothing, and the fleet itself is
    /// untouched by the journal bound (byte-identical snapshots).
    #[test]
    fn prop_journal_overflow_accounting_is_exact_under_churn(seed in 0u64..10_000) {
        let tiny = run_fuzzed_churn(seed, 8);
        let huge = run_fuzzed_churn(seed, 4096);

        prop_assert_eq!(huge.events_dropped(), 0, "the large ring must never overflow");
        prop_assert!(tiny.events_dropped() > 0, "capacity 8 must overflow under churn");
        prop_assert_eq!(
            tiny.events_retained() + tiny.events_dropped(),
            huge.events_retained(),
            "retained + dropped must equal the true event total"
        );
        prop_assert_eq!(
            tiny.svc.canonical_snapshot_json(),
            huge.svc.canonical_snapshot_json(),
            "journal capacity leaked into fleet state"
        );
    }

    /// Drain exactness under fuzzed churn: `remove_tenant` moves a departing tenant's
    /// counters into the fleet core, so the merged `Iterations` counter equals the
    /// number of iterations the fleet ever ran — no matter how many of those iterations
    /// belonged to tenants that no longer exist.
    #[test]
    fn prop_drain_totals_are_exact_under_churn(seed in 0u64..10_000) {
        let outcome = run_fuzzed_churn(seed, 64);
        let metrics = outcome.svc.metrics_snapshot();
        prop_assert_eq!(
            metrics.counter(CounterId::Iterations),
            outcome.iterations_run,
            "drained Iterations counter diverged from iterations actually run"
        );
        prop_assert_eq!(
            metrics.counter(CounterId::TenantsAdmitted)
                - metrics.counter(CounterId::TenantsRemoved),
            outcome.svc.n_tenants() as u64,
            "admission/removal counters must reconcile with the live tenant count"
        );
    }
}
