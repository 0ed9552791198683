//! Integration tests of the fleet subsystem: snapshot→restore→replay determinism,
//! cross-tenant warm start, and scheduler fairness.

use fleet::knowledge::PoolKey;
use fleet::service::{small_tuner_options, FleetOptions, FleetService};
use fleet::tenant::{TenantSession, TenantSpec, WorkloadFamily};

fn spec(name: &str, family: WorkloadFamily, seed: u64, deterministic: bool) -> TenantSpec {
    let mut s = TenantSpec::named(name, family, seed);
    s.deterministic = deterministic;
    s
}

fn mixed_service(n_tenants: usize, deterministic: bool) -> FleetService {
    let mut svc = FleetService::new(FleetOptions {
        tuner: small_tuner_options(),
        ..Default::default()
    });
    for i in 0..n_tenants {
        let family = WorkloadFamily::ALL[i % WorkloadFamily::ALL.len()];
        svc.admit(spec(
            &format!("tenant-{i}"),
            family,
            4000 + i as u64,
            deterministic,
        ))
        .unwrap();
    }
    svc
}

/// The headline snapshot/restore guarantee: a fleet restored from its JSON snapshot
/// replays *bit-identically* against the original that kept running — same regrets, same
/// scores, same unsafe counts, with measurement noise enabled (the noise RNG streams are
/// part of the snapshot).
#[test]
fn fleet_snapshot_restore_replays_bit_identically() {
    let mut original = mixed_service(3, false);
    original.run_rounds(2);

    let json = original.canonical_snapshot_json();
    let mut restored = FleetService::restore_json(&json).expect("snapshot restores");

    original.run_rounds(3);
    restored.run_rounds(3);

    let a = original.summaries();
    let b = restored.summaries();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.iterations, y.iterations, "{}", x.name);
        assert_eq!(x.unsafe_count, y.unsafe_count, "{}", x.name);
        assert_eq!(
            x.cumulative_regret.to_bits(),
            y.cumulative_regret.to_bits(),
            "{}: {} vs {}",
            x.name,
            x.cumulative_regret,
            y.cumulative_regret
        );
        assert_eq!(
            x.total_score.to_bits(),
            y.total_score.to_bits(),
            "{}: scores diverged",
            x.name
        );
    }
    assert_eq!(original.rounds(), restored.rounds());
    assert_eq!(original.granted_slots(), restored.granted_slots());
}

/// A warm-started tenant (seeded with the knowledge base's safe configurations and
/// observations from a sibling on the same hardware class and workload family) must show
/// lower early cumulative regret than an otherwise identical cold-started tenant.
#[test]
fn warm_start_beats_cold_start_on_early_regret() {
    // A teacher tenant populates the knowledge base for (default hardware, YCSB).
    let mut teacher_fleet = FleetService::new(FleetOptions {
        tuner: small_tuner_options(),
        ..Default::default()
    });
    teacher_fleet
        .admit(spec("teacher", WorkloadFamily::Ycsb, 51, true))
        .unwrap();
    teacher_fleet.run_rounds(12);
    let key = PoolKey::for_tenant(&simdb::HardwareSpec::default(), WorkloadFamily::Ycsb);
    let warm = teacher_fleet.knowledge().warm_start(&key);
    assert!(!warm.is_empty(), "teacher must have contributed knowledge");

    // Two identical students; one receives the warm start.
    let student_spec = spec("student", WorkloadFamily::Ycsb, 77, true);
    let mut cold = TenantSession::new(student_spec.clone(), small_tuner_options()).unwrap();
    let mut warm_student = TenantSession::new(student_spec, small_tuner_options()).unwrap();
    warm_student.warm_start(&warm);

    let steps = 15;
    for _ in 0..steps {
        cold.step();
        warm_student.step();
    }
    assert!(
        warm_student.cumulative_regret() < cold.cumulative_regret(),
        "warm start must lower early regret: warm {} vs cold {}",
        warm_student.cumulative_regret(),
        cold.cumulative_regret()
    );
}

/// Round-robin fairness: over any number of rounds, every tenant runs at least the base
/// slot count per round, and no tenant can exceed the base+bonus ceiling — so no tenant
/// starves no matter how skewed the regret distribution is.
#[test]
fn scheduler_never_starves_a_tenant() {
    let rounds = 6;
    let mut svc = mixed_service(6, true);
    svc.run_rounds(rounds);
    let summaries = svc.summaries();
    let granted = svc.granted_slots().to_vec();
    for (i, t) in summaries.iter().enumerate() {
        assert!(
            t.iterations >= rounds,
            "{} starved: {} iterations in {rounds} rounds",
            t.name,
            t.iterations
        );
        assert!(
            t.iterations <= rounds * 3,
            "{} exceeded the slot ceiling: {}",
            t.name,
            t.iterations
        );
        assert_eq!(
            granted[i], t.iterations,
            "grants must match executed iterations"
        );
    }
    // The bonus pool was actually used by at least one tenant in a fleet this size
    // (someone always has the highest recent regret).
    assert!(
        summaries.iter().any(|t| t.iterations > rounds),
        "priority bonus never granted"
    );
}

/// Tenants on different coordinates do not leak knowledge to each other, while same-
/// coordinate tenants do share.
#[test]
fn knowledge_pools_are_isolated_by_coordinate() {
    let mut svc = FleetService::new(FleetOptions {
        tuner: small_tuner_options(),
        ..Default::default()
    });
    svc.admit(spec("a", WorkloadFamily::Ycsb, 1, true)).unwrap();
    svc.admit(spec("b", WorkloadFamily::Job, 2, true)).unwrap();
    svc.run_rounds(3);

    let hw = simdb::HardwareSpec::default();
    let ycsb = svc
        .knowledge()
        .warm_start(&PoolKey::for_tenant(&hw, WorkloadFamily::Ycsb));
    let job = svc
        .knowledge()
        .warm_start(&PoolKey::for_tenant(&hw, WorkloadFamily::Job));
    let tpcc = svc
        .knowledge()
        .warm_start(&PoolKey::for_tenant(&hw, WorkloadFamily::Tpcc));
    assert!(!ycsb.is_empty());
    assert!(!job.is_empty());
    assert!(
        tpcc.is_empty(),
        "no TPC-C tenant ran, so no TPC-C knowledge may exist"
    );

    let mut other_hw = hw;
    other_hw.vcpus = 32;
    let other = svc
        .knowledge()
        .warm_start(&PoolKey::for_tenant(&other_hw, WorkloadFamily::Ycsb));
    assert!(
        other.is_empty(),
        "a different hardware class must not inherit knowledge"
    );
}
