//! Fleet usage example: cross-tenant warm start and fleet snapshots.
//!
//! A "teacher" tenant tunes a YCSB workload for a while, feeding the shared knowledge
//! base. A new tenant on the same hardware class and workload family is then admitted
//! twice — once cold, once warm-started from the knowledge base — and their early regret
//! is compared. Finally the whole fleet is snapshotted to JSON and restored.
//!
//! Run with `cargo run --release --example fleet_warm_start`.

use fleet::knowledge::PoolKey;
use fleet::service::{small_tuner_options, FleetOptions, FleetService};
use fleet::tenant::{TenantSession, TenantSpec, WorkloadFamily};
use simdb::HardwareSpec;

fn main() {
    // ── Phase 1: a teacher tenant fills the knowledge base ────────────────────────────
    let mut svc = FleetService::new(FleetOptions {
        tuner: small_tuner_options(),
        ..Default::default()
    });
    let mut teacher = TenantSpec::named("teacher", WorkloadFamily::Ycsb, 51);
    teacher.deterministic = true;
    svc.admit(teacher).unwrap();
    let report = svc.run_rounds(12);
    println!(
        "teacher ran {} iterations (unsafe rate {:.3}); knowledge pools: {}",
        report.iterations,
        report.unsafe_rate(),
        svc.knowledge().n_pools()
    );

    // ── Phase 2: cold vs warm student on the same coordinate ──────────────────────────
    let key = PoolKey::for_tenant(&HardwareSpec::default(), WorkloadFamily::Ycsb);
    let warm_payload = svc.knowledge().warm_start(&key);
    println!(
        "warm-start payload: {} safe configs, {} observations",
        warm_payload.safe_configs.len(),
        warm_payload.observations.len()
    );

    let mut student = TenantSpec::named("student", WorkloadFamily::Ycsb, 77);
    student.deterministic = true;
    let mut cold = TenantSession::new(student.clone(), small_tuner_options()).unwrap();
    let mut warm = TenantSession::new(student, small_tuner_options()).unwrap();
    warm.warm_start(&warm_payload);

    for _ in 0..15 {
        cold.step();
        warm.step();
    }
    println!(
        "after 15 iterations: cold regret {:.1}, warm regret {:.1} ({:.0}% lower)",
        cold.cumulative_regret(),
        warm.cumulative_regret(),
        100.0 * (1.0 - warm.cumulative_regret() / cold.cumulative_regret().max(1e-9))
    );

    // ── Phase 3: snapshot / restore ───────────────────────────────────────────────────
    let json = svc.canonical_snapshot_json();
    println!(
        "fleet snapshot: {:.1} KiB of JSON",
        json.len() as f64 / 1024.0
    );
    let mut restored = FleetService::restore_json(&json).expect("restore");
    let cont = restored.run_rounds(2);
    println!(
        "restored fleet continued for {} more iterations across {} rounds",
        cont.iterations, cont.rounds
    );
}
