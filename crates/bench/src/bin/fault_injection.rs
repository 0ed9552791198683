//! Fault-injection gate: retry/quarantine walkthrough, crash-recovery bit-identity,
//! and fuzzed fault timelines.
//!
//! Three legs, all deterministic:
//!
//! 1. **Walkthrough** — a scripted burst of measurement timeouts drives one tenant of a
//!    three-tenant fleet through the full degradation ladder (retry with exponential
//!    backoff → quarantine → probation probes → readmission) while the healthy tenants
//!    must keep full per-round progress. The telemetry counters and the tenant's health
//!    trace are the evidence.
//! 2. **Crash recovery** — a [`DurableFleet`] runs a fault-laced scenario; the process
//!    is killed after *every* round in turn (tearing a varying number of bytes off the
//!    WAL tail), recovered from the surviving snapshot + WAL, and driven to the horizon.
//!    Every recovered final snapshot must be bit-identical to the uninterrupted run.
//! 3. **Fuzzed faults** — timelines sampled from the fault-enabled
//!    [`ScenarioDistribution`] run through the standard property registry (including the
//!    `crash_recovery_bit_identity` and `quarantine_liveness` properties); any violation
//!    is shrunk and printed, then the process exits non-zero.
//!
//! Run with `cargo run --release -p bench --bin fault_injection [-- --smoke]`; full mode
//! writes `BENCH_faults.json` (committed), `--smoke` is the CI gate.

use bench::report::section;
use fleet::fuzz::{
    run_fuzz_case, shrink_case, FuzzCase, PropertyRegistry, ScenarioDistribution, ScenarioGenerator,
};
use fleet::scenario::{FaultSchedule, Scenario, ScenarioEvent};
use fleet::service::{small_tuner_options, FleetOptions, FleetService};
use fleet::tenant::{SessionHealth, TenantSpec, WorkloadFamily};
use fleet::DurableFleet;
use simdb::FaultKind;
use telemetry::{CounterId, TelemetryHandle};

/// Burst of scripted timeouts in the walkthrough leg.
const WALKTHROUGH_FAULTS: usize = 12;
/// Rounds the walkthrough runs — enough to exhaust the burst and readmit.
const WALKTHROUGH_ROUNDS: usize = 40;
/// Horizon of the crash-recovery scenario (kill points are every round before it).
const RECOVERY_HORIZON: usize = 10;
/// Fuzzed fault timelines per generator seed in full / smoke mode.
const FUZZ_SEEDS: [u64; 3] = [303, 606, 909];
const FULL_FUZZ_CASES_PER_SEED: usize = 8;
const SMOKE_FUZZ_CASES_PER_SEED: usize = 3;

fn small_fleet(n: usize) -> FleetService {
    let mut svc = FleetService::new(FleetOptions {
        workers: 1,
        tuner: small_tuner_options(),
        ..Default::default()
    });
    for i in 0..n {
        let family = WorkloadFamily::ALL[i % WorkloadFamily::ALL.len()];
        let mut spec = TenantSpec::named(format!("tenant-{i}"), family, 7000 + i as u64);
        spec.deterministic = true;
        svc.admit(spec).expect("admission");
    }
    svc
}

/// Stable one-word label of a health state (the walkthrough trace).
fn health_label(health: &SessionHealth) -> String {
    match health {
        SessionHealth::Healthy => "healthy".to_string(),
        SessionHealth::Backoff { remaining, attempt } => {
            format!("backoff(remaining={remaining}, attempt={attempt})")
        }
        SessionHealth::Quarantined {
            probation_successes,
            ..
        } => format!("quarantined(probes_ok={probation_successes})"),
    }
}

#[derive(Debug, serde::Serialize)]
struct WalkthroughReport {
    faults_injected: usize,
    rounds: usize,
    measurement_faults: u64,
    fault_backoffs: u64,
    quarantines: u64,
    probe_iterations: u64,
    readmissions: u64,
    healthy_tenants_starved: bool,
    final_health: String,
    /// Health transitions as `round N: label` (consecutive duplicates collapsed).
    health_trace: Vec<String>,
}

/// Leg 1: scripted timeout burst → backoff → quarantine → probation → readmission,
/// with the healthy majority asserted to keep full progress the whole time.
fn walkthrough() -> WalkthroughReport {
    let mut svc = small_fleet(3);
    svc.set_telemetry(TelemetryHandle::enabled());
    svc.session_mut("tenant-0")
        .expect("tenant-0 admitted")
        .inject_faults(FaultKind::Timeout, WALKTHROUGH_FAULTS);

    let mut trace: Vec<String> = Vec::new();
    let mut last_label = String::new();
    let mut starved = false;
    for round in 0..WALKTHROUGH_ROUNDS {
        let before: Vec<usize> = ["tenant-1", "tenant-2"]
            .iter()
            .map(|n| svc.session(n).expect("healthy tenant").iteration())
            .collect();
        svc.run_round();
        for (i, name) in ["tenant-1", "tenant-2"].iter().enumerate() {
            if svc.session(name).expect("healthy tenant").iteration() <= before[i] {
                starved = true;
            }
        }
        let label = health_label(&svc.session("tenant-0").expect("tenant-0").health());
        if label != last_label {
            trace.push(format!("round {round}: {label}"));
            last_label = label;
        }
    }

    let snap = svc.metrics_snapshot();
    WalkthroughReport {
        faults_injected: WALKTHROUGH_FAULTS,
        rounds: WALKTHROUGH_ROUNDS,
        measurement_faults: snap.counter(CounterId::MeasurementFaults),
        fault_backoffs: snap.counter(CounterId::FaultBackoffs),
        quarantines: snap.counter(CounterId::Quarantines),
        probe_iterations: snap.counter(CounterId::ProbeIterations),
        readmissions: snap.counter(CounterId::Readmissions),
        healthy_tenants_starved: starved,
        final_health: health_label(&svc.session("tenant-0").expect("tenant-0").health()),
        health_trace: trace,
    }
}

/// The fault-laced scenario of the crash-recovery leg.
fn recovery_scenario() -> Scenario {
    Scenario::new("fault-recovery-gate")
        .at(
            2,
            ScenarioEvent::InjectFault {
                tenant: "tenant-0".into(),
                kind: FaultKind::Failure,
                schedule: FaultSchedule::Burst { count: 5 },
            },
        )
        .at(
            3,
            ScenarioEvent::InjectFault {
                tenant: "tenant-1".into(),
                kind: FaultKind::CorruptNan,
                schedule: FaultSchedule::Seeded {
                    seed: 41,
                    rate: 0.5,
                    duration: 6,
                },
            },
        )
        .at(
            5,
            ScenarioEvent::ScaleData {
                tenant: "tenant-2".into(),
                factor: 1.4,
            },
        )
}

#[derive(Debug, serde::Serialize)]
struct RecoveryReportOut {
    horizon: usize,
    kill_points: usize,
    bit_identical: usize,
    replayed_rounds_total: usize,
    torn_bytes_total: usize,
    wal_appends: u64,
    recovery_replays: u64,
}

/// Leg 2: kill after every round of a fault-laced scenario, recover, continue, and
/// compare the final snapshot bytes to the uninterrupted reference.
fn crash_recovery_gate() -> Result<RecoveryReportOut, String> {
    let reference = {
        let mut fleet = DurableFleet::new(small_fleet(3), recovery_scenario());
        fleet
            .run_rounds(RECOVERY_HORIZON)
            .map_err(|e| e.to_string())?;
        fleet.service().canonical_snapshot_json()
    };

    let mut bit_identical = 0;
    let mut replayed_total = 0;
    let mut torn_total = 0;
    let mut wal_appends = 0;
    let mut recovery_replays = 0;
    for kill_round in 1..RECOVERY_HORIZON {
        let mut fleet = DurableFleet::new(small_fleet(3), recovery_scenario());
        fleet
            .service_mut()
            .set_telemetry(TelemetryHandle::enabled());
        fleet.run_rounds(kill_round).map_err(|e| e.to_string())?;
        wal_appends += fleet
            .service()
            .metrics_snapshot()
            .counter(CounterId::WalAppends);
        // Vary the tear so clean cuts, torn frames, and empty journals all occur.
        let storage = fleet.crash((kill_round * 13) % 40);
        let (mut recovered, report) =
            DurableFleet::recover(&storage, recovery_scenario(), TelemetryHandle::enabled())
                .map_err(|e| format!("kill at round {kill_round}: {e}"))?;
        replayed_total += report.replayed_rounds;
        torn_total += report.torn_bytes;
        recovered
            .run_rounds(RECOVERY_HORIZON - recovered.service().rounds())
            .map_err(|e| e.to_string())?;
        recovery_replays += recovered
            .service()
            .metrics_snapshot()
            .counter(CounterId::RecoveryReplays);
        if recovered.service().canonical_snapshot_json() == reference {
            bit_identical += 1;
        } else {
            eprintln!("  DIVERGED: kill at round {kill_round} did not recover bit-identically");
        }
    }
    Ok(RecoveryReportOut {
        horizon: RECOVERY_HORIZON,
        kill_points: RECOVERY_HORIZON - 1,
        bit_identical,
        replayed_rounds_total: replayed_total,
        torn_bytes_total: torn_total,
        wal_appends,
        recovery_replays,
    })
}

#[derive(Debug, serde::Serialize)]
struct FuzzLegReport {
    cases: usize,
    fault_events: usize,
    quarantined_cases: usize,
    crash_legs_run: usize,
    violations: usize,
}

/// Leg 3: fuzzed fault-enabled timelines through the standard property registry.
fn fuzzed_faults(cases_per_seed: usize) -> Result<FuzzLegReport, String> {
    let dist = ScenarioDistribution::with_faults();
    let registry = PropertyRegistry::standard();
    let mut cases = 0;
    let mut fault_events = 0;
    let mut quarantined_cases = 0;
    let mut crash_legs = 0;
    let mut violations = 0;
    for &seed in &FUZZ_SEEDS {
        let mut generator = ScenarioGenerator::new(dist.clone(), seed);
        for _ in 0..cases_per_seed {
            let case = generator.next_case();
            cases += 1;
            fault_events += case
                .scenario
                .steps
                .iter()
                .filter(|s| matches!(s.event, ScenarioEvent::InjectFault { .. }))
                .count();
            let artifacts = run_fuzz_case(&case, &dist)
                .map_err(|e| format!("case `{}` did not execute: {e}", case.name))?;
            if artifacts.rounds.iter().any(|r| {
                r.tenants
                    .iter()
                    .any(|t| matches!(t.health, SessionHealth::Quarantined { .. }))
            }) {
                quarantined_cases += 1;
            }
            if !artifacts.crash_detail.starts_with("skipped") {
                crash_legs += 1;
            }
            let found = registry.check_all(&artifacts);
            if found.is_empty() {
                continue;
            }
            violations += found.len();
            println!("  VIOLATION in `{}`:", case.name);
            for v in &found {
                println!("    [{}] {}", v.property, v.detail);
            }
            let fails = |c: &FuzzCase| {
                run_fuzz_case(c, &dist)
                    .map(|a| !registry.check_all(&a).is_empty())
                    .unwrap_or(false)
            };
            let minimized = shrink_case(&case, fails, 60);
            println!("  minimized reproducer (commit under tests/regressions/):");
            println!(
                "{}",
                minimized.to_json().unwrap_or_else(|e| format!("<{e}>"))
            );
        }
    }
    Ok(FuzzLegReport {
        cases,
        fault_events,
        quarantined_cases,
        crash_legs_run: crash_legs,
        violations,
    })
}

#[derive(Debug, serde::Serialize)]
struct FaultBenchReport {
    walkthrough: WalkthroughReport,
    recovery: RecoveryReportOut,
    fuzz: FuzzLegReport,
    wall_s: f64,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let start = std::time::Instant::now();
    let mut failed = false;

    section("Fault injection: retry -> quarantine -> readmission walkthrough");
    let walkthrough = walkthrough();
    println!(
        "  {} scripted timeouts over {} rounds: {} faults seen, {} backoffs, {} quarantine(s), \
         {} probes, {} readmission(s); final health `{}`",
        walkthrough.faults_injected,
        walkthrough.rounds,
        walkthrough.measurement_faults,
        walkthrough.fault_backoffs,
        walkthrough.quarantines,
        walkthrough.probe_iterations,
        walkthrough.readmissions,
        walkthrough.final_health,
    );
    for line in &walkthrough.health_trace {
        println!("    {line}");
    }
    if walkthrough.quarantines < 1
        || walkthrough.readmissions < 1
        || walkthrough.final_health != "healthy"
    {
        eprintln!("FAIL: the degradation ladder did not complete (quarantine + readmission)");
        failed = true;
    }
    if walkthrough.healthy_tenants_starved {
        eprintln!("FAIL: a healthy tenant lost a round of progress to quarantine handling");
        failed = true;
    }

    section("Crash-recovery bit-identity (kill at every round)");
    match crash_recovery_gate() {
        Ok(recovery) => {
            println!(
                "  {} kill points over a {}-round fault-laced scenario: {} bit-identical, \
                 {} rounds replayed, {} torn bytes dropped",
                recovery.kill_points,
                recovery.horizon,
                recovery.bit_identical,
                recovery.replayed_rounds_total,
                recovery.torn_bytes_total,
            );
            if recovery.bit_identical != recovery.kill_points {
                eprintln!(
                    "FAIL: {} of {} kill points diverged after recovery",
                    recovery.kill_points - recovery.bit_identical,
                    recovery.kill_points
                );
                failed = true;
            }
            run_fuzz_leg(smoke, walkthrough, recovery, start, &mut failed);
        }
        Err(e) => {
            eprintln!("FAIL: crash-recovery leg errored: {e}");
            std::process::exit(1);
        }
    }

    if failed {
        std::process::exit(1);
    }
    println!(
        "fault-injection gate green: degradation ladder, recovery, and fuzzed faults all hold"
    );
}

fn run_fuzz_leg(
    smoke: bool,
    walkthrough: WalkthroughReport,
    recovery: RecoveryReportOut,
    start: std::time::Instant,
    failed: &mut bool,
) {
    let cases_per_seed = if smoke {
        SMOKE_FUZZ_CASES_PER_SEED
    } else {
        FULL_FUZZ_CASES_PER_SEED
    };
    section("Fuzzed fault timelines under the property gates");
    let fuzz = match fuzzed_faults(cases_per_seed) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("FAIL: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "  {} timelines ({} fault events): {} quarantined a tenant, {} ran the crash leg, \
         {} violations",
        fuzz.cases, fuzz.fault_events, fuzz.quarantined_cases, fuzz.crash_legs_run, fuzz.violations
    );
    if fuzz.violations > 0 {
        eprintln!("FAIL: fuzzed fault timelines violated a global property");
        *failed = true;
    }
    if fuzz.fault_events == 0 {
        eprintln!("FAIL: the fault-enabled distribution scheduled no fault events");
        *failed = true;
    }

    let wall_s = start.elapsed().as_secs_f64();
    if !smoke {
        let report = FaultBenchReport {
            walkthrough,
            recovery,
            fuzz,
            wall_s,
        };
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        std::fs::write("BENCH_faults.json", &json).expect("write BENCH_faults.json");
        println!();
        println!("wrote BENCH_faults.json");
    }
}
