//! Telemetry overhead — the cost of observing the fleet, and the proof it changes
//! nothing.
//!
//! Runs the same deterministic multi-tenant workload with the no-op sink (a disabled
//! [`telemetry::TelemetryHandle`] is a single branch per call site) and with a live
//! registry + journal, in alternating pairs, and measures:
//!
//! * end-to-end fleet wall time of both modes and the relative overhead of the enabled
//!   sink: the median over [`PAIRS`] pairs of each pair's overhead, where the pairs
//!   alternate which mode runs first, so neither a slow stretch of the host nor a warm
//!   cache favours one side;
//! * nanosecond-scale microbenchmarks of the primitives (counter increment, span,
//!   journal event) in both states;
//! * the **replay gate**: every run's snapshot JSON must be byte-identical.
//!
//! Run with `cargo run --release -p bench --bin telemetry_overhead [-- --smoke]`. The
//! full mode writes `BENCH_telemetry.json` (committed). `--smoke` runs the same
//! measurement and exits non-zero when the median enabled-mode overhead exceeds 5% or
//! any replay byte diverges — CI uses it.

use bench::report::{iterations_from_env, section};
use fleet::service::{small_tuner_options, FleetOptions, FleetService};
use fleet::tenant::{TenantSpec, WorkloadFamily};
use std::time::Instant;
use telemetry::{CounterId, EventKind, SpanId, TelemetryHandle};

/// Enabled-mode overhead (percent of the disabled-mode wall time) the smoke gate allows.
const MAX_OVERHEAD_PCT: f64 = 5.0;
/// Timed (disabled, enabled) pairs; even pairs run the disabled mode first, odd pairs
/// the enabled mode.
const PAIRS: usize = 60;

#[derive(Debug, serde::Serialize)]
struct MicroBench {
    /// One counter increment through a disabled handle (ns).
    counter_disabled_ns: f64,
    /// One counter increment into a live registry (ns).
    counter_enabled_ns: f64,
    /// One begin+end span pair through a disabled handle (ns).
    span_disabled_ns: f64,
    /// One begin+end span pair against the monotonic clock and a live histogram (ns).
    span_enabled_ns: f64,
    /// One structured journal event into the bounded ring (ns).
    event_enabled_ns: f64,
}

#[derive(Debug, serde::Serialize)]
struct OverheadReport {
    tenants: usize,
    rounds: usize,
    pairs: usize,
    iterations: usize,
    /// Fleet wall time with the no-op sink (seconds, median over pairs).
    disabled_s: f64,
    /// Fleet wall time with the live sink (seconds, median over pairs).
    enabled_s: f64,
    /// Each pair's `(enabled - disabled) / disabled * 100`, in run order.
    pair_overhead_pct: Vec<f64>,
    /// Median of `pair_overhead_pct`: the gated figure.
    overhead_pct: f64,
    /// Whether every run produced byte-identical fleet snapshots.
    replay_identical: bool,
    micro: MicroBench,
}

fn build_fleet(telemetry: TelemetryHandle) -> FleetService {
    let mut svc = FleetService::new(FleetOptions {
        tuner: small_tuner_options(),
        ..Default::default()
    });
    svc.set_telemetry(telemetry);
    for i in 0..6usize {
        let family = WorkloadFamily::ALL[i % WorkloadFamily::ALL.len()];
        let mut spec = TenantSpec::named(format!("tenant-{i}"), family, 7000 + i as u64);
        spec.deterministic = true;
        svc.admit(spec).expect("admission");
    }
    svc
}

/// Runs the workload once and returns `(wall_s, snapshot text, iterations)`.
fn run_once(enabled: bool, rounds: usize) -> (f64, String, usize) {
    let sink = if enabled {
        TelemetryHandle::enabled()
    } else {
        TelemetryHandle::disabled()
    };
    let mut svc = build_fleet(sink);
    let start = Instant::now();
    let report = svc.run_rounds(rounds);
    let wall = start.elapsed().as_secs_f64();
    let json = svc.canonical_snapshot_json();
    (wall, json, report.iterations)
}

/// Median of `samples` (the mean of the middle two for an even count).
fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Times `op` per call over `n` calls (ns). The loop result is accumulated into a value
/// the compiler cannot discard.
fn per_call_ns(n: u64, mut op: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut acc = 0u64;
    for _ in 0..n {
        acc = acc.wrapping_add(op());
    }
    let elapsed = start.elapsed().as_nanos() as f64;
    std::hint::black_box(acc);
    elapsed / n as f64
}

fn micro_bench() -> MicroBench {
    let n = 1_000_000u64;
    let disabled = TelemetryHandle::disabled();
    let enabled = TelemetryHandle::enabled();
    MicroBench {
        counter_disabled_ns: per_call_ns(n, || {
            disabled.incr(CounterId::Iterations);
            0
        }),
        counter_enabled_ns: per_call_ns(n, || {
            enabled.incr(CounterId::Iterations);
            0
        }),
        span_disabled_ns: per_call_ns(n, || {
            let span = disabled.begin_span();
            disabled.end_span(SpanId::Iteration, span);
            0
        }),
        span_enabled_ns: per_call_ns(n, || {
            let span = enabled.begin_span();
            enabled.end_span(SpanId::Iteration, span);
            0
        }),
        // The journal is a bounded ring: steady-state cost includes evicting the oldest
        // event, which is exactly the hot-path case.
        event_enabled_ns: per_call_ns(n / 10, || {
            enabled.event(EventKind::ObserveFallback, "bench", "steady-state push");
            0
        }),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let rounds = iterations_from_env(24);

    section("Telemetry primitives (ns per call, 1e6 calls)");
    let micro = micro_bench();
    println!(
        "  counter incr : disabled {:>7.2} ns   enabled {:>7.2} ns",
        micro.counter_disabled_ns, micro.counter_enabled_ns
    );
    println!(
        "  span pair    : disabled {:>7.2} ns   enabled {:>7.2} ns",
        micro.span_disabled_ns, micro.span_enabled_ns
    );
    println!(
        "  journal event: enabled  {:>7.2} ns",
        micro.event_enabled_ns
    );

    section("Fleet hot path: no-op sink vs live registry + journal");
    // Warm-up run (page cache, lazy init) that is not measured.
    run_once(false, 1);

    let mut disabled_s = Vec::with_capacity(PAIRS);
    let mut enabled_s = Vec::with_capacity(PAIRS);
    let mut pair_overhead_pct = Vec::with_capacity(PAIRS);
    let mut reference_json: Option<String> = None;
    let mut replay_identical = true;
    let mut iterations = 0;
    for pair in 0..PAIRS {
        let order = if pair.is_multiple_of(2) {
            [false, true]
        } else {
            [true, false]
        };
        // Wall time per mode, indexed by `enabled as usize`.
        let mut wall = [0.0; 2];
        for enabled in order {
            let (w, json, iters) = run_once(enabled, rounds);
            wall[enabled as usize] = w;
            replay_identical &= *reference_json.get_or_insert_with(|| json.clone()) == json;
            iterations = iters;
        }
        disabled_s.push(wall[0]);
        enabled_s.push(wall[1]);
        pair_overhead_pct.push((wall[1] - wall[0]) / wall[0].max(1e-12) * 100.0);
    }
    let overhead_pct = median(&pair_overhead_pct);
    let (disabled_s, enabled_s) = (median(&disabled_s), median(&enabled_s));
    println!("  6 tenants x {rounds} rounds ({iterations} iterations), {PAIRS} alternating pairs:");
    let pairs: Vec<String> = pair_overhead_pct
        .iter()
        .map(|p| format!("{p:+.1}%"))
        .collect();
    println!("  per-pair overhead: {}", pairs.join(" "));
    println!(
        "  median disabled {:.3}s   enabled {:.3}s   overhead {:+.2}%   snapshots byte-identical: {}",
        disabled_s, enabled_s, overhead_pct, replay_identical
    );

    let report = OverheadReport {
        tenants: 6,
        rounds,
        pairs: PAIRS,
        iterations,
        disabled_s,
        enabled_s,
        pair_overhead_pct,
        overhead_pct,
        replay_identical,
        micro,
    };

    if !smoke {
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        std::fs::write("BENCH_telemetry.json", &json).expect("write BENCH_telemetry.json");
        println!();
        println!("wrote BENCH_telemetry.json");
    }

    if !replay_identical {
        eprintln!(
            "FAIL: telemetry-enabled run produced different snapshot bytes than the no-op run \
             (observability leaked into the replay contract)"
        );
        std::process::exit(1);
    }
    if overhead_pct > MAX_OVERHEAD_PCT {
        eprintln!(
            "FAIL: median enabled-mode overhead {overhead_pct:+.2}% exceeds the {MAX_OVERHEAD_PCT}% budget"
        );
        std::process::exit(1);
    }
    println!(
        "telemetry contracts verified: overhead within {MAX_OVERHEAD_PCT}%, replay byte-identical"
    );
}
