//! Figures 6 and 7 — the transactional–analytical daily cycle (99th-percentile latency
//! objective) and the real-world workload trace.
//!
//! Run with `cargo run --release -p bench --bin fig6_7_cycle_realworld [iterations]`.

use bench::report::{
    iterations_from_env, print_series, print_table, section, summary_headers, summary_row,
    write_json,
};
use bench::tuners::{build_tuner, TunerKind};
use bench::{run_session, SessionOptions};
use featurize::ContextFeaturizer;
use simdb::KnobCatalogue;
use workloads::cycle::TransactionalAnalyticalCycle;
use workloads::realworld::RealWorldWorkload;
use workloads::WorkloadGenerator;

fn main() {
    let iterations = iterations_from_env(400);
    let catalogue = KnobCatalogue::mysql57();
    let featurizer = ContextFeaturizer::with_defaults();

    // ── Figures 6(a) / 7(a): OLTP–OLAP cycle, p99 latency objective ───────────────────
    section("Figure 6(a)/7(a): transactional-analytical cycle (TPC-C ↔ JOB every 100 iters)");
    let cycle = TransactionalAnalyticalCycle::new(21);
    let mut rows = Vec::new();
    let mut results = Vec::new();
    let mut onlinetune_latency_series = Vec::new();
    let mut default_latency_series = Vec::new();
    for kind in TunerKind::comparison_set() {
        let mut tuner = build_tuner(kind, &catalogue, featurizer.dim(), 40 + kind as u64);
        let result = run_session(
            tuner.as_mut(),
            &cycle,
            &catalogue,
            &featurizer,
            &SessionOptions {
                iterations,
                seed: 6,
                ..Default::default()
            },
            |_, _, _| {},
        );
        if kind == TunerKind::OnlineTune {
            onlinetune_latency_series = result
                .records
                .iter()
                .map(|r| r.latency_p99_ms / 1000.0)
                .collect();
        }
        if kind == TunerKind::DbaDefault {
            default_latency_series = result
                .records
                .iter()
                .map(|r| r.latency_p99_ms / 1000.0)
                .collect();
        }
        rows.push(summary_row(&result, 180.0, cycle.objective()));
        results.push(result);
    }
    print_series(
        "OnlineTune 99th-pct latency (s)",
        &onlinetune_latency_series,
        25,
    );
    print_series(
        "DBA default 99th-pct latency (s)",
        &default_latency_series,
        25,
    );
    print_table(&summary_headers(), &rows);
    write_json("fig6_7_cycle", &results);

    // ── Figures 6(b) / 7(b): real-world trace, throughput objective ───────────────────
    section("Figure 6(b)/7(b): real-world workload trace");
    let real = RealWorldWorkload::new(22);
    let mut rows = Vec::new();
    let mut results = Vec::new();
    for kind in TunerKind::comparison_set() {
        let mut tuner = build_tuner(kind, &catalogue, featurizer.dim(), 60 + kind as u64);
        let result = run_session(
            tuner.as_mut(),
            &real,
            &catalogue,
            &featurizer,
            &SessionOptions {
                iterations,
                seed: 7,
                ..Default::default()
            },
            |_, _, _| {},
        );
        if kind == TunerKind::OnlineTune {
            let series: Vec<f64> = result.records.iter().map(|r| r.throughput_tps).collect();
            print_series("OnlineTune throughput (txn/s)", &series, 25);
        }
        rows.push(summary_row(&result, 180.0, real.objective()));
        results.push(result);
    }
    print_table(&summary_headers(), &rows);
    write_json("fig6_7_realworld", &results);

    println!("\nExpected shape: on the cycle OnlineTune tracks (and beats) the DBA default's latency in both phases with very few unsafe intervals, adapting faster the second time each phase appears; on the real-world trace OnlineTune has the highest cumulative throughput with only a handful of early near-threshold unsafe intervals.");
}
