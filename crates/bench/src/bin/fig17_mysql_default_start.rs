//! Figure 17 — starting from the MySQL vendor default instead of the DBA default.
//!
//! The initial safety set (and the safety threshold) is the much weaker MySQL default; the
//! question is whether OnlineTune can still climb to a configuration comparable to the
//! DBA-default-started run.
//!
//! Run with `cargo run --release -p bench --bin fig17_mysql_default_start [iterations]`.

use bench::report::{iterations_from_env, print_series, print_table, section, write_json};
use bench::tuners::{build_tuner, TunerKind};
use bench::{run_session, SessionOptions};
use featurize::ContextFeaturizer;
use simdb::Configuration;
use workloads::ycsb::YcsbWorkload;

fn main() {
    let iterations = iterations_from_env(400);
    let catalogue = YcsbWorkload::case_study_catalogue();
    let featurizer = ContextFeaturizer::with_defaults();
    let ycsb = YcsbWorkload::new(5);

    section("Figure 17: OnlineTune starting from the MySQL default (YCSB, 5 knobs)");
    let mut rows = Vec::new();
    let mut results = Vec::new();
    let mut series = Vec::new();
    for (label, kind, reference) in [
        (
            "OnlineTune (DBA default start)",
            TunerKind::OnlineTune,
            Configuration::dba_default(&catalogue),
        ),
        (
            "OnlineTune (MySQL default start)",
            TunerKind::OnlineTuneFromMysqlDefault,
            Configuration::vendor_default(&catalogue),
        ),
        (
            "MySQL Default",
            TunerKind::MysqlDefault,
            Configuration::vendor_default(&catalogue),
        ),
        (
            "DBA Default",
            TunerKind::DbaDefault,
            Configuration::dba_default(&catalogue),
        ),
    ] {
        let mut tuner = build_tuner(kind, &catalogue, featurizer.dim(), 170);
        let result = run_session(
            tuner.as_mut(),
            &ycsb,
            &catalogue,
            &featurizer,
            &SessionOptions {
                iterations,
                seed: 17,
                reference_config: Some(reference),
                ..Default::default()
            },
            |_, _, _| {},
        );
        let last_quarter: Vec<f64> = result
            .records
            .iter()
            .rev()
            .take(iterations / 4)
            .map(|r| r.throughput_tps)
            .collect();
        rows.push(vec![
            label.to_string(),
            format!("{:.0}", linalg_mean(&last_quarter)),
            result.unsafe_count().to_string(),
            result.failure_count().to_string(),
        ]);
        if kind == TunerKind::OnlineTuneFromMysqlDefault {
            series = result.records.iter().map(|r| r.throughput_tps).collect();
        }
        results.push(result);
    }
    print_series(
        "OnlineTune (MySQL default start) throughput (txn/s)",
        &series,
        25,
    );
    print_table(
        &["Run", "MeanThroughputLastQuarter", "#Unsafe", "#Failure"],
        &rows,
    );
    write_json("fig17_mysql_default_start", &results);
    println!("\nExpected shape: starting from the weak MySQL default, OnlineTune applies safe (better-than-MySQL-default) configurations from the beginning and, after one to two hundred iterations, reaches throughput comparable to the run that started from the DBA default.");
}

fn linalg_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
