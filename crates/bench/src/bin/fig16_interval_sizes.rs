//! Figure 16 — sensitivity to the tuning-interval size on Twitter.
//!
//! OnlineTune is run with 5-second, 1-minute, 3-minute, 6-minute and 12-minute intervals
//! for the same total wall-clock tuning time; shorter intervals adapt faster (more
//! observations per unit time) until measurement noise makes them unreliable — the 5-second
//! variant is worse than the 1-minute one and produces more unsafe recommendations.
//!
//! Run with `cargo run --release -p bench --bin fig16_interval_sizes [budget_minutes]`.

use bench::report::{iterations_from_env, print_table, section, write_json};
use bench::tuners::{build_tuner, TunerKind};
use bench::{run_session, SessionOptions};
use featurize::ContextFeaturizer;
use simdb::KnobCatalogue;
use workloads::twitter::TwitterWorkload;

fn main() {
    // Total tuning budget in minutes (the paper tunes for ~1200 minutes).
    let budget_minutes = iterations_from_env(600);
    let catalogue = KnobCatalogue::mysql57();
    let featurizer = ContextFeaturizer::with_defaults();
    let twitter = TwitterWorkload::new_dynamic(71);

    section(&format!(
        "Figure 16: tuning Twitter with different interval sizes ({budget_minutes} minutes of tuning)"
    ));
    let intervals: [(&str, f64); 5] = [
        ("I-5S", 5.0),
        ("I-1M", 60.0),
        ("I-3M", 180.0),
        ("I-6M", 360.0),
        ("I-12M", 720.0),
    ];
    let mut rows = Vec::new();
    let mut results = Vec::new();
    for (label, interval_s) in intervals {
        let iterations = ((budget_minutes as f64 * 60.0 / interval_s) as usize).clamp(10, 4000);
        let mut tuner = build_tuner(TunerKind::OnlineTune, &catalogue, featurizer.dim(), 160);
        let result = run_session(
            tuner.as_mut(),
            &twitter,
            &catalogue,
            &featurizer,
            &SessionOptions {
                iterations,
                interval_s,
                seed: 16,
                ..Default::default()
            },
            |_, _, _| {},
        );
        // Normalize the cumulative improvement per minute of tuning so different interval
        // counts are comparable (the paper plots cumulative improvement over wall time).
        let improvement_per_minute =
            result.cumulative_improvement() * interval_s / 60.0 / budget_minutes as f64;
        rows.push(vec![
            label.to_string(),
            iterations.to_string(),
            format!("{:.1}", improvement_per_minute),
            result.unsafe_count().to_string(),
            result.failure_count().to_string(),
        ]);
        results.push(result);
    }
    print_table(
        &[
            "Interval",
            "Iterations",
            "Improvement/minute",
            "#Unsafe",
            "#Failure",
        ],
        &rows,
    );
    write_json("fig16_intervals", &results);
    println!("\nExpected shape: within a fixed tuning budget, smaller intervals give faster adaptation down to about one minute; the 5-second interval is noisier, performs worse than the 1-minute one and produces the most unsafe recommendations.");
}
