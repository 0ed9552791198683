//! Reporting helpers: aligned console tables, downsampled series and JSON export.

use crate::harness::SessionResult;
use std::fs;
use std::path::Path;
use workloads::Objective;

/// Prints a section header for an experiment.
pub fn section(title: &str) {
    println!();
    println!("==== {title} ====");
}

/// Prints an aligned table. `headers.len()` must equal every row's length.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let print_row = |cells: &[String]| {
        let line: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", line.join("  "));
    };
    print_row(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    print_row(
        &widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<String>>(),
    );
    for row in rows {
        print_row(row);
    }
}

/// Prints a numeric series downsampled to at most `points` evenly spaced samples, as
/// `index: value` pairs — the textual stand-in for the paper's line plots.
pub fn print_series(name: &str, values: &[f64], points: usize) {
    println!("  series {name} ({} samples):", values.len());
    if values.is_empty() {
        return;
    }
    let step = (values.len() as f64 / points as f64).ceil().max(1.0) as usize;
    let mut line = String::new();
    for (i, v) in values.iter().enumerate().step_by(step) {
        line.push_str(&format!("{i}:{v:.1} "));
    }
    println!("    {line}");
}

/// The standard per-tuner summary row used by the dynamic-workload experiments (Figure 5 /
/// Figure 7): cumulative performance, cumulative improvement, #Unsafe and #Failure.
pub fn summary_row(result: &SessionResult, interval_s: f64, objective: Objective) -> Vec<String> {
    vec![
        result.tuner.clone(),
        format!(
            "{:.3e}",
            result.cumulative_performance(interval_s, objective)
        ),
        format!("{:.3e}", result.cumulative_improvement()),
        result.unsafe_count().to_string(),
        result.failure_count().to_string(),
        format!("{:.1}%", result.max_improvement() * 100.0),
    ]
}

/// Headers matching [`summary_row`].
pub fn summary_headers() -> Vec<&'static str> {
    vec![
        "Tuner",
        "CumulativePerf",
        "CumulativeImprovement",
        "#Unsafe",
        "#Failure",
        "MaxImprov",
    ]
}

/// Writes session results as JSON under `results/<name>.json` (relative to the workspace
/// root when run via `cargo run`), creating the directory if needed. Failures to write are
/// reported but not fatal — the console output is the primary artefact.
pub fn write_json(name: &str, results: &[SessionResult]) {
    let dir = Path::new("results");
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("warning: could not create results/: {e}");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(results) {
        Ok(json) => {
            if let Err(e) = fs::write(&path, json) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("  (raw per-iteration data written to {})", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize results: {e}"),
    }
}

/// Reads the iteration-count override from the command line / environment.
///
/// The experiment binaries default to the paper's iteration counts; passing a first CLI
/// argument or setting `ONLINETUNE_ITERS` shortens the runs (useful for smoke tests).
pub fn iterations_from_env(default: usize) -> usize {
    if let Some(arg) = std::env::args().nth(1) {
        if let Ok(n) = arg.parse::<usize>() {
            return n.max(1);
        }
    }
    if let Ok(var) = std::env::var("ONLINETUNE_ITERS") {
        if let Ok(n) = var.parse::<usize>() {
            return n.max(1);
        }
    }
    default
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::IterationRecord;

    fn fake_result() -> SessionResult {
        SessionResult {
            tuner: "X".into(),
            workload: "w".into(),
            objective_name: "Throughput".into(),
            records: (0..5)
                .map(|i| IterationRecord {
                    iteration: i,
                    throughput_tps: 100.0 + i as f64,
                    latency_p99_ms: 10.0,
                    score: 100.0 + i as f64,
                    reference_score: 100.0,
                    is_unsafe: i == 0,
                    failed: false,
                    data_size_gib: 18.0,
                    tuner_time_s: 0.01,
                    read_fraction: 0.5,
                })
                .collect(),
        }
    }

    #[test]
    fn summary_row_matches_headers() {
        let r = fake_result();
        let row = summary_row(&r, 180.0, Objective::Throughput);
        assert_eq!(row.len(), summary_headers().len());
        assert_eq!(row[3], "1"); // one unsafe record
        assert_eq!(row[4], "0");
    }

    #[test]
    fn iterations_from_env_uses_default_without_override() {
        std::env::remove_var("ONLINETUNE_ITERS");
        // The test binary's argv[1] (if any) is a test-name filter, not a number, so the
        // default must win.
        assert_eq!(iterations_from_env(123), 123);
    }

    #[test]
    fn printing_helpers_do_not_panic() {
        section("test");
        print_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        print_series("s", &[1.0, 2.0, 3.0], 2);
        print_series("empty", &[], 2);
    }
}
