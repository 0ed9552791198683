//! The 5-knob YCSB case study (paper §7.2) in miniature: tune only the five case-study
//! knobs on a YCSB workload whose read/write mix drifts, and compare against a brute-force
//! "Best" reference.
//!
//! ```bash
//! cargo run --release --example five_knob_case_study
//! ```

use baselines::OnlineTuneBaseline;
use bench::{run_session, SessionOptions};
use featurize::ContextFeaturizer;
use onlinetune::{OnlineTune, OnlineTuneOptions};
use simdb::{Configuration, HardwareSpec, SimDatabase};
use workloads::ycsb::YcsbWorkload;
use workloads::WorkloadGenerator;

fn main() {
    let catalogue = YcsbWorkload::case_study_catalogue();
    println!(
        "tuning {} knobs: {:?}\n",
        catalogue.len(),
        YcsbWorkload::CASE_STUDY_KNOBS
    );

    let featurizer = ContextFeaturizer::with_defaults();
    let ycsb = YcsbWorkload::new(5);
    let initial = Configuration::dba_default(&catalogue);
    let mut tuner = OnlineTuneBaseline::new(OnlineTune::new(
        catalogue.clone(),
        HardwareSpec::default(),
        featurizer.dim(),
        &initial,
        OnlineTuneOptions::default(),
        31,
    ));

    // Brute-force reference over a coarse grid of the two headline knobs, evaluated
    // without noise at the data size the tuned instance had when each interval began.
    let mut grid = SimDatabase::with_catalogue(catalogue.clone(), HardwareSpec::default(), 31);
    grid.set_data_size(ycsb.initial_data_size_gib());
    let mut best_total = 0.0;

    let iterations = 120;
    let result = run_session(
        &mut tuner,
        &ycsb,
        &catalogue,
        &featurizer,
        &SessionOptions {
            iterations,
            seed: 31,
            ..Default::default()
        },
        |record, _, _| {
            let spec = ycsb.spec_at(record.iteration);
            let mut best = f64::NEG_INFINITY;
            for bp in [0.5, 0.8, 0.95] {
                for heap in [0.2, 0.6, 0.9] {
                    let mut unit = initial.normalized(&catalogue);
                    unit[0] = bp;
                    unit[1] = heap;
                    let config = Configuration::from_normalized(&catalogue, &unit);
                    best = best.max(grid.peek(&config, &spec).throughput_tps);
                }
            }
            best_total += best;
            grid.set_data_size(record.data_size_gib);
        },
    );

    let mean = |total: f64| total / iterations as f64;
    let tuned_total: f64 = result.records.iter().map(|r| r.throughput_tps).sum();
    let default_total: f64 = result.records.iter().map(|r| r.reference_score).sum();
    println!("mean throughput over {iterations} intervals (read ratio drifting 40%..100%):");
    println!("  OnlineTune : {:>9.0} tps", mean(tuned_total));
    println!("  DBA default: {:>9.0} tps", mean(default_total));
    println!("  Best (grid): {:>9.0} tps", mean(best_total));
    println!(
        "  unsafe intervals: {}, instance hangs: {}",
        result.unsafe_count(),
        result.failure_count()
    );
    println!("\nOnlineTune should sit between the DBA default and the per-phase Best, moving closer to Best as iterations accumulate while staying safe.");
}
