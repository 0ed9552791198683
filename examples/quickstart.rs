//! Quickstart: tune a simulated MySQL instance online for 30 three-minute intervals.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! `run_session` runs the whole OnlineTune workflow one interval at a time: featurize the
//! context, compute τ (what the DBA default would score there), ask the tuner for a safe
//! configuration, apply it, run the interval, judge it against τ and feed the observation
//! back. The hook prints each interval as it completes.

use baselines::OnlineTuneBaseline;
use bench::{run_session, SessionOptions};
use featurize::ContextFeaturizer;
use onlinetune::{OnlineTune, OnlineTuneOptions};
use simdb::{Configuration, HardwareSpec, KnobCatalogue};
use workloads::tpcc::TpccWorkload;

fn main() {
    // The simulated cloud database: 8 vCPU / 16 GiB, 40 tunable knobs, TPC-C data loaded.
    let catalogue = KnobCatalogue::mysql57();

    // The workload: TPC-C with a drifting transaction mix.
    let workload = TpccWorkload::new_dynamic(7);

    // Context featurization (workload embedding + optimizer statistics).
    let featurizer = ContextFeaturizer::with_defaults();

    // The tuner, seeded with the DBA default as the initial safety set.
    let mut tuner = OnlineTuneBaseline::new(OnlineTune::new(
        catalogue.clone(),
        HardwareSpec::default(),
        featurizer.dim(),
        &Configuration::dba_default(&catalogue),
        OnlineTuneOptions::default(),
        1,
    ));

    println!("iter  throughput(tps)  default(tps)  improvement  safety-set");
    let result = run_session(
        &mut tuner,
        &workload,
        &catalogue,
        &featurizer,
        &SessionOptions {
            iterations: 30,
            seed: 42,
            ..Default::default()
        },
        |record, _, diagnostics| {
            let (tps, default_tps) = (record.throughput_tps, record.reference_score);
            println!(
                "{:>4}  {tps:>15.0}  {default_tps:>12.0}  {:>+10.1}%  {:>10}",
                record.iteration,
                (tps / default_tps - 1.0) * 100.0,
                diagnostics.map_or(0, |d| d.safety_set_size),
            );
        },
    );
    println!(
        "\ncumulative transactions gained vs. always running the DBA default: {:+.0}",
        result.cumulative_improvement() * 180.0
    );
    println!(
        "unsafe intervals: {}, system failures during tuning: {}",
        result.unsafe_count(),
        result.failure_count()
    );
}
