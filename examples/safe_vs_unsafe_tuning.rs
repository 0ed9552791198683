//! Safe vs. unsafe online tuning: OnlineTune compared with OtterTune-style BO on a live
//! (simulated) instance.
//!
//! ```bash
//! cargo run --release --example safe_vs_unsafe_tuning
//! ```
//!
//! Both tuners get the same number of intervals on the same Twitter-like workload; the
//! example prints how often each one pushed the database below the default performance and
//! whether it ever hung the instance — the paper's core safety argument (Figure 1c / 5).

use baselines::bo::{BoOptions, BoTuner};
use baselines::{OnlineTuneBaseline, Tuner};
use bench::{run_session, SessionOptions};
use featurize::ContextFeaturizer;
use onlinetune::{OnlineTune, OnlineTuneOptions};
use simdb::{Configuration, HardwareSpec, KnobCatalogue};
use workloads::twitter::TwitterWorkload;
use workloads::Objective;

fn run(tuner: &mut dyn Tuner, iterations: usize) -> (f64, usize, usize) {
    let catalogue = KnobCatalogue::mysql57();
    let featurizer = ContextFeaturizer::with_defaults();
    let result = run_session(
        tuner,
        &TwitterWorkload::new_dynamic(3),
        &catalogue,
        &featurizer,
        &SessionOptions {
            iterations,
            seed: 11,
            ..Default::default()
        },
        |_, _, _| {},
    );
    (
        result.cumulative_performance(180.0, Objective::Throughput),
        result.unsafe_count(),
        result.failure_count(),
    )
}

fn main() {
    let iterations = 80;
    let catalogue = KnobCatalogue::mysql57();
    let featurizer_dim = ContextFeaturizer::with_defaults().dim();

    let mut online = OnlineTuneBaseline::new(OnlineTune::new(
        catalogue.clone(),
        HardwareSpec::default(),
        featurizer_dim,
        &Configuration::dba_default(&catalogue),
        OnlineTuneOptions::default(),
        5,
    ));
    let mut bo = BoTuner::new(catalogue.clone(), BoOptions::default(), 5);

    println!("tuning a live Twitter-like workload for {iterations} intervals with each tuner\n");
    for (name, tuner) in [
        ("OnlineTune", &mut online as &mut dyn Tuner),
        ("BO (OtterTune-style)", &mut bo as &mut dyn Tuner),
    ] {
        let (txn, unsafe_count, failures) = run(tuner, iterations);
        println!(
            "{name:<22}  transactions processed: {txn:>12.2e}   unsafe intervals: {unsafe_count:>3}   instance hangs: {failures}"
        );
    }
    println!("\nOnlineTune should process more transactions while recommending an order of magnitude fewer unsafe configurations and never hanging the instance.");
}
