//! Tuning through a daily transactional–analytical cycle (the paper's §7.1.2 scenario):
//! TPC-C and JOB alternate and the tuner optimizes 99th-percentile latency.
//!
//! ```bash
//! cargo run --release --example transactional_analytical_cycle
//! ```
//!
//! The example shows the context clustering at work: after both phases have been seen, the
//! tuner maintains separate per-cluster models and re-selects the matching one when a phase
//! returns.

use baselines::OnlineTuneBaseline;
use bench::{run_session, SessionOptions};
use featurize::ContextFeaturizer;
use onlinetune::{OnlineTune, OnlineTuneOptions};
use simdb::{Configuration, HardwareSpec, KnobCatalogue};
use workloads::cycle::TransactionalAnalyticalCycle;

fn main() {
    let catalogue = KnobCatalogue::mysql57();
    let featurizer = ContextFeaturizer::with_defaults();
    // Shorter phases than the paper's 100 iterations so the example finishes quickly.
    let cycle = TransactionalAnalyticalCycle::with_phase_length(9, 25);
    let mut tuner = OnlineTuneBaseline::new(OnlineTune::new(
        catalogue.clone(),
        HardwareSpec::default(),
        featurizer.dim(),
        &Configuration::dba_default(&catalogue),
        OnlineTuneOptions::default(),
        23,
    ));

    let result = run_session(
        &mut tuner,
        &cycle,
        &catalogue,
        &featurizer,
        &SessionOptions {
            iterations: 100,
            seed: 23,
            ..Default::default()
        },
        |_, _, _| {},
    );

    let summarize = |transactional: bool, label: &str| {
        let phase: Vec<_> = result
            .records
            .iter()
            .filter(|r| cycle.is_transactional_phase(r.iteration) == transactional)
            .collect();
        let n = phase.len() as f64;
        let tuned = phase.iter().map(|r| r.latency_p99_ms).sum::<f64>() / n;
        // The objective is p99 latency, so τ is the default's negated p99 latency.
        let default = -phase.iter().map(|r| r.reference_score).sum::<f64>() / n;
        println!(
            "{label:<22} mean p99 latency: tuned {tuned:>9.1} ms   DBA default {default:>9.1} ms"
        );
    };
    summarize(true, "TPC-C phases");
    summarize(false, "JOB phases");
    println!(
        "\ncontext clusters maintained: {}   re-clusterings: {}",
        tuner.inner().model_count(),
        tuner.inner().recluster_count()
    );
    println!("After both phases have been visited, OnlineTune keeps one surrogate per phase and switches between them as the cycle repeats.");
}
