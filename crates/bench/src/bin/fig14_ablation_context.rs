//! Figure 14 — ablation study on the context-space design.
//!
//! Variants: full OnlineTune, without the workload feature, without the underlying-data
//! (optimizer) feature, and without clustering / model selection — on dynamic TPC-C (data
//! changes) and JOB (read-only, no data changes). Reported as cumulative improvement over
//! the DBA default plus safety counts.
//!
//! Run with `cargo run --release -p bench --bin fig14_ablation_context [iterations]`.

use bench::report::{iterations_from_env, print_table, section, write_json};
use bench::tuners::{build_tuner, TunerKind};
use bench::{run_session, SessionOptions};
use featurize::{ContextFeaturizer, ContextFeaturizerConfig};
use simdb::KnobCatalogue;
use workloads::job::JobWorkload;
use workloads::tpcc::TpccWorkload;
use workloads::WorkloadGenerator;

fn main() {
    let iterations = iterations_from_env(400);
    let catalogue = KnobCatalogue::mysql57();

    let variants: Vec<(&str, ContextFeaturizerConfig, TunerKind)> = vec![
        (
            "OnlineTune",
            ContextFeaturizerConfig::default(),
            TunerKind::OnlineTune,
        ),
        (
            "OnlineTune-w/o-workload",
            ContextFeaturizerConfig {
                include_workload: false,
                ..Default::default()
            },
            TunerKind::OnlineTune,
        ),
        (
            "OnlineTune-w/o-data",
            ContextFeaturizerConfig {
                include_data: false,
                ..Default::default()
            },
            TunerKind::OnlineTune,
        ),
        (
            "OnlineTune-w/o-clustering",
            ContextFeaturizerConfig::default(),
            TunerKind::OnlineTuneNoClustering,
        ),
    ];

    let generators: Vec<(&str, Box<dyn WorkloadGenerator>)> = vec![
        (
            "(a) TPC-C (data changes)",
            Box::new(TpccWorkload::new_dynamic(51)),
        ),
        (
            "(b) JOB (read-only)",
            Box::new(JobWorkload::new_dynamic(52)),
        ),
    ];

    for (title, generator) in generators {
        section(&format!(
            "Figure 14 {title}: context-design ablation, {iterations} intervals"
        ));
        let mut rows = Vec::new();
        let mut results = Vec::new();
        for (label, feat_config, kind) in &variants {
            let featurizer = ContextFeaturizer::new(feat_config.clone());
            let mut tuner = build_tuner(*kind, &catalogue, featurizer.dim(), 140);
            let result = run_session(
                tuner.as_mut(),
                generator.as_ref(),
                &catalogue,
                &featurizer,
                &SessionOptions {
                    iterations,
                    seed: 14,
                    ..Default::default()
                },
                |_, _, _| {},
            );
            rows.push(vec![
                label.to_string(),
                format!("{:.3e}", result.cumulative_improvement()),
                result.unsafe_count().to_string(),
                result.failure_count().to_string(),
            ]);
            results.push(result);
        }
        print_table(
            &["Variant", "CumulativeImprovement", "#Unsafe", "#Failure"],
            &rows,
        );
        write_json(&format!("fig14_{}", generator.name()), &results);
    }
    println!("\nExpected shape: on TPC-C the full context (workload + data features) wins because the data grows; on read-only JOB dropping the data feature costs little (it can even help slightly by shrinking the context); dropping clustering or the workload feature hurts on both.");
}
