//! Figure 15 — ablation study on the safe exploration strategy.
//!
//! Variants: full OnlineTune, without white-box rules, without the black-box confidence
//! bound, without the subspace restriction, and without any safety (vanilla contextual BO)
//! — on dynamic Twitter and JOB.
//!
//! Run with `cargo run --release -p bench --bin fig15_ablation_safety [iterations]`.

use bench::report::{iterations_from_env, print_table, section, write_json};
use bench::tuners::{build_tuner, TunerKind};
use bench::{run_session, SessionOptions};
use featurize::ContextFeaturizer;
use simdb::KnobCatalogue;
use workloads::job::JobWorkload;
use workloads::twitter::TwitterWorkload;
use workloads::WorkloadGenerator;

fn main() {
    let iterations = iterations_from_env(400);
    let catalogue = KnobCatalogue::mysql57();
    let featurizer = ContextFeaturizer::with_defaults();

    let variants = [
        TunerKind::OnlineTune,
        TunerKind::OnlineTuneNoWhiteBox,
        TunerKind::OnlineTuneNoBlackBox,
        TunerKind::OnlineTuneNoSubspace,
        TunerKind::OnlineTuneNoSafety,
    ];

    let generators: Vec<(&str, Box<dyn WorkloadGenerator>)> = vec![
        ("(a) Twitter", Box::new(TwitterWorkload::new_dynamic(61))),
        ("(b) JOB", Box::new(JobWorkload::new_dynamic(62))),
    ];

    for (title, generator) in generators {
        section(&format!(
            "Figure 15 {title}: safe-exploration ablation, {iterations} intervals"
        ));
        let mut rows = Vec::new();
        let mut results = Vec::new();
        for kind in variants {
            let mut tuner = build_tuner(kind, &catalogue, featurizer.dim(), 150 + kind as u64);
            let result = run_session(
                tuner.as_mut(),
                generator.as_ref(),
                &catalogue,
                &featurizer,
                &SessionOptions {
                    iterations,
                    seed: 15,
                    ..Default::default()
                },
                |_, _, _| {},
            );
            rows.push(vec![
                kind.label().to_string(),
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
        write_json(&format!("fig15_{}", generator.name()), &results);
    }
    println!("\nExpected shape: removing the black box costs the most safety (the rules only cover a small subset of unsafe cases), removing the white box mainly re-admits non-ordinal-knob mistakes such as tiny thread_concurrency values, removing the subspace increases unsafe recommendations and boundary over-exploration, and removing all safety is worst on both metrics.");
}
