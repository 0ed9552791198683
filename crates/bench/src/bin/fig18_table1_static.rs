//! Figure 18 and Table 1 — static workloads: search efficiency with safety constraints.
//!
//! Every tuner runs 200 iterations on *static* TPC-C, Twitter and JOB. Table 1 reports the
//! maximum improvement over the DBA default and the "Search Step": the iteration at which a
//! configuration within 10 % of the tuner's own best was first found.
//!
//! Run with `cargo run --release -p bench --bin fig18_table1_static [iterations]`.

use bench::report::{iterations_from_env, print_table, section, write_json};
use bench::tuners::{build_tuner, TunerKind};
use bench::{run_session, SessionOptions};
use featurize::ContextFeaturizer;
use simdb::KnobCatalogue;
use workloads::job::JobWorkload;
use workloads::tpcc::TpccWorkload;
use workloads::twitter::TwitterWorkload;
use workloads::WorkloadGenerator;

fn main() {
    let iterations = iterations_from_env(200);
    let catalogue = KnobCatalogue::mysql57();
    let featurizer = ContextFeaturizer::with_defaults();

    let generators: Vec<(&str, Box<dyn WorkloadGenerator>)> = vec![
        ("TPC-C", Box::new(TpccWorkload::new_static(81))),
        ("Twitter", Box::new(TwitterWorkload::new_static(82))),
        ("JOB", Box::new(JobWorkload::new_static(83))),
    ];
    let tuners = [
        TunerKind::OnlineTune,
        TunerKind::Bo,
        TunerKind::Ddpg,
        TunerKind::ResTune,
        TunerKind::Qtune,
        TunerKind::MysqlTuner,
    ];

    for (name, generator) in generators {
        section(&format!(
            "Figure 18 / Table 1 — static {name}, {iterations} iterations"
        ));
        let mut rows = Vec::new();
        let mut results = Vec::new();
        for kind in tuners {
            let mut tuner = build_tuner(kind, &catalogue, featurizer.dim(), 180 + kind as u64);
            let result = run_session(
                tuner.as_mut(),
                generator.as_ref(),
                &catalogue,
                &featurizer,
                &SessionOptions {
                    iterations,
                    seed: 18,
                    ..Default::default()
                },
                |_, _, _| {},
            );
            let search_step = result
                .search_step(0.1)
                .map(|s| s.to_string())
                .unwrap_or_else(|| "\\".to_string());
            rows.push(vec![
                kind.label().to_string(),
                format!("{:.2}%", result.max_improvement() * 100.0),
                search_step,
                result.unsafe_count().to_string(),
                result.failure_count().to_string(),
            ]);
            results.push(result);
        }
        print_table(
            &["Tuner", "MaxImprov", "SearchStep", "#Unsafe", "#Failure"],
            &rows,
        );
        write_json(&format!("fig18_{}", generator.name()), &results);
    }
    println!("\nExpected shape (Table 1): OnlineTune's search efficiency is comparable to BO and ResTune and better than DDPG/QTune, while it records an order of magnitude fewer unsafe trials; MysqlTuner converges quickly but plateaus at a lower maximum improvement.");
}
