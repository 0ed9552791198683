//! Figure 5 — tuning dynamic workloads (TPC-C, Twitter, JOB with drifting query
//! composition): cumulative performance plus #Unsafe / #Failure for every baseline.
//!
//! Run with `cargo run --release -p bench --bin fig5_dynamic_workloads [iterations]`
//! (defaults to the paper's 400 intervals; pass a smaller number for a quick look).

use bench::report::{
    iterations_from_env, print_table, section, summary_headers, summary_row, write_json,
};
use bench::tuners::{build_tuner, TunerKind};
use bench::{run_session, SessionOptions};
use featurize::ContextFeaturizer;
use simdb::KnobCatalogue;
use workloads::job::JobWorkload;
use workloads::tpcc::TpccWorkload;
use workloads::twitter::TwitterWorkload;
use workloads::WorkloadGenerator;

fn main() {
    let iterations = iterations_from_env(400);
    let catalogue = KnobCatalogue::mysql57();
    let featurizer = ContextFeaturizer::with_defaults();
    let workloads: Vec<(&str, Box<dyn WorkloadGenerator>)> = vec![
        ("(a) TPC-C", Box::new(TpccWorkload::new_dynamic(11))),
        ("(b) Twitter", Box::new(TwitterWorkload::new_dynamic(12))),
        ("(c) JOB", Box::new(JobWorkload::new_dynamic(13))),
    ];

    for (title, generator) in workloads {
        section(&format!(
            "Figure 5 {title}: dynamic query composition, {iterations} intervals"
        ));
        let objective = generator.objective();
        let mut rows = Vec::new();
        let mut results = Vec::new();
        for kind in TunerKind::comparison_set() {
            let mut tuner = build_tuner(kind, &catalogue, featurizer.dim(), 20 + kind as u64);
            let result = run_session(
                tuner.as_mut(),
                generator.as_ref(),
                &catalogue,
                &featurizer,
                &SessionOptions {
                    iterations,
                    seed: 2022,
                    ..Default::default()
                },
                |_, _, _| {},
            );
            rows.push(summary_row(&result, 180.0, objective));
            results.push(result);
        }
        print_table(&summary_headers(), &rows);
        write_json(&format!("fig5_{}", generator.name()), &results);
    }
    println!("\nExpected shape: OnlineTune has the best cumulative performance (higher #txn for TPC-C/Twitter, lower cumulative execution time for JOB), near-zero #Unsafe and zero #Failure; BO/DDPG/QTune/ResTune have tens-to-hundreds of unsafe recommendations and occasional failures; MysqlTuner is safe but plateaus.");
}
