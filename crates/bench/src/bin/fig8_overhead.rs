//! Figure 8 and Table A1 — algorithm overhead.
//!
//! Figure 8 plots the per-iteration computation time of every method while tuning JOB;
//! Table A1 breaks one OnlineTune iteration into its stages. This binary reproduces both
//! from an actual tuning run. The tuner stages of Table A1 are the means of the spans the
//! tuner records into an enabled telemetry handle (`SpanId::ModelSelection` …
//! `SpanId::CandidateSelection`, and `SpanId::Observe` for the model update);
//! featurization and the apply-and-evaluate interval happen outside the tuner and are
//! timed here. Both tables come from `run_session` sessions.
//!
//! Run with `cargo run --release -p bench --bin fig8_overhead [iterations]`.

use baselines::OnlineTuneBaseline;
use bench::report::{iterations_from_env, print_series, print_table, section};
use bench::tuners::{build_tuner, TunerKind};
use bench::{run_session, SessionOptions};
use featurize::ContextFeaturizer;
use fleet::interval::Interval;
use onlinetune::{OnlineTune, OnlineTuneOptions};
use simdb::{Configuration, HardwareSpec, KnobCatalogue, SimDatabase};
use std::hint::black_box;
use std::time::Instant;
use telemetry::{SpanId, TelemetryHandle};
use workloads::job::JobWorkload;
use workloads::WorkloadGenerator;

fn main() {
    let iterations = iterations_from_env(200);
    let catalogue = KnobCatalogue::mysql57();
    let featurizer = ContextFeaturizer::with_defaults();
    let job = JobWorkload::new_dynamic(31);

    // ── Figure 8: per-iteration computation time by method ────────────────────────────
    section("Figure 8: per-iteration computation time while tuning JOB");
    let mut rows = Vec::new();
    for kind in [
        TunerKind::OnlineTune,
        TunerKind::Bo,
        TunerKind::Ddpg,
        TunerKind::Qtune,
        TunerKind::ResTune,
        TunerKind::MysqlTuner,
    ] {
        let mut tuner = build_tuner(kind, &catalogue, featurizer.dim(), 80 + kind as u64);
        let result = run_session(
            tuner.as_mut(),
            &job,
            &catalogue,
            &featurizer,
            &SessionOptions {
                iterations,
                seed: 8,
                ..Default::default()
            },
            |_, _, _| {},
        );
        let times: Vec<f64> = result.records.iter().map(|r| r.tuner_time_s).collect();
        let late_avg = times.iter().rev().take(20).sum::<f64>() / 20.0_f64.min(times.len() as f64);
        if kind == TunerKind::OnlineTune || kind == TunerKind::Bo {
            print_series(
                &format!("{} per-iteration time (s)", kind.label()),
                &times,
                20,
            );
        }
        rows.push(vec![
            kind.label().to_string(),
            format!("{:.4}", result.mean_tuner_time_s()),
            format!("{:.4}", late_avg),
            format!(
                "{:.4}",
                times.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            ),
        ]);
    }
    print_table(
        &["Tuner", "MeanTime(s)", "MeanOfLast20(s)", "MaxTime(s)"],
        &rows,
    );
    println!("  Expected shape: BO's time grows with the iteration count (cubic GP cost on all observations) while OnlineTune stays bounded thanks to clustering; DDPG/QTune/MysqlTuner are cheap per step.");

    // ── Table A1: stage breakdown for one OnlineTune iteration ────────────────────────
    section("Table A1: average time breakdown of one OnlineTune iteration (JOB workload)");
    let reference = Configuration::dba_default(&catalogue);
    let mut online = OnlineTune::new(
        catalogue.clone(),
        HardwareSpec::default(),
        featurizer.dim(),
        &reference,
        OnlineTuneOptions::default(),
        3,
    );
    online.set_telemetry(TelemetryHandle::enabled());
    let mut tuner = OnlineTuneBaseline::new(online);
    // Featurization and the apply-and-evaluate interval happen outside the tuner. The hook
    // times both again on a second instance that holds the session's data size, so each
    // iteration featurizes the same context and runs the same configuration.
    let mut replica = SimDatabase::with_catalogue(catalogue.clone(), HardwareSpec::default(), 3);
    replica.set_data_size(job.initial_data_size_gib());
    let mut feat_time = 0.0;
    let mut apply_eval_time = 0.0;
    let breakdown_iters = iterations.min(100);
    run_session(
        &mut tuner,
        &job,
        &catalogue,
        &featurizer,
        &SessionOptions {
            iterations: breakdown_iters,
            seed: 3,
            ..Default::default()
        },
        |record, config, _| {
            let interval = Interval::open(&job, &replica, &reference, record.iteration);
            let t = Instant::now();
            black_box(interval.context(&job, &replica, &featurizer));
            feat_time += t.elapsed().as_secs_f64();
            let t = Instant::now();
            black_box(interval.measure(&mut replica, config, 180.0));
            apply_eval_time += t.elapsed().as_secs_f64() + 180.0; // simulated interval wall time
            replica.set_data_size(record.data_size_gib);
        },
    );
    let n = breakdown_iters as f64;
    let stage = |label: &str, id: SpanId| {
        let mean_s = tuner.inner().telemetry().histogram(id).mean_ms() / 1e3;
        vec![label.to_string(), format!("{mean_s:.4}")]
    };
    let rows = vec![
        vec!["Featurization".to_string(), format!("{:.4}", feat_time / n)],
        stage("Model Selection", SpanId::ModelSelection),
        stage("Model Update", SpanId::Observe),
        stage("Subspace Adaptation", SpanId::SubspaceAdaptation),
        stage("Safety Assessment", SpanId::SafetyAssessment),
        stage("Candidate Selection", SpanId::CandidateSelection),
        vec![
            "Apply & Evaluation (interval)".to_string(),
            format!("{:.1}", apply_eval_time / n),
        ],
    ];
    print_table(&["Stage", "AvgTimePerIteration(s)"], &rows);
    println!("  Expected shape: the 180 s apply-and-evaluate interval dominates (>98% as in the paper) and featurization/selection are negligible. The paper finds the model update the most expensive tuner stage; here Safety Assessment is (a recorded divergence, DESIGN.md §7): it holds the 221-candidate posterior sweep, while the model update extends the Cholesky factor by one row in O(n^2) where the paper refits.");
}
