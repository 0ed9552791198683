//! Figure 8 and Table A1 — algorithm overhead.
//!
//! Figure 8 plots the per-iteration computation time of every method while tuning JOB;
//! Table A1 breaks one OnlineTune iteration into its stages. This binary reproduces both
//! from an actual tuning run. The tuner stages of Table A1 are the means of the spans the
//! tuner records into an enabled telemetry handle (`SpanId::ModelSelection` …
//! `SpanId::CandidateSelection`, and `SpanId::Observe` for the model update);
//! featurization and the apply-and-evaluate interval happen outside the tuner and are
//! timed here.
//!
//! Run with `cargo run --release -p bench --bin fig8_overhead [iterations]`.

use bench::report::{iterations_from_env, print_series, print_table, section};
use bench::tuners::{build_tuner, TunerKind};
use bench::{run_session, SessionOptions};
use featurize::ContextFeaturizer;
use onlinetune::{OnlineTune, OnlineTuneOptions};
use simdb::{Configuration, HardwareSpec, KnobCatalogue, OptimizerStats, SimDatabase};
use std::time::Instant;
use telemetry::{SpanId, TelemetryHandle};
use workloads::job::JobWorkload;
use workloads::{Objective, WorkloadGenerator};

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
    let initial = Configuration::dba_default(&catalogue);
    let mut tuner = OnlineTune::new(
        catalogue.clone(),
        HardwareSpec::default(),
        featurizer.dim(),
        &initial,
        OnlineTuneOptions::default(),
        3,
    );
    tuner.set_telemetry(TelemetryHandle::enabled());
    let mut db = SimDatabase::with_catalogue(catalogue.clone(), HardwareSpec::default(), 3);
    db.set_data_size(job.initial_data_size_gib());
    let mut feat_time = 0.0;
    let mut apply_eval_time = 0.0;
    let breakdown_iters = iterations.min(100);
    for it in 0..breakdown_iters {
        let spec = job.spec_at(it);
        let queries = job.sample_queries(it, 30);
        let stats = OptimizerStats::estimate(&spec);
        let t = Instant::now();
        let context = featurizer.featurize(&queries, spec.arrival_rate_qps, &stats);
        feat_time += t.elapsed().as_secs_f64();

        let reference = db.peek(&initial, &spec);
        let threshold = Objective::ExecutionTime.score(&reference);
        let suggestion = tuner.suggest(&context, threshold, spec.clients);

        let t = Instant::now();
        db.apply_config(&suggestion.config);
        let eval = db.run_interval(&spec, 180.0);
        apply_eval_time += t.elapsed().as_secs_f64() + 180.0; // simulated interval wall time
        let score = Objective::ExecutionTime.score(&eval.outcome);
        tuner
            .observe(
                &context,
                &suggestion.config,
                score,
                Some(&eval.metrics),
                score >= threshold,
            )
            .expect("simulated measurements are finite");
    }
    let n = breakdown_iters as f64;
    let stage = |label: &str, id: SpanId| {
        let mean_s = tuner.telemetry().histogram(id).mean_ms() / 1e3;
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
    println!("  Expected shape: the 180 s apply-and-evaluate interval dominates (>98% as in the paper); among tuner stages the model update is the most expensive and featurization/selection are negligible.");
}
