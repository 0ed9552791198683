//! Figures 9–13 — the YCSB case study with five knobs.
//!
//! * Figure 9: the read-ratio pattern of the constructed YCSB trace.
//! * Figure 10: throughput as a function of the two headline knobs for three read/write
//!   mixes (the optimum moves with the mix).
//! * Figure 11: cumulative and iterative performance of OnlineTune vs. the per-phase Best
//!   and the baselines.
//! * Figure 12: the values of the two most important knobs applied over iterations.
//! * Figure 13: OnlineTune internals — selected model / distance from the default and the
//!   safety-set size over iterations.
//!
//! Run with `cargo run --release -p bench --bin fig9_13_case_study [iterations]`.

use baselines::OnlineTuneBaseline;
use bench::report::{
    iterations_from_env, print_series, print_table, section, summary_headers, summary_row,
    write_json,
};
use bench::tuners::{build_tuner, TunerKind};
use bench::{run_session, SessionOptions};
use featurize::ContextFeaturizer;
use onlinetune::{OnlineTune, OnlineTuneOptions};
use simdb::{Configuration, HardwareSpec, SimDatabase};
use workloads::ycsb::YcsbWorkload;
use workloads::{Objective, WorkloadGenerator};

fn main() {
    let iterations = iterations_from_env(400);
    let catalogue = YcsbWorkload::case_study_catalogue();
    let featurizer = ContextFeaturizer::with_defaults();
    let ycsb = YcsbWorkload::new(5);

    // ── Figure 9: the workload pattern ──────────────────────────────────────────────────
    section("Figure 9: YCSB read-ratio pattern");
    let ratios: Vec<f64> = (0..iterations)
        .map(|it| ycsb.read_ratio_at(it) * 100.0)
        .collect();
    print_series("read ratio (%)", &ratios, 25);

    // ── Figure 10: throughput surfaces for three mixes ─────────────────────────────────
    section("Figure 10: throughput vs. (buffer pool size, max_heap_table_size) per mix");
    let db = SimDatabase::with_catalogue(catalogue.clone(), HardwareSpec::default(), 1);
    let mixes = [
        ("25/75 read/write", 0.25),
        ("75/25 read/write", 0.75),
        ("read-only", 1.0),
    ];
    for (label, read_ratio) in mixes {
        let mut spec = ycsb.spec_at(0);
        spec.mix = simdb::WorkloadMix::new([
            read_ratio * 0.9,
            read_ratio * 0.1,
            0.0,
            0.0,
            (1.0 - read_ratio) * 0.25,
            (1.0 - read_ratio) * 0.75,
            0.0,
        ]);
        let mut rows = Vec::new();
        let mut best = (0.0, 0.0, f64::NEG_INFINITY);
        for bp_frac in [0.2, 0.5, 0.8, 0.95] {
            let mut row = vec![format!("bp={:.0}%", bp_frac * 100.0)];
            for heap_frac in [0.1, 0.5, 0.9] {
                let mut unit = Configuration::dba_default(&catalogue).normalized(&catalogue);
                unit[0] = bp_frac; // innodb_buffer_pool_size
                unit[1] = heap_frac; // max_heap_table_size
                let cfg = Configuration::from_normalized(&catalogue, &unit);
                let tps = db.peek(&cfg, &spec).throughput_tps;
                if tps > best.2 {
                    best = (bp_frac, heap_frac, tps);
                }
                row.push(format!("{tps:.0}"));
            }
            rows.push(row);
        }
        println!(
            "  {label}: best at bp={:.0}%, heap={:.0}% ({:.0} tps)",
            best.0 * 100.0,
            best.1 * 100.0,
            best.2
        );
        print_table(&["", "heap=10%", "heap=50%", "heap=90%"], &rows);
    }

    // ── Figure 11: cumulative + iterative performance vs Best and baselines ────────────
    section("Figure 11: YCSB tuning result (vs. per-phase Best)");
    // The per-phase Best: grid-search the 5-knob space (coarse) for each interval's mix.
    let mut best_scores = Vec::new();
    {
        let mut db = SimDatabase::with_catalogue(catalogue.clone(), HardwareSpec::default(), 3);
        db.set_data_size(ycsb.initial_data_size_gib());
        for it in 0..iterations {
            let spec = ycsb.spec_at(it);
            let mut best = f64::NEG_INFINITY;
            for bp in [0.6, 0.8, 0.95] {
                for heap in [0.2, 0.6, 0.9] {
                    for sort in [0.2, 0.6] {
                        let mut unit =
                            Configuration::dba_default(&catalogue).normalized(&catalogue);
                        unit[0] = bp;
                        unit[1] = heap;
                        unit[3] = sort;
                        let cfg = Configuration::from_normalized(&catalogue, &unit);
                        best = best.max(db.peek(&cfg, &spec).throughput_tps);
                    }
                }
            }
            best_scores.push(best);
        }
    }
    let best_cumulative: f64 = best_scores.iter().map(|t| t * 180.0).sum();

    let mut rows = vec![vec![
        "Best (oracle)".to_string(),
        format!("{best_cumulative:.3e}"),
        "-".to_string(),
        "0".to_string(),
        "0".to_string(),
        "-".to_string(),
    ]];
    let mut results = Vec::new();
    let mut onlinetune_series = Vec::new();
    for kind in [
        TunerKind::OnlineTune,
        TunerKind::Bo,
        TunerKind::Ddpg,
        TunerKind::ResTune,
        TunerKind::Qtune,
        TunerKind::DbaDefault,
    ] {
        let mut tuner = build_tuner(kind, &catalogue, featurizer.dim(), 90 + kind as u64);
        let result = run_session(
            tuner.as_mut(),
            &ycsb,
            &catalogue,
            &featurizer,
            &SessionOptions {
                iterations,
                seed: 9,
                ..Default::default()
            },
            |_, _, _| {},
        );
        if kind == TunerKind::OnlineTune {
            onlinetune_series = result.records.iter().map(|r| r.throughput_tps).collect();
        }
        rows.push(summary_row(&result, 180.0, Objective::Throughput));
        results.push(result);
    }
    print_table(&summary_headers(), &rows);
    print_series("Best throughput (txn/s)", &best_scores, 20);
    print_series("OnlineTune throughput (txn/s)", &onlinetune_series, 20);
    write_json("fig11_ycsb", &results);

    // ── Figures 12 & 13: knob values applied + tuner internals over iterations ─────────
    section("Figures 12-13: applied knob values and OnlineTune internals over iterations");
    let mut tuner = OnlineTuneBaseline::new(OnlineTune::new(
        catalogue.clone(),
        HardwareSpec::default(),
        featurizer.dim(),
        &Configuration::dba_default(&catalogue),
        OnlineTuneOptions::default(),
        13,
    ));
    let mut spin_values = Vec::new();
    let mut heap_values = Vec::new();
    let mut center_distance = Vec::new();
    let mut safety_set_size = Vec::new();
    let mut improvement = Vec::new();
    run_session(
        &mut tuner,
        &ycsb,
        &catalogue,
        &featurizer,
        &SessionOptions {
            iterations,
            seed: 13,
            ..Default::default()
        },
        |record, config, diagnostics| {
            let knob = |name| config.get(&catalogue, name).unwrap_or(0.0);
            spin_values.push(knob("innodb_spin_wait_delay"));
            heap_values.push(knob("max_heap_table_size"));
            let diagnostics = diagnostics.expect("OnlineTune reports its diagnostics");
            center_distance.push(diagnostics.center_distance_from_default);
            safety_set_size.push(diagnostics.safety_set_size as f64);
            improvement.push((record.throughput_tps / record.reference_score - 1.0) * 100.0);
        },
    );
    print_series(
        "Figure 12: innodb_spin_wait_delay applied",
        &spin_values,
        20,
    );
    print_series(
        "Figure 12: max_heap_table_size applied (bytes)",
        &heap_values,
        20,
    );
    print_series(
        "Figure 13: normalized distance of subspace centre from default",
        &center_distance,
        20,
    );
    print_series("Figure 13: safety-set size", &safety_set_size, 20);
    print_series(
        "Figure 13: improvement over DBA default (%)",
        &improvement,
        20,
    );
    println!(
        "  models maintained: {}, re-clusterings: {}",
        tuner.inner().model_count(),
        tuner.inner().recluster_count()
    );
    println!("\nExpected shape: OnlineTune's cumulative performance approaches the oracle Best with near-zero unsafe intervals; its applied knob values stay inside the safe band and adapt to the read-ratio phases; the subspace centre drifts away from the default and the safety-set size grows as the model gains confidence.");
}
