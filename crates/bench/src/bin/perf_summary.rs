//! One-line per-PR performance summary of the three tuning hot paths at `n = 800`.
//!
//! Prints a single `PERF …` line with the median latencies of
//!
//! * **observe** — one incremental model update (`ContextualGp::observe`, `O(n²)`
//!   Cholesky extension);
//! * **suggest** — one batched 300-candidate posterior sweep
//!   (`ContextualGp::predict_batch`);
//! * **fit** — one full from-scratch refit (`ContextualGp::refit`, blocked `O(n³)`
//!   factorization);
//! * **hyperopt** — one periodic hyper-parameter re-optimization
//!   (`ContextualGp::refit_with_hyperopt`, default options, parallel restarts).
//!
//! It also runs a small telemetry-enabled fleet and appends the fleet-level view —
//! iteration-latency p50/p99, the unsafe-recommendation rate, and the safety-fallback
//! and re-cluster counts — taken straight from the telemetry registry, so the same
//! numbers an operator would scrape appear in the per-PR trajectory.
//!
//! The committed `BENCH_*.json` files hold the full sweeps; this binary exists so the
//! per-PR trajectory of the same numbers is comparable at a glance (CI prints it
//! on every run). Keep the format stable: one line, `key=value` pairs, milliseconds.

use bench::report::median;
use bench::synthetic::{fitted_model, random_observation, CONFIG_DIM, CONTEXT_DIM};
use fleet::service::{small_tuner_options, FleetOptions, FleetService};
use fleet::tenant::{TenantSpec, WorkloadFamily};
use gp::hyperopt::HyperOptOptions;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use telemetry::{CounterId, SpanId, TelemetryHandle};

const N: usize = 800;
const CANDIDATES: usize = 300;

fn main() {
    let mut model = fitted_model(N);
    let mut rng = StdRng::seed_from_u64(N as u64 + 1);

    // observe: median of 5 single-point updates (rolled back by rebuilding from the
    // same seed would be costly, so the model simply grows by 5 points — at n = 800 the
    // size drift is < 1%).
    let observe_ms = median(
        (0..5)
            .map(|k| {
                let obs = random_observation(&mut rng, N + k);
                let start = Instant::now();
                model.observe(obs).unwrap();
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
    );

    let candidates: Vec<Vec<f64>> = (0..CANDIDATES)
        .map(|_| (0..CONFIG_DIM).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let context: Vec<f64> = (0..CONTEXT_DIM).map(|_| rng.gen_range(0.0..1.0)).collect();
    let suggest_ms = median(
        (0..5)
            .map(|_| {
                let start = Instant::now();
                let posteriors = model.predict_batch(&candidates, &context).unwrap();
                std::hint::black_box(posteriors.len());
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
    );

    let fit_ms = median(
        (0..3)
            .map(|_| {
                let start = Instant::now();
                model.refit().unwrap();
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
    );

    // The tuner's periodic re-optimization budget (ClusterManager uses restarts = 1,
    // max_iters = 30), with parallel restarts — keep these constants stable so the
    // per-PR trajectory stays comparable.
    let mut hyperopt_rng = StdRng::seed_from_u64(7);
    let start = Instant::now();
    model
        .refit_with_hyperopt(
            &HyperOptOptions {
                restarts: 1,
                max_iters: 30,
                workers: 0,
                ..Default::default()
            },
            &mut hyperopt_rng,
        )
        .unwrap();
    let hyperopt_ms = start.elapsed().as_secs_f64() * 1e3;

    // Fleet-level view via the telemetry registry: a small observed fleet, the same way
    // an operator would scrape it.
    let mut svc = FleetService::new(FleetOptions {
        tuner: small_tuner_options(),
        ..Default::default()
    });
    svc.set_telemetry(TelemetryHandle::enabled());
    for (i, family) in [
        WorkloadFamily::Ycsb,
        WorkloadFamily::Tpcc,
        WorkloadFamily::Twitter,
        WorkloadFamily::Job,
    ]
    .iter()
    .enumerate()
    {
        let mut spec = TenantSpec::named(format!("perf-{i}"), *family, 40 + i as u64);
        spec.deterministic = true;
        svc.admit(spec).expect("admission");
    }
    svc.run_rounds(12);
    let metrics = svc.metrics_snapshot();
    let hist = metrics.histogram(SpanId::Iteration);
    let iterations = metrics.counter(CounterId::Iterations);
    let unsafe_rate =
        metrics.counter(CounterId::UnsafeIterations) as f64 / iterations.max(1) as f64;

    println!(
        "PERF n={} observe={:.3}ms suggest={:.3}ms fit={:.3}ms hyperopt={:.1}ms \
         fleet_iter_p50={:.3}ms fleet_iter_p99={:.3}ms unsafe_rate={:.4} fallbacks={} reclusters={}",
        N,
        observe_ms,
        suggest_ms,
        fit_ms,
        hyperopt_ms,
        hist.quantile_ms(0.50),
        hist.quantile_ms(0.99),
        unsafe_rate,
        metrics.counter(CounterId::SafetyFallbacks),
        metrics.counter(CounterId::Reclusters),
    );
}
