//! Hot-path latency: incremental `observe` vs from-scratch refit.
//!
//! OnlineTune's per-iteration model update used to rebuild the full `n×n` gram matrix and
//! re-factorize it (`O(t³)` at iteration `t`). The incremental path extends the cached
//! Cholesky factor by one row (`O(t²)`, see `linalg::Cholesky::extend` and
//! `gp::GaussianProcess::observe`). This benchmark measures both paths on the same model
//! at `t = 50 / 200 / 800` observations and verifies their posteriors agree. End-to-end
//! fleet throughput is reported by the profile benchmark (`bench --bin profile`).
//!
//! Run with `cargo run --release -p bench --bin hotpath`; writes `BENCH_hotpath.json`
//! into the current directory.

use bench::report::{median, section};
use bench::synthetic::{random_observation, CONFIG_DIM, CONTEXT_DIM};
use gp::contextual::{ContextObservation, ContextualGp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// One measured training-set size.
#[derive(Debug, serde::Serialize)]
struct SizePoint {
    /// Training-set size the latencies were measured at.
    t: usize,
    /// Median latency of one incremental `observe` (milliseconds).
    incremental_observe_ms: f64,
    /// Median latency of one from-scratch `refit` on the same data (milliseconds).
    scratch_refit_ms: f64,
    /// `scratch_refit_ms / incremental_observe_ms`.
    speedup: f64,
    /// Max |posterior mean difference| between the two paths over 32 probe points.
    max_posterior_mean_diff: f64,
    /// Max |posterior std difference| between the two paths over 32 probe points.
    max_posterior_std_diff: f64,
}

#[derive(Debug, serde::Serialize)]
struct HotpathReport {
    config_dim: usize,
    context_dim: usize,
    single_session: Vec<SizePoint>,
}

fn measure_size(t: usize) -> SizePoint {
    let mut rng = StdRng::seed_from_u64(t as u64);
    let observations: Vec<ContextObservation> = (0..t + 8)
        .map(|i| random_observation(&mut rng, i))
        .collect();

    // Incrementally-built model with t observations (no budget: we measure raw cost).
    let mut incremental = ContextualGp::new(CONFIG_DIM, CONTEXT_DIM);
    for obs in &observations[..t] {
        incremental.observe(obs.clone()).unwrap();
    }

    // From-scratch model on the identical data, for the refit timing and the
    // posterior-agreement check.
    let mut scratch = ContextualGp::new(CONFIG_DIM, CONTEXT_DIM);
    scratch.set_observations(observations[..t].to_vec());
    let scratch_samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            scratch.refit().unwrap();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();

    // Posterior agreement between the incremental and from-scratch paths.
    let mut max_mean_diff = 0.0f64;
    let mut max_std_diff = 0.0f64;
    for _ in 0..32 {
        let config: Vec<f64> = (0..CONFIG_DIM).map(|_| rng.gen_range(0.0..1.0)).collect();
        let context: Vec<f64> = (0..CONTEXT_DIM).map(|_| rng.gen_range(0.0..1.0)).collect();
        let a = incremental.predict(&config, &context).unwrap();
        let b = scratch.predict(&config, &context).unwrap();
        max_mean_diff = max_mean_diff.max((a.mean - b.mean).abs());
        max_std_diff = max_std_diff.max((a.std_dev - b.std_dev).abs());
    }

    // Incremental observes at sizes t, t+1, ..., each O(n²).
    let incremental_samples: Vec<f64> = observations[t..]
        .iter()
        .map(|obs| {
            let start = Instant::now();
            incremental.observe(obs.clone()).unwrap();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();

    let incremental_observe_ms = median(incremental_samples);
    let scratch_refit_ms = median(scratch_samples);
    SizePoint {
        t,
        incremental_observe_ms,
        scratch_refit_ms,
        speedup: scratch_refit_ms / incremental_observe_ms.max(1e-9),
        max_posterior_mean_diff: max_mean_diff,
        max_posterior_std_diff: max_std_diff,
    }
}

fn main() {
    section("Hot path: incremental observe (O(t^2)) vs from-scratch refit (O(t^3))");
    println!(
        "{:>6} {:>18} {:>16} {:>9} {:>14} {:>14}",
        "t", "incremental ms", "scratch ms", "speedup", "max mean diff", "max std diff"
    );
    let mut single_session = Vec::new();
    for &t in &[50usize, 200, 800] {
        let p = measure_size(t);
        println!(
            "{:>6} {:>18.3} {:>16.3} {:>8.1}x {:>14.2e} {:>14.2e}",
            p.t,
            p.incremental_observe_ms,
            p.scratch_refit_ms,
            p.speedup,
            p.max_posterior_mean_diff,
            p.max_posterior_std_diff
        );
        single_session.push(p);
    }

    let report = HotpathReport {
        config_dim: CONFIG_DIM,
        context_dim: CONTEXT_DIM,
        single_session,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_hotpath.json", &json).expect("write BENCH_hotpath.json");
    println!();
    println!("wrote BENCH_hotpath.json");
}
