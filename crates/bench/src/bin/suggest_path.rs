//! Suggest-path latency: batched candidate assessment vs the scalar per-candidate loop.
//!
//! With the observe path incremental (see `hotpath`), a tuning iteration is dominated by
//! `suggest()`: every subspace candidate used to pay its own `O(n·d)` kernel row and
//! `O(n²)` triangular solve through a scalar `predict`. The batched path computes one
//! `C × n` cross-kernel matrix (sharing the additive kernel's context column across all
//! candidates) and one multi-RHS forward solve (`linalg::Cholesky::solve_lower_multi`),
//! with no per-candidate allocation. This benchmark measures both paths on the same
//! model over `n ∈ {50, 200, 800} × C ∈ {30, 100, 300}` and verifies the posteriors
//! (and the LCB/UCB bounds derived from them) agree **exactly**. End-to-end fleet
//! throughput is reported by the profile benchmark (`bench --bin profile`).
//!
//! Run with `cargo run --release -p bench --bin suggest_path [--smoke]`; writes
//! `BENCH_suggest.json` into the current directory and **exits non-zero when the
//! batched and scalar posteriors differ in any bit** — CI runs `--smoke` so the
//! bit-identity contract is enforced on every change.

use bench::report::{median, section};
use bench::synthetic::{fitted_model, CONFIG_DIM, CONTEXT_DIM};
use gp::acquisition::{lower_confidence_bound, upper_confidence_bound};
use gp::contextual::ContextualGp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const BETA: f64 = 2.0;

/// One measured `(training-set size, candidate count)` combination.
#[derive(Debug, serde::Serialize)]
struct SweepPoint {
    /// Training-set size of the model.
    n: usize,
    /// Number of candidates assessed per sweep.
    c: usize,
    /// Median latency of the scalar per-candidate sweep (milliseconds).
    scalar_ms: f64,
    /// Median latency of the batched sweep (milliseconds).
    batched_ms: f64,
    /// `scalar_ms / batched_ms`.
    speedup: f64,
    /// Max |posterior mean difference| between the two paths (must be exactly 0).
    max_posterior_mean_diff: f64,
    /// Max |posterior std difference| between the two paths (must be exactly 0).
    max_posterior_std_diff: f64,
    /// Max |LCB/UCB difference| between the two paths (must be exactly 0).
    max_bound_diff: f64,
    /// Whether every posterior mean/std and LCB/UCB pair agrees **bit-for-bit**
    /// (`f64::to_bits`) between the scalar and batched paths. This is the value the CI
    /// gate keys on: unlike the abs-diff columns above (kept for human-readable
    /// reporting), it cannot be fooled by a NaN on one side, which an abs-diff folded
    /// through `f64::max` would silently drop.
    bits_identical: bool,
}

#[derive(Debug, serde::Serialize)]
struct SuggestReport {
    config_dim: usize,
    context_dim: usize,
    /// CPUs the run had available (every sweep is single-threaded).
    available_parallelism: usize,
    suggest: Vec<SweepPoint>,
}

fn measure_sweep(model: &ContextualGp, n: usize, c: usize) -> SweepPoint {
    let mut rng = StdRng::seed_from_u64((n * 1000 + c) as u64);
    let candidates: Vec<Vec<f64>> = (0..c)
        .map(|_| (0..CONFIG_DIM).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let context: Vec<f64> = (0..CONTEXT_DIM).map(|_| rng.gen_range(0.0..1.0)).collect();

    const REPS: usize = 7;
    // Scalar sweep: one predict (kernel row + triangular solve + allocations) per
    // candidate, plus the confidence bounds — the pre-batching suggest loop.
    let mut scalar_out = Vec::new();
    let scalar_samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            scalar_out = candidates
                .iter()
                .map(|cand| {
                    let p = model.predict(cand, &context).unwrap();
                    let lcb = lower_confidence_bound(&p, BETA);
                    let ucb = upper_confidence_bound(&p, BETA);
                    (p, lcb, ucb)
                })
                .collect();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();

    // Batched sweep: one cross-kernel matrix, one multi-RHS solve, reused scratch.
    let mut scratch = Vec::new();
    let mut batched_out = Vec::new();
    let batched_samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            let posteriors = model
                .predict_batch_with_scratch(&candidates, &context, &mut scratch)
                .unwrap();
            batched_out = posteriors
                .into_iter()
                .map(|p| {
                    let lcb = lower_confidence_bound(&p, BETA);
                    let ucb = upper_confidence_bound(&p, BETA);
                    (p, lcb, ucb)
                })
                .collect();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();

    let mut max_mean_diff = 0.0f64;
    let mut max_std_diff = 0.0f64;
    let mut max_bound_diff = 0.0f64;
    let mut bits_identical = scalar_out.len() == batched_out.len();
    for ((sp, slcb, sucb), (bp, blcb, bucb)) in scalar_out.iter().zip(batched_out.iter()) {
        max_mean_diff = max_mean_diff.max((sp.mean - bp.mean).abs());
        max_std_diff = max_std_diff.max((sp.std_dev - bp.std_dev).abs());
        max_bound_diff = max_bound_diff
            .max((slcb - blcb).abs())
            .max((sucb - bucb).abs());
        bits_identical &= sp.mean.to_bits() == bp.mean.to_bits()
            && sp.std_dev.to_bits() == bp.std_dev.to_bits()
            && slcb.to_bits() == blcb.to_bits()
            && sucb.to_bits() == bucb.to_bits();
    }

    let scalar_ms = median(scalar_samples);
    let batched_ms = median(batched_samples);
    SweepPoint {
        n,
        c,
        scalar_ms,
        batched_ms,
        speedup: scalar_ms / batched_ms.max(1e-9),
        max_posterior_mean_diff: max_mean_diff,
        max_posterior_std_diff: max_std_diff,
        max_bound_diff,
        bits_identical,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (sizes, widths): (&[usize], &[usize]) = if smoke {
        (&[50], &[30])
    } else {
        (&[50, 200, 800], &[30, 100, 300])
    };

    section("Suggest path: batched candidate sweep vs scalar per-candidate predictions");
    println!(
        "{:>6} {:>5} {:>12} {:>12} {:>9} {:>14} {:>14}",
        "n", "C", "scalar ms", "batched ms", "speedup", "max mean diff", "max std diff"
    );
    let mut suggest = Vec::new();
    for &n in sizes {
        let model = fitted_model(n);
        for &c in widths {
            let p = measure_sweep(&model, n, c);
            println!(
                "{:>6} {:>5} {:>12.3} {:>12.3} {:>8.1}x {:>14.2e} {:>14.2e}",
                p.n,
                p.c,
                p.scalar_ms,
                p.batched_ms,
                p.speedup,
                p.max_posterior_mean_diff,
                p.max_posterior_std_diff
            );
            suggest.push(p);
        }
    }

    let exact = suggest.iter().all(|p| p.bits_identical);

    let report = SuggestReport {
        config_dim: CONFIG_DIM,
        context_dim: CONTEXT_DIM,
        available_parallelism: std::thread::available_parallelism().map_or(1, |p| p.get()),
        suggest,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    if !smoke {
        std::fs::write("BENCH_suggest.json", &json).expect("write BENCH_suggest.json");
        println!();
        println!("wrote BENCH_suggest.json");
    }

    if !exact {
        eprintln!(
            "FAIL: batched suggest path diverged from the scalar path (bit-identity \
             contract violated)"
        );
        std::process::exit(1);
    }
    println!("bit-identity verified: batched == scalar on every posterior and bound");
}
