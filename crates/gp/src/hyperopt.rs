//! Hyper-parameter optimization by maximizing the log marginal likelihood.
//!
//! Gradients of the marginal likelihood with respect to kernel hyper-parameters are easy to
//! derive but tedious to maintain for composite kernels, so this module uses a multi-start
//! **Nelder–Mead simplex** search over the log-space parameters exposed by
//! [`crate::kernels::Kernel::params`] plus the log observation-noise variance. The search
//! spaces are tiny (2–4 parameters) so the derivative-free approach converges in a few
//! dozen likelihood evaluations — well within OnlineTune's per-iteration budget (the paper
//! reports ≈1.4 s for "Model Update" on the Python implementation; ours is far cheaper).
//! The search budget is fixed: one jittered restart beside the current hyper-parameters,
//! each search at most 30 simplex iterations, stopping early once the spread of its
//! objective values falls below 1e-4.

use crate::kernels::Kernel;
use crate::normalize::Standardizer;
use crate::regression::{with_thread_arena, FitArena, GaussianProcess, GpError};
use crate::rows::Row;
use linalg::Cholesky;
use rand::Rng;

/// Random restarts of the search, in addition to the current hyper-parameters.
const RESTARTS: usize = 1;
/// Nelder–Mead iterations per restart, at most.
const MAX_ITERS: usize = 30;
/// Convergence tolerance on the simplex spread of objective values.
const TOL: f64 = 1e-4;

/// Log marginal likelihood evaluated from cached pairwise statistics.
///
/// Performs exactly the operations of [`GaussianProcess::log_marginal_likelihood`] —
/// Gram entries via [`Kernel::eval_stats`] are bit-identical to [`Kernel::eval`], and
/// the factorization/solve/log-det pipeline is unchanged — but rebuilding the Gram
/// matrix costs `O(n²)` instead of `O(n²·d)` because the per-pair statistics were
/// computed once up front. `stats` holds the pairs `j ≤ i` only, packed like a Cholesky
/// factor: the statistics of pair `(i, j)` live at `stats[(i(i+1)/2 + j)·n_stats ..]`.
///
/// All working storage (Gram buffer, factor, dual weights) comes from `arena`, so the
/// trial loop that calls this thousands of times per optimization performs no
/// allocation after its first evaluation.
fn lml_from_stats(
    kernel: &dyn Kernel,
    noise_variance: f64,
    stats: &[f64],
    n_stats: usize,
    n: usize,
    y_std: &[f64],
    arena: &mut FitArena,
) -> Option<f64> {
    arena.gram.reshape(n, n);
    // Only the lower triangle (+ diagonal) is filled: the Cholesky factorization never
    // reads above the diagonal, pair statistics are exactly symmetric, and skipping the
    // mirror halves the `O(n²)` kernel re-evaluation that dominates each trial. The
    // packed statistics are read in storage order.
    let mut pairs = stats.chunks_exact(n_stats);
    for i in 0..n {
        for j in 0..=i {
            let pair = pairs.next().expect("one statistics block per pair j ≤ i");
            arena.gram.set(i, j, kernel.eval_stats(pair));
        }
    }
    arena.gram.add_diagonal(noise_variance).ok()?;
    let chol = Cholesky::decompose_with_jitter(&arena.gram, 1e-3, &mut arena.factor).ok()?;
    let mut alpha = std::mem::take(&mut arena.alpha_spare);
    let solved = chol.solve_into(y_std, &mut alpha);
    let result = solved.ok().map(|()| {
        let data_fit: f64 = y_std.iter().zip(alpha.iter()).map(|(a, b)| a * b).sum();
        -0.5 * data_fit - 0.5 * chol.log_det() - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln()
    });
    arena.alpha_spare = alpha;
    chol.into_scratch(&mut arena.factor);
    result
}

/// Result summary of one hyper-parameter optimization.
#[derive(Debug, Clone, PartialEq)]
pub struct HyperOptReport {
    /// Best log marginal likelihood found.
    pub best_lml: f64,
    /// Number of likelihood evaluations performed.
    pub evaluations: usize,
    /// Whether the optimizer improved on the initial hyper-parameters.
    pub improved: bool,
}

/// Minimizes `f` with the Nelder–Mead simplex method starting from `x0`.
///
/// Returns `(x_best, f_best, evaluations)`. This is a faithful but compact implementation of
/// the standard reflection / expansion / contraction / shrink steps; it is also used by the
/// white-box rule-relaxation diagnostics and by tests, hence public.
pub fn nelder_mead(
    f: &mut dyn FnMut(&[f64]) -> f64,
    x0: &[f64],
    step: f64,
    max_iters: usize,
    tol: f64,
) -> (Vec<f64>, f64, usize) {
    let n = x0.len();
    let mut evals = 0;
    let mut eval = |x: &[f64], evals: &mut usize| -> f64 {
        *evals += 1;
        let v = f(x);
        if v.is_finite() {
            v
        } else {
            f64::MAX / 4.0
        }
    };

    if n == 0 {
        return (vec![], eval(&[], &mut evals), evals);
    }

    // Build the initial simplex: x0 plus one perturbed vertex per dimension.
    let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n + 1);
    let f0 = eval(x0, &mut evals);
    simplex.push((x0.to_vec(), f0));
    for d in 0..n {
        let mut v = x0.to_vec();
        v[d] += step;
        let fv = eval(&v, &mut evals);
        simplex.push((v, fv));
    }

    const ALPHA: f64 = 1.0; // reflection
    const GAMMA: f64 = 2.0; // expansion
    const RHO: f64 = 0.5; // contraction
    const SIGMA: f64 = 0.5; // shrink

    for _ in 0..max_iters {
        simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let best = simplex[0].1;
        let worst = simplex[n].1;
        if (worst - best).abs() < tol {
            break;
        }

        // Centroid of all points except the worst.
        let mut centroid = vec![0.0; n];
        for (v, _) in simplex.iter().take(n) {
            for d in 0..n {
                centroid[d] += v[d] / n as f64;
            }
        }

        let worst_point = simplex[n].0.clone();
        let reflect: Vec<f64> = (0..n)
            .map(|d| centroid[d] + ALPHA * (centroid[d] - worst_point[d]))
            .collect();
        let f_reflect = eval(&reflect, &mut evals);

        if f_reflect < simplex[0].1 {
            // Try expanding further in the same direction.
            let expand: Vec<f64> = (0..n)
                .map(|d| centroid[d] + GAMMA * (reflect[d] - centroid[d]))
                .collect();
            let f_expand = eval(&expand, &mut evals);
            simplex[n] = if f_expand < f_reflect {
                (expand, f_expand)
            } else {
                (reflect, f_reflect)
            };
        } else if f_reflect < simplex[n - 1].1 {
            simplex[n] = (reflect, f_reflect);
        } else {
            // Contract toward the centroid.
            let contract: Vec<f64> = (0..n)
                .map(|d| centroid[d] + RHO * (worst_point[d] - centroid[d]))
                .collect();
            let f_contract = eval(&contract, &mut evals);
            if f_contract < simplex[n].1 {
                simplex[n] = (contract, f_contract);
            } else {
                // Shrink every vertex toward the best one.
                let best_point = simplex[0].0.clone();
                for vertex in simplex.iter_mut().skip(1) {
                    let shrunk: Vec<f64> = (0..n)
                        .map(|d| best_point[d] + SIGMA * (vertex.0[d] - best_point[d]))
                        .collect();
                    let fv = eval(&shrunk, &mut evals);
                    *vertex = (shrunk, fv);
                }
            }
        }
    }

    simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    let (x_best, f_best) = simplex.remove(0);
    (x_best, f_best, evals)
}

/// Optimizes the GP's kernel hyper-parameters and its noise variance by maximizing the
/// log marginal likelihood of `(x, y)`, then refits the model.
///
/// Invariant: the final `fit` on `(x, y)` with the best hyper-parameters happens *inside*
/// this function. Callers must not fit again afterwards — fitting is deterministic, so a
/// second fit on the same data is pure redundant `O(n³)` work. If that fit fails, its
/// error is returned and the GP is left unfitted: setting the new hyper-parameters has
/// already dropped the previous fit, so no factor made under other parameters survives.
pub fn optimize_hyperparameters<X, R>(
    gp: &mut GaussianProcess,
    x: &[X],
    y: &[f64],
    rng: &mut R,
) -> Result<HyperOptReport, GpError>
where
    X: AsRef<[f64]> + Clone + Into<Row>,
    R: Rng,
{
    let span = gp.telemetry().begin_span();
    let initial_kernel_params = gp.kernel().params();
    let initial_noise = gp.noise_variance();
    let n_kernel = initial_kernel_params.len();
    // The search point: the kernel's log-space parameters, then the log noise variance.
    let mut initial = initial_kernel_params;
    initial.push(initial_noise.ln());

    let baseline_lml = gp
        .log_marginal_likelihood(x, y)
        .unwrap_or(f64::NEG_INFINITY);

    // Every likelihood trial re-evaluates the full Gram matrix after a hyper-parameter
    // change, but the pairwise statistics the kernel is computed from (squared
    // distances, dot products) never change across trials. Precompute them — and the
    // standardized targets — once, so each trial's Gram rebuild is `O(n²)` instead of
    // `O(n²·d)` and the `O(n)` re-standardization of `y` is skipped. The cached
    // objective is bit-identical to the uncached one, so the simplex search visits the
    // same points and returns the same hyper-parameters. Only the pairs `j ≤ i` that a
    // trial reads are kept, packed row after row (see `lml_from_stats`). A kernel
    // without pair-stat support (`n_pair_stats() == 0`) runs the uncached trial loop
    // instead.
    let n = x.len();
    let n_stats = gp.kernel().n_pair_stats();
    let cache: Option<(Vec<f64>, Vec<f64>)> = if n_stats > 0 && n > 0 && x.len() == y.len() {
        let mut stats = vec![0.0; n * (n + 1) / 2 * n_stats];
        let mut pairs = stats.chunks_exact_mut(n_stats);
        for i in 0..n {
            for j in 0..=i {
                let pair = pairs.next().expect("one statistics block per pair j ≤ i");
                gp.kernel().pair_stats(x[i].as_ref(), x[j].as_ref(), pair);
            }
        }
        let standardizer = Standardizer::fit(y);
        let y_std: Vec<f64> = y.iter().map(|&v| standardizer.transform(v)).collect();
        Some((stats, y_std))
    } else {
        None
    };

    // The starting points: the current hyper-parameters, then one jittered copy per restart.
    let mut starts = vec![initial.clone()];
    for _ in 0..RESTARTS {
        let jittered: Vec<f64> = initial
            .iter()
            .map(|p| p + rng.gen_range(-1.5..1.5))
            .collect();
        starts.push(jittered);
    }

    // One restart = one independent, deterministic Nelder–Mead search with its own trial
    // kernel (set_params fully overwrites the hyper-parameters, so reuse across
    // evaluations is exact). Every search runs on the calling thread's fit arena, so its
    // trial loop is allocation-free once the arena has held a fit of this size.
    let gp_ref: &GaussianProcess = gp;
    let cache_ref = cache.as_ref();
    let run_start = |start: &[f64], arena: &mut FitArena| -> (Vec<f64>, f64, usize) {
        let mut trial_kernel = gp_ref.kernel().clone_box();
        let mut trial_gp: Option<GaussianProcess> = None;
        let mut objective = |params: &[f64]| -> f64 {
            let (kernel_part, log_noise) = params.split_at(n_kernel);
            let noise = log_noise[0].exp().clamp(1e-8, 1.0);
            if let Some((stats, y_std)) = cache_ref {
                trial_kernel.set_params(kernel_part);
                return match lml_from_stats(
                    trial_kernel.as_ref(),
                    noise,
                    stats,
                    n_stats,
                    n,
                    y_std,
                    arena,
                ) {
                    Some(lml) => -lml,
                    None => f64::MAX / 4.0,
                };
            }
            let trial = trial_gp.get_or_insert_with(|| {
                GaussianProcess::new(gp_ref.kernel().clone_box(), gp_ref.noise_variance())
            });
            trial.kernel_mut().set_params(kernel_part);
            trial.set_noise_variance(noise);
            match trial.log_marginal_likelihood(x, y) {
                Ok(lml) => -lml,
                Err(_) => f64::MAX / 4.0,
            }
        };
        nelder_mead(&mut objective, start, 0.5, MAX_ITERS, TOL)
    };

    // Restarts run in index order; the first strictly better search wins each tie-break.
    // The arena goes back to the thread before the closing fit, which takes it again.
    let (best_params, best_neg, total_evals) = with_thread_arena(|arena| {
        let mut best_params = initial.clone();
        let mut best_neg = -baseline_lml;
        let mut total_evals = 0;
        for start in &starts {
            let (xopt, fopt, evals) = run_start(start, arena);
            total_evals += evals;
            if fopt < best_neg {
                best_neg = fopt;
                best_params = xopt;
            }
        }
        (best_params, best_neg, total_evals)
    });

    // Apply the best parameters found (which may be the originals) and refit.
    let (kernel_part, log_noise) = best_params.split_at(n_kernel);
    gp.kernel_mut().set_params(kernel_part);
    gp.set_noise_variance(log_noise[0].exp().clamp(1e-8, 1.0));
    let fitted = gp.fit(x, y);

    let report = HyperOptReport {
        best_lml: -best_neg,
        evaluations: total_evals,
        improved: -best_neg > baseline_lml + 1e-9,
    };
    let t = gp.telemetry();
    t.end_span(telemetry::SpanId::Hyperopt, span);
    t.incr(telemetry::CounterId::HyperoptRuns);
    t.add(
        telemetry::CounterId::HyperoptEvaluations,
        report.evaluations as u64,
    );
    if report.improved {
        t.incr(telemetry::CounterId::HyperoptImproved);
    }
    if t.is_enabled() {
        t.event(
            telemetry::EventKind::HyperoptRestart,
            "gp",
            &format!(
                "n={} restarts={} evaluations={} best_lml={:.6} improved={}",
                x.len(),
                RESTARTS,
                report.evaluations,
                report.best_lml,
                report.improved
            ),
        );
    }
    fitted.map(|()| report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{Matern52Kernel, ScaledKernel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn nelder_mead_minimizes_quadratic() {
        let mut f = |x: &[f64]| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2) + 2.0;
        let (x, fx, evals) = nelder_mead(&mut f, &[0.0, 0.0], 1.0, 200, 1e-10);
        assert!((x[0] - 3.0).abs() < 1e-3, "{x:?}");
        assert!((x[1] + 1.0).abs() < 1e-3, "{x:?}");
        assert!((fx - 2.0).abs() < 1e-5);
        assert!(evals > 0);
    }

    #[test]
    fn nelder_mead_handles_rosenbrock_reasonably() {
        let mut f = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let (x, fx, _) = nelder_mead(&mut f, &[-1.0, 1.0], 0.5, 500, 1e-12);
        assert!(fx < 0.5, "fx = {fx}, x = {x:?}");
    }

    #[test]
    fn nelder_mead_empty_input() {
        let mut f = |_: &[f64]| 7.0;
        let (x, fx, _) = nelder_mead(&mut f, &[], 1.0, 10, 1e-6);
        assert!(x.is_empty());
        assert_eq!(fx, 7.0);
    }

    #[test]
    fn nelder_mead_survives_nan_objective() {
        let mut f = |x: &[f64]| {
            if x[0] < 0.0 {
                f64::NAN
            } else {
                (x[0] - 2.0).powi(2)
            }
        };
        let (x, _, _) = nelder_mead(&mut f, &[1.0], 0.5, 100, 1e-8);
        assert!((x[0] - 2.0).abs() < 1e-2);
    }

    #[test]
    fn hyperopt_improves_a_badly_initialized_lengthscale() {
        // Smooth function, but the GP starts with a ridiculously short lengthscale.
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 19.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (2.0 * x[0]).sin() * 5.0 + 10.0).collect();
        let mut gp = GaussianProcess::new(
            Box::new(ScaledKernel::new(Box::new(Matern52Kernel::new(0.005)), 1.0)),
            1e-3,
        );
        let before = gp.log_marginal_likelihood(&xs, &ys).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let report = optimize_hyperparameters(&mut gp, &xs, &ys, &mut rng).unwrap();
        assert!(
            report.best_lml > before,
            "{} vs {}",
            report.best_lml,
            before
        );
        assert!(report.improved);
        assert!(gp.is_fitted());
        // The tuned model should now generalize decently between training points.
        let p = gp.predict(&[0.525]).unwrap();
        let truth = (2.0f64 * 0.525).sin() * 5.0 + 10.0;
        assert!((p.mean - truth).abs() < 0.5, "{} vs {}", p.mean, truth);
    }

    /// Wraps a kernel and hides its pair statistics (`n_pair_stats() == 0`), which
    /// sends the optimizer down the uncached trial loop.
    struct NoPairStats(Box<dyn Kernel>);

    impl Kernel for NoPairStats {
        fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
            self.0.eval(a, b)
        }
        fn params(&self) -> Vec<f64> {
            self.0.params()
        }
        fn set_params(&mut self, p: &[f64]) {
            self.0.set_params(p);
        }
        fn clone_box(&self) -> Box<dyn Kernel> {
            Box::new(NoPairStats(self.0.clone_box()))
        }
        fn name(&self) -> &'static str {
            "no-pair-stats"
        }
    }

    #[test]
    fn distance_cached_hyperopt_picks_identical_hyperparameters() {
        // The cached objective must be bit-identical to the uncached one, so the simplex
        // search — driven by the same RNG stream — must select the same hyper-parameters
        // and report the same likelihood, for both a plain scaled-Matérn kernel and the
        // additive contextual kernel (whose cache mixes distances and dot products).
        let kernels: Vec<Box<dyn Kernel>> = vec![
            Box::new(ScaledKernel::new(Box::new(Matern52Kernel::new(0.25)), 1.0)),
            Box::new(crate::kernels::AdditiveContextKernel::new(2)),
        ];
        for kernel in kernels {
            assert!(kernel.n_pair_stats() > 0, "kernel {}", kernel.name());
            let xs: Vec<Vec<f64>> = (0..18)
                .map(|i| {
                    let t = i as f64 / 17.0;
                    vec![t, (t * 5.0).sin() * 0.5 + 0.5, 1.0 - t]
                })
                .collect();
            let ys: Vec<f64> = xs
                .iter()
                .map(|x| (3.0 * x[0]).sin() * 4.0 + x[2] * 2.0)
                .collect();
            let run = |kernel: Box<dyn Kernel>| {
                let mut gp = GaussianProcess::new(kernel, 1e-3);
                let mut rng = StdRng::seed_from_u64(11);
                let report = optimize_hyperparameters(&mut gp, &xs, &ys, &mut rng).unwrap();
                (gp.kernel().params(), gp.noise_variance(), report)
            };
            let (params_cached, noise_cached, report_cached) = run(kernel.clone_box());
            let (params_plain, noise_plain, report_plain) =
                run(Box::new(NoPairStats(kernel.clone_box())));
            assert_eq!(params_cached.len(), params_plain.len());
            for (a, b) in params_cached.iter().zip(params_plain.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "kernel {}", kernel.name());
            }
            assert_eq!(noise_cached.to_bits(), noise_plain.to_bits());
            assert_eq!(
                report_cached.best_lml.to_bits(),
                report_plain.best_lml.to_bits()
            );
            assert_eq!(report_cached.evaluations, report_plain.evaluations);
            assert_eq!(report_cached.improved, report_plain.improved);
        }
    }

    #[test]
    fn hyperopt_never_degrades_the_likelihood() {
        let xs: Vec<Vec<f64>> = (0..15).map(|i| vec![i as f64 / 14.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * x[0]).collect();
        let mut gp = GaussianProcess::new(
            Box::new(ScaledKernel::new(Box::new(Matern52Kernel::new(0.3)), 1.0)),
            1e-4,
        );
        let before = gp.log_marginal_likelihood(&xs, &ys).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let report = optimize_hyperparameters(&mut gp, &xs, &ys, &mut rng).unwrap();
        assert!(report.best_lml + 1e-9 >= before);
    }

    #[test]
    fn a_failed_final_fit_returns_its_error_and_leaves_the_gp_unfitted() {
        let xs: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64 / 11.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0].sin()).collect();
        let mut gp = GaussianProcess::new(
            Box::new(ScaledKernel::new(Box::new(Matern52Kernel::new(0.3)), 1.0)),
            1e-3,
        );
        gp.fit(&xs, &ys).unwrap();
        let mut bad = xs.clone();
        bad[5][0] = f64::NAN;
        let mut rng = StdRng::seed_from_u64(3);
        let err = optimize_hyperparameters(&mut gp, &bad, &ys, &mut rng).unwrap_err();
        assert_eq!(err, GpError::NonFiniteInput { index: 5 });
        assert!(
            !gp.is_fitted(),
            "the previous fit's factor must not survive"
        );
        assert!(matches!(gp.predict(&[0.5]), Err(GpError::NotFitted)));
    }
}
