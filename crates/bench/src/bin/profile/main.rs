//! `profile`: the fleet benchmark. One seeded workload per process; every end-to-end
//! metric by name and unit, or with `--trace` every per-layer metric, as one JSON
//! object on the last line of standard output.
//!
//! ```text
//! profile --workload <steady_mixed|drift_churn|serve_durable> [--seed <u64>]
//!         [--seconds <n>] [--trace [0|1]] [--smoke] [--check]
//! ```
//!
//! A run makes whole passes of the workload (set-up, ticks, horizon checks) over as many
//! seeds derived from `--seed` as take about `--seconds` on the reference machine (the
//! first derived seed is `--seed` itself): one untraced pass per seed, or with `--trace`
//! an untraced and a traced one. Timings are divided by the host slowdown that the
//! benchmark's reference kernel measured over the same fraction of a second, and the
//! report pools the passes, so a run averages over several draws of the workload and
//! over the host's busy and quiet periods. The same `--seed` and `--seconds` always
//! give the same inputs. `--smoke` runs one seed at a tenth of the rounds with every
//! check on; `--check` adds the worker-count check. A failed check is printed to
//! standard error, counted in `failed`, and makes the exit code non-zero. See
//! `README.md` next to this file for the metric dictionary.

mod inputs;
mod layers;
mod pass;
mod sys;

use inputs::Workload;
use pass::Pass;
use sys::{median, quantile};

const USAGE: &str = "usage: profile --workload <steady_mixed|drift_churn|serve_durable> \
                     [--seed <u64>] [--seconds <n>] [--trace [0|1]] [--smoke] [--check]";

const DEFAULT_SEED: u64 = 2022;
const DEFAULT_SECONDS: f64 = 20.0;

/// Every metric of the untraced passes, `(name, unit)`, in report order. The first
/// [`END_TO_END`] are the end-to-end metrics. The timings after them did not repeat
/// within 10% from one set of runs to the next on the reference machine's shared host,
/// even scaled to its speed, so a traced run reports them per-layer, from its untraced
/// passes; an untraced run prints them as a comment.
const PASS_METRICS: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("snapshot_kib", "KiB"),
    ("peak_rss_mib", "MiB"),
    ("iters_per_s", "iter/s"),
    ("cpu_ms_per_iter", "ms"),
    ("round_p50_ms", "ms"),
    ("round_p95_ms", "ms"),
    ("recover_s", "s"),
];
const END_TO_END: usize = 3;

/// Per-layer metrics computed over whole passes rather than inside one, reported after
/// [`layers::PER_LAYER`].
const PER_RUN: [(&str, &str); 4] = [
    ("unsafe_rate", "fraction"),
    ("regret_pct", "%"),
    ("telemetry.overhead_pct", "%"),
    ("host.slowdown", "ratio"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    check: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let (mut trace, mut smoke, mut check) = (false, false, false);
    let mut pending: Option<String> = None;
    while let Some(arg) = pending.take().or_else(|| args.next()) {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            // `--trace` alone turns tracing on; `--trace 0` and `--trace 1` say which.
            "--trace" => {
                trace = true;
                match args.next() {
                    Some(v) if v == "0" => trace = false,
                    Some(v) if v == "1" => {}
                    other => pending = other,
                }
            }
            "--smoke" => smoke = true,
            "--check" => check = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke,
        check: check || smoke,
    })
}

fn main() {
    sys::steady_allocator();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    // Which passes each seed runs, `true` where traced.
    let plan: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let (rounds, seeds) = if args.smoke {
        ((w.rounds() / 10).max(1), 1)
    } else {
        let seed_s = plan.len() as f64 * w.pass_seconds();
        (
            w.rounds(),
            ((args.seconds / seed_s).round() as usize).max(1),
        )
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# profile workload={} seed={} rounds={rounds} seeds={seeds} trace={} \
         available_parallelism={cores} tenant_workers={}",
        w.name(),
        args.seed,
        args.trace,
        pass::PARALLELISM
    );

    let mut failures = Vec::new();
    if args.check {
        if let Err(e) = pass::worker_check(args.seed) {
            failures.push(e);
        }
    }
    let runs: Vec<Vec<Pass>> = (0..seeds)
        .map(|j| {
            let seed = inputs::pass_seed(args.seed, j);
            plan.iter()
                .map(|&traced| pass::run(w, seed, rounds, traced))
                .collect()
        })
        .collect();

    for (j, passes) in runs.iter().enumerate() {
        for (k, p) in passes.iter().enumerate() {
            println!(
                "# seed {j} pass {k}{}: setup {:.5}s, {} ticks in {:.3}s ({:.3}s scaled) / \
                 {:.3}s cpu, host slowdown {:.3}, {} iterations, recover {:.3}s, \
                 snapshot {} B, peak rss {:.2} MiB, digest {:016x}",
                if p.trace.is_some() { " (traced)" } else { "" },
                median(&p.setup_s),
                p.ticks_ms.len(),
                p.ticks_ms.iter().sum::<f64>() / 1e3,
                p.scaled_ticks_ms().iter().sum::<f64>() / 1e3,
                p.timed_cpu_s,
                p.slowdown(),
                p.iterations,
                p.recover_s,
                p.snapshot_bytes,
                p.peak_rss_mib,
                p.digest
            );
            failures.extend(p.failures.iter().map(|f| format!("seed {j} pass {k}: {f}")));
            // The traced pass of a seed does the untraced one's work: the telemetry
            // no-feedback contract, checked from outside.
            if p.digest != passes[0].digest {
                failures.push(format!(
                    "seed {j}: pass {k} ended in snapshot digest {:016x}, pass 0 in {:016x}",
                    p.digest, passes[0].digest
                ));
            }
        }
    }

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        per_layer(&runs, &mut failures)
    } else {
        let mut metrics = pass_metrics(&runs.iter().flatten().collect::<Vec<_>>());
        let timings: Vec<String> = metrics
            .split_off(END_TO_END)
            .iter()
            .map(|(name, unit, value)| format!("{name} {value:.5} {unit}"))
            .collect();
        println!("# per-layer timings: {}", timings.join(", "));
        metrics
    };

    for f in &failures {
        eprintln!("FAIL: {f}");
    }
    let passes = runs.iter().flatten();
    let attempted: u64 = passes.clone().map(|p| p.attempted).sum();
    let failed = passes.map(|p| p.failed_ops).sum::<u64>() + failures.len() as u64;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        attempted.max(1),
        body.join(",")
    );
    if failed > 0 {
        std::process::exit(1);
    }
}

/// Shortest round-trip form; a non-finite value (a bug) becomes `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// [`PASS_METRICS`] of `passes`, timings scaled to the reference machine's speed.
/// Throughput and CPU cost are totals over the timed phase of every pass, set-up and
/// tick quantiles pool the samples of every pass, the snapshot size is the mean over the
/// passes (seeds), and peak memory and recovery the median.
fn pass_metrics(passes: &[&Pass]) -> Vec<(&'static str, &'static str, f64)> {
    let over = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(|p| f(p)).collect::<Vec<_>>());
    let total = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(|p| f(p)).sum::<f64>();
    let iterations = total(&|p| p.iterations as f64);
    let ticks: Vec<f64> = passes.iter().flat_map(|p| p.scaled_ticks_ms()).collect();
    println!(
        "# {} tick samples, {} beyond p95",
        ticks.len(),
        ticks.len() / 20
    );
    let setup: Vec<f64> = passes.iter().flat_map(|p| p.setup_s.clone()).collect();
    let values = [
        median(&setup),
        total(&|p| p.snapshot_bytes as f64 / 1024.0) / passes.len().max(1) as f64,
        over(&|p| p.peak_rss_mib),
        iterations / (ticks.iter().sum::<f64>() / 1e3),
        total(&|p| p.timed_cpu_s / p.slowdown()) * 1e3 / iterations.max(1.0),
        quantile(&ticks, 0.50),
        quantile(&ticks, 0.95),
        over(&|p| p.recover_s / p.slowdown()),
    ];
    PASS_METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect()
}

/// Medians over the traced passes, then the [`PASS_METRICS`] beyond the end-to-end ones
/// from the untraced passes. The tracing overhead is the median over ticks of the traced
/// pass's scaled tick time over the untraced pass's, for the same seed and round.
fn per_layer(
    runs: &[Vec<Pass>],
    failures: &mut Vec<String>,
) -> Vec<(&'static str, &'static str, f64)> {
    let traced: Vec<&Pass> = runs
        .iter()
        .flatten()
        .filter(|p| p.trace.is_some())
        .collect();
    let mut out: Vec<(&'static str, &'static str, f64)> = layers::PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let values: Vec<f64> = traced
                .iter()
                .filter_map(|p| p.trace.as_ref()?.get(name).copied())
                .collect();
            if values.len() != traced.len() {
                failures.push(format!("per-layer metric {name} was not measured"));
            }
            (name, unit, median(&values))
        })
        .collect();
    let ratios: Vec<f64> = runs
        .iter()
        .flat_map(|r| {
            let ticks = |traced: bool| {
                r.iter()
                    .find(|p| p.trace.is_some() == traced)
                    .map(Pass::scaled_ticks_ms)
                    .unwrap_or_default()
            };
            let (on, off) = (ticks(true), ticks(false));
            on.iter().zip(&off).map(|(t, u)| t / u).collect::<Vec<_>>()
        })
        .collect();
    let values = [
        median(&traced.iter().map(|p| p.unsafe_rate).collect::<Vec<_>>()),
        median(&traced.iter().map(|p| p.regret_pct).collect::<Vec<_>>()),
        100.0 * (median(&ratios) - 1.0),
        median(
            &runs
                .iter()
                .flatten()
                .map(Pass::slowdown)
                .collect::<Vec<_>>(),
        ),
    ];
    out.extend(PER_RUN.iter().zip(values).map(|(&(n, u), v)| (n, u, v)));
    let untraced: Vec<&Pass> = runs
        .iter()
        .flatten()
        .filter(|p| p.trace.is_none())
        .collect();
    out.extend(pass_metrics(&untraced).split_off(END_TO_END));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet::scenario::ScenarioEvent;
    use fleet::serve::Request;

    fn scripts(w: Workload, seed: u64) -> (String, String) {
        let inputs = inputs::generate(w, seed, w.rounds());
        (
            inputs.scenario.to_json().expect("scenario serializes"),
            serde_json::to_string(&inputs.traffic).expect("traffic serializes"),
        )
    }

    /// Tenants, event counts by kind, request counts by kind and kill points.
    fn shape(w: Workload, seed: u64) -> Vec<usize> {
        let inputs = inputs::generate(w, seed, w.rounds());
        let events = &inputs.scenario.steps;
        let count =
            |f: &dyn Fn(&ScenarioEvent) -> bool| events.iter().filter(|s| f(&s.event)).count();
        let requests = &inputs.traffic.steps;
        vec![
            inputs.tenants.len(),
            count(&|e| matches!(e, ScenarioEvent::Admit { .. })),
            count(&|e| matches!(e, ScenarioEvent::Remove { .. })),
            count(&|e| matches!(e, ScenarioEvent::Drift { .. })),
            count(&|e| matches!(e, ScenarioEvent::Resize { .. })),
            requests
                .iter()
                .filter(|s| matches!(s.request, Request::Suggest { .. }))
                .count(),
            requests
                .iter()
                .filter(|s| matches!(s.request, Request::TelemetryRead))
                .count(),
            inputs.kill_rounds.len(),
        ]
    }

    #[test]
    fn the_same_seed_gives_identical_inputs() {
        for w in Workload::ALL {
            assert_eq!(scripts(w, 7), scripts(w, 7), "{}", w.name());
        }
        assert_ne!(
            scripts(Workload::DriftChurn, 7),
            scripts(Workload::DriftChurn, 8)
        );
        assert_ne!(
            scripts(Workload::ServeDurable, 7),
            scripts(Workload::ServeDurable, 8)
        );
    }

    #[test]
    fn every_seed_gives_the_same_shape() {
        for w in Workload::ALL {
            let reference = shape(w, DEFAULT_SEED);
            for seed in [0, 1, 99, u64::MAX] {
                assert_eq!(shape(w, seed), reference, "{} seed {seed}", w.name());
            }
        }
        let drift = shape(Workload::DriftChurn, DEFAULT_SEED);
        assert!(drift[1] > 0 && drift[3] > 0 && drift[4] > 0, "{drift:?}");
        assert_eq!(shape(Workload::ServeDurable, DEFAULT_SEED)[7], 4);
    }

    #[test]
    fn every_generated_scenario_validates() {
        for w in Workload::ALL {
            for seed in [0, 1, 2, 3, DEFAULT_SEED] {
                for rounds in [w.rounds(), w.rounds() / 10] {
                    let inputs = inputs::generate(w, seed, rounds);
                    let names: Vec<String> =
                        inputs.tenants.iter().map(|t| t.name.clone()).collect();
                    assert_eq!(
                        inputs.scenario.validate(&names),
                        Ok(()),
                        "{} seed {seed} rounds {rounds}",
                        w.name()
                    );
                }
            }
        }
    }

    #[test]
    fn serve_smoke_pass_walks_the_degradation_ladder() {
        let w = Workload::ServeDurable;
        let p = pass::run(w, DEFAULT_SEED, w.rounds() / 10, true);
        assert!(p.failures.is_empty(), "{:?}", p.failures);
        assert_eq!(p.failed_ops, 0);
        let trace = p.trace.expect("traced pass");
        assert!(trace["serve.tier_downgrades"] > 0.0);
        assert!(trace["durable.replay_rounds"] > 0.0);
    }

    #[test]
    fn arguments_parse_in_both_trace_forms() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload drift_churn --seed 5 --seconds 3 --trace 1").unwrap();
        assert!(a.trace && a.seed == 5 && a.seconds == 3.0 && a.workload == Workload::DriftChurn);
        assert!(!parse("--workload steady_mixed --trace 0").unwrap().trace);
        let a = parse("--workload steady_mixed --trace --smoke").unwrap();
        assert!(a.trace && a.smoke && a.check);
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload steady_mixed --seconds 0").is_err());
    }
}
