//! Per-layer metrics of a traced pass.
//!
//! Three sources, all outside the program: the telemetry registry the fleet already
//! keeps (counters and span histograms, read only), what the benchmark observed around
//! public calls during the pass ([`Observed`]), and *replays*: public `gp`, `mlkit`,
//! `featurize` and fleet-event calls timed on the pass's end state, rebuilt from the
//! restored horizon snapshot.

use crate::inputs::SplitMix;
use crate::pass::Observed;
use crate::sys::{mean, median, quantile};
use featurize::ContextFeaturizer;
use fleet::scenario::ScenarioEvent;
use fleet::service::FleetService;
use fleet::tenant::{TenantSessionState, TenantSpec, WorkloadDrift};
use gp::contextual::ContextualGp;
use mlkit::svm::{LinearSvm, SvmOptions};
use rand::SeedableRng;
use simdb::{HardwareSpec, OptimizerStats};
use std::collections::BTreeMap;
use std::time::Instant;
use telemetry::{CounterId, MetricsSnapshot, SpanId};

/// Every per-layer metric, `(name, unit)`, in report order. Names are prefixed with the
/// module (layer) that does the work.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gp.predict_batch_ms", "ms"),
    ("gp.refit_ms", "ms"),
    ("gp.hyperopt_ms.mean", "ms"),
    ("gp.hyperopt_runs", "count"),
    ("gp.hyperopt_evals", "count"),
    ("gp.observe_fast_path_ratio", "fraction"),
    ("gp.budget_evictions", "count"),
    ("gp.jitter_escalations", "count"),
    ("gp.model_n.max", "count"),
    ("mlkit.dbscan_ms", "ms"),
    ("mlkit.svm_train_ms", "ms"),
    ("mlkit.repository_obs.max", "count"),
    ("onlinetune.suggest_ms.mean", "ms"),
    ("onlinetune.suggest_ms.p99", "ms"),
    ("onlinetune.observe_ms.mean", "ms"),
    ("onlinetune.observe_ms.p99", "ms"),
    ("onlinetune.reclusters", "count"),
    ("onlinetune.blackbox_rejections_per_iter", "count/iter"),
    ("onlinetune.whitebox_rejections_per_iter", "count/iter"),
    ("onlinetune.safety_fallbacks", "count"),
    ("fleet.round_ms.mean", "ms"),
    ("fleet.iteration_ms.mean", "ms"),
    ("fleet.iteration_ms.p99", "ms"),
    ("fleet.parallel_efficiency", "fraction"),
    ("scheduler.max_tenant_slot_share", "fraction"),
    ("fleet.event_ms.admit", "ms"),
    ("fleet.event_ms.remove", "ms"),
    ("fleet.event_ms.drift", "ms"),
    ("fleet.event_ms.resize", "ms"),
    ("kb.contributions", "count"),
    ("kb.warm_start_hits", "count"),
    ("kb.warm_start_observations", "count"),
    ("kb.evicted_observations", "count"),
    ("durable.commit_ms.mean", "ms"),
    ("durable.commit_share", "fraction"),
    ("durable.snapshot_kib_per_tenant", "KiB"),
    ("durable.wal_appends", "count"),
    ("durable.restore_ms", "ms"),
    ("durable.replay_rounds", "count"),
    ("serve.requests_shed", "count"),
    ("serve.deadline_misses", "count"),
    ("serve.tier_downgrades", "count"),
    ("serve.tier_upgrades", "count"),
    ("serve.queue_depth.max", "count"),
    ("serve.sojourn_p99_rounds", "rounds"),
    ("featurize.ms", "ms"),
    ("error_rate", "fraction"),
];

/// Candidates in one replayed suggest sweep: the default subspace discretization.
const SWEEP_CANDIDATES: usize = 221;

/// Live tenants each fleet-event replay is applied to.
const EVENT_REPLAYS: usize = 4;

/// The per-layer values of one traced pass, by metric name.
pub type Trace = BTreeMap<&'static str, f64>;

/// Facts about the pass the per-layer report needs.
pub struct Facts {
    pub snapshot_bytes: usize,
    pub attempted: u64,
    pub failed: u64,
}

/// Reads the per-layer values of a traced pass at its horizon: the telemetry of
/// `live`, the fleet that ran, and what the benchmark observed around it.
pub fn read(live: &FleetService, observed: &Observed, facts: &Facts) -> Trace {
    let m = live.metrics_snapshot();
    let mut trace = Trace::default();
    let mut set = |name: &'static str, v: f64| {
        trace.insert(name, v);
    };
    read_telemetry(&m, &mut set);

    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    set(
        "scheduler.max_tenant_slot_share",
        ratio(
            observed.max_tenant_slots as f64,
            observed.total_slots as f64,
        ),
    );
    set("durable.commit_ms.mean", mean(&observed.commit_ms));
    // Only the server commits inside its tick; a bare fleet's tick holds no commit.
    let commits_in_tick = m.counter(CounterId::WalAppends) > 0;
    set(
        "durable.commit_share",
        if commits_in_tick {
            ratio(mean(&observed.commit_ms), mean(&observed.commit_tick_ms))
        } else {
            0.0
        },
    );
    set(
        "durable.snapshot_kib_per_tenant",
        ratio(
            facts.snapshot_bytes as f64 / 1024.0,
            live.n_tenants() as f64,
        ),
    );
    set("durable.replay_rounds", observed.replay_rounds as f64);
    set("serve.queue_depth.max", observed.queue_depth_max as f64);
    set(
        "serve.sojourn_p99_rounds",
        quantile(&observed.sojourn_rounds, 0.99),
    );
    set(
        "error_rate",
        ratio(
            (facts.failed + observed.refused) as f64,
            facts.attempted as f64,
        ),
    );
    trace
}

/// Adds the replayed unit costs to `trace`, measured on `restored`, the pass's horizon
/// snapshot restored (the event replays change it).
pub fn replay(trace: &mut Trace, restored: &mut FleetService, seed: u64) -> Result<(), String> {
    let mut set = |name: &'static str, v: f64| {
        trace.insert(name, v);
    };
    replay_models(restored, seed, &mut set)?;
    replay_events(restored, seed, &mut set)
}

fn read_telemetry(m: &MetricsSnapshot, set: &mut impl FnMut(&'static str, f64)) {
    let c = |id: CounterId| m.counter(id) as f64;
    let per_iter = |id: CounterId| c(id) / c(CounterId::Iterations).max(1.0);
    let h = |id: SpanId| m.histogram(id);
    set("gp.hyperopt_ms.mean", h(SpanId::Hyperopt).mean_ms());
    set("gp.hyperopt_runs", c(CounterId::HyperoptRuns));
    set("gp.hyperopt_evals", c(CounterId::HyperoptEvaluations));
    let observes = c(CounterId::ObserveFastPath) + c(CounterId::ObserveFullRefit);
    set(
        "gp.observe_fast_path_ratio",
        c(CounterId::ObserveFastPath) / observes.max(1.0),
    );
    set("gp.budget_evictions", c(CounterId::BudgetEvictions));
    set("gp.jitter_escalations", c(CounterId::JitterEscalations));
    set("onlinetune.suggest_ms.mean", h(SpanId::Suggest).mean_ms());
    set(
        "onlinetune.suggest_ms.p99",
        h(SpanId::Suggest).quantile_ms(0.99),
    );
    set("onlinetune.observe_ms.mean", h(SpanId::Observe).mean_ms());
    set(
        "onlinetune.observe_ms.p99",
        h(SpanId::Observe).quantile_ms(0.99),
    );
    set("onlinetune.reclusters", c(CounterId::Reclusters));
    set(
        "onlinetune.blackbox_rejections_per_iter",
        per_iter(CounterId::BlackboxRejections),
    );
    set(
        "onlinetune.whitebox_rejections_per_iter",
        per_iter(CounterId::WhiteboxRejections),
    );
    set("onlinetune.safety_fallbacks", c(CounterId::SafetyFallbacks));
    set("fleet.round_ms.mean", h(SpanId::Round).mean_ms());
    set("fleet.iteration_ms.mean", h(SpanId::Iteration).mean_ms());
    set(
        "fleet.iteration_ms.p99",
        h(SpanId::Iteration).quantile_ms(0.99),
    );
    // Busy share of the two tenant workers while a round runs.
    let round_ns = h(SpanId::Round).sum_nanos as f64;
    set(
        "fleet.parallel_efficiency",
        h(SpanId::Iteration).sum_nanos as f64 / (2.0 * round_ns).max(1.0),
    );
    set("kb.contributions", c(CounterId::KbContributions));
    set("kb.warm_start_hits", c(CounterId::WarmStartHits));
    set(
        "kb.warm_start_observations",
        c(CounterId::WarmStartObservations),
    );
    set(
        "kb.evicted_observations",
        c(CounterId::KbEvictedObservations),
    );
    set("durable.wal_appends", c(CounterId::WalAppends));
    set("serve.requests_shed", c(CounterId::RequestsShed));
    set("serve.deadline_misses", c(CounterId::DeadlineMisses));
    set("serve.tier_downgrades", c(CounterId::TierDowngrades));
    set("serve.tier_upgrades", c(CounterId::TierUpgrades));
}

/// Median wall milliseconds of `reps` calls of `f`.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Unit costs of the model layers on the end state: the largest cluster model's refit
/// and suggest sweep, DBSCAN and the SVM on the largest observation repository, and
/// featurizing each live tenant's current workload.
fn replay_models(
    svc: &FleetService,
    seed: u64,
    set: &mut impl FnMut(&'static str, f64),
) -> Result<(), String> {
    let states: Vec<TenantSessionState> = svc.sessions().iter().map(|s| s.export_state()).collect();
    let clusters = states
        .iter()
        .max_by_key(|s| {
            s.tuner
                .clusters
                .models
                .iter()
                .map(|m| m.observations.len())
                .max()
        })
        .map(|s| &s.tuner.clusters)
        .ok_or("no live tenant")?;
    let largest = clusters
        .models
        .iter()
        .max_by_key(|m| m.observations.len())
        .ok_or("tenant without models")?;
    set("gp.model_n.max", largest.observations.len() as f64);

    let mut model = ContextualGp::new(clusters.config_dim, clusters.context_dim);
    model.set_hyperparams(&largest.kernel_params, largest.noise_variance);
    model.set_observations(largest.observations.clone());
    model
        .refit()
        .map_err(|e| format!("refit of the largest model: {e}"))?;
    set("gp.refit_ms", time_ms(5, || model.refit()));
    let mut rng = SplitMix::new(seed);
    let candidates: Vec<Vec<f64>> = (0..SWEEP_CANDIDATES)
        .map(|_| {
            (0..clusters.config_dim)
                .map(|_| rng.range(0.0, 1.0))
                .collect()
        })
        .collect();
    let context = &largest
        .observations
        .last()
        .ok_or("empty largest model")?
        .context;
    let mut finite = true;
    set(
        "gp.predict_batch_ms",
        time_ms(30, || match model.predict_batch(&candidates, context) {
            Ok(p) => {
                finite &= p
                    .iter()
                    .all(|p| p.mean.is_finite() && p.std_dev.is_finite())
            }
            Err(_) => finite = false,
        }),
    );
    if !finite {
        return Err("the replayed suggest sweep gave a non-finite posterior".to_string());
    }

    let repository = states
        .iter()
        .max_by_key(|s| s.tuner.clusters.observations.len())
        .ok_or("no live tenant")?;
    let obs = &repository.tuner.clusters.observations;
    set("mlkit.repository_obs.max", obs.len() as f64);
    let contexts: Vec<Vec<f64>> = obs.iter().map(|o| o.context.clone()).collect();
    let params = repository.tuner.options.cluster.dbscan;
    set(
        "mlkit.dbscan_ms",
        time_ms(3, || mlkit::dbscan(&contexts, &params)),
    );
    let labels: Vec<usize> = repository
        .tuner
        .clusters
        .labels
        .iter()
        .map(|&l| l.max(0) as usize)
        .collect();
    let mut svm_rng = rand::rngs::StdRng::seed_from_u64(seed);
    set(
        "mlkit.svm_train_ms",
        time_ms(3, || {
            LinearSvm::train(&contexts, &labels, &SvmOptions::default(), &mut svm_rng)
        }),
    );

    let featurizer = ContextFeaturizer::with_defaults();
    let workloads: Vec<_> = svc
        .sessions()
        .iter()
        .map(|s| {
            let generator = s.spec().build_generator();
            let at = s.iteration();
            let mut spec = generator.spec_at(at);
            spec.data_size_gib = s.data_size_gib().unwrap_or(spec.data_size_gib);
            let queries = generator.sample_queries(at, 30);
            (
                queries,
                spec.arrival_rate_qps,
                OptimizerStats::estimate(&spec),
            )
        })
        .collect();
    set(
        "featurize.ms",
        time_ms(5, || {
            for (queries, rate, stats) in &workloads {
                std::hint::black_box(featurizer.featurize(queries, *rate, stats));
            }
        }) / workloads.len().max(1) as f64,
    );
    Ok(())
}

/// Unit costs of the fleet's environment events on the end state, each the median over
/// a few live tenants: admit (with its knowledge-base warm start), drift, resize and
/// remove.
fn replay_events(
    svc: &mut FleetService,
    seed: u64,
    set: &mut impl FnMut(&'static str, f64),
) -> Result<(), String> {
    let targets: Vec<TenantSpec> = svc
        .sessions()
        .iter()
        .take(EVENT_REPLAYS)
        .map(|s| s.spec().clone())
        .collect();
    let mut samples: [Vec<f64>; 4] = Default::default();
    for (i, target) in targets.iter().enumerate() {
        let newcomer = TenantSpec::named(format!("replay-{i}"), target.family, seed ^ i as u64);
        let events = [
            ScenarioEvent::Admit {
                spec: newcomer.clone(),
            },
            ScenarioEvent::Drift {
                tenant: target.name.clone(),
                drift: WorkloadDrift::FlashCrowd {
                    at: 0,
                    peak: 2.0,
                    half_life: 10,
                },
            },
            ScenarioEvent::Resize {
                tenant: target.name.clone(),
                hardware: HardwareSpec::default().scaled(2.0),
            },
            ScenarioEvent::Remove {
                tenant: newcomer.name,
            },
        ];
        for (slot, event) in samples.iter_mut().zip(events) {
            let start = Instant::now();
            event.apply(svc)?;
            slot.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    for (name, s) in [
        "fleet.event_ms.admit",
        "fleet.event_ms.drift",
        "fleet.event_ms.resize",
        "fleet.event_ms.remove",
    ]
    .into_iter()
    .zip(&samples)
    {
        set(name, median(s));
    }
    Ok(())
}
