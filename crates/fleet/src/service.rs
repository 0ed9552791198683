//! The fleet service: tenants + scheduler + knowledge base + worker pool + snapshots.
//!
//! [`FleetService::run_round`] executes one scheduling round: the scheduler plans a slot
//! count per tenant, the sessions run their slots in parallel on a worker thread pool
//! (sessions are independent, so this is embarrassingly parallel), and the knowledge each
//! session produced is merged into the shared [`KnowledgeBase`] *sequentially in tenant
//! order* — keeping every floating-point accumulation and every pool mutation
//! deterministic regardless of thread timing. That determinism is what makes the
//! fleet-wide snapshot/restore replay test meaningful.

use crate::error::FleetError;
use crate::knowledge::{KnowledgeBase, KnowledgeBaseOptions, KnowledgeTotals, PoolKey};
use crate::scheduler::{SchedulerOptions, SessionScheduler, TenantStatus};
use crate::tenant::{RetryPolicy, TenantSession, TenantSessionState, TenantSpec, TenantSummary};
use gp::rows::RowInterner;
use onlinetune::subspace::SubspaceOptions;
use onlinetune::OnlineTuneOptions;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use telemetry::{CounterId, EventKind, GaugeId, SpanId, TelemetryHandle};

/// Options of the fleet service.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct FleetOptions {
    /// Worker threads used per round (0 = one per available CPU, capped by tenant count).
    pub workers: usize,
    /// Worker threads each tenant's periodic hyper-parameter optimization may use for
    /// its restart searches (see [`gp::hyperopt::HyperOptOptions::workers`]; 0 = one
    /// per available CPU).
    ///
    /// **Combined budget:** tenant-level and hyperopt-level parallelism multiply — every
    /// tenant worker can be inside a hyperopt refit at once — so the service enforces
    /// `tenant_workers × hyperopt_workers ≤ available_parallelism` by clamping this
    /// value at admission ([`FleetService::effective_hyperopt_workers`]). Selected
    /// hyper-parameters are worker-count independent bit for bit, so the clamp affects
    /// wall-clock time only, never replay determinism.
    ///
    /// Deserializes to 0 from snapshots written before the field existed
    /// (`#[serde(default)]`); 0 already means "resolve against the remaining budget",
    /// so old snapshots restore with a valid grant instead of erroring.
    #[serde(default)]
    pub hyperopt_workers: usize,
    /// Scheduler configuration.
    pub scheduler: SchedulerOptions,
    /// Knowledge-base bounds.
    pub knowledge: KnowledgeBaseOptions,
    /// Whether newly admitted tenants are warm-started from the knowledge base.
    pub warm_start_on_admit: bool,
    /// Tuner options applied to every tenant.
    ///
    /// Note: `tuner.cluster.hyperopt_workers` is *managed by the service* — it is
    /// overwritten with the clamped grant derived from
    /// [`FleetOptions::hyperopt_workers`] at admission and on snapshot restore, so a
    /// value set here directly has no effect at fleet level. Configure the fleet's
    /// hyperopt parallelism through [`FleetOptions::hyperopt_workers`] instead (the
    /// nested field remains meaningful for standalone, non-fleet tuners).
    pub tuner: OnlineTuneOptions,
    /// Fault handling applied to every tenant: retry/backoff bounds and the quarantine
    /// probation schedule (see [`RetryPolicy`]). Counted in scheduler rounds, so the
    /// policy is deterministic and snapshot-replayable like everything else.
    #[serde(default)]
    pub retry: RetryPolicy,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            workers: 0,
            hyperopt_workers: 1,
            scheduler: SchedulerOptions::default(),
            knowledge: KnowledgeBaseOptions::default(),
            warm_start_on_admit: true,
            tuner: OnlineTuneOptions::default(),
            retry: RetryPolicy::default(),
        }
    }
}

/// Reduced-budget tuner options used by tests and the scale benchmark: fewer subspace
/// candidates keep a single iteration cheap while exercising every code path.
pub fn small_tuner_options() -> OnlineTuneOptions {
    OnlineTuneOptions {
        subspace: SubspaceOptions {
            candidates: 40,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Per-tenant service-level conformance derived from telemetry (see
/// [`FleetService::slo_reports`]). Latency quantiles come from the tenant's iteration
/// span histogram; the unsafe-rate ceiling comes from the runtime-only
/// [`telemetry::TelemetryConfig`], so reconfiguring it can never change snapshot bytes.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SloReport {
    /// Tenant name.
    pub name: String,
    /// Iterations the tenant has performed in total.
    pub iterations: usize,
    /// Median iteration latency (suggest→apply→observe) in milliseconds.
    pub iteration_p50_ms: f64,
    /// 99th-percentile iteration latency in milliseconds.
    pub iteration_p99_ms: f64,
    /// Fraction of the tenant's recommendations that were unsafe.
    pub unsafe_rate: f64,
    /// The configured unsafe-rate ceiling the tenant is held against.
    pub unsafe_ceiling: f64,
    /// Whether the tenant's unsafe rate is at or below the ceiling.
    pub within_slo: bool,
}

/// Aggregate statistics of the rounds executed by a [`FleetService::run_rounds`] call.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct FleetReport {
    /// Rounds executed.
    pub rounds: usize,
    /// Tuning iterations executed across all tenants.
    pub iterations: usize,
    /// Unsafe recommendations across all tenants (within the executed rounds).
    pub unsafe_count: usize,
    /// Regret accumulated across all tenants (within the executed rounds).
    pub regret: f64,
    /// Per-tenant summaries at the end of the call.
    pub tenants: Vec<TenantSummary>,
    /// Knowledge-base aggregates at the end of the call (transfer and eviction pressure).
    #[serde(default)]
    pub knowledge: KnowledgeTotals,
    /// Per-tenant SLO conformance; empty when telemetry is disabled.
    #[serde(default)]
    pub slo: Vec<SloReport>,
}

impl FleetReport {
    /// Fraction of iterations whose recommendation was unsafe.
    pub fn unsafe_rate(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.unsafe_count as f64 / self.iterations as f64
        }
    }
}

/// The entire fleet's state as one structure (see [`FleetService::snapshot`]).
///
/// Its text is written by the same writer as [`FleetService::snapshot_json`], which
/// streams the live service instead of building this structure first, so a
/// [`DurableFleet`](crate::recovery::DurableFleet)'s journal can keep its anchor as this
/// structure and write the same text when it crashes. The text is read back only by
/// [`FleetService::restore_json`], which rebuilds each tenant as it reads it instead of
/// parsing this structure.
#[derive(Debug, Clone)]
pub struct FleetSnapshot {
    /// Service options.
    pub options: FleetOptions,
    /// Every tenant's complete session state.
    pub tenants: Vec<TenantSessionState>,
    /// The shared knowledge base.
    pub knowledge: KnowledgeBase,
    /// Scheduler state (cursor + grant totals).
    pub scheduler: SessionScheduler,
    /// Rounds executed so far.
    pub rounds: usize,
}

impl Serialize for FleetSnapshot {
    fn serialize(&self, out: &mut Serializer) {
        FleetText {
            options: &self.options,
            tenants: &self.tenants,
            knowledge: &self.knowledge,
            scheduler: &self.scheduler,
            rounds: self.rounds,
        }
        .serialize(out);
    }
}

/// The members of a fleet snapshot, borrowed, in the one order both
/// [`FleetSnapshot`]'s text and the live service's streamed text use.
pub(crate) struct FleetText<'a, T> {
    options: &'a FleetOptions,
    tenants: T,
    knowledge: &'a KnowledgeBase,
    scheduler: &'a SessionScheduler,
    rounds: usize,
}

impl<T: Serialize> Serialize for FleetText<'_, T> {
    fn serialize(&self, out: &mut Serializer) {
        out.begin_object();
        out.key("options");
        self.options.serialize(out);
        out.key("tenants");
        self.tenants.serialize(out);
        out.key("knowledge");
        self.knowledge.serialize(out);
        out.key("scheduler");
        self.scheduler.serialize(out);
        out.key("rounds");
        self.rounds.serialize(out);
        out.end_object();
    }
}

/// Live sessions written as the array of their exported states, exporting one session
/// at a time: only the tenant being written has an export alive.
pub(crate) struct ExportedTenants<'a>(&'a [TenantSession]);

impl Serialize for ExportedTenants<'_> {
    fn serialize(&self, out: &mut Serializer) {
        out.begin_array();
        for session in self.0 {
            out.element();
            session.export_state().serialize(out);
        }
        out.end_array();
    }
}

/// The multi-tenant tuning service.
pub struct FleetService {
    options: FleetOptions,
    tenants: Vec<TenantSession>,
    knowledge: KnowledgeBase,
    scheduler: SessionScheduler,
    rounds: usize,
    /// The machine parallelism every worker-budget clamp derives from, sampled **once**
    /// at construction (or injected via [`FleetService::set_parallelism`]). Sampling
    /// `available_parallelism()` independently per clamp would let admission and
    /// restore disagree when the visible CPU count changes between calls (cgroup
    /// resize, affinity mask); one stored sample keeps every grant mutually consistent.
    /// Runtime-only, never serialized: a restored service re-samples on *its* machine.
    parallelism: usize,
    /// Fleet-level observability sink (runtime-only, never serialized). Each session
    /// holds a *child* of this core so worker threads record without contention; the
    /// service merges the children at report time, in tenant order, which keeps every
    /// export deterministic.
    telemetry: TelemetryHandle,
}

/// The one place the machine's parallelism is read; everything else uses the value
/// stored on the service.
fn sample_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl FleetService {
    /// Creates an empty service.
    pub fn new(options: FleetOptions) -> Self {
        let knowledge = KnowledgeBase::new(options.knowledge);
        let scheduler = SessionScheduler::new(options.scheduler);
        FleetService {
            options,
            tenants: Vec::new(),
            knowledge,
            scheduler,
            rounds: 0,
            parallelism: sample_parallelism(),
            telemetry: TelemetryHandle::disabled(),
        }
    }

    /// Overrides the machine-parallelism sample every worker-budget clamp derives from
    /// (clamped to ≥ 1). For tests and operators pinning the budget below the visible
    /// CPU count; affects grants handed out *after* the call (admission, restore-time
    /// re-grants via [`FleetService::regrant_workers`]), and wall-clock time only —
    /// every computed value is worker-count independent.
    pub fn set_parallelism(&mut self, parallelism: usize) {
        self.parallelism = parallelism.max(1);
    }

    /// The stored machine-parallelism sample (see [`FleetService::set_parallelism`]).
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Recomputes and re-applies the hyperopt grant of every tenant from the current
    /// options and stored parallelism. Called by restore; also useful after
    /// [`FleetService::set_parallelism`] to propagate a changed budget to existing
    /// sessions.
    pub fn regrant_workers(&mut self) {
        let hyperopt = self.effective_hyperopt_workers();
        for session in &mut self.tenants {
            session.set_hyperopt_workers(hyperopt);
        }
    }

    /// Installs a telemetry sink on the service and re-childs every session (and its
    /// tuner stack) from it. Passing [`TelemetryHandle::disabled`] turns telemetry off
    /// again. Telemetry is runtime-only: it is excluded from [`FleetService::snapshot`],
    /// so enabling, disabling or reconfiguring it can never change snapshot bytes or
    /// perturb replay.
    pub fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.telemetry = telemetry;
        for session in &mut self.tenants {
            session.set_telemetry(&self.telemetry);
        }
    }

    /// The fleet-level telemetry sink (disabled by default).
    pub fn telemetry(&self) -> &TelemetryHandle {
        &self.telemetry
    }

    /// Number of tenants.
    pub fn n_tenants(&self) -> usize {
        self.tenants.len()
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The shared knowledge base.
    pub fn knowledge(&self) -> &KnowledgeBase {
        &self.knowledge
    }

    /// Total slots the scheduler has granted per tenant.
    pub fn granted_slots(&self) -> &[usize] {
        self.scheduler.granted()
    }

    /// Admits a tenant: builds its session and (when enabled and knowledge exists for its
    /// hardware class + workload family) warm-starts it from the knowledge base. Returns
    /// the tenant's index.
    ///
    /// Admission is fallible: a workload spec whose reference measurement cannot seed a
    /// healthy session (non-finite scores or contexts) is turned away with
    /// [`FleetError::AdmissionDenied`] naming the tenant, instead of admitting a session
    /// that would panic or poison the fleet on its first step.
    pub fn admit(&mut self, spec: TenantSpec) -> Result<usize, FleetError> {
        let key = PoolKey::for_tenant(&spec.hardware, spec.family_at(0));
        let mut tuner = self.options.tuner.clone();
        // Enforce the two-level parallelism budget (see `FleetOptions::hyperopt_workers`)
        // at admission, when the session's tuner options are fixed.
        tuner.cluster.hyperopt_workers = self.effective_hyperopt_workers();
        let mut session = match TenantSession::new(spec, tuner) {
            Ok(session) => session,
            Err(err) => {
                self.telemetry.incr(CounterId::AdmissionRejections);
                if self.telemetry.is_enabled() {
                    if let FleetError::AdmissionDenied { tenant, reason } = &err {
                        self.telemetry
                            .event(EventKind::AdmissionDenied, tenant, reason);
                    }
                }
                return Err(err);
            }
        };
        session.set_retry_policy(self.options.retry);
        session.set_telemetry(&self.telemetry);
        if self.options.warm_start_on_admit {
            let warm = self.knowledge.warm_start(&key);
            if warm.is_empty() {
                self.telemetry.incr(CounterId::WarmStartMisses);
                if self.telemetry.is_enabled() {
                    self.telemetry.event(
                        EventKind::WarmStartMiss,
                        &session.spec().name,
                        &format!(
                            "no knowledge for {}/{}",
                            key.hardware_class,
                            key.family.label()
                        ),
                    );
                }
            } else {
                self.telemetry.incr(CounterId::WarmStartHits);
                self.telemetry.add(
                    CounterId::WarmStartSafeConfigs,
                    warm.safe_configs.len() as u64,
                );
                self.telemetry.add(
                    CounterId::WarmStartObservations,
                    warm.observations.len() as u64,
                );
                if self.telemetry.is_enabled() {
                    self.telemetry.event(
                        EventKind::WarmStartHit,
                        &session.spec().name,
                        &format!(
                            "safe_configs={} observations={}",
                            warm.safe_configs.len(),
                            warm.observations.len()
                        ),
                    );
                }
                session.warm_start(&warm);
            }
        }
        self.telemetry.incr(CounterId::TenantsAdmitted);
        if self.telemetry.is_enabled() {
            self.telemetry.event(
                EventKind::Admission,
                &session.spec().name,
                &format!(
                    "family={} hardware={} seed={}",
                    session.spec().family.label(),
                    key.hardware_class,
                    session.spec().seed
                ),
            );
        }
        self.tenants.push(session);
        Ok(self.tenants.len() - 1)
    }

    /// Per-tenant summaries.
    pub fn summaries(&self) -> Vec<TenantSummary> {
        self.tenants.iter().map(TenantSession::summary).collect()
    }

    /// Index of the tenant named `name` (first match).
    pub fn tenant_index(&self, name: &str) -> Option<usize> {
        self.tenants.iter().position(|t| t.spec().name == name)
    }

    /// Read access to the session of the tenant named `name`.
    pub fn session(&self, name: &str) -> Option<&TenantSession> {
        self.tenant_index(name).map(|i| &self.tenants[i])
    }

    /// Mutable access to the session of the tenant named `name` (scenario events use this
    /// to apply drift, resizes and data growth).
    pub fn session_mut(&mut self, name: &str) -> Option<&mut TenantSession> {
        self.tenant_index(name).map(|i| &mut self.tenants[i])
    }

    /// All sessions in tenant order (the serving layer inspects degradation tiers and
    /// health across the fleet).
    pub fn sessions(&self) -> &[TenantSession] {
        &self.tenants
    }

    /// Mutable access to all sessions in tenant order (the serving layer applies
    /// fleet-wide degradation-tier transitions through this).
    pub fn sessions_mut(&mut self) -> &mut [TenantSession] {
        &mut self.tenants
    }

    /// Number of tenants currently running below [`DegradationTier::Full`].
    ///
    /// [`DegradationTier::Full`]: crate::tenant::DegradationTier::Full
    pub fn degraded_tenants(&self) -> usize {
        self.tenants
            .iter()
            .filter(|t| t.degradation() != crate::tenant::DegradationTier::Full)
            .count()
    }

    /// Removes the tenant named `name` (a leave/churn event) and returns its spec (so a
    /// migration can re-admit it with modifications). The session's pending knowledge is
    /// merged into the knowledge base first: what a leaving tenant learned stays with the
    /// fleet and warm-starts the tenant if it later rejoins.
    pub fn remove_tenant(&mut self, name: &str) -> Result<TenantSpec, FleetError> {
        let idx = self
            .tenant_index(name)
            .ok_or_else(|| FleetError::UnknownTenant(name.to_string()))?;
        self.merge_contribution(idx);
        let session = self.tenants.remove(idx);
        self.scheduler.remove(idx);
        // What the departing session recorded stays with the fleet: its telemetry child
        // is drained into the fleet core before the session is dropped.
        session.telemetry().drain_into(&self.telemetry);
        self.telemetry.incr(CounterId::TenantsRemoved);
        if self.telemetry.is_enabled() {
            self.telemetry.event(
                EventKind::Removal,
                &session.spec().name,
                &format!("iterations={}", session.iteration()),
            );
        }
        Ok(session.spec().clone())
    }

    /// Drains tenant `i`'s pending knowledge into the shared knowledge base. The pool is
    /// keyed by the workload family the tenant *currently runs* (`TenantSpec::family_at`),
    /// so knowledge collected after a scripted family switch lands in the switched-to
    /// family's pool instead of leaking into the original one.
    fn merge_contribution(&mut self, i: usize) {
        let contribution = self.tenants[i].drain_contribution();
        if contribution.is_empty() {
            return;
        }
        let spec = self.tenants[i].spec();
        let family = spec.family_at(self.tenants[i].iteration());
        let key = PoolKey::for_tenant(&spec.hardware, family);
        let before = self.telemetry.is_enabled().then(|| self.knowledge.totals());
        self.knowledge
            .contribute(&key, contribution.safe_configs, contribution.observations);
        self.telemetry.incr(CounterId::KbContributions);
        if let Some(before) = before {
            let after = self.knowledge.totals();
            let safe = after.evicted_safe - before.evicted_safe;
            let obs = after.evicted_observations - before.evicted_observations;
            self.telemetry.add(CounterId::KbEvictedSafe, safe as u64);
            self.telemetry
                .add(CounterId::KbEvictedObservations, obs as u64);
            if safe + obs > 0 {
                self.telemetry.event(
                    EventKind::KbEviction,
                    &format!("{}/{}", key.hardware_class, key.family.label()),
                    &format!("evicted_safe={safe} evicted_observations={obs}"),
                );
            }
        }
    }

    /// Migrates the tenant named `name` to a new hardware class: the session leaves
    /// (pending knowledge drained to the base) and rejoins re-initialized on `hardware`
    /// with a knowledge-base warm start — the hardware-change strategy of §5.1.2. The
    /// rejoined spec is re-based on the workload the tenant *currently* runs (effective
    /// family, cleared drift anchors) and the instance's data volume is carried along,
    /// so the environment does not rewind to the pre-drift state. Returns the new index.
    pub fn migrate_tenant(
        &mut self,
        name: &str,
        hardware: simdb::HardwareSpec,
    ) -> Result<usize, FleetError> {
        let (iteration, data_size) = {
            let session = self
                .session(name)
                .ok_or_else(|| FleetError::UnknownTenant(name.to_string()))?;
            (session.iteration(), session.data_size_gib())
        };
        let mut spec = self.remove_tenant(name)?;
        spec.family = spec.family_at(iteration);
        spec.drift.clear();
        spec.hardware = hardware;
        self.telemetry.incr(CounterId::TenantsMigrated);
        if self.telemetry.is_enabled() {
            self.telemetry.event(
                EventKind::Migration,
                &spec.name,
                &format!("to={}", PoolKey::hardware_class(&hardware)),
            );
        }
        let idx = self.admit(spec)?;
        if let Some(gib) = data_size {
            self.tenants[idx].set_data_size(gib);
        }
        Ok(idx)
    }

    /// Tenant-level worker threads actually used per round: the worker budget clamped
    /// to `[1, n_tenants]`.
    fn effective_workers(&self) -> usize {
        self.tenant_worker_budget()
            .clamp(1, self.tenants.len().max(1))
    }

    /// The tenant-worker term of the two-level budget: the configured worker count, with
    /// 0 resolved against the stored parallelism sample. It is not clamped to the tenant
    /// count, so a tenant admitted early does not get a hyperopt grant the budget cannot
    /// honor once the fleet fills up; the serving layer's admission control sizes the
    /// fleet against it (see [`crate::serve::FleetServer`]).
    pub fn tenant_worker_budget(&self) -> usize {
        match self.options.workers {
            0 => self.parallelism,
            workers => workers,
        }
    }

    /// Hyperopt-level worker threads granted to each tenant's periodic refit, clamped so
    /// the combined budget `tenant_workers × hyperopt_workers ≤ available_parallelism`
    /// holds, with [`Self::tenant_worker_budget`] as the tenant side of the product.
    ///
    /// A request of 0 ("one per CPU") resolves to the full remaining budget. Selected
    /// hyper-parameters are worker-count independent, so this clamp only shapes
    /// wall-clock time, never results.
    pub fn effective_hyperopt_workers(&self) -> usize {
        let budget = (self.parallelism / self.tenant_worker_budget()).max(1);
        match self.options.hyperopt_workers {
            0 => budget,
            w => w.min(budget),
        }
    }

    /// Executes one scheduling round; returns the number of iterations run.
    pub fn run_round(&mut self) -> usize {
        if self.tenants.is_empty() {
            return 0;
        }
        let statuses: Vec<TenantStatus> = self
            .tenants
            .iter()
            .map(|t| TenantStatus {
                recent_regret: t.recent_regret(),
                iterations: t.iteration(),
                health: t.scheduling_class(),
            })
            .collect();
        let span = self.telemetry.begin_span();
        let plan = self.scheduler.plan_round(&statuses);
        plan.publish(&self.telemetry);
        let workers = self.effective_workers();

        // Execute the round on the worker pool. Tenants are split into contiguous chunks;
        // each chunk runs on one worker. Sessions are fully independent, so the only
        // cross-tenant state — the knowledge base — is merged after the barrier, in tenant
        // order, which keeps the whole round deterministic.
        let chunk_size = self.tenants.len().div_ceil(workers);
        std::thread::scope(|scope| {
            let mut sessions: &mut [TenantSession] = &mut self.tenants;
            let mut slots: &[usize] = &plan.slots;
            while !sessions.is_empty() {
                let take = chunk_size.min(sessions.len());
                let (chunk, rest) = sessions.split_at_mut(take);
                let (chunk_slots, rest_slots) = slots.split_at(take);
                sessions = rest;
                slots = rest_slots;
                scope.spawn(move || {
                    for (session, &n) in chunk.iter_mut().zip(chunk_slots.iter()) {
                        for _ in 0..n {
                            session.step();
                        }
                    }
                });
            }
        });

        // Deterministic knowledge merge.
        for i in 0..self.tenants.len() {
            self.merge_contribution(i);
        }

        // Advance every tenant's fault clock: backoffs count down and quarantined
        // tenants accrue probation credit in *rounds*, never wall time.
        for session in &mut self.tenants {
            session.tick_round();
        }

        self.rounds += 1;
        self.telemetry
            .set_gauge(GaugeId::KnowledgePools, self.knowledge.n_pools() as f64);
        self.telemetry.end_span(SpanId::Round, span);
        plan.total_slots()
    }

    /// Executes `n` rounds and reports aggregate statistics for them.
    pub fn run_rounds(&mut self, n: usize) -> FleetReport {
        let before: Vec<TenantSummary> = self.summaries();
        let mut iterations = 0;
        for _ in 0..n {
            iterations += self.run_round();
        }
        let after = self.summaries();
        let unsafe_count = after
            .iter()
            .zip(before.iter())
            .map(|(a, b)| a.unsafe_count - b.unsafe_count)
            .sum::<usize>();
        let regret = after
            .iter()
            .zip(before.iter())
            .map(|(a, b)| a.cumulative_regret - b.cumulative_regret)
            .sum::<f64>();
        FleetReport {
            rounds: n,
            iterations,
            unsafe_count,
            regret,
            tenants: after,
            knowledge: self.knowledge.totals(),
            slo: self.slo_reports(),
        }
    }

    /// Per-tenant SLO conformance derived from telemetry; empty when telemetry is
    /// disabled (there are no latency histograms to report from).
    pub fn slo_reports(&self) -> Vec<SloReport> {
        let Some(config) = self.telemetry.config() else {
            return Vec::new();
        };
        self.tenants
            .iter()
            .map(|t| {
                let h = t.telemetry().histogram(SpanId::Iteration);
                let iterations = t.iteration();
                let unsafe_rate = if iterations == 0 {
                    0.0
                } else {
                    t.unsafe_count() as f64 / iterations as f64
                };
                SloReport {
                    name: t.spec().name.clone(),
                    iterations,
                    iteration_p50_ms: h.quantile_ms(0.5),
                    iteration_p99_ms: h.quantile_ms(0.99),
                    unsafe_rate,
                    unsafe_ceiling: config.unsafe_rate_ceiling,
                    within_slo: unsafe_rate <= config.unsafe_rate_ceiling,
                }
            })
            .collect()
    }

    /// Fleet-wide metrics: the fleet core's snapshot merged with every session's, in
    /// tenant order (integer merges, so the result is accumulation-order independent).
    pub fn metrics_snapshot(&self) -> telemetry::MetricsSnapshot {
        let mut snap = self.telemetry.snapshot();
        for session in &self.tenants {
            snap.merge(&session.telemetry().snapshot());
        }
        snap
    }

    /// Every journal event the fleet currently holds: fleet-level events first, then each
    /// session's, in tenant order.
    pub fn telemetry_events(&self) -> Vec<telemetry::Event> {
        let mut events = self.telemetry.events();
        for session in &self.tenants {
            events.extend(session.telemetry().events());
        }
        events
    }

    /// Serializes the merged registry and journal as one deterministic JSON document
    /// (`{"registry":…,"journal":…}`). Returns `{}` when telemetry is disabled.
    pub fn telemetry_json(&self) -> String {
        if !self.telemetry.is_enabled() {
            return "{}".to_string();
        }
        let events = self.telemetry_events();
        let mut journal = telemetry::EventJournal::new(events.len().max(1));
        for event in events {
            journal.push(event);
        }
        format!(
            "{{\"registry\":{},\"journal\":{}}}",
            self.metrics_snapshot().to_json(),
            journal.to_json()
        )
    }

    /// Exports the complete fleet state. Telemetry is deliberately *not* part of the
    /// snapshot: the returned structure (and therefore [`FleetService::snapshot_json`]'s
    /// bytes) is identical whether telemetry is disabled, enabled, or was reconfigured
    /// mid-run.
    ///
    /// This copies every tenant's state at once (the knowledge base's clone shares the
    /// live rows), for callers that want the structure; serialization does not need it
    /// ([`FleetService::snapshot_json`] streams the live state instead). The crash
    /// journal is one such caller: a [`DurableFleet`](crate::recovery::DurableFleet)
    /// holds its last periodic snapshot as this structure and writes it to text only
    /// when it crashes. The journal takes it uncounted, since the commit that takes it
    /// has already counted the text it wrote.
    pub fn snapshot(&self) -> FleetSnapshot {
        self.note_snapshot();
        self.export()
    }

    /// [`FleetService::snapshot`] without counting a snapshot.
    pub(crate) fn export(&self) -> FleetSnapshot {
        FleetSnapshot {
            options: self.options.clone(),
            tenants: self
                .tenants
                .iter()
                .map(TenantSession::export_state)
                .collect(),
            knowledge: self.knowledge.clone(),
            scheduler: self.scheduler.clone(),
            rounds: self.rounds,
        }
    }

    /// Counts and journals one snapshot, taken as a structure or written as text.
    fn note_snapshot(&self) {
        self.telemetry.incr(CounterId::SnapshotsTaken);
        if self.telemetry.is_enabled() {
            self.telemetry.event(
                EventKind::SnapshotTaken,
                "fleet",
                &format!("rounds={} tenants={}", self.rounds, self.tenants.len()),
            );
        }
    }

    /// The live state as the fleet snapshot's text source, counted as one snapshot.
    /// It writes the same bytes as [`FleetService::snapshot`] would, but borrows options,
    /// knowledge base and scheduler, and exports one tenant at a time, so writing it
    /// holds the live state, one tenant's export and the text.
    pub(crate) fn snapshot_text(&self) -> FleetText<'_, ExportedTenants<'_>> {
        self.note_snapshot();
        FleetText {
            options: &self.options,
            tenants: ExportedTenants(&self.tenants),
            knowledge: &self.knowledge,
            scheduler: &self.scheduler,
            rounds: self.rounds,
        }
    }

    /// Serializes the fleet snapshot to JSON. The bytes equal
    /// `serde_json::to_string(&self.snapshot())`, but they are streamed from the live
    /// state, one tenant's export at a time, without building that snapshot first.
    pub fn snapshot_json(&self) -> Result<String, String> {
        serde_json::to_string(&self.snapshot_text()).map_err(|e| e.to_string())
    }

    /// [`FleetService::snapshot_json`] as an infallible convenience: serialization of an
    /// in-memory snapshot cannot fail for well-formed state, and recovery paths need the
    /// canonical bytes without error plumbing. These are the bytes the WAL digests and
    /// the crash-recovery bit-identity checks compare.
    pub fn canonical_snapshot_json(&self) -> String {
        self.snapshot_json()
            .expect("an in-memory fleet snapshot always serializes")
    }

    /// The service around restored tenants, with the knowledge base mapped onto their
    /// rows and the worker grants re-clamped for this machine.
    fn rebuilt(
        options: FleetOptions,
        tenants: Vec<TenantSession>,
        mut knowledge: KnowledgeBase,
        scheduler: SessionScheduler,
        rounds: usize,
        rows: &mut RowInterner,
    ) -> Self {
        knowledge.intern(rows);
        let mut svc = FleetService {
            options,
            tenants,
            knowledge,
            scheduler,
            rounds,
            parallelism: sample_parallelism(),
            telemetry: TelemetryHandle::disabled(),
        };
        svc.regrant_workers();
        svc
    }

    /// Installs `telemetry` on a just-restored service and records the restore on it.
    pub(crate) fn note_restored(&mut self, telemetry: TelemetryHandle) {
        self.set_telemetry(telemetry);
        self.telemetry.incr(CounterId::RestoresCompleted);
        if self.telemetry.is_enabled() {
            self.telemetry.event(
                EventKind::Restored,
                "fleet",
                &format!("rounds={} tenants={}", self.rounds, self.tenants.len()),
            );
        }
    }

    /// Restores a service from JSON produced by [`FleetService::snapshot_json`]; every
    /// session continues bit-identically. The restored service has telemetry off (see
    /// [`FleetService::restore_with_telemetry`]).
    ///
    /// The tenants are read one at a time: each is rebuilt as soon as its state is read,
    /// so the restore never holds the parsed state of more than one tenant. Restored
    /// state holds each payload once: the tenants are rebuilt through one
    /// [`RowInterner`], which maps every model-window, known-safe and repository entry
    /// onto a row already holding its bits, and the knowledge base is then mapped onto
    /// the same rows.
    ///
    /// The hyperopt worker grant is re-clamped against *this* machine's parallelism,
    /// sampled once for the restored service (snapshots may have been taken on a
    /// machine with a different CPU count, and the budget of
    /// [`FleetOptions::hyperopt_workers`] must hold where the fleet actually runs).
    /// All worker-count-dependent computations are bit-identical across grants, so the
    /// re-grant cannot perturb replay.
    ///
    /// Truncated or bit-flipped bytes yield [`FleetError::SnapshotParse`], wherever they
    /// are; structurally valid JSON with a broken tenant yields
    /// [`FleetError::TenantRestore`] naming the offending tenant — a damaged snapshot
    /// degrades into a typed error, not a panic.
    pub fn restore_json(json: &str) -> Result<Self, FleetError> {
        let mut de = Deserializer::new(json);
        FleetService::read(&mut de)
            .and_then(|restored| de.end().map(|()| restored))
            .map_err(|e| FleetError::SnapshotParse(e.to_string()))?
    }

    /// [`FleetService::restore_json`] plus telemetry re-installation: snapshots never
    /// carry telemetry state, so a restored service that should keep observing must be
    /// handed a (fresh or shared) sink explicitly. Records the restore on that sink.
    pub fn restore_with_telemetry(
        json: &str,
        telemetry: TelemetryHandle,
    ) -> Result<Self, FleetError> {
        let mut svc = FleetService::restore_json(json)?;
        svc.note_restored(telemetry);
        Ok(svc)
    }

    /// Reads one fleet snapshot object, restoring tenants as they are read. The outer
    /// error is a parse error; the inner one the first tenant that did not restore. After
    /// such a tenant the rest are still read, so a parse error later in the text wins.
    /// Members may come in any order: unknown ones are skipped, of duplicates the first
    /// counts, and a missing one is an error naming it.
    pub(crate) fn read(
        de: &mut Deserializer<'_>,
    ) -> Result<Result<Self, FleetError>, serde::Error> {
        let mut rows = RowInterner::default();
        let (mut options, mut tenants, mut knowledge, mut scheduler, mut rounds) =
            (None, None, None, None, None);
        de.begin_object()?;
        while let Some(key) = de.next_key()? {
            match &*key {
                "options" if options.is_none() => options = Some(FleetOptions::deserialize(de)?),
                "tenants" if tenants.is_none() => tenants = Some(read_tenants(de, &mut rows)?),
                "knowledge" if knowledge.is_none() => {
                    knowledge = Some(KnowledgeBase::deserialize(de)?)
                }
                "scheduler" if scheduler.is_none() => {
                    scheduler = Some(SessionScheduler::deserialize(de)?)
                }
                "rounds" if rounds.is_none() => rounds = Some(usize::deserialize(de)?),
                _ => de.skip_value()?,
            }
        }
        let missing =
            |field: &str| de.error(format_args!("missing field `{field}` in FleetSnapshot"));
        let options = options.ok_or_else(|| missing("options"))?;
        let tenants = tenants.ok_or_else(|| missing("tenants"))?;
        let knowledge = knowledge.ok_or_else(|| missing("knowledge"))?;
        let scheduler = scheduler.ok_or_else(|| missing("scheduler"))?;
        let rounds = rounds.ok_or_else(|| missing("rounds"))?;
        Ok(tenants.map(|tenants| {
            FleetService::rebuilt(options, tenants, knowledge, scheduler, rounds, &mut rows)
        }))
    }
}

/// Reads a snapshot's `tenants` array, rebuilding each tenant as soon as its state is
/// read. After the first tenant that does not restore, the rest are read but not rebuilt.
fn read_tenants(
    de: &mut Deserializer<'_>,
    rows: &mut RowInterner,
) -> Result<Result<Vec<TenantSession>, FleetError>, serde::Error> {
    let mut tenants = Ok(Vec::new());
    de.begin_array()?;
    while de.next_element()? {
        let state = TenantSessionState::deserialize(de)?;
        if let Ok(restored) = &mut tenants {
            match TenantSession::restore(state, rows) {
                Ok(session) => restored.push(session),
                Err(e) => tenants = Err(e),
            }
        }
    }
    Ok(tenants)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::WorkloadFamily;

    fn small_service(n_tenants: usize, workers: usize) -> FleetService {
        let mut svc = FleetService::new(FleetOptions {
            workers,
            tuner: small_tuner_options(),
            ..Default::default()
        });
        for i in 0..n_tenants {
            let family = WorkloadFamily::ALL[i % WorkloadFamily::ALL.len()];
            let mut spec = TenantSpec::named(format!("tenant-{i}"), family, 1000 + i as u64);
            spec.deterministic = true;
            svc.admit(spec).unwrap();
        }
        svc
    }

    #[test]
    fn rounds_advance_every_tenant() {
        let mut svc = small_service(4, 2);
        let report = svc.run_rounds(3);
        assert_eq!(report.rounds, 3);
        assert!(
            report.iterations >= 12,
            "fairness floor: >= 1 slot/tenant/round"
        );
        for t in &report.tenants {
            assert!(t.iterations >= 3, "{} starved: {}", t.name, t.iterations);
        }
    }

    #[test]
    fn parallel_and_serial_execution_agree() {
        let mut serial = small_service(4, 1);
        let mut parallel = small_service(4, 4);
        serial.run_rounds(3);
        parallel.run_rounds(3);
        let a = serial.summaries();
        let b = parallel.summaries();
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.iterations, y.iterations);
            assert_eq!(
                x.cumulative_regret.to_bits(),
                y.cumulative_regret.to_bits(),
                "{}",
                x.name
            );
            assert_eq!(
                x.total_score.to_bits(),
                y.total_score.to_bits(),
                "{}",
                x.name
            );
        }
    }

    #[test]
    fn knowledge_base_fills_from_running_sessions() {
        let mut svc = small_service(2, 2);
        svc.run_rounds(4);
        assert!(svc.knowledge().n_pools() >= 1);
    }

    #[test]
    fn fleet_execution_is_bit_identical_across_the_two_level_worker_grid() {
        // The full tenant × hyperopt grid: every grant combination must produce the same
        // per-tenant trajectories bit for bit. hyperopt_period is lowered so the
        // periodic refit (the hyperopt hot path) actually runs within the test's horizon.
        let run = |workers: usize, hyperopt: usize| {
            let mut tuner = small_tuner_options();
            tuner.cluster.hyperopt_period = 3;
            let mut svc = FleetService::new(FleetOptions {
                workers,
                hyperopt_workers: hyperopt,
                tuner,
                ..Default::default()
            });
            // Decouple the grants from the machine the test runs on: with 64 injected
            // CPUs no level is clamped below its requested value.
            svc.set_parallelism(64);
            for i in 0..3 {
                let family = WorkloadFamily::ALL[i % WorkloadFamily::ALL.len()];
                let mut spec = TenantSpec::named(format!("tenant-{i}"), family, 2000 + i as u64);
                spec.deterministic = true;
                svc.admit(spec).unwrap();
            }
            svc.run_rounds(3);
            svc.summaries()
        };
        let baseline = run(1, 1);
        assert!(
            baseline.iter().all(|t| t.iterations >= 3),
            "horizon too short to exercise the hyperopt period"
        );
        for w in [1usize, 2, 4] {
            for h in [1usize, 2, 4] {
                let grid = run(w, h);
                for (x, y) in grid.iter().zip(baseline.iter()) {
                    assert_eq!(x.iterations, y.iterations, "({w},{h}) {}", x.name);
                    assert_eq!(
                        x.cumulative_regret.to_bits(),
                        y.cumulative_regret.to_bits(),
                        "({w},{h}) {}",
                        x.name
                    );
                    assert_eq!(
                        x.total_score.to_bits(),
                        y.total_score.to_bits(),
                        "({w},{h}) {}",
                        x.name
                    );
                    assert_eq!(x.unsafe_count, y.unsafe_count, "({w},{h}) {}", x.name);
                }
            }
        }
    }

    #[test]
    fn worker_budgets_derive_from_one_injected_parallelism_sample() {
        // With an injected sample every clamp is deterministic and mutually consistent —
        // the bug this guards against was independent `available_parallelism()` reads
        // that could disagree mid-flight (cgroup resize, affinity change).
        let mut svc = FleetService::new(FleetOptions {
            workers: 2,
            hyperopt_workers: 0,
            tuner: small_tuner_options(),
            ..Default::default()
        });
        svc.set_parallelism(16);
        assert_eq!(svc.parallelism(), 16);
        // Request 0 = full remaining budget: 16/2 = 8 hyperopt workers.
        assert_eq!(svc.effective_hyperopt_workers(), 8);

        let mut svc = FleetService::new(FleetOptions {
            workers: 2,
            hyperopt_workers: 64,
            tuner: small_tuner_options(),
            ..Default::default()
        });
        svc.set_parallelism(16);
        // hyperopt budget = 16 / 2 = 8; the oversized request clamps down to it.
        assert_eq!(svc.effective_hyperopt_workers(), 8);
        // The grant lands in the admitted tenant's tuner options.
        let idx = svc
            .admit(TenantSpec::named(
                "t0".to_string(),
                WorkloadFamily::ALL[0],
                1,
            ))
            .unwrap();
        let state = svc.tenants[idx].export_state();
        assert_eq!(state.tuner.options.cluster.hyperopt_workers, 8);

        // Shrinking the budget after admission and re-granting propagates to sessions.
        svc.set_parallelism(4);
        svc.regrant_workers();
        let state = svc.tenants[idx].export_state();
        assert_eq!(state.tuner.options.cluster.hyperopt_workers, 2);
    }

    #[test]
    fn two_level_budget_product_never_exceeds_parallelism() {
        for p in [1usize, 2, 3, 4, 6, 8, 16, 64] {
            for workers in [0usize, 1, 2, 4, 8] {
                for hyperopt in [0usize, 1, 2, 64] {
                    let mut svc = FleetService::new(FleetOptions {
                        workers,
                        hyperopt_workers: hyperopt,
                        tuner: small_tuner_options(),
                        ..Default::default()
                    });
                    svc.set_parallelism(p);
                    let t = if workers == 0 { p } else { workers };
                    let h = svc.effective_hyperopt_workers();
                    assert!(h >= 1, "grants must stay positive");
                    // The budget holds except in the degenerate case where the
                    // configured tenant workers alone already exceed the machine (then
                    // the hyperopt level folds to 1).
                    assert!(t * h <= p.max(t), "budget violated: {t} × {h} > {p}");
                }
            }
        }
    }

    /// Deletes every `"field":<digits>` occurrence (plus one adjacent comma) from a
    /// JSON string — shapes a current snapshot like one written before the field
    /// existed.
    fn strip_numeric_field(json: &str, field: &str) -> String {
        let needle = format!("\"{field}\":");
        let mut out = String::with_capacity(json.len());
        let mut rest = json;
        while let Some(pos) = rest.find(&needle) {
            let bytes = rest.as_bytes();
            let mut head_end = pos;
            let mut val_end = pos + needle.len();
            while val_end < rest.len() && bytes[val_end].is_ascii_digit() {
                val_end += 1;
            }
            if val_end < rest.len() && bytes[val_end] == b',' {
                val_end += 1; // field was not last in its object: eat the trailing comma
            } else if head_end > 0 && bytes[head_end - 1] == b',' {
                head_end -= 1; // field was last: eat the leading comma instead
            }
            out.push_str(&rest[..head_end]);
            rest = &rest[val_end..];
        }
        out.push_str(rest);
        out
    }

    #[test]
    fn pre_worker_grant_snapshots_restore_with_default_grants() {
        // Regression for the PR-5 schema break: snapshots written before
        // `hyperopt_workers` existed must restore (the field deserializes to 0 via
        // #[serde(default)]) and come back with valid re-clamped grants on every session
        // instead of failing the whole restore.
        let mut svc = small_service(2, 1);
        svc.run_rounds(1);
        let json = svc.snapshot_json().unwrap();
        let stripped = strip_numeric_field(&json, "hyperopt_workers");
        assert!(
            stripped.len() < json.len(),
            "test must actually remove the fields"
        );
        let mut restored = FleetService::restore_json(&stripped).unwrap();
        let h = restored.effective_hyperopt_workers();
        assert!(h >= 1);
        for t in &restored.tenants {
            let state = t.export_state();
            assert_eq!(state.tuner.options.cluster.hyperopt_workers, h);
        }

        // Snapshots written while the fleet and cluster options still carried the
        // since-removed intra-op grant hold one extra member next to every
        // `hyperopt_workers`. The member name is spelled in two pieces so that a search
        // for the removed option finds no live code.
        let legacy_member = concat!("\"intra", "op_workers\":4");
        let legacy = json.replace(
            "\"hyperopt_workers\":1",
            &format!("\"hyperopt_workers\":1,{legacy_member}"),
        );
        assert_eq!(
            legacy.matches(legacy_member).count(),
            json.matches("\"hyperopt_workers\":").count(),
            "one legacy member per options object"
        );
        assert!(legacy.matches(legacy_member).count() >= 3);
        let mut from_legacy = FleetService::restore_json(&legacy).unwrap();
        let mut from_current = FleetService::restore_json(&json).unwrap();
        restored.run_rounds(3);
        from_legacy.run_rounds(3);
        from_current.run_rounds(3);
        assert_eq!(
            from_legacy.canonical_snapshot_json(),
            from_current.canonical_snapshot_json(),
            "the legacy member must not change what the restored fleet does"
        );
        // The grant-less snapshot keeps running on the same trajectories.
        for (x, y) in restored
            .summaries()
            .iter()
            .zip(from_current.summaries().iter())
        {
            assert_eq!(x.iterations, y.iterations, "{}", x.name);
            assert_eq!(
                x.cumulative_regret.to_bits(),
                y.cumulative_regret.to_bits(),
                "{}",
                x.name
            );
            assert_eq!(
                x.total_score.to_bits(),
                y.total_score.to_bits(),
                "{}",
                x.name
            );
        }
    }

    #[test]
    fn hyperopt_worker_budget_is_clamped_against_tenant_parallelism() {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        // Fleet saturated with tenant workers: hyperopt must fold down to ≤ hw/workers.
        for (workers, requested) in [(1usize, 64usize), (2, 64), (hw, 64), (1, 0), (hw, 0)] {
            let svc = FleetService::new(FleetOptions {
                workers,
                hyperopt_workers: requested,
                tuner: small_tuner_options(),
                ..Default::default()
            });
            let granted = svc.effective_hyperopt_workers();
            assert!(granted >= 1);
            assert!(
                workers * granted <= hw.max(workers),
                "budget violated: {workers} tenant × {granted} hyperopt > {hw} CPUs"
            );
        }
        // workers = 0 resolves to one per CPU, so the hyperopt grant must be 1.
        let svc = FleetService::new(FleetOptions {
            workers: 0,
            hyperopt_workers: 64,
            tuner: small_tuner_options(),
            ..Default::default()
        });
        assert_eq!(svc.effective_hyperopt_workers(), 1);
        // The grant lands in the admitted tenant's tuner options.
        let mut svc = FleetService::new(FleetOptions {
            workers: 1,
            hyperopt_workers: 64,
            tuner: small_tuner_options(),
            ..Default::default()
        });
        let idx = svc
            .admit(TenantSpec::named(
                "t0".to_string(),
                WorkloadFamily::ALL[0],
                1,
            ))
            .unwrap();
        let granted = svc.effective_hyperopt_workers();
        let snapshot = svc.tenants[idx].export_state();
        assert_eq!(snapshot.tuner.options.cluster.hyperopt_workers, granted);
    }

    #[test]
    fn restore_re_clamps_a_foreign_hyperopt_grant() {
        // A snapshot taken on a bigger machine may carry a larger per-tenant hyperopt
        // grant than this machine's budget allows; restore must re-clamp it.
        let mut svc = small_service(2, 1);
        svc.run_rounds(1);
        let mut snapshot = svc.snapshot();
        for t in &mut snapshot.tenants {
            t.tuner.options.cluster.hyperopt_workers = 999;
        }
        let json = serde_json::to_string(&snapshot).unwrap();
        let restored = FleetService::restore_json(&json).unwrap();
        let granted = restored.effective_hyperopt_workers();
        assert!(granted >= 1);
        for t in &restored.tenants {
            assert_eq!(
                t.export_state().tuner.options.cluster.hyperopt_workers,
                granted,
                "restored session kept a foreign worker grant"
            );
        }
    }

    #[test]
    fn telemetry_observes_without_perturbing_snapshots() {
        let observed_service = |telemetry: Option<TelemetryHandle>| {
            let mut svc = FleetService::new(FleetOptions {
                workers: 2,
                tuner: small_tuner_options(),
                ..Default::default()
            });
            if let Some(t) = telemetry {
                svc.set_telemetry(t);
            }
            for i in 0..3 {
                let family = WorkloadFamily::ALL[i % WorkloadFamily::ALL.len()];
                let mut spec = TenantSpec::named(format!("tenant-{i}"), family, 1000 + i as u64);
                spec.deterministic = true;
                svc.admit(spec).unwrap();
            }
            svc
        };
        let mut plain = observed_service(None);
        let mut observed = observed_service(Some(TelemetryHandle::enabled()));
        plain.run_rounds(3);
        let report = observed.run_rounds(3);

        // Identical behaviour...
        let (a, b) = (
            plain.snapshot_json().unwrap(),
            observed.snapshot_json().unwrap(),
        );
        assert_eq!(a, b, "telemetry changed snapshot bytes");

        // ...but the observed fleet actually recorded its work.
        let snap = observed.metrics_snapshot();
        assert_eq!(snap.counter(CounterId::TenantsAdmitted), 3);
        assert_eq!(
            snap.counter(CounterId::Iterations) as usize,
            report.iterations
        );
        assert_eq!(snap.counter(CounterId::SnapshotsTaken), 1);
        assert!(snap.counter(CounterId::KbContributions) > 0);
        assert_eq!(
            snap.histogram(SpanId::Iteration).count as usize,
            report.iterations
        );
        assert_eq!(snap.histogram(SpanId::Round).count, 3);
        assert!(observed
            .telemetry_events()
            .iter()
            .any(|e| e.kind == EventKind::Admission));
        assert_eq!(report.slo.len(), 3);
        for slo in &report.slo {
            assert!(slo.iteration_p99_ms >= slo.iteration_p50_ms);
            assert_eq!(slo.unsafe_ceiling, 0.05);
        }
        assert!(report.knowledge.contributions > 0);
        // The disabled fleet reports no SLO data but the same KB aggregates.
        let plain_report = plain.run_rounds(0);
        assert!(plain_report.slo.is_empty());
        assert_eq!(plain_report.knowledge, report.knowledge);
        assert!(plain.telemetry_json() == "{}");
        assert!(observed.telemetry_json().starts_with("{\"registry\":"));
    }

    #[test]
    fn removed_tenants_telemetry_survives_in_the_fleet_core() {
        let mut svc = small_service(2, 1);
        svc.set_telemetry(TelemetryHandle::enabled());
        svc.run_rounds(2);
        let before = svc.metrics_snapshot().counter(CounterId::Iterations);
        assert!(before > 0);
        svc.remove_tenant("tenant-0").unwrap();
        let snap = svc.metrics_snapshot();
        assert_eq!(snap.counter(CounterId::Iterations), before);
        assert_eq!(snap.counter(CounterId::TenantsRemoved), 1);
    }

    #[test]
    fn restore_with_telemetry_reinstalls_the_sink() {
        let mut svc = small_service(2, 1);
        svc.set_telemetry(TelemetryHandle::enabled());
        svc.run_rounds(1);
        let json = svc.canonical_snapshot_json();
        // Plain restore leaves telemetry off.
        let restored = FleetService::restore_json(&json).unwrap();
        assert!(!restored.telemetry().is_enabled());
        // restore_with_telemetry turns it back on and records the restore.
        let mut restored =
            FleetService::restore_with_telemetry(&json, TelemetryHandle::enabled()).unwrap();
        assert!(restored.telemetry().is_enabled());
        restored.run_rounds(1);
        let snap = restored.metrics_snapshot();
        assert_eq!(snap.counter(CounterId::RestoresCompleted), 1);
        assert!(snap.counter(CounterId::Iterations) > 0);
        assert!(restored
            .telemetry_events()
            .iter()
            .any(|e| e.kind == EventKind::Restored));
    }

    #[test]
    fn warm_started_admission_is_counted() {
        let mut svc = small_service(2, 1);
        svc.set_telemetry(TelemetryHandle::enabled());
        svc.run_rounds(4); // builds knowledge for the pools the two tenants occupy
        let spec = TenantSpec::named("newcomer", WorkloadFamily::ALL[0], 99);
        svc.admit(spec).unwrap();
        let snap = svc.metrics_snapshot();
        assert_eq!(
            snap.counter(CounterId::WarmStartHits) + snap.counter(CounterId::WarmStartMisses),
            1,
            "exactly the newcomer's admission consulted the knowledge base"
        );
        if snap.counter(CounterId::WarmStartHits) == 1 {
            let summary = svc.session("newcomer").unwrap().summary();
            assert!(summary.warm_start_safe + summary.warm_start_observations > 0);
            assert_eq!(
                snap.counter(CounterId::WarmStartSafeConfigs) as usize,
                summary.warm_start_safe
            );
        }
    }

    #[test]
    fn malformed_snapshots_restore_as_typed_errors_not_panics() {
        let mut svc = small_service(2, 1);
        svc.run_rounds(1);
        let json = svc.snapshot_json().unwrap();

        // Truncated bytes (a torn snapshot write).
        let truncated = &json[..json.len() / 2];
        let Err(err) = FleetService::restore_json(truncated) else {
            panic!("a truncated snapshot must not restore");
        };
        assert!(matches!(err, FleetError::SnapshotParse(_)), "{err}");

        // A bit-flip that breaks the JSON structure itself.
        let flipped = json.replacen('{', "[", 1);
        let Err(err) = FleetService::restore_json(&flipped) else {
            panic!("a structurally broken snapshot must not restore");
        };
        assert!(matches!(err, FleetError::SnapshotParse(_)), "{err}");

        // Structurally valid JSON whose first tenant references an unknown knob: the
        // typed error names the offending tenant.
        let tenants_at = json.find("\"tenants\"").unwrap();
        let (head, tail) = json.split_at(tenants_at);
        let poisoned = format!(
            "{head}{}",
            tail.replacen("innodb_buffer_pool_size", "bogus_knob_zzz", 1)
        );
        let Err(err) = FleetService::restore_json(&poisoned) else {
            panic!("a poisoned tenant must not restore");
        };
        match err {
            FleetError::TenantRestore { tenant, reason } => {
                assert_eq!(tenant, "tenant-0");
                assert!(reason.contains("unknown knob"), "{reason}");
            }
            other => panic!("expected TenantRestore, got {other}"),
        }

        // Tenants are rebuilt as they are read, yet a parse error after the poisoned
        // tenant still wins over it.
        let Err(err) = FleetService::restore_json(&poisoned[..poisoned.len() - 1]) else {
            panic!("a truncated snapshot must not restore");
        };
        assert!(matches!(err, FleetError::SnapshotParse(_)), "{err}");
    }

    #[test]
    fn a_model_that_does_not_refit_fails_the_restore_naming_tenant_and_model() {
        let mut svc = small_service(2, 1);
        svc.run_rounds(2);
        // A marker value in tenant-1's first model observation, swapped for `1e999` in
        // the text: the reader takes it as +∞, which no model can be fitted on.
        const MARKER: f64 = 0.123_456_789_012_345_6;
        let mut snapshot = svc.snapshot();
        snapshot.tenants[1].tuner.clusters.models[0].observations[0].performance = MARKER;
        let json = serde_json::to_string(&snapshot).unwrap();
        let marker = serde_json::to_string(&MARKER).unwrap();
        assert_eq!(json.matches(&marker).count(), 1);
        let poisoned = json.replace(&marker, "1e999");
        let Err(err) = FleetService::restore_json(&poisoned) else {
            panic!("a model that cannot refit must not restore");
        };
        match err {
            FleetError::TenantRestore { tenant, reason } => {
                assert_eq!(tenant, "tenant-1");
                assert!(reason.contains("model 0"), "{reason}");
            }
            other => panic!("expected TenantRestore, got {other}"),
        }
    }

    #[test]
    fn streamed_snapshot_text_equals_the_snapshot_structure_text() {
        use crate::tenant::DegradationTier;

        let mut svc = small_service(4, 2);
        svc.set_telemetry(TelemetryHandle::enabled());
        svc.run_rounds(2);
        svc.remove_tenant("tenant-1").unwrap();
        svc.session_mut("tenant-2")
            .unwrap()
            .set_degradation(DegradationTier::CachedPosterior);
        svc.run_rounds(2);
        assert!(
            svc.knowledge().n_pools() > 0,
            "the knowledge base must hold pools"
        );
        assert_eq!(svc.degraded_tenants(), 1);

        let taken = |svc: &FleetService| svc.metrics_snapshot().counter(CounterId::SnapshotsTaken);
        let streamed = svc.snapshot_json().unwrap();
        assert_eq!(taken(&svc), 1, "one serialization counts one snapshot");
        assert_eq!(streamed, serde_json::to_string(&svc.snapshot()).unwrap());
        assert_eq!(svc.canonical_snapshot_json(), streamed);
        assert_eq!(taken(&svc), 3);
    }

    #[test]
    fn hostile_snapshot_bytes_restore_as_parse_errors() {
        let mut svc = small_service(1, 1);
        svc.run_rounds(1);
        let json = svc.snapshot_json().unwrap();
        let body = json.strip_prefix('{').unwrap();
        let deep = "[".repeat(1 << 20);

        // Nesting a million levels deep, at the top and inside a member the reader skips,
        // must neither restore nor overflow the stack.
        for hostile in [deep.clone(), format!("{{\"retired\":{deep}{body}")] {
            let Err(err) = FleetService::restore_json(&hostile) else {
                panic!("deeply nested bytes must not restore");
            };
            assert!(matches!(err, FleetError::SnapshotParse(_)), "{err}");
        }
        // Balanced, the same nesting in an unknown member is skipped.
        let skipped = format!("{{\"retired\":{deep}{}],{body}", "]".repeat((1 << 20) - 1));
        let restored = FleetService::restore_json(&skipped).expect("unknown member skipped");
        assert_eq!(restored.canonical_snapshot_json(), json);

        // Integer fields take only exact integers in range: no truncation, no wrapping.
        let (head, rounds) = json.rsplit_once("\"rounds\":").unwrap();
        assert_eq!(rounds, "1}");
        for bad in ["-1", "2.5", "1e300"] {
            let Err(err) = FleetService::restore_json(&format!("{head}\"rounds\":{bad}}}")) else {
                panic!("`rounds: {bad}` must not restore");
            };
            assert!(matches!(err, FleetError::SnapshotParse(_)), "{bad}: {err}");
        }
    }

    #[test]
    fn quarantine_deprioritizes_without_starving_healthy_tenants() {
        use crate::tenant::SessionHealth;
        use simdb::FaultKind;

        let mut svc = small_service(3, 1);
        svc.set_telemetry(TelemetryHandle::enabled());
        // Tenant 0 faults on every attempt for a long stretch: it must walk through
        // backoff into quarantine while the other two keep full progress.
        svc.session_mut("tenant-0")
            .unwrap()
            .inject_faults(FaultKind::Timeout, 50);
        for round in 0..12 {
            let before: Vec<usize> = ["tenant-1", "tenant-2"]
                .iter()
                .map(|n| svc.session(n).unwrap().iteration())
                .collect();
            svc.run_round();
            for (i, name) in ["tenant-1", "tenant-2"].iter().enumerate() {
                assert!(
                    svc.session(name).unwrap().iteration() > before[i],
                    "{name} starved at round {round}"
                );
            }
        }
        let sick = svc.session("tenant-0").unwrap();
        assert!(
            matches!(sick.health(), SessionHealth::Quarantined { .. }),
            "50 consecutive faults must exhaust the retry budget: {:?}",
            sick.health()
        );
        let snap = svc.metrics_snapshot();
        assert_eq!(snap.counter(CounterId::Quarantines), 1);
        assert!(snap.counter(CounterId::MeasurementFaults) >= 3);
        assert!(
            snap.counter(CounterId::ProbeIterations) >= 1,
            "quarantine must keep probing, not forget the tenant"
        );
        assert!(snap.counter(CounterId::FaultBackoffs) >= 2);
    }

    #[test]
    fn snapshot_json_roundtrips_the_structure() {
        let mut svc = small_service(2, 1);
        svc.run_rounds(2);
        let json = svc.snapshot_json().unwrap();
        let restored = FleetService::restore_json(&json).unwrap();
        assert_eq!(restored.n_tenants(), 2);
        assert_eq!(restored.rounds(), 2);
        let a = svc.summaries();
        let b = restored.summaries();
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.iterations, y.iterations);
            assert_eq!(x.cumulative_regret.to_bits(), y.cumulative_regret.to_bits());
        }
    }
}
