//! One pass of a workload: set-up, the timed ticks, and the checks at the horizon.
//!
//! Everything goes through the fleet's public API. A *tick* is what a user of the
//! fleet waits for per round: the scenario events due plus `FleetService::run_round`,
//! or one `FleetServer::run_round`. Kill points and the benchmark's own extra calls are
//! timed separately and left out of the timed phase. Right after each tick, and after
//! each set-up build, the pass times the [`ReferenceKernel`], so that the measurement
//! can be scaled to the host's speed at that moment.

use crate::inputs::{generate, Inputs, Workload};
use crate::layers::{self, Trace};
use crate::sys::{
    cpu_seconds, median, peak_rss_mib, reset_peak_rss, scale_by_host, ReferenceKernel, REFERENCE_MS,
};
use fleet::scenario::{ScenarioEvent, ScenarioStep};
use fleet::serve::{FleetServer, Response, ServeOptions};
use fleet::service::{FleetOptions, FleetService};
use fleet::tenant::TenantSummary;
use fleet::FleetError;
use std::time::Instant;
use telemetry::TelemetryHandle;

/// The machine parallelism every fleet is pinned to, so that every run uses two tenant
/// workers from one process whatever the machine.
pub const PARALLELISM: usize = 2;

/// Set-up takes one to three milliseconds, and on a shared host one such sample varies by
/// 20% from one second to the next: each pass builds its starting state this many times
/// before its ticks and again after its checks.
const SETUP_REPEATS: usize = 9;

/// A tick is scaled by the median reference-kernel slowdown of the ticks this close to it
/// (11 samples, 0.15 to 0.5 s of the pass).
const HOST_WINDOW: usize = 5;

/// In traced passes every this many ticks is followed by one extra canonical snapshot
/// serialization: the cost of a durable commit at that point of the run.
const COMMIT_SAMPLE_EVERY: usize = 10;

/// Rounds `--check` replays at one and at two tenant workers.
const CHECK_ROUNDS: usize = 40;

/// Bytes the crash at each kill point tears off the WAL tail.
const TORN_BYTES: [usize; 4] = [0, 7, fleet::wal::FRAME_LEN + 5, 3];

/// What one pass measured and checked.
pub struct Pass {
    /// Seconds of each set-up build, divided by the host slowdown right after it.
    pub setup_s: Vec<f64>,
    /// CPU seconds of the ticks (kill points and extra calls excluded).
    pub timed_cpu_s: f64,
    /// Wall milliseconds of each tick, and of the reference kernel run right after it.
    pub ticks_ms: Vec<f64>,
    pub kernel_ms: Vec<f64>,
    /// Tenant iterations completed, departed tenants included.
    pub iterations: usize,
    pub unsafe_rate: f64,
    pub regret_pct: f64,
    /// Iteration attempts plus submitted requests.
    pub attempted: u64,
    /// Faulted iteration attempts plus unexpected request errors.
    pub failed_ops: u64,
    /// Failed correctness checks, one line each.
    pub failures: Vec<String>,
    pub recover_s: f64,
    pub snapshot_bytes: usize,
    pub digest: u64,
    /// Peak resident set during the pass, set-up and checks included.
    pub peak_rss_mib: f64,
    pub trace: Option<Trace>,
}

impl Pass {
    /// How much slower the host ran during the pass than the reference machine in a
    /// quiet period: the median reference-kernel time over [`REFERENCE_MS`].
    pub fn slowdown(&self) -> f64 {
        median(&self.kernel_ms) / REFERENCE_MS
    }

    /// Each tick divided by the host slowdown around it.
    pub fn scaled_ticks_ms(&self) -> Vec<f64> {
        scale_by_host(&self.ticks_ms, &self.kernel_ms, HOST_WINDOW)
    }
}

/// What the benchmark sees from outside while a pass runs; feeds the per-layer report.
#[derive(Default)]
pub struct Observed {
    /// Σ over rounds of the largest slot grant to one tenant, and Σ of all grants.
    pub max_tenant_slots: usize,
    pub total_slots: usize,
    /// Extra canonical serializations (ms) and the tick each one followed (ms).
    pub commit_ms: Vec<f64>,
    pub commit_tick_ms: Vec<f64>,
    pub restore_ms: Vec<f64>,
    pub replay_rounds: usize,
    pub queue_depth_max: usize,
    /// Rounds each dispatched request waited in the queue.
    pub sojourn_rounds: Vec<f64>,
    /// Requests shed, rejected by a full queue, or expired by their deadline.
    pub refused: u64,
}

impl Observed {
    fn note_slots(&mut self, before: &[usize], after: &[usize]) {
        let slots: Vec<usize> = after
            .iter()
            .enumerate()
            .map(|(i, a)| a - before.get(i).copied().unwrap_or(0))
            .collect();
        self.max_tenant_slots += slots.iter().copied().max().unwrap_or(0);
        self.total_slots += slots.iter().sum::<usize>();
    }

    /// Times one extra canonical serialization after a traced tick.
    fn sample_commit(&mut self, tick_ms: f64, serialize: impl FnOnce() -> String) {
        let start = Instant::now();
        let json = serialize();
        self.commit_ms.push(start.elapsed().as_secs_f64() * 1e3);
        self.commit_tick_ms.push(tick_ms);
        std::hint::black_box(json.len());
    }
}

/// Runs one pass of `workload`.
pub fn run(workload: Workload, seed: u64, rounds: usize, traced: bool) -> Pass {
    reset_peak_rss();
    match workload {
        Workload::SteadyMixed | Workload::DriftChurn => fleet_pass(workload, seed, rounds, traced),
        Workload::ServeDurable => serve_pass(seed, rounds, traced),
    }
}

/// A default-options fleet whose tenant workers resolve to `parallelism`.
fn new_service(traced: bool, parallelism: usize) -> FleetService {
    let mut svc = FleetService::new(FleetOptions::default());
    svc.set_parallelism(parallelism);
    if traced {
        svc.set_telemetry(TelemetryHandle::enabled());
    }
    svc
}

/// Re-pins the worker budget of a restored or recovered fleet.
fn repin(svc: &mut FleetService) {
    svc.set_parallelism(PARALLELISM);
    svc.regrant_workers();
}

/// Input generation, service construction and the initial admissions; admission
/// errors come back as failures.
fn set_up(
    workload: Workload,
    seed: u64,
    rounds: usize,
    traced: bool,
) -> (Inputs, FleetService, Vec<String>) {
    let inputs = generate(workload, seed, rounds);
    let mut svc = new_service(traced, PARALLELISM);
    let mut failures = Vec::new();
    for spec in &inputs.tenants {
        if let Err(e) = svc.admit(spec.clone()) {
            failures.push(format!("set-up admission of `{}`: {e}", spec.name));
        }
    }
    (inputs, svc, failures)
}

/// Runs `build` [`SETUP_REPEATS`] times, each followed by one run of `kernel`, and
/// returns the last result with each build's seconds divided by the host slowdown the
/// kernel run after it measured.
fn timed_set_up<T>(kernel: &ReferenceKernel, build: &impl Fn() -> T) -> (T, Vec<f64>) {
    let mut samples = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let built = build();
        let seconds = start.elapsed().as_secs_f64();
        samples.push(seconds * REFERENCE_MS / kernel.time_ms());
        last = Some(built);
    }
    (last.expect("SETUP_REPEATS > 0"), samples)
}

/// Accumulates the CPU seconds of sections left out of the timed phase.
#[derive(Default)]
struct Excluded(f64);

impl Excluded {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let cpu = cpu_seconds();
        let out = f();
        self.0 += cpu_seconds() - cpu;
        out
    }
}

/// `(iterations, unsafe rate, regret %, faulted attempts)` over every tenant the pass
/// ever ran.
fn outcome(summaries: &[TenantSummary]) -> (usize, f64, f64, u64) {
    let iterations: usize = summaries.iter().map(|s| s.iterations).sum();
    let unsafe_count: usize = summaries.iter().map(|s| s.unsafe_count).sum();
    let regrets: Vec<f64> = summaries
        .iter()
        .filter(|s| s.total_score != 0.0)
        .map(|s| 100.0 * s.cumulative_regret / s.total_score.abs())
        .collect();
    let faulted: usize = summaries.iter().map(|s| s.faulted_count).sum();
    (
        iterations,
        unsafe_count as f64 / iterations.max(1) as f64,
        regrets.iter().sum::<f64>() / regrets.len().max(1) as f64,
        faulted as u64,
    )
}

fn fleet_pass(workload: Workload, seed: u64, rounds: usize, traced: bool) -> Pass {
    let kernel = ReferenceKernel::new();
    let build = || set_up(workload, seed, rounds, traced);
    let ((inputs, mut svc, mut failures), mut setup_s) = timed_set_up(&kernel, &build);

    let mut departed: Vec<TenantSummary> = Vec::new();
    let mut ticks_ms = Vec::with_capacity(rounds);
    let mut observed = Observed::default();
    let mut attempted = 0u64;
    let mut excluded = Excluded::default();
    let mut kernel_ms = Vec::with_capacity(rounds);
    let cpu_start = cpu_seconds();
    for _ in 0..rounds {
        let round = svc.rounds();
        let due: Vec<&ScenarioStep> = inputs.scenario.due_at(round).collect();
        for step in &due {
            if let ScenarioEvent::Remove { tenant } = &step.event {
                departed.extend(svc.session(tenant).map(|s| s.summary()));
            }
        }
        let start = Instant::now();
        for step in &due {
            if let Err(e) = step.event.apply(&mut svc) {
                failures.push(format!("round {round}: {e}"));
            }
        }
        let events = start.elapsed();
        let granted = svc.granted_slots().to_vec();
        let start = Instant::now();
        attempted += svc.run_round() as u64;
        let tick_ms = (events + start.elapsed()).as_secs_f64() * 1e3;
        ticks_ms.push(tick_ms);
        kernel_ms.push(excluded.time(|| kernel.time_ms()));
        observed.note_slots(&granted, svc.granted_slots());
        if traced && round % COMMIT_SAMPLE_EVERY == 0 {
            excluded.time(|| observed.sample_commit(tick_ms, || svc.canonical_snapshot_json()));
        }
    }
    let timed_cpu_s = cpu_seconds() - cpu_start - excluded.0;

    departed.extend(svc.summaries());
    let (iterations, unsafe_rate, regret_pct, faulted) = outcome(&departed);
    let json = svc.canonical_snapshot_json();

    // The horizon snapshot survives restore and re-serializes byte-identical.
    if let Some(restored) = restore_fleet(&json, &mut observed, &mut failures) {
        if restored.canonical_snapshot_json() != json {
            failures.push("horizon snapshot changed across restore".to_string());
        }
    }
    let mut trace = traced.then(|| {
        let facts = layers::Facts {
            snapshot_bytes: json.len(),
            attempted,
            failed: faulted + failures.len() as u64,
        };
        layers::read(&svc, &observed, &facts)
    });
    // A restored fleet continues bit-identically; when traced, the live fleet records
    // telemetry and the restored one does not.
    if let Some(mut restored) = restore_fleet(&json, &mut observed, &mut failures) {
        svc.run_round();
        restored.run_round();
        if restored.canonical_snapshot_json() != svc.canonical_snapshot_json() {
            failures.push("restored fleet diverged in the round after the horizon".to_string());
        }
    }
    if let Some(mut restored) = restore_fleet(&json, &mut observed, &mut failures) {
        if let Some(trace) = &mut trace {
            if let Err(e) = layers::replay(trace, &mut restored, seed) {
                failures.push(format!("replay: {e}"));
            }
        }
    }
    // Three restores of the same bytes; their median is the pass's recovery time.
    let recover_s = median(&observed.restore_ms) / 1e3;
    if let Some(trace) = &mut trace {
        trace.insert("durable.restore_ms", recover_s * 1e3);
    }
    setup_s.extend(timed_set_up(&kernel, &build).1);

    Pass {
        setup_s,
        timed_cpu_s,
        ticks_ms,
        kernel_ms,
        iterations,
        unsafe_rate,
        regret_pct,
        attempted,
        failed_ops: faulted,
        failures,
        recover_s,
        snapshot_bytes: json.len(),
        digest: fleet::wal::fnv1a64(json.as_bytes()),
        peak_rss_mib: peak_rss_mib(),
        trace,
    }
}

/// Restores a horizon snapshot with the pinned worker budget, timing the restore.
fn restore_fleet(
    json: &str,
    observed: &mut Observed,
    failures: &mut Vec<String>,
) -> Option<FleetService> {
    let start = Instant::now();
    match FleetService::restore_json(json) {
        Ok(mut restored) => {
            repin(&mut restored);
            observed
                .restore_ms
                .push(start.elapsed().as_secs_f64() * 1e3);
            Some(restored)
        }
        Err(e) => {
            failures.push(format!("horizon snapshot does not restore: {e}"));
            None
        }
    }
}

fn serve_pass(seed: u64, rounds: usize, traced: bool) -> Pass {
    let kernel = ReferenceKernel::new();
    let build = || {
        let (inputs, svc, failures) = set_up(Workload::ServeDurable, seed, rounds, traced);
        (
            inputs,
            FleetServer::new(svc, ServeOptions::default()),
            failures,
        )
    };
    let ((inputs, mut server, mut failures), mut setup_s) = timed_set_up(&kernel, &build);

    let mut ticks_ms = Vec::with_capacity(rounds);
    let mut observed = Observed::default();
    let mut attempted = 0u64;
    let mut unexpected = 0u64;
    let mut recover_s = 0.0;
    let mut excluded = Excluded::default();
    let mut kernel_ms = Vec::with_capacity(rounds);
    // Round at which each request id was enqueued (ids start at 1).
    let mut enqueued_at: Vec<usize> = vec![0];
    let cpu_start = cpu_seconds();
    for _ in 0..rounds {
        let round = server.service().rounds();
        if let Some(kill) = inputs.kill_rounds.iter().position(|&k| k == round) {
            server = excluded.time(|| {
                crash_and_recover(
                    server,
                    &inputs,
                    TORN_BYTES[kill % TORN_BYTES.len()],
                    traced,
                    &mut observed,
                    &mut recover_s,
                    &mut failures,
                )
            });
        }
        attempted += inputs.traffic.due_at(round).count() as u64;
        let granted = server.service().granted_slots().to_vec();
        let start = Instant::now();
        let report = server.run_round(&inputs.traffic);
        let tick_ms = start.elapsed().as_secs_f64() * 1e3;
        ticks_ms.push(tick_ms);
        kernel_ms.push(excluded.time(|| kernel.time_ms()));
        attempted += report.iterations as u64;
        observed.note_slots(&granted, server.service().granted_slots());
        observed.queue_depth_max = observed.queue_depth_max.max(report.queue_depth);
        enqueued_at.resize(server.serve_state().next_request_id as usize, round);
        for (id, response) in &report.responses {
            match response {
                Response::Suggestion { .. } | Response::Telemetry { .. } => observed
                    .sojourn_rounds
                    .push((round - enqueued_at[*id as usize]) as f64),
                // Designed refusals of an overloaded server, counted from its state below.
                Response::DeadlineMissed { .. }
                | Response::Denied {
                    error: FleetError::QueueFull { .. },
                } => {}
                other => {
                    unexpected += 1;
                    failures.push(format!("round {round}: unexpected response {other:?}"));
                }
            }
        }
        if traced && round % COMMIT_SAMPLE_EVERY == 0 {
            excluded.time(|| observed.sample_commit(tick_ms, || server.canonical_server_json()));
        }
    }
    let timed_cpu_s = cpu_seconds() - cpu_start - excluded.0;
    let state = server.serve_state();
    observed.refused = state.shed_total() + state.queue_rejections + state.deadline_misses;

    let (iterations, unsafe_rate, regret_pct, faulted) = outcome(&server.service().summaries());
    let json = server.canonical_server_json();
    let mut trace = traced.then(|| {
        let facts = layers::Facts {
            snapshot_bytes: json.len(),
            attempted,
            failed: faulted + unexpected + failures.len() as u64,
        };
        let mut trace = layers::read(server.service(), &observed, &facts);
        trace.insert("durable.restore_ms", median(&observed.restore_ms));
        trace
    });
    match FleetServer::restore_json(&json, TelemetryHandle::disabled()) {
        Ok(mut restored) => {
            repin(restored.service_mut());
            if restored.canonical_server_json() != json {
                failures.push("horizon server snapshot changed across restore".to_string());
            }
            if let Some(trace) = &mut trace {
                if let Err(e) = layers::replay(trace, restored.service_mut(), seed) {
                    failures.push(format!("replay: {e}"));
                }
            }
        }
        Err(e) => failures.push(format!("horizon server snapshot does not restore: {e}")),
    }
    setup_s.extend(timed_set_up(&kernel, &build).1);

    Pass {
        setup_s,
        timed_cpu_s,
        ticks_ms,
        kernel_ms,
        iterations,
        unsafe_rate,
        regret_pct,
        attempted,
        failed_ops: faulted + unexpected,
        failures,
        recover_s,
        snapshot_bytes: json.len(),
        digest: fleet::wal::fnv1a64(json.as_bytes()),
        peak_rss_mib: peak_rss_mib(),
        trace,
    }
}

/// Crashes `server` with a torn WAL tail and recovers it. Recovery itself re-executes
/// the committed rounds and verifies each against its WAL digest; the recovered server
/// is then caught up to the crashed one's round and must match it byte for byte. The
/// run goes on with the recovered server; on any failure it goes on with the original.
fn crash_and_recover(
    server: FleetServer,
    inputs: &Inputs,
    torn: usize,
    traced: bool,
    observed: &mut Observed,
    recover_s: &mut f64,
    failures: &mut Vec<String>,
) -> FleetServer {
    let round = server.service().rounds();
    let storage = server.crash(torn);
    // Recovery replays with telemetry off, so the traced counters count the
    // uninterrupted run's work only.
    let start = Instant::now();
    let recovered = FleetServer::recover(&storage, &inputs.traffic, TelemetryHandle::disabled());
    *recover_s += start.elapsed().as_secs_f64();
    let (mut recovered, report) = match recovered {
        Ok(r) => r,
        Err(e) => {
            failures.push(format!("recovery at round {round}: {e}"));
            return server;
        }
    };
    observed.replay_rounds += report.replayed_rounds;
    repin(recovered.service_mut());
    while recovered.service().rounds() < round {
        recovered.run_round(&inputs.traffic);
    }
    if recovered.canonical_server_json() != server.canonical_server_json() {
        failures.push(format!(
            "recovery at round {round} (torn {torn} bytes) differs from the uninterrupted server"
        ));
        return server;
    }
    if traced {
        let core = server.service().telemetry().clone();
        for session in server.service().sessions() {
            session.telemetry().drain_into(&core);
        }
        recovered.service_mut().set_telemetry(core);
        let start = Instant::now();
        let restored =
            FleetServer::restore_json(&storage.snapshot_json, TelemetryHandle::disabled());
        observed
            .restore_ms
            .push(start.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = restored {
            failures.push(format!(
                "crash snapshot at round {round} does not restore: {e}"
            ));
        }
    }
    recovered
}

/// `--check`: the first rounds of `steady_mixed` at one and at two tenant workers must
/// give identical snapshot bytes.
pub fn worker_check(seed: u64) -> Result<(), String> {
    let snapshot = |workers: usize| -> Result<String, String> {
        let inputs = generate(Workload::SteadyMixed, seed, CHECK_ROUNDS);
        let mut svc = new_service(false, workers);
        for spec in inputs.tenants {
            svc.admit(spec).map_err(|e| e.to_string())?;
        }
        for _ in 0..CHECK_ROUNDS {
            svc.run_round();
        }
        Ok(svc.canonical_snapshot_json())
    };
    if snapshot(1)? == snapshot(2)? {
        Ok(())
    } else {
        Err(format!(
            "steady_mixed snapshots after {CHECK_ROUNDS} rounds differ between 1 and 2 workers"
        ))
    }
}
