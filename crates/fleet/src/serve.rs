//! The overload-robust serving front end: admission control, backpressure, deadlines
//! and graceful degradation for a fleet.
//!
//! [`FleetServer`] wraps a [`FleetService`] behind a bounded in-process request queue
//! and a long-running round loop, adding four robustness layers:
//!
//! * **Admission control** — new tenants are accepted only against the configured
//!   live-tenant ceiling and the fleet's tenant-worker budget
//!   ([`FleetService::tenant_worker_budget`] × [`ServeOptions::max_tenants_per_worker`]).
//!   A tenant the fleet cannot take is turned away with a typed
//!   [`FleetError::AdmissionDenied`] naming the tenant and the exhausted resource —
//!   at the door when possible, at dispatch otherwise.
//! * **Backpressure / load shedding** — the request queue is bounded at
//!   [`ServeOptions::queue_capacity`]. On saturation, queued work is shed in a fixed
//!   priority order: telemetry reads first (they are reconstructible), then suggest
//!   requests for quarantined tenants (their suggestions are not trusted to run
//!   anyway). Admission and removal requests are **never** shed — a tenant the fleet
//!   accepted is never silently dropped. If shedding frees no room the submission is
//!   rejected with a typed [`FleetError::QueueFull`]. Shed counts are serialized in
//!   [`ServeState`] and observable via telemetry.
//! * **Deadlines** — each queued request carries a deadline counted in scheduler
//!   rounds ([`ServeOptions::deadline_rounds`]; never wall clocks). Expiry is checked
//!   *before* dispatch: an expired request yields [`Response::DeadlineMissed`] without
//!   executing, so a deadline miss can never leave a session half-stepped.
//! * **Graceful degradation** — pressure is accounted per round (a round is
//!   *saturated* when it shed, rejected, or ended with a full queue). After
//!   [`ServeOptions::pressure_window`] consecutive saturated rounds every tenant is
//!   moved one rung down the [`DegradationTier`] ladder (skip hyperopt refits →
//!   suggest from the cached posterior → pin to the last known-safe config); after
//!   [`ServeOptions::recovery_window`] consecutive clear rounds every tenant moves one
//!   rung back up. Tier state lives in each tenant's serialized session state and the
//!   pressure counters in [`ServeState`], so a restored server resumes in exactly the
//!   degradation state it crashed in.
//!
//! # Determinism contract
//!
//! Everything the server does is a pure function of its serialized state (options +
//! fleet snapshot + serve state, written by [`FleetServer::canonical_server_json`]) and
//! the driving [`TrafficScript`]: request ids, shed decisions, deadline expiries and
//! tier transitions are all counted in rounds and queue positions, never wall time. The
//! server therefore shares the fleet's crash-safety journal (see [`crate::recovery`]):
//! a genesis snapshot plus a per-round WAL of server-snapshot digests, truncated every
//! [`ServeOptions::snapshot_interval`] rounds, recovered by deterministic re-execution
//! ([`FleetServer::recover`]) that verifies every replayed round's digest.
//! The recovery suite kills a server under sheds, rejections, an admission and
//! degradation after every round, and asserts the recovered server's snapshot bytes are
//! identical to an uninterrupted run's.
//!
//! [`DegradationTier`]: crate::tenant::DegradationTier

use crate::error::FleetError;
use crate::recovery::{self, DurableStorage, Journal, RecoveryReport};
use crate::service::{ExportedTenants, FleetService, FleetText};
use crate::tenant::{SessionHealth, TenantSpec};
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use telemetry::{CounterId, EventKind, GaugeId, TelemetryHandle};

/// Options of the serving front end. Serialized inside every server snapshot, so a
/// recovered server enforces exactly the limits the crashed one did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ServeOptions {
    /// Live-tenant ceiling: admissions are denied while the fleet already holds this
    /// many tenants.
    pub max_tenants: usize,
    /// The worker-budget term of admission control: at most
    /// `tenant_worker_budget() × max_tenants_per_worker` tenants are admitted, so an
    /// operator shrinking the worker budget also shrinks the fleet the front end will
    /// accept.
    pub max_tenants_per_worker: usize,
    /// Bounded request-queue capacity; submissions beyond it shed or reject.
    pub queue_capacity: usize,
    /// Requests dispatched from the queue per scheduler round.
    pub dispatch_per_round: usize,
    /// Default per-request deadline, counted in scheduler rounds from enqueue.
    pub deadline_rounds: usize,
    /// Consecutive saturated rounds before every tenant is downgraded one tier.
    pub pressure_window: usize,
    /// Consecutive clear rounds before every tenant is upgraded one tier.
    pub recovery_window: usize,
    /// A full server snapshot is taken (and the WAL truncated) every this many
    /// committed rounds.
    pub snapshot_interval: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            max_tenants: 8,
            max_tenants_per_worker: 8,
            queue_capacity: 16,
            dispatch_per_round: 4,
            deadline_rounds: 8,
            pressure_window: 3,
            recovery_window: 3,
            snapshot_interval: 4,
        }
    }
}

/// One request against the serving front end.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Request {
    /// Admit a new tenant (subject to admission control).
    Admit {
        /// The joining tenant's spec.
        spec: TenantSpec,
    },
    /// Remove the named tenant (its pending knowledge drains to the knowledge base).
    Remove {
        /// Name of the leaving tenant.
        tenant: String,
    },
    /// Read the merged telemetry export. Sheddable under pressure (first priority):
    /// the export is reconstructible from the still-running fleet at any time.
    TelemetryRead,
    /// Run one extra tuning iteration for the named tenant. Sheddable under pressure
    /// (second priority) when the tenant is quarantined — its suggestions are not
    /// trusted to run while on probation anyway.
    Suggest {
        /// Name of the tenant asking for an iteration.
        tenant: String,
    },
}

impl Request {
    /// Short label for errors, events and reports.
    pub fn label(&self) -> String {
        match self {
            Request::Admit { spec } => format!("admit `{}`", spec.name),
            Request::Remove { tenant } => format!("remove `{tenant}`"),
            Request::TelemetryRead => "telemetry read".to_string(),
            Request::Suggest { tenant } => format!("suggest `{tenant}`"),
        }
    }
}

/// A request waiting in the bounded queue.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct QueuedRequest {
    /// Server-assigned request id (monotone, starts at 1).
    pub id: u64,
    /// Fleet round at which the request was enqueued.
    pub enqueued_round: usize,
    /// Fleet round at which the request expires if not yet dispatched.
    pub deadline_round: usize,
    /// The request itself.
    pub request: Request,
}

/// What the server answered for one dispatched (or expired) request.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The tenant was admitted at this index.
    Admitted {
        /// Name of the admitted tenant.
        tenant: String,
        /// Index the fleet assigned.
        index: usize,
    },
    /// The tenant was removed.
    Removed {
        /// Name of the removed tenant.
        tenant: String,
    },
    /// The merged telemetry export.
    Telemetry {
        /// The `{"registry":…,"journal":…}` document (`{}` when telemetry is off).
        json: String,
    },
    /// One extra iteration ran for the tenant.
    Suggestion {
        /// Name of the tenant that stepped.
        tenant: String,
        /// Regret of the extra iteration.
        regret: f64,
    },
    /// The request was denied with a typed error.
    Denied {
        /// Why.
        error: FleetError,
    },
    /// The request's round deadline expired before dispatch; nothing was executed.
    DeadlineMissed {
        /// Round the request was enqueued.
        enqueued_round: usize,
        /// Round the deadline expired.
        deadline_round: usize,
    },
}

/// The serving front end's serializable state: the queue and the overload accounting.
/// Every counter in here participates in the WAL digest, so shedding, rejections and
/// pressure windows replay bit-identically.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct ServeState {
    /// Requests waiting for dispatch, oldest first.
    pub queue: Vec<QueuedRequest>,
    /// Next request id to assign (ids are monotone and never reused).
    pub next_request_id: u64,
    /// Consecutive saturated rounds accumulated toward the next downgrade.
    pub saturated_rounds: usize,
    /// Consecutive clear rounds accumulated toward the next upgrade.
    pub clear_rounds: usize,
    /// Telemetry reads shed under backpressure.
    pub shed_reads: u64,
    /// Quarantined-tenant suggests shed under backpressure.
    pub shed_suggests: u64,
    /// Requests expired by their round deadline before dispatch.
    pub deadline_misses: u64,
    /// Tenants turned away by admission control (ceiling, budget, or a spec that could
    /// not seed a healthy session).
    pub admission_rejections: u64,
    /// Submissions rejected because the queue was full and nothing was sheddable.
    pub queue_rejections: u64,
}

impl ServeState {
    fn new() -> Self {
        ServeState {
            next_request_id: 1,
            ..Default::default()
        }
    }

    /// Total requests shed so far (both priorities).
    pub fn shed_total(&self) -> u64 {
        self.shed_reads + self.shed_suggests
    }
}

/// The members of a server snapshot, borrowed, in the order its text writes them: the
/// serving options, the wrapped fleet's snapshot and the serving state.
struct ServerText<'a> {
    options: &'a ServeOptions,
    fleet: FleetText<'a, ExportedTenants<'a>>,
    serve: &'a ServeState,
}

impl Serialize for ServerText<'_> {
    fn serialize(&self, out: &mut Serializer) {
        out.begin_object();
        out.key("options");
        self.options.serialize(out);
        out.key("fleet");
        self.fleet.serialize(out);
        out.key("serve");
        self.serve.serialize(out);
        out.end_object();
    }
}

/// Reads a server snapshot object, with the fleet restored as it is read (see
/// [`FleetService::read`]). Members are matched as there.
fn read_server(
    de: &mut Deserializer<'_>,
) -> Result<(ServeOptions, Result<FleetService, FleetError>, ServeState), serde::Error> {
    let (mut options, mut fleet, mut serve) = (None, None, None);
    de.begin_object()?;
    while let Some(key) = de.next_key()? {
        match &*key {
            "options" if options.is_none() => options = Some(ServeOptions::deserialize(de)?),
            "fleet" if fleet.is_none() => fleet = Some(FleetService::read(de)?),
            "serve" if serve.is_none() => serve = Some(ServeState::deserialize(de)?),
            _ => de.skip_value()?,
        }
    }
    let missing =
        |field: &str| de.error(format_args!("missing field `{field}` in server snapshot"));
    Ok((
        options.ok_or_else(|| missing("options"))?,
        fleet.ok_or_else(|| missing("fleet"))?,
        serve.ok_or_else(|| missing("serve"))?,
    ))
}

/// One scripted request submission.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TrafficStep {
    /// Fleet round (value of `FleetService::rounds()`) at whose start the request is
    /// submitted.
    pub at_round: usize,
    /// The request.
    pub request: Request,
}

/// A declarative, replayable request timeline — the serving analogue of
/// [`crate::scenario::Scenario`]. Recovery re-fires the same script against the
/// restored snapshot, which is what makes the server's WAL-digest replay meaningful.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TrafficScript {
    /// Name for reports.
    pub name: String,
    /// The submissions, fired in declaration order within a round.
    pub steps: Vec<TrafficStep>,
}

impl TrafficScript {
    /// An empty script.
    pub fn new(name: impl Into<String>) -> Self {
        TrafficScript {
            name: name.into(),
            steps: Vec::new(),
        }
    }

    /// Appends a submission at `round` (builder style).
    pub fn at(mut self, round: usize, request: Request) -> Self {
        self.steps.push(TrafficStep {
            at_round: round,
            request,
        });
        self
    }

    /// The submissions due at `round`, in declaration order.
    pub fn due_at(&self, round: usize) -> impl Iterator<Item = &TrafficStep> {
        self.steps.iter().filter(move |s| s.at_round == round)
    }
}

/// What one [`FleetServer::run_round`] did.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRoundReport {
    /// Tuning iterations the scheduler round executed.
    pub iterations: usize,
    /// Queue depth at the end of the round.
    pub queue_depth: usize,
    /// Whether this round counted as saturated for the pressure window.
    pub saturated: bool,
    /// Responses produced this round (request id 0 marks a submission rejected at the
    /// door, before an id was assigned).
    pub responses: Vec<(u64, Response)>,
}

/// The long-running serving loop around a [`FleetService`]: a bounded request queue
/// with admission control, shedding, round deadlines, degradation tiers, and crash
/// safety through the same journal as [`crate::recovery::DurableFleet`] (genesis
/// snapshot + per-round WAL + periodic truncating snapshots).
pub struct FleetServer {
    svc: FleetService,
    options: ServeOptions,
    serve: ServeState,
    journal: Journal<Box<FleetServer>>,
}

impl std::fmt::Debug for FleetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetServer")
            .field("rounds", &self.svc.rounds())
            .field("tenants", &self.svc.n_tenants())
            .field("queue_depth", &self.serve.queue.len())
            .field("journal", &self.journal)
            .finish()
    }
}

impl FleetServer {
    /// Wraps a service behind the front end, taking the genesis snapshot (so
    /// [`FleetServer::crash`] is total — no window in which a crash loses everything).
    pub fn new(svc: FleetService, options: ServeOptions) -> Self {
        FleetServer::unanchored(svc, options, ServeState::new()).anchored()
    }

    /// Assembles a server whose journal is not anchored yet.
    fn unanchored(svc: FleetService, options: ServeOptions, serve: ServeState) -> Self {
        FleetServer {
            svc,
            options,
            serve,
            journal: Journal::default(),
        }
    }

    /// The server with its journal anchored at its current state.
    fn anchored(mut self) -> Self {
        self.journal = Journal::anchor(self.unfitted_copy(), self.svc.rounds());
        self
    }

    /// A copy that exists only to be written, the journal's anchor: this server's options
    /// and serving state around a copy of its fleet (see [`FleetService::unfitted_copy`]),
    /// with an empty journal. Its fleet's telemetry is off, so writing it counts no
    /// snapshot: the commit that takes it has already counted the text it wrote.
    fn unfitted_copy(&self) -> Box<FleetServer> {
        Box::new(FleetServer::unanchored(
            self.svc.unfitted_copy(),
            self.options,
            self.serve.clone(),
        ))
    }

    /// The wrapped service.
    pub fn service(&self) -> &FleetService {
        &self.svc
    }

    /// Mutable access to the wrapped service (telemetry installation etc.).
    pub fn service_mut(&mut self) -> &mut FleetService {
        &mut self.svc
    }

    /// The current serving state (queue + overload accounting).
    pub fn serve_state(&self) -> &ServeState {
        &self.serve
    }

    /// Canonical JSON of the complete server state — options, the wrapped fleet's
    /// snapshot and the serving state — the bytes the WAL digests and crash-recovery
    /// bit-identity compares. The text is streamed from the live state, one tenant's
    /// export at a time, without building a snapshot structure first. Serialization of
    /// well-formed in-memory state cannot fail.
    pub fn canonical_server_json(&self) -> String {
        let text = ServerText {
            options: &self.options,
            fleet: self.svc.snapshot_text(),
            serve: &self.serve,
        };
        serde_json::to_string(&text).expect("an in-memory server snapshot always serializes")
    }

    /// Why admission control would turn away a tenant named `name` right now, if it
    /// would: the live-tenant ceiling, or the tenant-worker budget. Queued-but-not-yet
    /// dispatched admissions count as reserved seats, so the door never over-commits
    /// the fleet.
    fn admission_check(&self, name: &str) -> Result<(), FleetError> {
        let reserved = self
            .serve
            .queue
            .iter()
            .filter(|q| matches!(q.request, Request::Admit { .. }))
            .count();
        let live = self.svc.n_tenants() + reserved;
        if live >= self.options.max_tenants {
            return Err(FleetError::AdmissionDenied {
                tenant: name.to_string(),
                reason: format!(
                    "live-tenant ceiling reached ({live}/{} tenants)",
                    self.options.max_tenants
                ),
            });
        }
        let budget = self
            .svc
            .tenant_worker_budget()
            .saturating_mul(self.options.max_tenants_per_worker);
        if live >= budget {
            return Err(FleetError::AdmissionDenied {
                tenant: name.to_string(),
                reason: format!(
                    "worker budget exhausted ({live} live tenants ≥ {} workers × {} \
                     tenants/worker)",
                    self.svc.tenant_worker_budget(),
                    self.options.max_tenants_per_worker
                ),
            });
        }
        Ok(())
    }

    fn note_admission_rejection(&mut self, err: &FleetError) {
        self.serve.admission_rejections += 1;
        self.svc.telemetry().incr(CounterId::AdmissionRejections);
        if self.svc.telemetry().is_enabled() {
            if let FleetError::AdmissionDenied { tenant, reason } = err {
                self.svc
                    .telemetry()
                    .event(EventKind::AdmissionDenied, tenant, reason);
            }
        }
    }

    /// Sheds one queued request to make room, in fixed priority order: the oldest
    /// telemetry read first, then the oldest suggest for a currently quarantined
    /// tenant. Admissions and removals are never shed. Returns the typed
    /// [`FleetError::QueueFull`] when nothing is sheddable.
    fn shed_for(&mut self, incoming: &Request) -> Result<(), FleetError> {
        if let Some(pos) = self
            .serve
            .queue
            .iter()
            .position(|q| matches!(q.request, Request::TelemetryRead))
        {
            let shed = self.serve.queue.remove(pos);
            self.serve.shed_reads += 1;
            self.note_shed(&shed);
            return Ok(());
        }
        let quarantined = |server: &Self, tenant: &str| {
            server
                .svc
                .session(tenant)
                .is_some_and(|s| matches!(s.health(), SessionHealth::Quarantined { .. }))
        };
        if let Some(pos) = self.serve.queue.iter().position(
            |q| matches!(&q.request, Request::Suggest { tenant } if quarantined(self, tenant)),
        ) {
            let shed = self.serve.queue.remove(pos);
            self.serve.shed_suggests += 1;
            self.note_shed(&shed);
            return Ok(());
        }
        self.serve.queue_rejections += 1;
        Err(FleetError::QueueFull {
            capacity: self.options.queue_capacity,
            request: incoming.label(),
        })
    }

    fn note_shed(&mut self, shed: &QueuedRequest) {
        self.svc.telemetry().incr(CounterId::RequestsShed);
        if self.svc.telemetry().is_enabled() {
            self.svc.telemetry().event(
                EventKind::RequestShed,
                &shed.request.label(),
                &format!("id={} enqueued_round={}", shed.id, shed.enqueued_round),
            );
        }
    }

    /// Submits a request to the bounded queue and returns its id.
    ///
    /// Admissions are pre-checked at the door (a fleet that cannot take the tenant
    /// rejects immediately with [`FleetError::AdmissionDenied`] rather than queueing
    /// it); a full queue sheds lower-priority work or rejects with
    /// [`FleetError::QueueFull`].
    pub fn submit(&mut self, request: Request) -> Result<u64, FleetError> {
        if let Request::Admit { spec } = &request {
            if let Err(err) = self.admission_check(&spec.name) {
                self.note_admission_rejection(&err);
                return Err(err);
            }
        }
        if self.serve.queue.len() >= self.options.queue_capacity.max(1) {
            self.shed_for(&request)?;
        }
        let id = self.serve.next_request_id;
        self.serve.next_request_id += 1;
        let round = self.svc.rounds();
        self.serve.queue.push(QueuedRequest {
            id,
            enqueued_round: round,
            deadline_round: round + self.options.deadline_rounds.max(1),
            request,
        });
        self.svc.telemetry().incr(CounterId::RequestsEnqueued);
        Ok(id)
    }

    /// Executes one dispatched request against the fleet. Runs entirely or not at all:
    /// every failure is a typed [`Response::Denied`], never a partial step.
    fn execute(&mut self, request: Request) -> Response {
        match request {
            Request::Admit { spec } => {
                // Re-check at dispatch: the fleet may have filled up while the request
                // waited in the queue.
                if let Err(err) = self.admission_check(&spec.name) {
                    self.note_admission_rejection(&err);
                    return Response::Denied { error: err };
                }
                let tenant = spec.name.clone();
                match self.svc.admit(spec) {
                    Ok(index) => Response::Admitted { tenant, index },
                    Err(error) => {
                        self.serve.admission_rejections += 1;
                        Response::Denied { error }
                    }
                }
            }
            Request::Remove { tenant } => match self.svc.remove_tenant(&tenant) {
                Ok(_) => Response::Removed { tenant },
                Err(error) => Response::Denied { error },
            },
            Request::TelemetryRead => Response::Telemetry {
                json: self.svc.telemetry_json(),
            },
            Request::Suggest { tenant } => match self.svc.session_mut(&tenant) {
                Some(session) => {
                    let regret = session.step();
                    Response::Suggestion { tenant, regret }
                }
                None => Response::Denied {
                    error: FleetError::UnknownTenant(tenant),
                },
            },
        }
    }

    /// Moves every tenant one rung down the degradation ladder.
    fn downgrade_all(&mut self) {
        for session in self.svc.sessions_mut() {
            let next = session.degradation().downgraded();
            session.set_degradation(next);
        }
    }

    /// Moves every tenant one rung back up the degradation ladder.
    fn upgrade_all(&mut self) {
        for session in self.svc.sessions_mut() {
            let next = session.degradation().upgraded();
            session.set_degradation(next);
        }
    }

    /// Runs one serving round: fires the script's due submissions, expires deadlines,
    /// dispatches up to [`ServeOptions::dispatch_per_round`] requests, executes one
    /// scheduler round, applies the pressure/recovery tier transitions, and commits
    /// the round to the WAL (snapshotting + truncating every
    /// [`ServeOptions::snapshot_interval`] rounds).
    pub fn run_round(&mut self, script: &TrafficScript) -> ServeRoundReport {
        let report = self.serve_round(script);
        let json = self.canonical_server_json();
        // Out of the server for the commit, so that the anchor can read the whole server.
        let mut journal = std::mem::take(&mut self.journal);
        journal.commit(
            &json,
            self.svc.rounds(),
            self.options.snapshot_interval,
            self.svc.telemetry(),
            || self.unfitted_copy(),
        );
        self.journal = journal;
        report
    }

    /// One serving round without the commit; recovery replays these.
    fn serve_round(&mut self, script: &TrafficScript) -> ServeRoundReport {
        let round = self.svc.rounds();
        let shed_before = self.serve.shed_total();
        let rejected_before = self.serve.admission_rejections + self.serve.queue_rejections;
        let mut responses: Vec<(u64, Response)> = Vec::new();

        // Scripted submissions due this round, in declaration order. Typed rejections
        // at the door surface as id-0 responses (no id was assigned).
        for step in script.due_at(round).cloned().collect::<Vec<_>>() {
            if let Err(error) = self.submit(step.request) {
                responses.push((0, Response::Denied { error }));
            }
        }

        // Deadline sweep before dispatch: an expired request never executes, so it can
        // never leave a session half-stepped.
        let queue = std::mem::take(&mut self.serve.queue);
        for q in queue {
            if round >= q.deadline_round {
                self.serve.deadline_misses += 1;
                self.svc.telemetry().incr(CounterId::DeadlineMisses);
                if self.svc.telemetry().is_enabled() {
                    self.svc.telemetry().event(
                        EventKind::DeadlineMissed,
                        &q.request.label(),
                        &format!(
                            "id={} enqueued_round={} deadline_round={}",
                            q.id, q.enqueued_round, q.deadline_round
                        ),
                    );
                }
                responses.push((
                    q.id,
                    Response::DeadlineMissed {
                        enqueued_round: q.enqueued_round,
                        deadline_round: q.deadline_round,
                    },
                ));
            } else {
                self.serve.queue.push(q);
            }
        }

        // Dispatch in FIFO order, bounded per round.
        let mut dispatched = 0;
        while dispatched < self.options.dispatch_per_round.max(1) && !self.serve.queue.is_empty() {
            let q = self.serve.queue.remove(0);
            let response = self.execute(q.request);
            self.svc.telemetry().incr(CounterId::RequestsDispatched);
            responses.push((q.id, response));
            dispatched += 1;
        }

        let iterations = self.svc.run_round();

        // Pressure accounting: a round that shed, rejected, or still ends with a full
        // queue counts toward the pressure window; anything else counts toward
        // recovery. Both counters live in ServeState, so a restored server resumes
        // mid-window.
        let shed_now = self.serve.shed_total() - shed_before;
        let rejected_now =
            self.serve.admission_rejections + self.serve.queue_rejections - rejected_before;
        let saturated = shed_now > 0
            || rejected_now > 0
            || self.serve.queue.len() >= self.options.queue_capacity.max(1);
        if saturated {
            self.serve.saturated_rounds += 1;
            self.serve.clear_rounds = 0;
            if self.serve.saturated_rounds >= self.options.pressure_window.max(1) {
                self.downgrade_all();
                self.serve.saturated_rounds = 0;
            }
        } else {
            self.serve.clear_rounds += 1;
            self.serve.saturated_rounds = 0;
            if self.serve.clear_rounds >= self.options.recovery_window.max(1) {
                self.upgrade_all();
                self.serve.clear_rounds = 0;
            }
        }

        self.svc
            .telemetry()
            .set_gauge(GaugeId::QueueDepth, self.serve.queue.len() as f64);
        self.svc
            .telemetry()
            .set_gauge(GaugeId::DegradedTenants, self.svc.degraded_tenants() as f64);

        ServeRoundReport {
            iterations,
            queue_depth: self.serve.queue.len(),
            saturated,
            responses,
        }
    }

    /// Simulates a crash that loses the last `torn` bytes of the WAL and returns what
    /// survives.
    pub fn crash(&self, torn: usize) -> DurableStorage {
        self.journal
            .crash(torn, |anchor| anchor.canonical_server_json())
    }

    /// Restores a server from the text of [`FleetServer::canonical_server_json`] (without
    /// WAL replay; see [`FleetServer::recover`] for the full crash path). The fleet is
    /// restored as [`FleetService::restore_json`] restores it: read tenant by tenant, with
    /// the worker grants re-clamped for this machine, and a parse error anywhere wins over
    /// a tenant that does not restore. Degradation tiers and the pressure counters come
    /// back verbatim.
    pub fn restore_json(json: &str, telemetry: TelemetryHandle) -> Result<Self, FleetError> {
        FleetServer::read_json(json, telemetry).map(FleetServer::anchored)
    }

    /// [`FleetServer::restore_json`] without anchoring the journal.
    fn read_json(json: &str, telemetry: TelemetryHandle) -> Result<Self, FleetError> {
        let mut de = Deserializer::new(json);
        let (options, fleet, serve) = read_server(&mut de)
            .and_then(|parts| de.end().map(|()| parts))
            .map_err(|e| FleetError::SnapshotParse(e.to_string()))?;
        let mut svc = fleet?;
        svc.note_restored(telemetry);
        Ok(FleetServer::unanchored(svc, options, serve))
    }

    /// Recovers a server from crash-surviving storage: drops any torn WAL tail,
    /// restores the snapshot, re-executes the committed rounds under the same traffic
    /// script, and verifies each replayed round's server-snapshot digest against the
    /// WAL's commit record. The recovered server continues **bit-identically** —
    /// including its queue, shed counts, pressure windows and every tenant's
    /// degradation tier.
    pub fn recover(
        storage: &DurableStorage,
        script: &TrafficScript,
        telemetry: TelemetryHandle,
    ) -> Result<(Self, RecoveryReport), FleetError> {
        let (server, report) = recovery::replay(
            storage,
            &telemetry,
            "server",
            |json| FleetServer::read_json(json, telemetry.clone()),
            |server| {
                server.serve_round(script);
                Ok(server.canonical_server_json())
            },
        )?;
        // Anchor once, at the recovered state; the old WAL bytes are superseded.
        Ok((server.anchored(), report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::tests::without_member;
    use crate::service::{small_tuner_options, FleetOptions};
    use crate::tenant::{DegradationTier, WorkloadFamily};
    use simdb::FaultKind;

    fn spec(name: &str, seed: u64) -> TenantSpec {
        let family = WorkloadFamily::ALL[(seed as usize) % WorkloadFamily::ALL.len()];
        let mut spec = TenantSpec::named(name.to_string(), family, seed);
        spec.deterministic = true;
        spec
    }

    fn small_server(n_tenants: usize, options: ServeOptions) -> FleetServer {
        let mut svc = FleetService::new(FleetOptions {
            workers: 1,
            tuner: small_tuner_options(),
            ..Default::default()
        });
        svc.set_parallelism(4);
        for i in 0..n_tenants {
            svc.admit(spec(&format!("t{i}"), 7000 + i as u64)).unwrap();
        }
        FleetServer::new(svc, options)
    }

    #[test]
    fn admissions_beyond_the_ceiling_are_typed_rejections() {
        let options = ServeOptions {
            max_tenants: 3,
            ..Default::default()
        };
        let mut server = small_server(2, options);
        // One seat left: the first admit queues, the rest reject at the door.
        server
            .submit(Request::Admit {
                spec: spec("fresh-0", 7100),
            })
            .unwrap();
        for i in 1..4 {
            let err = server
                .submit(Request::Admit {
                    spec: spec(&format!("fresh-{i}"), 7100 + i as u64),
                })
                .unwrap_err();
            match err {
                FleetError::AdmissionDenied { tenant, reason } => {
                    assert_eq!(tenant, format!("fresh-{i}"));
                    // 2 live + 1 queued: the door sees 2 live and lets it pass only
                    // once dispatch fills the seat; until then the ceiling message
                    // names the live count.
                    assert!(
                        reason.contains("ceiling") || reason.contains("budget"),
                        "{reason}"
                    );
                }
                other => panic!("expected AdmissionDenied, got {other}"),
            }
        }
        // Wait: with 2 live the door admits until the fleet itself fills. Dispatch the
        // queued admit, then the ceiling holds exactly.
        let script = TrafficScript::new("empty");
        server.run_round(&script);
        assert_eq!(server.service().n_tenants(), 3);
        let err = server
            .submit(Request::Admit {
                spec: spec("late", 7200),
            })
            .unwrap_err();
        assert!(matches!(err, FleetError::AdmissionDenied { .. }));
        assert!(server.serve_state().admission_rejections >= 1);
    }

    #[test]
    fn worker_budget_caps_admissions_independently_of_the_ceiling() {
        let options = ServeOptions {
            max_tenants: 100,
            max_tenants_per_worker: 2,
            ..Default::default()
        };
        // workers=1 → budget term 1×2 = 2 tenants.
        let mut server = small_server(2, options);
        let err = server
            .submit(Request::Admit {
                spec: spec("beyond-budget", 7300),
            })
            .unwrap_err();
        match err {
            FleetError::AdmissionDenied { reason, .. } => {
                assert!(reason.contains("worker budget"), "{reason}");
            }
            other => panic!("expected AdmissionDenied, got {other}"),
        }
    }

    #[test]
    fn saturation_sheds_reads_then_quarantined_suggests_then_rejects() {
        let options = ServeOptions {
            queue_capacity: 4,
            dispatch_per_round: 1,
            ..Default::default()
        };
        let mut server = small_server(2, options);
        // Quarantine t1 so its suggests become sheddable.
        server
            .service_mut()
            .session_mut("t1")
            .unwrap()
            .inject_faults(FaultKind::Timeout, 50);
        let script = TrafficScript::new("empty");
        for _ in 0..8 {
            server.run_round(&script);
        }
        assert!(matches!(
            server.service().session("t1").unwrap().health(),
            SessionHealth::Quarantined { .. }
        ));

        // Fill the queue: one read, one quarantined suggest, two healthy suggests.
        server.submit(Request::TelemetryRead).unwrap();
        server
            .submit(Request::Suggest {
                tenant: "t1".into(),
            })
            .unwrap();
        server
            .submit(Request::Suggest {
                tenant: "t0".into(),
            })
            .unwrap();
        server
            .submit(Request::Suggest {
                tenant: "t0".into(),
            })
            .unwrap();
        assert_eq!(server.serve_state().queue.len(), 4);

        // 5th submission sheds the read first…
        server
            .submit(Request::Suggest {
                tenant: "t0".into(),
            })
            .unwrap();
        assert_eq!(server.serve_state().shed_reads, 1);
        assert_eq!(server.serve_state().queue.len(), 4);
        // …the 6th sheds the quarantined suggest…
        server
            .submit(Request::Suggest {
                tenant: "t0".into(),
            })
            .unwrap();
        assert_eq!(server.serve_state().shed_suggests, 1);
        // …and once only healthy suggests remain, the queue rejects with a typed
        // error (healthy tenants' work and admissions are never shed).
        let err = server
            .submit(Request::Suggest {
                tenant: "t0".into(),
            })
            .unwrap_err();
        match err {
            FleetError::QueueFull { capacity, request } => {
                assert_eq!(capacity, 4);
                assert!(request.contains("suggest"), "{request}");
            }
            other => panic!("expected QueueFull, got {other}"),
        }
        assert_eq!(server.serve_state().queue_rejections, 1);
        // Every surviving queued request is a healthy suggest: nothing sheddable was
        // kept, nothing unsheddable was dropped.
        for q in &server.serve_state().queue {
            assert!(matches!(&q.request, Request::Suggest { tenant } if tenant == "t0"));
        }
    }

    #[test]
    fn expired_requests_never_half_step_a_session() {
        let options = ServeOptions {
            deadline_rounds: 2,
            dispatch_per_round: 1,
            ..Default::default()
        };
        let mut server = small_server(1, options);
        let script = TrafficScript::new("empty");
        // Queue three suggests; with one dispatch per round, the third cannot run
        // before its 2-round deadline.
        for _ in 0..3 {
            server
                .submit(Request::Suggest {
                    tenant: "t0".into(),
                })
                .unwrap();
        }
        let mut missed = Vec::new();
        let mut suggested = 0;
        for _ in 0..4 {
            let report = server.run_round(&script);
            for (id, response) in &report.responses {
                match response {
                    Response::DeadlineMissed { .. } => missed.push(*id),
                    Response::Suggestion { .. } => suggested += 1,
                    other => panic!("unexpected response {other:?}"),
                }
            }
        }
        assert_eq!(missed, vec![3], "exactly the third request expires");
        assert_eq!(suggested, 2);
        assert_eq!(server.serve_state().deadline_misses, 1);
        // The expired request executed nothing: the tenant's iteration count equals
        // scheduler rounds + the two dispatched suggests.
        let expected = server.service().granted_slots().iter().sum::<usize>() + suggested;
        assert_eq!(
            server.service().session("t0").unwrap().iteration(),
            expected,
            "a deadline miss must not half-step the session"
        );
    }

    #[test]
    fn sustained_pressure_degrades_and_recovery_restores() {
        let options = ServeOptions {
            queue_capacity: 2,
            dispatch_per_round: 1,
            pressure_window: 2,
            recovery_window: 2,
            deadline_rounds: 1,
            ..Default::default()
        };
        let mut server = small_server(2, options);
        // A storm: two suggests submitted every round against capacity 2 and one
        // dispatch per round keeps the queue full.
        let mut storm = TrafficScript::new("storm");
        for round in 0..8 {
            for _ in 0..3 {
                storm = storm.at(
                    round,
                    Request::Suggest {
                        tenant: "t0".into(),
                    },
                );
            }
        }
        let mut max_tier = DegradationTier::Full;
        let mut prev_tier = DegradationTier::Full;
        for _ in 0..8 {
            server.run_round(&storm);
            let tier = server.service().session("t0").unwrap().degradation();
            assert!(
                tier >= prev_tier,
                "tiers must be monotone while pressure persists"
            );
            prev_tier = tier;
            max_tier = max_tier.max(tier);
        }
        assert!(
            max_tier >= DegradationTier::CachedPosterior,
            "8 saturated rounds with window 2 must downgrade at least twice, got {max_tier:?}"
        );
        // Pressure lifts: quiet rounds walk every tenant back to Full.
        let quiet = TrafficScript::new("quiet");
        for _ in 0..16 {
            server.run_round(&quiet);
        }
        for session in server.service().sessions() {
            assert_eq!(
                session.degradation(),
                DegradationTier::Full,
                "{} did not recover",
                session.spec().name
            );
        }
        assert_eq!(server.service().degraded_tenants(), 0);
    }

    #[test]
    fn server_snapshots_restore_bit_identically_with_serve_state() {
        let options = ServeOptions {
            queue_capacity: 3,
            dispatch_per_round: 1,
            pressure_window: 2,
            ..Default::default()
        };
        let mut script = TrafficScript::new("mixed");
        for round in 0..10 {
            script = script.at(
                round,
                Request::Suggest {
                    tenant: "t0".into(),
                },
            );
            if round % 2 == 0 {
                script = script.at(round, Request::TelemetryRead);
            }
            if round % 3 == 0 {
                script = script.at(
                    round,
                    Request::Suggest {
                        tenant: "t1".into(),
                    },
                );
            }
        }
        let mut reference = small_server(2, options);
        for _ in 0..10 {
            reference.run_round(&script);
        }

        let mut original = small_server(2, options);
        for _ in 0..5 {
            original.run_round(&script);
        }
        let cut = original.canonical_server_json();
        let mut restored = FleetServer::restore_json(&cut, TelemetryHandle::disabled()).unwrap();
        assert_eq!(
            restored.serve_state(),
            original.serve_state(),
            "queue and overload accounting must survive the snapshot"
        );
        for _ in 0..5 {
            restored.run_round(&script);
        }
        assert_eq!(
            restored.canonical_server_json(),
            reference.canonical_server_json(),
            "restored server must replay bit-identically"
        );
    }

    #[test]
    fn streamed_server_text_equals_the_server_snapshot_text() {
        let options = ServeOptions {
            queue_capacity: 4,
            dispatch_per_round: 1,
            ..Default::default()
        };
        let mut script = TrafficScript::new("backlog");
        for round in 0..5 {
            for tenant in ["t0", "t1", "t0"] {
                script = script.at(
                    round,
                    Request::Suggest {
                        tenant: tenant.into(),
                    },
                );
            }
        }
        let mut server = small_server(2, options);
        server
            .service_mut()
            .set_telemetry(TelemetryHandle::enabled());
        let taken = |server: &FleetServer| {
            server
                .service()
                .metrics_snapshot()
                .counter(CounterId::SnapshotsTaken)
        };
        // Round 4 is a periodic commit: the journal anchors on a copy, uncounted.
        for round in 1..=4 {
            server.run_round(&script);
            assert_eq!(
                taken(&server),
                round,
                "one serialization per committed round"
            );
        }
        assert!(
            !server.serve_state().queue.is_empty(),
            "requests must be queued"
        );
        let anchored = server.crash(0);
        assert_eq!(anchored.snapshot_round, 4, "the server was just anchored");
        assert!(anchored.wal_bytes.is_empty());
        assert_eq!(
            taken(&server),
            4,
            "writing the journal's anchor is not counted"
        );

        let streamed = server.canonical_server_json();
        assert_eq!(taken(&server), 5, "one more for one more serialization");
        assert_eq!(anchored.snapshot_json, streamed);
        // The anchor stays at the periodic commit while the live server runs on.
        server.run_round(&script);
        assert_eq!(taken(&server), 6, "one serialization per committed round");
        assert_eq!(server.crash(0).snapshot_json, streamed);
        assert_eq!(
            taken(&server),
            6,
            "writing the journal's anchor is not counted"
        );
    }

    #[test]
    fn crash_recovery_resumes_with_degradation_state_intact() {
        let options = ServeOptions {
            queue_capacity: 2,
            dispatch_per_round: 1,
            pressure_window: 2,
            recovery_window: 4,
            deadline_rounds: 1,
            snapshot_interval: 3,
            ..Default::default()
        };
        let mut storm = TrafficScript::new("storm");
        for round in 0..12 {
            for _ in 0..3 {
                storm = storm.at(
                    round,
                    Request::Suggest {
                        tenant: "t0".into(),
                    },
                );
            }
        }
        let horizon = 12;
        let mut reference = small_server(2, options);
        for _ in 0..horizon {
            reference.run_round(&storm);
        }
        assert!(
            reference.service().session("t0").unwrap().degradation() > DegradationTier::Full,
            "the storm must actually degrade the fleet for this test to bite"
        );

        for kill_round in [2usize, 5, 7, 10] {
            let mut server = small_server(2, options);
            for _ in 0..kill_round {
                server.run_round(&storm);
            }
            let torn = (kill_round * 13) % (crate::wal::FRAME_LEN + 7);
            let storage = server.crash(torn);
            let (mut recovered, report) =
                FleetServer::recover(&storage, &storm, TelemetryHandle::disabled()).unwrap();
            assert_eq!(report.snapshot_round, storage.snapshot_round);
            for _ in recovered.service().rounds()..horizon {
                recovered.run_round(&storm);
            }
            assert_eq!(
                recovered.canonical_server_json(),
                reference.canonical_server_json(),
                "kill at round {kill_round} (torn {torn}) must recover bit-identically, \
                 degradation tiers included"
            );
        }
    }

    #[test]
    fn a_server_snapshot_without_tenants_or_fleet_fails_naming_the_member() {
        let server = small_server(2, ServeOptions::default());
        let json = server.canonical_server_json();
        let fleet = server.service().canonical_snapshot_json();
        assert_eq!(
            json.matches(&fleet).count(),
            1,
            "the server text wraps the fleet's"
        );
        let cases = [
            (
                json.replacen(&fleet, &without_member(&fleet, "tenants"), 1),
                "missing field `tenants` in fleet snapshot",
            ),
            (
                without_member(&json, "fleet"),
                "missing field `fleet` in server snapshot",
            ),
        ];
        for (text, expected) in cases {
            let Err(err) = FleetServer::restore_json(&text, TelemetryHandle::disabled()) else {
                panic!("a server snapshot missing a member must not restore");
            };
            let message = err.to_string();
            assert!(message.contains(expected), "{message}");
            for gone in ["FleetSnapshot", "ServerSnapshot"] {
                assert!(!message.contains(gone), "{message}");
            }
        }
    }

    #[test]
    fn missing_genesis_snapshot_fails_with_a_typed_error() {
        let options = ServeOptions::default();
        let script = TrafficScript::new("empty");
        let mut server = small_server(1, options);
        for _ in 0..2 {
            server.run_round(&script);
        }
        let mut storage = server.crash(0);
        assert!(!storage.wal_bytes.is_empty(), "the WAL must have entries");
        storage.snapshot_json = String::new();
        let err = FleetServer::recover(&storage, &script, TelemetryHandle::disabled())
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, FleetError::SnapshotParse(_)), "{err}");
    }

    #[test]
    fn serving_telemetry_counts_the_overload_machinery() {
        let options = ServeOptions {
            queue_capacity: 2,
            dispatch_per_round: 1,
            deadline_rounds: 1,
            pressure_window: 2,
            max_tenants: 1,
            ..Default::default()
        };
        let mut server = small_server(1, options);
        server
            .service_mut()
            .set_telemetry(TelemetryHandle::enabled());
        let mut storm = TrafficScript::new("storm");
        for round in 0..6 {
            // The read goes in first so the suggest flood has something sheddable.
            storm = storm.at(round, Request::TelemetryRead);
            for _ in 0..3 {
                storm = storm.at(
                    round,
                    Request::Suggest {
                        tenant: "t0".into(),
                    },
                );
            }
        }
        storm = storm.at(
            1,
            Request::Admit {
                spec: spec("excess", 7500),
            },
        );
        for _ in 0..6 {
            server.run_round(&storm);
        }
        let snap = server.service().metrics_snapshot();
        assert!(snap.counter(CounterId::RequestsEnqueued) > 0);
        assert!(snap.counter(CounterId::RequestsDispatched) > 0);
        assert_eq!(
            snap.counter(CounterId::RequestsShed),
            server.serve_state().shed_total()
        );
        assert_eq!(
            snap.counter(CounterId::DeadlineMisses),
            server.serve_state().deadline_misses
        );
        assert!(snap.counter(CounterId::AdmissionRejections) >= 1);
        assert!(snap.counter(CounterId::TierDowngrades) >= 1);
        assert!(server
            .service()
            .telemetry_events()
            .iter()
            .any(|e| e.kind == EventKind::RequestShed));
        assert!(server
            .service()
            .telemetry_events()
            .iter()
            .any(|e| e.kind == EventKind::AdmissionDenied));
        // And none of it perturbed the serializable state: a telemetry-off twin
        // produces identical snapshot bytes.
        let mut twin = small_server(1, options);
        for _ in 0..6 {
            twin.run_round(&storm);
        }
        assert_eq!(
            twin.canonical_server_json(),
            server.canonical_server_json(),
            "telemetry changed server snapshot bytes"
        );
    }

    #[test]
    fn traffic_scripts_serde_round_trip() {
        let script = TrafficScript::new("rt")
            .at(
                0,
                Request::Admit {
                    spec: spec("a", 7600),
                },
            )
            .at(1, Request::TelemetryRead)
            .at(2, Request::Suggest { tenant: "a".into() })
            .at(3, Request::Remove { tenant: "a".into() });
        let json = serde_json::to_string(&script).unwrap();
        let back: TrafficScript = serde_json::from_str(&json).unwrap();
        assert_eq!(script, back);
        assert_eq!(back.due_at(2).count(), 1);
    }
}
