//! Live-heap bounds of the fit path, a fitted model's factor, the suggest sweep, snapshot
//! serialization and the crash journals of the server and the durable fleet, and the
//! allocation count of query encoding.
//!
//! This binary installs a counting global allocator, so it holds a single `#[test]`. The
//! allocator counts, per thread, the live heap bytes that thread allocated (its
//! allocations minus its frees, a reallocation counting only its size change), not
//! resident memory, and the allocation calls it made (allocations and reallocations).
//! Each bound is measured on the test thread alone, so worker threads that are still
//! freeing their thread-locals after a fleet round cannot move it.
//!
//! Run with `cargo test --release --test memory -- --nocapture` to print the figures.

use fleet::recovery::{DurableFleet, SNAPSHOT_INTERVAL};
use fleet::scenario::Scenario;
use fleet::serve::{FleetServer, ServeOptions, TrafficScript};
use fleet::service::{small_tuner_options, FleetOptions, FleetService};
use fleet::tenant::{TenantSpec, WorkloadFamily};
use gp::contextual::{ContextObservation, ContextualGp};
use gp::kernels::{Matern52Kernel, ScaledKernel};
use gp::rows::{Row, RowInterner, SharedConfig, SharedObservation};
use gp::GaussianProcess;
use mlkit::{QueryEncoder, SqlTokenizer};
use onlinetune::{OnlineTune, OnlineTuneOptions};
use simdb::{Configuration, HardwareSpec, KnobCatalogue};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use telemetry::{CounterId, TelemetryHandle};

struct Counting;

thread_local! {
    // Const-initialized and without destructors, so the allocator can read them at any
    // point of a thread's life without allocating.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

fn called() {
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

fn grew(bytes: usize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + bytes as isize;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

fn shrank(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get() - bytes as isize));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the wrapper only
// counts the calls and the sizes of the blocks that succeed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        called();
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        called();
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        called();
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Live heap bytes of the calling thread, relative to an arbitrary origin.
fn live() -> isize {
    LIVE.with(Cell::get)
}

/// Allocation calls the calling thread has made, relative to an arbitrary origin.
fn calls() -> usize {
    CALLS.with(Cell::get)
}

/// Runs `f` and returns its result with how far the calling thread's live heap rose above
/// its level at the start of the call, at the highest point during the call.
fn peak_rise<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = live();
    PEAK.with(|peak| peak.set(start));
    let out = f();
    (out, (PEAK.with(Cell::get) - start) as usize)
}

const F64: usize = std::mem::size_of::<f64>();
const USIZE: usize = std::mem::size_of::<usize>();
const CONFIG_DIM: usize = 40;
const CONTEXT_DIM: usize = 12;
/// Per repository observation, besides its values: the row's reference counts, the
/// repository entry and label, a model-window entry, the GP's handle, target and dual
/// weight, and a known-safe handle.
const ROW_HANDLES: usize = 160;
/// A restored tenant's state apart from its observations: the simulated instance, the
/// featurizer, the workload generator, rule and subspace state, and its share of the
/// knowledge base.
const PER_TENANT: usize = 48 * 1024;
/// Kernel, standardizer and other per-model bookkeeping that no allowance names.
const SLACK: usize = 16 * 1024;

/// Bytes of the Cholesky factor of an `n×n` matrix, which keeps its lower triangle only.
fn packed_factor_bytes(n: usize) -> usize {
    n * (n + 1) / 2 * F64
}

/// `n` observations of a smooth objective over 40 configuration and 12 context
/// dimensions, with a different offset per `model`.
fn observations(model: usize, n: usize) -> Vec<ContextObservation> {
    (0..n)
        .map(|i| {
            let t = (i * 7 + model * 131) as f64;
            let config: Vec<f64> = (0..CONFIG_DIM)
                .map(|d| (t * 0.37 + d as f64 * 0.11).fract())
                .collect();
            let context: Vec<f64> = (0..CONTEXT_DIM)
                .map(|d| (t * 0.13 + d as f64 * 0.29).fract())
                .collect();
            let performance = config.iter().sum::<f64>() + 0.5 * context[0];
            ContextObservation {
                context,
                config,
                performance,
            }
        })
        .collect()
}

/// (a) Fit, then refit, `k` models on one thread. The fit path's scratch — the Gram
/// matrix and a spare factor — belongs to the thread, so every model after the first
/// adds only what it keeps between fits: its factor, `α` and its training data (one
/// shared row per observation, the store's entry and the GP's handle on that row, and
/// the targets).
fn models_keep_no_fit_scratch() {
    const N: usize = 150;
    const K: usize = 4;
    let row = 2 * USIZE + (CONFIG_DIM + CONTEXT_DIM) * F64;
    let handles = std::mem::size_of::<SharedObservation>() + std::mem::size_of::<Row>();
    let allowance = packed_factor_bytes(N) + N * F64 + N * (row + handles + F64);

    let mut models = Vec::with_capacity(K);
    let mut added = Vec::with_capacity(K);
    for m in 0..K {
        let data = observations(m, N);
        let before = live();
        let mut model = ContextualGp::new(CONFIG_DIM, CONTEXT_DIM);
        model.set_observations(data);
        model.refit().expect("fit");
        model.refit().expect("refit");
        added.push(live() - before);
        models.push(model);
    }
    println!(
        "(a) live bytes added per fitted model, n = {N}: {added:?}; allowance {allowance} + slack {SLACK}"
    );
    for (m, &bytes) in added.iter().enumerate().skip(1) {
        assert!(
            bytes <= (allowance + SLACK) as isize,
            "model {m} added {bytes} B, more than its factor, α and data ({allowance} B) + {SLACK} B"
        );
    }
}

/// A fitted model's own state besides its factor: the model, its kernel and
/// standardizer, and the growth slack of its `α`, target and row-handle vectors after an
/// observation.
const PER_MODEL: usize = 8 * 1024;

/// (h) A fitted model keeps the lower triangle of its Cholesky factor only, and an
/// observation appends one row to it: dropping a GP fitted at n = 150 and then extended
/// by one observation frees, beyond the training rows it shares, the packed factor of
/// n = 151, one `α` value, target and row handle per observation, and [`PER_MODEL`]. A
/// dense factor (n²·8 B) exceeds it by more than 88 KiB.
fn a_fitted_model_keeps_a_packed_factor() {
    const N: usize = 150;
    let data = observations(7, N + 1);
    let rows: Vec<Row> = data
        .iter()
        .map(|o| Row::from([&o.config[..], &o.context[..]].concat()))
        .collect();
    let targets: Vec<f64> = data.iter().map(|o| o.performance).collect();
    let kernel = ScaledKernel::new(Box::new(Matern52Kernel::new(1.5)), 1.0);
    let telemetry = TelemetryHandle::enabled();
    let mut model = GaussianProcess::new(Box::new(kernel), 1e-3);
    model.set_telemetry(telemetry.clone());
    model.fit(&rows[..N], &targets[..N]).expect("fit");
    model.observe(rows[N].clone(), targets[N]).expect("observe");
    assert_eq!(model.n_observations(), N + 1);
    assert_eq!(
        telemetry.snapshot().counter(CounterId::ObserveFastPath),
        1,
        "the observation must extend the factor, not refit it"
    );
    let before = live();
    drop(model);
    let freed = before - live();
    let per_observation = 2 * F64 + std::mem::size_of::<Row>();
    let bound = packed_factor_bytes(N + 1) + (N + 1) * per_observation + PER_MODEL;
    println!(
        "(h) dropping a model fitted at n = {N} and extended once frees {freed} B; bound \
         {bound} B (packed factor {} B, dense {} B)",
        packed_factor_bytes(N + 1),
        (N + 1) * (N + 1) * F64
    );
    assert!(
        freed <= bound as isize,
        "dropping the model freed {freed} B, more than its packed factor ({} B), {} B per \
         observation and {PER_MODEL} B ({bound} B)",
        packed_factor_bytes(N + 1),
        per_observation
    );
}

/// (b) A suggest sweep assesses every subspace candidate through one batched posterior
/// call. Its joint candidate rows belong to the thread, so a second tenant's sweep on
/// the same thread reuses them and leaves nothing behind in its tuner.
fn suggest_keeps_no_candidate_rows_per_tuner() {
    let catalogue = KnobCatalogue::mysql57();
    let initial = Configuration::dba_default(&catalogue);
    let mut tuner = OnlineTune::new(
        catalogue.clone(),
        HardwareSpec::default(),
        CONTEXT_DIM,
        &initial,
        OnlineTuneOptions::default(),
        5,
    );
    let context: Vec<f64> = (0..CONTEXT_DIM).map(|d| 0.1 * d as f64).collect();
    for _ in 0..8 {
        let suggestion = tuner.suggest(&context, 100.0, 32);
        let performance = 100.0 + suggestion.normalized.iter().sum::<f64>();
        tuner
            .observe(&context, &suggestion.config, performance, None, true)
            .expect("finite measurement");
    }
    // Restored tuners start with nothing cached from earlier sweeps.
    let mut first =
        OnlineTune::restore(tuner.snapshot(), &mut RowInterner::default()).expect("restore");
    let mut second =
        OnlineTune::restore(tuner.snapshot(), &mut RowInterner::default()).expect("restore");
    let kept_by_sweep = |tuner: &mut OnlineTune| {
        let before = live();
        let suggestion = tuner.suggest(&context, 100.0, 32);
        assert!(
            suggestion.diagnostics.candidates_total > 200,
            "the sweep must assess the full candidate set"
        );
        drop(suggestion);
        live() - before
    };
    let first_kept = kept_by_sweep(&mut first);
    let second_kept = kept_by_sweep(&mut second);
    println!(
        "(b) live bytes kept across one suggest sweep: {first_kept} by the thread's first, {second_kept} by a second tuner's"
    );
    assert!(
        second_kept <= 8 * 1024,
        "a second tuner's sweep left {second_kept} B behind; its pending suggestion needs well under 8 KiB"
    );
}

/// Six deterministic tenants, one of each family and then some, after `rounds` rounds.
fn six_tenant_fleet(rounds: usize) -> FleetService {
    let mut svc = FleetService::new(FleetOptions {
        workers: 1,
        tuner: small_tuner_options(),
        ..Default::default()
    });
    for i in 0..6 {
        let family = WorkloadFamily::ALL[i % WorkloadFamily::ALL.len()];
        let mut spec = TenantSpec::named(format!("tenant-{i}"), family, 300 + i as u64);
        spec.deterministic = true;
        svc.admit(spec).expect("admit");
    }
    svc.run_rounds(rounds);
    svc
}

/// (c) Serializing the fleet streams the live state: beyond the text itself, it holds
/// at most one tenant's export at a time, never a copy of the whole fleet.
fn serialization_holds_one_tenant_export_at_a_time() {
    let svc = six_tenant_fleet(12);

    let largest_export = svc
        .sessions()
        .iter()
        .map(|session| peak_rise(|| session.export_state()).1)
        .max()
        .expect("tenants");
    let (text, rise) = peak_rise(|| svc.canonical_snapshot_json());
    let bound = text.capacity() + largest_export + 4 * 1024;
    println!(
        "(c) live-heap rise while serializing: {rise} B; text capacity {} B, largest tenant export {largest_export} B",
        text.capacity()
    );
    assert!(
        rise <= bound,
        "serializing rose {rise} B, more than the text ({} B) plus one tenant export ({largest_export} B) + 4 KiB",
        text.capacity()
    );
}

/// (e) A restored fleet holds each observation's values once, in its repository's row.
/// The model windows, the GPs' training rows, the known-safe sets and the knowledge base
/// hold handles on those rows, so the restored fleet's live heap stays within one row
/// per repository observation, the models' Cholesky factors and a per-tenant constant.
fn restored_fleet_keeps_each_observation_once() {
    let json = six_tenant_fleet(24).canonical_snapshot_json();
    let before = live();
    let restored = FleetService::restore_json(&json).expect("restore");
    let held = live() - before;

    let (mut observations, mut row_values, mut factors) = (0, 0, 0);
    for session in restored.sessions() {
        let clusters = session.export_state().tuner.clusters;
        observations += clusters.observations.len();
        row_values += clusters
            .observations
            .iter()
            .map(|o| o.config.len() + o.context.len())
            .sum::<usize>();
        factors += clusters
            .models
            .iter()
            .map(|m| packed_factor_bytes(m.observations.len()))
            .sum::<usize>();
    }
    let tenants = restored.n_tenants();
    let bound = row_values * F64 + observations * ROW_HANDLES + factors + tenants * PER_TENANT;
    println!(
        "(e) restored fleet: {held} B live for {observations} observations ({row_values} values) \
         in {tenants} tenants; bound {bound} B (factors {factors} B)"
    );
    assert!(
        held <= bound as isize,
        "the restored fleet holds {held} B, more than one row per observation plus factors and \
         {PER_TENANT} B per tenant ({bound} B): some observation is stored twice"
    );
}

/// A journal's anchor beyond its observation handles, per tenant: the instance's and the
/// tuner's knob catalogues, the featurizer, the workload generator, the subspace, rule,
/// routing and kernel state, and the tenant's share of the knowledge base's pools.
const PER_TENANT_ANCHOR: usize = 16 * 1024;

/// Live heap bytes of the handles a copy of `svc` holds on the fleet's observation rows:
/// per tenant a repository entry and a cluster label per observation, a window entry per
/// model observation and a known-safe entry per safe configuration, and the knowledge
/// base's entries.
fn observation_handle_bytes(svc: &FleetService) -> usize {
    let observation = std::mem::size_of::<SharedObservation>();
    let config = std::mem::size_of::<SharedConfig>();
    let mut bytes = 0;
    for session in svc.sessions() {
        let tuner = session.export_state().tuner;
        let windows: usize = session.model_observation_counts().iter().sum();
        bytes += tuner.clusters.observations.len() * (observation + std::mem::size_of::<i32>())
            + windows * observation
            + tuner.known_safe.len() * config;
    }
    let knowledge = svc.knowledge().totals();
    bytes + knowledge.observations * observation + knowledge.safe_configs * config
}

/// Asserts that `held`, the heap a crash-safe owner of `svc` holds beyond it, stays within
/// the journal anchor's observation handles and [`PER_TENANT_ANCHOR`] per tenant.
fn check_anchor(part: &str, when: &str, svc: &FleetService, held: isize) {
    let handles = observation_handle_bytes(svc);
    let bound = handles + svc.n_tenants() * PER_TENANT_ANCHOR;
    let text = svc.canonical_snapshot_json().len();
    println!(
        "({part}) beyond its fleet {when}: {held} B; bound {bound} B (observation handles \
         {handles} B), fleet snapshot text {text} B"
    );
    assert!(
        held <= bound as isize,
        "{when}, {held} B beyond the fleet, more than the anchor's observation handles \
         ({handles} B) and {PER_TENANT_ANCHOR} B per tenant: the journal holds a copy of \
         some observation or model fit"
    );
}

/// Takes the fleet out of `server` and returns it with the heap the server held beyond
/// it: what dropping the rest of the server frees.
fn held_beyond_fleet(mut server: FleetServer) -> (FleetService, isize) {
    let empty = FleetService::new(FleetOptions::default());
    let fleet = std::mem::replace(server.service_mut(), empty);
    let before = live();
    drop(server);
    (fleet, before - live())
}

/// (f) A server's crash journal anchors on a copy of the server whose tenants hold handles
/// on the fleet's observation rows and no model fit, and writes it to text only when the
/// server crashes: beyond its fleet, a server holds those handles and a per-tenant
/// constant, at construction, after a periodic commit and after a restore.
fn server_journal_anchors_on_row_handles() {
    let options = ServeOptions::default();
    let check = |when: &str, server: FleetServer| -> FleetService {
        let (fleet, held) = held_beyond_fleet(server);
        check_anchor("f", when, &fleet, held);
        fleet
    };

    let svc = check(
        "at construction",
        FleetServer::new(six_tenant_fleet(24), options),
    );
    let mut server = FleetServer::new(svc, options);
    for _ in 0..options.snapshot_interval {
        server.run_round(&TrafficScript::new("quiet"));
    }
    assert!(
        server.crash(0).wal_bytes.is_empty(),
        "the last round must have been a periodic commit"
    );
    let svc = check("after a periodic commit", server);
    let json = FleetServer::new(svc, options).canonical_server_json();
    let restored = FleetServer::restore_json(&json, TelemetryHandle::disabled()).expect("restore");
    check("after restore_json", restored);
}

/// (g) A durable fleet's journal anchors on a copy of the fleet, so it holds what a
/// server's does (f) beyond its fleet: at construction, after a periodic commit and
/// over a restored fleet. Each durable fleet is measured against its twin, a plain fleet
/// restored from the same text that ran the same rounds: the two fleets hold the same
/// heap, so what dropping the durable fleet frees beyond what dropping its twin frees is
/// what its journal holds.
fn durable_fleet_journal_anchors_on_row_handles() {
    let restore = |json: &str| FleetService::restore_json(json).expect("restore");
    let check = |when: &str, durable: DurableFleet, twin: FleetService| -> String {
        let json = twin.canonical_snapshot_json();
        let before = live();
        drop(durable);
        let durable_freed = before - live();
        let before = live();
        drop(twin);
        let twin_freed = before - live();
        check_anchor("g", when, &restore(&json), durable_freed - twin_freed);
        json
    };
    let quiet = || Scenario::new("quiet");

    let genesis = six_tenant_fleet(24).canonical_snapshot_json();
    check(
        "at construction",
        DurableFleet::new(restore(&genesis), quiet()),
        restore(&genesis),
    );
    let mut durable = DurableFleet::new(restore(&genesis), quiet());
    durable.run_rounds(SNAPSHOT_INTERVAL).expect("rounds");
    assert!(
        durable.crash(0).wal_bytes.is_empty(),
        "the last round must have been a periodic commit"
    );
    let mut twin = restore(&genesis);
    for _ in 0..SNAPSHOT_INTERVAL {
        twin.run_round();
    }
    let json = check("after a periodic commit", durable, twin);
    check(
        "over a restored fleet",
        DurableFleet::new(restore(&json), quiet()),
        restore(&json),
    );
}

/// (d) Encoding a workload allocates per call and per query, never per token: the
/// tokenizer reuses one buffer, the encoder keeps token hashes, and the recurrent steps
/// write into one stack of states.
fn encoding_allocates_per_call_not_per_token() {
    const QUERIES: usize = 30;
    const BOUND: usize = 16 + 2 * QUERIES;
    let encoder = QueryEncoder::new(8, 0x0417e5);
    for family in WorkloadFamily::ALL {
        let queries = family.build(7).sample_queries(0, QUERIES);
        let mut tokens = 0;
        let mut tokenizer = SqlTokenizer::new();
        for query in &queries {
            tokenizer.for_each_token(query, |_| tokens += 1);
        }
        let before = calls();
        drop(encoder.encode_workload(&queries));
        let made = calls() - before;
        println!(
            "(d) {}: {made} allocation calls to encode {QUERIES} queries of {tokens} tokens; bound {BOUND}",
            family.label()
        );
        assert!(
            made <= BOUND,
            "encoding {} made {made} allocation calls for {tokens} tokens, more than {BOUND}",
            family.label()
        );
    }
}

#[test]
fn fit_suggest_and_serialization_keep_only_what_they_must() {
    models_keep_no_fit_scratch();
    a_fitted_model_keeps_a_packed_factor();
    suggest_keeps_no_candidate_rows_per_tuner();
    serialization_holds_one_tenant_export_at_a_time();
    restored_fleet_keeps_each_observation_once();
    server_journal_anchors_on_row_handles();
    durable_fleet_journal_anchors_on_row_handles();
    encoding_allocates_per_call_not_per_token();
}
