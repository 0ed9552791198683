//! Crash-safe execution: periodic snapshots + a checksummed WAL + deterministic replay
//! recovery, shared by the durable fleet and the fleet server.
//!
//! [`DurableFleet`] (a [`FleetService`] driven by a [`Scenario`]) and
//! [`FleetServer`](crate::serve::FleetServer) (the serving front end, driven by a
//! [`TrafficScript`](crate::serve::TrafficScript)) keep their crash-safety state in one
//! journal: the last periodic snapshot plus a [`WriteAheadLog`] of per-round commit
//! records. The journal holds that snapshot as the owner's snapshot structure (a
//! [`FleetSnapshot`] or a [`ServerSnapshot`](crate::serve::ServerSnapshot)), whose
//! knowledge base shares the live fleet's rows, and writes it to text only when it
//! crashes. A crash leaves a [`DurableStorage`]; recovery returns a [`RecoveryReport`].
//! The fleet's determinism contract does the heavy lifting: a round's outcome is a pure
//! function of the snapshot it started from and the script, so the *redo function is
//! re-execution*. WAL entries carry no observations — only a sequence number, the
//! committed round, and an FNV-1a-64 digest of the owner's canonical post-round
//! snapshot JSON that the replay is verified against.
//!
//! The recovery invariant — tested at every kill round for a fault-laced
//! [`DurableFleet`] and for a [`FleetServer`](crate::serve::FleetServer) under mixed
//! overload traffic (`crash_at_every_round_recovers_bit_identically`), and fuzzed by
//! the `crash_recovery_bit_identity` property — is:
//!
//! > Kill the process after *any* round (tearing an arbitrary number of bytes off the
//! > WAL tail), recover from the surviving storage, and continue to the horizon: the
//! > final snapshot is **bit-identical** to a run that was never interrupted.
//!
//! Torn WAL tails are detected by checksum and dropped (the round they would have
//! committed is simply re-executed); mid-journal corruption and digest mismatches fail
//! recovery with a typed [`FleetError`] rather than resurrecting a wrong state.

use crate::error::FleetError;
use crate::scenario::Scenario;
use crate::service::{FleetService, FleetSnapshot};
use crate::wal::{fnv1a64, WriteAheadLog, FRAME_LEN};
use serde::Serialize;
use telemetry::{CounterId, EventKind, TelemetryHandle};

/// A [`DurableFleet`] takes a full snapshot (and truncates the WAL) every this many
/// committed rounds.
pub const SNAPSHOT_INTERVAL: usize = 4;

/// What survives a crash: the last periodic snapshot and the WAL bytes written since.
#[derive(Debug, Clone, PartialEq)]
pub struct DurableStorage {
    /// Canonical JSON of the last periodic snapshot.
    pub snapshot_json: String,
    /// Fleet round counter at the moment the snapshot was taken.
    pub snapshot_round: usize,
    /// Raw WAL bytes appended since that snapshot (possibly torn by the crash).
    pub wal_bytes: Vec<u8>,
}

/// What a recovery did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Round the recovered snapshot anchored the replay at.
    pub snapshot_round: usize,
    /// Rounds re-executed from the WAL's commit records.
    pub replayed_rounds: usize,
    /// Bytes of torn WAL tail dropped (0 after a clean shutdown).
    pub torn_bytes: usize,
}

/// The crash-safety state a [`DurableFleet`] or a [`FleetServer`](crate::serve::FleetServer)
/// owns: its last periodic snapshot and the WAL of the rounds committed since (one frame
/// each).
///
/// The snapshot is held as the owner's snapshot structure `S` (a [`FleetSnapshot`] or a
/// [`ServerSnapshot`](crate::serve::ServerSnapshot)), not as text: [`Journal::crash`]
/// writes it. Each structure writes its owner's canonical text through the writer the
/// owner's streamed text goes through, so that text is the one the anchoring commit
/// digested.
pub(crate) struct Journal<S> {
    /// `None` only while [`FleetServer::recover`](crate::serve::FleetServer::recover)
    /// replays, before it anchors the recovered server.
    snapshot: Option<S>,
    snapshot_round: usize,
    wal: WriteAheadLog,
}

impl<S> Default for Journal<S> {
    /// A journal anchored nowhere yet, for an owner that anchors before it is handed out.
    fn default() -> Self {
        Journal {
            snapshot: None,
            snapshot_round: 0,
            wal: WriteAheadLog::default(),
        }
    }
}

// The snapshot is large; summarize instead.
impl<S> std::fmt::Debug for Journal<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("snapshot_round", &self.snapshot_round)
            .field("wal_bytes", &self.wal.bytes().len())
            .finish()
    }
}

impl<S: Serialize> Journal<S> {
    /// A journal anchored at `snapshot`, the owner's state at `round`, with an empty WAL.
    pub(crate) fn anchor(snapshot: S, round: usize) -> Self {
        Journal {
            snapshot: Some(snapshot),
            snapshot_round: round,
            ..Default::default()
        }
    }

    /// Commits a round: appends the digest of `json`, the owner's canonical text after
    /// `round`, to the WAL, and every `interval` commits anchors at `snapshot()`, the
    /// owner's state as a structure, and truncates the WAL (the sequence counter runs on).
    pub(crate) fn commit(
        &mut self,
        json: &str,
        round: usize,
        interval: usize,
        telemetry: &TelemetryHandle,
        snapshot: impl FnOnce() -> S,
    ) {
        self.wal.append(round as u64, fnv1a64(json.as_bytes()));
        telemetry.incr(CounterId::WalAppends);
        if self.wal.bytes().len() / FRAME_LEN >= interval.max(1) {
            self.snapshot = Some(snapshot());
            self.snapshot_round = round;
            self.wal.clear();
        }
    }

    /// What a crash right now would leave behind, minus the last `torn` WAL bytes
    /// (`torn` larger than the journal tears it to empty). The snapshot is written to
    /// text here, and only here.
    pub(crate) fn crash(&self, torn: usize) -> DurableStorage {
        let snapshot = self
            .snapshot
            .as_ref()
            .expect("a journal is anchored before its owner is handed out");
        let wal = self.wal.bytes();
        DurableStorage {
            snapshot_json: serde_json::to_string(snapshot)
                .expect("an in-memory snapshot always serializes"),
            snapshot_round: self.snapshot_round,
            wal_bytes: wal[..wal.len().saturating_sub(torn)].to_vec(),
        }
    }
}

/// Recovers a journal's owner from crash-surviving storage. The WAL is scanned (dropping a
/// torn tail) before the expensive `restore` of the snapshot, so a corrupt journal fails
/// first. Then, per committed entry, `round` runs one *uncommitted* round and returns the
/// owner's canonical JSON, whose digest must match the entry's or the replay fails with
/// [`FleetError::RecoveryDivergence`]. `subject` names the owner in the recovery event;
/// the caller anchors a fresh journal on the result.
pub(crate) fn replay<D>(
    storage: &DurableStorage,
    telemetry: &TelemetryHandle,
    subject: &str,
    restore: impl FnOnce(&str) -> Result<D, FleetError>,
    mut round: impl FnMut(&mut D) -> Result<String, FleetError>,
) -> Result<(D, RecoveryReport), FleetError> {
    let scan = WriteAheadLog::scan(&storage.wal_bytes)?;
    let mut owner = restore(&storage.snapshot_json)?;
    telemetry.add(
        CounterId::WalTornEntriesDropped,
        (scan.torn_bytes > 0) as u64,
    );
    for entry in &scan.entries {
        let digest = fnv1a64(round(&mut owner)?.as_bytes());
        telemetry.incr(CounterId::RecoveryReplays);
        if digest != entry.digest {
            return Err(FleetError::RecoveryDivergence {
                round: entry.round as usize,
                expected: entry.digest,
                actual: digest,
            });
        }
    }
    let report = RecoveryReport {
        snapshot_round: storage.snapshot_round,
        replayed_rounds: scan.entries.len(),
        torn_bytes: scan.torn_bytes,
    };
    if telemetry.is_enabled() {
        telemetry.event(
            EventKind::WalRecovered,
            subject,
            &format!(
                "snapshot@{} +{} replayed, {} torn bytes dropped",
                report.snapshot_round, report.replayed_rounds, report.torn_bytes
            ),
        );
    }
    Ok((owner, report))
}

/// A crash-safe wrapper around a scenario-driven fleet.
///
/// Construction takes a genesis snapshot, so [`DurableFleet::crash`] is total — there
/// is no window in which a crash loses everything. Each [`DurableFleet::run_round`]
/// fires the scenario steps due at the current round, executes the round, appends a
/// commit record to the WAL, and every [`SNAPSHOT_INTERVAL`] rounds replaces the
/// snapshot and truncates the WAL.
pub struct DurableFleet {
    // FleetService holds live sessions (no Debug); summarize instead.
    svc: FleetService,
    scenario: Scenario,
    journal: Journal<FleetSnapshot>,
}

impl std::fmt::Debug for DurableFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableFleet")
            .field("rounds", &self.svc.rounds())
            .field("scenario", &self.scenario.name)
            .field("journal", &self.journal)
            .finish()
    }
}

impl DurableFleet {
    /// Wraps a service and its driving scenario, taking the genesis snapshot.
    pub fn new(svc: FleetService, scenario: Scenario) -> Self {
        let journal = Journal::anchor(svc.export(), svc.rounds());
        DurableFleet {
            svc,
            scenario,
            journal,
        }
    }

    /// The wrapped service.
    pub fn service(&self) -> &FleetService {
        &self.svc
    }

    /// Mutable access to the wrapped service (telemetry installation etc.).
    pub fn service_mut(&mut self) -> &mut FleetService {
        &mut self.svc
    }

    /// Fires due scenario steps, executes one round, and commits it to the WAL.
    /// Returns the iterations the round executed.
    pub fn run_round(&mut self) -> Result<usize, FleetError> {
        let iterations = scripted_round(&mut self.svc, &self.scenario)?;
        self.journal.commit(
            &self.svc.canonical_snapshot_json(),
            self.svc.rounds(),
            SNAPSHOT_INTERVAL,
            self.svc.telemetry(),
            || self.svc.export(),
        );
        Ok(iterations)
    }

    /// Runs `n` rounds; returns the total iterations executed.
    pub fn run_rounds(&mut self, n: usize) -> Result<usize, FleetError> {
        let mut total = 0;
        for _ in 0..n {
            total += self.run_round()?;
        }
        Ok(total)
    }

    /// Simulates a crash that loses the last `torn` bytes of the WAL and returns what
    /// survives. (`torn` larger than the journal tears it to empty.)
    pub fn crash(&self, torn: usize) -> DurableStorage {
        self.journal.crash(torn)
    }

    /// Recovers a durable fleet from crash-surviving storage: drops any torn WAL tail,
    /// restores the snapshot, re-executes the committed rounds under the scenario, and
    /// verifies each replayed round's state digest against the WAL's commit record.
    ///
    /// The recovered fleet continues **bit-identically** to the crashed one; a digest
    /// mismatch fails with [`FleetError::RecoveryDivergence`].
    pub fn recover(
        storage: &DurableStorage,
        scenario: Scenario,
        telemetry: TelemetryHandle,
    ) -> Result<(Self, RecoveryReport), FleetError> {
        let (svc, report) = replay(
            storage,
            &telemetry,
            "fleet",
            |json| FleetService::restore_with_telemetry(json, telemetry.clone()),
            |svc| {
                scripted_round(svc, &scenario)?;
                Ok(svc.canonical_snapshot_json())
            },
        )?;
        Ok((DurableFleet::new(svc, scenario), report))
    }
}

/// Fires the scenario steps due at the service's current round, then executes the round.
fn scripted_round(svc: &mut FleetService, scenario: &Scenario) -> Result<usize, FleetError> {
    for step in scenario.due_at(svc.rounds()) {
        step.event.apply(svc).map_err(FleetError::Scenario)?;
    }
    Ok(svc.run_round())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{FaultSchedule, ScenarioEvent};
    use crate::serve::{FleetServer, Request, ServeOptions, TrafficScript};
    use crate::service::{small_tuner_options, FleetOptions};
    use crate::tenant::{DegradationTier, TenantSpec, WorkloadFamily};
    use crate::wal::WalEntry;
    use simdb::FaultKind;

    /// Rounds every uninterrupted reference run goes to.
    const HORIZON: usize = 12;

    fn small_service(n: usize) -> FleetService {
        let mut svc = FleetService::new(FleetOptions {
            workers: 1,
            tuner: small_tuner_options(),
            ..Default::default()
        });
        for i in 0..n {
            let family = WorkloadFamily::ALL[i % WorkloadFamily::ALL.len()];
            let mut spec = TenantSpec::named(format!("t{i}"), family, 4000 + i as u64);
            spec.deterministic = true;
            svc.admit(spec).unwrap();
        }
        svc
    }

    fn faulty_scenario() -> Scenario {
        Scenario::new("durable-test")
            .at(
                2,
                ScenarioEvent::InjectFault {
                    tenant: "t0".into(),
                    kind: FaultKind::Failure,
                    schedule: FaultSchedule::Burst { count: 4 },
                },
            )
            .at(
                4,
                ScenarioEvent::ScaleData {
                    tenant: "t1".into(),
                    factor: 1.5,
                },
            )
    }

    /// The round at which the storm admits [`joiner`].
    const ADMIT_ROUND: usize = 4;

    /// A fresh deterministic tenant the storm admits mid-run.
    fn joiner() -> TenantSpec {
        let mut spec = TenantSpec::named("t2", WorkloadFamily::ALL[2], 4002);
        spec.deterministic = true;
        spec
    }

    /// Mixed traffic against a queue of 2 with one dispatch slot. Every round opens
    /// with a telemetry read, which the three suggests after it shed, and round
    /// [`ADMIT_ROUND`] first admits [`joiner`]. The queue stays full, so the server
    /// walks down the degradation ladder while it sheds, rejects and admits.
    fn storm() -> TrafficScript {
        let mut storm = TrafficScript::new("storm");
        for round in 0..HORIZON {
            if round == ADMIT_ROUND {
                storm = storm.at(round, Request::Admit { spec: joiner() });
            }
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
        storm
    }

    /// The suite's view of a durable fleet or server running its script.
    trait Durable: Sized {
        /// Commits between periodic snapshots.
        const INTERVAL: usize;
        /// A fresh instance over two tenants.
        fn start() -> Self;
        fn run(&mut self, rounds: usize);
        fn fleet(&self) -> &FleetService;
        /// The canonical JSON the WAL digests.
        fn bytes(&self) -> String;
        fn kill(&self, torn: usize) -> DurableStorage;
        /// Restores from the canonical JSON, with no WAL to replay.
        fn restore(json: &str) -> Self;
        /// Recovers under its own script, or under a different one if `wrong`.
        fn revive(
            storage: &DurableStorage,
            wrong: bool,
            telemetry: TelemetryHandle,
        ) -> Result<(Self, RecoveryReport), FleetError>;
    }

    /// The fleet under the fault-laced scenario.
    impl Durable for DurableFleet {
        const INTERVAL: usize = SNAPSHOT_INTERVAL;
        fn start() -> Self {
            DurableFleet::new(small_service(2), faulty_scenario())
        }
        fn run(&mut self, rounds: usize) {
            self.run_rounds(rounds).unwrap();
        }
        fn fleet(&self) -> &FleetService {
            &self.svc
        }
        fn bytes(&self) -> String {
            self.svc.canonical_snapshot_json()
        }
        fn kill(&self, torn: usize) -> DurableStorage {
            self.crash(torn)
        }
        fn restore(json: &str) -> Self {
            DurableFleet::new(FleetService::restore_json(json).unwrap(), faulty_scenario())
        }
        fn revive(
            storage: &DurableStorage,
            wrong: bool,
            telemetry: TelemetryHandle,
        ) -> Result<(Self, RecoveryReport), FleetError> {
            let scenario = if wrong {
                Scenario::new("wrong").at(
                    1,
                    ScenarioEvent::ScaleData {
                        tenant: "t0".into(),
                        factor: 9.0,
                    },
                )
            } else {
                faulty_scenario()
            };
            DurableFleet::recover(storage, scenario, telemetry)
        }
    }

    /// The server under the storm, which degrades it.
    impl Durable for FleetServer {
        // Unlike the fleet's, so the suite covers two cadences.
        const INTERVAL: usize = 3;
        fn start() -> Self {
            let options = ServeOptions {
                queue_capacity: 2,
                dispatch_per_round: 1,
                pressure_window: 2,
                recovery_window: 4,
                deadline_rounds: 1,
                snapshot_interval: Self::INTERVAL,
                ..Default::default()
            };
            FleetServer::new(small_service(2), options)
        }
        fn run(&mut self, rounds: usize) {
            for _ in 0..rounds {
                self.run_round(&storm());
            }
        }
        fn fleet(&self) -> &FleetService {
            self.service()
        }
        fn bytes(&self) -> String {
            self.canonical_server_json()
        }
        fn kill(&self, torn: usize) -> DurableStorage {
            self.crash(torn)
        }
        fn restore(json: &str) -> Self {
            FleetServer::restore_json(json, TelemetryHandle::disabled()).unwrap()
        }
        fn revive(
            storage: &DurableStorage,
            wrong: bool,
            telemetry: TelemetryHandle,
        ) -> Result<(Self, RecoveryReport), FleetError> {
            let script = if wrong {
                TrafficScript::new("quiet")
            } else {
                storm()
            };
            FleetServer::recover(storage, &script, telemetry)
        }
    }

    fn reference<D: Durable>() -> D {
        let mut durable = D::start();
        durable.run(HORIZON);
        durable
    }

    fn wal_entries(storage: &DurableStorage) -> Vec<WalEntry> {
        WriteAheadLog::scan(&storage.wal_bytes).unwrap().entries
    }

    fn recovery_error<D: Durable>(storage: &DurableStorage, wrong: bool) -> FleetError {
        match D::revive(storage, wrong, TelemetryHandle::disabled()) {
            Ok(_) => panic!("{} recovered from bad storage", std::any::type_name::<D>()),
            Err(e) => e,
        }
    }

    #[test]
    fn rounds_commit_to_the_wal_and_snapshots_truncate_it() {
        fn case<D: Durable>() {
            let mut durable = D::start();
            durable.run(D::INTERVAL - 1);
            assert_eq!(wal_entries(&durable.kill(0)).len(), D::INTERVAL - 1);
            // The interval's last round hits the snapshot: WAL truncated, snapshot
            // advanced…
            durable.run(1);
            let storage = durable.kill(0);
            assert!(storage.wal_bytes.is_empty());
            assert_eq!(storage.snapshot_round, D::INTERVAL);
            // …and the sequence counter runs on across the truncation.
            durable.run(1);
            assert_eq!(wal_entries(&durable.kill(0))[0].seq, D::INTERVAL as u64);
        }
        case::<DurableFleet>();
        case::<FleetServer>();
    }

    #[test]
    fn the_crash_snapshot_is_the_text_of_the_last_anchor() {
        fn case<D: Durable>() {
            let name = std::any::type_name::<D>();
            let mut durable = D::start();
            let mut anchored = durable.bytes();
            for round in 1..=2 * D::INTERVAL + 1 {
                durable.run(1);
                if round % D::INTERVAL == 0 {
                    anchored = durable.bytes();
                }
                let storage = durable.kill(0);
                assert_eq!(
                    storage.snapshot_json, anchored,
                    "{name} after round {round}: not the text of the last periodic commit"
                );
                // Recovery anchors at the state it recovered, and a restore at the state
                // it read.
                let (recovered, _) =
                    D::revive(&storage, false, TelemetryHandle::disabled()).unwrap();
                let text = recovered.bytes();
                assert_eq!(recovered.kill(0).snapshot_json, text, "{name} recovered");
                assert_eq!(
                    D::restore(&text).kill(0).snapshot_json,
                    text,
                    "{name} restored"
                );
            }
        }
        case::<DurableFleet>();
        case::<FleetServer>();
    }

    #[test]
    fn crash_at_every_round_recovers_bit_identically() {
        fn case<D: Durable>() {
            let reference = reference::<D>().bytes();
            for kill_round in 1..HORIZON {
                let mut durable = D::start();
                durable.run(kill_round);
                // Tear a round-dependent number of bytes off the WAL tail, torn frames
                // included: recovery must cope with any cut.
                let storage = durable.kill((kill_round * 11) % (FRAME_LEN + 5));
                let name = std::any::type_name::<D>();
                let (mut recovered, report) =
                    D::revive(&storage, false, TelemetryHandle::disabled())
                        .unwrap_or_else(|e| panic!("{name} killed at round {kill_round}: {e}"));
                assert_eq!(
                    recovered.fleet().rounds(),
                    report.snapshot_round + report.replayed_rounds
                );
                assert!(recovered.fleet().rounds() <= kill_round);
                recovered.run(HORIZON - recovered.fleet().rounds());
                assert_eq!(
                    recovered.bytes(),
                    reference,
                    "{name} killed at round {kill_round}"
                );
            }
        }
        let server = reference::<FleetServer>();
        assert!(
            server.service().session("t0").unwrap().degradation() > DegradationTier::Full,
            "the storm must degrade the server for its recovery to carry tiers"
        );
        assert!(
            server.service().session(&joiner().name).is_some(),
            "the storm's admission must go through for kill points to replay it"
        );
        assert!(
            server.serve_state().shed_reads > 0,
            "the storm must shed reads for kill points to replay the shedding"
        );
        case::<DurableFleet>();
        case::<FleetServer>();
    }

    #[test]
    fn recovery_from_a_wrong_scenario_is_a_typed_divergence() {
        fn case<D: Durable>() {
            let mut durable = D::start();
            durable.run(D::INTERVAL - 1);
            // Replaying under a different timeline produces different bytes than the
            // WAL digests committed — recovery must refuse, not resurrect a wrong state.
            let err = recovery_error::<D>(&durable.kill(0), true);
            assert!(
                matches!(err, FleetError::RecoveryDivergence { .. }),
                "{err}"
            );
        }
        case::<DurableFleet>();
        case::<FleetServer>();
    }

    #[test]
    fn mid_journal_corruption_fails_recovery_with_a_typed_error() {
        fn case<D: Durable>() {
            let mut durable = D::start();
            durable.run(D::INTERVAL - 1);
            let mut storage = durable.kill(0);
            // A flipped bit in the first of several frames is storage damage, not a
            // torn tail.
            storage.wal_bytes[6] ^= 0x10;
            let err = recovery_error::<D>(&storage, false);
            assert!(matches!(err, FleetError::WalCorrupt { .. }), "{err}");
        }
        case::<DurableFleet>();
        case::<FleetServer>();
    }

    #[test]
    fn missing_genesis_snapshot_with_an_intact_wal_is_a_typed_error() {
        fn case<D: Durable>() {
            let mut durable = D::start();
            durable.run(D::INTERVAL - 1);
            let mut storage = durable.kill(0);
            assert!(
                !storage.wal_bytes.is_empty(),
                "the WAL must hold committed rounds for this test to bite"
            );
            // Simulate losing the snapshot file while the WAL survives: recovery must
            // refuse with a parse error naming the problem — never panic, never replay
            // a WAL against a fleet it doesn't belong to.
            storage.snapshot_json = String::new();
            let err = recovery_error::<D>(&storage, false);
            assert!(matches!(err, FleetError::SnapshotParse(_)), "{err}");
        }
        case::<DurableFleet>();
        case::<FleetServer>();
    }

    #[test]
    fn kill_between_truncation_and_first_append_recovers_bit_identically() {
        // A crash landing exactly in the gap between a periodic snapshot's WAL
        // truncation and the first post-truncation append leaves storage holding a
        // fresh snapshot and an *empty* WAL. Recovery must treat that as a clean
        // anchor (zero replayed rounds) and continue bit-identically.
        fn case<D: Durable>() {
            let reference = reference::<D>().bytes();
            let mut durable = D::start();
            durable.run(D::INTERVAL);
            let storage = durable.kill(0);
            assert_eq!(storage.snapshot_round, D::INTERVAL);
            assert!(
                storage.wal_bytes.is_empty(),
                "the truncation gap must leave an empty WAL"
            );
            let (mut recovered, report) =
                D::revive(&storage, false, TelemetryHandle::disabled()).unwrap();
            assert_eq!((report.replayed_rounds, report.torn_bytes), (0, 0));
            assert_eq!(recovered.fleet().rounds(), D::INTERVAL);
            recovered.run(HORIZON - D::INTERVAL);
            assert_eq!(
                recovered.bytes(),
                reference,
                "a truncation-gap kill must recover bit-identically"
            );
        }
        case::<DurableFleet>();
        case::<FleetServer>();
    }

    #[test]
    fn torn_recovery_counts_the_drop_and_the_replays_but_commits_nothing() {
        fn case<D: Durable>() {
            let mut durable = D::start();
            durable.run(D::INTERVAL - 1);
            // Tear the last frame, keeping 5 of its bytes.
            let storage = durable.kill(FRAME_LEN - 5);
            let telemetry = TelemetryHandle::enabled();
            let (_, report) = D::revive(&storage, false, telemetry.clone()).unwrap();
            assert_eq!(report.torn_bytes, 5);
            assert_eq!(report.replayed_rounds, D::INTERVAL - 2);
            let name = std::any::type_name::<D>();
            assert_eq!(
                telemetry.counter(CounterId::WalTornEntriesDropped),
                1,
                "{name}"
            );
            assert_eq!(telemetry.counter(CounterId::WalAppends), 0, "{name}");
            assert_eq!(
                telemetry.counter(CounterId::RecoveryReplays),
                report.replayed_rounds as u64,
                "{name}"
            );
        }
        case::<DurableFleet>();
        case::<FleetServer>();
    }
}
