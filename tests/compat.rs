//! Golden compatibility corpus: snapshots written by an earlier build must keep restoring.
//!
//! Each golden under `tests/compat/` restores, re-serializes to the very same bytes, and
//! replays the next rounds to the FNV-1a-64 digests recorded when it was written
//! (`tests/compat/digests.json`). The files are frozen — never regenerated — so a change to
//! the snapshot format or the JSON reader and writer is checked against bytes it did not
//! write; their own digests are pinned below, so a regenerated golden fails too.
//! `tests/compat/README.md` records how they were produced.

use fleet::serve::{FleetServer, TrafficScript};
use fleet::service::FleetService;
use fleet::wal::fnv1a64;
use std::collections::BTreeMap;
use std::path::PathBuf;
use telemetry::TelemetryHandle;

/// The FNV-1a-64 of each frozen file's bytes. The replay checks below compare a golden
/// with `digests.json`, so a golden regenerated together with its digests would pass
/// them; it fails here.
const FROZEN: [(&str, u64); 3] = [
    ("fleet_snapshot.json", 0x14f4_d9b4_7fa1_b4ee),
    ("server_snapshot.json", 0xe73f_9cd0_cb23_c32f),
    ("digests.json", 0x275c_9375_2406_38c0),
];

fn compat_file(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/compat")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("unreadable {}: {e}", path.display()))
}

fn recorded_digests(golden: &str) -> Vec<u64> {
    let all: BTreeMap<String, Vec<String>> =
        serde_json::from_str(&compat_file("digests.json")).expect("digests.json parses");
    let digests: Vec<u64> = all[golden]
        .iter()
        .map(|hex| {
            u64::from_str_radix(hex.trim_start_matches("0x"), 16)
                .unwrap_or_else(|e| panic!("bad digest {hex}: {e}"))
        })
        .collect();
    assert_eq!(digests.len(), 3, "{golden}: three recorded rounds");
    digests
}

fn assert_same_bytes(golden: &str, written: &str, expected: &str) {
    if written != expected {
        let at = written
            .bytes()
            .zip(expected.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(written.len().min(expected.len()));
        let context = |s: &str| {
            s.get(at.saturating_sub(40)..(at + 40).min(s.len()))
                .map(str::to_owned)
        };
        panic!(
            "{golden}: re-serialized bytes differ at byte {at} (lengths {} vs {}):\n  \
             written:  {:?}\n  expected: {:?}",
            written.len(),
            expected.len(),
            context(written),
            context(expected)
        );
    }
}

#[test]
fn the_frozen_files_keep_their_bytes() {
    for (name, digest) in FROZEN {
        assert_eq!(
            fnv1a64(compat_file(name).as_bytes()),
            digest,
            "{name} changed: the goldens are frozen, never regenerated or edited"
        );
    }
}

#[test]
fn golden_fleet_snapshot_restores_byte_identically_and_replays() {
    let golden = "fleet_snapshot.json";
    let json = compat_file(golden);
    let mut svc = FleetService::restore_json(&json).expect("golden fleet snapshot restores");
    assert_same_bytes(golden, &svc.canonical_snapshot_json(), &json);
    for (round, expected) in recorded_digests(golden).into_iter().enumerate() {
        svc.run_round();
        let digest = fnv1a64(svc.canonical_snapshot_json().as_bytes());
        assert_eq!(
            digest, expected,
            "{golden}: replayed round {round} diverged"
        );
    }
}

#[test]
fn golden_server_snapshot_restores_byte_identically_and_replays() {
    let golden = "server_snapshot.json";
    let json = compat_file(golden);
    let mut server = FleetServer::restore_json(&json, TelemetryHandle::disabled())
        .expect("golden server snapshot restores");
    assert_same_bytes(golden, &server.canonical_server_json(), &json);
    let script = TrafficScript::new("compat");
    for (round, expected) in recorded_digests(golden).into_iter().enumerate() {
        server.run_round(&script);
        let digest = fnv1a64(server.canonical_server_json().as_bytes());
        assert_eq!(
            digest, expected,
            "{golden}: replayed round {round} diverged"
        );
    }
}
