//! Pins the bits of the query encoder's workload embeddings.
//!
//! `QueryEncoder::encode_workload` feeds every context the fleet builds, so a change to
//! its arithmetic moves every posterior, every decision and every snapshot digest. The
//! table below holds, per input and encoder, the FNV-1a-64 digest of the embedding's
//! `f64::to_bits`, recorded from the dense encoder, which stepped every query from its
//! first token and multiplied every input weight. Any rewrite of the encoder must
//! reproduce every bit.

use mlkit::QueryEncoder;
use workloads::cycle::TransactionalAnalyticalCycle;
use workloads::job::JobWorkload;
use workloads::realworld::RealWorldWorkload;
use workloads::tpcc::TpccWorkload;
use workloads::twitter::TwitterWorkload;
use workloads::ycsb::YcsbWorkload;
use workloads::WorkloadGenerator;

/// The encoders the digests are recorded for: the featurizer's default (dimension 8), a
/// dimension at which a token's two hashed buckets coincide for half the tokens, and an
/// odd one.
const ENCODERS: [(usize, u64); 3] = [(8, 0x0417e5), (2, 3), (13, 11)];

/// Digests per case, one per encoder of [`ENCODERS`].
#[rustfmt::skip]
const PINNED: &[(&str, [u64; 3])] = &[
    ("ycsb@0", [0x9069c470e233193f, 0x748bfeb935be9e4e, 0x7f2174b525f9f21a]),
    ("ycsb@157", [0x063a624dcfad1c92, 0x70c441863d053419, 0xfad13917c633e790]),
    ("tpcc-dynamic@0", [0xc3353347c6406204, 0xe7d7500dc42c9416, 0x6e2b11d5ac55c7b9]),
    ("tpcc-dynamic@157", [0xde3d0d6043c9e954, 0x08523c781b48423e, 0xcaca5f3972cd4700]),
    ("twitter-dynamic@0", [0x7d56fb3806cd3cd5, 0xc93b9bb283ca7cd5, 0xc4d1138ad4770248]),
    ("twitter-dynamic@157", [0xadd80fa8431c62f4, 0x5228516f62adfaf3, 0xfccc2fb5436e703e]),
    ("job-dynamic@0", [0x8ee1dc805f75e685, 0x623869d7de1d1e34, 0x6c090839474dedc4]),
    ("job-dynamic@157", [0xa237afb9f25206fa, 0x6891668334416247, 0xd537ff8d6dd3b4cc]),
    ("tpcc-job-cycle@0", [0xc3353347c6406204, 0xe7d7500dc42c9416, 0x6e2b11d5ac55c7b9]),
    ("tpcc-job-cycle@157", [0x6a9564c207f4dd33, 0x3dc20368fcfecc02, 0x0155b9dba7d6f2c2]),
    ("realworld@0", [0x2b54cbe21d0583b2, 0x4dcad10a163ef55f, 0x5bfaa2ad4aef09ec]),
    ("realworld@157", [0x1ee3d50dd81d00f9, 0x5d5d12f1f827340f, 0xa5e70bf567c3c575]),
    ("no queries", [0xb9b23f3a46fd0825, 0x88201fb960ff6465, 0x8d0350be04626145]),
    ("empty query", [0xb9b23f3a46fd0825, 0x88201fb960ff6465, 0x8d0350be04626145]),
    ("punctuation only", [0x0b6eb70b39346d1c, 0xd3dba7788045efb0, 0x6b8bcebc9c9ae28e]),
    ("non-ASCII letters", [0x3f84caf446297b55, 0x6ef95338ff365034, 0x0ea8da376f04c2e7]),
    ("repeated query", [0x33d15e413221cd37, 0xc1885bb808d4ca0f, 0xc63ae047a0493bc5]),
    ("prefix of another", [0x63a9dbf8b349d8a3, 0x7734842ee0a37f0d, 0x6c7f6bf1eef5006a]),
];

/// FNV-1a-64 over the little-endian bytes of each value's bits.
fn digest(values: &[f64]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for value in values {
        for byte in value.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100000001b3);
        }
    }
    hash
}

/// Every case: 30 queries of each workload family at two iterations (the cycle is in its
/// TPC-C phase at the first and in its JOB phase at the second), then edge inputs.
fn cases() -> Vec<(String, Vec<String>)> {
    let families: [Box<dyn WorkloadGenerator>; 6] = [
        Box::new(YcsbWorkload::new(7)),
        Box::new(TpccWorkload::new_dynamic(7)),
        Box::new(TwitterWorkload::new_dynamic(7)),
        Box::new(JobWorkload::new_dynamic(7)),
        Box::new(TransactionalAnalyticalCycle::new(7)),
        Box::new(RealWorldWorkload::new(7)),
    ];
    let mut cases = Vec::new();
    for generator in &families {
        for iteration in [0, 157] {
            cases.push((
                format!("{}@{iteration}", generator.name()),
                generator.sample_queries(iteration, 30),
            ));
        }
    }
    let owned = |queries: &[&str]| queries.iter().map(|q| q.to_string()).collect::<Vec<_>>();
    let lookup = "SELECT * FROM stock WHERE stock_id = 42";
    cases.push(("no queries".into(), Vec::new()));
    cases.push(("empty query".into(), owned(&[""])));
    cases.push(("punctuation only".into(), owned(&["(*) = <> ,; ()"])));
    cases.push((
        "non-ASCII letters".into(),
        owned(&["Äb_ǅ SELECT ÉCOLE FROM ŁÓDŹ WHERE Ω = 1"]),
    ));
    cases.push(("repeated query".into(), owned(&[lookup, lookup, lookup])));
    cases.push((
        "prefix of another".into(),
        owned(&[
            lookup,
            "SELECT * FROM stock",
            "SELECT * FROM stock WHERE stock_id = 42 AND s_qty < 10",
            "SELECT * FROM stock WHERE stock_id",
        ]),
    ));
    cases
}

#[test]
fn workload_embeddings_keep_their_recorded_bits() {
    let encoders: Vec<QueryEncoder> = ENCODERS
        .iter()
        .map(|&(dim, seed)| QueryEncoder::new(dim, seed))
        .collect();
    let cases = cases();
    assert_eq!(cases.len(), PINNED.len());
    for ((name, queries), (pinned_name, pinned)) in cases.iter().zip(PINNED) {
        assert_eq!(name, pinned_name);
        for (encoder, (&expected, &(dim, seed))) in
            encoders.iter().zip(pinned.iter().zip(&ENCODERS))
        {
            let embedding = encoder.encode_workload(queries);
            assert_eq!(
                digest(&embedding),
                expected,
                "case {name}, encoder ({dim}, {seed}): embedding bits moved to {embedding:?}"
            );
        }
    }
}
